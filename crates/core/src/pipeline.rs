//! The four-valued query pipeline behind both front ends:
//! [`crate::Reasoner4`] over an immutable KB and [`crate::Session`] over
//! a mutable one.
//!
//! By Theorem 6 / Corollary 7 every service reduces to classical probes
//! over the induced KB `K̄` (Definitions 5–7): a membership question is
//! two instance checks, a role question two axiom entailments, an
//! inclusion one or two (un)satisfiability tests, satisfiability one
//! consistency check. That reduction is written once, here, and each
//! probe walks the same ladder, stopping at the first rung that
//! answers:
//!
//! 1. **told index** — a syntactically certain membership or internal
//!    subsumption ([`ToldIndex`]; soundness is argued in that module);
//! 2. **entailment cache** — exact instance-check verdicts keyed by
//!    `(a, C̄)`; in a session the module that answered a key records it,
//!    and the key leaves the cache with that module;
//! 3. **module** — the probe's `⊤`-locality module ([`crate::dataflow`]),
//!    cached per member set as a `ModuleEntry` whose Horn program,
//!    engine and hardness score are built on first use;
//! 4. **shared row** — a verdict another tenant computed over a module
//!    with the same structural key (sessions wired to a
//!    [`SharedModuleCache`]);
//! 5. **Horn saturation** — atomic instance goals, the `P ⊓ ¬Q` tests
//!    of atomic inclusions and consistency, when the module compiles to
//!    a Horn program;
//! 6. **tableau** — on the module's own engine or, for a pipeline built
//!    with a full-KB engine (a `Reasoner4` without
//!    `Config::module_scoping`), on that engine. Such a pipeline
//!    extracts a module only to try the Horn rung.
//!
//! Every rung is always on; the reference the ladder is checked against
//! is Corollary 7 over one unscoped tableau on `K̄`, in the parity
//! suites (`tests/common`).
//!
//! All services take `&self` (the caches sit behind mutexes and sharded
//! maps), so a pipeline serves any number of scoped worker threads.

use crate::cache::{lock_mutex, recover, ShardedMap};
use crate::command::Command;
use crate::dataflow::{self, axiom_local, Module, ModuleExtractor, SigAtom};
use crate::hardness;
use crate::horn::{self, HornProgram};
use crate::inclusion::InclusionKind;
use crate::kb4::{Axiom4, KnowledgeBase4};
use crate::serve::{self, SharedModuleCache};
use crate::told::ToldIndex;
use crate::transform::{self, Transformer};
use dl::axiom::{Axiom, RoleExpr};
use dl::kb::KnowledgeBase;
use dl::name::{ConceptName, IndividualName, RoleName};
use dl::Concept;
use fourval::TruthValue;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use tableau::{Config, QueryEngine, ReasonerError, Stats};

/// Member slot ids of a module: the module-cache key, one allocation
/// shared by the store's lookup map and the entry.
type ModuleKey = Arc<BTreeSet<usize>>;

/// An entailment-cache key `(a, C̄)`. In a session the answering
/// module's entry holds the same allocation as the cache map.
type EntailmentKey = Arc<(IndividualName, Concept)>;

/// One cached module. The engine, Horn program and score are built
/// lazily (a module answered purely by saturation never pays for a
/// tableau engine, and vice versa) and die together when a session
/// invalidates the module.
#[derive(Default)]
struct ModuleEntry {
    key: ModuleKey,
    /// Content address of the module's classical image
    /// ([`serve::structural_key`]); only pipelines wired to a
    /// [`SharedModuleCache`] ask for it.
    skey: OnceLock<Arc<str>>,
    /// The engine plus whether it was *adopted* from the shared cache
    /// (an adopted engine's search counters belong to the tenant that
    /// built it, so [`Pipeline::stats`] skips them).
    engine: OnceLock<(Arc<QueryEngine>, bool)>,
    horn: OnceLock<Option<Arc<HornProgram>>>,
    /// Static [`crate::hardness`] score of the module's classical image.
    hardness: OnceLock<f64>,
    /// Sessions only: the entailment-cache keys this module answered,
    /// which leave the cache when the module is invalidated.
    answered: Mutex<Vec<EntailmentKey>>,
}

/// The store slot around a [`ModuleEntry`]: distinct seeds can extract
/// the *same* axiom set (the empty module most of all) and share the
/// entry, so the signature a session's add-side dirty test checks is
/// the **union** of every contributing extraction's closed signature.
/// That stays sound by anti-monotonicity — an axiom `⊤`-local w.r.t.
/// the union is local w.r.t. each contributing signature, hence w.r.t.
/// every intermediate signature of each seed's re-extraction — and
/// errs only toward extra invalidation, never staleness.
struct ModuleSlot {
    /// Empty in an immutable pipeline, which never invalidates.
    signature: BTreeSet<SigAtom>,
    entry: Arc<ModuleEntry>,
}

/// The module cache: slots in a slab, found by member set and, in a
/// session, by `Σ`-atom. Locality reads `Σ` only through the atoms of
/// the tested axiom, so an added axiom can dirty only the modules
/// indexed under one of its atoms (or every module, when it is
/// never-local).
#[derive(Default)]
struct ModuleStore {
    ids: HashMap<ModuleKey, u32>,
    slots: Vec<Option<ModuleSlot>>,
    /// Vacated slab ids; no index list names them.
    free: Vec<u32>,
    /// Sessions only: `Σ`-atom → ids of the cached modules whose
    /// signature holds it.
    by_atom: HashMap<SigAtom, Vec<u32>>,
}

impl ModuleStore {
    fn slot(&self, id: u32) -> &ModuleSlot {
        self.slots[id as usize]
            .as_ref()
            .expect("the store names live slots only")
    }

    /// Every cached module's slab id.
    fn ids(&self) -> Vec<u32> {
        self.ids.values().copied().collect()
    }

    /// Cache a new module; with `signature`, index it under its atoms.
    fn insert(&mut self, entry: Arc<ModuleEntry>, signature: Option<BTreeSet<SigAtom>>) {
        let id = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 cached modules")
        });
        let signature = signature.unwrap_or_default();
        for atom in &signature {
            self.by_atom.entry(atom.clone()).or_default().push(id);
        }
        self.ids.insert(Arc::clone(&entry.key), id);
        self.slots[id as usize] = Some(ModuleSlot { signature, entry });
    }

    /// Union another extraction's closed signature into module `id`'s
    /// and index the atoms it adds.
    fn widen(&mut self, id: u32, signature: BTreeSet<SigAtom>) {
        let slot = self.slots[id as usize]
            .as_mut()
            .expect("the store names live slots only");
        for atom in signature {
            if !slot.signature.contains(&atom) {
                self.by_atom.entry(atom.clone()).or_default().push(id);
                slot.signature.insert(atom);
            }
        }
    }

    /// Drop modules `dead` from the slab, the lookup map and the atom
    /// index; returns their entries.
    fn remove(&mut self, dead: &[u32]) -> Vec<Arc<ModuleEntry>> {
        let mut touched: Vec<SigAtom> = Vec::new();
        let mut entries = Vec::with_capacity(dead.len());
        for &id in dead {
            let slot = self.slots[id as usize]
                .take()
                .expect("the store names live slots only");
            self.ids.remove(&*slot.entry.key);
            self.free.push(id);
            touched.extend(slot.signature);
            entries.push(slot.entry);
        }
        touched.sort_unstable();
        touched.dedup();
        for atom in touched {
            if let Some(users) = self.by_atom.get_mut(&atom) {
                users.retain(|&id| self.slots[id as usize].is_some());
                if users.is_empty() {
                    self.by_atom.remove(&atom);
                }
            }
        }
        entries
    }
}

/// Which side of a session mutation an invalidation pass runs for.
#[derive(Clone, Copy)]
pub(crate) enum Delta {
    Add(usize),
    Retract(usize),
}

/// One classical question over `K̄`.
enum Probe<'a> {
    /// `K̄ ⊨ a : C̄`.
    Instance(&'a IndividualName, &'a Concept),
    /// Is `C̄` satisfiable w.r.t. `K̄`?
    Satisfiable(&'a Concept),
    /// `K̄ ⊨ α`.
    Entails(&'a Axiom),
    /// Is `K̄` consistent?
    Consistent,
}

/// A probe in a shape Horn saturation decides.
enum HornGoal<'a> {
    Instance(&'a IndividualName, &'a ConceptName),
    /// `P ⊓ ¬Q` is satisfiable iff the module does *not* derive `Q`
    /// from `{P}`.
    Satisfiable(&'a ConceptName, &'a ConceptName),
    /// A Horn module is always consistent: the fragment excludes every
    /// construct with classical bite (`⊥`, nominals, counting, equality).
    Consistent,
}

impl HornGoal<'_> {
    /// The verdict and the saturation rounds it cost.
    fn answer(&self, program: &HornProgram) -> (bool, u64) {
        match self {
            HornGoal::Instance(a, goal) => {
                let answer = program.is_instance(a, goal);
                (answer.holds, answer.rounds)
            }
            HornGoal::Satisfiable(sub, sup) => {
                let answer = program.subsumes(sub, sup);
                (!answer.holds, answer.rounds)
            }
            HornGoal::Consistent => (true, 0),
        }
    }
}

impl Probe<'_> {
    /// The extraction seed: the probe's classical signature. The module
    /// of a seed containing `sig(probe)` preserves the verdict both
    /// ways (see [`crate::dataflow`]).
    fn seed(&self) -> BTreeSet<SigAtom> {
        let mut seed = BTreeSet::new();
        match self {
            Probe::Instance(a, c) => {
                dataflow::classical_concept_atoms(c, &mut seed);
                seed.insert(SigAtom::Individual((*a).clone()));
            }
            Probe::Satisfiable(c) => dataflow::classical_concept_atoms(c, &mut seed),
            Probe::Entails(ax) => dataflow::classical_axiom_atoms(ax, &mut seed),
            Probe::Consistent => {}
        }
        seed
    }

    /// The Horn-decidable form of this probe, if it has one. Material
    /// inclusion tests have the shape `¬C⁻' ⊓ ¬Q` and never match, so
    /// they stay on the tableau, mirroring the told index.
    fn horn_goal(&self) -> Option<HornGoal<'_>> {
        match self {
            Probe::Instance(a, Concept::Atomic(goal)) => Some(HornGoal::Instance(a, goal)),
            Probe::Satisfiable(test) => {
                subsumption_probe(test).map(|(sub, sup)| HornGoal::Satisfiable(sub, sup))
            }
            Probe::Consistent => Some(HornGoal::Consistent),
            Probe::Instance(..) | Probe::Entails(_) => None,
        }
    }

    fn on_engine(&self, engine: &QueryEngine) -> Result<bool, ReasonerError> {
        match self {
            Probe::Instance(a, c) => engine.is_instance_of(a, c),
            Probe::Satisfiable(c) => engine.is_concept_satisfiable(c),
            Probe::Entails(ax) => engine.entails(ax),
            Probe::Consistent => engine.is_consistent(),
        }
    }

    /// The probe's key in the cross-tenant row cache (consistency
    /// verdicts are not shared).
    fn row(&self) -> Option<String> {
        match self {
            Probe::Instance(a, c) => Some(format!("i\u{1}{a:?}\u{1}{c:?}")),
            Probe::Satisfiable(c) => Some(format!("s\u{1}{c:?}")),
            Probe::Entails(ax) => Some(format!("e\u{1}{ax:?}")),
            Probe::Consistent => None,
        }
    }
}

/// Does this classical test concept have the shape `P ⊓ ¬Q` for atomic
/// `P`, `Q`, the (un)satisfiability probe of an atomic internal or
/// strong inclusion?
fn subsumption_probe(test: &Concept) -> Option<(&ConceptName, &ConceptName)> {
    let Concept::And(lhs, rhs) = test else {
        return None;
    };
    let (Concept::Atomic(sub), Concept::Not(negated)) = (&**lhs, &**rhs) else {
        return None;
    };
    let Concept::Atomic(sup) = &**negated else {
        return None;
    };
    Some((sub, sup))
}

/// Corollary 7's classical probe for a role membership `R(a, b)`:
/// information for it is `K̄ ⊨ R⁺(a, b)`, information against it is
/// `K̄ ⊨ a : ∀R⁼.¬{b}`, i.e. `(a, b) ∉ R⁼ = proj⁻(R)`.
fn role_probe(r: &RoleName, a: &IndividualName, b: &IndividualName, negative: bool) -> Axiom {
    if negative {
        Axiom::ConceptAssertion(
            a.clone(),
            Concept::all(
                RoleExpr::named(r.with_suffix(transform::EQ_SUFFIX)),
                Concept::one_of([b.clone()]).not(),
            ),
        )
    } else {
        Axiom::RoleAssertion(r.with_suffix(transform::POS_SUFFIX), a.clone(), b.clone())
    }
}

/// The told index, caches, module store and counters of one KB, with
/// the Corollary 7 reduction and the rung ladder over them.
pub(crate) struct Pipeline {
    /// Dependency graph + classical images; sessions update it in place.
    pub(crate) extractor: ModuleExtractor,
    told: ToldIndex,
    /// Memoized Definition 5–7 transformation (π and ¬π tables).
    transformer: Mutex<Transformer>,
    modules: Mutex<ModuleStore>,
    /// `(a, C̄) → verdict`. Sharded so batch workers don't serialize on
    /// one cache lock.
    instance_cache: ShardedMap<EntailmentKey, bool>,
    /// The config every engine the pipeline builds runs, shared
    /// cross-tenant ones included.
    config: Config,
    /// One engine over all of `K̄`; when present, every probe the Horn
    /// rung leaves runs here instead of on a module engine.
    full: Option<QueryEngine>,
    shared: Option<Arc<SharedModuleCache>>,
    /// Sessions only: keep each module's union of closed signatures,
    /// the atom index over them and the entailment keys each module
    /// answered, for invalidation. An immutable KB never invalidates,
    /// so it keeps none of them.
    mutable: bool,
    /// Counters recorded by the pipeline itself (extraction, Horn,
    /// sharing, invalidation) plus the stats of every engine retired by
    /// invalidation.
    stats: Mutex<Stats>,
}

impl Pipeline {
    /// The pipeline of an immutable KB, with an optional full-KB engine.
    pub(crate) fn new(kb: &KnowledgeBase4, config: Config, full: Option<QueryEngine>) -> Pipeline {
        Pipeline {
            extractor: ModuleExtractor::new(kb),
            told: ToldIndex::build(kb),
            transformer: Mutex::new(Transformer::memoized()),
            modules: Mutex::new(ModuleStore::default()),
            instance_cache: ShardedMap::new(),
            config,
            full,
            shared: None,
            mutable: false,
            stats: Mutex::new(Stats::default()),
        }
    }

    /// The pipeline of a session: every probe answered on its module,
    /// optionally wired to a cross-tenant cache. Sessions sharing one
    /// cache must run one config (one [`serve::Registry`] guarantees
    /// it), since a shared engine is built under its first user's.
    pub(crate) fn for_session(
        kb: &KnowledgeBase4,
        config: Config,
        shared: Option<Arc<SharedModuleCache>>,
    ) -> Pipeline {
        Pipeline {
            shared,
            mutable: true,
            ..Pipeline::new(kb, config, None)
        }
    }

    /// The told-index verdict `(certain positive, certain negative)`
    /// for `a : c`.
    pub(crate) fn told_verdict(&self, a: &IndividualName, c: &ConceptName) -> (bool, bool) {
        self.told.verdict(a, c)
    }

    /// Accumulated statistics: the pipeline's own counters, every
    /// engine it built (adopted shared engines excluded) and the
    /// entailment-cache hits and misses.
    pub(crate) fn stats(&self) -> Stats {
        let mut s = *lock_mutex(&self.stats);
        if let Some(full) = &self.full {
            s.absorb(&full.stats());
        }
        for slot in lock_mutex(&self.modules).slots.iter().flatten() {
            if let Some((engine, false)) = slot.entry.engine.get() {
                s.absorb(&engine.stats());
            }
        }
        s.entailment_cache_hits += self.instance_cache.hits();
        s.entailment_cache_misses += self.instance_cache.misses();
        s
    }

    /// Number of distinct modules currently cached.
    pub(crate) fn cached_modules(&self) -> usize {
        lock_mutex(&self.modules).ids.len()
    }

    // ------------------------------------------------------------------
    // Corollary 7: four-valued services as classical probes
    // ------------------------------------------------------------------

    /// Is the four-valued KB satisfiable? (Theorem 6: iff `K̄` is.) The
    /// ∅-seed module is the never-`⊤`-local core — nominals,
    /// distinctness, negative role assertions and what they pull in —
    /// the only axioms that can make a SHOIN(D)4 KB unsatisfiable.
    pub(crate) fn is_satisfiable(&self) -> Result<bool, ReasonerError> {
        Ok(self.decide(&Probe::Consistent)?.0)
    }

    /// Is there information supporting (`negative == false`:
    /// `K̄ ⊨ a : C̄`) or against (`K̄ ⊨ a : ¬C̄`, the transformed
    /// negation) `a : C`?
    pub(crate) fn membership_info(
        &self,
        a: &IndividualName,
        c: &Concept,
        negative: bool,
    ) -> Result<bool, ReasonerError> {
        if let Concept::Atomic(name) = c {
            let (pos, neg) = self.told.verdict(a, name);
            if if negative { neg } else { pos } {
                return Ok(true);
            }
        }
        let tc = {
            let mut tr = lock_mutex(&self.transformer);
            if negative {
                tr.neg_concept(c)
            } else {
                tr.concept(c)
            }
        };
        let key = (a.clone(), tc);
        if let Some(hit) = self.instance_cache.get(&key) {
            return Ok(hit);
        }
        let (verdict, entry) = self.decide(&Probe::Instance(a, &key.1))?;
        let key = Arc::new(key);
        if let (true, Some(entry)) = (self.mutable, entry) {
            lock_mutex(&entry.answered).push(Arc::clone(&key));
        }
        self.instance_cache.insert(key, verdict);
        Ok(verdict)
    }

    /// The four-valued answer about a membership.
    pub(crate) fn query(
        &self,
        a: &IndividualName,
        c: &Concept,
    ) -> Result<TruthValue, ReasonerError> {
        Ok(TruthValue::from_bits(
            self.membership_info(a, c, false)?,
            self.membership_info(a, c, true)?,
        ))
    }

    /// Is there information supporting (`negative == false`) or against
    /// `R(a, b)`? See [`role_probe`].
    pub(crate) fn role_info(
        &self,
        r: &RoleName,
        a: &IndividualName,
        b: &IndividualName,
        negative: bool,
    ) -> Result<bool, ReasonerError> {
        Ok(self
            .decide(&Probe::Entails(&role_probe(r, a, b, negative)))?
            .0)
    }

    /// The four-valued answer about a role membership.
    pub(crate) fn query_role(
        &self,
        r: &RoleName,
        a: &IndividualName,
        b: &IndividualName,
    ) -> Result<TruthValue, ReasonerError> {
        Ok(TruthValue::from_bits(
            self.role_info(r, a, b, false)?,
            self.role_info(r, a, b, true)?,
        ))
    }

    /// Does the KB four-valued-entail the axiom? Concept inclusions go
    /// through Corollary 7's unsatisfiability tests; every other axiom
    /// holds iff each of its classical images is entailed by `K̄`.
    pub(crate) fn entails(&self, ax: &Axiom4) -> Result<bool, ReasonerError> {
        let Axiom4::ConceptInclusion(kind, c, d) = ax else {
            let images = lock_mutex(&self.transformer).axiom(ax);
            for image in &images {
                if !self.decide(&Probe::Entails(image))?.0 {
                    return Ok(false);
                }
            }
            return Ok(true);
        };
        // A non-material atomic told chain certifies the *internal*
        // inclusion (`proj⁺` flows along every edge). It certifies
        // neither the material reading — `↦` quantifies over
        // `Δ∖proj⁻(C)`, a superset of `proj⁺(C)` — nor the strong one
        // (no contraposition evidence).
        if let (InclusionKind::Internal, Concept::Atomic(a), Concept::Atomic(b)) = (kind, c, d) {
            if self.told.told_subsumes(a, b) {
                return Ok(true);
            }
        }
        let tests = {
            let mut tr = lock_mutex(&self.transformer);
            match kind {
                // C ↦ D iff ¬(¬C̄) ⊓ ¬D̄ is unsatisfiable in K̄.
                InclusionKind::Material => vec![tr.neg_concept(c).not().and(tr.concept(d).not())],
                // C ⊏ D iff C̄ ⊓ ¬D̄ is unsatisfiable.
                InclusionKind::Internal => vec![tr.concept(c).and(tr.concept(d).not())],
                // C → D iff additionally ¬D̄ ⊓ ¬(¬C̄) is unsatisfiable,
                // i.e. ¬D̄ ⊑ ¬C̄ also holds.
                InclusionKind::Strong => vec![
                    tr.concept(c).and(tr.concept(d).not()),
                    tr.neg_concept(d).and(tr.neg_concept(c).not()),
                ],
            }
        };
        for test in &tests {
            if self.decide(&Probe::Satisfiable(test))?.0 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Predicted hardness of a command: the maximum static score over
    /// the modules its probes extract. An `entails` is scored on the
    /// module seeded by all its images' atoms, a superset of every seed
    /// it probes, so the prediction errs only toward heavy. Commands
    /// that run no search score `0.0`. Pure analysis: no engine is
    /// built and no search runs.
    pub(crate) fn predicted_hardness(&self, command: &Command) -> f64 {
        let seeds: Vec<BTreeSet<SigAtom>> = match command {
            Command::Query(a, c) => {
                let probes = {
                    let mut tr = lock_mutex(&self.transformer);
                    [tr.concept(c), tr.neg_concept(c)]
                };
                probes
                    .iter()
                    .map(|tc| Probe::Instance(a, tc).seed())
                    .collect()
            }
            Command::Role(r, a, b) => [false, true]
                .map(|negative| role_probe(r, a, b, negative))
                .iter()
                .map(|ax| Probe::Entails(ax).seed())
                .collect(),
            Command::Entails(ax) => {
                let images = lock_mutex(&self.transformer).axiom(ax);
                let mut seed = BTreeSet::new();
                for image in &images {
                    dataflow::classical_axiom_atoms(image, &mut seed);
                }
                vec![seed]
            }
            Command::Check => vec![Probe::Consistent.seed()],
            _ => return 0.0,
        };
        let mut s = Stats::default();
        let score = seeds
            .iter()
            .map(|seed| self.hardness_of(&self.module_entry(seed, &mut s)))
            .fold(0.0, f64::max);
        lock_mutex(&self.stats).absorb(&s);
        score
    }

    // ------------------------------------------------------------------
    // The rungs below the told index and the entailment cache
    // ------------------------------------------------------------------

    /// Answer one probe; returns the verdict and the module it was
    /// answered through (`None` when the full-KB engine took it without
    /// an extraction). Counters go to one local `Stats`, merged under a
    /// single lock per probe.
    fn decide(&self, probe: &Probe) -> Result<(bool, Option<Arc<ModuleEntry>>), ReasonerError> {
        let horn = probe.horn_goal();
        if let (Some(full), None) = (&self.full, &horn) {
            return Ok((probe.on_engine(full)?, None));
        }
        let mut s = Stats::default();
        let entry = self.module_entry(&probe.seed(), &mut s);
        let verdict = self.decide_on(probe, horn, &entry, &mut s);
        lock_mutex(&self.stats).absorb(&s);
        Ok((verdict?, Some(entry)))
    }

    /// The shared-row, Horn and tableau rungs over one module.
    fn decide_on(
        &self,
        probe: &Probe,
        horn: Option<HornGoal>,
        entry: &ModuleEntry,
        s: &mut Stats,
    ) -> Result<bool, ReasonerError> {
        let row = match &self.shared {
            Some(shared) => probe
                .row()
                .map(|r| (shared, (self.structural_key(entry), r))),
            None => None,
        };
        if let Some((shared, key)) = &row {
            let hit = shared.rows.get(key);
            match hit {
                Some(_) => s.shared_row_hits += 1,
                None => s.shared_row_misses += 1,
            }
            if let Some(verdict) = hit {
                return Ok(verdict);
            }
        }
        let saturated = horn.and_then(|goal| Some(goal.answer(&*self.horn_of(entry, s)?)));
        let verdict = match (saturated, &self.full) {
            (Some((verdict, rounds)), _) => {
                s.horn_queries += 1;
                s.saturation_rounds += rounds;
                verdict
            }
            (None, Some(full)) => probe.on_engine(full)?,
            (None, None) => probe.on_engine(&self.engine_of(entry, s))?,
        };
        if let Some((shared, key)) = row {
            shared.rows.insert(key, verdict);
        }
        Ok(verdict)
    }

    /// Extract the seed's module and return its (possibly fresh) cache
    /// entry. Every extraction counts in `scoped_queries`,
    /// `module_axioms` and `module_extraction_ns`.
    fn module_entry(&self, seed: &BTreeSet<SigAtom>, s: &mut Stats) -> Arc<ModuleEntry> {
        let t0 = Instant::now();
        let Module {
            axioms, signature, ..
        } = self.extractor.extract(seed);
        s.scoped_queries += 1;
        s.module_axioms += axioms.len() as u64;
        s.module_extraction_ns += t0.elapsed().as_nanos() as u64;
        let mut store = lock_mutex(&self.modules);
        if let Some(&id) = store.ids.get(&axioms) {
            s.engine_cache_hits += 1;
            if self.mutable {
                store.widen(id, signature);
            }
            return Arc::clone(&store.slot(id).entry);
        }
        s.engine_cache_misses += 1;
        let entry = Arc::new(ModuleEntry {
            key: Arc::new(axioms),
            ..ModuleEntry::default()
        });
        store.insert(Arc::clone(&entry), self.mutable.then_some(signature));
        entry
    }

    fn images<'a>(&'a self, entry: &'a ModuleEntry) -> impl Iterator<Item = &'a Axiom> + 'a {
        entry.key.iter().flat_map(|&i| self.extractor.images(i))
    }

    /// The module's structural key (content address), computed once.
    fn structural_key(&self, entry: &ModuleEntry) -> Arc<str> {
        Arc::clone(
            entry
                .skey
                .get_or_init(|| serve::structural_key(self.images(entry))),
        )
    }

    fn engine_of(&self, entry: &ModuleEntry, s: &mut Stats) -> Arc<QueryEngine> {
        let (engine, _adopted) = entry.engine.get_or_init(|| {
            let build = || {
                let kb = KnowledgeBase::from_axioms(self.images(entry).cloned());
                Arc::new(QueryEngine::with_config(&kb, self.config.clone()))
            };
            let Some(shared) = &self.shared else {
                return (build(), false);
            };
            let key = self.structural_key(entry);
            if let Some(engine) = shared.engines.get(&key) {
                s.shared_module_hits += 1;
                return (engine, true);
            }
            s.shared_module_misses += 1;
            let engine = build();
            shared.engines.insert(key, Arc::clone(&engine));
            (engine, false)
        });
        Arc::clone(engine)
    }

    /// The module's Horn program (compiled once per entry), or `None`
    /// with a recorded fallback when its image leaves the Horn fragment.
    fn horn_of(&self, entry: &ModuleEntry, s: &mut Stats) -> Option<Arc<HornProgram>> {
        let warm = entry.horn.get().is_some();
        let program = entry.horn.get_or_init(|| {
            let compile = || horn::compile(self.images(entry)).map(Arc::new);
            let Some(shared) = &self.shared else {
                return compile();
            };
            let key = self.structural_key(entry);
            if let Some(hit) = shared.horn.get(&key) {
                s.shared_module_hits += 1;
                return hit;
            }
            s.shared_module_misses += 1;
            let program = compile();
            shared.horn.insert(key, program.clone());
            program
        });
        if warm {
            s.horn_cache_hits += 1;
        } else {
            s.horn_cache_misses += 1;
            s.horn_clauses += program.as_ref().map_or(0, |p| p.clause_count());
        }
        if program.is_none() {
            s.horn_fallbacks += 1;
        }
        program.clone()
    }

    /// The module's static hardness score, computed once per entry and
    /// shared cross-tenant under the structural key.
    fn hardness_of(&self, entry: &ModuleEntry) -> f64 {
        *entry.hardness.get_or_init(|| {
            let analyze = || hardness::analyze_images(self.images(entry)).score;
            let Some(shared) = &self.shared else {
                return analyze();
            };
            let key = self.structural_key(entry);
            shared.scores.get(&key).unwrap_or_else(|| {
                let score = analyze();
                shared.scores.insert(key, score);
                score
            })
        })
    }

    // ------------------------------------------------------------------
    // Session maintenance
    // ------------------------------------------------------------------

    /// Fold a session mutation into the pipeline (soundness in
    /// [`crate::incremental`]'s docs): add the slot to the extractor or
    /// tombstone it there, drop the dirty modules (folding their
    /// engines' stats into the accumulator) with the entailment-cache
    /// keys they answered, and update the told index. `slots` is the
    /// session's axiom store after the mutation.
    pub(crate) fn apply(&mut self, delta: Delta, ax: &Axiom4, slots: &[Option<Axiom4>]) {
        let mut s = Stats {
            mutations: 1,
            ..Stats::default()
        };
        let store = recover(self.modules.get_mut());
        let dirty = match delta {
            Delta::Add(id) => {
                let pushed = self.extractor.push_axiom(ax);
                debug_assert_eq!(
                    pushed, id,
                    "the session and the extractor agree on slot ids"
                );
                dirty_on_add(store, &self.extractor, id, &mut s)
            }
            Delta::Retract(id) => {
                // Read the slot's atoms before the tombstone clears them.
                let dirty = dirty_on_retract(store, &self.extractor, id, &mut s);
                self.extractor.remove_axiom(id);
                dirty
            }
        };
        s.invalidated_modules += dirty.len() as u64;
        for entry in store.remove(&dirty) {
            if let Some((engine, false)) = entry.engine.get() {
                s.absorb(&engine.stats());
            }
            for key in recover(entry.answered.lock()).iter() {
                s.invalidated_entailments += u64::from(self.instance_cache.remove(&**key));
            }
        }
        let told = &mut self.told;
        let noted = match delta {
            Delta::Add(id) => told.note_added(id, ax),
            Delta::Retract(id) => told.note_retracted(id, ax),
        };
        s.invalidated_told_rows += match noted {
            Some(rows) => rows as u64,
            None => {
                // An equality merge moved the class partition itself:
                // rebuild the index over the live slots (ids preserved).
                let rows = told.memoized_rows() as u64;
                *told = ToldIndex::build_indexed(
                    slots
                        .iter()
                        .enumerate()
                        .filter_map(|(i, slot)| slot.as_ref().map(|ax| (i, ax))),
                );
                rows
            }
        };
        recover(self.stats.get_mut()).absorb(&s);
    }

    /// Drop the tombstones of `slots` (the session's store before it
    /// compacts) and renumber every slot id the pipeline holds: the
    /// extractor's rows, the told index's provenance and each cached
    /// module's key. Module entries keep their engines, Horn programs,
    /// scores and entailment keys; the atom index names modules by slab
    /// id and stays as it is.
    pub(crate) fn compact(&mut self, slots: &[Option<Axiom4>]) {
        let mut next = 0;
        let remap: Vec<usize> = slots
            .iter()
            .map(|slot| match slot {
                Some(_) => {
                    next += 1;
                    next - 1
                }
                None => usize::MAX,
            })
            .collect();
        self.extractor.compact(&remap);
        self.told = ToldIndex::build_indexed(slots.iter().flatten().enumerate());
        let store = recover(self.modules.get_mut());
        store.ids.clear();
        for (id, slot) in store.slots.iter_mut().enumerate() {
            let Some(slot) = slot else { continue };
            // Probes hold entries only within a `&self` call.
            let entry = Arc::get_mut(&mut slot.entry).expect("no probe outlives a session call");
            entry.key = Arc::new(entry.key.iter().map(|&i| remap[i]).collect());
            debug_assert!(
                entry.key.iter().all(|&i| i < next),
                "a module kept a tombstone"
            );
            store.ids.insert(Arc::clone(&entry.key), id as u32);
        }
    }
}

/// The cached modules an added slot `id` dirties: those whose `Σ` fails
/// its images' `⊤`-locality. Locality reads `Σ` only through the
/// slot's own atoms, so only modules indexed under one of them are
/// tested; a never-local slot fails against every `Σ` and dirties all.
fn dirty_on_add(store: &ModuleStore, ex: &ModuleExtractor, id: usize, s: &mut Stats) -> Vec<u32> {
    if ex.is_never_local(id) {
        let all = store.ids();
        s.invalidation_tests += all.len() as u64;
        return all;
    }
    let mut candidates: Vec<u32> = ex.graph().atoms[id]
        .iter()
        .filter_map(|atom| store.by_atom.get(atom))
        .flatten()
        .copied()
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    s.invalidation_tests += candidates.len() as u64;
    candidates.retain(|&m| {
        let signature = &store.slot(m).signature;
        !ex.images(id).iter().all(|im| axiom_local(im, signature))
    });
    candidates
}

/// The cached modules holding a retracted slot `id`. A member's atoms
/// lie in `sig(M) ⊆ Σ(M)`, so every such module is indexed under any
/// one of them; a slot without atoms falls back to every module.
fn dirty_on_retract(
    store: &ModuleStore,
    ex: &ModuleExtractor,
    id: usize,
    s: &mut Stats,
) -> Vec<u32> {
    let mut candidates = match ex.graph().atoms[id].first() {
        Some(atom) => store.by_atom.get(atom).cloned().unwrap_or_default(),
        None => store.ids(),
    };
    s.invalidation_tests += candidates.len() as u64;
    candidates.retain(|&m| store.slot(m).entry.key.contains(&id));
    candidates
}

#[cfg(test)]
impl Pipeline {
    /// Each cached module's member set and signature.
    pub(crate) fn module_signatures(
        &self,
    ) -> std::collections::BTreeMap<BTreeSet<usize>, BTreeSet<SigAtom>> {
        let store = lock_mutex(&self.modules);
        let modules = store.slots.iter().flatten();
        modules
            .map(|slot| ((*slot.entry.key).clone(), slot.signature.clone()))
            .collect()
    }

    /// Each cached entailment key, with the module its probe extracts
    /// from the current KB.
    pub(crate) fn entailment_modules(&self) -> HashMap<(IndividualName, Concept), BTreeSet<usize>> {
        let keys = self.instance_cache.keys();
        keys.into_iter()
            .map(|key| {
                let seed = Probe::Instance(&key.0, &key.1).seed();
                ((*key).clone(), self.extractor.extract(&seed).axioms)
            })
            .collect()
    }

    /// Does the atom index list exactly the modules whose signature
    /// holds each atom?
    pub(crate) fn atom_index_is_exact(&self) -> bool {
        let store = lock_mutex(&self.modules);
        let mut listed: Vec<(SigAtom, u32)> = store
            .by_atom
            .iter()
            .flat_map(|(atom, ids)| ids.iter().map(move |&id| (atom.clone(), id)))
            .collect();
        let mut held: Vec<(SigAtom, u32)> = store
            .ids
            .values()
            .flat_map(|&id| {
                store
                    .slot(id)
                    .signature
                    .iter()
                    .map(move |a| (a.clone(), id))
            })
            .collect();
        listed.sort_unstable();
        held.sort_unstable();
        listed == held
    }
}

// Queries are `&self` over interior mutexes, so both front ends can
// serve scoped worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Pipeline>();
};
