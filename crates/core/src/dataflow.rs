//! Signature dataflow over a SHOIN(D)4 KB: polarity-aware signature
//! atoms, the axiom dependency graph, and syntactic **module
//! extraction** — the static pass that bounds what a query can depend
//! on, so the tableau never has to touch the rest of the KB.
//!
//! # Signature atoms
//!
//! A four-valued name does not occur in an axiom as a monolith: the
//! Definitions 5–7 reduction splits every atomic concept `A` into `A⁺`
//! (positive information) and `A⁻` (negative information), and every
//! role `R` into `R⁺` and `R⁼`. Which half an axiom touches depends on
//! the *polarity* of the occurrence and on the *kind* of inclusion
//! (§3.1): an internal `C ⊏ D` mentions only the `⁺`-halves of `C` and
//! `D`; a material `C ↦ D` mentions the `⁻`-half of `C` (its image is
//! `¬(¬C̄) ⊑ D̄`, which quantifies over everything not provably `¬C`);
//! a strong `C → D` mentions all four halves (it contraposes). The
//! [`SigAtom`] of an occurrence is exactly the split half it reaches in
//! the classical image, so the dependency analysis distinguishes the
//! three inclusion kinds for free — by construction, not by special
//! cases.
//!
//! # Module extraction and its soundness
//!
//! [`ModuleExtractor::extract`] computes, for a seed signature `Σ₀`, a
//! subset `M` of the axioms such that **no four-valued verdict over
//! `Σ₀` changes when the rest of the KB is dropped**. The argument is
//! `⊤`-locality over the induced classical KB `K̄`:
//!
//! An axiom is *`⊤`-local* w.r.t. a signature `Σ` if it is satisfied by
//! every interpretation that maps each out-of-`Σ` concept half to the
//! full domain `Δ`, each out-of-`Σ` role half to `Δ × Δ`, and each
//! out-of-`Σ` individual to one arbitrary fixed element — regardless of
//! how the in-`Σ` symbols are interpreted. The extractor grows `M` to a
//! fixpoint: whenever an axiom fails the locality test against the
//! current `Σ`, it joins `M` and its atoms join `Σ`. At the fixpoint
//! every omitted axiom is `⊤`-local w.r.t. the final `Σ ⊇ Σ₀ ∪ sig(M)`.
//!
//! * `M ⊨ φ ⟹ K ⊨ φ` because `M ⊆ K` (entailment is monotone).
//! * `K ⊨ φ ⟹ M ⊨ φ` for any `φ` over `Σ₀`: a model `I` of `M̄`
//!   expands to `I'` by interpreting every out-of-`Σ` symbol as above;
//!   `I'` still satisfies `M̄` (which only uses `Σ`-symbols), satisfies
//!   every omitted axiom (that is what `⊤`-locality says), and agrees
//!   with `I` on `φ` (which only uses `Σ₀`-symbols) — so a
//!   counter-model for `φ` under `M` is one under `K`.
//!
//! The locality test itself is the usual sound structural
//! approximation: per-concept `top`/`bot` predicates that only claim
//! "definitely full"/"definitely empty" when it holds under *every*
//! interpretation of the in-`Σ` symbols. Nominals are never `top` nor
//! `bot` (their extension is a fixed finite set), `≠`-declarations are
//! never local (the fixed-element mapping could merge their sides), and
//! datatype restrictions are treated conservatively. On request
//! ([`ModuleExtractor::extract_explained`]) each admission records the
//! `Σ`-atoms that forced it ([`Admission::via`]) — the per-edge
//! soundness witness: drop any of those atoms from `Σ` and the locality
//! failure it certifies disappears.
//!
//! Because every `∉ Σ` test in the locality predicates is
//! anti-monotone in `Σ`, the extracted module is **monotone in the
//! seed**: `Σ₀ ⊆ Σ₀' ⟹ M(Σ₀) ⊆ M(Σ₀')` (property-tested in
//! `tests/module_parity.rs`).
//!
//! # Extraction cost
//!
//! An extraction costs what its module costs, not what the KB costs.
//! The locality test of slot `i` reads `Σ` only through `Σ ∩ atoms(i)`:
//! every `∉ Σ` lookup in the predicates asks about an atom of the
//! axiom's own images. So a slot that shares no atom with `Σ` is local
//! w.r.t. `Σ` iff it is local w.r.t. `∅`. The extractor keeps the
//! *never-local* slots — those not local w.r.t. `∅`, hence (by
//! anti-monotonicity) members of every module — as a set maintained by
//! [`ModuleExtractor::push_axiom`] and [`ModuleExtractor::remove_axiom`],
//! and starts the worklist from that set plus the users of the seed's
//! atoms; afterwards only the users of atoms that newly enter `Σ` are
//! re-tested. A slot never tested is local w.r.t. `∅` and has shared
//! no atom with `Σ` at any point of the run, so it is local w.r.t. the
//! final `Σ`: the fixpoint reached is the least one, the same as a scan
//! that tests every slot (property-tested against such a scan in this
//! module's tests).
//! [`Module::locality_tests`] counts the tests one extraction ran; it is
//! bounded by the never-local core plus the users of the atoms of the
//! final `Σ`.

use crate::inclusion::InclusionKind;
use crate::kb4::{Axiom4, KnowledgeBase4};
use crate::transform::{self, Transformer};
use dl::axiom::{Axiom, RoleExpr};
use dl::kb::KnowledgeBase;
use dl::name::{ConceptName, DataRoleName, IndividualName, RoleName};
use dl::Concept;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// One split half of the four-valued signature — the unit of the
/// dataflow analysis. Atoms are *polarity-aware*: `x : ¬A` touches
/// [`SigAtom::ConceptNeg`]`(A)` but not the positive half, so an axiom
/// about `¬A` and an axiom about `A` are only coupled when some third
/// axiom (a strong or material inclusion) bridges the two halves.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SigAtom {
    /// `A⁺` — positive information about the atomic concept `A`.
    ConceptPos(ConceptName),
    /// `A⁻` — negative information about `A`.
    ConceptNeg(ConceptName),
    /// `R⁺` — the asserted pairs of the role `R`.
    RolePos(RoleName),
    /// `R⁼` — the complement of `R`'s negative extension.
    RoleEq(RoleName),
    /// `U⁺` for a datatype role.
    DataRolePos(DataRoleName),
    /// `U⁼` for a datatype role.
    DataRoleEq(DataRoleName),
    /// A named individual (in an assertion or a nominal).
    Individual(IndividualName),
}

impl fmt::Display for SigAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigAtom::ConceptPos(a) => write!(f, "{a}+"),
            SigAtom::ConceptNeg(a) => write!(f, "{a}-"),
            SigAtom::RolePos(r) => write!(f, "{r}+"),
            SigAtom::RoleEq(r) => write!(f, "{r}="),
            SigAtom::DataRolePos(u) => write!(f, "{u}+"),
            SigAtom::DataRoleEq(u) => write!(f, "{u}="),
            SigAtom::Individual(a) => write!(f, "{a}"),
        }
    }
}

/// Map a classical (split-image) concept name back to its atom. Names
/// produced by [`crate::transform`] always carry a suffix; a bare name
/// (possible only for hand-built classical input, which the transform's
/// unsplit-signature precondition excludes) is read as its own positive
/// half.
fn concept_atom(name: &ConceptName) -> SigAtom {
    let s = name.as_str();
    if let Some(base) = s.strip_suffix(transform::POS_SUFFIX) {
        SigAtom::ConceptPos(ConceptName::new(base))
    } else if let Some(base) = s.strip_suffix(transform::NEG_SUFFIX) {
        SigAtom::ConceptNeg(ConceptName::new(base))
    } else {
        SigAtom::ConceptPos(name.clone())
    }
}

fn role_atom(name: &RoleName) -> SigAtom {
    let s = name.as_str();
    if let Some(base) = s.strip_suffix(transform::POS_SUFFIX) {
        SigAtom::RolePos(RoleName::new(base))
    } else if let Some(base) = s.strip_suffix(transform::EQ_SUFFIX) {
        SigAtom::RoleEq(RoleName::new(base))
    } else {
        SigAtom::RolePos(name.clone())
    }
}

fn data_role_atom(name: &DataRoleName) -> SigAtom {
    let s = name.as_str();
    if let Some(base) = s.strip_suffix(transform::POS_SUFFIX) {
        SigAtom::DataRolePos(DataRoleName::new(base))
    } else if let Some(base) = s.strip_suffix(transform::EQ_SUFFIX) {
        SigAtom::DataRoleEq(DataRoleName::new(base))
    } else {
        SigAtom::DataRolePos(name.clone())
    }
}

/// Collect the atoms of a classical (split-image) concept.
pub fn classical_concept_atoms(c: &Concept, out: &mut BTreeSet<SigAtom>) {
    c.for_each_subconcept(&mut |sub| match sub {
        Concept::Atomic(a) => {
            out.insert(concept_atom(a));
        }
        Concept::Some(r, _)
        | Concept::All(r, _)
        | Concept::AtLeast(_, r)
        | Concept::AtMost(_, r) => {
            out.insert(role_atom(r.name()));
        }
        Concept::DataSome(u, _)
        | Concept::DataAll(u, _)
        | Concept::DataAtLeast(_, u)
        | Concept::DataAtMost(_, u) => {
            out.insert(data_role_atom(u));
        }
        Concept::OneOf(os) => {
            for o in os {
                out.insert(SigAtom::Individual(o.clone()));
            }
        }
        _ => {}
    });
}

/// Collect the atoms of a classical axiom.
pub fn classical_axiom_atoms(ax: &Axiom, out: &mut BTreeSet<SigAtom>) {
    match ax {
        Axiom::ConceptInclusion(c, d) => {
            classical_concept_atoms(c, out);
            classical_concept_atoms(d, out);
        }
        Axiom::RoleInclusion(r, s) => {
            out.insert(role_atom(r.name()));
            out.insert(role_atom(s.name()));
        }
        Axiom::Transitive(r) => {
            out.insert(role_atom(r));
        }
        Axiom::DataRoleInclusion(u, v) => {
            out.insert(data_role_atom(u));
            out.insert(data_role_atom(v));
        }
        Axiom::ConceptAssertion(a, c) => {
            out.insert(SigAtom::Individual(a.clone()));
            classical_concept_atoms(c, out);
        }
        Axiom::RoleAssertion(r, a, b) => {
            out.insert(role_atom(r));
            out.insert(SigAtom::Individual(a.clone()));
            out.insert(SigAtom::Individual(b.clone()));
        }
        Axiom::DataAssertion(u, a, _) => {
            out.insert(data_role_atom(u));
            out.insert(SigAtom::Individual(a.clone()));
        }
        Axiom::SameIndividual(a, b) | Axiom::DifferentIndividuals(a, b) => {
            out.insert(SigAtom::Individual(a.clone()));
            out.insert(SigAtom::Individual(b.clone()));
        }
    }
}

/// The atoms a four-valued query concept can depend on: both
/// transformation polarities (`π(C)` and `π(¬C)` — a four-valued query
/// always asks both).
pub fn concept_seed(c: &Concept) -> BTreeSet<SigAtom> {
    let [mut pos, neg] = probe_seeds(c);
    pos.extend(neg);
    pos
}

/// The seeds of the two classical probes a four-valued query about `C`
/// runs (Corollary 7): the atoms of `π(C)` and of `π(¬C)`. Each probe
/// is answered on the module of its own seed.
pub fn probe_seeds(c: &Concept) -> [BTreeSet<SigAtom>; 2] {
    let mut tr = Transformer::new();
    [tr.concept(c), tr.neg_concept(c)].map(|tc| {
        let mut out = BTreeSet::new();
        classical_concept_atoms(&tc, &mut out);
        out
    })
}

/// How an axiom couples its atoms — the edge label of the dependency
/// graph. Inclusions keep their §3.1 kind (they propagate differently:
/// internal couples `⁺`-halves only, material reaches through the
/// `⁻`-half of its left side, strong couples all four).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxiomKind {
    /// An inclusion axiom of the given kind.
    Inclusion(InclusionKind),
    /// Any fact axiom (assertions, equality, transitivity).
    Fact,
}

/// The signature-dependency graph: per-axiom atom sets plus the reverse
/// index. Two axioms are *adjacent* when they share an atom — the
/// syntactic condition for one to influence the other's consequences.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// `atoms[i]` — the atoms of axiom `i` (over its classical images).
    pub atoms: Vec<BTreeSet<SigAtom>>,
    /// Reverse index: atom → indices of the axioms mentioning it.
    pub by_atom: BTreeMap<SigAtom, Vec<usize>>,
    /// Edge label per axiom.
    pub kinds: Vec<AxiomKind>,
}

fn axiom_kind(ax: &Axiom4) -> AxiomKind {
    match ax {
        Axiom4::ConceptInclusion(k, ..)
        | Axiom4::RoleInclusion(k, ..)
        | Axiom4::DataRoleInclusion(k, ..) => AxiomKind::Inclusion(*k),
        _ => AxiomKind::Fact,
    }
}

impl DepGraph {
    /// Build the graph for a four-valued KB.
    pub fn build(kb: &KnowledgeBase4) -> Self {
        let mut tr = Transformer::memoized();
        let mut graph = DepGraph::default();
        for ax in kb.axioms() {
            graph.push_slot(&tr.axiom(ax), axiom_kind(ax));
        }
        graph
    }

    /// Number of axioms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// The slots whose images mention `atom`.
    pub fn users(&self, atom: &SigAtom) -> &[usize] {
        self.by_atom.get(atom).map_or(&[], Vec::as_slice)
    }

    /// Append a slot for an axiom's classical images; returns its index.
    fn push_slot(&mut self, images: &[Axiom], kind: AxiomKind) -> usize {
        let i = self.atoms.len();
        let mut set = BTreeSet::new();
        for image in images {
            classical_axiom_atoms(image, &mut set);
        }
        for atom in &set {
            self.by_atom.entry(atom.clone()).or_default().push(i);
        }
        self.atoms.push(set);
        self.kinds.push(kind);
        i
    }

    /// Tombstone slot `i`: clear its atoms and unlink it from the
    /// reverse index. The slot keeps its index so module keys built
    /// from slot-id sets stay meaningful across retractions.
    fn clear_slot(&mut self, i: usize) {
        let atoms = std::mem::take(&mut self.atoms[i]);
        for atom in &atoms {
            if let Some(users) = self.by_atom.get_mut(atom) {
                users.retain(|&j| j != i);
                if users.is_empty() {
                    self.by_atom.remove(atom);
                }
            }
        }
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Connected components of the atom-sharing relation, each sorted,
    /// largest first (ties broken by smallest member). Axioms in
    /// different components cannot influence each other's verdicts
    /// through any chain of shared names.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut queue = VecDeque::from([start]);
            seen[start] = true;
            while let Some(i) = queue.pop_front() {
                comp.push(i);
                for atom in &self.atoms[i] {
                    for &j in &self.by_atom[atom] {
                        if !seen[j] {
                            seen[j] = true;
                            queue.push_back(j);
                        }
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        out
    }
}

/// Why a module member was admitted: the extraction round and the
/// `Σ`-atoms its locality failure depended on — the recorded soundness
/// witness for the dependency edge (empty `via` means the axiom is
/// non-local against *any* signature, e.g. `≠`-declarations and
/// nominal assertions). Built only by
/// [`ModuleExtractor::extract_explained`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admission {
    /// The admitted axiom (index into `kb.axioms()`).
    pub axiom: usize,
    /// Fixpoint round (0 = forced by the seed alone).
    pub round: usize,
    /// The axiom's atoms that were already in `Σ` at admission.
    pub via: Vec<SigAtom>,
}

/// An extracted module: the axiom subset whose omission cannot change
/// any four-valued verdict over the seed signature.
#[derive(Debug, Clone)]
pub struct Module {
    /// Member axiom indices (into `kb.axioms()`).
    pub axioms: BTreeSet<usize>,
    /// The closed signature `Σ ⊇ seed ∪ sig(M)`.
    pub signature: BTreeSet<SigAtom>,
    /// Fixpoint rounds until closure.
    pub rounds: usize,
    /// Locality tests the fixpoint ran (see "Extraction cost" in the
    /// module docs): bounded by the never-local core plus the users of
    /// the atoms of `signature`, whatever the size of the KB.
    pub locality_tests: usize,
}

/// Reusable module-extraction state for one KB: the dependency graph,
/// the classical images and the never-local core (computed once, shared
/// by every query, maintained by [`Self::push_axiom`] and
/// [`Self::remove_axiom`]).
#[derive(Debug)]
pub struct ModuleExtractor {
    graph: DepGraph,
    images: Vec<Vec<Axiom>>,
    /// Live slots whose images are not `⊤`-local w.r.t. `∅`: members of
    /// every module, where each extraction's worklist starts.
    never_local: BTreeSet<usize>,
}

impl ModuleExtractor {
    /// Preprocess a KB for module extraction.
    pub fn new(kb: &KnowledgeBase4) -> Self {
        let mut tr = Transformer::memoized();
        let mut ex = ModuleExtractor {
            graph: DepGraph::default(),
            images: Vec::with_capacity(kb.len()),
            never_local: BTreeSet::new(),
        };
        for ax in kb.axioms() {
            ex.push_images(tr.axiom(ax), axiom_kind(ax));
        }
        ex
    }

    /// The underlying dependency graph.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// The classical images of axiom `i` (Definition 6).
    pub fn images(&self, i: usize) -> &[Axiom] {
        &self.images[i]
    }

    /// The classical induced KB of a module — what a scoped tableau
    /// engine loads.
    pub fn induced_module_kb(&self, module: &Module) -> KnowledgeBase {
        KnowledgeBase::from_axioms(
            module
                .axioms
                .iter()
                .flat_map(|&i| self.images[i].iter().cloned()),
        )
    }

    /// Extract the module for a seed signature (the `⊤`-locality
    /// fixpoint described in the module docs). Deterministic: the result
    /// is the least fixpoint, independent of worklist order.
    pub fn extract(&self, seed: &BTreeSet<SigAtom>) -> Module {
        self.fixpoint(seed, None)
    }

    /// [`Self::extract`] plus the [`Admission`] record of every member,
    /// in admission order.
    pub fn extract_explained(&self, seed: &BTreeSet<SigAtom>) -> (Module, Vec<Admission>) {
        let mut admissions = Vec::new();
        let module = self.fixpoint(seed, Some(&mut admissions));
        (module, admissions)
    }

    fn fixpoint(
        &self,
        seed: &BTreeSet<SigAtom>,
        mut admissions: Option<&mut Vec<Admission>>,
    ) -> Module {
        let mut sigma = seed.clone();
        let mut axioms = BTreeSet::new();
        let mut rounds = 0usize;
        let mut locality_tests = 0usize;
        // Round 0 tests the never-local core and the slots sharing an
        // atom with the seed; later rounds only the slots that gained a
        // Σ-atom. Every other slot is local (see "Extraction cost").
        let mut pending = self.never_local.clone();
        for atom in seed {
            pending.extend(self.graph.users(atom));
        }
        while !pending.is_empty() {
            let mut next = BTreeSet::new();
            for i in pending {
                if axioms.contains(&i) {
                    continue;
                }
                locality_tests += 1;
                if self.images[i].iter().all(|ax| axiom_local(ax, &sigma)) {
                    continue;
                }
                if let Some(admissions) = admissions.as_deref_mut() {
                    admissions.push(Admission {
                        axiom: i,
                        round: rounds,
                        via: self.graph.atoms[i]
                            .iter()
                            .filter(|a| sigma.contains(a))
                            .cloned()
                            .collect(),
                    });
                }
                axioms.insert(i);
                for atom in &self.graph.atoms[i] {
                    if sigma.insert(atom.clone()) {
                        next.extend(self.graph.users(atom));
                    }
                }
            }
            pending = next;
            rounds += 1;
        }
        Module {
            axioms,
            signature: sigma,
            rounds,
            locality_tests,
        }
    }

    /// The seed for a four-valued instance query `a : C`: both
    /// transformation polarities of `C` plus the individual.
    pub fn instance_seed(&self, a: &IndividualName, c: &Concept) -> BTreeSet<SigAtom> {
        let mut seed = concept_seed(c);
        seed.insert(SigAtom::Individual(a.clone()));
        seed
    }

    /// Append a new axiom as a fresh slot, returning its index —
    /// incremental maintenance for [`crate::incremental::Session`].
    /// The new slot participates in every later [`Self::extract`] call
    /// exactly as if the extractor had been built from the extended KB.
    pub fn push_axiom(&mut self, ax: &Axiom4) -> usize {
        self.push_images(Transformer::memoized().axiom(ax), axiom_kind(ax))
    }

    fn push_images(&mut self, images: Vec<Axiom>, kind: AxiomKind) -> usize {
        let i = self.graph.push_slot(&images, kind);
        debug_assert_eq!(i, self.images.len());
        if !images.iter().all(|ax| axiom_local(ax, &BTreeSet::new())) {
            self.never_local.insert(i);
        }
        self.images.push(images);
        i
    }

    /// Tombstone slot `i`: its images and atoms become empty (their heap
    /// blocks freed), so it is vacuously `⊤`-local w.r.t. every
    /// signature and can never again be admitted into a module. Indices
    /// of the surviving slots do not shift, which keeps cached module
    /// keys (slot-id sets) valid.
    pub fn remove_axiom(&mut self, i: usize) {
        self.images[i] = Vec::new();
        self.never_local.remove(&i);
        self.graph.clear_slot(i);
    }

    /// Does slot `i` still hold a live axiom?
    pub fn is_live(&self, i: usize) -> bool {
        !self.images[i].is_empty()
    }

    /// Is live slot `i` outside `⊤`-locality w.r.t. `∅`, hence (by
    /// anti-monotonicity) non-local w.r.t. every signature and a member
    /// of every module?
    pub fn is_never_local(&self, i: usize) -> bool {
        self.never_local.contains(&i)
    }

    /// Drop the tombstoned slots and renumber the live ones, keeping
    /// their order: `remap[i]` is live slot `i`'s new id and
    /// `usize::MAX` marks a tombstone. Afterwards every extraction
    /// returns what it returned before, renumbered.
    pub fn compact(&mut self, remap: &[usize]) {
        fn keep_live<T>(rows: &mut Vec<T>, remap: &[usize]) {
            let mut i = 0;
            rows.retain(|_| {
                i += 1;
                remap[i - 1] != usize::MAX
            });
        }
        keep_live(&mut self.images, remap);
        keep_live(&mut self.graph.atoms, remap);
        keep_live(&mut self.graph.kinds, remap);
        // A tombstone is unlinked from every users list, so each entry
        // names a live slot; the map is monotone, so lists stay sorted.
        for users in self.graph.by_atom.values_mut() {
            for user in users.iter_mut() {
                *user = remap[*user];
            }
        }
        self.never_local = self.never_local.iter().map(|&i| remap[i]).collect();
    }
}

/// Every atom the KB's own (unsplit) signature can seed: both halves of
/// every concept, role and datatype role, plus every individual. By
/// module monotonicity, the module of *any* query over the KB's
/// signature is contained in the module of this seed — an axiom outside
/// it is dead for every such query.
pub fn full_signature_seed(kb: &KnowledgeBase4) -> BTreeSet<SigAtom> {
    let sig = kb.signature();
    let mut out = BTreeSet::new();
    for a in &sig.concepts {
        out.insert(SigAtom::ConceptPos(a.clone()));
        out.insert(SigAtom::ConceptNeg(a.clone()));
    }
    for r in &sig.roles {
        out.insert(SigAtom::RolePos(r.clone()));
        out.insert(SigAtom::RoleEq(r.clone()));
    }
    for u in &sig.data_roles {
        out.insert(SigAtom::DataRolePos(u.clone()));
        out.insert(SigAtom::DataRoleEq(u.clone()));
    }
    for i in &sig.individuals {
        out.insert(SigAtom::Individual(i.clone()));
    }
    out
}

/// Is the concept's extension guaranteed to be the full domain under
/// the `⊤`-locality interpretation (out-of-`Σ` symbols full), for every
/// interpretation of the in-`Σ` symbols?
fn concept_top(c: &Concept, sigma: &BTreeSet<SigAtom>) -> bool {
    match c {
        Concept::Top => true,
        Concept::Bottom => false,
        Concept::Atomic(a) => !sigma.contains(&concept_atom(a)),
        Concept::Not(inner) => concept_bot(inner, sigma),
        Concept::And(l, r) => concept_top(l, sigma) && concept_top(r, sigma),
        Concept::Or(l, r) => concept_top(l, sigma) || concept_top(r, sigma),
        // A nominal's extension is a fixed finite set — never all of Δ.
        Concept::OneOf(_) => false,
        // R full and C full ⟹ every x reaches itself through R into C.
        Concept::Some(r, f) => role_out(r, sigma) && concept_top(f, sigma),
        Concept::All(_, f) => concept_top(f, sigma),
        Concept::AtLeast(n, r) => *n == 0 || (*n == 1 && role_out(r, sigma)),
        // A full role gives |Δ| successors, which no finite bound caps.
        Concept::AtMost(..) => false,
        // Datatype ranges are handled conservatively: never top/bot.
        Concept::DataSome(..)
        | Concept::DataAll(..)
        | Concept::DataAtLeast(..)
        | Concept::DataAtMost(..) => false,
    }
}

/// Is the concept's extension guaranteed empty under the `⊤`-locality
/// interpretation?
fn concept_bot(c: &Concept, sigma: &BTreeSet<SigAtom>) -> bool {
    match c {
        Concept::Bottom => true,
        Concept::Not(inner) => concept_top(inner, sigma),
        Concept::And(l, r) => concept_bot(l, sigma) || concept_bot(r, sigma),
        Concept::Or(l, r) => concept_bot(l, sigma) && concept_bot(r, sigma),
        Concept::Some(_, f) => concept_bot(f, sigma),
        // R full forces a successor outside the (empty) filler.
        Concept::All(r, f) => role_out(r, sigma) && concept_bot(f, sigma),
        _ => false,
    }
}

fn role_out(r: &RoleExpr, sigma: &BTreeSet<SigAtom>) -> bool {
    !sigma.contains(&role_atom(r.name()))
}

/// Is the classical axiom `⊤`-local w.r.t. `Σ`? (Satisfied under the
/// out-of-`Σ`-is-full interpretation whatever the in-`Σ` symbols mean.)
pub fn axiom_local(ax: &Axiom, sigma: &BTreeSet<SigAtom>) -> bool {
    match ax {
        Axiom::ConceptInclusion(c, d) => concept_bot(c, sigma) || concept_top(d, sigma),
        // R ⊑ S holds when S is full.
        Axiom::RoleInclusion(_, s) => role_out(s, sigma),
        // The full relation is transitive.
        Axiom::Transitive(r) => !sigma.contains(&role_atom(r)),
        Axiom::DataRoleInclusion(_, v) => !sigma.contains(&data_role_atom(v)),
        Axiom::ConceptAssertion(_, c) => concept_top(c, sigma),
        Axiom::RoleAssertion(r, ..) => !sigma.contains(&role_atom(r)),
        Axiom::DataAssertion(u, ..) => !sigma.contains(&data_role_atom(u)),
        // Both out of Σ ⟹ both map to the same fixed element.
        Axiom::SameIndividual(a, b) => {
            a == b
                || (!sigma.contains(&SigAtom::Individual(a.clone()))
                    && !sigma.contains(&SigAtom::Individual(b.clone())))
        }
        // The fixed-element mapping could merge the two sides, so a
        // distinctness declaration is never droppable.
        Axiom::DifferentIndividuals(..) => false,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parse_kb4;
    use proptest::prelude::*;

    fn kb(src: &str) -> KnowledgeBase4 {
        parse_kb4(src).unwrap()
    }

    fn seed_of(names: &[&str]) -> BTreeSet<SigAtom> {
        let mut out = BTreeSet::new();
        for n in names {
            out.extend(concept_seed(&Concept::atomic(*n)));
        }
        out
    }

    #[test]
    fn atoms_are_polarity_aware() {
        let kb = kb("A SubClassOf B
             C MaterialSubClassOf D
             E StrongSubClassOf F");
        let g = DepGraph::build(&kb);
        // Internal: only the ⁺-halves.
        assert_eq!(
            g.atoms[0],
            BTreeSet::from([
                SigAtom::ConceptPos(ConceptName::new("A")),
                SigAtom::ConceptPos(ConceptName::new("B")),
            ])
        );
        // Material: the LHS appears through its ⁻-half (¬(¬C̄) ⊑ D̄).
        assert_eq!(
            g.atoms[1],
            BTreeSet::from([
                SigAtom::ConceptNeg(ConceptName::new("C")),
                SigAtom::ConceptPos(ConceptName::new("D")),
            ])
        );
        // Strong: all four halves (both directions).
        assert_eq!(g.atoms[2].len(), 4);
        assert_eq!(g.kinds[0], AxiomKind::Inclusion(InclusionKind::Internal));
        assert_eq!(g.kinds[1], AxiomKind::Inclusion(InclusionKind::Material));
    }

    #[test]
    fn components_split_disjoint_islands() {
        let kb = kb("A SubClassOf B
             x : A
             C SubClassOf D
             y : C");
        let comps = DepGraph::build(&kb).components();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn module_keeps_the_relevant_island_only() {
        let kb = kb("A SubClassOf B
             x : A
             C SubClassOf D
             y : C
             y : not D");
        let ex = ModuleExtractor::new(&kb);
        let m = ex.extract(&seed_of(&["A", "B"]));
        assert_eq!(m.axioms, BTreeSet::from([0, 1]));
        // The other island's module ignores the first — and a query
        // about C also drops the inclusion *out of* C and the D⁻ fact:
        // neither can force information into C (⊤-locality).
        let m = ex.extract(&seed_of(&["C"]));
        assert_eq!(m.axioms, BTreeSet::from([3]));
        // A query about D pulls in the whole island: the inclusion can
        // push C-facts into D⁺, and `y : not D` feeds D⁻.
        let m = ex.extract(&seed_of(&["D"]));
        assert_eq!(m.axioms, BTreeSet::from([2, 3, 4]));
    }

    #[test]
    fn internal_inclusions_do_not_couple_negative_halves() {
        // A ⊏ B touches A⁺/B⁺ only: a query about ¬A (the A⁻ half)
        // cannot depend on it.
        let kb1 = kb("A SubClassOf B
             x : not A");
        let ex = ModuleExtractor::new(&kb1);
        let mut seed = BTreeSet::from([SigAtom::ConceptNeg(ConceptName::new("A"))]);
        seed.insert(SigAtom::Individual(IndividualName::new("x")));
        let m = ex.extract(&seed);
        assert_eq!(m.axioms, BTreeSet::from([1]));
        // A strong inclusion DOES couple them (contraposition).
        let kb2 = kb("A StrongSubClassOf B
             x : not A");
        let ex = ModuleExtractor::new(&kb2);
        let m = ex.extract(&seed);
        assert_eq!(m.axioms, BTreeSet::from([0, 1]));
    }

    #[test]
    fn never_local_axioms_are_in_every_module() {
        let kb = kb("a != b
             a : {c}
             not r(d, e)
             x : A");
        let ex = ModuleExtractor::new(&kb);
        let m = ex.extract(&BTreeSet::new());
        // ≠, nominal assertions and negative role assertions are never
        // ⊤-local; the plain membership assertion is.
        assert_eq!(m.axioms, BTreeSet::from([0, 1, 2]));
    }

    #[test]
    fn admissions_record_rounds_and_witnesses() {
        let kb = kb("A SubClassOf B
             B SubClassOf C
             x : A");
        let ex = ModuleExtractor::new(&kb);
        // Information flows *toward* the seed: a query about C needs
        // the whole chain (each link can push facts one step up).
        let (m, admissions) = ex.extract_explained(&seed_of(&["C"]));
        assert_eq!(m.axioms, BTreeSet::from([0, 1, 2]));
        assert_eq!(ex.extract(&seed_of(&["C"])).axioms, m.axioms);
        let by_axiom: BTreeMap<usize, &Admission> =
            admissions.iter().map(|a| (a.axiom, a)).collect();
        // B ⊑ C is forced by the seed; A ⊑ B only once B⁺ flowed in.
        assert_eq!(by_axiom[&1].round, 0);
        assert!(by_axiom[&0].round > 0);
        assert!(by_axiom[&0]
            .via
            .contains(&SigAtom::ConceptPos(ConceptName::new("B"))));
    }

    #[test]
    fn module_is_monotone_in_the_seed() {
        let kb = kb("A SubClassOf B
             B SubClassOf C
             C MaterialSubClassOf D
             x : A
             y : not D
             r(x, y)");
        let ex = ModuleExtractor::new(&kb);
        let small = ex.extract(&seed_of(&["A"]));
        let mut big_seed = seed_of(&["A", "D"]);
        big_seed.insert(SigAtom::Individual(IndividualName::new("y")));
        let big = ex.extract(&big_seed);
        assert!(small.axioms.is_subset(&big.axioms));
        assert!(small.signature.is_subset(&big.signature));
    }

    #[test]
    fn full_signature_seed_covers_every_query_module() {
        let kb = kb("A SubClassOf B
             x : A
             r(x, y)
             u(x, \"v\")");
        let ex = ModuleExtractor::new(&kb);
        let full = ex.extract(&full_signature_seed(&kb));
        for c in ["A", "B"] {
            for i in ["x", "y"] {
                let seed = ex.instance_seed(&IndividualName::new(i), &Concept::atomic(c));
                assert!(ex.extract(&seed).axioms.is_subset(&full.axioms));
            }
        }
    }

    #[test]
    fn induced_module_kb_matches_member_images() {
        let kb = kb("A SubClassOf B
             x : A
             y : C");
        let ex = ModuleExtractor::new(&kb);
        let m = ex.extract(&seed_of(&["B"]));
        let induced = ex.induced_module_kb(&m);
        assert_eq!(induced.len(), 2);
        let printed = dl::printer::print_kb(&induced);
        assert!(printed.contains("A+ SubClassOf B+"), "{printed}");
        assert!(!printed.contains("C+"), "{printed}");
    }

    #[test]
    fn incremental_push_matches_fresh_build() {
        let base = kb("A SubClassOf B
             x : A");
        let mut ex = ModuleExtractor::new(&base);
        let added = parse_kb4("B SubClassOf C\ny : not C").unwrap();
        for ax in added.axioms() {
            ex.push_axiom(ax);
        }
        let full = kb("A SubClassOf B
             x : A
             B SubClassOf C
             y : not C");
        let fresh = ModuleExtractor::new(&full);
        for names in [&["A"][..], &["B"], &["C"], &["A", "C"]] {
            let seed = seed_of(names);
            let inc = ex.extract(&seed);
            let ref_m = fresh.extract(&seed);
            assert_eq!(inc.axioms, ref_m.axioms, "module differs for {names:?}");
            assert_eq!(inc.signature, ref_m.signature);
        }
    }

    #[test]
    fn tombstoned_slot_leaves_every_module() {
        let full = kb("A SubClassOf B
             B SubClassOf C
             x : A");
        let mut ex = ModuleExtractor::new(&full);
        assert!(ex.is_live(1));
        ex.remove_axiom(1);
        assert!(!ex.is_live(1));
        // Slot ids of survivors are unchanged; the dead slot never
        // appears again, matching a fresh extractor over the shrunken KB.
        let shrunk = kb("A SubClassOf B
             x : A");
        let fresh = ModuleExtractor::new(&shrunk);
        // Survivor slot ids: 0 stays 0, 2 maps to 1 in the fresh build.
        let remap = |i: usize| if i == 0 { 0 } else { 1 };
        for names in [&["A"][..], &["B"], &["C"]] {
            let seed = seed_of(names);
            let inc = ex.extract(&seed);
            let ref_m = fresh.extract(&seed);
            assert!(!inc.axioms.contains(&1));
            assert_eq!(
                inc.axioms
                    .iter()
                    .map(|&i| remap(i))
                    .collect::<BTreeSet<_>>(),
                ref_m.axioms,
                "module differs for {names:?}"
            );
        }
    }

    #[test]
    fn empty_seed_module_decides_consistency_axioms_only() {
        // The ∅-seeded module is exactly the never-local core — the part
        // that can make the KB unsatisfiable.
        let kb = kb("A SubClassOf B
             x : A
             a : {b}
             a != b");
        let ex = ModuleExtractor::new(&kb);
        let m = ex.extract(&BTreeSet::new());
        assert_eq!(m.axioms, BTreeSet::from([2, 3]));
    }

    /// The definitional least fixpoint: scan every slot until no slot
    /// is admitted — the full-scan reference for the worklist start.
    fn full_scan(
        ex: &ModuleExtractor,
        seed: &BTreeSet<SigAtom>,
    ) -> (BTreeSet<usize>, BTreeSet<SigAtom>) {
        let mut sigma = seed.clone();
        let mut axioms = BTreeSet::new();
        loop {
            let admitted: Vec<usize> = (0..ex.graph.len())
                .filter(|i| !axioms.contains(i))
                .filter(|&i| !ex.images[i].iter().all(|ax| axiom_local(ax, &sigma)))
                .collect();
            if admitted.is_empty() {
                return (axioms, sigma);
            }
            for i in admitted {
                axioms.insert(i);
                sigma.extend(ex.graph.atoms[i].iter().cloned());
            }
        }
    }

    /// A generated concept over `A0..A3`, `r0`, `r1` and `i0..i3`.
    pub(crate) fn concept_text(k: usize, x: usize, y: usize) -> String {
        match k {
            0..=3 => format!("A{k}"),
            4 => format!("(not A{x})"),
            5 => format!("(A{x} and A{y})"),
            6 => format!("(A{x} or A{y})"),
            7 => format!("(r{} some A{y})", x % 2),
            8 => format!("(r{} only A{y})", x % 2),
            9 => format!("(r{} max 1)", y % 2),
            _ => format!("{{i{y}}}"),
        }
    }

    /// One generated KB line, weighted toward the never-local shapes
    /// (`≠`, nominal assertions, negative role assertions, `⊥` heads).
    fn line((shape, x, y, kind, c, d): (usize, usize, usize, usize, usize, usize)) -> String {
        let (cx, cy) = (concept_text(c, x, y), concept_text(d, x, y));
        let inclusion = ["SubClassOf", "MaterialSubClassOf", "StrongSubClassOf"][kind];
        match shape {
            0..=2 => format!("{cx} {inclusion} {cy}"),
            3 => format!("{cx} {inclusion} Nothing"),
            4 | 5 => format!("i{x} : {cy}"),
            6 => format!("i{x} : {{i{y}}}"),
            7 => format!("r{}(i{x}, i{y})", kind % 2),
            8 => format!("not r{}(i{x}, i{y})", kind % 2),
            9 => format!("i{x} != i{y}"),
            10 => format!("i{x} = i{y}"),
            11 => format!("r{} SubRoleOf r{}", x % 2, y % 2),
            _ => format!("Transitive(r{})", x % 2),
        }
    }

    pub(crate) fn line_strategy() -> impl Strategy<Value = String> {
        (
            0usize..13,
            0usize..4,
            0usize..4,
            0usize..3,
            0usize..11,
            0usize..11,
        )
            .prop_map(line)
    }

    /// A seed: a concept's two polarities, with or without an
    /// individual.
    fn seed_strategy() -> impl Strategy<Value = BTreeSet<SigAtom>> {
        (0usize..11, 0usize..4, 0usize..4, any::<bool>()).prop_map(|(k, x, y, individual)| {
            let text = concept_text(k, x, y);
            let concept = crate::command::parse_concept(&text, &BTreeSet::new())
                .expect("generated concepts parse");
            let mut seed = concept_seed(&concept);
            if individual {
                seed.insert(SigAtom::Individual(IndividualName::new(format!("i{x}"))));
            }
            seed
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The worklist start (never-local core + users of the seed's
        /// atoms) reaches the full scan's fixpoint, also after
        /// interleaved `push_axiom`/`remove_axiom` calls.
        #[test]
        fn worklist_start_matches_the_full_scan(
            base in proptest::collection::vec(line_strategy(), 0..10),
            ops in proptest::collection::vec((0usize..3, line_strategy(), 0usize..64), 0..12),
            seeds in proptest::collection::vec(seed_strategy(), 1..5),
        ) {
            let mut ex = ModuleExtractor::new(&kb(&base.join("\n")));
            let check = |ex: &ModuleExtractor| -> Result<(), TestCaseError> {
                for seed in seeds.iter().chain([&BTreeSet::new()]) {
                    let m = ex.extract(seed);
                    let (axioms, signature) = full_scan(ex, seed);
                    prop_assert_eq!(&m.axioms, &axioms, "seed {:?}", seed);
                    prop_assert_eq!(&m.signature, &signature, "seed {:?}", seed);
                    let (explained, admissions) = ex.extract_explained(seed);
                    prop_assert_eq!(&explained.axioms, &axioms);
                    prop_assert_eq!(admissions.len(), axioms.len());
                }
                Ok(())
            };
            check(&ex)?;
            for (op, text, pick) in ops {
                let live: Vec<usize> = (0..ex.graph.len()).filter(|&i| ex.is_live(i)).collect();
                if op == 0 && !live.is_empty() {
                    ex.remove_axiom(live[pick % live.len()]);
                } else {
                    for ax in kb(&text).axioms() {
                        ex.push_axiom(ax);
                    }
                }
                check(&ex)?;
            }
        }
    }

    #[test]
    fn locality_tests_stay_on_the_seed_island() {
        // Many disjoint islands, each a chain A_k ⊑ B_k ⊑ C_k with a
        // fact, a nominal and a ≠ pair: an extraction seeded on one
        // island may test that island and the never-local core, never
        // the other islands' ordinary axioms.
        let islands = 200;
        let mut text = String::new();
        for k in 0..islands {
            text.push_str(&format!(
                "A{k} SubClassOf B{k}\nB{k} SubClassOf C{k}\nx{k} : A{k}\nD{k} SubClassOf E{k}\ny{k} : D{k}\n"
            ));
        }
        text.push_str("p : {q}\np != q\n");
        let kb = kb(&text);
        let ex = ModuleExtractor::new(&kb);
        let per_island = 5;
        let core = 2;
        for k in [0, islands / 2, islands - 1] {
            let m = ex.extract(&seed_of(&[&format!("C{k}")]));
            let start = per_island * k;
            let island: BTreeSet<usize> = (start..start + 3).collect();
            let core_slots = BTreeSet::from([per_island * islands, per_island * islands + 1]);
            assert_eq!(m.axioms, &island | &core_slots);
            assert!(
                m.locality_tests <= 3 + core,
                "{} locality tests for a {}-axiom module in a {}-axiom KB",
                m.locality_tests,
                m.axioms.len(),
                kb.len()
            );
            assert_eq!(m.axioms, full_scan(&ex, &seed_of(&[&format!("C{k}")])).0);
        }
    }
}
