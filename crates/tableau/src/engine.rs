//! The shared, immutable query engine: the tableau's public entry point.
//!
//! [`QueryEngine`] owns the preprocessed [`Context`] and the initialized
//! base [`CompletionGraph`]; every reasoning service takes `&self` and
//! works on a clone of that graph, so any number of queries can run
//! concurrently (e.g. fanned out over `std::thread::scope` workers by the
//! batch drivers in the `shoin4` crate). Interior mutability is limited
//! to three caches:
//!
//! * **merged statistics** — each query runs a private [`Search`] and
//!   folds its counters into a mutex-guarded total, instead of mutating a
//!   shared accumulator mid-search;
//! * **the base model** — the first query that needs KB consistency runs
//!   the tableau once on the unaugmented base graph and keeps a cheap
//!   projection of the completed graph (atomic labels + individual
//!   placement). Consistency is read off that cache ("inconsistent KB
//!   entails everything" short-circuits *every* service, not just
//!   [`QueryEngine::entails`]), and the projection doubles as a sound
//!   entailment filter (see below);
//! * **a fresh-individual counter** for the entailment reductions that
//!   need anonymous witnesses.
//!
//! ## Model-based pruning
//!
//! A classical FaCT++/Pellet-style observation: one concrete model
//! refutes many entailments at once. If the cached base model interprets
//! individual `a` outside atomic concept `A`, then `KB ⊭ a : A`; if
//! some node of it carries `A` but not `B`, then `A ⊓ ¬B` is satisfiable
//! and `KB ⊭ A ⊑ B` (any conjunction of atomic literals is witnessed the
//! same way) — no search needed; only candidate entailments the model
//! fails to refute fall through to the full tableau. Soundness is one-directional (a
//! refutation is definitive, absence of a refutation proves nothing), so
//! answers never change — the property tests in `tests/batch_parity.rs`
//! check exactly this agreement.
//!
//! Two exactness caveats, both handled conservatively:
//!
//! * Named individuals always sit on *root* nodes, which survive the
//!   unraveling of a blocked graph with their labels intact — so
//!   instance-refutation is sound even when blocking fired.
//! * Anonymous nodes inside blocked subtrees may not denote real
//!   elements, so subsumption/satisfiability witnesses are only read off
//!   graphs with `blocked_nodes == 0`.

use crate::blocking::is_directly_blocked;
use crate::config::{Config, ReasonerError};
use crate::graph::CompletionGraph;
use crate::node::NodeId;
use crate::rules::{Context, Search};
use crate::stats::Stats;
use dl::axiom::{Axiom, RoleExpr};
use dl::datatype::DataRange;
use dl::kb::KnowledgeBase;
use dl::name::{ConceptName, IndividualName};
use dl::nnf::nnf;
use dl::Concept;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// A cheap projection of one completed, clash-free completion graph of
/// the base KB: which atomic concepts label which node, and where each
/// individual landed. Used as a sound entailment filter (see the module
/// docs for the soundness argument).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseModel {
    labels: BTreeMap<NodeId, BTreeSet<ConceptName>>,
    individuals: BTreeMap<IndividualName, NodeId>,
    /// `true` iff no node was blocked — only then do anonymous nodes
    /// denote real elements of the represented model.
    exact: bool,
}

impl BaseModel {
    fn project(g: &CompletionGraph, strategy: crate::config::BlockingStrategy) -> BaseModel {
        let mut labels = BTreeMap::new();
        let mut individuals = BTreeMap::new();
        let mut blocked = 0usize;
        for x in g.live_nodes() {
            let node = g.node(x);
            let atoms: BTreeSet<ConceptName> = node
                .label
                .iter()
                .filter_map(|c| match c {
                    Concept::Atomic(a) => Some(a.clone()),
                    _ => None,
                })
                .collect();
            labels.insert(x, atoms);
            for o in &node.nominals {
                individuals.insert(o.clone(), x);
            }
            if node.is_blockable() && is_directly_blocked(g, x, strategy) {
                blocked += 1;
            }
        }
        BaseModel {
            labels,
            individuals,
            exact: blocked == 0,
        }
    }

    /// Does this model refute `KB ⊨ a : A`? (The model places `a`
    /// outside `A`, so the entailment certainly fails.) `false` means
    /// "no verdict", not "entailed".
    pub fn refutes_instance(&self, a: &IndividualName, atomic: &ConceptName) -> bool {
        match self.individuals.get(a) {
            Some(n) => !self.labels[n].contains(atomic),
            None => false,
        }
    }

    /// Does this model witness satisfiability of `c` w.r.t. the KB,
    /// for `c` a conjunction of atomic literals (`A`, `¬A`, `⊤`, nested
    /// `⊓`)? It does when some node carries every positive literal and
    /// none of the negated ones: the canonical interpretation of an
    /// exact graph puts a node in `A` iff `A` labels it. This covers the
    /// subsumption probe `A ⊓ ¬B` (a refutation of `A ⊑ B`) and the
    /// split images' `¬A⁻ ⊓ ¬B⁺`. Conservative: only answered on exact
    /// models, and `false` for any other shape.
    pub fn witnesses_literal_conjunction(&self, c: &Concept) -> bool {
        let (mut pos, mut neg) = (Vec::new(), Vec::new());
        self.exact
            && literals(c, &mut pos, &mut neg)
            && self
                .labels
                .values()
                .any(|l| pos.iter().all(|a| l.contains(*a)) && !neg.iter().any(|a| l.contains(*a)))
    }
}

/// Split a conjunction of atomic literals into its positive and negated
/// names; `false` if `c` has any other shape.
fn literals<'a>(
    c: &'a Concept,
    pos: &mut Vec<&'a ConceptName>,
    neg: &mut Vec<&'a ConceptName>,
) -> bool {
    match c {
        Concept::Top => true,
        Concept::Atomic(a) => {
            pos.push(a);
            true
        }
        Concept::Not(inner) => match &**inner {
            Concept::Atomic(a) => {
                neg.push(a);
                true
            }
            _ => false,
        },
        Concept::And(l, r) => literals(l, pos, neg) && literals(r, pos, neg),
        _ => false,
    }
}

/// The base-model cache: `None` = not yet computed; `Some(None)` = the KB
/// is inconsistent (no model); `Some(Some(m))` = consistent with model
/// projection `m`.
type BaseCache = Option<Option<Arc<BaseModel>>>;

/// An immutable SHOIN(D) query context over a fixed knowledge base.
///
/// Construction preprocesses the KB once (absorption, internalization,
/// ABox loading); every reasoning service then takes `&self` and works on
/// a clone of the initialized completion graph, so queries do not
/// interfere and may run on concurrent threads.
pub struct QueryEngine {
    ctx: Context,
    base_graph: CompletionGraph,
    /// A clash already during ABox loading (merge of asserted-distinct
    /// individuals) — the KB is inconsistent regardless of the search.
    setup_clash: bool,
    base: Mutex<BaseCache>,
    stats: Mutex<Stats>,
    query_counter: AtomicU32,
}

impl QueryEngine {
    /// Preprocess `kb` with the default configuration.
    pub fn new(kb: &KnowledgeBase) -> Self {
        Self::with_config(kb, Config::default())
    }

    /// Preprocess `kb` with an explicit configuration.
    pub fn with_config(kb: &KnowledgeBase, config: Config) -> Self {
        let mut globals = Vec::new();
        let mut unfoldings: BTreeMap<ConceptName, Vec<Concept>> = BTreeMap::new();
        for ax in kb.tbox() {
            if let Axiom::ConceptInclusion(c, d) = ax {
                if config.absorption {
                    match c {
                        // A ⊑ D: unfold A lazily.
                        Concept::Atomic(a) => {
                            unfoldings.entry(a.clone()).or_default().push(nnf(d));
                            continue;
                        }
                        // A ⊓ C ⊑ D (e.g. disjointness A ⊓ B ⊑ ⊥):
                        // absorb into A → ¬C ⊔ D, keeping the constraint
                        // local to nodes actually labelled A.
                        Concept::And(l, r) => {
                            if let Concept::Atomic(a) = &**l {
                                unfoldings
                                    .entry(a.clone())
                                    .or_default()
                                    .push(nnf(&(**r).clone().not().or(d.clone())));
                                continue;
                            }
                            if let Concept::Atomic(a) = &**r {
                                unfoldings
                                    .entry(a.clone())
                                    .or_default()
                                    .push(nnf(&(**l).clone().not().or(d.clone())));
                                continue;
                            }
                        }
                        _ => {}
                    }
                }
                globals.push(nnf(&c.clone().not().or(d.clone())));
            }
        }
        let ctx = Context {
            hierarchy: kb.role_hierarchy(),
            data_hierarchy: kb.data_role_hierarchy(),
            globals,
            unfoldings,
            config,
        };

        // Load the ABox into the base completion graph. Individuals from
        // the signature are pre-created in deterministic order; any ABox
        // individual the signature missed is created on first mention
        // (`ensure_node`) instead of panicking.
        let mut g = CompletionGraph::new();
        let mut setup_clash = false;
        let sig = kb.signature();
        for o in &sig.individuals {
            Self::ensure_node(&mut g, o);
        }
        for ax in kb.abox() {
            match ax {
                Axiom::ConceptAssertion(a, c) => {
                    let n = Self::ensure_node(&mut g, a);
                    g.add_concept(n, nnf(c));
                }
                Axiom::RoleAssertion(r, a, b) => {
                    let (na, nb) = (Self::ensure_node(&mut g, a), Self::ensure_node(&mut g, b));
                    g.add_edge(na, nb, &RoleExpr::named(r.clone()));
                }
                Axiom::DataAssertion(u, a, v) => {
                    let n = Self::ensure_node(&mut g, a);
                    g.add_concept(
                        n,
                        Concept::DataSome(u.clone(), DataRange::one_of([v.clone()])),
                    );
                }
                Axiom::SameIndividual(a, b) => {
                    let (na, nb) = (Self::ensure_node(&mut g, a), Self::ensure_node(&mut g, b));
                    if g.merge(na, nb).is_some() {
                        setup_clash = true;
                    }
                }
                Axiom::DifferentIndividuals(a, b) => {
                    let (na, nb) = (Self::ensure_node(&mut g, a), Self::ensure_node(&mut g, b));
                    if g.set_distinct(na, nb).is_some() {
                        setup_clash = true;
                    }
                }
                _ => {}
            }
        }
        // A pure-TBox KB still requires a non-empty domain.
        if sig.individuals.is_empty() {
            g.new_root();
        }

        QueryEngine {
            ctx,
            base_graph: g,
            setup_clash,
            base: Mutex::new(None),
            stats: Mutex::new(Stats::default()),
            query_counter: AtomicU32::new(0),
        }
    }

    /// Statistics merged across all queries so far (on all threads).
    pub fn stats(&self) -> Stats {
        *self.stats.lock().expect("stats lock")
    }

    /// Active configuration.
    pub fn config(&self) -> &Config {
        &self.ctx.config
    }

    fn absorb_stats(&self, s: &Stats) {
        self.stats.lock().expect("stats lock").absorb(s);
    }

    fn ensure_node(g: &mut CompletionGraph, o: &IndividualName) -> NodeId {
        match g.nominal_node(o) {
            Some(n) => n,
            None => {
                let n = g.new_root();
                g.set_nominal_node(o.clone(), n);
                g.add_concept(n, Concept::one_of([o.clone()]));
                n
            }
        }
    }

    fn fresh_individual(&self) -> IndividualName {
        let i = self.query_counter.fetch_add(1, Ordering::Relaxed);
        IndividualName::new(format!("__q{i}"))
    }

    /// Run one satisfiability search on an augmented graph. Short-circuits
    /// when the base KB is already *known* inconsistent: every augmented
    /// graph is then unsatisfiable too (queries only ever add constraints).
    fn run(&self, g: CompletionGraph) -> Result<bool, ReasonerError> {
        if self.setup_clash {
            return Ok(false);
        }
        if let Some(cache) = &*self.base.lock().expect("base lock") {
            if cache.is_none() {
                return Ok(false);
            }
        }
        let mut search = Search::new(&self.ctx);
        let result = search.satisfiable(g);
        self.absorb_stats(&search.stats);
        result
    }

    /// The cached base-model projection: computed by running the tableau
    /// to completion on the unaugmented base graph, once, on first need.
    /// `Ok(None)` means the KB is inconsistent. Resource-limit errors are
    /// *not* cached — a later call under a fresh budget retries.
    fn base_model(&self) -> Result<Option<Arc<BaseModel>>, ReasonerError> {
        if self.setup_clash {
            return Ok(None);
        }
        let mut guard = self.base.lock().expect("base lock");
        if let Some(cached) = &*guard {
            return Ok(cached.clone());
        }
        let mut search = Search::new(&self.ctx);
        let done = search.complete(self.base_graph.clone());
        self.absorb_stats(&search.stats);
        let computed = done?.map(|g| Arc::new(BaseModel::project(&g, self.ctx.config.blocking)));
        *guard = Some(computed.clone());
        Ok(computed)
    }

    /// The base-model projection if the KB is consistent (computing it on
    /// first call), for callers that want to reuse the entailment filter
    /// directly.
    pub fn base_model_for_pruning(&self) -> Result<Option<Arc<BaseModel>>, ReasonerError> {
        if !self.ctx.config.model_pruning {
            return Ok(None);
        }
        self.base_model()
    }

    /// Is the knowledge base satisfiable? Computed once and cached; every
    /// other service consults the same cache.
    pub fn is_consistent(&self) -> Result<bool, ReasonerError> {
        Ok(self.base_model()?.is_some())
    }

    /// Find a model of the KB, if one exists: run the tableau to
    /// completion and extract the final structure. See
    /// [`crate::model::ExtractedModel::blocked_nodes`] for the finiteness
    /// caveat.
    pub fn find_model(&self) -> Result<Option<crate::model::ExtractedModel>, ReasonerError> {
        if self.setup_clash {
            return Ok(None);
        }
        let mut search = Search::new(&self.ctx);
        let done = search.complete(self.base_graph.clone());
        self.absorb_stats(&search.stats);
        Ok(done?.map(|g| crate::model::extract(&g, &self.ctx.hierarchy, self.ctx.config.blocking)))
    }

    /// Is `c` satisfiable w.r.t. the KB (some model has a `c`-instance)?
    pub fn is_concept_satisfiable(&self, c: &Concept) -> Result<bool, ReasonerError> {
        let Some(model) = self.base_model()? else {
            // An inconsistent KB has no models at all.
            return Ok(false);
        };
        if self.ctx.config.model_pruning && model.witnesses_literal_conjunction(c) {
            return Ok(true);
        }
        let mut g = self.base_graph.clone();
        let n = g.new_root();
        g.add_concept(n, nnf(c));
        self.run(g)
    }

    /// Does the KB entail `sub ⊑ sup`? (`sub ⊓ ¬sup` unsatisfiable.)
    pub fn is_subsumed_by(&self, sub: &Concept, sup: &Concept) -> Result<bool, ReasonerError> {
        let test = sub.clone().and(sup.clone().not());
        Ok(!self.is_concept_satisfiable(&test)?)
    }

    /// Does the KB entail `a : c`? (`KB ∪ {a:¬c}` inconsistent.)
    pub fn is_instance_of(&self, a: &IndividualName, c: &Concept) -> Result<bool, ReasonerError> {
        let Some(model) = self.base_model()? else {
            return Ok(true); // inconsistent KB entails everything
        };
        if self.ctx.config.model_pruning {
            if let Concept::Atomic(name) = c {
                if model.refutes_instance(a, name) {
                    return Ok(false);
                }
            }
        }
        let mut g = self.base_graph.clone();
        let n = Self::ensure_node(&mut g, a);
        g.add_concept(n, nnf(&c.clone().not()));
        Ok(!self.run(g)?)
    }

    /// Does the KB entail the given axiom? Supports every axiom form via
    /// the standard reductions to KB (un)satisfiability.
    pub fn entails(&self, axiom: &Axiom) -> Result<bool, ReasonerError> {
        // An inconsistent KB entails everything.
        if !self.is_consistent()? {
            return Ok(true);
        }
        match axiom {
            Axiom::ConceptInclusion(c, d) => self.is_subsumed_by(c, d),
            Axiom::ConceptAssertion(a, c) => self.is_instance_of(a, c),
            Axiom::RoleAssertion(r, a, b) => {
                // KB ⊨ R(a,b) iff KB ∪ {a : ∀R.¬{b}} is inconsistent.
                let mut g = self.base_graph.clone();
                let na = Self::ensure_node(&mut g, a);
                Self::ensure_node(&mut g, b);
                g.add_concept(
                    na,
                    Concept::all(
                        RoleExpr::named(r.clone()),
                        Concept::one_of([b.clone()]).not(),
                    ),
                );
                Ok(!self.run(g)?)
            }
            Axiom::DataAssertion(u, a, v) => {
                let mut g = self.base_graph.clone();
                let na = Self::ensure_node(&mut g, a);
                g.add_concept(
                    na,
                    Concept::DataAll(u.clone(), DataRange::one_of([v.clone()]).complement()),
                );
                Ok(!self.run(g)?)
            }
            Axiom::SameIndividual(a, b) => {
                let mut g = self.base_graph.clone();
                let na = Self::ensure_node(&mut g, a);
                let nb = Self::ensure_node(&mut g, b);
                if g.set_distinct(na, nb).is_some() {
                    return Ok(true);
                }
                Ok(!self.run(g)?)
            }
            Axiom::DifferentIndividuals(a, b) => {
                let mut g = self.base_graph.clone();
                let na = Self::ensure_node(&mut g, a);
                let nb = Self::ensure_node(&mut g, b);
                if g.merge(na, nb).is_some() {
                    return Ok(true);
                }
                Ok(!self.run(g)?)
            }
            Axiom::RoleInclusion(r, s) => {
                // KB ⊨ R ⊑ S iff KB ∪ {R(a,b), a : ∀S.¬{b}} is
                // inconsistent for fresh a, b.
                let (a, b) = (self.fresh_individual(), self.fresh_individual());
                let mut g = self.base_graph.clone();
                let na = Self::ensure_node(&mut g, &a);
                let nb = Self::ensure_node(&mut g, &b);
                g.add_edge(na, nb, r);
                g.add_concept(
                    na,
                    Concept::all(s.clone(), Concept::one_of([b.clone()]).not()),
                );
                Ok(!self.run(g)?)
            }
            Axiom::Transitive(r) => {
                // KB ⊨ Trans(R) iff KB ∪ {R(a,b), R(b,c), a : ∀R.¬{c}} is
                // inconsistent for fresh a, b, c.
                let role = RoleExpr::named(r.clone());
                let (a, b, c) = (
                    self.fresh_individual(),
                    self.fresh_individual(),
                    self.fresh_individual(),
                );
                let mut g = self.base_graph.clone();
                let na = Self::ensure_node(&mut g, &a);
                let nb = Self::ensure_node(&mut g, &b);
                let nc = Self::ensure_node(&mut g, &c);
                g.add_edge(na, nb, &role);
                g.add_edge(nb, nc, &role);
                g.add_concept(na, Concept::all(role, Concept::one_of([c.clone()]).not()));
                Ok(!self.run(g)?)
            }
            Axiom::DataRoleInclusion(u, v) => {
                // KB ⊨ U ⊑ V iff KB ∪ {U(a, w), a : ∀V.¬{w}} is
                // inconsistent for fresh a and a fresh value w.
                let a = self.fresh_individual();
                let w = dl::DataValue::Str(format!(
                    "__qv{}",
                    self.query_counter.load(Ordering::Relaxed)
                ));
                let mut g = self.base_graph.clone();
                let na = Self::ensure_node(&mut g, &a);
                g.add_concept(
                    na,
                    Concept::DataSome(u.clone(), DataRange::one_of([w.clone()])),
                );
                g.add_concept(
                    na,
                    Concept::DataAll(v.clone(), DataRange::one_of([w]).complement()),
                );
                Ok(!self.run(g)?)
            }
        }
    }

    /// Compute, for every named concept in `sig_concepts`, the set of
    /// named concepts subsuming it (including itself and implicitly `⊤`).
    /// Brute-force n² classification with unsatisfiable-concept handling.
    pub fn classify(
        &self,
        sig_concepts: &BTreeSet<ConceptName>,
    ) -> Result<BTreeMap<ConceptName, BTreeSet<ConceptName>>, ReasonerError> {
        let names: Vec<ConceptName> = sig_concepts.iter().cloned().collect();
        let mut out: BTreeMap<ConceptName, BTreeSet<ConceptName>> = BTreeMap::new();
        for a in &names {
            let ca = Concept::Atomic(a.clone());
            let mut supers = BTreeSet::new();
            for b in &names {
                let cb = Concept::Atomic(b.clone());
                if self.is_subsumed_by(&ca, &cb)? {
                    supers.insert(b.clone());
                }
            }
            out.insert(a.clone(), supers);
        }
        Ok(out)
    }
}

// The whole point of the engine: it must be shareable across scoped
// worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dl::parser::parse_kb;

    fn engine(src: &str) -> QueryEngine {
        QueryEngine::new(&parse_kb(src).unwrap())
    }

    #[test]
    fn shared_queries_from_scoped_threads() {
        let e = engine(
            "Surgeon SubClassOf Doctor
             Doctor SubClassOf Person
             s : Surgeon
             n : Nurse",
        );
        let inds = ["s", "n"];
        let concepts = ["Surgeon", "Doctor", "Person", "Nurse"];
        let parallel: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = inds
                .iter()
                .map(|i| {
                    let e = &e;
                    scope.spawn(move || {
                        concepts
                            .iter()
                            .map(|c| {
                                e.is_instance_of(&IndividualName::new(*i), &Concept::atomic(*c))
                                    .unwrap()
                            })
                            .collect::<Vec<bool>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker"))
                .collect()
        });
        assert_eq!(
            parallel,
            vec![true, true, true, false, false, false, false, true]
        );
    }

    #[test]
    fn consistency_cache_is_shared_with_direct_queries() {
        // On an inconsistent KB the refutation runs once; every direct
        // service short-circuits off the shared cache afterwards.
        let e = engine("a : A and not A");
        assert!(!e.is_consistent().unwrap());
        let after_refutation = e.stats();
        assert!(e
            .is_instance_of(&IndividualName::new("zzz"), &Concept::atomic("Q"))
            .unwrap());
        assert!(e
            .is_subsumed_by(&Concept::atomic("Q"), &Concept::atomic("R"))
            .unwrap());
        assert!(!e.is_concept_satisfiable(&Concept::atomic("Q")).unwrap());
        // No further search happened: the counters did not move.
        assert_eq!(e.stats(), after_refutation);
    }

    #[test]
    fn model_pruning_answers_non_entailments_without_search() {
        let e = engine(
            "Surgeon SubClassOf Doctor
             s : Surgeon
             n : Nurse",
        );
        // Warm the base model.
        assert!(e.is_consistent().unwrap());
        let warm = e.stats();
        // `n : Doctor` is refuted by the base model — no tableau run.
        assert!(!e
            .is_instance_of(&IndividualName::new("n"), &Concept::atomic("Doctor"))
            .unwrap());
        assert_eq!(e.stats(), warm);
        // A real entailment still goes to the tableau and agrees.
        assert!(e
            .is_instance_of(&IndividualName::new("s"), &Concept::atomic("Doctor"))
            .unwrap());
        assert!(e.stats().rule_applications >= warm.rule_applications);
    }

    #[test]
    fn model_pruning_agrees_with_plain_search() {
        let src = "Surgeon SubClassOf Doctor
                   Doctor SubClassOf Person
                   Person SubClassOf hasParent some Person
                   s : Surgeon
                   n : Nurse
                   p : Person";
        let kb = parse_kb(src).unwrap();
        let pruned = QueryEngine::new(&kb);
        let plain = QueryEngine::with_config(
            &kb,
            Config {
                model_pruning: false,
                ..Config::default()
            },
        );
        for i in ["s", "n", "p", "ghost"] {
            for c in ["Surgeon", "Doctor", "Person", "Nurse"] {
                let ind = IndividualName::new(i);
                let con = Concept::atomic(c);
                assert_eq!(
                    pruned.is_instance_of(&ind, &con).unwrap(),
                    plain.is_instance_of(&ind, &con).unwrap(),
                    "disagreement on {i}:{c}"
                );
            }
        }
        for a in ["Surgeon", "Doctor", "Person", "Nurse"] {
            for b in ["Surgeon", "Doctor", "Person", "Nurse"] {
                assert_eq!(
                    pruned
                        .is_subsumed_by(&Concept::atomic(a), &Concept::atomic(b))
                        .unwrap(),
                    plain
                        .is_subsumed_by(&Concept::atomic(a), &Concept::atomic(b))
                        .unwrap(),
                    "disagreement on {a} ⊑ {b}"
                );
            }
        }
    }

    /// Every conjunction of one or two atomic literals over `names`.
    fn literal_conjunctions(names: &[&str]) -> Vec<Concept> {
        let literals: Vec<Concept> = names
            .iter()
            .flat_map(|n| [Concept::atomic(*n), Concept::atomic(*n).not()])
            .collect();
        let mut out = literals.clone();
        for l in &literals {
            for r in &literals {
                out.push(l.clone().and(r.clone()));
            }
        }
        out
    }

    fn plain(kb: &KnowledgeBase, config: &Config) -> QueryEngine {
        QueryEngine::with_config(
            kb,
            Config {
                model_pruning: false,
                ..config.clone()
            },
        )
    }

    #[test]
    fn literal_conjunction_witness_answers_without_search() {
        let e = engine(
            "Surgeon SubClassOf Doctor
             s : Surgeon
             n : Nurse",
        );
        assert!(e.is_consistent().unwrap());
        let warm = e.stats();
        let (nurse, doctor) = (Concept::atomic("Nurse"), Concept::atomic("Doctor"));
        // `n` witnesses `Nurse ⊓ ¬Doctor` and `¬Doctor ⊓ ¬Surgeon`.
        assert!(e
            .is_concept_satisfiable(&nurse.clone().and(doctor.clone().not()))
            .unwrap());
        assert!(e
            .is_concept_satisfiable(&doctor.clone().not().and(Concept::atomic("Surgeon").not()))
            .unwrap());
        assert!(!e.is_subsumed_by(&nurse, &doctor).unwrap());
        assert_eq!(e.stats(), warm);
        // No node is a Surgeon outside Doctor: that one is searched.
        assert!(e
            .is_subsumed_by(&Concept::atomic("Surgeon"), &doctor)
            .unwrap());
        assert!(e.stats().rule_applications > warm.rule_applications);
    }

    #[test]
    fn literal_conjunction_witness_needs_an_exact_model() {
        // `p`'s ancestor chain is cut by blocking, so the base model is
        // not exact; its anonymous `Person ⊓ ¬Doctor` nodes may not
        // denote real elements and must not witness anything.
        let src = "Person SubClassOf hasParent some Person
                   p : Person
                   d : Doctor";
        let kb = parse_kb(src).unwrap();
        let pruned = QueryEngine::new(&kb);
        let model = pruned.base_model().unwrap().expect("consistent");
        assert!(!model.exact, "the base model should have a blocked node");
        let plain = plain(&kb, &Config::default());
        for c in literal_conjunctions(&["Person", "Doctor"]) {
            let before = pruned.stats();
            let verdict = pruned.is_concept_satisfiable(&c).unwrap();
            assert_eq!(verdict, plain.is_concept_satisfiable(&c).unwrap(), "{c:?}");
            assert!(
                pruned.stats().rule_applications > before.rule_applications,
                "the witness fired on a blocked model for {c:?}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Model pruning never changes a satisfiability or subsumption
        /// verdict for literal conjunctions, on random KBs whose base
        /// models are exact or blocked.
        #[test]
        fn literal_conjunction_witness_agrees_with_plain_search(seed in 0..u64::MAX) {
            let kb = ontogen::random::random_kb(&ontogen::random::RandomParams {
                n_concepts: 3,
                n_roles: 2,
                n_individuals: 3,
                n_tbox: 4,
                n_abox: 5,
                max_depth: 1,
                number_restrictions: true,
                inverse_roles: true,
                seed,
            });
            // A limit error skips the KB (base model) or the comparison.
            let config = Config {
                max_rule_applications: 20_000,
                time_budget: Some(std::time::Duration::from_millis(50)),
                ..Config::default()
            };
            let pruned = QueryEngine::with_config(&kb, config.clone());
            if pruned.base_model().is_err() {
                return Ok(());
            }
            let plain = plain(&kb, &config);
            for c in literal_conjunctions(&["C0", "C1", "C2"]) {
                if let (Ok(p), Ok(q)) =
                    (pruned.is_concept_satisfiable(&c), plain.is_concept_satisfiable(&c))
                {
                    proptest::prop_assert_eq!(p, q, "seed {}: {:?}", seed, c);
                }
            }
            for a in ["C0", "C1", "C2"] {
                for b in ["C0", "C1", "C2"] {
                    let (a, b) = (Concept::atomic(a), Concept::atomic(b));
                    if let (Ok(p), Ok(q)) = (pruned.is_subsumed_by(&a, &b), plain.is_subsumed_by(&a, &b)) {
                        proptest::prop_assert_eq!(p, q, "seed {}: {:?} ⊑ {:?}", seed, a, b);
                    }
                }
            }
        }
    }

    #[test]
    fn abox_individuals_outside_the_signature_do_not_panic() {
        // `ensure_node` makes ABox loading total even if an individual
        // escaped the signature pre-pass (defensive: the signature is
        // supposed to cover every ABox subject).
        let kb = KnowledgeBase::from_axioms([
            Axiom::ConceptAssertion(
                IndividualName::new("a"),
                Concept::one_of([IndividualName::new("b")]),
            ),
            Axiom::RoleAssertion(
                dl::RoleName::new("r"),
                IndividualName::new("a"),
                IndividualName::new("b"),
            ),
        ]);
        let e = QueryEngine::new(&kb);
        assert!(e.is_consistent().unwrap());
    }

    #[test]
    fn stats_merge_across_threads() {
        let e = engine("A SubClassOf B\nx : A");
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let e = &e;
                scope.spawn(move || {
                    e.is_instance_of(&IndividualName::new("x"), &Concept::atomic("B"))
                        .unwrap();
                });
            }
        });
        assert!(e.stats().rule_applications > 0);
    }

    #[test]
    fn empty_kb_is_consistent() {
        let r = engine("");
        assert!(r.is_consistent().unwrap());
    }

    #[test]
    fn simple_clash() {
        let r = engine("a : A and not A");
        assert!(!r.is_consistent().unwrap());
    }

    #[test]
    fn tweety_kb_is_inconsistent() {
        let r = engine(
            "Bird and (hasWing some Wing) SubClassOf Fly
             Penguin SubClassOf Bird
             Penguin SubClassOf hasWing some Wing
             Penguin SubClassOf not Fly
             tweety : Bird
             tweety : Penguin
             w : Wing
             hasWing(tweety, w)",
        );
        assert!(!r.is_consistent().unwrap());
    }

    #[test]
    fn subsumption_via_tbox() {
        let r = engine(
            "Surgeon SubClassOf Doctor
             Doctor SubClassOf Person",
        );
        assert!(r
            .is_subsumed_by(&Concept::atomic("Surgeon"), &Concept::atomic("Person"))
            .unwrap());
        assert!(!r
            .is_subsumed_by(&Concept::atomic("Person"), &Concept::atomic("Surgeon"))
            .unwrap());
    }

    #[test]
    fn instance_checking_through_exists() {
        let r = engine(
            "hasPatient some Patient SubClassOf Doctor
             Patient(x, y) # dummy comment form not used
             mary : Patient
             hasPatient(bill, mary)",
        );
        assert!(r
            .is_instance_of(&IndividualName::new("bill"), &Concept::atomic("Doctor"))
            .unwrap());
        assert!(!r
            .is_instance_of(&IndividualName::new("mary"), &Concept::atomic("Doctor"))
            .unwrap());
    }

    #[test]
    fn existential_tbox_cycle_terminates_by_blocking() {
        // Person ⊑ ∃hasParent.Person — infinite model, blocking must kick in.
        let r = engine(
            "Person SubClassOf hasParent some Person
             p : Person",
        );
        assert!(r.is_consistent().unwrap());
    }

    #[test]
    fn inverse_roles_propagate() {
        // ∀hasChild⁻.Person at the child means every parent is a Person...
        // direct check: hasChild(a, b), b : ∀(inverse hasChild).A ⟹ a : A.
        let r = engine(
            "hasChild(a, b)
             b : inverse hasChild only A",
        );
        assert!(r
            .is_instance_of(&IndividualName::new("a"), &Concept::atomic("A"))
            .unwrap());
    }

    #[test]
    fn transitivity_propagates_forall() {
        let r = engine(
            "Transitive(anc)
             anc(a, b)
             anc(b, c)
             a : anc only X",
        );
        assert!(r
            .is_instance_of(&IndividualName::new("c"), &Concept::atomic("X"))
            .unwrap());
    }

    #[test]
    fn role_hierarchy_in_queries() {
        let r = engine(
            "hasSon SubRoleOf hasChild
             hasSon(a, b)
             a : hasChild only Human",
        );
        assert!(r
            .is_instance_of(&IndividualName::new("b"), &Concept::atomic("Human"))
            .unwrap());
        assert!(r
            .entails(&Axiom::RoleInclusion(
                RoleExpr::named("hasSon"),
                RoleExpr::named("hasChild"),
            ))
            .unwrap());
        assert!(!r
            .entails(&Axiom::RoleInclusion(
                RoleExpr::named("hasChild"),
                RoleExpr::named("hasSon"),
            ))
            .unwrap());
    }

    #[test]
    fn number_restrictions_merge_and_clash() {
        // a has two children asserted distinct but ≤1 child: inconsistent.
        let r = engine(
            "hasChild(a, b)
             hasChild(a, c)
             b != c
             a : hasChild max 1",
        );
        assert!(!r.is_consistent().unwrap());
        // Without distinctness the children merge: consistent.
        let r = engine(
            "hasChild(a, b)
             hasChild(a, c)
             a : hasChild max 1",
        );
        assert!(r.is_consistent().unwrap());
        // And the merge makes b = c entailed.
        let r = engine(
            "hasChild(a, b)
             hasChild(a, c)
             a : hasChild max 1",
        );
        assert!(r
            .entails(&Axiom::SameIndividual(
                IndividualName::new("b"),
                IndividualName::new("c"),
            ))
            .unwrap());
    }

    #[test]
    fn at_least_generates() {
        let r = engine("a : hasChild min 3 and hasChild max 2");
        assert!(!r.is_consistent().unwrap());
        let r = engine("a : hasChild min 2 and hasChild max 2");
        assert!(r.is_consistent().unwrap());
    }

    #[test]
    fn nominals_merge() {
        let r = engine(
            "a : {b}
             a : A",
        );
        assert!(r.is_consistent().unwrap());
        assert!(r
            .is_instance_of(&IndividualName::new("b"), &Concept::atomic("A"))
            .unwrap());
        // But a : {b} with a ≠ b clashes.
        let r = engine(
            "a : {b}
             a != b",
        );
        assert!(!r.is_consistent().unwrap());
    }

    #[test]
    fn multi_element_nominal_branches() {
        let r = engine(
            "x : {a, b}
             a : A
             b : B
             x : not A",
        );
        // x must be b.
        assert!(r.is_consistent().unwrap());
        assert!(r
            .entails(&Axiom::SameIndividual(
                IndividualName::new("x"),
                IndividualName::new("b"),
            ))
            .unwrap());
    }

    #[test]
    fn same_and_different_individuals() {
        let r = engine(
            "a = b
             b = c
             a : A",
        );
        assert!(r
            .is_instance_of(&IndividualName::new("c"), &Concept::atomic("A"))
            .unwrap());
        let r = engine(
            "a = b
             a != b",
        );
        assert!(!r.is_consistent().unwrap());
    }

    #[test]
    fn datatype_reasoning_end_to_end() {
        let r = engine(
            "DataRole: hasAge
             Minor EquivalentTo hasAge some integer[0..17]
             hasAge(kid, 12)
             kid : hasAge max 1",
        );
        assert!(r.is_consistent().unwrap());
        assert!(r
            .is_instance_of(&IndividualName::new("kid"), &Concept::atomic("Minor"))
            .unwrap());
        // Age both 12 and (via Minor-membership assertion of an adult
        // range) impossible:
        let r = engine(
            "DataRole: hasAge
             hasAge(kid, 12)
             kid : hasAge max 1
             kid : hasAge some integer[18..]",
        );
        assert!(!r.is_consistent().unwrap());
    }

    #[test]
    fn entails_role_and_data_assertions() {
        let r = engine("r(a, b)\nage(a, 4)");
        assert!(r
            .entails(&Axiom::RoleAssertion(
                dl::RoleName::new("r"),
                IndividualName::new("a"),
                IndividualName::new("b"),
            ))
            .unwrap());
        assert!(!r
            .entails(&Axiom::RoleAssertion(
                dl::RoleName::new("r"),
                IndividualName::new("b"),
                IndividualName::new("a"),
            ))
            .unwrap());
        assert!(r
            .entails(&Axiom::DataAssertion(
                dl::DataRoleName::new("age"),
                IndividualName::new("a"),
                dl::DataValue::Integer(4),
            ))
            .unwrap());
        assert!(!r
            .entails(&Axiom::DataAssertion(
                dl::DataRoleName::new("age"),
                IndividualName::new("a"),
                dl::DataValue::Integer(5),
            ))
            .unwrap());
    }

    #[test]
    fn entails_transitivity_only_when_declared() {
        let r = engine("Transitive(anc)");
        assert!(r
            .entails(&Axiom::Transitive(dl::RoleName::new("anc")))
            .unwrap());
        assert!(!r
            .entails(&Axiom::Transitive(dl::RoleName::new("other")))
            .unwrap());
    }

    #[test]
    fn inconsistent_kb_entails_everything() {
        let r = engine("a : A and not A");
        assert!(r
            .is_instance_of(&IndividualName::new("zzz"), &Concept::atomic("Q"))
            .unwrap_or(true));
        assert!(r
            .entails(&Axiom::ConceptAssertion(
                IndividualName::new("unrelated"),
                Concept::atomic("Patient"),
            ))
            .unwrap());
    }

    #[test]
    fn classification_orders_hierarchy() {
        let r = engine(
            "Surgeon SubClassOf Doctor
             Doctor SubClassOf Person
             Nurse SubClassOf Person",
        );
        let sig: BTreeSet<ConceptName> = ["Surgeon", "Doctor", "Person", "Nurse"]
            .iter()
            .map(ConceptName::new)
            .collect();
        let taxonomy = r.classify(&sig).unwrap();
        assert!(taxonomy[&ConceptName::new("Surgeon")].contains(&ConceptName::new("Person")));
        assert!(taxonomy[&ConceptName::new("Surgeon")].contains(&ConceptName::new("Surgeon")));
        assert!(!taxonomy[&ConceptName::new("Nurse")].contains(&ConceptName::new("Doctor")));
    }

    #[test]
    fn concept_satisfiability_with_global_tbox() {
        let r = engine("A SubClassOf not A");
        // A ⊑ ¬A makes A unsatisfiable but the KB consistent.
        assert!(r.is_consistent().unwrap());
        assert!(!r.is_concept_satisfiable(&Concept::atomic("A")).unwrap());
        assert!(r.is_concept_satisfiable(&Concept::atomic("B")).unwrap());
    }

    #[test]
    fn absorption_off_gives_same_answers() {
        let src = "Surgeon SubClassOf Doctor
                   Doctor SubClassOf Person
                   s : Surgeon";
        let kb = parse_kb(src).unwrap();
        let with = QueryEngine::with_config(&kb, Config::default());
        let without = QueryEngine::with_config(
            &kb,
            Config {
                absorption: false,
                ..Config::default()
            },
        );
        for (a, c) in [("s", "Person"), ("s", "Doctor"), ("s", "Nurse")] {
            assert_eq!(
                with.is_instance_of(&IndividualName::new(a), &Concept::atomic(c))
                    .unwrap(),
                without
                    .is_instance_of(&IndividualName::new(a), &Concept::atomic(c))
                    .unwrap(),
                "disagreement on {a}:{c}"
            );
        }
    }

    #[test]
    fn semantic_branching_gives_same_answers() {
        let src = "a : (A or B) and (A or not B) and (not A or B) and not B";
        let kb = parse_kb(src).unwrap();
        let plain = QueryEngine::with_config(&kb, Config::default());
        let semantic = QueryEngine::with_config(
            &kb,
            Config {
                semantic_branching: true,
                ..Config::default()
            },
        );
        assert_eq!(
            plain.is_consistent().unwrap(),
            semantic.is_consistent().unwrap()
        );
    }

    #[test]
    fn empty_nominal_is_bottom() {
        let kb = KnowledgeBase::from_axioms([Axiom::ConceptAssertion(
            IndividualName::new("a"),
            Concept::one_of([]),
        )]);
        let r = QueryEngine::new(&kb);
        assert!(!r.is_consistent().unwrap());
    }

    #[test]
    fn negated_nominal_distinctness() {
        // a : ¬{b} is exactly a ≠ b.
        let r = engine("a : not {b}");
        assert!(r.is_consistent().unwrap());
        assert!(r
            .entails(&Axiom::DifferentIndividuals(
                IndividualName::new("a"),
                IndividualName::new("b"),
            ))
            .unwrap());
        let r = engine("a : not {b}\na = b");
        assert!(!r.is_consistent().unwrap());
    }

    #[test]
    fn find_model_none_on_inconsistent_kb() {
        let r = engine("x : A and not A");
        assert!(r.find_model().unwrap().is_none());
    }

    #[test]
    fn find_model_extracts_individuals() {
        let r = engine("r(a, b)\na : A");
        let m = r.find_model().unwrap().expect("satisfiable");
        assert_eq!(m.blocked_nodes, 0);
        assert!(m.individual(&IndividualName::new("a")).is_some());
        assert!(m.concept_nonempty(&ConceptName::new("A")));
    }

    #[test]
    fn resource_limits_surface_as_errors() {
        let kb = parse_kb(
            "Person SubClassOf hasParent some Person
             p : Person",
        )
        .unwrap();
        let r = QueryEngine::with_config(
            &kb,
            Config {
                max_nodes: 2,
                ..Config::default()
            },
        );
        assert!(matches!(
            r.is_consistent(),
            Err(ReasonerError::NodeLimit(2))
        ));
    }

    #[test]
    fn resource_limit_errors_are_not_cached() {
        // A failed consistency check must not poison the cache: retrying
        // under the same engine still surfaces the error (rather than a
        // stale verdict), and a fresh engine with a real budget answers.
        let kb = parse_kb(
            "Person SubClassOf hasParent some Person
             p : Person",
        )
        .unwrap();
        let r = QueryEngine::with_config(
            &kb,
            Config {
                max_nodes: 2,
                ..Config::default()
            },
        );
        assert!(r.is_consistent().is_err());
        assert!(r.is_consistent().is_err());
    }

    #[test]
    fn pre_raised_config_token_cancels_before_searching() {
        use std::sync::atomic::AtomicBool;
        let kb = parse_kb(
            "Person SubClassOf hasParent some Person
             p : Person",
        )
        .unwrap();
        let _guard = crate::interrupt::install(Arc::new(AtomicBool::new(true)), None);
        let r = QueryEngine::new(&kb);
        assert!(matches!(r.is_consistent(), Err(ReasonerError::Cancelled)));
        assert!(
            r.stats().cancelled >= 1,
            "cancellation must be counted even though the search errored"
        );
        // Like the resource limits, cancellation is not an answer and
        // must never be cached as one.
        assert!(matches!(r.is_consistent(), Err(ReasonerError::Cancelled)));
    }

    #[test]
    fn thread_local_token_cancels_a_running_search() {
        use std::sync::atomic::AtomicBool;
        // Give the diverging search no other way out within the test's
        // patience and raise the token from a second thread.
        let kb = diverging_chain_kb();
        let token = Arc::new(AtomicBool::new(false));
        let raiser = {
            let token = Arc::clone(&token);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                token.store(true, Ordering::Relaxed);
            })
        };
        let _guard = crate::interrupt::install(Arc::clone(&token), None);
        let started = std::time::Instant::now();
        let r = QueryEngine::with_config(
            &kb,
            Config {
                max_nodes: usize::MAX,
                max_rule_applications: u64::MAX,
                time_budget: Some(std::time::Duration::from_secs(30)),
                ..Config::default()
            },
        );
        let verdict = r.is_consistent();
        raiser.join().expect("raiser thread");
        assert!(matches!(verdict, Err(ReasonerError::Cancelled)));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "cancellation must preempt the 30s budget"
        );
    }

    /// The KB of the cancellation tests: an unbounded ∃-chain with
    /// level-distinct concepts, which defeats pairwise blocking long
    /// enough that only an external signal (or a limit) stops the search.
    fn diverging_chain_kb() -> KnowledgeBase {
        let mut src = String::new();
        for i in 0..64 {
            src.push_str(&format!("L{i} SubClassOf r some L{}\n", i + 1));
            src.push_str(&format!("L{i} SubClassOf s some L{}\n", i + 1));
        }
        src.push_str("h : L0\n");
        parse_kb(&src).unwrap()
    }

    #[test]
    fn installed_budget_stops_a_search_with_that_budget() {
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;
        let budget = Duration::from_millis(30);
        let _guard = crate::interrupt::install(Arc::new(AtomicBool::new(false)), Some(budget));
        let started = std::time::Instant::now();
        let r = QueryEngine::with_config(
            &diverging_chain_kb(),
            Config {
                max_nodes: usize::MAX,
                max_rule_applications: u64::MAX,
                time_budget: Some(Duration::from_secs(30)),
                ..Config::default()
            },
        );
        // The earlier deadline binds and reports its own budget.
        assert_eq!(r.is_consistent(), Err(ReasonerError::TimeBudget(budget)));
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!(r.stats().cancelled, 0, "a deadline is not a cancellation");
    }
}
