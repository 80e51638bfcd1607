//! Paraconsistent reasoning services for SHOIN(D)4 over an immutable
//! knowledge base, executed by the classical tableau on the induced KB
//! `K̄` (Theorem 6 / Corollary 7).
//!
//! The query vocabulary deliberately mirrors the paper's phrasing:
//! "is there any information indicating …?" A four-valued KB answers a
//! membership question with one of the four truth values:
//!
//! * `t` — positive information only;
//! * `f` — negative information only;
//! * `⊤` — both (the KB is contradictory *about this particular fact*);
//! * `⊥` — no information either way.
//!
//! A [`Reasoner4`] is the query pipeline it shares with
//! [`crate::Session`] (told index → entailment cache → module → Horn →
//! tableau) over one transformed KB, plus the parallel
//! [`Reasoner4::query_batch`] and its worker count ([`QueryOptions`]).
//! Every service takes `&self`, so a reasoner can be borrowed by any
//! number of `std::thread::scope` workers at once.

use crate::kb4::{Axiom4, KnowledgeBase4};
use crate::pipeline::Pipeline;
use crate::transform;
use dl::kb::KnowledgeBase;
use dl::name::{ConceptName, IndividualName, RoleName};
use dl::Concept;
use fourval::TruthValue;
use tableau::{Config, QueryEngine, ReasonerError, Stats};

/// How the batch drivers fan out (orthogonal to the tableau
/// [`Config`]).
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Worker threads for [`Reasoner4::query_batch`] and the batch
    /// drivers in [`crate::analysis`]. `0` (the default) means "ask the
    /// OS" (`std::thread::available_parallelism`).
    pub jobs: usize,
}

impl QueryOptions {
    /// The effective worker count (resolving `jobs = 0`).
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.jobs
        }
    }
}

/// A reasoner over a SHOIN(D)4 knowledge base.
///
/// Construction transforms the KB once (Definitions 5–7). Without
/// `Config::module_scoping` every probe the Horn rung does not settle
/// runs on one [`QueryEngine`] over all of `K̄`; with it, each probe
/// runs on an engine over its own extracted module.
pub struct Reasoner4 {
    induced: KnowledgeBase,
    opts: QueryOptions,
    pipeline: Pipeline,
}

impl Reasoner4 {
    /// Build with the default tableau configuration.
    pub fn new(kb4: &KnowledgeBase4) -> Self {
        Self::with_config(kb4, Config::default())
    }

    /// Build with an explicit tableau configuration.
    pub fn with_config(kb4: &KnowledgeBase4, config: Config) -> Self {
        Self::with_options(kb4, config, QueryOptions::default())
    }

    /// Build with an explicit tableau configuration and batch worker
    /// count.
    pub fn with_options(kb4: &KnowledgeBase4, config: Config, opts: QueryOptions) -> Self {
        let induced = transform::transform_kb(kb4);
        let full =
            (!config.module_scoping).then(|| QueryEngine::with_config(&induced, config.clone()));
        let pipeline = Pipeline::new(kb4, config, full);
        Reasoner4 {
            induced,
            opts,
            pipeline,
        }
    }

    /// The classical induced KB `K̄` (useful for inspection and for
    /// feeding other OWL DL reasoners).
    pub fn induced_kb(&self) -> &KnowledgeBase {
        &self.induced
    }

    /// Active batch options.
    pub fn options(&self) -> &QueryOptions {
        &self.opts
    }

    /// Accumulated statistics: tableau search counters of every engine
    /// plus the pipeline's module, Horn and cache counters.
    pub fn stats(&self) -> Stats {
        self.pipeline.stats()
    }

    /// The told-index verdict for `(a, c)`: `(certain positive, certain
    /// negative)`. Exposed so tests can check every told claim against
    /// the tableau.
    pub fn told_verdict(&self, a: &IndividualName, c: &ConceptName) -> (bool, bool) {
        self.pipeline.told_verdict(a, c)
    }

    /// Is the four-valued KB satisfiable? (Theorem 6: iff `K̄` is.)
    ///
    /// Unlike the classical case this is rarely `false`: only constructs
    /// with classical behaviour (nominals, number restrictions, `⊥`,
    /// distinctness) can make a SHOIN(D)4 KB unsatisfiable.
    pub fn is_satisfiable(&self) -> Result<bool, ReasonerError> {
        self.pipeline.is_satisfiable()
    }

    /// Is there information supporting `a : C`? (`K̄ ⊨ ā : C̄`.)
    pub fn has_positive_info(
        &self,
        a: &IndividualName,
        c: &Concept,
    ) -> Result<bool, ReasonerError> {
        self.pipeline.membership_info(a, c, false)
    }

    /// Is there information *against* `a : C`? (`K̄ ⊨ ā : ¬C̄`, i.e. the
    /// transformed negation.)
    pub fn has_negative_info(
        &self,
        a: &IndividualName,
        c: &Concept,
    ) -> Result<bool, ReasonerError> {
        self.pipeline.membership_info(a, c, true)
    }

    /// The four-valued answer to "what does the KB know about `a : C`?",
    /// combining the two entailment queries.
    pub fn query(&self, a: &IndividualName, c: &Concept) -> Result<TruthValue, ReasonerError> {
        self.pipeline.query(a, c)
    }

    /// Answer a batch of membership queries, fanning out across
    /// `options().jobs` scoped worker threads (index-striped). Results
    /// come back in input order and are bit-identical to running
    /// [`Reasoner4::query`] sequentially; on multiple failures the error
    /// of the lowest-indexed query is reported.
    pub fn query_batch(
        &self,
        queries: &[(IndividualName, Concept)],
    ) -> Result<Vec<TruthValue>, ReasonerError> {
        let jobs = self.opts.effective_jobs().min(queries.len().max(1));
        if jobs <= 1 {
            return queries.iter().map(|(a, c)| self.query(a, c)).collect();
        }
        let indexed: Vec<(usize, Result<TruthValue, ReasonerError>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..jobs)
                    .map(|w| {
                        scope.spawn(move || {
                            queries
                                .iter()
                                .enumerate()
                                .skip(w)
                                .step_by(jobs)
                                .map(|(i, (a, c))| (i, self.query(a, c)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("query worker panicked"))
                    .collect()
            });
        let mut out = vec![TruthValue::Neither; queries.len()];
        let mut first_err: Option<(usize, ReasonerError)> = None;
        for (i, r) in indexed {
            match r {
                Ok(v) => out[i] = v,
                Err(e) => {
                    if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_err = Some((i, e));
                    }
                }
            }
        }
        match first_err {
            Some((_, e)) => Err(e),
            None => Ok(out),
        }
    }

    /// Is there information supporting `R(a, b)`? (`K̄ ⊨ R⁺(a,b)`.)
    pub fn has_positive_role_info(
        &self,
        r: &RoleName,
        a: &IndividualName,
        b: &IndividualName,
    ) -> Result<bool, ReasonerError> {
        self.pipeline.role_info(r, a, b, false)
    }

    /// Is there information against `R(a, b)`?
    /// (`K̄ ⊨ a : ∀R⁼.¬{b}`, i.e. `(a,b) ∉ R⁼ = proj⁻(R)`.)
    pub fn has_negative_role_info(
        &self,
        r: &RoleName,
        a: &IndividualName,
        b: &IndividualName,
    ) -> Result<bool, ReasonerError> {
        self.pipeline.role_info(r, a, b, true)
    }

    /// The four-valued answer about a role membership.
    pub fn query_role(
        &self,
        r: &RoleName,
        a: &IndividualName,
        b: &IndividualName,
    ) -> Result<TruthValue, ReasonerError> {
        self.pipeline.query_role(r, a, b)
    }

    /// Does the KB four-valued-entail the axiom? Inclusion axioms go
    /// through Corollary 7; everything else reduces to entailment over
    /// `K̄`.
    pub fn entails(&self, ax: &Axiom4) -> Result<bool, ReasonerError> {
        self.pipeline.entails(ax)
    }
}

// Batch fan-out borrows the reasoner from scoped threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Reasoner4>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inclusion::InclusionKind;
    use crate::parse_kb4;
    use dl::axiom::RoleExpr;

    fn r4(src: &str) -> Reasoner4 {
        Reasoner4::new(&parse_kb4(src).unwrap())
    }

    fn ind(s: &str) -> IndividualName {
        IndividualName::new(s)
    }

    #[test]
    fn example1_paraconsistent_instance_query() {
        let r = r4("hasPatient some Patient SubClassOf Doctor
             john : Doctor
             john : not Doctor
             mary : Patient
             hasPatient(bill, mary)");
        assert!(r.is_satisfiable().unwrap());
        let doctor = Concept::atomic("Doctor");
        // Positive info that bill is a doctor, no negative info.
        assert_eq!(r.query(&ind("bill"), &doctor).unwrap(), TruthValue::True);
        // John is the contradiction.
        assert_eq!(r.query(&ind("john"), &doctor).unwrap(), TruthValue::Both);
        // Mary: nothing either way.
        assert_eq!(r.query(&ind("mary"), &doctor).unwrap(), TruthValue::Neither);
    }

    #[test]
    fn example2_access_control() {
        let r = r4("SurgicalTeam SubClassOf not ReadPatientRecordTeam
             UrgencyTeam SubClassOf ReadPatientRecordTeam
             john : SurgicalTeam
             john : UrgencyTeam");
        assert!(r.is_satisfiable().unwrap());
        let read = Concept::atomic("ReadPatientRecordTeam");
        assert_eq!(r.query(&ind("john"), &read).unwrap(), TruthValue::Both);
        // Irrelevant facts stay unknown — no explosion.
        assert_eq!(
            r.query(&ind("john"), &Concept::atomic("Patient")).unwrap(),
            TruthValue::Neither
        );
    }

    #[test]
    fn example3_and_5_penguin() {
        let r = r4("Bird and (hasWing some Wing) MaterialSubClassOf Fly
             Penguin SubClassOf Bird
             Penguin SubClassOf hasWing some Wing
             Penguin SubClassOf not Fly
             tweety : Bird
             tweety : Penguin
             w : Wing
             hasWing(tweety, w)");
        assert!(r.is_satisfiable().unwrap());
        let fly = Concept::atomic("Fly");
        // Example 5: Fly⁻(tweety) holds, Fly⁺(tweety) does not.
        assert!(r.has_negative_info(&ind("tweety"), &fly).unwrap());
        assert!(!r.has_positive_info(&ind("tweety"), &fly).unwrap());
        assert_eq!(r.query(&ind("tweety"), &fly).unwrap(), TruthValue::False);
    }

    #[test]
    fn example4_adoption() {
        let r = r4("hasChild min 1 SubClassOf Parent
             Parent MaterialSubClassOf Married
             hasChild(smith, kate)
             smith : not Married");
        assert!(r.is_satisfiable().unwrap());
        // Negative info about marriage survives.
        assert!(r
            .has_negative_info(&ind("smith"), &Concept::atomic("Married"))
            .unwrap());
        // Positive info that smith is a parent.
        assert!(r
            .has_positive_info(&ind("smith"), &Concept::atomic("Parent"))
            .unwrap());
    }

    #[test]
    fn internal_inclusion_does_not_contrapose() {
        // Bird ⊏ Fly plus ¬Fly(x) must NOT give ¬Bird(x).
        let r = r4("Bird SubClassOf Fly
             x : not Fly");
        assert!(!r
            .has_negative_info(&ind("x"), &Concept::atomic("Bird"))
            .unwrap());
        assert_eq!(
            r.query(&ind("x"), &Concept::atomic("Bird")).unwrap(),
            TruthValue::Neither
        );
    }

    #[test]
    fn strong_inclusion_contraposes() {
        let r = r4("Bird StrongSubClassOf Fly
             x : not Fly");
        assert!(r
            .has_negative_info(&ind("x"), &Concept::atomic("Bird"))
            .unwrap());
        assert_eq!(
            r.query(&ind("x"), &Concept::atomic("Bird")).unwrap(),
            TruthValue::False
        );
    }

    #[test]
    fn material_inclusion_admits_exceptions() {
        // Bird ↦ Fly with a contradicted bird: tweety escapes the rule.
        let r = r4("Bird MaterialSubClassOf Fly
             tweety : Bird
             tweety : not Bird");
        assert!(!r
            .has_positive_info(&ind("tweety"), &Concept::atomic("Fly"))
            .unwrap());
        // An uncontradicted bird does fly.
        let r = r4("Bird MaterialSubClassOf Fly
             robin : Bird");
        // Material: everything not provably ¬Bird is Fly — robin is not
        // provably ¬Bird... note ↦ quantifies over Δ∖proj⁻(Bird), and in
        // some models robin ∈ proj⁻(Bird), so positive info is NOT
        // entailed for the material reading alone. The paper's Example 3
        // pairs ↦ with explicit positive premises; what IS entailed is
        // the global reading:
        assert!(r
            .entails(&Axiom4::ConceptInclusion(
                InclusionKind::Material,
                Concept::atomic("Bird"),
                Concept::atomic("Fly"),
            ))
            .unwrap());
    }

    #[test]
    fn corollary7_inclusion_entailment() {
        let r = r4("A SubClassOf B
             B SubClassOf C");
        // Internal inclusions compose.
        assert!(r
            .entails(&Axiom4::ConceptInclusion(
                InclusionKind::Internal,
                Concept::atomic("A"),
                Concept::atomic("C"),
            ))
            .unwrap());
        assert!(!r
            .entails(&Axiom4::ConceptInclusion(
                InclusionKind::Internal,
                Concept::atomic("C"),
                Concept::atomic("A"),
            ))
            .unwrap());
        // Strong is NOT entailed by internal premises (no contraposition
        // information).
        assert!(!r
            .entails(&Axiom4::ConceptInclusion(
                InclusionKind::Strong,
                Concept::atomic("A"),
                Concept::atomic("C"),
            ))
            .unwrap());
    }

    #[test]
    fn strong_premises_entail_strong_conclusions() {
        let r = r4("A StrongSubClassOf B
             B StrongSubClassOf C");
        assert!(r
            .entails(&Axiom4::ConceptInclusion(
                InclusionKind::Strong,
                Concept::atomic("A"),
                Concept::atomic("C"),
            ))
            .unwrap());
        // Strong implies internal.
        assert!(r
            .entails(&Axiom4::ConceptInclusion(
                InclusionKind::Internal,
                Concept::atomic("A"),
                Concept::atomic("C"),
            ))
            .unwrap());
    }

    #[test]
    fn role_queries_four_valued() {
        let r = r4("r(a, b)
             not r(c, d)");
        let role = RoleName::new("r");
        assert_eq!(
            r.query_role(&role, &ind("a"), &ind("b")).unwrap(),
            TruthValue::True
        );
        assert_eq!(
            r.query_role(&role, &ind("c"), &ind("d")).unwrap(),
            TruthValue::False
        );
        assert_eq!(
            r.query_role(&role, &ind("a"), &ind("d")).unwrap(),
            TruthValue::Neither
        );
        // Contradictory role information.
        let r = r4("r(a, b)
             not r(a, b)");
        assert!(r.is_satisfiable().unwrap());
        assert_eq!(
            r.query_role(&RoleName::new("r"), &ind("a"), &ind("b"))
                .unwrap(),
            TruthValue::Both
        );
    }

    #[test]
    fn classical_contradiction_keeps_other_inferences() {
        // The headline robustness claim, end to end through the tableau.
        let r = r4("A SubClassOf B
             x : A
             x : not A
             y : A");
        assert!(r.is_satisfiable().unwrap());
        assert_eq!(
            r.query(&ind("y"), &Concept::atomic("B")).unwrap(),
            TruthValue::True
        );
        assert_eq!(
            r.query(&ind("x"), &Concept::atomic("A")).unwrap(),
            TruthValue::Both
        );
        // x : B still follows (internal inclusion fires on proj⁺).
        assert!(r
            .has_positive_info(&ind("x"), &Concept::atomic("B"))
            .unwrap());
    }

    #[test]
    fn role_inclusion_entailment_via_transformation() {
        let r = r4("r SubRoleOf s");
        assert!(r
            .entails(&Axiom4::RoleInclusion(
                InclusionKind::Internal,
                RoleExpr::named("r"),
                RoleExpr::named("s"),
            ))
            .unwrap());
        assert!(!r
            .entails(&Axiom4::RoleInclusion(
                InclusionKind::Internal,
                RoleExpr::named("s"),
                RoleExpr::named("r"),
            ))
            .unwrap());
    }

    #[test]
    fn unsatisfiable_four_valued_kb_exists() {
        // Nominal machinery keeps its classical bite: a : {b}, a ≠ b.
        let r = r4("a : {b}
             a != b");
        assert!(!r.is_satisfiable().unwrap());
    }

    #[test]
    fn induced_kb_is_inspectable() {
        let r = r4("A SubClassOf B");
        let printed = dl::printer::print_kb(r.induced_kb());
        assert!(printed.contains("A+ SubClassOf B+"));
    }

    #[test]
    fn query_batch_matches_sequential_queries() {
        let src = "A SubClassOf B
             A SubClassOf not C
             x : A
             x : not A
             y : A
             z : C";
        let kb = parse_kb4(src).unwrap();
        let parallel = Reasoner4::with_options(&kb, Config::default(), QueryOptions { jobs: 4 });
        let sequential = Reasoner4::with_options(&kb, Config::default(), QueryOptions { jobs: 1 });
        let oracle = Oracle::new(&kb);
        let mut queries = Vec::new();
        for i in ["x", "y", "z", "ghost"] {
            for c in ["A", "B", "C", "D"] {
                queries.push((ind(i), Concept::atomic(c)));
            }
        }
        let fast = parallel.query_batch(&queries).unwrap();
        let slow = sequential.query_batch(&queries).unwrap();
        assert_eq!(fast, slow);
        // And both agree with one-at-a-time queries and with the tableau
        // over `K̄`.
        for ((a, c), v) in queries.iter().zip(&fast) {
            assert_eq!(
                sequential.query(a, c).unwrap(),
                *v,
                "disagreement on {a:?}:{c:?}"
            );
            assert_eq!(oracle.query(a, c), *v, "oracle disagrees on {a:?}:{c:?}");
        }
    }

    #[test]
    fn entailment_cache_answers_repeats_without_search() {
        let r = r4("A SubClassOf B
             y : A");
        let b = Concept::atomic("B");
        // "ghost : B" has no told certificate, so it exercises cache+engine.
        assert!(!r.has_positive_info(&ind("ghost"), &b).unwrap());
        let after_first = r.stats();
        assert_eq!(after_first.entailment_cache_misses, 1);
        assert!(!r.has_positive_info(&ind("ghost"), &b).unwrap());
        let after_second = r.stats();
        // The repeat is a pure cache hit: no new search work of any kind.
        assert_eq!(after_second.entailment_cache_hits, 1);
        assert_eq!(
            Stats {
                entailment_cache_hits: after_first.entailment_cache_hits,
                ..after_second
            },
            after_first,
            "second identical query searched"
        );
    }

    /// Corollary 7 straight over one unscoped tableau on `K̄`, with no
    /// rung in front of it: the reference every rung must agree with.
    struct Oracle(QueryEngine);

    impl Oracle {
        fn new(kb: &KnowledgeBase4) -> Oracle {
            Oracle(QueryEngine::new(&transform::transform_kb(kb)))
        }

        fn query(&self, a: &IndividualName, c: &Concept) -> TruthValue {
            TruthValue::from_bits(
                self.0
                    .is_instance_of(a, &transform::transform_concept(c))
                    .unwrap(),
                self.0
                    .is_instance_of(a, &transform::transform_neg_concept(c))
                    .unwrap(),
            )
        }

        /// `R⁺(a, b)` for, `a : ∀R⁼.¬{b}` against.
        fn query_role(&self, r: &RoleName, a: &IndividualName, b: &IndividualName) -> TruthValue {
            let plus = dl::axiom::Axiom::RoleAssertion(
                r.with_suffix(transform::POS_SUFFIX),
                a.clone(),
                b.clone(),
            );
            let not_b = Concept::all(
                RoleExpr::named(r.with_suffix(transform::EQ_SUFFIX)),
                Concept::one_of([b.clone()]).not(),
            );
            TruthValue::from_bits(
                self.0.entails(&plus).unwrap(),
                self.0.is_instance_of(a, &not_b).unwrap(),
            )
        }

        /// The unsatisfiability tests of Corollary 7 for atomic `c`, `d`.
        fn entails_inclusion(&self, kind: InclusionKind, c: &Concept, d: &Concept) -> bool {
            let (pos, neg) = (
                transform::transform_concept,
                transform::transform_neg_concept,
            );
            let unsat = |t: Concept| !self.0.is_concept_satisfiable(&t).unwrap();
            match kind {
                InclusionKind::Material => unsat(neg(c).not().and(pos(d).not())),
                InclusionKind::Internal => unsat(pos(c).and(pos(d).not())),
                InclusionKind::Strong => {
                    unsat(pos(c).and(pos(d).not())) && unsat(neg(d).and(neg(c).not()))
                }
            }
        }
    }

    #[test]
    fn told_index_skips_the_tableau() {
        let src = "A SubClassOf B
             B SubClassOf C
             y : A";
        let r = r4(src);
        // Chain membership is told-certain: no tableau work at all.
        assert!(r
            .has_positive_info(&ind("y"), &Concept::atomic("C"))
            .unwrap());
        assert_eq!(r.stats(), Stats::default());
        // And the claim is honest: the tableau over `K̄` agrees.
        let oracle = Oracle::new(&parse_kb4(src).unwrap());
        assert_eq!(
            oracle.query(&ind("y"), &Concept::atomic("C")),
            TruthValue::True
        );
    }

    #[test]
    fn module_scoping_preserves_verdicts_and_counts_modules() {
        let src = "A SubClassOf B
             x : A
             x : not A
             C SubClassOf D
             y : C
             r(x, y)
             not r(y, x)";
        let kb = parse_kb4(src).unwrap();
        let scoped = Reasoner4::with_config(
            &kb,
            Config {
                module_scoping: true,
                ..Config::default()
            },
        );
        let oracle = Oracle::new(&kb);
        assert_eq!(
            scoped.is_satisfiable().unwrap(),
            oracle.0.is_consistent().unwrap()
        );
        for i in ["x", "y", "ghost"] {
            for c in ["A", "B", "C", "D"] {
                let (i, c) = (ind(i), Concept::atomic(c));
                assert_eq!(
                    scoped.query(&i, &c).unwrap(),
                    oracle.query(&i, &c),
                    "verdict differs for {i:?}:{c:?}"
                );
            }
        }
        let role = RoleName::new("r");
        for (a, b) in [("x", "y"), ("y", "x"), ("x", "x")] {
            assert_eq!(
                scoped.query_role(&role, &ind(a), &ind(b)).unwrap(),
                oracle.query_role(&role, &ind(a), &ind(b))
            );
        }
        let s = scoped.stats();
        assert!(s.scoped_queries > 0);
        // Modules are genuinely smaller than the KB on average here
        // (two unrelated islands).
        assert!(s.module_axioms < s.scoped_queries * kb.len() as u64);
    }

    #[test]
    fn module_scoping_inclusion_entailment_parity() {
        let src = "A SubClassOf B
             B SubClassOf C
             E StrongSubClassOf F
             q : E";
        let kb = parse_kb4(src).unwrap();
        let scoped = Reasoner4::with_config(
            &kb,
            Config {
                module_scoping: true,
                ..Config::default()
            },
        );
        let oracle = Oracle::new(&kb);
        for kind in [
            InclusionKind::Internal,
            InclusionKind::Material,
            InclusionKind::Strong,
        ] {
            for (l, r) in [("A", "C"), ("C", "A"), ("E", "F"), ("F", "E"), ("A", "F")] {
                let (l, r) = (Concept::atomic(l), Concept::atomic(r));
                let ax = Axiom4::ConceptInclusion(kind, l.clone(), r.clone());
                assert_eq!(
                    scoped.entails(&ax).unwrap(),
                    oracle.entails_inclusion(kind, &l, &r),
                    "entailment differs for {l:?} {kind:?} {r:?}"
                );
            }
        }
    }

    #[test]
    fn told_verdicts_are_exposed_and_sound() {
        let src = "A SubClassOf B
             A SubClassOf not D
             x : A";
        let r = r4(src);
        let (pos, neg) = r.told_verdict(&ind("x"), &ConceptName::new("B"));
        assert!(pos && !neg);
        let (pos, neg) = r.told_verdict(&ind("x"), &ConceptName::new("D"));
        assert!(!pos && neg);
        // Both claims hold in the tableau over `K̄`, and a name the KB
        // says nothing about gets no certificate either way.
        let oracle = Oracle::new(&parse_kb4(src).unwrap());
        assert_eq!(
            oracle.query(&ind("x"), &Concept::atomic("B")),
            TruthValue::True
        );
        assert_eq!(
            oracle.query(&ind("x"), &Concept::atomic("D")),
            TruthValue::False
        );
        assert_eq!(
            r.told_verdict(&ind("ghost"), &ConceptName::new("A")),
            (false, false)
        );
    }
}
