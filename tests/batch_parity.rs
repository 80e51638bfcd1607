//! Parity properties for the parallel batch query engine.
//!
//! The performance pipeline (worker threads, the entailment cache, the
//! told index, model-based pruning) must be *invisible* in answers:
//! every worker count has to return results bit-identical to the
//! Corollary 7 oracle of `tests/common`, which runs one plain tableau
//! search per classical entailment check over `K̄`. These properties
//! fuzz that claim over ontogen's random KBs and its
//! planted-contradiction KBs.

mod common;

use common::{signature_grid, Oracle};
use dl::name::{ConceptName, IndividualName};
use dl::Concept;
use fourval::TruthValue;
use ontogen::lintseed::{lint_seeded_kb4, LintSeedParams};
use ontogen::random::{random_kb4, RandomParams};
use proptest::prelude::*;
use shoin4::analysis::{classify4, contradiction_report};
use shoin4::reasoner4::QueryOptions;
use shoin4::{Axiom4, InclusionKind, KnowledgeBase4, Reasoner4};
use std::collections::BTreeMap;
use tableau::Config;

/// Small enough that the whole signature grid stays cheap even for the
/// oracle (two tableau searches per pair, no caches).
fn random_params(seed: u64) -> RandomParams {
    RandomParams {
        n_concepts: 4,
        n_roles: 2,
        n_individuals: 3,
        n_tbox: 4,
        n_abox: 6,
        max_depth: 1,
        number_restrictions: false,
        inverse_roles: true,
        seed,
    }
}

fn planted_params(seed: u64) -> LintSeedParams {
    LintSeedParams {
        seed,
        n_clean_tbox: 6,
        n_clean_abox: 9,
        n_contested_direct: 2,
        n_contested_chained: 1,
        n_contested_roles: 1,
        n_duplicates: 1,
        n_cycles: 1,
        n_orphans: 1,
    }
}

/// One tableau search per entailment check: no threads, no caches, no
/// told index, no model pruning.
fn oracle(kb: &KnowledgeBase4) -> Oracle {
    let config = Config {
        model_pruning: false,
        ..Config::default()
    };
    Oracle::new(kb, config)
}

/// The default pipeline with an explicit worker count.
fn accelerated(kb: &KnowledgeBase4, jobs: usize) -> Reasoner4 {
    Reasoner4::with_options(kb, Config::default(), QueryOptions { jobs })
}

/// The oracle's survey, in `shoin4::analysis::contradiction_report`'s
/// grid order: contested, asserted and denied pairs plus the unknown
/// count.
type Survey = (
    Vec<(IndividualName, ConceptName)>,
    Vec<(IndividualName, ConceptName)>,
    Vec<(IndividualName, ConceptName)>,
    usize,
);

fn oracle_survey(oracle: &Oracle, kb: &KnowledgeBase4) -> Survey {
    let mut survey: Survey = Default::default();
    for (a, c) in signature_grid(kb) {
        let Concept::Atomic(name) = &c else {
            unreachable!("the grid is atomic")
        };
        let pair = (a.clone(), name.clone());
        match oracle.query(&a, &c).unwrap() {
            TruthValue::Both => survey.0.push(pair),
            TruthValue::True => survey.1.push(pair),
            TruthValue::False => survey.2.push(pair),
            TruthValue::Neither => survey.3 += 1,
        }
    }
    survey
}

/// The oracle's internal-inclusion taxonomy, in `classify4`'s shape.
fn oracle_taxonomy(
    oracle: &Oracle,
    kb: &KnowledgeBase4,
) -> BTreeMap<ConceptName, Vec<ConceptName>> {
    let names = kb.signature().concepts;
    names
        .iter()
        .map(|a| {
            let supers = names
                .iter()
                .filter(|b| {
                    let ax = Axiom4::ConceptInclusion(
                        InclusionKind::Internal,
                        Concept::atomic(a.as_str()),
                        Concept::atomic(b.as_str()),
                    );
                    oracle.entails(&ax).unwrap()
                })
                .cloned()
                .collect();
            (a.clone(), supers)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `query_batch` under any worker count answers exactly what the
    /// oracle answers one query at a time.
    #[test]
    fn batch_queries_match_sequential_baseline(seed in 0..64u64, jobs in 1..5usize) {
        let kb = random_kb4(&random_params(seed), (0.3, 0.4, 0.3));
        let grid = signature_grid(&kb);
        let slow = oracle(&kb);
        let fast = accelerated(&kb, jobs);
        let batched = fast.query_batch(&grid).unwrap();
        prop_assert_eq!(batched.len(), grid.len());
        for ((a, c), got) in grid.iter().zip(&batched) {
            let want = slow.query(a, c).unwrap();
            prop_assert_eq!(*got, want, "divergence on {}:{:?} (seed {})", a, c, seed);
        }
    }

    /// The full survey and the taxonomy of the parallel cached pipeline
    /// are bit-identical to the oracle's, including on KBs with planted
    /// contradictions.
    #[test]
    fn surveys_and_taxonomies_are_bit_identical(seed in 0..32u64, jobs in 2..5usize) {
        let (kb, _) = lint_seeded_kb4(&planted_params(seed));
        let slow = oracle(&kb);
        let fast = accelerated(&kb, jobs);

        let (contested, asserted, denied, unknown) = oracle_survey(&slow, &kb);
        let b = contradiction_report(&fast, &kb).unwrap();
        prop_assert_eq!(&contested, &b.contested);
        prop_assert_eq!(&asserted, &b.asserted);
        prop_assert_eq!(&denied, &b.denied);
        prop_assert_eq!(unknown, b.unknown);

        prop_assert_eq!(oracle_taxonomy(&slow, &kb), classify4(&fast, &kb).unwrap());
    }

    /// Every positive claim the told index makes is confirmed by the
    /// bare tableau. (The index only ever certifies *presence* of
    /// information — `false` components claim nothing.)
    #[test]
    fn told_index_agrees_with_the_tableau(seed in 0..64u64) {
        let kb = random_kb4(&random_params(seed), (0.3, 0.4, 0.3));
        let slow = oracle(&kb);
        let fast = accelerated(&kb, 1);
        let sig = kb.signature();
        for a in &sig.individuals {
            for c in &sig.concepts {
                let (pos, neg) = fast.told_verdict(a, c);
                let atom = Concept::atomic(c.clone());
                if pos {
                    prop_assert!(
                        slow.has_positive_info(a, &atom).unwrap(),
                        "told index claimed {}:{} positively (seed {})", a, c, seed
                    );
                }
                if neg {
                    prop_assert!(
                        slow.has_negative_info(a, &atom).unwrap(),
                        "told index claimed {}:¬{} (seed {})", a, c, seed
                    );
                }
            }
        }
    }
}

/// Planted contradictions exercise the `Both` verdict through the batch
/// path: a deterministic end-to-end check that planted facts surface
/// identically with and without acceleration.
#[test]
fn planted_contradictions_survive_every_pipeline() {
    for seed in 0..4u64 {
        let (kb, truth) = lint_seeded_kb4(&planted_params(seed));
        let queries: Vec<(IndividualName, Concept)> = truth
            .contested_concepts
            .iter()
            .map(|(a, c)| (a.clone(), Concept::atomic(c.clone())))
            .collect();
        let slow = oracle(&kb);
        let fast = accelerated(&kb, 4);
        let sequential: Vec<_> = queries
            .iter()
            .map(|(a, c)| slow.query(a, c).unwrap())
            .collect();
        assert_eq!(fast.query_batch(&queries).unwrap(), sequential);
        for v in &sequential {
            assert_eq!(*v, TruthValue::Both, "seed {seed}");
        }
    }
}
