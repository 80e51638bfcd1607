//! The module-scoping contract, machine-checked differentially: running
//! every query on its extracted module (`Config::module_scoping`) must be
//! *invisible* in answers. Across random, planted-contradiction and
//! modular corpora (≥ 256 generated KBs in total) every four-valued
//! verdict, role verdict, entailment and satisfiability answer must be
//! bit-identical to the Corollary 7 oracle of `tests/common`, one
//! unscoped tableau over `K̄`; on small KBs the scoped engine's positive
//! claims are additionally confirmed by the `fourmodels` enumeration
//! oracle. The extraction itself is pinned to
//! its algebraic law: modules are monotone in the query seed, so the
//! full-signature module bounds every query module.
//!
//! The scoped reasoner runs the default ladder with module scoping on:
//! every probe extracts its module, and the probes the told index, the
//! entailment cache and the Horn rung leave (role probes, non-Horn
//! modules) run the tableau on that module. A rare random seed is
//! pathologically hard for the classical tableau; both sides carry a
//! short wall-clock budget and a case whose queries exhaust it is
//! skipped — tableau hardness is a property of the KB, not of scoping,
//! and is fuzzed elsewhere.

mod common;

use common::{signature_grid, Oracle};
use dl::Concept;
use fourmodels::check::{entailed_negative_info, entailed_positive_info};
use fourmodels::enumerate::EnumConfig;
use ontogen::lintseed::{lint_seeded_kb4, LintSeedParams};
use ontogen::modular::{modular_kb4, ModularParams};
use ontogen::random::{random_kb4, RandomParams};
use proptest::prelude::*;
use shoin4::dataflow::{concept_seed, full_signature_seed, ModuleExtractor, SigAtom};
use shoin4::{Axiom4, InclusionKind, KnowledgeBase4, Reasoner4};
use std::collections::BTreeSet;
use std::time::Duration;
use tableau::Config;

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

/// A short wall-clock budget: a rare random seed is pathologically
/// hard for the classical tableau. That is a hardness fact about the
/// KB, not a scoping property, so such cases are *skipped* rather than
/// allowed to dominate the suite's runtime.
fn config() -> Config {
    Config {
        model_pruning: false,
        time_budget: Some(Duration::from_millis(300)),
        ..Config::default()
    }
}

fn scoped(kb: &KnowledgeBase4) -> Reasoner4 {
    let config = Config {
        module_scoping: true,
        ..config()
    };
    Reasoner4::with_config(kb, config)
}

fn oracle(kb: &KnowledgeBase4) -> Oracle {
    Oracle::new(kb, config())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Instance queries, role queries and satisfiability on random KBs:
    /// scoped answers are bit-identical to the oracle's, and the scoped
    /// run really scopes (the counters move).
    #[test]
    fn random_kbs_verdicts_are_bit_identical(seed in 0..4096u64) {
        let kb = random_kb4(&random_params(seed), (0.3, 0.4, 0.3));
        let plain = oracle(&kb);
        let scoped = scoped(&kb);
        let (p_sat, s_sat) = match (plain.is_satisfiable(), scoped.is_satisfiable()) {
            (Ok(p), Ok(s)) => (p, s),
            // Time budget exhausted: skip the pathological seed.
            _ => return Ok(()),
        };
        prop_assert_eq!(p_sat, s_sat, "satisfiability diverged (seed {})", seed);
        for (a, c) in signature_grid(&kb) {
            let (p, s) = match (plain.query(&a, &c), scoped.query(&a, &c)) {
                (Ok(p), Ok(s)) => (p, s),
                _ => return Ok(()),
            };
            prop_assert_eq!(p, s, "divergence on {}:{:?} (seed {})", a, c, seed);
        }
        let sig = kb.signature();
        for r in &sig.roles {
            for a in &sig.individuals {
                for b in &sig.individuals {
                    let (p, s) = match (plain.query_role(r, a, b), scoped.query_role(r, a, b)) {
                        (Ok(p), Ok(s)) => (p, s),
                        _ => return Ok(()),
                    };
                    prop_assert_eq!(
                        p, s,
                        "role divergence on {}({}, {}) (seed {})", r, a, b, seed
                    );
                }
            }
        }
        let stats = scoped.stats();
        prop_assert!(stats.scoped_queries > 0, "scoping never engaged (seed {})", seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Planted-contradiction KBs (the linter's corpus): the contested
    /// verdicts — the paper's whole point — survive scoping unchanged.
    #[test]
    fn planted_kbs_verdicts_are_bit_identical(seed in 0..4096u64) {
        let (kb, truth) = lint_seeded_kb4(&planted_params(seed));
        let plain = oracle(&kb);
        let scoped = scoped(&kb);
        // The planted contested facts first (they must come out ⊤), then
        // a slice of the full grid for the clean names.
        for (a, c) in &truth.contested_concepts {
            let concept = Concept::atomic(c.clone());
            let (want, got) = match (plain.query(a, &concept), scoped.query(a, &concept)) {
                (Ok(p), Ok(s)) => (p, s),
                // Time budget exhausted: skip the pathological seed.
                _ => return Ok(()),
            };
            prop_assert_eq!(want, fourval::TruthValue::Both, "seed {}", seed);
            prop_assert_eq!(got, want, "seed {}", seed);
        }
        for (a, c) in signature_grid(&kb).into_iter().take(16) {
            let (p, s) = match (plain.query(&a, &c), scoped.query(&a, &c)) {
                (Ok(p), Ok(s)) => (p, s),
                _ => return Ok(()),
            };
            prop_assert_eq!(p, s, "divergence on {}:{:?} (seed {})", a, c, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Inclusion entailment under all three §3.1 inclusion kinds is
    /// preserved by scoping (each kind couples different signature
    /// halves, so each exercises a different module shape).
    #[test]
    fn inclusion_entailment_is_preserved(seed in 0..4096u64) {
        let kb = random_kb4(&random_params(seed), (0.3, 0.4, 0.3));
        let plain = oracle(&kb);
        let scoped = scoped(&kb);
        let concepts: Vec<Concept> = kb
            .signature()
            .concepts
            .into_iter()
            .map(Concept::atomic)
            .collect();
        for lhs in concepts.iter().take(3) {
            for rhs in concepts.iter().take(3) {
                for kind in [
                    InclusionKind::Internal,
                    InclusionKind::Material,
                    InclusionKind::Strong,
                ] {
                    let ax = Axiom4::ConceptInclusion(kind, lhs.clone(), rhs.clone());
                    let (p, s) = match (plain.entails(&ax), scoped.entails(&ax)) {
                        (Ok(p), Ok(s)) => (p, s),
                        // Time budget exhausted: skip the pathological seed.
                        _ => return Ok(()),
                    };
                    prop_assert_eq!(p, s, "divergence on {:?} (seed {})", ax, seed);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The extraction law behind scoping's soundness: modules are
    /// monotone in the seed, so the full-signature module is an upper
    /// bound for the module of every query over the KB's names.
    #[test]
    fn modules_are_monotone_in_the_seed(seed in 0..4096u64) {
        let kb = random_kb4(&random_params(seed), (0.3, 0.4, 0.3));
        let extractor = ModuleExtractor::new(&kb);
        let sig = kb.signature();
        let seeds: Vec<BTreeSet<SigAtom>> = sig
            .concepts
            .iter()
            .map(|c| concept_seed(&Concept::atomic(c.clone())))
            .collect();
        let full = extractor.extract(&full_signature_seed(&kb));
        for (i, a) in seeds.iter().enumerate() {
            let small = extractor.extract(a);
            prop_assert!(
                small.axioms.is_subset(&full.axioms),
                "module ⊄ full-signature module (seed {})", seed
            );
            for b in seeds.iter().skip(i + 1) {
                let union: BTreeSet<SigAtom> = a.union(b).cloned().collect();
                let big = extractor.extract(&union);
                prop_assert!(
                    small.axioms.is_subset(&big.axioms),
                    "module not monotone in the seed (seed {})", seed
                );
            }
        }
    }
}

/// The modular corpus with planted ground truth: queries about a clean
/// island answer identically under scoping, and their modules never
/// leave the island — the clean region provably never pays for the
/// contested one.
#[test]
fn modular_corpus_scoped_queries_stay_on_their_island() {
    for seed in 0..8u64 {
        let p = ModularParams {
            seed,
            n_islands: 3,
            island_tbox: 4,
            island_abox: 6,
            contaminated_islands: 1,
        };
        let (kb, truth) = modular_kb4(&p);
        let extractor = ModuleExtractor::new(&kb);
        let plain = oracle(&kb);
        let scoped = scoped(&kb);
        for &island in &truth.clean() {
            let island_axioms: BTreeSet<usize> = truth.islands[island].iter().copied().collect();
            for name in truth.island_concepts[island].iter().take(3) {
                let concept = Concept::atomic(name.clone());
                let module = extractor.extract(&concept_seed(&concept));
                assert!(
                    module.axioms.is_subset(&island_axioms),
                    "module of {name} leaks off island {island} (seed {seed})"
                );
                for a in truth.island_individuals[island].iter().take(2) {
                    assert_eq!(
                        plain.query(a, &concept).unwrap(),
                        scoped.query(a, &concept).unwrap(),
                        "divergence on {a}:{name} (seed {seed})"
                    );
                }
            }
        }
        // Scoped modules were strictly smaller than the KB.
        let stats = scoped.stats();
        assert!(stats.scoped_queries > 0, "seed {seed}");
        assert!(
            stats.module_axioms < stats.scoped_queries * kb.len() as u64,
            "modules never shrank below the whole KB (seed {seed})"
        );
    }
}

/// Oracle anchoring: on tiny KBs, every positive claim the *scoped*
/// engine makes is confirmed by four-valued model enumeration over the
/// full (unscoped!) KB. True entailment implies entailment over the
/// enumerated models, so a scoped claim the oracle rejects would be a
/// soundness bug in the extraction.
#[test]
fn scoped_claims_are_confirmed_by_the_enumeration_oracle() {
    // Enumeration is 4^(names × domain): keep the KBs tiny or this test
    // alone dwarfs the rest of the suite.
    let mut claims = 0;
    for seed in 0..8u64 {
        let params = RandomParams {
            n_concepts: 2,
            n_roles: 1,
            n_individuals: 2,
            n_tbox: 2,
            n_abox: 3,
            max_depth: 1,
            number_restrictions: false,
            inverse_roles: false,
            seed,
        };
        let kb = random_kb4(&params, (0.4, 0.4, 0.2));
        let scoped = scoped(&kb);
        let cfg = EnumConfig::for_kb(&kb);
        for (a, c) in signature_grid(&kb) {
            if scoped.has_positive_info(&a, &c).unwrap() {
                assert!(
                    entailed_positive_info(&kb, &cfg, &a, &c),
                    "scoped claim {a}:{c} rejected by the oracle (seed {seed})"
                );
                claims += 1;
            }
            if scoped.has_negative_info(&a, &c).unwrap() {
                assert!(
                    entailed_negative_info(&kb, &cfg, &a, &c),
                    "scoped claim {a}:¬{c} rejected by the oracle (seed {seed})"
                );
                claims += 1;
            }
        }
    }
    assert!(claims >= 8, "generator degenerated: only {claims} claims");
}
