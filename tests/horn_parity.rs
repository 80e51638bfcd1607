//! The Horn fast-path contract, machine-checked differentially: routing
//! queries through the consequence-driven saturation engine (a rung of
//! the default `Reasoner4` ladder) must be *invisible* in answers.
//! Across mixed-kind random corpora, pure-Horn connected corpora and
//! all-material corpora (≥ 200 generated KBs in total) every
//! four-valued verdict, role verdict, entailment and satisfiability
//! answer must be bit-identical to the Corollary 7 oracle of
//! `tests/common`, one plain tableau over `K̄`; on small KBs the routed
//! engine's positive claims are additionally confirmed by the
//! `fourmodels` enumeration oracle.
//!
//! The routing itself is pinned through `Stats`: on the Horn corpus
//! the fast path must answer (`horn_queries > 0`) and must never fall
//! back (`horn_fallbacks == 0`); on the corpus with planted
//! disjunctive heads — module-relevant *and* non-Horn — routed queries
//! must fall back to the tableau (`horn_fallbacks > 0`); and on the
//! deterministic positive-atom material ladder — whose non-Horn images
//! can never produce positive information and, absent negative told
//! facts, never enter a positive-information query module — the
//! `has_positive_info` sweep saturates fallback-free.
//!
//! The routed reasoner runs the whole ladder, so the told index and the
//! entailment cache settle some probes before the router sees them; the
//! pins above hold through the probes they cannot settle. Both sides
//! carry a short wall-clock budget: a rare random seed that is
//! pathologically hard for the tableau is skipped, as in
//! `tests/module_parity.rs`.

mod common;

use common::{signature_grid, Oracle};
use dl::name::IndividualName;
use dl::Concept;
use fourmodels::enumerate::{EnumConfig, ModelIter};
use ontogen::horn::{horn_kb4, HornParams};
use ontogen::random::{random_kb4, RandomParams};
use proptest::prelude::*;
use shoin4::dataflow::ModuleExtractor;
use shoin4::horn::compile;
use shoin4::{Axiom4, InclusionKind, KnowledgeBase4, Reasoner4};
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

fn horn_params(seed: u64) -> HornParams {
    HornParams {
        n_concepts: 6,
        n_roles: 2,
        n_individuals: 4,
        n_tbox: 8,
        n_abox: 6,
        strong_rate: 0.4,
        material_rate: 0.0,
        disjunction_rate: 0.0,
        seed,
    }
}

fn config() -> Config {
    Config {
        model_pruning: false,
        // Skip seeds that are pathologically hard for the tableau —
        // hardness is a KB property, not a routing property.
        time_budget: Some(Duration::from_millis(300)),
        ..Config::default()
    }
}

/// The default ladder, Horn rung included.
fn routed(kb: &KnowledgeBase4) -> Reasoner4 {
    Reasoner4::with_config(kb, config())
}

fn oracle(kb: &KnowledgeBase4) -> Oracle {
    Oracle::new(kb, config())
}

/// Ask every strong inclusion between the KB's concepts. The told
/// index may settle every membership of a small KB, through which the
/// routing pins would then see nothing; a strong inclusion also needs
/// its negative-information half (`¬D̄ ⊑ ¬C̄`), which the index never
/// certifies, so these tests always reach the router. Returns `false`
/// if the time budget was exhausted (the caller skips the seed).
fn ask_strong_inclusions(routed: &Reasoner4, kb: &KnowledgeBase4) -> bool {
    let concepts = kb.signature().concepts;
    concepts.iter().all(|lhs| {
        concepts.iter().all(|rhs| {
            let ax = Axiom4::ConceptInclusion(
                InclusionKind::Strong,
                Concept::atomic(lhs.clone()),
                Concept::atomic(rhs.clone()),
            );
            routed.entails(&ax).is_ok()
        })
    })
}

/// Instance grid, role grid and satisfiability: routed answers must be
/// bit-identical to the oracle's. Returns `false` if the time
/// budget was exhausted (the caller skips the seed).
fn verdicts_agree(kb: &KnowledgeBase4, seed: u64) -> Result<bool, TestCaseError> {
    let routed = routed(kb);
    let plain = oracle(kb);
    let (r_sat, p_sat) = match (routed.is_satisfiable(), plain.is_satisfiable()) {
        (Ok(r), Ok(p)) => (r, p),
        _ => return Ok(false),
    };
    prop_assert_eq!(r_sat, p_sat, "satisfiability diverged (seed {})", seed);
    for (a, c) in signature_grid(kb) {
        let (r, p) = match (routed.query(&a, &c), plain.query(&a, &c)) {
            (Ok(r), Ok(p)) => (r, p),
            _ => return Ok(false),
        };
        prop_assert_eq!(r, p, "divergence on {}:{:?} (seed {})", a, c, seed);
    }
    let sig = kb.signature();
    for role in &sig.roles {
        for a in &sig.individuals {
            for b in &sig.individuals {
                let (r, p) = match (routed.query_role(role, a, b), plain.query_role(role, a, b)) {
                    (Ok(r), Ok(p)) => (r, p),
                    _ => return Ok(false),
                };
                prop_assert_eq!(
                    r,
                    p,
                    "role divergence on {}({}, {}) (seed {})",
                    role,
                    a,
                    b,
                    seed
                );
            }
        }
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mixed-kind random KBs (material, internal and strong inclusions,
    /// weights 0.3/0.4/0.3): whatever mixture of Horn and non-Horn
    /// modules falls out, answers are bit-identical.
    #[test]
    fn random_kbs_verdicts_are_bit_identical(seed in 0..4096u64) {
        let kb = random_kb4(&random_params(seed), (0.3, 0.4, 0.3));
        verdicts_agree(&kb, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The connected Horn corpus: answers are bit-identical, the fast
    /// path actually answers, and it *never* falls back — zero Horn-path
    /// routing on non-Horn modules means zero non-Horn modules here.
    #[test]
    fn horn_corpus_saturates_without_fallback(seed in 0..4096u64) {
        let kb = horn_kb4(&horn_params(seed));
        if !verdicts_agree(&kb, seed)? {
            return Ok(());
        }
        let routed = routed(&kb);
        for (a, c) in signature_grid(&kb) {
            if routed.query(&a, &c).is_err() {
                return Ok(());
            }
        }
        if !ask_strong_inclusions(&routed, &kb) {
            return Ok(());
        }
        let stats = routed.stats();
        prop_assert!(stats.horn_queries > 0, "fast path never engaged (seed {})", seed);
        prop_assert_eq!(stats.horn_fallbacks, 0, "fallback on a Horn corpus (seed {})", seed);
        prop_assert!(stats.horn_clauses > 0, "no clauses compiled (seed {})", seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same corpus shape with every inclusion material. A material
    /// image `C ↦ D` classicalizes to `¬π(¬C) ⊑ π(D)` — body-side
    /// negation, non-Horn — so any module it enters falls back to the
    /// tableau: parity (`verdicts_agree`) is the load-bearing claim
    /// here. The fast path must still *engage* (satisfiability's
    /// `∅`-seed module and any module the material images stay out of
    /// are trivially Horn); which queries fall back depends on which
    /// negated told facts drag a `C⁻`/`p⁺` into the cone, so the exact
    /// split is pinned deterministically in
    /// `positive_atom_material_ladder_is_invisible` instead.
    #[test]
    fn material_corpus_answers_agree_and_fast_path_engages(seed in 0..4096u64) {
        let kb = horn_kb4(&HornParams {
            material_rate: 1.0,
            ..horn_params(seed)
        });
        if !verdicts_agree(&kb, seed)? {
            return Ok(());
        }
        let routed = routed(&kb);
        if routed.is_satisfiable().is_err() {
            return Ok(());
        }
        for (a, c) in signature_grid(&kb) {
            if routed.query(&a, &c).is_err() {
                return Ok(());
            }
        }
        let stats = routed.stats();
        prop_assert!(stats.horn_queries > 0, "fast path never engaged (seed {})", seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Planted disjunctive heads are module-relevant *and* non-Horn:
    /// the classifier must refuse those modules and the router must
    /// count a fallback per affected query — zero Horn-path routing on
    /// non-Horn modules, observed through `Stats::horn_fallbacks`.
    #[test]
    fn disjunctive_corpus_falls_back_to_the_tableau(seed in 0..4096u64) {
        let kb = horn_kb4(&HornParams {
            disjunction_rate: 1.0,
            ..horn_params(seed)
        });
        // Even at rate 1.0 a rare seed draws only role-hierarchy /
        // transitivity chords and plants nothing disjunctive; if the
        // whole classical image still compiles Horn there is nothing to
        // fall back on — skip that seed.
        {
            let ex = ModuleExtractor::new(&kb);
            let images: Vec<_> = (0..kb.len()).flat_map(|i| ex.images(i).to_vec()).collect();
            if compile(images.iter()).is_some() {
                return Ok(());
            }
        }
        if !verdicts_agree(&kb, seed)? {
            return Ok(());
        }
        let routed = routed(&kb);
        for (a, c) in signature_grid(&kb) {
            if routed.query(&a, &c).is_err() {
                return Ok(());
            }
        }
        if !ask_strong_inclusions(&routed, &kb) {
            return Ok(());
        }
        prop_assert!(
            routed.stats().horn_fallbacks > 0,
            "disjunctive modules classified as Horn (seed {})", seed
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Inclusion entailment under all three §3.1 inclusion kinds: the
    /// router turns internal/strong subsumption probes into saturation
    /// reachability and leaves material probes on the tableau — both
    /// invisibly.
    #[test]
    fn inclusion_entailment_is_preserved(seed in 0..4096u64) {
        let kb = random_kb4(&random_params(seed), (0.3, 0.4, 0.3));
        let routed = routed(&kb);
        let plain = oracle(&kb);
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
                    let (r, p) = match (routed.entails(&ax), plain.entails(&ax)) {
                        (Ok(r), Ok(p)) => (r, p),
                        // Time budget exhausted: skip the pathological seed.
                        _ => return Ok(()),
                    };
                    prop_assert_eq!(r, p, "divergence on {:?} (seed {})", ax, seed);
                }
            }
        }
    }
}

/// The canonical material-invisibility pin, deterministic: a ladder of
/// material inclusions over *positive atoms* with a purely positive
/// ABox. Each image `¬A_i⁻ ⊑ A_{i+1}⁺` mentions only `A_i⁻` in its
/// body, and nothing in the KB puts a negative atom into a
/// positive-information cone, so ⊤-locality keeps every material image
/// out of every `has_positive_info` module: the whole sweep saturates
/// Horn with zero fallbacks, and (the `shoin4::told` counterexample at
/// scale) certifies *no* inherited memberships — only the told facts.
#[test]
fn positive_atom_material_ladder_is_invisible() {
    use dl::name::{ConceptName, RoleName};
    let mut kb = KnowledgeBase4::new();
    let atom = |i: usize| Concept::atomic(ConceptName::new(format!("L{i}")));
    let ind = |i: usize| IndividualName::new(format!("m{i}"));
    for i in 0..5 {
        kb.add(Axiom4::ConceptInclusion(
            InclusionKind::Material,
            atom(i),
            atom(i + 1),
        ));
    }
    for i in 0..3 {
        kb.add(Axiom4::ConceptAssertion(ind(i), atom(2 * i)));
        if i > 0 {
            kb.add(Axiom4::RoleAssertion(
                RoleName::new("m"),
                ind(i - 1),
                ind(i),
            ));
        }
    }
    let routed = routed(&kb);
    let plain = oracle(&kb);
    for (a, c) in signature_grid(&kb) {
        let r = routed.has_positive_info(&a, &c).unwrap();
        assert_eq!(r, plain.has_positive_info(&a, &c).unwrap(), "{a}:{c}");
        // Material links certify nothing: positive info iff asserted.
        let told = kb
            .axioms()
            .iter()
            .any(|ax| matches!(ax, Axiom4::ConceptAssertion(x, tc) if *x == a && *tc == c));
        assert_eq!(r, told, "{a}:{c} must hold iff told");
    }
    let stats = routed.stats();
    assert!(stats.horn_queries > 0);
    assert_eq!(
        stats.horn_fallbacks, 0,
        "a material image leaked into a positive-information module"
    );
}

/// Oracle anchoring: on tiny KBs, every positive claim the *routed*
/// engine makes is confirmed by four-valued model enumeration. True
/// entailment implies entailment over the enumerated models, so a
/// routed claim the oracle rejects would be a soundness bug in the
/// saturation (or its module scoping).
#[test]
fn routed_claims_are_confirmed_by_the_enumeration_oracle() {
    // Enumeration is 4^(names × domain): keep the KBs tiny. Half the
    // loop uses the Horn corpus (the fast path answers), half the mixed
    // random corpus (fallbacks interleave with saturations).
    let mut claims = 0;
    for seed in 0..6u64 {
        let horn_kb = horn_kb4(&HornParams {
            n_concepts: 3,
            n_roles: 1,
            n_individuals: 2,
            n_tbox: 2,
            n_abox: 2,
            strong_rate: 0.5,
            material_rate: 0.0,
            disjunction_rate: 0.0,
            seed,
        });
        let random_kb = random_kb4(
            &RandomParams {
                n_concepts: 2,
                n_roles: 1,
                n_individuals: 2,
                n_tbox: 2,
                n_abox: 3,
                max_depth: 1,
                number_restrictions: false,
                inverse_roles: false,
                seed,
            },
            (0.4, 0.4, 0.2),
        );
        for kb in [&horn_kb, &random_kb] {
            let routed = routed(kb);
            // (individual, concept, positive half?) per routed claim.
            let mut kb_claims = Vec::new();
            for (a, c) in signature_grid(kb) {
                if routed.has_positive_info(&a, &c).unwrap() {
                    kb_claims.push((a.clone(), c.clone(), true));
                }
                if routed.has_negative_info(&a, &c).unwrap() {
                    kb_claims.push((a, c, false));
                }
            }
            // One enumeration per KB: a claim is confirmed iff it holds
            // in every model (the `entailed_{positive,negative}_info`
            // test, run for all claims in the same pass).
            if kb_claims.is_empty() {
                continue;
            }
            let cfg = EnumConfig::for_kb(kb);
            let mut confirmed = vec![true; kb_claims.len()];
            for m in ModelIter::new(kb, &cfg).filter(|m| m.satisfies(kb)) {
                for (ok, (a, c, positive)) in confirmed.iter_mut().zip(&kb_claims) {
                    if *ok {
                        let value = m.eval(c);
                        let half = if *positive { &value.pos } else { &value.neg };
                        *ok = m.individual(a).is_some_and(|e| half.contains(&e));
                    }
                }
            }
            for (ok, (a, c, positive)) in confirmed.iter().zip(&kb_claims) {
                let sign = if *positive { "" } else { "¬" };
                assert!(
                    ok,
                    "routed claim {a}:{sign}{c} rejected by the oracle (seed {seed})"
                );
            }
            claims += kb_claims.len();
        }
    }
    assert!(claims >= 8, "generators degenerated: only {claims} claims");
}
