//! Fuzz the classical tableau against brute-force classical model
//! enumeration: on randomly generated small KBs the two must agree on
//! satisfiability whenever a model of the enumerated domain size exists.
//!
//! Enumeration checks domains of a fixed size, so it can only *refute*
//! completeness claims in one direction: if enumeration finds a model the
//! tableau must say satisfiable. (A tableau "satisfiable" with no small
//! model is legitimate — SHOIN KBs can force larger models — so those
//! cases are skipped. With the generator's parameters below this
//! direction still fires on the overwhelming majority of seeds.)

use fourmodels::enumerate::{EnumConfig, ModelIter};
use ontogen::random::{random_kb, RandomParams};
use shoin4::{InclusionKind, KnowledgeBase4};
use tableau::{Config, QueryEngine};

fn params(seed: u64) -> RandomParams {
    RandomParams {
        n_concepts: 3,
        n_roles: 1,
        n_individuals: 2,
        n_tbox: 3,
        n_abox: 3,
        max_depth: 1,
        number_restrictions: false,
        inverse_roles: true,
        seed,
    }
}

#[test]
fn tableau_agrees_with_classical_enumeration() {
    let mut checked = 0;
    let mut enum_sat = 0;
    for seed in 0..60u64 {
        let kb = random_kb(&params(seed));
        let kb4 = KnowledgeBase4::from_classical(&kb, InclusionKind::Internal);
        let mut cfg = EnumConfig::classical_for_kb(&kb4);
        cfg.domain_size = 2;
        cfg.max_interpretations = 20_000_000;
        let brute = ModelIter::new(&kb4, &cfg).any(|m| m.satisfies(&kb4));
        let r = QueryEngine::with_config(&kb, Config::default());
        let tableau_answer = match r.is_consistent() {
            Ok(ans) => ans,
            Err(e) => panic!("resource limit on seed {seed}: {e}"),
        };
        if brute {
            assert!(
                tableau_answer,
                "seed {seed}: enumeration found a model but the tableau says \
                 unsatisfiable\n{}",
                dl::printer::print_kb(&kb)
            );
            enum_sat += 1;
        }
        // brute == false ⇒ no model with ≤2 elements; the tableau may
        // still (correctly) find a larger model, so no assertion.
        checked += 1;
    }
    assert_eq!(checked, 60);
    assert!(
        enum_sat >= 20,
        "generator degenerated: only {enum_sat}/60 seeds had small models"
    );
}

/// On KBs whose constructor mix cannot force large models (no
/// existentials / number restrictions / negated nominals — only
/// propositional combinations over the named individuals), a small-domain
/// countermodel search is *complete*, so the agreement check runs in both
/// directions.
#[test]
fn tableau_agrees_both_ways_on_propositional_kbs() {
    for seed in 0..40u64 {
        let kb = {
            // Strip role-flavoured axioms from the random KB, leaving a
            // propositional (ALC-without-roles) KB over two individuals.
            let full = random_kb(&params(seed ^ 0xABCD));
            let axioms: Vec<dl::Axiom> = full
                .axioms()
                .iter()
                .filter(|ax| match ax {
                    dl::Axiom::ConceptInclusion(c, d) => {
                        c.role_names().is_empty() && d.role_names().is_empty()
                    }
                    dl::Axiom::ConceptAssertion(_, c) => c.role_names().is_empty(),
                    dl::Axiom::RoleAssertion(..) => false,
                    _ => true,
                })
                .cloned()
                .collect();
            dl::kb::KnowledgeBase::from_axioms(axioms)
        };
        if kb.signature().individuals.is_empty() {
            continue;
        }
        let kb4 = KnowledgeBase4::from_classical(&kb, InclusionKind::Internal);
        let mut cfg = EnumConfig::classical_for_kb(&kb4);
        cfg.max_interpretations = 20_000_000;
        if ModelIter::new(&kb4, &cfg).total() > 5_000_000 {
            continue; // keep the suite fast
        }
        let brute = ModelIter::new(&kb4, &cfg).any(|m| m.satisfies(&kb4));
        let r = QueryEngine::new(&kb);
        let fast = r.is_consistent().expect("within limits");
        assert_eq!(
            brute,
            fast,
            "seed {seed}: tableau and enumeration disagree on\n{}",
            dl::printer::print_kb(&kb)
        );
    }
}

/// Instance checking agrees with enumeration on propositional KBs.
#[test]
fn instance_checks_agree_on_propositional_kbs() {
    use dl::{Concept, IndividualName};
    let kbs = [
        "A SubClassOf B\nx : A",
        "A SubClassOf B or C\nx : A\nx : not C",
        "A SubClassOf not B\nx : A\ny : B",
        "x : A or B\nx : not A\nA SubClassOf C",
        "A EquivalentTo B and C\nx : B\nx : C",
    ];
    for src in kbs {
        let kb = dl::parser::parse_kb(src).unwrap();
        let kb4 = KnowledgeBase4::from_classical(&kb, InclusionKind::Internal);
        let cfg = EnumConfig::classical_for_kb(&kb4);
        let r = QueryEngine::new(&kb);
        for who in ["x", "y"] {
            let a = IndividualName::new(who);
            if !kb.signature().individuals.contains(&a) {
                continue;
            }
            for concept in ["A", "B", "C"] {
                let cn = dl::ConceptName::new(concept);
                if !kb.signature().concepts.contains(&cn) {
                    continue;
                }
                let c = Concept::atomic(concept);
                // Brute-force entailment: a ∈ C in every classical model.
                let brute = ModelIter::new(&kb4, &cfg)
                    .filter(|m| m.satisfies(&kb4))
                    .all(|m| {
                        let e = m.individual(&a).expect("pinned");
                        m.eval(&c).pos.contains(&e)
                    });
                let fast = r.is_instance_of(&a, &c).expect("within limits");
                assert_eq!(brute, fast, "mismatch on {src:?} for {who}:{concept}");
            }
        }
    }
}
