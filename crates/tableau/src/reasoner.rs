//! End-to-end checks of the four reasoning services of [`QueryEngine`]
//! (consistency, concept satisfiability, subsumption, instance checking)
//! plus entailment, classification, model extraction and the resource
//! limits, each on a small KB.
//!
//! [`QueryEngine`]: crate::engine::QueryEngine

#[cfg(test)]
mod tests {
    use crate::config::{Config, ReasonerError};
    use crate::engine::QueryEngine;
    use dl::axiom::{Axiom, RoleExpr};
    use dl::kb::KnowledgeBase;
    use dl::name::{ConceptName, IndividualName};
    use dl::parser::parse_kb;
    use dl::Concept;
    use std::collections::BTreeSet;

    fn reasoner(src: &str) -> QueryEngine {
        QueryEngine::new(&parse_kb(src).unwrap())
    }

    #[test]
    fn empty_kb_is_consistent() {
        let r = reasoner("");
        assert!(r.is_consistent().unwrap());
    }

    #[test]
    fn simple_clash() {
        let r = reasoner("a : A and not A");
        assert!(!r.is_consistent().unwrap());
    }

    #[test]
    fn tweety_kb_is_inconsistent() {
        let r = reasoner(
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
        let r = reasoner(
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
        let r = reasoner(
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
        let r = reasoner(
            "Person SubClassOf hasParent some Person
             p : Person",
        );
        assert!(r.is_consistent().unwrap());
    }

    #[test]
    fn inverse_roles_propagate() {
        // ∀hasChild⁻.Person at the child means every parent is a Person...
        // direct check: hasChild(a, b), b : ∀(inverse hasChild).A ⟹ a : A.
        let r = reasoner(
            "hasChild(a, b)
             b : inverse hasChild only A",
        );
        assert!(r
            .is_instance_of(&IndividualName::new("a"), &Concept::atomic("A"))
            .unwrap());
    }

    #[test]
    fn transitivity_propagates_forall() {
        let r = reasoner(
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
        let r = reasoner(
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
        let r = reasoner(
            "hasChild(a, b)
             hasChild(a, c)
             b != c
             a : hasChild max 1",
        );
        assert!(!r.is_consistent().unwrap());
        // Without distinctness the children merge: consistent.
        let r = reasoner(
            "hasChild(a, b)
             hasChild(a, c)
             a : hasChild max 1",
        );
        assert!(r.is_consistent().unwrap());
        // And the merge makes b = c entailed.
        let r = reasoner(
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
        let r = reasoner("a : hasChild min 3 and hasChild max 2");
        assert!(!r.is_consistent().unwrap());
        let r = reasoner("a : hasChild min 2 and hasChild max 2");
        assert!(r.is_consistent().unwrap());
    }

    #[test]
    fn nominals_merge() {
        let r = reasoner(
            "a : {b}
             a : A",
        );
        assert!(r.is_consistent().unwrap());
        assert!(r
            .is_instance_of(&IndividualName::new("b"), &Concept::atomic("A"))
            .unwrap());
        // But a : {b} with a ≠ b clashes.
        let r = reasoner(
            "a : {b}
             a != b",
        );
        assert!(!r.is_consistent().unwrap());
    }

    #[test]
    fn multi_element_nominal_branches() {
        let r = reasoner(
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
        let r = reasoner(
            "a = b
             b = c
             a : A",
        );
        assert!(r
            .is_instance_of(&IndividualName::new("c"), &Concept::atomic("A"))
            .unwrap());
        let r = reasoner(
            "a = b
             a != b",
        );
        assert!(!r.is_consistent().unwrap());
    }

    #[test]
    fn datatype_reasoning_end_to_end() {
        let r = reasoner(
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
        let r = reasoner(
            "DataRole: hasAge
             hasAge(kid, 12)
             kid : hasAge max 1
             kid : hasAge some integer[18..]",
        );
        assert!(!r.is_consistent().unwrap());
    }

    #[test]
    fn entails_role_and_data_assertions() {
        let r = reasoner("r(a, b)\nage(a, 4)");
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
        let r = reasoner("Transitive(anc)");
        assert!(r
            .entails(&Axiom::Transitive(dl::RoleName::new("anc")))
            .unwrap());
        assert!(!r
            .entails(&Axiom::Transitive(dl::RoleName::new("other")))
            .unwrap());
    }

    #[test]
    fn inconsistent_kb_entails_everything() {
        let r = reasoner("a : A and not A");
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
        let r = reasoner(
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
        let r = reasoner("A SubClassOf not A");
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
        let r = reasoner("a : not {b}");
        assert!(r.is_consistent().unwrap());
        assert!(r
            .entails(&Axiom::DifferentIndividuals(
                IndividualName::new("a"),
                IndividualName::new("b"),
            ))
            .unwrap());
        let r = reasoner("a : not {b}\na = b");
        assert!(!r.is_consistent().unwrap());
    }

    #[test]
    fn find_model_none_on_inconsistent_kb() {
        let r = reasoner("x : A and not A");
        assert!(r.find_model().unwrap().is_none());
    }

    #[test]
    fn find_model_extracts_individuals() {
        let r = reasoner("r(a, b)\na : A");
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
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let kb = parse_kb(
            "Person SubClassOf hasParent some Person
             p : Person",
        )
        .unwrap();
        let flag = Arc::new(AtomicBool::new(false));
        flag.store(true, Ordering::Relaxed);
        let r = QueryEngine::with_config(
            &kb,
            Config {
                cancel: Some(flag),
                ..Config::default()
            },
        );
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
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        // An unbounded ∃-chain with level-distinct concepts defeats
        // pairwise blocking long enough that only an external signal (or
        // a limit) stops the search. Give the search no other way out
        // within the test's patience and raise the token from a second
        // thread.
        let mut src = String::new();
        for i in 0..64 {
            src.push_str(&format!("L{i} SubClassOf r some L{}\n", i + 1));
            src.push_str(&format!("L{i} SubClassOf s some L{}\n", i + 1));
        }
        src.push_str("h : L0\n");
        let kb = parse_kb(&src).unwrap();
        let token = Arc::new(AtomicBool::new(false));
        let raiser = {
            let token = Arc::clone(&token);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                token.store(true, Ordering::Relaxed);
            })
        };
        let _guard = crate::interrupt::install(Arc::clone(&token));
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
}
