//! Hard-case battery for the SHOIN(D) tableau: the constructor
//! interactions that historically break DL reasoners — inverse roles with
//! number restrictions, nominals with cardinalities (the `NN`-rule
//! territory), transitivity with hierarchies, and classic satisfiability
//! puzzles in the style of the DL'98 test suites.

use dl::parser::{parse_concept, parse_kb};
use dl::Concept;
use tableau::{Config, QueryEngine};

fn consistent(src: &str) -> bool {
    QueryEngine::new(&parse_kb(src).unwrap())
        .is_consistent()
        .expect("within limits")
}

fn concept_sat(kb_src: &str, concept_src: &str) -> bool {
    let kb = parse_kb(kb_src).unwrap();
    let c = parse_concept(concept_src).unwrap();
    QueryEngine::new(&kb)
        .is_concept_satisfiable(&c)
        .expect("within limits")
}

#[test]
fn propositional_puzzles() {
    // (A ⊔ B) ⊓ (A ⊔ ¬B) ⊓ (¬A ⊔ B) ⊓ (¬A ⊔ ¬B) — unsat.
    assert!(!concept_sat(
        "",
        "(A or B) and (A or not B) and (not A or B) and (not A or not B)"
    ));
    // Drop one conjunct — sat.
    assert!(concept_sat(
        "",
        "(A or B) and (A or not B) and (not A or B)"
    ));
}

#[test]
fn modal_interaction() {
    // ∃r.A ⊓ ∃r.B ⊓ ¬∃r.(A ⊓ B) is satisfiable (two successors)…
    assert!(concept_sat(
        "",
        "(r some A) and (r some B) and not (r some (A and B))"
    ));
    // …but adding ≤1.r forces the merge and a clash.
    assert!(!concept_sat(
        "",
        "(r some A) and (r some B) and not (r some (A and B)) and r max 1"
    ));
}

#[test]
fn exists_forall_conflict() {
    assert!(!concept_sat("", "(r some A) and (r only not A)"));
    assert!(concept_sat("", "(r some A) and (r only A)"));
    // Nested depth-3 conflict.
    assert!(!concept_sat(
        "",
        "(r some (s some (t some A))) and (r only (s only (t only not A)))"
    ));
}

#[test]
fn inverse_role_round_trip() {
    // C ⊓ ∀r.(∃r⁻.¬C) is unsatisfiable when C has an r-successor.
    assert!(!concept_sat(
        "",
        "C and (r some Thing) and (r only (inverse r only not C))"
    ));
    // Without the successor it is satisfiable.
    assert!(concept_sat("", "C and (r only (inverse r only not C))"));
}

#[test]
fn number_restrictions_with_hierarchy() {
    // son ⊑ child; 2 distinct sons + ≤1 child: unsat.
    assert!(!consistent(
        "hasSon SubRoleOf hasChild
         hasSon(a, b)
         hasSon(a, c)
         b != c
         a : hasChild max 1"
    ));
    // ≥3 sons but ≤2 children: unsat via subrole counting.
    assert!(!concept_sat(
        "hasSon SubRoleOf hasChild",
        "(hasSon min 3) and (hasChild max 2)"
    ));
    // ≥2 sons, ≤2 children: fine.
    assert!(concept_sat(
        "hasSon SubRoleOf hasChild",
        "(hasSon min 2) and (hasChild max 2)"
    ));
}

#[test]
fn inverse_number_interaction() {
    // a has 2 distinct children; each child's parent-count ≤ 1 is fine;
    // but if the two children are the same node forced by the parent's
    // ≤1-child cap, distinctness clashes.
    assert!(consistent(
        "hasChild(a, b)
         hasChild(a, c)
         b : inverse hasChild max 1
         c : inverse hasChild max 1"
    ));
    assert!(!consistent(
        "hasChild(a, b)
         hasChild(a, c)
         b != c
         a : hasChild max 1"
    ));
}

#[test]
fn transitivity_with_forall_propagation() {
    // Trans(r), ∀r.C at the root, chain of r-edges: C everywhere below —
    // and a ¬C at depth 3 clashes.
    assert!(!consistent(
        "Transitive(r)
         r(a, b)
         r(b, c)
         r(c, d)
         a : r only C
         d : not C"
    ));
    // Without transitivity, only b is constrained: consistent.
    assert!(consistent(
        "r(a, b)
         r(b, c)
         r(c, d)
         a : r only C
         d : not C"
    ));
}

#[test]
fn transitive_subrole_propagation() {
    // Trans(p), p ⊑ r: ∀r.C must propagate along p-chains (the ∀₊ rule).
    assert!(!consistent(
        "Transitive(p)
         p SubRoleOf r
         p(a, b)
         p(b, c)
         a : r only C
         c : not C"
    ));
}

#[test]
fn nominal_merging_cascades() {
    // x = {y} and y = {z} chains force a three-way merge with label
    // union; a contradiction anywhere in the chain surfaces.
    assert!(!consistent(
        "x : {y}
         y : {z}
         x : A
         z : not A"
    ));
    assert!(consistent(
        "x : {y}
         y : {z}
         x : A
         z : A"
    ));
}

#[test]
fn nominal_cardinality_upper_bound() {
    // {o} has at most one element: two distinct individuals both equal to
    // {o} is a clash.
    assert!(!consistent(
        "a : {o}
         b : {o}
         a != b"
    ));
    // Without distinctness they merge happily.
    assert!(consistent(
        "a : {o}
         b : {o}"
    ));
}

#[test]
fn nominals_make_domains_global() {
    // ⊤ ⊑ {o}: a one-element universe. Asserting two distinct
    // individuals clashes.
    assert!(!consistent(
        "Thing SubClassOf {o}
         a != b"
    ));
    assert!(consistent("Thing SubClassOf {o}\na : A"));
}

#[test]
fn nn_rule_territory() {
    // A nominal with a bounded role from blockable predecessors:
    // ⊤ ⊑ ∃r.{o} makes every element r-point to o; ≤2.r⁻ at o bounds the
    // universe at 2 elements. Three distinct individuals: unsat.
    assert!(!consistent(
        "Thing SubClassOf r some {o}
         o : inverse r max 2
         a != b
         a != c
         b != c"
    ));
    // Two distinct individuals: satisfiable (o can be one of them).
    assert!(consistent(
        "Thing SubClassOf r some {o}
         o : inverse r max 2
         a != b"
    ));
}

#[test]
fn blocking_produces_infinite_models_safely() {
    // Classic: an infinite-model-only TBox must be satisfiable and fast.
    assert!(consistent(
        "Person SubClassOf hasParent some Person
         Person SubClassOf hasParent only Person
         p : Person"
    ));
    // A poisoned variant where the chain must eventually clash: every
    // Person has a parent, parents are Persons, and Persons are not
    // allowed: unsat via the first step.
    assert!(!consistent(
        "Person SubClassOf hasParent some Person
         Person SubClassOf not Person
         p : Person"
    ));
}

#[test]
fn inverse_blocking_interaction() {
    // ∃r.(∀r⁻.A) pattern under a cyclic TBox — pairwise blocking must not
    // block prematurely (subset blocking would).
    let kb = parse_kb(
        "A SubClassOf r some B
         B SubClassOf r some A
         B SubClassOf inverse r only C
         x : A",
    )
    .unwrap();
    let pairwise = QueryEngine::new(&kb);
    assert!(pairwise.is_consistent().expect("within limits"));
    // And x must be C (x is an r-predecessor of a B).
    assert!(pairwise
        .is_instance_of(&dl::IndividualName::new("x"), &Concept::atomic("C"))
        .expect("within limits"));
}

#[test]
fn datatype_hard_cases() {
    // Bounded integer range exhausted by distinctness.
    assert!(!consistent(
        "DataRole: score
         a : score min 4
         a : score only integer[1..3]"
    ));
    assert!(consistent(
        "DataRole: score
         a : score min 3
         a : score only integer[1..3]"
    ));
    // Boolean exhaustion with a cap from above.
    assert!(!consistent(
        "DataRole: flag
         a : flag min 3
         a : flag only boolean"
    ));
    // Mixed: a specific value excluded by a complement range.
    assert!(!consistent(
        "DataRole: v
         v(a, 5)
         a : v only not({5})"
    ));
}

#[test]
fn global_tbox_with_at_most_zero() {
    // ⊤ ⊑ ≤0.r forbids all r-edges.
    assert!(!consistent(
        "Thing SubClassOf r max 0
         r(a, b)"
    ));
    assert!(consistent("Thing SubClassOf r max 0\na : A"));
}

#[test]
fn resource_limits_do_not_misreport() {
    // With a tiny node budget the reasoner must error, not guess.
    let kb = parse_kb(
        "A SubClassOf r some A
         x : A",
    )
    .unwrap();
    let r = QueryEngine::with_config(
        &kb,
        Config {
            max_nodes: 1,
            ..Config::default()
        },
    );
    assert!(r.is_consistent().is_err());
}

#[test]
fn deep_taxonomy_instance_retrieval() {
    // depth-6 chain: instance checks climb the whole chain.
    let mut src = String::new();
    for i in 0..6 {
        src.push_str(&format!("L{} SubClassOf L{}\n", i + 1, i));
    }
    src.push_str("x : L6\n");
    let kb = parse_kb(&src).unwrap();
    let r = QueryEngine::new(&kb);
    assert!(r
        .is_instance_of(&dl::IndividualName::new("x"), &Concept::atomic("L0"))
        .expect("within limits"));
    assert!(!r
        .is_instance_of(&dl::IndividualName::new("x"), &Concept::atomic("M"))
        .expect("within limits"));
}

#[test]
fn merge_cascade_stress() {
    // A chain of ≤1-merges: a's children all collapse into one node that
    // accumulates every label.
    assert!(!consistent(
        "hasChild(a, b1)
         hasChild(a, b2)
         hasChild(a, b3)
         a : hasChild max 1
         b1 : A
         b2 : B
         b3 : not A"
    ));
    assert!(consistent(
        "hasChild(a, b1)
         hasChild(a, b2)
         hasChild(a, b3)
         a : hasChild max 1
         b1 : A
         b2 : B
         b3 : A"
    ));
}
