//! End-to-end reproduction of every worked example in the paper
//! (Examples 1–5), driving the full pipeline: concrete syntax →
//! SHOIN(D)4 KB → transformation → classical tableau → four-valued
//! answers.

use dl::{Concept, IndividualName, RoleExpr};
use fourval::TruthValue;
use shoin4::{parse_kb4, Axiom4, InclusionKind, Reasoner4};

fn ind(s: &str) -> IndividualName {
    IndividualName::new(s)
}

/// Example 1: instance query under a localized contradiction.
#[test]
fn example_1_bill_is_a_doctor() {
    let kb = parse_kb4(
        "hasPatient some Patient SubClassOf Doctor
         john : Doctor
         john : not Doctor
         mary : Patient
         hasPatient(bill, mary)",
    )
    .unwrap();
    let r = Reasoner4::new(&kb);
    assert!(r.is_satisfiable().unwrap(), "KB4 must be satisfiable");
    let doctor = Concept::atomic("Doctor");
    // "is there any information indicating bill is a doctor?" — yes.
    assert!(r.has_positive_info(&ind("bill"), &doctor).unwrap());
    // "…that bill is NOT a doctor?" — no (the paper exhibits a model
    // where bill ∉ proj⁻(Doctor)).
    assert!(!r.has_negative_info(&ind("bill"), &doctor).unwrap());
}

/// Example 2: the medical access-control contradiction.
#[test]
fn example_2_access_control() {
    let kb = parse_kb4(
        "SurgicalTeam SubClassOf not ReadPatientRecordTeam
         UrgencyTeam SubClassOf ReadPatientRecordTeam
         john : SurgicalTeam
         john : UrgencyTeam",
    )
    .unwrap();
    let r = Reasoner4::new(&kb);
    assert!(r.is_satisfiable().unwrap());
    let read = Concept::atomic("ReadPatientRecordTeam");
    // Both aspects of the contradiction are reported...
    assert!(r.has_positive_info(&ind("john"), &read).unwrap());
    assert!(r.has_negative_info(&ind("john"), &read).unwrap());
    // ...while unrelated queries stay silent (no explosion):
    let patient = Concept::atomic("Patient");
    assert!(!r.has_positive_info(&ind("john"), &patient).unwrap());
    assert!(!r.has_negative_info(&ind("john"), &patient).unwrap());
}

/// Example 3 (classical reading): the penguin KB is classically
/// unsatisfiable, "from which everything follows".
#[test]
fn example_3_classical_reading_explodes() {
    let kb = dl::parser::parse_kb(
        "Bird and (hasWing some Wing) SubClassOf Fly
         Penguin SubClassOf Bird
         Penguin SubClassOf hasWing some Wing
         Penguin SubClassOf not Fly
         tweety : Bird
         tweety : Penguin
         w : Wing
         hasWing(tweety, w)",
    )
    .unwrap();
    let r = tableau::QueryEngine::new(&kb);
    assert!(!r.is_consistent().unwrap());
    // Triviality: an absurd query is "entailed".
    assert!(r
        .entails(&dl::Axiom::ConceptAssertion(
            ind("w"),
            Concept::atomic("Penguin"),
        ))
        .unwrap());
}

/// Examples 3 + 5 (four-valued reading): satisfiable, with
/// `Fly⁻(tweety)` holding and `Fly⁺(tweety)` not holding.
#[test]
fn example_3_and_5_four_valued_reading() {
    let kb = parse_kb4(
        "Bird and (hasWing some Wing) MaterialSubClassOf Fly
         Penguin SubClassOf Bird
         Penguin SubClassOf hasWing some Wing
         Penguin SubClassOf not Fly
         tweety : Bird
         tweety : Penguin
         w : Wing
         hasWing(tweety, w)",
    )
    .unwrap();
    let r = Reasoner4::new(&kb);
    assert!(r.is_satisfiable().unwrap());
    let fly = Concept::atomic("Fly");
    assert!(r.has_negative_info(&ind("tweety"), &fly).unwrap());
    assert!(!r.has_positive_info(&ind("tweety"), &fly).unwrap());
    assert_eq!(r.query(&ind("tweety"), &fly).unwrap(), TruthValue::False);
    // Non-trivial: positive info about being a penguin and a bird stays.
    assert_eq!(
        r.query(&ind("tweety"), &Concept::atomic("Penguin"))
            .unwrap(),
        TruthValue::True
    );
}

/// Example 5's transformed TBox: verify the exact classical induced KB
/// the paper prints.
#[test]
fn example_5_induced_kb_shape() {
    let kb = parse_kb4(
        "Bird and (hasWing some Wing) MaterialSubClassOf Fly
         Penguin SubClassOf Bird
         Penguin SubClassOf hasWing some Wing
         Penguin SubClassOf not Fly
         tweety : Bird
         tweety : Penguin
         w : Wing
         hasWing(tweety, w)",
    )
    .unwrap();
    let induced = shoin4::transform_kb(&kb);
    let printed = dl::printer::print_kb(&induced);
    // ¬(Bird⁻ ⊔ ∀hasWing⁺.Wing⁻) ⊑ Fly⁺  (the paper's ¬Bird⁻ ⊓ ¬∀…
    // form, de-Morganed — semantically identical, printed via our ¬(⊔)).
    assert!(
        printed.contains("not (Bird- or hasWing+ only Wing-) SubClassOf Fly+"),
        "material axiom image missing:\n{printed}"
    );
    assert!(printed.contains("Penguin+ SubClassOf Bird+"));
    assert!(printed.contains("Penguin+ SubClassOf hasWing+ some Wing+"));
    assert!(printed.contains("Penguin+ SubClassOf Fly-"));
    assert!(printed.contains("tweety : Penguin+"));
    assert!(printed.contains("hasWing+(tweety, w)"));
}

/// Example 4: the adoption KB is satisfiable and answers both queries.
#[test]
fn example_4_adoption() {
    let kb = parse_kb4(
        "hasChild min 1 SubClassOf Parent
         Parent MaterialSubClassOf Married
         hasChild(smith, kate)
         smith : not Married",
    )
    .unwrap();
    let r = Reasoner4::new(&kb);
    assert!(r.is_satisfiable().unwrap());
    assert!(r
        .has_positive_info(&ind("smith"), &Concept::atomic("Parent"))
        .unwrap());
    assert!(r
        .has_negative_info(&ind("smith"), &Concept::atomic("Married"))
        .unwrap());
    // Married(smith) is f or ⊤ across models but positive info is NOT
    // entailed (M5/M6/M9 in Table 4 have Married(s) = f).
    assert!(!r
        .has_positive_info(&ind("smith"), &Concept::atomic("Married"))
        .unwrap());
}

/// The classical counterpart of Example 4 from the paper's narrative:
/// "it can not be expressed by any classical OWL DL ontology language
/// without contradiction".
#[test]
fn example_4_classical_reading_is_inconsistent() {
    let kb = dl::parser::parse_kb(
        "hasChild min 1 SubClassOf Parent
         Parent SubClassOf Married
         hasChild(smith, kate)
         smith : not Married",
    )
    .unwrap();
    let r = tableau::QueryEngine::new(&kb);
    assert!(!r.is_consistent().unwrap());
}

/// The three inclusion kinds behave per §3.1's bird narrative.
#[test]
fn inclusion_kind_narrative() {
    // Strong: a non-flyer is a non-bird.
    let strong = Reasoner4::new(&parse_kb4("Bird StrongSubClassOf Fly\nx : not Fly").unwrap());
    assert_eq!(
        strong.query(&ind("x"), &Concept::atomic("Bird")).unwrap(),
        TruthValue::False
    );
    // Internal: "this implication still cannot tell us whether it is not
    // a bird".
    let internal = Reasoner4::new(&parse_kb4("Bird SubClassOf Fly\nx : not Fly").unwrap());
    assert_eq!(
        internal.query(&ind("x"), &Concept::atomic("Bird")).unwrap(),
        TruthValue::Neither
    );
    // Material: the inclusion itself is entailed by its own KB.
    let material = Reasoner4::new(&parse_kb4("Bird MaterialSubClassOf Fly").unwrap());
    assert!(material
        .entails(&Axiom4::ConceptInclusion(
            InclusionKind::Material,
            Concept::atomic("Bird"),
            Concept::atomic("Fly"),
        ))
        .unwrap());
}

/// Role-level four-valued information flows end to end.
#[test]
fn role_information_end_to_end() {
    let kb = parse_kb4(
        "hasSon SubRoleOf hasChild
         hasSon(a, b)
         not hasChild(c, d)",
    )
    .unwrap();
    let r = Reasoner4::new(&kb);
    // Positive info propagates through the (internal) role hierarchy.
    assert!(r
        .has_positive_role_info(&dl::RoleName::new("hasChild"), &ind("a"), &ind("b"))
        .unwrap());
    // Negative info on an unrelated pair answers f.
    assert_eq!(
        r.query_role(&dl::RoleName::new("hasChild"), &ind("c"), &ind("d"))
            .unwrap(),
        TruthValue::False
    );
}

/// Inverse roles and number restrictions survive the transformation.
#[test]
fn inverse_and_number_restrictions_through_pipeline() {
    let kb = parse_kb4(
        "inverse employs some Company SubClassOf Employed
         employs(acme, ann)
         acme : Company",
    )
    .unwrap();
    let r = Reasoner4::new(&kb);
    assert!(r
        .has_positive_info(&ind("ann"), &Concept::atomic("Employed"))
        .unwrap());

    // ≥-restriction as the inclusion premise (Example 4's shape) with an
    // inverse role.
    let kb = parse_kb4(
        "inverse hasChild min 1 SubClassOf Child
         hasChild(smith, kate)",
    )
    .unwrap();
    let r = Reasoner4::new(&kb);
    assert!(r
        .has_positive_info(&ind("kate"), &Concept::atomic("Child"))
        .unwrap());
    assert!(!r
        .has_positive_info(&ind("smith"), &Concept::atomic("Child"))
        .unwrap());
    // Double-check the transformed role expression is the inverse of the
    // plus-companion.
    let c = Concept::at_least(1, RoleExpr::named("hasChild").inverse());
    let t = shoin4::transform_concept(&c);
    assert_eq!(
        t,
        Concept::at_least(1, RoleExpr::named("hasChild+").inverse())
    );
}
