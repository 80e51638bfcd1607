//! Cross-method comparison on the paper's scenarios: how each
//! inconsistency-handling family behaves on the same contradictions —
//! the qualitative content of the paper's §1 and §5.

use baselines::classical::ClassicalBaseline;
use baselines::mcs::{McsBaseline, McsMode, RelevanceBaseline};
use baselines::stratified::StratifiedBaseline;
use baselines::{Answer, InconsistencyBaseline};
use dl::parser::parse_kb;
use dl::{Axiom, Concept, IndividualName};
use shoin4::{InclusionKind, KnowledgeBase4, Reasoner4};

fn q(i: &str, c: &str) -> Axiom {
    Axiom::ConceptAssertion(IndividualName::new(i), Concept::atomic(c))
}

/// The paper's §1 motivating claim: classically, the medical KB entails
/// even the irrelevant `Patient(john)`.
#[test]
fn classical_explosion_on_example_2() {
    let kb = parse_kb(
        "SurgicalTeam SubClassOf not ReadPatientRecordTeam
         UrgencyTeam SubClassOf ReadPatientRecordTeam
         john : SurgicalTeam
         john : UrgencyTeam",
    )
    .unwrap();
    let r = tableau::QueryEngine::new(&kb);
    assert!(!r.is_consistent().unwrap());
    assert!(
        r.entails(&q("john", "Patient")).unwrap(),
        "ex falso quodlibet"
    );
    // The baseline wrapper reports this as a degenerate answer.
    let mut b = ClassicalBaseline::new(&kb);
    assert_eq!(b.entails(&q("john", "Patient")).unwrap(), Answer::Trivial);
}

/// Each family gives a different verdict on the contested fact; SHOIN(D)4
/// is the only one that *reports the conflict itself*.
#[test]
fn four_families_compared_on_example_2() {
    let src = "SurgicalTeam SubClassOf not ReadPatientRecordTeam
               UrgencyTeam SubClassOf ReadPatientRecordTeam
               john : SurgicalTeam
               john : UrgencyTeam";
    let kb = parse_kb(src).unwrap();
    let contested = q("john", "ReadPatientRecordTeam");

    let mut classical = ClassicalBaseline::new(&kb);
    assert_eq!(classical.entails(&contested).unwrap(), Answer::Trivial);

    let mut skeptical = McsBaseline::new(&kb, McsMode::Skeptical);
    assert_eq!(skeptical.entails(&contested).unwrap(), Answer::No);

    let mut credulous = McsBaseline::new(&kb, McsMode::Credulous);
    assert_eq!(credulous.entails(&contested).unwrap(), Answer::Yes);

    // Relevance selection: the conflict is syntactically adjacent to the
    // query, so the very first neighborhood is inconsistent.
    let mut relevance = RelevanceBaseline::new(&kb);
    assert_eq!(relevance.entails(&contested).unwrap(), Answer::Trivial);

    // Stratified (schema over data): both memberships get dropped, so
    // nothing about john is derivable.
    let mut stratified = StratifiedBaseline::tbox_over_abox(&kb);
    assert_eq!(stratified.entails(&contested).unwrap(), Answer::No);

    // SHOIN(D)4: the conflict is the answer.
    let kb4 = KnowledgeBase4::from_classical(&kb, InclusionKind::Internal);
    let four = Reasoner4::new(&kb4);
    assert_eq!(
        four.query(
            &IndividualName::new("john"),
            &Concept::atomic("ReadPatientRecordTeam")
        )
        .unwrap(),
        fourval::TruthValue::Both
    );
}

/// On a *consistent* KB all methods agree with plain entailment.
#[test]
fn all_methods_coincide_on_consistent_input() {
    let kb = parse_kb(
        "Surgeon SubClassOf Doctor
         Doctor SubClassOf Person
         s : Surgeon",
    )
    .unwrap();
    let positive = q("s", "Person");
    let negative = q("s", "Nurse");
    let methods: Vec<Box<dyn InconsistencyBaseline>> = vec![
        Box::new(ClassicalBaseline::new(&kb)),
        Box::new(McsBaseline::new(&kb, McsMode::Skeptical)),
        Box::new(McsBaseline::new(&kb, McsMode::Credulous)),
        Box::new(RelevanceBaseline::new(&kb)),
        Box::new(StratifiedBaseline::tbox_over_abox(&kb)),
    ];
    for mut m in methods {
        assert_eq!(m.entails(&positive).unwrap(), Answer::Yes, "{}", m.name());
        assert_eq!(m.entails(&negative).unwrap(), Answer::No, "{}", m.name());
    }
    let kb4 = KnowledgeBase4::from_classical(&kb, InclusionKind::Internal);
    let four = Reasoner4::new(&kb4);
    assert!(four
        .has_positive_info(&IndividualName::new("s"), &Concept::atomic("Person"))
        .unwrap());
    assert!(!four
        .has_positive_info(&IndividualName::new("s"), &Concept::atomic("Nurse"))
        .unwrap());
}

/// The paper's §5 critique of subset selection: repairs *discard*
/// information, so conclusions that depend on discarded-but-uncontested
/// facts are lost; SHOIN(D)4 keeps them.
#[test]
fn selection_loses_uncontested_conclusions() {
    // tweety is a bird (uncontested) and the bird/fly conflict is about
    // flying only.
    let kb = parse_kb(
        "Bird SubClassOf Fly
         tweety : Bird
         tweety : not Fly",
    )
    .unwrap();
    // Skeptical MCS: one repair drops `tweety : Bird`, so even
    // birdhood — never itself contradicted — is no longer skeptically
    // entailed.
    let mut skeptical = McsBaseline::new(&kb, McsMode::Skeptical);
    assert_eq!(skeptical.entails(&q("tweety", "Bird")).unwrap(), Answer::No);
    // SHOIN(D)4 keeps it.
    let kb4 = KnowledgeBase4::from_classical(&kb, InclusionKind::Internal);
    let four = Reasoner4::new(&kb4);
    assert!(four
        .has_positive_info(&IndividualName::new("tweety"), &Concept::atomic("Bird"))
        .unwrap());
}

/// Conclusions drawn by SHOIN(D)4 "may contain contradiction also …
/// however, the inconsistencies are localized" (§5): poisoned facts are
/// ⊤ and clean facts keep their classical value.
#[test]
fn localization_on_mixed_kb() {
    let kb = parse_kb(
        "A SubClassOf B
         x : A
         x : not A
         y : A",
    )
    .unwrap();
    let kb4 = KnowledgeBase4::from_classical(&kb, InclusionKind::Internal);
    let four = Reasoner4::new(&kb4);
    let (x, y) = (IndividualName::new("x"), IndividualName::new("y"));
    assert_eq!(
        four.query(&x, &Concept::atomic("A")).unwrap(),
        fourval::TruthValue::Both
    );
    // The contradiction propagates along the inclusion only positively:
    // x is B-and-not-known-not-B.
    assert_eq!(
        four.query(&x, &Concept::atomic("B")).unwrap(),
        fourval::TruthValue::True
    );
    assert_eq!(
        four.query(&y, &Concept::atomic("B")).unwrap(),
        fourval::TruthValue::True
    );
}
