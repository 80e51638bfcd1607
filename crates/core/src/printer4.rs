//! Pretty printer for SHOIN(D)4 knowledge bases, emitting exactly the
//! keyword syntax [`crate::parse_kb4`] reads, so
//! `parse_kb4(print_kb4(kb)) == kb`.
//!
//! This is distinct from [`Axiom4`]'s `Display`, which uses the paper's
//! mathematical symbols (`↦ ⊏ →`, `¬R(a,b)`, `≠`) and is *not* parseable.

use crate::inclusion::InclusionKind;
use crate::kb4::{Axiom4, KnowledgeBase4};
use std::fmt::Write as _;

fn concept_keyword(kind: InclusionKind) -> &'static str {
    kind.keyword()
}

fn role_keyword(kind: InclusionKind) -> &'static str {
    match kind {
        InclusionKind::Material => "MaterialSubRoleOf",
        InclusionKind::Internal => "SubRoleOf",
        InclusionKind::Strong => "StrongSubRoleOf",
    }
}

fn data_role_keyword(kind: InclusionKind) -> &'static str {
    match kind {
        InclusionKind::Material => "MaterialSubDataRoleOf",
        InclusionKind::Internal => "SubDataRoleOf",
        InclusionKind::Strong => "StrongSubDataRoleOf",
    }
}

/// A statement may not *start* with `not` (the parser reserves that for
/// negative role assertions), so parenthesize a leading negation.
fn lhs(c: &dl::Concept) -> String {
    let s = c.to_string();
    if s.starts_with("not ") {
        format!("({s})")
    } else {
        s
    }
}

/// Render one axiom as a single parseable statement line.
pub fn print_axiom4(ax: &Axiom4) -> String {
    let mut out = String::new();
    write_axiom4(&mut out, ax);
    out
}

/// [`print_axiom4`], appended to `out`.
pub(crate) fn write_axiom4(out: &mut String, ax: &Axiom4) {
    // Writing to a `String` cannot fail.
    let _ = match ax {
        Axiom4::ConceptInclusion(k, c, d) => {
            write!(out, "{} {} {d}", lhs(c), concept_keyword(*k))
        }
        Axiom4::RoleInclusion(k, r, s) => write!(out, "{r} {} {s}", role_keyword(*k)),
        Axiom4::DataRoleInclusion(k, u, v) => {
            write!(out, "{u} {} {v}", data_role_keyword(*k))
        }
        Axiom4::Transitive(r) => write!(out, "Transitive({r})"),
        Axiom4::ConceptAssertion(a, c) => write!(out, "{a} : {c}"),
        Axiom4::RoleAssertion(r, a, b) => write!(out, "{r}({a}, {b})"),
        Axiom4::NegativeRoleAssertion(r, a, b) => write!(out, "not {r}({a}, {b})"),
        Axiom4::DataAssertion(u, a, v) => write!(out, "{u}({a}, {v})"),
        Axiom4::SameIndividual(a, b) => write!(out, "{a} = {b}"),
        Axiom4::DifferentIndividuals(a, b) => write!(out, "{a} != {b}"),
    };
}

/// Render a whole KB in parseable form, emitting a `DataRole:` declaration
/// first when needed so data restrictions re-parse as data restrictions.
pub fn print_kb4(kb: &KnowledgeBase4) -> String {
    let mut out = String::new();
    let sig = kb.signature();
    if !sig.data_roles.is_empty() {
        out.push_str("DataRole:");
        for u in &sig.data_roles {
            out.push(' ');
            out.push_str(u.as_str());
        }
        out.push('\n');
    }
    for ax in kb.axioms() {
        out.push_str(&print_axiom4(ax));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser4::parse_kb4;

    fn round_trips(src: &str) {
        let kb = parse_kb4(src).unwrap();
        let printed = print_kb4(&kb);
        let reparsed =
            parse_kb4(&printed).unwrap_or_else(|e| panic!("reparse of:\n{printed}\nfailed: {e}"));
        assert_eq!(reparsed, kb, "printed form:\n{printed}");
    }

    #[test]
    fn all_inclusion_kinds_round_trip() {
        round_trips(
            "A MaterialSubClassOf B
             C SubClassOf D
             E StrongSubClassOf F
             r MaterialSubRoleOf s
             r SubRoleOf t
             inverse r StrongSubRoleOf s
             u MaterialSubDataRoleOf v
             u SubDataRoleOf w
             u StrongSubDataRoleOf v",
        );
    }

    #[test]
    fn assertions_and_declarations_round_trip() {
        round_trips(
            "DataRole: age
             Adult MaterialSubClassOf age some integer[18..]
             Transitive(anc)
             a : A and not B
             r(a, b)
             not r(b, a)
             age(a, 42)
             a = b
             a != c",
        );
    }

    #[test]
    fn paper_example_3_round_trips() {
        round_trips(
            "Bird and (hasWing some Wing) MaterialSubClassOf Fly
             Penguin SubClassOf Bird
             Penguin SubClassOf hasWing some Wing
             Penguin SubClassOf not Fly
             tweety : Bird
             tweety : Penguin
             w : Wing
             hasWing(tweety, w)",
        );
    }

    #[test]
    fn leading_negation_on_the_left_side_round_trips() {
        use crate::inclusion::InclusionKind;
        use crate::kb4::{Axiom4, KnowledgeBase4};
        use dl::Concept;
        for kind in InclusionKind::ALL {
            let kb = KnowledgeBase4::from_axioms([Axiom4::ConceptInclusion(
                kind,
                Concept::atomic("A").not(),
                Concept::atomic("B"),
            )]);
            let printed = print_kb4(&kb);
            let reparsed = parse_kb4(&printed)
                .unwrap_or_else(|e| panic!("reparse of:\n{printed}\nfailed: {e}"));
            assert_eq!(reparsed, kb, "printed form:\n{printed}");
        }
    }

    #[test]
    fn printed_form_uses_keywords_not_paper_symbols() {
        let kb = parse_kb4("A MaterialSubClassOf B\nnot r(a, b)").unwrap();
        let printed = print_kb4(&kb);
        assert!(printed.contains("A MaterialSubClassOf B"), "{printed}");
        assert!(printed.contains("not r(a, b)"), "{printed}");
        assert!(!printed.contains('↦'), "{printed}");
        assert!(!printed.contains('¬'), "{printed}");
    }
}
