//! The SHOIN(D) concept language (Table 1 of the paper).
//!
//! Constructors: `⊤`, `⊥`, atomic concepts, full negation `¬C`,
//! conjunction `C ⊓ D`, disjunction `C ⊔ D`, nominals `{o₁,…}`, exists /
//! value restrictions `∃R.C` / `∀R.C`, unqualified number restrictions
//! `≥n.R` / `≤n.R` (SHOIN has no qualified ones), and the datatype
//! counterparts `∃U.D`, `∀U.D`, `≥n.U`, `≤n.U`.
//!
//! Concepts are immutable trees with `Arc` sharing, so cloning a complex
//! concept is O(1) and the SHOIN(D)4 transformation can share subterms.

use crate::axiom::RoleExpr;
use crate::datatype::DataRange;
use crate::name::{ConceptName, DataRoleName, IndividualName};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The deepest concept tree accepted from outside the program: the
/// text parser and the snapshot decoder reject a taller one with a
/// typed error, and both count levels with `deeper`.
///
/// The root is level 1. The operand of `not`, a restriction's filler
/// and both sides of `and`/`or` sit one level below their node, so an
/// `and`/`or` chain, which folds left-deep, takes a level per link. A
/// data restriction's range sits at the restriction's level and a
/// complement puts its operand one level lower, so `u some not(integer)`
/// stands two levels tall. The cap holds for the concepts an axiom
/// stores: `C DisjointWith D` is stored as `C and D SubClassOf Nothing`,
/// one level taller than its taller side. The parser also holds its own
/// nesting (parentheses, `not`, restriction fillers) to twice this cap,
/// which admits every concept the printer writes for an accepted tree.
///
/// Parsing, NNF, the transform, the told and dataflow passes, the
/// tableau, the printers and `Drop` all recurse on concept depth, and
/// the server parses and answers on threads with 2 MiB stacks. On a
/// 2 MiB thread (x86-64; release build, then the `opt-level = 1` test
/// build) the shallowest overflows measured were the parser at 2,106
/// and 2,040 nested parentheses, the snapshot decoder at 2,779 and
/// 2,666 levels, the transform at 5,935 and 7,461, and `Drop` of a
/// conjunction chain at 13,063; NNF, the printers, the tableau and
/// hashing went deeper still. The cap keeps the parser's 400 levels and
/// every other pass's 200 at least 5× below those.
pub const MAX_CONCEPT_DEPTH: usize = 200;

/// The level one below `level`, or `None` past [`MAX_CONCEPT_DEPTH`].
/// Read bottom-up, it is the height of a node whose tallest child stands
/// `level` tall.
pub(crate) fn deeper(level: usize) -> Option<usize> {
    (level < MAX_CONCEPT_DEPTH).then_some(level + 1)
}

/// A (possibly complex) SHOIN(D) concept.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Concept {
    /// The top concept `⊤` (the whole object domain).
    Top,
    /// The bottom concept `⊥` (the empty set).
    Bottom,
    /// An atomic concept name `A`.
    Atomic(ConceptName),
    /// Full negation `¬C`.
    Not(Arc<Concept>),
    /// Conjunction `C ⊓ D`.
    And(Arc<Concept>, Arc<Concept>),
    /// Disjunction `C ⊔ D`.
    Or(Arc<Concept>, Arc<Concept>),
    /// A nominal `{o₁, …, oₙ}`.
    OneOf(BTreeSet<IndividualName>),
    /// Exists restriction `∃R.C`.
    Some(RoleExpr, Arc<Concept>),
    /// Value restriction `∀R.C`.
    All(RoleExpr, Arc<Concept>),
    /// At-least restriction `≥ n.R` (unqualified).
    AtLeast(u32, RoleExpr),
    /// At-most restriction `≤ n.R` (unqualified).
    AtMost(u32, RoleExpr),
    /// Datatype exists restriction `∃U.D`.
    DataSome(DataRoleName, DataRange),
    /// Datatype value restriction `∀U.D`.
    DataAll(DataRoleName, DataRange),
    /// Datatype at-least restriction `≥ n.U`.
    DataAtLeast(u32, DataRoleName),
    /// Datatype at-most restriction `≤ n.U`.
    DataAtMost(u32, DataRoleName),
}

impl Concept {
    /// An atomic concept.
    pub fn atomic(name: impl Into<ConceptName>) -> Concept {
        Concept::Atomic(name.into())
    }

    /// `¬self`, with double negations collapsed structurally *not* here —
    /// NNF handles that; this stays purely syntactic to honour the paper's
    /// transformation cases (which treat `¬¬D` explicitly).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Concept {
        Concept::Not(Arc::new(self))
    }

    /// `self ⊓ rhs`
    pub fn and(self, rhs: Concept) -> Concept {
        Concept::And(Arc::new(self), Arc::new(rhs))
    }

    /// `self ⊔ rhs`
    pub fn or(self, rhs: Concept) -> Concept {
        Concept::Or(Arc::new(self), Arc::new(rhs))
    }

    /// Fold a non-empty sequence of concepts into a left-nested `⊓`.
    /// Returns `⊤` for an empty sequence.
    pub fn and_all(cs: impl IntoIterator<Item = Concept>) -> Concept {
        cs.into_iter()
            .reduce(|a, b| a.and(b))
            .unwrap_or(Concept::Top)
    }

    /// Fold a non-empty sequence of concepts into a left-nested `⊔`.
    /// Returns `⊥` for an empty sequence.
    pub fn or_all(cs: impl IntoIterator<Item = Concept>) -> Concept {
        cs.into_iter()
            .reduce(|a, b| a.or(b))
            .unwrap_or(Concept::Bottom)
    }

    /// `∃R.self` reads better flipped: `Concept::some(r, c)`.
    pub fn some(role: RoleExpr, filler: Concept) -> Concept {
        Concept::Some(role, Arc::new(filler))
    }

    /// `∀R.C`
    pub fn all(role: RoleExpr, filler: Concept) -> Concept {
        Concept::All(role, Arc::new(filler))
    }

    /// `≥ n.R`
    pub fn at_least(n: u32, role: RoleExpr) -> Concept {
        Concept::AtLeast(n, role)
    }

    /// `≤ n.R`
    pub fn at_most(n: u32, role: RoleExpr) -> Concept {
        Concept::AtMost(n, role)
    }

    /// `{o₁, …}`
    pub fn one_of(individuals: impl IntoIterator<Item = IndividualName>) -> Concept {
        Concept::OneOf(individuals.into_iter().collect())
    }

    /// Is this a literal — an atomic concept or its negation?
    pub fn is_literal(&self) -> bool {
        match self {
            Concept::Atomic(_) => true,
            Concept::Not(inner) => matches!(**inner, Concept::Atomic(_)),
            _ => false,
        }
    }

    /// Structural size (number of AST nodes) — the measure for the
    /// "polynomial-time transformation" claim.
    pub fn size(&self) -> usize {
        match self {
            Concept::Top
            | Concept::Bottom
            | Concept::Atomic(_)
            | Concept::OneOf(_)
            | Concept::AtLeast(..)
            | Concept::AtMost(..)
            | Concept::DataSome(..)
            | Concept::DataAll(..)
            | Concept::DataAtLeast(..)
            | Concept::DataAtMost(..) => 1,
            Concept::Not(c) => 1 + c.size(),
            Concept::And(l, r) | Concept::Or(l, r) => 1 + l.size() + r.size(),
            Concept::Some(_, c) | Concept::All(_, c) => 1 + c.size(),
        }
    }

    /// Maximal nesting depth of role restrictions — the "modal depth" knob
    /// used by workload generators.
    pub fn modal_depth(&self) -> usize {
        match self {
            Concept::Some(_, c) | Concept::All(_, c) => 1 + c.modal_depth(),
            Concept::Not(c) => c.modal_depth(),
            Concept::And(l, r) | Concept::Or(l, r) => l.modal_depth().max(r.modal_depth()),
            _ => 0,
        }
    }

    /// Visit every subconcept (including `self`), outer first.
    pub fn for_each_subconcept<'a>(&'a self, f: &mut impl FnMut(&'a Concept)) {
        f(self);
        match self {
            Concept::Not(c) | Concept::Some(_, c) | Concept::All(_, c) => c.for_each_subconcept(f),
            Concept::And(l, r) | Concept::Or(l, r) => {
                l.for_each_subconcept(f);
                r.for_each_subconcept(f);
            }
            _ => {}
        }
    }

    /// All atomic concept names occurring in the concept.
    pub fn concept_names(&self) -> BTreeSet<ConceptName> {
        let mut out = BTreeSet::new();
        self.for_each_subconcept(&mut |c| {
            if let Concept::Atomic(a) = c {
                out.insert(a.clone());
            }
        });
        out
    }

    /// All object role names (through inverses) occurring in the concept.
    pub fn role_names(&self) -> BTreeSet<crate::name::RoleName> {
        let mut out = BTreeSet::new();
        self.for_each_subconcept(&mut |c| match c {
            Concept::Some(r, _) | Concept::All(r, _) => {
                out.insert(r.name().clone());
            }
            Concept::AtLeast(_, r) | Concept::AtMost(_, r) => {
                out.insert(r.name().clone());
            }
            _ => {}
        });
        out
    }

    /// All data role names occurring in the concept.
    pub fn data_role_names(&self) -> BTreeSet<DataRoleName> {
        let mut out = BTreeSet::new();
        self.for_each_subconcept(&mut |c| match c {
            Concept::DataSome(u, _)
            | Concept::DataAll(u, _)
            | Concept::DataAtLeast(_, u)
            | Concept::DataAtMost(_, u) => {
                out.insert(u.clone());
            }
            _ => {}
        });
        out
    }

    /// All individual names in nominals.
    pub fn individual_names(&self) -> BTreeSet<IndividualName> {
        let mut out = BTreeSet::new();
        self.for_each_subconcept(&mut |c| {
            if let Concept::OneOf(os) = c {
                out.extend(os.iter().cloned());
            }
        });
        out
    }
}

/// One entry per [`Concept`] constructor — the exhaustiveness registry.
///
/// Passes like NNF, printing, and the Definition 5–7 transformation must
/// handle *every* constructor. Each keeps a coverage test that walks
/// [`ConceptVariant::ALL`] and feeds it [`ConceptVariant::sample`]; adding
/// a constructor here without extending [`Concept::variant`] fails to
/// compile (the match below is exhaustive with no wildcard), and adding it
/// in both places makes every coverage test exercise the new case for
/// free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConceptVariant {
    Top,
    Bottom,
    Atomic,
    Not,
    And,
    Or,
    OneOf,
    Some,
    All,
    AtLeast,
    AtMost,
    DataSome,
    DataAll,
    DataAtLeast,
    DataAtMost,
}

impl ConceptVariant {
    /// Every constructor of the concept language, in declaration order.
    pub const ALL: [ConceptVariant; 15] = [
        ConceptVariant::Top,
        ConceptVariant::Bottom,
        ConceptVariant::Atomic,
        ConceptVariant::Not,
        ConceptVariant::And,
        ConceptVariant::Or,
        ConceptVariant::OneOf,
        ConceptVariant::Some,
        ConceptVariant::All,
        ConceptVariant::AtLeast,
        ConceptVariant::AtMost,
        ConceptVariant::DataSome,
        ConceptVariant::DataAll,
        ConceptVariant::DataAtLeast,
        ConceptVariant::DataAtMost,
    ];

    /// A small representative concept using this constructor at the root,
    /// with non-trivial sub-structure where the constructor allows it.
    pub fn sample(self) -> Concept {
        let a = Concept::atomic("A");
        let b = Concept::atomic("B");
        let r = RoleExpr::named("r");
        let u = DataRoleName::new("u");
        let d = DataRange::IntRange {
            min: Some(0),
            max: Some(9),
        };
        match self {
            ConceptVariant::Top => Concept::Top,
            ConceptVariant::Bottom => Concept::Bottom,
            ConceptVariant::Atomic => a,
            ConceptVariant::Not => a.and(b).not(),
            ConceptVariant::And => a.and(b.not()),
            ConceptVariant::Or => a.or(b),
            ConceptVariant::OneOf => {
                Concept::one_of([IndividualName::new("o1"), IndividualName::new("o2")])
            }
            ConceptVariant::Some => Concept::some(r, a.not()),
            ConceptVariant::All => Concept::all(r, a.or(b)),
            ConceptVariant::AtLeast => Concept::at_least(2, r),
            ConceptVariant::AtMost => Concept::at_most(1, r.inverse()),
            ConceptVariant::DataSome => Concept::DataSome(u, d),
            ConceptVariant::DataAll => Concept::DataAll(u, d),
            ConceptVariant::DataAtLeast => Concept::DataAtLeast(2, u),
            ConceptVariant::DataAtMost => Concept::DataAtMost(1, u),
        }
    }
}

impl Concept {
    /// The constructor at the root of this concept.
    ///
    /// The match is deliberately wildcard-free: a new `Concept` variant
    /// fails compilation here until [`ConceptVariant`] learns about it,
    /// which in turn routes it into every registry-driven coverage test.
    pub fn variant(&self) -> ConceptVariant {
        match self {
            Concept::Top => ConceptVariant::Top,
            Concept::Bottom => ConceptVariant::Bottom,
            Concept::Atomic(_) => ConceptVariant::Atomic,
            Concept::Not(_) => ConceptVariant::Not,
            Concept::And(..) => ConceptVariant::And,
            Concept::Or(..) => ConceptVariant::Or,
            Concept::OneOf(_) => ConceptVariant::OneOf,
            Concept::Some(..) => ConceptVariant::Some,
            Concept::All(..) => ConceptVariant::All,
            Concept::AtLeast(..) => ConceptVariant::AtLeast,
            Concept::AtMost(..) => ConceptVariant::AtMost,
            Concept::DataSome(..) => ConceptVariant::DataSome,
            Concept::DataAll(..) => ConceptVariant::DataAll,
            Concept::DataAtLeast(..) => ConceptVariant::DataAtLeast,
            Concept::DataAtMost(..) => ConceptVariant::DataAtMost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axiom::RoleExpr;

    fn r(s: &str) -> RoleExpr {
        RoleExpr::named(s)
    }

    #[test]
    fn builders_compose() {
        let c = Concept::atomic("Bird").and(Concept::some(r("hasWing"), Concept::atomic("Wing")));
        assert_eq!(c.size(), 4);
        assert_eq!(c.modal_depth(), 1);
    }

    #[test]
    fn and_all_or_all_handle_edges() {
        assert_eq!(Concept::and_all([]), Concept::Top);
        assert_eq!(Concept::or_all([]), Concept::Bottom);
        let a = Concept::atomic("A");
        assert_eq!(Concept::and_all([a.clone()]), a);
    }

    #[test]
    fn literal_recognition() {
        assert!(Concept::atomic("A").is_literal());
        assert!(Concept::atomic("A").not().is_literal());
        assert!(!Concept::atomic("A").not().not().is_literal());
        assert!(!Concept::Top.is_literal());
    }

    #[test]
    fn signature_extraction() {
        let c = Concept::some(
            r("hasChild"),
            Concept::atomic("Parent").or(Concept::one_of([IndividualName::new("kate")])),
        )
        .and(Concept::DataSome(
            DataRoleName::new("hasAge"),
            DataRange::IntRange {
                min: Some(0),
                max: None,
            },
        ));
        assert!(c.concept_names().contains(&ConceptName::new("Parent")));
        assert!(c
            .role_names()
            .contains(&crate::name::RoleName::new("hasChild")));
        assert!(c.data_role_names().contains(&DataRoleName::new("hasAge")));
        assert!(c.individual_names().contains(&IndividualName::new("kate")));
    }

    #[test]
    fn inverse_roles_contribute_their_name() {
        let c = Concept::some(r("worksFor").inverse(), Concept::Top);
        assert!(c
            .role_names()
            .contains(&crate::name::RoleName::new("worksFor")));
    }

    #[test]
    fn modal_depth_nests() {
        let c = Concept::some(r("r"), Concept::all(r("s"), Concept::atomic("A")));
        assert_eq!(c.modal_depth(), 2);
    }

    #[test]
    fn sharing_makes_clone_cheap() {
        // Clones share subterm allocations (pointer equality on the Arc).
        let base = Concept::atomic("A").and(Concept::atomic("B"));
        let c1 = base.clone();
        if let (Concept::And(l1, _), Concept::And(l2, _)) = (&base, &c1) {
            assert!(Arc::ptr_eq(l1, l2));
        } else {
            panic!("expected And");
        }
    }
}
