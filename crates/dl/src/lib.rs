//! Abstract syntax for the description logic SHOIN(D) — the logic
//! underlying OWL DL (Table 1 of the paper) — together with knowledge
//! bases, negation normal form, a Manchester-like concrete syntax, and a
//! pretty printer.
//!
//! The crate is purely syntactic: semantics live in `fourmodels`
//! (model checking / enumeration) and `tableau` (satisfiability).
//!
//! # Layout
//!
//! * [`name`] — interned names for concepts, roles, individuals, datatypes.
//! * [`concept`] — the concept language: `⊤ ⊥ A ¬C C⊓D C⊔D {o…} ∃R.C ∀R.C
//!   ≥n.R ≤n.R ∃U.D ∀U.D ≥n.U ≤n.U`.
//! * [`datatype`] — the concrete domain `D`: values and data ranges.
//! * [`axiom`] — TBox / RBox / ABox axioms per Table 1.
//! * [`kb`] — knowledge bases and signatures.
//! * [`nnf`] — negation normal form.
//! * [`parser`] / [`printer`] — a compact Manchester-like text syntax.
//!
//! # Example
//!
//! ```
//! use dl::parser::parse_kb;
//!
//! let kb = parse_kb(
//!     "SurgicalTeam SubClassOf not ReadPatientRecordTeam
//!      UrgencyTeam SubClassOf ReadPatientRecordTeam
//!      john : SurgicalTeam
//!      john : UrgencyTeam",
//! )
//! .unwrap();
//! assert_eq!(kb.tbox().count(), 2);
//! assert_eq!(kb.abox().count(), 2);
//! ```

pub mod axiom;
pub mod concept;
pub mod datatype;
pub mod json;
pub mod kb;
pub mod name;
pub mod nnf;
pub mod parser;
pub mod printer;
pub mod snapshot;

pub use axiom::{Axiom, RoleExpr};
pub use concept::{Concept, ConceptVariant, MAX_CONCEPT_DEPTH};
pub use datatype::{DataRange, DataValue};
pub use kb::{KnowledgeBase, Signature};
pub use name::{ConceptName, DataRoleName, DatatypeName, IndividualName, RoleName};
