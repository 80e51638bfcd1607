//! **SHOIN(D)4** — the four-valued paraconsistent description logic of
//! *"Inferring with Inconsistent OWL DL Ontology: A Multi-valued Logic
//! Approach"* (Ma, Lin & Lin, 2006), implemented end to end.
//!
//! A SHOIN(D)4 knowledge base looks like OWL DL but offers **three kinds
//! of inclusion** (§3.1 of the paper):
//!
//! * *material* `C ↦ D` — allows exceptions (birds fly, penguins are the
//!   exception);
//! * *internal* `C ⊏ D` — exception-free, the four-valued reading of the
//!   classical `⊑`;
//! * *strong* `C → D` — exception-free *and* contraposable.
//!
//! Its semantics assigns every concept a pair `<P, N>` of support sets
//! (Tables 2–3), so a contradiction about `john` stays *localized*: the KB
//! keeps a model and keeps answering useful queries (Examples 1–4).
//!
//! The implementation follows the paper's pipeline exactly:
//!
//! 1. [`kb4`] — the four-valued language (syntax);
//! 2. [`interp4`] — four-valued interpretations and satisfaction
//!    (Tables 2 and 3, Definitions 2–3);
//! 3. [`transform`] — the polynomial translation to classical SHOIN(D)
//!    (Definitions 5–7): `A` becomes `A⁺`/`A⁻`, `R` becomes `R⁺`/`R⁼`;
//! 4. [`induced`] — the model correspondences of Definitions 8–9 that
//!    prove the translation faithful (Lemma 5 / Theorem 6);
//! 5. [`reasoner4`] — paraconsistent reasoning services executed by the
//!    classical [`tableau`] reasoner via Corollary 7.
//!
//! # Example (the paper's Example 1)
//!
//! ```
//! use shoin4::{parse_kb4, Reasoner4};
//!
//! let kb = parse_kb4(
//!     "hasPatient some Patient SubClassOf Doctor
//!      john : Doctor
//!      john : not Doctor
//!      mary : Patient
//!      hasPatient(bill, mary)",
//! ).unwrap();
//! let r = Reasoner4::new(&kb);
//! let doctor = dl::Concept::atomic("Doctor");
//! let bill = dl::IndividualName::new("bill");
//! // The contradiction about john does not destroy the inference
//! // that bill is a doctor...
//! assert!(r.has_positive_info(&bill, &doctor).unwrap());
//! // ...and does not smear negative information onto bill.
//! assert!(!r.has_negative_info(&bill, &doctor).unwrap());
//! ```

pub mod analysis;
pub mod cache;
pub mod command;
pub mod dataflow;
pub mod hardness;
pub mod horn;
pub mod inclusion;
pub mod incremental;
pub mod induced;
pub mod interp4;
pub mod json;
pub mod kb4;
pub mod parser4;
mod pipeline;
pub mod printer4;
pub mod reasoner4;
pub mod serve;
pub mod told;
pub mod transform;

pub use inclusion::InclusionKind;
pub use incremental::Session;
pub use interp4::Interp4;
pub use kb4::{Axiom4, KnowledgeBase4};
pub use parser4::parse_kb4;
pub use printer4::print_kb4;
pub use reasoner4::Reasoner4;
pub use transform::{transform_concept, transform_kb, transform_neg_concept};
