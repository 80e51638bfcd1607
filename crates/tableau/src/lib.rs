//! A classical tableau reasoner for SHOIN(D) — the two-valued execution
//! engine that the SHOIN(D)4 reduction of the paper targets.
//!
//! The calculus is the standard completion-graph tableau for
//! `SHOIN(D)`: NNF preprocessing, TBox internalization with optional
//! absorption (lazy unfolding), role hierarchies closed under inverses,
//! transitive-role `∀₊` propagation, unqualified number restrictions with
//! merge branching, nominal merging (`o`-rule) with an `NN`-rule for the
//! nominal/inverse/number interaction, pairwise blocking, and a complete
//! concrete-domain oracle for the built-in datatypes.
//!
//! # Entry points
//!
//! [`QueryEngine`] answers the four standard questions, all reduced to
//! KB satisfiability in the usual way:
//!
//! * [`QueryEngine::is_consistent`] — KB satisfiability;
//! * [`QueryEngine::is_concept_satisfiable`] — `C` satisfiable w.r.t. the KB;
//! * [`QueryEngine::is_subsumed_by`] — `KB ⊨ C ⊑ D` iff `C ⊓ ¬D` unsatisfiable;
//! * [`QueryEngine::is_instance_of`] — `KB ⊨ a:C` iff `KB ∪ {a:¬C}` inconsistent.
//!
//! Every service takes `&self` and keeps its caches behind interior
//! mutability, so one engine can be shared across `std::thread::scope`
//! workers to fan a survey out.
//!
//! ```
//! use dl::parser::parse_kb;
//! use tableau::QueryEngine;
//!
//! let kb = parse_kb(
//!     "Penguin SubClassOf Bird
//!      Penguin SubClassOf not Fly
//!      Bird SubClassOf Fly
//!      tweety : Penguin",
//! ).unwrap();
//! let r = QueryEngine::new(&kb);
//! assert!(!r.is_consistent().unwrap()); // classic contradiction
//! ```

pub mod blocking;
pub mod clash;
pub mod config;
pub mod datatype_oracle;
pub mod engine;
pub mod graph;
pub mod interrupt;
pub mod model;
pub mod node;
pub mod rules;
pub mod stats;
pub mod trail;

pub use clash::{Clash, ClashInfo};
pub use config::{Config, ReasonerError, SearchStrategy};
pub use engine::{BaseModel, QueryEngine};
pub use stats::Stats;
pub use trail::DepSet;
