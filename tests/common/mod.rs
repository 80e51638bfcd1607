//! The one reference the parity suites check the production ladder
//! against: Corollary 7 straight over one unscoped classical tableau on
//! the induced KB `K̄ = transform_kb(K)` (Definitions 5–7), with no told
//! index, entailment cache, module extraction, shared row or Horn rung
//! in front of it.
//!
//! * `a : C` has information for it iff `K̄ ⊨ a : C̄`, and against it iff
//!   `K̄ ⊨ a : ¬C̄` (the transformed negation);
//! * `R(a, b)` has information for it iff `K̄ ⊨ R⁺(a, b)`, and against
//!   it iff `K̄ ⊨ a : ∀R⁼.¬{b}`, i.e. `(a, b) ∉ R⁼ = proj⁻(R)`;
//! * `C ↦ D`, `C ⊏ D` and `C → D` hold iff their unsatisfiability tests
//!   over `K̄` do; any other axiom holds iff `K̄` entails each of its
//!   classical images;
//! * `K` is satisfiable iff `K̄` is (Theorem 6).
//!
//! Each suite passes the tableau [`Config`] the oracle runs under, so a
//! suite's short time budget applies to both sides of a comparison.

use dl::axiom::{Axiom, RoleExpr};
use dl::name::{IndividualName, RoleName};
use dl::Concept;
use fourval::TruthValue;
use shoin4::transform::{self, Transformer};
use shoin4::{transform_concept, transform_kb, transform_neg_concept};
use shoin4::{Axiom4, InclusionKind, KnowledgeBase4};
use tableau::{Config, QueryEngine, ReasonerError};

/// Corollary 7 over one unscoped [`QueryEngine`] on `K̄`.
pub struct Oracle {
    engine: QueryEngine,
}

impl Oracle {
    pub fn new(kb: &KnowledgeBase4, config: Config) -> Oracle {
        Oracle {
            engine: QueryEngine::with_config(&transform_kb(kb), config),
        }
    }

    /// `K̄ ⊨ a : C̄`.
    #[allow(dead_code)]
    pub fn has_positive_info(
        &self,
        a: &IndividualName,
        c: &Concept,
    ) -> Result<bool, ReasonerError> {
        self.engine.is_instance_of(a, &transform_concept(c))
    }

    /// `K̄ ⊨ a : ¬C̄`.
    #[allow(dead_code)]
    pub fn has_negative_info(
        &self,
        a: &IndividualName,
        c: &Concept,
    ) -> Result<bool, ReasonerError> {
        self.engine.is_instance_of(a, &transform_neg_concept(c))
    }

    pub fn query(&self, a: &IndividualName, c: &Concept) -> Result<TruthValue, ReasonerError> {
        Ok(TruthValue::from_bits(
            self.engine.is_instance_of(a, &transform_concept(c))?,
            self.engine.is_instance_of(a, &transform_neg_concept(c))?,
        ))
    }

    #[allow(dead_code)]
    pub fn query_role(
        &self,
        r: &RoleName,
        a: &IndividualName,
        b: &IndividualName,
    ) -> Result<TruthValue, ReasonerError> {
        let plus = Axiom::RoleAssertion(r.with_suffix(transform::POS_SUFFIX), a.clone(), b.clone());
        let not_b = Concept::all(
            transform::eq_role(&RoleExpr::named(r.clone())),
            Concept::one_of([b.clone()]).not(),
        );
        Ok(TruthValue::from_bits(
            self.engine.entails(&plus)?,
            self.engine.is_instance_of(a, &not_b)?,
        ))
    }

    #[allow(dead_code)]
    pub fn entails(&self, ax: &Axiom4) -> Result<bool, ReasonerError> {
        let Axiom4::ConceptInclusion(kind, c, d) = ax else {
            for image in Transformer::new().axiom(ax) {
                if !self.engine.entails(&image)? {
                    return Ok(false);
                }
            }
            return Ok(true);
        };
        let (pos, neg) = (transform_concept, transform_neg_concept);
        let tests = match kind {
            // C ↦ D iff ¬(¬C̄) ⊓ ¬D̄ is unsatisfiable in K̄.
            InclusionKind::Material => vec![neg(c).not().and(pos(d).not())],
            // C ⊏ D iff C̄ ⊓ ¬D̄ is unsatisfiable.
            InclusionKind::Internal => vec![pos(c).and(pos(d).not())],
            // C → D iff additionally ¬D̄ ⊓ ¬(¬C̄) is unsatisfiable.
            InclusionKind::Strong => vec![pos(c).and(pos(d).not()), neg(d).and(neg(c).not())],
        };
        for test in &tests {
            if self.engine.is_concept_satisfiable(test)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    #[allow(dead_code)]
    pub fn is_satisfiable(&self) -> Result<bool, ReasonerError> {
        self.engine.is_consistent()
    }
}

/// Every individual × atomic-concept pair of the KB's signature, in
/// signature (= sorted) order.
pub fn signature_grid(kb: &KnowledgeBase4) -> Vec<(IndividualName, Concept)> {
    let sig = kb.signature();
    let mut grid = Vec::new();
    for a in &sig.individuals {
        for c in &sig.concepts {
            grid.push((a.clone(), Concept::atomic(c.clone())));
        }
    }
    grid
}
