//! The do-nothing baseline: classical reasoning, which trivializes on
//! inconsistent input ("a single contradiction … leads to the only
//! trivial logic consequence which includes everything", §1).

use crate::{Answer, InconsistencyBaseline};
use dl::kb::KnowledgeBase;
use dl::Axiom;
use tableau::{Config, QueryEngine, ReasonerError};

/// Classical SHOIN(D) entailment; reports [`Answer::Trivial`] for every
/// query once the KB is inconsistent.
pub struct ClassicalBaseline {
    reasoner: QueryEngine,
}

impl ClassicalBaseline {
    /// Wrap a KB.
    pub fn new(kb: &KnowledgeBase) -> Self {
        Self::with_config(kb, Config::default())
    }

    /// Wrap a KB with an explicit tableau configuration.
    pub fn with_config(kb: &KnowledgeBase, config: Config) -> Self {
        ClassicalBaseline {
            reasoner: QueryEngine::with_config(kb, config),
        }
    }

    /// Is the underlying KB consistent? (Computed once; the engine
    /// caches it.)
    pub fn is_consistent(&self) -> Result<bool, ReasonerError> {
        self.reasoner.is_consistent()
    }
}

impl InconsistencyBaseline for ClassicalBaseline {
    fn name(&self) -> &'static str {
        "classical"
    }

    fn entails(&mut self, query: &Axiom) -> Result<Answer, ReasonerError> {
        if !self.is_consistent()? {
            return Ok(Answer::Trivial);
        }
        Ok(if self.reasoner.entails(query)? {
            Answer::Yes
        } else {
            Answer::No
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl::parser::parse_kb;
    use dl::{Concept, IndividualName};

    #[test]
    fn consistent_kb_answers_normally() {
        let kb = parse_kb("A SubClassOf B\nx : A").unwrap();
        let mut b = ClassicalBaseline::new(&kb);
        let q = Axiom::ConceptAssertion(IndividualName::new("x"), Concept::atomic("B"));
        assert_eq!(b.entails(&q).unwrap(), Answer::Yes);
        let q = Axiom::ConceptAssertion(IndividualName::new("x"), Concept::atomic("C"));
        assert_eq!(b.entails(&q).unwrap(), Answer::No);
    }

    #[test]
    fn inconsistent_kb_trivializes() {
        let kb = parse_kb("x : A and not A").unwrap();
        let mut b = ClassicalBaseline::new(&kb);
        let q = Axiom::ConceptAssertion(IndividualName::new("unrelated"), Concept::atomic("Q"));
        assert_eq!(b.entails(&q).unwrap(), Answer::Trivial);
        assert!(!b.entails(&q).unwrap().is_meaningful());
    }
}
