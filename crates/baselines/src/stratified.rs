//! Stratification-based baseline (Benferhat et al., SACMAT'03 — the
//! paper's reference 4): axioms carry priority levels; reasoning uses the
//! *possibilistic* cut — the strata strictly above the inconsistency
//! level.
//!
//! This is the "knowledge with different exactness" competitor the
//! paper's §3.1 discusses: instead of typing the *inclusions* (material /
//! internal / strong), the KB designer ranks whole axioms.

use crate::{Answer, InconsistencyBaseline};
use dl::kb::KnowledgeBase;
use dl::Axiom;
use tableau::{Config, QueryEngine, ReasonerError};

/// A KB whose axioms are ranked into strata; stratum 0 is the most
/// reliable.
pub struct StratifiedBaseline {
    strata: Vec<Vec<Axiom>>,
    config: Config,
}

impl StratifiedBaseline {
    /// Build from ranked strata (`strata[0]` most reliable).
    pub fn new(strata: Vec<Vec<Axiom>>) -> Self {
        StratifiedBaseline {
            strata,
            config: Config::default(),
        }
    }

    /// Convenience: TBox in stratum 0, ABox in stratum 1 — the common
    /// "trust the schema over the data" ranking.
    pub fn tbox_over_abox(kb: &KnowledgeBase) -> Self {
        let tbox: Vec<Axiom> = kb.tbox().cloned().collect();
        let abox: Vec<Axiom> = kb.abox().cloned().collect();
        Self::new(vec![tbox, abox])
    }

    /// The number of leading strata that are jointly consistent (the
    /// possibilistic cut).
    pub fn consistent_prefix_len(&self) -> Result<usize, ReasonerError> {
        let mut kept = Vec::new();
        for (i, stratum) in self.strata.iter().enumerate() {
            kept.extend(stratum.iter().cloned());
            let kb = KnowledgeBase::from_axioms(kept.iter().cloned());
            if !QueryEngine::with_config(&kb, self.config.clone()).is_consistent()? {
                return Ok(i);
            }
        }
        Ok(self.strata.len())
    }

    /// The working KB: all strata above the inconsistency level.
    pub fn cut(&self) -> Result<KnowledgeBase, ReasonerError> {
        let n = self.consistent_prefix_len()?;
        Ok(KnowledgeBase::from_axioms(
            self.strata[..n].iter().flatten().cloned(),
        ))
    }
}

impl InconsistencyBaseline for StratifiedBaseline {
    fn name(&self) -> &'static str {
        "stratified-possibilistic"
    }

    fn entails(&mut self, query: &Axiom) -> Result<Answer, ReasonerError> {
        let n = self.consistent_prefix_len()?;
        if n == 0 {
            // Even the top stratum is inconsistent: degenerate.
            return Ok(Answer::Trivial);
        }
        let kb = self.cut()?;
        Ok(
            if QueryEngine::with_config(&kb, self.config.clone()).entails(query)? {
                Answer::Yes
            } else {
                Answer::No
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl::parser::parse_kb;
    use dl::{Concept, IndividualName};

    fn q(i: &str, c: &str) -> Axiom {
        Axiom::ConceptAssertion(IndividualName::new(i), Concept::atomic(c))
    }

    #[test]
    fn consistent_kb_keeps_all_strata() {
        let kb = parse_kb("A SubClassOf B\nx : A").unwrap();
        let mut b = StratifiedBaseline::tbox_over_abox(&kb);
        assert_eq!(b.consistent_prefix_len().unwrap(), 2);
        assert_eq!(b.entails(&q("x", "B")).unwrap(), Answer::Yes);
    }

    #[test]
    fn inconsistent_abox_is_cut_away() {
        // Schema consistent, data contradicts it: keep the schema only.
        let kb = parse_kb(
            "Penguin SubClassOf Bird
             Penguin SubClassOf not Fly
             Bird SubClassOf Fly
             tweety : Penguin",
        )
        .unwrap();
        let mut b = StratifiedBaseline::tbox_over_abox(&kb);
        // Wait: the TBox alone makes Penguin unsatisfiable but the KB
        // consistent; inconsistency needs tweety. So prefix = 1.
        assert_eq!(b.consistent_prefix_len().unwrap(), 1);
        // Schema-level queries still answer…
        assert_eq!(b.entails(&q("tweety", "Bird")).unwrap(), Answer::No);
        // …because the ABox (tweety : Penguin) was discarded wholesale —
        // the bluntness the four-valued approach avoids.
    }

    #[test]
    fn top_stratum_inconsistency_degenerates() {
        let kb = parse_kb("A SubClassOf not A\nx : A").unwrap();
        // Put everything in one stratum: inconsistent at level 0.
        let mut b = StratifiedBaseline::new(vec![kb.axioms().to_vec()]);
        assert_eq!(b.entails(&q("x", "A")).unwrap(), Answer::Trivial);
    }

    #[test]
    fn finer_strata_keep_more() {
        // Three strata: schema / trusted facts / dubious facts.
        let kb = parse_kb(
            "Bird SubClassOf Fly
             tweety : Bird
             tweety : not Fly",
        )
        .unwrap();
        let axioms = kb.axioms();
        let mut b = StratifiedBaseline::new(vec![
            vec![axioms[0].clone()],
            vec![axioms[1].clone()],
            vec![axioms[2].clone()],
        ]);
        assert_eq!(b.consistent_prefix_len().unwrap(), 2);
        assert_eq!(b.entails(&q("tweety", "Fly")).unwrap(), Answer::Yes);
    }
}
