//! Controlled contradiction injection.
//!
//! Experiments on inconsistency tolerance need KBs where the ground truth
//! is known: which facts were poisoned and which are clean. The injector
//! adds `a : C` and `a : ¬C` pairs for randomly chosen signature
//! individuals/concepts and reports exactly what it did.

use dl::axiom::Axiom;
use dl::kb::KnowledgeBase;
use dl::name::{ConceptName, IndividualName};
use dl::Concept;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A record of one injected contradiction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// The poisoned individual.
    pub individual: IndividualName,
    /// The concept asserted both ways.
    pub concept: ConceptName,
}

/// Add `n` contradictions to the KB (each one `a : C` plus `a : ¬C` over
/// the existing signature). Returns the injected pairs; distinct pairs
/// are chosen while possible.
pub fn inject_contradictions(kb: &mut KnowledgeBase, n: usize, seed: u64) -> Vec<Injection> {
    let sig = kb.signature();
    let individuals: Vec<IndividualName> = sig.individuals.into_iter().collect();
    let concepts: Vec<ConceptName> = sig.concepts.into_iter().collect();
    assert!(
        !individuals.is_empty() && !concepts.is_empty(),
        "injection needs at least one individual and one concept in the signature"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs: Vec<(usize, usize)> = (0..individuals.len())
        .flat_map(|i| (0..concepts.len()).map(move |c| (i, c)))
        .collect();
    pairs.shuffle(&mut rng);
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let (i, c) = pairs[k % pairs.len()];
        let individual = individuals[i].clone();
        let concept = concepts[c].clone();
        kb.add(Axiom::ConceptAssertion(
            individual.clone(),
            Concept::atomic(concept.clone()),
        ));
        kb.add(Axiom::ConceptAssertion(
            individual.clone(),
            Concept::atomic(concept.clone()).not(),
        ));
        out.push(Injection {
            individual,
            concept,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl::parser::parse_kb;
    use tableau::QueryEngine;

    #[test]
    fn injection_makes_kb_inconsistent() {
        let mut kb = parse_kb("A SubClassOf B\nx : A").unwrap();
        assert!(QueryEngine::new(&kb).is_consistent().unwrap());
        let injected = inject_contradictions(&mut kb, 1, 7);
        assert_eq!(injected.len(), 1);
        assert!(!QueryEngine::new(&kb).is_consistent().unwrap());
    }

    #[test]
    fn injection_count_and_determinism() {
        let base = parse_kb("A SubClassOf B\nx : A\ny : B").unwrap();
        let mut kb1 = base.clone();
        let mut kb2 = base.clone();
        let i1 = inject_contradictions(&mut kb1, 3, 42);
        let i2 = inject_contradictions(&mut kb2, 3, 42);
        assert_eq!(i1, i2);
        assert_eq!(kb1, kb2);
        assert_eq!(kb1.len(), base.len() + 6);
    }

    #[test]
    fn distinct_targets_while_possible() {
        let mut kb = parse_kb("x : A\ny : B").unwrap();
        let injected = inject_contradictions(&mut kb, 4, 0);
        let unique: std::collections::BTreeSet<_> = injected
            .iter()
            .map(|i| (i.individual.clone(), i.concept.clone()))
            .collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    #[should_panic(expected = "injection needs")]
    fn empty_signature_rejected() {
        let mut kb = KnowledgeBase::new();
        inject_contradictions(&mut kb, 1, 0);
    }
}
