//! Tree-shaped taxonomy generation — the "ontology-shaped" workload:
//! a subsumption tree of configurable depth and branching, optional
//! sibling disjointness, and individuals asserted at the leaves.

use dl::axiom::Axiom;
use dl::kb::KnowledgeBase;
use dl::name::{ConceptName, IndividualName};
use dl::Concept;

/// Parameters of the taxonomy generator.
#[derive(Debug, Clone)]
pub struct TaxonomyParams {
    /// Depth of the tree (root at depth 0).
    pub depth: usize,
    /// Children per node.
    pub branching: usize,
    /// Add pairwise disjointness between siblings.
    pub sibling_disjointness: bool,
    /// Individuals per leaf class.
    pub individuals_per_leaf: usize,
}

impl Default for TaxonomyParams {
    fn default() -> Self {
        TaxonomyParams {
            depth: 3,
            branching: 2,
            sibling_disjointness: true,
            individuals_per_leaf: 1,
        }
    }
}

/// The class name at `(level, index)`.
pub fn class_name(level: usize, index: usize) -> ConceptName {
    ConceptName::new(format!("N{level}_{index}"))
}

/// Generate the taxonomy KB. Classes are `N<level>_<index>`; node
/// `N(l+1)_(b·i+j) ⊑ N l_i`.
pub fn taxonomy_kb(p: &TaxonomyParams) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    for level in 0..p.depth {
        let width = p.branching.pow(level as u32);
        for i in 0..width {
            let parent = Concept::atomic(class_name(level, i));
            let children: Vec<Concept> = (0..p.branching)
                .map(|j| Concept::atomic(class_name(level + 1, p.branching * i + j)))
                .collect();
            for child in &children {
                kb.add(Axiom::ConceptInclusion(child.clone(), parent.clone()));
            }
            if p.sibling_disjointness {
                for (a, left) in children.iter().enumerate() {
                    for right in children.iter().skip(a + 1) {
                        kb.add(Axiom::disjoint(left.clone(), right.clone()));
                    }
                }
            }
        }
    }
    let leaf_level = p.depth;
    let leaf_count = p.branching.pow(leaf_level as u32);
    for i in 0..leaf_count {
        for k in 0..p.individuals_per_leaf {
            kb.add(Axiom::ConceptAssertion(
                IndividualName::new(format!("ind_{i}_{k}")),
                Concept::atomic(class_name(leaf_level, i)),
            ));
        }
    }
    kb
}

/// Number of classes in a taxonomy of the given shape.
pub fn class_count(p: &TaxonomyParams) -> usize {
    (0..=p.depth).map(|l| p.branching.pow(l as u32)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl::IndividualName;
    use tableau::QueryEngine;

    #[test]
    fn shape_matches_parameters() {
        let p = TaxonomyParams {
            depth: 2,
            branching: 2,
            sibling_disjointness: false,
            individuals_per_leaf: 1,
        };
        let kb = taxonomy_kb(&p);
        // 2 + 4 subclass axioms, 4 leaf individuals.
        assert_eq!(kb.tbox().count(), 6);
        assert_eq!(kb.abox().count(), 4);
        assert_eq!(class_count(&p), 7);
    }

    #[test]
    fn taxonomy_is_consistent_and_subsumption_works() {
        let kb = taxonomy_kb(&TaxonomyParams::default());
        let r = QueryEngine::new(&kb);
        assert!(r.is_consistent().unwrap());
        // A leaf individual is an instance of the root.
        assert!(r
            .is_instance_of(
                &IndividualName::new("ind_0_0"),
                &Concept::atomic(class_name(0, 0))
            )
            .unwrap());
        // Leaf subsumed by its ancestor chain.
        assert!(r
            .is_subsumed_by(
                &Concept::atomic(class_name(3, 0)),
                &Concept::atomic(class_name(1, 0))
            )
            .unwrap());
    }

    #[test]
    fn disjoint_siblings_conflict() {
        let kb = taxonomy_kb(&TaxonomyParams::default());
        let r = QueryEngine::new(&kb);
        // Being in two disjoint siblings is unsatisfiable.
        let c = Concept::atomic(class_name(1, 0)).and(Concept::atomic(class_name(1, 1)));
        assert!(!r.is_concept_satisfiable(&c).unwrap());
    }
}
