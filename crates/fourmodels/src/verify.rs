//! Independent verification of tableau-extracted models: convert an
//! [`tableau::model::ExtractedModel`] into a (classical) [`Interp4`] and
//! check it against the Table 1/2 semantics.
//!
//! This closes the loop between the two reasoning stacks: the tableau
//! *claims* satisfiability; the checker *exhibits* the model. Only
//! meaningful for unblocked extractions (`blocked_nodes == 0`) over KBs
//! without datatype axioms (the extraction does not materialize data
//! successors — the concrete domain is checked by the tableau's oracle).

use dl::kb::KnowledgeBase;
use fourval::SetPair;
use shoin4::interp4::{Elem, Interp4, RolePair};
use shoin4::{InclusionKind, KnowledgeBase4};
use std::collections::BTreeMap;
use tableau::model::ExtractedModel;

/// Convert an extracted model into a classical interpretation over a
/// dense domain `{0..n}`.
///
/// Concept and role assignments are classical: `pos` = the extension,
/// `neg` = its complement — including signature names with *empty*
/// extensions (a name absent from every label still needs the classical
/// `<∅, Δ>` assignment, not the unknown `<∅, ∅>`).
pub fn interp_from_extracted(m: &ExtractedModel, kb: &KnowledgeBase) -> Interp4 {
    let index: BTreeMap<tableau::node::NodeId, Elem> = m
        .elements
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i as Elem))
        .collect();
    let n = index.len() as u32;
    let mut out = Interp4::with_domain_size(n.max(1));
    let sig = kb.signature();
    let concept_names: std::collections::BTreeSet<_> = sig
        .concepts
        .iter()
        .cloned()
        .chain(m.concepts.keys().cloned())
        .collect();
    for name in concept_names {
        let pos: std::collections::BTreeSet<Elem> = m
            .concepts
            .get(&name)
            .map(|ext| ext.iter().map(|id| index[id]).collect())
            .unwrap_or_default();
        let neg = (0..n).filter(|e| !pos.contains(e)).collect();
        out.set_concept(name, SetPair { pos, neg });
    }
    let role_names: std::collections::BTreeSet<_> = sig
        .roles
        .iter()
        .cloned()
        .chain(m.roles.keys().cloned())
        .collect();
    for name in role_names {
        let pos: std::collections::BTreeSet<(Elem, Elem)> = m
            .roles
            .get(&name)
            .map(|ext| ext.iter().map(|(a, b)| (index[a], index[b])).collect())
            .unwrap_or_default();
        let neg = (0..n)
            .flat_map(|x| (0..n).map(move |y| (x, y)))
            .filter(|p| !pos.contains(p))
            .collect();
        out.set_role(name, RolePair { pos, neg });
    }
    for (o, id) in &m.individuals {
        out.set_individual(o.clone(), index[id]);
    }
    out
}

/// Does the extracted model genuinely satisfy the classical KB?
///
/// Returns `None` when verification does not apply (blocked nodes, or
/// datatype axioms present); `Some(bool)` otherwise.
pub fn verify_extracted(m: &ExtractedModel, kb: &KnowledgeBase) -> Option<bool> {
    if m.blocked_nodes > 0 {
        return None;
    }
    let has_data = !kb.signature().data_roles.is_empty();
    if has_data {
        return None;
    }
    let interp = interp_from_extracted(m, kb);
    let view = KnowledgeBase4::from_classical(kb, InclusionKind::Internal);
    Some(interp.satisfies(&view))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl::parser::parse_kb;
    use tableau::QueryEngine;

    fn model_of(src: &str) -> (ExtractedModel, KnowledgeBase) {
        let kb = parse_kb(src).unwrap();
        let r = QueryEngine::new(&kb);
        let m = r.find_model().unwrap().expect("satisfiable");
        (m, kb)
    }

    #[test]
    fn simple_abox_model_verifies() {
        let (m, kb) = model_of(
            "A SubClassOf B
             x : A
             r(x, y)
             x : r only C",
        );
        assert_eq!(verify_extracted(&m, &kb), Some(true));
    }

    #[test]
    fn disjunction_model_verifies() {
        let (m, kb) = model_of(
            "x : A or B
             x : not A
             A SubClassOf C
             B SubClassOf C",
        );
        assert_eq!(verify_extracted(&m, &kb), Some(true));
        // And the model must place x in B and C.
        let interp = interp_from_extracted(&m, &kb);
        let x = interp.individual(&dl::IndividualName::new("x")).unwrap();
        assert!(interp.eval(&dl::Concept::atomic("B")).pos.contains(&x));
        assert!(interp.eval(&dl::Concept::atomic("C")).pos.contains(&x));
    }

    #[test]
    fn number_restriction_model_verifies() {
        let (m, kb) = model_of(
            "x : r min 2
             x : r max 3",
        );
        assert_eq!(verify_extracted(&m, &kb), Some(true));
    }

    #[test]
    fn transitive_role_model_verifies() {
        let (m, kb) = model_of(
            "Transitive(anc)
             anc(a, b)
             anc(b, c)
             a : anc only X",
        );
        assert_eq!(verify_extracted(&m, &kb), Some(true));
        let interp = interp_from_extracted(&m, &kb);
        let c = interp.individual(&dl::IndividualName::new("c")).unwrap();
        assert!(interp.eval(&dl::Concept::atomic("X")).pos.contains(&c));
    }

    #[test]
    fn blocked_models_are_not_verified() {
        let (m, kb) = model_of(
            "Person SubClassOf hasParent some Person
             p : Person",
        );
        assert!(m.blocked_nodes > 0);
        assert_eq!(verify_extracted(&m, &kb), None);
    }

    #[test]
    fn random_satisfiable_kbs_extract_verified_models() {
        use ontogen::random::{random_kb, RandomParams};
        let mut verified = 0;
        for seed in 0..40u64 {
            let kb = random_kb(&RandomParams {
                n_concepts: 4,
                n_roles: 2,
                n_individuals: 3,
                n_tbox: 4,
                n_abox: 5,
                max_depth: 1,
                number_restrictions: true,
                inverse_roles: true,
                seed,
            });
            // A small wall-clock budget: seeds whose search diverges
            // (NN-rule with inverse roles) are skipped, not waited out.
            let cfg = tableau::Config {
                time_budget: Some(std::time::Duration::from_millis(500)),
                ..Default::default()
            };
            let r = QueryEngine::with_config(&kb, cfg);
            let Ok(Some(m)) = r.find_model() else {
                continue;
            };
            match verify_extracted(&m, &kb) {
                Some(ok) => {
                    assert!(
                        ok,
                        "seed {seed}: extracted structure is not a model of\n{}",
                        dl::printer::print_kb(&kb)
                    );
                    verified += 1;
                }
                None => continue,
            }
        }
        assert!(
            verified >= 10,
            "only {verified}/40 seeds produced verifiable models"
        );
    }
}
