//! Churn workloads for incremental reasoning: a base modular KB plus a
//! deterministic interleaving of mutations and queries.
//!
//! The mutations are *localized* — they touch only the `hot_island`'s
//! namespace — while queries range over every island. That is the
//! workload shape `shoin4::incremental` is built for: a delta in one
//! island must leave every other island's cached module, Horn program,
//! and entailment rows warm, so sustained mutate+query throughput stays
//! far above rebuild-per-mutation. The generator is the ground truth
//! for the differential parity suite and its invalidation-granularity
//! check (`tests/incremental_parity.rs`); the end-to-end `churn`
//! workload of `e2ebench` builds its own trace over `hardness_mix`
//! islands.

use crate::modular::{modular_kb4, ModularParams, PlantedPartition};
use dl::name::IndividualName;
use dl::Concept;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shoin4::{Axiom4, KnowledgeBase4};

/// Knobs for the churn generator.
#[derive(Debug, Clone)]
pub struct ChurnParams {
    /// RNG seed for the op interleaving (independent of the base-KB
    /// shuffle seed in `modular`).
    pub seed: u64,
    /// The base KB: disjoint islands with known membership.
    pub modular: ModularParams,
    /// Total operations (mutations + queries).
    pub ops: usize,
    /// Percentage of ops that mutate (the rest query).
    pub mutation_percent: usize,
    /// Island whose namespace absorbs every mutation.
    pub hot_island: usize,
}

impl Default for ChurnParams {
    fn default() -> Self {
        ChurnParams {
            seed: 0,
            modular: ModularParams::default(),
            ops: 200,
            mutation_percent: 20,
            hot_island: 0,
        }
    }
}

/// One step of a churn trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnOp {
    /// Add this axiom.
    Add(Axiom4),
    /// Retract this axiom (always a previously added one, so the trace
    /// never retracts base axioms and the KB size stays bounded).
    Retract(Axiom4),
    /// Ask the four-valued membership question `a : C`.
    Query(IndividualName, Concept),
}

/// Generate a base KB and a churn trace over it. Deterministic in the
/// params; mutations stay inside `hot_island`'s namespace and are
/// balanced add/retract pairs over fresh assertions.
pub fn churn_workload(p: &ChurnParams) -> (KnowledgeBase4, PlantedPartition, Vec<ChurnOp>) {
    let (kb, truth) = modular_kb4(&p.modular);
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0xC4A2);
    let hot = p.hot_island.min(p.modular.n_islands.saturating_sub(1));
    let hot_concepts = &truth.island_concepts[hot];

    // Mutations are add/retract pairs over assertions that do not exist
    // in the base KB: fresh individuals `I{hot}fresh{n}` joining hot
    // concepts.
    let mut added: Vec<Axiom4> = Vec::new();
    let mut fresh = 0usize;
    let mut ops = Vec::with_capacity(p.ops);
    for _ in 0..p.ops {
        if rng.gen_range(0..100usize) < p.mutation_percent {
            // Retract roughly half the time once something is live, so
            // the KB hovers around its base size.
            if !added.is_empty() && rng.gen_bool(0.5) {
                let i = rng.gen_range(0..added.len());
                ops.push(ChurnOp::Retract(added.swap_remove(i)));
            } else {
                let ind = IndividualName::new(format!("I{hot}fresh{fresh}"));
                fresh += 1;
                let c = &hot_concepts[rng.gen_range(0..hot_concepts.len())];
                let ax = Axiom4::ConceptAssertion(ind, Concept::Atomic(c.clone()));
                added.push(ax.clone());
                ops.push(ChurnOp::Add(ax));
            }
        } else {
            // Queries range over *all* islands; compound goals skip the
            // told fast path and keep the module machinery honest.
            let island = rng.gen_range(0..p.modular.n_islands);
            let concepts = &truth.island_concepts[island];
            let inds = &truth.island_individuals[island];
            let a = inds[rng.gen_range(0..inds.len())].clone();
            let j = rng.gen_range(0..concepts.len());
            let atom = Concept::Atomic(concepts[j].clone());
            let goal = if rng.gen_bool(0.5) && j + 1 < concepts.len() {
                atom.and(Concept::Atomic(concepts[j + 1].clone()))
            } else {
                atom
            };
            ops.push(ChurnOp::Query(a, goal));
        }
    }
    // Occasionally query the fresh hot individuals too, so mutation
    // effects are actually observed: rewrite a suffix of pure queries.
    if fresh > 0 {
        for op in ops.iter_mut().rev().take(p.ops / 10) {
            if let ChurnOp::Query(a, _) = op {
                if rng.gen_bool(0.3) {
                    *a = IndividualName::new(format!("I{hot}fresh{}", rng.gen_range(0..fresh)));
                }
            }
        }
    }
    (kb, truth, ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_mutations_stay_hot() {
        let p = ChurnParams::default();
        let (kb, _, ops) = churn_workload(&p);
        assert_eq!(churn_workload(&p).2, ops);
        assert_eq!(ops.len(), p.ops);
        let mutations = ops
            .iter()
            .filter(|op| !matches!(op, ChurnOp::Query(..)))
            .count();
        assert!(mutations > 0, "no mutations generated");
        for op in &ops {
            if let ChurnOp::Add(ax) | ChurnOp::Retract(ax) = op {
                let sig = KnowledgeBase4::from_axioms([ax.clone()]).signature();
                assert!(
                    sig.concepts.iter().all(|c| c.as_str().starts_with("I0C"))
                        && sig.individuals.iter().all(|a| a.as_str().starts_with("I0")),
                    "mutation escaped the hot island: {ax:?}"
                );
            }
        }
        assert!(!kb.is_empty());
    }

    #[test]
    fn retracts_only_remove_prior_adds() {
        let (_, _, ops) = churn_workload(&ChurnParams {
            ops: 400,
            mutation_percent: 50,
            ..ChurnParams::default()
        });
        let mut live: Vec<&Axiom4> = Vec::new();
        for op in &ops {
            match op {
                ChurnOp::Add(ax) => live.push(ax),
                ChurnOp::Retract(ax) => {
                    let pos = live
                        .iter()
                        .position(|l| *l == ax)
                        .expect("retract of never-added axiom");
                    live.remove(pos);
                }
                ChurnOp::Query(..) => {}
            }
        }
    }
}
