//! Differential properties between the two search strategies.
//!
//! The trail engine (dependency-directed backjumping over an undo log)
//! must be *invisible* in answers: on every input it has to return the
//! same satisfiability verdict as the snapshot engine, and on consistent
//! inputs the same first model — backjumping only ever skips subtrees
//! that are provably modelless, and the undo log restores the graph
//! bit-exactly, so even node identities line up. These properties fuzz
//! that claim over ontogen's random KBs, plus a graph-level property that
//! a full trail unwind restores the pre-branch graph exactly (`==` on
//! `CompletionGraph`).

use dl::Concept;
use ontogen::random::{random_kb, RandomParams};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use tableau::graph::CompletionGraph;
use tableau::trail::DepSet;
use tableau::{Config, QueryEngine, SearchStrategy};

fn params(seed: u64) -> RandomParams {
    RandomParams {
        n_concepts: 4,
        n_roles: 2,
        n_individuals: 3,
        n_tbox: 5,
        n_abox: 6,
        max_depth: 1,
        number_restrictions: true,
        inverse_roles: true,
        seed,
    }
}

fn cfg(search: SearchStrategy) -> Config {
    Config {
        search,
        // Keep pathological cases cheap: a limit error on either engine
        // skips the comparison (no verdict was produced to compare). The
        // snapshot oracle is the slow side — without a tight budget a few
        // hard seeds would dominate the whole 256-case run.
        max_rule_applications: 50_000,
        time_budget: Some(std::time::Duration::from_millis(200)),
        ..Config::default()
    }
}

proptest! {
    // 256 cases (the vendored-proptest default) per property.

    /// Identical verdicts, and on consistent KBs the identical first
    /// model — including node identities, because the trail search only
    /// skips modelless subtrees and rewinds allocations exactly.
    #[test]
    fn snapshot_and_trail_agree(seed in 0..u64::MAX) {
        let kb = random_kb(&params(seed));
        let snap = QueryEngine::with_config(&kb, cfg(SearchStrategy::Snapshot));
        let trail = QueryEngine::with_config(&kb, cfg(SearchStrategy::Trail));
        let (s, t) = (snap.is_consistent(), trail.is_consistent());
        let (Ok(s), Ok(t)) = (s, t) else {
            return Ok(()); // a resource limit fired; nothing to compare
        };
        prop_assert_eq!(s, t, "verdict divergence (seed {})", seed);
        prop_assert_eq!(
            trail.stats().graph_clones, 0,
            "the trail path must never clone the graph (seed {})", seed
        );
        if s {
            let (Ok(ms), Ok(mt)) = (snap.find_model(), trail.find_model()) else {
                return Ok(());
            };
            prop_assert_eq!(ms, mt, "model divergence (seed {})", seed);
        }
    }

    /// A full unwind of the trail restores the pre-branch graph exactly —
    /// not just observably: `==` over the whole structure (nodes, labels,
    /// dep maps, edges, distinctness, merge map, nominal registry).
    #[test]
    fn trail_unwind_restores_graph_exactly(seed in 0..u64::MAX) {
        use dl::axiom::RoleExpr;
        use dl::name::IndividualName;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = CompletionGraph::new();
        // An untrailed base, as the engine builds before searching.
        let (a, b) = (g.new_root(), g.new_root());
        g.add_concept(a, Concept::atomic("A"));
        g.add_edge(a, b, &RoleExpr::named("r0"));
        g.set_nominal_node(IndividualName::new("o"), b);

        g.set_trailing(true);
        let before = g.clone();
        let mark = g.mark();

        // A random mutation burst of every trailed operation kind. Merges
        // prune subtrees, so re-collect the live nodes each step instead
        // of indexing a stale list.
        for step in 0..rng.gen_range(1..24usize) {
            let live: Vec<_> = g.live_nodes().collect();
            let dep = DepSet::single(rng.gen_range(0..4u64) as u32);
            let x = live[rng.gen_range(0..live.len())];
            let y = live[rng.gen_range(0..live.len())];
            match rng.gen_range(0..6u8) {
                0 => {
                    let name = format!("C{}", rng.gen_range(0..3u8));
                    g.add_concept_d(x, Concept::atomic(name), dep);
                }
                1 => {
                    let role = RoleExpr::named(if rng.gen_bool(0.5) { "r0" } else { "r1" });
                    let role = if rng.gen_bool(0.3) { role.inverse() } else { role };
                    if x != y {
                        g.add_edge_d(x, y, &role, dep);
                    }
                }
                2 => {
                    if x != y {
                        let _ = g.set_distinct_d(x, y, dep);
                    }
                }
                3 => {
                    if rng.gen_bool(0.5) {
                        g.new_root_d(dep);
                    } else {
                        g.new_blockable_d(x, dep);
                    }
                }
                4 => {
                    let o = IndividualName::new(format!("o{step}"));
                    if g.nominal_node(&o).is_none() {
                        g.set_nominal_node(o, x);
                    }
                }
                _ => {
                    // Never merge a node into its own descendant — the
                    // engine's merge-direction rules exclude that (the
                    // prune of the source's subtree would erase the
                    // target); mirror the restriction here.
                    if x != y && !g.ancestors(y).contains(&x) {
                        let _ = g.merge_d(x, y, dep);
                    }
                }
            }
        }

        g.undo_to(mark);
        prop_assert_eq!(g, before, "unwind failed to restore the graph (seed {})", seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Subsumption/satisfiability queries (which augment the KB with
    /// internalized query concepts, exercising branching harder than the
    /// base consistency check) also agree.
    #[test]
    fn query_answers_agree(seed in 0..u64::MAX) {
        let kb = random_kb(&params(seed));
        let snap = QueryEngine::with_config(&kb, cfg(SearchStrategy::Snapshot));
        let trail = QueryEngine::with_config(&kb, cfg(SearchStrategy::Trail));
        let c0 = Concept::atomic("C0");
        let c1 = Concept::atomic("C1");
        let queries = [
            (c0.clone(), c1.clone()),
            (c1.clone(), c0.clone()),
            (c0.clone().and(c1.clone()), c0.clone().or(c1.clone())),
        ];
        for (sub, sup) in &queries {
            let (s, t) = (snap.is_subsumed_by(sub, sup), trail.is_subsumed_by(sub, sup));
            if let (Ok(s), Ok(t)) = (s, t) {
                prop_assert_eq!(s, t, "subsumption divergence on {:?} ⊑ {:?} (seed {})", sub, sup, seed);
            }
        }
        let (s, t) = (snap.is_concept_satisfiable(&c0), trail.is_concept_satisfiable(&c0));
        if let (Ok(s), Ok(t)) = (s, t) {
            prop_assert_eq!(s, t, "satisfiability divergence (seed {})", seed);
        }
    }
}
