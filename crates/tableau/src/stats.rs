//! Search statistics, exposed for the benchmark harness and for debugging
//! pathological inputs.

use crate::clash::{Clash, KIND_COUNT};

/// Counters accumulated over one reasoning call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Nodes allocated across all branches.
    pub nodes_created: u64,
    /// Rule applications across all branches.
    pub rule_applications: u64,
    /// Nondeterministic branch points explored.
    pub branches: u64,
    /// Branches closed by a clash.
    pub clashes: u64,
    /// Deepest completion graph (live nodes) seen.
    pub peak_graph_size: u64,
    /// Whole-graph clones performed by the snapshot search (one per tried
    /// alternative). Zero on the trail path — that is the point.
    pub graph_clones: u64,
    /// Branch points skipped wholesale by dependency-directed backjumping
    /// (their remaining alternatives were provably irrelevant).
    pub backjumps: u64,
    /// Longest undo trail seen (trail search only).
    pub trail_len_peak: u64,
    /// Deepest open-branch-point stack seen.
    pub branch_depth_peak: u64,
    /// Clashes by kind, indexed by [`Clash::kind_index`] and labelled by
    /// [`crate::clash::KIND_LABELS`].
    pub clashes_by_kind: [u64; KIND_COUNT],
    /// Module extractions by the four-valued layer: every probe that ran
    /// on a module engine or tried the Horn rung, and every hardness
    /// prediction.
    pub scoped_queries: u64,
    /// Total axioms across all extracted modules (so
    /// `module_axioms / scoped_queries` is the mean module size).
    pub module_axioms: u64,
    /// Wall-clock nanoseconds spent extracting modules — the overhead
    /// side of the module-scoping trade.
    pub module_extraction_ns: u64,
    /// Queries answered by the Horn saturation fast path instead of the
    /// tableau (counted by the four-valued layer).
    pub horn_queries: u64,
    /// Horn clauses (rules plus base facts) compiled across all
    /// Horn-classified modules — each module is compiled once.
    pub horn_clauses: u64,
    /// Semi-naive saturation rounds executed by the Horn engine
    /// (memoized closures add nothing on reuse).
    pub saturation_rounds: u64,
    /// Horn-routable queries whose module failed Horn classification
    /// and fell back to the tableau.
    pub horn_fallbacks: u64,
    /// Instance/entailment queries answered straight from the
    /// entailment cache (counted by the four-valued layer).
    pub entailment_cache_hits: u64,
    /// Instance/entailment queries that missed the entailment cache and
    /// had to be computed.
    pub entailment_cache_misses: u64,
    /// Extractions whose module was already cached (its engine, Horn
    /// program and hardness score are reused as built).
    pub engine_cache_hits: u64,
    /// Extractions that added a new module to the cache.
    pub engine_cache_misses: u64,
    /// Horn-routed queries that reused an already-compiled (or
    /// already-rejected) module program.
    pub horn_cache_hits: u64,
    /// Horn-routed queries that had to classify and compile their
    /// module program.
    pub horn_cache_misses: u64,
    /// Session mutations applied (`add_axiom` + `retract_axiom`).
    pub mutations: u64,
    /// Cached per-module engines/programs dropped by delta-driven
    /// invalidation (incremental sessions only).
    pub invalidated_modules: u64,
    /// Entailment-cache entries dropped because their answering module
    /// was invalidated.
    pub invalidated_entailments: u64,
    /// Told-index rows (memoized membership closures / subsumer sets /
    /// seed lists) dropped by incremental maintenance.
    pub invalidated_told_rows: u64,
    /// Cached modules an invalidation pass examined: locality-tested
    /// against an added axiom, or checked for a retracted one's slot.
    pub invalidation_tests: u64,
    /// Searches aborted by a raised [`crate::interrupt`] token (a
    /// deadline installed there counts as a time-budget error instead).
    pub cancelled: u64,
    /// Per-module engines/Horn programs adopted from a cross-tenant
    /// shared cache instead of being built locally (serving layer).
    pub shared_module_hits: u64,
    /// Per-module engines/Horn programs this session built and
    /// published to a cross-tenant shared cache.
    pub shared_module_misses: u64,
    /// Query verdicts answered from the cross-tenant shared row cache
    /// (content-addressed by the module's structural key).
    pub shared_row_hits: u64,
    /// Query verdicts computed locally and published to the shared row
    /// cache.
    pub shared_row_misses: u64,
}

impl Stats {
    /// Count one clash, both in the total and in its per-kind bucket.
    pub fn record_clash(&mut self, clash: &Clash) {
        self.clashes += 1;
        self.clashes_by_kind[clash.kind_index()] += 1;
    }

    /// Fold another run's counters into this one.
    pub fn absorb(&mut self, other: &Stats) {
        self.nodes_created += other.nodes_created;
        self.rule_applications += other.rule_applications;
        self.branches += other.branches;
        self.clashes += other.clashes;
        self.peak_graph_size = self.peak_graph_size.max(other.peak_graph_size);
        self.graph_clones += other.graph_clones;
        self.backjumps += other.backjumps;
        self.trail_len_peak = self.trail_len_peak.max(other.trail_len_peak);
        self.branch_depth_peak = self.branch_depth_peak.max(other.branch_depth_peak);
        self.scoped_queries += other.scoped_queries;
        self.module_axioms += other.module_axioms;
        self.module_extraction_ns += other.module_extraction_ns;
        self.horn_queries += other.horn_queries;
        self.horn_clauses += other.horn_clauses;
        self.saturation_rounds += other.saturation_rounds;
        self.horn_fallbacks += other.horn_fallbacks;
        self.entailment_cache_hits += other.entailment_cache_hits;
        self.entailment_cache_misses += other.entailment_cache_misses;
        self.engine_cache_hits += other.engine_cache_hits;
        self.engine_cache_misses += other.engine_cache_misses;
        self.horn_cache_hits += other.horn_cache_hits;
        self.horn_cache_misses += other.horn_cache_misses;
        self.mutations += other.mutations;
        self.invalidated_modules += other.invalidated_modules;
        self.invalidated_entailments += other.invalidated_entailments;
        self.invalidated_told_rows += other.invalidated_told_rows;
        self.invalidation_tests += other.invalidation_tests;
        self.cancelled += other.cancelled;
        self.shared_module_hits += other.shared_module_hits;
        self.shared_module_misses += other.shared_module_misses;
        self.shared_row_hits += other.shared_row_hits;
        self.shared_row_misses += other.shared_row_misses;
        for (mine, theirs) in self
            .clashes_by_kind
            .iter_mut()
            .zip(other.clashes_by_kind.iter())
        {
            *mine += theirs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = Stats {
            nodes_created: 1,
            rule_applications: 2,
            branches: 3,
            clashes: 4,
            peak_graph_size: 5,
            graph_clones: 6,
            backjumps: 7,
            trail_len_peak: 8,
            branch_depth_peak: 2,
            ..Stats::default()
        };
        let b = Stats {
            nodes_created: 10,
            rule_applications: 10,
            branches: 10,
            clashes: 10,
            peak_graph_size: 2,
            graph_clones: 10,
            backjumps: 10,
            trail_len_peak: 3,
            branch_depth_peak: 9,
            scoped_queries: 2,
            module_axioms: 30,
            module_extraction_ns: 400,
            horn_queries: 5,
            horn_clauses: 40,
            saturation_rounds: 6,
            horn_fallbacks: 1,
            entailment_cache_hits: 11,
            entailment_cache_misses: 12,
            engine_cache_hits: 13,
            engine_cache_misses: 14,
            horn_cache_hits: 15,
            horn_cache_misses: 16,
            mutations: 17,
            invalidated_modules: 18,
            invalidated_entailments: 19,
            invalidated_told_rows: 20,
            invalidation_tests: 26,
            cancelled: 21,
            shared_module_hits: 22,
            shared_module_misses: 23,
            shared_row_hits: 24,
            shared_row_misses: 25,
            ..Stats::default()
        };
        a.absorb(&b);
        assert_eq!(a.nodes_created, 11);
        assert_eq!(a.scoped_queries, 2);
        assert_eq!(a.module_axioms, 30);
        assert_eq!(a.module_extraction_ns, 400);
        assert_eq!(a.horn_queries, 5);
        assert_eq!(a.horn_clauses, 40);
        assert_eq!(a.saturation_rounds, 6);
        assert_eq!(a.horn_fallbacks, 1);
        assert_eq!(a.entailment_cache_hits, 11);
        assert_eq!(a.entailment_cache_misses, 12);
        assert_eq!(a.engine_cache_hits, 13);
        assert_eq!(a.engine_cache_misses, 14);
        assert_eq!(a.horn_cache_hits, 15);
        assert_eq!(a.horn_cache_misses, 16);
        assert_eq!(a.mutations, 17);
        assert_eq!(a.invalidated_modules, 18);
        assert_eq!(a.invalidated_entailments, 19);
        assert_eq!(a.invalidated_told_rows, 20);
        assert_eq!(a.invalidation_tests, 26);
        assert_eq!(a.cancelled, 21);
        assert_eq!(a.shared_module_hits, 22);
        assert_eq!(a.shared_module_misses, 23);
        assert_eq!(a.shared_row_hits, 24);
        assert_eq!(a.shared_row_misses, 25);
        assert_eq!(a.peak_graph_size, 5);
        assert_eq!(a.graph_clones, 16);
        assert_eq!(a.backjumps, 17);
        assert_eq!(a.trail_len_peak, 8);
        assert_eq!(a.branch_depth_peak, 9);
    }

    #[test]
    fn record_clash_buckets_by_kind() {
        let mut s = Stats::default();
        s.record_clash(&Clash::Bottom(NodeId(0)));
        s.record_clash(&Clash::DatatypeUnsatisfiable(NodeId(1)));
        s.record_clash(&Clash::DatatypeUnsatisfiable(NodeId(2)));
        assert_eq!(s.clashes, 3);
        assert_eq!(s.clashes_by_kind[Clash::Bottom(NodeId(0)).kind_index()], 1);
        assert_eq!(
            s.clashes_by_kind[Clash::DatatypeUnsatisfiable(NodeId(0)).kind_index()],
            2
        );
        // Per-kind counters survive absorption.
        let mut t = Stats::default();
        t.absorb(&s);
        assert_eq!(t.clashes_by_kind, s.clashes_by_kind);
    }
}
