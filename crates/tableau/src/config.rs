//! Reasoner configuration and resource-limit errors.

use std::fmt;
use std::time::Duration;

/// Blocking strategies (an ablation axis — see DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingStrategy {
    /// Pairwise (dynamic double) blocking — sound and complete for SHOIN
    /// with inverse roles. The default.
    Pairwise,
    /// Subset blocking — cheaper but incomplete in the presence of inverse
    /// roles / number restrictions; exposed only for the ablation bench.
    Subset,
    /// Equality blocking — label equality on the node alone; complete for
    /// SHN without inverses, used by the ablation bench.
    Equality,
}

/// How the nondeterministic search backtracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Clone the whole completion graph per tried alternative and
    /// backtrack chronologically. Simple and battle-tested; kept as the
    /// differential-testing oracle for the trail engine.
    Snapshot,
    /// Record every graph mutation on an undo trail, tag facts with
    /// dependency sets of branch-point ids, and on a clash backjump
    /// straight past branch points that are provably irrelevant,
    /// undoing in O(changes) instead of cloning. The default.
    Trail,
}

/// Tunable parameters of the tableau search.
#[derive(Debug, Clone)]
pub struct Config {
    /// Hard cap on completion-graph nodes before giving up.
    pub max_nodes: usize,
    /// Hard cap on rule applications (across branches) before giving up.
    pub max_rule_applications: u64,
    /// Blocking strategy (ablation knob; keep `Pairwise` for correctness).
    pub blocking: BlockingStrategy,
    /// Semantic branching: on the `⊔`-rule's second branch, also assert
    /// the NNF complement of the first disjunct, so the two branches
    /// explore disjoint parts of the search space (ablation knob; the
    /// measurement justifying the `true` default is EXPERIMENTS.md §X5).
    pub semantic_branching: bool,
    /// Backtracking mechanism: trail + dependency-directed backjumping
    /// (default) or whole-graph snapshots (the differential oracle).
    pub search: SearchStrategy,
    /// Absorption / lazy unfolding of `A ⊑ C` axioms with atomic left-hand
    /// sides (ablation knob; `true` is the optimized default).
    pub absorption: bool,
    /// Model-based entailment pruning: cache one completed model of the
    /// base KB and use it to refute candidate entailments without search
    /// (sound — see `engine` module docs; `true` is the optimized
    /// default, `false` forces every query through the tableau).
    pub model_pruning: bool,
    /// Signature-based module scoping: before each query, extract the
    /// syntactic module of the query signature (`shoin4::dataflow`) and
    /// run the tableau on that subset only. Off by default — it is a
    /// four-valued-level optimization, honored by `shoin4::Reasoner4`
    /// (the classical engine itself never reads it); verdict parity
    /// with the unscoped tableau over `K̄` is property-tested in
    /// `tests/module_parity.rs`.
    pub module_scoping: bool,
    /// Wall-clock budget for one search. `None` means unbounded. The
    /// node/rule caps bound *space* and *counted work*, but a diverging
    /// nominal search (NN-rule with inverse roles) grows slowly enough
    /// that those caps are ineffective in practice; the time budget is
    /// the backstop that guarantees every call returns. A serving layer
    /// that shares one engine across requests stops a single request
    /// early through [`crate::interrupt`] instead.
    pub time_budget: Option<Duration>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_nodes: 100_000,
            max_rule_applications: 5_000_000,
            blocking: BlockingStrategy::Pairwise,
            semantic_branching: true,
            search: SearchStrategy::Trail,
            absorption: true,
            model_pruning: true,
            module_scoping: false,
            time_budget: Some(Duration::from_secs(30)),
        }
    }
}

/// Failure modes of the reasoner that are *not* answers: the search was cut
/// short, so neither "satisfiable" nor "unsatisfiable" may be concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReasonerError {
    /// The node cap was exceeded.
    NodeLimit(usize),
    /// The rule-application cap was exceeded.
    RuleLimit(u64),
    /// The wall-clock budget was exhausted.
    TimeBudget(Duration),
    /// A thread-local [`crate::interrupt`] token was raised mid-search.
    Cancelled,
}

impl fmt::Display for ReasonerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReasonerError::NodeLimit(n) => {
                write!(f, "tableau exceeded the node limit of {n}")
            }
            ReasonerError::RuleLimit(n) => {
                write!(f, "tableau exceeded the rule-application limit of {n}")
            }
            ReasonerError::TimeBudget(d) => {
                write!(f, "tableau exceeded its time budget of {d:?}")
            }
            ReasonerError::Cancelled => {
                write!(f, "tableau search cancelled by an external token")
            }
        }
    }
}

impl std::error::Error for ReasonerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_safe() {
        let c = Config::default();
        assert_eq!(c.blocking, BlockingStrategy::Pairwise);
        assert!(c.absorption);
        // Both search optimizations are on by default; the snapshot
        // engine and non-semantic branching remain as ablation knobs
        // (measured in EXPERIMENTS.md §X5 / BENCH_backjump.json).
        assert!(c.semantic_branching);
        assert_eq!(c.search, SearchStrategy::Trail);
        // Module scoping is opt-in: the default pipeline stays
        // byte-identical to the unscoped engine.
        assert!(!c.module_scoping);
        assert!(c.max_nodes > 0);
    }

    #[test]
    fn errors_display() {
        assert!(ReasonerError::NodeLimit(5)
            .to_string()
            .contains("node limit"));
        assert!(ReasonerError::RuleLimit(7)
            .to_string()
            .contains("rule-application limit"));
        assert!(ReasonerError::TimeBudget(Duration::from_secs(1))
            .to_string()
            .contains("time budget"));
        assert!(ReasonerError::Cancelled.to_string().contains("cancelled"));
    }
}
