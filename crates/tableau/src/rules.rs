//! The tableau expansion engine: deterministic saturation, clash
//! detection, nondeterministic branching (`⊔`, `o`, `≤`-merge, `NN`) and
//! the generating rules (`∃`, `≥`).
//!
//! Two search strategies share one rule engine ([`crate::config::SearchStrategy`]):
//!
//! * **Snapshot** — branching clones the completion graph per tried
//!   alternative and backtracks chronologically. Kept as the
//!   differential-testing oracle.
//! * **Trail** (default) — every graph mutation is recorded on an undo
//!   trail and tagged with a [`DepSet`] of branch-point ids; a clash
//!   reports the union of its facts' dep-sets, and the search *backjumps*
//!   past branch points the clash does not depend on, undoing the trail
//!   in O(changes) instead of cloning. See `docs/perf.md` for the
//!   dep-set invariant and the soundness argument.
//!
//! The rule priorities follow the SHOIQ calculus: nominal merging first,
//! then `NN`, then the boolean/merge choices, with generating rules last
//! and only on unblocked nodes.

use crate::blocking::is_blocked;
use crate::clash::{Clash, ClashInfo};
use crate::config::{Config, ReasonerError, SearchStrategy};
use crate::datatype_oracle::data_satisfiable;
use crate::graph::CompletionGraph;
use crate::node::NodeId;
use crate::stats::Stats;
use crate::trail::DepSet;
use dl::axiom::RoleExpr;
use dl::kb::RoleHierarchy;
use dl::name::{ConceptName, DataRoleName, IndividualName};
use dl::nnf::nnf;
use dl::Concept;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Preprocessed, immutable reasoning context shared by all branches.
#[derive(Debug, Clone)]
pub struct Context {
    /// Role hierarchy closed under inverses, plus transitivity info.
    pub hierarchy: RoleHierarchy,
    /// Data-role hierarchy closure.
    pub data_hierarchy: BTreeMap<DataRoleName, BTreeSet<DataRoleName>>,
    /// Internalized TBox constraints `NNF(¬C ⊔ D)` that every node must
    /// satisfy (axioms not captured by absorption).
    pub globals: Vec<Concept>,
    /// Absorbed axioms: `A ⊑ D` with atomic `A`, applied lazily when `A`
    /// enters a label.
    pub unfoldings: BTreeMap<ConceptName, Vec<Concept>>,
    /// Search configuration.
    pub config: Config,
}

/// One alternative of a nondeterministic rule.
enum Alternative {
    /// Add concepts to a node (`⊔`-rule branches).
    Add(NodeId, Vec<Concept>),
    /// Merge the first node into the second (`o`/`≤` rules).
    Merge(NodeId, NodeId),
    /// An `NN`-rule guess: enforce `≤ m.R` at `x` with `m` fresh,
    /// pairwise-distinct nominal `R`-neighbours.
    NewNominals { x: NodeId, role: RoleExpr, m: u32 },
}

/// One open branch point of the trail search.
struct BranchPoint {
    /// This branch point's id — the element facts derived under it carry
    /// in their dep-sets.
    id: u32,
    /// Trail mark taken *after* the choice was located (choice location
    /// may materialize nominal nodes, which belong to the pre-branch
    /// state): undoing to here restores the graph as it was before any
    /// alternative was applied.
    mark: usize,
    /// `nn_counter` at branch time, restored on every undo so fresh
    /// `__nnK` nominal names are deterministic across alternatives (and
    /// identical to the snapshot engine's on the success path).
    nn_mark: u32,
    /// Alternatives not yet tried.
    alts: std::vec::IntoIter<Alternative>,
    /// Dep-set of the facts that made this choice *exist* (the `⊔`-fact,
    /// the `≤`-fact plus its edges, …). Folded into the failure deps when
    /// the branch point exhausts.
    premise_deps: DepSet,
    /// Union of the clash deps of every failed alternative so far, minus
    /// this point's own id.
    failure_deps: DepSet,
}

/// The DFS search engine.
pub struct Search<'a> {
    ctx: &'a Context,
    /// Counters for the whole call (all branches).
    pub stats: Stats,
    nn_counter: u32,
    /// Wall-clock deadline and the budget it enforces: the earlier of
    /// [`Config::time_budget`] and a budget [`crate::interrupt`]ed onto
    /// this thread.
    deadline: Option<(Instant, Duration)>,
}

impl<'a> Search<'a> {
    /// A fresh search over the given context.
    pub fn new(ctx: &'a Context) -> Self {
        Search {
            ctx,
            stats: Stats::default(),
            nn_counter: 0,
            deadline: ctx
                .config
                .time_budget
                .map(|d| (Instant::now() + d, d))
                .into_iter()
                .chain(crate::interrupt::deadline())
                .min_by_key(|(at, _)| *at),
        }
    }

    /// Decide satisfiability of the (initialized) completion graph.
    pub fn satisfiable(&mut self, g: CompletionGraph) -> Result<bool, ReasonerError> {
        Ok(self.complete(g)?.is_some())
    }

    /// Run the search to completion; on success return the complete,
    /// clash-free completion graph (for model extraction). Dispatches on
    /// [`Config::search`]; both engines are depth-first over an explicit
    /// stack of open branch points, so deeply nested `⊔`/`≤`/`o` choices
    /// cannot overflow the call stack.
    pub fn complete(
        &mut self,
        g: CompletionGraph,
    ) -> Result<Option<CompletionGraph>, ReasonerError> {
        match self.ctx.config.search {
            SearchStrategy::Snapshot => self.complete_snapshot(g),
            SearchStrategy::Trail => self.complete_trail(g),
        }
    }

    /// Snapshot search: each open branch point holds the pre-branch graph
    /// and its untried alternatives; trying an alternative clones the
    /// base graph. Chronological backtracking.
    fn complete_snapshot(
        &mut self,
        g: CompletionGraph,
    ) -> Result<Option<CompletionGraph>, ReasonerError> {
        let mut open: Vec<(CompletionGraph, std::vec::IntoIter<Alternative>, u32)> = Vec::new();
        let mut current = Some(g);
        loop {
            // A graph to work on: the current one, or the next untried
            // alternative of the deepest open branch point (backtracking).
            let mut g = match current.take() {
                Some(g) => g,
                None => {
                    let Some((base, mut alts, nn_mark)) = open.pop() else {
                        return Ok(None); // search space exhausted
                    };
                    let Some(alt) = alts.next() else {
                        continue; // branch point exhausted; backtrack further
                    };
                    // Trying an alternative is an application of the
                    // branching rule: count it, so the rule-application
                    // limit bounds the whole search even when most
                    // alternatives clash immediately.
                    self.stats.rule_applications += 1;
                    self.check_limits(&base)?;
                    self.nn_counter = nn_mark;
                    let mut g2 = base.clone();
                    self.stats.graph_clones += 1;
                    open.push((base, alts, nn_mark));
                    if let Some(ci) = self.apply_alternative(&mut g2, alt, DepSet::empty()) {
                        self.stats.record_clash(&ci.clash);
                        continue;
                    }
                    g2
                }
            };
            self.check_limits(&g)?;
            self.stats.branch_depth_peak = self.stats.branch_depth_peak.max(open.len() as u64 + 1);
            if let Some(ci) = self.saturate(&mut g)? {
                self.stats.record_clash(&ci.clash);
                continue;
            }
            if let Some(ci) = self.data_clash(&g) {
                self.stats.record_clash(&ci.clash);
                continue;
            }
            if let Some((alts, _premise)) = self.find_choice(&mut g) {
                self.stats.branches += 1;
                open.push((g, alts.into_iter(), self.nn_counter));
                continue;
            }
            if !self.apply_generating(&mut g)? {
                return Ok(Some(g));
            }
            current = Some(g);
        }
    }

    /// Trail search with dependency-directed backjumping: one graph,
    /// mutated in place; branch points remember a trail mark, and a clash
    /// backjumps to the deepest branch point in its dep-set, undoing the
    /// trail on the way.
    fn complete_trail(
        &mut self,
        mut g: CompletionGraph,
    ) -> Result<Option<CompletionGraph>, ReasonerError> {
        g.set_trailing(true);
        let mut open: Vec<BranchPoint> = Vec::new();
        let mut next_id: u32 = 0;
        // A clash whose responsible branch point is still to be found.
        let mut pending: Option<DepSet> = None;
        loop {
            if let Some(deps) = pending.take() {
                if !self.backjump(&mut g, &mut open, deps)? {
                    return Ok(None); // no responsible choice left: unsatisfiable
                }
            }
            self.check_limits(&g)?;
            if let Some(ci) = self.saturate(&mut g)? {
                self.stats.record_clash(&ci.clash);
                pending = Some(ci.deps);
                continue;
            }
            if let Some(ci) = self.data_clash(&g) {
                self.stats.record_clash(&ci.clash);
                pending = Some(ci.deps);
                continue;
            }
            if let Some((alts, premise)) = self.find_choice(&mut g) {
                self.stats.branches += 1;
                let id = next_id;
                next_id += 1;
                let mut alts = alts.into_iter();
                // The mark is taken *after* find_choice: any nominal nodes
                // it materialized belong to the pre-branch state shared by
                // all alternatives.
                let first = alts.next().expect("a choice has at least one alternative");
                open.push(BranchPoint {
                    id,
                    mark: g.mark(),
                    nn_mark: self.nn_counter,
                    alts,
                    premise_deps: premise,
                    failure_deps: DepSet::empty(),
                });
                self.stats.branch_depth_peak = self.stats.branch_depth_peak.max(open.len() as u64);
                if let Some(ci) = self.apply_alternative(&mut g, first, DepSet::single(id)) {
                    self.stats.record_clash(&ci.clash);
                    pending = Some(ci.deps);
                }
                continue;
            }
            if !self.apply_generating(&mut g)? {
                g.clear_trail();
                return Ok(Some(g));
            }
        }
    }

    /// Resolve a clash with dep-set `deps`: undo back to the deepest
    /// *responsible* branch point and apply its next alternative. Branch
    /// points not in `deps` are popped wholesale (the backjump — none of
    /// their remaining alternatives can avoid a clash that does not
    /// depend on them); exhausted responsible branch points fold their
    /// accumulated failure deps into the clash and propagation continues
    /// upward. Returns `false` when the whole stack exhausts — with the
    /// dep-set invariant, that refutes the KB.
    fn backjump(
        &mut self,
        g: &mut CompletionGraph,
        open: &mut Vec<BranchPoint>,
        mut deps: DepSet,
    ) -> Result<bool, ReasonerError> {
        self.stats.trail_len_peak = self.stats.trail_len_peak.max(g.trail_len() as u64);
        loop {
            let Some(bp) = open.last_mut() else {
                return Ok(false);
            };
            if !deps.contains(bp.id) {
                // Dependency-directed skip: every fact of the clash is
                // derivable whatever this branch point chooses, so all
                // its remaining alternatives rederive the same clash.
                let bp = open.pop().expect("just peeked");
                g.undo_to(bp.mark);
                self.nn_counter = bp.nn_mark;
                self.stats.backjumps += 1;
                continue;
            }
            // This choice is implicated: remember why it failed, restore
            // the pre-branch state, and try the next alternative.
            let mut failure = deps.clone();
            failure.remove(bp.id);
            bp.failure_deps.union_with(&failure);
            g.undo_to(bp.mark);
            self.nn_counter = bp.nn_mark;
            match bp.alts.next() {
                Some(alt) => {
                    let id = bp.id;
                    self.check_limits(g)?;
                    match self.apply_alternative(g, alt, DepSet::single(id)) {
                        Some(ci) => {
                            self.stats.record_clash(&ci.clash);
                            deps = ci.deps;
                            continue;
                        }
                        None => return Ok(true),
                    }
                }
                None => {
                    // Exhausted: every alternative failed. The union of
                    // the premise deps and all alternatives' failure deps
                    // (minus this point's own id) is a clash one level up.
                    let bp = open.pop().expect("just peeked");
                    deps = bp.failure_deps;
                    deps.union_with(&bp.premise_deps);
                    deps.remove(bp.id);
                    continue;
                }
            }
        }
    }

    fn check_limits(&mut self, g: &CompletionGraph) -> Result<(), ReasonerError> {
        self.stats.peak_graph_size = self.stats.peak_graph_size.max(g.live_node_count() as u64);
        if g.allocated_nodes() > self.ctx.config.max_nodes {
            return Err(ReasonerError::NodeLimit(self.ctx.config.max_nodes));
        }
        if self.stats.rule_applications > self.ctx.config.max_rule_applications {
            return Err(ReasonerError::RuleLimit(
                self.ctx.config.max_rule_applications,
            ));
        }
        if let Some((at, budget)) = self.deadline {
            if Instant::now() > at {
                return Err(ReasonerError::TimeBudget(budget));
            }
        }
        if crate::interrupt::interrupted() {
            self.stats.cancelled += 1;
            return Err(ReasonerError::Cancelled);
        }
        Ok(())
    }

    /// Ensure every individual mentioned in a nominal has a root node.
    /// (The reasoner pre-creates nodes for signature individuals; `NN`
    /// nominals are created with their nodes; this covers stragglers from
    /// concept-level nominals introduced mid-search.) `deps` are the
    /// branch choices of the fact that mentioned the individual — the
    /// node's existence is conditional on them.
    fn ensure_nominal_node(
        &mut self,
        g: &mut CompletionGraph,
        o: &IndividualName,
        deps: DepSet,
    ) -> NodeId {
        if let Some(n) = g.nominal_node(o) {
            return n;
        }
        let n = g.new_root_d(deps.clone());
        self.stats.nodes_created += 1;
        g.set_nominal_node(o.clone(), n);
        g.add_concept_d(n, Concept::one_of([o.clone()]), deps);
        n
    }

    /// Apply deterministic rules to a fixpoint. Returns a clash (with the
    /// responsible dep-set) if one arises.
    fn saturate(&mut self, g: &mut CompletionGraph) -> Result<Option<ClashInfo>, ReasonerError> {
        loop {
            self.check_limits(g)?;
            let mut changed = false;
            let nodes: Vec<NodeId> = g.live_nodes().collect();
            for x in nodes {
                if !g.is_live(x) {
                    continue; // merged away during this pass
                }
                let x = g.resolve(x);
                // Global TBox constraints: unconditional facts.
                for c in &self.ctx.globals {
                    if g.add_concept(x, c.clone()) {
                        changed = true;
                        self.stats.rule_applications += 1;
                    }
                }
                let label: Vec<Concept> = g.node(x).label.iter().cloned().collect();
                for c in &label {
                    match c {
                        Concept::Atomic(a) => {
                            if let Some(unf) = self.ctx.unfoldings.get(a) {
                                let deps = g.concept_deps(x, c);
                                for d in unf {
                                    if g.add_concept_d(x, d.clone(), deps.clone()) {
                                        changed = true;
                                        self.stats.rule_applications += 1;
                                    }
                                }
                            }
                        }
                        // Boolean constraint propagation: a disjunction
                        // with one disjunct already refuted in this label
                        // is deterministic. Without this, unsatisfiable
                        // inputs drown in irrelevant ⊔ choice points
                        // (chronological backtracking re-explores them
                        // exponentially). The derived disjunct depends on
                        // the disjunction *and* on the refuting facts.
                        Concept::Or(l, r) => {
                            let has_l = g.has_concept(x, l);
                            let has_r = g.has_concept(x, r);
                            if !has_l && !has_r {
                                let mut ldeps = DepSet::empty();
                                let mut rdeps = DepSet::empty();
                                let l_false = definitely_false_d(g, x, l, &mut ldeps);
                                let r_false = definitely_false_d(g, x, r, &mut rdeps);
                                if l_false {
                                    let mut deps = g.concept_deps(x, c);
                                    deps.union_with(&ldeps);
                                    if g.add_concept_d(x, (**r).clone(), deps) {
                                        changed = true;
                                        self.stats.rule_applications += 1;
                                    }
                                }
                                if r_false {
                                    let mut deps = g.concept_deps(x, c);
                                    deps.union_with(&rdeps);
                                    if g.add_concept_d(x, (**l).clone(), deps) {
                                        changed = true;
                                        self.stats.rule_applications += 1;
                                    }
                                }
                            }
                        }
                        Concept::And(l, r) => {
                            let deps = g.concept_deps(x, c);
                            if g.add_concept_d(x, (**l).clone(), deps.clone()) {
                                changed = true;
                                self.stats.rule_applications += 1;
                            }
                            if g.add_concept_d(x, (**r).clone(), deps) {
                                changed = true;
                                self.stats.rule_applications += 1;
                            }
                        }
                        Concept::All(role, filler) => {
                            let base = g.concept_deps(x, c);
                            for y in g.neighbours(x, role, &self.ctx.hierarchy) {
                                let mut deps = base.clone();
                                deps.union_with(&g.edge_deps_between(x, y));
                                if g.add_concept_d(y, (**filler).clone(), deps) {
                                    changed = true;
                                    self.stats.rule_applications += 1;
                                }
                            }
                            // ∀₊: push through transitive subroles.
                            for s in self.ctx.hierarchy.transitive_subroles(role) {
                                let push = Concept::all(s.clone(), (**filler).clone());
                                for y in g.neighbours(x, &s, &self.ctx.hierarchy) {
                                    let mut deps = base.clone();
                                    deps.union_with(&g.edge_deps_between(x, y));
                                    if g.add_concept_d(y, push.clone(), deps) {
                                        changed = true;
                                        self.stats.rule_applications += 1;
                                    }
                                }
                            }
                        }
                        Concept::OneOf(os) if os.len() == 1 => {
                            let o = os.iter().next().expect("singleton").clone();
                            let deps = g.concept_deps(x, c);
                            let target = self.ensure_nominal_node(g, &o, deps.clone());
                            let x_now = g.resolve(x);
                            if x_now != target {
                                self.stats.rule_applications += 1;
                                // Prefer merging the blockable node into
                                // the root.
                                if let Some(ci) = g.merge_d(x_now, target, deps) {
                                    return Ok(Some(ci));
                                }
                                changed = true;
                            }
                        }
                        Concept::OneOf(os) if os.is_empty() => {
                            return Ok(Some(ClashInfo::new(
                                Clash::Bottom(x),
                                g.concept_deps(x, c),
                            )));
                        }
                        Concept::Not(inner) => {
                            if let Concept::OneOf(os) = &**inner {
                                let deps = g.concept_deps(x, c);
                                for o in os {
                                    let target = self.ensure_nominal_node(g, o, deps.clone());
                                    let x_now = g.resolve(x);
                                    if let Some(ci) = g.set_distinct_d(x_now, target, deps.clone())
                                    {
                                        return Ok(Some(ci));
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                    if !g.is_live(x) {
                        break; // x merged away; restart outer pass
                    }
                }
            }
            if let Some(ci) = self.find_clash(g) {
                return Ok(Some(ci));
            }
            if !changed {
                return Ok(None);
            }
        }
    }

    /// Scan for a clash in the current graph, reporting the union of the
    /// clashing facts' dep-sets.
    fn find_clash(&self, g: &CompletionGraph) -> Option<ClashInfo> {
        for x in g.live_nodes() {
            let node = g.node(x);
            for c in &node.label {
                match c {
                    Concept::Bottom => {
                        return Some(ClashInfo::new(Clash::Bottom(x), g.concept_deps(x, c)));
                    }
                    Concept::Not(inner) => {
                        if let Concept::Atomic(a) = &**inner {
                            let pos = Concept::Atomic(a.clone());
                            if node.label.contains(&pos) {
                                let mut deps = g.concept_deps(x, c);
                                deps.union_with(&g.concept_deps(x, &pos));
                                return Some(ClashInfo::new(
                                    Clash::Complementary(x, a.clone()),
                                    deps,
                                ));
                            }
                        }
                    }
                    Concept::AtMost(n, role) => {
                        let ys = g.neighbours(x, role, &self.ctx.hierarchy);
                        if ys.len() > *n as usize
                            && has_n_pairwise_distinct(g, &ys, *n as usize + 1)
                        {
                            // Over-approximate: the ≤-fact, every edge to
                            // a counted neighbour, and every inequality
                            // among them (a subset would do; a superset
                            // is sound and cheaper than minimizing).
                            let mut deps = g.concept_deps(x, c);
                            for (i, &yi) in ys.iter().enumerate() {
                                deps.union_with(&g.edge_deps_between(x, yi));
                                for &yj in ys.iter().skip(i + 1) {
                                    deps.union_with(&g.distinct_deps(yi, yj));
                                }
                            }
                            return Some(ClashInfo::new(
                                Clash::CardinalityExceeded(x, c.clone()),
                                deps,
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
        None
    }

    /// Does any node have unsatisfiable datatype constraints? The
    /// responsible dep-set is the union over the node's data concepts.
    fn data_clash(&self, g: &CompletionGraph) -> Option<ClashInfo> {
        for x in g.live_nodes() {
            let node = g.node(x);
            let data: Vec<&Concept> = node
                .label
                .iter()
                .filter(|c| {
                    matches!(
                        c,
                        Concept::DataSome(..)
                            | Concept::DataAll(..)
                            | Concept::DataAtLeast(..)
                            | Concept::DataAtMost(..)
                    )
                })
                .collect();
            if data.is_empty() {
                continue;
            }
            if !data_satisfiable(&node.label, &self.ctx.data_hierarchy) {
                let mut deps = node.creation.clone();
                for c in data {
                    deps.union_with(&g.concept_deps(x, c));
                }
                return Some(ClashInfo::new(Clash::DatatypeUnsatisfiable(x), deps));
            }
        }
        None
    }

    /// Locate the highest-priority nondeterministic rule, returning its
    /// alternatives and the dep-set of the facts that *triggered* the
    /// choice (the premise deps, folded into the failure when every
    /// alternative clashes). Takes `&mut CompletionGraph` because
    /// multi-element nominal choices may need to materialize root nodes
    /// for individuals first mentioned inside a query concept.
    fn find_choice(&mut self, g: &mut CompletionGraph) -> Option<(Vec<Alternative>, DepSet)> {
        // Priority 1: multi-element nominal disjunction.
        let nominal_choice: Option<(NodeId, Concept, Vec<IndividualName>)> =
            g.live_nodes().find_map(|x| {
                g.node(x).label.iter().find_map(|c| match c {
                    Concept::OneOf(os)
                        if os.len() > 1 && !os.iter().any(|o| g.nominal_node(o) == Some(x)) =>
                    {
                        Some((x, c.clone(), os.iter().cloned().collect()))
                    }
                    _ => None,
                })
            });
        if let Some((x, c, os)) = nominal_choice {
            let premise = g.concept_deps(x, &c);
            let alts = os
                .iter()
                .map(|o| {
                    let target = self.ensure_nominal_node(g, o, premise.clone());
                    Alternative::Merge(x, target)
                })
                .collect();
            return Some((alts, premise));
        }
        // Priority 2: NN-rule.
        if let Some(found) = self.find_nn(g) {
            return Some(found);
        }
        // Priority 3: disjunction. Disjunctions with a refuted disjunct
        // were already resolved deterministically by BCP in `saturate`.
        for x in g.live_nodes() {
            for c in &g.node(x).label {
                if let Concept::Or(l, r) = c {
                    let lc = (**l).clone();
                    let rc = (**r).clone();
                    if !g.has_concept(x, &lc)
                        && !g.has_concept(x, &rc)
                        && !definitely_false(g, x, &lc)
                        && !definitely_false(g, x, &rc)
                    {
                        let mut alts = vec![Alternative::Add(x, vec![lc.clone()])];
                        if self.ctx.config.semantic_branching {
                            alts.push(Alternative::Add(x, vec![rc, nnf(&lc.not())]));
                        } else {
                            alts.push(Alternative::Add(x, vec![rc]));
                        }
                        return Some((alts, g.concept_deps(x, c)));
                    }
                }
            }
        }
        // Priority 4: ≤-merge.
        for x in g.live_nodes() {
            for c in &g.node(x).label {
                if let Concept::AtMost(n, role) = c {
                    let ys = g.neighbours(x, role, &self.ctx.hierarchy);
                    if ys.len() > *n as usize {
                        let mut alts = Vec::new();
                        for (i, &yi) in ys.iter().enumerate() {
                            for &yj in ys.iter().skip(i + 1) {
                                if !g.are_distinct(yi, yj) {
                                    let (src, dst) = merge_direction(g, x, yi, yj);
                                    alts.push(Alternative::Merge(src, dst));
                                }
                            }
                        }
                        if !alts.is_empty() {
                            let mut premise = g.concept_deps(x, c);
                            for &y in &ys {
                                premise.union_with(&g.edge_deps_between(x, y));
                            }
                            return Some((alts, premise));
                        }
                        // All pairwise distinct: the clash scan will catch
                        // it; no choice here.
                    }
                }
            }
        }
        None
    }

    /// NN-rule scan: `≤n.R ∈ L(x)`, `x` a root with a blockable
    /// `R`-neighbour `y` such that `x` is a successor of `y`, and no
    /// already-guessed `≤m.R` with `m` distinct nominal neighbours.
    fn find_nn(&self, g: &CompletionGraph) -> Option<(Vec<Alternative>, DepSet)> {
        for x in g.live_nodes() {
            let node = g.node(x);
            if !node.is_root {
                continue;
            }
            for c in &node.label {
                let Concept::AtMost(n, role) = c else {
                    continue;
                };
                if *n == 0 {
                    continue;
                }
                let ys = g.neighbours(x, role, &self.ctx.hierarchy);
                // A blockable neighbour whose tree does not hang off x:
                // i.e. x is y's successor (the edge was created from y's
                // side or rerouted). Detect: y blockable and y is not a
                // child of x.
                let troublesome = ys.iter().any(|&y| {
                    let yn = g.node(y);
                    yn.is_blockable() && yn.parent.map(|p| g.resolve(p)) != Some(x)
                });
                if !troublesome {
                    continue;
                }
                // Guard: an already-satisfied guess?
                let satisfied = (1..=*n).any(|m| {
                    node.label.contains(&Concept::at_most(m, role.clone())) && {
                        let nominal_ys: Vec<NodeId> =
                            ys.iter().copied().filter(|&y| g.node(y).is_root).collect();
                        nominal_ys.len() >= m as usize
                            && has_n_pairwise_distinct(g, &nominal_ys, m as usize)
                    }
                });
                if satisfied {
                    continue;
                }
                let mut premise = g.concept_deps(x, c);
                for &y in &ys {
                    premise.union_with(&g.edge_deps_between(x, y));
                }
                return Some((
                    (1..=*n)
                        .map(|m| Alternative::NewNominals {
                            x,
                            role: role.clone(),
                            m,
                        })
                        .collect(),
                    premise,
                ));
            }
        }
        None
    }

    /// Apply one alternative of a branching rule. `dep` is the dep-set
    /// facts added by this alternative carry — `{branch id}` in the trail
    /// search, empty in the snapshot search (which never reads deps).
    fn apply_alternative(
        &mut self,
        g: &mut CompletionGraph,
        alt: Alternative,
        dep: DepSet,
    ) -> Option<ClashInfo> {
        self.stats.rule_applications += 1;
        match alt {
            Alternative::Add(x, cs) => {
                for c in cs {
                    g.add_concept_d(x, c, dep.clone());
                }
                None
            }
            Alternative::Merge(src, dst) => {
                debug_assert_ne!(dst, NodeId(u32::MAX), "unresolved nominal target");
                g.merge_d(src, dst, dep)
            }
            Alternative::NewNominals { x, role, m } => {
                g.add_concept_d(x, Concept::at_most(m, role.clone()), dep.clone());
                let mut created = Vec::with_capacity(m as usize);
                for _ in 0..m {
                    let fresh = IndividualName::new(format!("__nn{}", self.nn_counter));
                    self.nn_counter += 1;
                    let z = g.new_root_d(dep.clone());
                    self.stats.nodes_created += 1;
                    g.set_nominal_node(fresh.clone(), z);
                    g.add_concept_d(z, Concept::one_of([fresh]), dep.clone());
                    g.add_edge_d(x, z, &role, dep.clone());
                    created.push(z);
                }
                for (i, &zi) in created.iter().enumerate() {
                    for &zj in created.iter().skip(i + 1) {
                        if let Some(ci) = g.set_distinct_d(zi, zj, dep.clone()) {
                            return Some(ci);
                        }
                    }
                }
                None
            }
        }
    }

    /// Apply one generating rule (`∃` or `≥`) to some unblocked node.
    /// Returns whether anything was generated. Generated structure
    /// inherits the generating fact's dep-set.
    fn apply_generating(&mut self, g: &mut CompletionGraph) -> Result<bool, ReasonerError> {
        let nodes: Vec<NodeId> = g.live_nodes().collect();
        for x in nodes {
            if !g.is_live(x) {
                continue;
            }
            if is_blocked(g, x, self.ctx.config.blocking) {
                continue;
            }
            let label: Vec<Concept> = g.node(x).label.iter().cloned().collect();
            for c in label {
                match &c {
                    Concept::Some(role, filler) => {
                        let has_witness = g
                            .neighbours(x, role, &self.ctx.hierarchy)
                            .into_iter()
                            .any(|y| g.has_concept(y, filler));
                        if !has_witness {
                            self.stats.rule_applications += 1;
                            let deps = g.concept_deps(x, &c);
                            let y = g.new_blockable_d(x, deps.clone());
                            self.stats.nodes_created += 1;
                            g.add_edge_d(x, y, role, deps.clone());
                            g.add_concept_d(y, (**filler).clone(), deps);
                            return Ok(true);
                        }
                    }
                    Concept::AtLeast(n, role) => {
                        if *n == 0 {
                            continue;
                        }
                        let ys = g.neighbours(x, role, &self.ctx.hierarchy);
                        if !has_n_pairwise_distinct(g, &ys, *n as usize) {
                            self.stats.rule_applications += 1;
                            let deps = g.concept_deps(x, &c);
                            let mut created = Vec::with_capacity(*n as usize);
                            for _ in 0..*n {
                                let y = g.new_blockable_d(x, deps.clone());
                                self.stats.nodes_created += 1;
                                g.add_edge_d(x, y, role, deps.clone());
                                created.push(y);
                            }
                            for (i, &yi) in created.iter().enumerate() {
                                for &yj in created.iter().skip(i + 1) {
                                    // Fresh nodes are never pre-distinct.
                                    let _ = g.set_distinct_d(yi, yj, deps.clone());
                                }
                            }
                            return Ok(true);
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(false)
    }
}

/// Is the concept *syntactically refuted* at the node — `⊥`, a literal
/// whose complement is present, or a conjunction with a refuted conjunct?
/// Used by BCP; sound because adding the concept would clash immediately.
fn definitely_false(g: &CompletionGraph, x: NodeId, c: &Concept) -> bool {
    definitely_false_d(g, x, c, &mut DepSet::empty())
}

/// Dep-reporting variant: when the concept is refuted, `deps` additionally
/// receives the dep-sets of the refuting facts (needed by BCP so the
/// derived disjunct's deps cover the refutation it relied on).
fn definitely_false_d(g: &CompletionGraph, x: NodeId, c: &Concept, deps: &mut DepSet) -> bool {
    match c {
        Concept::Bottom => true,
        Concept::Atomic(a) => {
            let neg = Concept::Atomic(a.clone()).not();
            if g.has_concept(x, &neg) {
                deps.union_with(&g.concept_deps(x, &neg));
                true
            } else {
                false
            }
        }
        Concept::Not(inner) => match &**inner {
            Concept::Atomic(_) if g.has_concept(x, inner) => {
                deps.union_with(&g.concept_deps(x, inner));
                true
            }
            Concept::Top => true,
            _ => false,
        },
        Concept::And(l, r) => {
            let mut side = DepSet::empty();
            if definitely_false_d(g, x, l, &mut side) {
                deps.union_with(&side);
                return true;
            }
            let mut side = DepSet::empty();
            if definitely_false_d(g, x, r, &mut side) {
                deps.union_with(&side);
                return true;
            }
            false
        }
        _ => false,
    }
}

/// Merge-direction preference for the `≤`-rule: never merge a root into a
/// blockable node; prefer keeping `x`'s predecessor; otherwise keep the
/// older node.
fn merge_direction(g: &CompletionGraph, x: NodeId, a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    let (an, bn) = (g.node(a), g.node(b));
    match (an.is_root, bn.is_root) {
        (true, false) => (b, a),
        (false, true) => (a, b),
        _ => {
            // Prefer the one that is x's tree parent as the target.
            let x_parent = g.node(x).parent.map(|p| g.resolve(p));
            if x_parent == Some(a) {
                (b, a)
            } else if x_parent == Some(b) {
                (a, b)
            } else if a < b {
                (b, a)
            } else {
                (a, b)
            }
        }
    }
}

/// Is there a subset of `n` pairwise-distinct (w.r.t. the `≠` relation)
/// nodes among `ys`? Small backtracking search — `n` is a cardinality from
/// the ontology and tiny in practice.
fn has_n_pairwise_distinct(g: &CompletionGraph, ys: &[NodeId], n: usize) -> bool {
    if n == 0 {
        return true;
    }
    if ys.len() < n {
        return false;
    }
    fn go(g: &CompletionGraph, ys: &[NodeId], chosen: &mut Vec<NodeId>, n: usize) -> bool {
        if chosen.len() == n {
            return true;
        }
        for (i, &y) in ys.iter().enumerate() {
            if chosen.iter().all(|&c| g.are_distinct(c, y)) {
                chosen.push(y);
                if go(g, &ys[i + 1..], chosen, n) {
                    return true;
                }
                chosen.pop();
            }
        }
        false
    }
    go(g, ys, &mut Vec::new(), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_distinct_subset_search() {
        let mut g = CompletionGraph::new();
        let a = g.new_root();
        let b = g.new_root();
        let c = g.new_root();
        g.set_distinct(a, b);
        g.set_distinct(b, c);
        // a,c not distinct: max pairwise-distinct subset is 2.
        assert!(has_n_pairwise_distinct(&g, &[a, b, c], 2));
        assert!(!has_n_pairwise_distinct(&g, &[a, b, c], 3));
        g.set_distinct(a, c);
        assert!(has_n_pairwise_distinct(&g, &[a, b, c], 3));
    }

    #[test]
    fn merge_direction_prefers_roots() {
        let mut g = CompletionGraph::new();
        let root = g.new_root();
        let x = g.new_blockable(root);
        let t = g.new_blockable(x);
        assert_eq!(merge_direction(&g, x, root, t), (t, root));
        assert_eq!(merge_direction(&g, x, t, root), (t, root));
        // Both blockable: parent of x (root is not blockable here, use
        // two tree nodes).
        let t2 = g.new_blockable(x);
        let (src, dst) = merge_direction(&g, t, x, t2);
        // x is t's parent → keep x.
        assert_eq!((src, dst), (t2, x));
    }

    #[test]
    fn definitely_false_reports_refuting_deps() {
        let mut g = CompletionGraph::new();
        let x = g.new_root();
        g.add_concept_d(x, Concept::atomic("A").not(), DepSet::single(2));
        let mut deps = DepSet::empty();
        assert!(definitely_false_d(&g, x, &Concept::atomic("A"), &mut deps));
        assert!(deps.contains(2));
        // Conjunction: only the refuted side's deps are reported.
        let mut deps = DepSet::empty();
        let c = Concept::atomic("B").and(Concept::atomic("A"));
        assert!(definitely_false_d(&g, x, &c, &mut deps));
        assert!(deps.contains(2) && deps.len() == 1);
    }
}
