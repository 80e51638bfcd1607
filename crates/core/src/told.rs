//! Told information: the syntactic told-subsumption graph over atomic
//! concepts (with axiom provenance on every edge), membership closure, a
//! union-find for individual equality — and [`ToldIndex`], the sound
//! fast path the batch reasoner consults before invoking the tableau.
//!
//! This machinery originated in the `ontolint` static-analysis crate
//! (which re-exports it for compatibility); it lives here so the
//! reasoner can reuse it without a dependency cycle.
//!
//! ## Soundness of the fast path
//!
//! The told fragment only reads inclusions whose sides are atomic (or a
//! negated atomic on the right). Under the Definition 5–7 translation,
//! an internal/strong `A ⊑ B` becomes `A⁺ ⊑ B⁺` in the induced classical
//! KB (strong additionally contraposes `B⁻ ⊑ A⁻`), an assertion `a : A`
//! becomes `a : A⁺` and `a : ¬A` becomes `a : A⁻`. So every membership
//! the non-material closure derives is a *logical consequence* of the
//! induced KB — a told verdict of "positive information present" (resp.
//! negative) is exactly a certificate that the corresponding classical
//! entailment check would answer `true`.
//!
//! **Material inclusions are never followed**, and this exclusion is
//! load-bearing, not stylistic. `A ↦ B` images to `¬A⁻ ⊑ B⁺`, which
//! quantifies over `Δ ∖ proj⁻(A)` — a *superset* of `proj⁺(A)`. From
//! `x : A` (i.e. `x : A⁺`) nothing stops a model from also placing
//! `x ∈ A⁻`, escaping the inclusion entirely, so `K̄ ⊭ B⁺(x)`: following
//! the material edge would certify a non-consequence (the executable
//! counterexample is `material_link_is_not_a_certificate` below). The
//! Horn fast path (`crate::horn`) inherits the same line — a material
//! image carries `¬` in its body, which the Horn fragment classifier
//! rejects, so no saturation rule is ever read off a material inclusion.
//! The fast path also never claims *absence* of information — absence
//! always falls back to the tableau.

use crate::cache::{lock_mutex, recover};
use crate::inclusion::InclusionKind;
use crate::kb4::{Axiom4, KnowledgeBase4};
use dl::name::{ConceptName, IndividualName};
use dl::Concept;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// One told-subsumption edge `from ⟶ to`, read off an inclusion axiom
/// whose sides are atomic (or a negated atomic on the right).
#[derive(Debug, Clone)]
pub struct Edge {
    /// Target concept name.
    pub to: ConceptName,
    /// The inclusion kind of the originating axiom.
    pub kind: InclusionKind,
    /// Index of the originating axiom in `kb.axioms()`.
    pub axiom: usize,
}

/// The told-subsumption graph of a KB: only inclusions between atomic
/// concepts (positive edges, `A ⟶ B`) or from an atomic to a negated
/// atomic (negative edges, `A ⟶ ¬B`) are represented — the fragment on
/// which closure is sound without any real reasoning.
#[derive(Debug, Default)]
pub struct ToldGraph {
    /// `A ⊑ B`: positive information flows forward.
    pub pos_edges: BTreeMap<ConceptName, Vec<Edge>>,
    /// `A ⊑ ¬B`: positive information about `A` is negative about `B`.
    pub neg_edges: BTreeMap<ConceptName, Vec<Edge>>,
    /// Reverse of `pos_edges`, for the contrapositive (strong) direction.
    pub rev_pos_edges: BTreeMap<ConceptName, Vec<Edge>>,
}

impl ToldGraph {
    /// Read the told edges off the KB.
    pub fn build(kb: &KnowledgeBase4) -> ToldGraph {
        let mut g = ToldGraph::default();
        for (i, ax) in kb.axioms().iter().enumerate() {
            g.insert_axiom(i, ax);
        }
        g
    }

    /// Add the told edges of one axiom (indexed `i`); returns whether
    /// the axiom has the told shape (atomic ⊑ atomic / ¬atomic) and so
    /// contributed anything.
    pub fn insert_axiom(&mut self, i: usize, ax: &Axiom4) -> bool {
        let Axiom4::ConceptInclusion(kind, lhs, rhs) = ax else {
            return false;
        };
        let Concept::Atomic(from) = lhs else {
            return false;
        };
        match rhs {
            Concept::Atomic(to) => {
                self.pos_edges.entry(from.clone()).or_default().push(Edge {
                    to: to.clone(),
                    kind: *kind,
                    axiom: i,
                });
                self.rev_pos_edges
                    .entry(to.clone())
                    .or_default()
                    .push(Edge {
                        to: from.clone(),
                        kind: *kind,
                        axiom: i,
                    });
                true
            }
            Concept::Not(inner) => {
                if let Concept::Atomic(to) = &**inner {
                    self.neg_edges.entry(from.clone()).or_default().push(Edge {
                        to: to.clone(),
                        kind: *kind,
                        axiom: i,
                    });
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// Remove the edges that axiom `i` contributed (the inverse of
    /// [`ToldGraph::insert_axiom`]); returns whether anything matched.
    pub fn remove_axiom(&mut self, i: usize, ax: &Axiom4) -> bool {
        let Axiom4::ConceptInclusion(_, lhs, rhs) = ax else {
            return false;
        };
        let Concept::Atomic(from) = lhs else {
            return false;
        };
        let drop_edges = |map: &mut BTreeMap<ConceptName, Vec<Edge>>, key: &ConceptName| {
            if let Some(es) = map.get_mut(key) {
                es.retain(|e| e.axiom != i);
                if es.is_empty() {
                    map.remove(key);
                }
            }
        };
        match rhs {
            Concept::Atomic(to) => {
                drop_edges(&mut self.pos_edges, from);
                drop_edges(&mut self.rev_pos_edges, to);
                true
            }
            Concept::Not(inner) => {
                if let Concept::Atomic(_) = &**inner {
                    drop_edges(&mut self.neg_edges, from);
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }
}

/// A derived membership fact with its provenance.
#[derive(Debug, Clone)]
pub struct Derived {
    /// Axiom indices whose conjunction justifies the fact.
    pub axioms: Vec<usize>,
    /// Did the derivation pass through a `Material` inclusion? (If so the
    /// conclusion is defeasible — material inclusions tolerate exceptions.)
    pub via_material: bool,
    /// Was the fact asserted directly (no inclusion edge used)?
    pub direct: bool,
}

/// Closure of one individual's told concept memberships.
///
/// `pos` holds names `B` with derived positive information (`a ∈ pos(B)`),
/// `neg` names with derived negative information (`a ∈ neg(B)`). With
/// `allow_material = false` every derivation is a sound consequence of the
/// four-valued semantics; with `true`, material links are followed too and
/// the result is only a "likely" consequence.
pub fn close_memberships(
    graph: &ToldGraph,
    pos_seeds: &[(ConceptName, usize)],
    neg_seeds: &[(ConceptName, usize)],
    allow_material: bool,
) -> (
    BTreeMap<ConceptName, Derived>,
    BTreeMap<ConceptName, Derived>,
) {
    let follow = |kind: InclusionKind| allow_material || kind != InclusionKind::Material;
    let mut pos: BTreeMap<ConceptName, Derived> = BTreeMap::new();
    let mut neg: BTreeMap<ConceptName, Derived> = BTreeMap::new();
    let mut queue: VecDeque<(ConceptName, bool)> = VecDeque::new();
    for (name, ax) in pos_seeds {
        pos.entry(name.clone()).or_insert_with(|| {
            queue.push_back((name.clone(), true));
            Derived {
                axioms: vec![*ax],
                via_material: false,
                direct: true,
            }
        });
    }
    for (name, ax) in neg_seeds {
        neg.entry(name.clone()).or_insert_with(|| {
            queue.push_back((name.clone(), false));
            Derived {
                axioms: vec![*ax],
                via_material: false,
                direct: true,
            }
        });
    }
    while let Some((name, positive)) = queue.pop_front() {
        if positive {
            let from = pos[&name].clone();
            // a ∈ pos(A), A ⊑ B  ⟹  a ∈ pos(B).
            for e in graph.pos_edges.get(&name).into_iter().flatten() {
                if follow(e.kind) && !pos.contains_key(&e.to) {
                    pos.insert(e.to.clone(), extend(&from, e));
                    queue.push_back((e.to.clone(), true));
                }
            }
            // a ∈ pos(A), A ⊑ ¬B  ⟹  a ∈ neg(B).
            for e in graph.neg_edges.get(&name).into_iter().flatten() {
                if follow(e.kind) && !neg.contains_key(&e.to) {
                    neg.insert(e.to.clone(), extend(&from, e));
                    queue.push_back((e.to.clone(), false));
                }
            }
        } else {
            // a ∈ neg(B), A → B strong  ⟹  a ∈ neg(A) (contraposition;
            // only strong inclusions propagate negative information back).
            let from = neg[&name].clone();
            for e in graph.rev_pos_edges.get(&name).into_iter().flatten() {
                if e.kind == InclusionKind::Strong && !neg.contains_key(&e.to) {
                    neg.insert(e.to.clone(), extend(&from, e));
                    queue.push_back((e.to.clone(), false));
                }
            }
        }
    }
    (pos, neg)
}

fn extend(from: &Derived, e: &Edge) -> Derived {
    let mut axioms = from.axioms.clone();
    axioms.push(e.axiom);
    Derived {
        axioms,
        via_material: from.via_material || e.kind == InclusionKind::Material,
        direct: false,
    }
}

/// Strongly connected components (size ≥ 2) of the positive told graph —
/// the cyclic-subsumption detector. Kosaraju's algorithm, iterative.
pub fn told_cycles(graph: &ToldGraph) -> Vec<BTreeSet<ConceptName>> {
    let mut nodes: BTreeSet<ConceptName> = BTreeSet::new();
    for (from, es) in &graph.pos_edges {
        nodes.insert(from.clone());
        nodes.extend(es.iter().map(|e| e.to.clone()));
    }
    // First pass: finish order on the forward graph.
    let mut finished: Vec<ConceptName> = Vec::new();
    let mut seen: BTreeSet<ConceptName> = BTreeSet::new();
    for start in &nodes {
        if seen.contains(start) {
            continue;
        }
        let mut stack = vec![(start.clone(), false)];
        while let Some((n, expanded)) = stack.pop() {
            if expanded {
                finished.push(n);
                continue;
            }
            if !seen.insert(n.clone()) {
                continue;
            }
            stack.push((n.clone(), true));
            for e in graph.pos_edges.get(&n).into_iter().flatten() {
                if !seen.contains(&e.to) {
                    stack.push((e.to.clone(), false));
                }
            }
        }
    }
    // Second pass: components on the reverse graph, in reverse finish order.
    let mut out = Vec::new();
    let mut assigned: BTreeSet<ConceptName> = BTreeSet::new();
    for root in finished.iter().rev() {
        if assigned.contains(root) {
            continue;
        }
        let mut component = BTreeSet::new();
        let mut stack = vec![root.clone()];
        while let Some(n) = stack.pop() {
            if !assigned.insert(n.clone()) {
                continue;
            }
            component.insert(n.clone());
            for e in graph.rev_pos_edges.get(&n).into_iter().flatten() {
                if !assigned.contains(&e.to) {
                    stack.push(e.to.clone());
                }
            }
        }
        if component.len() >= 2 {
            out.push(component);
        }
    }
    out
}

/// A union-find over individual names, tracking the axiom indices that
/// justify each merge (coarsely: all axioms that merged into a class).
#[derive(Debug, Default)]
pub struct UnionFind {
    parent: BTreeMap<String, String>,
    axioms: BTreeMap<String, BTreeSet<usize>>,
}

impl UnionFind {
    /// Root of `x`'s class (path-halving on the string keys).
    pub fn find(&mut self, x: &str) -> String {
        let mut cur = x.to_string();
        loop {
            match self.parent.get(&cur) {
                Some(p) if *p != cur => {
                    let gp = self.parent.get(p).cloned().unwrap_or_else(|| p.clone());
                    self.parent.insert(cur.clone(), gp.clone());
                    cur = gp;
                }
                Some(_) => return cur,
                None => {
                    self.parent.insert(cur.clone(), cur.clone());
                    return cur;
                }
            }
        }
    }

    /// Merge the classes of `a` and `b`, recording the justifying axiom.
    pub fn union(&mut self, a: &str, b: &str, axiom: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            self.axioms.entry(ra).or_default().insert(axiom);
            return;
        }
        let moved = self.axioms.remove(&rb).unwrap_or_default();
        self.parent.insert(rb, ra.clone());
        let entry = self.axioms.entry(ra).or_default();
        entry.extend(moved);
        entry.insert(axiom);
    }

    /// Are `a` and `b` in the same class?
    pub fn connected(&mut self, a: &str, b: &str) -> bool {
        self.find(a) == self.find(b)
    }

    /// The merge axioms recorded for `x`'s class.
    pub fn class_axioms(&mut self, x: &str) -> Vec<usize> {
        let root = self.find(x);
        self.axioms
            .get(&root)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }
}

/// Positive and negative atomic seeds `(name, axiom index)` of one
/// individual-equality class.
pub type SeedLists = (Vec<(ConceptName, usize)>, Vec<(ConceptName, usize)>);

/// The two membership closures of one individual-equality class.
#[derive(Debug, Default)]
pub struct Closure {
    /// Names with derived *positive* information.
    pub pos: BTreeMap<ConceptName, Derived>,
    /// Names with derived *negative* information.
    pub neg: BTreeMap<ConceptName, Derived>,
}

/// A precomputed told-information index over a SHOIN(D)4 KB: equality
/// classes, per-class assertion seeds, and lazily-computed non-material
/// membership/subsumer closures. All query methods take `&self` (the
/// closure caches sit behind mutexes) so one index can serve a whole
/// thread pool.
#[derive(Debug)]
pub struct ToldIndex {
    graph: ToldGraph,
    /// Individual → its equality-class representative.
    canon: BTreeMap<IndividualName, String>,
    /// Class representative → (positive, negative) atomic seeds.
    seeds: BTreeMap<String, SeedLists>,
    memberships: Mutex<HashMap<String, Arc<Closure>>>,
    subsumers: Mutex<HashMap<ConceptName, Arc<BTreeSet<ConceptName>>>>,
}

impl ToldIndex {
    /// Scan the KB once: equality classes, assertion seeds, told edges.
    pub fn build(kb: &KnowledgeBase4) -> ToldIndex {
        Self::build_indexed(kb.axioms().iter().enumerate())
    }

    /// Build from explicitly indexed axioms. The indices become the
    /// provenance ids on every edge and seed, so a caller with a
    /// tombstoned slot store (an incremental session) can keep its slot
    /// ids authoritative and later retract by id.
    pub fn build_indexed<'a>(axioms: impl Iterator<Item = (usize, &'a Axiom4)>) -> ToldIndex {
        let axioms: Vec<(usize, &Axiom4)> = axioms.collect();
        let mut uf = UnionFind::default();
        let mut individuals: BTreeSet<IndividualName> = BTreeSet::new();
        for (i, ax) in &axioms {
            match ax {
                Axiom4::SameIndividual(a, b) => {
                    uf.union(a.as_str(), b.as_str(), *i);
                    individuals.insert(a.clone());
                    individuals.insert(b.clone());
                }
                Axiom4::ConceptAssertion(a, _) => {
                    individuals.insert(a.clone());
                }
                _ => {}
            }
        }
        let mut canon = BTreeMap::new();
        for o in &individuals {
            canon.insert(o.clone(), uf.find(o.as_str()));
        }
        let mut seeds: BTreeMap<String, SeedLists> = BTreeMap::new();
        let mut graph = ToldGraph::default();
        for (i, ax) in &axioms {
            if let Axiom4::ConceptAssertion(a, c) = ax {
                let root = canon[a].clone();
                let entry = seeds.entry(root).or_default();
                seed_atoms(c, true, *i, entry);
            }
            graph.insert_axiom(*i, ax);
        }
        ToldIndex {
            graph,
            canon,
            seeds,
            memberships: Mutex::new(HashMap::new()),
            subsumers: Mutex::new(HashMap::new()),
        }
    }

    /// Incrementally fold one added axiom (slot id `id`) into the
    /// index. Returns the number of memoized rows (membership closures,
    /// subsumer sets) that had to be dropped, or `None` when the axiom
    /// restructures the equality-class partition (a `SameIndividual`
    /// merge) and the caller must rebuild the index.
    pub fn note_added(&mut self, id: usize, ax: &Axiom4) -> Option<usize> {
        match ax {
            Axiom4::SameIndividual(..) => None,
            Axiom4::ConceptAssertion(a, c) => {
                let root = self.root_of(a);
                let mut fresh = SeedLists::default();
                seed_atoms(c, true, id, &mut fresh);
                if fresh.0.is_empty() && fresh.1.is_empty() {
                    return Some(0);
                }
                let entry = self.seeds.entry(root.clone()).or_default();
                entry.0.extend(fresh.0);
                entry.1.extend(fresh.1);
                Some(self.drop_membership_row(&root))
            }
            _ => {
                if self.graph.insert_axiom(id, ax) {
                    // A new told edge can extend any closure, so every
                    // memoized row is conservatively dropped.
                    Some(self.drop_all_rows())
                } else {
                    Some(0)
                }
            }
        }
    }

    /// Incrementally remove one retracted axiom (slot id `id`) from the
    /// index. Same contract as [`ToldIndex::note_added`].
    pub fn note_retracted(&mut self, id: usize, ax: &Axiom4) -> Option<usize> {
        match ax {
            Axiom4::SameIndividual(..) => None,
            Axiom4::ConceptAssertion(a, _) => {
                let root = self.root_of(a);
                if let Some(entry) = self.seeds.get_mut(&root) {
                    entry.0.retain(|(_, ax_id)| *ax_id != id);
                    entry.1.retain(|(_, ax_id)| *ax_id != id);
                    if entry.0.is_empty() && entry.1.is_empty() {
                        self.seeds.remove(&root);
                    }
                }
                Some(self.drop_membership_row(&root))
            }
            _ => {
                if self.graph.remove_axiom(id, ax) {
                    Some(self.drop_all_rows())
                } else {
                    Some(0)
                }
            }
        }
    }

    /// The equality-class representative of `a` (identity for
    /// individuals no merge ever touched).
    fn root_of(&self, a: &IndividualName) -> String {
        self.canon
            .get(a)
            .cloned()
            .unwrap_or_else(|| a.as_str().to_string())
    }

    /// Drop the memoized membership closure of one class; returns how
    /// many rows that was (0 or 1).
    fn drop_membership_row(&mut self, root: &str) -> usize {
        match recover(self.memberships.get_mut()).remove(root) {
            Some(_) => 1,
            None => 0,
        }
    }

    /// Drop every memoized row; returns how many there were.
    fn drop_all_rows(&mut self) -> usize {
        let memberships = recover(self.memberships.get_mut());
        let mut n = memberships.len();
        memberships.clear();
        let subsumers = recover(self.subsumers.get_mut());
        n += subsumers.len();
        subsumers.clear();
        n
    }

    /// How many memoized rows (membership closures + subsumer sets) the
    /// index currently holds — what a full rebuild throws away.
    pub fn memoized_rows(&self) -> usize {
        lock_mutex(&self.memberships).len() + lock_mutex(&self.subsumers).len()
    }

    /// The underlying told graph.
    pub fn graph(&self) -> &ToldGraph {
        &self.graph
    }

    fn closure_of(&self, a: &IndividualName) -> Arc<Closure> {
        let root = self
            .canon
            .get(a)
            .cloned()
            .unwrap_or_else(|| a.as_str().to_string());
        if let Some(hit) = lock_mutex(&self.memberships).get(&root) {
            return hit.clone();
        }
        let closure = match self.seeds.get(&root) {
            Some((pos_seeds, neg_seeds)) => {
                let (pos, neg) = close_memberships(&self.graph, pos_seeds, neg_seeds, false);
                Arc::new(Closure { pos, neg })
            }
            None => Arc::new(Closure::default()),
        };
        lock_mutex(&self.memberships)
            .entry(root)
            .or_insert(closure)
            .clone()
    }

    /// Syntactically-certain verdict on `a` and atomic `c`: the pair
    /// `(positive information derivable, negative information derivable)`.
    /// `false` means "no told certificate", **not** "no information" —
    /// callers must fall back to the tableau for the `false` sides.
    pub fn verdict(&self, a: &IndividualName, c: &ConceptName) -> (bool, bool) {
        let closure = self.closure_of(a);
        (closure.pos.contains_key(c), closure.neg.contains_key(c))
    }

    /// Is `sup` a told subsumer of `sub` (a non-material inclusion chain
    /// `sub ⟶ … ⟶ sup`, reflexively)? A `true` answer certifies the
    /// internal-inclusion entailment `sub ⊏ sup`; `false` says nothing.
    pub fn told_subsumes(&self, sub: &ConceptName, sup: &ConceptName) -> bool {
        if sub == sup {
            return true;
        }
        if let Some(hit) = lock_mutex(&self.subsumers).get(sub) {
            return hit.contains(sup);
        }
        let mut reach: BTreeSet<ConceptName> = BTreeSet::new();
        let mut stack = vec![sub.clone()];
        reach.insert(sub.clone());
        while let Some(n) = stack.pop() {
            for e in self.graph.pos_edges.get(&n).into_iter().flatten() {
                if e.kind != InclusionKind::Material && reach.insert(e.to.clone()) {
                    stack.push(e.to.clone());
                }
            }
        }
        let reach = Arc::new(reach);
        let hit = reach.contains(sup);
        lock_mutex(&self.subsumers).insert(sub.clone(), reach);
        hit
    }
}

/// Decompose an asserted concept into the atomic told seeds it certainly
/// implies: `A` seeds positive `A`, `¬A` seeds negative `A`, conjunctions
/// distribute over assertion, and `¬(C ⊔ D)` is `¬C ⊓ ¬D`. Anything else
/// contributes nothing (the tableau handles it).
fn seed_atoms(c: &Concept, positive: bool, axiom: usize, out: &mut SeedLists) {
    match (c, positive) {
        (Concept::Atomic(a), true) => out.0.push((a.clone(), axiom)),
        (Concept::Atomic(a), false) => out.1.push((a.clone(), axiom)),
        (Concept::Not(inner), _) => seed_atoms(inner, !positive, axiom, out),
        (Concept::And(l, r), true) | (Concept::Or(l, r), false) => {
            seed_atoms(l, positive, axiom, out);
            seed_atoms(r, positive, axiom, out);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_kb4;

    #[test]
    fn closure_follows_internal_chains() {
        let kb = parse_kb4("A SubClassOf B\nB SubClassOf C\nx : A").unwrap();
        let g = ToldGraph::build(&kb);
        let (pos, neg) = close_memberships(&g, &[(ConceptName::new("A"), 2)], &[], false);
        assert!(pos.contains_key(&ConceptName::new("C")));
        assert_eq!(pos[&ConceptName::new("C")].axioms, vec![2, 0, 1]);
        assert!(neg.is_empty());
    }

    #[test]
    fn closure_skips_material_unless_allowed() {
        let kb = parse_kb4("A MaterialSubClassOf B\nx : A").unwrap();
        let g = ToldGraph::build(&kb);
        let seeds = [(ConceptName::new("A"), 1)];
        let (pos, _) = close_memberships(&g, &seeds, &[], false);
        assert!(!pos.contains_key(&ConceptName::new("B")));
        let (pos, _) = close_memberships(&g, &seeds, &[], true);
        assert!(pos[&ConceptName::new("B")].via_material);
    }

    #[test]
    fn strong_inclusions_contrapose() {
        // A → B and a ∈ neg(B) gives a ∈ neg(A).
        let kb = parse_kb4("A StrongSubClassOf B\nx : not B").unwrap();
        let g = ToldGraph::build(&kb);
        let (_, neg) = close_memberships(&g, &[], &[(ConceptName::new("B"), 1)], false);
        assert!(neg.contains_key(&ConceptName::new("A")));
    }

    #[test]
    fn internal_inclusions_do_not_contrapose() {
        let kb = parse_kb4("A SubClassOf B\nx : not B").unwrap();
        let g = ToldGraph::build(&kb);
        let (_, neg) = close_memberships(&g, &[], &[(ConceptName::new("B"), 1)], false);
        assert!(!neg.contains_key(&ConceptName::new("A")));
    }

    #[test]
    fn cycles_found_as_components() {
        let kb =
            parse_kb4("A SubClassOf B\nB SubClassOf C\nC SubClassOf A\nD SubClassOf A").unwrap();
        let g = ToldGraph::build(&kb);
        let cycles = told_cycles(&g);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 3);
        assert!(!cycles[0].contains(&ConceptName::new("D")));
    }

    #[test]
    fn union_find_merges_and_tracks_axioms() {
        let mut uf = UnionFind::default();
        uf.union("a", "b", 0);
        uf.union("c", "d", 1);
        assert!(uf.connected("a", "b"));
        assert!(!uf.connected("a", "c"));
        uf.union("b", "c", 2);
        assert!(uf.connected("a", "d"));
        assert_eq!(uf.class_axioms("d"), vec![0, 1, 2]);
    }

    #[test]
    fn index_verdicts_cover_chains_equalities_and_conjunctions() {
        let kb = parse_kb4(
            "A SubClassOf B
             B SubClassOf C
             A SubClassOf not D
             x : A and E
             x = y",
        )
        .unwrap();
        let idx = ToldIndex::build(&kb);
        let y = IndividualName::new("y");
        assert_eq!(idx.verdict(&y, &ConceptName::new("C")), (true, false));
        assert_eq!(idx.verdict(&y, &ConceptName::new("D")), (false, true));
        assert_eq!(idx.verdict(&y, &ConceptName::new("E")), (true, false));
        // Unseen individual / concept: no certificate either way.
        assert_eq!(
            idx.verdict(&IndividualName::new("ghost"), &ConceptName::new("A")),
            (false, false)
        );
    }

    #[test]
    fn index_never_follows_material_links() {
        let kb = parse_kb4("A MaterialSubClassOf B\nx : A").unwrap();
        let idx = ToldIndex::build(&kb);
        let x = IndividualName::new("x");
        assert_eq!(idx.verdict(&x, &ConceptName::new("A")), (true, false));
        assert_eq!(idx.verdict(&x, &ConceptName::new("B")), (false, false));
        assert!(!idx.told_subsumes(&ConceptName::new("A"), &ConceptName::new("B")));
    }

    #[test]
    fn material_link_is_not_a_certificate() {
        // The soundness counterexample behind the material exclusion:
        // `A ↦ B, x : A` does NOT classically entail `B⁺(x)` — the
        // image `¬A⁻ ⊑ B⁺` lets a model put x in A⁻ and escape — so a
        // told (or Horn) fast path that followed the material edge
        // would claim an entailment the tableau refutes.
        let kb = parse_kb4("A MaterialSubClassOf B\nx : A").unwrap();
        let idx = ToldIndex::build(&kb);
        let x = IndividualName::new("x");
        assert_eq!(idx.verdict(&x, &ConceptName::new("B")), (false, false));
        // The ground truth, straight from the tableau over `K̄` with no
        // told or Horn rung in front of it to mask a regression here.
        let entailed = |kb: &KnowledgeBase4| {
            tableau::QueryEngine::new(&crate::transform_kb(kb))
                .is_instance_of(&x, &crate::transform_concept(&Concept::atomic("B")))
                .unwrap()
        };
        assert!(!entailed(&kb));
        // An *internal* edge from the same shape IS a certificate.
        let kb = parse_kb4("A SubClassOf B\nx : A").unwrap();
        assert_eq!(
            ToldIndex::build(&kb).verdict(&x, &ConceptName::new("B")),
            (true, false)
        );
        assert!(entailed(&kb));
    }

    #[test]
    fn incremental_notes_match_a_fresh_index() {
        let base = parse_kb4("A SubClassOf B\nx : A").unwrap();
        let mut idx = ToldIndex::build(&base);
        let x = IndividualName::new("x");
        // Warm the caches so invalidation has something to drop.
        assert_eq!(idx.verdict(&x, &ConceptName::new("B")), (true, false));
        assert!(idx.told_subsumes(&ConceptName::new("A"), &ConceptName::new("B")));

        // Add a chain link (slot id 2) and a fresh assertion (slot 3).
        let link = parse_kb4("B SubClassOf C").unwrap().axioms()[0].clone();
        assert!(idx.note_added(2, &link).unwrap() > 0);
        let fact = parse_kb4("y : not C").unwrap().axioms()[0].clone();
        idx.note_added(3, &fact).unwrap();
        let full = parse_kb4("A SubClassOf B\nx : A\nB SubClassOf C\ny : not C").unwrap();
        let fresh = ToldIndex::build(&full);
        for i in ["x", "y"] {
            for c in ["A", "B", "C"] {
                let (i, c) = (IndividualName::new(i), ConceptName::new(c));
                assert_eq!(idx.verdict(&i, &c), fresh.verdict(&i, &c), "{i:?}:{c:?}");
            }
        }
        assert!(idx.told_subsumes(&ConceptName::new("A"), &ConceptName::new("C")));

        // Retract the link again: back to the base verdicts.
        assert!(idx.note_retracted(2, &link).unwrap() > 0);
        idx.note_retracted(3, &fact).unwrap();
        let back = ToldIndex::build(&base);
        for c in ["A", "B", "C"] {
            let c = ConceptName::new(c);
            assert_eq!(idx.verdict(&x, &c), back.verdict(&x, &c), "{c:?}");
        }
        assert!(!idx.told_subsumes(&ConceptName::new("A"), &ConceptName::new("C")));

        // Equality merges demand a rebuild.
        let same = parse_kb4("x = y").unwrap().axioms()[0].clone();
        assert!(idx.note_added(4, &same).is_none());
    }

    #[test]
    fn build_indexed_keeps_caller_ids_as_provenance() {
        let kb = parse_kb4("A SubClassOf B\nx : A").unwrap();
        // Sparse slot ids, as a session with tombstones would have.
        let idx = ToldIndex::build_indexed([7usize, 12].into_iter().zip(kb.axioms()));
        let x = IndividualName::new("x");
        assert_eq!(idx.verdict(&x, &ConceptName::new("B")), (true, false));
        let edges = &idx.graph().pos_edges[&ConceptName::new("A")];
        assert_eq!(edges[0].axiom, 7);
    }

    #[test]
    fn told_subsumers_are_reflexive_transitive() {
        let kb = parse_kb4("A SubClassOf B\nB StrongSubClassOf C").unwrap();
        let idx = ToldIndex::build(&kb);
        let (a, b, c) = (
            ConceptName::new("A"),
            ConceptName::new("B"),
            ConceptName::new("C"),
        );
        assert!(idx.told_subsumes(&a, &a));
        assert!(idx.told_subsumes(&a, &c));
        assert!(idx.told_subsumes(&b, &c));
        assert!(!idx.told_subsumes(&c, &a));
    }
}
