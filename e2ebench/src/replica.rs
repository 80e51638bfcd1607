//! The layer replica of traced runs: it re-answers each op through the
//! public function of every ladder layer, in the order the program
//! walks them (told → entailment cache → module extraction → Horn →
//! module engine + tableau), one child span per call. Modules, Horn
//! programs, engines and entailment rows are cached and invalidated the
//! way `shoin4::Session` caches them, so the replica does the work the
//! program does; its verdicts are compared with the program's.

use crate::util::{ratio, Outcome, SpanStats, Tracer};
use dl::axiom::Axiom;
use dl::kb::KnowledgeBase;
use dl::name::{ConceptName, IndividualName};
use dl::Concept;
use fourval::TruthValue;
use shoin4::dataflow::{self, axiom_local, ModuleExtractor, SigAtom};
use shoin4::horn::{self, HornProgram};
use shoin4::told::ToldIndex;
use shoin4::transform::Transformer;
use shoin4::{Axiom4, InclusionKind, KnowledgeBase4};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use tableau::{Config, QueryEngine, ReasonerError};

type Key = Rc<BTreeSet<usize>>;

struct Entry {
    key: Key,
    signature: BTreeSet<SigAtom>,
    horn: Option<Option<Rc<HornProgram>>>,
    engine: Option<Rc<QueryEngine>>,
}

/// Work the replica did, for the per-layer ratios.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    /// Atomic half-probes (positive or negative) offered to the told index.
    pub atomic_probes: u64,
    /// …and how many it settled.
    pub told_settled: u64,
    pub extractions: u64,
    /// Σ module axioms ÷ live KB axioms over all extractions.
    pub module_share_sum: f64,
}

impl Counters {
    pub fn absorb(&mut self, other: &Counters) {
        self.atomic_probes += other.atomic_probes;
        self.told_settled += other.told_settled;
        self.extractions += other.extractions;
        self.module_share_sum += other.module_share_sum;
    }
}

pub struct Replica {
    slots: Vec<Option<Axiom4>>,
    live: usize,
    extractor: ModuleExtractor,
    told: ToldIndex,
    tr: Transformer,
    modules: HashMap<BTreeSet<usize>, Entry>,
    cache: HashMap<(IndividualName, Concept), (bool, Key)>,
    config: Config,
    /// Compute `serve::structural_key` for each new module, as sessions
    /// wired to a shared cache do.
    structural_keys: bool,
    pub counters: Counters,
}

/// `P ⊓ ¬Q` for atomic `P`, `Q`: the subsumption probe the Horn engine
/// answers (the shape `Reasoner4::entails` builds for atomic inclusions).
fn subsumption_probe(test: &Concept) -> Option<(&ConceptName, &ConceptName)> {
    let Concept::And(lhs, rhs) = test else {
        return None;
    };
    let (Concept::Atomic(sub), Concept::Not(negated)) = (&**lhs, &**rhs) else {
        return None;
    };
    let Concept::Atomic(sup) = &**negated else {
        return None;
    };
    Some((sub, sup))
}

impl Replica {
    pub fn new(kb: &KnowledgeBase4, structural_keys: bool) -> Replica {
        Replica {
            slots: kb.axioms().iter().cloned().map(Some).collect(),
            live: kb.len(),
            extractor: ModuleExtractor::new(kb),
            told: ToldIndex::build(kb),
            tr: Transformer::memoized(),
            modules: HashMap::new(),
            cache: HashMap::new(),
            config: Config {
                module_scoping: false,
                ..Config::default()
            },
            structural_keys,
            counters: Counters::default(),
        }
    }

    fn module(&mut self, t: &mut Tracer, op: u64, seed: &BTreeSet<SigAtom>) -> Key {
        let module = t.leaf("dataflow.extract", op, || self.extractor.extract(seed));
        self.counters.extractions += 1;
        self.counters.module_share_sum += module.axioms.len() as f64 / self.live.max(1) as f64;
        if let Some(e) = self.modules.get_mut(&module.axioms) {
            e.signature.extend(module.signature);
            return Rc::clone(&e.key);
        }
        if self.structural_keys {
            let ex = &self.extractor;
            let images = module.axioms.iter().flat_map(|&i| ex.images(i));
            std::hint::black_box(t.leaf("serve.structural_key", op, || {
                shoin4::serve::structural_key(images)
            }));
        }
        let key = Rc::new(module.axioms.clone());
        self.modules.insert(
            module.axioms,
            Entry {
                key: Rc::clone(&key),
                signature: module.signature,
                horn: None,
                engine: None,
            },
        );
        key
    }

    fn horn_of(&mut self, t: &mut Tracer, op: u64, key: &Key) -> Option<Rc<HornProgram>> {
        let entry = self.modules.get(&**key).expect("module cached");
        if let Some(program) = &entry.horn {
            return program.clone();
        }
        let ex = &self.extractor;
        let program = t.leaf("horn.compile", op, || {
            horn::compile(key.iter().flat_map(|&i| ex.images(i))).map(Rc::new)
        });
        self.modules.get_mut(&**key).expect("module cached").horn = Some(program.clone());
        program
    }

    fn engine_of(&mut self, t: &mut Tracer, op: u64, key: &Key) -> Rc<QueryEngine> {
        let entry = self.modules.get(&**key).expect("module cached");
        if let Some(engine) = &entry.engine {
            return Rc::clone(engine);
        }
        let ex = &self.extractor;
        let config = self.config.clone();
        let engine = t.leaf("tableau.engine_build", op, || {
            let kb =
                KnowledgeBase::from_axioms(key.iter().flat_map(|&i| ex.images(i).iter().cloned()));
            Rc::new(QueryEngine::with_config(&kb, config))
        });
        self.modules.get_mut(&**key).expect("module cached").engine = Some(Rc::clone(&engine));
        engine
    }

    fn instance(
        &mut self,
        t: &mut Tracer,
        op: u64,
        a: &IndividualName,
        tc: &Concept,
    ) -> Result<bool, ReasonerError> {
        let ck = (a.clone(), tc.clone());
        let hit = t.leaf("cache.lookup", op, || self.cache.get(&ck).map(|(v, _)| *v));
        if let Some(v) = hit {
            return Ok(v);
        }
        let mut seed = BTreeSet::new();
        dataflow::classical_concept_atoms(tc, &mut seed);
        seed.insert(SigAtom::Individual(a.clone()));
        let key = self.module(t, op, &seed);
        let mut verdict = None;
        if let Concept::Atomic(goal) = tc {
            if let Some(program) = self.horn_of(t, op, &key) {
                verdict = Some(t.leaf("horn.answer", op, || program.is_instance(a, goal).holds));
            }
        }
        let verdict = match verdict {
            Some(v) => v,
            None => {
                let engine = self.engine_of(t, op, &key);
                t.leaf("tableau.search", op, || engine.is_instance_of(a, tc))?
            }
        };
        self.cache.insert(ck, (verdict, key));
        Ok(verdict)
    }

    fn concept_sat(
        &mut self,
        t: &mut Tracer,
        op: u64,
        test: &Concept,
    ) -> Result<bool, ReasonerError> {
        let mut seed = BTreeSet::new();
        dataflow::classical_concept_atoms(test, &mut seed);
        let key = self.module(t, op, &seed);
        if let Some((sub, sup)) = subsumption_probe(test) {
            if let Some(program) = self.horn_of(t, op, &key) {
                return Ok(!t.leaf("horn.answer", op, || program.subsumes(sub, sup).holds));
            }
        }
        let engine = self.engine_of(t, op, &key);
        t.leaf("tableau.search", op, || engine.is_concept_satisfiable(test))
    }

    fn classical_entails(
        &mut self,
        t: &mut Tracer,
        op: u64,
        ax: &Axiom,
    ) -> Result<bool, ReasonerError> {
        let mut seed = BTreeSet::new();
        dataflow::classical_axiom_atoms(ax, &mut seed);
        let key = self.module(t, op, &seed);
        let engine = self.engine_of(t, op, &key);
        t.leaf("tableau.search", op, || engine.entails(ax))
    }

    fn told_bit(
        &mut self,
        t: &mut Tracer,
        op: u64,
        a: &IndividualName,
        c: &Concept,
        pos: bool,
    ) -> bool {
        let Concept::Atomic(name) = c else {
            return false;
        };
        self.counters.atomic_probes += 1;
        let (p, n) = t.leaf("told.verdict", op, || self.told.verdict(a, name));
        let settled = if pos { p } else { n };
        self.counters.told_settled += u64::from(settled);
        settled
    }

    /// The four-valued verdict of `a : c` (Corollary 7: two entailments).
    pub fn query(
        &mut self,
        t: &mut Tracer,
        op: u64,
        a: &IndividualName,
        c: &Concept,
    ) -> Result<TruthValue, ReasonerError> {
        let pos = if self.told_bit(t, op, a, c, true) {
            true
        } else {
            let tc = self.tr.concept(c);
            self.instance(t, op, a, &tc)?
        };
        let neg = if self.told_bit(t, op, a, c, false) {
            true
        } else {
            let tc = self.tr.neg_concept(c);
            self.instance(t, op, a, &tc)?
        };
        Ok(TruthValue::from_bits(pos, neg))
    }

    /// Four-valued axiom entailment, as `Session::entails` decides it.
    pub fn entails(&mut self, t: &mut Tracer, op: u64, ax: &Axiom4) -> Result<bool, ReasonerError> {
        match ax {
            Axiom4::ConceptInclusion(kind, c, d) => {
                if *kind == InclusionKind::Internal {
                    if let (Concept::Atomic(a), Concept::Atomic(b)) = (c, d) {
                        if t.leaf("told.verdict", op, || self.told.told_subsumes(a, b)) {
                            return Ok(true);
                        }
                    }
                }
                let (cbar, neg_cbar) = (self.tr.concept(c), self.tr.neg_concept(c));
                let (dbar, neg_dbar) = (self.tr.concept(d), self.tr.neg_concept(d));
                match kind {
                    InclusionKind::Material => {
                        Ok(!self.concept_sat(t, op, &neg_cbar.not().and(dbar.not()))?)
                    }
                    InclusionKind::Internal => {
                        Ok(!self.concept_sat(t, op, &cbar.and(dbar.not()))?)
                    }
                    InclusionKind::Strong => Ok(!self.concept_sat(t, op, &cbar.and(dbar.not()))?
                        && !self.concept_sat(t, op, &neg_dbar.and(neg_cbar.not()))?),
                }
            }
            other => {
                for image in self.tr.axiom(other) {
                    if !self.classical_entails(t, op, &image)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
        }
    }

    /// Is the KB satisfiable? (The ∅-seed module; Horn modules always are.)
    pub fn is_satisfiable(&mut self, t: &mut Tracer, op: u64) -> Result<bool, ReasonerError> {
        let key = self.module(t, op, &BTreeSet::new());
        if self.horn_of(t, op, &key).is_some() {
            return Ok(true);
        }
        let engine = self.engine_of(t, op, &key);
        t.leaf("tableau.search", op, || engine.is_consistent())
    }

    /// Append an axiom and drop the modules and rows it can reach (the
    /// session's dirty test: an image that is not `⊤`-local w.r.t. the
    /// module's signature).
    pub fn add(&mut self, ax: Axiom4) {
        let id = self.extractor.push_axiom(&ax);
        self.slots.push(Some(ax.clone()));
        self.live += 1;
        let images = self.extractor.images(id).to_vec();
        self.invalidate(|e| !images.iter().all(|im| axiom_local(im, &e.signature)));
        self.note_told(id, &ax, true);
    }

    /// Retract the most recent live occurrence; `false` when absent.
    pub fn retract(&mut self, ax: &Axiom4) -> bool {
        let Some(id) = self.slots.iter().rposition(|s| s.as_ref() == Some(ax)) else {
            return false;
        };
        self.slots[id] = None;
        self.live -= 1;
        self.extractor.remove_axiom(id);
        self.invalidate(|e| e.key.contains(&id));
        self.note_told(id, ax, false);
        true
    }

    fn invalidate(&mut self, dirty: impl Fn(&Entry) -> bool) {
        let mut gone: HashSet<Key> = HashSet::new();
        self.modules.retain(|_, e| {
            let d = dirty(e);
            if d {
                gone.insert(Rc::clone(&e.key));
            }
            !d
        });
        if !gone.is_empty() {
            self.cache.retain(|_, (_, key)| !gone.contains(key));
        }
    }

    fn note_told(&mut self, id: usize, ax: &Axiom4, added: bool) {
        let noted = if added {
            self.told.note_added(id, ax)
        } else {
            self.told.note_retracted(id, ax)
        };
        if noted.is_none() {
            self.told = ToldIndex::build_indexed(
                self.slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, s)| s.as_ref().map(|ax| (i, ax))),
            );
        }
    }
}

/// The ladder metrics every workload derives the same way: replica
/// spans and counters plus the program's own `Stats` (`ops` ops).
pub fn ladder_metrics(
    out: &mut Outcome,
    spans: &SpanStats,
    c: &Counters,
    stats: &tableau::Stats,
    extractions_per_op: f64,
    ops: f64,
) {
    out.set(
        "told.answer_share",
        ratio(c.told_settled as f64, c.atomic_probes as f64),
    );
    out.set(
        "cache.entail_hit_ratio",
        ratio(
            stats.entailment_cache_hits as f64,
            (stats.entailment_cache_hits + stats.entailment_cache_misses) as f64,
        ),
    );
    out.set(
        "dataflow.extract_us_p50",
        spans.pct_us("dataflow.extract", 50.0),
    );
    out.set(
        "dataflow.extract_us_p99",
        spans.pct_us("dataflow.extract", 99.0),
    );
    out.set("dataflow.extractions_per_op", extractions_per_op);
    out.set(
        "dataflow.module_share",
        ratio(c.module_share_sum, c.extractions as f64),
    );
    out.set(
        "horn.route_ratio",
        ratio(
            stats.horn_queries as f64,
            (stats.horn_queries + stats.horn_fallbacks) as f64,
        ),
    );
    out.set("horn.compile_ms", spans.mean_us("horn.compile") / 1e3);
    out.set("horn.answer_us", spans.mean_us("horn.answer"));
    out.set(
        "tableau.engine_build_ms",
        spans.mean_us("tableau.engine_build") / 1e3,
    );
    out.set(
        "tableau.search_us_p50",
        spans.pct_us("tableau.search", 50.0),
    );
    out.set(
        "tableau.search_us_p99",
        spans.pct_us("tableau.search", 99.0),
    );
    out.set(
        "tableau.rule_applications",
        stats.rule_applications as f64 / ops,
    );
    out.set("tableau.branches", stats.branches as f64 / ops);
    out.set("tableau.backjumps", stats.backjumps as f64 / ops);
}
