//! The consequence-driven Horn rung vs the module-scoped tableau, on
//! ontogen's connected Horn corpus (`ontogen::horn`). Connectivity
//! makes this the regime the Horn rung exists for: every query module
//! drags in most of the terminology, so the scoped tableau re-searches
//! a KB-sized axiom set per query while the saturation engine compiles
//! the module once, saturates the goal-relevant slice once, and answers
//! repeat queries from memoized closures.
//!
//! Each series drives its layer through the layer's public API, as the
//! pipeline does, with no told index or entailment cache in front of
//! it. A query `a : C` is two classical probes, `a : C̄` and `a : ¬C̄`;
//! each extracts the module of its own seed (the goal's atoms plus `a`,
//! like the pipeline's probes — the four-valued `instance_seed` would
//! seed both polarities at once and hand the tableau a module of
//! nearly the whole KB here). Each distinct module of a pass is loaded
//! once — into a `QueryEngine` over `induced_module_kb` (model pruning
//! off) for the scoped tableau, into `horn::compile` over the same
//! images for saturation. A pass starts from a fresh extractor, so both
//! series pay extraction (and the Horn series its compilation and
//! saturation) inside the measurement, on identical query plans.
//!
//! Besides the Criterion group this records one sample per pass (µs per
//! query) through [`bench::write_snapshot`]: rows in
//! `target/experiments/horn_scaling.jsonl` and the committed snapshot
//! `BENCH_horn.json` at the repo root (including the `speedup_largest`
//! row EXPERIMENTS.md §X7 cites, a ratio of medians). Set
//! `BENCH_SMOKE=1` to shrink the series for CI smoke runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dl::name::{ConceptName, IndividualName};
use dl::Concept;
use ontogen::horn::{horn_kb4, HornParams};
use shoin4::dataflow::{classical_concept_atoms, ModuleExtractor, SigAtom};
use shoin4::horn::{self, HornProgram};
use shoin4::{transform_concept, transform_neg_concept, KnowledgeBase4, Reasoner4};
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use tableau::{Config, QueryEngine};

fn corpus(n: usize) -> KnowledgeBase4 {
    horn_kb4(&HornParams {
        n_concepts: 2 * n,
        n_roles: 3,
        n_individuals: n,
        n_tbox: 4 * n,
        n_abox: 2 * n,
        strong_rate: 0.3,
        material_rate: 0.0,
        disjunction_rate: 0.0,
        seed: 7,
    })
}

/// A fixed grid of instance queries: a few individuals from along the
/// role chain against concepts spread over the ladder. The count stays
/// constant as the KB grows, so scaling isolates per-query cost.
fn queries(p: &HornParams) -> Vec<(IndividualName, Concept)> {
    let mut queries = Vec::new();
    for i in 0..4usize {
        let a = IndividualName::new(format!("h{}", i * p.n_individuals / 4));
        for j in 0..8usize {
            let c = Concept::atomic(format!("H{}", j * p.n_concepts / 8));
            queries.push((a.clone(), c));
        }
    }
    queries
}

/// The split goals `C⁺`, `C⁻` of an atomic four-valued query `C`.
fn split_goals(c: &Concept) -> [ConceptName; 2] {
    [transform_concept(c), transform_neg_concept(c)].map(|goal| match goal {
        Concept::Atomic(name) => name,
        other => panic!("atomic query transformed to {other:?}"),
    })
}

/// One full pass over the query set through one layer: the scoped
/// tableau, or Horn saturation (`horn`).
fn run_queries(kb: &KnowledgeBase4, queries: &[(IndividualName, Concept)], horn: bool) {
    let extractor = ModuleExtractor::new(kb);
    let mut engines: HashMap<BTreeSet<usize>, QueryEngine> = HashMap::new();
    let mut programs: HashMap<BTreeSet<usize>, HornProgram> = HashMap::new();
    let config = Config {
        model_pruning: false,
        ..Config::default()
    };
    for (a, c) in queries {
        for goal in split_goals(c) {
            let mut seed = BTreeSet::from([SigAtom::Individual(a.clone())]);
            classical_concept_atoms(&Concept::Atomic(goal.clone()), &mut seed);
            let module = extractor.extract(&seed);
            let holds = if horn {
                if !programs.contains_key(&module.axioms) {
                    let images = module.axioms.iter().flat_map(|&i| extractor.images(i));
                    let program = horn::compile(images).expect("Horn corpus module compiles");
                    programs.insert(module.axioms.clone(), program);
                }
                programs[&module.axioms].is_instance(a, &goal).holds
            } else {
                if !engines.contains_key(&module.axioms) {
                    let kb = extractor.induced_module_kb(&module);
                    engines.insert(
                        module.axioms.clone(),
                        QueryEngine::with_config(&kb, config.clone()),
                    );
                }
                engines[&module.axioms]
                    .is_instance_of(a, &Concept::Atomic(goal))
                    .expect("within limits")
            };
            black_box(holds);
        }
    }
}

/// µs per query of each of `reps` passes.
fn timed_us_per_query(
    kb: &KnowledgeBase4,
    queries: &[(IndividualName, Concept)],
    horn: bool,
    reps: u32,
) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            run_queries(kb, queries, horn);
            start.elapsed().as_secs_f64() * 1e6 / queries.len() as f64
        })
        .collect()
}

fn bench_horn_scaling(c: &mut Criterion) {
    let smoke = bench::smoke();
    let sizes: &[usize] = if smoke { &[4] } else { &[8, 16, 32] };
    let mut rows = Vec::new();
    let mut largest = (f64::NAN, f64::NAN, f64::NAN); // (axioms, scoped tableau, horn) median us/query

    let mut group = c.benchmark_group("horn_scaling");
    group.sample_size(10);
    for &n in sizes {
        let kb = corpus(n);
        let p = HornParams {
            n_concepts: 2 * n,
            n_individuals: n,
            ..HornParams::default()
        };
        let qs = queries(&p);
        let len = kb.len();
        // The production ladder must saturate, never fall back, on this
        // corpus — the zero-fallback acceptance gate, enforced where the
        // numbers are produced.
        let probe = Reasoner4::new(&kb);
        for (a, c) in &qs {
            probe.query(a, c).expect("within limits");
        }
        let stats = probe.stats();
        assert!(stats.horn_queries > 0, "fast path never engaged");
        assert_eq!(stats.horn_fallbacks, 0, "non-Horn module in Horn corpus");
        for horn in [false, true] {
            let series = if horn { "horn" } else { "scoped-tableau" };
            if n == sizes[0] {
                group.bench_with_input(BenchmarkId::new(series, len), &kb, |b, kb| {
                    b.iter(|| run_queries(kb, &qs, horn))
                });
            }
            let reps = if horn || smoke { 5 } else { 3 };
            let samples = timed_us_per_query(&kb, &qs, horn, reps);
            let point = bench::Sampled::new(series, len as f64, "us/query", samples);
            if n == *sizes.last().expect("nonempty") {
                largest.0 = len as f64;
                if horn {
                    largest.2 = point.p50();
                } else {
                    largest.1 = point.p50();
                }
            }
            rows.push(point);
        }
    }
    group.finish();

    let (axioms, tableau_us, horn_us) = largest;
    rows.push(bench::Sampled::one(
        "speedup_largest",
        axioms,
        "x",
        tableau_us / horn_us,
    ));
    bench::write_snapshot("BENCH_horn.json", "horn_scaling", "us/query", &rows)
        .expect("write snapshot");
}

criterion_group!(benches, bench_horn_scaling);
criterion_main!(benches);
