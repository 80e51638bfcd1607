//! The module-scoped tableau vs the unscoped tableau, on ontogen's
//! modular corpus (disjoint islands, one contaminated). The measured
//! workload is the scoping sweet spot the dataflow analysis exists for:
//! instance queries about *clean* islands, which the scoped tableau
//! answers on one island's axioms instead of the whole KB.
//!
//! Each series drives its layer through the layer's public API, with no
//! told index, entailment cache or Horn rung in front of it and model
//! pruning off, so the comparison isolates the module effect: identical
//! tableau, identical query plan, different axiom set per search. The
//! unscoped series loads one `QueryEngine` over `transform_kb(K)` per
//! pass. A query `a : C` is two classical probes, `a : C̄` and
//! `a : ¬C̄`; the scoped series extracts the module of each probe's own
//! seed (the goal's atoms plus `a`, as the pipeline does) with
//! `ModuleExtractor::extract` and loads one `QueryEngine` over
//! `induced_module_kb` per distinct module per pass.
//!
//! Besides the Criterion group this records one sample per pass (µs per
//! query) through [`bench::write_snapshot`]: rows in
//! `target/experiments/module_extraction.jsonl` and the committed
//! snapshot `BENCH_modules.json` at the repo root (including the
//! `speedup_largest` row EXPERIMENTS.md cites, a ratio of medians). Set
//! `BENCH_SMOKE=1` to shrink the series for CI smoke runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dl::name::IndividualName;
use dl::Concept;
use ontogen::modular::{modular_kb4, ModularParams, PlantedPartition};
use shoin4::dataflow::{classical_concept_atoms, ModuleExtractor, SigAtom};
use shoin4::{transform_concept, transform_kb, transform_neg_concept, KnowledgeBase4};
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use tableau::{Config, QueryEngine};

fn corpus(n_islands: usize) -> (KnowledgeBase4, PlantedPartition) {
    modular_kb4(&ModularParams {
        seed: 7,
        n_islands,
        island_tbox: 8,
        island_abox: 12,
        contaminated_islands: 1,
    })
}

/// Two instance queries per clean island (capped at four islands so the
/// query count stays fixed while the KB grows — scaling isolates the
/// per-query cost of dragging ever more irrelevant axioms along).
fn clean_queries(truth: &PlantedPartition) -> Vec<(IndividualName, Concept)> {
    let mut queries = Vec::new();
    for &island in truth.clean().iter().take(4) {
        let x = truth.island_individuals[island][0].clone();
        for name in [
            &truth.island_concepts[island][1],
            &truth.island_concepts[island][3],
        ] {
            queries.push((x.clone(), Concept::atomic(name.clone())));
        }
    }
    queries
}

/// One full pass over the query set on fresh engines (fresh so the
/// scoped series pays its module-extraction cost every time — the
/// speedup reported is extraction-inclusive).
fn run_queries(kb: &KnowledgeBase4, queries: &[(IndividualName, Concept)], scoped: bool) {
    let config = Config {
        model_pruning: false,
        ..Config::default()
    };
    let probes = queries
        .iter()
        .flat_map(|(a, c)| [(a, transform_concept(c)), (a, transform_neg_concept(c))]);
    if !scoped {
        let engine = QueryEngine::with_config(&transform_kb(kb), config);
        for (a, goal) in probes {
            black_box(engine.is_instance_of(a, &goal).expect("within limits"));
        }
        return;
    }
    let extractor = ModuleExtractor::new(kb);
    let mut engines: HashMap<BTreeSet<usize>, QueryEngine> = HashMap::new();
    for (a, goal) in probes {
        let mut seed = BTreeSet::from([SigAtom::Individual(a.clone())]);
        classical_concept_atoms(&goal, &mut seed);
        let module = extractor.extract(&seed);
        if !engines.contains_key(&module.axioms) {
            let kb = extractor.induced_module_kb(&module);
            engines.insert(
                module.axioms.clone(),
                QueryEngine::with_config(&kb, config.clone()),
            );
        }
        let engine = &engines[&module.axioms];
        black_box(engine.is_instance_of(a, &goal).expect("within limits"));
    }
}

/// µs per query of each of `reps` passes.
fn timed_us_per_query(
    kb: &KnowledgeBase4,
    queries: &[(IndividualName, Concept)],
    scoped: bool,
    reps: u32,
) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            run_queries(kb, queries, scoped);
            start.elapsed().as_secs_f64() * 1e6 / queries.len() as f64
        })
        .collect()
}

fn bench_module_extraction(c: &mut Criterion) {
    let smoke = bench::smoke();
    let sizes: &[usize] = if smoke { &[3] } else { &[4, 8, 16] };
    let mut rows = Vec::new();
    let mut largest = (f64::NAN, f64::NAN, f64::NAN); // (axioms, unscoped, scoped) median us/query

    let mut group = c.benchmark_group("module_extraction");
    group.sample_size(10);
    for &n_islands in sizes {
        let (kb, truth) = corpus(n_islands);
        let queries = clean_queries(&truth);
        let n = kb.len();
        for scoped in [false, true] {
            let series = if scoped { "scoped" } else { "unscoped" };
            if n_islands == sizes[0] {
                group.bench_with_input(BenchmarkId::new(series, n), &kb, |b, kb| {
                    b.iter(|| run_queries(kb, &queries, scoped))
                });
            }
            let samples = timed_us_per_query(&kb, &queries, scoped, 3);
            let point = bench::Sampled::new(series, n as f64, "us/query", samples);
            if n_islands == *sizes.last().expect("nonempty") {
                largest.0 = n as f64;
                if scoped {
                    largest.2 = point.p50();
                } else {
                    largest.1 = point.p50();
                }
            }
            rows.push(point);
        }
    }
    group.finish();

    let (axioms, unscoped, scoped) = largest;
    rows.push(bench::Sampled::one(
        "speedup_largest",
        axioms,
        "x",
        unscoped / scoped,
    ));
    bench::write_snapshot("BENCH_modules.json", "module_extraction", "us/query", &rows)
        .expect("write snapshot");
}

criterion_group!(benches, bench_module_extraction);
criterion_main!(benches);
