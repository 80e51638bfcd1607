//! Module-scoped query execution vs the unscoped engine, on ontogen's
//! modular corpus (disjoint islands, one contaminated). The measured
//! workload is the scoping sweet spot the dataflow analysis exists for:
//! instance queries about *clean* islands, which under
//! `Config::module_scoping` run the tableau on one island's axioms
//! instead of the whole KB.
//!
//! Both series run with the told fast path, the entailment cache and
//! model pruning disabled (`jobs = 1`), so the comparison isolates the
//! module effect: identical tableau, identical query plan, different
//! axiom set per search.
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
use shoin4::reasoner4::QueryOptions;
use shoin4::{KnowledgeBase4, Reasoner4};
use std::hint::black_box;
use tableau::Config;

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

fn reasoner(kb: &KnowledgeBase4, module_scoping: bool) -> Reasoner4 {
    let config = Config {
        model_pruning: false,
        module_scoping,
        // Measure scoping against the plain tableau: with the Horn fast
        // path on (the default) Horn modules would bypass the scoped
        // search being measured (that path has its own bench,
        // `horn_scaling`).
        horn_path: false,
        ..Config::default()
    };
    let opts = QueryOptions {
        jobs: 1,
        told_fast_path: false,
        entailment_cache: false,
    };
    Reasoner4::with_options(kb, config, opts)
}

/// One full pass over the query set on a fresh reasoner (fresh so the
/// scoped series pays its module-extraction cost every time — the
/// speedup reported is extraction-inclusive).
fn run_queries(kb: &KnowledgeBase4, queries: &[(IndividualName, Concept)], scoped: bool) {
    let r = reasoner(kb, scoped);
    for (a, c) in queries {
        black_box(r.query(a, c).expect("within limits"));
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
