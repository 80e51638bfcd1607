//! Backjump depth: what dependency-directed backjumping buys on
//! GCI-disjunction-heavy knowledge bases.
//!
//! The workload plants an unconditional contradiction behind a generating
//! rule (`a : P`, `P ⊑ ∃r.X`, `X ⊑ A`, `X ⊑ ¬A`) underneath `k`
//! *irrelevant* global disjunctions `⊤ ⊑ Eᵢ ⊔ Fᵢ`. Branching rules
//! outrank generating rules, so every search must resolve all `k` binary
//! choices before the clash can surface:
//!
//! * the **snapshot** engine backtracks chronologically — the clash
//!   re-arises under every combination of irrelevant choices, ~`2^k`
//!   leaves, one whole-graph clone per tried alternative;
//! * the **trail** engine unions the dep-sets of the clashing facts —
//!   empty, since the poison is ABox-derived — and backjumps straight
//!   past all `k` branch points in one pass, refuting the KB after a
//!   single clash with zero graph clones.
//!
//! Series: `snapshot` / `trail` (both with semantic branching off, to
//! isolate the strategy) and `snapshot_semantic` / `trail_semantic`
//! (semantic branching on — the EXPERIMENTS.md §X5 before/after pair).
//! Also emitted: per-strategy clone counts, the trail backjump count,
//! and `speedup_largest` (snapshot/trail median wall-clock at the
//! largest `k`). Written through [`bench::write_snapshot`] to
//! `target/experiments/backjump_depth.jsonl` and the committed
//! `BENCH_backjump.json` (left alone under `BENCH_SMOKE=1`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dl::axiom::{Axiom, RoleExpr};
use dl::kb::KnowledgeBase;
use dl::name::IndividualName;
use dl::Concept;
use std::hint::black_box;
use tableau::{Config, QueryEngine, SearchStrategy, Stats};

/// `k` irrelevant global binary disjunctions plus one ABox-rooted
/// contradiction hidden behind an existential.
fn poisoned_kb(k: usize) -> KnowledgeBase {
    let mut axioms = Vec::new();
    for i in 0..k {
        axioms.push(Axiom::ConceptInclusion(
            Concept::Top,
            Concept::atomic(format!("E{i}")).or(Concept::atomic(format!("F{i}"))),
        ));
    }
    axioms.push(Axiom::ConceptInclusion(
        Concept::atomic("P"),
        Concept::some(RoleExpr::named("r"), Concept::atomic("X")),
    ));
    axioms.push(Axiom::ConceptInclusion(
        Concept::atomic("X"),
        Concept::atomic("A"),
    ));
    axioms.push(Axiom::ConceptInclusion(
        Concept::atomic("X"),
        Concept::atomic("A").not(),
    ));
    axioms.push(Axiom::ConceptAssertion(
        IndividualName::new("a"),
        Concept::atomic("P"),
    ));
    KnowledgeBase::from_axioms(axioms)
}

fn configurations() -> Vec<(&'static str, Config)> {
    let cfg = |search, semantic_branching| Config {
        search,
        semantic_branching,
        ..Config::default()
    };
    vec![
        ("snapshot", cfg(SearchStrategy::Snapshot, false)),
        ("trail", cfg(SearchStrategy::Trail, false)),
        ("snapshot_semantic", cfg(SearchStrategy::Snapshot, true)),
        ("trail_semantic", cfg(SearchStrategy::Trail, true)),
    ]
}

/// One full consistency refutation; returns the search counters.
fn run_refutation(kb: &KnowledgeBase, config: &Config) -> Stats {
    let r = QueryEngine::with_config(kb, config.clone());
    let verdict = r.is_consistent().expect("within limits");
    assert!(!verdict, "the poisoned KB must be inconsistent");
    black_box(r.stats())
}

/// Wall-clock µs of each of `reps` refutations.
fn timed_us(kb: &KnowledgeBase, config: &Config, reps: u32) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            run_refutation(kb, config);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

fn bench_backjump_depth(c: &mut Criterion) {
    let smoke = bench::smoke();
    let depths: &[usize] = if smoke { &[4] } else { &[4, 8, 12] };
    let largest_k = *depths.last().expect("nonempty") as f64;
    let mut rows = Vec::new();
    let mut largest = (f64::NAN, f64::NAN); // (snapshot, trail) median us

    let mut group = c.benchmark_group("backjump_depth");
    group.sample_size(10);
    for &k in depths {
        let kb = poisoned_kb(k);
        for (series, config) in configurations() {
            // Criterion statistics only at the smallest depth: the
            // snapshot series at depth 12 is ~2^12 leaves per iteration.
            if k == depths[0] {
                group.bench_with_input(BenchmarkId::new(series, k), &kb, |b, kb| {
                    b.iter(|| run_refutation(kb, &config))
                });
            }
            let reps = if series.starts_with("snapshot") && !smoke {
                3
            } else {
                5
            };
            let samples = timed_us(&kb, &config, reps);
            let timed = bench::Sampled::new(series, k as f64, "us/refutation", samples);
            if k as f64 == largest_k {
                match series {
                    "snapshot" => largest.0 = timed.p50(),
                    "trail" => largest.1 = timed.p50(),
                    _ => {}
                }
            }
            rows.push(timed);
            let stats = run_refutation(&kb, &config);
            let clones = format!("{series}_clones");
            rows.push(bench::Sampled::one(
                clones,
                k as f64,
                "clones",
                stats.graph_clones as f64,
            ));
            if series == "trail" {
                rows.push(bench::Sampled::one(
                    "trail_backjumps",
                    k as f64,
                    "backjumps",
                    stats.backjumps as f64,
                ));
            }
        }
    }
    group.finish();

    let (snap, trail) = largest;
    rows.push(bench::Sampled::one(
        "speedup_largest",
        largest_k,
        "x",
        snap / trail,
    ));
    bench::write_snapshot(
        "BENCH_backjump.json",
        "backjump_depth",
        "us/refutation",
        &rows,
    )
    .expect("write snapshot");
}

criterion_group!(benches, bench_backjump_depth);
criterion_main!(benches);
