//! Experiment C2: "both the complexity and decidability of SHOIN(D)4 are
//! the same as those of SHOIN(D)" (§5). Measured version: reasoning time
//! over a KB read classically vs the same KB read four-valued (i.e. the
//! tableau running on `K̄`). The shape to verify: the four-valued route
//! costs a small constant factor (the induced KB is ≤ 2× the size), not
//! an asymptotic blowup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ontogen::taxonomy::{taxonomy_kb, TaxonomyParams};
use shoin4::{InclusionKind, KnowledgeBase4, Reasoner4};
use std::hint::black_box;
use std::time::Instant;
use tableau::QueryEngine;

fn bench_complexity_parity(c: &mut Criterion) {
    let mut group = c.benchmark_group("C2_complexity_parity");
    group.sample_size(10);
    let mut rows = Vec::new();
    for depth in [2usize, 3, 4] {
        let kb = taxonomy_kb(&TaxonomyParams {
            depth,
            branching: 2,
            sibling_disjointness: true,
            individuals_per_leaf: 1,
        });
        let kb4 = KnowledgeBase4::from_classical(&kb, InclusionKind::Internal);
        group.bench_with_input(BenchmarkId::new("classical", depth), &kb, |b, kb| {
            b.iter(|| {
                let r = QueryEngine::new(black_box(kb));
                black_box(r.is_consistent().expect("within limits"))
            })
        });
        group.bench_with_input(BenchmarkId::new("four_valued", depth), &kb4, |b, kb4| {
            b.iter(|| {
                let r = Reasoner4::new(black_box(kb4));
                black_box(r.is_satisfiable().expect("within limits"))
            })
        });
        for (series, four) in [("classical", false), ("four_valued", true)] {
            let start = Instant::now();
            let reps = 5;
            for _ in 0..reps {
                if four {
                    let r = Reasoner4::new(&kb4);
                    black_box(r.is_satisfiable().expect("ok"));
                } else {
                    let r = QueryEngine::new(&kb);
                    black_box(r.is_consistent().expect("ok"));
                }
            }
            rows.push(bench::ExperimentRow {
                experiment: "C2".into(),
                x: kb.len() as f64,
                series: series.into(),
                value: start.elapsed().as_micros() as f64 / reps as f64,
                unit: "us/check".into(),
            });
        }
    }
    group.finish();
    bench::write_rows("c2_complexity_parity", &rows).expect("write rows");
}

criterion_group!(benches, bench_complexity_parity);
criterion_main!(benches);
