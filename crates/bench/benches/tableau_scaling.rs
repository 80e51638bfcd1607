//! Experiment X2 + the design-choice ablations (DESIGN.md §5): tableau
//! satisfiability cost as the workload grows, and the impact of the
//! blocking strategy, semantic branching and absorption knobs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dl::parser::parse_kb;
use ontogen::random::{random_kb, RandomParams};
use ontogen::taxonomy::{taxonomy_kb, TaxonomyParams};
use std::hint::black_box;
use tableau::config::BlockingStrategy;
use tableau::{Config, QueryEngine};

fn bench_scaling_axioms(c: &mut Criterion) {
    let mut group = c.benchmark_group("X2_scaling_axioms");
    group.sample_size(10);
    let mut rows = Vec::new();

    // Structured, realistic series: taxonomies of growing depth.
    for depth in [2usize, 3, 4] {
        let kb = taxonomy_kb(&TaxonomyParams {
            depth,
            branching: 2,
            sibling_disjointness: true,
            individuals_per_leaf: 1,
        });
        let n = kb.len();
        group.bench_with_input(BenchmarkId::new("taxonomy", n), &kb, |b, kb| {
            b.iter(|| {
                let r = QueryEngine::new(black_box(kb));
                black_box(r.is_consistent().expect("within limits"))
            })
        });
        let start = std::time::Instant::now();
        let reps = 5;
        for _ in 0..reps {
            let r = QueryEngine::new(&kb);
            black_box(r.is_consistent().expect("ok"));
        }
        rows.push(bench::ExperimentRow {
            experiment: "X2".into(),
            x: n as f64,
            series: "taxonomy".into(),
            value: start.elapsed().as_micros() as f64 / reps as f64,
            unit: "us/check".into(),
        });
    }

    // Random series, shallow and number-restriction-free. Random KBs can
    // be adversarial — without dependency-directed backjumping an unsat
    // proof may explore an exponential choice tree (a documented
    // limitation; the logic is NExpTime-complete) — so each instance is
    // probed under a tight rule budget first and recorded as a skip if it
    // blows that budget.
    for &n in &[10usize, 20, 40] {
        let kb = random_kb(&RandomParams {
            n_tbox: n,
            n_abox: n,
            n_concepts: n.max(8),
            max_depth: 1,
            number_restrictions: false,
            seed: 7,
            ..RandomParams::default()
        });
        let probe_cfg = Config {
            max_rule_applications: 100_000,
            ..Config::default()
        };
        let probe = QueryEngine::with_config(&kb, probe_cfg).is_consistent();
        if probe.is_err() {
            rows.push(bench::ExperimentRow {
                experiment: "X2".into(),
                x: (2 * n) as f64,
                series: "random_skipped".into(),
                value: f64::NAN,
                unit: "us/check".into(),
            });
            continue;
        }
        group.bench_with_input(BenchmarkId::new("random", n), &kb, |b, kb| {
            b.iter(|| {
                let r = QueryEngine::new(black_box(kb));
                black_box(r.is_consistent().expect("probed"))
            })
        });
        let start = std::time::Instant::now();
        let reps = 5;
        for _ in 0..reps {
            let r = QueryEngine::new(&kb);
            black_box(r.is_consistent().expect("probed"));
        }
        rows.push(bench::ExperimentRow {
            experiment: "X2".into(),
            x: (2 * n) as f64,
            series: "random".into(),
            value: start.elapsed().as_micros() as f64 / reps as f64,
            unit: "us/check".into(),
        });
    }
    group.finish();
    bench::write_rows("x2_tableau_scaling", &rows).expect("write rows");
}

fn bench_ablation_blocking(c: &mut Criterion) {
    // A TBox with an infinite canonical model: blocking does the work.
    let kb = parse_kb(
        "Person SubClassOf hasParent some Person
         Person SubClassOf hasAncestor some (Person and Ancient)
         Ancient SubClassOf hasParent some Ancient
         p : Person",
    )
    .expect("parses");
    let mut group = c.benchmark_group("ablation_blocking");
    group.sample_size(10);
    for (name, strategy) in [
        ("pairwise", BlockingStrategy::Pairwise),
        ("equality", BlockingStrategy::Equality),
        ("subset", BlockingStrategy::Subset),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let cfg = Config {
                    blocking: strategy,
                    ..Config::default()
                };
                let r = QueryEngine::with_config(&kb, cfg);
                black_box(r.is_consistent().expect("within limits"))
            })
        });
    }
    group.finish();
}

fn bench_ablation_branching(c: &mut Criterion) {
    // Disjunction-heavy unsatisfiable pigeonhole-ish input where semantic
    // branching prunes repeated work.
    let kb = parse_kb("x : (A or B) and (A or not B) and (not A or B) and (not A or not B)")
        .expect("parses");
    let mut group = c.benchmark_group("ablation_semantic_branching");
    group.sample_size(20);
    for (name, semantic) in [("syntactic", false), ("semantic", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let cfg = Config {
                    semantic_branching: semantic,
                    ..Config::default()
                };
                let r = QueryEngine::with_config(&kb, cfg);
                black_box(r.is_consistent().expect("within limits"))
            })
        });
    }
    group.finish();
}

fn bench_ablation_absorption(c: &mut Criterion) {
    let kb = taxonomy_kb(&TaxonomyParams {
        depth: 4,
        branching: 2,
        sibling_disjointness: false,
        individuals_per_leaf: 1,
    });
    let mut group = c.benchmark_group("ablation_absorption");
    group.sample_size(10);
    for (name, absorption) in [("absorbed", true), ("internalized", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let cfg = Config {
                    absorption,
                    ..Config::default()
                };
                let r = QueryEngine::with_config(&kb, cfg);
                black_box(r.is_consistent().expect("within limits"))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scaling_axioms,
    bench_ablation_blocking,
    bench_ablation_branching,
    bench_ablation_absorption
);
criterion_main!(benches);
