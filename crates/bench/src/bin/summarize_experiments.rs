//! Summarize the machine-generated experiment rows
//! (`target/experiments/*.jsonl`, written by the benches) into markdown
//! tables — the data half of EXPERIMENTS.md.
//!
//! The committed repo-root snapshots (`BENCH_*.json`, written by
//! `bench::write_snapshot` — e.g. `BENCH_modules.json`,
//! `BENCH_horn.json`) are read first as the baseline, so the summary is
//! complete even before any local bench run; rows are appended on every
//! bench run and the summarizer keeps the *last* row per (experiment,
//! series, x), i.e. the most recent local measurement wins over the
//! snapshot. A snapshot row's `value` is its median.

use std::collections::BTreeMap;
use std::path::Path;

/// Parse one committed snapshot (`{"experiment": …, "rows": [ … ]}`)
/// into experiment rows; `None` if the file isn't in snapshot shape.
fn snapshot_rows(text: &str) -> Option<Vec<bench::ExperimentRow>> {
    let v = jsonio::Value::parse(text).ok()?;
    v.get("rows")?
        .as_array()?
        .iter()
        .map(bench::ExperimentRow::from_json)
        .collect()
}

fn main() -> std::io::Result<()> {
    let mut latest: BTreeMap<(String, String, u64), (f64, String)> = BTreeMap::new();
    for entry in std::fs::read_dir(".")? {
        let path = entry?.path();
        let is_snapshot = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"));
        if !is_snapshot {
            continue;
        }
        match std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| snapshot_rows(&t))
        {
            Some(rows) => {
                for row in rows {
                    latest.insert(
                        (row.experiment, row.series, row.x.to_bits()),
                        (row.value, row.unit),
                    );
                }
            }
            None => eprintln!("skipping malformed snapshot {path:?}"),
        }
    }
    let dir = Path::new("target").join("experiments");
    if dir.exists() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_none_or(|e| e != "jsonl") {
                continue;
            }
            for line in std::fs::read_to_string(&path)?.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                let row = match jsonio::Value::parse(line)
                    .ok()
                    .as_ref()
                    .and_then(bench::ExperimentRow::from_json)
                {
                    Some(r) => r,
                    None => {
                        eprintln!("skipping malformed row in {path:?}");
                        continue;
                    }
                };
                latest.insert(
                    (row.experiment, row.series, row.x.to_bits()),
                    (row.value, row.unit),
                );
            }
        }
    }
    if latest.is_empty() {
        println!("(no experiment rows found — run `cargo bench --workspace` first)");
        return Ok(());
    }
    // Group by experiment.
    let mut by_exp: BTreeMap<String, Vec<(String, f64, f64, String)>> = BTreeMap::new();
    for ((exp, series, xbits), (value, unit)) in latest {
        by_exp
            .entry(exp)
            .or_default()
            .push((series, f64::from_bits(xbits), value, unit));
    }
    for (exp, mut rows) in by_exp {
        rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        println!("### Experiment {exp}\n");
        println!("| series | x | value | unit |");
        println!("|---|---:|---:|---|");
        for (series, x, value, unit) in rows {
            if value.is_nan() {
                println!("| {series} | {x} | (skipped) | {unit} |");
            } else {
                println!("| {series} | {x} | {value:.1} | {unit} |");
            }
        }
        println!();
    }
    Ok(())
}
