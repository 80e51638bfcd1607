//! Shared support for the benchmark harness.
//!
//! The actual benchmarks live in `benches/` (one Criterion target per
//! experiment id from DESIGN.md §3). This library provides the pieces
//! they share: experiment-row records serialized to JSON so EXPERIMENTS.md
//! can cite machine-generated numbers, and [`write_snapshot`], the one
//! writer of the committed `BENCH_*.json` snapshots.

use jsonio::Value;
use std::io::Write;
use std::path::Path;

/// One measured row of an experiment, written to `target/experiments/`.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Experiment id from DESIGN.md (e.g. "C1", "X1").
    pub experiment: String,
    /// The independent variable (size, rate, …).
    pub x: f64,
    /// Label of the series (method/config name).
    pub series: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: String,
}

impl ExperimentRow {
    /// The row as a JSON object (one `jsonl` line).
    pub fn to_json(&self) -> Value {
        Value::object([
            ("experiment", Value::from(self.experiment.as_str())),
            ("x", Value::from(self.x)),
            ("series", Value::from(self.series.as_str())),
            ("value", Value::from(self.value)),
            ("unit", Value::from(self.unit.as_str())),
        ])
    }

    /// Parse a row back from a JSON object.
    pub fn from_json(v: &Value) -> Option<ExperimentRow> {
        Some(ExperimentRow {
            experiment: v.get("experiment")?.as_str()?.to_string(),
            x: v.get("x")?.as_f64()?,
            series: v.get("series")?.as_str()?.to_string(),
            value: v.get("value")?.as_f64()?,
            unit: v.get("unit")?.as_str()?.to_string(),
        })
    }
}

/// Append rows to `target/experiments/<name>.jsonl` (one JSON object per
/// line). Benches call this with their summary rows so the repo's
/// EXPERIMENTS.md numbers are regenerable.
pub fn write_rows(name: &str, rows: &[ExperimentRow]) -> std::io::Result<()> {
    append_lines(name, rows.iter().map(ExperimentRow::to_json))
}

fn append_lines(name: &str, lines: impl IntoIterator<Item = Value>) -> std::io::Result<()> {
    let dir = Path::new("target").join("experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.jsonl"));
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    for line in lines {
        writeln!(f, "{line}")?;
    }
    Ok(())
}

/// The samples behind one snapshot row: every measurement of one series
/// at one `x`, in the order taken. A derived figure (a count, a ratio of
/// medians) is a single sample.
#[derive(Debug, Clone)]
pub struct Sampled {
    series: String,
    x: f64,
    unit: String,
    /// Never empty.
    samples: Vec<f64>,
}

impl Sampled {
    /// The point `x` of `series`, backed by `samples` (at least one),
    /// each in `unit`.
    pub fn new(
        series: impl Into<String>,
        x: f64,
        unit: impl Into<String>,
        samples: Vec<f64>,
    ) -> Sampled {
        assert!(!samples.is_empty(), "a snapshot row needs a sample");
        Sampled {
            series: series.into(),
            x,
            unit: unit.into(),
            samples,
        }
    }

    /// A derived single figure.
    pub fn one(series: impl Into<String>, x: f64, unit: impl Into<String>, value: f64) -> Sampled {
        Sampled::new(series, x, unit, vec![value])
    }

    /// The nearest-rank `p`-quantile of the samples (`p` in `(0, 1]`).
    pub fn quantile(&self, p: f64) -> f64 {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (sorted.len() as f64 * p).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// The median (nearest rank).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// The snapshot row: the [`ExperimentRow`] fields with `value` = p50,
    /// plus `p50`, `p99` and the sample count `samples`.
    fn to_json(&self, experiment: &str) -> Value {
        let mut row = ExperimentRow {
            experiment: experiment.to_string(),
            x: self.x,
            series: self.series.clone(),
            value: self.p50(),
            unit: self.unit.clone(),
        }
        .to_json();
        if let Value::Object(fields) = &mut row {
            fields.insert("p50".into(), Value::from(self.p50()));
            fields.insert("p99".into(), Value::from(self.quantile(0.99)));
            fields.insert("samples".into(), Value::from(self.samples.len()));
        }
        row
    }
}

/// `BENCH_SMOKE` is set: the bench runs reduced sizes for CI and must
/// leave the committed snapshots alone.
pub fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

/// Record one experiment: append its rows to
/// `target/experiments/<experiment>.jsonl` and, unless [`smoke`], rewrite
/// the committed snapshot `file` at the repository root. The snapshot
/// holds `experiment`, `unit`, the `host` (CPU model and available
/// parallelism), the `commit` it was measured at and one row per
/// [`Sampled`] point.
pub fn write_snapshot(
    file: &str,
    experiment: &str,
    unit: &str,
    rows: &[Sampled],
) -> std::io::Result<()> {
    append_lines(experiment, rows.iter().map(|r| r.to_json(experiment)))?;
    if smoke() {
        return Ok(());
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut f = std::fs::File::create(root.join(file))?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"experiment\": {},", Value::from(experiment))?;
    writeln!(f, "  \"unit\": {},", Value::from(unit))?;
    writeln!(f, "  \"host\": {},", Value::from(host()))?;
    writeln!(f, "  \"commit\": {},", Value::from(commit(&root)))?;
    writeln!(f, "  \"rows\": [")?;
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(f, "    {}{comma}", row.to_json(experiment))?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")
}

/// The CPU model (first `model name` in `/proc/cpuinfo`) and the
/// parallelism available to this process.
fn host() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".into());
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    format!("{model}, {threads} threads")
}

/// `git rev-parse --short HEAD` in `root`, or `"unknown"`.
fn commit(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_serialize_to_json() {
        let row = ExperimentRow {
            experiment: "C1".into(),
            x: 100.0,
            series: "memoized".into(),
            value: 1.5,
            unit: "us".into(),
        };
        let s = row.to_json().to_string();
        assert!(s.contains("\"experiment\":\"C1\""), "{s}");
        let back = ExperimentRow::from_json(&jsonio::Value::parse(&s).unwrap()).unwrap();
        assert_eq!(back.x, row.x);
        assert_eq!(back.series, row.series);
    }

    #[test]
    fn snapshot_rows_carry_quantiles_and_read_back_as_experiment_rows() {
        let point = Sampled::new("trail", 4.0, "us", vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        let v = point.to_json("backjump_depth");
        assert_eq!(v.get("p50").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("p99").and_then(Value::as_f64), Some(5.0));
        assert_eq!(v.get("samples").and_then(Value::as_i64), Some(5));
        let row = ExperimentRow::from_json(&v).unwrap();
        assert_eq!((row.value, row.x), (3.0, 4.0));
        assert_eq!(row.experiment, "backjump_depth");
    }
}
