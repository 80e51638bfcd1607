//! Shared plumbing: arguments, percentiles, run metadata, the result
//! line, and the in-memory span store of traced runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The end-to-end metrics every workload reports from an untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports from a traced run. A
/// layer the workload's ops never enter reports 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("parser4.kb_parse_ms", "ms"),
    ("parser4.line_parse_us", "us"),
    ("ontolint.lint_ms", "ms"),
    ("transform.kb_ms", "ms"),
    ("told.build_ms", "ms"),
    ("told.answer_share", "ratio"),
    ("cache.entail_hit_ratio", "ratio"),
    ("dataflow.extract_us_p50", "us"),
    ("dataflow.extract_us_p99", "us"),
    ("dataflow.extractions_per_op", "count"),
    ("dataflow.module_share", "ratio"),
    ("horn.route_ratio", "ratio"),
    ("horn.compile_ms", "ms"),
    ("horn.answer_us", "us"),
    ("tableau.engine_build_ms", "ms"),
    ("tableau.search_us_p50", "us"),
    ("tableau.search_us_p99", "us"),
    ("tableau.rule_applications", "count"),
    ("tableau.branches", "count"),
    ("tableau.backjumps", "count"),
    ("incremental.open_ms", "ms"),
    ("incremental.invalidated_modules_per_mutation", "count"),
    ("incremental.invalidated_entailments_per_mutation", "count"),
    ("incremental.wal_bytes_per_mutation", "bytes"),
    ("incremental.cached_modules", "count"),
    ("serve.execute_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.structural_key_us", "us"),
    ("serve.shared_hit_ratio", "ratio"),
    ("serve.shared_entries", "count"),
    ("serve.queue_wait_peak_us", "us"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

pub const USAGE: &str =
    "usage: e2ebench --workload survey|fleet|churn --seed N --seconds S --trace 0|1
       e2ebench --steady RUNS --workload survey|fleet|churn|all --seed FIRST --seconds S";

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `--steady N`: run the workload N times (seeds `seed..seed+N`) as
    /// child processes and print each metric's median and quartiles.
    pub steady: Option<usize>,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            steady: None,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = format!("bad value for {flag}: {value:?}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad)?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value for --trace: {value:?}")),
                    }
                }
                "--steady" => args.steady = Some(value.parse().map_err(|_| bad)?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.seconds <= 0.0 || !args.seconds.is_finite() {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// What a workload run produced: the counts and metrics of the result
/// line plus human-readable lines printed before it.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed (planted facts, oracle, replica).
    pub checks_ok: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Print the notes, then the result line with exactly the metrics of
    /// the run kind (end-to-end untraced, per-layer traced).
    pub fn print(&self, args: &Args) {
        println!("{}", host_line(args));
        for n in &self.notes {
            println!("{n}");
        }
        let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let mut json = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                // A per-layer metric of a layer this workload never enters.
                None if args.trace => 0.0,
                None => panic!("workload did not measure {name}"),
            };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        let correct = self.checks_ok && self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn pct(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    pct(&v, 50.0)
}

/// First quartile, median and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// A latency sample set (microseconds).
#[derive(Default, Clone)]
pub struct Latencies(pub Vec<f64>);

impl Latencies {
    pub fn push(&mut self, us: f64) {
        self.0.push(us);
    }

    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// `label: p50 … (n, beyond) p99 … (n, beyond)` — the median and the
    /// highest of p99.9/p99/p95/p90 with at least ten samples beyond it.
    pub fn describe(&self, label: &str) -> String {
        let v = self.sorted();
        let mut out = format!("{label}: n={}", v.len());
        let mut show = |p: f64| {
            let x = pct(&v, p);
            let beyond = v.iter().filter(|&&s| s > x).count();
            write!(out, " p{p}={x:.1}us (beyond {beyond})").expect("write to String");
        };
        show(50.0);
        if let Some(p) = [99.9, 99.0, 95.0, 90.0]
            .into_iter()
            .find(|p| (v.len() as f64) * (1.0 - p / 100.0) >= 10.0)
        {
            show(p);
        }
        out
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".into(), |v| {
            v.trim_start_matches([' ', '\t', ':']).to_string()
        })
}

/// The checked-out commit when the benchmark runs inside a git work
/// tree, else `unknown` (a plain checkout has no `.git`).
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run metadata: host, commit, seed and run length.
pub fn host_line(args: &Args) -> String {
    format!(
        "# run: workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\" commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        cpu_model(),
        git_commit()
    )
}

/// Where a run writes its span file and scratch state (inside the
/// benchmark's own directory, ignored by git).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("e2ebench/out");
    std::fs::create_dir_all(&dir).expect("create e2ebench/out");
    dir
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

const NO_SPAN: u32 = u32::MAX;

/// One timed call: name, op id, parent span and interval (ns since the
/// tracer's epoch).
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
}

/// Spans of one thread, kept in memory until the run ends. A disabled
/// tracer records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_SPAN);
        let start = self.now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end: start,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let end = self.now();
        self.spans[id as usize].end = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
    }

    /// Time a leaf call.
    pub fn leaf<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, op);
        let r = f();
        self.end(id);
        r
    }
}

/// Per-name aggregates over a span set: durations and self times (µs).
#[derive(Default)]
pub struct SpanStats {
    pub durations: BTreeMap<&'static str, Vec<f64>>,
    pub self_us: BTreeMap<&'static str, f64>,
}

impl SpanStats {
    /// Aggregate the spans of several tracers (each tracer's parent ids
    /// index its own span list).
    pub fn of(tracers: &[&Tracer]) -> SpanStats {
        let mut stats = SpanStats::default();
        for t in tracers {
            let mut child_ns = vec![0u64; t.spans.len()];
            for s in &t.spans {
                if s.parent != NO_SPAN {
                    child_ns[s.parent as usize] += s.end - s.start;
                }
            }
            for (s, child) in t.spans.iter().zip(child_ns) {
                let dur = (s.end - s.start) as f64 / 1e3;
                stats.durations.entry(s.name).or_default().push(dur);
                *stats.self_us.entry(s.name).or_default() +=
                    (s.end - s.start).saturating_sub(child) as f64 / 1e3;
            }
        }
        for v in stats.durations.values_mut() {
            v.sort_by(f64::total_cmp);
        }
        stats
    }

    pub fn count(&self, name: &str) -> usize {
        self.durations.get(name).map_or(0, Vec::len)
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.durations.get(name).map_or(0.0, |v| v.iter().sum())
    }

    pub fn mean_us(&self, name: &str) -> f64 {
        let n = self.count(name);
        if n == 0 {
            0.0
        } else {
            self.total_us(name) / n as f64
        }
    }

    pub fn pct_us(&self, name: &str, p: f64) -> f64 {
        self.durations.get(name).map_or(0.0, |v| pct(v, p))
    }

    /// Self time summed over every span whose name starts with one of
    /// the layer prefixes.
    pub fn layer_self_us(&self, prefixes: &[&str]) -> f64 {
        self.self_us
            .iter()
            .filter(|(n, _)| prefixes.iter().any(|p| n.starts_with(p)))
            .map(|(_, v)| v)
            .sum()
    }
}

/// The replica's ladder layers: their self time over the program's
/// wall time is `trace.coverage`.
pub const LADDER_LAYERS: [&str; 6] = [
    "parser4.line",
    "told.",
    "cache.",
    "dataflow.",
    "horn.",
    "tableau.",
];

/// Write every span of a run as tab-separated lines
/// (`thread id parent op name start_ns end_ns`).
pub fn write_spans(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tid\tparent\top\tname\tstart_ns\tend_ns")?;
    for (t, tracer) in tracers.iter().enumerate() {
        for (i, s) in tracer.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{t}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start, s.end
            )?;
        }
    }
    out.flush()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
