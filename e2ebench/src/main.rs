//! End-to-end benchmark of `shoin4`.
//!
//! ```text
//! e2ebench --workload survey|fleet|churn --seed N --seconds S --trace 0|1
//! e2ebench --steady RUNS --workload survey|fleet|churn|all --seed FIRST --seconds S
//! ```
//!
//! A run generates its inputs from the seed, sets up, measures a closed
//! loop for `--seconds`, checks every output, and prints one JSON result
//! line last: end-to-end metrics when untraced, per-layer metrics from
//! spans and the layer replica when traced. `--steady` runs a workload
//! `RUNS` times as child processes (seeds `FIRST..FIRST+RUNS`) and prints
//! each metric's quartiles. See `README.md` for the workloads and
//! metrics.

mod churn;
mod fleet;
mod replica;
mod survey;
mod util;

use std::process::{Command, ExitCode, Stdio};
use util::{Args, END_TO_END, USAGE};

const WORKLOADS: [&str; 3] = ["survey", "fleet", "churn"];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady(&args, runs);
    }
    let outcome = match args.workload.as_str() {
        "survey" => survey::run(&args),
        "fleet" => fleet::run(&args),
        "churn" => churn::run(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.print(&args);
    ExitCode::SUCCESS
}

/// Run each selected workload `runs` times, one child process per run,
/// and print each end-to-end metric's median, quartiles and spread
/// (interquartile range ÷ median).
fn steady(args: &Args, runs: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let selected: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else if WORKLOADS.contains(&args.workload.as_str()) {
        vec![args.workload.as_str()]
    } else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let mut ok = true;
    for workload in selected {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..runs as u64 {
            let seed = args.seed + i;
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
                .stderr(Stdio::inherit())
                .output()
                .expect("run a child benchmark process");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let parsed = jsonio::Value::parse(last).ok();
            let correct = parsed
                .as_ref()
                .and_then(|v| v.get("correct"))
                .and_then(jsonio::Value::as_bool);
            if !output.status.success() || correct != Some(true) {
                ok = false;
                println!("{workload} seed {seed}: FAILED ({})", output.status);
                continue;
            }
            let metrics = parsed.as_ref().and_then(|v| v.get("metrics"));
            let mut line = format!("{workload} seed {seed}:");
            for (k, (name, _)) in END_TO_END.iter().enumerate() {
                let v = metrics
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(jsonio::Value::as_f64)
                    .unwrap_or(f64::NAN);
                values[k].push(v);
                line.push_str(&format!(" {name}={v}"));
            }
            println!("{line}");
        }
        for (k, (name, unit)) in END_TO_END.iter().enumerate() {
            let (q1, med, q3) = util::quartiles(&values[k]);
            println!(
                "{workload} {name}: median {med} {unit}, q1 {q1}, q3 {q3}, spread {:.4} (n={})",
                util::ratio(q3 - q1, med),
                values[k].len()
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
