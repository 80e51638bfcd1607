//! Cost-aware admission lanes under mixed load: the experiment behind
//! the serving layer's `LaneOptions`, and the isolation bound a
//! cancelled hostile tenant must keep.
//!
//! The workload plants a bimodal fleet — Horn-chain tenants (every
//! probe saturates in microseconds) sharing a server with a hostile
//! `∃`-doubling tenant whose every `check` burns its full time budget.
//! Four measured configurations, each timing every cheap probe:
//!
//! 1. **Quiet**: the cheap client alone on a single queue — the
//!    baseline.
//! 2. **Single queue** (lanes off): hostile requests and cheap requests
//!    interleave on the same workers, so every budget-quantum a hostile
//!    search holds a worker is head-of-line latency some cheap request
//!    eats.
//! 3. **Lanes on**: the static hardness score routes hostile requests
//!    to a dedicated heavy lane; cheap requests keep their own workers.
//! 4. **Cancelled**: single queue again, one hostile client, and a
//!    canceller revoking the hostile tenant's in-flight work every
//!    millisecond.
//!
//! The bench asserts its claims where the numbers are made: cheap-tenant
//! p99 with lanes on must be *strictly* better than the single-queue p99
//! under the same load, and the routing must be real (some heavy
//! admissions with lanes on, every cheap verdict identical across all
//! runs). Under cancellation the canceller must find hostile work in
//! flight, and the cheap p99 must stay within 2× of the quiet p99 or
//! one hostile budget quantum, whichever is larger (on a single-core
//! runner a µs-scale ratio only measures the scheduler). Timing bounds
//! live here rather than in the test suite, which must stay
//! deterministic.
//!
//! Besides the Criterion group (analyzer throughput over the
//! calibration corpus) this records every cheap probe's latency through
//! [`bench::write_snapshot`]: rows in
//! `target/experiments/hardness_lanes.jsonl` and the committed snapshot
//! `BENCH_hardness.json` at the repo root. Set `BENCH_SMOKE=1` to shrink
//! the series for CI smoke runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jsonio::Value;
use ontogen::hardness_mix::{hardness_mix, HardnessMixParams, HardnessShape, LabeledKb};
use shoin4::serve::{hostile_kb, LaneOptions, Registry, ServeOptions, Server};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tableau::Config;

/// The quantum a hostile search holds a worker for — also the unit the
/// single-queue head-of-line damage comes in.
const HOSTILE_BUDGET: Duration = Duration::from_millis(25);

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let writer = stream.try_clone().expect("clone");
        Client {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn ask(&mut self, line: &str) -> Value {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        Value::parse(&reply).unwrap_or_else(|e| panic!("bad reply {reply:?}: {e}"))
    }
}

/// The cheap side of the fleet: the calibration corpus's Horn chains.
fn cheap_tenants() -> Vec<LabeledKb> {
    hardness_mix(&HardnessMixParams {
        per_shape: 8,
        ..HardnessMixParams::default()
    })
    .into_iter()
    .filter(|l| l.shape == HardnessShape::HornChain)
    .collect()
}

/// What shares the server with the measured cheap client.
struct Attack {
    /// Clients sending `check` to the hostile tenant for the whole run.
    hostile_clients: usize,
    /// A canceller revokes the hostile tenant's in-flight work every
    /// millisecond.
    cancel: bool,
}

/// What one mixed-load run observed.
struct Run {
    /// µs per cheap probe.
    latencies: Vec<f64>,
    /// Every distinct `tenant: verdict` the cheap client saw.
    verdicts: BTreeSet<String>,
    /// Requests admitted to the heavy lane.
    heavy: u64,
    /// In-flight hostile searches the canceller revoked.
    revoked: usize,
}

/// One mixed-load run: the `attack` runs for the whole window while a
/// cheap client walks the Horn tenants at least `passes` times, and
/// until the hostile clients have had a few replies, so the measured
/// probes overlap hostile work.
fn mixed_load(opts: ServeOptions, cheap: &[LabeledKb], passes: usize, attack: Attack) -> Run {
    let config = Config {
        time_budget: Some(HOSTILE_BUDGET),
        ..Config::default()
    };
    let registry = Arc::new(Registry::new(config));
    for l in cheap {
        assert!(registry.register(&l.id, &l.kb));
    }
    // One hostile tenant per hostile client: a tenant computes its base
    // model under a lock, so clients sharing one tenant would queue
    // behind each other and leave a worker idle.
    let hostile: Vec<String> = (0..attack.hostile_clients)
        .map(|i| format!("evil{i}"))
        .collect();
    for id in &hostile {
        registry.register(id, &hostile_kb(40));
    }
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), opts).expect("bind");
    let addr = server.local_addr();

    let stop = AtomicBool::new(false);
    let hostile_replies = AtomicU64::new(0);
    let (latencies, verdicts, revoked) = std::thread::scope(|scope| {
        // Each hostile reply must be a typed budget/cancelled/overloaded
        // error, never a hang.
        for id in &hostile {
            let (stop, replies) = (&stop, &hostile_replies);
            scope.spawn(move || {
                let mut c = Client::connect(addr);
                c.ask(&format!("tenant {id}"));
                while !stop.load(Ordering::Relaxed) {
                    let reply = c.ask("check");
                    let code = reply.get("error").and_then(Value::as_str);
                    assert!(
                        matches!(code, Some("budget" | "cancelled" | "overloaded")),
                        "unexpected hostile reply: {reply}"
                    );
                    replies.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let canceller = attack.cancel.then(|| {
            let (stop, server, hostile) = (&stop, &server, &hostile);
            scope.spawn(move || {
                let mut revoked = 0;
                while !stop.load(Ordering::Relaxed) {
                    revoked += hostile
                        .iter()
                        .map(|id| server.cancel_tenant(id))
                        .sum::<usize>();
                    std::thread::sleep(Duration::from_millis(1));
                }
                revoked
            })
        });
        // The measured cheap client.
        let mut c = Client::connect(addr);
        let mut latencies = Vec::new();
        let mut verdicts = BTreeSet::new();
        let mut pass = 0;
        let attacked = |pass: usize| {
            attack.hostile_clients == 0
                || hostile_replies.load(Ordering::Relaxed) >= 4
                || pass >= 100 * passes
        };
        while pass < passes || !attacked(pass) {
            for l in cheap {
                c.ask(&format!("tenant {}", l.id));
                let (ind, goal) = &l.probe;
                let probe = format!("query {ind} {goal}");
                let start = Instant::now();
                let reply = c.ask(&probe);
                latencies.push(start.elapsed().as_secs_f64() * 1e6);
                let verdict = reply
                    .get("verdict")
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("cheap probe failed: {reply}"));
                verdicts.insert(format!("{}: {verdict}", l.id));
            }
            pass += 1;
        }
        c.ask("quit");
        stop.store(true, Ordering::Relaxed);
        let revoked = canceller.map_or(0, |h| h.join().expect("canceller"));
        (latencies, verdicts, revoked)
    });
    let heavy = server.stats().heavy_admitted.load(Ordering::Relaxed);
    server.shutdown();
    Run {
        latencies,
        verdicts,
        heavy,
        revoked,
    }
}

fn bench_hardness_lanes(c: &mut Criterion) {
    let passes = if bench::smoke() { 3 } else { 12 };
    let cheap = cheap_tenants();

    // Criterion group: raw analyzer throughput — the whole calibration
    // corpus scored per iteration (this is the work the serving layer's
    // admission path amortizes through the shared score cache).
    let corpus: Vec<_> = hardness_mix(&HardnessMixParams::default());
    let mut group = c.benchmark_group("hardness_lanes");
    group.bench_with_input(
        BenchmarkId::new("analyze_corpus", corpus.len()),
        &corpus,
        |b, corpus| {
            b.iter(|| {
                let heavy: usize = corpus
                    .iter()
                    .map(|l| {
                        shoin4::hardness::analyze_kb(&l.kb)
                            .heavy_modules(shoin4::hardness::DEFAULT_HEAVY_THRESHOLD)
                    })
                    .sum();
                black_box(heavy)
            })
        },
    );
    group.finish();

    // Two workers shared by everyone.
    let single_queue = ServeOptions {
        workers: 2,
        queue_depth: 64,
        lanes: None,
    };
    let quiet = mixed_load(
        single_queue.clone(),
        &cheap,
        passes,
        Attack {
            hostile_clients: 0,
            cancel: false,
        },
    );
    let hostile = || Attack {
        hostile_clients: 2,
        cancel: false,
    };
    let base = mixed_load(single_queue.clone(), &cheap, passes, hostile());
    assert_eq!(base.heavy, 0, "lanes off must not count heavy admissions");

    // Lanes on: the same two cheap workers, plus one dedicated heavy
    // worker the hostile tenant is routed to by its static score.
    let laned = mixed_load(
        ServeOptions {
            lanes: Some(LaneOptions {
                heavy_workers: 1,
                heavy_budget: Some(HOSTILE_BUDGET),
                ..LaneOptions::default()
            }),
            ..single_queue.clone()
        },
        &cheap,
        passes,
        hostile(),
    );
    assert!(
        laned.heavy > 0,
        "the hostile tenant was never routed to the heavy lane"
    );

    // One hostile client whose in-flight work a canceller keeps revoking.
    let cancelled = mixed_load(
        single_queue,
        &cheap,
        passes,
        Attack {
            hostile_clients: 1,
            cancel: true,
        },
    );
    assert!(
        cancelled.revoked > 0,
        "the canceller never found hostile work in flight"
    );
    for run in [&base, &laned, &cancelled] {
        assert_eq!(quiet.verdicts, run.verdicts, "load changed a cheap verdict");
    }

    let x = cheap.len() as f64;
    let series = |name: &str, run: Run| bench::Sampled::new(name, x, "us", run.latencies);
    let heavy = laned.heavy;
    let revoked = cancelled.revoked;
    let rows = [
        series("cheap_quiet", quiet),
        series("cheap_single_queue", base),
        series("cheap_lanes", laned),
        series("cheap_cancelled", cancelled),
        bench::Sampled::one("heavy_admitted_lanes", x, "count", heavy as f64),
        bench::Sampled::one("hostile_revoked", x, "count", revoked as f64),
    ];
    let p99 = |i: usize| rows[i].quantile(0.99);
    // The headline claim: isolating heavy work must strictly improve
    // the cheap tail. The margin is structural — single-queue cheap
    // requests eat hostile budget quanta (25ms) head-of-line, laned
    // ones never queue behind hostile work at all.
    assert!(
        p99(2) < p99(1),
        "lanes did not improve the cheap p99: {:.0}us → {:.0}us",
        p99(1),
        p99(2)
    );
    // The isolation bound: within 2× of quiet, or — when the quiet run
    // is so fast that a ratio would only measure the CPU scheduler —
    // within one hostile budget quantum, the worst head-of-line wait a
    // budget-bounded search can inflict.
    let budget_us = HOSTILE_BUDGET.as_secs_f64() * 1e6;
    assert!(
        p99(3) <= (2.0 * p99(0)).max(budget_us),
        "a cancelled hostile tenant degraded the cheap p99 beyond 2× and a budget quantum: \
         {:.0}us → {:.0}us",
        p99(0),
        p99(3)
    );
    bench::write_snapshot("BENCH_hardness.json", "hardness_lanes", "us", &rows)
        .expect("write snapshot");
}

criterion_group!(benches, bench_hardness_lanes);
criterion_main!(benches);
