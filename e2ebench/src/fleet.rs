//! `fleet`: application servers calling the multi-tenant TCP server.
//! The tenants are split into four partitions, each with its own request
//! stream that only one connection at a time runs, so each tenant sees
//! one caller in a fixed order and its verdicts can be replayed exactly.
//! About three requests in four are reads skewed toward hot facts and
//! the shared core; the rest add or retract fresh assertions.
//!
//! The timed phase has two halves on the same server, the second
//! continuing each stream where the first stopped. The latency half runs
//! two streams with one request in flight per connection and gives the
//! round-trip percentiles. The throughput half runs all four streams
//! pipelined: each connection keeps a few requests written ahead of its
//! replies, so the server always has work queued and the rate measures
//! the server's work, not how late an idle vCPU wakes for the next
//! request.

use crate::replica::{Counters, Replica};
use crate::util::{self, Args, Latencies, Outcome, SpanStats, Tracer, LADDER_LAYERS};
use dl::name::IndividualName;
use dl::Concept;
use jsonio::Value;
use ontogen::tenant::{tenant_fleet, TenantFleetParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shoin4::serve::{self, Registry, Request, ServeOptions, Server};
use shoin4::{Axiom4, InclusionKind, KnowledgeBase4, Reasoner4};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const TENANTS: usize = 512;
/// Tenant partitions, each with its own request stream: a tenant sees
/// one caller in a fixed order, so its replies can be replayed exactly.
const STREAMS: usize = 4;
/// Streams `0..LATENCY_CONNECTIONS` run one request at a time in the
/// latency half, one connection each (one per vCPU of the reference
/// host); the throughput half runs every stream on its own pipelined
/// connection, enough to keep both vCPUs busy.
const LATENCY_CONNECTIONS: usize = 2;
/// Set-ups timed before and after the timed phase (median = `setup_s`),
/// so the median spans more than one moment of the host.
const SETUP_REPS: usize = 3;
/// Lines (requests and `tenant` switches) a connection of the
/// throughput half keeps written ahead of the replies it has read.
const PIPELINE_DEPTH: usize = 16;
/// Requests generated per stream and second of run: more than a stream
/// completes today, so a run seldom wraps around the stream.
const OPS_PER_STREAM_SECOND: f64 = 7000.0;
/// Assertions absent from each tenant's KB that its writes add and
/// retract: a bounded pool, so the caches reach a steady size.
const POOL: usize = 4;
const ISLAND_TBOX: usize = 4;
const ISLAND_ABOX: usize = 6;
const CORE_TBOX: usize = 6;

#[derive(Clone)]
enum Req {
    Query(IndividualName, Concept),
    Entails(Axiom4),
    Check,
    Add(Axiom4),
    Retract(Axiom4),
}

impl Req {
    fn is_write(&self) -> bool {
        matches!(self, Req::Add(_) | Req::Retract(_))
    }
}

struct Op {
    tenant: usize,
    /// The protocol line, newline included.
    line: String,
    req: Req,
}

struct TenantInput {
    id: String,
    text: String,
    kb: KnowledgeBase4,
    core: bool,
    /// Hot probes: `(island, individual, concept)`.
    hot: Vec<(usize, IndividualName, Concept)>,
}

fn c(name: String) -> Concept {
    Concept::atomic(name)
}

fn tenant_inputs(seed: u64) -> Vec<TenantInput> {
    let fleet = tenant_fleet(&TenantFleetParams {
        seed,
        tenants: TENANTS,
        shared_core_rate: 0.5,
        core_tbox: CORE_TBOX,
        core_abox: 8,
        private_islands: 2,
        island_tbox: ISLAND_TBOX,
        island_abox: ISLAND_ABOX,
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE7);
    fleet
        .tenants
        .into_iter()
        .enumerate()
        .map(|(t, (id, kb))| {
            let core = fleet.core_members.binary_search(&t).is_ok();
            let hot = (0..6)
                .map(|_| {
                    let j = rng.gen_range(0..2usize);
                    (
                        j,
                        IndividualName::new(format!("T{t}I{j}x{}", rng.gen_range(0..3))),
                        c(format!("T{t}I{j}C{}", rng.gen_range(0..=ISLAND_TBOX))),
                    )
                })
                .collect();
            TenantInput {
                id,
                text: shoin4::print_kb4(&kb),
                kb,
                core,
                hot,
            }
        })
        .collect()
}

/// The request stream of one tenant partition: bursts of 1–8 requests per
/// tenant visit, over the tenants `t ≡ stream (mod STREAMS)`. It ends
/// in the state it began in, so it can be run as a cycle.
fn op_stream(tenants: &[TenantInput], stream: usize, seed: u64, n: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(stream as u64));
    let owned: Vec<usize> = (stream..tenants.len()).step_by(STREAMS).collect();
    let mut outstanding: Vec<Vec<Axiom4>> = vec![Vec::new(); tenants.len()];
    let pools: Vec<Vec<Axiom4>> = (0..tenants.len())
        .map(|t| {
            (0..POOL)
                .map(|k| {
                    Axiom4::ConceptAssertion(
                        IndividualName::new(format!("T{t}f{k}")),
                        c(format!("T{t}I{}C{}", k % 2, rng.gen_range(0..=ISLAND_TBOX))),
                    )
                })
                .collect()
        })
        .collect();
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let t = owned[rng.gen_range(0..owned.len())];
        let ti = &tenants[t];
        for _ in 0..rng.gen_range(1..=8) {
            let island =
                |rng: &mut StdRng| (rng.gen_range(0..2usize), rng.gen_range(0..=ISLAND_TBOX));
            let roll = rng.gen_range(0..100);
            let req = if roll < 25 {
                // Toggle one of the tenant's pooled assertions.
                let ax = pools[t][rng.gen_range(0..POOL)].clone();
                let out = &mut outstanding[t];
                match out.iter().position(|x| *x == ax) {
                    Some(i) => Req::Retract(out.swap_remove(i)),
                    None => {
                        out.push(ax.clone());
                        Req::Add(ax)
                    }
                }
            } else if roll < 60 {
                let pick = rng.gen_range(0..10);
                let (a, concept) = if pick < 3 && ti.core {
                    (
                        IndividualName::new(format!("Corex{}", rng.gen_range(0..4))),
                        c(format!("CoreC{}", rng.gen_range(0..=CORE_TBOX))),
                    )
                } else if pick < 8 {
                    let (_, a, concept) = &ti.hot[rng.gen_range(0..ti.hot.len())];
                    (a.clone(), concept.clone())
                } else {
                    let (j, k) = island(&mut rng);
                    let a = match outstanding[t].first() {
                        Some(Axiom4::ConceptAssertion(a, _)) if rng.gen_bool(0.3) => a.clone(),
                        _ => IndividualName::new(format!("T{t}I{j}x{}", rng.gen_range(0..3))),
                    };
                    (a, c(format!("T{t}I{j}C{k}")))
                };
                Req::Query(a, concept)
            } else if roll < 75 {
                let (j, a, _) = ti.hot[rng.gen_range(0..ti.hot.len())].clone();
                let k = rng.gen_range(0..ISLAND_TBOX);
                Req::Query(
                    a,
                    c(format!("T{t}I{j}C{k}")).and(c(format!("T{t}I{j}C{}", k + 1))),
                )
            } else if roll < 93 {
                let (prefix, tbox) = if ti.core && rng.gen_bool(0.5) {
                    ("Core".to_string(), CORE_TBOX)
                } else {
                    (format!("T{t}I{}", rng.gen_range(0..2)), ISLAND_TBOX)
                };
                let i = rng.gen_range(0..tbox);
                let k = rng.gen_range(i + 1..=tbox);
                Req::Entails(Axiom4::ConceptInclusion(
                    InclusionKind::Internal,
                    c(format!("{prefix}C{i}")),
                    c(format!("{prefix}C{k}")),
                ))
            } else {
                Req::Check
            };
            let line = match &req {
                Req::Query(a, concept) => format!("query {a} {concept}\n"),
                Req::Entails(ax) => format!("entails {}\n", shoin4::printer4::print_axiom4(ax)),
                Req::Check => "check\n".to_string(),
                Req::Add(ax) => format!("add {}\n", shoin4::printer4::print_axiom4(ax)),
                Req::Retract(ax) => format!("retract {}\n", shoin4::printer4::print_axiom4(ax)),
            };
            ops.push(Op {
                tenant: t,
                line,
                req,
            });
        }
    }
    // Close the cycle: retract what is still added, so the stream ends in
    // the state it began in and a program faster than the stream is long
    // runs it again from the top.
    for &t in &owned {
        for ax in outstanding[t].drain(..) {
            let line = format!("retract {}\n", shoin4::printer4::print_axiom4(&ax));
            ops.push(Op {
                tenant: t,
                line,
                req: Req::Retract(ax),
            });
        }
    }
    ops
}

fn registry_config() -> tableau::Config {
    // The `shoin4 serve` default budget.
    tableau::Config {
        time_budget: Some(Duration::from_millis(10_000)),
        ..tableau::Config::default()
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    tenant: Option<usize>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone socket")),
            writer: stream,
            line: String::new(),
            tenant: None,
        }
    }

    fn ask(&mut self, line: &str) -> &str {
        self.writer
            .write_all(line.as_bytes())
            .expect("send request");
        self.line.clear();
        self.reader.read_line(&mut self.line).expect("read reply");
        self.line.trim_end()
    }

    fn select(&mut self, tenants: &[TenantInput], t: usize) -> bool {
        if self.tenant == Some(t) {
            return true;
        }
        self.tenant = Some(t);
        let reply = self.ask(&format!("tenant {}\n", tenants[t].id));
        reply.contains("\"created\":false")
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        let _ = self.writer.write_all(b"quit\n");
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
    }
}

/// Parse + register + bind + one warm-up read per tenant.
fn setup(tenants: &[TenantInput]) -> Server {
    let registry = Arc::new(Registry::new(registry_config()));
    for ti in tenants {
        let kb = shoin4::parse_kb4(&ti.text).expect("tenant KB parses");
        registry.register(&ti.id, &kb);
    }
    let server =
        Server::bind("127.0.0.1:0", registry, ServeOptions::default()).expect("bind loopback");
    let mut client = Client::connect(server.local_addr());
    for (i, ti) in tenants.iter().enumerate() {
        assert!(client.select(tenants, i), "tenant {} not registered", ti.id);
        let (_, a, concept) = &ti.hot[0];
        let reply = client.ask(&format!("query {a} {concept}\n"));
        assert!(
            reply.contains("\"ok\":true"),
            "warm-up read failed: {reply}"
        );
    }
    server
}

/// One connection's closed loop. Traced runs add the in-process
/// `serve::execute` on a mirror registry, the request-line parse and the
/// layer replica after each round trip.
struct ConnResult {
    replies: Vec<String>,
    lat: Latencies,
    elapsed: f64,
    tracer: Tracer,
    mismatches: u64,
    counters: Counters,
    bad_switches: u64,
}

struct Mirror<'a> {
    registry: &'a Registry,
    replicas: Vec<Option<Replica>>,
}

#[allow(clippy::too_many_arguments)]
fn connection(
    addr: SocketAddr,
    tenants: &[TenantInput],
    ops: &[Op],
    limit: Option<usize>,
    seconds: f64,
    barrier: &Barrier,
    mut mirror: Option<Mirror>,
    epoch: Instant,
) -> ConnResult {
    let mut client = Client::connect(addr);
    let mut t = Tracer::new(mirror.is_some(), epoch);
    let mut res = ConnResult {
        replies: Vec::with_capacity(ops.len()),
        lat: Latencies::default(),
        elapsed: 0.0,
        tracer: Tracer::new(false, epoch),
        mismatches: 0,
        counters: Default::default(),
        bad_switches: 0,
    };
    let no_roles = BTreeSet::new();
    barrier.wait();
    let start = Instant::now();
    for (i, op) in ops.iter().cycle().enumerate() {
        match limit {
            Some(n) if i >= n => break,
            None if start.elapsed().as_secs_f64() >= seconds => break,
            _ => {}
        }
        if !client.select(tenants, op.tenant) {
            res.bad_switches += 1;
        }
        let id = i as u64;
        let span = t.begin("program.round_trip", id);
        let t0 = Instant::now();
        let reply = client.ask(&op.line).to_string();
        res.lat.push(t0.elapsed().as_secs_f64() * 1e6);
        t.end(span);
        if let Some(m) = &mut mirror {
            let request = Request {
                tenant: tenants[op.tenant].id.clone(),
                line: op.line.trim_end().to_string(),
                data_roles: no_roles.clone(),
            };
            let mirrored = t.leaf("serve.execute", id, || serve::execute(m.registry, &request));
            let mirrored = match mirrored {
                Ok(v) => v.to_string(),
                Err(e) => e.to_json().to_string(),
            };
            if mirrored != reply {
                res.mismatches += 1;
            }
            let text = match &op.req {
                Req::Query(_, concept) => format!("__serve_probe : {concept}"),
                Req::Entails(ax) | Req::Add(ax) | Req::Retract(ax) => {
                    shoin4::printer4::print_axiom4(ax)
                }
                Req::Check => String::new(),
            };
            if !text.is_empty()
                && t.leaf("parser4.line", id, || shoin4::parse_kb4(&text))
                    .is_err()
            {
                res.mismatches += 1;
            }
            let replica = m.replicas[op.tenant].get_or_insert_with(|| {
                // Start from the state the warm-up read left behind.
                let ti = &tenants[op.tenant];
                let mut r = Replica::new(&ti.kb, true);
                let (_, a, concept) = &ti.hot[0];
                let _ = r.query(&mut Tracer::new(false, epoch), 0, a, concept);
                r
            });
            let expected = match &op.req {
                Req::Query(a, concept) => replica.query(&mut t, id, a, concept).map(query_reply),
                Req::Entails(ax) => replica.entails(&mut t, id, ax).map(entails_reply),
                Req::Check => replica.is_satisfiable(&mut t, id).map(check_reply),
                Req::Add(ax) => {
                    replica.add(ax.clone());
                    Ok(String::new())
                }
                Req::Retract(ax) => {
                    replica.retract(ax);
                    Ok(String::new())
                }
            };
            match expected {
                Ok(e) if e.is_empty() || e == reply => {}
                _ => res.mismatches += 1,
            }
        }
        res.replies.push(reply);
    }
    res.elapsed = start.elapsed().as_secs_f64();
    if let Some(m) = mirror {
        for r in m.replicas.iter().flatten() {
            res.counters.absorb(&r.counters);
        }
    }
    res.tracer = t;
    res
}

/// What one connection of the throughput half completed.
struct Pipelined {
    replies: Vec<String>,
    elapsed: f64,
    bad_switches: u64,
}

/// One connection's pipelined closed loop over its stream from op
/// `start` on: whenever half of the `PIPELINE_DEPTH` lines written ahead
/// have been answered, write the next half in one send. Replies come
/// back in request order; `tenant` switches are sent where the stream
/// changes tenant and are not ops.
fn pipelined(
    addr: SocketAddr,
    tenants: &[TenantInput],
    ops: &[Op],
    start: usize,
    seconds: f64,
    barrier: &Barrier,
) -> Pipelined {
    let stream = TcpStream::connect(addr).expect("connect to the server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);
    let mut res = Pipelined {
        replies: Vec::with_capacity(ops.len()),
        elapsed: 0.0,
        bad_switches: 0,
    };
    // `true` for a request line, `false` for a `tenant` switch.
    let mut pending = std::collections::VecDeque::with_capacity(PIPELINE_DEPTH + 1);
    let (mut next, mut tenant) = (start, None);
    let (mut batch, mut line) = (String::new(), String::new());
    barrier.wait();
    let t0 = Instant::now();
    loop {
        if pending.len() <= PIPELINE_DEPTH / 2 && t0.elapsed().as_secs_f64() < seconds {
            batch.clear();
            while pending.len() < PIPELINE_DEPTH {
                let op = &ops[next % ops.len()];
                if tenant != Some(op.tenant) {
                    tenant = Some(op.tenant);
                    batch.push_str(&format!("tenant {}\n", tenants[op.tenant].id));
                    pending.push_back(false);
                }
                batch.push_str(&op.line);
                pending.push_back(true);
                next += 1;
            }
            writer.write_all(batch.as_bytes()).expect("send requests");
        }
        let Some(is_op) = pending.pop_front() else {
            break;
        };
        line.clear();
        reader.read_line(&mut line).expect("read reply");
        if is_op {
            res.replies.push(line.trim_end().to_string());
        } else if !line.contains("\"created\":false") {
            res.bad_switches += 1;
        }
    }
    res.elapsed = t0.elapsed().as_secs_f64();
    let _ = writer.write_all(b"quit\n");
    let _ = writer.shutdown(std::net::Shutdown::Both);
    res
}

fn query_reply(v: fourval::TruthValue) -> String {
    Value::object([
        ("ok", true.into()),
        ("verdict", serve::truth_token(v).into()),
    ])
    .to_string()
}

fn entails_reply(b: bool) -> String {
    Value::object([("ok", true.into()), ("entailed", b.into())]).to_string()
}

fn check_reply(b: bool) -> String {
    Value::object([("ok", true.into()), ("satisfiable", b.into())]).to_string()
}

fn oracle_reasoner<'a>(slot: &'a mut Option<Reasoner4>, kb: &[Axiom4]) -> &'a Reasoner4 {
    slot.get_or_insert_with(|| {
        Reasoner4::with_config(
            &KnowledgeBase4::from_axioms(kb.iter().cloned()),
            registry_config(),
        )
    })
}

/// Replay one connection's executed requests against a `Reasoner4`
/// rebuilt after every mutation of the tenant, and count replies that
/// differ from the oracle's. A later cycle of the stream starts from the
/// same state, so it must repeat the first cycle's replies.
fn oracle(tenants: &[TenantInput], ops: &[Op], replies: &[String], notes: &mut Vec<String>) -> u64 {
    let mut axioms: Vec<Option<Vec<Axiom4>>> = vec![None; tenants.len()];
    let mut reasoners: Vec<Option<Reasoner4>> = (0..tenants.len()).map(|_| None).collect();
    let mut failed = 0;
    for (op, reply) in ops.iter().zip(replies) {
        let t = op.tenant;
        let kb = axioms[t].get_or_insert_with(|| tenants[t].kb.axioms().to_vec());
        let expected = match &op.req {
            Req::Query(a, concept) => oracle_reasoner(&mut reasoners[t], kb)
                .query(a, concept)
                .map(query_reply),
            Req::Entails(ax) => oracle_reasoner(&mut reasoners[t], kb)
                .entails(ax)
                .map(entails_reply),
            Req::Check => oracle_reasoner(&mut reasoners[t], kb)
                .is_satisfiable()
                .map(check_reply),
            Req::Add(ax) => {
                kb.push(ax.clone());
                reasoners[t] = None;
                Ok(Value::object([("ok", true.into()), ("axioms", kb.len().into())]).to_string())
            }
            Req::Retract(ax) => {
                let removed = kb
                    .iter()
                    .rposition(|x| x == ax)
                    .map(|i| kb.remove(i))
                    .is_some();
                reasoners[t] = None;
                Ok(Value::object([
                    ("ok", true.into()),
                    ("removed", removed.into()),
                    ("axioms", kb.len().into()),
                ])
                .to_string())
            }
        };
        let ok = matches!(&expected, Ok(e) if e == reply);
        if !ok {
            failed += 1;
            if failed <= 3 {
                notes.push(format!(
                    "# FAIL fleet {}: {} -> {reply} (oracle {expected:?})",
                    tenants[t].id,
                    op.line.trim_end()
                ));
            }
        }
    }
    for (i, reply) in replies.iter().enumerate().skip(ops.len()) {
        if *reply != replies[i % ops.len()] {
            failed += 1;
        }
    }
    failed
}

/// Run `client(i, stream i, barrier)` on one thread per stream; the
/// barrier releases the clients together.
fn per_stream<R: Send>(
    streams: &[Vec<Op>],
    client: impl Fn(usize, &[Op], &Barrier) -> R + Sync,
) -> Vec<R> {
    let barrier = Barrier::new(streams.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(i, ops)| {
                let (barrier, client) = (&barrier, &client);
                s.spawn(move || client(i, ops, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

fn run_phase(
    server: &Server,
    tenants: &[TenantInput],
    streams: &[Vec<Op>],
    limits: Option<&[usize]>,
    seconds: f64,
    mirror: Option<&Registry>,
    epoch: Instant,
) -> Vec<ConnResult> {
    let addr = server.local_addr();
    per_stream(streams, |i, ops, barrier| {
        let mirror = mirror.map(|registry| Mirror {
            registry,
            replicas: (0..tenants.len()).map(|_| None).collect(),
        });
        let limit = limits.map(|l| l[i]);
        connection(addr, tenants, ops, limit, seconds, barrier, mirror, epoch)
    })
}

/// Counters the server and its sessions keep, read before shutdown.
struct ServerCounts {
    stats: tableau::Stats,
    cached_modules: usize,
    shared: serve::SharedCacheStats,
    queue_peak_us: f64,
    shed: f64,
    failed: f64,
}

fn server_counts(server: &Server, tenants: &[TenantInput]) -> ServerCounts {
    let registry = server.registry();
    let mut counts = ServerCounts {
        stats: tableau::Stats::default(),
        cached_modules: 0,
        shared: registry.shared().stats(),
        queue_peak_us: 0.0,
        shed: 0.0,
        failed: 0.0,
    };
    for ti in tenants {
        registry.read(&ti.id, |s| {
            counts.stats.absorb(&s.stats());
            counts.cached_modules += s.cached_modules();
        });
    }
    let load =
        |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let st = server.stats();
    counts.queue_peak_us = load(&st.peak_queue_wait_us);
    counts.shed = load(&st.shed);
    counts.failed = load(&st.failed);
    counts
}

/// A registry holding the same tenants as the server, for in-process
/// `serve::execute`; it replays the server's warm-up read.
fn mirror_registry(tenants: &[TenantInput], t: &mut Tracer) -> Registry {
    let registry = Registry::new(registry_config());
    for ti in tenants {
        let kb = t.leaf("parser4.parse_kb", 0, || {
            shoin4::parse_kb4(&ti.text).expect("tenant KB parses")
        });
        registry.register(&ti.id, &kb);
        t.leaf("transform.kb", 0, || shoin4::transform_kb(&kb));
        t.leaf("told.build", 0, || shoin4::told::ToldIndex::build(&kb));
        let (_, a, concept) = &ti.hot[0];
        let _ = serve::execute(
            &registry,
            &Request {
                tenant: ti.id.clone(),
                line: format!("query {a} {concept}"),
                data_roles: BTreeSet::new(),
            },
        );
    }
    registry
}

pub fn run(args: &Args) -> Outcome {
    let tenants = tenant_inputs(args.seed);
    let stream_len = (OPS_PER_STREAM_SECOND * args.seconds) as usize + 1000;
    let streams: Vec<Vec<Op>> = (0..STREAMS)
        .map(|stream| op_stream(&tenants, stream, args.seed, stream_len))
        .collect();
    let latency_streams = &streams[..LATENCY_CONNECTIONS];
    let mut out = Outcome::default();
    let epoch = Instant::now();

    let mut setup_s = Vec::new();
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let server = setup(&tenants);
        setup_s.push(t0.elapsed().as_secs_f64());
        server
    };
    for _ in 1..SETUP_REPS {
        drop(timed_setup(&mut setup_s));
    }
    let server = timed_setup(&mut setup_s);
    let half = args.seconds / 2.0;
    let a = run_phase(&server, &tenants, latency_streams, None, half, None, epoch);
    let done: Vec<usize> = a.iter().map(|c| c.replies.len()).collect();
    let starts: Vec<usize> = (0..STREAMS)
        .map(|i| done.get(i).copied().unwrap_or(0))
        .collect();
    let addr = server.local_addr();
    let p = per_stream(&streams, |i, ops, barrier| {
        pipelined(addr, &tenants, ops, starts[i], half, barrier)
    });
    let rss = util::peak_rss_mb();
    drop(server);
    for _ in 0..SETUP_REPS {
        drop(timed_setup(&mut setup_s));
    }

    let piped: usize = p.iter().map(|c| c.replies.len()).sum();
    let ops: usize = done.iter().sum::<usize>() + piped;
    let wall = a.iter().map(|c| c.elapsed).fold(0.0, f64::max);
    let piped_wall = p.iter().map(|c| c.elapsed).fold(0.0, f64::max);
    let mut all = Latencies::default();
    let (mut reads, mut writes) = (Latencies::default(), Latencies::default());
    for (conn, stream) in a.iter().zip(latency_streams) {
        for (lat, op) in conn.lat.0.iter().zip(stream.iter().cycle()) {
            all.push(*lat);
            if op.req.is_write() {
                writes.push(*lat);
            } else {
                reads.push(*lat);
            }
        }
    }
    let checks: Vec<(u64, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = p
            .iter()
            .zip(&streams)
            .enumerate()
            .map(|(i, (piped, stream))| {
                let (tenants, first) = (&tenants, a.get(i).map_or(&[][..], |c| &c.replies[..]));
                s.spawn(move || {
                    let mut notes = Vec::new();
                    let replies = [first, &piped.replies[..]].concat();
                    let f = oracle(tenants, stream, &replies, &mut notes);
                    (f, notes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    let mut failed = a.iter().map(|c| c.bad_switches).sum::<u64>()
        + p.iter().map(|c| c.bad_switches).sum::<u64>();
    for (f, notes) in checks {
        failed += f;
        out.notes.extend(notes);
    }
    out.attempted = ops as u64;
    out.failed = failed;
    out.checks_ok = ops > 0 && failed == 0;
    out.note(format!(
        "# fleet: {ops} requests: {} one at a time over {LATENCY_CONNECTIONS} connections in {wall:.3}s ({} writes), {piped} pipelined {PIPELINE_DEPTH} deep over {STREAMS} connections in {piped_wall:.3}s; failed_frac {}",
        ops - piped,
        writes.0.len(),
        util::ratio(out.failed as f64, ops as f64)
    ));
    out.note(format!("# {}", reads.describe("query_us")));
    out.note(format!("# {}", writes.describe("mutate_us")));
    out.note(format!("# setup_s samples {setup_s:?}"));
    if !args.trace {
        out.set("setup_s", util::median(&setup_s));
        out.set("ops_per_s", util::ratio(piped as f64, piped_wall));
        out.set("op_p50_us", util::pct(&all.sorted(), 50.0));
        out.set("peak_rss_mb", rss);
        return out;
    }

    // The traced phase repeats the latency half's request prefixes on a
    // fresh server, beside a mirror registry and the replica.
    let mut setup_tracer = Tracer::new(true, epoch);
    let mirror = mirror_registry(&tenants, &mut setup_tracer);
    let server = setup(&tenants);
    let b = run_phase(
        &server,
        &tenants,
        latency_streams,
        Some(&done),
        args.seconds,
        Some(&mirror),
        epoch,
    );
    let counts = server_counts(&server, &tenants);
    drop(server);
    let diverged = a
        .iter()
        .zip(&b)
        .map(|(x, y)| {
            x.replies
                .iter()
                .zip(&y.replies)
                .filter(|(p, q)| p != q)
                .count() as u64
        })
        .sum::<u64>();
    let mismatches: u64 = b.iter().map(|c| c.mismatches + c.bad_switches).sum();
    out.failed += mismatches + diverged;
    out.checks_ok &= mismatches + diverged == 0;
    out.note(format!("# traced phase: replica/mirror mismatches {mismatches}, replies differing from the untraced phase {diverged}"));

    let tracers: Vec<&Tracer> = std::iter::once(&setup_tracer)
        .chain(b.iter().map(|c| &c.tracer))
        .collect();
    let spans = SpanStats::of(&tracers);
    let n = ops as f64;
    let stats = &counts.stats;
    let mutations = writes.0.len() as f64;
    let mut c = Counters::default();
    for conn in &b {
        c.absorb(&conn.counters);
    }
    let round_trip_us = spans.total_us("program.round_trip");
    out.set(
        "parser4.kb_parse_ms",
        spans.total_us("parser4.parse_kb") / 1e3,
    );
    out.set("parser4.line_parse_us", spans.mean_us("parser4.line"));
    out.set("transform.kb_ms", spans.total_us("transform.kb") / 1e3);
    out.set("told.build_ms", spans.total_us("told.build") / 1e3);
    crate::replica::ladder_metrics(
        &mut out,
        &spans,
        &c,
        stats,
        stats.scoped_queries as f64 / n,
        n,
    );
    out.set(
        "incremental.invalidated_modules_per_mutation",
        util::ratio(stats.invalidated_modules as f64, mutations),
    );
    out.set(
        "incremental.invalidated_entailments_per_mutation",
        util::ratio(stats.invalidated_entailments as f64, mutations),
    );
    out.set("incremental.cached_modules", counts.cached_modules as f64);
    let execute_p50 = spans.pct_us("serve.execute", 50.0);
    out.set("serve.execute_us", execute_p50);
    out.set(
        "serve.wire_us",
        spans.pct_us("program.round_trip", 50.0) - execute_p50,
    );
    out.set(
        "serve.structural_key_us",
        spans.mean_us("serve.structural_key"),
    );
    out.set("serve.shared_hit_ratio", counts.shared.hit_ratio());
    out.set(
        "serve.shared_entries",
        (counts.shared.engines
            + counts.shared.horn_programs
            + counts.shared.rows
            + counts.shared.scores) as f64,
    );
    out.set("serve.queue_wait_peak_us", counts.queue_peak_us);
    out.set("serve.shed", counts.shed);
    out.set("serve.failed", counts.failed);
    out.set(
        "trace.overhead",
        util::ratio(round_trip_us, all.0.iter().sum()) - 1.0,
    );
    out.set(
        "trace.coverage",
        util::ratio(spans.layer_self_us(&LADDER_LAYERS), round_trip_us),
    );
    let path = util::out_dir().join(format!("spans-fleet-{}.tsv", args.seed));
    util::write_spans(&path, &tracers).expect("write span file");
    out.note(format!(
        "# spans: {} written to {}",
        tracers.iter().map(|t| t.spans.len()).sum::<usize>(),
        path.display()
    ));
    out
}
