//! The serving layer's contract, checked differentially over the wire:
//! a [`shoin4::serve::Server`] answering the line protocol must be
//! answer-*invisible* — every verdict a concurrent TCP client reads
//! back must be bit-identical to a direct [`Reasoner4`] built from the
//! same KB under the same [`Config`], across all three §3.1 inclusion
//! kinds. The server side runs the full production pipeline (per-tenant
//! [`shoin4::Session`]s, told index, Horn saturation, module scoping,
//! cross-tenant shared caches, admission queue), the reference side
//! runs a direct in-process [`Reasoner4`] with none of the serving
//! machinery; agreement over ≥ 100 generated tenants is the evidence
//! that no serving shortcut changes an answer. (The reference runs the
//! default ladder — the Corollary 7 oracle of `tests/common` already
//! guards its rungs in `tests/{batch,module,horn,incremental}_parity.rs`;
//! here the subject is the wire + registry + shared-cache path on top.)
//!
//! Also here: the protocol smoke test CI drives by name
//! (`serve_protocol_smoke`) and the admission-control test (a saturated
//! one-worker server must shed with a typed `overloaded` reply and stay
//! healthy after the burst is cancelled).

use jsonio::Value;
use ontogen::random::{random_kb4, RandomParams};
use ontogen::tenant::{tenant_fleet, TenantFleetParams};
use shoin4::printer4::print_axiom4;
use shoin4::serve::{hostile_kb, Registry, ServeOptions, Server};
use shoin4::{Axiom4, InclusionKind, KnowledgeBase4, Reasoner4};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use tableau::Config;

/// Shared server/reference config: a short budget so seeds that are
/// pathologically hard for the baseline tableau get skipped, exactly as
/// in `tests/incremental_parity.rs` — hardness is a KB property, not a
/// serving property.
fn config() -> Config {
    Config {
        model_pruning: false,
        time_budget: Some(Duration::from_millis(300)),
        ..Config::default()
    }
}

fn small_params(seed: u64) -> RandomParams {
    RandomParams {
        n_concepts: 4,
        n_roles: 2,
        n_individuals: 3,
        n_tbox: 3,
        n_abox: 5,
        max_depth: 1,
        number_restrictions: false,
        inverse_roles: true,
        seed,
    }
}

/// ≥ 100 tenants: a generated fleet with a shared core (so the parity
/// sweep also exercises the cross-tenant cache) plus random mixed-kind
/// KBs, which plant material, internal and strong inclusions.
fn tenant_kbs() -> Vec<(String, KnowledgeBase4)> {
    let fleet = tenant_fleet(&TenantFleetParams {
        tenants: 8,
        shared_core_rate: 0.5,
        ..TenantFleetParams::default()
    });
    let mut kbs = fleet.tenants;
    for seed in 0..96u64 {
        kbs.push((
            format!("rand{seed}"),
            random_kb4(&small_params(seed), (0.3, 0.4, 0.3)),
        ));
    }
    assert!(kbs.len() >= 100, "the sweep promises ≥ 100 tenants");
    kbs
}

/// One client connection with line-in/JSON-out helpers.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let writer = stream.try_clone().expect("clone");
        Client {
            writer,
            reader: BufReader::new(stream),
        }
    }

    fn ask(&mut self, line: &str) -> Value {
        // Single write per request: a `writeln!` would send the line
        // and its terminator as separate segments, and the server
        // cannot parse until the terminator lands.
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        Value::parse(&reply).unwrap_or_else(|e| panic!("bad JSON reply {reply:?}: {e}"))
    }
}

/// Interpret a server reply as `Some(value under `key`)`, `None` for a
/// resource-limit error (skip the probe), and panic on protocol errors
/// — a `parse`/`no-tenant`/`unknown-tenant` reply is a bug, not a skip.
fn reply_value(reply: &Value, key: &str, probe: &str) -> Option<Value> {
    if let Some(code) = reply.get("error").and_then(Value::as_str) {
        assert!(
            code == "budget" || code == "limit",
            "protocol error {code:?} on {probe:?}: {reply}"
        );
        return None;
    }
    Some(
        reply
            .get(key)
            .unwrap_or_else(|| panic!("reply to {probe:?} lacks {key:?}: {reply}"))
            .clone(),
    )
}

/// Drive every probe for one tenant through an open connection and
/// compare against the direct reasoner. Returns the number of probes
/// that produced comparable (unskipped) answers.
fn check_tenant(client: &mut Client, id: &str, kb: &KnowledgeBase4) -> usize {
    let created = client.ask(&format!("tenant {id}"));
    assert_eq!(
        created.get("created").and_then(Value::as_bool),
        Some(false),
        "tenant {id} should have been pre-registered"
    );
    let reference = Reasoner4::with_config(kb, config());
    let mut compared = 0;

    let reply = client.ask("check");
    if let (Some(got), Ok(want)) = (
        reply_value(&reply, "satisfiable", "check"),
        reference.is_satisfiable(),
    ) {
        assert_eq!(got.as_bool(), Some(want), "check diverged on {id}");
        compared += 1;
    }

    let sig = kb.signature();
    let concepts: Vec<_> = sig.concepts.iter().cloned().collect();
    let individuals: Vec<_> = sig.individuals.iter().cloned().collect();
    let roles: Vec<_> = sig.roles.iter().cloned().collect();

    // Instance queries: atomic probes (served by the told fast path)
    // and a compound probe (forced through module + shared caches).
    // Kept deliberately lean — CI runs this sweep on small machines,
    // and each budget-exhausted probe costs its full 300ms twice.
    let mut probes: Vec<dl::Concept> = concepts
        .iter()
        .take(2)
        .map(|c| dl::Concept::atomic(c.clone()))
        .collect();
    if concepts.len() >= 2 {
        probes.push(
            dl::Concept::atomic(concepts[0].clone()).and(dl::Concept::atomic(concepts[1].clone())),
        );
    }
    for a in individuals.iter().take(1) {
        for c in &probes {
            let probe = format!("query {a} {c}");
            let reply = client.ask(&probe);
            if let (Some(got), Ok(want)) = (
                reply_value(&reply, "verdict", &probe),
                reference.query(a, c),
            ) {
                assert_eq!(
                    got.as_str(),
                    Some(shoin4::serve::truth_token(want)),
                    "{probe} diverged on {id}"
                );
                compared += 1;
            }
        }
    }

    if let (Some(r), [a, b, ..]) = (roles.first(), individuals.as_slice()) {
        let probe = format!("role {r} {a} {b}");
        let reply = client.ask(&probe);
        if let (Some(got), Ok(want)) = (
            reply_value(&reply, "verdict", &probe),
            reference.query_role(r, a, b),
        ) {
            assert_eq!(
                got.as_str(),
                Some(shoin4::serve::truth_token(want)),
                "{probe} diverged on {id}"
            );
            compared += 1;
        }
    }

    // Entailment across all three inclusion kinds, on constructed
    // inclusions over the tenant's own signature.
    if concepts.len() >= 2 {
        for kind in [
            InclusionKind::Internal,
            InclusionKind::Material,
            InclusionKind::Strong,
        ] {
            let ax = Axiom4::ConceptInclusion(
                kind,
                dl::Concept::atomic(concepts[0].clone()),
                dl::Concept::atomic(concepts[1].clone()),
            );
            let probe = format!("entails {}", print_axiom4(&ax));
            let reply = client.ask(&probe);
            if let (Some(got), Ok(want)) = (
                reply_value(&reply, "entailed", &probe),
                reference.entails(&ax),
            ) {
                assert_eq!(got.as_bool(), Some(want), "{probe} diverged on {id}");
                compared += 1;
            }
        }
    }
    compared
}

#[test]
fn server_matches_direct_reasoner_across_generated_fleet() {
    let kbs = tenant_kbs();
    let registry = Arc::new(Registry::new(config()));
    for (id, kb) in &kbs {
        assert!(registry.register(id, kb));
    }
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServeOptions {
            workers: 4,
            queue_depth: 256,
            lanes: None,
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let compared = AtomicUsize::new(0);
    // Concurrent clients: each thread owns a stride of the tenants and
    // its own connection, so the worker pool really interleaves
    // requests from different tenants.
    const CLIENTS: usize = 8;
    std::thread::scope(|scope| {
        for stride in 0..CLIENTS {
            let kbs = &kbs;
            let compared = &compared;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                let mut done = 0;
                for (id, kb) in kbs.iter().skip(stride).step_by(CLIENTS) {
                    done += check_tenant(&mut client, id, kb);
                }
                client.ask("quit");
                compared.fetch_add(done, Ordering::Relaxed);
            });
        }
    });
    // The budget skip must not hollow the sweep out.
    let compared = compared.load(Ordering::Relaxed);
    assert!(
        compared >= 250,
        "only {compared} probes were comparable — the sweep lost its teeth"
    );
    // The fleet's shared core must have produced real cross-tenant
    // sharing during the sweep.
    let shared = registry.shared().stats();
    assert!(
        shared.hit_ratio() > 0.0,
        "no cross-tenant cache sharing despite a shared core: {shared:?}"
    );
    server.shutdown();
}

/// The named protocol smoke test CI runs on every push: one connection,
/// every connection-level and admitted verb, typed error replies.
#[test]
fn serve_protocol_smoke() {
    let registry = Arc::new(Registry::new(config()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServeOptions::default(),
    )
    .expect("bind");
    let mut c = Client::connect(server.local_addr());
    assert_eq!(
        c.ask("check").get("error").and_then(Value::as_str),
        Some("no-tenant")
    );
    assert_eq!(
        c.ask("tenant demo").get("created").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        c.ask("DataRole: age").get("ok").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        c.ask("add Penguin SubClassOf Bird")
            .get("ok")
            .and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        c.ask("add tweety : Penguin")
            .get("axioms")
            .and_then(Value::as_i64),
        Some(2)
    );
    assert_eq!(
        c.ask("add Adult MaterialSubClassOf age some integer[18..]")
            .get("ok")
            .and_then(Value::as_bool),
        Some(true),
        "DataRole declaration must thread into admitted parses"
    );
    assert_eq!(
        c.ask("add age(pat, 41)").get("ok").and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        c.ask("query pat age min 1")
            .get("verdict")
            .and_then(Value::as_str),
        Some("t"),
        "query concepts must read declared data roles as `entails` does"
    );
    assert_eq!(
        c.ask("query tweety Bird")
            .get("verdict")
            .and_then(Value::as_str),
        Some("t")
    );
    assert_eq!(
        c.ask("entails Penguin SubClassOf Bird")
            .get("entailed")
            .and_then(Value::as_bool),
        Some(true)
    );
    assert_eq!(
        c.ask("role flies tweety tweety")
            .get("verdict")
            .and_then(Value::as_str),
        Some("neither")
    );
    assert_eq!(
        c.ask("retract tweety : Penguin")
            .get("removed")
            .and_then(Value::as_bool),
        Some(true)
    );
    let stats = c.ask("stats");
    assert_eq!(stats.get("axioms").and_then(Value::as_i64), Some(3));
    assert_eq!(
        c.ask("frobnicate hard")
            .get("error")
            .and_then(Value::as_str),
        Some("parse")
    );
    assert_eq!(
        c.ask("cancel").get("revoked").and_then(Value::as_i64),
        Some(0)
    );
    assert_eq!(c.ask("quit").get("ok").and_then(Value::as_bool), Some(true));
    server.shutdown();
}

/// Concept nesting is capped where a line is parsed: a query nested to
/// `dl::MAX_CONCEPT_DEPTH` answers, one level more is a typed `parse`
/// error, and so are lines far past the cap — 3,000 nested parentheses
/// and an 8,000-conjunct chain, both under `MAX_LINE_BYTES`, which
/// overflowed a connection thread's stack before the cap. The server
/// keeps serving after each.
#[test]
fn nesting_past_the_depth_cap_is_a_parse_error_on_the_wire() {
    let registry = Arc::new(Registry::new(config()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
    )
    .expect("bind");
    let mut c = Client::connect(server.local_addr());
    c.ask("tenant deep");
    c.ask("add x : A");
    // `n` negations of `A`: a tree of height `n + 1`; each flips the
    // told verdict of `x : A`.
    let negations = |n: usize| format!("query x {}A", "not ".repeat(n));
    let at_cap = dl::MAX_CONCEPT_DEPTH - 1;
    let want = if at_cap.is_multiple_of(2) { "t" } else { "f" };
    assert_eq!(
        c.ask(&negations(at_cap))
            .get("verdict")
            .and_then(Value::as_str),
        Some(want)
    );
    let deep_lines = [
        negations(at_cap + 1),
        format!("query x {}A{}", "(".repeat(3000), ")".repeat(3000)),
        format!("query x {}", vec!["A"; 8000].join(" and ")),
    ];
    for line in &deep_lines {
        let reply = c.ask(line);
        assert_eq!(reply.get("error").and_then(Value::as_str), Some("parse"));
        let detail = reply.get("detail").and_then(Value::as_str).unwrap_or("");
        assert!(detail.contains("nested deeper"), "{reply}");
        assert_eq!(c.ask("check").get("satisfiable"), Some(&Value::Bool(true)));
    }
    server.shutdown();
}

/// Admission control under saturation: a one-worker, one-slot server
/// fed hostile requests must shed with a typed `overloaded` reply, and
/// after the burst is revoked it must keep serving other tenants.
#[test]
fn saturated_server_sheds_and_recovers() {
    // A short budget bounds every hostile search: even when the poller
    // below loses an admission race and its own probe runs, it is back
    // within ~1s. Cancellation only ends searches sooner.
    let config = Config {
        time_budget: Some(Duration::from_secs(1)),
        ..Config::default()
    };
    let registry = Arc::new(Registry::new(config));
    registry.register("evil", &hostile_kb(40));
    registry.register(
        "fair",
        &shoin4::parse_kb4("A SubClassOf B\nx : A").expect("parse"),
    );
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServeOptions {
            workers: 1,
            queue_depth: 1,
            lanes: None,
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let stop = AtomicBool::new(false);
    // Each hostile client passes this barrier after its first reply, and
    // the poller below starts only then: without it the poller could
    // read `overloaded` and stop the burst before a hostile client had
    // sent anything.
    let started = Barrier::new(3);
    std::thread::scope(|scope| {
        // Two looping hostile clients keep the single worker and the
        // single queue slot continuously occupied until told to stop,
        // so the poller below reliably finds the queue full.
        let hostile = |tag: &'static str| {
            let (stop, started) = (&stop, &started);
            scope.spawn(move || {
                let mut c = Client::connect(addr);
                c.ask("tenant evil");
                let mut completed = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let reply = c.ask("check");
                    let code = reply.get("error").and_then(Value::as_str);
                    assert!(
                        matches!(code, Some("budget" | "cancelled" | "overloaded")),
                        "{tag} got an unexpected reply: {reply}"
                    );
                    completed += 1;
                    if completed == 1 {
                        started.wait();
                    }
                }
                (tag, completed)
            })
        };
        let h1 = hostile("h1");
        let h2 = hostile("h2");
        started.wait();

        // A third client's probe must observe the typed shed reply. It
        // can still win an admission race in the instant between one
        // hostile reply and the next resubmission — then its own probe
        // burns its 1s budget — so poll.
        let mut c = Client::connect(addr);
        c.ask("tenant evil");
        let mut shed = None;
        for _ in 0..100 {
            let reply = c.ask("check");
            if reply.get("error").and_then(Value::as_str) == Some("overloaded") {
                shed = Some(reply);
                break;
            }
        }
        let shed = shed.expect("the saturated server never shed a request");
        assert!(
            shed.get("detail")
                .and_then(Value::as_str)
                .is_some_and(|d| d.contains("queue full")),
            "{shed}"
        );

        // Stop the burst and revoke in-flight searches so the loops
        // drain on the cancellation token, not the budget backstop.
        stop.store(true, Ordering::Relaxed);
        while !h1.is_finished() || !h2.is_finished() {
            server.cancel_tenant("evil");
            std::thread::sleep(Duration::from_millis(5));
        }
        for h in [h1, h2] {
            let (tag, completed) = h.join().expect("hostile client");
            assert!(completed >= 1, "{tag} never completed a request");
        }
    });

    // The unrelated tenant is served promptly after the burst.
    let mut fair = Client::connect(addr);
    fair.ask("tenant fair");
    let reply = fair.ask("query x B");
    assert_eq!(
        reply.get("verdict").and_then(Value::as_str),
        Some("t"),
        "fair tenant starved after the hostile burst: {reply}"
    );
    assert!(server.stats().shed.load(Ordering::Relaxed) >= 1);
    server.shutdown();
}
