//! Multi-tenant concurrent serving: a sharded tenant registry over
//! [`Session`]s, cross-tenant cache sharing, admission control, and a
//! std-only line-protocol TCP front end.
//!
//! One process hosts many independent four-valued KBs and answers
//! concurrent requests with bounded resources. Four mechanisms carry
//! the load:
//!
//! * **Sharded registry** — [`Registry`] maps tenant ids to
//!   `RwLock<Session>`s across independently locked shards (the same
//!   layout as [`crate::cache::ShardedMap`]), so requests for different
//!   tenants never contend on one global lock and read-heavy tenants
//!   admit concurrent readers.
//! * **Cross-tenant cache sharing** — [`SharedModuleCache`] keys
//!   per-module `QueryEngine`s, Horn programs and query verdict rows by
//!   a *structural key*: the sorted serialization of the module's
//!   classical-image axioms ([`structural_key`]). Identical modules
//!   across tenants (the common case for fleets cloned from a shared
//!   core ontology) therefore hit one cache entry. Content addressing
//!   makes sharing immune to staleness: a mutated module extracts to a
//!   different axiom set, hence a different key — old entries are
//!   simply never hit again.
//! * **Admission control** — [`Server`] runs a fixed worker pool behind
//!   a bounded queue. A full queue sheds the request with a typed
//!   [`ServeError::Overloaded`] instead of letting latency grow without
//!   bound, every request runs under the registry's
//!   `Config::time_budget`, and a per-request cancellation token
//!   (installed via [`tableau::interrupt`]) lets [`Server::cancel_tenant`]
//!   revoke a hostile tenant's in-flight work without waiting out the
//!   budget — the search observes the token inside `check_limits` and
//!   returns [`tableau::ReasonerError::Cancelled`]. That installed entry
//!   is the one per-request stop path: it also carries the heavy lane's
//!   budget, below.
//! * **Cost-aware lanes** — with [`ServeOptions::lanes`] set, admission
//!   first predicts each request's cost with the static
//!   [`crate::hardness`] analyzer (scores cached per module in the
//!   shared cache, so the steady-state prediction is one hash lookup)
//!   and routes requests at or above [`LaneOptions::threshold`] to a
//!   separate *heavy* queue with its own workers, depth, and optional
//!   wall-clock budget. One tenant's pathological modules then saturate
//!   the heavy lane while told/Horn traffic keeps flowing through the
//!   cheap one. Lanes change scheduling only — verdicts are
//!   bit-identical with lanes on or off (`tests/serve_lanes.rs`).
//!
//! The wire protocol is deliberately boring: one request per line in
//! the [`crate::command`] grammar (at most [`MAX_LINE_BYTES`] bytes),
//! parsed once on the connection thread, and one JSON reply per line
//! (via [`jsonio`]), over `std::net::TcpListener` — the workspace
//! vendors its dependencies, so there is no async runtime. See the
//! README's "Serving" quickstart.

use crate::cache::{lock_mutex, read_lock, write_lock, ShardedMap};
use crate::command::Command;
use crate::hardness;
use crate::horn::HornProgram;
use crate::incremental::Session;
use crate::kb4::{Axiom4, KnowledgeBase4};
use dl::axiom::{Axiom, RoleExpr};
use dl::name::{DataRoleName, IndividualName, RoleName};
use dl::Concept;
use fourval::TruthValue;
use jsonio::Value;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasher, RandomState};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tableau::{Config, QueryEngine, ReasonerError};

/// Shard count for the registry — same rationale as
/// [`crate::cache::ShardedMap`]: a small power of two.
const REGISTRY_SHARDS: usize = 16;

/// How long a connection reader sleeps between shutdown-flag polls.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Longest request line a connection may send, in bytes, its newline
/// included. A longer one is answered with a `parse` error and the
/// connection is closed, so a client that never sends a newline cannot
/// grow server memory.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

// ---------------------------------------------------------------------
// Structural keys + the cross-tenant shared cache
// ---------------------------------------------------------------------

/// The content address of a module: its classical-image axioms,
/// serialized and sorted so the key is invariant under axiom order
/// (reorder invariance of verdicts is property-tested in
/// `tests/module_parity.rs`; end-to-end sharing parity in
/// `tests/serve_parity.rs`).
pub fn structural_key<'a>(images: impl IntoIterator<Item = &'a Axiom>) -> Arc<str> {
    let mut lines: Vec<String> = images.into_iter().map(|ax| format!("{ax:?}")).collect();
    lines.sort_unstable();
    Arc::from(lines.join("\n"))
}

/// Counter snapshot of a [`SharedModuleCache`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedCacheStats {
    pub engine_hits: u64,
    pub engine_misses: u64,
    pub horn_hits: u64,
    pub horn_misses: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub score_hits: u64,
    pub score_misses: u64,
    pub engines: usize,
    pub horn_programs: usize,
    pub rows: usize,
    pub scores: usize,
}

impl SharedCacheStats {
    /// Fraction of shared-cache lookups that hit, over the reasoning
    /// artifacts (engines, Horn programs, verdict rows). Hardness-score
    /// lookups are admission metadata and excluded so enabling lanes
    /// does not perturb the cache-efficiency signal.
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.engine_hits + self.horn_hits + self.row_hits;
        let total = hits + self.engine_misses + self.horn_misses + self.row_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Cross-tenant cache of per-module reasoning artifacts, content-
/// addressed by [`structural_key`].
///
/// Three maps, all sharded ([`ShardedMap`]):
///
/// * `engines` — built [`QueryEngine`]s per module key;
/// * `horn` — compiled Horn programs (or the memoized "not Horn"
///   verdict) per module key;
/// * `rows` — individual query verdicts per `(module key, probe)` pair,
///   so a repeat question about an identical module asked by a
///   *different* tenant is answered by a hash lookup.
///
/// Plus a fourth, `scores` — static [`crate::hardness`] scores per
/// module key, consumed by cost-aware lane admission. Content
/// addressing gives score invalidation for free: a mutated module has a
/// different key (the session's delta machinery already drops the
/// tenant-side entry), so a stale score is simply never looked up again.
///
/// Engines published here are built under the registry's one config and
/// carry no per-request state: a request's cancellation token and lane
/// budget are thread-local [`tableau::interrupt`] entries, which stop
/// its searches whichever engine they run on and never another
/// tenant's.
#[derive(Default)]
pub struct SharedModuleCache {
    pub(crate) engines: ShardedMap<Arc<str>, Arc<QueryEngine>>,
    /// `None` memoizes "this module is not Horn".
    pub(crate) horn: ShardedMap<Arc<str>, Option<Arc<HornProgram>>>,
    pub(crate) rows: ShardedMap<(Arc<str>, String), bool>,
    pub(crate) scores: ShardedMap<Arc<str>, f64>,
}

impl SharedModuleCache {
    /// Counter snapshot across all four maps.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            engine_hits: self.engines.hits(),
            engine_misses: self.engines.misses(),
            horn_hits: self.horn.hits(),
            horn_misses: self.horn.misses(),
            row_hits: self.rows.hits(),
            row_misses: self.rows.misses(),
            score_hits: self.scores.hits(),
            score_misses: self.scores.misses(),
            engines: self.engines.len(),
            horn_programs: self.horn.len(),
            rows: self.rows.len(),
            scores: self.scores.len(),
        }
    }
}

// ---------------------------------------------------------------------
// The sharded tenant registry
// ---------------------------------------------------------------------

/// Tenant ids mapped to [`Session`]s across `RwLock`-sharded maps, all
/// sessions wired to one [`SharedModuleCache`].
pub struct Registry {
    shards: Vec<RwLock<HashMap<String, Arc<RwLock<Session>>>>>,
    hasher: RandomState,
    shared: Arc<SharedModuleCache>,
    config: Config,
}

impl Registry {
    /// An empty registry whose sessions run under `config`.
    pub fn new(config: Config) -> Self {
        Registry {
            shards: (0..REGISTRY_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            hasher: RandomState::new(),
            shared: Arc::new(SharedModuleCache::default()),
            config,
        }
    }

    fn shard(&self, id: &str) -> &RwLock<HashMap<String, Arc<RwLock<Session>>>> {
        let h = self.hasher.hash_one(id);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Register a tenant over `kb`. Returns `false` (keeping the
    /// existing session) when the id is already taken.
    pub fn register(&self, id: &str, kb: &KnowledgeBase4) -> bool {
        let mut shard = write_lock(self.shard(id));
        if shard.contains_key(id) {
            return false;
        }
        let session = Session::with_shared(kb, self.config.clone(), Arc::clone(&self.shared));
        shard.insert(id.to_string(), Arc::new(RwLock::new(session)));
        true
    }

    /// Drop a tenant. Returns `false` when the id was unknown.
    pub fn remove(&self, id: &str) -> bool {
        write_lock(self.shard(id)).remove(id).is_some()
    }

    /// Is the tenant registered?
    pub fn contains(&self, id: &str) -> bool {
        read_lock(self.shard(id)).contains_key(id)
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_lock(s).len()).sum()
    }

    /// True when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All tenant ids, sorted.
    pub fn tenant_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| read_lock(s).keys().cloned().collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        ids
    }

    fn session(&self, id: &str) -> Option<Arc<RwLock<Session>>> {
        read_lock(self.shard(id)).get(id).map(Arc::clone)
    }

    /// Run `f` under the tenant's read lock (query verbs).
    pub fn read<R>(&self, id: &str, f: impl FnOnce(&Session) -> R) -> Option<R> {
        let slot = self.session(id)?;
        let guard = read_lock(&slot);
        Some(f(&guard))
    }

    /// Run `f` under the tenant's write lock (mutation verbs).
    pub fn write<R>(&self, id: &str, f: impl FnOnce(&mut Session) -> R) -> Option<R> {
        let slot = self.session(id)?;
        let mut guard = write_lock(&slot);
        Some(f(&mut guard))
    }

    /// The cross-tenant shared cache.
    pub fn shared(&self) -> &SharedModuleCache {
        &self.shared
    }

    /// The config every tenant session runs under.
    pub fn config(&self) -> &Config {
        &self.config
    }
}

// ---------------------------------------------------------------------
// Requests, errors, protocol execution
// ---------------------------------------------------------------------

/// Why a request was rejected or failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Load shedding: the admission queue was full.
    Overloaded { depth: usize },
    /// The server is shutting down.
    ShuttingDown,
    /// The selected tenant is not registered.
    UnknownTenant(String),
    /// No `tenant <id>` was issued on this connection yet.
    NoTenant,
    /// The request line failed to parse.
    Parse(String),
    /// The reasoner gave up (limits, budget or cancellation).
    Reasoning(ReasonerError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth } => {
                write!(f, "admission queue full ({depth} requests queued)")
            }
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::UnknownTenant(id) => write!(f, "unknown tenant {id:?}"),
            ServeError::NoTenant => write!(f, "no tenant selected (send `tenant <id>` first)"),
            ServeError::Parse(e) => write!(f, "parse error: {e}"),
            ServeError::Reasoning(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ReasonerError> for ServeError {
    fn from(e: ReasonerError) -> Self {
        ServeError::Reasoning(e)
    }
}

impl ServeError {
    /// The machine-readable `error` token of the JSON reply.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::ShuttingDown => "shutdown",
            ServeError::UnknownTenant(_) => "unknown-tenant",
            ServeError::NoTenant => "no-tenant",
            ServeError::Parse(_) => "parse",
            ServeError::Reasoning(ReasonerError::Cancelled) => "cancelled",
            ServeError::Reasoning(ReasonerError::TimeBudget(_)) => "budget",
            ServeError::Reasoning(_) => "limit",
        }
    }

    /// The JSON reply line for this error.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("ok", false.into()),
            ("error", self.code().into()),
            ("detail", self.to_string().into()),
        ])
    }
}

/// One protocol line for [`execute`]: the tenant it targets and the
/// data roles declared before it on its connection.
#[derive(Debug, Clone)]
pub struct Request {
    pub tenant: String,
    pub line: String,
    pub data_roles: BTreeSet<DataRoleName>,
}

/// Short wire token for a four-valued verdict.
pub fn truth_token(v: TruthValue) -> &'static str {
    match v {
        TruthValue::True => "t",
        TruthValue::False => "f",
        TruthValue::Both => "both",
        TruthValue::Neither => "neither",
    }
}

/// Execute one request line against the registry: parse it under the
/// request's data roles, then run it as a worker would. Connection-level
/// commands (`tenant`, `DataRole:`, `cancel`, `quit`) are rejected.
pub fn execute(registry: &Registry, req: &Request) -> Result<Value, ServeError> {
    let command = Command::parse(&req.line, &req.data_roles).map_err(ServeError::Parse)?;
    run(registry, &req.tenant, &command)
}

/// The worker-side half of the protocol: run an admitted command
/// against the tenant's session.
fn run(registry: &Registry, tenant: &str, command: &Command) -> Result<Value, ServeError> {
    let known = |r: Option<Result<Value, ServeError>>| {
        r.unwrap_or_else(|| Err(ServeError::UnknownTenant(tenant.to_string())))
    };
    let storage = |e: crate::incremental::SessionError| ServeError::Parse(e.to_string());
    match command {
        Command::Add(ax) => known(registry.write(tenant, |s| {
            s.add_axiom(ax.clone()).map_err(storage)?;
            Ok(Value::object([
                ("ok", true.into()),
                ("axioms", s.len().into()),
            ]))
        })),
        Command::Retract(ax) => known(registry.write(tenant, |s| {
            let removed = s.retract_axiom(ax).map_err(storage)?;
            Ok(Value::object([
                ("ok", true.into()),
                ("removed", removed.into()),
                ("axioms", s.len().into()),
            ]))
        })),
        Command::Query(..) | Command::Role(..) | Command::Entails(_) | Command::Check => {
            known(registry.read(tenant, |s| {
                let (key, value): (&str, Value) = match command {
                    Command::Query(a, c) => ("verdict", truth_token(s.query(a, c)?).into()),
                    Command::Role(r, a, b) => {
                        ("verdict", truth_token(s.query_role(r, a, b)?).into())
                    }
                    Command::Entails(ax) => ("entailed", s.entails(ax)?.into()),
                    _ => ("satisfiable", s.is_satisfiable()?.into()),
                };
                Ok(Value::object([("ok", true.into()), (key, value)]))
            }))
        }
        Command::Stats => {
            let shared = registry.shared().stats();
            known(registry.read(tenant, |s| {
                let t = s.stats();
                let tenant_lookups = t.entailment_cache_hits
                    + t.entailment_cache_misses
                    + t.engine_cache_hits
                    + t.engine_cache_misses;
                let tenant_hits = t.entailment_cache_hits + t.engine_cache_hits;
                let ratio = if tenant_lookups == 0 {
                    0.0
                } else {
                    tenant_hits as f64 / tenant_lookups as f64
                };
                Ok(Value::object([
                    ("ok", true.into()),
                    ("axioms", s.len().into()),
                    ("cache_hit_ratio", ratio.into()),
                    ("shared_module_hits", (t.shared_module_hits as i64).into()),
                    ("shared_row_hits", (t.shared_row_hits as i64).into()),
                    ("cancelled_searches", (t.cancelled as i64).into()),
                    ("shared_hit_ratio", shared.hit_ratio().into()),
                    ("shared_engines", shared.engines.into()),
                    ("shared_rows", shared.rows.into()),
                ]))
            }))
        }
        Command::DeclareDataRoles(_) | Command::Tenant(_) | Command::Cancel(_) | Command::Quit => {
            Err(ServeError::Parse(
                "connection verb sent as a request".into(),
            ))
        }
    }
}

/// Predict the hardness score of a request's target modules without
/// running any search ([`Session::predicted_hardness`]). Unknown tenants
/// score `0.0`, like mutations and `stats`: they run no search, so the
/// cheap lane is the right place for them.
fn predict_score(registry: &Registry, tenant: &str, command: &Command) -> f64 {
    registry
        .read(tenant, |s| s.predicted_hardness(command))
        .unwrap_or(0.0)
}

// ---------------------------------------------------------------------
// Admission control: bounded queue + worker pool
// ---------------------------------------------------------------------

struct Job {
    id: u64,
    tenant: String,
    command: Command,
    token: Arc<AtomicBool>,
    reply: mpsc::Sender<Value>,
    enqueued: Instant,
    /// Which lane admitted the job (stats attribution).
    heavy: bool,
    /// Lane wall-clock budget, installed with `token` when the job
    /// leaves the queue.
    budget: Option<Duration>,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Bounded MPMC job queue: `submit` sheds when full, `pop` blocks until
/// a job arrives or the queue closes.
struct Queue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
}

impl Queue {
    fn new(capacity: usize) -> Self {
        Queue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn submit(&self, job: Job) -> Result<(), ServeError> {
        let mut inner = lock_mutex(&self.inner);
        if inner.closed {
            return Err(ServeError::ShuttingDown);
        }
        if inner.jobs.len() >= self.capacity {
            return Err(ServeError::Overloaded {
                depth: inner.jobs.len(),
            });
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    fn pop(&self) -> Option<Job> {
        let mut inner = lock_mutex(&self.inner);
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = crate::cache::recover(self.ready.wait(inner));
        }
    }

    fn close(&self) {
        lock_mutex(&self.inner).closed = true;
        self.ready.notify_all();
    }
}

/// Admission/completion counters, all relaxed atomics (monitoring, not
/// synchronization).
#[derive(Default)]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub admitted: AtomicU64,
    /// Requests rejected because the queue was full.
    pub shed: AtomicU64,
    /// Requests that completed with an `ok` reply.
    pub completed: AtomicU64,
    /// Requests that ended in a reasoner error (limits or budget).
    pub failed: AtomicU64,
    /// Requests revoked by a cancellation token.
    pub cancelled: AtomicU64,
    /// Peak queue wait observed, in microseconds.
    pub peak_queue_wait_us: AtomicU64,
    /// Requests admitted into the cheap lane (equals `admitted` when
    /// lanes are off — every request is cheap then).
    pub cheap_admitted: AtomicU64,
    /// Requests admitted into the heavy lane.
    pub heavy_admitted: AtomicU64,
    /// Requests shed by the cheap lane's full queue.
    pub cheap_shed: AtomicU64,
    /// Requests shed by the heavy lane's full queue.
    pub heavy_shed: AtomicU64,
    /// Cheap-lane requests that completed with an `ok` reply.
    pub cheap_completed: AtomicU64,
    /// Heavy-lane requests that completed with an `ok` reply.
    pub heavy_completed: AtomicU64,
}

impl ServeStats {
    /// JSON snapshot (the `stats` protocol verb embeds the registry
    /// side; this is the server side, exposed on shutdown summaries).
    pub fn to_json(&self) -> Value {
        Value::object([
            (
                "admitted",
                (self.admitted.load(Ordering::Relaxed) as i64).into(),
            ),
            ("shed", (self.shed.load(Ordering::Relaxed) as i64).into()),
            (
                "completed",
                (self.completed.load(Ordering::Relaxed) as i64).into(),
            ),
            (
                "failed",
                (self.failed.load(Ordering::Relaxed) as i64).into(),
            ),
            (
                "cancelled",
                (self.cancelled.load(Ordering::Relaxed) as i64).into(),
            ),
            (
                "peak_queue_wait_us",
                (self.peak_queue_wait_us.load(Ordering::Relaxed) as i64).into(),
            ),
            (
                "cheap_admitted",
                (self.cheap_admitted.load(Ordering::Relaxed) as i64).into(),
            ),
            (
                "heavy_admitted",
                (self.heavy_admitted.load(Ordering::Relaxed) as i64).into(),
            ),
            (
                "cheap_shed",
                (self.cheap_shed.load(Ordering::Relaxed) as i64).into(),
            ),
            (
                "heavy_shed",
                (self.heavy_shed.load(Ordering::Relaxed) as i64).into(),
            ),
            (
                "cheap_completed",
                (self.cheap_completed.load(Ordering::Relaxed) as i64).into(),
            ),
            (
                "heavy_completed",
                (self.heavy_completed.load(Ordering::Relaxed) as i64).into(),
            ),
        ])
    }
}

/// Cost-aware lane configuration: how the heavy lane is provisioned
/// and where the cheap/heavy boundary sits.
#[derive(Debug, Clone)]
pub struct LaneOptions {
    /// Worker threads dedicated to the heavy lane.
    pub heavy_workers: usize,
    /// Heavy-lane queue capacity; a full heavy queue sheds (no
    /// spillover into the cheap lane — that would reintroduce exactly
    /// the head-of-line blocking lanes exist to prevent).
    pub heavy_queue_depth: usize,
    /// Optional wall-clock budget per heavy request, counted from when
    /// a heavy worker picks the request up and installed with its
    /// cancellation token ([`tableau::interrupt`]), so every search of
    /// the request stops with the usual `budget` error once it passes.
    /// `None` leaves heavy requests under the registry config's own
    /// `time_budget` alone — required for verdict parity with lanes
    /// off.
    pub heavy_budget: Option<Duration>,
    /// Requests whose predicted module score reaches this go heavy.
    pub threshold: f64,
}

impl Default for LaneOptions {
    fn default() -> Self {
        LaneOptions {
            heavy_workers: 2,
            heavy_queue_depth: 16,
            heavy_budget: None,
            threshold: hardness::DEFAULT_HEAVY_THRESHOLD,
        }
    }
}

/// Worker-pool sizing and queue depth.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads executing admitted requests.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed.
    pub queue_depth: usize,
    /// Cost-aware admission lanes; `None` (the default) keeps the
    /// single-queue behavior, byte-identical to before lanes existed.
    pub lanes: Option<LaneOptions>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            queue_depth: 64,
            lanes: None,
        }
    }
}

// ---------------------------------------------------------------------
// The TCP server
// ---------------------------------------------------------------------

/// One in-flight request: who it belongs to and how to revoke it.
struct InflightEntry {
    tenant: String,
    token: Arc<AtomicBool>,
}

type Inflight = Mutex<HashMap<u64, InflightEntry>>;

/// A line-protocol TCP server over a [`Registry`].
///
/// `bind` spawns the acceptor and worker pool and returns immediately;
/// [`Server::shutdown`] (or drop) revokes in-flight work, closes the
/// queue and joins every thread.
pub struct Server {
    addr: SocketAddr,
    registry: Arc<Registry>,
    stats: Arc<ServeStats>,
    queue: Arc<Queue>,
    heavy_queue: Option<Arc<Queue>>,
    shutdown: Arc<AtomicBool>,
    inflight: Arc<Inflight>,
    conns: Arc<AtomicUsize>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `registry`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<Registry>,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServeStats::default());
        let queue = Arc::new(Queue::new(opts.queue_depth));
        let shutdown = Arc::new(AtomicBool::new(false));
        let inflight: Arc<Inflight> = Arc::new(Mutex::new(HashMap::new()));
        let next_id = Arc::new(AtomicU64::new(0));
        let conns = Arc::new(AtomicUsize::new(0));

        let heavy_queue = opts
            .lanes
            .as_ref()
            .map(|l| Arc::new(Queue::new(l.heavy_queue_depth)));

        let spawn_worker = |queue: &Arc<Queue>| {
            let queue = Arc::clone(queue);
            let registry = Arc::clone(&registry);
            let stats = Arc::clone(&stats);
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || worker_loop(&queue, &registry, &stats, &inflight))
        };
        let mut workers: Vec<JoinHandle<()>> = (0..opts.workers.max(1))
            .map(|_| spawn_worker(&queue))
            .collect();
        if let (Some(lanes), Some(hq)) = (&opts.lanes, &heavy_queue) {
            workers.extend((0..lanes.heavy_workers.max(1)).map(|_| spawn_worker(hq)));
        }

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let queue = Arc::clone(&queue);
            let heavy_queue = heavy_queue.clone();
            let lanes = opts.lanes.clone();
            let stats = Arc::clone(&stats);
            let registry = Arc::clone(&registry);
            let inflight = Arc::clone(&inflight);
            let next_id = Arc::clone(&next_id);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // One request and one reply per round trip:
                            // Nagle buys nothing and its interaction
                            // with delayed ACKs costs tens of ms per
                            // reply, dwarfing the reasoning time.
                            let _ = stream.set_nodelay(true);
                            conns.fetch_add(1, Ordering::Relaxed);
                            let ctx = ConnCtx {
                                queue: Arc::clone(&queue),
                                heavy_queue: heavy_queue.clone(),
                                lanes: lanes.clone(),
                                stats: Arc::clone(&stats),
                                registry: Arc::clone(&registry),
                                inflight: Arc::clone(&inflight),
                                next_id: Arc::clone(&next_id),
                                shutdown: Arc::clone(&shutdown),
                                conns: Arc::clone(&conns),
                            };
                            std::thread::spawn(move || {
                                let counter = Arc::clone(&ctx.conns);
                                let _ = handle_conn(stream, &ctx);
                                counter.fetch_sub(1, Ordering::Relaxed);
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL_INTERVAL);
                        }
                        Err(_) => std::thread::sleep(POLL_INTERVAL),
                    }
                }
            })
        };

        Ok(Server {
            addr,
            registry,
            stats,
            queue,
            heavy_queue,
            shutdown,
            inflight,
            conns,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (the chosen port when binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry this server fronts.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Admission counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Raise the cancellation token of every in-flight request of
    /// `tenant`; returns how many were revoked. The searches observe
    /// the token at the next `check_limits` poll and return
    /// [`ReasonerError::Cancelled`].
    pub fn cancel_tenant(&self, tenant: &str) -> usize {
        cancel_tenant_inflight(&self.inflight, tenant)
    }

    /// Stop accepting, revoke all in-flight work, drain the pool and
    /// join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::Relaxed) {
            return;
        }
        for entry in lock_mutex(&self.inflight).values() {
            entry.token.store(true, Ordering::Relaxed);
        }
        self.queue.close();
        if let Some(hq) = &self.heavy_queue {
            hq.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Connection readers notice the flag at their next poll; give
        // them a bounded grace period rather than joining detached
        // threads.
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.conns.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

struct ConnCtx {
    queue: Arc<Queue>,
    heavy_queue: Option<Arc<Queue>>,
    lanes: Option<LaneOptions>,
    stats: Arc<ServeStats>,
    registry: Arc<Registry>,
    inflight: Arc<Inflight>,
    next_id: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    conns: Arc<AtomicUsize>,
}

fn worker_loop(queue: &Queue, registry: &Registry, stats: &ServeStats, inflight: &Inflight) {
    while let Some(job) = queue.pop() {
        let wait = job.enqueued.elapsed().as_micros() as u64;
        stats.peak_queue_wait_us.fetch_max(wait, Ordering::Relaxed);
        let reply = if job.token.load(Ordering::Relaxed) {
            // Revoked while still queued: never touch the reasoner.
            Err(ServeError::Reasoning(ReasonerError::Cancelled))
        } else {
            // The lane budget covers execution, not queue wait: it
            // starts only now, as the job leaves the queue.
            let _guard = tableau::interrupt::install(Arc::clone(&job.token), job.budget);
            run(registry, &job.tenant, &job.command)
        };
        match &reply {
            Ok(_) => {
                stats.completed.fetch_add(1, Ordering::Relaxed);
                if job.heavy {
                    stats.heavy_completed.fetch_add(1, Ordering::Relaxed);
                } else {
                    stats.cheap_completed.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(ServeError::Reasoning(ReasonerError::Cancelled)) => {
                stats.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                stats.failed.fetch_add(1, Ordering::Relaxed);
            }
        };
        lock_mutex(inflight).remove(&job.id);
        let value = reply.unwrap_or_else(|e| e.to_json());
        let _ = job.reply.send(value);
    }
}

fn write_reply(stream: &mut TcpStream, value: &Value) -> std::io::Result<()> {
    // One write_all per reply: `writeln!` straight into the socket
    // would emit the JSON and the terminator as separate segments, and
    // the client cannot act until the last one lands.
    stream.write_all(format!("{value}\n").as_bytes())
}

fn handle_conn(stream: TcpStream, ctx: &ConnCtx) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut tenant: Option<String> = None;
    let mut data_roles: BTreeSet<DataRoleName> = BTreeSet::new();
    let mut line = Vec::new();
    loop {
        // Never buffer past the cap: a line that fills it without a
        // newline is over-long.
        let room = (MAX_LINE_BYTES - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return Ok(()), // client closed
            Ok(_) if line.ends_with(b"\n") => {}
            Ok(_) if line.len() < MAX_LINE_BYTES => continue, // torn read, keep accumulating
            Ok(_) => {
                let e = ServeError::Parse(format!("request line over {MAX_LINE_BYTES} bytes"));
                return write_reply(&mut writer, &e.to_json());
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if ctx.shutdown.load(Ordering::Relaxed) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        let raw = std::mem::take(&mut line);
        let Ok(text) = std::str::from_utf8(&raw) else {
            write_reply(
                &mut writer,
                &ServeError::Parse("request is not UTF-8".into()).to_json(),
            )?;
            continue;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // Connection-level commands execute inline; everything else is
        // admitted through the bounded queue.
        let command = match Command::parse(trimmed, &data_roles) {
            Ok(Command::DeclareDataRoles(names)) => {
                data_roles.extend(names);
                write_reply(&mut writer, &Value::object([("ok", true.into())]))?;
                continue;
            }
            Ok(Command::Quit) => {
                return write_reply(&mut writer, &Value::object([("ok", true.into())]));
            }
            Ok(Command::Tenant(id)) => {
                let created = ctx.registry.register(&id, &KnowledgeBase4::default());
                let reply = Value::object([
                    ("ok", true.into()),
                    ("tenant", id.as_str().into()),
                    ("created", created.into()),
                ]);
                tenant = Some(id);
                write_reply(&mut writer, &reply)?;
                continue;
            }
            Ok(Command::Cancel(target)) => {
                let reply = match target.as_deref().or(tenant.as_deref()) {
                    Some(t) => {
                        let revoked = cancel_tenant_inflight(&ctx.inflight, t);
                        Value::object([("ok", true.into()), ("revoked", revoked.into())])
                    }
                    None => ServeError::NoTenant.to_json(),
                };
                write_reply(&mut writer, &reply)?;
                continue;
            }
            Ok(command) => command,
            Err(e) => {
                write_reply(&mut writer, &ServeError::Parse(e).to_json())?;
                continue;
            }
        };
        let Some(tenant_id) = tenant.clone() else {
            write_reply(&mut writer, &ServeError::NoTenant.to_json())?;
            continue;
        };
        // Cost-aware lane selection: static analysis only, no search.
        let heavy = ctx
            .lanes
            .as_ref()
            .is_some_and(|l| predict_score(&ctx.registry, &tenant_id, &command) >= l.threshold);
        let (queue, budget) = if heavy {
            (
                ctx.heavy_queue.as_deref().unwrap_or(&ctx.queue),
                ctx.lanes.as_ref().and_then(|l| l.heavy_budget),
            )
        } else {
            (&*ctx.queue, None)
        };
        let (tx, rx) = mpsc::channel();
        let id = ctx.next_id.fetch_add(1, Ordering::Relaxed);
        let token = Arc::new(AtomicBool::new(false));
        lock_mutex(&ctx.inflight).insert(
            id,
            InflightEntry {
                tenant: tenant_id.clone(),
                token: Arc::clone(&token),
            },
        );
        let job = Job {
            id,
            tenant: tenant_id,
            command,
            token,
            reply: tx,
            enqueued: Instant::now(),
            heavy,
            budget,
        };
        match queue.submit(job) {
            Ok(()) => {
                ctx.stats.admitted.fetch_add(1, Ordering::Relaxed);
                if heavy {
                    ctx.stats.heavy_admitted.fetch_add(1, Ordering::Relaxed);
                } else {
                    ctx.stats.cheap_admitted.fetch_add(1, Ordering::Relaxed);
                }
                match rx.recv() {
                    Ok(value) => write_reply(&mut writer, &value)?,
                    // Worker pool died mid-request (shutdown drained us).
                    Err(_) => write_reply(&mut writer, &ServeError::ShuttingDown.to_json())?,
                }
            }
            Err(e) => {
                lock_mutex(&ctx.inflight).remove(&id);
                if matches!(e, ServeError::Overloaded { .. }) {
                    ctx.stats.shed.fetch_add(1, Ordering::Relaxed);
                    if heavy {
                        ctx.stats.heavy_shed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        ctx.stats.cheap_shed.fetch_add(1, Ordering::Relaxed);
                    }
                }
                write_reply(&mut writer, &e.to_json())?;
            }
        }
    }
}

fn cancel_tenant_inflight(inflight: &Inflight, tenant: &str) -> usize {
    let guard = lock_mutex(inflight);
    let mut revoked = 0;
    for entry in guard.values() {
        if entry.tenant == tenant {
            entry.token.store(true, Ordering::Relaxed);
            revoked += 1;
        }
    }
    revoked
}

/// A deterministic budget-exhausting KB: an `∃`-doubling tree whose
/// level-distinct concepts defeat pairwise blocking for `depth` levels,
/// so a consistency search explores up to `2^depth` nodes and only a
/// limit, the time budget or a cancellation token stops it. Used by the
/// hostile-tenant scenarios in `tests/serve_parity.rs`, this module's
/// cancellation tests and the `hardness_lanes` bench.
pub fn hostile_kb(depth: usize) -> KnowledgeBase4 {
    let mut axioms = Vec::new();
    let (r, s) = (RoleName::new("hr"), RoleName::new("hs"));
    for i in 0..depth {
        let here = Concept::atomic(format!("HL{i}"));
        let next = Concept::atomic(format!("HL{}", i + 1));
        // The trailing `≤` restriction is semantically inert (no `hq`
        // successor ever exists) but makes the axiom *never* `⊤`-local
        // — number restrictions are conservatively global — so module
        // scoping cannot drop the tree from any of this tenant's
        // probes, and its `∃`-heavy shape is rejected by the Horn
        // classifier. Every query against this tenant therefore really
        // runs the diverging tableau.
        let both = Concept::some(RoleExpr::named(r.clone()), next.clone())
            .and(Concept::some(RoleExpr::named(s.clone()), next))
            .and(Concept::at_most(3, RoleExpr::named(RoleName::new("hq"))));
        axioms.push(Axiom4::ConceptInclusion(
            crate::inclusion::InclusionKind::Internal,
            here,
            both,
        ));
    }
    axioms.push(Axiom4::ConceptAssertion(
        IndividualName::new("hostile"),
        Concept::atomic("HL0"),
    ));
    KnowledgeBase4::from_axioms(axioms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_kb4;
    use std::io::BufRead;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn serving_types_are_shareable() {
        assert_send_sync::<Registry>();
        assert_send_sync::<SharedModuleCache>();
        assert_send_sync::<Session>();
        assert_send_sync::<ServeStats>();
    }

    #[test]
    fn structural_key_is_order_invariant() {
        let kb = parse_kb4("A SubClassOf B\nB SubClassOf C\nx : A").expect("parse");
        let fwd: Vec<Axiom> = crate::transform::transform_kb(&kb).axioms().to_vec();
        let mut rev = fwd.clone();
        rev.reverse();
        assert_eq!(structural_key(fwd.iter()), structural_key(rev.iter()));
        let other = parse_kb4("A SubClassOf B\nx : A").expect("parse");
        let other: Vec<Axiom> = crate::transform::transform_kb(&other).axioms().to_vec();
        assert_ne!(structural_key(fwd.iter()), structural_key(other.iter()));
    }

    fn fleet_registry(tenants: usize) -> Registry {
        let registry = Registry::new(Config::default());
        let kb = parse_kb4(
            "CoreA SubClassOf CoreB
             CoreB SubClassOf CoreC
             corex : CoreA
             corex : not CoreC",
        )
        .expect("parse");
        for t in 0..tenants {
            assert!(registry.register(&format!("t{t}"), &kb));
        }
        registry
    }

    #[test]
    fn identical_modules_share_one_cache_entry() {
        let registry = fleet_registry(4);
        let a = IndividualName::new("corex");
        // A compound concept: atomic probes are answered by the told
        // fast path and would never exercise the module caches.
        let c = Concept::atomic("CoreA").and(Concept::atomic("CoreC"));
        let mut verdicts = Vec::new();
        for t in 0..4 {
            let v = registry
                .read(&format!("t{t}"), |s| s.query(&a, &c))
                .expect("tenant registered")
                .expect("within limits");
            verdicts.push(v);
        }
        assert!(verdicts.windows(2).all(|w| w[0] == w[1]));
        let shared = registry.shared().stats();
        assert!(
            shared.engine_hits + shared.horn_hits + shared.row_hits >= 3,
            "later tenants must adopt the first tenant's artifacts: {shared:?}"
        );
        // Per-tenant counters tell the same story from the other side.
        let adopted: u64 = (1..4)
            .map(|t| {
                registry
                    .read(&format!("t{t}"), |s| s.stats())
                    .expect("registered")
            })
            .map(|s| s.shared_module_hits + s.shared_row_hits)
            .sum();
        assert!(adopted >= 3, "tenants 1..4 each adopt shared state");
    }

    #[test]
    fn mutated_tenant_diverges_from_shared_entries_safely() {
        let registry = fleet_registry(2);
        let a = IndividualName::new("corex");
        let b = Concept::atomic("CoreA").and(Concept::atomic("CoreB"));
        let before = registry
            .read("t0", |s| s.query(&a, &b))
            .expect("registered")
            .expect("limits");
        // t1 retracts the membership: its module changes content, hence
        // key, so t0's shared entries must keep answering unchanged.
        registry
            .write("t1", |s| {
                s.retract_axiom(&Axiom4::ConceptAssertion(
                    a.clone(),
                    Concept::atomic("CoreA"),
                ))
            })
            .expect("registered")
            .expect("in-memory retract");
        let t1 = registry
            .read("t1", |s| s.query(&a, &b))
            .expect("registered")
            .expect("limits");
        let t0 = registry
            .read("t0", |s| s.query(&a, &b))
            .expect("registered")
            .expect("limits");
        assert_eq!(t0, before, "unmutated tenant unaffected by t1's retract");
        assert_ne!(t1, before, "retract changes t1's verdict");
    }

    #[test]
    fn queue_sheds_when_full_and_closes_cleanly() {
        let q = Queue::new(1);
        let (tx, _rx) = mpsc::channel();
        let mk = |id| Job {
            id,
            tenant: "t".into(),
            command: Command::Check,
            token: Arc::new(AtomicBool::new(false)),
            reply: tx.clone(),
            enqueued: Instant::now(),
            heavy: false,
            budget: None,
        };
        assert!(q.submit(mk(0)).is_ok());
        assert!(matches!(
            q.submit(mk(1)),
            Err(ServeError::Overloaded { depth: 1 })
        ));
        assert!(q.pop().is_some());
        q.close();
        assert!(matches!(q.submit(mk(2)), Err(ServeError::ShuttingDown)));
        assert!(q.pop().is_none());
    }

    /// Scripted-interleaving check for the queue's blocking hand-off.
    /// The CI miri job runs every test whose name contains
    /// `interleave`, so the round count scales down under the
    /// interpreter; natively the rounds sweep enough schedules that a
    /// lost notify or a double-pop would show up as a hang or a
    /// duplicated id.
    #[test]
    fn interleaved_submit_pop_close_neither_loses_nor_duplicates() {
        use std::sync::mpsc::Sender;

        const ROUNDS: usize = if cfg!(miri) { 3 } else { 50 };
        const PER_PRODUCER: u64 = if cfg!(miri) { 4 } else { 64 };
        for _ in 0..ROUNDS {
            let q = Queue::new(4);
            let (tx, _rx) = mpsc::channel();
            let mk = |id: u64, tx: &Sender<_>| Job {
                id,
                tenant: "t".into(),
                command: Command::Check,
                token: Arc::new(AtomicBool::new(false)),
                reply: tx.clone(),
                enqueued: Instant::now(),
                heavy: false,
                budget: None,
            };
            let accepted = Mutex::new(Vec::new());
            let popped = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for p in 0..2u64 {
                    let (q, accepted, tx) = (&q, &accepted, &tx);
                    scope.spawn(move || {
                        for i in 0..PER_PRODUCER {
                            let id = p * PER_PRODUCER + i;
                            // Retry shed submissions: consumers drain
                            // concurrently, so capacity reopens.
                            loop {
                                match q.submit(mk(id, tx)) {
                                    Ok(()) => break,
                                    Err(ServeError::Overloaded { .. }) => {
                                        std::thread::yield_now();
                                    }
                                    Err(e) => panic!("unexpected submit error: {e:?}"),
                                }
                            }
                        }
                        crate::cache::lock_mutex(accepted)
                            .extend((0..PER_PRODUCER).map(|i| p * PER_PRODUCER + i));
                    });
                }
                for _ in 0..2 {
                    let (q, popped) = (&q, &popped);
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        // Blocking pops until close; None only after
                        // the queue is closed AND drained.
                        while let Some(job) = q.pop() {
                            got.push(job.id);
                        }
                        crate::cache::lock_mutex(popped).extend(got);
                    });
                }
                // Close only after every producer is done: wait until
                // all ids have been accepted, then close to release
                // the (possibly blocked) consumers.
                loop {
                    if crate::cache::lock_mutex(&accepted).len() == 2 * PER_PRODUCER as usize {
                        break;
                    }
                    std::thread::yield_now();
                }
                q.close();
            });
            let mut accepted = crate::cache::lock_mutex(&accepted).clone();
            let mut popped = crate::cache::lock_mutex(&popped).clone();
            accepted.sort_unstable();
            popped.sort_unstable();
            assert_eq!(accepted, popped, "jobs lost or duplicated across the queue");
        }
    }

    #[test]
    fn execute_runs_every_verb() {
        let registry = Registry::new(Config::default());
        registry.register("t", &parse_kb4("A SubClassOf B\nx : A").expect("parse"));
        let req = |line: &str| Request {
            tenant: "t".into(),
            line: line.into(),
            data_roles: BTreeSet::new(),
        };
        let v = execute(&registry, &req("query x B")).expect("query");
        assert_eq!(v.get("verdict").and_then(Value::as_str), Some("t"));
        let v = execute(&registry, &req("check")).expect("check");
        assert_eq!(v.get("satisfiable").and_then(Value::as_bool), Some(true));
        let v = execute(&registry, &req("entails A SubClassOf B")).expect("entails");
        assert_eq!(v.get("entailed").and_then(Value::as_bool), Some(true));
        let v = execute(&registry, &req("add y : A")).expect("add");
        assert_eq!(v.get("axioms").and_then(Value::as_i64), Some(3));
        let v = execute(&registry, &req("query y B")).expect("query after add");
        assert_eq!(v.get("verdict").and_then(Value::as_str), Some("t"));
        let v = execute(&registry, &req("retract y : A")).expect("retract");
        assert_eq!(v.get("removed").and_then(Value::as_bool), Some(true));
        let v = execute(&registry, &req("role r x y")).expect("role");
        assert_eq!(v.get("verdict").and_then(Value::as_str), Some("neither"));
        let v = execute(&registry, &req("stats")).expect("stats");
        assert!(v.get("cache_hit_ratio").and_then(Value::as_f64).is_some());
        assert!(matches!(
            execute(&registry, &req("frobnicate")),
            Err(ServeError::Parse(_))
        ));
        assert!(matches!(
            execute(
                &registry,
                &Request {
                    tenant: "nope".into(),
                    line: "check".into(),
                    data_roles: BTreeSet::new(),
                }
            ),
            Err(ServeError::UnknownTenant(_))
        ));
    }

    #[test]
    fn server_roundtrip_on_ephemeral_port() {
        let registry = Arc::new(Registry::new(Config::default()));
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServeOptions::default(),
        )
        .expect("bind");
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut ask = |line: &str| -> Value {
            writeln!(writer, "{line}").expect("send");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply");
            Value::parse(&reply).expect("json reply")
        };
        assert_eq!(
            ask("check").get("error").and_then(Value::as_str),
            Some("no-tenant")
        );
        assert_eq!(
            ask("tenant demo").get("created").and_then(Value::as_bool),
            Some(true)
        );
        ask("add Penguin SubClassOf Bird");
        ask("add tweety : Penguin");
        assert_eq!(
            ask("query tweety Bird")
                .get("verdict")
                .and_then(Value::as_str),
            Some("t")
        );
        assert_eq!(ask("quit").get("ok").and_then(Value::as_bool), Some(true));
        assert!(server.stats().admitted.load(Ordering::Relaxed) >= 3);
        server.shutdown();
    }

    #[test]
    fn over_long_line_is_refused_and_the_server_keeps_serving() {
        let registry = Arc::new(Registry::new(Config::default()));
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServeOptions::default(),
        )
        .expect("bind");
        let addr = server.local_addr();
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        // A full cap's worth of bytes and no newline.
        writer.write_all(&vec![b'a'; MAX_LINE_BYTES]).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        let reply = Value::parse(&reply).expect("json reply");
        assert_eq!(reply.get("error").and_then(Value::as_str), Some("parse"));
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("eof"), 0, "not closed");
        // Another client is still served, after a line that is not UTF-8.
        let stream = TcpStream::connect(addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer.write_all(b"\xff\n").expect("send");
        writeln!(writer, "tenant t\nadd x : A\nquery x A").expect("send");
        let replies: Vec<Value> = (0..4)
            .map(|_| {
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("reply");
                Value::parse(&reply).expect("json reply")
            })
            .collect();
        assert_eq!(
            replies[0].get("error").and_then(Value::as_str),
            Some("parse")
        );
        assert_eq!(replies[3].get("verdict").and_then(Value::as_str), Some("t"));
        server.shutdown();
    }

    #[test]
    fn predict_score_separates_cheap_and_heavy_modules() {
        let registry = Registry::new(Config::default());
        registry.register("easy", &parse_kb4("A SubClassOf B\nx : A").expect("parse"));
        registry.register("hard", &hostile_kb(6));
        let score = |tenant: &str, line: &str| {
            let command = Command::parse(line, &BTreeSet::new()).expect("parses");
            predict_score(&registry, tenant, &command)
        };
        let easy = score("easy", "query x B");
        let hard = score("hard", "check");
        assert!(
            easy < hardness::DEFAULT_HEAVY_THRESHOLD,
            "Horn chain classified heavy: {easy}"
        );
        assert!(
            hard >= hardness::DEFAULT_HEAVY_THRESHOLD,
            "hostile ∃-tree classified cheap: {hard}"
        );
        // Mutations, stats and unknown tenants stay cheap.
        assert_eq!(score("hard", "add y : HL0"), 0.0);
        assert_eq!(score("hard", "stats"), 0.0);
        assert_eq!(score("nope", "check"), 0.0);
        // Repeat predictions are answered by the shared score cache.
        let again = score("hard", "check");
        assert_eq!(again, hard);
        assert!(registry.shared().stats().scores >= 1);
    }

    #[test]
    fn lanes_route_heavy_requests_and_enforce_the_lane_budget() {
        let config = Config {
            max_nodes: usize::MAX,
            max_rule_applications: u64::MAX,
            time_budget: Some(Duration::from_secs(20)), // backstop only
            ..Config::default()
        };
        let registry = Arc::new(Registry::new(config));
        registry.register("evil", &hostile_kb(40));
        registry.register("nice", &parse_kb4("A SubClassOf B\nx : A").expect("parse"));
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServeOptions {
                lanes: Some(LaneOptions {
                    heavy_budget: Some(Duration::from_millis(80)),
                    ..LaneOptions::default()
                }),
                ..ServeOptions::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr();
        let roundtrip = |lines: &[&str]| -> Vec<Value> {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            lines
                .iter()
                .map(|line| {
                    writeln!(writer, "{line}").expect("send");
                    let mut reply = String::new();
                    reader.read_line(&mut reply).expect("reply");
                    Value::parse(&reply).expect("json reply")
                })
                .collect()
        };
        let started = Instant::now();
        let evil = roundtrip(&["tenant evil", "check"]);
        assert_eq!(
            evil[1].get("error").and_then(Value::as_str),
            Some("budget"),
            "heavy lane budget not enforced: {:?}",
            evil[1]
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "lane budget must preempt the 20s backstop"
        );
        let nice = roundtrip(&["tenant nice", "query x B"]);
        assert_eq!(nice[1].get("verdict").and_then(Value::as_str), Some("t"));
        assert!(server.stats().heavy_admitted.load(Ordering::Relaxed) >= 1);
        assert!(server.stats().cheap_admitted.load(Ordering::Relaxed) >= 1);
        assert!(server.stats().cheap_completed.load(Ordering::Relaxed) >= 1);
        server.shutdown();
    }

    #[test]
    fn cancel_tenant_revokes_a_running_hostile_request() {
        let config = Config {
            max_nodes: usize::MAX,
            max_rule_applications: u64::MAX,
            time_budget: Some(Duration::from_secs(20)), // backstop only
            ..Config::default()
        };
        let registry = Arc::new(Registry::new(config));
        registry.register("evil", &hostile_kb(40));
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServeOptions::default(),
        )
        .expect("bind");
        let addr = server.local_addr();
        let client = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();
            writeln!(writer, "tenant evil").expect("send");
            reader.read_line(&mut reply).expect("tenant reply");
            reply.clear();
            let started = Instant::now();
            writeln!(writer, "check").expect("send");
            reader.read_line(&mut reply).expect("check reply");
            (Value::parse(&reply).expect("json"), started.elapsed())
        });
        // Let the hostile search start, then revoke it.
        let mut revoked = 0;
        for _ in 0..100 {
            std::thread::sleep(Duration::from_millis(20));
            revoked = server.cancel_tenant("evil");
            if revoked > 0 {
                break;
            }
        }
        assert!(revoked > 0, "the hostile request never became in-flight");
        let (reply, elapsed) = client.join().expect("client");
        assert_eq!(
            reply.get("error").and_then(Value::as_str),
            Some("cancelled")
        );
        assert!(
            elapsed < Duration::from_secs(10),
            "cancellation must preempt the 20s budget, took {elapsed:?}"
        );
        assert!(server.stats().cancelled.load(Ordering::Relaxed) >= 1);
        server.shutdown();
    }
}
