//! Incremental reasoning sessions: mutable knowledge bases with
//! delta-driven, module-granular cache invalidation and (optionally)
//! write-ahead-logged durability.
//!
//! Every other entry point in this crate rebuilds the world on any KB
//! change: [`crate::Reasoner4`] is constructed from an immutable
//! [`KnowledgeBase4`], so one added or retracted axiom throws away the
//! told index, the per-module engines, the compiled Horn programs and
//! the entailment cache. A [`Session`] keeps them: on mutation it
//! computes the delta's signature atoms ([`crate::dataflow`]), updates
//! the dependency graph in place, and invalidates **only** the state
//! the delta can actually reach.
//!
//! # What survives a delta, and why that is sound
//!
//! The session's caches are all keyed by the extracted `⊤`-locality
//! module of the query seed (a `BTreeSet` of axiom slot ids). Slots are
//! *tombstoned*: a retracted axiom keeps its slot id with empty
//! classical images, which makes it vacuously `⊤`-local — it can never
//! again enter a module, and every surviving module key stays valid.
//! Once tombstones outnumber both the live slots and a small floor, the
//! session compacts: it renumbers the live slots in order and re-keys
//! every cached module to match, so each keeps its engine, Horn program
//! and entailment keys, and the store never exceeds twice the live
//! slots plus the floor.
//!
//! * **Add** of axiom `δ`: a cached module `(M, Σ)` is dirty iff some
//!   classical image of `δ` fails `⊤`-locality w.r.t. `Σ`
//!   ([`crate::dataflow::axiom_local`]). If every image is `Σ`-local it
//!   is also local w.r.t. every *intermediate* signature of a fresh
//!   re-extraction (locality reads only `Σ ∩ atoms(δ)` and is
//!   anti-monotone in `Σ`), so the fixpoint re-run admits exactly the
//!   old members — the cached engine, Horn program, and every
//!   entailment answered through `M` are still exact. Never-local
//!   axioms (`≠`, nominal assertions, negative role assertions) fail
//!   the test against *every* signature and so dirty every module,
//!   which is precisely right: they join every extraction. When several
//!   seeds extract the *same* axiom set and share one cache entry, `Σ`
//!   is the union of their closed signatures — locality w.r.t. the
//!   union implies locality w.r.t. each (anti-monotonicity again), so
//!   the shared test can only over-invalidate, never spare a stale
//!   module.
//! * **Retract** of slot `i`: a module is dirty iff `i ∈ M`. A module
//!   that never admitted `i` ran its whole fixpoint without `i`
//!   influencing any admission, so removing `i` re-runs identically.
//!
//! Neither test scans the cache. Locality reads `Σ` only through the
//! added slot's own atoms, so only the modules whose `Σ` shares one of
//! them can fail it, and the pipeline indexes its modules by `Σ`-atom;
//! a never-local slot dirties every module. A member's atoms lie in
//! `sig(M) ⊆ Σ(M)`, so the modules holding a retracted slot are all
//! indexed under any one of its atoms.
//!
//! Each entailment-cache entry is recorded by the module that answered
//! it and leaves the cache with that module. Told-index rows are maintained by
//! [`crate::told::ToldIndex::note_added`] and
//! [`crate::told::ToldIndex::note_retracted`] (an equality merge
//! rebuilds the index — the class partition itself moved).
//!
//! # Durability
//!
//! [`Session::open`] adds a write-ahead log: one text line per
//! mutation (`add <axiom>` / `retract <axiom>`, plus `decl DataRole: …`
//! lines, in the [`crate::command`] grammar, so the log is
//! human-readable and replays through the request parser), a periodic
//! binary snapshot in a `DLK4` format framed with the [`dl::snapshot`]
//! wire primitives, and replay-on-open recovery. A
//! mutation is committed once its newline reaches the file; on reopen,
//! a partial final line (the torn write of a crash) is dropped and
//! truncated away, while a malformed *committed* line is reported as
//! [`SessionError::Corrupt`] rather than silently skipped.

use crate::command::Command;
use crate::inclusion::InclusionKind;
use crate::kb4::{Axiom4, KnowledgeBase4};
use crate::pipeline::{Delta, Pipeline};
use crate::printer4::write_axiom4;
use crate::serve::SharedModuleCache;
use dl::name::{DataRoleName, IndividualName, RoleName};
use dl::snapshot::{self as wire, SnapshotError};
use dl::Concept;
use fourval::TruthValue;
use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tableau::{Config, ReasonerError, Stats};

/// WAL file name inside a session directory.
pub const WAL_FILE: &str = "session.wal";
/// Snapshot file name inside a session directory.
pub const SNAPSHOT_FILE: &str = "session.snap";
/// First line of every WAL file.
const WAL_HEADER: &str = "# shoin4 session wal v1";
/// Default mutations-per-snapshot compaction period for [`Session::open`].
pub const DEFAULT_SNAPSHOT_EVERY: usize = 256;
/// Tombstones a session always tolerates: below this many, an
/// in-memory compaction would cost more than the slots it frees.
const COMPACT_FLOOR: usize = 64;

/// Failures of the durable session machinery. Reasoning failures keep
/// their own type ([`ReasonerError`]); this covers storage and replay.
#[derive(Debug)]
pub enum SessionError {
    /// Filesystem failure on the WAL or snapshot.
    Io(std::io::Error),
    /// A *committed* WAL line (newline present) failed to parse or
    /// replay — the log is damaged, not merely torn.
    Corrupt {
        /// 1-based line number in the WAL.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The binary snapshot failed to decode.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Io(e) => write!(f, "session io error: {e}"),
            SessionError::Corrupt { line, message } => {
                write!(f, "corrupt session wal at line {line}: {message}")
            }
            SessionError::Snapshot(e) => write!(f, "corrupt session snapshot: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<std::io::Error> for SessionError {
    fn from(e: std::io::Error) -> Self {
        SessionError::Io(e)
    }
}

impl From<SnapshotError> for SessionError {
    fn from(e: SnapshotError) -> Self {
        SessionError::Snapshot(e)
    }
}

/// A mutable four-valued knowledge base with incremental reasoning.
///
/// Mutation verbs ([`Session::add_axiom`], [`Session::retract_axiom`])
/// take `&mut self`; query verbs are [`crate::Reasoner4`]'s and take
/// `&self`. Queries run the pipeline `Reasoner4` runs, with every rung
/// on and every probe on its own module, and each mutation maintains
/// the pipeline's caches by the invalidation pass described in the
/// module docs.
pub struct Session {
    /// Tombstoned axiom store: `None` slots are retracted. Slot ids are
    /// stable between compactions (module keys index into this).
    slots: Vec<Option<Axiom4>>,
    live: usize,
    pipeline: Pipeline,
    /// Durability; `None` for in-memory sessions.
    wal: Option<Wal>,
    snapshot_every: usize,
    mutations_since_snapshot: usize,
}

impl Session {
    /// An in-memory session (no durability) over an initial KB.
    pub fn new(kb: &KnowledgeBase4, config: Config) -> Session {
        Self::from_axioms(kb.axioms().to_vec(), config, None)
    }

    /// An in-memory session wired to a cross-tenant
    /// [`SharedModuleCache`]: per-module engines, Horn programs and
    /// query verdict rows are looked up (and published) under the
    /// module's structural key, so identical modules across sessions
    /// hit one cache entry. Every session on one cache must run the
    /// same `config`, because a shared engine is built under the config
    /// of the session that first needs it (one
    /// [`crate::serve::Registry`] guarantees this).
    pub fn with_shared(
        kb: &KnowledgeBase4,
        config: Config,
        shared: Arc<SharedModuleCache>,
    ) -> Session {
        Self::from_axioms(kb.axioms().to_vec(), config, Some(shared))
    }

    fn from_axioms(
        axioms: Vec<Axiom4>,
        config: Config,
        shared: Option<Arc<SharedModuleCache>>,
    ) -> Session {
        let kb = KnowledgeBase4::from_axioms(axioms.iter().cloned());
        Session {
            pipeline: Pipeline::for_session(&kb, config, shared),
            live: axioms.len(),
            slots: axioms.into_iter().map(Some).collect(),
            wal: None,
            snapshot_every: 0,
            mutations_since_snapshot: 0,
        }
    }

    /// Open (or create) a durable session in `dir` with the default
    /// snapshot period. Replays `snapshot → WAL` on open; see
    /// [`Session::open_with`].
    pub fn open(dir: impl AsRef<Path>, config: Config) -> Result<Session, SessionError> {
        Self::open_with(dir, config, DEFAULT_SNAPSHOT_EVERY)
    }

    /// Open (or create) a durable session in `dir`, writing a binary
    /// snapshot and truncating the WAL every `snapshot_every` mutations
    /// (`0` disables compaction). Recovery: load the snapshot if
    /// present, replay every committed WAL line, drop a torn final line
    /// (no trailing newline), and fail loudly on a damaged committed
    /// line.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: Config,
        snapshot_every: usize,
    ) -> Result<Session, SessionError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        let base = if snap_path.exists() {
            decode_kb4(&std::fs::read(&snap_path)?)?
        } else {
            Vec::new()
        };
        let mut session = Self::from_axioms(base, config, None);

        let wal_path = dir.join(WAL_FILE);
        let mut declared: BTreeSet<DataRoleName> = BTreeSet::new();
        let mut replayed = 0usize;
        if wal_path.exists() {
            let bytes = std::fs::read(&wal_path)?;
            // A mutation is committed when its newline hit the disk; a
            // torn tail (no trailing newline) is dropped — even if it
            // happens to parse, it could be the prefix of a longer
            // statement, which must not replay as a different axiom.
            let committed = match bytes.iter().rposition(|&b| b == b'\n') {
                Some(last_nl) => &bytes[..=last_nl],
                None => &[][..],
            };
            let text = std::str::from_utf8(committed).map_err(|e| SessionError::Corrupt {
                line: 0,
                message: format!("non-UTF-8 committed bytes: {e}"),
            })?;
            for (lineno, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let corrupt = |message: String| SessionError::Corrupt {
                    line: lineno + 1,
                    message,
                };
                // Only a `decl `-prefixed line may declare, and only an
                // unprefixed one may mutate.
                let (decl, statement) = match line.strip_prefix("decl ") {
                    Some(statement) => (true, statement),
                    None => (false, line),
                };
                match Command::parse(statement, &declared)
                    .map_err(|e| corrupt(format!("bad statement {statement:?}: {e}")))?
                {
                    Command::DeclareDataRoles(names) if decl => declared.extend(names),
                    Command::Add(ax) if !decl => {
                        session.apply_add(ax);
                        replayed += 1;
                    }
                    Command::Retract(ax) if !decl => {
                        if session.apply_retract(&ax).is_none() {
                            return Err(corrupt(format!("retract of absent axiom {line:?}")));
                        }
                        replayed += 1;
                    }
                    _ => return Err(corrupt(format!("not a log statement: {line:?}"))),
                }
            }
            // Truncate the torn tail so appends continue from the last
            // committed line.
            if committed.len() < bytes.len() {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&wal_path)?
                    .set_len(committed.len() as u64)?;
            }
        }
        session.wal = Some(Wal::append_to(wal_path, declared)?);
        session.snapshot_every = snapshot_every;
        session.mutations_since_snapshot = replayed;
        session.maybe_snapshot()?;
        Ok(session)
    }

    /// Add an axiom. Durable sessions log it to the WAL first; the
    /// in-memory state then updates with module-granular invalidation.
    pub fn add_axiom(&mut self, ax: Axiom4) -> Result<(), SessionError> {
        if let Some(wal) = &mut self.wal {
            wal.append("add", &ax)?;
        }
        self.apply_add(ax);
        self.maybe_snapshot()
    }

    /// Retract one occurrence of an axiom (the most recently added live
    /// occurrence, so add-then-retract is an exact undo). Returns
    /// `false` — and logs nothing — when no live occurrence exists.
    pub fn retract_axiom(&mut self, ax: &Axiom4) -> Result<bool, SessionError> {
        let Some(id) = self.find_live(ax) else {
            return Ok(false);
        };
        if let Some(wal) = &mut self.wal {
            wal.append("retract", ax)?;
        }
        self.apply_retract_slot(id);
        self.maybe_snapshot()?;
        Ok(true)
    }

    fn find_live(&self, ax: &Axiom4) -> Option<usize> {
        self.slots.iter().rposition(|s| s.as_ref() == Some(ax))
    }

    fn apply_add(&mut self, ax: Axiom4) {
        let id = self.slots.len();
        self.slots.push(Some(ax));
        self.live += 1;
        let ax = self.slots[id].as_ref().expect("the slot was just pushed");
        self.pipeline.apply(Delta::Add(id), ax, &self.slots);
        self.mutations_since_snapshot += 1;
    }

    fn apply_retract(&mut self, ax: &Axiom4) -> Option<usize> {
        let id = self.find_live(ax)?;
        self.apply_retract_slot(id);
        Some(id)
    }

    /// Tombstone live slot `id`, then compact once tombstones outnumber
    /// both the live slots and [`COMPACT_FLOOR`], so the store never
    /// holds more than `2 × live + COMPACT_FLOOR` slots.
    fn apply_retract_slot(&mut self, id: usize) {
        let ax = self.slots[id].take().expect("retracts name live slots");
        self.live -= 1;
        self.pipeline.apply(Delta::Retract(id), &ax, &self.slots);
        self.mutations_since_snapshot += 1;
        if self.slots.len() - self.live > self.live.max(COMPACT_FLOOR) {
            self.compact();
        }
    }

    /// Drop every tombstone and renumber the live slots in order; the
    /// pipeline renumbers what it holds to match (see
    /// [`Pipeline::compact`]). Neither the WAL nor the snapshot names a
    /// slot id, so durable state is untouched.
    fn compact(&mut self) {
        self.pipeline.compact(&self.slots);
        self.slots.retain(Option::is_some);
    }

    fn maybe_snapshot(&mut self) -> Result<(), SessionError> {
        let Some(wal) = &mut self.wal else {
            return Ok(());
        };
        if self.snapshot_every == 0 || self.mutations_since_snapshot < self.snapshot_every {
            return Ok(());
        }
        let snap_path = wal.path.with_file_name(SNAPSHOT_FILE);
        let tmp = wal.path.with_file_name(format!("{SNAPSHOT_FILE}.tmp"));
        std::fs::write(&tmp, encode_kb4(self.slots.iter().flatten()))?;
        std::fs::rename(&tmp, &snap_path)?;
        wal.truncate()?;
        self.mutations_since_snapshot = 0;
        Ok(())
    }

    /// Materialize the current live KB (slot order, tombstones skipped).
    pub fn kb(&self) -> KnowledgeBase4 {
        KnowledgeBase4::from_axioms(self.slots.iter().flatten().cloned())
    }

    /// Number of live axioms.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the live KB empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Accumulated pipeline statistics: the session counters (mutations,
    /// invalidations, extraction and Horn work, retired engines) plus
    /// every live module engine and the entailment-cache counters.
    pub fn stats(&self) -> Stats {
        self.pipeline.stats()
    }

    /// Number of distinct modules currently cached.
    pub fn cached_modules(&self) -> usize {
        self.pipeline.cached_modules()
    }

    /// Predicted hardness of a command: the maximum static
    /// [`crate::hardness`] score over the modules its probes touch
    /// (`0.0` for commands that run no search). Pure analysis, cached
    /// per module, so admission control can afford it on every request.
    pub fn predicted_hardness(&self, command: &Command) -> f64 {
        self.pipeline.predicted_hardness(command)
    }

    /// Is the (current) four-valued KB satisfiable?
    pub fn is_satisfiable(&self) -> Result<bool, ReasonerError> {
        self.pipeline.is_satisfiable()
    }

    /// Is there information supporting `a : C`?
    pub fn has_positive_info(
        &self,
        a: &IndividualName,
        c: &Concept,
    ) -> Result<bool, ReasonerError> {
        self.pipeline.membership_info(a, c, false)
    }

    /// Is there information *against* `a : C`?
    pub fn has_negative_info(
        &self,
        a: &IndividualName,
        c: &Concept,
    ) -> Result<bool, ReasonerError> {
        self.pipeline.membership_info(a, c, true)
    }

    /// The four-valued answer about a membership.
    pub fn query(&self, a: &IndividualName, c: &Concept) -> Result<TruthValue, ReasonerError> {
        self.pipeline.query(a, c)
    }

    /// The four-valued answer about a role membership.
    pub fn query_role(
        &self,
        r: &RoleName,
        a: &IndividualName,
        b: &IndividualName,
    ) -> Result<TruthValue, ReasonerError> {
        self.pipeline.query_role(r, a, b)
    }

    /// Does the current KB four-valued-entail the axiom?
    pub fn entails(&self, ax: &Axiom4) -> Result<bool, ReasonerError> {
        self.pipeline.entails(ax)
    }
}

// Queries are `&self` over interior mutexes, so sessions can serve
// scoped worker threads just like `Reasoner4`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
};

/// The append-side of the write-ahead log.
struct Wal {
    path: PathBuf,
    file: std::fs::File,
    /// Data roles already declared in the current WAL generation —
    /// axiom statements mentioning datatype roles only re-parse under a
    /// `DataRole:` declaration, so the log carries its own.
    declared: BTreeSet<DataRoleName>,
    /// The line being appended, reused across appends.
    line: String,
}

impl Wal {
    fn append_to(path: PathBuf, declared: BTreeSet<DataRoleName>) -> Result<Wal, SessionError> {
        let fresh = !path.exists() || std::fs::metadata(&path)?.len() == 0;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        if fresh {
            writeln!(file, "{WAL_HEADER}")?;
        }
        Ok(Wal {
            path,
            file,
            declared,
            line: String::new(),
        })
    }

    fn append(&mut self, op: &str, ax: &Axiom4) -> Result<(), SessionError> {
        let fresh: Vec<DataRoleName> = data_roles(ax)
            .into_iter()
            .filter(|u| !self.declared.contains(u))
            .collect();
        let out = &mut self.line;
        out.clear();
        if !fresh.is_empty() {
            out.push_str("decl DataRole:");
            for u in &fresh {
                out.push(' ');
                out.push_str(u.as_str());
            }
            out.push('\n');
        }
        out.push_str(op);
        out.push(' ');
        write_axiom4(out, ax);
        out.push('\n');
        // One write per mutation: the line (with its newline) reaches
        // the OS atomically enough for process-crash recovery; the
        // replay side drops any torn tail.
        self.file.write_all(out.as_bytes())?;
        self.declared.extend(fresh);
        Ok(())
    }

    /// Start a fresh WAL generation (after a snapshot compaction).
    fn truncate(&mut self) -> Result<(), SessionError> {
        self.file.set_len(0)?;
        writeln!(self.file, "{WAL_HEADER}")?;
        self.declared.clear();
        Ok(())
    }
}

/// The datatype roles `ax` names: its statement re-parses only under a
/// `DataRole:` declaration of each.
fn data_roles(ax: &Axiom4) -> BTreeSet<DataRoleName> {
    match ax {
        Axiom4::ConceptInclusion(_, c, d) => {
            let mut roles = c.data_role_names();
            roles.extend(d.data_role_names());
            roles
        }
        Axiom4::ConceptAssertion(_, c) => c.data_role_names(),
        Axiom4::DataRoleInclusion(_, u, v) => BTreeSet::from([u.clone(), v.clone()]),
        Axiom4::DataAssertion(u, ..) => BTreeSet::from([u.clone()]),
        _ => BTreeSet::new(),
    }
}

// ----------------------------------------------------------------------
// Binary KB4 snapshots, framed with the `dl::snapshot` wire primitives.
// ----------------------------------------------------------------------

const KB4_MAGIC: &[u8; 4] = b"DLK4";
const KB4_VERSION: u8 = 1;

fn put_kind(buf: &mut Vec<u8>, kind: InclusionKind) {
    buf.push(match kind {
        InclusionKind::Material => 0,
        InclusionKind::Internal => 1,
        InclusionKind::Strong => 2,
    });
}

fn get_kind(buf: &mut &[u8]) -> Result<InclusionKind, SnapshotError> {
    match wire::get_u8(buf)? {
        0 => Ok(InclusionKind::Material),
        1 => Ok(InclusionKind::Internal),
        2 => Ok(InclusionKind::Strong),
        t => Err(SnapshotError::BadTag("inclusion kind", t)),
    }
}

/// Serialize a four-valued axiom sequence to the `DLK4` snapshot format.
pub fn encode_kb4<'a>(axioms: impl IntoIterator<Item = &'a Axiom4>) -> Vec<u8> {
    let axioms: Vec<&Axiom4> = axioms.into_iter().collect();
    let mut buf = Vec::with_capacity(64 + axioms.len() * 16);
    buf.extend_from_slice(KB4_MAGIC);
    buf.push(KB4_VERSION);
    wire::put_u32(&mut buf, axioms.len() as u32);
    for ax in axioms {
        match ax {
            Axiom4::ConceptInclusion(k, c, d) => {
                buf.push(0);
                put_kind(&mut buf, *k);
                wire::put_concept(&mut buf, c);
                wire::put_concept(&mut buf, d);
            }
            Axiom4::RoleInclusion(k, r, s) => {
                buf.push(1);
                put_kind(&mut buf, *k);
                wire::put_role(&mut buf, r);
                wire::put_role(&mut buf, s);
            }
            Axiom4::DataRoleInclusion(k, u, v) => {
                buf.push(2);
                put_kind(&mut buf, *k);
                wire::put_str(&mut buf, u.as_str());
                wire::put_str(&mut buf, v.as_str());
            }
            Axiom4::Transitive(r) => {
                buf.push(3);
                wire::put_str(&mut buf, r.as_str());
            }
            Axiom4::ConceptAssertion(a, c) => {
                buf.push(4);
                wire::put_str(&mut buf, a.as_str());
                wire::put_concept(&mut buf, c);
            }
            Axiom4::RoleAssertion(r, a, b) => {
                buf.push(5);
                wire::put_str(&mut buf, r.as_str());
                wire::put_str(&mut buf, a.as_str());
                wire::put_str(&mut buf, b.as_str());
            }
            Axiom4::NegativeRoleAssertion(r, a, b) => {
                buf.push(6);
                wire::put_str(&mut buf, r.as_str());
                wire::put_str(&mut buf, a.as_str());
                wire::put_str(&mut buf, b.as_str());
            }
            Axiom4::DataAssertion(u, a, v) => {
                buf.push(7);
                wire::put_str(&mut buf, u.as_str());
                wire::put_str(&mut buf, a.as_str());
                wire::put_value(&mut buf, v);
            }
            Axiom4::SameIndividual(a, b) => {
                buf.push(8);
                wire::put_str(&mut buf, a.as_str());
                wire::put_str(&mut buf, b.as_str());
            }
            Axiom4::DifferentIndividuals(a, b) => {
                buf.push(9);
                wire::put_str(&mut buf, a.as_str());
                wire::put_str(&mut buf, b.as_str());
            }
        }
    }
    buf
}

/// Deserialize a `DLK4` snapshot.
pub fn decode_kb4(mut buf: &[u8]) -> Result<Vec<Axiom4>, SnapshotError> {
    if buf.len() < 4 {
        return Err(SnapshotError::UnexpectedEof);
    }
    let (magic, rest) = buf.split_at(4);
    buf = rest;
    if magic != KB4_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = wire::get_u8(&mut buf)?;
    if version != KB4_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let count = wire::get_u32(&mut buf)?;
    let mut axioms = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        let ax = match wire::get_u8(&mut buf)? {
            0 => {
                let k = get_kind(&mut buf)?;
                let c = wire::get_concept(&mut buf)?;
                let d = wire::get_concept(&mut buf)?;
                Axiom4::ConceptInclusion(k, c, d)
            }
            1 => {
                let k = get_kind(&mut buf)?;
                let r = wire::get_role(&mut buf)?;
                let s = wire::get_role(&mut buf)?;
                Axiom4::RoleInclusion(k, r, s)
            }
            2 => {
                let k = get_kind(&mut buf)?;
                let u = DataRoleName::new(wire::get_str(&mut buf)?);
                let v = DataRoleName::new(wire::get_str(&mut buf)?);
                Axiom4::DataRoleInclusion(k, u, v)
            }
            3 => Axiom4::Transitive(RoleName::new(wire::get_str(&mut buf)?)),
            4 => {
                let a = IndividualName::new(wire::get_str(&mut buf)?);
                Axiom4::ConceptAssertion(a, wire::get_concept(&mut buf)?)
            }
            tag @ (5 | 6) => {
                let r = RoleName::new(wire::get_str(&mut buf)?);
                let a = IndividualName::new(wire::get_str(&mut buf)?);
                let b = IndividualName::new(wire::get_str(&mut buf)?);
                if tag == 5 {
                    Axiom4::RoleAssertion(r, a, b)
                } else {
                    Axiom4::NegativeRoleAssertion(r, a, b)
                }
            }
            7 => {
                let u = DataRoleName::new(wire::get_str(&mut buf)?);
                let a = IndividualName::new(wire::get_str(&mut buf)?);
                Axiom4::DataAssertion(u, a, wire::get_value(&mut buf)?)
            }
            8 => {
                let a = IndividualName::new(wire::get_str(&mut buf)?);
                let b = IndividualName::new(wire::get_str(&mut buf)?);
                Axiom4::SameIndividual(a, b)
            }
            9 => {
                let a = IndividualName::new(wire::get_str(&mut buf)?);
                let b = IndividualName::new(wire::get_str(&mut buf)?);
                Axiom4::DifferentIndividuals(a, b)
            }
            t => return Err(SnapshotError::BadTag("axiom4", t)),
        };
        axioms.push(ax);
    }
    Ok(axioms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::tests::{concept_text, line_strategy};
    use crate::dataflow::{axiom_local, SigAtom};
    use crate::transform::Transformer;
    use crate::Reasoner4;
    use dl::DataValue;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap, HashSet};

    fn ind(s: &str) -> IndividualName {
        IndividualName::new(s)
    }

    fn atom(s: &str) -> Concept {
        Concept::atomic(s)
    }

    /// A fresh temp directory for one durable-session test.
    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("shoin4-incremental-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn island(n: usize) -> Vec<Axiom4> {
        let a = format!("A{n}");
        let b = format!("B{n}");
        let x = format!("x{n}");
        vec![
            Axiom4::ConceptInclusion(InclusionKind::Internal, atom(&a), atom(&b)),
            Axiom4::ConceptAssertion(ind(&x), atom(&a)),
        ]
    }

    #[test]
    fn session_tracks_a_fresh_reasoner_through_mutations() {
        let mut session = Session::new(&KnowledgeBase4::new(), Config::default());
        let mut axioms: Vec<Axiom4> = Vec::new();
        let trace: Vec<Axiom4> = island(0).into_iter().chain(island(1)).collect();
        for ax in trace {
            session.add_axiom(ax.clone()).unwrap();
            axioms.push(ax);
        }
        let extra = Axiom4::ConceptAssertion(ind("x0"), atom("B1").not());
        session.add_axiom(extra.clone()).unwrap();
        axioms.push(extra.clone());

        let check = |session: &Session, axioms: &[Axiom4]| {
            let fresh = Reasoner4::new(&KnowledgeBase4::from_axioms(axioms.iter().cloned()));
            for i in ["x0", "x1"] {
                for c in ["A0", "B0", "A1", "B1"] {
                    let (a, c) = (ind(i), atom(c));
                    assert_eq!(
                        session.query(&a, &c).unwrap(),
                        fresh.query(&a, &c).unwrap(),
                        "diverged on {i}:{c:?} over {axioms:?}"
                    );
                }
            }
            assert_eq!(
                session.is_satisfiable().unwrap(),
                fresh.is_satisfiable().unwrap()
            );
        };
        check(&session, &axioms);

        assert!(session.retract_axiom(&extra).unwrap());
        axioms.retain(|ax| ax != &extra);
        check(&session, &axioms);

        // Retracting an absent axiom is a logged-nothing no-op.
        assert!(!session.retract_axiom(&extra).unwrap());
        assert_eq!(session.len(), axioms.len());
        check(&session, &axioms);
    }

    #[test]
    fn invalidation_is_module_granular() {
        let kb = KnowledgeBase4::from_axioms(island(0).into_iter().chain(island(1)));
        let mut session = Session::new(&kb, Config::default());
        // Compound goals skip the told fast path and seed real modules.
        let both0 = atom("A0").and(atom("B0"));
        let both1 = atom("A1").and(atom("B1"));
        assert!(session.query(&ind("x0"), &both0).unwrap().has_true_info());
        assert!(session.query(&ind("x1"), &both1).unwrap().has_true_info());
        let warm = session.cached_modules();
        assert!(warm >= 2, "expected distinct island modules, got {warm}");

        // A mutation inside island 0 must not evict island 1's module.
        session
            .add_axiom(Axiom4::ConceptAssertion(ind("y0"), atom("A0")))
            .unwrap();
        let stats = session.stats();
        assert_eq!(stats.mutations, 1);
        assert!(
            stats.invalidated_modules < warm as u64,
            "delta in island 0 evicted all {warm} modules"
        );
        assert!(session.query(&ind("y0"), &both0).unwrap().has_true_info());
        assert!(session.query(&ind("x1"), &both1).unwrap().has_true_info());
    }

    #[test]
    fn entailment_cache_entries_die_with_their_module() {
        let kb = KnowledgeBase4::from_axioms(island(0));
        let mut session = Session::new(&kb, Config::default());
        assert!(!session
            .query(&ind("x0"), &atom("C0"))
            .unwrap()
            .has_true_info());
        session
            .add_axiom(Axiom4::ConceptInclusion(
                InclusionKind::Internal,
                atom("B0"),
                atom("C0"),
            ))
            .unwrap();
        assert!(
            session
                .query(&ind("x0"), &atom("C0"))
                .unwrap()
                .has_true_info(),
            "stale cached verdict survived an invalidating add"
        );
        session
            .retract_axiom(&Axiom4::ConceptInclusion(
                InclusionKind::Internal,
                atom("B0"),
                atom("C0"),
            ))
            .unwrap()
            .then_some(())
            .unwrap();
        assert!(!session
            .query(&ind("x0"), &atom("C0"))
            .unwrap()
            .has_true_info());
        assert!(session.stats().invalidated_entailments > 0);
    }

    #[test]
    fn kb4_snapshot_roundtrips_every_axiom_shape() {
        let axioms = vec![
            Axiom4::ConceptInclusion(InclusionKind::Material, atom("A"), atom("B").not()),
            Axiom4::ConceptInclusion(
                InclusionKind::Strong,
                Concept::some(dl::axiom::RoleExpr::named(RoleName::new("r")), atom("A")),
                atom("B"),
            ),
            Axiom4::RoleInclusion(
                InclusionKind::Internal,
                dl::axiom::RoleExpr::named(RoleName::new("r")),
                dl::axiom::RoleExpr::named(RoleName::new("s")).inverse(),
            ),
            Axiom4::DataRoleInclusion(
                InclusionKind::Material,
                DataRoleName::new("u"),
                DataRoleName::new("v"),
            ),
            Axiom4::Transitive(RoleName::new("r")),
            Axiom4::ConceptAssertion(ind("a"), atom("A").and(atom("B"))),
            Axiom4::RoleAssertion(RoleName::new("r"), ind("a"), ind("b")),
            Axiom4::NegativeRoleAssertion(RoleName::new("r"), ind("a"), ind("b")),
            Axiom4::DataAssertion(DataRoleName::new("u"), ind("a"), DataValue::Integer(42)),
            Axiom4::SameIndividual(ind("a"), ind("b")),
            Axiom4::DifferentIndividuals(ind("a"), ind("b")),
        ];
        let decoded = decode_kb4(&encode_kb4(&axioms)).unwrap();
        assert_eq!(decoded, axioms);
        assert!(matches!(decode_kb4(b"XXXX"), Err(SnapshotError::BadMagic)));
        assert!(matches!(
            decode_kb4(&encode_kb4(&axioms)[..10]),
            Err(SnapshotError::UnexpectedEof)
        ));
    }

    #[test]
    fn durable_session_replays_its_wal_on_reopen() {
        let dir = scratch("replay");
        {
            let mut s = Session::open(&dir, Config::default()).unwrap();
            for ax in island(0) {
                s.add_axiom(ax).unwrap();
            }
            s.add_axiom(Axiom4::DataAssertion(
                DataRoleName::new("age"),
                ind("x0"),
                DataValue::Integer(7),
            ))
            .unwrap();
            s.retract_axiom(&Axiom4::ConceptAssertion(ind("x0"), atom("A0")))
                .unwrap()
                .then_some(())
                .unwrap();
            assert_eq!(s.len(), 2);
        }
        let reopened = Session::open(&dir, Config::default()).unwrap();
        assert_eq!(reopened.len(), 2);
        assert!(!reopened
            .query(&ind("x0"), &atom("B0"))
            .unwrap()
            .has_true_info());
        let kb = reopened.kb();
        assert!(kb.axioms().contains(&Axiom4::DataAssertion(
            DataRoleName::new("age"),
            ind("x0"),
            DataValue::Integer(7),
        )));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_dropped_and_truncated() {
        let dir = scratch("torn");
        {
            let mut s = Session::open(&dir, Config::default()).unwrap();
            for ax in island(0) {
                s.add_axiom(ax).unwrap();
            }
        }
        let wal = dir.join(WAL_FILE);
        let committed = std::fs::metadata(&wal).unwrap().len();
        // Simulate a crash mid-append: a prefix of a statement, no newline.
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(b"add x9 : A9 and (B9 o").unwrap();
        drop(f);

        let reopened = Session::open(&dir, Config::default()).unwrap();
        assert_eq!(reopened.len(), 2, "torn tail replayed");
        drop(reopened);
        assert_eq!(
            std::fs::metadata(&wal).unwrap().len(),
            committed,
            "torn tail not truncated away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_committed_wal_line_is_an_error_not_a_skip() {
        let dir = scratch("corrupt");
        {
            let mut s = Session::open(&dir, Config::default()).unwrap();
            s.add_axiom(Axiom4::ConceptAssertion(ind("x"), atom("A")))
                .unwrap();
        }
        let wal = dir.join(WAL_FILE);
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(b"frobnicate x : A\n").unwrap();
        drop(f);
        match Session::open(&dir, Config::default()) {
            Err(SessionError::Corrupt { line, .. }) => assert_eq!(line, 3),
            Err(other) => panic!("expected corruption error, got {other:?}"),
            Ok(_) => panic!("corrupt wal opened without error"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Statements whose stored concepts stand `h` levels tall: `n`
    /// negations of `A` stand `n + 1` tall, `u some not(integer)` two,
    /// and `C DisjointWith B` is stored as `C and B SubClassOf Nothing`,
    /// one level above `C`.
    fn deep_statements(h: usize) -> [String; 3] {
        let not = |n: usize| "not ".repeat(n);
        [
            format!("x : {}A", not(h - 1)),
            format!("y : {}u some not(integer)", not(h - 2)),
            format!("({}A) DisjointWith B", not(h - 2)),
        ]
    }

    #[test]
    fn nesting_past_the_depth_cap_is_a_typed_error_in_the_wal_and_the_snapshot() {
        // WAL replay: a committed line at the cap replays, one level
        // deeper is a corrupt line, not a stack overflow.
        let cap = dl::MAX_CONCEPT_DEPTH;
        for (h, replays) in [(cap, true), (cap + 1, false)] {
            for statement in deep_statements(h) {
                let dir = scratch("deep-wal");
                std::fs::create_dir_all(&dir).unwrap();
                let wal = format!("{WAL_HEADER}\nadd {statement}\n");
                std::fs::write(dir.join(WAL_FILE), wal).unwrap();
                match Session::open(&dir, Config::default()) {
                    Ok(s) => assert!(replays && s.len() == 1, "{statement}"),
                    Err(SessionError::Corrupt { line, message }) => {
                        assert!(!replays && line == 2, "line {line}: {message}");
                        assert!(message.contains("nested deeper"), "{message}");
                    }
                    Err(other) => panic!("expected corruption error, got {other:?}"),
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
        // Snapshot decoding: a crafted 200,016-byte `session.snap`
        // holding one `x : ¬¬…¬⊤` with 200,000 negations.
        let dir = scratch("deep-snap");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = encode_kb4([&Axiom4::ConceptAssertion(ind("x"), Concept::Top)]);
        let top = bytes.len() - 1;
        bytes.splice(top..top, [3u8; 200_000]);
        assert_eq!(bytes.len(), 200_016);
        std::fs::write(dir.join(SNAPSHOT_FILE), &bytes).unwrap();
        assert!(matches!(
            Session::open(&dir, Config::default()),
            Err(SessionError::Snapshot(SnapshotError::TooDeep))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Statements at the depth cap run end to end on a thread with the
    /// 2 MiB stack the server's connection and worker threads get:
    /// parse, transform, query, WAL append (printing), WAL replay,
    /// compaction, snapshot decoding and drop.
    #[test]
    fn statements_at_the_depth_cap_run_end_to_end_on_a_2_mib_stack() {
        let dir = scratch("deep-e2e");
        let run = move || {
            let declared = BTreeSet::new();
            let parse = |line: String| Command::parse(&line, &declared).expect("at the cap");
            let statements = deep_statements(dl::MAX_CONCEPT_DEPTH);
            // Ask each individual for its own deep concept.
            let probes: Vec<_> = statements[..2]
                .iter()
                .map(|statement| {
                    let (a, c) = statement.split_once(" : ").unwrap();
                    let Command::Query(a, c) = parse(format!("query {a} {c}")) else {
                        panic!("not a query")
                    };
                    (a, c)
                })
                .collect();
            let verdicts = |s: &Session| -> Vec<TruthValue> {
                probes.iter().map(|(a, c)| s.query(a, c).unwrap()).collect()
            };
            let (kb, want) = {
                // No compaction: every statement stays in the WAL.
                let mut s = Session::open_with(&dir, Config::default(), 0).unwrap();
                for statement in ["x : A".to_string()].iter().chain(&statements) {
                    let Command::Add(ax) = parse(format!("add {statement}")) else {
                        panic!("not an add")
                    };
                    s.add_axiom(ax).unwrap();
                }
                assert!(s.is_satisfiable().unwrap());
                (s.kb(), verdicts(&s))
            };
            // The first reopen replays the WAL and, with a period of 1,
            // compacts it into a snapshot; the second decodes that.
            for snapshot_every in [1, 0] {
                let reopened = Session::open_with(&dir, Config::default(), snapshot_every).unwrap();
                assert_eq!(reopened.kb(), kb);
                assert_eq!(verdicts(&reopened), want);
            }
            let wal = std::fs::read_to_string(dir.join(WAL_FILE)).unwrap();
            assert!(!wal.contains("add "), "the WAL was not compacted: {wal}");
            std::fs::remove_dir_all(&dir).unwrap();
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(run)
            .unwrap()
            .join()
            .expect("the at-cap session runs on a 2 MiB stack");
    }

    #[test]
    fn snapshot_compaction_truncates_the_wal_and_survives_reopen() {
        let dir = scratch("compact");
        {
            let mut s = Session::open_with(&dir, Config::default(), 3).unwrap();
            for ax in island(0).into_iter().chain(island(1)) {
                s.add_axiom(ax).unwrap();
            }
        }
        let snap = dir.join(SNAPSHOT_FILE);
        assert!(snap.exists(), "no snapshot written after 4 mutations");
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(
            wal_len <= (WAL_HEADER.len() + 1 + 80) as u64,
            "wal not compacted: {wal_len} bytes"
        );
        let reopened = Session::open_with(&dir, Config::default(), 3).unwrap();
        assert_eq!(reopened.len(), 4);
        assert!(reopened
            .query(&ind("x1"), &atom("B1"))
            .unwrap()
            .has_true_info());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_individual_mutations_rebuild_the_told_index() {
        let kb = KnowledgeBase4::from_axioms([
            Axiom4::ConceptAssertion(ind("a"), atom("A")),
            Axiom4::ConceptInclusion(InclusionKind::Internal, atom("A"), atom("B")),
        ]);
        let mut session = Session::new(&kb, Config::default());
        assert!(!session
            .query(&ind("b"), &atom("B"))
            .unwrap()
            .has_true_info());
        session
            .add_axiom(Axiom4::SameIndividual(ind("a"), ind("b")))
            .unwrap();
        assert!(
            session
                .query(&ind("b"), &atom("B"))
                .unwrap()
                .has_true_info(),
            "equality merge not reflected after add"
        );
        session
            .retract_axiom(&Axiom4::SameIndividual(ind("a"), ind("b")))
            .unwrap()
            .then_some(())
            .unwrap();
        assert!(!session
            .query(&ind("b"), &atom("B"))
            .unwrap()
            .has_true_info());
    }

    fn parse_axioms(text: &str) -> Vec<Axiom4> {
        crate::parse_kb4(text)
            .expect("generated lines parse")
            .axioms()
            .to_vec()
    }

    /// `slot ↦ new id` of the live slots, in order.
    fn compaction_map(slots: &[Option<Axiom4>]) -> HashMap<usize, usize> {
        let live = slots.iter().enumerate().filter(|(_, s)| s.is_some());
        live.enumerate().map(|(new, (old, _))| (old, new)).collect()
    }

    fn renumber(key: &BTreeSet<usize>, map: &HashMap<usize, usize>) -> BTreeSet<usize> {
        key.iter().map(|i| map[i]).collect()
    }

    /// One mutation, checked against a full scan of the cache before
    /// it: the modules whose signature fails an added slot's locality
    /// (or that hold a retracted slot) leave the cache, and with them
    /// exactly the entailment keys whose probe extracts one of them.
    fn check_mutation(
        session: &mut Session,
        mutate: impl FnOnce(&mut Session) -> Option<Delta>,
        images: &[dl::axiom::Axiom],
    ) -> Result<(), TestCaseError> {
        let before = session.pipeline.module_signatures();
        let entailments = session.pipeline.entailment_modules();
        for module in entailments.values() {
            prop_assert!(
                before.contains_key(module),
                "an entailment outlived its module"
            );
        }
        let stats = session.stats();
        let slots = session.slots.len();
        let Some(delta) = mutate(session) else {
            return Ok(());
        };
        prop_assert!(
            session.slots.len() >= slots,
            "compacted inside a short trace"
        );
        let dirty: BTreeSet<BTreeSet<usize>> = before
            .iter()
            .filter(|(key, signature)| match delta {
                Delta::Add(_) => !images.iter().all(|im| axiom_local(im, signature)),
                Delta::Retract(id) => key.contains(&id),
            })
            .map(|(key, _)| key.clone())
            .collect();
        let after = session.pipeline.module_signatures();
        prop_assert!(after.keys().all(|key| before.contains_key(key)));
        let dropped: BTreeSet<BTreeSet<usize>> = before
            .keys()
            .filter(|key| !after.contains_key(*key))
            .cloned()
            .collect();
        prop_assert_eq!(&dropped, &dirty, "dirty set differs from the full scan");
        let kept: HashSet<(IndividualName, Concept)> =
            session.pipeline.entailment_modules().into_keys().collect();
        let removed: HashSet<&(IndividualName, Concept)> = entailments
            .keys()
            .filter(|key| !kept.contains(*key))
            .collect();
        let expected: HashSet<&(IndividualName, Concept)> = entailments
            .iter()
            .filter(|(_, module)| dirty.contains(*module))
            .map(|(key, _)| key)
            .collect();
        prop_assert_eq!(
            &removed,
            &expected,
            "removed entailments differ from the full scan"
        );
        let now = session.stats();
        prop_assert_eq!(
            now.invalidated_modules - stats.invalidated_modules,
            dirty.len() as u64
        );
        prop_assert_eq!(
            now.invalidated_entailments - stats.invalidated_entailments,
            expected.len() as u64
        );
        prop_assert!(now.invalidation_tests - stats.invalidation_tests <= before.len() as u64);
        prop_assert!(session.pipeline.atom_index_is_exact());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The atom-indexed dirty test and the keyed entailment eviction
        /// drop exactly what a full scan of every cached module drops,
        /// over traces of adds (never-local shapes and equality merges
        /// included), retracts of any live slot, queries and
        /// compactions; a compaction re-keys the cache without changing
        /// what it holds.
        #[test]
        fn indexed_invalidation_matches_the_full_scan(
            base in proptest::collection::vec(line_strategy(), 0..8),
            steps in proptest::collection::vec(
                (0usize..10, line_strategy(), 0usize..64, 0usize..11, 0usize..4, 0usize..4),
                1..24,
            ),
        ) {
            let config = Config {
                time_budget: Some(std::time::Duration::from_millis(200)),
                ..Config::default()
            };
            let kb = KnowledgeBase4::from_axioms(parse_axioms(&base.join("\n")));
            let mut session = Session::new(&kb, config);
            for (op, text, pick, k, x, y) in steps {
                match op {
                    0..=2 => {
                        for ax in parse_axioms(&text) {
                            let images = Transformer::memoized().axiom(&ax);
                            check_mutation(&mut session, |s| {
                                s.add_axiom(ax).expect("in-memory add");
                                Some(Delta::Add(s.slots.len() - 1))
                            }, &images)?;
                        }
                    }
                    3 | 4 => check_mutation(&mut session, |s| {
                        let live: Vec<&Axiom4> = s.slots.iter().flatten().collect();
                        let ax = live.get(pick % live.len().max(1)).map(|&ax| ax.clone())?;
                        let id = s.find_live(&ax).expect("a live axiom");
                        assert!(s.retract_axiom(&ax).expect("in-memory retract"));
                        Some(Delta::Retract(id))
                    }, &[])?,
                    5..=7 => {
                        let c = crate::command::parse_concept(&concept_text(k, x, y), &BTreeSet::new())
                            .expect("generated concepts parse");
                        let _ = session.query(&ind(&format!("i{x}")), &c);
                    }
                    8 => {
                        let map = compaction_map(&session.slots);
                        let kb = session.kb();
                        let modules = session.pipeline.module_signatures();
                        let entailments = session.pipeline.entailment_modules();
                        session.compact();
                        prop_assert_eq!(session.kb(), kb);
                        let rekeyed: BTreeMap<BTreeSet<usize>, BTreeSet<SigAtom>> = modules
                            .into_iter()
                            .map(|(key, signature)| (renumber(&key, &map), signature))
                            .collect();
                        prop_assert_eq!(session.pipeline.module_signatures(), rekeyed);
                        let rekeyed: HashMap<(IndividualName, Concept), BTreeSet<usize>> = entailments
                            .into_iter()
                            .map(|(key, module)| (key, renumber(&module, &map)))
                            .collect();
                        prop_assert_eq!(session.pipeline.entailment_modules(), rekeyed);
                        prop_assert!(session.pipeline.atom_index_is_exact());
                    }
                    _ => {
                        let _ = session.is_satisfiable();
                    }
                }
            }
        }
    }

    #[test]
    fn compaction_bounds_the_slots_and_keeps_order_keys_and_verdicts() {
        let dir = scratch("compact-slots");
        let base: Vec<Axiom4> = (0..3).flat_map(island).collect();
        let mut model: Vec<Axiom4> = base.clone();
        let goal = |n: usize| atom(&format!("A{n}")).and(atom(&format!("B{n}")));
        {
            let mut s = Session::open_with(&dir, Config::default(), 50).unwrap();
            for ax in &base {
                s.add_axiom(ax.clone()).unwrap();
            }
            let mut adds = base.len();
            for k in 0..400 {
                // Island 3 arrives after the first tombstones and no
                // write touches it, so its cached module's slot ids
                // shift at every compaction.
                if k == 20 {
                    for ax in island(3) {
                        s.add_axiom(ax.clone()).unwrap();
                        model.push(ax);
                        adds += 1;
                    }
                }
                if k >= 20 {
                    s.query(&ind("x3"), &goal(3)).unwrap();
                }
                let n = k % 3;
                let fresh = Axiom4::ConceptAssertion(ind(&format!("f{k}")), atom(&format!("A{n}")));
                s.add_axiom(fresh.clone()).unwrap();
                s.query(&ind(&format!("f{k}")), &goal(n)).unwrap();
                s.query(&ind(&format!("x{n}")), &goal(n)).unwrap();
                assert!(s.retract_axiom(&fresh).unwrap());
                adds += 1;
                // Every 50th pair moves a base axiom to the end.
                if k % 50 == 49 {
                    let moved = model.remove(k % model.len());
                    assert!(s.retract_axiom(&moved).unwrap());
                    s.add_axiom(moved.clone()).unwrap();
                    model.push(moved);
                    adds += 1;
                }
                assert!(s.slots.len() <= 2 * s.len() + COMPACT_FLOOR);
                for key in s.pipeline.module_signatures().keys() {
                    assert!(key
                        .iter()
                        .all(|&i| i < s.slots.len() && s.slots[i].is_some()));
                }
            }
            assert!(s.slots.len() < adds / 2, "the session never compacted");
            assert_eq!(s.kb().axioms(), &model[..]);
        }
        let reopened = Session::open_with(&dir, Config::default(), 50).unwrap();
        assert_eq!(reopened.kb().axioms(), &model[..]);
        let kb = KnowledgeBase4::from_axioms(model);
        let engine = tableau::QueryEngine::new(&crate::transform_kb(&kb));
        for n in 0..4 {
            for c in [atom(&format!("A{n}")), atom(&format!("B{n}")), goal(n)] {
                let a = ind(&format!("x{n}"));
                let want = TruthValue::from_bits(
                    engine
                        .is_instance_of(&a, &crate::transform_concept(&c))
                        .unwrap(),
                    engine
                        .is_instance_of(&a, &crate::transform_neg_concept(&c))
                        .unwrap(),
                );
                assert_eq!(reopened.query(&a, &c).unwrap(), want, "{a} : {c:?}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
