//! `churn`: applications editing durable sessions. Two callers run side
//! by side, each on its own session with inputs of its own. A session's
//! KB is many small independent islands in the `hardness_mix` shapes
//! (Horn chains, `⊔`-residue towers, `∃`-deep towers), far larger than
//! any module, so every cache miss pays for a full extraction. Each
//! caller runs a closed loop in which three ops in ten add or retract
//! fresh assertions on a few hot islands and the rest probe islands,
//! atomic or compound.

use crate::replica::{Counters, Replica};
use crate::util::{self, Args, Latencies, Outcome, SpanStats, Tracer, LADDER_LAYERS};
use dl::name::IndividualName;
use dl::Concept;
use fourval::TruthValue;
use ontogen::hardness_mix::{hardness_mix, HardnessMixParams, HardnessShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shoin4::incremental::{encode_kb4, DEFAULT_SNAPSHOT_EVERY, SNAPSHOT_FILE, WAL_FILE};
use shoin4::reasoner4::QueryOptions;
use shoin4::{Axiom4, KnowledgeBase4, Reasoner4, Session};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Islands per shape; three shapes of 2–7 levels make ~21 axioms a
/// triple, so the KB holds about 5,800 axioms.
const PER_SHAPE: usize = 340;
/// Islands that take every write: two of each shape.
const HOT_PER_SHAPE: usize = 2;
/// Committed WAL lines waiting for replay when the session opens.
const WAL_BACKLOG: usize = 200;
/// Callers, each editing its own durable session with its own inputs,
/// side by side: one per vCPU of the reference host. A vCPU of a shared
/// host runs at two speeds up to 1.5x apart for seconds at a time, so a
/// lone single-threaded caller runs at the speed of whichever vCPU it
/// lands on; two callers average both.
const CALLERS: usize = 2;
/// Set-ups timed (median = `setup_s`), each opening every caller's
/// session at once: one before the timed phase and one after each of its
/// `SETUP_REPS - 1` equal slices. A set-up takes tens of milliseconds;
/// spread over the run, the set-ups sample many stretches of the host's
/// speed, where set-ups back to back would sample one.
const SETUP_REPS: usize = 17;
/// Ops generated per second of run: more than the closed loop completes
/// today, so a run seldom wraps around the list.
const OPS_PER_SECOND: f64 = 4000.0;

struct Island {
    /// Name prefix (`HORN3N`, …).
    prefix: String,
    axioms: Vec<Axiom4>,
    concepts: Vec<Concept>,
}

#[derive(Clone)]
enum Op {
    Query(usize, IndividualName, Concept),
    Add(usize, Axiom4),
    Retract(usize, Axiom4),
}

struct Inputs {
    islands: Vec<Island>,
    /// Backlog adds already in the WAL, by island.
    backlog: Vec<(usize, Axiom4)>,
    ops: Vec<Op>,
}

fn inputs(seed: u64, n_ops: usize) -> Inputs {
    let mix = hardness_mix(&HardnessMixParams {
        seed,
        per_shape: PER_SHAPE,
        min_size: 2,
        max_size: 5,
    });
    let islands: Vec<Island> = mix
        .into_iter()
        .map(|l| {
            let tag = l.id.split('/').next().expect("id has a tag");
            let prefix = format!("{}N", tag.to_uppercase());
            let atom = |s: &str, j: usize| Concept::atomic(format!("{prefix}{s}{j}"));
            let concepts = match l.shape {
                HardnessShape::ExistsDeep => (0..=l.size).map(|j| atom("E", j)).collect(),
                HardnessShape::HornChain => (0..=l.size).map(|j| atom("C", j)).collect(),
                HardnessShape::Disjunctive => (0..=l.size)
                    .map(|j| atom("C", j))
                    .chain((0..l.size).map(|j| atom("D", j)))
                    .collect(),
            };
            Island {
                prefix,
                axioms: l.kb.axioms().to_vec(),
                concepts,
            }
        })
        .collect();
    let hot: Vec<usize> = (0..3)
        .flat_map(|shape| (0..HOT_PER_SHAPE).map(move |k| shape * PER_SHAPE + k))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A2);
    let mut fresh = 0usize;
    let mut fresh_assertion = |rng: &mut StdRng, i: usize| {
        fresh += 1;
        let island = &islands[i];
        Axiom4::ConceptAssertion(
            IndividualName::new(format!("{}f{fresh}", island.prefix)),
            island.concepts[rng.gen_range(0..island.concepts.len())].clone(),
        )
    };
    let backlog: Vec<(usize, Axiom4)> = (0..WAL_BACKLOG)
        .map(|_| {
            let i = rng.gen_range(0..islands.len());
            (i, fresh_assertion(&mut rng, i))
        })
        .collect();
    let mut outstanding: Vec<Vec<Axiom4>> = vec![Vec::new(); islands.len()];
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        if rng.gen_range(0..100) < 30 {
            let i = hot[rng.gen_range(0..hot.len())];
            let out = &mut outstanding[i];
            if !out.is_empty() && (out.len() >= 3 || rng.gen_bool(0.5)) {
                ops.push(Op::Retract(i, out.swap_remove(rng.gen_range(0..out.len()))));
            } else {
                let ax = fresh_assertion(&mut rng, i);
                outstanding[i].push(ax.clone());
                ops.push(Op::Add(i, ax));
            }
        } else {
            let i = if rng.gen_bool(0.6) {
                hot[rng.gen_range(0..hot.len())]
            } else {
                rng.gen_range(0..islands.len())
            };
            let island = &islands[i];
            let a = match outstanding[i].first() {
                Some(Axiom4::ConceptAssertion(a, _)) if rng.gen_bool(0.3) => a.clone(),
                _ => IndividualName::new(format!("{}x0", island.prefix)),
            };
            let j = rng.gen_range(0..island.concepts.len());
            let goal = if rng.gen_bool(0.4) && j + 1 < island.concepts.len() {
                island.concepts[j]
                    .clone()
                    .and(island.concepts[j + 1].clone())
            } else {
                island.concepts[j].clone()
            };
            ops.push(Op::Query(i, a, goal));
        }
    }
    // Close the cycle: retract what is still added, so the ops end in the
    // state they began in and a program faster than the list is long runs
    // it again from the top.
    for (i, out) in outstanding.into_iter().enumerate() {
        ops.extend(out.into_iter().map(|ax| Op::Retract(i, ax)));
    }
    Inputs {
        islands,
        backlog,
        ops,
    }
}

fn base_kb(inputs: &Inputs) -> KnowledgeBase4 {
    KnowledgeBase4::from_axioms(inputs.islands.iter().flat_map(|i| i.axioms.iter().cloned()))
}

/// Write the pristine session directory: a snapshot of the base KB plus
/// a WAL holding the committed backlog.
fn write_session_dir(dir: &Path, inputs: &Inputs) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create session dir");
    let base = base_kb(inputs);
    std::fs::write(dir.join(SNAPSHOT_FILE), encode_kb4(base.axioms())).expect("write snapshot");
    let mut session =
        Session::open_with(dir, tableau::Config::default(), 0).expect("open fresh session");
    for (_, ax) in &inputs.backlog {
        session.add_axiom(ax.clone()).expect("log backlog");
    }
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create work dir");
    for name in [SNAPSHOT_FILE, WAL_FILE] {
        std::fs::copy(from.join(name), to.join(name)).expect("copy session file");
    }
}

fn open(dir: &Path) -> Session {
    Session::open_with(dir, tableau::Config::default(), DEFAULT_SNAPSHOT_EVERY)
        .expect("open session")
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Result of one timed phase.
#[derive(Default)]
struct Phase {
    lat: Vec<f64>,
    verdicts: Vec<Option<TruthValue>>,
    errors: u64,
    mismatches: u64,
    wal_bytes: u64,
}

/// Run the ops (cycled) on `session`, continuing `phase` where it
/// stopped, until the phase holds `limit` ops or this call has run for
/// `seconds`.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    session: &mut Session,
    dir: &Path,
    ops: &[Op],
    phase: &mut Phase,
    limit: Option<usize>,
    seconds: f64,
    t: &mut Tracer,
    mut replica: Option<&mut Replica>,
) {
    let (wal, snap) = (dir.join(WAL_FILE), dir.join(SNAPSHOT_FILE));
    let mut wal_len = file_len(&wal);
    let start = Instant::now();
    for i in phase.verdicts.len().. {
        match limit {
            Some(n) if i >= n => break,
            None if start.elapsed().as_secs_f64() >= seconds => break,
            _ => {}
        }
        let op = &ops[i % ops.len()];
        let id = i as u64;
        let t0 = Instant::now();
        let verdict = match op {
            Op::Query(_, a, c) => {
                let v = t.leaf("program.session_query", id, || session.query(a, c));
                phase.lat.push(t0.elapsed().as_secs_f64() * 1e6);
                v.map(Some).map_err(|e| e.to_string())
            }
            Op::Add(_, ax) => {
                let r = t.leaf("program.session_add", id, || session.add_axiom(ax.clone()));
                phase.lat.push(t0.elapsed().as_secs_f64() * 1e6);
                r.map(|()| None).map_err(|e| e.to_string())
            }
            Op::Retract(_, ax) => {
                let r = t.leaf("program.session_retract", id, || session.retract_axiom(ax));
                phase.lat.push(t0.elapsed().as_secs_f64() * 1e6);
                match r {
                    Ok(true) => Ok(None),
                    Ok(false) => Err("retract found nothing".into()),
                    Err(e) => Err(e.to_string()),
                }
            }
        };
        let verdict = verdict.unwrap_or_else(|_| {
            phase.errors += 1;
            None
        });
        phase.verdicts.push(verdict);
        if let Some(r) = replica.as_deref_mut() {
            match op {
                Op::Query(_, a, c) => {
                    if r.query(t, id, a, c).ok() != verdict {
                        phase.mismatches += 1;
                    }
                }
                Op::Add(_, ax) => r.add(ax.clone()),
                Op::Retract(_, ax) => {
                    r.retract(ax);
                }
            }
            if !matches!(op, Op::Query(..)) {
                let now = file_len(&wal);
                phase.wal_bytes += if now >= wal_len {
                    now - wal_len
                } else {
                    file_len(&snap) + now
                };
                wal_len = now;
            }
        }
    }
}

/// Replay the executed ops against a `Reasoner4` over each island,
/// rebuilt after every mutation of that island. Islands share no names,
/// so an island answers exactly what the whole KB answers about it.
fn oracle(inputs: &Inputs, phase: &Phase, notes: &mut Vec<String>) -> u64 {
    let mut axioms: Vec<Vec<Axiom4>> = inputs.islands.iter().map(|i| i.axioms.clone()).collect();
    for (i, ax) in &inputs.backlog {
        axioms[*i].push(ax.clone());
    }
    let mut reasoners: Vec<Option<Reasoner4>> = (0..axioms.len()).map(|_| None).collect();
    let mut failed = 0;
    let n = inputs.ops.len();
    // A later cycle starts from the same state, so it must repeat the first.
    failed += (n..phase.verdicts.len())
        .filter(|&i| phase.verdicts[i] != phase.verdicts[i % n])
        .count() as u64;
    for (op, got) in inputs.ops.iter().zip(&phase.verdicts) {
        match op {
            Op::Add(i, ax) => {
                axioms[*i].push(ax.clone());
                reasoners[*i] = None;
            }
            Op::Retract(i, ax) => {
                let at = axioms[*i]
                    .iter()
                    .rposition(|x| x == ax)
                    .expect("retract of a prior add");
                axioms[*i].remove(at);
                reasoners[*i] = None;
            }
            Op::Query(i, a, c) => {
                let kb = &axioms[*i];
                let r = reasoners[*i].get_or_insert_with(|| {
                    Reasoner4::with_options(
                        &KnowledgeBase4::from_axioms(kb.iter().cloned()),
                        tableau::Config::default(),
                        QueryOptions::default(),
                    )
                });
                let want = r.query(a, c).ok();
                if want.is_none() || *got != want {
                    failed += 1;
                    if failed <= 3 {
                        notes.push(format!(
                            "# FAIL churn: {a} : {c} -> {got:?} (oracle {want:?})"
                        ));
                    }
                }
            }
        }
    }
    failed
}

/// One caller's inputs and session directories.
struct Caller {
    inputs: Inputs,
    /// The session as generated: snapshot plus WAL backlog.
    pristine: PathBuf,
    /// The session under test.
    work: PathBuf,
    /// Where the opens between slices go, beside the session under test.
    probe: PathBuf,
}

/// Copy each caller's pristine session to `dir(caller)` and open the
/// copies concurrently, one thread per caller; return the sessions and
/// the wall time until the last one was open.
fn open_all(callers: &[Caller], dir: fn(&Caller) -> &Path) -> (Vec<Session>, f64) {
    for c in callers {
        copy_dir(&c.pristine, dir(c));
    }
    let t0 = Instant::now();
    let sessions = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter()
            .map(|c| s.spawn(move || open(dir(c))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open thread"))
            .collect()
    });
    (sessions, t0.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> Outcome {
    let n_ops = (OPS_PER_SECOND * args.seconds) as usize + 1000;
    let root: PathBuf = util::out_dir().join(format!("churn-{}-{}", args.seed, std::process::id()));
    let callers: Vec<Caller> = (0..CALLERS)
        .map(|k| {
            let seed = args
                .seed
                .wrapping_mul(CALLERS as u64)
                .wrapping_add(k as u64);
            let dir = root.join(format!("caller{k}"));
            let caller = Caller {
                inputs: inputs(seed, n_ops),
                pristine: dir.join("pristine"),
                work: dir.join("work"),
                probe: dir.join("probe"),
            };
            write_session_dir(&caller.pristine, &caller.inputs);
            caller
        })
        .collect();
    let mut out = Outcome::default();
    let epoch = Instant::now();

    let (mut sessions, first_open) = open_all(&callers, |c| &c.work);
    let mut setup_s = vec![first_open];
    let base_len = sessions[0].len();
    let mut phases: Vec<Phase> = (0..CALLERS).map(|_| Phase::default()).collect();
    let slice = args.seconds / (SETUP_REPS - 1) as f64;
    let mut wall = 0.0;
    for _ in 1..SETUP_REPS {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((session, phase), c) in sessions.iter_mut().zip(&mut phases).zip(&callers) {
                s.spawn(move || {
                    let mut off = Tracer::new(false, epoch);
                    run_phase(
                        session,
                        &c.work,
                        &c.inputs.ops,
                        phase,
                        None,
                        slice,
                        &mut off,
                        None,
                    );
                });
            }
        });
        wall += t0.elapsed().as_secs_f64();
        let (probes, t) = open_all(&callers, |c| &c.probe);
        setup_s.push(t);
        drop(probes);
    }
    let rss = util::peak_rss_mb();
    drop(sessions);

    let done: usize = phases.iter().map(|a| a.verdicts.len()).sum();
    let checks: Vec<(u64, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter()
            .zip(&phases)
            .map(|(c, a)| {
                s.spawn(move || {
                    let mut notes = Vec::new();
                    let f = oracle(&c.inputs, a, &mut notes);
                    (f, notes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread"))
            .collect()
    });
    out.failed = phases.iter().map(|a| a.errors).sum();
    for (f, notes) in checks {
        out.failed += f;
        out.notes.extend(notes);
    }
    let mut all = Latencies::default();
    let (mut reads, mut writes) = (Latencies::default(), Latencies::default());
    for (c, a) in callers.iter().zip(&phases) {
        for (op, lat) in c.inputs.ops.iter().cycle().zip(&a.lat) {
            all.push(*lat);
            match op {
                Op::Query(..) => reads.push(*lat),
                _ => writes.push(*lat),
            }
        }
    }
    out.attempted = done as u64;
    out.checks_ok = done > 0 && out.failed == 0;
    out.note(format!(
        "# churn: {done} ops over {CALLERS} callers in {wall:.3}s, each session over {base_len} axioms; {} writes; failed_frac {}",
        writes.0.len(),
        util::ratio(out.failed as f64, done as f64)
    ));
    out.note(format!("# {}", reads.describe("query_us")));
    out.note(format!("# {}", writes.describe("mutate_us")));
    out.note(format!("# setup_s samples {setup_s:?}"));
    if !args.trace {
        let _ = std::fs::remove_dir_all(&root);
        out.set("setup_s", util::median(&setup_s));
        out.set("ops_per_s", util::ratio(done as f64, wall));
        out.set("op_p50_us", util::pct(&all.sorted(), 50.0));
        out.set("peak_rss_mb", rss);
        return out;
    }

    // The traced phase repeats each caller's ops on a fresh copy of its
    // session, both callers side by side as in the untraced phase.
    let (mut sessions, _) = open_all(&callers, |c| &c.work);
    let traced: Vec<(Phase, Tracer, Counters)> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .zip(&callers)
            .zip(&phases)
            .map(|((session, c), a)| {
                s.spawn(move || {
                    let mut t = Tracer::new(true, epoch);
                    let mut replica = Replica::new(&session.kb(), false);
                    let mut b = Phase::default();
                    let limit = Some(a.verdicts.len());
                    run_phase(
                        session,
                        &c.work,
                        &c.inputs.ops,
                        &mut b,
                        limit,
                        args.seconds,
                        &mut t,
                        Some(&mut replica),
                    );
                    (b, t, replica.counters)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced caller thread"))
            .collect()
    });
    let mut stats = tableau::Stats::default();
    let mut cached_modules = 0;
    for session in &sessions {
        stats.absorb(&session.stats());
        cached_modules += session.cached_modules();
    }
    drop(sessions);
    let _ = std::fs::remove_dir_all(&root);
    let mut counters = Counters::default();
    let (mut bad, mut mismatches, mut diverged, mut wal_bytes) = (0, 0, 0, 0);
    for ((b, _, c), a) in traced.iter().zip(&phases) {
        counters.absorb(c);
        bad += b.errors + b.mismatches;
        mismatches += b.mismatches;
        wal_bytes += b.wal_bytes;
        diverged += a
            .verdicts
            .iter()
            .zip(&b.verdicts)
            .filter(|(x, y)| x != y)
            .count() as u64;
    }
    out.failed += bad + diverged;
    out.checks_ok &= bad + diverged == 0;
    out.note(format!("# traced phase: replica mismatches {mismatches}, verdicts differing from the untraced phase {diverged}"));

    let mut t = Tracer::new(true, epoch);
    for c in &callers {
        let base = base_kb(&c.inputs);
        let text = shoin4::print_kb4(&base);
        t.leaf("parser4.parse_kb", 0, || {
            shoin4::parse_kb4(&text).expect("base KB parses")
        });
        t.leaf("transform.kb", 0, || shoin4::transform_kb(&base));
        t.leaf("told.build", 0, || shoin4::told::ToldIndex::build(&base));
    }
    let tracers: Vec<&Tracer> = std::iter::once(&t)
        .chain(traced.iter().map(|(_, t, _)| t))
        .collect();
    let spans = SpanStats::of(&tracers);
    let n = done as f64;
    // The session's own counter also counts the WAL lines replayed at open.
    let mutations = writes.0.len() as f64;
    let program_us: f64 = [
        "program.session_query",
        "program.session_add",
        "program.session_retract",
    ]
    .iter()
    .map(|s| spans.total_us(s))
    .sum();
    out.set(
        "parser4.kb_parse_ms",
        spans.total_us("parser4.parse_kb") / 1e3,
    );
    out.set("transform.kb_ms", spans.total_us("transform.kb") / 1e3);
    out.set("told.build_ms", spans.total_us("told.build") / 1e3);
    crate::replica::ladder_metrics(
        &mut out,
        &spans,
        &counters,
        &stats,
        stats.scoped_queries as f64 / n,
        n,
    );
    out.set("incremental.open_ms", util::median(&setup_s) * 1e3);
    out.set(
        "incremental.invalidated_modules_per_mutation",
        util::ratio(stats.invalidated_modules as f64, mutations),
    );
    out.set(
        "incremental.invalidated_entailments_per_mutation",
        util::ratio(stats.invalidated_entailments as f64, mutations),
    );
    out.set(
        "incremental.wal_bytes_per_mutation",
        util::ratio(wal_bytes as f64, mutations),
    );
    out.set("incremental.cached_modules", cached_modules as f64);
    out.set(
        "trace.overhead",
        util::ratio(program_us, all.0.iter().sum()) - 1.0,
    );
    out.set(
        "trace.coverage",
        util::ratio(spans.layer_self_us(&LADDER_LAYERS), program_us),
    );
    let path = util::out_dir().join(format!("spans-churn-{}.tsv", args.seed));
    util::write_spans(&path, &tracers).expect("write span file");
    out.note(format!(
        "# spans: {} written to {}",
        tracers.iter().map(|t| t.spans.len()).sum::<usize>(),
        path.display()
    ));
    out
}
