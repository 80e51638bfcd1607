//! The incremental-session contract, machine-checked differentially:
//! module-granular cache invalidation (`shoin4::incremental`) must be
//! *invisible* in answers. Across ≥ 200 generated mutation traces —
//! random add/retract interleavings over mixed-kind corpora plus the
//! localized churn workloads the subsystem is optimized for — every
//! four-valued verdict and satisfiability answer out of a long-lived
//! [`Session`] must be bit-identical to an independent [`Oracle`]: the
//! shared Corollary 7 oracle of `tests/common`, one plain tableau over
//! the induced classical KB `transform_kb(K)`, rebuilt from scratch over
//! the session's current KB. The oracle shares
//! none of the session's pipeline (told index, entailment cache, module
//! extraction, Horn rung), so if an invalidation pass ever keeps a stale
//! module, Horn program, entailment row or told row alive, some
//! interleaving here diverges.
//!
//! The durable layer is covered by crash-replay tests: a WAL whose
//! tail was torn mid-line (the partial write of a crash) must reopen
//! to exactly the committed prefix of the mutation history, and an
//! untouched WAL must reopen to the full history — byte-identical KBs,
//! not merely equisatisfiable ones.
//!
//! As in `tests/horn_parity.rs`, both sides carry a short wall-clock
//! budget and a seed that is pathologically hard for the baseline
//! tableau is skipped — hardness is a KB property, not a caching
//! property.

mod common;

use common::{signature_grid, Oracle};
use dl::name::IndividualName;
use dl::Concept;
use ontogen::churn::{churn_workload, ChurnOp, ChurnParams};
use ontogen::modular::ModularParams;
use ontogen::random::{random_kb4, RandomParams};
use proptest::prelude::*;
use shoin4::{Axiom4, KnowledgeBase4, Session};
use std::time::Duration;
use tableau::Config;

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

fn config() -> Config {
    Config {
        model_pruning: false,
        // Skip seeds that are pathologically hard for the baseline
        // tableau; both sides share the budget.
        time_budget: Some(Duration::from_millis(300)),
        ..Config::default()
    }
}

/// Compare the long-lived session against the oracle over its current
/// KB. Returns `false` if the time budget was exhausted (the caller
/// skips the seed).
fn session_agrees(session: &Session, seed: u64) -> Result<bool, TestCaseError> {
    let kb = session.kb();
    let reference = Oracle::new(&kb, config());
    let (s_sat, r_sat) = match (session.is_satisfiable(), reference.is_satisfiable()) {
        (Ok(s), Ok(r)) => (s, r),
        _ => return Ok(false),
    };
    prop_assert_eq!(s_sat, r_sat, "satisfiability diverged (seed {})", seed);
    for (a, c) in signature_grid(&kb) {
        let (s, r) = match (session.query(&a, &c), reference.query(&a, &c)) {
            (Ok(s), Ok(r)) => (s, r),
            _ => return Ok(false),
        };
        prop_assert_eq!(
            s,
            r,
            "stale cache: divergence on {}:{:?} (seed {})",
            a,
            c,
            seed
        );
    }
    Ok(true)
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random add/retract interleavings over a mixed-kind corpus: the
    /// session is checked against the oracle at every fourth step
    /// and at the end. Retractions hit both session-added axioms and
    /// base axioms (exercising tombstoned slots inside cached module
    /// keys), and re-adds of retracted axioms exercise slot reuse.
    #[test]
    fn session_tracks_a_fresh_reasoner_across_random_traces(seed in 0..4096u64) {
        let base = random_kb4(&small_params(seed), (0.3, 0.4, 0.3));
        let pool = random_kb4(&small_params(seed ^ 0x9E37), (0.3, 0.4, 0.3));
        let mut session = Session::new(&base, config());
        if !session_agrees(&session, seed)? {
            return Ok(());
        }
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut added: Vec<Axiom4> = Vec::new();
        for step in 0..10u32 {
            rng = xorshift(rng);
            let pick = (rng >> 8) as usize;
            match rng % 3 {
                0 if !pool.is_empty() => {
                    let ax = pool.axioms()[pick % pool.len()].clone();
                    added.push(ax.clone());
                    session.add_axiom(ax).unwrap();
                }
                1 if !added.is_empty() => {
                    let ax = added.swap_remove(pick % added.len());
                    prop_assert!(session.retract_axiom(&ax).unwrap());
                }
                _ if !base.is_empty() => {
                    // May be a no-op when a previous step already took it.
                    let ax = base.axioms()[pick % base.len()].clone();
                    session.retract_axiom(&ax).unwrap();
                }
                _ => {}
            }
            if step % 4 == 3 && !session_agrees(&session, seed)? {
                return Ok(());
            }
        }
        session_agrees(&session, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The localized churn workloads the subsystem is optimized for:
    /// replay the generated trace, answering every query op against the
    /// oracle over the current KB, then grid-check the end state.
    /// Modular islands make invalidation *actually* partial here, so a
    /// dirty-test that spares too much (instead of too little) has
    /// warm-but-stale modules to get caught on.
    #[test]
    fn churn_traces_answer_identically_to_rebuilds(seed in 0..4096u64) {
        let (kb, _, ops) = churn_workload(&ChurnParams {
            seed,
            modular: ModularParams {
                seed,
                n_islands: 2,
                island_tbox: 3,
                island_abox: 4,
                contaminated_islands: 1,
            },
            ops: 30,
            mutation_percent: 30,
            hot_island: 0,
        });
        let mut session = Session::new(&kb, config());
        let mut reference: Option<Oracle> = Some(Oracle::new(&kb, config()));
        for op in &ops {
            match op {
                ChurnOp::Add(ax) => {
                    session.add_axiom(ax.clone()).unwrap();
                    reference = None;
                }
                ChurnOp::Retract(ax) => {
                    prop_assert!(session.retract_axiom(ax).unwrap(), "trace retract missed");
                    reference = None;
                }
                ChurnOp::Query(a, c) => {
                    let r = reference.get_or_insert_with(|| Oracle::new(&session.kb(), config()));
                    let (sv, rv) = match (session.query(a, c), r.query(a, c)) {
                        (Ok(s), Ok(r)) => (s, r),
                        _ => return Ok(()),
                    };
                    prop_assert_eq!(sv, rv, "churn divergence on {}:{:?} (seed {})", a, c, seed);
                }
            }
        }
        session_agrees(&session, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Add-then-retract is an exact undo: the verdict grid after the
    /// round trip must equal the grid before it — the caches the add
    /// invalidated and the retract re-invalidated must rebuild to a
    /// verdict-equivalent state, never a stale one.
    #[test]
    fn add_then_retract_restores_every_verdict(seed in 0..4096u64) {
        let base = random_kb4(&small_params(seed), (0.3, 0.4, 0.3));
        let pool = random_kb4(&small_params(seed ^ 0x517C), (0.3, 0.4, 0.3));
        if pool.is_empty() {
            return Ok(());
        }
        let mut session = Session::new(&base, config());
        let grid = signature_grid(&base);
        let mut before = Vec::with_capacity(grid.len());
        for (a, c) in &grid {
            match session.query(a, c) {
                Ok(v) => before.push(v),
                Err(_) => return Ok(()),
            }
        }
        let ax = pool.axioms()[seed as usize % pool.len()].clone();
        session.add_axiom(ax.clone()).unwrap();
        // Touch the caches in the mutated state so the retract has
        // something real to invalidate.
        for (a, c) in grid.iter().take(4) {
            if session.query(a, c).is_err() {
                return Ok(());
            }
        }
        prop_assert!(session.retract_axiom(&ax).unwrap());
        for ((a, c), want) in grid.iter().zip(before) {
            let got = match session.query(a, c) {
                Ok(v) => v,
                Err(_) => return Ok(()),
            };
            prop_assert_eq!(
                got,
                want,
                "add/retract of {:?} not an exact undo on {}:{:?} (seed {})",
                &ax,
                a,
                c,
                seed
            );
        }
    }
}

/// On a localized churn trace (seed 7, three islands of 8 TBox / 12
/// ABox axioms, one contaminated, 120 ops, 15 % mutations on island 0)
/// invalidation stays module-granular — on average a mutation drops
/// under a quarter of the module population and examines under a
/// quarter of what a scan of every cached module would — and the
/// entailment cache keeps answering across mutations.
#[test]
fn churn_invalidation_is_module_granular_and_keeps_entailments_warm() {
    let (kb, _, ops) = churn_workload(&ChurnParams {
        seed: 7,
        modular: ModularParams {
            seed: 7,
            n_islands: 3,
            island_tbox: 8,
            island_abox: 12,
            contaminated_islands: 1,
        },
        ops: 120,
        mutation_percent: 15,
        hot_island: 0,
    });
    let mut session = Session::new(&kb, Config::default());
    // What a full scan would examine: every cached module, per mutation.
    let mut full_scan = 0;
    for op in &ops {
        match op {
            ChurnOp::Add(ax) => {
                full_scan += session.cached_modules() as u64;
                session.add_axiom(ax.clone()).unwrap();
            }
            ChurnOp::Retract(ax) => {
                full_scan += session.cached_modules() as u64;
                assert!(session.retract_axiom(ax).unwrap());
            }
            ChurnOp::Query(a, c) => {
                session.query(a, c).unwrap();
            }
        }
    }
    let stats = session.stats();
    let modules = session.cached_modules() as u64 + stats.invalidated_modules;
    assert!(stats.mutations > 0, "trace has no mutations");
    assert!(
        stats.invalidated_modules * 4 < stats.mutations * modules,
        "invalidation not module-granular: {} invalidated over {} mutations, {} modules",
        stats.invalidated_modules,
        stats.mutations,
        modules
    );
    assert!(
        stats.entailment_cache_hits > 0,
        "entailment cache never hit across the churn trace"
    );
    // The atom index examines a fraction of the cache (16 of the 296
    // module visits a full scan makes on this trace).
    assert!(
        stats.invalidation_tests * 4 <= full_scan,
        "invalidation examined {} modules where a full scan examines {full_scan}",
        stats.invalidation_tests
    );
}

// ---------------------------------------------------------------------
// WAL crash replay
// ---------------------------------------------------------------------

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "shoin4-incremental-parity-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic mutation history over a small modular KB.
fn crash_ops() -> (KnowledgeBase4, Vec<ChurnOp>) {
    let (kb, _, ops) = churn_workload(&ChurnParams {
        seed: 11,
        modular: ModularParams {
            seed: 11,
            n_islands: 2,
            island_tbox: 3,
            island_abox: 4,
            contaminated_islands: 0,
        },
        ops: 40,
        mutation_percent: 60,
        hot_island: 0,
    });
    let muts: Vec<ChurnOp> = ops
        .into_iter()
        .filter(|op| !matches!(op, ChurnOp::Query(..)))
        .collect();
    assert!(muts.len() >= 8, "want a real history, got {}", muts.len());
    (kb, muts)
}

fn apply(session: &mut Session, op: &ChurnOp) {
    match op {
        ChurnOp::Add(ax) => session.add_axiom(ax.clone()).unwrap(),
        ChurnOp::Retract(ax) => {
            assert!(session.retract_axiom(ax).unwrap());
        }
        ChurnOp::Query(..) => unreachable!("mutations only"),
    }
}

/// The expected KB after replaying a prefix of the history in memory.
fn expected_kb(base: &KnowledgeBase4, ops: &[ChurnOp]) -> KnowledgeBase4 {
    let mut session = Session::new(base, Config::default());
    for op in ops {
        apply(&mut session, op);
    }
    session.kb()
}

#[test]
fn torn_wal_tail_recovers_exactly_the_committed_prefix() {
    let (base, muts) = crash_ops();
    let dir = scratch("prefix");
    // Seed the durable session with the base KB, then apply the history,
    // recording the WAL length after every committed mutation.
    let mut lens = Vec::new();
    {
        let mut s = Session::open_with(&dir, Config::default(), 0).unwrap();
        for ax in base.axioms() {
            s.add_axiom(ax.clone()).unwrap();
        }
        let base_len = std::fs::metadata(dir.join(shoin4::incremental::WAL_FILE))
            .unwrap()
            .len();
        lens.push(base_len);
        for op in &muts {
            apply(&mut s, op);
            lens.push(
                std::fs::metadata(dir.join(shoin4::incremental::WAL_FILE))
                    .unwrap()
                    .len(),
            );
        }
    }
    // Crash-cut the WAL mid-way through several different ops: the
    // reopened session must hold exactly the committed prefix.
    for committed in [3usize, muts.len() / 2, muts.len() - 1] {
        let cut = lens[committed] + (lens[committed + 1] - lens[committed]) / 2;
        let wal = dir.join(shoin4::incremental::WAL_FILE);
        let full = std::fs::read(&wal).unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(cut)
            .unwrap();
        let reopened = Session::open_with(&dir, Config::default(), 0).unwrap();
        assert_eq!(
            reopened.kb(),
            expected_kb(&base, &muts[..committed]),
            "crash cut inside op {} did not recover its prefix",
            committed + 1
        );
        drop(reopened);
        // Reopening truncated the torn tail; restore the full log for
        // the next cut point.
        std::fs::write(&wal, &full).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn untouched_wal_replays_the_full_history_bit_identically() {
    let (base, muts) = crash_ops();
    let dir = scratch("full");
    {
        let mut s = Session::open_with(&dir, Config::default(), 0).unwrap();
        for ax in base.axioms() {
            s.add_axiom(ax.clone()).unwrap();
        }
        for op in &muts {
            apply(&mut s, op);
        }
    }
    let reopened = Session::open_with(&dir, Config::default(), 0).unwrap();
    let want = expected_kb(&base, &muts);
    assert_eq!(reopened.kb(), want);
    // And the reopened session still *reasons* identically to the
    // oracle — replay restores the reasoner, not just the axiom list.
    let reference = Oracle::new(&want, config());
    for (a, c) in signature_grid(&want).into_iter().take(12) {
        assert_eq!(
            reopened.query(&a, &c).unwrap(),
            reference.query(&a, &c).unwrap(),
            "replayed session diverged on {a}:{c:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_after_snapshot_compaction_recovers_through_the_snapshot() {
    let (base, muts) = crash_ops();
    let dir = scratch("compact");
    {
        // Aggressive compaction: snapshots punctuate the history, so
        // recovery exercises snapshot-load + WAL-suffix replay.
        let mut s = Session::open_with(&dir, Config::default(), 5).unwrap();
        for ax in base.axioms() {
            s.add_axiom(ax.clone()).unwrap();
        }
        for op in &muts {
            apply(&mut s, op);
        }
    }
    assert!(dir.join(shoin4::incremental::SNAPSHOT_FILE).exists());
    let reopened = Session::open_with(&dir, Config::default(), 5).unwrap();
    // Compaction snapshots the live axioms in slot order, so the
    // recovered KB is set-equal (and here sequence-equal) to in-memory
    // replay of the same history.
    assert_eq!(reopened.kb(), expected_kb(&base, &muts));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Churn far past the tombstone floor compacts the session in memory.
/// Compaction renumbers slots, so the checks sit where a stale module
/// key would show: a retract inside a module cached before the
/// compactions (its membership test reads the renumbered key), the live
/// KB's order, and every verdict against the oracle, in memory and
/// after a snapshot and a reopen.
#[test]
fn compacted_sessions_keep_order_and_verdicts_through_snapshot_and_reopen() {
    let dir = scratch("slots");
    let axioms = |text: &str| shoin4::parse_kb4(text).unwrap().axioms().to_vec();
    let mut model = axioms("A0 SubClassOf B0\nx0 : A0");
    let late = axioms("A1 SubClassOf B1\nx1 : A1\nx1 : C1");
    let goal = Concept::atomic("A1").and(Concept::atomic("B1"));
    let agrees = |session: &Session, model: &[Axiom4]| {
        let kb = KnowledgeBase4::from_axioms(model.iter().cloned());
        assert_eq!(session.kb(), kb);
        let reference = Oracle::new(&kb, config());
        let grid = signature_grid(&kb);
        for (a, c) in grid
            .iter()
            .chain([&(IndividualName::new("x1"), goal.clone())])
        {
            assert_eq!(
                session.query(a, c).unwrap(),
                reference.query(a, c).unwrap(),
                "compacted session diverged on {a}:{c:?}"
            );
        }
    };
    {
        let mut s = Session::open_with(&dir, Config::default(), 40).unwrap();
        for ax in &model {
            s.add_axiom(ax.clone()).unwrap();
        }
        for k in 0..300 {
            if k == 10 {
                for ax in &late {
                    s.add_axiom(ax.clone()).unwrap();
                    model.push(ax.clone());
                }
                assert!(s
                    .query(&IndividualName::new("x1"), &goal)
                    .unwrap()
                    .has_true_info());
            }
            let fresh = axioms(&format!("f{k} : A0")).remove(0);
            s.add_axiom(fresh.clone()).unwrap();
            s.query(&IndividualName::new("x0"), &Concept::atomic("B0"))
                .unwrap();
            assert!(s.retract_axiom(&fresh).unwrap());
        }
        let member = axioms("x1 : A1").remove(0);
        assert!(s.retract_axiom(&member).unwrap());
        model.retain(|ax| ax != &member);
        agrees(&s, &model);
    }
    let reopened = Session::open_with(&dir, Config::default(), 40).unwrap();
    agrees(&reopened, &model);
    std::fs::remove_dir_all(&dir).unwrap();
}
