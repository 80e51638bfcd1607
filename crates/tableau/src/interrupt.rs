//! Thread-local per-request stop conditions: a cancellation token and
//! an optional deadline.
//!
//! A serving layer shares long-lived engines (and their baked-in
//! configs) across many requests, so a per-request stop condition
//! cannot travel through a cached `QueryEngine`. Searches always run
//! synchronously on the thread that asked, so the request worker
//! instead [`install`]s its token here before touching the reasoner,
//! together with the request's own wall-clock budget when it has one.
//! `check_limits` polls the installed tokens at the same sites as the
//! deadline, every `Search` folds the earliest installed deadline into
//! its own (reporting [`crate::ReasonerError::TimeBudget`] with that
//! entry's budget when it fires), and the returned [`InterruptGuard`]
//! uninstalls on drop (panic-safe, nesting-safe).
//!
//! Scope: strictly the installing thread. Work fanned out to helper
//! threads (e.g. `Reasoner4::query_batch` workers) does not inherit the
//! entry — a serving layer must run one request on one worker thread,
//! which is exactly what `shoin4::serve` does.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One installed stop condition.
struct Entry {
    token: Arc<AtomicBool>,
    /// When the entry's budget runs out, and that budget.
    deadline: Option<(Instant, Duration)>,
}

thread_local! {
    /// Stack of installed entries; a raise on *any* token interrupts,
    /// and the earliest deadline binds.
    static ENTRIES: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
}

/// Install `token` for the current thread until the guard drops. With a
/// `budget`, every search started on this thread before the guard drops
/// also stops once `budget` has passed from now.
#[must_use = "dropping the guard uninstalls the token"]
pub fn install(token: Arc<AtomicBool>, budget: Option<Duration>) -> InterruptGuard {
    let deadline = budget.map(|b| (Instant::now() + b, b));
    ENTRIES.with(|e| e.borrow_mut().push(Entry { token, deadline }));
    InterruptGuard { _priv: () }
}

/// True when any token installed on this thread has been raised.
pub fn interrupted() -> bool {
    ENTRIES.with(|e| {
        e.borrow()
            .iter()
            .any(|entry| entry.token.load(Ordering::Relaxed))
    })
}

/// The earliest deadline installed on this thread, with its budget.
pub fn deadline() -> Option<(Instant, Duration)> {
    ENTRIES.with(|e| {
        e.borrow()
            .iter()
            .filter_map(|entry| entry.deadline)
            .min_by_key(|(at, _)| *at)
    })
}

/// Uninstalls the matching [`install`]ed entry on drop.
pub struct InterruptGuard {
    _priv: (),
}

impl Drop for InterruptGuard {
    fn drop(&mut self) {
        ENTRIES.with(|e| {
            e.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_raise_and_uninstall() {
        assert!(!interrupted());
        let token = Arc::new(AtomicBool::new(false));
        let guard = install(Arc::clone(&token), None);
        assert!(!interrupted());
        token.store(true, Ordering::Relaxed);
        assert!(interrupted());
        drop(guard);
        assert!(!interrupted());
    }

    #[test]
    fn nested_tokens_any_raise_interrupts() {
        let outer = Arc::new(AtomicBool::new(false));
        let inner = Arc::new(AtomicBool::new(false));
        let _outer_guard = install(Arc::clone(&outer), None);
        {
            let _inner_guard = install(Arc::clone(&inner), None);
            outer.store(true, Ordering::Relaxed);
            assert!(interrupted(), "outer raise visible under nesting");
        }
        assert!(interrupted(), "outer token survives inner guard drop");
    }

    #[test]
    fn tokens_are_thread_local() {
        let token = Arc::new(AtomicBool::new(true));
        let _guard = install(Arc::clone(&token), None);
        assert!(interrupted());
        let other = std::thread::spawn(interrupted).join().expect("no panic");
        assert!(!other, "other threads do not see this thread's token");
    }

    #[test]
    fn the_earliest_installed_deadline_binds_until_its_guard_drops() {
        assert_eq!(deadline(), None);
        let token = || Arc::new(AtomicBool::new(false));
        let _outer = install(token(), Some(Duration::from_secs(60)));
        assert_eq!(deadline().map(|(_, b)| b), Some(Duration::from_secs(60)));
        {
            let _inner = install(token(), Some(Duration::from_millis(5)));
            assert_eq!(deadline().map(|(_, b)| b), Some(Duration::from_millis(5)));
            let _unbudgeted = install(token(), None);
            assert_eq!(deadline().map(|(_, b)| b), Some(Duration::from_millis(5)));
        }
        assert_eq!(deadline().map(|(_, b)| b), Some(Duration::from_secs(60)));
    }
}
