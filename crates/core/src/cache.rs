//! Concurrency-friendly cache primitives shared by the reasoning layer.
//!
//! Two concerns live here:
//!
//! * [`ShardedMap`] — a hash map split across independently locked
//!   shards with a read-mostly (`RwLock`) path, so parallel batch
//!   queries (`--jobs`) stop serializing on one global cache mutex.
//!   Hit/miss counts are tracked with relaxed atomics and surfaced
//!   through [`tableau::Stats`] by the owning reasoner.
//! * Poison recovery — every cache in this crate is *best-effort*
//!   memoization of deterministic computations, so a worker thread that
//!   panicked mid-insert cannot leave the map logically corrupt (at
//!   worst an entry is missing). [`recover`], [`lock_mutex`] and the
//!   read/write helpers therefore take the guard out of a
//!   [`std::sync::PoisonError`] instead of propagating the poison as a
//!   process-wide panic cascade.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LockResult, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of independently locked shards. A small power of two: enough
/// to keep a handful of batch workers off each other's locks without
/// bloating the struct.
const SHARDS: usize = 16;

/// Unwrap a lock acquisition, recovering the guard from a poisoned
/// lock. Caches hold best-effort memoized values, so observing the
/// state left by a panicked holder is safe.
pub fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Lock a mutex, recovering from poison (see [`recover`]).
pub fn lock_mutex<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    recover(mutex.lock())
}

/// Acquire a read guard, recovering from poison (see [`recover`]).
pub fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    recover(lock.read())
}

/// Acquire a write guard, recovering from poison (see [`recover`]).
pub fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    recover(lock.write())
}

/// A sharded `HashMap` with per-shard `RwLock`s and hit/miss counters.
///
/// Lookups take a read lock on one shard, so concurrent readers (the
/// common case for a warm entailment cache under `query_batch`) never
/// contend; writers lock only the shard that owns the key.
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> ShardedMap<K, V> {
    /// An empty map with the default shard count.
    pub fn new() -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The shard owning `key`. A borrowed form hashes as the key does
    /// (the [`Borrow`] contract), so both find the same shard.
    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &RwLock<HashMap<K, V>> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Look up `key` (or a borrowed form of it), counting the outcome
    /// as a hit or a miss.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let found = read_lock(self.shard(key)).get(key).cloned();
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert or overwrite `key`.
    pub fn insert(&self, key: K, value: V) {
        write_lock(self.shard(&key)).insert(key, value);
    }

    /// Remove `key`; returns whether it was present.
    pub fn remove<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        write_lock(self.shard(key)).remove(key).is_some()
    }

    /// Drop every entry for which `keep` returns false; returns the
    /// number of entries removed.
    pub fn retain(&self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut map = write_lock(shard);
            let before = map.len();
            map.retain(|k, v| keep(k, v));
            removed += before - map.len();
        }
        removed
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_lock(s).len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the map since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Every key, in no particular order.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        self.shards
            .iter()
            .flat_map(|s| read_lock(s).keys().cloned().collect::<Vec<_>>())
            .collect()
    }
}

impl<K: Eq + Hash, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_insert_and_counters() {
        let m: ShardedMap<u32, String> = ShardedMap::new();
        assert_eq!(m.get(&1), None);
        m.insert(1, "one".into());
        assert_eq!(m.get(&1).as_deref(), Some("one"));
        assert_eq!(m.hits(), 1);
        assert_eq!(m.misses(), 1);
        assert_eq!(m.len(), 1);
        assert!(m.remove(&1));
        assert!(!m.remove(&1));
        assert!(m.is_empty());
    }

    #[test]
    fn retain_reports_removed_count() {
        let m: ShardedMap<u32, u32> = ShardedMap::new();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        let removed = m.retain(|k, _| k % 2 == 0);
        assert_eq!(removed, 50);
        assert_eq!(m.len(), 50);
        assert_eq!(m.get(&2), Some(4));
        assert_eq!(m.get(&3), None);
    }

    #[test]
    fn concurrent_readers_and_writers_agree() {
        let m: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::new());
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    for i in 0..256u32 {
                        m.insert(t * 1000 + i, i);
                    }
                });
            }
        });
        assert_eq!(m.len(), 4 * 256);
        for t in 0..4u32 {
            assert_eq!(m.get(&(t * 1000 + 7)), Some(7));
        }
    }

    #[test]
    fn poisoned_mutex_recovers_instead_of_panicking() {
        let mutex = Arc::new(Mutex::new(41));
        let clone = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(mutex.is_poisoned());
        let mut guard = lock_mutex(&mutex);
        *guard += 1;
        assert_eq!(*guard, 42);
    }

    #[test]
    fn stress_mixed_readers_writers_and_retain() {
        // N writers and N readers hammer one map while a maintenance
        // thread runs retain() sweeps; the test asserts the final state
        // exactly and completes (no deadlock) under the per-shard locks.
        const THREADS: u32 = 4;
        const OPS: u32 = 2_000;
        let m: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::new());
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let writer = Arc::clone(&m);
                scope.spawn(move || {
                    for i in 0..OPS {
                        writer.insert(t * OPS + i, i);
                        if i % 7 == 0 {
                            // Re-read own writes under concurrent retain.
                            let _ = writer.get(&(t * OPS + i));
                        }
                    }
                });
                let reader = Arc::clone(&m);
                scope.spawn(move || {
                    for i in 0..OPS {
                        let _ = reader.get(&(t * OPS + i));
                        if i % 64 == 0 {
                            let _ = reader.len();
                        }
                    }
                });
            }
            let m = Arc::clone(&m);
            scope.spawn(move || {
                for _ in 0..16 {
                    // Drop odd values; writers re-insert concurrently.
                    m.retain(|_, v| v % 2 == 0);
                }
            });
        });
        // Quiesced: one final sweep leaves exactly the even values.
        m.retain(|_, v| v % 2 == 0);
        assert_eq!(m.len(), (THREADS * OPS) as usize / 2);
        for t in 0..THREADS {
            assert_eq!(m.get(&(t * OPS + 8)), Some(8));
            assert_eq!(m.get(&(t * OPS + 9)), None);
        }
    }

    /// Scripted-interleaving check for the per-shard locking. The CI
    /// miri job runs every test whose name contains `interleave`, so
    /// the round count scales down under the interpreter; natively the
    /// rounds sweep enough schedules that a torn read, a lost insert or
    /// a retain racing a writer would violate the per-round invariant.
    #[test]
    fn interleaved_insert_get_retain_rounds_hold_their_invariant() {
        const ROUNDS: u32 = if cfg!(miri) { 8 } else { 300 };
        let m: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::new());
        for round in 0..ROUNDS {
            // Each round uses a fresh key; both writers race to insert
            // the SAME value, the reader may observe the key before or
            // after, and the sweeper evicts every older round's key.
            let key = round;
            let value = round * 2;
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let w = Arc::clone(&m);
                    scope.spawn(move || w.insert(key, value));
                }
                let r = Arc::clone(&m);
                scope.spawn(move || {
                    // Either the key is not yet visible or it already
                    // holds this round's value — never a stale one.
                    if let Some(v) = r.get(&key) {
                        assert_eq!(v, value, "round {round} read a torn/stale value");
                    }
                });
                let sweeper = Arc::clone(&m);
                scope.spawn(move || {
                    sweeper.retain(|&k, _| k == key);
                });
            });
            // All four critical sections joined: whatever the order,
            // the round's insert must have survived or been the only
            // eviction candidate the sweeper could NOT take.
            assert_eq!(m.get(&key), Some(value), "round {round} lost its insert");
        }
    }

    #[test]
    fn stress_concurrent_session_readers_and_writers() {
        // The serving layer's contract: a `RwLock<Session>` (one
        // registry tenant) stays consistent and deadlock-free under
        // concurrent query readers and mutation writers. Writers append
        // island-local assertions; readers run the full query pipeline
        // (told index, module caches, entailment cache) the whole time.
        use crate::incremental::Session;
        use crate::parser4::parse_kb4;
        use dl::name::IndividualName;
        use dl::Concept;
        use std::sync::RwLock;

        const WRITERS: usize = 4;
        const READERS: usize = 4;
        const OPS: usize = 40;
        let kb = parse_kb4(
            "A SubClassOf B
             B SubClassOf C
             x : A
             x : not C",
        )
        .expect("parse");
        let session = Arc::new(RwLock::new(Session::new(&kb, tableau::Config::default())));
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let session = Arc::clone(&session);
                scope.spawn(move || {
                    for i in 0..OPS {
                        let ax =
                            parse_kb4(&format!("w{w}n{i} : A")).expect("parse").axioms()[0].clone();
                        write_lock(&session).add_axiom(ax).expect("in-memory add");
                    }
                });
            }
            for r in 0..READERS {
                let session = Arc::clone(&session);
                scope.spawn(move || {
                    let a = IndividualName::new("x");
                    let compound = Concept::atomic("A").and(Concept::atomic("C"));
                    for i in 0..OPS {
                        let guard = read_lock(&session);
                        let v = guard.query(&a, &Concept::atomic("C")).expect("limits");
                        assert_eq!(v, fourval::TruthValue::Both, "reader {r} op {i}");
                        let v = guard.query(&a, &compound).expect("limits");
                        assert_eq!(v, fourval::TruthValue::Both, "reader {r} op {i}");
                    }
                });
            }
        });
        let final_session = read_lock(&session);
        assert_eq!(final_session.len(), 4 + WRITERS * OPS);
        let last = IndividualName::new(format!("w{}n{}", WRITERS - 1, OPS - 1));
        assert_eq!(
            final_session
                .query(&last, &Concept::atomic("C"))
                .expect("limits"),
            fourval::TruthValue::True,
            "writer-added member must reach C through the chain"
        );
        assert!(final_session.stats().mutations >= (WRITERS * OPS) as u64);
    }

    #[test]
    fn poisoned_shard_recovers() {
        let m: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::new());
        m.insert(5, 50);
        // Poison every shard so the one owning key 5 is certainly hit.
        let clone = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guards: Vec<_> = clone.shards.iter().map(|s| s.write().unwrap()).collect();
            panic!("poison all shards");
        })
        .join();
        assert_eq!(m.get(&5), Some(50));
        m.insert(6, 60);
        assert_eq!(m.get(&6), Some(60));
    }
}
