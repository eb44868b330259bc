//! Generic lock-sharded FIFO cache.
//!
//! Four caches in this workspace share one shape: N `std::sync::RwLock`
//! shards selected by a stable hash of the key, a per-shard slice of the
//! total capacity, first-writer-wins inserts (the cached computations are
//! deterministic, so concurrent writers hold identical values), FIFO
//! eviction in insertion order, and per-shard eviction counters so skewed
//! key distributions stay visible (one hot shard churning at capacity used
//! to look identical to uniform pressure when the counter was cache-wide).
//! [`ShardedCache`] is that shape extracted once; the compile-result cache
//! (`scope_opt::CompileCache`), both maps of the execution-result cache
//! (`scope_runtime::ExecutionCache`), the delta compiler's base-memo cache,
//! and the span-feature cache all build on it.
//!
//! The cache also owns the hit/miss/insert accounting, so every wrapper
//! reports the same thing: one [`ShardedCache::get`] is one hit or one miss,
//! one [`ShardedCache::insert`] that stores is one insert, and
//! [`ShardedCache::get_or_insert_with`] is exactly that pair around a build
//! that runs outside any lock. [`ShardedCache::stats`] snapshots them with
//! the per-shard eviction counters summed.
#![expect(
    clippy::disallowed_types,
    reason = "locking is this module's job: shards hold pure functions of their keys, first writer wins"
)]

use crate::counters::CacheStats;
use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// Shard locks recover from poisoning: a cached value is a pure function of
/// its key, so a panicking holder leaves nothing half-true behind.
fn read_lock<K, V>(shard: &RwLock<Shard<K, V>>) -> RwLockReadGuard<'_, Shard<K, V>> {
    shard.read().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug)]
struct Shard<K, V> {
    map: FxHashMap<K, V>,
    /// Insertion order, for FIFO eviction once the shard is full.
    order: VecDeque<K>,
    /// Evictions performed by *this* shard. Eviction is a per-shard event
    /// (each shard enforces its own slice of the capacity), so the counter
    /// lives under the shard lock; [`ShardedCache::stats`] sums these and
    /// [`ShardedCache::shard_evictions`] exposes the attribution.
    evictions: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Self {
            map: FxHashMap::default(),
            order: VecDeque::new(),
            evictions: 0,
        }
    }
}

/// A lock-sharded map with FIFO eviction. `&ShardedCache` is `Sync` (given
/// `Send + Sync` contents): parallel pipeline fan-outs hit it concurrently,
/// readers sharing each shard lock.
///
/// The shard for a key is picked by a caller-supplied `fn(&K) -> u64` (a
/// plain function pointer: every key type in the workspace already has a
/// stable hash built from `combine` and content fingerprints, and a stored
/// pointer sidesteps the coherence issues a hashing trait would hit on
/// foreign tuple keys).
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Box<[RwLock<Shard<K, V>>]>,
    /// Per-shard entry cap derived from the total capacity.
    shard_capacity: usize,
    hasher: fn(&K) -> u64,
    /// Cache-wide lookup/insert counters (statistics only: `Relaxed`).
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache holding at most `capacity` entries (`0` = unbounded) across
    /// `shards` lock shards (rounded up to a power of two, clamped to
    /// 1..=1024), sharded by `hasher`.
    #[must_use]
    pub fn new(capacity: usize, shards: usize, hasher: fn(&K) -> u64) -> Self {
        let shards = shards.clamp(1, 1024).next_power_of_two();
        let shard_capacity = if capacity == 0 {
            usize::MAX
        } else {
            capacity.div_ceil(shards).max(1)
        };
        Self {
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
            shard_capacity,
            hasher,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &K) -> &RwLock<Shard<K, V>> {
        let h = (self.hasher)(key);
        &self.shards[(h as usize) & (self.shards.len() - 1)]
    }

    /// A clone of the stored value, if present, counted as one hit or one
    /// miss. (Values are cheap clones everywhere this is used: `Arc`s,
    /// `Copy` metric structs, or compile results whose physical plan sits
    /// behind an `Arc`.)
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_with(key, |value| Some(value.clone()))
    }

    /// What `read` makes of the stored value, counted as one hit when it
    /// makes something and one miss otherwise (no value stored, or one the
    /// caller cannot use, as a price-only compile entry is to a caller that
    /// needs the plan). `read` runs under the shard's read lock.
    pub fn get_with<T>(&self, key: &K, read: impl FnOnce(&V) -> Option<T>) -> Option<T> {
        let found = read_lock(self.shard_for(key)).map.get(key).and_then(read);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Insert `value` unless the key is already present: a concurrent writer
    /// may have inserted while the caller computed, both hold the identical
    /// value (the cached computations are deterministic), so first writer
    /// wins and the duplicate work is only a perf loss. Returns whether this
    /// call stored `value`; see [`ShardedCache::store`].
    pub fn insert(&self, key: K, value: V) -> bool {
        self.store(key, value, |_| false)
    }

    /// Store `value` under `key`: inserted when the key is absent (counted
    /// as one insert, evicting the shard's oldest entry if its capacity
    /// slice overflowed), or put in place of the present value when
    /// `replace` approves of it — a fuller value for the same key, as a
    /// compile with its plan is for a price-only entry. A replacement keeps
    /// the entry's place in the FIFO order and counts no insert, so `len()`
    /// stays the inserts less the evictions. Returns whether `value` was
    /// stored. Whatever leaves the map (an evicted value, a replaced one, or
    /// `value` itself when it was not stored) is dropped after the shard
    /// lock is released: freeing a large value (a base memo) can take tens
    /// of microseconds, and the shard's readers need not wait.
    pub fn store(&self, key: K, value: V, replace: impl FnOnce(&V) -> bool) -> bool {
        let mut guard = self
            .shard_for(&key)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let shard = &mut *guard;
        let freed = match shard.map.entry(key) {
            Entry::Occupied(mut slot) => {
                if !replace(slot.get()) {
                    return false;
                }
                slot.insert(value)
            }
            Entry::Vacant(slot) => {
                shard.order.push_back(slot.key().clone());
                slot.insert(value);
                self.inserts.fetch_add(1, Ordering::Relaxed);
                // Every insert checks, so the shard is at most one over.
                if shard.map.len() <= self.shard_capacity {
                    return true;
                }
                let Some(oldest) = shard.order.pop_front() else {
                    return true;
                };
                shard.evictions += 1;
                let Some(evicted) = shard.map.remove(&oldest) else {
                    return true;
                };
                evicted
            }
        };
        drop(guard);
        drop(freed);
        true
    }

    /// The stored value for `key`, or `build()`'s, stored and returned: one
    /// [`ShardedCache::get`] then, on a miss, one [`ShardedCache::insert`].
    /// `build` runs outside any lock — concurrent misses on different keys
    /// never serialize, a build may re-enter the cache, and concurrent
    /// misses on one key each build the identical value (first writer wins).
    pub fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> V) -> V {
        if let Some(found) = self.get(&key) {
            return found;
        }
        let built = build();
        self.insert(key, built.clone());
        built
    }

    /// Snapshot of the monotonic counters, evictions summed over the shards.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.shards.iter().map(|s| read_lock(s).evictions).sum(),
        }
    }

    /// Evictions attributed to each shard, in shard order. Capacity is
    /// enforced per shard, so skewed key distributions show up here as one
    /// shard churning while the rest idle.
    #[must_use]
    pub fn shard_evictions(&self) -> Vec<u64> {
        self.shards.iter().map(|s| read_lock(s).evictions).collect()
    }

    /// Live entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_lock(s).map.len()).sum()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters keep running).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut guard = shard.write().unwrap_or_else(PoisonError::into_inner);
            guard.map.clear();
            guard.order.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::combine;

    fn cache(capacity: usize, shards: usize) -> ShardedCache<u64, u64> {
        ShardedCache::new(capacity, shards, |k| combine(*k, 0))
    }

    #[test]
    fn get_insert_roundtrip_and_first_writer_wins() {
        let c = cache(16, 4);
        assert_eq!(c.get(&1), None);
        assert!(c.insert(1, 10));
        assert_eq!(c.get(&1), Some(10));
        assert!(!c.insert(1, 99), "duplicate insert must not overwrite");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn single_shard_evicts_fifo() {
        let c = cache(2, 1);
        for k in 0..3 {
            assert!(c.insert(k, k));
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.get(&0), None, "oldest entry evicted first");
        assert_eq!(c.get(&2), Some(2), "newest entry survives");
    }

    #[test]
    fn evictions_attributed_per_shard() {
        // Shard by identity so keys land deterministically: capacity 4 over
        // 4 shards = 1 entry each; keys 0..8 put two keys in every shard.
        let c: ShardedCache<u64, u64> = ShardedCache::new(4, 4, |k| *k);
        for k in 0..8 {
            assert!(c.insert(k, k));
        }
        let per_shard = c.shard_evictions();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(per_shard, vec![1, 1, 1, 1]);
        assert_eq!(c.stats().evictions, 4);
        assert_eq!(c.len(), 4);
    }

    /// A cached value that, when dropped, checks whether `try_read` on its
    /// shard succeeds: [`ShardedCache::insert`] must free what it evicts
    /// after releasing the write lock, so readers never wait on a slow drop.
    /// The verdict is counted, not asserted, because a `Drop` that panics
    /// during another panic's unwinding aborts the test binary.
    #[derive(Clone)]
    struct LockProbe;

    static PROBED: std::sync::OnceLock<ShardedCache<u64, LockProbe>> = std::sync::OnceLock::new();
    static UNLOCKED_DROPS: AtomicU64 = AtomicU64::new(0);
    static LOCKED_DROPS: AtomicU64 = AtomicU64::new(0);

    impl Drop for LockProbe {
        fn drop(&mut self) {
            if let Some(cache) = PROBED.get() {
                let verdict = if cache.shards[0].try_read().is_ok() {
                    &UNLOCKED_DROPS
                } else {
                    &LOCKED_DROPS
                };
                verdict.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn evicted_values_drop_outside_the_shard_lock() {
        let cache = PROBED.get_or_init(|| ShardedCache::new(2, 1, |k| *k));
        let drops = || {
            (
                UNLOCKED_DROPS.load(Ordering::Relaxed),
                LOCKED_DROPS.load(Ordering::Relaxed),
            )
        };
        for k in 0..5 {
            assert!(cache.insert(k, LockProbe));
        }
        assert_eq!(cache.stats().evictions, 3);
        assert_eq!(drops(), (3, 0), "one unlocked drop per eviction");
        assert!(!cache.insert(4, LockProbe));
        assert_eq!(drops(), (4, 0), "a losing duplicate is dropped unlocked");
        assert!(cache.store(4, LockProbe, |_| true));
        assert_eq!(drops(), (5, 0), "a replaced value is dropped unlocked");
    }

    #[test]
    fn store_replaces_in_place_and_keeps_the_fifo_order() {
        let c = cache(2, 1);
        assert!(c.insert(1, 10));
        assert!(c.insert(2, 20));
        assert!(!c.store(1, 12, |old| *old == 11), "replace declined");
        assert!(c.store(1, 11, |old| *old == 10));
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(
            (c.len(), c.stats().inserts),
            (2, 2),
            "a replace inserts nothing"
        );
        assert!(c.store(3, 30, |_| true), "an absent key is inserted");
        assert_eq!(c.get(&1), None, "the replaced entry kept its place: oldest");
        assert_eq!((c.get(&2), c.get(&3)), (Some(20), Some(30)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn get_with_counts_an_unusable_value_as_a_miss() {
        let c = cache(16, 4);
        assert!(c.insert(1, 10));
        assert_eq!(c.get_with(&1, |v| (*v > 10).then_some(*v)), None);
        assert_eq!(c.get_with(&1, |v| (*v == 10).then_some(*v + 1)), Some(11));
        assert_eq!(c.get_with(&2, |v| Some(*v)), None);
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn zero_capacity_is_unbounded() {
        let c = cache(0, 2);
        for k in 0..1000 {
            c.insert(k, k);
        }
        assert_eq!(c.len(), 1000);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn shard_count_clamps_to_power_of_two() {
        // 3 shards round up to 4; capacity 8 divides into 2 per shard.
        let c: ShardedCache<u64, u64> = ShardedCache::new(8, 3, |k| *k);
        assert_eq!(c.shards.len(), 4);
        assert_eq!(c.shard_capacity, 2);
        // 0 shards clamp to 1.
        let c = cache(8, 0);
        assert_eq!(c.shards.len(), 1);
    }

    #[test]
    fn clear_empties_but_keeps_eviction_counters() {
        let c = cache(1, 1);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.stats().evictions, 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(
            c.stats().evictions,
            1,
            "counters are monotonic across clears"
        );
    }

    #[test]
    fn counters_follow_get_and_insert() {
        let c = cache(16, 4);
        assert_eq!(c.get_or_insert_with(1, || 10), 10, "miss builds and stores");
        assert_eq!(c.get_or_insert_with(1, || 99), 10, "hit never builds");
        assert!(!c.insert(1, 99), "a duplicate insert counts nothing");
        let after_pair = CacheStats {
            hits: 1,
            misses: 1,
            inserts: 1,
            evictions: 0,
        };
        assert_eq!(c.stats(), after_pair);
        c.clear();
        assert_eq!(c.stats(), after_pair, "clear keeps every counter");
        assert_eq!(c.get(&1), None);
        assert_eq!(c.stats().misses, 2, "a bare get counts too");
    }

    #[test]
    fn racing_builds_run_unlocked_and_first_writer_wins() {
        // One shard, so both callers contend on the same lock.
        let c = cache(16, 1);
        let both_missed = std::sync::Barrier::new(2);
        let racer = || {
            c.get_or_insert_with(1, || {
                // Neither build returns before both lookups missed...
                both_missed.wait();
                // ...and a build may re-enter the cache: this takes the
                // shard lock, so a build run under it would deadlock here.
                let _ = c.shard_evictions();
                7
            })
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(racer);
            let b = s.spawn(racer);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!((a, b), (7, 7), "both callers hold equal values");
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (0, 2, 1));
        assert_eq!(c.len(), 1);
    }
}
