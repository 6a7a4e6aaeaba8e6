//! The service's one bounded cache: a thread-safe FIFO map from a
//! 128-bit fingerprint to a shared value, with lifetime hit, miss and
//! eviction counters. The result cache and the admission cache are its
//! two instances; each adds only its own lookups on top.
//!
//! **The result cache** ([`ResultCache`]) holds one [`JobEntry`] per
//! completed job, keyed by the FNV-1a 128 fingerprint of `(canonical CDFG
//! text, resolved knobs)`. Soundness rests on two properties established
//! elsewhere in the workspace: the canonical text is a *fixpoint* of
//! `parse ∘ print` (spelling variants of the same design collapse to one
//! key — see `crates/cdfg/tests/canonical.rs`), and the portfolio search
//! is *deterministic* for identical inputs (same graph + same knobs ⇒
//! same winning allocation). An exact hit can therefore replay the stored
//! response **bytes** — not a re-rendering — so a cached reply is
//! byte-identical to the one the original job produced. The response is a
//! [`Payload`] (one JSON document with a lazily cached binary rendering),
//! so every hit sends the same verbatim bytes.
//!
//! The entry also holds what later requests read off the job: the winner
//! banked for warm starts (`reallocate` peeks it by key, similarity
//! seeding looks up the nearest sketch) and, for a certified job, what
//! the wire `trace` command re-derives the artifact from (scanned by
//! trace id). A job's response, seed and certificate are cached and
//! evicted together, so a `reallocate` base or a `trace` id lives exactly
//! as long as the response that named it.
//!
//! A cache may keep a secondary [`Index`] over its entries, updated on
//! insert and eviction under the cache's own lock, so it never names a
//! key the map lacks. The result cache buckets its jobs by design sketch
//! ([`SketchIndex`]): a resubmitted design finds its nearest seed in its
//! own bucket instead of scanning every entry.
//!
//! Eviction is FIFO: cached values are a few KiB and take a job to
//! compute, so recency tracking buys little over insertion order here.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use salsa_wire::frame::Payload;

use crate::similarity::{SeedEntry, SketchIndex};
use crate::verifier::CertEntry;

/// One completed job: everything the service keeps of it, under one key.
pub struct JobEntry {
    /// The response, replayed byte-verbatim on every hit.
    pub payload: Arc<Payload>,
    /// The winner banked for warm starts.
    pub seed: SeedEntry,
    /// For a certified job, what the `trace` command re-derives the
    /// certificate's artifact from.
    pub cert: Option<Arc<CertEntry>>,
}

/// The content-addressed job cache, its jobs bucketed by design sketch.
pub type ResultCache = FifoCache<JobEntry, SketchIndex>;

/// A secondary index a [`FifoCache`] keeps in step with its entries,
/// under the cache's lock. It sees each key once when the key enters
/// the cache and once when FIFO eviction drops it; re-inserting a live
/// key replaces the value in place and leaves the index alone, so a
/// value must index the same way as the value it replaces.
pub trait Index<V>: Default {
    /// `key` entered the cache holding `value`, as its newest entry.
    fn insert(&mut self, key: u128, value: &V);
    /// `key`, holding `value`, was evicted as the cache's oldest entry.
    fn evict(&mut self, key: u128, value: &V);
}

/// The index of a cache that keeps none.
#[derive(Default)]
pub struct NoIndex;

impl<V> Index<V> for NoIndex {
    fn insert(&mut self, _: u128, _: &V) {}
    fn evict(&mut self, _: u128, _: &V) {}
}

struct Inner<V, I> {
    map: HashMap<u128, Arc<V>>,
    order: VecDeque<u128>,
    index: I,
}

/// Bounded, thread-safe FIFO cache keyed by a 128-bit fingerprint, with
/// an optional secondary [`Index`].
pub struct FifoCache<V, I = NoIndex> {
    inner: Mutex<Inner<V, I>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V, I: Index<V>> FifoCache<V, I> {
    /// A cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        FifoCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                index: I::default(),
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<V, I>> {
        self.inner.lock().expect("cache poisoned")
    }

    /// Looks up `key`, counting the access as a hit or miss.
    pub fn get(&self, key: u128) -> Option<Arc<V>> {
        let found = self.peek(key);
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Looks up `key` without touching the hit/miss counters.
    pub fn peek(&self, key: u128) -> Option<Arc<V>> {
        self.lock().map.get(&key).map(Arc::clone)
    }

    /// Stores `value` under `key`, evicting the oldest entries beyond
    /// capacity. Re-inserting an existing key replaces its value in
    /// place, keeping its position in the eviction order.
    pub fn insert(&self, key: u128, value: Arc<V>) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if inner.map.insert(key, Arc::clone(&value)).is_some() {
            return;
        }
        inner.index.insert(key, &value);
        inner.order.push_back(key);
        while inner.order.len() > self.capacity {
            if let Some(old) = inner.order.pop_front() {
                if let Some(evicted) = inner.map.remove(&old) {
                    inner.index.evict(old, &evicted);
                }
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The entry under the key `find` picks from the index, read under
    /// the cache lock. Not counted as a hit or miss.
    pub(crate) fn find(&self, find: impl FnOnce(&I) -> Option<u128>) -> Option<Arc<V>> {
        let inner = self.lock();
        find(&inner.index).map(|key| Arc::clone(&inner.map[&key]))
    }

    /// Reads the index under the cache lock.
    pub(crate) fn read_index<R>(&self, read: impl FnOnce(&I) -> R) -> R {
        read(&self.lock().index)
    }

    /// Visits every entry, oldest first, under the cache lock. Not
    /// counted as a hit or miss.
    pub fn scan(&self, mut visit: impl FnMut(&Arc<V>)) {
        let inner = self.lock();
        for key in &inner.order {
            visit(&inner.map[key]);
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime eviction count.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Hits over total lookups, in `[0, 1]` (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 { 0.0 } else { hits / total }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Payloads = FifoCache<Payload>;

    fn payload(s: &str) -> Arc<Payload> {
        Arc::new(Payload::new(salsa_wire::json::Json::Str(s.into())))
    }

    #[test]
    fn hit_returns_the_exact_stored_bytes() {
        let cache = Payloads::new(4);
        assert!(cache.get(1).is_none());
        let stored = Arc::new(Payload::new(salsa_wire::json::parse_json("{\"status\":\"ok\"}").unwrap()));
        cache.insert(1, Arc::clone(&stored));
        let got = cache.get(1).expect("hit");
        assert!(Arc::ptr_eq(&got, &stored), "must replay the stored allocation, not a copy");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        assert!(cache.peek(1).is_some() && cache.peek(2).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 1), "peek is uncounted");
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let cache = Payloads::new(2);
        cache.insert(1, payload("a"));
        cache.insert(2, payload("b"));
        cache.insert(3, payload("c"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(1).is_none(), "oldest entry evicted first");
        assert!(cache.get(2).is_some());
        assert!(cache.get(3).is_some());
        let mut order = Vec::new();
        cache.scan(|p| order.push(p.json().as_str().unwrap().to_string()));
        assert_eq!(order, ["b", "c"], "scan visits oldest first");
    }

    #[test]
    fn reinsert_refreshes_without_duplicating() {
        let cache = Payloads::new(2);
        cache.insert(7, payload("old"));
        cache.insert(7, payload("new"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(7).unwrap().json().as_str(), Some("new"));
        assert_eq!(cache.evictions(), 0);
    }
}
