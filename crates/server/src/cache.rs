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
//! seeding scans for the nearest sketch) and, for a certified job, what
//! the wire `trace` command re-derives the artifact from (scanned by
//! trace id). A job's response, seed and certificate are cached and
//! evicted together, so a `reallocate` base or a `trace` id lives exactly
//! as long as the response that named it.
//!
//! Eviction is FIFO: cached values are a few KiB and take a job to
//! compute, so recency tracking buys little over insertion order here.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use salsa_wire::frame::Payload;

use crate::similarity::SeedEntry;
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

/// The content-addressed job cache.
pub type ResultCache = FifoCache<JobEntry>;

struct Inner<V> {
    map: HashMap<u128, Arc<V>>,
    order: VecDeque<u128>,
}

/// Bounded, thread-safe FIFO cache keyed by a 128-bit fingerprint.
pub struct FifoCache<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V> FifoCache<V> {
    /// A cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        FifoCache {
            inner: Mutex::new(Inner { map: HashMap::new(), order: VecDeque::new() }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<V>> {
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
        let mut inner = self.lock();
        if inner.map.insert(key, value).is_some() {
            return;
        }
        inner.order.push_back(key);
        while inner.order.len() > self.capacity {
            if let Some(old) = inner.order.pop_front() {
                inner.map.remove(&old);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
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
