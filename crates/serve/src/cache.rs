//! The sharded LRU estimate cache.
//!
//! Query optimizers probe the same subqueries over and over while
//! enumerating join orders, so an estimation service sees heavy key
//! repetition. Keys are the **canonical query encoding**
//! ([`lc_query::Query::to_canonical_bytes`]) plus the active model
//! version: set semantics make every ordering of the same query one key,
//! and versioned keys make entries from a replaced model age out by LRU
//! instead of requiring an invalidation sweep.
//!
//! The map is split into shards, each behind its own mutex, so concurrent
//! connection threads rarely contend; within a shard, an intrusive
//! doubly-linked list over a slab gives O(1) lookup, promotion, and
//! eviction.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Sizing of an [`EstimateCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total entry budget across all shards — a hard bound on resident
    /// entries (the budget is distributed over the shards, remainder
    /// spread one-per-shard). 0 disables the cache entirely (every
    /// lookup misses, nothing is stored).
    pub capacity: usize,
    /// Number of independently locked shards (clamped to ≥ 1, and to
    /// `capacity` so no shard ends up with a zero budget).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 4096, shards: 8 }
    }
}

/// Counters exposed by [`EstimateCache::stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What a cache hit yields: the estimate.
///
/// `tier` and `log_std` are vestiges of the retired tiered pipeline: the
/// service writes `0` / `0.0` and reads neither. They stay only because
/// the frozen benchmark package (`crates/bench/src/bin/benchmark`) names
/// them in a struct literal; ROADMAP lists them for the next
/// `[benchmark]` PR to drop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CachedEstimate {
    /// Estimated cardinality (≥ 1).
    pub cardinality: f64,
    /// Always 0; see the type docs.
    pub tier: u8,
    /// Always 0.0; see the type docs.
    pub log_std: f64,
}

const NIL: usize = usize::MAX;

struct Node {
    key: Vec<u8>,
    value: CachedEstimate,
    prev: usize,
    next: usize,
}

/// One shard: HashMap index into a slab of intrusively linked nodes,
/// most-recently-used at `head`.
struct Shard {
    map: HashMap<Vec<u8>, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.nodes[h].prev = idx,
        }
        self.head = idx;
    }

    fn get(&mut self, key: &[u8]) -> Option<CachedEstimate> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(self.nodes[idx].value)
    }

    fn insert(&mut self, key: Vec<u8>, value: CachedEstimate) {
        if let Some(&idx) = self.map.get(&key) {
            self.nodes[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            // Evict the least-recently-used entry and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            let old_key = std::mem::take(&mut self.nodes[victim].key);
            self.map.remove(&old_key);
            self.free.push(victim);
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = Node { key: key.clone(), value, prev: NIL, next: NIL };
                idx
            }
            None => {
                self.nodes.push(Node { key: key.clone(), value, prev: NIL, next: NIL });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// A sharded, thread-safe LRU cache from canonical query bytes to
/// estimated cardinalities.
pub struct EstimateCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EstimateCache {
    /// Build a cache from `config`; a zero capacity disables caching.
    pub fn new(config: CacheConfig) -> Self {
        let shards = if config.capacity == 0 {
            Vec::new()
        } else {
            // Distribute the budget exactly: `extra` shards get one
            // entry more, so the sum equals `capacity` — never exceeds
            // it — and every shard holds at least one entry.
            let count = config.shards.clamp(1, config.capacity);
            let base = config.capacity / count;
            let extra = config.capacity % count;
            (0..count).map(|i| Mutex::new(Shard::new(base + usize::from(i < extra)))).collect()
        };
        EstimateCache { shards, hits: AtomicU64::new(0), misses: AtomicU64::new(0) }
    }

    /// False when built with zero capacity — callers can skip key
    /// construction entirely.
    pub fn enabled(&self) -> bool {
        !self.shards.is_empty()
    }

    fn shard(&self, key: &[u8]) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: &[u8]) -> Option<CachedEstimate> {
        if self.shards.is_empty() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let got = self.shard(key).lock().expect("cache shard poisoned").get(key);
        match got {
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

    /// Insert (or refresh) an entry, evicting the shard's LRU entry if
    /// the shard is at capacity. A no-op when the cache is disabled.
    pub fn insert(&self, key: Vec<u8>, value: CachedEstimate) {
        if self.shards.is_empty() {
            return;
        }
        self.shard(&key).lock().expect("cache shard poisoned").insert(key, value);
    }

    /// Number of resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (hit/miss counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").clear();
        }
    }

    /// Hit/miss counters and residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> Vec<u8> {
        i.to_le_bytes().to_vec()
    }

    fn val(cardinality: f64) -> CachedEstimate {
        CachedEstimate { cardinality, tier: 0, log_std: 0.0 }
    }

    #[test]
    fn hit_miss_and_promotion() {
        let cache = EstimateCache::new(CacheConfig { capacity: 2, shards: 1 });
        cache.insert(key(1), val(10.0));
        cache.insert(key(2), val(20.0));
        assert_eq!(cache.get(&key(1)), Some(val(10.0))); // promotes 1
        cache.insert(key(3), val(30.0)); // evicts 2, the LRU entry
        assert_eq!(cache.get(&key(2)), None);
        assert_eq!(cache.get(&key(1)), Some(val(10.0)));
        assert_eq!(cache.get(&key(3)), Some(val(30.0)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (3, 1, 2));
        assert!(stats.hit_rate() > 0.74 && stats.hit_rate() < 0.76);
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let cache = EstimateCache::new(CacheConfig { capacity: 2, shards: 1 });
        cache.insert(key(1), val(1.0));
        cache.insert(key(2), val(2.0));
        // Refresh: 1 becomes MRU and its value is replaced too.
        cache.insert(key(1), val(100.0));
        cache.insert(key(3), val(3.0)); // evicts 2
        assert_eq!(cache.get(&key(1)), Some(val(100.0)));
        assert_eq!(cache.get(&key(2)), None);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn eviction_cycles_reuse_slots() {
        let cache = EstimateCache::new(CacheConfig { capacity: 4, shards: 1 });
        for round in 0..50u32 {
            for i in 0..8 {
                cache.insert(key(round * 8 + i), val(f64::from(i)));
            }
        }
        assert_eq!(cache.len(), 4);
        // The last four inserted survive, in LRU order.
        for i in 4..8 {
            assert!(cache.get(&key(49 * 8 + i)).is_some());
        }
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = EstimateCache::new(CacheConfig { capacity: 0, shards: 8 });
        cache.insert(key(1), val(1.0));
        assert_eq!(cache.get(&key(1)), None);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache = EstimateCache::new(CacheConfig { capacity: 64, shards: 4 });
        for i in 0..64 {
            cache.insert(key(i), val(f64::from(i)));
        }
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(0)), None);
    }

    #[test]
    fn shards_split_the_capacity_budget() {
        // Non-divisible pairs must still respect the total budget.
        for (capacity, shards) in [(8, 4), (10, 8), (1, 8), (3, 16)] {
            let cache = EstimateCache::new(CacheConfig { capacity, shards });
            for i in 0..1000 {
                cache.insert(key(i), val(f64::from(i)));
            }
            assert!(
                cache.len() <= capacity,
                "resident {} > capacity {capacity} ({shards} shards)",
                cache.len()
            );
            assert!(!cache.is_empty(), "capacity {capacity} cache stored nothing");
        }
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = EstimateCache::new(CacheConfig { capacity: 256, shards: 8 });
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..500u32 {
                        let k = key(t * 1000 + (i % 100));
                        cache.insert(k.clone(), val(f64::from(i)));
                        if let Some(v) = cache.get(&k) {
                            assert!(v.cardinality >= 0.0);
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 256);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 2000);
    }
}
