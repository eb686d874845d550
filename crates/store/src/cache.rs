//! LRU cache for query answers — the daemon's only answer cache. Every
//! query tag (`REQ_QUERY`, `REQ_ESTIMATE`, `REQ_ESTIMATE_COV`, watch
//! evaluations) reads and fills it through [`crate::Store::answer`], keyed
//! once per estimate by [`crate::Store::lookup`]; the legacy value-only tag
//! is a box estimate at confidence 0.95, so it shares a line with a
//! `REQ_ESTIMATE` of the same box at 0.95. The daemon's event loop also
//! reads it, never waiting for the lock, through
//! [`crate::Store::cached_estimate`], and calls `Store::answer` itself
//! only while no worker is running a job; only `Store::answer` fills it.
//!
//! Keys embed the **series stamp** of the `(dataset, kind)` series they
//! read ([`crate::Snapshot::series_version`]): the global snapshot version
//! at which that series' window set last changed. An answer is a pure
//! function of the series' windows, and the store re-stamps a series on
//! every publish that adds, removes or replaces one of its windows, so a
//! cache entry can never serve a stale answer. Global versions are never
//! reused, so once a series is re-stamped its older entries stop being
//! addressable (and age out of the LRU), while a write to one series
//! leaves every other series' entries live.
//! The query itself is keyed by its **canonical wire bytes**
//! ([`sas_summaries::Query::canonical_bytes`]): equivalent spellings — a
//! full-domain box and `Total`, a point and its degenerate box, re-ordered
//! multi-range boxes — share one cache line. Lookups and inserts take a
//! short mutex; the summaries themselves are never touched under the lock.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use sas_summaries::Estimate;

/// What a cached answer is keyed by: the series stamp plus the full query
/// coordinates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Stamp of the `(dataset, kind)` series the answer reads
    /// ([`crate::Snapshot::series_version`]) — never the global version.
    pub series_version: u64,
    /// Dataset name.
    pub dataset: String,
    /// Summary kind wire tag.
    pub kind_tag: u16,
    /// Canonical wire bytes of the query.
    pub query: Vec<u8>,
    /// Bit pattern of the requested confidence.
    pub confidence_bits: u64,
    /// Optional window-time filter.
    pub time: Option<(u64, u64)>,
}

/// A cached answer: the estimate and the window count it consulted (both
/// pure functions of the versioned key, so a hit answers the whole query
/// without touching the catalog).
type Answer = (Estimate, u64);

#[derive(Debug, Default)]
struct Inner {
    /// key → (answer, recency stamp)
    map: HashMap<CacheKey, (Answer, u64)>,
    /// recency stamp → key (oldest first; stamps are unique)
    order: BTreeMap<u64, CacheKey>,
    next_stamp: u64,
}

impl Inner {
    /// The lookup both [`QueryCache::get`] and [`QueryCache::try_get`]
    /// run: the answer, with its recency refreshed on a hit.
    fn touch(&mut self, key: &CacheKey) -> Option<Answer> {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let (value, at) = self.map.get_mut(key)?;
        let old_stamp = std::mem::replace(at, stamp);
        let value = *value;
        self.order.remove(&old_stamp);
        self.order.insert(stamp, key.clone());
        Some(value)
    }
}

/// A fixed-capacity LRU map from query coordinates to answers.
#[derive(Debug)]
pub struct QueryCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` answers (0 disables it).
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            inner: Mutex::new(Inner::default()),
            capacity,
        }
    }

    /// Looks up an answer, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<(Estimate, u64)> {
        if self.capacity == 0 {
            return None;
        }
        self.inner.lock().expect("cache lock").touch(key)
    }

    /// [`QueryCache::get`] without waiting: a lock held elsewhere reads as
    /// a miss, and leaves recency untouched. The daemon's event loop
    /// probes through this, so it never blocks behind a worker's lookup
    /// or fill.
    pub fn try_get(&self, key: &CacheKey) -> Option<(Estimate, u64)> {
        if self.capacity == 0 {
            return None;
        }
        self.inner.try_lock().ok()?.touch(key)
    }

    /// Stores an answer, evicting the least-recently-used entry at
    /// capacity.
    pub fn put(&self, key: CacheKey, value: (Estimate, u64)) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        if let Some((_, old_stamp)) = inner.map.insert(key.clone(), (value, stamp)) {
            inner.order.remove(&old_stamp);
        }
        inner.order.insert(stamp, key);
        while inner.map.len() > self.capacity {
            let (&oldest, _) = inner.order.iter().next().expect("non-empty order index");
            let victim = inner.order.remove(&oldest).expect("indexed key");
            inner.map.remove(&victim);
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sas_summaries::Query;

    fn key(series_version: u64, lo: u64) -> CacheKey {
        CacheKey {
            series_version,
            dataset: "d".into(),
            kind_tag: 1,
            query: Query::interval(lo, lo + 10).canonical_bytes().unwrap(),
            confidence_bits: 0.95f64.to_bits(),
            time: None,
        }
    }

    fn plain(v: f64) -> (Estimate, u64) {
        (Estimate::exact(v), 1)
    }

    #[test]
    fn hit_miss_and_series_version_isolation() {
        let cache = QueryCache::new(8);
        assert_eq!(cache.get(&key(1, 0)), None);
        cache.put(key(1, 0), plain(42.0));
        assert_eq!(cache.get(&key(1, 0)), Some(plain(42.0)));
        // A new series stamp misses — stale answers are unaddressable.
        assert_eq!(cache.get(&key(2, 0)), None);
    }

    #[test]
    fn canonical_spellings_share_a_line() {
        let cache = QueryCache::new(8);
        let spellings = [
            Query::BoxRange(vec![(0, u64::MAX)]),
            Query::Total,
            Query::HierarchyNode {
                level: 64,
                index: 0,
            },
        ];
        let mk = |q: &Query| CacheKey {
            series_version: 1,
            dataset: "d".into(),
            kind_tag: 1,
            query: q.canonical_bytes().unwrap(),
            confidence_bits: 0.95f64.to_bits(),
            time: None,
        };
        cache.put(mk(&spellings[0]), plain(7.0));
        for q in &spellings {
            assert_eq!(cache.get(&mk(q)), Some(plain(7.0)), "{q}");
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn confidence_isolates_estimates() {
        let cache = QueryCache::new(8);
        let mk = |confidence: f64| CacheKey {
            confidence_bits: confidence.to_bits(),
            ..key(1, 0)
        };
        let est = (
            Estimate {
                value: 5.0,
                variance: 1.0,
                lower: 3.0,
                upper: 8.0,
                confidence: 0.95,
            },
            2,
        );
        cache.put(mk(0.95), est);
        assert_eq!(cache.get(&mk(0.95)), Some(est));
        // A different confidence is a different answer.
        assert_eq!(cache.get(&mk(0.5)), None);
        assert_eq!(cache.get(&mk(0.99)), None);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = QueryCache::new(2);
        cache.put(key(1, 0), plain(0.0));
        cache.put(key(1, 100), plain(1.0));
        // Touch key 0 so key 100 is the LRU victim.
        assert_eq!(cache.get(&key(1, 0)), Some(plain(0.0)));
        cache.put(key(1, 200), plain(2.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(1, 100)), None, "LRU entry evicted");
        assert_eq!(cache.get(&key(1, 0)), Some(plain(0.0)));
        assert_eq!(cache.get(&key(1, 200)), Some(plain(2.0)));
    }

    #[test]
    fn reinsert_updates_value_without_growing() {
        let cache = QueryCache::new(2);
        cache.put(key(1, 0), plain(1.0));
        cache.put(key(1, 0), plain(2.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(1, 0)), Some(plain(2.0)));
    }

    #[test]
    fn try_get_reads_a_held_lock_as_a_miss_and_keeps_recency() {
        let cache = QueryCache::new(2);
        cache.put(key(1, 0), plain(0.0));
        cache.put(key(1, 100), plain(1.0));
        {
            let _held = cache.inner.lock().unwrap();
            // Returns at once (a blocking lookup would deadlock here).
            assert_eq!(cache.try_get(&key(1, 0)), None);
        }
        // The busy probe did not refresh key 0, so it is still the LRU
        // victim.
        cache.put(key(1, 200), plain(2.0));
        assert_eq!(cache.get(&key(1, 0)), None, "LRU entry evicted");
        // With the lock free, a hit refreshes recency exactly like `get`.
        assert_eq!(cache.try_get(&key(1, 100)), Some(plain(1.0)));
        cache.put(key(1, 300), plain(3.0));
        assert_eq!(cache.get(&key(1, 200)), None, "key 200 was the LRU");
        assert_eq!(cache.get(&key(1, 100)), Some(plain(1.0)));
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = QueryCache::new(0);
        cache.put(key(1, 0), plain(1.0));
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key(1, 0)), None);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(QueryCache::new(64));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        cache.put(key(t, (i % 40) * 100), plain(i as f64));
                        cache.get(&key(t, ((i + 7) % 40) * 100));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.len() <= 64);
    }
}
