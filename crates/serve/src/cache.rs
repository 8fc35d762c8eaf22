//! The prefix cache.
//!
//! Sweep batches repeat a prefix: many jobs share a machine shape, seed
//! and workload and differ only in how far (or with what telemetry) they
//! run. Each executing job deposits its checkpoints here keyed by
//! [`crate::spec::JobSpec::prefix_key`]; a later job with the same key
//! takes the latest checkpoint at or below its own cycle target and
//! simulates only the suffix. The server stores machine images
//! ([`crate::image::Image`]: a resume is a fork, never a restore); the
//! cache itself is generic over what a checkpoint is, and its default,
//! `Vec<u8>`, holds `ULTRASNP` frames, which hold a machine's recipe
//! and replay it on restore. Either way a checkpoint resumes
//! bit-identically to having run the prefix, so cached resumes change
//! wall-clock only, never results.
//!
//! The cache is bounded: all keys share one byte budget
//! ([`CACHE_BUDGET_BYTES`]), each entry costs its [`Footprint`], and the
//! least recently used entry — inserted or handed out longest ago — goes
//! first. An ascending sweep keeps reading the entry it wrote last, so it
//! never loses its resume point to its own history.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ultra_obs::metrics::Counter as MetricCounter;
use ultra_sim::Cycle;

/// Bytes of checkpoints the cache holds across all keys. One entry larger
/// than this is still admitted, alone, so a sweep over a machine that
/// outgrows the budget keeps resuming.
pub const CACHE_BUDGET_BYTES: usize = 32 << 20;

/// What one cached checkpoint costs against [`CACHE_BUDGET_BYTES`].
pub trait Footprint {
    /// Heap bytes the checkpoint keeps alive (an estimate will do; it is
    /// read once, when the checkpoint is inserted).
    fn footprint_bytes(&self) -> usize;
}

impl Footprint for Vec<u8> {
    fn footprint_bytes(&self) -> usize {
        self.len()
    }
}

/// Live instruments the cache reports into (registered by
/// `crate::obs::ServeObs::cache_meter`). The cache keeps its own local
/// hit/miss counts regardless; the meter mirrors them into the metrics
/// registry.
#[derive(Clone)]
pub struct CacheMeter {
    /// Lookups that found a usable checkpoint.
    pub hits: Arc<MetricCounter>,
    /// Lookups that found nothing.
    pub misses: Arc<MetricCounter>,
    /// Checkpoints evicted to stay inside the byte budget.
    pub evictions: Arc<MetricCounter>,
}

struct Entry<T> {
    payload: Arc<T>,
    bytes: usize,
    /// This entry's key in [`Shelf::lru`].
    used: u64,
}

/// Everything behind the cache's one lock.
struct Shelf<T> {
    /// Checkpoints of each prefix, indexed by the cycle they were taken at.
    by_key: HashMap<Arc<str>, BTreeMap<Cycle, Entry<T>>>,
    /// Use stamp → entry, oldest first: the eviction order.
    lru: BTreeMap<u64, (Arc<str>, Cycle)>,
    clock: u64,
    bytes: usize,
}

impl<T> Shelf<T> {
    fn stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The latest checkpoint of `key` at or below `cycle`, which becomes
    /// the most recently used.
    fn touch_best(&mut self, key: &str, cycle: Cycle) -> Option<(Cycle, Arc<T>)> {
        let used = self.stamp();
        let (&at, entry) = self.by_key.get_mut(key)?.range_mut(..=cycle).next_back()?;
        let slot = self.lru.remove(&entry.used).expect("every entry is listed");
        self.lru.insert(used, slot);
        entry.used = used;
        Some((at, Arc::clone(&entry.payload)))
    }

    /// Takes `(key, cycle)` off the shelf, if it is there.
    fn remove(&mut self, key: &str, cycle: Cycle) -> Option<Arc<T>> {
        let slots = self.by_key.get_mut(key)?;
        let entry = slots.remove(&cycle)?;
        if slots.is_empty() {
            self.by_key.remove(key);
        }
        self.lru.remove(&entry.used);
        self.bytes -= entry.bytes;
        Some(entry.payload)
    }
}

/// Shared checkpoint store (see the module docs). Interior mutability
/// throughout; share it by reference.
pub struct SnapshotCache<T = Vec<u8>> {
    shelf: Mutex<Shelf<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    meter: Option<CacheMeter>,
}

impl<T> Default for SnapshotCache<T> {
    fn default() -> Self {
        Self {
            shelf: Mutex::new(Shelf {
                by_key: HashMap::new(),
                lru: BTreeMap::new(),
                clock: 0,
                bytes: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            meter: None,
        }
    }
}

impl<T: Footprint> SnapshotCache<T> {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that mirrors hit/miss/eviction counts into
    /// `meter`.
    #[must_use]
    pub fn with_meter(meter: CacheMeter) -> Self {
        Self {
            meter: Some(meter),
            ..Self::default()
        }
    }

    /// Deposits a checkpoint of `key` taken at `cycle`, replacing one
    /// already there, then evicts least-recently-used checkpoints until
    /// the cache is back inside [`CACHE_BUDGET_BYTES`] or holds nothing
    /// but the newcomer.
    pub fn insert(&self, key: &str, cycle: Cycle, checkpoint: T) {
        let bytes = checkpoint.footprint_bytes();
        // Dropped after the lock is released: freeing a checkpoint (or
        // sending an image home) is not the cache's critical section.
        let mut displaced = Vec::new();
        let mut evicted = 0;
        {
            let mut shelf = self.shelf.lock().expect("cache poisoned");
            displaced.extend(shelf.remove(key, cycle));
            let used = shelf.stamp();
            let key: Arc<str> = Arc::from(key);
            shelf.lru.insert(used, (Arc::clone(&key), cycle));
            shelf.bytes += bytes;
            shelf.by_key.entry(key).or_default().insert(
                cycle,
                Entry {
                    payload: Arc::new(checkpoint),
                    bytes,
                    used,
                },
            );
            while shelf.bytes > CACHE_BUDGET_BYTES && shelf.lru.len() > 1 {
                let (_, (key, cycle)) = shelf.lru.pop_first().expect("more than one entry");
                displaced.extend(shelf.remove(&key, cycle));
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            if let Some(meter) = &self.meter {
                meter.evictions.add(evicted);
            }
        }
    }

    /// The latest checkpoint of `key` at or below `cycle`, if any.
    /// Counts a hit or a miss; a hit makes the checkpoint the most
    /// recently used.
    #[must_use]
    pub fn best_at_or_below(&self, key: &str, cycle: Cycle) -> Option<(Cycle, Arc<T>)> {
        let found = self
            .shelf
            .lock()
            .expect("cache poisoned")
            .touch_best(key, cycle);
        let meter = self.meter.as_ref();
        let (local, metered) = match found {
            Some(_) => (&self.hits, meter.map(|m| &m.hits)),
            None => (&self.misses, meter.map(|m| &m.misses)),
        };
        local.fetch_add(1, Ordering::Relaxed);
        if let Some(counter) = metered {
            counter.incr();
        }
        found
    }

    /// Lookups that found a usable checkpoint.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Checkpoints evicted by the byte budget since construction.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total checkpoints currently held, across all keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shelf.lock().expect("cache poisoned").lru.len()
    }

    /// Whether the cache holds no checkpoints.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accounted bytes of the checkpoints currently held: the sum of
    /// their footprints, at most [`CACHE_BUDGET_BYTES`] unless a single
    /// oversized checkpoint is held alone.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.shelf.lock().expect("cache poisoned").bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A checkpoint that says what it costs.
    struct Blob(u8, usize);

    impl Footprint for Blob {
        fn footprint_bytes(&self) -> usize {
            self.1
        }
    }

    /// A quarter of the budget: four fit, the fifth evicts.
    const QUARTER: usize = CACHE_BUDGET_BYTES / 4;

    #[test]
    fn returns_the_latest_checkpoint_at_or_below_the_target() {
        let cache = SnapshotCache::new();
        cache.insert("k", 100, vec![1]);
        cache.insert("k", 300, vec![3]);
        cache.insert("k", 200, vec![2]);
        let (at, snap) = cache.best_at_or_below("k", 250).unwrap();
        assert_eq!((at, snap[0]), (200, 2));
        let (at, _) = cache.best_at_or_below("k", 300).unwrap();
        assert_eq!(at, 300, "exact cycle counts as at-or-below");
        assert!(cache.best_at_or_below("k", 50).is_none());
        assert!(cache.best_at_or_below("other", 1000).is_none());
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        assert_eq!((cache.len(), cache.bytes()), (3, 3));
    }

    #[test]
    fn evicts_least_recently_used_checkpoints_beyond_the_byte_budget() {
        let cache = SnapshotCache::new();
        for cycle in 1..=4 {
            cache.insert("k", cycle * 10, Blob(cycle as u8, QUARTER));
        }
        assert_eq!((cache.len(), cache.bytes()), (4, CACHE_BUDGET_BYTES));
        // A hit is a use: cycle 10 is now younger than 20, 30 and 40.
        assert_eq!(cache.best_at_or_below("k", 10).unwrap().1 .0, 1);
        cache.insert("other", 7, Blob(5, QUARTER));
        cache.insert("k", 50, Blob(6, QUARTER));
        assert_eq!((cache.len(), cache.bytes()), (4, CACHE_BUDGET_BYTES));
        assert_eq!(cache.evictions(), 2);
        let (at, _) = cache.best_at_or_below("k", 39).expect("10 survives");
        assert_eq!(at, 10, "20 and 30 were the least recently used");
        assert!(cache.best_at_or_below("other", 7).is_some());

        // Replacing a checkpoint is not an eviction and is charged once.
        cache.insert("k", 50, Blob(7, 1));
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.bytes(), 3 * QUARTER + 1);
        assert_eq!(cache.best_at_or_below("k", 50).unwrap().1 .0, 7);

        // One entry larger than the whole budget is admitted, alone.
        cache.insert("huge", 1, Blob(8, CACHE_BUDGET_BYTES + 1));
        assert_eq!((cache.len(), cache.bytes()), (1, CACHE_BUDGET_BYTES + 1));
        assert_eq!(cache.evictions(), 6);
        assert!(cache.best_at_or_below("k", Cycle::MAX).is_none());
        cache.insert("k", 60, Blob(9, 1));
        assert_eq!((cache.len(), cache.bytes()), (1, 1), "and goes first");
    }

    #[test]
    fn evictions_are_counted_and_mirrored_into_the_meter() {
        let meter = CacheMeter {
            hits: Arc::new(MetricCounter::new()),
            misses: Arc::new(MetricCounter::new()),
            evictions: Arc::new(MetricCounter::new()),
        };
        let cache = SnapshotCache::with_meter(meter.clone());
        for cycle in 1..=6 {
            cache.insert("k", cycle * 10, Blob(cycle as u8, QUARTER));
        }
        assert_eq!(cache.evictions(), 2);
        assert_eq!(meter.evictions.get(), 2);
        let _ = cache.best_at_or_below("k", Cycle::MAX);
        let _ = cache.best_at_or_below("other", 1);
        assert_eq!((meter.hits.get(), meter.misses.get()), (1, 1));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn keys_are_fully_independent() {
        let cache = SnapshotCache::new();
        cache.insert("a", 10, vec![1]);
        cache.insert("b", 10, vec![2]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.best_at_or_below("a", 10).unwrap().1[0], 1);
        assert_eq!(cache.best_at_or_below("b", 10).unwrap().1[0], 2);
    }
}
