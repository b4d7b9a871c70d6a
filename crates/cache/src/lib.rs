//! # lc-cache — registry query result caching and request coalescing
//!
//! The paper argues the distributed registry's metadata "caching can be
//! performed safely" because component metadata is mostly immutable
//! (§2.4.2). This crate supplies the three mechanisms the node threads
//! through its registry service, all expressed against **virtual time**
//! so a cached run stays byte-deterministic:
//!
//! * [`QueryCache`] — generation-stamped query→result entries with a TTL
//!   in [`SimTime`] and explicit invalidation (register / deregister /
//!   migrate broadcasts). The TTL is the staleness backstop for
//!   invalidations lost on a faulty fabric.
//! * [`Coalescer`] — singleflight bookkeeping: the first in-flight query
//!   for a key becomes the *leader*; identical queries issued while it
//!   is pending join it as followers instead of spawning their own
//!   network search.
//! * [`Singleflight`] — the same leader/follower merge as a standalone
//!   continuation table, for callers outside the node's unified
//!   continuation machinery. The leader's completion (success *or*
//!   failure) fans out to every follower.
//!
//! Determinism: no wall clock, no RNG, no `HashMap` — every structure
//! iterates in key order, and expiry compares [`SimTime`] stamps the
//! simulation supplies.

use lc_des::SimTime;
use std::collections::BTreeMap;

/// Counters a cache accumulates; read through `NodeState::cache_stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a fresh entry.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries evicted because their age reached the TTL.
    pub stale_evictions: u64,
    /// Invalidation rounds applied (generation bumps).
    pub invalidations: u64,
    /// Entries removed by invalidations.
    pub invalidated_entries: u64,
}

struct CachedEntry<V> {
    value: V,
    stored_at: SimTime,
    generation: u64,
}

/// A query-result cache with per-entry generation stamps and a TTL
/// expressed in virtual time.
///
/// An entry is *fresh* while `now - stored_at < ttl`; at `age == ttl`
/// it is stale (the same closed/open convention as the continuation
/// sweep's `deadline <= now`). Invalidation bumps a monotone per-cache
/// generation and removes matching entries — surviving entries keep
/// their stamp, so an observer can tell which coherence epoch a result
/// came from.
pub struct QueryCache<K: Ord + Clone, V> {
    ttl: SimTime,
    generation: u64,
    entries: BTreeMap<K, CachedEntry<V>>,
    stats: CacheStats,
}

impl<K: Ord + Clone, V> QueryCache<K, V> {
    /// An empty cache whose entries live for `ttl` of virtual time.
    pub fn new(ttl: SimTime) -> Self {
        QueryCache { ttl, generation: 0, entries: BTreeMap::new(), stats: CacheStats::default() }
    }

    /// The configured TTL.
    pub fn ttl(&self) -> SimTime {
        self.ttl
    }

    /// The current invalidation generation (monotone, starts at 0).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Live entries (fresh or not yet observed stale).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No live entries?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Store a result under `key`, stamped with the current time and
    /// generation. Overwrites any previous entry.
    pub fn insert(&mut self, key: K, value: V, now: SimTime) {
        self.entries
            .insert(key, CachedEntry { value, stored_at: now, generation: self.generation });
    }

    /// Look up `key`. A fresh entry is a hit and returns the value with
    /// its age; an entry whose age reached the TTL is evicted (counted
    /// under `stale_evictions`) and the lookup is a miss.
    pub fn get(&mut self, key: &K, now: SimTime) -> Option<(&V, SimTime)> {
        let fresh = match self.entries.get(key) {
            None => {
                self.stats.misses += 1;
                return None;
            }
            Some(e) => now.saturating_sub(e.stored_at) < self.ttl,
        };
        if !fresh {
            self.entries.remove(key);
            self.stats.stale_evictions += 1;
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        let e = &self.entries[key];
        Some((&e.value, now.saturating_sub(e.stored_at)))
    }

    /// The generation a live entry was stored under, if present
    /// (fresh or not — freshness is [`Self::get`]'s concern).
    pub fn entry_generation(&self, key: &K) -> Option<u64> {
        self.entries.get(key).map(|e| e.generation)
    }

    /// Apply one invalidation round: bump the generation and remove
    /// every entry `pred` matches. Returns how many entries fell.
    /// The generation advances even when nothing matched — observers
    /// count coherence events, not evictions.
    pub fn invalidate_matching(&mut self, mut pred: impl FnMut(&K, &V) -> bool) -> usize {
        self.generation += 1;
        self.stats.invalidations += 1;
        let victims: Vec<K> = self
            .entries
            .iter()
            .filter(|(k, e)| pred(k, &e.value))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &victims {
            self.entries.remove(k);
        }
        self.stats.invalidated_entries += victims.len() as u64;
        victims.len()
    }

    /// Invalidate everything (one generation bump).
    pub fn invalidate_all(&mut self) -> usize {
        self.invalidate_matching(|_, _| true)
    }
}

/// A per-publisher generation vector: the anti-entropy summary one
/// registry replica exchanges with another. Each publisher (keyed by an
/// opaque `u64`, in practice the host id) advances its own generation
/// when its inventory for a component actually changes; a replica
/// holding `{p → g}` knows everything publisher `p` said up to
/// generation `g`. Two vectors reconcile by element-wise max — a digest
/// round sends the vector, the peer answers with entries it holds at a
/// strictly newer generation (or that the digest lacks entirely), and
/// both sides converge without re-shipping the full inventory.
///
/// This generalises [`QueryCache::generation`] (one monotone counter
/// per node) to one counter per publisher per shard, which is what a
/// *sharded* registry needs: a replica can tell exactly which
/// publisher's updates it missed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GenVector {
    gens: BTreeMap<u64, u64>,
}

impl GenVector {
    /// An empty vector (knows nothing about anyone).
    pub fn new() -> Self {
        Self::default()
    }

    /// The generation recorded for `publisher` (0 = nothing known).
    pub fn get(&self, publisher: u64) -> u64 {
        self.gens.get(&publisher).copied().unwrap_or(0)
    }

    /// Record `generation` for `publisher` if it is newer than what we
    /// hold. Returns `true` when the vector advanced.
    pub fn observe(&mut self, publisher: u64, generation: u64) -> bool {
        let slot = self.gens.entry(publisher).or_insert(0);
        if generation > *slot {
            *slot = generation;
            true
        } else {
            false
        }
    }

    /// Element-wise max merge. Returns how many entries advanced.
    pub fn merge(&mut self, other: &GenVector) -> usize {
        other.iter().filter(|&(p, g)| self.observe(p, g)).count()
    }

    /// Publishers where *we* are strictly ahead of `other` — the
    /// entries an anti-entropy responder must ship back.
    pub fn ahead_of<'a>(&'a self, other: &'a GenVector) -> impl Iterator<Item = (u64, u64)> + 'a {
        self.iter().filter(move |&(p, g)| g > other.get(p))
    }

    /// `(publisher, generation)` pairs in publisher order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.gens.iter().map(|(&p, &g)| (p, g))
    }

    /// Number of publishers known.
    pub fn len(&self) -> usize {
        self.gens.len()
    }

    /// Knows nothing?
    pub fn is_empty(&self) -> bool {
        self.gens.is_empty()
    }

    /// Forget a publisher (its entries expired away).
    pub fn forget(&mut self, publisher: u64) {
        self.gens.remove(&publisher);
    }
}

/// Singleflight bookkeeping for the node's registry: maps an in-flight
/// query key to the *leader* continuation's sequence number. Followers
/// attach themselves to the leader's pending entry; this table only
/// answers "is someone already searching for this?".
#[derive(Default)]
pub struct Coalescer<K: Ord + Clone> {
    inflight: BTreeMap<K, u64>,
    /// Queries merged onto an existing leader.
    coalesced: u64,
}

impl<K: Ord + Clone> Coalescer<K> {
    /// An empty table.
    pub fn new() -> Self {
        Coalescer { inflight: BTreeMap::new(), coalesced: 0 }
    }

    /// The leader's sequence for `key`, if a flight is in progress.
    pub fn leader_of(&self, key: &K) -> Option<u64> {
        self.inflight.get(key).copied()
    }

    /// Register `seq` as the leader for `key`. Returns `false` (and
    /// changes nothing) if a leader already exists.
    pub fn lead(&mut self, key: K, seq: u64) -> bool {
        if self.inflight.contains_key(&key) {
            return false;
        }
        self.inflight.insert(key, seq);
        true
    }

    /// Note one follower merged onto a leader.
    pub fn note_coalesced(&mut self) {
        self.coalesced += 1;
    }

    /// The flight for `key` completed; forget it. Returns the leader
    /// sequence, if one was registered.
    pub fn finish(&mut self, key: &K) -> Option<u64> {
        self.inflight.remove(key)
    }

    /// Flights currently in progress.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// How many queries merged onto an existing leader so far.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }
}

/// Whether a [`Singleflight::join`] caller leads or follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flight {
    /// First caller for the key: perform the work, then
    /// [`Singleflight::complete`].
    Leader,
    /// Merged onto an in-flight leader; the callback fires at
    /// completion.
    Follower,
}

type Callback<R> = Box<dyn FnMut(&R)>;

/// Standalone leader/follower request merging: the first `join` for a
/// key leads, later joins follow, and `complete` fans the leader's
/// result — success or failure alike — to every caller's callback in
/// join order.
#[derive(Default)]
pub struct Singleflight<K: Ord + Clone, R> {
    flights: BTreeMap<K, Vec<Callback<R>>>,
}

impl<K: Ord + Clone, R> Singleflight<K, R> {
    /// An empty table.
    pub fn new() -> Self {
        Singleflight { flights: BTreeMap::new() }
    }

    /// Join the flight for `key`; `on_done` fires (for leader and
    /// followers alike) when the leader completes the flight.
    pub fn join(&mut self, key: K, on_done: impl FnMut(&R) + 'static) -> Flight {
        let entry = self.flights.entry(key);
        let role = match &entry {
            std::collections::btree_map::Entry::Vacant(_) => Flight::Leader,
            std::collections::btree_map::Entry::Occupied(_) => Flight::Follower,
        };
        entry.or_default().push(Box::new(on_done));
        role
    }

    /// Complete the flight for `key`: every joined callback observes the
    /// same `result`, leader first, then followers in join order.
    /// Returns how many callbacks fired (0 if no flight was pending).
    pub fn complete(&mut self, key: &K, result: &R) -> usize {
        let Some(mut callbacks) = self.flights.remove(key) else { return 0 };
        for cb in callbacks.iter_mut() {
            cb(result);
        }
        callbacks.len()
    }

    /// Flights currently in progress.
    pub fn inflight(&self) -> usize {
        self.flights.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    const MS: fn(u64) -> SimTime = SimTime::from_millis;

    #[test]
    fn fresh_hit_stale_evict() {
        let mut c: QueryCache<&str, u32> = QueryCache::new(MS(100));
        c.insert("q", 7, MS(0));
        // age 99 < ttl: hit, with its age
        assert_eq!(c.get(&"q", MS(99)), Some((&7, MS(99))));
        // age == ttl: stale — evicted, miss
        c.insert("q", 7, MS(0));
        assert_eq!(c.get(&"q", MS(100)), None);
        assert_eq!(c.len(), 0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stale_evictions), (1, 1, 1));
    }

    #[test]
    fn generations_are_monotone_and_stamp_entries() {
        let mut c: QueryCache<&str, u32> = QueryCache::new(MS(1000));
        c.insert("a", 1, MS(0));
        assert_eq!(c.entry_generation(&"a"), Some(0));
        let mut last = c.generation();
        for round in 0..5 {
            c.invalidate_matching(|_, _| false); // even a no-op round advances
            assert!(c.generation() > last, "round {round}: generation must grow");
            last = c.generation();
        }
        c.insert("b", 2, MS(1));
        assert_eq!(c.entry_generation(&"b"), Some(last));
        // "a" survived the no-op rounds under its original stamp
        assert_eq!(c.entry_generation(&"a"), Some(0));
    }

    #[test]
    fn invalidation_removes_matching_only() {
        let mut c: QueryCache<String, Vec<&str>> = QueryCache::new(MS(1000));
        c.insert("q1".into(), vec!["Counter"], MS(0));
        c.insert("q2".into(), vec!["Clock"], MS(0));
        let fell = c.invalidate_matching(|_, v| v.contains(&"Counter"));
        assert_eq!(fell, 1);
        assert_eq!(c.get(&"q1".into(), MS(1)), None);
        assert!(c.get(&"q2".into(), MS(1)).is_some());
        assert_eq!(c.stats().invalidated_entries, 1);
        assert_eq!(c.invalidate_all(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn gen_vector_observes_only_forward() {
        let mut v = GenVector::new();
        assert_eq!(v.get(3), 0);
        assert!(v.observe(3, 2));
        assert!(!v.observe(3, 2), "equal generation is not news");
        assert!(!v.observe(3, 1), "older generation is not news");
        assert!(v.observe(3, 5));
        assert_eq!(v.get(3), 5);
        assert_eq!(v.len(), 1);
        v.forget(3);
        assert!(v.is_empty());
    }

    #[test]
    fn gen_vector_merge_and_ahead_converge() {
        let mut a = GenVector::new();
        let mut b = GenVector::new();
        a.observe(1, 4);
        a.observe(2, 1);
        b.observe(2, 3);
        b.observe(9, 7);
        // b answers a's digest with what it holds strictly newer
        let reply: Vec<_> = b.ahead_of(&a).collect();
        assert_eq!(reply, vec![(2, 3), (9, 7)]);
        assert_eq!(a.merge(&b), 2);
        assert_eq!(b.merge(&a), 1); // picks up publisher 1
        assert_eq!(a, b, "element-wise max merge converges both replicas");
        assert_eq!(a.ahead_of(&b).count(), 0);
        let all: Vec<_> = a.iter().collect();
        assert_eq!(all, vec![(1, 4), (2, 3), (9, 7)]);
    }

    #[test]
    fn coalescer_single_leader() {
        let mut co: Coalescer<String> = Coalescer::new();
        assert!(co.lead("q".into(), 10));
        assert!(!co.lead("q".into(), 11), "second leader refused");
        assert_eq!(co.leader_of(&"q".into()), Some(10));
        co.note_coalesced();
        co.note_coalesced();
        assert_eq!(co.coalesced(), 2);
        assert_eq!(co.finish(&"q".into()), Some(10));
        assert_eq!(co.leader_of(&"q".into()), None);
        assert_eq!(co.finish(&"q".into()), None);
        assert_eq!(co.inflight(), 0);
    }

    #[test]
    fn singleflight_fans_out_one_result() {
        let mut sf: Singleflight<&str, Result<u32, String>> = Singleflight::new();
        type Seen = Rc<RefCell<Vec<(u8, Result<u32, String>)>>>;
        let seen: Seen = Rc::default();
        for who in 0..3u8 {
            let seen = seen.clone();
            let role = sf.join("k", move |r: &Result<u32, String>| {
                seen.borrow_mut().push((who, r.clone()));
            });
            assert_eq!(role, if who == 0 { Flight::Leader } else { Flight::Follower });
        }
        assert_eq!(sf.inflight(), 1);
        assert_eq!(sf.complete(&"k", &Ok(42)), 3);
        assert_eq!(sf.inflight(), 0);
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3);
        // leader first, followers in join order, all with the same value
        assert_eq!(
            *seen,
            vec![(0, Ok(42)), (1, Ok(42)), (2, Ok(42))]
        );
        // completing a finished flight is a no-op
        assert_eq!(sf.complete(&"k", &Ok(1)), 0);
    }

    #[test]
    fn singleflight_leader_failure_fans_same_error() {
        let mut sf: Singleflight<&str, Result<u32, String>> = Singleflight::new();
        let errs: Rc<RefCell<Vec<String>>> = Rc::default();
        for _ in 0..4 {
            let errs = errs.clone();
            sf.join("k", move |r: &Result<u32, String>| {
                if let Err(e) = r {
                    errs.borrow_mut().push(e.clone());
                }
            });
        }
        sf.complete(&"k", &Err("timeout".into()));
        assert_eq!(*errs.borrow(), vec!["timeout"; 4]);
    }
}
