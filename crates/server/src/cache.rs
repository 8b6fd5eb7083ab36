//! A small scan-resistant LRU cache for query results.
//!
//! Region and slice queries are the expensive reads (they touch up to the
//! whole cube); the service caches their encoded responses with **one
//! entry per canonical query string**. The entry's value carries the
//! per-shard epoch vector of the slabs the query read (and the live
//! event count, which scales every normalized value) — see
//! [`CubeSnapshot::cache_epoch_key`](stkde_core::CubeSnapshot::cache_epoch_key).
//! A lookup is a hit only if that stored key equals the current one, so
//! a stale body can never be served; the recompute then overwrites the
//! query's entry in place, so a superseded epoch holds no slot. A write
//! that only touched *other* shards (and left the live count unchanged)
//! keeps the key intact, so sharding makes the cache *more* durable.
//!
//! **Admission.** Until the cache is full every insert is admitted. Once
//! it is full, a key with no entry is admitted only on its *second* miss:
//! a first insert records the key's hash in a doorkeeper — a ring of the
//! hashes of the last `cap` refused keys — drops the value and evicts
//! nothing. A key whose hash is already there takes the least recently
//! used slot. A stream of one-shot queries (wide `/region` boxes nobody
//! repeats) therefore cannot flush the repeated ones (`/slice` planes,
//! hot boxes) that the cache exists for. A hash collision can only admit
//! a key early; correctness never rests on it, because keys (and the
//! service's epoch keys) are still compared in full.
//!
//! Capacities are tiny (tens of entries), so lookup stays a linear scan
//! — but recency is a per-entry stamp, not vector order: a hit bumps one
//! `u64`, and eviction replaces the minimum-stamp slot in place. The service stores encoded response bodies as
//! `Arc<[u8]>`, so a hit is a refcount bump, never a byte copy.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};

/// An LRU cache that admits a new key into a full cache on its second
/// miss.
#[derive(Debug)]
pub struct LruCache<K, V> {
    cap: usize,
    /// Unordered storage; the `u64` is the entry's last-use stamp.
    entries: Vec<(K, V, u64)>,
    /// Monotone use counter handing out recency stamps.
    tick: u64,
    /// Hashes of the last `cap` keys refused admission, oldest first.
    doorkeeper: VecDeque<u64>,
}

/// A key's doorkeeper hash: std's SipHash with fixed keys, so admission
/// decisions are the same in every process.
fn hash_of<Q: Hash + ?Sized>(key: &Q) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(key)
}

impl<K: Eq + Hash, V: Clone> LruCache<K, V> {
    /// A cache holding at most `cap` entries.
    ///
    /// # Panics
    /// Panics if `cap` is 0.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "an LruCache holds at least one entry");
        Self {
            cap,
            entries: Vec::new(),
            tick: 0,
            doorkeeper: VecDeque::new(),
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn find<Q>(&mut self, key: &Q) -> Option<&mut (K, V, u64)>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        self.entries.iter_mut().find(|(k, _, _)| k.borrow() == key)
    }

    /// Look up `key`, marking it most-recently-used on a hit. The value
    /// comes back via `Clone` — for the service's `Arc<[u8]>` bodies
    /// that is a refcount bump, not a copy of the encoded payload.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let tick = self.next_tick();
        let entry = self.find(key)?;
        entry.2 = tick;
        Some(entry.1.clone())
    }

    /// Insert or refresh an entry; `true` if the value was stored.
    ///
    /// A resident key is refreshed in place. A new key is stored while
    /// the cache has room; in a full cache it is stored — replacing the
    /// least recently used entry — only if it was refused before and is
    /// still remembered by the doorkeeper. Otherwise its hash is
    /// remembered, the value is dropped and nothing is evicted.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        let tick = self.next_tick();
        if let Some(entry) = self.find(&key) {
            entry.1 = value;
            entry.2 = tick;
            return true;
        }
        if self.entries.len() < self.cap {
            self.entries.push((key, value, tick));
            return true;
        }
        let hash = hash_of(&key);
        let Some(seen) = self.doorkeeper.iter().position(|&h| h == hash) else {
            if self.doorkeeper.len() == self.cap {
                self.doorkeeper.pop_front();
            }
            self.doorkeeper.push_back(hash);
            return false;
        };
        self.doorkeeper.remove(seen);
        // Second miss: overwrite the stalest slot in place (no shifting).
        let lru = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, _, stamp))| *stamp)
            .map(|(i, _)| i)
            .expect("cap > 0 and the cache is full");
        self.entries[lru] = (key, value, tick);
        true
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn hit_miss_and_promotion() {
        let mut c: LruCache<u32, &str> = LruCache::new(2);
        assert_eq!(c.get(&1), None);
        c.insert(1, "one");
        c.insert(2, "two");
        assert_eq!(c.get(&1), Some("one")); // promotes 1
        assert!(!c.insert(3, "three")); // first miss: refused
        assert!(c.insert(3, "three")); // second miss: evicts 2 (LRU)
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some("one"));
        assert_eq!(c.get(&3), Some("three"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        c.insert(1, 10);
        c.insert(1, 11);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(11));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_is_refused() {
        let _ = LruCache::<u32, u32>::new(0);
    }

    #[test]
    fn shared_bodies_are_refcounted_not_copied() {
        // The serving regression this cache had: `get` promoted by
        // remove+insert(0) (two O(n) shifts) and the value clone was a
        // payload copy for owned types. With `Arc<[u8]>` values, a hit
        // must hand back the *same allocation*.
        let mut c: LruCache<u32, Arc<[u8]>> = LruCache::new(2);
        let body: Arc<[u8]> = b"{\"sum\":1.0}".as_slice().into();
        c.insert(7, Arc::clone(&body));
        let hit = c.get(&7).expect("just inserted");
        assert!(
            Arc::ptr_eq(&hit, &body),
            "cache hit must share the stored allocation"
        );
        // original + cached copy + returned hit
        assert_eq!(Arc::strong_count(&body), 3);
    }

    #[test]
    fn eviction_follows_stamp_recency_under_churn() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        // Touch 1 and 3; 2 becomes the LRU and must be the one replaced.
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        c.insert(4, 40);
        c.insert(4, 40);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.get(&4), Some(40));
    }

    #[test]
    fn one_shot_keys_cannot_flush_a_full_cache() {
        let cap = 8;
        let mut c: LruCache<u32, u32> = LruCache::new(cap);
        for k in 0..cap as u32 {
            assert!(c.insert(k, k));
        }
        for k in 0..10 * cap as u32 {
            assert!(!c.insert(1000 + k, k), "one-shot key {k} was admitted");
            for resident in 0..cap as u32 {
                assert_eq!(c.get(&resident), Some(resident));
            }
        }
        assert_eq!(c.len(), cap);
    }

    #[test]
    fn second_miss_admits_and_evicts_the_stamp_lru_slot() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        for k in 1..=3 {
            c.insert(k, 10 * k);
        }
        // 1 becomes the LRU: 2 and 3 are touched after it.
        assert_eq!(c.get(&2), Some(20));
        assert_eq!(c.get(&3), Some(30));
        assert!(!c.insert(9, 90));
        assert_eq!(c.get(&9), None);
        assert_eq!(c.len(), 3);
        assert!(c.insert(9, 90));
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&9), Some(90));
        assert_eq!(c.get(&2), Some(20));
        assert_eq!(c.get(&3), Some(30));
    }

    #[test]
    fn every_insert_is_admitted_until_full() {
        let cap = 64;
        let mut c: LruCache<u32, u32> = LruCache::new(cap);
        for k in 0..cap as u32 {
            assert!(c.insert(k, k), "insert {k} of a non-full cache refused");
            assert_eq!(c.len(), k as usize + 1);
        }
        assert!(!c.insert(cap as u32, 0));
        assert_eq!(c.get(&(cap as u32)), None);
        assert_eq!(c.len(), cap);
    }
}
