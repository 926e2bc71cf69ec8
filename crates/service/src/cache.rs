//! A small LRU cache keyed by content hashes.
//!
//! Values are stored behind [`Arc`] so a hit hands back a cheap clone while
//! eviction stays O(capacity) bookkeeping. Recency is tracked with a
//! monotonically increasing stamp per entry — at the sizes the service uses
//! (tens to hundreds of entries) a linear eviction scan is cheaper and far
//! simpler than an intrusive list.

use std::collections::BTreeMap;
use std::sync::Arc;

/// An LRU map from `u64` keys (content hashes) to shared values.
#[derive(Debug)]
pub struct LruCache<V> {
    capacity: usize,
    stamp: u64,
    evictions: u64,
    entries: BTreeMap<u64, (u64, Arc<V>)>,
}

impl<V> LruCache<V> {
    /// Creates a cache holding at most `capacity` entries. A capacity of 0
    /// disables caching: every `get` misses and `insert` is a no-op.
    pub fn new(capacity: usize) -> LruCache<V> {
        LruCache {
            capacity,
            stamp: 0,
            evictions: 0,
            entries: BTreeMap::new(),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<V>> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.entries.get_mut(&key).map(|(s, v)| {
            *s = stamp;
            Arc::clone(v)
        })
    }

    /// Inserts `key → value`, evicting the least-recently-used entry if the
    /// cache is full. Returns the value wrapped in its shared handle.
    pub fn insert(&mut self, key: u64, value: V) -> Arc<V> {
        self.insert_shared(key, Arc::new(value))
    }

    /// Like [`LruCache::insert`] for a value that is already shared —
    /// avoids cloning when the producer holds an [`Arc`] (e.g. a coalesced
    /// instance build).
    pub fn insert_shared(&mut self, key: u64, value: Arc<V>) -> Arc<V> {
        if self.capacity == 0 {
            return value;
        }
        self.stamp += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (s, _))| *s)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
        self.entries.insert(key, (self.stamp, Arc::clone(&value)));
        value
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entries evicted to make room since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, "one");
        c.insert(2, "two");
        assert_eq!(c.get(1).as_deref(), Some(&"one")); // refresh 1
        c.insert(3, "three"); // evicts 2
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.get(2).is_none());
        assert_eq!(c.get(1).as_deref(), Some(&"one"));
        assert_eq!(c.get(3).as_deref(), Some(&"three"));
    }

    #[test]
    fn reinserting_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(2, 21); // overwrite, not a new slot
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(1).as_deref(), Some(&10));
        assert_eq!(c.get(2).as_deref(), Some(&21));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = LruCache::new(0);
        c.insert(1, 10);
        assert!(c.is_empty());
        assert!(c.get(1).is_none());
    }
}
