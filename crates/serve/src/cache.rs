//! The canonical-hash result cache.
//!
//! The determinism contracts make MC estimates a pure function of
//! `(model, McConfig, seed)` — so the cache needs no TTL and no
//! invalidation: an entry can never go stale, only cold. Capacity is
//! bounded with FIFO (insertion-order) eviction; correctness never rests
//! on what gets evicted, only repeat-query latency does. Lookups compare
//! full canonical keys, so hash collisions cannot cross-contaminate.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// A bounded map from canonical query key to the exact response body
/// served for it.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, String>,
    order: VecDeque<String>,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` entries (0 disables it).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner::default()),
            capacity,
        }
    }

    /// The cached body for `key`, byte-identical to the first answer.
    pub fn get(&self, key: &str) -> Option<String> {
        self.inner.lock().expect("cache lock").map.get(key).cloned()
    }

    /// Inserts an answer, evicting the oldest entry at capacity. Losing
    /// a race to another handler is fine: determinism guarantees both
    /// wrote the same bytes.
    pub fn insert(&self, key: &str, body: &str) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        if inner.map.contains_key(key) {
            return;
        }
        if inner.order.len() >= self.capacity {
            if let Some(oldest) = inner.order.pop_front() {
                inner.map.remove(&oldest);
            }
        }
        inner.map.insert(key.to_string(), body.to_string());
        inner.order.push_back(key.to_string());
    }

    /// Number of live entries.
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

    #[test]
    fn hit_returns_the_exact_bytes() {
        let cache = ResultCache::new(4);
        assert!(cache.get("k").is_none());
        cache.insert("k", "{\"u\":1e-5}");
        assert_eq!(cache.get("k").as_deref(), Some("{\"u\":1e-5}"));
    }

    #[test]
    fn eviction_is_fifo_and_capacity_bounded() {
        let cache = ResultCache::new(2);
        cache.insert("a", "1");
        cache.insert("b", "2");
        cache.insert("c", "3");
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_none(), "oldest entry evicted");
        assert_eq!(cache.get("b").as_deref(), Some("2"));
        assert_eq!(cache.get("c").as_deref(), Some("3"));
    }

    #[test]
    fn duplicate_insert_keeps_the_first_answer_and_order() {
        let cache = ResultCache::new(2);
        cache.insert("a", "first");
        cache.insert("a", "second");
        assert_eq!(cache.get("a").as_deref(), Some("first"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let cache = ResultCache::new(0);
        cache.insert("a", "1");
        assert!(cache.is_empty());
    }
}
