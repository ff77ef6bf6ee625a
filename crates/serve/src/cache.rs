//! Result caching: one LRU of whole answers, one entry per plan, for the
//! current store version.
//!
//! An entry is exactly what one `run_partitions` call produced for a
//! plan: every zone's histogram row, indexed by zone id. Rows are `Arc`s
//! of those vectors, so a cached answer is bit-identical to the uncached
//! one (asserted by the equivalence tests; the cache never recomputes,
//! rounds, or re-encodes).
//!
//! The cache holds answers of one store version only. Inserting (or
//! asking for) a newer version drops every older answer, so a raster
//! update frees the superseded answers as soon as the new version is
//! used; an insert for an older version, from a batch that started
//! before the update, is ignored.

use std::sync::{Arc, Mutex};

use crate::query::PlanKey;

/// One plan's whole answer: every zone's histogram row, indexed by zone
/// id.
pub type Answer = Arc<[Arc<Vec<u64>>]>;

/// A least-recently-used map from [`PlanKey`] to that plan's
/// [`Answer`], for one store version. One lock, one lookup per batch.
pub struct AnswerCache {
    capacity: usize,
    inner: Mutex<Entries>,
}

struct Entries {
    /// The store version every entry was computed against.
    version: u64,
    /// Least recently used first.
    lru: Vec<(PlanKey, Answer)>,
}

impl Entries {
    /// Move to `version` if it is newer, dropping every older answer.
    /// False when `version` is older than the entries held.
    fn advance(&mut self, version: u64) -> bool {
        if version > self.version {
            self.version = version;
            self.lru.clear();
        }
        version == self.version
    }

    fn position(&self, plan: PlanKey) -> Option<usize> {
        self.lru.iter().position(|(p, _)| *p == plan)
    }
}

impl AnswerCache {
    /// A cache holding at most `capacity` plans' answers. `capacity = 0`
    /// disables the cache (every get misses, every insert is dropped) —
    /// the cache-off configuration of the equivalence tests.
    pub fn new(capacity: usize) -> Self {
        AnswerCache {
            capacity,
            inner: Mutex::new(Entries {
                version: 0,
                lru: Vec::new(),
            }),
        }
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, Entries> {
        // Every update below leaves `Entries` valid, so a guard
        // poisoned by a panicking holder is still consistent.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The answer for `plan` at `version`, refreshing its recency.
    pub fn get(&self, version: u64, plan: PlanKey) -> Option<Answer> {
        let mut e = self.entries();
        if !e.advance(version) {
            return None;
        }
        let i = e.position(plan)?;
        let entry = e.lru.remove(i);
        let answer = Arc::clone(&entry.1);
        e.lru.push(entry);
        Some(answer)
    }

    /// Whether `plan`'s answer at `version` is resident, without
    /// touching recency (used by admission estimates).
    pub fn contains(&self, version: u64, plan: PlanKey) -> bool {
        let e = self.entries();
        e.version == version && e.position(plan).is_some()
    }

    /// Insert `plan`'s answer computed at `version`, evicting the least
    /// recently used plan when full. Ignored for a version older than
    /// the entries held.
    pub fn insert(&self, version: u64, plan: PlanKey, answer: Answer) {
        if self.capacity == 0 {
            return;
        }
        let mut e = self.entries();
        if !e.advance(version) {
            return;
        }
        if let Some(i) = e.position(plan) {
            e.lru.remove(i);
        } else if e.lru.len() >= self.capacity {
            e.lru.remove(0);
        }
        e.lru.push((plan, answer));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(n_bins: usize) -> PlanKey {
        PlanKey { band: 0, n_bins }
    }

    fn len(cache: &AnswerCache) -> usize {
        cache.entries().lru.len()
    }

    fn answer(fill: u64) -> Answer {
        vec![Arc::new(vec![fill; 4]), Arc::new(vec![fill + 1; 4])].into()
    }

    #[test]
    fn get_after_insert_returns_the_same_rows() {
        let cache = AnswerCache::new(4);
        assert!(cache.get(1, plan(64)).is_none());
        let a = answer(7);
        cache.insert(1, plan(64), Arc::clone(&a));
        let got = cache.get(1, plan(64)).expect("hit");
        assert!(Arc::ptr_eq(&got, &a), "cache returns the same allocation");
        assert!(cache.get(1, plan(32)).is_none(), "other plan misses");
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = AnswerCache::new(0);
        cache.insert(1, plan(64), answer(7));
        assert!(cache.get(1, plan(64)).is_none());
        assert!(!cache.contains(1, plan(64)));
        assert_eq!(len(&cache), 0);
    }

    #[test]
    fn lru_evicts_least_recent_plan() {
        let cache = AnswerCache::new(2);
        cache.insert(1, plan(1), answer(1));
        cache.insert(1, plan(2), answer(2));
        assert!(cache.get(1, plan(1)).is_some()); // refresh 1; 2 is now oldest
        cache.insert(1, plan(3), answer(3)); // evicts 2
        assert!(cache.get(1, plan(2)).is_none());
        assert!(cache.get(1, plan(1)).is_some());
        assert!(cache.get(1, plan(3)).is_some());
        assert_eq!(len(&cache), 2);
    }

    #[test]
    fn newer_version_clears_older_entries() {
        let cache = AnswerCache::new(4);
        cache.insert(1, plan(1), answer(1));
        cache.insert(1, plan(2), answer(2));
        cache.insert(2, plan(1), answer(10));
        assert_eq!(len(&cache), 1, "version 1's answers are dropped");
        assert!(!cache.contains(1, plan(2)));
        assert_eq!(cache.get(2, plan(1)).expect("hit")[0][0], 10);
        // Asking for a newer version drops the held answers too.
        assert!(cache.get(3, plan(1)).is_none());
        assert_eq!(len(&cache), 0);
    }

    #[test]
    fn older_version_insert_is_ignored() {
        let cache = AnswerCache::new(4);
        cache.insert(2, plan(1), answer(2));
        cache.insert(1, plan(1), answer(1));
        cache.insert(1, plan(2), answer(1));
        assert_eq!(len(&cache), 1);
        assert_eq!(cache.get(2, plan(1)).expect("hit")[0][0], 2);
        assert!(cache.get(1, plan(1)).is_none(), "old version never served");
        assert!(
            cache.contains(2, plan(1)),
            "lookups of old versions keep the new"
        );
    }

    #[test]
    fn contains_does_not_refresh_recency() {
        let cache = AnswerCache::new(2);
        cache.insert(1, plan(1), answer(1));
        cache.insert(1, plan(2), answer(2));
        assert!(cache.contains(1, plan(1)));
        cache.insert(1, plan(3), answer(3)); // 1 is still the oldest
        assert!(!cache.contains(1, plan(1)));
        assert!(cache.contains(1, plan(2)));
        assert!(cache.contains(1, plan(3)));
    }
}
