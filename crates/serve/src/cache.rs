//! The epoch-keyed answer cache.
//!
//! Entries are stored under the request itself and stamped with the
//! epoch they were computed at.  An entry is a *fresh* hit only when its
//! stamp equals the current epoch, so publishing a new snapshot
//! invalidates the whole cache for free — no flush, no generation sweep,
//! no writer involvement.  Stale entries are **retained**: they are the
//! graceful-degradation reserve ([`AnswerCache::get_any`]) served when a
//! query times out, and they are pruned only when a full shard needs
//! room (stale-epoch entries are evicted first).

use crate::{ServeAnswer, ServeRequest};
use currency_obs::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::{Arc, Mutex};

type Shard = HashMap<ServeRequest, (u64, ServeAnswer)>;

/// Sharded `Mutex<HashMap>` cache.  Sharding keeps the critical
/// sections short and disjoint; the expensive work (solving) happens
/// strictly outside any shard lock, so a panicking solve can poison
/// nothing — and lookups recover from poisoning anyway, since a cache
/// entry is inserted atomically-by-value and cannot be half-written.
pub(crate) struct AnswerCache {
    shards: Vec<Mutex<Shard>>,
    /// Eviction threshold per shard (total capacity / shard count).
    capacity_per_shard: usize,
    hasher: RandomState,
    /// Poisoned-shard recoveries: each is a reader that crashed under a
    /// shard lock and was absorbed without losing the cache
    /// (`currency_degraded_events_total{source="answer_cache"}`).
    degraded: Arc<Counter>,
}

impl AnswerCache {
    /// `capacity == 0` disables caching entirely (every lookup misses,
    /// inserts are dropped); `shards` is at least 1.  The degraded-event
    /// counter registers on `registry`.
    pub(crate) fn new(capacity: usize, shards: usize, registry: &MetricsRegistry) -> AnswerCache {
        AnswerCache {
            shards: if capacity == 0 {
                Vec::new()
            } else {
                (0..shards).map(|_| Mutex::new(Shard::new())).collect()
            },
            capacity_per_shard: capacity.div_ceil(shards).max(1),
            hasher: RandomState::new(),
            degraded: registry.counter(
                "currency_degraded_events_total",
                "Poisoned-lock recoveries absorbed by the serving stack",
                &[("source", "answer_cache")],
            ),
        }
    }

    /// The cached answer for `req` computed at exactly `epoch`, if any.
    /// An entry from an older epoch is left in place for [`get_any`].
    ///
    /// [`get_any`]: AnswerCache::get_any
    pub(crate) fn get(&self, req: &ServeRequest, epoch: u64) -> Option<ServeAnswer> {
        let shard = self.shard(req)?;
        match shard.get(req) {
            Some((e, ans)) if *e == epoch => Some(ans.clone()),
            _ => None,
        }
    }

    /// The cached answer for `req` at **any** epoch, with the epoch it
    /// was computed at — the stale-serve fallback for timed-out queries.
    pub(crate) fn get_any(&self, req: &ServeRequest) -> Option<(u64, ServeAnswer)> {
        let shard = self.shard(req)?;
        shard.get(req).map(|(e, ans)| (*e, ans.clone()))
    }

    /// Record `ans` for `req` at `epoch`, evicting if the shard is full:
    /// stale-epoch entries go first, then an arbitrary current one.
    pub(crate) fn insert(&self, req: &ServeRequest, epoch: u64, ans: ServeAnswer) {
        let Some(mut shard) = self.shard(req) else {
            return;
        };
        if shard.len() >= self.capacity_per_shard && !shard.contains_key(req) {
            shard.retain(|_, (e, _)| *e == epoch);
            if shard.len() >= self.capacity_per_shard {
                if let Some(victim) = shard.keys().next().cloned() {
                    shard.remove(&victim);
                }
            }
        }
        shard.insert(req.clone(), (epoch, ans));
    }

    /// Total resident entries (any epoch), for stats.
    pub(crate) fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|ix| self.lock_shard(ix).len())
            .sum()
    }

    /// Poisoned-shard recoveries absorbed so far.
    pub(crate) fn degraded_events(&self) -> u64 {
        self.degraded.get()
    }

    /// Test hook: the raw shard locks, for poisoning them on purpose.
    #[cfg(test)]
    pub(crate) fn shards(&self) -> &[Mutex<Shard>] {
        &self.shards
    }

    fn shard(&self, req: &ServeRequest) -> Option<std::sync::MutexGuard<'_, Shard>> {
        if self.shards.is_empty() {
            return None;
        }
        let ix = (self.hasher.hash_one(req) as usize) % self.shards.len();
        Some(self.lock_shard(ix))
    }

    fn lock_shard(&self, ix: usize) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[ix].lock().unwrap_or_else(|poisoned| {
            // One crashed reader, one degraded event: clear the poison so
            // healthy operation resumes without re-counting.
            self.shards[ix].clear_poison();
            self.degraded.inc();
            poisoned.into_inner()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use currency_core::RelId;

    fn req(rel: u32) -> ServeRequest {
        ServeRequest::Dcip(RelId(rel))
    }

    fn new_cache(capacity: usize, shards: usize) -> AnswerCache {
        AnswerCache::new(capacity, shards, &MetricsRegistry::new())
    }

    #[test]
    fn epoch_mismatch_misses_but_retains_for_stale_serve() {
        let cache = new_cache(16, 2);
        cache.insert(&req(0), 1, ServeAnswer::Bool(true));
        assert_eq!(cache.get(&req(0), 1), Some(ServeAnswer::Bool(true)));
        assert_eq!(cache.get(&req(0), 2), None, "new epoch invalidates");
        assert_eq!(cache.len(), 1, "stale entry kept as degradation reserve");
        assert_eq!(
            cache.get_any(&req(0)),
            Some((1, ServeAnswer::Bool(true))),
            "stale entry reachable with its epoch"
        );
        assert_eq!(cache.get_any(&req(7)), None);
    }

    #[test]
    fn full_shard_evicts_stale_entries_first() {
        let cache = new_cache(4, 1);
        for r in 0..4 {
            cache.insert(&req(r), 1, ServeAnswer::Bool(true));
        }
        assert_eq!(cache.len(), 4);
        // Insert at a newer epoch: the four stale entries make room.
        cache.insert(&req(9), 2, ServeAnswer::Bool(false));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&req(9), 2), Some(ServeAnswer::Bool(false)));
    }

    #[test]
    fn full_shard_of_current_entries_evicts_one() {
        let cache = new_cache(2, 1);
        cache.insert(&req(0), 1, ServeAnswer::Bool(true));
        cache.insert(&req(1), 1, ServeAnswer::Bool(true));
        cache.insert(&req(2), 1, ServeAnswer::Bool(true));
        assert_eq!(cache.len(), 2, "capacity holds");
        assert_eq!(cache.get(&req(2), 1), Some(ServeAnswer::Bool(true)));
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = new_cache(0, 4);
        cache.insert(&req(0), 1, ServeAnswer::Bool(true));
        assert_eq!(cache.get(&req(0), 1), None);
        assert_eq!(cache.get_any(&req(0)), None);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn poisoned_shard_keeps_serving_and_counts_one_degraded_event() {
        let cache = new_cache(8, 1);
        cache.insert(&req(0), 1, ServeAnswer::Bool(true));
        // A thread dies while holding the (only) shard lock...
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.shards[0].lock().unwrap();
            panic!("simulated crash under the shard lock");
        }));
        assert!(caught.is_err());
        assert!(cache.shards[0].is_poisoned());
        assert_eq!(cache.degraded_events(), 0, "counted on recovery, not crash");
        // ...and the cache shrugs: entries are inserted by value, so the
        // map cannot be half-written and the first lookup recovers the
        // lock, clears the poison, and counts one degraded event.
        assert_eq!(cache.get(&req(0), 1), Some(ServeAnswer::Bool(true)));
        assert_eq!(cache.degraded_events(), 1);
        cache.insert(&req(1), 1, ServeAnswer::Bool(false));
        assert_eq!(cache.get(&req(1), 1), Some(ServeAnswer::Bool(false)));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.degraded_events(), 1, "one crash, one event");
    }

    #[test]
    fn overwrite_same_request_updates_epoch() {
        let cache = new_cache(8, 1);
        cache.insert(&req(0), 1, ServeAnswer::Bool(true));
        cache.insert(&req(0), 2, ServeAnswer::Bool(false));
        assert_eq!(cache.get(&req(0), 2), Some(ServeAnswer::Bool(false)));
        assert_eq!(cache.len(), 1);
    }
}
