//! The scraped view of a service's counters, and the in-flight gauge.

use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time view of a service's counters.
///
/// Every count is read from the stack's one metrics registry (the
/// `currency_serve_*` and `currency_degraded_events_total` series of
/// [`crate::CurrencyServe::metrics`]), so the stats and a Prometheus
/// scrape can never disagree about what happened.  The counters are
/// relaxed atomics read individually: a view taken mid-query may be off
/// by the queries completing around it — fine for monitoring, which is
/// what this is for.  Latency lives only in the
/// `currency_serve_latency_ns` histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Epoch of the currently published snapshot.
    pub epoch: u64,
    /// Queries answered: `cache_hits + cache_misses + stale_served`
    /// (rejections excluded).
    pub queries: u64,
    /// Queries answered from the epoch-keyed cache at the live epoch.
    pub cache_hits: u64,
    /// Queries that went to a solver (and then populated the cache).
    pub cache_misses: u64,
    /// Always 0: serving has no rate limiter.  Kept, like
    /// `SnapshotReader::scratch_refreshes`, because the repository
    /// benchmark reads it; it goes with that benchmark's next change
    /// (ROADMAP item 1).
    pub rate_limited: u64,
    /// Queries currently being evaluated.
    pub inflight: u64,
    /// Queries shed by the in-flight cap before any solving started.
    pub shed: u64,
    /// Queries whose solve was interrupted by the per-request deadline
    /// or work budget.
    pub timeouts: u64,
    /// Timed-out queries answered from an older epoch's cached answer
    /// (tagged [`crate::ServeAnswer::Stale`]).
    pub stale_served: u64,
    /// Always 0: serving has no circuit breaker.  Kept, like
    /// [`rate_limited`](ServeStats::rate_limited), for the repository
    /// benchmark until its next change (ROADMAP item 1).
    pub breaker_rejects: u64,
    /// Lock-poisoning recoveries absorbed by the serving stack (snapshot
    /// cell + answer-cache shards): each is a crashed reader somewhere
    /// that degraded service without taking it down.
    pub degraded_events: u64,
    /// Entries currently resident in the answer cache (any epoch).
    pub cached_entries: usize,
}

impl ServeStats {
    /// Fraction of answered queries served from the cache (0 when no
    /// queries have been answered).
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }
}

/// RAII in-flight marker: increments on construction, decrements on drop
/// — including the unwind path, so a panicking solve cannot leave the
/// gauge stuck high.
pub(crate) struct InflightGuard<'a>(&'a AtomicU64);

impl<'a> InflightGuard<'a> {
    /// Enter only if fewer than `cap` queries are in flight (`cap == 0`
    /// means unlimited).  The compare-exchange loop makes the check and
    /// the increment one atomic step, so a burst of arrivals can never
    /// overshoot the cap.
    pub(crate) fn try_enter(gauge: &'a AtomicU64, cap: usize) -> Option<InflightGuard<'a>> {
        let cap = if cap == 0 { u64::MAX } else { cap as u64 };
        gauge
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < cap).then_some(n + 1)
            })
            .ok()?;
        Some(InflightGuard(gauge))
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(ServeStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn inflight_guard_decrements_on_unwind() {
        let gauge = AtomicU64::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = InflightGuard::try_enter(&gauge, 0);
            assert_eq!(gauge.load(Ordering::Relaxed), 1);
            panic!("mid-query crash");
        }));
        assert!(caught.is_err());
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn try_enter_enforces_the_cap() {
        let gauge = AtomicU64::new(0);
        let a = InflightGuard::try_enter(&gauge, 2).expect("slot 1");
        let b = InflightGuard::try_enter(&gauge, 2).expect("slot 2");
        assert!(InflightGuard::try_enter(&gauge, 2).is_none(), "cap hit");
        drop(a);
        let c = InflightGuard::try_enter(&gauge, 2).expect("slot freed");
        drop(b);
        drop(c);
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zero_cap_is_unlimited() {
        let gauge = AtomicU64::new(0);
        let guards: Vec<_> = (0..64)
            .map(|_| InflightGuard::try_enter(&gauge, 0).expect("unlimited"))
            .collect();
        assert_eq!(gauge.load(Ordering::Relaxed), 64);
        drop(guards);
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }
}
