//! The sharded serving front door: one [`CurrencyServe`] per entity
//! shard, scatter-gather queries over all of them.
//!
//! Each shard keeps the full single-shard serving stack — epoch-published
//! snapshots, the epoch-keyed answer cache, the in-flight cap and the
//! stale-serve fallback — so a hot or degraded shard sheds and degrades
//! *by itself* while the others keep answering fresh.
//! Aggregate queries are [`currency_reason::shard::Scatter`] over the
//! per-shard [`ServeHandle`]s — the same scatter-gather the sharded
//! engine and store run, including its refusal of certain-answer
//! queries the per-shard union can get wrong.
//!
//! The per-shard caches make scatter-gather cheap in the steady state: a
//! repeated aggregate query costs one cache hit per shard and no solver
//! touches.  Note the queries look *through*
//! [`crate::ServeAnswer::Stale`] per shard — a degraded shard contributes its
//! newest stale answer rather than failing the whole scatter.
//!
//! Writes route through [`ShardedServe::apply`] under one writer lock
//! that guards the shared [`Router`]: an entity-anchored delta publishes
//! a new epoch on exactly one shard (the other shards' epochs — and
//! cached answers — are untouched), a structure-only delta broadcasts to
//! every shard.  [`ShardedServe::compact_step`] runs one step within one
//! [`CompactBudget`] on every shard under the same lock
//! ([`Router::step`]), each shard publishing its own epoch.

use crate::{CurrencyServe, ServeError, ServeHandle, ServeOptions, ServeStats};
use currency_core::{CompactStepReport, RelId, SpecDelta, Specification};
use currency_obs::{MetricsRegistry, MetricsSnapshot};
use currency_query::Query;
use currency_reason::shard::{
    build_shards, merged_metrics, Router, Scatter, ShardError, ShardNode, ShardReader,
    ShardedApplyReport, ShardedCompactStepReport, SpecImport,
};
use currency_reason::{
    ApplyReport, CertainAnswers, CompactBudget, CurrencyOrderQuery, Options, ReasonError,
};
use std::sync::{Arc, Mutex, PoisonError};

/// Per-shard plus aggregate serving statistics, scraped lock-free (one
/// [`CurrencyServe::stats`] scrape per shard).
#[derive(Clone, Debug, Default)]
pub struct ShardedServeStats {
    /// Each shard's counters, in shard order.
    pub per_shard: Vec<ServeStats>,
    /// Field-wise sum across shards (`epoch` sums to total publications
    /// across all shards).
    pub total: ServeStats,
}

/// N [`CurrencyServe`] shards behind one scatter-gather front door (see
/// module docs).
pub struct ShardedServe {
    serves: Vec<CurrencyServe>,
    writer: Mutex<Router>,
    import: SpecImport,
}

/// A per-thread scatter-gather reader: one [`ServeHandle`] per shard,
/// each with its own pinned snapshot and shared per-shard cache.  Clone one per reader thread.
pub type ShardedServeHandle = Scatter<ServeHandle>;

impl ShardedServe {
    /// Decompose `spec` into `shards` sub-specifications (copy closures
    /// co-located, ids reassigned — translate through
    /// [`ShardedServe::import`]) and stand up one full serving stack per
    /// shard.
    pub fn new(
        spec: &Specification,
        shards: usize,
        engine_opts: &Options,
        serve_opts: &ServeOptions,
    ) -> Result<ShardedServe, ShardError> {
        let (router, serves, import) = build_shards(spec, shards, |shard, sub| {
            CurrencyServe::new(sub, engine_opts, serve_opts)
                .map_err(|source| ShardError::Shard { shard, source })
        })?;
        Ok(ShardedServe {
            serves,
            writer: Mutex::new(router),
            import,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.serves.len()
    }

    /// Shard `k`'s serving stack (shard-local ids!).
    pub fn serve(&self, shard: usize) -> &CurrencyServe {
        &self.serves[shard]
    }

    /// The original → global tuple id translation of the construction.
    pub fn import(&self) -> &SpecImport {
        &self.import
    }

    /// A scatter-gather reader handle (one [`ServeHandle`] per shard);
    /// clone or call again for each reader thread.
    pub fn handle(&self) -> ShardedServeHandle {
        Scatter::new(self.serves.iter().map(CurrencyServe::handle).collect())
    }

    /// Run `write` on the router and the shards' writers under the
    /// writer lock, which recovers from poisoning like
    /// [`CurrencyServe::apply`]'s does.
    fn with_writer<T>(&self, write: impl FnOnce(&mut Router, &mut [&CurrencyServe]) -> T) -> T {
        let mut router = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        write(&mut router, &mut self.serves.iter().collect::<Vec<_>>())
    }

    /// Route one delta (global ids) and publish it ([`Router::apply`]):
    /// an entity-anchored delta bumps exactly one shard's epoch, a
    /// structure-only delta is validated on every shard and then
    /// broadcast.  Applies are serialized by the writer lock; readers
    /// are never blocked.
    pub fn apply(&self, delta: &SpecDelta) -> Result<ShardedApplyReport<ApplyReport>, ShardError> {
        self.with_writer(|router, serves| router.apply(serves, delta))
    }

    /// Run one bounded compaction step on every shard's writer, one at
    /// a time — each pause is shard-local and budget-bounded, each
    /// completed shard step publishes its own epoch, and every shard's
    /// readers keep serving their pinned snapshots throughout.
    pub fn compact_step(
        &self,
        budget: &CompactBudget,
    ) -> Result<ShardedCompactStepReport, ShardError> {
        self.with_writer(|router, serves| router.step(serves, budget))
    }

    /// Per-shard + aggregate serving counters, lock-free.  Sums
    /// saturate, exactly as the counter series of
    /// [`ShardedServe::metrics_snapshot`] do, so the total always equals
    /// the merged scrape.  Latency lives in the merged
    /// `currency_serve_latency_ns` histograms.
    pub fn stats(&self) -> ShardedServeStats {
        let per_shard: Vec<ServeStats> = self.serves.iter().map(|s| s.stats()).collect();
        let mut total = ServeStats::default();
        for s in &per_shard {
            total.epoch = total.epoch.saturating_add(s.epoch);
            total.queries = total.queries.saturating_add(s.queries);
            total.cache_hits = total.cache_hits.saturating_add(s.cache_hits);
            total.cache_misses = total.cache_misses.saturating_add(s.cache_misses);
            total.inflight = total.inflight.saturating_add(s.inflight);
            total.shed = total.shed.saturating_add(s.shed);
            total.timeouts = total.timeouts.saturating_add(s.timeouts);
            total.stale_served = total.stale_served.saturating_add(s.stale_served);
            total.degraded_events = total.degraded_events.saturating_add(s.degraded_events);
            total.cached_entries = total.cached_entries.saturating_add(s.cached_entries);
        }
        ShardedServeStats { per_shard, total }
    }

    /// Every shard's metrics, merged into one snapshot with each series
    /// labeled `shard="<k>"` ([`merged_metrics`]), so per-shard cache
    /// hit rates and the aggregate latency distribution are both one
    /// scrape away.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        merged_metrics(self.serves.iter().map(|s| &**s.metrics()))
    }

    /// The merged metrics in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().render_prometheus()
    }
}

impl ShardNode for &CurrencyServe {
    type Error = ReasonError;
    type Report = ApplyReport;
    type Spec<'a>
        = Arc<Specification>
    where
        Self: 'a;

    /// The newest published snapshot's specification *is* the writer's
    /// live state: [`CurrencyServe::apply`] publishes synchronously, and
    /// the sharded writer lock serializes all sharded writes.
    fn spec(&self) -> Arc<Specification> {
        self.snapshot().spec_arc()
    }

    fn apply(&mut self, delta: &SpecDelta) -> Result<ApplyReport, ReasonError> {
        CurrencyServe::apply(self, delta)
    }

    fn compact_step(&mut self, budget: &CompactBudget) -> Result<CompactStepReport, ReasonError> {
        CurrencyServe::compact_step(self, budget)
    }

    fn metrics(&self) -> &MetricsRegistry {
        CurrencyServe::metrics(self)
    }
}

impl ShardReader for ServeHandle {
    type Error = ServeError;

    fn cps(&mut self) -> Result<bool, ServeError> {
        ServeHandle::cps(self)
    }

    fn cop(&mut self, ot: &CurrencyOrderQuery) -> Result<bool, ServeError> {
        ServeHandle::cop(self, ot)
    }

    fn dcip(&mut self, rel: RelId) -> Result<bool, ServeError> {
        ServeHandle::dcip(self, rel)
    }

    fn certain_answers(&mut self, query: &Query) -> Result<CertainAnswers, ServeError> {
        ServeHandle::certain_answers(self, query)
    }
}
