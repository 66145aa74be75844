//! The sharded serving front door: one [`CurrencyServe`] per entity
//! shard, scatter-gather queries over all of them.
//!
//! Each shard keeps the full single-shard serving stack — epoch-published
//! snapshots, the epoch-keyed answer cache, rate limiting, load shedding,
//! and the per-shape circuit breaker — so a hot or degraded shard sheds
//! and degrades *by itself* while the others keep answering fresh.
//! Aggregate queries compose the per-shard verdicts exactly as
//! [`currency_reason::shard`] does for raw engines:
//!
//! * **CPS** — all-shards AND with early exit on the first unsat shard;
//! * **COP** — vacuously true when globally inconsistent; otherwise each
//!   pair routes to the shard owning both tuples (a pair spanning shards
//!   relates different entities — never certainly ordered);
//! * **DCIP** — vacuously true when globally inconsistent, else AND;
//! * **certain answers / CCQA** — union across shards (see the shard
//!   module docs for the exactness class).
//!
//! The per-shard caches make scatter-gather cheap in the steady state: a
//! repeated aggregate query costs one cache hit per shard and no solver
//! touches.  Note the convenience methods look *through*
//! [`crate::ServeAnswer::Stale`] per shard — a degraded shard contributes its
//! newest stale answer rather than failing the whole scatter.
//!
//! Writes route through [`ShardedServe::apply`] under one writer lock:
//! an entity-anchored delta publishes a new epoch on exactly one shard
//! (the other shards' epochs — and cached answers — are untouched), a
//! structure-only delta broadcasts to every shard.

use crate::{CurrencyServe, ServeError, ServeHandle, ServeOptions, ServeStats};
use currency_core::{CompactStepReport, RelId, SpecDelta, Specification, Value};
use currency_query::Query;
use currency_reason::shard::{
    localize, locate, split_spec, RoutedDelta, ShardError, ShardPlan, ShardedCompactStepReport,
    SpecImport,
};
use currency_reason::snapshot::PublishReport;
use currency_reason::{CertainAnswers, CompactBudget, CurrencyOrderQuery, Options, ReasonError};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// A failure of the sharded serving layer's write path.
#[derive(Debug)]
pub enum ShardedServeError {
    /// The delta violated the routing policy (cross-shard, mixed).
    Routing(ShardError),
    /// One shard's writer failed.
    Shard {
        /// The failing shard.
        shard: usize,
        /// The underlying engine error.
        source: ReasonError,
    },
    /// A broadcast publish failed after some shards had already
    /// published it; the shards' structure may disagree, so the write
    /// path is fail-stop (queries still answer).
    Poisoned,
}

impl fmt::Display for ShardedServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardedServeError::Routing(e) => write!(f, "routing: {e}"),
            ShardedServeError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            ShardedServeError::Poisoned => write!(
                f,
                "a broadcast publish failed part-way; the sharded write path \
                 refuses further deltas"
            ),
        }
    }
}

impl std::error::Error for ShardedServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardedServeError::Routing(e) => Some(e),
            ShardedServeError::Shard { source, .. } => Some(source),
            ShardedServeError::Poisoned => None,
        }
    }
}

impl From<ShardError> for ShardedServeError {
    fn from(e: ShardError) -> ShardedServeError {
        ShardedServeError::Routing(e)
    }
}

/// What one [`ShardedServe::apply`] published.
#[derive(Clone, Debug, Default)]
pub struct ShardedPublish {
    /// The shard an entity-routed delta landed in (`None` for broadcast
    /// or empty deltas).
    pub shard: Option<usize>,
    /// `true` when the delta was structure-only and reached every shard.
    pub broadcast: bool,
    /// Each touched shard's publication, in shard order.
    pub per_shard: Vec<(usize, PublishReport)>,
}

/// Per-shard plus aggregate serving statistics, scraped lock-free (one
/// [`CurrencyServe::stats`] scrape per shard).
#[derive(Clone, Debug, Default)]
pub struct ShardedServeStats {
    /// Each shard's counters, in shard order.
    pub per_shard: Vec<ServeStats>,
    /// Field-wise sum across shards (`epoch` sums to total publications
    /// across all shards; `latency_ns_max` is the max, not the sum).
    pub total: ServeStats,
}

/// Writer-side state guarded by one lock: the routing plan and the
/// poison flag must change atomically with respect to the applies that
/// consult them.
struct WriterState {
    plan: ShardPlan,
    poisoned: bool,
}

/// N [`CurrencyServe`] shards behind one scatter-gather front door (see
/// module docs).
pub struct ShardedServe {
    serves: Vec<CurrencyServe>,
    writer: Mutex<WriterState>,
    import: SpecImport,
}

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
    ) -> Result<ShardedServe, ShardedServeError> {
        let plan = ShardPlan::from_spec(shards, spec);
        let (specs, import) = split_spec(spec, &plan);
        let serves = specs
            .into_iter()
            .enumerate()
            .map(|(shard, sub)| {
                CurrencyServe::new(sub, engine_opts, serve_opts)
                    .map_err(|source| ShardedServeError::Shard { shard, source })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedServe {
            serves,
            writer: Mutex::new(WriterState {
                plan,
                poisoned: false,
            }),
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
        ShardedServeHandle {
            handles: self.serves.iter().map(|s| s.handle()).collect(),
        }
    }

    /// Route one delta (global ids) and publish it: an entity-anchored
    /// delta bumps exactly one shard's epoch, a structure-only delta is
    /// validated on every shard and then broadcast.  Applies are
    /// serialized by the writer lock; readers are never blocked.
    pub fn apply(&self, delta: &SpecDelta) -> Result<ShardedPublish, ShardedServeError> {
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if writer.poisoned {
            return Err(ShardedServeError::Poisoned);
        }
        // The newest published snapshot *is* the writer's live state —
        // `CurrencyServe::apply` publishes synchronously and this lock
        // serializes all sharded writes.
        let snaps: Vec<Arc<currency_reason::EngineSnapshot>> =
            self.serves.iter().map(|s| s.snapshot()).collect();
        let specs: Vec<&Specification> = snaps.iter().map(|s| s.spec()).collect();
        let localized = localize(delta, &writer.plan, &specs)?;
        drop(specs);
        drop(snaps);
        let mut publish = ShardedPublish::default();
        match localized.routed {
            RoutedDelta::Empty => {}
            RoutedDelta::Single { shard, delta } => {
                let report = self.serves[shard]
                    .apply(&delta)
                    .map_err(|source| ShardedServeError::Shard { shard, source })?;
                publish.shard = Some(shard);
                publish.per_shard.push((shard, report));
            }
            RoutedDelta::Broadcast { deltas } => {
                for (shard, d) in deltas.iter().enumerate() {
                    d.validate(self.serves[shard].snapshot().spec())
                        .map_err(|e| ShardedServeError::Routing(ShardError::Invalid(e)))?;
                }
                publish.broadcast = true;
                for (shard, d) in deltas.iter().enumerate() {
                    match self.serves[shard].apply(d) {
                        Ok(report) => publish.per_shard.push((shard, report)),
                        Err(source) => {
                            // Some shards published the structure, some
                            // did not: fail-stop the write path.
                            writer.poisoned = shard > 0;
                            return Err(ShardedServeError::Shard { shard, source });
                        }
                    }
                }
            }
        }
        for (eid, shard) in localized.placements {
            writer.plan.place(eid, shard);
        }
        Ok(publish)
    }

    /// Compact every shard's writer fully, one at a time — each pause is
    /// shard-local, and each shard's readers keep serving their pinned
    /// snapshots throughout.
    pub fn compact(&self) -> Result<ShardedCompactStepReport, ShardedServeError> {
        self.step_each_shard(CurrencyServe::compact)
    }

    /// Run one bounded compaction step on every shard's writer, one at
    /// a time — each pause is shard-local and budget-bounded, each
    /// completed shard step publishes its own epoch, and every shard's
    /// readers keep serving their pinned snapshots throughout.
    pub fn compact_step(
        &self,
        budget: &CompactBudget,
    ) -> Result<ShardedCompactStepReport, ShardedServeError> {
        self.step_each_shard(|serve| serve.compact_step(budget))
    }

    /// Run `step` on every shard in order under the writer lock.
    fn step_each_shard(
        &self,
        mut step: impl FnMut(&CurrencyServe) -> Result<CompactStepReport, ReasonError>,
    ) -> Result<ShardedCompactStepReport, ShardedServeError> {
        let writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if writer.poisoned {
            return Err(ShardedServeError::Poisoned);
        }
        let mut per_shard = Vec::with_capacity(self.serves.len());
        for (shard, serve) in self.serves.iter().enumerate() {
            per_shard
                .push(step(serve).map_err(|source| ShardedServeError::Shard { shard, source })?);
        }
        Ok(ShardedCompactStepReport {
            shards: self.serves.len(),
            per_shard,
        })
    }

    /// Every shard's published epoch, in shard order (entity-routed
    /// deltas advance exactly one of them).
    pub fn epochs(&self) -> Vec<u64> {
        self.serves.iter().map(|s| s.epoch()).collect()
    }

    /// Per-shard + aggregate serving counters, lock-free.  Sums
    /// saturate: `latency_ns_total` in particular accumulates
    /// nanoseconds across every shard and every answered query, and a
    /// long-lived deployment overflowing `u64` must pin at the ceiling
    /// rather than wrap to a tiny number mid-scrape.  (The
    /// `currency_serve_latency_ns` histogram in
    /// [`ShardedServe::metrics_text`] is the overflow-proof replacement
    /// for the deprecated total/max fields.)
    pub fn stats(&self) -> ShardedServeStats {
        let per_shard: Vec<ServeStats> = self.serves.iter().map(|s| s.stats()).collect();
        let mut total = ServeStats::default();
        for s in &per_shard {
            total.epoch = total.epoch.saturating_add(s.epoch);
            total.queries = total.queries.saturating_add(s.queries);
            total.cache_hits = total.cache_hits.saturating_add(s.cache_hits);
            total.cache_misses = total.cache_misses.saturating_add(s.cache_misses);
            total.rate_limited = total.rate_limited.saturating_add(s.rate_limited);
            total.inflight = total.inflight.saturating_add(s.inflight);
            total.shed = total.shed.saturating_add(s.shed);
            total.timeouts = total.timeouts.saturating_add(s.timeouts);
            total.stale_served = total.stale_served.saturating_add(s.stale_served);
            total.breaker_trips = total.breaker_trips.saturating_add(s.breaker_trips);
            total.breaker_rejects = total.breaker_rejects.saturating_add(s.breaker_rejects);
            total.breakers_open = total.breakers_open.saturating_add(s.breakers_open);
            total.degraded_events = total.degraded_events.saturating_add(s.degraded_events);
            total.cached_entries = total.cached_entries.saturating_add(s.cached_entries);
            total.latency_ns_total = total.latency_ns_total.saturating_add(s.latency_ns_total);
            total.latency_ns_max = total.latency_ns_max.max(s.latency_ns_max);
        }
        ShardedServeStats { per_shard, total }
    }

    /// Every shard's metrics, merged into one snapshot with each series
    /// labeled `shard="<k>"` — counters sum (saturating), gauges take
    /// the max, histograms merge bucket-wise, so per-shard cache hit
    /// rates and the aggregate latency distribution are both one scrape
    /// away.
    pub fn metrics_snapshot(&self) -> currency_obs::MetricsSnapshot {
        currency_obs::MetricsSnapshot::merged(
            self.serves
                .iter()
                .enumerate()
                .map(|(k, s)| s.metrics().snapshot().with_label("shard", &k.to_string())),
        )
    }

    /// The merged metrics in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().render_prometheus()
    }
}

/// A per-thread scatter-gather reader: one [`ServeHandle`] per shard,
/// each with its own pinned snapshot, solver scratch, and shared
/// per-shard cache.  Clone one per reader thread.
pub struct ShardedServeHandle {
    handles: Vec<ServeHandle>,
}

impl Clone for ShardedServeHandle {
    fn clone(&self) -> ShardedServeHandle {
        ShardedServeHandle {
            handles: self.handles.clone(),
        }
    }
}

impl ShardedServeHandle {
    /// **CPS** across shards: AND with early exit on the first unsat
    /// shard.  Each per-shard answer goes through that shard's cache,
    /// breaker, and deadline.
    pub fn cps(&mut self) -> Result<bool, ServeError> {
        for h in &mut self.handles {
            if !h.cps()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// **COP** across shards, over global tuple ids: vacuously true when
    /// globally inconsistent; pairs spanning shards are never certain.
    pub fn cop(&mut self, ot: &CurrencyOrderQuery) -> Result<bool, ServeError> {
        let n = self.handles.len();
        if !self.cps()? {
            return Ok(true);
        }
        let mut per: Vec<Vec<_>> = vec![Vec::new(); n];
        for &(attr, lesser, greater) in &ot.pairs {
            let (ls, ll) = locate(n, lesser);
            let (gs, gl) = locate(n, greater);
            if ls != gs {
                return Ok(false);
            }
            per[ls].push((attr, ll, gl));
        }
        for (shard, pairs) in per.into_iter().enumerate() {
            if pairs.is_empty() {
                continue;
            }
            let local = CurrencyOrderQuery { rel: ot.rel, pairs };
            if !self.handles[shard].cop(&local)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// **DCIP** across shards: vacuously true when globally
    /// inconsistent, else all shards individually deterministic.
    pub fn dcip(&mut self, rel: RelId) -> Result<bool, ServeError> {
        if !self.cps()? {
            return Ok(true);
        }
        for h in &mut self.handles {
            if !h.dcip(rel)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Certain current answers across shards: the union of per-shard
    /// answers ([`CertainAnswers::Inconsistent`] when any shard is
    /// unsat).
    pub fn certain_answers(&mut self, query: &Query) -> Result<CertainAnswers, ServeError> {
        if !self.cps()? {
            return Ok(CertainAnswers::Inconsistent);
        }
        let mut rows = std::collections::BTreeSet::<Vec<Value>>::new();
        for h in &mut self.handles {
            match h.certain_answers(query)? {
                CertainAnswers::Inconsistent => return Ok(CertainAnswers::Inconsistent),
                CertainAnswers::Answers(r) => rows.extend(r),
            }
        }
        Ok(CertainAnswers::Answers(rows.into_iter().collect()))
    }

    /// **CCQA** across shards: membership in the certain answers.
    pub fn ccqa(&mut self, query: &Query, tuple: &[Value]) -> Result<bool, ServeError> {
        Ok(self.certain_answers(query)?.contains(tuple))
    }

    /// Shard `k`'s underlying handle, for shard-local (single-entity)
    /// queries in the shard's own id space.
    pub fn shard_mut(&mut self, shard: usize) -> &mut ServeHandle {
        &mut self.handles[shard]
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.handles.len()
    }
}
