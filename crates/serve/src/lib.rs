//! # currency-serve
//!
//! The concurrent serving front door for a currency specification: many
//! reader threads answering CPS/COP/DCIP/CCQA queries while one writer
//! streams deltas, with nothing shared but epoch-published snapshots.
//!
//! Built on [`currency_reason::snapshot`]:
//!
//! * [`CurrencyServe`] owns the single [`CurrencyEngine`] writer and the
//!   [`SnapshotCell`] it publishes through.  [`CurrencyServe::apply`]
//!   applies a delta and publishes the next epoch's
//!   [`CurrencyEngine::snapshot`]; it contends with **no reader** —
//!   readers hold `Arc`s to immutable snapshots.
//! * [`ServeHandle`] is a cheap per-thread handle (clone one per
//!   reader).  Each query re-pins the latest published snapshot, then
//!   consults the shared **epoch-keyed answer cache**: answers are
//!   stored under `(request, epoch)`, so a cache entry is fresh exactly
//!   until the next publication and invalidation is free — a writer
//!   bump makes every stale entry miss; stale entries are retained as
//!   the degraded-serving reserve.  Misses are evaluated through the
//!   handle's own [`SnapshotReader`] (solves run on throwaway clones)
//!   and then cached for every other handle.  Past the pin, a miss
//!   takes no lock but its answer-cache shard's (and the slow-query
//!   log's, when that is on and the query ran over its threshold).
//! * Every counter is an atomic on the stack's one metrics registry
//!   ([`ServeStats`] is a view over it), so stats scrapes never block
//!   queries — and vice versa.
//!
//! ## Bounded work
//!
//! Every query that misses the cache carries a **deadline**:
//! [`REQUEST_TIMEOUT`] by default, or the caller's own through
//! [`ServeHandle::query_within`].  It is threaded down to the SAT
//! solver, which checks it cooperatively and returns a typed interrupt
//! — never a wrong verdict.  Two guard rails sit around it:
//!
//! * **Load shedding** — at most [`ServeOptions::max_inflight`] queries
//!   solve concurrently; a miss past the cap fast-fails with
//!   [`ServeError::Overloaded`] *before* touching a solver.  A fresh
//!   cache hit solves nothing and is never shed.
//! * **Graceful degradation** — a timed-out query is answered from the
//!   newest cached answer for the same request at *any* epoch when one
//!   exists, tagged [`ServeAnswer::Stale`].
//!
//! ```
//! use currency_serve::{CurrencyServe, ServeOptions};
//! use currency_core::{Catalog, Eid, RelationSchema, Specification, Tuple, Value};
//! use currency_reason::Options;
//!
//! let mut cat = Catalog::new();
//! let r = cat.add(RelationSchema::new("Emp", &["salary"]));
//! let mut spec = Specification::new(cat);
//! spec.instance_mut(r)
//!     .push_tuple(Tuple::new(Eid(0), vec![Value::int(50)]))
//!     .unwrap();
//!
//! let serve = CurrencyServe::new(spec, &Options::default(), &ServeOptions::default()).unwrap();
//! let mut handle = serve.handle(); // one per reader thread
//! assert!(handle.cps().unwrap());
//! assert_eq!(serve.stats().cache_misses, 1);
//! assert!(handle.cps().unwrap()); // same epoch: served from cache
//! assert_eq!(serve.stats().cache_hits, 1);
//! ```

mod cache;
mod obs;
mod sharded;
mod stats;

pub use sharded::{ShardedServe, ShardedServeHandle, ShardedServeStats};
pub use stats::ServeStats;

use cache::AnswerCache;
use currency_core::{CompactStepReport, RelId, SpecDelta, Specification, Value};
use currency_obs::{MetricsRegistry, Recorder};
use currency_query::Query;
use currency_reason::snapshot::{EngineSnapshot, SnapshotCell, SnapshotReader};
use currency_reason::{
    ApplyReport, CertainAnswers, CompactBudget, CurrencyEngine, CurrencyOrderQuery, Options,
    ReasonError, Spent,
};
use obs::{kind_index, ServeObs};
use stats::InflightGuard;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The wall-clock budget of a [`ServeHandle::query`] that misses the
/// cache.  [`ServeHandle::query_within`] sets a query's own.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// Answer-cache shards: more shards, less lock contention between
/// concurrent misses.
const CACHE_SHARDS: usize = 8;

/// A servable query, canonicalized: requests that are `==` (and hash
/// alike) are the same cache entry.  `Query` compares structurally on
/// its head and body, so two independently built identical queries
/// share one entry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ServeRequest {
    /// Is the specification consistent?
    Cps,
    /// Is the currency order certain in every consistent completion?
    Cop(CurrencyOrderQuery),
    /// Do all completions agree on the relation's current instance?
    Dcip(RelId),
    /// All certain current answers of the query.
    CertainAnswers(Query),
    /// Is the tuple a certain current answer of the query?
    Ccqa(Query, Vec<Value>),
}

/// The answer to a [`ServeRequest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeAnswer {
    /// Verdict of a decision problem (CPS/COP/DCIP/CCQA).
    Bool(bool),
    /// Result of a [`ServeRequest::CertainAnswers`] request.
    Answers(CertainAnswers),
    /// A degraded answer: the solve timed out and the newest cached
    /// answer for the same request was served instead.  `epoch` is the
    /// epoch that answer was computed at — older than the live epoch, so
    /// the caller can decide whether stale-but-fast is acceptable.
    Stale {
        /// Epoch the wrapped answer was computed at.
        epoch: u64,
        /// The cached answer itself (never `Stale` — one level deep).
        answer: Box<ServeAnswer>,
    },
}

impl ServeAnswer {
    /// The boolean verdict, if this answers a decision problem
    /// (looking through [`ServeAnswer::Stale`]).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ServeAnswer::Bool(b) => Some(*b),
            ServeAnswer::Answers(_) => None,
            ServeAnswer::Stale { answer, .. } => answer.as_bool(),
        }
    }

    /// Whether this is a degraded (stale-epoch) answer.
    pub fn is_stale(&self) -> bool {
        matches!(self, ServeAnswer::Stale { .. })
    }
}

/// Errors surfaced by the serving layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The in-flight cap was reached: the query missed the cache and was
    /// shed before any solving started.  Retry after backoff.
    Overloaded,
    /// The underlying decision procedure failed.  A
    /// [`ReasonError::Interrupted`] here means the per-request budget
    /// expired and no stale answer existed to degrade to.
    Reason(ReasonError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "query shed: in-flight cap reached"),
            ServeError::Reason(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Overloaded => None,
            ServeError::Reason(e) => Some(e),
        }
    }
}

impl From<ReasonError> for ServeError {
    fn from(e: ReasonError) -> ServeError {
        ServeError::Reason(e)
    }
}

/// Configuration of the serving layer (the underlying solvers are
/// configured separately, through [`currency_reason::Options`]; a
/// query's deadline is [`REQUEST_TIMEOUT`] or its caller's own).
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Answer-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Maximum queries solving concurrently; a cache miss past the cap
    /// is shed with [`ServeError::Overloaded`].  `0` means unlimited.
    pub max_inflight: usize,
    /// Retain requests slower than this in the slow-query log
    /// ([`CurrencyServe::slow_queries`]); `None` (the default) disables
    /// the log.
    pub slow_query_threshold: Option<Duration>,
    /// Slow-query log capacity: the newest entries win (clamped ≥ 1).
    pub slow_query_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            cache_capacity: 4096,
            max_inflight: 0,
            slow_query_threshold: None,
            slow_query_capacity: 128,
        }
    }
}

/// One over-threshold request retained by the slow-query log (see
/// [`ServeOptions::slow_query_threshold`]).
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// The canonicalized request shape.
    pub request: ServeRequest,
    /// Epoch the query was answered (or interrupted) at.
    pub epoch: u64,
    /// End-to-end wall time the caller observed.
    pub duration: Duration,
    /// Solver work performed when the query was interrupted by its
    /// budget (`None` for slow-but-completed queries).
    pub spent: Option<Spent>,
}

/// State shared by the service and every handle.
struct ServeShared {
    cell: SnapshotCell,
    cache: AnswerCache,
    /// Queries currently being evaluated: admission state the
    /// in-flight cap is enforced on ([`InflightGuard`]), not a counter.
    inflight: AtomicU64,
    obs: ServeObs,
    slow_queries: Mutex<VecDeque<SlowQuery>>,
    slow_query_threshold: Option<Duration>,
    slow_query_capacity: usize,
    max_inflight: usize,
}

impl ServeShared {
    /// Retain `req` in the slow-query ring when it ran over the
    /// configured threshold (overwrite-oldest at capacity).
    fn note_slow(&self, req: &ServeRequest, epoch: u64, duration: Duration, spent: Option<Spent>) {
        let Some(threshold) = self.slow_query_threshold else {
            return;
        };
        if duration < threshold {
            return;
        }
        let mut log = self
            .slow_queries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while log.len() >= self.slow_query_capacity {
            log.pop_front();
        }
        log.push_back(SlowQuery {
            request: req.clone(),
            epoch,
            duration,
            spent,
        });
    }
}

/// A concurrently servable currency specification: one writer, any
/// number of [`ServeHandle`] readers, an epoch-keyed answer cache.
pub struct CurrencyServe {
    writer: Mutex<CurrencyEngine>,
    shared: Arc<ServeShared>,
}

impl CurrencyServe {
    /// Compile `spec` and stand up the serving layer.
    pub fn new(
        spec: Specification,
        engine_opts: &Options,
        opts: &ServeOptions,
    ) -> Result<CurrencyServe, ReasonError> {
        let engine = CurrencyEngine::new_owned(spec, engine_opts)?;
        Ok(CurrencyServe::from_engine(engine, opts))
    }

    /// Stand up the serving layer over an already-built writer (e.g. one
    /// constructed with [`CurrencyEngine::with_value_rels_owned`]) and
    /// publish its current state.
    pub fn from_engine(mut engine: CurrencyEngine, opts: &ServeOptions) -> CurrencyServe {
        // One registry for the whole stack, owned by the writer engine:
        // the serve-side series land next to its phase timings and
        // counters (including any it recorded before this call), so a
        // single scrape covers both.
        let registry = engine.obs().registry().clone();
        let shared = Arc::new(ServeShared {
            cell: SnapshotCell::new(engine.snapshot(), &registry),
            cache: AnswerCache::new(opts.cache_capacity, CACHE_SHARDS, &registry),
            inflight: AtomicU64::new(0),
            obs: ServeObs::new(registry),
            slow_queries: Mutex::new(VecDeque::new()),
            slow_query_threshold: opts.slow_query_threshold,
            slow_query_capacity: opts.slow_query_capacity.max(1),
            max_inflight: opts.max_inflight,
        });
        CurrencyServe {
            writer: Mutex::new(engine),
            shared,
        }
    }

    /// A reader handle pinned to the current snapshot; clone (or call
    /// again) for each reader thread.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            reader: SnapshotReader::new(self.shared.cell.load()),
            shared: self.shared.clone(),
        }
    }

    /// Apply a delta and publish the next epoch.  In-flight and future
    /// reads at the old epoch stay valid; cache entries for old epochs
    /// become unreachable at once.  The report's `epoch` is the
    /// published one.
    pub fn apply(&self, delta: &SpecDelta) -> Result<ApplyReport, ReasonError> {
        self.write(|engine| engine.apply(delta))
    }

    /// Run one bounded compaction step and publish it as a new epoch
    /// (see [`CurrencyEngine::compact_step`]); with nothing to reclaim
    /// nothing is published.  In-flight queries keep answering against
    /// their pinned pre-step snapshots; the writer is held for one
    /// budget-bounded pause ([`CompactBudget::UNBOUNDED`] drains the
    /// whole specification in one).
    pub fn compact_step(&self, budget: &CompactBudget) -> Result<CompactStepReport, ReasonError> {
        self.write(|engine| engine.compact_step(budget))
    }

    /// Run one write on the engine and publish its snapshot when the
    /// write moved the epoch.
    ///
    /// The writer lock recovers from poisoning: the engine mutates
    /// nothing on the error path and only complete snapshots are
    /// published, so a writer thread that panicked elsewhere cannot have
    /// left it half-updated.
    fn write<T>(
        &self,
        write: impl FnOnce(&mut CurrencyEngine) -> Result<T, ReasonError>,
    ) -> Result<T, ReasonError> {
        let mut engine = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let out = write(&mut engine);
        if engine.epoch() != self.shared.cell.epoch() {
            self.shared.cell.store(engine.snapshot());
        }
        out
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.shared.cell.load()
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.cell.load().epoch()
    }

    /// Read the serving counters from the registry — lock-free, valid
    /// while queries are in flight and the writer is publishing.
    pub fn stats(&self) -> ServeStats {
        let obs = &self.shared.obs;
        let [cache_hits, cache_misses, stale_served] =
            [&obs.cache_hits, &obs.cache_misses, &obs.stale_served].map(|c| c.get());
        ServeStats {
            epoch: self.shared.cell.load().epoch(),
            queries: cache_hits + cache_misses + stale_served,
            cache_hits,
            cache_misses,
            rate_limited: 0,
            inflight: self.shared.inflight.load(Ordering::Relaxed),
            shed: obs.shed.get(),
            timeouts: obs.timeouts.get(),
            stale_served,
            breaker_rejects: 0,
            degraded_events: self.shared.cache.degraded_events()
                + self.shared.cell.degraded_events(),
            cached_entries: self.shared.cache.len(),
        }
    }

    /// The serving stack's one metric registry, owned by the writer
    /// engine: serve-side series (latency histograms per query kind,
    /// cache hit/miss counters, degradation counters) next to the
    /// writer's phase timings and lifetime counters.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.shared.obs.registry()
    }

    /// Current metrics in Prometheus text exposition format (one scrape
    /// covers the serve layer and the writer engine).
    pub fn metrics_text(&self) -> String {
        self.metrics().snapshot().render_prometheus()
    }

    /// Attach a trace recorder: stale-serve degradations are emitted
    /// as structured [`currency_obs::TraceEvent`]s, and the writer
    /// engine's apply phases record spans into the same sink.  Pass a
    /// [`currency_obs::RingRecorder`] and drain it to inspect the
    /// stream.
    pub fn set_recorder(&self, recorder: Arc<dyn Recorder>) {
        self.shared.obs.set_recorder(recorder.clone());
        self.writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .obs_mut()
            .set_recorder(recorder);
    }

    /// The slow-query log, oldest first — requests that ran over
    /// [`ServeOptions::slow_query_threshold`], with the epoch they ran
    /// at and (for interrupted solves) the work ledger they burned.
    /// Empty when no threshold is configured.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shared
            .slow_queries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }
}

/// A per-thread reader handle: pinned snapshot, per-request overrides,
/// shared cache and counters.
///
/// Queries take `&mut self` (each re-pins the reader and sets its
/// deadline); hand each thread its own clone.  Cloning is cheap — the
/// new handle shares the cache and counters and pins the latest
/// published snapshot.
pub struct ServeHandle {
    reader: SnapshotReader,
    shared: Arc<ServeShared>,
}

impl Clone for ServeHandle {
    fn clone(&self) -> ServeHandle {
        ServeHandle {
            reader: SnapshotReader::new(self.shared.cell.load()),
            shared: self.shared.clone(),
        }
    }
}

impl ServeHandle {
    /// Answer `req` at the latest published epoch: cache lookup, then
    /// (on a miss) in-flight admission, an evaluation through this
    /// handle's reader bounded by [`REQUEST_TIMEOUT`] — strictly outside
    /// any shared lock — and cache fill.  A timed-out solve degrades to
    /// the newest stale cached answer when one exists.
    pub fn query(&mut self, req: &ServeRequest) -> Result<ServeAnswer, ServeError> {
        self.query_within(req, Some(REQUEST_TIMEOUT))
    }

    /// [`query`](ServeHandle::query) with this request's own budget:
    /// `Some(d)` replaces [`REQUEST_TIMEOUT`], `None` removes the
    /// deadline (an explicit opt-in to unbounded work).
    pub fn query_within(
        &mut self,
        req: &ServeRequest,
        timeout: Option<Duration>,
    ) -> Result<ServeAnswer, ServeError> {
        let shared = self.shared.clone();
        let kind = kind_index(req);
        let start = Instant::now();
        self.reader.pin(shared.cell.load());
        let epoch = self.reader.epoch();
        // A fresh cache hit costs no solve: no cap or deadline applies.
        if let Some(ans) = shared.cache.get(req, epoch) {
            shared.obs.cache_hits.inc();
            shared.obs.latency_ns[kind].record(saturating_elapsed_ns(start));
            return Ok(ans);
        }
        // Overload shedding: fail fast before touching a solver, so a
        // saturated service stays responsive.
        let Some(_inflight) = InflightGuard::try_enter(&shared.inflight, shared.max_inflight)
        else {
            shared.obs.shed.inc();
            return Err(ServeError::Overloaded);
        };
        self.reader.set_deadline(timeout.map(|t| start + t));
        let result = self.evaluate(req);
        self.reader.set_deadline(None);
        match result {
            Ok(ans) => {
                shared.cache.insert(req, epoch, ans.clone());
                shared.obs.cache_misses.inc();
                shared.obs.latency_ns[kind].record(saturating_elapsed_ns(start));
                shared.note_slow(req, epoch, start.elapsed(), None);
                Ok(ans)
            }
            Err(err @ ReasonError::Interrupted { spent }) => {
                shared.obs.timeouts.inc();
                shared.note_slow(req, epoch, start.elapsed(), Some(spent));
                match self.serve_stale(&shared, req, start) {
                    Some(stale) => Ok(stale),
                    None => Err(ServeError::Reason(err)),
                }
            }
            Err(other) => Err(ServeError::Reason(other)),
        }
    }

    /// Evaluate `req` against the pinned snapshot through this handle's
    /// reader.  The reader's per-request deadline (set by the caller)
    /// bounds every solve below.
    fn evaluate(&mut self, req: &ServeRequest) -> Result<ServeAnswer, ReasonError> {
        Ok(match req {
            ServeRequest::Cps => ServeAnswer::Bool(self.reader.cps()),
            ServeRequest::Cop(ot) => ServeAnswer::Bool(self.reader.cop(ot)?),
            ServeRequest::Dcip(rel) => ServeAnswer::Bool(self.reader.dcip(*rel)?),
            ServeRequest::CertainAnswers(q) => {
                ServeAnswer::Answers(self.reader.certain_answers(q)?)
            }
            ServeRequest::Ccqa(q, tuple) => ServeAnswer::Bool(self.reader.ccqa(q, tuple)?),
        })
    }

    /// Graceful degradation: the newest cached answer for `req` at any
    /// epoch, tagged stale, when one exists.
    fn serve_stale(
        &self,
        shared: &ServeShared,
        req: &ServeRequest,
        start: Instant,
    ) -> Option<ServeAnswer> {
        let (stale_epoch, answer) = shared.cache.get_any(req)?;
        shared.obs.stale_served.inc();
        let lag = self.reader.epoch().saturating_sub(stale_epoch);
        shared.obs.epoch_lag.set(lag);
        shared.obs.event("serve.stale", lag);
        shared.obs.latency_ns[kind_index(req)].record(saturating_elapsed_ns(start));
        Some(ServeAnswer::Stale {
            epoch: stale_epoch,
            answer: Box::new(answer),
        })
    }

    /// **CPS** at the latest epoch.
    pub fn cps(&mut self) -> Result<bool, ServeError> {
        self.query_bool(ServeRequest::Cps)
    }

    /// **COP** at the latest epoch.
    pub fn cop(&mut self, ot: &CurrencyOrderQuery) -> Result<bool, ServeError> {
        self.query_bool(ServeRequest::Cop(ot.clone()))
    }

    /// **DCIP** at the latest epoch.
    pub fn dcip(&mut self, rel: RelId) -> Result<bool, ServeError> {
        self.query_bool(ServeRequest::Dcip(rel))
    }

    /// **CCQA** at the latest epoch.
    pub fn ccqa(&mut self, query: &Query, tuple: &[Value]) -> Result<bool, ServeError> {
        self.query_bool(ServeRequest::Ccqa(query.clone(), tuple.to_vec()))
    }

    /// Certain current answers at the latest epoch.  A degraded
    /// (stale-epoch) answer is unwrapped transparently; use
    /// [`query`](ServeHandle::query) to observe staleness.
    pub fn certain_answers(&mut self, query: &Query) -> Result<CertainAnswers, ServeError> {
        let mut ans = self.query(&ServeRequest::CertainAnswers(query.clone()))?;
        if let ServeAnswer::Stale { answer, .. } = ans {
            ans = *answer;
        }
        match ans {
            ServeAnswer::Answers(a) => Ok(a),
            _ => unreachable!("CertainAnswers answers with Answers"),
        }
    }

    /// The epoch this handle's last query was answered at (handles
    /// re-pin on every query, so this trails the published epoch only
    /// between queries).
    pub fn epoch(&self) -> u64 {
        self.reader.epoch()
    }

    /// The snapshot this handle is currently pinned to.
    pub fn snapshot(&self) -> &Arc<EngineSnapshot> {
        self.reader.snapshot()
    }

    /// Current metrics in Prometheus text exposition format — the same
    /// registry [`CurrencyServe::metrics_text`] renders, reachable from
    /// any reader thread without a reference to the service.
    pub fn metrics_text(&self) -> String {
        self.shared.obs.registry().snapshot().render_prometheus()
    }

    fn query_bool(&mut self, req: ServeRequest) -> Result<bool, ServeError> {
        match self.query(&req)?.as_bool() {
            Some(b) => Ok(b),
            None => unreachable!("decision requests answer with Bool"),
        }
    }
}

fn saturating_elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use currency_core::{
        AttrId, Catalog, CmpOp, DenialConstraint, Eid, RelationSchema, Term, Tuple, TupleId,
    };
    use currency_query::{Atom, Formula, QueryBuilder, Term as QTerm};

    const A: AttrId = AttrId(0);

    fn spec() -> (Specification, RelId) {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        for e in 0..2u64 {
            for v in [10, 20] {
                spec.instance_mut(r)
                    .push_tuple(Tuple::new(Eid(e), vec![Value::int(v + e as i64)]))
                    .unwrap();
            }
        }
        let monotone = DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
            .then_order(1, A, 0)
            .build()
            .unwrap();
        spec.add_constraint(monotone).unwrap();
        (spec, r)
    }

    fn value_query(r: RelId) -> Query {
        let mut b = QueryBuilder::new();
        let x = b.var();
        b.build(vec![x], Formula::Atom(Atom::new(r, vec![QTerm::Var(x)])))
    }

    fn serve(opts: &ServeOptions) -> (CurrencyServe, RelId) {
        let (spec, r) = spec();
        (
            CurrencyServe::new(spec, &Options::default(), opts).unwrap(),
            r,
        )
    }

    #[test]
    fn all_request_kinds_answer_and_cache() {
        let (serve, r) = serve(&ServeOptions::default());
        let mut h = serve.handle();
        let q = value_query(r);
        let requests = [
            ServeRequest::Cps,
            ServeRequest::Cop(CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1))),
            ServeRequest::Dcip(r),
            ServeRequest::CertainAnswers(q.clone()),
            ServeRequest::Ccqa(q, vec![Value::int(20)]),
        ];
        let first: Vec<ServeAnswer> = requests.iter().map(|r| h.query(r).unwrap()).collect();
        assert_eq!(first[0], ServeAnswer::Bool(true)); // CPS: consistent
        assert_eq!(first[1], ServeAnswer::Bool(true)); // COP: 10 ≺ 20 forced
        assert_eq!(first[2], ServeAnswer::Bool(true)); // DCIP: orders fully forced
        assert_eq!(first[4], ServeAnswer::Bool(true)); // CCQA: 20 is entity 0's current
        let second: Vec<ServeAnswer> = requests.iter().map(|r| h.query(r).unwrap()).collect();
        assert_eq!(first, second);
        let stats = serve.stats();
        assert_eq!(stats.cache_misses, requests.len() as u64);
        assert_eq!(stats.cache_hits, requests.len() as u64);
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(stats.cached_entries, requests.len());
        assert_eq!(stats.inflight, 0);
    }

    #[test]
    fn cache_hits_are_shared_across_handles() {
        let (serve, _) = serve(&ServeOptions::default());
        let mut h1 = serve.handle();
        let mut h2 = h1.clone();
        assert!(h1.cps().unwrap());
        assert!(h2.cps().unwrap());
        let stats = serve.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits), (1, 1));
    }

    #[test]
    fn publish_invalidates_cached_answers() {
        let (serve, r) = serve(&ServeOptions::default());
        let mut h = serve.handle();
        assert!(h.cps().unwrap());
        assert!(h.cps().unwrap());
        // Contradict entity 0's forced order: CPS flips to false.
        let mut delta = SpecDelta::new();
        delta.add_order_edge(r, A, TupleId(1), TupleId(0));
        let report = serve.apply(&delta).unwrap();
        assert_eq!(report.epoch, serve.epoch());
        assert!(!h.cps().unwrap(), "stale cached true must not survive");
        let stats = serve.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits), (2, 1));
        assert_eq!(stats.epoch, report.epoch);
    }

    #[test]
    fn disabled_cache_still_answers_correctly() {
        let opts = ServeOptions {
            cache_capacity: 0,
            ..ServeOptions::default()
        };
        let (serve, r) = serve(&opts);
        let mut h = serve.handle();
        let cop = CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1));
        assert!(h.cop(&cop).unwrap());
        assert!(h.cop(&cop).unwrap());
        let stats = serve.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits), (2, 0));
        assert_eq!(stats.cached_entries, 0);
    }

    #[test]
    fn error_paths_surface_and_display() {
        let (spec, r) = spec();
        let engine = CurrencyEngine::with_value_rels_owned(spec, &[], &Options::default()).unwrap();
        let serve = CurrencyServe::from_engine(engine, &ServeOptions::default());
        let mut h = serve.handle();
        let err = h.dcip(r).unwrap_err();
        assert!(matches!(err, ServeError::Reason(_)));
        assert!(err.to_string().contains("value indicators"));
        assert!(std::error::Error::source(&err).is_some());
        assert!(std::error::Error::source(&ServeError::Overloaded).is_none());
        // Errors are not cached: the next identical request re-evaluates.
        assert!(h.dcip(r).is_err());
        assert_eq!(serve.stats().cached_entries, 0);
    }

    #[test]
    fn writer_counts_from_before_the_front_door_survive() {
        let (spec, r) = spec();
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        let mut delta = SpecDelta::new();
        delta.insert_tuple(r, Tuple::new(Eid(1), vec![Value::int(99)]));
        engine.apply(&delta).unwrap();
        engine.apply(&delta).unwrap();
        let serve = CurrencyServe::from_engine(engine, &ServeOptions::default());
        serve.apply(&delta).unwrap();
        let snap = serve.metrics().snapshot();
        assert!(matches!(
            snap.find("currency_engine_applies_total", &[]),
            Some(currency_obs::SeriesValue::Counter(3))
        ));
        let writer = serve.writer.lock().unwrap();
        assert_eq!(writer.stats().updates_applied, 3);
        assert!(Arc::ptr_eq(writer.obs().registry(), serve.metrics()));
    }

    #[test]
    fn equal_queries_built_independently_share_one_entry() {
        let (serve, r) = serve(&ServeOptions::default());
        let mut h = serve.handle();
        h.certain_answers(&value_query(r)).unwrap();
        h.certain_answers(&value_query(r)).unwrap();
        let stats = serve.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits), (1, 1));
    }

    #[test]
    fn zero_timeout_without_stale_is_a_typed_interrupt() {
        let (serve, r) = serve(&ServeOptions::default());
        let mut h = serve.handle();
        let req = ServeRequest::Cop(CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1)));
        for _ in 0..4 {
            let err = h.query_within(&req, Some(Duration::ZERO)).unwrap_err();
            assert!(
                matches!(err, ServeError::Reason(ReasonError::Interrupted { .. })),
                "expired budget surfaces the typed interrupt, got {err:?}"
            );
        }
        let stats = serve.stats();
        assert_eq!(stats.timeouts, 4);
        assert_eq!(stats.stale_served, 0);
        assert_eq!(stats.queries, 0, "rejections are not answered queries");
        // A later unbounded query gets the true verdict, however many
        // interrupts came before: the bound is the query's own, and the
        // interrupts cached nothing wrong.
        assert!(h.query_within(&req, None).unwrap().as_bool().unwrap());
    }

    #[test]
    fn timeout_degrades_to_newest_stale_answer() {
        let (serve, r) = serve(&ServeOptions::default());
        let mut h = serve.handle();
        let req = ServeRequest::Cop(CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1)));
        assert_eq!(h.query(&req).unwrap(), ServeAnswer::Bool(true));
        let epoch_then = serve.epoch();
        // Publish a new epoch so the cached answer goes stale.
        let mut delta = SpecDelta::new();
        delta.insert_tuple(r, Tuple::new(Eid(1), vec![Value::int(99)]));
        serve.apply(&delta).unwrap();
        // A zero budget can solve nothing — the stale answer steps in.
        let ans = h.query_within(&req, Some(Duration::ZERO)).unwrap();
        assert!(ans.is_stale());
        assert_eq!(
            ans,
            ServeAnswer::Stale {
                epoch: epoch_then,
                answer: Box::new(ServeAnswer::Bool(true)),
            }
        );
        assert_eq!(ans.as_bool(), Some(true), "as_bool looks through Stale");
        let stats = serve.stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.stale_served, 1);
        // With budget restored the fresh verdict is recomputed and cached.
        let fresh = h.query(&req).unwrap();
        assert_eq!(fresh, ServeAnswer::Bool(true));
        assert!(!fresh.is_stale());
    }

    #[test]
    fn overload_sheds_excess_concurrent_queries() {
        use std::sync::Barrier;
        let opts = ServeOptions {
            cache_capacity: 0, // every query must solve
            max_inflight: 2,
            ..ServeOptions::default()
        };
        let (serve, r) = serve(&opts);
        let threads = 16;
        let rounds = 8;
        let barrier = Barrier::new(threads);
        let shed_or_ok = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let mut h = serve.handle();
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let mut outcomes = (0u64, 0u64); // (ok, shed)
                        for k in 0..rounds {
                            let pair = ((t + k) % 4) as u32;
                            let req = ServeRequest::Cop(CurrencyOrderQuery::single(
                                r,
                                A,
                                TupleId(pair),
                                TupleId((pair + 1) % 4),
                            ));
                            match h.query(&req) {
                                Ok(_) => outcomes.0 += 1,
                                Err(ServeError::Overloaded) => outcomes.1 += 1,
                                Err(e) => panic!("unexpected error under load: {e}"),
                            }
                        }
                        outcomes
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold((0, 0), |acc, o| (acc.0 + o.0, acc.1 + o.1))
        });
        let stats = serve.stats();
        assert_eq!(shed_or_ok.0 + shed_or_ok.1, (threads * rounds) as u64);
        assert_eq!(stats.shed, shed_or_ok.1);
        assert_eq!(stats.inflight, 0, "gauge settles to zero");
        assert!(shed_or_ok.0 > 0, "some queries are served under overload");
    }

    #[test]
    fn full_inflight_cap_sheds_exactly_one_query() {
        let opts = ServeOptions {
            max_inflight: 2,
            ..ServeOptions::default()
        };
        let (serve, r) = serve(&opts);
        let mut h = serve.handle();
        assert!(h.dcip(r).unwrap());
        // Take both slots on the shared gauge, as two solving queries
        // would: the next miss must shed, deterministically, while a
        // cached answer solves nothing and is still served.
        let gauge = &serve.shared.inflight;
        let a = InflightGuard::try_enter(gauge, 2).expect("slot 1");
        let b = InflightGuard::try_enter(gauge, 2).expect("slot 2");
        assert!(h.dcip(r).unwrap(), "a cache hit is never shed");
        assert_eq!(h.cps(), Err(ServeError::Overloaded));
        let stats = serve.stats();
        assert_eq!((stats.shed, stats.cache_hits), (1, 1));
        assert_eq!(stats.queries, 2, "a shed query is not answered");
        let snap = serve.metrics().snapshot();
        assert!(matches!(
            snap.find("currency_serve_shed_total", &[]),
            Some(currency_obs::SeriesValue::Counter(1))
        ));
        drop((a, b));
        assert!(h.cps().unwrap(), "released slots admit the query");
        assert_eq!(serve.stats().shed, 1);
    }

    #[test]
    fn default_budget_is_bounded_and_answers_normally() {
        let (serve, r) = serve(&ServeOptions::default());
        assert!(serve.stats().timeouts == 0);
        let mut h = serve.handle();
        // The default 30 s budget is plenty for a 4-tuple spec: answers
        // come back fresh and exact through the bounded path.
        assert!(h.cps().unwrap());
        assert!(h
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1)))
            .unwrap());
        assert!(h.dcip(r).unwrap());
        assert_eq!(serve.stats().timeouts, 0);
    }

    #[test]
    fn cache_poison_recovery_surfaces_as_degraded_event() {
        let (serve, _) = serve(&ServeOptions::default());
        let mut h = serve.handle();
        assert!(h.cps().unwrap());
        assert_eq!(serve.stats().degraded_events, 0);
        // Crash a reader under a shard lock; the next query absorbs it.
        for shard in serve.shared.cache.shards() {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = shard.lock().unwrap();
                panic!("simulated crash under shard lock");
            }));
            assert!(caught.is_err());
        }
        assert!(h.cps().is_ok());
        let stats = serve.stats();
        assert!(stats.degraded_events >= 1, "recovery counted");
    }

    /// `currency_snapshot_epochs_live` on the writer's registry.
    fn epochs_live(serve: &CurrencyServe) -> u64 {
        match serve
            .metrics()
            .snapshot()
            .find("currency_snapshot_epochs_live", &[])
        {
            Some(currency_obs::SeriesValue::Gauge(v)) => *v,
            other => panic!("gauge missing: {other:?}"),
        }
    }

    #[test]
    fn live_epochs_gauge_counts_pinned_snapshots() {
        for idle in [0u64, 1] {
            let (serve, r) = serve(&ServeOptions::default());
            // An idle handle pins the epoch it was taken at.
            let handles: Vec<ServeHandle> = (0..idle).map(|_| serve.handle()).collect();
            let mut delta = SpecDelta::new();
            delta.insert_tuple(r, Tuple::new(Eid(1), vec![Value::int(99)]));
            for _ in 0..5 {
                serve.apply(&delta).unwrap();
            }
            assert_eq!(epochs_live(&serve), 1 + idle, "{idle} idle handles");
            drop(handles);
            assert_eq!(epochs_live(&serve), 1, "only the published epoch is held");
        }
    }
}
