//! Metric handles and trace plumbing for the serving layer.
//!
//! Every [`crate::CurrencyServe`] owns one [`ServeObs`]: the serve-side
//! series (latency histograms per query kind, cache hit/miss counters,
//! degradation counters, the epoch-lag gauge), registered on the
//! writer engine's own [`MetricsRegistry`] — the registry the
//! [`currency_reason::EngineObs`] created with the engine — so one
//! scrape shows the whole stack.  These counters are the only store of
//! the serve counts: [`crate::ServeStats`] is read from them.
//!
//! Stale-serve degradations are additionally emitted as structured
//! [`TraceEvent`]s through an attachable [`Recorder`] — the default
//! no-op recorder makes the emission a locked `Arc` clone plus one
//! branch, off the per-query hot path entirely.

use crate::ServeRequest;
use currency_obs::{
    now_ns, Counter, Gauge, Histogram, MetricsRegistry, NoopRecorder, Recorder, TraceEvent,
    TraceKind,
};
use std::sync::{Arc, Mutex, PoisonError};

/// The `query_kind` label values, indexed by [`kind_index`].
pub(crate) const QUERY_KINDS: [&str; 5] = ["cps", "cop", "dcip", "certain_answers", "ccqa"];

/// Which latency series a request records into.
pub(crate) fn kind_index(req: &ServeRequest) -> usize {
    match req {
        ServeRequest::Cps => 0,
        ServeRequest::Cop(_) => 1,
        ServeRequest::Dcip(_) => 2,
        ServeRequest::CertainAnswers(_) => 3,
        ServeRequest::Ccqa(..) => 4,
    }
}

/// One serving stack's metric handles (see module docs).
pub(crate) struct ServeObs {
    registry: Arc<MetricsRegistry>,
    /// Attachable trace sink; behind a mutex because the shared state is
    /// immutable after construction and transitions are rare.
    recorder: Mutex<Arc<dyn Recorder>>,
    /// End-to-end answer latency per query kind (hits, misses, and stale
    /// serves alike — the caller-observed cost).
    pub(crate) latency_ns: [Arc<Histogram>; 5],
    /// Cache hits/misses, labeled `shard="0"`: a sharded front door
    /// re-labels each shard's snapshot with its real index at merge
    /// time, which is what makes per-shard hit rates scrapeable.
    pub(crate) cache_hits: Arc<Counter>,
    pub(crate) cache_misses: Arc<Counter>,
    pub(crate) stale_served: Arc<Counter>,
    pub(crate) shed: Arc<Counter>,
    pub(crate) timeouts: Arc<Counter>,
    /// Epochs between the live snapshot and the newest stale answer
    /// served — how far behind degraded answers are running.
    pub(crate) epoch_lag: Arc<Gauge>,
}

impl ServeObs {
    pub(crate) fn new(registry: Arc<MetricsRegistry>) -> ServeObs {
        let latency_ns = QUERY_KINDS.map(|kind| {
            registry.histogram(
                "currency_serve_latency_ns",
                "End-to-end answer latency (cache hits, solves, and stale serves)",
                &[("query_kind", kind)],
            )
        });
        let counter = |name, help| registry.counter(name, help, &[]);
        ServeObs {
            latency_ns,
            cache_hits: registry.counter(
                "currency_serve_cache_hits_total",
                "Queries answered from the epoch-keyed cache at the live epoch",
                &[("shard", "0")],
            ),
            cache_misses: registry.counter(
                "currency_serve_cache_misses_total",
                "Queries that went to a solver",
                &[("shard", "0")],
            ),
            stale_served: counter(
                "currency_serve_stale_served_total",
                "Degraded answers served from an older epoch's cache entry",
            ),
            shed: counter(
                "currency_serve_shed_total",
                "Queries shed by the in-flight cap before any solving",
            ),
            timeouts: counter(
                "currency_serve_timeouts_total",
                "Solves interrupted by the per-request deadline",
            ),
            epoch_lag: registry.gauge(
                "currency_serve_epoch_lag",
                "Epochs between the live snapshot and the last stale answer served",
                &[],
            ),
            recorder: Mutex::new(Arc::new(NoopRecorder)),
            registry,
        }
    }

    pub(crate) fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    pub(crate) fn set_recorder(&self, recorder: Arc<dyn Recorder>) {
        *self.recorder.lock().unwrap_or_else(PoisonError::into_inner) = recorder;
    }

    /// Emit a structured trace event (a stale serve) when a recorder is
    /// attached and enabled.
    pub(crate) fn event(&self, name: &'static str, value: u64) {
        let recorder = self
            .recorder
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if recorder.enabled() {
            recorder.record(TraceEvent {
                ts_ns: now_ns(),
                kind: TraceKind::Event,
                name,
                span: 0,
                parent: 0,
                value,
            });
        }
    }
}
