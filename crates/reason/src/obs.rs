//! Engine-side observability: the metric handles the writer
//! ([`CurrencyEngine`](crate::engine::CurrencyEngine)) records through.
//!
//! Every engine creates one [`EngineObs`] on its own
//! [`MetricsRegistry`] and keeps it for its whole life.  Wrapper layers
//! (a durable store, a serving front door) register their series on
//! that same registry ([`EngineObs::registry`]), so each stack has one
//! registry and one scrape shows all of it — without threading
//! registries through [`Options`](crate::Options) (which is `Copy` by
//! design).
//!
//! The lifetime counters (`*_total`) are the only place the engine's
//! counts are stored: [`EngineStats`] reads them, so they are bumped
//! whether or not metrics are [`EngineObs::enabled`].
//! The phase histograms and their clock reads are recorded only while
//! enabled — five [`Stamp`] reads and eight histogram records per
//! apply that rebuilds one slot inline, benchmarked ≤ 1.02× the
//! disabled path.  The engine is its
//! histograms' one writer (compile workers hand their solve samples
//! back), so it records with [`Histogram::record_single_writer`]; code
//! outside the engine must not record into these handles.

use crate::EngineStats;
use currency_obs::{Counter, Gauge, Histogram, MetricsRegistry, Stamp};
use currency_sat::SolverStats;
use std::sync::Arc;

/// Metric handles for one engine.
///
/// The handle set names the phases of the apply path (validate /
/// refresh / recompile / solve), the per-solve
/// [`SolverStats`] deltas, the bounded-compaction pause, the engine's
/// lifetime counters, and the snapshot publication epoch.  All
/// durations are nanoseconds (`_ns`-suffixed families).
pub struct EngineObs {
    registry: Arc<MetricsRegistry>,
    enabled: bool,
    /// Whole-apply duration (validate through rebuild, excluding
    /// auto-compaction).
    pub apply_ns: Arc<Histogram>,
    /// Delta validation + specification mutation.
    pub apply_validate_ns: Arc<Histogram>,
    /// Incremental partition refresh over the dirty region.
    pub apply_refresh_ns: Arc<Histogram>,
    /// Recompilation of the rebuilt component slots.
    pub apply_recompile_ns: Arc<Histogram>,
    /// Individual component solves (at compile time, under the
    /// engine's bounds).
    pub solve_ns: Arc<Histogram>,
    /// Conflicts burned by one solve.
    pub solver_conflicts: Arc<Histogram>,
    /// Literals propagated by one solve.
    pub solver_propagations: Arc<Histogram>,
    /// Theory lemmas installed by one solve.
    pub solver_lemmas: Arc<Histogram>,
    /// Wall-clock pause of one bounded compaction step.
    pub compact_step_pause_ns: Arc<Histogram>,
    /// Deltas applied ([`EngineStats::updates_applied`]).
    pub applies_total: Arc<Counter>,
    /// Components recompiled across all applies and compaction steps.
    pub components_rebuilt: Arc<Counter>,
    /// Components whose compiled state survived a delta.
    pub components_reused: Arc<Counter>,
    /// Compaction steps that reclaimed at least one slot.
    pub compact_steps: Arc<Counter>,
    /// Tombstone tuple slots reclaimed across all compaction steps.
    pub slots_reclaimed: Arc<Counter>,
    /// Times the engine was restored from a durability log.
    pub recoveries: Arc<Counter>,
    /// Deltas re-applied from log suffixes across all recoveries.
    pub deltas_replayed: Arc<Counter>,
    /// Epoch of the most recently taken snapshot (stays 0 on engines
    /// nobody snapshots).
    pub snapshot_epoch: Arc<Gauge>,
    /// Snapshots alive right now: up when one is taken, down when the
    /// last holder drops it (stays 0 on engines nobody snapshots).
    pub snapshot_epochs_live: Arc<Gauge>,
    /// Copy-on-write pages and chunks the writer copied because a
    /// snapshot still shared them (stays 0 on engines nobody
    /// snapshots, whose pages are never shared).
    pub pages_copied: Arc<Counter>,
}

impl std::fmt::Debug for EngineObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineObs")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl Default for EngineObs {
    fn default() -> EngineObs {
        EngineObs::new()
    }
}

impl EngineObs {
    /// A fresh bundle on its own registry, metrics on.
    pub fn new() -> EngineObs {
        let registry = Arc::new(MetricsRegistry::new());
        let histogram = |name, help| registry.histogram(name, help, &[]);
        let counter = |name, help| registry.counter(name, help, &[]);
        EngineObs {
            enabled: true,
            apply_ns: histogram(
                "currency_engine_apply_ns",
                "Whole-apply duration in nanoseconds (validate through rebuild)",
            ),
            apply_validate_ns: histogram(
                "currency_engine_apply_validate_ns",
                "Delta validation + specification mutation, nanoseconds",
            ),
            apply_refresh_ns: histogram(
                "currency_engine_apply_refresh_ns",
                "Incremental partition refresh over the dirty region, nanoseconds",
            ),
            apply_recompile_ns: histogram(
                "currency_engine_apply_recompile_ns",
                "Recompilation of rebuilt component slots, nanoseconds",
            ),
            solve_ns: histogram(
                "currency_engine_solve_ns",
                "Individual component solve duration, nanoseconds",
            ),
            solver_conflicts: histogram(
                "currency_engine_solver_conflicts",
                "CDCL conflicts burned by one component solve",
            ),
            solver_propagations: histogram(
                "currency_engine_solver_propagations",
                "Literals propagated by one component solve",
            ),
            solver_lemmas: histogram(
                "currency_engine_solver_lemmas",
                "Theory lemmas installed by one component solve",
            ),
            compact_step_pause_ns: histogram(
                "currency_engine_compact_step_pause_ns",
                "Wall-clock pause of one bounded compaction step, nanoseconds",
            ),
            applies_total: counter(
                "currency_engine_applies_total",
                "Deltas applied to the engine",
            ),
            components_rebuilt: counter(
                "currency_engine_components_rebuilt_total",
                "Components recompiled by applies and compaction steps",
            ),
            components_reused: counter(
                "currency_engine_components_reused_total",
                "Components whose compiled state survived a delta",
            ),
            compact_steps: counter(
                "currency_engine_compact_steps_total",
                "Compaction steps that reclaimed at least one slot",
            ),
            slots_reclaimed: counter(
                "currency_engine_slots_reclaimed_total",
                "Tombstone tuple slots reclaimed by compaction",
            ),
            recoveries: counter(
                "currency_engine_recoveries_total",
                "Times the engine was restored from a durability log",
            ),
            deltas_replayed: counter(
                "currency_engine_deltas_replayed_total",
                "Deltas re-applied from log suffixes across all recoveries",
            ),
            snapshot_epoch: registry.gauge(
                "currency_engine_snapshot_epoch",
                "Epoch of the most recently published snapshot",
                &[],
            ),
            snapshot_epochs_live: registry.gauge(
                "currency_snapshot_epochs_live",
                "Snapshots still held by a reader or the publish cell",
                &[],
            ),
            pages_copied: counter(
                "currency_snapshot_pages_copied_total",
                "Copy-on-write pages and chunks the writer copied off published snapshots",
            ),
            registry,
        }
    }

    /// The lifetime counters as an [`EngineStats`] with every size
    /// field zero; each engine adds its own sizes.
    pub(crate) fn stats(&self) -> EngineStats {
        let get = |c: &Counter| c.get() as usize;
        EngineStats {
            updates_applied: get(&self.applies_total),
            components_rebuilt: get(&self.components_rebuilt),
            components_reused: get(&self.components_reused),
            compact_steps: get(&self.compact_steps),
            slots_reclaimed: get(&self.slots_reclaimed),
            recoveries: get(&self.recoveries),
            deltas_replayed: get(&self.deltas_replayed),
            ..EngineStats::default()
        }
    }

    /// The registry the handles live on — the one registry of the
    /// stack this engine sits in.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Switch histogram recording on/off.  Off skips the clock reads
    /// too, leaving only the lifetime counter adds the stats are read
    /// from — the baseline the overhead benchmarks compare against.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether the histograms are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a phase clock — `None` (no clock read at all) when
    /// metrics are off.
    #[inline]
    pub(crate) fn clock(&self) -> Option<Stamp> {
        self.enabled.then(Stamp::now)
    }

    /// Record the time from `start` to `end` into `hist` (nothing when
    /// metrics are off).
    #[inline]
    pub(crate) fn record_between(
        &self,
        hist: &Histogram,
        start: Option<Stamp>,
        end: Option<Stamp>,
    ) {
        if let (Some(start), Some(end)) = (start, end) {
            hist.record_single_writer(end.ns_since(start));
        }
    }

    /// Record one compile-time solve (nothing when metrics were off).
    #[inline]
    pub(crate) fn record_solve(&self, sample: Option<SolveSample>) {
        if let Some(SolveSample { ns, stats, .. }) = sample {
            self.solve_ns.record_single_writer(ns);
            self.solver_conflicts.record_single_writer(stats.conflicts);
            self.solver_propagations
                .record_single_writer(stats.propagations);
            self.solver_lemmas.record_single_writer(stats.lemmas_added);
        }
    }
}

/// One compile-time solve's duration and counters, taken on the thread
/// that solved and handed to the writer for [`EngineObs::record_solve`].
pub(crate) struct SolveSample {
    pub(crate) ns: u64,
    /// When the solve (and the slot's publication) ended; on the
    /// writer's thread it can end the recompile phase too.
    pub(crate) end: Stamp,
    pub(crate) stats: SolverStats,
}
