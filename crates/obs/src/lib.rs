//! Zero-dependency observability for the currency stack.
//!
//! The crate is the stack's one telemetry path, hand-rolled (consistent
//! with the workspace's offline-shim policy — no external metrics
//! framework):
//!
//! * [`metrics`] — lock-free [`Counter`]s, [`Gauge`]s and fixed
//!   log2-bucket [`Histogram`]s registered in a [`MetricsRegistry`]
//!   under static names plus label sets, with a Prometheus text
//!   exposition ([`MetricsRegistry::render_prometheus`]), a JSON
//!   rendering ([`MetricsRegistry::render_json`]), and label-decorated
//!   snapshot merging ([`MetricsSnapshot::merge`]) so sharded stacks
//!   can combine per-shard registries into one exposition.
//! * [`clock`] — the [`Stamp`] timestamps hot paths time their phases
//!   with: one counter read where the CPU has a cheap invariant one.
//!
//! Everything records through shared atomics: instrumentation sites
//! hold `Arc` handles obtained once at registration and pay a handful
//! of relaxed atomic read-modify-writes per observation — no locks,
//! no allocation, no formatting until exposition time.

pub mod clock;
pub mod metrics;

pub use clock::Stamp;
pub use metrics::{
    Counter, FamilySnapshot, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricsRegistry,
    MetricsSnapshot, SeriesSnapshot, SeriesValue,
};
