//! Lock-free metric primitives and the registry/exposition layer.
//!
//! All three instruments ([`Counter`], [`Gauge`], [`Histogram`]) are
//! plain atomics recorded with `Ordering::Relaxed`: observations are
//! monotone accumulations read only at exposition time, so no ordering
//! stronger than the atomicity of each word is needed.  Handles are
//! `Arc`s handed out by [`MetricsRegistry`]; registering the same
//! `(name, labels)` pair twice returns the existing handle, so every
//! layer of a stack can register on the one registry its engine owns
//! without double-counting.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets in a [`Histogram`].  Bucket `i` holds the
/// observations `v` with `floor(log2(max(v, 1))) == i`: bucket 0 is
/// `{0, 1}` and bucket `i ≥ 1` is `[2^i, 2^(i+1))`, so the inclusive
/// upper bound of bucket `i < 63` is `2^(i+1) - 1` and bucket 63 tops
/// out at `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n` (saturating at `u64::MAX` only in the sense
    /// that the wrapping add of a counter that large is unreachable in
    /// practice; counters are cumulative event counts).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can be set to arbitrary points (epoch
/// numbers, progress counts, queue depths).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add to the gauge.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract from the gauge, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .value
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket index of an observation: `floor(log2(max(v, 1)))`.
#[inline]
fn bucket_of(v: u64) -> usize {
    63 - (v | 1).leading_zeros() as usize
}

/// Inclusive upper bound of bucket `i` (see [`HISTOGRAM_BUCKETS`]).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// Inclusive lower bound of bucket `i`.
#[inline]
fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// A fixed log2-bucket histogram recorded with two relaxed atomic
/// read-modify-writes per observation (bucket increment, sum add) and
/// a fetch-max when the observation is a new maximum.  Percentiles are estimated from the bucket counts with
/// linear interpolation inside the owning bucket, so an estimate is
/// always within the bucket's 2× width of the true order statistic.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        // The max only grows, so a value at or below the one seen needs
        // no read-modify-write (a compare-exchange loop on x86).
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// [`Histogram::record`] without locked read-modify-writes, for a
    /// histogram with one writer thread: an observation recorded
    /// concurrently from another thread can be lost (memory stays safe).
    #[inline]
    pub fn record_single_writer(&self, v: u64) {
        let add = |cell: &AtomicU64, n: u64| {
            cell.store(
                cell.load(Ordering::Relaxed).wrapping_add(n),
                Ordering::Relaxed,
            )
        };
        add(&self.buckets[bucket_of(v)], 1);
        add(&self.sum, v);
        if v > self.max.load(Ordering::Relaxed) {
            self.max.store(v, Ordering::Relaxed);
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (exact, via `fetch_max`).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Fold another histogram's current contents into this one (shard
    /// aggregation).  Bucket counts and sums add; max takes the max.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts, sum and max.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Estimated `q`-quantile of the current contents (see
    /// [`HistogramSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }
}

/// An immutable copy of a [`Histogram`]'s state; the unit of merging
/// and rendering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fold `other` into `self`.  Merging is associative and
    /// commutative (bucket counts and sums add, max takes max), so any
    /// shard-combination order yields the same aggregate.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) by cumulative bucket walk
    /// with linear interpolation between the owning bucket's bounds.
    /// The top of the highest non-empty bucket is clamped to the exact
    /// observed max, so `quantile(1.0) == max`.  Returns 0.0 on an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * count as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let prev = cum;
            cum += n;
            if (cum as f64) >= rank {
                let lo = bucket_lower(i) as f64;
                let hi = (bucket_upper(i).min(self.max).max(bucket_lower(i))) as f64;
                let frac = ((rank - prev as f64) / n as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
        }
        self.max as f64
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// What kind of instrument a registered family holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone cumulative count.
    Counter,
    /// Set-to-value gauge.
    Gauge,
    /// Log2-bucket histogram.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Family {
    help: &'static str,
    kind: MetricKind,
    /// Series keyed by their sorted label set.
    series: Vec<(Vec<(String, String)>, Handle)>,
}

/// The registry: static metric names plus label sets, resolved to
/// shared instrument handles.  Instrumented subsystems keep the `Arc`
/// handles; the registry is only consulted at registration and
/// exposition time, so a `Mutex` suffices.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("MetricsRegistry")
            .field("families", &families.len())
            .finish()
    }
}

fn label_vec(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, val)| (k.to_string(), val.to_string()))
        .collect();
    v.sort();
    v
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn handle(
        &self,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        fresh: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            series: Vec::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name} registered under two kinds"
        );
        let labels = label_vec(labels);
        if let Some((_, handle)) = family.series.iter().find(|(l, _)| *l == labels) {
            return handle.clone();
        }
        let handle = fresh();
        family.series.push((labels, handle.clone()));
        handle
    }

    /// Register (or look up) a counter series.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        match self.handle(name, help, MetricKind::Counter, labels, || {
            Handle::Counter(Arc::new(Counter::default()))
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Register (or look up) a gauge series.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        match self.handle(name, help, MetricKind::Gauge, labels, || {
            Handle::Gauge(Arc::new(Gauge::default()))
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Register (or look up) a histogram series.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.handle(name, help, MetricKind::Histogram, labels, || {
            Handle::Histogram(Arc::new(Histogram::default()))
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// A point-in-time copy of every registered family.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        MetricsSnapshot {
            families: families
                .iter()
                .map(|(name, family)| FamilySnapshot {
                    name,
                    help: family.help,
                    kind: family.kind,
                    series: family
                        .series
                        .iter()
                        .map(|(labels, handle)| SeriesSnapshot {
                            labels: labels.clone(),
                            value: match handle {
                                Handle::Counter(c) => SeriesValue::Counter(c.get()),
                                Handle::Gauge(g) => SeriesValue::Gauge(g.get()),
                                Handle::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Render the registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// Render the registry as a JSON document.
    pub fn render_json(&self) -> String {
        self.snapshot().render_json()
    }
}

/// One rendered/mergeable metric series.
#[derive(Clone, Debug)]
pub struct SeriesSnapshot {
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The instrument's value at snapshot time.
    pub value: SeriesValue,
}

/// The value half of a [`SeriesSnapshot`].
///
/// The histogram variant carries the full fixed bucket array inline —
/// large next to a bare counter, but snapshots live on the scrape path
/// (one per exposition), where one contiguous value beats a pointer
/// chase per series.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum SeriesValue {
    /// Cumulative count.
    Counter(u64),
    /// Current gauge value.
    Gauge(u64),
    /// Full bucket state.
    Histogram(HistogramSnapshot),
}

/// One metric family (shared name/help/kind) in a snapshot.
#[derive(Clone, Debug)]
pub struct FamilySnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Help text.
    pub help: &'static str,
    /// Instrument kind.
    pub kind: MetricKind,
    /// The family's series.
    pub series: Vec<SeriesSnapshot>,
}

/// A mergeable, renderable copy of one or more registries.
///
/// [`MetricsSnapshot::with_label`] decorates every series with an
/// extra label (overwriting an existing key), and
/// [`MetricsSnapshot::merge`] combines snapshots family-by-family —
/// the pattern a sharded stack uses to render per-shard registries as
/// one exposition with a `shard` label distinguishing the series.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Families sorted by name.
    pub families: Vec<FamilySnapshot>,
}

impl MetricsSnapshot {
    /// Add (or overwrite) a label on every series.
    pub fn with_label(mut self, key: &str, value: &str) -> MetricsSnapshot {
        for family in &mut self.families {
            for series in &mut family.series {
                series.labels.retain(|(k, _)| k != key);
                series.labels.push((key.to_string(), value.to_string()));
                series.labels.sort();
            }
        }
        self
    }

    /// Fold `other` into `self`.  Families are matched by name; series
    /// by label set.  Colliding counters add (saturating), colliding
    /// gauges take the max, colliding histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for family in &other.families {
            let mine = match self.families.iter_mut().find(|f| f.name == family.name) {
                Some(f) => f,
                None => {
                    self.families.push(family.clone());
                    self.families.sort_by_key(|f| f.name);
                    continue;
                }
            };
            for series in &family.series {
                match mine.series.iter_mut().find(|s| s.labels == series.labels) {
                    None => mine.series.push(series.clone()),
                    Some(existing) => match (&mut existing.value, &series.value) {
                        (SeriesValue::Counter(a), SeriesValue::Counter(b)) => {
                            *a = a.saturating_add(*b);
                        }
                        (SeriesValue::Gauge(a), SeriesValue::Gauge(b)) => *a = (*a).max(*b),
                        (SeriesValue::Histogram(a), SeriesValue::Histogram(b)) => a.merge(b),
                        _ => {}
                    },
                }
            }
        }
    }

    /// Merge any number of snapshots (in any order — the combination
    /// is associative).
    pub fn merged(snapshots: impl IntoIterator<Item = MetricsSnapshot>) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for snap in snapshots {
            out.merge(&snap);
        }
        out
    }

    /// Look up a series' value by family name and label subset (every
    /// `labels` pair must be present on the series).
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesValue> {
        self.families.iter().find(|f| f.name == name).and_then(|f| {
            f.series
                .iter()
                .find(|s| {
                    labels
                        .iter()
                        .all(|(k, v)| s.series_label(k).map(|have| have == *v).unwrap_or(false))
                })
                .map(|s| &s.value)
        })
    }

    /// Every histogram series of family `name` merged into one (empty
    /// when the family is absent) — e.g. the latency of all query kinds
    /// and shards together.
    pub fn merged_histogram(&self, name: &str) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        let family = self.families.iter().filter(|f| f.name == name);
        for series in family.flat_map(|f| &f.series) {
            if let SeriesValue::Histogram(h) = &series.value {
                out.merge(h);
            }
        }
        out
    }

    /// Render in the Prometheus text exposition format: one
    /// `# HELP` / `# TYPE` header per family, `name{labels} value`
    /// per sample, histograms as cumulative `_bucket{le="..."}` lines
    /// plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for family in &self.families {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            for series in &family.series {
                match &series.value {
                    SeriesValue::Counter(v) | SeriesValue::Gauge(v) => {
                        let _ = writeln!(
                            out,
                            "{}{} {v}",
                            family.name,
                            render_labels(&series.labels, None)
                        );
                    }
                    SeriesValue::Histogram(h) => {
                        let hi = h
                            .buckets
                            .iter()
                            .rposition(|&n| n > 0)
                            .unwrap_or(0)
                            .min(HISTOGRAM_BUCKETS - 2);
                        let mut cum = 0u64;
                        for i in 0..=hi {
                            cum += h.buckets[i];
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {cum}",
                                family.name,
                                render_labels(&series.labels, Some(&bucket_upper(i).to_string()))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            family.name,
                            render_labels(&series.labels, Some("+Inf")),
                            h.count()
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            family.name,
                            render_labels(&series.labels, None),
                            h.sum
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            family.name,
                            render_labels(&series.labels, None),
                            h.count()
                        );
                    }
                }
            }
        }
        out
    }

    /// Render as a JSON document (families → series → values, with
    /// histogram percentile estimates precomputed).
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"families\":[");
        for (fx, family) in self.families.iter().enumerate() {
            if fx > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"help\":{},\"kind\":\"{}\",\"series\":[",
                json_string(family.name),
                json_string(family.help),
                family.kind.as_str()
            );
            for (sx, series) in family.series.iter().enumerate() {
                if sx > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (lx, (k, v)) in series.labels.iter().enumerate() {
                    if lx > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{}", json_string(k), json_string(v));
                }
                out.push_str("},");
                match &series.value {
                    SeriesValue::Counter(v) | SeriesValue::Gauge(v) => {
                        let _ = write!(out, "\"value\":{v}}}");
                    }
                    SeriesValue::Histogram(h) => {
                        let _ = write!(
                            out,
                            "\"count\":{},\"sum\":{},\"max\":{},\"p50\":{:.0},\
                             \"p90\":{:.0},\"p99\":{:.0}}}",
                            h.count(),
                            h.sum,
                            h.max,
                            h.p50(),
                            h.p90(),
                            h.p99()
                        );
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

impl SeriesSnapshot {
    fn series_label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
    out
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn json_string(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        // Bucket 0 is {0, 1}; bucket i ≥ 1 is [2^i, 2^(i+1)).
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        for i in 1..63 {
            let lo = 1u64 << i;
            assert_eq!(bucket_of(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_of(lo - 1), i - 1, "just below bucket {i}");
            assert_eq!(bucket_of(bucket_upper(i)), i, "upper bound of bucket {i}");
        }
        assert_eq!(bucket_of(u64::MAX), 63);
        // The cumulative-le invariant the exposition relies on: every
        // v ≤ bucket_upper(i) lands in a bucket ≤ i.
        for v in [0u64, 1, 2, 3, 7, 8, 1023, 1024, 1025] {
            let i = bucket_of(v);
            assert!(v <= bucket_upper(i));
            assert!(v >= bucket_lower(i));
        }
    }

    #[test]
    fn quantile_interpolation_error_is_bucket_bounded() {
        // Uniform 1..=10_000: every estimate must land within the
        // owning log2 bucket, i.e. within 2× of the true order
        // statistic (and never outside [lower, upper] of its bucket).
        let h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        for (q, true_v) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let est = snap.quantile(q);
            assert!(
                est >= true_v / 2.0 && est <= true_v * 2.0,
                "q={q}: estimate {est} vs true {true_v}"
            );
        }
        assert_eq!(snap.quantile(1.0), 10_000.0, "q=1 is the exact max");
        assert_eq!(snap.max, 10_000);
        assert_eq!(snap.count(), 10_000);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::default());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i);
                    }
                })
            })
            .collect();
        for th in handles {
            th.join().unwrap();
        }
        assert_eq!(h.count(), threads * per_thread);
        let expected_sum: u64 = (0..threads * per_thread).sum();
        assert_eq!(h.sum(), expected_sum);
        assert_eq!(h.max(), threads * per_thread - 1);
    }

    #[test]
    fn merge_is_associative() {
        let mk = |vals: &[u64]| {
            let h = Histogram::default();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let a = mk(&[1, 5, 9, 100]);
        let b = mk(&[2, 1_000, 65_536]);
        let c = mk(&[0, 7, 7, 7, u64::MAX]);
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.count(), 12);
        assert_eq!(left.max, u64::MAX);
    }

    #[test]
    fn registry_reuses_series_and_renders() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("test_total", "help text", &[("shard", "0")]);
        let c2 = reg.counter("test_total", "help text", &[("shard", "0")]);
        c1.inc();
        c2.add(2);
        assert_eq!(c1.get(), 3, "same (name, labels) shares one counter");
        let g = reg.gauge("test_epoch", "epoch", &[]);
        g.set(41);
        g.add(2);
        g.sub(1);
        assert_eq!(g.get(), 42);
        let h = reg.histogram("test_ns", "latency", &[("kind", "cps")]);
        h.record(3);
        h.record(300);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE test_total counter"));
        assert!(text.contains("test_total{shard=\"0\"} 3"));
        assert!(text.contains("test_epoch 42"));
        assert!(text.contains("# TYPE test_ns histogram"));
        assert!(text.contains("test_ns_bucket{kind=\"cps\",le=\"3\"} 1"));
        assert!(text.contains("test_ns_bucket{kind=\"cps\",le=\"+Inf\"} 2"));
        assert!(text.contains("test_ns_sum{kind=\"cps\"} 303"));
        assert!(text.contains("test_ns_count{kind=\"cps\"} 2"));
        let json = reg.render_json();
        assert!(json.contains("\"name\":\"test_ns\""));
        assert!(json.contains("\"count\":2"));
    }

    #[test]
    fn snapshot_label_decoration_and_merge() {
        let mk = |n: u64| {
            let reg = MetricsRegistry::new();
            reg.counter("hits_total", "hits", &[]).add(n);
            let h = reg.histogram("lat_ns", "latency", &[]);
            h.record(n);
            reg
        };
        let a = mk(10).snapshot().with_label("shard", "0");
        let b = mk(32).snapshot().with_label("shard", "1");
        let merged = MetricsSnapshot::merged([a, b]);
        match merged.find("hits_total", &[("shard", "0")]) {
            Some(SeriesValue::Counter(10)) => {}
            other => panic!("shard 0 counter: {other:?}"),
        }
        match merged.find("hits_total", &[("shard", "1")]) {
            Some(SeriesValue::Counter(32)) => {}
            other => panic!("shard 1 counter: {other:?}"),
        }
        let lat = merged.merged_histogram("lat_ns");
        assert_eq!((lat.count(), lat.sum, lat.max), (2, 42, 32));
        assert_eq!(merged.merged_histogram("absent_ns").count(), 0);
        let text = merged.render_prometheus();
        // One family header even though two registries contributed.
        assert_eq!(text.matches("# TYPE hits_total counter").count(), 1);
        assert!(text.contains("hits_total{shard=\"0\"} 10"));
        assert!(text.contains("hits_total{shard=\"1\"} 32"));
        // Identical labels merge by value.
        let c = mk(1).snapshot().with_label("shard", "0");
        let d = mk(2).snapshot().with_label("shard", "0");
        let folded = MetricsSnapshot::merged([c, d]);
        match folded.find("hits_total", &[("shard", "0")]) {
            Some(SeriesValue::Counter(3)) => {}
            other => panic!("folded counter: {other:?}"),
        }
    }
}
