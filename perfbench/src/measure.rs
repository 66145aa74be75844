//! Timing samples, bench-side spans and process facts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Nanosecond samples of one operation kind.
#[derive(Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Nearest-rank quantile in nanoseconds; 0 for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() as f64 / self.0.len() as f64
        }
    }
}

/// Linearly interpolated `q`-quantile; 0 for no values.
pub fn quantile_f64(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// The speed probe's unit of work on the reference host, a 2-core
/// Intel Xeon VM at 2.1 GHz in a quiet stretch, in nanoseconds.
pub const REFERENCE_UNIT_NS: f64 = 90_000.0;

/// Steps in one probe unit.
const PROBE_STEPS: u32 = 20_000;

/// A gauge of how fast the host runs the benchmark right now: a fixed
/// unit of bench-owned work, data-dependent loads and branches over a
/// 64 KiB table, timed after an untimed pass that brings the table into
/// cache.  No change to the program can speed it up or slow it down.
///
/// A shared host slows every workload when it slows the probe, but not
/// by the same share: compute-bound work follows it closely, work bound
/// by memory traffic less.  So each workload states its `sensitivity`,
/// the slope of its log rate over the probe's log slowdown across the
/// rounds of runs on the reference host, and the probe reports its
/// slowdown raised to that power.
pub struct SpeedProbe {
    table: Vec<u32>,
    salt: u64,
    sensitivity: f64,
}

impl SpeedProbe {
    pub fn new(sensitivity: f64) -> SpeedProbe {
        SpeedProbe {
            table: vec![0; 1 << 14],
            salt: 1,
            sensitivity,
        }
    }

    fn pass(&mut self) -> usize {
        let mask = self.table.len() - 1;
        self.salt += 2;
        let (mut x, mut i) = (self.salt, 0usize);
        for _ in 0..PROBE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = self.table[i];
            if v & 3 == 0 {
                self.table[i] = v.wrapping_add(x as u32);
            } else {
                self.table[(i + 1) & mask] ^= v;
            }
            i = (v as usize ^ (x as usize >> 11)) & mask;
        }
        i
    }

    /// The workload's slowdown against the reference host, as one probe
    /// unit gauges it: the unit's time over [`REFERENCE_UNIT_NS`], raised
    /// to the workload's sensitivity.
    pub fn slowdown(&mut self) -> f64 {
        std::hint::black_box(self.pass());
        let start = Instant::now();
        std::hint::black_box(self.pass());
        (elapsed_ns(start) as f64 / REFERENCE_UNIT_NS).powf(self.sensitivity)
    }

    /// The median slowdown over `n` probe units.
    pub fn slowdown_of(&mut self, n: usize) -> f64 {
        let units: Vec<f64> = (0..n.max(1)).map(|_| self.slowdown()).collect();
        quantile_f64(&units, 0.5)
    }
}

pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One bench-side span.  `replica` marks a probe that re-runs, on a
/// bench-owned object, work its parent span already did inside the
/// program: its time is subtracted from the parent's self time and left
/// out of the end-to-end time.
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
    pub replica: bool,
}

/// In-memory span recorder; ids start at 1 (0 = no parent).
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Replica probe time so far, and its value when the open root
    /// span began.
    replica_ns: u64,
    root_mark: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            replica_ns: 0,
            root_mark: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        elapsed_ns(self.origin)
    }

    pub fn begin(&mut self, name: &'static str, req: u64, parent: u32) -> u32 {
        let start = self.now();
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end: start,
            replica: false,
        });
        self.spans.len() as u32
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize - 1].end = now;
    }

    /// Open the root span of one client operation.
    pub fn begin_root(&mut self, req: u64) -> u32 {
        self.root_mark = self.replica_ns;
        self.begin("client.op", req, 0)
    }

    /// Close root span `id`; returns its end-to-end time, which leaves
    /// out the replica probes run inside it.
    pub fn end_root(&mut self, id: u32) -> u64 {
        self.end(id);
        self.dur(id) - (self.replica_ns - self.root_mark)
    }

    /// Time `f` as a replica probe of the work inside span `parent`.
    pub fn replica<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, req, parent);
        let out = f();
        self.end(id);
        self.spans[id as usize - 1].replica = true;
        self.replica_ns += self.dur(id);
        out
    }

    pub fn set_parent(&mut self, id: u32, parent: u32) {
        self.spans[id as usize - 1].parent = parent;
    }

    pub fn dur(&self, id: u32) -> u64 {
        let s = &self.spans[id as usize - 1];
        s.end - s.start
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(s.end - s.start);
        }
        out
    }

    /// The root span above `id`.
    fn root_of(&self, mut id: u32) -> u32 {
        while self.spans[id as usize - 1].parent > 0 {
            id = self.spans[id as usize - 1].parent;
        }
        id
    }

    /// Self time of every span: its duration minus its children's
    /// durations, clamped at zero.  A replica probe runs inside its root
    /// span but outside its parent, so the root loses its time too.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                let d = s.end - s.start;
                child[s.parent as usize - 1] += d;
                let root = self.root_of(s.parent);
                if s.replica && root != s.parent {
                    child[root as usize - 1] += d;
                }
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Self times of the spans called `name`.
    pub fn self_times_of(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            if s.name == name {
                out.push(t);
            }
        }
        out
    }

    /// Self time per layer (the span name up to its first `.`).
    pub fn layer_self(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0) += t;
        }
        out
    }

    /// Share of the end-to-end time the program's layers account for:
    /// the self time of every layer but the bench client's, over the
    /// root spans' time without the replica probes.
    pub fn coverage(&self) -> f64 {
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.end - s.start)
            .sum();
        let replicas: u64 = self
            .spans
            .iter()
            .filter(|s| s.replica)
            .map(|s| s.end - s.start)
            .sum();
        let layers: u64 = self
            .layer_self()
            .iter()
            .filter(|(layer, _)| **layer != "client")
            .map(|(_, t)| t)
            .sum();
        layers as f64 / roots.saturating_sub(replicas).max(1) as f64
    }

    /// The spans as tab-separated lines, one per span.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\treq\tname\tstart_ns\tend_ns\treplica\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start,
                s.end,
                u8::from(s.replica)
            );
        }
        out
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checked-out commit when the working directory is a git checkout,
/// read from `.git` directly; "unknown" otherwise.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".into(), |id| id.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v);
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(Samples::default().p99(), 0.0);
    }

    #[test]
    fn speed_probe_reports_a_positive_slowdown() {
        assert!(SpeedProbe::new(1.0).slowdown_of(3) > 0.0);
        assert_eq!(SpeedProbe::new(0.0).slowdown_of(3), 1.0);
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_skips_replicas() {
        let t = Tracer {
            spans: vec![
                Span {
                    name: "client.op",
                    req: 1,
                    parent: 0,
                    start: 0,
                    end: 100,
                    replica: false,
                },
                Span {
                    name: "serve.query",
                    req: 1,
                    parent: 1,
                    start: 0,
                    end: 60,
                    replica: false,
                },
                Span {
                    name: "snapshot.cop",
                    req: 1,
                    parent: 2,
                    start: 60,
                    end: 80,
                    replica: true,
                },
                Span {
                    name: "snapshot.pin",
                    req: 1,
                    parent: 1,
                    start: 80,
                    end: 95,
                    replica: false,
                },
            ],
            ..Tracer::default()
        };
        assert_eq!(t.self_times(), vec![5, 40, 20, 15]);
        let layers = t.layer_self();
        assert_eq!(layers["serve"], 40);
        assert_eq!(layers["snapshot"], 35);
        // (40 + 35) over (100 - 20).
        assert!((t.coverage() - 75.0 / 80.0).abs() < 1e-12);
    }
}
