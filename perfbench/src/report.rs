//! Run configuration, client-side latency bookkeeping, and the metric
//! tables the result line is built from.

use crate::measure::{elapsed_ns, json_num, json_str, quantile_f64, Samples, SpeedProbe, Tracer};
use currency_obs::{MetricsSnapshot, SeriesValue};
use currency_serve::ServeStats;
use std::time::{Duration, Instant};

pub struct RunCfg {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// The end-to-end metrics of `BENCHMARK.json`, in order, with units.
/// Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("read_qps", "1/s"),
    ("ingest_dps", "1/s"),
];

/// The per-layer metrics of `BENCHMARK.json`.  A layer a workload does
/// not run reports 0.  The last eight are end-to-end figures left
/// unbounded: most apply to one or two workloads, `failed_frac` is 0 on
/// a correct run, and the latencies locate what the bounded rates catch.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.hit_ns.p50", "ns"),
    ("serve.hit_ns.p99", "ns"),
    ("serve.miss_overhead_ns.p50", "ns"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.hit_ratio_predicted", "ratio"),
    ("serve.cache.entries", "count"),
    ("serve.refused", "count"),
    ("snapshot.pin_ns.p50", "ns"),
    ("snapshot.pin_ns.p99", "ns"),
    ("snapshot.cop_ns.p50", "ns"),
    ("snapshot.cop_ns.p99", "ns"),
    ("snapshot.certain_answers_ns.p50", "ns"),
    ("snapshot.certain_answers_ns.p99", "ns"),
    ("snapshot.scratch_clones_per_epoch", "count"),
    ("snapshot.scratch_refreshes_per_epoch", "count"),
    ("snapshot.apply_ns.p50", "ns"),
    ("snapshot.apply_ns.p99", "ns"),
    ("snapshot.publish_rest_ns.p50", "ns"),
    ("snapshot.rebuilt_per_delta", "count"),
    ("snapshot.compact_steps", "count"),
    ("snapshot.reclaimed", "count"),
    ("engine.apply_validate_ns.p50", "ns"),
    ("engine.apply_validate_ns.p99", "ns"),
    ("engine.apply_refresh_ns.p50", "ns"),
    ("engine.apply_refresh_ns.p99", "ns"),
    ("engine.apply_recompile_ns.p50", "ns"),
    ("engine.apply_recompile_ns.p99", "ns"),
    ("engine.apply_ns.p50", "ns"),
    ("engine.compact_step_pause_ns.p99", "ns"),
    ("core.validate_ns.p50", "ns"),
    ("sat.solve_ns.p50", "ns"),
    ("sat.solve_ns.p99", "ns"),
    ("sat.conflicts.p99", "count"),
    ("sat.propagations.p50", "count"),
    ("store.apply_ns.p50", "ns"),
    ("store.apply_ns.p99", "ns"),
    ("store.wal.append_ns.p50", "ns"),
    ("store.wal.flush_ns.p99", "ns"),
    ("store.wal.bytes_per_delta", "B"),
    ("store.rotations", "count"),
    ("store.compact_steps", "count"),
    ("store.open_ns", "ns"),
    ("store.replayed", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.self_share.client", "ratio"),
    ("trace.self_share.serve", "ratio"),
    ("trace.self_share.snapshot", "ratio"),
    ("trace.self_share.store", "ratio"),
    ("trace.self_share.core", "ratio"),
    ("read_p99_us", "us"),
    ("read_miss_p50_us", "us"),
    ("read_miss_p99_us", "us"),
    ("read_hit_p50_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("recover_s", "s"),
    ("failed_frac", "ratio"),
];

/// The host's speed is probed at most this often, between operations.
const PROBE_EVERY: Duration = Duration::from_millis(5);

/// The figures computed per round, in order; the first is the rate.
const ROUND_FIGURES: [&str; 8] = [
    "read_qps",
    "read_p99_us",
    "read_miss_p50_us",
    "read_miss_p99_us",
    "write_p50_us",
    "write_p99_us",
    "ingest_dps",
    "read_hit_p50_us",
];

/// Client-side view of one run, in rounds of a fixed length.  The open
/// round collects the latencies of untraced operations and, every
/// [`PROBE_EVERY`], the host's slowdown from a [`SpeedProbe`] run
/// between operations (its time is left out of the round).  Closing a
/// round keeps only its figures, scaled to the reference host's speed by
/// the round's median slowdown: rates multiplied by it, latencies
/// divided by it.  A run reports each figure as its median over the
/// rounds.  The shared host's speed swings by up to a half from one
/// second to the next; the probe slows with it, so the scaled figures
/// hold still while a change to the program moves them as much as the
/// raw ones.
pub struct Client {
    pub hit: Samples,
    pub miss: Samples,
    pub write: Samples,
    pub reads: u64,
    pub writes: u64,
    pub total_reads: u64,
    /// Closed rounds: raw operations per second, slowdown, and the
    /// scaled figures.
    closed: Vec<(f64, f64, [Option<f64>; 8])>,
    counts: [usize; 3],
    round_ns: u64,
    round_start: Instant,
    probe: SpeedProbe,
    slowdowns: Vec<f64>,
    last_probe: Instant,
    pub untraced_ops: Samples,
    pub traced_ops: Samples,
}

impl Client {
    /// `sensitivity` is the workload's, as [`SpeedProbe`] defines it.
    pub fn new(round: Duration, sensitivity: f64) -> Client {
        Client {
            hit: Samples::default(),
            miss: Samples::default(),
            write: Samples::default(),
            reads: 0,
            writes: 0,
            total_reads: 0,
            closed: Vec::new(),
            counts: [0; 3],
            round_ns: u64::try_from(round.as_nanos()).unwrap_or(u64::MAX),
            round_start: Instant::now(),
            probe: SpeedProbe::new(sensitivity),
            slowdowns: Vec::new(),
            last_probe: Instant::now(),
            untraced_ops: Samples::default(),
            traced_ops: Samples::default(),
        }
    }

    /// Start the first round now.
    pub fn start(&mut self) {
        self.round_start = Instant::now();
        self.last_probe = self.round_start;
    }

    /// Probe the host's speed; the probe's time is taken out of the
    /// open round.
    fn probe(&mut self) {
        let t = Instant::now();
        self.slowdowns.push(self.probe.slowdown());
        self.round_start += t.elapsed();
        self.last_probe = Instant::now();
    }

    fn close(&mut self, wall_ns: u64) {
        if self.slowdowns.is_empty() {
            self.probe();
        }
        let slow = quantile_f64(&self.slowdowns, 0.5);
        let mut reads = Samples::default();
        reads.extend(&self.hit);
        reads.extend(&self.miss);
        let lat = |s: &Samples, q: f64| (s.len() > 0).then(|| s.quantile(q) / 1e3 / slow);
        let secs = wall_ns.max(1) as f64 / 1e9;
        self.closed.push((
            (self.reads + self.writes) as f64 / secs,
            slow,
            [
                Some(self.reads as f64 / secs * slow),
                lat(&reads, 0.99),
                lat(&self.miss, 0.5),
                lat(&self.miss, 0.99),
                lat(&self.write, 0.5),
                lat(&self.write, 0.99),
                Some(self.writes as f64 / secs * slow),
                lat(&self.hit, 0.5),
            ],
        ));
        self.counts[0] += self.hit.len();
        self.counts[1] += self.miss.len();
        self.counts[2] += self.write.len();
        self.total_reads += self.reads;
        (self.hit, self.miss, self.write) = Default::default();
        (self.reads, self.writes) = (0, 0);
        self.slowdowns.clear();
        self.round_start = Instant::now();
    }

    /// Between operations: probe the host when due, and close the open
    /// round once it has run its length.
    pub fn tick(&mut self) {
        if self.last_probe.elapsed() >= PROBE_EVERY {
            self.probe();
        }
        let ns = elapsed_ns(self.round_start);
        if ns >= self.round_ns {
            self.close(ns);
        }
    }

    /// Close the open round; one shorter than half a round is dropped
    /// unless it is the only one.
    pub fn finish(&mut self) {
        let ns = elapsed_ns(self.round_start);
        if ns >= self.round_ns / 2 || self.closed.is_empty() {
            self.close(ns);
        } else {
            self.total_reads += self.reads;
        }
    }

    /// The latency and rate metrics (plus `read_hit_p50_us`).
    pub fn report(&self, out: &mut Outcome) {
        for (i, name) in ROUND_FIGURES.into_iter().enumerate() {
            let values: Vec<f64> = self.closed.iter().filter_map(|r| r.2[i]).collect();
            out.e2e(name, quantile_f64(&values, 0.5));
        }
        let rates: Vec<String> = self.closed.iter().map(|r| format!("{:.0}", r.0)).collect();
        out.note(format!("round operations per second: {}", rates.join(" ")));
        let slow: Vec<String> = self.closed.iter().map(|r| format!("{:.2}", r.1)).collect();
        out.note(format!("round slowdown: {}", slow.join(" ")));
        out.note(format!(
            "samples: {} rounds; hits {}, misses {}, writes {}",
            self.closed.len(),
            self.counts[0],
            self.counts[1],
            self.counts[2],
        ));
    }
}

/// Everything a run found, before it is printed.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub e2e: Vec<(&'static str, f64)>,
    pub layer: Vec<(&'static str, f64)>,
    pub params: Vec<(&'static str, String)>,
    pub notes: Vec<String>,
    pub spans: Option<String>,
}

impl Outcome {
    pub fn new(workload: &'static str, cfg: &RunCfg) -> Outcome {
        let mut out = Outcome {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            e2e: Vec::new(),
            layer: Vec::new(),
            params: Vec::new(),
            notes: Vec::new(),
            spans: None,
        };
        out.param("seed", cfg.seed);
        out.param("seconds", cfg.seconds);
        out.param("trace", u8::from(cfg.trace));
        out
    }

    pub fn param(&mut self, key: &'static str, value: impl ToString) {
        self.params.push((key, value.to_string()));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count one failed operation; the first few reasons are kept.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Record a measured figure (end-to-end, or printed only).
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.e2e
            .iter()
            .chain(&self.layer)
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Fold a traced run's spans in: coverage, overhead and per-layer
    /// self-time shares, and keep the spans to write out.
    pub fn trace(&mut self, tr: Tracer, client: &Client) {
        self.layer("trace.coverage", tr.coverage());
        let untraced = client.untraced_ops.mean();
        let traced = client.traced_ops.mean();
        self.layer(
            "trace.overhead",
            if untraced > 0.0 {
                traced / untraced
            } else {
                0.0
            },
        );
        let layers = tr.layer_self();
        let total: u64 = layers.values().sum();
        for (layer, name) in [
            ("client", "trace.self_share.client"),
            ("serve", "trace.self_share.serve"),
            ("snapshot", "trace.self_share.snapshot"),
            ("store", "trace.self_share.store"),
            ("core", "trace.self_share.core"),
        ] {
            let t = layers.get(layer).copied().unwrap_or(0);
            self.layer(name, t as f64 / total.max(1) as f64);
        }
        self.note(format!(
            "trace: {} spans over {} traced and {} untraced operations",
            tr.spans.len(),
            client.traced_ops.len(),
            client.untraced_ops.len()
        ));
        self.spans = Some(tr.to_tsv());
    }

    /// The result line: the end-to-end metrics, or with tracing the
    /// per-layer ones.
    pub fn result_json(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(self.get(name)),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn histogram<'a>(
    snap: &'a MetricsSnapshot,
    name: &str,
) -> Option<&'a currency_obs::HistogramSnapshot> {
    match snap.find(name, &[]) {
        Some(SeriesValue::Histogram(h)) => Some(h),
        _ => None,
    }
}

/// The per-layer series read from the program's own `currency-obs`
/// registry (log2 buckets: for attribution, not end-to-end numbers).
pub fn registry_layers(out: &mut Outcome, snap: &MetricsSnapshot) {
    let series: &[(&str, &'static str, f64)] = &[
        (
            "currency_engine_apply_validate_ns",
            "engine.apply_validate_ns.p50",
            0.5,
        ),
        (
            "currency_engine_apply_validate_ns",
            "engine.apply_validate_ns.p99",
            0.99,
        ),
        (
            "currency_engine_apply_refresh_ns",
            "engine.apply_refresh_ns.p50",
            0.5,
        ),
        (
            "currency_engine_apply_refresh_ns",
            "engine.apply_refresh_ns.p99",
            0.99,
        ),
        (
            "currency_engine_apply_recompile_ns",
            "engine.apply_recompile_ns.p50",
            0.5,
        ),
        (
            "currency_engine_apply_recompile_ns",
            "engine.apply_recompile_ns.p99",
            0.99,
        ),
        ("currency_engine_apply_ns", "engine.apply_ns.p50", 0.5),
        (
            "currency_engine_compact_step_pause_ns",
            "engine.compact_step_pause_ns.p99",
            0.99,
        ),
        ("currency_engine_solve_ns", "sat.solve_ns.p50", 0.5),
        ("currency_engine_solve_ns", "sat.solve_ns.p99", 0.99),
        (
            "currency_engine_solver_conflicts",
            "sat.conflicts.p99",
            0.99,
        ),
        (
            "currency_engine_solver_propagations",
            "sat.propagations.p50",
            0.5,
        ),
        ("currency_wal_append_ns", "store.wal.append_ns.p50", 0.5),
        ("currency_wal_flush_ns", "store.wal.flush_ns.p99", 0.99),
    ];
    for &(family, name, q) in series {
        let v =
            histogram(snap, family).map_or(
                0.0,
                |h| {
                    if h.count() == 0 {
                        0.0
                    } else {
                        h.quantile(q)
                    }
                },
            );
        out.layer(name, v);
    }
}

/// Per-layer timings taken from the bench-side spans: the front door's
/// write call (`apply_span`), the validation probe and the bench-owned
/// reader's calls.
pub fn span_layers(out: &mut Outcome, tr: &Tracer, apply_span: &'static str) {
    let apply = tr.durations(apply_span);
    let (p50, p99): (&'static str, &'static str) = match apply_span {
        "snapshot.apply" => ("snapshot.apply_ns.p50", "snapshot.apply_ns.p99"),
        _ => ("store.apply_ns.p50", "store.apply_ns.p99"),
    };
    out.layer(p50, apply.p50());
    out.layer(p99, apply.p99());
    out.layer("core.validate_ns.p50", tr.durations("core.validate").p50());
    for (span, n50, n99) in [
        ("snapshot.pin", "snapshot.pin_ns.p50", "snapshot.pin_ns.p99"),
        ("snapshot.cop", "snapshot.cop_ns.p50", "snapshot.cop_ns.p99"),
        (
            "snapshot.certain_answers",
            "snapshot.certain_answers_ns.p50",
            "snapshot.certain_answers_ns.p99",
        ),
    ] {
        let d = tr.durations(span);
        out.layer(n50, d.p50());
        out.layer(n99, d.p99());
    }
}

/// `snapshot.publish_rest_ns.p50`: the serving writer's apply beyond the
/// engine's own apply (publish, slot-vector clone, writer lock).
pub fn publish_rest(out: &mut Outcome) {
    let rest = out.get("snapshot.apply_ns.p50") - out.get("engine.apply_ns.p50");
    out.layer("snapshot.publish_rest_ns.p50", rest.max(0.0));
}

/// Requests the service refused or answered from a stale epoch.
pub fn refused(stats: &ServeStats) -> u64 {
    stats.shed + stats.timeouts + stats.rate_limited + stats.breaker_rejects + stats.stale_served
}

/// Probe units behind the slowdown a one-off timing is scaled by.
pub const ONE_OFF_PROBES: usize = 5;

/// Run `setup` `reps` times, releasing each result before the next one
/// is built; returns the last result and every set-up time in seconds,
/// scaled to the reference host's speed by probes right after it.
pub fn repeat_setup<T>(
    reps: usize,
    sensitivity: f64,
    mut setup: impl FnMut() -> (T, f64),
) -> (T, Vec<f64>) {
    let mut probe = SpeedProbe::new(sensitivity);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (value, secs) = setup();
        times.push(secs / probe.slowdown_of(ONE_OFF_PROBES));
        last = Some(value);
    }
    (last.expect("at least one set-up"), times)
}
