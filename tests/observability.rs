//! End-to-end checks of the observability layer: the Prometheus text
//! every front door renders must parse line-by-line as valid exposition
//! — under concurrent load, since scrapes happen while queries solve
//! and the writer publishes — and the series the layers promise
//! (serve latency buckets, engine apply phase timings, WAL flush
//! timings, per-shard cache hit rates, recovery progress) must actually
//! be there with non-trivial values.  Every count the stats structs
//! report must also equal its series: the registry is their only store.

use data_currency::datagen::random::monotone;
use data_currency::model::{
    AttrId, Catalog, Eid, RelId, RelationSchema, SpecDelta, Specification, Tuple, TupleId, Value,
};
use data_currency::obs::{
    MetricsSnapshot, Recorder, RingRecorder, SeriesValue, TraceEvent, TraceKind,
};
use data_currency::reason::{
    CompactBudget, CurrencyEngine, CurrencyOrderQuery, EngineStats, Options,
};
use data_currency::serve::{
    CurrencyServe, ServeError, ServeOptions, ServeRequest, ServeStats, ShardedServe,
};
use data_currency::store::{DurableEngine, StoreOptions};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const A: AttrId = AttrId(0);

fn spec(entities: u64) -> (Specification, RelId) {
    let mut cat = Catalog::new();
    let r = cat.add(RelationSchema::new("R", &["A"]));
    let mut spec = Specification::new(cat);
    for e in 0..entities {
        for v in [10, 20] {
            spec.instance_mut(r)
                .push_tuple(Tuple::new(Eid(e), vec![Value::int(v + e as i64)]))
                .unwrap();
        }
    }
    spec.add_constraint(monotone(r, A)).unwrap();
    (spec, r)
}

fn insert(r: RelId, e: u64, v: i64) -> SpecDelta {
    let mut d = SpecDelta::new();
    d.insert_tuple(r, Tuple::new(Eid(e), vec![Value::int(v)]));
    d
}

/// Parse `text` line by line as Prometheus text exposition: every
/// non-comment line must be `name[{k="v",...}] value`, every sample's
/// family must have been declared by a `# TYPE` line, and histogram
/// `le` buckets must be cumulative.
fn assert_prometheus_grammar(text: &str) {
    let mut typed: HashMap<String, String> = HashMap::new();
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap();
            assert!(!name.is_empty(), "HELP without a name: {line}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap().to_string();
            let kind = it.next().expect("TYPE without a kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE kind: {line}"
            );
            typed.insert(name, kind.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line}");
        let (series, value) = line.rsplit_once(' ').expect("sample without a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value: {line}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name: {name}"
        );
        let labels = &series[name.len()..];
        if !labels.is_empty() {
            assert!(
                labels.starts_with('{') && labels.ends_with('}'),
                "malformed label block: {line}"
            );
            for pair in labels[1..labels.len() - 1].split(',') {
                let (k, v) = pair.split_once('=').expect("label without =");
                assert!(!k.is_empty(), "empty label key: {line}");
                assert!(
                    v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                    "unquoted label value: {line}"
                );
            }
        }
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| typed.contains_key(*base))
            .unwrap_or(name);
        assert!(
            typed.contains_key(base),
            "sample {name} has no preceding TYPE"
        );
        samples += 1;
    }
    assert!(samples > 0, "exposition rendered no samples");
}

#[test]
fn serve_metrics_text_is_valid_prometheus_under_concurrent_load() {
    let (spec, r) = spec(3);
    let serve = CurrencyServe::new(spec, &Options::default(), &ServeOptions::default()).unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..4 {
            let mut h = serve.handle();
            let stop = &stop;
            s.spawn(move || {
                let mut k = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let pair = (t + k) % 2;
                    let _ = h.cps();
                    let _ = h.cop(&CurrencyOrderQuery::single(
                        r,
                        A,
                        TupleId(pair),
                        TupleId(pair + 1),
                    ));
                    k = k.wrapping_add(1);
                }
            });
        }
        // The scraper races the readers and the writer: every
        // intermediate exposition must already be grammatical.
        let scraper = {
            let serve = &serve;
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    assert_prometheus_grammar(&serve.metrics_text());
                }
            })
        };
        for step in 0..30 {
            serve
                .apply(&insert(r, step % 3, 100 + step as i64))
                .unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        scraper.join().unwrap();
    });
    let text = serve.handle().metrics_text();
    assert_prometheus_grammar(&text);
    // The promised series, with real content behind them.
    assert!(
        text.contains("currency_serve_latency_ns_bucket{query_kind=\"cps\",le="),
        "serve latency histogram buckets missing:\n{text}"
    );
    assert!(
        text.contains("currency_engine_apply_ns_bucket"),
        "writer engine apply timings missing"
    );
    assert!(
        text.contains("currency_engine_apply_refresh_ns"),
        "apply phase (refresh) timings missing"
    );
    assert!(
        text.contains("currency_serve_cache_hits_total{shard=\"0\"}"),
        "cache hit counter missing"
    );
    let snap = serve.metrics().snapshot();
    match snap.find("currency_serve_latency_ns", &[("query_kind", "cps")]) {
        Some(SeriesValue::Histogram(h)) => assert!(h.count() > 0, "no cps latencies recorded"),
        other => panic!("cps latency series missing: {other:?}"),
    }
    match snap.find("currency_engine_apply_ns", &[]) {
        Some(SeriesValue::Histogram(h)) => {
            assert!(h.count() >= 30, "one apply sample per delta")
        }
        other => panic!("apply histogram missing: {other:?}"),
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("currency-obs-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn durable_store_exposes_wal_timings_and_recovery_progress() {
    let dir = tmpdir("durable");
    let (spec, r) = spec(3);
    let opts = Options::default();
    let store_opts = StoreOptions {
        sync_data: false,
        ..StoreOptions::default()
    };
    let mut durable = DurableEngine::create(&dir, spec, &opts, store_opts).unwrap();
    for step in 0..6 {
        durable
            .apply(&insert(r, step % 3, 100 + step as i64))
            .unwrap();
    }
    durable.flush().unwrap();
    let text = durable.metrics_text();
    assert_prometheus_grammar(&text);
    assert!(
        text.contains("currency_wal_flush_ns_bucket"),
        "WAL flush timings missing:\n{text}"
    );
    let snap = durable.metrics().snapshot();
    match snap.find("currency_wal_append_ns", &[]) {
        Some(SeriesValue::Histogram(h)) => assert!(h.count() >= 6, "one append per delta"),
        other => panic!("WAL append histogram missing: {other:?}"),
    }
    match snap.find("currency_wal_flushes_total", &[]) {
        Some(SeriesValue::Counter(n)) => assert!(*n >= 1, "explicit flush must be counted"),
        other => panic!("WAL flush counter missing: {other:?}"),
    }
    drop(durable);

    // Reopen: the recovery gauges report the replay target and progress.
    let recovered = DurableEngine::open(&dir, &opts, store_opts).unwrap();
    let snap = recovered.metrics().snapshot();
    match snap.find("currency_recovery_records_total", &[]) {
        Some(SeriesValue::Gauge(n)) => assert_eq!(*n, 6),
        other => panic!("recovery total gauge missing: {other:?}"),
    }
    match snap.find("currency_recovery_records_replayed", &[]) {
        Some(SeriesValue::Gauge(n)) => assert_eq!(*n, 6, "replay ran to completion"),
        other => panic!("recovery progress gauge missing: {other:?}"),
    }

    // One exposition for a mixed stack: serve + store snapshots merge.
    let (sspec, _) = spec_pair();
    let serve = CurrencyServe::new(sspec, &opts, &ServeOptions::default()).unwrap();
    let mut h = serve.handle();
    h.cps().unwrap();
    let mut merged = MetricsSnapshot::default();
    merged.merge(&serve.metrics().snapshot());
    merged.merge(&recovered.metrics().snapshot());
    let text = merged.render_prometheus();
    assert_prometheus_grammar(&text);
    assert!(text.contains("currency_serve_latency_ns_bucket"));
    assert!(text.contains("currency_wal_flush_ns_bucket"));
}

fn spec_pair() -> (Specification, RelId) {
    spec(2)
}

#[test]
fn sharded_serve_merges_per_shard_cache_series() {
    let (spec, r) = spec(4);
    let sharded =
        ShardedServe::new(&spec, 2, &Options::default(), &ServeOptions::default()).unwrap();
    let mut h = sharded.handle();
    assert!(h.cps().unwrap());
    assert!(h.cps().unwrap()); // second round: per-shard cache hits
    let _ = r;
    let text = sharded.metrics_text();
    assert_prometheus_grammar(&text);
    for shard in ["0", "1"] {
        assert!(
            text.contains(&format!(
                "currency_serve_cache_hits_total{{shard=\"{shard}\"}}"
            )),
            "shard {shard} cache hit series missing:\n{text}"
        );
    }
    let snap = sharded.metrics_snapshot();
    for shard in ["0", "1"] {
        match snap.find("currency_serve_cache_hits_total", &[("shard", shard)]) {
            Some(SeriesValue::Counter(n)) => assert!(*n >= 1, "shard {shard} saw no hits"),
            other => panic!("shard {shard} hit counter missing: {other:?}"),
        }
    }
    let stats = sharded.stats();
    assert!(stats.total.queries >= 4);
    assert_eq!(
        snap.merged_histogram("currency_serve_latency_ns").count(),
        stats.total.queries,
        "one latency sample per answered query, across shards"
    );
}

/// `currency_snapshot_epochs_live` counts the snapshots a front door
/// holds: none on the durable store, which never takes one, and the
/// published one per shard of an idle sharded front door.
#[test]
fn epochs_live_gauge_per_front_door() {
    let dir = tmpdir("epochs-live");
    let (spec, r) = spec(4);
    let store_opts = StoreOptions {
        sync_data: false,
        ..StoreOptions::default()
    };
    let mut durable =
        DurableEngine::create(&dir, spec.clone(), &Options::default(), store_opts).unwrap();
    for step in 0..4 {
        durable
            .apply(&insert(r, step % 4, 100 + step as i64))
            .unwrap();
    }
    match durable
        .metrics()
        .snapshot()
        .find("currency_snapshot_epochs_live", &[])
    {
        Some(SeriesValue::Gauge(n)) => assert_eq!(*n, 0, "the store never snapshots"),
        other => panic!("epochs-live gauge missing: {other:?}"),
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);

    let sharded =
        ShardedServe::new(&spec, 2, &Options::default(), &ServeOptions::default()).unwrap();
    sharded.apply(&insert(r, 0, 99)).unwrap();
    let snap = sharded.metrics_snapshot();
    for shard in ["0", "1"] {
        match snap.find("currency_snapshot_epochs_live", &[("shard", shard)]) {
            Some(SeriesValue::Gauge(n)) => assert_eq!(*n, 1, "shard {shard}"),
            other => panic!("shard {shard} epochs-live gauge missing: {other:?}"),
        }
    }
}

/// Sum of every series of counter family `name` (all label sets).
fn counter_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.families
        .iter()
        .filter(|f| f.name == name)
        .flat_map(|f| &f.series)
        .map(|s| match s.value {
            SeriesValue::Counter(n) => n,
            ref other => panic!("{name} is not a counter: {other:?}"),
        })
        .sum()
}

/// Every count of `stats` against its series in `snap`.
fn assert_serve_stats_match(stats: &ServeStats, snap: &MetricsSnapshot) {
    let pairs = [
        (stats.cache_hits, "currency_serve_cache_hits_total"),
        (stats.cache_misses, "currency_serve_cache_misses_total"),
        (stats.stale_served, "currency_serve_stale_served_total"),
        (stats.shed, "currency_serve_shed_total"),
        (stats.timeouts, "currency_serve_timeouts_total"),
        (stats.degraded_events, "currency_degraded_events_total"),
    ];
    for (stat, series) in pairs {
        assert_eq!(stat, counter_sum(snap, series), "{series}");
    }
    // No series backs these two: serving has no limiter or breaker.
    assert_eq!((stats.rate_limited, stats.breaker_rejects), (0, 0));
    assert_eq!(
        snap.merged_histogram("currency_serve_latency_ns").count(),
        stats.queries,
        "summed latency _count"
    );
}

/// Parks the thread that emits `serve.stale` until released: the stale
/// serve keeps its in-flight slot meanwhile, so a concurrent query meets
/// a full cap deterministically.
struct GateOnStale {
    entered: Barrier,
    release: Barrier,
}

impl Recorder for GateOnStale {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: TraceEvent) {
        if event.name == "serve.stale" {
            self.entered.wait();
            self.release.wait();
        }
    }
}

#[test]
fn serve_stats_equal_the_scrape() {
    let (spec, r) = spec(3);
    let opts = ServeOptions {
        max_inflight: 1,
        ..ServeOptions::default()
    };
    let serve = CurrencyServe::new(spec, &Options::default(), &opts).unwrap();
    let gate = Arc::new(GateOnStale {
        entered: Barrier::new(2),
        release: Barrier::new(2),
    });
    serve.set_recorder(gate.clone());
    let mut h = serve.handle();
    let cop = ServeRequest::Cop(CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1)));
    h.query(&cop).unwrap(); // miss
    h.query(&cop).unwrap(); // hit
    h.cps().unwrap(); // miss
    serve.apply(&insert(r, 0, 99)).unwrap(); // both answers go stale
    std::thread::scope(|s| {
        let mut stale_h = serve.handle();
        let stale = s.spawn(move || stale_h.query_within(&cop, Some(Duration::ZERO)));
        // The zero-budget COP times out and degrades to stale, parked in
        // the recorder while holding the only slot.
        gate.entered.wait();
        assert_eq!(h.cps(), Err(ServeError::Overloaded));
        gate.release.wait();
        assert!(stale.join().unwrap().unwrap().is_stale());
    });
    h.cps().unwrap(); // miss at the new epoch
    let stats = serve.stats();
    assert_eq!(
        (
            stats.cache_hits,
            stats.cache_misses,
            stats.stale_served,
            stats.timeouts,
            stats.shed
        ),
        (1, 3, 1, 1, 1)
    );
    assert_eq!(stats.queries, 5);
    assert_serve_stats_match(&stats, &serve.metrics().snapshot());

    // The sharded front door: its totals equal the merged scrape.
    let (spec, r) = spec_pair();
    let sharded =
        ShardedServe::new(&spec, 2, &Options::default(), &ServeOptions::default()).unwrap();
    let mut h = sharded.handle();
    for _ in 0..3 {
        assert!(h.cps().unwrap());
        assert!(h.dcip(r).unwrap());
    }
    let stats = sharded.stats();
    assert!(stats.total.cache_hits > 0 && stats.total.cache_misses > 0);
    assert_serve_stats_match(&stats.total, &sharded.metrics_snapshot());
}

/// The lifetime counts of `stats` against the engine series in `snap`.
fn assert_engine_stats_match(stats: &EngineStats, snap: &MetricsSnapshot) {
    let pairs = [
        (stats.updates_applied, "currency_engine_applies_total"),
        (
            stats.components_rebuilt,
            "currency_engine_components_rebuilt_total",
        ),
        (stats.compact_steps, "currency_engine_compact_steps_total"),
        (
            stats.slots_reclaimed,
            "currency_engine_slots_reclaimed_total",
        ),
    ];
    for (stat, series) in pairs {
        assert_eq!(stat as u64, counter_sum(snap, series), "{series}");
    }
}

#[test]
fn engine_stats_equal_the_scrape() {
    let (spec, r) = spec(3);
    let mut retract = SpecDelta::new();
    retract.remove_tuple(r, TupleId(0));
    let mut live = CurrencyEngine::new_owned(spec.clone(), &Options::default()).unwrap();
    // The same engine as a serving writer: every write's snapshot is
    // taken and held, so each write copies the pages it dirties.
    let mut writer = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
    let mut held = vec![writer.snapshot()];
    live.apply(&insert(r, 1, 99)).unwrap();
    writer.apply(&insert(r, 1, 99)).unwrap();
    held.push(writer.snapshot());
    let peak = [live.stats().encoding_bytes, writer.stats().encoding_bytes];
    live.apply(&retract).unwrap();
    writer.apply(&retract).unwrap();
    held.push(writer.snapshot());
    let retracted = [live.stats().encoding_bytes, writer.stats().encoding_bytes];
    live.compact_step(&CompactBudget::UNBOUNDED).unwrap();
    writer.compact_step(&CompactBudget::UNBOUNDED).unwrap();
    held.push(writer.snapshot());
    assert_eq!(held.len(), 4);
    // The compiled footprint is in the same scrape: it is below its peak
    // once the retracted tuple's slot is freed, and the compaction's
    // rebuild of every remapped component does not grow it back.
    let compacted = [live.stats().encoding_bytes, writer.stats().encoding_bytes];
    for k in 0..2 {
        assert!(peak[k] > 0, "engine {k}");
        assert!(
            compacted[k] < peak[k],
            "engine {k}: {compacted:?} vs {peak:?}"
        );
        assert!(compacted[k] <= retracted[k], "engine {k}");
    }
    for (stats, snap) in [
        (live.stats(), live.obs().registry().snapshot()),
        (writer.stats(), writer.obs().registry().snapshot()),
    ] {
        assert_eq!((stats.updates_applied, stats.compact_steps), (2, 1));
        assert_eq!(stats.slots_reclaimed, 1);
        assert!(stats.components_rebuilt >= 2);
        assert_engine_stats_match(&stats, &snap);
    }
}

#[test]
fn slow_query_log_retains_shape_epoch_and_spend() {
    let (spec, r) = spec(2);
    let opts = ServeOptions {
        slow_query_threshold: Some(Duration::ZERO), // retain everything
        slow_query_capacity: 4,
        ..ServeOptions::default()
    };
    let serve = CurrencyServe::new(spec, &Options::default(), &opts).unwrap();
    let mut h = serve.handle();
    let req = ServeRequest::Cop(CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1)));
    h.query(&req).unwrap();
    // A zero-budget solve is interrupted and logs its work ledger.
    let fresh = ServeRequest::Cop(CurrencyOrderQuery::single(r, A, TupleId(2), TupleId(3)));
    let _ = h.query_within(&fresh, Some(Duration::ZERO));
    let slow = serve.slow_queries();
    assert_eq!(slow.len(), 2);
    assert_eq!(slow[0].request, req);
    assert_eq!(slow[0].epoch, serve.epoch());
    assert!(slow[0].spent.is_none(), "completed query has no ledger");
    assert_eq!(slow[1].request, fresh);
    assert!(slow[1].spent.is_some(), "interrupted query keeps its spend");
    // Capacity bounds the ring: oldest entries fall off.
    for _ in 0..8 {
        let _ = h.query_within(&fresh, Some(Duration::ZERO));
    }
    assert!(serve.slow_queries().len() <= 4);
}

#[test]
fn stale_serves_emit_trace_events() {
    let (spec, r) = spec(2);
    let serve = CurrencyServe::new(spec, &Options::default(), &ServeOptions::default()).unwrap();
    let recorder = RingRecorder::new(1024);
    serve.set_recorder(recorder.clone());
    let mut h = serve.handle();
    let req = ServeRequest::Cop(CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1)));
    // Warm the cache, go stale, then time out with a zero budget: each
    // timeout degrades to the stale answer and emits one event.
    assert!(h.query(&req).unwrap().as_bool().unwrap());
    serve.apply(&insert(r, 0, 99)).unwrap();
    for _ in 0..2 {
        assert!(h
            .query_within(&req, Some(Duration::ZERO))
            .unwrap()
            .is_stale());
    }
    // An unbounded retry answers fresh and emits nothing.
    let fresh = h.query_within(&req, None).unwrap();
    assert!(!fresh.is_stale() && fresh.as_bool().unwrap());
    let events = recorder.drain();
    let stale: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Event && e.name.starts_with("serve."))
        .collect();
    assert_eq!(stale.len(), 2, "{stale:?}");
    for event in stale {
        assert_eq!(event.name, "serve.stale");
        assert_eq!(event.value, 1, "one epoch behind");
    }
    // The writer's apply published through the same recorder: spans and
    // the publish event are in the stream too.
    assert!(
        events.iter().any(|e| e.name == "snapshot.publish"),
        "writer publish event missing"
    );
}
