//! `serve_ingest` and `durable_ingest`: one closed-loop feed client
//! streaming insert/retract deltas, each followed by reads of its
//! effect, against `CurrencyServe` or `DurableEngine`.

use crate::gen::{engine_options, feed_reads, IngestFeed, FEED_LIVE_CAP};
use crate::measure::{elapsed_ns, peak_rss_mib, quantile_f64, SpeedProbe, Tracer};
use crate::report::{
    publish_rest, refused, registry_layers, repeat_setup, span_layers, Client, Outcome, RunCfg,
    ONE_OFF_PROBES,
};
use currency_bench::scenarios::large_spec;
use currency_core::wire::encode_spec;
use currency_core::{CompactStepReport, RelId, SpecDelta, Specification, TupleId};
use currency_obs::MetricsSnapshot;
use currency_reason::snapshot::SnapshotReader;
use currency_reason::{CompactBudget, CurrencyEngine, Options};
use currency_serve::{CurrencyServe, ServeAnswer, ServeHandle, ServeOptions, ServeRequest};
use currency_store::{DurableEngine, StoreOptions};
use std::path::Path;
use std::time::{Duration, Instant};

/// Traced and untraced cycles alternate in blocks of this many.
const TRACE_BLOCK: u64 = 4;

/// The parameters that differ between the two ingest workloads.
struct Shape {
    entities: usize,
    /// Tombstones that switch the budgeted auto-compaction on.  Set so
    /// that compaction steps stay a small, steady share of the deltas
    /// and the write tail measures the apply path itself.
    tombstones: usize,
    /// Length of one measurement round.
    round: Duration,
    setup_reps: usize,
    /// How closely the workload's speed follows the host's, as
    /// [`SpeedProbe`] defines it.
    sensitivity: f64,
}

const SERVE: Shape = Shape {
    entities: 10_000,
    tombstones: 64,
    round: Duration::from_secs(1),
    setup_reps: 5,
    sensitivity: 0.6,
};

const DURABLE: Shape = Shape {
    entities: 2_500,
    tombstones: 256,
    round: Duration::from_millis(250),
    setup_reps: 7,
    sensitivity: 1.3,
};

impl Shape {
    fn options(&self) -> Options {
        Options {
            auto_compact_tombstones: self.tombstones,
            auto_compact_budget: Some(CompactBudget::default()),
            ..engine_options()
        }
    }
}

fn store_options() -> StoreOptions {
    StoreOptions {
        group_commit: 1,
        sync_data: false,
        ..StoreOptions::default()
    }
}

/// What a front door acknowledged for one delta.
struct Ack {
    inserted: Vec<(RelId, TupleId)>,
    step: Option<CompactStepReport>,
    rebuilt: usize,
}

/// A front door the feed client drives.
trait Door {
    /// Span name of the write call.
    const APPLY_SPAN: &'static str;
    /// Span name of a read call.
    const READ_SPAN: &'static str;
    fn apply(&mut self, delta: &SpecDelta) -> Result<Ack, String>;
    fn read(&mut self, req: &ServeRequest) -> Result<bool, String>;
    fn with_spec<R>(&self, f: impl FnOnce(&Specification) -> R) -> R;
    /// Client bookkeeping around one cycle, outside every timing.
    fn before_cycle(&mut self, _traced: bool) {}
    fn after_cycle(&mut self, _delta: &SpecDelta, _reads: &[(ServeRequest, bool)], _traced: bool) {}
    /// Bench-side probes after a traced read whose span is `span`.
    fn probe_read(
        &mut self,
        _tr: &mut Tracer,
        _req: &ServeRequest,
        _answer: bool,
        _id: u64,
        _root: u32,
        _span: u32,
    ) -> Result<(), String> {
        Ok(())
    }
    /// Called before the first cycle of every traced block.
    fn begin_traced_block(&mut self) {}
}

/// Counts the loop keeps per run.
#[derive(Default)]
struct Tally {
    rebuilt: u64,
    steps: u64,
    reclaimed: u64,
}

/// The closed loop: delta, then the reads of its effect, until the
/// deadline.
fn drive<D: Door>(
    door: &mut D,
    feed: &mut IngestFeed,
    cfg: &RunCfg,
    out: &mut Outcome,
    client: &mut Client,
    tr: &mut Tracer,
) -> Tally {
    let mut tally = Tally::default();
    client.start();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(cfg.seconds);
    let mut cycle = 0u64;
    while Instant::now() < deadline {
        let traced = cfg.trace && (cycle / TRACE_BLOCK) % 2 == 1;
        if traced && cycle.is_multiple_of(TRACE_BLOCK) {
            door.begin_traced_block();
        }
        let (delta, touch) = feed.next_delta();
        door.before_cycle(traced);
        let op_start = Instant::now();
        let root = if traced { tr.begin_root(cycle) } else { 0 };
        let probe = traced.then(|| {
            door.with_spec(|s| tr.replica("core.validate", cycle, root, || delta.validate(s)))
        });
        let probe_id = tr.spans.len() as u32;
        let span = if traced {
            tr.begin(D::APPLY_SPAN, cycle, root)
        } else {
            0
        };
        let t = Instant::now();
        let ack = door.apply(&delta);
        let ns = elapsed_ns(t);
        if traced {
            tr.end(span);
            tr.set_parent(probe_id, span);
        } else {
            client.write.push(ns);
        }
        client.writes += 1;
        out.attempted += 1;
        if let Some(Err(e)) = probe {
            out.fail(format!("generated delta fails validation: {e}"));
        }
        let ack = match ack {
            Ok(ack) => ack,
            Err(e) => {
                out.fail(format!("write refused: {e}"));
                break;
            }
        };
        tally.rebuilt += ack.rebuilt as u64;
        if ack.rebuilt != 1 {
            out.fail(format!("delta rebuilt {} components, not 1", ack.rebuilt));
        }
        if let Some(step) = &ack.step {
            tally.steps += 1;
            tally.reclaimed += step.reclaimed as u64;
        }
        if let Err(e) = feed.observe(&ack.inserted, ack.step.as_ref()) {
            out.fail(e);
            break;
        }
        let reads = door.with_spec(|s| feed_reads(s, &touch, feed.newest()));
        let mut answers = Vec::with_capacity(reads.len());
        for (req, expected) in reads {
            out.attempted += 1;
            client.reads += 1;
            let span = if traced {
                tr.begin(D::READ_SPAN, cycle, root)
            } else {
                0
            };
            let t = Instant::now();
            let got = door.read(&req);
            let ns = elapsed_ns(t);
            if traced {
                tr.end(span);
            } else {
                client.miss.push(ns);
            }
            match got {
                Ok(b) => {
                    if b != expected {
                        out.fail(format!(
                            "{req:?} answered {b}, the value order says {expected}"
                        ));
                    }
                    if traced {
                        if let Err(e) = door.probe_read(tr, &req, b, cycle, root, span) {
                            out.fail(e);
                        }
                    }
                    answers.push((req, b));
                }
                Err(e) => out.fail(format!("read refused: {e}")),
            }
        }
        if traced {
            client.traced_ops.push(tr.end_root(root));
        } else {
            client.untraced_ops.push(elapsed_ns(op_start));
        }
        door.after_cycle(&delta, &answers, traced);
        cycle += 1;
        client.tick();
    }
    client.finish();
    out.param("cycles", cycle);
    tally
}

fn feed_params(out: &mut Outcome, shape: &Shape, reps: usize) {
    out.param("entities", shape.entities);
    out.param(
        "copy_mappings",
        shape.entities * currency_bench::scenarios::LARGE_TUPLES_PER_ENTITY,
    );
    out.param("auto_compact_tombstones", shape.tombstones);
    out.param("round_s", shape.round.as_secs_f64());
    out.param(
        "auto_compact_max_slots_per_step",
        CompactBudget::default().max_slots_per_step,
    );
    out.param("feed_live_cap", FEED_LIVE_CAP);
    out.param("reads_per_delta", 3);
    out.param("setup_reps", reps);
    out.param("sensitivity", shape.sensitivity);
}

// ---------------------------------------------------------------- serve

struct ServeDoor {
    serve: CurrencyServe,
    handle: ServeHandle,
    shadow: SnapshotReader,
    /// Every delta with the answers read after it, for the reference
    /// replay.
    log: Vec<(SpecDelta, Vec<(ServeRequest, bool)>)>,
}

impl Door for ServeDoor {
    const APPLY_SPAN: &'static str = "snapshot.apply";
    const READ_SPAN: &'static str = "serve.query_miss";

    fn apply(&mut self, delta: &SpecDelta) -> Result<Ack, String> {
        let r = self.serve.apply(delta).map_err(|e| e.to_string())?;
        Ok(Ack {
            inserted: r.inserted,
            step: r.compact_step,
            rebuilt: r.components_rebuilt,
        })
    }

    fn read(&mut self, req: &ServeRequest) -> Result<bool, String> {
        match self.handle.query(req) {
            Ok(ServeAnswer::Bool(b)) => Ok(b),
            Ok(other) => Err(format!("unexpected answer {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }

    fn with_spec<R>(&self, f: impl FnOnce(&Specification) -> R) -> R {
        f(self.serve.snapshot().spec())
    }

    fn after_cycle(&mut self, delta: &SpecDelta, reads: &[(ServeRequest, bool)], _traced: bool) {
        self.log.push((delta.clone(), reads.to_vec()));
    }

    fn begin_traced_block(&mut self) {
        self.shadow.pin(self.serve.snapshot());
    }

    fn probe_read(
        &mut self,
        tr: &mut Tracer,
        req: &ServeRequest,
        answer: bool,
        id: u64,
        root: u32,
        span: u32,
    ) -> Result<(), String> {
        if self.shadow.epoch() != self.serve.epoch() {
            let pin = tr.begin("snapshot.pin", id, root);
            self.shadow.pin(self.serve.snapshot());
            tr.end(pin);
        }
        let shadow = &mut self.shadow;
        let got = match req {
            ServeRequest::Cop(q) => tr.replica("snapshot.cop", id, span, || shadow.cop(q)),
            _ => tr.replica("snapshot.cps", id, span, || Ok(shadow.cps())),
        };
        match got {
            Ok(b) if b == answer => Ok(()),
            other => Err(format!(
                "bench reader answered {other:?} to {req:?}, service {answer}"
            )),
        }
    }
}

fn serve_setup() -> ((CurrencyServe, ServeHandle), f64) {
    let start = Instant::now();
    let serve = CurrencyServe::new(
        large_spec(SERVE.entities),
        &SERVE.options(),
        &ServeOptions::default(),
    )
    .expect("large spec compiles");
    let mut handle = serve.handle();
    let first = handle.query(&ServeRequest::Cps);
    let took = start.elapsed().as_secs_f64();
    assert_eq!(
        first,
        Ok(ServeAnswer::Bool(true)),
        "the base spec is consistent"
    );
    ((serve, handle), took)
}

pub fn serve_ingest(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::new("serve_ingest", cfg);
    let reps = if cfg.trace { 1 } else { SERVE.setup_reps };
    let ((serve, handle), setups) = repeat_setup(reps, SERVE.sensitivity, serve_setup);
    feed_params(&mut out, &SERVE, reps);
    let shadow = SnapshotReader::new(serve.snapshot());
    let mut door = ServeDoor {
        serve,
        handle,
        shadow,
        log: Vec::new(),
    };
    let mut feed = IngestFeed::new(SERVE.entities, cfg.seed);
    let mut client = Client::new(SERVE.round, SERVE.sensitivity);
    let mut tr = Tracer::default();
    let before = door.serve.stats();
    let tally = drive(&mut door, &mut feed, cfg, &mut out, &mut client, &mut tr);
    let peak = peak_rss_mib();
    let after = door.serve.stats();

    // Correctness: a reference engine fed the same deltas gives the same
    // answers after every delta and the same final specification.
    let mut reference = CurrencyEngine::new_owned(large_spec(SERVE.entities), &SERVE.options())
        .expect("large spec compiles");
    for (delta, reads) in &door.log {
        if let Err(e) = reference.apply(delta) {
            out.fail(format!("reference engine refuses a delta: {e}"));
            break;
        }
        for (req, got) in reads {
            let want = match req {
                ServeRequest::Cop(q) => reference.cop(q),
                _ => reference.cps(),
            };
            if want.as_ref() != Ok(got) {
                out.fail(format!("{req:?}: service {got}, reference {want:?}"));
            }
        }
    }
    if encode_spec(reference.spec()) != encode_spec(door.serve.snapshot().spec()) {
        out.fail("published spec differs from the reference engine's".into());
    }
    let refused = refused(&after) - refused(&before);
    for _ in 0..refused {
        out.fail("request refused by the service".into());
    }
    let hits = after.cache_hits - before.cache_hits;
    if hits != 0 {
        out.fail(format!("{hits} cache hits on a stream built to miss"));
    }

    out.e2e("setup_s", quantile_f64(&setups, 0.5));
    out.e2e("peak_rss_mb", peak);
    client.report(&mut out);

    let deltas = door.log.len().max(1) as f64;
    out.layer(
        "serve.cache.hit_ratio",
        hits as f64 / client.total_reads.max(1) as f64,
    );
    out.layer("serve.cache.entries", after.cached_entries as f64);
    out.layer("serve.refused", refused as f64);
    out.layer("snapshot.rebuilt_per_delta", tally.rebuilt as f64 / deltas);
    out.layer("snapshot.compact_steps", tally.steps as f64);
    out.layer("snapshot.reclaimed", tally.reclaimed as f64);
    if cfg.trace {
        out.layer(
            "serve.miss_overhead_ns.p50",
            tr.self_times_of("serve.query_miss").p50(),
        );
        let epochs = client.traced_ops.len().max(1) as f64;
        out.layer(
            "snapshot.scratch_clones_per_epoch",
            door.shadow.scratch_clones() as f64 / epochs,
        );
        out.layer(
            "snapshot.scratch_refreshes_per_epoch",
            door.shadow.scratch_refreshes() as f64 / epochs,
        );
        span_layers(&mut out, &tr, "snapshot.apply");
        registry_layers(&mut out, &door.serve.metrics().snapshot());
        publish_rest(&mut out);
        out.trace(tr, &client);
    }
    out
}

// -------------------------------------------------------------- durable

struct DurableDoor {
    store: DurableEngine,
    rotations: u64,
    snapshot_seq: u64,
    wal_before: u64,
    wal_growth: u64,
    wal_deltas: u64,
}

impl DurableDoor {
    fn wal_len(&self) -> u64 {
        std::fs::metadata(self.store.dir().join("wal.log")).map_or(0, |m| m.len())
    }
}

impl Door for DurableDoor {
    const APPLY_SPAN: &'static str = "store.apply";
    const READ_SPAN: &'static str = "store.query";

    fn apply(&mut self, delta: &SpecDelta) -> Result<Ack, String> {
        let r = self.store.apply(delta).map_err(|e| e.to_string())?;
        Ok(Ack {
            inserted: r.inserted,
            step: r.compact_step,
            rebuilt: r.components_rebuilt,
        })
    }

    fn read(&mut self, req: &ServeRequest) -> Result<bool, String> {
        match req {
            ServeRequest::Cop(q) => self.store.cop(q),
            _ => self.store.cps(),
        }
        .map_err(|e| e.to_string())
    }

    fn with_spec<R>(&self, f: impl FnOnce(&Specification) -> R) -> R {
        f(self.store.spec())
    }

    fn before_cycle(&mut self, traced: bool) {
        if traced {
            self.wal_before = self.wal_len();
        }
    }

    fn after_cycle(&mut self, _delta: &SpecDelta, _reads: &[(ServeRequest, bool)], traced: bool) {
        let seq = self.store.snapshot_seq();
        let rotated = seq != self.snapshot_seq;
        if rotated {
            self.rotations += 1;
            self.snapshot_seq = seq;
        } else if traced {
            self.wal_growth += self.wal_len().saturating_sub(self.wal_before);
            self.wal_deltas += 1;
        }
    }
}

/// Create a store in `dir`, replacing any earlier one there.
fn durable_setup(dir: &Path) -> (DurableEngine, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let store = DurableEngine::create(
        dir,
        large_spec(DURABLE.entities),
        &DURABLE.options(),
        store_options(),
    )
    .expect("store creates");
    let first = store.cps();
    let took = start.elapsed().as_secs_f64();
    assert!(matches!(first, Ok(true)), "the base spec is consistent");
    (store, took)
}

pub fn durable_ingest(cfg: &RunCfg, scratch: &Path) -> Outcome {
    let mut out = Outcome::new("durable_ingest", cfg);
    let reps = if cfg.trace { 1 } else { DURABLE.setup_reps };
    let dir = scratch.join(format!("store-{}", std::process::id()));
    let (store, setups) = repeat_setup(reps, DURABLE.sensitivity, || durable_setup(&dir));
    feed_params(&mut out, &DURABLE, reps);
    let opts = store_options();
    out.param("store_rotate_bytes", opts.snapshot_rotate_bytes);
    out.param("store_group_commit", opts.group_commit);
    out.param("store_sync_data", opts.sync_data);
    let mut door = DurableDoor {
        snapshot_seq: store.snapshot_seq(),
        store,
        rotations: 0,
        wal_before: 0,
        wal_growth: 0,
        wal_deltas: 0,
    };
    let mut feed = IngestFeed::new(DURABLE.entities, cfg.seed);
    let mut client = Client::new(DURABLE.round, DURABLE.sensitivity);
    let mut tr = Tracer::default();
    let tally = drive(&mut door, &mut feed, cfg, &mut out, &mut client, &mut tr);
    let peak = peak_rss_mib();
    let metrics: MetricsSnapshot = door.store.metrics().snapshot();

    // Recovery: drop the store, reopen it, and compare.
    let DurableDoor {
        store,
        rotations,
        wal_growth,
        wal_deltas,
        ..
    } = door;
    let before = encode_spec(store.spec());
    let expected_replay = store.seq() - store.snapshot_seq();
    drop(store);
    let open_span = if cfg.trace {
        tr.begin("store.open", 0, 0)
    } else {
        0
    };
    let start = Instant::now();
    let reopened = DurableEngine::open(&dir, &DURABLE.options(), opts);
    let open_ns = elapsed_ns(start);
    if cfg.trace {
        tr.end(open_span);
    }
    let first = reopened.as_ref().map(|s| s.cps());
    let recover_s = start.elapsed().as_secs_f64()
        / SpeedProbe::new(DURABLE.sensitivity).slowdown_of(ONE_OFF_PROBES);
    match &reopened {
        Ok(store) => {
            let rec = store.recovery();
            let replayed =
                (rec.deltas_replayed + rec.compacts_replayed + rec.compact_steps_replayed) as u64;
            out.layer("store.replayed", replayed as f64);
            if replayed != expected_replay {
                out.fail(format!(
                    "replayed {replayed} records, the log holds {expected_replay}"
                ));
            }
            if encode_spec(store.spec()) != before {
                out.fail("reopened spec differs from the spec before the drop".into());
            }
            if !matches!(first, Ok(Ok(true))) {
                out.fail(format!("first answer after reopen: {first:?}"));
            }
        }
        Err(e) => out.fail(format!("reopen failed: {e}")),
    }
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);

    out.e2e("setup_s", quantile_f64(&setups, 0.5));
    out.e2e("peak_rss_mb", peak);
    client.report(&mut out);
    out.layer("recover_s", recover_s);
    out.layer("store.open_ns", open_ns as f64);
    out.layer("store.rotations", rotations as f64);
    out.layer("store.compact_steps", tally.steps as f64);
    out.layer(
        "store.wal.bytes_per_delta",
        wal_growth as f64 / wal_deltas.max(1) as f64,
    );
    out.param("replayed_on_reopen", expected_replay);
    out.param("reclaimed", tally.reclaimed);
    if cfg.trace {
        span_layers(&mut out, &tr, "store.apply");
        registry_layers(&mut out, &metrics);
        out.trace(tr, &client);
    }
    out
}
