//! `serve_read`: a read-mostly closed loop against `CurrencyServe` over
//! `amortized_spec(32)`, with one write opening every window of reads.

use crate::gen::{engine_options, read_options, Op, ReadStream, WINDOW_DISTINCT, WINDOW_READS};
use crate::measure::{elapsed_ns, peak_rss_mib, quantile_f64, Tracer};
use crate::report::{
    publish_rest, refused, registry_layers, repeat_setup, span_layers, Client, Outcome, RunCfg,
};
use currency_bench::scenarios::{amortized_spec, T};
use currency_core::Specification;
use currency_reason::snapshot::{EngineSnapshot, SnapshotReader};
use currency_reason::CurrencyEngine;
use currency_serve::{CurrencyServe, ServeAnswer, ServeHandle, ServeOptions, ServeRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ENTITIES: usize = 32;
const SETUP_REPS: usize = 101;
/// Length of one measurement round.
const ROUND: Duration = Duration::from_millis(250);
/// How closely the workload's speed follows the host's, as
/// [`crate::measure::SpeedProbe`] defines it.
const SENSITIVITY: f64 = 1.2;
/// Every this many windows, keep the window's snapshot and answers for
/// the reference check after the run.
const SAMPLE_EVERY: u64 = 16;
const MAX_SAMPLES: usize = 48;

/// A sampled window: its snapshot and the answers read at it.
type Sample = (Arc<EngineSnapshot>, Vec<(ServeRequest, ServeAnswer)>);

fn setup() -> ((CurrencyServe, ServeHandle), f64) {
    let start = Instant::now();
    let serve = CurrencyServe::new(
        amortized_spec(ENTITIES),
        &read_options(),
        &ServeOptions::default(),
    )
    .expect("amortized spec compiles");
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

/// The reference answer: a fresh `CurrencyEngine` over the epoch's spec.
fn reference(spec: &Specification, reqs: &[(ServeRequest, ServeAnswer)]) -> usize {
    let engine = CurrencyEngine::new(spec, &engine_options()).expect("published spec compiles");
    reqs.iter()
        .filter(|(req, got)| {
            let want = match req {
                ServeRequest::Cps => engine.cps().map(ServeAnswer::Bool),
                ServeRequest::Cop(q) => engine.cop(q).map(ServeAnswer::Bool),
                ServeRequest::Dcip(rel) => engine.dcip(*rel).map(ServeAnswer::Bool),
                ServeRequest::CertainAnswers(q) => {
                    engine.certain_answers(q).map(ServeAnswer::Answers)
                }
                ServeRequest::Ccqa(q, t) => engine
                    .certain_answers(q)
                    .map(|a| ServeAnswer::Bool(a.contains(t))),
            };
            want.as_ref() != Ok(got)
        })
        .count()
}

/// The bench-owned reader's answer to `req`, timed as a replica of the
/// solve inside the `serve.query_miss` span `parent`.
fn shadow_answer(
    tr: &mut Tracer,
    shadow: &mut SnapshotReader,
    req: &ServeRequest,
    id: u64,
    parent: u32,
) -> Option<ServeAnswer> {
    let ans = match req {
        ServeRequest::Cps => tr.replica("snapshot.cps", id, parent, || {
            Ok(ServeAnswer::Bool(shadow.cps()))
        }),
        ServeRequest::Cop(q) => tr.replica("snapshot.cop", id, parent, || {
            shadow.cop(q).map(ServeAnswer::Bool)
        }),
        ServeRequest::Dcip(rel) => tr.replica("snapshot.dcip", id, parent, || {
            shadow.dcip(*rel).map(ServeAnswer::Bool)
        }),
        ServeRequest::CertainAnswers(q) => {
            tr.replica("snapshot.certain_answers", id, parent, || {
                shadow.certain_answers(q).map(ServeAnswer::Answers)
            })
        }
        ServeRequest::Ccqa(q, t) => tr.replica("snapshot.ccqa", id, parent, || {
            shadow.ccqa(q, t).map(ServeAnswer::Bool)
        }),
    };
    ans.ok()
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::new("serve_read", cfg);
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let ((serve, mut handle), setups) = repeat_setup(reps, SENSITIVITY, setup);
    let base = amortized_spec(ENTITIES);
    let mut stream = ReadStream::new(&base, cfg.seed);
    out.param("entities", ENTITIES);
    out.param("components", serve.snapshot().partition().len());
    out.param("window_reads", WINDOW_READS);
    out.param("window_distinct", WINDOW_DISTINCT);
    out.param("write_cadence_requests", WINDOW_READS + 1);
    out.param("setup_reps", reps);
    out.param("round_s", ROUND.as_secs_f64());
    out.param("sensitivity", SENSITIVITY);

    let mut client = Client::new(ROUND, SENSITIVITY);
    let mut tr = Tracer::default();
    let mut shadow = SnapshotReader::new(serve.snapshot());
    let mut samples: Vec<Sample> = Vec::new();
    let (mut predicted_hits, mut rebuilt, mut epochs) = (0u64, 0u64, 0u64);
    let before = serve.stats();
    client.start();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(cfg.seconds);
    let mut window = 0u64;
    let mut req_id = 0u64;
    while Instant::now() < deadline {
        let traced = cfg.trace && window % 2 == 1;
        if traced {
            // The bench reader starts each traced window holding the
            // epoch the window's write replaces.
            shadow.pin(serve.snapshot());
        }
        let sampled = window.is_multiple_of(SAMPLE_EVERY) && samples.len() < MAX_SAMPLES;
        let mut answers = Vec::new();
        for op in stream.window() {
            req_id += 1;
            out.attempted += 1;
            let op_start = Instant::now();
            let root = if traced { tr.begin_root(req_id) } else { 0 };
            match op {
                Op::Write { delta, inserts } => {
                    let probe = traced.then(|| {
                        let snap = serve.snapshot();
                        tr.replica("core.validate", req_id, root, || {
                            delta.validate(snap.spec())
                        })
                    });
                    let probe_id = tr.spans.len() as u32;
                    let span = if traced {
                        tr.begin("snapshot.apply", req_id, root)
                    } else {
                        0
                    };
                    let t = Instant::now();
                    let result = serve.apply(&delta);
                    let ns = elapsed_ns(t);
                    if traced {
                        tr.end(span);
                        tr.set_parent(probe_id, span);
                    } else {
                        client.write.push(ns);
                    }
                    client.writes += 1;
                    epochs += 1;
                    match result {
                        Ok(report) => {
                            rebuilt += report.components_rebuilt as u64;
                            if let Some(id) = inserts {
                                if report.inserted != [(T, id)] {
                                    out.fail(format!(
                                        "insert landed at {:?}, not {id:?}",
                                        report.inserted
                                    ));
                                }
                            }
                        }
                        Err(e) => out.fail(format!("write refused: {e}")),
                    }
                    if let Some(Err(e)) = probe {
                        out.fail(format!("generated delta fails validation: {e}"));
                    }
                }
                Op::Read { req, first } => {
                    predicted_hits += u64::from(!first);
                    let name = if first {
                        "serve.query_miss"
                    } else {
                        "serve.query_hit"
                    };
                    let span = if traced {
                        tr.begin(name, req_id, root)
                    } else {
                        0
                    };
                    let t = Instant::now();
                    let result = handle.query(&req);
                    let ns = elapsed_ns(t);
                    client.reads += 1;
                    if traced {
                        tr.end(span);
                    } else if first {
                        client.miss.push(ns);
                    } else {
                        client.hit.push(ns);
                    }
                    match result {
                        Ok(ans) if ans.is_stale() => out.fail("stale answer served".into()),
                        Ok(ans) => {
                            if traced && first {
                                if shadow.epoch() != serve.epoch() {
                                    let pin = tr.begin("snapshot.pin", req_id, root);
                                    shadow.pin(serve.snapshot());
                                    tr.end(pin);
                                }
                                if shadow_answer(&mut tr, &mut shadow, &req, req_id, span).as_ref()
                                    != Some(&ans)
                                {
                                    out.fail(format!("bench reader disagrees on {req:?}"));
                                }
                            }
                            if sampled {
                                answers.push((req, ans));
                            }
                        }
                        Err(e) => out.fail(format!("read refused: {e}")),
                    }
                }
            }
            if traced {
                client.traced_ops.push(tr.end_root(root));
            } else {
                client.untraced_ops.push(elapsed_ns(op_start));
            }
        }
        if sampled {
            samples.push((handle.snapshot().clone(), answers));
        }
        window += 1;
        client.tick();
    }
    client.finish();
    let peak = peak_rss_mib();
    let after = serve.stats();

    // Correctness, outside the timed region.
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    if hits != predicted_hits {
        out.fail(format!("cache hits {hits} != predicted {predicted_hits}"));
    }
    let refused = refused(&after) - refused(&before);
    for _ in 0..refused {
        out.fail("request refused by the service".into());
    }
    for (snap, answers) in &samples {
        for _ in 0..reference(snap.spec(), answers) {
            out.fail(format!("wrong answer at epoch {}", snap.epoch()));
        }
    }
    out.param("sampled_epochs", samples.len());
    out.param("windows", window);

    // End to end.
    out.e2e("setup_s", quantile_f64(&setups, 0.5));
    out.e2e("peak_rss_mb", peak);
    client.report(&mut out);

    // Per layer.
    let reads = (hits + misses).max(1) as f64;
    out.layer("serve.cache.hit_ratio", hits as f64 / reads);
    out.layer(
        "serve.cache.hit_ratio_predicted",
        predicted_hits as f64 / reads,
    );
    out.layer("serve.cache.entries", after.cached_entries as f64);
    out.layer("serve.refused", refused as f64);
    out.layer(
        "snapshot.rebuilt_per_delta",
        rebuilt as f64 / epochs.max(1) as f64,
    );
    if cfg.trace {
        let hit = tr.durations("serve.query_hit");
        out.layer("serve.hit_ns.p50", hit.p50());
        out.layer("serve.hit_ns.p99", hit.p99());
        out.layer(
            "serve.miss_overhead_ns.p50",
            tr.self_times_of("serve.query_miss").p50(),
        );
        let traced_epochs = (window / 2).max(1) as f64;
        out.layer(
            "snapshot.scratch_clones_per_epoch",
            shadow.scratch_clones() as f64 / traced_epochs,
        );
        out.layer(
            "snapshot.scratch_refreshes_per_epoch",
            shadow.scratch_refreshes() as f64 / traced_epochs,
        );
        span_layers(&mut out, &tr, "snapshot.apply");
        registry_layers(&mut out, &serve.metrics().snapshot());
        publish_rest(&mut out);
        out.trace(tr, &client);
    }
    out
}
