//! Observability tour: a churning serving stack watched three ways.
//!
//! A writer streams deltas through [`CurrencyServe`] while a reader
//! queries at every epoch; the demo scrapes the metrics registry
//! mid-churn to print **live apply-phase timings** (the validate /
//! refresh / recompile histograms, count and p50); the slow-query log
//! catches a deliberately zero-budget request; and the run closes with
//! the full Prometheus-style metrics dump every front door exposes.
//!
//! Run with: `cargo run --example observability`

use data_currency::model::{
    AttrId, Catalog, CmpOp, DenialConstraint, Eid, RelId, RelationSchema, SpecDelta, Specification,
    Term, Tuple, TupleId, Value,
};
use data_currency::obs::MetricsSnapshot;
use data_currency::reason::{CurrencyOrderQuery, Options};
use data_currency::serve::{CurrencyServe, ServeOptions, ServeRequest};
use std::time::Duration;

const A: AttrId = AttrId(0);

fn spec() -> (Specification, RelId) {
    let mut cat = Catalog::new();
    let r = cat.add(RelationSchema::new("Reading", &["value"]));
    let mut spec = Specification::new(cat);
    for e in 0..3u64 {
        for v in [10, 20] {
            spec.instance_mut(r)
                .push_tuple(Tuple::new(Eid(e), vec![Value::int(v + e as i64)]))
                .unwrap();
        }
    }
    // Bigger readings are more current: a monotone denial constraint.
    let monotone = DenialConstraint::builder(r, 2)
        .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
        .then_order(1, A, 0)
        .build()
        .unwrap();
    spec.add_constraint(monotone).unwrap();
    (spec, r)
}

/// The writer's apply phases as scraped: each phase histogram's sample
/// count and median, in nanoseconds.
fn phase_table(snap: &MetricsSnapshot) -> Vec<(&'static str, u64, f64)> {
    ["validate", "refresh", "recompile"]
        .into_iter()
        .map(|phase| {
            let h = snap.merged_histogram(&format!("currency_engine_apply_{phase}_ns"));
            (phase, h.count(), h.quantile(0.5))
        })
        .collect()
}

fn main() {
    let (spec, r) = spec();
    let opts = ServeOptions {
        slow_query_threshold: Some(Duration::ZERO), // log every query for the demo
        slow_query_capacity: 8,
        ..ServeOptions::default()
    };
    let serve = CurrencyServe::new(spec, &Options::default(), &opts).expect("consistent spec");
    let mut handle = serve.handle();

    println!("== churn: 20 deltas, two queries per epoch ==\n");
    for step in 0..20u32 {
        let mut delta = SpecDelta::new();
        delta.insert_tuple(
            r,
            Tuple::new(
                Eid(u64::from(step) % 3),
                vec![Value::int(100 + i64::from(step))],
            ),
        );
        serve.apply(&delta).expect("admissible delta");
        let consistent = handle.cps().expect("cps");
        let ordered = handle
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1)))
            .expect("cop");
        if (step + 1) % 5 == 0 {
            // Scrape mid-run: live apply-phase timings since the start,
            // from the same histograms the closing dump renders.
            println!(
                "after epoch {}: cps={consistent} cop={ordered}",
                serve.epoch()
            );
            for (phase, count, p50_ns) in phase_table(&serve.metrics().snapshot()) {
                println!(
                    "  apply.{phase:<10} ×{count:<3} p50 {:>8.1}µs",
                    p50_ns / 1_000.0
                );
            }
            println!();
        }
    }

    // A zero-budget request: interrupted, degraded if possible, and —
    // because the threshold is zero — retained by the slow-query log
    // with its solver work ledger.
    let fresh = ServeRequest::Cop(CurrencyOrderQuery::single(r, A, TupleId(2), TupleId(3)));
    let _ = handle.query_within(&fresh, Some(Duration::ZERO));
    println!(
        "== slow-query log (newest {} retained) ==",
        opts.slow_query_capacity
    );
    for q in serve.slow_queries() {
        println!(
            "  epoch {:>2}  {:>8.1}µs  spent={:?}  {:?}",
            q.epoch,
            q.duration.as_nanos() as f64 / 1_000.0,
            q.spent,
            q.request
        );
    }

    println!("\n== closing metrics dump (Prometheus exposition) ==\n");
    print!("{}", serve.handle().metrics_text());
}
