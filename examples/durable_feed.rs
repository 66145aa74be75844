//! Durable feed: the streaming CRM of `live_feed`, surviving a crash.
//!
//! The same delta-driven workload runs through a [`DurableEngine`]: every
//! tick is logged to a write-ahead log *before* it is applied, snapshots
//! rotate as the log grows, and mid-stream the process "dies" — the
//! engine is dropped on the floor and reopened from disk.  Recovery loads
//! the newest snapshot, replays the log suffix, and the stream picks up
//! exactly where it left off; the closing audit proves the recovered
//! engine answers identically to a never-restarted one.
//!
//! Run with: `cargo run --example durable_feed`

use data_currency::model::wire::encode_spec;
use data_currency::model::{
    AttrId, Catalog, CmpOp, DenialConstraint, Eid, RelationSchema, SpecDelta, Specification, Term,
    Tuple, TupleId, Value,
};
use data_currency::reason::{CurrencyEngine, CurrencyOrderQuery, Options};
use data_currency::store::{DurableEngine, StoreOptions};

const BALANCE: AttrId = AttrId(0);
const CUSTOMERS: u64 = 6;

fn main() {
    println!("== durable_feed: a crash-recoverable CurrencyEngine over a streaming CRM ==\n");

    let dir = std::env::temp_dir().join(format!("currency-durable-feed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Bootstrap: two conflicting readings per customer, no timestamps.
    let mut cat = Catalog::new();
    let crm = cat.add(RelationSchema::new("Crm", &["balance", "agent"]));
    let mut spec = Specification::new(cat);
    for c in 0..CUSTOMERS {
        for (bal, agent) in [(100 + c as i64, 1), (200 + c as i64, 2)] {
            spec.instance_mut(crm)
                .push_tuple(Tuple::new(Eid(c), vec![Value::int(bal), Value::int(agent)]))
                .expect("arity");
        }
    }
    let opts = Options {
        // Retraction tombstones are reclaimed automatically once four
        // accumulate: each apply at the threshold runs one bounded
        // compaction step, logged and re-executed on replay.
        auto_compact_tombstones: 4,
        ..Options::default()
    };
    let store_opts = StoreOptions {
        // Tiny threshold so the demo rotates a snapshot mid-stream.
        snapshot_rotate_bytes: 512,
        ..StoreOptions::default()
    };
    let mut engine = DurableEngine::create(&dir, spec, &opts, store_opts).expect("fresh store");
    println!(
        "bootstrapped {} customers into {} (snapshot 0 + empty log), consistent: {}",
        CUSTOMERS,
        dir.display(),
        engine.cps().expect("in budget")
    );

    // Ticks 1..=3 — a constraint is learned, readings arrive, a stale
    // reading is retracted.  Every delta hits the log before the engine.
    println!("\n[tick 1] constraint learned: higher balance ⇒ more current");
    let rule = DenialConstraint::builder(crm, 2)
        .when_cmp(Term::attr(0, BALANCE), CmpOp::Gt, Term::attr(1, BALANCE))
        .then_order(1, BALANCE, 0)
        .build()
        .expect("valid constraint");
    let mut delta = SpecDelta::new();
    delta.add_constraint(rule);
    engine.apply(&delta).expect("admissible");
    report(&engine);

    println!("\n[tick 2] fresh readings for customers 1 and 4");
    let mut delta = SpecDelta::new();
    delta
        .insert_tuple(
            crm,
            Tuple::new(Eid(1), vec![Value::int(901), Value::int(3)]),
        )
        .insert_tuple(
            crm,
            Tuple::new(Eid(4), vec![Value::int(904), Value::int(3)]),
        );
    let inserted = engine.apply(&delta).expect("admissible").inserted;
    report(&engine);

    println!("\n[tick 3] retraction: customer 1's burst reading was bogus");
    let mut delta = SpecDelta::new();
    delta.remove_tuple(crm, inserted[0].1);
    engine.apply(&delta).expect("admissible");
    report(&engine);

    // The crash.  No shutdown hook runs; whatever reached the log is the
    // truth.
    println!("\n[tick 4] ✗ process dies mid-stream (engine dropped, no shutdown)");
    let pre_crash = encode_spec(engine.spec());
    let seq = engine.seq();
    drop(engine);

    // Recovery: newest valid snapshot + log-suffix replay.
    let mut engine = DurableEngine::open(&dir, &opts, store_opts).expect("recoverable store");
    let rec = *engine.recovery();
    println!(
        "[tick 5] ✓ reopened: snapshot covers seq {}, replayed {} delta(s) + {} compaction \
         step(s), torn tail {} byte(s)",
        rec.snapshot_seq, rec.deltas_replayed, rec.compact_steps_replayed, rec.torn_tail_bytes
    );
    assert_eq!(engine.seq(), seq, "no acknowledged record was lost");
    assert_eq!(
        encode_spec(engine.spec()),
        pre_crash,
        "recovered specification is byte-identical"
    );
    report(&engine);

    // The stream continues on the recovered engine: churn enough to
    // trip the auto-compaction policy.
    println!("\n[tick 6] churn: four insert+retract rounds (auto-compaction threshold is 4)");
    let mut steps = 0;
    let mut reclaimed = 0;
    for round in 0..4 {
        let mut delta = SpecDelta::new();
        delta.insert_tuple(
            crm,
            Tuple::new(Eid(2), vec![Value::int(500 + round), Value::int(9)]),
        );
        let report = engine.apply(&delta).expect("admissible");
        let (rel, id) = report.inserted[0];
        let mut retract = SpecDelta::new();
        retract.remove_tuple(rel, id);
        if let Some(step) = engine.apply(&retract).expect("admissible").compact_step {
            steps += 1;
            reclaimed += step.reclaimed;
        }
    }
    println!(
        "  {steps} auto compaction step(s) reclaimed {reclaimed} slot(s), each logged with its slices"
    );

    // Closing audit: a second recovery must agree with the live engine —
    // and with a from-scratch in-memory engine over the same spec — on
    // consistency and a COP sweep.
    let live = encode_spec(engine.spec());
    drop(engine);
    let recovered = DurableEngine::open(&dir, &opts, store_opts).expect("recoverable store");
    assert_eq!(encode_spec(recovered.spec()), live);
    println!(
        "reopened again: replayed {} delta(s) + {} compaction step(s)",
        recovered.recovery().deltas_replayed,
        recovered.recovery().compact_steps_replayed
    );
    let fresh = CurrencyEngine::new(recovered.spec(), &opts).expect("valid spec");
    assert_eq!(
        recovered.cps().expect("in budget"),
        fresh.cps().expect("in budget")
    );
    let len = recovered.spec().instance(crm).len() as u32;
    for u in 0..len {
        for v in 0..len {
            let q = CurrencyOrderQuery::single(crm, BALANCE, TupleId(u), TupleId(v));
            assert_eq!(
                recovered.cop(&q).expect("in budget"),
                fresh.cop(&q).expect("in budget"),
                "COP {u} ≺ {v}"
            );
        }
    }
    let stats = recovered.stats();
    println!(
        "\nlifetime (this process): {} recoveries, {} deltas replayed, {} compaction steps; \
         final audit: recovered == never-restarted on CPS + all-pairs COP ✓",
        stats.recoveries, stats.deltas_replayed, stats.compact_steps
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Print the tick's durability + consistency line.
fn report(engine: &DurableEngine) {
    println!(
        "  seq {} (snapshot covers {}), consistent: {}",
        engine.seq(),
        engine.snapshot_seq(),
        engine.cps().expect("in budget")
    );
}
