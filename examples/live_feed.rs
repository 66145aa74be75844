//! Live feed: delta-driven currency reasoning on a streaming CRM.
//!
//! A long-lived [`CurrencyEngine`] serves a customer table whose records
//! arrive as a feed — new readings, late-arriving currency facts, a
//! currency constraint learned mid-stream, and a provenance link to an
//! upstream source.  Each tick applies a [`SpecDelta`] through
//! `CurrencyEngine::apply` and re-queries; the engine recompiles **only
//! the components the tick touched**, keeping every other customer's
//! cached solver (and its learnt clauses) alive.
//!
//! Run with: `cargo run --example live_feed`

use data_currency::model::{
    AttrId, Catalog, CmpOp, CopyFunction, CopySignature, DenialConstraint, Eid, RelationSchema,
    SpecDelta, Specification, Term, Tuple, TupleId, Value,
};
use data_currency::query::SpQuery;
use data_currency::reason::{CurrencyEngine, CurrencyOrderQuery, Options};
use std::collections::BTreeSet;

/// Attribute 0: the account balance; attribute 1: the assigned agent.
const BALANCE: AttrId = AttrId(0);
const AGENT: AttrId = AttrId(1);
const CUSTOMERS: u64 = 8;

fn main() {
    println!("== live_feed: delta-driven updates through a long-lived CurrencyEngine ==\n");

    // Bootstrap: every customer starts with two conflicting readings and
    // no timestamps — which balance is current?
    let mut cat = Catalog::new();
    let crm = cat.add(RelationSchema::new("Crm", &["balance", "agent"]));
    let feed = cat.add(RelationSchema::new("Feed", &["balance", "agent"]));
    let mut spec = Specification::new(cat);
    for c in 0..CUSTOMERS {
        for (bal, agent) in [(100 + c as i64, 1), (200 + c as i64, 2)] {
            spec.instance_mut(crm)
                .push_tuple(Tuple::new(Eid(c), vec![Value::int(bal), Value::int(agent)]))
                .expect("arity");
        }
    }
    let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).expect("valid spec");
    println!(
        "bootstrapped {} customers → {} components, consistent: {}",
        CUSTOMERS,
        engine.stats().components,
        engine.cps().expect("in budget")
    );
    report_certain_balances(&engine, crm);

    // Tick 1 — the ops team learns a domain rule: balances only grow, so
    // a higher balance is the more current one.  One delta, every
    // customer's component recompiles (the rule touches them all).
    println!("\n[tick 1] constraint learned: higher balance ⇒ more current");
    let rule = DenialConstraint::builder(crm, 2)
        .when_cmp(Term::attr(0, BALANCE), CmpOp::Gt, Term::attr(1, BALANCE))
        .then_order(1, BALANCE, 0)
        .build()
        .expect("valid constraint");
    let mut delta = SpecDelta::new();
    delta.add_constraint(rule);
    apply_and_report(&mut engine, &delta);
    report_certain_balances(&engine, crm);

    // Tick 2 — a burst of fresh readings for two customers.  Only their
    // two components recompile; the other six keep their caches.
    println!("\n[tick 2] fresh readings for customers 3 and 5");
    let mut delta = SpecDelta::new();
    delta
        .insert_tuple(
            crm,
            Tuple::new(Eid(3), vec![Value::int(903), Value::int(3)]),
        )
        .insert_tuple(
            crm,
            Tuple::new(Eid(5), vec![Value::int(905), Value::int(3)]),
        );
    let inserted = apply_and_report(&mut engine, &delta);
    report_certain_balances(&engine, crm);

    // Tick 3 — an auditor confirms a currency fact about the agent
    // column for customer 3 (balance said nothing about agents).
    println!("\n[tick 3] audited fact: customer 3's newest reading has the current agent");
    let (_, new3) = inserted[0];
    let mut delta = SpecDelta::new();
    delta.add_order_edge(crm, AGENT, TupleId(6), new3);
    apply_and_report(&mut engine, &delta);
    let certain = engine
        .cop(&CurrencyOrderQuery::single(crm, AGENT, TupleId(6), new3))
        .expect("in budget");
    println!(
        "  certain that reading {:?} ≺_agent {:?}: {certain}",
        TupleId(6),
        new3
    );

    // Tick 4 — provenance arrives: customer 5's readings were imported
    // from the upstream feed, which carries its own currency order.  The
    // copy obligations merge the two cells into one component.
    println!("\n[tick 4] provenance: customer 5 copied from the upstream feed");
    let crm5 = engine.spec().instance(crm).entity_group(Eid(5)).to_vec();
    let mut delta = SpecDelta::new();
    let sig = CopySignature::new(crm, vec![BALANCE, AGENT], feed, vec![BALANCE, AGENT])
        .expect("matching signature");
    delta.add_copy(CopyFunction::new(sig));
    let feed_base = engine.spec().instance(feed).len() as u32;
    for (k, &t) in crm5.iter().enumerate() {
        let row = engine.spec().instance(crm).tuple(t).clone();
        delta
            .insert_tuple(feed, Tuple::new(Eid(500), row.values.clone()))
            .extend_copy(0, t, TupleId(feed_base + k as u32));
    }
    apply_and_report(&mut engine, &delta);

    // Tick 5 — a stale reading is retracted; its component shrinks back.
    println!("\n[tick 5] retraction: customer 3's oldest reading was bogus");
    let mut delta = SpecDelta::new();
    delta.remove_tuple(crm, TupleId(6));
    apply_and_report(&mut engine, &delta);
    report_certain_balances(&engine, crm);

    let stats = engine.stats();
    println!(
        "\nlifetime: {} deltas, {} components rebuilt, {} reused \
         ({:.0}% of component-deltas served from cache)",
        stats.updates_applied,
        stats.components_rebuilt,
        stats.components_reused,
        100.0 * stats.components_reused as f64
            / (stats.components_rebuilt + stats.components_reused).max(1) as f64
    );
    assert!(
        engine.cps().expect("in budget"),
        "stream kept the spec consistent"
    );
}

/// Apply one delta and print what the engine had to do for it.
fn apply_and_report(
    engine: &mut CurrencyEngine,
    delta: &SpecDelta,
) -> Vec<(data_currency::model::RelId, TupleId)> {
    let report = engine.apply(delta).expect("admissible delta");
    println!(
        "  {} op(s) → {} cell(s) touched, {} component(s) rebuilt, {} reused; consistent: {}",
        delta.len(),
        report.cells_touched,
        report.components_rebuilt,
        report.components_reused,
        engine.cps().expect("in budget"),
    );
    report.inserted
}

/// Print the balances certain to appear in the current CRM instance (the
/// SP projection query `π_balance(Crm)` under certain-answer semantics).
fn report_certain_balances(engine: &CurrencyEngine, crm: data_currency::model::RelId) {
    let arity = engine.spec().instance(crm).arity();
    let q = SpQuery {
        rel: crm,
        projection: vec![BALANCE],
        conditions: Vec::new(),
    }
    .to_query(arity);
    let answers = engine.certain_answers(&q).expect("in budget");
    let balances: BTreeSet<String> = answers
        .rows()
        .map(|rows| rows.iter().map(|row| row[0].to_string()).collect())
        .unwrap_or_default();
    if balances.is_empty() {
        println!("  certain current balances: none yet (currency unknown)");
    } else {
        println!(
            "  certain current balances: {{{}}}",
            balances.into_iter().collect::<Vec<_>>().join(", ")
        );
    }
}
