//! Serve feed: a fleet of reader threads answering currency queries while
//! the delta stream keeps flowing.
//!
//! The streaming CRM of `live_feed`, put behind the serving front door:
//! one writer thread applies readings and retractions through
//! [`CurrencyServe::apply`] (each publish bumps the epoch), while reader
//! threads answer CPS/COP/CCQA through their own [`ServeHandle`]s — every
//! answer pinned to a published epoch, repeated questions served from the
//! epoch-keyed cache, and none of it ever blocking the writer.  The
//! closing audit replays a sample of what the readers saw against a
//! fresh single-threaded engine.
//!
//! Run with: `cargo run --example serve_feed`

use data_currency::model::{
    AttrId, Catalog, CmpOp, DenialConstraint, Eid, RelationSchema, SpecDelta, Specification, Term,
    Tuple, TupleId, Value,
};
use data_currency::query::SpQuery;
use data_currency::reason::{CurrencyEngine, CurrencyOrderQuery, Options};
use data_currency::serve::{CurrencyServe, ServeOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const BALANCE: AttrId = AttrId(0);
const CUSTOMERS: u64 = 8;
const READER_THREADS: usize = 4;
const TICKS: usize = 40;

fn main() {
    println!("== serve_feed: concurrent readers over an epoch-published CRM ==\n");

    // Bootstrap: two readings per customer plus the currency rule that
    // orders them (higher balance ⇒ more current).
    let mut cat = Catalog::new();
    let crm = cat.add(RelationSchema::new("Crm", &["balance"]));
    let mut spec = Specification::new(cat);
    for c in 0..CUSTOMERS {
        for bal in [100 + c as i64, 200 + c as i64] {
            spec.instance_mut(crm)
                .push_tuple(Tuple::new(Eid(c), vec![Value::int(bal)]))
                .expect("arity");
        }
    }
    let rule = DenialConstraint::builder(crm, 2)
        .when_cmp(Term::attr(0, BALANCE), CmpOp::Gt, Term::attr(1, BALANCE))
        .then_order(1, BALANCE, 0)
        .build()
        .expect("valid constraint");
    spec.add_constraint(rule).expect("well-formed");

    let serve = Arc::new(
        CurrencyServe::new(spec, &Options::default(), &ServeOptions::default())
            .expect("valid spec"),
    );
    println!(
        "bootstrapped {CUSTOMERS} customers at epoch {}, consistent: {}",
        serve.epoch(),
        serve.snapshot().cps()
    );

    // The writer: forty ticks of fresh readings and retractions, each
    // publishing a new epoch.  It never waits for a reader.
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let serve = serve.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            for tick in 0..TICKS {
                let customer = (tick as u64) % CUSTOMERS;
                let mut delta = SpecDelta::new();
                delta.insert_tuple(
                    crm,
                    Tuple::new(Eid(customer), vec![Value::int(300 + tick as i64)]),
                );
                let report = serve.apply(&delta).expect("admissible");
                if tick % 3 == 2 {
                    // Every third reading turns out to be bogus.
                    let mut retract = SpecDelta::new();
                    retract.remove_tuple(crm, report.inserted[0].1);
                    serve.apply(&retract).expect("admissible");
                }
            }
            done.store(true, Ordering::Relaxed);
        })
    };

    // The readers: each thread owns a handle (private solver scratch)
    // and hammers the same small question pool — the second time any
    // thread asks a question at a given epoch, the answer comes from the
    // shared cache.
    let certain_balances = SpQuery::identity(crm, 1).to_query(1);
    let readers: Vec<_> = (0..READER_THREADS)
        .map(|ix| {
            let serve = serve.clone();
            let done = done.clone();
            let query = certain_balances.clone();
            std::thread::spawn(move || {
                let mut handle = serve.handle();
                let mut observed = Vec::new();
                let mut rounds = 0u64;
                let round = |handle: &mut data_currency::serve::ServeHandle,
                             observed: &mut Vec<_>| {
                    let consistent = handle.cps().expect("in budget");
                    let pair = CurrencyOrderQuery::single(
                        crm,
                        BALANCE,
                        TupleId(ix as u32 * 2),
                        TupleId(ix as u32 * 2 + 1),
                    );
                    let ordered = handle.cop(&pair).expect("in budget");
                    let answers = handle.certain_answers(&query).expect("in budget");
                    observed.push((handle.epoch(), pair, consistent, ordered, answers));
                };
                while !done.load(Ordering::Relaxed) {
                    round(&mut handle, &mut observed);
                    rounds += 1;
                    std::thread::yield_now();
                }
                // One round after the stream ends, pinned to the final
                // epoch — that's what the closing audit replays.
                round(&mut handle, &mut observed);
                rounds += 1;
                (rounds, observed)
            })
        })
        .collect();

    writer.join().expect("writer finished");
    let mut total_rounds = 0u64;
    let mut samples = Vec::new();
    for reader in readers {
        let (rounds, observed) = reader.join().expect("reader finished");
        total_rounds += rounds;
        samples.extend(observed.into_iter().rev().take(3)); // last few per reader
    }

    let stats = serve.stats();
    // Latency lives in the registry: one histogram per query kind,
    // merged here into one distribution.
    let latency = serve
        .metrics()
        .snapshot()
        .merged_histogram("currency_serve_latency_ns");
    println!(
        "\nwriter published {} epochs; {READER_THREADS} readers completed {} query rounds",
        stats.epoch, total_rounds
    );
    println!(
        "served {} queries: {} cache hits / {} misses (hit rate {:.0}%), \
         mean latency {}µs (max {}µs), {} entries resident",
        stats.queries,
        stats.cache_hits,
        stats.cache_misses,
        stats.hit_rate() * 100.0,
        latency.sum.checked_div(latency.count()).unwrap_or(0) / 1_000,
        latency.max / 1_000,
        stats.cached_entries
    );

    // Closing audit: the retained samples must match a fresh engine at
    // the *current* spec for every sample pinned to the final epoch (the
    // writer has stopped, so the last rounds all are).
    let snap = serve.snapshot();
    let fresh = CurrencyEngine::new(snap.spec(), &Options::default()).expect("valid spec");
    let mut audited = 0;
    for (epoch, pair, consistent, ordered, answers) in samples {
        if epoch != snap.epoch() {
            continue;
        }
        assert_eq!(consistent, fresh.cps().expect("in budget"));
        assert_eq!(ordered, fresh.cop(&pair).expect("in budget"));
        assert_eq!(
            answers,
            fresh.certain_answers(&certain_balances).expect("in budget")
        );
        audited += 1;
    }
    println!(
        "\naudit: {audited} sampled answers at epoch {} re-checked against a fresh engine ✓",
        snap.epoch()
    );
}
