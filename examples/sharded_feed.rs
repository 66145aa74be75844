//! Sharded feed: the crash-recoverable CRM of `durable_feed`, scaled out
//! across entity shards.
//!
//! The customer base is split over a [`ShardedStore`] — four independent
//! durable engines, each with its own write-ahead log and snapshots.
//! Entities route to shards deterministically (`splitmix64` over the
//! copy-closure representative), so every delta for a customer lands in
//! the shard that owns it; structure deltas (new constraints) broadcast
//! to all shards; a delta that spans two shards is *rejected*, never
//! re-homed.  Queries scatter to every shard and gather: CPS is the
//! conjunction of per-shard verdicts, COP and certain answers translate
//! through the global id space (`global = local · N + shard`).  Mid-feed
//! the process "dies" and all four shards recover **in parallel** — one
//! thread per shard — landing on exactly the state sequential recovery
//! produces.
//!
//! Run with: `cargo run --example sharded_feed`

use data_currency::model::wire::encode_spec;
use data_currency::model::{
    AttrId, Catalog, CmpOp, DenialConstraint, Eid, RelationSchema, SpecDelta, Specification, Term,
    Tuple, Value,
};
use data_currency::reason::{CurrencyOrderQuery, Options, ShardError};
use data_currency::store::{ShardedStore, StoreOptions};

const BALANCE: AttrId = AttrId(0);
const CUSTOMERS: u64 = 32;
const SHARDS: usize = 4;

fn main() {
    println!("== sharded_feed: a CRM scaled out over {SHARDS} crash-recoverable shards ==\n");

    let dir = std::env::temp_dir().join(format!("currency-sharded-feed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Bootstrap: two conflicting readings per customer, no ordering yet.
    let mut cat = Catalog::new();
    let crm = cat.add(RelationSchema::new("Crm", &["balance"]));
    let mut spec = Specification::new(cat);
    let mut bootstrap_ids = Vec::new();
    for c in 0..CUSTOMERS {
        for bal in [100 + c as i64, 200 + c as i64] {
            let id = spec
                .instance_mut(crm)
                .push_tuple(Tuple::new(Eid(c), vec![Value::int(bal)]))
                .expect("arity");
            bootstrap_ids.push((c, id));
        }
    }

    // `create` splits the bootstrap across shards and writes snapshot 0
    // for each.  The returned plan is the routing contract from here on.
    let opts = Options::default();
    let store_opts = StoreOptions::default();
    let mut store =
        ShardedStore::create(&dir, &spec, SHARDS, &opts, store_opts).expect("fresh store");
    let mut by_shard = vec![0usize; SHARDS];
    for c in 0..CUSTOMERS {
        by_shard[store.plan().shard_of(Eid(c))] += 1;
    }
    println!(
        "bootstrapped {CUSTOMERS} customers across {SHARDS} shards {:?}, consistent: {}",
        by_shard,
        store.cps().expect("in budget")
    );

    // Tick 1 — a structure delta: the currency rule (higher balance ⇒
    // more current).  Constraints are shard-independent, so this
    // broadcasts: every shard logs and applies it.
    println!("\n[tick 1] constraint learned — broadcast to every shard");
    let rule = DenialConstraint::builder(crm, 2)
        .when_cmp(Term::attr(0, BALANCE), CmpOp::Gt, Term::attr(1, BALANCE))
        .then_order(1, BALANCE, 0)
        .build()
        .expect("valid constraint");
    let mut delta = SpecDelta::new();
    delta.add_constraint(rule);
    let report = store.apply(&delta).expect("admissible");
    assert!(report.broadcast, "structure deltas reach every shard");
    println!(
        "  broadcast: true, consistent: {}",
        store.cps().expect("in budget")
    );

    // Tick 2 — entity deltas: fresh readings.  Each routes to exactly
    // the shard that owns its customer.
    println!("\n[tick 2] fresh readings — routed to their owning shards");
    let mut fresh = Vec::new();
    for c in [3u64, 11, 19, 27] {
        let mut delta = SpecDelta::new();
        delta.insert_tuple(crm, Tuple::new(Eid(c), vec![Value::int(900 + c as i64)]));
        let report = store.apply(&delta).expect("admissible");
        let owner = store.plan().shard_of(Eid(c));
        assert_eq!(report.shard, Some(owner), "routed to the owner");
        fresh.push((c, report.inserted[0].1));
        println!(
            "  customer {c} → shard {owner} (global id {:?})",
            report.inserted[0].1
        );
    }

    // Tick 3 — the routing policy's teeth: a delta whose entities live
    // in different shards is rejected outright, never re-homed.  The
    // caller splits the batch and resubmits.
    println!("\n[tick 3] a cross-shard batch is rejected, never re-homed");
    let (a, b) = cross_shard_pair(&store).expect("32 customers over 4 shards must collide");
    let mut bad = SpecDelta::new();
    bad.insert_tuple(crm, Tuple::new(Eid(a), vec![Value::int(1)]))
        .insert_tuple(crm, Tuple::new(Eid(b), vec![Value::int(2)]));
    match store.apply(&bad) {
        Err(ShardError::CrossShard { shards }) => {
            println!("  ✗ customers {a} and {b} span shards {shards:?} — split the batch");
        }
        other => panic!("expected CrossShard rejection, got {:?}", other.map(|_| ())),
    }
    for c in [a, b] {
        let mut one = SpecDelta::new();
        one.insert_tuple(crm, Tuple::new(Eid(c), vec![Value::int(500)]));
        store.apply(&one).expect("singleton batch is admissible");
    }
    println!("  ✓ resubmitted as two singleton deltas");

    // Scatter-gather queries.  Bootstrap tuple ids were renumbered by
    // the split; `import()` translates them into the global id space.
    let (c0_low, c0_high) = {
        let low = store
            .import()
            .new_id(crm, bootstrap_ids[0].1)
            .expect("live");
        let high = store
            .import()
            .new_id(crm, bootstrap_ids[1].1)
            .expect("live");
        (low, high)
    };
    let certainly_older = store
        .cop(&CurrencyOrderQuery::single(crm, BALANCE, c0_low, c0_high))
        .expect("in budget");
    let certainly_newer = store
        .cop(&CurrencyOrderQuery::single(crm, BALANCE, c0_high, c0_low))
        .expect("in budget");
    println!(
        "\nscatter-gather: consistent: {}, customer 0's low reading ≺ high: {}, high ≺ low: {}",
        store.cps().expect("in budget"),
        certainly_older,
        certainly_newer
    );
    assert!(certainly_older && !certainly_newer);

    // The crash.  Whatever reached the four logs is the truth.
    println!("\n[tick 4] ✗ process dies mid-feed (store dropped, no shutdown)");
    let pre_crash: Vec<Vec<u8>> = (0..SHARDS)
        .map(|k| encode_spec(store.shard(k).spec()))
        .collect();
    drop(store);

    // Parallel recovery: one thread per shard, each loading its newest
    // snapshot and replaying its log suffix.  Sequential recovery must
    // land on byte-identical shards.
    let store = ShardedStore::open(&dir, &opts, store_opts).expect("parallel recovery");
    let replayed: usize = store.recoveries().iter().map(|r| r.deltas_replayed).sum();
    println!("[tick 5] ✓ {SHARDS} shards recovered in parallel, {replayed} deltas replayed");
    let sequential =
        ShardedStore::open_sequential(&dir, &opts, store_opts).expect("sequential recovery");
    for (k, pre) in pre_crash.iter().enumerate() {
        let recovered = encode_spec(store.shard(k).spec());
        assert_eq!(&recovered, pre, "shard {k} lost state");
        assert_eq!(
            &encode_spec(sequential.shard(k).spec()),
            pre,
            "sequential recovery diverged on shard {k}"
        );
    }
    drop(sequential);

    // Closing audit: the recovered store answers exactly as pre-crash.
    let mut store = store;
    assert!(store.cps().expect("in budget"));
    for &(c, global) in &fresh {
        let owner = store.plan().shard_of(Eid(c));
        let mut delta = SpecDelta::new();
        delta.remove_tuple(crm, global);
        let report = store.apply(&delta).expect("admissible");
        assert_eq!(report.shard, Some(owner), "routing survived recovery");
    }
    assert!(store.cps().expect("in budget"));
    let stats = store.stats();
    println!(
        "\nfinal audit: all {SHARDS} shards byte-identical to pre-crash, routing stable, \
         {} components / {} cells live ✓",
        stats.total.components, stats.total.cells
    );
    drop(store);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Two customers the plan places in different shards.
fn cross_shard_pair(store: &ShardedStore) -> Option<(u64, u64)> {
    let home = store.plan().shard_of(Eid(0));
    (1..CUSTOMERS)
        .find(|&c| store.plan().shard_of(Eid(c)) != home)
        .map(|c| (0, c))
}
