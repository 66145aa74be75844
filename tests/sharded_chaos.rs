//! Chaos testing of the sharded durable store: shards are independent
//! failure domains.
//!
//! Two experiments, both built on [`ChaosVfs`]'s globally numbered
//! operation trace:
//!
//! * **Targeted** (`pinned_seed_sharded_chaos`, the CI anchor): a dry
//!   run locates the exact operation window of one entity-routed apply,
//!   then a second run injects a single I/O fault *inside that shard's
//!   WAL append*.  The failing shard must go fail-stop (every further
//!   delta routed to it refused as poisoned) while the **other shards
//!   keep accepting writes untouched**; recovery then lands the failing
//!   shard on a durable prefix and every other shard on its exact
//!   pre-crash state.
//! * **Random schedules** (proptest sweep): a seed-derived fault lands
//!   anywhere in the create + stream horizon; every failure must be a
//!   typed error, and a per-shard prefix-consistency argument bounds
//!   each recovered shard between its acknowledged prefix and at most
//!   one in-flight delta.
//!
//! Both use sequential recovery for the final reopen where determinism
//! matters; the parallel path is byte-compared against sequential in
//! `tests/sharded_recovery.rs`.
//!
//! A third, deterministic test fails one shard's compaction-step record
//! write and checks that the shards which already stepped hand back
//! their id translations with the error.

use data_currency::datagen::random::{
    pinned_seeds, random_delta, random_spec, DeltaMix, RandomSpecConfig,
};
use data_currency::model::wire::encode_spec;
use data_currency::model::{
    Catalog, Eid, RelId, RelationSchema, SpecDelta, Specification, Tuple, TupleId, Value,
};
use data_currency::reason::shard::{global_id, locate};
use data_currency::reason::{Options, ShardError, ShardPlan};
use data_currency::store::{ChaosPlan, ChaosVfs, Fault, ShardedStore, StoreError, StoreOptions};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const T: RelId = RelId(0);
const STREAM_LEN: usize = 8;
const SHARDS: usize = 4;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("currency-shchaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(seed: u64) -> RandomSpecConfig {
    RandomSpecConfig {
        entities: 3,
        tuples_per_entity: (1, 2),
        attrs: 1,
        value_pool: 2,
        order_density: 0.25,
        monotone_constraints: (seed % 2) as usize,
        correlated_constraints: 0,
        with_copy: false,
        seed,
    }
}

/// One admissible delta against the store's shards, in global ids.
fn next_delta(store: &ShardedStore, rng: &mut SmallRng) -> SpecDelta {
    let shards: Vec<&Specification> = (0..store.shards()).map(|k| store.shard(k).spec()).collect();
    random_delta(&shards, &DeltaMix::NO_COPY, rng)
}

/// What the fault-free dry run learned about the workload.
struct DryRun {
    /// The delta stream (reused verbatim by the chaos run).
    deltas: Vec<SpecDelta>,
    /// Shards each delta touched (singleton for entity deltas, all for
    /// broadcasts) — from the apply reports.
    touched: Vec<Vec<usize>>,
    /// Operation window `[start, end)` of each apply.
    windows: Vec<(u64, u64)>,
    /// `hist[k][j]` = shard `k`'s encoding after `j` deltas touched it
    /// (`hist[k][0]` = post-create).
    hist: Vec<Vec<Vec<u8>>>,
    /// Total operations issued (the fault horizon).
    horizon: u64,
    /// The trace, for aiming targeted faults.
    trace: Vec<(u64, &'static str)>,
}

/// Run create + stream fault-free, recording the stream, per-delta op
/// windows, routing, and per-shard state history.
fn dry_run(seed: u64, dir: &Path, opts: &Options, store_opts: StoreOptions) -> DryRun {
    let probe = Arc::new(ChaosVfs::new(ChaosPlan::new()));
    let spec = random_spec(&config(seed));
    let mut store =
        ShardedStore::create_with_vfs(probe.clone(), dir, &spec, SHARDS, opts, store_opts)
            .expect("fault-free create");
    let mut hist: Vec<Vec<Vec<u8>>> = (0..SHARDS)
        .map(|k| vec![encode_spec(store.shard(k).spec())])
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    let mut deltas = Vec::new();
    let mut touched = Vec::new();
    let mut windows = Vec::new();
    for _ in 0..STREAM_LEN {
        let delta = next_delta(&store, &mut rng);
        let start = probe.ops();
        let report = store.apply(&delta).expect("fault-free apply");
        let end = probe.ops();
        let shards: Vec<usize> = match report.shard {
            Some(s) => vec![s],
            None if report.broadcast => (0..SHARDS).collect(),
            None => Vec::new(),
        };
        for &k in &shards {
            hist[k].push(encode_spec(store.shard(k).spec()));
        }
        deltas.push(delta);
        touched.push(shards);
        windows.push((start, end));
    }
    drop(store);
    DryRun {
        deltas,
        touched,
        windows,
        hist,
        horizon: probe.ops(),
        trace: probe.trace(),
    }
}

/// The targeted experiment: one `Fault::Io` on a WAL `write_all` inside
/// one entity-routed apply.  Deterministic for a given seed.
fn targeted_round(seed: u64) {
    let opts = Options::default();
    let store_opts = StoreOptions::default();
    let dry_dir = tmpdir(&format!("dry-{seed}"));
    let dry = dry_run(seed, &dry_dir, &opts, store_opts);

    // Pick the first entity-routed delta and the first write inside its
    // operation window: that is a WAL append on exactly one shard.
    let (victim_idx, victim_shard) = dry
        .touched
        .iter()
        .enumerate()
        .find_map(|(i, t)| (t.len() == 1).then(|| (i, t[0])))
        .expect("a seeded stream always contains entity-routed deltas");
    let (start, end) = dry.windows[victim_idx];
    let target = dry
        .trace
        .iter()
        .find(|(op, kind)| *op >= start && *op < end && *kind == "write_all")
        .map(|(op, _)| *op)
        .expect("an apply always writes its WAL record");

    // Chaos run: same workload, one injected write failure.  A shadow
    // store on the real filesystem mirrors every *acknowledged* apply.
    let chaos_dir = tmpdir(&format!("run-{seed}"));
    let shadow_dir = tmpdir(&format!("shadow-{seed}"));
    let vfs = Arc::new(ChaosVfs::new(ChaosPlan::new().fail_at(target, Fault::Io)));
    let spec = random_spec(&config(seed));
    let mut store =
        ShardedStore::create_with_vfs(vfs.clone(), &chaos_dir, &spec, SHARDS, &opts, store_opts)
            .expect("create precedes the fault");
    let mut shadow =
        ShardedStore::create(&shadow_dir, &spec, SHARDS, &opts, store_opts).expect("shadow");
    for (i, delta) in dry.deltas.iter().enumerate() {
        match store.apply(delta) {
            Ok(_) => {
                assert!(i != victim_idx, "targeted apply must fail (seed {seed})");
                shadow.apply(delta).expect("shadow mirrors acked applies");
            }
            Err(ShardError::Shard { shard, .. }) => {
                assert_eq!(i, victim_idx, "fault hit the wrong apply (seed {seed})");
                assert_eq!(
                    shard, victim_shard,
                    "fault hit the wrong shard (seed {seed})"
                );
                break;
            }
            Err(e) => panic!("unexpected failure shape (seed {seed}): {e}"),
        }
    }
    assert_eq!(vfs.injected(), 1, "exactly one fault lands (seed {seed})");

    // The failing shard is fail-stop: a delta routed to it is refused…
    let arity = shadow.shard(0).spec().instance(T).arity();
    let on_shard = |s: usize| {
        let mut tuples = shadow.shard(s).spec().instance(T).tuples();
        tuples.next().map(|(_, t)| t.eid)
    };
    if let Some(eid) = on_shard(victim_shard) {
        let mut probe = SpecDelta::new();
        probe.insert_tuple(T, Tuple::new(eid, vec![Value::int(0); arity]));
        match store.apply(&probe) {
            Err(ShardError::Shard { shard, source }) => {
                assert_eq!(shard, victim_shard);
                assert!(
                    matches!(source, StoreError::Poisoned { .. }),
                    "failing shard must be poisoned, got {source}"
                );
            }
            other => panic!("poisoned shard accepted a delta: {:?}", other.map(|_| ())),
        }
    }
    // …while every other shard keeps accepting writes.
    let other = (0..SHARDS).find(|&s| s != victim_shard && on_shard(s).is_some());
    if let Some(s) = other {
        let eid = on_shard(s).unwrap();
        let mut probe = SpecDelta::new();
        probe.insert_tuple(T, Tuple::new(eid, vec![Value::int(1); arity]));
        let report = store.apply(&probe).expect("healthy shards keep serving");
        assert_eq!(report.shard, Some(s));
        shadow.apply(&probe).expect("shadow mirrors");
    }
    drop(store); // crash

    // Recovery: healthy shards land exactly on their acknowledged
    // state; the failing shard lands on a durable prefix — without the
    // faulted record (Fault::Io writes nothing) or, at most, with it.
    let recovered = ShardedStore::open_sequential(&chaos_dir, &opts, store_opts)
        .expect("all shards recover; the faulted WAL has a clean tail");
    let before = encode_spec(shadow.shard(victim_shard).spec());
    shadow
        .apply(&dry.deltas[victim_idx])
        .expect("the failed delta is still admissible against its prefix");
    let after = encode_spec(shadow.shard(victim_shard).spec());
    for k in 0..SHARDS {
        let got = encode_spec(recovered.shard(k).spec());
        if k == victim_shard {
            assert!(
                got == before || got == after,
                "failing shard recovered outside its durable prefix (seed {seed})"
            );
        } else {
            assert_eq!(
                got,
                encode_spec(shadow.shard(k).spec()),
                "fault leaked into shard {k} (seed {seed})"
            );
        }
    }

    for d in [&dry_dir, &chaos_dir, &shadow_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The random-schedule experiment: one seed-derived fault anywhere in
/// the create + stream horizon; per-shard prefix consistency on reopen.
fn random_schedule_round(seed: u64) {
    let opts = Options::default();
    let store_opts = StoreOptions::default();
    let dry_dir = tmpdir(&format!("rdry-{seed}"));
    let dry = dry_run(seed, &dry_dir, &opts, store_opts);

    let chaos_dir = tmpdir(&format!("rrun-{seed}"));
    let vfs = Arc::new(ChaosVfs::new(ChaosPlan::from_seed(seed, dry.horizon, 1)));
    let spec = random_spec(&config(seed));
    // How many touching deltas each shard acknowledged, and which
    // shards the failing delta touched.
    let mut acked = [0usize; SHARDS];
    let mut in_flight: Vec<usize> = Vec::new();
    let created =
        ShardedStore::create_with_vfs(vfs.clone(), &chaos_dir, &spec, SHARDS, &opts, store_opts);
    match created {
        Err(e) => {
            assert!(!format!("{e}").is_empty(), "typed create failure");
            assert!(vfs.injected() > 0, "create only fails under a fault");
            // A crash mid-create either refuses to open (no meta) or —
            // when only the meta sync failed — opens at the initial
            // state on every shard.
            if let Ok(rec) = ShardedStore::open_sequential(&chaos_dir, &opts, store_opts) {
                for k in 0..SHARDS {
                    assert_eq!(
                        encode_spec(rec.shard(k).spec()),
                        dry.hist[k][0],
                        "partial create leaked state (seed {seed}, shard {k})"
                    );
                }
            }
        }
        Ok(mut store) => {
            for (i, delta) in dry.deltas.iter().enumerate() {
                match store.apply(delta) {
                    Ok(_) => {
                        for &k in &dry.touched[i] {
                            acked[k] += 1;
                        }
                    }
                    Err(e) => {
                        assert!(!format!("{e}").is_empty(), "typed apply failure");
                        assert!(vfs.injected() > 0, "applies only fail under a fault");
                        in_flight = dry.touched[i].clone();
                        // Fail-stop: the same delta is refused on retry
                        // (the failing shard is poisoned).
                        assert!(
                            store.apply(delta).is_err(),
                            "post-fault retry must be refused (seed {seed}, step {i})"
                        );
                        break;
                    }
                }
            }
            drop(store); // crash
            match ShardedStore::open_sequential(&chaos_dir, &opts, store_opts) {
                Ok(rec) => {
                    for (k, &ack) in acked.iter().enumerate() {
                        let got = encode_spec(rec.shard(k).spec());
                        let exact = &dry.hist[k][ack];
                        let ok = if in_flight.contains(&k) {
                            // The failing record may or may not have
                            // become durable — never more than one.
                            got == *exact
                                || dry.hist[k].get(ack + 1).is_some_and(|next| got == *next)
                        } else {
                            got == *exact
                        };
                        assert!(
                            ok,
                            "shard {k} recovered outside its durable prefix (seed {seed})"
                        );
                    }
                }
                Err(e) => {
                    assert!(!format!("{e}").is_empty(), "typed reopen failure");
                    assert!(
                        vfs.injected() > 0,
                        "reopen of an unfaulted store must succeed (seed {seed}): {e}"
                    );
                }
            }
        }
    }

    for d in [&dry_dir, &chaos_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    // Randomized single-fault schedules across the 10k-seed space.
    #[test]
    fn seeded_fault_schedules_keep_shards_independent(seed in 0u64..10_000) {
        random_schedule_round(seed);
    }
}

/// The CI anchor: two seeds from `CHAOS_SEED` drive the targeted
/// one-fault-in-one-shard's-WAL experiment, byte-for-byte reproducible
/// across runs and machines.
#[test]
fn pinned_seed_sharded_chaos() {
    for seed in pinned_seeds(2, 2) {
        targeted_round(seed);
    }
}

/// Two shards, one entity each, each with a retracted first reading:
/// create, retract, and return the store (the workload both runs of
/// [`failed_step_returns_completed_shards_reports`] share).
fn two_shard_tombstones(vfs: Arc<ChaosVfs>, dir: &Path) -> ShardedStore {
    let mut catalog = Catalog::new();
    catalog.add(RelationSchema::new("T", &["A"]));
    let mut spec = Specification::new(catalog);
    let plan = ShardPlan::from_spec(2, &spec);
    let e1 = (1..64)
        .map(Eid)
        .find(|&e| plan.shard_of(e) != plan.shard_of(Eid(0)))
        .expect("splitmix64 splits 64 eids over 2 shards");
    let (e0, e1) = if plan.shard_of(Eid(0)) == 0 {
        (Eid(0), e1)
    } else {
        (e1, Eid(0))
    };
    for eid in [e0, e1] {
        for v in [0, 1] {
            spec.instance_mut(T)
                .push_tuple(Tuple::new(eid, vec![Value::int(v)]))
                .unwrap();
        }
    }
    let mut store = ShardedStore::create_with_vfs(
        vfs,
        dir,
        &spec,
        2,
        &Options::default(),
        StoreOptions::default(),
    )
    .expect("fault-free create");
    for shard in 0..2 {
        let mut delta = SpecDelta::new();
        delta.remove_tuple(T, global_id(2, shard, TupleId(0)));
        store.apply(&delta).expect("fault-free retract");
    }
    store
}

/// A compaction step that fails on shard 1 (its step-record write) must
/// still return shard 0's report: shard 0's ids moved and were logged,
/// and the caller translates them through it.
#[test]
fn failed_step_returns_completed_shards_reports() {
    // Dry run: locate the first write inside shard 1's step.
    let dry_dir = tmpdir("step-dry");
    let probe = Arc::new(ChaosVfs::new(ChaosPlan::new()));
    let mut dry = two_shard_tombstones(probe.clone(), &dry_dir);
    dry.shard_mut(0).compact().expect("fault-free step");
    let start = probe.ops();
    dry.shard_mut(1).compact().expect("fault-free step");
    let target = probe
        .trace()
        .iter()
        .find(|&&(op, kind)| op >= start && kind == "write_all")
        .map(|&(op, _)| op)
        .expect("a step that reclaims a slot logs its record");
    drop(dry);

    let dir = tmpdir("step-run");
    let vfs = Arc::new(ChaosVfs::new(ChaosPlan::new().fail_at(target, Fault::Io)));
    let mut store = two_shard_tombstones(vfs.clone(), &dir);
    // Shard 0's live reading sits at local id 1 behind its tombstone.
    let (live, retracted) = (global_id(2, 0, TupleId(1)), global_id(2, 0, TupleId(0)));
    let on_shard_1 = global_id(2, 1, TupleId(1));
    match store.compact() {
        Err(ShardError::StepFailed {
            shard: 1,
            source,
            completed,
        }) => {
            assert!(matches!(source, StoreError::Io { .. }), "got {source}");
            assert_eq!(completed.per_shard.len(), 1, "only shard 0 stepped");
            assert!(!completed.done());
            let moved = completed.new_id(T, live).expect("live tuples survive");
            let (shard, local) = locate(2, moved);
            assert_eq!((shard, local), (0, TupleId(0)), "shard 0 renumbered");
            let kept = store.shard(0).spec().instance(T).tuple(local);
            assert_eq!(kept.values, vec![Value::int(1)]);
            assert_eq!(completed.new_id(T, retracted), None, "slot reclaimed");
            assert_eq!(completed.new_id(T, on_shard_1), Some(on_shard_1));
        }
        other => panic!(
            "expected StepFailed on shard 1, got {:?}",
            other.map(|_| ())
        ),
    }
    assert_eq!(vfs.injected(), 1);
    drop(store);
    for d in [&dry_dir, &dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
