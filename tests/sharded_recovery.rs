//! Kill-and-recover testing of the sharded durable store: after a
//! seeded delta stream and a simulated crash (drop without shutdown),
//! **parallel** recovery ([`ShardedStore::open`], one thread per shard)
//! must land on exactly the same per-shard state as **sequential**
//! recovery ([`ShardedStore::open_sequential`]) and as the pre-crash
//! live store — byte-identical under the canonical wire encoding — and
//! a **trusted replay** (`StoreOptions::trusted_replay`, which skips
//! per-delta re-validation and leans on the WAL's CRC framing) must
//! land on the same state as the validating default.
//!
//! Deltas here speak the sharded store's *global* id space directly
//! (`global = local · N + shard`), drawn against the live shard
//! contents so every delta is admissible by construction; order edges
//! are oriented by ascending global id, which on one shard is ascending
//! local id — acyclic for free.

use data_currency::datagen::random::{random_delta, random_spec, DeltaMix, RandomSpecConfig};
use data_currency::model::wire::encode_spec;
use data_currency::model::{RelId, SpecDelta, Specification, Tuple, Value};
use data_currency::reason::Options;
use data_currency::store::{ShardedStore, ShardedStoreError, StoreError, StoreOptions};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;

const T: RelId = RelId(0);
/// Deltas per stream.
const STREAM_LEN: usize = 8;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("currency-shrec-{}-{name}", std::process::id()));
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
        with_copy: true,
        seed,
    }
}

/// One admissible delta against the store's shards, in global ids.
fn next_delta(store: &ShardedStore, rng: &mut SmallRng) -> SpecDelta {
    let shards: Vec<&Specification> = (0..store.shards()).map(|k| store.shard(k).spec()).collect();
    random_delta(&shards, &DeltaMix::NO_COPY, rng)
}

/// Stream deltas into a fresh sharded store, crash it, and recover it
/// three ways — parallel, sequential, trusted replay — asserting all
/// three land byte-identically on the pre-crash state.
fn recovery_round(seed: u64) {
    let n = [1usize, 2, 4, 8][(seed % 4) as usize];
    let opts = Options::default();
    let store_opts = StoreOptions::default();
    let spec = random_spec(&config(seed));
    let dir = tmpdir(&format!("{seed}"));

    let mut store = ShardedStore::create(&dir, &spec, n, &opts, store_opts).expect("create");
    assert_eq!(store.shards(), n);
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xA24B_AED4));
    // WAL records each shard will have to replay on reopen.
    let mut logged = vec![0usize; n];
    for _ in 0..STREAM_LEN {
        let delta = next_delta(&store, &mut rng);
        let report = store.apply(&delta).expect("admissible by draw");
        if let Some(s) = report.shard {
            logged[s] += 1;
        } else if report.broadcast {
            for c in logged.iter_mut() {
                *c += 1;
            }
        }
    }
    let pre: Vec<Vec<u8>> = (0..n).map(|k| encode_spec(store.shard(k).spec())).collect();
    // The first shard holding a live reading, and its entity.
    let live = (0..n).find_map(|k| {
        let mut tuples = store.shard(k).spec().instance(T).tuples();
        tuples.next().map(|(_, t)| (k, t.eid))
    });
    drop(store); // crash

    let parallel = ShardedStore::open(&dir, &opts, store_opts).expect("parallel recovery");
    let sequential =
        ShardedStore::open_sequential(&dir, &opts, store_opts).expect("sequential recovery");
    let trusted = ShardedStore::open(
        &dir,
        &opts,
        StoreOptions {
            trusted_replay: true,
            ..store_opts
        },
    )
    .expect("trusted replay recovery");
    for k in 0..n {
        assert_eq!(
            encode_spec(parallel.shard(k).spec()),
            pre[k],
            "parallel recovery diverged (seed {seed}, shard {k})"
        );
        assert_eq!(
            encode_spec(sequential.shard(k).spec()),
            pre[k],
            "sequential recovery diverged (seed {seed}, shard {k})"
        );
        assert_eq!(
            encode_spec(trusted.shard(k).spec()),
            pre[k],
            "trusted replay diverged (seed {seed}, shard {k})"
        );
        // The stream is far below the rotation threshold, so every
        // logged record replays — identically on every path.
        let p = parallel.recoveries()[k];
        let s = sequential.recoveries()[k];
        let t = trusted.recoveries()[k];
        assert_eq!(p.deltas_replayed, logged[k], "seed {seed}, shard {k}");
        assert_eq!(s.deltas_replayed, logged[k], "seed {seed}, shard {k}");
        assert_eq!(t.deltas_replayed, logged[k], "seed {seed}, shard {k}");
    }
    assert_eq!(
        parallel.cps().expect("in budget"),
        sequential.cps().unwrap(),
        "recovery paths disagree on CPS (seed {seed})"
    );

    // Routing survives recovery: a new reading for an entity that still
    // has live tuples lands in the shard that already holds it.
    if let Some((owner, eid)) = live {
        assert_eq!(
            parallel.plan().shard_of(eid),
            owner,
            "re-derived plan moved a live entity (seed {seed})"
        );
        let mut reopened = parallel;
        let arity = reopened.shard(0).spec().instance(T).arity();
        let mut delta = SpecDelta::new();
        delta.insert_tuple(T, Tuple::new(eid, vec![Value::int(1); arity]));
        let report = reopened.apply(&delta).expect("post-recovery apply");
        assert_eq!(
            report.shard,
            Some(owner),
            "post-recovery insert re-homed an entity (seed {seed})"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    // Kill-and-recover across the 10k-seed space and all shard counts.
    #[test]
    fn parallel_recovery_lands_identical_to_sequential(seed in 0u64..10_000) {
        recovery_round(seed);
    }
}

/// `create` refuses a directory that already holds a sharded store.
#[test]
fn create_refuses_existing_store() {
    let opts = Options::default();
    let spec = random_spec(&config(7));
    let dir = tmpdir("exists");
    let _store = ShardedStore::create(&dir, &spec, 2, &opts, StoreOptions::default()).unwrap();
    match ShardedStore::create(&dir, &spec, 2, &opts, StoreOptions::default()) {
        Err(ShardedStoreError::Dir(StoreError::AlreadyExists { .. })) => {}
        other => panic!("expected AlreadyExists, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `open` refuses a directory with no `shards.meta` (e.g. a crash
/// mid-`create` before the meta was written).
#[test]
fn open_refuses_directory_without_meta() {
    let dir = tmpdir("nometa");
    std::fs::create_dir_all(&dir).unwrap();
    assert!(ShardedStore::open(&dir, &Options::default(), StoreOptions::default()).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
