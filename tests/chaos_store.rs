//! Chaos differential suite: seeded update streams under randomized
//! I/O-fault schedules.
//!
//! Each seed drives the same three-phase experiment:
//!
//! 1. **Dry run** — the workload (create a store, stream deltas, reopen)
//!    executes against a fault-free [`ChaosVfs`], which counts every
//!    filesystem operation the store issues.  That count is the horizon
//!    faults can land in.
//! 2. **Chaos run** — the identical workload repeats under a
//!    seed-derived [`ChaosPlan`] (outright I/O errors, short writes,
//!    fsync failures, torn renames).  Every failure must be a clean
//!    typed [`StoreError`] — never a panic — and the first write failure
//!    must leave the store **fail-stop** (every later mutation refused
//!    as [`StoreError::Poisoned`]).
//! 3. **Differential reopen** — the damaged directory is reopened with
//!    the real filesystem.  A surviving open must land on a
//!    **prefix-consistent** state: byte-identical (canonical wire
//!    encoding) to the never-faulted shadow after some prefix of the
//!    stream, no shorter than the durably acknowledged prefix — and must
//!    agree with a fresh in-memory engine (and, within a budget, the
//!    enumeration oracle) over that prefix on CPS, all-pairs COP, DCIP
//!    and the certain answers of every relation.  A failed reopen is
//!    only acceptable when a fault was actually injected.

use data_currency::datagen::random::{
    pinned_seeds, random_delta, random_spec, DeltaMix, RandomSpecConfig,
};
use data_currency::model::wire::encode_spec;
use data_currency::model::{SpecDelta, Specification};
use data_currency::reason::oracle::assert_agreement;
use data_currency::reason::{CompactBudget, Options};
use data_currency::store::{ChaosPlan, ChaosVfs, DurableEngine, StoreError, StoreOptions};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Deltas per stream.
const STREAM_LEN: usize = 8;
/// Faults scheduled per chaos run.
const FAULTS: usize = 2;
/// Candidate budget of the enumeration oracle on the recovered state.
const ORACLE_BUDGET: usize = 4_096;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("currency-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(seed: u64) -> RandomSpecConfig {
    RandomSpecConfig {
        entities: 2,
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

/// The seeded workload: the base spec, the delta stream, and the shadow
/// (never-faulted) state after each prefix.
struct Workload {
    spec: Specification,
    deltas: Vec<SpecDelta>,
    /// `prefixes[k]` = canonical encoding after the first `k` deltas.
    prefixes: Vec<Vec<u8>>,
    /// The full shadow specification after each prefix (for the
    /// differential engine comparison).
    shadows: Vec<Specification>,
}

fn workload(seed: u64) -> Workload {
    let spec = random_spec(&config(seed));
    let mut shadow = spec.clone();
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xC2B2_AE3D));
    let mut deltas = Vec::new();
    let mut prefixes = vec![encode_spec(&shadow)];
    let mut shadows = vec![shadow.clone()];
    for _ in 0..STREAM_LEN {
        let delta = random_delta(&[&shadow], &DeltaMix::NO_COPY, &mut rng);
        shadow.apply_delta(&delta).expect("admissible by draw");
        deltas.push(delta);
        prefixes.push(encode_spec(&shadow));
        shadows.push(shadow.clone());
    }
    Workload {
        spec,
        deltas,
        prefixes,
        shadows,
    }
}

/// Run create + stream + reopen fault-free, returning the operation
/// horizon for the fault schedule.
fn dry_run_horizon(w: &Workload, dir: &Path, opts: &Options, store: StoreOptions) -> u64 {
    let probe = Arc::new(ChaosVfs::new(ChaosPlan::new()));
    let mut durable =
        DurableEngine::create_with_vfs(probe.clone(), dir, w.spec.clone(), opts, store)
            .expect("fault-free create");
    for delta in &w.deltas {
        durable.apply(delta).expect("fault-free apply");
    }
    drop(durable);
    drop(DurableEngine::open_with_vfs(probe.clone(), dir, opts, store).expect("fault-free reopen"));
    probe.ops()
}

/// Stream the workload's deltas into a chaos-backed store.  Returns the
/// count of acknowledged (successfully applied) deltas.  Verifies the
/// fail-stop contract at the first failure.
fn chaos_stream(
    w: &Workload,
    vfs: &Arc<ChaosVfs>,
    dir: &Path,
    opts: &Options,
    store: StoreOptions,
    seed: u64,
) -> Result<usize, StoreError> {
    let mut durable =
        DurableEngine::create_with_vfs(vfs.clone(), dir, w.spec.clone(), opts, store)?;
    let mut acked = 0;
    for (step, delta) in w.deltas.iter().enumerate() {
        match durable.apply(delta) {
            Ok(_) => acked += 1,
            Err(first) => {
                assert!(
                    !format!("{first}").is_empty(),
                    "typed, displayable error (seed {seed} step {step})"
                );
                // Fail-stop: the deltas are admissible by construction,
                // so this failure was a write failure, and every further
                // mutation must be refused until a reopen.
                assert!(
                    matches!(durable.apply(delta), Err(StoreError::Poisoned { .. })),
                    "post-fault mutation must be refused (seed {seed} step {step})"
                );
                assert!(
                    matches!(
                        durable.compact_step(&CompactBudget::UNBOUNDED),
                        Err(StoreError::Poisoned { .. })
                    ),
                    "post-fault compaction must be refused (seed {seed} step {step})"
                );
                break;
            }
        }
    }
    Ok(acked)
}

/// The full three-phase experiment for one seed.
fn chaos_round(seed: u64) {
    let opts = Options::default();
    // Real durability settings: syncs on, so fsync faults land on real
    // sync points.
    let store = StoreOptions::default();
    let w = workload(seed);

    let dry_dir = tmpdir(&format!("dry-{seed}"));
    let horizon = dry_run_horizon(&w, &dry_dir, &opts, store);

    let dir = tmpdir(&format!("run-{seed}"));
    let chaos = Arc::new(ChaosVfs::new(ChaosPlan::from_seed(seed, horizon, FAULTS)));
    let outcome = chaos_stream(&w, &chaos, &dir, &opts, store, seed);
    let acked = match outcome {
        Ok(acked) => Some(acked),
        Err(e) => {
            assert!(!format!("{e}").is_empty(), "typed create failure");
            assert!(chaos.injected() > 0, "create only fails under a fault");
            None
        }
    };

    // Differential reopen against the real filesystem.
    match DurableEngine::open(&dir, &opts, store) {
        Ok(recovered) => {
            let survived = recovered.seq() as usize;
            assert!(
                survived <= STREAM_LEN,
                "recovered past the stream (seed {seed})"
            );
            if let Some(acked) = acked {
                // Acknowledged records were flushed (group commit 1), so
                // recovery reaches at least them; the record whose write
                // *failed* may or may not have become durable, never more.
                assert!(
                    (acked..=(acked + 1).min(STREAM_LEN)).contains(&survived),
                    "seed {seed}: {acked} acked but {survived} recovered"
                );
            }
            assert_eq!(
                encode_spec(recovered.spec()),
                w.prefixes[survived],
                "recovered state is not the {survived}-prefix (seed {seed})"
            );
            let at = format!("seed {seed}, {survived}-prefix");
            assert_agreement(
                &mut recovered.engine(),
                &w.shadows[survived],
                ORACLE_BUDGET,
                &at,
            );
        }
        Err(e) => {
            assert!(!format!("{e}").is_empty(), "typed reopen failure");
            assert!(
                chaos.injected() > 0,
                "reopen of an unfaulted store must succeed (seed {seed}): {e}"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dry_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    // Randomized schedules across the 10k-seed space.
    #[test]
    fn seeded_fault_schedules_keep_recovery_prefix_consistent(seed in 0u64..10_000) {
        chaos_round(seed);
    }
}

/// The CI anchor: three seeds from `CHAOS_SEED`, so the chaos step is
/// byte-for-byte reproducible across runs and machines and still covers
/// several schedule shapes.
#[test]
fn pinned_seed_chaos_round() {
    for seed in pinned_seeds(3, 3) {
        chaos_round(seed);
    }
}
