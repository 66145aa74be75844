//! Crash-recovery testing of the durability layer.
//!
//! Two attack surfaces:
//!
//! * **Fault injection** — a store's write-ahead log is truncated at
//!   *every byte offset* of its final record (the footprint of a crash
//!   mid-append) and has one byte flipped *per frame* (bit rot /
//!   tampering).  The contract: [`DurableEngine::open`] either recovers
//!   a **prefix-consistent** specification (byte-identical, under the
//!   canonical wire encoding, to the state after some prefix of the
//!   logged deltas) or reports a checksum/divergence error — never a
//!   panic, never a state outside the prefix set.
//! * **Differential streams** — seeded random delta streams interrupted
//!   (dropped and reopened) at random points, with snapshot rotation and
//!   the auto-compaction policy switched on for a slice of the seed
//!   space.  After every restart the recovered engine must agree with
//!   the never-restarted in-memory engine — and, when affordable, with
//!   the brute-force completion-enumeration oracle — on CPS, all-pairs
//!   COP, DCIP and certain current answers of every relation.

use data_currency::datagen::random::{random_delta, random_spec, DeltaMix, RandomSpecConfig};
use data_currency::model::wire::encode_spec;
use data_currency::reason::oracle::Agreement;
use data_currency::reason::{CurrencyEngine, Options};
use data_currency::store::{DurableEngine, StoreOptions};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

const ORACLE_BUDGET: usize = 2_000_000;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "currency-store-recovery-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Store options tuned for tests: no fsync, rotation generous unless a
/// test opts in.
fn fast_store() -> StoreOptions {
    StoreOptions {
        sync_data: false,
        ..StoreOptions::default()
    }
}

/// Small shapes so the factorial-cost oracle stays affordable even after
/// several inserts.
fn config(seed: u64) -> RandomSpecConfig {
    RandomSpecConfig {
        entities: 2,
        tuples_per_entity: (1, 2),
        attrs: 1,
        value_pool: 2,
        order_density: 0.25,
        monotone_constraints: (seed % 2) as usize,
        correlated_constraints: 0,
        with_copy: seed.is_multiple_of(2),
        seed,
    }
}

/// The recovered durable engine holds the never-restarted engine's
/// specification, and both answer like a fresh engine and the oracle.
fn check(durable: &DurableEngine, shadow: &CurrencyEngine, seed: u64, step: usize) {
    assert_eq!(
        encode_spec(durable.spec()),
        encode_spec(shadow.spec()),
        "specs diverged: seed {seed} step {step}"
    );
    let at = format!("seed {seed} step {step}");
    let agreement = Agreement::of(durable.spec(), ORACLE_BUDGET, &at);
    agreement.check(&mut durable.engine(), |_, id| id, &at);
    agreement.check(&mut &*shadow, |_, id| id, &at);
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

/// Build a store with `n` logged deltas (every record flushed), and
/// return the canonical encodings of the specification after each prefix
/// of the stream (`prefixes[k]` = state after `k` deltas) plus the log's
/// frame boundaries (`frame_ends[k]` = file length after `k` records).
fn build_injection_fixture(dir: &Path, seed: u64, n: usize) -> (Vec<Vec<u8>>, Vec<u64>) {
    let spec = random_spec(&config(seed));
    let mut shadow = spec.clone();
    let mut prefixes = vec![encode_spec(&spec)];
    let opts = Options::default();
    let mut durable = DurableEngine::create(dir, spec, &opts, fast_store()).unwrap();
    let wal = dir.join("wal.log");
    let mut frame_ends = vec![std::fs::metadata(&wal).unwrap().len()];
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xD6E8_FEB8));
    for _ in 0..n {
        let delta = random_delta(&[&shadow], &DeltaMix::UPDATES, &mut rng);
        durable
            .apply(&delta)
            .expect("generated deltas are admissible");
        shadow.apply_delta(&delta).unwrap();
        prefixes.push(encode_spec(&shadow));
        frame_ends.push(std::fs::metadata(&wal).unwrap().len());
    }
    drop(durable);
    (prefixes, frame_ends)
}

#[test]
fn truncating_the_final_record_at_every_byte_recovers_the_prefix() {
    let n = 5;
    for seed in [0u64, 1, 7] {
        let dir = tmpdir(&format!("truncate-{seed}"));
        let (prefixes, frame_ends) = build_injection_fixture(&dir, seed, n);
        let wal = dir.join("wal.log");
        let full = std::fs::read(&wal).unwrap();
        assert_eq!(full.len() as u64, *frame_ends.last().unwrap());
        let last_start = frame_ends[n - 1];
        // Every cut inside the final record (its first byte up to one
        // short of its end) must recover exactly the n-1 prefix; a cut at
        // the frame boundary is the clean n-1 log.
        for cut in last_start..*frame_ends.last().unwrap() {
            std::fs::write(&wal, &full[..cut as usize]).unwrap();
            let recovered = DurableEngine::open(&dir, &Options::default(), fast_store())
                .unwrap_or_else(|e| panic!("cut at {cut} failed recovery: {e}"));
            assert_eq!(
                encode_spec(recovered.spec()),
                prefixes[n - 1],
                "cut at byte {cut} of seed {seed}"
            );
            assert_eq!(recovered.recovery().deltas_replayed, n - 1);
            assert_eq!(
                recovered.recovery().torn_tail_bytes > 0,
                cut > last_start,
                "torn bytes reported iff the cut left a partial frame"
            );
        }
    }
}

#[test]
fn flipping_one_byte_per_frame_errors_or_recovers_a_prefix() {
    let n = 5;
    for seed in [0u64, 3] {
        let dir = tmpdir(&format!("flip-{seed}"));
        let (prefixes, frame_ends) = build_injection_fixture(&dir, seed, n);
        let wal = dir.join("wal.log");
        let full = std::fs::read(&wal).unwrap();
        for frame in 0..n {
            let (start, end) = (frame_ends[frame] as usize, frame_ends[frame + 1] as usize);
            // One flip in each structurally distinct region of the frame:
            // the length field, the CRC field, and the payload.
            for offset in [start, start + 4, start + 8, (start + 8 + end) / 2, end - 1] {
                let mut bad = full.clone();
                bad[offset] ^= 0x10;
                std::fs::write(&wal, &bad).unwrap();
                match DurableEngine::open(&dir, &Options::default(), fast_store()) {
                    Err(_) => {} // checksum / framing error: contract upheld
                    Ok(recovered) => {
                        // A flipped length field can turn the suffix into
                        // a torn tail; the recovered state must then be
                        // exactly one of the logged prefixes.
                        let got = encode_spec(recovered.spec());
                        assert!(
                            prefixes.contains(&got),
                            "flip at byte {offset} (frame {frame}, seed {seed}) \
                             recovered a state outside the prefix set"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn flipping_snapshot_bytes_never_recovers_silently_wrong_state() {
    let dir = tmpdir("snapshot-flip");
    let spec = random_spec(&config(1));
    let opts = Options::default();
    let mut durable = DurableEngine::create(&dir, spec, &opts, fast_store()).unwrap();
    let mut rng = SmallRng::seed_from_u64(42);
    let mut shadow = durable.spec().clone();
    for _ in 0..3 {
        let delta = random_delta(&[&shadow], &DeltaMix::UPDATES, &mut rng);
        durable.apply(&delta).unwrap();
        shadow.apply_delta(&delta).unwrap();
    }
    let live = encode_spec(durable.spec());
    drop(durable);
    let snaps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            p.file_name()?
                .to_str()?
                .starts_with("snapshot-")
                .then_some(p)
        })
        .collect();
    assert_eq!(snaps.len(), 1);
    let good = std::fs::read(&snaps[0]).unwrap();
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0x08;
        std::fs::write(&snaps[0], &bad).unwrap();
        match DurableEngine::open(&dir, &opts, fast_store()) {
            Err(_) => {} // refused: the only snapshot generation is damaged
            Ok(recovered) => panic!(
                "flip at snapshot byte {i} recovered {} state",
                if encode_spec(recovered.spec()) == live {
                    "(by luck) the right"
                } else {
                    "a wrong"
                }
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Differential streams with restarts.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn interrupted_streams_recover_and_agree_with_engine_and_oracle(seed in 0u64..10_000) {
        let dir = tmpdir(&format!("diff-{seed}"));
        let spec = random_spec(&config(seed));
        // A slice of the seed space exercises the auto-compaction policy
        // (logged step records) and tight snapshot rotation through the
        // restarts.
        let opts = Options {
            auto_compact_tombstones: if seed % 3 == 0 { 2 } else { 0 },
            ..Options::default()
        };
        let store_opts = StoreOptions {
            snapshot_rotate_bytes: if seed % 2 == 0 { 200 } else { 1 << 20 },
            sync_data: false,
            ..StoreOptions::default()
        };
        let mut durable =
            DurableEngine::create(&dir, spec.clone(), &opts, store_opts).unwrap();
        let mut shadow = CurrencyEngine::new_owned(spec, &opts).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        let n = 6usize;
        let restart_at = (seed % (n as u64 + 1)) as usize;
        for step in 0..n {
            let delta = random_delta(&[shadow.spec()], &DeltaMix::UPDATES, &mut rng);
            durable.apply(&delta).expect("generated deltas are admissible");
            shadow.apply(&delta).expect("same delta, same verdict");
            if step == restart_at {
                // Interrupt: drop (flushes the group-commit buffer) and
                // recover from disk.
                drop(durable);
                durable = DurableEngine::open(&dir, &opts, store_opts)
                    .expect("clean files recover");
                prop_assert!(durable.stats().recoveries >= 1);
                check(&durable, &shadow, seed, step);
            }
        }
        // Final restart after the full stream.
        drop(durable);
        let durable = DurableEngine::open(&dir, &opts, store_opts).expect("clean files recover");
        check(&durable, &shadow, seed, n);
        // Recovery bookkeeping is sane: everything not covered by the
        // newest snapshot was replayed.
        let rec = durable.recovery();
        prop_assert_eq!(
            rec.deltas_replayed + rec.compact_steps_replayed + rec.snapshot_seq as usize,
            durable.seq() as usize,
            "seed {}", seed
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
