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
//!   COP, and certain current answers.

use data_currency::datagen::random::{random_spec, RandomSpecConfig};
use data_currency::model::wire::encode_spec;
use data_currency::model::{
    AttrId, CmpOp, DenialConstraint, Eid, RelId, SpecDelta, Specification, Term, Tuple, TupleId,
    Value,
};
use data_currency::query::{Database, Query, SpQuery};
use data_currency::reason::{
    enumerate::for_each_consistent_completion, CertainAnswers, CurrencyEngine, CurrencyOrderQuery,
    Options,
};
use data_currency::store::{DurableEngine, StoreOptions};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const T: RelId = RelId(0);
const SRC: RelId = RelId(1);
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

/// Draw one admissible delta against the current specification (the same
/// operation mix as the live-update differential suite: inserts,
/// retractions, id-oriented order edges, learned constraints, and copy
/// extensions with a mirrored source tuple).
fn random_delta(spec: &Specification, rng: &mut SmallRng) -> SpecDelta {
    let inst = spec.instance(T);
    let arity = inst.arity();
    let live: Vec<TupleId> = inst.tuples().map(|(id, _)| id).collect();
    let mut delta = SpecDelta::new();
    let pick = rng.gen_range(0..10u32);
    match pick {
        0..=3 => {
            let eid = Eid(rng.gen_range(0..3u64));
            let values: Vec<Value> = (0..arity)
                .map(|_| Value::int(rng.gen_range(0..2)))
                .collect();
            delta.insert_tuple(T, Tuple::new(eid, values));
        }
        4..=5 if !live.is_empty() => {
            let victim = live[rng.gen_range(0..live.len())];
            delta.remove_tuple(T, victim);
        }
        6..=7 => {
            let attr = AttrId(rng.gen_range(0..arity) as u32);
            let mut found = None;
            'outer: for (i, &u) in live.iter().enumerate() {
                for &v in &live[i + 1..] {
                    if inst.tuple(u).eid == inst.tuple(v).eid && !inst.order(attr).contains(u, v) {
                        found = Some((u, v));
                        break 'outer;
                    }
                }
            }
            if let Some((u, v)) = found {
                delta.add_order_edge(T, attr, u, v);
            } else {
                delta.insert_tuple(T, Tuple::new(Eid(0), vec![Value::int(0); arity]));
            }
        }
        8 => {
            let attr = AttrId(rng.gen_range(0..arity) as u32);
            let dc = DenialConstraint::builder(T, 2)
                .when_cmp(Term::attr(0, attr), CmpOp::Gt, Term::attr(1, attr))
                .then_order(1, attr, 0)
                .build()
                .expect("valid constraint");
            delta.add_constraint(dc);
        }
        _ => {
            let unmapped = live
                .iter()
                .copied()
                .find(|&t| spec.copies().len() == 1 && spec.copies()[0].mapping(t).is_none());
            if let Some(target) = unmapped {
                let t = inst.tuple(target).clone();
                let source_id = TupleId(spec.instance(SRC).len() as u32);
                delta
                    .insert_tuple(SRC, Tuple::new(Eid(t.eid.0 + 100), t.values.clone()))
                    .extend_copy(0, target, source_id);
            } else {
                delta.insert_tuple(T, Tuple::new(Eid(1), vec![Value::int(1); arity]));
            }
        }
    }
    if delta.is_empty() {
        delta.insert_tuple(T, Tuple::new(Eid(0), vec![Value::int(0); arity]));
    }
    delta
}

fn value_query(rel: RelId, arity: usize) -> Query {
    SpQuery::identity(rel, arity).to_query(arity)
}

/// Certain answers via the brute-force completion enumerator; `None` if
/// out of budget.
fn certain_by_enumeration(spec: &Specification, query: &Query) -> Option<CertainAnswers> {
    let mut acc: Option<BTreeSet<Vec<Value>>> = None;
    let count = for_each_consistent_completion(spec, ORACLE_BUDGET, |completion| {
        let dbs = data_currency::model::lst(spec, completion);
        let db = Database::new(&dbs);
        let answers: BTreeSet<Vec<Value>> = query.eval(&db).into_iter().collect();
        acc = Some(match acc.take() {
            None => answers,
            Some(prev) => prev.intersection(&answers).cloned().collect(),
        });
        true
    })
    .ok()?;
    Some(if count == 0 {
        CertainAnswers::Inconsistent
    } else {
        CertainAnswers::Answers(acc.unwrap_or_default().into_iter().collect())
    })
}

/// Assert the recovered durable engine, the never-restarted engine, and
/// (when affordable) the oracle agree on CPS, all-pairs COP, and certain
/// answers.
fn assert_agreement(
    durable: &DurableEngine,
    shadow: &CurrencyEngine,
    with_oracle: bool,
    seed: u64,
    step: usize,
) {
    assert_eq!(
        encode_spec(durable.spec()),
        encode_spec(shadow.spec()),
        "specs diverged: seed {seed} step {step}"
    );
    let cps = durable.cps().expect("in budget");
    assert_eq!(cps, shadow.cps().unwrap(), "CPS seed {seed} step {step}");
    let inst = durable.spec().instance(T);
    for a in 0..inst.arity() {
        let attr = AttrId(a as u32);
        for u in 0..inst.len() as u32 {
            for v in 0..inst.len() as u32 {
                let q = CurrencyOrderQuery::single(T, attr, TupleId(u), TupleId(v));
                assert_eq!(
                    durable.cop(&q).unwrap(),
                    shadow.cop(&q).unwrap(),
                    "COP seed {seed} step {step} {u} ≺ {v}"
                );
            }
        }
    }
    let q = value_query(T, inst.arity());
    let answers = durable.certain_answers(&q).expect("in budget");
    assert_eq!(
        answers,
        shadow.certain_answers(&q).unwrap(),
        "answers seed {seed} step {step}"
    );
    if with_oracle {
        if let Some(oracle) = certain_by_enumeration(durable.spec(), &q) {
            assert_eq!(answers, oracle, "answers oracle seed {seed} step {step}");
        }
        if let Some(oracle_cps) = {
            let mut found = false;
            for_each_consistent_completion(durable.spec(), ORACLE_BUDGET, |_| {
                found = true;
                false
            })
            .ok()
            .map(|_| found)
        } {
            assert_eq!(cps, oracle_cps, "CPS oracle seed {seed} step {step}");
        }
    }
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
        let delta = random_delta(&shadow, &mut rng);
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
        let delta = random_delta(&shadow, &mut rng);
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
            let delta = random_delta(shadow.spec(), &mut rng);
            durable.apply(&delta).expect("generated deltas are admissible");
            shadow.apply(&delta).expect("same delta, same verdict");
            if step == restart_at {
                // Interrupt: drop (flushes the group-commit buffer) and
                // recover from disk.
                drop(durable);
                durable = DurableEngine::open(&dir, &opts, store_opts)
                    .expect("clean files recover");
                prop_assert!(durable.stats().recoveries >= 1);
                assert_agreement(&durable, &shadow, true, seed, step);
            }
        }
        // Final restart after the full stream.
        drop(durable);
        let durable = DurableEngine::open(&dir, &opts, store_opts).expect("clean files recover");
        assert_agreement(&durable, &shadow, true, seed, n);
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
