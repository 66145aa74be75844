//! Epoch isolation of the writer's copy-on-write snapshots.
//!
//! `CurrencyEngine` shares its specification, partition and slot vector
//! with every snapshot it takes, page by page (`currency_core::cow`):
//! a write must copy a shared page before touching it.  A page written
//! in place would silently change an epoch readers already hold.
//!
//! Each seed streams random deltas and budgeted compaction steps through
//! one writer and retains **every** published snapshot together with the
//! wire encoding of its specification taken at publish time.  At the end
//! every retained snapshot must
//!
//! 1. re-encode byte-identically (nothing it shares was written since), and
//! 2. answer like a fresh `CurrencyEngine` compiled over its
//!    specification (the shared agreement check of `reason::oracle`:
//!    CPS, COP, DCIP and certain answers on every relation).
//!
//! One seed in [`PADDED_EVERY`] pads the source relation with enough
//! single-tuple entities that the instances, the partition and the slot
//! vector each span several pages.  A second case streams the same kind
//! of writes through the bench's large shape at [`LARGE_ENTITIES`]
//! entities, where every instance and copy map spans more than one
//! chunk of pages, so the page-table level is shared and copied too.
//!
//! 10k seeds in release, fewer under the debug profile, drawn from the
//! shared generator and seed range (`datagen::random`), so CI replays
//! one pinned range.

use currency_bench::scenarios::large_spec;
use data_currency::datagen::random::{
    pinned_seeds, random_delta, random_spec, DeltaMix, RandomSpecConfig,
};
use data_currency::model::cow::PAGE_SIZE;
use data_currency::model::{
    wire, AttrId, Eid, RelId, SpecDelta, Specification, Tuple, TupleId, Value,
};
use data_currency::reason::oracle::assert_agreement;
use data_currency::reason::snapshot::SnapshotReader;
use data_currency::reason::{CompactBudget, CurrencyEngine, Options};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Every this many seeds, the source relation is padded past a page.
const PADDED_EVERY: u64 = 16;

/// Writes (deltas or compaction steps) per seed.
const STEPS: usize = 8;

/// Entities of the large case: ten readings each makes 20k tuples per
/// relation, past the 16 384 elements one chunk of pages spans.
const LARGE_ENTITIES: u64 = 2_000;

/// Writes per seed of the large case.
const LARGE_STEPS: usize = if cfg!(debug_assertions) { 24 } else { 64 };

const T: RelId = RelId(0);
const SRC: RelId = RelId(1);

/// Every operation kind, inserts over four entities.
const MIX: DeltaMix = DeltaMix {
    entities: 4,
    ..DeltaMix::UPDATES
};

fn spec_for(seed: u64) -> Specification {
    let mut spec = random_spec(&RandomSpecConfig {
        entities: 3,
        tuples_per_entity: (1, 3),
        attrs: 2,
        value_pool: 2,
        order_density: 0.25,
        monotone_constraints: 1,
        correlated_constraints: (seed % 2) as usize,
        with_copy: true,
        seed,
    });
    if seed.is_multiple_of(PADDED_EVERY) {
        let arity = spec.instance(SRC).arity();
        for e in 0..PAGE_SIZE as u64 + 20 {
            spec.instance_mut(SRC)
                .push_tuple(Tuple::new(Eid(10_000 + e), vec![Value::int(0); arity]))
                .expect("arity");
        }
    }
    spec
}

#[test]
fn every_published_epoch_stays_frozen() {
    let budget = CompactBudget {
        max_pause: Duration::from_secs(60),
        max_slots_per_step: 2,
    };
    for seed in pinned_seeds(250, 10_000) {
        let mut writer = CurrencyEngine::new_owned(spec_for(seed), &Options::default()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut retained = Vec::new();
        let mut retain = |writer: &mut CurrencyEngine| {
            let snap = writer.snapshot();
            let bytes = wire::encode_spec(snap.spec());
            retained.push((snap, bytes));
        };
        retain(&mut writer);
        for _ in 0..STEPS {
            let epoch = writer.epoch();
            if rng.gen_range(0..4u32) == 0 {
                writer.compact_step(&budget).expect("compaction step");
            } else {
                let delta = random_delta(&[writer.spec()], &MIX, &mut rng);
                writer
                    .apply(&delta)
                    .expect("generated deltas are admissible");
            }
            if writer.epoch() != epoch {
                retain(&mut writer);
            }
        }
        for (snap, bytes) in &retained {
            assert!(
                wire::encode_spec(snap.spec()) == *bytes,
                "seed {seed}: epoch {} changed after publication",
                snap.epoch()
            );
            let at = format!("seed {seed} epoch {}", snap.epoch());
            assert_agreement(&mut SnapshotReader::new(snap.clone()), snap.spec(), 0, &at);
        }
    }
}

/// One admissible delta on a random entity of the large shape.
fn large_delta(spec: &Specification, rng: &mut SmallRng) -> SpecDelta {
    let inst = spec.instance(T);
    let eid = Eid(rng.gen_range(0..LARGE_ENTITIES));
    let group = inst.entity_group(eid);
    let source_group = spec.instance(SRC).entity_group(eid);
    let mut delta = SpecDelta::new();
    match rng.gen_range(0..10u32) {
        0..=3 => {
            delta.insert_tuple(T, Tuple::new(eid, vec![Value::int(rng.gen_range(0..20))]));
        }
        4 | 5 if group.len() > 1 => {
            delta.remove_tuple(T, group[rng.gen_range(0..group.len())]);
        }
        6 if !source_group.is_empty() => {
            delta.remove_tuple(SRC, source_group[rng.gen_range(0..source_group.len())]);
        }
        7 | 8 => {
            // Mirror an unmapped reading into the source and map it.
            let unmapped = group
                .iter()
                .copied()
                .find(|&t| spec.copies()[0].mapping(t).is_none());
            if let Some(target) = unmapped {
                let source = TupleId(spec.instance(SRC).len() as u32);
                delta
                    .insert_tuple(SRC, inst.tuple(target).clone())
                    .extend_copy(0, target, source);
            }
        }
        _ => {
            // An order fact the monotone constraint already implies.
            let value = |t: TupleId| inst.tuple(t).values[0].clone();
            let pair = group.iter().find_map(|&u| {
                group.iter().find_map(|&v| {
                    (value(u) < value(v) && !inst.order(AttrId(0)).contains(u, v)).then_some((u, v))
                })
            });
            if let Some((u, v)) = pair {
                delta.add_order_edge(T, AttrId(0), u, v);
            }
        }
    }
    if delta.is_empty() {
        delta.insert_tuple(T, Tuple::new(eid, vec![Value::int(0)]));
    }
    delta
}

#[test]
fn large_spec_epochs_stay_frozen_across_chunks() {
    let base = large_spec(LARGE_ENTITIES as usize);
    assert!(base.instance(T).len() > PAGE_SIZE * PAGE_SIZE);
    let budget = CompactBudget {
        max_pause: Duration::from_secs(60),
        max_slots_per_step: 64,
    };
    for seed in pinned_seeds(1, 4) {
        let mut writer =
            CurrencyEngine::with_value_rels_owned(base.clone(), &[], &Options::default()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut retained = vec![(writer.snapshot(), wire::encode_spec(writer.spec()))];
        for _ in 0..LARGE_STEPS {
            let epoch = writer.epoch();
            if rng.gen_range(0..6u32) == 0 {
                writer.compact_step(&budget).expect("compaction step");
            } else {
                let delta = large_delta(writer.spec(), &mut rng);
                writer
                    .apply(&delta)
                    .expect("generated deltas are admissible");
            }
            if writer.epoch() != epoch {
                retained.push((writer.snapshot(), wire::encode_spec(writer.spec())));
            }
        }
        for (snap, bytes) in &retained {
            assert!(
                wire::encode_spec(snap.spec()) == *bytes,
                "seed {seed}: epoch {} changed after publication",
                snap.epoch()
            );
        }
        let (last, _) = retained.last().expect("the first epoch is retained");
        let fresh = CurrencyEngine::new(last.spec(), &Options::default()).unwrap();
        assert_eq!(
            SnapshotReader::new(last.clone()).cps(),
            fresh.cps().unwrap()
        );
    }
}
