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
//! 2. answer CPS, COP over every same-entity pair and the certain answers
//!    of the identity query exactly like a fresh `CurrencyEngine`
//!    compiled over its specification.
//!
//! One seed in [`PADDED_EVERY`] pads the source relation with enough
//! single-tuple entities that the instances, the partition and the slot
//! vector each span several pages.  A second case streams the same kind
//! of writes through the bench's large shape at [`LARGE_ENTITIES`]
//! entities, where every instance and copy map spans more than one
//! chunk of pages, so the page-table level is shared and copied too.
//!
//! `SEEDS` seeds in release (the 10k-seed differential), fewer under the
//! debug profile.  The seed range starts at `CHAOS_SEED` (default
//! `20260808`), so CI replays one pinned range.

use data_currency::datagen::random::{random_spec, RandomSpecConfig};
use data_currency::model::cow::PAGE_SIZE;
use data_currency::model::{
    wire, AttrId, Catalog, CmpOp, CopyFunction, CopySignature, DenialConstraint, Eid, RelId,
    RelationSchema, SpecDelta, Specification, Term, Tuple, TupleId, Value,
};
use data_currency::query::SpQuery;
use data_currency::reason::snapshot::{EngineSnapshot, SnapshotReader};
use data_currency::reason::{CompactBudget, CurrencyEngine, CurrencyOrderQuery, Options};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Seeds per run: the full 10k sweep in release, a slice under debug.
const SEEDS: u64 = if cfg!(debug_assertions) { 250 } else { 10_000 };

/// Every this many seeds, the source relation is padded past a page.
const PADDED_EVERY: u64 = 16;

/// Writes (deltas or compaction steps) per seed.
const STEPS: usize = 8;

/// Entities of the large case: ten readings each makes 20k tuples per
/// relation, past the 16 384 elements one chunk of pages spans.
const LARGE_ENTITIES: u64 = 2_000;

/// Seeds and writes per seed of the large case.
const LARGE_SEEDS: u64 = if cfg!(debug_assertions) { 1 } else { 4 };
const LARGE_STEPS: usize = if cfg!(debug_assertions) { 24 } else { 64 };

const T: RelId = RelId(0);
const SRC: RelId = RelId(1);

fn first_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_808)
}

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

/// One admissible delta against the writer's current specification.
fn random_delta(spec: &Specification, rng: &mut SmallRng) -> SpecDelta {
    let inst = spec.instance(T);
    let arity = inst.arity();
    let live: Vec<TupleId> = inst.tuples().map(|(id, _)| id).collect();
    let mut delta = SpecDelta::new();
    match rng.gen_range(0..10u32) {
        0..=3 => {
            let values = (0..arity)
                .map(|_| Value::int(rng.gen_range(0..2)))
                .collect();
            delta.insert_tuple(T, Tuple::new(Eid(rng.gen_range(0..4u64)), values));
        }
        4..=5 if live.len() > 1 => {
            delta.remove_tuple(T, live[rng.gen_range(0..live.len())]);
        }
        6..=7 => {
            // An id-oriented order fact stays acyclic.
            let attr = AttrId(rng.gen_range(0..arity) as u32);
            let pair = live.iter().enumerate().find_map(|(i, &u)| {
                live[i + 1..].iter().find_map(|&v| {
                    (inst.tuple(u).eid == inst.tuple(v).eid && !inst.order(attr).contains(u, v))
                        .then_some((u, v))
                })
            });
            if let Some((u, v)) = pair {
                delta.add_order_edge(T, attr, u, v);
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
            // Mirror an unmapped target tuple into the source and map it.
            let unmapped = live.iter().copied().find(|&t| {
                spec.copies()
                    .first()
                    .is_some_and(|cf| cf.mapping(t).is_none())
            });
            if let Some(target) = unmapped {
                let t = inst.tuple(target).clone();
                let source = TupleId(spec.instance(SRC).len() as u32);
                delta
                    .insert_tuple(SRC, Tuple::new(Eid(t.eid.0 + 100), t.values))
                    .extend_copy(0, target, source);
            }
        }
    }
    if delta.is_empty() {
        delta.insert_tuple(T, Tuple::new(Eid(0), vec![Value::int(1); arity]));
    }
    delta
}

/// The retained snapshot answers like a fresh engine over its spec.
fn assert_answers_like_fresh(snap: &Arc<EngineSnapshot>, seed: u64, epoch: u64) {
    let spec = snap.spec();
    let fresh = CurrencyEngine::new(spec, &Options::default()).expect("published specs are valid");
    let mut reader = SnapshotReader::new(snap.clone());
    let at = format!("seed {seed} epoch {epoch}");
    assert_eq!(reader.cps(), fresh.cps().unwrap(), "CPS, {at}");
    let inst = spec.instance(T);
    for (_, group) in inst.entity_groups() {
        for &u in group {
            for &v in group {
                for a in 0..inst.arity() {
                    let q = CurrencyOrderQuery::single(T, AttrId(a as u32), u, v);
                    assert_eq!(
                        reader.cop(&q).unwrap(),
                        fresh.cop(&q).unwrap(),
                        "COP {u:?} ≺ {v:?} on attr {a}, {at}"
                    );
                }
            }
        }
    }
    let q = SpQuery::identity(T, inst.arity()).to_query(inst.arity());
    assert_eq!(
        reader.certain_answers(&q).unwrap(),
        fresh.certain_answers(&q).unwrap(),
        "certain answers, {at}"
    );
}

#[test]
fn every_published_epoch_stays_frozen() {
    let budget = CompactBudget {
        max_pause: Duration::from_secs(60),
        max_slots_per_step: 2,
    };
    let first = first_seed();
    for seed in first..first + SEEDS {
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
                let delta = random_delta(writer.spec(), &mut rng);
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
            assert_answers_like_fresh(snap, seed, snap.epoch());
        }
    }
}

/// The bench's large shape: `entities` target entities of ten increasing
/// readings, each copied from a mirrored source reading, and a monotone
/// constraint on the target.
fn large_spec(entities: u64) -> Specification {
    let mut cat = Catalog::new();
    let t = cat.add(RelationSchema::new("T", &["V"]));
    let s = cat.add(RelationSchema::new("S", &["V"]));
    let mut spec = Specification::new(cat);
    let sig = CopySignature::new(t, vec![AttrId(0)], s, vec![AttrId(0)]).expect("signature");
    let mut cf = CopyFunction::new(sig);
    for e in 0..entities {
        for v in 0..10 {
            let reading = || Tuple::new(Eid(e), vec![Value::int(v)]);
            let tt = spec.instance_mut(t).push_tuple(reading()).expect("arity");
            let ts = spec.instance_mut(s).push_tuple(reading()).expect("arity");
            cf.set_mapping(tt, ts);
        }
    }
    let dc = DenialConstraint::builder(t, 2)
        .when_cmp(
            Term::attr(0, AttrId(0)),
            CmpOp::Gt,
            Term::attr(1, AttrId(0)),
        )
        .then_order(1, AttrId(0), 0)
        .build()
        .expect("valid constraint");
    spec.add_constraint(dc).expect("constraint applies");
    spec.add_copy(cf).expect("copying condition holds");
    spec
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
    let base = large_spec(LARGE_ENTITIES);
    assert!(base.instance(T).len() > PAGE_SIZE * PAGE_SIZE);
    let budget = CompactBudget {
        max_pause: Duration::from_secs(60),
        max_slots_per_step: 64,
    };
    let first = first_seed();
    for seed in first..first + LARGE_SEEDS {
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
