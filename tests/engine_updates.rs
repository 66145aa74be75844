//! Differential testing of the **live** [`CurrencyEngine`]: after every
//! applied delta, the incrementally updated engine must agree with a
//! freshly built engine *and* the brute-force completion-enumeration
//! oracle on the post-delta specification — verdicts (CPS), certain
//! orders (COP over every pair), certain answers, and realizable
//! current-instance counts.
//!
//! Update streams are seeded draws of every operation kind from the
//! shared generator (`datagen::random::random_delta`); the checks are
//! the shared agreement check (`reason::oracle`).

use data_currency::datagen::random::{random_delta, random_spec, DeltaMix, RandomSpecConfig};
use data_currency::model::{Eid, RelId, SpecDelta, Specification, Tuple, TupleId, Value};
use data_currency::query::SpQuery;
use data_currency::reason::oracle::assert_agreement;
use data_currency::reason::{CompactBudget, CurrencyEngine, Options};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const T: RelId = RelId(0);
const ORACLE_BUDGET: usize = 2_000_000;

/// Small shapes so the factorial-cost oracle stays in budget even after
/// a few inserts.
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

/// Larger shapes for the engine-vs-fresh sweep (no oracle).
fn wide_config(seed: u64) -> RandomSpecConfig {
    RandomSpecConfig {
        entities: 3,
        tuples_per_entity: (1, 3),
        attrs: 2,
        value_pool: 2,
        order_density: 0.25,
        monotone_constraints: 1,
        correlated_constraints: (seed % 2) as usize,
        with_copy: true,
        seed,
    }
}

fn next_delta(spec: &Specification, rng: &mut SmallRng) -> SpecDelta {
    random_delta(&[spec], &DeltaMix::UPDATES, rng)
}

/// The updated engine agrees with a fresh engine (and, within `oracle`
/// candidates, the enumeration oracle) on every query, and realizes as
/// many current instances of `T`.
fn check(engine: &CurrencyEngine, oracle: usize, seed: u64, step: usize) {
    let spec = engine.spec();
    assert_agreement(
        &mut &*engine,
        spec,
        oracle,
        &format!("seed {seed} step {step}"),
    );
    let fresh = CurrencyEngine::new(spec, &Options::default()).expect("valid updated spec");
    assert_eq!(
        engine.current_instances(T).unwrap().len(),
        fresh.current_instances(T).unwrap().len(),
        "model count seed {seed} step {step}"
    );
}

/// A churn-biased delta: prefer retractions (every one leaves a tombstone
/// slot) so compaction has something to reclaim; fall back to the general
/// generator otherwise.
fn random_churn_delta(spec: &Specification, rng: &mut SmallRng) -> SpecDelta {
    let live: Vec<TupleId> = spec.instance(T).tuples().map(|(id, _)| id).collect();
    if live.len() > 1 && rng.gen_range(0..2u32) == 0 {
        let victim = live[rng.gen_range(0..live.len())];
        let mut delta = SpecDelta::new();
        delta.remove_tuple(T, victim);
        return delta;
    }
    next_delta(spec, rng)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn update_stream_agrees_with_fresh_engine_and_oracle(seed in 0u64..10_000) {
        let spec = random_spec(&config(seed));
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        for step in 0..4usize {
            let delta = next_delta(engine.spec(), &mut rng);
            let report = engine.apply(&delta).expect("generated deltas are admissible");
            prop_assert!(report.components_rebuilt + report.components_reused >= 1);
            check(&engine, ORACLE_BUDGET, seed, step);
        }
        prop_assert_eq!(engine.stats().updates_applied, 4);
    }

    #[test]
    fn update_stream_agrees_on_wider_specs(seed in 0u64..10_000) {
        let spec = random_spec(&wide_config(seed));
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xC2B2_AE35));
        for step in 0..4usize {
            let delta = next_delta(engine.spec(), &mut rng);
            engine.apply(&delta).expect("generated deltas are admissible");
            check(&engine, 0, seed, step);
        }
    }

    // Churn + compaction: after every unbounded step the engine (remapped
    // ids, rebuilt components) must agree with a fresh engine *and* the
    // enumeration oracle on CPS, all-pairs COP, certain answers, and
    // model counts — and the tuple vectors must actually have shrunk.
    #[test]
    fn churn_then_compact_agrees_with_fresh_engine_and_oracle(seed in 0u64..10_000) {
        let spec = random_spec(&config(seed));
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64));
        for step in 0..5usize {
            let delta = random_churn_delta(engine.spec(), &mut rng);
            engine.apply(&delta).expect("generated deltas are admissible");
            if step % 2 == 1 {
                let tombstones: usize = engine
                    .spec()
                    .instances()
                    .iter()
                    .map(|i| i.tombstones())
                    .sum();
                let slots_before: usize =
                    engine.spec().instances().iter().map(|i| i.len()).sum();
                let report = engine.compact_step(&CompactBudget::UNBOUNDED).expect("compaction succeeds");
                prop_assert_eq!(report.reclaimed, tombstones, "seed {}", seed);
                let slots_after: usize =
                    engine.spec().instances().iter().map(|i| i.len()).sum();
                prop_assert_eq!(
                    slots_after, slots_before - tombstones,
                    "tuple vectors shrink by exactly the tombstone count (seed {})", seed
                );
                for inst in engine.spec().instances() {
                    prop_assert_eq!(inst.tombstones(), 0, "seed {}", seed);
                    prop_assert_eq!(inst.len(), inst.live_len(), "seed {}", seed);
                }
                check(&engine, ORACLE_BUDGET, seed, step);
            }
        }
        // The compacted engine keeps accepting deltas afterwards.
        let delta = random_churn_delta(engine.spec(), &mut rng);
        engine.apply(&delta).expect("post-compaction delta");
        check(&engine, ORACLE_BUDGET, seed, 99);
    }

    #[test]
    fn cached_state_survives_updates_without_drift(seed in 0u64..10_000) {
        // Warm the engine (queries populate caches and learnt clauses),
        // then update and re-query: cached state from before the delta
        // must never leak into post-delta answers.
        let spec = random_spec(&wide_config(seed));
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        let arity = engine.spec().instance(T).arity();
        let q = SpQuery::identity(T, arity).to_query(arity);
        let _ = engine.cps().unwrap();
        let _ = engine.certain_answers(&q).unwrap();
        // A guaranteed component-local delta: one fresh reading for an
        // existing entity.
        let components_before = engine.stats().components;
        let mut delta = SpecDelta::new();
        delta.insert_tuple(T, Tuple::new(Eid(0), vec![Value::int(0); arity]));
        let report = engine.apply(&delta).expect("admissible");
        prop_assert_eq!(report.components_rebuilt, 1, "seed {}", seed);
        // Every other component survived with its caches; the agreement
        // check proves the reuse is sound.
        prop_assert_eq!(report.components_reused, components_before - 1, "seed {}", seed);
        check(&engine, 0, seed, 0);
    }
}

#[test]
fn update_stream_reaches_every_operation_kind() {
    // Sanity-check the delta generator's distribution: across a few
    // streams every operation kind must actually occur.
    let mut saw = [false; 5];
    for seed in 0..40u64 {
        let spec = random_spec(&config(seed));
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        for _ in 0..4 {
            let delta = next_delta(engine.spec(), &mut rng);
            for op in delta.ops() {
                use data_currency::model::DeltaOp;
                match op {
                    DeltaOp::InsertTuple { .. } => saw[0] = true,
                    DeltaOp::RemoveTuple { .. } => saw[1] = true,
                    DeltaOp::AddOrderEdge { .. } => saw[2] = true,
                    DeltaOp::AddConstraint(_) => saw[3] = true,
                    DeltaOp::ExtendCopy { .. } => saw[4] = true,
                    DeltaOp::AddCopy(_) => {}
                }
            }
            engine.apply(&delta).expect("admissible");
        }
    }
    assert_eq!(
        saw, [true; 5],
        "insert/remove/order/constraint/extend all drawn"
    );
}
