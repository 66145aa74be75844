//! Differential testing of the **live** [`CurrencyEngine`]: after every
//! applied delta, the incrementally updated engine must agree with a
//! freshly built engine *and* the brute-force completion-enumeration
//! oracle on the post-delta specification — verdicts (CPS), certain
//! orders (COP over every pair), certain answers, and realizable
//! current-instance counts.
//!
//! Update streams are seeded: each step draws one operation (tuple
//! insert, tuple removal, order edge, new constraint, or copy extension
//! with a mirrored source tuple) from the same generator space the other
//! differential sweeps use.  Order edges are oriented by tuple id, so
//! initial orders stay acyclic by construction and every generated delta
//! is admissible.

use data_currency::datagen::random::{random_spec, RandomSpecConfig};
use data_currency::model::{AttrId, Eid, RelId, SpecDelta, Specification, Tuple, TupleId, Value};
use data_currency::query::{Database, Query, SpQuery};
use data_currency::reason::{
    enumerate::for_each_consistent_completion, CertainAnswers, CurrencyEngine, CurrencyOrderQuery,
    Options,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const T: RelId = RelId(0);
const SRC: RelId = RelId(1);
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

fn value_query(rel: RelId, arity: usize) -> Query {
    SpQuery::identity(rel, arity).to_query(arity)
}

/// Draw one admissible delta against the current specification.
fn random_delta(spec: &Specification, rng: &mut SmallRng) -> SpecDelta {
    let inst = spec.instance(T);
    let arity = inst.arity();
    let live: Vec<TupleId> = inst.tuples().map(|(id, _)| id).collect();
    let mut delta = SpecDelta::new();
    let pick = rng.gen_range(0..10u32);
    match pick {
        // Insert a fresh reading (possibly for a brand-new entity).
        0..=3 => {
            let eid = Eid(rng.gen_range(0..3u64));
            let values: Vec<Value> = (0..arity)
                .map(|_| Value::int(rng.gen_range(0..2)))
                .collect();
            delta.insert_tuple(T, Tuple::new(eid, values));
        }
        // Retract a reading.
        4..=5 if !live.is_empty() => {
            let victim = live[rng.gen_range(0..live.len())];
            delta.remove_tuple(T, victim);
        }
        // Learn an initial-order fact (id-oriented, hence acyclic).
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
        // Learn a new currency constraint.
        8 => {
            let attr = AttrId(rng.gen_range(0..arity) as u32);
            let dc = data_currency::model::DenialConstraint::builder(T, 2)
                .when_cmp(
                    data_currency::model::Term::attr(0, attr),
                    data_currency::model::CmpOp::Gt,
                    data_currency::model::Term::attr(1, attr),
                )
                .then_order(1, attr, 0)
                .build()
                .expect("valid constraint");
            delta.add_constraint(dc);
        }
        // Extend the copy function: mirror a target tuple into the source
        // (same values, shifted entity — the generator's own convention)
        // and record the mapping; both ops ride in one delta.
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
        // Retraction drawn against an empty relation: insert instead.
        delta.insert_tuple(T, Tuple::new(Eid(0), vec![Value::int(0); arity]));
    }
    delta
}

/// Certain answers via the brute-force completion enumerator; `None` if
/// the candidate space exceeds the budget.
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

/// CPS via the oracle; `None` if out of budget.
fn cps_by_enumeration(spec: &Specification) -> Option<bool> {
    let mut found = false;
    for_each_consistent_completion(spec, ORACLE_BUDGET, |_| {
        found = true;
        false
    })
    .ok()?;
    Some(found)
}

/// Assert the updated engine, a fresh engine, and (when affordable) the
/// oracle agree on everything for the engine's current specification.
fn assert_agreement(engine: &CurrencyEngine, with_oracle: bool, seed: u64, step: usize) {
    let spec = engine.spec();
    let fresh = CurrencyEngine::new(spec, &Options::default()).expect("valid updated spec");
    // CPS.
    let cps = engine.cps().expect("in budget");
    assert_eq!(cps, fresh.cps().unwrap(), "CPS seed {seed} step {step}");
    if with_oracle {
        if let Some(oracle) = cps_by_enumeration(spec) {
            assert_eq!(cps, oracle, "CPS oracle seed {seed} step {step}");
        }
    }
    // COP over every pair of the target relation.
    let inst = spec.instance(T);
    for a in 0..inst.arity() {
        let attr = AttrId(a as u32);
        for u in 0..inst.len() as u32 {
            for v in 0..inst.len() as u32 {
                let q = CurrencyOrderQuery::single(T, attr, TupleId(u), TupleId(v));
                assert_eq!(
                    engine.cop(&q).unwrap(),
                    fresh.cop(&q).unwrap(),
                    "COP seed {seed} step {step} attr {attr:?} {u} ≺ {v}"
                );
            }
        }
    }
    // Certain answers and model counts.
    let q = value_query(T, inst.arity());
    let engine_answers = engine.certain_answers(&q).expect("in budget");
    assert_eq!(
        engine_answers,
        fresh.certain_answers(&q).unwrap(),
        "answers seed {seed} step {step}"
    );
    if with_oracle {
        if let Some(oracle) = certain_by_enumeration(spec, &q) {
            assert_eq!(
                engine_answers, oracle,
                "answers oracle seed {seed} step {step}"
            );
        }
    }
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
    random_delta(spec, rng)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn update_stream_agrees_with_fresh_engine_and_oracle(seed in 0u64..10_000) {
        let spec = random_spec(&config(seed));
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        for step in 0..4usize {
            let delta = random_delta(engine.spec(), &mut rng);
            let report = engine.apply(&delta).expect("generated deltas are admissible");
            prop_assert!(report.components_rebuilt + report.components_reused >= 1);
            assert_agreement(&engine, true, seed, step);
        }
        prop_assert_eq!(engine.stats().updates_applied, 4);
    }

    #[test]
    fn update_stream_agrees_on_wider_specs(seed in 0u64..10_000) {
        let spec = random_spec(&wide_config(seed));
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0xC2B2_AE35));
        for step in 0..4usize {
            let delta = random_delta(engine.spec(), &mut rng);
            engine.apply(&delta).expect("generated deltas are admissible");
            assert_agreement(&engine, false, seed, step);
        }
    }

    // Churn + compaction: after every `compact()` the engine (remapped
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
                let report = engine.compact().expect("compaction succeeds");
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
                assert_agreement(&engine, true, seed, step);
            }
        }
        // The compacted engine keeps accepting deltas afterwards.
        let delta = random_churn_delta(engine.spec(), &mut rng);
        engine.apply(&delta).expect("post-compaction delta");
        assert_agreement(&engine, true, seed, 99);
    }

    #[test]
    fn cached_state_survives_updates_without_drift(seed in 0u64..10_000) {
        // Warm the engine (queries populate caches and learnt clauses),
        // then update and re-query: cached state from before the delta
        // must never leak into post-delta answers.
        let spec = random_spec(&wide_config(seed));
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        let arity = engine.spec().instance(T).arity();
        let q = value_query(T, arity);
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
        assert_agreement(&engine, false, seed, 0);
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
            let delta = random_delta(engine.spec(), &mut rng);
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
