//! Shared benchmark scenarios, used by the `bench_engine` binary and the
//! repository benchmark (`perfbench/`).

use currency_core::{
    AttrId, Catalog, CopyFunction, CopySignature, Eid, RelId, RelationSchema, SpecDelta,
    Specification, Tuple, TupleId, Value,
};
use currency_datagen::random::{monotone, random_spec, RandomSpecConfig};
use currency_query::{Query, SpQuery};
#[cfg(feature = "oracle")]
use currency_reason::encode::{Bounds, Encoding, SolveResult};
#[cfg(feature = "oracle")]
use currency_reason::oracle::TransitivityMode;
use currency_reason::{CurrencyEngine, CurrencyOrderQuery, Options};
use currency_serve::ServeRequest;

/// The target relation of the generated workloads.
pub const T: RelId = RelId(0);
/// COP queries per amortized-workload iteration.
pub const N_COP: usize = 32;

/// A **consistent** multi-entity specification for the amortized
/// repeated-query workload (asserted: an inconsistent spec would measure
/// only the vacuous-truth path).
pub fn amortized_spec(entities: usize) -> Specification {
    let spec = random_spec(&RandomSpecConfig {
        entities,
        tuples_per_entity: (2, 3),
        attrs: 2,
        value_pool: 4,
        order_density: 0.0,
        monotone_constraints: 2,
        correlated_constraints: 1,
        with_copy: true,
        seed: 7,
    });
    assert!(
        currency_reason::cps(&spec).expect("valid spec"),
        "bench spec must be consistent — an inconsistent one measures \
         only the vacuous-truth path"
    );
    spec
}

/// The amortized workload's COP query batch: [`N_COP`] single-pair
/// queries over ordered same-entity pairs, spread evenly across the
/// entities with the attribute alternating, so every query reaches its
/// component (a cross-entity pair is answered `false` before any
/// lookup).  Query 0 is `(A0, t0, t1)`, a pair level zero leaves open:
/// `bench_engine`'s interrupted-COP guard needs it to solve.
pub fn amortized_cop_queries(spec: &Specification) -> Vec<CurrencyOrderQuery> {
    let pairs: Vec<(TupleId, TupleId)> = spec
        .instance(T)
        .entity_groups()
        .flat_map(|(_, group)| {
            group
                .iter()
                .flat_map(move |&u| group.iter().filter(move |&&v| v != u).map(move |&v| (u, v)))
        })
        .collect();
    (0..N_COP)
        .map(|i| {
            let (lesser, greater) = pairs[i * pairs.len() / N_COP];
            CurrencyOrderQuery::single(T, AttrId(i as u32 % 2), lesser, greater)
        })
        .collect()
}

/// The amortized workload's CCQA identity query.
pub fn amortized_ccqa_query(spec: &Specification) -> Query {
    SpQuery::identity(T, spec.instance(T).arity()).to_query(spec.instance(T).arity())
}

/// The update workload's delta: one fresh reading for entity 0 of the
/// target relation.  Component-local by construction — entity 0's cell
/// (merged with its copy sources, if any) is the only thing it touches —
/// so a correct incremental engine rebuilds exactly one component.
pub fn update_insert_delta(spec: &Specification) -> SpecDelta {
    let arity = spec.instance(T).arity();
    let mut delta = SpecDelta::new();
    delta.insert_tuple(
        T,
        Tuple::new(Eid(0), (0..arity).map(|a| Value::int(a as i64)).collect()),
    );
    delta
}

/// The retraction paired with [`update_insert_delta`], keeping the
/// workload steady-state so measurement iterations don't grow the spec.
pub fn update_remove_delta(rel: RelId, id: TupleId) -> SpecDelta {
    let mut delta = SpecDelta::new();
    delta.remove_tuple(rel, id);
    delta
}

/// Tuples — and copy mappings — per entity of [`large_spec`].
pub const LARGE_TUPLES_PER_ENTITY: usize = 10;

/// The large-scale scenario: `entities` target entities with
/// [`LARGE_TUPLES_PER_ENTITY`] strictly-increasing readings each, every
/// reading copied from a mirrored source entity (one copy function with
/// `entities × 10` mappings, so each component spans one target cell +
/// one source cell and carries ~90 compatibility obligations), plus a
/// monotone constraint on the target.  Consistent by construction (the
/// value order is the single completion per component).
///
/// This is the regime where any per-apply O(spec) cost — full
/// cell→component index rebuilds, whole-mapping-set grouping, per-removal
/// mapping scans — dominates a delta; the "large" bench section drives a
/// single-entity delta against it at 1× and 4× scale and demands a flat
/// per-delta time.
pub fn large_spec(entities: usize) -> Specification {
    let mut cat = Catalog::new();
    let t = cat.add(RelationSchema::new("T", &["V"]));
    let s = cat.add(RelationSchema::new("S", &["V"]));
    let mut spec = Specification::new(cat);
    let sig = CopySignature::new(t, vec![AttrId(0)], s, vec![AttrId(0)]).expect("signature");
    let mut cf = CopyFunction::new(sig);
    for e in 0..entities as u64 {
        for v in 0..LARGE_TUPLES_PER_ENTITY {
            let tt = spec
                .instance_mut(t)
                .push_tuple(Tuple::new(Eid(e), vec![Value::int(v as i64)]))
                .expect("arity");
            let ts = spec
                .instance_mut(s)
                .push_tuple(Tuple::new(Eid(e), vec![Value::int(v as i64)]))
                .expect("arity");
            cf.set_mapping(tt, ts);
        }
    }
    let dc = monotone(t, AttrId(0));
    spec.add_constraint(dc).expect("constraint applies");
    spec.add_copy(cf).expect("copying condition holds");
    spec
}

/// Tuples per target entity of [`sharded_spec`].
pub const SHARDED_TUPLES_PER_ENTITY: usize = 3;

/// The scale-out scenario: the same two-relation mirrored shape as
/// [`large_spec`] but lean per entity ([`SHARDED_TUPLES_PER_ENTITY`]
/// readings instead of 10), so the *entity count* — the quantity
/// sharding distributes — can reach the 100k+ regime while each
/// per-entity component stays small.  Consistent by construction for
/// the same reason as [`large_spec`], and [`large_insert_delta`]
/// applies unchanged (entity 0 exists in every size).
pub fn sharded_spec(entities: usize) -> Specification {
    let mut cat = Catalog::new();
    let t = cat.add(RelationSchema::new("T", &["V"]));
    let s = cat.add(RelationSchema::new("S", &["V"]));
    let mut spec = Specification::new(cat);
    let sig = CopySignature::new(t, vec![AttrId(0)], s, vec![AttrId(0)]).expect("signature");
    let mut cf = CopyFunction::new(sig);
    for e in 0..entities as u64 {
        for v in 0..SHARDED_TUPLES_PER_ENTITY {
            let tt = spec
                .instance_mut(t)
                .push_tuple(Tuple::new(Eid(e), vec![Value::int(v as i64)]))
                .expect("arity");
            let ts = spec
                .instance_mut(s)
                .push_tuple(Tuple::new(Eid(e), vec![Value::int(v as i64)]))
                .expect("arity");
            cf.set_mapping(tt, ts);
        }
    }
    let dc = monotone(t, AttrId(0));
    spec.add_constraint(dc).expect("constraint applies");
    spec.add_copy(cf).expect("copying condition holds");
    spec
}

/// The large workload's delta: one fresh most-current reading for target
/// entity 0 — component-local (entity 0's target cell merged with its
/// mirrored source cell), unmapped, value above every existing reading.
pub fn large_insert_delta() -> SpecDelta {
    let mut delta = SpecDelta::new();
    delta.insert_tuple(T, Tuple::new(Eid(0), vec![Value::int(1_000_000)]));
    delta
}

/// The serve workload's request pool: the amortized COP batch as
/// canonicalized [`ServeRequest`]s.  Every reader thread cycles the
/// *same* pool, so after each epoch's first pass the answers come from
/// the shared epoch-keyed cache — which is exactly the read-mostly
/// serving regime the qps numbers are about.
pub fn serve_request_pool(spec: &Specification) -> Vec<ServeRequest> {
    amortized_cop_queries(spec)
        .into_iter()
        .map(ServeRequest::Cop)
        .collect()
}

/// One entity group of `n` tuples with strictly increasing values and a
/// monotone denial constraint — consistent (the value order is the one
/// completion), and every pair is constrained, so nothing short-circuits.
/// This is the large-entity-group regime where eager transitivity
/// grounding pays `n·(n-1)·(n-2)` clauses while the lazy closure walk
/// typically grounds none.
pub fn big_group_spec(n: usize) -> Specification {
    let mut cat = Catalog::new();
    let r = cat.add(RelationSchema::new("R", &["A"]));
    let mut spec = Specification::new(cat);
    for i in 0..n {
        spec.instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(i as i64)]))
            .expect("arity");
    }
    let dc = monotone(r, AttrId(0));
    spec.add_constraint(dc).expect("constraint applies");
    spec
}

/// The scaling workload: build an engine over [`big_group_spec`], decide
/// CPS, and answer one certain COP query.  Returns the engine so callers
/// can read its stats.
pub fn big_group_workload(spec: &Specification) -> CurrencyEngine {
    let opts = Options {
        threads: 1,
        ..Options::default()
    };
    let engine = CurrencyEngine::with_value_rels(spec, &[], &opts).expect("valid spec");
    assert!(engine.cps().expect("in budget"), "spec is consistent");
    let q = CurrencyOrderQuery::single(T, AttrId(0), TupleId(0), TupleId(1));
    assert!(engine.cop(&q).expect("in budget"), "0 ≺ 1 is forced");
    engine
}

/// The scaling workload's eager contrast: the same CPS and COP on one
/// whole-specification reference encoding with every transitivity
/// triangle grounded up front.  Returns the encoding so callers can
/// read its counts.
#[cfg(feature = "oracle")]
pub fn big_group_eager(spec: &Specification) -> Encoding {
    let mut enc = Encoding::whole_spec(spec, &[], TransitivityMode::Eager).expect("valid spec");
    let unbounded = Bounds::default();
    assert_eq!(
        enc.solve(&[], &unbounded),
        Ok(SolveResult::Sat),
        "spec is consistent"
    );
    let l = enc
        .order_lit(T, AttrId(0), TupleId(0), TupleId(1))
        .expect("a constrained pair");
    let refuted = enc.solve(&[!l], &unbounded);
    assert_eq!(refuted, Ok(SolveResult::Unsat), "0 ≺ 1 is forced");
    enc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_group_spec_is_consistent_and_scaling_workload_runs() {
        let spec = big_group_spec(8);
        let engine = big_group_workload(&spec);
        assert_eq!(engine.partition().len(), 1, "one entity, one component");
        #[cfg(feature = "oracle")]
        {
            let eager = big_group_eager(&spec);
            assert_eq!(eager.num_vars(), engine.stats().vars);
            // Eager grounding leaves no group to the closure check; a lazy
            // build of the same spec has one.  (Level zero satisfies every
            // triangle here, so the solver stores none of them.)
            assert!(eager.shape().lazy_groups.is_empty());
            let lazy = Encoding::whole_spec(&spec, &[], TransitivityMode::Lazy).unwrap();
            assert!(!lazy.shape().lazy_groups.is_empty());
        }
    }

    #[test]
    fn amortized_spec_shapes_hold() {
        for entities in [8, 32] {
            let spec = amortized_spec(entities);
            let queries = amortized_cop_queries(&spec);
            assert_eq!(queries.len(), N_COP);
            assert_eq!(
                queries[0],
                CurrencyOrderQuery::single(T, AttrId(0), TupleId(0), TupleId(1))
            );
            let inst = spec.instance(T);
            for q in &queries {
                let (_, lesser, greater) = q.pairs[0];
                assert_ne!(lesser, greater);
                assert_eq!(inst.tuple(lesser).eid, inst.tuple(greater).eid);
            }
        }
        let _ = amortized_ccqa_query(&amortized_spec(8));
    }

    #[test]
    fn large_spec_shape_and_delta_locality() {
        let spec = large_spec(4);
        assert_eq!(spec.total_copy_size(), 4 * LARGE_TUPLES_PER_ENTITY);
        let mut engine = CurrencyEngine::with_value_rels_owned(spec, &[], &Options::default())
            .expect("valid spec");
        assert_eq!(engine.partition().len(), 4, "one component per entity");
        assert!(engine.cps().expect("in budget"), "consistent");
        let report = engine.apply(&large_insert_delta()).expect("valid delta");
        assert_eq!(report.components_rebuilt, 1, "delta is component-local");
        assert!(engine.cps().expect("in budget"));
        let (rel, id) = report.inserted[0];
        let report = engine
            .apply(&update_remove_delta(rel, id))
            .expect("valid delta");
        assert_eq!(report.components_rebuilt, 1);
        let reclaimed = engine.compact().expect("compactable").reclaimed;
        assert_eq!(reclaimed, 1, "the retraction's tombstone");
        assert!(engine.cps().expect("in budget"));
    }

    #[test]
    fn update_deltas_are_component_local_and_steady_state() {
        let spec = amortized_spec(8);
        let mut engine = CurrencyEngine::new(&spec, &Options::default()).expect("valid spec");
        assert!(engine.cps().expect("in budget"));
        let before = engine.stats();
        let report = engine
            .apply(&update_insert_delta(&spec))
            .expect("valid delta");
        assert_eq!(report.components_rebuilt, 1, "delta is component-local");
        let (rel, id) = report.inserted[0];
        assert!(engine.cps().expect("in budget"));
        let report = engine
            .apply(&update_remove_delta(rel, id))
            .expect("valid delta");
        assert_eq!(report.components_rebuilt, 1);
        let after = engine.stats();
        assert_eq!(before.cells, after.cells, "steady state");
        assert_eq!(before.components, after.components);
    }
}
