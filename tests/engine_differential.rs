//! Differential testing of the entity-partitioned [`CurrencyEngine`]
//! against the monolithic whole-specification SAT path and the
//! brute-force completion-enumeration oracle.
//!
//! Specifications come from `currency-datagen`'s seeded generator and
//! include multi-entity instances with copy functions — the copy
//! functions merge target and source entities into shared components, so
//! the partitions these cases exercise are non-trivial (fewer components
//! than cells, more than one component overall).

use data_currency::datagen::random::{random_spec, RandomSpecConfig};
use data_currency::model::{AttrId, Eid, RelId, Value};
use data_currency::query::Query;
use data_currency::reason::encode::{Bounds, CompileScratch, ComponentCompiler, Encoding};
use data_currency::reason::oracle::{
    ccqa_exact_monolithic, certain_answers_enumerate, certain_answers_exact_monolithic,
    cop_exact_monolithic, cps_enumerate, cps_exact_monolithic, dcip_exact_monolithic,
    witness_completion_monolithic, TransitivityMode,
};
use data_currency::reason::{
    ccqa_exact, certain_answers_exact, cop_exact, cps_exact, dcip_exact, witness_completion,
    CurrencyEngine, CurrencyOrderQuery, Options, MAX_MODELS,
};
use data_currency::sat::Enumeration;
use proptest::prelude::*;

const T: RelId = RelId(0);

fn config(seed: u64, constrained: bool, with_copy: bool) -> RandomSpecConfig {
    RandomSpecConfig {
        entities: 3,
        tuples_per_entity: (1, 3),
        attrs: 2,
        value_pool: 2,
        order_density: 0.25,
        monotone_constraints: usize::from(constrained),
        correlated_constraints: usize::from(constrained) * ((seed % 2) as usize),
        with_copy,
        seed,
    }
}

/// Smaller shape for comparisons involving the factorial-cost completion
/// enumerator (the oracle's candidate space is the product of per-cell
/// factorials, so cells must stay few and small).
fn oracle_config(seed: u64, constrained: bool, with_copy: bool) -> RandomSpecConfig {
    RandomSpecConfig {
        entities: 2,
        tuples_per_entity: (1, 3),
        attrs: 1,
        value_pool: 2,
        order_density: 0.25,
        monotone_constraints: usize::from(constrained),
        correlated_constraints: 0,
        with_copy,
        seed,
    }
}

fn value_query(rel: RelId, arity: usize) -> Query {
    data_currency::query::SpQuery::identity(rel, arity).to_query(arity)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn engine_cps_matches_monolithic(seed in 0u64..10_000) {
        let spec = random_spec(&config(seed, true, seed % 2 == 0));
        let engine = cps_exact(&spec).unwrap();
        let mono = cps_exact_monolithic(&spec).unwrap();
        prop_assert_eq!(engine, mono, "seed {}", seed);
    }

    #[test]
    fn engine_cps_matches_oracle(seed in 0u64..10_000) {
        let spec = random_spec(&oracle_config(seed, true, seed % 2 == 0));
        let engine = cps_exact(&spec).unwrap();
        let brute = cps_enumerate(&spec, 2_000_000).unwrap();
        prop_assert_eq!(engine, brute, "seed {}", seed);
    }

    #[test]
    fn engine_cop_matches_monolithic(seed in 0u64..10_000) {
        let spec = random_spec(&config(seed, true, seed % 2 == 0));
        let inst = spec.instance(T);
        for a in 0..inst.arity() {
            let attr = AttrId(a as u32);
            for u in 0..inst.len() as u32 {
                for v in 0..inst.len() as u32 {
                    let q = CurrencyOrderQuery::single(
                        T,
                        attr,
                        data_currency::model::TupleId(u),
                        data_currency::model::TupleId(v),
                    );
                    prop_assert_eq!(
                        cop_exact(&spec, &q).unwrap(),
                        cop_exact_monolithic(&spec, &q).unwrap(),
                        "seed {} attr {:?} {} ≺ {}", seed, attr, u, v
                    );
                }
            }
        }
    }

    #[test]
    fn engine_dcip_matches_monolithic(seed in 0u64..10_000) {
        let spec = random_spec(&config(seed, true, seed % 3 == 0));
        prop_assert_eq!(
            dcip_exact(&spec, T).unwrap(),
            dcip_exact_monolithic(&spec, T).unwrap(),
            "seed {}", seed
        );
    }

    #[test]
    fn engine_ccqa_matches_monolithic(seed in 0u64..10_000) {
        let spec = random_spec(&config(seed, true, seed % 2 == 0));
        let q = value_query(T, spec.instance(T).arity());
        let engine = certain_answers_exact(&spec, &q).unwrap();
        let mono = certain_answers_exact_monolithic(&spec, &q).unwrap();
        prop_assert_eq!(&engine, &mono, "seed {}", seed);
        // Membership probes agree too (vacuous-truth convention included).
        let probe = vec![Value::int(0), Value::int(1)];
        prop_assert_eq!(
            ccqa_exact(&spec, &q, &probe).unwrap(),
            ccqa_exact_monolithic(&spec, &q, &probe).unwrap(),
            "seed {}", seed
        );
    }

    #[test]
    fn engine_ccqa_matches_oracle(seed in 0u64..10_000) {
        let spec = random_spec(&oracle_config(seed, true, seed % 2 == 0));
        let q = value_query(T, spec.instance(T).arity());
        let engine = certain_answers_exact(&spec, &q).unwrap();
        let brute = certain_answers_enumerate(&spec, &q, 2_000_000).unwrap();
        prop_assert_eq!(&engine, &brute, "seed {}", seed);
    }

    #[test]
    fn engine_witness_is_a_consistent_completion(seed in 0u64..10_000) {
        let spec = random_spec(&config(seed, true, seed % 2 == 0));
        let engine_witness = witness_completion(&spec).unwrap();
        let mono_witness = witness_completion_monolithic(&spec).unwrap();
        // Witnesses need not be identical (any consistent completion is a
        // valid witness), but existence must agree and each witness must
        // actually be consistent.
        prop_assert_eq!(engine_witness.is_some(), mono_witness.is_some(), "seed {}", seed);
        if let Some(w) = engine_witness {
            prop_assert!(w.is_consistent_for(&spec), "seed {}", seed);
        }
    }

    #[test]
    fn lazy_and_eager_transitivity_agree(seed in 0u64..10_000) {
        // The verdicts of the lazy engine against the eager references
        // are the `engine_*_matches_monolithic` sweeps; this one checks
        // what they do not: variable-count parity and identical
        // realizable-current-instance counts per relation.
        let spec = random_spec(&config(seed, true, seed % 2 == 0));
        let lazy = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        let all_rels: Vec<RelId> = spec.instances().iter().map(|i| i.rel()).collect();
        // Order-variable allocation (with unreferenced attributes pruned)
        // is mode-independent, both per component and monolithically;
        // component-scoped pruning is at least as sharp as the
        // whole-specification encoding's (a rule references an attribute
        // only within its own component), never sharper the other way.
        let compiler = ComponentCompiler::new(&spec, &all_rels);
        let mut scratch = CompileScratch::default();
        let partition = lazy.partition();
        let eager_vars: usize = (0..partition.slots())
            .map(|ix| {
                let component = partition.component(ix);
                compiler.compile_in(component, TransitivityMode::Eager, &mut scratch).num_vars()
            })
            .sum();
        prop_assert_eq!(lazy.stats().vars, eager_vars, "seed {}", seed);
        let mono_eager = Encoding::whole_spec(&spec, &all_rels, TransitivityMode::Eager).unwrap();
        let mono_lazy = Encoding::whole_spec(&spec, &all_rels, TransitivityMode::Lazy).unwrap();
        prop_assert_eq!(mono_eager.num_vars(), mono_lazy.num_vars(), "seed {}", seed);
        prop_assert!(lazy.stats().vars <= mono_eager.num_vars(), "seed {}", seed);
        for &rel in &all_rels {
            let (_, vars) = mono_eager.restricted_projection(&[rel]);
            let eager_count = mono_eager
                .clone()
                .for_each_model(&vars, MAX_MODELS, &Bounds::default(), |_| true)
                .unwrap();
            prop_assert_eq!(
                Enumeration::Complete(lazy.current_instances(rel).unwrap().len()),
                eager_count,
                "seed {} rel {:?} model count", seed, rel
            );
        }
    }

    #[test]
    fn persistent_engine_answers_repeated_queries(seed in 0u64..10_000) {
        // The amortized path: one engine, many queries — must agree with
        // the per-call one-shot functions.
        let spec = random_spec(&config(seed, true, true));
        let engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        prop_assert_eq!(engine.cps().unwrap(), cps_exact_monolithic(&spec).unwrap());
        let inst = spec.instance(T);
        for u in 0..inst.len() as u32 {
            for v in 0..inst.len() as u32 {
                let q = CurrencyOrderQuery::single(
                    T,
                    AttrId(0),
                    data_currency::model::TupleId(u),
                    data_currency::model::TupleId(v),
                );
                prop_assert_eq!(
                    engine.cop(&q).unwrap(),
                    cop_exact_monolithic(&spec, &q).unwrap(),
                    "seed {} {} ≺ {}", seed, u, v
                );
            }
        }
        let q = value_query(T, inst.arity());
        prop_assert_eq!(
            engine.certain_answers(&q).unwrap(),
            certain_answers_exact_monolithic(&spec, &q).unwrap(),
            "seed {}", seed
        );
        prop_assert_eq!(
            engine.dcip(T).unwrap(),
            dcip_exact_monolithic(&spec, T).unwrap(),
            "seed {}", seed
        );
    }
}

#[test]
fn copy_functions_force_nontrivial_partitions() {
    // Sanity-check the test distribution itself: with copy functions the
    // partition must actually merge target and source entities (fewer
    // components than cells) while keeping more than one component.
    let mut saw_merged = 0usize;
    for seed in 0..20u64 {
        let spec = random_spec(&config(seed, true, true));
        let engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        let stats = engine.stats();
        assert!(stats.components >= 1);
        if stats.components > 1 && stats.components < stats.cells {
            saw_merged += 1;
        }
    }
    assert!(
        saw_merged >= 10,
        "expected most seeds to produce merged multi-component partitions, got {saw_merged}/20"
    );
}

#[test]
fn engine_dcip_agrees_for_copied_relation_too() {
    let src = RelId(1);
    for seed in 0..30u64 {
        let spec = random_spec(&config(seed, true, true));
        assert_eq!(
            dcip_exact(&spec, src).unwrap(),
            dcip_exact_monolithic(&spec, src).unwrap(),
            "seed {seed}"
        );
    }
}

#[test]
fn engine_handles_unknown_entities_gracefully() {
    let spec = random_spec(&config(1, true, false));
    let engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
    assert!(engine.partition().component_of(T, Eid(999)).is_none());
    // Out-of-range tuple ids are "never certain", like the monolithic path.
    let q = CurrencyOrderQuery::single(
        T,
        AttrId(0),
        data_currency::model::TupleId(0),
        data_currency::model::TupleId(250),
    );
    assert_eq!(
        engine.cop(&q).unwrap(),
        cop_exact_monolithic(&spec, &q).unwrap()
    );
}
