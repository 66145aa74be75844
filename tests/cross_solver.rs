//! Differential testing: the SAT-based exact solvers, the brute-force
//! completion enumerator, and the PTIME special-case algorithms must agree
//! wherever their domains overlap.
//!
//! * CPS: SAT ≡ enumeration on arbitrary specs; SAT ≡ `PO∞` fixpoint on
//!   constraint-free specs.
//! * COP: `PO∞` is *certain* and *maximal* (paper Lemma 6.2) — a pair is
//!   entailed by the SAT encoding iff it lies in `PO∞`.
//! * DCIP: SAT ≡ sink test on constraint-free specs.
//! * CCQA: SAT-enumerated certain answers ≡ completion-enumerated certain
//!   answers on constrained specs, and ≡ the `poss(S)` algorithm for SP
//!   queries on constraint-free specs.

use data_currency::datagen::random::{random_spec, RandomSpecConfig};
use data_currency::model::{AttrId, RelId, Value};
use data_currency::query::{SpCondition, SpQuery};
use data_currency::reason::{
    certain_answers_exact, certain_answers_sp, cop_exact, cps_enumerate, cps_exact, cps_ptime,
    dcip_exact, dcip_ptime, oracle::certain_answers_enumerate, po_infinity, CurrencyOrderQuery,
    Options,
};
use proptest::prelude::*;

const T: RelId = RelId(0);

fn small_config(seed: u64, constrained: bool, with_copy: bool) -> RandomSpecConfig {
    RandomSpecConfig {
        entities: 2,
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn cps_sat_agrees_with_enumeration(seed in 0u64..10_000) {
        let spec = random_spec(&small_config(seed, true, seed % 3 == 0));
        let exact = cps_exact(&spec).unwrap();
        let brute = cps_enumerate(&spec, 2_000_000).unwrap();
        prop_assert_eq!(exact, brute, "seed {}", seed);
    }

    #[test]
    fn cps_ptime_agrees_with_sat_without_constraints(seed in 0u64..10_000) {
        let spec = random_spec(&small_config(seed, false, seed % 2 == 0));
        prop_assert_eq!(cps_ptime(&spec).unwrap(), cps_exact(&spec).unwrap());
    }

    #[test]
    fn po_infinity_is_certain_and_maximal(seed in 0u64..10_000) {
        // Lemma 6.2: PO∞ = ⋂ of all completions' orders.
        let spec = random_spec(&small_config(seed, false, true));
        let Some(po) = po_infinity(&spec).unwrap() else {
            // Inconsistent: every ordering is vacuously certain.
            prop_assert!(cps_exact(&spec).map(|c| !c).unwrap());
            return Ok(());
        };
        if !cps_exact(&spec).unwrap() {
            return Ok(()); // should not happen: PO∞ exists ⇒ consistent
        }
        for inst in spec.instances() {
            let rel = inst.rel();
            for a in 0..inst.arity() {
                let attr = AttrId(a as u32);
                for (_eid, group) in inst.entity_groups() {
                    for &u in group {
                        for &v in group {
                            if u == v {
                                continue;
                            }
                            let certain_po = po.certain(rel, attr, u, v);
                            let q = CurrencyOrderQuery::single(rel, attr, u, v);
                            let certain_sat = cop_exact(&spec, &q).unwrap();
                            prop_assert_eq!(
                                certain_po, certain_sat,
                                "seed {} rel {:?} attr {:?} {} ≺ {}", seed, rel, attr, u, v
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dcip_ptime_agrees_with_sat_without_constraints(seed in 0u64..10_000) {
        let spec = random_spec(&small_config(seed, false, seed % 2 == 0));
        prop_assert_eq!(
            dcip_ptime(&spec, T).unwrap(),
            dcip_exact(&spec, T, &Options::default()).unwrap()
        );
    }

    #[test]
    fn ccqa_sat_agrees_with_completion_enumeration(seed in 0u64..10_000) {
        let spec = random_spec(&small_config(seed, true, false));
        let q = SpQuery::identity(T, 2).to_query(2);
        let sat = certain_answers_exact(&spec, &q, &Options::default()).unwrap();
        let brute = certain_answers_enumerate(&spec, &q, 2_000_000).unwrap();
        prop_assert_eq!(sat, brute, "seed {}", seed);
    }

    #[test]
    fn ccqa_sp_agrees_with_exact_without_constraints(seed in 0u64..10_000, sel in 0i64..2) {
        let spec = random_spec(&small_config(seed, false, seed % 2 == 1));
        let sp = SpQuery {
            rel: T,
            projection: vec![AttrId(1)],
            conditions: vec![SpCondition::AttrConst(AttrId(0), Value::int(sel))],
        };
        let fast = certain_answers_sp(&spec, &sp).unwrap();
        let exact =
            certain_answers_exact(&spec, &sp.to_query(2), &Options::default()).unwrap();
        prop_assert_eq!(fast, exact, "seed {}", seed);
    }
}
