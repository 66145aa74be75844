//! Facade-level API coverage: the prelude, query budgets, error
//! surfaces, and rendering — the parts a downstream user touches first.

use data_currency::prelude::*;
use data_currency::reason::enumerate::all_consistent_completions;

/// One relation `R(A)` whose `entities` entities each hold the values
/// `0..values`, with no order and no constraint.
fn spec_with(entities: u64, values: i64) -> (Specification, RelId) {
    let mut cat = Catalog::new();
    let r = cat.add(RelationSchema::new("R", &["A"]));
    let mut spec = Specification::new(cat);
    for e in 0..entities {
        for v in 0..values {
            spec.instance_mut(r)
                .push_tuple(Tuple::new(Eid(e), vec![Value::int(v)]))
                .unwrap();
        }
    }
    (spec, r)
}

#[test]
fn prelude_exposes_the_working_set() {
    // Compile-time check that the prelude covers model + reason + query
    // items; runtime sanity on a two-tuple entity.
    let (spec, r) = spec_with(1, 2);
    assert!(cps(&spec).unwrap());
    let q = CurrencyOrderQuery::single(r, AttrId(0), TupleId(0), TupleId(1));
    assert!(!cop(&spec, &q).unwrap());
    assert!(!dcip(&spec, r).unwrap());
}

#[test]
fn model_budget_is_enforced() {
    // Twenty entities with two distinct values each: one component per
    // entity with two realizable current instances, so the composed
    // product is 2^20 > MAX_MODELS.  The product guard must refuse with
    // BudgetExceeded, never answer wrongly, on both the free function and
    // a reader.  (DCIP stops at the first component with two instances,
    // so it still answers, on the PTIME and on the exact path.)
    let (spec, r) = spec_with(20, 2);
    const { assert!(1usize << 20 > MAX_MODELS) };
    let q = data_currency::query::SpQuery::identity(r, 1).to_query(1);
    let refused = |res: Result<_, ReasonError>| match res {
        Err(ReasonError::BudgetExceeded { budget, .. }) => budget == MAX_MODELS,
        _ => false,
    };
    assert!(refused(certain_answers_exact(&spec, &q).map(|_| ())));
    let mut engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
    let reader = SnapshotReader::new(engine.snapshot());
    assert!(refused(reader.certain_answers(&q).map(|_| ())));
    assert!(refused(reader.current_instances(r).map(|_| ())));
    assert!(!dcip(&spec, r).unwrap());
    assert!(!dcip_exact(&spec, r).unwrap());
}

#[test]
fn enumeration_budget_is_enforced() {
    let (spec, _) = spec_with(1, 8); // 8! = 40320 completions
    assert!(matches!(
        all_consistent_completions(&spec, 1000),
        Err(ReasonError::BudgetExceeded { .. })
    ));
}

#[test]
fn errors_render_with_context() {
    let (mut spec, r) = spec_with(1, 2);
    let bad = Tuple::new(Eid(0), vec![Value::int(1), Value::int(2)]);
    let err = spec.instance_mut(r).push_tuple(bad).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("R") && msg.contains("1") && msg.contains("2"),
        "{msg}"
    );
}

#[test]
fn render_roundtrip_smoke() {
    let (spec, _) = spec_with(1, 3);
    let text = render_spec(&spec);
    assert!(text.contains("R(EID, A)"));
    assert!(text.contains("t2"));
}

#[test]
fn sat_substrate_is_reachable() {
    use data_currency::sat::{SolveResult, Solver};
    let mut s = Solver::new();
    let v = s.new_var();
    s.add_clause(&[v.pos()]);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(s.model_value(v));
}

#[test]
fn query_classification_via_facade() {
    use data_currency::query::{classify, parse_query, QueryClass};
    let (spec, _) = spec_with(1, 1);
    let q = parse_query(spec.catalog(), "Q(x) :- R(x)").unwrap();
    assert_eq!(classify(&q), QueryClass::Sp);
    let q2 = parse_query(spec.catalog(), "Q(x) :- R(x) and not R(x)").unwrap();
    assert_eq!(classify(&q2), QueryClass::Fo);
}

#[test]
fn explain_via_facade() {
    let (mut spec, r) = spec_with(1, 2);
    spec.instance_mut(r)
        .add_order(AttrId(0), TupleId(0), TupleId(1))
        .unwrap();
    spec.instance_mut(r)
        .add_order(AttrId(0), TupleId(1), TupleId(0))
        .unwrap();
    let core = explain_inconsistency(&spec).unwrap().expect("inconsistent");
    assert_eq!(core.components.len(), 2);
}
