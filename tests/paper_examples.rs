//! Every numbered example of the paper as an executable test.
//!
//! The expected outcomes are the ones stated in the paper's prose:
//! Examples 1.1 / 2.5 (queries Q1–Q4 on the Fig. 1 database), Example 2.3
//! (a consistent completion exists; a conflicting copy source destroys
//! consistency), Example 2.4 (current instances), Example 3.2 (certain
//! orderings), Example 3.3 (Emp is deterministic for current instances),
//! and Example 4.1 (ρ is not currency preserving for Q2, its extension
//! ρ₁ is).

use data_currency::datagen::scenarios::{self, dept_attrs, emp_attrs};
use data_currency::model::{Tuple, Value};
use data_currency::reason::{
    ccqa, certain_answers, cop, cpp, cps, dcip, maximum_extension, witness_completion,
    CurrencyOrderQuery, PreservationProblem,
};
use std::collections::BTreeSet;

#[test]
fn example_2_3_s0_is_consistent() {
    let f = scenarios::fig1();
    assert!(cps(&f.spec).unwrap(), "Mod(S₀) ≠ ∅ (Example 2.3)");
    let w = witness_completion(&f.spec).unwrap().expect("witness");
    assert!(w.is_consistent_for(&f.spec));
}

#[test]
fn example_1_1_q1_current_salary_is_80k() {
    let f = scenarios::fig1();
    let q = f.q1().to_query(5);
    let ans = certain_answers(&f.spec, &q).unwrap();
    assert_eq!(ans.rows().unwrap(), &[vec![Value::int(80)]]);
    assert!(ccqa(&f.spec, &q, &[Value::int(80)]).unwrap());
    assert!(!ccqa(&f.spec, &q, &[Value::int(50)]).unwrap());
}

#[test]
fn example_1_1_q2_current_last_name_is_dupont() {
    let f = scenarios::fig1();
    let q = f.q2().to_query(5);
    let ans = certain_answers(&f.spec, &q).unwrap();
    assert_eq!(ans.rows().unwrap(), &[vec![Value::str("Dupont")]]);
}

#[test]
fn example_1_1_q3_current_address_is_6_main_st() {
    let f = scenarios::fig1();
    let q = f.q3().to_query(5);
    let ans = certain_answers(&f.spec, &q).unwrap();
    assert_eq!(ans.rows().unwrap(), &[vec![Value::str("6 Main St")]]);
}

#[test]
fn example_1_1_q4_current_budget_is_6000k() {
    let f = scenarios::fig1();
    let q = f.q4().to_query(4);
    let ans = certain_answers(&f.spec, &q).unwrap();
    assert_eq!(
        ans.rows().unwrap(),
        &[vec![Value::int(6000)]],
        "either completion of t3/t4 yields budget 6000 (Example 1.1(4))"
    );
}

#[test]
fn example_2_4_current_emp_instance() {
    // LST(Emp) = {s3, s4, s5}: Mary's current tuple equals s3 in every
    // attribute, and the singleton entities contribute themselves.
    let f = scenarios::fig1();
    let q = data_currency::query::SpQuery::identity(f.emp, 5).to_query(5);
    let ans = certain_answers(&f.spec, &q).unwrap();
    let rows = ans.rows().unwrap();
    let s3 = vec![
        Value::str("Mary"),
        Value::str("Dupont"),
        Value::str("6 Main St"),
        Value::int(80),
        Value::str("married"),
    ];
    let s4 = vec![
        Value::str("Bob"),
        Value::str("Luth"),
        Value::str("8 Cowan St"),
        Value::int(80),
        Value::str("married"),
    ];
    let s5 = vec![
        Value::str("Robert"),
        Value::str("Luth"),
        Value::str("8 Drum St"),
        Value::int(55),
        Value::str("married"),
    ];
    assert!(rows.contains(&s3), "Mary's current tuple is s3");
    assert!(rows.contains(&s4));
    assert!(rows.contains(&s5));
    assert_eq!(rows.len(), 3);
}

#[test]
fn example_2_4_merged_luth_mixes_attributes() {
    // Example 2.4 (second half) illustrates LST mechanics: with s4 and s5
    // as one person, orders s4 ≺_A s5 for A ∈ {FN, LN, address, status}
    // and s5 ≺_salary s4, the current tuple is (Robert, Luth, 8 Drum St,
    // 80k, married) — four attributes from s5, the salary from s4.  The
    // example picks this completion freely (it predates the constraints),
    // so we demonstrate it on a constraint-free copy of the data.
    use data_currency::model::{Catalog, RelationSchema, Specification};
    let mut cat = Catalog::new();
    let emp = cat.add(RelationSchema::new(
        "Emp",
        &["FN", "LN", "address", "salary", "status"],
    ));
    let mut spec = Specification::new(cat);
    let person = data_currency::model::Eid(2);
    let s4 = spec
        .instance_mut(emp)
        .push_tuple(Tuple::new(
            person,
            vec![
                Value::str("Bob"),
                Value::str("Luth"),
                Value::str("8 Cowan St"),
                Value::int(80),
                Value::str("married"),
            ],
        ))
        .unwrap();
    let s5 = spec
        .instance_mut(emp)
        .push_tuple(Tuple::new(
            person,
            vec![
                Value::str("Robert"),
                Value::str("Luth"),
                Value::str("8 Drum St"),
                Value::int(55),
                Value::str("married"),
            ],
        ))
        .unwrap();
    for attr in [
        emp_attrs::FN,
        emp_attrs::LN,
        emp_attrs::ADDRESS,
        emp_attrs::STATUS,
    ] {
        spec.instance_mut(emp).add_order(attr, s4, s5).unwrap();
    }
    spec.instance_mut(emp)
        .add_order(emp_attrs::SALARY, s5, s4)
        .unwrap();
    let q = data_currency::query::SpQuery::identity(emp, 5).to_query(5);
    let ans = certain_answers(&spec, &q).unwrap();
    assert_eq!(
        ans.rows().unwrap(),
        &[vec![
            Value::str("Robert"),
            Value::str("Luth"),
            Value::str("8 Drum St"),
            Value::int(80),
            Value::str("married"),
        ]],
        "the current tuple mixes s5's attributes with s4's salary"
    );
}

#[test]
fn example_3_2_certain_orderings() {
    let f = scenarios::fig1();
    // s1 ≺_salary s3 is assured by φ₁.
    let q = CurrencyOrderQuery::single(f.emp, emp_attrs::SALARY, f.s[0], f.s[2]);
    assert!(cop(&f.spec, &q).unwrap());
    // t3 ≺_mgrFN t4 is NOT entailed: a completion with t4 ≺ t3 exists.
    let q2 = CurrencyOrderQuery::single(f.dept, dept_attrs::MGR_FN, f.t[2], f.t[3]);
    assert!(!cop(&f.spec, &q2).unwrap());
}

#[test]
fn example_2_2_copy_derived_orderings() {
    // The copy function plus φ₁/φ₃ force t1 ≺_mgrAddr t3 (Example 1.1(4)).
    let f = scenarios::fig1();
    let q = CurrencyOrderQuery::single(f.dept, dept_attrs::MGR_ADDR, f.t[0], f.t[2]);
    assert!(cop(&f.spec, &q).unwrap());
    // ... and φ₄ lifts it to the budget.
    let qb = CurrencyOrderQuery::single(f.dept, dept_attrs::BUDGET, f.t[0], f.t[2]);
    assert!(cop(&f.spec, &qb).unwrap());
}

#[test]
fn example_3_3_emp_is_deterministic() {
    let f = scenarios::fig1();
    assert!(
        dcip(&f.spec, f.emp).unwrap(),
        "S₀ is deterministic for current Emp instances (Example 3.3)"
    );
}

#[test]
fn dept_is_not_deterministic() {
    // mgrFN of R&D differs between completions (t3 = Mary vs t4 = Ed).
    let f = scenarios::fig1();
    assert!(!dcip(&f.spec, f.dept).unwrap());
}

#[test]
fn example_2_3_conflicting_source_destroys_consistency() {
    // Example 2.3 (second half): a source asserting the opposite budget
    // order contradicts the φ-derived order.
    let f = scenarios::fig1();
    let mut spec = f.spec.clone();
    // Force the opposite of the derived t1 ≺_budget t3 directly.
    spec.instance_mut(f.dept)
        .add_order(dept_attrs::BUDGET, f.t[2], f.t[0])
        .unwrap();
    assert!(!cps(&spec).unwrap());
}

#[test]
fn example_4_1_rho_is_not_currency_preserving_for_q2() {
    let e = scenarios::example_4_1();
    let q2 = e.q2().to_query(5);
    // Base answer: Dupont.
    let ans = certain_answers(&e.spec, &q2).unwrap();
    assert_eq!(ans.rows().unwrap(), &[vec![Value::str("Dupont")]]);
    let sources: BTreeSet<_> = [e.mgr].into();
    let problem = PreservationProblem {
        spec: &e.spec,
        sources: &sources,
        query: &q2,
    };
    assert!(
        !cpp(&problem).unwrap(),
        "importing s′3 changes Q2's certain answer to Smith (Example 4.1)"
    );
}

#[test]
fn example_4_1_rho1_is_currency_preserving_for_q2() {
    // ρ₁ extends ρ by importing s′3 into Emp.
    let e = scenarios::example_4_1();
    let mut spec = e.spec.clone();
    let new_tuple = spec
        .instance_mut(e.emp)
        .push_tuple(Tuple::new(
            e.mary,
            vec![
                Value::str("Mary"),
                Value::str("Smith"),
                Value::str("2 Small St"),
                Value::int(80),
                Value::str("divorced"),
            ],
        ))
        .unwrap();
    spec.copy_mut(0).set_mapping(new_tuple, e.sp[2]);
    spec.validate().unwrap();
    let q2 = e.q2().to_query(5);
    // The answer under ρ₁ is Smith in every consistent completion.
    let ans = certain_answers(&spec, &q2).unwrap();
    assert_eq!(ans.rows().unwrap(), &[vec![Value::str("Smith")]]);
    let sources: BTreeSet<_> = [e.mgr].into();
    let problem = PreservationProblem {
        spec: &spec,
        sources: &sources,
        query: &q2,
    };
    assert!(
        cpp(&problem).unwrap(),
        "copying more of Mgr (s′1) does not change Q2's answer (Example 4.1)"
    );
}

#[test]
fn example_4_1_maximum_extension_exists() {
    let e = scenarios::example_4_1();
    let sources: BTreeSet<_> = [e.mgr].into();
    let maxed = maximum_extension(&e.spec, &sources).unwrap();
    assert!(cps(&maxed).unwrap());
    assert!(
        maxed.total_copy_size() > e.spec.total_copy_size(),
        "the greedy maximum extension imports additional manager records"
    );
}
