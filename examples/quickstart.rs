//! Quickstart: the paper's running example, end to end.
//!
//! Builds the Fig. 1 company database (employees with stale records, a
//! department whose manager data was copied from the employee table),
//! attaches the currency semantics of Example 2.1 as denial constraints,
//! and answers the four motivating queries of Example 1.1 with *certain
//! current answers* — answers guaranteed to be computed from the most
//! current values, no matter how the unknown currency orders resolve.
//!
//! Run with: `cargo run --example quickstart`

use data_currency::datagen::scenarios;
use data_currency::datagen::scenarios::{dept_attrs, emp_attrs};
use data_currency::model::Value;
use data_currency::query::{classify, SpQuery};
use data_currency::reason::{certain_answers, cop, cps, dcip, CurrencyOrderQuery};

fn show(label: &str, spec: &data_currency::model::Specification, q: &SpQuery, arity: usize) {
    let query = q.to_query(arity);
    let ans = certain_answers(spec, &query).expect("solvable");
    let rows = ans.rows().expect("consistent specification");
    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(Value::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        })
        .collect();
    println!(
        "  {label}  [{} query]  →  {{{}}}",
        classify(&query),
        rendered.join(" | ")
    );
}

fn main() {
    println!("== data-currency quickstart: Fig. 1 of Fan/Geerts/Wijsen ==\n");
    let f = scenarios::fig1();

    // 1. Sanity: the specification is consistent (Mod(S₀) ≠ ∅).
    let consistent = cps(&f.spec).expect("CPS decidable");
    println!("specification S₀ consistent (CPS): {consistent}\n");
    assert!(consistent);

    // 2. The four queries of Example 1.1.
    println!("certain current answers (Example 1.1):");
    show("Q1  Mary's current salary      ", &f.spec, &f.q1(), 5);
    show("Q2  Mary's current last name   ", &f.spec, &f.q2(), 5);
    show("Q3  Mary's current address     ", &f.spec, &f.q3(), 5);
    show("Q4  R&D's current budget       ", &f.spec, &f.q4(), 4);

    // 3. Certain orderings (Example 3.2): which currency facts hold in
    //    every consistent completion?
    println!("\ncertain orderings (Example 3.2):");
    let s1_before_s3 = cop(
        &f.spec,
        &CurrencyOrderQuery::single(f.emp, emp_attrs::SALARY, f.s[0], f.s[2]),
    )
    .expect("COP decidable");
    println!("  s1 ≺_salary s3 certain:  {s1_before_s3}   (forced by φ₁: salaries never decrease)");
    let t3_before_t4 = cop(
        &f.spec,
        &CurrencyOrderQuery::single(f.dept, dept_attrs::MGR_FN, f.t[2], f.t[3]),
    )
    .expect("COP decidable");
    println!("  t3 ≺_mgrFN  t4 certain:  {t3_before_t4}   (both orders are realizable)");

    // 4. Determinism of current instances (Example 3.3).
    println!("\ndeterministic current instances (Example 3.3):");
    let emp_det = dcip(&f.spec, f.emp).expect("DCIP decidable");
    let dept_det = dcip(&f.spec, f.dept).expect("DCIP decidable");
    println!("  Emp  deterministic: {emp_det}   (every completion yields {{s3, s4, s5}})");
    println!("  Dept deterministic: {dept_det}   (the manager's name varies with t3/t4)");

    println!("\nAll outcomes match the paper's Examples 1.1, 2.5, 3.2 and 3.3.");
}
