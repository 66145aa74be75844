//! Designing copy functions: have we imported enough current data?
//!
//! Example 4.1 of the paper: the `Emp` relation copies manager records
//! from a fresher `Mgr` source.  The existing copy function imports only
//! one record — is that enough to answer "what is Mary's current last
//! name"?  The paper's §4 machinery answers precisely this:
//!
//! * **CPP** — is the current copy function *currency preserving* (no
//!   further import can change the certain answer)?
//! * **ECP** — can it be extended into a currency-preserving one?
//! * **BCP** — with at most `k` extra imports?
//! * `maximum_extension` — the saturating import of Proposition 5.2.
//!
//! Run with: `cargo run --example copy_design`

use data_currency::datagen::scenarios;
use data_currency::model::{Tuple, Value};
use data_currency::reason::{
    bcp, certain_answers, cpp, ecp, maximum_extension, PreservationProblem,
};
use std::collections::BTreeSet;

fn main() {
    println!("== copy-function design: Example 4.1 ==\n");
    let e = scenarios::example_4_1();
    let q2 = e.q2().to_query(5);
    let sources: BTreeSet<_> = [e.mgr].into();

    // Baseline: the certain answer with the current copy function ρ.
    let ans = certain_answers(&e.spec, &q2).unwrap();
    println!(
        "Q2 (Mary's current last name) under ρ = {{s3 ⇐ s′2}}: {:?}",
        ans.rows().unwrap()
    );

    // CPP: is ρ currency preserving for Q2?
    let problem = PreservationProblem {
        spec: &e.spec,
        sources: &sources,
        query: &q2,
    };
    let preserving = cpp(&problem).unwrap();
    println!("ρ currency preserving for Q2: {preserving}");
    assert!(!preserving, "importing s′3 would flip the answer to Smith");

    // ECP: can ρ be fixed at all?  (O(1): yes, iff the spec is consistent.)
    println!(
        "ρ extendable to a preserving collection (ECP): {}",
        ecp(&problem).unwrap()
    );

    // BCP: how many extra imports are needed?
    for k in 0..=2 {
        let ok = bcp(&problem, k).unwrap();
        println!("  BCP with k = {k}: {ok}");
    }

    // Build ρ₁ by hand: import s′3 (the divorced record) into Emp.
    let mut extended = e.spec.clone();
    let t_new = extended
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
    extended.copy_mut(0).set_mapping(t_new, e.sp[2]);
    extended.validate().unwrap();
    let ans1 = certain_answers(&extended, &q2).unwrap();
    println!(
        "\nQ2 under ρ₁ = ρ ∪ {{t_new ⇐ s′3}}: {:?}",
        ans1.rows().unwrap()
    );
    let problem1 = PreservationProblem {
        spec: &extended,
        sources: &sources,
        query: &q2,
    };
    let preserving1 = cpp(&problem1).unwrap();
    println!("ρ₁ currency preserving for Q2: {preserving1}");
    assert!(preserving1, "copying s′1 as well would change nothing");

    // The saturating maximum extension of Proposition 5.2.
    let maxed = maximum_extension(&e.spec, &sources).unwrap();
    println!(
        "\nmaximum extension: |ρ| grew {} → {} mappings, Emp grew {} → {} tuples",
        e.spec.total_copy_size(),
        maxed.total_copy_size(),
        e.spec.instance(e.emp).len(),
        maxed.instance(e.emp).len(),
    );
    let ans_max = certain_answers(&maxed, &q2).unwrap();
    println!(
        "Q2 under the maximum extension: {:?}",
        ans_max.rows().unwrap()
    );
    println!("\nConclusion: one targeted import (k = 1) repairs the copy design;");
    println!("the maximum extension reaches the same answer by saturation.");
}
