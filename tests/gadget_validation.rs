//! Gadget validation: every hardness-reduction gadget must agree with a
//! brute-force oracle on random small instances.
//!
//! This is the deepest end-to-end check in the repository: it exercises
//! constraint grounding, the SAT encoding, completion semantics, copy
//! compatibility, query evaluation and the decision procedures all at
//! once, and ties them to the exact reductions used in the paper's
//! lower-bound proofs.  The `gadget_validation` rows of `bench_engine`'s
//! `paper` section time the same constructions.

use data_currency::datagen::gadgets;
use data_currency::datagen::logic;
use data_currency::reason::{
    ccqa_exact, cop_exact, cpp, cps_exact, dcip_exact, PreservationProblem,
};

#[test]
fn betweenness_to_cps_matches_oracle() {
    for seed in 0..12 {
        let n = 3 + (seed as usize % 2); // 3 or 4 elements
        let triples = 1 + (seed as usize % 3);
        let b = logic::random_betweenness(n, triples, seed);
        let expected = logic::betweenness_solvable(&b);
        let gadget = gadgets::cps_betweenness(&b);
        let got = cps_exact(&gadget.spec).expect("CPS solvable");
        assert_eq!(
            got, expected,
            "Betweenness→CPS mismatch (seed {seed}): {b:?}"
        );
    }
}

#[test]
fn exists_forall_3dnf_to_cps_matches_oracle() {
    for seed in 0..12 {
        let num_x = 1 + (seed as usize % 2);
        let num_y = 1 + (seed as usize % 2);
        let clauses = 1 + (seed as usize % 3);
        let f = logic::random_formula(num_x + num_y, clauses, 1000 + seed);
        let expected = logic::exists_forall_dnf(&f, num_x);
        let gadget = gadgets::cps_exists_forall_3dnf(&f, num_x);
        let got = cps_exact(&gadget.spec).expect("CPS solvable");
        assert_eq!(
            got, expected,
            "∃∀3DNF→CPS mismatch (seed {seed}, num_x {num_x}): {f:?}"
        );
    }
}

#[test]
fn threesat_to_cop_matches_oracle() {
    for seed in 0..12 {
        let vars = 2 + (seed as usize % 2);
        let clauses = 1 + (seed as usize % 4);
        let f = logic::random_formula(vars, clauses, 2000 + seed);
        let expected_unsat = !logic::sat_cnf(&f);
        let gadget = gadgets::cop_3sat(&f);
        let got = cop_exact(&gadget.spec, &gadget.ot).expect("COP solvable");
        assert_eq!(
            got, expected_unsat,
            "3SAT→COP mismatch (seed {seed}): {f:?}"
        );
    }
}

#[test]
fn threesat_to_dcip_matches_oracle() {
    for seed in 0..8 {
        let vars = 2 + (seed as usize % 2);
        let clauses = 1 + (seed as usize % 3);
        let f = logic::random_formula(vars, clauses, 3000 + seed);
        let expected_unsat = !logic::sat_cnf(&f);
        let gadget = gadgets::cop_3sat(&f);
        let got = dcip_exact(&gadget.spec, gadget.rel).expect("DCIP solvable");
        assert_eq!(
            got, expected_unsat,
            "3SAT→DCIP mismatch (seed {seed}): {f:?}"
        );
    }
}

#[test]
fn threesat_to_ccqa_matches_oracle() {
    for seed in 0..12 {
        let vars = 2 + (seed as usize % 3);
        let clauses = 1 + (seed as usize % 4);
        let f = logic::random_formula(vars, clauses, 4000 + seed);
        let expected_unsat = !logic::sat_cnf(&f);
        let gadget = gadgets::ccqa_3sat(&f);
        let got = ccqa_exact(&gadget.spec, &gadget.query, &gadget.tuple).expect("CCQA solvable");
        assert_eq!(
            got, expected_unsat,
            "3SAT→CCQA mismatch (seed {seed}): {f:?}"
        );
    }
}

#[test]
fn forall_exists_3cnf_to_cpp_matches_oracle() {
    for seed in 0..6 {
        let num_x = 1;
        let num_y = 1 + (seed as usize % 2);
        let clauses = 1 + (seed as usize % 2);
        let f = logic::random_formula(num_x + num_y, clauses, 5000 + seed);
        let expected = logic::forall_exists_cnf(&f, num_x);
        let gadget = gadgets::cpp_forall_exists_3cnf(&f, num_x);
        let problem = PreservationProblem {
            spec: &gadget.spec,
            sources: &gadget.sources,
            query: &gadget.query,
        };
        let got = cpp(&problem).expect("CPP solvable");
        assert_eq!(got, expected, "∀∃3CNF→CPP mismatch (seed {seed}): {f:?}");
    }
}
