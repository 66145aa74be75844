//! Solver-level tests: unit tests for CDCL behaviour and differential tests
//! against the naive DPLL oracle on random instances.

use crate::dpll::evaluate;
use crate::{solve_dpll, Enumeration, Lit, SolveResult, Solver, Var};

fn build(num_vars: usize, clauses: &[Vec<Lit>]) -> Solver {
    let mut s = Solver::new();
    for _ in 0..num_vars {
        s.new_var();
    }
    for c in clauses {
        s.add_clause(c);
    }
    s
}

fn v(i: usize) -> Var {
    Var::from_index(i)
}

#[test]
fn empty_instance_is_sat() {
    let mut s = Solver::new();
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn single_unit_clause() {
    let mut s = Solver::new();
    let a = s.new_var();
    assert!(s.add_clause(&[a.neg()]));
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(!s.model_value(a));
}

#[test]
fn contradictory_units_unsat() {
    let mut s = Solver::new();
    let a = s.new_var();
    assert!(s.add_clause(&[a.pos()]));
    assert!(!s.add_clause(&[a.neg()]));
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn tautological_clause_is_ignored() {
    let mut s = Solver::new();
    let a = s.new_var();
    assert!(s.add_clause(&[a.pos(), a.neg()]));
    assert_eq!(s.num_clauses(), 0);
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn duplicate_literals_are_merged() {
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    assert!(s.add_clause(&[a.pos(), a.pos(), b.pos()]));
    assert!(s.add_clause(&[a.neg()]));
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(s.model_value(b));
}

#[test]
fn implication_chain_propagates() {
    let n = 32;
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
    s.add_clause(&[vars[0].pos()]);
    for w in vars.windows(2) {
        s.add_clause(&[w[0].neg(), w[1].pos()]);
    }
    assert_eq!(s.solve(), SolveResult::Sat);
    for &x in &vars {
        assert!(s.model_value(x));
    }
}

#[test]
fn pigeonhole_3_into_2_is_unsat() {
    // p[i][j]: pigeon i in hole j.  3 pigeons, 2 holes.
    let mut s = Solver::new();
    let p: Vec<Vec<Var>> = (0..3)
        .map(|_| (0..2).map(|_| s.new_var()).collect())
        .collect();
    for row in &p {
        s.add_clause(&[row[0].pos(), row[1].pos()]);
    }
    #[allow(clippy::needless_range_loop)] // j indexes two parallel rows
    for j in 0..2 {
        for i1 in 0..3 {
            for i2 in (i1 + 1)..3 {
                s.add_clause(&[p[i1][j].neg(), p[i2][j].neg()]);
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn pigeonhole_5_into_4_exercises_learning() {
    let (pigeons, holes) = (5usize, 4usize);
    let mut s = Solver::new();
    let p: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for row in &p {
        let lits: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
        s.add_clause(&lits);
    }
    #[allow(clippy::needless_range_loop)] // j indexes parallel rows
    for j in 0..holes {
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                s.add_clause(&[p[i1][j].neg(), p[i2][j].neg()]);
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert!(s.stats().conflicts > 0, "should have required learning");
}

#[test]
fn assumptions_restrict_without_committing() {
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    s.add_clause(&[a.pos(), b.pos()]);
    assert_eq!(s.solve_with_assumptions(&[a.neg()]), SolveResult::Sat);
    assert!(s.model_value(b));
    assert_eq!(
        s.solve_with_assumptions(&[a.neg(), b.neg()]),
        SolveResult::Unsat
    );
    // The instance itself is still satisfiable afterwards.
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.solve_with_assumptions(&[a.pos()]), SolveResult::Sat);
}

#[test]
fn assumption_of_entailed_literal() {
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    s.add_clause(&[a.pos()]);
    s.add_clause(&[a.neg(), b.pos()]);
    // Both assumptions are already consequences.
    assert_eq!(
        s.solve_with_assumptions(&[a.pos(), b.pos()]),
        SolveResult::Sat
    );
    assert_eq!(s.solve_with_assumptions(&[b.neg()]), SolveResult::Unsat);
}

#[test]
fn entailment_via_assumptions() {
    // (a ∨ b) ∧ (¬a ∨ c) ∧ (¬b ∨ c) entails c.
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    let c = s.new_var();
    s.add_clause(&[a.pos(), b.pos()]);
    s.add_clause(&[a.neg(), c.pos()]);
    s.add_clause(&[b.neg(), c.pos()]);
    assert_eq!(s.solve_with_assumptions(&[c.neg()]), SolveResult::Unsat);
    assert_eq!(s.solve_with_assumptions(&[c.pos()]), SolveResult::Sat);
}

#[test]
fn model_enumeration_counts_projections() {
    // Free variables a, b and a constrained c = a ∨ b.
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    let c = s.new_var();
    s.add_clause(&[c.neg(), a.pos(), b.pos()]);
    s.add_clause(&[a.neg(), c.pos()]);
    s.add_clause(&[b.neg(), c.pos()]);
    let mut seen = Vec::new();
    let result = s.for_each_model(&[a, b], 100, |m| {
        seen.push(m.to_vec());
        true
    });
    assert_eq!(result, Enumeration::Complete(4));
    seen.sort();
    assert_eq!(
        seen,
        vec![
            vec![false, false],
            vec![false, true],
            vec![true, false],
            vec![true, true]
        ]
    );
}

#[test]
fn model_enumeration_respects_limit_and_stop() {
    let mut s = build(3, &[]);
    let r = s.for_each_model(&[v(0), v(1), v(2)], 3, |_| true);
    assert_eq!(r, Enumeration::LimitReached(3));

    let mut s2 = build(3, &[]);
    let r2 = s2.for_each_model(&[v(0), v(1), v(2)], 100, |_| false);
    assert_eq!(r2, Enumeration::Stopped(1));
}

#[test]
fn enumeration_with_empty_projection() {
    let mut s = build(2, &[vec![v(0).pos()]]);
    let r = s.for_each_model(&[], 10, |m| {
        assert!(m.is_empty());
        true
    });
    assert_eq!(r, Enumeration::Complete(1));
}

#[test]
fn enumeration_of_unsat_instance() {
    let mut s = build(1, &[vec![v(0).pos()], vec![v(0).neg()]]);
    let r = s.for_each_model(&[v(0)], 10, |_| true);
    assert_eq!(r, Enumeration::Complete(0));
}

#[test]
fn cloned_solver_is_independent() {
    let mut s = Solver::new();
    let a = s.new_var();
    let mut t = s.clone();
    assert!(s.add_clause(&[a.pos()]));
    assert!(t.add_clause(&[a.neg()]));
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(t.solve(), SolveResult::Sat);
    assert!(s.model_value(a));
    assert!(!t.model_value(a));
}

// ---------------------------------------------------------------------------
// Watch-list integrity and clause-database reduction invariants.
// ---------------------------------------------------------------------------

/// Pigeonhole instance: `pigeons` into `holes`.  Unsat iff pigeons > holes;
/// reliably generates conflicts (and thus learnt clauses) for its size.
fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
    let mut s = Solver::new();
    add_pigeonhole(&mut s, pigeons, holes);
    s
}

/// Add a fresh pigeonhole instance to `s`, over new variables.
fn add_pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
    let p: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for row in &p {
        let lits: Vec<Lit> = row.iter().map(|v| v.pos()).collect();
        s.add_clause(&lits);
    }
    #[allow(clippy::needless_range_loop)] // j indexes parallel rows
    for j in 0..holes {
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                s.add_clause(&[p[i1][j].neg(), p[i2][j].neg()]);
            }
        }
    }
}

#[test]
fn watch_lists_stay_consistent_across_operations() {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
    s.debug_check_invariants().unwrap();
    // Mixed binary and long clauses.
    s.add_clause(&[vars[0].pos(), vars[1].pos()]);
    s.add_clause(&[vars[1].neg(), vars[2].pos(), vars[3].pos()]);
    s.add_clause(&[vars[2].neg(), vars[4].pos(), vars[5].pos(), vars[6].pos()]);
    s.debug_check_invariants().unwrap();
    assert_eq!(s.solve(), SolveResult::Sat);
    s.debug_check_invariants().unwrap();
    // Assumption solving and clause addition between solves.
    s.solve_with_assumptions(&[vars[0].neg(), vars[2].pos()]);
    s.add_clause(&[vars[6].neg(), vars[7].pos()]);
    s.debug_check_invariants().unwrap();
    // Enumeration adds blocking clauses.
    s.for_each_model(&[vars[0], vars[1]], 10, |_| true);
    s.debug_check_invariants().unwrap();
}

#[test]
fn watch_lists_survive_hard_search_and_reductions() {
    let mut s = pigeonhole(6, 5);
    s.set_max_learnts(8); // force frequent clause-database reductions
    assert_eq!(s.solve(), SolveResult::Unsat);
    let st = s.stats();
    assert!(st.conflicts > 0, "search must have conflicted");
    assert!(
        st.learnt_deleted > 0,
        "tiny budget must have triggered reductions: {st:?}"
    );
    s.debug_check_invariants().unwrap();
}

#[test]
fn reduction_keeps_glue_clauses_and_counts_deletions() {
    let mut s = pigeonhole(6, 5);
    // A satisfiable side variable keeps the instance usable after solving.
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert!(s.num_learnts() > 0, "expected learnt clauses");
    let before = s.learnt_snapshot();
    let deleted_before = s.stats().learnt_deleted;
    s.set_max_learnts(0);
    s.force_reduce();
    let after = s.learnt_snapshot();
    s.debug_check_invariants().unwrap();
    let deleted = s.stats().learnt_deleted - deleted_before;
    assert_eq!(before.len() - after.len(), deleted as usize);
    // Glue protection: every learnt clause with LBD ≤ 2 (and every binary
    // learnt) survives the reduction.
    for (lits, lbd) in &before {
        if *lbd <= 2 || lits.len() == 2 {
            assert!(
                after.iter().any(|(l, _)| l == lits),
                "glue clause {lits:?} (lbd {lbd}) was deleted"
            );
        }
    }
    // Survivors are a subset of the previous database.
    for (lits, _) in &after {
        assert!(before.iter().any(|(l, _)| l == lits));
    }
}

#[test]
fn reduction_never_deletes_locked_reasons() {
    // Level-zero propagations lock their reason clauses for the lifetime
    // of the solver; reductions must keep them even at budget zero.
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    let c = s.new_var();
    let d = s.new_var();
    s.add_clause(&[a.neg(), b.pos(), c.pos()]);
    s.add_clause(&[a.pos()]);
    s.add_clause(&[b.neg()]);
    // `c` is now implied at level 0 with the ternary clause as its reason.
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(s.model_value(c));
    s.add_clause(&[c.neg(), d.pos()]);
    s.set_max_learnts(0);
    s.force_reduce();
    s.debug_check_invariants().unwrap();
    assert_eq!(s.solve(), SolveResult::Sat);
    assert!(s.model_value(c) && s.model_value(d));
}

#[test]
fn solver_correct_under_aggressive_reduction() {
    // Differential run with a pathologically small learnt budget: clause
    // deletion must never change verdicts.
    let mut rng = XorShift(0xdead_beef_0bad_cafe);
    for round in 0..150 {
        let num_vars = 6 + (round % 6);
        let num_clauses = 2 + (rng.below(5 * num_vars as u64) as usize);
        let clauses = random_3sat(&mut rng, num_vars, num_clauses);
        let oracle = solve_dpll(num_vars, &clauses);
        let mut s = build(num_vars, &clauses);
        s.set_max_learnts(2);
        let got = s.solve();
        assert_eq!(
            oracle.is_some(),
            got == SolveResult::Sat,
            "round {round}: {clauses:?}"
        );
        if got == SolveResult::Sat {
            let model: Vec<bool> = (0..num_vars).map(|i| s.model_value(v(i))).collect();
            assert!(evaluate(&clauses, &model), "round {round}: non-model");
        }
        s.debug_check_invariants().unwrap();
    }
}

#[test]
fn lemma_counter_tracks_add_lemma() {
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    let c = s.new_var();
    assert!(s.add_lemma(&[a.neg(), b.neg(), c.pos()]));
    assert!(s.add_lemma(&[a.pos(), b.pos()]));
    assert_eq!(s.stats().lemmas_added, 2);
    assert_eq!(s.stats().conflicts, 0);
    s.debug_check_invariants().unwrap();
}

// ---------------------------------------------------------------------------
// Watch tables exist only once a clause is stored.
// ---------------------------------------------------------------------------

/// A solver whose clauses all reduce at level zero: units, clauses
/// satisfied by them, clauses that shrink to units, and tautologies.
fn units_only(n: usize) -> Solver {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
    for (i, &x) in vars.iter().enumerate() {
        if i % 2 == 0 {
            assert!(s.add_clause(&[x.lit(i % 4 == 0)]));
        } else {
            // Its neighbour is already false here, so this is a unit.
            let prev = vars[i - 1].lit((i - 1) % 4 != 0);
            assert!(s.add_clause(&[prev, x.pos(), prev]));
        }
    }
    assert!(s.add_clause(&[vars[0].pos(), vars[1].neg(), vars[2].pos()]));
    assert!(s.add_clause(&[vars[3].pos(), vars[3].neg()]));
    s
}

/// Probe every single-literal assumption and return the verdicts.
fn entailment_profile(s: &mut Solver) -> Vec<SolveResult> {
    (0..s.num_vars())
        .flat_map(|i| [v(i).pos(), v(i).neg()])
        .map(|l| s.solve_with_assumptions(&[l]))
        .collect()
}

#[test]
fn units_only_instance_holds_no_watch_tables() {
    let mut s = units_only(12);
    assert_eq!(s.num_clauses(), 0);
    assert_eq!(s.watch_table_len(), 0);
    s.debug_check_invariants().unwrap();
    assert_eq!(s.solve(), SolveResult::Sat);
    for i in 0..12 {
        let want = if i % 2 == 0 { i % 4 == 0 } else { true };
        assert_eq!(s.model_value(v(i)), want, "v{i}");
    }
    assert_eq!(s.stats().propagations, 12, "every unit is propagated once");
    // Entailment probes: an assumption against a unit is refuted, one
    // that agrees with it is satisfiable, and nothing is learnt.
    let profile = entailment_profile(&mut s);
    for (code, verdict) in profile.into_iter().enumerate() {
        let lit = Lit::from_code(code);
        let want = if s.model_value(lit.var()) == lit.is_pos() {
            SolveResult::Sat
        } else {
            SolveResult::Unsat
        };
        assert_eq!(verdict, want, "{lit:?}");
    }
    assert_eq!(s.watch_table_len(), 0);
    // Clause intake that stores nothing retains nothing: the simplifying
    // buffer is reused, so the footprint does not move.
    let before = s.heap_bytes();
    for i in 0..100 {
        assert!(s.add_clause(&[v(i % 12).pos(), v(i % 12).neg(), v((i + 1) % 12).pos()]));
        assert!(s.add_clause(&[v(0).pos(), v(i % 12).pos()]));
    }
    assert_eq!(s.heap_bytes(), before);
    assert_eq!(s.watch_table_len(), 0);
    // Contradicting a unit makes the instance unsatisfiable for good.
    assert!(!s.add_clause(&[v(0).neg()]));
    assert_eq!(s.solve(), SolveResult::Unsat);
    s.debug_check_invariants().unwrap();
}

#[test]
fn watch_tables_appear_on_first_stored_clause_and_cover_later_vars() {
    let mut s = units_only(6);
    let heap_without = s.heap_bytes();
    assert_eq!(s.watch_table_len(), 0);
    let (a, b) = (s.new_var(), s.new_var());
    assert_eq!(
        s.watch_table_len(),
        0,
        "new_var adds no lists before a clause"
    );
    assert!(s.add_clause(&[a.neg(), b.pos()]));
    assert_eq!(s.num_clauses(), 1);
    assert_eq!(s.watch_table_len(), 2 * 8);
    assert!(s.heap_bytes() > heap_without);
    s.debug_check_invariants().unwrap();
    // Variables added after the first clause get their lists at once.
    let (c, d) = (s.new_var(), s.new_var());
    assert_eq!(s.watch_table_len(), 2 * 10);
    s.debug_check_invariants().unwrap();
    assert!(s.add_clause(&[b.neg(), c.neg(), d.pos()]));
    assert!(s.add_clause(&[c.pos(), d.pos()]));
    s.debug_check_invariants().unwrap();
    // a → b, and b ∧ c → d, and c ∨ d: assuming a and ¬d is refuted.
    assert_eq!(
        s.solve_with_assumptions(&[a.pos(), d.neg()]),
        SolveResult::Unsat
    );
    assert_eq!(s.solve_with_assumptions(&[a.pos()]), SolveResult::Sat);
    assert!(s.model_value(b) && s.model_value(d));
    // Units on stored clauses' literals propagate through the tables to
    // a level-zero conflict.
    assert!(s.add_clause(&[a.pos()]));
    assert!(!s.add_clause(&[d.neg()]));
    assert_eq!(s.solve(), SolveResult::Unsat);
    s.debug_check_invariants().unwrap();
}

#[test]
fn learnt_clauses_and_reductions_keep_table_invariants() {
    let mut s = units_only(10);
    add_pigeonhole(&mut s, 6, 5);
    assert_eq!(s.watch_table_len(), 2 * s.num_vars());
    s.set_max_learnts(8);
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert!(s.stats().learnt_deleted > 0, "{:?}", s.stats());
    s.debug_check_invariants().unwrap();

    // A satisfiable variant keeps learnt clauses around to reduce.
    let mut s = units_only(10);
    add_pigeonhole(&mut s, 5, 5);
    assert_eq!(s.solve(), SolveResult::Sat);
    s.debug_check_invariants().unwrap();
    s.set_max_learnts(0);
    s.force_reduce();
    s.debug_check_invariants().unwrap();
    assert_eq!(s.watch_table_len(), 2 * s.num_vars());
    let extra = s.new_var();
    assert_eq!(s.watch_table_len(), 2 * s.num_vars());
    assert!(s.add_clause(&[extra.pos(), v(10).pos(), v(11).pos()]));
    assert_eq!(s.solve(), SolveResult::Sat);
    s.debug_check_invariants().unwrap();
}

#[test]
fn clone_and_clone_from_cross_watch_table_states() {
    let mut bare = units_only(8);
    let mut full = units_only(8);
    add_pigeonhole(&mut full, 4, 4);
    assert_eq!(full.solve(), SolveResult::Sat);
    let bare_profile = entailment_profile(&mut bare);
    let full_profile = entailment_profile(&mut full);

    // Without tables → with tables, by clone and by clone_from.
    let mut grown = bare.clone();
    grown.clone_from(&full);
    assert_eq!(grown.watch_table_len(), 2 * full.num_vars());
    grown.debug_check_invariants().unwrap();
    assert_eq!(entailment_profile(&mut grown), full_profile);
    let mut copied = full.clone();
    copied.debug_check_invariants().unwrap();
    assert_eq!(entailment_profile(&mut copied), full_profile);

    // With tables → without tables.
    let mut shrunk = full.clone();
    shrunk.clone_from(&bare);
    assert_eq!(shrunk.watch_table_len(), 0);
    assert_eq!(shrunk.num_clauses(), 0);
    shrunk.debug_check_invariants().unwrap();
    assert_eq!(entailment_profile(&mut shrunk), bare_profile);
    let mut plain = bare.clone();
    assert_eq!(plain.watch_table_len(), 0);
    assert_eq!(entailment_profile(&mut plain), bare_profile);

    // The copies stay usable, and work on them never leaks back.
    let (x, y) = (shrunk.new_var(), shrunk.new_var());
    assert!(shrunk.add_clause(&[x.pos(), y.neg()]));
    assert_eq!(shrunk.watch_table_len(), 2 * shrunk.num_vars());
    shrunk.debug_check_invariants().unwrap();
    let y = grown.new_var();
    assert!(grown.add_clause(&[y.neg(), v(8).pos(), v(9).pos()]));
    grown.debug_check_invariants().unwrap();
    assert_eq!(bare.watch_table_len(), 0);
    assert_eq!(entailment_profile(&mut bare), bare_profile);
    assert_eq!(entailment_profile(&mut full), full_profile);
}

#[test]
fn stats_aggregation_covers_new_counters() {
    let mut x = crate::SolverStats {
        learnt_kept: 1,
        learnt_deleted: 2,
        lemmas_added: 3,
        ..Default::default()
    };
    let y = crate::SolverStats {
        learnt_kept: 10,
        learnt_deleted: 20,
        lemmas_added: 30,
        conflicts: 5,
        ..Default::default()
    };
    x += y;
    assert_eq!(
        (x.learnt_kept, x.learnt_deleted, x.lemmas_added, x.conflicts),
        (11, 22, 33, 5)
    );
    let total: crate::SolverStats = [x, y].into_iter().sum();
    assert_eq!(total.lemmas_added, 63);
}

// ---------------------------------------------------------------------------
// Differential testing against the DPLL oracle.
// ---------------------------------------------------------------------------

/// Small deterministic xorshift generator so the test needs no external
/// crates at unit-test level.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_3sat(rng: &mut XorShift, num_vars: usize, num_clauses: usize) -> Vec<Vec<Lit>> {
    (0..num_clauses)
        .map(|_| {
            (0..3)
                .map(|_| {
                    let var = Var::from_index(rng.below(num_vars as u64) as usize);
                    var.lit(rng.below(2) == 0)
                })
                .collect()
        })
        .collect()
}

#[test]
fn cdcl_agrees_with_dpll_on_random_3sat() {
    let mut rng = XorShift(0x5eed_cafe_f00d_0001);
    for round in 0..300 {
        let num_vars = 3 + (round % 8);
        // Around the phase-transition ratio 4.26 plus sparser/denser mixes.
        let num_clauses = 1 + (rng.below(5 * num_vars as u64) as usize);
        let clauses = random_3sat(&mut rng, num_vars, num_clauses);
        let oracle = solve_dpll(num_vars, &clauses);
        let mut s = build(num_vars, &clauses);
        let got = s.solve();
        match (&oracle, got) {
            (Some(_), SolveResult::Sat) => {
                let model: Vec<bool> = (0..num_vars).map(|i| s.model_value(v(i))).collect();
                assert!(
                    evaluate(&clauses, &model),
                    "CDCL produced a non-model in round {round}: {clauses:?}"
                );
            }
            (None, SolveResult::Unsat) => {}
            _ => panic!(
                "solver disagreement in round {round}: oracle={:?} cdcl={:?}\nclauses={clauses:?}",
                oracle.is_some(),
                got
            ),
        }
    }
}

#[test]
fn cdcl_agrees_with_dpll_after_unit_prefixes() {
    // The same sweep with level-zero units added first: a solver spends
    // that prefix without watch tables and must create them mid-intake,
    // or never, when every clause is satisfied or shrinks to a unit.
    let mut rng = XorShift(0x5eed_cafe_f00d_0002);
    let mut tableless = 0;
    for round in 0..300 {
        let num_vars = 3 + (round % 8);
        let num_units = rng.below(num_vars as u64 + 1) as usize;
        let num_clauses = rng.below(5 * num_vars as u64) as usize;
        let mut clauses: Vec<Vec<Lit>> = (0..num_units)
            .map(|_| {
                vec![Var::from_index(rng.below(num_vars as u64) as usize).lit(rng.below(2) == 0)]
            })
            .collect();
        clauses.extend(random_3sat(&mut rng, num_vars, num_clauses));
        let oracle = solve_dpll(num_vars, &clauses);
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for (k, c) in clauses.iter().enumerate() {
            s.add_clause(c);
            if k + 1 == num_units {
                assert_eq!(s.watch_table_len(), 0, "round {round}: units only");
            }
        }
        s.debug_check_invariants().unwrap();
        if s.watch_table_len() == 0 {
            tableless += 1;
        }
        let got = s.solve();
        match (&oracle, got) {
            (Some(_), SolveResult::Sat) => {
                let model: Vec<bool> = (0..num_vars).map(|i| s.model_value(v(i))).collect();
                assert!(evaluate(&clauses, &model), "round {round}: non-model");
            }
            (None, SolveResult::Unsat) => {}
            _ => panic!(
                "solver disagreement in round {round}: oracle={:?} cdcl={got:?}\nclauses={clauses:?}",
                oracle.is_some(),
            ),
        }
        s.debug_check_invariants().unwrap();
    }
    assert!(tableless > 0, "some rounds must never store a clause");
}

#[test]
fn cdcl_assumptions_agree_with_clause_addition() {
    let mut rng = XorShift(0xabcd_1234_5678_9def);
    for round in 0..200 {
        let num_vars = 4 + (round % 5);
        let num_clauses = 2 + (rng.below(4 * num_vars as u64) as usize);
        let clauses = random_3sat(&mut rng, num_vars, num_clauses);
        // Pick one or two assumption literals.
        let n_assume = 1 + (rng.below(2) as usize);
        let assumptions: Vec<Lit> = (0..n_assume)
            .map(|_| Var::from_index(rng.below(num_vars as u64) as usize).lit(rng.below(2) == 0))
            .collect();
        let mut s = build(num_vars, &clauses);
        let with_assumptions = s.solve_with_assumptions(&assumptions);
        // Reference: add the assumptions as unit clauses to a fresh solver.
        let mut hard = clauses.clone();
        for &a in &assumptions {
            hard.push(vec![a]);
        }
        let oracle = solve_dpll(num_vars, &hard);
        assert_eq!(
            with_assumptions == SolveResult::Sat,
            oracle.is_some(),
            "round {round}: assumptions {assumptions:?} over {clauses:?}"
        );
        // The solver must remain usable and consistent with the
        // unconstrained instance afterwards.
        let base = solve_dpll(num_vars, &clauses);
        assert_eq!(s.solve() == SolveResult::Sat, base.is_some());
    }
}

#[test]
fn enumeration_counts_match_dpll_model_count() {
    let mut rng = XorShift(0x0123_4567_89ab_cdef);
    for round in 0..120 {
        let num_vars = 3 + (round % 4); // <= 6 vars: count all models
        let num_clauses = 1 + (rng.below(3 * num_vars as u64) as usize);
        let clauses = random_3sat(&mut rng, num_vars, num_clauses);
        // Count models by brute force.
        let mut expected = 0usize;
        for bits in 0..(1u32 << num_vars) {
            let model: Vec<bool> = (0..num_vars).map(|i| bits >> i & 1 == 1).collect();
            if evaluate(&clauses, &model) {
                expected += 1;
            }
        }
        let mut s = build(num_vars, &clauses);
        let all: Vec<Var> = (0..num_vars).map(v).collect();
        let mut seen = std::collections::HashSet::new();
        let r = s.for_each_model(&all, 1 << 16, |m| {
            assert!(seen.insert(m.to_vec()), "duplicate model in round {round}");
            true
        });
        assert_eq!(
            r,
            Enumeration::Complete(expected),
            "round {round}: {clauses:?}"
        );
    }
}

#[test]
fn clone_and_clone_from_yield_independent_equivalent_solvers() {
    // Per-reader scratch relies on two properties of `Clone`: the copy
    // answers exactly like the original (clause database, learnt clauses
    // and phases included), and work done on the copy never leaks back.
    let mut rng = XorShift(0xfeed_f00d_dead_beef);
    let mut recycled = Solver::new(); // refreshed via clone_from each round
    for round in 0..60 {
        let num_vars = 4 + (round % 5);
        let num_clauses = 2 + (rng.below(3 * num_vars as u64) as usize);
        let clauses = random_3sat(&mut rng, num_vars, num_clauses);
        let mut shared = build(num_vars, &clauses);
        let shared_result = shared.solve(); // accumulate learnt state first
        let mut fresh = shared.clone();
        recycled.clone_from(&shared); // reuses the previous round's buffers
        assert_eq!(fresh.num_vars(), shared.num_vars(), "round {round}");
        assert_eq!(fresh.num_clauses(), shared.num_clauses(), "round {round}");
        assert_eq!(
            recycled.num_clauses(),
            shared.num_clauses(),
            "round {round}"
        );
        // Both copies agree with the original on every single-assumption
        // entailment probe.
        for i in 0..num_vars {
            for lit in [v(i).pos(), v(i).neg()] {
                let want = shared.solve_with_assumptions(&[lit]);
                assert_eq!(fresh.solve_with_assumptions(&[lit]), want, "round {round}");
                assert_eq!(
                    recycled.solve_with_assumptions(&[lit]),
                    want,
                    "round {round}"
                );
            }
        }
        // Mutating a copy (extra unit lemma) leaves the original untouched.
        if shared_result == SolveResult::Sat {
            let pinned = v(0).pos();
            fresh.add_clause(&[pinned]);
            let _ = fresh.solve();
            assert_eq!(shared.solve(), SolveResult::Sat, "round {round}");
        }
    }
}

// ---------------------------------------------------------------------------
// Cooperative work budgets.
// ---------------------------------------------------------------------------

#[test]
fn unbounded_limits_are_recognized() {
    use crate::Limits;
    assert!(Limits::default().is_unbounded());
    assert!(!Limits {
        max_conflicts: Some(1),
        ..Default::default()
    }
    .is_unbounded());
    assert!(!Limits {
        max_props: Some(1),
        ..Default::default()
    }
    .is_unbounded());
    assert!(!Limits {
        stop: Some(std::sync::Arc::new(std::sync::atomic::AtomicBool::new(
            false
        ))),
        ..Default::default()
    }
    .is_unbounded());
}

#[test]
fn raised_stop_flag_interrupts_before_any_work() {
    use crate::{Limits, SolveOutcome};
    let mut rng = XorShift(0x5702_f1a6_0000_0001);
    let clauses = random_3sat(&mut rng, 8, 30);
    let mut s = build(8, &clauses);
    let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
    let limits = Limits {
        stop: Some(flag.clone()),
        ..Default::default()
    };
    let before = s.stats().decisions;
    assert_eq!(s.solve_limited(&limits), SolveOutcome::Interrupted);
    assert_eq!(s.stats().decisions, before, "interrupt must precede search");
    // Lowering the flag lets the same call signature finish the solve.
    flag.store(false, std::sync::atomic::Ordering::Relaxed);
    let finished = s.solve_limited(&limits);
    assert_ne!(finished, SolveOutcome::Interrupted);
    assert_eq!(
        finished == SolveOutcome::Sat,
        solve_dpll(8, &clauses).is_some()
    );
}

#[test]
fn propagation_budget_interrupts_mid_search() {
    use crate::{Limits, SolveOutcome};
    // A chain a -> b -> c -> d forces propagations once `a` is decided.
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
    for w in vars.windows(2) {
        s.add_clause(&[w[0].neg(), w[1].pos()]);
    }
    let limits = Limits {
        max_props: Some(1),
        ..Default::default()
    };
    assert_eq!(s.solve_limited(&limits), SolveOutcome::Interrupted);
    // Unbounded retry resumes and completes.
    assert_eq!(s.solve(), SolveResult::Sat);
}

#[test]
fn escalating_conflict_budgets_never_flip_the_verdict() {
    use crate::{Limits, SolveOutcome};
    // Warm resume: retry the SAME solver with budgets 1, 2, 4, ... and
    // assert the first decided outcome equals the unbounded verdict.
    let mut rng = XorShift(0x1717_c0de_beef_0042);
    for round in 0..150 {
        let num_vars = 5 + (round % 6);
        let num_clauses = 2 + (rng.below(5 * num_vars as u64) as usize);
        let clauses = random_3sat(&mut rng, num_vars, num_clauses);
        let oracle = solve_dpll(num_vars, &clauses);
        let mut s = build(num_vars, &clauses);
        let mut budget = 1u64;
        let decided = loop {
            let limits = Limits {
                max_conflicts: Some(budget),
                max_props: Some(budget * 16),
                ..Default::default()
            };
            match s.solve_limited(&limits) {
                SolveOutcome::Interrupted => {
                    s.debug_check_invariants().unwrap();
                    budget *= 2;
                }
                decided => break decided,
            }
        };
        assert_eq!(
            decided == SolveOutcome::Sat,
            oracle.is_some(),
            "round {round}: warm resume flipped the verdict on {clauses:?}"
        );
        if decided == SolveOutcome::Sat {
            let model: Vec<bool> = (0..num_vars).map(|i| s.model_value(v(i))).collect();
            assert!(evaluate(&clauses, &model), "round {round}: non-model");
        }
    }
}
