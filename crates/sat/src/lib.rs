//! # currency-sat
//!
//! A small, self-contained CDCL SAT solver used as the exact-reasoning
//! substrate of the `data-currency` workspace.
//!
//! The decision problems of Fan, Geerts & Wijsen's *Determining the Currency
//! of Data* (PODS 2011) sit between NP and Σᵖ₄.  Their exact solvers in
//! `currency-reason` reduce consistent-completion search to propositional
//! satisfiability over *order variables* (one Boolean per unordered tuple
//! pair, per attribute).  This crate provides the engine:
//!
//! * conflict-driven clause learning (first-UIP),
//! * two-watched-literal unit propagation with blocking literals and
//!   inlined binary-clause watchers (binary clauses propagate without
//!   touching the clause database),
//! * LBD-based learnt-clause database reduction with glue protection —
//!   learnt clauses are no longer kept for the solver's lifetime; see
//!   [`SolverStats::learnt_deleted`],
//! * VSIDS-style activity heuristics with a lazy binary heap,
//! * Luby restarts and phase saving,
//! * solving under assumptions,
//! * model enumeration projected onto a variable subset (All-SAT with
//!   blocking clauses),
//! * theory-lemma installation ([`Solver::add_lemma`]) feeding the lazy
//!   transitivity refinement loop in `currency-reason`.
//!
//! A deliberately naive DPLL solver ([`solve_dpll`]) serves as a reference
//! implementation for differential testing.
//!
//! No external SAT crate is used: none is in the project's allowed offline
//! dependency set, and the engine is small enough to be in-scope substrate
//! work (see the README's "Solver hot path" section).
//!
//! ## Example
//!
//! ```
//! use currency_sat::{Solver, SolveResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[a.pos(), b.pos()]);
//! s.add_clause(&[a.neg(), b.pos()]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert!(s.model_value(b));
//! ```

mod dpll;
mod heap;
mod luby;
mod solver;
mod types;

pub use dpll::solve_dpll;
pub use luby::luby;
pub use solver::{
    enumerate_projected, Enumeration, Limits, ModelSource, SolveOutcome, SolveResult, Solver,
    SolverStats,
};
pub use types::{Lit, Var};

#[cfg(test)]
mod tests;
