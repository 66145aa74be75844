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
//! * solving under assumptions and a cooperative work budget
//!   ([`Solver::solve_limited_with_assumptions`] under [`SolveLimits`];
//!   the default budget is no bound, and [`Solver::solve`] is that call
//!   with no assumptions),
//! * model enumeration projected onto a variable subset (All-SAT with
//!   blocking clauses),
//! * theory-lemma installation ([`Solver::add_lemma`]) feeding the lazy
//!   transitivity refinement loop in `currency-reason`.
//!
//! A deliberately naive DPLL solver (the `dpll` module, compiled only
//! under `cfg(test)`) serves as the reference the unit tests check the
//! CDCL solver against.
//!
//! No external SAT crate is used: none is in the project's allowed offline
//! dependency set, and the engine is small enough to be in-scope substrate
//! work (see the README's "Solver hot path" section).
//!
//! ## Example
//!
//! ```
//! use currency_sat::{SolveLimits, SolveOutcome, Solver};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[a.pos(), b.pos()]);
//! s.add_clause(&[a.neg(), b.pos()]);
//! // A budget of zero conflicts interrupts before any search: never a
//! // verdict, and a retry resumes warm.
//! let starved = SolveLimits { max_conflicts: Some(0), max_props: None };
//! assert_eq!(s.solve_limited_with_assumptions(&[], &starved), SolveOutcome::Interrupted);
//! // The default budget is no bound.
//! let unbounded = SolveLimits::default();
//! assert_eq!(s.solve_limited_with_assumptions(&[a.pos()], &unbounded), SolveOutcome::Sat);
//! assert!(s.model_value(b));
//! ```

#[cfg(test)]
mod dpll;
mod heap;
mod luby;
mod solver;
mod types;

pub use luby::luby;
pub use solver::{
    enumerate_projected, Enumeration, ModelSource, SolveLimits, SolveOutcome, SolveResult, Solver,
    SolverStats,
};
pub use types::{Lit, Var};

#[cfg(test)]
mod tests;
