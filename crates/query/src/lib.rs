//! # currency-query
//!
//! The query-language family of Fan, Geerts & Wijsen's data-currency paper,
//! with evaluators over normal instances.
//!
//! The paper analyses the certain-current-query-answering problem for a
//! tower of languages:
//!
//! ```text
//! SP ⊂ CQ ⊂ UCQ ⊂ ∃FO⁺ ⊂ FO
//! ```
//!
//! * **SP** — selection/projection queries over a single relation atom
//!   (no join); the language of the paper's tractable cases (§6).
//! * **CQ** — conjunctive queries (relation atoms + equality, closed under
//!   `∧`, `∃`).
//! * **UCQ** — unions of conjunctive queries.
//! * **∃FO⁺** — existential positive FO (adds `∨` everywhere).
//! * **FO** — full first-order logic (adds `¬`, `∀`).
//!
//! This crate provides the shared AST ([`Formula`], [`Query`]), structural
//! classification into the tower ([`QueryClass`], [`classify`]), a
//! dedicated SP representation ([`SpQuery`]) used by the PTIME algorithms
//! in `currency-reason`, and two evaluators:
//!
//! * a bottom-up relational evaluator for positive formulas (joins,
//!   unions, projections) — used for CQ/UCQ/∃FO⁺ workloads where
//!   active-domain enumeration would be hopeless;
//! * an active-domain evaluator for full FO (the paper's FO queries are
//!   evaluated under active-domain semantics, as usual for certain-answer
//!   analyses).
//!
//! Queries are posed over [`Database`]s of normal instances — in the
//! currency setting these are the *current instances* `LST(Dᶜ)` produced
//! by `currency-core`.

mod ast;
mod classify;
mod eval;
mod parser;
mod sp;

pub use ast::{Atom, Formula, QVar, Query, QueryBuilder, Term};
pub use classify::{classify, is_single_witness, QueryClass};
pub use currency_core::CmpOp;
pub use eval::{Database, EvalError};
pub use parser::{parse_query, ParseError};
pub use sp::{as_sp, SpCondition, SpQuery};
