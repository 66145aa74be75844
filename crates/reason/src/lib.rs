//! # currency-reason
//!
//! Decision procedures for the seven data-currency problems of Fan, Geerts
//! & Wijsen (PODS 2011 / TODS 2012), over the model of `currency-core`:
//!
//! | Problem | Question | General complexity | This crate |
//! |---------|----------|--------------------|------------|
//! | **CPS**  | is the specification consistent (`Mod(S) ≠ ∅`)? | Σᵖ₂-c / NP-c | [`cps`] |
//! | **COP**  | is a currency order contained in every consistent completion? | Πᵖ₂-c / coNP-c | [`cop`] |
//! | **DCIP** | do all completions agree on the current instance? | Πᵖ₂-c / coNP-c | [`dcip`] |
//! | **CCQA** | is a tuple a certain current answer to a query? | Πᵖ₂–PSPACE / coNP-c | [`ccqa`], [`certain_answers`] |
//! | **CPP**  | do the copy functions already import enough current data? | Πᵖ₃–PSPACE / Πᵖ₂-c | [`cpp`] |
//! | **ECP**  | can the copy functions be extended to be currency preserving? | O(1) | [`ecp`], [`maximum_extension`] |
//! | **BCP**  | … with at most `k` additional copied tuples? | Σᵖ₄–PSPACE / Σᵖ₃-c | [`bcp`] |
//!
//! ## Engines
//!
//! * **SAT-based exact solvers** ([`encode`]): consistent completions are
//!   encoded as propositional models over *order variables* (one Boolean
//!   per unordered same-entity tuple pair per attribute), with structural
//!   totality/antisymmetry, lazily checked transitivity, grounded denial
//!   constraints, and copy-compatibility implications.  Current instances
//!   are enumerated through projected All-SAT over *value indicator*
//!   variables.  The engine is `currency-sat`'s CDCL solver.
//!
//!   The exact path is served by the **entity-partitioned
//!   [`CurrencyEngine`]** ([`engine`], [`partition`]): the CNF factors
//!   into independent components over `(relation, entity)` cells, each
//!   compiled once into a cached incremental solver and queried with
//!   assumptions — repeated queries over one specification cost
//!   O(solve touched components) instead of O(encode whole spec), and
//!   components compile and solve in parallel ([`Options::threads`]).
//!   The engine is also *live*: [`CurrencyEngine::apply`] feeds it a
//!   [`currency_core::SpecDelta`] (tuple inserts/removals, new order
//!   edges, constraints, copy extensions), re-partitions incrementally
//!   and recompiles only the touched components — see [`engine`] and
//!   [`partition`].
//!
//!   The engine is the one writer of every front door.  For
//!   read-mostly concurrent serving, [`CurrencyEngine::snapshot`] freezes
//!   its compiled state into an immutable [`EngineSnapshot`] in O(top
//!   level) ([`snapshot`]); a front door publishes snapshots through a
//!   [`SnapshotCell`], and any number of [`SnapshotReader`]s answer
//!   CPS/COP/DCIP/CCQA against their pinned epoch with zero shared locks,
//!   solving only on throwaway clones.  The engine and its snapshots share
//!   one implementation of every query.  The `currency-serve` crate
//!   builds the caching/rate-limited front door on top; the durable
//!   store and the sharded engine never take a snapshot, so their writes
//!   copy no page.
//!
//!   Bounds belong to the query: a [`SnapshotReader`] is the one place a
//!   deadline or a per-solve work budget ([`SolveLimits`]) is set, and a
//!   query it stops surfaces as [`ReasonError::Interrupted`], never as a
//!   verdict.  [`Options`] carries no bound: the writer decides every
//!   component it compiles, and the engine's own queries run unbounded.
//! * **Reference solvers** (`oracle` and `enumerate`, built only with
//!   the `oracle` feature): the whole-specification encoding behind the
//!   `*_monolithic` functions, eager transitivity, and brute-force
//!   iteration over all completions — ground truth for the differential
//!   tests and the benchmark's reference rows, never a production path.
//! * **PTIME special-case algorithms** (paper §6): the fixpoint
//!   computation of certain orders `PO∞` ([`po_infinity`], Theorem 6.1),
//!   the `poss(S)` algorithm for SP queries ([`certain_answers_sp`],
//!   Proposition 6.3), and polynomial currency-preservation checks for SP
//!   queries without denial constraints ([`cpp_sp`], [`bcp_sp`],
//!   Theorem 6.4).
//!
//! Top-level functions dispatch automatically: when a specification has no
//! denial constraints (and, for query problems, the query is SP), the
//! PTIME algorithms are used; otherwise the SAT-based exact solvers run.

mod ccqa;
mod cop;
mod cps;
mod dcip;
pub mod encode;
pub mod engine;
#[cfg(any(test, feature = "oracle"))]
pub mod enumerate;
mod error;
pub mod explain;
mod fixpoint;
pub mod obs;
#[cfg(any(test, feature = "oracle"))]
pub mod oracle;
pub mod partition;
mod preserve;
mod preserve_sp;
pub mod shard;
pub mod snapshot;
mod sp_ptime;

pub use ccqa::{ccqa, ccqa_exact, certain_answers, certain_answers_exact, CertainAnswers};
pub use cop::{cop, cop_exact, cop_ptime, CurrencyOrderQuery};
pub use cps::{cps, cps_exact, cps_ptime, witness_completion};
/// The per-SAT-call work budget (see [`SnapshotReader::set_solve_limits`]).
pub use currency_sat::SolveLimits;
pub use dcip::{dcip, dcip_exact, dcip_ptime};
pub use encode::Bounds;
pub use engine::{ApplyReport, CurrencyEngine, EngineStats};
pub use error::ReasonError;
pub use explain::{explain_inconsistency, InconsistencyCore, SpecComponent};
pub use fixpoint::{po_infinity, CertainOrders};
pub use obs::EngineObs;
pub use partition::{Partition, RefreshPlan, RefreshScratch};
pub use preserve::{bcp, cpp, ecp, maximum_extension, ExtensionSlot, PreservationProblem};
pub use preserve_sp::{bcp_sp, cpp_sp};
pub use shard::{
    ShardError, ShardPlan, Sharded, ShardedApplyReport, ShardedCompactStepReport, ShardedEngine,
    ShardedStats, SpecImport,
};
pub use snapshot::{EngineSnapshot, SnapshotCell, SnapshotReader};
pub use sp_ptime::{ccqa_sp, certain_answers_sp, poss_instance};

/// Work actually performed before an interrupt, reported in
/// [`ReasonError::Interrupted`] so callers can size the retry budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Spent {
    /// Conflicts hit before the interrupt.
    pub conflicts: u64,
    /// Unit propagations performed before the interrupt.
    pub propagations: u64,
}

/// Pause budget for one incremental-compaction step
/// ([`engine::CurrencyEngine::compact_step`] and the auto-compaction
/// policy, see [`Options::auto_compact_budget`]).
///
/// A *step* executes canonical compaction slices
/// ([`currency_core::Specification::compact_slice`]) until either bound
/// trips: `max_slots_per_step` caps the slots scanned (the deterministic
/// bound — the only one the auto policy uses, so log replay reproduces
/// the same slices on any machine), `max_pause` caps wall-clock time for
/// explicit maintenance calls.  Every step leaves the engine fully
/// consistent and queryable; the sweep's progress lives in the
/// specification itself, so steps may be spread across applies, threads
/// of control, or process restarts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactBudget {
    /// Wall-clock ceiling for one [`engine::CurrencyEngine::compact_step`]
    /// call.  Checked between slices (a single slice's work is already
    /// bounded by `max_slots_per_step`), ignored by the auto-step policy
    /// for replay determinism.
    pub max_pause: std::time::Duration,
    /// Maximum slots scanned per step across all its slices.  The
    /// deterministic work bound: a step over a specification state and a
    /// slot budget always executes the same slices.
    pub max_slots_per_step: usize,
}

impl Default for CompactBudget {
    /// 250 ms pause ceiling, 4096 scanned slots per step — small enough
    /// to interleave with a live delta stream, large enough that a churn
    /// backlog drains in a few hundred steps.
    fn default() -> CompactBudget {
        CompactBudget {
            max_pause: std::time::Duration::from_millis(250),
            max_slots_per_step: 4096,
        }
    }
}

/// Resource limits for the exact (enumeration-heavy) solvers.
///
/// The general problems are Σᵖ₂-hard and worse; the exact solvers can be
/// asked questions whose answer requires visiting exponentially many
/// projected models or extensions.  `Options` bounds that work so callers
/// get a [`ReasonError::BudgetExceeded`] instead of an unbounded run.
///
/// Transitivity has no option: the engines always enforce it lazily
/// (see [`encode`]), which the `scaling` section of `bench_engine`
/// measures against eager grounding.
///
/// Bounds have no option: set them on a [`SnapshotReader`]
/// ([`SnapshotReader::set_deadline`], [`SnapshotReader::set_solve_limits`]).
/// The writer always decides the components it compiles, and the engine's
/// own queries run unbounded.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Maximum number of projected models visited per All-SAT enumeration.
    ///
    /// The [`engine::CurrencyEngine`] applies this bound per entity
    /// component *and* to the composed cross-component product, so a
    /// budget that held for one whole-specification enumeration keeps
    /// holding.
    pub max_models: usize,
    /// Maximum number of copy-function extensions examined per CPP/BCP
    /// check.
    pub max_extensions: usize,
    /// Worker threads for the engine's component compilation and solves.
    ///
    /// `0` (the default) means "use the machine's available parallelism";
    /// `1` forces sequential operation.
    pub threads: usize,
    /// Auto-compaction threshold: while the specification's accumulated
    /// retraction tombstones are at or above this count, every
    /// [`engine::CurrencyEngine::apply`] runs **one bounded compaction
    /// step** after applying the delta (surfaced through
    /// [`engine::ApplyReport::compact_step`], whose translation table
    /// covers the tuple ids the step remapped).  Reclamation thus
    /// interleaves with the delta stream and no single apply pauses for
    /// O(specification).  `0` (the default) disables the policy;
    /// retraction-heavy streams then grow one dead id slot per removal
    /// until an explicit `compact()` or `compact_step()` call.
    ///
    /// Replay determinism: engines recovered from a durability log
    /// (`currency-store`) must be reopened with the same threshold, or
    /// log replay would expect steps at different points than the
    /// original run took them (the recovery path detects this and fails
    /// cleanly rather than diverging silently).
    pub auto_compact_tombstones: usize,
    /// Slot bound of each auto step: at most
    /// [`CompactBudget::max_slots_per_step`] slots are scanned per step.
    /// `None` (the default) means [`CompactBudget::default`].
    ///
    /// The auto path deliberately ignores [`CompactBudget::max_pause`]:
    /// a wall-clock cutoff would make the step's slice boundaries depend
    /// on machine speed and break log-replay determinism.  Explicit
    /// [`engine::CurrencyEngine::compact_step`] calls honor both bounds
    /// (the durability layer logs whatever slices actually ran).
    pub auto_compact_budget: Option<CompactBudget>,
}

impl Options {
    /// Whether the auto-compaction policy takes a step after a delta
    /// that left `spec` in its current state (see
    /// [`Options::auto_compact_tombstones`]).
    pub fn auto_compact_due(&self, spec: &currency_core::Specification) -> bool {
        self.auto_compact_tombstones > 0 && spec.total_tombstones() >= self.auto_compact_tombstones
    }

    /// Slots one auto-compaction step may scan (see
    /// [`Options::auto_compact_budget`]).
    pub fn auto_compact_slots(&self) -> usize {
        self.auto_compact_budget
            .unwrap_or_default()
            .max_slots_per_step
    }
}

impl Default for Options {
    fn default() -> Options {
        Options {
            max_models: 1_000_000,
            max_extensions: 1_000_000,
            threads: 0,
            auto_compact_tombstones: 0,
            auto_compact_budget: None,
        }
    }
}
