//! The CDCL solver proper.
//!
//! Architecture follows MiniSat (Eén & Sörensson, 2003) with the standard
//! hot-path refinements of its descendants: two watched literals per
//! clause with *blocking literals* (a satisfied-clause probe that skips
//! the clause dereference entirely), *inlined binary-clause watchers*
//! (two-literal clauses propagate straight from the watch list, never
//! touching the clause database), first-UIP conflict analysis, VSIDS
//! decision heuristic, phase saving, Luby restarts, and Glucose-style
//! *LBD-based learnt-clause database reduction*: learnt clauses carry the
//! literal-block-distance of their derivation, low-LBD ("glue") clauses
//! and clauses locked as propagation reasons are kept forever, and the
//! rest is periodically halved by activity so long refinement runs (e.g.
//! the lazy transitivity loop in `currency-reason`) cannot drown the
//! solver in stale lemma-derived learnt clauses.

use crate::heap::ActivityHeap;
use crate::luby::luby;
use crate::types::{LBool, Lit, Var};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with
    /// [`Solver::model_value`].
    Sat,
    /// The clauses (under the given assumptions, if any) are unsatisfiable.
    Unsat,
}

/// Outcome of a budgeted [`Solver::solve_limited`] call: the two verdicts
/// of [`SolveResult`] plus the honest third answer a bounded search needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveOutcome {
    /// A satisfying assignment was found; read it with
    /// [`Solver::model_value`].
    Sat,
    /// The clauses (under the given assumptions, if any) are unsatisfiable.
    Unsat,
    /// A [`Limits`] budget ran out (or the stop flag was raised) before
    /// the search decided the instance.  **Never a verdict**: the instance
    /// may be either satisfiable or unsatisfiable.  All state learnt so
    /// far — learnt clauses, variable activities, saved phases — is kept,
    /// so calling again with a fresh budget resumes the search warm
    /// instead of restarting it.
    Interrupted,
}

impl From<SolveResult> for SolveOutcome {
    fn from(r: SolveResult) -> SolveOutcome {
        match r {
            SolveResult::Sat => SolveOutcome::Sat,
            SolveResult::Unsat => SolveOutcome::Unsat,
        }
    }
}

/// Cooperative work budget for one [`Solver::solve_limited`] call.
///
/// All fields measure work *within the call* (spent counters start at
/// zero each call), so a caller granting installments of `n` conflicts
/// per call hands out exactly `n` more units of work each retry.  The
/// default is fully unbounded — identical to [`Solver::solve`].
#[derive(Clone, Debug, Default)]
pub struct Limits {
    /// Interrupt after this many conflicts within the call.
    pub max_conflicts: Option<u64>,
    /// Interrupt after this many unit propagations within the call.
    pub max_props: Option<u64>,
    /// Externally raised stop flag, polled once per search-loop
    /// iteration (`Relaxed`; raising it interrupts promptly but not
    /// instantaneously).
    pub stop: Option<Arc<AtomicBool>>,
}

impl Limits {
    /// `true` if no budget is set: the solve cannot be interrupted.
    pub fn is_unbounded(&self) -> bool {
        self.max_conflicts.is_none() && self.max_props.is_none() && self.stop.is_none()
    }
}

/// Outcome of [`Solver::for_each_model`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Enumeration {
    /// All projected models were visited; carries the count.
    Complete(usize),
    /// The callback requested an early stop; carries the count so far.
    Stopped(usize),
    /// The model limit was reached before exhausting the space.
    LimitReached(usize),
    /// The model source's budget ran out mid-enumeration (see
    /// [`SolveOutcome::Interrupted`]); carries the count found so far.
    /// The models already reported are real, but the space was not
    /// exhausted — treat the enumeration as undecided, never as complete.
    Interrupted(usize),
}

/// Counters exposed for benchmarking and ablation studies.
#[derive(Clone, Copy, Default, Debug)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Learnt clauses surviving clause-database reductions (cumulative
    /// across reduction passes).
    pub learnt_kept: u64,
    /// Learnt clauses deleted by clause-database reductions.
    pub learnt_deleted: u64,
    /// Theory lemmas installed via [`Solver::add_lemma`] (e.g. lazy
    /// transitivity refinement rounds in `currency-reason`).
    pub lemmas_added: u64,
}

impl SolverStats {
    /// Counters accumulated since `earlier` — the per-solve delta an
    /// observability layer records as histogram observations.  Every
    /// field is monotone within one solver's lifetime; the subtraction
    /// saturates so comparing snapshots of unrelated solvers cannot
    /// wrap.
    pub fn delta(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learnt_kept: self.learnt_kept.saturating_sub(earlier.learnt_kept),
            learnt_deleted: self.learnt_deleted.saturating_sub(earlier.learnt_deleted),
            lemmas_added: self.lemmas_added.saturating_sub(earlier.lemmas_added),
        }
    }
}

impl std::ops::AddAssign for SolverStats {
    fn add_assign(&mut self, rhs: SolverStats) {
        self.conflicts += rhs.conflicts;
        self.decisions += rhs.decisions;
        self.propagations += rhs.propagations;
        self.restarts += rhs.restarts;
        self.learnt_kept += rhs.learnt_kept;
        self.learnt_deleted += rhs.learnt_deleted;
        self.lemmas_added += rhs.lemmas_added;
    }
}

impl std::iter::Sum for SolverStats {
    /// Aggregate per-solver counters, e.g. across the per-component
    /// solvers of an engine.
    fn sum<I: Iterator<Item = SolverStats>>(iter: I) -> SolverStats {
        let mut total = SolverStats::default();
        for s in iter {
            total += s;
        }
        total
    }
}

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    /// Learnt (eligible for database reduction) vs original.
    learnt: bool,
    /// Literal block distance at learning time (distinct decision levels).
    lbd: u32,
    /// Bump-and-decay activity, used to rank deletable learnt clauses.
    activity: f64,
}

/// Hand-rolled so that `Vec<Clause>::clone_from` (which is element-wise)
/// reuses each destination clause's literal buffer instead of
/// re-allocating it.  That matters only for solvers that store many
/// clauses; a component decided at level zero stores none, and its
/// refresh cost is the per-variable arrays.
impl Clone for Clause {
    fn clone(&self) -> Self {
        Clause {
            lits: self.lits.clone(),
            learnt: self.learnt,
            lbd: self.lbd,
            activity: self.activity,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.lits.clone_from(&source.lits);
        self.learnt = source.learnt;
        self.lbd = source.lbd;
        self.activity = source.activity;
    }
}

/// A watch-list entry: the watching clause plus a *blocking literal* — any
/// literal of the clause whose satisfaction proves the clause satisfied
/// without dereferencing it.  For binary clauses the blocker is the other
/// literal, making binary propagation a pure watch-list walk.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

const VAR_ACTIVITY_DECAY: f64 = 0.95;
const CLA_ACTIVITY_DECAY: f64 = 0.999;
const RESCALE_THRESHOLD: f64 = 1e100;
const CLA_RESCALE_THRESHOLD: f64 = 1e20;
const RESTART_BASE: u64 = 100;
/// Floor for the learnt-clause budget before the first reduction.
const MIN_LEARNT_LIMIT: usize = 2000;
/// Glue protection: learnt clauses with LBD at or below this survive every
/// reduction (binary learnts always qualify).
const GLUE_LBD: u32 = 2;

/// A CDCL SAT solver.
///
/// The solver is incremental in two ways: clauses may be added between
/// `solve` calls, and [`Solver::solve_with_assumptions`] checks
/// satisfiability under a set of temporarily-assumed literals without
/// permanently constraining the instance.  Cloning the solver clones the
/// entire state, which `currency-reason` uses to fork entailment queries
/// from a shared encoding.
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// `watches[l.code()]` = watchers of clauses (length ≥ 3) currently
    /// watching literal `l`; consulted when `l` becomes false.
    ///
    /// Both watch tables stay empty until the first clause is stored, so
    /// a solver whose clauses all reduce to level-zero units holds no
    /// per-literal lists at all.  From then on each has exactly one list
    /// per literal (`2 × num_vars`).
    watches: Vec<Vec<Watcher>>,
    /// `bin_watches[l.code()]` = watchers of binary clauses containing
    /// `l`; `blocker` is the other literal.  Binary clauses are never
    /// deleted, so these lists only change on clause addition and during
    /// database compaction (index remapping).
    bin_watches: Vec<Vec<Watcher>>,
    /// Scratch buffer in which [`Solver::add_clause`] sorts, dedups and
    /// simplifies incoming literals.  Not solver state: clones start
    /// without it.
    add_buf: Vec<Lit>,
    assign: Vec<LBool>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Clause that implied each variable (`u32::MAX` = decision/unset).
    reason: Vec<u32>,
    activity: Vec<f64>,
    phase: Vec<bool>,
    seen: Vec<bool>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    heap: ActivityHeap,
    var_inc: f64,
    cla_inc: f64,
    /// Level-indexed stamps for allocation-free LBD computation.
    lbd_stamp: Vec<u32>,
    lbd_counter: u32,
    /// Stored learnt clauses (kept in sync with the clause database).
    num_learnts: usize,
    /// Learnt budget; exceeded ⇒ reduce the clause database.
    max_learnts: usize,
    ok: bool,
    model: Vec<bool>,
    stats: SolverStats,
}

/// Cloning a solver copies its entire state — clause database, learnt
/// clauses, watches, activities — so a clone answers exactly like the
/// original while staying fully private (the basis for per-reader solver
/// scratch in concurrent serving).
///
/// The impl is hand-rolled for `clone_from`: refreshing an existing
/// scratch solver from a shared one reuses every buffer the scratch
/// already owns (per-variable arrays, trail, heap, and the clause and
/// watch buffers of a solver that stores clauses), so a reader that
/// re-pins a new snapshot epoch pays memcpys instead of fresh
/// allocations.  A solver without stored clauses has no watch tables, so
/// its refresh copies the per-variable arrays and nothing else.
impl Clone for Solver {
    fn clone(&self) -> Self {
        Solver {
            clauses: self.clauses.clone(),
            watches: self.watches.clone(),
            bin_watches: self.bin_watches.clone(),
            add_buf: Vec::new(),
            assign: self.assign.clone(),
            level: self.level.clone(),
            reason: self.reason.clone(),
            activity: self.activity.clone(),
            phase: self.phase.clone(),
            seen: self.seen.clone(),
            trail: self.trail.clone(),
            trail_lim: self.trail_lim.clone(),
            qhead: self.qhead,
            heap: self.heap.clone(),
            var_inc: self.var_inc,
            cla_inc: self.cla_inc,
            lbd_stamp: self.lbd_stamp.clone(),
            lbd_counter: self.lbd_counter,
            num_learnts: self.num_learnts,
            max_learnts: self.max_learnts,
            ok: self.ok,
            model: self.model.clone(),
            stats: self.stats,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.clauses.clone_from(&source.clauses);
        self.watches.clone_from(&source.watches);
        self.bin_watches.clone_from(&source.bin_watches);
        self.assign.clone_from(&source.assign);
        self.level.clone_from(&source.level);
        self.reason.clone_from(&source.reason);
        self.activity.clone_from(&source.activity);
        self.phase.clone_from(&source.phase);
        self.seen.clone_from(&source.seen);
        self.trail.clone_from(&source.trail);
        self.trail_lim.clone_from(&source.trail_lim);
        self.qhead = source.qhead;
        self.heap.clone_from(&source.heap);
        self.var_inc = source.var_inc;
        self.cla_inc = source.cla_inc;
        self.lbd_stamp.clone_from(&source.lbd_stamp);
        self.lbd_counter = source.lbd_counter;
        self.num_learnts = source.num_learnts;
        self.max_learnts = source.max_learnts;
        self.ok = source.ok;
        self.model.clone_from(&source.model);
        self.stats = source.stats;
    }
}

const NO_REASON: u32 = u32::MAX;

/// Literal value under an assignment vector (free function so `propagate`
/// can borrow `assign` and `clauses` disjointly).
#[inline]
fn lit_value(assign: &[LBool], l: Lit) -> LBool {
    match assign[l.var().index()] {
        LBool::Undef => LBool::Undef,
        LBool::True => {
            if l.is_pos() {
                LBool::True
            } else {
                LBool::False
            }
        }
        LBool::False => {
            if l.is_pos() {
                LBool::False
            } else {
                LBool::True
            }
        }
    }
}

impl Solver {
    /// Create an empty solver with no variables and no clauses.
    pub fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            ..Default::default()
        }
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (original + learnt) currently stored.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of learnt clauses currently stored.
    pub fn num_learnts(&self) -> usize {
        self.num_learnts
    }

    /// Solver statistics accumulated across all `solve` calls.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Allocate a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        if !self.watches.is_empty() {
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
            self.bin_watches.push(Vec::new());
            self.bin_watches.push(Vec::new());
        }
        self.heap.push(v, 0.0);
        v
    }

    /// Reserve room for `additional` more variables in every
    /// per-variable array, so a caller that knows how many variables it
    /// will allocate grows each array once instead of by doubling.
    pub fn reserve_vars(&mut self, additional: usize) {
        self.assign.reserve_exact(additional);
        self.level.reserve_exact(additional);
        self.reason.reserve_exact(additional);
        self.activity.reserve_exact(additional);
        self.phase.reserve_exact(additional);
        self.seen.reserve_exact(additional);
        self.heap.reserve_exact(additional);
    }

    /// The assignment trail in the order literals were fixed.  Between
    /// solves of a solver that has not been solved yet this is the level
    /// zero trail: the unit clauses and what they propagate.
    pub fn trail(&self) -> &[Lit] {
        &self.trail
    }

    /// The literals of every stored clause (length ≥ 2; original clauses
    /// first, learnt ones after), in storage order.
    pub fn clause_lits(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        self.clauses.iter().map(|c| c.lits.as_slice())
    }

    /// Heap bytes this solver holds, computed from capacities: capacity ×
    /// element size for every vector, including the clauses' literal
    /// buffers and the watch lists.  Deterministic, so it can gate a
    /// footprint budget without an allocator hook.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let clause_lits: usize = self.clauses.iter().map(|c| bytes(&c.lits)).sum();
        let watch_lists: usize = self
            .watches
            .iter()
            .chain(&self.bin_watches)
            .map(bytes)
            .sum();
        bytes(&self.clauses)
            + clause_lits
            + bytes(&self.watches)
            + bytes(&self.bin_watches)
            + watch_lists
            + bytes(&self.add_buf)
            + bytes(&self.assign)
            + bytes(&self.level)
            + bytes(&self.reason)
            + bytes(&self.activity)
            + bytes(&self.phase)
            + bytes(&self.seen)
            + bytes(&self.trail)
            + bytes(&self.trail_lim)
            + self.heap.heap_bytes()
            + bytes(&self.lbd_stamp)
            + bytes(&self.model)
    }

    #[inline]
    fn value_lit(&self, l: Lit) -> LBool {
        lit_value(&self.assign, l)
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Add a clause.  Returns `false` if the solver became trivially
    /// unsatisfiable (an empty clause was derived at level zero).
    ///
    /// The clause is simplified: duplicate literals are merged, tautologies
    /// are dropped, and literals already false at level zero are removed.
    /// May be called between `solve` calls (used for blocking clauses during
    /// model enumeration); any partial assignment is undone first.
    ///
    /// The simplification runs in a buffer the solver reuses, so only a
    /// clause the solver keeps costs an allocation.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        let mut cl = std::mem::take(&mut self.add_buf);
        cl.clear();
        cl.extend_from_slice(lits);
        let ok = self.add_simplified(&mut cl);
        self.add_buf = cl;
        ok
    }

    /// The body of [`Solver::add_clause`] over its scratch buffer.
    fn add_simplified(&mut self, cl: &mut Vec<Lit>) -> bool {
        cl.sort_unstable();
        cl.dedup();
        // Tautology check: sorted order places l and ¬l adjacently.
        for w in cl.windows(2) {
            if w[0].var() == w[1].var() {
                return true; // contains l ∨ ¬l: always satisfied
            }
        }
        cl.retain(|&l| self.value_lit(l) != LBool::False);
        if cl.iter().any(|&l| self.value_lit(l) == LBool::True) {
            return true; // already satisfied at level 0
        }
        match cl.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                // Unit at level zero: assign and propagate to closure.
                if !self.enqueue(cl[0], NO_REASON) {
                    self.ok = false;
                    return false;
                }
                if self.propagate().is_some() {
                    self.ok = false;
                    return false;
                }
                true
            }
            _ => {
                self.attach_clause(Clause {
                    lits: cl.to_vec(),
                    learnt: false,
                    lbd: 0,
                    activity: 0.0,
                });
                true
            }
        }
    }

    /// Add a theory lemma: like [`Solver::add_clause`] but counted in
    /// [`SolverStats::lemmas_added`].  Used by lazy-encoding refinement
    /// loops (e.g. the transitivity closure walk in `currency-reason`).
    pub fn add_lemma(&mut self, lits: &[Lit]) -> bool {
        self.stats.lemmas_added += 1;
        self.add_clause(lits)
    }

    /// Store a simplified clause of length ≥ 2 and hook up its watchers.
    /// The first stored clause creates the watch tables.
    fn attach_clause(&mut self, cl: Clause) -> u32 {
        debug_assert!(cl.lits.len() >= 2);
        if self.watches.is_empty() {
            let lits = 2 * self.num_vars();
            self.watches.resize_with(lits, Vec::new);
            self.bin_watches.resize_with(lits, Vec::new);
        }
        let idx = self.clauses.len() as u32;
        if cl.learnt {
            self.num_learnts += 1;
        }
        let (l0, l1) = (cl.lits[0], cl.lits[1]);
        if cl.lits.len() == 2 {
            self.bin_watches[l0.code()].push(Watcher {
                clause: idx,
                blocker: l1,
            });
            self.bin_watches[l1.code()].push(Watcher {
                clause: idx,
                blocker: l0,
            });
        } else {
            self.watches[l0.code()].push(Watcher {
                clause: idx,
                blocker: l1,
            });
            self.watches[l1.code()].push(Watcher {
                clause: idx,
                blocker: l0,
            });
        }
        self.clauses.push(cl);
        idx
    }

    /// Check satisfiability of the current clause set.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Check satisfiability under the given assumed literals.
    ///
    /// The assumptions hold only for this call; the clause database is not
    /// modified (beyond learnt clauses, which are logical consequences,
    /// and learnt-clause deletions, which only drop redundant ones).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        match self.solve_limited_with_assumptions(assumptions, &Limits::default()) {
            SolveOutcome::Sat => SolveResult::Sat,
            SolveOutcome::Unsat => SolveResult::Unsat,
            SolveOutcome::Interrupted => unreachable!("unbounded solve cannot be interrupted"),
        }
    }

    /// Check satisfiability under a cooperative work budget.
    pub fn solve_limited(&mut self, limits: &Limits) -> SolveOutcome {
        self.solve_limited_with_assumptions(&[], limits)
    }

    /// Check satisfiability under the given assumed literals and a
    /// cooperative work budget.
    ///
    /// Once the budget is spent (or the stop flag is raised) the search
    /// exits with [`SolveOutcome::Interrupted`] — never a wrong Sat/Unsat
    /// verdict.  The budget counts work performed **within this call**,
    /// and everything learnt before the interrupt (learnt clauses,
    /// variable activities, saved phases) is kept, so calling again hands
    /// the search a fresh installment and it resumes warm.
    pub fn solve_limited_with_assumptions(
        &mut self,
        assumptions: &[Lit],
        limits: &Limits,
    ) -> SolveOutcome {
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        self.cancel_until(0);
        if self.max_learnts == 0 {
            // First solve: size the learnt budget to the instance.  It
            // grows on every reduction thereafter.
            let originals = self.clauses.len() - self.num_learnts;
            self.max_learnts = (originals / 3).max(MIN_LEARNT_LIMIT);
        }
        let bounded = !limits.is_unbounded();
        let props_base = self.stats.propagations;
        let mut conflicts_spent: u64 = 0;
        let mut restart_idx: u64 = 0;
        let mut conflicts_here: u64 = 0;
        let mut budget = luby(restart_idx) * RESTART_BASE;
        loop {
            if bounded
                && (limits.max_conflicts.is_some_and(|m| conflicts_spent >= m)
                    || limits
                        .max_props
                        .is_some_and(|m| self.stats.propagations - props_base >= m)
                    || limits
                        .stop
                        .as_ref()
                        .is_some_and(|s| s.load(Ordering::Relaxed)))
            {
                self.cancel_until(0);
                return SolveOutcome::Interrupted;
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_spent += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveOutcome::Unsat;
                }
                let (learnt, bt_level) = self.analyze(confl);
                self.cancel_until(bt_level);
                self.record_learnt(learnt);
                self.decay_var_activity();
                self.decay_clause_activity();
                if self.num_learnts > self.max_learnts {
                    self.reduce_db();
                }
                if conflicts_here >= budget {
                    // Luby restart.
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    conflicts_here = 0;
                    budget = luby(restart_idx) * RESTART_BASE;
                    self.cancel_until(0);
                }
            } else if (self.decision_level() as usize) < assumptions.len() {
                // Re-establish the next assumption as a pseudo-decision.
                let p = assumptions[self.decision_level() as usize];
                match self.value_lit(p) {
                    LBool::True => {
                        // Already implied: open a vacuous level so that the
                        // remaining assumptions keep their positions.
                        self.trail_lim.push(self.trail.len());
                    }
                    LBool::False => {
                        // The assumptions contradict the clauses.
                        self.cancel_until(0);
                        return SolveOutcome::Unsat;
                    }
                    LBool::Undef => {
                        self.trail_lim.push(self.trail.len());
                        let enq = self.enqueue(p, NO_REASON);
                        debug_assert!(enq);
                    }
                }
            } else if let Some(v) = self.pick_branch_var() {
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let lit = v.lit(self.phase[v.index()]);
                let enq = self.enqueue(lit, NO_REASON);
                debug_assert!(enq);
            } else {
                // Every variable assigned without conflict: model found.
                self.model.clear();
                self.model
                    .extend(self.assign.iter().map(|&a| a == LBool::True));
                self.cancel_until(0);
                return SolveOutcome::Sat;
            }
        }
    }

    /// Value of `v` in the most recently found model.
    ///
    /// Only meaningful after a `solve` call returned [`SolveResult::Sat`].
    pub fn model_value(&self, v: Var) -> bool {
        self.model[v.index()]
    }

    /// Enumerate models projected onto `projection`, invoking `f` with the
    /// projected assignment for each distinct projection found.
    ///
    /// Distinctness is with respect to the projection: after each model a
    /// blocking clause over the projection variables is added, so the same
    /// projected assignment is never reported twice.  `f` returning `false`
    /// stops the enumeration.  At most `limit` models are visited.
    ///
    /// Blocking clauses permanently constrain this solver; callers that need
    /// to reuse the instance should enumerate on a clone.
    pub fn for_each_model(
        &mut self,
        projection: &[Var],
        limit: usize,
        f: impl FnMut(&[bool]) -> bool,
    ) -> Enumeration {
        enumerate_projected(self, projection, limit, f)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Assign `p` true with the given reason clause; `false` if `p` is
    /// already false (caller must treat as conflict).
    fn enqueue(&mut self, p: Lit, reason: u32) -> bool {
        match self.value_lit(p) {
            LBool::True => true,
            LBool::False => false,
            LBool::Undef => {
                let v = p.var().index();
                self.assign[v] = LBool::from_bool(p.is_pos());
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.phase[v] = p.is_pos();
                self.trail.push(p);
                true
            }
        }
    }

    /// Unit propagation; returns a conflicting clause index if one arises.
    fn propagate(&mut self) -> Option<u32> {
        if self.watches.is_empty() {
            // No stored clauses: nothing can be implied or conflict.
            self.stats.propagations += (self.trail.len() - self.qhead) as u64;
            self.qhead = self.trail.len();
            return None;
        }
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Binary clauses first: propagate straight off the watch list,
            // no clause dereference.  The list is static during search, so
            // plain index iteration is safe across `enqueue` calls.
            for i in 0..self.bin_watches[false_lit.code()].len() {
                let w = self.bin_watches[false_lit.code()][i];
                match lit_value(&self.assign, w.blocker) {
                    LBool::True => {}
                    LBool::False => {
                        self.qhead = self.trail.len();
                        return Some(w.clause);
                    }
                    LBool::Undef => {
                        let ok = self.enqueue(w.blocker, w.clause);
                        debug_assert!(ok);
                    }
                }
            }
            // Long clauses: take the watch list; entries are pushed back as
            // they survive.
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            'watchers: while i < ws.len() {
                // Blocking literal: if it is already true the clause is
                // satisfied and never dereferenced.
                if lit_value(&self.assign, ws[i].blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let ci = ws[i].clause;
                let assign = &self.assign;
                let cl = &mut self.clauses[ci as usize];
                // Normalize: the false literal sits at position 1.
                if cl.lits[0] == false_lit {
                    cl.lits.swap(0, 1);
                }
                debug_assert_eq!(cl.lits[1], false_lit);
                let first = cl.lits[0];
                if first != ws[i].blocker && lit_value(assign, first) == LBool::True {
                    // Clause satisfied; remember the satisfying literal as
                    // the new blocker and keep watching.
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                for j in 2..cl.lits.len() {
                    if lit_value(assign, cl.lits[j]) != LBool::False {
                        cl.lits.swap(1, j);
                        let new_watch = cl.lits[1];
                        self.watches[new_watch.code()].push(Watcher {
                            clause: ci,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting under the current assignment.
                if lit_value(&self.assign, first) == LBool::False {
                    // Conflict: restore remaining watches and report.
                    self.watches[false_lit.code()] = ws;
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                let ok = self.enqueue(first, ci);
                debug_assert!(ok);
                ws[i].blocker = first;
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    /// First-UIP conflict analysis.  Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let current = self.decision_level();
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 = asserting literal
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut clause_idx = confl;
        let mut trail_pos = self.trail.len();
        let mut bt_level = 0u32;
        loop {
            self.bump_clause_activity(clause_idx);
            let n_lits = self.clauses[clause_idx as usize].lits.len();
            let skip_first = p.is_some();
            // Indexed access instead of cloning the literal vector: the
            // borrow must end before each seen/activity update, and this
            // loop runs once per resolution step of every conflict.
            for k in 0..n_lits {
                if skip_first && k == 0 {
                    continue; // the literal being resolved on (== p)
                }
                let q = self.clauses[clause_idx as usize].lits[k];
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var_activity(q.var());
                    if self.level[v] == current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                        bt_level = bt_level.max(self.level[v]);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                trail_pos -= 1;
                if self.seen[self.trail[trail_pos].var().index()] {
                    break;
                }
            }
            let q = self.trail[trail_pos];
            self.seen[q.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !q;
                break;
            }
            p = Some(q);
            clause_idx = self.reason[q.var().index()];
            debug_assert_ne!(clause_idx, NO_REASON);
            // Keep the reason clause normalized: position 0 holds q.
            let rc = &mut self.clauses[clause_idx as usize];
            if rc.lits[0] != q {
                let pos = rc.lits.iter().position(|&l| l == q).expect("reason lit");
                rc.lits.swap(0, pos);
            }
        }
        // Clear remaining marks.
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        (learnt, bt_level)
    }

    /// Literal block distance: distinct decision levels among the clause's
    /// literals.  Low LBD ("glue") clauses connect few levels and are the
    /// learnt clauses worth keeping forever.
    ///
    /// Counted with a level-indexed stamp array (no allocation or sort —
    /// this runs once per conflict).
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        if self.lbd_stamp.len() <= self.assign.len() {
            // One slot per possible decision level (≤ one per variable).
            self.lbd_stamp.resize(self.assign.len() + 1, 0);
        }
        self.lbd_counter = self.lbd_counter.wrapping_add(1);
        if self.lbd_counter == 0 {
            self.lbd_stamp.fill(0);
            self.lbd_counter = 1;
        }
        let mut lbd = 0u32;
        for &l in lits {
            let lev = self.level[l.var().index()] as usize;
            if self.lbd_stamp[lev] != self.lbd_counter {
                self.lbd_stamp[lev] = self.lbd_counter;
                lbd += 1;
            }
        }
        lbd
    }

    /// Install a learnt clause and enqueue its asserting literal.
    fn record_learnt(&mut self, mut learnt: Vec<Lit>) {
        if learnt.len() == 1 {
            let ok = self.enqueue(learnt[0], NO_REASON);
            debug_assert!(ok);
            return;
        }
        // Watch the asserting literal and a literal of the backjump level
        // (the maximum level among the rest), preserving the invariant that
        // watched literals are the last to become false.
        let mut max_pos = 1;
        for j in 2..learnt.len() {
            if self.level[learnt[j].var().index()] > self.level[learnt[max_pos].var().index()] {
                max_pos = j;
            }
        }
        learnt.swap(1, max_pos);
        let assert_lit = learnt[0];
        let lbd = self.compute_lbd(&learnt);
        let idx = self.attach_clause(Clause {
            lits: learnt,
            learnt: true,
            lbd,
            activity: self.cla_inc,
        });
        let ok = self.enqueue(assert_lit, idx);
        debug_assert!(ok);
    }

    /// `true` if the clause is the reason of a currently-assigned variable
    /// (its asserting literal is true and points back at it).  Locked
    /// clauses must never be deleted: conflict analysis resolves on them.
    fn locked(&self, ci: u32) -> bool {
        let l0 = self.clauses[ci as usize].lits[0];
        self.value_lit(l0) == LBool::True && self.reason[l0.var().index()] == ci
    }

    /// Glucose-style learnt-clause database reduction.
    ///
    /// Deletable clauses are the learnt ones that are neither glue
    /// (LBD ≤ [`GLUE_LBD`], which includes every binary learnt) nor locked
    /// as a propagation reason.  The half with the highest LBD (activity
    /// breaking ties) is deleted and the database is compacted in place:
    /// reason indices are remapped and both watch structures rebuilt.
    fn reduce_db(&mut self) {
        let mut cands: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&ci| {
                let cl = &self.clauses[ci as usize];
                cl.learnt && cl.lits.len() > 2 && cl.lbd > GLUE_LBD && !self.locked(ci)
            })
            .collect();
        // Worst first: high LBD, then low activity.
        cands.sort_unstable_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a as usize], &self.clauses[b as usize]);
            cb.lbd
                .cmp(&ca.lbd)
                .then(ca.activity.partial_cmp(&cb.activity).expect("finite"))
        });
        let n_delete = cands.len() / 2;
        if n_delete == 0 {
            // Nothing deletable (everything is glue or locked): raise the
            // budget so the search is not re-entered every conflict.
            self.max_learnts += self.max_learnts / 2;
            return;
        }
        let mut delete = vec![false; self.clauses.len()];
        for &ci in &cands[..n_delete] {
            delete[ci as usize] = true;
        }
        // Compact the database, building the old → new index map.
        let mut remap = vec![NO_REASON; self.clauses.len()];
        let mut kept: Vec<Clause> = Vec::with_capacity(self.clauses.len() - n_delete);
        for (old, cl) in std::mem::take(&mut self.clauses).into_iter().enumerate() {
            if !delete[old] {
                remap[old] = kept.len() as u32;
                kept.push(cl);
            }
        }
        self.clauses = kept;
        for r in &mut self.reason {
            if *r != NO_REASON {
                *r = remap[*r as usize];
                debug_assert_ne!(*r, NO_REASON, "deleted a locked clause");
            }
        }
        // Rebuild both watch structures from the surviving clauses; the
        // watched literals are positionally invariant (slots 0 and 1), so
        // the rebuilt lists watch exactly what the old ones did.
        for w in &mut self.watches {
            w.clear();
        }
        for w in &mut self.bin_watches {
            w.clear();
        }
        for ci in 0..self.clauses.len() {
            let (l0, l1) = (self.clauses[ci].lits[0], self.clauses[ci].lits[1]);
            let target = if self.clauses[ci].lits.len() == 2 {
                &mut self.bin_watches
            } else {
                &mut self.watches
            };
            target[l0.code()].push(Watcher {
                clause: ci as u32,
                blocker: l1,
            });
            target[l1.code()].push(Watcher {
                clause: ci as u32,
                blocker: l0,
            });
        }
        self.num_learnts -= n_delete;
        self.stats.learnt_deleted += n_delete as u64;
        self.stats.learnt_kept += self.num_learnts as u64;
        // Let the database grow before the next reduction.
        self.max_learnts += self.max_learnts / 4;
    }

    /// Undo assignments above the given decision level.
    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        while self.decision_level() > target {
            let lim = self.trail_lim.pop().expect("trail limit");
            while self.trail.len() > lim {
                let p = self.trail.pop().expect("trail literal");
                let v = p.var();
                self.assign[v.index()] = LBool::Undef;
                self.reason[v.index()] = NO_REASON;
                // Re-insert into the decision heap.
                self.heap.push(v, self.activity[v.index()]);
            }
        }
        // Everything still on the trail was fully propagated when its level
        // was current, so propagation may resume at the end of the trail.
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        let assign = &self.assign;
        let activity = &self.activity;
        self.heap
            .pop_fresh(|v, act| assign[v.index()] == LBool::Undef && act == activity[v.index()])
    }

    fn bump_var_activity(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_THRESHOLD {
            for a in &mut self.activity {
                *a *= 1.0 / RESCALE_THRESHOLD;
            }
            self.var_inc *= 1.0 / RESCALE_THRESHOLD;
            self.heap.rescale(1.0 / RESCALE_THRESHOLD);
        }
        if self.assign[v.index()] == LBool::Undef {
            self.heap.push(v, self.activity[v.index()]);
        }
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= VAR_ACTIVITY_DECAY;
    }

    fn bump_clause_activity(&mut self, ci: u32) {
        let cl = &mut self.clauses[ci as usize];
        if !cl.learnt {
            return;
        }
        cl.activity += self.cla_inc;
        if cl.activity > CLA_RESCALE_THRESHOLD {
            for c in &mut self.clauses {
                if c.learnt {
                    c.activity *= 1.0 / CLA_RESCALE_THRESHOLD;
                }
            }
            self.cla_inc *= 1.0 / CLA_RESCALE_THRESHOLD;
        }
    }

    fn decay_clause_activity(&mut self) {
        self.cla_inc /= CLA_ACTIVITY_DECAY;
    }

    // ------------------------------------------------------------------
    // Test support
    // ------------------------------------------------------------------

    /// Override the learnt-clause budget (test hook for forcing database
    /// reductions on small instances).
    #[cfg(test)]
    pub(crate) fn set_max_learnts(&mut self, limit: usize) {
        self.max_learnts = limit.max(1);
    }

    /// Snapshot of the stored learnt clauses as `(sorted literals, lbd)`
    /// pairs, for reduction-invariant tests.
    #[cfg(test)]
    pub(crate) fn learnt_snapshot(&self) -> Vec<(Vec<Lit>, u32)> {
        self.clauses
            .iter()
            .filter(|c| c.learnt)
            .map(|c| {
                let mut lits = c.lits.clone();
                lits.sort_unstable();
                (lits, c.lbd)
            })
            .collect()
    }

    /// Force a clause-database reduction regardless of the budget.
    #[cfg(test)]
    pub(crate) fn force_reduce(&mut self) {
        self.reduce_db();
    }

    /// Length of the watch tables: 0 before the first stored clause,
    /// `2 × num_vars` after it.
    #[cfg(test)]
    pub(crate) fn watch_table_len(&self) -> usize {
        self.watches.len()
    }

    /// Verify the watch-list invariants; returns a description of the
    /// first violation found.
    ///
    /// * both watch tables are empty (and then no clause is stored) or
    ///   hold exactly one list per literal (`2 × num_vars`);
    /// * every clause of length ≥ 3 is watched exactly twice, under its
    ///   first two literals, with a blocker drawn from the clause;
    /// * every binary clause appears in `bin_watches` under both literals
    ///   with the other literal as blocker;
    /// * no watcher points outside the clause database and no clause is
    ///   filed in the wrong structure;
    /// * every assigned variable's reason clause holds the implied literal
    ///   in slot 0.
    #[doc(hidden)]
    pub fn debug_check_invariants(&self) -> Result<(), String> {
        let lits = 2 * self.num_vars();
        let tables = (self.watches.len(), self.bin_watches.len());
        if tables != (0, 0) && tables != (lits, lits) {
            return Err(format!("watch tables {tables:?} for {lits} literals"));
        }
        if tables.0 == 0 && !self.clauses.is_empty() {
            return Err(format!(
                "{} clauses stored without watch tables",
                self.clauses.len()
            ));
        }
        let mut long_watches: Vec<Vec<Lit>> = vec![Vec::new(); self.clauses.len()];
        for (code, ws) in self.watches.iter().enumerate() {
            for w in ws {
                let ci = w.clause as usize;
                if ci >= self.clauses.len() {
                    return Err(format!("watcher for dead clause {ci}"));
                }
                let cl = &self.clauses[ci];
                if cl.lits.len() == 2 {
                    return Err(format!("binary clause {ci} in long watches"));
                }
                if !cl.lits.contains(&w.blocker) {
                    return Err(format!("clause {ci} blocker {:?} not in clause", w.blocker));
                }
                long_watches[ci].push(Lit::from_code(code));
            }
        }
        for (ci, cl) in self.clauses.iter().enumerate() {
            if cl.lits.len() == 2 {
                for (a, b) in [(cl.lits[0], cl.lits[1]), (cl.lits[1], cl.lits[0])] {
                    let hits = self.bin_watches[a.code()]
                        .iter()
                        .filter(|w| w.clause as usize == ci && w.blocker == b)
                        .count();
                    if hits != 1 {
                        return Err(format!("binary clause {ci} watched {hits}× under {a:?}"));
                    }
                }
            } else {
                let mut watched = long_watches[ci].clone();
                watched.sort_unstable();
                let mut expect = vec![cl.lits[0], cl.lits[1]];
                expect.sort_unstable();
                if watched != expect {
                    return Err(format!(
                        "clause {ci} watched under {watched:?}, expected {expect:?}"
                    ));
                }
            }
        }
        for (code, ws) in self.bin_watches.iter().enumerate() {
            for w in ws {
                let ci = w.clause as usize;
                if ci >= self.clauses.len() {
                    return Err(format!("bin watcher for dead clause {ci}"));
                }
                let cl = &self.clauses[ci];
                if cl.lits.len() != 2 {
                    return Err(format!("long clause {ci} in binary watches"));
                }
                let l = Lit::from_code(code);
                if !(cl.lits.contains(&l) && cl.lits.contains(&w.blocker) && l != w.blocker) {
                    return Err(format!("binary watcher mismatch on clause {ci}"));
                }
            }
        }
        for (vix, &r) in self.reason.iter().enumerate() {
            if r == NO_REASON || self.assign[vix] == LBool::Undef {
                continue;
            }
            let cl = &self.clauses[r as usize];
            // Binary reasons propagate off the watch list without position
            // normalization, so the implied literal may sit in either slot;
            // long reasons keep it in slot 0 (relied on by `locked`).
            let asserts = if cl.lits.len() == 2 {
                cl.lits.iter().any(|l| l.var().index() == vix)
            } else {
                cl.lits[0].var().index() == vix
            };
            if !asserts {
                return Err(format!(
                    "reason clause {r} of v{vix} does not assert it first"
                ));
            }
        }
        Ok(())
    }
}

/// A source of models for projected All-SAT enumeration: anything that
/// can be (re-)solved, report model values, and accept a blocking clause.
///
/// Implemented by [`Solver`] directly and by richer wrappers whose
/// `solve` does more than one SAT call (e.g. `currency-reason`'s lazy
/// transitivity refinement loop), so the blocking-clause enumeration
/// protocol lives in exactly one place: [`enumerate_projected`].
pub trait ModelSource {
    /// Decide satisfiability of the current state, or report that a work
    /// budget interrupted the attempt (bounded sources only; unbounded
    /// sources never return [`SolveOutcome::Interrupted`]).
    fn solve(&mut self) -> SolveOutcome;
    /// Value of `v` in the most recent model (after a `Sat` result).
    fn model_value(&self, v: Var) -> bool;
    /// Permanently add a blocking clause; `false` if the instance became
    /// trivially unsatisfiable.
    fn block(&mut self, clause: &[Lit]) -> bool;
}

impl ModelSource for Solver {
    fn solve(&mut self) -> SolveOutcome {
        Solver::solve(self).into()
    }

    fn model_value(&self, v: Var) -> bool {
        Solver::model_value(self, v)
    }

    fn block(&mut self, clause: &[Lit]) -> bool {
        self.add_clause(clause)
    }
}

/// The projected All-SAT loop shared by every [`ModelSource`] (see
/// [`Solver::for_each_model`] for the semantics).
pub fn enumerate_projected<S: ModelSource>(
    source: &mut S,
    projection: &[Var],
    limit: usize,
    mut f: impl FnMut(&[bool]) -> bool,
) -> Enumeration {
    let mut count = 0usize;
    let mut values = vec![false; projection.len()];
    while count < limit {
        match source.solve() {
            SolveOutcome::Sat => {}
            SolveOutcome::Unsat => return Enumeration::Complete(count),
            SolveOutcome::Interrupted => return Enumeration::Interrupted(count),
        }
        for (slot, &v) in values.iter_mut().zip(projection) {
            *slot = source.model_value(v);
        }
        count += 1;
        if !f(&values) {
            return Enumeration::Stopped(count);
        }
        // Block this projected assignment.
        let blocking: Vec<Lit> = projection
            .iter()
            .zip(&values)
            .map(|(&v, &val)| v.lit(!val))
            .collect();
        if !source.block(&blocking) {
            return Enumeration::Complete(count);
        }
    }
    Enumeration::LimitReached(count)
}
