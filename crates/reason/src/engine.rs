//! The entity-partitioned incremental reasoning engine.
//!
//! [`CurrencyEngine`] compiles a specification **once** into per-component
//! cached solvers (see [`crate::partition`]) and answers repeated
//! CPS/COP/DCIP/CCQA/witness queries incrementally:
//!
//! * **compile once** — each entity component's CNF is built a single time
//!   ([`Encoding::for_component`]); constraints are grounded and copy
//!   obligations enumerated once for the whole specification;
//! * **solve incrementally** — consistency verdicts are cached per
//!   component, entailment queries run as assumption-based calls
//!   (`solve_with_assumptions`) against only the component a pair
//!   touches, and learnt clauses accumulate across queries.  With the
//!   default [`crate::TransitivityMode::Lazy`], transitivity lemmas
//!   discovered by refinement also persist in each cached component
//!   solver, so refinement work amortizes across the query stream;
//! * **enumerate locally** — current-instance enumeration projects onto
//!   one component's value indicators at a time, so order differences in
//!   unrelated components never multiply the model count, and All-SAT
//!   blocking clauses go to a throwaway clone of the component solver;
//! * **parallelize** — component compilation and component solves fan out
//!   across threads ([`crate::Options::threads`]);
//! * **update in place** — [`CurrencyEngine::apply`] feeds a
//!   [`SpecDelta`] through the engine: the owned specification mutates,
//!   the entity partition is maintained incrementally
//!   ([`Partition::refresh`]), and **only the touched component slots**
//!   are recompiled — every clean component keeps its cached solver,
//!   learnt clauses, lazy-transitivity lemmas and satisfiability verdict,
//!   *in place*: component slots are stable, so nothing is remapped,
//!   moved, or even looked at outside the dirty region.  The aggregate
//!   consistency verdict is maintained the same way (a count of known
//!   unsatisfiable slots plus the set of undecided ones), so a
//!   component-local delta followed by a [`CurrencyEngine::cps`] costs
//!   one component compile and one component solve — O(dirty region),
//!   independent of how many components the engine holds;
//! * **compact in steps** — retraction tombstones accumulate one dead
//!   tuple slot each ([`currency_core::TemporalInstance::remove_tuple`]);
//!   [`CurrencyEngine::compact_step`] reclaims them in bounded slices,
//!   remapping tuple ids and recompiling only the components whose tuples
//!   moved.  [`CurrencyEngine::compact`] is the same step with no bound.
//!
//! The monolithic one-shot path (`Encoding::new` over the whole
//! specification) remains available as the `*_monolithic` functions in
//! the problem modules and is differentially tested against the engine.

use crate::ccqa::CertainAnswers;
use crate::cop::CurrencyOrderQuery;
use crate::encode::{Bounds, Encoding};
use crate::error::ReasonError;
use crate::obs::EngineObs;
use crate::partition::{Partition, RefreshPlan};
use crate::{CompactBudget, Options};
use currency_core::{
    AttrId, CompactSlice, CompactStepReport, Completion, Eid, NormalInstance, RelCompletion, RelId,
    SpecDelta, Specification, Tuple, TupleId, Value,
};
use currency_obs::SpanGuard;
use currency_query::{Database, Query};
use currency_sat::{Enumeration, SolveResult, SolverStats};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Aggregate counters across an engine's component solvers.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Number of entity components.
    pub components: usize,
    /// Number of `(relation, entity)` cells.
    pub cells: usize,
    /// Total variables across component solvers.
    pub vars: usize,
    /// Total clauses (original + learnt) across component solvers.
    pub clauses: usize,
    /// Deltas applied over the engine's lifetime
    /// ([`CurrencyEngine::apply`]).
    pub updates_applied: usize,
    /// Components recompiled across all applied deltas.
    pub components_rebuilt: usize,
    /// Components whose cached state survived a delta, summed across all
    /// applied deltas.
    pub components_reused: usize,
    /// Compaction steps performed over the engine's lifetime
    /// ([`CurrencyEngine::compact_step`] and [`CurrencyEngine::compact`],
    /// whether explicit or triggered by the
    /// [`Options::auto_compact_tombstones`] policy).  Steps that found
    /// nothing to reclaim are not counted.
    pub compact_steps: usize,
    /// Tombstone tuple slots reclaimed across all compaction steps.
    pub slots_reclaimed: usize,
    /// Times this engine was restored from a durability log
    /// ([`CurrencyEngine::note_recovery`]; `currency-store` calls it once
    /// per successful open).
    pub recoveries: usize,
    /// Deltas re-applied from log suffixes across all recoveries.
    pub deltas_replayed: usize,
    /// Aggregated CDCL counters.
    pub sat: SolverStats,
}

/// What one [`CurrencyEngine::apply`] call did.
#[derive(Clone, Debug)]
pub struct ApplyReport {
    /// Components recompiled by this delta.
    pub components_rebuilt: usize,
    /// Components whose cached solver state was carried over untouched.
    pub components_reused: usize,
    /// Number of `(relation, entity)` cells the delta touched.
    pub cells_touched: usize,
    /// Ids assigned to tuples the delta inserted, in operation order.
    pub inserted: Vec<(RelId, TupleId)>,
    /// The bounded compaction step the
    /// [`Options::auto_compact_tombstones`] policy ran after this delta,
    /// if any.  It invalidates only the tuple ids its slices remapped:
    /// translate held ids (this report's `inserted` list included)
    /// through [`CompactStepReport::new_id`] (`None` means the tuple's
    /// slot was reclaimed).
    pub compact_step: Option<CompactStepReport>,
}

struct ComponentState {
    enc: Encoding,
    /// Cached satisfiability of the component (`None` = not yet solved).
    status: Option<bool>,
}

/// Incrementally maintained aggregate-consistency cache.
///
/// Invariant (per slot, guarded by the slot's own component lock for the
/// status side and by this cache's lock for the set side): a slot's
/// `status` is `None` **iff** the slot is in `unsolved`, and `unsat`
/// counts the slots whose `status` is `Some(false)`.  [`CurrencyEngine::cps`]
/// is then "drain `unsolved`, check `unsat == 0`" — after a delta only
/// the rebuilt slots are in `unsolved`, so re-deciding consistency is
/// O(dirty region), never a sweep of all components.
#[derive(Debug, Default)]
struct CpsCache {
    /// Slots whose satisfiability has not been decided yet.
    unsolved: BTreeSet<usize>,
    /// Decided slots that are unsatisfiable.
    unsat: usize,
}

/// Retire a slot's old status from the cache (the slot is about to be
/// replaced or re-solved).
fn retire_status(cache: &mut CpsCache, slot: usize, status: Option<bool>) {
    match status {
        Some(false) => cache.unsat -= 1,
        Some(true) => {}
        None => {
            cache.unsolved.remove(&slot);
        }
    }
}

/// One component's model chains: `(rel, attr, eid, least → most current)`.
type ComponentChains = Vec<(RelId, AttrId, Eid, Vec<TupleId>)>;

/// One component's contribution to a product enumeration: the component
/// index, the restricted-projection indices, and the projected models.
/// Shared with the epoch-published snapshot path ([`crate::snapshot`]),
/// which enumerates against immutable encodings instead of locked slots.
pub(crate) struct ComponentModels {
    pub(crate) comp: usize,
    pub(crate) indices: Vec<usize>,
    pub(crate) models: Vec<Vec<bool>>,
}

/// Guard the composed cross-component product against the model budget.
pub(crate) fn check_product_budget(
    per_comp: &[ComponentModels],
    max_models: usize,
    what: &'static str,
) -> Result<(), ReasonError> {
    let mut product: usize = 1;
    for cm in per_comp {
        product = product.saturating_mul(cm.models.len().max(1));
        if product > max_models {
            return Err(ReasonError::BudgetExceeded {
                what,
                budget: max_models,
                spent: product,
            });
        }
    }
    Ok(())
}

/// Run `f` on the decoded rows of every combination of per-component
/// model choices (odometer over the product); `f` returning `false` stops
/// the iteration.  With no components, `f` runs once with no rows (the
/// empty product has one element).  `decode` turns one component's chosen
/// model into rows — the engine decodes under the component's lock, the
/// snapshot path against its immutable per-slot encoding.
///
/// The odometer itself can run for `max_models` combinations even though
/// every individual solve finished, so it re-checks `deadline` every
/// [`COMBINATION_CHECK`] combinations and surfaces
/// [`ReasonError::Interrupted`] on expiry.
pub(crate) fn for_each_combination(
    per_comp: &[ComponentModels],
    deadline: Option<std::time::Instant>,
    mut decode: impl FnMut(&ComponentModels, &[bool]) -> Vec<(RelId, Tuple)>,
    mut f: impl FnMut(Vec<(RelId, Tuple)>) -> bool,
) -> Result<(), ReasonError> {
    let mut pick = vec![0usize; per_comp.len()];
    let mut combos: u64 = 0;
    loop {
        if let Some(d) = deadline {
            if combos.is_multiple_of(COMBINATION_CHECK) && std::time::Instant::now() >= d {
                return Err(ReasonError::Interrupted {
                    spent: crate::Spent::default(),
                });
            }
            combos += 1;
        }
        let mut rows: Vec<(RelId, Tuple)> = Vec::new();
        for (k, cm) in per_comp.iter().enumerate() {
            rows.extend(decode(cm, &cm.models[pick[k]]));
        }
        if !f(rows) {
            return Ok(());
        }
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == per_comp.len() {
                return Ok(());
            }
            pick[i] += 1;
            if pick[i] < per_comp[i].models.len() {
                break;
            }
            pick[i] = 0;
            i += 1;
        }
    }
}

/// How often (in combinations) the odometer consults the wall clock.
/// The first combination always checks, so an already-expired deadline
/// interrupts before any row is decoded.
pub(crate) const COMBINATION_CHECK: u64 = 1024;

/// Internal scan granularity of one compaction slice: a step's slot
/// budget is consumed in slices of at most this many slots, so the
/// wall-clock deadline of [`CurrencyEngine::compact_step`] is consulted
/// at least once per `SLICE_QUANTUM` slots scanned.
pub(crate) const SLICE_QUANTUM: usize = 1024;

/// Execute one compaction step's slices on `spec`: slices of at most
/// `quantum` slots until `max_slots` are scanned, `deadline` passes, or
/// the specification is drained.  The deadline is checked between
/// slices and at least one slice always runs, so progress is
/// guaranteed.  Both writers run their steps through this.
pub(crate) fn run_slices(
    spec: &mut Specification,
    max_slots: usize,
    quantum: usize,
    deadline: Option<std::time::Instant>,
) -> CompactStepReport {
    let mut step = CompactStepReport::default();
    let max_slots = max_slots.max(1);
    let mut scanned = 0usize;
    while scanned < max_slots {
        if let Some(d) = deadline {
            if !step.slices.is_empty() && std::time::Instant::now() >= d {
                break;
            }
        }
        let Some(slice) = spec.compact_slice(quantum.min(max_slots - scanned)) else {
            break; // drained mid-step
        };
        // `max(1)` keeps a degenerate zero-width slice from stalling the
        // loop (cannot happen today — a slice always scans at least one
        // slot — but the loop must not rely on that invariant for
        // termination).
        scanned += ((slice.end - slice.start) as usize).max(1);
        step.reclaimed += slice.reclaimed as usize;
        step.slices.push(slice);
    }
    step.done = spec.total_tombstones() == 0;
    step
}

/// The cells a compaction step's slices remapped a tuple into — the
/// dirty region both writers rebuild after a step.  Moved tuples keep
/// their slots through the step's later slices (later slices only write
/// at or above this slice's final write position), so `tuple(new)` is
/// the tuple the table names.  Dead slots need no cell: retraction
/// already rebuilt their cells when it removed them from their entity
/// groups, and reclaiming the slot renames no live id.
pub(crate) fn remapped_cells(
    spec: &Specification,
    slices: &[CompactSlice],
) -> BTreeSet<(RelId, Eid)> {
    let mut touched = BTreeSet::new();
    for slice in slices {
        let inst = spec.instance(slice.rel);
        for new_id in slice.remap.iter().flatten() {
            touched.insert((slice.rel, inst.tuple(*new_id).eid));
        }
    }
    touched
}

/// Fold the certain-answer intersection over every realizable combination
/// of current instances (the common tail of the engine's and the
/// snapshot's `certain_answers`).
pub(crate) fn intersect_certain_answers(
    query: &Query,
    rels: &[RelId],
    per_comp: &[ComponentModels],
    deadline: Option<std::time::Instant>,
    decode: impl FnMut(&ComponentModels, &[bool]) -> Vec<(RelId, Tuple)>,
) -> Result<CertainAnswers, ReasonError> {
    let mut certain: Option<BTreeSet<Vec<Value>>> = None;
    for_each_combination(per_comp, deadline, decode, |rows| {
        let mut insts: BTreeMap<RelId, NormalInstance> = rels
            .iter()
            .map(|&rel| (rel, NormalInstance::new(rel)))
            .collect();
        for (rel, t) in rows {
            insts.get_mut(&rel).expect("requested relation").push(t);
        }
        let dbs: Vec<NormalInstance> = insts.into_values().collect();
        let db = Database::new(&dbs);
        let answers: BTreeSet<Vec<Value>> = query.eval(&db).into_iter().collect();
        let next = match certain.take() {
            None => answers,
            Some(acc) => acc.intersection(&answers).cloned().collect(),
        };
        let keep_going = !next.is_empty(); // the intersection can only shrink
        certain = Some(next);
        keep_going
    })?;
    Ok(CertainAnswers::Answers(
        certain.unwrap_or_default().into_iter().collect(),
    ))
}

/// The compiled, query-ready form of a specification.
///
/// Construction cost is paid once; queries touch only the components they
/// involve.  All query methods take `&self` — component solvers sit
/// behind mutexes, so engines are `Sync` and queries on distinct
/// components proceed in parallel.
///
/// The engine holds its specification as a [`Cow`]: compiled from a
/// borrowed specification it stays zero-copy, and the first
/// [`CurrencyEngine::apply`] promotes it to an owned copy that mutates in
/// place from then on — either way the compiled clauses can never drift
/// from the specification the engine answers for.  Engines meant to live
/// beyond their construction scope can take ownership up front with
/// [`CurrencyEngine::new_owned`].
pub struct CurrencyEngine<'a> {
    spec: Cow<'a, Specification>,
    value_rels: Vec<RelId>,
    partition: Partition,
    /// Per-slot compiled state, aligned with [`Partition::components`]
    /// (vacant slots hold a trivially satisfiable [`Encoding::vacant`]).
    components: Vec<Mutex<ComponentState>>,
    /// O(dirty region) aggregate-consistency cache (see [`CpsCache`]).
    cps_cache: Mutex<CpsCache>,
    opts: Options,
    /// Metric handles + trace recorder (see [`EngineObs`]); also the
    /// only store of the lifetime counts [`CurrencyEngine::stats`]
    /// reports.
    obs: EngineObs,
}

impl<'a> CurrencyEngine<'a> {
    /// Compile `spec` with value indicators for **every** relation, so all
    /// query kinds (including DCIP/CCQA over any relation) are available.
    pub fn new(spec: &'a Specification, opts: &Options) -> Result<CurrencyEngine<'a>, ReasonError> {
        let value_rels: Vec<RelId> = spec.instances().iter().map(|i| i.rel()).collect();
        CurrencyEngine::with_value_rels(spec, &value_rels, opts)
    }

    /// Compile `spec` with value indicators for `value_rels` only.
    ///
    /// DCIP/CCQA queries are then limited to those relations; CPS, COP and
    /// witness queries are always available.  Pass `&[]` for the leanest
    /// engine when only consistency/ordering queries are needed.
    pub fn with_value_rels(
        spec: &'a Specification,
        value_rels: &[RelId],
        opts: &Options,
    ) -> Result<CurrencyEngine<'a>, ReasonError> {
        CurrencyEngine::build(Cow::Borrowed(spec), value_rels, opts)
    }

    /// [`CurrencyEngine::new`], taking ownership of the specification —
    /// the natural form for a long-lived engine fed by
    /// [`CurrencyEngine::apply`].
    pub fn new_owned(
        spec: Specification,
        opts: &Options,
    ) -> Result<CurrencyEngine<'static>, ReasonError> {
        let value_rels: Vec<RelId> = spec.instances().iter().map(|i| i.rel()).collect();
        CurrencyEngine::build(Cow::Owned(spec), &value_rels, opts)
    }

    /// [`CurrencyEngine::with_value_rels`], taking ownership of the
    /// specification.
    pub fn with_value_rels_owned(
        spec: Specification,
        value_rels: &[RelId],
        opts: &Options,
    ) -> Result<CurrencyEngine<'static>, ReasonError> {
        CurrencyEngine::build(Cow::Owned(spec), value_rels, opts)
    }

    fn build<'s>(
        spec: Cow<'s, Specification>,
        value_rels: &[RelId],
        opts: &Options,
    ) -> Result<CurrencyEngine<'s>, ReasonError> {
        spec.validate()?;
        let partition = Partition::of(&spec);
        let components = compile_components(spec.as_ref(), value_rels, opts, &partition)?;
        let cps_cache = Mutex::new(undecided_cache(components.len()));
        Ok(CurrencyEngine {
            spec,
            value_rels: value_rels.to_vec(),
            partition,
            components,
            cps_cache,
            opts: *opts,
            obs: EngineObs::new(),
        })
    }

    /// The engine's observability bundle (metric handles, recorder).
    pub fn obs(&self) -> &EngineObs {
        &self.obs
    }

    /// Mutable access for wiring: attach a trace recorder or switch
    /// the histograms off.
    pub fn obs_mut(&mut self) -> &mut EngineObs {
        &mut self.obs
    }

    /// Apply a delta to the live specification and re-validate exactly the
    /// touched components.
    ///
    /// The delta is validated and applied atomically
    /// ([`Specification::apply_delta`]) — on error the engine and its
    /// specification are unchanged and remain fully usable.  On success
    /// the entity partition is refreshed incrementally
    /// ([`Partition::refresh`]): component slots the delta touched (or
    /// that a new copy obligation links to a touched one) are recompiled,
    /// in parallel under [`Options::threads`], and patched **in place** —
    /// slots are stable, so every clean component's compiled CNF, learnt
    /// clauses, transitivity lemmas and cached satisfiability verdict
    /// survive without being moved or remapped.  The aggregate CPS cache
    /// is likewise patched for the changed slots only, so the next
    /// [`CurrencyEngine::cps`] call solves exactly the rebuilt
    /// components.  Everything `apply` does is O(dirty region).
    ///
    /// A borrowed engine clones the specification on its first `apply`
    /// (`Cow` promotion); subsequent deltas mutate the owned copy in
    /// place.
    pub fn apply(&mut self, delta: &SpecDelta) -> Result<ApplyReport, ReasonError> {
        self.apply_inner(delta, true)
    }

    /// [`CurrencyEngine::apply`] with the auto-compaction policy
    /// suppressed for this one delta.
    ///
    /// Durability wrappers replaying a log use this so that replayed
    /// deltas do not *initiate* compaction work: the log records what the
    /// original run's policy actually did (as its own compaction
    /// records), and replay re-executes those records verbatim instead.
    /// Live traffic should always go through [`CurrencyEngine::apply`].
    pub fn apply_replayed(&mut self, delta: &SpecDelta) -> Result<ApplyReport, ReasonError> {
        self.apply_inner(delta, false)
    }

    fn apply_inner(
        &mut self,
        delta: &SpecDelta,
        fire_auto: bool,
    ) -> Result<ApplyReport, ReasonError> {
        let recorder = self.obs.recorder().clone();
        let apply_span = SpanGuard::enter(&*recorder, "engine.apply", 0);
        let parent = apply_span.as_ref().map_or(0, SpanGuard::id);
        let clock = self.obs.clock();
        let validate_span = SpanGuard::enter(&*recorder, "engine.validate", parent);
        // A rejected delta on a still-borrowed engine must not pay the
        // Cow promotion (a full spec clone), so validate first; owned
        // engines skip this — `apply_delta` validates internally.
        if matches!(self.spec, Cow::Borrowed(_)) {
            delta.validate(self.spec.as_ref())?;
        }
        let effects = self.spec.to_mut().apply_delta(delta)?;
        drop(validate_span);
        self.obs.lap(clock, &self.obs.apply_validate_ns);
        let plan = self.rebuild_touched(&effects.touched_cells, parent)?;
        self.obs.applies_total.inc();
        if let Some(start) = clock {
            self.obs.apply_ns.record(start.elapsed().as_nanos() as u64);
        }
        let mut report = ApplyReport {
            components_rebuilt: plan.rebuilt(),
            components_reused: plan.reused(),
            cells_touched: effects.touched_cells.len(),
            inserted: effects.inserted,
            compact_step: None,
        };
        // Auto-compaction policy: once retraction tombstones accumulate
        // past the configured threshold, each apply runs one slot-bounded
        // step rather than letting the id space grow until someone calls
        // `compact()`.  The remap rides along in the report so callers
        // can translate the ids they hold (the `inserted` list included).
        // The pause bound deliberately does not apply here, so the step
        // is a pure function of the specification and the options and a
        // log replay reproduces it exactly.
        if fire_auto && self.opts.auto_compact_due(&self.spec) {
            report.compact_step = Some(self.compact_step_slots(self.opts.auto_compact_slots())?);
        }
        Ok(report)
    }

    /// Recompile and patch exactly the components owning `touched` cells
    /// — the shared tail of [`CurrencyEngine::apply`] and
    /// [`CurrencyEngine::compact_step`].  Refreshes the partition over
    /// the dirty region, compiles the rebuilt slots, then patches the
    /// changed slots and the aggregate CPS cache in place; every clean
    /// component keeps its cached encoding untouched.
    fn rebuild_touched(
        &mut self,
        touched: &BTreeSet<(RelId, Eid)>,
        parent_span: u64,
    ) -> Result<RefreshPlan, ReasonError> {
        let recorder = self.obs.recorder().clone();
        let clock = self.obs.clock();
        let plan = {
            let _span = SpanGuard::enter(&*recorder, "engine.refresh", parent_span);
            self.partition.refresh(self.spec.as_ref(), touched)
        };
        let clock = self.obs.lap(clock, &self.obs.apply_refresh_ns);
        // Compile the rebuilt slots (in parallel when the fleet warrants
        // it) *before* patching any state, so the fallible step cannot
        // leave the engine half-updated.
        let transitivity = self.opts.transitivity;
        let compiled = {
            let _span = SpanGuard::enter(&*recorder, "engine.recompile", parent_span);
            let spec = self.spec.as_ref();
            let partition = &self.partition;
            let value_rels = &self.value_rels;
            let rebuilt = &plan.rebuilt;
            run_indexed(effective_threads(&self.opts), rebuilt.len(), |k| {
                Ok(Encoding::for_component(
                    spec,
                    value_rels,
                    &partition.components()[rebuilt[k]],
                    transitivity,
                ))
            })?
        };
        self.obs.lap(clock, &self.obs.apply_recompile_ns);
        // Patch exactly the changed slots (infallible from here on); no
        // other slot's mutex is even acquired.
        let cache = self
            .cps_cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for &slot in &plan.freed {
            let slot_mutex = &mut self.components[slot];
            let state = slot_mutex.get_mut().unwrap_or_else(PoisonError::into_inner);
            retire_status(cache, slot, state.status);
            *state = ComponentState {
                enc: Encoding::vacant(&self.value_rels, transitivity),
                status: Some(true),
            };
            // The slot holds brand-new state now; a stale poison flag
            // would make the next lock discard its status for nothing.
            slot_mutex.clear_poison();
        }
        for (&slot, enc) in plan.rebuilt.iter().zip(compiled) {
            if slot < self.components.len() {
                let slot_mutex = &mut self.components[slot];
                let state = slot_mutex.get_mut().unwrap_or_else(PoisonError::into_inner);
                retire_status(cache, slot, state.status);
                *state = ComponentState { enc, status: None };
                slot_mutex.clear_poison();
            } else {
                debug_assert_eq!(slot, self.components.len(), "appends are contiguous");
                self.components
                    .push(Mutex::new(ComponentState { enc, status: None }));
            }
            cache.unsolved.insert(slot);
        }
        debug_assert_eq!(self.components.len(), plan.slots, "slot arrays aligned");
        self.obs.components_rebuilt.add(plan.rebuilt() as u64);
        self.obs.components_reused.add(plan.reused() as u64);
        Ok(plan)
    }

    /// Reclaim every tombstone slot of the specification: one compaction
    /// step with no slot bound and no deadline.
    ///
    /// Long churn streams grow one dead tuple slot per retraction (ids
    /// must stay stable between compactions); this hands the memory back
    /// and re-densifies the id space.  The sweep runs one full-width
    /// slice per relation through the same slice executor as
    /// [`CurrencyEngine::compact_step`], so only the components whose
    /// tuples actually moved are re-derived and recompiled, and a
    /// trailing dead block truncates without rebuilding anything.  The
    /// result is byte-identical to the core reference sweep
    /// ([`Specification::compact`]), which stays the independently
    /// implemented oracle the step path is differentially tested
    /// against.  It counts as one step in [`EngineStats::compact_steps`].
    /// With no tombstones this is a no-op: nothing is rebuilt and
    /// borrowed specifications are not cloned.
    ///
    /// Externally held [`TupleId`]s are invalidated; translate them
    /// through [`CompactStepReport::new_id`].
    pub fn compact(&mut self) -> Result<CompactStepReport, ReasonError> {
        // Slots are u32-indexed, so a u32::MAX window always reaches the
        // end of the relation (and cannot overflow the bounds arithmetic).
        self.compact_step_inner(usize::MAX, u32::MAX as usize, None)
    }

    /// Run **one bounded compaction step**: reclaim tombstone slots in
    /// per-relation slices until the budget's slot bound is met, its
    /// pause deadline expires, or the specification is fully drained —
    /// then rebuild only the components whose tuples the step actually
    /// remapped.
    ///
    /// [`CurrencyEngine::compact`] is the same step with no bound: each
    /// step is O(slots scanned) plus the dirty-region rebuild, the
    /// specification is fully valid and queryable between steps, and a
    /// drained sequence of steps leaves the specification byte-identical
    /// to the reference sweep ([`Specification::compact`]).  Components
    /// none of whose tuples moved keep their cached encodings, learnt
    /// clauses and satisfiability verdicts exactly as
    /// [`CurrencyEngine::apply`] does for clean components.
    ///
    /// Only the tuple ids listed in the returned report's slices are
    /// invalidated; translate held ids through
    /// [`CompactStepReport::new_id`].  `done` on the report means no
    /// tombstones remain.  With no tombstones the step is a free no-op.
    ///
    /// The deadline is best-effort and checked between slices, so a step
    /// can overshoot `max_pause` by at most one slice quantum; at least
    /// one slice always runs, so progress is guaranteed.  Callers that
    /// need bit-reproducible steps (log replay) should use
    /// [`CurrencyEngine::compact_step_slots`], which is a pure function
    /// of the specification.
    pub fn compact_step(
        &mut self,
        budget: &CompactBudget,
    ) -> Result<CompactStepReport, ReasonError> {
        let deadline = std::time::Instant::now() + budget.max_pause;
        self.compact_step_inner(budget.max_slots_per_step, SLICE_QUANTUM, Some(deadline))
    }

    /// [`CurrencyEngine::compact_step`] bounded by slot count only — a
    /// deterministic function of the specification, with no wall-clock
    /// dependence.  This is what the [`Options::auto_compact_tombstones`]
    /// policy runs after an apply, and what durability wrappers use when
    /// a replayed log ends mid-compaction.
    pub fn compact_step_slots(
        &mut self,
        max_slots: usize,
    ) -> Result<CompactStepReport, ReasonError> {
        self.compact_step_inner(max_slots, SLICE_QUANTUM, None)
    }

    /// One step through [`run_slices`], then the dirty-region rebuild.
    fn compact_step_inner(
        &mut self,
        max_slots: usize,
        quantum: usize,
        deadline: Option<std::time::Instant>,
    ) -> Result<CompactStepReport, ReasonError> {
        if self.spec.total_tombstones() == 0 {
            // Nothing to reclaim: no Cow promotion, no rebuild, no
            // counter movement.
            return Ok(CompactStepReport {
                done: true,
                ..CompactStepReport::default()
            });
        }
        let clock = self.obs.clock();
        let step = run_slices(self.spec.to_mut(), max_slots, quantum, deadline);
        self.finish_step(&step)?;
        if let Some(start) = clock {
            self.obs
                .compact_step_pause_ns
                .record(start.elapsed().as_nanos() as u64);
        }
        Ok(step)
    }

    /// Re-execute a logged compaction step verbatim against this engine.
    ///
    /// Durability wrappers call this during replay: the logged slices'
    /// bounds are re-applied through the same validated slice executor
    /// that produced them, so a replayed engine passes through the exact
    /// intermediate states of the original run.  Returns the freshly
    /// computed report — the caller compares it against the logged one
    /// and treats any difference as log divergence.  Bounds that do not
    /// describe a sweep state of the current specification (a corrupt or
    /// out-of-order log) fail cleanly with the specification untouched
    /// up to the offending slice.
    pub fn compact_apply_step(
        &mut self,
        step: &CompactStepReport,
    ) -> Result<CompactStepReport, ReasonError> {
        let mut replayed = CompactStepReport::default();
        if !step.slices.is_empty() {
            let spec = self.spec.to_mut();
            for logged in &step.slices {
                let slice =
                    spec.compact_slice_at(logged.rel, logged.write, logged.start, logged.end)?;
                replayed.reclaimed += slice.reclaimed as usize;
                replayed.slices.push(slice);
            }
        }
        replayed.done = self.spec.total_tombstones() == 0;
        self.finish_step(&replayed)?;
        Ok(replayed)
    }

    /// Patch the compiled state after a step's slices have executed: one
    /// batched dirty-region rebuild over every cell that holds a remapped
    /// tuple.  A step that only truncated trailing tombstones moved
    /// nothing and rebuilds nothing.
    fn finish_step(&mut self, step: &CompactStepReport) -> Result<(), ReasonError> {
        if step.slices.is_empty() {
            return Ok(());
        }
        let touched = remapped_cells(&self.spec, &step.slices);
        if !touched.is_empty() {
            self.rebuild_touched(&touched, 0)?;
        }
        self.obs.compact_steps.inc();
        self.obs.slots_reclaimed.add(step.reclaimed as u64);
        Ok(())
    }

    /// Record a completed log recovery in the engine's lifetime counters
    /// (`currency_engine_recoveries_total` and
    /// `currency_engine_deltas_replayed_total`, surfaced as
    /// [`EngineStats::recoveries`] / [`EngineStats::deltas_replayed`]).
    ///
    /// Called by durability wrappers (`currency-store`'s `DurableEngine`)
    /// after rebuilding an engine from a snapshot and replaying the log
    /// suffix through [`CurrencyEngine::apply`]; the replayed applies
    /// also count toward [`EngineStats::updates_applied`], so the two
    /// counters together distinguish replayed from live traffic.
    pub fn note_recovery(&mut self, deltas_replayed: usize) {
        self.obs.recoveries.inc();
        self.obs.deltas_replayed.add(deltas_replayed as u64);
    }

    /// The specification the engine currently answers for (including every
    /// applied delta).
    pub fn spec(&self) -> &Specification {
        self.spec.as_ref()
    }

    /// The entity partition the engine solves over.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The engine's options.
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// Aggregate counters: sizes and CDCL statistics from the component
    /// solvers, lifetime counts read from the engine's registry
    /// ([`EngineObs`]).
    pub fn stats(&self) -> EngineStats {
        let mut stats = EngineStats {
            components: self.partition.len(),
            cells: self.partition.cell_count(),
            ..self.obs.stats()
        };
        for ix in 0..self.components.len() {
            let st = self.component(ix);
            stats.vars += st.enc.num_vars();
            stats.clauses += st.enc.num_clauses();
            stats.sat += st.enc.solver_stats();
        }
        stats
    }

    /// Lock one slot's state, surviving mutex poisoning.
    ///
    /// A query that panics while holding a component lock (a budget
    /// assertion, a debug invariant) poisons the mutex; without recovery
    /// every later query on that slot would panic too, which is fatal for
    /// a long-lived engine.  The component state itself stays coherent
    /// across such a panic — queries mutate only the solver, whose
    /// operations keep its invariants — but the cached satisfiability
    /// verdict is conservatively dropped (and retired from the aggregate
    /// cache) so the next query re-derives it.
    fn component(&self, ix: usize) -> MutexGuard<'_, ComponentState> {
        match self.components[ix].lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.components[ix].clear_poison();
                let mut guard = poisoned.into_inner();
                if let Some(was_sat) = guard.status.take() {
                    let mut cache = self.cps_lock();
                    if !was_sat {
                        cache.unsat -= 1;
                    }
                    cache.unsolved.insert(ix);
                }
                guard
            }
        }
    }

    /// Lock the aggregate-consistency cache (poisoning cannot corrupt it:
    /// every mutation is a couple of integer/set updates).
    fn cps_lock(&self) -> MutexGuard<'_, CpsCache> {
        self.cps_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Satisfiability of one slot, solved on first demand and cached
    /// (with the aggregate cache book-kept under the slot's lock, so
    /// concurrent solvers of the same slot cannot double-count).
    ///
    /// The solve runs under [`Options::solve_limits`] / deadline; an
    /// interrupt leaves `status` as `None` and the slot in the undecided
    /// set — the cache treats an interrupted slot as *undecided*, never
    /// unsat — and the cached solver keeps its learnt state, so the next
    /// attempt resumes warm.
    fn component_status(&self, ix: usize) -> Result<bool, ReasonError> {
        let mut st = self.component(ix);
        if let Some(sat) = st.status {
            return Ok(sat);
        }
        let bounds = Bounds::from_options(&self.opts);
        let clock = self.obs.clock();
        let before = if clock.is_some() {
            st.enc.solver_stats()
        } else {
            SolverStats::default()
        };
        let outcome = st.enc.solve_bounded(&bounds);
        // Record before propagating an interrupt: a budget-killed solve
        // spent real time and conflicts, and the histograms must show
        // it.
        self.obs
            .record_solve(clock, &before, &st.enc.solver_stats());
        let sat = outcome? == SolveResult::Sat;
        st.status = Some(sat);
        let mut cache = self.cps_lock();
        if cache.unsolved.remove(&ix) && !sat {
            cache.unsat += 1;
        }
        Ok(sat)
    }

    /// **CPS** — is the specification consistent?  Decides only the slots
    /// whose satisfiability is not yet known (in parallel when there are
    /// many): all of them on the first call, exactly the rebuilt slots
    /// after a delta, none at steady state — the call is O(undecided
    /// region), never a sweep of every component.
    pub fn cps(&self) -> Result<bool, ReasonError> {
        if self.partition.has_ground_falsum {
            return Ok(false);
        }
        // Loop until the undecided set is empty *at verdict time*: a
        // concurrent poison recovery can re-insert a slot between the
        // drain and the check, and "still undecided" must trigger another
        // drain, never masquerade as a verdict.
        loop {
            let pending: Vec<usize> = {
                let cache = self.cps_lock();
                if cache.unsolved.is_empty() {
                    return Ok(cache.unsat == 0);
                }
                cache.unsolved.iter().copied().collect()
            };
            run_indexed(effective_threads(&self.opts), pending.len(), |k| {
                self.component_status(pending[k])
            })?;
        }
    }

    /// **COP** — is every pair of the candidate order certain?  Vacuously
    /// true when the specification is inconsistent (paper convention);
    /// otherwise one assumption-based solve per pair, against only the
    /// pair's component.
    pub fn cop(&self, ot: &CurrencyOrderQuery) -> Result<bool, ReasonError> {
        if !self.cps()? {
            return Ok(true); // Mod(S) = ∅: vacuously certain
        }
        if ot.rel.index() >= self.spec.instances().len() {
            return Ok(ot.pairs.is_empty());
        }
        let inst = self.spec.instance(ot.rel);
        for &(attr, lesser, greater) in &ot.pairs {
            let (Ok(lt), Ok(gt)) = (inst.tuple_checked(lesser), inst.tuple_checked(greater)) else {
                return Ok(false); // unknown tuple: never certain
            };
            if lesser == greater || lt.eid != gt.eid {
                return Ok(false); // reflexive or cross-entity: never holds
            }
            let ix = self
                .partition
                .component_of(ot.rel, lt.eid)
                .expect("every entity has a component");
            let mut st = self.component(ix);
            let Some(l) = st.enc.order_lit(ot.rel, attr, lesser, greater) else {
                return Ok(false);
            };
            let bounds = Bounds::from_options(&self.opts);
            if st.enc.solve_bounded_with_assumptions(&[!l], &bounds)? == SolveResult::Sat {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// **DCIP** — do all completions agree on the current instance of
    /// `rel`?  Enumerates at most two rel-projected models per touched
    /// component, on throwaway solver clones.
    pub fn dcip(&self, rel: RelId) -> Result<bool, ReasonError> {
        self.require_value_rel(rel)?;
        if !self.cps()? {
            return Ok(true); // vacuously deterministic
        }
        let touched = self.partition.components_touching(rel);
        let verdicts = run_indexed(effective_threads(&self.opts), touched.len(), |k| {
            let ix = touched[k];
            let st = self.component(ix);
            let (_, vars) = st.enc.restricted_projection(&[rel]);
            if vars.is_empty() {
                return Ok(true); // every completion yields the same rows
            }
            let mut enc = st.enc.clone();
            drop(st);
            let bounds = Bounds::from_options(&self.opts);
            let mut count = 0usize;
            let enumeration =
                enc.for_each_model_bounded(&vars, self.opts.max_models, &bounds, |_| {
                    count += 1;
                    count < 2
                })?;
            if let Enumeration::LimitReached(n) = enumeration {
                return Err(ReasonError::BudgetExceeded {
                    what: "current-instance enumeration (DCIP)",
                    budget: self.opts.max_models,
                    spent: n,
                });
            }
            Ok(count < 2)
        })?;
        Ok(verdicts.into_iter().all(|deterministic| deterministic))
    }

    /// **CCQA** — is `tuple` a certain current answer of `query`?
    pub fn ccqa(&self, query: &Query, tuple: &[Value]) -> Result<bool, ReasonError> {
        Ok(self.certain_answers(query)?.contains(tuple))
    }

    /// The certain current answers of `query`: the intersection of the
    /// query's answers over every realizable combination of current
    /// instances.
    ///
    /// Realizable instances are enumerated **per component** and composed
    /// as a product, so the per-component All-SAT never pays for order
    /// choices in unrelated components.  Both the per-component model
    /// count and the composed product are bounded by
    /// [`Options::max_models`].
    pub fn certain_answers(&self, query: &Query) -> Result<CertainAnswers, ReasonError> {
        let rels: Vec<RelId> = query.body().relations().into_iter().collect();
        for &rel in &rels {
            self.require_value_rel(rel)?;
        }
        if !self.cps()? {
            return Ok(CertainAnswers::Inconsistent);
        }
        let touched = self.touched_components(&rels);
        let per_comp = self.enumerate_component_models(
            &rels,
            &touched,
            "current-instance enumeration (CCQA)",
        )?;
        intersect_certain_answers(query, &rels, &per_comp, self.opts.deadline, |cm, model| {
            self.decode_locked(&rels, cm, model)
        })
    }

    /// Decode one component's chosen model under the component's lock.
    fn decode_locked(
        &self,
        rels: &[RelId],
        cm: &ComponentModels,
        model: &[bool],
    ) -> Vec<(RelId, Tuple)> {
        let st = self.component(cm.comp);
        st.enc
            .decode_restricted(self.spec.as_ref(), rels, &cm.indices, model)
    }

    /// The components holding cells of any of `rels`, deduplicated.
    fn touched_components(&self, rels: &[RelId]) -> Vec<usize> {
        let mut out: Vec<usize> = rels
            .iter()
            .flat_map(|&rel| self.partition.components_touching(rel))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Enumerate each listed component's projected models over `rels`
    /// (parallel, on throwaway solver clones).  Both the per-component
    /// model count and the composed product are bounded by
    /// [`Options::max_models`]; `what` labels the budget error.
    fn enumerate_component_models(
        &self,
        rels: &[RelId],
        comps: &[usize],
        what: &'static str,
    ) -> Result<Vec<ComponentModels>, ReasonError> {
        let per_comp = run_indexed(effective_threads(&self.opts), comps.len(), |k| {
            let ix = comps[k];
            let st = self.component(ix);
            let (indices, vars) = st.enc.restricted_projection(rels);
            if vars.is_empty() {
                // One realizable outcome: the component's fixed rows.
                return Ok(ComponentModels {
                    comp: ix,
                    indices,
                    models: vec![Vec::new()],
                });
            }
            let mut enc = st.enc.clone();
            drop(st);
            let bounds = Bounds::from_options(&self.opts);
            let mut models: Vec<Vec<bool>> = Vec::new();
            let enumeration =
                enc.for_each_model_bounded(&vars, self.opts.max_models, &bounds, |m| {
                    models.push(m.to_vec());
                    true
                })?;
            if let Enumeration::LimitReached(n) = enumeration {
                return Err(ReasonError::BudgetExceeded {
                    what,
                    budget: self.opts.max_models,
                    spent: n,
                });
            }
            Ok(ComponentModels {
                comp: ix,
                indices,
                models,
            })
        })?;
        check_product_budget(&per_comp, self.opts.max_models, what)?;
        Ok(per_comp)
    }

    /// A witness completion from `Mod(S)`, assembled from per-component
    /// models; `Ok(None)` means the specification is inconsistent.
    pub fn witness_completion(&self) -> Result<Option<Completion>, ReasonError> {
        if !self.cps()? {
            return Ok(None);
        }
        let chains_per_comp: Vec<ComponentChains> =
            run_indexed(effective_threads(&self.opts), self.components.len(), |ix| {
                let mut st = self.component(ix);
                // Re-solve without assumptions so the model is a plain
                // completion model (assumption queries may have left the
                // solver without one); in lazy mode this also re-runs the
                // closure refinement so the model is transitive.
                let sat = st.enc.solve();
                debug_assert_eq!(sat, SolveResult::Sat, "component known satisfiable");
                Ok(st.enc.model_chains(self.spec.as_ref()))
            })?;
        let mut chains: BTreeMap<RelId, Vec<BTreeMap<Eid, Vec<TupleId>>>> = self
            .spec
            .instances()
            .iter()
            .map(|inst| (inst.rel(), vec![BTreeMap::new(); inst.arity()]))
            .collect();
        for (rel, attr, eid, chain) in chains_per_comp.into_iter().flatten() {
            chains.get_mut(&rel).expect("known relation")[attr.index()].insert(eid, chain);
        }
        let rels: Result<Vec<RelCompletion>, _> = self
            .spec
            .instances()
            .iter()
            .map(|inst| {
                RelCompletion::new(
                    inst,
                    chains.remove(&inst.rel()).expect("chains per relation"),
                )
            })
            .collect();
        let completion = Completion::new(rels?);
        debug_assert!(completion.is_consistent_for(self.spec.as_ref()));
        Ok(Some(completion))
    }

    /// The realizable current instances of `rel` (up to the model budget),
    /// composed across components.  Exposed for diagnostics and tests.
    pub fn current_instances(&self, rel: RelId) -> Result<Vec<NormalInstance>, ReasonError> {
        self.require_value_rel(rel)?;
        if !self.cps()? {
            return Ok(Vec::new());
        }
        let rels = [rel];
        let touched = self.partition.components_touching(rel);
        let per_comp =
            self.enumerate_component_models(&rels, &touched, "current-instance enumeration")?;
        let mut out: Vec<NormalInstance> = Vec::new();
        for_each_combination(
            &per_comp,
            self.opts.deadline,
            |cm, model| self.decode_locked(&rels, cm, model),
            |rows| {
                let mut inst = NormalInstance::new(rel);
                for (_, t) in rows {
                    inst.push(t);
                }
                out.push(inst);
                true
            },
        )?;
        Ok(out)
    }

    fn require_value_rel(&self, rel: RelId) -> Result<(), ReasonError> {
        if self.value_rels.contains(&rel) {
            Ok(())
        } else {
            Err(ReasonError::UnsupportedQuery {
                detail: format!(
                    "relation {rel:?} has no value indicators in this engine; \
                     build it with CurrencyEngine::new or include the relation \
                     in with_value_rels"
                ),
            })
        }
    }
}

/// Compile every slot of `partition` into an unsolved component state
/// (parallel under `opts.threads`) — shared by engine construction and
/// post-compaction rebuild so the two can never drift.
fn compile_components(
    spec: &Specification,
    value_rels: &[RelId],
    opts: &Options,
    partition: &Partition,
) -> Result<Vec<Mutex<ComponentState>>, ReasonError> {
    let encodings = run_indexed(effective_threads(opts), partition.slots(), |ix| {
        Ok(Encoding::for_component(
            spec,
            value_rels,
            &partition.components()[ix],
            opts.transitivity,
        ))
    })?;
    Ok(encodings
        .into_iter()
        .map(|enc| Mutex::new(ComponentState { enc, status: None }))
        .collect())
}

/// The consistency cache of an engine none of whose slots is decided.
fn undecided_cache(slots: usize) -> CpsCache {
    CpsCache {
        unsolved: (0..slots).collect(),
        unsat: 0,
    }
}

pub(crate) fn effective_threads(opts: &Options) -> usize {
    if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        opts.threads
    }
}

/// Run `f(0..n)` and collect results in index order, fanning out across
/// `threads` workers when the job count warrants it.  The first error
/// wins; remaining work is still drained (workers are not cancelled).
pub(crate) fn run_indexed<T, F>(threads: usize, n: usize, f: F) -> Result<Vec<T>, ReasonError>
where
    T: Send,
    F: Fn(usize) -> Result<T, ReasonError> + Sync,
{
    // Thread spawn costs dwarf small jobs; only fan out for real fleets.
    const MIN_PARALLEL_JOBS: usize = 16;
    if threads <= 1 || n < MIN_PARALLEL_JOBS {
        return (0..n).map(&f).collect();
    }
    let slots: Vec<Mutex<Option<Result<T, ReasonError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let ix = next.fetch_add(1, Ordering::Relaxed);
                if ix >= n {
                    break;
                }
                *slots[ix].lock().expect("result slot") = Some(f(ix));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every index processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use currency_core::{Catalog, CmpOp, DenialConstraint, RelationSchema, Term, Tuple};
    use currency_query::{Atom, Formula, QueryBuilder, Term as QTerm};

    const A: AttrId = AttrId(0);

    fn multi_entity_spec() -> (Specification, RelId) {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        for e in 0..3u64 {
            for v in [10, 20] {
                spec.instance_mut(r)
                    .push_tuple(Tuple::new(Eid(e), vec![Value::int(v + e as i64)]))
                    .unwrap();
            }
        }
        (spec, r)
    }

    fn monotone(r: RelId) -> DenialConstraint {
        DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
            .then_order(1, A, 0)
            .build()
            .unwrap()
    }

    #[test]
    fn engine_partitions_per_entity() {
        let (spec, _) = multi_entity_spec();
        let engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        assert_eq!(engine.partition().len(), 3);
        assert!(engine.cps().unwrap());
        let stats = engine.stats();
        assert_eq!(stats.components, 3);
        assert_eq!(stats.cells, 3);
        assert!(stats.vars > 0);
    }

    #[test]
    fn engine_cop_matches_expectations() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        // Within entity 0: 10 < 20 so t0 ≺ t1 is forced.
        assert!(engine
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1)))
            .unwrap());
        assert!(!engine
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(1), TupleId(0)))
            .unwrap());
        // Cross-entity pairs are never certain.
        assert!(!engine
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(2)))
            .unwrap());
        // Reflexive pairs are never certain.
        assert!(!engine
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(0)))
            .unwrap());
        // Unknown tuples are never certain.
        assert!(!engine
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(99)))
            .unwrap());
    }

    #[test]
    fn engine_dcip_and_answers() {
        let (mut spec, r) = multi_entity_spec();
        assert!(!CurrencyEngine::new(&spec, &Options::default())
            .unwrap()
            .dcip(r)
            .unwrap());
        spec.add_constraint(monotone(r)).unwrap();
        let engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        assert!(engine.dcip(r).unwrap());
        let mut b = QueryBuilder::new();
        let x = b.var();
        let q = b.build(vec![x], Formula::Atom(Atom::new(r, vec![QTerm::Var(x)])));
        let ans = engine.certain_answers(&q).unwrap();
        assert_eq!(
            ans.rows().unwrap(),
            &[
                vec![Value::int(20)],
                vec![Value::int(21)],
                vec![Value::int(22)]
            ]
        );
    }

    #[test]
    fn engine_witness_is_consistent() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        let w = engine.witness_completion().unwrap().expect("consistent");
        assert!(w.is_consistent_for(&spec));
        assert!(w.rel(r).precedes(A, TupleId(0), TupleId(1)));
    }

    #[test]
    fn engine_detects_inconsistency() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        // Contradict the constraint within entity 2 only.
        spec.instance_mut(r)
            .add_order(A, TupleId(5), TupleId(4))
            .unwrap();
        let engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        assert!(!engine.cps().unwrap());
        // Vacuous conventions hold.
        assert!(engine
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(1), TupleId(0)))
            .unwrap());
        assert!(engine.dcip(r).unwrap());
        assert!(engine.witness_completion().unwrap().is_none());
    }

    #[test]
    fn lean_engine_rejects_value_queries_politely() {
        let (spec, r) = multi_entity_spec();
        let engine = CurrencyEngine::with_value_rels(&spec, &[], &Options::default()).unwrap();
        assert!(engine.cps().unwrap());
        assert!(matches!(
            engine.dcip(r),
            Err(ReasonError::UnsupportedQuery { .. })
        ));
    }

    #[test]
    fn lazy_and_eager_engines_agree_and_surface_lemma_stats() {
        use crate::TransitivityMode;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        // A third tuple per entity so transitivity has triangles to check.
        for e in 0..3u64 {
            spec.instance_mut(r)
                .push_tuple(Tuple::new(Eid(e), vec![Value::int(15 + e as i64)]))
                .unwrap();
        }
        let eager_opts = Options {
            transitivity: TransitivityMode::Eager,
            ..Options::default()
        };
        let lazy_opts = Options {
            transitivity: TransitivityMode::Lazy,
            ..Options::default()
        };
        let eager = CurrencyEngine::new(&spec, &eager_opts).unwrap();
        let lazy = CurrencyEngine::new(&spec, &lazy_opts).unwrap();
        // Variable allocation is mode-independent (parity), clause counts
        // are not (lazy omits the eager triangle grounding).
        assert_eq!(eager.stats().vars, lazy.stats().vars);
        assert!(lazy.stats().clauses < eager.stats().clauses);
        assert_eq!(eager.cps().unwrap(), lazy.cps().unwrap());
        for u in 0..9u32 {
            for v in 0..9u32 {
                let q = CurrencyOrderQuery::single(r, A, TupleId(u), TupleId(v));
                assert_eq!(eager.cop(&q).unwrap(), lazy.cop(&q).unwrap(), "{u} ≺ {v}");
            }
        }
        assert_eq!(eager.dcip(r).unwrap(), lazy.dcip(r).unwrap());
        assert_eq!(
            eager.current_instances(r).unwrap().len(),
            lazy.current_instances(r).unwrap().len(),
            "realizable current-instance counts must match"
        );
        // The aggregated stats surface the new solver counters.
        assert_eq!(eager.stats().sat.lemmas_added, 0, "eager never lemmatizes");
        let _ = lazy.stats().sat.lemmas_added; // present and aggregated
    }

    #[test]
    fn apply_rebuilds_only_the_touched_component() {
        use currency_core::SpecDelta;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        assert!(engine.cps().unwrap());
        // Insert a new most-current value into entity 1 only.
        let mut delta = SpecDelta::new();
        delta.insert_tuple(r, Tuple::new(Eid(1), vec![Value::int(99)]));
        let report = engine.apply(&delta).unwrap();
        assert_eq!(report.components_rebuilt, 1);
        assert_eq!(report.components_reused, 2);
        assert_eq!(report.inserted.len(), 1);
        let new_id = report.inserted[0].1;
        // The borrowed original is untouched (Cow promotion).
        assert_eq!(spec.instance(r).len(), 6);
        assert_eq!(engine.spec().instance(r).len(), 7);
        // Verdicts match a freshly built engine on the updated spec.
        let fresh = CurrencyEngine::new(engine.spec(), &Options::default()).unwrap();
        assert_eq!(engine.cps().unwrap(), fresh.cps().unwrap());
        for (u, v) in [(TupleId(2), new_id), (new_id, TupleId(2))] {
            let q = CurrencyOrderQuery::single(r, A, u, v);
            assert_eq!(engine.cop(&q).unwrap(), fresh.cop(&q).unwrap());
        }
        assert!(engine
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(2), new_id))
            .unwrap());
        // Lifetime counters surface in the stats.
        let stats = engine.stats();
        assert_eq!(stats.updates_applied, 1);
        assert_eq!(stats.components_rebuilt, 1);
        assert_eq!(stats.components_reused, 2);
    }

    #[test]
    fn apply_chains_on_an_owned_engine() {
        use currency_core::SpecDelta;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        for step in 0..3 {
            let mut delta = SpecDelta::new();
            delta.insert_tuple(r, Tuple::new(Eid(0), vec![Value::int(100 + step)]));
            let report = engine.apply(&delta).unwrap();
            assert_eq!(report.components_rebuilt, 1);
            assert!(engine.cps().unwrap());
        }
        assert_eq!(engine.stats().updates_applied, 3);
        assert_eq!(engine.spec().instance(r).entity_group(Eid(0)).len(), 5);
    }

    #[test]
    fn failed_apply_leaves_engine_untouched_and_usable() {
        use currency_core::SpecDelta;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        assert!(engine.cps().unwrap());
        // Second op of the delta is invalid: nothing may change.
        let mut delta = SpecDelta::new();
        delta
            .insert_tuple(r, Tuple::new(Eid(0), vec![Value::int(5)]))
            .add_order_edge(r, A, TupleId(0), TupleId(2)); // cross-entity
        assert!(engine.apply(&delta).is_err());
        assert_eq!(engine.spec().instance(r).len(), 6, "no partial mutation");
        assert_eq!(engine.stats().updates_applied, 0);
        assert!(engine.cps().unwrap());
        assert!(engine
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1)))
            .unwrap());
    }

    #[test]
    fn apply_handles_constraint_and_removal_deltas() {
        use currency_core::SpecDelta;
        let (spec, r) = multi_entity_spec();
        let mut engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        // Unconstrained: 10 ≺ 20 is not certain.
        let q = CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1));
        assert!(!engine.cop(&q).unwrap());
        // Adding the monotone constraint touches every cell of R.
        let mut delta = SpecDelta::new();
        delta.add_constraint(monotone(r));
        let report = engine.apply(&delta).unwrap();
        assert_eq!(report.components_rebuilt, 3);
        assert!(engine.cop(&q).unwrap(), "constraint now forces the pair");
        // Removing the greater tuple makes the pair unknown → not certain.
        let mut delta = SpecDelta::new();
        delta.remove_tuple(r, TupleId(1));
        let report = engine.apply(&delta).unwrap();
        assert_eq!(report.components_rebuilt, 1);
        assert!(!engine.cop(&q).unwrap(), "removed tuple is never certain");
        let fresh = CurrencyEngine::new(engine.spec(), &Options::default()).unwrap();
        assert_eq!(engine.cps().unwrap(), fresh.cps().unwrap());
        assert_eq!(engine.dcip(r).unwrap(), fresh.dcip(r).unwrap());
    }

    #[test]
    fn compact_reclaims_churn_tombstones_and_preserves_verdicts() {
        use currency_core::SpecDelta;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        // Churn entity 1: every insert+retract leaves one tombstone slot.
        for step in 0..5 {
            let mut delta = SpecDelta::new();
            delta.insert_tuple(r, Tuple::new(Eid(1), vec![Value::int(50 + step)]));
            let report = engine.apply(&delta).unwrap();
            let (rel, id) = report.inserted[0];
            let mut retract = SpecDelta::new();
            retract.remove_tuple(rel, id);
            engine.apply(&retract).unwrap();
        }
        assert!(engine.cps().unwrap());
        assert_eq!(engine.spec().instance(r).len(), 11, "6 live + 5 dead");
        let report = engine.compact().unwrap();
        assert_eq!(report.reclaimed, 5);
        // The tuple vector shrank; ids are dense again.
        assert_eq!(engine.spec().instance(r).len(), 6);
        assert_eq!(engine.spec().instance(r).live_len(), 6);
        // Verdicts equal a fresh engine over the compacted specification.
        let fresh = CurrencyEngine::new(engine.spec(), &Options::default()).unwrap();
        assert_eq!(engine.cps().unwrap(), fresh.cps().unwrap());
        for u in 0..6u32 {
            for v in 0..6u32 {
                let q = CurrencyOrderQuery::single(r, A, TupleId(u), TupleId(v));
                assert_eq!(engine.cop(&q).unwrap(), fresh.cop(&q).unwrap(), "{u}≺{v}");
            }
        }
        assert_eq!(engine.dcip(r).unwrap(), fresh.dcip(r).unwrap());
        let stats = engine.stats();
        assert_eq!(stats.compact_steps, 1, "compact() is one step");
        assert_eq!(stats.slots_reclaimed, 5);
        // Nothing left to reclaim: no rebuild, no counter bump.
        let noop = engine.compact().unwrap();
        assert_eq!(noop.reclaimed, 0);
        assert!(noop.done && noop.slices.is_empty());
        assert_eq!(noop.new_id(r, TupleId(2)), Some(TupleId(2)));
        assert_eq!(engine.stats().compact_steps, 1);
    }

    #[test]
    fn compact_remaps_ids_for_later_queries() {
        use currency_core::SpecDelta;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        // Retract entity 0's lesser tuple (TupleId(0), value 10).
        let mut delta = SpecDelta::new();
        delta.remove_tuple(r, TupleId(0));
        engine.apply(&delta).unwrap();
        let report = engine.compact().unwrap();
        assert_eq!(report.reclaimed, 1);
        // Old ids shift down by one; the constraint still orders entity 1.
        let old_pair = (TupleId(2), TupleId(3));
        let new_pair = (
            report.new_id(r, old_pair.0).unwrap(),
            report.new_id(r, old_pair.1).unwrap(),
        );
        assert_eq!(new_pair, (TupleId(1), TupleId(2)));
        assert!(engine
            .cop(&CurrencyOrderQuery::single(r, A, new_pair.0, new_pair.1))
            .unwrap());
        // The vacated id space is live again: the last id is now unknown.
        assert!(!engine
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(4), TupleId(5)))
            .unwrap());
    }

    #[test]
    fn apply_keeps_slot_count_bounded_under_churn() {
        use currency_core::SpecDelta;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        let slots_before = engine.components.len();
        for step in 0..8 {
            // A brand-new entity appears and disappears: its component
            // slot must be recycled, not leaked.
            let mut delta = SpecDelta::new();
            delta.insert_tuple(r, Tuple::new(Eid(100), vec![Value::int(step)]));
            let report = engine.apply(&delta).unwrap();
            let (rel, id) = report.inserted[0];
            let mut retract = SpecDelta::new();
            retract.remove_tuple(rel, id);
            engine.apply(&retract).unwrap();
            assert!(engine.cps().unwrap());
        }
        assert!(
            engine.components.len() <= slots_before + 1,
            "vacated slots are reused: {} grew past {}",
            engine.components.len(),
            slots_before + 1
        );
        assert_eq!(engine.partition().len(), 3, "live components steady");
    }

    #[test]
    fn auto_compaction_fires_exactly_once_when_churn_crosses_the_threshold() {
        use currency_core::SpecDelta;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let opts = Options {
            auto_compact_tombstones: 3,
            ..Options::default()
        };
        let mut engine = CurrencyEngine::new_owned(spec, &opts).unwrap();
        // Five insert+retract churn rounds: tombstones reach 1, 2, 3
        // (compaction fires, resets to 0), 1, 2 — exactly one compaction.
        let mut compactions_seen = 0;
        for step in 0..5 {
            let mut delta = SpecDelta::new();
            delta.insert_tuple(r, Tuple::new(Eid(1), vec![Value::int(50 + step)]));
            let report = engine.apply(&delta).unwrap();
            assert!(report.compact_step.is_none(), "inserts leave no tombstones");
            let (rel, id) = report.inserted[0];
            let mut retract = SpecDelta::new();
            retract.remove_tuple(rel, id);
            let report = engine.apply(&retract).unwrap();
            if let Some(compact) = &report.compact_step {
                compactions_seen += 1;
                assert!(compact.done, "the default budget drains a small spec");
                assert_eq!(compact.reclaimed, 3, "threshold batch reclaimed");
                assert_eq!(
                    compact.new_id(rel, id),
                    None,
                    "the just-retracted tuple is gone from the id space"
                );
            }
            assert!(engine.cps().unwrap());
        }
        assert_eq!(compactions_seen, 1, "churn crossed the threshold once");
        let stats = engine.stats();
        assert_eq!(stats.compact_steps, 1);
        assert_eq!(stats.slots_reclaimed, 3);
        let tombstones: usize = engine
            .spec()
            .instances()
            .iter()
            .map(|i| i.tombstones())
            .sum();
        assert_eq!(tombstones, 2, "post-compaction churn accumulates anew");
        // Verdicts match a fresh engine over the compacted specification.
        let fresh = CurrencyEngine::new(engine.spec(), &Options::default()).unwrap();
        assert_eq!(engine.cps().unwrap(), fresh.cps().unwrap());
        assert_eq!(engine.dcip(r).unwrap(), fresh.dcip(r).unwrap());
    }

    /// Churn helper: `rounds` insert+retract pairs against `eid`,
    /// leaving one tombstone slot per round.
    fn churn(engine: &mut CurrencyEngine<'_>, r: RelId, eid: u64, rounds: usize) {
        use currency_core::SpecDelta;
        for step in 0..rounds {
            let mut delta = SpecDelta::new();
            delta.insert_tuple(r, Tuple::new(Eid(eid), vec![Value::int(50 + step as i64)]));
            let report = engine.apply(&delta).unwrap();
            let (rel, id) = report.inserted[0];
            let mut retract = SpecDelta::new();
            retract.remove_tuple(rel, id);
            engine.apply(&retract).unwrap();
        }
    }

    #[test]
    fn compact_steps_drain_to_the_monolithic_result() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut whole = CurrencyEngine::new_owned(spec.clone(), &Options::default()).unwrap();
        let mut sliced = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        for eid in 0..3 {
            churn(&mut whole, r, eid, 3);
            churn(&mut sliced, r, eid, 3);
        }
        let mut reference = whole.spec().clone();
        let reference_report = reference.compact();
        let unbounded = whole.compact().unwrap();
        assert_eq!(unbounded.reclaimed, reference_report.reclaimed);
        assert_eq!(
            currency_core::wire::encode_spec(whole.spec()),
            currency_core::wire::encode_spec(&reference),
            "the unbounded step matches the core reference sweep"
        );
        // Drain in 2-slot steps; the engine stays fully queryable (and
        // correct) between every pair of steps.
        let mut reclaimed = 0;
        let mut steps = 0;
        loop {
            let step = sliced.compact_step_slots(2).unwrap();
            reclaimed += step.reclaimed;
            assert_eq!(sliced.cps().unwrap(), whole.cps().unwrap());
            if step.done {
                break;
            }
            steps += 1;
            assert!(steps < 100, "steps must terminate");
        }
        assert!(steps > 1, "the drain genuinely ran in several steps");
        assert_eq!(reclaimed, unbounded.reclaimed);
        assert_eq!(
            currency_core::wire::encode_spec(sliced.spec()),
            currency_core::wire::encode_spec(whole.spec()),
            "incremental drain lands on the byte-identical specification"
        );
        assert_eq!(
            sliced.stats().slots_reclaimed,
            whole.stats().slots_reclaimed
        );
        assert!(sliced.stats().compact_steps > 1);
        assert_eq!(whole.stats().compact_steps, 1);
        for u in 0..6u32 {
            for v in 0..6u32 {
                let q = CurrencyOrderQuery::single(r, A, TupleId(u), TupleId(v));
                assert_eq!(sliced.cop(&q).unwrap(), whole.cop(&q).unwrap(), "{u}≺{v}");
            }
        }
        // Drained: further steps are free no-ops.
        let idle = sliced.compact_step_slots(8).unwrap();
        assert!(idle.done && idle.slices.is_empty());
    }

    #[test]
    fn budgeted_auto_policy_takes_bounded_steps() {
        use currency_core::SpecDelta;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let opts = Options {
            auto_compact_tombstones: 3,
            auto_compact_budget: Some(CompactBudget {
                max_slots_per_step: 2,
                ..CompactBudget::default()
            }),
            ..Options::default()
        };
        let mut engine = CurrencyEngine::new_owned(spec, &opts).unwrap();
        let scanned = |s: &currency_core::CompactStepReport| -> usize {
            s.slices.iter().map(|sl| (sl.end - sl.start) as usize).sum()
        };
        let mut steps_seen = 0;
        for step in 0..6 {
            let mut delta = SpecDelta::new();
            delta.insert_tuple(r, Tuple::new(Eid(1), vec![Value::int(50 + step)]));
            let report = engine.apply(&delta).unwrap();
            // A small budget may leave residual tombstones ≥ the
            // threshold, so a step can legally fire on any apply.
            let (rel, mut id) = report.inserted[0];
            if let Some(s) = &report.compact_step {
                steps_seen += 1;
                assert!(
                    scanned(s) <= 2,
                    "step scanned {} slots > budget",
                    scanned(s)
                );
                // The step may have moved the tuple we just inserted;
                // the report's translation table tracks it.
                id = s.new_id(rel, id).expect("live tuple survives the step");
            }
            let mut retract = SpecDelta::new();
            retract.remove_tuple(rel, id);
            let report = engine.apply(&retract).unwrap();
            if let Some(s) = &report.compact_step {
                steps_seen += 1;
                // The slot bound caps each step's scan work; reclaim
                // itself may exceed it when a slice reaches the end of
                // the relation and truncates a trailing dead block.
                assert!(
                    scanned(s) <= 2,
                    "step scanned {} slots > budget",
                    scanned(s)
                );
            }
            assert!(engine.cps().unwrap());
        }
        assert!(steps_seen >= 1, "the churn crossed the threshold");
        assert_eq!(engine.stats().compact_steps, steps_seen);
        // Verdicts match a fresh engine over the current specification.
        let fresh = CurrencyEngine::new(engine.spec(), &Options::default()).unwrap();
        assert_eq!(engine.cps().unwrap(), fresh.cps().unwrap());
        assert_eq!(engine.dcip(r).unwrap(), fresh.dcip(r).unwrap());
    }

    #[test]
    fn compact_apply_step_replays_logged_steps_verbatim() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut original = CurrencyEngine::new_owned(spec.clone(), &Options::default()).unwrap();
        let mut replica = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        churn(&mut original, r, 0, 2);
        churn(&mut original, r, 2, 2);
        churn(&mut replica, r, 0, 2);
        churn(&mut replica, r, 2, 2);
        loop {
            let step = original.compact_step_slots(3).unwrap();
            let replayed = replica.compact_apply_step(&step).unwrap();
            assert_eq!(replayed, step, "re-execution reproduces the logged step");
            assert_eq!(
                currency_core::wire::encode_spec(replica.spec()),
                currency_core::wire::encode_spec(original.spec()),
                "replica tracks every intermediate state"
            );
            if step.done {
                break;
            }
        }
        // A stale step (bounds from a state the spec has moved past)
        // must fail cleanly, not corrupt the replica.
        churn(&mut original, r, 1, 2);
        let stale = original.compact_step_slots(1).unwrap();
        assert!(replica.compact_apply_step(&stale).is_err());
        assert!(replica.spec().validate().is_ok());
    }

    #[test]
    fn note_recovery_surfaces_in_stats() {
        let (spec, _) = multi_entity_spec();
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        assert_eq!(engine.stats().recoveries, 0);
        engine.note_recovery(17);
        engine.note_recovery(3);
        let stats = engine.stats();
        assert_eq!(stats.recoveries, 2);
        assert_eq!(stats.deltas_replayed, 20);
    }

    #[test]
    fn disabled_metrics_still_count_lifetime_stats() {
        let (spec, r) = multi_entity_spec();
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        engine.obs_mut().set_enabled(false);
        churn(&mut engine, r, 0, 2);
        engine.compact().unwrap();
        let stats = engine.stats();
        assert_eq!(stats.updates_applied, 4);
        assert_eq!(stats.compact_steps, 1);
        assert_eq!(stats.slots_reclaimed, 2);
        // The counts are the registry's; the histograms stayed off.
        assert_eq!(engine.obs().applies_total.get(), 4);
        assert_eq!(engine.obs().apply_ns.count(), 0);
    }

    #[test]
    fn poisoned_component_lock_recovers() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        // Poison one component's mutex by panicking while holding it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = engine.components[0].lock().unwrap();
            panic!("simulated query panic");
        }));
        assert!(result.is_err());
        assert!(engine.components[0].is_poisoned());
        // Every query path still works: the lock recovers, the cached
        // status is re-derived.
        assert!(engine.cps().unwrap());
        assert!(engine
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1)))
            .unwrap());
        assert!(engine.witness_completion().unwrap().is_some());
        assert!(!engine.components[0].is_poisoned(), "poison cleared");
    }

    #[test]
    fn thread_knob_is_respected() {
        let (spec, _) = multi_entity_spec();
        for threads in [1usize, 2, 8] {
            let opts = Options {
                threads,
                ..Options::default()
            };
            let engine = CurrencyEngine::new(&spec, &opts).unwrap();
            assert!(engine.cps().unwrap());
        }
    }

    #[test]
    fn zero_budget_interrupts_every_query_path() {
        use crate::SolveLimits;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let bounded = Options {
            solve_limits: SolveLimits {
                max_conflicts: Some(0),
                max_props: Some(0),
            },
            ..Options::default()
        };
        let engine = CurrencyEngine::new(&spec, &bounded).unwrap();
        // Every solve-backed path surfaces the typed interrupt — never a
        // verdict, never a panic.
        assert!(matches!(engine.cps(), Err(ReasonError::Interrupted { .. })));
        assert!(matches!(
            engine.cop(&CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1))),
            Err(ReasonError::Interrupted { .. })
        ));
        assert!(matches!(
            engine.dcip(r),
            Err(ReasonError::Interrupted { .. })
        ));
        let mut b = QueryBuilder::new();
        let x = b.var();
        let q = b.build(vec![x], Formula::Atom(Atom::new(r, vec![QTerm::Var(x)])));
        assert!(matches!(
            engine.certain_answers(&q),
            Err(ReasonError::Interrupted { .. })
        ));
        assert!(matches!(
            engine.current_instances(r),
            Err(ReasonError::Interrupted { .. })
        ));
        // The interrupted slots stayed undecided: the same spec under an
        // unbounded engine is satisfiable, so a cached "unsat" would be a
        // soundness bug.
        let unbounded = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        assert!(unbounded.cps().unwrap());
        // Repeating the bounded query still interrupts (the cache did not
        // absorb a wrong verdict from the earlier interruption).
        assert!(matches!(engine.cps(), Err(ReasonError::Interrupted { .. })));
    }

    #[test]
    fn expired_deadline_interrupts_and_generous_deadline_completes() {
        use std::time::{Duration, Instant};
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let expired = Options {
            deadline: Some(Instant::now()),
            ..Options::default()
        };
        let engine = CurrencyEngine::new(&spec, &expired).unwrap();
        assert!(matches!(engine.cps(), Err(ReasonError::Interrupted { .. })));
        assert!(matches!(
            engine.dcip(r),
            Err(ReasonError::Interrupted { .. })
        ));
        let generous = Options {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            ..Options::default()
        };
        let engine = CurrencyEngine::new(&spec, &generous).unwrap();
        assert!(engine.cps().unwrap());
        assert!(engine.dcip(r).unwrap());
        assert!(engine
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1)))
            .unwrap());
    }

    #[test]
    fn escalating_budgets_reach_the_unbounded_verdict() {
        use crate::SolveLimits;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let oracle = CurrencyEngine::new(&spec, &Options::default())
            .unwrap()
            .cps()
            .unwrap();
        let mut budget: u64 = 1;
        loop {
            let opts = Options {
                solve_limits: SolveLimits {
                    max_conflicts: Some(budget),
                    max_props: Some(budget * 64),
                },
                ..Options::default()
            };
            let engine = CurrencyEngine::new(&spec, &opts).unwrap();
            match engine.cps() {
                Ok(v) => {
                    assert_eq!(v, oracle, "first decided verdict must match");
                    break;
                }
                Err(ReasonError::Interrupted { spent }) => {
                    assert!(
                        spent.conflicts <= budget || spent.propagations > 0,
                        "spent accounting is sane: {spent:?}"
                    );
                    budget *= 2;
                    assert!(budget < 1 << 30, "budget escalation diverged");
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }
}
