//! The entity-partitioned incremental reasoning engine: the one writer.
//!
//! [`CurrencyEngine`] compiles a specification **once** into per-component
//! solved encodings (see [`crate::partition`]) and answers repeated
//! CPS/COP/DCIP/CCQA/witness queries incrementally:
//!
//! * **compile once** — each entity component's CNF is built a single time
//!   ([`crate::encode::ComponentCompiler`]), grounding the component's
//!   constraints and copy obligations for its cells straight into its
//!   solver, and solved right away without bounds.  A component whose
//!   solve fixed every variable at level zero and stored no clause is
//!   published *decided*: its variable map and its only model, no
//!   solver.  Every other slot carries its solved encoding: verdict,
//!   learnt clauses and lazy-transitivity lemmas;
//! * **solve incrementally** — the aggregate verdict is a count of
//!   unsatisfiable slots, so a CPS is a field read.  Entailment queries
//!   (COP) read the pair's literal in a decided component's model or at
//!   level zero, and otherwise run an assumption-based call on a
//!   throwaway clone of only the component the pair touches;
//! * **enumerate locally** — current-instance enumeration projects onto
//!   one component's value indicators at a time, so order differences in
//!   unrelated components never multiply the model count, and All-SAT
//!   blocking clauses go to a throwaway clone of the component encoding;
//! * **parallelize** — component compilation and solving fan out across
//!   threads ([`crate::Options::threads`]);
//! * **update in place** — [`CurrencyEngine::apply`] feeds a
//!   [`SpecDelta`] through the engine: the owned specification mutates,
//!   the entity partition is maintained incrementally
//!   ([`Partition::refresh`]), and **only the touched component slots**
//!   are recompiled and re-solved — every clean component keeps its
//!   compiled encoding and verdict *in place*: component slots are
//!   stable, so nothing is remapped, moved, or even looked at outside the
//!   dirty region.  A component-local delta followed by a
//!   [`CurrencyEngine::cps`] costs one component compile and one
//!   component solve — O(dirty region), independent of how many
//!   components the engine holds;
//! * **compact in steps** — retraction tombstones accumulate one dead
//!   tuple slot each ([`currency_core::TemporalInstance::remove_tuple`]);
//!   [`CurrencyEngine::compact_step`] reclaims them in slices bounded by
//!   a slot budget, remapping tuple ids and recompiling only the
//!   components whose tuples moved; [`CompactBudget::UNBOUNDED`] drains
//!   every tombstone in one step;
//! * **snapshot** — the specification, the partition and the slot vector
//!   are paged copy-on-write containers ([`currency_core::cow`]).
//!   [`CurrencyEngine::snapshot`] freezes them into an immutable
//!   [`EngineSnapshot`] in O(top level); the next write copies only the
//!   chunks and pages it dirties ([`ApplyReport::pages_copied`]).  An
//!   engine nobody snapshots mutates every page in place.  The serving
//!   front door (`currency-serve`'s `CurrencyServe`) publishes a snapshot
//!   after every write; the durable store and the sharded engine never
//!   take one.
//!
//! Queries run over the same borrowed view of the state as the
//! snapshots' queries (see [`crate::snapshot`]), so each query path
//! exists once.  The engine's own queries run unbounded; a caller that
//! needs a deadline or a work budget sets it on a
//! [`crate::SnapshotReader`], the one place a query is bounded.  Every
//! encoding the engine holds covers one component and enforces
//! transitivity lazily; the whole-specification reference path the
//! engine is differentially tested against (the `*_monolithic`
//! functions) is built only with the `oracle` feature.

use crate::ccqa::CertainAnswers;
use crate::cop::CurrencyOrderQuery;
use crate::encode::{Bounds, CompileScratch, ComponentCompiler, Decided};
use crate::error::ReasonError;
use crate::obs::{EngineObs, SolveSample};
use crate::partition::{Component, Partition, RefreshPlan, RefreshScratch};
use crate::snapshot::{EngineSnapshot, SlotView, View};
use crate::{CompactBudget, Options, MAX_MODELS};
use currency_core::cow::{pages_copied, PagedVec};
use currency_core::{
    CompactSlice, CompactStepReport, Completion, Eid, NormalInstance, RelId, SpecDelta,
    Specification, TupleId, Value,
};
use currency_obs::{SpanGuard, Stamp, TraceEvent, TraceKind};
use currency_query::Query;
use currency_sat::{SolveResult, SolverStats};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Aggregate counters across an engine's component slots.
///
/// A slot is published in one of two forms.  A component whose
/// compile-time solve left every variable fixed at level zero and no
/// clause stored is *decided*: the slot keeps its variable map and its
/// one model, and no solver.  Every other component keeps its solved
/// encoding.  The size fields say what each form contributes.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Number of entity components.
    pub components: usize,
    /// Live components published decided; the other
    /// `components - decided_components` keep a solver.
    pub decided_components: usize,
    /// Number of `(relation, entity)` cells.
    pub cells: usize,
    /// Total variables the component compiles allocated, decided
    /// components included.
    pub vars: usize,
    /// Total clauses (original + learnt) stored by the slots that keep a
    /// solver; a decided component stores none.
    pub clauses: usize,
    /// Heap bytes of the published slots, computed from capacities: a
    /// solver slot's encoding ([`crate::encode::Encoding::heap_bytes`]),
    /// a decided slot's variable map and model bitset.  The compiled
    /// footprint, which falls when a compaction frees slots.
    pub encoding_bytes: usize,
    /// Heap bytes of the entity partition
    /// ([`crate::partition::Partition::heap_bytes`]): its slots, its
    /// components' cell sets and its cell → slot index.
    pub partition_bytes: usize,
    /// Deltas applied over the engine's lifetime
    /// ([`CurrencyEngine::apply`]).
    pub updates_applied: usize,
    /// Components recompiled across all applied deltas.
    pub components_rebuilt: usize,
    /// Components whose cached state survived a delta, summed across all
    /// applied deltas.
    pub components_reused: usize,
    /// Compaction steps performed over the engine's lifetime
    /// ([`CurrencyEngine::compact_step`], whether explicit or triggered
    /// by the [`Options::auto_compact_tombstones`] policy).  Steps that
    /// found nothing to reclaim are not counted.
    pub compact_steps: usize,
    /// Tombstone tuple slots reclaimed across all compaction steps.
    pub slots_reclaimed: usize,
    /// Times this engine was restored from a durability log
    /// ([`CurrencyEngine::note_recovery`]; `currency-store` calls it once
    /// per successful open).
    pub recoveries: usize,
    /// Deltas re-applied from log suffixes across all recoveries.
    pub deltas_replayed: usize,
    /// Aggregated CDCL counters of the slots that keep a solver.  A
    /// decided slot contributes nothing: its solver is dropped when it is
    /// published.  Every compile-time solve, decided ones included, is a
    /// sample of the `currency_engine_solve_ns` and
    /// `currency_engine_solver_*` histograms while metrics are on.
    pub sat: SolverStats,
}

/// What one [`CurrencyEngine::apply`] call did.
#[derive(Clone, Debug)]
pub struct ApplyReport {
    /// The engine's epoch after this delta ([`CurrencyEngine::epoch`]);
    /// a front door that publishes after every write publishes this
    /// delta under it.
    pub epoch: u64,
    /// Components recompiled (and re-solved) by this delta.
    pub components_rebuilt: usize,
    /// Components whose compiled state was carried over untouched.
    pub components_reused: usize,
    /// Number of `(relation, entity)` cells the delta touched.
    pub cells_touched: usize,
    /// Ids assigned to tuples the delta inserted, in operation order.
    pub inserted: Vec<(RelId, TupleId)>,
    /// Copy-on-write pages and chunks this delta (and its auto-compaction
    /// step) copied because a snapshot still shared them: O(dirty
    /// region), independent of the specification's size, and zero on an
    /// engine nobody snapshots.
    pub pages_copied: u64,
    /// The bounded compaction step the
    /// [`Options::auto_compact_tombstones`] policy ran after this delta,
    /// if any.  It invalidates only the tuple ids its slices remapped:
    /// translate held ids (this report's `inserted` list included)
    /// through [`CompactStepReport::new_id`] (`None` means the tuple's
    /// slot was reclaimed).
    pub compact_step: Option<CompactStepReport>,
}

/// Execute one compaction step's slices on `spec` until `max_slots` are
/// scanned or the specification is drained.  Each slice is as wide as
/// the remaining budget, so a budget covering a relation's dead region
/// sweeps it in one slice; at least one slice always runs, so progress
/// is guaranteed.
fn run_slices(spec: &mut Specification, max_slots: usize) -> CompactStepReport {
    let mut step = CompactStepReport::default();
    let max_slots = max_slots.max(1);
    let mut scanned = 0usize;
    while scanned < max_slots {
        // Slots are u32-indexed, so a u32::MAX window always reaches the
        // end of the relation (and cannot overflow the bounds arithmetic).
        let width = (max_slots - scanned).min(u32::MAX as usize);
        let Some(slice) = spec.compact_slice(width) else {
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
/// dirty region rebuilt after a step.  Moved tuples keep their slots
/// through the step's later slices (later slices only write at or above
/// this slice's final write position), so `tuple(new)` is the tuple the
/// table names.  Dead slots need no cell: retraction already rebuilt
/// their cells when it removed them from their entity groups, and
/// reclaiming the slot renames no live id.
fn remapped_cells(spec: &Specification, slices: &[CompactSlice]) -> BTreeSet<(RelId, Eid)> {
    let mut touched = BTreeSet::new();
    for slice in slices {
        let inst = spec.instance(slice.rel);
        for new_id in slice.remap.iter().flatten() {
            touched.insert((slice.rel, inst.tuple(*new_id).eid));
        }
    }
    touched
}

/// Compile one component, solve it right away without bounds and
/// publish the slot ([`SlotView::publish`]): decided when unit
/// propagation fixed its only model, else its solved encoding with its
/// verdict, learnt clauses and lazy lemmas.  The conversion runs inside
/// the timed solve, and the sample's end stamp is the last clock read of
/// the compile; it goes back to the caller, which records it on the
/// writer's thread.
fn compile_slot(
    compiler: &ComponentCompiler<'_>,
    component: &Arc<Component>,
    scratch: &mut CompileScratch,
    obs: &EngineObs,
) -> (SlotView, Option<SolveSample>) {
    let mut enc = compiler.compile(component, scratch);
    let clock = obs.clock();
    let outcome = enc
        .solve(&[], &Bounds::default())
        .expect("an unbounded solve is never interrupted");
    // A fresh encoding's absolute counters are the solve's delta.
    let stats = enc.solver_stats();
    let view = SlotView::publish(enc, outcome == SolveResult::Sat);
    let sample = clock.map(|start| {
        let end = Stamp::now();
        SolveSample {
            ns: end.ns_since(start),
            end,
            stats,
        }
    });
    (view, sample)
}

/// The compiled, query-ready form of a specification, and its only
/// writer.
///
/// Construction cost is paid once; queries touch only the components they
/// involve.  All query methods take `&self` and hold no lock: every query
/// reads the shared slots and solves or enumerates only on
/// throwaway clones, so queries on one engine run concurrently.  Readers
/// that must not wait for the writer take an [`EngineSnapshot`]
/// ([`CurrencyEngine::snapshot`]) each and query it through their own
/// [`crate::SnapshotReader`].
pub struct CurrencyEngine {
    spec: Arc<Specification>,
    value_rels: Arc<Vec<RelId>>,
    partition: Arc<Partition>,
    /// Buffers lent to every [`Partition::refresh`] (kept out of the
    /// partition so snapshots carry none).
    refresh_scratch: RefreshScratch,
    /// Buffers lent to every component compile run inline.
    compile_scratch: CompileScratch,
    /// Per-slot compiled state, aligned with the partition's slots
    /// (vacant slots hold the shared trivially satisfiable `vacant`).
    slots: PagedVec<SlotView>,
    vacant: Arc<Decided>,
    /// Slots whose encoding is known unsatisfiable.
    unsat: usize,
    /// Slots whose encoding grounded a premise-free falsum rule
    /// ([`Encoding::has_ground_falsum`]): while any exists the
    /// specification is inconsistent regardless of order choices.
    falsum_slots: usize,
    epoch: u64,
    /// The writer's options, [`Options::threads`] resolved at
    /// construction (never 0).
    opts: Options,
    /// Metric handles + trace recorder (see [`EngineObs`]); also the
    /// only store of the lifetime counts [`CurrencyEngine::stats`]
    /// reports.
    obs: EngineObs,
}

impl CurrencyEngine {
    /// Compile a copy of `spec` with value indicators for **every**
    /// relation, so all query kinds (including DCIP/CCQA over any
    /// relation) are available.  The copy shares `spec`'s pages until the
    /// engine writes them.
    pub fn new(spec: &Specification, opts: &Options) -> Result<CurrencyEngine, ReasonError> {
        CurrencyEngine::new_owned(spec.clone(), opts)
    }

    /// Compile a copy of `spec` with value indicators for `value_rels`
    /// only.
    ///
    /// DCIP/CCQA queries are then limited to those relations; CPS, COP and
    /// witness queries are always available.  Pass `&[]` for the leanest
    /// engine when only consistency/ordering queries are needed.
    pub fn with_value_rels(
        spec: &Specification,
        value_rels: &[RelId],
        opts: &Options,
    ) -> Result<CurrencyEngine, ReasonError> {
        CurrencyEngine::with_value_rels_owned(spec.clone(), value_rels, opts)
    }

    /// [`CurrencyEngine::new`], taking ownership of the specification —
    /// the natural form for a long-lived engine fed by
    /// [`CurrencyEngine::apply`].
    pub fn new_owned(spec: Specification, opts: &Options) -> Result<CurrencyEngine, ReasonError> {
        let value_rels: Vec<RelId> = spec.instances().iter().map(|i| i.rel()).collect();
        CurrencyEngine::with_value_rels_owned(spec, &value_rels, opts)
    }

    /// [`CurrencyEngine::with_value_rels`], taking ownership of the
    /// specification.
    pub fn with_value_rels_owned(
        spec: Specification,
        value_rels: &[RelId],
        opts: &Options,
    ) -> Result<CurrencyEngine, ReasonError> {
        spec.validate()?;
        let value_rels = Arc::new(value_rels.to_vec());
        let partition = Partition::of(&spec);
        let obs = EngineObs::new();
        let opts = Options {
            threads: effective_threads(opts.threads),
            ..*opts
        };
        let mut compile_scratch = CompileScratch::default();
        let compiler = ComponentCompiler::new(&spec, &value_rels);
        let slots: PagedVec<SlotView> = run_indexed_with(
            opts.threads,
            partition.slots(),
            &mut compile_scratch,
            |scratch, ix| {
                let component = partition.component(ix);
                Ok(compile_slot(&compiler, component, scratch, &obs))
            },
        )?
        .into_iter()
        .map(|(view, sample)| {
            obs.record_solve(sample);
            view
        })
        .collect();
        let mut engine = CurrencyEngine {
            vacant: Arc::new(Decided::vacant()),
            spec: Arc::new(spec),
            value_rels,
            partition: Arc::new(partition),
            refresh_scratch: RefreshScratch::default(),
            compile_scratch,
            slots,
            unsat: 0,
            falsum_slots: 0,
            epoch: 1,
            opts,
            obs,
        };
        for slot in 0..engine.slots.len() {
            engine.admit(slot);
        }
        Ok(engine)
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
    /// that a new copy obligation links to a touched one) are recompiled
    /// and re-solved, in parallel under [`Options::threads`], and patched
    /// **in place** — slots are stable, so every clean component's
    /// compiled CNF, learnt clauses, transitivity lemmas and verdict
    /// survive without being moved or remapped.  Everything `apply` does
    /// is O(dirty region).
    ///
    /// The write bumps [`CurrencyEngine::epoch`] once (its auto-compaction
    /// step included).
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
        let copied_before = pages_copied();
        let recorder = self.obs.recorder().clone();
        let apply_span = SpanGuard::enter(&*recorder, "engine.apply", 0);
        let parent = apply_span.as_ref().map_or(0, SpanGuard::id);
        let start = self.obs.clock();
        let validate_span = SpanGuard::enter(&*recorder, "engine.validate", parent);
        // While a snapshot shares the spec `Arc`, `make_mut` copies its
        // top level and one pointer per chunk, so a rejected delta must
        // be caught first; otherwise `apply_delta` validates by itself.
        if Arc::strong_count(&self.spec) > 1 {
            delta.validate(&self.spec)?;
        }
        let effects = Arc::make_mut(&mut self.spec).apply_delta(delta)?;
        drop(validate_span);
        let validated = self.obs.clock();
        let (plan, end) = self.rebuild_touched(&effects.touched_cells, parent, validated)?;
        self.obs.applies_total.inc();
        let obs = &self.obs;
        obs.record_between(&obs.apply_validate_ns, start, validated);
        obs.record_between(&obs.apply_ns, start, end);
        let mut report = ApplyReport {
            epoch: 0, // filled in below
            components_rebuilt: plan.rebuilt(),
            components_reused: plan.reused(),
            cells_touched: effects.touched_cells.len(),
            inserted: effects.inserted,
            pages_copied: 0, // filled in below
            compact_step: None,
        };
        // Auto-compaction policy: once retraction tombstones accumulate
        // past the configured threshold, each apply runs one slot-bounded
        // step rather than letting the id space grow until someone calls
        // `compact_step`.  The remap rides along in the report so callers
        // can translate the ids they hold (the `inserted` list included).
        if fire_auto && self.opts.auto_compact_due(&self.spec) {
            let budget = self.opts.auto_compact_budget.unwrap_or_default();
            report.compact_step = Some(self.compact_step_inner(&budget)?);
        }
        report.pages_copied = self.finish_write(copied_before, true);
        report.epoch = self.epoch;
        Ok(report)
    }

    /// Recompile, re-solve and patch exactly the slots owning `touched`
    /// cells — the shared tail of [`CurrencyEngine::apply`] and every
    /// compaction step.  Refreshes the partition over the dirty region,
    /// compiles and solves the rebuilt slots, then patches the changed
    /// slots and the verdict counts in place; every clean component keeps
    /// its slot untouched.  The refresh phase is timed from `start` (the
    /// caller's last phase boundary) and the returned stamp ends the
    /// recompile phase, so a caller timing the whole write reads the
    /// clock once per phase boundary.  When the rebuilt slots compile
    /// inline, the last solve's end stamp is that boundary: nothing but
    /// the hand-back runs after it on the writer's thread.
    fn rebuild_touched(
        &mut self,
        touched: &BTreeSet<(RelId, Eid)>,
        parent_span: u64,
        start: Option<Stamp>,
    ) -> Result<(RefreshPlan, Option<Stamp>), ReasonError> {
        let recorder = self.obs.recorder().clone();
        let plan = {
            let _span = SpanGuard::enter(&*recorder, "engine.refresh", parent_span);
            Arc::make_mut(&mut self.partition).refresh(
                &self.spec,
                touched,
                &mut self.refresh_scratch,
            )
        };
        let refreshed = self.obs.clock();
        // Compile and solve the rebuilt slots (in parallel when the fleet
        // warrants it) *before* patching any state, so the fallible step
        // cannot leave the engine half-updated.
        let compiled: Vec<(SlotView, Option<SolveSample>)> = {
            let _span = SpanGuard::enter(&*recorder, "engine.recompile", parent_span);
            let compiler = ComponentCompiler::new(&self.spec, &self.value_rels);
            let (partition, rebuilt, obs) = (self.partition.as_ref(), &plan.rebuilt, &self.obs);
            run_indexed_with(
                self.opts.threads,
                rebuilt.len(),
                &mut self.compile_scratch,
                |scratch, k| {
                    let component = partition.component(rebuilt[k]);
                    Ok(compile_slot(&compiler, component, scratch, obs))
                },
            )?
        };
        let last_solve_end = compiled.last().and_then(|(_, sample)| sample.as_ref());
        let recompiled = match last_solve_end {
            Some(sample) if runs_inline(self.opts.threads, compiled.len()) => Some(sample.end),
            _ => self.obs.clock(),
        };
        // Patch exactly the changed slots (infallible from here on).
        for &slot in &plan.freed {
            self.retire(slot);
            self.slots[slot] = SlotView::Decided(self.vacant.clone());
        }
        for (&slot, (view, sample)) in plan.rebuilt.iter().zip(compiled) {
            self.obs.record_solve(sample);
            if slot < self.slots.len() {
                self.retire(slot);
                self.slots[slot] = view;
            } else {
                debug_assert_eq!(slot, self.slots.len(), "appends are contiguous");
                self.slots.push(view);
            }
            self.admit(slot);
        }
        debug_assert_eq!(self.slots.len(), plan.slots, "slot arrays aligned");
        let obs = &self.obs;
        obs.components_rebuilt.add(plan.rebuilt() as u64);
        obs.components_reused.add(plan.reused() as u64);
        obs.record_between(&obs.apply_refresh_ns, start, refreshed);
        obs.record_between(&obs.apply_recompile_ns, refreshed, recompiled);
        Ok((plan, recompiled))
    }

    /// Count a slot's verdicts into the aggregate (the slot was just
    /// filled).
    fn admit(&mut self, slot: usize) {
        let view = &self.slots[slot];
        self.unsat += usize::from(!view.sat());
        self.falsum_slots += usize::from(view.has_ground_falsum());
    }

    /// Take a slot's verdicts out of the aggregate (the slot is about to
    /// be replaced).
    fn retire(&mut self, slot: usize) {
        let view = &self.slots[slot];
        self.unsat -= usize::from(!view.sat());
        self.falsum_slots -= usize::from(view.has_ground_falsum());
    }

    /// Close a write: count the pages it copied and, when it changed the
    /// state, bump the epoch.  Returns the pages copied.
    fn finish_write(&mut self, copied_before: u64, changed: bool) -> u64 {
        let copied = pages_copied() - copied_before;
        self.obs.pages_copied.add(copied);
        self.epoch += u64::from(changed);
        copied
    }

    /// Run **one compaction step**: reclaim tombstone slots in
    /// per-relation slices until the budget's slot bound is met or the
    /// specification is fully drained — then rebuild only the components
    /// whose tuples the step actually remapped.
    ///
    /// A step is a pure function of the specification and the budget, so
    /// two engines in one state given one budget run the same slices.
    /// Each step is O(slots scanned) plus the dirty-region rebuild, the
    /// specification is fully valid and queryable between steps, and a
    /// drained sequence of steps — or one [`CompactBudget::UNBOUNDED`]
    /// step — leaves the specification byte-identical to the reference
    /// sweep (`Specification::compact`, behind `currency-core`'s `oracle`
    /// feature), which stays the independently implemented oracle the
    /// step path is differentially tested against.  A trailing dead
    /// block truncates without rebuilding anything, and components none
    /// of whose tuples moved keep their cached encodings, learnt clauses
    /// and satisfiability verdicts exactly as [`CurrencyEngine::apply`]
    /// does for clean components.  A step that reclaimed anything is one
    /// write: it bumps the epoch once and counts in
    /// [`EngineStats::compact_steps`], so an id is valid for precisely
    /// the epochs between the steps that created and remapped it.
    ///
    /// Only the tuple ids listed in the returned report's slices are
    /// invalidated; translate held ids through
    /// [`CompactStepReport::new_id`].  `done` on the report means no
    /// tombstones remain.  With no tombstones the step is a free no-op:
    /// nothing is rebuilt and the epoch stays.
    pub fn compact_step(
        &mut self,
        budget: &CompactBudget,
    ) -> Result<CompactStepReport, ReasonError> {
        let copied_before = pages_copied();
        let step = self.compact_step_inner(budget)?;
        self.finish_write(copied_before, !step.slices.is_empty());
        Ok(step)
    }

    /// One step through [`run_slices`], then the dirty-region rebuild.
    fn compact_step_inner(
        &mut self,
        budget: &CompactBudget,
    ) -> Result<CompactStepReport, ReasonError> {
        if self.spec.total_tombstones() == 0 {
            // Nothing to reclaim: no copy, no rebuild, no counter
            // movement.
            return Ok(CompactStepReport {
                done: true,
                ..CompactStepReport::default()
            });
        }
        let clock = self.obs.clock();
        let step = run_slices(Arc::make_mut(&mut self.spec), budget.max_slots_per_step);
        self.finish_step(&step)?;
        let obs = &self.obs;
        obs.record_between(&obs.compact_step_pause_ns, clock, obs.clock());
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
        let copied_before = pages_copied();
        let mut replayed = CompactStepReport::default();
        if !step.slices.is_empty() {
            let spec = Arc::make_mut(&mut self.spec);
            for logged in &step.slices {
                let slice =
                    spec.compact_slice_at(logged.rel, logged.write, logged.start, logged.end)?;
                replayed.reclaimed += slice.reclaimed as usize;
                replayed.slices.push(slice);
            }
        }
        replayed.done = self.spec.total_tombstones() == 0;
        self.finish_step(&replayed)?;
        self.finish_write(copied_before, !replayed.slices.is_empty());
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
            self.rebuild_touched(&touched, 0, self.obs.clock())?;
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

    /// Freeze the current state into an immutable [`EngineSnapshot`] in
    /// O(top level), solving nothing: the snapshot shares the engine's
    /// specification, partition and slot pages (every slot decided), and
    /// the engine's next write copies only the chunks and pages it
    /// dirties.  The snapshot is stamped with [`CurrencyEngine::epoch`],
    /// so two snapshots with no write in between share an epoch.
    pub fn snapshot(&mut self) -> Arc<EngineSnapshot> {
        if self.obs.enabled() {
            self.obs.snapshot_epoch.set(self.epoch);
        }
        let recorder = self.obs.recorder();
        if recorder.enabled() {
            recorder.record(TraceEvent {
                ts_ns: currency_obs::now_ns(),
                kind: TraceKind::Event,
                name: "snapshot.publish",
                span: 0,
                parent: 0,
                value: self.epoch,
            });
        }
        Arc::new(EngineSnapshot::new(
            self.epoch,
            self.spec.clone(),
            self.value_rels.clone(),
            self.partition.clone(),
            self.slots.clone(),
            self.falsum_slots == 0 && self.unsat == 0,
            self.opts.threads,
            self.obs.snapshot_epochs_live.clone(),
        ))
    }

    /// The engine's epoch: 1 at construction, bumped once per write (an
    /// apply, or a compaction step that reclaimed anything).  Snapshots
    /// carry the epoch they were taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The specification the engine currently answers for (including every
    /// applied delta).
    pub fn spec(&self) -> &Specification {
        &self.spec
    }

    /// The entity partition the engine solves over.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The engine's options, with [`Options::threads`] resolved to the
    /// worker count in use (never 0).
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// Aggregate counters: sizes and CDCL statistics from the slots
    /// (see [`EngineStats`] for what each form contributes), lifetime
    /// counts read from the engine's registry ([`EngineObs`]).
    pub fn stats(&self) -> EngineStats {
        let mut stats = EngineStats {
            components: self.partition.len(),
            cells: self.partition.cell_count(),
            partition_bytes: self.partition.heap_bytes(),
            ..self.obs.stats()
        };
        for slot in self.slots.iter() {
            match slot {
                SlotView::Decided(decided) => {
                    let live = !Arc::ptr_eq(decided, &self.vacant);
                    stats.decided_components += usize::from(live);
                    stats.vars += decided.num_vars();
                    stats.encoding_bytes += decided.heap_bytes();
                }
                SlotView::Solver { enc, .. } => {
                    stats.vars += enc.num_vars();
                    stats.clauses += enc.num_clauses();
                    stats.encoding_bytes += enc.heap_bytes();
                    stats.sat += enc.solver_stats();
                }
            }
        }
        stats
    }

    /// The [`crate::encode::EncodingShape`] of the slot `slot` as
    /// published — for differential tests comparing the engine's
    /// compiled state against a reference compile solved and published
    /// the same way ([`crate::encode::Encoding::published_shape`]).
    #[cfg(any(test, feature = "oracle"))]
    pub fn slot_shape(&self, slot: usize) -> crate::encode::EncodingShape {
        self.slots[slot].shape()
    }

    /// The query view of the current state.
    pub(crate) fn view(&self) -> View<'_> {
        View {
            spec: &self.spec,
            value_rels: &self.value_rels,
            partition: &self.partition,
            slots: &self.slots,
            threads: self.opts.threads,
            max_models: MAX_MODELS,
            bounds: Bounds::default(),
        }
    }

    /// **CPS** — is the specification consistent?  Every slot is decided
    /// when it is compiled, so this is a field read and never fails.
    pub fn cps(&self) -> Result<bool, ReasonError> {
        Ok(self.falsum_slots == 0 && self.unsat == 0)
    }

    /// **COP** — is every pair of the candidate order certain?  Vacuously
    /// true when the specification is inconsistent (paper convention);
    /// otherwise, per pair, the level-zero value of its literal or one
    /// assumption-based solve on a throwaway clone of only the pair's
    /// component.
    pub fn cop(&self, ot: &CurrencyOrderQuery) -> Result<bool, ReasonError> {
        let consistent = self.cps()?;
        self.view().cop(ot, consistent, &mut 0)
    }

    /// **DCIP** — do all completions agree on the current instance of
    /// `rel`?  Enumerates at most two rel-projected models per touched
    /// component, on throwaway solver clones.
    pub fn dcip(&self, rel: RelId) -> Result<bool, ReasonError> {
        self.view().dcip(rel, || self.cps())
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
    /// count and the composed product are bounded by [`MAX_MODELS`].
    pub fn certain_answers(&self, query: &Query) -> Result<CertainAnswers, ReasonError> {
        self.view().certain_answers(query, || self.cps())
    }

    /// A witness completion from `Mod(S)`, assembled from per-component
    /// models; `Ok(None)` means the specification is inconsistent.
    pub fn witness_completion(&self) -> Result<Option<Completion>, ReasonError> {
        let consistent = self.cps()?;
        self.view().witness_completion(consistent)
    }

    /// The realizable current instances of `rel` (up to the model budget),
    /// composed across components.  Exposed for diagnostics and tests.
    pub fn current_instances(&self, rel: RelId) -> Result<Vec<NormalInstance>, ReasonError> {
        self.view().current_instances(rel, || self.cps())
    }
}

/// The worker count for a requested `threads` ([`Options::threads`]):
/// `0` means the machine's available parallelism.
fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
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
    run_indexed_with(threads, n, &mut (), |(), ix| f(ix))
}

/// Whether [`run_indexed_with`] runs `n` jobs on the calling thread:
/// thread spawn costs dwarf small jobs, so only real fleets fan out.
fn runs_inline(threads: usize, n: usize) -> bool {
    const MIN_PARALLEL_JOBS: usize = 16;
    threads <= 1 || n < MIN_PARALLEL_JOBS
}

/// [`run_indexed`] with per-worker state: jobs run inline borrow the
/// caller's `local`, and each spawned worker gets its own `S::default()`
/// — how a writer lends its compile scratch to a batch.
pub(crate) fn run_indexed_with<S, T, F>(
    threads: usize,
    n: usize,
    local: &mut S,
    f: F,
) -> Result<Vec<T>, ReasonError>
where
    S: Default,
    T: Send,
    F: Fn(&mut S, usize) -> Result<T, ReasonError> + Sync,
{
    if runs_inline(threads, n) {
        return (0..n).map(|ix| f(local, ix)).collect();
    }
    let slots: Vec<Mutex<Option<Result<T, ReasonError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| {
                let mut state = S::default();
                loop {
                    let ix = next.fetch_add(1, Ordering::Relaxed);
                    if ix >= n {
                        break;
                    }
                    *slots[ix].lock().expect("result slot") = Some(f(&mut state, ix));
                }
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
    use currency_core::{AttrId, Catalog, CmpOp, DenialConstraint, RelationSchema, Term, Tuple};
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
    fn lazy_engine_agrees_with_eager_reference_and_surfaces_lemma_stats() {
        use crate::encode::{CompileScratch, ComponentCompiler, Encoding};
        use crate::oracle::TransitivityMode::Eager;
        use crate::oracle::{cop_exact_monolithic, cps_exact_monolithic, dcip_exact_monolithic};
        use currency_sat::Enumeration;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        // Three more tuples per entity with one value between the others:
        // their mutual orders are open, so transitivity has triangles that
        // level zero does not decide.
        for e in 0..3u64 {
            for _ in 0..3 {
                spec.instance_mut(r)
                    .push_tuple(Tuple::new(Eid(e), vec![Value::int(15 + e as i64)]))
                    .unwrap();
            }
        }
        let lazy = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        // Variable allocation is mode-independent (parity), clause counts
        // are not (lazy omits the triangles eager grounding adds).
        let value_rels = [r];
        let compiler = ComponentCompiler::new(&spec, &value_rels);
        let mut scratch = CompileScratch::default();
        let partition = lazy.partition();
        let eager_slots: Vec<Encoding> = (0..partition.slots())
            .map(|ix| compiler.compile_in(partition.component(ix), Eager, &mut scratch))
            .collect();
        let sum = |count: fn(&Encoding) -> usize| eager_slots.iter().map(count).sum::<usize>();
        assert_eq!(lazy.stats().vars, sum(Encoding::num_vars));
        assert!(lazy.stats().clauses < sum(Encoding::num_clauses));
        assert_eq!(lazy.cps().unwrap(), cps_exact_monolithic(&spec).unwrap());
        for u in 0..15u32 {
            for v in 0..15u32 {
                let q = CurrencyOrderQuery::single(r, A, TupleId(u), TupleId(v));
                let want = cop_exact_monolithic(&spec, &q).unwrap();
                assert_eq!(lazy.cop(&q).unwrap(), want, "{u} ≺ {v}");
            }
        }
        assert_eq!(
            lazy.dcip(r).unwrap(),
            dcip_exact_monolithic(&spec, r).unwrap()
        );
        let mut whole = Encoding::whole_spec(&spec, &[r], Eager).unwrap();
        let projection = whole.value_projection().to_vec();
        assert_eq!(
            Ok(Enumeration::Complete(
                lazy.current_instances(r).unwrap().len()
            )),
            whole.for_each_model(&projection, MAX_MODELS, &Bounds::default(), |_| true),
            "realizable current-instance counts must match"
        );
        // The aggregated stats surface the new solver counters.
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
        // The caller's specification is untouched.
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
        let report = engine.compact_step(&CompactBudget::UNBOUNDED).unwrap();
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
        assert_eq!(stats.compact_steps, 1, "an unbounded step is one step");
        assert_eq!(stats.slots_reclaimed, 5);
        // Nothing left to reclaim: no rebuild, no counter bump.
        let noop = engine.compact_step(&CompactBudget::UNBOUNDED).unwrap();
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
        let report = engine.compact_step(&CompactBudget::UNBOUNDED).unwrap();
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
        let slots_before = engine.slots.len();
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
            engine.slots.len() <= slots_before + 1,
            "vacated slots are reused: {} grew past {}",
            engine.slots.len(),
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

    fn slots(max_slots_per_step: usize) -> CompactBudget {
        CompactBudget { max_slots_per_step }
    }

    /// Churn helper: `rounds` insert+retract pairs against `eid`,
    /// leaving one tombstone slot per round.
    fn churn(engine: &mut CurrencyEngine, r: RelId, eid: u64, rounds: usize) {
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
        let unbounded = whole.compact_step(&CompactBudget::UNBOUNDED).unwrap();
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
            let step = sliced.compact_step(&slots(2)).unwrap();
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
        let idle = sliced.compact_step(&slots(8)).unwrap();
        assert!(idle.done && idle.slices.is_empty());
    }

    #[test]
    fn a_step_is_a_pure_function_of_its_budget() {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        let live = 3500u32;
        for e in 0..live {
            spec.instance_mut(r)
                .push_tuple(Tuple::new(Eid(e as u64), vec![Value::int(e as i64)]))
                .unwrap();
        }
        // Every tenth slot dies, the first one included, so the dead
        // region spans the whole relation.
        for id in (0..live).step_by(10) {
            spec.instance_mut(r).remove_tuple(TupleId(id)).unwrap();
        }
        let mut engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        let step = engine.compact_step(&CompactBudget::default()).unwrap();
        assert_eq!(
            step.slices.len(),
            1,
            "a budget covering the relation's dead region runs one slice"
        );
        assert!(step.done);
        assert_eq!(step.reclaimed, 350);

        // Two engines over one churned specification, driven by the same
        // budgets, run the same slices and land on the same bytes.
        let mut a = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        let mut b = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        for max_slots_per_step in [1, 7, 300, 1024].into_iter().cycle() {
            let step = a.compact_step(&slots(max_slots_per_step)).unwrap();
            assert_eq!(step, b.compact_step(&slots(max_slots_per_step)).unwrap());
            assert_eq!(
                currency_core::wire::encode_spec(a.spec()),
                currency_core::wire::encode_spec(b.spec())
            );
            if step.done {
                break;
            }
        }
        assert_eq!(
            currency_core::wire::encode_spec(a.spec()),
            currency_core::wire::encode_spec(engine.spec()),
            "small and wide steps drain to the same specification"
        );
    }

    #[test]
    fn budgeted_auto_policy_takes_bounded_steps() {
        use currency_core::SpecDelta;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let opts = Options {
            auto_compact_tombstones: 3,
            auto_compact_budget: Some(slots(2)),
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
            let step = original.compact_step(&slots(3)).unwrap();
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
        let stale = original.compact_step(&slots(1)).unwrap();
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
        engine.compact_step(&CompactBudget::UNBOUNDED).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.updates_applied, 4);
        assert_eq!(stats.compact_steps, 1);
        assert_eq!(stats.slots_reclaimed, 2);
        // The counts are the registry's; the histograms stayed off.
        assert_eq!(engine.obs().applies_total.get(), 4);
        assert_eq!(engine.obs().apply_ns.count(), 0);
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
}
