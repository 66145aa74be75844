//! Epoch-published snapshot views for concurrent query serving.
//!
//! The live [`CurrencyEngine`](crate::engine::CurrencyEngine) answers all
//! queries through per-component mutexes: correct, but a single hot
//! component serializes every reader that touches it, and a writer
//! applying deltas contends with all of them.  This module splits the
//! compiled state into an **immutable, shareable snapshot** so that a
//! read-mostly fleet never blocks:
//!
//! * [`EngineSnapshot`] — one epoch's frozen view: the specification, the
//!   entity partition, and every component's compiled encoding (learnt
//!   clauses and lazy-transitivity lemmas included, since the writer
//!   solves each rebuilt component before publishing).  All of it sits
//!   behind `Arc`s, so a snapshot is a handful of pointer bumps to
//!   retain and queries on it take `&self` with **zero locks**.
//! * [`SnapshotEngine`] — the single writer.  `apply` runs the same
//!   O(dirty region) machinery as the live engine ([`Partition::refresh`]
//!   plus per-slot recompilation), re-solves exactly the rebuilt slots,
//!   and publishes the next snapshot under a bumped epoch.  Clean slots
//!   are carried over as shared `Arc`s — consecutive snapshots share
//!   every encoding outside the dirty region.  The specification, the
//!   partition and the slot vector are paged copy-on-write containers
//!   ([`currency_core::cow`]), so the writer's working copy shares every
//!   page with the snapshot it last published: a delta copies the
//!   containers' top levels (one pointer per chunk of 128 pages) plus
//!   only the chunks and pages its dirty region writes (counted in
//!   [`PublishReport::pages_copied`]), never the specification and never
//!   a whole page table.
//! * [`SnapshotCell`] — the hand-rolled arc-swap the writer publishes
//!   through: a `Mutex<Arc<EngineSnapshot>>` whose `load()` is
//!   lock-then-clone-the-`Arc`, held for nanoseconds and recoverable
//!   from poisoning, so a crashed reader can neither wedge the publish
//!   path nor corrupt the published view (snapshots are immutable).
//! * [`SnapshotReader`] — a reader's pinned view plus **per-reader
//!   solver scratch**: assumption solves (COP) clone the component's
//!   encoding into private scratch instead of locking a shared solver,
//!   so N readers never block each other or the writer, and learnt
//!   clauses still amortize across one reader's query stream.  Re-pinning
//!   a newer epoch refreshes stale scratch in place
//!   (`Encoding::clone_from`, which reuses the scratch's buffers).
//!
//! The serving front door (answer cache, rate limiting, stats) lives on
//! top of this module in the `currency-serve` crate.

use crate::ccqa::CertainAnswers;
use crate::cop::CurrencyOrderQuery;
use crate::encode::{Bounds, Encoding};
use crate::encode::{CompileScratch, ComponentCompiler};
use crate::engine::{
    check_product_budget, effective_threads, for_each_combination, intersect_certain_answers,
    remapped_cells, run_indexed, run_indexed_with, run_slices, ComponentModels, EngineStats,
    SLICE_QUANTUM,
};
use crate::error::ReasonError;
use crate::obs::EngineObs;
use crate::partition::{Component, Partition, RefreshScratch};
use crate::{CompactBudget, Options, SolveLimits};
use currency_core::cow::{pages_copied, PagedVec};
use currency_core::NormalInstance;
use currency_core::{CompactStepReport, Eid, RelId, SpecDelta, Specification, TupleId, Value};
use currency_obs::{Counter, MetricsRegistry, SpanGuard, TraceEvent, TraceKind};
use currency_query::Query;
use currency_sat::SolverStats;
use currency_sat::{Enumeration, SolveResult};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One component slot of a snapshot: the compiled encoding (already
/// solved, so its satisfiability and learnt clauses are baked in) plus
/// the cached verdict.
#[derive(Clone)]
struct SlotView {
    enc: Arc<Encoding>,
    sat: bool,
}

/// An immutable, shareable view of a compiled specification at one epoch.
///
/// Everything a query needs — spec, partition, per-component encodings
/// with their cached solver state — is frozen behind `Arc`s.  Query
/// methods that never mutate solver state live here and take `&self`
/// with no locking; entailment queries (COP) need a mutable solver and
/// live on [`SnapshotReader`], which keeps private scratch.
pub struct EngineSnapshot {
    epoch: u64,
    spec: Arc<Specification>,
    value_rels: Arc<Vec<RelId>>,
    partition: Arc<Partition>,
    slots: PagedVec<SlotView>,
    consistent: bool,
    opts: Options,
}

impl EngineSnapshot {
    /// The epoch this snapshot was published under.  Epochs increase by
    /// one per publication; equal epochs mean identical state, so the
    /// epoch is a sound cache-invalidation key.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The specification this snapshot answers for.
    pub fn spec(&self) -> &Specification {
        &self.spec
    }

    /// A retained handle on the specification (an `Arc` bump, no copy) —
    /// e.g. for differential tests that rebuild a reference engine at a
    /// past epoch.
    pub fn spec_arc(&self) -> Arc<Specification> {
        self.spec.clone()
    }

    /// The entity partition of this snapshot.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The options the snapshot was compiled under.
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// **CPS** — is the specification consistent?  Precomputed by the
    /// writer (every slot is solved before publication), so this is a
    /// field read.
    pub fn cps(&self) -> bool {
        self.consistent
    }

    /// **DCIP** — do all completions agree on the current instance of
    /// `rel`?  Enumerates at most two rel-projected models per touched
    /// component on throwaway clones of the shared encodings.
    pub fn dcip(&self, rel: RelId) -> Result<bool, ReasonError> {
        self.dcip_with(rel, &self.opts)
    }

    /// [`EngineSnapshot::dcip`] under a caller-supplied `Options` (the
    /// [`SnapshotReader`] threads its per-request deadline through here).
    pub(crate) fn dcip_with(&self, rel: RelId, opts: &Options) -> Result<bool, ReasonError> {
        self.require_value_rel(rel)?;
        if !self.consistent {
            return Ok(true); // vacuously deterministic
        }
        let bounds = Bounds::from_options(opts);
        let touched = self.partition.components_touching(rel);
        for ix in touched {
            let shared = &self.slots[ix].enc;
            let (_, vars) = shared.restricted_projection(&[rel]);
            if vars.is_empty() {
                continue; // every completion yields the same rows
            }
            let mut enc = (**shared).clone();
            let mut count = 0usize;
            let enumeration =
                enc.for_each_model_bounded(&vars, opts.max_models, &bounds, |_| {
                    count += 1;
                    count < 2
                })?;
            if let Enumeration::LimitReached(n) = enumeration {
                return Err(ReasonError::BudgetExceeded {
                    what: "current-instance enumeration (DCIP)",
                    budget: opts.max_models,
                    spent: n,
                });
            }
            if count >= 2 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// **CCQA** — is `tuple` a certain current answer of `query`?
    pub fn ccqa(&self, query: &Query, tuple: &[Value]) -> Result<bool, ReasonError> {
        Ok(self.certain_answers(query)?.contains(tuple))
    }

    /// The certain current answers of `query`, composed per component
    /// exactly like the live engine's — but against the snapshot's
    /// immutable encodings, with All-SAT blocking clauses confined to
    /// throwaway clones.
    pub fn certain_answers(&self, query: &Query) -> Result<CertainAnswers, ReasonError> {
        self.certain_answers_with(query, &self.opts)
    }

    /// [`EngineSnapshot::certain_answers`] under a caller-supplied
    /// `Options`.
    pub(crate) fn certain_answers_with(
        &self,
        query: &Query,
        opts: &Options,
    ) -> Result<CertainAnswers, ReasonError> {
        let rels: Vec<RelId> = query.body().relations().into_iter().collect();
        for &rel in &rels {
            self.require_value_rel(rel)?;
        }
        if !self.consistent {
            return Ok(CertainAnswers::Inconsistent);
        }
        let touched = self.touched_components(&rels);
        let per_comp = self.enumerate_component_models(
            &rels,
            &touched,
            opts,
            "current-instance enumeration (CCQA)",
        )?;
        intersect_certain_answers(query, &rels, &per_comp, opts.deadline, |cm, model| {
            self.decode(&rels, cm, model)
        })
    }

    /// The realizable current instances of `rel` (up to the model
    /// budget), composed across components.
    pub fn current_instances(&self, rel: RelId) -> Result<Vec<NormalInstance>, ReasonError> {
        self.current_instances_with(rel, &self.opts)
    }

    /// [`EngineSnapshot::current_instances`] under a caller-supplied
    /// `Options`.
    pub(crate) fn current_instances_with(
        &self,
        rel: RelId,
        opts: &Options,
    ) -> Result<Vec<NormalInstance>, ReasonError> {
        self.require_value_rel(rel)?;
        if !self.consistent {
            return Ok(Vec::new());
        }
        let rels = [rel];
        let touched = self.partition.components_touching(rel);
        let per_comp =
            self.enumerate_component_models(&rels, &touched, opts, "current-instance enumeration")?;
        let mut out: Vec<NormalInstance> = Vec::new();
        for_each_combination(
            &per_comp,
            opts.deadline,
            |cm, model| self.decode(&rels, cm, model),
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

    fn decode(
        &self,
        rels: &[RelId],
        cm: &ComponentModels,
        model: &[bool],
    ) -> Vec<(RelId, currency_core::Tuple)> {
        self.slots[cm.comp]
            .enc
            .decode_restricted(&self.spec, rels, &cm.indices, model)
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
    /// (parallel under [`Options::threads`], on throwaway clones of the
    /// shared encodings — no lock is taken or needed).
    fn enumerate_component_models(
        &self,
        rels: &[RelId],
        comps: &[usize],
        opts: &Options,
        what: &'static str,
    ) -> Result<Vec<ComponentModels>, ReasonError> {
        let per_comp = run_indexed(effective_threads(opts), comps.len(), |k| {
            let ix = comps[k];
            let shared = &self.slots[ix].enc;
            let (indices, vars) = shared.restricted_projection(rels);
            if vars.is_empty() {
                // One realizable outcome: the component's fixed rows.
                return Ok(ComponentModels {
                    comp: ix,
                    indices,
                    models: vec![Vec::new()],
                });
            }
            let bounds = Bounds::from_options(opts);
            let mut enc = (**shared).clone();
            let mut models: Vec<Vec<bool>> = Vec::new();
            let enumeration = enc.for_each_model_bounded(&vars, opts.max_models, &bounds, |m| {
                models.push(m.to_vec());
                true
            })?;
            if let Enumeration::LimitReached(n) = enumeration {
                return Err(ReasonError::BudgetExceeded {
                    what,
                    budget: opts.max_models,
                    spent: n,
                });
            }
            Ok(ComponentModels {
                comp: ix,
                indices,
                models,
            })
        })?;
        check_product_budget(&per_comp, opts.max_models, what)?;
        Ok(per_comp)
    }

    fn require_value_rel(&self, rel: RelId) -> Result<(), ReasonError> {
        if self.value_rels.contains(&rel) {
            Ok(())
        } else {
            Err(ReasonError::UnsupportedQuery {
                detail: format!(
                    "relation {rel:?} has no value indicators in this snapshot; \
                     build the SnapshotEngine with new or include the relation \
                     in with_value_rels"
                ),
            })
        }
    }
}

/// The hand-rolled arc-swap snapshots are published through.
///
/// `load()` locks, clones the `Arc`, unlocks — the critical section is a
/// pointer copy, so it is lock-free in practice.  Both sides recover
/// from poisoning: the protected value is just an `Arc`, which a panic
/// cannot leave half-updated, so a reader that dies while loading can
/// neither wedge the writer's publish path nor corrupt the view.
pub struct SnapshotCell {
    current: Mutex<Arc<EngineSnapshot>>,
    /// Poison recoveries on `load`/`store`: the recovery is safe (the
    /// protected value is an `Arc` a panic cannot tear) but it means a
    /// reader died mid-operation, so it is counted instead of swallowed —
    /// as `currency_degraded_events_total{source="snapshot_cell"}` on the
    /// writer's registry, which `currency-serve` also surfaces as
    /// `ServeStats::degraded_events`.
    degraded: Arc<Counter>,
}

impl SnapshotCell {
    fn new(snap: Arc<EngineSnapshot>, registry: &MetricsRegistry) -> SnapshotCell {
        SnapshotCell {
            current: Mutex::new(snap),
            degraded: registry.counter(
                "currency_degraded_events_total",
                "Poisoned-lock recoveries absorbed by the serving stack",
                &[("source", "snapshot_cell")],
            ),
        }
    }

    /// The most recently published snapshot (an `Arc` bump).
    pub fn load(&self) -> Arc<EngineSnapshot> {
        self.lock().clone()
    }

    /// The epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.load().epoch
    }

    /// Times a `load`/`store` recovered from a poisoned lock (a reader
    /// or writer panicked while holding it).  Each recovery is benign in
    /// isolation, but a climbing count means queries are crashing —
    /// operators should see it, not have it recovered silently.
    pub fn degraded_events(&self) -> u64 {
        self.degraded.get()
    }

    fn store(&self, next: Arc<EngineSnapshot>) {
        *self.lock() = next;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Arc<EngineSnapshot>> {
        self.current.lock().unwrap_or_else(|poisoned| {
            // Clear the flag so one crash is one event, not one per
            // subsequent load.
            self.current.clear_poison();
            self.degraded.inc();
            poisoned.into_inner()
        })
    }
}

/// What one [`SnapshotEngine::apply`] published.
#[derive(Clone, Debug)]
pub struct PublishReport {
    /// The epoch the resulting snapshot was published under.
    pub epoch: u64,
    /// Components recompiled (and re-solved) by this delta.
    pub components_rebuilt: usize,
    /// Components whose compiled `Arc` was carried over untouched.
    pub components_reused: usize,
    /// Number of `(relation, entity)` cells the delta touched.
    pub cells_touched: usize,
    /// Ids assigned to tuples the delta inserted, in operation order.
    pub inserted: Vec<(RelId, TupleId)>,
    /// Copy-on-write pages and chunks this delta (and its
    /// auto-compaction step) copied off the previously published
    /// snapshot: O(dirty region), independent of the specification's
    /// size.
    pub pages_copied: u64,
    /// The bounded compaction step the
    /// [`Options::auto_compact_tombstones`] policy ran after this delta,
    /// if any.  Only the ids its slices remapped are invalidated;
    /// translate via [`CompactStepReport::new_id`].
    pub compact_step: Option<CompactStepReport>,
}

/// The single writer of an epoch-published engine.
///
/// Owns the working copy of the specification, partition and per-slot
/// encodings; [`SnapshotEngine::apply`] mutates them through the same
/// O(dirty region) refresh path as the live engine, re-solves exactly
/// the rebuilt slots, and publishes the next [`EngineSnapshot`] through
/// the shared [`SnapshotCell`].  Readers hold the cell (via
/// [`SnapshotEngine::cell`]) and never touch the writer.
pub struct SnapshotEngine {
    spec: Arc<Specification>,
    value_rels: Arc<Vec<RelId>>,
    partition: Arc<Partition>,
    /// Buffers lent to every [`Partition::refresh`] (kept out of the
    /// partition so published partitions carry none).
    refresh_scratch: RefreshScratch,
    /// Buffers lent to every component compile run inline.
    compile_scratch: CompileScratch,
    slots: PagedVec<SlotView>,
    /// Shared trivially-satisfiable encoding for vacated slots.
    vacant: Arc<Encoding>,
    /// Count of slots whose encoding is unsatisfiable.
    unsat: usize,
    /// Count of slots whose encoding grounded a premise-free falsum
    /// rule ([`Encoding::has_ground_falsum`]).
    falsum_slots: usize,
    epoch: u64,
    opts: Options,
    cell: Arc<SnapshotCell>,
    /// Metric handles + trace recorder (see [`EngineObs`]); also the
    /// only store of the lifetime counts [`SnapshotEngine::stats`]
    /// reports.
    obs: EngineObs,
}

impl SnapshotEngine {
    /// Compile `spec` with value indicators for every relation and
    /// publish the epoch-0 snapshot.
    pub fn new(spec: Specification, opts: &Options) -> Result<SnapshotEngine, ReasonError> {
        let value_rels: Vec<RelId> = spec.instances().iter().map(|i| i.rel()).collect();
        SnapshotEngine::with_value_rels(spec, &value_rels, opts)
    }

    /// Compile `spec` with value indicators for `value_rels` only (see
    /// [`CurrencyEngine::with_value_rels`](crate::engine::CurrencyEngine::with_value_rels)).
    pub fn with_value_rels(
        spec: Specification,
        value_rels: &[RelId],
        opts: &Options,
    ) -> Result<SnapshotEngine, ReasonError> {
        spec.validate()?;
        let value_rels = Arc::new(value_rels.to_vec());
        let partition = Partition::of(&spec);
        let mut compile_scratch = CompileScratch::default();
        let compiler = ComponentCompiler::new(&spec, &value_rels, opts.transitivity);
        let slots: PagedVec<SlotView> = run_indexed_with(
            effective_threads(opts),
            partition.slots(),
            &mut compile_scratch,
            |scratch, ix| Ok(compile_slot(&compiler, partition.component(ix), scratch)),
        )?
        .into_iter()
        .collect();
        let unsat = slots.iter().filter(|s| !s.sat).count();
        let falsum_slots = slots.iter().filter(|s| s.enc.has_ground_falsum()).count();
        let vacant = Arc::new(Encoding::vacant(&value_rels, opts.transitivity));
        let obs = EngineObs::new();
        let mut engine = SnapshotEngine {
            spec: Arc::new(spec),
            value_rels,
            partition: Arc::new(partition),
            refresh_scratch: RefreshScratch::default(),
            compile_scratch,
            slots,
            vacant,
            unsat,
            falsum_slots,
            epoch: 0,
            opts: *opts,
            cell: Arc::new(SnapshotCell::new(
                Arc::new(EngineSnapshot {
                    epoch: 0,
                    spec: Arc::new(empty_spec()),
                    value_rels: Arc::new(Vec::new()),
                    partition: Arc::new(Partition::of(&empty_spec())),
                    slots: PagedVec::new(),
                    consistent: true,
                    opts: *opts,
                }),
                obs.registry(),
            )),
            obs,
        };
        engine.publish();
        Ok(engine)
    }

    /// The writer's observability bundle (metric handles, recorder).
    pub fn obs(&self) -> &EngineObs {
        &self.obs
    }

    /// Mutable access for wiring: attach a trace recorder or switch
    /// the histograms off.
    pub fn obs_mut(&mut self) -> &mut EngineObs {
        &mut self.obs
    }

    /// Apply a delta and publish the resulting snapshot under a bumped
    /// epoch.
    ///
    /// The refresh is the live engine's O(dirty region) path: only the
    /// touched component slots are recompiled (in parallel under
    /// [`Options::threads`]) and re-solved; every clean slot's `Arc` is
    /// carried into the next snapshot unchanged, so consecutive
    /// snapshots share all compiled state outside the dirty region.  The
    /// specification and partition are shared with the published
    /// snapshot chunk by chunk and page by page, so the delta copies only
    /// the chunks and pages it writes ([`PublishReport::pages_copied`]),
    /// never a page table.  On error nothing is mutated and nothing is
    /// published.
    pub fn apply(&mut self, delta: &SpecDelta) -> Result<PublishReport, ReasonError> {
        let copied_before = pages_copied();
        let recorder = self.obs.recorder().clone();
        let apply_span = SpanGuard::enter(&*recorder, "engine.apply", 0);
        let parent = apply_span.as_ref().map_or(0, SpanGuard::id);
        let clock = self.obs.clock();
        let validate_span = SpanGuard::enter(&*recorder, "engine.validate", parent);
        // The published snapshot shares our spec `Arc`, so `make_mut`
        // copies its top level and one pointer per chunk (chunks and
        // pages are copied one by one as the delta writes them);
        // validate first so a rejected delta copies nothing.
        delta.validate(&self.spec)?;
        let effects = Arc::make_mut(&mut self.spec).apply_delta(delta)?;
        drop(validate_span);
        self.obs.lap(clock, &self.obs.apply_validate_ns);
        let plan = self.rebuild_touched(&effects.touched_cells, parent)?;
        self.obs.applies_total.inc();
        if let Some(start) = clock {
            self.obs.apply_ns.record(start.elapsed().as_nanos() as u64);
        }
        let mut report = PublishReport {
            epoch: 0, // filled in after the publish below
            components_rebuilt: plan.rebuilt(),
            components_reused: plan.reused(),
            cells_touched: effects.touched_cells.len(),
            inserted: effects.inserted,
            pages_copied: 0, // filled in before the publish below
            compact_step: None,
        };
        if self.opts.auto_compact_due(&self.spec) {
            // One slot-bounded step per apply; the delta and the step
            // publish as a single epoch.
            let max_slots = self.opts.auto_compact_slots();
            report.compact_step =
                Some(self.compact_step_bounded(max_slots, SLICE_QUANTUM, None)?);
        }
        report.pages_copied = pages_copied() - copied_before;
        self.obs.pages_copied.add(report.pages_copied);
        self.publish();
        report.epoch = self.epoch;
        Ok(report)
    }

    /// Recompile, re-solve and patch exactly the slots owning `touched`
    /// cells — the shared tail of [`SnapshotEngine::apply`] and
    /// [`SnapshotEngine::compact_step`].  Does not publish; the caller
    /// decides the epoch boundary.
    fn rebuild_touched(
        &mut self,
        touched: &BTreeSet<(RelId, Eid)>,
        parent_span: u64,
    ) -> Result<crate::partition::RefreshPlan, ReasonError> {
        let recorder = self.obs.recorder().clone();
        let clock = self.obs.clock();
        let plan = {
            let _span = SpanGuard::enter(&*recorder, "engine.refresh", parent_span);
            Arc::make_mut(&mut self.partition).refresh(
                self.spec.as_ref(),
                touched,
                &mut self.refresh_scratch,
            )
        };
        let clock = self.obs.lap(clock, &self.obs.apply_refresh_ns);
        // Compile *and solve* the rebuilt slots before patching any
        // state: the fallible step cannot leave the writer half-updated,
        // and solving here bakes the verdict (and any lazy lemmas) into
        // the published encoding so readers start warm.
        let compiled: Vec<SlotView> = {
            let _span = SpanGuard::enter(&*recorder, "engine.recompile", parent_span);
            let compiler =
                ComponentCompiler::new(&self.spec, &self.value_rels, self.opts.transitivity);
            let partition = self.partition.as_ref();
            let rebuilt = &plan.rebuilt;
            run_indexed_with(
                effective_threads(&self.opts),
                rebuilt.len(),
                &mut self.compile_scratch,
                |scratch, k| {
                    Ok(compile_slot(
                        &compiler,
                        partition.component(rebuilt[k]),
                        scratch,
                    ))
                },
            )?
        };
        self.obs.lap(clock, &self.obs.apply_recompile_ns);
        if self.obs.enabled() {
            // Each rebuilt slot is a fresh encoding solved during
            // compilation, so its absolute counters *are* the
            // per-solve delta.
            for view in &compiled {
                let stats: SolverStats = view.enc.solver_stats();
                self.obs.solver_conflicts.record(stats.conflicts);
                self.obs.solver_propagations.record(stats.propagations);
                self.obs.solver_lemmas.record(stats.lemmas_added);
            }
        }
        for &slot in &plan.freed {
            self.retire(slot);
            self.slots[slot] = SlotView {
                enc: self.vacant.clone(),
                sat: true,
            };
        }
        for (&slot, view) in plan.rebuilt.iter().zip(compiled) {
            if !view.sat {
                self.unsat += 1;
            }
            self.falsum_slots += usize::from(view.enc.has_ground_falsum());
            if slot < self.slots.len() {
                self.retire(slot);
                self.slots[slot] = view;
            } else {
                debug_assert_eq!(slot, self.slots.len(), "appends are contiguous");
                self.slots.push(view);
            }
        }
        debug_assert_eq!(self.slots.len(), plan.slots, "slot arrays aligned");
        self.obs.components_rebuilt.add(plan.rebuilt() as u64);
        self.obs.components_reused.add(plan.reused() as u64);
        Ok(plan)
    }

    /// Reclaim every tombstone slot and publish the result as one new
    /// epoch: one compaction step with no slot bound and no deadline (see
    /// [`CurrencyEngine::compact`](crate::engine::CurrencyEngine::compact)).
    /// Only the slots owning a remapped tuple are recompiled; every clean
    /// slot's `Arc` carries into the next snapshot unchanged.  With no
    /// tombstones this is a no-op: nothing is rebuilt and no new epoch is
    /// published.
    pub fn compact(&mut self) -> Result<CompactStepReport, ReasonError> {
        let copied_before = pages_copied();
        let step = self.compact_step_bounded(usize::MAX, u32::MAX as usize, None)?;
        self.obs.pages_copied.add(pages_copied() - copied_before);
        if !step.slices.is_empty() {
            self.publish();
        }
        Ok(step)
    }

    /// Run one bounded compaction step and publish the result as a new
    /// epoch (see
    /// [`CurrencyEngine::compact_step`](crate::engine::CurrencyEngine::compact_step)
    /// for the step semantics).  Readers pinned to earlier epochs keep
    /// answering against their snapshot's pre-step tuple ids; each
    /// completed step is exactly one published epoch, so an id is valid
    /// for precisely the epochs between the steps that created and
    /// remapped it.  A step that reclaimed nothing publishes no epoch.
    pub fn compact_step(
        &mut self,
        budget: &CompactBudget,
    ) -> Result<CompactStepReport, ReasonError> {
        let deadline = Instant::now() + budget.max_pause;
        let copied_before = pages_copied();
        let step =
            self.compact_step_bounded(budget.max_slots_per_step, SLICE_QUANTUM, Some(deadline))?;
        self.obs.pages_copied.add(pages_copied() - copied_before);
        if !step.slices.is_empty() {
            self.publish();
        }
        Ok(step)
    }

    /// One step through [`run_slices`], then the dirty-region rebuild;
    /// the caller publishes.
    fn compact_step_bounded(
        &mut self,
        max_slots: usize,
        quantum: usize,
        deadline: Option<Instant>,
    ) -> Result<CompactStepReport, ReasonError> {
        if self.spec.total_tombstones() == 0 {
            return Ok(CompactStepReport {
                done: true,
                ..CompactStepReport::default()
            });
        }
        let clock = self.obs.clock();
        let step = run_slices(Arc::make_mut(&mut self.spec), max_slots, quantum, deadline);
        if !step.slices.is_empty() {
            // Rebuild (and re-solve) only the slots owning a remapped
            // tuple; every clean slot's `Arc` carries into the next
            // snapshot unchanged.
            let touched = remapped_cells(&self.spec, &step.slices);
            if !touched.is_empty() {
                self.rebuild_touched(&touched, 0)?;
            }
            self.obs.compact_steps.inc();
            self.obs.slots_reclaimed.add(step.reclaimed as u64);
        }
        if let Some(start) = clock {
            self.obs
                .compact_step_pause_ns
                .record(start.elapsed().as_nanos() as u64);
        }
        Ok(step)
    }

    /// Bump the epoch and swap the assembled snapshot into the cell.
    fn publish(&mut self) {
        self.epoch += 1;
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
        let snap = Arc::new(EngineSnapshot {
            epoch: self.epoch,
            spec: self.spec.clone(),
            value_rels: self.value_rels.clone(),
            partition: self.partition.clone(),
            slots: self.slots.clone(),
            consistent: self.falsum_slots == 0 && self.unsat == 0,
            opts: self.opts,
        });
        self.cell.store(snap);
    }

    /// Take a slot's verdicts out of the writer's counts (the slot is
    /// about to be replaced).
    fn retire(&mut self, slot: usize) {
        let view = &self.slots[slot];
        self.unsat -= usize::from(!view.sat);
        self.falsum_slots -= usize::from(view.enc.has_ground_falsum());
    }

    /// The shared cell readers load snapshots from.
    pub fn cell(&self) -> Arc<SnapshotCell> {
        self.cell.clone()
    }

    /// The most recently published snapshot.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.cell.load()
    }

    /// A reader pinned to the current snapshot.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader::new(self.cell.load())
    }

    /// The current epoch (equals the published snapshot's).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The specification the writer currently holds (the next snapshot's
    /// content; equal to the published one between calls).
    pub fn spec(&self) -> &Specification {
        &self.spec
    }

    /// The writer's options.
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// Aggregate counters: sizes and CDCL statistics of the writer's
    /// current slots (equal to the published snapshot's), lifetime
    /// counts read from the writer's registry ([`EngineObs`]).
    pub fn stats(&self) -> EngineStats {
        let mut stats = EngineStats {
            components: self.partition.len(),
            cells: self.partition.cell_count(),
            partition_bytes: self.partition.heap_bytes(),
            ..self.obs.stats()
        };
        for slot in self.slots.iter() {
            stats.vars += slot.enc.num_vars();
            stats.clauses += slot.enc.num_clauses();
            stats.encoding_bytes += slot.enc.heap_bytes();
            stats.sat += slot.enc.solver_stats();
        }
        stats
    }
}

/// The placeholder a [`SnapshotCell`] holds for the instant between
/// field construction and the constructor's first publish.
fn empty_spec() -> Specification {
    Specification::new(currency_core::Catalog::new())
}

/// Compile one component and solve it immediately, so the published
/// encoding carries its verdict, learnt clauses and lazy lemmas.  What
/// gets published is a clone: exactly sized, with the build's doubling
/// buffers freed together.  Published encodings are only read and
/// cloned from then on and live among encodings built at other times,
/// so packing them keeps the heap from fragmenting on a long delta
/// stream.
fn compile_slot(
    compiler: &ComponentCompiler<'_>,
    component: &Arc<Component>,
    scratch: &mut CompileScratch,
) -> SlotView {
    let mut enc = compiler.compile(component, scratch);
    let sat = enc.solve() == SolveResult::Sat;
    SlotView {
        enc: Arc::new(enc.clone()),
        sat,
    }
}

/// Slots a reader keeps private scratch encodings for.  A reader about
/// to exceed it empties its scratch and starts over, so a long-lived
/// reader that visits every component of a large specification holds
/// at most this many encoding clones.
const READER_SCRATCH_SLOTS: usize = 256;

/// One entry of a reader's private solver scratch: a clone of a slot's
/// encoding, stamped with the epoch it was cloned at.
struct ScratchSlot {
    epoch: u64,
    enc: Encoding,
}

/// A reader: a pinned snapshot plus per-reader solver scratch.
///
/// Queries that need a mutable solver (COP's assumption solves) clone
/// the touched component's encoding into the reader's own scratch on
/// first use and keep querying that private copy — learnt clauses
/// accumulate there, amortizing across the reader's stream, and no
/// shared state is ever locked or written.  [`SnapshotReader::pin`]
/// moves the reader to a newer snapshot; stale scratch entries are
/// refreshed lazily in place (`Encoding::clone_from` reuses their
/// buffers) the next time their slot is queried.  Scratch holds at
/// most 256 slots; a reader about to exceed that empties it first.
pub struct SnapshotReader {
    snap: Arc<EngineSnapshot>,
    scratch: HashMap<usize, ScratchSlot>,
    scratch_clones: u64,
    scratch_refreshes: u64,
    /// Per-request wall-clock deadline layered over the snapshot's
    /// options for every query until changed.
    deadline: Option<Instant>,
    /// Per-solve budget override layered over the snapshot's options.
    solve_limits: Option<SolveLimits>,
}

impl SnapshotReader {
    /// A reader pinned to `snap`.
    pub fn new(snap: Arc<EngineSnapshot>) -> SnapshotReader {
        SnapshotReader {
            snap,
            scratch: HashMap::new(),
            scratch_clones: 0,
            scratch_refreshes: 0,
            deadline: None,
            solve_limits: None,
        }
    }

    /// Set (or clear) the wall-clock deadline applied to every following
    /// query on this reader.  A query that cannot finish in time returns
    /// [`ReasonError::Interrupted`] — never a wrong verdict — and leaves
    /// the reader usable; serving layers set this per request.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Set (or clear) a per-solve work budget overriding the snapshot's
    /// [`Options::solve_limits`] for every following query.
    pub fn set_solve_limits(&mut self, limits: Option<SolveLimits>) {
        self.solve_limits = limits;
    }

    /// The snapshot's options with this reader's per-request overrides
    /// applied.
    fn effective_options(&self) -> Options {
        let mut opts = self.snap.opts;
        if self.deadline.is_some() {
            opts.deadline = self.deadline;
        }
        if let Some(limits) = self.solve_limits {
            opts.solve_limits = limits;
        }
        opts
    }

    /// Re-pin to `snap` (typically a fresh [`SnapshotCell::load`]).
    /// Scratch survives; entries from older epochs are refreshed on
    /// their next use.
    pub fn pin(&mut self, snap: Arc<EngineSnapshot>) {
        self.snap = snap;
    }

    /// The pinned snapshot's epoch.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch
    }

    /// The pinned snapshot.
    pub fn snapshot(&self) -> &Arc<EngineSnapshot> {
        &self.snap
    }

    /// Scratch encodings cloned fresh over this reader's lifetime.
    pub fn scratch_clones(&self) -> u64 {
        self.scratch_clones
    }

    /// Stale scratch encodings refreshed in place after an epoch change.
    pub fn scratch_refreshes(&self) -> u64 {
        self.scratch_refreshes
    }

    /// **CPS** at the pinned epoch (precomputed; a field read).
    pub fn cps(&self) -> bool {
        self.snap.cps()
    }

    /// **COP** at the pinned epoch: one assumption solve per pair
    /// against this reader's private scratch clone of the pair's
    /// component.
    pub fn cop(&mut self, ot: &CurrencyOrderQuery) -> Result<bool, ReasonError> {
        let snap = self.snap.clone();
        if !snap.consistent {
            return Ok(true); // Mod(S) = ∅: vacuously certain
        }
        if ot.rel.index() >= snap.spec.instances().len() {
            return Ok(ot.pairs.is_empty());
        }
        let inst = snap.spec.instance(ot.rel);
        for &(attr, lesser, greater) in &ot.pairs {
            let (Ok(lt), Ok(gt)) = (inst.tuple_checked(lesser), inst.tuple_checked(greater)) else {
                return Ok(false); // unknown tuple: never certain
            };
            if lesser == greater || lt.eid != gt.eid {
                return Ok(false); // reflexive or cross-entity: never holds
            }
            let ix = snap
                .partition
                .component_of(ot.rel, lt.eid)
                .expect("every entity has a component");
            let bounds = Bounds::from_options(&self.effective_options());
            let enc = self.scratch_mut(ix);
            let Some(l) = enc.order_lit(ot.rel, attr, lesser, greater) else {
                return Ok(false);
            };
            if enc.solve_bounded_with_assumptions(&[!l], &bounds)? == SolveResult::Sat {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// **DCIP** at the pinned epoch (see [`EngineSnapshot::dcip`]).
    pub fn dcip(&self, rel: RelId) -> Result<bool, ReasonError> {
        self.snap.dcip_with(rel, &self.effective_options())
    }

    /// **CCQA** at the pinned epoch (see [`EngineSnapshot::ccqa`]).
    pub fn ccqa(&self, query: &Query, tuple: &[Value]) -> Result<bool, ReasonError> {
        Ok(self.certain_answers(query)?.contains(tuple))
    }

    /// Certain answers at the pinned epoch (see
    /// [`EngineSnapshot::certain_answers`]).
    pub fn certain_answers(&self, query: &Query) -> Result<CertainAnswers, ReasonError> {
        self.snap
            .certain_answers_with(query, &self.effective_options())
    }

    /// Realizable current instances at the pinned epoch (see
    /// [`EngineSnapshot::current_instances`]).
    pub fn current_instances(&self, rel: RelId) -> Result<Vec<NormalInstance>, ReasonError> {
        self.snap
            .current_instances_with(rel, &self.effective_options())
    }

    /// This reader's private encoding for `slot`, cloned (or refreshed
    /// in place, reusing its buffers) from the pinned snapshot on
    /// demand.
    fn scratch_mut(&mut self, slot: usize) -> &mut Encoding {
        if self.scratch.len() >= READER_SCRATCH_SLOTS && !self.scratch.contains_key(&slot) {
            self.scratch.clear();
        }
        let epoch = self.snap.epoch;
        match self.scratch.entry(slot) {
            Entry::Occupied(entry) => {
                let s = entry.into_mut();
                if s.epoch != epoch {
                    s.enc.clone_from(&self.snap.slots[slot].enc);
                    s.epoch = epoch;
                    self.scratch_refreshes += 1;
                }
                &mut s.enc
            }
            Entry::Vacant(entry) => {
                self.scratch_clones += 1;
                let enc = (*self.snap.slots[slot].enc).clone();
                &mut entry.insert(ScratchSlot { epoch, enc }).enc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CurrencyEngine;
    use currency_core::{
        AttrId, Catalog, CmpOp, DenialConstraint, Eid, RelationSchema, Term, Tuple,
    };
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

    fn value_query(r: RelId) -> Query {
        let mut b = QueryBuilder::new();
        let x = b.var();
        b.build(vec![x], Formula::Atom(Atom::new(r, vec![QTerm::Var(x)])))
    }

    /// Reader answers must equal a live engine's over the same spec.
    fn assert_matches_engine(reader: &mut SnapshotReader, r: RelId) {
        let spec = reader.snapshot().spec().clone();
        let engine = CurrencyEngine::new(&spec, &Options::default()).unwrap();
        assert_eq!(reader.cps(), engine.cps().unwrap());
        let n = spec.instance(r).len() as u32;
        for u in 0..n {
            for v in 0..n {
                let q = CurrencyOrderQuery::single(r, A, TupleId(u), TupleId(v));
                assert_eq!(reader.cop(&q).unwrap(), engine.cop(&q).unwrap(), "{u}≺{v}");
            }
        }
        assert_eq!(reader.dcip(r).unwrap(), engine.dcip(r).unwrap());
        let q = value_query(r);
        assert_eq!(
            reader.certain_answers(&q).unwrap(),
            engine.certain_answers(&q).unwrap()
        );
        assert_eq!(
            reader.current_instances(r).unwrap().len(),
            engine.current_instances(r).unwrap().len()
        );
    }

    #[test]
    fn snapshot_matches_live_engine() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let engine = SnapshotEngine::new(spec, &Options::default()).unwrap();
        let mut reader = engine.reader();
        assert_eq!(reader.epoch(), 1);
        assert_matches_engine(&mut reader, r);
        let stats = engine.stats();
        assert_eq!(stats.components, 3);
        assert!(stats.vars > 0);
    }

    #[test]
    fn apply_publishes_and_pinned_readers_keep_their_epoch() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut engine = SnapshotEngine::new(spec, &Options::default()).unwrap();
        let cell = engine.cell();
        let mut pinned = SnapshotReader::new(cell.load());
        let epoch_before = pinned.epoch();
        let spec_before = pinned.snapshot().spec_arc();
        // Warm the pinned reader's scratch so the delta cannot reach it.
        let q01 = CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1));
        assert!(pinned.cop(&q01).unwrap());
        // The delta contradicts entity 0's order: post-delta CPS is false.
        let mut delta = SpecDelta::new();
        delta.add_order_edge(r, A, TupleId(1), TupleId(0));
        let report = engine.apply(&delta).unwrap();
        assert_eq!(report.epoch, epoch_before + 1);
        assert_eq!(report.components_rebuilt, 1);
        assert_eq!(report.components_reused, 2);
        // The pinned reader still answers at its epoch...
        assert_eq!(pinned.epoch(), epoch_before);
        assert!(pinned.cps(), "old epoch stays consistent");
        assert!(pinned.cop(&q01).unwrap());
        let engine_before = CurrencyEngine::new(&spec_before, &Options::default()).unwrap();
        assert_eq!(pinned.cps(), engine_before.cps().unwrap());
        // ...while a re-pinned reader sees the new epoch.
        pinned.pin(cell.load());
        assert_eq!(pinned.epoch(), epoch_before + 1);
        assert!(!pinned.cps(), "conflicting edge refutes entity 0");
        assert!(pinned.cop(&q01).unwrap(), "vacuously certain");
        assert_eq!(pinned.scratch_refreshes(), 0, "cps/vacuous cop never solve");
        // A pair in a reused component must refresh the scratch lazily.
        let q23 = CurrencyOrderQuery::single(r, A, TupleId(2), TupleId(3));
        let mut fresh = SnapshotReader::new(cell.load());
        assert!(fresh.cop(&q23).unwrap());
    }

    /// The bench's large-scale shape: `entities` target entities of ten
    /// increasing readings, each mirrored by a copied source reading, and
    /// a monotone constraint on the target.  One component per entity.
    fn large_spec(entities: u64) -> (Specification, RelId) {
        let mut cat = Catalog::new();
        let t = cat.add(RelationSchema::new("T", &["V"]));
        let s = cat.add(RelationSchema::new("S", &["V"]));
        let mut spec = Specification::new(cat);
        let sig = currency_core::CopySignature::new(t, vec![A], s, vec![A]).unwrap();
        let mut cf = currency_core::CopyFunction::new(sig);
        for e in 0..entities {
            for v in 0..10 {
                let reading = || Tuple::new(Eid(e), vec![Value::int(v)]);
                let tt = spec.instance_mut(t).push_tuple(reading()).unwrap();
                let ts = spec.instance_mut(s).push_tuple(reading()).unwrap();
                cf.set_mapping(tt, ts);
            }
        }
        spec.add_constraint(monotone(t)).unwrap();
        spec.add_copy(cf).unwrap();
        (spec, t)
    }

    /// Addresses of every copy-on-write page a snapshot holds.
    fn pages(snap: &EngineSnapshot) -> std::collections::HashSet<*const ()> {
        use currency_core::cow::Paged;
        let mut out = std::collections::HashSet::new();
        let mut visit = |page| {
            out.insert(page);
        };
        snap.spec.for_each_page(&mut visit);
        snap.partition.for_each_page(&mut visit);
        snap.slots.for_each_page(&mut visit);
        out
    }

    #[test]
    fn consecutive_snapshots_share_clean_slots() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut engine = SnapshotEngine::new(spec, &Options::default()).unwrap();
        let before = engine.snapshot();
        let mut delta = SpecDelta::new();
        delta.insert_tuple(r, Tuple::new(Eid(1), vec![Value::int(99)]));
        engine.apply(&delta).unwrap();
        let after = engine.snapshot();
        assert_eq!(before.slots.len(), after.slots.len());
        let shared = before
            .slots
            .iter()
            .zip(after.slots.iter())
            .filter(|(b, a)| Arc::ptr_eq(&b.enc, &a.enc))
            .count();
        assert_eq!(shared, 2, "only the dirty component was recompiled");

        // Page level, at two spec sizes: a single-entity insert copies
        // the same pages at 1k and 4k entities, and every page it did not
        // copy is shared with the previous snapshot.
        let mut copied = Vec::new();
        for entities in [1_000, 4_000] {
            let (spec, t) = large_spec(entities);
            let mut engine =
                SnapshotEngine::with_value_rels(spec, &[], &Options::default()).unwrap();
            let before = engine.snapshot();
            let mut delta = SpecDelta::new();
            delta.insert_tuple(t, Tuple::new(Eid(0), vec![Value::int(1_000_000)]));
            let report = engine.apply(&delta).unwrap();
            let after = engine.snapshot();
            let unshared = pages(&after).difference(&pages(&before)).count();
            assert_eq!(
                unshared as u64, report.pages_copied,
                "{entities} entities: a page the delta did not copy stayed shared"
            );
            assert!(engine.snapshot().cps());
            copied.push(report.pages_copied);
        }
        assert!(copied[0] > 0, "the dirty region lives on copied pages");
        assert_eq!(
            copied[0], copied[1],
            "pages copied is O(dirty), not O(spec)"
        );
    }

    #[test]
    fn reader_scratch_refreshes_in_place_after_epoch_change() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut engine = SnapshotEngine::new(spec, &Options::default()).unwrap();
        let cell = engine.cell();
        let mut reader = SnapshotReader::new(cell.load());
        let q = CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1));
        assert!(reader.cop(&q).unwrap());
        assert_eq!(reader.scratch_clones(), 1);
        // Rebuild entity 0's component with a new most-current tuple.
        let mut delta = SpecDelta::new();
        delta.insert_tuple(r, Tuple::new(Eid(0), vec![Value::int(30)]));
        let report = engine.apply(&delta).unwrap();
        let new_id = report.inserted[0].1;
        reader.pin(cell.load());
        assert!(reader
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(1), new_id))
            .unwrap());
        assert_eq!(reader.scratch_clones(), 1, "no fresh allocation");
        assert_eq!(reader.scratch_refreshes(), 1, "refreshed in place");
        assert_matches_engine(&mut reader, r);
    }

    #[test]
    fn reader_scratch_stays_bounded() {
        let entities = READER_SCRATCH_SLOTS as u32 + 44;
        let (spec, t) = large_spec(u64::from(entities));
        let engine = SnapshotEngine::with_value_rels(spec, &[], &Options::default()).unwrap();
        let mut reader = SnapshotReader::new(engine.snapshot());
        // `large_spec` stores entity e's ten readings at ids 10e..10e+9.
        for e in 0..entities {
            let q = CurrencyOrderQuery::single(t, A, TupleId(10 * e), TupleId(10 * e + 9));
            assert!(reader.cop(&q).unwrap(), "entity {e}");
            assert!(reader.scratch.len() <= READER_SCRATCH_SLOTS);
        }
        // Emptied once, when the 257th slot arrived.
        assert_eq!(reader.scratch.len(), 44);
        assert_eq!(reader.scratch_clones(), u64::from(entities));
    }

    #[test]
    fn churn_and_compaction_republish_correctly() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut engine = SnapshotEngine::new(spec, &Options::default()).unwrap();
        // A brand-new entity appears and disappears: the vacated slot is
        // patched with the shared vacant encoding.
        for step in 0..3 {
            let mut delta = SpecDelta::new();
            delta.insert_tuple(r, Tuple::new(Eid(100), vec![Value::int(step)]));
            let report = engine.apply(&delta).unwrap();
            let (rel, id) = report.inserted[0];
            let mut retract = SpecDelta::new();
            retract.remove_tuple(rel, id);
            engine.apply(&retract).unwrap();
            assert!(engine.snapshot().cps());
        }
        let report = engine.compact().unwrap();
        assert_eq!(report.reclaimed, 3);
        let mut reader = engine.reader();
        assert_matches_engine(&mut reader, r);
        // No tombstones left: compaction is a no-op and publishes nothing.
        let epoch = engine.epoch();
        assert_eq!(engine.compact().unwrap().reclaimed, 0);
        assert_eq!(engine.epoch(), epoch);
        let stats = engine.stats();
        assert_eq!(stats.compact_steps, 1, "compact() is one step");
        assert_eq!(stats.slots_reclaimed, 3);
        assert_eq!(stats.updates_applied, 6);
    }

    #[test]
    fn compact_moves_live_tuples_like_the_reference_sweep() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut engine = SnapshotEngine::new(spec, &Options::default()).unwrap();
        // Retract entity 0's first tuple: every later tuple must move.
        let mut delta = SpecDelta::new();
        delta.remove_tuple(r, TupleId(0));
        engine.apply(&delta).unwrap();
        let mut reference = engine.spec().clone();
        let reference_report = reference.compact();
        let pinned = engine.reader();
        let epoch = engine.epoch();
        let step = engine.compact().unwrap();
        assert!(step.done);
        assert_eq!(engine.epoch(), epoch + 1, "one published epoch");
        assert_eq!(step.reclaimed, reference_report.reclaimed);
        assert_eq!(
            currency_core::wire::encode_spec(engine.spec()),
            currency_core::wire::encode_spec(&reference)
        );
        for old in 0..pinned.snapshot().spec().instance(r).len() as u32 {
            assert_eq!(
                step.new_id(r, TupleId(old)),
                reference_report.new_id(r, TupleId(old))
            );
        }
        let mut reader = engine.reader();
        assert_matches_engine(&mut reader, r);
    }

    #[test]
    fn rejected_delta_mutates_and_publishes_nothing() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut engine = SnapshotEngine::new(spec, &Options::default()).unwrap();
        let epoch = engine.epoch();
        let mut delta = SpecDelta::new();
        delta
            .insert_tuple(r, Tuple::new(Eid(0), vec![Value::int(5)]))
            .add_order_edge(r, A, TupleId(0), TupleId(2)); // cross-entity
        assert!(engine.apply(&delta).is_err());
        assert_eq!(engine.epoch(), epoch);
        assert_eq!(engine.spec().instance(r).len(), 6, "no partial mutation");
        assert!(engine.snapshot().cps());
    }

    #[test]
    fn poisoned_cell_lock_cannot_wedge_publish_or_load() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut engine = SnapshotEngine::new(spec, &Options::default()).unwrap();
        let cell = engine.cell();
        // A reader dies while holding the cell lock (the worst possible
        // place): the mutex is poisoned...
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cell.current.lock().unwrap();
            panic!("simulated reader crash during load");
        }));
        assert!(result.is_err());
        assert!(cell.current.is_poisoned());
        // ...but the writer still publishes and readers still load: the
        // protected value is an Arc a panic cannot tear.
        let mut delta = SpecDelta::new();
        delta.insert_tuple(r, Tuple::new(Eid(1), vec![Value::int(99)]));
        let report = engine.apply(&delta).unwrap();
        let snap = cell.load();
        assert_eq!(snap.epoch(), report.epoch);
        let mut reader = SnapshotReader::new(snap);
        assert_matches_engine(&mut reader, r);
    }

    #[test]
    fn lean_snapshot_rejects_value_queries_politely() {
        let (spec, r) = multi_entity_spec();
        let engine = SnapshotEngine::with_value_rels(spec, &[], &Options::default()).unwrap();
        let reader = engine.reader();
        assert!(reader.cps());
        assert!(matches!(
            reader.dcip(r),
            Err(ReasonError::UnsupportedQuery { .. })
        ));
    }

    #[test]
    fn reader_budget_override_interrupts_then_clears() {
        use crate::SolveLimits;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let engine = SnapshotEngine::new(spec, &Options::default()).unwrap();
        let mut reader = engine.reader();
        // A zero-work per-request budget interrupts every solve-backed path
        // with the typed error, never a wrong verdict.
        reader.set_solve_limits(Some(SolveLimits {
            max_conflicts: Some(0),
            max_props: Some(0),
        }));
        let q01 = CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1));
        assert!(matches!(
            reader.cop(&q01),
            Err(ReasonError::Interrupted { .. })
        ));
        assert!(matches!(
            reader.dcip(r),
            Err(ReasonError::Interrupted { .. })
        ));
        assert!(matches!(
            reader.certain_answers(&value_query(r)),
            Err(ReasonError::Interrupted { .. })
        ));
        assert!(matches!(
            reader.current_instances(r),
            Err(ReasonError::Interrupted { .. })
        ));
        // Clearing the override resumes on the same scratch state and the
        // answers match a live engine — the interruption left nothing
        // corrupted behind.
        reader.set_solve_limits(None);
        assert_matches_engine(&mut reader, r);
    }

    #[test]
    fn reader_deadline_override_interrupts_then_clears() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let engine = SnapshotEngine::new(spec, &Options::default()).unwrap();
        let mut reader = engine.reader();
        reader.set_deadline(Some(Instant::now()));
        let q01 = CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1));
        assert!(matches!(
            reader.cop(&q01),
            Err(ReasonError::Interrupted { .. })
        ));
        assert!(matches!(
            reader.certain_answers(&value_query(r)),
            Err(ReasonError::Interrupted { .. })
        ));
        reader.set_deadline(None);
        assert_matches_engine(&mut reader, r);
    }

    #[test]
    fn reader_escalating_budgets_converge_warm() {
        use crate::SolveLimits;
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let engine = SnapshotEngine::new(spec, &Options::default()).unwrap();
        let oracle = {
            let mut reader = engine.reader();
            let q = CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1));
            reader.cop(&q).unwrap()
        };
        // One reader retries the same query with doubling budgets; scratch
        // encodings persist across attempts, so each retry resumes warm.
        let mut reader = engine.reader();
        let q = CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1));
        let mut budget: u64 = 1;
        loop {
            reader.set_solve_limits(Some(SolveLimits {
                max_conflicts: Some(budget),
                max_props: Some(budget * 64),
            }));
            match reader.cop(&q) {
                Ok(v) => {
                    assert_eq!(v, oracle, "first decided verdict must match");
                    break;
                }
                Err(ReasonError::Interrupted { .. }) => {
                    budget *= 2;
                    assert!(budget < 1 << 30, "budget escalation diverged");
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert_eq!(reader.scratch_clones(), 1, "retries reuse one scratch");
    }

    #[test]
    fn cell_counts_poison_recoveries_as_degraded_events() {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut engine = SnapshotEngine::new(spec, &Options::default()).unwrap();
        let cell = engine.cell();
        assert_eq!(cell.degraded_events(), 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cell.current.lock().unwrap();
            panic!("simulated reader crash during load");
        }));
        assert!(result.is_err());
        // The first recovery (load or store) clears the poison and counts
        // one degraded event; later operations are healthy again.
        let _ = cell.load();
        assert_eq!(cell.degraded_events(), 1);
        let mut delta = SpecDelta::new();
        delta.insert_tuple(r, Tuple::new(Eid(1), vec![Value::int(99)]));
        engine.apply(&delta).unwrap();
        let _ = cell.load();
        assert_eq!(cell.degraded_events(), 1, "one crash, one event");
    }
}
