//! Epoch-frozen snapshots for concurrent query serving, and the one
//! query path every front door answers through.
//!
//! The writer ([`CurrencyEngine`]) keeps its specification, partition and
//! per-slot published components in copy-on-write containers
//! ([`currency_core::cow`]).  [`CurrencyEngine::snapshot`] freezes that
//! state into an immutable, shareable view in O(top level), so a
//! read-mostly fleet never blocks on the writer:
//!
//! * [`EngineSnapshot`] — one epoch's frozen view: the specification, the
//!   entity partition, and every component's published slot.  The writer
//!   solves each rebuilt component when it compiles it, and publishes it
//!   *decided* when unit propagation fixed its only model (the variable
//!   map and the model as a bitset, no solver) or else as its solved
//!   encoding (learnt clauses and lazy-transitivity lemmas included).
//!   All of it sits
//!   behind `Arc`s and shared pages, so a snapshot is a handful of
//!   pointer bumps to retain and queries on it take `&self` with **zero
//!   locks**.  The writer's next delta copies only the chunks and pages
//!   its dirty region writes ([`ApplyReport::pages_copied`]); clean slots
//!   stay shared between consecutive snapshots.
//! * [`SnapshotCell`] — the hand-rolled arc-swap a serving front door
//!   publishes through: a `Mutex<Arc<EngineSnapshot>>` whose `load()` is
//!   lock-then-clone-the-`Arc`, held for nanoseconds and recoverable
//!   from poisoning, so a crashed reader can neither wedge the publish
//!   path nor corrupt the published view (snapshots are immutable).
//! * [`SnapshotReader`] — a reader's pinned view plus the bounds of its
//!   queries: a per-request deadline and work budget.  It is the only
//!   place a query is bounded, and every query at an epoch goes through
//!   it.
//!
//! DCIP, certain answers, current instances, model enumeration, decode,
//! the witness and COP are written once, over the borrowed `View` of a
//! specification, partition and slot vector that the writer and its
//! snapshots share, plus the thread count and bounds of the query.
//! Every query only reads the shared slots.  A decided slot answers from
//! its model and is never solved; on any other slot a solve runs on a
//! throwaway clone of the encoding that the query drops when it
//! returns, so N readers and the writer never block each other.
//!
//! The serving front door (answer cache, load shedding, stats) lives on
//! top of this module in the `currency-serve` crate.
//!
//! [`CurrencyEngine`]: crate::engine::CurrencyEngine
//! [`CurrencyEngine::snapshot`]: crate::engine::CurrencyEngine::snapshot
//! [`ApplyReport::pages_copied`]: crate::engine::ApplyReport::pages_copied

use crate::ccqa::CertainAnswers;
use crate::cop::CurrencyOrderQuery;
use crate::encode::{completion_from_chains, Bounds, Decided, Encoding, VarMap};
use crate::engine::run_indexed;
use crate::error::ReasonError;
use crate::partition::Partition;
use crate::{SolveLimits, MAX_MODELS};
use currency_core::cow::PagedVec;
use currency_core::{Completion, NormalInstance, RelId, Specification, Tuple, Value};
use currency_obs::{Counter, Gauge, MetricsRegistry};
use currency_query::{Database, Query};
use currency_sat::{Enumeration, SolveResult};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One component slot of the writer and of every snapshot, published
/// once the writer has compiled the component and solved it without
/// bounds ([`SlotView::publish`]).
#[derive(Clone)]
pub(crate) enum SlotView {
    /// A satisfiable component whose only model unit propagation found:
    /// its variable map and that model, no solver.  Queries read the
    /// model and never solve.
    Decided(Arc<Decided>),
    /// Every other component (unsatisfiable, with a premise-free falsum,
    /// or open at level zero): the solved encoding, its learnt clauses
    /// and lemmas baked in, and its verdict.  Queries solve on throwaway
    /// clones.
    Solver { enc: Arc<Encoding>, sat: bool },
}

impl SlotView {
    /// The slot a freshly compiled encoding is published as once its
    /// compile-time solve returned `sat`: decided when it is
    /// ([`Encoding::is_decided`]), else a clone of the encoding.  The
    /// clone is exactly sized, with the build's doubling buffers freed
    /// together: slot encodings are only read and cloned from then on
    /// and live among encodings built at other times, so packing them
    /// keeps the heap from fragmenting on a long delta stream.
    pub(crate) fn publish(enc: Encoding, sat: bool) -> SlotView {
        if enc.is_decided(sat) {
            SlotView::Decided(Arc::new(enc.into_decided()))
        } else {
            SlotView::Solver {
                enc: Arc::new(enc.clone()),
                sat,
            }
        }
    }

    /// What the component's variables stand for.
    pub(crate) fn map(&self) -> &VarMap {
        match self {
            SlotView::Decided(decided) => decided.map(),
            SlotView::Solver { enc, .. } => enc.map(),
        }
    }

    /// Satisfiability of the component.
    pub(crate) fn sat(&self) -> bool {
        match self {
            SlotView::Decided(_) => true,
            SlotView::Solver { sat, .. } => *sat,
        }
    }

    /// [`Encoding::has_ground_falsum`]; a decided component grounded
    /// none.
    pub(crate) fn has_ground_falsum(&self) -> bool {
        match self {
            SlotView::Decided(_) => false,
            SlotView::Solver { enc, .. } => enc.has_ground_falsum(),
        }
    }

    /// The slot's [`EncodingShape`](crate::encode::EncodingShape).
    #[cfg(any(test, feature = "oracle"))]
    pub(crate) fn shape(&self) -> crate::encode::EncodingShape {
        match self {
            SlotView::Decided(decided) => decided.shape(),
            SlotView::Solver { enc, .. } => enc.shape(),
        }
    }
}

/// One component's contribution to a product enumeration: the component
/// index, the restricted-projection indices, and the projected models.
struct ComponentModels {
    comp: usize,
    indices: Vec<usize>,
    models: Vec<Vec<bool>>,
}

/// How often (in combinations) the odometer consults the wall clock.
/// The first combination always checks, so an already-expired deadline
/// interrupts before any row is decoded.
const COMBINATION_CHECK: u64 = 1024;

/// The borrowed state every query runs over: the writer's and a
/// snapshot's specification, partition and slots, plus the thread count,
/// model budget and bounds of the query.  Each query path is written
/// here once.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    pub(crate) spec: &'a Specification,
    pub(crate) value_rels: &'a [RelId],
    pub(crate) partition: &'a Partition,
    pub(crate) slots: &'a PagedVec<SlotView>,
    /// Worker threads, already resolved (never 0).
    pub(crate) threads: usize,
    /// [`MAX_MODELS`] on every production path; a unit test lowers it to
    /// reach the per-component refusal.
    pub(crate) max_models: usize,
    pub(crate) bounds: Bounds,
}

impl View<'_> {
    /// **COP** — per pair, the literal's value in a decided component's
    /// model or at level zero of a shared slot encoding, else one
    /// assumption solve on a throwaway clone of the pair's component,
    /// counted into `copies`.  Vacuously true when the specification is
    /// inconsistent (paper convention).
    pub(crate) fn cop(
        &self,
        ot: &CurrencyOrderQuery,
        consistent: bool,
        copies: &mut u64,
    ) -> Result<bool, ReasonError> {
        if !consistent {
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
            let slot = &self.slots[ix];
            let Some(l) = slot.map().order_lit(ot.rel, attr, lesser, greater) else {
                return Ok(false);
            };
            // An expired deadline interrupts here, as a solve would, so
            // what a deadline allows never depends on what level zero
            // happens to decide.
            if self.bounds.expired() {
                return Err(ReasonError::Interrupted {
                    spent: crate::Spent::default(),
                });
            }
            let shared = match slot {
                // The component's only model: what holds in it is
                // certain, what does not is refuted.
                SlotView::Decided(decided) if decided.holds(l) => continue,
                SlotView::Decided(_) => return Ok(false),
                SlotView::Solver { enc, .. } => enc,
            };
            // Every solve returns at level zero, so the shared encoding
            // holds the literals its component entails outright: true is
            // certain, false is not (the component has a model).  Only an
            // open literal is solved, on a clone.
            match shared.level0_value(l) {
                Some(true) => continue,
                Some(false) => return Ok(false),
                None => {}
            }
            *copies += 1;
            if (**shared).clone().solve(&[!l], &self.bounds)? == SolveResult::Sat {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// **DCIP** — do all completions agree on the current instance of
    /// `rel`?  Enumerates at most two rel-projected models per touched
    /// component ([`View::component_models`]) and stops at the first
    /// component with two.
    pub(crate) fn dcip(&self, rel: RelId, consistent: bool) -> Result<bool, ReasonError> {
        self.require_value_rel(rel)?;
        if !consistent {
            return Ok(true); // vacuously deterministic
        }
        for ix in self.partition.components_touching(rel) {
            let what = "current-instance enumeration (DCIP)";
            if self.component_models(ix, &[rel], 2, what)?.models.len() >= 2 {
                return Ok(false); // one nondeterministic component decides
            }
        }
        Ok(true)
    }

    /// The certain current answers of `query`: the intersection of the
    /// query's answers over every realizable combination of current
    /// instances.
    ///
    /// Realizable instances are enumerated **per component** and composed
    /// as a product, so the per-component All-SAT never pays for order
    /// choices in unrelated components.  Both the per-component model
    /// count and the composed product are bounded by [`MAX_MODELS`].
    pub(crate) fn certain_answers(
        &self,
        query: &Query,
        consistent: bool,
    ) -> Result<CertainAnswers, ReasonError> {
        let rels: Vec<RelId> = query.body().relations().into_iter().collect();
        for &rel in &rels {
            self.require_value_rel(rel)?;
        }
        if !consistent {
            return Ok(CertainAnswers::Inconsistent);
        }
        let mut touched: Vec<usize> = rels
            .iter()
            .flat_map(|&rel| self.partition.components_touching(rel))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let per_comp = self.enumerate_component_models(
            &rels,
            &touched,
            "current-instance enumeration (CCQA)",
        )?;
        let mut certain: Option<BTreeSet<Vec<Value>>> = None;
        self.for_each_combination(&rels, &per_comp, |rows| {
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

    /// The realizable current instances of `rel` (up to the model
    /// budget), composed across components.
    pub(crate) fn current_instances(
        &self,
        rel: RelId,
        consistent: bool,
    ) -> Result<Vec<NormalInstance>, ReasonError> {
        self.require_value_rel(rel)?;
        if !consistent {
            return Ok(Vec::new());
        }
        let rels = [rel];
        let touched = self.partition.components_touching(rel);
        let per_comp =
            self.enumerate_component_models(&rels, &touched, "current-instance enumeration")?;
        let mut out: Vec<NormalInstance> = Vec::new();
        self.for_each_combination(&rels, &per_comp, |rows| {
            let mut inst = NormalInstance::new(rel);
            for (_, t) in rows {
                inst.push(t);
            }
            out.push(inst);
            true
        })?;
        Ok(out)
    }

    /// A witness completion from `Mod(S)`, assembled from per-component
    /// models: a decided component's own, every other one solved on a
    /// throwaway clone; `Ok(None)` means the specification is
    /// inconsistent.
    pub(crate) fn witness_completion(
        &self,
        consistent: bool,
    ) -> Result<Option<Completion>, ReasonError> {
        if !consistent {
            return Ok(None);
        }
        let per_slot = run_indexed(self.threads, self.slots.len(), |ix| {
            let shared = match &self.slots[ix] {
                SlotView::Decided(decided) => return Ok(decided.model_chains(self.spec)),
                SlotView::Solver { enc, .. } => enc,
            };
            // Re-solve without assumptions so the model is a plain
            // completion model; this also re-runs the closure refinement
            // so the model is transitive.
            let mut enc = (**shared).clone();
            let sat = enc.solve(&[], &self.bounds)?;
            debug_assert_eq!(sat, SolveResult::Sat, "component known satisfiable");
            Ok(enc.model_chains(self.spec))
        })?;
        let completion = completion_from_chains(self.spec, per_slot.into_iter().flatten())?;
        debug_assert!(completion.is_consistent_for(self.spec));
        Ok(Some(completion))
    }

    /// Enumerate each listed component's projected models over `rels`
    /// ([`View::component_models`], parallel over the view's threads).
    /// Both the per-component model count and the composed product are
    /// bounded by [`MAX_MODELS`]; `what` labels the budget error.
    fn enumerate_component_models(
        &self,
        rels: &[RelId],
        comps: &[usize],
        what: &'static str,
    ) -> Result<Vec<ComponentModels>, ReasonError> {
        let per_comp = run_indexed(self.threads, comps.len(), |k| {
            self.component_models(comps[k], rels, usize::MAX, what)
        })?;
        // Guard the composed cross-component product against the budget.
        let mut product: usize = 1;
        for cm in &per_comp {
            product = product.saturating_mul(cm.models.len().max(1));
            if product > self.max_models {
                return Err(ReasonError::BudgetExceeded {
                    what,
                    budget: self.max_models,
                    spent: product,
                });
            }
        }
        Ok(per_comp)
    }

    /// The models of component `ix` projected onto the value indicators
    /// of `rels`, at most `stop_after` of them: projected All-SAT under
    /// the view's bounds on a throwaway clone of the slot encoding.  A
    /// component with no such indicator has one model, its fixed rows,
    /// and so has a decided component: its model's projection.  An
    /// enumeration past [`MAX_MODELS`] is refused with
    /// [`ReasonError::BudgetExceeded`] labelled `what`.
    fn component_models(
        &self,
        ix: usize,
        rels: &[RelId],
        stop_after: usize,
        what: &'static str,
    ) -> Result<ComponentModels, ReasonError> {
        let slot = &self.slots[ix];
        let (indices, vars) = slot.map().restricted_projection(rels);
        let mut models: Vec<Vec<bool>> = Vec::new();
        match slot {
            _ if vars.is_empty() => models.push(Vec::new()),
            SlotView::Decided(decided) => {
                // An expired deadline interrupts here, as the enumeration
                // would (see `View::cop`).
                if self.bounds.expired() {
                    return Err(ReasonError::Interrupted {
                        spent: crate::Spent::default(),
                    });
                }
                models.push(vars.iter().map(|&v| decided.value(v)).collect());
            }
            SlotView::Solver { enc, .. } => {
                let mut enc = (**enc).clone();
                let enumeration =
                    enc.for_each_model(&vars, self.max_models, &self.bounds, |m| {
                        models.push(m.to_vec());
                        models.len() < stop_after
                    })?;
                if let Enumeration::LimitReached(n) = enumeration {
                    return Err(ReasonError::BudgetExceeded {
                        what,
                        budget: self.max_models,
                        spent: n,
                    });
                }
            }
        }
        Ok(ComponentModels {
            comp: ix,
            indices,
            models,
        })
    }

    /// Run `f` on the decoded rows of every combination of per-component
    /// model choices (odometer over the product); `f` returning `false`
    /// stops the iteration.  With no components, `f` runs once with no
    /// rows (the empty product has one element).
    ///
    /// The odometer itself can run for `max_models` combinations even
    /// though every individual solve finished, so it re-checks the
    /// deadline every [`COMBINATION_CHECK`] combinations and surfaces
    /// [`ReasonError::Interrupted`] on expiry.
    fn for_each_combination(
        &self,
        rels: &[RelId],
        per_comp: &[ComponentModels],
        mut f: impl FnMut(Vec<(RelId, Tuple)>) -> bool,
    ) -> Result<(), ReasonError> {
        let mut pick = vec![0usize; per_comp.len()];
        let mut combos: u64 = 0;
        loop {
            if let Some(d) = self.bounds.deadline {
                if combos.is_multiple_of(COMBINATION_CHECK) && Instant::now() >= d {
                    return Err(ReasonError::Interrupted {
                        spent: crate::Spent::default(),
                    });
                }
                combos += 1;
            }
            let mut rows: Vec<(RelId, Tuple)> = Vec::new();
            for (k, cm) in per_comp.iter().enumerate() {
                rows.extend(self.slots[cm.comp].map().decode_restricted(
                    self.spec,
                    rels,
                    &cm.indices,
                    &cm.models[pick[k]],
                ));
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

/// An immutable, shareable view of a compiled specification at one epoch
/// ([`CurrencyEngine::snapshot`](crate::engine::CurrencyEngine::snapshot)).
///
/// Everything a query needs — spec, partition, the published slots
/// (decided components' models, every other component's solved
/// encoding) — is frozen behind `Arc`s.  CPS is a
/// field read; every other query is asked through a [`SnapshotReader`],
/// which bounds it with its per-request deadline and budget and solves
/// only on throwaway clones, with no locking.
///
/// Live snapshots are counted by the writer's
/// `currency_snapshot_epochs_live` gauge: up when one is built, down
/// when it is dropped.
pub struct EngineSnapshot {
    epoch: u64,
    spec: Arc<Specification>,
    value_rels: Arc<Vec<RelId>>,
    partition: Arc<Partition>,
    slots: PagedVec<SlotView>,
    consistent: bool,
    /// The writer's resolved worker threads.
    threads: usize,
    live: Arc<Gauge>,
}

impl Drop for EngineSnapshot {
    fn drop(&mut self) {
        self.live.sub(1);
    }
}

impl EngineSnapshot {
    /// Freeze a writer's state under `epoch`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        epoch: u64,
        spec: Arc<Specification>,
        value_rels: Arc<Vec<RelId>>,
        partition: Arc<Partition>,
        slots: PagedVec<SlotView>,
        consistent: bool,
        threads: usize,
        live: Arc<Gauge>,
    ) -> EngineSnapshot {
        live.add(1);
        EngineSnapshot {
            epoch,
            spec,
            value_rels,
            partition,
            slots,
            consistent,
            threads,
            live,
        }
    }

    /// The epoch this snapshot was taken at.  The writer bumps its epoch
    /// once per write, so equal epochs mean identical state and the
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

    /// **CPS** — is the specification consistent?  Every slot is decided
    /// when the writer compiles it, so this is a field read.
    pub fn cps(&self) -> bool {
        self.consistent
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
    /// as `currency_degraded_events_total{source="snapshot_cell"}` on
    /// `registry`, which `currency-serve` also surfaces as
    /// `ServeStats::degraded_events`.
    degraded: Arc<Counter>,
}

impl SnapshotCell {
    /// A cell holding `snap`, counting its poison recoveries on
    /// `registry` (the writer's).
    pub fn new(snap: Arc<EngineSnapshot>, registry: &MetricsRegistry) -> SnapshotCell {
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

    /// Publish `next`: every later [`SnapshotCell::load`] returns it.
    pub fn store(&self, next: Arc<EngineSnapshot>) {
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

/// A reader: a pinned snapshot plus the bounds of its queries.
///
/// Every query reads the pinned snapshot's shared slot encodings and
/// solves on a throwaway clone, so no shared state is ever locked or
/// written.  [`SnapshotReader::pin`] moves the reader to a newer
/// snapshot.  The reader is the only place a query is bounded: a new
/// reader's queries run unbounded until [`SnapshotReader::set_deadline`]
/// or [`SnapshotReader::set_solve_limits`] bounds them.
pub struct SnapshotReader {
    snap: Arc<EngineSnapshot>,
    /// The deadline and per-solve budget of every following query.
    bounds: Bounds,
    /// Encoding clones this reader's COPs took (see
    /// [`SnapshotReader::scratch_clones`]).
    copies: u64,
}

impl SnapshotReader {
    /// A reader pinned to `snap`.
    pub fn new(snap: Arc<EngineSnapshot>) -> SnapshotReader {
        SnapshotReader {
            snap,
            bounds: Bounds::default(),
            copies: 0,
        }
    }

    /// Set the wall-clock deadline of every following query on this
    /// reader; `None` means no deadline.  A query that cannot finish in
    /// time returns [`ReasonError::Interrupted`] — never a wrong verdict —
    /// and leaves the reader usable; serving layers set this per request.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.bounds.deadline = deadline;
    }

    /// Set the per-solve work budget of every following query on this
    /// reader; [`SolveLimits::default`] means unbounded.  Exhaustion
    /// surfaces as [`ReasonError::Interrupted`], like an expired deadline.
    pub fn set_solve_limits(&mut self, limits: SolveLimits) {
        self.bounds.limits = limits;
    }

    /// The pinned snapshot's view under this reader's bounds.
    fn view(&self) -> View<'_> {
        let snap = &*self.snap;
        View {
            spec: &snap.spec,
            value_rels: &snap.value_rels,
            partition: &snap.partition,
            slots: &snap.slots,
            threads: snap.threads,
            max_models: MAX_MODELS,
            bounds: self.bounds,
        }
    }

    /// Re-pin to `snap` (typically a fresh [`SnapshotCell::load`]).
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

    /// Slot encodings this reader's COPs cloned to solve an open
    /// literal, over the reader's lifetime.  Kept for the repository
    /// benchmark's per-layer report until its next definition change
    /// (ROADMAP item 1).
    pub fn scratch_clones(&self) -> u64 {
        self.copies
    }

    /// Always 0: no clone outlives its query, so none is ever refreshed.
    /// Kept for the repository benchmark's per-layer report until its
    /// next definition change (ROADMAP item 1).
    pub fn scratch_refreshes(&self) -> u64 {
        0
    }

    /// **CPS** at the pinned epoch (precomputed; a field read).
    pub fn cps(&self) -> bool {
        self.snap.cps()
    }

    /// **COP** at the pinned epoch: per pair, the level-zero value of
    /// its literal, else one assumption solve on a throwaway clone of the
    /// pair's component.
    pub fn cop(&mut self, ot: &CurrencyOrderQuery) -> Result<bool, ReasonError> {
        let mut copies = 0;
        let result = self.view().cop(ot, self.snap.consistent, &mut copies);
        self.copies += copies;
        result
    }

    /// **DCIP** at the pinned epoch: do all completions agree on the
    /// current instance of `rel`?  Enumerates at most two rel-projected
    /// models per touched component on throwaway clones of the shared
    /// encodings.
    pub fn dcip(&self, rel: RelId) -> Result<bool, ReasonError> {
        self.view().dcip(rel, self.snap.consistent)
    }

    /// **CCQA** at the pinned epoch: is `tuple` a certain current answer
    /// of `query`?
    pub fn ccqa(&self, query: &Query, tuple: &[Value]) -> Result<bool, ReasonError> {
        Ok(self.certain_answers(query)?.contains(tuple))
    }

    /// The certain current answers of `query` at the pinned epoch,
    /// composed per component against the snapshot's immutable
    /// encodings, with All-SAT blocking clauses confined to throwaway
    /// clones.
    pub fn certain_answers(&self, query: &Query) -> Result<CertainAnswers, ReasonError> {
        self.view().certain_answers(query, self.snap.consistent)
    }

    /// The realizable current instances of `rel` at the pinned epoch (up
    /// to the model budget), composed across components.
    pub fn current_instances(&self, rel: RelId) -> Result<Vec<NormalInstance>, ReasonError> {
        self.view().current_instances(rel, self.snap.consistent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{CompileScratch, ComponentCompiler};
    use crate::engine::CurrencyEngine;
    use crate::{CompactBudget, Options};
    use currency_core::{
        AttrId, Catalog, CmpOp, DenialConstraint, Eid, RelationSchema, SpecDelta, Term, TupleId,
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

    /// `entities` entities of two readings each (ids `2e` and `2e + 1`)
    /// and no constraint, compiled: every pair is open at level zero, so
    /// COP solves on a clone (and answers `false`).
    fn unconstrained_engine(entities: u64) -> (CurrencyEngine, RelId) {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        for e in 0..entities {
            for v in [10, 20] {
                let reading = Tuple::new(Eid(e), vec![Value::int(v)]);
                spec.instance_mut(r).push_tuple(reading).unwrap();
            }
        }
        (
            CurrencyEngine::new_owned(spec, &Options::default()).unwrap(),
            r,
        )
    }

    /// The three-entity spec under the monotone constraint, compiled.
    fn monotone_engine() -> (CurrencyEngine, RelId) {
        let (mut spec, r) = multi_entity_spec();
        spec.add_constraint(monotone(r)).unwrap();
        (
            CurrencyEngine::new_owned(spec, &Options::default()).unwrap(),
            r,
        )
    }

    fn value_query(r: RelId) -> Query {
        let mut b = QueryBuilder::new();
        let x = b.var();
        b.build(vec![x], Formula::Atom(Atom::new(r, vec![QTerm::Var(x)])))
    }

    /// Reader answers must equal a fresh engine's over the same spec.
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
        let (mut engine, r) = monotone_engine();
        let mut reader = SnapshotReader::new(engine.snapshot());
        assert_eq!(reader.epoch(), 1);
        assert_matches_engine(&mut reader, r);
        let stats = engine.stats();
        assert_eq!(stats.components, 3);
        assert!(stats.vars > 0);
    }

    #[test]
    fn apply_publishes_and_pinned_readers_keep_their_epoch() {
        let (mut engine, r) = monotone_engine();
        let mut pinned = SnapshotReader::new(engine.snapshot());
        let epoch_before = pinned.epoch();
        let spec_before = pinned.snapshot().spec_arc();
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
        pinned.pin(engine.snapshot());
        assert_eq!(pinned.epoch(), epoch_before + 1);
        assert!(!pinned.cps(), "conflicting edge refutes entity 0");
        assert!(pinned.cop(&q01).unwrap(), "vacuously certain");
        assert_matches_engine(&mut pinned, r);
        let q23 = CurrencyOrderQuery::single(r, A, TupleId(2), TupleId(3));
        let mut fresh = SnapshotReader::new(engine.snapshot());
        assert!(fresh.cop(&q23).unwrap());

        // Open literals: a re-pinned reader answers like a fresh engine
        // after a delta rebuilt the queried slot and after a delta to
        // another slot.
        let (mut engine, r) = unconstrained_engine(3);
        let mut reader = SnapshotReader::new(engine.snapshot());
        let q = CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1));
        assert!(!reader.cop(&q).unwrap());
        for e in [0, 2] {
            let mut delta = SpecDelta::new();
            delta.insert_tuple(r, Tuple::new(Eid(e), vec![Value::int(30)]));
            engine.apply(&delta).unwrap();
            reader.pin(engine.snapshot());
            assert_eq!(reader.cop(&q).unwrap(), engine.cop(&q).unwrap());
            assert_matches_engine(&mut reader, r);
        }
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

    /// Whether two slots share one published component.
    fn same_slot(a: &SlotView, b: &SlotView) -> bool {
        match (a, b) {
            (SlotView::Decided(a), SlotView::Decided(b)) => Arc::ptr_eq(a, b),
            (SlotView::Solver { enc: a, .. }, SlotView::Solver { enc: b, .. }) => Arc::ptr_eq(a, b),
            _ => false,
        }
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
        let (mut engine, r) = monotone_engine();
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
            .filter(|(b, a)| same_slot(b, a))
            .count();
        assert_eq!(shared, 2, "only the dirty component was recompiled");

        // Page level, at two spec sizes: a single-entity insert copies
        // the same pages at 1k and 4k entities, and every page it did not
        // copy is shared with the previous snapshot.
        let mut copied = Vec::new();
        for entities in [1_000, 4_000] {
            let (spec, t) = large_spec(entities);
            let mut engine =
                CurrencyEngine::with_value_rels_owned(spec, &[], &Options::default()).unwrap();
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
            assert!(after.cps());
            copied.push(report.pages_copied);
            // With no snapshot alive, the next delta mutates in place.
            drop((before, after));
            let mut delta = SpecDelta::new();
            delta.insert_tuple(t, Tuple::new(Eid(1), vec![Value::int(1_000_000)]));
            assert_eq!(engine.apply(&delta).unwrap().pages_copied, 0);
        }
        assert!(copied[0] > 0, "the dirty region lives on copied pages");
        assert_eq!(
            copied[0], copied[1],
            "pages copied is O(dirty), not O(spec)"
        );
    }

    #[test]
    fn level_zero_cops_need_no_scratch() {
        let entities = 8u32;
        let (spec, t) = large_spec(u64::from(entities));
        let mut engine =
            CurrencyEngine::with_value_rels_owned(spec, &[], &Options::default()).unwrap();
        let snap = engine.snapshot();
        let mut reader = SnapshotReader::new(snap.clone());
        let compiler = ComponentCompiler::new(&snap.spec, &[]);
        let mut scratch = CompileScratch::default();
        // `large_spec` stores entity e's ten readings at ids 10e..10e+9.
        for e in 0..entities {
            let ix = snap.partition.component_of(t, Eid(e.into())).unwrap();
            assert!(
                matches!(snap.slots[ix], SlotView::Decided(_)),
                "grounding decides entity {e}"
            );
            // The solve path on the component's solver form: an
            // assumption solve on a clone of the solved compile.
            let mut enc = compiler.compile(snap.partition.component(ix), &mut scratch);
            enc.solve(&[], &Bounds::default()).unwrap();
            for (u, v) in
                (10 * e..10 * e + 10).flat_map(|u| (10 * e..10 * e + 10).map(move |v| (u, v)))
            {
                let solved = enc
                    .order_lit(t, A, TupleId(u), TupleId(v))
                    .is_some_and(|l| {
                        enc.clone().solve(&[!l], &Bounds::default()) == Ok(SolveResult::Unsat)
                    });
                let q = CurrencyOrderQuery::single(t, A, TupleId(u), TupleId(v));
                assert_eq!(reader.cop(&q).unwrap(), solved, "{u} ≺ {v}");
            }
        }
        assert_eq!(
            reader.scratch_clones(),
            0,
            "unit propagation decided every pair"
        );
    }

    #[test]
    fn decided_slots_answer_like_their_solver_form() {
        // Three entities of three readings on two attributes, each
        // attribute ordered by a monotone constraint (B against A):
        // grounding decides every pair and every current value.
        const B: AttrId = AttrId(1);
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A", "B"]));
        let mut spec = Specification::new(cat);
        for e in 0..3 {
            for (a, b) in [(10, 9), (20, 7), (30, 5)] {
                let reading = Tuple::new(Eid(e), vec![Value::int(a + e as i64), Value::int(b)]);
                spec.instance_mut(r).push_tuple(reading).unwrap();
            }
        }
        spec.add_constraint(monotone(r)).unwrap();
        let on_b = DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, B), CmpOp::Gt, Term::attr(1, B))
            .then_order(1, B, 0)
            .build()
            .unwrap();
        spec.add_constraint(on_b).unwrap();
        let engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        let decided = engine.view();
        // The same components in solver form: each compiled and solved
        // without bounds, and published whole.
        let compiler = ComponentCompiler::new(decided.spec, decided.value_rels);
        let mut scratch = CompileScratch::default();
        let solver_slots: PagedVec<SlotView> = (0..decided.slots.len())
            .map(|ix| {
                assert!(
                    matches!(decided.slots[ix], SlotView::Decided(_)),
                    "slot {ix} is published decided"
                );
                let mut enc = compiler.compile(decided.partition.component(ix), &mut scratch);
                let sat = enc.solve(&[], &Bounds::default()).unwrap() == SolveResult::Sat;
                SlotView::Solver {
                    enc: Arc::new(enc),
                    sat,
                }
            })
            .collect();
        let solver = View {
            slots: &solver_slots,
            ..decided
        };
        let n = decided.spec.instance(r).len() as u32;
        for attr in [A, B] {
            for u in 0..n {
                for v in 0..n {
                    let q = CurrencyOrderQuery::single(r, attr, TupleId(u), TupleId(v));
                    assert_eq!(
                        decided.cop(&q, true, &mut 0).unwrap(),
                        solver.cop(&q, true, &mut 0).unwrap(),
                        "{attr:?}: {u} ≺ {v}"
                    );
                }
            }
        }
        assert_eq!(
            decided.dcip(r, true).unwrap(),
            solver.dcip(r, true).unwrap()
        );
        let mut b = QueryBuilder::new();
        let (x, y) = (b.var(), b.var());
        let rows = b.build(
            vec![x, y],
            Formula::Atom(Atom::new(r, vec![QTerm::Var(x), QTerm::Var(y)])),
        );
        let answers = decided.certain_answers(&rows, true).unwrap();
        assert_eq!(answers.rows().unwrap().len(), 3, "one current row each");
        assert_eq!(answers, solver.certain_answers(&rows, true).unwrap());
        let instances = |view: &View| -> Vec<Vec<Tuple>> {
            let found = view.current_instances(r, true).unwrap();
            found.iter().map(NormalInstance::normalized).collect()
        };
        assert_eq!(instances(&decided), instances(&solver));
        // The witness is made of every slot's chains.
        assert_eq!(
            decided.witness_completion(true).unwrap(),
            solver.witness_completion(true).unwrap()
        );
    }

    #[test]
    fn engine_cops_run_concurrently() {
        let entities = 6u32;
        let (engine, r) = unconstrained_engine(u64::from(entities));
        let queries: Vec<CurrencyOrderQuery> = (0..2 * entities)
            .flat_map(|u| {
                let e = u / 2;
                (2 * e..2 * e + 2)
                    .filter(move |&v| v != u)
                    .map(move |v| CurrencyOrderQuery::single(r, A, TupleId(u), TupleId(v)))
            })
            .collect();
        let want: Vec<bool> = queries.iter().map(|q| engine.cop(q).unwrap()).collect();
        assert!(want.iter().all(|&v| !v), "every pair is open");
        let (engine, queries) = (&engine, &queries);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait(); // every thread's COPs overlap
                        let mut got = Vec::new();
                        for round in 0..8 {
                            for k in 0..queries.len() {
                                let k = (k + t + round) % queries.len();
                                got.push((k, engine.cop(&queries[k]).unwrap()));
                            }
                        }
                        got
                    })
                })
                .collect();
            for worker in workers {
                for (k, verdict) in worker.join().unwrap() {
                    assert_eq!(verdict, want[k], "query {k}");
                }
            }
        });
    }

    #[test]
    fn cop_leaves_shared_slots_untouched() {
        let (mut engine, r) = unconstrained_engine(4);
        let shapes = |engine: &CurrencyEngine| -> Vec<_> {
            (0..engine.stats().components)
                .map(|ix| engine.slot_shape(ix))
                .collect()
        };
        let before = shapes(&engine);
        let mut reader = SnapshotReader::new(engine.snapshot());
        // One interrupted COP first: a zero-work budget stops the solve
        // mid-way on its clone.
        let q01 = CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1));
        reader.set_solve_limits(SolveLimits {
            max_conflicts: Some(0),
            max_props: Some(0),
        });
        assert!(matches!(
            reader.cop(&q01),
            Err(ReasonError::Interrupted { .. })
        ));
        reader.set_solve_limits(SolveLimits::default());
        // Then a burst of open-literal COPs through both doors.
        for u in 0..8u32 {
            let v = u ^ 1;
            let q = CurrencyOrderQuery::single(r, A, TupleId(u), TupleId(v));
            assert!(!reader.cop(&q).unwrap());
            assert!(!engine.cop(&q).unwrap());
        }
        assert_eq!(reader.scratch_clones(), 9, "one clone per open COP");
        assert_eq!(shapes(&engine), before);
    }

    #[test]
    fn churn_and_compaction_republish_correctly() {
        let (mut engine, r) = monotone_engine();
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
        let report = engine.compact_step(&CompactBudget::UNBOUNDED).unwrap();
        assert_eq!(report.reclaimed, 3);
        let mut reader = SnapshotReader::new(engine.snapshot());
        assert_matches_engine(&mut reader, r);
        // No tombstones left: compaction is a no-op and the epoch stays.
        let epoch = engine.epoch();
        assert_eq!(
            engine
                .compact_step(&CompactBudget::UNBOUNDED)
                .unwrap()
                .reclaimed,
            0
        );
        assert_eq!(engine.epoch(), epoch);
        let stats = engine.stats();
        assert_eq!(stats.compact_steps, 1, "an unbounded step is one step");
        assert_eq!(stats.slots_reclaimed, 3);
        assert_eq!(stats.updates_applied, 6);
    }

    #[test]
    fn compact_moves_live_tuples_like_the_reference_sweep() {
        let (mut engine, r) = monotone_engine();
        // Retract entity 0's first tuple: every later tuple must move.
        let mut delta = SpecDelta::new();
        delta.remove_tuple(r, TupleId(0));
        engine.apply(&delta).unwrap();
        let mut reference = engine.spec().clone();
        let reference_report = reference.compact();
        let pinned = SnapshotReader::new(engine.snapshot());
        let epoch = engine.epoch();
        let step = engine.compact_step(&CompactBudget::UNBOUNDED).unwrap();
        assert!(step.done);
        assert_eq!(engine.epoch(), epoch + 1, "one write, one epoch");
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
        let mut reader = SnapshotReader::new(engine.snapshot());
        assert_matches_engine(&mut reader, r);
    }

    #[test]
    fn rejected_delta_mutates_and_publishes_nothing() {
        let (mut engine, r) = monotone_engine();
        let held = engine.snapshot();
        let epoch = engine.epoch();
        let mut delta = SpecDelta::new();
        delta
            .insert_tuple(r, Tuple::new(Eid(0), vec![Value::int(5)]))
            .add_order_edge(r, A, TupleId(0), TupleId(2)); // cross-entity
        assert!(engine.apply(&delta).is_err());
        assert_eq!(engine.epoch(), epoch);
        assert_eq!(engine.spec().instance(r).len(), 6, "no partial mutation");
        assert!(
            Arc::ptr_eq(&held.spec, &engine.snapshot().spec),
            "nothing copied"
        );
        assert!(engine.snapshot().cps());
    }

    #[test]
    fn poisoned_cell_lock_cannot_wedge_publish_or_load() {
        let (mut engine, r) = monotone_engine();
        let cell = SnapshotCell::new(engine.snapshot(), engine.obs().registry());
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
        cell.store(engine.snapshot());
        let snap = cell.load();
        assert_eq!(snap.epoch(), report.epoch);
        let mut reader = SnapshotReader::new(snap);
        assert_matches_engine(&mut reader, r);
    }

    #[test]
    fn lean_snapshot_rejects_value_queries_politely() {
        let (spec, r) = multi_entity_spec();
        let mut engine =
            CurrencyEngine::with_value_rels_owned(spec, &[], &Options::default()).unwrap();
        let reader = SnapshotReader::new(engine.snapshot());
        assert!(reader.cps());
        assert!(matches!(
            reader.dcip(r),
            Err(ReasonError::UnsupportedQuery { .. })
        ));
    }

    #[test]
    fn component_past_the_model_budget_is_refused() {
        // One entity with ten distinct values: ten realizable current
        // instances in one component, so a view whose budget is 4 refuses
        // inside that component's All-SAT, before any product is formed.
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        for v in 0..10 {
            spec.instance_mut(r)
                .push_tuple(Tuple::new(Eid(0), vec![Value::int(v)]))
                .unwrap();
        }
        let mut engine = CurrencyEngine::new_owned(spec, &Options::default()).unwrap();
        let reader = SnapshotReader::new(engine.snapshot());
        let tight = View {
            max_models: 4,
            ..reader.view()
        };
        assert!(matches!(
            tight.certain_answers(&value_query(r), true),
            Err(ReasonError::BudgetExceeded { budget: 4, .. })
        ));
        // DCIP needs two models whatever the budget; at `MAX_MODELS` the
        // reader answers: nothing is certain.
        assert!(!tight.dcip(r, true).unwrap());
        let answers = reader.certain_answers(&value_query(r)).unwrap();
        assert!(answers.rows().unwrap().is_empty());
    }

    #[test]
    fn reader_budget_override_interrupts_then_clears() {
        let (mut engine, r) = unconstrained_engine(3);
        let mut reader = SnapshotReader::new(engine.snapshot());
        // A zero-work per-request budget interrupts every solve-backed path
        // with the typed error, never a wrong verdict.
        reader.set_solve_limits(SolveLimits {
            max_conflicts: Some(0),
            max_props: Some(0),
        });
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
            reader.ccqa(&value_query(r), &[Value::int(10)]),
            Err(ReasonError::Interrupted { .. })
        ));
        assert!(matches!(
            reader.current_instances(r),
            Err(ReasonError::Interrupted { .. })
        ));
        // Clearing the override, the answers match a live engine — the
        // interruption left nothing corrupted behind.
        reader.set_solve_limits(SolveLimits::default());
        assert_matches_engine(&mut reader, r);
    }

    #[test]
    fn reader_deadline_override_interrupts_then_clears() {
        let (mut engine, r) = monotone_engine();
        let mut reader = SnapshotReader::new(engine.snapshot());
        reader.set_deadline(Some(Instant::now()));
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
            reader.ccqa(&value_query(r), &[Value::int(20)]),
            Err(ReasonError::Interrupted { .. })
        ));
        assert!(matches!(
            reader.current_instances(r),
            Err(ReasonError::Interrupted { .. })
        ));
        // `None` means unbounded: the answers match a live engine.
        reader.set_deadline(None);
        assert_matches_engine(&mut reader, r);
    }

    #[test]
    fn reader_escalating_budgets_converge() {
        let (mut engine, r) = unconstrained_engine(3);
        let snap = engine.snapshot();
        let q = CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1));
        let oracle = SnapshotReader::new(snap.clone()).cop(&q).unwrap();
        // One reader retries the same query with doubling budgets; each
        // retry solves from the slot's compiled state.
        let mut reader = SnapshotReader::new(snap);
        let mut budget: u64 = 1;
        loop {
            reader.set_solve_limits(SolveLimits {
                max_conflicts: Some(budget),
                max_props: Some(budget * 64),
            });
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
    }

    #[test]
    fn cell_counts_poison_recoveries_as_degraded_events() {
        let (mut engine, r) = monotone_engine();
        let cell = SnapshotCell::new(engine.snapshot(), engine.obs().registry());
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
        cell.store(engine.snapshot());
        let _ = cell.load();
        assert_eq!(cell.degraded_events(), 1, "one crash, one event");
    }

    #[test]
    fn live_snapshots_are_counted() {
        let (mut engine, r) = monotone_engine();
        let live = engine.obs().snapshot_epochs_live.clone();
        assert_eq!(live.get(), 0, "an engine nobody snapshots holds none");
        let first = engine.snapshot();
        let mut delta = SpecDelta::new();
        delta.insert_tuple(r, Tuple::new(Eid(1), vec![Value::int(99)]));
        engine.apply(&delta).unwrap();
        let second = engine.snapshot();
        assert_eq!(live.get(), 2);
        drop(first);
        assert_eq!(live.get(), 1);
        drop(second);
        assert_eq!(live.get(), 0);
    }
}
