//! SAT encoding of specifications.
//!
//! A consistent completion of a specification is encoded as a model of a
//! CNF formula over *order variables*:
//!
//! * for every relation, **referenced** attribute `A`, entity and
//!   unordered pair `{u, v}` of the entity's tuples there is one Boolean
//!   variable whose truth means `u ≺_A v` (its falsity means `v ≺_A u`) —
//!   totality and antisymmetry are therefore structural, not clausal.  An
//!   attribute is referenced when an initial order, ground rule, copy
//!   obligation, or value indicator of this encoding's scope touches it;
//!   unreferenced attributes admit every total order, so they need no
//!   variables at all ([`Encoding::order_lit`] returns `None` and every
//!   consumer already treats that as "unconstrained");
//! * transitivity is enforced **lazily** per entity group: no triangle
//!   clauses up front; candidate models are checked by a closure walk and
//!   only *violated* triangles are added as lemmas;
//! * the initial partial orders contribute unit clauses;
//! * every ground rule of every denial constraint contributes the clause
//!   `¬p₁ ∨ … ∨ ¬pₘ ∨ c` (falsum conclusions drop `c`);
//! * every ≺-compatibility obligation of every copy function contributes
//!   the binary implication `s₁≺s₂ → t₁≺t₂`.
//!
//! Models of this CNF are exactly the consistent completions of the
//! specification (`Mod(S)`), so CPS is one [`Encoding::solve`] call and
//! COP is an entailment query under one assumption.  That call loops —
//! solve, closure-check, lemmatize — until the model is transitive or the
//! instance is refuted; the lemmas are sound consequences of the
//! transitivity axiom.  It runs under work [`Bounds`] (the default bounds
//! nothing), so every solve of the engine can stop on a budget or a
//! deadline.  The reference encodings of the differential
//! tests (`crate::oracle`, behind the `oracle` feature) can instead
//! ground every triangle eagerly; both decide the same problems.
//!
//! For the current-instance problems (DCIP, CCQA) the encoding can
//! additionally materialize, per `(relation, entity, attribute)`:
//!
//! * *max indicators* `m_t ⇔ ⋀_{t'≠t} t'≺t` — `t` holds the most current
//!   value, and
//! * *value indicators* `y_v ⇔ ⋁_{t : t[A]=v} m_t` — the most current
//!   value is `v`.
//!
//! Projected All-SAT over the value indicators
//! ([`Encoding::for_each_model`], which re-checks closure per model)
//! enumerates exactly the realizable current instances, collapsing the
//! (huge) completion space to the (small) space of distinct `LST`
//! outcomes.

use crate::error::ReasonError;
#[cfg(any(test, feature = "oracle"))]
use crate::oracle::TransitivityMode;
use crate::partition::Component;
use crate::{Options, SolveLimits, Spent};
use currency_core::{
    AttrId, Completion, CopyGroups, CurrencyError, Eid, EntityGrounder, GroundBuffer, OrderEdge,
    RelCompletion, RelId, Specification, TemporalInstance, Tuple, TupleId, Value,
};
/// The verdict of [`Encoding::solve`].
pub use currency_sat::SolveResult;
use currency_sat::{enumerate_projected, Enumeration, Lit, ModelSource, SolveOutcome, Solver, Var};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Conflict installment size for deadline-bounded solves: small enough
/// that the wall clock is consulted every few milliseconds of search,
/// large enough that warm-resume overhead (re-establishing assumptions)
/// is noise.
const DEADLINE_CHUNK: u64 = 512;

/// The work bounds of one query, distilled from [`Options`]: a per-solve
/// budget plus an absolute wall-clock deadline.  The default bounds
/// nothing: a solve under it is never interrupted.
///
/// Under a deadline, solves run in conflict installments (warm resume
/// between installments makes chunking semantically identical to one
/// long solve), so the deadline is observed without time syscalls inside
/// the solver's hot loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct Bounds {
    /// Per-SAT-call work budget.
    pub limits: SolveLimits,
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
}

impl Bounds {
    /// The bounds carried by an [`Options`].
    pub fn from_options(opts: &Options) -> Bounds {
        Bounds {
            limits: opts.solve_limits,
            deadline: opts.deadline,
        }
    }

    /// `true` once the wall-clock deadline has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// How the current value of one `(relation, entity, attribute)` cell is
/// represented in the encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValueChoice {
    /// Every completion yields this value (single tuple, or all tuples of
    /// the entity agree on the attribute).
    Fixed(Value),
    /// The value is decided by the model: list of `(value, index into
    /// [`Encoding::value_projection`])`; exactly one indicator is true in
    /// any model.
    Choice(Vec<(Value, usize)>),
}

/// The pair an order variable stands for: `(rel, attr, u, v)` with
/// `u < v`.
pub type OrderKey = (RelId, AttrId, TupleId, TupleId);

/// One entity group whose transitivity is enforced lazily: the tuples of
/// a `(relation, attribute, entity)` cell with ≥ 3 members (smaller
/// groups have no triangles).
#[derive(Clone, Debug)]
struct LazyGroup {
    rel: RelId,
    attr: AttrId,
    tuples: Vec<TupleId>,
}

/// A specification's component compiled to CNF (see module docs).
///
/// An encoding covers one entity component of its specification
/// ([`ComponentCompiler::compile`]): it contains exactly the order
/// variables, clauses, and value indicators of its component's
/// `(relation, entity)` cells, and its decode methods report rows and
/// chains for those cells only.  The whole-specification reference
/// encoding of the differential tests is the compile of one component
/// holding every cell.
///
/// Callers must reach satisfiability through [`Encoding::solve`] or
/// [`Encoding::for_each_model`] rather than the raw solver: they run the
/// refinement loop that makes a `Sat` answer trustworthy.
///
/// Cloning an encoding clones the whole cached solver (learnt clauses and
/// lazy-transitivity lemmas included), so the clone answers exactly like
/// the original while staying fully private: every query solves on a
/// throwaway clone of a shared slot encoding and drops it when it
/// returns.
#[derive(Clone, Debug)]
pub struct Encoding {
    /// The solver loaded with the specification's clauses.  Private so
    /// that satisfiability can only be reached through the refining
    /// [`Encoding::solve`] and [`Encoding::for_each_model`] — a raw
    /// solver `Sat` without the closure-refinement loop could decode a
    /// non-transitive order.
    solver: Solver,
    /// `((rel, attr, u, v), var)` with `u < v`: the order variable of the
    /// pair (`true` ⇔ `u ≺ v`).  Sorted by key once construction has
    /// allocated every variable, and read by binary search.
    order_vars: Vec<(OrderKey, Var)>,
    /// Current-value representation per encoded cell.
    value_choices: BTreeMap<(RelId, Eid, AttrId), ValueChoice>,
    /// Projection variables for All-SAT over current instances.
    value_projection: Vec<Var>,
    /// Relations whose current values are encoded.
    value_rels: Vec<RelId>,
    /// The component whose cells this encoding covers, shared with the
    /// partition.
    scope: Arc<Component>,
    /// Closure-checked groups (empty once every triangle is grounded).
    lazy_groups: Vec<LazyGroup>,
    /// A premise-free falsum rule was grounded in this component: an
    /// unconditional contradiction, kept out of the clauses and reported
    /// to the writer instead (see [`Encoding::has_ground_falsum`]).
    ground_falsum: bool,
}

impl Encoding {
    /// The encoding of a vacant component slot: empty scope, no
    /// variables, no clauses, trivially satisfiable.  The engine parks
    /// one of these in a slot the partition has vacated (see
    /// `Partition::refresh`), so slot arrays never need `Option`s and a
    /// stale query against a vacated slot degrades to a no-op.
    pub fn vacant(value_rels: &[RelId]) -> Encoding {
        Encoding {
            solver: Solver::new(),
            order_vars: Vec::new(),
            value_choices: BTreeMap::new(),
            value_projection: Vec::new(),
            value_rels: value_rels.to_vec(),
            scope: crate::partition::vacant(),
            lazy_groups: Vec::new(),
            ground_falsum: false,
        }
    }

    /// The construction pass over the ground rules and obligations
    /// buffered in `scratch`: order variables, transitivity groups,
    /// initial orders, one clause per rule and per obligation, then the
    /// value indicators.  Every compile fills the buffers its own way
    /// and ends here.
    pub(crate) fn assemble(
        spec: &Specification,
        value_rels: &[RelId],
        scope: Arc<Component>,
        ground_falsum: bool,
        scratch: &mut CompileScratch,
    ) -> Encoding {
        let mut enc = Encoding {
            solver: Solver::new(),
            order_vars: Vec::new(),
            value_choices: BTreeMap::new(),
            value_projection: Vec::new(),
            value_rels: value_rels.to_vec(),
            scope,
            lazy_groups: Vec::new(),
            ground_falsum,
        };
        // A handle of our own on the scope, so the passes below can walk
        // its cells while mutating the encoding.
        let scope = enc.scope.clone();
        let cells = &scope.cells;
        enc.referenced_attrs(spec, cells, scratch);
        enc.alloc_vars(spec, cells, scratch);
        enc.collect_lazy_groups(spec, cells, &scratch.referenced);
        enc.add_initial_orders(spec, cells);
        enc.add_ground_rules(scratch);
        enc.add_obligations(scratch);
        for &rel in value_rels {
            enc.add_value_indicators(spec, cells, rel, scratch);
        }
        enc
    }

    /// The `(relation, attribute)` pairs actually constrained within this
    /// encoding's scope, sorted into `scratch.referenced`.  Only these get
    /// order variables: an attribute no initial order, rule, obligation,
    /// or value indicator touches admits every total order, so allocating
    /// its `O(n²)` pair variables (and, eagerly, its `O(n³)` triangle
    /// clauses) would be pure waste.
    fn referenced_attrs(
        &self,
        spec: &Specification,
        cells: &BTreeSet<(RelId, Eid)>,
        scratch: &mut CompileScratch,
    ) {
        let mut refd = std::mem::take(&mut scratch.referenced);
        refd.clear();
        // Initial orders: range-scan the scope groups' outgoing pairs
        // (both endpoints of a pair share the entity, so checking lessers
        // covers every pair) instead of walking every relation's full
        // pair set — rebuild cost must scale with the component, not the
        // specification.
        for &(rel, eid) in cells {
            let inst = spec.instance(rel);
            for a in 0..inst.arity() {
                let attr = AttrId(a as u32);
                if is_marked(&refd, (rel, attr)) {
                    continue;
                }
                if inst
                    .entity_group(eid)
                    .iter()
                    .any(|&t| inst.order(attr).pairs_from(t).next().is_some())
                {
                    mark(&mut refd, (rel, attr));
                }
            }
        }
        for (rel, premises, conclusion) in scratch.rules() {
            for edge in premises.iter().chain(conclusion.as_ref()) {
                mark(&mut refd, (rel, edge.attr));
            }
        }
        for ob in &scratch.obligations {
            mark(&mut refd, (ob.source_rel, ob.source_edge.attr));
            mark(&mut refd, (ob.target_rel, ob.target_edge.attr));
        }
        // Value indicators need the order relation of any attribute on
        // which some in-scope entity group disagrees (max indicators
        // quantify over the group's pairs).
        for_each_group(spec, cells, |rel, group| {
            if group.len() < 2 || !self.value_rels.contains(&rel) {
                return;
            }
            let inst = spec.instance(rel);
            for a in 0..inst.arity() {
                let attr = AttrId(a as u32);
                if is_marked(&refd, (rel, attr)) {
                    continue;
                }
                let first = inst.tuple(group[0]).value(attr);
                if group[1..]
                    .iter()
                    .any(|&t| inst.tuple(t).value(attr) != first)
                {
                    mark(&mut refd, (rel, attr));
                }
            }
        });
        scratch.referenced = refd;
    }

    /// This encoding's entities of `rel`: a range scan over its own (few)
    /// cells instead of a filter over every entity of the relation —
    /// decode cost then scales with the component, not the
    /// specification.
    fn entities_in_scope(&self, rel: RelId) -> impl Iterator<Item = Eid> + '_ {
        entities_of(&self.scope.cells, rel)
    }

    /// The literal asserting `lesser ≺_attr greater`, if the pair is
    /// same-entity on a referenced attribute (and thus has a variable).
    pub fn order_lit(
        &self,
        rel: RelId,
        attr: AttrId,
        lesser: TupleId,
        greater: TupleId,
    ) -> Option<Lit> {
        if lesser == greater {
            return None;
        }
        let (a, b, positive) = if lesser < greater {
            (lesser, greater, true)
        } else {
            (greater, lesser, false)
        };
        self.order_vars
            .binary_search_by_key(&(rel, attr, a, b), |&(key, _)| key)
            .ok()
            .map(|ix| self.order_vars[ix].1.lit(positive))
    }

    /// The value `l` is fixed to at decision level zero (see
    /// [`Solver::level0_value`]): a sound consequence of the component's
    /// clauses, lemmas and learnt clauses, whatever their refinement.
    pub(crate) fn level0_value(&self, l: Lit) -> Option<bool> {
        self.solver.level0_value(l)
    }

    /// Heap bytes this encoding holds, computed from capacities: capacity
    /// × element size for vectors (the solver's included, see
    /// [`Solver::heap_bytes`]) and len × entry size for maps and sets.
    /// The heap behind a [`Value`] is not counted, and neither is the
    /// scope: its cells belong to the partition's component, which the
    /// encoding only shares ([`crate::Partition::heap_bytes`] counts
    /// them).  Deterministic, so a footprint budget can be checked
    /// without an allocator hook.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * size_of::<T>()
        }
        let choices: usize = self
            .value_choices
            .values()
            .map(|c| match c {
                ValueChoice::Fixed(_) => 0,
                ValueChoice::Choice(options) => bytes(options),
            })
            .sum();
        let lazy_tuples: usize = self.lazy_groups.iter().map(|g| bytes(&g.tuples)).sum();
        self.solver.heap_bytes()
            + bytes(&self.order_vars)
            + self.value_choices.len() * size_of::<((RelId, Eid, AttrId), ValueChoice)>()
            + choices
            + bytes(&self.value_projection)
            + bytes(&self.value_rels)
            + bytes(&self.lazy_groups)
            + lazy_tuples
    }

    /// Number of solver variables (order variables plus value-indicator
    /// auxiliaries).
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Number of solver clauses (original + lemmas + learnt).
    pub fn num_clauses(&self) -> usize {
        self.solver.num_clauses()
    }

    /// The underlying solver's counters.
    pub fn solver_stats(&self) -> currency_sat::SolverStats {
        self.solver.stats()
    }

    // ------------------------------------------------------------------
    // Solving (refining)
    // ------------------------------------------------------------------

    /// Check satisfiability under assumed literals and work [`Bounds`],
    /// running the lazy refinement loop: solve, closure-check, install
    /// every violated triangle as a lemma, until the model is transitive
    /// or the instance is refuted.
    ///
    /// After `Sat`, the solver's model is transitive on every encoded
    /// group, so decode helpers ([`Encoding::model_chains`]) are safe.
    /// Every SAT decision of the loop checks the budget and the deadline
    /// and surfaces [`ReasonError::Interrupted`] instead of running on;
    /// [`Bounds::default`] never interrupts.  Interrupts never yield a
    /// wrong verdict, and all learnt state survives them: learnt clauses,
    /// and the lemmas, which are assumption-independent consequences of
    /// the transitivity axiom.  Repeated queries and retries against one
    /// encoding therefore resume warm.
    pub fn solve(
        &mut self,
        assumptions: &[Lit],
        bounds: &Bounds,
    ) -> Result<SolveResult, ReasonError> {
        let mut spent = Spent::default();
        loop {
            if self.solve_sat_bounded(assumptions, bounds, &mut spent)? == SolveResult::Unsat {
                return Ok(SolveResult::Unsat);
            }
            if self.refine_transitivity() == 0 {
                return Ok(SolveResult::Sat);
            }
            // Lemmas installed; the next round's installment loop
            // re-checks the deadline before re-solving.
        }
    }

    /// One raw SAT decision under `bounds`, run in conflict installments
    /// so the wall-clock deadline is consulted between installments
    /// rather than inside the search loop.  `spent` accumulates across
    /// installments (and across refinement rounds of one solve).  With
    /// neither budget nor deadline this is exactly one unbounded solver
    /// call.
    fn solve_sat_bounded(
        &mut self,
        assumptions: &[Lit],
        bounds: &Bounds,
        spent: &mut Spent,
    ) -> Result<SolveResult, ReasonError> {
        loop {
            if bounds.expired() {
                return Err(ReasonError::Interrupted { spent: *spent });
            }
            let remaining = |max: Option<u64>, used: u64| -> Result<Option<u64>, ReasonError> {
                match max {
                    Some(m) if m > used => Ok(Some(m - used)),
                    Some(_) => Err(ReasonError::Interrupted { spent: *spent }),
                    None => Ok(None),
                }
            };
            let conflicts_left = remaining(bounds.limits.max_conflicts, spent.conflicts)?;
            let props_left = remaining(bounds.limits.max_props, spent.propagations)?;
            let chunk = if bounds.deadline.is_some() {
                Some(conflicts_left.unwrap_or(DEADLINE_CHUNK).min(DEADLINE_CHUNK))
            } else {
                conflicts_left
            };
            let limits = SolveLimits {
                max_conflicts: chunk,
                max_props: props_left,
            };
            let before = self.solver.stats();
            let outcome = self
                .solver
                .solve_limited_with_assumptions(assumptions, &limits);
            let after = self.solver.stats();
            spent.conflicts += after.conflicts - before.conflicts;
            spent.propagations += after.propagations - before.propagations;
            match outcome {
                SolveOutcome::Sat => return Ok(SolveResult::Sat),
                SolveOutcome::Unsat => return Ok(SolveResult::Unsat),
                // Installment exhausted: loop — either a budget really ran
                // out (the `remaining` checks above fire) or this was a
                // deadline chunk and the search resumes warm.
                SolveOutcome::Interrupted => {}
            }
        }
    }

    /// Closure-check the current model and install every violated
    /// triangle as a lemma; returns the number of lemmas added (0 ⇒ the
    /// model is transitive).
    ///
    /// Per group of `n` tuples the walk builds successor bitsets in
    /// `O(n²)` variable lookups and scans `succ(j) ∖ succ(i)` for every
    /// model edge `i → j` in `O(n²·⌈n/64⌉)` word operations — far below
    /// grounding cost, and the violated-triangle sets it yields are
    /// usually tiny (the first candidate model per group is already a
    /// total order unless constraints force reordering).
    fn refine_transitivity(&mut self) -> usize {
        let mut lemmas: Vec<[Lit; 3]> = Vec::new();
        for g in &self.lazy_groups {
            let n = g.tuples.len();
            let words = n.div_ceil(64);
            // succ[i] ∋ j ⇔ the model orders tuple i before tuple j.
            let mut succ = vec![0u64; n * words];
            for i in 0..n {
                for j in (i + 1)..n {
                    let lit = self
                        .order_lit(g.rel, g.attr, g.tuples[i], g.tuples[j])
                        .expect("lazy group pairs have order vars");
                    let fwd = self.solver.model_value(lit.var()) == lit.is_pos();
                    if fwd {
                        succ[i * words + j / 64] |= 1 << (j % 64);
                    } else {
                        succ[j * words + i / 64] |= 1 << (i % 64);
                    }
                }
            }
            // For each edge i → j, every k ∈ succ(j) ∖ succ(i) ∖ {i}
            // closes a violated triangle i → j → k with k → i.
            for i in 0..n {
                for wi in 0..words {
                    let mut js = succ[i * words + wi];
                    while js != 0 {
                        let j = wi * 64 + js.trailing_zeros() as usize;
                        js &= js - 1;
                        let ij = self
                            .order_lit(g.rel, g.attr, g.tuples[i], g.tuples[j])
                            .expect("same entity");
                        for w in 0..words {
                            let mut d = succ[j * words + w] & !succ[i * words + w];
                            if w == i / 64 {
                                d &= !(1u64 << (i % 64));
                            }
                            while d != 0 {
                                let k = w * 64 + d.trailing_zeros() as usize;
                                d &= d - 1;
                                let jk = self
                                    .order_lit(g.rel, g.attr, g.tuples[j], g.tuples[k])
                                    .expect("same entity");
                                let ik = self
                                    .order_lit(g.rel, g.attr, g.tuples[i], g.tuples[k])
                                    .expect("same entity");
                                lemmas.push([!ij, !jk, ik]);
                            }
                        }
                    }
                }
            }
        }
        for lemma in &lemmas {
            self.solver.add_lemma(lemma);
        }
        lemmas.len()
    }

    /// Enumerate models projected onto `projection` (see
    /// [`Solver::for_each_model`]) under work [`Bounds`], each model found
    /// by [`Encoding::solve`] so that it has passed the closure check.
    /// A budget exhaustion or deadline expiry surfaces as
    /// [`ReasonError::Interrupted`]: the models already delivered to `f`
    /// were real, but the space was not exhausted.  The per-solve budget
    /// applies to each model-finding solve; the deadline bounds the
    /// enumeration as a whole.
    ///
    /// Blocking clauses permanently constrain this encoding; callers that
    /// need to reuse it should enumerate on a clone.
    pub fn for_each_model(
        &mut self,
        projection: &[Var],
        limit: usize,
        bounds: &Bounds,
        f: impl FnMut(&[bool]) -> bool,
    ) -> Result<Enumeration, ReasonError> {
        let mut src = BoundedSource {
            enc: self,
            bounds: *bounds,
            interrupted: None,
        };
        match enumerate_projected(&mut src, projection, limit, f) {
            Enumeration::Interrupted(_) => {
                Err(src.interrupted.take().expect("interrupt was recorded"))
            }
            done => Ok(done),
        }
    }

    /// The value-indicator projection (for [`Encoding::for_each_model`]).
    pub fn value_projection(&self) -> &[Var] {
        &self.value_projection
    }

    /// The relations whose current values are encoded.
    pub fn value_rels(&self) -> &[RelId] {
        &self.value_rels
    }

    fn decode_entity_row(
        &self,
        spec: &Specification,
        rel: RelId,
        eid: Eid,
        indicator: impl Fn(usize) -> bool,
    ) -> Vec<Value> {
        let inst = spec.instance(rel);
        (0..inst.arity())
            .map(|a| {
                let attr = AttrId(a as u32);
                match self
                    .value_choices
                    .get(&(rel, eid, attr))
                    .expect("cell encoded")
                {
                    ValueChoice::Fixed(v) => v.clone(),
                    ValueChoice::Choice(options) => options
                        .iter()
                        .find(|(_, ix)| indicator(*ix))
                        .map(|(v, _)| v.clone())
                        .expect("exactly one value indicator true"),
                }
            })
            .collect()
    }

    /// The subset of [`Encoding::value_projection`] belonging to `rels`:
    /// parallel vectors of full-projection indices and their variables,
    /// sorted by index.  Model enumeration restricted to one relation
    /// projects onto these variables so that order differences in *other*
    /// relations do not multiply the model count.
    pub fn restricted_projection(&self, rels: &[RelId]) -> (Vec<usize>, Vec<Var>) {
        let mut indices: Vec<usize> = Vec::new();
        for ((rel, _, _), choice) in &self.value_choices {
            if !rels.contains(rel) {
                continue;
            }
            if let ValueChoice::Choice(options) = choice {
                indices.extend(options.iter().map(|(_, ix)| *ix));
            }
        }
        indices.sort_unstable();
        indices.dedup();
        let vars = indices
            .iter()
            .map(|&ix| self.value_projection[ix])
            .collect();
        (indices, vars)
    }

    /// Decode the current rows of `rels` for this encoding's entities from
    /// a model projected onto a restricted projection (as returned by
    /// [`Encoding::restricted_projection`]): `indices[k]` is the full
    /// projection index of `values[k]`.
    pub fn decode_restricted(
        &self,
        spec: &Specification,
        rels: &[RelId],
        indices: &[usize],
        values: &[bool],
    ) -> Vec<(RelId, Tuple)> {
        debug_assert_eq!(indices.len(), values.len());
        let mut out = Vec::new();
        for &rel in rels {
            for eid in self.entities_in_scope(rel) {
                let row = self.decode_entity_row(spec, rel, eid, |ix| {
                    indices
                        .binary_search(&ix)
                        .map(|pos| values[pos])
                        .unwrap_or(false)
                });
                out.push((rel, Tuple::new(eid, row)));
            }
        }
        out
    }

    /// The per-attribute chains of this encoding's entities under the
    /// solver's current model (valid after a `Sat` result from
    /// [`Encoding::solve`]): entries are `(rel, attr, eid, chain)` with
    /// the chain ordered least → most current.  The chains of every
    /// component together make a full [`Completion`].
    ///
    /// Unreferenced attributes have no order variables; their groups come
    /// back in tuple-id order, which is a valid chain because nothing in
    /// scope constrains them.
    pub fn model_chains(&self, spec: &Specification) -> Vec<(RelId, AttrId, Eid, Vec<TupleId>)> {
        let mut out = Vec::new();
        for inst in spec.instances() {
            let rel = inst.rel();
            for a in 0..inst.arity() {
                let attr = AttrId(a as u32);
                for eid in self.entities_in_scope(rel) {
                    let group = inst.entity_group(eid);
                    // Count predecessors of each tuple under the model: in
                    // a total order this equals the tuple's position, which
                    // avoids relying on sort-comparator transitivity.
                    let mut rank: Vec<(usize, TupleId)> = group
                        .iter()
                        .map(|&t| {
                            let preds = group
                                .iter()
                                .filter(|&&u| u != t && self.model_precedes(rel, attr, u, t))
                                .count();
                            (preds, t)
                        })
                        .collect();
                    rank.sort_unstable();
                    out.push((rel, attr, eid, rank.into_iter().map(|(_, t)| t).collect()));
                }
            }
        }
        out
    }

    fn model_precedes(&self, rel: RelId, attr: AttrId, u: TupleId, v: TupleId) -> bool {
        match self.order_lit(rel, attr, u, v) {
            Some(l) => {
                let val = self.solver.model_value(l.var());
                if l.is_pos() {
                    val
                } else {
                    !val
                }
            }
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Construction passes
    // ------------------------------------------------------------------

    /// Allocate the order variables of every referenced `(relation,
    /// attribute)` pair of every in-scope group, after reserving the
    /// solver for them and for the value indicators to come.
    fn alloc_vars(
        &mut self,
        spec: &Specification,
        cells: &BTreeSet<(RelId, Eid)>,
        scratch: &mut CompileScratch,
    ) {
        let referenced = &scratch.referenced;
        let mut pairs = 0;
        for_each_group(spec, cells, |rel, group| {
            let n = group.len();
            let attrs = referenced.iter().filter(|&&(r, _)| r == rel).count();
            pairs += attrs * (n * n.saturating_sub(1) / 2);
        });
        let mut indicators = 0;
        for &rel in &self.value_rels {
            let inst = spec.instance(rel);
            for (_, group) in groups_of(spec, cells, rel) {
                for a in 0..inst.arity() {
                    let distinct =
                        sort_by_value(inst, group, AttrId(a as u32), &mut scratch.by_value);
                    if distinct > 1 {
                        indicators += group.len() + distinct;
                    }
                }
            }
        }
        self.order_vars.reserve_exact(pairs);
        self.solver.reserve_vars(pairs + indicators);
        for_each_group(spec, cells, |rel, group| {
            for a in 0..spec.instance(rel).arity() {
                let attr = AttrId(a as u32);
                if !is_marked(referenced, (rel, attr)) {
                    continue;
                }
                for i in 0..group.len() {
                    for j in (i + 1)..group.len() {
                        let (u, v) = (group[i].min(group[j]), group[i].max(group[j]));
                        let var = self.solver.new_var();
                        self.order_vars.push(((rel, attr, u, v), var));
                    }
                }
            }
        });
        self.order_vars.sort_unstable_by_key(|&(key, _)| key);
    }

    /// Record the groups whose closure the lazy refinement loop checks.
    fn collect_lazy_groups(
        &mut self,
        spec: &Specification,
        cells: &BTreeSet<(RelId, Eid)>,
        referenced: &[(RelId, AttrId)],
    ) {
        for_each_group(spec, cells, |rel, group| {
            // Groups of < 3 tuples have no triangles to violate.
            if group.len() < 3 {
                return;
            }
            for a in 0..spec.instance(rel).arity() {
                let attr = AttrId(a as u32);
                if is_marked(referenced, (rel, attr)) {
                    self.lazy_groups.push(LazyGroup {
                        rel,
                        attr,
                        tuples: group.to_vec(),
                    });
                }
            }
        });
    }

    /// Range-scan each scope group's outgoing pairs rather than filtering
    /// every relation's full pair set.
    fn add_initial_orders(&mut self, spec: &Specification, cells: &BTreeSet<(RelId, Eid)>) {
        for &(rel, eid) in cells {
            let inst = spec.instance(rel);
            for a in 0..inst.arity() {
                let attr = AttrId(a as u32);
                for &t in inst.entity_group(eid) {
                    for (u, v) in inst.order(attr).pairs_from(t) {
                        let lit = self
                            .order_lit(rel, attr, u, v)
                            .expect("validated: same entity, irreflexive");
                        self.solver.add_clause(&[lit]);
                    }
                }
            }
        }
    }

    /// Add the clause of every buffered ground rule:
    /// `¬p₁ ∨ … ∨ ¬pₘ ∨ c` (falsum conclusions drop `c`).
    fn add_ground_rules(&mut self, scratch: &mut CompileScratch) {
        let mut clause = std::mem::take(&mut scratch.clause);
        for (rel, premises, conclusion) in scratch.rules() {
            clause.clear();
            for p in premises {
                let l = self
                    .order_lit(rel, p.attr, p.lesser, p.greater)
                    .expect("ground premises are same-entity, irreflexive, in scope");
                clause.push(!l);
            }
            if let Some(c) = conclusion {
                let l = self
                    .order_lit(rel, c.attr, c.lesser, c.greater)
                    .expect("ground conclusion is same-entity and in scope");
                clause.push(l);
            }
            self.solver.add_clause(&clause);
        }
        scratch.clause = clause;
    }

    /// Add the binary implication of every buffered copy-compatibility
    /// obligation: `s₁≺s₂ → t₁≺t₂`.
    fn add_obligations(&mut self, scratch: &CompileScratch) {
        for ob in &scratch.obligations {
            let (s, t) = (&ob.source_edge, &ob.target_edge);
            let sl = self
                .order_lit(ob.source_rel, s.attr, s.lesser, s.greater)
                .expect("obligation endpoints share an entity in scope");
            let tl = self
                .order_lit(ob.target_rel, t.attr, t.lesser, t.greater)
                .expect("obligation endpoints share an entity in scope");
            self.solver.add_clause(&[!sl, tl]);
        }
    }

    fn add_value_indicators(
        &mut self,
        spec: &Specification,
        cells: &BTreeSet<(RelId, Eid)>,
        rel: RelId,
        scratch: &mut CompileScratch,
    ) {
        let CompileScratch {
            clause,
            by_value,
            max_vars,
            ..
        } = scratch;
        let inst = spec.instance(rel);
        for (eid, group) in groups_of(spec, cells, rel) {
            for a in 0..inst.arity() {
                let attr = AttrId(a as u32);
                // The group's positions sorted by value (ties in group
                // order): each run of equal values is one candidate.
                let value_of = |pos: usize| inst.tuple(group[pos]).value(attr);
                if sort_by_value(inst, group, attr, by_value) == 1 {
                    self.value_choices
                        .insert((rel, eid, attr), ValueChoice::Fixed(value_of(0).clone()));
                    continue;
                }
                // Max indicators m_t ⇔ ⋀_{t'≠t} t' ≺ t.
                max_vars.clear();
                for &t in group {
                    let m = self.solver.new_var();
                    max_vars.push(m);
                    clause.clear();
                    clause.push(m.pos());
                    for &u in group {
                        if u == t {
                            continue;
                        }
                        let below = self.order_lit(rel, attr, u, t).expect("same entity");
                        // m → u ≺ t
                        self.solver.add_clause(&[m.neg(), below]);
                        // collect for (⋀ u≺t) → m
                        clause.push(!below);
                    }
                    self.solver.add_clause(clause);
                }
                // Value indicators y_v ⇔ ⋁_{t[A]=v} m_t, values ascending.
                let mut options: Vec<(Value, usize)> = Vec::new();
                let mut run = 0;
                while run < by_value.len() {
                    let value = value_of(by_value[run]);
                    let end = run
                        + by_value[run..]
                            .iter()
                            .take_while(|&&pos| value_of(pos) == value)
                            .count();
                    let y = self.solver.new_var();
                    let ix = self.value_projection.len();
                    self.value_projection.push(y);
                    options.push((value.clone(), ix));
                    clause.clear();
                    clause.push(y.neg());
                    for &pos in &by_value[run..end] {
                        let m = max_vars[pos];
                        // m_t → y
                        self.solver.add_clause(&[m.neg(), y.pos()]);
                        clause.push(m.pos());
                    }
                    // y → ⋁ m_t
                    self.solver.add_clause(clause);
                    run = end;
                }
                self.value_choices
                    .insert((rel, eid, attr), ValueChoice::Choice(options));
            }
        }
    }

    /// `true` if grounding this component produced a premise-free falsum
    /// rule — an unconditional contradiction local to one of its cells.
    /// The rule has no clause here (the component's CNF may well be
    /// satisfiable); the writers count such components and report the
    /// specification inconsistent while any exists.
    pub fn has_ground_falsum(&self) -> bool {
        self.ground_falsum
    }
}

/// The completion of `spec` made of `chains`, entries `(rel, attr, eid,
/// chain)` as [`Encoding::model_chains`] reports them, which must cover
/// every cell of the specification.
pub(crate) fn completion_from_chains(
    spec: &Specification,
    chains: impl IntoIterator<Item = (RelId, AttrId, Eid, Vec<TupleId>)>,
) -> Result<Completion, CurrencyError> {
    let mut per_rel: Vec<Vec<BTreeMap<Eid, Vec<TupleId>>>> = spec
        .instances()
        .iter()
        .map(|inst| vec![BTreeMap::new(); inst.arity()])
        .collect();
    for (rel, attr, eid, chain) in chains {
        per_rel[rel.index()][attr.index()].insert(eid, chain);
    }
    let rels = (spec.instances().iter().zip(per_rel))
        .map(|(inst, chains)| RelCompletion::new(inst, chains))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Completion::new(rels))
}

/// Mark `key` in a sorted, duplicate-free list.
fn mark(list: &mut Vec<(RelId, AttrId)>, key: (RelId, AttrId)) {
    if let Err(at) = list.binary_search(&key) {
        list.insert(at, key);
    }
}

fn is_marked(list: &[(RelId, AttrId)], key: (RelId, AttrId)) -> bool {
    list.binary_search(&key).is_ok()
}

/// Fill `out` with the positions `0..group.len()` sorted by the tuples'
/// `attr` value (ties in group order) and return the number of distinct
/// values.
fn sort_by_value(
    inst: &TemporalInstance,
    group: &[TupleId],
    attr: AttrId,
    out: &mut Vec<usize>,
) -> usize {
    out.clear();
    out.extend(0..group.len());
    let value_of = |pos: usize| inst.tuple(group[pos]).value(attr);
    out.sort_by(|&a, &b| value_of(a).cmp(value_of(b)));
    let boundaries = out
        .windows(2)
        .filter(|w| value_of(w[0]) != value_of(w[1]))
        .count();
    boundaries + usize::from(!group.is_empty())
}

/// The entities of `rel` among `cells` (a range scan).
fn entities_of(cells: &BTreeSet<(RelId, Eid)>, rel: RelId) -> impl Iterator<Item = Eid> + '_ {
    cells
        .range((rel, Eid(u64::MIN))..=(rel, Eid(u64::MAX)))
        .map(|&(_, eid)| eid)
}

/// [`entities_of`] with each entity's group.
fn groups_of<'s>(
    spec: &'s Specification,
    cells: &'s BTreeSet<(RelId, Eid)>,
    rel: RelId,
) -> impl Iterator<Item = (Eid, &'s [TupleId])> + 's {
    let inst = spec.instance(rel);
    entities_of(cells, rel).map(move |eid| (eid, inst.entity_group(eid)))
}

/// Visit every `(relation, group)` of `cells`, relations ascending and
/// entities ascending within each — the order variables are allocated
/// in.  Construction cost then scales with the component, not the
/// specification (the engine builds one encoding *per* component, so a
/// full-spec scan here would make engine construction O(components ×
/// spec)).
fn for_each_group<'s>(
    spec: &'s Specification,
    cells: &'s BTreeSet<(RelId, Eid)>,
    mut f: impl FnMut(RelId, &'s [TupleId]),
) {
    for inst in spec.instances() {
        for (_, group) in groups_of(spec, cells, inst.rel()) {
            f(inst.rel(), group);
        }
    }
}

/// One copy-compatibility obligation buffered for compilation: *if* the
/// completed source order contains `source_edge`, *then* the completed
/// target order must contain `target_edge`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Obligation {
    pub(crate) source_rel: RelId,
    pub(crate) source_edge: OrderEdge,
    pub(crate) target_rel: RelId,
    pub(crate) target_edge: OrderEdge,
}

/// Buffers a component compile borrows, reused across compiles
/// (cleared, never shrunk).  A writer owns one and lends it to every
/// compile it runs inline; each extra worker of a parallel batch gets
/// its own.  A compiled encoding keeps none of it.
#[derive(Debug, Default)]
pub struct CompileScratch {
    /// The component's ground rules: one sorted, deduplicated run per
    /// `(constraint, cell)`.
    pub(crate) rules: GroundBuffer,
    /// `(relation, end)` per constraint: the rules before `end` (and
    /// after the previous run's end) speak about `relation`.
    pub(crate) rule_runs: Vec<(RelId, usize)>,
    /// The component's copy obligations, in clause order.
    pub(crate) obligations: Vec<Obligation>,
    /// Referenced `(relation, attribute)` pairs, sorted.
    referenced: Vec<(RelId, AttrId)>,
    /// The clause under construction.
    clause: Vec<Lit>,
    /// Value-indicator buckets: group positions sorted by value.
    by_value: Vec<usize>,
    /// Max-indicator variable per group position.
    max_vars: Vec<Var>,
}

impl CompileScratch {
    /// Drop the buffered rules and obligations of the previous compile.
    pub(crate) fn clear(&mut self) {
        self.rules.clear();
        self.rule_runs.clear();
        self.obligations.clear();
    }

    /// Every buffered rule with the relation it speaks about, in clause
    /// order: `(relation, premises, conclusion)`.
    fn rules(&self) -> impl Iterator<Item = (RelId, &[OrderEdge], Option<OrderEdge>)> + '_ {
        let mut from = 0;
        self.rule_runs.iter().flat_map(move |&(rel, end)| {
            let run = from..end;
            from = end;
            run.map(move |i| {
                let (premises, conclusion) = self.rules.rule(i);
                (rel, premises, conclusion)
            })
        })
    }
}

/// Compiles components of one specification: grounds each component's
/// denial rules and copy obligations for its cells straight into its
/// solver ([`ComponentCompiler::compile`]).
///
/// Build one per batch of components compiled against the same
/// specification — it holds one [`EntityGrounder`] per constraint (the
/// value-atom analysis is paid once per batch) and one [`CopyGroups`]
/// view per copy function.  It is `Sync`, so the workers of a parallel
/// batch share it.
pub struct ComponentCompiler<'s> {
    spec: &'s Specification,
    value_rels: &'s [RelId],
    grounders: Vec<EntityGrounder<'s>>,
    copies: Vec<CopyGroups<'s>>,
}

impl<'s> ComponentCompiler<'s> {
    /// A compiler for components of `spec` with value indicators for
    /// `value_rels` and lazy transitivity.  The caller is expected to
    /// have validated the specification.
    pub fn new(spec: &'s Specification, value_rels: &'s [RelId]) -> ComponentCompiler<'s> {
        ComponentCompiler {
            spec,
            value_rels,
            grounders: spec
                .constraints()
                .iter()
                .map(|dc| dc.entity_grounder())
                .collect(),
            copies: spec
                .copies()
                .iter()
                .map(|cf| {
                    let sig = cf.signature();
                    cf.groups(spec.instance(sig.target), spec.instance(sig.source))
                })
                .collect(),
        }
    }

    /// Compile one component of the specification (see
    /// [`crate::partition`]): the scoped encoding contains exactly the
    /// order variables, clauses and value indicators of the component's
    /// cells, and shares `component` as its scope.
    ///
    /// Rules are grounded per constraint and cell into `scratch`, each
    /// cell's run sorted and deduplicated; a premise-free falsum rule is
    /// dropped and reported through [`Encoding::has_ground_falsum`].
    /// Obligations come from the copy groups of the component's target
    /// cells, in `(target entity, source entity)` order.
    pub fn compile(&self, component: &Arc<Component>, scratch: &mut CompileScratch) -> Encoding {
        scratch.clear();
        let cells = &component.cells;
        let mut falsum = false;
        for grounder in &self.grounders {
            let rel = grounder.constraint().rel();
            let inst = self.spec.instance(rel);
            for eid in entities_of(cells, rel) {
                let from = scratch.rules.len();
                grounder.ground_entity_into(inst, eid, &mut scratch.rules);
                scratch.rules.sort_dedup_from(from);
                // A premise-free falsum sorts first in its cell's run.
                if from < scratch.rules.len() && scratch.rules.rule(from) == (&[][..], None) {
                    scratch.rules.remove(from);
                    falsum = true;
                }
            }
            scratch.rule_runs.push((rel, scratch.rules.len()));
        }
        for (cf, groups) in self.spec.copies().iter().zip(&self.copies) {
            let sig = cf.signature();
            for te in entities_of(cells, sig.target) {
                groups.for_each_obligation_of_target(te, |source_edge, target_edge| {
                    scratch.obligations.push(Obligation {
                        source_rel: sig.source,
                        source_edge,
                        target_rel: sig.target,
                        target_edge,
                    });
                });
            }
        }
        Encoding::assemble(
            self.spec,
            self.value_rels,
            component.clone(),
            falsum,
            scratch,
        )
    }
}

#[cfg(any(test, feature = "oracle"))]
impl ComponentCompiler<'_> {
    /// [`ComponentCompiler::compile`] with transitivity grounded in
    /// `mode`: eagerly, every triangle is added once the compile is done
    /// ([`Encoding::ground_triangles`]).
    pub fn compile_in(
        &self,
        component: &Arc<Component>,
        mode: TransitivityMode,
        scratch: &mut CompileScratch,
    ) -> Encoding {
        let mut enc = self.compile(component, scratch);
        if mode == TransitivityMode::Eager {
            enc.ground_triangles();
        }
        enc
    }
}

/// Everything a freshly compiled encoding consists of, for structural
/// comparison in differential tests ([`Encoding::shape`]): equal shapes
/// mean the same variables, the same level-zero assignment and the same
/// stored clauses in the same order.
#[cfg(any(test, feature = "oracle"))]
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodingShape {
    /// Solver variable count.
    pub num_vars: usize,
    /// The order-variable table, sorted by pair.
    pub order_vars: Vec<(OrderKey, Var)>,
    /// Current-value representation per encoded cell.
    pub value_choices: Vec<((RelId, Eid, AttrId), ValueChoice)>,
    /// Value-indicator projection variables.
    pub value_projection: Vec<Var>,
    /// The solver's trail (level zero on an unsolved encoding).
    pub trail: Vec<Lit>,
    /// The stored clauses in storage order.
    pub clauses: Vec<Vec<Lit>>,
    /// Lazily closure-checked groups: `(relation, attribute, tuples)`.
    pub lazy_groups: Vec<(RelId, AttrId, Vec<TupleId>)>,
    /// The covered cells.
    pub scope: BTreeSet<(RelId, Eid)>,
    /// [`Encoding::has_ground_falsum`].
    pub ground_falsum: bool,
}

#[cfg(any(test, feature = "oracle"))]
impl Encoding {
    /// The whole-specification reference encoding: the compile of one
    /// component holding every live cell, with transitivity grounded in
    /// `mode` and value indicators for `value_rels`.  Unlike an engine's
    /// component, it keeps a premise-free falsum as the empty clause.
    /// Fails if the specification is structurally invalid
    /// ([`Specification::validate`]).
    pub fn whole_spec(
        spec: &Specification,
        value_rels: &[RelId],
        mode: TransitivityMode,
    ) -> Result<Encoding, CurrencyError> {
        spec.validate()?;
        let cells = (spec.instances().iter())
            .flat_map(|inst| inst.entities().map(move |eid| (inst.rel(), eid)))
            .collect();
        let mut enc = ComponentCompiler::new(spec, value_rels).compile_in(
            &Arc::new(Component { cells }),
            mode,
            &mut CompileScratch::default(),
        );
        if enc.ground_falsum {
            enc.solver.add_clause(&[]);
        }
        Ok(enc)
    }

    /// Ground every triangle `x≺y ∧ y≺z → x≺z` of every lazy group,
    /// leaving no group to the closure check: the eager transitivity of
    /// the reference encodings, added to a freshly compiled encoding.
    /// The solver stores a triangle simplified against the level-zero
    /// assignment, and not at all once level zero satisfies it.
    pub(crate) fn ground_triangles(&mut self) {
        for g in std::mem::take(&mut self.lazy_groups) {
            for &x in &g.tuples {
                for &y in &g.tuples {
                    for &z in &g.tuples {
                        if x == y || y == z || x == z {
                            continue;
                        }
                        let lit = |u, v| self.order_lit(g.rel, g.attr, u, v).expect("same entity");
                        let clause = [!lit(x, y), !lit(y, z), lit(x, z)];
                        self.solver.add_clause(&clause);
                    }
                }
            }
        }
    }

    /// This encoding's [`EncodingShape`].
    pub fn shape(&self) -> EncodingShape {
        EncodingShape {
            num_vars: self.solver.num_vars(),
            order_vars: self.order_vars.clone(),
            value_choices: self
                .value_choices
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect(),
            value_projection: self.value_projection.clone(),
            trail: self.solver.trail().to_vec(),
            clauses: self.solver.clause_lits().map(<[Lit]>::to_vec).collect(),
            lazy_groups: self
                .lazy_groups
                .iter()
                .map(|g| (g.rel, g.attr, g.tuples.clone()))
                .collect(),
            scope: self.scope.cells.clone(),
            ground_falsum: self.ground_falsum,
        }
    }
}

/// The refining model source: each solve is one [`Encoding::solve`]
/// under [`Bounds`], so the shared enumeration protocol
/// ([`enumerate_projected`]) only ever sees closure-checked models.  It
/// records the typed interrupt so [`Encoding::for_each_model`] can
/// re-raise it once [`enumerate_projected`] unwinds.
struct BoundedSource<'e> {
    enc: &'e mut Encoding,
    bounds: Bounds,
    interrupted: Option<ReasonError>,
}

impl ModelSource for BoundedSource<'_> {
    fn solve(&mut self) -> SolveOutcome {
        match self.enc.solve(&[], &self.bounds) {
            Ok(SolveResult::Sat) => SolveOutcome::Sat,
            Ok(SolveResult::Unsat) => SolveOutcome::Unsat,
            Err(e) => {
                self.interrupted = Some(e);
                SolveOutcome::Interrupted
            }
        }
    }

    fn model_value(&self, v: Var) -> bool {
        self.enc.solver.model_value(v)
    }

    fn block(&mut self, clause: &[Lit]) -> bool {
        self.enc.solver.add_clause(clause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TransitivityMode::{Eager, Lazy};
    use currency_core::{Catalog, CmpOp, DenialConstraint, RelationSchema, Term};
    use currency_sat::SolveResult;
    use std::time::Duration;

    const A: AttrId = AttrId(0);

    /// [`Encoding::solve`] under no bound.
    fn solve(enc: &mut Encoding, assumptions: &[Lit]) -> SolveResult {
        enc.solve(assumptions, &Bounds::default())
            .expect("no bound, no interrupt")
    }

    /// Every model projected onto the value indicators, under no bound.
    fn value_models(enc: &mut Encoding) -> Vec<Vec<bool>> {
        let projection = enc.value_projection().to_vec();
        let mut models = Vec::new();
        let done = enc
            .for_each_model(&projection, 100, &Bounds::default(), |m| {
                models.push(m.to_vec());
                true
            })
            .expect("no bound, no interrupt");
        assert!(matches!(done, Enumeration::Complete(_)));
        models
    }

    fn salary_spec() -> (Specification, RelId, TupleId, TupleId) {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["salary"]));
        let mut spec = Specification::new(cat);
        let t0 = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(50)]))
            .unwrap();
        let t1 = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(80)]))
            .unwrap();
        (spec, r, t0, t1)
    }

    fn monotone(r: RelId) -> DenialConstraint {
        DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
            .then_order(1, A, 0)
            .build()
            .unwrap()
    }

    #[test]
    fn unconstrained_pair_is_sat_both_ways() {
        let (spec, r, t0, t1) = salary_spec();
        // Value indicators reference the attribute (distinct values), so
        // its pair variable exists despite the absence of constraints.
        let mut enc = Encoding::whole_spec(&spec, &[r], Eager).unwrap();
        assert_eq!(solve(&mut enc, &[]), SolveResult::Sat);
        let l = enc.order_lit(r, A, t0, t1).unwrap();
        assert_eq!(solve(&mut enc, &[l]), SolveResult::Sat);
        assert_eq!(solve(&mut enc, &[!l]), SolveResult::Sat);
    }

    #[test]
    fn denial_constraint_forces_direction() {
        let (mut spec, r, t0, t1) = salary_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut enc = Encoding::whole_spec(&spec, &[], Eager).unwrap();
        let l = enc.order_lit(r, A, t0, t1).unwrap();
        // t0 (50) must precede t1 (80).
        assert_eq!(solve(&mut enc, &[!l]), SolveResult::Unsat);
        assert_eq!(solve(&mut enc, &[l]), SolveResult::Sat);
    }

    #[test]
    fn contradictory_initial_orders_are_unsat() {
        let (mut spec, r, t0, t1) = salary_spec();
        spec.instance_mut(r).add_order(A, t0, t1).unwrap();
        spec.instance_mut(r).add_order(A, t1, t0).unwrap();
        // validate() rejects the cyclic order before encoding.
        assert!(Encoding::whole_spec(&spec, &[], Eager).is_err());
    }

    fn three_tuple_spec() -> (Specification, RelId, Vec<TupleId>) {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        let ts: Vec<TupleId> = (0..3)
            .map(|i| {
                spec.instance_mut(r)
                    .push_tuple(Tuple::new(Eid(1), vec![Value::int(i)]))
                    .unwrap()
            })
            .collect();
        (spec, r, ts)
    }

    #[test]
    fn transitivity_is_enforced_in_both_modes() {
        for mode in [Eager, Lazy] {
            let (spec, r, ts) = three_tuple_spec();
            // Value indicators reference the attribute (three distinct
            // values), so the order variables exist.
            let mut enc = Encoding::whole_spec(&spec, &[r], mode).unwrap();
            let l01 = enc.order_lit(r, A, ts[0], ts[1]).unwrap();
            let l12 = enc.order_lit(r, A, ts[1], ts[2]).unwrap();
            let l20 = enc.order_lit(r, A, ts[2], ts[0]).unwrap();
            // A directed cycle must be unsatisfiable.
            assert_eq!(
                solve(&mut enc, &[l01, l12, l20]),
                SolveResult::Unsat,
                "{mode:?}"
            );
            assert_eq!(
                solve(&mut enc, &[l01, l12, !l20]),
                SolveResult::Sat,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn lazy_mode_grounds_fewer_clauses_and_reports_lemmas() {
        let (spec, r, _) = three_tuple_spec();
        let mut eager = Encoding::whole_spec(&spec, &[r], Eager).unwrap();
        let mut lazy = Encoding::whole_spec(&spec, &[r], Lazy).unwrap();
        assert_eq!(
            eager.num_vars(),
            lazy.num_vars(),
            "variable allocation is mode-independent"
        );
        assert!(lazy.num_clauses() < eager.num_clauses());
        assert_eq!(solve(&mut eager, &[]), SolveResult::Sat);
        assert_eq!(solve(&mut lazy, &[]), SolveResult::Sat);
        // The cycle check forces refinement work at some point.
        let l01 = lazy.order_lit(r, A, TupleId(0), TupleId(1)).unwrap();
        let l12 = lazy.order_lit(r, A, TupleId(1), TupleId(2)).unwrap();
        let l20 = lazy.order_lit(r, A, TupleId(2), TupleId(0)).unwrap();
        assert_eq!(solve(&mut lazy, &[l01, l12, l20]), SolveResult::Unsat);
        assert!(
            lazy.solver_stats().lemmas_added > 0,
            "refuting a cycle requires triangle lemmas"
        );
    }

    #[test]
    fn unreferenced_attributes_get_no_order_vars() {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A", "B"]));
        let mut spec = Specification::new(cat);
        let t0 = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1), Value::int(7)]))
            .unwrap();
        let t1 = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(2), Value::int(7)]))
            .unwrap();
        // Constraint touches attribute A only; B is uniform, so with no
        // value relations nothing references either attribute except A.
        spec.add_constraint(monotone(r)).unwrap();
        let enc = Encoding::whole_spec(&spec, &[], Eager).unwrap();
        assert_eq!(enc.num_vars(), 1, "one pair on A, none on B");
        assert!(enc.order_lit(r, A, t0, t1).is_some());
        assert!(enc.order_lit(r, AttrId(1), t0, t1).is_none());
        // With value indicators, the uniform B still needs no vars.
        let enc2 = Encoding::whole_spec(&spec, &[r], Eager).unwrap();
        assert!(enc2.order_lit(r, AttrId(1), t0, t1).is_none());
    }

    #[test]
    fn fully_unconstrained_spec_encodes_to_nothing() {
        let (spec, r, t0, t1) = salary_spec();
        let mut enc = Encoding::whole_spec(&spec, &[], Eager).unwrap();
        assert_eq!(enc.num_vars(), 0);
        assert_eq!(solve(&mut enc, &[]), SolveResult::Sat);
        assert!(enc.order_lit(r, A, t0, t1).is_none());
    }

    #[test]
    fn order_lit_orientation() {
        let (spec, r, t0, t1) = salary_spec();
        let enc = Encoding::whole_spec(&spec, &[r], Eager).unwrap();
        let fwd = enc.order_lit(r, A, t0, t1).unwrap();
        let bwd = enc.order_lit(r, A, t1, t0).unwrap();
        assert_eq!(fwd, !bwd);
        assert!(enc.order_lit(r, A, t0, t0).is_none());
    }

    #[test]
    fn value_indicators_enumerate_current_instances() {
        let (spec, r, _, _) = salary_spec();
        let mut enc = Encoding::whole_spec(&spec, &[r], Eager).unwrap();
        assert_eq!(enc.value_projection().len(), 2, "two candidate values");
        let outcomes = value_models(&mut enc);
        // Unconstrained: both 50 and 80 can be the current salary.
        assert_eq!(outcomes.len(), 2);
        for m in &outcomes {
            assert_eq!(m.iter().filter(|&&b| b).count(), 1);
        }
    }

    #[test]
    fn lazy_enumeration_matches_eager() {
        // Three distinct values, monotone constraint: exactly one current
        // instance; without the constraint: three.
        for constrained in [false, true] {
            let (mut spec, r, _) = three_tuple_spec();
            if constrained {
                spec.add_constraint(monotone(r)).unwrap();
            }
            let mut counts = Vec::new();
            for mode in [Eager, Lazy] {
                let mut enc = Encoding::whole_spec(&spec, &[r], mode).unwrap();
                let mut models = value_models(&mut enc);
                models.sort();
                counts.push(models);
            }
            assert_eq!(counts[0], counts[1], "constrained = {constrained}");
        }
    }

    #[test]
    fn decode_current_instance_respects_constraints() {
        let (mut spec, r, _, _) = salary_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut enc = Encoding::whole_spec(&spec, &[r], Eager).unwrap();
        let instances = value_models(&mut enc);
        assert_eq!(instances.len(), 1, "constraint pins the current value");
        let (indices, _) = enc.restricted_projection(&[r]);
        let rows = enc.decode_restricted(&spec, &[r], &indices, &instances[0]);
        assert_eq!(rows, [(r, Tuple::new(Eid(1), vec![Value::int(80)]))]);
    }

    #[test]
    fn decode_completion_is_consistent() {
        for mode in [Eager, Lazy] {
            let (mut spec, r, t0, t1) = salary_spec();
            spec.add_constraint(monotone(r)).unwrap();
            let mut enc = Encoding::whole_spec(&spec, &[], mode).unwrap();
            assert_eq!(solve(&mut enc, &[]), SolveResult::Sat);
            let completion = completion_from_chains(&spec, enc.model_chains(&spec)).unwrap();
            assert!(completion.is_consistent_for(&spec), "{mode:?}");
            assert!(completion.rel(r).precedes(A, t0, t1), "{mode:?}");
        }
    }

    #[test]
    fn uniform_value_groups_need_no_indicators() {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        for _ in 0..3 {
            spec.instance_mut(r)
                .push_tuple(Tuple::new(Eid(1), vec![Value::int(7)]))
                .unwrap();
        }
        let enc = Encoding::whole_spec(&spec, &[r], Eager).unwrap();
        assert!(enc.value_projection().is_empty());
        let rows = enc.decode_restricted(&spec, &[r], &[], &[]);
        assert_eq!(rows, [(r, Tuple::new(Eid(1), vec![Value::int(7)]))]);
    }

    #[test]
    fn past_deadline_interrupts_before_any_work() {
        let (mut spec, r, _) = three_tuple_spec();
        spec.add_constraint(monotone(r)).unwrap();
        let mut enc = Encoding::whole_spec(&spec, &[r], Lazy).unwrap();
        let l = enc.order_lit(r, A, TupleId(0), TupleId(1)).unwrap();
        let past = Bounds {
            deadline: Some(Instant::now()),
            ..Bounds::default()
        };
        let before = format!("{:?}", enc.solver_stats());
        let interrupted = ReasonError::Interrupted {
            spent: Spent::default(),
        };
        assert_eq!(enc.solve(&[], &past), Err(interrupted.clone()));
        assert_eq!(enc.solve(&[!l], &past), Err(interrupted.clone()));
        let projection = enc.value_projection().to_vec();
        let mut visited = 0;
        let enumerated = enc.for_each_model(&projection, 100, &past, |_| {
            visited += 1;
            true
        });
        assert_eq!(enumerated, Err(interrupted));
        assert_eq!(visited, 0);
        assert_eq!(
            format!("{:?}", enc.solver_stats()),
            before,
            "an expired deadline stops every path before the solver runs"
        );
    }

    #[test]
    fn default_bounds_never_interrupt() {
        // A lazy encoding needs refinement rounds and conflicts to refute
        // a cycle; under no bound every round runs to a verdict, and a
        // far deadline (the chunked installment path) agrees.
        let (spec, r, ts) = three_tuple_spec();
        let far = Bounds {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            ..Bounds::default()
        };
        for bounds in [Bounds::default(), far] {
            let mut enc = Encoding::whole_spec(&spec, &[r], Lazy).unwrap();
            let l01 = enc.order_lit(r, A, ts[0], ts[1]).unwrap();
            let l12 = enc.order_lit(r, A, ts[1], ts[2]).unwrap();
            let l20 = enc.order_lit(r, A, ts[2], ts[0]).unwrap();
            assert_eq!(enc.solve(&[l01, l12, l20], &bounds), Ok(SolveResult::Unsat));
            assert_eq!(enc.solve(&[l01, l12], &bounds), Ok(SolveResult::Sat));
            assert!(enc.solver_stats().lemmas_added > 0);
            let projection = enc.value_projection().to_vec();
            let enumerated = enc.for_each_model(&projection, 100, &bounds, |_| true);
            assert_eq!(enumerated, Ok(Enumeration::Complete(3)));
        }
    }
}
