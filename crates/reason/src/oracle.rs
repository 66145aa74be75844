//! Reference implementations for differential tests (built under
//! `cfg(test)` and the `oracle` feature only; the release library
//! compiles none of it).
//!
//! * **The whole-specification path**: the `*_monolithic` functions
//!   decide CPS, COP, DCIP and CCQA and find a witness on one encoding of
//!   the whole specification ([`Encoding::whole_spec`], the compile of
//!   one component holding every cell) with every transitivity triangle
//!   grounded up front ([`TransitivityMode::Eager`]).  The engines
//!   partition the specification and enforce transitivity lazily; these
//!   do neither.
//! * **The old grounding**: components used to be grounded by the
//!   partition, every constraint per cell
//!   ([`currency_core::DenialConstraint::ground_entity`]) and every copy
//!   function's obligations per region
//!   ([`currency_core::CopyFunction::obligations_for_region`]).  The
//!   engines now ground at compile time
//!   ([`crate::encode::ComponentCompiler`]).
//!   [`reference_encoding`] grounds a component the old way and hands
//!   the artifacts to the same CNF construction, so the two encodings
//!   agree ([`Encoding::shape`]) exactly when the two groundings yield
//!   the same rules and obligations in the same order;
//!   [`reference_components`] is the partition by definition: a
//!   union–find over every enumerated obligation.
//! * **Enumeration of `Mod(S)`** ([`crate::enumerate`]):
//!   [`cps_enumerate`] and [`certain_answers_enumerate`] are the CPS and
//!   certain-answers oracles by brute force.
//! * **The differential harness** every front door is checked with:
//!   [`Agreement`] asks a fresh [`CurrencyEngine`] CPS, all-pairs COP,
//!   DCIP and the certain answers of every relation, checks those
//!   answers against the enumeration of `Mod(S)` when it fits a budget,
//!   and then asserts that any [`ShardReader`] answers alike.

use crate::encode::{completion_from_chains, Bounds, CompileScratch, Encoding, Obligation};
use crate::enumerate::for_each_consistent_completion;
use crate::partition::Component;
use crate::shard::ShardReader;
use crate::{CertainAnswers, CurrencyEngine, CurrencyOrderQuery, Options, ReasonError, MAX_MODELS};
use currency_core::{
    lst, AttrId, Completion, Eid, NormalInstance, RelId, Specification, TupleId, Value,
};
use currency_query::{Database, Query, SpQuery};
use currency_sat::{Enumeration, SolveResult};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::sync::Arc;

/// How a reference encoding grounds the transitivity axiom (see
/// [`crate::encode`]).
///
/// Transitivity is the only cubic part of the reduction: an entity group
/// of `n` tuples has `n·(n-1)·(n-2)` ordered triangles per attribute.
/// The engines always ground it lazily: they solve without the
/// triangles, check each candidate model's order relation with a
/// closure walk, install only the violated triangles as lemmas
/// ([`currency_sat::Solver::add_lemma`]) and re-solve.  Eager grounding
/// emits every triangle up front; it survives as the reference the lazy
/// loop is checked against and as `bench_engine`'s `scaling` contrast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransitivityMode {
    /// Ground all `O(n³)` triangle clauses up front.
    Eager,
    /// Add violated triangle clauses as lemmas between solver calls.
    Lazy,
}

/// The encoding every `*_monolithic` function decides on: the whole
/// specification, transitivity grounded eagerly.
fn monolithic(spec: &Specification, value_rels: &[RelId]) -> Result<Encoding, ReasonError> {
    Ok(Encoding::whole_spec(
        spec,
        value_rels,
        TransitivityMode::Eager,
    )?)
}

/// CPS on one whole-specification encoding.
pub fn cps_exact_monolithic(spec: &Specification) -> Result<bool, ReasonError> {
    Ok(monolithic(spec, &[])?.solve(&[], &Bounds::default())? == SolveResult::Sat)
}

/// A witness completion decoded from one whole-specification encoding;
/// `Ok(None)` means the specification is inconsistent.
pub fn witness_completion_monolithic(
    spec: &Specification,
) -> Result<Option<Completion>, ReasonError> {
    let mut enc = monolithic(spec, &[])?;
    if enc.solve(&[], &Bounds::default())? == SolveResult::Unsat {
        return Ok(None);
    }
    let completion = completion_from_chains(spec, enc.model_chains(spec))?;
    debug_assert!(completion.is_consistent_for(spec));
    Ok(Some(completion))
}

/// COP on one whole-specification encoding: each pair must be entailed,
/// i.e. the encoding plus the negated pair must be unsatisfiable.
pub fn cop_exact_monolithic(
    spec: &Specification,
    ot: &CurrencyOrderQuery,
) -> Result<bool, ReasonError> {
    let mut enc = monolithic(spec, &[])?;
    if enc.solve(&[], &Bounds::default())? == SolveResult::Unsat {
        return Ok(true); // Mod(S) = ∅: vacuously certain
    }
    for &(attr, lesser, greater) in &ot.pairs {
        match enc.order_lit(ot.rel, attr, lesser, greater) {
            None => return Ok(false), // reflexive or cross-entity: never holds
            Some(l) => {
                if enc.solve(&[!l], &Bounds::default())? == SolveResult::Sat {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

/// The realizable current instances of `rels` (one instance per
/// relation, in `rels` order), at most `stop_after` of them, by projected
/// All-SAT over one whole-specification encoding.  Refused with
/// [`ReasonError::BudgetExceeded`] labelled `what` past
/// [`MAX_MODELS`].
fn monolithic_instances(
    spec: &Specification,
    rels: &[RelId],
    what: &'static str,
    stop_after: usize,
) -> Result<Vec<Vec<NormalInstance>>, ReasonError> {
    let mut enc = monolithic(spec, rels)?;
    let (indices, vars) = enc.restricted_projection(rels);
    let mut models: Vec<Vec<bool>> = Vec::new();
    let enumeration = enc.for_each_model(&vars, MAX_MODELS, &Bounds::default(), |m| {
        models.push(m.to_vec());
        models.len() < stop_after
    })?;
    if let Enumeration::LimitReached(n) = enumeration {
        return Err(ReasonError::BudgetExceeded {
            what,
            budget: MAX_MODELS,
            spent: n,
        });
    }
    let decode = |m: &Vec<bool>| {
        let mut instances: Vec<NormalInstance> =
            rels.iter().map(|&rel| NormalInstance::new(rel)).collect();
        for (rel, row) in enc.decode_restricted(spec, rels, &indices, m) {
            let at = rels.iter().position(|&r| r == rel).expect("requested");
            instances[at].push(row);
        }
        instances
    };
    Ok(models.iter().map(decode).collect())
}

/// DCIP on one whole-specification encoding: at most one realizable
/// current instance of `rel`.  Two distinct projected models are two
/// distinct instances, so the enumeration stops after two.
pub fn dcip_exact_monolithic(spec: &Specification, rel: RelId) -> Result<bool, ReasonError> {
    let what = "current-instance enumeration (DCIP)";
    let instances = monolithic_instances(spec, &[rel], what, 2)?;
    Ok(instances.windows(2).all(|w| w[0][0].set_eq(&w[1][0])))
}

/// The certain current answers of `query` on one whole-specification
/// encoding: the intersection of its answers over every realizable
/// current instance of the query's relations.
pub fn certain_answers_exact_monolithic(
    spec: &Specification,
    query: &Query,
) -> Result<CertainAnswers, ReasonError> {
    let rels: Vec<RelId> = query.body().relations().into_iter().collect();
    let what = "current-instance enumeration (CCQA)";
    let mut acc = None;
    for instances in monolithic_instances(spec, &rels, what, usize::MAX)? {
        intersect(&mut acc, query.eval(&Database::new(&instances)));
    }
    Ok(certain(acc))
}

/// CCQA on one whole-specification encoding.
pub fn ccqa_exact_monolithic(
    spec: &Specification,
    query: &Query,
    tuple: &[Value],
) -> Result<bool, ReasonError> {
    Ok(certain_answers_exact_monolithic(spec, query)?.contains(tuple))
}

/// CPS by brute-force enumeration of `Mod(S)`, refused with
/// [`ReasonError::BudgetExceeded`] when the candidate space exceeds
/// `limit`.
pub fn cps_enumerate(spec: &Specification, limit: usize) -> Result<bool, ReasonError> {
    let mut found = false;
    for_each_consistent_completion(spec, limit, |_| {
        found = true;
        false // one witness suffices
    })?;
    Ok(found)
}

/// Compile `component` of `spec` from the partition-side reference
/// grounding: each constraint's rules per cell in cell order (a
/// premise-free falsum dropped and reported), then each copy function's
/// obligations for the component's entities whose source cell lies in
/// the component.  Pair it with
/// [`ComponentCompiler::compile`](crate::encode::ComponentCompiler::compile)
/// on the same component.
pub fn reference_encoding(
    spec: &Specification,
    value_rels: &[RelId],
    component: &Arc<Component>,
    mode: TransitivityMode,
) -> Encoding {
    let mut scratch = CompileScratch::default();
    let mut falsum = false;
    for dc in spec.constraints() {
        let inst = spec.instance(dc.rel());
        for &(rel, eid) in &component.cells {
            if rel != dc.rel() {
                continue;
            }
            for rule in dc.ground_entity(inst, eid) {
                if rule.premises.is_empty() && rule.conclusion.is_none() {
                    falsum = true;
                    continue;
                }
                scratch.rules.push(&rule.premises, rule.conclusion);
            }
        }
        scratch.rule_runs.push((dc.rel(), scratch.rules.len()));
    }
    let entities = |rel: RelId| -> BTreeSet<Eid> {
        component
            .cells
            .iter()
            .filter(|&&(r, _)| r == rel)
            .map(|&(_, eid)| eid)
            .collect()
    };
    for cf in spec.copies() {
        let sig = cf.signature();
        let target = spec.instance(sig.target);
        let source = spec.instance(sig.source);
        let obligations =
            cf.obligations_for_region(target, source, &entities(sig.target), &entities(sig.source));
        for (source_edge, target_edge) in obligations {
            let src_cell = (sig.source, source.tuple(source_edge.lesser).eid);
            if component.cells.contains(&src_cell) {
                scratch.obligations.push(Obligation {
                    source_rel: sig.source,
                    source_edge,
                    target_rel: sig.target,
                    target_edge,
                });
            }
        }
    }
    let mut enc = Encoding::assemble(spec, value_rels, component.clone(), falsum, &mut scratch);
    if mode == TransitivityMode::Eager {
        enc.ground_triangles();
    }
    enc
}

/// The entity components of `spec` by definition: every live cell, with
/// the source and target cells of every enumerated copy obligation
/// merged.  Sorted by each component's least cell.
pub fn reference_components(spec: &Specification) -> Vec<BTreeSet<(RelId, Eid)>> {
    let cells: Vec<(RelId, Eid)> = spec
        .instances()
        .iter()
        .flat_map(|inst| inst.entities().map(move |eid| (inst.rel(), eid)))
        .collect();
    let mut parent: BTreeMap<(RelId, Eid), (RelId, Eid)> = cells.iter().map(|&c| (c, c)).collect();
    fn root(parent: &BTreeMap<(RelId, Eid), (RelId, Eid)>, mut c: (RelId, Eid)) -> (RelId, Eid) {
        while parent[&c] != c {
            c = parent[&c];
        }
        c
    }
    for cf in spec.copies() {
        let sig = cf.signature();
        let target = spec.instance(sig.target);
        let source = spec.instance(sig.source);
        for (s, t) in cf.compatibility_obligations(target, source) {
            let a = root(&parent, (sig.source, source.tuple(s.lesser).eid));
            let b = root(&parent, (sig.target, target.tuple(t.lesser).eid));
            parent.insert(a.max(b), a.min(b));
        }
    }
    let mut groups: BTreeMap<(RelId, Eid), BTreeSet<(RelId, Eid)>> = BTreeMap::new();
    for &c in &cells {
        groups.entry(root(&parent, c)).or_default().insert(c);
    }
    groups.into_values().collect()
}

/// Intersect `answers` into the running certain answers `acc` (`None`
/// before the first model).
fn intersect(acc: &mut Option<BTreeSet<Vec<Value>>>, answers: Vec<Vec<Value>>) {
    let answers: BTreeSet<Vec<Value>> = answers.into_iter().collect();
    *acc = Some(match acc.take() {
        None => answers,
        Some(prev) => prev.intersection(&answers).cloned().collect(),
    });
}

/// The certain answers `acc` collected over every model
/// ([`CertainAnswers::Inconsistent`] when there was none).
fn certain(acc: Option<BTreeSet<Vec<Value>>>) -> CertainAnswers {
    match acc {
        None => CertainAnswers::Inconsistent,
        Some(rows) => CertainAnswers::Answers(rows.into_iter().collect()),
    }
}

/// The certain current answers of `query` over `spec` by enumerating
/// `Mod(S)`: the intersection of its answers over the current instance
/// of every consistent completion.  Refused with
/// [`ReasonError::BudgetExceeded`] when the candidate space exceeds
/// `limit`.
pub fn certain_answers_enumerate(
    spec: &Specification,
    query: &Query,
    limit: usize,
) -> Result<CertainAnswers, ReasonError> {
    let mut acc = None;
    for_each_consistent_completion(spec, limit, |completion| {
        intersect(&mut acc, query.eval(&Database::new(&lst(spec, completion))));
        true
    })?;
    Ok(certain(acc))
}

/// Relations with at most this many tuple slots get COP over every
/// ordered pair of slots; larger ones over every same-entity pair only,
/// so the check stays linear in padding entities.
const ALL_PAIRS_UP_TO: u32 = 64;

/// The answers every front door over one specification must give, as a
/// fresh [`CurrencyEngine`] over it gives them: CPS, COP of every
/// ordered pair of tuple slots (retracted ones and different entities
/// included, up to 64 slots: `ALL_PAIRS_UP_TO`) of every relation and
/// attribute, DCIP of every relation, and the certain answers of every
/// relation's identity query.
pub struct Agreement {
    cop: Vec<(RelId, AttrId, TupleId, TupleId)>,
    rels: Vec<RelId>,
    queries: Vec<Query>,
    expected: Answers,
}

/// One reader's answers to an [`Agreement`]'s queries, in their order.
#[derive(Default)]
struct Answers {
    cps: bool,
    cop: Vec<bool>,
    dcip: Vec<bool>,
    certain: Vec<CertainAnswers>,
}

impl Agreement {
    /// Ask a fresh engine over `spec`.  When `limit > 0` and the
    /// candidate space of `Mod(S)` is at most `limit`, its answers are
    /// first asserted equal to the enumeration oracle's.  `at` names the
    /// specification in failure messages.
    pub fn of(spec: &Specification, limit: usize, at: &str) -> Agreement {
        let mut agreement = Agreement {
            cop: Vec::new(),
            rels: Vec::new(),
            queries: Vec::new(),
            expected: Answers::default(),
        };
        for inst in spec.instances() {
            let (rel, arity, slots) = (inst.rel(), inst.arity(), inst.len() as u32);
            let pairs: Vec<(TupleId, TupleId)> = if slots <= ALL_PAIRS_UP_TO {
                let ids = (0..slots).map(TupleId);
                ids.clone()
                    .flat_map(|u| ids.clone().map(move |v| (u, v)))
                    .collect()
            } else {
                let groups = inst.entity_groups().map(|(_, group)| group);
                groups
                    .flat_map(|g| g.iter().flat_map(|&u| g.iter().map(move |&v| (u, v))))
                    .collect()
            };
            for a in 0..arity {
                let attr = AttrId(a as u32);
                agreement
                    .cop
                    .extend(pairs.iter().map(|&(u, v)| (rel, attr, u, v)));
            }
            agreement.rels.push(rel);
            agreement
                .queries
                .push(SpQuery::identity(rel, arity).to_query(arity));
        }
        let fresh = CurrencyEngine::new(spec, &Options::default()).expect("a valid specification");
        agreement.expected = agreement.ask(&mut &fresh, |_, id| id);
        if limit > 0 {
            if let Some(oracle) = agreement.enumerate(spec, limit) {
                agreement.assert_answers(&oracle, "enumeration", at);
            }
        }
        agreement
    }

    /// Assert that `door` gives every one of these answers.  `ids`
    /// translates the specification's tuple ids into the door's (the
    /// identity for an unsharded door).
    pub fn check<R>(&self, door: &mut R, ids: impl Fn(RelId, TupleId) -> TupleId, at: &str)
    where
        R: ShardReader,
        R::Error: Debug,
    {
        self.assert_answers(&self.ask(door, ids), "door", at);
    }

    fn ask<R>(&self, door: &mut R, ids: impl Fn(RelId, TupleId) -> TupleId) -> Answers
    where
        R: ShardReader,
        R::Error: Debug,
    {
        let cop =
            |&(rel, a, u, v): &_| CurrencyOrderQuery::single(rel, a, ids(rel, u), ids(rel, v));
        Answers {
            cps: door.cps().expect("CPS"),
            cop: (self.cop.iter().map(cop))
                .map(|q| door.cop(&q).expect("COP"))
                .collect(),
            dcip: self
                .rels
                .iter()
                .map(|&rel| door.dcip(rel).expect("DCIP"))
                .collect(),
            certain: (self.queries.iter())
                .map(|q| door.certain_answers(q).expect("certain answers"))
                .collect(),
        }
    }

    /// The answers by one enumeration of `Mod(S)`; `None` when its
    /// candidate space exceeds `limit`.
    fn enumerate(&self, spec: &Specification, limit: usize) -> Option<Answers> {
        let mut cop = vec![true; self.cop.len()];
        let mut first: Vec<Option<NormalInstance>> = vec![None; self.rels.len()];
        let mut dcip = vec![true; self.rels.len()];
        let mut acc = vec![None; self.queries.len()];
        let models = for_each_consistent_completion(spec, limit, |completion| {
            for (&(rel, attr, u, v), holds) in self.cop.iter().zip(&mut cop) {
                *holds &= completion.rel(rel).precedes(attr, u, v);
            }
            let instances = lst(spec, completion);
            for ((rel, first), same) in self.rels.iter().zip(&mut first).zip(&mut dcip) {
                let now = &instances[rel.index()];
                *same &= first.get_or_insert_with(|| now.clone()).set_eq(now);
            }
            let db = Database::new(&instances);
            for (q, acc) in self.queries.iter().zip(&mut acc) {
                intersect(acc, q.eval(&db));
            }
            true
        })
        .ok()?;
        // With Mod(S) = ∅ every COP and DCIP holds vacuously.
        let vacuous = |holds: Vec<bool>| holds.into_iter().map(|h| models == 0 || h).collect();
        Some(Answers {
            cps: models > 0,
            cop: vacuous(cop),
            dcip: vacuous(dcip),
            certain: acc.into_iter().map(certain).collect(),
        })
    }

    fn assert_answers(&self, got: &Answers, who: &str, at: &str) {
        let want = &self.expected;
        assert_eq!(got.cps, want.cps, "CPS, {who}, {at}");
        for ((q, got), want) in self.cop.iter().zip(&got.cop).zip(&want.cop) {
            assert_eq!(
                got, want,
                "COP {q:?} (rel, attr, lesser, greater), {who}, {at}"
            );
        }
        for ((rel, got), want) in self.rels.iter().zip(&got.dcip).zip(&want.dcip) {
            assert_eq!(got, want, "DCIP {rel:?}, {who}, {at}");
        }
        for ((q, got), want) in self.queries.iter().zip(&got.certain).zip(&want.certain) {
            assert_eq!(got, want, "certain answers {q:?}, {who}, {at}");
        }
    }
}

/// Assert that `door`, whose specification is `spec`, answers like a
/// fresh engine over `spec` and, within `limit`, like the enumeration
/// of `Mod(S)` ([`Agreement`]).
pub fn assert_agreement<R>(door: &mut R, spec: &Specification, limit: usize, at: &str)
where
    R: ShardReader,
    R::Error: Debug,
{
    Agreement::of(spec, limit, at).check(door, |_, id| id, at);
}
