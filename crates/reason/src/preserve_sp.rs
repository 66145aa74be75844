//! PTIME currency preservation for SP queries without denial constraints
//! (paper Theorem 6.4).
//!
//! The exact CPP check quantifies over the exponential extension space.
//! For SP queries over constraint-free specifications the paper shows a
//! polynomial algorithm; its engine is the observation that in this
//! regime the certain answers are a *deterministic function* of the
//! specification — `Q̂(poss(Sᵉ))`, one row per entity — and that whether an
//! extension can disturb an entity's row is detectable by polynomially
//! many *atomic spoiler* extensions:
//!
//! * a single import of a source tuple into the entity (a new candidate
//!   current value, possibly order-constrained through its mapping);
//! * a single mapping of one existing tuple (constrains nothing alone but
//!   participates in pairs with existing mappings);
//! * a *pair* of mappings whose targets share an entity and whose sources
//!   share an entity — the smallest mapping sets that import source
//!   order into the target (and export target order back).
//!
//! The decision then follows the proof's two conditions:
//!
//! * **(C2)** some atomic extension already changes the global answer set
//!   (a row appears or disappears outright) → not preserving;
//! * **(C1)** some base row `r₁` can be *removed* compositionally: every
//!   entity producing `r₁` has an atomic extension steering it away from
//!   `r₁` (the paper's per-entity flags; the composed extension removes
//!   the row even though each atomic piece leaves the answer set intact
//!   because another entity still produced `r₁`).
//!
//! Everything is polynomial: the atomic extension families have
//! polynomially many members and each is evaluated with the PTIME
//! fixpoint `PO∞` and `poss`.

use crate::error::ReasonError;
use crate::preserve::{apply_extension, extension_slots, ExtensionSlot};
use crate::sp_ptime::poss_instance;
use crate::Options;
use currency_core::{Eid, RelId, Specification, Value};
use currency_query::SpQuery;
use std::collections::{BTreeMap, BTreeSet};

/// The per-entity answer rows of an SP query: `None` entries are entities
/// whose row is suppressed (selection failed or a projected cell is
/// uncertain).  The certain answer set is the set of `Some` rows.
type EntityRows = BTreeMap<Eid, Option<Vec<Value>>>;

/// The per-entity answer rows of an SP query over `poss(S)`; `Ok(None)`
/// when the specification is inconsistent.
fn rows_by_entity(
    spec: &Specification,
    query: &SpQuery,
) -> Result<Option<EntityRows>, ReasonError> {
    let Some(poss) = poss_instance(spec, query.rel)? else {
        return Ok(None);
    };
    let mut out = BTreeMap::new();
    for t in poss.iter() {
        let row = if query.matches(t) {
            let projected = query.project(t);
            if projected.iter().any(Value::is_fresh) {
                None
            } else {
                Some(projected)
            }
        } else {
            None
        };
        out.insert(t.eid, row);
    }
    Ok(Some(out))
}

fn answer_set(rows: &EntityRows) -> BTreeSet<Vec<Value>> {
    rows.values().filter_map(|r| r.clone()).collect()
}

/// The `(copy, target entity)` class of a unit action: the copy function
/// it extends and the target entity whose tuple set or mappings it grows.
fn slot_class(spec: &Specification, slot: &ExtensionSlot) -> (usize, Eid) {
    match slot {
        ExtensionSlot::MapExisting { copy, target, .. } => {
            let sig = spec.copies()[*copy].signature();
            (*copy, spec.instance(sig.target).tuple(*target).eid)
        }
        ExtensionSlot::Import { copy, entity, .. } => (*copy, *entity),
    }
}

/// The atomic spoiler extensions: single slots, all well-formed action
/// pairs, and greedy saturations (per target-entity class and global).
///
/// Every member is a genuine extension and is *evaluated* (never assumed)
/// by the caller, so enlarging this family can only make [`cpp_sp`] more
/// complete, never unsound.  The families are chosen to reach the known
/// spoiler shapes:
///
/// * **singles** — an import adding an unordered candidate value, or a
///   mapping pairing with existing mappings;
/// * **pairs** — the smallest action sets that import source order on
///   their own (including pairs sharing one source tuple, which pin
///   values through a pre-existing third mapping, and pairs spanning
///   target entities coupled through a shared source entity);
/// * **triples within one source entity** — order one target entity
///   exports into a source entity through a new mapping and another
///   imports through two, or an import placed between two new mappings
///   (the shapes the Theorem 6.4 seed sweep found no pair or greedy
///   chain reaches);
/// * **saturations** — greedy maximal well-formed action sets, per
///   `(copy, target entity)` class and globally, one per starting slot:
///   chains of three or more mappings can pin a current value no pair
///   pins, and the greedy closure from each start reaches them.
fn atomic_extensions(spec: &Specification, sources: &BTreeSet<RelId>) -> Vec<Vec<ExtensionSlot>> {
    let slots = extension_slots(spec, sources);
    let classes: Vec<(usize, Eid)> = slots.iter().map(|s| slot_class(spec, s)).collect();
    let mut out: Vec<Vec<ExtensionSlot>> = slots.iter().map(|s| vec![s.clone()]).collect();
    // Pairs.
    for i in 0..slots.len() {
        for j in (i + 1)..slots.len() {
            let pair = vec![slots[i].clone(), slots[j].clone()];
            if apply_extension(spec, &pair).is_some() {
                out.push(pair);
            }
        }
    }
    // All-to-one families: for each (copy, target entity, source tuple),
    // the set of every action assigning that source tuple within the
    // entity.  Mapping all of an entity's unmapped tuples to one source
    // tuple leaves them mutually unordered but places each below/above the
    // entity's *pre-existing* mappings, which can pin a current value no
    // pair or greedy chain pins.
    {
        let mut by_source: BTreeMap<(usize, Eid, currency_core::TupleId), Vec<usize>> =
            BTreeMap::new();
        for (i, slot) in slots.iter().enumerate() {
            let (copy, entity) = classes[i];
            let source = match slot {
                ExtensionSlot::MapExisting { source, .. } => *source,
                ExtensionSlot::Import { source, .. } => *source,
            };
            by_source.entry((copy, entity, source)).or_default().push(i);
        }
        for group in by_source.values() {
            if group.len() < 2 {
                continue;
            }
            let actions: Vec<ExtensionSlot> = group.iter().map(|&i| slots[i].clone()).collect();
            if apply_extension(spec, &actions).is_some() {
                out.push(actions);
            }
        }
    }
    // Triples within one source entity: order that one target entity's
    // mapping exports into the source entity and two mappings of another
    // import back, or an import pinned between two mappings.
    let mut by_source_entity: BTreeMap<(usize, Eid), Vec<usize>> = BTreeMap::new();
    for (i, slot) in slots.iter().enumerate() {
        let (ExtensionSlot::MapExisting { copy, source, .. }
        | ExtensionSlot::Import { copy, source, .. }) = *slot;
        let sig = spec.copies()[copy].signature();
        let eid = spec.instance(sig.source).tuple(source).eid;
        by_source_entity.entry((copy, eid)).or_default().push(i);
    }
    for group in by_source_entity.values() {
        for (a, &i) in group.iter().enumerate() {
            for (b, &j) in group.iter().enumerate().skip(a + 1) {
                for &l in &group[b + 1..] {
                    let triple = vec![slots[i].clone(), slots[j].clone(), slots[l].clone()];
                    if apply_extension(spec, &triple).is_some() {
                        out.push(triple);
                    }
                }
            }
        }
    }
    // Greedy saturations from each starting slot: class-local (only slots
    // of the start's (copy, target entity) class) and global (all slots).
    for start in 0..slots.len() {
        for class_local in [true, false] {
            let mut actions: Vec<ExtensionSlot> = vec![slots[start].clone()];
            for (j, slot) in slots.iter().enumerate() {
                if j == start || (class_local && classes[j] != classes[start]) {
                    continue;
                }
                let mut candidate = actions.clone();
                candidate.push(slot.clone());
                if apply_extension(spec, &candidate).is_some() {
                    actions = candidate;
                }
            }
            if actions.len() > 2 {
                out.push(actions);
            }
        }
    }
    out
}

/// Decide CPP for an SP query over a constraint-free specification in
/// polynomial time (paper Theorem 6.4).
pub fn cpp_sp(
    spec: &Specification,
    sources: &BTreeSet<RelId>,
    query: &SpQuery,
) -> Result<bool, ReasonError> {
    debug_assert!(
        spec.has_no_constraints(),
        "cpp_sp requires a constraint-free specification"
    );
    let Some(base_rows) = rows_by_entity(spec, query)? else {
        return Ok(false); // Mod(S) = ∅: not preserving by definition
    };
    let base_answers = answer_set(&base_rows);
    // Evaluate every atomic extension once.  For each entity and base row,
    // remember the first atomic extension that steers the entity away from
    // the row (for the compositional C1 check).
    let mut steer_away: BTreeMap<(Eid, Vec<Value>), Vec<ExtensionSlot>> = BTreeMap::new();
    for actions in atomic_extensions(spec, sources) {
        let Some(ext) = apply_extension(spec, &actions) else {
            continue;
        };
        let Some(rows) = rows_by_entity(&ext, query)? else {
            continue; // inconsistent extension: not quantified over
        };
        // (C2): the answer set itself moved.
        if answer_set(&rows) != base_answers {
            return Ok(false);
        }
        for (eid, base_row) in &base_rows {
            if let Some(r1) = base_row {
                if rows.get(eid).cloned().flatten().as_ref() != Some(r1) {
                    steer_away
                        .entry((*eid, r1.clone()))
                        .or_insert_with(|| actions.clone());
                }
            }
        }
    }
    // (C1): some base row removable at every entity that produces it.  The
    // composed extension is *verified*, not assumed: steering actions at
    // one entity can import order that re-pins another entity's row, so
    // the per-entity flags alone would over-report.
    for r1 in &base_answers {
        let producers: Vec<Eid> = base_rows
            .iter()
            .filter(|(_, row)| row.as_ref() == Some(r1))
            .map(|(e, _)| *e)
            .collect();
        if producers.is_empty() {
            continue;
        }
        let mut combo: Vec<ExtensionSlot> = Vec::new();
        let mut complete = true;
        for e in &producers {
            match steer_away.get(&(*e, r1.clone())) {
                Some(actions) => combo.extend(actions.iter().cloned()),
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if !complete {
            continue;
        }
        combo.sort();
        combo.dedup();
        let Some(ext) = apply_extension(spec, &combo) else {
            continue;
        };
        let Some(rows) = rows_by_entity(&ext, query)? else {
            continue;
        };
        if answer_set(&rows) != base_answers {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Decide BCP for an SP query over a constraint-free specification with a
/// fixed bound `k` in polynomial time (paper Theorem 6.4): enumerate the
/// polynomially many extensions of at most `k` unit actions and test each
/// with [`cpp_sp`].
pub fn bcp_sp(
    spec: &Specification,
    sources: &BTreeSet<RelId>,
    query: &SpQuery,
    k: usize,
    opts: &Options,
) -> Result<bool, ReasonError> {
    debug_assert!(
        spec.has_no_constraints(),
        "bcp_sp requires a constraint-free specification"
    );
    if poss_instance(spec, query.rel)?.is_none() {
        return Ok(false);
    }
    let slots = extension_slots(spec, sources);
    let mut budget = opts.max_extensions;
    let mut chosen: Vec<ExtensionSlot> = Vec::new();
    #[allow(clippy::too_many_arguments)] // local recursion carries its whole state
    fn recurse(
        spec: &Specification,
        sources: &BTreeSet<RelId>,
        query: &SpQuery,
        slots: &[ExtensionSlot],
        k: usize,
        ix: usize,
        chosen: &mut Vec<ExtensionSlot>,
        limit: usize,
        budget: &mut usize,
    ) -> Result<bool, ReasonError> {
        if !chosen.is_empty() {
            if *budget == 0 {
                return Err(ReasonError::BudgetExceeded {
                    what: "bounded SP extension enumeration",
                    budget: limit,
                    spent: limit.saturating_add(1),
                });
            }
            *budget -= 1;
            if let Some(ext) = apply_extension(spec, chosen) {
                if poss_instance(&ext, query.rel)?.is_some() && cpp_sp(&ext, sources, query)? {
                    return Ok(true);
                }
            }
        }
        if chosen.len() == k || ix == slots.len() {
            return Ok(false);
        }
        for j in ix..slots.len() {
            chosen.push(slots[j].clone());
            if recurse(spec, sources, query, slots, k, j + 1, chosen, limit, budget)? {
                return Ok(true);
            }
            chosen.pop();
        }
        Ok(false)
    }
    recurse(
        spec,
        sources,
        query,
        &slots,
        k,
        0,
        &mut chosen,
        opts.max_extensions,
        &mut budget,
    )
}

/// Certain answers used by tests: the SP answer set.
#[cfg(test)]
fn sp_answers(spec: &Specification, q: &SpQuery) -> crate::ccqa::CertainAnswers {
    crate::sp_ptime::certain_answers_sp(spec, q).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use currency_core::{
        AttrId, Catalog, CopyFunction, CopySignature, RelationSchema, Tuple, TupleId,
    };

    const A: AttrId = AttrId(0);

    /// Target R(A): entity 1 = {10}; source S(A): entity 1 = {10 ≺ 20}.
    fn importing_spec() -> (Specification, RelId, RelId) {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let s = cat.add(RelationSchema::new("S", &["A"]));
        let mut spec = Specification::new(cat);
        spec.instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(10)]))
            .unwrap();
        let s0 = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(10)]))
            .unwrap();
        let s1 = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(20)]))
            .unwrap();
        spec.instance_mut(s).add_order(A, s0, s1).unwrap();
        let sig = CopySignature::new(r, vec![A], s, vec![A]).unwrap();
        spec.add_copy(CopyFunction::new(sig)).unwrap();
        (spec, r, s)
    }

    fn identity(r: RelId) -> SpQuery {
        SpQuery::identity(r, 1)
    }

    #[test]
    fn import_spoiler_detected() {
        let (spec, r, s) = importing_spec();
        let sources: BTreeSet<RelId> = [s].into();
        assert!(!cpp_sp(&spec, &sources, &identity(r)).unwrap());
    }

    #[test]
    fn saturated_spec_is_preserving() {
        let (mut spec, r, s) = importing_spec();
        // Map the existing tuple and import the newer one by hand.
        let new_t = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(20)]))
            .unwrap();
        {
            let cf = spec.copy_mut(0);
            cf.set_mapping(TupleId(0), TupleId(0));
            cf.set_mapping(new_t, TupleId(1));
        }
        spec.validate().unwrap();
        let sources: BTreeSet<RelId> = [s].into();
        assert!(cpp_sp(&spec, &sources, &identity(r)).unwrap());
        // Sanity: the certain answer is pinned to 20 by the imported order.
        assert_eq!(
            sp_answers(&spec, &identity(r)).rows().unwrap(),
            &[vec![Value::int(20)]]
        );
    }

    #[test]
    fn bcp_sp_finds_two_action_extension() {
        let (spec, r, s) = importing_spec();
        let sources: BTreeSet<RelId> = [s].into();
        assert!(!bcp_sp(&spec, &sources, &identity(r), 0, &Options::default()).unwrap());
        assert!(bcp_sp(&spec, &sources, &identity(r), 2, &Options::default()).unwrap());
    }

    #[test]
    fn no_sources_means_trivially_preserving() {
        let (spec, r, _) = importing_spec();
        let sources: BTreeSet<RelId> = BTreeSet::new();
        // Without declared sources there are no extensions at all.
        assert!(cpp_sp(&spec, &sources, &identity(r)).unwrap());
    }
}
