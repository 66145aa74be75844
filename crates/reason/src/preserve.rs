//! Currency preservation: CPP, ECP and BCP (paper §4–§5).
//!
//! A collection of copy functions `ρ̄` importing data from sources `D′`
//! into targets `D` is *currency preserving* for a query `Q` when
//! `Mod(S) ≠ ∅` and no extension of `ρ̄` changes the certain current
//! answers to `Q` — the functions already import every value that matters.
//!
//! ## Extensions, concretely
//!
//! Following the paper's definition (§4), an extension `ρ̄ᵉ ∈ Ext(ρ̄)` may,
//! per copy function:
//!
//! * **map an existing unmapped target tuple** to a value-equal source
//!   tuple (mappings that exist are preserved verbatim), or
//! * **import a source tuple as a new target tuple** — only through copy
//!   functions whose signature covers every target attribute, into any
//!   entity that already exists in the target (`π_EID(Dᵉ) = π_EID(D)`).
//!
//! Under set semantics both action families are finite, so `Ext(ρ̄)` is
//! finite and the Πᵖ₃-hard CPP check is implemented exactly by enumerating
//! it.  Extensions that induce identical *order obligations* and identical
//! new tuples have identical `Mod(Sᵉ)`, so the enumeration is deduplicated
//! by that signature — this collapses e.g. the many ways of mapping
//! isolated tuples (which constrain nothing) into one representative.

use crate::ccqa::{certain_answers, CertainAnswers};
use crate::cps::cps;
use crate::error::ReasonError;
use crate::MAX_EXTENSIONS;
use currency_core::{Eid, RelId, Specification, TupleId, Value};
use currency_query::Query;
use std::collections::BTreeSet;

/// A currency-preservation problem: a specification whose relations are
/// split into sources (`D′`) and targets (`D`), plus the query.
///
/// Copy functions are expected to import from `sources` into the remaining
/// relations; the query is posed over the target side.
#[derive(Clone, Copy)]
pub struct PreservationProblem<'a> {
    /// The specification (targets, sources, constraints, copy functions).
    pub spec: &'a Specification,
    /// The relations forming the source collection `D′`.
    pub sources: &'a BTreeSet<RelId>,
    /// The query whose certain current answers must be preserved.
    pub query: &'a Query,
}

/// One *unit action* available when extending the copy functions.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExtensionSlot {
    /// Define `ρ(target) = source` for an existing, currently unmapped
    /// target tuple (the source tuple is value-equal on the signature).
    MapExisting {
        /// Index of the copy function within the specification.
        copy: usize,
        /// The unmapped target tuple.
        target: TupleId,
        /// The source tuple to map it to.
        source: TupleId,
    },
    /// Import `source` as a new tuple of entity `entity` in the copy
    /// function's target relation.
    Import {
        /// Index of the copy function within the specification.
        copy: usize,
        /// The source tuple to import.
        source: TupleId,
        /// The (existing) target entity the new tuple describes.
        entity: Eid,
    },
}

/// Enumerate every unit action available on `spec` (see module docs).
pub(crate) fn extension_slots(
    spec: &Specification,
    sources: &BTreeSet<RelId>,
) -> Vec<ExtensionSlot> {
    let mut slots = Vec::new();
    for (ci, cf) in spec.copies().iter().enumerate() {
        let sig = cf.signature();
        if !sources.contains(&sig.source) || sources.contains(&sig.target) {
            continue; // only functions importing from D′ into D extend
        }
        let target = spec.instance(sig.target);
        let source = spec.instance(sig.source);
        // Map existing unmapped tuples to value-equal source tuples.
        for (tid, t) in target.tuples() {
            if cf.mapping(tid).is_some() {
                continue;
            }
            for (sid, s) in source.tuples() {
                let equal = sig
                    .target_attrs
                    .iter()
                    .zip(&sig.source_attrs)
                    .all(|(ta, sa)| t.value(*ta) == s.value(*sa));
                if equal {
                    slots.push(ExtensionSlot::MapExisting {
                        copy: ci,
                        target: tid,
                        source: sid,
                    });
                }
            }
        }
        // Import new tuples (full-coverage signatures only).
        if sig.covers_all_target_attrs(target.arity()) {
            for (sid, s) in source.tuples() {
                let mut values: Vec<Value> = vec![Value::int(0); target.arity()];
                for (ta, sa) in sig.target_attrs.iter().zip(&sig.source_attrs) {
                    values[ta.index()] = s.value(*sa).clone();
                }
                for eid in target.entities() {
                    if !target.contains_tuple_value(eid, &values) {
                        slots.push(ExtensionSlot::Import {
                            copy: ci,
                            source: sid,
                            entity: eid,
                        });
                    }
                }
            }
        }
    }
    slots
}

/// Apply a set of unit actions, producing the extended specification.
///
/// Returns `None` when the actions are jointly malformed: two actions map
/// the same target tuple, or two imports create the same tuple (set
/// semantics would merge them into one tuple with two images).
pub(crate) fn apply_extension(
    spec: &Specification,
    actions: &[ExtensionSlot],
) -> Option<Specification> {
    let mut out = spec.clone();
    let mut mapped_targets: BTreeSet<(usize, TupleId)> = BTreeSet::new();
    for a in actions {
        match a {
            ExtensionSlot::MapExisting {
                copy,
                target,
                source,
            } => {
                if !mapped_targets.insert((*copy, *target)) {
                    return None; // same tuple mapped twice
                }
                out.copy_mut(*copy).set_mapping(*target, *source);
            }
            ExtensionSlot::Import {
                copy,
                source,
                entity,
            } => {
                let sig = out.copies()[*copy].signature().clone();
                let src_tuple = out.instance(sig.source).tuple(*source).clone();
                let mut values: Vec<Value> = vec![Value::int(0); out.instance(sig.target).arity()];
                for (ta, sa) in sig.target_attrs.iter().zip(&sig.source_attrs) {
                    values[ta.index()] = src_tuple.value(*sa).clone();
                }
                if out
                    .instance(sig.target)
                    .contains_tuple_value(*entity, &values)
                {
                    return None; // set semantics: tuple already present
                }
                let new_id = out
                    .instance_mut(sig.target)
                    .push_tuple(currency_core::Tuple::new(*entity, values))
                    .expect("arity correct by construction");
                out.copy_mut(*copy).set_mapping(new_id, *source);
            }
        }
    }
    Some(out)
}

/// The order-theoretic signature of an extension: the new tuples it
/// creates and the ≺-compatibility obligations its mappings induce.
/// Extensions with equal signatures have equal `Mod(Sᵉ)`.
fn extension_signature(spec: &Specification, ext: &Specification) -> Vec<[u64; 4]> {
    // Hash-free structural signature: serialize obligations and new-tuple
    // records into a canonical vector.  Records are sorted *as units* —
    // sorting their flattened fields would conflate extensions that pair
    // the same endpoints in different orientations (e.g. `{t0→s1, t2→s2}`
    // vs `{t0→s2, t2→s1}`), which have different `Mod(Sᵉ)`.
    let mut sig: Vec<[u64; 4]> = Vec::new();
    for (ci, cf) in ext.copies().iter().enumerate() {
        let s = cf.signature();
        let target = ext.instance(s.target);
        let source = ext.instance(s.source);
        // New tuples (beyond the original instance length), with values
        // identified by their source tuple id.
        let orig_len = spec.instance(s.target).len();
        for (tid, sid) in cf.mappings() {
            if tid.index() >= orig_len {
                sig.push([
                    0xA000_0000_0000_0000 | (ci as u64) << 48,
                    target.tuple(tid).eid.0,
                    sid.0 as u64,
                    0,
                ]);
            }
        }
        for (se, te) in cf.compatibility_obligations(target, source) {
            sig.push([
                0xB000_0000_0000_0000
                    | (ci as u64) << 48
                    | (se.attr.0 as u64) << 24
                    | te.attr.0 as u64,
                ((se.lesser.0 as u64) << 32) | se.greater.0 as u64,
                ((te.lesser.0 as u64) << 32) | te.greater.0 as u64,
                0,
            ]);
        }
    }
    sig.sort_unstable();
    sig
}

/// Drop unit actions that are *individually* inconsistent.
///
/// Consistency is inherited downward along extension inclusion (a
/// consistent completion of a larger extension restricts to one of any
/// smaller extension), so an action whose singleton extension has
/// `Mod = ∅` can never participate in a consistent extension and is
/// safely removed before enumeration.  This prunes e.g. imports into
/// entities that a fixed denial constraint forbids — the dominant slot
/// population in the paper's Theorem 5.1 gadgets.
fn viable_slots(
    spec: &Specification,
    slots: Vec<ExtensionSlot>,
) -> Result<Vec<ExtensionSlot>, ReasonError> {
    let mut out = Vec::with_capacity(slots.len());
    for slot in slots {
        let Some(ext) = apply_extension(spec, std::slice::from_ref(&slot)) else {
            continue;
        };
        if cps(&ext)? {
            out.push(slot);
        }
    }
    Ok(out)
}

/// Decide **CPP**: are the copy functions currency preserving for the
/// query?  (Paper Theorem 5.1: Πᵖ₃-complete for CQ; Πᵖ₂-complete in data
/// complexity.)
pub fn cpp(problem: &PreservationProblem) -> Result<bool, ReasonError> {
    let base = certain_answers(problem.spec, problem.query)?;
    if base == CertainAnswers::Inconsistent {
        return Ok(false); // definition clause (a): Mod(S) must be nonempty
    }
    let slots = viable_slots(problem.spec, extension_slots(problem.spec, problem.sources))?;
    let mut seen: BTreeSet<Vec<[u64; 4]>> = BTreeSet::new();
    let mut budget = MAX_EXTENSIONS;
    let mut changed = false;
    for_each_choice(&slots, &mut Vec::new(), 0, &mut budget, &mut |actions| {
        if actions.is_empty() {
            return Ok(true); // ρ̄ itself is not in Ext(ρ̄)
        }
        let Some(ext) = apply_extension(problem.spec, actions) else {
            return Ok(true);
        };
        if !seen.insert(extension_signature(problem.spec, &ext)) {
            return Ok(true); // equivalent extension already checked
        }
        if !cps(&ext)? {
            return Ok(true); // Mod(Sᵉ) = ∅: not quantified over
        }
        let ans = certain_answers(&ext, problem.query)?;
        if ans != base {
            changed = true;
            return Ok(false); // witness found: stop the enumeration
        }
        Ok(true)
    })?;
    Ok(!changed)
}

/// Decide **ECP**: can the copy functions be extended into a currency
/// preserving collection?  By the paper's Proposition 5.2 this is `O(1)`:
/// the answer is *yes* exactly when the specification is consistent (a
/// maximum extension is always currency preserving).
pub fn ecp(problem: &PreservationProblem) -> Result<bool, ReasonError> {
    cps(problem.spec)
}

/// Construct the *maximum extension* of Proposition 5.2's proof: greedily
/// add every unit action that keeps the specification consistent.  The
/// result is currency preserving for every query.
pub fn maximum_extension(
    spec: &Specification,
    sources: &BTreeSet<RelId>,
) -> Result<Specification, ReasonError> {
    if !cps(spec)? {
        return Err(ReasonError::UnsupportedQuery {
            detail: "maximum_extension requires a consistent specification".to_string(),
        });
    }
    let mut current = spec.clone();
    // Slots are recomputed against the evolving specification so that a
    // tuple mapped by an accepted action is not offered again.
    loop {
        let slots = extension_slots(&current, sources);
        let mut advanced = false;
        for slot in slots {
            if let Some(candidate) = apply_extension(&current, std::slice::from_ref(&slot)) {
                if cps(&candidate)? {
                    current = candidate;
                    advanced = true;
                }
            }
        }
        if !advanced {
            return Ok(current);
        }
    }
}

/// Decide **BCP**: does a currency preserving extension adding at most `k`
/// mappings exist?  (Paper Theorem 5.3: Σᵖ₄-complete for CQ; Σᵖ₃-complete
/// in data complexity.)
pub fn bcp(problem: &PreservationProblem, k: usize) -> Result<bool, ReasonError> {
    if !cps(problem.spec)? {
        return Ok(false);
    }
    let slots = viable_slots(problem.spec, extension_slots(problem.spec, problem.sources))?;
    let mut budget = MAX_EXTENSIONS;
    let mut found = false;
    for_each_bounded_choice(&slots, k, &mut Vec::new(), 0, &mut budget, &mut |actions| {
        if actions.is_empty() {
            return Ok(true);
        }
        let Some(ext) = apply_extension(problem.spec, actions) else {
            return Ok(true);
        };
        if !cps(&ext)? {
            return Ok(true);
        }
        let sub = PreservationProblem {
            spec: &ext,
            sources: problem.sources,
            query: problem.query,
        };
        if cpp(&sub)? {
            found = true;
            return Ok(false);
        }
        Ok(true)
    })?;
    Ok(found)
}

/// Enumerate subsets of unit actions (each slot in or out), with at most
/// one mapping per target tuple enforced downstream by `apply_extension`.
fn for_each_choice(
    slots: &[ExtensionSlot],
    chosen: &mut Vec<ExtensionSlot>,
    ix: usize,
    budget: &mut usize,
    f: &mut impl FnMut(&[ExtensionSlot]) -> Result<bool, ReasonError>,
) -> Result<bool, ReasonError> {
    if ix == slots.len() {
        if *budget == 0 {
            return Err(ReasonError::BudgetExceeded {
                what: "copy-function extension enumeration",
                budget: MAX_EXTENSIONS,
                spent: MAX_EXTENSIONS + 1,
            });
        }
        *budget -= 1;
        return f(chosen);
    }
    if !for_each_choice(slots, chosen, ix + 1, budget, f)? {
        return Ok(false);
    }
    chosen.push(slots[ix].clone());
    let cont = for_each_choice(slots, chosen, ix + 1, budget, f)?;
    chosen.pop();
    Ok(cont)
}

/// Like [`for_each_choice`] but with at most `k` chosen slots.
fn for_each_bounded_choice(
    slots: &[ExtensionSlot],
    k: usize,
    chosen: &mut Vec<ExtensionSlot>,
    ix: usize,
    budget: &mut usize,
    f: &mut impl FnMut(&[ExtensionSlot]) -> Result<bool, ReasonError>,
) -> Result<bool, ReasonError> {
    if ix == slots.len() {
        if *budget == 0 {
            return Err(ReasonError::BudgetExceeded {
                what: "bounded copy-function extension enumeration",
                budget: MAX_EXTENSIONS,
                spent: MAX_EXTENSIONS + 1,
            });
        }
        *budget -= 1;
        return f(chosen);
    }
    if !for_each_bounded_choice(slots, k, chosen, ix + 1, budget, f)? {
        return Ok(false);
    }
    if chosen.len() < k {
        chosen.push(slots[ix].clone());
        let cont = for_each_bounded_choice(slots, k, chosen, ix + 1, budget, f)?;
        chosen.pop();
        if !cont {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use currency_core::{AttrId, Catalog, CopyFunction, CopySignature, RelationSchema, Tuple};
    use currency_query::{Atom, Formula, QueryBuilder, Term as QTerm};

    const A: AttrId = AttrId(0);

    /// Target R(A) with entity 1 = {10}; source S(A) with entity 1 tuples
    /// {10, 20} ordered 10 ≺ 20.  The copy function maps nothing yet.
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

    fn value_query(r: RelId) -> Query {
        let mut b = QueryBuilder::new();
        let x = b.var();
        b.build(vec![x], Formula::Atom(Atom::new(r, vec![QTerm::Var(x)])))
    }

    #[test]
    fn slots_cover_maps_and_imports() {
        let (spec, _, _) = importing_spec();
        let sources: BTreeSet<RelId> = [RelId(1)].into();
        let slots = extension_slots(&spec, &sources);
        let maps = slots
            .iter()
            .filter(|s| matches!(s, ExtensionSlot::MapExisting { .. }))
            .count();
        let imports = slots
            .iter()
            .filter(|s| matches!(s, ExtensionSlot::Import { .. }))
            .count();
        assert_eq!(maps, 1, "target tuple 10 can map to source tuple 10");
        assert_eq!(imports, 1, "source 20 importable into entity 1");
    }

    #[test]
    fn empty_copy_function_is_not_preserving_when_imports_matter() {
        let (spec, r, s) = importing_spec();
        let sources: BTreeSet<RelId> = [s].into();
        let q = value_query(r);
        let problem = PreservationProblem {
            spec: &spec,
            sources: &sources,
            query: &q,
        };
        // Base certain answer: {10}.  Importing source tuple 20 creates a
        // second candidate with no order ⇒ answers become ∅.
        assert!(!cpp(&problem).unwrap());
    }

    #[test]
    fn saturated_copy_function_is_preserving() {
        let (spec, r, s) = importing_spec();
        let sources: BTreeSet<RelId> = [s].into();
        // Build the maximum extension and check CPP on it.
        let maxed = maximum_extension(&spec, &sources).unwrap();
        assert!(
            maxed.instance(r).len() > spec.instance(r).len(),
            "maximum extension imports the missing tuple"
        );
        let q = value_query(r);
        let problem = PreservationProblem {
            spec: &maxed,
            sources: &sources,
            query: &q,
        };
        assert!(cpp(&problem).unwrap());
    }

    #[test]
    fn ecp_is_consistency() {
        let (spec, r, s) = importing_spec();
        let q = value_query(r);
        let sources: BTreeSet<RelId> = [s].into();
        let problem = PreservationProblem {
            spec: &spec,
            sources: &sources,
            query: &q,
        };
        assert!(ecp(&problem).unwrap());
    }

    #[test]
    fn bcp_finds_bounded_extension() {
        let (spec, r, s) = importing_spec();
        let sources: BTreeSet<RelId> = [s].into();
        let q = value_query(r);
        let problem = PreservationProblem {
            spec: &spec,
            sources: &sources,
            query: &q,
        };
        // With k = 2 the extension {map 10→10, import 20} is available and
        // currency preserving (source order 10 ≺ 20 pins the answer to 20).
        assert!(bcp(&problem, 2).unwrap());
    }

    #[test]
    fn bcp_with_zero_budget_fails() {
        let (spec, r, s) = importing_spec();
        let sources: BTreeSet<RelId> = [s].into();
        let q = value_query(r);
        let problem = PreservationProblem {
            spec: &spec,
            sources: &sources,
            query: &q,
        };
        assert!(!bcp(&problem, 0).unwrap());
    }

    #[test]
    fn maximum_extension_is_currency_preserving_for_identity() {
        let (spec, r, s) = importing_spec();
        let sources: BTreeSet<RelId> = [s].into();
        let maxed = maximum_extension(&spec, &sources).unwrap();
        // After saturation the current value of entity 1 is certain: 20
        // (source order imported through the mappings).
        let q = value_query(r);
        let ans = certain_answers(&maxed, &q).unwrap();
        assert_eq!(ans.rows().unwrap(), &[vec![Value::int(20)]]);
    }
}
