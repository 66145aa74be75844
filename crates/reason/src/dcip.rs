//! DCIP — the deterministic current instance problem (paper §3, Thm 3.4).
//!
//! *Do all consistent completions induce the same current instance of a
//! relation `R`?*  Πᵖ₂-complete in general (coNP-complete in data
//! complexity); PTIME without denial constraints: all sinks of `PO∞` per
//! entity must agree on each attribute value (paper Theorem 6.1).
//!
//! As with COP, an inconsistent specification is vacuously deterministic.

use crate::engine::CurrencyEngine;
use crate::error::ReasonError;
use crate::fixpoint::po_infinity;
use crate::Options;
use currency_core::{AttrId, RelId, Specification};

/// Decide DCIP with automatic engine dispatch.
pub fn dcip(spec: &Specification, rel: RelId) -> Result<bool, ReasonError> {
    if spec.has_no_constraints() {
        dcip_ptime(spec, rel)
    } else {
        dcip_exact(spec, rel)
    }
}

/// Decide DCIP with the SAT engine: enumerate realizable current instances
/// of `rel` via projected All-SAT over the value indicators and check that
/// at most one distinct instance exists.  Routes through a transient
/// [`CurrencyEngine`], which enumerates per entity component; for repeated
/// queries build the engine once instead.
pub fn dcip_exact(spec: &Specification, rel: RelId) -> Result<bool, ReasonError> {
    CurrencyEngine::with_value_rels(spec, &[rel], &Options::default())?.dcip(rel)
}

/// Decide DCIP with the PTIME sink test (no denial constraints).
///
/// A relation is deterministic iff, for every entity and attribute, all
/// sinks of `PO∞` restricted to the entity agree on the attribute's value.
pub fn dcip_ptime(spec: &Specification, rel: RelId) -> Result<bool, ReasonError> {
    debug_assert!(
        spec.has_no_constraints(),
        "dcip_ptime requires a constraint-free specification"
    );
    let Some(po) = po_infinity(spec)? else {
        return Ok(true); // inconsistent: vacuously deterministic
    };
    let inst = spec.instance(rel);
    for (_eid, group) in inst.entity_groups() {
        for a in 0..inst.arity() {
            let attr = AttrId(a as u32);
            let sinks = po.order(rel, attr).sinks(group);
            let mut values = sinks.iter().map(|&t| inst.tuple(t).value(attr));
            if let Some(first) = values.next() {
                if values.any(|v| v != first) {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use currency_core::{
        Catalog, CmpOp, DenialConstraint, Eid, RelationSchema, Term, Tuple, TupleId, Value,
    };

    const A: AttrId = AttrId(0);

    fn spec_with(vals: &[i64]) -> (Specification, RelId) {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        for &v in vals {
            spec.instance_mut(r)
                .push_tuple(Tuple::new(Eid(1), vec![Value::int(v)]))
                .unwrap();
        }
        (spec, r)
    }

    #[test]
    fn unconstrained_distinct_values_are_nondeterministic() {
        let (spec, r) = spec_with(&[1, 2]);
        assert!(!dcip(&spec, r).unwrap());
        assert!(!dcip_exact(&spec, r).unwrap());
    }

    #[test]
    fn equal_values_are_deterministic() {
        let (spec, r) = spec_with(&[7, 7]);
        assert!(dcip(&spec, r).unwrap());
        assert!(dcip_exact(&spec, r).unwrap());
    }

    #[test]
    fn total_initial_order_is_deterministic() {
        let (mut spec, r) = spec_with(&[1, 2]);
        spec.instance_mut(r)
            .add_order(A, TupleId(0), TupleId(1))
            .unwrap();
        assert!(dcip(&spec, r).unwrap());
        assert!(dcip_exact(&spec, r).unwrap());
    }

    #[test]
    fn constraint_pins_instance() {
        let (mut spec, r) = spec_with(&[10, 20, 15]);
        let dc = DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
            .then_order(1, A, 0)
            .build()
            .unwrap();
        spec.add_constraint(dc).unwrap();
        assert!(dcip(&spec, r).unwrap());
    }

    #[test]
    fn inconsistent_spec_is_vacuously_deterministic() {
        let (mut spec, r) = spec_with(&[10, 20]);
        let dc = DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
            .then_order(1, A, 0)
            .build()
            .unwrap();
        spec.add_constraint(dc).unwrap();
        spec.instance_mut(r)
            .add_order(A, TupleId(1), TupleId(0))
            .unwrap();
        assert!(dcip(&spec, r).unwrap());
    }

    #[test]
    fn ptime_and_exact_agree_without_constraints() {
        for vals in [&[1i64, 2][..], &[3, 3], &[1, 2, 3]] {
            let (spec, r) = spec_with(vals);
            assert_eq!(
                dcip_ptime(&spec, r).unwrap(),
                dcip_exact(&spec, r).unwrap(),
                "vals = {vals:?}"
            );
        }
    }
}
