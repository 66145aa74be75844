//! CPS — the consistency problem for specifications (paper §3, Thm 3.1).
//!
//! *Is `Mod(S)` nonempty?*  Σᵖ₂-complete in general (NP-complete in data
//! complexity); PTIME without denial constraints (paper Theorem 6.1).

use crate::engine::CurrencyEngine;
use crate::error::ReasonError;
use crate::fixpoint::po_infinity;
use crate::Options;
use currency_core::{Completion, Specification};

/// Decide CPS with automatic engine dispatch: the PTIME fixpoint when the
/// specification has no denial constraints, the SAT-based exact solver
/// otherwise.
pub fn cps(spec: &Specification) -> Result<bool, ReasonError> {
    if spec.has_no_constraints() {
        cps_ptime(spec)
    } else {
        cps_exact(spec)
    }
}

/// Decide CPS with the SAT-based exact solver (sound and complete for
/// arbitrary specifications).  Routes through a transient
/// [`CurrencyEngine`], solving each entity component independently; for
/// repeated queries over one specification, build the engine once
/// instead.
pub fn cps_exact(spec: &Specification) -> Result<bool, ReasonError> {
    CurrencyEngine::with_value_rels(spec, &[], &Options::default())?.cps()
}

/// Decide CPS with the PTIME fixpoint of paper Theorem 6.1.
///
/// Only complete for specifications without denial constraints; the
/// dispatcher [`cps`] guards this.
pub fn cps_ptime(spec: &Specification) -> Result<bool, ReasonError> {
    debug_assert!(
        spec.has_no_constraints(),
        "cps_ptime requires a constraint-free specification"
    );
    Ok(po_infinity(spec)?.is_some())
}

/// Produce a witness completion from `Mod(S)`, if one exists.
///
/// Uses the SAT engine regardless of constraints (the decoded model *is*
/// the witness); `Ok(None)` means the specification is inconsistent.
pub fn witness_completion(spec: &Specification) -> Result<Option<Completion>, ReasonError> {
    CurrencyEngine::with_value_rels(spec, &[], &Options::default())?.witness_completion()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::cps_enumerate;
    use currency_core::{
        AttrId, Catalog, CmpOp, CopyFunction, CopySignature, DenialConstraint, Eid, RelId,
        RelationSchema, Term, Tuple, TupleId, Value,
    };

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);

    fn base_spec() -> (Specification, RelId) {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A", "B"]));
        let mut spec = Specification::new(cat);
        for (a, b) in [(10, 1), (20, 2)] {
            spec.instance_mut(r)
                .push_tuple(Tuple::new(Eid(1), vec![Value::int(a), Value::int(b)]))
                .unwrap();
        }
        (spec, r)
    }

    #[test]
    fn unconstrained_spec_is_consistent() {
        let (spec, _) = base_spec();
        assert!(cps(&spec).unwrap());
        assert!(cps_exact(&spec).unwrap());
        assert!(cps_enumerate(&spec, 1000).unwrap());
    }

    #[test]
    fn contradictory_constraints_are_inconsistent() {
        let (mut spec, r) = base_spec();
        // Higher A ⇒ more current in B, and higher B ⇒ LESS current in B.
        let dc1 = DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
            .then_order(1, B, 0)
            .build()
            .unwrap();
        let dc2 = DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, B), CmpOp::Gt, Term::attr(1, B))
            .then_order(0, B, 1)
            .build()
            .unwrap();
        spec.add_constraint(dc1).unwrap();
        spec.add_constraint(dc2).unwrap();
        assert!(!cps(&spec).unwrap());
        assert!(!cps_exact(&spec).unwrap());
        assert!(!cps_enumerate(&spec, 1000).unwrap());
        assert!(witness_completion(&spec).unwrap().is_none());
    }

    #[test]
    fn witness_is_consistent_and_respects_constraints() {
        let (mut spec, r) = base_spec();
        let dc = DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
            .then_order(1, A, 0)
            .build()
            .unwrap();
        spec.add_constraint(dc).unwrap();
        let w = witness_completion(&spec).unwrap().expect("consistent");
        assert!(w.is_consistent_for(&spec));
        assert!(w.rel(r).precedes(A, TupleId(0), TupleId(1)));
    }

    #[test]
    fn example_2_3_interaction_of_copy_and_orders() {
        // A copy function importing contradictory order information makes
        // the specification inconsistent (shape of paper Example 2.3).
        let mut cat = Catalog::new();
        let d = cat.add(RelationSchema::new("Dept", &["budget"]));
        let s = cat.add(RelationSchema::new("Src", &["budget"]));
        let mut spec = Specification::new(cat);
        let d1 = spec
            .instance_mut(d)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(6500)]))
            .unwrap();
        let d2 = spec
            .instance_mut(d)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(6000)]))
            .unwrap();
        let s1 = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(7), vec![Value::int(6500)]))
            .unwrap();
        let s2 = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(7), vec![Value::int(6000)]))
            .unwrap();
        // The database itself orders d1 before d2 ...
        spec.instance_mut(d).add_order(A, d1, d2).unwrap();
        // ... but the source's currency order says the opposite.
        spec.instance_mut(s).add_order(A, s2, s1).unwrap();
        let sig = CopySignature::new(d, vec![A], s, vec![A]).unwrap();
        let mut cf = CopyFunction::new(sig);
        cf.set_mapping(d1, s1);
        cf.set_mapping(d2, s2);
        spec.add_copy(cf).unwrap();
        assert!(!cps(&spec).unwrap(), "copy vs initial orders conflict");
        assert!(!cps_exact(&spec).unwrap());
    }

    #[test]
    fn exact_and_ptime_agree_without_constraints() {
        let (mut spec, r) = base_spec();
        spec.instance_mut(r)
            .add_order(A, TupleId(0), TupleId(1))
            .unwrap();
        assert_eq!(cps_ptime(&spec).unwrap(), cps_exact(&spec).unwrap());
    }
}
