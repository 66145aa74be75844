//! COP — the certain ordering problem (paper §3, Thm 3.4).
//!
//! *Is a given currency order contained in every consistent completion?*
//! Πᵖ₂-complete in general (coNP-complete in data complexity); PTIME
//! without denial constraints via containment in `PO∞` (Lemma 6.2).
//!
//! Note the paper's convention: when the specification is inconsistent
//! (`Mod(S) = ∅`), every ordering is vacuously certain.

use crate::engine::CurrencyEngine;
use crate::error::ReasonError;
use crate::fixpoint::po_infinity;
use crate::Options;
use currency_core::{AttrId, RelId, Specification, TupleId};

/// A candidate currency order `Ot` for one relation: the pairs whose
/// certainty is being asked about.
///
/// Derives `Hash`/`Eq` so the query itself can serve as a structural
/// cache key (see `currency-serve`'s epoch-keyed answer cache).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CurrencyOrderQuery {
    /// The relation the order speaks about.
    pub rel: RelId,
    /// `(attr, lesser, greater)` pairs.
    pub pairs: Vec<(AttrId, TupleId, TupleId)>,
}

impl CurrencyOrderQuery {
    /// A single-pair query: is `lesser ≺_attr greater` certain?
    pub fn single(rel: RelId, attr: AttrId, lesser: TupleId, greater: TupleId) -> Self {
        CurrencyOrderQuery {
            rel,
            pairs: vec![(attr, lesser, greater)],
        }
    }
}

/// Decide COP with automatic engine dispatch.
pub fn cop(spec: &Specification, ot: &CurrencyOrderQuery) -> Result<bool, ReasonError> {
    if spec.has_no_constraints() {
        cop_ptime(spec, ot)
    } else {
        cop_exact(spec, ot)
    }
}

/// Decide COP with the SAT engine: each pair must be entailed, i.e. the
/// encoding plus the negated pair must be unsatisfiable.  Routes through
/// a transient [`CurrencyEngine`] — only the components the pairs touch
/// are queried with assumptions; for repeated queries build the engine
/// once instead.
pub fn cop_exact(spec: &Specification, ot: &CurrencyOrderQuery) -> Result<bool, ReasonError> {
    CurrencyEngine::with_value_rels(spec, &[], &Options::default())?.cop(ot)
}

/// Decide COP with the PTIME fixpoint (no denial constraints): certain
/// pairs are exactly the pairs of `PO∞` (paper Lemma 6.2).
pub fn cop_ptime(spec: &Specification, ot: &CurrencyOrderQuery) -> Result<bool, ReasonError> {
    debug_assert!(
        spec.has_no_constraints(),
        "cop_ptime requires a constraint-free specification"
    );
    match po_infinity(spec)? {
        None => Ok(true), // inconsistent: vacuously certain
        Some(po) => Ok(ot
            .pairs
            .iter()
            .all(|&(attr, l, g)| po.certain(ot.rel, attr, l, g))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use currency_core::{
        Catalog, CmpOp, DenialConstraint, Eid, RelationSchema, Term, Tuple, Value,
    };

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);

    fn salary_spec(constrained: bool) -> (Specification, RelId) {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("Emp", &["salary", "address"]));
        let mut spec = Specification::new(cat);
        for (s, addr) in [(50, "2 Small St"), (80, "6 Main St")] {
            spec.instance_mut(r)
                .push_tuple(Tuple::new(Eid(1), vec![Value::int(s), Value::str(addr)]))
                .unwrap();
        }
        if constrained {
            // φ₁: higher salary ⇒ more current salary.
            let dc = DenialConstraint::builder(r, 2)
                .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
                .then_order(1, A, 0)
                .build()
                .unwrap();
            spec.add_constraint(dc).unwrap();
            // φ₃: more current salary ⇒ more current address.
            let dc3 = DenialConstraint::builder(r, 2)
                .when_order(0, A, 1)
                .then_order(0, B, 1)
                .build()
                .unwrap();
            spec.add_constraint(dc3).unwrap();
        }
        (spec, r)
    }

    #[test]
    fn constraint_entailed_pair_is_certain() {
        let (spec, r) = salary_spec(true);
        // Example 3.2 shape: s1 ≺salary s3 is assured by φ₁.
        let q = CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1));
        assert!(cop(&spec, &q).unwrap());
        // Derived through φ₃: the address order follows the salary order.
        let q2 = CurrencyOrderQuery::single(r, B, TupleId(0), TupleId(1));
        assert!(cop(&spec, &q2).unwrap());
        // The reverse is not certain.
        let q3 = CurrencyOrderQuery::single(r, A, TupleId(1), TupleId(0));
        assert!(!cop(&spec, &q3).unwrap());
    }

    #[test]
    fn unconstrained_pairs_are_not_certain() {
        let (spec, r) = salary_spec(false);
        let q = CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1));
        assert!(!cop(&spec, &q).unwrap());
        assert!(!cop_exact(&spec, &q).unwrap());
    }

    #[test]
    fn initial_orders_are_certain_in_both_engines() {
        let (mut spec, r) = salary_spec(false);
        spec.instance_mut(r)
            .add_order(A, TupleId(1), TupleId(0))
            .unwrap();
        let q = CurrencyOrderQuery::single(r, A, TupleId(1), TupleId(0));
        assert!(cop_ptime(&spec, &q).unwrap());
        assert!(cop_exact(&spec, &q).unwrap());
    }

    #[test]
    fn reflexive_pairs_are_never_certain() {
        let (spec, r) = salary_spec(true);
        let q = CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(0));
        assert!(!cop(&spec, &q).unwrap());
    }

    #[test]
    fn inconsistent_spec_makes_everything_certain() {
        let (mut spec, r) = salary_spec(true);
        // Force the opposite of what φ₁ derives: inconsistent.
        spec.instance_mut(r)
            .add_order(A, TupleId(1), TupleId(0))
            .unwrap();
        let q = CurrencyOrderQuery::single(r, A, TupleId(1), TupleId(0));
        assert!(cop(&spec, &q).unwrap(), "vacuous certainty");
    }
}
