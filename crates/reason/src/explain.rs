//! Explaining inconsistency: minimal conflicting cores.
//!
//! When `Mod(S) = ∅`, every "certain" judgement becomes vacuous, so the
//! practically useful artifact is an *explanation*: which constraints,
//! recorded order facts, and copy functions jointly contradict each
//! other.  [`explain_inconsistency`] computes a **minimal** core by
//! deletion-based shrinking (the standard MUS-style loop): each component
//! is tentatively removed and kept out whenever the remainder is still
//! inconsistent.  The result is minimal in the set-inclusion sense: every
//! remaining component is necessary for the contradiction.

use crate::cps::cps;
use crate::error::ReasonError;
use currency_core::{AttrId, RelId, Specification, TupleId};

/// One removable ingredient of a specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecComponent {
    /// The i-th denial constraint.
    Constraint(usize),
    /// A recorded initial order fact `lesser ≺_attr greater`.
    OrderFact {
        /// Relation carrying the fact.
        rel: RelId,
        /// The attribute.
        attr: AttrId,
        /// Less-current tuple.
        lesser: TupleId,
        /// More-current tuple.
        greater: TupleId,
    },
    /// The i-th copy function (its mappings and signature).
    Copy(usize),
}

/// A minimal inconsistent core of a specification.
#[derive(Clone, Debug, Default)]
pub struct InconsistencyCore {
    /// The surviving (jointly contradictory) components.
    pub components: Vec<SpecComponent>,
}

impl InconsistencyCore {
    /// Indices of the denial constraints in the core.
    pub fn constraint_indices(&self) -> Vec<usize> {
        self.components
            .iter()
            .filter_map(|c| match c {
                SpecComponent::Constraint(i) => Some(*i),
                _ => None,
            })
            .collect()
    }
}

/// Rebuild `spec` keeping only the listed components (data tuples are
/// always kept — they carry no currency claims by themselves).
fn rebuild(spec: &Specification, keep: &[SpecComponent]) -> Specification {
    let mut out = Specification::new(spec.catalog().clone());
    for inst in spec.instances() {
        let rel = inst.rel();
        for (_, t) in inst.tuples() {
            out.instance_mut(rel)
                .push_tuple(t.clone())
                .expect("same schema");
        }
    }
    for c in keep {
        match c {
            SpecComponent::Constraint(i) => {
                out.add_constraint(spec.constraints()[*i].clone())
                    .expect("was valid in the original");
            }
            SpecComponent::OrderFact {
                rel,
                attr,
                lesser,
                greater,
            } => {
                out.instance_mut(*rel)
                    .add_order(*attr, *lesser, *greater)
                    .expect("was valid in the original");
            }
            SpecComponent::Copy(i) => {
                out.add_copy(spec.copies()[*i].clone())
                    .expect("was valid in the original");
            }
        }
    }
    out
}

fn all_components(spec: &Specification) -> Vec<SpecComponent> {
    let mut out = Vec::new();
    for i in 0..spec.constraints().len() {
        out.push(SpecComponent::Constraint(i));
    }
    for inst in spec.instances() {
        for a in 0..inst.arity() {
            let attr = AttrId(a as u32);
            for (lesser, greater) in inst.order(attr).iter() {
                out.push(SpecComponent::OrderFact {
                    rel: inst.rel(),
                    attr,
                    lesser,
                    greater,
                });
            }
        }
    }
    for i in 0..spec.copies().len() {
        out.push(SpecComponent::Copy(i));
    }
    out
}

/// Decide whether a spec-with-kept-components is inconsistent.  Cyclic
/// initial orders surface as validation errors from the solvers; for core
/// extraction they simply mean "still inconsistent".
fn inconsistent(spec: &Specification) -> Result<bool, ReasonError> {
    if spec.validate().is_err() {
        return Ok(true);
    }
    Ok(!cps(spec)?)
}

/// Compute a minimal inconsistent core of `spec`.
///
/// Returns `Ok(None)` when the specification is consistent.  Cost: one
/// CPS call per component (deletion loop), so this inherits CPS's
/// complexity — intended for the diagnostic path, not the hot path.
pub fn explain_inconsistency(
    spec: &Specification,
) -> Result<Option<InconsistencyCore>, ReasonError> {
    if !inconsistent(spec)? {
        return Ok(None);
    }
    let mut core = all_components(spec);
    let mut ix = 0;
    while ix < core.len() {
        let mut candidate = core.clone();
        candidate.remove(ix);
        if inconsistent(&rebuild(spec, &candidate))? {
            core = candidate; // component not needed for the conflict
        } else {
            ix += 1; // component is necessary; keep it
        }
    }
    Ok(Some(InconsistencyCore { components: core }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use currency_core::{
        Catalog, CmpOp, DenialConstraint, Eid, RelationSchema, Term, Tuple, Value,
    };

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);

    fn base() -> (Specification, RelId) {
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
    fn consistent_spec_has_no_core() {
        let (spec, _) = base();
        assert!(explain_inconsistency(&spec).unwrap().is_none());
    }

    #[test]
    fn conflicting_constraint_and_order_form_the_core() {
        let (mut spec, r) = base();
        // Constraint: higher A ⇒ more current in A (forces t0 ≺ t1)...
        spec.add_constraint(
            DenialConstraint::builder(r, 2)
                .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
                .then_order(1, A, 0)
                .build()
                .unwrap(),
        )
        .unwrap();
        // ... an unrelated constraint that plays no role ...
        spec.add_constraint(
            DenialConstraint::builder(r, 2)
                .when_order(0, B, 1)
                .then_order(0, B, 1)
                .build()
                .unwrap(),
        )
        .unwrap();
        // ... and a recorded order contradicting the first constraint.
        spec.instance_mut(r)
            .add_order(A, currency_core::TupleId(1), currency_core::TupleId(0))
            .unwrap();
        let core = explain_inconsistency(&spec).unwrap().expect("inconsistent");
        assert_eq!(core.constraint_indices(), vec![0], "only φ₁ participates");
        assert_eq!(core.components.len(), 2, "φ₁ + the order fact");
        assert!(core
            .components
            .iter()
            .any(|c| matches!(c, SpecComponent::OrderFact { .. })));
    }

    #[test]
    fn cyclic_orders_form_a_two_fact_core() {
        let (mut spec, r) = base();
        spec.instance_mut(r)
            .add_order(A, currency_core::TupleId(0), currency_core::TupleId(1))
            .unwrap();
        spec.instance_mut(r)
            .add_order(A, currency_core::TupleId(1), currency_core::TupleId(0))
            .unwrap();
        let core = explain_inconsistency(&spec).unwrap().expect("inconsistent");
        assert_eq!(core.components.len(), 2);
        assert!(core.constraint_indices().is_empty());
    }

    #[test]
    fn core_is_minimal() {
        let (mut spec, r) = base();
        spec.add_constraint(
            DenialConstraint::builder(r, 2)
                .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
                .then_order(1, A, 0)
                .build()
                .unwrap(),
        )
        .unwrap();
        spec.instance_mut(r)
            .add_order(A, currency_core::TupleId(1), currency_core::TupleId(0))
            .unwrap();
        let core = explain_inconsistency(&spec).unwrap().expect("inconsistent");
        // Dropping any single component of the core must restore
        // consistency.
        for drop in 0..core.components.len() {
            let mut kept = core.components.clone();
            kept.remove(drop);
            assert!(!inconsistent(&rebuild(&spec, &kept)).unwrap());
        }
    }
}
