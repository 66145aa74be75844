//! CCQA — certain current query answering (paper §3, Thm 3.5).
//!
//! *Is a tuple in `Q(LST(Dᶜ))` for **every** consistent completion `Dᶜ`?*
//! coNP-complete in data complexity; Πᵖ₂-complete (CQ/UCQ/∃FO⁺) to
//! PSPACE-complete (FO) in combined complexity.  For SP queries over
//! constraint-free specifications the problem is PTIME via the `poss(S)`
//! construction (paper Prop 6.3, implemented in [`crate::sp_ptime`]).
//!
//! The exact engine enumerates the *realizable current instances* of the
//! query's relations through projected All-SAT over value indicators and
//! intersects the query answers — typically far fewer instances than
//! completions, since order differences that do not change any most
//! current value are collapsed.

use crate::engine::CurrencyEngine;
use crate::error::ReasonError;
use crate::sp_ptime;
use crate::Options;
use currency_core::{Specification, Value};
use currency_query::{as_sp, Query};

/// The certain current answers of a query, or the marker that the
/// specification is inconsistent (in which case *every* tuple is vacuously
/// a certain answer — there is no finite answer set to report).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertainAnswers {
    /// `Mod(S) = ∅`: every tuple is vacuously certain.
    Inconsistent,
    /// The intersection `⋂_{Dᶜ} Q(LST(Dᶜ))`, sorted and deduplicated.
    Answers(Vec<Vec<Value>>),
}

impl CertainAnswers {
    /// Membership respecting the vacuous-truth convention.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        match self {
            CertainAnswers::Inconsistent => true,
            CertainAnswers::Answers(rows) => rows.iter().any(|r| r == tuple),
        }
    }

    /// The concrete rows, if the specification was consistent.
    pub fn rows(&self) -> Option<&[Vec<Value>]> {
        match self {
            CertainAnswers::Inconsistent => None,
            CertainAnswers::Answers(rows) => Some(rows),
        }
    }
}

/// Compute the certain current answers with automatic dispatch: the PTIME
/// `poss(S)` algorithm when the query is SP and the specification carries
/// no denial constraints, the exact enumerating engine otherwise.
pub fn certain_answers(spec: &Specification, query: &Query) -> Result<CertainAnswers, ReasonError> {
    if spec.has_no_constraints() {
        if let Some(sp) = as_sp(query) {
            return sp_ptime::certain_answers_sp(spec, &sp);
        }
    }
    certain_answers_exact(spec, query)
}

/// Decide whether `tuple` is a certain current answer (dispatching).
pub fn ccqa(spec: &Specification, query: &Query, tuple: &[Value]) -> Result<bool, ReasonError> {
    Ok(certain_answers(spec, query)?.contains(tuple))
}

/// Decide CCQA with the exact engine regardless of query shape.
pub fn ccqa_exact(
    spec: &Specification,
    query: &Query,
    tuple: &[Value],
) -> Result<bool, ReasonError> {
    Ok(certain_answers_exact(spec, query)?.contains(tuple))
}

/// Compute certain current answers with the exact engine.  Routes through
/// a transient [`CurrencyEngine`] — realizable current instances are
/// enumerated per entity component and composed, so order differences in
/// unrelated components never multiply the model count.  For repeated
/// queries over one specification, build the engine once instead.
pub fn certain_answers_exact(
    spec: &Specification,
    query: &Query,
) -> Result<CertainAnswers, ReasonError> {
    let rels: Vec<_> = query.body().relations().into_iter().collect();
    CurrencyEngine::with_value_rels(spec, &rels, &Options::default())?.certain_answers(query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use currency_core::{
        AttrId, Catalog, CmpOp, DenialConstraint, Eid, RelId, RelationSchema, Term, Tuple, TupleId,
    };
    use currency_query::{Atom, Formula, QueryBuilder, Term as QTerm};

    const SAL: AttrId = AttrId(0);

    /// Mary has salaries 50 and 80; φ₁ says salaries never decrease.
    fn mary_spec(constrained: bool) -> (Specification, RelId) {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("Emp", &["salary"]));
        let mut spec = Specification::new(cat);
        for s in [50, 80] {
            spec.instance_mut(r)
                .push_tuple(Tuple::new(Eid(1), vec![Value::int(s)]))
                .unwrap();
        }
        if constrained {
            let dc = DenialConstraint::builder(r, 2)
                .when_cmp(Term::attr(0, SAL), CmpOp::Gt, Term::attr(1, SAL))
                .then_order(1, SAL, 0)
                .build()
                .unwrap();
            spec.add_constraint(dc).unwrap();
        }
        (spec, r)
    }

    fn salary_query(r: RelId) -> Query {
        let mut b = QueryBuilder::new();
        let x = b.var();
        b.build(vec![x], Formula::Atom(Atom::new(r, vec![QTerm::Var(x)])))
    }

    #[test]
    fn q1_constraint_makes_80_certain() {
        let (spec, r) = mary_spec(true);
        let q = salary_query(r);
        let ans = certain_answers(&spec, &q).unwrap();
        assert_eq!(
            ans.rows().unwrap(),
            &[vec![Value::int(80)]],
            "paper Example 1.1 Q1: Mary's current salary is 80k"
        );
        assert!(ccqa(&spec, &q, &[Value::int(80)]).unwrap());
        assert!(!ccqa(&spec, &q, &[Value::int(50)]).unwrap());
    }

    #[test]
    fn without_constraint_nothing_is_certain() {
        let (spec, r) = mary_spec(false);
        let q = salary_query(r);
        let ans = certain_answers_exact(&spec, &q).unwrap();
        assert_eq!(ans.rows().unwrap().len(), 0);
    }

    #[test]
    fn dispatch_agrees_with_exact_on_sp_queries() {
        let (spec, r) = mary_spec(false);
        let q = salary_query(r);
        let fast = certain_answers(&spec, &q).unwrap();
        let exact = certain_answers_exact(&spec, &q).unwrap();
        assert_eq!(fast, exact);
    }

    #[test]
    fn inconsistent_spec_reports_inconsistent() {
        let (mut spec, r) = mary_spec(true);
        spec.instance_mut(r)
            .add_order(SAL, TupleId(1), TupleId(0))
            .unwrap();
        let q = salary_query(r);
        let ans = certain_answers_exact(&spec, &q).unwrap();
        assert_eq!(ans, CertainAnswers::Inconsistent);
        assert!(ans.contains(&[Value::int(999)]), "vacuously certain");
    }

    #[test]
    fn certain_answers_intersect_across_instances() {
        // Entity with salaries {50, 80} unconstrained, plus a second entity
        // fixed at 80: only 80 is certain... but via different entities the
        // answer 80 is produced by entity 2 in every completion.
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("Emp", &["salary"]));
        let mut spec = Specification::new(cat);
        for s in [50, 80] {
            spec.instance_mut(r)
                .push_tuple(Tuple::new(Eid(1), vec![Value::int(s)]))
                .unwrap();
        }
        spec.instance_mut(r)
            .push_tuple(Tuple::new(Eid(2), vec![Value::int(80)]))
            .unwrap();
        let q = salary_query(r);
        let ans = certain_answers_exact(&spec, &q).unwrap();
        assert_eq!(ans.rows().unwrap(), &[vec![Value::int(80)]]);
    }

    #[test]
    fn boolean_query_certainty() {
        let (spec, r) = mary_spec(true);
        let mut b = QueryBuilder::new();
        let x = b.var();
        // ∃x Emp(x) ∧ x = 80
        let q = b.build(
            vec![],
            Formula::Exists(
                vec![x],
                Box::new(Formula::And(vec![
                    Formula::Atom(Atom::new(r, vec![QTerm::Var(x)])),
                    Formula::Cmp {
                        left: QTerm::Var(x),
                        op: CmpOp::Eq,
                        right: QTerm::val(80),
                    },
                ])),
            ),
        );
        assert!(ccqa(&spec, &q, &[]).unwrap());
    }
}
