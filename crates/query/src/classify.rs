//! Structural classification of queries into the paper's language tower.

use crate::ast::{Formula, QVar, Query};
use crate::sp::as_sp;
use currency_core::CmpOp;
use std::collections::BTreeSet;
use std::fmt;

/// The query-language tower of the paper: `SP ⊂ CQ ⊂ UCQ ⊂ ∃FO⁺ ⊂ FO`.
///
/// [`classify`] returns the *most specific* class a query syntactically
/// belongs to.  Classification is structural (no semantic minimisation):
/// the class drives which decision procedures and complexity regimes apply
/// (paper Tables II/III).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum QueryClass {
    /// Selection + projection over one atom (no join).
    Sp,
    /// Conjunctive query.
    Cq,
    /// Union of conjunctive queries.
    Ucq,
    /// Existential positive FO.
    ExistsPositiveFo,
    /// Full first-order logic.
    Fo,
}

impl fmt::Display for QueryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QueryClass::Sp => "SP",
            QueryClass::Cq => "CQ",
            QueryClass::Ucq => "UCQ",
            QueryClass::ExistsPositiveFo => "∃FO⁺",
            QueryClass::Fo => "FO",
        };
        write!(f, "{s}")
    }
}

/// `true` if the formula is a CQ body: atoms and equality comparisons
/// closed under conjunction and existential quantification.
fn is_cq_body(f: &Formula) -> bool {
    match f {
        Formula::Atom(_) => true,
        Formula::Cmp { op, .. } => *op == CmpOp::Eq,
        Formula::And(fs) => fs.iter().all(is_cq_body),
        Formula::Exists(_, g) => is_cq_body(g),
        _ => false,
    }
}

/// `true` if the formula is a UCQ body: a disjunction (possibly nested
/// under ∃) of CQ bodies.
fn is_ucq_body(f: &Formula) -> bool {
    match f {
        Formula::Or(fs) => fs.iter().all(is_ucq_body),
        Formula::Exists(_, g) => is_ucq_body(g),
        other => is_cq_body(other),
    }
}

/// Classify a query into the most specific language of the tower.
pub fn classify(q: &Query) -> QueryClass {
    if as_sp(q).is_some() {
        return QueryClass::Sp;
    }
    if is_cq_body(q.body()) {
        return QueryClass::Cq;
    }
    if is_ucq_body(q.body()) {
        return QueryClass::Ucq;
    }
    if q.body().is_positive() {
        return QueryClass::ExistsPositiveFo;
    }
    QueryClass::Fo
}

/// The witnesses one answer row of `f` needs, and the free variables an
/// atom of `f` binds; `None` under negation or `∀`.
///
/// An atom counts one, a comparison zero; `∧` sums, `∨` takes the
/// maximum (and binds only what every disjunct binds), `∃` passes its
/// count through.  A variable no atom binds ranges over the active
/// domain, so one domain element witnesses it: it counts one where it
/// is quantified, or at the top of the query when it is free.
fn witnesses(f: &Formula) -> Option<(usize, BTreeSet<QVar>)> {
    match f {
        Formula::Atom(_) => Some((1, f.free_vars())),
        Formula::Cmp { .. } => Some((0, BTreeSet::new())),
        Formula::And(fs) => fs
            .iter()
            .try_fold((0, BTreeSet::new()), |(n, mut bound), g| {
                let (m, b) = witnesses(g)?;
                bound.extend(b);
                Some((n + m, bound))
            }),
        Formula::Or(fs) => {
            let mut parts = fs.iter().map(witnesses);
            let first = parts.next().unwrap_or(Some((0, BTreeSet::new())))?;
            parts.try_fold(first, |(n, bound), part| {
                let (m, b) = part?;
                Some((n.max(m), bound.intersection(&b).copied().collect()))
            })
        }
        Formula::Exists(vs, g) => {
            let (n, mut bound) = witnesses(g)?;
            let free = g.free_vars();
            let ranged = vs
                .iter()
                .filter(|v| free.contains(v) && !bound.contains(v))
                .count();
            bound.retain(|v| !vs.contains(v));
            Some((n + ranged, bound))
        }
        Formula::Not(_) | Formula::Forall(_, _) => None,
    }
}

/// `true` if one tuple (or one active-domain value) witnesses every
/// answer of `q`: a positive query in which no conjunction joins two
/// atoms — SP queries, unions of single-atom disjuncts, selections.
///
/// Over a database split into independent parts (entity shards whose
/// completions combine freely), such a query's certain answers are the
/// union of the parts' certain answers.  Any other query can have an
/// answer whose witnesses lie in two parts, so the union may miss it.
pub fn is_single_witness(q: &Query) -> bool {
    witnesses(q.body())
        .is_some_and(|(n, bound)| n + q.body().free_vars().difference(&bound).count() <= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, QueryBuilder, Term};
    use currency_core::RelId;

    const R: RelId = RelId(0);
    const S: RelId = RelId(1);

    fn atom(rel: RelId, args: Vec<Term>) -> Formula {
        Formula::Atom(Atom::new(rel, args))
    }

    #[test]
    fn sp_query_is_sp() {
        let mut b = QueryBuilder::new();
        let x = b.var();
        let q = b.build(vec![x], atom(R, vec![Term::Var(x), Term::val(1)]));
        assert_eq!(classify(&q), QueryClass::Sp);
    }

    #[test]
    fn join_is_cq_not_sp() {
        let mut b = QueryBuilder::new();
        let x = b.var();
        let q = b.build(
            vec![x],
            Formula::And(vec![
                atom(R, vec![Term::Var(x)]),
                atom(S, vec![Term::Var(x)]),
            ]),
        );
        assert_eq!(classify(&q), QueryClass::Cq);
    }

    #[test]
    fn disjunction_of_cqs_is_ucq() {
        let mut b = QueryBuilder::new();
        let x = b.var();
        let q = b.build(
            vec![x],
            Formula::Or(vec![
                atom(R, vec![Term::Var(x)]),
                atom(S, vec![Term::Var(x)]),
            ]),
        );
        assert_eq!(classify(&q), QueryClass::Ucq);
    }

    #[test]
    fn disjunction_under_conjunction_is_epfo() {
        let mut b = QueryBuilder::new();
        let x = b.var();
        let q = b.build(
            vec![x],
            Formula::And(vec![
                atom(R, vec![Term::Var(x)]),
                Formula::Or(vec![
                    atom(S, vec![Term::Var(x)]),
                    atom(R, vec![Term::Var(x)]),
                ]),
            ]),
        );
        assert_eq!(classify(&q), QueryClass::ExistsPositiveFo);
    }

    #[test]
    fn non_equality_comparison_is_epfo_not_cq() {
        let mut b = QueryBuilder::new();
        let x = b.var();
        let y = b.var();
        let q = b.build(
            vec![x],
            Formula::And(vec![
                atom(R, vec![Term::Var(x), Term::Var(y)]),
                Formula::Cmp {
                    left: Term::Var(x),
                    op: CmpOp::Gt,
                    right: Term::val(5),
                },
            ]),
        );
        // Not SP (comparison is >), not CQ (CQ allows only equality).
        assert_eq!(classify(&q), QueryClass::ExistsPositiveFo);
    }

    #[test]
    fn negation_is_fo() {
        let mut b = QueryBuilder::new();
        let x = b.var();
        let q = b.build(
            vec![x],
            Formula::And(vec![
                atom(R, vec![Term::Var(x)]),
                Formula::Not(Box::new(atom(S, vec![Term::Var(x)]))),
            ]),
        );
        assert_eq!(classify(&q), QueryClass::Fo);
    }

    #[test]
    fn single_witness_admits_sp_and_unions_of_single_atoms() {
        let mut b = QueryBuilder::new();
        let (x, y) = (b.var(), b.var());
        let sp = b.build(
            vec![x],
            Formula::Exists(
                vec![y],
                Box::new(Formula::And(vec![
                    atom(R, vec![Term::Var(x), Term::Var(y)]),
                    Formula::Cmp {
                        left: Term::Var(y),
                        op: CmpOp::Eq,
                        right: Term::val(1),
                    },
                ])),
            ),
        );
        assert!(is_single_witness(&sp));
        let mut b = QueryBuilder::new();
        let x = b.var();
        let union = b.build(
            vec![x],
            Formula::Or(vec![
                atom(R, vec![Term::Var(x)]),
                atom(S, vec![Term::Var(x)]),
            ]),
        );
        assert!(is_single_witness(&union));
    }

    #[test]
    fn single_witness_refuses_joins_negation_and_domain_products() {
        let mut b = QueryBuilder::new();
        let x = b.var();
        let join = b.build(
            vec![x],
            Formula::And(vec![
                atom(R, vec![Term::val("a"), Term::Var(x)]),
                atom(R, vec![Term::val("b"), Term::Var(x)]),
            ]),
        );
        assert!(!is_single_witness(&join));
        let mut b = QueryBuilder::new();
        let x = b.var();
        let negation = b.build(
            vec![x],
            Formula::And(vec![
                atom(R, vec![Term::Var(x)]),
                Formula::Not(Box::new(atom(S, vec![Term::Var(x)]))),
            ]),
        );
        assert!(!is_single_witness(&negation));
        // `y` is padded from the active domain in the `R(x)` disjunct:
        // the answer (x, y) pairs a tuple with a value from anywhere.
        let mut b = QueryBuilder::new();
        let (x, y) = (b.var(), b.var());
        let product = b.build(
            vec![x, y],
            Formula::Or(vec![
                atom(R, vec![Term::Var(x)]),
                atom(S, vec![Term::Var(y)]),
            ]),
        );
        assert!(!is_single_witness(&product));
    }

    #[test]
    fn class_ordering_matches_tower() {
        assert!(QueryClass::Sp < QueryClass::Cq);
        assert!(QueryClass::Cq < QueryClass::Ucq);
        assert!(QueryClass::Ucq < QueryClass::ExistsPositiveFo);
        assert!(QueryClass::ExistsPositiveFo < QueryClass::Fo);
        assert_eq!(QueryClass::Cq.to_string(), "CQ");
    }
}
