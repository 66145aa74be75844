//! Query AST: terms, atoms, formulas, and queries with free variables.

use currency_core::{CmpOp, RelId, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A query variable (dense index within one [`Query`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QVar(pub u32);

impl QVar {
    /// Dense index of the variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for QVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A term: a variable or a constant.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A query variable.
    Var(QVar),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Convenience constructor for a constant term.
    pub fn val(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }
}

impl From<QVar> for Term {
    fn from(v: QVar) -> Term {
        Term::Var(v)
    }
}

/// A relation atom `R(eid, a₁, …, aₙ)`.
///
/// `eid` is the term bound to the tuple's entity id (entity ids surface as
/// [`Value::Int`]); `None` leaves the entity id unconstrained, matching the
/// paper's convention of "omitting the EID attribute" in query displays.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Atom {
    /// The relation queried.
    pub rel: RelId,
    /// Term matched against the entity id, if any.
    pub eid: Option<Term>,
    /// Terms matched against the proper attributes, in schema order.
    pub args: Vec<Term>,
}

impl Atom {
    /// Build an atom with an unconstrained entity id.
    pub fn new(rel: RelId, args: Vec<Term>) -> Atom {
        Atom {
            rel,
            eid: None,
            args,
        }
    }

    /// Build an atom whose entity id is matched against `eid`.
    pub fn with_eid(rel: RelId, eid: Term, args: Vec<Term>) -> Atom {
        Atom {
            rel,
            eid: Some(eid),
            args,
        }
    }
}

/// A first-order formula over relation atoms and value comparisons.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// A relation atom.
    Atom(Atom),
    /// A comparison `left op right`.
    Cmp {
        /// Left term.
        left: Term,
        /// Operator.
        op: CmpOp,
        /// Right term.
        right: Term,
    },
    /// Conjunction (n-ary; empty = true).
    And(Vec<Formula>),
    /// Disjunction (n-ary; empty = false).
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// Existential quantification of the listed variables.
    Exists(Vec<QVar>, Box<Formula>),
    /// Universal quantification of the listed variables.
    Forall(Vec<QVar>, Box<Formula>),
}

impl Formula {
    /// `true` if the formula uses neither negation nor universal
    /// quantification (the ∃FO⁺ fragment).
    pub fn is_positive(&self) -> bool {
        match self {
            Formula::Atom(_) | Formula::Cmp { .. } => true,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(Formula::is_positive),
            Formula::Exists(_, f) => f.is_positive(),
            Formula::Not(_) | Formula::Forall(_, _) => false,
        }
    }

    /// The free variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<QVar> {
        fn go(f: &Formula, bound: &mut Vec<QVar>, out: &mut BTreeSet<QVar>) {
            let add_term = |t: &Term, bound: &Vec<QVar>, out: &mut BTreeSet<QVar>| {
                if let Term::Var(v) = t {
                    if !bound.contains(v) {
                        out.insert(*v);
                    }
                }
            };
            match f {
                Formula::Atom(a) => {
                    if let Some(e) = &a.eid {
                        add_term(e, bound, out);
                    }
                    for t in &a.args {
                        add_term(t, bound, out);
                    }
                }
                Formula::Cmp { left, right, .. } => {
                    add_term(left, bound, out);
                    add_term(right, bound, out);
                }
                Formula::And(fs) | Formula::Or(fs) => {
                    for g in fs {
                        go(g, bound, out);
                    }
                }
                Formula::Not(g) => go(g, bound, out),
                Formula::Exists(vs, g) | Formula::Forall(vs, g) => {
                    let n = bound.len();
                    bound.extend(vs.iter().copied());
                    go(g, bound, out);
                    bound.truncate(n);
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// All relations mentioned by atoms of the formula.
    pub fn relations(&self) -> BTreeSet<RelId> {
        fn go(f: &Formula, out: &mut BTreeSet<RelId>) {
            match f {
                Formula::Atom(a) => {
                    out.insert(a.rel);
                }
                Formula::Cmp { .. } => {}
                Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| go(g, out)),
                Formula::Not(g) => go(g, out),
                Formula::Exists(_, g) | Formula::Forall(_, g) => go(g, out),
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut out);
        out
    }

    /// All constants mentioned by the formula (for active domains).
    pub fn constants(&self) -> BTreeSet<Value> {
        fn add(t: &Term, out: &mut BTreeSet<Value>) {
            if let Term::Const(v) = t {
                out.insert(v.clone());
            }
        }
        fn go(f: &Formula, out: &mut BTreeSet<Value>) {
            match f {
                Formula::Atom(a) => {
                    if let Some(e) = &a.eid {
                        add(e, out);
                    }
                    for t in &a.args {
                        add(t, out);
                    }
                }
                Formula::Cmp { left, right, .. } => {
                    add(left, out);
                    add(right, out);
                }
                Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|g| go(g, out)),
                Formula::Not(g) => go(g, out),
                Formula::Exists(_, g) | Formula::Forall(_, g) => go(g, out),
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut out);
        out
    }
}

/// A query: a head of free variables over a formula body.
///
/// The answer to `Q(x̄) = φ` over a database is the set of assignments to
/// `x̄` making `φ` true.  A query with an empty head is *Boolean*: its
/// answer is either `{()}` (true) or `{}` (false).
#[derive(Clone, Debug)]
pub struct Query {
    head: Vec<QVar>,
    body: Formula,
    num_vars: u32,
}

impl Query {
    /// The head (answer) variables, in output order.
    pub fn head(&self) -> &[QVar] {
        &self.head
    }

    /// The body formula.
    pub fn body(&self) -> &Formula {
        &self.body
    }

    /// Total number of variables allocated by the builder.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }
}

/// Queries compare (and hash) by their **canonical key**: the head and
/// the body.  `num_vars` is a builder artifact — it counts allocated
/// variables, including ones the body never mentions — and two queries
/// with equal head and body have identical answer sets regardless of it.
/// This makes `Query` directly usable as a structural cache key (e.g. in
/// an answer cache) without stringifying the AST.
impl PartialEq for Query {
    fn eq(&self, other: &Query) -> bool {
        self.head == other.head && self.body == other.body
    }
}

impl Eq for Query {}

impl std::hash::Hash for Query {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.head.hash(state);
        self.body.hash(state);
    }
}

/// Builder managing variable allocation for a [`Query`].
///
/// ```
/// use currency_query::{QueryBuilder, Atom, Term, Formula};
/// use currency_core::RelId;
///
/// let mut b = QueryBuilder::new();
/// let x = b.var();
/// let body = Formula::Atom(Atom::new(RelId(0), vec![Term::Var(x), Term::val(1)]));
/// let q = b.build(vec![x], body);
/// assert_eq!(q.head(), &[x]);
/// ```
#[derive(Debug, Default)]
pub struct QueryBuilder {
    next: u32,
}

impl QueryBuilder {
    /// Start a new builder.
    pub fn new() -> QueryBuilder {
        QueryBuilder::default()
    }

    /// Allocate a fresh variable.
    pub fn var(&mut self) -> QVar {
        let v = QVar(self.next);
        self.next += 1;
        v
    }

    /// Allocate `n` fresh variables.
    pub fn vars(&mut self, n: usize) -> Vec<QVar> {
        (0..n).map(|_| self.var()).collect()
    }

    /// Finish, wrapping the head and body into a query.
    ///
    /// # Panics
    ///
    /// Panics if a head variable is not free in the body — such a query has
    /// no well-defined answer set.
    pub fn build(self, head: Vec<QVar>, body: Formula) -> Query {
        let free = body.free_vars();
        for h in &head {
            assert!(
                free.contains(h),
                "head variable {h:?} is not free in the query body"
            );
        }
        Query {
            head,
            body,
            num_vars: self.next,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_vars_respect_quantifiers() {
        let mut b = QueryBuilder::new();
        let x = b.var();
        let y = b.var();
        let f = Formula::Exists(
            vec![y],
            Box::new(Formula::Atom(Atom::new(
                RelId(0),
                vec![Term::Var(x), Term::Var(y)],
            ))),
        );
        let free = f.free_vars();
        assert!(free.contains(&x));
        assert!(!free.contains(&y));
    }

    #[test]
    fn free_vars_include_eid_position() {
        let mut b = QueryBuilder::new();
        let e = b.var();
        let f = Formula::Atom(Atom::with_eid(RelId(0), Term::Var(e), vec![Term::val(1)]));
        assert!(f.free_vars().contains(&e));
    }

    #[test]
    fn positivity_classification() {
        let atom = Formula::Atom(Atom::new(RelId(0), vec![Term::val(1)]));
        assert!(atom.is_positive());
        assert!(Formula::Or(vec![atom.clone()]).is_positive());
        assert!(!Formula::Not(Box::new(atom.clone())).is_positive());
        assert!(!Formula::Forall(vec![], Box::new(atom)).is_positive());
    }

    #[test]
    fn relations_and_constants_collected() {
        let f = Formula::And(vec![
            Formula::Atom(Atom::new(RelId(0), vec![Term::val(1)])),
            Formula::Atom(Atom::new(RelId(2), vec![Term::val("x")])),
            Formula::Cmp {
                left: Term::val(7),
                op: CmpOp::Eq,
                right: Term::val(7),
            },
        ]);
        let rels = f.relations();
        assert!(rels.contains(&RelId(0)) && rels.contains(&RelId(2)));
        let consts = f.constants();
        assert!(consts.contains(&Value::int(1)));
        assert!(consts.contains(&Value::str("x")));
        assert!(consts.contains(&Value::int(7)));
    }

    #[test]
    #[should_panic(expected = "not free")]
    fn head_must_be_free() {
        let mut b = QueryBuilder::new();
        let x = b.var();
        let body = Formula::And(vec![]); // no free variables at all
        let _ = b.build(vec![x], body);
    }
}
