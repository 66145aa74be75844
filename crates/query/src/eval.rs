//! Query evaluation over normal instances.
//!
//! Two engines, chosen automatically by [`Query::eval`]:
//!
//! * **Relational** (positive formulas): bottom-up evaluation producing
//!   sets of bindings — atoms scan instances, conjunction is a hash join
//!   (smallest intermediate first), disjunction is a padded union,
//!   existential quantification is projection.  This is what makes the
//!   CQ-based reduction gadgets of the paper tractable to *evaluate* even
//!   when the surrounding decision problem is hard.
//! * **Active domain** (full FO): the standard recursive
//!   satisfaction check with quantifiers ranging over the active domain
//!   (all database values, entity ids, and query constants), as usual in
//!   certain-answer analyses.

use crate::ast::{Atom, Formula, QVar, Query, Term};
use currency_core::{NormalInstance, RelId, Value};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Errors from query evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The database does not bind the relation the query mentions.
    UnknownRelation(RelId),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownRelation(r) => {
                write!(f, "database holds no instance for relation {r:?}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// A database: one normal instance per relation.
///
/// In the currency setting this is a current instance family `LST(Dᶜ)`.
pub struct Database<'a> {
    by_rel: HashMap<RelId, &'a NormalInstance>,
}

impl<'a> Database<'a> {
    /// Index the given instances by their relation ids.
    pub fn new(instances: &'a [NormalInstance]) -> Database<'a> {
        Database {
            by_rel: instances.iter().map(|i| (i.rel(), i)).collect(),
        }
    }

    /// The instance of a relation, if bound.
    pub fn instance(&self, rel: RelId) -> Option<&'a NormalInstance> {
        self.by_rel.get(&rel).copied()
    }

    /// The active domain: every attribute value and every entity id
    /// (entity ids surface as [`Value::Int`]).
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for inst in self.by_rel.values() {
            for t in inst.iter() {
                dom.insert(Value::Int(t.eid.0 as i64));
                for v in &t.values {
                    dom.insert(v.clone());
                }
            }
        }
        dom
    }
}

/// Entity ids surface in query answers as integers.
pub(crate) fn eid_value(eid: currency_core::Eid) -> Value {
    Value::Int(eid.0 as i64)
}

/// An intermediate relation: named columns over a set of rows.
#[derive(Clone, Debug)]
struct Rows {
    vars: Vec<QVar>,
    tuples: BTreeSet<Vec<Value>>,
}

impl Rows {
    fn truth(t: bool) -> Rows {
        Rows {
            vars: Vec::new(),
            tuples: if t {
                std::iter::once(Vec::new()).collect()
            } else {
                BTreeSet::new()
            },
        }
    }

    fn col(&self, v: QVar) -> Option<usize> {
        self.vars.iter().position(|&w| w == v)
    }

    fn from_atom(atom: &Atom, inst: Option<&NormalInstance>) -> Rows {
        // Column list: distinct variables in first-occurrence order.
        let mut vars: Vec<QVar> = Vec::new();
        let note = |t: &Term, vars: &mut Vec<QVar>| {
            if let Term::Var(v) = t {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
        };
        if let Some(e) = &atom.eid {
            note(e, &mut vars);
        }
        for t in &atom.args {
            note(t, &mut vars);
        }
        let mut tuples = BTreeSet::new();
        let Some(inst) = inst else {
            return Rows { vars, tuples };
        };
        'tuple: for t in inst.iter() {
            let mut binding: Vec<Option<Value>> = vec![None; vars.len()];
            let unify = |term: &Term, value: &Value, binding: &mut Vec<Option<Value>>| match term {
                Term::Const(c) => c == value,
                Term::Var(v) => {
                    let ix = vars.iter().position(|w| w == v).expect("var indexed");
                    match &binding[ix] {
                        Some(prev) => prev == value,
                        None => {
                            binding[ix] = Some(value.clone());
                            true
                        }
                    }
                }
            };
            if let Some(e) = &atom.eid {
                if !unify(e, &eid_value(t.eid), &mut binding) {
                    continue 'tuple;
                }
            }
            if atom.args.len() != t.values.len() {
                continue 'tuple; // arity mismatch: no match (defensive)
            }
            for (term, value) in atom.args.iter().zip(&t.values) {
                if !unify(term, value, &mut binding) {
                    continue 'tuple;
                }
            }
            tuples.insert(binding.into_iter().map(|b| b.expect("bound")).collect());
        }
        Rows { vars, tuples }
    }

    /// Natural join on shared columns.
    fn join(&self, other: &Rows) -> Rows {
        let shared: Vec<QVar> = self
            .vars
            .iter()
            .copied()
            .filter(|v| other.vars.contains(v))
            .collect();
        let out_vars: Vec<QVar> = self
            .vars
            .iter()
            .copied()
            .chain(
                other
                    .vars
                    .iter()
                    .copied()
                    .filter(|v| !self.vars.contains(v)),
            )
            .collect();
        let self_key: Vec<usize> = shared.iter().map(|&v| self.col(v).unwrap()).collect();
        let other_key: Vec<usize> = shared.iter().map(|&v| other.col(v).unwrap()).collect();
        let other_extra: Vec<usize> = other
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| !self.vars.contains(v))
            .map(|(i, _)| i)
            .collect();
        // Hash the smaller side on the shared key.
        let mut index: HashMap<Vec<Value>, Vec<&Vec<Value>>> = HashMap::new();
        for row in &other.tuples {
            let key: Vec<Value> = other_key.iter().map(|&i| row[i].clone()).collect();
            index.entry(key).or_default().push(row);
        }
        let mut tuples = BTreeSet::new();
        for row in &self.tuples {
            let key: Vec<Value> = self_key.iter().map(|&i| row[i].clone()).collect();
            if let Some(matches) = index.get(&key) {
                for m in matches {
                    let mut out = row.clone();
                    out.extend(other_extra.iter().map(|&i| m[i].clone()));
                    tuples.insert(out);
                }
            }
        }
        Rows {
            vars: out_vars,
            tuples,
        }
    }

    /// Add a column for `v` ranging over the whole domain.
    fn pad_with_domain(&mut self, v: QVar, dom: &BTreeSet<Value>) {
        debug_assert!(self.col(v).is_none());
        self.vars.push(v);
        let old = std::mem::take(&mut self.tuples);
        for row in old {
            for d in dom {
                let mut r = row.clone();
                r.push(d.clone());
                self.tuples.insert(r);
            }
        }
    }

    /// Keep only the columns in `keep` (first-occurrence order of `keep`).
    fn project(&self, keep: &[QVar]) -> Rows {
        let cols: Vec<usize> = keep
            .iter()
            .map(|&v| self.col(v).expect("projected var"))
            .collect();
        Rows {
            vars: keep.to_vec(),
            tuples: self
                .tuples
                .iter()
                .map(|row| cols.iter().map(|&c| row[c].clone()).collect())
                .collect(),
        }
    }

    fn filter_cmp(&mut self, left: &Term, op: currency_core::CmpOp, right: &Term) {
        let vars_snapshot = self.vars.clone();
        let resolve = |row: &[Value], t: &Term| -> Value {
            match t {
                Term::Const(c) => c.clone(),
                Term::Var(v) => {
                    let ix = vars_snapshot.iter().position(|w| w == v).expect("bound");
                    row[ix].clone()
                }
            }
        };
        self.tuples = std::mem::take(&mut self.tuples)
            .into_iter()
            .filter(|row| op.eval(&resolve(row, left), &resolve(row, right)))
            .collect();
    }

    fn union_into(self, vars: &[QVar], dom: &BTreeSet<Value>, acc: &mut Rows) {
        let mut padded = self;
        for &v in vars {
            if padded.col(v).is_none() {
                padded.pad_with_domain(v, dom);
            }
        }
        let reordered = padded.project(vars);
        acc.tuples.extend(reordered.tuples);
    }
}

/// Bottom-up evaluation of a positive formula.
fn eval_positive(f: &Formula, db: &Database, dom: &BTreeSet<Value>) -> Rows {
    match f {
        Formula::Atom(a) => Rows::from_atom(a, db.instance(a.rel)),
        Formula::Cmp { left, op, right } => {
            // Standalone comparison: variables range over the domain.
            let mut rows = Rows::truth(true);
            for t in [left, right] {
                if let Term::Var(v) = t {
                    if rows.col(*v).is_none() {
                        rows.pad_with_domain(*v, dom);
                    }
                }
            }
            rows.filter_cmp(left, *op, right);
            rows
        }
        Formula::And(fs) => {
            let (filters, relational): (Vec<&Formula>, Vec<&Formula>) =
                fs.iter().partition(|g| matches!(g, Formula::Cmp { .. }));
            let mut parts: Vec<Rows> = relational
                .iter()
                .map(|g| eval_positive(g, db, dom))
                .collect();
            // Join smallest-first to keep intermediates tight.
            parts.sort_by_key(|r| r.tuples.len());
            let mut acc = parts
                .into_iter()
                .reduce(|a, b| a.join(&b))
                .unwrap_or_else(|| Rows::truth(true));
            for g in filters {
                if let Formula::Cmp { left, op, right } = g {
                    for t in [left, right] {
                        if let Term::Var(v) = t {
                            if acc.col(*v).is_none() {
                                acc.pad_with_domain(*v, dom);
                            }
                        }
                    }
                    acc.filter_cmp(left, *op, right);
                }
            }
            acc
        }
        Formula::Or(fs) => {
            // Output columns: union of free variables, padded with the
            // domain where a disjunct does not constrain a variable.
            let all_vars: Vec<QVar> = f.free_vars().into_iter().collect();
            let mut acc = Rows {
                vars: all_vars.clone(),
                tuples: BTreeSet::new(),
            };
            for g in fs {
                eval_positive(g, db, dom).union_into(&all_vars, dom, &mut acc);
            }
            acc
        }
        Formula::Exists(vs, g) => {
            let inner = eval_positive(g, db, dom);
            let keep: Vec<QVar> = inner
                .vars
                .iter()
                .copied()
                .filter(|v| !vs.contains(v))
                .collect();
            inner.project(&keep)
        }
        Formula::Not(_) | Formula::Forall(_, _) => {
            unreachable!("eval_positive called on a non-positive formula")
        }
    }
}

/// Active-domain satisfaction for full FO.
fn satisfies(
    f: &Formula,
    env: &mut HashMap<QVar, Value>,
    db: &Database,
    dom: &BTreeSet<Value>,
) -> bool {
    match f {
        Formula::Atom(a) => {
            let Some(inst) = db.instance(a.rel) else {
                return false;
            };
            let term_value = |t: &Term| -> Value {
                match t {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => env.get(v).expect("FO evaluation: unbound variable").clone(),
                }
            };
            inst.iter().any(|tup| {
                if let Some(e) = &a.eid {
                    if term_value(e) != eid_value(tup.eid) {
                        return false;
                    }
                }
                a.args.len() == tup.values.len()
                    && a.args
                        .iter()
                        .zip(&tup.values)
                        .all(|(t, v)| term_value(t) == *v)
            })
        }
        Formula::Cmp { left, op, right } => {
            let term_value = |t: &Term| -> Value {
                match t {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => env.get(v).expect("FO evaluation: unbound variable").clone(),
                }
            };
            op.eval(&term_value(left), &term_value(right))
        }
        Formula::And(fs) => fs.iter().all(|g| satisfies(g, env, db, dom)),
        Formula::Or(fs) => fs.iter().any(|g| satisfies(g, env, db, dom)),
        Formula::Not(g) => !satisfies(g, env, db, dom),
        Formula::Exists(vs, g) => quantify(vs, g, env, db, dom, false),
        Formula::Forall(vs, g) => quantify(vs, g, env, db, dom, true),
    }
}

fn quantify(
    vs: &[QVar],
    g: &Formula,
    env: &mut HashMap<QVar, Value>,
    db: &Database,
    dom: &BTreeSet<Value>,
    universal: bool,
) -> bool {
    match vs.split_first() {
        None => satisfies(g, env, db, dom),
        Some((&v, rest)) => {
            let domain: Vec<Value> = dom.iter().cloned().collect();
            let mut result = universal;
            for d in domain {
                let saved = env.insert(v, d);
                let sub = quantify(rest, g, env, db, dom, universal);
                match saved {
                    Some(s) => {
                        env.insert(v, s);
                    }
                    None => {
                        env.remove(&v);
                    }
                }
                if universal && !sub {
                    result = false;
                    break;
                }
                if !universal && sub {
                    result = true;
                    break;
                }
            }
            result
        }
    }
}

impl Query {
    /// Evaluate over a database, returning the sorted, deduplicated answer
    /// set (one row per head assignment; Boolean queries answer `[[]]` for
    /// true and `[]` for false).
    pub fn eval(&self, db: &Database) -> Vec<Vec<Value>> {
        let mut dom = db.active_domain();
        dom.extend(self.body().constants());
        if self.body().is_positive() {
            let mut rows = eval_positive(self.body(), db, &dom);
            for &h in self.head() {
                if rows.col(h).is_none() {
                    rows.pad_with_domain(h, &dom);
                }
            }
            let projected = rows.project(self.head());
            projected.tuples.into_iter().collect()
        } else {
            // Active-domain FO evaluation.
            let mut answers = BTreeSet::new();
            let head = self.head().to_vec();
            let mut env = HashMap::new();
            enumerate_head(&head, 0, &mut env, db, &dom, self.body(), &mut answers);
            answers.into_iter().collect()
        }
    }

    /// Evaluate as a Boolean query: `true` iff the answer set is nonempty.
    pub fn eval_bool(&self, db: &Database) -> bool {
        !self.eval(db).is_empty()
    }
}

fn enumerate_head(
    head: &[QVar],
    ix: usize,
    env: &mut HashMap<QVar, Value>,
    db: &Database,
    dom: &BTreeSet<Value>,
    body: &Formula,
    out: &mut BTreeSet<Vec<Value>>,
) {
    if ix == head.len() {
        if satisfies(body, env, db, dom) {
            out.insert(head.iter().map(|v| env[v].clone()).collect());
        }
        return;
    }
    // Head variables may repeat; a repeated variable is already bound.
    if env.contains_key(&head[ix]) {
        enumerate_head(head, ix + 1, env, db, dom, body, out);
        return;
    }
    let domain: Vec<Value> = dom.iter().cloned().collect();
    for d in domain {
        env.insert(head[ix], d);
        enumerate_head(head, ix + 1, env, db, dom, body, out);
        env.remove(&head[ix]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::QueryBuilder;
    use currency_core::{CmpOp, Eid, Tuple};

    const R: RelId = RelId(0);
    const S: RelId = RelId(1);

    fn inst(rel: RelId, rows: &[(u64, &[i64])]) -> NormalInstance {
        let mut n = NormalInstance::new(rel);
        for (e, vals) in rows {
            n.push(Tuple::new(
                Eid(*e),
                vals.iter().map(|&v| Value::int(v)).collect(),
            ));
        }
        n
    }

    #[test]
    fn atom_scan_with_constants_and_repeats() {
        let data = vec![inst(R, &[(1, &[5, 5]), (1, &[5, 6]), (2, &[7, 7])])];
        let db = Database::new(&data);
        let mut b = QueryBuilder::new();
        let x = b.var();
        // Q(x) = R(_, x, x): repeated variable forces equal columns.
        let q = b.build(
            vec![x],
            Formula::Atom(Atom::new(R, vec![Term::Var(x), Term::Var(x)])),
        );
        assert_eq!(q.eval(&db), vec![vec![Value::int(5)], vec![Value::int(7)]]);
    }

    #[test]
    fn eid_binding_in_atoms() {
        let data = vec![inst(R, &[(1, &[5]), (2, &[6])])];
        let db = Database::new(&data);
        let mut b = QueryBuilder::new();
        let e = b.var();
        let x = b.var();
        // Q(e, x) = R(e, x)
        let q = b.build(
            vec![e, x],
            Formula::Atom(Atom::with_eid(R, Term::Var(e), vec![Term::Var(x)])),
        );
        assert_eq!(
            q.eval(&db),
            vec![
                vec![Value::int(1), Value::int(5)],
                vec![Value::int(2), Value::int(6)]
            ]
        );
    }

    #[test]
    fn join_across_relations() {
        let data = vec![
            inst(R, &[(1, &[10]), (2, &[20])]),
            inst(S, &[(7, &[10, 100]), (8, &[30, 300])]),
        ];
        let db = Database::new(&data);
        let mut b = QueryBuilder::new();
        let x = b.var();
        let y = b.var();
        // Q(y) = ∃x. R(_, x) ∧ S(_, x, y)
        let body = Formula::Exists(
            vec![x],
            Box::new(Formula::And(vec![
                Formula::Atom(Atom::new(R, vec![Term::Var(x)])),
                Formula::Atom(Atom::new(S, vec![Term::Var(x), Term::Var(y)])),
            ])),
        );
        let q = b.build(vec![y], body);
        assert_eq!(q.eval(&db), vec![vec![Value::int(100)]]);
    }

    #[test]
    fn union_pads_missing_variables_consistently() {
        let data = vec![inst(R, &[(1, &[1])]), inst(S, &[(2, &[2])])];
        let db = Database::new(&data);
        let mut b = QueryBuilder::new();
        let x = b.var();
        // Q(x) = R(_, x) ∨ S(_, x): plain UCQ, same vars in both branches.
        let q = b.build(
            vec![x],
            Formula::Or(vec![
                Formula::Atom(Atom::new(R, vec![Term::Var(x)])),
                Formula::Atom(Atom::new(S, vec![Term::Var(x)])),
            ]),
        );
        assert_eq!(q.eval(&db), vec![vec![Value::int(1)], vec![Value::int(2)]]);
    }

    #[test]
    fn comparison_filters() {
        let data = vec![inst(R, &[(1, &[5]), (2, &[10]), (3, &[15])])];
        let db = Database::new(&data);
        let mut b = QueryBuilder::new();
        let x = b.var();
        let q = b.build(
            vec![x],
            Formula::And(vec![
                Formula::Atom(Atom::new(R, vec![Term::Var(x)])),
                Formula::Cmp {
                    left: Term::Var(x),
                    op: CmpOp::Gt,
                    right: Term::val(7),
                },
            ]),
        );
        assert_eq!(
            q.eval(&db),
            vec![vec![Value::int(10)], vec![Value::int(15)]]
        );
    }

    #[test]
    fn boolean_queries() {
        let data = vec![inst(R, &[(1, &[5])])];
        let db = Database::new(&data);
        let mut b = QueryBuilder::new();
        let x = b.var();
        let q = b.build(
            vec![],
            Formula::Exists(
                vec![x],
                Box::new(Formula::Atom(Atom::new(R, vec![Term::Var(x)]))),
            ),
        );
        assert!(q.eval_bool(&db));
        assert_eq!(q.eval(&db), vec![Vec::<Value>::new()]);
        let mut b2 = QueryBuilder::new();
        let y = b2.var();
        let q2 = b2.build(
            vec![],
            Formula::Exists(
                vec![y],
                Box::new(Formula::Atom(Atom::new(S, vec![Term::Var(y)]))),
            ),
        );
        assert!(!q2.eval_bool(&db), "no S instance bound");
    }

    #[test]
    fn negation_via_active_domain() {
        let data = vec![inst(R, &[(1, &[1]), (2, &[2])]), inst(S, &[(9, &[1])])];
        let db = Database::new(&data);
        let mut b = QueryBuilder::new();
        let x = b.var();
        // Q(x) = R(_, x) ∧ ¬S(_, x)
        let q = b.build(
            vec![x],
            Formula::And(vec![
                Formula::Atom(Atom::new(R, vec![Term::Var(x)])),
                Formula::Not(Box::new(Formula::Atom(Atom::new(S, vec![Term::Var(x)])))),
            ]),
        );
        assert_eq!(q.eval(&db), vec![vec![Value::int(2)]]);
    }

    #[test]
    fn universal_quantification() {
        // ∀x. R(_, x) → S(_, x) encoded as ∀x. ¬R(_, x) ∨ S(_, x).
        let data = vec![
            inst(R, &[(1, &[1]), (2, &[2])]),
            inst(S, &[(9, &[1]), (9, &[2])]),
        ];
        let db = Database::new(&data);
        let mut b = QueryBuilder::new();
        let x = b.var();
        let q = b.build(
            vec![],
            Formula::Forall(
                vec![x],
                Box::new(Formula::Or(vec![
                    Formula::Not(Box::new(Formula::Atom(Atom::new(R, vec![Term::Var(x)])))),
                    Formula::Atom(Atom::new(S, vec![Term::Var(x)])),
                ])),
            ),
        );
        assert!(q.eval_bool(&db));
        // Remove 2 from S: the implication fails.
        let data2 = vec![inst(R, &[(1, &[1]), (2, &[2])]), inst(S, &[(9, &[1])])];
        let db2 = Database::new(&data2);
        assert!(!q.eval_bool(&db2));
    }

    #[test]
    fn positive_and_fo_paths_agree_on_cq() {
        // Evaluate the same CQ through both engines by wrapping it in a
        // double negation (forcing the FO path) and comparing.
        let data = vec![
            inst(R, &[(1, &[10]), (2, &[20]), (3, &[10])]),
            inst(S, &[(7, &[10, 1]), (8, &[20, 2])]),
        ];
        let db = Database::new(&data);
        let mk = |wrap: bool| {
            let mut b = QueryBuilder::new();
            let x = b.var();
            let y = b.var();
            let cq = Formula::Exists(
                vec![x],
                Box::new(Formula::And(vec![
                    Formula::Atom(Atom::new(R, vec![Term::Var(x)])),
                    Formula::Atom(Atom::new(S, vec![Term::Var(x), Term::Var(y)])),
                ])),
            );
            let body = if wrap {
                Formula::Not(Box::new(Formula::Not(Box::new(cq))))
            } else {
                cq
            };
            b.build(vec![y], body)
        };
        assert_eq!(mk(false).eval(&db), mk(true).eval(&db));
    }

    #[test]
    fn active_domain_includes_eids_and_query_constants() {
        let data = vec![inst(R, &[(5, &[100])])];
        let db = Database::new(&data);
        let dom = db.active_domain();
        assert!(dom.contains(&Value::int(5)), "entity id in domain");
        assert!(dom.contains(&Value::int(100)));
    }
}
