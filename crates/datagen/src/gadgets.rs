//! Hardness-reduction gadgets from the paper's lower-bound proofs.
//!
//! Each constructor builds, from a propositional instance, the exact
//! specification used in the corresponding proof; the decision problem's
//! answer on the gadget equals a brute-force-checkable property of the
//! formula.  The gadgets serve two purposes:
//!
//! * **validation** — integration tests check, over random small
//!   formulas, that the `currency-reason` solvers return precisely the
//!   oracle answer (`crate::logic`), tying the implementation back to the
//!   paper's semantics;
//! * **benchmarking** — they are certified-hard instance families for the
//!   Table II / Table III scaling experiments (the `paper` section of
//!   the `bench_engine` binary in `currency-bench`).
//!
//! | Constructor | Paper proof | Problem | Gadget answer |
//! |---|---|---|---|
//! | [`cps_betweenness`] | Thm 3.1 (data) | CPS | consistent ⇔ Betweenness solvable |
//! | [`cps_exists_forall_3dnf`] | Thm 3.1 (combined) | CPS | consistent ⇔ `∃X∀Y φ_DNF` |
//! | [`cop_3sat`] | Thm 3.4 (data) | COP / DCIP | certain/deterministic ⇔ `¬SAT(ψ)` |
//! | [`ccqa_3sat`] | Thm 3.5 (data) | CCQA | `(1)` certain ⇔ `¬SAT(ψ)` |
//! | [`cpp_forall_exists_3cnf`] | Thm 5.1 (data) | CPP | preserving ⇔ `∀X∃Y ψ` |

use crate::logic::{Betweenness, Formula3};
use currency_core::{
    AttrId, Catalog, CmpOp, CopyFunction, CopySignature, DenialConstraint, Eid, RelId,
    RelationSchema, Specification, Term, Tuple, TupleId, Value,
};
use currency_query::{Atom, Formula, Query, QueryBuilder, Term as QTerm};
use currency_reason::CurrencyOrderQuery;

// ---------------------------------------------------------------------------
// Thm 3.1 (data complexity): Betweenness → CPS
// ---------------------------------------------------------------------------

/// Output of [`cps_betweenness`].
#[derive(Clone, Debug)]
pub struct CpsBetweennessGadget {
    /// The specification; consistent iff the Betweenness instance is
    /// solvable.
    pub spec: Specification,
    /// The single relation `R(EID, TID, A, P, O)`.
    pub rel: RelId,
}

/// Build the Betweenness → CPS gadget (proof of Theorem 3.1, data
/// complexity): a single-entity instance with six tuples per triple (two
/// candidate orderings) plus the separator tuple `t#`, and the fixed
/// constraints σ₁–σ₅ forcing any consistent completion to select one
/// ordering per triple and arrange same-element tuples in consecutive
/// blocks above `t#`.
pub fn cps_betweenness(b: &Betweenness) -> CpsBetweennessGadget {
    const TID: AttrId = AttrId(0);
    const A: AttrId = AttrId(1);
    const P: AttrId = AttrId(2);
    const O: AttrId = AttrId(3);
    let hash = Value::str("#");
    let mut cat = Catalog::new();
    let rel = cat.add(RelationSchema::new("R", &["TID", "A", "P", "O"]));
    let mut spec = Specification::new(cat);
    let e = Eid(0);
    {
        let inst = spec.instance_mut(rel);
        for (k, &(a, m, c)) in b.triples.iter().enumerate() {
            // Ordering 1: a < m < c; ordering 2: c < m < a.
            for (elem, pos, ord) in [
                (a, 1, 1),
                (m, 2, 1),
                (c, 3, 1),
                (a, 3, 2),
                (m, 2, 2),
                (c, 1, 2),
            ] {
                inst.push_tuple(Tuple::new(
                    e,
                    vec![
                        Value::int(k as i64),
                        Value::int(elem as i64),
                        Value::int(pos),
                        Value::int(ord),
                    ],
                ))
                .expect("arity");
            }
        }
        inst.push_tuple(Tuple::new(
            e,
            vec![hash.clone(), hash.clone(), hash.clone(), hash.clone()],
        ))
        .expect("t#");
    }
    // σ₁: the three tuples of one ordering sit on the same side of t#.
    // Vars: 0 = t1, 1 = t2, 2 = s (the separator).
    let sigma1 = DenialConstraint::builder(rel, 3)
        .when_cmp(Term::attr(0, TID), CmpOp::Eq, Term::attr(1, TID))
        .when_cmp(Term::attr(0, TID), CmpOp::Ne, Term::val("#"))
        .when_cmp(Term::attr(0, O), CmpOp::Eq, Term::attr(1, O))
        .when_cmp(Term::attr(2, A), CmpOp::Eq, Term::val("#"))
        .when_order(0, A, 2)
        .when_order(2, A, 1)
        .then_false()
        .build()
        .expect("σ₁");
    // σ₂: tuples of *different* orderings of one triple never both above t#.
    let sigma2 = DenialConstraint::builder(rel, 3)
        .when_cmp(Term::attr(0, TID), CmpOp::Eq, Term::attr(1, TID))
        .when_cmp(Term::attr(0, TID), CmpOp::Ne, Term::val("#"))
        .when_cmp(Term::attr(0, O), CmpOp::Ne, Term::attr(1, O))
        .when_cmp(Term::attr(2, A), CmpOp::Eq, Term::val("#"))
        .when_order(2, A, 0)
        .when_order(2, A, 1)
        .then_false()
        .build()
        .expect("σ₂");
    // σ₃: ... and never both below t#.
    let sigma3 = DenialConstraint::builder(rel, 3)
        .when_cmp(Term::attr(0, TID), CmpOp::Eq, Term::attr(1, TID))
        .when_cmp(Term::attr(0, TID), CmpOp::Ne, Term::val("#"))
        .when_cmp(Term::attr(0, O), CmpOp::Ne, Term::attr(1, O))
        .when_cmp(Term::attr(2, A), CmpOp::Eq, Term::val("#"))
        .when_order(0, A, 2)
        .when_order(1, A, 2)
        .then_false()
        .build()
        .expect("σ₃");
    // σ₄: the selected (above-t#) ordering is arranged by position.
    let sigma4 = DenialConstraint::builder(rel, 3)
        .when_cmp(Term::attr(0, TID), CmpOp::Eq, Term::attr(1, TID))
        .when_cmp(Term::attr(0, O), CmpOp::Eq, Term::attr(1, O))
        .when_cmp(Term::attr(0, P), CmpOp::Lt, Term::attr(1, P))
        .when_cmp(Term::attr(2, A), CmpOp::Eq, Term::val("#"))
        .when_order(2, A, 0)
        .when_order(2, A, 1)
        .then_order(0, A, 1)
        .build()
        .expect("σ₄");
    // σ₅: above t#, same-element tuples form consecutive blocks — no
    // foreign element strictly between two tuples of one element.
    // Vars: 0 = t1, 1 = t2 (same element), 2 = t3 (foreign), 3 = s.
    let sigma5 = DenialConstraint::builder(rel, 4)
        .when_cmp(Term::attr(3, A), CmpOp::Eq, Term::val("#"))
        .when_cmp(Term::attr(0, A), CmpOp::Eq, Term::attr(1, A))
        .when_cmp(Term::attr(0, A), CmpOp::Ne, Term::val("#"))
        .when_cmp(Term::attr(2, A), CmpOp::Ne, Term::attr(0, A))
        .when_cmp(Term::attr(2, A), CmpOp::Ne, Term::val("#"))
        .when_order(3, A, 0)
        .when_order(3, A, 1)
        .when_order(3, A, 2)
        .when_order(0, A, 2)
        .when_order(2, A, 1)
        .then_false()
        .build()
        .expect("σ₅");
    for dc in [sigma1, sigma2, sigma3, sigma4, sigma5] {
        spec.add_constraint(dc).expect("σ over R");
    }
    CpsBetweennessGadget { spec, rel }
}

// ---------------------------------------------------------------------------
// Thm 3.1 (combined complexity): ∃∀3DNF → CPS
// ---------------------------------------------------------------------------

/// Output of [`cps_exists_forall_3dnf`].
#[derive(Clone, Debug)]
pub struct CpsEf3DnfGadget {
    /// The specification; consistent iff `∃X ∀Y φ_DNF` is true.
    pub spec: Specification,
    /// The single relation `R_V(EID, V, v, A1, A2, A3, B)`.
    pub rel: RelId,
}

/// Build the ∃∗∀∗3DNF → CPS gadget (proof of Theorem 3.1, combined
/// complexity).  The first `num_x` variables of `f` are the existential
/// block `X`; the rest are the universal block `Y`.  `f.clauses` is read
/// in DNF.
///
/// The instance holds, for one entity: two tuples per variable (candidate
/// truth values, selected by the completion of `≺_v` for `X` and
/// enumerated by tuple-variable bindings for `Y`), plus the eight-row
/// disjunction table `I_∨`.  A single large denial constraint `φ` encodes
/// "some binding falsifies every DNF conjunct → reject".
pub fn cps_exists_forall_3dnf(f: &Formula3, num_x: usize) -> CpsEf3DnfGadget {
    const V: AttrId = AttrId(0);
    const LV: AttrId = AttrId(1); // lowercase v
    const A: [AttrId; 3] = [AttrId(2), AttrId(3), AttrId(4)];
    const B: AttrId = AttrId(5);
    let hash = Value::str("#");
    let mut cat = Catalog::new();
    let rel = cat.add(RelationSchema::new(
        "RV",
        &["V", "v", "A1", "A2", "A3", "B"],
    ));
    let mut spec = Specification::new(cat);
    let e = Eid(0);
    let var_name = |u: usize| {
        if u < num_x {
            Value::str(format!("x{u}"))
        } else {
            Value::str(format!("y{}", u - num_x))
        }
    };
    let mut var_tuples: Vec<[TupleId; 2]> = Vec::new(); // [v=1, v=0]
    let mut or_rows: Vec<TupleId> = Vec::new();
    {
        let inst = spec.instance_mut(rel);
        for u in 0..f.num_vars {
            let hi = inst
                .push_tuple(Tuple::new(
                    e,
                    vec![
                        var_name(u),
                        Value::int(1),
                        hash.clone(),
                        hash.clone(),
                        hash.clone(),
                        hash.clone(),
                    ],
                ))
                .expect("variable tuple");
            let lo = inst
                .push_tuple(Tuple::new(
                    e,
                    vec![
                        var_name(u),
                        Value::int(0),
                        hash.clone(),
                        hash.clone(),
                        hash.clone(),
                        hash.clone(),
                    ],
                ))
                .expect("variable tuple");
            var_tuples.push([hi, lo]);
        }
        for bits in 0..8u8 {
            let a: Vec<i64> = (0..3).map(|p| (bits >> p & 1) as i64).collect();
            let b = i64::from(a.contains(&1));
            let id = inst
                .push_tuple(Tuple::new(
                    e,
                    vec![
                        hash.clone(),
                        hash.clone(),
                        Value::int(a[0]),
                        Value::int(a[1]),
                        Value::int(a[2]),
                        Value::int(b),
                    ],
                ))
                .expect("or row");
            or_rows.push(id);
        }
        // Initial ≺_V order: variable tuples chained by variable index,
        // X before Y, with the I_∨ rows below everything.
        for u1 in 0..f.num_vars {
            for u2 in (u1 + 1)..f.num_vars {
                for &a in &var_tuples[u1] {
                    for &b in &var_tuples[u2] {
                        inst.add_order(V, a, b).expect("same entity");
                    }
                }
            }
        }
        for &o in &or_rows {
            for pair in &var_tuples {
                for &t in pair {
                    inst.add_order(V, o, t).expect("same entity");
                }
            }
        }
    }
    // The constraint φ: tuple variables t_i, t'_i per X/Y variable and c_l
    // per DNF conjunct.
    let n_vars = 2 * f.num_vars + f.clauses.len();
    let ti = |u: usize| 2 * u; // the "selected" tuple of variable u
    let tpi = |u: usize| 2 * u + 1; // its partner
    let cl = |l: usize| 2 * f.num_vars + l;
    let mut builder = DenialConstraint::builder(rel, n_vars);
    for u in 0..f.num_vars {
        builder = builder
            .when_cmp(Term::attr(ti(u), V), CmpOp::Eq, Term::Const(var_name(u)))
            .when_cmp(Term::attr(tpi(u), V), CmpOp::Eq, Term::Const(var_name(u)));
        if u < num_x {
            // ξ_i: the completion's ≺_v orientation selects X's value.
            builder = builder.when_order(tpi(u), LV, ti(u));
        } else {
            // χ_j: Y values are enumerated freely, but the two bound
            // tuples must be the two distinct candidates.
            builder = builder.when_cmp(Term::attr(ti(u), LV), CmpOp::Ne, Term::attr(tpi(u), LV));
        }
    }
    for (l, clause) in f.clauses.iter().enumerate() {
        builder = builder.when_cmp(Term::attr(cl(l), B), CmpOp::Eq, Term::val(1));
        for (p, lit) in clause.iter().enumerate() {
            let var_term = Term::attr(ti(lit.var), LV);
            let op = if lit.positive { CmpOp::Ne } else { CmpOp::Eq };
            builder = builder.when_cmp(Term::attr(cl(l), A[p]), op, var_term);
        }
    }
    let phi = builder.then_order(0, V, 0).build().expect("φ well-formed");
    spec.add_constraint(phi).expect("φ over RV");
    CpsEf3DnfGadget { spec, rel }
}

// ---------------------------------------------------------------------------
// Thm 3.4 (data complexity): 3SAT → COP / DCIP
// ---------------------------------------------------------------------------

/// Output of [`cop_3sat`].
#[derive(Clone, Debug)]
pub struct Cop3SatGadget {
    /// The specification (always consistent).
    pub spec: Specification,
    /// The single relation `R_C(EID, C, L, S, V)`.
    pub rel: RelId,
    /// The currency order `Ot` asserting `t#` is most current everywhere;
    /// certain iff `ψ` is unsatisfiable.
    pub ot: CurrencyOrderQuery,
}

/// Build the 3SAT → COP gadget (proof of Theorem 3.4, data complexity).
/// The same specification decides DCIP: the current instance of `rel` is
/// deterministic iff `ψ` is unsatisfiable.
pub fn cop_3sat(f: &Formula3) -> Cop3SatGadget {
    const C: AttrId = AttrId(0);
    const L: AttrId = AttrId(1);
    const S: AttrId = AttrId(2);
    const V: AttrId = AttrId(3);
    let hash = Value::str("#");
    let mut cat = Catalog::new();
    let rel = cat.add(RelationSchema::new("RC", &["C", "L", "S", "V"]));
    let mut spec = Specification::new(cat);
    let e = Eid(0);
    let mut all: Vec<TupleId> = Vec::new();
    let t_sep;
    {
        let inst = spec.instance_mut(rel);
        for (j, clause) in f.clauses.iter().enumerate() {
            for (p, lit) in clause.iter().enumerate() {
                let sign = if lit.positive { "+" } else { "-" };
                all.push(
                    inst.push_tuple(Tuple::new(
                        e,
                        vec![
                            Value::int(j as i64),
                            Value::int(p as i64 + 1),
                            Value::str(sign),
                            Value::str(format!("x{}", lit.var)),
                        ],
                    ))
                    .expect("literal tuple"),
                );
            }
        }
        t_sep = inst
            .push_tuple(Tuple::new(
                e,
                vec![hash.clone(), hash.clone(), hash.clone(), hash.clone()],
            ))
            .expect("t#");
    }
    // (a) Uniform currency across attributes: ≺_C implies ≺ in the rest.
    for (from, to) in [(C, L), (C, S), (C, V), (L, C), (S, C), (V, C)] {
        let dc = DenialConstraint::builder(rel, 2)
            .when_order(0, from, 1)
            .then_order(0, to, 1)
            .build()
            .expect("uniformity");
        spec.add_constraint(dc).expect("uniformity over RC");
    }
    // (b) If anything is above t#, every clause has a tuple above t#:
    // forbid "some t above t# while clause j is entirely below".
    // Vars: 0 = s (t#), 1 = t, 2..5 = the clause's three tuples.
    let sigma_b = DenialConstraint::builder(rel, 5)
        .when_cmp(Term::attr(0, C), CmpOp::Eq, Term::Const(hash.clone()))
        .when_order(0, C, 1)
        .when_cmp(Term::attr(2, L), CmpOp::Eq, Term::val(1))
        .when_cmp(Term::attr(3, L), CmpOp::Eq, Term::val(2))
        .when_cmp(Term::attr(4, L), CmpOp::Eq, Term::val(3))
        .when_cmp(Term::attr(2, C), CmpOp::Eq, Term::attr(3, C))
        .when_cmp(Term::attr(3, C), CmpOp::Eq, Term::attr(4, C))
        .when_order(2, C, 0)
        .when_order(3, C, 0)
        .when_order(4, C, 0)
        .then_false()
        .build()
        .expect("σ_b");
    spec.add_constraint(sigma_b).expect("σ_b over RC");
    // (c) At most one polarity of each variable above t#.
    let sigma_c = DenialConstraint::builder(rel, 3)
        .when_cmp(Term::attr(0, C), CmpOp::Eq, Term::Const(hash))
        .when_cmp(Term::attr(1, V), CmpOp::Eq, Term::attr(2, V))
        .when_cmp(Term::attr(1, S), CmpOp::Ne, Term::attr(2, S))
        .when_order(0, C, 1)
        .when_order(0, C, 2)
        .then_false()
        .build()
        .expect("σ_c");
    spec.add_constraint(sigma_c).expect("σ_c over RC");
    let pairs = all
        .iter()
        .flat_map(|&u| [C, L, S, V].into_iter().map(move |a| (a, u, t_sep)))
        .collect();
    Cop3SatGadget {
        spec,
        rel,
        ot: CurrencyOrderQuery { rel, pairs },
    }
}

// ---------------------------------------------------------------------------
// Thm 3.5 (data complexity): 3SAT → CCQA
// ---------------------------------------------------------------------------

/// Output of [`ccqa_3sat`].
#[derive(Clone, Debug)]
pub struct Ccqa3SatGadget {
    /// The specification (no constraints, no copy functions).
    pub spec: Specification,
    /// The variable-assignment relation `R_X(EID_x, A_x)`.
    pub rx: RelId,
    /// The clause-negation relation `R_¬ψ`.
    pub rnotpsi: RelId,
    /// The fixed CQ of the proof.
    pub query: Query,
    /// The candidate answer `(1)`: certain iff `ψ` is unsatisfiable.
    pub tuple: Vec<Value>,
}

/// Build the 3SAT → CCQA gadget (proof of Theorem 3.5, data complexity):
/// `R_X` holds both candidate truth values per variable (one entity per
/// variable), `R_¬ψ` encodes the falsifying assignment of each clause, and
/// the fixed six-atom CQ returns `(1)` exactly on the current instances
/// whose encoded assignment falsifies some clause.
pub fn ccqa_3sat(f: &Formula3) -> Ccqa3SatGadget {
    let mut cat = Catalog::new();
    let rx = cat.add(RelationSchema::new("RX", &["Ax"]));
    let rnotpsi = cat.add(RelationSchema::new(
        "Rnotpsi",
        &["idC", "Px", "EIDx", "Bx", "w"],
    ));
    let mut spec = Specification::new(cat);
    for u in 0..f.num_vars {
        let e = Eid(u as u64);
        for v in [0i64, 1] {
            spec.instance_mut(rx)
                .push_tuple(Tuple::new(e, vec![Value::int(v)]))
                .expect("assignment tuple");
        }
    }
    let mut next_eid = 1000u64;
    for (j, clause) in f.clauses.iter().enumerate() {
        for (p, lit) in clause.iter().enumerate() {
            let falsifying = i64::from(!lit.positive);
            spec.instance_mut(rnotpsi)
                .push_tuple(Tuple::new(
                    Eid(next_eid),
                    vec![
                        Value::int(j as i64),
                        Value::int(p as i64 + 1),
                        Value::int(lit.var as i64),
                        Value::int(falsifying),
                        Value::int(1),
                    ],
                ))
                .expect("clause tuple");
            next_eid += 1;
        }
    }
    // Q(w) = ∃ j x1 x2 x3 v1 v2 v3:
    //   ⋀_p R_X(x_p, v_p) ∧ R_¬ψ(j, p, x_p, v_p, w)
    let mut b = QueryBuilder::new();
    let w = b.var();
    let j = b.var();
    let xs = b.vars(3);
    let vs = b.vars(3);
    let mut conjuncts = Vec::new();
    for p in 0..3 {
        conjuncts.push(Formula::Atom(Atom::with_eid(
            rx,
            QTerm::Var(xs[p]),
            vec![QTerm::Var(vs[p])],
        )));
        conjuncts.push(Formula::Atom(Atom::new(
            rnotpsi,
            vec![
                QTerm::Var(j),
                QTerm::val(p as i64 + 1),
                QTerm::Var(xs[p]),
                QTerm::Var(vs[p]),
                QTerm::Var(w),
            ],
        )));
    }
    let mut existential = vec![j];
    existential.extend(&xs);
    existential.extend(&vs);
    let body = Formula::Exists(existential, Box::new(Formula::And(conjuncts)));
    let query = b.build(vec![w], body);
    Ccqa3SatGadget {
        spec,
        rx,
        rnotpsi,
        query,
        tuple: vec![Value::int(1)],
    }
}

// ---------------------------------------------------------------------------
// Thm 5.1 (data complexity): ∀∃3CNF → CPP
// ---------------------------------------------------------------------------

/// Output of [`cpp_forall_exists_3cnf`].
#[derive(Clone, Debug)]
pub struct CppFe3CnfGadget {
    /// The specification.
    pub spec: Specification,
    /// Source relations `D′ = {R′_X, R′_b}`.
    pub sources: std::collections::BTreeSet<RelId>,
    /// The target assignment relation `R_XY`.
    pub rxy: RelId,
    /// The clause-negation relation `R_C`.
    pub rc: RelId,
    /// The flag relation `R_b`.
    pub rb: RelId,
    /// The fixed Boolean CQ of the proof.
    pub query: Query,
}

/// Build the ∀∃3CNF → CPP gadget (proof of Theorem 5.1, data complexity).
/// The copy functions are currency preserving iff `∀X ∃Y ψ_CNF` is true
/// (`X` = the first `num_x` variables).
pub fn cpp_forall_exists_3cnf(f: &Formula3, num_x: usize) -> CppFe3CnfGadget {
    const X: AttrId = AttrId(0);
    const VA: AttrId = AttrId(1);
    let c_val = Value::str("c");
    let mut cat = Catalog::new();
    let rxy = cat.add(RelationSchema::new("RXY", &["X", "V"]));
    let rc = cat.add(RelationSchema::new("RC", &["CID", "POS", "Z", "V", "C"]));
    let rb = cat.add(RelationSchema::new("Rb", &["C"]));
    let rpx = cat.add(RelationSchema::new("RpX", &["X", "V"]));
    let rpb = cat.add(RelationSchema::new("Rpb", &["C"]));
    let mut spec = Specification::new(cat);
    let var_name = |u: usize| {
        if u < num_x {
            Value::str(format!("x{u}"))
        } else {
            Value::str(format!("y{}", u - num_x))
        }
    };
    // R_XY: one entity per variable, candidate values 0 and 1.
    for u in 0..f.num_vars {
        for v in [0i64, 1] {
            spec.instance_mut(rxy)
                .push_tuple(Tuple::new(Eid(u as u64), vec![var_name(u), Value::int(v)]))
                .expect("RXY tuple");
        }
    }
    // R′_X: two source entities per X variable — one whose order selects
    // value 1, one whose order selects value 0.
    for u in 0..num_x {
        let inst = spec.instance_mut(rpx);
        let pe = Eid(1000 + 2 * u as u64);
        let p0 = inst
            .push_tuple(Tuple::new(pe, vec![var_name(u), Value::int(0)]))
            .expect("R'X");
        let p1 = inst
            .push_tuple(Tuple::new(pe, vec![var_name(u), Value::int(1)]))
            .expect("R'X");
        inst.add_order(VA, p0, p1).expect("selects 1");
        let qe = Eid(1001 + 2 * u as u64);
        let q0 = inst
            .push_tuple(Tuple::new(qe, vec![var_name(u), Value::int(0)]))
            .expect("R'X");
        let q1 = inst
            .push_tuple(Tuple::new(qe, vec![var_name(u), Value::int(1)]))
            .expect("R'X");
        inst.add_order(VA, q1, q0).expect("selects 0");
    }
    // R_C: the falsifying assignment of each clause.
    let mut next_eid = 5000u64;
    for (j, clause) in f.clauses.iter().enumerate() {
        for (p, lit) in clause.iter().enumerate() {
            let falsifying = i64::from(!lit.positive);
            spec.instance_mut(rc)
                .push_tuple(Tuple::new(
                    Eid(next_eid),
                    vec![
                        Value::int(j as i64),
                        Value::int(p as i64 + 1),
                        var_name(lit.var),
                        Value::int(falsifying),
                        c_val.clone(),
                    ],
                ))
                .expect("RC tuple");
            next_eid += 1;
        }
    }
    // R_b: flag entity with candidate values c and d; R′_b with d ≺ c.
    let rb_eid = Eid(9000);
    spec.instance_mut(rb)
        .push_tuple(Tuple::new(rb_eid, vec![c_val.clone()]))
        .expect("Rb c");
    spec.instance_mut(rb)
        .push_tuple(Tuple::new(rb_eid, vec![Value::str("d")]))
        .expect("Rb d");
    let rpb_eid = Eid(9100);
    let u1 = spec
        .instance_mut(rpb)
        .push_tuple(Tuple::new(rpb_eid, vec![c_val.clone()]))
        .expect("R'b c");
    let u2 = spec
        .instance_mut(rpb)
        .push_tuple(Tuple::new(rpb_eid, vec![Value::str("d")]))
        .expect("R'b d");
    spec.instance_mut(rpb)
        .add_order(AttrId(0), u2, u1)
        .expect("c most current");
    // Fixed denial constraint: an entity of R_XY holds one variable only
    // (blocks imports that would add a third candidate tuple).
    let two_per_entity = DenialConstraint::builder(rxy, 2)
        .when_cmp(Term::attr(0, X), CmpOp::Ne, Term::attr(1, X))
        .then_false()
        .build()
        .expect("two-per-entity");
    spec.add_constraint(two_per_entity).expect("DC over RXY");
    // Copy functions ρ₁ : R_XY[X,V] ⇐ R′_X[X,V] and ρ₂ : R_b[C] ⇐ R′_b[C],
    // both initially empty.
    let sig1 = CopySignature::new(rxy, vec![X, VA], rpx, vec![X, VA]).expect("σ(ρ₁)");
    spec.add_copy(CopyFunction::new(sig1)).expect("ρ₁");
    let sig2 = CopySignature::new(rb, vec![AttrId(0)], rpb, vec![AttrId(0)]).expect("σ(ρ₂)");
    spec.add_copy(CopyFunction::new(sig2)).expect("ρ₂");
    // The fixed Boolean CQ.
    let mut b = QueryBuilder::new();
    let j = b.var();
    let w = b.var();
    let zs = b.vars(3);
    let vs = b.vars(3);
    let mut conjuncts = Vec::new();
    for p in 0..3 {
        conjuncts.push(Formula::Atom(Atom::new(
            rxy,
            vec![QTerm::Var(zs[p]), QTerm::Var(vs[p])],
        )));
        conjuncts.push(Formula::Atom(Atom::new(
            rc,
            vec![
                QTerm::Var(j),
                QTerm::val(p as i64 + 1),
                QTerm::Var(zs[p]),
                QTerm::Var(vs[p]),
                QTerm::Var(w),
            ],
        )));
    }
    conjuncts.push(Formula::Atom(Atom::new(rb, vec![QTerm::Var(w)])));
    let mut existential = vec![j, w];
    existential.extend(&zs);
    existential.extend(&vs);
    let body = Formula::Exists(existential, Box::new(Formula::And(conjuncts)));
    let query = b.build(vec![], body);
    CppFe3CnfGadget {
        spec,
        sources: [rpx, rpb].into(),
        rxy,
        rc,
        rb,
        query,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::{random_betweenness, random_formula};

    #[test]
    fn betweenness_gadget_shape() {
        let b = random_betweenness(4, 3, 1);
        let g = cps_betweenness(&b);
        assert!(g.spec.validate().is_ok());
        assert_eq!(g.spec.instance(g.rel).len(), 6 * 3 + 1);
        assert_eq!(g.spec.constraints().len(), 5);
    }

    #[test]
    fn ef3dnf_gadget_shape() {
        let f = random_formula(4, 3, 2);
        let g = cps_exists_forall_3dnf(&f, 2);
        assert!(g.spec.validate().is_ok());
        // 2 tuples per variable + 8 disjunction rows.
        assert_eq!(g.spec.instance(g.rel).len(), 2 * 4 + 8);
        assert_eq!(g.spec.constraints().len(), 1);
    }

    #[test]
    fn cop_gadget_shape() {
        let f = random_formula(3, 4, 3);
        let g = cop_3sat(&f);
        assert!(g.spec.validate().is_ok());
        assert_eq!(g.spec.instance(g.rel).len(), 3 * 4 + 1);
        // 6 uniformity constraints + σ_b + σ_c.
        assert_eq!(g.spec.constraints().len(), 8);
        assert_eq!(g.ot.pairs.len(), 4 * 3 * 4);
    }

    #[test]
    fn ccqa_gadget_shape() {
        let f = random_formula(3, 2, 4);
        let g = ccqa_3sat(&f);
        assert!(g.spec.validate().is_ok());
        assert_eq!(g.spec.instance(g.rx).len(), 6);
        assert_eq!(g.spec.instance(g.rnotpsi).len(), 6);
        assert!(g.spec.has_no_constraints());
    }

    #[test]
    fn cpp_gadget_shape() {
        let f = random_formula(2, 2, 5);
        let g = cpp_forall_exists_3cnf(&f, 1);
        assert!(g.spec.validate().is_ok());
        assert_eq!(g.spec.instance(g.rxy).len(), 4);
        assert_eq!(g.spec.copies().len(), 2);
        assert_eq!(g.sources.len(), 2);
    }
}
