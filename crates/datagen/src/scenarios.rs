//! The paper's worked examples as ready-made specifications.

use currency_core::{
    AttrId, Catalog, CmpOp, CopyFunction, CopySignature, DenialConstraint, Eid, RelId,
    RelationSchema, Specification, Term, Tuple, TupleId, Value,
};
use currency_query::{SpCondition, SpQuery};

/// The Fig. 1 company database, its constraints φ₁–φ₄ (Example 2.1) and
/// the `Dept[mgrAddr] ⇐ Emp[address]` copy function (Example 2.2).
///
/// Entities: `s1–s3` are Mary; `s4` and `s5` are two further people
/// (Example 2.4 merges them — see [`fig1_with_merged_luth`]).  All four
/// `Dept` tuples describe the R&D department (`dname` is its entity id,
/// Example 2.3).
#[derive(Clone, Debug)]
pub struct Fig1 {
    /// The assembled specification.
    pub spec: Specification,
    /// Relation ids.
    pub emp: RelId,
    /// The `Dept` relation.
    pub dept: RelId,
    /// Emp tuples `s1..s5` (index 0 = s1).
    pub s: [TupleId; 5],
    /// Dept tuples `t1..t4` (index 0 = t1).
    pub t: [TupleId; 4],
    /// Mary's entity id.
    pub mary: Eid,
    /// The R&D department's entity id.
    pub rnd: Eid,
}

/// Emp attribute ids for [`Fig1`] (FN, LN, address, salary, status).
pub mod emp_attrs {
    use currency_core::AttrId;
    /// First name.
    pub const FN: AttrId = AttrId(0);
    /// Last name.
    pub const LN: AttrId = AttrId(1);
    /// Address.
    pub const ADDRESS: AttrId = AttrId(2);
    /// Salary.
    pub const SALARY: AttrId = AttrId(3);
    /// Marital status.
    pub const STATUS: AttrId = AttrId(4);
}

/// Dept attribute ids for [`Fig1`] (mgrFN, mgrLN, mgrAddr, budget).
pub mod dept_attrs {
    use currency_core::AttrId;
    /// Manager first name.
    pub const MGR_FN: AttrId = AttrId(0);
    /// Manager last name.
    pub const MGR_LN: AttrId = AttrId(1);
    /// Manager address.
    pub const MGR_ADDR: AttrId = AttrId(2);
    /// Department budget.
    pub const BUDGET: AttrId = AttrId(3);
}

fn emp_tuple(eid: Eid, fn_: &str, ln: &str, addr: &str, salary: i64, status: &str) -> Tuple {
    Tuple::new(
        eid,
        vec![
            Value::str(fn_),
            Value::str(ln),
            Value::str(addr),
            Value::int(salary),
            Value::str(status),
        ],
    )
}

fn dept_tuple(eid: Eid, mfn: &str, mln: &str, maddr: &str, budget: i64) -> Tuple {
    Tuple::new(
        eid,
        vec![
            Value::str(mfn),
            Value::str(mln),
            Value::str(maddr),
            Value::int(budget),
        ],
    )
}

/// φ₁: a higher salary is a more current salary (within one entity).
pub fn phi1(emp: RelId) -> DenialConstraint {
    DenialConstraint::builder(emp, 2)
        .when_cmp(
            Term::attr(0, emp_attrs::SALARY),
            CmpOp::Gt,
            Term::attr(1, emp_attrs::SALARY),
        )
        .then_order(1, emp_attrs::SALARY, 0)
        .build()
        .expect("φ₁ well-formed")
}

/// φ₂: a `married` status is a more current last name than a `single` one.
pub fn phi2(emp: RelId) -> DenialConstraint {
    DenialConstraint::builder(emp, 2)
        .when_cmp(
            Term::attr(0, emp_attrs::STATUS),
            CmpOp::Eq,
            Term::val("married"),
        )
        .when_cmp(
            Term::attr(1, emp_attrs::STATUS),
            CmpOp::Eq,
            Term::val("single"),
        )
        .then_order(1, emp_attrs::LN, 0)
        .build()
        .expect("φ₂ well-formed")
}

/// The status-transition constraints of Example 1.1(2a): marital status
/// only moves `single → married → divorced`, so a later stage is a more
/// current *status* than an earlier one.  Example 3.3's claim that `S₀` is
/// deterministic for current `Emp` instances needs these (φ₁–φ₄ alone
/// leave the `status` attribute unordered).
pub fn phi_status(emp: RelId) -> Vec<DenialConstraint> {
    let stage = |earlier: &str, later: &str| {
        DenialConstraint::builder(emp, 2)
            .when_cmp(
                Term::attr(0, emp_attrs::STATUS),
                CmpOp::Eq,
                Term::val(later),
            )
            .when_cmp(
                Term::attr(1, emp_attrs::STATUS),
                CmpOp::Eq,
                Term::val(earlier),
            )
            .then_order(1, emp_attrs::STATUS, 0)
            .build()
            .expect("status transition well-formed")
    };
    vec![
        stage("single", "married"),
        stage("married", "divorced"),
        stage("single", "divorced"),
    ]
}

/// φ₃: a more current salary entails a more current address.
pub fn phi3(emp: RelId) -> DenialConstraint {
    DenialConstraint::builder(emp, 2)
        .when_order(1, emp_attrs::SALARY, 0)
        .then_order(1, emp_attrs::ADDRESS, 0)
        .build()
        .expect("φ₃ well-formed")
}

/// φ₄: a more current manager address entails a more current budget.
pub fn phi4(dept: RelId) -> DenialConstraint {
    DenialConstraint::builder(dept, 2)
        .when_order(1, dept_attrs::MGR_ADDR, 0)
        .then_order(1, dept_attrs::BUDGET, 0)
        .build()
        .expect("φ₄ well-formed")
}

/// Build the Fig. 1 specification `S₀` (Example 2.3): the data of Fig. 1,
/// constraints φ₁–φ₄, and the copy function ρ of Example 2.2 with
/// `ρ(t1) = ρ(t2) = s1`, `ρ(t3) = s3`, `ρ(t4) = s4`.
pub fn fig1() -> Fig1 {
    build_fig1(false)
}

/// The Fig. 1 database with `s4` and `s5` merged into one person, as in
/// the second half of Example 2.4.
pub fn fig1_with_merged_luth() -> Fig1 {
    build_fig1(true)
}

fn build_fig1(merge_luth: bool) -> Fig1 {
    let mut cat = Catalog::new();
    let emp = cat.add(RelationSchema::new(
        "Emp",
        &["FN", "LN", "address", "salary", "status"],
    ));
    let dept = cat.add(RelationSchema::new(
        "Dept",
        &["mgrFN", "mgrLN", "mgrAddr", "budget"],
    ));
    let mut spec = Specification::new(cat);
    let mary = Eid(1);
    let bob = Eid(2);
    let robert = if merge_luth { bob } else { Eid(3) };
    let rnd = Eid(10);
    let e = spec.instance_mut(emp);
    let s = [
        e.push_tuple(emp_tuple(mary, "Mary", "Smith", "2 Small St", 50, "single"))
            .expect("s1"),
        e.push_tuple(emp_tuple(
            mary,
            "Mary",
            "Dupont",
            "10 Elm Ave",
            50,
            "married",
        ))
        .expect("s2"),
        e.push_tuple(emp_tuple(
            mary,
            "Mary",
            "Dupont",
            "6 Main St",
            80,
            "married",
        ))
        .expect("s3"),
        e.push_tuple(emp_tuple(bob, "Bob", "Luth", "8 Cowan St", 80, "married"))
            .expect("s4"),
        e.push_tuple(emp_tuple(
            robert,
            "Robert",
            "Luth",
            "8 Drum St",
            55,
            "married",
        ))
        .expect("s5"),
    ];
    let d = spec.instance_mut(dept);
    let t = [
        d.push_tuple(dept_tuple(rnd, "Mary", "Smith", "2 Small St", 6500))
            .expect("t1"),
        d.push_tuple(dept_tuple(rnd, "Mary", "Smith", "2 Small St", 7000))
            .expect("t2"),
        d.push_tuple(dept_tuple(rnd, "Mary", "Dupont", "6 Main St", 6000))
            .expect("t3"),
        d.push_tuple(dept_tuple(rnd, "Ed", "Luth", "8 Cowan St", 6000))
            .expect("t4"),
    ];
    spec.add_constraint(phi1(emp)).expect("φ₁");
    spec.add_constraint(phi2(emp)).expect("φ₂");
    spec.add_constraint(phi3(emp)).expect("φ₃");
    spec.add_constraint(phi4(dept)).expect("φ₄");
    for dc in phi_status(emp) {
        spec.add_constraint(dc).expect("status transitions");
    }
    // ρ: Dept[mgrAddr] ⇐ Emp[address] (Example 2.2).
    let sig = CopySignature::new(
        dept,
        vec![dept_attrs::MGR_ADDR],
        emp,
        vec![emp_attrs::ADDRESS],
    )
    .expect("signature");
    let mut rho = CopyFunction::new(sig);
    rho.set_mapping(t[0], s[0]);
    rho.set_mapping(t[1], s[0]);
    rho.set_mapping(t[2], s[2]);
    rho.set_mapping(t[3], s[3]);
    spec.add_copy(rho)
        .expect("ρ satisfies the copying condition");
    Fig1 {
        spec,
        emp,
        dept,
        s,
        t,
        mary,
        rnd,
    }
}

impl Fig1 {
    /// Q₁ (Example 1.1): Mary's current salary.
    pub fn q1(&self) -> SpQuery {
        SpQuery {
            rel: self.emp,
            projection: vec![emp_attrs::SALARY],
            conditions: vec![SpCondition::AttrConst(emp_attrs::FN, Value::str("Mary"))],
        }
    }

    /// Q₂ (Example 1.1): Mary's current last name.
    pub fn q2(&self) -> SpQuery {
        SpQuery {
            rel: self.emp,
            projection: vec![emp_attrs::LN],
            conditions: vec![SpCondition::AttrConst(emp_attrs::FN, Value::str("Mary"))],
        }
    }

    /// Q₃ (Example 1.1): Mary's current address.
    pub fn q3(&self) -> SpQuery {
        SpQuery {
            rel: self.emp,
            projection: vec![emp_attrs::ADDRESS],
            conditions: vec![SpCondition::AttrConst(emp_attrs::FN, Value::str("Mary"))],
        }
    }

    /// Q₄ (Example 1.1): the R&D department's current budget.
    pub fn q4(&self) -> SpQuery {
        SpQuery {
            rel: self.dept,
            projection: vec![dept_attrs::BUDGET],
            conditions: vec![],
        }
    }
}

/// The Example 4.1 currency-preservation scenario: `Emp` (restricted to
/// Mary — the example's reasoning concerns her records) importing from the
/// Fig. 3 `Mgr` relation through a full-signature copy function with
/// `ρ(s3) = s′2`.
///
/// Constraints: φ₁–φ₃ on `Emp`, φ₅ on `Mgr` (divorced is a more current
/// last name than married), and — needed for the example's stated outcome
/// "after importing s′3, the certain last name is Smith in *all*
/// completions" — the φ₅ analogue on `Emp` itself.  (The paper's example
/// text derives this from the status-transition semantics of Example
/// 1.1(2a); we materialize it as an explicit constraint.)
#[derive(Clone, Debug)]
pub struct Example41 {
    /// The assembled specification.
    pub spec: Specification,
    /// The importing relation (`Emp`, Mary's records only).
    pub emp: RelId,
    /// The source relation (`Mgr`, Fig. 3).
    pub mgr: RelId,
    /// Emp tuples `s1..s3`.
    pub s: [TupleId; 3],
    /// Mgr tuples `s′1..s′3`.
    pub sp: [TupleId; 3],
    /// Mary's entity id (shared by both relations).
    pub mary: Eid,
}

/// φ₅ of Example 4.1: a `divorced` status is a more current last name than
/// a `married` one (stated for the given relation).
pub fn phi5(rel: RelId) -> DenialConstraint {
    DenialConstraint::builder(rel, 2)
        .when_cmp(
            Term::attr(0, emp_attrs::STATUS),
            CmpOp::Eq,
            Term::val("divorced"),
        )
        .when_cmp(
            Term::attr(1, emp_attrs::STATUS),
            CmpOp::Eq,
            Term::val("married"),
        )
        .then_order(1, emp_attrs::LN, 0)
        .build()
        .expect("φ₅ well-formed")
}

/// Build the Example 4.1 scenario.
pub fn example_4_1() -> Example41 {
    let mut cat = Catalog::new();
    let emp = cat.add(RelationSchema::new(
        "Emp",
        &["FN", "LN", "address", "salary", "status"],
    ));
    let mgr = cat.add(RelationSchema::new(
        "Mgr",
        &["FN", "LN", "address", "salary", "status"],
    ));
    let mut spec = Specification::new(cat);
    let mary = Eid(1);
    let e = spec.instance_mut(emp);
    let s = [
        e.push_tuple(emp_tuple(mary, "Mary", "Smith", "2 Small St", 50, "single"))
            .expect("s1"),
        e.push_tuple(emp_tuple(
            mary,
            "Mary",
            "Dupont",
            "10 Elm Ave",
            50,
            "married",
        ))
        .expect("s2"),
        e.push_tuple(emp_tuple(
            mary,
            "Mary",
            "Dupont",
            "6 Main St",
            80,
            "married",
        ))
        .expect("s3"),
    ];
    let m = spec.instance_mut(mgr);
    let sp = [
        m.push_tuple(emp_tuple(
            mary,
            "Mary",
            "Dupont",
            "6 Main St",
            60,
            "married",
        ))
        .expect("s′1"),
        m.push_tuple(emp_tuple(
            mary,
            "Mary",
            "Dupont",
            "6 Main St",
            80,
            "married",
        ))
        .expect("s′2"),
        m.push_tuple(emp_tuple(
            mary,
            "Mary",
            "Smith",
            "2 Small St",
            80,
            "divorced",
        ))
        .expect("s′3"),
    ];
    spec.add_constraint(phi1(emp)).expect("φ₁");
    spec.add_constraint(phi2(emp)).expect("φ₂");
    spec.add_constraint(phi3(emp)).expect("φ₃");
    spec.add_constraint(phi5(mgr)).expect("φ₅ on Mgr");
    spec.add_constraint(phi5(emp)).expect("φ₅ analogue on Emp");
    // ρ: Emp[Ā] ⇐ Mgr[Ā] over all five attributes, ρ(s3) = s′2.
    let attrs: Vec<AttrId> = (0..5).map(|i| AttrId(i as u32)).collect();
    let sig = CopySignature::new(emp, attrs.clone(), mgr, attrs).expect("signature");
    let mut rho = CopyFunction::new(sig);
    rho.set_mapping(s[2], sp[1]);
    spec.add_copy(rho).expect("ρ(s3) = s′2 value-equal");
    Example41 {
        spec,
        emp,
        mgr,
        s,
        sp,
        mary,
    }
}

impl Example41 {
    /// Q₂: Mary's current last name.
    pub fn q2(&self) -> SpQuery {
        SpQuery {
            rel: self.emp,
            projection: vec![emp_attrs::LN],
            conditions: vec![SpCondition::AttrConst(emp_attrs::FN, Value::str("Mary"))],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape_matches_paper() {
        let f = fig1();
        assert_eq!(f.spec.instance(f.emp).len(), 5);
        assert_eq!(f.spec.instance(f.dept).len(), 4);
        assert_eq!(f.spec.constraints().len(), 7);
        assert_eq!(f.spec.copies().len(), 1);
        assert_eq!(f.spec.copies()[0].len(), 4);
        assert!(f.spec.validate().is_ok());
        // s1–s3 are one entity; s4, s5 are two more.
        assert_eq!(f.spec.instance(f.emp).entity_group(f.mary).len(), 3);
        assert_eq!(f.spec.instance(f.emp).entities().count(), 3);
        // All Dept tuples describe R&D.
        assert_eq!(f.spec.instance(f.dept).entity_group(f.rnd).len(), 4);
    }

    #[test]
    fn merged_variant_unifies_luth() {
        let f = fig1_with_merged_luth();
        assert_eq!(f.spec.instance(f.emp).entities().count(), 2);
    }

    #[test]
    fn grounded_phi1_orders_salaries() {
        let f = fig1();
        let rules = phi1(f.emp).ground(f.spec.instance(f.emp));
        // Within Mary's entity: s3 (80) above s1 and s2 (50) — two rules.
        assert_eq!(rules.len(), 2);
        for r in &rules {
            assert_eq!(r.conclusion.unwrap().greater, f.s[2]);
        }
    }

    #[test]
    fn example41_shape() {
        let e = example_4_1();
        assert!(e.spec.validate().is_ok());
        assert_eq!(e.spec.instance(e.emp).len(), 3);
        assert_eq!(e.spec.instance(e.mgr).len(), 3);
        assert_eq!(e.spec.copies()[0].len(), 1);
        assert_eq!(e.spec.constraints().len(), 5);
    }

    #[test]
    fn queries_have_expected_shapes() {
        let f = fig1();
        assert_eq!(f.q1().projection, vec![emp_attrs::SALARY]);
        assert_eq!(f.q4().rel, f.dept);
        assert!(f.q4().conditions.is_empty());
    }
}
