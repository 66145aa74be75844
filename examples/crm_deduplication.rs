//! Customer-360 staleness triage.
//!
//! A CRM has collected several records per customer from account signups,
//! support tickets and a legacy import.  Entity resolution has already
//! grouped the records; nothing carries a trustworthy timestamp.  The
//! data-currency machinery answers three operational questions:
//!
//! 1. which customers have a *certain* current email/tier (safe to mail)?
//! 2. which profile fields are provably current vs. genuinely ambiguous?
//! 3. does business semantics (loyalty tiers only upgrade; a cancelled
//!    account postdates an active one) pin down values that raw data
//!    leaves open?
//!
//! Run with: `cargo run --example crm_deduplication`

use data_currency::model::{
    Catalog, CmpOp, DenialConstraint, Eid, RelationSchema, Specification, Term, Tuple, Value,
};
use data_currency::query::{SpCondition, SpQuery};
use data_currency::reason::{certain_answers, dcip, poss_instance};

const NAME: data_currency::model::AttrId = data_currency::model::AttrId(0);
const EMAIL: data_currency::model::AttrId = data_currency::model::AttrId(1);
const TIER: data_currency::model::AttrId = data_currency::model::AttrId(2);
const STATE: data_currency::model::AttrId = data_currency::model::AttrId(3);

fn record(eid: u64, name: &str, email: &str, tier: i64, state: &str) -> Tuple {
    Tuple::new(
        Eid(eid),
        vec![
            Value::str(name),
            Value::str(email),
            Value::int(tier),
            Value::str(state),
        ],
    )
}

fn main() {
    println!("== CRM deduplication: which profile fields are current? ==\n");
    let mut cat = Catalog::new();
    let cust = cat.add(RelationSchema::new(
        "Customer",
        &["name", "email", "tier", "state"],
    ));
    let mut spec = Specification::new(cat);
    {
        let inst = spec.instance_mut(cust);
        // Ada: three stale records across systems.
        inst.push_tuple(record(1, "Ada", "ada@uni.edu", 1, "active"))
            .unwrap();
        inst.push_tuple(record(1, "Ada", "ada@corp.com", 2, "active"))
            .unwrap();
        inst.push_tuple(record(1, "Ada", "ada@corp.com", 3, "active"))
            .unwrap();
        // Grace: two records; the cancelled one must be the latest state.
        inst.push_tuple(record(2, "Grace", "grace@mail.com", 2, "active"))
            .unwrap();
        inst.push_tuple(record(2, "Grace", "grace@mail.com", 2, "cancelled"))
            .unwrap();
        // Linus: two records that genuinely disagree about the email.
        inst.push_tuple(record(3, "Linus", "linus@a.org", 1, "active"))
            .unwrap();
        inst.push_tuple(record(3, "Linus", "linus@b.org", 1, "active"))
            .unwrap();
    }
    // Business semantics as denial constraints:
    // loyalty tiers only upgrade — a higher tier is more current (in every
    // attribute: a record with a newer tier is a newer record).
    for attr in [NAME, EMAIL, TIER, STATE] {
        let dc = DenialConstraint::builder(cust, 2)
            .when_cmp(Term::attr(0, TIER), CmpOp::Gt, Term::attr(1, TIER))
            .then_order(1, attr, 0)
            .build()
            .unwrap();
        spec.add_constraint(dc).unwrap();
    }
    // A cancelled account postdates an active one (state attribute).
    let cancelled = DenialConstraint::builder(cust, 2)
        .when_cmp(Term::attr(0, STATE), CmpOp::Eq, Term::val("cancelled"))
        .when_cmp(Term::attr(1, STATE), CmpOp::Eq, Term::val("active"))
        .then_order(1, STATE, 0)
        .build()
        .unwrap();
    spec.add_constraint(cancelled).unwrap();

    // 1. Certain current emails per customer.
    println!("certain current profile fields:");
    for (eid, who) in [(1u64, "Ada"), (2, "Grace"), (3, "Linus")] {
        let q = SpQuery {
            rel: cust,
            projection: vec![EMAIL, TIER, STATE],
            conditions: vec![SpCondition::AttrConst(NAME, Value::str(who))],
        }
        .to_query(4);
        let ans = certain_answers(&spec, &q).unwrap();
        let rows = ans.rows().unwrap();
        if rows.is_empty() {
            println!("  {who:<6} (entity {eid}): NOT certain — do not auto-mail");
        } else {
            for r in rows {
                println!(
                    "  {who:<6} (entity {eid}): email={} tier={} state={}",
                    r[0], r[1], r[2]
                );
            }
        }
    }

    // 2. Is the whole current instance deterministic?
    let deterministic = dcip(&spec, cust).unwrap();
    println!("\nwhole Customer relation deterministic: {deterministic}");
    assert!(!deterministic, "Linus' email is genuinely ambiguous");

    // 3. The poss(S) view (paper Prop 6.3) pinpoints the ambiguous cells —
    //    only meaningful without constraints, so inspect the raw data view.
    let mut unconstrained = spec.clone();
    // Rebuild without constraints to see what the *data alone* determines.
    unconstrained = {
        let mut cat = Catalog::new();
        let c2 = cat.add(RelationSchema::new(
            "Customer",
            &["name", "email", "tier", "state"],
        ));
        let mut s2 = Specification::new(cat);
        for (_id, t) in unconstrained.instance(cust).tuples() {
            s2.instance_mut(c2).push_tuple(t.clone()).unwrap();
        }
        s2
    };
    let poss = poss_instance(&unconstrained, cust).unwrap().unwrap();
    println!("\nposs(S) without business semantics (⟨fresh#…⟩ = ambiguous):");
    for t in poss.iter() {
        println!(
            "  entity {}: name={} email={} tier={} state={}",
            t.eid, t.values[0], t.values[1], t.values[2], t.values[3]
        );
    }
    println!(
        "\nThe tier-upgrade rule turned Ada's ambiguous cells into certain ones;\n\
         Linus needs human review (or a copy from a fresher source — see the\n\
         copy_design example)."
    );
}
