//! End-to-end: text query syntax → parser → classification → certain
//! current answers over the paper's Fig. 1 database.

use data_currency::datagen::scenarios;
use data_currency::model::Value;
use data_currency::query::{classify, parse_query, QueryClass};
use data_currency::reason::certain_answers;

#[test]
fn q1_as_text() {
    let f = scenarios::fig1();
    let q = parse_query(
        f.spec.catalog(),
        "Q(sal) :- Emp(fn, ln, addr, sal, st) and fn = 'Mary'",
    )
    .unwrap();
    assert_eq!(classify(&q), QueryClass::Sp);
    let ans = certain_answers(&f.spec, &q).unwrap();
    assert_eq!(ans.rows().unwrap(), &[vec![Value::int(80)]]);
}

#[test]
fn q4_as_text() {
    let f = scenarios::fig1();
    let q = parse_query(f.spec.catalog(), "Q(b) :- Dept(mfn, mln, maddr, b)").unwrap();
    let ans = certain_answers(&f.spec, &q).unwrap();
    assert_eq!(ans.rows().unwrap(), &[vec![Value::int(6000)]]);
}

#[test]
fn join_query_across_relations() {
    // Managers of departments: join Dept's manager name to Emp records.
    let f = scenarios::fig1();
    let q = parse_query(
        f.spec.catalog(),
        "Q(addr) :- Dept(mfn, mln, maddr, b) and Emp(mfn, mln, addr, sal, st)",
    )
    .unwrap();
    assert_eq!(classify(&q), QueryClass::Cq);
    let ans = certain_answers(&f.spec, &q).unwrap();
    // The R&D manager's identity is genuinely uncertain (Mary in t3's
    // world, Ed in t4's world, and no Emp record matches Ed Luth), so the
    // join has NO certain answers — exactly the kind of stale-data hazard
    // the framework is built to expose.
    assert_eq!(ans.rows().unwrap(), &[] as &[Vec<Value>]);

    // A Boolean join that holds in every completion: some department
    // currently budgets 6000 while some employee currently earns 80.
    let q2 = parse_query(
        f.spec.catalog(),
        "Q() :- Dept(mfn, mln, maddr, 6000) and Emp(fn, ln, addr, 80, st)",
    )
    .unwrap();
    assert_eq!(classify(&q2), QueryClass::Cq);
    let ans2 = certain_answers(&f.spec, &q2).unwrap();
    assert_eq!(ans2.rows().unwrap().len(), 1, "certainly true");
}

#[test]
fn boolean_fo_query() {
    let f = scenarios::fig1();
    // "Someone currently earns at least 80."
    let q = parse_query(
        f.spec.catalog(),
        "Q() :- exists fn ln addr sal st . Emp(fn, ln, addr, sal, st) and sal >= 80",
    )
    .unwrap();
    let ans = certain_answers(&f.spec, &q).unwrap();
    assert_eq!(ans.rows().unwrap().len(), 1, "certainly true");
    // "Nobody currently earns more than 100."
    let q2 = parse_query(
        f.spec.catalog(),
        "Q() :- forall fn ln addr sal st . not Emp(fn, ln, addr, sal, st) or sal <= 100",
    )
    .unwrap();
    assert_eq!(classify(&q2), QueryClass::Fo);
    let ans2 = certain_answers(&f.spec, &q2).unwrap();
    assert_eq!(ans2.rows().unwrap().len(), 1, "certainly true");
}

#[test]
fn uncertain_text_query_yields_empty_answers() {
    let f = scenarios::fig1();
    // The R&D manager's first name is uncertain (Mary in t3's world, Ed in
    // t4's world).
    let q = parse_query(f.spec.catalog(), "Q(mfn) :- Dept(mfn, mln, maddr, b)").unwrap();
    let ans = certain_answers(&f.spec, &q).unwrap();
    assert!(ans.rows().unwrap().is_empty());
}

#[test]
fn eid_syntax_joins_on_entities() {
    let f = scenarios::fig1();
    // Bind Emp's entity id and count Mary's entity once.
    let q = parse_query(
        f.spec.catalog(),
        "Q(e) :- Emp(#e, fn, ln, addr, sal, st) and fn = 'Mary'",
    )
    .unwrap();
    let ans = certain_answers(&f.spec, &q).unwrap();
    assert_eq!(ans.rows().unwrap(), &[vec![Value::int(f.mary.0 as i64)]]);
}
