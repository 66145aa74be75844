//! Current tuples and current instances (`LST`, paper §2).
//!
//! Given a consistent completion, the *current tuple* of an entity `e`
//! collects, for each attribute `A`, the `A`-value of the greatest (most
//! current) tuple in the completed order `≺ᶜ_A` restricted to `e`'s tuples.
//! The *current instance* `LST(Dᶜ)` is the set of current tuples of all
//! entities — a plain [`NormalInstance`] carrying no orders, over which
//! queries are evaluated.

use crate::completion::{Completion, RelCompletion};
use crate::instance::{NormalInstance, Tuple};
use crate::schema::AttrId;
use crate::spec::Specification;
use crate::temporal::TemporalInstance;
use crate::value::Eid;

/// The current tuple `LST(e, Dᶜ)` of entity `eid`.
///
/// Different attributes may be contributed by different tuples — the
/// paper's Example 2.4 builds a current tuple whose first four attributes
/// come from one record and whose salary comes from another.
///
/// # Panics
///
/// Panics if `eid` has no tuples in `inst` (the paper only defines current
/// tuples for entities present in the instance).
pub fn current_tuple(inst: &TemporalInstance, rc: &RelCompletion, eid: Eid) -> Tuple {
    let group = inst.entity_group(eid);
    assert!(
        !group.is_empty(),
        "current_tuple: entity {eid} not present in relation {}",
        inst.rel_name()
    );
    let values = (0..inst.arity())
        .map(|a| {
            let attr = AttrId(a as u32);
            let top = rc
                .last(attr, eid)
                .expect("completion covers every entity of the instance");
            inst.tuple(top).value(attr).clone()
        })
        .collect();
    Tuple::new(eid, values)
}

/// The current instance `LST(Dᶜ)` of one relation.
pub fn current_instance(inst: &TemporalInstance, rc: &RelCompletion) -> NormalInstance {
    let mut out = NormalInstance::new(inst.rel());
    for eid in inst.entities() {
        out.push(current_tuple(inst, rc, eid));
    }
    out
}

/// The current instances of every relation of a specification under a
/// completion — `LST(Dᶜ)` lifted to the whole specification.
pub fn lst(spec: &Specification, completion: &Completion) -> Vec<NormalInstance> {
    spec.instances()
        .iter()
        .map(|inst| current_instance(inst, completion.rel(inst.rel())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::completion::RelCompletion;
    use crate::schema::{Catalog, RelationSchema};
    use crate::value::Value;
    use std::collections::BTreeMap;

    /// Entity 1 has two tuples; attribute orders disagree about which is
    /// most current (as in the paper's Example 2.4).
    #[test]
    fn current_tuple_mixes_attributes() {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["name", "salary"]));
        let mut spec = Specification::new(cat);
        let t0 = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(
                Eid(1),
                vec![Value::str("old-name"), Value::int(80)],
            ))
            .unwrap();
        let t1 = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(
                Eid(1),
                vec![Value::str("new-name"), Value::int(55)],
            ))
            .unwrap();
        let inst = spec.instance(r);
        // name: t0 ≺ t1 (t1 current); salary: t1 ≺ t0 (t0 current).
        let mut name_chain = BTreeMap::new();
        name_chain.insert(Eid(1), vec![t0, t1]);
        let mut salary_chain = BTreeMap::new();
        salary_chain.insert(Eid(1), vec![t1, t0]);
        let rc = RelCompletion::new(inst, vec![name_chain, salary_chain]).unwrap();
        let cur = current_tuple(inst, &rc, Eid(1));
        assert_eq!(cur.values, vec![Value::str("new-name"), Value::int(80)]);
    }

    #[test]
    fn current_instance_has_one_tuple_per_entity() {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        let a0 = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1)]))
            .unwrap();
        let a1 = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(2)]))
            .unwrap();
        let b0 = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(2), vec![Value::int(3)]))
            .unwrap();
        let inst = spec.instance(r);
        let mut chain = BTreeMap::new();
        chain.insert(Eid(1), vec![a0, a1]);
        chain.insert(Eid(2), vec![b0]);
        let rc = RelCompletion::new(inst, vec![chain]).unwrap();
        let cur = current_instance(inst, &rc);
        assert_eq!(cur.len(), 2);
        assert!(cur.contains(&Tuple::new(Eid(1), vec![Value::int(2)])));
        assert!(cur.contains(&Tuple::new(Eid(2), vec![Value::int(3)])));
    }

    #[test]
    fn lst_covers_all_relations() {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let s = cat.add(RelationSchema::new("S", &["X"]));
        let mut spec = Specification::new(cat);
        let tr = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1)]))
            .unwrap();
        let ts = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(5), vec![Value::str("x")]))
            .unwrap();
        let mut rc = BTreeMap::new();
        rc.insert(Eid(1), vec![tr]);
        let mut sc = BTreeMap::new();
        sc.insert(Eid(5), vec![ts]);
        let completion = Completion::new(vec![
            RelCompletion::new(spec.instance(r), vec![rc]).unwrap(),
            RelCompletion::new(spec.instance(s), vec![sc]).unwrap(),
        ]);
        let all = lst(&spec, &completion);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].len(), 1);
        assert_eq!(all[1].len(), 1);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn current_tuple_panics_on_unknown_entity() {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        let t0 = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1)]))
            .unwrap();
        let inst = spec.instance(r);
        let mut chain = BTreeMap::new();
        chain.insert(Eid(1), vec![t0]);
        let rc = RelCompletion::new(inst, vec![chain]).unwrap();
        let _ = current_tuple(inst, &rc, Eid(42));
    }
}
