//! Reference implementations for differential tests (built under
//! `cfg(test)` and the `oracle` feature only).
//!
//! Components used to be grounded by the partition: every constraint per
//! cell ([`currency_core::DenialConstraint::ground_entity`]) and every
//! copy function's obligations per region
//! ([`currency_core::CopyFunction::obligations_for_region`]), stored on
//! the component and walked again by the encoder.  The engines now
//! ground at compile time ([`crate::encode::ComponentCompiler`]).  This
//! module keeps the old grounding as the reference the streamed compile
//! is checked against:
//!
//! * [`reference_encoding`] grounds a component the old way and hands
//!   the artifacts to the same CNF construction, so the two encodings
//!   agree ([`Encoding::shape`]) exactly when the two groundings yield
//!   the same rules and obligations in the same order;
//! * [`reference_components`] is the partition by definition: a
//!   union–find over every enumerated obligation.

use crate::encode::{CompileScratch, Encoding, Obligation};
use crate::partition::Component;
use crate::TransitivityMode;
use currency_core::{Eid, RelId, Specification};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Compile `component` of `spec` from the partition-side reference
/// grounding: each constraint's rules per cell in cell order (a
/// premise-free falsum dropped and reported), then each copy function's
/// obligations for the component's entities whose source cell lies in
/// the component.  Pair it with
/// [`ComponentCompiler::compile`](crate::encode::ComponentCompiler::compile)
/// on the same component.
pub fn reference_encoding(
    spec: &Specification,
    value_rels: &[RelId],
    component: &Arc<Component>,
    mode: TransitivityMode,
) -> Encoding {
    let mut scratch = CompileScratch::default();
    let mut falsum = false;
    for dc in spec.constraints() {
        let inst = spec.instance(dc.rel());
        for &(rel, eid) in &component.cells {
            if rel != dc.rel() {
                continue;
            }
            for rule in dc.ground_entity(inst, eid) {
                if rule.premises.is_empty() && rule.conclusion.is_none() {
                    falsum = true;
                    continue;
                }
                scratch.rules.push(&rule.premises, rule.conclusion);
            }
        }
        scratch.rule_runs.push((dc.rel(), scratch.rules.len()));
    }
    let entities = |rel: RelId| -> BTreeSet<Eid> {
        component
            .cells
            .iter()
            .filter(|&&(r, _)| r == rel)
            .map(|&(_, eid)| eid)
            .collect()
    };
    for cf in spec.copies() {
        let sig = cf.signature();
        let target = spec.instance(sig.target);
        let source = spec.instance(sig.source);
        let obligations =
            cf.obligations_for_region(target, source, &entities(sig.target), &entities(sig.source));
        for (source_edge, target_edge) in obligations {
            let src_cell = (sig.source, source.tuple(source_edge.lesser).eid);
            if component.cells.contains(&src_cell) {
                scratch.obligations.push(Obligation {
                    source_rel: sig.source,
                    source_edge,
                    target_rel: sig.target,
                    target_edge,
                });
            }
        }
    }
    Encoding::assemble(
        spec,
        value_rels,
        Some(component.clone()),
        mode,
        falsum,
        &mut scratch,
    )
}

/// The entity components of `spec` by definition: every live cell, with
/// the source and target cells of every enumerated copy obligation
/// merged.  Sorted by each component's least cell.
pub fn reference_components(spec: &Specification) -> Vec<BTreeSet<(RelId, Eid)>> {
    let cells: Vec<(RelId, Eid)> = spec
        .instances()
        .iter()
        .flat_map(|inst| inst.entities().map(move |eid| (inst.rel(), eid)))
        .collect();
    let mut parent: BTreeMap<(RelId, Eid), (RelId, Eid)> = cells.iter().map(|&c| (c, c)).collect();
    fn root(parent: &BTreeMap<(RelId, Eid), (RelId, Eid)>, mut c: (RelId, Eid)) -> (RelId, Eid) {
        while parent[&c] != c {
            c = parent[&c];
        }
        c
    }
    for cf in spec.copies() {
        let sig = cf.signature();
        let target = spec.instance(sig.target);
        let source = spec.instance(sig.source);
        for (s, t) in cf.compatibility_obligations(target, source) {
            let a = root(&parent, (sig.source, source.tuple(s.lesser).eid));
            let b = root(&parent, (sig.target, target.tuple(t.lesser).eid));
            parent.insert(a.max(b), a.min(b));
        }
    }
    let mut groups: BTreeMap<(RelId, Eid), BTreeSet<(RelId, Eid)>> = BTreeMap::new();
    for &c in &cells {
        groups.entry(root(&parent, c)).or_default().insert(c);
    }
    groups.into_values().collect()
}
