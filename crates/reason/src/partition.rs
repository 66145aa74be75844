//! Entity partitioning of specifications.
//!
//! The CNF encoding of a specification (see [`crate::encode`]) only ever
//! relates order variables of the *same entity group*: currency orders are
//! per-entity by definition, ground denial rules instantiate tuple
//! variables within one relation, and copy-compatibility obligations tie a
//! source entity's order to a target entity's order.  The encoding is
//! therefore a disjoint union of independent subproblems over connected
//! sets of `(relation, entity)` cells, where the connecting edges are:
//!
//! * a ground denial rule whose premises/conclusion span several entities
//!   of its relation (cross-entity denial constraints), and
//! * a copy-compatibility obligation, linking the source pair's entity to
//!   the target pair's entity.
//!
//! [`Partition::of`] computes the connected components with a union–find
//! over the cells, grounding every constraint and copy function **once**
//! and distributing the ground artifacts to their components.  The
//! [`crate::engine::CurrencyEngine`] compiles each component into its own
//! cached solver and answers queries against only the components they
//! touch.
//!
//! ## Incremental maintenance
//!
//! The partition is *dynamic*: after a [`currency_core::SpecDelta`] is
//! applied to the specification, [`Partition::refresh`] re-derives only
//! the **dirty region** — the components owning a touched cell, plus any
//! component a freshly derived copy obligation links into it.  Grounding
//! is entity-local ([`currency_core::DenialConstraint::ground_entity`]),
//! and obligations are enumerated only for the mapping groups the dirty
//! region's entities participate in
//! ([`currency_core::CopyFunction::obligations_for_region`], an indexed
//! lookup — never a scan of a copy's whole mapping set).  The dirty
//! region is then locally re-partitioned (merges *and* splits both fall
//! out of re-running the union–find over the region).
//!
//! ## Stable slots
//!
//! Components live in **slots** whose indices are stable across
//! refreshes: a clean component keeps its absolute index forever, so the
//! engine's cached per-slot state needs no remapping — slot identity
//! *is* component identity.  A refresh vacates the dirty slots, reuses
//! them (via a free-list) for the freshly derived components, and
//! appends only on overflow; the cell → slot index is patched for the
//! dirty region's cells only.  Refresh cost therefore scales with the
//! dirty region, not with the specification — the returned
//! [`RefreshPlan`] lists just the rebuilt and freed slots.
//!
//! ## Sharing
//!
//! The slot array, the cell → slot index and the falsum cells are paged
//! copy-on-write containers ([`currency_core::cow`]), and each slot holds
//! its component behind an `Arc`.  A cloned partition therefore shares
//! every page with the original, and a refresh on the clone copies only
//! the pages its dirty region writes — which is what lets the serving
//! writer publish a partition per delta without copying it.

use currency_core::cow::{Paged, PagedMap, PagedVec};
use currency_core::{Eid, GroundRule, OrderEdge, RelId, Specification};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A ground denial rule tagged with the relation it speaks about.
#[derive(Clone, Debug)]
pub struct GroundRuleAt {
    /// The relation whose tuples the rule's edges relate.
    pub rel: RelId,
    /// The ground rule (`⋀ premises → conclusion`).
    pub rule: GroundRule,
}

/// A ground copy-compatibility obligation tagged with its relations:
/// *if* the completed source order contains `source_edge`, *then* the
/// completed target order must contain `target_edge`.
#[derive(Clone, Debug)]
pub struct ObligationAt {
    /// Relation of the source edge.
    pub source_rel: RelId,
    /// The source-order edge.
    pub source_edge: OrderEdge,
    /// Relation of the target edge.
    pub target_rel: RelId,
    /// The target-order edge.
    pub target_edge: OrderEdge,
}

/// One independent subproblem: a connected set of `(relation, entity)`
/// cells together with the ground rules and obligations local to it.
#[derive(Clone, Debug, Default)]
pub struct Component {
    /// The cells (every tuple of the specification belongs to exactly one
    /// component through its `(relation, entity)` cell).
    pub cells: BTreeSet<(RelId, Eid)>,
    /// Ground denial rules whose edges live in this component.
    pub rules: Vec<GroundRuleAt>,
    /// Copy obligations whose edges live in this component.
    pub obligations: Vec<ObligationAt>,
}

/// The entity partition of a specification, stored in stable slots.
///
/// The slots ([`Partition::component`], `0..`[`Partition::slots`]) each
/// hold a live component or are *vacant* (empty cell set, tracked on a
/// free-list).  Slot indices are the identity the engine caches against
/// — a refresh never moves a clean component.
#[derive(Clone, Debug)]
pub struct Partition {
    /// The slot array; vacant slots hold an empty [`Component`].
    components: PagedVec<Arc<Component>>,
    /// Vacant slot indices, reused (LIFO) before the array grows.
    free: Vec<usize>,
    /// Number of live (non-vacant) components.
    live: usize,
    index: PagedMap<(RelId, Eid), usize>,
    /// Cells whose grounding produced a premise-free falsum rule (an
    /// unconditional contradiction local to that cell).
    falsum_cells: PagedMap<(RelId, Eid), ()>,
    /// `true` if grounding produced a premise-free falsum rule — the
    /// specification is inconsistent regardless of any order choice.
    pub has_ground_falsum: bool,
}

/// Scratch buffers reused across [`Partition::refresh`] calls (cleared,
/// never shrunk — capacity amortizes across the delta stream).  The
/// writer owns them and lends them to each refresh, so a cloned or
/// published partition carries no scratch.
#[derive(Debug, Default)]
pub struct RefreshScratch {
    dirty_slots: Vec<usize>,
    dirty_cells: Vec<(RelId, Eid)>,
    region: Vec<(RelId, Eid)>,
    cell_ids: HashMap<(RelId, Eid), u32>,
}

/// The outcome of [`Partition::refresh`]: which slots changed.  Sized by
/// the dirty region, not the component count.
#[derive(Clone, Debug)]
pub struct RefreshPlan {
    /// Slots holding freshly derived components — the engine must
    /// recompile exactly these.  Slots `>=` the pre-refresh slot count
    /// are appends (in increasing order, after every reused vacancy).
    pub rebuilt: Vec<usize>,
    /// Slots vacated by this refresh with no fresh component taking
    /// them — the engine clears their cached state.
    pub freed: Vec<usize>,
    /// Total slot count after the refresh.
    pub slots: usize,
    /// Live components untouched by the refresh.
    reused_components: usize,
}

impl RefreshPlan {
    /// Number of components rebuilt from the dirty region.
    pub fn rebuilt(&self) -> usize {
        self.rebuilt.len()
    }

    /// Number of live components carried over unchanged.
    pub fn reused(&self) -> usize {
        self.reused_components
    }
}

/// Union–find over dense cell ids: union by size, full path compression.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Full path compression: repoint everything on the walk.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // Union by size: graft the smaller tree under the larger so find
        // chains stay logarithmic under adversarial merge orders.
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
    }
}

/// The scope of a [`Partition::derive_region`] call: either the whole
/// specification (initial build) or a dirty region's live cells.
enum RegionScope<'r> {
    /// Enumerate every copy obligation.
    Full,
    /// Enumerate only obligations of groups touching the region (sorted
    /// cell list, shared with the derive pass).
    Cells(&'r [(RelId, Eid)]),
}

impl Partition {
    /// Partition `spec` into independent components.
    ///
    /// Grounds every denial constraint and enumerates every copy
    /// function's compatibility obligations exactly once; the caller is
    /// expected to have validated the specification.
    pub fn of(spec: &Specification) -> Partition {
        // Instances are iterated in relation order and entities in id
        // order, so the collected cell list is sorted.
        let cells: Vec<(RelId, Eid)> = spec
            .instances()
            .iter()
            .flat_map(|inst| inst.entities().map(move |eid| (inst.rel(), eid)))
            .collect();
        let mut partition = Partition {
            components: PagedVec::new(),
            free: Vec::new(),
            live: 0,
            index: PagedMap::new(),
            falsum_cells: PagedMap::new(),
            has_ground_falsum: false,
        };
        let mut cell_ids = HashMap::with_capacity(cells.len());
        let fresh = partition.derive_region(spec, &cells, RegionScope::Full, &mut cell_ids);
        let mut index: Vec<((RelId, Eid), usize)> = fresh
            .iter()
            .enumerate()
            .flat_map(|(slot, comp)| comp.cells.iter().map(move |&cell| (cell, slot)))
            .collect();
        index.sort_unstable();
        partition.index = index.into_iter().collect();
        partition.live = fresh.len();
        partition.components = fresh.into_iter().map(Arc::new).collect();
        // `cell_ids` is full-spec-sized here; deliberately NOT kept as
        // refresh scratch — steady-state regions are tiny, and retaining
        // O(cells) of dead capacity per partition would defeat the point.
        // The scratch map re-grows only if a genuinely huge delta lands.
        drop(cell_ids);
        partition.has_ground_falsum = !partition.falsum_cells.is_empty();
        partition
    }

    /// Re-derive the partition after a delta touched `touched` cells,
    /// keeping every clean component — **and its slot index** —
    /// byte-identical.
    ///
    /// The dirty region is the touched cells plus every cell of a slot
    /// owning one.  Only the region's rules and obligations are
    /// re-derived (entity-local grounding, indexed obligation lookup);
    /// the region is then re-partitioned locally, which realizes merges
    /// *and* splits.  Dirty slots are vacated and refilled from the
    /// fresh components (free-list first, appends on overflow), and the
    /// cell → slot index is patched for the region's cells only — no
    /// step of a refresh walks the full component or cell set.
    ///
    /// **Contract** (guaranteed by `DeltaEffects::touched_cells`):
    /// `touched` must contain *both* endpoint cells of every copy mapping
    /// the delta added or removed.  That closes the region without any
    /// global scan: a pre-existing obligation already has both endpoints
    /// in one component (that is what the partition means), so an
    /// obligation can only cross the region boundary if its link is new —
    /// and then both its cells are in `touched`.
    ///
    /// The returned [`RefreshPlan`] lists the rebuilt and freed slots so
    /// the engine can patch exactly that cached state.  `scratch` is the
    /// caller's reusable buffer set.
    pub fn refresh(
        &mut self,
        spec: &Specification,
        touched: &BTreeSet<(RelId, Eid)>,
        scratch: &mut RefreshScratch,
    ) -> RefreshPlan {
        scratch.dirty_slots.clear();
        scratch.dirty_cells.clear();
        scratch.region.clear();

        // The dirty region: touched cells plus their slots' cells.
        for cell in touched {
            if let Some(&slot) = self.index.get(cell) {
                scratch.dirty_slots.push(slot);
            }
        }
        scratch.dirty_slots.sort_unstable();
        scratch.dirty_slots.dedup();
        scratch.dirty_cells.extend(touched.iter().copied());
        for &slot in &scratch.dirty_slots {
            scratch
                .dirty_cells
                .extend(self.components[slot].cells.iter().copied());
        }
        scratch.dirty_cells.sort_unstable();
        scratch.dirty_cells.dedup();

        // Cells may have vanished (their entity lost its last tuple): the
        // region to re-derive is the *live* part of the dirty cell set.
        scratch.region.extend(
            scratch
                .dirty_cells
                .iter()
                .copied()
                .filter(|&(rel, eid)| !spec.instance(rel).entity_group(eid).is_empty()),
        );
        // Stale falsum verdicts of the region go; derive_region re-adds
        // the ones that still hold.
        for cell in &scratch.dirty_cells {
            self.falsum_cells.remove(cell);
        }
        let RefreshScratch {
            region, cell_ids, ..
        } = scratch;
        let fresh = self.derive_region(spec, region, RegionScope::Cells(region), cell_ids);

        // Patch the index for the region only; clean entries survive.
        for cell in &scratch.dirty_cells {
            self.index.remove(cell);
        }
        // Vacate the dirty slots, then refill from the fresh components:
        // free-list first (most recently vacated first), appends on
        // overflow.
        for &slot in &scratch.dirty_slots {
            self.components[slot] = Arc::default();
            self.free.push(slot);
            self.live -= 1;
        }
        let mut rebuilt = Vec::with_capacity(fresh.len());
        for comp in fresh {
            let slot = match self.free.pop() {
                Some(slot) => {
                    self.components[slot] = Arc::new(comp);
                    slot
                }
                None => {
                    self.components.push(Arc::new(comp));
                    self.components.len() - 1
                }
            };
            for &cell in &self.components[slot].cells {
                self.index.insert(cell, slot);
            }
            self.live += 1;
            rebuilt.push(slot);
        }
        let freed: Vec<usize> = scratch
            .dirty_slots
            .iter()
            .copied()
            .filter(|&slot| self.components[slot].cells.is_empty())
            .collect();
        self.has_ground_falsum = !self.falsum_cells.is_empty();
        RefreshPlan {
            reused_components: self.live - rebuilt.len(),
            rebuilt,
            freed,
            slots: self.components.len(),
        }
    }

    /// Derive the components covering `cells` (a sorted, duplicate-free
    /// list): ground every constraint for the cells' entities (recording
    /// premise-free falsum cells), collect the scope's copy obligations,
    /// and union-find the cells into components in deterministic
    /// first-seen order.
    ///
    /// Ground rules are entity-local, so only obligations merge cells.
    fn derive_region(
        &mut self,
        spec: &Specification,
        cells: &[(RelId, Eid)],
        scope: RegionScope<'_>,
        cell_ids: &mut HashMap<(RelId, Eid), u32>,
    ) -> Vec<Component> {
        cell_ids.clear();
        cell_ids.extend(cells.iter().enumerate().map(|(i, &c)| (c, i as u32)));
        let mut uf = UnionFind::new(cells.len());

        // Entity-local grounding: each cell's rules anchor at the cell.
        // Iterate the ordered cell list (not the id map) so rule order —
        // and with it clause order in the compiled encodings — is
        // deterministic.  One grounder per constraint: its value-atom
        // analysis is shared across all the cells it grounds for.
        let mut rules: Vec<(GroundRuleAt, u32)> = Vec::new();
        for dc in spec.constraints() {
            let inst = spec.instance(dc.rel());
            let grounder = dc.entity_grounder();
            for (cid, &cell) in cells.iter().enumerate() {
                let cid = cid as u32;
                if cell.0 != dc.rel() {
                    continue;
                }
                for rule in grounder.ground_entity(inst, cell.1) {
                    if rule.premises.is_empty() && rule.conclusion.is_none() {
                        // Premise-free falsum: an unconditional
                        // contradiction local to this cell.
                        self.falsum_cells.insert(cell, ());
                        continue;
                    }
                    rules.push((
                        GroundRuleAt {
                            rel: dc.rel(),
                            rule,
                        },
                        cid,
                    ));
                }
            }
        }

        // Copy obligations; union source and target entity cells.  The
        // scoped form asks each copy for the dirty entities' groups only
        // (an indexed lookup), so obligation enumeration scales with the
        // region, not the copy's mapping set.
        let mut obligations: Vec<(ObligationAt, u32)> = Vec::new();
        for cf in spec.copies() {
            let sig = cf.signature();
            let target = spec.instance(sig.target);
            let source = spec.instance(sig.source);
            let obls = match &scope {
                RegionScope::Full => cf.compatibility_obligations(target, source),
                RegionScope::Cells(region) => {
                    let dirty_targets = entities_of(region, sig.target);
                    let dirty_sources = entities_of(region, sig.source);
                    cf.obligations_for_region(target, source, &dirty_targets, &dirty_sources)
                }
            };
            for (src_edge, tgt_edge) in obls {
                let src_cell = cell_ids[&(sig.source, source.tuple(src_edge.lesser).eid)];
                let tgt_cell = cell_ids[&(sig.target, target.tuple(tgt_edge.lesser).eid)];
                uf.union(src_cell, tgt_cell);
                obligations.push((
                    ObligationAt {
                        source_rel: sig.source,
                        source_edge: src_edge,
                        target_rel: sig.target,
                        target_edge: tgt_edge,
                    },
                    src_cell,
                ));
            }
        }

        // Materialize components in first-seen (deterministic) order.
        let mut root_to_component: HashMap<u32, usize> = HashMap::new();
        let mut components: Vec<Component> = Vec::new();
        for (id, &key) in cells.iter().enumerate() {
            let root = uf.find(id as u32);
            let cix = *root_to_component.entry(root).or_insert_with(|| {
                components.push(Component::default());
                components.len() - 1
            });
            components[cix].cells.insert(key);
        }
        for (rule, anchor) in rules {
            let cix = root_to_component[&uf.find(anchor)];
            components[cix].rules.push(rule);
        }
        for (ob, anchor) in obligations {
            let cix = root_to_component[&uf.find(anchor)];
            components[cix].obligations.push(ob);
        }
        // Component-local determinism: rules arrive grouped by constraint
        // then cell (the iteration above), obligations by copy function.
        components
    }

    /// The component in `slot` (`slot < `[`Partition::slots`]).  A
    /// vacant slot holds an empty component (no cells); cell-driven
    /// lookups never reach one.
    pub fn component(&self, slot: usize) -> &Component {
        &self.components[slot]
    }

    /// Number of **live** components (vacant slots excluded).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Number of `(relation, entity)` cells across all components.
    pub(crate) fn cell_count(&self) -> usize {
        self.components.iter().map(|c| c.cells.len()).sum()
    }

    /// Number of slots, vacant included — the exclusive upper bound on
    /// slot indices for [`Partition::component`].
    pub fn slots(&self) -> usize {
        self.components.len()
    }

    /// `true` if the specification has no cells at all.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The component owning a `(relation, entity)` cell.
    pub fn component_of(&self, rel: RelId, eid: Eid) -> Option<usize> {
        self.index.get(&(rel, eid)).copied()
    }

    /// Slot indices of the components holding any cell of `rel` (vacant
    /// slots have no cells and never match).
    pub fn components_touching(&self, rel: RelId) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .components
            .iter()
            .enumerate()
            .filter(|(_, c)| c.cells.iter().any(|&(r, _)| r == rel))
            .map(|(i, _)| i)
            .collect();
        out.sort_unstable();
        out
    }
}

impl Paged for Partition {
    fn for_each_page(&self, visit: &mut dyn FnMut(*const ())) {
        self.components.for_each_page(visit);
        self.index.for_each_page(visit);
        self.falsum_cells.for_each_page(visit);
    }
}

/// The entities of `rel` within a sorted cell list — a range scan, so
/// region-scoped obligation lookups never walk cells of other relations.
fn entities_of(cells: &[(RelId, Eid)], rel: RelId) -> BTreeSet<Eid> {
    let lo = cells.partition_point(|&(r, _)| r < rel);
    cells[lo..]
        .iter()
        .take_while(|&&(r, _)| r == rel)
        .map(|&(_, eid)| eid)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use currency_core::{
        AttrId, Catalog, CmpOp, CopyFunction, CopySignature, DenialConstraint, RelationSchema,
        Term, Tuple, Value,
    };

    const A: AttrId = AttrId(0);

    #[test]
    fn independent_entities_get_separate_components() {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        for e in 0..4u64 {
            for v in 0..2 {
                spec.instance_mut(r)
                    .push_tuple(Tuple::new(Eid(e), vec![Value::int(v)]))
                    .unwrap();
            }
        }
        let p = Partition::of(&spec);
        assert_eq!(p.len(), 4);
        for e in 0..4u64 {
            assert!(p.component_of(r, Eid(e)).is_some());
        }
        assert_eq!(p.components_touching(r).len(), 4);
    }

    #[test]
    fn per_tuple_constraints_do_not_merge_entities() {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        for e in 0..3u64 {
            for v in 0..2 {
                spec.instance_mut(r)
                    .push_tuple(Tuple::new(Eid(e), vec![Value::int(v)]))
                    .unwrap();
            }
        }
        // Monotone rule: both tuple variables range over one entity (ground
        // rules relate same-entity pairs only), so entities stay separate.
        let dc = DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
            .then_order(1, A, 0)
            .build()
            .unwrap();
        spec.add_constraint(dc).unwrap();
        let p = Partition::of(&spec);
        assert_eq!(p.len(), 3);
        let total_rules: usize = (0..p.slots()).map(|s| p.component(s).rules.len()).sum();
        assert_eq!(total_rules, 3, "one ground rule per entity");
    }

    #[test]
    fn copy_function_merges_source_and_target_entities() {
        let mut cat = Catalog::new();
        let d = cat.add(RelationSchema::new("D", &["A"]));
        let s = cat.add(RelationSchema::new("S", &["A"]));
        let mut spec = Specification::new(cat);
        let d1 = spec
            .instance_mut(d)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1)]))
            .unwrap();
        let d2 = spec
            .instance_mut(d)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(2)]))
            .unwrap();
        // An unrelated entity in D.
        spec.instance_mut(d)
            .push_tuple(Tuple::new(Eid(9), vec![Value::int(7)]))
            .unwrap();
        let s1 = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(7), vec![Value::int(1)]))
            .unwrap();
        let s2 = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(7), vec![Value::int(2)]))
            .unwrap();
        let sig = CopySignature::new(d, vec![A], s, vec![A]).unwrap();
        let mut cf = CopyFunction::new(sig);
        cf.set_mapping(d1, s1);
        cf.set_mapping(d2, s2);
        spec.add_copy(cf).unwrap();
        let p = Partition::of(&spec);
        // (D, e1) and (S, e7) merge; (D, e9) stays alone.
        assert_eq!(p.len(), 2);
        assert_eq!(p.component_of(d, Eid(1)), p.component_of(s, Eid(7)));
        assert_ne!(p.component_of(d, Eid(1)), p.component_of(d, Eid(9)));
        let merged = p.component(p.component_of(d, Eid(1)).unwrap());
        assert_eq!(merged.obligations.len(), 2, "both obligation directions");
    }

    #[test]
    fn components_touching_filters_by_relation() {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let s = cat.add(RelationSchema::new("S", &["A"]));
        let mut spec = Specification::new(cat);
        spec.instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1)]))
            .unwrap();
        spec.instance_mut(s)
            .push_tuple(Tuple::new(Eid(2), vec![Value::int(1)]))
            .unwrap();
        let p = Partition::of(&spec);
        assert_eq!(p.len(), 2);
        assert_eq!(p.components_touching(r).len(), 1);
        assert_eq!(p.components_touching(s).len(), 1);
        assert_ne!(p.components_touching(r), p.components_touching(s));
    }

    fn monotone(r: RelId) -> DenialConstraint {
        DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
            .then_order(1, A, 0)
            .build()
            .unwrap()
    }

    /// `refresh` must produce exactly the partition `of` computes from the
    /// post-delta specification (same cells, rules, obligations per live
    /// component up to slot order; vacant slots are layout, not content).
    fn assert_refresh_matches_fresh(p: &Partition, spec: &Specification) {
        let fresh = Partition::of(spec);
        assert_eq!(p.len(), fresh.len(), "component count");
        assert_eq!(p.has_ground_falsum, fresh.has_ground_falsum);
        let live = |p: &Partition| -> Vec<Component> {
            (0..p.slots())
                .map(|s| p.component(s))
                .filter(|c| !c.cells.is_empty())
                .cloned()
                .collect()
        };
        let (mut a, mut b) = (live(p), live(&fresh));
        let key = |c: &Component| c.cells.iter().next().copied();
        a.sort_by_key(key);
        b.sort_by_key(key);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cells, y.cells);
            let mut xr = x
                .rules
                .iter()
                .map(|r| (r.rel, r.rule.clone()))
                .collect::<Vec<_>>();
            let mut yr = y
                .rules
                .iter()
                .map(|r| (r.rel, r.rule.clone()))
                .collect::<Vec<_>>();
            xr.sort();
            yr.sort();
            assert_eq!(xr, yr, "rules of {:?}", x.cells);
            let ob_key =
                |o: &ObligationAt| (o.source_rel, o.source_edge, o.target_rel, o.target_edge);
            let mut xo = x.obligations.iter().map(ob_key).collect::<Vec<_>>();
            let mut yo = y.obligations.iter().map(ob_key).collect::<Vec<_>>();
            xo.sort();
            yo.sort();
            assert_eq!(xo, yo, "obligations of {:?}", x.cells);
        }
    }

    #[test]
    fn refresh_on_local_insert_rebuilds_one_component() {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        for e in 0..4u64 {
            for v in 0..2 {
                spec.instance_mut(r)
                    .push_tuple(Tuple::new(Eid(e), vec![Value::int(v)]))
                    .unwrap();
            }
        }
        spec.add_constraint(monotone(r)).unwrap();
        let mut p = Partition::of(&spec);
        assert_eq!(p.len(), 4);
        // Insert a third tuple into entity 2 only.
        spec.instance_mut(r)
            .push_tuple(Tuple::new(Eid(2), vec![Value::int(7)]))
            .unwrap();
        let touched: BTreeSet<(RelId, Eid)> = [(r, Eid(2))].into();
        let plan = p.refresh(&spec, &touched, &mut RefreshScratch::default());
        assert_eq!(plan.rebuilt(), 1);
        assert_eq!(plan.reused(), 3);
        assert_eq!(p.len(), 4);
        // The rebuilt component carries the new entity-2 rules.
        let cix = p.component_of(r, Eid(2)).unwrap();
        assert!(p.component(cix).rules.len() > 1);
        assert_refresh_matches_fresh(&p, &spec);
    }

    #[test]
    fn refresh_merges_components_linked_by_new_copy_mapping() {
        let mut cat = Catalog::new();
        let d = cat.add(RelationSchema::new("D", &["A"]));
        let s = cat.add(RelationSchema::new("S", &["A"]));
        let mut spec = Specification::new(cat);
        let d1 = spec
            .instance_mut(d)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1)]))
            .unwrap();
        let d2 = spec
            .instance_mut(d)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(2)]))
            .unwrap();
        let s1 = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(7), vec![Value::int(1)]))
            .unwrap();
        let s2 = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(7), vec![Value::int(2)]))
            .unwrap();
        // A bystander entity that must stay untouched.
        spec.instance_mut(d)
            .push_tuple(Tuple::new(Eid(9), vec![Value::int(5)]))
            .unwrap();
        let sig = CopySignature::new(d, vec![A], s, vec![A]).unwrap();
        let mut cf = CopyFunction::new(sig);
        cf.set_mapping(d1, s1);
        spec.add_copy(cf).unwrap();
        let mut p = Partition::of(&spec);
        // One mapping yields no obligations: three separate components.
        assert_eq!(p.len(), 3);
        // Extend the copy with the second mapping: obligations appear,
        // merging (D, e1) with (S, e7).
        spec.copy_mut(0).set_mapping(d2, s2);
        let touched: BTreeSet<(RelId, Eid)> = [(d, Eid(1)), (s, Eid(7))].into();
        let plan = p.refresh(&spec, &touched, &mut RefreshScratch::default());
        assert_eq!(p.len(), 2);
        assert_eq!(plan.rebuilt(), 1, "merged region is one component");
        assert_eq!(plan.reused(), 1, "bystander untouched");
        assert_eq!(p.component_of(d, Eid(1)), p.component_of(s, Eid(7)));
        assert_refresh_matches_fresh(&p, &spec);
    }

    #[test]
    fn refresh_splits_component_when_link_is_removed() {
        let mut cat = Catalog::new();
        let d = cat.add(RelationSchema::new("D", &["A"]));
        let s = cat.add(RelationSchema::new("S", &["A"]));
        let mut spec = Specification::new(cat);
        let d1 = spec
            .instance_mut(d)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1)]))
            .unwrap();
        let d2 = spec
            .instance_mut(d)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(2)]))
            .unwrap();
        let s1 = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(7), vec![Value::int(1)]))
            .unwrap();
        let s2 = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(7), vec![Value::int(2)]))
            .unwrap();
        let sig = CopySignature::new(d, vec![A], s, vec![A]).unwrap();
        let mut cf = CopyFunction::new(sig);
        cf.set_mapping(d1, s1);
        cf.set_mapping(d2, s2);
        spec.add_copy(cf).unwrap();
        let mut p = Partition::of(&spec);
        assert_eq!(p.len(), 1, "copy merges the two cells");
        // Remove one mapped target tuple; the delta layer would cascade the
        // mapping, so mirror that here.
        spec.instance_mut(d).remove_tuple(d2).unwrap();
        spec.copy_mut(0).retain_mappings(|t, _| t != d2);
        let touched: BTreeSet<(RelId, Eid)> = [(d, Eid(1)), (s, Eid(7))].into();
        let plan = p.refresh(&spec, &touched, &mut RefreshScratch::default());
        assert_eq!(p.len(), 2, "obligations gone: the component splits");
        assert_eq!(plan.rebuilt(), 2);
        assert_ne!(p.component_of(d, Eid(1)), p.component_of(s, Eid(7)));
        assert_refresh_matches_fresh(&p, &spec);
    }

    #[test]
    fn refresh_tracks_falsum_cells() {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A", "B"]));
        let mut spec = Specification::new(cat);
        let t0 = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1), Value::int(0)]))
            .unwrap();
        spec.instance_mut(r)
            .push_tuple(Tuple::new(Eid(2), vec![Value::int(9), Value::int(0)]))
            .unwrap();
        // "No entity may hold two tuples agreeing on A but not B": falsum
        // when violated (the B ≠ atom forces distinct tuples).
        let dc = DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, A), CmpOp::Eq, Term::attr(1, A))
            .when_cmp(
                Term::attr(0, AttrId(1)),
                CmpOp::Ne,
                Term::attr(1, AttrId(1)),
            )
            .then_false()
            .build()
            .unwrap();
        spec.add_constraint(dc).unwrap();
        let mut p = Partition::of(&spec);
        assert!(!p.has_ground_falsum);
        // A conflicting duplicate in entity 1 triggers the falsum.
        let t_dup = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1), Value::int(5)]))
            .unwrap();
        let touched: BTreeSet<(RelId, Eid)> = [(r, Eid(1))].into();
        p.refresh(&spec, &touched, &mut RefreshScratch::default());
        assert!(p.has_ground_falsum);
        assert_refresh_matches_fresh(&p, &spec);
        // Removing the duplicate clears it again.
        spec.instance_mut(r).remove_tuple(t_dup).unwrap();
        let plan = p.refresh(&spec, &touched, &mut RefreshScratch::default());
        assert!(!p.has_ground_falsum);
        assert_eq!(plan.rebuilt(), 1);
        assert_refresh_matches_fresh(&p, &spec);
        // Removing the last tuple of the entity drops the cell entirely.
        spec.instance_mut(r).remove_tuple(t0).unwrap();
        p.refresh(&spec, &touched, &mut RefreshScratch::default());
        assert_eq!(p.len(), 1);
        assert!(p.component_of(r, Eid(1)).is_none());
        assert_refresh_matches_fresh(&p, &spec);
    }

    /// The stable-slot contract: a refresh never moves a clean component,
    /// and vacated slots are recycled before the slot array grows.
    #[test]
    fn clean_slots_are_stable_and_freed_slots_are_reused() {
        let mut cat = Catalog::new();
        let d = cat.add(RelationSchema::new("D", &["A"]));
        let s = cat.add(RelationSchema::new("S", &["A"]));
        let mut spec = Specification::new(cat);
        let d1 = spec
            .instance_mut(d)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1)]))
            .unwrap();
        let d2 = spec
            .instance_mut(d)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(2)]))
            .unwrap();
        spec.instance_mut(d)
            .push_tuple(Tuple::new(Eid(9), vec![Value::int(5)]))
            .unwrap();
        let s1 = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(7), vec![Value::int(1)]))
            .unwrap();
        let s2 = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(7), vec![Value::int(2)]))
            .unwrap();
        let sig = CopySignature::new(d, vec![A], s, vec![A]).unwrap();
        let mut cf = CopyFunction::new(sig);
        cf.set_mapping(d1, s1);
        spec.add_copy(cf).unwrap();
        let mut p = Partition::of(&spec);
        // Cells sort (D,1) < (D,9) < (S,7): three slots, no vacancies.
        assert_eq!((p.len(), p.slots()), (3, 3));
        let bystander_slot = p.component_of(d, Eid(9)).unwrap();
        let touched: BTreeSet<(RelId, Eid)> = [(d, Eid(1)), (s, Eid(7))].into();
        // Merge → split → merge churn over the two linked cells.  The
        // bystander's slot must never move and the slot array must never
        // grow past its high-water mark (freed slots get recycled).
        for round in 0..3 {
            spec.copy_mut(0).set_mapping(d2, s2);
            let plan = p.refresh(&spec, &touched, &mut RefreshScratch::default());
            assert_eq!(plan.rebuilt(), 1, "round {round}: merged into one");
            assert_eq!((p.len(), p.slots()), (2, 3), "round {round}");
            assert_eq!(
                p.component_of(d, Eid(1)),
                p.component_of(s, Eid(7)),
                "round {round}"
            );
            assert_eq!(p.component_of(d, Eid(9)), Some(bystander_slot));
            spec.copy_mut(0).retain_mappings(|t, _| t != d2);
            let plan = p.refresh(&spec, &touched, &mut RefreshScratch::default());
            assert_eq!(plan.rebuilt(), 2, "round {round}: split in two");
            assert_eq!((p.len(), p.slots()), (3, 3), "round {round}");
            assert_eq!(p.component_of(d, Eid(9)), Some(bystander_slot));
            assert_refresh_matches_fresh(&p, &spec);
        }
    }

    /// Rebuilt slots listed by the plan, clean cells untouched by the
    /// index patch: a component-local insert leaves every other cell's
    /// slot assignment — not just its contents — bit-identical.
    #[test]
    fn refresh_patches_index_only_for_the_region() {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        for e in 0..6u64 {
            spec.instance_mut(r)
                .push_tuple(Tuple::new(Eid(e), vec![Value::int(e as i64)]))
                .unwrap();
        }
        spec.add_constraint(monotone(r)).unwrap();
        let mut p = Partition::of(&spec);
        let before: Vec<Option<usize>> = (0..6).map(|e| p.component_of(r, Eid(e))).collect();
        spec.instance_mut(r)
            .push_tuple(Tuple::new(Eid(3), vec![Value::int(42)]))
            .unwrap();
        let touched: BTreeSet<(RelId, Eid)> = [(r, Eid(3))].into();
        let plan = p.refresh(&spec, &touched, &mut RefreshScratch::default());
        assert_eq!(plan.rebuilt, vec![before[3].unwrap()], "slot recycled");
        assert!(plan.freed.is_empty());
        assert_eq!(plan.slots, 6);
        let after: Vec<Option<usize>> = (0..6).map(|e| p.component_of(r, Eid(e))).collect();
        assert_eq!(before, after, "no cell changed slots");
    }

    #[test]
    fn empty_spec_has_no_components() {
        let mut cat = Catalog::new();
        cat.add(RelationSchema::new("R", &["A"]));
        let spec = Specification::new(cat);
        let p = Partition::of(&spec);
        assert!(p.is_empty());
        assert!(!p.has_ground_falsum);
    }
}
