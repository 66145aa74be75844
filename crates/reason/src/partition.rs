//! Entity partitioning of specifications.
//!
//! The CNF encoding of a specification (see [`crate::encode`]) only ever
//! relates order variables of the *same entity group*: currency orders are
//! per-entity by definition, ground denial rules instantiate tuple
//! variables within one entity, and copy-compatibility obligations tie a
//! source entity's order to a target entity's order.  The encoding is
//! therefore a disjoint union of independent subproblems over connected
//! sets of `(relation, entity)` cells, where the only connecting edges
//! are copy groups: a copy function's mappings from one target entity to
//! one source entity link the two cells as soon as the group yields an
//! obligation (two mappings with distinct sources).
//!
//! [`Partition::of`] computes the connected components with a union–find
//! over the cells.  A component keeps **only its cells**: nothing is
//! grounded here.  The linking test reads the copy functions' entity
//! index ([`currency_core::CopyGroups`]) and never enumerates the
//! obligations themselves.  The component compiler
//! ([`crate::encode::ComponentCompiler`]) grounds each component's denial
//! rules and copy obligations straight into its solver when the
//! [`crate::engine::CurrencyEngine`] compiles it.
//!
//! ## Incremental maintenance
//!
//! The partition is *dynamic*: after a [`currency_core::SpecDelta`] is
//! applied to the specification, [`Partition::refresh`] re-derives only
//! the **dirty region** — the components owning a touched cell.  Only
//! the copy groups of the region's entities are consulted (an indexed
//! lookup — never a scan of a copy's whole mapping set while the index
//! is fresh), and the region is locally re-partitioned: merges *and*
//! splits both fall out of re-running the union–find over the region.
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
//! The slot array and the cell → slot index are paged copy-on-write
//! containers ([`currency_core::cow`]), and each slot holds its
//! component behind an `Arc` that the slot's compiled encoding shares as
//! its scope.  A cloned partition therefore shares every page with the
//! original, and a refresh on the clone copies only the pages its dirty
//! region writes — which is what lets the serving writer publish a
//! partition per delta without copying it.

use currency_core::cow::{Paged, PagedMap, PagedVec};
use currency_core::{Eid, RelId, Specification};
use std::collections::BTreeSet;
use std::mem::size_of;
use std::sync::{Arc, OnceLock};

/// One independent subproblem: a connected set of `(relation, entity)`
/// cells.  Its ground rules and obligations are derived from the cells
/// when the component is compiled, never stored.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Component {
    /// The cells (every tuple of the specification belongs to exactly one
    /// component through its `(relation, entity)` cell).
    pub cells: BTreeSet<(RelId, Eid)>,
}

/// The entity partition of a specification, stored in stable slots.
///
/// The slots ([`Partition::component`], `0..`[`Partition::slots`]) each
/// hold a live component or are *vacant* (empty cell set, tracked on a
/// free-list).  Slot indices are the identity the engine caches against
/// — a refresh never moves a clean component.
#[derive(Clone, Debug)]
pub struct Partition {
    /// The slot array; vacant slots hold the shared empty [`Component`].
    components: PagedVec<Arc<Component>>,
    /// Vacant slot indices, reused (LIFO) before the array grows.
    free: Vec<usize>,
    /// Number of live (non-vacant) components.
    live: usize,
    index: PagedMap<(RelId, Eid), usize>,
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
    derive: DeriveScratch,
}

/// The buffers of one [`Partition::derive_region`] pass.
#[derive(Debug, Default)]
struct DeriveScratch {
    uf: UnionFind,
    /// Root cell id → index into `fresh` (`u32::MAX` = not seen yet).
    component_of_root: Vec<u32>,
    /// The region's target and source entities of one copy function.
    targets: Vec<Eid>,
    sources: Vec<Eid>,
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
#[derive(Debug, Default)]
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Reset to `n` singleton sets, reusing the buffers.
    fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.size.clear();
        self.size.resize(n, 1);
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

/// The shared empty component every vacant slot holds (cloning it is a
/// reference-count bump, so vacating a slot allocates nothing).
pub(crate) fn vacant() -> Arc<Component> {
    static VACANT: OnceLock<Arc<Component>> = OnceLock::new();
    VACANT.get_or_init(Arc::default).clone()
}

impl Partition {
    /// Partition `spec` into independent components.
    ///
    /// Links cells through every copy group with an obligation; the
    /// caller is expected to have validated the specification.
    pub fn of(spec: &Specification) -> Partition {
        // Instances are iterated in relation order and entities in id
        // order, so the collected cell list is sorted.
        let cells: Vec<(RelId, Eid)> = spec
            .instances()
            .iter()
            .flat_map(|inst| inst.entities().map(move |eid| (inst.rel(), eid)))
            .collect();
        // Full-spec-sized buffers: deliberately NOT kept as refresh
        // scratch — steady-state regions are tiny, and retaining O(cells)
        // of dead capacity per partition would defeat the point.
        let mut scratch = DeriveScratch::default();
        let fresh = derive_region(spec, &cells, true, &mut scratch);
        let mut index: Vec<((RelId, Eid), usize)> = fresh
            .iter()
            .enumerate()
            .flat_map(|(slot, comp)| comp.cells.iter().map(move |&cell| (cell, slot)))
            .collect();
        index.sort_unstable();
        Partition {
            live: fresh.len(),
            components: fresh.into_iter().map(Arc::new).collect(),
            free: Vec::new(),
            index: index.into_iter().collect(),
        }
    }

    /// Re-derive the partition after a delta touched `touched` cells,
    /// keeping every clean component — **and its slot index** —
    /// byte-identical.
    ///
    /// The dirty region is the touched cells plus every cell of a slot
    /// owning one.  Only the copy groups of the region's entities are
    /// consulted (indexed lookups); the region is then re-partitioned
    /// locally, which realizes merges *and* splits.  Dirty slots are
    /// vacated and refilled from the fresh components (free-list first,
    /// appends on overflow), and the cell → slot index is patched for the
    /// region's cells only — no step of a refresh walks the full
    /// component or cell set.
    ///
    /// **Contract** (guaranteed by `DeltaEffects::touched_cells`):
    /// `touched` must contain *both* endpoint cells of every copy mapping
    /// the delta added or removed.  That closes the region without any
    /// global scan: a pre-existing link already has both endpoints in one
    /// component (that is what the partition means), so a link can only
    /// cross the region boundary if it is new — and then both its cells
    /// are in `touched`.
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
        let fresh = derive_region(spec, &scratch.region, false, &mut scratch.derive);

        // Patch the index for the region only; clean entries survive.
        for cell in &scratch.dirty_cells {
            self.index.remove(cell);
        }
        // Vacate the dirty slots, then refill from the fresh components:
        // free-list first (most recently vacated first), appends on
        // overflow.
        for &slot in &scratch.dirty_slots {
            self.components[slot] = vacant();
            self.free.push(slot);
            self.live -= 1;
        }
        let mut rebuilt = Vec::with_capacity(fresh.len());
        for comp in fresh {
            let slot = self.free.pop().unwrap_or(self.components.len());
            for &cell in &comp.cells {
                self.index.insert(cell, slot);
            }
            let comp = Arc::new(comp);
            if slot < self.components.len() {
                self.components[slot] = comp;
            } else {
                self.components.push(comp);
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
        RefreshPlan {
            reused_components: self.live - rebuilt.len(),
            rebuilt,
            freed,
            slots: self.components.len(),
        }
    }

    /// The component in `slot` (`slot < `[`Partition::slots`]), behind
    /// the `Arc` its compiled encoding shares as its scope.  A vacant
    /// slot holds an empty component (no cells); cell-driven lookups
    /// never reach one.
    pub fn component(&self, slot: usize) -> &Arc<Component> {
        &self.components[slot]
    }

    /// Number of **live** components (vacant slots excluded).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Number of `(relation, entity)` cells across all components.
    pub(crate) fn cell_count(&self) -> usize {
        self.index.len()
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

    /// Heap bytes this partition holds, computed from sizes like
    /// [`crate::encode::Encoding::heap_bytes`]: one slot pointer per slot,
    /// per live component its `Arc` allocation and len × entry size for
    /// its cell set, len × entry size for the cell → slot index, and the
    /// free-list's capacity.  Deterministic, so a footprint budget can be
    /// checked without an allocator hook.
    pub fn heap_bytes(&self) -> usize {
        // An `Arc` allocation holds the two reference counts and the value.
        const ARC_COUNTS: usize = 2 * size_of::<usize>();
        let components: usize = self
            .components
            .iter()
            .filter(|c| !c.cells.is_empty())
            .map(|c| {
                ARC_COUNTS + size_of::<Component>() + c.cells.len() * size_of::<(RelId, Eid)>()
            })
            .sum();
        self.components.len() * size_of::<Arc<Component>>()
            + components
            + self.index.len() * size_of::<((RelId, Eid), usize)>()
            + self.free.capacity() * size_of::<usize>()
    }
}

impl Paged for Partition {
    fn for_each_page(&self, visit: &mut dyn FnMut(*const ())) {
        self.components.for_each_page(visit);
        self.index.for_each_page(visit);
    }
}

/// Derive the components covering `cells` (a sorted, duplicate-free
/// list): union the two cells of every copy group that yields an
/// obligation, then materialize the components in deterministic
/// first-seen order.  `full` marks `cells` as the whole specification,
/// so every group is consulted; otherwise only the groups of the cells'
/// entities are.
///
/// Ground rules are entity-local, so only copy groups merge cells.
fn derive_region(
    spec: &Specification,
    cells: &[(RelId, Eid)],
    full: bool,
    scratch: &mut DeriveScratch,
) -> Vec<Component> {
    let DeriveScratch {
        uf,
        component_of_root,
        targets,
        sources,
    } = scratch;
    uf.reset(cells.len());
    // Cell ids are positions in the sorted cell list.
    let id_of = |cell: (RelId, Eid)| -> u32 {
        cells
            .binary_search(&cell)
            .expect("a linked cell is live and in the region") as u32
    };
    for cf in spec.copies() {
        let sig = cf.signature();
        let groups = cf.groups(spec.instance(sig.target), spec.instance(sig.source));
        let region = if full {
            None
        } else {
            entities_of(cells, sig.target, targets);
            entities_of(cells, sig.source, sources);
            Some((&targets[..], &sources[..]))
        };
        groups.for_each_linking_group(region, |te, se| {
            uf.union(id_of((sig.target, te)), id_of((sig.source, se)));
        });
    }

    // Materialize components in first-seen (deterministic) order.
    component_of_root.clear();
    component_of_root.resize(cells.len(), u32::MAX);
    let mut components: Vec<Component> = Vec::new();
    for (id, &cell) in cells.iter().enumerate() {
        let root = uf.find(id as u32) as usize;
        if component_of_root[root] == u32::MAX {
            component_of_root[root] = components.len() as u32;
            components.push(Component::default());
        }
        components[component_of_root[root] as usize]
            .cells
            .insert(cell);
    }
    components
}

/// The entities of `rel` within a sorted cell list, into `out` — a range
/// scan, so region-scoped group lookups never walk cells of other
/// relations.
fn entities_of(cells: &[(RelId, Eid)], rel: RelId, out: &mut Vec<Eid>) {
    out.clear();
    let lo = cells.partition_point(|&(r, _)| r < rel);
    out.extend(
        cells[lo..]
            .iter()
            .take_while(|&&(r, _)| r == rel)
            .map(|&(_, eid)| eid),
    );
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
        for s in 0..p.slots() {
            assert_eq!(p.component(s).cells.len(), 1, "one entity per component");
        }
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
        assert_eq!(merged.cells, [(d, Eid(1)), (s, Eid(7))].into());
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
    /// post-delta specification (same cells per live component up to slot
    /// order; vacant slots are layout, not content), and the index must
    /// map every cell to the slot holding it.
    fn assert_refresh_matches_fresh(p: &Partition, spec: &Specification) {
        let fresh = Partition::of(spec);
        assert_eq!(p.len(), fresh.len(), "component count");
        let live = |p: &Partition| -> Vec<BTreeSet<(RelId, Eid)>> {
            let mut out: Vec<_> = (0..p.slots())
                .map(|s| p.component(s).cells.clone())
                .filter(|cells| !cells.is_empty())
                .collect();
            out.sort();
            out
        };
        assert_eq!(live(p), live(&fresh));
        for slot in 0..p.slots() {
            for &(rel, eid) in &p.component(slot).cells {
                assert_eq!(p.component_of(rel, eid), Some(slot));
            }
        }
        assert_eq!(p.cell_count(), fresh.cell_count());
        assert!(p.heap_bytes() > 0 || p.is_empty());
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
        let cix = p.component_of(r, Eid(2)).unwrap();
        assert_eq!(plan.rebuilt, vec![cix]);
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

    /// Cells come and go with their entity's tuples; a premise-free
    /// falsum changes nothing here (the compile reports it, not the
    /// partition).
    #[test]
    fn refresh_tracks_cells_as_entities_come_and_go() {
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
        // A conflicting duplicate in entity 1.
        let t_dup = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1), Value::int(5)]))
            .unwrap();
        let touched: BTreeSet<(RelId, Eid)> = [(r, Eid(1))].into();
        let plan = p.refresh(&spec, &touched, &mut RefreshScratch::default());
        assert_eq!((plan.rebuilt(), plan.reused()), (1, 1));
        assert_refresh_matches_fresh(&p, &spec);
        spec.instance_mut(r).remove_tuple(t_dup).unwrap();
        let plan = p.refresh(&spec, &touched, &mut RefreshScratch::default());
        assert_eq!(plan.rebuilt(), 1);
        assert_refresh_matches_fresh(&p, &spec);
        // Removing the last tuple of the entity drops the cell entirely.
        spec.instance_mut(r).remove_tuple(t0).unwrap();
        let plan = p.refresh(&spec, &touched, &mut RefreshScratch::default());
        assert_eq!((plan.rebuilt(), plan.freed.len()), (0, 1));
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
        assert_eq!(p.cell_count(), 0);
    }
}
