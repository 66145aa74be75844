//! Temporal instances: relations with partial currency orders.

use crate::cow::{Paged, PagedMap, PagedVec};
use crate::error::CurrencyError;
use crate::instance::{NormalInstance, Tuple};
use crate::order::OrderRelation;
use crate::schema::{AttrId, RelId, RelationSchema};
use crate::value::{Eid, TupleId, Value};
use std::collections::BTreeMap;

/// A temporal instance `Dₜ = (D, ≺_{A₁}, …, ≺_{Aₙ})` (paper §2).
///
/// A plain relation plus one partial currency order per proper attribute.
/// The invariants enforced here:
///
/// * tuples match the schema arity;
/// * order pairs relate tuples of the *same entity* (checked on insertion);
/// * the closure of every attribute order is acyclic (checked by
///   [`TemporalInstance::validate`], since a single insertion cannot see
///   future pairs).
///
/// ## Removal
///
/// Tuple ids are dense indices and must stay stable across updates (the
/// delta layer, copy functions and cached engines all hold ids), so
/// [`TemporalInstance::remove_tuple`] *tombstones*: the slot is kept but
/// the tuple leaves its entity group and sheds its order pairs.  Every
/// semantic consumer (grounding, encoding, completion enumeration) walks
/// entity groups, so a tombstoned tuple simply stops existing; only
/// [`TemporalInstance::len`] still counts the slot (it is the id
/// allocator's high-water mark).  Sustained insert/retract churn grows
/// the instance by one slot per removal; [`TemporalInstance::compact`]
/// reclaims the tombstone slots by remapping the surviving ids densely —
/// an explicitly invalidating operation every id holder must mirror
/// (see [`crate::Specification::compact`]).
///
/// ## Sharing
///
/// Tuples, tombstone flags, entity groups and orders live in paged
/// copy-on-write containers ([`crate::cow`]): a clone shares every page
/// with the original, and a later write copies only the pages it
/// touches.
#[derive(Clone, Debug)]
pub struct TemporalInstance {
    rel: RelId,
    rel_name: String,
    arity: usize,
    tuples: PagedVec<Tuple>,
    /// `removed[i]` — tuple `i` is a tombstone (see struct docs).
    removed: PagedVec<bool>,
    /// Number of `true` entries in `removed` (kept so liveness stats and
    /// the compaction no-op check are O(1)).
    tombstones: usize,
    orders: Vec<OrderRelation>,
    groups: PagedMap<Eid, Vec<TupleId>>,
    /// Lowest tombstoned slot index (`usize::MAX` when there are none).
    /// Pure sweep-acceleration state for the incremental compactor —
    /// never serialized, always recomputable from `removed`.
    min_tombstone: usize,
    /// The contiguous dead block `[start, end)` bubbled up by the
    /// in-progress incremental sweep (valid only while `start` equals
    /// `min_tombstone`; see [`TemporalInstance::compact_step_bounds`]).
    /// Like `min_tombstone`, a non-serialized hint.
    sweep_block: Option<(u32, u32)>,
}

/// The instance-level outcome of one incremental-compaction slice (see
/// [`TemporalInstance::compact_slice_at`]).  Crate-internal: the
/// specification layer consumes it to fix up copy functions and build
/// the public [`crate::CompactSlice`] record.
#[derive(Clone, Debug)]
pub(crate) struct SliceOutcome {
    /// Live tuples moved down by the slice: `(old id, new id, entity)`.
    pub moved: Vec<(TupleId, TupleId, Eid)>,
    /// Dead slots scanned by the slice (candidates for orphan
    /// copy-mapping drops at the specification layer).
    pub dead: Vec<TupleId>,
    /// Translation table for slots `[write, write + remap.len())`:
    /// `Some(new)` for moved live tuples, `None` for dead slots.
    pub remap: Vec<Option<TupleId>>,
    /// Slots truncated off the end of the slot vector (nonzero only
    /// when the slice's scan reached the end).
    pub reclaimed: usize,
}

impl TemporalInstance {
    /// Create an empty temporal instance for `rel` with the given schema.
    pub fn new(rel: RelId, schema: &RelationSchema) -> TemporalInstance {
        TemporalInstance {
            rel,
            rel_name: schema.name().to_string(),
            arity: schema.arity(),
            tuples: PagedVec::new(),
            removed: PagedVec::new(),
            tombstones: 0,
            orders: vec![OrderRelation::new(); schema.arity()],
            groups: PagedMap::new(),
            min_tombstone: usize::MAX,
            sweep_block: None,
        }
    }

    /// The relation id.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// The relation name (for diagnostics).
    pub fn rel_name(&self) -> &str {
        &self.rel_name
    }

    /// Number of proper attributes.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuple *slots* (tombstones included) — the exclusive upper
    /// bound on valid [`TupleId`]s.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Number of live (non-tombstoned) tuples.
    pub fn live_len(&self) -> usize {
        self.tuples.len() - self.tombstones
    }

    /// Number of tombstoned slots (reclaimable by
    /// [`TemporalInstance::compact`]).
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// `true` if the instance holds no tuple slots.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Append a tuple, checking arity.  Returns the new tuple's id.
    pub fn push_tuple(&mut self, t: Tuple) -> Result<TupleId, CurrencyError> {
        if t.values.len() != self.arity {
            return Err(CurrencyError::ArityMismatch {
                relation: self.rel_name.clone(),
                expected: self.arity,
                got: t.values.len(),
            });
        }
        let id = TupleId(self.tuples.len() as u32);
        self.groups.get_or_insert_with(t.eid, Vec::new).push(id);
        self.tuples.push(t);
        self.removed.push(false);
        Ok(id)
    }

    /// Tombstone a tuple: it leaves its entity group and sheds every order
    /// pair mentioning it, but its id slot stays allocated (ids held by
    /// copy functions or cached engines never dangle — they resolve to
    /// "unknown tuple" through [`TemporalInstance::tuple_checked`]).
    ///
    /// Fails if the id is out of range or already removed.  Copy-function
    /// mappings referencing the tuple are the specification's concern; see
    /// `Specification::apply_delta`, which cascades them.
    pub fn remove_tuple(&mut self, id: TupleId) -> Result<(), CurrencyError> {
        if id.index() >= self.tuples.len() || self.removed[id.index()] {
            return Err(CurrencyError::UnknownTuple {
                rel: self.rel,
                tuple: id,
            });
        }
        self.removed[id.index()] = true;
        self.tombstones += 1;
        self.min_tombstone = self.min_tombstone.min(id.index());
        let eid = self.tuples[id.index()].eid;
        let group = self.groups.get_mut(&eid).expect("tuple was grouped");
        group.retain(|&t| t != id);
        // Orders relate same-entity tuples only, so the group's members
        // are the only possible partners of `id`.
        for o in &mut self.orders {
            if !o.is_empty() {
                o.remove_involving(id, group);
            }
        }
        if group.is_empty() {
            self.groups.remove(&eid);
        }
        Ok(())
    }

    /// `true` if the id names a live (non-tombstoned) tuple.
    pub fn is_live(&self, id: TupleId) -> bool {
        id.index() < self.tuples.len() && !self.removed[id.index()]
    }

    /// The tuple with the given id.
    pub fn tuple(&self, id: TupleId) -> &Tuple {
        &self.tuples[id.index()]
    }

    /// The tuple with the given id, with bounds *and* liveness checking —
    /// tombstoned ids resolve to [`CurrencyError::UnknownTuple`].
    pub fn tuple_checked(&self, id: TupleId) -> Result<&Tuple, CurrencyError> {
        if self.is_live(id) {
            Ok(&self.tuples[id.index()])
        } else {
            Err(CurrencyError::UnknownTuple {
                rel: self.rel,
                tuple: id,
            })
        }
    }

    /// Iterate over the live `(TupleId, &Tuple)` pairs (tombstones skipped).
    pub fn tuples(&self) -> impl Iterator<Item = (TupleId, &Tuple)> {
        self.tuples
            .iter()
            .zip(self.removed.iter())
            .enumerate()
            .filter(|&(_, (_, &dead))| !dead)
            .map(|(i, (t, _))| (TupleId(i as u32), t))
    }

    /// The tuple ids of an entity, in insertion order.
    pub fn entity_group(&self, eid: Eid) -> &[TupleId] {
        self.groups.get(&eid).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Iterate over `(Eid, group)` pairs, ordered by entity id.
    pub fn entity_groups(&self) -> impl Iterator<Item = (Eid, &[TupleId])> {
        self.groups.iter().map(|(e, g)| (*e, g.as_slice()))
    }

    /// The set of entities appearing in the instance.
    pub fn entities(&self) -> impl Iterator<Item = Eid> + '_ {
        self.groups.keys().copied()
    }

    /// Record the initial currency fact `lesser ≺_attr greater`.
    ///
    /// Fails if the tuples belong to different entities or the attribute is
    /// out of range.  Cycle freedom is a global property checked by
    /// [`TemporalInstance::validate`].
    pub fn add_order(
        &mut self,
        attr: AttrId,
        lesser: TupleId,
        greater: TupleId,
    ) -> Result<(), CurrencyError> {
        if attr.index() >= self.arity {
            return Err(CurrencyError::AttrOutOfRange {
                rel: self.rel,
                attr,
            });
        }
        let el = self.tuple_checked(lesser)?.eid;
        let eg = self.tuple_checked(greater)?.eid;
        if el != eg {
            return Err(CurrencyError::CrossEntityOrder {
                rel: self.rel,
                attr,
                entities: (el, eg),
            });
        }
        self.orders[attr.index()].add(lesser, greater);
        Ok(())
    }

    /// The partial currency order of an attribute (raw pairs, not closed).
    pub fn order(&self, attr: AttrId) -> &OrderRelation {
        &self.orders[attr.index()]
    }

    /// Check global invariants: every attribute order acyclic.
    pub fn validate(&self) -> Result<(), CurrencyError> {
        for (i, o) in self.orders.iter().enumerate() {
            if let Some(w) = o.find_cycle() {
                return Err(CurrencyError::CyclicOrder {
                    rel: self.rel,
                    attr: AttrId(i as u32),
                    witness: w,
                });
            }
        }
        Ok(())
    }

    /// Forget the orders: the embedded normal instance `D` (live tuples).
    pub fn as_normal(&self) -> NormalInstance {
        let mut n = NormalInstance::new(self.rel);
        for (_, t) in self.tuples() {
            n.push(t.clone());
        }
        n
    }

    /// `true` if an identical tuple (same entity, same values) exists.
    pub fn contains_tuple_value(&self, eid: Eid, values: &[Value]) -> bool {
        self.entity_group(eid)
            .iter()
            .any(|&tid| self.tuple(tid).values == values)
    }

    /// Reclaim every tombstone slot, remapping the surviving tuples onto
    /// dense ids (relative order preserved).  Returns the number of slots
    /// reclaimed and the translation table `old id → new id` (`None` for
    /// tombstones).  With no tombstones this is a free no-op: nothing is
    /// touched and the returned table is **empty, meaning identity** —
    /// the convention every remap consumer honors, so steady-state
    /// compaction ticks allocate nothing.
    ///
    /// **Every external holder of this instance's tuple ids is
    /// invalidated** — copy-function mappings, cached encodings, ids kept
    /// by applications.  Use [`crate::Specification::compact`] (which
    /// remaps the copy functions and hands back the tables) or
    /// `CurrencyEngine::compact` (which also rebuilds the compiled
    /// components) rather than calling this directly.
    pub fn compact(&mut self) -> (usize, Vec<Option<TupleId>>) {
        let slots = self.tuples.len();
        if self.tombstones == 0 {
            return (0, Vec::new());
        }
        let mut remap: Vec<Option<TupleId>> = vec![None; slots];
        let mut next = 0u32;
        for (i, slot) in remap.iter_mut().enumerate() {
            if !self.removed[i] {
                *slot = Some(TupleId(next));
                next += 1;
            }
        }
        self.tuples = self.tuples().map(|(_, t)| t.clone()).collect();
        self.removed = std::iter::repeat_n(false, self.tuples.len()).collect();
        let reclaimed = slots - self.tuples.len();
        self.tombstones = 0;
        // Entity groups hold live ids only; the remap is monotonic, so
        // in-group insertion order survives.
        for (_, group) in self.groups.iter_mut() {
            for id in group.iter_mut() {
                *id = remap[id.index()].expect("grouped ids are live");
            }
        }
        for order in &mut self.orders {
            order.remap(&remap);
        }
        self.min_tombstone = usize::MAX;
        self.sweep_block = None;
        (reclaimed, remap)
    }

    /// Bounds of the next canonical incremental-compaction slice, or
    /// `None` when there is nothing to reclaim.
    ///
    /// The incremental sweep bubbles one contiguous dead block upward:
    /// `write` is the lowest tombstoned slot, `[write, start)` is the
    /// dead block accumulated by earlier slices of this sweep (skipped,
    /// already processed), and `[start, end)` is the next scan window of
    /// at most `max_scan` slots.  A retraction below `write` between
    /// slices simply restarts the sweep at the new minimum — correctness
    /// never depends on the cached block, only the cost does.
    pub fn compact_step_bounds(&self, max_scan: usize) -> Option<(u32, u32, u32)> {
        if self.tombstones == 0 {
            return None;
        }
        let write = self.min_tombstone;
        debug_assert!(self.removed[write], "min_tombstone hint must be exact");
        let start = match self.sweep_block {
            Some((bs, be)) if bs as usize == write => be as usize,
            _ => write,
        };
        let end = (start + max_scan.max(1)).min(self.tuples.len());
        Some((write as u32, start as u32, end as u32))
    }

    /// Execute one incremental-compaction slice with explicit bounds:
    /// scan slots `[start, end)` in ascending order, moving every live
    /// tuple down onto the dead block that begins at `write`, and
    /// truncate the slot vector when the scan reaches its end.  The
    /// instance is a *valid* instance before and after every slice —
    /// entity groups and order pairs are rewritten in place for exactly
    /// the moved tuples, so the slice costs O(scan + affected pairs),
    /// never O(instance).
    ///
    /// Bounds are validated (`write ≤ start ≤ end ≤ len`, with
    /// `[write, start)` entirely dead), so replaying a logged slice
    /// against a diverged instance fails cleanly instead of corrupting
    /// slots.  Use [`crate::Specification::compact_slice`] /
    /// [`crate::Specification::compact_slice_at`] rather than calling
    /// this directly: like [`TemporalInstance::compact`], a slice
    /// invalidates external holders of the moved ids, and the
    /// specification layer keeps copy functions in lockstep.
    pub(crate) fn compact_slice_at(
        &mut self,
        write: u32,
        start: u32,
        end: u32,
    ) -> Result<SliceOutcome, CurrencyError> {
        let len = self.tuples.len();
        let (w0, s0, e0) = (write as usize, start as usize, end as usize);
        let bad_bounds = || CurrencyError::InvalidCompactSlice {
            rel: self.rel,
            write,
            start,
            end,
            slots: len,
        };
        if w0 > s0 || s0 > e0 || e0 > len {
            return Err(bad_bounds());
        }
        if (w0..s0).any(|i| !self.removed[i]) {
            return Err(bad_bounds());
        }

        // Pass 1: bubble live tuples down onto the dead block.  One dead
        // slot is consumed at `w` and one created at the vacated source,
        // so the tombstone count is conserved until truncation.
        let mut moved: Vec<(TupleId, TupleId, Eid)> = Vec::new();
        let mut dead: Vec<TupleId> = Vec::new();
        let mut remap: Vec<Option<TupleId>> = vec![None; s0 - w0];
        let mut w = w0;
        for i in s0..e0 {
            if self.removed[i] {
                dead.push(TupleId(i as u32));
                remap.push(None);
            } else {
                if !self.removed[w] {
                    // Only reachable through corrupt explicit bounds: a
                    // canonical sweep always starts on a tombstone.
                    return Err(bad_bounds());
                }
                let eid = self.tuples[i].eid;
                self.tuples.swap(w, i);
                self.removed[w] = false;
                self.removed[i] = true;
                moved.push((TupleId(i as u32), TupleId(w as u32), eid));
                remap.push(Some(TupleId(w as u32)));
                w += 1;
            }
        }

        // Pass 2: rewrite the order pairs touching a moved endpoint.
        // Orders only relate same-entity tuples, so walking the affected
        // entities' (pre-update) member lists via `pairs_from` finds
        // every such pair without an O(order) scan.  Fresh target ids
        // were dead (pairs shed on removal), so the re-adds cannot
        // collide with surviving pairs.
        if !moved.is_empty() {
            let moved_map: BTreeMap<TupleId, TupleId> =
                moved.iter().map(|&(old, new, _)| (old, new)).collect();
            let affected: std::collections::BTreeSet<Eid> =
                moved.iter().map(|&(_, _, eid)| eid).collect();
            for order in &mut self.orders {
                if order.is_empty() {
                    continue;
                }
                let mut changed: Vec<((TupleId, TupleId), (TupleId, TupleId))> = Vec::new();
                for &eid in &affected {
                    let Some(members) = self.groups.get(&eid) else {
                        continue;
                    };
                    for &m in members {
                        for (l, g) in order.pairs_from(m) {
                            let nl = moved_map.get(&l).copied().unwrap_or(l);
                            let ng = moved_map.get(&g).copied().unwrap_or(g);
                            if (nl, ng) != (l, g) {
                                changed.push(((l, g), (nl, ng)));
                            }
                        }
                    }
                }
                for &((l, g), _) in &changed {
                    order.remove(l, g);
                }
                for &(_, (nl, ng)) in &changed {
                    order.add(nl, ng);
                }
            }
            // Pass 3: entity groups, moved entries only (in-group
            // insertion order survives because moves are monotone).
            for &(old, new, eid) in &moved {
                let group = self.groups.get_mut(&eid).expect("moved tuple is grouped");
                let slot = group
                    .iter_mut()
                    .find(|t| **t == old)
                    .expect("moved tuple appears in its entity group");
                *slot = new;
            }
        }

        // Truncate once the scan has reached the end of the slot vector:
        // `[w, e0)` is then a trailing all-dead block.
        let reclaimed = if e0 == len {
            self.tuples.truncate(w);
            self.removed.truncate(w);
            let reclaimed = len - w;
            self.tombstones -= reclaimed;
            self.sweep_block = None;
            if self.tombstones == 0 {
                self.min_tombstone = usize::MAX;
            }
            debug_assert!(self.tombstones == 0 || self.min_tombstone < w);
            reclaimed
        } else {
            if self.min_tombstone >= w0 {
                self.min_tombstone = if w < e0 {
                    w
                } else {
                    // Degenerate all-live scan (unreachable through
                    // canonical bounds): recompute the hint exactly.
                    self.removed
                        .iter()
                        .position(|&dead| dead)
                        .unwrap_or(usize::MAX)
                };
            }
            self.sweep_block = (w < e0).then_some((w as u32, e0 as u32));
            0
        };
        Ok(SliceOutcome {
            moved,
            dead,
            remap,
            reclaimed,
        })
    }
}

impl Paged for TemporalInstance {
    fn for_each_page(&self, visit: &mut dyn FnMut(*const ())) {
        self.tuples.for_each_page(visit);
        self.removed.for_each_page(visit);
        self.groups.for_each_page(visit);
        for order in &self.orders {
            order.for_each_page(visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;

    fn schema() -> RelationSchema {
        RelationSchema::new("R", &["A", "B"])
    }

    fn inst() -> TemporalInstance {
        TemporalInstance::new(RelId(0), &schema())
    }

    fn tup(eid: u64, a: i64, b: i64) -> Tuple {
        Tuple::new(Eid(eid), vec![Value::int(a), Value::int(b)])
    }

    #[test]
    fn push_assigns_dense_ids_and_groups() {
        let mut d = inst();
        let t0 = d.push_tuple(tup(1, 10, 20)).unwrap();
        let t1 = d.push_tuple(tup(1, 11, 21)).unwrap();
        let t2 = d.push_tuple(tup(2, 12, 22)).unwrap();
        assert_eq!((t0, t1, t2), (TupleId(0), TupleId(1), TupleId(2)));
        assert_eq!(d.entity_group(Eid(1)), &[t0, t1]);
        assert_eq!(d.entity_group(Eid(2)), &[t2]);
        assert_eq!(d.entity_group(Eid(9)), &[] as &[TupleId]);
        assert_eq!(d.entities().count(), 2);
    }

    #[test]
    fn arity_is_enforced() {
        let mut d = inst();
        let bad = Tuple::new(Eid(1), vec![Value::int(1)]);
        assert!(matches!(
            d.push_tuple(bad),
            Err(CurrencyError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn cross_entity_orders_are_rejected() {
        let mut d = inst();
        let t0 = d.push_tuple(tup(1, 0, 0)).unwrap();
        let t1 = d.push_tuple(tup(2, 0, 0)).unwrap();
        assert!(matches!(
            d.add_order(AttrId(0), t0, t1),
            Err(CurrencyError::CrossEntityOrder { .. })
        ));
    }

    #[test]
    fn out_of_range_attribute_rejected() {
        let mut d = inst();
        let t0 = d.push_tuple(tup(1, 0, 0)).unwrap();
        let t1 = d.push_tuple(tup(1, 1, 1)).unwrap();
        assert!(matches!(
            d.add_order(AttrId(5), t0, t1),
            Err(CurrencyError::AttrOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_detects_cycles_through_closure() {
        let mut d = inst();
        let t0 = d.push_tuple(tup(1, 0, 0)).unwrap();
        let t1 = d.push_tuple(tup(1, 1, 1)).unwrap();
        let t2 = d.push_tuple(tup(1, 2, 2)).unwrap();
        d.add_order(AttrId(0), t0, t1).unwrap();
        d.add_order(AttrId(0), t1, t2).unwrap();
        assert!(d.validate().is_ok());
        d.add_order(AttrId(0), t2, t0).unwrap();
        assert!(matches!(
            d.validate(),
            Err(CurrencyError::CyclicOrder { .. })
        ));
    }

    #[test]
    fn orders_are_per_attribute() {
        let mut d = inst();
        let t0 = d.push_tuple(tup(1, 0, 0)).unwrap();
        let t1 = d.push_tuple(tup(1, 1, 1)).unwrap();
        d.add_order(AttrId(0), t0, t1).unwrap();
        // Opposite direction on a different attribute is fine (paper §2:
        // a tuple may be current in one attribute and stale in another).
        d.add_order(AttrId(1), t1, t0).unwrap();
        assert!(d.validate().is_ok());
        assert!(d.order(AttrId(0)).contains(t0, t1));
        assert!(d.order(AttrId(1)).contains(t1, t0));
        assert!(!d.order(AttrId(0)).contains(t1, t0));
    }

    #[test]
    fn as_normal_strips_orders() {
        let mut d = inst();
        let t0 = d.push_tuple(tup(1, 0, 0)).unwrap();
        let t1 = d.push_tuple(tup(1, 1, 1)).unwrap();
        d.add_order(AttrId(0), t0, t1).unwrap();
        let n = d.as_normal();
        assert_eq!(n.len(), 2);
        assert_eq!(n.rel(), RelId(0));
    }

    #[test]
    fn remove_tuple_tombstones_without_shifting_ids() {
        let mut d = inst();
        let t0 = d.push_tuple(tup(1, 0, 0)).unwrap();
        let t1 = d.push_tuple(tup(1, 1, 1)).unwrap();
        let t2 = d.push_tuple(tup(2, 2, 2)).unwrap();
        d.add_order(AttrId(0), t0, t1).unwrap();
        d.remove_tuple(t1).unwrap();
        // Ids are stable; the tombstone is everywhere invisible.
        assert_eq!(d.len(), 3, "slot count keeps the id space");
        assert_eq!(d.live_len(), 2);
        assert!(!d.is_live(t1));
        assert!(d.tuple_checked(t1).is_err());
        assert_eq!(d.entity_group(Eid(1)), &[t0]);
        assert!(d.order(AttrId(0)).is_empty(), "orders shed the tuple");
        assert_eq!(d.tuples().count(), 2);
        assert!(d.as_normal().contains(&tup(2, 2, 2)));
        // Removing it again (or a bogus id) fails.
        assert!(d.remove_tuple(t1).is_err());
        assert!(d.remove_tuple(TupleId(99)).is_err());
        // Removing an entity's last tuple drops the entity.
        d.remove_tuple(t2).unwrap();
        assert_eq!(d.entities().count(), 1);
        // New pushes still get fresh ids past the tombstones.
        let t3 = d.push_tuple(tup(1, 3, 3)).unwrap();
        assert_eq!(t3, TupleId(3));
        assert_eq!(d.entity_group(Eid(1)), &[t0, t3]);
    }

    #[test]
    fn compact_reclaims_tombstones_and_remaps_densely() {
        let mut d = inst();
        let t0 = d.push_tuple(tup(1, 0, 0)).unwrap();
        let t1 = d.push_tuple(tup(1, 1, 1)).unwrap();
        let t2 = d.push_tuple(tup(2, 2, 2)).unwrap();
        let t3 = d.push_tuple(tup(1, 3, 3)).unwrap();
        d.add_order(AttrId(0), t0, t1).unwrap();
        d.add_order(AttrId(0), t1, t3).unwrap();
        d.remove_tuple(t1).unwrap();
        d.remove_tuple(t2).unwrap();
        assert_eq!(d.tombstones(), 2);
        let (reclaimed, remap) = d.compact();
        assert_eq!(reclaimed, 2);
        assert_eq!(
            remap,
            vec![Some(TupleId(0)), None, None, Some(TupleId(1))],
            "survivors get dense ids in order"
        );
        // The tuple vector actually shrank and liveness is total.
        assert_eq!(d.len(), 2);
        assert_eq!(d.live_len(), 2);
        assert_eq!(d.tombstones(), 0);
        assert_eq!(d.entity_group(Eid(1)), &[TupleId(0), TupleId(1)]);
        assert_eq!(d.tuple(TupleId(1)).values, tup(1, 3, 3).values);
        // Orders survived the remap (t1's pairs had been shed on removal).
        assert!(d.order(AttrId(0)).is_empty());
        assert!(d.validate().is_ok());
        // Compacting again is a free no-op: the empty table is the
        // identity convention, so nothing is allocated.
        let (again, remap) = d.compact();
        assert_eq!(again, 0);
        assert!(remap.is_empty());
        // New pushes reuse the reclaimed id space.
        assert_eq!(d.push_tuple(tup(3, 9, 9)).unwrap(), TupleId(2));
    }

    #[test]
    fn compact_remaps_surviving_order_pairs() {
        let mut d = inst();
        let t0 = d.push_tuple(tup(1, 0, 0)).unwrap();
        let t1 = d.push_tuple(tup(2, 1, 1)).unwrap();
        let t2 = d.push_tuple(tup(1, 2, 2)).unwrap();
        d.add_order(AttrId(1), t0, t2).unwrap();
        d.remove_tuple(t1).unwrap();
        let (reclaimed, _) = d.compact();
        assert_eq!(reclaimed, 1);
        assert!(d.order(AttrId(1)).contains(TupleId(0), TupleId(1)));
        assert!(d.validate().is_ok());
    }

    #[test]
    fn sliced_sweep_matches_monolithic_compact() {
        // Interleaved live/dead pattern, drained with a tiny quantum:
        // the slice path must land on exactly the state compact() builds.
        for quantum in 1..=5usize {
            let mut d = inst();
            let mut ids = Vec::new();
            for i in 0..12i64 {
                ids.push(d.push_tuple(tup(1 + (i % 3) as u64, i, i)).unwrap());
            }
            d.add_order(AttrId(0), ids[0], ids[3]).unwrap();
            d.add_order(AttrId(0), ids[3], ids[9]).unwrap();
            d.add_order(AttrId(1), ids[11], ids[2]).unwrap();
            for &i in &[1usize, 4, 5, 7, 10] {
                d.remove_tuple(ids[i]).unwrap();
            }
            let mut reference = d.clone();
            let (ref_reclaimed, _) = reference.compact();

            let mut sliced = 0;
            let mut steps = 0;
            while let Some((w, s, e)) = d.compact_step_bounds(quantum) {
                let out = d.compact_slice_at(w, s, e).unwrap();
                sliced += out.reclaimed;
                steps += 1;
                assert!(steps < 100, "sweep must terminate");
                assert!(d.validate().is_ok(), "valid between slices");
            }
            assert_eq!(sliced, ref_reclaimed);
            assert_eq!(d.len(), reference.len());
            assert_eq!(d.tombstones(), 0);
            let got: Vec<_> = d.tuples().map(|(i, t)| (i, t.clone())).collect();
            let want: Vec<_> = reference.tuples().map(|(i, t)| (i, t.clone())).collect();
            assert_eq!(got, want, "quantum {quantum}");
            for eid in [Eid(1), Eid(2), Eid(3)] {
                assert_eq!(d.entity_group(eid), reference.entity_group(eid));
            }
            for a in 0..2 {
                assert_eq!(
                    d.order(AttrId(a)).iter().collect::<Vec<_>>(),
                    reference.order(AttrId(a)).iter().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn slice_sweep_survives_interleaved_churn() {
        // Retractions and inserts *between* slices restart or extend the
        // sweep but never corrupt it.
        let mut d = inst();
        for i in 0..10 {
            d.push_tuple(tup(1, i, i)).unwrap();
        }
        for i in [0u32, 2, 4, 6] {
            d.remove_tuple(TupleId(i)).unwrap();
        }
        let (w, s, e) = d.compact_step_bounds(2).unwrap();
        d.compact_slice_at(w, s, e).unwrap();
        // Retract below the sweep block (slot 0 now holds the moved
        // value-1 tuple) and push a fresh tuple.
        d.remove_tuple(TupleId(0)).unwrap();
        let t = d.push_tuple(tup(1, 99, 99)).unwrap();
        assert_eq!(t.index(), d.len() - 1);
        let mut steps = 0;
        while let Some((w, s, e)) = d.compact_step_bounds(3) {
            d.compact_slice_at(w, s, e).unwrap();
            assert!(d.validate().is_ok());
            steps += 1;
            assert!(steps < 50);
        }
        assert_eq!(d.tombstones(), 0);
        assert_eq!(d.live_len(), d.len());
        let values: Vec<i64> = d
            .tuples()
            .map(|(_, t)| t.values[0].clone())
            .map(|v| match v {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(values, vec![3, 5, 7, 8, 9, 99], "order preserved");
    }

    #[test]
    fn slice_with_corrupt_bounds_is_rejected() {
        let mut d = inst();
        for i in 0..6 {
            d.push_tuple(tup(1, i, i)).unwrap();
        }
        d.remove_tuple(TupleId(2)).unwrap();
        // write must not exceed start, scan must stay in range, and the
        // skipped block must be dead.
        assert!(d.compact_slice_at(3, 2, 5).is_err());
        assert!(d.compact_slice_at(2, 3, 99).is_err());
        assert!(d.compact_slice_at(0, 2, 5).is_err(), "live skipped block");
        // A live write cursor (claiming slot 0 is dead) is rejected too.
        assert!(d.compact_slice_at(0, 0, 2).is_err());
        // The instance is untouched by the rejections.
        assert_eq!(d.tombstones(), 1);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn contains_tuple_value_matches_exactly() {
        let mut d = inst();
        d.push_tuple(tup(1, 0, 0)).unwrap();
        assert!(d.contains_tuple_value(Eid(1), &[Value::int(0), Value::int(0)]));
        assert!(!d.contains_tuple_value(Eid(1), &[Value::int(0), Value::int(1)]));
        assert!(!d.contains_tuple_value(Eid(2), &[Value::int(0), Value::int(0)]));
    }
}
