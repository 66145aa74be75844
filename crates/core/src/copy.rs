//! Copy functions: provenance links that transport currency orders.
//!
//! A copy function `ρ` of signature `R₁[Ā] ⇐ R₂[B̄]` (paper §2) is a partial
//! mapping from the tuples of a *target* instance of `R₁` to tuples of a
//! *source* instance of `R₂`, recording that the `Ā`-attributes of a target
//! tuple were imported from the `B̄`-attributes of its source tuple.  Two
//! conditions give copy functions their semantics:
//!
//! * the **copying condition** — mapped tuples agree on the copied
//!   attributes (`t[Aᵢ] = s[Bᵢ]`), checked by [`CopyFunction::validate`];
//! * **≺-compatibility** — completed currency orders of the source carry
//!   over to the target: if `ρ(t₁) = s₁`, `ρ(t₂) = s₂`, the `t`s share an
//!   entity and the `s`s share an entity, then `s₁ ≺_{Bᵢ} s₂` forces
//!   `t₁ ≺_{Aᵢ} t₂`.  This is a property of completions, enforced by the
//!   reasoners; [`CopyFunction::compatibility_obligations`] enumerates the
//!   ground implications.

use crate::cow::{Paged, PagedMap};
use crate::denial::OrderEdge;
use crate::error::CurrencyError;
use crate::schema::{AttrId, RelId};
use crate::temporal::TemporalInstance;
use crate::value::{Eid, TupleId};
use std::collections::{BTreeMap, BTreeSet};

/// The signature `target[Ā] ⇐ source[B̄]` of a copy function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CopySignature {
    /// Relation whose tuples received values (the importing side, `R₁`).
    pub target: RelId,
    /// Relation the values came from (`R₂`).
    pub source: RelId,
    /// Correlated attribute list `Ā` on the target.
    pub target_attrs: Vec<AttrId>,
    /// Correlated attribute list `B̄` on the source (same length as `Ā`).
    pub source_attrs: Vec<AttrId>,
}

impl CopySignature {
    /// Build a signature, checking the attribute lists have equal length
    /// and are duplicate-free on the target side.
    pub fn new(
        target: RelId,
        target_attrs: Vec<AttrId>,
        source: RelId,
        source_attrs: Vec<AttrId>,
    ) -> Result<CopySignature, CurrencyError> {
        if target_attrs.len() != source_attrs.len() {
            return Err(CurrencyError::SignatureMismatch {
                detail: format!(
                    "target lists {} attributes but source lists {}",
                    target_attrs.len(),
                    source_attrs.len()
                ),
            });
        }
        let mut seen = target_attrs.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != target_attrs.len() {
            return Err(CurrencyError::SignatureMismatch {
                detail: "duplicate target attribute in copy signature".to_string(),
            });
        }
        Ok(CopySignature {
            target,
            source,
            target_attrs,
            source_attrs,
        })
    }

    /// Number of correlated attribute pairs.
    pub fn width(&self) -> usize {
        self.target_attrs.len()
    }

    /// `true` if the signature covers every proper attribute of the target
    /// relation.  Only such functions may import *new* tuples when extended
    /// (paper §4: "only copy functions that cover all attributes but EID
    /// of `Rᵢ` can be extended" with fresh tuples).
    pub fn covers_all_target_attrs(&self, target_arity: usize) -> bool {
        let mut covered = vec![false; target_arity];
        for a in &self.target_attrs {
            if a.index() < target_arity {
                covered[a.index()] = true;
            }
        }
        covered.into_iter().all(|c| c)
    }
}

/// Entity-keyed indexes over a copy function's mapping set, maintained
/// incrementally by the id-aware mutators ([`CopyFunction::insert_mapping`],
/// [`CopyFunction::remove_target_mapping`],
/// [`CopyFunction::remove_source_mappings`]).
///
/// The indexes exist so that the two hot paths of the incremental engine
/// cost O(region), not O(|ρ|):
///
/// * obligation enumeration for a dirty set of entities walks only the
///   groups those entities participate in
///   ([`CopyFunction::obligations_for_region`]), and
/// * a tuple removal sheds every mapping touching the tuple in one
///   indexed lookup instead of a scan of the whole mapping set.
///
/// All four maps are paged copy-on-write maps ([`crate::cow`]); the
/// per-key sets are small and copy with their page.
#[derive(Clone, Debug, Default)]
struct MappingIndex {
    /// Target tuple → the `(target_entity, source_entity)` group key of
    /// its mapping (the reverse `TupleId → mapping` index).
    group_of: PagedMap<TupleId, (Eid, Eid)>,
    /// Source tuple → the target tuples mapped to it.
    by_source: PagedMap<TupleId, BTreeSet<TupleId>>,
    /// `(target_entity, source_entity)` → the group's mapped pairs.
    /// Group keys lead with the target entity, so a target entity's
    /// groups are a contiguous range of this map — no separate
    /// target-entity index is needed (see [`MappingIndex::target_keys`]).
    groups: PagedMap<(Eid, Eid), BTreeSet<(TupleId, TupleId)>>,
    /// Source entity → group keys it participates in (the source entity
    /// is the *second* key component, so this one does need its own
    /// index).
    source_groups: PagedMap<Eid, BTreeSet<(Eid, Eid)>>,
}

impl MappingIndex {
    fn insert(&mut self, target: TupleId, source: TupleId, te: Eid, se: Eid) {
        let key = (te, se);
        self.group_of.insert(target, key);
        self.by_source
            .get_or_insert_with(source, BTreeSet::new)
            .insert(target);
        self.groups
            .get_or_insert_with(key, BTreeSet::new)
            .insert((target, source));
        self.source_groups
            .get_or_insert_with(se, BTreeSet::new)
            .insert(key);
    }

    /// Drop `ρ(target) = source` from every index.
    fn remove(&mut self, target: TupleId, source: TupleId) {
        let key = self.group_of.remove(&target).expect("indexed mapping");
        if let Some(ts) = self.by_source.get_mut(&source) {
            ts.remove(&target);
            if ts.is_empty() {
                self.by_source.remove(&source);
            }
        }
        let group = self.groups.get_mut(&key).expect("indexed group");
        group.remove(&(target, source));
        if group.is_empty() {
            self.groups.remove(&key);
            let keys = self.source_groups.get_mut(&key.1).expect("indexed entity");
            keys.remove(&key);
            if keys.is_empty() {
                self.source_groups.remove(&key.1);
            }
        }
    }

    /// The group keys of a target entity: a range scan over the sorted
    /// group map (keys lead with the target entity).
    fn target_keys(&self, te: Eid) -> impl Iterator<Item = (Eid, Eid)> + '_ {
        self.groups
            .range((te, Eid(u64::MIN))..=(te, Eid(u64::MAX)))
            .map(|(&key, _)| key)
    }
}

impl Paged for MappingIndex {
    fn for_each_page(&self, visit: &mut dyn FnMut(*const ())) {
        self.group_of.for_each_page(visit);
        self.by_source.for_each_page(visit);
        self.groups.for_each_page(visit);
        self.source_groups.for_each_page(visit);
    }
}

/// A copy function: a signature plus the partial tuple mapping.
///
/// The mapping set (`map`) is the source of truth.  Alongside it the
/// function keeps an optional entity-keyed `MappingIndex`; it is built by
/// [`CopyFunction::rebuild_index`] (which [`crate::Specification::add_copy`]
/// calls) and maintained incrementally by the id-aware mutators the delta
/// layer uses.  The legacy mutator [`CopyFunction::set_mapping`] has no
/// access to entity ids and therefore *invalidates* the index; every
/// consumer falls back to an on-the-fly grouping in that case, so direct
/// mutation stays correct — just not O(region).
#[derive(Clone, Debug)]
pub struct CopyFunction {
    sig: CopySignature,
    map: PagedMap<TupleId, TupleId>,
    /// `None` = stale (a non-indexed mutation happened); rebuilt by
    /// [`CopyFunction::rebuild_index`].
    index: Option<MappingIndex>,
}

impl CopyFunction {
    /// Create an empty copy function with the given signature.
    pub fn new(sig: CopySignature) -> CopyFunction {
        CopyFunction {
            sig,
            map: PagedMap::new(),
            index: Some(MappingIndex::default()),
        }
    }

    /// The signature.
    pub fn signature(&self) -> &CopySignature {
        &self.sig
    }

    /// Record `ρ(target) = source`.  Last write wins; the copying condition
    /// is checked by [`CopyFunction::validate`] against concrete instances.
    ///
    /// This mutator has no access to the endpoint entities, so it marks
    /// the entity-keyed mapping index stale; prefer
    /// [`CopyFunction::insert_mapping`] when the entities are at hand.
    pub fn set_mapping(&mut self, target: TupleId, source: TupleId) {
        self.map.insert(target, source);
        self.index = None;
    }

    /// Record `ρ(target) = source` with the endpoints' entities, keeping
    /// the entity-keyed index fresh.  Returns the previously mapped
    /// source, if the target was already mapped.
    pub fn insert_mapping(
        &mut self,
        target: TupleId,
        source: TupleId,
        target_entity: Eid,
        source_entity: Eid,
    ) -> Option<TupleId> {
        let old = self.map.insert(target, source);
        if let Some(ix) = &mut self.index {
            if let Some(old_source) = old {
                ix.remove(target, old_source);
            }
            ix.insert(target, source, target_entity, source_entity);
        }
        old
    }

    /// Drop the mapping of `target`, returning the dropped pair.  One
    /// indexed lookup when the index is fresh.
    pub fn remove_target_mapping(&mut self, target: TupleId) -> Option<(TupleId, TupleId)> {
        let source = self.map.remove(&target)?;
        if let Some(ix) = &mut self.index {
            ix.remove(target, source);
        }
        Some((target, source))
    }

    /// Drop every mapping whose source is `source`, returning the dropped
    /// pairs.  One indexed lookup plus O(dropped) when the index is
    /// fresh; a k-tuple removal delta therefore sheds all its mappings in
    /// one pass instead of k scans of the mapping set.
    pub fn remove_source_mappings(&mut self, source: TupleId) -> Vec<(TupleId, TupleId)> {
        match &mut self.index {
            Some(ix) => {
                let targets: Vec<TupleId> = ix
                    .by_source
                    .get(&source)
                    .map(|ts| ts.iter().copied().collect())
                    .unwrap_or_default();
                let mut dropped = Vec::with_capacity(targets.len());
                for t in targets {
                    let s = self.map.remove(&t).expect("indexed mapping in map");
                    self.index.as_mut().expect("checked").remove(t, s);
                    dropped.push((t, s));
                }
                dropped
            }
            None => {
                let mut dropped = Vec::new();
                self.map.retain(|&t, &s| {
                    if s == source {
                        dropped.push((t, s));
                        false
                    } else {
                        true
                    }
                });
                dropped
            }
        }
    }

    /// `ρ(target)`, if defined.
    pub fn mapping(&self, target: TupleId) -> Option<TupleId> {
        self.map.get(&target).copied()
    }

    /// Keep only the mappings `f(target, source)` accepts, returning the
    /// dropped pairs.  Used to cascade tuple removals: a mapping whose
    /// endpoint is gone must go with it.  Keeps a fresh index fresh (the
    /// dropped pairs' group keys are known); scans the whole mapping set
    /// either way.
    pub fn retain_mappings(
        &mut self,
        mut f: impl FnMut(TupleId, TupleId) -> bool,
    ) -> Vec<(TupleId, TupleId)> {
        let mut dropped = Vec::new();
        self.map.retain(|&t, &s| {
            let keep = f(t, s);
            if !keep {
                dropped.push((t, s));
            }
            keep
        });
        if let Some(ix) = &mut self.index {
            for &(t, s) in &dropped {
                ix.remove(t, s);
            }
        }
        dropped
    }

    /// Rebuild the entity-keyed mapping index from the mapping set.
    /// Mapped tuples must resolve in the given instances (tombstoned
    /// slots still resolve; the cascade keeps mappings live anyway).
    pub fn rebuild_index(&mut self, target: &TemporalInstance, source: &TemporalInstance) {
        let mut ix = MappingIndex::default();
        for (&t, &s) in self.map.iter() {
            ix.insert(t, s, target.tuple(t).eid, source.tuple(s).eid);
        }
        self.index = Some(ix);
    }

    /// `true` while the entity-keyed index mirrors the mapping set (no
    /// non-indexed mutation since the last [`CopyFunction::rebuild_index`]).
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    /// Remap every mapped tuple id through per-relation translation
    /// tables (old id → new id), as produced by specification compaction;
    /// an **empty** table is the identity (that relation had no
    /// tombstones).  A mapping whose endpoint did not survive the
    /// compaction is **dropped**, mirroring the delta layer's removal
    /// cascade — the delta path never leaves such a mapping behind, but a
    /// caller who tombstoned an endpoint directly through
    /// `instance_mut().remove_tuple()` must not turn a later compaction
    /// into a panic.  A no-op when both tables are the identity.
    ///
    /// A fresh entity-keyed index stays fresh: compaction moves ids but
    /// never changes which entity a tuple describes, so the index is
    /// translated in the same pass (group keys survive verbatim) instead
    /// of being staled and rebuilt from the instances.  A stale index
    /// stays stale — the caller re-derives it with
    /// [`CopyFunction::rebuild_index`] as before.
    pub fn remap_tuples(
        &mut self,
        target_remap: &[Option<TupleId>],
        source_remap: &[Option<TupleId>],
    ) {
        if target_remap.is_empty() && source_remap.is_empty() {
            return;
        }
        let translate = |table: &[Option<TupleId>], id: TupleId| -> Option<TupleId> {
            if table.is_empty() {
                Some(id)
            } else {
                table.get(id.index()).copied().flatten()
            }
        };
        let old_index = self.index.take();
        let mut new_index = old_index.as_ref().map(|_| MappingIndex::default());
        let old_map = std::mem::take(&mut self.map);
        for (&t, &s) in old_map.iter() {
            let (Some(nt), Some(ns)) = (translate(target_remap, t), translate(source_remap, s))
            else {
                continue; // endpoint died before compaction: mapping goes
            };
            self.map.insert(nt, ns);
            if let (Some(ix), Some(old)) = (&mut new_index, &old_index) {
                let &(te, se) = old.group_of.get(&t).expect("indexed mapping");
                ix.insert(nt, ns, te, se);
            }
        }
        self.index = new_index;
    }

    /// Apply one incremental-compaction slice of relation `rel` to the
    /// mapping set: drop the (orphan) mappings whose endpoint is one of
    /// the `dead` slots, then re-key the endpoints that `moved`
    /// (old id → new id).  Returns the number of mappings dropped.
    ///
    /// The bounded counterpart of [`CopyFunction::remap_tuples`]: with a
    /// fresh entity-keyed index the cost is O(slice) — per dead slot and
    /// per moved endpoint an indexed lookup, never a scan of the mapping
    /// set — and the index is maintained in place (entities never change
    /// on a move).  With a stale index the source side degrades to one
    /// full pass over the map, exactly like the monolithic path.
    ///
    /// Moved target keys are processed in ascending old-id order; the
    /// sweep moves tuples strictly downward onto slots whose mappings
    /// (if any) were dropped when the slot died, so a re-keyed entry
    /// never collides with a surviving one.
    pub fn remap_slice(
        &mut self,
        rel: RelId,
        moved: &BTreeMap<TupleId, TupleId>,
        dead: &[TupleId],
    ) -> usize {
        let on_target = self.sig.target == rel;
        let on_source = self.sig.source == rel;
        if !on_target && !on_source {
            return 0;
        }
        let mut dropped = 0;
        // Orphan mappings referencing a dead slot go first (mirrors the
        // monolithic remap's drop semantics and frees the slot's key for
        // the re-keys below).
        if on_target {
            for &d in dead {
                if self.remove_target_mapping(d).is_some() {
                    dropped += 1;
                }
            }
        }
        if on_source {
            for &d in dead {
                dropped += self.remove_source_mappings(d).len();
            }
        }
        // Target-side re-keys (map keys are target ids).
        if on_target {
            for (&old, &new) in moved {
                let Some(src) = self.map.remove(&old) else {
                    continue;
                };
                let prev = self.map.insert(new, src);
                debug_assert!(prev.is_none(), "moved onto a surviving mapping key");
                if let Some(ix) = &mut self.index {
                    let key = ix.group_of.remove(&old).expect("indexed mapping");
                    ix.group_of.insert(new, key);
                    let ts = ix.by_source.get_mut(&src).expect("indexed source");
                    ts.remove(&old);
                    ts.insert(new);
                    let group = ix.groups.get_mut(&key).expect("indexed group");
                    group.remove(&(old, src));
                    group.insert((new, src));
                }
            }
        }
        // Source-side re-keys (map values are source ids).
        if on_source {
            match &mut self.index {
                Some(ix) => {
                    for (&old, &new) in moved {
                        let Some(targets) = ix.by_source.remove(&old) else {
                            continue;
                        };
                        for &t in &targets {
                            *self.map.get_mut(&t).expect("indexed mapping in map") = new;
                            let key = *ix.group_of.get(&t).expect("indexed mapping");
                            let group = ix.groups.get_mut(&key).expect("indexed group");
                            group.remove(&(t, old));
                            group.insert((t, new));
                        }
                        let prev = ix.by_source.insert(new, targets);
                        debug_assert!(prev.is_none(), "moved onto a surviving source id");
                    }
                }
                None => {
                    for (_, s) in self.map.iter_mut() {
                        if let Some(&ns) = moved.get(s) {
                            *s = ns;
                        }
                    }
                }
            }
        }
        dropped
    }

    /// Iterate over `(target, source)` pairs.
    pub fn mappings(&self) -> impl Iterator<Item = (TupleId, TupleId)> + '_ {
        self.map.iter().map(|(t, s)| (*t, *s))
    }

    /// Number of mapped tuples (the `|ρ|` of the paper's BCP problem).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no tuple is mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Check the copying condition against concrete target and source
    /// instances: every mapped pair agrees on the correlated attributes.
    ///
    /// `copy_index` is only used to label errors.
    pub fn validate(
        &self,
        copy_index: usize,
        target: &TemporalInstance,
        source: &TemporalInstance,
    ) -> Result<(), CurrencyError> {
        for (&t, &s) in self.map.iter() {
            let tt = target.tuple_checked(t)?;
            let st = source.tuple_checked(s)?;
            for (pos, (ta, sa)) in self
                .sig
                .target_attrs
                .iter()
                .zip(&self.sig.source_attrs)
                .enumerate()
            {
                if tt.value(*ta) != st.value(*sa) {
                    return Err(CurrencyError::CopyValueMismatch {
                        copy: copy_index,
                        target: t,
                        source: s,
                        position: pos,
                    });
                }
            }
        }
        Ok(())
    }

    /// Enumerate the ground ≺-compatibility obligations.
    ///
    /// Each returned pair `(source_edge, target_edge)` reads: *if* the
    /// completed source order contains `source_edge`, *then* the completed
    /// target order must contain `target_edge`.  Obligations are generated
    /// for every ordered pair of mapped target tuples sharing an entity
    /// whose sources also share an entity, and for every correlated
    /// attribute position.
    pub fn compatibility_obligations(
        &self,
        target: &TemporalInstance,
        source: &TemporalInstance,
    ) -> Vec<(OrderEdge, OrderEdge)> {
        self.compatibility_obligations_filtered(target, source, |_, _| true)
    }

    /// [`CopyFunction::compatibility_obligations`] restricted to the
    /// obligations `keep(target_entity, source_entity)` accepts.
    ///
    /// Mapped pairs are grouped by their `(target entity, source entity)`
    /// cell pair, so the quadratic pair enumeration runs only within
    /// accepted groups.  With a fresh index the persisted groups are used
    /// directly; otherwise they are derived on the fly from the mapping
    /// set.  Callers that already know the dirty *entities* should prefer
    /// [`CopyFunction::obligations_for_region`], which skips the rejected
    /// groups without visiting them.
    pub fn compatibility_obligations_filtered(
        &self,
        target: &TemporalInstance,
        source: &TemporalInstance,
        keep: impl Fn(Eid, Eid) -> bool,
    ) -> Vec<(OrderEdge, OrderEdge)> {
        let mut out = Vec::new();
        for (&(te, se), pairs) in self.groups(target, source).all() {
            if keep(te, se) {
                self.emit_group_obligations(pairs, &mut out);
            }
        }
        out
    }

    /// The obligations of every group touching a dirty region: groups
    /// whose target entity is in `dirty_targets` *or* whose source entity
    /// is in `dirty_sources`.
    ///
    /// With a fresh index this enumerates only the accepted groups (via
    /// the per-entity group-key indexes), so the cost scales with the
    /// dirty region and its obligations — never with `|ρ|`.  On a stale
    /// index it falls back to the filtered full grouping.
    pub fn obligations_for_region(
        &self,
        target: &TemporalInstance,
        source: &TemporalInstance,
        dirty_targets: &BTreeSet<Eid>,
        dirty_sources: &BTreeSet<Eid>,
    ) -> Vec<(OrderEdge, OrderEdge)> {
        let Some(ix) = &self.index else {
            return self.compatibility_obligations_filtered(target, source, |te, se| {
                dirty_targets.contains(&te) || dirty_sources.contains(&se)
            });
        };
        // Keys in sorted order so the emission order matches the full
        // enumeration's (component clause order must be deterministic).
        let mut keys: BTreeSet<(Eid, Eid)> = BTreeSet::new();
        for &te in dirty_targets {
            keys.extend(ix.target_keys(te));
        }
        for se in dirty_sources {
            if let Some(ks) = ix.source_groups.get(se) {
                keys.extend(ks.iter().copied());
            }
        }
        let mut out = Vec::new();
        for key in keys {
            let pairs = ix.groups.get(&key).expect("indexed group key");
            self.emit_group_obligations(pairs, &mut out);
        }
        out
    }

    /// Emit one group's obligations (every ordered pair of distinct
    /// mappings with distinct sources, per correlated attribute).
    fn emit_group_obligations(
        &self,
        pairs: &BTreeSet<(TupleId, TupleId)>,
        out: &mut Vec<(OrderEdge, OrderEdge)>,
    ) {
        // Upper bound: |pairs|² ordered pairs × correlated attributes.
        out.reserve(pairs.len() * pairs.len() * self.sig.width());
        self.for_each_group_obligation(pairs, &mut |s, t| out.push((s, t)));
    }

    /// Stream one group's obligations to `f` in emission order.
    fn for_each_group_obligation(
        &self,
        pairs: &BTreeSet<(TupleId, TupleId)>,
        f: &mut impl FnMut(OrderEdge, OrderEdge),
    ) {
        for &(t1, s1) in pairs {
            for &(t2, s2) in pairs {
                if t1 == t2 || s1 == s2 {
                    continue;
                }
                for (ta, sa) in self.sig.target_attrs.iter().zip(&self.sig.source_attrs) {
                    f(
                        OrderEdge {
                            attr: *sa,
                            lesser: s1,
                            greater: s2,
                        },
                        OrderEdge {
                            attr: *ta,
                            lesser: t1,
                            greater: t2,
                        },
                    );
                }
            }
        }
    }

    /// `true` if a group yields at least one obligation: it holds two
    /// mappings with distinct sources and the signature correlates at
    /// least one attribute.  Stops at the first source that differs from
    /// the group's first, so it never enumerates the mapping pairs.
    fn group_links(&self, pairs: &BTreeSet<(TupleId, TupleId)>) -> bool {
        let mut sources = pairs.iter().map(|&(_, s)| s);
        self.sig.width() > 0
            && sources
                .next()
                .is_some_and(|first| sources.any(|s| s != first))
    }

    /// The function's `(target entity, source entity)` groups, for
    /// streaming reads ([`CopyGroups`]).  Free with a fresh index; with a
    /// stale one the mapping set is grouped once here, so build one view
    /// per batch of lookups rather than one per lookup.
    pub fn groups<'c>(
        &'c self,
        target: &TemporalInstance,
        source: &TemporalInstance,
    ) -> CopyGroups<'c> {
        let grouped = self.index.is_none().then(|| {
            let mut groups = GroupMap::new();
            for (&t, &s) in self.map.iter() {
                groups
                    .entry((target.tuple(t).eid, source.tuple(s).eid))
                    .or_default()
                    .insert((t, s));
            }
            groups
        });
        CopyGroups { cf: self, grouped }
    }

    /// Check ≺-compatibility against completed-order oracles.
    ///
    /// `source_precedes` / `target_precedes` report membership in the
    /// respective completed currency orders.
    pub fn compatible_with(
        &self,
        target: &TemporalInstance,
        source: &TemporalInstance,
        source_precedes: &dyn Fn(AttrId, TupleId, TupleId) -> bool,
        target_precedes: &dyn Fn(AttrId, TupleId, TupleId) -> bool,
    ) -> bool {
        self.compatibility_obligations(target, source)
            .into_iter()
            .all(|(se, te)| {
                !source_precedes(se.attr, se.lesser, se.greater)
                    || target_precedes(te.attr, te.lesser, te.greater)
            })
    }
}

/// Mapped `(target, source)` pairs grouped by `(target entity, source
/// entity)`.
type GroupMap = BTreeMap<(Eid, Eid), BTreeSet<(TupleId, TupleId)>>;

/// A read view of a copy function's `(target entity, source entity)`
/// groups ([`CopyFunction::groups`]): the entity index when it is fresh,
/// or a grouping of the mapping set made once when the view was built.
///
/// The view streams what the incremental engine needs per component:
/// which groups link their two cells (have an obligation), and the
/// obligations of one target entity's groups — in the order
/// [`CopyFunction::compatibility_obligations`] lists them, with no
/// intermediate vector.
#[derive(Debug)]
pub struct CopyGroups<'c> {
    cf: &'c CopyFunction,
    /// `Some` when the function's index was stale at construction.
    grouped: Option<GroupMap>,
}

impl CopyGroups<'_> {
    /// Every group, in key order.
    fn all(&self) -> impl Iterator<Item = (&(Eid, Eid), &BTreeSet<(TupleId, TupleId)>)> + '_ {
        let (indexed, grouped) = match &self.grouped {
            Some(groups) => (None, Some(groups.iter())),
            None => {
                let ix = self.cf.index.as_ref().expect("fresh index");
                (Some(ix.groups.iter()), None)
            }
        };
        indexed
            .into_iter()
            .flatten()
            .chain(grouped.into_iter().flatten())
    }

    /// The groups of target entity `te`, in ascending source-entity
    /// order.
    fn target_groups(
        &self,
        te: Eid,
    ) -> impl Iterator<Item = (&(Eid, Eid), &BTreeSet<(TupleId, TupleId)>)> + '_ {
        let keys = (te, Eid(u64::MIN))..=(te, Eid(u64::MAX));
        let (indexed, grouped) = match &self.grouped {
            Some(groups) => (None, Some(groups.range(keys))),
            None => {
                let ix = self.cf.index.as_ref().expect("fresh index");
                (Some(ix.groups.range(keys)), None)
            }
        };
        indexed
            .into_iter()
            .flatten()
            .chain(grouped.into_iter().flatten())
    }

    /// Stream the obligations of every group of target entity `te` to
    /// `f(source_edge, target_edge)`, groups in ascending source-entity
    /// order — the subsequence of
    /// [`CopyFunction::compatibility_obligations`] whose target edge lies
    /// in `te`.
    pub fn for_each_obligation_of_target(&self, te: Eid, mut f: impl FnMut(OrderEdge, OrderEdge)) {
        for (_, pairs) in self.target_groups(te) {
            self.cf.for_each_group_obligation(pairs, &mut f);
        }
    }

    /// Report to `f(te, se)` every group with at least one obligation
    /// whose target entity is in `targets` or whose source entity is in
    /// `sources` (both sorted); `None` reports every linking group.  A
    /// group may be reported more than once.  With a fresh index only
    /// the groups of the listed entities are visited.
    pub fn for_each_linking_group(
        &self,
        region: Option<(&[Eid], &[Eid])>,
        mut f: impl FnMut(Eid, Eid),
    ) {
        let mut visit = |key: &(Eid, Eid), pairs: &BTreeSet<(TupleId, TupleId)>| {
            if self.cf.group_links(pairs) {
                f(key.0, key.1);
            }
        };
        match (region, &self.grouped) {
            (None, _) => self.all().for_each(|(k, p)| visit(k, p)),
            (Some((targets, sources)), Some(_)) => {
                for (key, pairs) in self.all() {
                    if targets.binary_search(&key.0).is_ok()
                        || sources.binary_search(&key.1).is_ok()
                    {
                        visit(key, pairs);
                    }
                }
            }
            (Some((targets, sources)), None) => {
                let ix = self.cf.index.as_ref().expect("fresh index");
                for &te in targets {
                    self.target_groups(te).for_each(|(k, p)| visit(k, p));
                }
                for se in sources {
                    for key in ix.source_groups.get(se).into_iter().flatten() {
                        visit(key, ix.groups.get(key).expect("indexed group key"));
                    }
                }
            }
        }
    }
}

impl Paged for CopyFunction {
    fn for_each_page(&self, visit: &mut dyn FnMut(*const ())) {
        self.map.for_each_page(visit);
        if let Some(ix) = &self.index {
            ix.for_each_page(visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Tuple;
    use crate::schema::RelationSchema;
    use crate::value::{Eid, Value};

    fn target_inst() -> TemporalInstance {
        let schema = RelationSchema::new("Dept", &["mgrAddr", "budget"]);
        let mut d = TemporalInstance::new(RelId(0), &schema);
        d.push_tuple(Tuple::new(
            Eid(1),
            vec![Value::str("2 Small St"), Value::int(6500)],
        ))
        .unwrap();
        d.push_tuple(Tuple::new(
            Eid(1),
            vec![Value::str("6 Main St"), Value::int(6000)],
        ))
        .unwrap();
        d
    }

    fn source_inst() -> TemporalInstance {
        let schema = RelationSchema::new("Emp", &["address", "salary"]);
        let mut d = TemporalInstance::new(RelId(1), &schema);
        d.push_tuple(Tuple::new(
            Eid(7),
            vec![Value::str("2 Small St"), Value::int(50)],
        ))
        .unwrap();
        d.push_tuple(Tuple::new(
            Eid(7),
            vec![Value::str("6 Main St"), Value::int(80)],
        ))
        .unwrap();
        d
    }

    fn addr_sig() -> CopySignature {
        CopySignature::new(RelId(0), vec![AttrId(0)], RelId(1), vec![AttrId(0)]).unwrap()
    }

    #[test]
    fn signature_validation() {
        assert!(CopySignature::new(RelId(0), vec![AttrId(0)], RelId(1), vec![]).is_err());
        assert!(CopySignature::new(
            RelId(0),
            vec![AttrId(0), AttrId(0)],
            RelId(1),
            vec![AttrId(0), AttrId(1)]
        )
        .is_err());
        let sig = addr_sig();
        assert_eq!(sig.width(), 1);
        assert!(!sig.covers_all_target_attrs(2));
        let full = CopySignature::new(
            RelId(0),
            vec![AttrId(0), AttrId(1)],
            RelId(1),
            vec![AttrId(0), AttrId(1)],
        )
        .unwrap();
        assert!(full.covers_all_target_attrs(2));
    }

    #[test]
    fn copying_condition_enforced() {
        let (tgt, src) = (target_inst(), source_inst());
        let mut rho = CopyFunction::new(addr_sig());
        rho.set_mapping(TupleId(0), TupleId(0)); // both "2 Small St": ok
        assert!(rho.validate(0, &tgt, &src).is_ok());
        rho.set_mapping(TupleId(1), TupleId(0)); // "6 Main St" ≠ "2 Small St"
        assert!(matches!(
            rho.validate(0, &tgt, &src),
            Err(CurrencyError::CopyValueMismatch { .. })
        ));
    }

    #[test]
    fn obligations_require_shared_entities_on_both_sides() {
        let (tgt, src) = (target_inst(), source_inst());
        let mut rho = CopyFunction::new(addr_sig());
        rho.set_mapping(TupleId(0), TupleId(0));
        rho.set_mapping(TupleId(1), TupleId(1));
        let obs = rho.compatibility_obligations(&tgt, &src);
        // Both directions of the single same-entity pair.
        assert_eq!(obs.len(), 2);
        for (se, te) in &obs {
            assert_eq!(se.attr, AttrId(0));
            assert_eq!(te.attr, AttrId(0));
        }
    }

    #[test]
    fn no_obligations_when_sources_share_a_tuple() {
        // Example 2.2 of the paper: t1 and t2 both copied from s1 — the
        // obligation is vacuous because s ≺ s never holds.
        let (tgt, src) = (target_inst(), source_inst());
        let mut rho = CopyFunction::new(addr_sig());
        rho.set_mapping(TupleId(0), TupleId(0));
        rho.set_mapping(TupleId(1), TupleId(0));
        assert!(rho.compatibility_obligations(&tgt, &src).is_empty());
    }

    #[test]
    fn compatibility_oracle_check() {
        let (tgt, src) = (target_inst(), source_inst());
        let mut rho = CopyFunction::new(addr_sig());
        rho.set_mapping(TupleId(0), TupleId(0));
        rho.set_mapping(TupleId(1), TupleId(1));
        // Source completion says s0 ≺ s1.
        let src_prec = |_a: AttrId, l: TupleId, g: TupleId| l == TupleId(0) && g == TupleId(1);
        // Target completion agreeing: t0 ≺ t1.
        let tgt_good = |_a: AttrId, l: TupleId, g: TupleId| l == TupleId(0) && g == TupleId(1);
        // Target completion disagreeing: t1 ≺ t0.
        let tgt_bad = |_a: AttrId, l: TupleId, g: TupleId| l == TupleId(1) && g == TupleId(0);
        assert!(rho.compatible_with(&tgt, &src, &src_prec, &tgt_good));
        assert!(!rho.compatible_with(&tgt, &src, &src_prec, &tgt_bad));
    }

    #[test]
    fn mapping_accessors() {
        let mut rho = CopyFunction::new(addr_sig());
        assert!(rho.is_empty());
        rho.set_mapping(TupleId(3), TupleId(5));
        assert_eq!(rho.len(), 1);
        assert_eq!(rho.mapping(TupleId(3)), Some(TupleId(5)));
        assert_eq!(rho.mapping(TupleId(4)), None);
        let pairs: Vec<_> = rho.mappings().collect();
        assert_eq!(pairs, vec![(TupleId(3), TupleId(5))]);
    }

    #[test]
    fn set_mapping_stales_the_index_and_rebuild_restores_it() {
        let (tgt, src) = (target_inst(), source_inst());
        let mut rho = CopyFunction::new(addr_sig());
        assert!(rho.is_indexed(), "fresh copy starts indexed");
        rho.set_mapping(TupleId(0), TupleId(0));
        assert!(!rho.is_indexed(), "entity-blind mutation stales the index");
        rho.rebuild_index(&tgt, &src);
        assert!(rho.is_indexed());
        // Stale and fresh enumeration agree.
        rho.set_mapping(TupleId(1), TupleId(1));
        let stale = rho.compatibility_obligations(&tgt, &src);
        rho.rebuild_index(&tgt, &src);
        let fresh = rho.compatibility_obligations(&tgt, &src);
        assert_eq!(stale, fresh);
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn indexed_mutators_match_a_rebuilt_index() {
        let (tgt, src) = (target_inst(), source_inst());
        let mut incremental = CopyFunction::new(addr_sig());
        incremental.insert_mapping(TupleId(0), TupleId(0), Eid(1), Eid(7));
        incremental.insert_mapping(TupleId(1), TupleId(1), Eid(1), Eid(7));
        assert!(incremental.is_indexed(), "id-aware mutation keeps it fresh");
        // Overwrite: the old pair must leave every index.
        let old = incremental.insert_mapping(TupleId(1), TupleId(0), Eid(1), Eid(7));
        assert_eq!(old, Some(TupleId(1)));
        let mut rebuilt = incremental.clone();
        rebuilt.rebuild_index(&tgt, &src);
        assert_eq!(
            incremental.compatibility_obligations(&tgt, &src),
            rebuilt.compatibility_obligations(&tgt, &src)
        );
        // Both sources now share tuple 0: no obligations (Example 2.2).
        assert!(incremental.compatibility_obligations(&tgt, &src).is_empty());
    }

    #[test]
    fn removal_mutators_shed_mappings_by_either_endpoint() {
        let mut rho = CopyFunction::new(addr_sig());
        rho.insert_mapping(TupleId(0), TupleId(0), Eid(1), Eid(7));
        rho.insert_mapping(TupleId(1), TupleId(0), Eid(1), Eid(7));
        rho.insert_mapping(TupleId(2), TupleId(1), Eid(2), Eid(7));
        // By source: both targets of source 0 go in one pass.
        let dropped = rho.remove_source_mappings(TupleId(0));
        assert_eq!(
            dropped,
            vec![(TupleId(0), TupleId(0)), (TupleId(1), TupleId(0))]
        );
        assert_eq!(rho.len(), 1);
        // By target.
        assert_eq!(
            rho.remove_target_mapping(TupleId(2)),
            Some((TupleId(2), TupleId(1)))
        );
        assert!(rho.is_empty());
        assert!(rho.is_indexed());
        assert_eq!(rho.remove_target_mapping(TupleId(2)), None);
        assert!(rho.remove_source_mappings(TupleId(9)).is_empty());
    }

    #[test]
    fn obligations_for_region_enumerates_only_dirty_groups() {
        // Two independent groups: entities (1, 7) and (2, 8).
        let schema_t = RelationSchema::new("T", &["A"]);
        let mut tgt = TemporalInstance::new(RelId(0), &schema_t);
        let schema_s = RelationSchema::new("S", &["A"]);
        let mut src = TemporalInstance::new(RelId(1), &schema_s);
        let mut rho = CopyFunction::new(addr_sig());
        for (e, se) in [(1u64, 7u64), (2, 8)] {
            for v in 0..2i64 {
                let t = tgt
                    .push_tuple(Tuple::new(Eid(e), vec![Value::int(v)]))
                    .unwrap();
                let s = src
                    .push_tuple(Tuple::new(Eid(se), vec![Value::int(v)]))
                    .unwrap();
                rho.insert_mapping(t, s, Eid(e), Eid(se));
            }
        }
        let all = rho.compatibility_obligations(&tgt, &src);
        assert_eq!(all.len(), 4, "two obligations per group");
        // Region = target entity 1 only: just that group's obligations.
        let only_e1 =
            rho.obligations_for_region(&tgt, &src, &BTreeSet::from([Eid(1)]), &BTreeSet::new());
        assert_eq!(only_e1.len(), 2);
        assert!(only_e1.iter().all(|(_, te)| {
            tgt.tuple(te.lesser).eid == Eid(1) && tgt.tuple(te.greater).eid == Eid(1)
        }));
        // Same region addressed through the source side.
        let via_source =
            rho.obligations_for_region(&tgt, &src, &BTreeSet::new(), &BTreeSet::from([Eid(7)]));
        assert_eq!(only_e1, via_source);
        // Stale index falls back to the filtered scan with equal output.
        let mut stale = rho.clone();
        stale.set_mapping(TupleId(0), TupleId(0)); // no-op write, stales it
        assert!(!stale.is_indexed());
        assert_eq!(
            stale.obligations_for_region(&tgt, &src, &BTreeSet::from([Eid(1)]), &BTreeSet::new()),
            only_e1
        );
    }

    /// The streamed views list what the vector forms list, in the same
    /// order, with a fresh and with a stale index; a group links its
    /// cells exactly when it yields an obligation.
    #[test]
    fn copy_groups_stream_what_the_vectors_list() {
        let schema_t = RelationSchema::new("T", &["A"]);
        let mut tgt = TemporalInstance::new(RelId(0), &schema_t);
        let schema_s = RelationSchema::new("S", &["A"]);
        let mut src = TemporalInstance::new(RelId(1), &schema_s);
        let mut rho = CopyFunction::new(addr_sig());
        // (1 → 7): two mappings, distinct sources — links.  (1 → 8): one
        // mapping — no obligation.  (2 → 9): two mappings onto one
        // source tuple — no obligation.  (3 → 7): three mappings — links.
        let layout: [(u64, u64, &[i64]); 4] = [
            (1, 7, &[0, 1]),
            (1, 8, &[5]),
            (2, 9, &[4, 4]),
            (3, 7, &[2, 3, 6]),
        ];
        for (te, se, values) in layout {
            let mut last_source = None;
            for &v in values {
                let t = tgt
                    .push_tuple(Tuple::new(Eid(te), vec![Value::int(v)]))
                    .unwrap();
                let s = match last_source {
                    Some(s) if te == 2 => s,
                    _ => src
                        .push_tuple(Tuple::new(Eid(se), vec![Value::int(v)]))
                        .unwrap(),
                };
                last_source = Some(s);
                rho.insert_mapping(t, s, Eid(te), Eid(se));
            }
        }
        let mut stale = rho.clone();
        stale.set_mapping(TupleId(0), TupleId(0)); // no-op write, stales it
        for cf in [&rho, &stale] {
            let groups = cf.groups(&tgt, &src);
            let mut streamed = Vec::new();
            for te in tgt.entities() {
                groups.for_each_obligation_of_target(te, |s, t| streamed.push((s, t)));
            }
            assert_eq!(streamed, cf.compatibility_obligations(&tgt, &src));
            let mut linked = Vec::new();
            groups.for_each_linking_group(None, |te, se| linked.push((te, se)));
            assert_eq!(linked, [(Eid(1), Eid(7)), (Eid(3), Eid(7))]);
            // Region: target entity 2 and source entity 7.
            let mut region = Vec::new();
            groups.for_each_linking_group(Some((&[Eid(2)], &[Eid(7)])), |te, se| {
                region.push((te, se))
            });
            region.sort();
            region.dedup();
            assert_eq!(region, [(Eid(1), Eid(7)), (Eid(3), Eid(7))]);
        }
        // No correlated attribute: nothing links.
        let mut blind =
            CopyFunction::new(CopySignature::new(RelId(0), vec![], RelId(1), vec![]).unwrap());
        blind.insert_mapping(TupleId(0), TupleId(0), Eid(1), Eid(7));
        blind.insert_mapping(TupleId(1), TupleId(1), Eid(1), Eid(7));
        let mut linked = 0;
        blind
            .groups(&tgt, &src)
            .for_each_linking_group(None, |_, _| linked += 1);
        assert_eq!(linked, 0);
    }

    #[test]
    fn remap_tuples_translates_both_sides_and_drops_dead_endpoints() {
        let mut rho = CopyFunction::new(addr_sig());
        rho.insert_mapping(TupleId(0), TupleId(2), Eid(1), Eid(7));
        rho.insert_mapping(TupleId(3), TupleId(0), Eid(1), Eid(7));
        // A mapping whose target was tombstoned outside the delta cascade:
        // compaction must shed it, not panic.
        rho.insert_mapping(TupleId(1), TupleId(1), Eid(1), Eid(7));
        // Target slots 1–2 and source slot 1 were tombstones.
        let target_remap = vec![Some(TupleId(0)), None, None, Some(TupleId(1))];
        let source_remap = vec![Some(TupleId(0)), None, Some(TupleId(1))];
        rho.remap_tuples(&target_remap, &source_remap);
        assert!(rho.is_indexed(), "remap maintains a fresh index in place");
        let pairs: Vec<_> = rho.mappings().collect();
        assert_eq!(
            pairs,
            vec![(TupleId(0), TupleId(1)), (TupleId(1), TupleId(0))]
        );
    }

    #[test]
    fn remap_keeps_the_index_equivalent_to_a_rebuilt_one() {
        // Two groups; compaction shifts ids on both sides.  The in-place
        // translated index must behave exactly like a from-scratch
        // rebuild: same region lookups, same obligations.
        let schema_t = RelationSchema::new("T", &["A"]);
        let mut tgt = TemporalInstance::new(RelId(0), &schema_t);
        let schema_s = RelationSchema::new("S", &["A"]);
        let mut src = TemporalInstance::new(RelId(1), &schema_s);
        let mut rho = CopyFunction::new(addr_sig());
        for (e, se) in [(1u64, 7u64), (2, 8)] {
            for v in 0..2i64 {
                let t = tgt
                    .push_tuple(Tuple::new(Eid(e), vec![Value::int(v)]))
                    .unwrap();
                let s = src
                    .push_tuple(Tuple::new(Eid(se), vec![Value::int(v)]))
                    .unwrap();
                rho.insert_mapping(t, s, Eid(e), Eid(se));
            }
        }
        // Tombstone and compact target slot 1 and source slot 2; the
        // removal cascade sheds their mappings first (as the delta layer
        // would).
        rho.remove_target_mapping(TupleId(1));
        rho.remove_source_mappings(TupleId(2));
        tgt.remove_tuple(TupleId(1)).unwrap();
        tgt.remove_tuple(TupleId(2)).unwrap(); // its mapping went with s2
        src.remove_tuple(TupleId(2)).unwrap();
        let (_, t_remap) = tgt.compact();
        let (_, s_remap) = src.compact();
        rho.remap_tuples(&t_remap, &s_remap);
        assert!(rho.is_indexed());
        let mut rebuilt = rho.clone();
        rebuilt.rebuild_index(&tgt, &src);
        for e in [1u64, 2, 9] {
            assert_eq!(
                rho.obligations_for_region(&tgt, &src, &BTreeSet::from([Eid(e)]), &BTreeSet::new()),
                rebuilt.obligations_for_region(
                    &tgt,
                    &src,
                    &BTreeSet::from([Eid(e)]),
                    &BTreeSet::new()
                ),
                "region lookup for entity {e}"
            );
        }
        for se in [7u64, 8] {
            assert_eq!(
                rho.obligations_for_region(
                    &tgt,
                    &src,
                    &BTreeSet::new(),
                    &BTreeSet::from([Eid(se)])
                ),
                rebuilt.obligations_for_region(
                    &tgt,
                    &src,
                    &BTreeSet::new(),
                    &BTreeSet::from([Eid(se)])
                ),
                "region lookup for source entity {se}"
            );
        }
        assert_eq!(
            rho.compatibility_obligations(&tgt, &src),
            rebuilt.compatibility_obligations(&tgt, &src)
        );
        // A stale index stays stale through a remap (caller rebuilds).
        let mut stale = rebuilt.clone();
        stale.set_mapping(TupleId(0), TupleId(0));
        stale.remap_tuples(&[Some(TupleId(0))], &[]);
        assert!(!stale.is_indexed());
    }
}
