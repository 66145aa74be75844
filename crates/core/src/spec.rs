//! Specifications: the top-level bundle of the data-currency model.

use crate::copy::CopyFunction;
use crate::cow::Paged;
use crate::denial::DenialConstraint;
use crate::error::CurrencyError;
use crate::schema::{AttrId, Catalog, RelId};
use crate::temporal::TemporalInstance;
use crate::value::TupleId;

/// What [`Specification::compact`] reclaimed, and how to translate
/// externally held tuple ids onto the compacted id space.
///
/// This is the output of the reference sweep that the step path
/// ([`CompactStepReport`]) is differentially tested against; equality
/// compares the full translation tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// Total tombstone slots reclaimed across all instances.
    pub reclaimed: usize,
    /// Per-relation translation tables, indexed by [`RelId`]: entry `i`
    /// of table `r` is the new id of relation `r`'s old tuple `i`
    /// (`None` — the slot was a tombstone and is gone).  An **empty**
    /// table means the relation had no tombstones and its ids are
    /// unchanged (identity) — the tombstone-free fast path allocates no
    /// tables at all.
    pub remap: Vec<Vec<Option<TupleId>>>,
}

impl CompactReport {
    /// Translate an old tuple id (`None` if the tuple had been removed;
    /// an empty/absent table is the identity).
    pub fn new_id(&self, rel: RelId, old: TupleId) -> Option<TupleId> {
        match self.remap.get(rel.index()) {
            None => Some(old),
            Some(table) if table.is_empty() => Some(old),
            Some(table) => table.get(old.index()).copied().flatten(),
        }
    }
}

/// One bounded slice of an incremental compaction sweep over a single
/// relation (see [`Specification::compact_slice`]).
///
/// A sweep bubbles one contiguous dead block upward through the slot
/// vector: the slice scanned slots `[start, end)`, moved the live
/// tuples it found down onto `[write, …)`, and left the (grown) dead
/// block behind — or truncated it, if the scan reached the end of the
/// vector.  Slices are *logged and replayed verbatim* by the durability
/// layer, so equality compares every field including the translation
/// table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactSlice {
    /// The relation the slice ran over.
    pub rel: RelId,
    /// First slot of the write region: scanned live tuples moved down
    /// onto `[write, …)`.
    pub write: u32,
    /// First slot scanned (`[write, start)` is the dead block bubbled up
    /// by earlier slices of the same sweep).
    pub start: u32,
    /// One past the last slot scanned (`end - start` bounds the slice's
    /// work).
    pub end: u32,
    /// Translation table for slots `[write, write + remap.len())` —
    /// always exactly `end - write` entries: `Some(new)` for live tuples
    /// the slice moved, `None` for dead slots.  Ids below `write` or at
    /// `end` and beyond are untouched by this slice.
    pub remap: Vec<Option<TupleId>>,
    /// Slots reclaimed (truncated off the slot vector) by this slice —
    /// nonzero only for a slice whose scan reached the end.
    pub reclaimed: u32,
}

impl CompactSlice {
    /// Translate a tuple id of [`CompactSlice::rel`] through this slice
    /// (`None` — the slot was dead and its id is gone).
    pub fn new_id(&self, old: TupleId) -> Option<TupleId> {
        let i = old.index();
        let w = self.write as usize;
        if i < w || i >= w + self.remap.len() {
            Some(old)
        } else {
            self.remap[i - w]
        }
    }
}

/// The outcome of one bounded compaction step: the slices it executed,
/// in order, plus composed totals.  Produced by
/// `CurrencyEngine::compact_step` (and the auto-step policy); the
/// durability layer logs one report per step and re-executes the slices
/// on recovery.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactStepReport {
    /// Total tombstone slots reclaimed by this step's slices.
    pub reclaimed: usize,
    /// The slices executed, in execution order.  Their translation
    /// tables compose left to right — [`CompactStepReport::new_id`]
    /// folds them for external id holders.
    pub slices: Vec<CompactSlice>,
    /// `true` when no tombstones remain anywhere in the specification
    /// after this step (the incremental sweep has fully drained).
    pub done: bool,
}

impl CompactStepReport {
    /// Translate an old tuple id through every slice of the step, in
    /// order (`None` — the tuple's slot was reclaimed).  Reports from
    /// consecutive steps compose the same way: feed each step's result
    /// into the next.
    pub fn new_id(&self, rel: RelId, old: TupleId) -> Option<TupleId> {
        let mut id = old;
        for slice in self.slices.iter().filter(|s| s.rel == rel) {
            id = slice.new_id(id)?;
        }
        Some(id)
    }

    /// Fold another step's outcome into this one (slices concatenate in
    /// execution order, totals add, `done` takes the later verdict).
    pub fn absorb(&mut self, other: CompactStepReport) {
        self.reclaimed += other.reclaimed;
        self.slices.extend(other.slices);
        self.done = other.done;
    }
}

/// A specification `S` of data currency (paper §2): one temporal instance
/// per relation of the catalog, a set of denial constraints, and a set of
/// copy functions between the instances.
///
/// The semantics of `S` is its set of consistent completions `Mod(S)` —
/// see [`crate::Completion`] and the solvers in `currency-reason`.  `S` is
/// *consistent* iff `Mod(S) ≠ ∅`; deciding that is the paper's CPS problem
/// (Σᵖ₂-complete in general).
///
/// Cloning is cheap: the instances and copy functions keep their bulk
/// in paged copy-on-write containers ([`crate::cow`]), so a clone
/// copies the catalog, the constraints and one pointer per chunk of
/// pages, and shares every chunk and page until one side writes it.
#[derive(Clone, Debug)]
pub struct Specification {
    catalog: Catalog,
    instances: Vec<TemporalInstance>,
    constraints: Vec<DenialConstraint>,
    copies: Vec<CopyFunction>,
}

impl Specification {
    /// Create a specification with one empty temporal instance per
    /// relation of the catalog.
    pub fn new(catalog: Catalog) -> Specification {
        let instances = catalog
            .iter()
            .map(|(rel, schema)| TemporalInstance::new(rel, schema))
            .collect();
        Specification {
            catalog,
            instances,
            constraints: Vec::new(),
            copies: Vec::new(),
        }
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Resolve a relation name.
    pub fn rel(&self, name: &str) -> Result<RelId, CurrencyError> {
        self.catalog
            .rel(name)
            .ok_or_else(|| CurrencyError::UnknownRelation {
                relation: name.to_string(),
            })
    }

    /// Resolve an attribute name within a relation.
    pub fn attr(&self, rel: RelId, name: &str) -> Result<AttrId, CurrencyError> {
        self.catalog.schema(rel).attr_checked(name)
    }

    /// The temporal instance of a relation.
    pub fn instance(&self, rel: RelId) -> &TemporalInstance {
        &self.instances[rel.index()]
    }

    /// Mutable access to a relation's temporal instance (to add tuples and
    /// initial currency orders).
    pub fn instance_mut(&mut self, rel: RelId) -> &mut TemporalInstance {
        &mut self.instances[rel.index()]
    }

    /// All temporal instances, indexed by relation.
    pub fn instances(&self) -> &[TemporalInstance] {
        &self.instances
    }

    /// Add a denial constraint after validating its attribute references.
    pub fn add_constraint(&mut self, dc: DenialConstraint) -> Result<(), CurrencyError> {
        self.check_constraint_schema(&dc)?;
        self.constraints.push(dc);
        Ok(())
    }

    /// Schema admissibility of a denial constraint: relation registered,
    /// attribute indices within its arity.  Shared between
    /// [`Specification::add_constraint`] and delta validation so the two
    /// can never drift.
    pub(crate) fn check_constraint_schema(
        &self,
        dc: &DenialConstraint,
    ) -> Result<(), CurrencyError> {
        let rel = dc.rel();
        if rel.index() >= self.catalog.len() {
            return Err(CurrencyError::UnknownRelation {
                relation: format!("{rel:?}"),
            });
        }
        let arity = self.catalog.schema(rel).arity();
        if dc.max_attr_index() >= arity {
            return Err(CurrencyError::AttrOutOfRange {
                rel,
                attr: AttrId(dc.max_attr_index() as u32),
            });
        }
        Ok(())
    }

    /// All denial constraints.
    pub fn constraints(&self) -> &[DenialConstraint] {
        &self.constraints
    }

    /// Denial constraints over a particular relation.
    pub fn constraints_for(&self, rel: RelId) -> impl Iterator<Item = &DenialConstraint> {
        self.constraints.iter().filter(move |c| c.rel() == rel)
    }

    /// `true` if the specification carries no denial constraints — the
    /// tractable regime of paper §6.
    pub fn has_no_constraints(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Add a copy function after validating its signature and copying
    /// condition.  Returns the copy function's index.
    ///
    /// The copy's entity-keyed mapping index is (re)built here, so copies
    /// attached to a specification always start with a fresh index no
    /// matter how they were assembled.
    pub fn add_copy(&mut self, mut cf: CopyFunction) -> Result<usize, CurrencyError> {
        self.check_copy_schema(cf.signature())?;
        let (target, source) = (cf.signature().target, cf.signature().source);
        let idx = self.copies.len();
        cf.validate(idx, self.instance(target), self.instance(source))?;
        cf.rebuild_index(self.instance(target), self.instance(source));
        self.copies.push(cf);
        Ok(idx)
    }

    /// Schema admissibility of a copy signature: both relations
    /// registered, correlated attributes within their arities.  Shared
    /// between [`Specification::add_copy`] and delta validation so the
    /// two can never drift (the copying condition itself is checked
    /// separately — against live instances here, against the delta
    /// simulation there).
    pub(crate) fn check_copy_schema(
        &self,
        sig: &crate::copy::CopySignature,
    ) -> Result<(), CurrencyError> {
        for (rel, attrs) in [
            (sig.target, &sig.target_attrs),
            (sig.source, &sig.source_attrs),
        ] {
            if rel.index() >= self.catalog.len() {
                return Err(CurrencyError::UnknownRelation {
                    relation: format!("{rel:?}"),
                });
            }
            let arity = self.catalog.schema(rel).arity();
            if let Some(&a) = attrs.iter().find(|a| a.index() >= arity) {
                return Err(CurrencyError::AttrOutOfRange { rel, attr: a });
            }
        }
        Ok(())
    }

    /// All copy functions.
    pub fn copies(&self) -> &[CopyFunction] {
        &self.copies
    }

    /// Mutable access to a copy function (used when *extending* copy
    /// functions, paper §4).  [`Specification::validate`] re-checks the
    /// copying condition afterwards.
    pub fn copy_mut(&mut self, idx: usize) -> &mut CopyFunction {
        &mut self.copies[idx]
    }

    /// Total number of mappings across all copy functions (`|ρ̄|`, the size
    /// measure of the paper's bounded-copying problem BCP).
    pub fn total_copy_size(&self) -> usize {
        self.copies.iter().map(|c| c.len()).sum()
    }

    /// Reclaim every tombstone slot across all instances, remapping the
    /// surviving tuple ids densely and rewriting everything that holds
    /// ids — entity groups, initial currency orders, and copy-function
    /// mappings (whose entity-keyed indexes are rebuilt).
    ///
    /// Long-lived specifications under insert/retract churn grow one dead
    /// slot per removal ([`TemporalInstance::remove_tuple`] tombstones to
    /// keep ids stable); compaction is the explicit point where that
    /// memory is handed back.  **Every externally held [`TupleId`] is
    /// invalidated** — translate through the returned
    /// [`CompactReport::remap`] tables.  Cached reasoning state built
    /// over the old ids (compiled encodings, partitions) must be
    /// rebuilt.  The engines compact through the slice executor
    /// ([`Specification::compact_slice`]) instead; this sweep is the
    /// independent reference their drains must match byte for byte.
    pub fn compact(&mut self) -> CompactReport {
        let mut report = CompactReport {
            reclaimed: 0,
            remap: Vec::with_capacity(self.instances.len()),
        };
        for inst in &mut self.instances {
            let (reclaimed, remap) = inst.compact();
            report.reclaimed += reclaimed;
            report.remap.push(remap);
        }
        if report.reclaimed > 0 {
            let Specification {
                instances, copies, ..
            } = self;
            for cf in copies.iter_mut() {
                let (target, source) = (cf.signature().target, cf.signature().source);
                let (t_remap, s_remap) = (
                    report.remap[target.index()].as_slice(),
                    report.remap[source.index()].as_slice(),
                );
                if t_remap.is_empty() && s_remap.is_empty() {
                    continue; // both relations untouched: mapping ids stand
                }
                // `remap_tuples` keeps a fresh index fresh (entities are
                // untouched by compaction); only a copy that was already
                // stale pays the instance-walking rebuild.
                cf.remap_tuples(t_remap, s_remap);
                if !cf.is_indexed() {
                    cf.rebuild_index(&instances[target.index()], &instances[source.index()]);
                }
            }
        }
        debug_assert!(self.validate().is_ok(), "compaction preserves invariants");
        report
    }

    /// Total tombstoned slots across all instances (what a full
    /// compaction sweep would reclaim).
    pub fn total_tombstones(&self) -> usize {
        self.instances.iter().map(|i| i.tombstones()).sum()
    }

    /// Execute the next canonical slice of an incremental compaction
    /// sweep, scanning at most `max_scan` slots: the bounded counterpart
    /// of [`Specification::compact`], costing O(scan + moved region)
    /// instead of O(specification).  Returns `None` when there is
    /// nothing left to reclaim.
    ///
    /// Relations drain lowest [`RelId`] first.  Between slices the
    /// specification is a *valid* specification over a dense-enough id
    /// space — entity groups, order pairs and copy mappings are
    /// rewritten in lockstep for exactly the moved tuples — so deltas
    /// and queries interleave freely with slices.  Once every slice has
    /// run (`slices` drain to `None`), the specification is
    /// byte-identical to what one [`Specification::compact`] call would
    /// have produced; `compact` stays the reference implementation the
    /// incremental path is differentially tested against.
    ///
    /// **The moved ids invalidate external holders** exactly like a
    /// monolithic compaction — translate through the returned slice's
    /// table ([`CompactSlice::new_id`], or fold a whole step with
    /// [`CompactStepReport::new_id`]).
    pub fn compact_slice(&mut self, max_scan: usize) -> Option<CompactSlice> {
        let inst = self.instances.iter().find(|i| i.tombstones() > 0)?;
        let rel = inst.rel();
        let (write, start, end) = inst.compact_step_bounds(max_scan)?;
        Some(
            self.compact_slice_at(rel, write, start, end)
                .expect("canonical bounds describe a valid slice"),
        )
    }

    /// Execute one compaction slice with explicit bounds — the replay
    /// path for slices logged by the durability layer.  Validates that
    /// the bounds describe a real sweep state of `rel`'s instance
    /// ([`CurrencyError::InvalidCompactSlice`] otherwise), so replaying
    /// against a diverged specification fails cleanly.
    pub fn compact_slice_at(
        &mut self,
        rel: RelId,
        write: u32,
        start: u32,
        end: u32,
    ) -> Result<CompactSlice, CurrencyError> {
        if rel.index() >= self.instances.len() {
            return Err(CurrencyError::InvalidCompactSlice {
                rel,
                write,
                start,
                end,
                slots: 0,
            });
        }
        let outcome = self.instances[rel.index()].compact_slice_at(write, start, end)?;
        if !outcome.moved.is_empty() || !outcome.dead.is_empty() {
            let moved_map: std::collections::BTreeMap<TupleId, TupleId> = outcome
                .moved
                .iter()
                .map(|&(old, new, _)| (old, new))
                .collect();
            for cf in &mut self.copies {
                cf.remap_slice(rel, &moved_map, &outcome.dead);
            }
        }
        debug_assert!(self.validate().is_ok(), "slices preserve invariants");
        Ok(CompactSlice {
            rel,
            write,
            start,
            end,
            remap: outcome.remap,
            reclaimed: outcome.reclaimed as u32,
        })
    }

    /// Re-check every global invariant: instance orders acyclic and
    /// entity-local, constraints within schema, copying conditions hold.
    pub fn validate(&self) -> Result<(), CurrencyError> {
        for inst in &self.instances {
            inst.validate()?;
        }
        for dc in &self.constraints {
            let arity = self.catalog.schema(dc.rel()).arity();
            if dc.max_attr_index() >= arity {
                return Err(CurrencyError::AttrOutOfRange {
                    rel: dc.rel(),
                    attr: AttrId(dc.max_attr_index() as u32),
                });
            }
        }
        for (i, cf) in self.copies.iter().enumerate() {
            let sig = cf.signature();
            cf.validate(i, self.instance(sig.target), self.instance(sig.source))?;
        }
        Ok(())
    }
}

impl Paged for Specification {
    fn for_each_page(&self, visit: &mut dyn FnMut(*const ())) {
        for inst in &self.instances {
            inst.for_each_page(visit);
        }
        for cf in &self.copies {
            cf.for_each_page(visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copy::CopySignature;
    use crate::denial::{CmpOp, DenialConstraint, Term};
    use crate::instance::Tuple;
    use crate::schema::RelationSchema;
    use crate::value::{Eid, Value};

    fn two_rel_spec() -> (Specification, RelId, RelId) {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A", "B"]));
        let s = cat.add(RelationSchema::new("S", &["X"]));
        (Specification::new(cat), r, s)
    }

    #[test]
    fn new_spec_has_empty_instances() {
        let (spec, r, s) = two_rel_spec();
        assert!(spec.instance(r).is_empty());
        assert!(spec.instance(s).is_empty());
        assert!(spec.has_no_constraints());
        assert_eq!(spec.total_copy_size(), 0);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn name_resolution() {
        let (spec, r, _) = two_rel_spec();
        assert_eq!(spec.rel("R").unwrap(), r);
        assert!(spec.rel("Q").is_err());
        assert_eq!(spec.attr(r, "B").unwrap(), AttrId(1));
        assert!(spec.attr(r, "Z").is_err());
    }

    #[test]
    fn constraint_attribute_ranges_checked() {
        let (mut spec, r, _) = two_rel_spec();
        let ok = DenialConstraint::builder(r, 2)
            .when_cmp(
                Term::attr(0, AttrId(1)),
                CmpOp::Gt,
                Term::attr(1, AttrId(1)),
            )
            .then_order(1, AttrId(1), 0)
            .build()
            .unwrap();
        assert!(spec.add_constraint(ok).is_ok());
        let bad = DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, AttrId(9)), CmpOp::Eq, Term::val(1))
            .then_order(0, AttrId(0), 1)
            .build()
            .unwrap();
        assert!(matches!(
            spec.add_constraint(bad),
            Err(CurrencyError::AttrOutOfRange { .. })
        ));
        assert_eq!(spec.constraints().len(), 1);
        assert_eq!(spec.constraints_for(r).count(), 1);
    }

    #[test]
    fn copy_function_validated_on_add() {
        let (mut spec, r, s) = two_rel_spec();
        let tr = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1), Value::int(2)]))
            .unwrap();
        let ts = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1)]))
            .unwrap();
        let sig = CopySignature::new(r, vec![AttrId(0)], s, vec![AttrId(0)]).unwrap();
        let mut cf = CopyFunction::new(sig.clone());
        cf.set_mapping(tr, ts);
        assert!(spec.add_copy(cf).is_ok());
        // Value-mismatched mapping is rejected.
        let mut bad =
            CopyFunction::new(CopySignature::new(r, vec![AttrId(1)], s, vec![AttrId(0)]).unwrap());
        bad.set_mapping(tr, ts); // 2 ≠ 1
        assert!(matches!(
            spec.add_copy(bad),
            Err(CurrencyError::CopyValueMismatch { .. })
        ));
        assert_eq!(spec.copies().len(), 1);
        assert_eq!(spec.total_copy_size(), 1);
    }

    #[test]
    fn compact_remaps_copy_mappings_and_reports_tables() {
        let (mut spec, r, s) = two_rel_spec();
        let pad = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(5), vec![Value::int(9), Value::int(9)]))
            .unwrap();
        let tr = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1), Value::int(2)]))
            .unwrap();
        let dead_s = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(9), vec![Value::int(7)]))
            .unwrap();
        let ts = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1)]))
            .unwrap();
        let sig = CopySignature::new(r, vec![AttrId(0)], s, vec![AttrId(0)]).unwrap();
        let mut cf = CopyFunction::new(sig);
        cf.set_mapping(tr, ts);
        spec.add_copy(cf).unwrap();
        assert!(spec.copies()[0].is_indexed(), "add_copy builds the index");
        // Tombstone one tuple on each side of the copy's relations.
        spec.instance_mut(r).remove_tuple(pad).unwrap();
        spec.instance_mut(s).remove_tuple(dead_s).unwrap();
        let report = spec.compact();
        assert_eq!(report.reclaimed, 2);
        assert_eq!(report.new_id(r, tr), Some(TupleId(0)));
        assert_eq!(report.new_id(r, pad), None);
        assert_eq!(report.new_id(s, ts), Some(TupleId(0)));
        // The mapping followed both remaps and the index is fresh again.
        assert_eq!(spec.copies()[0].mapping(TupleId(0)), Some(TupleId(0)));
        assert!(spec.copies()[0].is_indexed());
        assert!(spec.validate().is_ok());
        // No tombstones left: compact is now a pure no-op.
        assert_eq!(spec.compact().reclaimed, 0);
    }

    #[test]
    fn compact_sheds_mappings_orphaned_by_direct_removal() {
        // `remove_tuple` documents that cascading copy mappings is the
        // caller's concern; a caller who skips the cascade must get a
        // clean compaction (mapping dropped), not a panic.
        let (mut spec, r, s) = two_rel_spec();
        let tr = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1), Value::int(2)]))
            .unwrap();
        let ts = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1)]))
            .unwrap();
        let sig = CopySignature::new(r, vec![AttrId(0)], s, vec![AttrId(0)]).unwrap();
        let mut cf = CopyFunction::new(sig);
        cf.set_mapping(tr, ts);
        spec.add_copy(cf).unwrap();
        spec.instance_mut(s).remove_tuple(ts).unwrap(); // no cascade
        let report = spec.compact();
        assert_eq!(report.reclaimed, 1);
        assert!(spec.copies()[0].is_empty(), "orphaned mapping shed");
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn compact_keeps_live_indexes_live_and_rebuilds_stale_ones() {
        // Regression (PR 5): compaction used to stale every copy's
        // entity-keyed index and pay a full rebuild; now a fresh index is
        // translated in place and must still answer region queries
        // exactly like a from-scratch rebuild.
        let (mut spec, r, s) = two_rel_spec();
        let mut ids = Vec::new();
        for v in 0..3i64 {
            let tr = spec
                .instance_mut(r)
                .push_tuple(Tuple::new(Eid(1), vec![Value::int(v), Value::int(v)]))
                .unwrap();
            let ts = spec
                .instance_mut(s)
                .push_tuple(Tuple::new(Eid(7), vec![Value::int(v)]))
                .unwrap();
            ids.push((tr, ts));
        }
        let sig = CopySignature::new(r, vec![AttrId(0)], s, vec![AttrId(0)]).unwrap();
        let mut cf = CopyFunction::new(sig);
        for &(tr, ts) in &ids {
            cf.set_mapping(tr, ts);
        }
        spec.add_copy(cf).unwrap();
        // Stale the index (fresh state), then make one copy stale and one
        // fresh across two compactions to cover both paths.
        spec.instance_mut(r).remove_tuple(ids[0].0).unwrap();
        spec.copy_mut(0).remove_target_mapping(ids[0].0);
        assert!(spec.copies()[0].is_indexed());
        spec.compact();
        assert!(
            spec.copies()[0].is_indexed(),
            "fresh index survives compaction in place"
        );
        let mut rebuilt = spec.copies()[0].clone();
        rebuilt.rebuild_index(spec.instance(r), spec.instance(s));
        assert_eq!(
            spec.copies()[0].obligations_for_region(
                spec.instance(r),
                spec.instance(s),
                &std::collections::BTreeSet::from([Eid(1)]),
                &std::collections::BTreeSet::new(),
            ),
            rebuilt.obligations_for_region(
                spec.instance(r),
                spec.instance(s),
                &std::collections::BTreeSet::from([Eid(1)]),
                &std::collections::BTreeSet::new(),
            ),
            "in-place translated index answers like a rebuilt one"
        );
        assert!(spec.validate().is_ok());
        // Stale path: an entity-blind mutation (re-writing an existing
        // pair) stales the index; the next compaction falls back to the
        // rebuild and re-freshens it.
        let ts = spec.copies()[0].mapping(TupleId(0)).unwrap();
        spec.copy_mut(0).set_mapping(TupleId(0), ts);
        assert!(!spec.copies()[0].is_indexed());
        spec.copy_mut(0).remove_target_mapping(TupleId(1));
        spec.instance_mut(s).remove_tuple(TupleId(2)).unwrap();
        spec.compact();
        assert!(
            spec.copies()[0].is_indexed(),
            "stale index rebuilt by compaction"
        );
        assert!(spec.validate().is_ok());
    }

    /// A two-relation spec with a copy function, mirrored churn
    /// tombstones on both sides, and a few order pairs — the fixture the
    /// incremental-compaction differentials run over.
    fn churned_copy_spec() -> (Specification, RelId, RelId) {
        let (mut spec, r, s) = two_rel_spec();
        let mut pairs = Vec::new();
        for v in 0..10i64 {
            let tr = spec
                .instance_mut(r)
                .push_tuple(Tuple::new(
                    Eid(1 + (v as u64 % 3)),
                    vec![Value::int(v), Value::int(v)],
                ))
                .unwrap();
            let ts = spec
                .instance_mut(s)
                .push_tuple(Tuple::new(Eid(20 + (v as u64 % 3)), vec![Value::int(v)]))
                .unwrap();
            pairs.push((tr, ts));
        }
        spec.instance_mut(r)
            .add_order(AttrId(0), pairs[0].0, pairs[3].0)
            .unwrap();
        spec.instance_mut(r)
            .add_order(AttrId(1), pairs[6].0, pairs[9].0)
            .unwrap();
        spec.instance_mut(s)
            .add_order(AttrId(0), pairs[2].1, pairs[8].1)
            .unwrap();
        let sig = CopySignature::new(r, vec![AttrId(0)], s, vec![AttrId(0)]).unwrap();
        let mut cf = CopyFunction::new(sig);
        for &(tr, ts) in &pairs {
            cf.set_mapping(tr, ts);
        }
        spec.add_copy(cf).unwrap();
        // Tombstone a scattered subset on both relations, cascading the
        // copy mappings like the delta layer would.
        for &i in &[1usize, 4, 5, 7] {
            let (tr, ts) = pairs[i];
            spec.copy_mut(0).remove_target_mapping(tr);
            spec.instance_mut(r).remove_tuple(tr).unwrap();
            spec.instance_mut(s).remove_tuple(ts).unwrap();
        }
        (spec, r, s)
    }

    #[test]
    fn sliced_compaction_is_byte_identical_to_monolithic() {
        for quantum in [1usize, 2, 3, 7, 64] {
            let (mut spec, _, _) = churned_copy_spec();
            let mut reference = spec.clone();
            let ref_report = reference.compact();

            let mut step = CompactStepReport::default();
            while let Some(slice) = spec.compact_slice(quantum) {
                step.reclaimed += slice.reclaimed as usize;
                step.slices.push(slice);
                assert!(spec.validate().is_ok(), "valid between slices");
                assert!(step.slices.len() < 200, "sweep terminates");
            }
            step.done = spec.total_tombstones() == 0;
            assert!(step.done);
            assert_eq!(step.reclaimed, ref_report.reclaimed, "quantum {quantum}");
            assert_eq!(
                crate::wire::encode_spec(&spec),
                crate::wire::encode_spec(&reference),
                "drained spec byte-identical to compact(), quantum {quantum}"
            );
            // The composed slice tables agree with the monolithic
            // translation on every old id of both relations.
            for rel in [RelId(0), RelId(1)] {
                for old in 0..10u32 {
                    assert_eq!(
                        step.new_id(rel, TupleId(old)),
                        ref_report.new_id(rel, TupleId(old)),
                        "rel {rel:?} id {old} quantum {quantum}"
                    );
                }
            }
        }
    }

    #[test]
    fn logged_slices_replay_to_the_same_state() {
        // Re-executing a sweep's logged bounds via compact_slice_at must
        // reproduce the slices (and the state) exactly — the durability
        // layer's recovery contract.
        let (mut spec, _, _) = churned_copy_spec();
        let mut replayed = spec.clone();
        let mut log = Vec::new();
        while let Some(slice) = spec.compact_slice(3) {
            log.push(slice);
        }
        for slice in &log {
            let got = replayed
                .compact_slice_at(slice.rel, slice.write, slice.start, slice.end)
                .unwrap();
            assert_eq!(&got, slice, "replayed slice identical");
        }
        assert_eq!(
            crate::wire::encode_spec(&spec),
            crate::wire::encode_spec(&replayed)
        );
    }

    #[test]
    fn slices_shed_orphaned_mappings_like_compact() {
        let (mut spec, r, s) = two_rel_spec();
        let tr = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1), Value::int(2)]))
            .unwrap();
        let ts = spec
            .instance_mut(s)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1)]))
            .unwrap();
        let sig = CopySignature::new(r, vec![AttrId(0)], s, vec![AttrId(0)]).unwrap();
        let mut cf = CopyFunction::new(sig);
        cf.set_mapping(tr, ts);
        spec.add_copy(cf).unwrap();
        spec.instance_mut(s).remove_tuple(ts).unwrap(); // no cascade
        while spec.compact_slice(4).is_some() {}
        assert!(spec.copies()[0].is_empty(), "orphaned mapping shed");
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn slice_replay_against_diverged_spec_fails_cleanly() {
        let (mut spec, _, _) = churned_copy_spec();
        let slice = spec.clone().compact_slice(4).unwrap();
        // Diverge: reclaim everything first, then replay the stale slice.
        spec.compact();
        assert!(matches!(
            spec.compact_slice_at(slice.rel, slice.write, slice.start, slice.end),
            Err(CurrencyError::InvalidCompactSlice { .. })
        ));
        // Unknown relation is rejected, not a panic.
        assert!(spec.compact_slice_at(RelId(99), 0, 0, 0).is_err());
    }

    #[test]
    fn validate_catches_late_order_cycles() {
        let (mut spec, r, _) = two_rel_spec();
        let t0 = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(0), Value::int(0)]))
            .unwrap();
        let t1 = spec
            .instance_mut(r)
            .push_tuple(Tuple::new(Eid(1), vec![Value::int(1), Value::int(1)]))
            .unwrap();
        spec.instance_mut(r).add_order(AttrId(0), t0, t1).unwrap();
        spec.instance_mut(r).add_order(AttrId(0), t1, t0).unwrap();
        assert!(matches!(
            spec.validate(),
            Err(CurrencyError::CyclicOrder { .. })
        ));
    }
}
