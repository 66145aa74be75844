//! Entity-sharded scale-out: N independent engines behind one front door.
//!
//! The partition module proves the load-bearing fact this module builds
//! on: **ground rules are entity-local** — a denial constraint grounded
//! for entity `e` mentions only `e`'s tuples — so the only edges relating
//! different entities are copy obligations.  Cut the entity set along
//! copy-closure boundaries and a specification falls apart into fully
//! independent sub-specifications: same components, same verdicts, no
//! shared state.  That is exactly what a shard is here.
//!
//! ## Routing policy
//!
//! * **Assignment** ([`ShardPlan::from_spec`]): union-find over entity
//!   ids with copy mappings as edges, representative = the *minimum* id
//!   of each closure (insertion-order independent), shard =
//!   `splitmix64(representative) mod N`.  Copy-linked entities are
//!   therefore co-located by construction.  Entities sharing an id
//!   across relations are co-located too (routing is by [`Eid`], not by
//!   `(relation, entity)` cell) — coarser than strictly necessary, never
//!   wrong.
//! * **Placement beats hashing**: once an entity has tuples in a shard,
//!   it routes there ([`ShardPlan::shard_of`]); only entities the plan
//!   has never seen route by hash.  After recovery the plan is re-derived
//!   from shard contents ([`ShardPlan::from_shards`]), so live and
//!   recovered routing agree for every entity that still has live tuples.
//! * **Delta routing** ([`localize`], policy `reject`): a delta whose
//!   entity anchors ([`SpecDelta::routing`]) span more than one shard is
//!   **rejected** with [`ShardError::CrossShard`] — split the batch and
//!   resubmit.  Structure-only deltas (constraints, new copy functions)
//!   are broadcast to every shard: constraints ground entity-locally, and
//!   a new copy function's mappings are filtered per shard.  A copy
//!   mapping whose endpoints live in different shards is rejected with
//!   [`ShardError::CrossShardCopy`] — co-location is decided at
//!   assignment time and new cross-shard links are not re-homed.
//!
//! ## Global tuple ids
//!
//! Shard-local tuple ids are interleaved into one global id space:
//! `global = local · N + shard` ([`global_id`] / [`locate`]).  Global ids
//! are thus a *pure function of shard-local state* — after a crash,
//! recovery reproduces them exactly without persisting any translation
//! table.  Compaction renumbers shard-local ids exactly like the
//! unsharded engine renumbers its ids;
//! [`ShardedCompactStepReport::new_id`] translates, and only the
//! compacted shard's ids move.
//!
//! ## Scatter-gather queries
//!
//! CPS is the all-shards conjunction with early exit on the first unsat
//! shard ([`scatter_cps`]).  COP routes each pair to the shard owning
//! both tuples (pairs spanning shards relate different entities, which
//! are never certainly ordered).  Certain answers / CCQA are the union
//! across shards: with independent shards, a row is certain in the whole
//! specification iff it is certain in some shard — exact for every query
//! whose individual answers are witnessed inside one shard (in
//! particular all single-atom queries, the entity-local class the
//! differential suite sweeps); queries joining *across* copy-closures
//! would additionally need cross-shard products and are out of scope.
//! The paper's vacuous-truth conventions are preserved globally: one
//! unsat shard makes the whole specification inconsistent, so COP/DCIP
//! answer `true` and certain answers report
//! [`CertainAnswers::Inconsistent`].

use crate::ccqa::CertainAnswers;
use crate::cop::CurrencyOrderQuery;
use crate::engine::{ApplyReport, CurrencyEngine, EngineStats};
use crate::error::ReasonError;
use crate::obs::EngineObs;
use crate::{CompactBudget, Options};
use currency_core::{
    AttrId, CompactStepReport, CurrencyError, DeltaOp, DeltaRouting, Eid, RelId, SpecDelta,
    Specification, TupleId, Value,
};
use currency_obs::MetricsSnapshot;
use currency_query::Query;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// SplitMix64 finalizer: the entity → shard hash.  Fixed for all time —
/// it is part of the on-disk placement contract of sharded stores.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The global id of shard `shard`'s local tuple `local` under `shards`
/// shards (interleaved: `local · N + shard`).
pub fn global_id(shards: usize, shard: usize, local: TupleId) -> TupleId {
    TupleId(local.0 * shards as u32 + shard as u32)
}

/// Inverse of [`global_id`]: which shard owns `global`, and under which
/// local id.
pub fn locate(shards: usize, global: TupleId) -> (usize, TupleId) {
    (
        (global.0 as usize) % shards,
        TupleId(global.0 / shards as u32),
    )
}

/// A failure of the sharded layer (routing or a shard engine).
#[derive(Debug)]
pub enum ShardError {
    /// A delta's entity anchors span more than one shard.  Policy:
    /// rejected, never re-homed — split the batch and resubmit.
    CrossShard {
        /// The shards the anchors resolve to (at least two).
        shards: BTreeSet<usize>,
    },
    /// A new copy mapping links entities placed in different shards.
    /// Co-location is decided at assignment time; later links must stay
    /// inside one shard.
    CrossShardCopy {
        /// Target tuple (global id) and its shard.
        target: (TupleId, usize),
        /// Source tuple (global id) and its shard.
        source: (TupleId, usize),
    },
    /// A delta mixes broadcast-class structure operations (constraints,
    /// new copy functions) with entity-anchored operations.  Split it.
    MixedDelta,
    /// A previous broadcast apply failed part-way: the shards may
    /// disagree on structure, so every further mutation is refused.
    Poisoned,
    /// The delta is inadmissible (unknown tuple/copy, arity, cycles, …).
    Invalid(CurrencyError),
    /// A shard engine failed.
    Shard {
        /// The failing shard.
        shard: usize,
        /// The underlying engine error.
        source: ReasonError,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::CrossShard { shards } => {
                write!(f, "delta spans shards {shards:?}; split the batch")
            }
            ShardError::CrossShardCopy { target, source } => write!(
                f,
                "copy mapping {:?} (shard {}) → {:?} (shard {}) links entities in \
                 different shards",
                source.0, source.1, target.0, target.1
            ),
            ShardError::MixedDelta => write!(
                f,
                "delta mixes structure (constraint / new copy) and entity \
                 operations; split it into a broadcast part and a routed part"
            ),
            ShardError::Poisoned => write!(
                f,
                "a broadcast apply failed part-way; the sharded engine refuses \
                 further mutation"
            ),
            ShardError::Invalid(e) => write!(f, "inadmissible delta: {e}"),
            ShardError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Invalid(e) => Some(e),
            ShardError::Shard { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<CurrencyError> for ShardError {
    fn from(e: CurrencyError) -> ShardError {
        ShardError::Invalid(e)
    }
}

/// Deterministic entity → shard assignment.
///
/// Placed entities (those with tuples in some shard) route to their
/// shard; unseen entities route by `splitmix64(closure representative)`.
/// See the module docs for the full policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    shards: usize,
    placed: HashMap<Eid, usize>,
}

impl ShardPlan {
    /// Assign every entity of `spec`, co-locating copy closures: union
    /// entities over copy mappings, hash each closure's **minimum**
    /// entity id.  The result depends only on the specification's
    /// content, not on any insertion order (the minimum of a closure is
    /// order-free).
    pub fn from_spec(shards: usize, spec: &Specification) -> ShardPlan {
        let shards = shards.max(1);
        // Union-find keyed by entity id, representative = minimum.
        let mut parent: BTreeMap<Eid, Eid> = BTreeMap::new();
        fn find(parent: &BTreeMap<Eid, Eid>, mut e: Eid) -> Eid {
            while let Some(&p) = parent.get(&e) {
                if p == e {
                    break;
                }
                e = p;
            }
            e
        }
        for cf in spec.copies() {
            let sig = cf.signature();
            let target = spec.instance(sig.target);
            let source = spec.instance(sig.source);
            for (t, s) in cf.mappings() {
                let (a, b) = (target.tuple(t).eid, source.tuple(s).eid);
                let (ra, rb) = (find(&parent, a), find(&parent, b));
                if ra != rb {
                    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                    parent.insert(hi, lo);
                }
            }
        }
        let mut plan = ShardPlan {
            shards,
            placed: HashMap::new(),
        };
        for inst in spec.instances() {
            for eid in inst.entities() {
                let shard = plan.hash_shard(find(&parent, eid));
                plan.placed.insert(eid, shard);
            }
        }
        plan
    }

    /// Re-derive the plan from existing shard contents (the recovery
    /// path): every entity with tuples in shard `k` routes to `k`.
    /// Entities whose tuples were all retracted fall back to hash
    /// routing — harmless, since nothing ties an empty entity anywhere.
    pub fn from_shards<'a>(
        shards: usize,
        specs: impl IntoIterator<Item = &'a Specification>,
    ) -> ShardPlan {
        let mut plan = ShardPlan {
            shards: shards.max(1),
            placed: HashMap::new(),
        };
        for (k, spec) in specs.into_iter().enumerate() {
            for inst in spec.instances() {
                for eid in inst.entities() {
                    if !inst.entity_group(eid).is_empty() {
                        plan.placed.insert(eid, k);
                    }
                }
            }
        }
        plan
    }

    fn hash_shard(&self, eid: Eid) -> usize {
        (splitmix64(eid.0) % self.shards as u64) as usize
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard `eid` routes to: its placement if it has one, the hash
    /// of the entity id otherwise (a never-seen entity is its own
    /// closure).
    pub fn shard_of(&self, eid: Eid) -> usize {
        self.placed
            .get(&eid)
            .copied()
            .unwrap_or_else(|| self.hash_shard(eid))
    }

    /// Record that `eid` now has tuples in `shard` (first placement
    /// wins; an entity never migrates).
    pub fn place(&mut self, eid: Eid, shard: usize) {
        self.placed.entry(eid).or_insert(shard);
    }
}

/// The original → sharded-global tuple id translation produced by
/// [`split_spec`] (`None`: the original slot was a tombstone and was not
/// carried over).  Indexed `[relation][original id]`.
#[derive(Clone, Debug, Default)]
pub struct SpecImport {
    /// Per-relation translation tables.
    pub remap: Vec<Vec<Option<TupleId>>>,
}

impl SpecImport {
    /// The sharded-global id of the original spec's tuple `old`.
    pub fn new_id(&self, rel: RelId, old: TupleId) -> Option<TupleId> {
        self.remap.get(rel.index())?.get(old.index()).copied()?
    }
}

/// Decompose `spec` into `plan.shards()` independent sub-specifications:
/// each shard receives its entities' live tuples (ids reassigned
/// shard-locally, reported through the returned [`SpecImport`]), their
/// order edges, the mappings of its entities on every copy function, and
/// a copy of every denial constraint (grounding is entity-local, so each
/// shard grounds exactly its own rules).  Copy functions are added to
/// every shard — possibly with an empty mapping set — so copy *indices*
/// agree across shards and with the original specification.
pub fn split_spec(spec: &Specification, plan: &ShardPlan) -> (Vec<Specification>, SpecImport) {
    let n = plan.shards();
    let mut shards: Vec<Specification> = (0..n)
        .map(|_| Specification::new(spec.catalog().clone()))
        .collect();
    let mut import = SpecImport::default();
    for inst in spec.instances() {
        let rel = inst.rel();
        let mut table: Vec<Option<TupleId>> = vec![None; inst.len()];
        for (id, tuple) in inst.tuples() {
            let s = plan.shard_of(tuple.eid);
            let local = shards[s]
                .instance_mut(rel)
                .push_tuple(tuple.clone())
                .expect("schema is shared; arity holds");
            table[id.index()] = Some(global_id(n, s, local));
        }
        for a in 0..inst.arity() {
            let attr = AttrId(a as u32);
            for (lesser, greater) in inst.order(attr).iter() {
                let (ls, ll) = locate(n, table[lesser.index()].expect("ordered tuples are live"));
                let (gs, gl) = locate(n, table[greater.index()].expect("ordered tuples are live"));
                debug_assert_eq!(ls, gs, "order edges are entity-local");
                shards[ls]
                    .instance_mut(rel)
                    .add_order(attr, ll, gl)
                    .expect("edge was admissible in the original");
            }
        }
        import.remap.push(table);
    }
    for dc in spec.constraints() {
        for shard in &mut shards {
            shard
                .add_constraint(dc.clone())
                .expect("constraint was admissible in the original");
        }
    }
    for cf in spec.copies() {
        let sig = cf.signature();
        let mut per_shard: Vec<currency_core::CopyFunction> = (0..n)
            .map(|_| currency_core::CopyFunction::new(sig.clone()))
            .collect();
        for (t, s) in cf.mappings() {
            let (ts, tl) = locate(
                n,
                import
                    .new_id(sig.target, t)
                    .expect("mapped tuples are live"),
            );
            let (ss, sl) = locate(
                n,
                import
                    .new_id(sig.source, s)
                    .expect("mapped tuples are live"),
            );
            debug_assert_eq!(ts, ss, "copy closures are co-located by the plan");
            per_shard[ts].set_mapping(tl, sl);
        }
        for (shard, cf_local) in shards.iter_mut().zip(per_shard) {
            shard
                .add_copy(cf_local)
                .expect("copying condition held in the original");
        }
    }
    (shards, import)
}

/// A delta rewritten into shard-local id spaces (see [`localize`]).
#[derive(Clone, Debug)]
pub enum RoutedDelta {
    /// The delta carried no operations.
    Empty,
    /// All operations anchor in one shard.
    Single {
        /// The owning shard.
        shard: usize,
        /// The delta in that shard's local id space.
        delta: SpecDelta,
    },
    /// Structure-only delta, one localized copy per shard.
    Broadcast {
        /// One delta per shard, in shard order.
        deltas: Vec<SpecDelta>,
    },
}

/// A localized delta plus the entity placements to commit into the
/// [`ShardPlan`] *after* the apply succeeds.
#[derive(Clone, Debug)]
pub struct Localized {
    /// The rewritten delta.
    pub routed: RoutedDelta,
    /// `(entity, shard)` placements created by the delta's inserts.
    pub placements: Vec<(Eid, usize)>,
}

/// Route `delta` (global ids) against `plan` and rewrite it into
/// shard-local ids.  `specs` are the current per-shard specifications
/// (for resolving ids and predicting insert positions).  Enforces the
/// module's routing policy: single-shard entity deltas, broadcast
/// structure deltas, everything else rejected.
pub fn localize(
    delta: &SpecDelta,
    plan: &ShardPlan,
    specs: &[&Specification],
) -> Result<Localized, ShardError> {
    let n = plan.shards();
    debug_assert_eq!(n, specs.len());
    if delta.is_empty() {
        return Ok(Localized {
            routed: RoutedDelta::Empty,
            placements: Vec::new(),
        });
    }
    // Predict the global ids of this delta's own inserts so later ops of
    // the same delta can reference them: the k-th insert into (shard s,
    // rel r) lands at local id len(s, r) + k.
    let mut pending: HashMap<(RelId, TupleId), Eid> = HashMap::new();
    let mut extra: HashMap<(usize, RelId), u32> = HashMap::new();
    let mut placements: Vec<(Eid, usize)> = Vec::new();
    for op in delta.ops() {
        if let DeltaOp::InsertTuple { rel, tuple } = op {
            let s = plan.shard_of(tuple.eid);
            let slot = extra.entry((s, *rel)).or_insert(0);
            let local = TupleId(specs[s].instance(*rel).len() as u32 + *slot);
            *slot += 1;
            pending.insert((*rel, global_id(n, s, local)), tuple.eid);
            placements.push((tuple.eid, s));
        }
    }
    let copy_rels: Vec<(RelId, RelId)> = specs[0]
        .copies()
        .iter()
        .map(|cf| (cf.signature().target, cf.signature().source))
        .collect();
    let resolve = |rel: RelId, g: TupleId| -> Option<Eid> {
        let (s, l) = locate(n, g);
        let inst = specs[s].instance(rel);
        if l.index() < inst.len() {
            Some(inst.tuple(l).eid)
        } else {
            pending.get(&(rel, g)).copied()
        }
    };
    let routing = delta.routing(&copy_rels, resolve)?;
    let routed = match routing {
        DeltaRouting::Empty => RoutedDelta::Empty,
        DeltaRouting::Mixed(_) => return Err(ShardError::MixedDelta),
        DeltaRouting::Entities(eids) => {
            let shards: BTreeSet<usize> = eids.iter().map(|&e| plan.shard_of(e)).collect();
            if shards.len() != 1 {
                return Err(ShardError::CrossShard { shards });
            }
            let shard = *shards.iter().next().expect("non-empty anchor set");
            let mut local = SpecDelta::new();
            for op in delta.ops() {
                match op {
                    DeltaOp::InsertTuple { rel, tuple } => {
                        local.insert_tuple(*rel, tuple.clone());
                    }
                    DeltaOp::RemoveTuple { rel, tuple } => {
                        local.remove_tuple(*rel, locate(n, *tuple).1);
                    }
                    DeltaOp::AddOrderEdge {
                        rel,
                        attr,
                        lesser,
                        greater,
                    } => {
                        local.add_order_edge(
                            *rel,
                            *attr,
                            locate(n, *lesser).1,
                            locate(n, *greater).1,
                        );
                    }
                    DeltaOp::ExtendCopy {
                        copy,
                        target,
                        source,
                    } => {
                        let (ts, tl) = locate(n, *target);
                        let (ss, sl) = locate(n, *source);
                        if ts != ss {
                            return Err(ShardError::CrossShardCopy {
                                target: (*target, ts),
                                source: (*source, ss),
                            });
                        }
                        local.extend_copy(*copy, tl, sl);
                    }
                    DeltaOp::AddConstraint(_) | DeltaOp::AddCopy(_) => {
                        unreachable!("Entities class has no structure ops")
                    }
                }
            }
            RoutedDelta::Single {
                shard,
                delta: local,
            }
        }
        DeltaRouting::Broadcast => {
            let mut deltas: Vec<SpecDelta> = (0..n).map(|_| SpecDelta::new()).collect();
            for op in delta.ops() {
                match op {
                    DeltaOp::AddConstraint(dc) => {
                        for d in &mut deltas {
                            d.add_constraint(dc.clone());
                        }
                    }
                    DeltaOp::AddCopy(cf) => {
                        let sig = cf.signature();
                        let mut per_shard: Vec<currency_core::CopyFunction> = (0..n)
                            .map(|_| currency_core::CopyFunction::new(sig.clone()))
                            .collect();
                        for (t, s) in cf.mappings() {
                            let (ts, tl) = locate(n, t);
                            let (ss, sl) = locate(n, s);
                            if ts != ss {
                                return Err(ShardError::CrossShardCopy {
                                    target: (t, ts),
                                    source: (s, ss),
                                });
                            }
                            per_shard[ts].set_mapping(tl, sl);
                        }
                        for (d, cf_local) in deltas.iter_mut().zip(per_shard) {
                            d.add_copy(cf_local);
                        }
                    }
                    _ => unreachable!("Broadcast class has only structure ops"),
                }
            }
            RoutedDelta::Broadcast { deltas }
        }
    };
    Ok(Localized { routed, placements })
}

/// What a sharded apply did (the scatter-gather counterpart of
/// [`ApplyReport`]).
#[derive(Clone, Debug, Default)]
pub struct ShardedApplyReport {
    /// The shard an entity-routed delta landed in (`None` for broadcast
    /// or empty deltas).
    pub shard: Option<usize>,
    /// `true` when the delta was structure-only and reached every shard.
    pub broadcast: bool,
    /// Components recompiled, summed across touched shards.
    pub components_rebuilt: usize,
    /// Components reused untouched, summed across touched shards.
    pub components_reused: usize,
    /// `(relation, entity)` cells touched, summed across touched shards.
    pub cells_touched: usize,
    /// **Global** ids assigned to inserted tuples, in operation order.
    pub inserted: Vec<(RelId, TupleId)>,
    /// Bounded auto-compaction steps
    /// ([`Options::auto_compact_tombstones`]) triggered by the delta,
    /// per shard, in **shard-local** ids (translate via [`global_id`]
    /// over the shard's entries).
    pub compact_steps: Vec<(usize, CompactStepReport)>,
}

impl ShardedApplyReport {
    /// Fold one shard's [`ApplyReport`] into this aggregate, translating
    /// its inserted ids to global (`n` = shard count).
    pub fn absorb(&mut self, shard: usize, n: usize, report: ApplyReport) {
        self.components_rebuilt += report.components_rebuilt;
        self.components_reused += report.components_reused;
        self.cells_touched += report.cells_touched;
        self.inserted.extend(
            report
                .inserted
                .iter()
                .map(|&(rel, local)| (rel, global_id(n, shard, local))),
        );
        if let Some(s) = report.compact_step {
            self.compact_steps.push((shard, s));
        }
    }
}

/// The result of one compaction step across every shard (see
/// [`ShardedEngine::compact_step`] and [`ShardedEngine::compact`]): one
/// shard-local
/// [`CompactStepReport`] per shard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardedCompactStepReport {
    /// Shard count (for id translation).
    pub shards: usize,
    /// Per-shard step reports, in shard order.
    pub per_shard: Vec<CompactStepReport>,
}

impl ShardedCompactStepReport {
    /// Total tombstone slots reclaimed across all shards this step.
    pub fn reclaimed(&self) -> usize {
        self.per_shard.iter().map(|r| r.reclaimed).sum()
    }

    /// `true` when every shard is fully drained (no tombstones left
    /// anywhere).
    pub fn done(&self) -> bool {
        self.per_shard.iter().all(|r| r.done)
    }

    /// Translate an old **global** id through this step's slices
    /// (`None` if some slice reclaimed the tuple's slot; ids the step
    /// never scanned come back unchanged).
    pub fn new_id(&self, rel: RelId, old: TupleId) -> Option<TupleId> {
        let (s, l) = locate(self.shards, old);
        self.per_shard[s]
            .new_id(rel, l)
            .map(|nl| global_id(self.shards, s, nl))
    }
}

/// Per-shard plus aggregate engine statistics, assembled lock-free from
/// each shard's atomic counters (one [`CurrencyEngine::stats`] call per
/// shard, no cross-shard lock).
#[derive(Clone, Debug, Default)]
pub struct ShardedStats {
    /// Each shard's stats, in shard order.
    pub per_shard: Vec<EngineStats>,
    /// Field-wise sum across shards.
    pub total: EngineStats,
}

/// Assemble a [`ShardedStats`] view over `engines`.
pub fn sharded_stats(engines: &[&CurrencyEngine<'_>]) -> ShardedStats {
    let per_shard: Vec<EngineStats> = engines.iter().map(|e| e.stats()).collect();
    let mut total = EngineStats::default();
    for s in &per_shard {
        total.components += s.components;
        total.cells += s.cells;
        total.vars += s.vars;
        total.clauses += s.clauses;
        total.encoding_bytes += s.encoding_bytes;
        total.updates_applied += s.updates_applied;
        total.components_rebuilt += s.components_rebuilt;
        total.components_reused += s.components_reused;
        total.compact_steps += s.compact_steps;
        total.slots_reclaimed += s.slots_reclaimed;
        total.recoveries += s.recoveries;
        total.deltas_replayed += s.deltas_replayed;
        total.sat += s.sat;
    }
    ShardedStats { per_shard, total }
}

/// **CPS across shards**: the all-shards conjunction, early-exiting on
/// the first unsat shard (shards are independent, so one empty shard
/// model set empties the product).
pub fn scatter_cps(engines: &[&CurrencyEngine<'_>]) -> Result<bool, ReasonError> {
    for e in engines {
        if !e.cps()? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// **COP across shards**: vacuously true when some shard is unsat;
/// otherwise each pair routes to the shard owning both tuples, and pairs
/// spanning shards relate different entities — never certain.
pub fn scatter_cop(
    engines: &[&CurrencyEngine<'_>],
    ot: &CurrencyOrderQuery,
) -> Result<bool, ReasonError> {
    let n = engines.len();
    if !scatter_cps(engines)? {
        return Ok(true); // Mod(S) = ∅: vacuously certain
    }
    let mut per: Vec<Vec<(AttrId, TupleId, TupleId)>> = vec![Vec::new(); n];
    for &(attr, lesser, greater) in &ot.pairs {
        let (ls, ll) = locate(n, lesser);
        let (gs, gl) = locate(n, greater);
        if ls != gs {
            return Ok(false); // different shards ⇒ different entities
        }
        per[ls].push((attr, ll, gl));
    }
    for (s, pairs) in per.into_iter().enumerate() {
        if pairs.is_empty() {
            continue;
        }
        let local = CurrencyOrderQuery { rel: ot.rel, pairs };
        if !engines[s].cop(&local)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// **Certain answers across shards**: the union of per-shard certain
/// answers ([`CertainAnswers::Inconsistent`] when any shard is unsat).
/// Exact for queries whose individual answers are witnessed inside one
/// shard — see the module docs.
pub fn scatter_certain_answers(
    engines: &[&CurrencyEngine<'_>],
    query: &Query,
) -> Result<CertainAnswers, ReasonError> {
    if !scatter_cps(engines)? {
        return Ok(CertainAnswers::Inconsistent);
    }
    let mut rows: BTreeSet<Vec<Value>> = BTreeSet::new();
    for e in engines {
        match e.certain_answers(query)? {
            // A shard can only report inconsistency if it changed under
            // our feet; stay conservative.
            CertainAnswers::Inconsistent => return Ok(CertainAnswers::Inconsistent),
            CertainAnswers::Answers(r) => rows.extend(r),
        }
    }
    Ok(CertainAnswers::Answers(rows.into_iter().collect()))
}

/// **CCQA across shards**: membership in [`scatter_certain_answers`].
pub fn scatter_ccqa(
    engines: &[&CurrencyEngine<'_>],
    query: &Query,
    tuple: &[Value],
) -> Result<bool, ReasonError> {
    Ok(scatter_certain_answers(engines, query)?.contains(tuple))
}

/// **DCIP across shards**: vacuously true when some shard is unsat;
/// otherwise all shards must individually be deterministic (the global
/// current instance is the disjoint union of per-shard ones).
pub fn scatter_dcip(engines: &[&CurrencyEngine<'_>], rel: RelId) -> Result<bool, ReasonError> {
    if !scatter_cps(engines)? {
        return Ok(true);
    }
    for e in engines {
        if !e.dcip(rel)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// N independent [`CurrencyEngine`]s behind one front door: deterministic
/// entity routing, per-shard incremental applies, per-shard (never
/// global) compaction pauses, scatter-gather queries.  See the module
/// docs for the routing policy and global id scheme.
pub struct ShardedEngine {
    plan: ShardPlan,
    engines: Vec<CurrencyEngine<'static>>,
    import: SpecImport,
    poisoned: bool,
}

impl ShardedEngine {
    /// Decompose `spec` into `shards` sub-specifications (copy closures
    /// co-located) and compile one engine per shard.  Original tuple ids
    /// are reassigned; translate them through [`ShardedEngine::import`].
    pub fn new(spec: &Specification, shards: usize, opts: &Options) -> Result<Self, ShardError> {
        let plan = ShardPlan::from_spec(shards, spec);
        let (specs, import) = split_spec(spec, &plan);
        let engines = specs
            .into_iter()
            .enumerate()
            .map(|(shard, sp)| {
                CurrencyEngine::new_owned(sp, opts)
                    .map_err(|source| ShardError::Shard { shard, source })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedEngine {
            plan,
            engines,
            import,
            poisoned: false,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.engines.len()
    }

    /// The routing plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The original → global tuple id translation of the construction.
    /// Valid until the first compaction touches the relevant shard.
    pub fn import(&self) -> &SpecImport {
        &self.import
    }

    /// Shard `k`'s engine (shard-local ids!).
    pub fn engine(&self, shard: usize) -> &CurrencyEngine<'static> {
        &self.engines[shard]
    }

    /// Mutable access to shard `k`'s observability bundle — for
    /// attaching a trace recorder or switching metrics per shard.
    pub fn obs_mut(&mut self, shard: usize) -> &mut EngineObs {
        self.engines[shard].obs_mut()
    }

    /// A merged metrics snapshot across all shards: every shard's
    /// registry decorated with its `shard` label, then folded into one
    /// family set (histograms merge bucket-wise).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::merged(self.engines.iter().enumerate().map(|(k, e)| {
            e.obs()
                .registry()
                .snapshot()
                .with_label("shard", &k.to_string())
        }))
    }

    /// The merged per-shard metrics in the Prometheus text exposition
    /// format.
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().render_prometheus()
    }

    fn engine_refs(&self) -> Vec<&CurrencyEngine<'static>> {
        self.engines.iter().collect()
    }

    /// The **global** id the next insert for `eid` into `rel` will be
    /// assigned (stable as long as no other delta lands in between).
    pub fn next_id(&self, rel: RelId, eid: Eid) -> TupleId {
        let s = self.plan.shard_of(eid);
        let local = TupleId(self.engines[s].spec().instance(rel).len() as u32);
        global_id(self.shards(), s, local)
    }

    /// Route and apply one delta (global ids).  Entity deltas land in
    /// exactly one shard; structure deltas broadcast (validated on every
    /// shard before any shard mutates — an apply-phase failure after
    /// that poisons the engine, since shards may disagree on structure).
    pub fn apply(&mut self, delta: &SpecDelta) -> Result<ShardedApplyReport, ShardError> {
        if self.poisoned {
            return Err(ShardError::Poisoned);
        }
        let n = self.shards();
        let specs: Vec<&Specification> = self.engines.iter().map(|e| e.spec()).collect();
        let localized = localize(delta, &self.plan, &specs)?;
        drop(specs);
        let mut report = ShardedApplyReport::default();
        match localized.routed {
            RoutedDelta::Empty => {}
            RoutedDelta::Single { shard, delta } => {
                let r = self.engines[shard]
                    .apply(&delta)
                    .map_err(|source| ShardError::Shard { shard, source })?;
                report.shard = Some(shard);
                report.absorb(shard, n, r);
            }
            RoutedDelta::Broadcast { deltas } => {
                for (shard, d) in deltas.iter().enumerate() {
                    d.validate(self.engines[shard].spec())
                        .map_err(ShardError::Invalid)?;
                }
                report.broadcast = true;
                for (shard, d) in deltas.iter().enumerate() {
                    match self.engines[shard].apply(d) {
                        Ok(r) => report.absorb(shard, n, r),
                        Err(source) => {
                            // Some shards have the structure, some do not:
                            // fail stop.
                            self.poisoned = shard > 0;
                            return Err(ShardError::Shard { shard, source });
                        }
                    }
                }
            }
        }
        for (eid, shard) in localized.placements {
            self.plan.place(eid, shard);
        }
        Ok(report)
    }

    /// Compact every shard fully, one at a time — each pause is
    /// shard-local, never global.  Shard-local ids are renumbered;
    /// translate global ids through the returned report.
    pub fn compact(&mut self) -> Result<ShardedCompactStepReport, ShardError> {
        self.step_each_shard(|engine| engine.compact())
    }

    /// Compact one shard fully (the others keep serving untouched).  The
    /// returned report is in **shard-local** ids.
    pub fn compact_shard(&mut self, shard: usize) -> Result<CompactStepReport, ShardError> {
        self.engines[shard]
            .compact()
            .map_err(|source| ShardError::Shard { shard, source })
    }

    /// Run one bounded compaction step on **every** shard, one shard at
    /// a time — each shard's pause is independent and budget-bounded, so
    /// the longest stall any single entity's queries see is one shard's
    /// step, never a fleet-wide sweep.  Shards drain at their own pace;
    /// the aggregate is done when [`ShardedCompactStepReport::done`]
    /// reports every shard drained.
    pub fn compact_step(
        &mut self,
        budget: &CompactBudget,
    ) -> Result<ShardedCompactStepReport, ShardError> {
        self.step_each_shard(|engine| engine.compact_step(budget))
    }

    /// Run one bounded compaction step on one shard (the others keep
    /// serving untouched).  The returned report is in **shard-local**
    /// ids.
    pub fn compact_step_shard(
        &mut self,
        shard: usize,
        budget: &CompactBudget,
    ) -> Result<CompactStepReport, ShardError> {
        self.engines[shard]
            .compact_step(budget)
            .map_err(|source| ShardError::Shard { shard, source })
    }

    /// Run `step` on every shard in order.
    fn step_each_shard(
        &mut self,
        mut step: impl FnMut(&mut CurrencyEngine<'static>) -> Result<CompactStepReport, ReasonError>,
    ) -> Result<ShardedCompactStepReport, ShardError> {
        let mut per_shard = Vec::with_capacity(self.engines.len());
        for (shard, engine) in self.engines.iter_mut().enumerate() {
            per_shard.push(step(engine).map_err(|source| ShardError::Shard { shard, source })?);
        }
        Ok(ShardedCompactStepReport {
            shards: per_shard.len(),
            per_shard,
        })
    }

    /// **CPS** — scatter-gather conjunction with early exit.
    pub fn cps(&self) -> Result<bool, ReasonError> {
        scatter_cps(&self.engine_refs())
    }

    /// **COP** over global tuple ids.
    pub fn cop(&self, ot: &CurrencyOrderQuery) -> Result<bool, ReasonError> {
        scatter_cop(&self.engine_refs(), ot)
    }

    /// **DCIP** — all shards individually deterministic.
    pub fn dcip(&self, rel: RelId) -> Result<bool, ReasonError> {
        scatter_dcip(&self.engine_refs(), rel)
    }

    /// **Certain answers** — union across shards (module docs list the
    /// exactness class).
    pub fn certain_answers(&self, query: &Query) -> Result<CertainAnswers, ReasonError> {
        scatter_certain_answers(&self.engine_refs(), query)
    }

    /// **CCQA** — membership in the certain answers.
    pub fn ccqa(&self, query: &Query, tuple: &[Value]) -> Result<bool, ReasonError> {
        scatter_ccqa(&self.engine_refs(), query, tuple)
    }

    /// Per-shard + aggregate statistics, lock-free.
    pub fn stats(&self) -> ShardedStats {
        sharded_stats(&self.engine_refs())
    }
}
