//! Entity-sharded scale-out: N independent nodes behind one front door.
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
//! * **Delta routing** ([`Router::apply`], policy `reject`): a delta whose
//!   entity anchors ([`SpecDelta::routing`]) span more than one shard is
//!   **rejected** with [`ShardError::CrossShard`] — split the batch and
//!   resubmit.  The tuple ids it references must live in that shard
//!   too.  Structure-only deltas (constraints, new copy functions) are
//!   broadcast to every shard: constraints ground entity-locally, and a
//!   new copy function's mappings are filtered per shard.  A new copy
//!   function mapping entities in different shards is rejected with
//!   [`ShardError::CrossShardCopy`] (an extension's endpoints are
//!   anchors, so it gets [`ShardError::CrossShard`]) — co-location is
//!   decided at assignment time and new cross-shard links are not
//!   re-homed.
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
//! ## One implementation behind every front door
//!
//! [`Router::apply`] is the one routed apply (localize, validate and
//! broadcast, poison on a part-way broadcast, commit placements) and
//! [`Router::step`] the one per-shard compaction loop, both over
//! [`ShardNode`]s.  A node has one compaction entry point,
//! [`ShardNode::compact_step`], and every shard steps within the same
//! [`CompactBudget`] ([`CompactBudget::UNBOUNDED`] drains each shard in
//! one step).  A step failing on shard `k` returns the reports of
//! shards `0..k` ([`ShardError::StepFailed`]), so the ids they remapped
//! stay translatable.  [`Scatter`] is the one scatter-gather, over
//! [`ShardReader`]s.  [`ShardedEngine`] is [`Sharded`] over engines;
//! `currency-store`'s `ShardedStore` is [`Sharded`] over durable
//! engines plus a directory; `currency-serve`'s `ShardedServe` keeps a
//! [`Router`] behind its writer lock and reads through a [`Scatter`].
//!
//! ## Scatter-gather queries
//!
//! CPS is the all-shards conjunction with early exit.  COP routes each
//! pair to the shard owning both tuples (pairs spanning shards relate
//! different entities, never certainly ordered).  DCIP is the
//! conjunction.  One unsat shard makes the whole specification
//! inconsistent, so COP/DCIP answer `true` and certain answers report
//! [`CertainAnswers::Inconsistent`] (the paper's vacuous truth).
//!
//! Certain answers / CCQA are the union of the per-shard ones.  Shards'
//! completions combine freely, so a row is certain iff some shard
//! certifies it — **provided one tuple witnesses each answer**
//! ([`currency_query::is_single_witness`]: positive, no conjunction
//! joining two atoms).  `Q(y) :- R("a", y) ∧ R("b", y)` over
//! `("a", paris)` and `("b", paris)` placed apart is certain, yet no
//! shard holds both witnesses; such queries get
//! [`ReasonError::UnsupportedQuery`], never the union.  A one-shard
//! split answers every query.

use crate::ccqa::CertainAnswers;
use crate::cop::CurrencyOrderQuery;
use crate::engine::{ApplyReport, CurrencyEngine, EngineStats};
use crate::error::ReasonError;
use crate::snapshot::SnapshotReader;
use crate::{CompactBudget, Options};
use currency_core::{
    AttrId, CompactStepReport, CopyFunction, CurrencyError, DeltaOp, DeltaRouting, Eid, RelId,
    SpecDelta, Specification, TupleId, Value,
};
use currency_obs::{MetricsRegistry, MetricsSnapshot};
use currency_query::{is_single_witness, Query};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Deref;

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

/// A failure of the sharded layer: routing, or shard node error `E`.
#[derive(Debug)]
pub enum ShardError<E = ReasonError> {
    /// A delta's entity anchors span more than one shard.  Policy:
    /// rejected, never re-homed — split the batch and resubmit.
    CrossShard {
        /// The shards the anchors resolve to (at least two).
        shards: BTreeSet<usize>,
    },
    /// A new copy function maps entities placed in different shards.
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
    /// A shard node failed.
    Shard {
        /// The failing shard.
        shard: usize,
        /// The underlying node error.
        source: E,
    },
    /// A compaction step failed on shard `shard` after shards
    /// `0..shard` had stepped.  Their reports are in `completed`:
    /// translate the ids they remapped through it.
    StepFailed {
        /// The failing shard.
        shard: usize,
        /// The underlying node error.
        source: E,
        /// The reports of the shards that stepped.
        completed: ShardedCompactStepReport,
    },
}

impl<E: fmt::Display> fmt::Display for ShardError<E> {
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
                "a broadcast apply failed part-way; the sharded front door refuses \
                 further mutation"
            ),
            ShardError::Invalid(e) => write!(f, "inadmissible delta: {e}"),
            ShardError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            ShardError::StepFailed { shard, source, .. } => write!(
                f,
                "compaction step failed on shard {shard} after shards 0..{shard} stepped: \
                 {source}"
            ),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for ShardError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Invalid(e) => Some(e),
            ShardError::Shard { source, .. } | ShardError::StepFailed { source, .. } => {
                Some(source)
            }
            _ => None,
        }
    }
}

impl<E> From<CurrencyError> for ShardError<E> {
    fn from(e: CurrencyError) -> ShardError<E> {
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
        let global = |rel, id| import.new_id(rel, id).expect("mapped tuples are live");
        let mappings = cf
            .mappings()
            .map(|(t, s)| (global(sig.target, t), global(sig.source, s)));
        let per_shard = split_copy::<ReasonError>(cf, n, mappings)
            .expect("copy closures are co-located by the plan");
        for (shard, cf_local) in shards.iter_mut().zip(per_shard) {
            shard
                .add_copy(cf_local)
                .expect("copying condition held in the original");
        }
    }
    (shards, import)
}

/// One copy function per shard, holding the mappings (global ids) of
/// `cf`'s signature in shard-local ids.  A mapping whose endpoints lie
/// in different shards is refused.
fn split_copy<E>(
    cf: &CopyFunction,
    n: usize,
    mappings: impl IntoIterator<Item = (TupleId, TupleId)>,
) -> Result<Vec<CopyFunction>, ShardError<E>> {
    let mut per_shard: Vec<CopyFunction> = (0..n)
        .map(|_| CopyFunction::new(cf.signature().clone()))
        .collect();
    for (t, s) in mappings {
        let ((ts, tl), (ss, sl)) = (locate(n, t), locate(n, s));
        if ts != ss {
            return Err(ShardError::CrossShardCopy {
                target: (t, ts),
                source: (s, ss),
            });
        }
        per_shard[ts].set_mapping(tl, sl);
    }
    Ok(per_shard)
}

/// A delta rewritten into shard-local id spaces (see [`localize`]).
enum RoutedDelta {
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

/// A localized delta plus its inserts, whose entity placements are
/// committed into the [`ShardPlan`] *after* the apply succeeds.
struct Localized {
    /// The rewritten delta.
    routed: RoutedDelta,
    /// `(relation, global id, entity)` of each insert, in operation
    /// order: the k-th insert into (shard s, rel r) lands at local id
    /// `len(s, r) + k`, which is the id the shard assigns.
    inserts: Vec<(RelId, TupleId, Eid)>,
}

/// Route `delta` (global ids) against `plan` and rewrite it into
/// shard-local ids.  `specs` are the current per-shard specifications
/// (for resolving ids and predicting insert positions).  Enforces the
/// module's routing policy: single-shard entity deltas, broadcast
/// structure deltas, everything else rejected.
fn localize<E>(
    delta: &SpecDelta,
    plan: &ShardPlan,
    specs: &[&Specification],
) -> Result<Localized, ShardError<E>> {
    let n = plan.shards();
    debug_assert_eq!(n, specs.len());
    if delta.is_empty() {
        return Ok(Localized {
            routed: RoutedDelta::Empty,
            inserts: Vec::new(),
        });
    }
    // Predict the global ids of this delta's own inserts so later ops of
    // the same delta can reference them.
    let mut pending: HashMap<(RelId, TupleId), Eid> = HashMap::new();
    let mut extra: HashMap<(usize, RelId), u32> = HashMap::new();
    let mut inserts: Vec<(RelId, TupleId, Eid)> = Vec::new();
    for op in delta.ops() {
        if let DeltaOp::InsertTuple { rel, tuple } = op {
            let s = plan.shard_of(tuple.eid);
            let slot = extra.entry((s, *rel)).or_insert(0);
            let local = TupleId(specs[s].instance(*rel).len() as u32 + *slot);
            *slot += 1;
            pending.insert((*rel, global_id(n, s, local)), tuple.eid);
            inserts.push((*rel, global_id(n, s, local), tuple.eid));
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
            // Every referenced id must live in the anchors' one shard,
            // too: an entity whose tuples were all retracted before a
            // recovery routes by hash, not to the shard its old ids name.
            let mut shards: BTreeSet<usize> = eids.iter().map(|&e| plan.shard_of(e)).collect();
            let mut to_local = |g: TupleId| {
                let (s, l) = locate(n, g);
                shards.insert(s);
                l
            };
            let mut local = SpecDelta::new();
            for op in delta.ops() {
                match op {
                    DeltaOp::InsertTuple { rel, tuple } => local.insert_tuple(*rel, tuple.clone()),
                    DeltaOp::RemoveTuple { rel, tuple } => {
                        local.remove_tuple(*rel, to_local(*tuple))
                    }
                    DeltaOp::AddOrderEdge {
                        rel,
                        attr,
                        lesser,
                        greater,
                    } => local.add_order_edge(*rel, *attr, to_local(*lesser), to_local(*greater)),
                    DeltaOp::ExtendCopy {
                        copy,
                        target,
                        source,
                    } => local.extend_copy(*copy, to_local(*target), to_local(*source)),
                    DeltaOp::AddConstraint(_) | DeltaOp::AddCopy(_) => {
                        unreachable!("Entities class has no structure ops")
                    }
                };
            }
            if shards.len() != 1 {
                return Err(ShardError::CrossShard { shards });
            }
            RoutedDelta::Single {
                shard: *shards.iter().next().expect("non-empty anchor set"),
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
                        for (d, cf_local) in
                            deltas.iter_mut().zip(split_copy(cf, n, cf.mappings())?)
                        {
                            d.add_copy(cf_local);
                        }
                    }
                    _ => unreachable!("Broadcast class has only structure ops"),
                }
            }
            RoutedDelta::Broadcast { deltas }
        }
    };
    Ok(Localized { routed, inserts })
}

/// One shard's writable node: what [`Router`] needs to route, apply and
/// compact a shard.  Implemented by [`CurrencyEngine`], by
/// `currency-store`'s durable engine and by `&CurrencyServe`.
pub trait ShardNode {
    /// The node's error.
    type Error;
    /// What one [`ShardNode::apply`] reports.
    type Report;
    /// A read handle on the node's current specification (a borrow, or
    /// the serving writer's published `Arc`).
    type Spec<'a>: Deref<Target = Specification>
    where
        Self: 'a;

    /// The node's current specification.
    fn spec(&self) -> Self::Spec<'_>;
    /// Apply a delta in the shard's local id space.
    fn apply(&mut self, delta: &SpecDelta) -> Result<Self::Report, Self::Error>;
    /// Run one bounded compaction step.
    fn compact_step(&mut self, budget: &CompactBudget) -> Result<CompactStepReport, Self::Error>;
    /// The node's metrics registry.
    fn metrics(&self) -> &MetricsRegistry;
}

/// One shard's reader: what [`Scatter`] asks each shard.  Implemented
/// by `&CurrencyEngine`, by [`SnapshotReader`], by `Scatter` itself and
/// by `currency-serve`'s handle, whose answers go through its cache,
/// in-flight cap and deadline.
pub trait ShardReader {
    /// The reader's error; a refused query surfaces as
    /// [`ReasonError::UnsupportedQuery`] through it.
    type Error: From<ReasonError>;

    /// **CPS** on this shard.
    fn cps(&mut self) -> Result<bool, Self::Error>;
    /// **COP** on this shard, over shard-local ids.
    fn cop(&mut self, ot: &CurrencyOrderQuery) -> Result<bool, Self::Error>;
    /// **DCIP** on this shard.
    fn dcip(&mut self, rel: RelId) -> Result<bool, Self::Error>;
    /// Certain current answers on this shard.
    fn certain_answers(&mut self, query: &Query) -> Result<CertainAnswers, Self::Error>;
}

/// What a sharded apply did.
#[derive(Clone, Debug)]
pub struct ShardedApplyReport<R = ApplyReport> {
    /// The shard an entity-routed delta landed in (`None` for broadcast
    /// or empty deltas).
    pub shard: Option<usize>,
    /// `true` when the delta was structure-only and reached every shard.
    pub broadcast: bool,
    /// **Global** ids assigned to inserted tuples, in operation order.
    pub inserted: Vec<(RelId, TupleId)>,
    /// Each touched shard's own report, in shard order and
    /// **shard-local** ids (translate via [`global_id`]).
    pub per_shard: Vec<(usize, R)>,
}

/// The result of one compaction step across the shards (see
/// [`Router::step`]): one shard-local [`CompactStepReport`] per shard
/// that stepped, in shard order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardedCompactStepReport {
    /// Shard count (for id translation).
    pub shards: usize,
    /// Per-shard step reports, in shard order.  Shorter than `shards`
    /// only inside [`ShardError::StepFailed`].
    pub per_shard: Vec<CompactStepReport>,
}

impl ShardedCompactStepReport {
    /// `true` when every shard is fully drained (no tombstones left
    /// anywhere).
    pub fn done(&self) -> bool {
        self.per_shard.len() == self.shards && self.per_shard.iter().all(|r| r.done)
    }

    /// Translate an old **global** id through this step's slices
    /// (`None` if some slice reclaimed the tuple's slot; ids the step
    /// never scanned, including every id of a shard that did not step,
    /// come back unchanged).
    pub fn new_id(&self, rel: RelId, old: TupleId) -> Option<TupleId> {
        let (s, l) = locate(self.shards, old);
        match self.per_shard.get(s) {
            Some(report) => report
                .new_id(rel, l)
                .map(|nl| global_id(self.shards, s, nl)),
            None => Some(old),
        }
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

/// The routing state of a sharded front door: the placement plan and
/// the poison flag a part-way broadcast sets.  It owns no node, so a
/// front door may keep its nodes elsewhere (the serving layer keeps the
/// router behind its writer lock and the nodes outside it).
#[derive(Debug)]
pub struct Router {
    plan: ShardPlan,
    poisoned: bool,
}

impl Router {
    /// A router over `plan`.
    pub fn new(plan: ShardPlan) -> Router {
        Router {
            plan,
            poisoned: false,
        }
    }

    /// The routing plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Route one delta (global ids) and apply it to `nodes` (one per
    /// shard, in shard order).  Entity deltas land in exactly one shard;
    /// structure deltas are validated on every shard and then broadcast.
    /// An apply failure after the first shard took a broadcast poisons
    /// the router, since shards may now disagree on structure.
    pub fn apply<N: ShardNode>(
        &mut self,
        nodes: &mut [N],
        delta: &SpecDelta,
    ) -> Result<ShardedApplyReport<N::Report>, ShardError<N::Error>> {
        if self.poisoned {
            return Err(ShardError::Poisoned);
        }
        let n = nodes.len();
        let localized = {
            let specs: Vec<N::Spec<'_>> = nodes.iter().map(N::spec).collect();
            let specs: Vec<&Specification> = specs.iter().map(|s| &**s).collect();
            localize(delta, &self.plan, &specs)?
        };
        let mut report = ShardedApplyReport {
            shard: None,
            broadcast: matches!(localized.routed, RoutedDelta::Broadcast { .. }),
            inserted: Vec::with_capacity(localized.inserts.len()),
            per_shard: Vec::new(),
        };
        match localized.routed {
            RoutedDelta::Empty => {}
            RoutedDelta::Single { shard, delta } => {
                let r = nodes[shard]
                    .apply(&delta)
                    .map_err(|source| ShardError::Shard { shard, source })?;
                report.shard = Some(shard);
                report.per_shard.push((shard, r));
            }
            RoutedDelta::Broadcast { deltas } => {
                for (node, d) in nodes.iter().zip(&deltas) {
                    d.validate(&node.spec())?;
                }
                for (shard, d) in deltas.iter().enumerate() {
                    match nodes[shard].apply(d) {
                        Ok(r) => report.per_shard.push((shard, r)),
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
        for (rel, id, eid) in localized.inserts {
            self.plan.place(eid, locate(n, id).0);
            report.inserted.push((rel, id));
        }
        Ok(report)
    }

    /// Run one compaction step within `budget` on every node, one shard
    /// at a time: each pause is shard-local, never global, and shards
    /// drain at their own pace.  A failure on shard `k` returns the
    /// reports of shards `0..k` in [`ShardError::StepFailed`].
    pub fn step<N: ShardNode>(
        &self,
        nodes: &mut [N],
        budget: &CompactBudget,
    ) -> Result<ShardedCompactStepReport, ShardError<N::Error>> {
        if self.poisoned {
            return Err(ShardError::Poisoned);
        }
        let mut completed = ShardedCompactStepReport {
            shards: nodes.len(),
            per_shard: Vec::with_capacity(nodes.len()),
        };
        for (shard, node) in nodes.iter_mut().enumerate() {
            match node.compact_step(budget) {
                Ok(r) => completed.per_shard.push(r),
                Err(source) => {
                    return Err(ShardError::StepFailed {
                        shard,
                        source,
                        completed,
                    })
                }
            }
        }
        Ok(completed)
    }
}

/// Split `spec` along copy closures ([`ShardPlan::from_spec`],
/// [`split_spec`]) and `build` one node per sub-specification, in shard
/// order.
pub fn build_shards<N, E>(
    spec: &Specification,
    shards: usize,
    mut build: impl FnMut(usize, Specification) -> Result<N, E>,
) -> Result<(Router, Vec<N>, SpecImport), E> {
    let plan = ShardPlan::from_spec(shards, spec);
    let (specs, import) = split_spec(spec, &plan);
    let nodes = specs
        .into_iter()
        .enumerate()
        .map(|(shard, sub)| build(shard, sub))
        .collect::<Result<_, _>>()?;
    Ok((Router::new(plan), nodes, import))
}

/// Every shard's registry, each series labelled `shard="<k>"`, merged
/// into one snapshot: counters sum (saturating), gauges take the max,
/// histograms merge bucket-wise.
pub fn merged_metrics<'a>(
    registries: impl IntoIterator<Item = &'a MetricsRegistry>,
) -> MetricsSnapshot {
    MetricsSnapshot::merged(
        registries
            .into_iter()
            .enumerate()
            .map(|(k, r)| r.snapshot().with_label("shard", &k.to_string())),
    )
}

/// One reader per shard, queried scatter-gather (see the module docs).
#[derive(Clone, Debug)]
pub struct Scatter<R> {
    shards: Vec<R>,
}

impl<R> Scatter<R> {
    /// Scatter over `shards` (one reader per shard, in shard order).
    pub fn new(shards: Vec<R>) -> Scatter<R> {
        Scatter { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `k`'s reader, for shard-local queries in the shard's own
    /// id space.
    pub fn shard_mut(&mut self, shard: usize) -> &mut R {
        &mut self.shards[shard]
    }
}

impl<R: ShardReader> Scatter<R> {
    /// **CPS**: the all-shards conjunction, early-exiting on the first
    /// unsat shard (one empty shard model set empties the product).
    pub fn cps(&mut self) -> Result<bool, R::Error> {
        for r in &mut self.shards {
            if !r.cps()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// **COP** over global tuple ids: vacuously true when some shard is
    /// unsat; otherwise each pair routes to the shard owning both
    /// tuples, and pairs spanning shards relate different entities —
    /// never certain.
    pub fn cop(&mut self, ot: &CurrencyOrderQuery) -> Result<bool, R::Error> {
        let n = self.shards.len();
        if !self.cps()? {
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
        for (r, pairs) in self.shards.iter_mut().zip(per) {
            if !pairs.is_empty() && !r.cop(&CurrencyOrderQuery { rel: ot.rel, pairs })? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// **DCIP**: vacuously true when some shard is unsat; otherwise all
    /// shards must be deterministic (the global current instance is the
    /// disjoint union of the per-shard ones).
    pub fn dcip(&mut self, rel: RelId) -> Result<bool, R::Error> {
        if !self.cps()? {
            return Ok(true);
        }
        for r in &mut self.shards {
            if !r.dcip(rel)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// **Certain answers**: the union of per-shard certain answers
    /// ([`CertainAnswers::Inconsistent`] when any shard is unsat).
    /// Across more than one shard, a query outside the single-witness
    /// class ([`is_single_witness`]) is refused with
    /// [`ReasonError::UnsupportedQuery`]: its union can miss answers.
    pub fn certain_answers(&mut self, query: &Query) -> Result<CertainAnswers, R::Error> {
        if self.shards.len() > 1 && !is_single_witness(query) {
            return Err(ReasonError::UnsupportedQuery {
                detail: format!(
                    "certain answers across {} shards are exact only when one tuple \
                     witnesses each answer (a positive query joining no two atoms)",
                    self.shards.len()
                ),
            }
            .into());
        }
        if !self.cps()? {
            return Ok(CertainAnswers::Inconsistent);
        }
        let mut rows: BTreeSet<Vec<Value>> = BTreeSet::new();
        for r in &mut self.shards {
            match r.certain_answers(query)? {
                // A shard can only report inconsistency if it changed
                // under our feet; stay conservative.
                CertainAnswers::Inconsistent => return Ok(CertainAnswers::Inconsistent),
                CertainAnswers::Answers(a) => rows.extend(a),
            }
        }
        Ok(CertainAnswers::Answers(rows.into_iter().collect()))
    }

    /// **CCQA**: membership in [`Scatter::certain_answers`] (refused
    /// alike).
    pub fn ccqa(&mut self, query: &Query, tuple: &[Value]) -> Result<bool, R::Error> {
        Ok(self.certain_answers(query)?.contains(tuple))
    }
}

/// N independent nodes behind one front door: deterministic entity
/// routing, per-shard applies, per-shard (never global) compaction
/// pauses and, over engine-backed nodes, scatter-gather queries.  See
/// the module docs for the routing policy and global id scheme.
pub struct Sharded<N> {
    router: Router,
    nodes: Vec<N>,
    import: SpecImport,
}

/// N independent [`CurrencyEngine`]s behind one front door.
pub type ShardedEngine = Sharded<CurrencyEngine>;

impl ShardedEngine {
    /// Decompose `spec` into `shards` sub-specifications (copy closures
    /// co-located) and compile one engine per shard.  Original tuple ids
    /// are reassigned; translate them through [`Sharded::import`].
    pub fn new(spec: &Specification, shards: usize, opts: &Options) -> Result<Self, ShardError> {
        Sharded::build(spec, shards, |shard, sub| {
            CurrencyEngine::new_owned(sub, opts)
                .map_err(|source| ShardError::Shard { shard, source })
        })
    }
}

impl<N: ShardNode> Sharded<N> {
    /// Split `spec` and `build` one node per shard ([`build_shards`]).
    pub fn build<E>(
        spec: &Specification,
        shards: usize,
        build: impl FnMut(usize, Specification) -> Result<N, E>,
    ) -> Result<Self, E> {
        let (router, nodes, import) = build_shards(spec, shards, build)?;
        Ok(Sharded {
            router,
            nodes,
            import,
        })
    }

    /// Reassemble recovered nodes (shard `k` at index `k`).  The plan is
    /// re-derived from their contents ([`ShardPlan::from_shards`]) and
    /// the import is empty: recovered nodes speak global ids already.
    pub fn recover(nodes: Vec<N>) -> Self {
        let plan = {
            let specs: Vec<N::Spec<'_>> = nodes.iter().map(N::spec).collect();
            ShardPlan::from_shards(nodes.len(), specs.iter().map(|s| &**s))
        };
        Sharded {
            router: Router::new(plan),
            nodes,
            import: SpecImport::default(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.nodes.len()
    }

    /// The routing plan.
    pub fn plan(&self) -> &ShardPlan {
        self.router.plan()
    }

    /// The original → global tuple id translation of the split (empty
    /// for recovered nodes).  Valid until the first compaction touches
    /// the relevant shard.
    pub fn import(&self) -> &SpecImport {
        &self.import
    }

    /// Shard `k`'s node (shard-local ids!).
    pub fn shard(&self, shard: usize) -> &N {
        &self.nodes[shard]
    }

    /// Shard `k`'s node, mutably, for per-shard upkeep such as flushing
    /// a log or attaching a trace recorder.  A delta applied through it
    /// bypasses routing: use [`Sharded::apply`] for deltas.
    pub fn shard_mut(&mut self, shard: usize) -> &mut N {
        &mut self.nodes[shard]
    }

    /// The **global** id the next insert for `eid` into `rel` will be
    /// assigned (stable as long as no other delta lands in between).
    pub fn next_id(&self, rel: RelId, eid: Eid) -> TupleId {
        let s = self.plan().shard_of(eid);
        let local = TupleId(self.nodes[s].spec().instance(rel).len() as u32);
        global_id(self.shards(), s, local)
    }

    /// Route and apply one delta (global ids) — see [`Router::apply`].
    pub fn apply(
        &mut self,
        delta: &SpecDelta,
    ) -> Result<ShardedApplyReport<N::Report>, ShardError<N::Error>> {
        self.router.apply(&mut self.nodes, delta)
    }

    /// Run one bounded compaction step on every shard, one at a time —
    /// see [`Router::step`].  Shard-local ids are renumbered; translate
    /// global ids through the returned report.  The aggregate is done
    /// when [`ShardedCompactStepReport::done`] reports every shard
    /// drained.
    pub fn compact_step(
        &mut self,
        budget: &CompactBudget,
    ) -> Result<ShardedCompactStepReport, ShardError<N::Error>> {
        self.router.step(&mut self.nodes, budget)
    }

    /// Every shard's metrics merged into one snapshot, each series
    /// labelled `shard="<k>"` ([`merged_metrics`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        merged_metrics(self.nodes.iter().map(N::metrics))
    }

    /// The merged per-shard metrics in the Prometheus text exposition
    /// format.
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().render_prometheus()
    }
}

impl<N: AsRef<CurrencyEngine>> Sharded<N> {
    /// A scatter-gather reader over the shards' engines (global ids).
    pub fn scatter(&self) -> Scatter<&CurrencyEngine> {
        Scatter::new(self.nodes.iter().map(AsRef::as_ref).collect())
    }

    /// **CPS** — see [`Scatter::cps`].
    pub fn cps(&self) -> Result<bool, ReasonError> {
        self.scatter().cps()
    }

    /// **COP** over global tuple ids — see [`Scatter::cop`].
    pub fn cop(&self, ot: &CurrencyOrderQuery) -> Result<bool, ReasonError> {
        self.scatter().cop(ot)
    }

    /// **DCIP** — see [`Scatter::dcip`].
    pub fn dcip(&self, rel: RelId) -> Result<bool, ReasonError> {
        self.scatter().dcip(rel)
    }

    /// **Certain answers** — see [`Scatter::certain_answers`] for the
    /// queries it refuses.
    pub fn certain_answers(&self, query: &Query) -> Result<CertainAnswers, ReasonError> {
        self.scatter().certain_answers(query)
    }

    /// **CCQA** — membership in the certain answers.
    pub fn ccqa(&self, query: &Query, tuple: &[Value]) -> Result<bool, ReasonError> {
        self.scatter().ccqa(query, tuple)
    }

    /// Per-shard + aggregate statistics, lock-free.
    pub fn stats(&self) -> ShardedStats {
        let per_shard: Vec<EngineStats> = self.nodes.iter().map(|n| n.as_ref().stats()).collect();
        let mut total = EngineStats::default();
        for s in &per_shard {
            total.components += s.components;
            total.decided_components += s.decided_components;
            total.cells += s.cells;
            total.vars += s.vars;
            total.clauses += s.clauses;
            total.encoding_bytes += s.encoding_bytes;
            total.partition_bytes += s.partition_bytes;
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
}

impl AsRef<CurrencyEngine> for CurrencyEngine {
    fn as_ref(&self) -> &CurrencyEngine {
        self
    }
}

impl ShardNode for CurrencyEngine {
    type Error = ReasonError;
    type Report = ApplyReport;
    type Spec<'a> = &'a Specification;

    fn spec(&self) -> &Specification {
        CurrencyEngine::spec(self)
    }

    fn apply(&mut self, delta: &SpecDelta) -> Result<ApplyReport, ReasonError> {
        CurrencyEngine::apply(self, delta)
    }

    fn compact_step(&mut self, budget: &CompactBudget) -> Result<CompactStepReport, ReasonError> {
        CurrencyEngine::compact_step(self, budget)
    }

    fn metrics(&self) -> &MetricsRegistry {
        self.obs().registry()
    }
}

impl ShardReader for &CurrencyEngine {
    type Error = ReasonError;

    fn cps(&mut self) -> Result<bool, ReasonError> {
        CurrencyEngine::cps(self)
    }

    fn cop(&mut self, ot: &CurrencyOrderQuery) -> Result<bool, ReasonError> {
        CurrencyEngine::cop(self, ot)
    }

    fn dcip(&mut self, rel: RelId) -> Result<bool, ReasonError> {
        CurrencyEngine::dcip(self, rel)
    }

    fn certain_answers(&mut self, query: &Query) -> Result<CertainAnswers, ReasonError> {
        CurrencyEngine::certain_answers(self, query)
    }
}

impl ShardReader for SnapshotReader {
    type Error = ReasonError;

    fn cps(&mut self) -> Result<bool, ReasonError> {
        Ok(SnapshotReader::cps(self))
    }

    fn cop(&mut self, ot: &CurrencyOrderQuery) -> Result<bool, ReasonError> {
        SnapshotReader::cop(self, ot)
    }

    fn dcip(&mut self, rel: RelId) -> Result<bool, ReasonError> {
        SnapshotReader::dcip(self, rel)
    }

    fn certain_answers(&mut self, query: &Query) -> Result<CertainAnswers, ReasonError> {
        SnapshotReader::certain_answers(self, query)
    }
}

/// A scatter-gather is itself a reader over global ids.
impl<R: ShardReader> ShardReader for Scatter<R> {
    type Error = R::Error;

    fn cps(&mut self) -> Result<bool, R::Error> {
        Scatter::cps(self)
    }

    fn cop(&mut self, ot: &CurrencyOrderQuery) -> Result<bool, R::Error> {
        Scatter::cop(self, ot)
    }

    fn dcip(&mut self, rel: RelId) -> Result<bool, R::Error> {
        Scatter::dcip(self, rel)
    }

    fn certain_answers(&mut self, query: &Query) -> Result<CertainAnswers, R::Error> {
        Scatter::certain_answers(self, query)
    }
}
