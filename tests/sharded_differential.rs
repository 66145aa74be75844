//! Differential testing of the entity-sharded front doors: for every
//! shard count N ∈ {1, 2, 4, 8}, a [`ShardedEngine`] and a
//! [`ShardedServe`] (read through its scatter-gather handle) fed the same
//! seeded update stream as a single unsharded [`CurrencyEngine`] must
//! pass the shared agreement check (`reason::oracle::Agreement`: CPS,
//! all-pairs COP, DCIP and certain answers of every relation, against a
//! fresh engine) and agree with the unsharded engine on CCQA membership
//! — before and after the stream, and after compaction.  A join, whose
//! per-shard union can miss answers, must be refused by both sharded
//! front doors whenever N > 1.
//!
//! The stream is the shared generator's live-update mix
//! (`DeltaMix::UPDATES`); its deltas speak the unsharded id space,
//! so each delta is translated to sharded-global ids through a
//! maintained id map (seeded from [`ShardedEngine::import`], extended by
//! zipping the two apply reports' `inserted` lists).  A delta the
//! sharded engine *rejects* under the documented routing policy
//! (cross-shard anchors — e.g. a copy extension whose fresh source
//! entity hashes to a different shard than its target) is skipped on
//! both sides, keeping the two states in lockstep; the policy itself is
//! pinned by the deterministic tests at the bottom.

use data_currency::datagen::random::{
    monotone, pinned_seeds, random_delta, random_spec, DeltaMix, RandomSpecConfig,
};
use data_currency::model::{
    AttrId, CopyFunction, DeltaOp, Eid, RelId, SpecDelta, Specification, Tuple, TupleId, Value,
};
use data_currency::query::{parse_query, Query, SpQuery};
use data_currency::reason::oracle::Agreement;
use data_currency::reason::shard::locate;
use data_currency::reason::{
    CertainAnswers, CompactBudget, CurrencyEngine, Options, ReasonError, ShardError, ShardPlan,
    Sharded, ShardedEngine,
};
use data_currency::serve::{ServeError, ServeOptions, ShardedServe, ShardedServeHandle};
use data_currency::store::{ShardedStore, StoreOptions};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;

const T: RelId = RelId(0);
const SRC: RelId = RelId(1);
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const STREAM_LEN: usize = 6;

fn config(seed: u64) -> RandomSpecConfig {
    RandomSpecConfig {
        entities: 3,
        tuples_per_entity: (1, 2),
        attrs: 1,
        value_pool: 2,
        order_density: 0.25,
        monotone_constraints: 1,
        correlated_constraints: 0,
        with_copy: true,
        seed,
    }
}

fn value_query(rel: RelId, arity: usize) -> Query {
    SpQuery::identity(rel, arity).to_query(arity)
}

/// An unsharded engine, a sharded engine and a sharded serving stack
/// (with one scatter-gather handle) kept in lockstep, plus the
/// unsharded → sharded-global tuple id translation (one map per
/// relation; both sharded front doors split alike).
struct Mirror {
    unsharded: CurrencyEngine,
    sharded: ShardedEngine,
    serve: ShardedServe,
    handle: ShardedServeHandle,
    map: Vec<HashMap<TupleId, TupleId>>,
}

impl Mirror {
    fn new(spec: &Specification, shards: usize, opts: &Options) -> Mirror {
        let unsharded = CurrencyEngine::new_owned(spec.clone(), opts).expect("valid spec");
        let sharded = ShardedEngine::new(spec, shards, opts).expect("valid spec");
        let serve =
            ShardedServe::new(spec, shards, opts, &ServeOptions::default()).expect("valid spec");
        let handle = serve.handle();
        let mut map: Vec<HashMap<TupleId, TupleId>> = Vec::new();
        for (r, inst) in spec.instances().iter().enumerate() {
            let rel = RelId(r as u32);
            let mut m = HashMap::new();
            for old in 0..inst.len() as u32 {
                if let Some(g) = sharded.import().new_id(rel, TupleId(old)) {
                    m.insert(TupleId(old), g);
                }
            }
            map.push(m);
        }
        Mirror {
            unsharded,
            sharded,
            serve,
            handle,
            map,
        }
    }

    /// Rewrite a delta from the unsharded id space into the
    /// sharded-global one.  Ids a delta assigns to its *own* inserts
    /// (the copy-extension pattern references the mirrored source tuple
    /// it inserts) are predicted on both sides, exactly as the sharded
    /// router itself predicts them.
    fn translate(&self, delta: &SpecDelta) -> SpecDelta {
        let n = self.sharded.shards();
        let mut un_next: HashMap<RelId, u32> = HashMap::new();
        let mut sh_next: HashMap<(usize, RelId), u32> = HashMap::new();
        let mut pending: HashMap<(RelId, TupleId), TupleId> = HashMap::new();
        for op in delta.ops() {
            if let DeltaOp::InsertTuple { rel, tuple } = op {
                let uc = un_next.entry(*rel).or_insert(0);
                let un_id = TupleId(self.unsharded.spec().instance(*rel).len() as u32 + *uc);
                *uc += 1;
                let shard = self.sharded.plan().shard_of(tuple.eid);
                let sc = sh_next.entry((shard, *rel)).or_insert(0);
                let g = TupleId(self.sharded.next_id(*rel, tuple.eid).0 + *sc * n as u32);
                *sc += 1;
                pending.insert((*rel, un_id), g);
            }
        }
        let lookup = |rel: RelId, id: TupleId| -> TupleId {
            self.map[rel.index()]
                .get(&id)
                .or_else(|| pending.get(&(rel, id)))
                .copied()
                .expect("generated deltas reference known tuples")
        };
        let mut out = SpecDelta::new();
        for op in delta.ops() {
            match op {
                DeltaOp::InsertTuple { rel, tuple } => {
                    out.insert_tuple(*rel, tuple.clone());
                }
                DeltaOp::RemoveTuple { rel, tuple } => {
                    out.remove_tuple(*rel, lookup(*rel, *tuple));
                }
                DeltaOp::AddOrderEdge {
                    rel,
                    attr,
                    lesser,
                    greater,
                } => {
                    out.add_order_edge(*rel, *attr, lookup(*rel, *lesser), lookup(*rel, *greater));
                }
                DeltaOp::AddConstraint(dc) => {
                    out.add_constraint(dc.clone());
                }
                DeltaOp::ExtendCopy {
                    copy,
                    target,
                    source,
                } => {
                    let sig = self.unsharded.spec().copies()[*copy].signature();
                    out.extend_copy(
                        *copy,
                        lookup(sig.target, *target),
                        lookup(sig.source, *source),
                    );
                }
                DeltaOp::AddCopy(_) => unreachable!("generator emits no new copy functions"),
            }
        }
        out
    }

    /// Apply one delta on both sides (or skip it on both when the
    /// routing policy rejects it).  Returns whether it was applied.
    fn step(&mut self, delta: &SpecDelta, seed: u64, step: usize) -> bool {
        let translated = self.translate(delta);
        let served = self.serve.apply(&translated);
        match self.sharded.apply(&translated) {
            Ok(sh) => {
                let served = served.expect("both sharded front doors accept alike");
                assert_eq!(
                    (served.shard, served.broadcast, &served.inserted),
                    (sh.shard, sh.broadcast, &sh.inserted),
                    "sharded front doors routed apart (seed {seed} step {step})"
                );
                let un = self.unsharded.apply(delta).expect("admissible by draw");
                assert_eq!(
                    un.inserted.len(),
                    sh.inserted.len(),
                    "insert counts diverged (seed {seed} step {step})"
                );
                for (&(ru, iu), &(rs, ig)) in un.inserted.iter().zip(sh.inserted.iter()) {
                    assert_eq!(
                        ru, rs,
                        "insert relations diverged (seed {seed} step {step})"
                    );
                    self.map[ru.index()].insert(iu, ig);
                }
                true
            }
            Err(ShardError::CrossShard { .. }) | Err(ShardError::CrossShardCopy { .. }) => {
                assert!(
                    matches!(
                        served,
                        Err(ShardError::CrossShard { .. }) | Err(ShardError::CrossShardCopy { .. })
                    ),
                    "sharded front doors routed apart (seed {seed} step {step})"
                );
                // Documented policy: the batch is rejected whole, never
                // re-homed.  With one shard nothing can ever cross.
                assert!(
                    self.sharded.shards() > 1,
                    "single-shard routing rejected a delta (seed {seed} step {step})"
                );
                false
            }
            Err(e) => panic!("unexpected sharded failure (seed {seed} step {step}): {e}"),
        }
    }

    /// Both sharded front doors (ids through the id map) pass the shared
    /// agreement check, agree with the unsharded engine on a CCQA probe
    /// of each relation, and refuse a join on more than one shard.
    fn check(&mut self, seed: u64, stage: &str) {
        let n = self.sharded.shards();
        let at = format!("seed {seed}, N={n}, {stage}");
        let spec = self.unsharded.spec();
        let agreement = Agreement::of(spec, 0, &at);
        let map = &self.map;
        let global = |rel: RelId, id: TupleId| map[rel.index()][&id];
        agreement.check(&mut self.sharded.scatter(), global, &at);
        agreement.check(&mut self.handle, global, &at);
        // CCQA membership: a certain row, if any, and one that cannot
        // occur.
        for rel in [T, SRC] {
            let arity = spec.instance(rel).arity();
            let q = value_query(rel, arity);
            let certain = self.unsharded.certain_answers(&q).expect("in budget");
            let rows = certain.rows().and_then(|rows| rows.first()).cloned();
            for row in rows.into_iter().chain([vec![Value::int(99); arity]]) {
                let un = self.unsharded.ccqa(&q, &row).unwrap();
                assert_eq!(
                    (un, un),
                    (
                        self.sharded.ccqa(&q, &row).unwrap(),
                        self.handle.ccqa(&q, &row).unwrap()
                    ),
                    "CCQA {row:?}, {at}"
                );
            }
        }
        // A join of the two relations: exact on one shard, refused on
        // more (a per-shard union could miss a cross-shard answer).
        let join = parse_query(spec.catalog(), "Q(x) :- T(x) and Src(x)").expect("valid query");
        let sharded = self.sharded.certain_answers(&join);
        let served = self.handle.certain_answers(&join);
        if n == 1 {
            let un = self.unsharded.certain_answers(&join).expect("in budget");
            assert_eq!(
                (&un, &un),
                (&sharded.unwrap(), &served.unwrap()),
                "join diverged on one shard ({at})"
            );
        } else {
            assert_refused(sharded, served);
        }
    }
}

/// Both sharded readers refused a query with the typed refusal.
fn assert_refused(
    sharded: Result<CertainAnswers, ReasonError>,
    served: Result<CertainAnswers, ServeError>,
) {
    assert!(
        matches!(sharded, Err(ReasonError::UnsupportedQuery { .. })),
        "sharded engine answered a query it must refuse: {sharded:?}"
    );
    assert!(
        matches!(
            served,
            Err(ServeError::Reason(ReasonError::UnsupportedQuery { .. }))
        ),
        "sharded serve answered a query it must refuse: {served:?}"
    );
}

/// One full differential round for one seed and one shard count.
fn differential_round(seed: u64, shards: usize) {
    let opts = Options::default();
    let spec = random_spec(&config(seed));
    let mut mirror = Mirror::new(&spec, shards, &opts);
    mirror.check(seed, "initial");
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    let mut shadow = spec;
    for step in 0..STREAM_LEN {
        let delta = random_delta(&[&shadow], &DeltaMix::UPDATES, &mut rng);
        if mirror.step(&delta, seed, step) {
            shadow.apply_delta(&delta).expect("admissible by draw");
            // CPS stays in agreement after every applied delta.
            let un = mirror.unsharded.cps().unwrap();
            assert_eq!(
                (un, un),
                (mirror.sharded.cps().unwrap(), mirror.handle.cps().unwrap()),
                "CPS diverged mid-stream (seed {seed}, N={shards}, step {step})"
            );
        }
    }
    mirror.check(seed, "post-stream");

    // Sharded compaction: shard-local renumbering must preserve every
    // live tuple (translated through the report).
    let live: Vec<(TupleId, Tuple)> = mirror
        .unsharded
        .spec()
        .instance(T)
        .tuples()
        .map(|(id, t)| (id, t.clone()))
        .collect();
    let report = mirror
        .sharded
        .compact_step(&CompactBudget::UNBOUNDED)
        .expect("compaction succeeds");
    assert_eq!(
        mirror
            .serve
            .compact_step(&CompactBudget::UNBOUNDED)
            .expect("compaction succeeds"),
        report,
        "sharded front doors compacted apart (seed {seed}, N={shards})"
    );
    for (old, tuple) in live {
        let g = mirror.map[0][&old];
        let ng = report.new_id(T, g).expect("live tuples survive compaction");
        let (s, l) = locate(shards, ng);
        let kept = mirror.sharded.shard(s).spec().instance(T).tuple(l);
        assert_eq!(kept.eid, tuple.eid, "compaction moved a tuple's entity");
        assert_eq!(
            kept.values, tuple.values,
            "compaction moved a tuple's values"
        );
    }
    // The unsharded engine compacts too, the id map follows both
    // reports, and every check holds again.
    let un_report = mirror
        .unsharded
        .compact_step(&CompactBudget::UNBOUNDED)
        .expect("compaction succeeds");
    for (r, ids) in mirror.map.iter_mut().enumerate() {
        let rel = RelId(r as u32);
        let moved = |(&u, &g): (&TupleId, &TupleId)| {
            Some((un_report.new_id(rel, u)?, report.new_id(rel, g)?))
        };
        *ids = ids.iter().filter_map(moved).collect();
    }
    mirror.check(seed, "post-compaction");

    // Stats aggregate exactly field-wise.
    let stats = mirror.sharded.stats();
    assert_eq!(stats.per_shard.len(), shards);
    assert_eq!(
        stats.total.components,
        stats.per_shard.iter().map(|s| s.components).sum::<usize>()
    );
    assert_eq!(
        stats.total.updates_applied,
        stats
            .per_shard
            .iter()
            .map(|s| s.updates_applied)
            .sum::<usize>()
    );
    assert_eq!(
        stats.total.compact_steps,
        stats
            .per_shard
            .iter()
            .map(|s| s.compact_steps)
            .sum::<usize>()
    );
}

/// The CI anchor: 10k seeds from `CHAOS_SEED` in release (a slice
/// under debug), every shard count.
#[test]
fn pinned_seed_range_sharded_differential() {
    for seed in pinned_seeds(100, 10_000) {
        for shards in SHARD_COUNTS {
            differential_round(seed, shards);
        }
    }
}

/// Rebuild `spec` with every instance's tuples inserted in reverse
/// order (ids renumbered), carrying over orders, constraints, and copy
/// mappings — same content, different insertion order.
fn reversed_spec(spec: &Specification) -> Specification {
    let mut out = Specification::new(spec.catalog().clone());
    let mut tables: Vec<HashMap<TupleId, TupleId>> = Vec::new();
    for (r, inst) in spec.instances().iter().enumerate() {
        let rel = RelId(r as u32);
        let mut table = HashMap::new();
        let live: Vec<(TupleId, Tuple)> = inst.tuples().map(|(id, t)| (id, t.clone())).collect();
        for (old, tuple) in live.into_iter().rev() {
            let new = out
                .instance_mut(rel)
                .push_tuple(tuple)
                .expect("schema shared");
            table.insert(old, new);
        }
        for a in 0..inst.arity() {
            let attr = AttrId(a as u32);
            for (l, g) in inst.order(attr).iter() {
                out.instance_mut(rel)
                    .add_order(attr, table[&l], table[&g])
                    .expect("acyclic in the original");
            }
        }
        tables.push(table);
    }
    for dc in spec.constraints() {
        out.add_constraint(dc.clone()).expect("valid in original");
    }
    for cf in spec.copies() {
        let sig = cf.signature();
        let mut rebuilt = CopyFunction::new(sig.clone());
        for (t, s) in cf.mappings() {
            rebuilt.set_mapping(
                tables[sig.target.index()][&t],
                tables[sig.source.index()][&s],
            );
        }
        out.add_copy(rebuilt).expect("copying condition unchanged");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    // The 10k-seed sweep: every shard count agrees with the unsharded
    // engine across a random delta stream.
    #[test]
    fn sharded_engine_agrees_with_unsharded(seed in 0u64..10_000) {
        for shards in SHARD_COUNTS {
            differential_round(seed, shards);
        }
    }

    // Routing determinism: the shard assignment is a function of the
    // specification's *content* — rebuilding the same specification
    // with a different tuple insertion order yields the identical plan.
    #[test]
    fn shard_assignment_ignores_insertion_order(seed in 0u64..10_000) {
        let spec = random_spec(&config(seed));
        let rev = reversed_spec(&spec);
        for shards in SHARD_COUNTS {
            let a = ShardPlan::from_spec(shards, &spec);
            let b = ShardPlan::from_spec(shards, &rev);
            prop_assert_eq!(&a, &b, "plans diverged (seed {}, N={})", seed, shards);
            // Copy closures are co-located.
            for cf in spec.copies() {
                let sig = cf.signature();
                for (t, s) in cf.mappings() {
                    let te = spec.instance(sig.target).tuple(t).eid;
                    let se = spec.instance(sig.source).tuple(s).eid;
                    prop_assert_eq!(
                        a.shard_of(te),
                        a.shard_of(se),
                        "copy-linked entities split (seed {}, N={})",
                        seed,
                        shards
                    );
                }
            }
        }
    }
}

/// Two entities that hash to different shards under `plan` (found by
/// scanning — the hash is fixed, so this is deterministic).
fn split_pair(plan: &ShardPlan) -> (Eid, Eid) {
    let a = Eid(0);
    for i in 1..64 {
        if plan.shard_of(Eid(i)) != plan.shard_of(a) {
            return (a, Eid(i));
        }
    }
    panic!("splitmix64 mapped 64 consecutive eids to one of 8 shards");
}

fn two_entity_spec(eids: (Eid, Eid)) -> Specification {
    let mut catalog = data_currency::model::Catalog::new();
    let r = catalog.add(data_currency::model::RelationSchema::new("R", &["A"]));
    assert_eq!(r, T);
    let mut spec = Specification::new(catalog);
    spec.instance_mut(T)
        .push_tuple(Tuple::new(eids.0, vec![Value::int(0)]))
        .unwrap();
    spec.instance_mut(T)
        .push_tuple(Tuple::new(eids.1, vec![Value::int(1)]))
        .unwrap();
    spec
}

/// Policy: a delta anchored in two shards is rejected whole.
#[test]
fn cross_shard_delta_is_rejected() {
    let opts = Options::default();
    let probe = ShardPlan::from_spec(8, &two_entity_spec((Eid(0), Eid(1))));
    let eids = split_pair(&probe);
    let spec = two_entity_spec(eids);
    let mut engine = ShardedEngine::new(&spec, 8, &opts).unwrap();
    let ga = engine.import().new_id(T, TupleId(0)).unwrap();
    let gb = engine.import().new_id(T, TupleId(1)).unwrap();
    let mut delta = SpecDelta::new();
    delta.remove_tuple(T, ga).remove_tuple(T, gb);
    match engine.apply(&delta) {
        Err(ShardError::CrossShard { shards }) => assert_eq!(shards.len(), 2),
        other => panic!("expected CrossShard rejection, got {other:?}"),
    }
    // Rejection is atomic: both tuples are still live.
    assert_eq!(
        engine
            .shard(engine.plan().shard_of(eids.0))
            .spec()
            .instance(T)
            .live_len(),
        1
    );
    assert_eq!(
        engine
            .shard(engine.plan().shard_of(eids.1))
            .spec()
            .instance(T)
            .live_len(),
        1
    );
    // Each half applies on its own.
    let mut half = SpecDelta::new();
    half.remove_tuple(T, ga);
    engine.apply(&half).expect("single-shard half applies");
}

/// Policy: structure and entity operations never ride together.
#[test]
fn mixed_delta_is_rejected() {
    let opts = Options::default();
    let spec = two_entity_spec((Eid(0), Eid(1)));
    let mut engine = ShardedEngine::new(&spec, 4, &opts).unwrap();
    let dc = monotone(T, AttrId(0));
    let mut delta = SpecDelta::new();
    delta
        .insert_tuple(T, Tuple::new(Eid(0), vec![Value::int(2)]))
        .add_constraint(dc);
    assert!(matches!(engine.apply(&delta), Err(ShardError::MixedDelta)));
}

/// Structure-only deltas broadcast: every shard learns the constraint.
#[test]
fn constraints_broadcast_to_every_shard() {
    let opts = Options::default();
    let spec = two_entity_spec((Eid(0), Eid(1)));
    let mut engine = ShardedEngine::new(&spec, 4, &opts).unwrap();
    let dc = monotone(T, AttrId(0));
    let mut delta = SpecDelta::new();
    delta.add_constraint(dc);
    let report = engine.apply(&delta).unwrap();
    assert!(report.broadcast);
    assert_eq!(report.shard, None);
    for k in 0..engine.shards() {
        assert_eq!(engine.shard(k).spec().constraints().len(), 1);
    }
}

/// The cross-shard join: ("a", paris) and ("b", paris) are two entities
/// a 2-way split places apart.  `Q(y) :- R("a", y) ∧ R("b", y)` is
/// certainly `paris`, but no shard holds both witnesses, so the union
/// of per-shard answers is `[]`.  Every sharded front door refuses the
/// query instead; a one-shard split answers it exactly.
#[test]
fn cross_shard_join_is_refused_not_answered_empty() {
    let mut catalog = data_currency::model::Catalog::new();
    let r = catalog.add(data_currency::model::RelationSchema::new(
        "R",
        &["name", "city"],
    ));
    let mut spec = Specification::new(catalog);
    let (a, b) = split_pair(&ShardPlan::from_spec(2, &spec));
    for (eid, name) in [(a, "a"), (b, "b")] {
        spec.instance_mut(r)
            .push_tuple(Tuple::new(eid, vec![Value::str(name), Value::str("paris")]))
            .unwrap();
    }
    let q = parse_query(spec.catalog(), "Q(y) :- R('a', y) and R('b', y)").unwrap();
    let opts = Options::default();
    let paris = CertainAnswers::Answers(vec![vec![Value::str("paris")]]);
    let unsharded = CurrencyEngine::new(&spec, &opts).unwrap();
    assert_eq!(unsharded.certain_answers(&q).unwrap(), paris);

    let engine = ShardedEngine::new(&spec, 2, &opts).unwrap();
    assert_ne!(engine.plan().shard_of(a), engine.plan().shard_of(b));
    let serve = ShardedServe::new(&spec, 2, &opts, &ServeOptions::default()).unwrap();
    let mut handle = serve.handle();
    assert_refused(engine.certain_answers(&q), handle.certain_answers(&q));
    let row = [Value::str("paris")];
    assert!(matches!(
        engine.ccqa(&q, &row),
        Err(ReasonError::UnsupportedQuery { .. })
    ));
    assert!(matches!(
        handle.ccqa(&q, &row),
        Err(ServeError::Reason(ReasonError::UnsupportedQuery { .. }))
    ));
    let dir = std::env::temp_dir().join(format!("currency-shjoin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_opts = StoreOptions {
        sync_data: false,
        ..StoreOptions::default()
    };
    let store = ShardedStore::create(&dir, &spec, 2, &opts, store_opts).unwrap();
    assert!(matches!(
        store.certain_answers(&q),
        Err(ReasonError::UnsupportedQuery { .. })
    ));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let single = ShardedEngine::new(&spec, 1, &opts).unwrap();
    assert_eq!(single.certain_answers(&q).unwrap(), paris);
}

/// After a recovery, an entity whose tuples were all retracted routes by
/// hash again.  A copy source placed with its target, not by its own
/// hash, then routes to a shard other than the one its old ids name.  A
/// delta naming such an id is rejected; it must not reach the same
/// local id in the hashed shard, where another entity's tuple sits.
#[test]
fn stale_id_of_a_rehashed_entity_is_rejected() {
    let opts = Options::default();
    let mut catalog = data_currency::model::Catalog::new();
    let t = catalog.add(data_currency::model::RelationSchema::new("T", &["A"]));
    let src = catalog.add(data_currency::model::RelationSchema::new("Src", &["A"]));
    let mut spec = Specification::new(catalog);
    let probe = ShardPlan::from_spec(2, &spec);
    let (a, b) = split_pair(&probe);
    let c = (b.0 + 1..b.0 + 64)
        .map(Eid)
        .find(|&e| probe.shard_of(e) == probe.shard_of(b))
        .expect("splitmix64 fills both of 2 shards");
    let ta = spec
        .instance_mut(t)
        .push_tuple(Tuple::new(a, vec![Value::int(1)]))
        .unwrap();
    let sb = spec
        .instance_mut(src)
        .push_tuple(Tuple::new(b, vec![Value::int(1)]))
        .unwrap();
    spec.instance_mut(src)
        .push_tuple(Tuple::new(c, vec![Value::int(2)]))
        .unwrap();
    let sig =
        data_currency::model::CopySignature::new(t, vec![AttrId(0)], src, vec![AttrId(0)]).unwrap();
    let mut cf = CopyFunction::new(sig);
    cf.set_mapping(ta, sb);
    spec.add_copy(cf).unwrap();

    let mut engine = ShardedEngine::new(&spec, 2, &opts).unwrap();
    let home = engine.plan().shard_of(a);
    assert_eq!(engine.plan().shard_of(b), home, "b is placed with a");
    let gb = engine.import().new_id(src, sb).unwrap();
    let mut retract = SpecDelta::new();
    retract.remove_tuple(src, gb);
    engine.apply(&retract).unwrap();

    let engines = (0..2)
        .map(|k| CurrencyEngine::new_owned(engine.shard(k).spec().clone(), &opts).unwrap())
        .collect();
    let mut recovered = Sharded::recover(engines);
    let hashed = recovered.plan().shard_of(b);
    assert_ne!(hashed, home, "b routes by hash after recovery");
    match recovered.apply(&retract) {
        Err(ShardError::CrossShard { shards }) => assert_eq!(shards.len(), 2),
        other => panic!("expected CrossShard, got {:?}", other.map(|_| ())),
    }
    assert_eq!(
        recovered.shard(hashed).spec().instance(src).live_len(),
        1,
        "c's tuple is untouched"
    );
}
