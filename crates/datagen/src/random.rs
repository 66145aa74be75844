//! Seeded random specifications, delta streams and seed ranges.
//!
//! Drives the differential tests (exact SAT solver vs. the brute-force
//! enumerator vs. the PTIME algorithms, every front door vs. a fresh
//! engine) and the scaling benchmarks.  All generation is deterministic
//! in the seed.

use currency_core::{
    AttrId, Catalog, CmpOp, CopyFunction, CopySignature, DenialConstraint, Eid, RelId,
    RelationSchema, SpecDelta, Specification, Term, Tuple, TupleId, Value,
};
use currency_reason::shard::{global_id, locate};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// The target relation of [`random_spec`].
const T: RelId = RelId(0);
/// The source relation of [`random_spec`] (with `with_copy`).
const SRC: RelId = RelId(1);

/// Parameters for [`random_spec`].
#[derive(Clone, Debug)]
pub struct RandomSpecConfig {
    /// Number of entities per relation.
    pub entities: usize,
    /// Tuples per entity: uniform in `min..=max`.
    pub tuples_per_entity: (usize, usize),
    /// Number of proper attributes per relation.
    pub attrs: usize,
    /// Attribute values are drawn from `0..value_pool`.
    pub value_pool: i64,
    /// Probability of asserting an initial order edge between a pair of
    /// same-entity tuples (oriented by tuple id, hence acyclic).
    pub order_density: f64,
    /// Number of "monotone" constraints (`higher A ⇒ more current A`).
    pub monotone_constraints: usize,
    /// Number of "correlated" constraints (`≺_A ⇒ ≺_B`).
    pub correlated_constraints: usize,
    /// Whether to add a second (source) relation with a copy function
    /// importing into the first.
    pub with_copy: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomSpecConfig {
    fn default() -> Self {
        RandomSpecConfig {
            entities: 2,
            tuples_per_entity: (2, 3),
            attrs: 2,
            value_pool: 3,
            order_density: 0.2,
            monotone_constraints: 0,
            correlated_constraints: 0,
            with_copy: false,
            seed: 0,
        }
    }
}

/// Generate a valid random specification.
///
/// The target relation is `RelId(0)`; when `with_copy` is set a source
/// relation `RelId(1)` with identical schema is added, together with a
/// full-signature copy function mapping a random subset of target tuples
/// to value-equal source tuples (the source tuples are created to match,
/// so the copying condition always holds).
pub fn random_spec(cfg: &RandomSpecConfig) -> Specification {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let attr_names: Vec<String> = (0..cfg.attrs).map(|i| format!("A{i}")).collect();
    let attr_refs: Vec<&str> = attr_names.iter().map(|s| s.as_str()).collect();
    let mut cat = Catalog::new();
    let target = cat.add(RelationSchema::new("T", &attr_refs));
    let source = if cfg.with_copy {
        Some(cat.add(RelationSchema::new("Src", &attr_refs)))
    } else {
        None
    };
    let mut spec = Specification::new(cat);
    let mut target_tuples: Vec<TupleId> = Vec::new();
    for e in 0..cfg.entities {
        let count = rng.gen_range(cfg.tuples_per_entity.0..=cfg.tuples_per_entity.1);
        for _ in 0..count {
            let values: Vec<Value> = (0..cfg.attrs)
                .map(|_| Value::int(rng.gen_range(0..cfg.value_pool)))
                .collect();
            target_tuples.push(
                spec.instance_mut(target)
                    .push_tuple(Tuple::new(Eid(e as u64), values))
                    .expect("arity"),
            );
        }
    }
    // Initial orders: orient by tuple id so the raw pairs are acyclic.
    for a in 0..cfg.attrs {
        let attr = AttrId(a as u32);
        for i in 0..target_tuples.len() {
            for jj in (i + 1)..target_tuples.len() {
                let (u, v) = (target_tuples[i], target_tuples[jj]);
                let same_entity =
                    spec.instance(target).tuple(u).eid == spec.instance(target).tuple(v).eid;
                if same_entity && rng.gen_bool(cfg.order_density) {
                    spec.instance_mut(target)
                        .add_order(attr, u, v)
                        .expect("same entity");
                }
            }
        }
    }
    // Constraints.
    for _ in 0..cfg.monotone_constraints {
        let attr = AttrId(rng.gen_range(0..cfg.attrs) as u32);
        spec.add_constraint(monotone(target, attr))
            .expect("target relation constraint");
    }
    for _ in 0..cfg.correlated_constraints {
        let a = AttrId(rng.gen_range(0..cfg.attrs) as u32);
        let b = AttrId(rng.gen_range(0..cfg.attrs) as u32);
        let dc = DenialConstraint::builder(target, 2)
            .when_order(0, a, 1)
            .then_order(0, b, 1)
            .build()
            .expect("correlated constraint");
        spec.add_constraint(dc).expect("target relation constraint");
    }
    // Copy function: source tuples mirror a random subset of the target.
    if let Some(src) = source {
        let sig_attrs: Vec<AttrId> = (0..cfg.attrs).map(|i| AttrId(i as u32)).collect();
        let sig = CopySignature::new(target, sig_attrs.clone(), src, sig_attrs).expect("signature");
        let mut cf = CopyFunction::new(sig);
        for &tid in &target_tuples {
            if rng.gen_bool(0.5) {
                let t = spec.instance(target).tuple(tid).clone();
                // Source entities mirror target entities (shifted ids), so
                // same-entity target pairs map to same-entity source pairs
                // and ≺-compatibility has bite.
                let sid = spec
                    .instance_mut(src)
                    .push_tuple(Tuple::new(Eid(t.eid.0 + 100), t.values.clone()))
                    .expect("arity");
                cf.set_mapping(tid, sid);
            }
        }
        // Random initial orders on the source side.
        let src_tuples: Vec<TupleId> = spec.instance(src).tuples().map(|(id, _)| id).collect();
        for a in 0..cfg.attrs {
            let attr = AttrId(a as u32);
            for i in 0..src_tuples.len() {
                for jj in (i + 1)..src_tuples.len() {
                    let (u, v) = (src_tuples[i], src_tuples[jj]);
                    let same = spec.instance(src).tuple(u).eid == spec.instance(src).tuple(v).eid;
                    if same && rng.gen_bool(cfg.order_density) {
                        spec.instance_mut(src)
                            .add_order(attr, u, v)
                            .expect("same entity");
                    }
                }
            }
        }
        spec.add_copy(cf)
            .expect("copying condition by construction");
    }
    debug_assert!(spec.validate().is_ok());
    spec
}

/// "A higher value of `attr` is more current": `t0[attr] > t1[attr] ⇒
/// t1 ≺_attr t0`.
pub fn monotone(rel: RelId, attr: AttrId) -> DenialConstraint {
    DenialConstraint::builder(rel, 2)
        .when_cmp(Term::attr(0, attr), CmpOp::Gt, Term::attr(1, attr))
        .then_order(1, attr, 0)
        .build()
        .expect("monotone constraint")
}

/// "No reading of `rel` may carry value 1 in attribute 0": a value-only
/// constraint with a falsum conclusion, so every violating reading
/// grounds a premise-free falsum on its cell.
pub fn value_falsum(rel: RelId) -> DenialConstraint {
    DenialConstraint::builder(rel, 1)
        .when_cmp(
            Term::attr(0, AttrId(0)),
            CmpOp::Eq,
            Term::val(Value::int(1)),
        )
        .then_false()
        .build()
        .expect("falsum constraint")
}

/// The operation mix of [`random_delta`]: the relative weights of its
/// five operation kinds and the ranges an inserted reading draws from.
#[derive(Clone, Copy, Debug)]
pub struct DeltaMix {
    /// Insert a reading of a random entity.
    pub insert: u32,
    /// Retract a random live reading.
    pub retract: u32,
    /// Learn an initial-order fact on the first unordered same-entity
    /// pair.
    pub order: u32,
    /// Learn a constraint: [`DeltaMix::falsum`] decides which one.
    pub constraint: u32,
    /// Mirror the first unmapped target reading into the source (same
    /// values, entity shifted by 100, as [`random_spec`] does) and map
    /// it.
    pub copy: u32,
    /// Inserted readings belong to entities `0..entities`.
    pub entities: u64,
    /// Inserted values are drawn from `0..values`.
    pub values: i64,
    /// One learned constraint in `falsum` is [`value_falsum`], the others
    /// are monotone in a random attribute; `0` never draws the falsum.
    pub falsum: u32,
}

impl DeltaMix {
    /// Every operation kind over three entities and two values.
    pub const UPDATES: DeltaMix = DeltaMix {
        insert: 4,
        retract: 2,
        order: 2,
        constraint: 1,
        copy: 1,
        entities: 3,
        values: 2,
        falsum: 0,
    };
    /// Inserts, retractions, order facts and monotone constraints over
    /// three entities and two values; no copy extensions.
    pub const NO_COPY: DeltaMix = DeltaMix {
        insert: 5,
        copy: 0,
        ..DeltaMix::UPDATES
    };
}

/// Draw one admissible delta on the target relation of a [`random_spec`]
/// specification.
///
/// `view` is the current state: one specification in its own ids, or the
/// shards of a sharded one, in which case every id is global
/// ([`global_id`]).  Order facts are oriented by ascending id, so
/// initial orders stay acyclic.  A kind that cannot apply falls back:
///
/// * a retraction while nothing is live becomes the mix's last kind of
///   nonzero weight;
/// * an order fact with every same-entity pair ordered inserts
///   `(Eid(0), [0, ..])`;
/// * a copy extension with no unmapped reading inserts `(Eid(1), [1, ..])`,
///   and so does every copy extension over more than one shard, whose
///   source ids only the router assigns.
pub fn random_delta(view: &[&Specification], mix: &DeltaMix, rng: &mut SmallRng) -> SpecDelta {
    let n = view.len();
    let arity = view[0].instance(T).arity();
    let mut live: Vec<(TupleId, Eid)> = Vec::new();
    for (k, spec) in view.iter().enumerate() {
        let tuples = spec.instance(T).tuples();
        live.extend(tuples.map(|(id, t)| (global_id(n, k, id), t.eid)));
    }
    live.sort();
    let weights = [mix.insert, mix.retract, mix.order, mix.constraint, mix.copy];
    let mut pick = rng.gen_range(0..weights.iter().sum::<u32>());
    let mut kind = 0;
    while pick >= weights[kind] {
        pick -= weights[kind];
        kind += 1;
    }
    if kind == 1 && live.is_empty() {
        kind = weights.iter().rposition(|&w| w > 0).expect("some weight");
    }
    let mut delta = SpecDelta::new();
    match kind {
        0 => {
            let eid = Eid(rng.gen_range(0..mix.entities));
            let values = (0..arity)
                .map(|_| Value::int(rng.gen_range(0..mix.values)))
                .collect();
            delta.insert_tuple(T, Tuple::new(eid, values));
        }
        1 if !live.is_empty() => {
            delta.remove_tuple(T, live[rng.gen_range(0..live.len())].0);
        }
        2 => {
            let attr = AttrId(rng.gen_range(0..arity) as u32);
            let ordered = |u: TupleId, v: TupleId| {
                let ((k, lu), (kv, lv)) = (locate(n, u), locate(n, v));
                debug_assert_eq!(k, kv, "one entity, one shard");
                view[k].instance(T).order(attr).contains(lu, lv)
            };
            let pair = live.iter().enumerate().find_map(|(i, &(u, eu))| {
                live[i + 1..]
                    .iter()
                    .find_map(|&(v, ev)| (eu == ev && !ordered(u, v)).then_some((u, v)))
            });
            match pair {
                Some((u, v)) => delta.add_order_edge(T, attr, u, v),
                None => delta.insert_tuple(T, Tuple::new(Eid(0), vec![Value::int(0); arity])),
            };
        }
        3 => {
            if mix.falsum > 0 && rng.gen_range(0..mix.falsum) == 0 {
                delta.add_constraint(value_falsum(T));
            } else {
                let attr = AttrId(rng.gen_range(0..arity) as u32);
                delta.add_constraint(monotone(T, attr));
            }
        }
        4 => {
            let spec = view[0];
            let copy = spec.copies().first().filter(|_| n == 1);
            let unmapped = copy.and_then(|cf| live.iter().find(|&&(t, _)| cf.mapping(t).is_none()));
            match unmapped {
                Some(&(target, _)) => {
                    let t = spec.instance(T).tuple(target).clone();
                    let source = TupleId(spec.instance(SRC).len() as u32);
                    delta
                        .insert_tuple(SRC, Tuple::new(Eid(t.eid.0 + 100), t.values))
                        .extend_copy(0, target, source);
                }
                None => {
                    delta.insert_tuple(T, Tuple::new(Eid(1), vec![Value::int(1); arity]));
                }
            }
        }
        // A retraction with nothing live, in a mix whose last kind it is.
        _ => {}
    }
    if delta.is_empty() {
        delta.insert_tuple(T, Tuple::new(Eid(0), vec![Value::int(0); arity]));
    }
    delta
}

/// The pinned seed range of a differential sweep: `debug` seeds under
/// the debug profile, `release` otherwise, starting at the `CHAOS_SEED`
/// environment variable (default `20260808`), so a run replays exactly.
pub fn pinned_seeds(debug: u64, release: u64) -> Range<u64> {
    let first = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_808);
    first
        ..first
            + if cfg!(debug_assertions) {
                debug
            } else {
                release
            }
}

#[cfg(test)]
mod tests {
    use super::*;
    use currency_core::RelId;

    #[test]
    fn generation_is_deterministic() {
        let cfg = RandomSpecConfig {
            seed: 11,
            with_copy: true,
            monotone_constraints: 1,
            ..Default::default()
        };
        let a = random_spec(&cfg);
        let b = random_spec(&cfg);
        assert_eq!(a.instance(RelId(0)).len(), b.instance(RelId(0)).len());
        assert_eq!(a.instance(RelId(1)).len(), b.instance(RelId(1)).len());
        assert_eq!(a.total_copy_size(), b.total_copy_size());
    }

    #[test]
    fn generated_specs_validate() {
        for seed in 0..30 {
            let cfg = RandomSpecConfig {
                seed,
                entities: 3,
                with_copy: seed % 2 == 0,
                monotone_constraints: (seed % 3) as usize,
                correlated_constraints: (seed % 2) as usize,
                order_density: 0.3,
                ..Default::default()
            };
            let spec = random_spec(&cfg);
            assert!(spec.validate().is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn constraint_free_mode() {
        let cfg = RandomSpecConfig::default();
        let spec = random_spec(&cfg);
        assert!(spec.has_no_constraints());
    }
}
