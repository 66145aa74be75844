//! Encoding identity of the compile-time grounding.
//!
//! The engines ground each component's denial rules and copy obligations
//! while compiling it (`ComponentCompiler`), from buffers reused across
//! compiles.  The reference (`currency_reason::oracle`) grounds the way
//! the partition used to: every constraint per cell, every copy's
//! obligations per region, collected into vectors first.  Both feed the
//! same CNF construction, so the compiled encodings must be structurally
//! identical — the same order-variable table, value choices, level-zero
//! trail and stored clauses in the same order — for every component.
//!
//! Each seed builds a specification from the `engine_differential`
//! generator space, then streams random inserts, retracts, copy
//! extensions, new constraints (a premise-free falsum among them) and
//! budgeted compaction steps through a `CurrencyEngine`.  After every
//! step, for every live slot:
//!
//! * a fresh streamed compile (from one scratch shared across the whole
//!   seed) and the reference compile, both unsolved, and
//! * the engine's published slot (compiled from its own reused scratch,
//!   solved at compile time and published) and the reference compile
//!   after the same solve, published through the same conversion
//!   (`Encoding::published_shape`): a decided component's variable map
//!   and model, its level-zero literals sorted by variable, else the
//!   packed clone of the whole encoding
//!
//! must have equal shapes, and the partition's components must be the
//! reference components (a union–find over every enumerated obligation).
//! On one seed in five the streamed and reference compiles with every
//! transitivity triangle grounded up front (the eager mode only the
//! reference encodings use) must have equal shapes too.
//!
//! 10k seeds in release, 100 under the debug profile, from the shared
//! generator (`datagen::random::random_delta`) and seed range
//! (`pinned_seeds`), so CI replays one pinned range.

use data_currency::datagen::random::{
    pinned_seeds, random_delta, random_spec, value_falsum, DeltaMix, RandomSpecConfig,
};
use data_currency::model::{AttrId, Eid, RelId, Specification, Value};
use data_currency::reason::encode::{Bounds, CompileScratch, ComponentCompiler};
use data_currency::reason::oracle::{reference_components, reference_encoding, TransitivityMode};
use data_currency::reason::{CompactBudget, CurrencyEngine, Options};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Duration;

/// Writes (deltas or compaction steps) per seed.
const STEPS: usize = 8;

const T: RelId = RelId(0);

/// Inserts over four entities and three values, retractions (mappings
/// onto them cascade away), learned constraints (one in three the
/// premise-free falsum) and copy extensions, which link the two cells
/// once a second mapping of the entity lands.
const MIX: DeltaMix = DeltaMix {
    insert: 4,
    retract: 3,
    order: 0,
    constraint: 1,
    copy: 4,
    entities: 4,
    values: 3,
    falsum: 3,
};

/// The `engine_differential` generator space: three entities, one to
/// three readings each, two attributes, with or without constraints
/// and a copy function depending on the seed.
fn spec_for(seed: u64) -> Specification {
    random_spec(&RandomSpecConfig {
        entities: 3,
        tuples_per_entity: (1, 3),
        attrs: 2,
        value_pool: 2,
        order_density: 0.25,
        monotone_constraints: usize::from(!seed.is_multiple_of(4)),
        correlated_constraints: (seed % 2) as usize,
        with_copy: !seed.is_multiple_of(3),
        seed,
    })
}

/// What a run of rounds exercised, so the sweep can prove it reached
/// linked components, falsum components and real compaction.
#[derive(Default)]
struct Coverage {
    linked_components: usize,
    decided_components: usize,
    falsum_components: usize,
    reclaimed: usize,
}

/// Every live slot: engine encoding, streamed compile and reference
/// compile agree; the partition is the reference partition.  With
/// `eager`, the streamed and reference compiles with every triangle
/// grounded up front must agree too.
fn check(
    engine: &CurrencyEngine,
    scratch: &mut CompileScratch,
    coverage: &mut Coverage,
    eager: bool,
    seed: u64,
    step: usize,
) {
    let spec = engine.spec();
    let value_rels: Vec<RelId> = spec.instances().iter().map(|i| i.rel()).collect();
    let partition = engine.partition();
    let compiler = ComponentCompiler::new(spec, &value_rels);
    let mut components = Vec::new();
    for slot in 0..partition.slots() {
        let component = partition.component(slot);
        if component.cells.is_empty() {
            continue;
        }
        components.push(component.cells.clone());
        if eager {
            assert_eq!(
                compiler
                    .compile_in(component, TransitivityMode::Eager, scratch)
                    .shape(),
                reference_encoding(spec, &value_rels, component, TransitivityMode::Eager).shape(),
                "seed {seed} step {step} slot {slot}: eager streamed compile"
            );
        }
        let mut reference_enc =
            reference_encoding(spec, &value_rels, component, TransitivityMode::Lazy);
        let reference = reference_enc.shape();
        let streamed = compiler.compile(component, scratch).shape();
        assert_eq!(
            streamed, reference,
            "seed {seed} step {step} slot {slot}: streamed compile"
        );
        let outcome = reference_enc
            .solve(&[], &Bounds::default())
            .expect("no bound, no interrupt");
        assert_eq!(
            engine.slot_shape(slot),
            reference_enc.published_shape(outcome),
            "seed {seed} step {step} slot {slot}: engine encoding"
        );
        coverage.linked_components += usize::from(component.cells.len() > 1);
        coverage.falsum_components += usize::from(reference.ground_falsum);
    }
    coverage.decided_components += engine.stats().decided_components;
    components.sort();
    let expected: Vec<BTreeSet<(RelId, Eid)>> = reference_components(spec);
    assert_eq!(components, expected, "seed {seed} step {step}: partition");
}

fn identity_round(seed: u64, coverage: &mut Coverage) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_c0de);
    let opts = Options {
        // Tombstones are reclaimed by the explicit steps below only.
        auto_compact_tombstones: 0,
        ..Options::default()
    };
    let eager = seed.is_multiple_of(5);
    let mut engine = CurrencyEngine::new_owned(spec_for(seed), &opts).expect("valid spec");
    let mut scratch = CompileScratch::default();
    check(&engine, &mut scratch, coverage, eager, seed, 0);
    for step in 1..=STEPS {
        if rng.gen_range(0..4u32) == 0 {
            let budget = CompactBudget {
                max_pause: Duration::from_secs(60),
                max_slots_per_step: rng.gen_range(1..4),
            };
            coverage.reclaimed += engine
                .compact_step(&budget)
                .expect("compaction step")
                .reclaimed;
        } else {
            let delta = random_delta(&[engine.spec()], &MIX, &mut rng);
            engine.apply(&delta).expect("admissible delta");
        }
        check(&engine, &mut scratch, coverage, eager, seed, step);
    }
}

/// Run `seeds` and require that they reached every case.
fn sweep(seeds: std::ops::Range<u64>) {
    let mut coverage = Coverage::default();
    for seed in seeds {
        identity_round(seed, &mut coverage);
    }
    assert!(coverage.linked_components > 0, "no copy-linked component");
    assert!(coverage.decided_components > 0, "no decided component");
    assert!(coverage.falsum_components > 0, "no falsum component");
    assert!(coverage.reclaimed > 0, "no compaction reclaimed a slot");
}

/// The CI anchor: the full 10k seeds from `CHAOS_SEED` in release, a
/// slice under debug.
#[test]
fn pinned_seed_range_encoding_identity() {
    sweep(pinned_seeds(100, 10_000));
}

/// The low seeds the `engine_differential` sweeps start from, so the two
/// suites cover the same specifications.
#[test]
fn engine_differential_seeds_compile_identically() {
    sweep(0..if cfg!(debug_assertions) { 50 } else { 1_000 });
}

/// The stream really reaches the premise-free falsum: some seed's engine
/// holds a falsum component, and the identity holds there too.
#[test]
fn falsum_components_compile_identically() {
    let mut spec = spec_for(1);
    spec.add_constraint(value_falsum(T))
        .expect("valid constraint");
    let engine = CurrencyEngine::new_owned(spec, &Options::default()).expect("valid spec");
    let mut scratch = CompileScratch::default();
    check(&engine, &mut scratch, &mut Coverage::default(), true, 1, 0);
    let partition = engine.partition();
    let falsum = (0..partition.slots()).any(|slot| engine.slot_shape(slot).ground_falsum);
    let violating = engine
        .spec()
        .instance(T)
        .tuples()
        .any(|(_, t)| t.value(AttrId(0)) == &Value::int(1));
    assert_eq!(falsum, violating);
}
