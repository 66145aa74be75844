//! Seed-driven differential suite for incremental compaction.
//!
//! Three independent referees check the bounded-pause compaction path:
//!
//! 1. **The reference sweep** — after an arbitrary interleaving of
//!    deltas and budgeted steps, a full drain must land on the exact
//!    wire-encoded bytes the core `Specification::compact` pass produces
//!    (and so must the twin engine's one unbounded step), and the
//!    reference translation tables must agree on where every live tuple
//!    ended up.
//! 2. **A fresh engine** — verdicts (CPS, all-pairs COP, DCIP, certain
//!    answers) of the long-lived incrementally-compacted engine must
//!    match an engine compiled from scratch over the same specification.
//! 3. **The enumeration oracle** — where the completion space is small
//!    enough, the same verdicts are checked against brute-force
//!    enumeration of `Mod(S)`.
//!
//! Referees 2 and 3 are the shared agreement check
//! (`currency_reason::oracle::assert_agreement`).
//!
//! A fourth test aims [`ChaosVfs`] faults at every I/O operation inside a
//! durable compaction step: a crash at a step boundary must recover to
//! either the pre-step or the post-step state — never a half-remap.
//!
//! The suite is seed-driven: `SEEDS` random specifications in release
//! (the "10k-seed" differential), a smaller count under the debug
//! profile so tier-1 stays fast.  The chaos test takes its seed from
//! `pinned_seeds` (the `CHAOS_SEED` environment variable, default
//! `20260808`) so CI replays one fixed fault schedule.

use std::collections::BTreeSet;
use std::sync::Arc;

use currency_core::{wire, Eid, RelId, SpecDelta, Tuple, TupleId, Value};
use currency_datagen::random::{pinned_seeds, random_spec, RandomSpecConfig};
use currency_reason::oracle::assert_agreement;
use currency_reason::{CompactBudget, CurrencyEngine, Options};
use currency_store::{ChaosPlan, ChaosVfs, DurableEngine, RealVfs, StoreOptions};

/// Seeds per differential test: the full 10k sweep in release, a fast
/// slice of the same space under the debug profile.
const SEEDS: u64 = if cfg!(debug_assertions) { 250 } else { 10_000 };

/// Candidate-space cap for the enumeration oracle; seeds whose
/// specification exceeds it skip referee 3 (referees 1–2 still run).
const ORACLE_LIMIT: usize = 4_096;

/// A tiny deterministic PRNG (xorshift64*), so the suite needs no
/// external randomness dependency and every failure reproduces from its
/// seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn small_cfg(seed: u64) -> RandomSpecConfig {
    RandomSpecConfig {
        entities: 2,
        tuples_per_entity: (1, 3),
        attrs: 2,
        value_pool: 4,
        order_density: 0.3,
        monotone_constraints: 1,
        correlated_constraints: seed.is_multiple_of(3) as usize,
        with_copy: seed.is_multiple_of(2),
        seed,
    }
}

/// One seed's differential run: interleave random deltas with
/// random-budget incremental steps on one engine while a twin engine
/// only accumulates the same deltas, then reconcile everything.
fn run_seed(seed: u64) {
    let mut rng = Rng::new(seed);
    let spec = random_spec(&small_cfg(seed));
    let opts = Options::default();
    let mut inc = CurrencyEngine::new_owned(spec.clone(), &opts).expect("seed spec compiles");
    let mut mono = CurrencyEngine::new_owned(spec, &opts).expect("seed spec compiles");

    // Live tuples: (rel, id in the monolithic engine, id in the
    // incremental engine).  The monolithic engine never compacts until
    // the end, so its ids are the original ids; the incremental ids are
    // tracked through each step's translation table.
    let mut live: Vec<(RelId, TupleId, TupleId)> = Vec::new();
    for inst in inc.spec().instances() {
        let rel = inst.rel();
        for (_, group) in inst.entity_groups() {
            for &t in group {
                live.push((rel, t, t));
            }
        }
    }

    let rels: Vec<RelId> = inc.spec().instances().iter().map(|i| i.rel()).collect();
    let rounds = 4 + rng.below(5);
    for _ in 0..rounds {
        let retract = !live.is_empty() && rng.below(10) < 4;
        if retract {
            let k = rng.below(live.len() as u64) as usize;
            let (rel, mono_id, inc_id) = live.swap_remove(k);
            let mut d = SpecDelta::new();
            d.remove_tuple(rel, mono_id);
            mono.apply(&d).expect("retract applies (mono)");
            let mut d = SpecDelta::new();
            d.remove_tuple(rel, inc_id);
            inc.apply(&d).expect("retract applies (inc)");
        } else {
            let rel = rels[rng.below(rels.len() as u64) as usize];
            let arity = inc.spec().instance(rel).arity();
            let eid = Eid(rng.below(2));
            let values: Vec<Value> = (0..arity)
                .map(|_| Value::int(rng.below(4) as i64))
                .collect();
            let mut d = SpecDelta::new();
            d.insert_tuple(rel, Tuple::new(eid, values));
            let mr = mono.apply(&d).expect("insert applies (mono)");
            let ir = inc.apply(&d).expect("insert applies (inc)");
            live.push((rel, mr.inserted[0].1, ir.inserted[0].1));
        }
        // Interleave a random-budget step (sometimes two) on the
        // incremental engine only.
        for _ in 0..rng.below(3) {
            let step = inc
                .compact_step(&CompactBudget {
                    max_slots_per_step: 1 + rng.below(4) as usize,
                })
                .expect("bounded step succeeds mid-churn");
            for entry in live.iter_mut() {
                entry.2 = step
                    .new_id(entry.0, entry.2)
                    .expect("live tuples survive compaction");
            }
        }
        assert_eq!(
            inc.cps().unwrap(),
            mono.cps().unwrap(),
            "seed {seed}: CPS diverged mid-churn"
        );
    }

    // Referee 1: full drain vs the core reference sweep.
    loop {
        let step = inc
            .compact_step(&CompactBudget {
                max_slots_per_step: 1 + rng.below(8) as usize,
            })
            .unwrap();
        for entry in live.iter_mut() {
            entry.2 = step.new_id(entry.0, entry.2).expect("live tuple survives");
        }
        if step.done {
            break;
        }
    }
    let mut reference = mono.spec().clone();
    let report = reference.compact();
    let unbounded = mono
        .compact_step(&CompactBudget::UNBOUNDED)
        .expect("unbounded compaction step");
    assert_eq!(unbounded.reclaimed, report.reclaimed, "seed {seed}");
    assert_eq!(
        wire::encode_spec(mono.spec()),
        wire::encode_spec(&reference),
        "seed {seed}: the unbounded step is not byte-identical to the reference sweep"
    );
    assert_eq!(
        wire::encode_spec(inc.spec()),
        wire::encode_spec(&reference),
        "seed {seed}: drained spec is not byte-identical to the reference sweep"
    );
    for (rel, mono_id, inc_id) in &live {
        assert_eq!(
            report.new_id(*rel, *mono_id),
            Some(*inc_id),
            "seed {seed}: translation tables disagree on a live tuple"
        );
    }

    // Referees 2 and 3: a fresh engine over the drained specification
    // and, within ORACLE_LIMIT candidates, the enumeration of Mod(S).
    assert_agreement(&mut &inc, inc.spec(), ORACLE_LIMIT, &format!("seed {seed}"));
}

#[test]
fn incremental_compaction_differential_over_seeds() {
    for seed in 0..SEEDS {
        run_seed(seed);
    }
}

/// Interleaved budgeted steps keep every translation composable: an id
/// held across a run of steps stays resolvable through the folded
/// composite, exactly like the durable layer's WAL replay requires.
/// (Translation only composes *forward*: the composite starts after the
/// last insert, since slices predating an id's allocation may map its
/// reused slot as dead.)
#[test]
fn step_reports_compose_across_interleavings() {
    for seed in 0..SEEDS / 5 {
        let spec = random_spec(&small_cfg(seed));
        let opts = Options::default();
        let mut rng = Rng::new(seed ^ 0xdead_beef);
        let mut engine = CurrencyEngine::new_owned(spec, &opts).unwrap();
        let rels: Vec<RelId> = engine.spec().instances().iter().map(|i| i.rel()).collect();
        // Phase 1: inserts only — establish the ids the composite must
        // keep resolvable.
        let mut tracked: Vec<(RelId, TupleId)> = Vec::new();
        for _ in 0..6 {
            let rel = rels[rng.below(rels.len() as u64) as usize];
            let arity = engine.spec().instance(rel).arity();
            let vals: Vec<Value> = (0..arity)
                .map(|_| Value::int(rng.below(4) as i64))
                .collect();
            let mut d = SpecDelta::new();
            d.insert_tuple(rel, Tuple::new(Eid(rng.below(2)), vals));
            tracked.push(engine.apply(&d).unwrap().inserted[0]);
        }
        // Phase 2: interleave retractions with bounded steps, folding
        // every step report into one composite.
        let mut composite = currency_core::CompactStepReport::default();
        let mut retracted: BTreeSet<usize> = BTreeSet::new();
        for round in 0..6 {
            if round % 2 == 1 {
                let k = rng.below(tracked.len() as u64) as usize;
                if retracted.insert(k) {
                    let (rel, id) = tracked[k];
                    // Still-live ids always resolve through the composite.
                    let cur = composite.new_id(rel, id).expect("live id resolves");
                    let mut d = SpecDelta::new();
                    d.remove_tuple(rel, cur);
                    engine.apply(&d).unwrap();
                }
            }
            let step = engine
                .compact_step(&CompactBudget {
                    max_slots_per_step: 1 + rng.below(3) as usize,
                })
                .unwrap();
            composite.absorb(step);
        }
        // Every insert-time id of a still-live tuple resolves through
        // the composite table to a distinct in-range slot; retracted
        // ids may resolve to None once their slot is reclaimed.
        let mut seen = BTreeSet::new();
        for (k, &(rel, id)) in tracked.iter().enumerate() {
            if retracted.contains(&k) {
                // A retracted tuple's id resolves to its (dead) slot
                // until some slice scans it, then to None — either is
                // fine; only live tuples carry guarantees.
                continue;
            }
            let cur = composite
                .new_id(rel, id)
                .unwrap_or_else(|| panic!("seed {seed}: a live tuple's id vanished"));
            assert!(
                engine.spec().instance(rel).tuple_checked(cur).is_ok(),
                "seed {seed}: composed id out of range"
            );
            assert!(
                seen.insert((rel, cur)),
                "seed {seed}: two old ids composed onto one slot"
            );
        }
    }
}

/// Durable compaction steps under fault injection: every I/O operation
/// inside an explicit `compact_step` gets one fault aimed at it, and the
/// store must recover to the pre-step or post-step state — never a
/// half-remap.  `CHAOS_SEED` pins the schedule of the randomized pass.
#[test]
fn chaos_faults_at_step_boundaries_never_half_remap() {
    let chaos_seed = pinned_seeds(1, 1).start;
    let base = std::env::temp_dir().join(format!(
        "compaction-chaos-{chaos_seed}-{}",
        std::process::id()
    ));

    // Explicit steps only: auto-compaction off so recovery never
    // backfills a policy step, keeping exactly two legal outcomes.
    let opts = Options {
        auto_compact_tombstones: 0,
        auto_compact_budget: Some(CompactBudget {
            max_slots_per_step: 2,
        }),
        ..Options::default()
    };
    let store_opts = StoreOptions::default(); // sync_data ON: every fault class is reachable
    let budget = CompactBudget {
        max_slots_per_step: 2,
    };
    let spec = random_spec(&small_cfg(chaos_seed % 97));
    let rels: Vec<RelId> = spec.instances().iter().map(|i| i.rel()).collect();

    // The workload up to the step under test: churn enough tombstones
    // that one bounded step leaves the sweep mid-flight.
    let churn =
        |durable: &mut DurableEngine, rng: &mut Rng| -> Result<(), currency_store::StoreError> {
            for _ in 0..4 {
                let rel = rels[rng.below(rels.len() as u64) as usize];
                let arity = durable.spec().instance(rel).arity();
                let vals: Vec<Value> = (0..arity)
                    .map(|_| Value::int(rng.below(4) as i64))
                    .collect();
                let mut d = SpecDelta::new();
                d.insert_tuple(rel, Tuple::new(Eid(rng.below(2)), vals));
                let rep = durable.apply(&d)?;
                let (r, id) = rep.inserted[0];
                let mut d = SpecDelta::new();
                d.remove_tuple(r, id);
                durable.apply(&d)?;
            }
            Ok(())
        };

    // Dry run against a fault-free chaos layer: learn the exact I/O
    // span of the compaction step and capture the two legal states.
    let dry_dir = base.join("dry");
    std::fs::create_dir_all(&dry_dir).unwrap();
    let probe = Arc::new(ChaosVfs::new(ChaosPlan::new()));
    let mut dry =
        DurableEngine::create_with_vfs(probe.clone(), &dry_dir, spec.clone(), &opts, store_opts)
            .unwrap();
    let mut rng = Rng::new(chaos_seed);
    churn(&mut dry, &mut rng).unwrap();
    let before_step = wire::encode_spec(dry.spec());
    let step_begin = probe.ops();
    let step = dry.compact_step(&budget).unwrap();
    let step_end = probe.ops();
    assert!(
        !step.slices.is_empty() && !step.done,
        "fixture must crash mid-sweep, not after a completed one"
    );
    let after_step = wire::encode_spec(dry.spec());
    assert_ne!(before_step, after_step, "the step must move the spec");
    drop(dry);

    use currency_store::Fault;
    let faults = [Fault::Io, Fault::ShortWrite, Fault::FsyncErr];
    let mut injected_total = 0;
    for (fi, &fault) in faults.iter().enumerate() {
        for op in step_begin..step_end {
            let dir = base.join(format!("f{fi}-op{op}"));
            std::fs::create_dir_all(&dir).unwrap();
            let chaos = Arc::new(ChaosVfs::new(ChaosPlan::new().fail_at(op, fault)));
            let mut durable = DurableEngine::create_with_vfs(
                chaos.clone(),
                &dir,
                spec.clone(),
                &opts,
                store_opts,
            )
            .unwrap();
            let mut rng = Rng::new(chaos_seed);
            churn(&mut durable, &mut rng).unwrap();
            let res = durable.compact_step(&budget);
            drop(durable);
            if chaos.injected() == 0 {
                continue; // operation count shifted below the fault: nothing hit
            }
            injected_total += 1;
            assert!(
                res.is_err(),
                "an injected step fault must surface, not be swallowed"
            );
            // Reopen fault-free: recovery must land on one of the two legal
            // states, byte for byte.
            let recovered =
                DurableEngine::open_with_vfs(Arc::new(RealVfs), &dir, &opts, store_opts)
                    .expect("reopen after a step-boundary crash");
            let bytes = wire::encode_spec(recovered.spec());
            assert!(
                bytes == before_step || bytes == after_step,
                "op {op} ({fault:?}): recovered spec is neither pre- nor post-step"
            );
            recovered
                .spec()
                .validate()
                .expect("recovered spec validates");
            let fresh = CurrencyEngine::new(recovered.spec(), &Options::default()).unwrap();
            assert_eq!(recovered.cps().unwrap(), fresh.cps().unwrap());
            // And the store is fully usable again: more churn, full drain.
            let mut recovered = recovered;
            let mut rng = Rng::new(chaos_seed ^ 0xff);
            churn(&mut recovered, &mut rng).unwrap();
            loop {
                if recovered.compact_step(&budget).unwrap().done {
                    break;
                }
            }
            assert_eq!(recovered.spec().total_tombstones(), 0);
        }
    }
    assert!(
        injected_total >= 3,
        "the step spans enough I/O to exercise every fault class (hit {injected_total})"
    );

    // Randomized pass, pinned by CHAOS_SEED: faults drawn over the whole
    // workload (deltas and steps interleaved), same recovery invariants.
    let horizon = step_end + step_end / 2;
    let roundtrips = if cfg!(debug_assertions) { 6 } else { 24 };
    for i in 0..roundtrips {
        let dir = base.join(format!("rand{i}"));
        std::fs::create_dir_all(&dir).unwrap();
        let chaos = Arc::new(ChaosVfs::new(ChaosPlan::from_seed(
            chaos_seed.wrapping_add(i),
            horizon,
            1,
        )));
        let created =
            DurableEngine::create_with_vfs(chaos.clone(), &dir, spec.clone(), &opts, store_opts);
        let crashed = (|| -> Result<(), currency_store::StoreError> {
            let mut durable = created?;
            let mut rng = Rng::new(chaos_seed);
            churn(&mut durable, &mut rng)?;
            durable.compact_step(&budget)?;
            churn(&mut durable, &mut rng)?;
            loop {
                if durable.compact_step(&budget)?.done {
                    return Ok(());
                }
            }
        })()
        .is_err();
        if !crashed && chaos.injected() == 0 {
            continue;
        }
        // Whether or not the fault was fatal, a fault-free reopen must
        // produce a valid, fully usable store.
        let recovered =
            match DurableEngine::open_with_vfs(Arc::new(RealVfs), &dir, &opts, store_opts) {
                Ok(r) => r,
                Err(e) => {
                    // A fault during `create` may leave no store at all —
                    // that is a legal outcome, not a half-remap.
                    assert!(crashed, "reopen failed without a crash: {e}");
                    continue;
                }
            };
        recovered
            .spec()
            .validate()
            .expect("recovered spec validates");
        let fresh = CurrencyEngine::new(recovered.spec(), &Options::default()).unwrap();
        assert_eq!(recovered.cps().unwrap(), fresh.cps().unwrap());
        let mut recovered = recovered;
        loop {
            if recovered.compact_step(&budget).unwrap().done {
                break;
            }
        }
        assert_eq!(recovered.spec().total_tombstones(), 0);
    }
    let _ = std::fs::remove_dir_all(&base);
}
