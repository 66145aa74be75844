//! Concurrent differential stress test of the serving layer: **8 reader
//! threads race a writer** streaming deltas through [`CurrencyServe`],
//! and every answer any reader ever observes must equal what a fresh
//! single-threaded [`CurrencyEngine`] computes for the specification *at
//! the epoch the answer was pinned to*.
//!
//! The epoch discipline is what makes the oracle exact under racing: a
//! reader's answer is stamped with its pinned epoch, the writer retains
//! the specification it published at every epoch, and after the threads
//! join each recorded `(epoch, request, answer)` triple is replayed
//! against a reference engine built from the retained spec — torn reads,
//! stale caches, or scratch leaking across epochs would all surface as a
//! mismatch.
//!
//! A second test crashes a reader thread mid-stream and checks the
//! regression the snapshot layer promises: a dead (panicking) reader can
//! neither poison the published snapshot nor wedge the writer's publish
//! path, and the in-flight gauge unwinds cleanly.

use data_currency::datagen::random::{random_delta, random_spec, DeltaMix, RandomSpecConfig};
use data_currency::model::{AttrId, RelId, Specification, TupleId};
use data_currency::query::{Query, SpQuery};
use data_currency::reason::{CurrencyEngine, CurrencyOrderQuery, Options};
use data_currency::serve::{CurrencyServe, ServeAnswer, ServeOptions, ServeRequest};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const T: RelId = RelId(0);
const READERS: usize = 8;
const SEEDS: usize = 8;
const DELTAS_PER_SEED: usize = 125; // × SEEDS = 1_000 deltas total

/// No copy extensions, inserts over four entities.
const MIX: DeltaMix = DeltaMix {
    entities: 4,
    ..DeltaMix::NO_COPY
};

fn stress_config(seed: u64) -> RandomSpecConfig {
    RandomSpecConfig {
        entities: 3,
        tuples_per_entity: (1, 3),
        attrs: 2,
        value_pool: 2,
        order_density: 0.25,
        monotone_constraints: 1,
        correlated_constraints: (seed % 2) as usize,
        with_copy: false,
        seed,
    }
}

fn value_query(arity: usize) -> Query {
    SpQuery::identity(T, arity).to_query(arity)
}

/// One answer as a reader observed it: the request, the epoch the reader
/// was pinned to, and what it got back.
type Observation = (u64, ServeRequest, ServeAnswer);

/// One reader thread: hammer the handle with a seeded query mix until the
/// writer finishes, then one final sweep so the terminal epoch is covered
/// too.
fn reader_loop(
    serve: &CurrencyServe,
    arity: usize,
    rng_seed: u64,
    done: &AtomicBool,
) -> Vec<Observation> {
    let mut handle = serve.handle();
    let mut rng = SmallRng::seed_from_u64(rng_seed);
    let mut observed = Vec::new();
    let record = |handle: &mut data_currency::serve::ServeHandle,
                  observed: &mut Vec<Observation>,
                  req: ServeRequest| {
        let ans = handle.query(&req).expect("serve answers in budget");
        observed.push((handle.epoch(), req, ans));
    };
    let round = |handle: &mut data_currency::serve::ServeHandle,
                 observed: &mut Vec<Observation>,
                 rng: &mut SmallRng| {
        let req = match rng.gen_range(0..6u32) {
            0 => ServeRequest::Cps,
            1..=3 => ServeRequest::Cop(CurrencyOrderQuery::single(
                T,
                AttrId(rng.gen_range(0..arity) as u32),
                TupleId(rng.gen_range(0..12u32)),
                TupleId(rng.gen_range(0..12u32)),
            )),
            4 => ServeRequest::CertainAnswers(value_query(arity)),
            _ => ServeRequest::Dcip(T),
        };
        record(handle, observed, req);
    };
    while !done.load(Ordering::Relaxed) {
        round(&mut handle, &mut observed, &mut rng);
        // Let the writer make progress on small machines: the point is
        // racing, not starving the delta stream out of the schedule.
        std::thread::yield_now();
    }
    for _ in 0..4 {
        round(&mut handle, &mut observed, &mut rng);
    }
    observed
}

/// Replay every observation against a fresh engine at its pinned epoch.
///
/// Observations are deduplicated first: two readers recording the same
/// `(epoch, request)` must have recorded the same answer (anything else
/// is already a divergence), and each distinct pair needs only one
/// oracle replay.
fn verify(observations: Vec<Vec<Observation>>, specs: &HashMap<u64, Arc<Specification>>) {
    let mut seen: HashMap<(u64, ServeRequest), ServeAnswer> = HashMap::new();
    let mut by_epoch: HashMap<u64, Vec<(ServeRequest, ServeAnswer)>> = HashMap::new();
    let mut total = 0usize;
    for obs in observations {
        for (epoch, req, ans) in obs {
            total += 1;
            match seen.entry((epoch, req.clone())) {
                std::collections::hash_map::Entry::Occupied(prev) => {
                    assert_eq!(
                        prev.get(),
                        &ans,
                        "epoch {epoch}: readers disagree on {req:?}"
                    );
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(ans.clone());
                    by_epoch.entry(epoch).or_default().push((req, ans));
                }
            }
        }
    }
    assert!(total > 0, "readers observed nothing");
    for (epoch, entries) in by_epoch {
        let spec = specs
            .get(&epoch)
            .unwrap_or_else(|| panic!("reader pinned unpublished epoch {epoch}"));
        let reference =
            CurrencyEngine::new(spec, &Options::default()).expect("published specs are valid");
        for (req, ans) in entries {
            let expect = match &req {
                ServeRequest::Cps => ServeAnswer::Bool(reference.cps().unwrap()),
                ServeRequest::Cop(ot) => ServeAnswer::Bool(reference.cop(ot).unwrap()),
                ServeRequest::Dcip(rel) => ServeAnswer::Bool(reference.dcip(*rel).unwrap()),
                ServeRequest::CertainAnswers(q) => {
                    ServeAnswer::Answers(reference.certain_answers(q).unwrap())
                }
                ServeRequest::Ccqa(q, t) => ServeAnswer::Bool(reference.ccqa(q, t).unwrap()),
            };
            assert_eq!(
                ans, expect,
                "epoch {epoch}: concurrent answer diverged for {req:?}"
            );
        }
    }
}

#[test]
fn eight_readers_racing_a_writer_match_fresh_engines_at_every_epoch() {
    // Deterministic sample of the same 10k-seed space the sequential
    // differential sweeps draw from.
    let mut seed_rng = SmallRng::seed_from_u64(0x5EED_CAFE);
    for _ in 0..SEEDS {
        let seed = seed_rng.gen_range(0..10_000u64);
        let spec = random_spec(&stress_config(seed));
        let arity = spec.instance(T).arity();
        let serve = Arc::new(
            CurrencyServe::new(spec, &Options::default(), &ServeOptions::default()).unwrap(),
        );
        let specs: Arc<Mutex<HashMap<u64, Arc<Specification>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        specs
            .lock()
            .unwrap()
            .insert(serve.epoch(), serve.snapshot().spec_arc());
        let done = Arc::new(AtomicBool::new(false));

        let writer = {
            let serve = serve.clone();
            let specs = specs.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
                for _ in 0..DELTAS_PER_SEED {
                    let delta = {
                        let snap = serve.snapshot();
                        random_delta(&[snap.spec()], &MIX, &mut rng)
                    };
                    let report = serve
                        .apply(&delta)
                        .expect("generated deltas are admissible");
                    specs
                        .lock()
                        .unwrap()
                        .insert(report.epoch, serve.snapshot().spec_arc());
                }
                done.store(true, Ordering::Relaxed);
            })
        };

        let readers: Vec<_> = (0..READERS)
            .map(|ix| {
                let serve = serve.clone();
                let done = done.clone();
                std::thread::spawn(move || {
                    reader_loop(&serve, arity, seed ^ (ix as u64) << 32, &done)
                })
            })
            .collect();

        writer.join().expect("writer thread survives");
        let observations: Vec<Vec<Observation>> = readers
            .into_iter()
            .map(|r| r.join().expect("reader thread survives"))
            .collect();

        let stats = serve.stats();
        assert_eq!(stats.inflight, 0, "in-flight gauge unwinds");
        assert_eq!(
            stats.epoch,
            *specs.lock().unwrap().keys().max().unwrap(),
            "final epoch retained"
        );
        verify(observations, &specs.lock().unwrap());
    }
}

#[test]
fn panicking_reader_cannot_poison_snapshots_or_wedge_the_writer() {
    let spec = random_spec(&stress_config(7));
    let arity = spec.instance(T).arity();
    let serve =
        Arc::new(CurrencyServe::new(spec, &Options::default(), &ServeOptions::default()).unwrap());

    // A reader warms its scratch and cache entries, then dies mid-stream.
    let crasher = {
        let serve = serve.clone();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut handle = serve.handle();
                handle.cps().unwrap();
                handle
                    .cop(&CurrencyOrderQuery::single(
                        T,
                        AttrId(0),
                        TupleId(0),
                        TupleId(1),
                    ))
                    .unwrap();
                panic!("simulated reader crash");
            }));
            assert!(result.is_err());
        })
    };
    crasher.join().expect("crash was contained");

    // The writer's publish path is unharmed...
    let mut rng = SmallRng::seed_from_u64(99);
    for _ in 0..5 {
        let delta = {
            let snap = serve.snapshot();
            random_delta(&[snap.spec()], &MIX, &mut rng)
        };
        serve.apply(&delta).expect("publish path not wedged");
    }
    // ...and surviving handles answer correctly against the new epoch.
    let mut handle = serve.handle();
    let snap = serve.snapshot();
    let reference = CurrencyEngine::new(snap.spec(), &Options::default()).unwrap();
    assert_eq!(handle.cps().unwrap(), reference.cps().unwrap());
    let q = value_query(arity);
    assert_eq!(
        handle.certain_answers(&q).unwrap(),
        reference.certain_answers(&q).unwrap()
    );
    assert_eq!(serve.stats().inflight, 0);
}
