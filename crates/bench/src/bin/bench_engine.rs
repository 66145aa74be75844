//! Machine-readable engine benchmark: runs every section below, writes
//! `BENCH_engine.json`, and under `--check` exits non-zero if a guard
//! fails.
//!
//! ```text
//! bench_engine [--fast] [--check] [--out PATH]
//! ```
//!
//! The binary needs `currency-bench`'s `oracle` feature (its reference
//! rows run the whole-specification paths): `cargo run --release -p
//! currency-bench --features oracle --bin bench_engine -- --fast --check`.
//!
//! * `--fast` — CI smoke shape: fewer samples, smaller sweeps (the
//!   `paper` section drops the largest size of every sweep), eager
//!   grounding skipped, the large and sharded workloads downscaled
//!   (seconds, not minutes);
//! * `--check` — exit non-zero if any guard below fails;
//! * `--out PATH` — where to write the JSON (default
//!   `BENCH_engine.json`).
//!
//! Sections, in run order:
//!
//! * `amortized` — 32 COP queries plus one certain-answer query: fresh
//!   engine, prebuilt engine, per-call re-encoding, and the encoding
//!   clones a snapshot reader's COPs take per COP (recorded, not
//!   guarded);
//! * `update` — a 1-tuple delta against a prebuilt engine vs a rebuild;
//! * `large` — the same delta at 1× and 4× `large_spec`, then one
//!   unbounded compaction step;
//! * `serve_large` — that delta through `CurrencyServe::apply` at 1× and
//!   4×, with copied pages, per-component footprints and slot forms, and
//!   the encoding clones a snapshot reader takes for a COP stream;
//! * `compaction` — budgeted drain vs the reference sweep at both scales;
//! * `durability` — durable vs in-memory apply, then recovery vs re-apply;
//! * `sharded` — 8-shard apply flatness, parallel vs sequential recovery,
//!   CPS differential;
//! * `serve` — multi-reader qps with the answer cache off, then a
//!   repeated-query cache run;
//! * `robustness` — starvation-budget COP and an overload burst;
//! * `obs` — instrumentation overhead against a disabled engine;
//! * `scaling` — the lazy engine vs one eager whole-specification
//!   reference encoding on one large entity group;
//! * `paper` — the paper's Table II/III series (see [`paper_section`]);
//! * `check` — every guard's inputs and verdict.
//!
//! Guards under `--check`, one per line:
//!
//! * `time_ok` — lazy 64-tuple group within [`LAZY_64_THRESHOLD_NS`];
//! * `clauses_ok` — its stored clauses within [`LAZY_64_CLAUSE_LIMIT`];
//! * `update_ok` — a 1-tuple delta recompiles ≤ [`UPDATE_REBUILT_LIMIT`];
//! * `large_flat_ok` — large per-delta apply 4×/1× ≤ [`LARGE_FLAT_FACTOR`];
//! * `serve_large_flat_ok` — the same through `CurrencyServe::apply`;
//! * `serve_large_pages_flat_ok` — equal copied pages at 1× and 4×;
//! * `large_rebuilt_ok` — a large-spec delta recompiles ≤ 1 component;
//! * `large_component_bytes_ok` — ≤ [`LARGE_COMPONENT_BYTES_LIMIT`], equal at 1× and 4×;
//! * `large_partition_bytes_ok` — ≤ [`LARGE_PARTITION_BYTES_LIMIT`], equal at 1× and 4×;
//! * `large_decided_ok` — every `large_spec` component is published decided, at 1× and 4×;
//! * `large_cop_copies_ok` — first-vs-last-reading COPs both ways on every
//!   `large_spec` entity, at 1× and 4×, clone no encoding;
//! * `compact_pause_ok` — every budgeted step under [`COMPACT_MAX_PAUSE_MS`];
//! * `compact_flat_ok` — drain cost per reclaimed slot 4×/1× ≤ [`COMPACT_FLAT_FACTOR`];
//! * `compact_exact_ok` — the drain is byte-identical to the reference;
//! * `serve_compact_ok` — an unbounded `CurrencyServe::compact_step` identical and under the pause bar;
//! * `durable_overhead_ok` — durable apply ≤ [`DURABLE_OVERHEAD_FACTOR`]× in-memory;
//! * `obs_noop_ok` — metrics on ≤ [`OBS_NOOP_FACTOR`]× metrics off;
//! * `replay_count_ok` — recovery replays exactly the log suffix;
//! * `recovery_ok` — recovery ≥ [`RECOVERY_SPEEDUP_MIN`]× faster than re-apply;
//! * `serve_scaling_ok` — 8 vs 1 readers ≥ [`SERVE_SCALING_MIN`] (≥ [`SERVE_SCALING_MIN_CORES`] cores), else ≥ [`SERVE_COLLAPSE_FLOOR`];
//! * `serve_cache_ok` — repeated-query hit rate ≥ [`SERVE_CACHE_HIT_MIN`];
//! * `interrupted_ok` — a starvation-budget COP is `Interrupted` within [`INTERRUPTED_COP_WALL_NS`];
//! * `shed_ok` — the overload burst sheds only with `Overloaded`, as counted;
//! * `sharded_flat_ok` — sharded per-delta apply 10×/1× ≤ [`SHARDED_FLAT_FACTOR`];
//! * `sharded_recovery_ok` — parallel vs sequential open ≥ [`SHARDED_RECOVERY_SPEEDUP_MIN`] (≥ [`SHARDED_RECOVERY_MIN_CORES`] cores), else ≥ [`SHARDED_RECOVERY_COLLAPSE_FLOOR`];
//! * `sharded_replay_ok` — sharded recovery replays every logged delta;
//! * `sharded_diff_ok` — zero scatter-gather CPS disagreements;
//! * `paper_ptime_agrees_ok` — every PTIME row answers as its exact counterpart;
//! * `paper_reduction_poly_ok` — every gadget sweep's vars and clauses stay [`within_cubic`].

use currency_bench::measure::{
    measure, measure_once, measure_paired, Measurement, MIN_SPREAD_SAMPLES,
};
use currency_bench::scenarios;
use currency_core::{wire, AttrId, Eid, RelId, SpecDelta, Specification, Tuple, TupleId, Value};
use currency_datagen::gadgets::{
    ccqa_3sat, cop_3sat, cpp_forall_exists_3cnf, cps_betweenness, cps_exists_forall_3dnf,
};
use currency_datagen::logic::{random_betweenness, random_formula};
use currency_datagen::random::{random_spec, RandomSpecConfig};
use currency_datagen::scenarios::{example_4_1, fig1};
use currency_obs::HistogramSnapshot;
use currency_query::{Query, SpCondition, SpQuery};
use currency_reason::encode::Encoding;
use currency_reason::oracle::{
    certain_answers_exact_monolithic, cop_exact_monolithic, cps_enumerate, TransitivityMode,
};
use currency_reason::{
    bcp, bcp_sp, ccqa_exact, certain_answers, certain_answers_exact, certain_answers_sp, cop_exact,
    cop_ptime, cpp, cpp_sp, cps_exact, cps_ptime, dcip_exact, dcip_ptime, ecp, maximum_extension,
    CertainAnswers, CompactBudget, CurrencyEngine, CurrencyOrderQuery, EngineStats, Options,
    PreservationProblem, ReasonError, ShardedEngine, SnapshotReader, SolveLimits,
};
use currency_serve::{CurrencyServe, ServeError, ServeOptions, ServeRequest, ServeStats};
use currency_store::{DurableEngine, ShardedStore, StoreOptions};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Wall-time regression guard for `--check`: lazy end-to-end (engine
/// build + CPS + one COP) on the 64-tuple single-group scenario.
/// Measured ≈ 0.85 ms on the reference container; the threshold is ~60×
/// generous so shared-runner noise cannot fail it.  The *deterministic*
/// eager-fallback guard is [`LAZY_64_CLAUSE_LIMIT`].
const LAZY_64_THRESHOLD_NS: f64 = 50_000_000.0; // 50 ms

/// Deterministic regression guard for `--check`: stored clauses in the
/// lazy engine on the 64-tuple-group scenario.  Lazy grounding stores no
/// transitivity clauses up front (this scenario stores 0 clauses — its
/// ground rules simplify to level-0 units — and refinement lemmas stay
/// in the hundreds at worst); an accidental eager fallback stores the
/// full 64·63·62 ≈ 250k triangles.  Timing-independent, so it cannot
/// flake on slow runners.
const LAZY_64_CLAUSE_LIMIT: usize = 10_000;

/// Deterministic regression guard for `--check`: components recompiled by
/// one single-tuple delta on the prebuilt update-workload engine.  The
/// delta touches one entity's cell, so a correct incremental partition
/// rebuilds exactly the component owning it — recompiling more means the
/// dirty-region computation leaks.  Timing-independent.
const UPDATE_REBUILT_LIMIT: usize = 1;

/// Entity count of the update workload (the acceptance scenario: a
/// 1-tuple delta against a prebuilt 128-entity engine).
const UPDATE_ENTITIES: usize = 128;

/// Flatness guard for `--check` on the large-scale workload: per-delta
/// apply+CPS at 4× the base entity count must stay within this factor of
/// the 1× baseline.  The delta path is O(dirty region) — stable component
/// slots, region-patched cell index, entity-keyed mapping lookups — so
/// the true ratio is ≈ 1; any reintroduced O(spec) term (index rebuild,
/// whole-mapping grouping, full cache sweep) pushes it toward 4× and
/// trips this with margin to spare for runner noise.
const LARGE_FLAT_FACTOR: f64 = 2.0;

/// Footprint guard for `--check`: heap bytes of one published
/// `large_spec` component ([`EngineStats::encoding_bytes`] over the
/// component count; every component of that spec has the same shape).
/// Unit propagation decides such a component at level zero, so it is
/// published without its solver (`large_decided_ok`): its 90-entry
/// order-variable index (1 800 B) and a two-word model bitset, 1 816 B.
/// Kept as a solver it held 4 104 B.  Computed from capacities, so
/// deterministic; it must also be the same figure at 1× and 4× scale.
const LARGE_COMPONENT_BYTES_LIMIT: usize = 2 * 1024;

/// Footprint guard for `--check`: partition heap bytes per live
/// `large_spec` component ([`EngineStats::partition_bytes`] over the
/// component count).  A component keeps only its two cells — a slot
/// pointer, its `Arc`'d cell set and two index entries, about 128 B —
/// while storing its ground rules and obligations took about 7.3 KiB.
/// Computed from sizes, so deterministic; it must also be the same
/// figure at 1× and 4× scale.
const LARGE_PARTITION_BYTES_LIMIT: usize = 1024;

/// Insert+retract pairs per paired round of the serving-writer large
/// section: enough work per round that timer and scheduler jitter stay
/// small next to it.
const SERVE_LARGE_PAIRS_PER_ROUND: usize = 8;

/// Base entity count of the large workload in full mode.  The 4× point is
/// 10 000 entities × 10 tuples and copy mappings each — the ≥10k-entity /
/// ≥100k-mapping scale the acceptance criteria name.
const LARGE_BASE_ENTITIES: usize = 2_500;

/// Base entity count of the large workload under `--fast` (CI smoke keeps
/// the same 1×-vs-4× shape at a fraction of the build time).
const LARGE_BASE_ENTITIES_FAST: usize = 400;

/// Insert+retract churn pairs applied to the base specification of the
/// update rebuild baseline and of each large-scale compaction scale: a
/// fixed dead region, the same on every run, big enough that the
/// budgeted drain takes several bounded steps (and the monolithic sweep
/// reclaims something worth pricing).
const LARGE_COMPACT_CHURN: usize = 20_000;

/// Compaction churn under `--fast` (one bounded step's worth: the fast
/// lane prices a single budgeted step rather than a multi-step drain).
const LARGE_COMPACT_CHURN_FAST: usize = 2_000;

/// The `compact_pause_ok` and `serve_compact_ok` bar for `--check`: the
/// measured wall-clock time of one compaction step at the large 4× scale
/// (10k entities / 100k mappings in full mode) must stay under it.  A
/// step is bounded by slots alone, never by time: a budgeted step scans
/// [`COMPACT_STEP_SLOTS`] slots plus the dirty-region rebuild —
/// sub-millisecond in practice; 250 ms is the serving-pause contract the
/// roadmap names.
const COMPACT_MAX_PAUSE_MS: u64 = 250;

/// Slot budget per step of the benchmarked incremental drain (big
/// enough to finish the drain in a handful of steps, small enough that
/// per-step pause stays far under the bar).
const COMPACT_STEP_SLOTS: usize = 4_096;

/// Flatness guard for `--check` on the drain's per-reclaimed-slot cost
/// across the two large scales.  A bounded step's cost is O(scan +
/// moved), independent of specification size, so the true ratio is ≈ 1;
/// an O(spec) term sneaking back into the step path (full index rebuild,
/// whole-partition refresh) pushes it toward the 4× spec-size ratio.
const COMPACT_FLAT_FACTOR: f64 = 3.0;

/// Logged history length of the durability workload (1k deltas — the
/// acceptance scenario; `--fast` scales it down but keeps the shape).
const DURABILITY_DELTAS: usize = 1_000;

/// Durability history length under `--fast`.
const DURABILITY_DELTAS_FAST: usize = 240;

/// Fraction of the durability history covered by the rotated snapshot;
/// the rest is the log suffix recovery must replay.  The replayed count
/// is deterministic (exactly `deltas - snapshot point`), and `--check`
/// asserts it.
const DURABILITY_SNAPSHOT_FRACTION: f64 = 0.8;

/// Overhead guard for `--check`: per-delta apply through the durable
/// log-then-apply path must stay within this factor of the in-memory
/// apply path on the same workload.  A CRC-framed append plus one
/// `write` syscall costs single-digit microseconds against an ~55 µs
/// apply+CPS round (delta validation is ~80 ns), so the true ratio is
/// ≈ 1.06 — measured as the median of *paired, order-alternated*
/// rounds, which cancels the environment drift that once inflated the
/// back-to-back ratio to 1.38×.  1.2× holds the machinery to its real
/// cost while still absorbing per-round jitter.
const DURABLE_OVERHEAD_FACTOR: f64 = 1.2;

/// Observability overhead guard for `--check`: it prices metrics on
/// against metrics off.  Per-delta apply with the always-on metrics
/// must stay within this factor of the same engine after
/// [`currency_reason::EngineObs::set_enabled`]`(false)`.  The real cost
/// is five timestamps (`currency_obs::Stamp`: one counter read each on
/// x86-64) and eight single-writer histogram records per apply that
/// rebuilds one slot inline, about 0.5 µs per round of this loop on a
/// 2-core x86-64 host.  The round is ~30 µs there, so the ratio reads
/// ≈ 1.006-1.020 and the bound leaves little room: an apply that gets
/// faster without its metrics getting cheaper can cross it.
const OBS_NOOP_FACTOR: f64 = 1.02;

/// Recovery guard for `--check`: opening the store (newest snapshot +
/// log-suffix replay) must beat re-applying the *full* delta history
/// from scratch by at least this factor, as the median per-round ratio
/// of paired, order-alternating rounds.  With 80% of the history behind
/// the snapshot the replay does a fifth of the apply work, so the true
/// speedup is well past 2; 1.5 is the noise-safe floor for "measurably
/// faster".
const RECOVERY_SPEEDUP_MIN: f64 = 1.5;

/// Absolute wall-time ceiling on recovery for `--check` (generous: the
/// measured open is tens of milliseconds).
const RECOVERY_WALL_NS: f64 = 10_000_000_000.0; // 10 s

/// Shard count of the sharded scale-out workload (the widest point the
/// differential test suite exercises).
const SHARDED_SHARDS: usize = 8;

/// Baseline entity count of the sharded flatness sweep in full mode; the
/// scaled point is [`SHARDED_SCALE`]× this — the 100k-entity regime the
/// acceptance criteria name ([`scenarios::sharded_spec`] keeps entities
/// lean so the *entity count*, the quantity sharding distributes, is
/// what scales).
const SHARDED_BASE_ENTITIES: usize = 10_000;

/// Sharded-sweep baseline under `--fast` (same 1×-vs-10× shape, a
/// fraction of the build time).
const SHARDED_BASE_ENTITIES_FAST: usize = 1_000;

/// The sharded sweep's scaled point is this multiple of the baseline.
const SHARDED_SCALE: usize = 10;

/// Flatness guard for `--check` on the sharded workload: per-delta
/// apply + scatter-CPS at 10× the base entity count must stay within
/// this factor of the baseline.  Routing is a hash + O(log n) placement
/// lookup and the apply is O(dirty region) inside one shard, so the
/// true ratio is ≈ 1 with only cache-pressure drift; an O(shard) or
/// O(spec) term in the routed path pushes it well past 2×.
const SHARDED_FLAT_FACTOR: f64 = 2.0;

/// Entity count of the sharded recovery race in full mode (8 shards,
/// each rebuilding its engine and replaying its log slice).
const SHARDED_RECOVERY_ENTITIES: usize = 4_000;

/// Sharded recovery entity count under `--fast`.
const SHARDED_RECOVERY_ENTITIES_FAST: usize = 800;

/// Logged single-shard deltas of the sharded recovery race in full mode
/// (all of them replay on open — rotation is disabled).
const SHARDED_RECOVERY_DELTAS: usize = 1_600;

/// Sharded recovery history length under `--fast`.
const SHARDED_RECOVERY_DELTAS_FAST: usize = 320;

/// Recovery-parallelism guard for `--check`: opening all shards
/// concurrently must beat the sequential open by this factor.  Shards
/// recover with zero shared state, so on real multi-core hardware the
/// speedup tracks the core count; 1.5 is the noise-safe floor for
/// "measurably parallel".
const SHARDED_RECOVERY_SPEEDUP_MIN: f64 = 1.5;

/// The parallel-recovery bar is enforced only on machines that can
/// physically show it; below this core count the per-shard threads
/// time-slice one another and the honest speedup is ≈ 1.
const SHARDED_RECOVERY_MIN_CORES: usize = 4;

/// Everywhere-enforced sanity floor: even time-sliced on one core,
/// parallel recovery must not *collapse* below this fraction of the
/// sequential open — a cross-shard lock (or one shard recovering the
/// others' work) would sink it.
const SHARDED_RECOVERY_COLLAPSE_FLOOR: f64 = 0.35;

/// Seeds of the sharded-vs-unsharded CPS differential sweep in full
/// mode — the full 10k-seed space the property suites draw from.  The
/// guard is deterministic: zero disagreements.
const SHARDED_DIFF_SEEDS: u64 = 10_000;

/// Differential-sweep seeds under `--fast`.
const SHARDED_DIFF_SEEDS_FAST: u64 = 1_000;

/// Shard count of the differential sweep (entity routing at N = 4
/// splits the 3-entity specs nontrivially without degenerating to
/// one-entity shards everywhere).
const SHARDED_DIFF_SHARDS: usize = 4;

/// Reader-thread sweep of the serve workload: sustained qps with a
/// concurrent writer churning the delta stream.
const SERVE_READER_SWEEP: &[usize] = &[1, 8, 64];

/// Scaling guard for `--check`: 8 reader threads must sustain at least
/// this multiple of the single-reader qps.  Readers share nothing but
/// immutable snapshot `Arc`s and the sharded answer cache, so on real
/// multi-core hardware the scaling is near-linear; 3× leaves room for
/// the shared writer churn and cache-shard contention.
const SERVE_SCALING_MIN: f64 = 3.0;

/// The scaling guard is enforced only when the machine can physically
/// exhibit it: below this core count the 8 readers time-slice one
/// another and the honest ratio is ≈ 1, so the run records the ratio
/// (and the relaxed [`SERVE_COLLAPSE_FLOOR`] still applies) without
/// failing `--check`.
const SERVE_SCALING_MIN_CORES: usize = 8;

/// Everywhere-enforced sanity floor: even time-sliced on one core, 8
/// readers must not *collapse* below this fraction of the single-reader
/// qps — a shared lock on the read path (the bug this layer exists to
/// avoid) would serialize and sink it.
const SERVE_COLLAPSE_FLOOR: f64 = 0.2;

/// Cache guard for `--check`: hit rate of the deterministic
/// repeated-query workload (one snapshot, [`SERVE_CACHE_ROUNDS`] passes
/// over the request pool — only the first pass can miss, so the true
/// rate is `(rounds-1)/rounds` = 98%).  Timing-independent.
const SERVE_CACHE_HIT_MIN: f64 = 0.90;

/// Passes over the request pool in the deterministic cache workload.
const SERVE_CACHE_ROUNDS: usize = 50;

/// Bounded-work guard for `--check`: a COP solve on the 128-entity spec
/// under a starvation budget (1 conflict, 1 propagation) must return
/// [`ReasonError::Interrupted`] within this wall time (best of
/// [`INTERRUPTED_COP_TRIES`] calls).  The measured cost is single-digit
/// microseconds — the budget stops the solver at its very first step —
/// so 1 ms is ~100× headroom while still catching any unbounded work
/// (or an un-budgeted solve path) ahead of the interrupt check.
const INTERRUPTED_COP_WALL_NS: f64 = 1_000_000.0; // 1 ms

/// Attempts for the interrupted-COP wall-time guard (min is taken, so a
/// scheduler hiccup on one call cannot flake the check).
const INTERRUPTED_COP_TRIES: usize = 64;

/// Threads in the overload burst: all released by one barrier against a
/// 2-slot in-flight cap with the cache disabled.
const BURST_THREADS: usize = 64;

/// In-flight cap for the overload burst.
const BURST_INFLIGHT_CAP: usize = 2;

/// Queries each burst thread issues (more than one so slow schedulers
/// still overlap arrivals; every query either answers or sheds cleanly).
const BURST_QUERIES_PER_THREAD: usize = 4;

struct Args {
    fast: bool,
    check: bool,
    out: String,
}

/// One large-scale point of the compaction section: the budgeted drain
/// against the core-layer reference sweep on the same dirty spec.
struct CompactScale {
    entities: usize,
    churn: usize,
    steps: usize,
    reclaimed: usize,
    max_step_ns: f64,
    drain_ns: f64,
    reference_ns: f64,
    byte_identical: bool,
    parity: bool,
    /// An unbounded `CurrencyServe::compact_step` (the serving writer's
    /// full compaction, published) on the same dirty specification.
    serve_compact_ns: f64,
    /// The serving writer's compacted specification is wire-byte-identical
    /// to the reference sweep's.
    serve_identical: bool,
}

/// Apply `pairs` insert+retract pairs of `insert` to `engine`: each
/// insert is retracted at once, leaving exactly `pairs` tombstones.
fn churn_block(engine: &mut CurrencyEngine, insert: &SpecDelta, pairs: usize) {
    for _ in 0..pairs {
        let report = engine.apply(insert).unwrap();
        let (rel, id) = report.inserted[0];
        engine
            .apply(&scenarios::update_remove_delta(rel, id))
            .unwrap();
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        fast: false,
        check: false,
        out: "BENCH_engine.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => args.fast = true,
            "--check" => args.check = true,
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => panic!("unknown argument {other:?} (expected --fast/--check/--out)"),
        }
    }
    args
}

/// One serve run: `threads` readers cycling the request pool through
/// their own handles while a writer thread churns insert+retract deltas
/// (each publishing a new epoch), for a fixed wall window.  The answer
/// cache is off, so every query solves at every reader count and the
/// hit rate cannot stand in for scaling.  Returns the sustained reader
/// qps, the run's serving stats, and its answer latency over every
/// query kind.
fn serve_sustained_qps(
    spec: &Specification,
    pool: &[ServeRequest],
    threads: usize,
    window: Duration,
) -> (f64, ServeStats, HistogramSnapshot) {
    let no_cache = ServeOptions {
        cache_capacity: 0,
        ..ServeOptions::default()
    };
    let serve = Arc::new(
        CurrencyServe::new(spec.clone(), &Options::default(), &no_cache).expect("valid spec"),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let serve = serve.clone();
        let stop = stop.clone();
        let insert = scenarios::update_insert_delta(spec);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let report = serve.apply(&insert).expect("admissible");
                let (rel, id) = report.inserted[0];
                serve
                    .apply(&scenarios::update_remove_delta(rel, id))
                    .expect("admissible");
                std::thread::yield_now();
            }
        })
    };
    let start = Instant::now();
    let readers: Vec<_> = (0..threads)
        .map(|_| {
            let serve = serve.clone();
            let stop = stop.clone();
            let pool = pool.to_vec();
            std::thread::spawn(move || {
                let mut handle = serve.handle();
                let mut answered = 0u64;
                'run: loop {
                    for req in &pool {
                        if stop.load(Ordering::Relaxed) {
                            break 'run;
                        }
                        std::hint::black_box(handle.query(req).expect("in budget"));
                        answered += 1;
                    }
                    std::thread::yield_now();
                }
                answered
            })
        })
        .collect();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread survives"))
        .sum();
    let elapsed = start.elapsed();
    writer.join().expect("writer thread survives");
    let latency = serve
        .metrics()
        .snapshot()
        .merged_histogram("currency_serve_latency_ns");
    (total as f64 / elapsed.as_secs_f64(), serve.stats(), latency)
}

fn push_measurement(json: &mut String, m: &Measurement) {
    let _ = write!(
        json,
        "{{\"median_ns\": {:.0}, \"p25_ns\": {:.0}, \"p75_ns\": {:.0}, \
         \"min_ns\": {:.0}, \"mean_ns\": {:.0}, \"samples\": {}, \"iters\": {}, \
         \"few_samples\": {}}}",
        m.median_ns,
        m.p25_ns,
        m.p75_ns,
        m.min_ns,
        m.mean_ns,
        m.samples,
        m.iters,
        m.samples < MIN_SPREAD_SAMPLES
    );
}

/// Work counts after a row's question was answered: vars, clauses, SAT
/// conflicts and SAT propagations — of a [`CurrencyEngine`] on an exact
/// row, of the eagerly grounded encoding on a gadget-construction row.
type Counts = [u64; 4];

/// Build an engine on `spec` with `value_rels` enumerable, let `ask` pose
/// the row's question, and read its work counts.
fn engine_counts(
    spec: &Specification,
    rels: &[RelId],
    ask: impl FnOnce(&CurrencyEngine),
) -> Counts {
    let engine = CurrencyEngine::with_value_rels(spec, rels, &Options::default()).unwrap();
    ask(&engine);
    let s = engine.stats();
    [
        s.vars as u64,
        s.clauses as u64,
        s.sat.conflicts,
        s.sat.propagations,
    ]
}

/// `paper_reduction_poly_ok` on one gadget sweep of `(size, count)`
/// points: the count at the largest size is at most (largest / smallest
/// size)³ times the count at the smallest.
fn within_cubic(series: &[(usize, u64)]) -> bool {
    let (Some(lo), Some(hi)) = (
        series.iter().min_by_key(|p| p.0),
        series.iter().max_by_key(|p| p.0),
    ) else {
        return true;
    };
    hi.1 as f64 <= (hi.0 as f64 / lo.0 as f64).powi(3) * lo.1 as f64
}

/// A constraint-free random specification: the PTIME rows' input.
fn free_spec(
    entities: usize,
    tuples_per_entity: (usize, usize),
    attrs: usize,
    value_pool: i64,
    order_density: f64,
    with_copy: bool,
    seed: u64,
) -> Specification {
    random_spec(&RandomSpecConfig {
        entities,
        tuples_per_entity,
        attrs,
        value_pool,
        order_density,
        with_copy,
        seed,
        ..RandomSpecConfig::default()
    })
}

/// How a paper row's answer reads in the JSON.
trait Answer {
    fn json(&self) -> String;
}

impl Answer for bool {
    fn json(&self) -> String {
        self.to_string()
    }
}

/// Certain answers read as their row count, or `"inconsistent"`.
impl Answer for CertainAnswers {
    fn json(&self) -> String {
        self.rows()
            .map_or("\"inconsistent\"".into(), |r| r.len().to_string())
    }
}

/// An exact path that refused with `BudgetExceeded` reads as
/// `"budget_exceeded"`.
impl<T: Answer> Answer for Option<T> {
    fn json(&self) -> String {
        self.as_ref().map_or("\"budget_exceeded\"".into(), T::json)
    }
}

/// A row that times a construction has no answer.
impl Answer for () {
    fn json(&self) -> String {
        "null".into()
    }
}

/// An exact path's answer, or `None` when it refused with
/// `BudgetExceeded`: a typed refusal, never a wrong answer.
fn within_budget<T>(answer: Result<T, ReasonError>) -> Option<T> {
    match answer {
        Ok(answer) => Some(answer),
        Err(ReasonError::BudgetExceeded { .. }) => None,
        Err(e) => panic!("exact path failed: {e:?}"),
    }
}

/// The paper section's rows and what its two guards saw.
struct Paper {
    fast: bool,
    samples: usize,
    warmup: Duration,
    window: Duration,
    rows: Vec<String>,
    /// `(PTIME series, exact series, size, same answer)`, the last `None`
    /// where the exact path refused.
    agreement: Vec<(&'static str, &'static str, usize, Option<bool>)>,
    /// `(gadget sweep, size, counts)`.
    reductions: Vec<(&'static str, usize, Counts)>,
}

impl Paper {
    /// The sizes of a sweep this run visits: all of them, or all but the
    /// largest under `--fast`.
    fn sizes<'a>(&self, sweep: &'a [usize]) -> &'a [usize] {
        &sweep[..sweep.len() - usize::from(self.fast)]
    }

    /// Time one series point, record its row and return its answer.  A
    /// point whose first call outlasts the sampling window is timed by
    /// that call alone.
    fn row<T: Answer>(
        &mut self,
        target: &str,
        series: &str,
        size: usize,
        counts: Option<Counts>,
        mut routine: impl FnMut() -> T,
    ) -> T {
        let mut answer = None;
        let mut time = measure_once(|| answer = Some(routine()));
        if time.median_ns < self.window.as_nanos() as f64 {
            time = measure(self.samples, self.warmup, self.window, || {
                std::hint::black_box(routine());
            });
        }
        let answer = answer.expect("ran once");
        let mut row = format!(
            "    {{\"target\": \"{target}\", \"series\": \"{series}\", \"size\": {size}, \
             \"answer\": {}, \"time\": ",
            answer.json()
        );
        push_measurement(&mut row, &time);
        if let Some([vars, clauses, conflicts, propagations]) = counts {
            let _ = write!(
                row,
                ", \"vars\": {vars}, \"clauses\": {clauses}, \"conflicts\": {conflicts}, \
                 \"propagations\": {propagations}"
            );
        }
        self.rows.push(row + "}");
        answer
    }

    /// A row on a reduction gadget: its counts join the sweep's
    /// reduction guard.
    fn gadget<T: Answer>(
        &mut self,
        target: &str,
        sweep: &'static str,
        size: usize,
        counts: Counts,
        routine: impl FnMut() -> T,
    ) {
        self.reductions.push((sweep, size, counts));
        self.row(target, sweep, size, Some(counts), routine);
    }

    /// A PTIME case and the exact path on the same input: both rows, and
    /// whether they answered the same.
    fn pair<T: Answer + PartialEq>(
        &mut self,
        target: &str,
        [ptime, exact, input]: [&'static str; 3],
        size: usize,
        counts: Counts,
        mut ptime_path: impl FnMut() -> Result<T, ReasonError>,
        mut exact_path: impl FnMut() -> Result<T, ReasonError>,
    ) {
        let series = format!("{ptime}/{input}");
        let p = self.row(target, &series, size, None, || ptime_path().unwrap());
        let series = format!("{exact}/{input}");
        let e = self.row(target, &series, size, Some(counts), || {
            within_budget(exact_path())
        });
        self.agreement.push((ptime, exact, size, e.map(|e| e == p)));
    }

    /// Time one gadget construction (and, with `encode`, its grounding
    /// and encoding).  Its counts are those of the whole reduction: the
    /// eagerly grounded encoding with every relation's values enumerable.
    fn construction(
        &mut self,
        sweep: &'static str,
        size: usize,
        encode: bool,
        build: impl Fn() -> Specification,
    ) {
        let whole = |spec: &Specification| {
            let rels: Vec<RelId> = (0..spec.instances().len() as u32).map(RelId).collect();
            Encoding::whole_spec(spec, &rels, TransitivityMode::Eager).expect("valid gadget")
        };
        let enc = whole(&build());
        let sat = enc.solver_stats();
        let c = [enc.num_vars(), enc.num_clauses()].map(|n| n as u64);
        let counts = [c[0], c[1], sat.conflicts, sat.propagations];
        self.gadget("gadget_validation", sweep, size, counts, || {
            let spec = build();
            if encode {
                std::hint::black_box(whole(&spec));
            }
            std::hint::black_box(spec);
        });
    }

    /// The PTIME/exact pairs that answered differently.
    fn disagreements(&self) -> Vec<String> {
        let differ = self.agreement.iter().filter(|a| a.3 == Some(false));
        differ
            .map(|(p, e, n, _)| format!("{p} vs {e} at {n}"))
            .collect()
    }

    /// The gadget sweeps whose vars or clauses grew beyond cubic.
    fn superpolynomial(&self) -> Vec<&'static str> {
        let mut sweeps: Vec<&'static str> = self.reductions.iter().map(|r| r.0).collect();
        sweeps.dedup();
        sweeps.retain(|&sweep| {
            let points = |k: usize| -> Vec<(usize, u64)> {
                let of_sweep = self.reductions.iter().filter(|r| r.0 == sweep);
                of_sweep.map(|r| (r.1, r.2[k])).collect()
            };
            !(within_cubic(&points(0)) && within_cubic(&points(1)))
        });
        sweeps
    }

    /// The section as JSON: its rows, then every PTIME/exact comparison.
    fn json(&self) -> String {
        let agreement: Vec<String> = self
            .agreement
            .iter()
            .map(|(ptime, exact, size, same)| {
                let same = same.map_or("null".into(), |s| s.to_string());
                format!(
                    "    {{\"ptime\": \"{ptime}\", \"exact\": \"{exact}\", \"size\": {size}, \
                     \"same_answer\": {same}}}"
                )
            })
            .collect();
        format!(
            "  \"paper\": {{\"dropped_largest_size\": {}, \"rows\": [\n{}\n  ], \
             \"agreement\": [\n{}\n  ]}},\n",
            self.fast,
            self.rows.join(",\n"),
            agreement.join(",\n")
        )
    }
}

/// The paper section: one row per series of Table II (CPS, COP, DCIP)
/// and Table III (CCQA, CPP, ECP, BCP) — each hard regime on its
/// reduction gadgets, and each PTIME case of §6 (Thm. 6.1 `PO∞`,
/// Prop. 6.3 `poss(S)`, Thm. 6.4 SP preservation) next to the exact path
/// on the same constraint-free input — then Fig. 1, the gadget
/// constructions, and exact CDCL against completion enumeration.
fn paper_section(fast: bool, samples: usize, warmup: Duration, window: Duration) -> Paper {
    // Over a hundred rows: a quarter of the other sections' window keeps
    // the section at about one second per row in full mode.
    let mut p = Paper {
        fast,
        samples,
        warmup: warmup / 4,
        window: window / 4,
        rows: Vec::new(),
        agreement: Vec::new(),
        reductions: Vec::new(),
    };
    let cps_counts = |spec: &Specification| engine_counts(spec, &[], |e| drop(e.cps()));
    let dcip_counts =
        |spec: &Specification, rel| engine_counts(spec, &[rel], |e| drop(e.dcip(rel)));
    let query_counts = |spec: &Specification, q: &Query| {
        let rels: Vec<RelId> = q.body().relations().into_iter().collect();
        engine_counts(spec, &rels, |e| drop(within_budget(e.certain_answers(q))))
    };

    eprintln!("paper: Table II");
    for &n in p.sizes(&[1, 2, 3, 4]) {
        let g = cps_betweenness(&random_betweenness(4, n, 42));
        let c = cps_counts(&g.spec);
        p.gadget("t2_cps", "cps_exact/betweenness_triples", n, c, || {
            cps_exact(&g.spec).unwrap()
        });
    }
    for &n in p.sizes(&[2, 3]) {
        let g = cps_exists_forall_3dnf(&random_formula(2 * n, n, 7), n);
        let c = cps_counts(&g.spec);
        p.gadget("t2_cps", "cps_exact/ef3dnf_blocksize", n, c, || {
            cps_exact(&g.spec).unwrap()
        });
    }
    let input = "no_constraints_entities";
    for &n in p.sizes(&[16, 64, 256, 1024]) {
        let spec = free_spec(n, (2, 4), 3, 5, 0.2, true, 9);
        let names = ["cps_ptime", "cps_exact", input];
        let c = cps_counts(&spec);
        p.pair(
            "t2_cps",
            names,
            n,
            c,
            || cps_ptime(&spec),
            || cps_exact(&spec),
        );
    }
    for &n in p.sizes(&[2, 4, 6, 8]) {
        let g = cop_3sat(&random_formula(3, n, 11));
        let c = engine_counts(&g.spec, &[], |e| drop(e.cop(&g.ot)));
        let cop = || cop_exact(&g.spec, &g.ot).unwrap();
        p.gadget("t2_cop", "cop_exact/3sat_clauses", n, c, cop);
    }
    // The first same-entity pair: certain or not, the work is the
    // fixpoint either way.
    let ot = CurrencyOrderQuery::single(RelId(0), AttrId(0), TupleId(0), TupleId(1));
    for &n in p.sizes(&[16, 64, 256, 1024]) {
        let spec = free_spec(n, (2, 3), 2, 4, 0.4, true, 3);
        let names = ["cop_ptime", "cop_exact", input];
        let c = engine_counts(&spec, &[], |e| drop(e.cop(&ot)));
        p.pair(
            "t2_cop",
            names,
            n,
            c,
            || cop_ptime(&spec, &ot),
            || cop_exact(&spec, &ot),
        );
    }
    for &n in p.sizes(&[2, 3, 4, 5]) {
        let g = cop_3sat(&random_formula(3, n, 13));
        let c = dcip_counts(&g.spec, g.rel);
        let dcip = || dcip_exact(&g.spec, g.rel).unwrap();
        p.gadget("t2_dcip", "dcip_exact/3sat_clauses", n, c, dcip);
    }
    for &n in p.sizes(&[16, 64, 256, 1024]) {
        let spec = free_spec(n, (2, 4), 2, 3, 0.5, false, 5);
        let names = ["dcip_ptime", "dcip_exact", input];
        let c = dcip_counts(&spec, RelId(0));
        let ptime = || dcip_ptime(&spec, RelId(0));
        p.pair("t2_dcip", names, n, c, ptime, || {
            dcip_exact(&spec, RelId(0))
        });
    }

    eprintln!("paper: Table III");
    for &n in p.sizes(&[2, 4, 6, 8]) {
        let g = ccqa_3sat(&random_formula(n, 2 * n, 17));
        let c = query_counts(&g.spec, &g.query);
        let ccqa = || ccqa_exact(&g.spec, &g.query, &g.tuple).unwrap();
        p.gadget("t3_ccqa", "ccqa_exact/3sat_vars", n, c, ccqa);
    }
    let sp = SpQuery {
        rel: RelId(0),
        projection: vec![AttrId(1), AttrId(2)],
        conditions: vec![SpCondition::AttrConst(AttrId(0), Value::int(1))],
    };
    let q = sp.to_query(3);
    for &n in p.sizes(&[64, 256, 1024, 4096]) {
        let spec = free_spec(n, (2, 4), 3, 5, 0.3, false, 19);
        let names = ["certain_answers_sp", "certain_answers_exact", input];
        let c = query_counts(&spec, &q);
        let ptime = || certain_answers_sp(&spec, &sp);
        p.pair("t3_ccqa", names, n, c, ptime, || {
            certain_answers_exact(&spec, &q)
        });
    }
    for &n in p.sizes(&[1, 2]) {
        let g = cpp_forall_exists_3cnf(&random_formula(n + 1, 2, 23), n);
        let c = query_counts(&g.spec, &g.query);
        let (spec, sources, query) = (&g.spec, &g.sources, &g.query);
        let problem = PreservationProblem {
            spec,
            sources,
            query,
        };
        p.gadget("t3_cpp", "cpp/fe3cnf_numx", n, c, || cpp(&problem).unwrap());
    }
    // The import scenarios of the CPP, ECP and BCP rows: relation 1 is
    // the source collection, relation 0 is asked its identity query.
    let sources: BTreeSet<RelId> = [RelId(1)].into();
    let id = SpQuery::identity(RelId(0), 1);
    let query = &id.to_query(1);
    for &n in p.sizes(&[4, 8, 16, 24]) {
        let spec = &free_spec(n, (1, 3), 1, 3, 0.3, true, 29);
        let problem = PreservationProblem {
            spec,
            sources: &sources,
            query,
        };
        let c = query_counts(spec, query);
        let ptime = || cpp_sp(spec, &sources, &id);
        p.pair("t3_cpp", ["cpp_sp", "cpp", input], n, c, ptime, || {
            cpp(&problem)
        });
    }
    for &n in p.sizes(&[2, 4, 8, 16]) {
        let spec = &free_spec(n, (1, 3), 1, 3, 0.3, true, 31);
        let problem = PreservationProblem {
            spec,
            sources: &sources,
            query,
        };
        let c = Some(cps_counts(spec));
        p.row("t3_ecp", "ecp/entities", n, c, || ecp(&problem).unwrap());
        // Answers whether it was built: Prop. 5.2 builds one exactly when
        // the specification is consistent.
        let extension = || maximum_extension(spec, &sources).is_ok();
        p.row("t3_ecp", "maximum_extension/entities", n, None, extension);
    }
    let e = example_4_1();
    let q2 = &e.q2().to_query(5);
    let mgr: BTreeSet<RelId> = [e.mgr].into();
    let problem = PreservationProblem {
        spec: &e.spec,
        sources: &mgr,
        query: q2,
    };
    let c = Some(query_counts(&e.spec, q2));
    for &k in p.sizes(&[0, 1, 2]) {
        p.row("t3_bcp", "bcp/example41_k", k, c, || {
            bcp(&problem, k).unwrap()
        });
    }
    for &n in p.sizes(&[2, 4, 8, 16]) {
        let spec = &free_spec(n, (1, 3), 1, 3, 0.3, true, 37);
        let problem = PreservationProblem {
            spec,
            sources: &sources,
            query,
        };
        let names = ["bcp_sp", "bcp", "no_constraints_entities_k1"];
        let c = query_counts(spec, query);
        let ptime = || bcp_sp(spec, &sources, &id, 1);
        p.pair("t3_bcp", names, n, c, ptime, || bcp(&problem, 1));
    }

    eprintln!("paper: Fig. 1, gadget constructions, CDCL vs enumeration");
    let f = fig1();
    let c = Some(cps_counts(&f.spec));
    p.row("fig1_quickstart", "cps_exact", 0, c, || {
        cps_exact(&f.spec).unwrap()
    });
    for (series, q) in [
        ("certain_answers/q1_salary", f.q1().to_query(5)),
        ("certain_answers/q2_last_name", f.q2().to_query(5)),
        ("certain_answers/q3_address", f.q3().to_query(5)),
        ("certain_answers/q4_budget", f.q4().to_query(4)),
    ] {
        let c = Some(query_counts(&f.spec, &q));
        let answers = || certain_answers(&f.spec, &q).unwrap();
        p.row("fig1_quickstart", series, 0, c, answers);
    }
    let c = Some(dcip_counts(&f.spec, f.emp));
    let dcip = || dcip_exact(&f.spec, f.emp).unwrap();
    p.row("fig1_quickstart", "dcip_exact/emp", 0, c, dcip);
    for &n in p.sizes(&[2, 4, 8]) {
        let f = random_formula(4, n, 41);
        p.construction("build/ccqa_3sat_clauses", n, false, || ccqa_3sat(&f).spec);
        p.construction("build_encode/cop_3sat_clauses", n, true, || {
            cop_3sat(&f).spec
        });
    }
    for &n in p.sizes(&[2, 4, 6]) {
        let bw = random_betweenness(5, n, 43);
        let build = || cps_betweenness(&bw).spec;
        p.construction("build_encode/betweenness_triples", n, true, build);
    }
    for &n in p.sizes(&[2, 3]) {
        let f = random_formula(2 * n, n, 47);
        let build = || cps_exists_forall_3dnf(&f, n).spec;
        p.construction("build_encode/ef3dnf_blocksize", n, true, build);
    }
    for &n in p.sizes(&[1, 2, 3]) {
        let f = random_formula(n + 2, 3, 53);
        let build = || cpp_forall_exists_3cnf(&f, n).spec;
        p.construction("build/cpp_fe3cnf_numx", n, false, build);
    }
    for &n in p.sizes(&[2, 3, 4]) {
        let spec = random_spec(&RandomSpecConfig {
            entities: 2,
            tuples_per_entity: (n, n),
            attrs: 2,
            value_pool: 3,
            order_density: 0.2,
            monotone_constraints: 1,
            correlated_constraints: 1,
            with_copy: false,
            seed: 59,
        });
        let names = ["cps_enumerate", "cps_exact", "tuples_per_entity"];
        let c = cps_counts(&spec);
        let enumerate = || cps_enumerate(&spec, 100_000_000);
        p.pair("ablation_solvers", names, n, c, enumerate, || {
            cps_exact(&spec)
        });
    }
    p
}

fn main() {
    let args = parse_args();
    let (samples, warmup, window) = if args.fast {
        (3, Duration::from_millis(50), Duration::from_millis(120))
    } else {
        (9, Duration::from_millis(200), Duration::from_millis(450))
    };
    let mut json = String::new();
    json.push_str("{\n  \"schema\": 1,\n  \"bench\": \"engine\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if args.fast { "fast" } else { "full" }
    );

    // ------------------------------------------------------------------
    // Amortized repeated-query workload (engine vs prebuilt vs re-encode).
    // ------------------------------------------------------------------
    let entity_sweep: &[usize] = if args.fast { &[8, 32] } else { &[8, 32, 128] };
    json.push_str("  \"amortized\": [\n");
    for (ix, &entities) in entity_sweep.iter().enumerate() {
        eprintln!("amortized: entities = {entities}");
        let spec = scenarios::amortized_spec(entities);
        let queries = scenarios::amortized_cop_queries(&spec);
        let q = scenarios::amortized_ccqa_query(&spec);
        let opts = Options::default();
        let engine = measure(samples, warmup, window, || {
            let engine = CurrencyEngine::new(&spec, &opts).unwrap();
            for query in &queries {
                std::hint::black_box(engine.cop(query).unwrap());
            }
            std::hint::black_box(engine.certain_answers(&q).unwrap());
        });
        let mut prebuilt_engine = CurrencyEngine::new(&spec, &opts).unwrap();
        prebuilt_engine.cps().unwrap();
        let prebuilt = measure(samples, warmup, window, || {
            for query in &queries {
                std::hint::black_box(prebuilt_engine.cop(query).unwrap());
            }
            std::hint::black_box(prebuilt_engine.certain_answers(&q).unwrap());
        });
        let reencode = measure(samples, warmup, window, || {
            for query in &queries {
                std::hint::black_box(cop_exact_monolithic(&spec, query).unwrap());
            }
            std::hint::black_box(certain_answers_exact_monolithic(&spec, &q).unwrap());
        });
        // Only a COP whose literal level zero leaves open clones its
        // component; the share of such COPs in the batch.
        let mut reader = SnapshotReader::new(prebuilt_engine.snapshot());
        for query in &queries {
            std::hint::black_box(reader.cop(query).unwrap());
        }
        let copies_per_cop = reader.scratch_clones() as f64 / queries.len() as f64;
        let _ = write!(json, "    {{\"entities\": {entities}, \"engine\": ");
        push_measurement(&mut json, &engine);
        json.push_str(", \"prebuilt\": ");
        push_measurement(&mut json, &prebuilt);
        json.push_str(", \"reencode\": ");
        push_measurement(&mut json, &reencode);
        let _ = write!(json, ", \"copies_per_cop\": {copies_per_cop:.3}}}");
        if ix + 1 < entity_sweep.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ],\n");

    // ------------------------------------------------------------------
    // Update workload: a 1-tuple delta against a prebuilt engine vs a
    // full rebuild of the specification.  Each insert is paired with its
    // retraction, so the *live* instance is steady-state (group sizes,
    // components and solver work never grow); retraction tombstones do
    // accumulate one id slot per iteration of the time-windowed loop, so
    // the rebuild baseline starts instead from the base spec plus the
    // fixed churn block, the same specification on every run.
    // ------------------------------------------------------------------
    let churn = if args.fast {
        LARGE_COMPACT_CHURN_FAST
    } else {
        LARGE_COMPACT_CHURN
    };
    eprintln!("update: entities = {UPDATE_ENTITIES}");
    let update_spec = scenarios::amortized_spec(UPDATE_ENTITIES);
    let opts = Options::default();
    let mut engine = CurrencyEngine::new(&update_spec, &opts).unwrap();
    engine.cps().unwrap();
    let components = engine.stats().components;
    let insert = scenarios::update_insert_delta(&update_spec);
    // Worst observed rebuild width across all measured deltas — the
    // deterministic guard for --check.
    let mut rebuilt_per_delta: usize = 0;
    let apply = measure(samples, warmup, window, || {
        let report = engine.apply(&insert).unwrap();
        rebuilt_per_delta = rebuilt_per_delta.max(report.components_rebuilt);
        std::hint::black_box(engine.cps().unwrap());
        let (rel, id) = report.inserted[0];
        let report = engine
            .apply(&scenarios::update_remove_delta(rel, id))
            .unwrap();
        rebuilt_per_delta = rebuilt_per_delta.max(report.components_rebuilt);
        std::hint::black_box(engine.cps().unwrap());
    });
    // The full-rebuild baseline answers the same question (post-delta
    // CPS) by recompiling every component of the churned spec.
    let mut churned = CurrencyEngine::new(&update_spec, &opts).unwrap();
    churn_block(&mut churned, &insert, churn);
    let rebuild = measure(samples, warmup, window, || {
        let fresh = CurrencyEngine::new(churned.spec(), &opts).unwrap();
        std::hint::black_box(fresh.cps().unwrap());
    });
    drop(churned);
    // `apply` measured two delta+query rounds per iteration; halve it so
    // the ratio compares one delta against one rebuild.
    let per_delta_ns = apply.median_ns / 2.0;
    let rebuild_over_apply = rebuild.median_ns / per_delta_ns;
    let _ = write!(
        json,
        "  \"update\": {{\"entities\": {UPDATE_ENTITIES}, \"components\": {components}, \
         \"per_delta_ns\": {per_delta_ns:.0}, \"apply_pair\": "
    );
    push_measurement(&mut json, &apply);
    json.push_str(", \"rebuild\": ");
    push_measurement(&mut json, &rebuild);
    let _ = writeln!(
        json,
        ", \"rebuild_over_apply\": {rebuild_over_apply:.1}, \
         \"rebuilt_per_delta\": {rebuilt_per_delta}}},"
    );

    // ------------------------------------------------------------------
    // Large-scale update workload: the same insert+retract delta pair
    // against prebuilt engines at 1× and 4× spec size (entities, copy
    // mappings, components all scale together).  The delta path is
    // O(dirty region), so per-delta time must stay flat.  The compaction
    // rows then start from the base spec plus the fixed churn block, so
    // every run reclaims the same slots.
    // ------------------------------------------------------------------
    let large_base = if args.fast {
        LARGE_BASE_ENTITIES_FAST
    } else {
        LARGE_BASE_ENTITIES
    };
    let mut large_per_delta: Vec<f64> = Vec::new();
    let mut large_rebuilt_per_delta: usize = 0;
    let mut compact_scales: Vec<CompactScale> = Vec::new();
    json.push_str("  \"large\": [\n");
    for (ix, &scale) in [1usize, 4].iter().enumerate() {
        let entities = large_base * scale;
        eprintln!("large: entities = {entities}");
        let spec = scenarios::large_spec(entities);
        let mappings = spec.total_copy_size();
        let opts = Options::default();
        let mut engine =
            CurrencyEngine::with_value_rels_owned(spec.clone(), &[], &opts).expect("valid spec");
        engine.cps().unwrap();
        let components = engine.stats().components;
        let insert = scenarios::large_insert_delta();
        let apply = measure(samples, warmup, window, || {
            let report = engine.apply(&insert).unwrap();
            large_rebuilt_per_delta = large_rebuilt_per_delta.max(report.components_rebuilt);
            std::hint::black_box(engine.cps().unwrap());
            let (rel, id) = report.inserted[0];
            let report = engine
                .apply(&scenarios::update_remove_delta(rel, id))
                .unwrap();
            large_rebuilt_per_delta = large_rebuilt_per_delta.max(report.components_rebuilt);
            std::hint::black_box(engine.cps().unwrap());
        });
        let per_delta_ns = apply.median_ns / 2.0;
        large_per_delta.push(per_delta_ns);
        // A dead region worth draining, the same on every run: the base
        // spec plus the churn block, not the measured engine, whose loop
        // left one tombstone per (time-windowed) iteration.
        drop(engine);
        let mut engine =
            CurrencyEngine::with_value_rels_owned(spec, &[], &opts).expect("valid spec");
        churn_block(&mut engine, &insert, churn);
        // Four sweeps over the same dirty specification: the core-layer
        // reference (`Specification::compact`, the oracle), the budgeted
        // incremental drain on a twin engine, and one unbounded step on
        // the serving front door and on the engine below.  The drain
        // must stay under the per-step pause bar, reclaim exactly what
        // the reference does, and leave the specification
        // wire-byte-identical to it; the serving compaction must be
        // byte-identical too and finish under the same bar.
        let dirty = engine.spec().clone();
        let mut ref_spec = dirty.clone();
        let t = Instant::now();
        let ref_report = ref_spec.compact();
        let reference_ns = t.elapsed().as_nanos() as f64;
        let serve_writer = CurrencyServe::from_engine(
            CurrencyEngine::with_value_rels_owned(dirty.clone(), &[], &opts)
                .expect("valid dirty spec"),
            &ServeOptions::default(),
        );
        let t = Instant::now();
        let serve_step = serve_writer
            .compact_step(&CompactBudget::UNBOUNDED)
            .unwrap();
        let serve_compact_ns = t.elapsed().as_nanos() as f64;
        let serve_identical = serve_step.reclaimed == ref_report.reclaimed
            && wire::encode_spec(serve_writer.snapshot().spec()) == wire::encode_spec(&ref_spec);
        drop(serve_writer);
        let mut inc =
            CurrencyEngine::with_value_rels_owned(dirty, &[], &opts).expect("valid dirty spec");
        let budget = CompactBudget {
            max_slots_per_step: COMPACT_STEP_SLOTS,
        };
        let mut steps = 0usize;
        let mut max_step_ns = 0f64;
        let mut drain_ns = 0f64;
        let mut drain_reclaimed = 0usize;
        loop {
            let t = Instant::now();
            let step = inc.compact_step(&budget).unwrap();
            let dt = t.elapsed().as_nanos() as f64;
            steps += 1;
            max_step_ns = max_step_ns.max(dt);
            drain_ns += dt;
            drain_reclaimed += step.reclaimed;
            if step.done {
                break;
            }
        }
        let byte_identical = wire::encode_spec(inc.spec()) == wire::encode_spec(&ref_spec);
        let parity = drain_reclaimed == ref_report.reclaimed;
        drop(inc);
        compact_scales.push(CompactScale {
            entities,
            churn,
            steps,
            reclaimed: drain_reclaimed,
            max_step_ns,
            drain_ns,
            reference_ns,
            byte_identical,
            parity,
            serve_compact_ns,
            serve_identical,
        });
        // One unbounded step drains the same slice machinery, so it is
        // cheap at every scale and in every mode — price it always.
        let compact = Some(measure_once(|| {
            std::hint::black_box(
                engine
                    .compact_step(&CompactBudget::UNBOUNDED)
                    .unwrap()
                    .reclaimed,
            );
        }));
        let reclaimed = engine.stats().slots_reclaimed;
        if compact.is_some() {
            assert!(engine.cps().unwrap(), "consistent after compaction");
        }
        let _ = write!(
            json,
            "    {{\"entities\": {entities}, \"mappings\": {mappings}, \
             \"components\": {components}, \"per_delta_ns\": {per_delta_ns:.0}, \
             \"apply_pair\": "
        );
        push_measurement(&mut json, &apply);
        match &compact {
            Some(c) => {
                let per_reclaimed = c.median_ns / reclaimed.max(1) as f64;
                let _ = write!(
                    json,
                    ", \"compact_reclaimed\": {reclaimed}, \"compact_ns\": {:.0}, \
                     \"compact_ns_per_reclaimed\": {per_reclaimed:.0}, \
                     \"compact_few_samples\": {}}}",
                    c.median_ns,
                    c.samples < MIN_SPREAD_SAMPLES
                );
            }
            None => {
                json.push_str(
                    ", \"compact_reclaimed\": null, \"compact_ns\": null, \
                     \"compact_ns_per_reclaimed\": null}",
                );
            }
        }
        if ix == 0 {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ],\n");
    let large_ratio = large_per_delta[1] / large_per_delta[0];

    // ------------------------------------------------------------------
    // The same insert+retract pair through the serving front door
    // (`CurrencyServe::apply`) at 1× and 4×.  Each apply publishes a
    // snapshot that shares the spec,
    // partition and slot pages with the writer, so the pair copies only
    // the pages it dirties; its cost must stay flat as the spec grows.
    // The two scales race in paired, order-alternated rounds so drift
    // lands on both sides.  The time cannot see a small O(spec) term, so
    // the count of pages and page-table chunks a pair copies must also
    // be the same at both scales.  Before the deltas, a snapshot reader
    // answers one COP each way between every entity's first and last
    // reading: unit propagation decides every `large_spec` pair, so the
    // stream must clone no encoding.
    // ------------------------------------------------------------------
    eprintln!(
        "serve_large: entities = {large_base} vs {} (paired)",
        large_base * 4
    );
    // The published slots before any delta are all of one shape, so
    // the mean is each component's footprint; each is decided, so the
    // decided count is the component count.
    let per_component = |st: &EngineStats| {
        [
            st.encoding_bytes / st.components.max(1),
            st.partition_bytes / st.components.max(1),
            usize::from(st.decided_components == st.components),
        ]
    };
    let serve_large_writer = |entities: usize| {
        let writer = CurrencyEngine::with_value_rels_owned(
            scenarios::large_spec(entities),
            &[],
            &Options::default(),
        )
        .expect("valid spec");
        let bytes = per_component(&writer.stats());
        let serve = CurrencyServe::from_engine(writer, &ServeOptions::default());
        ((serve, 0u64), bytes)
    };
    let ((mut serve_1x, bytes_1x), (mut serve_4x, bytes_4x)) = (
        serve_large_writer(large_base),
        serve_large_writer(large_base * 4),
    );
    let component_bytes = [bytes_1x[0], bytes_4x[0]];
    let partition_bytes = [bytes_1x[1], bytes_4x[1]];
    let all_decided = [bytes_1x[2] == 1, bytes_4x[2] == 1];
    let cop_copies = |(writer, _): &(CurrencyServe, u64), entities: usize| {
        let mut reader = SnapshotReader::new(writer.snapshot());
        let per = scenarios::LARGE_TUPLES_PER_ENTITY as u32;
        for e in 0..entities as u32 {
            let (first, last) = (TupleId(per * e), TupleId(per * e + per - 1));
            for (u, v) in [(first, last), (last, first)] {
                let q = CurrencyOrderQuery::single(scenarios::T, AttrId(0), u, v);
                std::hint::black_box(reader.cop(&q).unwrap());
            }
        }
        reader.scratch_clones()
    };
    let large_cop_copies = [
        cop_copies(&serve_1x, large_base),
        cop_copies(&serve_4x, large_base * 4),
    ];
    let insert = scenarios::large_insert_delta();
    let serve_pairs = |(writer, copied): &mut (CurrencyServe, u64)| {
        for _ in 0..SERVE_LARGE_PAIRS_PER_ROUND {
            let report = writer.apply(&insert).unwrap();
            let (rel, id) = report.inserted[0];
            let retract = writer
                .apply(&scenarios::update_remove_delta(rel, id))
                .unwrap();
            // A reader pins each epoch, as serving does.
            std::hint::black_box(writer.snapshot().cps());
            *copied = (*copied).max(report.pages_copied + retract.pages_copied);
        }
    };
    let (serve_4x_pairs, serve_1x_pairs, serve_large_ratio) = measure_paired(
        (samples * 8).max(64),
        4,
        || serve_pairs(&mut serve_4x),
        || serve_pairs(&mut serve_1x),
    );
    let serve_per_delta = |m: &Measurement| m.median_ns / (2 * SERVE_LARGE_PAIRS_PER_ROUND) as f64;
    let serve_pages_copied = [serve_1x.1, serve_4x.1];
    drop((serve_1x, serve_4x));
    let _ = writeln!(
        json,
        "  \"serve_large\": {{\"entities\": [{large_base}, {}], \
         \"serve_per_delta_ns\": [{:.0}, {:.0}], \
         \"max_pages_copied_per_pair\": [{}, {}], \"ratio_4x_over_1x\": {serve_large_ratio:.2}, \
         \"encoding_bytes_per_component\": [{}, {}], \
         \"partition_bytes_per_component\": [{}, {}], \
         \"all_decided\": [{}, {}], \
         \"cop_copies\": [{}, {}]}},",
        large_base * 4,
        serve_per_delta(&serve_1x_pairs),
        serve_per_delta(&serve_4x_pairs),
        serve_pages_copied[0],
        serve_pages_copied[1],
        component_bytes[0],
        component_bytes[1],
        partition_bytes[0],
        partition_bytes[1],
        all_decided[0],
        all_decided[1],
        large_cop_copies[0],
        large_cop_copies[1],
    );

    // ------------------------------------------------------------------
    // Compaction section: the budgeted incremental drain vs the
    // monolithic reference at both large scales.  Guarded by --check:
    // every step under the pause bound, reclaimed parity, byte-identical
    // final specification, and per-reclaimed drain cost flat across the
    // 4× spec-size jump.
    // ------------------------------------------------------------------
    // Each scale's timings are single runs, so every row is marked.
    json.push_str("  \"compaction\": {\"scales\": [\n");
    for (ix, cs) in compact_scales.iter().enumerate() {
        let per_reclaimed = cs.drain_ns / cs.reclaimed.max(1) as f64;
        let _ = write!(
            json,
            "    {{\"entities\": {}, \"churn\": {}, \"steps\": {}, \"reclaimed\": {}, \
             \"max_step_ns\": {:.0}, \"drain_ns\": {:.0}, \
             \"drain_ns_per_reclaimed\": {per_reclaimed:.0}, \"reference_ns\": {:.0}, \
             \"byte_identical\": {}, \"reclaimed_parity\": {}, \
             \"serve_compact_ns\": {:.0}, \"serve_byte_identical\": {}, \
             \"few_samples\": true}}",
            cs.entities,
            cs.churn,
            cs.steps,
            cs.reclaimed,
            cs.max_step_ns,
            cs.drain_ns,
            cs.reference_ns,
            cs.byte_identical,
            cs.parity,
            cs.serve_compact_ns,
            cs.serve_identical
        );
        json.push_str(if ix == 0 { ",\n" } else { "\n" });
    }
    let compact_max_step_ns = compact_scales
        .iter()
        .map(|c| c.max_step_ns)
        .fold(0f64, f64::max);
    let compact_step_flat_ratio = {
        let per = |c: &CompactScale| c.drain_ns / c.reclaimed.max(1) as f64;
        per(&compact_scales[1]) / per(&compact_scales[0])
    };
    let compact_identical = compact_scales.iter().all(|c| c.byte_identical);
    let compact_parity = compact_scales.iter().all(|c| c.parity);
    let serve_compact_max_ns = compact_scales
        .iter()
        .map(|c| c.serve_compact_ns)
        .fold(0f64, f64::max);
    let serve_compact_identical = compact_scales.iter().all(|c| c.serve_identical);
    let _ = writeln!(
        json,
        "  ], \"budget_slots\": {COMPACT_STEP_SLOTS}, \
         \"budget_pause_ms\": {COMPACT_MAX_PAUSE_MS}, \
         \"max_step_ns\": {compact_max_step_ns:.0}, \
         \"step_flat_ratio\": {compact_step_flat_ratio:.2}}},"
    );

    // ------------------------------------------------------------------
    // Durability workload (currency-store): log-append overhead per
    // delta vs the in-memory apply path, then recovery of a logged
    // history (snapshot + suffix replay) vs re-applying every delta from
    // scratch.  fsync is off so the section measures the durability
    // *machinery* (framing, checksumming, buffered writes), not the
    // runner's disk.
    // ------------------------------------------------------------------
    let durability_deltas = if args.fast {
        DURABILITY_DELTAS_FAST
    } else {
        DURABILITY_DELTAS
    };
    eprintln!("durability: entities = {UPDATE_ENTITIES}, history = {durability_deltas} deltas");
    let bench_dir =
        std::env::temp_dir().join(format!("currency-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&bench_dir);
    let store_opts = StoreOptions {
        sync_data: false,
        snapshot_rotate_bytes: u64::MAX, // rotation is driven explicitly below
        ..StoreOptions::default()
    };
    let durable_spec = scenarios::amortized_spec(UPDATE_ENTITIES);
    let opts = Options::default();
    // (a) Per-delta overhead: the same insert+retract+CPS pair loop as
    // the update section, through a DurableEngine and through a plain
    // CurrencyEngine on identical specs.
    // The two paths race in paired, order-alternating rounds (one
    // insert+CPS+retract+CPS pair each per round): measuring them as two
    // back-to-back series let environment drift land entirely on one
    // side, inflating the reported overhead to 1.38× of a ~1.06× path.
    // The per-round ratio cancels the shared drift; its median is the
    // overhead.  (Bisect note: the once-suspected per-append culprits
    // are innocent — delta validation is ~80 ns and the Vfs-seam append
    // is one buffered `write` — the creep was the measurement.)
    let mut durable = DurableEngine::create(
        &bench_dir.join("overhead"),
        durable_spec.clone(),
        &opts,
        store_opts,
    )
    .expect("fresh store");
    durable.cps().unwrap();
    let mut memory = CurrencyEngine::new_owned(durable_spec.clone(), &opts).unwrap();
    memory.cps().unwrap();
    let insert = scenarios::update_insert_delta(&durable_spec);
    let pair_rounds = (samples * 8).max(64);
    let (durable_apply, memory_apply, durable_over_apply) = measure_paired(
        pair_rounds,
        8,
        || {
            let report = durable.apply(&insert).unwrap();
            std::hint::black_box(durable.cps().unwrap());
            let (rel, id) = report.inserted[0];
            let report = durable
                .apply(&scenarios::update_remove_delta(rel, id))
                .unwrap();
            std::hint::black_box(durable.cps().unwrap());
            std::hint::black_box(report.cells_touched);
        },
        || {
            let report = memory.apply(&insert).unwrap();
            std::hint::black_box(memory.cps().unwrap());
            let (rel, id) = report.inserted[0];
            let report = memory
                .apply(&scenarios::update_remove_delta(rel, id))
                .unwrap();
            std::hint::black_box(memory.cps().unwrap());
            std::hint::black_box(report.cells_touched);
        },
    );
    drop(durable);
    drop(memory);
    let durable_per_delta = durable_apply.median_ns / 2.0;
    let memory_per_delta = memory_apply.median_ns / 2.0;
    // (b) Recovery: build a recorded history, snapshot at 80%, and race
    // `open` (snapshot + suffix replay) against a from-scratch re-apply
    // of all recorded deltas.
    let history_dir = bench_dir.join("history");
    let mut durable = DurableEngine::create(&history_dir, durable_spec.clone(), &opts, store_opts)
        .expect("fresh store");
    let mut history: Vec<SpecDelta> = Vec::with_capacity(durability_deltas);
    let snapshot_point = (durability_deltas as f64 * DURABILITY_SNAPSHOT_FRACTION) as usize;
    while history.len() < durability_deltas {
        let report = durable.apply(&insert).unwrap();
        history.push(insert.clone());
        if history.len() == snapshot_point {
            durable.snapshot_now().unwrap();
        }
        if history.len() == durability_deltas {
            break;
        }
        let (rel, id) = report.inserted[0];
        let retract = scenarios::update_remove_delta(rel, id);
        durable.apply(&retract).unwrap();
        history.push(retract);
        if history.len() == snapshot_point {
            durable.snapshot_now().unwrap();
        }
    }
    durable.flush().unwrap();
    let expected_suffix = durability_deltas - snapshot_point;
    drop(durable);
    // Paired rounds: the speedup is the median per-round ratio, so a
    // load spike lands on both sides of a round instead of on one
    // sample of the numerator.
    let mut replayed: usize = 0;
    let (full_reapply, open, recovery_speedup) = measure_paired(
        (samples * 3).max(MIN_SPREAD_SAMPLES),
        1,
        || {
            let mut fresh = CurrencyEngine::new_owned(durable_spec.clone(), &opts).unwrap();
            for delta in &history {
                fresh.apply(delta).unwrap();
            }
            std::hint::black_box(fresh.cps().unwrap());
        },
        || {
            let recovered =
                DurableEngine::open(&history_dir, &opts, store_opts).expect("clean store");
            replayed = recovered.recovery().deltas_replayed;
            std::hint::black_box(recovered.cps().unwrap());
        },
    );
    let replay_deltas_per_s = replayed as f64 / (open.median_ns / 1e9);
    let _ = std::fs::remove_dir_all(&bench_dir);
    let _ = write!(
        json,
        "  \"durability\": {{\"entities\": {UPDATE_ENTITIES}, \"deltas\": {durability_deltas}, \
         \"durable_per_delta_ns\": {durable_per_delta:.0}, \
         \"memory_per_delta_ns\": {memory_per_delta:.0}, \
         \"durable_over_apply\": {durable_over_apply:.2}, \"durable_pair\": "
    );
    push_measurement(&mut json, &durable_apply);
    json.push_str(", \"memory_pair\": ");
    push_measurement(&mut json, &memory_apply);
    json.push_str(", \"open\": ");
    push_measurement(&mut json, &open);
    json.push_str(", \"full_reapply\": ");
    push_measurement(&mut json, &full_reapply);
    let _ = writeln!(
        json,
        ", \"replayed\": {replayed}, \"expected_suffix\": {expected_suffix}, \
         \"replay_deltas_per_s\": {replay_deltas_per_s:.0}, \
         \"recovery_speedup\": {recovery_speedup:.2}}},"
    );

    // ------------------------------------------------------------------
    // Sharded scale-out workload (ShardedEngine / ShardedStore): (a)
    // per-delta apply + scatter-CPS flatness from the 10k-entity
    // baseline to the 100k-entity point on an 8-way engine; (b) parallel
    // vs sequential recovery of an 8-shard durable
    // store; (c) the 10k-seed CPS differential sweep against the
    // unsharded engine (deterministic: zero disagreements).
    // ------------------------------------------------------------------
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sharded_base = if args.fast {
        SHARDED_BASE_ENTITIES_FAST
    } else {
        SHARDED_BASE_ENTITIES
    };
    let mut sharded_per_delta: Vec<f64> = Vec::new();
    let _ = writeln!(
        json,
        "  \"sharded\": {{\"shards\": {SHARDED_SHARDS}, \"apply\": ["
    );
    for (ix, &scale) in [1usize, SHARDED_SCALE].iter().enumerate() {
        let entities = sharded_base * scale;
        eprintln!("sharded: entities = {entities} ({SHARDED_SHARDS}-way build)");
        let spec = scenarios::sharded_spec(entities);
        let opts = Options::default();
        let mut sharded = ShardedEngine::new(&spec, SHARDED_SHARDS, &opts).expect("clean split");
        assert!(
            sharded.cps().expect("in budget"),
            "consistent by construction"
        );
        let insert = scenarios::large_insert_delta();
        // Entity 0's readings live in exactly one shard; the routed
        // apply must land there and nowhere else.
        let owner = sharded.plan().shard_of(Eid(0));
        let report = sharded.apply(&insert).expect("admissible");
        assert_eq!(
            report.shard,
            Some(owner),
            "entity delta routed to its owner"
        );
        let (rel, id) = report.inserted[0];
        sharded
            .apply(&scenarios::update_remove_delta(rel, id))
            .expect("admissible");
        let apply = measure(samples, warmup, window, || {
            let report = sharded.apply(&insert).unwrap();
            std::hint::black_box(sharded.cps().unwrap());
            let (rel, id) = report.inserted[0];
            sharded
                .apply(&scenarios::update_remove_delta(rel, id))
                .unwrap();
            std::hint::black_box(sharded.cps().unwrap());
        });
        let per_delta_ns = apply.median_ns / 2.0;
        sharded_per_delta.push(per_delta_ns);
        // Warm scatter-gather CPS: every shard verdict is cached, so
        // this prices the all-shards conjunction itself.
        let scatter = measure(samples, warmup, window, || {
            std::hint::black_box(sharded.cps().unwrap());
        });
        let components = sharded.stats().total.components;
        let _ = write!(
            json,
            "    {{\"entities\": {entities}, \"components\": {components}, \
             \"per_delta_ns\": {per_delta_ns:.0}, \"apply_pair\": "
        );
        push_measurement(&mut json, &apply);
        json.push_str(", \"scatter_cps\": ");
        push_measurement(&mut json, &scatter);
        json.push('}');
        if ix == 0 {
            json.push(',');
        }
        json.push('\n');
    }
    let sharded_ratio = sharded_per_delta[1] / sharded_per_delta[0];
    let _ = write!(json, "  ], \"flat_ratio\": {sharded_ratio:.2},\n  ");
    // (b) Recovery race: a logged history of single-shard inserts spread
    // round-robin over the entities, then the two open paths.  fsync
    // and rotation are off, so every logged delta replays and the race
    // measures per-shard engine rebuild + replay, not the disk.
    let sharded_rec_entities = if args.fast {
        SHARDED_RECOVERY_ENTITIES_FAST
    } else {
        SHARDED_RECOVERY_ENTITIES
    };
    let sharded_rec_deltas = if args.fast {
        SHARDED_RECOVERY_DELTAS_FAST
    } else {
        SHARDED_RECOVERY_DELTAS
    };
    eprintln!(
        "sharded: recovery, entities = {sharded_rec_entities}, \
         history = {sharded_rec_deltas} deltas"
    );
    let sharded_dir =
        std::env::temp_dir().join(format!("currency-bench-sharded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&sharded_dir);
    let sharded_rec_spec = scenarios::sharded_spec(sharded_rec_entities);
    let opts = Options::default();
    let sharded_store_opts = StoreOptions {
        sync_data: false,
        snapshot_rotate_bytes: u64::MAX,
        ..StoreOptions::default()
    };
    let mut sharded_store = ShardedStore::create(
        &sharded_dir,
        &sharded_rec_spec,
        SHARDED_SHARDS,
        &opts,
        sharded_store_opts,
    )
    .expect("fresh store");
    for i in 0..sharded_rec_deltas {
        let mut delta = SpecDelta::new();
        delta.insert_tuple(
            scenarios::T,
            Tuple::new(
                Eid((i % sharded_rec_entities) as u64),
                vec![Value::int(1_000_000 + i as i64)],
            ),
        );
        sharded_store.apply(&delta).expect("admissible");
    }
    sharded_store.flush().expect("clean log");
    drop(sharded_store); // crash
    let mut sharded_replayed: usize = 0;
    let sharded_par_open = measure(samples, warmup, window, || {
        let s = ShardedStore::open(&sharded_dir, &opts, sharded_store_opts).expect("clean store");
        sharded_replayed = s.recoveries().iter().map(|r| r.deltas_replayed).sum();
        std::hint::black_box(s.shards());
    });
    let sharded_seq_open = measure(samples, warmup, window, || {
        let s = ShardedStore::open_sequential(&sharded_dir, &opts, sharded_store_opts)
            .expect("clean store");
        std::hint::black_box(s.shards());
    });
    let _ = std::fs::remove_dir_all(&sharded_dir);
    let sharded_recovery_speedup = sharded_seq_open.median_ns / sharded_par_open.median_ns;
    let _ = write!(
        json,
        "\"recovery\": {{\"entities\": {sharded_rec_entities}, \
         \"deltas\": {sharded_rec_deltas}, \"replayed\": {sharded_replayed}, \
         \"parallel_open\": "
    );
    push_measurement(&mut json, &sharded_par_open);
    json.push_str(", \"sequential_open\": ");
    push_measurement(&mut json, &sharded_seq_open);
    let _ = write!(
        json,
        ", \"parallel_speedup\": {sharded_recovery_speedup:.2}}},\n  "
    );
    // (c) Differential sweep: scatter-gather CPS must agree with the
    // unsharded engine on every seed of the property suites' space.
    let sharded_diff_seeds = if args.fast {
        SHARDED_DIFF_SEEDS_FAST
    } else {
        SHARDED_DIFF_SEEDS
    };
    eprintln!("sharded: differential sweep, {sharded_diff_seeds} seeds");
    let mut sharded_diff_disagreements: u64 = 0;
    let mut sharded_diff_cps_true: u64 = 0;
    for seed in 0..sharded_diff_seeds {
        let spec = random_spec(&RandomSpecConfig {
            entities: 3,
            tuples_per_entity: (1, 2),
            attrs: 1,
            value_pool: 2,
            order_density: 0.25,
            monotone_constraints: (seed % 2) as usize,
            correlated_constraints: 0,
            with_copy: true,
            seed,
        });
        let unsharded = CurrencyEngine::new(&spec, &opts)
            .expect("valid spec")
            .cps()
            .expect("in budget");
        let sharded = ShardedEngine::new(&spec, SHARDED_DIFF_SHARDS, &opts)
            .expect("clean split")
            .cps()
            .expect("in budget");
        if unsharded != sharded {
            sharded_diff_disagreements += 1;
        }
        if unsharded {
            sharded_diff_cps_true += 1;
        }
    }
    let _ = writeln!(
        json,
        "\"differential\": {{\"seeds\": {sharded_diff_seeds}, \
         \"shards\": {SHARDED_DIFF_SHARDS}, \
         \"disagreements\": {sharded_diff_disagreements}, \
         \"cps_true\": {sharded_diff_cps_true}}}}},"
    );

    // ------------------------------------------------------------------
    // Serve workload (currency-serve): sustained multi-reader qps over a
    // concurrent delta stream, then the deterministic repeated-query
    // cache workload.  The qps sweep shares one spec and one request
    // pool across thread counts so the ratios are apples-to-apples; the
    // cache run has no writer, so its hit rate is exact arithmetic.
    // ------------------------------------------------------------------
    let serve_window = if args.fast {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(600)
    };
    let serve_spec = scenarios::amortized_spec(UPDATE_ENTITIES);
    let serve_pool = scenarios::serve_request_pool(&serve_spec);
    let mut serve_qps: Vec<(usize, f64)> = Vec::new();
    let _ = writeln!(
        json,
        "  \"serve\": {{\"entities\": {UPDATE_ENTITIES}, \"cores\": {cores}, \
         \"pool\": {}, \"window_ms\": {}, \"readers\": [",
        serve_pool.len(),
        serve_window.as_millis()
    );
    for (ix, &threads) in SERVE_READER_SWEEP.iter().enumerate() {
        eprintln!("serve: readers = {threads}");
        let (qps, stats, latency) =
            serve_sustained_qps(&serve_spec, &serve_pool, threads, serve_window);
        serve_qps.push((threads, qps));
        let _ = write!(
            json,
            "    {{\"threads\": {threads}, \"qps\": {qps:.0}, \"queries\": {}, \
             \"hit_rate\": {:.3}, \"epochs\": {}, \"mean_latency_ns\": {}, \
             \"max_latency_ns\": {}}}",
            stats.queries,
            stats.hit_rate(),
            stats.epoch,
            latency.sum.checked_div(latency.count()).unwrap_or(0),
            latency.max
        );
        if ix + 1 < SERVE_READER_SWEEP.len() {
            json.push(',');
        }
        json.push('\n');
    }
    let qps_at = |threads: usize| {
        serve_qps
            .iter()
            .find(|(t, _)| *t == threads)
            .expect("sweep includes it")
            .1
    };
    let serve_scaling = qps_at(8) / qps_at(1);
    // Deterministic cache workload: one published epoch, one handle,
    // SERVE_CACHE_ROUNDS passes over the pool — only the first pass can
    // miss.
    let cache_serve = CurrencyServe::new(
        serve_spec.clone(),
        &Options::default(),
        &ServeOptions::default(),
    )
    .expect("valid spec");
    let mut cache_handle = cache_serve.handle();
    for _ in 0..SERVE_CACHE_ROUNDS {
        for req in &serve_pool {
            std::hint::black_box(cache_handle.query(req).expect("in budget"));
        }
    }
    let cache_stats = cache_serve.stats();
    let serve_cache_hit_rate = cache_stats.hit_rate();
    let _ = writeln!(
        json,
        "  ], \"scaling_8v1\": {serve_scaling:.2}, \
         \"cache\": {{\"rounds\": {SERVE_CACHE_ROUNDS}, \"queries\": {}, \
         \"hits\": {}, \"misses\": {}, \"hit_rate\": {serve_cache_hit_rate:.3}}}}},",
        cache_stats.queries, cache_stats.cache_hits, cache_stats.cache_misses
    );

    // ------------------------------------------------------------------
    // Robustness workload: bounded-work serving.  (a) A COP solve under
    // a starvation budget (1 conflict, 1 propagation) on the 128-entity
    // spec must come back Interrupted in far under a millisecond — the
    // deterministic proof that budgets reach the solver and that
    // interruption costs the caller nothing.  (b) A barrier-released
    // burst of 64 threads against a 2-slot in-flight cap (cache off, so
    // every admitted query really solves) must answer at least once and
    // fail only with a clean `Overloaded`, no thread may panic, and the
    // stats must count exactly the sheds the callers saw (that a full cap
    // sheds is pinned by `full_inflight_cap_sheds_exactly_one_query`).
    // ------------------------------------------------------------------
    eprintln!("robustness: interrupted COP + overload burst");
    let robust_spec = scenarios::amortized_spec(UPDATE_ENTITIES);
    let robust_queries = scenarios::amortized_cop_queries(&robust_spec);
    let mut snap = CurrencyEngine::new(&robust_spec, &Options::default()).expect("valid spec");
    let mut bounded = SnapshotReader::new(snap.snapshot());
    bounded.set_solve_limits(SolveLimits {
        max_conflicts: Some(1),
        max_props: Some(1),
    });
    let mut interrupted_min_ns = f64::INFINITY;
    let mut interrupted_all = true;
    for _ in 0..INTERRUPTED_COP_TRIES {
        let t = Instant::now();
        let verdict = bounded.cop(&robust_queries[0]);
        let ns = t.elapsed().as_nanos() as f64;
        interrupted_min_ns = interrupted_min_ns.min(ns);
        interrupted_all &= matches!(verdict, Err(ReasonError::Interrupted { .. }));
    }
    let interrupted_ok = interrupted_all && interrupted_min_ns <= INTERRUPTED_COP_WALL_NS;

    let burst_serve = Arc::new(
        CurrencyServe::new(
            robust_spec.clone(),
            &Options::default(),
            &ServeOptions {
                cache_capacity: 0,
                max_inflight: BURST_INFLIGHT_CAP,
                ..ServeOptions::default()
            },
        )
        .expect("valid spec"),
    );
    let barrier = Arc::new(Barrier::new(BURST_THREADS));
    let burst: Vec<(u64, u64, u64)> = (0..BURST_THREADS)
        .map(|i| {
            let serve = burst_serve.clone();
            let barrier = barrier.clone();
            let pool = serve_pool.clone();
            std::thread::spawn(move || {
                let mut handle = serve.handle();
                let (mut answered, mut shed, mut unexpected) = (0u64, 0u64, 0u64);
                barrier.wait();
                for k in 0..BURST_QUERIES_PER_THREAD {
                    match handle.query(&pool[(i + k) % pool.len()]) {
                        Ok(_) => answered += 1,
                        Err(ServeError::Overloaded) => shed += 1,
                        Err(_) => unexpected += 1,
                    }
                }
                (answered, shed, unexpected)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("burst thread must not panic"))
        .collect();
    let burst_answered: u64 = burst.iter().map(|r| r.0).sum();
    let burst_shed: u64 = burst.iter().map(|r| r.1).sum();
    let burst_unexpected: u64 = burst.iter().map(|r| r.2).sum();
    let burst_stats = burst_serve.stats();
    let shed_ok = burst_unexpected == 0 && burst_answered >= 1 && burst_stats.shed == burst_shed;
    let _ = writeln!(
        json,
        "  \"robustness\": {{\"interrupted_cop_min_ns\": {interrupted_min_ns:.0}, \
         \"interrupted_all\": {interrupted_all}, \
         \"burst_threads\": {BURST_THREADS}, \"burst_inflight_cap\": {BURST_INFLIGHT_CAP}, \
         \"burst_answered\": {burst_answered}, \"burst_shed\": {burst_shed}, \
         \"burst_unexpected\": {burst_unexpected}, \"stats_shed\": {}}},",
        burst_stats.shed
    );

    // ------------------------------------------------------------------
    // Observability overhead (currency-obs): the same per-delta
    // apply+CPS loop on identical engines, raced pairwise with the
    // metrics toggled: the always-on metrics vs metrics off, the price
    // every user pays.  Paired, order-alternated rounds for the same
    // reason as the durable section: the honest ratio sits within a few
    // percent of 1.0, where back-to-back series drift would swamp the
    // signal.
    // ------------------------------------------------------------------
    // The guard here is the tightest in the file (1.02×), so this
    // section buys extra rounds: the loop is ~100 µs, and a 4× longer
    // paired series keeps the median ratio stable against scheduler
    // noise that a 72-round series still lets through.
    let obs_rounds = (samples * 32).max(256);
    eprintln!("obs: entities = {UPDATE_ENTITIES}, paired rounds = {obs_rounds}");
    let obs_spec = scenarios::amortized_spec(UPDATE_ENTITIES);
    let obs_insert = scenarios::update_insert_delta(&obs_spec);
    let obs_loop = |engine: &mut CurrencyEngine| {
        let report = engine.apply(&obs_insert).unwrap();
        std::hint::black_box(engine.cps().unwrap());
        let (rel, id) = report.inserted[0];
        let report = engine
            .apply(&scenarios::update_remove_delta(rel, id))
            .unwrap();
        std::hint::black_box(engine.cps().unwrap());
        std::hint::black_box(report.cells_touched);
    };
    let obs_opts = Options::default();
    let obs_engine = |enabled: bool| {
        let mut engine = CurrencyEngine::new_owned(obs_spec.clone(), &obs_opts).unwrap();
        engine.obs_mut().set_enabled(enabled);
        engine.cps().unwrap();
        engine
    };
    let mut metrics_on = obs_engine(true);
    let mut metrics_off = obs_engine(false);
    let (obs_noop_m, obs_disabled_m, obs_noop_over) = measure_paired(
        obs_rounds,
        8,
        || obs_loop(&mut metrics_on),
        || obs_loop(&mut metrics_off),
    );
    eprintln!("obs: metrics on {obs_noop_over:.3}x metrics off");
    let _ = write!(
        json,
        "  \"obs\": {{\"noop_over_disabled\": {obs_noop_over:.3}, \"noop\": "
    );
    push_measurement(&mut json, &obs_noop_m);
    json.push_str(", \"disabled\": ");
    push_measurement(&mut json, &obs_disabled_m);
    json.push_str("},\n");

    // ------------------------------------------------------------------
    // Lazy engine vs the eager whole-specification reference encoding
    // on one large entity group.
    // ------------------------------------------------------------------
    let group_sweep: &[usize] = if args.fast {
        &[16, 64]
    } else {
        &[16, 32, 64, 128]
    };
    let mut lazy_64_median: Option<f64> = None;
    let mut lazy_64_clauses: Option<usize> = None;
    json.push_str("  \"scaling\": [\n");
    for (ix, &n) in group_sweep.iter().enumerate() {
        eprintln!("scaling: group size = {n}");
        let spec = scenarios::big_group_spec(n);
        // Capture the per-run solver counters from the measured workload
        // itself (every iteration builds an identical engine, so the last
        // iteration's stats are the stats).
        let mut lazy_stats = currency_reason::EngineStats::default();
        let lazy = measure(samples, warmup, window, || {
            lazy_stats = scenarios::big_group_workload(&spec).stats();
            std::hint::black_box(&lazy_stats);
        });
        if n == 64 {
            lazy_64_median = Some(lazy.median_ns);
            lazy_64_clauses = Some(lazy_stats.clauses);
        }
        // Eager grounding is cubic; at n = 128 (≈ 2M clauses) measure one
        // shot rather than filling a sampling window, and skip it entirely
        // in fast mode.
        let eager = if args.fast {
            None
        } else if n > 64 {
            Some(measure_once(|| {
                std::hint::black_box(scenarios::big_group_eager(&spec));
            }))
        } else {
            Some(measure(samples, warmup, window, || {
                std::hint::black_box(scenarios::big_group_eager(&spec));
            }))
        };
        let _ = write!(json, "    {{\"group_size\": {n}, \"lazy\": ");
        push_measurement(&mut json, &lazy);
        let _ = write!(
            json,
            ", \"lazy_vars\": {}, \"lazy_clauses\": {}, \"lazy_lemmas\": {}",
            lazy_stats.vars, lazy_stats.clauses, lazy_stats.sat.lemmas_added
        );
        match &eager {
            Some(e) => {
                json.push_str(", \"eager\": ");
                push_measurement(&mut json, e);
                let _ = write!(
                    json,
                    ", \"eager_over_lazy\": {:.1}",
                    e.median_ns / lazy.median_ns
                );
            }
            None => json.push_str(", \"eager\": null"),
        }
        json.push('}');
        if ix + 1 < group_sweep.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ],\n");

    // ------------------------------------------------------------------
    // The paper's Table II/III series.  Wall times are recorded, never
    // guarded; the guards are counts: every PTIME row answers as its
    // exact counterpart, and every reduction stays within a cubic of its
    // smallest size.
    // ------------------------------------------------------------------
    let paper = paper_section(args.fast, samples, warmup, window);
    json.push_str(&paper.json());
    let paper_disagreements = paper.disagreements();
    let paper_superpoly = paper.superpolynomial();

    // ------------------------------------------------------------------
    // Threshold verdicts (informational unless --check).
    // ------------------------------------------------------------------
    let lazy_64 = lazy_64_median.expect("sweep includes n = 64");
    let clauses_64 = lazy_64_clauses.expect("sweep includes n = 64");
    let time_ok = lazy_64 <= LAZY_64_THRESHOLD_NS;
    let clauses_ok = clauses_64 <= LAZY_64_CLAUSE_LIMIT;
    let update_ok = rebuilt_per_delta <= UPDATE_REBUILT_LIMIT;
    let large_flat_ok = large_ratio <= LARGE_FLAT_FACTOR;
    let serve_large_flat_ok = serve_large_ratio <= LARGE_FLAT_FACTOR;
    let serve_large_pages_flat_ok = serve_pages_copied[0] == serve_pages_copied[1];
    let large_rebuilt_ok = large_rebuilt_per_delta <= UPDATE_REBUILT_LIMIT;
    let component_bytes_1x = component_bytes[0];
    let large_component_bytes_ok = component_bytes_1x <= LARGE_COMPONENT_BYTES_LIMIT
        && component_bytes_1x == component_bytes[1];
    let partition_bytes_1x = partition_bytes[0];
    let large_partition_bytes_ok = partition_bytes_1x <= LARGE_PARTITION_BYTES_LIMIT
        && partition_bytes_1x == partition_bytes[1];
    let large_decided_ok = all_decided == [true, true];
    let large_cop_copies_ok = large_cop_copies == [0, 0];
    let compact_pause_ok = compact_max_step_ns <= (COMPACT_MAX_PAUSE_MS * 1_000_000) as f64;
    let compact_flat_ok = compact_step_flat_ratio <= COMPACT_FLAT_FACTOR;
    let compact_exact_ok = compact_identical && compact_parity;
    let serve_compact_ok = serve_compact_identical
        && serve_compact_max_ns <= (COMPACT_MAX_PAUSE_MS * 1_000_000) as f64;
    let durable_overhead_ok = durable_over_apply <= DURABLE_OVERHEAD_FACTOR;
    let obs_noop_ok = obs_noop_over <= OBS_NOOP_FACTOR;
    let replay_count_ok = replayed == expected_suffix;
    let recovery_ok =
        recovery_speedup >= RECOVERY_SPEEDUP_MIN && open.median_ns <= RECOVERY_WALL_NS;
    // The full scaling bar applies only where the hardware can show it;
    // the collapse floor applies everywhere.
    let serve_scaling_enforced = cores >= SERVE_SCALING_MIN_CORES;
    let serve_scaling_ok = if serve_scaling_enforced {
        serve_scaling >= SERVE_SCALING_MIN
    } else {
        serve_scaling >= SERVE_COLLAPSE_FLOOR
    };
    let serve_cache_ok = serve_cache_hit_rate >= SERVE_CACHE_HIT_MIN;
    let sharded_flat_ok = sharded_ratio <= SHARDED_FLAT_FACTOR;
    // Like the serve scaling bar: the parallelism floor applies only
    // where the hardware can show it, the collapse floor everywhere.
    let sharded_recovery_enforced = cores >= SHARDED_RECOVERY_MIN_CORES;
    let sharded_recovery_ok = if sharded_recovery_enforced {
        sharded_recovery_speedup >= SHARDED_RECOVERY_SPEEDUP_MIN
    } else {
        sharded_recovery_speedup >= SHARDED_RECOVERY_COLLAPSE_FLOOR
    };
    let sharded_replay_ok = sharded_replayed == sharded_rec_deltas;
    let sharded_diff_ok = sharded_diff_disagreements == 0;
    // Every guard, in the module doc's order.
    let guards = [
        ("time_ok", time_ok),
        ("clauses_ok", clauses_ok),
        ("update_ok", update_ok),
        ("large_flat_ok", large_flat_ok),
        ("serve_large_flat_ok", serve_large_flat_ok),
        ("serve_large_pages_flat_ok", serve_large_pages_flat_ok),
        ("large_rebuilt_ok", large_rebuilt_ok),
        ("large_component_bytes_ok", large_component_bytes_ok),
        ("large_partition_bytes_ok", large_partition_bytes_ok),
        ("large_decided_ok", large_decided_ok),
        ("large_cop_copies_ok", large_cop_copies_ok),
        ("compact_pause_ok", compact_pause_ok),
        ("compact_flat_ok", compact_flat_ok),
        ("compact_exact_ok", compact_exact_ok),
        ("serve_compact_ok", serve_compact_ok),
        ("durable_overhead_ok", durable_overhead_ok),
        ("obs_noop_ok", obs_noop_ok),
        ("replay_count_ok", replay_count_ok),
        ("recovery_ok", recovery_ok),
        ("serve_scaling_ok", serve_scaling_ok),
        ("serve_cache_ok", serve_cache_ok),
        ("interrupted_ok", interrupted_ok),
        ("shed_ok", shed_ok),
        ("sharded_flat_ok", sharded_flat_ok),
        ("sharded_recovery_ok", sharded_recovery_ok),
        ("sharded_replay_ok", sharded_replay_ok),
        ("sharded_diff_ok", sharded_diff_ok),
        ("paper_ptime_agrees_ok", paper_disagreements.is_empty()),
        ("paper_reduction_poly_ok", paper_superpoly.is_empty()),
    ];
    let pass = guards.iter().all(|g| g.1);
    let mut check = String::new();
    let _ = write!(
        check,
        "{{\"lazy_64_median_ns\": {lazy_64:.0}, \
         \"lazy_64_threshold_ns\": {LAZY_64_THRESHOLD_NS:.0}, \
         \"lazy_64_clauses\": {clauses_64}, \
         \"lazy_64_clause_limit\": {LAZY_64_CLAUSE_LIMIT}, \
         \"update_rebuilt_per_delta\": {rebuilt_per_delta}, \
         \"update_rebuilt_limit\": {UPDATE_REBUILT_LIMIT}, \
         \"large_ratio_4x_over_1x\": {large_ratio:.2}, \
         \"large_flat_factor\": {LARGE_FLAT_FACTOR:.1}, \
         \"serve_large_ratio_4x_over_1x\": {serve_large_ratio:.2}, \
         \"large_rebuilt_per_delta\": {large_rebuilt_per_delta}, \
         \"large_component_bytes\": {component_bytes_1x}, \
         \"large_component_bytes_limit\": {LARGE_COMPONENT_BYTES_LIMIT}, \
         \"large_partition_bytes\": {partition_bytes_1x}, \
         \"large_partition_bytes_limit\": {LARGE_PARTITION_BYTES_LIMIT}, \
         \"large_all_decided\": [{}, {}], \
         \"large_cop_copies\": [{}, {}], \
         \"compact_max_step_ns\": {compact_max_step_ns:.0}, \
         \"compact_max_pause_ms\": {COMPACT_MAX_PAUSE_MS}, \
         \"compact_step_flat_ratio\": {compact_step_flat_ratio:.2}, \
         \"compact_flat_factor\": {COMPACT_FLAT_FACTOR:.1}, \
         \"compact_byte_identical\": {compact_identical}, \
         \"compact_reclaimed_parity\": {compact_parity}, \
         \"serve_compact_max_ns\": {serve_compact_max_ns:.0}, \
         \"serve_compact_byte_identical\": {serve_compact_identical}, \
         \"durable_over_apply\": {durable_over_apply:.2}, \
         \"durable_overhead_factor\": {DURABLE_OVERHEAD_FACTOR:.1}, \
         \"obs_noop_over_disabled\": {obs_noop_over:.3}, \
         \"obs_noop_factor\": {OBS_NOOP_FACTOR:.2}, \
         \"recovery_replayed\": {replayed}, \
         \"recovery_expected_suffix\": {expected_suffix}, \
         \"recovery_speedup\": {recovery_speedup:.2}, \
         \"recovery_speedup_min\": {RECOVERY_SPEEDUP_MIN:.1}, \
         \"serve_scaling_8v1\": {serve_scaling:.2}, \
         \"serve_scaling_min\": {SERVE_SCALING_MIN:.1}, \
         \"serve_scaling_enforced\": {serve_scaling_enforced}, \
         \"serve_collapse_floor\": {SERVE_COLLAPSE_FLOOR:.1}, \
         \"serve_cache_hit_rate\": {serve_cache_hit_rate:.3}, \
         \"serve_cache_hit_min\": {SERVE_CACHE_HIT_MIN:.2}, \
         \"interrupted_cop_min_ns\": {interrupted_min_ns:.0}, \
         \"interrupted_cop_wall_ns\": {INTERRUPTED_COP_WALL_NS:.0}, \
         \"burst_shed\": {burst_shed}, \
         \"sharded_flat_ratio\": {sharded_ratio:.2}, \
         \"sharded_flat_factor\": {SHARDED_FLAT_FACTOR:.1}, \
         \"sharded_recovery_speedup\": {sharded_recovery_speedup:.2}, \
         \"sharded_recovery_speedup_min\": {SHARDED_RECOVERY_SPEEDUP_MIN:.1}, \
         \"sharded_recovery_enforced\": {sharded_recovery_enforced}, \
         \"sharded_recovery_collapse_floor\": {SHARDED_RECOVERY_COLLAPSE_FLOOR:.2}, \
         \"sharded_replayed\": {sharded_replayed}, \
         \"sharded_replay_expected\": {sharded_rec_deltas}, \
         \"sharded_diff_seeds\": {sharded_diff_seeds}, \
         \"sharded_diff_disagreements\": {sharded_diff_disagreements}, ",
        all_decided[0], all_decided[1], large_cop_copies[0], large_cop_copies[1],
    );
    for (name, ok) in &guards {
        let _ = write!(check, "\"{name}\": {ok}, ");
    }
    let _ = write!(check, "\"pass\": {pass}}}");
    let _ = write!(json, "  \"check\": {check}\n}}\n");

    std::fs::write(&args.out, &json).expect("write bench JSON");
    eprintln!("wrote {}", args.out);
    if args.check && !pass {
        for (name, _) in guards.iter().filter(|g| !g.1) {
            eprintln!("REGRESSION: {name} failed (the module doc says what it guards)");
        }
        for d in &paper_disagreements {
            eprintln!("  a PTIME case disagreed with the exact path: {d}");
        }
        for sweep in &paper_superpoly {
            eprintln!("  the {sweep} reduction grew faster than the cube of its size");
        }
        eprintln!("check: {check}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::within_cubic;

    fn series(sizes: &[usize], count: impl Fn(u64) -> u64) -> Vec<(usize, u64)> {
        sizes.iter().map(|&n| (n, count(n as u64))).collect()
    }

    #[test]
    fn within_cubic_admits_cubic_growth_and_refuses_quartic() {
        assert!(within_cubic(&series(&[1, 2, 4], |n| 10 * n.pow(3))));
        assert!(within_cubic(&series(&[2, 3, 6], |n| 7 * n + 3)));
        assert!(!within_cubic(&series(&[1, 2, 4], |n| 10 * n.pow(4))));
        assert!(!within_cubic(&series(&[2, 4, 8], |n| n.pow(4))));
        // A one-point sweep (the fast mode of a two-size sweep) is cubic.
        assert!(within_cubic(&[(3, 7)]));
        assert!(within_cubic(&[]));
    }
}
