//! Seeded input generators: the only source of the deltas and requests
//! the program sees.  Same seed, same stream.

use currency_bench::scenarios::{amortized_ccqa_query, T};
use currency_core::{
    AttrId, CompactStepReport, Eid, RelId, SpecDelta, Specification, Tuple, TupleId, Value,
};
use currency_reason::{CompactBudget, CurrencyEngine, CurrencyOrderQuery, Options};
use currency_serve::ServeRequest;
use std::collections::VecDeque;

/// splitmix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<X>(&mut self, xs: &mut [X]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// One client operation.
pub enum Op {
    /// A delta; `inserts` is the id its insert will get, when it inserts.
    Write {
        delta: SpecDelta,
        inserts: Option<TupleId>,
    },
    /// A read; `first` marks the first occurrence of `req` in its epoch
    /// window, which the epoch-keyed answer cache cannot have.
    Read { req: ServeRequest, first: bool },
}

/// Reads per `serve_read` window; every window opens with one write.
pub const WINDOW_READS: usize = 63;
/// Distinct COP requests per window, next to CPS, DCIP and the identity
/// `certain_answers`.
pub const WINDOW_COPS: usize = 13;
/// Distinct requests per window.
pub const WINDOW_DISTINCT: usize = WINDOW_COPS + 3;

/// The `serve_read` stream: windows of one write then
/// [`WINDOW_READS`] reads over exactly [`WINDOW_DISTINCT`] distinct
/// requests.  A write publishes a new epoch, so each window misses
/// exactly `WINDOW_DISTINCT` times and hits `WINDOW_READS -
/// WINDOW_DISTINCT` times, however fast the reader runs.
///
/// Under [`read_options`] every retraction's compaction step truncates
/// the retracted tail slot, so the specification returns to its base
/// size and every insert lands on the same id.
pub struct ReadStream {
    rng: Rng,
    cops: Vec<ServeRequest>,
    fixed: [ServeRequest; 3],
    candidates: Vec<Tuple>,
    insert_id: TupleId,
    pending_retract: Option<TupleId>,
}

impl ReadStream {
    /// `base` is the specification the service starts from.  Writes
    /// alternate an insert, drawn from readings that keep `base`
    /// consistent, with the retraction of that insert.
    pub fn new(base: &Specification, seed: u64) -> ReadStream {
        let inst = base.instance(T);
        let mut cops = Vec::new();
        for (_, group) in inst.entity_groups() {
            for attr in 0..inst.arity() as u32 {
                for &a in group {
                    for &b in group {
                        if a != b {
                            cops.push(ServeRequest::Cop(CurrencyOrderQuery::single(
                                T,
                                AttrId(attr),
                                a,
                                b,
                            )));
                        }
                    }
                }
            }
        }
        assert!(cops.len() >= WINDOW_COPS, "enough COP pairs for a window");
        ReadStream {
            rng: Rng::new(seed),
            cops,
            fixed: [
                ServeRequest::Cps,
                ServeRequest::Dcip(T),
                ServeRequest::CertainAnswers(amortized_ccqa_query(base)),
            ],
            candidates: safe_inserts(base),
            insert_id: TupleId(inst.len() as u32),
            pending_retract: None,
        }
    }

    pub fn window(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(WINDOW_READS + 1);
        let mut delta = SpecDelta::new();
        let inserts = match self.pending_retract.take() {
            Some(id) => {
                delta.remove_tuple(T, id);
                None
            }
            None => {
                let k = self.rng.below(self.candidates.len() as u64) as usize;
                delta.insert_tuple(T, self.candidates[k].clone());
                self.pending_retract = Some(self.insert_id);
                Some(self.insert_id)
            }
        };
        ops.push(Op::Write { delta, inserts });
        // WINDOW_COPS distinct COPs by a partial Fisher-Yates draw.
        let mut distinct: Vec<ServeRequest> = self.fixed.to_vec();
        let mut idx: Vec<usize> = (0..self.cops.len()).collect();
        for i in 0..WINDOW_COPS {
            let j = i + self.rng.below((idx.len() - i) as u64) as usize;
            idx.swap(i, j);
            distinct.push(self.cops[idx[i]].clone());
        }
        let mut picks: Vec<usize> = (0..WINDOW_DISTINCT).collect();
        for _ in WINDOW_DISTINCT..WINDOW_READS {
            picks.push(self.rng.below(WINDOW_DISTINCT as u64) as usize);
        }
        self.rng.shuffle(&mut picks);
        let mut seen = [false; WINDOW_DISTINCT];
        for p in picks {
            ops.push(Op::Read {
                req: distinct[p].clone(),
                first: !std::mem::replace(&mut seen[p], true),
            });
        }
        ops
    }
}

/// Readings of `T` that keep `base` consistent when inserted alone:
/// for every entity, the value vectors of its own readings and of the
/// next entity's, screened with a reference engine.
fn safe_inserts(base: &Specification) -> Vec<Tuple> {
    let inst = base.instance(T);
    let groups: Vec<(Eid, Vec<TupleId>)> =
        inst.entity_groups().map(|(e, g)| (e, g.to_vec())).collect();
    let mut engine =
        CurrencyEngine::new_owned(base.clone(), &engine_options()).expect("base spec compiles");
    let mut out = Vec::new();
    for (k, (eid, group)) in groups.iter().enumerate() {
        let next = &groups[(k + 1) % groups.len()].1;
        for &src in group.iter().chain(next) {
            let tuple = Tuple::new(*eid, inst.tuple(src).values.clone());
            let mut delta = SpecDelta::new();
            delta.insert_tuple(T, tuple.clone());
            if delta.validate(engine.spec()).is_err() {
                continue;
            }
            let report = engine.apply(&delta).expect("validated delta applies");
            let consistent = engine.cps().expect("in budget");
            let mut undo = SpecDelta::new();
            undo.remove_tuple(T, report.inserted[0].1);
            engine.apply(&undo).expect("retraction applies");
            if consistent {
                out.push(tuple);
            }
        }
    }
    assert!(!out.is_empty(), "some insert keeps the spec consistent");
    out
}

/// The engine options every workload runs under: one solver thread, so
/// the workload process never runs more threads than its one client.
pub fn engine_options() -> Options {
    Options {
        threads: 1,
        ..Options::default()
    }
}

/// `serve_read`'s options: a compaction step after every retraction
/// keeps the specification at its base size for the whole run.
pub fn read_options() -> Options {
    Options {
        auto_compact_tombstones: 1,
        auto_compact_budget: Some(CompactBudget::default()),
        ..engine_options()
    }
}

/// Live feed inserts the ingest client holds at most.
pub const FEED_LIVE_CAP: usize = 64;
/// Inserted readings take values in `0..FEED_VALUES`, so they interleave
/// with the base readings (values `0..10`) and COP answers vary.
pub const FEED_VALUES: u64 = 20;

/// The insert/retract feed of `serve_ingest` and `durable_ingest`.
///
/// Inserts add a reading for a random entity; retractions remove the
/// oldest reading the feed inserted.  The feed learns its inserts' ids
/// from the acknowledgements and follows them through compaction steps,
/// as any client holding ids must.
pub struct IngestFeed {
    rng: Rng,
    entities: u64,
    live: VecDeque<(Eid, TupleId)>,
    pending: Option<Eid>,
}

/// What a feed delta touched.
pub struct Touch {
    pub entity: Eid,
    pub insert: bool,
}

impl IngestFeed {
    pub fn new(entities: usize, seed: u64) -> IngestFeed {
        IngestFeed {
            rng: Rng::new(seed),
            entities: entities as u64,
            live: VecDeque::new(),
            pending: None,
        }
    }

    pub fn next_delta(&mut self) -> (SpecDelta, Touch) {
        let mut delta = SpecDelta::new();
        let insert =
            self.live.is_empty() || (self.live.len() < FEED_LIVE_CAP && self.rng.below(2) == 0);
        if insert {
            let e = Eid(self.rng.below(self.entities));
            let v = self.rng.below(FEED_VALUES) as i64;
            delta.insert_tuple(T, Tuple::new(e, vec![Value::int(v)]));
            self.pending = Some(e);
            (delta, Touch { entity: e, insert })
        } else {
            let (e, id) = self.live.pop_front().expect("non-empty");
            delta.remove_tuple(T, id);
            (delta, Touch { entity: e, insert })
        }
    }

    /// Take in a delta's acknowledgement: the ids it inserted (as
    /// assigned before any compaction) and the compaction step that ran
    /// with it.
    pub fn observe(
        &mut self,
        inserted: &[(RelId, TupleId)],
        step: Option<&CompactStepReport>,
    ) -> Result<(), String> {
        if let Some(e) = self.pending.take() {
            let &(_, id) = inserted
                .first()
                .ok_or("insert acknowledged without an id")?;
            self.live.push_back((e, id));
        }
        if let Some(step) = step {
            for (_, id) in self.live.iter_mut() {
                *id = step
                    .new_id(T, *id)
                    .ok_or("compaction reclaimed a live reading")?;
            }
        }
        Ok(())
    }

    /// The id of the newest live insert.
    pub fn newest(&self) -> Option<TupleId> {
        self.live.back().map(|&(_, id)| id)
    }
}

/// The reads that follow a feed delta: a COP each way between the
/// entity's oldest reading and the reading the delta inserted (or, for a
/// retraction, the entity's newest reading), then CPS.  Returned with
/// the answers the value order implies: a reading with a larger value is
/// certainly more current, equal values are unordered.
pub fn feed_reads(
    spec: &Specification,
    touch: &Touch,
    inserted: Option<TupleId>,
) -> [(ServeRequest, bool); 3] {
    let inst = spec.instance(T);
    let group = inst.entity_group(touch.entity);
    let a = group[0];
    let b = match inserted {
        Some(id) if touch.insert => id,
        _ => *group.last().expect("base readings are never retracted"),
    };
    let value = |id: TupleId| match inst.tuple(id).values[0] {
        Value::Int(v) => v,
        _ => unreachable!("feed readings are integers"),
    };
    let (va, vb) = (value(a), value(b));
    let cop = |l, g| ServeRequest::Cop(CurrencyOrderQuery::single(T, AttrId(0), l, g));
    [
        (cop(a, b), vb > va),
        (cop(b, a), va > vb),
        (ServeRequest::Cps, true),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use currency_bench::scenarios::{amortized_spec, large_spec};
    use currency_core::wire::encode_delta;
    use currency_serve::{CurrencyServe, ServeOptions};

    fn window_bytes(stream: &mut ReadStream, windows: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..windows {
            for op in stream.window() {
                match op {
                    Op::Write { delta, inserts } => {
                        out.extend(encode_delta(&delta));
                        out.extend(format!("{inserts:?}").bytes());
                    }
                    Op::Read { req, first } => out.extend(format!("{req:?}{first}").bytes()),
                }
            }
        }
        out
    }

    #[test]
    fn read_stream_is_seed_determined() {
        let spec = amortized_spec(32);
        let a = window_bytes(&mut ReadStream::new(&spec, 7), 20);
        let b = window_bytes(&mut ReadStream::new(&spec, 7), 20);
        let c = window_bytes(&mut ReadStream::new(&spec, 8), 20);
        assert_eq!(a, b, "same seed, same bytes");
        assert_ne!(a, c, "another seed, another stream");
    }

    /// The construction's hit ratio equals the one the service counts
    /// on a single-threaded replay, and every write validates and lands
    /// on the id the stream predicted.
    #[test]
    fn read_stream_hit_ratio_matches_single_threaded_replay() {
        let spec = amortized_spec(32);
        let mut stream = ReadStream::new(&spec, 11);
        let serve = CurrencyServe::new(spec, &read_options(), &ServeOptions::default())
            .expect("spec compiles");
        let mut handle = serve.handle();
        let (mut reads, mut predicted_hits) = (0u64, 0u64);
        for _ in 0..6 {
            for op in stream.window() {
                match op {
                    Op::Write { delta, inserts } => {
                        delta
                            .validate(serve.snapshot().spec())
                            .expect("generated delta validates");
                        let report = serve.apply(&delta).expect("delta applies");
                        if let Some(id) = inserts {
                            assert_eq!(report.inserted, vec![(T, id)]);
                        }
                        assert!(serve.snapshot().cps(), "writes keep the spec consistent");
                    }
                    Op::Read { req, first } => {
                        handle.query(&req).expect("read answers");
                        reads += 1;
                        predicted_hits += u64::from(!first);
                    }
                }
            }
        }
        let stats = serve.stats();
        assert_eq!(stats.cache_hits + stats.cache_misses, reads);
        assert_eq!(stats.cache_hits, predicted_hits);
        assert_eq!(
            predicted_hits,
            6 * (WINDOW_READS - WINDOW_DISTINCT) as u64,
            "the construction fixes the ratio"
        );
    }

    fn ingest_options() -> Options {
        Options {
            auto_compact_tombstones: 16,
            auto_compact_budget: Some(CompactBudget::default()),
            ..engine_options()
        }
    }

    /// Drive a feed against a reference engine; returns the delta and
    /// request bytes and the compaction steps that ran.
    fn feed_bytes(seed: u64, deltas: usize) -> (Vec<u8>, usize) {
        let mut engine =
            CurrencyEngine::new_owned(large_spec(40), &ingest_options()).expect("spec compiles");
        let mut feed = IngestFeed::new(40, seed);
        let (mut out, mut steps) = (Vec::new(), 0);
        for _ in 0..deltas {
            let (delta, touch) = feed.next_delta();
            delta
                .validate(engine.spec())
                .expect("generated delta validates");
            out.extend(encode_delta(&delta));
            let report = engine.apply(&delta).expect("delta applies");
            steps += usize::from(report.compact_step.is_some());
            feed.observe(&report.inserted, report.compact_step.as_ref())
                .expect("ids follow compaction");
            for (req, expected) in feed_reads(engine.spec(), &touch, feed.newest()) {
                let got = match &req {
                    ServeRequest::Cop(q) => engine.cop(q).expect("in budget"),
                    _ => engine.cps().expect("in budget"),
                };
                assert_eq!(got, expected, "value-order answer for {req:?}");
                out.extend(format!("{req:?}").bytes());
            }
        }
        (out, steps)
    }

    #[test]
    fn ingest_feed_is_seed_determined_valid_and_survives_compaction() {
        let (a, steps) = feed_bytes(3, 400);
        let (b, _) = feed_bytes(3, 400);
        let (c, _) = feed_bytes(4, 400);
        assert_eq!(a, b, "same seed, same bytes");
        assert_ne!(a, c, "another seed, another stream");
        assert!(steps > 0, "the stream reaches auto-compaction");
    }
}
