//! A premise-free falsum: a value-only denial constraint with a falsum
//! conclusion makes one reading an unconditional contradiction.  The
//! compile keeps that rule out of the component's clauses and reports
//! it to the writer, which must then answer for an inconsistent
//! specification: CPS false, COP vacuously true even on an unrelated
//! entity, DCIP vacuously true.  Once a delta removes the offending
//! reading, and again after a compaction step remaps the ids, every
//! front door must agree with the monolithic path on the real answers.

use data_currency::datagen::random::{monotone, value_falsum};
use data_currency::model::{
    AttrId, Catalog, Eid, RelId, RelationSchema, SpecDelta, Specification, Tuple, TupleId, Value,
};
use data_currency::reason::{
    cop_exact_monolithic, cps_exact_monolithic, dcip_exact_monolithic, CompactBudget,
    CurrencyEngine, CurrencyOrderQuery, EngineSnapshot, Options, SnapshotReader,
};
use data_currency::serve::{CurrencyServe, ServeOptions};
use std::sync::Arc;

const B: AttrId = AttrId(1);

/// Entity 2 (ids 0, 1) is the unrelated one: a monotone constraint on
/// `B` orders its two readings.  Entity 1 (ids 2, 3) holds the offending
/// reading `A = 1` (id 2).
fn spec() -> (Specification, RelId) {
    let mut cat = Catalog::new();
    let r = cat.add(RelationSchema::new("R", &["A", "B"]));
    let mut spec = Specification::new(cat);
    for (eid, a, b) in [(2, 5, 0), (2, 6, 1), (1, 1, 0), (1, 2, 0)] {
        spec.instance_mut(r)
            .push_tuple(Tuple::new(Eid(eid), vec![Value::int(a), Value::int(b)]))
            .unwrap();
    }
    spec.add_constraint(value_falsum(r)).unwrap();
    spec.add_constraint(monotone(r, B)).unwrap();
    (spec, r)
}

/// CPS, COP forward and reverse on entity 2's pair, and DCIP.
type Answers = (bool, bool, bool, bool);

fn pair_queries(r: RelId) -> [CurrencyOrderQuery; 2] {
    [
        CurrencyOrderQuery::single(r, B, TupleId(0), TupleId(1)),
        CurrencyOrderQuery::single(r, B, TupleId(1), TupleId(0)),
    ]
}

fn monolithic(spec: &Specification, r: RelId) -> Answers {
    let [fwd, rev] = pair_queries(r);
    (
        cps_exact_monolithic(spec).unwrap(),
        cop_exact_monolithic(spec, &fwd).unwrap(),
        cop_exact_monolithic(spec, &rev).unwrap(),
        dcip_exact_monolithic(spec, r, &Options::default()).unwrap(),
    )
}

/// The three front doors over one stream of writes: an engine queried
/// directly, a second engine's snapshot after every write, and the
/// serving front door.
struct Doors {
    engine: CurrencyEngine,
    writer: CurrencyEngine,
    snapshot: Arc<EngineSnapshot>,
    serve: CurrencyServe,
}

impl Doors {
    fn new(spec: &Specification) -> Doors {
        let opts = Options {
            auto_compact_tombstones: 0,
            ..Options::default()
        };
        let mut writer = CurrencyEngine::new_owned(spec.clone(), &opts).unwrap();
        Doors {
            engine: CurrencyEngine::new_owned(spec.clone(), &opts).unwrap(),
            snapshot: writer.snapshot(),
            writer,
            serve: CurrencyServe::new(spec.clone(), &opts, &ServeOptions::default()).unwrap(),
        }
    }

    fn apply(&mut self, delta: &SpecDelta) {
        self.engine.apply(delta).unwrap();
        self.writer.apply(delta).unwrap();
        self.snapshot = self.writer.snapshot();
        self.serve.apply(delta).unwrap();
    }

    fn compact_step(&mut self) {
        let budget = CompactBudget::default();
        let reclaimed = [
            self.engine.compact_step(&budget).unwrap().reclaimed,
            self.writer.compact_step(&budget).unwrap().reclaimed,
            self.serve.compact_step(&budget).unwrap().reclaimed,
        ];
        self.snapshot = self.writer.snapshot();
        assert_eq!(reclaimed, [1, 1, 1]);
    }

    /// Every door's answers, checked equal to `expected` and to the
    /// monolithic path over each door's specification.
    fn assert_answers(&self, r: RelId, expected: Answers, phase: &str) {
        let [fwd, rev] = pair_queries(r);
        let engine = (
            self.engine.cps().unwrap(),
            self.engine.cop(&fwd).unwrap(),
            self.engine.cop(&rev).unwrap(),
            self.engine.dcip(r).unwrap(),
        );
        let mut reader = SnapshotReader::new(self.snapshot.clone());
        let snapshot = (
            reader.cps(),
            reader.cop(&fwd).unwrap(),
            reader.cop(&rev).unwrap(),
            reader.dcip(r).unwrap(),
        );
        let mut handle = self.serve.handle();
        let served = (
            handle.cps().unwrap(),
            handle.cop(&fwd).unwrap(),
            handle.cop(&rev).unwrap(),
            handle.dcip(r).unwrap(),
        );
        assert_eq!(engine, expected, "{phase}: CurrencyEngine");
        assert_eq!(snapshot, expected, "{phase}: EngineSnapshot");
        assert_eq!(served, expected, "{phase}: CurrencyServe handle");
        assert_eq!(
            monolithic(self.engine.spec(), r),
            expected,
            "{phase}: monolithic"
        );
        assert_eq!(
            monolithic(self.snapshot.spec(), r),
            expected,
            "{phase}: writer spec"
        );
        assert_eq!(
            monolithic(&self.serve.snapshot().spec_arc(), r),
            expected,
            "{phase}: served spec"
        );
    }
}

#[test]
fn falsum_verdict_survives_deltas_and_compaction_on_every_front_door() {
    let (spec, r) = spec();
    let mut doors = Doors::new(&spec);
    // Inconsistent: CPS false, everything else vacuously true.
    doors.assert_answers(r, (false, true, true, true), "with the offending reading");

    // A delta touching only the unrelated entity keeps the verdict.
    let mut touch = SpecDelta::new();
    touch.insert_tuple(r, Tuple::new(Eid(3), vec![Value::int(7), Value::int(0)]));
    doors.apply(&touch);
    doors.assert_answers(r, (false, true, true, true), "after an unrelated delta");

    // Removing the offending reading restores consistency: the monotone
    // constraint decides entity 2's pair, and entity 2's `A` stays open.
    let mut retract = SpecDelta::new();
    retract.remove_tuple(r, TupleId(2));
    doors.apply(&retract);
    doors.assert_answers(r, (true, true, false, false), "after the retraction");

    // The compaction step moves entity 1's and 3's readings down; entity
    // 2's ids (0, 1) stay, and so do the answers.
    doors.compact_step();
    doors.assert_answers(r, (true, true, false, false), "after a compaction step");
}
