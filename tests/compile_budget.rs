//! Allocation budget of one delta on the writer path.
//!
//! A single-reading insert or retract on `large_spec` dirties one
//! component: the partition re-derives its cells and the compile grounds
//! its rules, obligations and value indicators into reused buffers.  A
//! counting global allocator (counting on the current thread only, so
//! the harness's other threads do not leak into the figure) measures
//! every allocation `CurrencyEngine::apply` and `CurrencyServe::apply`
//! make per delta, after a warm-up that grows the reused buffers.
//!
//! An engine nobody snapshots owns every page it writes, so its deltas
//! copy no page at all; the test checks that on every delta.  The
//! serving front door publishes a snapshot after every write, which
//! shares the writer's pages, so its delta also copies the pages it
//! writes.  A copied page clones its elements, and a tuple or an entity
//! group owns heap, so that copy costs up to one allocation per element
//! of the page — about 170 to 220 per delta here, independent of the
//! compile.  The test measures that part separately (the same delta
//! applied to a page-sharing clone of the published specification) and
//! holds the front door's remaining allocations to the same budget.

use currency_bench::scenarios::large_spec;
use data_currency::model::{Eid, RelId, SpecDelta, Tuple, TupleId, Value};
use data_currency::reason::{CurrencyEngine, Options};
use data_currency::serve::{CurrencyServe, ServeOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The budget: allocations per delta, counted on the applying thread.
/// The count is deterministic: at most 119 per delta through the engine
/// and 136 through the serving front door (means 66 and 80), with every
/// `large_spec` component published decided; the budget leaves about 6%
/// over the larger figure.
const MAX_ALLOCS_PER_DELTA: u64 = 144;

const ENTITIES: usize = 2_500;
const WARMUP: usize = 50;
const DELTAS: usize = 400;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const T: RelId = RelId(0);

/// The insert/retract feed: odd deltas insert a reading for a spread-out
/// entity, even ones retract the reading the previous delta inserted.
struct Feed {
    k: u64,
    last: Option<TupleId>,
}

impl Feed {
    fn next(&mut self) -> SpecDelta {
        self.k += 1;
        let mut delta = SpecDelta::new();
        match self.last.take() {
            Some(id) => {
                delta.remove_tuple(T, id);
            }
            None => {
                let e = Eid(self.k * 7_919 % ENTITIES as u64);
                delta.insert_tuple(T, Tuple::new(e, vec![Value::int((self.k % 20) as i64)]));
            }
        }
        delta
    }

    fn observe(&mut self, inserted: &[(RelId, TupleId)]) {
        self.last = inserted.first().map(|&(_, id)| id);
    }
}

/// Mean and max allocations per delta over `DELTAS` deltas after the
/// warm-up.  `apply` applies one delta and returns the ids it inserted
/// and the allocations the budget covers.
fn measure(mut apply: impl FnMut(&SpecDelta) -> (Vec<(RelId, TupleId)>, u64)) -> (f64, u64) {
    let mut feed = Feed { k: 0, last: None };
    let (mut total, mut max) = (0, 0);
    for round in 0..WARMUP + DELTAS {
        let delta = feed.next();
        let (inserted, spent) = apply(&delta);
        feed.observe(&inserted);
        if round >= WARMUP {
            total += spent;
            max = max.max(spent);
        }
    }
    (total as f64 / DELTAS as f64, max)
}

fn options() -> Options {
    Options {
        threads: 1,
        ..Options::default()
    }
}

#[test]
fn currency_engine_apply_stays_within_the_allocation_budget() {
    let mut engine = CurrencyEngine::new_owned(large_spec(ENTITIES), &options()).unwrap();
    let (mean, max) = measure(|delta| {
        let before = allocs();
        let report = engine.apply(delta).unwrap();
        let spent = allocs() - before;
        assert_eq!(
            report.pages_copied, 0,
            "an engine nobody snapshots copies no page"
        );
        (report.inserted, spent)
    });
    println!("CurrencyEngine::apply: {mean:.1} allocations per delta (max {max})");
    assert!(
        max <= MAX_ALLOCS_PER_DELTA,
        "CurrencyEngine::apply: up to {max} allocations per delta (mean {mean:.1}), budget {MAX_ALLOCS_PER_DELTA}"
    );
}

#[test]
fn currency_serve_apply_stays_within_the_allocation_budget() {
    let writer =
        CurrencyServe::new(large_spec(ENTITIES), &options(), &ServeOptions::default()).unwrap();
    let mut page_copies = 0;
    let (mean, max) = measure(|delta| {
        // The copy-on-write part: the same delta on a clone that shares
        // every page with the published (and so the writer's) spec.
        let published = writer.snapshot();
        let before = allocs();
        let mut shared = published.spec().clone();
        shared.apply_delta(delta).unwrap();
        let copies = allocs() - before;
        drop(shared);
        page_copies += copies;
        let before = allocs();
        let inserted = writer.apply(delta).unwrap().inserted;
        (inserted, allocs() - before - copies)
    });
    let page_copies = page_copies as f64 / (WARMUP + DELTAS) as f64;
    println!(
        "CurrencyServe::apply: {mean:.1} allocations per delta (max {max}) \
         beyond {page_copies:.1} for copy-on-write page copies"
    );
    assert!(
        max <= MAX_ALLOCS_PER_DELTA,
        "CurrencyServe::apply: up to {max} allocations per delta (mean {mean:.1}), budget {MAX_ALLOCS_PER_DELTA}"
    );
}
