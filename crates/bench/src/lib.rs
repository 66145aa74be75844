//! # currency-bench
//!
//! The workspace's one benchmark system: the `bench_engine` binary and
//! the scenarios and measurement helpers it shares with the repository
//! benchmark (`perfbench/`).
//!
//! `bench_engine` writes `BENCH_engine.json` and, under `--check`, fails
//! on any of its guards.  Its `paper` section regenerates the *shape* of
//! the paper's evaluation — Tables II and III: each problem's hard regime
//! on the reduction gadgets next to the PTIME cases of §6 on
//! constraint-free specifications, Fig. 1's queries, the gadget
//! constructions, and exact CDCL against completion enumeration.  The
//! other sections time the engine, the store, the serving front door and
//! sharding.

pub mod measure;
pub mod scenarios;
