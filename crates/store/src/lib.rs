//! # currency-store
//!
//! Durability for the data-currency model: specifications — tuples,
//! partial currency orders, denial constraints, copy functions — as
//! **long-lived services** that survive process restarts, not one-shot
//! in-memory solves.
//!
//! The live layers already exist: `currency-core`'s [`SpecDelta`] batches
//! updates and `currency-reason`'s [`CurrencyEngine`] applies them with
//! O(dirty region) recompilation.  This crate adds the missing
//! persistence spine underneath, built from three pieces:
//!
//! * **[`wal`]** — an append-only write-ahead log of every applied delta
//!   (and every compaction step's slices), length-prefixed and
//!   CRC-framed, with group-commit buffering and torn-tail detection on
//!   open;
//! * **[`snapshot`]** — versioned, checksummed full-state snapshots in
//!   the hand-rolled binary wire format of [`currency_core::wire`]
//!   (no external dependencies — the same offline discipline as the
//!   workspace's shims), rotated when the log grows past a threshold;
//! * **[`DurableEngine`]** — the crash-recoverable wrapper routing
//!   `apply`/`compact` through **log-then-apply** semantics and
//!   recovering on startup from the newest valid snapshot plus a log
//!   suffix replay, each delta re-validated through the normal
//!   [`SpecDelta::validate`] path.
//!
//! Every byte any of them moves goes through the [`vfs`] seam: the
//! production path is [`RealVfs`] (a thin veneer over `std::fs`), and
//! the chaos harness swaps in [`ChaosVfs`] — a scripted fault injector
//! (outright I/O errors, short writes, fsync failures, torn renames)
//! that proves the fail-stop contract *on the exact operation sequence
//! production executes*.  A store that hits an injected write fault
//! refuses every further mutation ([`StoreError::Poisoned`]) until a
//! reopen re-derives the one consistent state the durable files define.
//!
//! The recovery contract, enforced by the fault-injection suite: opening
//! a store either reproduces a **prefix-consistent** state (everything up
//! to the last durable log record; a torn tail from a crash mid-append
//! is truncated away) or reports a checksum/divergence error — never a
//! panic, never a silently wrong specification.
//!
//! ## Example
//!
//! ```
//! use currency_core::*;
//! use currency_reason::Options;
//! use currency_store::{DurableEngine, StoreOptions};
//!
//! let dir = std::env::temp_dir().join(format!("currency-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // Build a specification and put it behind a durable engine.
//! let mut catalog = Catalog::new();
//! let r = catalog.add(RelationSchema::new("R", &["A"]));
//! let mut spec = Specification::new(catalog);
//! spec.instance_mut(r).push_tuple(Tuple::new(Eid(1), vec![Value::int(1)])).unwrap();
//! let opts = Options::default();
//! let mut engine = DurableEngine::create(&dir, spec, &opts, StoreOptions::default()).unwrap();
//!
//! // Updates are logged before they are applied.
//! let mut delta = SpecDelta::new();
//! delta.insert_tuple(r, Tuple::new(Eid(1), vec![Value::int(2)]));
//! engine.apply(&delta).unwrap();
//! assert!(engine.cps().unwrap());
//! drop(engine); // "crash"
//!
//! // Reopening recovers snapshot + log suffix.
//! let recovered = DurableEngine::open(&dir, &opts, StoreOptions::default()).unwrap();
//! assert_eq!(recovered.recovery().deltas_replayed, 1);
//! assert_eq!(recovered.spec().instance(r).live_len(), 2);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! [`SpecDelta`]: currency_core::SpecDelta
//! [`SpecDelta::validate`]: currency_core::SpecDelta::validate
//! [`CurrencyEngine`]: currency_reason::CurrencyEngine

pub mod crc;
mod durable;
mod error;
mod sharded;
pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use durable::{DurableEngine, RecoveryReport, StoreOptions};
pub use error::StoreError;
pub use sharded::{ShardedStore, ShardedStoreError};
pub use vfs::{ChaosPlan, ChaosVfs, Fault, RealVfs, Vfs, VfsFile};
pub use wal::{Record, Wal, WalOpen};
