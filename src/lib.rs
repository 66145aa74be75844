//! # data-currency
//!
//! A from-scratch implementation of the data-currency framework of
//!
//! > Wenfei Fan, Floris Geerts, Jef Wijsen.
//! > *Determining the Currency of Data.* PODS 2011 / ACM TODS 37(4), 2012.
//!
//! This facade crate re-exports the public API of the workspace crates so
//! that applications can depend on a single crate:
//!
//! * [`model`] (`currency-core`) — temporal instances, partial currency
//!   orders, denial constraints, copy functions, specifications.
//! * [`query`] (`currency-query`) — the SP ⊂ CQ ⊂ UCQ ⊂ ∃FO⁺ ⊂ FO query
//!   family and evaluators over normal instances.
//! * [`reason`] (`currency-reason`) — decision procedures for the paper's
//!   seven problems (CPS, COP, DCIP, CCQA, CPP, ECP, BCP), the
//!   entity-partitioned incremental `CurrencyEngine`, and the
//!   entity-sharded scatter-gather `ShardedEngine`.
//! * [`store`] (`currency-store`) — durability: checksummed snapshots, a
//!   delta write-ahead log, the crash-recoverable `DurableEngine`, the
//!   entity-sharded `ShardedStore` with parallel per-shard recovery, and
//!   the `Vfs` seam with the `ChaosVfs` fault-injection harness.
//! * [`serve`] (`currency-serve`) — concurrent query serving: epoch-published
//!   snapshot views, the `CurrencyServe` front door with an epoch-keyed
//!   answer cache, per-request solve deadlines, an in-flight cap that
//!   sheds cache misses, stale-serve degradation on timeout, lock-free
//!   serving stats, and the sharded `ShardedServe` front door.
//! * [`obs`] (`currency-obs`) — observability: lock-free counters,
//!   gauges, and log2-bucket histograms in a `MetricsRegistry` with
//!   Prometheus/JSON exposition, the stack's one telemetry path.
//! * [`sat`] (`currency-sat`) — the CDCL SAT solver substrate.
//! * [`datagen`] (`currency-datagen`) — paper scenarios, random
//!   specification generators, and hardness-reduction gadgets.
//!
//! See `README.md` for a guided tour and `examples/quickstart.rs` for the
//! paper's running example (Fig. 1, queries Q1–Q4).

pub use currency_core as model;
pub use currency_datagen as datagen;
pub use currency_obs as obs;
pub use currency_query as query;
pub use currency_reason as reason;
pub use currency_sat as sat;
pub use currency_serve as serve;
pub use currency_store as store;

/// Convenience prelude importing the most commonly used items.
///
/// Query-side names that collide with the model's (`CmpOp`, `Term`) are
/// re-exported under `Query*` aliases so that the model's constraint
/// builders work unqualified.
pub mod prelude {
    pub use currency_core::*;
    pub use currency_query::{CmpOp as QueryCmpOp, Formula, Query, QueryClass, Term as QueryTerm};
    pub use currency_reason::*;
    pub use currency_serve::{
        CurrencyServe, ServeAnswer, ServeError, ServeHandle, ServeOptions, ServeRequest, ServeStats,
    };
}
