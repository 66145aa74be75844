//! Durable entity-sharded stores: N [`DurableEngine`]s, one directory
//! each, behind one front door.
//!
//! A sharded store directory looks like:
//!
//! ```text
//! store/
//!   shards.meta          # shard count, written last at create
//!   shard-000/           # a complete DurableEngine store
//!     snapshot-<seq>.cur
//!     wal.log
//!   shard-001/
//!   …
//! ```
//!
//! Each shard is a full, self-contained [`DurableEngine`] store —
//! snapshots, WAL, rotation, fail-stop poisoning — holding the
//! sub-specification of its entities under the routing plan of
//! [`currency_reason::shard`] (copy closures co-located, shard-local
//! tuple ids interleaved into the global id space).  Because the shards
//! are semantically independent, so are their failure domains: a fault
//! in one shard's WAL poisons *that shard's* store and recovery; the
//! others recover untouched (the chaos suite pins this).
//!
//! **Recovery is parallel**: [`ShardedStore::open`] opens every shard on
//! its own thread, so a replay-bound reopen takes roughly
//! `max(shard replay)` instead of `sum(shard replay)` —
//! [`ShardedStore::open_sequential`] keeps the one-at-a-time path for
//! comparison benchmarks (and for deterministic-op-order chaos
//! schedules).  The routing plan is *not* persisted: it is re-derived
//! from the recovered shard contents ([`Sharded::recover`]), which
//! agrees with the live plan for every entity that still has live
//! tuples.
//!
//! Everything but the directory is [`Sharded`] over durable engines
//! (the store dereferences to it): routing, applies, compaction steps
//! and scatter-gather queries are [`currency_reason::shard`]'s one
//! implementation.  An entity-anchored delta lands in one shard's log, a
//! structure-only delta is broadcast to every shard's log.  A broadcast
//! that fails part-way (some shards logged it, some did not) poisons the
//! *front door* — per-shard recovery still works, but the shards'
//! structure may disagree until the operator resolves the partial batch,
//! so the sharded store refuses further mutation
//! ([`ShardError::Poisoned`](currency_reason::shard::ShardError::Poisoned)).

use crate::durable::{DurableEngine, RecoveryReport, StoreOptions};
use crate::error::StoreError;
use crate::vfs::{RealVfs, Vfs};
use currency_core::{CompactStepReport, SpecDelta, Specification};
use currency_obs::MetricsRegistry;
use currency_reason::shard::{ShardNode, Sharded};
use currency_reason::{ApplyReport, CompactBudget, CurrencyEngine, Options};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic first line of the `shards.meta` file.
const META_MAGIC: &str = "currency-sharded-store v1";

/// A failure to create, open or flush a sharded store.  Applies and
/// compaction steps fail with the shared `ShardError<StoreError>`,
/// queries with `ReasonError`.
#[derive(Debug)]
pub enum ShardedStoreError {
    /// The store directory itself failed: `shards.meta` is missing or
    /// unreadable ([`StoreError::Io`]) or malformed
    /// ([`StoreError::Corrupt`]), or [`ShardedStore::create`] found a
    /// store there already ([`StoreError::AlreadyExists`]).
    Dir(StoreError),
    /// One shard's store failed.
    Shard {
        /// The failing shard.
        shard: usize,
        /// The underlying store error.
        source: StoreError,
    },
}

impl fmt::Display for ShardedStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardedStoreError::Dir(e) => write!(f, "sharded store: {e}"),
            ShardedStoreError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
        }
    }
}

impl std::error::Error for ShardedStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardedStoreError::Dir(e) | ShardedStoreError::Shard { source: e, .. } => Some(e),
        }
    }
}

impl From<StoreError> for ShardedStoreError {
    fn from(e: StoreError) -> ShardedStoreError {
        ShardedStoreError::Dir(e)
    }
}

/// The directory of shard `k` inside a sharded store.
fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}"))
}

fn meta_path(dir: &Path) -> PathBuf {
    dir.join("shards.meta")
}

/// Read and parse `shards.meta`, returning the shard count.
fn read_meta(vfs: &dyn Vfs, dir: &Path) -> Result<usize, StoreError> {
    let path = meta_path(dir);
    let io = |source| StoreError::Io {
        path: path.clone(),
        source,
    };
    let corrupt = |detail: String| StoreError::Corrupt {
        path: path.clone(),
        offset: 0,
        detail,
    };
    let mut file = vfs.open_read_write(&path).map_err(io)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(io)?;
    let text = String::from_utf8(bytes).map_err(|_| corrupt("not UTF-8".to_string()))?;
    let mut lines = text.lines();
    if lines.next() != Some(META_MAGIC) {
        return Err(corrupt(format!("bad magic (expected {META_MAGIC:?})")));
    }
    lines
        .next()
        .and_then(|l| l.strip_prefix("shards "))
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| corrupt("missing or malformed `shards <N>` line".to_string()))
}

fn write_meta(vfs: &dyn Vfs, dir: &Path, shards: usize, sync: bool) -> Result<(), StoreError> {
    let path = meta_path(dir);
    let io = |source| StoreError::Io {
        path: path.clone(),
        source,
    };
    let mut file = vfs.create_truncate(&path).map_err(io)?;
    file.write_all(format!("{META_MAGIC}\nshards {shards}\n").as_bytes())
        .map_err(io)?;
    if sync {
        file.sync_all().map_err(io)?;
        vfs.sync_dir(dir).map_err(|source| StoreError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
    }
    Ok(())
}

/// N [`DurableEngine`] shards behind one scatter-gather front door (see
/// module docs for the directory layout and failure model).  Routing,
/// applies, compaction and queries come from the [`Sharded`] it
/// dereferences to.
pub struct ShardedStore {
    dir: PathBuf,
    sharded: Sharded<DurableEngine>,
}

impl ShardedStore {
    /// Create a fresh sharded store in `dir`: derive the routing plan,
    /// split `spec`, lay down one [`DurableEngine`] store per shard, and
    /// write `shards.meta` last — a crash mid-create leaves a directory
    /// [`ShardedStore::open`] refuses (no meta), to be wiped and retried.
    pub fn create(
        dir: &Path,
        spec: &Specification,
        shards: usize,
        engine_opts: &Options,
        store_opts: StoreOptions,
    ) -> Result<ShardedStore, ShardedStoreError> {
        ShardedStore::create_with_vfs(
            Arc::new(RealVfs),
            dir,
            spec,
            shards,
            engine_opts,
            store_opts,
        )
    }

    /// [`ShardedStore::create`] through an explicit [`Vfs`] (the chaos
    /// harness's entry point).
    pub fn create_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        spec: &Specification,
        shards: usize,
        engine_opts: &Options,
        store_opts: StoreOptions,
    ) -> Result<ShardedStore, ShardedStoreError> {
        vfs.create_dir_all(dir).map_err(|source| StoreError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        if read_meta(&*vfs, dir).is_ok() {
            return Err(StoreError::AlreadyExists {
                dir: dir.to_path_buf(),
            }
            .into());
        }
        let sharded = Sharded::build(spec, shards, |shard, sub| {
            DurableEngine::create_with_vfs(
                vfs.clone(),
                &shard_dir(dir, shard),
                sub,
                engine_opts,
                store_opts,
            )
            .map_err(|source| ShardedStoreError::Shard { shard, source })
        })?;
        write_meta(&*vfs, dir, sharded.shards(), store_opts.sync_data)?;
        Ok(ShardedStore {
            dir: dir.to_path_buf(),
            sharded,
        })
    }

    /// Recover a sharded store, opening **all shards in parallel** (one
    /// thread per shard) — the reopen takes roughly the slowest shard's
    /// replay instead of the sum.  The routing plan is re-derived from
    /// the recovered contents.
    pub fn open(
        dir: &Path,
        engine_opts: &Options,
        store_opts: StoreOptions,
    ) -> Result<ShardedStore, ShardedStoreError> {
        ShardedStore::open_with_vfs(Arc::new(RealVfs), dir, engine_opts, store_opts, true)
    }

    /// Recover a sharded store shard-by-shard on the calling thread —
    /// the baseline the parallel-recovery benchmark compares against,
    /// and the path chaos schedules use (a scripted fault plan needs the
    /// deterministic operation order a single thread provides).
    pub fn open_sequential(
        dir: &Path,
        engine_opts: &Options,
        store_opts: StoreOptions,
    ) -> Result<ShardedStore, ShardedStoreError> {
        ShardedStore::open_with_vfs(Arc::new(RealVfs), dir, engine_opts, store_opts, false)
    }

    /// [`ShardedStore::open`] / [`ShardedStore::open_sequential`]
    /// through an explicit [`Vfs`].
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        engine_opts: &Options,
        store_opts: StoreOptions,
        parallel: bool,
    ) -> Result<ShardedStore, ShardedStoreError> {
        let n = read_meta(&*vfs, dir)?;
        let open = |k: usize| {
            DurableEngine::open_with_vfs(vfs.clone(), &shard_dir(dir, k), engine_opts, store_opts)
                .map_err(|source| ShardedStoreError::Shard { shard: k, source })
        };
        let engines: Vec<Result<DurableEngine, ShardedStoreError>> = if parallel {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n).map(|k| scope.spawn(move || open(k))).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard open thread never panics"))
                    .collect()
            })
        } else {
            (0..n).map(open).collect()
        };
        Ok(ShardedStore {
            dir: dir.to_path_buf(),
            sharded: Sharded::recover(engines.into_iter().collect::<Result<_, _>>()?),
        })
    }

    /// Flush every shard's group-commit buffer.
    pub fn flush(&mut self) -> Result<(), ShardedStoreError> {
        for shard in 0..self.shards() {
            self.shard_mut(shard)
                .flush()
                .map_err(|source| ShardedStoreError::Shard { shard, source })?;
        }
        Ok(())
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What each shard's opening recovery did, in shard order.
    pub fn recoveries(&self) -> Vec<RecoveryReport> {
        (0..self.shards())
            .map(|k| *self.shard(k).recovery())
            .collect()
    }
}

impl Deref for ShardedStore {
    type Target = Sharded<DurableEngine>;

    fn deref(&self) -> &Sharded<DurableEngine> {
        &self.sharded
    }
}

impl DerefMut for ShardedStore {
    fn deref_mut(&mut self) -> &mut Sharded<DurableEngine> {
        &mut self.sharded
    }
}

impl AsRef<CurrencyEngine> for DurableEngine {
    fn as_ref(&self) -> &CurrencyEngine {
        self.engine()
    }
}

impl ShardNode for DurableEngine {
    type Error = StoreError;
    type Report = ApplyReport;
    type Spec<'a> = &'a Specification;

    fn spec(&self) -> &Specification {
        DurableEngine::spec(self)
    }

    fn apply(&mut self, delta: &SpecDelta) -> Result<ApplyReport, StoreError> {
        DurableEngine::apply(self, delta)
    }

    fn compact(&mut self) -> Result<CompactStepReport, StoreError> {
        DurableEngine::compact(self)
    }

    fn compact_step(&mut self, budget: &CompactBudget) -> Result<CompactStepReport, StoreError> {
        DurableEngine::compact_step(self, budget)
    }

    fn metrics(&self) -> &MetricsRegistry {
        DurableEngine::metrics(self)
    }
}
