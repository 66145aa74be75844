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
//! from the recovered shard contents ([`ShardPlan::from_shards`]), which
//! agrees with the live plan for every entity that still has live
//! tuples.
//!
//! Writes route exactly as in [`currency_reason::shard`]: an
//! entity-anchored delta lands in one shard's log, a structure-only
//! delta is broadcast to every shard's log.  A broadcast that fails
//! part-way (some shards logged it, some did not) poisons the *front
//! door* — per-shard recovery still works, but the shards' structure may
//! disagree until the operator resolves the partial batch, so the
//! sharded store refuses further mutation
//! ([`ShardedStoreError::Poisoned`]).

use crate::durable::{DurableEngine, RecoveryReport, StoreOptions};
use crate::error::StoreError;
use crate::vfs::{RealVfs, Vfs};
use currency_core::{CompactStepReport, RelId, SpecDelta, Specification, Value};
use currency_obs::MetricsSnapshot;
use currency_query::Query;
use currency_reason::shard::{
    localize, scatter_ccqa, scatter_certain_answers, scatter_cop, scatter_cps, scatter_dcip,
    sharded_stats, split_spec, RoutedDelta, ShardError, ShardPlan, ShardedApplyReport,
    ShardedCompactStepReport, ShardedStats, SpecImport,
};
use currency_reason::{CertainAnswers, CompactBudget, CurrencyEngine, CurrencyOrderQuery, Options};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic first line of the `shards.meta` file.
const META_MAGIC: &str = "currency-sharded-store v1";

/// A failure of the sharded durability layer.
#[derive(Debug)]
pub enum ShardedStoreError {
    /// The delta violated the routing policy (cross-shard, mixed).
    Routing(ShardError),
    /// One shard's store failed.
    Shard {
        /// The failing shard.
        shard: usize,
        /// The underlying store error.
        source: StoreError,
    },
    /// The `shards.meta` file is missing or malformed.
    Meta {
        /// The file involved.
        path: PathBuf,
        /// What is wrong with it.
        detail: String,
    },
    /// A filesystem operation outside any one shard failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// [`ShardedStore::create`] refused to overwrite an existing store.
    AlreadyExists {
        /// The directory involved.
        dir: PathBuf,
    },
    /// A broadcast apply failed after some shards had already logged it;
    /// the shards' structure may disagree, so the front door is
    /// fail-stop until the store is reopened and the partial batch
    /// resolved.
    Poisoned {
        /// The original failure.
        detail: String,
    },
}

impl fmt::Display for ShardedStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardedStoreError::Routing(e) => write!(f, "routing: {e}"),
            ShardedStoreError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            ShardedStoreError::Meta { path, detail } => {
                write!(f, "{}: {detail}", path.display())
            }
            ShardedStoreError::Io { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            ShardedStoreError::AlreadyExists { dir } => write!(
                f,
                "{} already holds a sharded store (open it instead of creating)",
                dir.display()
            ),
            ShardedStoreError::Poisoned { detail } => write!(
                f,
                "sharded store is poisoned by a partial broadcast ({detail}); \
                 reopen it to recover the durable per-shard states"
            ),
        }
    }
}

impl std::error::Error for ShardedStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardedStoreError::Routing(e) => Some(e),
            ShardedStoreError::Shard { source, .. } => Some(source),
            ShardedStoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<ShardError> for ShardedStoreError {
    fn from(e: ShardError) -> ShardedStoreError {
        ShardedStoreError::Routing(e)
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
fn read_meta(vfs: &dyn Vfs, dir: &Path) -> Result<usize, ShardedStoreError> {
    let path = meta_path(dir);
    let mut file = vfs
        .open_read_write(&path)
        .map_err(|source| ShardedStoreError::Io {
            path: path.clone(),
            source,
        })?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|source| ShardedStoreError::Io {
            path: path.clone(),
            source,
        })?;
    let text = String::from_utf8(bytes).map_err(|_| ShardedStoreError::Meta {
        path: path.clone(),
        detail: "not UTF-8".to_string(),
    })?;
    let mut lines = text.lines();
    if lines.next() != Some(META_MAGIC) {
        return Err(ShardedStoreError::Meta {
            path,
            detail: format!("bad magic (expected {META_MAGIC:?})"),
        });
    }
    let shards = lines
        .next()
        .and_then(|l| l.strip_prefix("shards "))
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|&n| n >= 1);
    match shards {
        Some(n) => Ok(n),
        None => Err(ShardedStoreError::Meta {
            path,
            detail: "missing or malformed `shards <N>` line".to_string(),
        }),
    }
}

fn write_meta(
    vfs: &dyn Vfs,
    dir: &Path,
    shards: usize,
    sync: bool,
) -> Result<(), ShardedStoreError> {
    let path = meta_path(dir);
    let io = |source| ShardedStoreError::Io {
        path: path.clone(),
        source,
    };
    let mut file = vfs.create_truncate(&path).map_err(io)?;
    file.write_all(format!("{META_MAGIC}\nshards {shards}\n").as_bytes())
        .map_err(io)?;
    if sync {
        file.sync_all().map_err(io)?;
        vfs.sync_dir(dir).map_err(|source| ShardedStoreError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
    }
    Ok(())
}

/// N [`DurableEngine`] shards behind one scatter-gather front door (see
/// module docs for the directory layout and failure model).
pub struct ShardedStore {
    dir: PathBuf,
    plan: ShardPlan,
    shards: Vec<DurableEngine>,
    import: SpecImport,
    poisoned: Option<String>,
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
        vfs.create_dir_all(dir).map_err(|e| ShardedStoreError::Io {
            path: dir.to_path_buf(),
            source: e,
        })?;
        if read_meta(&*vfs, dir).is_ok() {
            return Err(ShardedStoreError::AlreadyExists {
                dir: dir.to_path_buf(),
            });
        }
        let plan = ShardPlan::from_spec(shards, spec);
        let (specs, import) = split_spec(spec, &plan);
        let engines = specs
            .into_iter()
            .enumerate()
            .map(|(k, sub)| {
                DurableEngine::create_with_vfs(
                    vfs.clone(),
                    &shard_dir(dir, k),
                    sub,
                    engine_opts,
                    store_opts,
                )
                .map_err(|source| ShardedStoreError::Shard { shard: k, source })
            })
            .collect::<Result<Vec<_>, _>>()?;
        write_meta(&*vfs, dir, plan.shards(), store_opts.sync_data)?;
        Ok(ShardedStore {
            dir: dir.to_path_buf(),
            plan,
            shards: engines,
            import,
            poisoned: None,
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
        let engines: Vec<Result<DurableEngine, ShardedStoreError>> = if parallel {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|k| {
                        let vfs = vfs.clone();
                        let dir = shard_dir(dir, k);
                        scope.spawn(move || {
                            DurableEngine::open_with_vfs(vfs, &dir, engine_opts, store_opts)
                                .map_err(|source| ShardedStoreError::Shard { shard: k, source })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard open thread never panics"))
                    .collect()
            })
        } else {
            (0..n)
                .map(|k| {
                    DurableEngine::open_with_vfs(
                        vfs.clone(),
                        &shard_dir(dir, k),
                        engine_opts,
                        store_opts,
                    )
                    .map_err(|source| ShardedStoreError::Shard { shard: k, source })
                })
                .collect()
        };
        let engines = engines.into_iter().collect::<Result<Vec<_>, _>>()?;
        let plan = ShardPlan::from_shards(n, engines.iter().map(|e| e.spec()));
        Ok(ShardedStore {
            dir: dir.to_path_buf(),
            plan,
            shards: engines,
            import: SpecImport::default(),
            poisoned: None,
        })
    }

    fn check_poison(&self) -> Result<(), ShardedStoreError> {
        match &self.poisoned {
            None => Ok(()),
            Some(detail) => Err(ShardedStoreError::Poisoned {
                detail: detail.clone(),
            }),
        }
    }

    /// Route one delta (global ids) and apply it durably: an
    /// entity-anchored delta becomes one shard's log-then-apply, a
    /// structure-only delta is broadcast to every shard (validated
    /// everywhere before any shard logs it; a part-way failure after
    /// that poisons the front door — see module docs).
    pub fn apply(&mut self, delta: &SpecDelta) -> Result<ShardedApplyReport, ShardedStoreError> {
        self.check_poison()?;
        let n = self.shards.len();
        let specs: Vec<&Specification> = self.shards.iter().map(|s| s.spec()).collect();
        let localized = localize(delta, &self.plan, &specs)?;
        drop(specs);
        let mut report = ShardedApplyReport::default();
        match localized.routed {
            RoutedDelta::Empty => {}
            RoutedDelta::Single { shard, delta } => {
                let r = self.shards[shard]
                    .apply(&delta)
                    .map_err(|source| ShardedStoreError::Shard { shard, source })?;
                report.shard = Some(shard);
                report.absorb(shard, n, r);
            }
            RoutedDelta::Broadcast { deltas } => {
                for (shard, d) in deltas.iter().enumerate() {
                    d.validate(self.shards[shard].spec()).map_err(|source| {
                        ShardedStoreError::Shard {
                            shard,
                            source: source.into(),
                        }
                    })?;
                }
                report.broadcast = true;
                for (shard, d) in deltas.iter().enumerate() {
                    match self.shards[shard].apply(d) {
                        Ok(r) => report.absorb(shard, n, r),
                        Err(source) => {
                            if shard > 0 {
                                self.poisoned =
                                    Some(format!("broadcast failed at shard {shard}: {source}"));
                            }
                            return Err(ShardedStoreError::Shard { shard, source });
                        }
                    }
                }
            }
        }
        for (eid, shard) in localized.placements {
            self.plan.place(eid, shard);
        }
        Ok(report)
    }

    /// Compact every shard fully, one at a time — each pause (and each
    /// logged step record) is shard-local, never global.
    pub fn compact(&mut self) -> Result<ShardedCompactStepReport, ShardedStoreError> {
        self.step_each_shard(DurableEngine::compact)
    }

    /// Run one bounded compaction step on every shard, one at a time —
    /// each pause (and each logged step record) is shard-local, never
    /// global, and every shard drains at its own pace across repeated
    /// calls.
    pub fn compact_step(
        &mut self,
        budget: &CompactBudget,
    ) -> Result<ShardedCompactStepReport, ShardedStoreError> {
        self.step_each_shard(|shard| shard.compact_step(budget))
    }

    /// Run `step` on every shard in order.
    fn step_each_shard(
        &mut self,
        mut step: impl FnMut(&mut DurableEngine) -> Result<CompactStepReport, StoreError>,
    ) -> Result<ShardedCompactStepReport, ShardedStoreError> {
        self.check_poison()?;
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for (shard, engine) in self.shards.iter_mut().enumerate() {
            per_shard
                .push(step(engine).map_err(|source| ShardedStoreError::Shard { shard, source })?);
        }
        Ok(ShardedCompactStepReport {
            shards: per_shard.len(),
            per_shard,
        })
    }

    /// Flush every shard's group-commit buffer.
    pub fn flush(&mut self) -> Result<(), ShardedStoreError> {
        for (shard, s) in self.shards.iter_mut().enumerate() {
            s.flush()
                .map_err(|source| ShardedStoreError::Shard { shard, source })?;
        }
        Ok(())
    }

    fn engine_refs(&self) -> Vec<&CurrencyEngine<'static>> {
        self.shards.iter().map(|s| s.engine()).collect()
    }

    /// **CPS** across shards (all-shards AND, early exit).
    pub fn cps(&self) -> Result<bool, StoreError> {
        Ok(scatter_cps(&self.engine_refs())?)
    }

    /// **COP** across shards, over global tuple ids.
    pub fn cop(&self, query: &CurrencyOrderQuery) -> Result<bool, StoreError> {
        Ok(scatter_cop(&self.engine_refs(), query)?)
    }

    /// **DCIP** across shards.
    pub fn dcip(&self, rel: RelId) -> Result<bool, StoreError> {
        Ok(scatter_dcip(&self.engine_refs(), rel)?)
    }

    /// Certain current answers — union across shards.
    pub fn certain_answers(&self, query: &Query) -> Result<CertainAnswers, StoreError> {
        Ok(scatter_certain_answers(&self.engine_refs(), query)?)
    }

    /// **CCQA** — membership in the certain answers.
    pub fn ccqa(&self, query: &Query, tuple: &[Value]) -> Result<bool, StoreError> {
        Ok(scatter_ccqa(&self.engine_refs(), query, tuple)?)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `k`'s durable engine (shard-local ids!).
    pub fn shard(&self, shard: usize) -> &DurableEngine {
        &self.shards[shard]
    }

    /// The routing plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The original → global id translation of [`ShardedStore::create`]
    /// (empty after an `open` — recovered stores speak global ids
    /// already).
    pub fn import(&self) -> &SpecImport {
        &self.import
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What each shard's opening recovery did, in shard order.
    pub fn recoveries(&self) -> Vec<RecoveryReport> {
        self.shards.iter().map(|s| *s.recovery()).collect()
    }

    /// Per-shard + aggregate engine statistics, lock-free.
    pub fn stats(&self) -> ShardedStats {
        sharded_stats(&self.engine_refs())
    }

    /// Every shard's metrics, merged into one snapshot with each series
    /// labeled `shard="<k>"` — counters sum, gauges take the max,
    /// histograms merge bucket-wise.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::merged(
            self.shards
                .iter()
                .enumerate()
                .map(|(k, s)| s.metrics().snapshot().with_label("shard", &k.to_string())),
        )
    }

    /// The merged metrics in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().render_prometheus()
    }
}
