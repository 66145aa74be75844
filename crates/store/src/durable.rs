//! The crash-recoverable engine: log-then-apply over a
//! [`CurrencyEngine`].
//!
//! A [`DurableEngine`] owns a store directory holding two kinds of file:
//!
//! * `snapshot-<seq>.cur` — checksummed full-state snapshots
//!   ([`crate::snapshot`]), each covering the log prefix up to `seq`;
//! * `wal.log` — the append-only write-ahead log ([`crate::wal`]) of
//!   everything since.
//!
//! ## Write path
//!
//! [`DurableEngine::apply`] validates the delta against the live
//! specification ([`SpecDelta::validate`] — an inadmissible delta is
//! rejected *before* it can pollute the log), appends it as a log record,
//! and only then feeds it to the in-memory engine — **log-then-apply**,
//! so every state the engine ever reaches is reconstructible from disk
//! (up to the group-commit window; see [`StoreOptions::group_commit`]).
//!
//! ## Compaction
//!
//! Every compaction is a logged step.  An explicit
//! [`DurableEngine::compact_step`] (bounded by its slot budget, or
//! unbounded with [`CompactBudget::UNBOUNDED`]) and each step the
//! [`Options::auto_compact_tombstones`] policy takes inside an apply are
//! both appended as one [`Record::CompactStep`] holding the step's
//! slices.  Replaying the suffix re-executes the *same* slices at the
//! same point, so every later record's tuple ids resolve correctly.
//!
//! ## Recovery
//!
//! [`DurableEngine::open`] loads the newest snapshot that passes its
//! checksum (older generations are fallbacks), rebuilds a
//! [`CurrencyEngine`] from it, and replays the log suffix — each delta
//! re-validated through the normal [`SpecDelta::validate`] path and
//! applied through [`CurrencyEngine::apply_replayed`] (the auto policy
//! does not fire on replay), each step record re-executed verbatim and
//! **verified** against the logged slices.  Replay also reconstructs the
//! auto policy's decision after every delta: a delta that left the
//! tombstone count at or above the threshold must be followed by an auto
//! step record.  A torn log tail (the footprint of a crash mid-append)
//! is truncated away; checksum damage anywhere else is a refusal, never
//! a silently wrong specification.  What recovery did is reported in
//! [`DurableEngine::recovery`] and counted into
//! [`currency_reason::EngineStats`].
//!
//! ## Rotation
//!
//! When the log grows past [`StoreOptions::snapshot_rotate_bytes`], the
//! engine writes a fresh snapshot (temp-file + atomic rename), truncates
//! the log, and prunes all but the two newest snapshot generations —
//! bounding both recovery time (replay length) and disk use.  The
//! crash-safe order is flush-log → write-snapshot → truncate-log: a
//! crash between the last two steps leaves a snapshot plus a log of
//! already-covered records, which replay skips by sequence number.

use crate::error::{io_err, StoreError};
use crate::snapshot::{
    list_snapshots, prune_snapshots, read_snapshot, sweep_tmp_snapshots, write_snapshot,
};
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{Record, Wal};
use currency_core::{CompactStepReport, SpecDelta, Specification};
use currency_obs::MetricsRegistry;
use currency_query::Query;
use currency_reason::{
    ApplyReport, CertainAnswers, CompactBudget, CurrencyEngine, CurrencyOrderQuery, EngineStats,
    Options,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Durability knobs of a [`DurableEngine`].
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Rotate (snapshot + truncate the log) once the log exceeds this
    /// many bytes.  Bounds recovery replay length.  Default: 1 MiB.
    pub snapshot_rotate_bytes: u64,
    /// Group-commit batch: log records are flushed to disk every this
    /// many appends.  `1` (the default) makes every [`DurableEngine::apply`]
    /// durable before it returns; larger batches amortize the write/sync
    /// cost and widen the crash-loss window to at most the last
    /// `group_commit - 1` acknowledged records — always a suffix, never
    /// a hole.
    pub group_commit: usize,
    /// `fsync` file data at every flush point.  Default `true`; turn off
    /// for benchmarks and tests where the OS page cache is trusted.
    pub sync_data: bool,
}

/// Snapshot generations retained after rotation: the newest plus one
/// fallback for checksum-failure recovery.
const KEEP_SNAPSHOTS: usize = 2;

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            snapshot_rotate_bytes: 1 << 20,
            group_commit: 1,
            sync_data: true,
        }
    }
}

/// What [`DurableEngine::open`] had to do.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Covered sequence number of the snapshot recovery started from.
    pub snapshot_seq: u64,
    /// Newer snapshot generations skipped because they failed their
    /// checksum.
    pub snapshots_skipped: usize,
    /// Delta records replayed from the log suffix.
    pub deltas_replayed: usize,
    /// Always 0: every compaction is logged as a step and counted in
    /// [`RecoveryReport::compact_steps_replayed`].  Kept so existing
    /// replay accounting (`deltas + compacts + steps`) stays valid.
    pub compacts_replayed: usize,
    /// Compaction step records re-executed (slice by slice, and
    /// verified) from the suffix, plus an auto step backfilled at the
    /// end of the log.
    pub compact_steps_replayed: usize,
    /// Records skipped because the snapshot already covered them (the
    /// residue of a rotation interrupted between snapshot and log
    /// truncation).
    pub records_skipped: usize,
    /// Torn-tail bytes truncated from the log (a crash mid-append).
    pub torn_tail_bytes: u64,
}

/// The log file's name within a store directory.
fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

/// A [`CurrencyEngine`] whose specification survives process restarts
/// (see module docs).
pub struct DurableEngine {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    engine: CurrencyEngine,
    wal: Wal,
    store_opts: StoreOptions,
    /// Sequence number of the last appended record.
    seq: u64,
    /// Sequence number the newest on-disk snapshot covers.
    snapshot_seq: u64,
    recovery: RecoveryReport,
    /// Set when a write failed partway through the log-then-apply
    /// sequence: the log and the engine may disagree from that point on,
    /// so every further mutation is refused ([`StoreError::Poisoned`])
    /// until the store is reopened — recovery rebuilds the one
    /// consistent state the durable files define.  A *rejected* delta
    /// (validation failure before anything is written) never poisons.
    poisoned: Option<String>,
}

impl DurableEngine {
    /// Create a fresh store in `dir` (created if missing, refused if it
    /// already holds one): the initial specification is written as
    /// snapshot 0 and an empty log is laid down, so the store is
    /// reopenable from its first instant.
    pub fn create(
        dir: &Path,
        spec: Specification,
        engine_opts: &Options,
        store_opts: StoreOptions,
    ) -> Result<DurableEngine, StoreError> {
        DurableEngine::create_with_vfs(Arc::new(RealVfs), dir, spec, engine_opts, store_opts)
    }

    /// [`DurableEngine::create`] through an explicit [`Vfs`] — the chaos
    /// harness's entry point, and the hook for alternative filesystems.
    pub fn create_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        spec: Specification,
        engine_opts: &Options,
        store_opts: StoreOptions,
    ) -> Result<DurableEngine, StoreError> {
        vfs.create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        if !list_snapshots(&*vfs, dir)?.is_empty() {
            return Err(StoreError::AlreadyExists {
                dir: dir.to_path_buf(),
            });
        }
        sweep_tmp_snapshots(&*vfs, dir)?;
        // Log before snapshot: a store "exists" once its base snapshot
        // does (the `AlreadyExists` check above), so the snapshot must be
        // the *last* artifact laid down — a crash in between leaves a
        // directory a retried `create` simply recreates, never a
        // half-store that both `create` and `open` refuse.
        let mut wal = Wal::create(
            &*vfs,
            &wal_path(dir),
            store_opts.group_commit,
            store_opts.sync_data,
        )?;
        write_snapshot(&*vfs, dir, 0, &spec, store_opts.sync_data)?;
        let engine = CurrencyEngine::new_owned(spec, engine_opts)?;
        wal.bind_metrics(engine.obs().registry());
        Ok(DurableEngine {
            dir: dir.to_path_buf(),
            vfs,
            engine,
            wal,
            store_opts,
            seq: 0,
            snapshot_seq: 0,
            recovery: RecoveryReport::default(),
            poisoned: None,
        })
    }

    /// Recover a store from `dir`: newest valid snapshot, then log-suffix
    /// replay (see module docs).
    ///
    /// `engine_opts` must match the options the log was written under —
    /// [`Options::auto_compact_tombstones`] in particular decides *where*
    /// auto steps fire along the delta stream.  Replay checks that an
    /// auto step record follows exactly the deltas that crossed the
    /// threshold and fails with [`StoreError::ReplayDiverged`] instead of
    /// recovering wrongly.  What each step moved comes from the log, not
    /// from [`Options::auto_compact_budget`]; the budget matters only when
    /// the log ends between a delta and its step, and open runs that step
    /// itself and logs it.
    pub fn open(
        dir: &Path,
        engine_opts: &Options,
        store_opts: StoreOptions,
    ) -> Result<DurableEngine, StoreError> {
        DurableEngine::open_with_vfs(Arc::new(RealVfs), dir, engine_opts, store_opts)
    }

    /// [`DurableEngine::open`] through an explicit [`Vfs`].
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        engine_opts: &Options,
        store_opts: StoreOptions,
    ) -> Result<DurableEngine, StoreError> {
        let snaps = list_snapshots(&*vfs, dir)?;
        if snaps.is_empty() {
            return Err(StoreError::NoSnapshot {
                dir: dir.to_path_buf(),
            });
        }
        // A crash mid-snapshot-write can orphan a `.cur.tmp`; it was
        // never renamed into a live name, so it holds no committed state
        // and accumulating them would leak a full spec encoding per
        // crashed rotation.
        sweep_tmp_snapshots(&*vfs, dir)?;
        // Newest snapshot that passes its checksum wins; older
        // generations are the fallback chain.  If every generation is
        // damaged, surface the newest one's error.  Falling back is only
        // sound if the log still covers the gap — the file name of a
        // skipped generation tells us the sequence number recovery must
        // reach, and the contiguity checks below enforce it.
        let mut snapshot = None;
        let mut snapshots_skipped = 0;
        let mut max_skipped_seq = 0u64;
        let mut first_err = None;
        for (name_seq, path) in snaps.iter().rev() {
            match read_snapshot(&*vfs, path) {
                Ok(loaded) => {
                    snapshot = Some(loaded);
                    break;
                }
                Err(e) => {
                    snapshots_skipped += 1;
                    max_skipped_seq = max_skipped_seq.max(*name_seq);
                    first_err.get_or_insert(e);
                }
            }
        }
        let Some((snapshot_seq, spec)) = snapshot else {
            return Err(first_err.expect("at least one snapshot was tried"));
        };
        let opened = Wal::open(
            &*vfs,
            &wal_path(dir),
            store_opts.group_commit,
            store_opts.sync_data,
        )?;
        let mut engine = CurrencyEngine::new_owned(spec, engine_opts)?;
        // Recovery progress gauges: total is known up front, replayed
        // advances record by record, so a concurrent scrape (or a
        // post-mortem snapshot) shows how far the replay got.
        let metrics = engine.obs().registry();
        let recovery_total = metrics.gauge(
            "currency_recovery_records_total",
            "Log records found at open (replay target)",
            &[],
        );
        let recovery_replayed = metrics.gauge(
            "currency_recovery_records_replayed",
            "Log records replayed (or skipped as already covered) so far",
            &[],
        );
        recovery_total.set(opened.records.len() as u64);
        let mut recovery = RecoveryReport {
            snapshot_seq,
            snapshots_skipped,
            torn_tail_bytes: opened.torn_tail_bytes,
            ..RecoveryReport::default()
        };
        let mut seq = snapshot_seq;
        // The previous replayed delta crossed the auto-compaction
        // threshold, so the original run took a step right after it — its
        // record must be next.
        let mut pending_step = false;
        for record in opened.records {
            recovery_replayed.add(1);
            if record.seq() <= snapshot_seq {
                // Rotation crashed between snapshot and log truncation:
                // the snapshot already contains these records' effects.
                recovery.records_skipped += 1;
                continue;
            }
            if record.seq() != seq + 1 {
                // Sequence numbers are assigned contiguously, so a hole
                // means records between the loaded snapshot and this one
                // are gone (a rotation truncated them and the newer
                // snapshot that covered them failed its checksum).
                // Recovering around the hole would silently drop
                // acknowledged updates.
                return Err(StoreError::ReplayDiverged {
                    seq: record.seq(),
                    detail: format!(
                        "log gap: expected record #{}, found #{} — the \
                         records in between are covered only by an \
                         unreadable snapshot",
                        seq + 1,
                        record.seq()
                    ),
                });
            }
            // Any record other than the auto step here means the original
            // run did *not* step at that point — the reopening options'
            // threshold differs — and every id in the remaining suffix
            // would resolve against the wrong id space.  (A step left
            // unlogged at end-of-log is the crashed-between-delta-and-step
            // case; it is backfilled after the loop.)
            if pending_step && !matches!(record, Record::CompactStep { auto: true, .. }) {
                return Err(StoreError::ReplayDiverged {
                    seq: record.seq(),
                    detail: "replayed delta crossed the auto-compaction threshold \
                             but the log has no step record for it"
                        .to_string(),
                });
            }
            seq = record.seq();
            match record {
                Record::Delta { seq, delta } => {
                    // Re-validate through the same admissibility path the
                    // live `apply` uses; a delta that no longer validates
                    // means snapshot and log diverged.
                    delta
                        .validate(engine.spec())
                        .map_err(|source| StoreError::ReplayInvalid { seq, source })?;
                    // Replayed deltas must not *initiate* steps: the log
                    // records the steps the original run took.
                    engine.apply_replayed(&delta)?;
                    pending_step = engine_opts.auto_compact_due(engine.spec());
                    recovery.deltas_replayed += 1;
                }
                Record::CompactStep { seq, auto, step } => {
                    if auto && !pending_step {
                        return Err(StoreError::ReplayDiverged {
                            seq,
                            detail: "log records an auto compaction step the \
                                     replayed delta did not trigger"
                                .to_string(),
                        });
                    }
                    pending_step = false;
                    // Re-execute the logged slices verbatim — the step's
                    // bounds capture exactly what ran, whatever budget and
                    // slice width the writer used, so replay needs no
                    // policy reconstruction.
                    let actual = engine.compact_apply_step(&step).map_err(|e| {
                        StoreError::ReplayDiverged {
                            seq,
                            detail: format!(
                                "logged compaction step does not re-execute \
                                 against the replayed state: {e}"
                            ),
                        }
                    })?;
                    if actual != step {
                        return Err(StoreError::ReplayDiverged {
                            seq,
                            detail: format!(
                                "compaction step mismatch: replay reclaimed {} \
                                 slot(s) over {} slice(s), the log records {} \
                                 over {}",
                                actual.reclaimed,
                                actual.slices.len(),
                                step.reclaimed,
                                step.slices.len()
                            ),
                        });
                    }
                    recovery.compact_steps_replayed += 1;
                }
            }
        }
        if seq < max_skipped_seq {
            // An unreadable newer snapshot covered records the log no
            // longer holds (its rotation truncated them): recovery cannot
            // reach the acknowledged state, so refuse rather than hand
            // back a silently older one.
            return Err(StoreError::ReplayDiverged {
                seq,
                detail: format!(
                    "an unreadable snapshot covers up to record #{max_skipped_seq}, \
                     but snapshot + log only reach #{seq}"
                ),
            });
        }
        let mut wal = opened.wal;
        wal.bind_metrics(engine.obs().registry());
        if pending_step {
            // The original run crashed between the final delta and its
            // auto step record.  Run the slot-bounded step now — a pure
            // function of the specification and the budget, so exactly
            // what the original apply did in memory — and backfill its
            // record; otherwise the next appended record would sit where
            // the step belongs and every *later* open would refuse with
            // `ReplayDiverged`.
            let step = engine.compact_step(&engine_opts.auto_compact_budget.unwrap_or_default())?;
            seq += 1;
            wal.append_compact_step(seq, true, &step)?;
            wal.flush()?;
            recovery.compact_steps_replayed += 1;
        }
        engine.note_recovery(recovery.deltas_replayed);
        Ok(DurableEngine {
            dir: dir.to_path_buf(),
            vfs,
            engine,
            wal,
            store_opts,
            seq,
            snapshot_seq,
            recovery,
            poisoned: None,
        })
    }

    /// Refuse mutations after a partial write (see the `poisoned` field).
    fn check_poison(&self) -> Result<(), StoreError> {
        match &self.poisoned {
            None => Ok(()),
            Some(detail) => Err(StoreError::Poisoned {
                detail: detail.clone(),
            }),
        }
    }

    /// Mark the store fail-stop, preserving the original error.
    fn poison<T>(&mut self, what: &str, err: StoreError) -> Result<T, StoreError> {
        self.poisoned = Some(format!("{what}: {err}"));
        Err(err)
    }

    /// Apply a delta durably: validate, log, apply, maybe rotate (see the
    /// module-level write-path contract).
    ///
    /// A *rejected* delta (inadmissible against the live specification)
    /// is a clean error — nothing is written, the store stays usable.  A
    /// failure *after* the log append (an I/O error mid-flush, say)
    /// poisons the store: the log and the engine may now disagree, so
    /// every further mutation returns [`StoreError::Poisoned`] until the
    /// store is reopened and recovery re-derives the consistent state
    /// from the durable files.
    pub fn apply(&mut self, delta: &SpecDelta) -> Result<ApplyReport, StoreError> {
        self.check_poison()?;
        // Reject before logging — the log must only ever hold deltas that
        // were admissible when appended.
        delta.validate(self.engine.spec())?;
        self.seq += 1;
        if let Err(e) = self.wal.append_delta(self.seq, delta) {
            // The frame may be half-written or stuck in the buffer while
            // `seq` advanced: retrying would duplicate the record.
            return self.poison("log append failed", e);
        }
        let report = match self.engine.apply(delta) {
            Ok(report) => report,
            // The log holds a delta the engine never applied.
            Err(e) => return self.poison("apply after log append failed", e.into()),
        };
        if let Some(step) = &report.compact_step {
            // The auto policy ran one bounded step inside
            // `apply`: log its slices so replay re-executes them in
            // place (logged even when the step found nothing, so the
            // record stream matches the policy decision replay
            // reconstructs).
            self.seq += 1;
            if let Err(e) = self.wal.append_compact_step(self.seq, true, step) {
                return self.poison("auto compaction step record append failed", e);
            }
        }
        if let Err(e) = self.maybe_rotate() {
            return self.poison("snapshot rotation failed", e);
        }
        Ok(report)
    }

    /// Run one bounded compaction step
    /// ([`CurrencyEngine::compact_step`]), logging its slices as a
    /// [`Record::CompactStep`] so post-step replay stays id-correct.  A
    /// step that ran no slice logs nothing.  A crash between two steps
    /// recovers to the valid intermediate state the completed steps
    /// left: each step is its own durable record, re-executed verbatim
    /// by the next open.  Failure handling matches
    /// [`DurableEngine::apply`]: a failure after the engine stepped
    /// poisons the store.
    pub fn compact_step(
        &mut self,
        budget: &CompactBudget,
    ) -> Result<CompactStepReport, StoreError> {
        self.check_poison()?;
        let step = self.engine.compact_step(budget)?;
        if !step.slices.is_empty() {
            self.seq += 1;
            if let Err(e) = self.wal.append_compact_step(self.seq, false, &step) {
                // The engine's ids moved but the log never heard of it.
                return self.poison("compaction step record append failed", e);
            }
            if let Err(e) = self.maybe_rotate() {
                return self.poison("snapshot rotation failed", e);
            }
        }
        Ok(step)
    }

    /// Force every buffered log record to disk (the group-commit
    /// durability point).  Also runs on drop, best-effort.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.wal.flush()
    }

    /// Write a snapshot of the current state now, truncating the log and
    /// pruning old generations — what rotation does, on demand.
    ///
    /// A failure partway (a torn snapshot publish, a log truncation that
    /// errored mid-way) poisons the store, like any other write failure:
    /// which on-disk artifacts survived is unknown, and only a reopen's
    /// recovery can re-derive the consistent state.
    pub fn snapshot_now(&mut self) -> Result<(), StoreError> {
        // A poisoned store's engine may disagree with its log; a snapshot
        // claiming to cover `seq` would persist that disagreement.
        self.check_poison()?;
        if let Err(e) = self.snapshot_inner() {
            return self.poison("snapshot write failed", e);
        }
        Ok(())
    }

    fn snapshot_inner(&mut self) -> Result<(), StoreError> {
        self.wal.flush()?;
        write_snapshot(
            &*self.vfs,
            &self.dir,
            self.seq,
            self.engine.spec(),
            self.store_opts.sync_data,
        )?;
        self.snapshot_seq = self.seq;
        self.wal.reset()?;
        prune_snapshots(&*self.vfs, &self.dir, KEEP_SNAPSHOTS)?;
        Ok(())
    }

    fn maybe_rotate(&mut self) -> Result<(), StoreError> {
        if self.wal.total_len() > self.store_opts.snapshot_rotate_bytes {
            self.snapshot_now()?;
        }
        Ok(())
    }

    /// The wrapped engine, for queries (mutation must go through
    /// [`DurableEngine::apply`] / [`DurableEngine::compact_step`], so only a
    /// shared reference is handed out).
    pub fn engine(&self) -> &CurrencyEngine {
        &self.engine
    }

    /// The live specification (including every applied delta).
    pub fn spec(&self) -> &Specification {
        self.engine.spec()
    }

    /// What the opening recovery did (all zeros for a freshly created
    /// store).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Sequence number of the last logged record.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Sequence number the newest snapshot covers (records after it live
    /// only in the log until the next rotation).
    pub fn snapshot_seq(&self) -> u64 {
        self.snapshot_seq
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// **CPS** — see [`CurrencyEngine::cps`].
    pub fn cps(&self) -> Result<bool, StoreError> {
        Ok(self.engine.cps()?)
    }

    /// **COP** — see [`CurrencyEngine::cop`].
    pub fn cop(&self, query: &CurrencyOrderQuery) -> Result<bool, StoreError> {
        Ok(self.engine.cop(query)?)
    }

    /// **DCIP** — see [`CurrencyEngine::dcip`].
    pub fn dcip(&self, rel: currency_core::RelId) -> Result<bool, StoreError> {
        Ok(self.engine.dcip(rel)?)
    }

    /// Certain current answers — see [`CurrencyEngine::certain_answers`].
    pub fn certain_answers(&self, query: &Query) -> Result<CertainAnswers, StoreError> {
        Ok(self.engine.certain_answers(query)?)
    }

    /// Aggregate engine statistics (includes the recovery counters).
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The store's one metric registry, owned by its engine: engine
    /// phase timings and lifetime counters, WAL append/flush/fsync
    /// histograms, and the recovery progress gauges all live here.
    /// Hand the same registry to other components (or
    /// snapshot-and-merge several stores') for a single exposition.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.engine.obs().registry()
    }

    /// Current metrics in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        self.metrics().render_prometheus()
    }
}

impl Drop for DurableEngine {
    fn drop(&mut self) {
        // Best-effort group-commit drain; an explicit `flush` is the way
        // to observe failures.
        let _ = self.wal.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{list_snapshots, write_snapshot};
    use crate::vfs::{ChaosPlan, ChaosVfs, Fault};
    use currency_core::wire::encode_spec;
    use currency_core::{
        AttrId, Catalog, CmpOp, DenialConstraint, Eid, RelId, RelationSchema, Term, Tuple, TupleId,
        Value,
    };

    const A: AttrId = AttrId(0);

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "currency-store-durable-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn monotone(r: RelId) -> DenialConstraint {
        DenialConstraint::builder(r, 2)
            .when_cmp(Term::attr(0, A), CmpOp::Gt, Term::attr(1, A))
            .then_order(1, A, 0)
            .build()
            .unwrap()
    }

    fn seed_spec() -> (Specification, RelId) {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        for e in 0..3u64 {
            for v in [10, 20] {
                spec.instance_mut(r)
                    .push_tuple(Tuple::new(Eid(e), vec![Value::int(v + e as i64)]))
                    .unwrap();
            }
        }
        spec.add_constraint(monotone(r)).unwrap();
        (spec, r)
    }

    fn insert(r: RelId, e: u64, v: i64) -> SpecDelta {
        let mut d = SpecDelta::new();
        d.insert_tuple(r, Tuple::new(Eid(e), vec![Value::int(v)]));
        d
    }

    fn fast() -> StoreOptions {
        StoreOptions {
            sync_data: false,
            ..StoreOptions::default()
        }
    }

    #[test]
    fn create_apply_reopen_recovers_the_exact_state() {
        let dir = tmpdir("reopen");
        let (spec, r) = seed_spec();
        let opts = Options::default();
        let mut durable = DurableEngine::create(&dir, spec, &opts, fast()).unwrap();
        assert!(durable.cps().unwrap());
        for step in 0..4 {
            durable
                .apply(&insert(r, step % 3, 100 + step as i64))
                .unwrap();
        }
        assert_eq!(durable.seq(), 4);
        let live_bytes = encode_spec(durable.spec());
        drop(durable);
        let recovered = DurableEngine::open(&dir, &opts, fast()).unwrap();
        assert_eq!(encode_spec(recovered.spec()), live_bytes);
        let rec = recovered.recovery();
        assert_eq!(rec.snapshot_seq, 0);
        assert_eq!(rec.deltas_replayed, 4);
        assert_eq!(rec.torn_tail_bytes, 0);
        assert_eq!(recovered.seq(), 4);
        let stats = recovered.stats();
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.deltas_replayed, 4);
        assert!(recovered.cps().unwrap());
        assert!(recovered
            .cop(&CurrencyOrderQuery::single(r, A, TupleId(0), TupleId(1)))
            .unwrap());
    }

    #[test]
    fn create_refuses_an_existing_store() {
        let dir = tmpdir("exists");
        let (spec, _) = seed_spec();
        let opts = Options::default();
        let durable = DurableEngine::create(&dir, spec.clone(), &opts, fast()).unwrap();
        drop(durable);
        assert!(matches!(
            DurableEngine::create(&dir, spec, &opts, fast()),
            Err(StoreError::AlreadyExists { .. })
        ));
        assert!(matches!(
            DurableEngine::open(&tmpdir("not-a-store"), &opts, fast()),
            Err(StoreError::Io { .. } | StoreError::NoSnapshot { .. })
        ));
    }

    #[test]
    fn rejected_deltas_never_reach_the_log() {
        let dir = tmpdir("rejected");
        let (spec, r) = seed_spec();
        let opts = Options::default();
        let mut durable = DurableEngine::create(&dir, spec, &opts, fast()).unwrap();
        let mut bad = SpecDelta::new();
        bad.add_order_edge(r, A, TupleId(0), TupleId(2)); // cross-entity
        assert!(durable.apply(&bad).is_err());
        assert_eq!(durable.seq(), 0, "nothing was logged");
        durable.apply(&insert(r, 0, 99)).unwrap();
        drop(durable);
        let recovered = DurableEngine::open(&dir, &opts, fast()).unwrap();
        assert_eq!(recovered.recovery().deltas_replayed, 1);
        assert!(recovered.cps().unwrap());
    }

    #[test]
    fn rotation_snapshots_truncate_the_log_and_bound_replay() {
        let dir = tmpdir("rotate");
        let (spec, r) = seed_spec();
        let opts = Options::default();
        let store_opts = StoreOptions {
            snapshot_rotate_bytes: 256, // a few deltas per generation
            sync_data: false,
            ..StoreOptions::default()
        };
        let mut durable = DurableEngine::create(&dir, spec, &opts, store_opts).unwrap();
        for step in 0..20 {
            durable
                .apply(&insert(r, step % 3, 1000 + step as i64))
                .unwrap();
        }
        assert!(durable.snapshot_seq() > 0, "rotation happened");
        assert!(
            list_snapshots(&RealVfs, &dir).unwrap().len() <= 2,
            "old generations pruned"
        );
        let live_bytes = encode_spec(durable.spec());
        let snapshot_seq = durable.snapshot_seq();
        drop(durable);
        let recovered = DurableEngine::open(&dir, &opts, store_opts).unwrap();
        assert_eq!(encode_spec(recovered.spec()), live_bytes);
        assert_eq!(recovered.recovery().snapshot_seq, snapshot_seq);
        assert!(
            recovered.recovery().deltas_replayed < 20,
            "the snapshot absorbed most of the history"
        );
        assert_eq!(recovered.seq(), 20);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_when_the_log_covers_the_gap() {
        // The recoverable fallback shape: a snapshot was written (e.g. a
        // rotation crashed right after the atomic rename, before the log
        // truncation) and later went bad, while the log still holds
        // everything since the previous generation.
        let dir = tmpdir("fallback-ok");
        let (spec, r) = seed_spec();
        let opts = Options::default();
        let mut durable = DurableEngine::create(&dir, spec, &opts, fast()).unwrap();
        durable.apply(&insert(r, 0, 50)).unwrap();
        durable.apply(&insert(r, 1, 60)).unwrap();
        durable.flush().unwrap();
        // A snapshot covering seq 2 exists but the log was NOT truncated.
        write_snapshot(&RealVfs, &dir, 2, durable.spec(), false).unwrap();
        let live_bytes = encode_spec(durable.spec());
        drop(durable);
        // Damage that newest snapshot's payload.
        let snaps = list_snapshots(&RealVfs, &dir).unwrap();
        let newest = &snaps.last().unwrap().1;
        let mut bytes = std::fs::read(newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(newest, &bytes).unwrap();
        let recovered = DurableEngine::open(&dir, &opts, fast()).unwrap();
        let rec = *recovered.recovery();
        assert_eq!(rec.snapshots_skipped, 1, "newest generation refused");
        assert_eq!(rec.snapshot_seq, 0, "fell back to the base snapshot");
        assert_eq!(rec.deltas_replayed, 2, "log bridged the whole gap");
        assert_eq!(encode_spec(recovered.spec()), live_bytes);
    }

    #[test]
    fn corrupt_newest_snapshot_with_a_truncated_log_fails_cleanly() {
        // The unrecoverable shape: rotation truncated the log, then the
        // snapshot that covered those records went bad.  Recovery must
        // refuse (the acknowledged state is unreachable) instead of
        // silently handing back the older generation minus the gap.
        let dir = tmpdir("fallback-gap");
        let (spec, r) = seed_spec();
        let opts = Options::default();
        let mut durable = DurableEngine::create(&dir, spec, &opts, fast()).unwrap();
        durable.apply(&insert(r, 0, 50)).unwrap();
        durable.snapshot_now().unwrap(); // truncates the log at seq 1
        durable.apply(&insert(r, 1, 60)).unwrap(); // seq 2, in the log
        drop(durable);
        let snaps = list_snapshots(&RealVfs, &dir).unwrap();
        let newest = snaps.last().unwrap().1.clone();
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        assert!(
            matches!(
                DurableEngine::open(&dir, &opts, fast()),
                Err(StoreError::ReplayDiverged { .. })
            ),
            "a log gap behind an unreadable snapshot must refuse recovery"
        );
        // Same refusal when the gap sits at the log's tail (log empty
        // since the rotation).
        let dir = tmpdir("fallback-tail-gap");
        let (spec, r) = seed_spec();
        let mut durable = DurableEngine::create(&dir, spec, &opts, fast()).unwrap();
        durable.apply(&insert(r, 0, 50)).unwrap();
        durable.snapshot_now().unwrap();
        drop(durable);
        let snaps = list_snapshots(&RealVfs, &dir).unwrap();
        let newest = snaps.last().unwrap().1.clone();
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        assert!(matches!(
            DurableEngine::open(&dir, &opts, fast()),
            Err(StoreError::ReplayDiverged { .. })
        ));
    }

    #[test]
    fn compaction_records_replay_id_correct_histories() {
        let dir = tmpdir("compact-replay");
        let (spec, r) = seed_spec();
        let opts = Options::default();
        let mut durable = DurableEngine::create(&dir, spec, &opts, fast()).unwrap();
        // Insert, retract, compact — then keep writing deltas whose ids
        // only make sense *after* the compaction's remap.
        let report = durable.apply(&insert(r, 1, 77)).unwrap();
        let (rel, id) = report.inserted[0];
        let mut retract = SpecDelta::new();
        retract.remove_tuple(rel, id);
        durable.apply(&retract).unwrap();
        let compact = durable.compact_step(&CompactBudget::UNBOUNDED).unwrap();
        assert_eq!(compact.reclaimed, 1);
        assert!(compact.done);
        // Post-compaction: an order edge between two remapped ids.
        let last = TupleId(durable.spec().instance(r).len() as u32 - 1);
        let group = durable
            .spec()
            .instance(r)
            .entity_group(durable.spec().instance(r).tuple(last).eid);
        let first = group[0];
        let mut edge = SpecDelta::new();
        edge.add_order_edge(r, A, first, last);
        durable.apply(&edge).unwrap();
        let live_bytes = encode_spec(durable.spec());
        drop(durable);
        let recovered = DurableEngine::open(&dir, &opts, fast()).unwrap();
        assert_eq!(encode_spec(recovered.spec()), live_bytes);
        // The explicit full compaction was logged as one step record.
        assert_eq!(recovered.recovery().compact_steps_replayed, 1);
        assert_eq!(recovered.recovery().compacts_replayed, 0);
        assert_eq!(recovered.recovery().deltas_replayed, 3);
        assert!(recovered.cps().unwrap());
    }

    #[test]
    fn replay_refuses_an_auto_compaction_the_log_never_recorded() {
        // The log was written with auto-compaction OFF, and the store is
        // reopened with a threshold the replayed churn crosses.  Replay
        // then expects a step where the original run took none — every
        // later record's tuple ids would resolve against the wrong id
        // space — so recovery must refuse, not proceed.
        let dir = tmpdir("auto-unrecorded");
        let (spec, r) = seed_spec();
        let mut durable = DurableEngine::create(&dir, spec, &Options::default(), fast()).unwrap();
        for step in 0..3 {
            let report = durable.apply(&insert(r, 0, 700 + step)).unwrap();
            let (rel, id) = report.inserted[0];
            let mut retract = SpecDelta::new();
            retract.remove_tuple(rel, id);
            let report = durable.apply(&retract).unwrap();
            assert!(report.compact_step.is_none(), "policy off while writing");
        }
        drop(durable);
        let strict = Options {
            auto_compact_tombstones: 2,
            ..Options::default()
        };
        assert!(
            matches!(
                DurableEngine::open(&dir, &strict, fast()),
                Err(StoreError::ReplayDiverged { .. })
            ),
            "an unrecorded replay-side auto-compaction must refuse recovery"
        );
        // The matching options still recover fine.
        let recovered = DurableEngine::open(&dir, &Options::default(), fast()).unwrap();
        assert_eq!(recovered.recovery().deltas_replayed, 6);
        assert!(recovered.cps().unwrap());
    }

    /// Byte offsets where each log frame starts (walks the public frame
    /// format: 12-byte header, then `[len u32][crc u32][payload]`).
    fn frame_starts(bytes: &[u8]) -> Vec<usize> {
        let mut starts = Vec::new();
        let mut pos = 12;
        while pos + 8 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            starts.push(pos);
            pos += 8 + len;
        }
        starts
    }

    #[test]
    fn create_crash_before_the_base_snapshot_is_retryable() {
        // The creation order is log first, snapshot last: a crash in
        // between leaves a log-only directory, which `open` reports as
        // not-a-store and a retried `create` simply rebuilds.
        let dir = tmpdir("create-crash");
        std::fs::create_dir_all(&dir).unwrap();
        drop(crate::wal::Wal::create(&RealVfs, &dir.join("wal.log"), 1, false).unwrap());
        assert!(matches!(
            DurableEngine::open(&dir, &Options::default(), fast()),
            Err(StoreError::NoSnapshot { .. })
        ));
        let (spec, r) = seed_spec();
        let mut durable = DurableEngine::create(&dir, spec, &Options::default(), fast()).unwrap();
        durable.apply(&insert(r, 0, 7)).unwrap();
        drop(durable);
        assert!(DurableEngine::open(&dir, &Options::default(), fast()).is_ok());
    }

    #[test]
    fn orphaned_tmp_snapshots_are_swept_on_open() {
        let dir = tmpdir("tmp-sweep");
        let (spec, r) = seed_spec();
        let mut durable = DurableEngine::create(&dir, spec, &Options::default(), fast()).unwrap();
        durable.apply(&insert(r, 0, 7)).unwrap();
        drop(durable);
        // The residue of a crash between temp write and rename.
        let orphan = dir.join("snapshot-00000000000000000099.cur.tmp");
        std::fs::write(&orphan, b"half-written snapshot").unwrap();
        let recovered = DurableEngine::open(&dir, &Options::default(), fast()).unwrap();
        assert!(!orphan.exists(), "orphaned temp file swept");
        assert!(recovered.cps().unwrap());
    }

    #[test]
    fn poisoned_store_refuses_mutations_but_reopens_cleanly() {
        let dir = tmpdir("poison");
        let (spec, r) = seed_spec();
        let mut durable = DurableEngine::create(&dir, spec, &Options::default(), fast()).unwrap();
        durable.apply(&insert(r, 0, 41)).unwrap();
        durable.poisoned = Some("simulated partial write".to_string());
        assert!(matches!(
            durable.apply(&insert(r, 0, 42)),
            Err(StoreError::Poisoned { .. })
        ));
        assert!(matches!(
            durable.compact_step(&CompactBudget::UNBOUNDED),
            Err(StoreError::Poisoned { .. })
        ));
        assert!(matches!(
            durable.snapshot_now(),
            Err(StoreError::Poisoned { .. })
        ));
        assert_eq!(durable.seq(), 1, "poisoned mutations never advance seq");
        // Queries still answer (the in-memory engine is coherent).
        assert!(durable.cps().unwrap());
        drop(durable);
        // Reopening recovers the durable prefix and clears the poison.
        let mut recovered = DurableEngine::open(&dir, &Options::default(), fast()).unwrap();
        assert_eq!(recovered.recovery().deltas_replayed, 1);
        recovered.apply(&insert(r, 0, 42)).unwrap();
        assert!(recovered.cps().unwrap());
    }

    #[test]
    fn group_commit_loses_at_most_the_unflushed_suffix() {
        let dir = tmpdir("group-commit");
        let (spec, r) = seed_spec();
        let opts = Options::default();
        let store_opts = StoreOptions {
            group_commit: 4,
            sync_data: false,
            ..StoreOptions::default()
        };
        let mut durable = DurableEngine::create(&dir, spec, &opts, store_opts).unwrap();
        for step in 0..5 {
            durable
                .apply(&insert(r, step % 3, 300 + step as i64))
                .unwrap();
        }
        // 4 records flushed as one batch, the 5th is buffered.  Simulate
        // a crash: leak the engine so Drop's flush never runs.
        assert_eq!(durable.wal.pending_records(), 1);
        std::mem::forget(durable);
        let recovered = DurableEngine::open(&dir, &opts, store_opts).unwrap();
        assert_eq!(
            recovered.recovery().deltas_replayed,
            4,
            "exactly the flushed prefix survives"
        );
        assert_eq!(recovered.seq(), 4);
        assert!(recovered.cps().unwrap());
    }

    #[test]
    fn injected_fsync_failure_is_fail_stop_and_reopen_recovers() {
        // Dry run against a fault-free chaos layer to learn the exact
        // operation sequence, then aim an fsync fault at the first log
        // sync a real apply would issue.
        let opts = Options::default();
        let durable_opts = StoreOptions::default(); // sync_data ON
        let dry_dir = tmpdir("chaos-fsync-dry");
        let probe = Arc::new(ChaosVfs::new(ChaosPlan::new()));
        let (spec, r) = seed_spec();
        let mut dry = DurableEngine::create_with_vfs(
            probe.clone(),
            &dry_dir,
            spec.clone(),
            &opts,
            durable_opts,
        )
        .unwrap();
        let created_at = probe.ops();
        dry.apply(&insert(r, 0, 50)).unwrap();
        drop(dry);
        let target = probe
            .trace()
            .iter()
            .find(|(op, kind)| *op >= created_at && *kind == "sync_data")
            .expect("a sync_data op inside apply")
            .0;

        // The measured run: same workload, fault injected.
        let dir = tmpdir("chaos-fsync");
        let chaos = Arc::new(ChaosVfs::new(
            ChaosPlan::new().fail_at(target, Fault::FsyncErr),
        ));
        let mut durable =
            DurableEngine::create_with_vfs(chaos.clone(), &dir, spec, &opts, durable_opts).unwrap();
        assert!(
            matches!(durable.apply(&insert(r, 0, 50)), Err(StoreError::Io { .. })),
            "the failed fsync surfaces as a typed I/O error"
        );
        assert_eq!(chaos.injected(), 1);
        // Fail-stop: the log's durability is now unknown, so every
        // further mutation is refused until a reopen re-derives truth
        // from disk.
        assert!(matches!(
            durable.apply(&insert(r, 1, 60)),
            Err(StoreError::Poisoned { .. })
        ));
        assert!(matches!(
            durable.compact_step(&CompactBudget::UNBOUNDED),
            Err(StoreError::Poisoned { .. })
        ));
        assert!(durable.cps().unwrap(), "reads still answer");
        drop(durable);
        // Reopen (no faults): recovery lands on a prefix-consistent
        // state.  An fsync that *errored* may still have persisted the
        // bytes, so either the delta survived whole or it is gone whole —
        // never half.
        let recovered = DurableEngine::open(&dir, &opts, durable_opts).unwrap();
        let replayed = recovered.recovery().deltas_replayed;
        assert!(replayed <= 1, "at most the acknowledged suffix is lost");
        assert_eq!(recovered.seq(), replayed as u64);
        assert!(recovered.cps().unwrap());
        let mut recovered = recovered;
        recovered.apply(&insert(r, 2, 70)).unwrap();
        assert!(recovered.cps().unwrap(), "store is fully usable again");
    }

    #[test]
    fn torn_rename_during_rotation_falls_back_by_checksum() {
        // Aim a torn rename at the snapshot publish inside an explicit
        // rotation: the half-written snapshot sits under a live name and
        // must be refused by checksum on reopen, with the log bridging
        // the gap.
        let opts = Options::default();
        let durable_opts = StoreOptions {
            sync_data: false,
            ..StoreOptions::default()
        };
        let dry_dir = tmpdir("chaos-torn-dry");
        let probe = Arc::new(ChaosVfs::new(ChaosPlan::new()));
        let (spec, r) = seed_spec();
        let mut dry = DurableEngine::create_with_vfs(
            probe.clone(),
            &dry_dir,
            spec.clone(),
            &opts,
            durable_opts,
        )
        .unwrap();
        dry.apply(&insert(r, 0, 50)).unwrap();
        let before_rotation = probe.ops();
        dry.snapshot_now().unwrap();
        drop(dry);
        let target = probe
            .trace()
            .iter()
            .find(|(op, kind)| *op >= before_rotation && *kind == "rename")
            .expect("the snapshot publish rename")
            .0;

        let dir = tmpdir("chaos-torn");
        let chaos = Arc::new(ChaosVfs::new(
            ChaosPlan::new().fail_at(target, Fault::TornRename),
        ));
        let mut durable =
            DurableEngine::create_with_vfs(chaos.clone(), &dir, spec, &opts, durable_opts).unwrap();
        durable.apply(&insert(r, 0, 50)).unwrap();
        let live_bytes = encode_spec(durable.spec());
        assert!(
            matches!(durable.snapshot_now(), Err(StoreError::Io { .. })),
            "the torn publish surfaces as a typed I/O error"
        );
        assert!(matches!(
            durable.apply(&insert(r, 1, 60)),
            Err(StoreError::Poisoned { .. })
        ));
        drop(durable);
        // Reopen: the torn snapshot-1 fails its checksum, recovery falls
        // back to the base snapshot, and the (untruncated) log replays
        // the delta — byte-for-byte the acknowledged state.
        let recovered = DurableEngine::open(&dir, &opts, durable_opts).unwrap();
        assert_eq!(recovered.recovery().snapshots_skipped, 1);
        assert_eq!(recovered.recovery().snapshot_seq, 0);
        assert_eq!(recovered.recovery().deltas_replayed, 1);
        assert_eq!(encode_spec(recovered.spec()), live_bytes);
    }

    fn budget_opts(max_slots: usize) -> Options {
        Options {
            auto_compact_tombstones: 2,
            auto_compact_budget: Some(CompactBudget {
                max_slots_per_step: max_slots,
            }),
            ..Options::default()
        }
    }

    #[test]
    fn budgeted_auto_steps_are_logged_and_replayed() {
        let dir = tmpdir("budget-auto");
        let (spec, r) = seed_spec();
        let opts = budget_opts(2);
        let mut durable = DurableEngine::create(&dir, spec, &opts, fast()).unwrap();
        let mut steps_seen = 0;
        for step in 0..4 {
            let report = durable.apply(&insert(r, 0, 500 + step)).unwrap();
            let (rel, id) = report.inserted[0];
            let mut retract = SpecDelta::new();
            retract.remove_tuple(rel, id);
            let report = durable.apply(&retract).unwrap();
            if report.compact_step.is_some() {
                steps_seen += 1;
            }
        }
        assert!(steps_seen >= 1, "threshold crossed during the churn");
        let live_bytes = encode_spec(durable.spec());
        drop(durable);
        // Same options: replay re-executes every logged step's slices
        // and verifies them.
        let recovered = DurableEngine::open(&dir, &opts, fast()).unwrap();
        assert_eq!(encode_spec(recovered.spec()), live_bytes);
        assert_eq!(recovered.recovery().compact_steps_replayed, steps_seen);
        assert_eq!(recovered.stats().compact_steps, steps_seen);
        assert!(recovered.cps().unwrap());
        drop(recovered);
        // The log, not the budget, decides what each step moved: the
        // same threshold under the default slot budget recovers the same
        // state.
        let default_budget = Options {
            auto_compact_tombstones: 2,
            ..Options::default()
        };
        let recovered = DurableEngine::open(&dir, &default_budget, fast()).unwrap();
        assert_eq!(encode_spec(recovered.spec()), live_bytes);
        drop(recovered);
        // With the policy off, the logged auto steps were never
        // triggered by any replayed delta: refuse.
        assert!(
            matches!(
                DurableEngine::open(&dir, &Options::default(), fast()),
                Err(StoreError::ReplayDiverged { .. })
            ),
            "auto steps in the log + policy off on reopen must diverge"
        );
    }

    #[test]
    fn explicit_compact_steps_drain_durably_across_reopens() {
        let dir = tmpdir("explicit-steps");
        let (spec, r) = seed_spec();
        let opts = Options::default();
        let mut durable = DurableEngine::create(&dir, spec, &opts, fast()).unwrap();
        // Churn up a scattered set of tombstones.
        for step in 0..6 {
            let report = durable
                .apply(&insert(r, step % 3, 700 + step as i64))
                .unwrap();
            if step % 2 == 0 {
                let (rel, id) = report.inserted[0];
                let mut retract = SpecDelta::new();
                retract.remove_tuple(rel, id);
                durable.apply(&retract).unwrap();
            }
        }
        let tombstones = durable.spec().total_tombstones();
        assert!(tombstones > 0);
        // Drain in 1-slot steps, reopening the store between two of them:
        // a crash mid-compaction must recover to the intermediate state.
        let budget = CompactBudget {
            max_slots_per_step: 1,
        };
        let mut reclaimed = 0;
        let mut steps_logged = 0;
        loop {
            let step = durable.compact_step(&budget).unwrap();
            reclaimed += step.reclaimed;
            if !step.slices.is_empty() {
                steps_logged += 1;
                // Reopen once mid-drain, from the first productive step.
                if steps_logged == 1 {
                    let mid_bytes = encode_spec(durable.spec());
                    drop(durable);
                    durable = DurableEngine::open(&dir, &opts, fast()).unwrap();
                    assert_eq!(
                        encode_spec(durable.spec()),
                        mid_bytes,
                        "recovery lands on the mid-compaction state"
                    );
                }
            }
            if step.done {
                break;
            }
        }
        assert_eq!(reclaimed, tombstones, "every tombstone slot reclaimed");
        assert_eq!(durable.spec().total_tombstones(), 0);
        let drained_bytes = encode_spec(durable.spec());
        drop(durable);
        let recovered = DurableEngine::open(&dir, &opts, fast()).unwrap();
        assert_eq!(encode_spec(recovered.spec()), drained_bytes);
        assert!(recovered.recovery().compact_steps_replayed > 0);
        assert!(recovered.cps().unwrap());
    }

    #[test]
    fn crash_between_delta_and_auto_step_record_backfills() {
        // A crash after the delta flush but before its step record
        // leaves the step missing at end-of-log.  Recovery must run the
        // deterministic slot-bounded step and backfill its record —
        // otherwise the next appended record sits where the step belongs
        // and every later open fails ReplayDiverged forever.
        let dir = tmpdir("step-gap");
        let (spec, r) = seed_spec();
        let opts = budget_opts(2);
        let mut durable = DurableEngine::create(&dir, spec, &opts, fast()).unwrap();
        let mut step_seen = false;
        for step in 0..2 {
            let report = durable.apply(&insert(r, 0, 800 + step)).unwrap();
            let (rel, id) = report.inserted[0];
            let mut retract = SpecDelta::new();
            retract.remove_tuple(rel, id);
            step_seen |= durable.apply(&retract).unwrap().compact_step.is_some();
        }
        assert!(step_seen, "threshold crossed during the churn");
        let seq_before = durable.seq();
        let live_bytes = encode_spec(durable.spec());
        drop(durable);
        // Chop the final frame (the step record) off the log.
        let wal = dir.join("wal.log");
        let bytes = std::fs::read(&wal).unwrap();
        let last = *frame_starts(&bytes).last().unwrap();
        std::fs::write(&wal, &bytes[..last]).unwrap();
        // First reopen: replay re-runs the deterministic step and
        // backfills its record at the same sequence number.
        let mut recovered = DurableEngine::open(&dir, &opts, fast()).unwrap();
        assert_eq!(recovered.recovery().compact_steps_replayed, 1);
        assert_eq!(recovered.seq(), seq_before, "step record seq restored");
        assert_eq!(encode_spec(recovered.spec()), live_bytes);
        recovered.apply(&insert(r, 1, 900)).unwrap();
        let live = encode_spec(recovered.spec());
        drop(recovered);
        // Second reopen must find the backfilled record and recover.
        let again = DurableEngine::open(&dir, &opts, fast())
            .expect("store must stay openable after the backfill");
        assert_eq!(encode_spec(again.spec()), live);
        assert!(again.cps().unwrap());
    }
}
