//! The append-only write-ahead log.
//!
//! ## File layout
//!
//! ```text
//! header:  magic "CURWAL01" (8 bytes) ‖ wire version (u32 LE)
//! frame*:  payload length (u32 LE) ‖ CRC-32 of payload (u32 LE) ‖ payload
//! ```
//!
//! Each frame's payload is one [`Record`]: a tag byte, the record's
//! monotonically increasing sequence number, and the wire-encoded body
//! ([`currency_core::wire`]).  Frames are written strictly append-only;
//! nothing in the file is ever updated in place, so the only states a
//! crash can leave behind are a clean prefix and (at most) one torn
//! frame at the tail.
//!
//! ## Torn-tail detection vs corruption
//!
//! [`Wal::open`] walks the frames front to back and classifies the first
//! bad one:
//!
//! * **torn tail** — the frame is *incomplete*: the header is cut short
//!   or the declared length runs past end-of-file.  This is the expected
//!   residue of a crash mid-append; the tail is truncated away and the
//!   log opens with the clean prefix.
//! * **corruption** — the frame is complete but its CRC (or its decoded
//!   payload) is wrong.  Bytes were altered after being fully written —
//!   that is not a crash artifact, and open refuses the file with
//!   [`StoreError::Corrupt`] rather than guess at the damage.
//! * **unknown record kind** — the frame is intact but its tag names no
//!   record this build speaks (tag 1, the retired stop-the-world
//!   compaction record, or a newer writer's).  Open refuses it with
//!   [`StoreError::Wire`] carrying the tag, never misreading the body.
//!
//! ## Group commit
//!
//! Appends are buffered in memory and flushed (written + optionally
//! `fsync`ed) every `group_commit` records, amortizing the syscall and
//! sync cost across a batch — the classic group-commit trade: records in
//! an unflushed buffer are acknowledged to the in-process engine but not
//! yet durable, so a crash can lose at most the last `group_commit - 1`
//! acknowledged records, always a *suffix* (prefix consistency is never
//! at risk).  `group_commit = 1` (the default) makes every append
//! durable before [`Wal::append`] returns.

use crate::crc::crc32;
use crate::error::{io_err, StoreError};
use crate::vfs::{RealVfs, Vfs, VfsFile};
use currency_core::wire::{self, WireError, WireReader, WireWriter, WIRE_VERSION};
use currency_core::{CompactStepReport, SpecDelta};
use currency_obs::{Counter, Histogram, MetricsRegistry};
use std::io::SeekFrom;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"CURWAL01";

/// Header length: magic + wire version.
pub const WAL_HEADER_LEN: u64 = 12;

/// Per-frame overhead: payload length + CRC.
const FRAME_HEADER_LEN: usize = 8;

/// Sanity cap on a single frame's payload (a specification delta is tiny;
/// anything past this is a garbage length field, classified by position
/// like any other bad length).
const MAX_FRAME_LEN: u32 = 1 << 30;

const TAG_RECORD_DELTA: u8 = 0;
// Tag 1 is reserved and never reused: it carried the retired
// stop-the-world compaction record (a full remap table), which no build
// writes any more.  A log holding one is refused as an unknown record.
const TAG_RECORD_COMPACT_STEP: u8 = 2;

/// One logged operation.
#[derive(Clone, Debug)]
pub enum Record {
    /// A specification delta, logged **before** it is applied
    /// (write-ahead).
    Delta {
        /// Monotonic sequence number.
        seq: u64,
        /// The delta.
        delta: SpecDelta,
    },
    /// One **compaction step**'s slices, logged after the step ran:
    /// every delta after this record speaks the post-step id space.
    /// Replay re-executes the logged slice bounds verbatim (and verifies
    /// the outcome), so a recovered engine passes through the exact
    /// intermediate states of the original run — a crash between steps
    /// recovers to the mid-compaction state, not to either end.
    CompactStep {
        /// Monotonic sequence number.
        seq: u64,
        /// `true` if the [`currency_reason::Options::auto_compact_tombstones`]
        /// policy ran it from inside the preceding delta's apply.
        auto: bool,
        /// The step's slices and totals.
        step: CompactStepReport,
    },
}

impl Record {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            Record::Delta { seq, .. } | Record::CompactStep { seq, .. } => *seq,
        }
    }

    fn encode(&self) -> Vec<u8> {
        match self {
            Record::Delta { seq, delta } => encode_delta_payload(*seq, delta),
            Record::CompactStep { seq, auto, step } => {
                encode_compact_step_payload(*seq, *auto, step)
            }
        }
    }

    fn decode(payload: &[u8]) -> Result<Record, StoreError> {
        let mut r = WireReader::new(payload);
        let record = match r.get_u8("record tag")? {
            TAG_RECORD_DELTA => Record::Delta {
                seq: r.get_u64("record seq")?,
                delta: wire::get_delta(&mut r)?,
            },
            TAG_RECORD_COMPACT_STEP => Record::CompactStep {
                seq: r.get_u64("record seq")?,
                auto: r.get_bool("compact step auto flag")?,
                step: wire::get_compact_step(&mut r)?,
            },
            tag => {
                return Err(StoreError::Wire(WireError::BadTag {
                    what: "log record",
                    tag,
                }))
            }
        };
        r.expect_empty().map_err(StoreError::Wire)?;
        Ok(record)
    }
}

/// A delta record's payload, encoded from a borrow (the hot append path
/// never clones the delta into an owned [`Record`]).
fn encode_delta_payload(seq: u64, delta: &SpecDelta) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(TAG_RECORD_DELTA);
    w.put_u64(seq);
    wire::put_delta(&mut w, delta);
    w.into_bytes()
}

/// A compaction step record's payload, encoded from a borrow.
fn encode_compact_step_payload(seq: u64, auto: bool, step: &CompactStepReport) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(TAG_RECORD_COMPACT_STEP);
    w.put_u64(seq);
    w.put_bool(auto);
    wire::put_compact_step(&mut w, step);
    w.into_bytes()
}

/// What [`Wal::open`] found.
pub struct WalOpen {
    /// The log, positioned to append after the last valid frame.
    pub wal: Wal,
    /// Every valid record, in log order.
    pub records: Vec<Record>,
    /// Bytes of torn tail truncated away (0 on a clean log).
    pub torn_tail_bytes: u64,
}

/// The append-only log file (see module docs).
pub struct Wal {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Bytes durably framed on disk (header included).
    durable_len: u64,
    /// Frames awaiting the next flush.
    buf: Vec<u8>,
    /// Records inside `buf`.
    pending: usize,
    group_commit: usize,
    sync_data: bool,
    /// Set after a flush (or reset) failed partway: how much of the
    /// buffer reached the file is unknown, so *re*-flushing would risk
    /// appending duplicate frames.  Every later flush refuses until the
    /// log is reopened (reopen re-derives the durable prefix from disk).
    failed: bool,
    /// Optional timing instrumentation (see [`Wal::bind_metrics`]).
    obs: Option<WalObs>,
}

/// Metric handles the log records into when bound to a registry.
struct WalObs {
    append_ns: Arc<Histogram>,
    flush_ns: Arc<Histogram>,
    fsync_ns: Arc<Histogram>,
    appends_total: Arc<Counter>,
    flushes_total: Arc<Counter>,
}

impl Wal {
    /// Create a fresh log at `path` (truncating anything there), writing
    /// and syncing the header.
    pub fn create(path: &Path, group_commit: usize, sync_data: bool) -> Result<Wal, StoreError> {
        Wal::create_with(&RealVfs, path, group_commit, sync_data)
    }

    /// [`Wal::create`] through an explicit [`Vfs`] (fault injection,
    /// alternative filesystems).
    pub fn create_with(
        vfs: &dyn Vfs,
        path: &Path,
        group_commit: usize,
        sync_data: bool,
    ) -> Result<Wal, StoreError> {
        let mut file = vfs.create_truncate(path).map_err(|e| io_err(path, e))?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        file.write_all(&header).map_err(|e| io_err(path, e))?;
        if sync_data {
            file.sync_data().map_err(|e| io_err(path, e))?;
            // The new log's directory entry must survive power loss too.
            if let Some(dir) = path.parent() {
                vfs.sync_dir(dir).map_err(|e| io_err(dir, e))?;
            }
        }
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            durable_len: WAL_HEADER_LEN,
            buf: Vec::new(),
            pending: 0,
            group_commit: group_commit.max(1),
            sync_data,
            failed: false,
            obs: None,
        })
    }

    /// Open an existing log, parsing every frame: a torn tail is
    /// truncated away, any other framing or checksum damage is refused
    /// (see module docs for the classification).
    pub fn open(path: &Path, group_commit: usize, sync_data: bool) -> Result<WalOpen, StoreError> {
        Wal::open_with(&RealVfs, path, group_commit, sync_data)
    }

    /// [`Wal::open`] through an explicit [`Vfs`].
    pub fn open_with(
        vfs: &dyn Vfs,
        path: &Path,
        group_commit: usize,
        sync_data: bool,
    ) -> Result<WalOpen, StoreError> {
        let mut file = vfs.open_read_write(path).map_err(|e| io_err(path, e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(|e| io_err(path, e))?;
        if bytes.len() < WAL_HEADER_LEN as usize || &bytes[..8] != WAL_MAGIC {
            return Err(StoreError::Corrupt {
                path: path.to_path_buf(),
                offset: 0,
                detail: "bad or truncated log header".to_string(),
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != WIRE_VERSION {
            return Err(StoreError::UnsupportedVersion {
                path: path.to_path_buf(),
                found: version,
            });
        }
        let mut records = Vec::new();
        let mut pos = WAL_HEADER_LEN as usize;
        let mut torn_tail_bytes = 0u64;
        let mut last_seq = 0u64;
        while pos < bytes.len() {
            let remaining = bytes.len() - pos;
            if remaining < FRAME_HEADER_LEN {
                // Frame header cut short: a torn append.
                torn_tail_bytes = remaining as u64;
                break;
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
            let body_start = pos + FRAME_HEADER_LEN;
            if len > MAX_FRAME_LEN || (len as usize) > bytes.len() - body_start {
                // Declared length runs past end-of-file: the append never
                // finished.  (A garbage length from a flipped byte lands
                // here too when it points past EOF — the suffix is
                // unreadable either way, and dropping it keeps the clean
                // prefix.)
                torn_tail_bytes = remaining as u64;
                break;
            }
            let payload = &bytes[body_start..body_start + len as usize];
            if crc32(payload) != crc {
                // The frame is complete but its bytes changed after the
                // write: corruption, not a crash artifact.
                return Err(StoreError::Corrupt {
                    path: path.to_path_buf(),
                    offset: pos as u64,
                    detail: "frame checksum mismatch".to_string(),
                });
            }
            let record = Record::decode(payload).map_err(|e| match e {
                // An intact frame of a record kind this build does not
                // speak is not damage: refuse it by its tag.
                StoreError::Wire(
                    w @ WireError::BadTag {
                        what: "log record", ..
                    },
                ) => StoreError::Wire(w),
                StoreError::Wire(w) => StoreError::Corrupt {
                    path: path.to_path_buf(),
                    offset: pos as u64,
                    detail: format!("checksummed frame decodes to garbage: {w}"),
                },
                other => other,
            })?;
            if record.seq() <= last_seq && !(records.is_empty() && record.seq() == 0) {
                return Err(StoreError::Corrupt {
                    path: path.to_path_buf(),
                    offset: pos as u64,
                    detail: format!(
                        "sequence numbers not increasing ({} after {last_seq})",
                        record.seq()
                    ),
                });
            }
            last_seq = record.seq();
            records.push(record);
            pos = body_start + len as usize;
        }
        let durable_len = pos as u64;
        if torn_tail_bytes > 0 {
            file.set_len(durable_len).map_err(|e| io_err(path, e))?;
            if sync_data {
                file.sync_data().map_err(|e| io_err(path, e))?;
            }
        }
        file.seek(SeekFrom::Start(durable_len))
            .map_err(|e| io_err(path, e))?;
        Ok(WalOpen {
            wal: Wal {
                file,
                path: path.to_path_buf(),
                durable_len,
                buf: Vec::new(),
                pending: 0,
                group_commit: group_commit.max(1),
                sync_data,
                failed: false,
                obs: None,
            },
            records,
            torn_tail_bytes,
        })
    }

    /// Append a record, flushing when the group-commit batch fills.
    pub fn append(&mut self, record: &Record) -> Result<(), StoreError> {
        self.append_payload(record.encode())
    }

    /// Append a delta record encoded straight from the borrow (no clone
    /// into an owned [`Record`] on the hot path).
    pub fn append_delta(&mut self, seq: u64, delta: &SpecDelta) -> Result<(), StoreError> {
        self.append_payload(encode_delta_payload(seq, delta))
    }

    /// Append a compaction step record encoded straight from the borrow.
    pub fn append_compact_step(
        &mut self,
        seq: u64,
        auto: bool,
        step: &CompactStepReport,
    ) -> Result<(), StoreError> {
        self.append_payload(encode_compact_step_payload(seq, auto, step))
    }

    fn append_payload(&mut self, payload: Vec<u8>) -> Result<(), StoreError> {
        let start = self.obs.as_ref().map(|_| Instant::now());
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        self.buf.extend_from_slice(&payload);
        self.pending += 1;
        let result = if self.pending >= self.group_commit {
            self.flush()
        } else {
            Ok(())
        };
        if let (Some(start), Some(obs)) = (start, self.obs.as_ref()) {
            obs.append_ns.record(start.elapsed().as_nanos() as u64);
            obs.appends_total.inc();
        }
        result
    }

    /// Write (and, when configured, `fsync`) every buffered frame.  The
    /// durability point: records are crash-safe once this returns.
    ///
    /// A flush that fails partway leaves the log **fail-stop**: how many
    /// buffered bytes reached the file is unknown, so retrying could
    /// append the same frames twice (a reopen would then refuse the log
    /// as corrupt).  Every later flush returns an error until the log is
    /// reopened and the durable prefix re-derived from disk.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.failed {
            return Err(io_err(
                &self.path,
                std::io::Error::other("log is fail-stop after an earlier flush failure"),
            ));
        }
        if self.buf.is_empty() {
            return Ok(());
        }
        let start = self.obs.as_ref().map(|_| Instant::now());
        if let Err(e) = self.flush_inner() {
            self.failed = true;
            return Err(e);
        }
        if let (Some(start), Some(obs)) = (start, self.obs.as_ref()) {
            obs.flush_ns.record(start.elapsed().as_nanos() as u64);
            obs.flushes_total.inc();
        }
        self.durable_len += self.buf.len() as u64;
        self.buf.clear();
        self.pending = 0;
        Ok(())
    }

    fn flush_inner(&mut self) -> Result<(), StoreError> {
        self.file
            .write_all(&self.buf)
            .map_err(|e| io_err(&self.path, e))?;
        if self.sync_data {
            let start = self.obs.as_ref().map(|_| Instant::now());
            self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
            if let (Some(start), Some(obs)) = (start, self.obs.as_ref()) {
                obs.fsync_ns.record(start.elapsed().as_nanos() as u64);
            }
        }
        Ok(())
    }

    /// Total log size if everything buffered were flushed — the rotation
    /// policy's measure.
    pub fn total_len(&self) -> u64 {
        self.durable_len + self.buf.len() as u64
    }

    /// Records appended but not yet flushed.
    pub fn pending_records(&self) -> usize {
        self.pending
    }

    /// Discard every frame, truncating back to the header (called after a
    /// snapshot made the log's prefix redundant).  Flushes pending frames
    /// first so the caller cannot silently drop acknowledged records.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.flush()?;
        if let Err(e) = self.reset_inner() {
            // The file's length or cursor is now unknown; appending to it
            // would interleave new frames with truncation residue.
            self.failed = true;
            return Err(e);
        }
        self.durable_len = WAL_HEADER_LEN;
        Ok(())
    }

    fn reset_inner(&mut self) -> Result<(), StoreError> {
        self.file
            .set_len(WAL_HEADER_LEN)
            .map_err(|e| io_err(&self.path, e))?;
        self.file
            .seek(SeekFrom::Start(WAL_HEADER_LEN))
            .map_err(|e| io_err(&self.path, e))?;
        if self.sync_data {
            self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
        }
        Ok(())
    }

    /// Register this log's timing metrics in `registry` and start
    /// recording into them: `currency_wal_append_ns` (whole append,
    /// group-commit flush included when it triggers),
    /// `currency_wal_flush_ns` (write + optional sync),
    /// `currency_wal_fsync_ns` (the `sync_data` call alone), plus
    /// `currency_wal_appends_total` / `currency_wal_flushes_total`.
    /// Unbound logs (the default) skip every clock read.
    pub fn bind_metrics(&mut self, registry: &Arc<MetricsRegistry>) {
        self.obs = Some(WalObs {
            append_ns: registry.histogram(
                "currency_wal_append_ns",
                "Wall time of one WAL append (group-commit flush included when it triggers)",
                &[],
            ),
            flush_ns: registry.histogram(
                "currency_wal_flush_ns",
                "Wall time of one group-commit flush (write + optional sync)",
                &[],
            ),
            fsync_ns: registry.histogram(
                "currency_wal_fsync_ns",
                "Wall time of the sync_data call inside a flush",
                &[],
            ),
            appends_total: registry.counter(
                "currency_wal_appends_total",
                "Records appended to the WAL",
                &[],
            ),
            flushes_total: registry.counter(
                "currency_wal_flushes_total",
                "Group-commit flushes that reached disk",
                &[],
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use currency_core::{Eid, SpecDelta};
    use currency_core::{RelId, Tuple, TupleId, Value};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("currency-store-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn sample_delta(step: i64) -> SpecDelta {
        let mut d = SpecDelta::new();
        d.insert_tuple(RelId(0), Tuple::new(Eid(1), vec![Value::int(step)]));
        if step % 2 == 0 {
            d.remove_tuple(RelId(0), TupleId(step as u32));
        }
        d
    }

    fn fill(path: &Path, n: u64) -> Vec<Record> {
        let mut wal = Wal::create(path, 1, false).unwrap();
        let mut records = Vec::new();
        for seq in 1..=n {
            let rec = Record::Delta {
                seq,
                delta: sample_delta(seq as i64),
            };
            wal.append(&rec).unwrap();
            records.push(rec);
        }
        wal.flush().unwrap();
        records
    }

    #[test]
    fn round_trips_records_in_order() {
        let path = tmp("round-trip");
        let written = fill(&path, 5);
        let opened = Wal::open(&path, 1, false).unwrap();
        assert_eq!(opened.torn_tail_bytes, 0);
        assert_eq!(opened.records.len(), 5);
        for (a, b) in opened.records.iter().zip(&written) {
            assert_eq!(a.seq(), b.seq());
            match (a, b) {
                (Record::Delta { delta: da, .. }, Record::Delta { delta: db, .. }) => {
                    assert_eq!(wire::encode_delta(da), wire::encode_delta(db));
                }
                _ => panic!("record kind changed"),
            }
        }
    }

    #[test]
    fn retired_compact_record_tag_is_refused_not_misread() {
        let path = tmp("retired-tag");
        fill(&path, 1);
        // Hand-write an intact frame carrying tag 1 — the retired
        // stop-the-world compaction record — with a plausible body.
        let mut w = WireWriter::new();
        w.put_u8(1);
        w.put_u64(2);
        w.put_bool(true);
        w.put_u64(0);
        w.put_len(0);
        let payload = w.into_bytes();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::write(&path, &bytes).unwrap();
        match Wal::open(&path, 1, false) {
            Err(StoreError::Wire(WireError::BadTag {
                what: "log record",
                tag: 1,
            })) => {}
            other => panic!(
                "expected the retired tag to be refused, got {:?}",
                other.map(|o| o.records)
            ),
        }
    }

    #[test]
    fn group_commit_buffers_until_the_batch_fills() {
        let path = tmp("group-commit");
        let mut wal = Wal::create(&path, 3, false).unwrap();
        for seq in 1..=2 {
            wal.append(&Record::Delta {
                seq,
                delta: sample_delta(seq as i64),
            })
            .unwrap();
        }
        assert_eq!(wal.pending_records(), 2, "batch not yet full");
        // A reopen at this point sees nothing: the buffer never hit disk.
        drop(wal);
        let opened = Wal::open(&path, 3, false).unwrap();
        assert!(opened.records.is_empty(), "unflushed suffix lost, cleanly");
        // The third append fills the batch and flushes all three.
        let mut wal = opened.wal;
        for seq in 1..=3 {
            wal.append(&Record::Delta {
                seq,
                delta: sample_delta(seq as i64),
            })
            .unwrap();
        }
        assert_eq!(wal.pending_records(), 0, "batch flushed at group size");
        drop(wal);
        assert_eq!(Wal::open(&path, 3, false).unwrap().records.len(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_and_the_prefix_survives() {
        let path = tmp("torn-tail");
        fill(&path, 4);
        let full = std::fs::read(&path).unwrap();
        // Chop the file mid-final-frame at several depths, including mid
        // frame-header.
        for cut in [1u64, 4, 9, 12] {
            std::fs::write(&path, &full[..full.len() - cut as usize]).unwrap();
            let opened = Wal::open(&path, 1, false).unwrap();
            assert_eq!(opened.records.len(), 3, "prefix recovered (cut {cut})");
            assert!(opened.torn_tail_bytes > 0, "torn bytes reported");
            // The truncation is persistent: reopening is clean.
            let again = Wal::open(&path, 1, false).unwrap();
            assert_eq!(again.torn_tail_bytes, 0);
            assert_eq!(again.records.len(), 3);
        }
    }

    #[test]
    fn appends_after_torn_tail_recovery_continue_the_log() {
        let path = tmp("torn-append");
        fill(&path, 3);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let mut opened = Wal::open(&path, 1, false).unwrap();
        assert_eq!(opened.records.len(), 2);
        opened
            .wal
            .append(&Record::Delta {
                seq: 3,
                delta: sample_delta(3),
            })
            .unwrap();
        opened.wal.flush().unwrap();
        let again = Wal::open(&path, 1, false).unwrap();
        assert_eq!(again.records.len(), 3);
        assert_eq!(again.records[2].seq(), 3);
    }

    #[test]
    fn mid_log_corruption_is_refused() {
        let path = tmp("corrupt");
        fill(&path, 3);
        let full = std::fs::read(&path).unwrap();
        // Flip a byte inside the *first* frame's payload.
        let mut bad = full.clone();
        let o = WAL_HEADER_LEN as usize + FRAME_HEADER_LEN + 2;
        bad[o] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        match Wal::open(&path, 1, false) {
            Err(StoreError::Corrupt { offset, .. }) => {
                assert_eq!(offset, WAL_HEADER_LEN, "first frame blamed");
            }
            other => panic!("expected corruption, got {:?}", other.map(|o| o.records)),
        }
    }

    #[test]
    fn header_damage_is_refused() {
        let path = tmp("header");
        fill(&path, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Wal::open(&path, 1, false),
            Err(StoreError::Corrupt { offset: 0, .. })
        ));
        // Version from the future.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'C';
        bytes[8] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Wal::open(&path, 1, false),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn reset_truncates_to_the_header() {
        let path = tmp("reset");
        fill(&path, 4);
        let mut opened = Wal::open(&path, 1, false).unwrap();
        opened.wal.reset().unwrap();
        assert_eq!(opened.wal.total_len(), WAL_HEADER_LEN);
        opened
            .wal
            .append(&Record::Delta {
                seq: 5,
                delta: sample_delta(5),
            })
            .unwrap();
        opened.wal.flush().unwrap();
        let again = Wal::open(&path, 1, false).unwrap();
        assert_eq!(again.records.len(), 1);
        assert_eq!(again.records[0].seq(), 5);
    }
}
