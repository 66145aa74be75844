//! Checksummed, versioned specification snapshots.
//!
//! ## File layout
//!
//! ```text
//! magic "CURSNAP1" (8 bytes) ‖ wire version (u32 LE) ‖ covered seq (u64 LE)
//! ‖ payload length (u64 LE) ‖ CRC-32 of seq‖length‖payload (u32 LE) ‖ payload
//! ```
//!
//! The payload is a wire-encoded [`Specification`]
//! ([`currency_core::wire::encode_spec`]); the *covered sequence number*
//! says which log prefix the snapshot subsumes — recovery loads the
//! snapshot and replays only records with a higher sequence number.  The
//! checksum covers the sequence number and length alongside the payload,
//! so a flipped bit anywhere meaningful (a wrong seq would silently skip
//! or double-replay log records) is caught.
//!
//! Snapshots are written to a temporary file and atomically renamed into
//! place, so a crash mid-write leaves either the old generation or the
//! new one, never a half-written file under a live name.  File names
//! embed the covered sequence number zero-padded
//! (`snapshot-00000000000000000042.cur`), so lexicographic directory
//! order is recovery order.

use crate::crc::{crc32_finish, crc32_update, CRC_INIT};
use crate::error::{io_err, StoreError};
use crate::vfs::Vfs;
use currency_core::wire::{self, WIRE_VERSION};
use currency_core::Specification;
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CURSNAP1";

/// Fixed-size snapshot header: magic + version + seq + length + CRC.
const SNAPSHOT_HEADER_LEN: usize = 8 + 4 + 8 + 8 + 4;

/// The snapshot checksum: CRC-32 over covered seq ‖ payload length ‖
/// payload (see module docs for why the header fields are included).
fn snapshot_crc(seq: u64, len: u64, payload: &[u8]) -> u32 {
    let state = crc32_update(CRC_INIT, &seq.to_le_bytes());
    let state = crc32_update(state, &len.to_le_bytes());
    crc32_finish(crc32_update(state, payload))
}

/// Snapshot file name for a covered sequence number.
pub fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq:020}.cur"))
}

/// The `(seq, path)` of every snapshot file in `dir`, sorted ascending
/// by covered sequence number (non-snapshot files are ignored).
pub fn list_snapshots(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    for path in vfs.read_dir(dir).map_err(|e| io_err(dir, e))? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(seq) = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(".cur"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((seq, path));
    }
    out.sort();
    Ok(out)
}

/// Write a snapshot covering log records up to and including `seq`,
/// atomically (write to a temporary sibling, `fsync`, rename).
pub fn write_snapshot(
    vfs: &dyn Vfs,
    dir: &Path,
    seq: u64,
    spec: &Specification,
    sync_data: bool,
) -> Result<PathBuf, StoreError> {
    let payload = wire::encode_spec(spec);
    let crc = snapshot_crc(seq, payload.len() as u64, &payload);
    let mut bytes = Vec::with_capacity(SNAPSHOT_HEADER_LEN + payload.len());
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes.extend_from_slice(&payload);
    let path = snapshot_path(dir, seq);
    let tmp = path.with_extension("cur.tmp");
    {
        let mut file = vfs.create_truncate(&tmp).map_err(|e| io_err(&tmp, e))?;
        file.write_all(&bytes).map_err(|e| io_err(&tmp, e))?;
        if sync_data {
            file.sync_data().map_err(|e| io_err(&tmp, e))?;
        }
    }
    vfs.rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
    if sync_data {
        // The renamed entry must itself reach disk: without the directory
        // fsync a power cut could forget the new snapshot while keeping a
        // later log truncation, silently losing acknowledged records.
        vfs.sync_dir(dir).map_err(|e| io_err(dir, e))?;
    }
    Ok(path)
}

/// Read and verify a snapshot, returning the covered sequence number and
/// the decoded specification.
pub fn read_snapshot(vfs: &dyn Vfs, path: &Path) -> Result<(u64, Specification), StoreError> {
    let mut bytes = Vec::new();
    vfs.open_read_write(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err(path, e))?;
    if bytes.len() < SNAPSHOT_HEADER_LEN || &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            offset: 0,
            detail: "bad or truncated snapshot header".to_string(),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != WIRE_VERSION {
        return Err(StoreError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
        });
    }
    let seq = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let len = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[28..32].try_into().unwrap());
    let payload = &bytes[SNAPSHOT_HEADER_LEN..];
    if payload.len() as u64 != len {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            offset: SNAPSHOT_HEADER_LEN as u64,
            detail: format!(
                "payload length mismatch: header says {len}, file holds {}",
                payload.len()
            ),
        });
    }
    if snapshot_crc(seq, len, payload) != crc {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            offset: SNAPSHOT_HEADER_LEN as u64,
            detail: "snapshot checksum mismatch".to_string(),
        });
    }
    let spec = wire::decode_spec(payload)?;
    Ok((seq, spec))
}

/// Delete orphaned `.cur.tmp` files (the residue of a crash between a
/// snapshot's temp write and its atomic rename — never part of the
/// committed state, but a full spec encoding each if left to pile up).
pub fn sweep_tmp_snapshots(vfs: &dyn Vfs, dir: &Path) -> Result<usize, StoreError> {
    let mut swept = 0;
    for path in vfs.read_dir(dir).map_err(|e| io_err(dir, e))? {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("snapshot-") && name.ends_with(".cur.tmp") {
            vfs.remove_file(&path).map_err(|e| io_err(&path, e))?;
            swept += 1;
        }
    }
    Ok(swept)
}

/// Delete every snapshot older than the newest `keep` generations.
pub fn prune_snapshots(vfs: &dyn Vfs, dir: &Path, keep: usize) -> Result<usize, StoreError> {
    let snaps = list_snapshots(vfs, dir)?;
    let keep = keep.max(1);
    if snaps.len() <= keep {
        return Ok(0);
    }
    let doomed = snaps.len() - keep;
    for (_, path) in &snaps[..doomed] {
        vfs.remove_file(path).map_err(|e| io_err(path, e))?;
    }
    Ok(doomed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealVfs;
    use currency_core::{Catalog, Eid, RelationSchema, Tuple, Value};
    use std::fs;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("currency-store-snap-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_spec(tuples: i64) -> Specification {
        let mut cat = Catalog::new();
        let r = cat.add(RelationSchema::new("R", &["A"]));
        let mut spec = Specification::new(cat);
        for v in 0..tuples {
            spec.instance_mut(r)
                .push_tuple(Tuple::new(Eid(1), vec![Value::int(v)]))
                .unwrap();
        }
        spec
    }

    #[test]
    fn round_trip_preserves_seq_and_spec() {
        let dir = tmpdir("round-trip");
        let spec = sample_spec(3);
        let path = write_snapshot(&RealVfs, &dir, 42, &spec, false).unwrap();
        let (seq, decoded) = read_snapshot(&RealVfs, &path).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(wire::encode_spec(&decoded), wire::encode_spec(&spec));
    }

    #[test]
    fn listing_sorts_by_covered_seq_and_ignores_strangers() {
        let dir = tmpdir("list");
        for seq in [7u64, 3, 100] {
            write_snapshot(&RealVfs, &dir, seq, &sample_spec(1), false).unwrap();
        }
        fs::write(dir.join("wal.log"), b"not a snapshot").unwrap();
        fs::write(dir.join("snapshot-junk.cur"), b"unparsable name").unwrap();
        let seqs: Vec<u64> = list_snapshots(&RealVfs, &dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(seqs, vec![3, 7, 100]);
    }

    #[test]
    fn corruption_is_detected_at_every_byte() {
        let dir = tmpdir("corrupt");
        let path = write_snapshot(&RealVfs, &dir, 1, &sample_spec(2), false).unwrap();
        let good = fs::read(&path).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            fs::write(&path, &bad).unwrap();
            assert!(
                read_snapshot(&RealVfs, &path).is_err(),
                "undetected flip at byte {i} (the checksum covers seq, \
                 length and payload alike)"
            );
        }
        // Truncations error too.
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(read_snapshot(&RealVfs, &path).is_err());
        fs::write(&path, &good[..10]).unwrap();
        assert!(read_snapshot(&RealVfs, &path).is_err());
    }

    #[test]
    fn pruning_keeps_the_newest_generations() {
        let dir = tmpdir("prune");
        for seq in 1..=5u64 {
            write_snapshot(&RealVfs, &dir, seq, &sample_spec(1), false).unwrap();
        }
        assert_eq!(prune_snapshots(&RealVfs, &dir, 2).unwrap(), 3);
        let seqs: Vec<u64> = list_snapshots(&RealVfs, &dir)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(seqs, vec![4, 5]);
        assert_eq!(prune_snapshots(&RealVfs, &dir, 2).unwrap(), 0, "idempotent");
        // keep is clamped to at least one generation.
        assert_eq!(prune_snapshots(&RealVfs, &dir, 0).unwrap(), 1);
        assert_eq!(list_snapshots(&RealVfs, &dir).unwrap().len(), 1);
    }
}
