//! Sparse per-period index over JSONL record streams.
//!
//! A WAL of `ObsRecord` lines is append-only and ordered by `seq`, with
//! simulation periods embedded in (most of) the events. Today, finding
//! "period 800 000" means parsing every line from byte 0. This sidecar
//! (`<wal>.jx`) makes that seek O(index):
//!
//! ```text
//! header (24 bytes)          entry (28 bytes, repeated)
//!   magic   "JPMDIDX1"         period  u64   simulation period of the line
//!   version u16                seq     u64   record sequence number
//!   stride  u32                offset  u64   byte offset of the line start
//!   reserved[6]                crc     u32   CRC-32 of the 24 bytes above
//!   crc     u32  (of 0..20)
//! ```
//!
//! The header is in the frame of [`crate::frame::INDEX`].
//!
//! Invariants: entries are strictly increasing in `seq` and `offset` and
//! non-decreasing in `period`; an entry is appended only **after** the
//! line it points at was written. The index is therefore a *hint*, never
//! authority: readers verify the target line (parse it, check `seq`) and
//! fall back to a full scan on any mismatch, so a stale or torn sidecar
//! can cost time but never correctness. Loading tolerates a torn tail —
//! a short or CRC-failing final entry is discarded.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::backend::{RealFs, StorageBackend, StorageFile};
use crate::crc32::crc32;
use crate::frame::INDEX;
use crate::StoreError;

/// Bytes in the index header.
pub const INDEX_HEADER_BYTES: usize = INDEX.header_bytes;
/// Bytes per index entry.
pub const INDEX_ENTRY_BYTES: usize = 28;

/// The sidecar path for a WAL: `<wal>.jx` next to it.
pub fn index_path(wal: &Path) -> PathBuf {
    let mut name = wal.file_name().unwrap_or_default().to_os_string();
    name.push(".jx");
    wal.with_file_name(name)
}

/// One sparse index entry: the line at byte `offset` carries `seq` and
/// mentions `period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Simulation period the line reports.
    pub period: u64,
    /// Sequence number of the record at `offset`.
    pub seq: u64,
    /// Byte offset of the start of the line in the WAL.
    pub offset: u64,
}

impl IndexEntry {
    fn encode(&self) -> [u8; INDEX_ENTRY_BYTES] {
        let mut buf = [0u8; INDEX_ENTRY_BYTES];
        buf[0..8].copy_from_slice(&self.period.to_le_bytes());
        buf[8..16].copy_from_slice(&self.seq.to_le_bytes());
        buf[16..24].copy_from_slice(&self.offset.to_le_bytes());
        let crc = crc32(&buf[..24]);
        buf[24..].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes one entry, or `None` when its CRC fails (a torn tail).
    fn decode(buf: &[u8; INDEX_ENTRY_BYTES]) -> Option<Self> {
        let stored = u32::from_le_bytes(buf[24..].try_into().unwrap());
        if stored != crc32(&buf[..24]) {
            return None;
        }
        Some(IndexEntry {
            period: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
            seq: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            offset: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
        })
    }
}

fn encode_index_header(stride: u32) -> [u8; INDEX_HEADER_BYTES] {
    let mut buf = [0u8; INDEX_HEADER_BYTES];
    buf[10..14].copy_from_slice(&stride.to_le_bytes());
    INDEX.seal(&mut buf);
    buf
}

/// A loaded, validated sparse index (see the module docs).
#[derive(Debug, Clone)]
pub struct PeriodIndex {
    /// Every `stride`-th indexable record got an entry.
    pub stride: u32,
    /// Entries in append order (strictly increasing `seq`/`offset`).
    pub entries: Vec<IndexEntry>,
}

impl PeriodIndex {
    /// Loads `<path>` tolerantly: a torn or non-monotonic tail is
    /// discarded, a corrupt *header* is a typed error.
    ///
    /// # Errors
    ///
    /// Any [`Frame::open`](crate::frame::Frame::open) error for a
    /// foreign, short or corrupt header, [`StoreError::InvalidConfig`] for
    /// a zero stride, plus I/O failures.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let mut file = File::open(path)?;
        let header = INDEX.open(&mut file)?;
        let stride = u32::from_le_bytes(header[10..14].try_into().expect("4-byte slice"));
        if stride == 0 {
            return Err(StoreError::InvalidConfig {
                reason: "index stride must be >= 1",
            });
        }
        let mut body = Vec::new();
        file.read_to_end(&mut body)?;
        let mut entries: Vec<IndexEntry> = Vec::with_capacity(body.len() / INDEX_ENTRY_BYTES);
        for chunk in body.chunks_exact(INDEX_ENTRY_BYTES) {
            let buf: [u8; INDEX_ENTRY_BYTES] = chunk.try_into().unwrap();
            let Some(entry) = IndexEntry::decode(&buf) else {
                break; // torn tail
            };
            if let Some(last) = entries.last() {
                let monotonic = entry.seq > last.seq
                    && entry.offset > last.offset
                    && entry.period >= last.period;
                if !monotonic {
                    break; // treat the rest as garbage, keep the good prefix
                }
            }
            entries.push(entry);
        }
        Ok(PeriodIndex { stride, entries })
    }

    /// The last entry whose period is `<= period` (binary search) — the
    /// latest safe place to start a forward scan for `period`.
    pub fn entry_at_or_before_period(&self, period: u64) -> Option<IndexEntry> {
        let n = self.entries.partition_point(|e| e.period <= period);
        n.checked_sub(1).map(|i| self.entries[i])
    }

    /// The last entry whose seq is `<= seq` — the latest safe place to
    /// start a forward scan for sequence number `seq`.
    pub fn entry_at_or_before_seq(&self, seq: u64) -> Option<IndexEntry> {
        let n = self.entries.partition_point(|e| e.seq <= seq);
        n.checked_sub(1).map(|i| self.entries[i])
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index has no entries yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Appends entries to an index sidecar as its WAL grows.
///
/// The writer enforces the monotonic invariant and refuses out-of-order
/// appends with a typed error, so a sidecar on disk is always a valid
/// prefix (readers still verify, per the module docs).
#[derive(Debug)]
pub struct PeriodIndexWriter {
    file: Box<dyn StorageFile>,
    stride: u32,
    last: Option<IndexEntry>,
    entries: u64,
}

impl PeriodIndexWriter {
    /// Creates (truncating) a sidecar at `path` with the given stride.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] for a zero stride; I/O failures.
    pub fn create(path: impl AsRef<Path>, stride: u32) -> Result<Self, StoreError> {
        PeriodIndexWriter::create_on(&RealFs, path, stride)
    }

    /// [`PeriodIndexWriter::create`] through an explicit storage backend
    /// (the fault-injection seam).
    ///
    /// # Errors
    ///
    /// As [`PeriodIndexWriter::create`].
    pub fn create_on(
        backend: &dyn StorageBackend,
        path: impl AsRef<Path>,
        stride: u32,
    ) -> Result<Self, StoreError> {
        if stride == 0 {
            return Err(StoreError::InvalidConfig {
                reason: "index stride must be >= 1",
            });
        }
        let mut file = backend.create(path.as_ref())?;
        file.write_all(&encode_index_header(stride))?;
        file.flush()?;
        Ok(PeriodIndexWriter {
            file,
            stride,
            last: None,
            entries: 0,
        })
    }

    /// Reopens an existing sidecar for appending, trimming any torn tail
    /// first so new entries extend the valid prefix.
    ///
    /// # Errors
    ///
    /// The same header errors as [`PeriodIndex::load`]; I/O failures.
    pub fn open_append(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        PeriodIndexWriter::open_append_on(&RealFs, path)
    }

    /// [`PeriodIndexWriter::open_append`] through an explicit storage
    /// backend (the fault-injection seam).
    ///
    /// # Errors
    ///
    /// As [`PeriodIndexWriter::open_append`].
    pub fn open_append_on(
        backend: &dyn StorageBackend,
        path: impl AsRef<Path>,
    ) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let index = PeriodIndex::load(path)?;
        let valid_len =
            INDEX_HEADER_BYTES as u64 + (index.entries.len() * INDEX_ENTRY_BYTES) as u64;
        let mut file = backend.open_rw(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(PeriodIndexWriter {
            file,
            stride: index.stride,
            last: index.entries.last().copied(),
            entries: index.entries.len() as u64,
        })
    }

    /// The stride the sidecar was created with.
    pub fn stride(&self) -> u32 {
        self.stride
    }

    /// The most recent entry (from disk or appended here).
    pub fn last(&self) -> Option<IndexEntry> {
        self.last
    }

    /// Entries in the sidecar (loaded valid prefix + appended here).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Appends one entry. Call only after the line it points at has been
    /// written to the WAL.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] when the entry breaks monotonicity;
    /// I/O failures.
    pub fn append(&mut self, entry: IndexEntry) -> Result<(), StoreError> {
        if let Some(last) = self.last {
            let monotonic =
                entry.seq > last.seq && entry.offset > last.offset && entry.period >= last.period;
            if !monotonic {
                return Err(StoreError::InvalidConfig {
                    reason: "index entries must be monotonic in seq/offset/period",
                });
            }
        }
        self.file.write_all(&entry.encode())?;
        self.file.flush()?;
        self.last = Some(entry);
        self.entries += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("jpmd-index-{tag}-{}.jx", std::process::id()))
    }

    fn e(period: u64, seq: u64, offset: u64) -> IndexEntry {
        IndexEntry {
            period,
            seq,
            offset,
        }
    }

    #[test]
    fn roundtrip_and_binary_search() {
        let path = tmp("rtrip");
        let mut w = PeriodIndexWriter::create(&path, 16).unwrap();
        for k in 0..10u64 {
            w.append(e(k * 100, k * 16 + 1, k * 1000 + 24)).unwrap();
        }
        let idx = PeriodIndex::load(&path).unwrap();
        assert_eq!(idx.stride, 16);
        assert_eq!(idx.len(), 10);
        assert_eq!(idx.entry_at_or_before_period(0), Some(e(0, 1, 24)));
        assert_eq!(idx.entry_at_or_before_period(450).unwrap().period, 400);
        assert_eq!(idx.entry_at_or_before_period(10_000).unwrap().period, 900);
        assert!(PeriodIndex {
            stride: 1,
            entries: vec![]
        }
        .entry_at_or_before_period(5)
        .is_none());
        assert_eq!(idx.entry_at_or_before_seq(33).unwrap().seq, 33);
        assert_eq!(idx.entry_at_or_before_seq(34).unwrap().seq, 33);
        assert!(idx.entry_at_or_before_seq(0).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_and_append_resumes_past_it() {
        let path = tmp("torn");
        let mut w = PeriodIndexWriter::create(&path, 8).unwrap();
        w.append(e(10, 1, 24)).unwrap();
        w.append(e(20, 9, 480)).unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Cut the second entry in half.
        std::fs::write(&path, &full[..full.len() - INDEX_ENTRY_BYTES / 2]).unwrap();
        let idx = PeriodIndex::load(&path).unwrap();
        assert_eq!(idx.len(), 1, "torn tail dropped");
        let mut w = PeriodIndexWriter::open_append(&path).unwrap();
        assert_eq!(w.last(), Some(e(10, 1, 24)));
        w.append(e(30, 17, 900)).unwrap();
        let idx = PeriodIndex::load(&path).unwrap();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.entries[1], e(30, 17, 900));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_entries_and_headers_are_contained() {
        let path = tmp("rot");
        let mut w = PeriodIndexWriter::create(&path, 8).unwrap();
        w.append(e(10, 1, 24)).unwrap();
        w.append(e(20, 9, 480)).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first entry: both entries after it drop.
        bytes[INDEX_HEADER_BYTES + 3] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(PeriodIndex::load(&path).unwrap().is_empty());
        // Flip a header byte: typed error.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            PeriodIndex::load(&path),
            Err(StoreError::Checksum { page: 0, .. })
        ));
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(
            PeriodIndex::load(&path),
            Err(StoreError::Truncated { page: 0 })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_monotonic_appends_are_rejected_and_loads_keep_the_prefix() {
        let path = tmp("mono");
        let mut w = PeriodIndexWriter::create(&path, 4).unwrap();
        w.append(e(10, 5, 100)).unwrap();
        assert!(matches!(
            w.append(e(10, 5, 200)),
            Err(StoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            w.append(e(5, 6, 200)),
            Err(StoreError::InvalidConfig { .. })
        ));
        drop(w);
        // Hand-craft a non-monotonic second entry on disk (valid CRC):
        let rogue = e(10, 4, 50).encode();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&rogue);
        std::fs::write(&path, &bytes).unwrap();
        let idx = PeriodIndex::load(&path).unwrap();
        assert_eq!(idx.len(), 1, "non-monotonic tail dropped");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn index_path_appends_jx() {
        assert_eq!(
            index_path(Path::new("/tmp/run/telemetry.jsonl")),
            Path::new("/tmp/run/telemetry.jsonl.jx")
        );
    }

    #[test]
    fn zero_stride_is_rejected() {
        assert!(matches!(
            PeriodIndexWriter::create(tmp("zs"), 0),
            Err(StoreError::InvalidConfig { .. })
        ));
    }
}
