//! Pluggable telemetry sinks: where emitted [`ObsRecord`]s go.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use jpmd_store::{
    index_path, IndexEntry, PeriodIndex, PeriodIndexWriter, SharedBackend, StorageBackend,
    StorageFile, INDEX_ENTRY_BYTES, INDEX_HEADER_BYTES,
};
use serde::{Deserialize, Serialize};

use crate::{ObsEvent, ObsRecord};

/// A destination for telemetry records.
///
/// Implementations must be cheap per emission and thread-safe: the
/// parallel bench runner emits from worker threads through shared
/// [`Telemetry`](crate::Telemetry) handles.
pub trait Sink: Send + Sync {
    /// Consumes one record.
    fn emit(&self, record: &ObsRecord);

    /// Forces buffered records out (a no-op for unbuffered sinks).
    fn flush(&self) {}

    /// Records the sink failed to persist (write errors). Sinks that
    /// cannot lose records return 0 (the default).
    fn dropped_records(&self) -> u64 {
        0
    }

    /// The sink's WAL position, when it maintains one: where the next
    /// record will land and how far the sparse period index reaches.
    /// Checkpoints capture this so `ckpt_tool inspect` can say exactly
    /// which prefix of the WAL (and its index) a snapshot sealed
    /// against. Sinks without a WAL return `None` (the default).
    fn wal_index(&self) -> Option<WalIndexPos> {
        None
    }

    /// Write/flush errors the sink has absorbed so far (0 for sinks
    /// that cannot fail). Unlike [`Sink::dropped_records`], this counts
    /// every failed I/O attempt — a sink that buffered the record and
    /// later persisted it still counts the error here.
    fn write_errors(&self) -> u64 {
        0
    }

    /// Whether the sink is currently degraded: records are being held
    /// in memory (or a torn tail is pending cleanup) because the
    /// backing storage is failing. A healthy or storage-less sink
    /// returns `false` (the default).
    fn storage_degraded(&self) -> bool {
        false
    }
}

/// A sink's position in its WAL and index sidecar at some instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalIndexPos {
    /// Byte offset where the next record line will start.
    pub offset: u64,
    /// Entries in the `<wal>.jx` sparse period index (0 when the sink
    /// is unindexed).
    pub index_entries: u64,
}

/// Discards everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn emit(&self, _record: &ObsRecord) {}
}

/// Durability policy of a [`JsonlSink`]: how often buffered records reach
/// the OS and the platter.
///
/// The default (`flush_every: 0`, `fsync: false`) is the original
/// buffered behavior: records reach the file on [`Sink::flush`] and drop.
/// A write-ahead-log configuration (`flush_every: 1`, `fsync: true`)
/// guarantees every record that was emitted before a checkpoint survives
/// a crash — the checkpoint machinery flushes the telemetry sink before
/// sealing a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalPolicy {
    /// Flush the buffer to the OS after every N records (0 = only on
    /// explicit [`Sink::flush`] / drop).
    pub flush_every: u64,
    /// Also `fsync` the file on every flush, pushing records to stable
    /// storage rather than just the page cache.
    pub fsync: bool,
}

impl WalPolicy {
    /// The write-ahead-log configuration: flush and fsync every record.
    pub fn wal() -> Self {
        WalPolicy {
            flush_every: 1,
            fsync: true,
        }
    }
}

/// The sparse-index side of a [`JsonlSink`]: the sidecar writer plus the
/// count of period-carrying records seen (every `stride`-th one gets an
/// entry).
struct IndexState {
    writer: PeriodIndexWriter,
    indexable_seen: u64,
}

/// Most records a degraded [`JsonlSink`] holds in memory while the
/// backing storage is failing; beyond this the oldest buffered record
/// is dropped (and counted as lost).
pub const WAL_RING_CAP: usize = 1024;

/// Everything the emit path mutates under one lock: the file handle,
/// the byte offset the *next* line will start at (the durable prefix),
/// the degradation ring, and the optional index.
struct SinkState {
    file: Box<dyn StorageFile>,
    /// Bytes known good: every line up to here was fully written.
    offset: u64,
    /// A failed write may have left a partial line after `offset`; the
    /// tail must be truncated before anything else is appended.
    dirty_tail: bool,
    /// Records awaiting the disk's recovery, oldest first.
    ring: VecDeque<ObsRecord>,
    /// Records pushed out of the full ring since the last gap marker —
    /// the count the next marker will document.
    lost: u64,
    /// Sequence number of the first lost record (the gap marker's seq).
    first_lost_seq: Option<u64>,
    /// Every record ever pushed out of the full ring; never reset, so
    /// [`Sink::dropped_records`] stays an honest lifetime total even
    /// after recovery documented the gap in-stream.
    lost_total: u64,
    index: Option<IndexState>,
}

impl SinkState {
    fn degraded(&self) -> bool {
        self.dirty_tail || !self.ring.is_empty()
    }

    /// Buffers a record the disk would not take, evicting (and counting
    /// as lost) the oldest buffered record when the ring is full.
    fn enqueue(&mut self, record: &ObsRecord) {
        if self.ring.len() >= WAL_RING_CAP {
            if let Some(evicted) = self.ring.pop_front() {
                if self.first_lost_seq.is_none() {
                    self.first_lost_seq = Some(evicted.seq);
                }
                self.lost += 1;
                self.lost_total += 1;
            }
        }
        self.ring.push_back(record.clone());
    }
}

/// Appends records as compact JSON lines to a file.
///
/// Writes are **write-through**: each record's line goes to the file in
/// one write, so the tracked offset is always the durable-prefix
/// boundary and a failed write never leaves buffered bytes in limbo.
/// The configured [`WalPolicy`] controls how often the file is
/// additionally fsynced.
///
/// **Degradation instead of data loss**: when a write fails (full disk,
/// I/O error), the record is kept in a bounded in-memory ring
/// ([`WAL_RING_CAP`]) and every later emission first retries recovery —
/// truncating any torn tail back to the durable prefix, then draining
/// the ring. If records were pushed out of the full ring while the disk
/// was down, the drained stream starts with a gap-marker
/// [`Message`](crate::ObsEvent::Message) carrying the first lost seq, so
/// readers can see exactly where (and how much) was lost.
/// [`Sink::write_errors`] counts failed attempts,
/// [`Sink::storage_degraded`] reports live degradation, and
/// [`Sink::dropped_records`] reports what was actually lost.
///
/// An **indexed** sink ([`JsonlSink::create_indexed`]) additionally
/// maintains the `<wal>.jx` sparse period index: every `stride`-th
/// period-carrying record gets a `(period, seq, offset)` entry, appended
/// only after its line was written. Indexing is strictly best-effort —
/// on any write failure (of the WAL or the sidecar) indexing stops for
/// the rest of the run, leaving a valid shorter sidecar; readers verify
/// entries before trusting them (see [`crate::wal`]).
pub struct JsonlSink {
    state: Mutex<SinkState>,
    policy: WalPolicy,
    emitted: AtomicU64,
    write_errors: AtomicU64,
}

impl JsonlSink {
    /// Creates (truncating) `path` as a JSONL telemetry file with the
    /// default (buffered, no-fsync) policy and no index.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation failure.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::create_with(path, WalPolicy::default())
    }

    /// Creates (truncating) `path` with an explicit durability policy.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation failure.
    pub fn create_with(path: impl AsRef<Path>, policy: WalPolicy) -> std::io::Result<Self> {
        Self::create_with_on(SharedBackend::real_fs(), path, policy)
    }

    /// [`JsonlSink::create_with`] through an explicit storage backend
    /// (the fault-injection seam).
    ///
    /// # Errors
    ///
    /// Propagates the file-creation failure (injected or real).
    pub fn create_with_on(
        backend: SharedBackend,
        path: impl AsRef<Path>,
        policy: WalPolicy,
    ) -> std::io::Result<Self> {
        let file = backend.create(path.as_ref())?;
        Ok(Self::from_parts(file, 0, None, policy))
    }

    /// Creates (truncating) `path` plus its `<path>.jx` sparse period
    /// index, entering an entry for every `stride`-th period-carrying
    /// record.
    ///
    /// # Errors
    ///
    /// Propagates WAL/sidecar creation failures; a zero `stride` is
    /// rejected by the sidecar writer.
    pub fn create_indexed(
        path: impl AsRef<Path>,
        policy: WalPolicy,
        stride: u32,
    ) -> std::io::Result<Self> {
        let path = path.as_ref();
        let index =
            PeriodIndexWriter::create(index_path(path), stride).map_err(std::io::Error::other)?;
        let file = SharedBackend::real_fs().create(path)?;
        Ok(Self::from_parts(
            file,
            0,
            Some(IndexState {
                writer: index,
                indexable_seen: 0,
            }),
            policy,
        ))
    }

    fn from_parts(
        file: Box<dyn StorageFile>,
        offset: u64,
        index: Option<IndexState>,
        policy: WalPolicy,
    ) -> Self {
        JsonlSink {
            state: Mutex::new(SinkState {
                file,
                offset,
                dirty_tail: false,
                ring: VecDeque::new(),
                lost: 0,
                first_lost_seq: None,
                lost_total: 0,
                index,
            }),
            policy,
            emitted: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        }
    }

    /// Reopens an existing telemetry file for a resumed run: keeps every
    /// leading line whose record parses and has `seq < from_seq`,
    /// truncates the rest (records emitted after the checkpoint being
    /// resumed from, or a torn trailing line), and appends from there.
    ///
    /// When a `<path>.jx` sidecar exists, the trim-point scan starts
    /// from the last index entry at-or-before `from_seq` instead of
    /// byte 0 (O(index + tail) instead of O(file)), and the sidecar is
    /// trimmed to the entries that survive the truncation. The resumed
    /// sink does not extend the index — use [`JsonlSink::resume_indexed`]
    /// for that.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures opening, scanning, or truncating the file.
    pub fn resume(
        path: impl AsRef<Path>,
        from_seq: u64,
        policy: WalPolicy,
    ) -> std::io::Result<Self> {
        Self::resume_inner(
            SharedBackend::real_fs(),
            path.as_ref(),
            from_seq,
            policy,
            None,
        )
    }

    /// [`JsonlSink::resume`] through an explicit storage backend. The
    /// trim-point *scan* reads the real files directly (recovery must see
    /// what actually survived); every write — the WAL's handle and
    /// truncation, and the `.jx` sidecar's trim or removal — goes through
    /// the backend.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures opening, scanning, or truncating the file.
    pub fn resume_on(
        backend: SharedBackend,
        path: impl AsRef<Path>,
        from_seq: u64,
        policy: WalPolicy,
    ) -> std::io::Result<Self> {
        Self::resume_inner(backend, path.as_ref(), from_seq, policy, None)
    }

    /// [`JsonlSink::resume`], but the trimmed sidecar is reopened and
    /// extended as the resumed run emits (created fresh with `stride`
    /// when missing or unreadable).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures on the WAL itself; sidecar failures fall
    /// back to an unindexed (but still resumed) sink.
    pub fn resume_indexed(
        path: impl AsRef<Path>,
        from_seq: u64,
        policy: WalPolicy,
        stride: u32,
    ) -> std::io::Result<Self> {
        Self::resume_inner(
            SharedBackend::real_fs(),
            path.as_ref(),
            from_seq,
            policy,
            Some(stride),
        )
    }

    fn resume_inner(
        backend: SharedBackend,
        path: &Path,
        from_seq: u64,
        policy: WalPolicy,
        index_stride: Option<u32>,
    ) -> std::io::Result<Self> {
        let mut keep: u64 = 0;
        if path.exists() {
            let mut reader = BufReader::new(File::open(path)?);
            // Satellite of the index refactor: start the trim-point scan
            // from the last verified index entry strictly before
            // `from_seq` — its line is kept, so the scan resumes there.
            if let Some(start) = index_start_for_resume(path, from_seq)? {
                reader.seek(SeekFrom::Start(start))?;
                keep = start;
            }
            let mut line = String::new();
            loop {
                line.clear();
                let n = reader.read_line(&mut line)?;
                if n == 0 {
                    break;
                }
                // A kept line must be complete (newline-terminated),
                // parseable, and from before the checkpoint.
                if !line.ends_with('\n') {
                    break;
                }
                match ObsRecord::from_line(line.trim_end()) {
                    Ok(record) if record.seq < from_seq => keep += n as u64,
                    _ => break,
                }
            }
        }
        let mut file = if backend.exists(path) {
            backend.open_rw(path)?
        } else {
            backend.create(path)?
        };
        file.set_len(keep)?;
        file.seek(SeekFrom::Start(keep))?;
        let index = trim_sidecar(&*backend, path, from_seq, keep, index_stride);
        Ok(Self::from_parts(file, keep, index, policy))
    }

    /// Writes one already-rendered line at the durable-prefix boundary.
    /// On success the offset advances past it; on failure the tail is
    /// marked dirty (the line may be half on disk) and indexing stops
    /// for good — no entry may ever point into unreliable bytes.
    fn write_line_locked(&self, state: &mut SinkState, line: &str) -> std::io::Result<()> {
        debug_assert!(!state.dirty_tail, "never append after a torn tail");
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        match state.file.write_all(&bytes) {
            Ok(()) => {
                state.offset += bytes.len() as u64;
                Ok(())
            }
            Err(err) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                state.dirty_tail = true;
                state.index = None;
                Err(err)
            }
        }
    }

    /// Brings a degraded sink back to healthy if the storage lets it:
    /// truncates any torn tail back to the durable prefix, then drains
    /// the ring (prefixed by a gap-marker line when records were lost).
    /// A no-op for a healthy sink; returns whether the sink is healthy
    /// afterwards.
    fn recover_locked(&self, state: &mut SinkState) -> bool {
        if !state.degraded() {
            return true;
        }
        if state.dirty_tail {
            let cleaned = state
                .file
                .set_len(state.offset)
                .and_then(|()| state.file.seek(SeekFrom::Start(state.offset)).map(|_| ()));
            if let Err(_err) = cleaned {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            state.dirty_tail = false;
        }
        // Lost records are a contiguous run evicted from the ring front,
        // so one marker carrying the first lost seq documents the whole
        // gap. It inherits the shard of the oldest surviving record so
        // per-shard seq streams stay coherent for readers.
        if state.lost > 0 {
            let marker = ObsRecord {
                seq: state.first_lost_seq.unwrap_or(0),
                t_wall_ms: None,
                shard: state.ring.front().and_then(|r| r.shard),
                event: ObsEvent::Message {
                    text: format!(
                        "wal gap: {} record(s) lost to storage errors starting at seq {}",
                        state.lost,
                        state.first_lost_seq.unwrap_or(0)
                    ),
                },
            };
            if self.write_line_locked(state, &marker.to_line()).is_err() {
                return false;
            }
            state.lost = 0;
            state.first_lost_seq = None;
        }
        while let Some(record) = state.ring.front() {
            let line = record.to_line();
            if self.write_line_locked(state, &line).is_err() {
                return false;
            }
            state.ring.pop_front();
        }
        true
    }

    fn fsync_locked(&self, state: &mut SinkState) -> std::io::Result<()> {
        if self.policy.fsync {
            if let Err(err) = state.file.sync_data() {
                // The bytes were written and the offset is exact, so the
                // sink stays healthy — but the error is still counted:
                // durability was weaker than the policy promised.
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                return Err(err);
            }
        }
        Ok(())
    }
}

/// A verified scan-start offset for resuming at `from_seq`: the offset
/// of the last index entry with `seq < from_seq`, only if its line
/// still parses and carries that seq. `None` means scan from byte 0.
fn index_start_for_resume(path: &Path, from_seq: u64) -> std::io::Result<Option<u64>> {
    let ipath = index_path(path);
    let Some(limit) = from_seq.checked_sub(1) else {
        return Ok(None);
    };
    if !ipath.exists() {
        return Ok(None);
    }
    let Ok(index) = PeriodIndex::load(&ipath) else {
        return Ok(None);
    };
    let Some(entry) = index.entry_at_or_before_seq(limit) else {
        return Ok(None);
    };
    let mut reader = BufReader::new(File::open(path)?);
    reader.seek(SeekFrom::Start(entry.offset))?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let verified = matches!(
        ObsRecord::from_line(line.trim_end()),
        Ok(record) if record.seq == entry.seq
    );
    Ok(verified.then_some(entry.offset))
}

/// After a resume truncated the WAL to `keep` bytes, drops every sidecar
/// entry past the trim point (`seq >= from_seq` or `offset >= keep`) so
/// no entry dangles into bytes about to be rewritten. With
/// `reopen_stride` set, returns a live index writer over the trimmed
/// sidecar (created fresh when missing/unreadable); sidecar failures
/// degrade to an unindexed sink, never an error. Like the WAL's, the
/// sidecar's entries are read from the real file, and every write goes
/// through `backend`.
fn trim_sidecar(
    backend: &dyn StorageBackend,
    path: &Path,
    from_seq: u64,
    keep: u64,
    reopen_stride: Option<u32>,
) -> Option<IndexState> {
    let ipath = index_path(path);
    if backend.exists(&ipath) {
        let trimmed = PeriodIndex::load(&ipath).ok().and_then(|index| {
            let valid = index
                .entries
                .iter()
                .take_while(|e| e.seq < from_seq && e.offset < keep)
                .count();
            let len = INDEX_HEADER_BYTES as u64 + (valid * INDEX_ENTRY_BYTES) as u64;
            backend
                .open_rw(&ipath)
                .and_then(|mut f| f.set_len(len))
                .ok()
        });
        if trimmed.is_none() {
            // An unreadable or untrimmable sidecar is worse than none.
            backend.remove_file(&ipath).ok();
        }
    }
    let stride = reopen_stride?;
    let writer = if backend.exists(&ipath) {
        PeriodIndexWriter::open_append_on(backend, &ipath)
            .or_else(|_| PeriodIndexWriter::create_on(backend, &ipath, stride))
    } else {
        PeriodIndexWriter::create_on(backend, &ipath, stride)
    };
    writer.ok().map(|writer| IndexState {
        // Stride-counting restarts after a resume; entries stay sparse
        // and monotonic either way, which is all readers assume.
        indexable_seen: 0,
        writer,
    })
}

impl Sink for JsonlSink {
    fn emit(&self, record: &ObsRecord) {
        let mut state = self.state.lock().expect("jsonl sink lock");
        let state = &mut *state;
        let n = self.emitted.fetch_add(1, Ordering::Relaxed) + 1;
        // A full disk mid-run must not abort the simulation it observes:
        // a record the storage won't take rides the in-memory ring until
        // recovery succeeds (or the ring evicts it, which is counted).
        if !self.recover_locked(state) {
            state.enqueue(record);
            return;
        }
        let line_start = state.offset;
        if self.write_line_locked(state, &record.to_line()).is_err() {
            state.enqueue(record);
            return;
        }
        let mut index_failed = false;
        if let (Some(index), Some(period)) = (state.index.as_mut(), record.event.period()) {
            let due = index
                .indexable_seen
                .is_multiple_of(u64::from(index.writer.stride()));
            index.indexable_seen += 1;
            if due {
                let entry = IndexEntry {
                    period,
                    seq: record.seq,
                    offset: line_start,
                };
                index_failed = index.writer.append(entry).is_err();
            }
        }
        if index_failed {
            // Best-effort: the sidecar keeps its valid prefix and
            // simply stops growing.
            state.index = None;
        }
        if self.policy.flush_every > 0 && n.is_multiple_of(self.policy.flush_every) {
            let _ = self.fsync_locked(state);
        }
    }

    fn flush(&self) {
        let mut state = self.state.lock().expect("jsonl sink lock");
        let state = &mut *state;
        if self.recover_locked(state) {
            let _ = self.fsync_locked(state);
        }
    }

    fn dropped_records(&self) -> u64 {
        let state = self.state.lock().expect("jsonl sink lock");
        state.lost_total + state.ring.len() as u64
    }

    fn wal_index(&self) -> Option<WalIndexPos> {
        let state = self.state.lock().expect("jsonl sink lock");
        Some(WalIndexPos {
            offset: state.offset,
            index_entries: state.index.as_ref().map_or(0, |i| i.writer.entries()),
        })
    }

    fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    fn storage_degraded(&self) -> bool {
        self.state.lock().expect("jsonl sink lock").degraded()
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        Sink::flush(self);
    }
}

/// Keeps records in memory — unbounded, or a ring of the most recent N.
///
/// Cloning shares the buffer, so a caller can hand the sink to a
/// [`Telemetry`](crate::Telemetry) handle and still read what was
/// captured afterwards (the bench runner uses a bounded ring to attach
/// the last-emitted events to a panicking method's error).
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    buf: Arc<Mutex<VecDeque<ObsRecord>>>,
    cap: usize,
}

impl MemorySink {
    /// An unbounded in-memory sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A ring keeping only the `cap` most recent records (`cap == 0`
    /// means unbounded).
    pub fn bounded(cap: usize) -> Self {
        MemorySink {
            buf: Arc::default(),
            cap,
        }
    }

    /// A copy of the captured records, oldest first.
    pub fn records(&self) -> Vec<ObsRecord> {
        self.buf
            .lock()
            .expect("memory sink lock")
            .iter()
            .cloned()
            .collect()
    }

    /// The captured records rendered as JSON lines, oldest first.
    pub fn lines(&self) -> Vec<String> {
        self.buf
            .lock()
            .expect("memory sink lock")
            .iter()
            .map(ObsRecord::to_line)
            .collect()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("memory sink lock").len()
    }

    /// Whether nothing was captured (yet).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn emit(&self, record: &ObsRecord) {
        let mut buf = self.buf.lock().expect("memory sink lock");
        if self.cap > 0 && buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsEvent;

    fn record(seq: u64) -> ObsRecord {
        ObsRecord {
            seq,
            t_wall_ms: None,
            shard: None,
            event: ObsEvent::Message {
                text: format!("m{seq}"),
            },
        }
    }

    fn period_record(seq: u64, period: u64) -> ObsRecord {
        ObsRecord {
            seq,
            t_wall_ms: None,
            shard: None,
            event: ObsEvent::Degradation {
                period,
                time_s: period as f64,
                from: "joint".into(),
                to: "always_on".into(),
                kind: "fallback".into(),
                reason: "r".into(),
                backoff_periods: 1,
            },
        }
    }

    #[test]
    fn memory_sink_shares_buffer_across_clones() {
        let sink = MemorySink::new();
        let clone = sink.clone();
        clone.emit(&record(0));
        clone.emit(&record(1));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.records()[1].seq, 1);
        assert_eq!(sink.wal_index(), None);
    }

    #[test]
    fn bounded_sink_keeps_most_recent() {
        let sink = MemorySink::bounded(2);
        for seq in 0..5 {
            sink.emit(&record(seq));
        }
        let seqs: Vec<u64> = sink.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let path = std::env::temp_dir().join(format!("jpmd_obs_sink_{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).expect("create sink");
            sink.emit(&record(0));
            sink.emit(&record(1));
        } // drop flushes
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(ObsRecord::from_line(lines[1]).unwrap(), record(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn null_sink_discards() {
        NullSink.emit(&record(0));
        NullSink.flush();
        assert_eq!(NullSink.dropped_records(), 0);
        assert_eq!(NullSink.wal_index(), None);
    }

    #[test]
    fn wal_policy_flushes_every_record() {
        let path = std::env::temp_dir().join(format!("jpmd_obs_wal_{}.jsonl", std::process::id()));
        let sink = JsonlSink::create_with(&path, WalPolicy::wal()).expect("create sink");
        sink.emit(&record(0));
        // No flush, no drop: the WAL policy already pushed it out.
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 1);
        assert_eq!(sink.dropped_records(), 0);
        drop(sink);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_trims_records_at_and_after_the_checkpoint_seq() {
        let path =
            std::env::temp_dir().join(format!("jpmd_obs_resume_{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).expect("create sink");
            for seq in 0..5 {
                sink.emit(&record(seq));
            }
        }
        // Simulate a torn trailing write from a crash.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"seq\":9,").unwrap();
        }
        {
            let sink = JsonlSink::resume(&path, 3, WalPolicy::default()).expect("resume");
            sink.emit(&record(3));
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let seqs: Vec<u64> = text
            .lines()
            .map(|l| ObsRecord::from_line(l).unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3], "kept prefix + resumed append");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_of_missing_file_starts_empty() {
        let path = std::env::temp_dir().join(format!(
            "jpmd_obs_resume_missing_{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        {
            let sink = JsonlSink::resume(&path, 0, WalPolicy::default()).expect("resume");
            sink.emit(&record(0));
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn indexed_sink_writes_verifiable_entries() {
        let path =
            std::env::temp_dir().join(format!("jpmd_obs_indexed_{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create_indexed(&path, WalPolicy::default(), 2).unwrap();
            let mut seq = 0;
            for p in 0..6u64 {
                sink.emit(&record(seq)); // not period-carrying: never indexed
                seq += 1;
                sink.emit(&period_record(seq, p));
                seq += 1;
            }
            let pos = sink.wal_index().unwrap();
            assert_eq!(pos.index_entries, 3, "periods 0, 2, 4 at stride 2");
            assert!(pos.offset > 0);
        }
        let index = PeriodIndex::load(index_path(&path)).unwrap();
        assert_eq!(index.stride, 2);
        let wal = std::fs::read_to_string(&path).unwrap();
        for entry in &index.entries {
            let line = wal[entry.offset as usize..].lines().next().unwrap();
            let rec = ObsRecord::from_line(line).unwrap();
            assert_eq!(rec.seq, entry.seq, "entry points at its own line");
            assert_eq!(rec.event.period(), Some(entry.period));
        }
        std::fs::remove_file(index_path(&path)).ok();
        std::fs::remove_file(&path).ok();
    }

    /// Real files, except that every operation on a `.jx` path fails.
    #[derive(Debug)]
    struct SidecarOutage;

    impl SidecarOutage {
        fn check(path: &Path) -> std::io::Result<()> {
            if path.extension().is_some_and(|ext| ext == "jx") {
                Err(std::io::Error::other("injected sidecar outage"))
            } else {
                Ok(())
            }
        }
    }

    impl StorageBackend for SidecarOutage {
        fn create(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
            Self::check(path)?;
            jpmd_store::RealFs.create(path)
        }

        fn open_rw(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
            Self::check(path)?;
            jpmd_store::RealFs.open_rw(path)
        }

        fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn StorageFile>> {
            Self::check(path)?;
            jpmd_store::RealFs.open_append(path)
        }

        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            Self::check(from)?;
            Self::check(to)?;
            std::fs::rename(from, to)
        }

        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            Self::check(path)?;
            std::fs::remove_file(path)
        }

        fn exists(&self, path: &Path) -> bool {
            path.exists()
        }

        fn sync_parent_dir(&self, path: &Path) -> std::io::Result<()> {
            Self::check(path)?;
            jpmd_store::sync_parent_dir(path)
        }
    }

    #[test]
    fn resume_on_a_backend_that_fails_the_sidecar_leaves_the_real_one_untouched() {
        let path = std::env::temp_dir().join(format!(
            "jpmd_obs_sidecar_outage_{}.jsonl",
            std::process::id()
        ));
        {
            let sink = JsonlSink::create_indexed(&path, WalPolicy::default(), 1).unwrap();
            for seq in 0..8u64 {
                sink.emit(&period_record(seq, seq));
            }
        }
        let sidecar = std::fs::read(index_path(&path)).unwrap();
        {
            let backend = SharedBackend::new(Arc::new(SidecarOutage));
            let sink = JsonlSink::resume_on(backend, &path, 4, WalPolicy::default()).unwrap();
            assert_eq!(
                sink.wal_index().unwrap().index_entries,
                0,
                "resumed unindexed"
            );
            sink.emit(&period_record(4, 4));
        }
        assert_eq!(
            std::fs::read(index_path(&path)).unwrap(),
            sidecar,
            "the sidecar's writes must go through the backend"
        );
        let wal = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            wal.lines().count(),
            5,
            "WAL trimmed to seq 4, then appended"
        );
        std::fs::remove_file(index_path(&path)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn indexed_resume_trims_the_sidecar_with_the_wal() {
        let path =
            std::env::temp_dir().join(format!("jpmd_obs_idx_resume_{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create_indexed(&path, WalPolicy::default(), 1).unwrap();
            for seq in 0..8u64 {
                sink.emit(&period_record(seq, seq));
            }
        }
        assert_eq!(PeriodIndex::load(index_path(&path)).unwrap().len(), 8);
        {
            let sink = JsonlSink::resume_indexed(&path, 4, WalPolicy::default(), 1).unwrap();
            assert_eq!(
                sink.wal_index().unwrap().index_entries,
                4,
                "entries for seq 4..8 trimmed away"
            );
            sink.emit(&period_record(4, 4));
        }
        let index = PeriodIndex::load(index_path(&path)).unwrap();
        assert_eq!(index.len(), 5, "4 kept + 1 re-emitted");
        let wal = std::fs::read_to_string(&path).unwrap();
        assert_eq!(wal.lines().count(), 5);
        for entry in &index.entries {
            let line = wal[entry.offset as usize..].lines().next().unwrap();
            assert_eq!(ObsRecord::from_line(line).unwrap().seq, entry.seq);
        }
        std::fs::remove_file(index_path(&path)).ok();
        std::fs::remove_file(&path).ok();
    }
}
