//! The storage fault seam: a [`StorageBackend`] that injects disk-full
//! errors, I/O errors, torn writes, failed fsyncs, and crashed renames
//! into every durable write path built on
//! [`jpmd_store::StorageBackend`].
//!
//! Like the rest of the harness, injection is fully determined by one
//! serializable plan ([`IoFaultPlan`]): a seed, per-class probability
//! knobs, and an operation window. Each *path* draws from its own stream
//! forked from the seed and the path, so adding a file to a run never
//! perturbs the faults another file sees — and the stream persists
//! across re-opens of the same path, so a consumer that retries after a
//! failure faces fresh (still deterministic) draws instead of replaying
//! the exact draw that failed. **Reads and opens are never faulted** —
//! recovery code must be able to see exactly what survived; only the
//! write-class operations (`write`, `set_len`, fsyncs, `rename`) can
//! fail.
//!
//! The seam's noop invariant mirrors the others: a disabled plan's
//! backend delegates everything untouched and the files it produces are
//! byte-identical to ones written straight through
//! [`RealFs`](jpmd_store::RealFs) (asserted in `tests/storage_props.rs`
//! and in every consumer crate's identity tests).

use std::collections::HashMap;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use jpmd_store::{SharedBackend, StorageBackend, StorageFile};
use serde::{Deserialize, Serialize};

use crate::FaultRng;

/// Faults injected at the storage seam ([`FaultyStorage`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StorageFaults {
    /// Per-write probability of an injected disk-full error (the write
    /// fails before any byte reaches the file).
    pub enospc_prob: f64,
    /// Per-write probability of an injected hard I/O error; also drawn
    /// for `set_len` (truncation can fail too).
    pub eio_prob: f64,
    /// Per-write probability of a **torn** write: a prefix of the buffer
    /// reaches the file, then the device errors. This is the fault that
    /// distinguishes offset-tracking recovery from wishful thinking.
    pub short_write_prob: f64,
    /// Per-fsync probability that `sync_all`/`sync_data` (or a parent-
    /// directory sync) reports failure.
    pub fsync_fail_prob: f64,
    /// Per-rename probability that the rename never happens (a crash
    /// before the atomic step: the temp file stays, the destination is
    /// untouched).
    pub rename_fail_prob: f64,
}

impl StorageFaults {
    /// Whether every knob is zero (the backend is a pure pass-through).
    pub fn is_noop(&self) -> bool {
        self.enospc_prob <= 0.0
            && self.eio_prob <= 0.0
            && self.short_write_prob <= 0.0
            && self.fsync_fail_prob <= 0.0
            && self.rename_fail_prob <= 0.0
    }
}

/// A complete, seeded, serializable description of the storage faults a
/// run injects: probability knobs plus a global operation window.
///
/// Every faultable operation (writes, truncations, fsyncs, renames —
/// across *all* files of the backend) increments one shared counter;
/// injection may only fire while that counter is inside
/// `[from_op, until_op)`. A bounded window lets a harness demonstrate
/// *recovery*: the storage heals when the window closes and consumers
/// must climb back to healthy on their own.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct IoFaultPlan {
    /// Master seed; every opened file forks its own stream from it and
    /// the file's path.
    pub seed: u64,
    /// Per-class probability knobs.
    pub faults: StorageFaults,
    /// First faultable operation (0-based, global) at which injection
    /// may fire.
    pub from_op: u64,
    /// Operation at which injection stops (exclusive; `u64::MAX` keeps
    /// the storage failing forever).
    pub until_op: u64,
}

impl IoFaultPlan {
    /// A plan that injects nothing — the backend is a pure pass-through
    /// and its files are byte-identical to direct-filesystem writes.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A storage-chaos mix: every fault class enabled at rates high
    /// enough to exercise the recovery paths many times per run, with an
    /// open-ended window.
    pub fn storm(seed: u64) -> Self {
        IoFaultPlan {
            seed,
            faults: StorageFaults {
                enospc_prob: 0.05,
                eio_prob: 0.02,
                short_write_prob: 0.02,
                fsync_fail_prob: 0.03,
                rename_fail_prob: 0.10,
            },
            from_op: 0,
            until_op: u64::MAX,
        }
    }

    /// A total outage inside the window: **every** write, truncation,
    /// fsync, and rename fails while the global operation counter is in
    /// `[from_op, until_op)`, then the storage heals. The serve smoke
    /// uses this to prove the daemon degrades and recovers.
    pub fn outage(seed: u64, from_op: u64, until_op: u64) -> Self {
        IoFaultPlan {
            seed,
            faults: StorageFaults {
                enospc_prob: 1.0,
                eio_prob: 0.0,
                short_write_prob: 0.0,
                fsync_fail_prob: 1.0,
                rename_fail_prob: 1.0,
            },
            from_op,
            until_op,
        }
    }

    /// Whether no fault can ever fire (zero knobs or an empty window).
    pub fn is_noop(&self) -> bool {
        self.faults.is_noop() || self.from_op >= self.until_op
    }
}

/// Counts of injected storage faults, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoFaultCounts {
    /// Writes failed with the injected disk-full error.
    pub enospc: u64,
    /// Writes/truncations failed with the injected hard I/O error.
    pub eio: u64,
    /// Torn writes (a prefix reached the file, then the device errored).
    pub short_writes: u64,
    /// Failed `sync_all`/`sync_data`/parent-directory syncs.
    pub fsync_failures: u64,
    /// Renames that never happened.
    pub rename_failures: u64,
}

impl IoFaultCounts {
    /// Faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.enospc + self.eio + self.short_writes + self.fsync_failures + self.rename_failures
    }
}

/// Lock-free cells behind [`IoFaultCounts`], shared by every file the
/// backend opens.
#[derive(Debug, Default)]
struct IoFaultCells {
    enospc: AtomicU64,
    eio: AtomicU64,
    short_writes: AtomicU64,
    fsync_failures: AtomicU64,
    rename_failures: AtomicU64,
}

impl IoFaultCells {
    fn snapshot(&self) -> IoFaultCounts {
        IoFaultCounts {
            enospc: self.enospc.load(Ordering::Relaxed),
            eio: self.eio.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
            fsync_failures: self.fsync_failures.load(Ordering::Relaxed),
            rename_failures: self.rename_failures.load(Ordering::Relaxed),
        }
    }
}

/// A live view into a [`FaultyStorage`]'s counters, valid even after the
/// backend itself was consumed by [`SharedBackend::from`]. Grab one with
/// [`FaultyStorage::monitor`] before wrapping.
#[derive(Debug, Clone)]
pub struct IoFaultMonitor {
    ops: Arc<AtomicU64>,
    counts: Arc<IoFaultCells>,
}

impl IoFaultMonitor {
    /// Faults injected so far, by class.
    pub fn injected(&self) -> IoFaultCounts {
        self.counts.snapshot()
    }

    /// Faultable operations seen so far (the window counter).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }
}

/// A [`StorageBackend`] that injects the faults an [`IoFaultPlan`]
/// describes into another backend's write paths (see the module docs for
/// the exact fault model).
#[derive(Debug)]
pub struct FaultyStorage {
    inner: SharedBackend,
    plan: IoFaultPlan,
    ops: Arc<AtomicU64>,
    counts: Arc<IoFaultCells>,
    /// Stream for backend-level operations (renames, parent-dir syncs),
    /// forked separately from every file stream.
    backend_rng: Mutex<FaultRng>,
    /// One persistent fault stream per path (keyed by [`path_stream`]),
    /// shared by every handle ever opened on that path so re-opens
    /// continue the stream instead of restarting it.
    streams: Mutex<HashMap<u64, Arc<Mutex<FaultRng>>>>,
}

impl FaultyStorage {
    /// A faulty backend over the real filesystem.
    pub fn new(plan: IoFaultPlan) -> Self {
        Self::over(SharedBackend::real_fs(), plan)
    }

    /// A faulty backend over an arbitrary inner backend.
    pub fn over(inner: SharedBackend, plan: IoFaultPlan) -> Self {
        FaultyStorage {
            inner,
            plan,
            ops: Arc::new(AtomicU64::new(0)),
            counts: Arc::new(IoFaultCells::default()),
            backend_rng: Mutex::new(FaultRng::fork(plan.seed, u64::MAX)),
            streams: Mutex::new(HashMap::new()),
        }
    }

    /// A counter view that outlives this value (see [`IoFaultMonitor`]).
    pub fn monitor(&self) -> IoFaultMonitor {
        IoFaultMonitor {
            ops: Arc::clone(&self.ops),
            counts: Arc::clone(&self.counts),
        }
    }

    /// Claims the next global operation slot and reports whether the
    /// plan's window covers it.
    fn op_in_window(&self) -> bool {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        op >= self.plan.from_op && op < self.plan.until_op
    }

    fn wrap(&self, path: &Path, inner: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
        if self.plan.is_noop() {
            // Zero per-write overhead when nothing can fire.
            return inner;
        }
        let stream = path_stream(path);
        let rng = Arc::clone(
            self.streams
                .lock()
                .expect("faulty storage stream map lock")
                .entry(stream)
                .or_insert_with(|| Arc::new(Mutex::new(FaultRng::fork(self.plan.seed, stream)))),
        );
        Box::new(FaultyFile {
            inner,
            rng,
            plan: self.plan,
            ops: Arc::clone(&self.ops),
            counts: Arc::clone(&self.counts),
        })
    }
}

impl StorageBackend for FaultyStorage {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(self.wrap(path, self.inner.create(path)?))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(self.wrap(path, self.inner.open_rw(path)?))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        Ok(self.wrap(path, self.inner.open_append(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if !self.plan.is_noop()
            && self.op_in_window()
            && self
                .backend_rng
                .lock()
                .expect("faulty storage rng lock")
                .chance(self.plan.faults.rename_fail_prob)
        {
            self.counts.rename_failures.fetch_add(1, Ordering::Relaxed);
            // A crash before the atomic step: the source survives, the
            // destination is untouched.
            return Err(io::Error::other("injected rename failure"));
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        if !self.plan.is_noop()
            && self.op_in_window()
            && self
                .backend_rng
                .lock()
                .expect("faulty storage rng lock")
                .chance(self.plan.faults.fsync_fail_prob)
        {
            self.counts.fsync_failures.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected directory fsync failure"));
        }
        self.inner.sync_parent_dir(path)
    }
}

/// One opened file under fault injection: write-class operations may
/// fail per the plan, everything else delegates.
#[derive(Debug)]
struct FaultyFile {
    inner: Box<dyn StorageFile>,
    rng: Arc<Mutex<FaultRng>>,
    plan: IoFaultPlan,
    ops: Arc<AtomicU64>,
    counts: Arc<IoFaultCells>,
}

impl FaultyFile {
    fn op_in_window(&mut self) -> bool {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        op >= self.plan.from_op && op < self.plan.until_op
    }

    fn chance(&mut self, p: f64) -> bool {
        self.rng.lock().expect("faulty file stream lock").chance(p)
    }
}

impl Read for FaultyFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for FaultyFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.op_in_window() {
            if self.chance(self.plan.faults.enospc_prob) {
                self.counts.enospc.fetch_add(1, Ordering::Relaxed);
                return Err(io::Error::other("injected ENOSPC: no space left on device"));
            }
            if self.chance(self.plan.faults.eio_prob) {
                self.counts.eio.fetch_add(1, Ordering::Relaxed);
                return Err(io::Error::other("injected EIO"));
            }
            if buf.len() > 1 && self.chance(self.plan.faults.short_write_prob) {
                // A torn write: a prefix reaches the file, then the
                // device errors. Returning Ok(half) instead would let
                // `write_all` quietly retry the rest — the error is the
                // point.
                self.counts.short_writes.fetch_add(1, Ordering::Relaxed);
                let _ = self.inner.write(&buf[..buf.len() / 2]);
                return Err(io::Error::other("injected short write (torn)"));
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Seek for FaultyFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

impl StorageFile for FaultyFile {
    fn sync_all(&mut self) -> io::Result<()> {
        if self.op_in_window() && self.chance(self.plan.faults.fsync_fail_prob) {
            self.counts.fsync_failures.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync_all()
    }

    fn sync_data(&mut self) -> io::Result<()> {
        if self.op_in_window() && self.chance(self.plan.faults.fsync_fail_prob) {
            self.counts.fsync_failures.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if self.op_in_window() && self.chance(self.plan.faults.eio_prob) {
            self.counts.eio.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("injected EIO (truncate)"));
        }
        self.inner.set_len(len)
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
}

/// Deterministic per-path stream id (FNV-1a over the lossy UTF-8 path),
/// so equal plans fault equal paths identically regardless of open
/// order.
fn path_stream(path: &Path) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in path.to_string_lossy().bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_and_empty_window_plans_are_noop() {
        assert!(IoFaultPlan::disabled().is_noop());
        assert!(StorageFaults::default().is_noop());
        let empty_window = IoFaultPlan {
            from_op: 5,
            until_op: 5,
            ..IoFaultPlan::storm(1)
        };
        assert!(empty_window.is_noop());
        assert!(!IoFaultPlan::storm(1).is_noop());
        assert!(!IoFaultPlan::outage(1, 0, 10).is_noop());
    }

    #[test]
    fn plans_round_trip_through_serde() {
        let plan = IoFaultPlan::storm(42);
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: IoFaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, plan);
    }

    #[test]
    fn outage_window_fails_every_write_then_heals() {
        let dir = std::env::temp_dir().join(format!("jpmd_iofault_outage_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.bin");
        let storage = FaultyStorage::new(IoFaultPlan::outage(7, 0, 3));
        let monitor = storage.monitor();
        let mut file = storage.create(&path).unwrap();
        assert!(file.write(b"xx").is_err(), "op 0 is inside the window");
        assert!(file.write(b"xx").is_err(), "op 1 is inside the window");
        assert!(file.sync_all().is_err(), "op 2 is inside the window");
        file.write_all(b"healed").unwrap();
        file.sync_all().unwrap();
        assert_eq!(monitor.injected().enospc, 2);
        assert_eq!(monitor.injected().fsync_failures, 1);
        assert_eq!(monitor.injected().total(), 3);
        assert!(monitor.ops() >= 5);
        drop(file);
        assert_eq!(std::fs::read(&path).unwrap(), b"healed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rename_failure_leaves_source_and_destination_untouched() {
        let dir = std::env::temp_dir().join(format!("jpmd_iofault_rename_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let from = dir.join("a.tmp");
        let to = dir.join("a.fin");
        std::fs::write(&from, b"payload").unwrap();
        let storage = FaultyStorage::new(IoFaultPlan::outage(7, 0, 1));
        let monitor = storage.monitor();
        assert!(storage.rename(&from, &to).is_err());
        assert!(from.exists(), "source survives the crashed rename");
        assert!(!to.exists(), "destination never appeared");
        storage.rename(&from, &to).unwrap();
        assert!(to.exists());
        assert_eq!(monitor.injected().rename_failures, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn noop_plan_files_are_byte_identical_to_direct_writes() {
        let dir = std::env::temp_dir().join(format!("jpmd_iofault_noop_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let direct = dir.join("direct.bin");
        let wrapped = dir.join("wrapped.bin");
        std::fs::write(&direct, b"same bytes").unwrap();
        let storage = FaultyStorage::new(IoFaultPlan::disabled());
        let monitor = storage.monitor();
        let mut file = storage.create(&wrapped).unwrap();
        file.write_all(b"same bytes").unwrap();
        file.sync_all().unwrap();
        drop(file);
        assert_eq!(
            std::fs::read(&direct).unwrap(),
            std::fs::read(&wrapped).unwrap()
        );
        assert_eq!(monitor.injected().total(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn equal_plans_inject_equal_fault_sequences() {
        let dir = std::env::temp_dir().join(format!("jpmd_iofault_det_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut outcomes: Vec<Vec<bool>> = Vec::new();
        for run in 0..2 {
            let path = dir.join(format!("det{run}.bin"));
            let storage = FaultyStorage::new(IoFaultPlan::storm(99));
            let mut file = storage.create(&dir.join("same-stream.bin")).unwrap();
            let _ = path; // per-run scratch name; the faulted path is fixed
            let mut seen = Vec::new();
            for _ in 0..200 {
                seen.push(file.write(b"abcdef").is_err());
            }
            outcomes.push(seen);
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert!(outcomes[0].iter().any(|&e| e), "storm plan actually fires");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_a_path_continues_its_fault_stream() {
        // A consumer that retries after a failure re-opens the path; were
        // the stream restarted, it would replay the very draw that failed.
        let dir = std::env::temp_dir().join(format!("jpmd_iofault_reopen_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.bin");
        let pattern = |file: &mut Box<dyn StorageFile>, writes: usize| -> Vec<bool> {
            (0..writes)
                .map(|_| file.write(b"abcdef").is_err())
                .collect()
        };

        let storage = FaultyStorage::new(IoFaultPlan::storm(5));
        let one_handle = pattern(&mut storage.create(&path).unwrap(), 200);

        let storage = FaultyStorage::new(IoFaultPlan::storm(5));
        let mut reopened = pattern(&mut storage.create(&path).unwrap(), 100);
        reopened.extend(pattern(&mut storage.open_append(&path).unwrap(), 100));

        assert_eq!(one_handle, reopened);
        assert!(one_handle.iter().any(|&e| e), "storm plan actually fires");
        assert_ne!(
            one_handle[..100],
            one_handle[100..],
            "a restarted stream would repeat the first 100 outcomes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
