//! # jpmd-ckpt — crash-safe checkpoint/resume for simulation runs
//!
//! Long replays (the multi-hour production traces of the ROADMAP north
//! star) must survive being killed. This crate persists the engine's
//! [`SimCheckpoint`] — source cursor, stats, observer and controller
//! images, hardware snapshot, telemetry sequence — into CRC-guarded
//! `.jck` files and rebuilds runs from them:
//!
//! * a binary value codec that round-trips floats **bit-exactly**,
//!   because a resumed run replays from restored state and must stay
//!   bit-identical to the uninterrupted run;
//! * an atomic write-temp-then-rename publish with an unsealed header
//!   until sealed and dual CRCs, so a crash leaves
//!   either the previous good checkpoint or a file that loads as a typed
//!   [`CkptError::Torn`] — never a silently wrong resume point;
//! * [`FileCheckpointer`], the glue between the engine's checkpoint
//!   callback and the file: it flushes the telemetry WAL *before*
//!   sealing the checkpoint that references its sequence number, so the
//!   `.jck` never points past the durable end of the `.jsonl`;
//! * the `ckpt_tool` binary: `inspect` and `verify`. An interrupted
//!   chaos run resumes through `chaos --ckpt <file> --resume`.
//!
//! Resume contract: rebuild the run from the **same** configuration and
//! an identical source, pass the loaded checkpoint to
//! [`jpmd_sim::Simulation::resume`] (which every run goes through,
//! `jpmd_faults::run_chaos` included), and reopen the telemetry file
//! with [`jpmd_obs::JsonlSink::resume`] at the checkpoint's
//! `telemetry_seq`. The completed report is then bit-identical to the
//! uninterrupted run's, and the telemetry stream is gap-free (the
//! integration tests assert both, for the always-on, power-down, joint,
//! and chaos stacks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod error;
mod format;
mod manifest;

use std::path::{Path, PathBuf};

use jpmd_obs::Telemetry;
use jpmd_sim::SimCheckpoint;
use jpmd_store::SharedBackend;
use serde::Value;

pub use error::CkptError;
pub use manifest::{
    load_manifest, load_tenant_manifest, save_manifest, save_tenant_manifest, FleetManifest,
    ShardEntry, TenantEntry, TenantManifest,
};

/// Run identity stored alongside the checkpoint, so a tool (or a
/// supervisor restarting a task) can rebuild the right run without
/// out-of-band knowledge.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CkptMeta {
    /// The recipe that produced the run. `"chaos-small"` is the recipe
    /// `chaos --resume` knows how to rebuild
    /// (`jpmd_faults::ChaosConfig::small_test` over
    /// `jpmd_faults::chaos_trace`); other kinds are free-form and
    /// resumed programmatically.
    pub kind: String,
    /// The run's primary seed (the fault-plan seed for chaos runs).
    pub seed: u64,
    /// The workload/trace seed.
    pub trace_seed: u64,
    /// Path of the telemetry WAL this run appends to, if any — resume
    /// reopens it with [`jpmd_obs::JsonlSink::resume`].
    pub telemetry: Option<String>,
    /// The WAL/index position the checkpoint sealed against: stamped by
    /// [`FileCheckpointer::save`] *after* flushing telemetry, so the
    /// recorded offset is a durable prefix of the `.jsonl` and
    /// `index_entries` a valid prefix of its `.jx` sidecar. `None` for
    /// runs without a WAL-positioned sink, and when loading checkpoints
    /// written before the field existed (`#[serde(default)]`).
    #[serde(default)]
    pub wal_index: Option<jpmd_obs::WalIndexPos>,
}

impl CkptMeta {
    /// Metadata for a free-form run with no canonical rebuild recipe.
    pub fn new(kind: impl Into<String>) -> Self {
        CkptMeta {
            kind: kind.into(),
            seed: 0,
            trace_seed: 0,
            telemetry: None,
            wal_index: None,
        }
    }

    /// Metadata for the standard chaos smoke recipe
    /// (`jpmd_faults::ChaosConfig::small_test` with `seed`, over
    /// `jpmd_faults::chaos_trace` with `trace_seed`).
    pub fn chaos_small(seed: u64, trace_seed: u64) -> Self {
        CkptMeta {
            kind: "chaos-small".into(),
            seed,
            trace_seed,
            telemetry: None,
            wal_index: None,
        }
    }

    /// Attaches the telemetry WAL path.
    #[must_use]
    pub fn with_telemetry(mut self, path: impl Into<String>) -> Self {
        self.telemetry = Some(path.into());
        self
    }
}

/// Serializes `meta` + `ckpt` into `path` with the crash-consistent
/// `.jck` write protocol (temp file, unsealed header until sealed, fsync,
/// atomic rename, parent-directory fsync).
///
/// # Errors
///
/// Propagates I/O failures as [`CkptError::Io`].
pub fn save_checkpoint(
    path: impl AsRef<Path>,
    meta: &CkptMeta,
    ckpt: &SimCheckpoint,
) -> Result<(), CkptError> {
    save_checkpoint_on(&SharedBackend::real_fs(), path, meta, ckpt)
}

/// [`save_checkpoint`] through an explicit storage backend (the
/// fault-injection seam). The crash-consistency guarantees are the same
/// under injected faults: a failed seal deletes its temp sibling and
/// never touches the destination, so the previous good checkpoint (or
/// nothing) is what remains.
///
/// # Errors
///
/// Propagates I/O failures (injected or real) as [`CkptError::Io`].
pub fn save_checkpoint_on(
    backend: &SharedBackend,
    path: impl AsRef<Path>,
    meta: &CkptMeta,
    ckpt: &SimCheckpoint,
) -> Result<(), CkptError> {
    let root = Value::Object(vec![
        ("meta".into(), serde::Serialize::to_value(meta)),
        ("checkpoint".into(), serde::Serialize::to_value(ckpt)),
    ]);
    format::write_jck_on(backend, path.as_ref(), &root)
}

/// Loads and validates a `.jck` file.
///
/// # Errors
///
/// Every defect is typed: [`CkptError::BadMagic`] for a foreign file,
/// [`CkptError::UnsupportedVersion`] for a future format,
/// [`CkptError::Torn`] for any physical damage (truncation, unsealed
/// header, checksum mismatch), [`CkptError::Decode`] for an intact
/// payload that is not a checkpoint. Arbitrary bytes never panic.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<(CkptMeta, SimCheckpoint), CkptError> {
    let root = format::read_jck(path.as_ref())?;
    let fields = match &root {
        Value::Object(fields) => fields,
        other => {
            return Err(CkptError::Decode(format!(
                "top-level value is not an object (got {other:?})"
            )))
        }
    };
    let field = |name: &str| {
        fields
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value)
            .ok_or_else(|| CkptError::Decode(format!("missing top-level field '{name}'")))
    };
    let meta = <CkptMeta as serde::Deserialize>::from_value(field("meta")?)
        .map_err(|e| CkptError::Decode(format!("meta: {e}")))?;
    let ckpt = <SimCheckpoint as serde::Deserialize>::from_value(field("checkpoint")?)
        .map_err(|e| CkptError::Decode(format!("checkpoint: {e}")))?;
    Ok((meta, ckpt))
}

/// The glue between the engine's checkpoint callback and a `.jck` file:
/// flushes the run's telemetry WAL, then atomically publishes the
/// checkpoint. Ordering matters — the checkpoint stores `telemetry_seq`,
/// and a `.jck` referencing records that never reached the WAL would
/// resume with a gap. Flushing first makes the WAL durable at least up
/// to every sequence number the checkpoint can mention.
///
/// Wire it up as the `on_checkpoint` callback (it keeps the run going on
/// success and stops it on a save failure):
///
/// ```no_run
/// # use jpmd_ckpt::{CkptMeta, FileCheckpointer};
/// # use jpmd_obs::Telemetry;
/// let telemetry = Telemetry::disabled();
/// let mut saver = FileCheckpointer::new("run.jck", CkptMeta::new("custom"), telemetry.clone());
/// let mut on_checkpoint = |ckpt: jpmd_sim::SimCheckpoint| saver.save(&ckpt);
/// ```
pub struct FileCheckpointer {
    path: PathBuf,
    meta: CkptMeta,
    telemetry: Telemetry,
    backend: SharedBackend,
    retries: u32,
    retry_delay: std::time::Duration,
    saved: u64,
    retried: u64,
    error: Option<CkptError>,
}

/// Attempts [`FileCheckpointer::save`] makes per checkpoint (the first
/// try plus `SAVE_ATTEMPTS - 1` retries) before giving up.
pub const SAVE_ATTEMPTS: u32 = 3;

impl FileCheckpointer {
    /// A checkpointer publishing to `path` with the given run identity.
    pub fn new(path: impl Into<PathBuf>, meta: CkptMeta, telemetry: Telemetry) -> Self {
        FileCheckpointer {
            path: path.into(),
            meta,
            telemetry,
            backend: SharedBackend::real_fs(),
            retries: SAVE_ATTEMPTS - 1,
            retry_delay: std::time::Duration::from_millis(10),
            saved: 0,
            retried: 0,
            error: None,
        }
    }

    /// Routes every seal through an explicit storage backend (the
    /// fault-injection seam).
    #[must_use]
    pub fn with_backend(mut self, backend: SharedBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the retry budget: `attempts` total tries per save
    /// (minimum 1) separated by `delay`. The default is [`SAVE_ATTEMPTS`]
    /// tries 10 ms apart — enough to ride out a transient error without
    /// stalling the simulation behind a dead disk.
    #[must_use]
    pub fn with_retry(mut self, attempts: u32, delay: std::time::Duration) -> Self {
        self.retries = attempts.max(1) - 1;
        self.retry_delay = delay;
        self
    }

    /// Flushes telemetry, then publishes `ckpt`, retrying a failed seal
    /// up to the configured attempt budget (each failed attempt cleans up
    /// its own temp file; the destination is only touched by a successful
    /// atomic rename). Returns `true` to let the run continue; exhausting
    /// the budget returns `false` (stopping the run at a well-defined
    /// boundary beats running on without crash safety) and parks the last
    /// error for [`FileCheckpointer::take_error`].
    ///
    /// The published metadata carries the WAL/index position
    /// ([`jpmd_obs::Telemetry::wal_index`]) read **after** the flush, so
    /// every byte and index entry the checkpoint claims is durable.
    pub fn save(&mut self, ckpt: &SimCheckpoint) -> bool {
        self.telemetry.flush();
        self.meta.wal_index = self.telemetry.wal_index();
        let mut attempt = 0;
        loop {
            match save_checkpoint_on(&self.backend, &self.path, &self.meta, ckpt) {
                Ok(()) => {
                    self.saved += 1;
                    return true;
                }
                Err(e) if attempt < self.retries => {
                    attempt += 1;
                    self.retried += 1;
                    drop(e);
                    if !self.retry_delay.is_zero() {
                        std::thread::sleep(self.retry_delay);
                    }
                }
                Err(e) => {
                    self.error = Some(e);
                    return false;
                }
            }
        }
    }

    /// Checkpoints successfully published so far.
    pub fn saved(&self) -> u64 {
        self.saved
    }

    /// Seal attempts that failed and were retried (a health signal: a
    /// storage layer that needs retries is a storage layer to watch).
    pub fn retried(&self) -> u64 {
        self.retried
    }

    /// The save failure that stopped the run, if any.
    pub fn take_error(&mut self) -> Option<CkptError> {
        self.error.take()
    }
}
