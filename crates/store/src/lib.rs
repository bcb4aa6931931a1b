//! Paged binary trace store for `jpmd` (`.jpt` files).
//!
//! The reproduction originally kept every workload as an in-memory JSON
//! `Vec<TraceRecord>`, which couples trace length to resident memory and
//! makes multi-hour, production-scale replays (the ROADMAP north star)
//! impossible. This crate decouples them, in the spirit of paged,
//! checksummed storage engines (PoloDB) and streaming energy-aware request
//! logs (Behzadnia et al., arXiv:1703.02591):
//!
//! * a compact **binary format** — a fixed 64-byte header (magic, version,
//!   geometry, record count) followed by fixed-size data pages of packed
//!   little-endian records, each page guarded by a CRC-32 ([`mod@format`]);
//! * a buffered streaming [`TraceWriter`] and a chunked [`TraceReader`],
//!   both O(page) in resident memory;
//! * a typed [`StoreError`] for every corruption mode — bad magic, foreign
//!   version, truncated page, checksum mismatch — instead of panics;
//! * the [`TraceSource`](jpmd_trace::TraceSource) seam: [`TraceReader`]
//!   plugs straight into the simulator's
//!   [`Simulation::run`](../jpmd_sim/struct.Simulation.html#method.run),
//!   producing **bit-identical** `RunReport`s to in-memory replay (the
//!   workspace `store_stream` integration tests assert this).
//!
//! Alongside the trace format the crate holds what the telemetry WAL and
//! the checkpoint files build on:
//!
//! * [`mod@frame`] — the one header frame (magic, version, CRC, unsealed
//!   field) that `.jpt`, `.jx` and `.jck` files share, checked in one
//!   order;
//! * [`mod@index`] — sparse per-period `<wal>.jx` sidecars that make
//!   `seek_to_period` on JSONL telemetry WALs O(index) instead of
//!   O(file);
//! * [`mod@backend`] — the [`StorageBackend`] seam every durable write
//!   goes through, so storage faults can be injected under the WAL, the
//!   index and the checkpoints;
//! * [`mod@cli`] — the shared exit-code/argument plumbing every tool
//!   binary in the workspace uses.
//!
//! The `trace-tool` binary (this crate) converts between `.json` and
//! `.jpt`, prints, verifies and scans stores, and generates workloads.
//!
//! # Example
//!
//! ```
//! use jpmd_store::{TraceReader, TraceWriter};
//! use jpmd_trace::{AccessKind, FileId, TraceRecord};
//! use std::io::Cursor;
//!
//! # fn main() -> Result<(), jpmd_store::StoreError> {
//! let mut writer = TraceWriter::new(Cursor::new(Vec::new()), 4096, 100)?;
//! writer.write_record(&TraceRecord {
//!     time: 0.5,
//!     file: FileId(0),
//!     first_page: 10,
//!     pages: 2,
//!     kind: AccessKind::Read,
//! })?;
//! let bytes = writer.finish()?.into_inner();
//!
//! let reader = TraceReader::new(Cursor::new(bytes))?;
//! assert_eq!(reader.record_count(), 1);
//! for record in reader {
//!     assert_eq!(record?.first_page, 10);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cli;
mod crc32;
mod durability;
mod error;
pub mod format;
pub mod frame;
pub mod index;
mod reader;
mod writer;

pub use backend::{RealFs, SharedBackend, StorageBackend, StorageFile};
pub use crc32::crc32;
pub use durability::sync_parent_dir;
pub use error::StoreError;
pub use format::Header;
pub use index::{
    index_path, IndexEntry, PeriodIndex, PeriodIndexWriter, INDEX_ENTRY_BYTES, INDEX_HEADER_BYTES,
};
pub use reader::{read_trace, SkippedPage, SkippedPages, TraceReader};
pub use writer::{write_trace, TraceWriter};
