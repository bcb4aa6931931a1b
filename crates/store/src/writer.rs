//! Buffered streaming writer for the paged binary trace store.

use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use jpmd_trace::{check_record, Trace, TraceRecord};

use crate::backend::{SharedBackend, StorageFile};
use crate::crc32::crc32;
use crate::format::{Header, DEFAULT_PAGE_SIZE, RECORD_BYTES};
use crate::frame::UNSEALED;
use crate::StoreError;

/// Streams [`TraceRecord`]s into the paged binary format.
///
/// Records are validated incrementally (same invariants as
/// [`Trace::from_reader`], via [`jpmd_trace::check_record`]) and packed
/// into fixed-size pages; each full page is checksummed and written out,
/// so resident memory stays O(page) regardless of trace length.
///
/// The header is written up front with the record count at
/// [`UNSEALED`] and patched by [`TraceWriter::finish`] — a writer that is
/// dropped without finishing leaves a file every reader refuses at open
/// ([`StoreError::Unsealed`]) instead of one that silently reads as
/// truncated.
pub struct TraceWriter<W: Write + Seek> {
    out: W,
    header: Header,
    capacity: u32,
    page: Vec<u8>,
    in_page: u32,
    written: u64,
    prev_time: f64,
    /// Set by [`TraceWriter::create_on`] so
    /// [`TraceWriter::finish_durable`] can fsync the parent directory
    /// through the backend that wrote the file; `None` for in-memory
    /// writers.
    target: Option<(SharedBackend, PathBuf)>,
}

impl TraceWriter<BufWriter<Box<dyn StorageFile>>> {
    /// Creates `path` and writes the store header for a trace with the
    /// given page size and data-set size.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn create(
        path: impl AsRef<Path>,
        page_bytes: u64,
        total_pages: u64,
    ) -> Result<Self, StoreError> {
        Self::create_on(SharedBackend::real_fs(), path, page_bytes, total_pages)
    }

    /// [`TraceWriter::create`] through an explicit storage backend (the
    /// fault-injection seam).
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures (injected or real).
    pub fn create_on(
        backend: SharedBackend,
        path: impl AsRef<Path>,
        page_bytes: u64,
        total_pages: u64,
    ) -> Result<Self, StoreError> {
        let path = path.as_ref();
        let file = backend.create(path)?;
        let mut writer = Self::new(BufWriter::new(file), page_bytes, total_pages)?;
        writer.target = Some((backend, path.to_path_buf()));
        Ok(writer)
    }

    /// [`TraceWriter::finish`], then pushed all the way to stable storage:
    /// the sealed file is fsynced, and so is its parent directory, both
    /// through the writer's backend, so neither the patched header nor the
    /// directory entry can be lost to a crash.
    ///
    /// The store does not need a write-temp-then-rename dance for
    /// crash *detection* (the unsealed record count already makes an
    /// unfinished file one every reader refuses); this call is about
    /// making a *finished* file permanent.
    ///
    /// # Errors
    ///
    /// Propagates write, flush, and fsync failures.
    pub fn finish_durable(mut self) -> Result<(), StoreError> {
        let target = self.target.take();
        let mut file = self
            .finish()?
            .into_inner()
            .map_err(|e| StoreError::Io(e.into_error()))?;
        file.sync_all()?;
        if let Some((backend, path)) = target {
            backend.sync_parent_dir(&path)?;
        }
        Ok(())
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Wraps `out` with the default page size ([`DEFAULT_PAGE_SIZE`]).
    ///
    /// # Errors
    ///
    /// Propagates write failures from emitting the header.
    pub fn new(out: W, page_bytes: u64, total_pages: u64) -> Result<Self, StoreError> {
        Self::with_page_size(out, page_bytes, total_pages, DEFAULT_PAGE_SIZE)
    }

    /// Wraps `out` with an explicit store page size (between
    /// [`MIN_PAGE_SIZE`](crate::format::MIN_PAGE_SIZE) and
    /// [`MAX_PAGE_SIZE`](crate::format::MAX_PAGE_SIZE)).
    ///
    /// # Errors
    ///
    /// [`StoreError::BadPageSize`] for an out-of-bounds page size;
    /// otherwise write failures from emitting the header.
    pub fn with_page_size(
        mut out: W,
        page_bytes: u64,
        total_pages: u64,
        page_size: u32,
    ) -> Result<Self, StoreError> {
        Header::validate_page_size(page_size)?;
        if page_bytes == 0 {
            return Err(StoreError::InvalidConfig {
                reason: "page_bytes must be >= 1",
            });
        }
        let header = Header {
            page_size,
            page_bytes,
            total_pages,
            record_count: UNSEALED, // until finish() patches it
        };
        out.write_all(&header.encode())?;
        Ok(Self {
            out,
            capacity: header.capacity(),
            header,
            page: vec![0u8; page_size as usize],
            in_page: 0,
            written: 0,
            prev_time: f64::NEG_INFINITY,
            target: None,
        })
    }

    /// Records written so far.
    pub fn record_count(&self) -> u64 {
        self.written
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidRecord`] when the record violates a trace
    /// invariant (decreasing time, zero pages, range outside the data
    /// set); otherwise write failures from flushing a full page.
    pub fn write_record(&mut self, record: &TraceRecord) -> Result<(), StoreError> {
        check_record(
            record,
            self.prev_time,
            self.header.total_pages,
            self.written,
        )?;
        let at = 4 + self.in_page as usize * RECORD_BYTES;
        crate::format::encode_record(record, &mut self.page[at..at + RECORD_BYTES]);
        self.in_page += 1;
        self.written += 1;
        self.prev_time = record.time;
        if self.in_page == self.capacity {
            self.flush_page()?;
        }
        Ok(())
    }

    /// Seals the file: flushes the trailing partial page, then seeks back
    /// and rewrites the header with the final record count. Returns the
    /// inner writer (already flushed).
    ///
    /// # Errors
    ///
    /// Propagates write/seek failures.
    pub fn finish(mut self) -> Result<W, StoreError> {
        if self.in_page > 0 {
            self.flush_page()?;
        }
        self.header.record_count = self.written;
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&self.header.encode())?;
        self.out.flush()?;
        Ok(self.out)
    }

    fn flush_page(&mut self) -> Result<(), StoreError> {
        let len = self.page.len();
        self.page[0..4].copy_from_slice(&self.in_page.to_le_bytes());
        // Padding beyond the last record is already zero (the buffer is
        // re-zeroed after every flush).
        let crc = crc32(&self.page[..len - 4]);
        self.page[len - 4..].copy_from_slice(&crc.to_le_bytes());
        self.out.write_all(&self.page)?;
        self.page.fill(0);
        self.in_page = 0;
        Ok(())
    }
}

/// Writes a whole in-memory [`Trace`] to `path` in the binary format and
/// fsyncs it (file and parent directory) before returning.
///
/// # Errors
///
/// Propagates [`TraceWriter`] failures.
pub fn write_trace(path: impl AsRef<Path>, trace: &Trace) -> Result<(), StoreError> {
    let mut writer = TraceWriter::create(path, trace.page_bytes(), trace.total_pages())?;
    for record in trace.records() {
        writer.write_record(record)?;
    }
    writer.finish_durable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpmd_trace::{AccessKind, FileId};
    use std::io::Cursor;

    fn rec(time: f64, first_page: u64, pages: u64) -> TraceRecord {
        TraceRecord {
            time,
            file: FileId(1),
            first_page,
            pages,
            kind: AccessKind::Read,
        }
    }

    #[test]
    fn file_length_is_header_plus_full_pages() {
        let mut w = TraceWriter::with_page_size(Cursor::new(Vec::new()), 4096, 100, 66).unwrap();
        assert_eq!(w.capacity, 2); // (66 - 8) / 29
        for i in 0..5u64 {
            w.write_record(&rec(i as f64, i, 1)).unwrap();
        }
        let bytes = w.finish().unwrap().into_inner();
        // 5 records over capacity-2 pages -> 3 pages.
        assert_eq!(bytes.len(), 64 + 3 * 66);
    }

    #[test]
    fn rejects_out_of_order_and_out_of_range_records() {
        let mut w = TraceWriter::new(Cursor::new(Vec::new()), 4096, 100).unwrap();
        w.write_record(&rec(5.0, 0, 1)).unwrap();
        assert!(matches!(
            w.write_record(&rec(4.0, 0, 1)),
            Err(StoreError::InvalidRecord(_))
        ));
        assert!(matches!(
            w.write_record(&rec(6.0, 99, 2)),
            Err(StoreError::InvalidRecord(_))
        ));
        assert!(matches!(
            w.write_record(&rec(6.0, 0, 0)),
            Err(StoreError::InvalidRecord(_))
        ));
    }

    #[test]
    fn unfinished_writer_leaves_a_poisoned_header() {
        let mut w = TraceWriter::new(Cursor::new(Vec::new()), 4096, 100).unwrap();
        w.write_record(&rec(0.0, 0, 1)).unwrap();
        // Simulate a crash: grab the bytes without finish().
        w.out.flush().unwrap();
        let bytes = w.out.get_ref().clone();
        assert!(matches!(
            Header::read(&mut &bytes[..]),
            Err(StoreError::Unsealed)
        ));
    }

    #[test]
    fn finish_durable_seals_a_readable_file() {
        let path =
            std::env::temp_dir().join(format!("jpmd-store-durable-{}.jpt", std::process::id()));
        let mut w = TraceWriter::create(&path, 4096, 100).unwrap();
        for i in 0..5u64 {
            w.write_record(&rec(i as f64, i, 1)).unwrap();
        }
        w.finish_durable().unwrap();
        let trace = crate::read_trace(&path).unwrap();
        assert_eq!(trace.records().len(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiny_page_sizes_are_rejected() {
        assert!(matches!(
            TraceWriter::with_page_size(Cursor::new(Vec::new()), 4096, 100, 16),
            Err(StoreError::BadPageSize { found: 16 })
        ));
        assert!(matches!(
            TraceWriter::new(Cursor::new(Vec::new()), 0, 100),
            Err(StoreError::InvalidConfig { .. })
        ));
    }
}
