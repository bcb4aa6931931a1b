//! Chunked streaming reader for the paged binary trace store.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use jpmd_trace::{check_record, SourceError, Trace, TraceRecord, TraceSource};

use crate::crc32::crc32;
use crate::format::{Header, RECORD_BYTES};
use crate::StoreError;

/// One data page a recovering reader skipped, with why.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedPage {
    /// Data page number (1-based; 0 is the header).
    pub page: u64,
    /// Records the header implied the page held — the upper bound on what
    /// skipping it lost.
    pub expected_records: u32,
    /// The corruption diagnostic (rendered [`StoreError`]).
    pub reason: String,
}

/// Summary of everything a recovering reader skipped over.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SkippedPages {
    /// The skipped pages, in stream order.
    pub pages: Vec<SkippedPage>,
    /// Total records lost across all skipped pages.
    pub records_lost: u64,
}

impl SkippedPages {
    /// True when nothing was skipped (a clean read).
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

/// Streams [`TraceRecord`]s out of a `.jpt` store one page at a time.
///
/// The header is read and validated eagerly in [`TraceReader::new`]; data
/// pages are pulled lazily, each checked against its CRC and its records
/// against the trace invariants before any of them are yielded, so resident
/// memory stays O(page) however large the trace is. Corruption surfaces as
/// a typed [`StoreError`] — never a panic — and fuses the reader (further
/// pulls return `None`).
///
/// [`TraceReader::open_recovering`] flips the failure stance: a corrupt
/// *page* ([`StoreError::is_page_corruption`]) is skipped instead of
/// fatal. Because pages are fixed-size, the next page boundary is a known
/// resync point — the reader drops at most the records of the damaged
/// page, records the loss in [`TraceReader::skipped`], and streams on.
/// Truncation ends the stream cleanly (charging the unreachable tail);
/// I/O and header errors stay fatal either way.
///
/// `TraceReader` implements both `Iterator<Item = Result<TraceRecord,
/// StoreError>>` and [`TraceSource`], so it plugs straight into
/// [`Simulation::run`](../jpmd_sim/struct.Simulation.html#method.run)
/// for streaming replay.
pub struct TraceReader<R: Read> {
    input: R,
    header: Header,
    /// The current page's bytes. It grows with the bytes that arrive, so a
    /// header's page size allocates nothing by itself, and is reused from
    /// page to page.
    page: Vec<u8>,
    /// Decoded records of the current page, grown as they decode.
    buffered: Vec<TraceRecord>,
    cursor: usize,
    pages_read: u64,
    records_out: u64,
    /// Records charged to skipped pages (recovery mode only).
    records_lost: u64,
    prev_time: f64,
    fused: bool,
    recovery: bool,
    skipped: SkippedPages,
}

impl TraceReader<BufReader<File>> {
    /// Opens a store file for streaming.
    ///
    /// # Errors
    ///
    /// Propagates open/read failures and header validation errors; a file
    /// an unfinished writer left is [`StoreError::Unsealed`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::new(BufReader::new(File::open(path)?))
    }

    /// Opens a store file in recovery mode: corrupt data pages are skipped
    /// (resyncing at the next page boundary) instead of ending the stream.
    ///
    /// # Errors
    ///
    /// Propagates open/read failures and header validation errors — a
    /// damaged or unsealed *header* is not recoverable.
    pub fn open_recovering(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::new_recovering(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps `input`, reading and validating the header immediately.
    /// Nothing is sized from the header before a page's bytes arrive: a
    /// header is a claim about the file, not a measure of it.
    ///
    /// # Errors
    ///
    /// Any [`Header::read`] error, before any data page is read.
    pub fn new(mut input: R) -> Result<Self, StoreError> {
        let header = Header::read(&mut input)?;
        Ok(Self {
            input,
            page: Vec::new(),
            buffered: Vec::new(),
            header,
            cursor: 0,
            pages_read: 0,
            records_out: 0,
            records_lost: 0,
            prev_time: f64::NEG_INFINITY,
            fused: false,
            recovery: false,
            skipped: SkippedPages::default(),
        })
    }

    /// Like [`TraceReader::new`], in recovery mode (see
    /// [`TraceReader::open_recovering`]).
    ///
    /// # Errors
    ///
    /// Same as [`TraceReader::new`]: header validation is never skipped.
    pub fn new_recovering(input: R) -> Result<Self, StoreError> {
        let mut reader = Self::new(input)?;
        reader.recovery = true;
        Ok(reader)
    }

    /// The validated file header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Records stored in the file.
    pub fn record_count(&self) -> u64 {
        self.header.record_count
    }

    /// What a recovery-mode read skipped so far (empty for a clean file
    /// and always empty in strict mode).
    pub fn skipped(&self) -> &SkippedPages {
        &self.skipped
    }

    /// Data pages whose bytes have been consumed so far (including pages
    /// a recovering reader skipped; excluding a trailing truncated page).
    pub fn pages_read(&self) -> u64 {
        self.pages_read
    }

    /// Records consumed from the stream so far: yielded plus charged to
    /// skipped pages.
    fn records_consumed(&self) -> u64 {
        self.records_out + self.records_lost
    }

    /// Records the header implies the *next* data page holds: every page
    /// but the last must be full; the last holds the rest.
    fn next_page_expected(&self) -> u32 {
        let remaining = self.header.record_count - self.records_consumed();
        remaining.min(self.header.capacity() as u64) as u32
    }

    /// Reads, checks, and decodes the next data page into `buffered`.
    ///
    /// On failure the reader's decode state (`prev_time`, `buffered`) is
    /// rolled back so a recovering caller can charge the page as lost and
    /// resync at the next boundary — the page bytes are always fully
    /// consumed from the input before validation begins.
    fn load_page(&mut self) -> Result<(), StoreError> {
        let page = self.pages_read + 1; // 1-based in errors; 0 is the header
        let page_size = u64::from(self.header.page_size);
        self.page.clear();
        let read = (&mut self.input)
            .take(page_size)
            .read_to_end(&mut self.page)?;
        if (read as u64) < page_size {
            return Err(StoreError::Truncated { page });
        }
        self.pages_read += 1;
        let prev_time = self.prev_time;
        let result = self.decode_page(page);
        if result.is_err() {
            self.prev_time = prev_time;
            self.buffered.clear();
            self.cursor = 0;
        }
        result
    }

    fn decode_page(&mut self, page: u64) -> Result<(), StoreError> {
        let len = self.page.len();
        let stored = u32::from_le_bytes(self.page[len - 4..].try_into().unwrap());
        let computed = crc32(&self.page[..len - 4]);
        if stored != computed {
            return Err(StoreError::Checksum {
                page,
                stored,
                computed,
            });
        }
        let found = u32::from_le_bytes(self.page[0..4].try_into().unwrap());
        let expected = self.next_page_expected();
        if found != expected {
            return Err(StoreError::BadPageCount {
                page,
                found,
                expected,
            });
        }
        self.buffered.clear();
        for i in 0..found as usize {
            let at = 4 + i * RECORD_BYTES;
            let index = self.records_consumed() + i as u64;
            let record = crate::format::decode_record(&self.page[at..at + RECORD_BYTES], index)?;
            check_record(&record, self.prev_time, self.header.total_pages, index)?;
            self.prev_time = record.time;
            self.buffered.push(record);
        }
        self.cursor = 0;
        Ok(())
    }

    /// Recovery-mode reaction to a failed page load: returns `None` to
    /// retry at the next page, or `Some(item)` to end the stream.
    fn recover(&mut self, e: StoreError) -> Option<Option<Result<TraceRecord, StoreError>>> {
        if e.is_page_corruption() {
            // The failed page's bytes were fully consumed, so the input
            // already sits at the next page boundary: charge the page's
            // records as lost and resync.
            let lost = self.next_page_expected();
            self.skipped.pages.push(SkippedPage {
                page: self.pages_read,
                expected_records: lost,
                reason: e.to_string(),
            });
            self.skipped.records_lost += u64::from(lost);
            self.records_lost += u64::from(lost);
            return None;
        }
        if let StoreError::Truncated { page } = e {
            // No more page boundaries to resync at: charge the whole
            // unreachable tail and end the stream cleanly.
            let lost = self.header.record_count - self.records_consumed();
            self.skipped.pages.push(SkippedPage {
                page,
                expected_records: self.next_page_expected(),
                reason: e.to_string(),
            });
            self.skipped.records_lost += lost;
            self.records_lost += lost;
            self.fused = true;
            return Some(None);
        }
        // I/O and any other failure stays fatal even in recovery.
        self.fused = true;
        Some(Some(Err(e)))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        while self.cursor == self.buffered.len() {
            if self.records_consumed() == self.header.record_count {
                self.fused = true;
                return None;
            }
            match self.load_page() {
                Ok(()) => break,
                Err(e) if self.recovery => {
                    if let Some(outcome) = self.recover(e) {
                        return outcome;
                    }
                }
                Err(e) => {
                    self.fused = true;
                    return Some(Err(e));
                }
            }
        }
        let record = self.buffered[self.cursor];
        self.cursor += 1;
        self.records_out += 1;
        Some(Ok(record))
    }
}

impl<R: Read> TraceSource for TraceReader<R> {
    fn page_bytes(&self) -> u64 {
        self.header.page_bytes
    }

    fn total_pages(&self) -> u64 {
        self.header.total_pages
    }

    fn next_record(&mut self) -> Option<Result<TraceRecord, SourceError>> {
        self.next().map(|r| r.map_err(SourceError::new))
    }
}

/// Loads a whole store file into an in-memory [`Trace`].
///
/// Prefer streaming ([`TraceReader`] +
/// [`Simulation::run`](../jpmd_sim/struct.Simulation.html#method.run))
/// for replay; this is for tooling that needs random access (stats,
/// synthesizer transforms, JSON conversion).
///
/// # Errors
///
/// Propagates any [`TraceReader`] error.
pub fn read_trace(path: impl AsRef<Path>) -> Result<Trace, StoreError> {
    let mut reader = TraceReader::open(path)?;
    // Grown as records arrive: the header's count is a claim, not a size.
    let mut records = Vec::new();
    for record in &mut reader {
        records.push(record?);
    }
    Ok(Trace::new(
        records,
        reader.header().page_bytes,
        reader.header().total_pages,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::HEADER_BYTES;
    use crate::writer::TraceWriter;
    use jpmd_trace::{AccessKind, FileId};
    use std::io::Cursor;

    fn rec(time: f64, first_page: u64, pages: u64) -> TraceRecord {
        TraceRecord {
            time,
            file: FileId(2),
            first_page,
            pages,
            kind: AccessKind::Read,
        }
    }

    fn store(records: &[TraceRecord], page_size: u32) -> Vec<u8> {
        let mut w =
            TraceWriter::with_page_size(Cursor::new(Vec::new()), 4096, 100, page_size).unwrap();
        for r in records {
            w.write_record(r).unwrap();
        }
        w.finish().unwrap().into_inner()
    }

    #[test]
    fn multi_page_stream_yields_every_record_in_order() {
        let records: Vec<TraceRecord> = (0..13).map(|i| rec(i as f64, i, 2)).collect();
        let bytes = store(&records, 66); // capacity 2 -> 7 pages
        let reader = TraceReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.record_count(), 13);
        let back: Vec<TraceRecord> = reader.map(Result::unwrap).collect();
        assert_eq!(back, records);
    }

    #[test]
    fn empty_store_roundtrips() {
        let bytes = store(&[], 66);
        let mut reader = TraceReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(reader.record_count(), 0);
        assert!(reader.next().is_none());
        assert!(reader.next().is_none());
    }

    #[test]
    fn source_metadata_comes_from_the_header() {
        let bytes = store(&[rec(0.0, 0, 1)], 4096);
        let mut reader = TraceReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(TraceSource::page_bytes(&reader), 4096);
        assert_eq!(TraceSource::total_pages(&reader), 100);
        assert!(matches!(reader.next_record(), Some(Ok(_))));
        assert!(reader.next_record().is_none());
    }

    #[test]
    fn reader_fuses_after_an_error() {
        let mut bytes = store(&(0..5).map(|i| rec(i as f64, i, 1)).collect::<Vec<_>>(), 66);
        let flip = HEADER_BYTES + 10; // inside page 1's records
        bytes[flip] ^= 0xFF;
        let mut reader = TraceReader::new(Cursor::new(bytes)).unwrap();
        assert!(matches!(
            reader.next(),
            Some(Err(StoreError::Checksum { page: 1, .. }))
        ));
        assert!(reader.next().is_none());
        assert!(reader.next_record().is_none());
    }

    #[test]
    fn recovering_reader_skips_exactly_the_corrupt_page() {
        // 13 records, capacity 2 -> 7 pages; corrupt page 3 (records 4, 5).
        let records: Vec<TraceRecord> = (0..13).map(|i| rec(i as f64, i, 2)).collect();
        let mut bytes = store(&records, 66);
        let page_bytes = 66;
        let flip = HEADER_BYTES + 2 * page_bytes + 10;
        bytes[flip] ^= 0xFF;

        let mut reader = TraceReader::new_recovering(Cursor::new(bytes)).unwrap();
        let back: Vec<TraceRecord> = (&mut reader).map(Result::unwrap).collect();
        let expected: Vec<TraceRecord> =
            records[..4].iter().chain(&records[6..]).copied().collect();
        assert_eq!(back, expected);
        let skipped = reader.skipped();
        assert_eq!(skipped.records_lost, 2);
        assert_eq!(skipped.pages.len(), 1);
        assert_eq!(skipped.pages[0].page, 3);
        assert_eq!(skipped.pages[0].expected_records, 2);
        assert!(skipped.pages[0].reason.contains("checksum"));
    }

    #[test]
    fn recovering_reader_ends_cleanly_on_truncation() {
        let records: Vec<TraceRecord> = (0..13).map(|i| rec(i as f64, i, 2)).collect();
        let mut bytes = store(&records, 66);
        bytes.truncate(bytes.len() - 70); // kill page 7 and part of page 6
        let mut reader = TraceReader::new_recovering(Cursor::new(bytes)).unwrap();
        let back: Vec<TraceRecord> = (&mut reader).map(Result::unwrap).collect();
        assert_eq!(back, records[..10]);
        assert_eq!(reader.skipped().records_lost, 3);
        assert!(reader.next().is_none());
    }

    #[test]
    fn strict_reader_is_unchanged_by_recovery_plumbing() {
        let records: Vec<TraceRecord> = (0..13).map(|i| rec(i as f64, i, 2)).collect();
        let bytes = store(&records, 66);
        let mut reader = TraceReader::new(Cursor::new(bytes)).unwrap();
        let back: Vec<TraceRecord> = (&mut reader).map(Result::unwrap).collect();
        assert_eq!(back, records);
        assert!(reader.skipped().is_empty());
    }
}
