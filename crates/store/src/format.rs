//! On-disk layout of the `.jpt` trace store.
//!
//! All integers are little-endian. A file is one fixed-size header
//! followed by zero or more fixed-size data pages:
//!
//! ```text
//! header (64 bytes)
//!   0..8    magic            b"JPMDTRC1"
//!   8..10   version          u16  (currently 1)
//!   10..12  record size      u16  (currently 29)
//!   12..16  store page size  u32  (bytes per data page; default 4096)
//!   16..24  trace page size  u64  (Trace::page_bytes)
//!   24..32  total pages      u64  (Trace::total_pages, the data set)
//!   32..40  record count     u64
//!   40..60  reserved         zeros
//!   60..64  CRC-32 of bytes 0..60
//!
//! data page (page-size bytes)
//!   0..4            records in this page (u32)
//!   4..4+n*29       n packed records
//!   …               zero padding
//!   last 4 bytes    CRC-32 of everything before it
//!
//! record (29 bytes)
//!   0..8    time        f64 bit pattern (exact round-trip)
//!   8..12   file id     u32
//!   12..20  first page  u64
//!   20..28  pages       u64
//!   28      kind        u8 (0 = read, 1 = write)
//! ```
//!
//! The header is in the frame of [`crate::frame::TRACE`]: its record
//! count holds [`UNSEALED`](crate::frame::UNSEALED) until the writer
//! finishes, and readers refuse such a file at open.
//!
//! Every page but the last must be full; the last may be partial. Pages
//! are always padded to the full page size, so the expected file length is
//! `64 + ceil(record_count / capacity) * page_size` exactly.
//!
//! **Versioning:** readers accept only their own `version`; any layout
//! change (field widths, record stride, checksum scope) bumps it. The
//! record-size field lets old readers reject new strides with a precise
//! error instead of decoding garbage.

use std::io::Read;

use jpmd_trace::{AccessKind, FileId, TraceRecord};

use crate::frame::TRACE;
use crate::StoreError;

/// Bytes per packed record.
pub const RECORD_BYTES: usize = 29;
/// Bytes in the file header.
pub const HEADER_BYTES: usize = TRACE.header_bytes;
/// Per-page overhead: leading record count + trailing CRC.
pub const PAGE_OVERHEAD: usize = 8;
/// Default data-page size.
pub const DEFAULT_PAGE_SIZE: u32 = 4096;
/// Smallest allowed data-page size (fits one record).
pub const MIN_PAGE_SIZE: u32 = (PAGE_OVERHEAD + RECORD_BYTES) as u32;
/// Largest allowed data-page size.
pub const MAX_PAGE_SIZE: u32 = 1 << 24;

/// Decoded file header: the store's geometry and the trace metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Bytes per data page.
    pub page_size: u32,
    /// Trace page size ([`Trace::page_bytes`](jpmd_trace::Trace::page_bytes)).
    pub page_bytes: u64,
    /// Data-set size in trace pages.
    pub total_pages: u64,
    /// Records stored in the file.
    pub record_count: u64,
}

impl Header {
    /// Records per data page at this page size.
    pub fn capacity(&self) -> u32 {
        ((self.page_size as usize - PAGE_OVERHEAD) / RECORD_BYTES) as u32
    }

    /// Number of data pages holding `record_count` records.
    pub fn data_pages(&self) -> u64 {
        let cap = self.capacity() as u64;
        self.record_count / cap + u64::from(!self.record_count.is_multiple_of(cap))
    }

    /// Checks the page size bounds.
    pub(crate) fn validate_page_size(page_size: u32) -> Result<(), StoreError> {
        if (MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
            Ok(())
        } else {
            Err(StoreError::BadPageSize { found: page_size })
        }
    }

    /// Serializes the header, including its CRC.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut buf = [0u8; HEADER_BYTES];
        buf[10..12].copy_from_slice(&(RECORD_BYTES as u16).to_le_bytes());
        buf[12..16].copy_from_slice(&self.page_size.to_le_bytes());
        buf[16..24].copy_from_slice(&self.page_bytes.to_le_bytes());
        buf[24..32].copy_from_slice(&self.total_pages.to_le_bytes());
        buf[32..40].copy_from_slice(&self.record_count.to_le_bytes());
        TRACE.seal(&mut buf);
        buf
    }

    /// Reads and validates a header from `input`: the frame's checks
    /// ([`Frame::open`](crate::frame::Frame::open)), then the record size
    /// and the page size.
    ///
    /// # Errors
    ///
    /// Any [`Frame::open`](crate::frame::Frame::open) error (an unfinished
    /// writer's file is [`StoreError::Unsealed`]), then
    /// [`StoreError::BadRecordSize`] or [`StoreError::BadPageSize`].
    pub fn read(input: &mut impl Read) -> Result<Self, StoreError> {
        let buf = TRACE.open(input)?;
        let field = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
        let record_bytes = u16::from_le_bytes([buf[10], buf[11]]);
        if record_bytes as usize != RECORD_BYTES {
            return Err(StoreError::BadRecordSize {
                found: record_bytes,
            });
        }
        let header = Header {
            page_size: u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")),
            page_bytes: field(16),
            total_pages: field(24),
            record_count: field(32),
        };
        Self::validate_page_size(header.page_size)?;
        Ok(header)
    }
}

/// Packs one record into `buf` (exactly [`RECORD_BYTES`] long).
pub(crate) fn encode_record(record: &TraceRecord, buf: &mut [u8]) {
    debug_assert_eq!(buf.len(), RECORD_BYTES);
    buf[0..8].copy_from_slice(&record.time.to_le_bytes());
    buf[8..12].copy_from_slice(&record.file.0.to_le_bytes());
    buf[12..20].copy_from_slice(&record.first_page.to_le_bytes());
    buf[20..28].copy_from_slice(&record.pages.to_le_bytes());
    buf[28] = match record.kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    };
}

/// Unpacks one record from `buf`; `index` is its stream position for error
/// reporting.
pub(crate) fn decode_record(buf: &[u8], index: u64) -> Result<TraceRecord, StoreError> {
    debug_assert_eq!(buf.len(), RECORD_BYTES);
    let kind = match buf[28] {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        value => return Err(StoreError::BadKind { index, value }),
    };
    Ok(TraceRecord {
        time: f64::from_le_bytes(buf[0..8].try_into().unwrap()),
        file: FileId(u32::from_le_bytes(buf[8..12].try_into().unwrap())),
        first_page: u64::from_le_bytes(buf[12..20].try_into().unwrap()),
        pages: u64::from_le_bytes(buf[20..28].try_into().unwrap()),
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Header {
        Header {
            page_size: DEFAULT_PAGE_SIZE,
            page_bytes: 1 << 20,
            total_pages: 4096,
            record_count: 1000,
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = header();
        assert_eq!(Header::read(&mut &h.encode()[..]).unwrap(), h);
    }

    #[test]
    fn capacity_and_page_math() {
        let h = header();
        assert_eq!(h.capacity(), (4096 - 8) / 29);
        assert_eq!(h.data_pages(), 1000 / 140 + 1);
        let empty = Header {
            record_count: 0,
            ..h
        };
        assert_eq!(empty.data_pages(), 0);
        let exact = Header {
            record_count: 280,
            ..h
        };
        assert_eq!(exact.data_pages(), 2);
    }

    #[test]
    fn record_roundtrip_is_bit_exact() {
        let r = TraceRecord {
            time: 1234.5678e-3,
            file: FileId(77),
            first_page: u64::MAX - 5,
            pages: 3,
            kind: AccessKind::Write,
        };
        let mut buf = [0u8; RECORD_BYTES];
        encode_record(&r, &mut buf);
        let back = decode_record(&buf, 0).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.time.to_bits(), r.time.to_bits());
    }

    #[test]
    fn bad_kind_byte_is_typed() {
        let mut buf = [0u8; RECORD_BYTES];
        encode_record(
            &TraceRecord {
                time: 0.0,
                file: FileId(0),
                first_page: 0,
                pages: 1,
                kind: AccessKind::Read,
            },
            &mut buf,
        );
        buf[28] = 7;
        assert!(matches!(
            decode_record(&buf, 42),
            Err(StoreError::BadKind {
                index: 42,
                value: 7
            })
        ));
    }
}
