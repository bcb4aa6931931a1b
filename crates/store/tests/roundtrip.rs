//! Property and corruption tests for the paged binary store: any
//! well-formed trace round-trips bit-exactly through the format (reads
//! and writes alike, across page sizes), and every corruption mode —
//! truncation, bit flips, foreign magic/version — surfaces as a typed
//! [`StoreError`], never a panic.

use std::io::Cursor;

use jpmd_store::{format, StoreError, TraceReader, TraceWriter};
use jpmd_trace::{AccessKind, FileId, Trace, TraceRecord};
use proptest::prelude::*;

/// A random well-formed trace over a 64-page data set, with roughly
/// `write_pct` percent write records.
fn arb_trace(write_pct: u8) -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0.0f64..2000.0, 0u64..60, 1u64..5, 0u8..100), 0..150).prop_map(
        move |recs| {
            let records = recs
                .into_iter()
                .map(|(time, first_page, pages, roll)| TraceRecord {
                    time,
                    file: FileId(first_page as u32),
                    first_page,
                    pages,
                    kind: if roll < write_pct {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                })
                .collect();
            Trace::new(records, 1 << 20, 64)
        },
    )
}

fn to_store(trace: &Trace, page_size: u32) -> Vec<u8> {
    let mut writer = TraceWriter::with_page_size(
        Cursor::new(Vec::new()),
        trace.page_bytes(),
        trace.total_pages(),
        page_size,
    )
    .expect("writer");
    for record in trace.records() {
        writer.write_record(record).expect("write");
    }
    writer.finish().expect("finish").into_inner()
}

fn from_store(bytes: Vec<u8>) -> Result<Trace, StoreError> {
    let mut reader = TraceReader::new(Cursor::new(bytes))?;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // gen trace -> binary -> read back == original, bit for bit,
    // including `AccessKind::Write` records and across page sizes that
    // force single- and many-page layouts.
    #[test]
    fn binary_roundtrip_is_identity(trace in arb_trace(35), page_choice in 0usize..3) {
        let page_size = [format::MIN_PAGE_SIZE, 256, format::DEFAULT_PAGE_SIZE][page_choice];
        let bytes = to_store(&trace, page_size);
        let back = from_store(bytes).expect("well-formed store must read back");
        prop_assert_eq!(back.records().len(), trace.records().len());
        for (a, b) in trace.records().iter().zip(back.records()) {
            prop_assert_eq!(a.time.to_bits(), b.time.to_bits());
            prop_assert_eq!(a.file, b.file);
            prop_assert_eq!(a.first_page, b.first_page);
            prop_assert_eq!(a.pages, b.pages);
            prop_assert_eq!(a.kind, b.kind);
        }
        prop_assert_eq!(back.page_bytes(), trace.page_bytes());
        prop_assert_eq!(back.total_pages(), trace.total_pages());
    }

    // Flipping any single byte of the payload is detected: the read
    // fails with a typed error (checksum on a data page, or a header
    // identity/checksum error), never a panic and never silent
    // acceptance of different records.
    #[test]
    fn any_single_byte_flip_is_detected(
        trace in arb_trace(20),
        flip_at in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        let bytes = to_store(&trace, 256);
        let mut corrupt = bytes.clone();
        let at = flip_at % corrupt.len();
        corrupt[at] ^= 1 << flip_bit;
        match from_store(corrupt) {
            Err(_) => {} // typed rejection: what we want
            Ok(back) => {
                // A flip inside page padding or unread trailing bytes is
                // CRC-detected, so the only acceptable Ok is impossible:
                // CRC covers every stored byte. Reaching here with equal
                // records would mean the flip landed outside any page,
                // which the format's exact-length property rules out.
                prop_assert!(
                    false,
                    "corrupted store read back Ok with {} records (flip at {at})",
                    back.records().len()
                );
            }
        }
    }

    // Truncating the file anywhere strictly inside the data region
    // yields `Truncated` or a checksum error on the cut page.
    #[test]
    fn truncation_is_detected(trace in arb_trace(0), cut_frac in 0.0f64..1.0) {
        if trace.records().is_empty() {
            continue; // nothing to truncate; skip this case
        }
        let bytes = to_store(&trace, 256);
        let data_len = bytes.len() - format::HEADER_BYTES;
        let cut = format::HEADER_BYTES + (cut_frac * (data_len - 1) as f64) as usize;
        let result = from_store(bytes[..cut].to_vec());
        prop_assert!(
            matches!(result, Err(StoreError::Truncated { .. })),
            "cut at {cut} of {} gave {result:?}",
            bytes.len()
        );
    }
}

#[test]
fn empty_trace_roundtrips() {
    let empty = Trace::new(vec![], 4096, 16);
    let bytes = to_store(&empty, format::DEFAULT_PAGE_SIZE);
    assert_eq!(bytes.len(), format::HEADER_BYTES);
    let back = from_store(bytes).unwrap();
    assert!(back.records().is_empty());
    assert_eq!(back.total_pages(), 16);
}

#[test]
fn wrong_magic_is_a_typed_error() {
    let trace = Trace::new(
        vec![TraceRecord {
            time: 1.0,
            file: FileId(0),
            first_page: 0,
            pages: 1,
            kind: AccessKind::Read,
        }],
        1 << 20,
        64,
    );
    let mut bytes = to_store(&trace, 256);
    bytes[0..8].copy_from_slice(b"NOTAJPMD");
    assert!(matches!(
        TraceReader::new(Cursor::new(bytes)).err(),
        Some(StoreError::BadMagic { .. })
    ));
}

#[test]
fn future_version_is_a_typed_error() {
    let trace = Trace::new(vec![], 1 << 20, 64);
    let mut bytes = to_store(&trace, 256);
    bytes[8..10].copy_from_slice(&7u16.to_le_bytes());
    assert!(matches!(
        TraceReader::new(Cursor::new(bytes)).err(),
        Some(StoreError::UnsupportedVersion { found: 7 })
    ));
}

#[test]
fn truncated_header_is_a_typed_error() {
    let header = to_store(&Trace::new(vec![], 1 << 20, 64), 256);
    assert!(matches!(
        TraceReader::new(Cursor::new(header[..10].to_vec())).err(),
        Some(StoreError::Truncated { page: 0 })
    ));
    // Ten foreign bytes are named as foreign before they are called short.
    assert!(matches!(
        TraceReader::new(Cursor::new(vec![0u8; 10])).err(),
        Some(StoreError::BadMagic { .. })
    ));
}

#[test]
fn mid_page_truncation_is_a_typed_error() {
    let records: Vec<TraceRecord> = (0..20)
        .map(|i| TraceRecord {
            time: i as f64,
            file: FileId(0),
            first_page: i,
            pages: 1,
            kind: AccessKind::Read,
        })
        .collect();
    let trace = Trace::new(records, 1 << 20, 64);
    let bytes = to_store(&trace, 256);
    // Cut in the middle of the second data page.
    let cut = format::HEADER_BYTES + 256 + 100;
    assert!(cut < bytes.len());
    let mut reader = TraceReader::new(Cursor::new(bytes[..cut].to_vec())).unwrap();
    let outcome = reader.by_ref().collect::<Result<Vec<_>, _>>();
    assert!(matches!(outcome, Err(StoreError::Truncated { page: 2 })));
}
