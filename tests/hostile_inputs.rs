//! Loaders stay linear-time and total on hostile bytes: each case must
//! return — `Ok` or a typed error — within a fixed time budget, and never
//! panic.

use std::time::{Duration, Instant};

use jpmd::trace::Trace;

/// A linear JSON decoder reads the 512 KiB string below in about 13 ms in
/// a debug build; one that rescans the rest of the input per character
/// takes seconds.
const BUDGET: Duration = Duration::from_millis(500);

#[test]
fn json_trace_holding_one_huge_string_decodes_in_linear_time() {
    // 512 KiB of two-byte characters, with an escape every 64 characters
    // so both the plain-run and the escape paths of the decoder run.
    let mut doc = String::with_capacity(512 * 1024 + 8 * 1024);
    doc.push('"');
    for i in 0..256 * 1024 {
        if i % 64 == 63 {
            doc.push_str("\\n");
        } else {
            doc.push('é');
        }
    }
    doc.push('"');
    let start = Instant::now();
    let result = Trace::from_reader(doc.as_bytes());
    let elapsed = start.elapsed();
    assert!(result.is_err(), "a bare string is not a trace");
    assert!(
        elapsed < BUDGET,
        "decoding a {} KiB string took {elapsed:?}",
        doc.len() / 1024
    );
}
