//! Loaders stay linear-time and total on hostile bytes: each case must
//! return — `Ok` or a typed error — within a fixed time budget, and never
//! panic or abort.
//!
//! Every loader is fed its hostile input at 1× and 4× a base size. Where a
//! loader must read its whole input, the 4× run may take at most 5× the
//! 1× run; the base sizes make the 1× run take tens of milliseconds in a
//! debug build, and the ratio is only checked when it does. The ratio is
//! taken on the thread's CPU clock, which does not count time spent
//! waiting for a CPU.
//!
//! Memory follows the same rule: what a loader or a per-page table
//! allocates is bounded by the bytes or pages actually seen, never by a
//! size a header, a client or a page number claims.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jpmd::mem::StackProfiler;
use jpmd::store::format::MAX_PAGE_SIZE;
use jpmd::store::frame::{CHECKPOINT, TRACE};
use jpmd::store::{read_trace, Header, PeriodIndex, PeriodIndexWriter, StoreError};
use jpmd::store::{TraceReader, TraceWriter};
use jpmd::trace::{AccessKind, FileId, Trace, TraceRecord};
use jpmd_ckpt::{load_checkpoint, CkptError};
use jpmd_obs::{ObsRecord, Telemetry};
use jpmd_serve::{build_stepper, ServeConfig};

/// Counts the bytes each thread asks the allocator for, so a case can
/// bound what a loader reserves, touched or not.
struct CountingAlloc;

thread_local! {
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = REQUESTED.try_with(|total| total.set(total.get().saturating_add(bytes)));
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches only a const-initialized thread-local and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes the current thread has asked the allocator for so far.
fn requested() -> usize {
    REQUESTED.with(Cell::get)
}

/// CPU time the calling thread has used (user and system). Unlike the
/// wall clock it does not grow while the thread waits for a CPU, so other
/// runnable threads cannot stretch a timed run; they can still slow it
/// through the caches they share.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable timespec for the whole call.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(now.tv_sec as u64, now.tv_nsec as u32)
}

/// Off 64-bit Linux: wall time since the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_time() -> Duration {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed()
}

/// The most any one run may take: far more than any case here needs in a
/// debug build, far less than a hang.
const BUDGET: Duration = Duration::from_secs(3);

/// Builds the input at 1× and 4× `size`, then times the loader on each,
/// alternating sizes so a busy machine slows both alike, and keeps the
/// fastest of five runs. Both must finish within [`BUDGET`] of wall time;
/// when the loader reads its whole input and the 1× run takes at least
/// 20 ms of [`thread_cpu_time`], the 4× run may take at most 5× as much.
fn check_scaling<I>(
    name: &str,
    size: usize,
    reads_whole_input: bool,
    build: impl Fn(usize) -> I,
    load: impl Fn(&I),
) {
    let inputs = [build(size), build(4 * size)];
    let mut fastest = [(Duration::MAX, Duration::MAX); 2];
    for _ in 0..5 {
        for (input, (wall, cpu)) in inputs.iter().zip(&mut fastest) {
            let (start, start_cpu) = (Instant::now(), thread_cpu_time());
            load(input);
            *cpu = (*cpu).min(thread_cpu_time() - start_cpu);
            *wall = (*wall).min(start.elapsed());
        }
    }
    let [(one_wall, one), (four_wall, four)] = fastest;
    println!("{name}: 1x {one:?}, 4x {four:?} of CPU time");
    assert!(
        one_wall < BUDGET && four_wall < BUDGET,
        "{name}: 1x {one_wall:?}, 4x {four_wall:?} of wall time"
    );
    if reads_whole_input && one >= Duration::from_millis(20) {
        assert!(
            four <= one * 5,
            "{name}: 4x took {four:?}, 1x {one:?} of CPU time"
        );
    }
}

/// A file under the temp dir, removed when dropped.
struct TempFile(PathBuf);

impl TempFile {
    /// `name` gets the input's size prepended, so the 1× and 4× inputs
    /// of one case live side by side.
    fn new(name: &str, size: usize, bytes: &[u8]) -> Self {
        let file = format!("jpmd-hostile-{}-{size}-{name}", std::process::id());
        let path = std::env::temp_dir().join(file);
        std::fs::write(&path, bytes).expect("write hostile input");
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn record(i: u64) -> TraceRecord {
    TraceRecord {
        time: i as f64,
        file: FileId(0),
        first_page: i % 1000,
        pages: 1,
        kind: AccessKind::Read,
    }
}

/// The data pages of a sealed store holding `bytes / 4096` full default
/// pages (140 records each), without its header.
fn full_pages(bytes: usize) -> Vec<u8> {
    let pages = (bytes / 4096).max(1) as u64;
    let mut writer = TraceWriter::new(std::io::Cursor::new(Vec::new()), 4096, 1000).unwrap();
    for i in 0..pages * 140 {
        writer.write_record(&record(i)).unwrap();
    }
    let store = writer.finish().unwrap().into_inner();
    store[TRACE.header_bytes..].to_vec()
}

#[test]
fn json_trace_holding_one_huge_string_decodes_in_linear_time() {
    // Two-byte characters, with an escape every 64 characters so both the
    // plain-run and the escape paths of the decoder run.
    let build = |bytes: usize| {
        let mut doc = String::with_capacity(bytes + bytes / 64 + 2);
        doc.push('"');
        for i in 0..bytes / 2 {
            if i % 64 == 63 {
                doc.push_str("\\n");
            } else {
                doc.push('é');
            }
        }
        doc.push('"');
        doc
    };
    check_scaling("json string", 4 << 20, true, build, |doc| {
        assert!(
            Trace::from_reader(doc.as_bytes()).is_err(),
            "a bare string is not a trace"
        );
    });
}

#[test]
fn json_trace_nested_past_the_limit_is_an_error_not_a_stack_overflow() {
    check_scaling(
        "json nesting",
        1 << 20,
        false,
        |n| "[".repeat(n),
        |doc| {
            let err = Trace::from_reader(doc.as_bytes()).unwrap_err();
            assert!(err.to_string().contains("nesting"), "{err}");
        },
    );
}

#[test]
fn wal_line_nested_past_the_limit_is_an_error() {
    let build = |n: usize| format!(r#"{{"seq":0,"event":{}"#, "[".repeat(n));
    check_scaling("wal line nesting", 1 << 20, false, build, |line| {
        let err = ObsRecord::from_line(line).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    });
}

#[test]
fn serve_request_line_with_a_million_words_is_refused() {
    let build = |n: usize| format!("FEED tenant-0 {}", "1.5 ".repeat(n / 4));
    check_scaling("serve request", 1 << 20, false, build, |line| {
        assert!(jpmd_serve::parse_request(line).is_err());
    });
}

#[test]
fn jpt_whose_header_claims_2_to_the_40_records_reads_only_its_pages() {
    let build = |bytes: usize| {
        let header = Header {
            page_size: 4096,
            page_bytes: 4096,
            total_pages: 1000,
            record_count: 1 << 40,
        };
        let mut file = header.encode().to_vec();
        file.extend_from_slice(&full_pages(bytes));
        TempFile::new("lying.jpt", bytes, &file)
    };
    check_scaling("jpt lying count", 2 << 20, true, build, |file| {
        let size = std::fs::metadata(&file.0).unwrap().len() as usize;
        let pages = ((size - TRACE.header_bytes) / 4096) as u64;
        match read_trace(&file.0) {
            Err(StoreError::Truncated { page }) => assert_eq!(page, pages + 1),
            other => panic!("expected Truncated, got {other:?}"),
        }
    });
}

/// The bytes `load` asks the allocator for.
fn allocated_by<T>(load: impl FnOnce() -> T) -> (usize, T) {
    let before = requested();
    let out = load();
    (requested() - before, out)
}

#[test]
fn jpt_whose_header_claims_16_mib_pages_allocates_by_the_bytes_present() {
    let header = Header {
        page_size: MAX_PAGE_SIZE,
        page_bytes: 4096,
        total_pages: 1000,
        record_count: 1000,
    };
    // The bare 64-byte header, then a first page cut off after `bytes`.
    let bare = TempFile::new("huge-pages.jpt", 0, &header.encode());
    let size = TRACE.header_bytes;
    let (allocated, reader) = allocated_by(|| TraceReader::open(&bare.0));
    assert!(reader.is_ok(), "a valid header opens");
    assert!(
        allocated <= 2 * size + (1 << 16),
        "opening a {size}-byte file asked for {allocated} bytes"
    );
    let build = |bytes: usize| {
        let mut file = header.encode().to_vec();
        file.extend((0..bytes).map(|i| (i * 31 % 251) as u8));
        TempFile::new("huge-pages.jpt", bytes, &file)
    };
    check_scaling("jpt 16 MiB pages", 1 << 20, true, build, |file| {
        let size = std::fs::metadata(&file.0).unwrap().len() as usize;
        let (allocated, first) = allocated_by(|| TraceReader::open(&file.0).unwrap().next());
        assert!(
            matches!(first, Some(Err(StoreError::Truncated { page: 1 }))),
            "{first:?}"
        );
        assert!(
            allocated <= 2 * size + (1 << 16),
            "reading a {size}-byte file asked for {allocated} bytes"
        );
    });
}

#[test]
fn jpt_streamed_through_the_reader_allocates_the_same_at_any_length() {
    // Streaming keeps O(page) resident: 16× the records, the same bytes.
    let stream = |records: u64| {
        let file = TempFile::new("stream.jpt", records as usize, b"");
        let mut writer = TraceWriter::create(&file.0, 4096, 1000).unwrap();
        for i in 0..records {
            writer.write_record(&record(i)).unwrap();
        }
        writer.finish().unwrap();
        let (allocated, read) = allocated_by(|| {
            TraceReader::open(&file.0)
                .unwrap()
                .map(Result::unwrap)
                .count()
        });
        assert_eq!(read as u64, records);
        allocated
    };
    let (short, long) = (stream(14_000), stream(16 * 14_000));
    assert_eq!(
        short, long,
        "streaming 14,000 records asked for {short} bytes, 224,000 for {long}"
    );
}

#[test]
fn profiler_memory_depends_on_distinct_pages_not_page_numbers() {
    let profile = |pages: &mut dyn Iterator<Item = u64>| {
        allocated_by(|| {
            let mut profiler = StackProfiler::new();
            for page in pages {
                profiler.observe(page);
            }
            profiler
        })
        .0
    };
    let dense = profile(&mut (0..10_000u64));
    let spread = profile(&mut (0..10_000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 1));
    assert!(
        spread <= 2 * dense,
        "pages over 0..2^63 took {spread} bytes, pages 0..10000 {dense}"
    );
}

#[test]
fn serve_tenant_of_2_to_the_40_pages_costs_what_a_small_one_does() {
    let stepper_bytes = |pages: u64, page: u64| {
        let mut cfg = ServeConfig::new(std::env::temp_dir().join("jpmd-hostile-serve"));
        cfg.telemetry = false;
        allocated_by(|| {
            let mut stepper = build_stepper(
                &cfg,
                "tenant",
                pages,
                &Telemetry::disabled(),
                Arc::new(AtomicBool::new(false)),
                None,
            )
            .expect("tenant stepper");
            stepper.feed(TraceRecord {
                time: 1.0,
                file: FileId(0),
                first_page: page,
                pages: 1,
                kind: AccessKind::Read,
            });
            stepper
        })
        .0
    };
    let small = stepper_bytes(4096, 0);
    let huge = stepper_bytes(1 << 40, (1 << 40) - 1);
    assert!(
        huge <= small + (1 << 20),
        "a 2^40-page tenant took {huge} bytes, a 4096-page one {small}"
    );
}

#[test]
fn jpt_left_by_an_unfinished_writer_is_refused_at_open() {
    let build = |bytes: usize| {
        let file = TempFile::new("unsealed.jpt", bytes, b"");
        let mut writer = TraceWriter::create(&file.0, 4096, 1000).unwrap();
        for i in 0..(bytes / 4096) as u64 * 140 {
            writer.write_record(&record(i)).unwrap();
        }
        drop(writer);
        file
    };
    check_scaling("jpt unsealed", 1 << 20, false, build, |file| {
        assert!(matches!(read_trace(&file.0), Err(StoreError::Unsealed)));
        assert!(matches!(
            TraceReader::open(&file.0),
            Err(StoreError::Unsealed)
        ));
        assert!(matches!(
            TraceReader::open_recovering(&file.0),
            Err(StoreError::Unsealed)
        ));
    });
}

#[test]
fn jpt_of_garbage_pages_reads_in_recovery_mode_as_all_skipped() {
    let build = |bytes: usize| {
        let pages = bytes / 4096;
        let header = Header {
            page_size: 4096,
            page_bytes: 4096,
            total_pages: 1000,
            record_count: pages as u64 * 140,
        };
        let mut file = header.encode().to_vec();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        file.extend((0..pages * 4096).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        }));
        (TempFile::new("garbage.jpt", bytes, &file), pages)
    };
    check_scaling(
        "jpt garbage pages",
        4 << 20,
        true,
        build,
        |(file, pages)| {
            let mut reader = TraceReader::open_recovering(&file.0).unwrap();
            assert_eq!((&mut reader).count(), 0);
            assert_eq!(reader.skipped().pages.len(), *pages);
        },
    );
}

#[test]
fn jck_of_nested_hostile_counts_allocates_as_it_decodes() {
    // 120 nested array headers, each claiming as many elements as bytes
    // remain, then bytes that are no value tag at all.
    let build = |bytes: usize| {
        let mut payload = Vec::with_capacity(bytes);
        for _ in 0..120 {
            payload.push(6);
            let remaining = (bytes - payload.len() - 4) as u32;
            payload.extend_from_slice(&remaining.to_le_bytes());
        }
        payload.resize(bytes, 0xff);
        let mut header = [0u8; CHECKPOINT.header_bytes];
        header[10..18].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[18..22].copy_from_slice(&jpmd::store::crc32(&payload).to_le_bytes());
        CHECKPOINT.seal(&mut header);
        let mut file = header.to_vec();
        file.extend_from_slice(&payload);
        TempFile::new("nested.jck", bytes, &file)
    };
    check_scaling("jck nested counts", 4 << 20, true, build, |file| {
        let size = std::fs::metadata(&file.0).unwrap().len() as usize;
        let before = requested();
        let result = load_checkpoint(&file.0);
        let allocated = requested() - before;
        assert!(matches!(result, Err(CkptError::Decode(_))), "{result:?}");
        assert!(
            allocated <= 2 * size + (1 << 16),
            "loading a {size}-byte file asked for {allocated} bytes"
        );
    });
}

#[test]
fn jx_holding_garbage_after_a_valid_header_loads_empty() {
    let build = |bytes: usize| {
        let file = TempFile::new("garbage.jx", bytes, b"");
        drop(PeriodIndexWriter::create(&file.0, 16).unwrap());
        let mut contents = std::fs::read(&file.0).unwrap();
        contents.extend((0..bytes).map(|i| (i * 31 % 251) as u8));
        std::fs::write(&file.0, &contents).unwrap();
        file
    };
    check_scaling("jx garbage", 1 << 20, true, build, |file| {
        assert!(PeriodIndex::load(&file.0).unwrap().is_empty());
    });
}
