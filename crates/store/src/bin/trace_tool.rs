//! `trace-tool` — generate, inspect, convert, and verify `jpmd` workload
//! traces from the command line.
//!
//! ```text
//! trace-tool gen <out> [data_gb] [rate_mb] [popularity] [secs] [seed]
//! trace-tool stats <trace>
//! trace-tool cat <trace> [limit]
//! trace-tool convert <in> <out>
//! trace-tool verify <trace>
//! trace-tool scan <trace.jpt>
//! trace-tool scale-rate <in> <out> <factor>
//! trace-tool scale-data <in> <out> <growth>
//! ```
//!
//! Trace paths ending in `.jpt` use the paged binary store
//! (`jpmd-store`); anything else is the JSON produced by
//! [`Trace::to_writer`]. `convert` therefore turns JSON into binary and
//! back purely by naming the output. `gen` uses the same generator as the
//! experiment harness, so a saved trace replays byte-identically through
//! the simulator (see the `determinism` and `store_stream` integration
//! tests).
//!
//! Exit codes: `0` success, `1` runtime failure (I/O, corrupt store,
//! malformed trace), `2` usage error (unknown subcommand, missing or
//! unparsable argument) — the shared `jpmd_store::cli` convention.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use std::process::ExitCode;

use jpmd_store::cli::{self, parse_arg, parse_required, require, CliError};
use jpmd_store::TraceReader;
use jpmd_trace::{synth, Trace, TraceStats, WorkloadBuilder, GIB, MIB};

const USAGE: &str = "usage:
  trace-tool gen <out> [data_gb] [rate_mb] [popularity] [secs] [seed]
  trace-tool stats <trace>
  trace-tool cat <trace> [limit]
  trace-tool convert <in> <out>
  trace-tool verify <trace>
  trace-tool scan <trace.jpt>
  trace-tool scale-rate <in> <out> <factor>
  trace-tool scale-data <in> <out> <growth>

traces ending in .jpt use the paged binary store; all others are JSON
(scan reads a .jpt in recovery mode, reporting every page's health)";

/// `.jpt` selects the binary store; everything else is JSON.
fn is_binary(path: &str) -> bool {
    Path::new(path)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("jpt"))
}

fn load(path: &str) -> Result<Trace, CliError> {
    if is_binary(path) {
        Ok(jpmd_store::read_trace(path)?)
    } else {
        Ok(Trace::from_reader(BufReader::new(File::open(path)?))?)
    }
}

fn save(trace: &Trace, path: &str) -> Result<(), CliError> {
    if is_binary(path) {
        jpmd_store::write_trace(path, trace)?;
    } else {
        trace.to_writer(BufWriter::new(File::create(path)?))?;
    }
    println!(
        "wrote {path}: {} records ({})",
        trace.records().len(),
        if is_binary(path) { "binary" } else { "json" }
    );
    Ok(())
}

fn print_stats(trace: &Trace) {
    let s = TraceStats::measure(trace);
    println!("records            {}", s.requests);
    println!("span               {:.1} s", s.span_secs);
    println!("pages requested    {}", s.pages_requested);
    println!(
        "mean rate          {:.2} MB/s",
        s.mean_rate_bytes_per_sec / (1024.0 * 1024.0)
    );
    println!("unique files       {}", s.unique_files);
    println!(
        "data set           {:.2} GB ({} pages of {} KiB)",
        trace.data_set_bytes() as f64 / GIB as f64,
        trace.total_pages(),
        trace.page_bytes() / 1024
    );
}

/// Streams a binary store end to end (header, every page CRC, every
/// record invariant) without materializing it; JSON traces are verified
/// by loading, which runs the same invariant checks.
fn verify(path: &str) -> Result<(), CliError> {
    if is_binary(path) {
        let mut reader = TraceReader::open(path)?;
        let header = *reader.header();
        let mut records = 0u64;
        let mut span = 0.0f64;
        for record in &mut reader {
            let record = record?;
            records += 1;
            span = record.time;
        }
        println!(
            "ok: {records} records over {span:.1} s, {} data pages of {} bytes (crc32 verified)",
            header.data_pages(),
            header.page_size,
        );
    } else {
        let trace = load(path)?;
        println!(
            "ok: {} records over {:.1} s (json, invariants verified)",
            trace.records().len(),
            trace.span()
        );
    }
    Ok(())
}

/// Reads a binary store in recovery mode, reporting the health of every
/// data page it visited (ok / corrupt), then one line for the tail a
/// truncation left unreachable, and the records salvaged. The output is
/// linear in the file's size, whatever record count its header claims.
/// Fails only when *nothing* is salvageable — a store with a valid header
/// and zero readable data pages.
fn scan(path: &str) -> Result<(), CliError> {
    if !is_binary(path) {
        return Err(CliError::Usage("scan requires a .jpt binary store".into()));
    }
    let mut reader = jpmd_store::TraceReader::open_recovering(path)?;
    let header = *reader.header();
    let mut records = 0u64;
    for record in &mut reader {
        record?; // only I/O errors survive recovery mode
        records += 1;
    }
    let visited = reader.pages_read();
    let data_pages = header.data_pages();
    let capacity = u64::from(header.capacity());
    // Skipped pages come in stream order: the corrupt pages among those
    // visited, then at most one truncated page past them.
    let mut skipped = reader.skipped().pages.iter().peekable();
    let mut ok_pages = 0u64;
    for page in 1..=visited {
        if let Some(bad) = skipped.next_if(|s| s.page == page) {
            println!(
                "page {page:>6}  corrupt: {} ({} records lost)",
                bad.reason, bad.expected_records
            );
        } else {
            // Every page but the last is full; the last holds the rest.
            let held = if page == data_pages {
                header.record_count - (data_pages - 1) * capacity
            } else {
                capacity
            };
            println!("page {page:>6}  ok ({held} records)");
            ok_pages += 1;
        }
    }
    if let Some(cut) = skipped.next() {
        println!(
            "pages {}..={data_pages}  truncated: {} (unreachable)",
            cut.page, cut.reason
        );
    }
    println!(
        "scanned {data_pages} data pages: {ok_pages} ok, {} skipped; \
         {records} of {} records recovered ({} lost)",
        data_pages - ok_pages,
        header.record_count,
        reader.skipped().records_lost
    );
    if data_pages > 0 && ok_pages == 0 {
        return Err(cli::runtime("no readable data pages in store"));
    }
    Ok(())
}

fn cat(path: &str, limit: usize) -> Result<(), CliError> {
    let trace = load(path)?;
    println!(
        "# page_bytes={} total_pages={} records={}",
        trace.page_bytes(),
        trace.total_pages(),
        trace.records().len()
    );
    for r in trace.records().iter().take(limit) {
        let kind = match r.kind {
            jpmd_trace::AccessKind::Read => 'R',
            jpmd_trace::AccessKind::Write => 'W',
        };
        println!(
            "{:.6} {} {} {} {kind}",
            r.time, r.file.0, r.first_page, r.pages
        );
    }
    if trace.records().len() > limit {
        println!("... ({} more)", trace.records().len() - limit);
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), CliError> {
    let cmd = require(args, 1, "subcommand")?;
    match cmd {
        "gen" => {
            let out = require(args, 2, "out")?;
            let data_gb: u64 = parse_arg(args, 3, "data_gb", 16)?;
            let rate_mb: u64 = parse_arg(args, 4, "rate_mb", 100)?;
            let popularity: f64 = parse_arg(args, 5, "popularity", 0.1)?;
            let secs: f64 = parse_arg(args, 6, "secs", 3600.0)?;
            let seed: u64 = parse_arg(args, 7, "seed", 42)?;
            let trace = WorkloadBuilder::new()
                .data_set_bytes(data_gb * GIB)
                .rate_bytes_per_sec(rate_mb * MIB)
                .popularity(popularity)
                .duration_secs(secs)
                .seed(seed)
                .build()?;
            save(&trace, out)?;
            print_stats(&trace);
        }
        "stats" => print_stats(&load(require(args, 2, "trace")?)?),
        "cat" => {
            let path = require(args, 2, "trace")?;
            let limit: usize = parse_arg(args, 3, "limit", usize::MAX)?;
            cat(path, limit)?;
        }
        "convert" => {
            let inp = require(args, 2, "in")?;
            let out = require(args, 3, "out")?;
            save(&load(inp)?, out)?;
        }
        "verify" => verify(require(args, 2, "trace")?)?,
        "scan" => scan(require(args, 2, "trace.jpt")?)?,
        "scale-rate" => {
            let inp = require(args, 2, "in")?;
            let out = require(args, 3, "out")?;
            let factor: f64 = parse_required(args, 4, "factor")?;
            let scaled = synth::scale_rate(&load(inp)?, factor)?;
            save(&scaled, out)?;
        }
        "scale-data" => {
            let inp = require(args, 2, "in")?;
            let out = require(args, 3, "out")?;
            let growth: u32 = parse_required(args, 4, "growth")?;
            let trace = load(inp)?;
            // Reconstruct the file set from the trace's whole-file
            // records; files the trace never touches are unknown and get a
            // 1-page placeholder (they receive no accesses either way).
            let max_file = trace
                .records()
                .iter()
                .map(|r| r.file.0)
                .max()
                .ok_or_else(|| cli::runtime("cannot scale an empty trace"))?;
            let mut counts: Vec<u64> = vec![1; max_file as usize + 1];
            for r in trace.records() {
                counts[r.file.0 as usize] = r.pages;
            }
            let fileset = jpmd_trace::FileSet::from_page_counts(counts, trace.page_bytes())?;
            let (scaled, _) = synth::scale_data_set(&trace, &fileset, growth)?;
            save(&scaled, out)?;
        }
        unknown => {
            return Err(CliError::Usage(format!("unknown subcommand '{unknown}'")));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    cli::exit_with(run(&args), USAGE)
}
