//! `obs-tool` — inspect JSONL telemetry files produced by `jpmd-obs`.
//!
//! ```text
//! obs-tool summary <file>
//! obs-tool grep <file> --event <name>
//! obs-tool timings <file>
//! obs-tool tail <file> [n]
//! obs-tool follow <file> [--from-end N | --from-period P] [--poll-ms M] [--max-secs S] [--max-lines L]
//! obs-tool seek <file> <period>
//! obs-tool range <file> <from> <to>
//! obs-tool index <file> [stride]
//! ```
//!
//! `summary` counts records by event type and sketches the run (periods
//! seen, policy decisions, last decision's operating point). `grep`
//! prints the raw lines of one event type, suitable for piping into
//! further tooling. `timings` aggregates `SpanEnd` events per span name.
//! `tail` prints the last `n` records (default 10) with their sequence
//! numbers, seeking backward from the end — O(n lines), not O(file).
//! `follow` keeps watching a live WAL ([`jpmd_obs::wal::Follower`]):
//! print the last `--from-end` lines (default 10) — or seek a period
//! via the `.jx` index with `--from-period` — then poll every
//! `--poll-ms` (default 200) for appended lines, reassembling torn
//! writes, until interrupted or `--max-secs`/`--max-lines` is reached
//! (0, the default, means unbounded: watch a daemon forever).
//!
//! The indexed queries ride the `<file>.jx` sparse period index
//! ([`jpmd_obs::wal`]): `seek` jumps to the first record at-or-past a
//! period, `range` prints every period-carrying record in an inclusive
//! period window, and `index` (re)builds the sidecar for an existing
//! WAL. All of them verify the index before trusting it and fall back to a
//! full scan, so answers are identical with or without a sidecar.
//!
//! Exit codes: `0` success, `1` runtime failure (missing file, malformed
//! line), `2` usage error (the shared `jpmd_obs::cli` convention).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::process::ExitCode;

use jpmd_obs::cli::{exit_with, parse_arg, parse_required, require, CliError};
use jpmd_obs::{wal, ObsEvent, ObsRecord};

const USAGE: &str = "usage:
  obs-tool summary <file> [more files...]
  obs-tool grep <file> --event <name>
  obs-tool timings <file>
  obs-tool tail <file> [n]
  obs-tool follow <file> [--from-end N | --from-period P] [--poll-ms M] [--max-secs S] [--max-lines L]
  obs-tool seek <file> <period>
  obs-tool range <file> <from> <to>
  obs-tool index <file> [stride]

<file> is a JSONL telemetry stream written by a JsonlSink; seek/range
use the <file>.jx sparse period index when present (build one with
'index'), follow tails a live WAL (0 for --max-secs/--max-lines = unbounded)";

/// Parses every line of `path`, yielding `(line_no, raw_line, record)`.
/// A malformed line is a runtime error naming the offending line number.
fn read_records(path: &str) -> Result<Vec<(usize, String, ObsRecord)>, CliError> {
    let reader = BufReader::new(File::open(path)?);
    let mut out = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let record = ObsRecord::from_line(&line).map_err(|e| {
            CliError::Runtime(format!("{path}:{}: malformed record: {e}", idx + 1).into())
        })?;
        out.push((idx + 1, line, record));
    }
    Ok(out)
}

/// Per-shard (or per-file) aggregation of one tagged stream: sequence
/// continuity is tracked inside the stream, never across streams, so
/// concurrent shards don't produce seq-gap false positives.
#[derive(Default)]
struct StreamAgg {
    records: u64,
    decisions: u64,
    seq_gaps: u64,
    prev_seq: Option<u64>,
}

fn summary(paths: &[&str]) -> Result<(), CliError> {
    let mut records = Vec::new();
    for (file_idx, path) in paths.iter().enumerate() {
        for (_, _, record) in read_records(path)? {
            records.push((file_idx, record));
        }
    }
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut periods = 0u64;
    let mut decisions = 0u64;
    let mut last_decision: Option<&ObsRecord> = None;
    let mut infeasible_periods = 0u64;
    let mut fallbacks = 0u64;
    let mut recoveries = 0u64;
    let mut last_degradation: Option<&ObsRecord> = None;
    let mut seq_gaps = 0u64;
    // Each (file, shard tag) pair is its own gap-free sequence space:
    // a shard-tagged WAL and an untagged one never share a counter.
    let mut streams: BTreeMap<(usize, Option<u32>), StreamAgg> = BTreeMap::new();
    for (file_idx, record) in &records {
        let agg = streams.entry((*file_idx, record.shard)).or_default();
        if let Some(prev) = agg.prev_seq {
            if record.seq != prev + 1 {
                agg.seq_gaps += 1;
                seq_gaps += 1;
            }
        }
        agg.prev_seq = Some(record.seq);
        agg.records += 1;
        if matches!(record.event, ObsEvent::PolicyDecision { .. }) {
            agg.decisions += 1;
        }
        *counts.entry(record.event.name()).or_insert(0) += 1;
        match &record.event {
            ObsEvent::Period { .. } => periods += 1,
            ObsEvent::PolicyDecision { all_infeasible, .. } => {
                decisions += 1;
                if *all_infeasible {
                    infeasible_periods += 1;
                }
                last_decision = Some(record);
            }
            ObsEvent::Degradation { kind, .. } => {
                match kind.as_str() {
                    "fallback" | "watchdog" => fallbacks += 1,
                    "recovery" => recoveries += 1,
                    _ => {}
                }
                last_degradation = Some(record);
            }
            _ => {}
        }
    }
    println!("records            {}", records.len());
    for (name, count) in &counts {
        println!("  {name:<16} {count}");
    }
    println!("seq_gaps           {seq_gaps}");
    println!("periods            {periods}");
    println!("policy_decisions   {decisions}");
    // Per-shard breakdown whenever any record carries a shard tag (one
    // line per tagged stream), so a fleet's merged view stays legible.
    if streams.keys().any(|(_, shard)| shard.is_some()) {
        for ((file_idx, shard), agg) in &streams {
            let label = match shard {
                Some(id) => format!("shard {id}"),
                None => format!("untagged[{}]", paths[*file_idx]),
            };
            println!(
                "  {label:<16} records {:<6} policy_decisions {:<4} seq_gaps {}",
                agg.records, agg.decisions, agg.seq_gaps
            );
        }
    }
    if decisions > 0 {
        println!("all_infeasible     {infeasible_periods}");
    }
    if last_degradation.is_some() {
        println!("fallbacks          {fallbacks}");
        println!("recoveries         {recoveries}");
    }
    if let Some(record) = last_degradation {
        if let ObsEvent::Degradation {
            period,
            from,
            to,
            kind,
            reason,
            ..
        } = &record.event
        {
            println!("last degradation   period {period}: {from} -> {to} ({kind}: {reason})");
        }
    }
    if let Some(record) = last_decision {
        if let ObsEvent::PolicyDecision {
            period,
            alpha,
            beta,
            timeout_s,
            banks,
            candidates,
            ..
        } = &record.event
        {
            println!(
                "last decision      period {period}: {banks} banks, timeout {timeout_s:.2} s, \
                 pareto(α={alpha:.3}, β={beta:.3}), {} candidates",
                candidates.len()
            );
        }
    }
    Ok(())
}

fn grep(path: &str, event: &str) -> Result<(), CliError> {
    let mut matched = 0u64;
    for (_, line, record) in read_records(path)? {
        if record.event.name() == event {
            println!("{line}");
            matched += 1;
        }
    }
    eprintln!("{matched} matching record(s)");
    Ok(())
}

fn timings(path: &str) -> Result<(), CliError> {
    struct Agg {
        calls: u64,
        total: f64,
        max: f64,
    }
    let mut aggs: BTreeMap<String, Agg> = BTreeMap::new();
    for (_, _, record) in read_records(path)? {
        if let ObsEvent::SpanEnd { name, secs } = record.event {
            let agg = aggs.entry(name).or_insert(Agg {
                calls: 0,
                total: 0.0,
                max: 0.0,
            });
            agg.calls += 1;
            agg.total += secs;
            if secs > agg.max {
                agg.max = secs;
            }
        }
    }
    if aggs.is_empty() {
        println!("no SpanEnd records");
        return Ok(());
    }
    println!(
        "{:<24} {:>8} {:>12} {:>12} {:>12}",
        "span", "calls", "total_s", "mean_s", "max_s"
    );
    for (name, agg) in &aggs {
        println!(
            "{:<24} {:>8} {:>12.6} {:>12.6} {:>12.6}",
            name,
            agg.calls,
            agg.total,
            agg.total / agg.calls as f64,
            agg.max
        );
    }
    Ok(())
}

fn tail(path: &str, n: usize) -> Result<(), CliError> {
    // Backward block reads from the end: tail on a multi-GB WAL costs
    // O(n lines), and a torn trailing write is skipped, not fatal.
    for line in wal::tail_lines(path, n)? {
        let record = ObsRecord::from_line(&line)
            .map_err(|e| CliError::Runtime(format!("{path}: malformed record: {e}").into()))?;
        println!("{:>8} {}", record.seq, line);
    }
    Ok(())
}

struct FollowOpts {
    from_end: usize,
    from_period: Option<u64>,
    poll_ms: u64,
    max_secs: f64,
    max_lines: u64,
}

fn parse_follow_opts(args: &[String]) -> Result<FollowOpts, CliError> {
    let mut opts = FollowOpts {
        from_end: 10,
        from_period: None,
        poll_ms: 200,
        max_secs: 0.0,
        max_lines: 0,
    };
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, CliError> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        let raw = value(args, i, flag)?;
        let bad = |e: &dyn std::fmt::Display| CliError::Usage(format!("{flag} {raw}: {e}"));
        match flag {
            "--from-end" => opts.from_end = raw.parse().map_err(|e| bad(&e))?,
            "--from-period" => opts.from_period = Some(raw.parse().map_err(|e| bad(&e))?),
            "--poll-ms" => opts.poll_ms = raw.parse().map_err(|e| bad(&e))?,
            "--max-secs" => opts.max_secs = raw.parse().map_err(|e| bad(&e))?,
            "--max-lines" => opts.max_lines = raw.parse().map_err(|e| bad(&e))?,
            unknown => return Err(CliError::Usage(format!("unknown flag '{unknown}'"))),
        }
        i += 2;
    }
    Ok(opts)
}

fn follow(path: &str, opts: &FollowOpts) -> Result<(), CliError> {
    use std::io::Write;
    let mut follower = match opts.from_period {
        Some(period) => {
            let (follower, used_index) = wal::Follower::from_period(path, period)?;
            eprintln!(
                "following {path} from period {period} (via {})",
                if used_index { "index" } else { "full scan" }
            );
            follower
        }
        None => wal::Follower::from_end(path, opts.from_end)?,
    };
    let started = std::time::Instant::now();
    let mut printed = 0u64;
    let stdout = std::io::stdout();
    loop {
        let lines = follower.poll()?;
        let mut out = stdout.lock();
        for line in &lines {
            // Malformed lines pass through raw: a live stream mid-write
            // is not a reason to die.
            match ObsRecord::from_line(line) {
                Ok(record) => writeln!(out, "{:>8} {line}", record.seq)?,
                Err(_) => writeln!(out, "       ? {line}")?,
            }
            printed += 1;
            if opts.max_lines > 0 && printed >= opts.max_lines {
                return Ok(());
            }
        }
        out.flush()?;
        drop(out);
        if opts.max_secs > 0.0 && started.elapsed().as_secs_f64() >= opts.max_secs {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(opts.poll_ms));
    }
}

fn seek(path: &str, period: u64) -> Result<(), CliError> {
    let out = wal::seek_period(path, period)?;
    let via = if out.used_index { "index" } else { "full scan" };
    match out.hit {
        Some((offset, record)) => {
            println!("{}", record.to_line());
            eprintln!(
                "found period {} (seq {}) at byte {offset} via {via} ({} line(s) scanned)",
                record.event.period().unwrap_or(period),
                record.seq,
                out.lines_scanned
            );
            Ok(())
        }
        None => Err(jpmd_obs::cli::runtime(format!(
            "no record at or past period {period} ({} line(s) scanned via {via})",
            out.lines_scanned
        ))),
    }
}

fn range(path: &str, from: u64, to: u64) -> Result<(), CliError> {
    if from > to {
        return Err(CliError::Usage(format!(
            "range requires <from> <= <to>, got {from} > {to}"
        )));
    }
    let out = wal::range_periods(path, from, to)?;
    for record in &out.records {
        println!("{}", record.to_line());
    }
    eprintln!(
        "{} record(s) in periods [{from}, {to}] via {} ({} line(s) scanned)",
        out.records.len(),
        if out.used_index { "index" } else { "full scan" },
        out.lines_scanned
    );
    Ok(())
}

fn index(path: &str, stride: u32) -> Result<(), CliError> {
    let entries = wal::build_index(path, stride)?;
    println!("indexed {path}: {entries} entr(ies) at stride {stride} -> {path}.jx");
    Ok(())
}

fn run(args: &[String]) -> Result<(), CliError> {
    let cmd = require(args, 1, "subcommand")?;
    match cmd {
        "summary" => {
            require(args, 2, "file")?;
            let paths: Vec<&str> = args[2..].iter().map(String::as_str).collect();
            summary(&paths)
        }
        "grep" => {
            let path = require(args, 2, "file")?;
            if require(args, 3, "--event")? != "--event" {
                return Err(CliError::Usage("expected '--event <name>'".into()));
            }
            grep(path, require(args, 4, "name")?)
        }
        "timings" => timings(require(args, 2, "file")?),
        "tail" => {
            let path = require(args, 2, "file")?;
            let n: usize = parse_arg(args, 3, "n", 10)?;
            tail(path, n)
        }
        "follow" => {
            let path = require(args, 2, "file")?;
            let opts = parse_follow_opts(&args[3..])?;
            follow(path, &opts)
        }
        "seek" => {
            let path = require(args, 2, "file")?;
            let period: u64 = parse_required(args, 3, "period")?;
            seek(path, period)
        }
        "range" => {
            let path = require(args, 2, "file")?;
            let from: u64 = parse_required(args, 3, "from")?;
            let to: u64 = parse_required(args, 4, "to")?;
            range(path, from, to)
        }
        "index" => {
            let path = require(args, 2, "file")?;
            let stride: u32 = parse_arg(args, 3, "stride", 64)?;
            index(path, stride)
        }
        unknown => Err(CliError::Usage(format!("unknown subcommand '{unknown}'"))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    exit_with(run(&args), USAGE)
}
