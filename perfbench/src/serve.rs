//! `serve-feed`: an in-process `Daemon` with WAL telemetry on, fed by two
//! `ServeClient` tenants from one thread.
//!
//! The loop is closed. Each round feeds [`BATCH`] sequenced records to each
//! tenant, then probes the backlog with `PING` (alternating tenants) and
//! waits while it exceeds [`MAX_BACKLOG`]; every [`QUERY_EVERY`] rounds one
//! `QUERY` round trip (`timeout`, `banks`, `energy` in turn) is timed. An
//! iteration ends with a drain: a sync barrier on each tenant, then `PING`
//! until the backlog is empty. Applied records are the delta of the
//! daemon's `STATS records` counter, never the records sent.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jpmd_obs::Telemetry;
use jpmd_serve::proto::format_feed_seq;
use jpmd_serve::{
    build_stepper, parse_request, ClientOpts, Daemon, Request, ServeClient, ServeConfig,
};
use jpmd_trace::{Trace, TraceRecord, MIB};

use crate::sites::{time_builder, Site, SITE_SEED};
use crate::{
    halves, median, note_peak_rss, overhead_pct, percentile, run_for, set_throughput, setup_reps,
    throughput, Args, Metrics, Ops, Sample,
};

const TENANTS: usize = 2;
/// Records fed to each tenant per iteration.
const CHUNK: usize = 8192;
/// Records fed to each tenant between backlog probes.
const BATCH: usize = 256;
/// Rounds per timed `QUERY`.
const QUERY_EVERY: usize = 2;
/// Backlog (queued records, all tenants) above which the feeder waits.
const MAX_BACKLOG: u64 = 8192;
const QUERIES: [&str; 3] = ["timeout", "banks", "energy"];
/// Untimed iterations before the timed ones.
const WARMUP_ITERATIONS: usize = 8;
/// Daemon worker threads.
const WORKERS: usize = 1;
/// How long the backlog may stay above its limit without shrinking.
const STALL: Duration = Duration::from_secs(5);

/// Each tenant's trace: a 1 GiB data set at 16 MiB/s for an hour.
const DATA_MB: u64 = 1024;
const RATE_MB: u64 = 16;
const POPULARITY: f64 = 0.1;
const DURATION_SECS: f64 = 3600.0;

/// A tenant's endless record stream: its trace replayed lap after lap,
/// each lap shifted past the previous one so time never runs backwards.
#[derive(Clone)]
struct Stream {
    base: Vec<TraceRecord>,
    next: usize,
}

impl Stream {
    fn new(trace: &Trace) -> Stream {
        Stream {
            base: trace.records().to_vec(),
            next: 0,
        }
    }

    fn next_record(&mut self) -> TraceRecord {
        let n = self.base.len();
        let mut record = self.base[self.next % n];
        record.time += (self.next / n) as f64 * DURATION_SECS;
        self.next += 1;
        record
    }
}

struct Tenant {
    name: String,
    client: ServeClient,
    stream: Stream,
}

/// Drives a set of fresh tenants and keeps what it measured.
struct Feeder {
    tenants: Vec<Tenant>,
    latencies_ms: Vec<f64>,
    backlog_max: u64,
    queries: usize,
}

fn parse_queued(reply: &str) -> Option<u64> {
    let mut words = reply.split_ascii_whitespace();
    words.find(|w| *w == "queued")?;
    words.next()?.parse().ok()
}

/// `OK tenants 2 queued 0 ... duplicates 0` as a map of counters.
fn parse_stats(reply: &str) -> Option<BTreeMap<String, u64>> {
    let words: Vec<&str> = reply
        .strip_prefix("OK ")?
        .split_ascii_whitespace()
        .collect();
    words
        .chunks(2)
        .map(|pair| Some((pair[0].to_string(), pair.get(1)?.parse().ok()?)))
        .collect()
}

impl Feeder {
    fn new(addr: &str, prefix: &str, traces: &[Trace], seed: u64) -> Feeder {
        let tenants = traces
            .iter()
            .enumerate()
            .map(|(i, trace)| {
                let name = format!("{prefix}-{}-{seed}-{i}", std::process::id());
                let opts = ClientOpts {
                    seed: seed.wrapping_add(i as u64),
                    ..ClientOpts::default()
                };
                Tenant {
                    client: ServeClient::tcp(addr, name.as_str(), trace.total_pages(), opts),
                    name,
                    stream: Stream::new(trace),
                }
            })
            .collect();
        Feeder {
            tenants,
            latencies_ms: Vec::new(),
            backlog_max: 0,
            queries: 0,
        }
    }

    fn ask(&mut self, tenant: usize, line: &str, ops: &mut Ops) -> Option<String> {
        match self.tenants[tenant].client.ask(line) {
            Ok(reply) => Some(reply),
            Err(e) => {
                ops.check(false, || format!("{line}: {e}"));
                None
            }
        }
    }

    fn stats(&mut self, ops: &mut Ops) -> Option<BTreeMap<String, u64>> {
        let reply = self.ask(0, "STATS", ops)?;
        let stats = parse_stats(&reply);
        if stats.is_none() {
            ops.check(false, || format!("unreadable STATS reply: {reply}"));
        }
        stats
    }

    /// `PING`s through `tenant` until the backlog is at most `limit`. A
    /// backlog that has not shrunk for [`STALL`] is a failed operation.
    fn wait_backlog(&mut self, tenant: usize, limit: u64, ops: &mut Ops) -> Option<()> {
        let mut lowest = u64::MAX;
        let mut progress = Instant::now();
        loop {
            let reply = self.ask(tenant, "PING", ops)?;
            let Some(queued) = parse_queued(&reply) else {
                ops.check(false, || format!("unreadable PING reply: {reply}"));
                return None;
            };
            self.backlog_max = self.backlog_max.max(queued);
            if queued <= limit {
                return Some(());
            }
            if queued < lowest {
                lowest = queued;
                progress = Instant::now();
            } else if progress.elapsed() > STALL {
                ops.check(false, || {
                    format!("backlog stuck at {queued} records for {STALL:?}")
                });
                return None;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn query(&mut self, ops: &mut Ops) -> Option<()> {
        let index = self.queries;
        self.queries += 1;
        let tenant = &mut self.tenants[index % TENANTS];
        let line = format!("QUERY {} {}", tenant.name, QUERIES[index % QUERIES.len()]);
        // Buffered feeds go out first, so the round trip times the query
        // alone.
        if let Err(e) = tenant.client.flush_feeds() {
            ops.check(false, || format!("flushing feeds: {e}"));
            return None;
        }
        let start = Instant::now();
        let reply = self.ask(index % TENANTS, &line, ops)?;
        self.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        ops.check(reply.starts_with("OK "), || format!("{line}: {reply}"));
        Some(())
    }

    /// One iteration: [`CHUNK`] records per tenant, then a full drain.
    /// Returns the sample and the host seconds spent inside
    /// `ServeClient::feed` (measured only when `traced`).
    fn iterate(&mut self, ops: &mut Ops, traced: bool) -> Option<(Sample, f64)> {
        let before = self.stats(ops)?;
        let start = Instant::now();
        let (mut fed, mut pages, mut feed_call_s) = (0u64, 0u64, 0.0);
        for round in 0..CHUNK / BATCH {
            for tenant in &mut self.tenants {
                for _ in 0..BATCH {
                    let record = tenant.stream.next_record();
                    let call = traced.then(Instant::now);
                    let result = tenant.client.feed(record);
                    if let Some(call) = call {
                        feed_call_s += call.elapsed().as_secs_f64();
                    }
                    fed += 1;
                    pages += record.pages;
                    if let Err(e) = result {
                        ops.check(false, || format!("feeding {}: {e}", tenant.name));
                        return None;
                    }
                }
            }
            self.wait_backlog(round % TENANTS, MAX_BACKLOG, ops)?;
            if round % QUERY_EVERY == 0 {
                self.query(ops)?;
            }
        }
        // Drain: after each tenant's sync barrier every record it fed is
        // queued, so an empty backlog means every record is applied.
        for tenant in &mut self.tenants {
            if let Err(e) = tenant.client.sync() {
                ops.check(false, || format!("sync {}: {e}", tenant.name));
                return None;
            }
        }
        self.wait_backlog(0, 0, ops)?;
        let secs = start.elapsed().as_secs_f64();
        let after = self.stats(ops)?;

        let counter =
            |stats: &BTreeMap<String, u64>, key: &str| stats.get(key).copied().unwrap_or(0);
        let delta = |key: &str| counter(&after, key).saturating_sub(counter(&before, key));
        let applied = delta("records");
        // A refused feed is usually also one that was never applied, so
        // each fed record counts as failed at most once.
        ops.attempted += fed;
        let lost = fed.saturating_sub(applied);
        let refused = delta("duplicates") + delta("rejected") + delta("conn_dropped");
        let failed = lost.max(refused).min(fed);
        if failed > 0 {
            ops.failed += failed;
            eprintln!("fed {fed}, applied {applied}, refused {refused} (STATS: {after:?})");
        }
        Some((
            Sample {
                records: applied,
                accesses: pages,
                secs,
            },
            feed_call_s,
        ))
    }

    /// Client-side give-ups count as failed operations.
    fn check_clients(&self, ops: &mut Ops) {
        for tenant in &self.tenants {
            let stats = tenant.client.stats();
            ops.check(stats.gave_up == 0, || {
                format!("{} gave up {} times", tenant.name, stats.gave_up)
            });
        }
    }
}

/// The request lines of one iteration, parsed in isolation
/// (`serve.parse_s`); every feed must round-trip exactly.
fn parse_isolated(traces: &[Trace], ops: &mut Ops) -> f64 {
    let mut lines = Vec::new();
    let mut records = Vec::new();
    for (i, trace) in traces.iter().enumerate() {
        let name = format!("parse-{i}");
        let mut stream = Stream::new(trace);
        for seq in 1..=CHUNK as u64 {
            let record = stream.next_record();
            lines.push(format_feed_seq(&name, seq, &record));
            records.push(record);
        }
        for round in 0..CHUNK / BATCH {
            lines.push("PING".to_string());
            if round % QUERY_EVERY == 0 {
                lines.push(format!("QUERY {name} {}", QUERIES[round % QUERIES.len()]));
            }
        }
    }
    let start = Instant::now();
    let parsed: Vec<Result<Request, String>> = lines.iter().map(|l| parse_request(l)).collect();
    let secs = start.elapsed().as_secs_f64();
    let fed: Vec<TraceRecord> = parsed
        .iter()
        .filter_map(|p| match p {
            Ok(Request::Feed { record, .. }) => Some(*record),
            _ => None,
        })
        .collect();
    ops.check(parsed.iter().all(Result::is_ok) && fed == records, || {
        "request lines did not parse back to what was formatted".into()
    });
    secs
}

/// Each tenant's first [`CHUNK`] records fed straight into the policy
/// stack the daemon builds per tenant (`core.stepper_feed_s`).
fn step_isolated(traces: &[Trace], dir: &Path) -> Result<f64, String> {
    let cfg = ServeConfig::new(dir);
    let mut secs = 0.0;
    for (i, trace) in traces.iter().enumerate() {
        let overload = Arc::new(AtomicBool::new(false));
        let mut stepper = build_stepper(
            &cfg,
            &format!("step-{i}"),
            trace.total_pages(),
            &Telemetry::disabled(),
            overload,
            None,
        )
        .map_err(|e| format!("building a tenant stepper: {e}"))?;
        let mut stream = Stream::new(trace);
        let records: Vec<TraceRecord> = (0..CHUNK).map(|_| stream.next_record()).collect();
        let start = Instant::now();
        for record in records {
            stepper.feed(record);
        }
        secs += start.elapsed().as_secs_f64();
    }
    Ok(secs)
}

/// Total bytes and lines of the tenants' telemetry WALs.
fn wal_totals(dir: &Path) -> Result<(u64, u64), String> {
    let mut bytes = 0;
    let mut lines = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "jsonl") {
            let data = std::fs::read(&path).map_err(|e| e.to_string())?;
            bytes += data.len() as u64;
            lines += data.iter().filter(|&&b| b == b'\n').count() as u64;
        }
    }
    Ok((bytes, lines))
}

fn shutdown(daemon: Daemon) -> Result<(), String> {
    daemon.request_shutdown();
    daemon.join().map_err(|e| format!("daemon shutdown: {e}"))
}

pub fn run(args: &Args, dir: &Path, ops: &mut Ops) -> Result<Metrics, String> {
    let mut gen_s = Vec::new();
    // Discarded daemons stop in the background and are joined after set-up,
    // so hundreds of set-ups do not wait out hundreds of worker polls.
    let mut stopping = Vec::new();
    let (setup, setup_s) = setup_reps(
        |rep| {
            let mut gen = 0.0;
            let traces = (0..TENANTS as u64)
                .map(|i| {
                    gen += time_builder(
                        DATA_MB * MIB,
                        MIB,
                        POPULARITY,
                        RATE_MB * MIB,
                        DURATION_SECS,
                        0.0,
                        SITE_SEED + i,
                    )?;
                    let site = Site::new(DATA_MB * MIB, MIB, POPULARITY, SITE_SEED + i)?;
                    let seed = args.seed.wrapping_mul(TENANTS as u64).wrapping_add(i);
                    Ok(site.trace(RATE_MB * MIB, DURATION_SECS, 0.0, seed))
                })
                .collect::<Result<Vec<_>, String>>()?;
            gen_s.push(gen);
            let daemon_dir = dir.join(format!("daemon-{rep}"));
            let mut cfg = ServeConfig::new(&daemon_dir);
            cfg.workers = WORKERS;
            let daemon = Daemon::start(cfg).map_err(|e| format!("daemon start: {e}"))?;
            Ok::<_, String>((traces, daemon, daemon_dir))
        },
        |previous| {
            if let Ok((_, daemon, _)) = previous {
                daemon.request_shutdown();
                stopping.push(daemon);
            }
        },
    );
    for daemon in stopping {
        let joined = daemon.join();
        ops.check(joined.is_ok(), || format!("daemon shutdown: {joined:?}"));
    }
    let (traces, daemon, daemon_dir) = setup?;
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_s, "s");
    metrics.set("trace.gen_s", median(&gen_s), "s");

    let addr = daemon.addr().to_string();
    let (untraced_s, traced_s) = halves(args);
    let mut feeder = Feeder::new(&addr, "bench", &traces, args.seed);
    // The warm-up runs on the measured tenants: a fresh tenant's first
    // iterations run slower while its cache and policy state fill.
    let warmed = (0..WARMUP_ITERATIONS).all(|_| feeder.iterate(ops, false).is_some());
    note_peak_rss(&mut metrics);
    feeder.latencies_ms.clear();
    let samples = if warmed {
        run_for(untraced_s, || {
            feeder.iterate(ops, false).map(|(s, _)| vec![s])
        })
    } else {
        Vec::new()
    };
    let records_per_s = set_throughput(&mut metrics, &samples);
    let p50 = percentile(&feeder.latencies_ms, 50.0);
    let p99 = percentile(&feeder.latencies_ms, 99.0);
    metrics.set("query_p50_ms", p50, "ms");
    metrics.set("query_p99_ms", p99, "ms");

    let mut result = Ok(());
    if args.trace && warmed {
        metrics.set("serve.query_p50_ms", p50, "ms");
        metrics.set("serve.query_p99_ms", p99, "ms");
        let mut feed_calls = Vec::new();
        let traced = run_for(traced_s, || {
            let (sample, feed_call_s) = feeder.iterate(ops, true)?;
            feed_calls.push(feed_call_s);
            Some(vec![sample])
        });
        metrics.set(
            "trace_overhead_pct",
            overhead_pct(records_per_s, throughput(&traced).0),
            "%",
        );
        metrics.set("serve.feed_call_s", median(&feed_calls), "s");
        metrics.set("serve.backlog_max", feeder.backlog_max as f64, "records");
        if let Some(stats) = feeder.stats(ops) {
            let counter = |key: &str| stats.get(key).copied().unwrap_or(0) as f64;
            metrics.set("serve.duplicates", counter("duplicates"), "count");
            metrics.set("serve.conn_dropped", counter("conn_dropped"), "count");
        }
        metrics.set("serve.parse_s", parse_isolated(&traces, ops), "s");
        result = step_isolated(&traces, &daemon_dir)
            .map(|secs| metrics.set("core.stepper_feed_s", secs, "s"));
    }
    if !warmed {
        result = Err("the warm-up iteration failed".into());
    }
    feeder.check_clients(ops);
    drop(feeder);
    shutdown(daemon)?;
    result?;
    if args.trace {
        let (bytes, lines) = wal_totals(&daemon_dir)?;
        metrics.set("obs.wal_bytes", bytes as f64, "bytes");
        metrics.set("obs.records_emitted", lines as f64, "count");
    }
    Ok(metrics)
}
