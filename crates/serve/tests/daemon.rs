//! End-to-end daemon tests over real TCP connections: Prometheus
//! exposition, run-to-run determinism of the per-tenant telemetry WALs,
//! kill-and-restart resume, and overload shedding with recovery.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use jpmd_obs::ObsRecord;
use jpmd_serve::{Daemon, ServeConfig};
use jpmd_trace::{Trace, TraceRecord, TraceSource, WorkloadBuilder, MIB};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jpmd-serve-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn trace(seed: u64, duration_secs: f64) -> Trace {
    WorkloadBuilder::new()
        .data_set_bytes(256 * MIB)
        .rate_bytes_per_sec(2 * MIB)
        .duration_secs(duration_secs)
        .seed(seed)
        .build()
        .expect("workload")
}

fn workload(seed: u64, duration_secs: f64) -> Vec<TraceRecord> {
    let trace = trace(seed, duration_secs);
    let mut source = trace.source();
    let mut out = Vec::new();
    while let Some(next) = source.next_record() {
        out.push(next.expect("in-memory sources cannot fail"));
    }
    out
}

/// The `OPEN` line for a tenant fed `workload(seed, _)`: its page space
/// (per-file rounding puts it a few pages past the data set's 256).
fn open(tenant: &str, seed: u64) -> String {
    format!("OPEN {tenant} {}", trace(seed, 60.0).total_pages())
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn feed(&mut self, tenant: &str, record: &TraceRecord) {
        writeln!(
            self.writer,
            "{}",
            jpmd_serve::proto::format_feed(tenant, record)
        )
        .expect("feed");
    }

    fn ask(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("response");
        response.trim_end().to_string()
    }

    fn queued(&mut self) -> u64 {
        let reply = self.ask("PING");
        reply
            .rsplit(' ')
            .next()
            .and_then(|w| w.parse().ok())
            .unwrap_or_else(|| panic!("bad ping reply: {reply}"))
    }

    fn wait_drained(&mut self) {
        let started = Instant::now();
        while self.queued() > 0 {
            assert!(
                started.elapsed() < Duration::from_secs(120),
                "daemon failed to drain"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn http_get_metrics(addr: std::net::SocketAddr) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n").expect("request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

/// A strict-enough Prometheus text-exposition parser: every non-comment
/// line must be `name[{labels}] value`, names must be legal, and label
/// blocks must be `key="value"` pairs. Returns (metric line → value).
fn parse_prometheus(body: &str) -> std::collections::BTreeMap<String, f64> {
    let mut out = std::collections::BTreeMap::new();
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line:?}");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad sample value in {line:?}"));
        let name_part = series.split('{').next().unwrap();
        assert!(
            !name_part.is_empty()
                && name_part
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                && !name_part.starts_with(|c: char| c.is_ascii_digit()),
            "illegal metric name in {line:?}"
        );
        if let Some(rest) = series.strip_prefix(name_part) {
            if !rest.is_empty() {
                assert!(
                    rest.starts_with('{') && rest.ends_with('}'),
                    "malformed label block in {line:?}"
                );
                for pair in rest[1..rest.len() - 1].split(',') {
                    let (key, val) = pair.split_once('=').unwrap_or_else(|| {
                        panic!("malformed label pair {pair:?} in {line:?}");
                    });
                    assert!(
                        !key.is_empty() && val.starts_with('"') && val.ends_with('"'),
                        "malformed label value in {line:?}"
                    );
                }
            }
        }
        out.insert(series.to_string(), value);
    }
    out
}

fn normalized_wal(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("read WAL");
    text.lines()
        .map(|line| {
            ObsRecord::from_line(line)
                .unwrap_or_else(|e| panic!("malformed WAL line {line:?}: {e}"))
                .normalized_line()
        })
        .collect()
}

fn wal_seqs_are_gap_free(path: &Path) {
    let text = std::fs::read_to_string(path).expect("read WAL");
    for (i, line) in text.lines().enumerate() {
        let record = ObsRecord::from_line(line).expect("parse WAL line");
        assert_eq!(record.seq, i as u64, "seq gap in {path:?} at line {i}");
    }
}

fn base_config(dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir);
    cfg.duration_secs = 1e9;
    cfg.period_secs = 300.0;
    cfg
}

#[test]
fn metrics_endpoint_serves_valid_prometheus_with_tenant_labels() {
    let dir = scratch_dir("metrics");
    let daemon = Daemon::start(base_config(&dir)).expect("start daemon");
    let addr = daemon.addr();

    let mut client = Client::connect(addr);
    for (tenant, seed) in [("alpha", 21u64), ("beta", 22)] {
        assert!(client.ask(&open(tenant, seed)).starts_with("OK"));
        for record in workload(seed, 1800.0) {
            client.feed(tenant, &record);
        }
    }
    client.wait_drained();

    let (head, body) = http_get_metrics(addr);
    assert!(head.starts_with("HTTP/1.0 200"), "{head}");
    assert!(head.contains("text/plain"), "{head}");
    let samples = parse_prometheus(&body);
    for tenant in ["alpha", "beta"] {
        let decisions = samples
            .get(&format!("serve_tenant_decisions{{tenant=\"{tenant}\"}}"))
            .unwrap_or_else(|| panic!("no decision counter for {tenant} in:\n{body}"));
        assert!(
            *decisions >= 1.0,
            "{tenant} made no period decisions:\n{body}"
        );
        let records = samples
            .get(&format!("serve_tenant_records{{tenant=\"{tenant}\"}}"))
            .expect("records counter");
        assert!(*records > 0.0);
    }
    assert_eq!(samples.get("serve_tenants"), Some(&2.0));
    assert_eq!(samples.get("serve_queued"), Some(&0.0));

    // An unknown path is a 404, not a hang or a protocol error.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET /nope HTTP/1.0\r\n\r\n").expect("request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.0 404"), "{raw}");

    assert!(client.ask("SHUTDOWN").starts_with("OK"));
    daemon.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_runs_of_the_same_script_write_identical_normalized_wals() {
    let run = |tag: &str| -> Vec<Vec<String>> {
        let dir = scratch_dir(tag);
        let daemon = Daemon::start(base_config(&dir)).expect("start daemon");
        let mut client = Client::connect(daemon.addr());
        for (tenant, seed) in [("t0", 31), ("t1", 32), ("t2", 33)] {
            assert!(client.ask(&open(tenant, seed)).starts_with("OK"));
        }
        // Interleave tenants record by record — worker scheduling must
        // not leak into any tenant's event stream.
        let scripts: Vec<(&str, Vec<TraceRecord>)> = vec![
            ("t0", workload(31, 1800.0)),
            ("t1", workload(32, 1800.0)),
            ("t2", workload(33, 1800.0)),
        ];
        let longest = scripts.iter().map(|(_, r)| r.len()).max().unwrap();
        for i in 0..longest {
            for (tenant, records) in &scripts {
                if let Some(record) = records.get(i) {
                    client.feed(tenant, record);
                }
            }
        }
        client.wait_drained();
        assert!(client.ask("SHUTDOWN").starts_with("OK"));
        daemon.join().expect("join");
        let wals = ["t0", "t1", "t2"]
            .iter()
            .map(|t| normalized_wal(&dir.join(format!("{t}.jsonl"))))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        wals
    };
    let first = run("det-a");
    let second = run("det-b");
    assert!(
        first.iter().all(|wal| wal.len() > 3),
        "WALs must carry period events, got lengths {:?}",
        first.iter().map(Vec::len).collect::<Vec<_>>()
    );
    assert_eq!(first, second, "normalized WALs must be byte-identical");
}

#[test]
fn shutdown_seals_and_restart_resumes_gap_free() {
    let records = workload(41, 1800.0);
    let half = records.len() / 2;

    // Reference: one uninterrupted run.
    let ref_dir = scratch_dir("resume-ref");
    let (ref_wal, ref_answers) = {
        let daemon = Daemon::start(base_config(&ref_dir)).expect("start daemon");
        let mut client = Client::connect(daemon.addr());
        assert!(client.ask(&open("t0", 41)).starts_with("OK"));
        for record in &records {
            client.feed("t0", record);
        }
        client.wait_drained();
        let answers = (
            client.ask("QUERY t0 banks"),
            client.ask("QUERY t0 timeout"),
            client.ask("QUERY t0 energy"),
        );
        assert!(client.ask("SHUTDOWN").starts_with("OK"));
        daemon.join().expect("join");
        (normalized_wal(&ref_dir.join("t0.jsonl")), answers)
    };

    // Interrupted: feed half, shut down (seals checkpoint + manifest).
    let dir = scratch_dir("resume");
    {
        let daemon = Daemon::start(base_config(&dir)).expect("start daemon");
        let mut client = Client::connect(daemon.addr());
        assert!(client.ask(&open("t0", 41)).starts_with("OK"));
        for record in &records[..half] {
            client.feed("t0", record);
        }
        client.wait_drained();
        assert!(client.ask("SHUTDOWN").starts_with("OK"));
        daemon.join().expect("join");
    }
    assert!(dir.join("tenants.jck").exists(), "manifest must be sealed");
    assert!(dir.join("t0.jck").exists(), "tenant checkpoint must exist");

    // Restart with resume; the client replays the stream from the start.
    {
        let mut cfg = base_config(&dir);
        cfg.resume = true;
        let daemon = Daemon::start(cfg).expect("resume daemon");
        assert_eq!(daemon.stats().tenants, 1, "tenant must be resumed");
        let mut client = Client::connect(daemon.addr());
        // No OPEN needed — the tenant is already live.
        let status = client.ask("QUERY t0 status");
        assert!(status.starts_with("OK"), "{status}");
        for record in &records {
            client.feed("t0", record);
        }
        client.wait_drained();
        assert_eq!(client.ask("QUERY t0 banks"), ref_answers.0);
        assert_eq!(client.ask("QUERY t0 timeout"), ref_answers.1);
        assert_eq!(client.ask("QUERY t0 energy"), ref_answers.2);
        assert!(client.ask("SHUTDOWN").starts_with("OK"));
        daemon.join().expect("join");
    }
    let resumed_wal = normalized_wal(&dir.join("t0.jsonl"));
    wal_seqs_are_gap_free(&dir.join("t0.jsonl"));
    assert_eq!(
        resumed_wal, ref_wal,
        "resumed WAL must match the uninterrupted run's"
    );
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn close_while_shedding_clears_overload_and_reopens_admission() {
    let dir = scratch_dir("close-shed");
    let mut cfg = base_config(&dir);
    cfg.workers = 1;
    cfg.batch = 16;
    cfg.shed_high = 64;
    cfg.shed_low = 16;
    let daemon = Daemon::start(cfg).expect("start daemon");
    let mut client = Client::connect(daemon.addr());
    assert!(client.ask(&open("hog", 61)).starts_with("OK"));

    // Flood the single tenant past the shed watermark.
    let records = workload(61, 120_000.0);
    for record in &records {
        client.feed("hog", record);
    }
    client.writer.flush().expect("flush");
    let started = Instant::now();
    while !daemon.stats().shedding {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the flood must cross the shed watermark"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // CLOSE drains the whole backlog inline through the seal. The shed
    // flag must clear with that drain — not stay latched with zero
    // tenants left and every future OPEN rejected. (All FEEDs share
    // this connection, so they are all enqueued before CLOSE runs; a
    // worker may still hold the final in-flight batch, hence the poll.)
    assert!(client.ask("CLOSE hog").starts_with("OK"));
    assert_eq!(daemon.stats().tenants, 0);
    let started = Instant::now();
    while daemon.stats().shedding {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "overload must clear once the CLOSE drain empties the backlog"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        client.ask("OPEN fresh 256").starts_with("OK"),
        "admission must reopen after the backlog drains"
    );

    assert!(client.ask("SHUTDOWN").starts_with("OK"));
    daemon.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_rejects_admissions_and_recovers() {
    let dir = scratch_dir("overload");
    let mut cfg = base_config(&dir);
    cfg.workers = 1;
    cfg.batch = 16;
    cfg.shed_high = 64;
    cfg.shed_low = 16;
    let daemon = Daemon::start(cfg).expect("start daemon");
    let mut client = Client::connect(daemon.addr());
    assert!(client.ask(&open("hog", 51)).starts_with("OK"));

    // Phase 1: flood — hundreds of periods' worth of records in one
    // burst. The synthetic workload yields roughly one record per 16
    // stream-seconds, so the horizon here buys a few thousand records.
    let records = workload(51, 120_000.0);
    let half = records.len() / 2;
    for record in &records[..half] {
        client.feed("hog", record);
    }
    client.writer.flush().expect("flush");

    // The daemon must shed: admission closed, but queries still answered.
    let mut saw_shedding = false;
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(60) {
        let stats = daemon.stats();
        if stats.shedding {
            saw_shedding = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(saw_shedding, "the flood must cross the shed watermark");
    let mut second = Client::connect(daemon.addr());
    assert!(
        second.ask("OPEN late 256").starts_with("ERR"),
        "admission must be closed while shedding"
    );
    let reply = second.ask("QUERY hog banks");
    assert!(
        reply.starts_with("OK banks"),
        "queries must be answered under load: {reply}"
    );

    // Phase 2: paced tail — chunks stay well under the high watermark so
    // the backlog drains, shedding clears, and the guard's promotion
    // ladder lifts the tenant back toward Joint over the healthy periods.
    for chunk in records[half..].chunks(32) {
        for record in chunk {
            client.feed("hog", record);
        }
        while client.queued() > 8 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    client.wait_drained();
    let stats = daemon.stats();
    assert!(!stats.shedding, "shedding must clear after the drain");
    assert!(stats.rejected_opens >= 1);

    assert!(client.ask("SHUTDOWN").starts_with("OK"));
    daemon.join().expect("join");

    // The WAL carries the degradation story: at least one fallback while
    // overloaded and at least one promotion after recovery.
    let text = std::fs::read_to_string(dir.join("hog.jsonl")).expect("read WAL");
    let mut kinds = Vec::new();
    for line in text.lines() {
        let record = ObsRecord::from_line(line).expect("parse WAL line");
        if record.event.name() == "Degradation" {
            kinds.push(line.to_string());
        }
    }
    assert!(
        kinds.iter().any(|l| l.contains("\"fallback\"")),
        "expected a fallback Degradation event, got {kinds:?}"
    );
    assert!(
        kinds
            .iter()
            .any(|l| l.contains("\"promote\"") || l.contains("\"recovery\"")),
        "expected a promote/recovery Degradation event, got {kinds:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pulls the numeric value after `key` out of a `STATS` reply.
fn stat_field(reply: &str, key: &str) -> u64 {
    let mut words = reply.split_whitespace();
    while let Some(word) = words.next() {
        if word == key {
            return words
                .next()
                .and_then(|w| w.parse().ok())
                .unwrap_or_else(|| panic!("bad value after {key} in {reply:?}"));
        }
    }
    panic!("no {key} field in {reply:?}");
}

#[test]
fn wal_outage_degrades_telemetry_not_tenants() {
    use jpmd_faults::{FaultyStorage, IoFaultPlan, SharedBackend};

    let dir = scratch_dir("walfault");
    let mut cfg = base_config(&dir);
    // Every durable write fails while the global storage-op counter is
    // in [5, 105): a few healthy telemetry lines, then an outage short
    // enough that the ring never overflows (no records lost), then a
    // healed disk the sink must climb back onto by itself.
    cfg.backend = SharedBackend::from(FaultyStorage::new(IoFaultPlan::outage(42, 5, 105)));
    let daemon = Daemon::start(cfg).expect("start daemon");
    let addr = daemon.addr();
    let mut client = Client::connect(addr);
    assert!(client.ask(&open("alpha", 77)).starts_with("OK"));

    let records = workload(77, 36_000.0);
    let mut saw_degraded = false;
    let mut healthy_after = false;
    for chunk in records.chunks(400) {
        for record in chunk {
            client.feed("alpha", record);
        }
        client.wait_drained();
        // The tenant keeps answering control queries no matter what the
        // disk is doing — telemetry is shed, tenants are not.
        assert!(
            client.ask("QUERY alpha timeout").starts_with("OK"),
            "query must answer during the outage"
        );
        let stats = client.ask("STATS");
        let degraded = stat_field(&stats, "degraded");
        if degraded > 0 {
            saw_degraded = true;
        } else if saw_degraded {
            healthy_after = true;
            break;
        }
    }
    assert!(saw_degraded, "the outage window never degraded the WAL");
    assert!(
        healthy_after,
        "the WAL never recovered after the window closed"
    );
    assert!(
        stat_field(&client.ask("STATS"), "wal_errors") > 0,
        "absorbed write failures must be counted"
    );

    let (_, body) = http_get_metrics(addr);
    let samples = parse_prometheus(&body);
    assert!(
        samples
            .get("serve_wal_write_errors")
            .copied()
            .unwrap_or(0.0)
            > 0.0,
        "no serve_wal_write_errors in:\n{body}"
    );
    assert_eq!(
        samples.get("serve_storage_degraded"),
        Some(&0.0),
        "degraded gauge must fall back to zero"
    );
    assert!(
        samples
            .get("serve_tenant_wal_write_errors{tenant=\"alpha\"}")
            .copied()
            .unwrap_or(0.0)
            > 0.0,
        "no per-tenant wal_write_errors in:\n{body}"
    );

    assert!(client.ask("SHUTDOWN").starts_with("OK"));
    daemon.join().expect("join");

    // Nothing was lost: the recovered WAL is seq-gap-free end to end,
    // and the shutdown seal produced a checkpoint that verifies.
    wal_seqs_are_gap_free(&dir.join("alpha.jsonl"));
    jpmd_ckpt::load_checkpoint(dir.join("alpha.jck")).expect("sealed checkpoint verifies");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_request_line_gets_typed_error_and_close() {
    let dir = scratch_dir("line-cap");
    let daemon = Daemon::start(base_config(&dir)).expect("start daemon");
    let addr = daemon.addr();

    // A single 64 KiB line with no terminator: the daemon must refuse
    // it at the 8 KiB cap with a typed error instead of buffering
    // unboundedly, then close the connection.
    let mut client = Client::connect(addr);
    let flood = "A".repeat(64 * 1024);
    client.writer.write_all(flood.as_bytes()).expect("flood");
    client.writer.write_all(b"\n").expect("terminator");
    client.writer.flush().expect("flush");
    let mut reply = String::new();
    client.reader.read_line(&mut reply).expect("reply");
    assert_eq!(reply.trim_end(), "ERR line too long");
    // The daemon drops the connection with flood bytes still unread,
    // so the close surfaces as either a clean EOF or an RST.
    let mut rest = String::new();
    match client.reader.read_line(&mut rest) {
        Ok(n) => assert_eq!(
            n, 0,
            "connection must be closed after the cap, got {rest:?}"
        ),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected error kind after cap: {e}"
        ),
    }

    // The daemon itself is unharmed: a fresh connection works, and the
    // drop was counted.
    let mut fresh = Client::connect(addr);
    assert!(fresh.ask("PING").starts_with("OK"));
    let stats = fresh.ask("STATS");
    let dropped: u64 = stats
        .split_whitespace()
        .skip_while(|w| *w != "conn_dropped")
        .nth(1)
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("no conn_dropped in {stats}"));
    assert!(
        dropped >= 1,
        "oversized line not counted as a drop: {stats}"
    );
    assert!(fresh.ask("SHUTDOWN").starts_with("OK"));
    daemon.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn feed_outside_the_tenant_page_space_is_refused() {
    let dir = scratch_dir("feed-range");
    let daemon = Daemon::start(base_config(&dir)).expect("start daemon");
    let mut client = Client::connect(daemon.addr());
    assert!(client.ask("OPEN t 64").starts_with("OK"));
    // The last four pages of the tenant's space are fine.
    writeln!(client.writer, "FEED t 1 1.0 0 60 4 r").expect("feed");
    assert_eq!(client.ask("QUERY t acked"), "OK acked 1");
    client.wait_drained();
    let records = stat_field(&client.ask("STATS"), "records");

    // One page past the space: refused before the seq advances the
    // watermark, and never applied. The barrier query answers second.
    writeln!(client.writer, "FEED t 2 2.0 0 61 4 r").expect("feed");
    let reply = client.ask("QUERY t acked");
    assert!(reply.starts_with("ERR feed"), "{reply}");
    assert!(reply.contains("total_pages"), "{reply}");
    let mut barrier = String::new();
    client.reader.read_line(&mut barrier).expect("barrier");
    assert_eq!(barrier.trim_end(), "OK acked 1");
    client.wait_drained();
    assert_eq!(stat_field(&client.ask("STATS"), "records"), records);

    // A page range that overflows u64 is refused the same way…
    let reply = client.ask("FEED t 2 3.0 0 18446744073709551000 1000 r");
    assert!(reply.starts_with("ERR feed"), "{reply}");
    // …and the tenant keeps serving at the unchanged watermark.
    writeln!(client.writer, "FEED t 2 3.0 0 0 2 r").expect("feed");
    assert_eq!(client.ask("QUERY t acked"), "OK acked 2");
    client.wait_drained();
    assert_eq!(stat_field(&client.ask("STATS"), "records"), records + 1);
    assert!(client.ask("QUERY t status").starts_with("OK"));

    assert!(client.ask("SHUTDOWN").starts_with("OK"));
    daemon.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}
