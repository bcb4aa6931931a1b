//! `ServeClient` integration tests against a live daemon, focused on
//! the hardest exactly-once corner: connections that die *during* the
//! `ATTACH` replay itself. A crash mid-replay must just replay again —
//! the ack watermark makes the retry idempotent — and the stream must
//! converge to exactly-once delivery with a monotone watermark and a
//! gap-free telemetry WAL. The replay counter counts only those
//! re-sends, never a record's first send.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use jpmd_obs::ObsRecord;
use jpmd_serve::{ClientOpts, Conn, Daemon, ServeClient, ServeConfig};
use jpmd_trace::{TraceRecord, TraceSource, WorkloadBuilder, MIB};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jpmd-client-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn workload(seed: u64) -> Vec<TraceRecord> {
    let trace = WorkloadBuilder::new()
        .data_set_bytes(256 * MIB)
        .rate_bytes_per_sec(2 * MIB)
        .duration_secs(1800.0)
        .seed(seed)
        .build()
        .expect("workload");
    let mut source = trace.source();
    let mut out = Vec::new();
    while let Some(next) = source.next_record() {
        out.push(next.expect("in-memory sources cannot fail"));
    }
    out
}

/// A stream that dies permanently after a fixed budget of written
/// bytes — torn mid-line like a real half-sent packet, then
/// `BrokenPipe` for every later read or write.
struct KillAfter {
    inner: TcpStream,
    budget: u64,
    dead: bool,
}

impl Read for KillAfter {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "killed"));
        }
        self.inner.read(buf)
    }
}

impl Write for KillAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "killed"));
        }
        if self.budget == 0 {
            self.dead = true;
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "killed"));
        }
        let n = (buf.len() as u64).min(self.budget) as usize;
        self.budget -= n as u64;
        self.inner.write(&buf[..n])
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "killed"));
        }
        self.inner.flush()
    }
}

/// One control round trip on a fresh, reliable connection.
fn control(addr: std::net::SocketAddr, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("control connect");
    let mut writer = stream.try_clone().expect("clone");
    writeln!(writer, "{line}").expect("write");
    writer.flush().expect("flush");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("read");
    reply.trim_end().to_string()
}

fn field_after(reply: &str, key: &str) -> Option<u64> {
    let mut words = reply.split_whitespace();
    while let Some(word) = words.next() {
        if word == key {
            return words.next()?.parse().ok();
        }
    }
    None
}

fn wait_drained(addr: std::net::SocketAddr) {
    let started = Instant::now();
    loop {
        let reply = control(addr, "PING");
        match field_after(&reply, "queued") {
            Some(0) => return,
            Some(_) => std::thread::sleep(Duration::from_millis(10)),
            None => panic!("bad ping reply: {reply}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(120),
            "daemon failed to drain"
        );
    }
}

#[test]
fn crash_during_attach_replay_converges_exactly_once() {
    let dir = scratch_dir("replay-crash");
    let daemon = Daemon::start(ServeConfig::new(&dir)).expect("start daemon");
    let addr = daemon.addr();

    // Per-connection write budgets, consumed in dial order. The first
    // connection dies mid-stream with a full replay ring; the next two
    // survive the ATTACH handshake (~20 bytes) but die partway through
    // rewriting the ring — the crash-during-replay case; later dials
    // live forever.
    let budgets = Arc::new(Mutex::new(VecDeque::from([2000u64, 60, 90])));
    let connector_budgets = Arc::clone(&budgets);
    let connector: Box<dyn FnMut() -> io::Result<Box<dyn Conn>> + Send> = Box::new(move || {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let budget = connector_budgets
            .lock()
            .expect("budget lock")
            .pop_front()
            .unwrap_or(u64::MAX);
        Ok(Box::new(KillAfter {
            inner: stream,
            budget,
            dead: false,
        }) as Box<dyn Conn>)
    });

    let opts = ClientOpts {
        buffer_bytes: 0,
        ..ClientOpts::default()
    };
    let mut client = ServeClient::new(connector, "victim", 4096, opts);
    let records = workload(11);
    let total = records.len() as u64;
    assert!(total > 100, "workload too small to cross the kill budgets");

    let mut last_acked = 0;
    for (i, record) in records.into_iter().enumerate() {
        client.feed(record).expect("feed must survive the crashes");
        if (i + 1) % 50 == 0 {
            client.sync().expect("sync");
            // The watermark only ever moves forward, and never past
            // what we actually fed.
            assert!(client.acked() >= last_acked, "watermark went backwards");
            assert!(client.acked() <= (i + 1) as u64, "watermark overran");
            last_acked = client.acked();
        }
    }
    client.sync().expect("final sync");
    assert!(client.acked() >= last_acked, "watermark went backwards");

    let stats = client.stats();
    assert_eq!(stats.sent, total);
    assert_eq!(stats.gave_up, 0, "client gave up: {stats:?}");
    assert!(
        stats.reconnects >= 1 && stats.replayed >= 1,
        "the kill schedule never bit: {stats:?}"
    );
    assert!(
        budgets.lock().expect("budget lock").is_empty(),
        "not every scripted kill was consumed"
    );

    wait_drained(addr);
    let status = control(addr, "QUERY victim status");
    assert_eq!(
        field_after(&status, "records"),
        Some(total),
        "exactly-once violated: fed {total}, daemon says {status}"
    );
    assert_eq!(field_after(&status, "acked"), Some(total), "{status}");

    assert!(control(addr, "SHUTDOWN").starts_with("OK"));
    daemon.join().expect("clean shutdown");

    // The sealed WAL must be gap-free: the storm cost retries, never
    // telemetry records.
    let text = std::fs::read_to_string(dir.join("victim.jsonl")).expect("read WAL");
    for (i, line) in text.lines().enumerate() {
        let record = ObsRecord::from_line(line).expect("parse WAL line");
        assert_eq!(record.seq, i as u64, "WAL seq gap at line {i}");
    }
}

#[test]
fn first_attach_sends_are_not_counted_as_replays() {
    let dir = scratch_dir("first-attach");
    let daemon = Daemon::start(ServeConfig::new(&dir)).expect("start daemon");
    let addr = daemon.addr();

    // The default 8 KiB feed buffer holds the first records back until
    // it fills; the first ATTACH then sends them all from the ring.
    let mut client = ServeClient::tcp(addr.to_string(), "steady", 4096, ClientOpts::default());
    let records = workload(3);
    let total = records.len() as u64;
    for record in records {
        client.feed(record).expect("feed");
    }
    client.sync().expect("sync");

    let stats = client.stats();
    assert_eq!(stats.sent, total);
    assert_eq!(
        (stats.reconnects, stats.replayed),
        (0, 0),
        "a churn-free client never replays: {stats:?}"
    );
    assert_eq!(client.acked(), total);

    assert!(control(addr, "SHUTDOWN").starts_with("OK"));
    daemon.join().expect("clean shutdown");
}
