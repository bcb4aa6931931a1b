//! [`ServeClient`] — the reusable exactly-once feed client.
//!
//! The daemon's wire protocol makes lossless ingest *possible*
//! ([`crate::proto`]: sequenced `FEED`, the ack watermark, `ATTACH`);
//! this client makes it *automatic*. It owns the three mechanisms a
//! caller would otherwise reinvent:
//!
//! * **a bounded replay ring** — every fed record stays in a
//!   [`ClientOpts::ring_cap`]-bounded deque until the daemon's
//!   watermark passes its seq (learned from pushed `ACK` lines, the
//!   [`ServeClient::sync`] barrier, or an `ATTACH` reply);
//! * **reconnect with capped exponential backoff + jitter** — any I/O
//!   error, stall, or seq-gap response drops the connection, dials a
//!   fresh one through the caller-supplied [`Connector`], re-`ATTACH`es,
//!   and replays exactly the un-acked suffix of the ring. The watermark
//!   makes replay idempotent, so a crash *during* replay just replays
//!   again;
//! * **typed give-up** — after [`ClientOpts::max_attempts`] consecutive
//!   failed reconnects the client stops retrying and surfaces
//!   [`ClientError::GaveUp`]; nothing is silently dropped.
//!
//! The [`Connector`] seam is what makes the client testable and
//! chaos-drivable: the bundled [`ServeClient::tcp`] dials plain
//! `TcpStream`s, `serve_chaos` dials through a
//! [`FaultyStream`](jpmd_faults::FaultyStream), and unit tests hand in
//! in-memory duplexes.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::Duration;

use jpmd_faults::FaultRng;
use jpmd_trace::TraceRecord;

use crate::proto::{format_feed_seq, parse_ack};

/// What the client needs from a transport: a byte stream it can write
/// requests to and read reply lines from. Blanket-implemented, so any
/// `Read + Write + Send` stream qualifies — `TcpStream`, a
/// [`FaultyStream`](jpmd_faults::FaultyStream) around one, or an
/// in-memory duplex in tests.
pub trait Conn: Read + Write + Send {}
impl<S: Read + Write + Send> Conn for S {}

/// Dials one fresh connection to the daemon. Called on first use and on
/// every reconnect; each call must return a *new* stream (the old one
/// is dropped, closing the real socket underneath a wrapper).
pub type Connector = Box<dyn FnMut() -> io::Result<Box<dyn Conn>> + Send>;

/// Tuning knobs for [`ServeClient`]. `Default` is sized for the
/// loadgen/chaos scale.
#[derive(Debug, Clone)]
pub struct ClientOpts {
    /// Consecutive failed reconnect attempts before the client gives
    /// up with [`ClientError::GaveUp`].
    pub max_attempts: u32,
    /// First retry delay; attempt `n` waits `base * 2^n` (capped).
    pub base_backoff: Duration,
    /// Ceiling on the exponential backoff.
    pub max_backoff: Duration,
    /// Most un-acked records held for replay. [`ServeClient::feed`]
    /// runs a [`ServeClient::sync`] barrier when the ring is full, so
    /// this bounds memory, not throughput.
    pub ring_cap: usize,
    /// Seed for backoff jitter (deterministic per client).
    pub seed: u64,
    /// Coalesce feed lines into batches of about this many bytes before
    /// writing. `0` writes (and flushes) every feed immediately — the
    /// chaos harness uses that to maximize the fault surface.
    pub buffer_bytes: usize,
}

impl Default for ClientOpts {
    fn default() -> Self {
        ClientOpts {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            ring_cap: 4096,
            seed: 0,
            buffer_bytes: 8192,
        }
    }
}

/// Why the client stopped.
#[derive(Debug)]
pub enum ClientError {
    /// Every reconnect attempt in one burst failed; the stream cannot
    /// make progress without operator attention.
    GaveUp {
        /// Consecutive attempts made.
        attempts: u32,
        /// The last attempt's failure.
        last: String,
    },
    /// The replay ring is full even after a sync barrier — the daemon
    /// is acknowledging nothing.
    RingOverflow {
        /// The configured ring capacity.
        cap: usize,
    },
    /// The daemon answered with a non-retryable `ERR`.
    Protocol {
        /// The full reply line.
        reply: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::GaveUp { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            ClientError::RingOverflow { cap } => {
                write!(f, "replay ring full ({cap} un-acked records)")
            }
            ClientError::Protocol { reply } => write!(f, "daemon: {reply}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Counters the client accumulates over its lifetime (reported by
/// `serve_loadgen` and asserted on by the chaos harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Records offered through [`ServeClient::feed`].
    pub sent: u64,
    /// Successful re-`ATTACH`es after the first connection.
    pub reconnects: u64,
    /// Un-acked records rewritten during re-`ATTACH` replays. Records
    /// buffered before the first `ATTACH` are first sends, not replays.
    pub replayed: u64,
    /// Reconnect bursts that exhausted [`ClientOpts::max_attempts`].
    pub gave_up: u64,
}

/// Longest reply line the client will assemble before declaring the
/// connection garbage and redialing.
const MAX_REPLY: usize = 64 * 1024;

/// An exactly-once feed client for one tenant (see the module docs).
pub struct ServeClient {
    connector: Connector,
    tenant: String,
    pages: u64,
    opts: ClientOpts,
    conn: Option<Box<dyn Conn>>,
    /// Bytes read off the connection but not yet consumed as lines.
    read_buf: Vec<u8>,
    /// Feed lines accepted by [`ServeClient::feed`] but not yet written.
    out_buf: String,
    /// Un-acked `(seq, record)` pairs, oldest first, contiguous.
    ring: VecDeque<(u64, TraceRecord)>,
    /// The next seq [`ServeClient::feed`] will assign.
    next_seq: u64,
    /// Highest watermark the daemon has reported.
    acked: u64,
    ever_connected: bool,
    rng: FaultRng,
    stats: ClientStats,
}

impl ServeClient {
    /// A client for `tenant` dialing through `connector`. `pages` sizes
    /// the tenant if the first `ATTACH` creates it.
    pub fn new(
        connector: Connector,
        tenant: impl Into<String>,
        pages: u64,
        opts: ClientOpts,
    ) -> Self {
        let rng = FaultRng::fork(opts.seed, 0x5e37e);
        ServeClient {
            connector,
            tenant: tenant.into(),
            pages,
            opts,
            conn: None,
            read_buf: Vec::new(),
            out_buf: String::new(),
            ring: VecDeque::new(),
            next_seq: 1,
            acked: 0,
            ever_connected: false,
            rng,
            stats: ClientStats::default(),
        }
    }

    /// A client dialing plain TCP to `addr`, with a 5 s read timeout so
    /// a dead daemon surfaces as a reconnectable error instead of a
    /// hang.
    pub fn tcp(
        addr: impl Into<String>,
        tenant: impl Into<String>,
        pages: u64,
        opts: ClientOpts,
    ) -> Self {
        let addr = addr.into();
        let connector: Connector = Box::new(move || {
            let stream = std::net::TcpStream::connect(&addr)?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
            Ok(Box::new(stream) as Box<dyn Conn>)
        });
        ServeClient::new(connector, tenant, pages, opts)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The highest watermark the daemon has reported.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Feeds one record exactly-once: assigns it the next seq, parks it
    /// in the replay ring, and writes it (batched per
    /// [`ClientOpts::buffer_bytes`]). Reconnects and replays as needed.
    ///
    /// # Errors
    ///
    /// [`ClientError::GaveUp`] when reconnecting stops working,
    /// [`ClientError::RingOverflow`] when the daemon stops
    /// acknowledging.
    pub fn feed(&mut self, record: TraceRecord) -> Result<(), ClientError> {
        if self.ring.len() >= self.opts.ring_cap {
            // A sync barrier acks everything the daemon has queued —
            // after it the ring is effectively empty unless the daemon
            // is refusing to advance.
            self.sync()?;
            if self.ring.len() >= self.opts.ring_cap {
                return Err(ClientError::RingOverflow {
                    cap: self.opts.ring_cap,
                });
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.out_buf
            .push_str(&format_feed_seq(&self.tenant, seq, &record));
        self.out_buf.push('\n');
        self.ring.push_back((seq, record));
        self.stats.sent += 1;
        if self.out_buf.len() >= self.opts.buffer_bytes.max(1) {
            self.flush_feeds()?;
        }
        Ok(())
    }

    /// Synchronous barrier: flushes pending feeds, asks the daemon for
    /// the tenant's watermark, and prunes the ring to it. After `Ok`,
    /// every record previously fed is applied (or queued) daemon-side.
    ///
    /// # Errors
    ///
    /// Same failure surface as [`ServeClient::feed`], plus
    /// [`ClientError::Protocol`] for a typed daemon refusal.
    pub fn sync(&mut self) -> Result<(), ClientError> {
        let reply = self.ask(&format!("QUERY {} acked", self.tenant))?;
        match token_after(&reply, "acked") {
            Some(acked) if reply.starts_with("OK") => {
                self.note_ack(acked);
                Ok(())
            }
            _ => Err(ClientError::Protocol { reply }),
        }
    }

    /// One control round trip (`PING`, `QUERY`, `STATS`, ...): flushes
    /// pending feeds first so ordering is preserved, writes the line,
    /// and returns the first reply that is not a pushed `ACK`.
    /// Reconnects (with replay) on I/O errors and on async seq-gap
    /// errors; other `ERR` replies are returned for the caller to
    /// judge.
    ///
    /// # Errors
    ///
    /// [`ClientError::GaveUp`] when reconnecting stops working.
    pub fn ask(&mut self, line: &str) -> Result<String, ClientError> {
        let mut burst = 0u32;
        loop {
            self.flush_feeds()?;
            let attempt = (|| -> io::Result<String> {
                let conn = self.conn.as_mut().expect("flush_feeds leaves a live conn");
                conn.write_all(line.as_bytes())?;
                conn.write_all(b"\n")?;
                conn.flush()?;
                loop {
                    let reply = read_reply_line(
                        self.conn.as_mut().expect("conn checked above").as_mut(),
                        &mut self.read_buf,
                    )?;
                    if let Some(acked) = parse_ack(&reply) {
                        self.note_ack_value_only(acked);
                        continue;
                    }
                    return Ok(reply);
                }
            })();
            match attempt {
                Ok(reply) if reply.starts_with("ERR feed seq gap") => {
                    // An async refusal of an earlier feed: the daemon
                    // and our seq stream disagree. Re-attaching resyncs
                    // on the watermark.
                    self.drop_conn();
                }
                Ok(reply) => {
                    self.prune_ring();
                    return Ok(reply);
                }
                Err(_) => self.drop_conn(),
            }
            burst += 1;
            if burst > self.opts.max_attempts {
                self.stats.gave_up += 1;
                return Err(ClientError::GaveUp {
                    attempts: burst,
                    last: "control round trip kept failing".into(),
                });
            }
        }
    }

    /// Seals the tenant (`CLOSE`) after a final sync, then resets the
    /// client's seq stream so a later [`ServeClient::feed`] recreates
    /// the tenant from scratch — the churn flow.
    ///
    /// # Errors
    ///
    /// Same failure surface as [`ServeClient::sync`].
    pub fn close(&mut self) -> Result<(), ClientError> {
        self.sync()?;
        let reply = self.ask(&format!("CLOSE {}", self.tenant))?;
        // "ERR unknown tenant" after a reconnect means the CLOSE landed
        // just before the connection died — that is success.
        if !reply.starts_with("OK") && !reply.contains("unknown tenant") {
            return Err(ClientError::Protocol { reply });
        }
        self.ring.clear();
        self.next_seq = 1;
        self.acked = 0;
        // The daemon-side tenant is gone; the next operation must
        // re-ATTACH (recreating it) rather than feed a ghost.
        self.drop_conn();
        Ok(())
    }

    /// Flushes buffered feed lines, reconnecting (and replaying) as
    /// needed until they are on the wire or the attempt budget is gone.
    ///
    /// # Errors
    ///
    /// [`ClientError::GaveUp`] when reconnecting stops working.
    pub fn flush_feeds(&mut self) -> Result<(), ClientError> {
        let mut burst = 0u32;
        let mut last = String::from("never attempted");
        loop {
            if burst > self.opts.max_attempts {
                self.stats.gave_up += 1;
                return Err(ClientError::GaveUp {
                    attempts: burst,
                    last,
                });
            }
            if burst > 0 {
                self.backoff(burst);
            }
            if self.conn.is_none() {
                match self.attach_once() {
                    Ok(()) => {}
                    Err(e) => {
                        last = e;
                        burst += 1;
                        continue;
                    }
                }
                // A successful attach replayed the whole un-acked ring,
                // which covers everything out_buf held.
                return Ok(());
            }
            if self.out_buf.is_empty() {
                return Ok(());
            }
            let conn = self.conn.as_mut().expect("checked above");
            match conn
                .write_all(self.out_buf.as_bytes())
                .and_then(|()| conn.flush())
            {
                Ok(()) => {
                    self.out_buf.clear();
                    return Ok(());
                }
                Err(e) => {
                    last = format!("write: {e}");
                    self.drop_conn();
                    burst += 1;
                }
            }
        }
    }

    /// Dials one connection, `ATTACH`es, adopts the watermark, and
    /// replays the un-acked ring. Returns a human-readable failure
    /// reason (the conn is dropped) instead of retrying itself.
    fn attach_once(&mut self) -> Result<(), String> {
        self.read_buf.clear();
        // Anything pending is covered by the ring replay below.
        self.out_buf.clear();
        let mut conn = (self.connector)().map_err(|e| format!("connect: {e}"))?;
        let attach = format!("ATTACH {} {}\n", self.tenant, self.pages);
        let reply = (|| -> io::Result<String> {
            conn.write_all(attach.as_bytes())?;
            conn.flush()?;
            loop {
                let reply = read_reply_line(conn.as_mut(), &mut self.read_buf)?;
                if parse_ack(&reply).is_none() {
                    return Ok(reply);
                }
            }
        })()
        .map_err(|e| format!("attach: {e}"))?;
        let Some(acked) = token_after(&reply, "acked").filter(|_| reply.starts_with("OK")) else {
            return Err(format!("attach refused: {reply}"));
        };
        if self.stats.sent == 0 && self.next_seq == 1 {
            // Fresh client against a resumed tenant: continue the seq
            // stream where the previous incarnation left it instead of
            // colliding with already-applied seqs.
            self.next_seq = acked + 1;
        }
        self.acked = self.acked.max(acked);
        self.prune_ring();
        // Replay everything past the watermark, in seq order. The
        // daemon drops any prefix it already holds.
        let mut replayed = 0u64;
        let replay = (|| -> io::Result<()> {
            for (seq, record) in &self.ring {
                conn.write_all(format_feed_seq(&self.tenant, *seq, record).as_bytes())?;
                conn.write_all(b"\n")?;
                replayed += 1;
            }
            conn.flush()
        })();
        if self.ever_connected {
            self.stats.replayed += replayed;
        }
        replay.map_err(|e| format!("replay: {e}"))?;
        if self.ever_connected {
            self.stats.reconnects += 1;
        }
        self.ever_connected = true;
        self.conn = Some(conn);
        Ok(())
    }

    /// Adopts a watermark report and prunes acknowledged records.
    fn note_ack(&mut self, acked: u64) {
        self.note_ack_value_only(acked);
        self.prune_ring();
    }

    fn note_ack_value_only(&mut self, acked: u64) {
        self.acked = self.acked.max(acked);
    }

    fn prune_ring(&mut self) {
        while self.ring.front().is_some_and(|(seq, _)| *seq <= self.acked) {
            self.ring.pop_front();
        }
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        self.read_buf.clear();
    }

    /// Sleeps `base * 2^(burst-1)` capped at `max`, plus up to one
    /// `base` of seeded jitter — so a thousand clients dropped by one
    /// fault window don't redial in lockstep.
    fn backoff(&mut self, burst: u32) {
        let base = self.opts.base_backoff.max(Duration::from_millis(1));
        let exp = base.saturating_mul(1u32 << burst.saturating_sub(1).min(16));
        let jitter = Duration::from_millis(self.rng.below(base.as_millis().max(1) as u64 + 1));
        std::thread::sleep(exp.min(self.opts.max_backoff) + jitter);
    }
}

/// Reads one `\n`-terminated line from `conn` (buffering partial reads
/// in `buf`), trimmed. EOF mid-line or a reply past [`MAX_REPLY`] is an
/// error — both mean the connection is done.
fn read_reply_line(conn: &mut dyn Conn, buf: &mut Vec<u8>) -> io::Result<String> {
    loop {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            return Ok(String::from_utf8_lossy(&line).trim_end().to_string());
        }
        if buf.len() > MAX_REPLY {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "reply line past 64 KiB",
            ));
        }
        let mut chunk = [0u8; 4096];
        let n = conn.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// The numeric token after `key` in a space-separated reply line.
fn token_after(line: &str, key: &str) -> Option<u64> {
    let mut words = line.split_ascii_whitespace();
    while let Some(word) = words.next() {
        if word == key {
            return words.next()?.parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_after_finds_watermarks() {
        assert_eq!(
            token_after("OK attached t pages 64 acked 17", "acked"),
            Some(17)
        );
        assert_eq!(token_after("OK acked 0", "acked"), Some(0));
        assert_eq!(token_after("OK pong queued 5", "acked"), None);
        assert_eq!(token_after("OK acked x", "acked"), None);
    }

    #[test]
    fn reply_lines_assemble_across_chunks() {
        let mut buf = Vec::new();
        let mut source = std::io::Cursor::new(b"ACK 32\nOK acked 64\n".to_vec());
        assert_eq!(read_reply_line(&mut source, &mut buf).unwrap(), "ACK 32");
        assert_eq!(
            read_reply_line(&mut source, &mut buf).unwrap(),
            "OK acked 64"
        );
        assert!(
            read_reply_line(&mut source, &mut buf).is_err(),
            "EOF is typed"
        );
    }
}
