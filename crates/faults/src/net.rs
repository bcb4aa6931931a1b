//! The transport fault seam: a [`FaultyStream`] that injects connection
//! chaos — mid-write disconnects, short writes, read stalls, and garbage
//! bytes on the wire — into any `Read + Write` stream, driven by one
//! seeded serializable [`NetFaultPlan`].
//!
//! The conventions mirror the storage seam ([`IoFaultPlan`]
//! (crate::IoFaultPlan)) exactly:
//!
//! * **one plan, one fault history** — every faultable operation (each
//!   `read` and `write` call across *all* connections minted by one
//!   [`NetFaultInjector`]) claims a slot on a shared global operation
//!   counter, and injection may only fire while that counter is inside
//!   `[from_op, until_op)`. A bounded window lets a harness demonstrate
//!   recovery; `u64::MAX` keeps the network hostile forever.
//! * **per-connection streams** — each wrapped connection draws from its
//!   own SplitMix64 stream forked from the plan seed and a connection
//!   ordinal, so one connection's draws never perturb another's.
//! * **disabled ⇒ invisible** — a noop plan's wrapper delegates every
//!   call untouched behind a single branch: no RNG draw, no operation
//!   counted, and the bytes on both sides are bit-identical to an
//!   unwrapped stream (asserted in `tests/net_props.rs`).
//!
//! The fault model is **client-side and asymmetric** by design: garbage
//! bytes are injected only into the *write* direction (what the daemon
//! reads), because the daemon is the component whose robustness to
//! hostile bytes the serve protocol guarantees (typed `ERR`, bounded
//! lines, seq/gap rejection). Read-side faults are limited to stalls and
//! disconnects — a client cannot distinguish a corrupted acknowledgement
//! from a truthful one without an application checksum, so corrupting
//! replies would let the harness "prove" loss that no protocol could
//! prevent. A disconnect fault **poisons** the stream: the current call
//! fails and every later read or write fails too, exactly like a socket
//! whose peer vanished; the owner drops the stream (closing the real
//! socket underneath) and reconnects.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::FaultRng;

/// Faults injected at the transport seam ([`FaultyStream`]).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NetFaults {
    /// Per-write probability of a mid-write disconnect: a prefix of the
    /// buffer may reach the wire, the call fails, and the stream is
    /// poisoned — every later operation fails like a dead socket.
    pub disconnect_prob: f64,
    /// Per-write probability (buffers longer than one byte) of a short
    /// write: only a random prefix is accepted and the caller must
    /// retry the rest — the deterministic stand-in for a slow,
    /// back-pressured peer.
    pub short_write_prob: f64,
    /// Per-write probability that random garbage bytes land on the wire
    /// instead of the buffer, after which the stream poisons. Models a
    /// corrupting middlebox or a hostile client; the reader must survive
    /// on typed errors alone.
    pub garbage_prob: f64,
    /// Per-read probability of a stall: the read blocks
    /// [`NetFaults::stall_ms`] before delivering.
    pub read_stall_prob: f64,
    /// Milliseconds each injected read stall costs.
    pub stall_ms: u64,
    /// Per-read probability the connection dies under the reader (the
    /// stream poisons, like a peer reset).
    pub read_disconnect_prob: f64,
}

impl NetFaults {
    /// Whether every knob is zero (the wrapper is a pure pass-through).
    pub fn is_noop(&self) -> bool {
        self.disconnect_prob <= 0.0
            && self.short_write_prob <= 0.0
            && self.garbage_prob <= 0.0
            && (self.read_stall_prob <= 0.0 || self.stall_ms == 0)
            && self.read_disconnect_prob <= 0.0
    }
}

/// A complete, seeded, serializable description of the connection chaos
/// a run injects: probability knobs plus a global operation window, the
/// same convention as [`IoFaultPlan`](crate::IoFaultPlan).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct NetFaultPlan {
    /// Master seed; every connection forks its own stream from it and
    /// its connection ordinal.
    pub seed: u64,
    /// Per-class probability knobs.
    pub faults: NetFaults,
    /// First faultable operation (0-based, global across connections) at
    /// which injection may fire.
    pub from_op: u64,
    /// Operation at which injection stops (exclusive; `u64::MAX` keeps
    /// the network hostile forever).
    pub until_op: u64,
}

impl NetFaultPlan {
    /// A plan that injects nothing — wrapped streams are pure
    /// pass-throughs, bit-identical to unwrapped ones.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// The standard connection-storm mix used by `serve_chaos` and the
    /// CI network-chaos smoke: frequent enough disconnects that every
    /// client reconnects and replays several times per run, short
    /// writes exercising partial-write handling, rare garbage bursts,
    /// and small read stalls — over an open-ended window.
    pub fn storm(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            faults: NetFaults {
                disconnect_prob: 0.01,
                short_write_prob: 0.05,
                garbage_prob: 0.002,
                read_stall_prob: 0.01,
                stall_ms: 2,
                read_disconnect_prob: 0.005,
            },
            from_op: 0,
            until_op: u64::MAX,
        }
    }

    /// Whether no fault can ever fire (zero knobs or an empty window).
    pub fn is_noop(&self) -> bool {
        self.faults.is_noop() || self.from_op >= self.until_op
    }
}

/// Counts of injected transport faults, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFaultCounts {
    /// Mid-write disconnects (stream poisoned on the write path).
    pub disconnects: u64,
    /// Short writes (a prefix accepted, the caller retries the rest).
    pub short_writes: u64,
    /// Garbage bursts written to the wire (then poisoned).
    pub garbage_writes: u64,
    /// Injected read stalls.
    pub read_stalls: u64,
    /// Reads that found the connection dead (stream poisoned).
    pub read_disconnects: u64,
}

impl NetFaultCounts {
    /// Faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.disconnects
            + self.short_writes
            + self.garbage_writes
            + self.read_stalls
            + self.read_disconnects
    }
}

/// Lock-free cells behind [`NetFaultCounts`], shared by every connection
/// the injector mints.
#[derive(Debug, Default)]
struct NetFaultCells {
    disconnects: AtomicU64,
    short_writes: AtomicU64,
    garbage_writes: AtomicU64,
    read_stalls: AtomicU64,
    read_disconnects: AtomicU64,
}

impl NetFaultCells {
    fn snapshot(&self) -> NetFaultCounts {
        NetFaultCounts {
            disconnects: self.disconnects.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
            garbage_writes: self.garbage_writes.load(Ordering::Relaxed),
            read_stalls: self.read_stalls.load(Ordering::Relaxed),
            read_disconnects: self.read_disconnects.load(Ordering::Relaxed),
        }
    }
}

/// A live view into a [`NetFaultInjector`]'s counters, valid for as long
/// as any clone of the injector (or stream minted by it) lives.
#[derive(Debug, Clone)]
pub struct NetFaultMonitor {
    ops: Arc<AtomicU64>,
    connections: Arc<AtomicU64>,
    counts: Arc<NetFaultCells>,
}

impl NetFaultMonitor {
    /// Faults injected so far, by class.
    pub fn injected(&self) -> NetFaultCounts {
        self.counts.snapshot()
    }

    /// Faultable operations seen so far (the window counter).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Connections wrapped so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }
}

/// The factory that mints [`FaultyStream`]s sharing one plan, one global
/// operation window, and one set of counters — clone it into every
/// client thread of a chaos run.
#[derive(Debug, Clone)]
pub struct NetFaultInjector {
    plan: NetFaultPlan,
    ops: Arc<AtomicU64>,
    connections: Arc<AtomicU64>,
    counts: Arc<NetFaultCells>,
}

impl NetFaultInjector {
    /// An injector running `plan`.
    pub fn new(plan: NetFaultPlan) -> Self {
        NetFaultInjector {
            plan,
            ops: Arc::new(AtomicU64::new(0)),
            connections: Arc::new(AtomicU64::new(0)),
            counts: Arc::new(NetFaultCells::default()),
        }
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> NetFaultPlan {
        self.plan
    }

    /// A counter view that outlives this value (see [`NetFaultMonitor`]).
    pub fn monitor(&self) -> NetFaultMonitor {
        NetFaultMonitor {
            ops: Arc::clone(&self.ops),
            connections: Arc::clone(&self.connections),
            counts: Arc::clone(&self.counts),
        }
    }

    /// Wraps one connection. Each call claims the next connection
    /// ordinal and forks that connection's own fault stream from it, so
    /// equal plans over an equal connection order inject equal fault
    /// sequences.
    pub fn wrap<S: Read + Write>(&self, inner: S) -> FaultyStream<S> {
        let conn = self.connections.fetch_add(1, Ordering::Relaxed);
        FaultyStream {
            inner,
            plan: self.plan,
            // `conn + 1` keeps connection 0 distinct from the plain
            // `fork(seed, 0)` streams other seams hand out.
            rng: FaultRng::fork(self.plan.seed, conn.wrapping_add(1)),
            enabled: !self.plan.is_noop(),
            poisoned: false,
            ops: Arc::clone(&self.ops),
            counts: Arc::clone(&self.counts),
        }
    }
}

/// One connection under fault injection: `read`/`write` may fail per the
/// plan, and a disconnect-class fault poisons the stream for good (see
/// the module docs for the exact model).
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    plan: NetFaultPlan,
    rng: FaultRng,
    /// False for a noop plan: every call takes the one-branch
    /// pass-through path, draws nothing, and counts nothing.
    enabled: bool,
    poisoned: bool,
    ops: Arc<AtomicU64>,
    counts: Arc<NetFaultCells>,
}

impl<S> FaultyStream<S> {
    /// Whether a disconnect-class fault has killed this stream.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The wrapped stream back (dropping any pending fault state).
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Claims the next global operation slot and reports whether the
    /// plan's window covers it.
    fn op_in_window(&self) -> bool {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        op >= self.plan.from_op && op < self.plan.until_op
    }

    fn dead(&self) -> io::Error {
        io::Error::new(
            io::ErrorKind::BrokenPipe,
            "injected disconnect: connection poisoned",
        )
    }
}

impl<S: Read + Write> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.enabled {
            return self.inner.read(buf);
        }
        if self.poisoned {
            return Err(self.dead());
        }
        if self.op_in_window() {
            if self.rng.chance(self.plan.faults.read_disconnect_prob) {
                self.counts.read_disconnects.fetch_add(1, Ordering::Relaxed);
                self.poisoned = true;
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected read disconnect",
                ));
            }
            if self.rng.chance(self.plan.faults.read_stall_prob) {
                self.counts.read_stalls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(self.plan.faults.stall_ms));
            }
        }
        self.inner.read(buf)
    }
}

impl<S: Read + Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !self.enabled {
            return self.inner.write(buf);
        }
        if self.poisoned {
            return Err(self.dead());
        }
        if self.op_in_window() {
            if self.rng.chance(self.plan.faults.disconnect_prob) {
                // Mid-write disconnect: a prefix may land on the wire
                // (the reader sees a torn line), then the socket dies.
                self.counts.disconnects.fetch_add(1, Ordering::Relaxed);
                let torn = self.rng.below(buf.len().max(1) as u64) as usize;
                let _ = self.inner.write(&buf[..torn]);
                let _ = self.inner.flush();
                self.poisoned = true;
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected mid-write disconnect",
                ));
            }
            if self.rng.chance(self.plan.faults.garbage_prob) {
                // Garbage on the wire instead of the payload, then the
                // connection dies: the reader must survive arbitrary
                // bytes with a typed error, never a panic.
                self.counts.garbage_writes.fetch_add(1, Ordering::Relaxed);
                let len = 1 + self.rng.below(16) as usize;
                let mut junk = [0u8; 16];
                for byte in junk.iter_mut().take(len) {
                    *byte = (self.rng.next_u64() & 0xFF) as u8;
                }
                let _ = self.inner.write(&junk[..len]);
                let _ = self.inner.flush();
                self.poisoned = true;
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected garbage burst + disconnect",
                ));
            }
            if buf.len() > 1 && self.rng.chance(self.plan.faults.short_write_prob) {
                // A slow peer: accept a random strict prefix; the caller
                // retries the remainder on its next call.
                self.counts.short_writes.fetch_add(1, Ordering::Relaxed);
                let take = 1 + self.rng.below(buf.len() as u64 - 1) as usize;
                return self.inner.write(&buf[..take]);
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.enabled && self.poisoned {
            return Err(self.dead());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A loopback-ish test stream: reads from a script, collects writes.
    struct Duplex {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Duplex {
        fn new(input: &[u8]) -> Self {
            Duplex {
                input: Cursor::new(input.to_vec()),
                output: Vec::new(),
            }
        }
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disabled_and_empty_window_plans_are_noop() {
        assert!(NetFaultPlan::disabled().is_noop());
        assert!(NetFaults::default().is_noop());
        let empty_window = NetFaultPlan {
            from_op: 9,
            until_op: 9,
            ..NetFaultPlan::storm(1)
        };
        assert!(empty_window.is_noop());
        assert!(!NetFaultPlan::storm(1).is_noop());
        let stall_without_delay = NetFaults {
            read_stall_prob: 1.0,
            stall_ms: 0,
            ..NetFaults::default()
        };
        assert!(stall_without_delay.is_noop());
    }

    #[test]
    fn plans_round_trip_through_serde() {
        let plan = NetFaultPlan::storm(42);
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: NetFaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, plan);
    }

    #[test]
    fn disabled_plan_is_bit_identical_and_counts_nothing() {
        let injector = NetFaultInjector::new(NetFaultPlan::disabled());
        let monitor = injector.monitor();
        let mut stream = injector.wrap(Duplex::new(b"reply line\n"));
        stream.write_all(b"FEED t 1 0.5 0 0 1 r\n").unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert_eq!(reply, "reply line\n");
        assert_eq!(stream.into_inner().output, b"FEED t 1 0.5 0 0 1 r\n");
        assert_eq!(monitor.injected().total(), 0);
        assert_eq!(monitor.ops(), 0, "noop plans must not count operations");
        assert_eq!(monitor.connections(), 1);
    }

    #[test]
    fn disconnect_poisons_the_stream_for_good() {
        let plan = NetFaultPlan {
            seed: 3,
            faults: NetFaults {
                disconnect_prob: 1.0,
                ..NetFaults::default()
            },
            from_op: 0,
            until_op: u64::MAX,
        };
        let injector = NetFaultInjector::new(plan);
        let monitor = injector.monitor();
        let mut stream = injector.wrap(Duplex::new(b"never delivered"));
        let err = stream.write(b"hello").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(stream.is_poisoned());
        assert_eq!(
            stream.write(b"again").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        let mut buf = [0u8; 4];
        assert_eq!(
            stream.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        assert!(stream.flush().is_err());
        assert_eq!(monitor.injected().disconnects, 1);
        // The torn prefix is strictly shorter than the buffer.
        assert!(stream.into_inner().output.len() < 5);
    }

    #[test]
    fn garbage_bursts_land_then_poison() {
        let plan = NetFaultPlan {
            seed: 11,
            faults: NetFaults {
                garbage_prob: 1.0,
                ..NetFaults::default()
            },
            from_op: 0,
            until_op: u64::MAX,
        };
        let injector = NetFaultInjector::new(plan);
        let monitor = injector.monitor();
        let mut stream = injector.wrap(Duplex::new(b""));
        assert!(stream.write(b"FEED t 1 0 0 0 1 r\n").is_err());
        assert!(stream.is_poisoned());
        assert_eq!(monitor.injected().garbage_writes, 1);
        let wire = stream.into_inner().output;
        assert!(!wire.is_empty() && wire.len() <= 16, "{}", wire.len());
        assert_ne!(wire.as_slice(), b"FEED t 1 0 0 0 1 r\n");
    }

    #[test]
    fn short_writes_accept_a_strict_prefix() {
        let plan = NetFaultPlan {
            seed: 5,
            faults: NetFaults {
                short_write_prob: 1.0,
                ..NetFaults::default()
            },
            from_op: 0,
            until_op: u64::MAX,
        };
        let injector = NetFaultInjector::new(plan);
        let mut stream = injector.wrap(Duplex::new(b""));
        // write_all loops over short writes, so the full payload lands.
        stream.write_all(b"0123456789").unwrap();
        assert_eq!(stream.into_inner().output, b"0123456789");
        assert!(injector.monitor().injected().short_writes >= 1);
    }

    #[test]
    fn window_gates_injection_then_heals() {
        let plan = NetFaultPlan {
            seed: 7,
            faults: NetFaults {
                disconnect_prob: 1.0,
                ..NetFaults::default()
            },
            from_op: 2,
            until_op: 3,
        };
        let injector = NetFaultInjector::new(plan);
        let mut stream = injector.wrap(Duplex::new(b""));
        assert!(stream.write(b"a").is_ok(), "op 0 precedes the window");
        assert!(stream.write(b"b").is_ok(), "op 1 precedes the window");
        assert!(stream.write(b"c").is_err(), "op 2 is inside the window");
        assert_eq!(injector.monitor().injected().disconnects, 1);
    }

    #[test]
    fn equal_plans_inject_equal_fault_sequences() {
        let mut outcomes: Vec<Vec<bool>> = Vec::new();
        for _ in 0..2 {
            let injector = NetFaultInjector::new(NetFaultPlan::storm(99));
            let mut seen = Vec::new();
            for _ in 0..4 {
                let mut stream = injector.wrap(Duplex::new(b""));
                for _ in 0..100 {
                    seen.push(stream.write(b"abcdef").is_err());
                }
            }
            outcomes.push(seen);
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert!(outcomes[0].iter().any(|&e| e), "storm plan actually fires");
    }
}
