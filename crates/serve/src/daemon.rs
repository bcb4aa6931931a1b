//! The daemon: listener, worker pool, tenant registry, metrics
//! endpoint, and the shutdown/seal/resume machinery.
//!
//! ## Threading model
//!
//! One **accept** thread owns the listener and, at shutdown, the seal.
//! Each client connection gets its own thread that parses request
//! lines; `FEED` pushes the record onto the tenant's queue and wakes
//! the worker pool, every other verb answers inline. A fixed pool of
//! **worker** threads pulls runnable tenants off an MPMC-ish channel
//! (an `mpsc` receiver behind a mutex) and advances each tenant's
//! [`PolicyStepper`] by at most one batch before yielding the tenant
//! back to the queue — so a tenant with a deep backlog cannot starve
//! the rest, and control queries (which take the same per-tenant lock)
//! wait at most one batch.
//!
//! ## Exactly-once ingest
//!
//! A sequenced `FEED` carries a client-assigned per-tenant seq. The
//! tenant's **ack watermark** (highest contiguously applied seq) is
//! advanced under the queue lock, together with the push it
//! acknowledges: replays at or below the watermark are dropped
//! (counted in `serve.feed.duplicates`), seqs past `watermark + 1` are
//! refused with `ERR feed seq gap`, and every `ack_every`-th accepted
//! seq pushes a standalone `ACK <seq>` line. `OPEN`/`ATTACH` return
//! the watermark, the manifest persists it, and resume restores it —
//! so replay after any disconnect or restart is idempotent.
//!
//! ## Backpressure
//!
//! The global queued-record count is the control signal. Crossing
//! [`ServeConfig::shed_high`] flips the shared overload flag: every
//! tenant's next period decision fails through
//! [`OverloadPolicy`](crate::OverloadPolicy) (the degradation guard
//! retreats joint → power-down → always-on) and new `OPEN`s are
//! rejected. Draining below [`ServeConfig::shed_low`] clears the flag;
//! the guards promote back on their own healthy-streak ladder. The
//! daemon never blocks a stream to protect itself — it degrades
//! decision quality instead.
//!
//! ## Durability
//!
//! `SHUTDOWN` (or `SIGTERM`) stops admissions, lets the workers drain,
//! seals one `.jck` checkpoint per tenant ([`jpmd_ckpt`]'s
//! crash-consistent protocol, WAL flushed first), and publishes a
//! [`TenantManifest`] naming them all. A restart with
//! [`ServeConfig::resume`] rebuilds every tenant from its image;
//! clients replay their streams from the start and the stepper
//! discards the already-consumed prefix.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use jpmd_ckpt::{
    load_checkpoint, load_tenant_manifest, save_tenant_manifest, CkptMeta, FileCheckpointer,
    TenantEntry, TenantManifest,
};
use jpmd_faults::FallbackLevel;
use jpmd_obs::{labeled, Counter, Gauge, JsonlSink, MetricsRegistry, Telemetry, WalPolicy};
use jpmd_sim::PolicyStepper;
use jpmd_trace::{check_record, TraceError, TraceRecord};

use crate::proto::{parse_request, QueryKind, Request};
use crate::tenant::{build_stepper, TenantController};
use crate::{sigterm_received, ServeConfig};

/// How often the accept loop polls for shutdown between connections.
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// How long an idle worker waits before re-checking the exit condition.
const WORKER_POLL: Duration = Duration::from_millis(50);
/// Read timeout on accepted connections — how often a blocked read
/// wakes to re-check the shutdown flag, so a stalled client can't pin
/// its thread past shutdown.
const CONN_READ_TIMEOUT: Duration = Duration::from_millis(200);
/// Consecutive read timeouts an HTTP client gets to finish its request
/// head (~10 s) before the connection is dropped; the line protocol has
/// no such limit because an idle session between requests is normal.
const HTTP_IDLE_LIMIT: u32 = 50;
/// Cap on simultaneously live connection threads; accepts past the cap
/// are dropped on the floor rather than exhausting threads.
const MAX_CONNECTIONS: usize = 256;
/// Longest accepted request line, bytes (newline included). A hostile
/// or corrupted client that streams a line past this gets a typed
/// `ERR line too long` and the connection closed — never unbounded
/// `String` growth.
const MAX_LINE: usize = 8192;
/// Consecutive read timeouts (~5 s) a client holding a *partial* line
/// gets before the connection is dropped as stalled. Idle between
/// complete requests is unlimited — only a torn line pins this.
const MIDLINE_IDLE_LIMIT: u32 = 25;

/// One tenant as the daemon sees it: the inbound record queue and the
/// policy stack behind it, separately locked so feeding never waits on
/// a decision in progress.
struct TenantHandle {
    name: String,
    /// The tenant's page space: fed records must lie inside it.
    pages: u64,
    /// Records accepted but not yet stepped.
    queue: Mutex<VecDeque<TraceRecord>>,
    /// True while the handle sits in the worker channel or a worker is
    /// draining it — at most one worker touches a tenant at a time,
    /// which is what keeps per-tenant telemetry deterministic.
    scheduled: AtomicBool,
    /// Set (under the queue lock) by the seal's final drain; a feed
    /// that observes it drops the record instead of stranding it on a
    /// queue nobody will drain, which would pin the global backlog
    /// above zero forever.
    closed: AtomicBool,
    /// The feed ack watermark: highest client-assigned seq whose record
    /// (and every predecessor) is queued or applied. Advanced only
    /// under the queue lock, together with the push it acknowledges, so
    /// an acked record can never have been dropped by a racing seal.
    acked: AtomicU64,
    /// Sequenced feeds at or below the watermark (replays after
    /// reconnect) — dropped when dedup is on, applied twice when the
    /// negative-control `--no-dedup` mode is proving the harness works.
    duplicates: Counter,
    state: Mutex<TenantState>,
}

struct TenantState {
    stepper: PolicyStepper<TenantController>,
    telemetry: Telemetry,
    pages: u64,
    /// Feeds accepted over the tenant's lifetime (including a resumed
    /// stream's discarded prefix).
    records: u64,
    /// The tenant's WAL path, when telemetry is on.
    wal: Option<String>,
    decisions: Counter,
    records_metric: Counter,
    level_gauge: Gauge,
    energy_gauge: Gauge,
    wal_errors_metric: Counter,
    /// WAL write errors already mirrored into the metrics (the
    /// telemetry counter is cumulative; the registry wants deltas).
    wal_errors_seen: u64,
    /// Whether this tenant's WAL was degraded at the last poll (rides
    /// the global degraded-tenant gauge on flips).
    degraded: bool,
}

impl TenantState {
    fn feed_batch(&mut self, batch: impl IntoIterator<Item = TraceRecord>) -> u64 {
        let mut fed = 0u64;
        for record in batch {
            self.stepper.feed(record);
            fed += 1;
        }
        let fresh = self.stepper.poll_rows().len() as u64;
        self.decisions.add(fresh);
        self.records += fed;
        self.records_metric.add(fed);
        let level = match self.stepper.controller().level() {
            FallbackLevel::Joint => 0.0,
            FallbackLevel::PowerDown => 1.0,
            FallbackLevel::AlwaysOn => 2.0,
        };
        self.level_gauge.set(level);
        self.energy_gauge.set(self.stepper.energy_so_far_j());
        fed
    }
}

/// What became of one `FEED` (see [`ServerState::feed`]).
enum FeedSlot {
    /// Queued; `ack` carries a seq when this record crossed an
    /// `ack_every` boundary and the connection should push `ACK <seq>`.
    Accepted { ack: Option<u64> },
    /// Sequenced replay at or below the watermark, deduplicated.
    Duplicate,
    /// Sequenced feed above `watermark + 1`; refused with a typed error
    /// so the client re-attaches instead of leaving a hole.
    Gap {
        /// The seq the daemon will accept next.
        want: u64,
        /// The seq the client sent.
        got: u64,
    },
    /// A record outside the trace invariants (no pages, or pages past
    /// the tenant's page space); refused before it touches the queue or
    /// the watermark.
    Invalid(TraceError),
    /// Unknown tenant, shutdown, or a seal race — fire-and-forget drop.
    Dropped,
}

/// A point-in-time copy of the daemon's global counters (the `STATS`
/// verb, and the integration tests' window into the admission state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaemonStats {
    /// Open tenants.
    pub tenants: usize,
    /// Records accepted but not yet stepped, across all tenants.
    pub queued: u64,
    /// Whether admission shedding is in force.
    pub shedding: bool,
    /// Records accepted over the daemon's lifetime.
    pub records_total: u64,
    /// `OPEN`s rejected (shedding or tenant cap).
    pub rejected_opens: u64,
    /// Tenant-WAL write failures absorbed so far (the records rode the
    /// in-memory ring instead of dying with the daemon).
    pub wal_write_errors: u64,
    /// Tenants whose WAL is currently degraded (riding the ring or
    /// carrying a dirty tail).
    pub degraded_tenants: u64,
    /// Connections accepted over the daemon's lifetime.
    pub conns_accepted: u64,
    /// Accepted connections dropped at the 256-connection cap.
    pub conns_dropped: u64,
    /// Connections dropped because a partially-read line stalled past
    /// the mid-line idle limit (or an HTTP head never finished).
    pub read_timeouts: u64,
    /// Sequenced feed replays at or below a tenant's ack watermark,
    /// across all tenants.
    pub feed_duplicates: u64,
}

struct ServerState {
    cfg: ServeConfig,
    registry: MetricsRegistry,
    tenants: Mutex<BTreeMap<String, Arc<TenantHandle>>>,
    ready_tx: Mutex<Sender<Arc<TenantHandle>>>,
    queued: AtomicU64,
    /// Shared with every tenant's [`OverloadPolicy`](crate::OverloadPolicy):
    /// one flag drives both policy degradation and `OPEN` rejection.
    overload: Arc<AtomicBool>,
    shutdown: AtomicBool,
    tenants_gauge: Gauge,
    queued_gauge: Gauge,
    admission_gauge: Gauge,
    records_total: Counter,
    rejected_opens: Counter,
    connections: Counter,
    /// Connections admitted by the accept loop
    /// (`serve.conn.accepted`).
    conn_accepted: Counter,
    /// Connections the daemon dropped on purpose: refused at the
    /// connection cap, or closed for an over-long request line
    /// (`serve.conn.dropped`).
    conn_dropped: Counter,
    /// Stalled-read connection drops (`serve.conn.read_timeouts`).
    read_timeouts: Counter,
    /// Daemon-wide sum of per-tenant feed duplicates
    /// (`serve.feed.duplicates`).
    duplicates: Counter,
    /// Daemon-wide sum of tenant-WAL write failures.
    wal_errors: Counter,
    /// Gauge mirror of [`ServerState::degraded_tenants`]
    /// (`serve.storage_degraded` in `/metrics`).
    degraded_gauge: Gauge,
    /// Tenants currently in WAL degradation (source of truth behind the
    /// gauge; flips are applied under the tenant's state lock).
    degraded_tenants: AtomicU64,
    /// Live connection threads, bounded by [`MAX_CONNECTIONS`].
    live_connections: AtomicUsize,
}

impl ServerState {
    fn new(cfg: ServeConfig, ready_tx: Sender<Arc<TenantHandle>>) -> Self {
        let registry = MetricsRegistry::new();
        ServerState {
            tenants_gauge: registry.gauge("serve.tenants"),
            queued_gauge: registry.gauge("serve.queued"),
            admission_gauge: registry.gauge("serve.admission.shedding"),
            records_total: registry.counter("serve.records_total"),
            rejected_opens: registry.counter("serve.rejected_opens"),
            connections: registry.counter("serve.connections"),
            conn_accepted: registry.counter("serve.conn.accepted"),
            conn_dropped: registry.counter("serve.conn.dropped"),
            read_timeouts: registry.counter("serve.conn.read_timeouts"),
            duplicates: registry.counter("serve.feed.duplicates"),
            wal_errors: registry.counter("serve.wal_write_errors"),
            degraded_gauge: registry.gauge("serve.storage_degraded"),
            degraded_tenants: AtomicU64::new(0),
            cfg,
            registry,
            tenants: Mutex::new(BTreeMap::new()),
            ready_tx: Mutex::new(ready_tx),
            queued: AtomicU64::new(0),
            overload: Arc::new(AtomicBool::new(false)),
            shutdown: AtomicBool::new(false),
            live_connections: AtomicUsize::new(0),
        }
    }

    fn stats(&self) -> DaemonStats {
        DaemonStats {
            tenants: self.tenants.lock().expect("tenant map lock").len(),
            queued: self.queued.load(Ordering::Acquire),
            shedding: self.overload.load(Ordering::Relaxed),
            records_total: self.records_total.get(),
            rejected_opens: self.rejected_opens.get(),
            wal_write_errors: self.wal_errors.get(),
            degraded_tenants: self.degraded_tenants.load(Ordering::Relaxed),
            conns_accepted: self.conn_accepted.get(),
            conns_dropped: self.conn_dropped.get(),
            read_timeouts: self.read_timeouts.get(),
            feed_duplicates: self.duplicates.get(),
        }
    }

    fn lookup(&self, name: &str) -> Option<Arc<TenantHandle>> {
        self.tenants
            .lock()
            .expect("tenant map lock")
            .get(name)
            .cloned()
    }

    fn schedule(&self, handle: Arc<TenantHandle>) {
        // A send can only fail after the workers are gone, i.e. during
        // shutdown — the seal drains whatever the channel missed.
        let _ = self
            .ready_tx
            .lock()
            .expect("ready sender lock")
            .send(handle);
    }

    fn tenant_metrics(&self, name: &str) -> (Counter, Counter, Gauge, Gauge, Counter, Counter) {
        let labels = [("tenant", name)];
        (
            self.registry
                .counter(&labeled("serve.tenant.decisions", &labels)),
            self.registry
                .counter(&labeled("serve.tenant.records", &labels)),
            self.registry.gauge(&labeled("serve.tenant.level", &labels)),
            self.registry
                .gauge(&labeled("serve.tenant.energy_j", &labels)),
            self.registry
                .counter(&labeled("serve.tenant.wal_write_errors", &labels)),
            self.registry
                .counter(&labeled("serve.tenant.feed_duplicates", &labels)),
        )
    }

    /// Mirrors the tenant's WAL health (cumulative write-error count and
    /// the degraded flag) into the registry and the daemon-wide
    /// counters. Runs under the tenant's state lock, so the flip
    /// accounting on the global degraded-tenant count is exact.
    fn poll_wal_health(&self, state: &mut TenantState) {
        let errors = state.telemetry.write_errors();
        let delta = errors.saturating_sub(state.wal_errors_seen);
        if delta > 0 {
            state.wal_errors_seen = errors;
            state.wal_errors_metric.add(delta);
            self.wal_errors.add(delta);
        }
        let degraded = state.telemetry.storage_degraded();
        if degraded != state.degraded {
            state.degraded = degraded;
            let now = if degraded {
                self.degraded_tenants.fetch_add(1, Ordering::AcqRel) + 1
            } else {
                self.degraded_tenants.fetch_sub(1, Ordering::AcqRel) - 1
            };
            self.degraded_gauge.set(now as f64);
        }
    }

    fn wal_path(&self, name: &str) -> std::path::PathBuf {
        self.cfg.dir.join(format!("{name}.jsonl"))
    }

    fn ckpt_path(&self, name: &str) -> std::path::PathBuf {
        self.cfg.dir.join(format!("{name}.jck"))
    }

    /// Admits a tenant (`OPEN`) or reconnects to one (`ATTACH`).
    /// Idempotent for an already-open name; either way the reply
    /// carries the tenant's feed ack watermark, which is what a
    /// reconnecting client replays against.
    ///
    /// Holds the tenant-map lock across the existence check, the cap
    /// check, and the insert: two concurrent `OPEN`s of one name must
    /// not both build steppers (and WAL sinks on the same path) with
    /// the loser overwriting the winner's handle, and concurrent
    /// `OPEN`s of distinct names must not slip past `max_tenants`.
    /// `OPEN` is a rare verb, so briefly blocking feeds/lookups on the
    /// stepper build is the cheap side of that trade.
    ///
    /// The existence check runs *before* the overload check, and
    /// `ATTACH` skips the overload check entirely: a reconnecting
    /// client must always be able to learn the watermark — refusing it
    /// while shedding would turn backpressure into data loss.
    fn open_or_attach(&self, name: &str, pages: Option<u64>, attach: bool) -> String {
        let verb = if attach { "attached" } else { "opened" };
        if self.shutdown.load(Ordering::Acquire) {
            return "ERR shutting down".into();
        }
        let mut tenants = self.tenants.lock().expect("tenant map lock");
        if let Some(existing) = tenants.get(name) {
            let pages = existing.state.lock().expect("tenant state lock").pages;
            // With ack-dedup disabled (the chaos harness's negative
            // control) the daemon plays dumb wholesale: no watermark at
            // attach, so reconnect replays are blind and already-applied
            // records land twice.
            let acked = if self.cfg.dedup {
                existing.acked.load(Ordering::Acquire)
            } else {
                0
            };
            return format!("OK {verb} {name} pages {pages} acked {acked}");
        }
        if !attach && self.overload.load(Ordering::Relaxed) {
            self.rejected_opens.inc();
            return "ERR shedding load, admission closed".into();
        }
        if tenants.len() >= self.cfg.max_tenants {
            self.rejected_opens.inc();
            return format!("ERR tenant limit {} reached", self.cfg.max_tenants);
        }
        let pages = pages.unwrap_or(self.cfg.default_pages).max(1);
        let (telemetry, wal) = if self.cfg.telemetry {
            let path = self.wal_path(name);
            match JsonlSink::create_with_on(self.cfg.backend.clone(), &path, WalPolicy::wal()) {
                Ok(sink) => (
                    Telemetry::new(Box::new(sink)),
                    Some(path.to_string_lossy().into_owned()),
                ),
                Err(e) => return format!("ERR telemetry: {e}"),
            }
        } else {
            (Telemetry::disabled(), None)
        };
        let stepper = match build_stepper(
            &self.cfg,
            name,
            pages,
            &telemetry,
            Arc::clone(&self.overload),
            None,
        ) {
            Ok(stepper) => stepper,
            Err(e) => return format!("ERR open failed: {e}"),
        };
        let handle = self.make_handle(name, stepper, telemetry, pages, 0, 0, wal);
        tenants.insert(name.to_string(), handle);
        self.tenants_gauge.set(tenants.len() as f64);
        format!("OK {verb} {name} pages {pages} acked 0")
    }

    #[allow(clippy::too_many_arguments)]
    fn make_handle(
        &self,
        name: &str,
        stepper: PolicyStepper<TenantController>,
        telemetry: Telemetry,
        pages: u64,
        records: u64,
        acked: u64,
        wal: Option<String>,
    ) -> Arc<TenantHandle> {
        let (decisions, records_metric, level_gauge, energy_gauge, wal_errors_metric, duplicates) =
            self.tenant_metrics(name);
        Arc::new(TenantHandle {
            name: name.to_string(),
            pages,
            queue: Mutex::new(VecDeque::new()),
            scheduled: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            acked: AtomicU64::new(acked),
            duplicates,
            state: Mutex::new(TenantState {
                stepper,
                telemetry,
                pages,
                records,
                wal,
                decisions,
                records_metric,
                level_gauge,
                energy_gauge,
                wal_errors_metric,
                wal_errors_seen: 0,
                degraded: false,
            }),
        })
    }

    /// The `FEED` fast path: enqueue, bump the backlog, wake a worker.
    /// Records for unknown tenants (or after shutdown began) are
    /// dropped; records outside the trace invariants are refused. A
    /// sequenced feed is judged against the tenant's ack
    /// watermark — the dedup/gap decision, the watermark advance, and
    /// the push all happen under the queue lock, so an acknowledged seq
    /// always has its record either queued or applied, never dropped by
    /// a racing seal.
    fn feed(&self, name: &str, seq: Option<u64>, record: TraceRecord) -> FeedSlot {
        if self.shutdown.load(Ordering::Acquire) {
            return FeedSlot::Dropped;
        }
        let Some(handle) = self.lookup(name) else {
            return FeedSlot::Dropped;
        };
        // The shared ingestion check, with no ordering constraint: the
        // engine clamps out-of-order arrivals itself. The seq (0 when
        // unsequenced) names the record in the error.
        if let Err(e) = check_record(&record, f64::NEG_INFINITY, handle.pages, seq.unwrap_or(0)) {
            return FeedSlot::Invalid(e);
        }
        // Count the record *before* it becomes visible in the queue:
        // the queue mutex then guarantees that any worker draining it
        // observes this increment first, so the drain's decrement can
        // never pull `queued` below zero.
        let backlog = self.queued.fetch_add(1, Ordering::AcqRel) + 1;
        let slot = {
            let mut queue = handle.queue.lock().expect("tenant queue lock");
            if handle.closed.load(Ordering::Acquire) {
                FeedSlot::Dropped
            } else {
                match seq {
                    None => {
                        queue.push_back(record);
                        FeedSlot::Accepted { ack: None }
                    }
                    Some(seq) => {
                        let acked = handle.acked.load(Ordering::Acquire);
                        if seq <= acked {
                            // A replay the daemon has already applied.
                            handle.duplicates.inc();
                            self.duplicates.inc();
                            if self.cfg.dedup {
                                FeedSlot::Duplicate
                            } else {
                                // Negative control: apply it twice so
                                // the chaos harness can prove it
                                // detects duplication.
                                queue.push_back(record);
                                FeedSlot::Accepted { ack: None }
                            }
                        } else if seq == acked + 1 || !self.cfg.dedup {
                            handle.acked.store(seq.max(acked), Ordering::Release);
                            queue.push_back(record);
                            FeedSlot::Accepted {
                                ack: (self.cfg.ack_every > 0
                                    && seq.is_multiple_of(self.cfg.ack_every))
                                .then_some(seq),
                            }
                        } else {
                            // The client skipped ahead: accepting would
                            // punch a silent hole below the watermark.
                            FeedSlot::Gap {
                                want: acked + 1,
                                got: seq,
                            }
                        }
                    }
                }
            }
        };
        if !matches!(slot, FeedSlot::Accepted { .. }) {
            // Nothing landed on the queue (seal race, duplicate, or
            // gap): take the record's count back out.
            self.record_drained(1);
            return slot;
        }
        self.queued_gauge.set(backlog as f64);
        if backlog >= self.cfg.shed_high && !self.overload.swap(true, Ordering::Relaxed) {
            self.admission_gauge.set(1.0);
        }
        if !handle.scheduled.swap(true, Ordering::AcqRel) {
            self.schedule(handle);
        }
        slot
    }

    /// Takes `drained` records out of the global backlog and applies
    /// the shed-low hysteresis — every drain path (worker batches, the
    /// CLOSE/shutdown seal, a feed beaten by a seal) must go through
    /// here so the overload flag can never stay latched after the
    /// backlog empties.
    fn record_drained(&self, drained: u64) {
        if drained == 0 {
            return;
        }
        let backlog = self
            .queued
            .fetch_sub(drained, Ordering::AcqRel)
            .saturating_sub(drained);
        self.queued_gauge.set(backlog as f64);
        if backlog < self.cfg.shed_low && self.overload.swap(false, Ordering::Relaxed) {
            self.admission_gauge.set(0.0);
        }
    }

    /// One worker turn: drain at most one batch from the tenant, then
    /// yield it back to the run queue if records remain.
    fn drain_one(&self, handle: &Arc<TenantHandle>) {
        let drained = {
            let mut state = handle.state.lock().expect("tenant state lock");
            let batch: Vec<TraceRecord> = {
                let mut queue = handle.queue.lock().expect("tenant queue lock");
                let take = queue.len().min(self.cfg.batch.max(1));
                queue.drain(..take).collect()
            };
            let fed = state.feed_batch(batch);
            self.records_total.add(fed);
            self.poll_wal_health(&mut state);
            fed
        };
        self.record_drained(drained);
        if !handle.queue.lock().expect("tenant queue lock").is_empty() {
            // Still backlogged: keep `scheduled` set and requeue.
            self.schedule(Arc::clone(handle));
            return;
        }
        handle.scheduled.store(false, Ordering::Release);
        // Close the race with a concurrent feed that saw `scheduled`
        // still true and skipped the wake-up.
        if !handle.queue.lock().expect("tenant queue lock").is_empty()
            && !handle.scheduled.swap(true, Ordering::AcqRel)
        {
            self.schedule(Arc::clone(handle));
        }
    }

    fn query(&self, name: &str, what: QueryKind) -> String {
        let Some(handle) = self.lookup(name) else {
            return format!("ERR unknown tenant '{name}'");
        };
        let state = handle.state.lock().expect("tenant state lock");
        match what {
            QueryKind::Timeout => format!("OK timeout_s {}", state.stepper.disk_timeout()),
            QueryKind::Banks => format!(
                "OK banks {} total {}",
                state.stepper.enabled_banks(),
                state.stepper.total_banks()
            ),
            QueryKind::Energy => format!("OK energy_j {}", state.stepper.energy_so_far_j()),
            QueryKind::MissCurve => {
                let evals = state
                    .stepper
                    .controller()
                    .inner()
                    .joint()
                    .last_evaluations();
                let mut line = format!("OK misscurve {}", evals.len());
                for eval in evals {
                    line.push_str(&format!(" {}:{}", eval.banks, eval.disk_accesses));
                }
                line
            }
            QueryKind::Status => {
                let queued = handle.queue.lock().expect("tenant queue lock").len();
                format!(
                    "OK tenant {name} records {} periods {} level {} queued {queued} acked {}",
                    state.records,
                    state.stepper.rows().len(),
                    state.stepper.controller().level().as_str(),
                    handle.acked.load(Ordering::Acquire),
                )
            }
            QueryKind::Acked => {
                format!("OK acked {}", handle.acked.load(Ordering::Acquire))
            }
        }
    }

    fn close(&self, name: &str) -> String {
        let removed = {
            let mut tenants = self.tenants.lock().expect("tenant map lock");
            let removed = tenants.remove(name);
            self.tenants_gauge.set(tenants.len() as f64);
            removed
        };
        match removed {
            Some(handle) => match self.seal_tenant(&handle) {
                Ok(_) => format!("OK closed {name}"),
                Err(e) => format!("ERR seal failed for {name}: {e}"),
            },
            None => format!("ERR unknown tenant '{name}'"),
        }
    }

    /// Drains the tenant's remaining queue inline, captures its
    /// checkpoint, and publishes the `.jck` (WAL flushed first by the
    /// checkpointer). The handle must already be out of the map.
    fn seal_tenant(&self, handle: &Arc<TenantHandle>) -> Result<TenantEntry, String> {
        let mut state = handle.state.lock().expect("tenant state lock");
        loop {
            let batch: Vec<TraceRecord> = {
                let mut queue = handle.queue.lock().expect("tenant queue lock");
                // Under the queue lock, so any later feed sees the flag
                // and drops its record instead of stranding it here.
                handle.closed.store(true, Ordering::Release);
                queue.drain(..).collect()
            };
            if batch.is_empty() {
                break;
            }
            let fed = state.feed_batch(batch);
            self.records_total.add(fed);
            self.record_drained(fed);
        }
        let ckpt = state.stepper.checkpoint();
        let ckpt_path = self.ckpt_path(&handle.name);
        let mut meta = CkptMeta::new("serve-tenant");
        if let Some(wal) = &state.wal {
            meta = meta.with_telemetry(wal.clone());
        }
        let mut saver = FileCheckpointer::new(&ckpt_path, meta, state.telemetry.clone())
            .with_backend(self.cfg.backend.clone());
        let sealed = saver.save(&ckpt);
        // The save's WAL flush is the last write this tenant performs;
        // fold its outcome into the metrics, then retire the tenant's
        // degraded contribution — it is leaving the registry either way.
        self.poll_wal_health(&mut state);
        if state.degraded {
            state.degraded = false;
            let now = self.degraded_tenants.fetch_sub(1, Ordering::AcqRel) - 1;
            self.degraded_gauge.set(now as f64);
        }
        if !sealed {
            return Err(saver
                .take_error()
                .map_or_else(|| "unknown checkpoint error".into(), |e| e.to_string()));
        }
        Ok(TenantEntry {
            name: handle.name.clone(),
            pages: state.pages,
            records: state.records,
            acked: handle.acked.load(Ordering::Acquire),
            checkpoint: ckpt_path.to_string_lossy().into_owned(),
            telemetry: state.wal.clone(),
        })
    }

    /// Seals every remaining tenant and publishes the shutdown
    /// manifest. Runs on the accept thread after the workers joined.
    fn seal_all(&self) {
        let tenants = std::mem::take(&mut *self.tenants.lock().expect("tenant map lock"));
        self.tenants_gauge.set(0.0);
        let mut manifest = TenantManifest::new("serve", 0);
        for handle in tenants.values() {
            match self.seal_tenant(handle) {
                Ok(entry) => manifest.tenants.push(entry),
                Err(e) => eprintln!("jpmd-serve: seal failed for {}: {e}", handle.name),
            }
        }
        let path = self.cfg.dir.join("tenants.jck");
        if let Err(e) = save_tenant_manifest(&path, &manifest) {
            eprintln!("jpmd-serve: manifest save failed: {e}");
        }
    }

    /// Rebuilds every tenant named by a previous shutdown's manifest.
    fn resume_tenants(&self) -> io::Result<usize> {
        let path = self.cfg.dir.join("tenants.jck");
        if !path.exists() {
            return Ok(0);
        }
        let manifest = load_tenant_manifest(&path)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut resumed = 0;
        for entry in &manifest.tenants {
            let (_meta, ckpt) = load_checkpoint(&entry.checkpoint)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let (telemetry, wal) = match &entry.telemetry {
                Some(wal) => {
                    let sink = JsonlSink::resume_on(
                        self.cfg.backend.clone(),
                        wal,
                        ckpt.telemetry_seq,
                        WalPolicy::wal(),
                    )?;
                    (Telemetry::new(Box::new(sink)), Some(wal.clone()))
                }
                None => (Telemetry::disabled(), None),
            };
            let stepper = build_stepper(
                &self.cfg,
                &entry.name,
                entry.pages,
                &telemetry,
                Arc::clone(&self.overload),
                Some(&ckpt),
            )
            .map_err(io::Error::other)?;
            let handle = self.make_handle(
                &entry.name,
                stepper,
                telemetry,
                entry.pages,
                entry.records,
                entry.acked,
                wal,
            );
            let mut tenants = self.tenants.lock().expect("tenant map lock");
            tenants.insert(entry.name.clone(), handle);
            self.tenants_gauge.set(tenants.len() as f64);
            resumed += 1;
        }
        Ok(resumed)
    }
}

fn worker_loop(state: &Arc<ServerState>, ready_rx: &Mutex<Receiver<Arc<TenantHandle>>>) {
    loop {
        let next = {
            let rx = ready_rx.lock().expect("ready receiver lock");
            rx.recv_timeout(WORKER_POLL)
        };
        match next {
            Ok(handle) => state.drain_one(&handle),
            Err(RecvTimeoutError::Timeout) => {
                if state.shutdown.load(Ordering::Acquire)
                    && state.queued.load(Ordering::Acquire) == 0
                {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Executes one parsed request; `None` means no response line (an
/// accepted or deduplicated `FEED`).
fn execute(state: &Arc<ServerState>, request: Request) -> Option<String> {
    match request {
        Request::Feed {
            tenant,
            seq,
            record,
        } => match state.feed(&tenant, seq, record) {
            FeedSlot::Accepted { ack: Some(seq) } => Some(format!("ACK {seq}")),
            FeedSlot::Accepted { ack: None } | FeedSlot::Duplicate | FeedSlot::Dropped => None,
            FeedSlot::Gap { want, got } => Some(format!("ERR feed seq gap: want {want} got {got}")),
            FeedSlot::Invalid(e) => Some(format!("ERR feed {e}")),
        },
        Request::Open { tenant, pages } => Some(state.open_or_attach(&tenant, pages, false)),
        Request::Attach { tenant, pages } => Some(state.open_or_attach(&tenant, pages, true)),
        Request::Query { tenant, what } => Some(state.query(&tenant, what)),
        Request::Close { tenant } => Some(state.close(&tenant)),
        Request::Ping => Some(format!(
            "OK pong queued {}",
            state.queued.load(Ordering::Acquire)
        )),
        Request::Stats => {
            let s = state.stats();
            Some(format!(
                "OK tenants {} queued {} shedding {} records {} rejected {} \
                 wal_errors {} degraded {} conns {} conn_dropped {} \
                 read_timeouts {} duplicates {}",
                s.tenants,
                s.queued,
                u8::from(s.shedding),
                s.records_total,
                s.rejected_opens,
                s.wal_write_errors,
                s.degraded_tenants,
                s.conns_accepted,
                s.conns_dropped,
                s.read_timeouts,
                s.feed_duplicates
            ))
        }
        Request::Shutdown => {
            state.shutdown.store(true, Ordering::Release);
            Some("OK shutting-down".into())
        }
    }
}

/// Bounded line read against a stream carrying [`CONN_READ_TIMEOUT`]:
/// timeouts retry (an idle protocol client between requests is normal)
/// until the daemon begins shutdown, a *partial* line stalls past
/// [`MIDLINE_IDLE_LIMIT`], or — when `idle_limit` is set — that many
/// timeouts pass without a byte arriving at all. Returns the bytes
/// consumed from the stream (EOF after a partial, unterminated final
/// line still delivers it); `Ok(0)` means EOF with nothing buffered, or
/// give-up — a timed-out partial line is incomplete by definition and
/// is dropped with the connection (counted in
/// `serve.conn.read_timeouts`).
///
/// The line is bounded at [`MAX_LINE`] bytes: one byte past it is a
/// typed [`io::ErrorKind::InvalidData`] error, never unbounded `String`
/// growth from a hostile or corrupted client. Invalid UTF-8 is replaced
/// lossily rather than erroring — garbage on the wire must reach the
/// parser and come back as a protocol-level `ERR`, not kill the read
/// path silently.
fn read_line_interruptible<R: BufRead>(
    state: &ServerState,
    reader: &mut R,
    line: &mut String,
    idle_limit: Option<u32>,
) -> io::Result<usize> {
    let mut consumed = 0usize;
    let mut idle = 0u32;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if state.shutdown.load(Ordering::Acquire) {
                    return Ok(0);
                }
                idle += 1;
                if idle_limit.is_some_and(|limit| idle >= limit)
                    || (consumed > 0 && idle >= MIDLINE_IDLE_LIMIT)
                {
                    state.read_timeouts.inc();
                    return Ok(0);
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            // EOF: deliver whatever partial line is assembled.
            return Ok(consumed);
        }
        let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (chunk.len(), false),
        };
        if consumed + take > MAX_LINE {
            // Leave the tail unconsumed — the connection closes anyway.
            return Err(io::Error::new(io::ErrorKind::InvalidData, "line too long"));
        }
        line.push_str(&String::from_utf8_lossy(&chunk[..take]));
        reader.consume(take);
        consumed += take;
        idle = 0;
        if done {
            return Ok(consumed);
        }
    }
}

/// Serves `GET /metrics` (Prometheus text exposition) over just enough
/// HTTP/1.0: read the request head, write one response, close.
fn serve_http<R: BufRead>(
    state: &Arc<ServerState>,
    reader: &mut R,
    writer: &mut impl Write,
    request_line: &str,
) -> io::Result<()> {
    // Drain the request head so the client's write never sees a reset.
    let mut line = String::new();
    loop {
        line.clear();
        if read_line_interruptible(state, reader, &mut line, Some(HTTP_IDLE_LIMIT))? == 0
            || line.trim_end().is_empty()
        {
            break;
        }
    }
    let target = request_line.split_ascii_whitespace().nth(1).unwrap_or("");
    let (status, body) = if target == "/metrics" {
        ("200 OK", state.registry.snapshot().to_prometheus_text())
    } else {
        ("404 Not Found", String::from("not found\n"))
    };
    write!(
        writer,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()
}

/// Reads the next line, translating the bounded reader's overflow into
/// the protocol-level `ERR line too long` + close that a hostile line
/// deserves. `Ok(false)` means the connection is done.
fn next_line<R: BufRead>(
    state: &ServerState,
    reader: &mut R,
    writer: &mut impl Write,
    line: &mut String,
) -> io::Result<bool> {
    match read_line_interruptible(state, reader, line, None) {
        Ok(0) => Ok(false),
        Ok(_) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            state.conn_dropped.inc();
            writeln!(writer, "ERR line too long")?;
            writer.flush()?;
            Ok(false)
        }
        Err(e) => Err(e),
    }
}

fn handle_connection(state: Arc<ServerState>, stream: TcpStream) -> io::Result<()> {
    state.connections.inc();
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    if !next_line(&state, &mut reader, &mut writer, &mut line)? {
        return Ok(());
    }
    let first = line.trim_end().to_string();
    if first.starts_with("GET ") || first.starts_with("HEAD ") {
        return serve_http(&state, &mut reader, &mut writer, &first);
    }
    loop {
        let trimmed = line.trim_end();
        if !trimmed.is_empty() {
            match parse_request(trimmed) {
                Ok(request) => {
                    let is_shutdown = request == Request::Shutdown;
                    if let Some(response) = execute(&state, request) {
                        writeln!(writer, "{response}")?;
                        writer.flush()?;
                    }
                    if is_shutdown {
                        return Ok(());
                    }
                }
                Err(reason) => {
                    writeln!(writer, "ERR {reason}")?;
                    writer.flush()?;
                }
            }
        }
        line.clear();
        if !next_line(&state, &mut reader, &mut writer, &mut line)? {
            return Ok(());
        }
    }
}

/// A running daemon: the handle [`Daemon::start`] returns.
pub struct Daemon {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listener (loopback only), optionally resumes tenants
    /// from a previous shutdown's manifest, and starts the worker pool
    /// and accept loop.
    ///
    /// # Errors
    ///
    /// Propagates bind/IO failures, and resume failures (a torn or
    /// foreign manifest/checkpoint) as [`io::ErrorKind::InvalidData`].
    pub fn start(cfg: ServeConfig) -> io::Result<Daemon> {
        std::fs::create_dir_all(&cfg.dir)?;
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(2)
        } else {
            cfg.workers
        };
        let resume = cfg.resume;
        let (ready_tx, ready_rx) = mpsc::channel();
        let state = Arc::new(ServerState::new(cfg, ready_tx));
        if resume {
            state.resume_tenants()?;
        }
        let ready_rx = Arc::new(Mutex::new(ready_rx));
        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || {
            let mut pool = Vec::with_capacity(workers);
            for _ in 0..workers {
                let state = Arc::clone(&accept_state);
                let rx = Arc::clone(&ready_rx);
                pool.push(std::thread::spawn(move || worker_loop(&state, &rx)));
            }
            loop {
                if sigterm_received() {
                    accept_state.shutdown.store(true, Ordering::Release);
                }
                if accept_state.shutdown.load(Ordering::Acquire) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        if accept_state.live_connections.fetch_add(1, Ordering::AcqRel)
                            >= MAX_CONNECTIONS
                        {
                            accept_state.live_connections.fetch_sub(1, Ordering::AcqRel);
                            accept_state.conn_dropped.inc();
                            drop(stream);
                            continue;
                        }
                        accept_state.conn_accepted.inc();
                        // The listener is non-blocking; make sure the
                        // accepted socket isn't (inherited on some
                        // platforms) or the read timeout would spin.
                        stream.set_nonblocking(false).ok();
                        stream.set_read_timeout(Some(CONN_READ_TIMEOUT)).ok();
                        let state = Arc::clone(&accept_state);
                        std::thread::spawn(move || {
                            let _ = handle_connection(Arc::clone(&state), stream);
                            state.live_connections.fetch_sub(1, Ordering::AcqRel);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
            for worker in pool {
                let _ = worker.join();
            }
            accept_state.seal_all();
        });
        Ok(Daemon {
            addr,
            state,
            accept: Some(accept),
        })
    }

    /// The bound address (read the ephemeral port here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Daemon-wide counters right now.
    pub fn stats(&self) -> DaemonStats {
        self.state.stats()
    }

    /// Requests shutdown without a client connection (what the binary
    /// does on `SIGTERM` if the flag was polled elsewhere).
    pub fn request_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Release);
    }

    /// Blocks until the daemon has shut down, drained, and sealed every
    /// tenant.
    pub fn join(mut self) -> io::Result<()> {
        if let Some(accept) = self.accept.take() {
            accept
                .join()
                .map_err(|_| io::Error::other("accept thread panicked"))?;
        }
        Ok(())
    }
}
