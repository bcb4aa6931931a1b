//! # jpmd-serve — a long-running multi-tenant policy daemon
//!
//! Everything below `jpmd-serve` answers *"what would the joint policy
//! have done on this trace?"* — batch replays with a beginning and an
//! end. This crate turns the same stack into a **service**: a daemon
//! that accepts streamed access records for many concurrent tenants
//! over a line-based TCP protocol, runs each tenant's joint policy
//! incrementally ([`jpmd_sim::PolicyStepper`] — bit-identical to the
//! batch loop), and answers control queries (current disk timeout,
//! bank count, predicted miss curve, energy so far) with bounded
//! latency while the streams keep flowing.
//!
//! The daemon composes three existing subsystems instead of growing
//! new ones:
//!
//! * **Observability** — every tenant counter lives in a shared
//!   [`jpmd_obs::MetricsRegistry`], exported in Prometheus
//!   text-exposition format on an HTTP `GET /metrics` endpoint (a
//!   hand-rolled HTTP/1.0 responder on the same listening socket —
//!   zero new dependencies).
//! * **Fault tolerance** — each tenant's policy runs under a
//!   [`jpmd_faults::DegradationGuard`] whose innermost policy is an
//!   [`OverloadPolicy`]: when the daemon's global feed backlog crosses
//!   the shed watermark, every tenant's next decision *fails
//!   deliberately* and the guard walks its fallback chain
//!   (joint → power-down → always-on) while new tenant admissions are
//!   rejected. Recovery is the guard's own promotion ladder — the
//!   daemon never stalls, it degrades.
//! * **Durability** — `SIGTERM` or a `SHUTDOWN` command seals one
//!   [`jpmd_ckpt`] checkpoint per tenant plus a
//!   [`TenantManifest`](jpmd_ckpt::TenantManifest), and a restart with
//!   [`ServeConfig::resume`] rebuilds every tenant from its image; the
//!   client replays its stream from the start and the stepper discards
//!   the consumed prefix.
//!
//! The bundled `serve_loadgen` binary drives the daemon (open- or
//! closed-loop, tenant churn, seeded synthetic workloads from
//! [`jpmd_trace`]) and reports sustained tenants × records/s into
//! `results/serve_bench.json`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

use jpmd_core::SimScale;
use jpmd_faults::SharedBackend;

pub mod client;
pub mod daemon;
pub mod proto;
pub mod tenant;

pub use client::{ClientError, ClientOpts, ClientStats, Conn, Connector, ServeClient};
pub use daemon::{Daemon, DaemonStats};
pub use proto::{parse_request, QueryKind, Request};
pub use tenant::{build_stepper, OverloadPolicy, TenantController};

/// The daemon's configuration. Start from [`ServeConfig::new`] and
/// override fields; every default is sized for the small-test scale the
/// integration tests and the CI smoke use.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory for per-tenant telemetry WALs, checkpoints, and the
    /// shutdown manifest. Created if absent.
    pub dir: PathBuf,
    /// TCP port to listen on (loopback only). `0` binds an ephemeral
    /// port; read the real one from [`Daemon::addr`].
    pub port: u16,
    /// The simulation scale every tenant runs at.
    pub scale: SimScale,
    /// Control-period length, stream seconds.
    pub period_secs: f64,
    /// Stream-time horizon per tenant. Serving runs are open-ended, so
    /// the default is effectively infinite; the stepper still closes
    /// cleanly at shutdown without reaching it.
    pub duration_secs: f64,
    /// Page-space size for tenants that do not declare one in `OPEN`.
    pub default_pages: u64,
    /// Hard cap on concurrently open tenants; `OPEN` beyond it is
    /// rejected.
    pub max_tenants: usize,
    /// Queued-record high watermark: at or above it the daemon enters
    /// admission shedding (policy decisions degrade, new `OPEN`s are
    /// rejected).
    pub shed_high: u64,
    /// Queued-record low watermark: below it shedding clears.
    pub shed_low: u64,
    /// Records a worker feeds a tenant per scheduling turn before
    /// yielding the tenant back to the run queue (fairness quantum).
    pub batch: usize,
    /// Worker threads; `0` picks from available parallelism.
    pub workers: usize,
    /// Whether tenants stream telemetry WALs into [`ServeConfig::dir`].
    pub telemetry: bool,
    /// Resume tenants from the manifest sealed by a previous shutdown.
    pub resume: bool,
    /// Emit a standalone `ACK <seq>` line after this many accepted
    /// sequenced records per tenant (every seq divisible by it). Lets
    /// clients prune their replay rings without a synchronous round
    /// trip per record.
    pub ack_every: u64,
    /// Whether the ack-watermark dedup machinery is live: sequenced
    /// feeds at or below the watermark are dropped and `ATTACH` reports
    /// the watermark so clients can prune their replay rings before
    /// replaying (exactly-once). Disabling this — `serve_chaos
    /// --no-dedup`, the negative control — reports `acked 0` at attach
    /// and applies replays twice, which the chaos harness must detect.
    pub dedup: bool,
    /// Storage backend every durable write (tenant WALs, checkpoint
    /// seals) goes through. The default is the real filesystem; the
    /// chaos smoke swaps in a
    /// [`FaultyStorage`](jpmd_faults::FaultyStorage) to prove the
    /// daemon sheds telemetry, not tenants, when the disk misbehaves.
    pub backend: SharedBackend,
}

impl ServeConfig {
    /// A configuration rooted at `dir` with every default: ephemeral
    /// port, small-test scale, 300 s periods, telemetry on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            dir: dir.into(),
            port: 0,
            scale: SimScale::small_test(),
            period_secs: 300.0,
            duration_secs: 1e9,
            default_pages: 4096,
            max_tenants: 1024,
            shed_high: 100_000,
            shed_low: 20_000,
            batch: 512,
            workers: 0,
            telemetry: true,
            resume: false,
            ack_every: 32,
            dedup: true,
            backend: SharedBackend::real_fs(),
        }
    }
}

/// Set by the `SIGTERM` handler; polled by the daemon's accept loop so a
/// supervisor's stop request seals checkpoints exactly like a `SHUTDOWN`
/// command.
static SIGTERM_RECEIVED: AtomicBool = AtomicBool::new(false);

/// Whether a `SIGTERM` has arrived since
/// [`install_sigterm_handler`] ran.
pub fn sigterm_received() -> bool {
    SIGTERM_RECEIVED.load(Ordering::Relaxed)
}

/// Installs a `SIGTERM` handler that flips the flag behind
/// [`sigterm_received`]. The handler only stores an atomic — it is
/// async-signal-safe. Idempotent; a no-op on platforms without
/// `signal(2)` semantics is acceptable because the daemon also honors
/// the in-band `SHUTDOWN` command.
#[cfg(unix)]
pub fn install_sigterm_handler() {
    #[allow(unsafe_code)]
    mod ffi {
        //! The one FFI corner of the crate: registering a signal
        //! handler has no safe std API. The handler body is a single
        //! relaxed atomic store, which is async-signal-safe.
        use std::sync::atomic::Ordering;

        const SIGTERM: i32 = 15;

        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }

        extern "C" fn handle_term(_signum: i32) {
            super::SIGTERM_RECEIVED.store(true, Ordering::Relaxed);
        }

        pub fn install() {
            unsafe {
                signal(SIGTERM, handle_term as *const () as usize);
            }
        }
    }
    ffi::install();
}

/// Non-unix stub: the daemon still shuts down via the `SHUTDOWN`
/// command.
#[cfg(not(unix))]
pub fn install_sigterm_handler() {}
