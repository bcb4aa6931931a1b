//! System simulator for `jpmd`: ties the workload, disk cache, and disk
//! together and measures energy and performance.
//!
//! This is the runtime of paper Fig. 6(b): synthesized traces feed the disk
//! cache ([`jpmd_mem::MemoryManager`]); cache misses become requests to the
//! disk ([`jpmd_disk::Disk`]); a [`SpinDownPolicy`] governs the disk's
//! timeout between requests; and at every period boundary a
//! [`PeriodController`] (the joint power manager, in `jpmd-core`) may
//! resize memory and retune the timeout.
//!
//! The evaluation pipeline of the paper's Fig. 6(b):
//!
//! ```text
//!  WorkloadBuilder ──► Trace ──► MemoryManager ──misses──► Disk
//!  (SPECWeb99-style)   (records) (LRU cache,              (queue, spin-
//!   + synthesizer                 banks, stack             down, energy)
//!                                 profiler)
//!                         │                                  │
//!                         └──── PeriodController ◄───────────┘
//!                               (joint policy: resize + timeout)
//! ```
//!
//! [`Simulation`] builds every run — batch or incremental, in-memory or
//! streamed, checkpointed or faulted, one disk or an array of them
//! ([`ArrayConfig`]) — and returns a [`RunReport`] with the exact metrics
//! the paper's figures plot: energy split by component, average latency,
//! disk utilization, long-latency request rate, and per-period time
//! series.
//!
//! # Example
//!
//! ```
//! use jpmd_mem::{IdlePolicy, MemConfig, RdramModel};
//! use jpmd_sim::{NullController, SimConfig, Simulation};
//! use jpmd_disk::SpinDownPolicy;
//! use jpmd_trace::{WorkloadBuilder, MIB};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = WorkloadBuilder::new()
//!     .data_set_bytes(64 * MIB)
//!     .rate_bytes_per_sec(8 * MIB)
//!     .duration_secs(60.0)
//!     .build()?;
//! let mem = MemConfig {
//!     page_bytes: MIB,
//!     bank_pages: 16,
//!     total_banks: 8,
//!     initial_banks: 8,
//!     model: RdramModel::default(),
//!     policy: IdlePolicy::Nap,
//! };
//! let config = SimConfig::with_mem(mem);
//! let report = Simulation::new(&config, SpinDownPolicy::AlwaysOn, NullController, "always-on")
//!     .run(trace.source(), 60.0)?
//!     .into_report()
//!     .expect("no checkpoint policy, so the run completes");
//! assert!(report.energy.total_j() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod controller;
pub mod engine;
mod events;
mod hw;
#[cfg(test)]
mod legacy;
mod metrics;
pub mod observers;
mod simulation;

pub use config::{ArrayConfig, SimConfig};
pub use controller::{
    ControlAction, NullController, PeriodController, PeriodObservation, TimedController,
};
pub use engine::{
    CheckpointPolicy, Engine, EngineCheckpoint, EngineStats, PeriodEvents, SimObserver,
    MAX_SOURCE_RETRIES,
};
pub use events::{EventCounts, SimEvent};
pub use hw::{FaultInjector, HwState};
pub use metrics::{EnergyBreakdown, PeriodRow, RunReport};
pub use observers::{
    EnergyMeter, EnergySummary, FlushDaemon, LatencySummary, LatencyTracker, PeriodAccounting,
    TelemetryObserver, WarmupWindow,
};
pub use simulation::{
    CheckpointOptions, FeedOutcome, PolicyStepper, SimCheckpoint, SimOutcome, Simulation,
};

// Re-exported so downstream callers can build configurations without
// importing every substrate crate explicitly.
pub use jpmd_disk::{DiskPowerModel, ServiceModel, SpinDownPolicy};
pub use jpmd_mem::{IdlePolicy, MemConfig, RdramModel};
// Re-exported so callers wiring telemetry into a run don't need a direct
// jpmd-obs dependency for the common cases.
pub use jpmd_obs::{JsonlSink, MemorySink, NullSink, Telemetry};
