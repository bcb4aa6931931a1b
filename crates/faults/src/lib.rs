//! # jpmd-faults — deterministic fault injection and graceful degradation
//!
//! The chaos harness for the joint power-management stack. Every fault a
//! run injects is determined by one serializable [`FaultPlan`]: a seed
//! plus per-seam probability knobs. The harness wraps the existing seams —
//! it never reaches into the engine's hot loop:
//!
//! | seam | wrapper | faults |
//! |---|---|---|
//! | trace source | [`FaultyTraceSource`] | transient read errors (retried, lossless), short reads, out-of-order and non-finite timestamps |
//! | disk | [`HwFaults`] (a [`jpmd_sim::FaultInjector`]) | inflated service times, failed spin-up first attempts |
//! | memory banks | [`HwFaults`] | refused power transitions (the granted count sticks) |
//! | policy | [`FaultyPolicy`] | injected typed decision failures in a bounded window |
//! | storage | [`FaultyStorage`] (a [`jpmd_store::StorageBackend`]) | disk-full and hard I/O errors, torn writes, failed fsyncs, crashed renames — see [`IoFaultPlan`] |
//! | network | [`FaultyStream`] (wrapping any `Read + Write`) | mid-write disconnects, short writes, garbage bytes, read stalls — see [`NetFaultPlan`] |
//!
//! Failures surface to the [`DegradationGuard`], a
//! [`PeriodController`](jpmd_sim::PeriodController) that retreats down a
//! fallback chain (*joint → power_down → always_on*) on typed policy
//! failures or sustained constraint violations, backs off exponentially,
//! and re-promotes after a healthy hysteresis — emitting one
//! [`Degradation`](jpmd_obs::ObsEvent::Degradation) event per transition.
//!
//! Two invariants anchor the design, both regression-tested:
//!
//! * **disabled ⇒ bit-identical**: a noop plan's wrappers never draw from
//!   their RNGs and the run's report equals an unwrapped run's, bit for
//!   bit (`tests/noop.rs`);
//! * **seeded ⇒ replayable**: equal plans over equal traces inject equal
//!   fault sequences and produce byte-identical normalized telemetry
//!   (the chaos determinism tests in `jpmd-obs`).
//!
//! [`run_chaos`] assembles the whole stack from a [`ChaosConfig`] through
//! the [`jpmd_sim::Simulation`] builder every run uses — so a chaos run
//! checkpoints and resumes like any other; the `chaos` binary in
//! `jpmd-bench` and the CI smoke drive it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod guard;
mod inject;
mod net;
mod plan;
mod rng;
mod source;
mod storage;

pub use chaos::{chaos_trace, run_chaos, ChaosConfig, ChaosOutcome, ChaosReport};
pub use guard::{
    DegradationGuard, FallbackLevel, FalliblePolicy, FaultyPolicy, GuardConfig, GuardStats,
};
pub use inject::{HwFaultCounts, HwFaults};
pub use net::{
    FaultyStream, NetFaultCounts, NetFaultInjector, NetFaultMonitor, NetFaultPlan, NetFaults,
};
pub use plan::{BankFaults, DiskFaults, FaultPlan, PolicyFaults, SourceFaults};
pub use rng::FaultRng;
pub use source::{FaultyTraceSource, InjectedSourceFault, SourceFaultCounts};
pub use storage::{FaultyStorage, IoFaultCounts, IoFaultMonitor, IoFaultPlan, StorageFaults};

// Consumers that only wire fault plans into the durability stack (the
// serve daemon, the torture harness) reach the seam types through this
// crate instead of growing their own `jpmd-store` dependency.
pub use jpmd_store::{RealFs, SharedBackend, StorageBackend, StorageFile};
