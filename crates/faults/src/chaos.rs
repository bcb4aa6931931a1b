//! The chaos harness: one call that wires every fault wrapper of a
//! [`FaultPlan`] around the standard simulation pipeline and reports what
//! was injected, what degraded, and what recovered.
//!
//! [`run_chaos`] builds the full stack — faulty source, faulty hardware
//! (a [`FaultInjector`] installed through
//! [`Simulation::fault_injector`]), faulty policy under a
//! [`DegradationGuard`] — from a plan and a scale, runs it, and returns a
//! [`ChaosReport`].

use jpmd_core::{JointConfig, JointPolicy, SimScale};
use jpmd_disk::SpinDownPolicy;
use jpmd_mem::IdlePolicy;
use jpmd_obs::Telemetry;
use jpmd_sim::{
    CheckpointOptions, FaultInjector, RunReport, SimCheckpoint, SimOutcome, Simulation,
};
use jpmd_trace::{SourceError, Trace, TraceSource, WorkloadBuilder, GIB, MIB};

use crate::guard::{DegradationGuard, FallbackLevel, FaultyPolicy, GuardConfig, GuardStats};
use crate::inject::{HwFaultCounts, HwFaults};
use crate::plan::FaultPlan;
use crate::rng::FaultRng;
use crate::source::{FaultyTraceSource, SourceFaultCounts};

/// Stream tags for [`FaultRng::fork`]: each wrapper draws from its own
/// stream so fault classes never perturb each other's sequences.
const SOURCE_STREAM: u64 = 0;
const HW_STREAM: u64 = 1;
const POLICY_STREAM: u64 = 2;

/// A complete chaos-run recipe: what to inject and at what scale/cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// What to inject.
    pub plan: FaultPlan,
    /// Hardware scale.
    pub scale: SimScale,
    /// Warm-up excluded from the measured window, s.
    pub warmup_secs: f64,
    /// Total simulated time, s.
    pub duration_secs: f64,
    /// Control period, s.
    pub period_secs: f64,
}

impl ChaosConfig {
    /// The standard smoke recipe used by the `chaos` bench binary and CI:
    /// the [`FaultPlan::chaos`] mix at the small test scale, long enough
    /// (12 control periods) for the guard to degrade under the injected
    /// policy-failure burst, back off, and climb back to the joint level.
    pub fn small_test(seed: u64) -> Self {
        ChaosConfig {
            plan: FaultPlan::chaos(seed),
            scale: SimScale::small_test(),
            warmup_secs: 600.0,
            duration_secs: 3600.0,
            period_secs: 300.0,
        }
    }
}

/// What a chaos run did: the ordinary report plus the injection and
/// degradation ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The simulation report (same shape as any other run's).
    pub report: RunReport,
    /// What the [`DegradationGuard`] did.
    pub guard: GuardStats,
    /// The guard's level when the run ended.
    pub final_level: FallbackLevel,
    /// Trace-layer faults injected.
    pub source_faults: SourceFaultCounts,
    /// Hardware faults injected.
    pub hw_faults: HwFaultCounts,
    /// Policy decisions failed by injection.
    pub injected_policy_faults: u64,
}

impl ChaosReport {
    /// The fraction of measured accesses delayed beyond the long-latency
    /// threshold — the paper's delayed-request metric, which a chaos run
    /// must keep within the configured bound even while faults land.
    pub fn delayed_ratio(&self) -> f64 {
        if self.report.cache_accesses == 0 {
            0.0
        } else {
            self.report.long_latency_count as f64 / self.report.cache_accesses as f64
        }
    }
}

/// Outcome of a checkpointable chaos run.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosOutcome {
    /// The run reached its target duration; the chaos report is final.
    Completed(Box<ChaosReport>),
    /// The run stopped early at a checkpoint; the last checkpoint handed
    /// to the callback is the resume point.
    Interrupted,
}

impl ChaosOutcome {
    /// The completed report, or `None` for an interrupted run.
    pub fn into_report(self) -> Option<ChaosReport> {
        match self {
            ChaosOutcome::Completed(report) => Some(*report),
            ChaosOutcome::Interrupted => None,
        }
    }
}

/// Runs the joint method under the full fault stack of `chaos.plan`:
/// the trace source wrapped in a [`FaultyTraceSource`], the hardware
/// carrying [`HwFaults`], and the joint policy wrapped in a
/// [`FaultyPolicy`] under a [`DegradationGuard`] — with optional
/// checkpoint capture and resume-from-checkpoint.
///
/// All wrappers fork independent RNG streams from the plan's seed, so the
/// same plan over the same trace replays the same faults — and with
/// telemetry attached, the same normalized event stream.
///
/// Every stateful element of the stack participates in a checkpoint:
/// the [`DegradationGuard`]'s chain position and streaks, the
/// [`FaultyPolicy`]'s RNG/window cursor, the wrapped [`JointPolicy`]'s
/// period counter, and the [`HwFaults`] injector's RNG and ledger. The
/// faulty *source* carries no snapshot — resume rebuilds it from the same
/// plan and replays the discarded prefix, which regenerates the identical
/// fault stream (injection is a pure function of the RNG position, which
/// the replay advances identically).
///
/// A resumed chaos run must be constructed from the **same**
/// [`ChaosConfig`] (plan, scale, cadence) and an identical source, exactly
/// like [`Simulation::resume`]'s contract; the completed [`ChaosReport`]
/// is then bit-identical to the uninterrupted run's.
///
/// # Errors
///
/// Propagates a [`SourceError`] if the joint configuration is invalid,
/// the source fails non-transiently, or a resume checkpoint does not
/// decode against this stack.
///
/// # Panics
///
/// Panics if the source's page size differs from the scale's, or if the
/// duration does not exceed the warm-up.
pub fn run_chaos<'a, S: TraceSource>(
    chaos: &ChaosConfig,
    source: S,
    telemetry: &Telemetry,
    resume: Option<&'a SimCheckpoint>,
    checkpoints: Option<CheckpointOptions<'a>>,
) -> Result<ChaosOutcome, SourceError> {
    let plan = chaos.plan;
    let mut sim = chaos
        .scale
        .sim_config(IdlePolicy::Nap, chaos.scale.total_banks());
    sim.warmup_secs = chaos.warmup_secs;
    sim.period_secs = chaos.period_secs;

    let mut cfg = JointConfig::from_sim(&sim);
    cfg.period_secs = chaos.period_secs;
    let joint =
        JointPolicy::try_with_telemetry(cfg, telemetry.clone()).map_err(SourceError::new)?;
    let faulty = FaultyPolicy::new(joint, plan.policy, FaultRng::fork(plan.seed, POLICY_STREAM));
    let mut guard = DegradationGuard::new(faulty, GuardConfig::from_joint(&cfg), telemetry.clone());

    let mut faulty_source = FaultyTraceSource::new(
        source,
        plan.source,
        FaultRng::fork(plan.seed, SOURCE_STREAM),
    );

    let (hw_faults, hw_counts) =
        HwFaults::new(plan.disk, plan.banks, FaultRng::fork(plan.seed, HW_STREAM));
    let injector: Option<Box<dyn FaultInjector>> = if plan.disk.is_noop() && plan.banks.is_noop() {
        None
    } else {
        Some(Box::new(hw_faults))
    };

    let outcome = Simulation::new(
        &sim,
        SpinDownPolicy::controlled(f64::INFINITY),
        &mut guard,
        "Chaos-Joint",
    )
    .telemetry(telemetry)
    .fault_injector(injector)
    .resume(resume)
    .checkpoints(checkpoints)
    .run(&mut faulty_source, chaos.duration_secs)?;
    let report = match outcome {
        SimOutcome::Completed(report) => *report,
        SimOutcome::Interrupted => return Ok(ChaosOutcome::Interrupted),
    };

    let hw_faults = *hw_counts.lock().expect("fault counter lock");
    Ok(ChaosOutcome::Completed(Box::new(ChaosReport {
        report,
        guard: *guard.stats(),
        final_level: guard.level(),
        source_faults: *faulty_source.counts(),
        hw_faults,
        injected_policy_faults: guard.inner().injected(),
    })))
}

/// The standard chaos workload: the same synthetic stream the
/// observability determinism tests replay (data set half the installed
/// memory at the small scale, modest arrival rate), sized to `duration`.
///
/// # Panics
///
/// Panics if the workload parameters are rejected by the builder
/// (impossible for the fixed values used here).
pub fn chaos_trace(scale: &SimScale, duration_secs: f64, seed: u64) -> Trace {
    WorkloadBuilder::new()
        .data_set_bytes(GIB / 2)
        .rate_bytes_per_sec(4 * MIB)
        .page_bytes(scale.page_bytes)
        .duration_secs(duration_secs)
        .seed(seed)
        .build()
        .expect("fixed chaos workload parameters are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpmd_obs::ObsEvent;

    fn complete(chaos: &ChaosConfig, trace: &Trace, telemetry: &Telemetry) -> ChaosReport {
        run_chaos(chaos, trace.source(), telemetry, None, None)
            .expect("chaos run")
            .into_report()
            .expect("no checkpoint policy was installed")
    }

    #[test]
    fn chaos_run_degrades_recovers_and_honors_the_delay_bound() {
        let chaos = ChaosConfig::small_test(1);
        let trace = chaos_trace(&chaos.scale, chaos.duration_secs, 42);
        let sink = jpmd_obs::MemorySink::new();
        let telemetry = Telemetry::new(Box::new(sink.clone()));
        let out = complete(&chaos, &trace, &telemetry);

        // The injected policy-failure burst forced at least one retreat…
        assert!(out.guard.fallbacks >= 1, "guard: {:?}", out.guard);
        assert!(out.injected_policy_faults >= 1);
        // …and the run climbed back to the joint policy before ending.
        assert!(out.guard.recoveries >= 1, "guard: {:?}", out.guard);
        assert_eq!(out.final_level, FallbackLevel::Joint);

        // The other seams injected too.
        assert!(out.source_faults.total() > 0, "{:?}", out.source_faults);
        assert!(out.hw_faults.total() > 0, "{:?}", out.hw_faults);
        // Retried transient reads lose no records: every trace access is
        // accounted for in the engine's counters.
        assert!(out.report.engine.source_retries >= out.source_faults.transient_errors);

        // Graceful degradation is not allowed to blow the delayed-request
        // bound the watchdog enforces.
        let cfg = JointConfig::from_sim(
            &chaos
                .scale
                .sim_config(IdlePolicy::Nap, chaos.scale.total_banks()),
        );
        let bound = GuardConfig::from_joint(&cfg).delay_ratio_limit;
        assert!(
            out.delayed_ratio() <= bound,
            "delayed ratio {} exceeds bound {bound}",
            out.delayed_ratio(),
        );

        // Every transition was narrated through telemetry.
        let degradations = sink
            .records()
            .iter()
            .filter(|r| matches!(r.event, ObsEvent::Degradation { .. }))
            .count() as u64;
        assert_eq!(
            degradations,
            out.guard.fallbacks + out.guard.watchdog_trips + out.guard.promotions
        );
    }

    #[test]
    fn chaos_runs_are_deterministic_per_plan() {
        let chaos = ChaosConfig::small_test(7);
        let run = || {
            let trace = chaos_trace(&chaos.scale, chaos.duration_secs, 42);
            complete(&chaos, &trace, &Telemetry::disabled())
        };
        assert_eq!(run(), run());

        let other = ChaosConfig::small_test(8);
        let trace = chaos_trace(&other.scale, other.duration_secs, 42);
        let b = complete(&other, &trace, &Telemetry::disabled());
        assert_ne!(
            run().hw_faults,
            b.hw_faults,
            "different seeds must inject differently"
        );
    }

    #[test]
    fn disabled_plan_injects_nothing() {
        let chaos = ChaosConfig {
            plan: FaultPlan::disabled(),
            duration_secs: 1800.0,
            warmup_secs: 300.0,
            ..ChaosConfig::small_test(0)
        };
        let trace = chaos_trace(&chaos.scale, chaos.duration_secs, 42);
        let out = complete(&chaos, &trace, &Telemetry::disabled());
        assert_eq!(out.source_faults.total(), 0);
        assert_eq!(out.hw_faults, HwFaultCounts::default());
        assert_eq!(out.injected_policy_faults, 0);
        assert_eq!(out.guard.fallbacks + out.guard.watchdog_trips, 0);
        assert_eq!(out.final_level, FallbackLevel::Joint);
    }
}
