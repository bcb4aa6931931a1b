//! One tenant's policy stack: the joint policy wrapped in an
//! admission-aware failure shim, wrapped in the degradation guard,
//! driven by a [`PolicyStepper`].
//!
//! The layering is the whole design: the daemon's *global* overload
//! state is injected as a *per-tenant* policy failure, so the existing
//! [`DegradationGuard`] fallback chain (joint → power-down → always-on)
//! and promotion ladder become the daemon's backpressure behavior
//! without any new state machine. While the daemon sheds, every
//! tenant's period decisions fail with
//! [`PolicyError::Injected`], the guard retreats, and the cheaper
//! fallback policies keep answering; when the backlog drains below the
//! low watermark the guard's own healthy-streak promotion walks each
//! tenant back up to the joint policy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use jpmd_core::{JointConfig, JointPolicy, PolicyError, PolicyFailure, SimScale};
use jpmd_faults::{DegradationGuard, FalliblePolicy, GuardConfig};
use jpmd_mem::{AccessLog, IdlePolicy};
use jpmd_obs::Telemetry;
use jpmd_sim::{
    ArrayConfig, ControlAction, PeriodObservation, PolicyStepper, SimCheckpoint, Simulation,
    SpinDownPolicy,
};
use jpmd_trace::SourceError;

use crate::ServeConfig;

/// A [`FalliblePolicy`] whose decisions fail while the daemon is
/// shedding load, letting the [`DegradationGuard`] above it translate
/// global overload into the standard per-tenant fallback chain.
pub struct OverloadPolicy {
    inner: JointPolicy,
    overload: Arc<AtomicBool>,
}

impl OverloadPolicy {
    /// Wraps `inner`; `overload` is the daemon's shared shed flag.
    pub fn new(inner: JointPolicy, overload: Arc<AtomicBool>) -> Self {
        OverloadPolicy { inner, overload }
    }

    /// The wrapped joint policy (for miss-curve and candidate queries).
    pub fn joint(&self) -> &JointPolicy {
        &self.inner
    }
}

impl FalliblePolicy for OverloadPolicy {
    fn on_start(&mut self, array: ArrayConfig, total_pages: u64) {
        FalliblePolicy::on_start(&mut self.inner, array, total_pages);
    }

    fn try_decide(
        &mut self,
        obs: &PeriodObservation,
        log: &AccessLog,
    ) -> Result<ControlAction, PolicyFailure> {
        if self.overload.load(Ordering::Relaxed) {
            return Err(PolicyFailure {
                error: PolicyError::Injected {
                    reason: "admission shed: daemon overloaded".to_string(),
                },
                fallback: ControlAction::default(),
            });
        }
        FalliblePolicy::try_decide(&mut self.inner, obs, log)
    }

    fn name(&self) -> &str {
        "joint"
    }

    // The overload flag is daemon state, not tenant state: checkpoints
    // carry only the joint policy's image, and a resumed tenant picks up
    // whatever the *current* daemon's admission state is.
    fn snapshot_state(&self) -> serde::Value {
        FalliblePolicy::snapshot_state(&self.inner)
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        FalliblePolicy::restore_state(&mut self.inner, state)
    }
}

/// The full per-tenant controller the daemon runs.
pub type TenantController = DegradationGuard<OverloadPolicy>;

/// Builds one tenant's complete policy stack: a joint policy at the
/// daemon's scale and period, overload shim, degradation guard, and the
/// incremental stepper — resuming from `resume` when a sealed
/// checkpoint exists.
///
/// # Errors
///
/// Fails on an invalid joint configuration at this scale, or a resume
/// checkpoint whose images do not decode against this stack.
pub fn build_stepper(
    cfg: &ServeConfig,
    name: &str,
    pages: u64,
    telemetry: &Telemetry,
    overload: Arc<AtomicBool>,
    resume: Option<&SimCheckpoint>,
) -> Result<PolicyStepper<TenantController>, SourceError> {
    let sim = tenant_sim_config(&cfg.scale, cfg.period_secs);
    let mut joint_cfg = JointConfig::from_sim(&sim);
    joint_cfg.period_secs = cfg.period_secs;
    let policy =
        JointPolicy::try_with_telemetry(joint_cfg, telemetry.clone()).map_err(SourceError::new)?;
    let guard = DegradationGuard::new(
        OverloadPolicy::new(policy, overload),
        GuardConfig::from_joint(&joint_cfg),
        telemetry.clone(),
    );
    Simulation::new(&sim, SpinDownPolicy::controlled(f64::INFINITY), guard, name)
        .telemetry(telemetry)
        .resume(resume)
        .start(pages, cfg.duration_secs)
}

/// The simulation configuration every tenant runs: the joint method's
/// wiring (all banks installed, Nap idle policy, controller-owned disk
/// timeout) at the daemon's period, with no warm-up — a service stream
/// has no separate measurement window.
fn tenant_sim_config(scale: &SimScale, period_secs: f64) -> jpmd_sim::SimConfig {
    let mut sim = scale.sim_config(IdlePolicy::Nap, scale.total_banks());
    sim.warmup_secs = 0.0;
    sim.period_secs = period_secs;
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpmd_sim::FeedOutcome;
    use jpmd_trace::{TraceSource, WorkloadBuilder, MIB};

    fn test_config() -> ServeConfig {
        let mut cfg = ServeConfig::new(std::env::temp_dir().join("jpmd-serve-tenant-test"));
        cfg.telemetry = false;
        cfg.duration_secs = 3600.0;
        cfg
    }

    #[test]
    fn overload_flag_degrades_and_recovery_promotes() {
        let cfg = test_config();
        let overload = Arc::new(AtomicBool::new(false));
        let telemetry = Telemetry::disabled();
        let mut stepper = build_stepper(
            &cfg,
            "tenant-a",
            4096,
            &telemetry,
            Arc::clone(&overload),
            None,
        )
        .expect("build stepper");

        let trace = WorkloadBuilder::new()
            .data_set_bytes(256 * MIB)
            .rate_bytes_per_sec(2 * MIB)
            .duration_secs(3600.0)
            .seed(3)
            .build()
            .expect("workload");
        let mut source = trace.source();
        let mut fed = 0u64;
        while let Some(next) = source.next_record() {
            let record = next.expect("infallible");
            // Flip overload on across exactly one decision boundary
            // (t = 900): the guard must retreat below Joint there, then
            // drain its backoff and promote back well before the end.
            let shedding = stepper.sim_time() > 600.0 && stepper.sim_time() < 1000.0;
            overload.store(shedding, Ordering::Relaxed);
            if stepper.feed(record) == FeedOutcome::Finished {
                break;
            }
            fed += 1;
        }
        assert!(fed > 0);
        let stats = stepper.controller().stats();
        assert!(stats.fallbacks > 0, "overload must force fallbacks");
        assert!(stats.promotions > 0, "drain must promote back up");
        assert!(stats.recoveries > 0, "the tenant must reach Joint again");
        assert_eq!(
            stepper.controller().level(),
            jpmd_faults::FallbackLevel::Joint,
            "recovered tenant ends at the joint level"
        );
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_for_the_tenant_stack() {
        let cfg = test_config();
        let telemetry = Telemetry::disabled();
        let trace = WorkloadBuilder::new()
            .data_set_bytes(256 * MIB)
            .rate_bytes_per_sec(2 * MIB)
            .duration_secs(3600.0)
            .seed(8)
            .build()
            .expect("workload");
        let records: Vec<_> = {
            let mut source = trace.source();
            let mut out = Vec::new();
            while let Some(next) = source.next_record() {
                out.push(next.expect("infallible"));
            }
            out
        };

        let fresh = Arc::new(AtomicBool::new(false));
        let mut uninterrupted =
            build_stepper(&cfg, "t", 4096, &telemetry, Arc::clone(&fresh), None).unwrap();
        for r in &records {
            if uninterrupted.feed(*r) == FeedOutcome::Finished {
                break;
            }
        }
        let want = uninterrupted.finish();

        let mut first =
            build_stepper(&cfg, "t", 4096, &telemetry, Arc::clone(&fresh), None).unwrap();
        for r in &records[..records.len() / 2] {
            assert_ne!(first.feed(*r), FeedOutcome::Finished);
        }
        let ckpt = first.checkpoint();
        drop(first);

        let mut resumed = build_stepper(&cfg, "t", 4096, &telemetry, fresh, Some(&ckpt)).unwrap();
        for r in &records {
            if resumed.feed(*r) == FeedOutcome::Finished {
                break;
            }
        }
        assert_eq!(resumed.finish(), want);
    }
}
