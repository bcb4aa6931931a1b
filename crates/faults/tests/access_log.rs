//! Only a controller that reads the access log gets one. A run whose
//! controller ignores the log switches the stack profiler off, which its
//! checkpoints show; a joint run keeps profiling under every wrapper.

use jpmd_core::methods::{self, DiskPolicyKind, MethodSpec};
use jpmd_core::{
    BiddingJointPolicy, JointConfig, JointPolicy, PlanPoint, PlannedController, SimScale,
};
use jpmd_faults::{DegradationGuard, GuardConfig};
use jpmd_obs::{SpanRecorder, Telemetry};
use jpmd_sim::{IdlePolicy, NullController, PeriodController, TimedController};
use jpmd_trace::{WorkloadBuilder, GIB, MIB};

fn joint_config(scale: &SimScale) -> JointConfig {
    JointConfig::from_sim(&scale.sim_config(IdlePolicy::Nap, scale.total_banks()))
}

#[test]
fn only_the_joint_family_reads_the_access_log_through_every_wrapper() {
    let cfg = joint_config(&SimScale::small_test());
    let plan = vec![PlanPoint {
        banks: 4,
        timeout_s: 10.0,
    }];
    let cases: Vec<(&str, Box<dyn PeriodController>, bool)> = vec![
        ("null", Box::new(NullController), false),
        ("planned", Box::new(PlannedController::new(plan)), false),
        ("joint", Box::new(JointPolicy::new(cfg)), true),
        (
            "guarded joint",
            Box::new(DegradationGuard::new(
                JointPolicy::new(cfg),
                GuardConfig::from_joint(&cfg),
                Telemetry::disabled(),
            )),
            true,
        ),
        (
            "bidding joint",
            Box::new(BiddingJointPolicy::new(JointPolicy::new(cfg))),
            true,
        ),
    ];
    for (name, mut boxed, reads) in cases {
        assert_eq!(boxed.reads_access_log(), reads, "{name} boxed");
        let by_ref: &mut dyn PeriodController = &mut boxed;
        assert_eq!(
            <&mut dyn PeriodController as PeriodController>::reads_access_log(&by_ref),
            reads,
            "{name} by reference"
        );
        let timed = TimedController::new(by_ref, SpanRecorder::new(), Telemetry::disabled());
        assert_eq!(timed.reads_access_log(), reads, "{name} timed by reference");
        let timed = TimedController::new(boxed, SpanRecorder::new(), Telemetry::disabled());
        assert_eq!(timed.reads_access_log(), reads, "{name} timed box");
    }
}

/// The lengths of the stack profiler's image and of the open period's
/// access log in a checkpoint of `spec`'s run, captured mid-period.
fn profile_in_checkpoint(spec: &MethodSpec, scale: &SimScale) -> (usize, usize) {
    let trace = WorkloadBuilder::new()
        .data_set_bytes(GIB / 2)
        .rate_bytes_per_sec(4 * MIB)
        .page_bytes(scale.page_bytes)
        .duration_secs(900.0)
        .seed(42)
        .build()
        .expect("workload generation");
    let mut stepper = methods::simulation(spec, scale, 0.0, 300.0, &Telemetry::disabled())
        .expect("valid method")
        .start(trace.total_pages(), 900.0)
        .expect("fresh start");
    for record in trace.records().iter().take_while(|r| r.time < 450.0) {
        stepper.feed(*record);
    }
    let checkpoint = stepper.checkpoint();
    let mem = checkpoint.engine.hw.get("mem").expect("memory image");
    let len = |value: Option<&serde::Value>| value.and_then(|v| v.as_array()).map(<[_]>::len);
    let stack = len(mem.get("profiler").and_then(|p| p.get("recency")));
    let log = len(mem.get("log").and_then(|l| l.get("entries")));
    (stack.expect("profiler image"), log.expect("log image"))
}

#[test]
fn a_static_methods_checkpoint_holds_no_profile_and_a_joint_runs_does() {
    let scale = SimScale::small_test();
    for spec in [
        methods::always_on(&scale),
        methods::disable(&scale, DiskPolicyKind::Adaptive),
    ] {
        assert_eq!(
            profile_in_checkpoint(&spec, &scale),
            (0, 0),
            "{} profiled although nothing reads its log",
            spec.label
        );
    }
    let (stack, log) = profile_in_checkpoint(&methods::joint(&scale), &scale);
    assert!(stack > 0 && log > 0, "joint stack {stack}, log {log}");
}
