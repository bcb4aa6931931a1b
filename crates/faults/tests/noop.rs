//! The harness's first invariant: **disabled injection is invisible**.
//!
//! A [`FaultyTraceSource`] built from a noop plan, and a noop hardware
//! injector, must produce reports bit-identical to the unwrapped pipeline
//! — for the baseline, a static method, and the joint method. (Report equality already excludes
//! wall-clock fields, so `==` is exactly bit-identity on the simulation
//! outcome.)

use jpmd_core::methods::{self, MethodSpec};
use jpmd_core::SimScale;
use jpmd_faults::{FaultPlan, FaultRng, FaultyTraceSource};
use jpmd_obs::Telemetry;
use jpmd_trace::{Trace, WorkloadBuilder, GIB, MIB};

const DURATION: f64 = 1800.0;
const WARMUP: f64 = 300.0;
const PERIOD: f64 = 300.0;

fn trace(scale: &SimScale) -> Trace {
    WorkloadBuilder::new()
        .data_set_bytes(GIB / 2)
        .rate_bytes_per_sec(4 * MIB)
        .page_bytes(scale.page_bytes)
        .duration_secs(DURATION)
        .seed(42)
        .build()
        .expect("workload generation")
}

fn suite(scale: &SimScale) -> Vec<MethodSpec> {
    vec![
        methods::always_on(scale),
        methods::power_down(scale, methods::DiskPolicyKind::TwoCompetitive),
        methods::joint(scale),
    ]
}

#[test]
fn disabled_source_wrapper_leaves_every_method_bit_identical() {
    let scale = SimScale::small_test();
    let trace = trace(&scale);
    let plan = FaultPlan::disabled();
    assert!(plan.is_noop());
    for spec in suite(&scale) {
        let plain =
            methods::run_method_source(&spec, &scale, trace.source(), WARMUP, DURATION, PERIOD)
                .expect("in-memory trace source");
        let wrapped = FaultyTraceSource::new(trace.source(), plan.source, FaultRng::new(plan.seed));
        let faulted = methods::run_method_source(&spec, &scale, wrapped, WARMUP, DURATION, PERIOD)
            .expect("noop wrapper cannot fail");
        assert_eq!(
            plain, faulted,
            "{}: disabled fault wrapper changed the outcome",
            spec.label
        );
    }
}

#[test]
fn noop_hw_injector_is_also_invisible() {
    // Even an *installed* injector whose plan is noop must not perturb
    // the run: zero-probability draws consume no randomness and inject
    // nothing.
    let scale = SimScale::small_test();
    let trace = trace(&scale);
    let spec = methods::joint(&scale);
    let plain = methods::run_method_source(&spec, &scale, trace.source(), WARMUP, DURATION, PERIOD)
        .expect("in-memory trace source");

    let plan = FaultPlan::disabled();
    let (injector, counts) = jpmd_faults::HwFaults::new(plan.disk, plan.banks, FaultRng::new(0));
    let faulted = methods::simulation(&spec, &scale, WARMUP, PERIOD, &Telemetry::disabled())
        .expect("valid config")
        .fault_injector(Some(Box::new(injector)))
        .run(trace.source(), DURATION)
        .expect("in-memory trace source")
        .into_report()
        .expect("no checkpoint policy was installed");
    assert_eq!(plain, faulted, "noop injector changed the outcome");
    assert_eq!(counts.lock().unwrap().total(), 0);
}
