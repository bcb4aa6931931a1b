//! The observability contract, end to end:
//!
//! * the JSONL stream is a pure function of (trace, method) — two runs
//!   produce byte-identical normalized streams;
//! * attaching telemetry does not perturb the simulation — the report
//!   equals the uninstrumented run's;
//! * the joint method emits exactly one `PolicyDecision` per control
//!   period, carrying the fitted Pareto model and the chosen operating
//!   point;
//! * wall-clock timestamps appear only when a clock is injected.

use jpmd_core::methods::{self, MethodSpec};
use jpmd_core::SimScale;
use jpmd_obs::{MemorySink, NullSink, ObsEvent, ObsRecord, Telemetry};
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

fn capture(
    scale: &SimScale,
    spec: &MethodSpec,
    trace: &Trace,
) -> (Vec<ObsRecord>, jpmd_sim::RunReport) {
    let sink = MemorySink::new();
    let telemetry = Telemetry::new(Box::new(sink.clone()));
    let report = methods::simulation(spec, scale, WARMUP, PERIOD, &telemetry)
        .and_then(|sim| sim.run(trace.source(), DURATION))
        .expect("in-memory trace source")
        .into_report()
        .expect("no checkpoint policy was installed");
    (sink.records(), report)
}

fn suite(scale: &SimScale) -> Vec<MethodSpec> {
    vec![
        methods::always_on(scale),
        methods::power_down(scale, methods::DiskPolicyKind::TwoCompetitive),
        methods::joint(scale),
    ]
}

#[test]
fn jsonl_stream_is_byte_identical_across_runs() {
    let scale = SimScale::small_test();
    let trace = trace(&scale);
    for spec in suite(&scale) {
        let (a, _) = capture(&scale, &spec, &trace);
        let (b, _) = capture(&scale, &spec, &trace);
        assert!(!a.is_empty(), "{}: no events emitted", spec.label);
        let a: Vec<String> = a.iter().map(ObsRecord::normalized_line).collect();
        let b: Vec<String> = b.iter().map(ObsRecord::normalized_line).collect();
        assert_eq!(a, b, "{}: normalized streams diverge", spec.label);
    }
}

#[test]
fn telemetry_does_not_perturb_the_report() {
    let scale = SimScale::small_test();
    let trace = trace(&scale);
    for spec in suite(&scale) {
        let plain =
            methods::run_method_source(&spec, &scale, trace.source(), WARMUP, DURATION, PERIOD)
                .expect("in-memory trace source");
        let (_, observed) = capture(&scale, &spec, &trace);
        assert_eq!(
            plain, observed,
            "{}: telemetry changed the simulation outcome",
            spec.label
        );
        let null = Telemetry::new(Box::new(NullSink));
        let nulled = methods::simulation(&spec, &scale, WARMUP, PERIOD, &null)
            .and_then(|sim| sim.run(trace.source(), DURATION))
            .expect("in-memory trace source")
            .into_report()
            .expect("no checkpoint policy was installed");
        assert_eq!(
            plain, nulled,
            "{}: null sink changed the outcome",
            spec.label
        );
    }
}

#[test]
fn joint_emits_one_policy_decision_per_period() {
    let scale = SimScale::small_test();
    let trace = trace(&scale);
    let (records, report) = capture(&scale, &methods::joint(&scale), &trace);
    let decisions: Vec<&ObsRecord> = records
        .iter()
        .filter(|r| matches!(r.event, ObsEvent::PolicyDecision { .. }))
        .collect();
    assert!(!report.periods.is_empty());
    assert_eq!(
        decisions.len(),
        report.periods.len(),
        "one PolicyDecision per control period"
    );
    // Decisions on real traffic carry the fitted model and a candidate
    // table; every decision names an operating point.
    let mut fitted = 0;
    for record in &decisions {
        let ObsEvent::PolicyDecision {
            alpha,
            beta,
            timeout_s,
            banks,
            ref candidates,
            ..
        } = record.event
        else {
            unreachable!()
        };
        assert!(banks > 0, "decision must choose a memory size");
        assert!(timeout_s > 0.0, "decision must choose a timeout");
        if !candidates.is_empty() {
            assert!(alpha > 0.0 && beta > 0.0, "fitted model missing");
            fitted += 1;
        }
    }
    assert!(fitted > 0, "no decision carried a candidate table");
    // Periods are also reported by the simulator itself.
    let periods = records
        .iter()
        .filter(|r| matches!(r.event, ObsEvent::Period { .. }))
        .count();
    assert_eq!(periods, report.periods.len());
}

#[test]
fn wall_clock_appears_only_with_an_injected_clock() {
    let scale = SimScale::small_test();
    let trace = trace(&scale);
    let spec = methods::joint(&scale);

    let (records, _) = capture(&scale, &spec, &trace);
    assert!(
        records.iter().all(|r| r.t_wall_ms.is_none()),
        "default telemetry must not read the wall clock"
    );

    let sink = MemorySink::new();
    let telemetry = Telemetry::with_clock(Box::new(sink.clone()), Box::new(|| 1234));
    methods::simulation(&spec, &scale, WARMUP, PERIOD, &telemetry)
        .and_then(|sim| sim.run(trace.source(), DURATION))
        .expect("in-memory trace source")
        .into_report()
        .expect("no checkpoint policy was installed");
    let stamped = sink.records();
    assert!(!stamped.is_empty());
    assert!(stamped.iter().all(|r| r.t_wall_ms == Some(1234)));
    // …and normalization strips the stamp back off.
    for r in &stamped {
        assert!(!r.normalized_line().contains("1234") || r.to_line().contains("1234"));
        assert!(ObsRecord::from_line(&r.normalized_line())
            .expect("normalized line parses")
            .t_wall_ms
            .is_none());
    }
}

#[test]
fn chaos_telemetry_is_byte_identical_for_equal_fault_plans() {
    // Same FaultPlan seed, same trace: the fault wrappers replay the same
    // injections and the whole telemetry stream — degradations included —
    // is byte-identical after normalization. A different seed diverges.
    use jpmd_faults::{chaos_trace, run_chaos, ChaosConfig};

    let run = |plan_seed: u64| {
        let chaos = ChaosConfig::small_test(plan_seed);
        let trace = chaos_trace(&chaos.scale, chaos.duration_secs, 42);
        let sink = MemorySink::new();
        let telemetry = Telemetry::new(Box::new(sink.clone()));
        let out = run_chaos(&chaos, trace.source(), &telemetry, None, None)
            .expect("chaos run completes")
            .into_report()
            .expect("no checkpoint policy was installed");
        let lines: Vec<String> = sink
            .records()
            .iter()
            .map(ObsRecord::normalized_line)
            .collect();
        (lines, out)
    };

    let (a_lines, a) = run(1);
    let (b_lines, b) = run(1);
    assert!(!a_lines.is_empty());
    assert!(
        a_lines.iter().any(|l| l.contains("\"Degradation\"")),
        "chaos stream must narrate degradations"
    );
    assert_eq!(
        a_lines, b_lines,
        "equal fault plans must replay identically"
    );
    assert_eq!(a, b);

    let (c_lines, _) = run(2);
    assert_ne!(a_lines, c_lines, "different seeds must inject differently");
}

#[test]
fn sequence_numbers_are_gap_free_per_handle() {
    let scale = SimScale::small_test();
    let trace = trace(&scale);
    let (records, _) = capture(&scale, &methods::joint(&scale), &trace);
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "seq must be 0-based and gap-free");
    }
}
