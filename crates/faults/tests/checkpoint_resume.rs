//! Chaos runs are resumable: interrupting the full fault stack at a
//! checkpoint and resuming from it reproduces the uninterrupted run's
//! [`ChaosReport`] bit for bit — injected faults, guard transitions, and
//! all. This is the hardest resume case, because every wrapper carries
//! hidden state (RNG streams, fault windows, the guard's backoff).

use jpmd_faults::{chaos_trace, run_chaos, ChaosConfig, ChaosOutcome, ChaosReport};
use jpmd_obs::Telemetry;
use jpmd_sim::{CheckpointOptions, CheckpointPolicy, RunReport, SimCheckpoint};

fn interrupted_checkpoint(chaos: &ChaosConfig, stop_after: usize) -> SimCheckpoint {
    let trace = chaos_trace(&chaos.scale, chaos.duration_secs, 42);
    let mut captured: Vec<SimCheckpoint> = Vec::new();
    let mut on_checkpoint = |ckpt: SimCheckpoint| {
        captured.push(ckpt);
        captured.len() < stop_after
    };
    let outcome = run_chaos(
        chaos,
        trace.source(),
        &Telemetry::disabled(),
        None,
        Some(CheckpointOptions {
            policy: CheckpointPolicy::every(1),
            on_checkpoint: &mut on_checkpoint,
        }),
    )
    .expect("interrupted chaos run");
    assert_eq!(outcome, ChaosOutcome::Interrupted);
    assert_eq!(captured.len(), stop_after);
    captured.pop().expect("at least one checkpoint")
}

/// The golden digest of a report: the CRC-32 of its JSON with the
/// wall-clock fields zeroed (see the workspace `golden_digests` test).
/// Computed on x86_64 Linux, whose libm the f64 results depend on.
fn report_digest(report: &RunReport) -> u32 {
    let mut report = report.clone();
    report.zero_wall_clock();
    let json = serde_json::to_string(&report).expect("report serializes");
    jpmd_store::crc32(json.as_bytes())
}

fn resume(chaos: &ChaosConfig, ckpt: &SimCheckpoint) -> ChaosReport {
    let trace = chaos_trace(&chaos.scale, chaos.duration_secs, 42);
    run_chaos(
        chaos,
        trace.source(),
        &Telemetry::disabled(),
        Some(ckpt),
        None,
    )
    .expect("resumed chaos run")
    .into_report()
    .expect("resumed chaos run completes")
}

#[test]
fn resumed_chaos_run_matches_uninterrupted() {
    let chaos = ChaosConfig::small_test(1);
    let trace = chaos_trace(&chaos.scale, chaos.duration_secs, 42);
    let baseline = run_chaos(&chaos, trace.source(), &Telemetry::disabled(), None, None)
        .expect("baseline chaos run")
        .into_report()
        .expect("no checkpoint policy was installed");
    // The baseline run exercises the whole stack: injected faults at every
    // seam, at least one retreat, and a recovery.
    assert!(baseline.guard.fallbacks >= 1);
    assert!(baseline.source_faults.total() > 0);
    assert!(baseline.hw_faults.total() > 0);
    assert_eq!(
        report_digest(&baseline.report),
        0xd087_ad14,
        "chaos baseline report changed (golden digest)"
    );

    // Interrupt mid-run — past the injected fault burst, so the
    // checkpoint carries non-trivial guard and RNG state.
    let ckpt = interrupted_checkpoint(&chaos, 5);
    let resumed = resume(&chaos, &ckpt);
    assert_eq!(baseline, resumed, "resumed chaos report must be identical");
}

#[test]
fn resume_point_does_not_change_the_outcome() {
    let chaos = ChaosConfig::small_test(3);
    let trace = chaos_trace(&chaos.scale, chaos.duration_secs, 42);
    let baseline = run_chaos(&chaos, trace.source(), &Telemetry::disabled(), None, None)
        .expect("baseline chaos run")
        .into_report()
        .expect("no checkpoint policy was installed");
    for stop_after in [1, 7] {
        let ckpt = interrupted_checkpoint(&chaos, stop_after);
        let resumed = resume(&chaos, &ckpt);
        assert_eq!(
            baseline, resumed,
            "resume from checkpoint #{stop_after} diverged"
        );
    }
}
