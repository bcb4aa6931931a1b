//! Checkpoint/resume equality at the simulator level: interrupting a run
//! at a checkpoint and resuming it from the captured [`SimCheckpoint`]
//! must produce a report bit-identical to the uninterrupted run's —
//! including a stateful controller's decisions and the telemetry stream.

use jpmd_disk::SpinDownPolicy;
use jpmd_mem::{AccessLog, IdlePolicy, MemConfig, RdramModel};
use jpmd_obs::{MemorySink, Telemetry};
use jpmd_sim::{
    CheckpointOptions, CheckpointPolicy, ControlAction, PeriodController, PeriodObservation,
    SimCheckpoint, SimConfig, SimOutcome, Simulation,
};
use jpmd_trace::{AccessKind, FileId, Trace, TraceRecord, WorkloadBuilder, MIB};
use serde::{Deserialize, Serialize};

fn config() -> SimConfig {
    let mut config = SimConfig::with_mem(MemConfig {
        page_bytes: MIB,
        bank_pages: 8,
        total_banks: 8,
        initial_banks: 8,
        model: RdramModel::default(),
        policy: IdlePolicy::Nap,
    });
    config.period_secs = 60.0;
    config.sync_interval_secs = 30.0;
    config.warmup_secs = 30.0;
    config
}

fn trace() -> Trace {
    WorkloadBuilder::new()
        .data_set_bytes(48 * MIB)
        .rate_bytes_per_sec(2 * MIB)
        .duration_secs(600.0)
        .seed(7)
        .build()
        .expect("workload builds")
}

/// A controller with real internal state: it oscillates bank counts based
/// on a running counter, so losing its state on resume would visibly
/// change later periods.
#[derive(Default, Serialize, Deserialize)]
struct Oscillator {
    period: u64,
}

impl PeriodController for Oscillator {
    fn on_period_end(&mut self, _: &PeriodObservation, _: &AccessLog) -> ControlAction {
        self.period += 1;
        ControlAction {
            enabled_banks: Some(4 + (self.period % 4) as u32),
            disk_timeout: Some(5.0 + self.period as f64),
            disk_timeouts: Vec::new(),
        }
    }

    fn name(&self) -> &str {
        "oscillator"
    }

    fn snapshot_state(&self) -> serde::Value {
        serde::Serialize::to_value(self)
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        *self = <Oscillator as serde::Deserialize>::from_value(state)?;
        Ok(())
    }
}

/// Runs to completion, interrupts at the `stop_after`-th checkpoint, then
/// resumes — and asserts the resumed report equals the uninterrupted one.
fn assert_resume_matches(telemetry_enabled: bool, stop_after: usize) {
    let config = config();
    let trace = trace();
    let duration = 600.0;
    let spindown = SpinDownPolicy::controlled(f64::INFINITY);

    let baseline_sink = MemorySink::new();
    let baseline_telemetry = if telemetry_enabled {
        Telemetry::new(Box::new(baseline_sink.clone()))
    } else {
        Telemetry::disabled()
    };
    let baseline = Simulation::new(
        &config,
        spindown.clone(),
        &mut Oscillator::default(),
        "ckpt-test",
    )
    .telemetry(&baseline_telemetry)
    .run(trace.source(), duration)
    .expect("baseline run")
    .into_report()
    .expect("baseline completes");

    // Interrupted run: checkpoint every period, stop at checkpoint #stop_after.
    let interrupted_sink = MemorySink::new();
    let interrupted_telemetry = if telemetry_enabled {
        Telemetry::new(Box::new(interrupted_sink.clone()))
    } else {
        Telemetry::disabled()
    };
    let mut captured: Vec<SimCheckpoint> = Vec::new();
    let outcome = {
        let mut on_checkpoint = |ckpt: SimCheckpoint| {
            captured.push(ckpt);
            captured.len() < stop_after
        };
        Simulation::new(
            &config,
            spindown.clone(),
            &mut Oscillator::default(),
            "ckpt-test",
        )
        .telemetry(&interrupted_telemetry)
        .checkpoints(Some(CheckpointOptions {
            policy: CheckpointPolicy::every(1),
            on_checkpoint: &mut on_checkpoint,
        }))
        .run(trace.source(), duration)
        .expect("interrupted run")
    };
    assert_eq!(outcome, SimOutcome::Interrupted);
    assert_eq!(captured.len(), stop_after);
    let ckpt = captured.last().expect("at least one checkpoint");

    // Resume from the last checkpoint with a *fresh* controller and the
    // same source; the checkpoint must rebuild everything dynamic.
    let resumed = Simulation::new(&config, spindown, &mut Oscillator::default(), "ckpt-test")
        .telemetry(&interrupted_telemetry)
        .resume(Some(ckpt))
        .run(trace.source(), duration)
        .expect("resumed run")
        .into_report()
        .expect("resumed run completes");

    assert_eq!(baseline, resumed, "resumed report must be bit-identical");
    assert!(resumed.engine.counts.period_boundaries as usize > stop_after);

    if telemetry_enabled {
        // The interrupted segment emits a trailing SpanEnd after the
        // checkpoint was captured (the replay span closes as the run
        // unwinds). The WAL resume protocol truncates everything at or
        // after the checkpoint's seq before appending — emulate that here
        // by replaying the in-memory stream through the same
        // truncate-at-seq rule, which also proves seqs are gap-free.
        let mut effective = Vec::new();
        for record in interrupted_sink.records() {
            assert!(
                (record.seq as usize) <= effective.len(),
                "telemetry seq gap: seq {} after {} records",
                record.seq,
                effective.len()
            );
            effective.truncate(record.seq as usize);
            effective.push(record);
        }
        let baseline_lines: Vec<String> = baseline_sink
            .records()
            .iter()
            .map(|r| r.normalized_line())
            .collect();
        let resumed_lines: Vec<String> = effective.iter().map(|r| r.normalized_line()).collect();
        assert_eq!(baseline_lines, resumed_lines);
    }
}

#[test]
fn resume_matches_uninterrupted_run_without_telemetry() {
    assert_resume_matches(false, 2);
}

#[test]
fn resume_matches_uninterrupted_run_with_telemetry() {
    assert_resume_matches(true, 3);
}

#[test]
fn resume_from_first_checkpoint_matches() {
    assert_resume_matches(false, 1);
}

#[test]
fn shutdown_flag_interrupts_at_next_boundary() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let config = config();
    let trace = trace();
    let shutdown = Arc::new(AtomicBool::new(true));
    let mut captured = Vec::new();
    let mut on_checkpoint = |ckpt: SimCheckpoint| {
        captured.push(ckpt);
        true // the shutdown flag, not the callback, stops the run
    };
    let outcome = Simulation::new(
        &config,
        SpinDownPolicy::controlled(f64::INFINITY),
        &mut Oscillator::default(),
        "shutdown-test",
    )
    .checkpoints(Some(CheckpointOptions {
        policy: CheckpointPolicy {
            every_periods: 0, // cadence disabled: only shutdown triggers
            shutdown: Some(shutdown.clone()),
        },
        on_checkpoint: &mut on_checkpoint,
    }))
    .run(trace.source(), 600.0)
    .expect("run");
    assert_eq!(outcome, SimOutcome::Interrupted);
    assert_eq!(captured.len(), 1, "one final checkpoint on shutdown");
    // The checkpoint stopped at the first boundary: exactly one period row
    // in the accounting image, and the stats reflect a partial replay.
    assert_eq!(captured[0].engine.stats.counts.period_boundaries, 1);
    let _ = shutdown.load(Ordering::Relaxed);
}

#[test]
fn tampered_checkpoint_fails_with_an_error_not_a_panic() {
    let config = config();
    let trace = trace();
    let mut captured = Vec::new();
    let mut on_checkpoint = |ckpt: SimCheckpoint| {
        captured.push(ckpt);
        false
    };
    Simulation::new(
        &config,
        SpinDownPolicy::controlled(f64::INFINITY),
        &mut Oscillator::default(),
        "tamper-test",
    )
    .checkpoints(Some(CheckpointOptions {
        policy: CheckpointPolicy::every(1),
        on_checkpoint: &mut on_checkpoint,
    }))
    .run(trace.source(), 600.0)
    .expect("run");
    let mut ckpt = captured.pop().expect("one checkpoint");
    // Corrupt the hardware image wholesale.
    ckpt.engine.hw = serde::Value::Str("not a hardware snapshot".into());
    let err = Simulation::new(
        &config,
        SpinDownPolicy::controlled(f64::INFINITY),
        &mut Oscillator::default(),
        "tamper-test",
    )
    .resume(Some(&ckpt))
    .run(trace.source(), 600.0)
    .expect_err("tampered checkpoint must fail to restore");
    assert!(err.to_string().contains("checkpoint restore failed"));
}

/// Yields scripted records in the given order, *without* the time sort
/// that [`Trace::new`] applies — so out-of-order timestamps reach the
/// engine's clamp path.
struct UnsortedSource(std::collections::VecDeque<TraceRecord>);

impl jpmd_trace::TraceSource for UnsortedSource {
    fn page_bytes(&self) -> u64 {
        MIB
    }

    fn total_pages(&self) -> u64 {
        64
    }

    fn next_record(&mut self) -> Option<Result<TraceRecord, jpmd_trace::SourceError>> {
        self.0.pop_front().map(Ok)
    }
}

/// The resume cursor also has to work when the source stream itself is
/// messy: duplicate timestamps and out-of-order records exercise the
/// clamp path, whose `last_time` lives in the checkpoint.
#[test]
fn resume_preserves_clamping_state() {
    let mut records = Vec::new();
    for i in 0..200u64 {
        let t = if i % 7 == 3 {
            (i as f64) - 2.5 // out of order: will be clamped
        } else {
            i as f64
        };
        records.push(TraceRecord {
            time: t * 3.0,
            file: FileId(0),
            first_page: (i * 3) % 48,
            pages: 1 + (i % 3),
            kind: if i % 4 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        });
    }
    let source = || UnsortedSource(records.clone().into());
    let config = config();

    let baseline = Simulation::new(
        &config,
        SpinDownPolicy::controlled(f64::INFINITY),
        &mut Oscillator::default(),
        "clamp-test",
    )
    .run(source(), 500.0)
    .expect("baseline")
    .into_report()
    .expect("baseline completes");
    assert!(baseline.engine.records_clamped > 0, "clamping exercised");

    let mut captured = Vec::new();
    let mut on_checkpoint = |ckpt: SimCheckpoint| {
        captured.push(ckpt);
        false
    };
    Simulation::new(
        &config,
        SpinDownPolicy::controlled(f64::INFINITY),
        &mut Oscillator::default(),
        "clamp-test",
    )
    .checkpoints(Some(CheckpointOptions {
        policy: CheckpointPolicy::every(2),
        on_checkpoint: &mut on_checkpoint,
    }))
    .run(source(), 500.0)
    .expect("interrupted");
    let ckpt = captured.pop().expect("checkpoint");
    let resumed = Simulation::new(
        &config,
        SpinDownPolicy::controlled(f64::INFINITY),
        &mut Oscillator::default(),
        "clamp-test",
    )
    .resume(Some(&ckpt))
    .run(source(), 500.0)
    .expect("resumed")
    .into_report()
    .expect("completes");
    assert_eq!(baseline, resumed);
}
