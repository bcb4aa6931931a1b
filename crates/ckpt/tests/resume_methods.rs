//! The acceptance gate for `.jck` resume: for each of the paper's method
//! families — always-on, power-down, joint — an interrupted run resumed
//! *through a checkpoint file on disk* and a reopened telemetry WAL
//! produces a [`RunReport`] bit-identical to the uninterrupted run's and
//! a byte-identical normalized telemetry stream with gap-free sequence
//! numbers.

use std::fs;
use std::path::{Path, PathBuf};

use jpmd_ckpt::{load_checkpoint, CkptMeta, FileCheckpointer};
use jpmd_core::methods;
use jpmd_core::{DiskPolicyKind, MethodSpec, SimScale};
use jpmd_obs::{JsonlSink, ObsRecord, Telemetry, WalPolicy};
use jpmd_sim::{CheckpointOptions, CheckpointPolicy, SimCheckpoint, SimOutcome};
use jpmd_trace::{Trace, WorkloadBuilder, GIB, MIB};

const WARMUP: f64 = 600.0;
const DURATION: f64 = 3600.0;
const PERIOD: f64 = 300.0;

fn workload(scale: &SimScale) -> Trace {
    WorkloadBuilder::new()
        .data_set_bytes(GIB / 2)
        .rate_bytes_per_sec(4 * MIB)
        .page_bytes(scale.page_bytes)
        .duration_secs(DURATION)
        .seed(42)
        .build()
        .expect("workload builds")
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jpmd-ckpt-{tag}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Parses a telemetry JSONL file, asserts its sequence numbers are
/// gap-free from zero, and returns the normalized (wall-clock-free)
/// lines.
fn normalized(path: &Path) -> Vec<String> {
    let text = fs::read_to_string(path).expect("read telemetry file");
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let record = ObsRecord::from_line(line).expect("telemetry line parses");
            assert_eq!(record.seq, i as u64, "telemetry seq gap at line {i}");
            record.normalized_line()
        })
        .collect()
}

fn assert_method_resumes(spec: &MethodSpec, tag: &str, stop_after: u64) {
    let scale = SimScale::small_test();
    let trace = workload(&scale);
    let dir = test_dir(tag);
    let baseline_wal = dir.join("baseline.jsonl");
    let run_wal = dir.join("run.jsonl");
    let jck = dir.join("run.jck");

    let baseline = {
        let telemetry = Telemetry::new(Box::new(
            JsonlSink::create_with(&baseline_wal, WalPolicy::wal()).expect("baseline sink"),
        ));
        methods::simulation(spec, &scale, WARMUP, PERIOD, &telemetry)
            .and_then(|sim| sim.run(trace.source(), DURATION))
            .expect("baseline run")
            .into_report()
            .expect("baseline completes")
    };

    // Interrupted run: checkpoint every period into the .jck, stop after
    // `stop_after` checkpoints — the moral equivalent of being killed.
    {
        let telemetry = Telemetry::new(Box::new(
            JsonlSink::create_with(&run_wal, WalPolicy::wal()).expect("run sink"),
        ));
        let meta = CkptMeta::new("method").with_telemetry(run_wal.to_string_lossy().into_owned());
        let mut saver = FileCheckpointer::new(&jck, meta, telemetry.clone());
        let mut on_checkpoint =
            |ckpt: SimCheckpoint| saver.save(&ckpt) && saver.saved() < stop_after;
        let outcome = methods::simulation(spec, &scale, WARMUP, PERIOD, &telemetry)
            .and_then(|sim| {
                sim.checkpoints(Some(CheckpointOptions {
                    policy: CheckpointPolicy::every(1),
                    on_checkpoint: &mut on_checkpoint,
                }))
                .run(trace.source(), DURATION)
            })
            .expect("interrupted run");
        assert_eq!(outcome, SimOutcome::Interrupted);
        assert!(saver.take_error().is_none(), "checkpoint saves succeed");
        assert_eq!(saver.saved(), stop_after);
    } // drops the run's sink before the resume reopens the WAL

    // Resume strictly from what the disk remembers.
    let (meta, ckpt) = load_checkpoint(&jck).expect("checkpoint loads");
    assert_eq!(meta.kind, "method");
    let resumed = {
        let telemetry = Telemetry::new(Box::new(
            JsonlSink::resume(&run_wal, ckpt.telemetry_seq, WalPolicy::wal()).expect("WAL reopens"),
        ));
        methods::simulation(spec, &scale, WARMUP, PERIOD, &telemetry)
            .and_then(|sim| sim.resume(Some(&ckpt)).run(trace.source(), DURATION))
            .expect("resumed run")
            .into_report()
            .expect("resumed run completes")
    };

    assert_eq!(baseline, resumed, "resumed report must be bit-identical");
    assert_eq!(
        normalized(&baseline_wal),
        normalized(&run_wal),
        "stitched telemetry must match the uninterrupted stream"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn always_on_resumes_bit_identically() {
    let scale = SimScale::small_test();
    assert_method_resumes(&methods::always_on(&scale), "always-on", 3);
}

#[test]
fn power_down_resumes_bit_identically() {
    let scale = SimScale::small_test();
    assert_method_resumes(
        &methods::power_down(&scale, DiskPolicyKind::TwoCompetitive),
        "power-down",
        4,
    );
}

#[test]
fn joint_resumes_bit_identically() {
    let scale = SimScale::small_test();
    assert_method_resumes(&methods::joint(&scale), "joint", 3);
}
