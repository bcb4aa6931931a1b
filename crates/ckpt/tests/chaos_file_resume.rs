//! End-to-end crash/resume over the full chaos stack *through the disk*:
//! the interrupted run leaves a `.jck` and a telemetry WAL behind, and
//! resuming from those files alone reproduces the uninterrupted run's
//! [`ChaosReport`] and telemetry stream exactly. `chaos --ckpt <file>
//! --resume` (the CI crash-resume smoke) takes the same path, with the
//! WAL's `.jx` index kept alongside.

use std::fs;
use std::path::Path;

use jpmd_ckpt::{load_checkpoint, CkptMeta, FileCheckpointer};
use jpmd_faults::{chaos_trace, run_chaos, ChaosConfig, ChaosOutcome};
use jpmd_obs::{JsonlSink, ObsRecord, Telemetry, WalPolicy};
use jpmd_sim::{CheckpointOptions, CheckpointPolicy, SimCheckpoint};

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

#[test]
fn chaos_run_resumes_from_jck_and_wal_files() {
    let chaos = ChaosConfig::small_test(1);
    let dir = std::env::temp_dir().join(format!("jpmd-ckpt-chaos-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create test dir");
    let baseline_wal = dir.join("baseline.jsonl");
    let run_wal = dir.join("run.jsonl");
    let jck = dir.join("run.jck");

    let baseline = {
        let telemetry = Telemetry::new(Box::new(
            JsonlSink::create_with(&baseline_wal, WalPolicy::wal()).expect("baseline sink"),
        ));
        let trace = chaos_trace(&chaos.scale, chaos.duration_secs, 42);
        run_chaos(&chaos, trace.source(), &telemetry, None, None)
            .expect("baseline chaos run")
            .into_report()
            .expect("baseline completes")
    };
    // The run must be worth resuming: faults injected at every seam.
    assert!(baseline.guard.fallbacks >= 1);
    assert!(baseline.source_faults.total() > 0);
    assert!(baseline.hw_faults.total() > 0);

    {
        let telemetry = Telemetry::new(Box::new(
            JsonlSink::create_with(&run_wal, WalPolicy::wal()).expect("run sink"),
        ));
        let meta =
            CkptMeta::chaos_small(1, 42).with_telemetry(run_wal.to_string_lossy().into_owned());
        let mut saver = FileCheckpointer::new(&jck, meta, telemetry.clone());
        let mut on_checkpoint = |ckpt: SimCheckpoint| saver.save(&ckpt) && saver.saved() < 5;
        let trace = chaos_trace(&chaos.scale, chaos.duration_secs, 42);
        let outcome = run_chaos(
            &chaos,
            trace.source(),
            &telemetry,
            None,
            Some(CheckpointOptions {
                policy: CheckpointPolicy::every(1),
                on_checkpoint: &mut on_checkpoint,
            }),
        )
        .expect("interrupted chaos run");
        assert_eq!(outcome, ChaosOutcome::Interrupted);
        assert!(saver.take_error().is_none());
    }

    let (meta, ckpt) = load_checkpoint(&jck).expect("checkpoint loads");
    assert_eq!(meta.kind, "chaos-small");
    assert_eq!(meta.seed, 1);
    assert_eq!(meta.trace_seed, 42);
    // The checkpoint seals against a durable WAL prefix: the stamped
    // offset lands on a line boundary and the prefix ends at exactly the
    // record before the checkpoint's telemetry sequence.
    let pos = meta.wal_index.expect("checkpoint stamps the WAL position");
    let wal_bytes = fs::read(&run_wal).expect("read run WAL");
    assert!(pos.offset > 0 && pos.offset as usize <= wal_bytes.len());
    let prefix = std::str::from_utf8(&wal_bytes[..pos.offset as usize]).expect("utf8 prefix");
    assert!(prefix.ends_with('\n'), "sealed offset is a line boundary");
    let last = ObsRecord::from_line(prefix.lines().last().expect("non-empty prefix"))
        .expect("sealed prefix parses");
    assert_eq!(last.seq, ckpt.telemetry_seq - 1);
    let resumed = {
        let telemetry = Telemetry::new(Box::new(
            JsonlSink::resume(&run_wal, ckpt.telemetry_seq, WalPolicy::wal()).expect("WAL reopens"),
        ));
        let trace = chaos_trace(&chaos.scale, chaos.duration_secs, meta.trace_seed);
        run_chaos(&chaos, trace.source(), &telemetry, Some(&ckpt), None)
            .expect("resumed chaos run")
            .into_report()
            .expect("resumed run completes")
    };

    assert_eq!(baseline, resumed, "resumed chaos report must be identical");
    assert_eq!(normalized(&baseline_wal), normalized(&run_wal));
    fs::remove_dir_all(&dir).ok();
}
