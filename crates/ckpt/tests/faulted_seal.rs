//! Seal-under-fault tests: whatever injected storage fault interrupts a
//! checkpoint save, the destination only ever holds a previous good
//! checkpoint (or nothing), and no stale `.tmp` sibling survives. The
//! bounded retry in [`FileCheckpointer`] rides out transient windows.

use std::path::PathBuf;

use jpmd_ckpt::{load_checkpoint, save_checkpoint, save_checkpoint_on, CkptMeta, FileCheckpointer};
use jpmd_core::methods;
use jpmd_core::SimScale;
use jpmd_faults::{FaultyStorage, IoFaultPlan, SharedBackend, StorageFaults};
use jpmd_obs::Telemetry;
use jpmd_sim::{CheckpointOptions, CheckpointPolicy, SimCheckpoint, SimOutcome};
use jpmd_trace::{WorkloadBuilder, MIB};

/// Captures one real checkpoint from a short always-on run.
fn capture_checkpoint() -> SimCheckpoint {
    let scale = SimScale::small_test();
    let trace = WorkloadBuilder::new()
        .data_set_bytes(64 * MIB)
        .rate_bytes_per_sec(2 * MIB)
        .page_bytes(scale.page_bytes)
        .duration_secs(600.0)
        .seed(7)
        .build()
        .expect("workload builds");
    let spec = methods::always_on(&scale);
    let mut captured = None;
    let mut on_checkpoint = |ckpt: SimCheckpoint| {
        captured = Some(ckpt);
        false
    };
    let outcome = methods::simulation(&spec, &scale, 60.0, 120.0, &Telemetry::disabled())
        .and_then(|sim| {
            sim.checkpoints(Some(CheckpointOptions {
                policy: CheckpointPolicy::every(1),
                on_checkpoint: &mut on_checkpoint,
            }))
            .run(trace.source(), 600.0)
        })
        .expect("capture run");
    assert_eq!(outcome, SimOutcome::Interrupted);
    captured.expect("one checkpoint captured")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "jpmd-ckpt-faulted-{tag}-{}.jck",
        std::process::id()
    ))
}

fn tmp_sibling(path: &std::path::Path) -> PathBuf {
    path.with_file_name(format!(
        "{}.tmp",
        path.file_name().unwrap().to_string_lossy()
    ))
}

#[test]
fn failed_rename_leaves_no_destination_and_no_temp() {
    let path = scratch("rename");
    let tmp = tmp_sibling(&path);
    let ckpt = capture_checkpoint();
    let plan = IoFaultPlan {
        seed: 3,
        faults: StorageFaults {
            rename_fail_prob: 1.0,
            ..StorageFaults::default()
        },
        from_op: 0,
        until_op: u64::MAX,
    };
    let backend = SharedBackend::from(FaultyStorage::new(plan));
    let result = save_checkpoint_on(&backend, &path, &CkptMeta::chaos_small(1, 42), &ckpt);
    assert!(result.is_err(), "the crashed rename surfaces as an error");
    assert!(!path.exists(), "the destination was never touched");
    assert!(!tmp.exists(), "the temp sibling was cleaned up");
}

#[test]
fn failed_seal_preserves_the_previous_good_checkpoint() {
    let path = scratch("previous");
    let tmp = tmp_sibling(&path);
    let ckpt = capture_checkpoint();
    save_checkpoint(&path, &CkptMeta::chaos_small(1, 42), &ckpt).expect("seed save");

    // Every faultable op fails: the re-save dies on its first write.
    let backend = SharedBackend::from(FaultyStorage::new(IoFaultPlan::outage(3, 0, u64::MAX)));
    let result = save_checkpoint_on(&backend, &path, &CkptMeta::chaos_small(2, 43), &ckpt);
    assert!(result.is_err());
    assert!(!tmp.exists(), "the temp sibling was cleaned up");
    let (meta, _) = load_checkpoint(&path).expect("previous checkpoint still loads");
    assert_eq!(meta.seed, 1, "the destination still holds the old seal");
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpointer_retry_rides_out_a_transient_fault_window() {
    let path = scratch("retry");
    let ckpt = capture_checkpoint();
    // The first seal attempt dies inside the outage window; the storage
    // heals before the retry.
    let storage = FaultyStorage::new(IoFaultPlan::outage(3, 0, 1));
    let monitor = storage.monitor();
    let mut saver =
        FileCheckpointer::new(&path, CkptMeta::chaos_small(1, 42), Telemetry::disabled())
            .with_backend(SharedBackend::from(storage))
            .with_retry(3, std::time::Duration::ZERO);
    assert!(saver.save(&ckpt), "the retry succeeds");
    assert_eq!(saver.saved(), 1);
    assert_eq!(saver.retried(), 1, "exactly one attempt was retried");
    assert!(monitor.injected().total() >= 1);
    let (meta, _) = load_checkpoint(&path).expect("published checkpoint loads");
    assert_eq!(meta.seed, 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpointer_exhausting_its_budget_stops_the_run_with_a_typed_error() {
    let path = scratch("budget");
    let ckpt = capture_checkpoint();
    let mut saver =
        FileCheckpointer::new(&path, CkptMeta::chaos_small(1, 42), Telemetry::disabled())
            .with_backend(SharedBackend::from(FaultyStorage::new(
                IoFaultPlan::outage(3, 0, u64::MAX),
            )))
            .with_retry(3, std::time::Duration::ZERO);
    assert!(!saver.save(&ckpt), "a dead disk stops the run");
    assert_eq!(saver.saved(), 0);
    assert_eq!(saver.retried(), 2, "both retries were spent");
    assert!(
        saver.take_error().is_some(),
        "the failure is typed and kept"
    );
    assert!(!path.exists());
    assert!(
        !tmp_sibling(&path).exists(),
        "no stale temp after giving up"
    );
}
