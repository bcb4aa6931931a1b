//! The supervisor's retry path composed with `jpmd-ckpt`: a task that
//! checkpoints every period and then crashes is retried by
//! [`run_queue_supervised`], and the retry — seeing a nonzero attempt —
//! resumes from the `.jck` on disk and still produces a report
//! bit-identical to an uninterrupted run.

use std::fs;
use std::path::PathBuf;

use jpmd_bench::{run_queue_supervised, TaskSupervision};
use jpmd_ckpt::{load_checkpoint, CkptMeta, FileCheckpointer};
use jpmd_core::methods;
use jpmd_core::{MethodSpec, SimScale};
use jpmd_obs::Telemetry;
use jpmd_sim::{CheckpointOptions, CheckpointPolicy, RunReport, SimCheckpoint, SimOutcome};
use jpmd_trace::{Trace, WorkloadBuilder, MIB};

const WARMUP: f64 = 60.0;
const DURATION: f64 = 600.0;
const PERIOD: f64 = 120.0;

fn workload(scale: &SimScale) -> Trace {
    WorkloadBuilder::new()
        .data_set_bytes(64 * MIB)
        .rate_bytes_per_sec(2 * MIB)
        .page_bytes(scale.page_bytes)
        .duration_secs(DURATION)
        .seed(7)
        .build()
        .expect("workload builds")
}

fn complete(
    spec: &MethodSpec,
    scale: &SimScale,
    trace: &Trace,
    resume: Option<&SimCheckpoint>,
) -> RunReport {
    methods::simulation(spec, scale, WARMUP, PERIOD, &Telemetry::disabled())
        .and_then(|sim| sim.resume(resume).run(trace.source(), DURATION))
        .expect("run succeeds")
        .into_report()
        .expect("run completes")
}

#[test]
fn a_crashed_task_resumes_from_its_checkpoint_on_retry() {
    let scale = SimScale::small_test();
    let trace = workload(&scale);
    let spec = methods::always_on(&scale);
    let jck: PathBuf =
        std::env::temp_dir().join(format!("jpmd-bench-supervised-{}.jck", std::process::id()));

    let baseline = complete(&spec, &scale, &trace, None);

    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let items = [spec];
    let results = run_queue_supervised(
        &items,
        1,
        TaskSupervision::none().with_retries(1),
        |s| s.label.clone(),
        |spec, ctx| {
            if ctx.attempt() == 0 {
                // First attempt: checkpoint every period, then die right
                // after the second snapshot seals.
                let telemetry = Telemetry::disabled();
                let mut saver = FileCheckpointer::new(&jck, CkptMeta::new("method"), telemetry);
                let mut on_checkpoint =
                    |ckpt: SimCheckpoint| saver.save(&ckpt) && saver.saved() < 2;
                let outcome =
                    methods::simulation(spec, &scale, WARMUP, PERIOD, &Telemetry::disabled())
                        .and_then(|sim| {
                            sim.checkpoints(Some(CheckpointOptions {
                                policy: CheckpointPolicy::every(1),
                                on_checkpoint: &mut on_checkpoint,
                            }))
                            .run(trace.source(), DURATION)
                        })
                        .expect("interrupted run");
                assert_eq!(outcome, SimOutcome::Interrupted);
                ctx.beat();
                panic!("injected crash after checkpoint");
            }
            // Retry: resume strictly from what the disk remembers.
            let (_, ckpt) = load_checkpoint(&jck).expect("checkpoint loads");
            complete(spec, &scale, &trace, Some(&ckpt))
        },
    );
    std::panic::set_hook(prev);

    assert_eq!(results.len(), 1);
    assert_eq!(
        results[0].as_ref().expect("retry succeeds"),
        &baseline,
        "resumed retry must match the uninterrupted run"
    );
    fs::remove_file(&jck).ok();
}
