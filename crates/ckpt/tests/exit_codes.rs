//! `ckpt_tool` honors the workspace exit-code convention: `0` ok, `1`
//! runtime failure, `2` bad invocation — same contract as `trace_tool`
//! and `obs_tool`, tested the same way (spawning the real binary).

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use jpmd_ckpt::{save_checkpoint, CkptMeta};
use jpmd_core::methods;
use jpmd_core::SimScale;
use jpmd_obs::Telemetry;
use jpmd_sim::{CheckpointOptions, CheckpointPolicy, SimCheckpoint, SimOutcome};
use jpmd_trace::{WorkloadBuilder, MIB};

fn tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ckpt_tool"))
        .args(args)
        .output()
        .expect("spawn ckpt_tool")
}

fn code(output: &Output) -> i32 {
    output.status.code().expect("exit code")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("jpmd-ckpt-exit-{tag}-{}.jck", std::process::id()))
}

/// A real checkpoint file with a free-form recipe kind.
fn good_file(tag: &str) -> PathBuf {
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
    let path = scratch(tag);
    save_checkpoint(
        &path,
        &CkptMeta::new("method"),
        &captured.expect("checkpoint"),
    )
    .expect("save checkpoint");
    path
}

#[test]
fn bad_invocations_exit_2_with_usage() {
    for args in [&[][..], &["frobnicate"][..], &["inspect"][..]] {
        let out = tool(args);
        assert_eq!(code(&out), 2, "args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
    }
}

#[test]
fn runtime_failures_exit_1() {
    let missing = tool(&["verify", "/nonexistent/run.jck"]);
    assert_eq!(code(&missing), 1);
    assert!(String::from_utf8_lossy(&missing.stderr).contains("error:"));

    let torn_path = scratch("torn");
    fs::write(&torn_path, b"JPMDCKP1 torn far too short").expect("write torn file");
    let torn = tool(&["verify", torn_path.to_str().unwrap()]);
    assert_eq!(code(&torn), 1);
    assert!(String::from_utf8_lossy(&torn.stderr).contains("torn"));
    fs::remove_file(&torn_path).ok();
}

#[test]
fn verify_and_inspect_a_real_file() {
    let path = good_file("good");
    let path_str = path.to_str().unwrap();

    let verify = tool(&["verify", path_str]);
    assert_eq!(code(&verify), 0);
    assert!(String::from_utf8_lossy(&verify.stdout).starts_with("ok:"));

    let inspect = tool(&["inspect", path_str]);
    assert_eq!(code(&inspect), 0);
    let stdout = String::from_utf8_lossy(&inspect.stdout);
    assert!(stdout.contains("label"), "{stdout}");
    assert!(stdout.contains("records_pulled"), "{stdout}");

    // Resuming is `chaos --resume`'s job; the tool has no such command.
    let resume = tool(&["resume", path_str]);
    assert_eq!(code(&resume), 2);
    fs::remove_file(&path).ok();
}
