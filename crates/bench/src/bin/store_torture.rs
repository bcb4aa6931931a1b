//! `store_torture` — the storage-fault chaos harness for the telemetry
//! WAL and the checkpoint seal.
//!
//! Drives two seeded phases through [`jpmd_faults::FaultyStorage`] and
//! verifies the recovery invariants the fault seam promises:
//!
//! 1. **Telemetry WAL** — emits through a total outage window, rides
//!    the in-memory ring, drains on recovery, then resumes the file and
//!    keeps emitting. Invariant: the final WAL is seq-gap-free with
//!    zero gap markers (the window is sized under the ring capacity).
//! 2. **Checkpoint seal** — a seal whose fsync/rename crash must fail
//!    *typed*, leave no destination and no stale `.tmp`; the bounded
//!    retry budget then rides out a transient window and the sealed
//!    `.jck` verifies by load.
//!
//! Usage: `store_torture --dir DIR [--seed S] [--io-faults]`
//!
//! Without `--io-faults` every phase runs over disabled plans — the
//! baseline sanity pass CI runs next to the faulted one. Exit code 0
//! means every invariant held; 1 names the violated invariant.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use jpmd_ckpt::{load_checkpoint, CkptMeta, FileCheckpointer};
use jpmd_core::methods;
use jpmd_core::SimScale;
use jpmd_faults::{FaultyStorage, IoFaultPlan, SharedBackend};
use jpmd_obs::{JsonlSink, ObsEvent, ObsRecord, Sink, Telemetry, WalPolicy};
use jpmd_sim::{CheckpointOptions, CheckpointPolicy, SimCheckpoint, SimOutcome};
use jpmd_trace::{WorkloadBuilder, MIB};

/// Phase 1: the WAL degrades to its ring through an outage, drains on
/// recovery, resumes, and ends seq-gap-free with zero gap markers.
fn torture_wal(dir: &Path, seed: u64, faulted: bool) -> Result<(), String> {
    let path = dir.join("torture.jsonl");
    let _ = std::fs::remove_file(&path);
    // Ops 0..4 land a couple of healthy lines; the outage then holds
    // ~60 emits — far below the ring capacity, so nothing is lost.
    let plan = if faulted {
        IoFaultPlan::outage(seed, 5, 125)
    } else {
        IoFaultPlan::disabled()
    };
    let storage = FaultyStorage::new(plan);
    let backend = SharedBackend::from(storage);
    let record = |seq: u64| ObsRecord {
        seq,
        t_wall_ms: None,
        shard: Some(1),
        event: ObsEvent::Message {
            text: format!("torture {seq}"),
        },
    };

    let sink = JsonlSink::create_with_on(backend.clone(), &path, WalPolicy::wal())
        .map_err(|e| format!("wal create: {e}"))?;
    let mut seq = 0u64;
    let mut saw_degraded = false;
    loop {
        sink.emit(&record(seq));
        seq += 1;
        if sink.storage_degraded() {
            saw_degraded = true;
        } else if saw_degraded || !faulted && seq >= 40 {
            break;
        }
        if seq > 4000 {
            return Err("wal never climbed back to healthy".into());
        }
    }
    sink.flush();
    let write_errors = sink.write_errors();
    if faulted && !saw_degraded {
        return Err("outage window never degraded the wal".into());
    }
    if faulted && write_errors == 0 {
        return Err("no write errors were counted through the outage".into());
    }
    if sink.dropped_records() != 0 {
        return Err(format!(
            "{} records lost though the window fits the ring",
            sink.dropped_records()
        ));
    }
    drop(sink);

    // Resume the file (the daemon-restart path) and keep emitting.
    let resumed = JsonlSink::resume_on(backend, &path, seq, WalPolicy::wal())
        .map_err(|e| format!("wal resume: {e}"))?;
    for _ in 0..20 {
        resumed.emit(&record(seq));
        seq += 1;
    }
    resumed.flush();
    drop(resumed);

    let text = std::fs::read_to_string(&path).map_err(|e| format!("wal read: {e}"))?;
    let mut gaps = 0u64;
    let mut markers = 0u64;
    for (i, line) in text.lines().enumerate() {
        let rec = ObsRecord::from_line(line).map_err(|e| format!("wal line {i}: {e}"))?;
        if rec.seq != i as u64 {
            gaps += 1;
        }
        if let ObsEvent::Message { text } = &rec.event {
            if text.contains("wal gap") {
                markers += 1;
            }
        }
    }
    if gaps != 0 || markers != 0 {
        return Err(format!(
            "wal ended with seq_gaps {gaps}, gap markers {markers}"
        ));
    }
    println!(
        "wal: {seq} records, seq_gaps 0, {write_errors} write errors absorbed, \
         degraded={}",
        u8::from(saw_degraded)
    );
    Ok(())
}

/// Captures one real checkpoint from a short always-on run (the same
/// idiom as `jpmd-ckpt`'s crash-window tests).
fn capture_checkpoint() -> Result<SimCheckpoint, String> {
    let scale = SimScale::small_test();
    let trace = WorkloadBuilder::new()
        .data_set_bytes(64 * MIB)
        .rate_bytes_per_sec(2 * MIB)
        .page_bytes(scale.page_bytes)
        .duration_secs(600.0)
        .seed(7)
        .build()
        .map_err(|e| format!("workload: {e}"))?;
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
        .map_err(|e| format!("capture run: {e}"))?;
    if outcome != SimOutcome::Interrupted {
        return Err("capture run was not interrupted at its checkpoint".into());
    }
    captured.ok_or_else(|| "no checkpoint captured".into())
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().expect("ckpt file name").to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Phase 2: failed seals are typed and clean; the retry budget rides
/// out a transient window and the sealed file verifies.
fn torture_ckpt(dir: &Path, seed: u64, faulted: bool) -> Result<(), String> {
    let ckpt = capture_checkpoint()?;
    let meta = CkptMeta::new("store-torture");

    if faulted {
        // A permanently failing disk with a budget of one attempt: the
        // seal must fail typed, leave no destination, no stale temp.
        let doomed = dir.join("torture-fail.jck");
        let _ = std::fs::remove_file(&doomed);
        let backend =
            SharedBackend::from(FaultyStorage::new(IoFaultPlan::outage(seed, 0, u64::MAX)));
        let mut saver = FileCheckpointer::new(&doomed, meta.clone(), Telemetry::disabled())
            .with_backend(backend)
            .with_retry(1, std::time::Duration::ZERO);
        if saver.save(&ckpt) {
            return Err("seal through a total outage claimed success".into());
        }
        if saver.take_error().is_none() {
            return Err("failed seal produced no typed error".into());
        }
        if doomed.exists() {
            return Err("failed seal left a destination .jck".into());
        }
        if tmp_sibling(&doomed).exists() {
            return Err("failed seal leaked its .tmp sibling".into());
        }
        if load_checkpoint(&doomed).is_ok() {
            return Err("a never-sealed checkpoint verified as valid".into());
        }
    }

    // A transient window the bounded retry budget must ride out.
    let path = dir.join("torture.jck");
    let _ = std::fs::remove_file(&path);
    let plan = if faulted {
        IoFaultPlan::outage(seed, 0, 4)
    } else {
        IoFaultPlan::disabled()
    };
    let backend = SharedBackend::from(FaultyStorage::new(plan));
    let mut saver = FileCheckpointer::new(&path, meta, Telemetry::disabled())
        .with_backend(backend)
        .with_retry(5, std::time::Duration::ZERO);
    if !saver.save(&ckpt) {
        return Err(format!(
            "seal failed past its retry budget: {}",
            saver
                .take_error()
                .map_or_else(|| "unknown".into(), |e| e.to_string())
        ));
    }
    if faulted && saver.retried() == 0 {
        return Err("transient window injected nothing into the seal".into());
    }
    if tmp_sibling(&path).exists() {
        return Err("successful seal leaked its .tmp sibling".into());
    }
    load_checkpoint(&path).map_err(|e| format!("sealed checkpoint failed verify: {e}"))?;
    println!(
        "ckpt: sealed after {} retr(ies), verify ok",
        saver.retried()
    );
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let mut dir = PathBuf::from("runs/store-torture");
    let mut seed = 1u64;
    let mut faulted = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--dir" => dir = value(&mut i)?.into(),
            "--seed" => {
                seed = value(&mut i)?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?
            }
            "--io-faults" => faulted = true,
            other => {
                return Err(format!(
                    "unknown flag '{other}'\nusage: store_torture --dir DIR \
                     [--seed S] [--io-faults]"
                ))
            }
        }
        i += 1;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;

    torture_wal(&dir, seed, faulted)?;
    torture_ckpt(&dir, seed, faulted)?;
    println!(
        "PASS store_torture (seed {seed}, io-faults {})",
        u8::from(faulted)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("store_torture FAILED: {message}");
            ExitCode::from(1)
        }
    }
}
