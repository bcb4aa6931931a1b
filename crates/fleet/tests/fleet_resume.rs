//! Whole-fleet crash/resume bit-identity **through the disk**: a
//! multi-shard run killed mid-flight (every shard stops after its second
//! published checkpoint) and resumed from the `fleet.jck` manifest plus
//! per-shard `.jck`/WAL files reproduces the uninterrupted run's
//! [`FleetReport`] exactly, and every shard's telemetry WAL is gap-free
//! and identical to the baseline's. Covers both driver modes — the
//! coordinated mode additionally proves the allocation plan rides the
//! manifest (a resume must not re-run the bidding pass).

use std::fs;
use std::path::Path;

use jpmd_core::SimScale;
use jpmd_fleet::{
    run_fleet_checkpointed, skewed_fleet_trace, FleetConfig, FleetMode, FleetOutcome, FleetReport,
    SkewSpec,
};
use jpmd_obs::ObsRecord;

fn config() -> (FleetConfig, SkewSpec) {
    let spec = SkewSpec {
        shards: 3,
        hot_shards: 1,
        hot_factor: 8.0,
        shard_bytes: 256 << 20,
        base_rate: 1 << 20,
        duration_secs: 1500.0,
        seed: 13,
    };
    let cfg = FleetConfig {
        scale: SimScale::small_test(),
        shards: spec.shards,
        budget_banks: 24,
        warmup_secs: 0.0,
        duration_secs: spec.duration_secs,
        period_secs: 300.0,
        workers: 0,
        seed: 13,
    };
    (cfg, spec)
}

/// Reads a shard WAL, asserting the per-stream sequence is gap-free
/// (seq == line index), and returns wall-clock-normalized lines.
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

/// The golden digest of a fleet report: the CRC-32 of its JSON with the
/// wall-clock fields zeroed (see the workspace `golden_digests` test).
/// Computed on x86_64 Linux, whose libm the f64 results depend on.
fn report_digest(report: &FleetReport) -> u32 {
    let mut report = report.clone();
    report.zero_wall_clock();
    let json = serde_json::to_string(&report).expect("report serializes");
    jpmd_store::crc32(json.as_bytes())
}

fn exercise_mode(mode: FleetMode, digest: u32) {
    let (cfg, spec) = config();
    let (trace, router) = skewed_fleet_trace(&cfg.scale, &spec).expect("fleet trace");
    let root = std::env::temp_dir().join(format!(
        "jpmd-fleet-resume-{}-{}",
        mode.label(),
        std::process::id()
    ));
    let baseline_dir = root.join("baseline");
    let crash_dir = root.join("crash");
    fs::create_dir_all(&root).expect("create test root");

    let baseline = run_fleet_checkpointed(&cfg, mode, &trace, &router, &baseline_dir, None)
        .expect("baseline fleet run")
        .into_report()
        .expect("baseline completes");
    assert!(baseline.total_accesses() > 0);
    assert_eq!(
        report_digest(&baseline),
        digest,
        "{} fleet baseline report changed (golden digest)",
        mode.label()
    );

    let interrupted = run_fleet_checkpointed(&cfg, mode, &trace, &router, &crash_dir, Some(2))
        .expect("interrupted fleet run");
    assert_eq!(interrupted, FleetOutcome::Interrupted);
    for shard in 0..cfg.shards {
        assert!(
            crash_dir.join(format!("shard{shard}.jck")).exists(),
            "shard {shard} checkpointed before dying"
        );
    }

    let resumed = run_fleet_checkpointed(&cfg, mode, &trace, &router, &crash_dir, None)
        .expect("resumed fleet run")
        .into_report()
        .expect("resumed fleet completes");

    assert_eq!(baseline, resumed, "resumed fleet report must be identical");
    for shard in 0..cfg.shards {
        let wal = format!("shard{shard}.jsonl");
        assert_eq!(
            normalized(&baseline_dir.join(&wal)),
            normalized(&crash_dir.join(&wal)),
            "shard {shard} WAL diverged after resume"
        );
    }
    fs::remove_dir_all(&root).ok();
}

#[test]
fn coordinated_fleet_resumes_bit_identical() {
    exercise_mode(FleetMode::Coordinated, 0x4c83_bb90);
}

#[test]
fn greedy_fleet_resumes_bit_identical() {
    exercise_mode(FleetMode::PerShardGreedy, 0xa156_6112);
}
