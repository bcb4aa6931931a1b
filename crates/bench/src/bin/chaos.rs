//! Chaos smoke: runs the joint method under the standard fault plan —
//! corrupted trace records, disk stalls, failed spin-ups, flaky banks,
//! and a burst of injected policy failures — and verifies the stack
//! degrades *gracefully*: no panic, typed fallbacks with telemetry, and a
//! recovery back to the joint policy before the run ends.
//!
//! Exits non-zero if the run never degraded, never recovered, did not end
//! on the joint level, or blew the delayed-request bound. CI greps the
//! resulting JSONL via `obs_tool summary` for `fallbacks`/`recoveries`.
//!
//! With `--ckpt` the run snapshots into a `.jck` file (see `jpmd-ckpt`)
//! and the telemetry sink becomes a flush-per-record WAL; `--die-after N`
//! stops the process right after the Nth checkpoint is sealed (the CI
//! crash-resume smoke's deterministic stand-in for `kill -9`), and
//! `--resume` restarts from whatever the `.jck` and WAL remember,
//! producing a report bit-identical to an uninterrupted run.
//!
//! Usage:
//!
//! ```text
//! chaos [OUT.jsonl] [SEED] [--ckpt PATH] [--every N] [--die-after N]
//!       [--resume] [--report PATH]
//! ```
//!
//! (default `results/chaos.jsonl`, seed 1, checkpoint every period)
//!
//! The telemetry WAL is always written **indexed**: a `<OUT>.jx` sparse
//! period index rides along (stride 64), so `obs_tool seek`/`range`
//! answer period queries without scanning the whole stream.

use jpmd_ckpt::{load_checkpoint, CkptMeta, FileCheckpointer};
use jpmd_core::JointConfig;
use jpmd_faults::{
    chaos_trace, run_chaos, ChaosConfig, ChaosOutcome, ChaosReport, FallbackLevel, GuardConfig,
};
use jpmd_mem::IdlePolicy;
use jpmd_obs::{JsonlSink, Telemetry, WalPolicy};
use jpmd_sim::{CheckpointOptions, CheckpointPolicy, SimCheckpoint};

const TRACE_SEED: u64 = 42;

/// Sparse-index stride for the telemetry WAL: one `(period, seq, offset)`
/// entry per 64 period-carrying records keeps the `.jx` sidecar tiny
/// while `obs_tool seek`/`range` stay O(index + stride).
const INDEX_STRIDE: u32 = 64;

struct Args {
    out: String,
    seed: u64,
    ckpt: Option<String>,
    every: u64,
    die_after: Option<u64>,
    resume: bool,
    report: Option<String>,
}

fn parse_args() -> Result<Args, Box<dyn std::error::Error>> {
    let mut args = Args {
        out: "results/chaos.jsonl".to_string(),
        seed: 1,
        ckpt: None,
        every: 1,
        die_after: None,
        resume: false,
        report: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = 0usize;
    let mut i = 0usize;
    while i < raw.len() {
        let flag_value = |i: &mut usize| -> Result<String, Box<dyn std::error::Error>> {
            *i += 1;
            raw.get(*i)
                .cloned()
                .ok_or_else(|| format!("flag {} needs a value", raw[*i - 1]).into())
        };
        match raw[i].as_str() {
            "--ckpt" => args.ckpt = Some(flag_value(&mut i)?),
            "--every" => args.every = flag_value(&mut i)?.parse()?,
            "--die-after" => args.die_after = Some(flag_value(&mut i)?.parse()?),
            "--resume" => args.resume = true,
            "--report" => args.report = Some(flag_value(&mut i)?),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}").into());
            }
            other => {
                match positional {
                    0 => args.out = other.to_string(),
                    1 => args.seed = other.parse()?,
                    _ => return Err(format!("unexpected argument {other}").into()),
                }
                positional += 1;
            }
        }
        i += 1;
    }
    if (args.die_after.is_some() || args.resume) && args.ckpt.is_none() {
        return Err("--die-after/--resume require --ckpt".into());
    }
    Ok(args)
}

fn ensure_parent(path: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args()?;
    ensure_parent(&args.out)?;
    if let Some(ckpt) = &args.ckpt {
        ensure_parent(ckpt)?;
    }

    let result = match &args.ckpt {
        None => {
            let chaos = ChaosConfig::small_test(args.seed);
            let trace = chaos_trace(&chaos.scale, chaos.duration_secs, TRACE_SEED);
            let telemetry = Telemetry::new(Box::new(JsonlSink::create_indexed(
                &args.out,
                WalPolicy::default(),
                INDEX_STRIDE,
            )?));
            run_chaos(&chaos, trace.source(), &telemetry, None, None)?
                .into_report()
                .expect("no checkpoint policy was installed")
        }
        Some(ckpt_path) if args.resume => {
            let (meta, ckpt) = load_checkpoint(ckpt_path)?;
            if meta.kind != "chaos-small" {
                return Err(
                    format!("checkpoint kind '{}' is not resumable here", meta.kind).into(),
                );
            }
            let chaos = ChaosConfig::small_test(meta.seed);
            let trace = chaos_trace(&chaos.scale, chaos.duration_secs, meta.trace_seed);
            let wal = meta.telemetry.clone().unwrap_or_else(|| args.out.clone());
            let telemetry = Telemetry::new(Box::new(JsonlSink::resume_indexed(
                &wal,
                ckpt.telemetry_seq,
                WalPolicy::wal(),
                INDEX_STRIDE,
            )?));
            println!(
                "chaos: resuming seed {} from {ckpt_path} (period {}, telemetry seq {})",
                meta.seed, ckpt.engine.stats.counts.period_boundaries, ckpt.telemetry_seq,
            );
            match run_chaos(&chaos, trace.source(), &telemetry, Some(&ckpt), None)? {
                ChaosOutcome::Completed(report) => *report,
                ChaosOutcome::Interrupted => unreachable!("resume runs without a checkpoint stop"),
            }
        }
        Some(ckpt_path) => {
            let chaos = ChaosConfig::small_test(args.seed);
            let trace = chaos_trace(&chaos.scale, chaos.duration_secs, TRACE_SEED);
            let telemetry = Telemetry::new(Box::new(JsonlSink::create_indexed(
                &args.out,
                WalPolicy::wal(),
                INDEX_STRIDE,
            )?));
            let meta =
                CkptMeta::chaos_small(args.seed, TRACE_SEED).with_telemetry(args.out.clone());
            let mut saver = FileCheckpointer::new(ckpt_path, meta, telemetry.clone());
            let die_after = args.die_after;
            let every = args.every;
            let mut on_checkpoint = |ckpt: SimCheckpoint| {
                saver.save(&ckpt) && die_after.is_none_or(|n| saver.saved() < n)
            };
            let outcome = run_chaos(
                &chaos,
                trace.source(),
                &telemetry,
                None,
                Some(CheckpointOptions {
                    policy: CheckpointPolicy::every(every),
                    on_checkpoint: &mut on_checkpoint,
                }),
            )?;
            if let Some(e) = saver.take_error() {
                return Err(format!("checkpoint save failed: {e}").into());
            }
            match outcome {
                ChaosOutcome::Completed(report) => *report,
                ChaosOutcome::Interrupted => {
                    println!(
                        "chaos: interrupted after {} checkpoint(s), state in {ckpt_path}; \
                         rerun with --ckpt {ckpt_path} --resume",
                        saver.saved(),
                    );
                    return Ok(());
                }
            }
        }
    };

    report_and_check(&args, &result)
}

fn report_and_check(args: &Args, result: &ChaosReport) -> Result<(), Box<dyn std::error::Error>> {
    let chaos = ChaosConfig::small_test(args.seed);
    let cfg = JointConfig::from_sim(
        &chaos
            .scale
            .sim_config(IdlePolicy::Nap, chaos.scale.total_banks()),
    );
    let delay_bound = GuardConfig::from_joint(&cfg).delay_ratio_limit;

    println!(
        "chaos: seed {}, {} periods, {:.1} kJ, events -> {}",
        args.seed,
        result.report.periods.len(),
        result.report.energy.total_j() / 1e3,
        args.out,
    );
    println!(
        "  injected: {} source faults ({} transient), {} hw faults ({:.2} s stalled), {} policy faults",
        result.source_faults.total(),
        result.source_faults.transient_errors,
        result.hw_faults.total(),
        result.hw_faults.stall_secs_injected,
        result.injected_policy_faults,
    );
    println!(
        "  guard: {} fallbacks, {} watchdog trips, {} promotions, {} recoveries, final level {}",
        result.guard.fallbacks,
        result.guard.watchdog_trips,
        result.guard.promotions,
        result.guard.recoveries,
        result.final_level.as_str(),
    );
    println!(
        "  engine: {} source retries, {} records dropped, {} clamped",
        result.report.engine.source_retries,
        result.report.engine.records_dropped,
        result.report.engine.records_clamped,
    );
    println!(
        "  delayed ratio {:.5} (bound {delay_bound}), utilization {:.5}",
        result.delayed_ratio(),
        result.report.utilization,
    );

    if let Some(report_path) = &args.report {
        // Two equal runs must produce byte-identical JSON: the CI
        // crash-resume smoke diffs these files.
        let mut report = result.report.clone();
        report.zero_wall_clock();
        ensure_parent(report_path)?;
        std::fs::write(report_path, serde_json::to_string_pretty(&report)?)?;
        println!("  report -> {report_path} (wall-clock fields zeroed)");
    }

    let mut failures = Vec::new();
    if result.guard.fallbacks + result.guard.watchdog_trips == 0 {
        failures.push("no degradation occurred (fault injection ineffective)".to_string());
    }
    if result.guard.recoveries == 0 {
        failures.push("guard never recovered to the joint level".to_string());
    }
    if result.final_level != FallbackLevel::Joint {
        failures.push(format!(
            "run ended degraded (level {})",
            result.final_level.as_str()
        ));
    }
    if result.delayed_ratio() > delay_bound {
        failures.push(format!(
            "delayed ratio {:.5} exceeds bound {delay_bound}",
            result.delayed_ratio()
        ));
    }
    if !failures.is_empty() {
        return Err(failures.join("; ").into());
    }
    println!("  OK: degraded gracefully and recovered");
    Ok(())
}
