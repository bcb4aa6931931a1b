//! `ckpt_tool` — inspect, verify, and resume `.jck` checkpoint files.
//!
//! Exit codes follow the workspace tool convention (`jpmd_obs::cli`):
//! `0` ok, `1` runtime failure (missing/corrupt file, failing run),
//! `2` usage error.

use std::process::ExitCode;

use jpmd_ckpt::load_checkpoint;
use jpmd_faults::{chaos_trace, run_chaos, ChaosConfig};
use jpmd_obs::cli::{self, CliError};
use jpmd_obs::{JsonlSink, Telemetry, WalPolicy};

const USAGE: &str = "\
usage: ckpt_tool <command> [args]
  inspect <file.jck>                    print run identity and progress
  verify  <file.jck>                    exit 0 iff the checkpoint loads cleanly
  resume  <file.jck> [telemetry.jsonl]  finish an interrupted 'chaos-small' run

resume rebuilds the run from the checkpoint's metadata (currently only the
'chaos-small' recipe), reopens the telemetry WAL at the checkpoint's
sequence number when a path is given (argument, else the recorded one),
and prints the completed run's summary.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    cli::exit_with(run(&args), USAGE)
}

fn run(args: &[String]) -> Result<(), CliError> {
    match cli::require(args, 1, "command")? {
        "inspect" => inspect(args),
        "verify" => verify(args),
        "resume" => resume(args),
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
}

fn inspect(args: &[String]) -> Result<(), CliError> {
    let path = cli::require(args, 2, "file.jck")?;
    let (meta, ckpt) = load_checkpoint(path)?;
    println!("label            {}", ckpt.label);
    println!("duration_s       {}", ckpt.duration);
    println!("kind             {}", meta.kind);
    println!("seed             {}", meta.seed);
    println!("trace_seed       {}", meta.trace_seed);
    println!(
        "telemetry        {}",
        meta.telemetry.as_deref().unwrap_or("-")
    );
    println!("telemetry_seq    {}", ckpt.telemetry_seq);
    match meta.wal_index {
        Some(pos) => {
            println!("wal_offset       {}", pos.offset);
            println!("wal_index_ents   {}", pos.index_entries);
        }
        None => println!("wal_offset       -"),
    }
    println!(
        "periods_done     {}",
        ckpt.engine.stats.counts.period_boundaries
    );
    println!("records_pulled   {}", ckpt.engine.stats.records_pulled);
    println!("sim_time_s       {}", ckpt.engine.last_time);
    println!("observer_images  {}", ckpt.engine.observers.len());
    Ok(())
}

fn verify(args: &[String]) -> Result<(), CliError> {
    let path = cli::require(args, 2, "file.jck")?;
    let (meta, ckpt) = load_checkpoint(path)?;
    println!(
        "ok: '{}' ({}) at period {}, telemetry seq {}",
        ckpt.label, meta.kind, ckpt.engine.stats.counts.period_boundaries, ckpt.telemetry_seq
    );
    Ok(())
}

fn resume(args: &[String]) -> Result<(), CliError> {
    let path = cli::require(args, 2, "file.jck")?;
    let (meta, ckpt) = load_checkpoint(path)?;
    if meta.kind != "chaos-small" {
        return Err(cli::runtime(format!(
            "resume knows the 'chaos-small' recipe; this checkpoint is '{}' — \
             rebuild that run programmatically and pass the checkpoint to its \
             *_checkpointed entry point",
            meta.kind
        )));
    }
    let chaos = ChaosConfig::small_test(meta.seed);
    let trace = chaos_trace(&chaos.scale, chaos.duration_secs, meta.trace_seed);
    let wal_path = args
        .get(3)
        .map(String::as_str)
        .or(meta.telemetry.as_deref());
    let telemetry = match wal_path {
        Some(p) => Telemetry::new(Box::new(JsonlSink::resume(
            p,
            ckpt.telemetry_seq,
            WalPolicy::wal(),
        )?)),
        None => Telemetry::disabled(),
    };
    let report = run_chaos(&chaos, trace.source(), &telemetry, Some(&ckpt), None)?
        .into_report()
        .expect("a resume without a checkpoint policy runs to completion");
    println!("label            {}", report.report.label);
    println!("energy_j         {:.3}", report.report.energy.total_j());
    println!("delayed_ratio    {:.6}", report.delayed_ratio());
    println!("guard_fallbacks  {}", report.guard.fallbacks);
    println!("guard_recoveries {}", report.guard.recoveries);
    println!("final_level      {:?}", report.final_level);
    println!("source_faults    {}", report.source_faults.total());
    println!("hw_faults        {}", report.hw_faults.total());
    println!("policy_faults    {}", report.injected_policy_faults);
    Ok(())
}
