//! `ckpt_tool` — inspect and verify `.jck` checkpoint files. An
//! interrupted chaos run resumes through `chaos --ckpt <file> --resume`.
//!
//! Exit codes follow the workspace tool convention (`jpmd_obs::cli`):
//! `0` ok, `1` runtime failure (missing/corrupt file, failing run),
//! `2` usage error.

use std::process::ExitCode;

use jpmd_ckpt::load_checkpoint;
use jpmd_obs::cli::{self, CliError};

const USAGE: &str = "\
usage: ckpt_tool <command> [args]
  inspect <file.jck>   print run identity and progress
  verify  <file.jck>   exit 0 iff the checkpoint loads cleanly";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    cli::exit_with(run(&args), USAGE)
}

fn run(args: &[String]) -> Result<(), CliError> {
    match cli::require(args, 1, "command")? {
        "inspect" => inspect(args),
        "verify" => verify(args),
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
