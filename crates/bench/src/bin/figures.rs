//! Regenerates the paper's figures and tables, and runs its extension
//! experiments, one per subcommand:
//!
//! ```text
//! figures fig1       Fig. 1 power models and the Table II parameter values
//! figures fig5       Fig. 5: Pareto CDFs for two parameter pairs
//! figures fig7       Fig. 7: all 16 methods across data-set sizes
//!                    {4, 8, 16, 32, 64} GB (100 MB/s, popularity 0.1) — six
//!                    sub-figures: total/disk/memory energy %, latency,
//!                    utilization, long-latency rate
//! figures fig8       Fig. 8: energy and long-latency rate across data rates
//!                    (a, b) and popularity (c, d); `--part rate` or
//!                    `--part popularity` selects one half
//! figures fig9       Fig. 9: per-period disk requests and idle lengths at
//!                    fixed 8/16 GB memories (32 GB data set), validating
//!                    last-period prediction
//! figures table3     Table III: memory and disk accesses under different
//!                    data sets
//! figures table4     Table IV: joint-method sensitivity to the period length
//! figures table5     Table V: joint-method sensitivity to the bank size
//! figures ablation   ablations of the joint method's design choices
//!                    (DESIGN.md §"Design choices to ablate")
//! figures array      the joint method over 1, 2 and 4 disks, partitioned
//!                    and striped (§VI)
//! figures cluster    balanced vs unbalanced request distribution over four
//!                    servers (§II-B, §VI)
//! figures drpm       multi-speed disk vs spin-down on fixed request streams
//!                    (§VI); ignores `--quick`
//! figures varying    hourly busy/quiet load phases; also prints the joint
//!                    method's per-period decisions, which it does not save
//! figures writeback  flush-interval sweep of a 30 %-write workload
//! figures pareto_validation
//!                    Pareto vs exponential fits of the disk idle intervals
//!                    (§IV-C)
//! figures csv <results/file.json>
//!                    writes each table of a saved result as CSV beside it
//! ```
//!
//! Every experiment but `fig1` prints its tables and saves
//! `results/<name>.json`; the doc of its function in
//! [`jpmd_bench::experiments`] states the shape to expect. `--quick` runs
//! a shorter simulation and `--bars` also renders each column of
//! `fig7`/`fig8` as a bar chart. A missing or unknown name, or a bad
//! `--part`, prints this usage and exits 2 before anything runs (the
//! `jpmd_store::cli` convention).

use std::process::ExitCode;

use jpmd_bench::{experiments, write_json, ExperimentConfig, Table};
use jpmd_core::SimScale;
use jpmd_disk::{DiskPowerModel, ServiceModel};
use jpmd_mem::RdramModel;
use jpmd_store::cli::{exit_with, require, runtime, CliError};

const USAGE: &str = "usage: figures <name> [--quick] [--bars] [--part rate|popularity]
       figures csv <results/file.json>

names: fig1 fig5 fig7 fig8 fig9 table3 table4 table5 ablation
       array cluster drpm varying writeback pareto_validation
(--bars applies to fig7 and fig8, --part to fig8; drpm ignores --quick;
each name but fig1 saves results/<name>.json)";

fn run(args: &[String]) -> Result<(), CliError> {
    let name = require(args, 1, "name")?;
    let cfg = ExperimentConfig::from_args();
    let tables = match name {
        "fig1" => {
            fig1();
            return Ok(());
        }
        "csv" => return write_csv(require(args, 2, "results/file.json")?),
        "fig5" => return print_and_save(name, experiments::fig5()),
        "fig7" => experiments::fig7(&cfg),
        "fig8" => {
            let part = fig8_part(args)?;
            let mut tables = Vec::new();
            if part != Some("popularity") {
                tables.extend(experiments::fig8_rate(&cfg));
            }
            if part != Some("rate") {
                tables.extend(experiments::fig8_popularity(&cfg));
            }
            tables
        }
        "fig9" => {
            let (series, summary) = experiments::fig9(&cfg);
            vec![series, summary]
        }
        "table3" => return print_and_save(name, experiments::table3(&cfg)),
        "table4" => return print_and_save(name, experiments::table4(&cfg)),
        "table5" => return print_and_save(name, experiments::table5(&cfg)),
        "ablation" => vec![
            experiments::ablation_constraints(&cfg),
            experiments::ablation_window(&cfg),
            experiments::ablation_power_aware(&cfg),
            experiments::ablation_timeout_policies(&cfg),
        ],
        "array" => return print_and_save(name, experiments::array(&cfg)),
        "cluster" => return print_and_save(name, experiments::cluster(&cfg)),
        "drpm" => return print_and_save(name, experiments::drpm()),
        "varying" => {
            let (table, joint_periods) = experiments::varying(&cfg);
            table.print();
            joint_periods.print();
            return Ok(write_json(name, &table)?);
        }
        "writeback" => return print_and_save(name, experiments::writeback(&cfg)),
        "pareto_validation" => return print_and_save(name, experiments::pareto_validation(&cfg)),
        unknown => return Err(CliError::Usage(format!("unknown figure '{unknown}'"))),
    };
    for t in &tables {
        t.print();
    }
    // `--bars` additionally renders each column as a horizontal bar chart
    // (the closest terminal analogue of the paper's grouped-bar figures).
    if matches!(name, "fig7" | "fig8") && args.iter().any(|a| a == "--bars") {
        for t in &tables {
            for c in 0..t.columns.len() {
                t.print_bars(c);
            }
        }
    }
    Ok(write_json(name, &tables)?)
}

/// The half of Fig. 8 that `--part` selects, `None` for both. A `--part`
/// without a known value is refused before anything runs: running
/// neither half would overwrite the saved figure with nothing.
fn fig8_part(args: &[String]) -> Result<Option<&str>, CliError> {
    let Some(i) = args.iter().position(|a| a == "--part") else {
        return Ok(None);
    };
    match args.get(i + 1).map(String::as_str) {
        Some(part @ ("rate" | "popularity")) => Ok(Some(part)),
        Some(other) => Err(CliError::Usage(format!(
            "--part must be rate or popularity, got '{other}'"
        ))),
        None => Err(CliError::Usage("--part needs a value".into())),
    }
}

/// A single-table result is saved as the table itself, not a list.
fn print_and_save(name: &str, table: Table) -> Result<(), CliError> {
    table.print();
    Ok(write_json(name, &table)?)
}

/// Writes each table of the saved result at `path` (one table or a list)
/// as CSV beside it: `<stem>.csv` for one table, `<stem>.<n>.csv` for
/// the n-th of several.
fn write_csv(path: &str) -> Result<(), CliError> {
    let raw =
        std::fs::read_to_string(path).map_err(|e| runtime(format!("cannot read {path}: {e}")))?;
    let tables: Vec<Table> = match serde_json::from_str::<Vec<Table>>(&raw) {
        Ok(tables) => tables,
        Err(_) => vec![serde_json::from_str::<Table>(&raw)
            .map_err(|e| runtime(format!("{path} holds no result tables: {e}")))?],
    };
    let stem = path.trim_end_matches(".json");
    for (i, t) in tables.iter().enumerate() {
        let out = if tables.len() == 1 {
            format!("{stem}.csv")
        } else {
            format!("{stem}.{i}.csv")
        };
        std::fs::write(&out, t.to_csv())
            .map_err(|e| runtime(format!("cannot write {out}: {e}")))?;
        println!("wrote {out} ({})", t.title);
    }
    Ok(())
}

/// Prints the power-model tables of paper Fig. 1 and the parameter values
/// of Table II, straight from the model types.
fn fig1() {
    let mem = RdramModel::default();
    let disk = DiskPowerModel::default();
    let scale = SimScale::default();

    println!("== Fig. 1(a) memory power model (128 Mb RDRAM chip) ==");
    println!("  attention            {:>8.1} mW", mem.attention_mw);
    println!("  accessed (peak rate) {:>8.1} mW", mem.peak_mw);
    println!("  nap                  {:>8.1} mW", mem.nap_mw);
    println!("  power down           {:>8.1} mW", mem.powerdown_mw);
    println!("  disable              {:>8.1} mW (data lost)", 0.0);
    println!("  nap -> attention     {:>8.1} ns", mem.nap_exit_ns);
    println!(
        "  pwrdn -> attention   {:>8.1} us (also disable estimate)",
        mem.powerdown_exit_us
    );
    println!(
        "  derived: static {:.3} mW/MB, dynamic {:.3} mJ/MB, PD timeout {:.0} us",
        mem.nap_w_per_mb() * 1e3,
        mem.dynamic_j_per_mb() * 1e3,
        mem.powerdown_timeout_s() * 1e6
    );

    println!("\n== Fig. 1(b) disk power model (Seagate IDE) ==");
    println!("  active               {:>8.1} W", disk.active_w);
    println!("  idle                 {:>8.1} W", disk.idle_w);
    println!("  standby/sleep        {:>8.1} W", disk.standby_w);
    println!(
        "  transition (round)   {:>8.1} J / {:.0} s",
        disk.transition_j, disk.spinup_s
    );
    println!(
        "  derived: p_d = {:.1} W, peak dynamic = {:.1} W, t_be = {:.1} s",
        disk.static_w(),
        disk.dynamic_peak_w(),
        disk.break_even_s()
    );

    println!("\n== Bandwidth table (paper \u{a7}V-A: effective rate by request size) ==");
    println!(
        "  {:>12} {:>16} {:>16}",
        "request", "physical MB/s", "scaled MB/s"
    );
    let physical = ServiceModel::default();
    let scaled = ServiceModel::scaled_pages();
    for kb in [64u64, 256, 1024, 4096, 16384, 65536] {
        let bytes = kb * 1024;
        println!(
            "  {:>9} KiB {:>16.2} {:>16.2}",
            kb,
            physical.effective_rate_mb_s(bytes),
            scaled.effective_rate_mb_s(bytes)
        );
    }

    println!("\n== Table II parameter values ==");
    println!("  T (period)           {:>8} s", 600);
    println!("  w (aggregation)      {:>8} s", 0.1);
    println!("  t_be                 {:>8.1} s", disk.break_even_s());
    println!("  t_tr                 {:>8.1} s", disk.spinup_s);
    println!("  p_d                  {:>8.1} W", disk.static_w());
    println!("  U (utilization cap)  {:>8} %", 10);
    println!("  D (delay ratio cap)  {:>8}", 0.001);
    println!("  bank (enum. unit)    {:>8} MB", scale.bank_mib);
    println!(
        "  installed memory     {:>8} GB ({} banks)",
        scale.total_gb,
        scale.total_banks()
    );
    println!(
        "  DS timeout           {:>8.0} s",
        scale.disable_timeout_s()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    exit_with(run(&args), USAGE)
}
