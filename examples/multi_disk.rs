//! Joint power management over a disk array: the paper's future-work
//! extension in action. Compares data layouts (partitioned vs striped)
//! under the array-aware joint policy and shows the per-disk timeouts it
//! chooses.
//!
//! ```sh
//! cargo run --release --example multi_disk
//! ```

use jpmd::core::{ArrayJointPolicy, JointConfig, SimScale};
use jpmd::disk::{Layout, SpinDownPolicy};
use jpmd::mem::IdlePolicy;
use jpmd::sim::{ArrayConfig, NullController, RunReport, SimOutcome, Simulation};
use jpmd::trace::{WorkloadBuilder, GIB, MIB};

fn completed(outcome: SimOutcome) -> RunReport {
    outcome
        .into_report()
        .expect("no checkpoint policy was installed")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = SimScale::default();
    let trace = WorkloadBuilder::new()
        .data_set_bytes(16 * GIB)
        .rate_bytes_per_sec(100 * MIB)
        .popularity(0.1)
        .duration_secs(2.0 * 3600.0)
        .seed(5)
        .build()?;
    let mut sim = scale.sim_config(IdlePolicy::Nap, scale.total_banks());
    sim.warmup_secs = 3600.0;

    println!(
        "{:28} {:>10} {:>10} {:>8} {:>8}",
        "configuration", "total[kJ]", "disk[kJ]", "spins", "long/s"
    );
    for disks in [2usize, 4] {
        for (layout, name) in [
            (Layout::Partitioned, "partitioned"),
            (Layout::Striped { stripe_pages: 16 }, "striped"),
        ] {
            sim.array = ArrayConfig { disks, layout };
            // Per-disk 2-competitive baseline…
            let base = Simulation::new(
                &sim,
                SpinDownPolicy::two_competitive(&sim.disk_power),
                NullController,
                "2T",
            )
            .run(trace.source(), 2.0 * 3600.0)?;
            // …versus the array-aware joint policy.
            let mut controller = ArrayJointPolicy::new(
                JointConfig::from_sim(&sim),
                disks,
                layout,
                trace.total_pages(),
            );
            let joint = Simulation::new(
                &sim,
                SpinDownPolicy::controlled(f64::INFINITY),
                &mut controller,
                "joint",
            )
            .run(trace.source(), 2.0 * 3600.0)?;
            let [base, joint] = [base, joint].map(completed);
            for r in [&base, &joint] {
                println!(
                    "{:28} {:>10.1} {:>10.1} {:>8} {:>8.2}",
                    format!("{disks} disks/{name}/{}", r.label),
                    r.energy.total_j() / 1e3,
                    r.energy.disk.total_j() / 1e3,
                    r.spin_downs,
                    r.long_latency_per_sec(),
                );
            }
            // Show the joint policy's final per-disk utilization estimates.
            if let Some(best) = controller.last_candidates().iter().find(|c| c.feasible) {
                let utils: Vec<String> = best
                    .utilizations
                    .iter()
                    .map(|u| format!("{:.1}%", u * 100.0))
                    .collect();
                let timeouts: Vec<String> =
                    best.timeouts.iter().map(|t| format!("{t:.0}s")).collect();
                println!(
                    "{:28} per-disk util {} timeouts {}",
                    "",
                    utils.join("/"),
                    timeouts.join("/")
                );
            }
        }
    }
    println!(
        "\npartitioned layouts consolidate idleness (cold members sleep); \
         striping trades that for transfer parallelism"
    );
    Ok(())
}
