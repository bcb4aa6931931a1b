//! Joint power management over a disk array: the paper's future-work
//! extension in action. Compares data layouts (partitioned vs striped)
//! under the joint policy and shows the per-disk timeouts it applied.
//!
//! ```sh
//! cargo run --release --example multi_disk
//! ```

use jpmd::core::{JointConfig, JointPolicy, SimScale};
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
            // …versus the joint policy, which learns the array from the run
            // and decides every member's timeout.
            let joint = Simulation::new(
                &sim,
                SpinDownPolicy::controlled(f64::INFINITY),
                JointPolicy::new(JointConfig::from_sim(&sim)),
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
            // The per-disk timeouts the joint policy applied last.
            if let Some(row) = joint.periods.last() {
                let timeouts: Vec<String> = row
                    .action
                    .disk_timeouts
                    .iter()
                    .map(|t| format!("{t:.1}s"))
                    .collect();
                println!("{:28} per-disk timeouts {}", "", timeouts.join("/"));
            }
        }
    }
    println!(
        "\npartitioned layouts consolidate idleness (cold members sleep); \
         striping trades that for transfer parallelism"
    );
    Ok(())
}
