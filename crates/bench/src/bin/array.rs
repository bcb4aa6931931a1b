//! Multi-disk extension experiment (paper §VI future work): the joint
//! method over a disk array, across member counts and data layouts.
//!
//! Expected shape: the partitioned layout consolidates idleness on cold
//! members (they spin down; cf. Pinheiro & Bianchini, paper ref. \[31\]),
//! while striping keeps every member awake; the joint policy, deciding
//! each member's timeout, beats per-disk static timeouts on total energy
//! at a higher long-latency rate. Pass `--quick` for a shorter run.

use jpmd_bench::{experiments, write_json, ExperimentConfig, Table, WorkloadPoint};
use jpmd_core::{JointConfig, JointPolicy};
use jpmd_disk::{Layout, SpinDownPolicy};
use jpmd_mem::IdlePolicy;
use jpmd_sim::{ArrayConfig, NullController, RunReport, Simulation};

fn main() -> std::io::Result<()> {
    let cfg = ExperimentConfig::from_args();
    let point = WorkloadPoint {
        data_gb: 16,
        rate_mb: 100,
        popularity: 0.1,
    };
    let trace = experiments::make_trace(&cfg, point);
    let mut sim = cfg
        .scale
        .sim_config(IdlePolicy::Nap, cfg.scale.total_banks());
    sim.warmup_secs = cfg.warmup_secs;
    sim.period_secs = cfg.period_secs;

    let run = |disks: usize, layout: Layout, method: &str| -> RunReport {
        let mut sim = sim;
        sim.array = ArrayConfig { disks, layout };
        let outcome = match method {
            "always-on" => Simulation::new(&sim, SpinDownPolicy::AlwaysOn, NullController, method)
                .run(trace.source(), cfg.duration_secs),
            "2T" => Simulation::new(
                &sim,
                SpinDownPolicy::two_competitive(&sim.disk_power),
                NullController,
                method,
            )
            .run(trace.source(), cfg.duration_secs),
            "joint" => Simulation::new(
                &sim,
                SpinDownPolicy::controlled(f64::INFINITY),
                JointPolicy::new(JointConfig::from_sim(&sim)),
                method,
            )
            .run(trace.source(), cfg.duration_secs),
            other => unreachable!("unknown method {other}"),
        };
        outcome
            .expect("in-memory trace sources cannot fail")
            .into_report()
            .expect("no checkpoint policy was installed")
    };

    let mut table = Table::new(
        "Multi-disk extension: 16 GB, 100 MB/s, popularity 0.1",
        vec![
            "total_kJ".into(),
            "disk_kJ".into(),
            "mem_kJ".into(),
            "spins".into(),
            "long/s".into(),
            "lat_ms".into(),
        ],
    );
    for &disks in &[1usize, 2, 4] {
        for (layout, lname) in [
            (Layout::Partitioned, "part"),
            (Layout::Striped { stripe_pages: 16 }, "stripe"),
        ] {
            for method in ["always-on", "2T", "joint"] {
                let r = run(disks, layout, method);
                table.push(
                    format!("{disks}d/{lname}/{method}"),
                    vec![
                        r.energy.total_j() / 1e3,
                        r.energy.disk.total_j() / 1e3,
                        r.energy.mem.total_j() / 1e3,
                        r.spin_downs as f64,
                        r.long_latency_per_sec(),
                        r.mean_latency_secs * 1e3,
                    ],
                );
                eprintln!("array: {disks}d {lname} {method} done");
            }
        }
    }
    table.print();
    write_json("array", &table)
}
