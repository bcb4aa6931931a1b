//! Write-back caching and the flush daemon — the deferred-write study of
//! the paper's related work (Papathanasiou & Scott's *energy efficient
//! prefetching and caching* \[29\]: lengthen disk idle intervals by batching
//! I/O).
//!
//! A 30 %-write workload runs under the 2TFM-16GB and Joint methods while
//! the dirty-page sync interval sweeps from 5 s to 600 s (and "never").
//! Expected shape: short sync intervals chop disk idleness into sub-
//! break-even fragments (few spin-downs, more disk energy); long intervals
//! batch writes into rare bursts the spin-down policy can sleep between —
//! the same reason the paper's aggregation window exists. Pass `--quick`
//! for a shorter run.

use jpmd_bench::{write_json, ExperimentConfig, Table};
use jpmd_core::{methods, JointPolicy};
use jpmd_disk::SpinDownPolicy;
use jpmd_sim::{NullController, RunReport, Simulation};
use jpmd_trace::{WorkloadBuilder, GIB, MIB};

fn main() -> std::io::Result<()> {
    let cfg = ExperimentConfig::from_args();
    let trace = WorkloadBuilder::new()
        .data_set_bytes(16 * GIB)
        .rate_bytes_per_sec(20 * MIB)
        .popularity(0.1)
        .write_fraction(0.3)
        .page_bytes(cfg.scale.page_bytes)
        .duration_secs(cfg.duration_secs)
        .seed(cfg.seed)
        .build()
        .expect("workload generation");

    let mut table = Table::new(
        "Write-back flush-interval sweep (16 GB, 20 MB/s, 30% writes)",
        vec![
            "disk_kJ".into(),
            "spins".into(),
            "disk_pages".into(),
            "long/s".into(),
        ],
    );

    let run = |label: &str, sync: f64, joint: bool| -> RunReport {
        let spec = if joint {
            methods::joint(&cfg.scale)
        } else {
            methods::fixed_memory(&cfg.scale, methods::DiskPolicyKind::TwoCompetitive, 16)
        };
        let mut sim = cfg.scale.sim_config(spec.mem_policy, spec.initial_banks);
        sim.warmup_secs = cfg.warmup_secs;
        sim.period_secs = cfg.period_secs;
        sim.sync_interval_secs = sync;
        match &spec.joint {
            Some(jc) => {
                let mut controller = JointPolicy::new(*jc);
                Simulation::new(
                    &sim,
                    SpinDownPolicy::controlled(f64::INFINITY),
                    &mut controller,
                    label,
                )
                .run(trace.source(), cfg.duration_secs)
                .expect("in-memory trace sources cannot fail")
                .into_report()
                .expect("no checkpoint policy was installed")
            }
            None => Simulation::new(&sim, spec.spindown.clone(), &mut NullController, label)
                .run(trace.source(), cfg.duration_secs)
                .expect("in-memory trace sources cannot fail")
                .into_report()
                .expect("no checkpoint policy was installed"),
        }
    };

    for (method, joint) in [("2TFM-16GB", false), ("Joint", true)] {
        for &sync in &[5.0f64, 30.0, 120.0, 600.0, f64::INFINITY] {
            let label = if sync.is_finite() {
                format!("{method}/sync={sync}s")
            } else {
                format!("{method}/sync=never")
            };
            let r = run(&label, sync, joint);
            table.push(
                label.clone(),
                vec![
                    r.energy.disk.total_j() / 1e3,
                    r.spin_downs as f64,
                    r.disk_page_accesses as f64,
                    r.long_latency_per_sec(),
                ],
            );
            eprintln!("writeback: {label} done");
        }
    }
    table.print();
    write_json("writeback", &table)
}
