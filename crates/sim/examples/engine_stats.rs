//! Prints the engine counters and per-period event log for a small run.
use jpmd_mem::{IdlePolicy, MemConfig, RdramModel};
use jpmd_sim::{NullController, SimConfig, Simulation, SpinDownPolicy};
use jpmd_trace::{WorkloadBuilder, GIB, MIB};

fn main() {
    let trace = WorkloadBuilder::new()
        .data_set_bytes(GIB / 4)
        .rate_bytes_per_sec(8 * MIB)
        .write_fraction(0.3)
        .duration_secs(1200.0)
        .seed(7)
        .build()
        .expect("workload generation");
    let mut cfg = SimConfig::with_mem(MemConfig {
        page_bytes: 1 << 20,
        bank_pages: 4,
        total_banks: 8,
        initial_banks: 8,
        model: RdramModel::default(),
        policy: IdlePolicy::Nap,
    });
    cfg.period_secs = 300.0;
    cfg.warmup_secs = 300.0;
    cfg.sync_interval_secs = 60.0;
    let report = Simulation::new(&cfg, SpinDownPolicy::AlwaysOn, NullController, "example")
        .run(trace.source(), 1200.0)
        .expect("in-memory trace sources cannot fail")
        .into_report()
        .expect("no checkpoint policy was installed");
    println!("{:#?}", report.engine);
}
