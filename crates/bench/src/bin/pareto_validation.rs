//! End-to-end validation of the paper's §IV-C modeling premise: "the
//! distributions of the disk idle intervals have heavy tails and Pareto
//! distributions can model such characteristics" (refs. \[19\], \[20\]).
//!
//! For each arrival model (Poisson vs heavy-tailed Pareto bursts) and each
//! memory size, this profiles the workload once, reconstructs the disk
//! idle intervals the joint method would see, fits both the Pareto (the
//! paper's moment estimator) and a shifted exponential (the memoryless
//! null), and reports the Kolmogorov–Smirnov distance of each fit.
//!
//! Three fits are compared: the joint method's *runtime* fit
//! (moment-matched Pareto with β = the aggregation window, exactly what
//! the policy computes each period), a Pareto MLE with β = the shortest
//! observed gap (the paper's literal definition of β), and the shifted
//! exponential.
//!
//! Expected shape — and an honest one: under Poisson arrivals the miss
//! stream is (thinned) Poisson, so gaps are near-exponential and the
//! memoryless fit wins; the paper's heavy-tail premise comes from
//! *measured* NT/UNIX server traces (refs. \[20\], \[21\]), not from
//! Poisson synthetics. As arrivals get burstier the exponential's KS
//! distance degrades several-fold while the β=min Pareto closes in —
//! the regime the paper's model is built for. The window sweep in
//! `figures ablation` shows the joint method's *energy* is robust to this
//! distributional misfit either way. Pass `--quick` for a shorter run.

use jpmd_bench::{write_json, ExperimentConfig, Table};
use jpmd_mem::{AccessLog, StackProfiler};
use jpmd_stats::{fit, ks_statistic, Exponential, IdleIntervals};
use jpmd_trace::{ArrivalModel, WorkloadBuilder, GIB, MIB};

fn main() -> std::io::Result<()> {
    let cfg = ExperimentConfig::from_args();
    let window = 0.1;
    let mut table = Table::new(
        "Pareto vs exponential fits of disk idle intervals (KS distance)",
        vec![
            "intervals".into(),
            "mean_s".into(),
            "min_s".into(),
            "ks_runtime".into(),
            "ks_mle_min".into(),
            "ks_expo".into(),
        ],
    );

    for (arrivals, aname) in [
        (ArrivalModel::Poisson, "poisson"),
        (ArrivalModel::ParetoBursts { alpha: 1.4 }, "bursty1.4"),
        (ArrivalModel::ParetoBursts { alpha: 1.15 }, "bursty1.15"),
    ] {
        let trace = WorkloadBuilder::new()
            .data_set_bytes(16 * GIB)
            .rate_bytes_per_sec(20 * MIB)
            .popularity(0.1)
            .arrivals(arrivals)
            .page_bytes(cfg.scale.page_bytes)
            .duration_secs(cfg.duration_secs)
            .seed(cfg.seed)
            .build()
            .expect("workload generation");

        // Profile once; reconstruct the miss stream at each memory size.
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        for r in trace.records() {
            for page in r.page_range() {
                log.record(r.time, page, profiler.observe(page));
            }
        }
        for mem_gb in [4u64, 8, 16] {
            let capacity = cfg.scale.gb_to_pages(mem_gb);
            let miss_times: Vec<f64> = log.miss_times_at(capacity).collect();
            let idle = IdleIntervals::from_timestamps(&miss_times, window);
            let gaps = idle.as_slice();
            if gaps.len() < 30 {
                eprintln!("pareto_validation: {aname}/{mem_gb}GB skipped (too few intervals)");
                continue;
            }
            let mean = idle.mean().expect("nonempty");
            let min_gap = gaps.iter().copied().fold(f64::INFINITY, f64::min);
            let runtime_fit = fit::pareto_from_mean(mean, window).expect("valid fit");
            let mle_fit = fit::pareto_mle(gaps, min_gap * 0.999).expect("valid fit");
            let expo = Exponential::from_mean(mean, min_gap * 0.999).expect("valid fit");
            let ks_runtime = ks_statistic(gaps, |x| runtime_fit.cdf(x)).expect("nonempty");
            let ks_mle = ks_statistic(gaps, |x| mle_fit.cdf(x)).expect("nonempty");
            let ks_e = ks_statistic(gaps, |x| expo.cdf(x)).expect("nonempty");
            table.push(
                format!("{aname}/{mem_gb}GB"),
                vec![gaps.len() as f64, mean, min_gap, ks_runtime, ks_mle, ks_e],
            );
            eprintln!("pareto_validation: {aname}/{mem_gb}GB done");
        }
    }
    table.print();
    println!(
        "\nlower KS distance = better fit. Poisson synthetics are nearly \
         memoryless (exponential wins); burstier arrivals degrade the \
         exponential fit toward the heavy-tailed regime the paper's model \
         targets (measured NT/UNIX traces, refs. [20]/[21])."
    );
    write_json("pareto_validation", &table)
}
