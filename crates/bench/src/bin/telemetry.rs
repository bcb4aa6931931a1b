//! Telemetry smoke: replays a small workload under the joint method with
//! a JSONL sink attached and writes the event stream to a file.
//!
//! This is the end-to-end check for the observability pipeline — engine
//! lifecycle events, per-period traffic summaries, and one
//! `PolicyDecision` per control period (fitted Pareto α/β, chosen
//! timeout, candidate power table) all land in one inspectable file.
//! Feed the output to `obs_tool summary` / `obs_tool timings`.
//!
//! Usage: `telemetry [OUT.jsonl]` (default `results/telemetry.jsonl`)

use jpmd_core::{methods, SimScale};
use jpmd_obs::{JsonlSink, Telemetry};
use jpmd_trace::{WorkloadBuilder, GIB, MIB};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/telemetry.jsonl".to_string());
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }

    let scale = SimScale::small_test();
    let duration = 1800.0;
    let period = 300.0;
    let trace = WorkloadBuilder::new()
        .data_set_bytes(GIB / 2)
        .rate_bytes_per_sec(4 * MIB)
        .page_bytes(scale.page_bytes)
        .duration_secs(duration)
        .seed(42)
        .build()?;

    let telemetry = Telemetry::new(Box::new(JsonlSink::create(&out)?));
    // One period of warm-up.
    let report = methods::simulation(&methods::joint(&scale), &scale, period, period, &telemetry)?
        .run(trace.source(), duration)?
        .into_report()
        .expect("no checkpoint policy was installed");
    telemetry.flush();

    println!(
        "telemetry: {} periods, {:.1} kJ total, events -> {}",
        report.periods.len(),
        report.energy.total_j() / 1e3,
        out
    );
    for span in &report.spans {
        println!(
            "  span {:<18} calls={:<4} total={:.3}s",
            span.name, span.calls, span.total_secs
        );
    }
    if report.periods.is_empty() {
        return Err("no control periods simulated".into());
    }
    Ok(())
}
