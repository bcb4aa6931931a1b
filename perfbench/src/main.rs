//! Seeded benchmark for the jpmd workspace.
//!
//! ```text
//! jpmd-perfbench --workload <paper-suite|joint-stream|serve-feed|trace-ingest|all>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed` during set-up, runs an
//! untimed warm-up, then repeats timed iterations for `--seconds` and
//! reports their times at a low percentile (see [`FAST_PERCENTILE`]).
//! With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` the run is split into an untraced
//! and a traced half, the traced iterations also drive isolation replays of
//! each layer, and the last line carries the per-layer metrics instead.
//! Every output check that fails is a failed operation, never a panic. See
//! `perfbench/README.md`.

mod ingest;
mod layers;
mod replay;
mod serve;
mod sites;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: every workload reports each of them from an
/// untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("records_per_s", "records/s"),
    ("accesses_per_s", "accesses/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics from the traced run. A layer the workload bypasses
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.gen_s", "s"),
    ("trace.json_decode_s", "s"),
    ("trace.json_records", "count"),
    ("store.write_s", "s"),
    ("store.decode_s", "s"),
    ("store.records", "count"),
    ("mem.cache_lookup_s", "s"),
    ("mem.profiler_s", "s"),
    ("mem.access_s", "s"),
    ("mem.ds_access_s", "s"),
    ("mem.accesses", "count"),
    ("mem.hit_ratio", "ratio"),
    ("mem.writebacks", "count"),
    ("disk.submit_s", "s"),
    ("disk.requests", "count"),
    ("disk.spin_ups", "count"),
    ("sim.replay_s", "s"),
    ("sim.events", "count"),
    ("sim.dispatch_s", "s"),
    ("sim.joint_energy_pct", "%"),
    ("sim.joint_long_latency_per_s", "1/s"),
    ("core.decide_s", "s"),
    ("core.decisions", "count"),
    ("core.candidates_mean", "count"),
    ("core.predict_s", "s"),
    ("core.infeasible_periods", "count"),
    ("core.stepper_feed_s", "s"),
    ("stats.fit_s", "s"),
    ("serve.parse_s", "s"),
    ("serve.feed_call_s", "s"),
    ("serve.backlog_max", "records"),
    ("serve.duplicates", "count"),
    ("serve.conn_dropped", "count"),
    ("serve.query_p50_ms", "ms"),
    ("serve.query_p99_ms", "ms"),
    ("obs.wal_bytes", "bytes"),
    ("obs.records_emitted", "count"),
    ("trace_overhead_pct", "%"),
];

const WORKLOADS: &[&str] = &["paper-suite", "joint-stream", "serve-feed", "trace-ingest"];

/// Fewest timed iterations a run reports, however long each one takes.
const MIN_SAMPLES: usize = 3;

/// Repeated host times are reported at this percentile, not the median.
/// Noise on a shared host only ever slows work down, and it comes in
/// bursts of seconds to minutes; across seeds the 10th percentile spread
/// about half as much as the median did on the machine the benchmark was
/// built on. With fewer than ten values it is the fastest one.
const FAST_PERCENTILE: f64 = 10.0;

/// Set-up runs at least [`SETUP_MIN_REPS`] times and until
/// [`SETUP_MIN_SECS`] have been spent in it, so a set-up of a few
/// milliseconds is measured hundreds of times.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECS: f64 = 0.5;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value '{value}' for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0)
                            .ok_or_else(bad)?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload '{workload}'"));
        }
        Ok(Args {
            workload,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Attempted and failed operations. An output check is one operation.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one checked operation; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Counts one failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("check failed: {}", what());
        }
    }
}

/// Named metric values with their units.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// Sets each metric of `runs` to its median across them.
    pub fn set_medians(&mut self, runs: &[Metrics]) {
        let Some(first) = runs.first() else { return };
        for (&name, &(_, unit)) in &first.0 {
            let values: Vec<f64> = runs.iter().filter_map(|m| m.get(name)).collect();
            self.set(name, median(&values), unit);
        }
    }
}

/// One timed part of an iteration (an iteration of `paper-suite` has one
/// part per method; the other workloads have one part): the work it did
/// and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub records: u64,
    pub accesses: u64,
    pub secs: f64,
}

/// Repeats `iterate` until `seconds` have passed and at least
/// [`MIN_SAMPLES`] iterations completed. An iteration that returns `None`
/// failed (its failure is already counted) and yields no samples.
pub fn run_for(seconds: f64, mut iterate: impl FnMut() -> Option<Vec<Sample>>) -> Vec<Vec<Sample>> {
    let start = Instant::now();
    let mut iterations = Vec::new();
    let mut tries = 0;
    while tries < MIN_SAMPLES || start.elapsed().as_secs_f64() < seconds {
        tries += 1;
        iterations.extend(iterate());
    }
    iterations
}

/// Runs set-up repeatedly (see [`SETUP_MIN_REPS`]), handing every result
/// but the last to `discard` (untimed), and returns the last result with
/// the [`fast`] set-up seconds.
pub fn setup_reps<T>(mut setup: impl FnMut(usize) -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut secs: Vec<f64> = Vec::new();
    let mut kept = None;
    while secs.len() < SETUP_MIN_REPS || secs.iter().sum::<f64>() < SETUP_MIN_SECS {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let start = Instant::now();
        kept = Some(setup(secs.len()));
        secs.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up ran"), fast(&secs))
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (0 for none).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Host time of repeated work at [`FAST_PERCENTILE`].
pub fn fast(secs: &[f64]) -> f64 {
    percentile(secs, FAST_PERCENTILE)
}

/// Records and page accesses per second: each part's median work over its
/// [`fast`] time, summed across parts. Taking each part on its own keeps a
/// burst of host noise during one method's replay out of the other parts.
pub fn throughput(iterations: &[Vec<Sample>]) -> (f64, f64) {
    let parts = iterations.iter().map(Vec::len).min().unwrap_or(0);
    let (mut records, mut accesses, mut secs) = (0.0, 0.0, 0.0);
    for part in 0..parts {
        let column = |f: fn(&Sample) -> f64| -> Vec<f64> {
            iterations.iter().map(|it| f(&it[part])).collect()
        };
        records += median(&column(|s| s.records as f64));
        accesses += median(&column(|s| s.accesses as f64));
        secs += fast(&column(|s| s.secs));
    }
    let secs = secs.max(f64::MIN_POSITIVE);
    (records / secs, accesses / secs)
}

/// Sets the end-to-end throughput metrics and returns records/s.
pub fn set_throughput(metrics: &mut Metrics, iterations: &[Vec<Sample>]) -> f64 {
    let rates: Vec<String> = iterations
        .iter()
        .map(|it| format!("{:.0}", throughput(std::slice::from_ref(it)).0))
        .collect();
    eprintln!("records/s per iteration: {}", rates.join(" "));
    let (records, accesses) = throughput(iterations);
    metrics.set("records_per_s", records, "records/s");
    metrics.set("accesses_per_s", accesses, "accesses/s");
    records
}

/// How much slower the traced run was than the untraced one, percent of
/// the untraced records/s.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    100.0 * (untraced - traced) / untraced.max(f64::MIN_POSITIVE)
}

/// Peak resident set size of this process, MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Sets `peak_rss_mb` to the peak RSS so far. Workloads call it after
/// set-up and the warm-up, so it covers a fixed amount of work whatever the
/// run length (the serve daemon's state grows with every record applied).
pub fn note_peak_rss(metrics: &mut Metrics) {
    if let Some(mb) = peak_rss_mb() {
        metrics.set("peak_rss_mb", mb, "MB");
    }
}

/// Splits a run's time between its untraced and traced halves.
pub fn halves(args: &Args) -> (f64, f64) {
    if args.trace {
        (args.seconds / 2.0, args.seconds / 2.0)
    } else {
        (args.seconds, 0.0)
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn new(args: &Args) -> std::io::Result<WorkDir> {
        let dir = Path::new(".bench_work").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` in place when another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn run_workload(args: &Args) -> Result<(Metrics, Ops), String> {
    let work = WorkDir::new(args).map_err(|e| format!("work directory: {e}"))?;
    let mut ops = Ops::default();
    let mut metrics = match args.workload.as_str() {
        "paper-suite" => replay::paper_suite(args, &mut ops),
        "joint-stream" => replay::joint_stream(args, work.path(), &mut ops),
        "serve-feed" => serve::run(args, work.path(), &mut ops),
        "trace-ingest" => ingest::run(args, work.path(), &mut ops),
        other => return Err(format!("unknown workload '{other}'")),
    }?;
    metrics.set(
        "failed_ops_pct",
        100.0 * ops.failed as f64 / ops.attempted.max(1) as f64,
        "%",
    );
    metrics.set("ops_attempted", ops.attempted as f64, "count");
    Ok((metrics, ops))
}

fn json_line(correct: bool, ops: &Ops, values: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    )
}

/// Prints every metric for a reader, then the result line.
fn report(args: &Args, metrics: &Metrics, ops: &Ops) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, (value, unit)) in &metrics.0 {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!("  failed/attempted {}/{}", ops.failed, ops.attempted);
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = ops.failed == 0 && ops.attempted > 0;
    let mut values = Vec::new();
    for &(name, unit) in wanted {
        // A layer this workload bypasses did no work: its time and counts
        // are zero. An end-to-end metric must always be measured.
        let value = match metrics.get(name) {
            Some(v) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        if !value.is_finite() {
            eprintln!("metric {name} is not finite: {value}");
            correct = false;
        }
        values.push((
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    }
    println!("{}", json_line(correct, ops, &values));
}

/// Runs every workload in turn, each in its own child process so that each
/// reports its own peak RSS. Fails if any workload fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{workload} exited with {status}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("{workload} did not start: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: jpmd-perfbench --workload <{}|all> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_workload(&args) {
        Ok((metrics, ops)) => {
            report(&args, &metrics, &ops);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
