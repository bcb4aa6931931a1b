//! The two replay workloads.
//!
//! * `paper-suite`: all 16 methods of the paper's comparison (fig. 7), one
//!   after another on one thread, over an in-memory trace at the paper's
//!   default point. Per-page work in the memory and disk models dominates.
//! * `joint-stream`: the joint method alone, streamed from a `.jpt` store
//!   written during set-up, on a trace with 30 % writes and 60-s periods,
//!   so the per-period decision and store decoding carry real weight.

use std::path::Path;
use std::time::Instant;

use jpmd_core::methods::{self, MethodSpec};
use jpmd_core::SimScale;
use jpmd_sim::RunReport;
use jpmd_store::{TraceReader, TraceWriter};
use jpmd_trace::{SourceError, Trace, TraceRecord, TraceSource, GIB, MIB};

use crate::layers::{isolate, LayerTotals, Method};
use crate::sites::{time_builder, Site, SITE_SEED};
use crate::{
    halves, median, note_peak_rss, overhead_pct, run_for, set_throughput, setup_reps, throughput,
    Args, Metrics, Ops, Sample,
};

/// The paper's fixed-memory sizes, GiB.
const FM_SIZES_GB: [u64; 5] = [8, 16, 32, 64, 128];

/// A replay workload's trace and simulated timing.
struct Params {
    data_gb: u64,
    rate_mb: u64,
    popularity: f64,
    write_fraction: f64,
    warmup_secs: f64,
    duration_secs: f64,
    period_secs: f64,
}

const PAPER_SUITE: Params = Params {
    data_gb: 16,
    rate_mb: 100,
    popularity: 0.1,
    write_fraction: 0.0,
    warmup_secs: 3600.0,
    duration_secs: 3.0 * 3600.0,
    period_secs: 600.0,
};

const JOINT_STREAM: Params = Params {
    data_gb: 64,
    rate_mb: 100,
    popularity: 0.6,
    write_fraction: 0.3,
    warmup_secs: 3600.0,
    duration_secs: 13.0 * 3600.0,
    period_secs: 60.0,
};

impl Params {
    fn trace(&self, scale: &SimScale, seed: u64) -> Result<Trace, String> {
        let site = Site::new(
            self.data_gb * GIB,
            scale.page_bytes,
            self.popularity,
            SITE_SEED,
        )?;
        Ok(site.trace(
            self.rate_mb * MIB,
            self.duration_secs,
            self.write_fraction,
            seed,
        ))
    }

    /// Host seconds the trace layer's `WorkloadBuilder` takes for the same
    /// site and parameters (`trace.gen_s`).
    fn time_builder(&self, scale: &SimScale) -> Result<f64, String> {
        time_builder(
            self.data_gb * GIB,
            scale.page_bytes,
            self.popularity,
            self.rate_mb * MIB,
            self.duration_secs,
            self.write_fraction,
            SITE_SEED,
        )
    }

    fn run<S: TraceSource>(
        &self,
        spec: &MethodSpec,
        scale: &SimScale,
        source: S,
    ) -> Result<RunReport, SourceError> {
        methods::run_method_source(
            spec,
            scale,
            source,
            self.warmup_secs,
            self.duration_secs,
            self.period_secs,
        )
    }

    fn method<'a>(&self, spec: &MethodSpec, scale: &SimScale, report: &'a RunReport) -> Method<'a> {
        Method::new(
            spec,
            scale,
            self.warmup_secs,
            self.period_secs,
            &report.periods,
        )
    }

    /// The records the engine replays: those before the run's end.
    fn replayed<'t>(&self, trace: &'t Trace) -> &'t [TraceRecord] {
        let end = trace
            .records()
            .partition_point(|r| r.time < self.duration_secs);
        &trace.records()[..end]
    }
}

/// Records per timed part of a streamed replay.
const CHUNK_RECORDS: u64 = 4096;

/// Wraps the store reader of a streamed replay. It closes a timed part
/// ([`Sample`]) every [`CHUNK_RECORDS`] records — one clock read per chunk
/// — so a burst of host noise stays inside a few parts, which the per-part
/// medians then drop; when traced it also times every `next_record` call.
struct ChunkedSource<S> {
    inner: S,
    traced: bool,
    decode_s: f64,
    decoded: u64,
    chunk_start: Instant,
    chunk: Sample,
    parts: Vec<Sample>,
}

impl<S: TraceSource> ChunkedSource<S> {
    fn new(inner: S, traced: bool, start: Instant) -> Self {
        ChunkedSource {
            inner,
            traced,
            decode_s: 0.0,
            decoded: 0,
            chunk_start: start,
            chunk: Sample {
                records: 0,
                accesses: 0,
                secs: 0.0,
            },
            parts: Vec::new(),
        }
    }

    fn close_chunk(&mut self) {
        let now = Instant::now();
        self.chunk.secs = (now - self.chunk_start).as_secs_f64();
        self.parts.push(self.chunk);
        self.chunk = Sample {
            records: 0,
            accesses: 0,
            secs: 0.0,
        };
        self.chunk_start = now;
    }

    /// The timed parts, the last one running to now (the run's close).
    fn finish(mut self) -> (Vec<Sample>, f64, u64) {
        self.close_chunk();
        (self.parts, self.decode_s, self.decoded)
    }
}

impl<S: TraceSource> TraceSource for ChunkedSource<S> {
    fn page_bytes(&self) -> u64 {
        self.inner.page_bytes()
    }

    fn total_pages(&self) -> u64 {
        self.inner.total_pages()
    }

    fn next_record(&mut self) -> Option<Result<TraceRecord, SourceError>> {
        let start = self.traced.then(Instant::now);
        let next = self.inner.next_record();
        if let Some(start) = start {
            self.decode_s += start.elapsed().as_secs_f64();
        }
        if let Some(Ok(record)) = &next {
            self.decoded += 1;
            self.chunk.records += 1;
            self.chunk.accesses += record.pages;
            if self.chunk.records == CHUNK_RECORDS {
                self.close_chunk();
            }
        }
        next
    }
}

/// Checks one replay's report: the window's energy, metered once for the
/// whole window, is positive and matches the sum of the energies the
/// period rows after the warm-up metered one period at a time; and every
/// cache access is a hit or a disk page. Writes break the second identity
/// (write-allocate misses read nothing, write-backs add disk pages), so a
/// trace with writes only checks that hits fit in accesses.
fn check_report(ops: &mut Ops, report: &RunReport, read_only: bool, warmup_secs: f64) {
    let total = report.energy.total_j();
    let periods: f64 = report
        .periods
        .iter()
        .filter(|row| row.observation.start >= warmup_secs)
        .map(|row| row.observation.energy_total_j)
        .sum();
    ops.check(
        total > 0.0 && (total - periods).abs() <= 1e-9 * total,
        || {
            format!(
                "{}: window energy {total} J, sum of its periods {periods} J",
                report.label
            )
        },
    );
    let accesses_ok = if read_only {
        report.cache_accesses == report.hits + report.disk_page_accesses
    } else {
        report.hits <= report.cache_accesses
    };
    ops.check(accesses_ok, || {
        format!(
            "{}: {} cache accesses against {} hits and {} disk pages",
            report.label, report.cache_accesses, report.hits, report.disk_page_accesses
        )
    });
}

fn span_secs(reports: &[RunReport], name: &str) -> f64 {
    reports
        .iter()
        .flat_map(|r| &r.spans)
        .filter(|s| s.name == name)
        .map(|s| s.total_secs)
        .sum()
}

fn find<'r>(reports: &'r [RunReport], label: &str) -> Option<&'r RunReport> {
    reports.iter().find(|r| r.label == label)
}

/// The simulated results that must repeat exactly for one seed: Joint's
/// energy as a percentage of Always-on's (when both ran) and Joint's
/// long-latency requests per second.
fn simulated(reports: &[RunReport]) -> (Option<f64>, Option<f64>) {
    let joint = find(reports, "Joint");
    let energy = joint
        .zip(find(reports, "Always-on"))
        .map(|(j, base)| 100.0 * j.normalized_total(base));
    (energy, joint.map(RunReport::long_latency_per_sec))
}

/// What one replay iteration produced: one timed sample and one report
/// per method replayed.
struct Iteration {
    samples: Vec<Sample>,
    reports: Vec<RunReport>,
    /// Host seconds inside the store reader (traced iterations only).
    decode_s: f64,
    decoded: u64,
}

/// Warm-up, the untraced timed half and, with `--trace 1`, the traced
/// half, in which each replay iteration is followed by the isolation
/// replays `layers` runs on its reports; every per-layer metric is the
/// median over the traced iterations, so the engine's self time subtracts
/// layer times measured next to the replay it is taken from. Returns the
/// last traced iteration's reports.
fn drive(
    args: &Args,
    metrics: &mut Metrics,
    ops: &mut Ops,
    mut iterate: impl FnMut(&mut Ops, bool) -> Option<Iteration>,
    mut layers: impl FnMut(&[RunReport], &mut Ops) -> LayerTotals,
) -> Result<Option<Vec<RunReport>>, String> {
    let (untraced_s, traced_s) = halves(args);
    let warm = iterate(ops, false).ok_or("the warm-up iteration failed")?;
    note_peak_rss(metrics);
    let reference = simulated(&warm.reports);
    if let (Some(energy), _) = reference {
        metrics.set("joint_energy_pct", energy, "%");
    }
    if let (_, Some(long)) = reference {
        metrics.set("joint_long_latency_per_s", long, "1/s");
    }
    let samples = run_for(untraced_s, || {
        let it = iterate(ops, false)?;
        ops.check(simulated(&it.reports) == reference, || {
            format!(
                "simulated results drifted within one seed: {:?}",
                simulated(&it.reports)
            )
        });
        Some(it.samples)
    });
    let records_per_s = set_throughput(metrics, &samples);
    if !args.trace {
        return Ok(None);
    }

    let mut per_iteration = Vec::new();
    let mut last = None;
    let traced = run_for(traced_s, || {
        let it = iterate(ops, true)?;
        let events: u64 = it.reports.iter().map(|r| r.engine.events_processed).sum();
        let mut m = Metrics::default();
        m.set("sim.replay_s", span_secs(&it.reports, "engine.replay"), "s");
        m.set(
            "core.decide_s",
            span_secs(&it.reports, "controller.decide"),
            "s",
        );
        m.set("sim.events", events as f64, "count");
        m.set("store.decode_s", it.decode_s, "s");
        m.set("store.records", it.decoded as f64, "count");
        publish_layers(&mut m, &layers(&it.reports, ops));
        per_iteration.push(m);
        last = Some(it.reports);
        Some(it.samples)
    });
    metrics.set(
        "trace_overhead_pct",
        overhead_pct(records_per_s, throughput(&traced).0),
        "%",
    );
    metrics.set_medians(&per_iteration);
    Ok(last)
}

/// Publishes the isolated layer times and the engine's self time: the
/// replay span minus the memory, disk, decision and store time inside it.
fn publish_layers(metrics: &mut Metrics, totals: &LayerTotals) {
    totals.publish(metrics);
    let inside = totals.access_s
        + totals.submit_s
        + metrics.get("core.decide_s").unwrap_or(0.0)
        + metrics.get("store.decode_s").unwrap_or(0.0);
    let replay = metrics.get("sim.replay_s").unwrap_or(0.0);
    metrics.set("sim.dispatch_s", replay - inside, "s");
}

fn publish_simulated(metrics: &mut Metrics, reports: &[RunReport]) {
    let (energy, long) = simulated(reports);
    metrics.set("sim.joint_energy_pct", energy.unwrap_or(0.0), "%");
    metrics.set("sim.joint_long_latency_per_s", long.unwrap_or(0.0), "1/s");
}

pub fn paper_suite(args: &Args, ops: &mut Ops) -> Result<Metrics, String> {
    let p = &PAPER_SUITE;
    let scale = SimScale::default();
    let suite = methods::paper_suite(&scale, &FM_SIZES_GB);
    let mut gen_s = Vec::new();
    let (trace, setup_s) = setup_reps(
        |_| {
            gen_s.push(p.time_builder(&scale)?);
            p.trace(&scale, args.seed)
        },
        drop,
    );
    let trace = trace?;
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_s, "s");
    metrics.set("trace.gen_s", median(&gen_s), "s");

    let iterate = |ops: &mut Ops, _traced: bool| {
        let mut samples = Vec::new();
        let mut reports = Vec::new();
        for spec in &suite {
            let start = Instant::now();
            let report = p
                .run(spec, &scale, trace.source())
                .expect("in-memory trace sources cannot fail");
            samples.push(Sample {
                records: report.engine.records_pulled,
                accesses: report.engine.counts.accesses,
                secs: start.elapsed().as_secs_f64(),
            });
            check_report(ops, &report, true, p.warmup_secs);
            reports.push(report);
        }
        Some(Iteration {
            samples,
            reports,
            decode_s: 0.0,
            decoded: 0,
        })
    };
    let layers = |reports: &[RunReport], ops: &mut Ops| {
        let mut totals = LayerTotals::default();
        for (spec, report) in suite.iter().zip(reports) {
            let method = p.method(spec, &scale, report);
            totals += isolate(p.replayed(&trace), trace.total_pages(), &method, ops);
        }
        totals
    };
    let last = drive(args, &mut metrics, ops, iterate, layers)?;

    if let Some(reports) = last {
        publish_simulated(&mut metrics, &reports);
    }
    Ok(metrics)
}

/// Streams `trace` into a `.jpt` store at `path`.
pub fn write_store(path: &Path, trace: &Trace) -> Result<(), String> {
    let fail = |e: jpmd_store::StoreError| format!("writing {}: {e}", path.display());
    let mut writer =
        TraceWriter::create(path, trace.page_bytes(), trace.total_pages()).map_err(fail)?;
    for record in trace.records() {
        writer.write_record(record).map_err(fail)?;
    }
    writer.finish().map_err(fail)?;
    Ok(())
}

pub fn joint_stream(args: &Args, dir: &Path, ops: &mut Ops) -> Result<Metrics, String> {
    let p = &JOINT_STREAM;
    let scale = SimScale::default();
    let joint = methods::joint(&scale);
    let path = dir.join("joint-stream.jpt");
    let (mut gen_s, mut write_s) = (Vec::new(), Vec::new());
    let (trace, setup_s) = setup_reps(
        |_| {
            gen_s.push(p.time_builder(&scale)?);
            let trace = p.trace(&scale, args.seed)?;
            let start = Instant::now();
            write_store(&path, &trace)?;
            write_s.push(start.elapsed().as_secs_f64());
            Ok::<_, String>(trace)
        },
        drop,
    );
    let trace = trace?;
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_s, "s");
    metrics.set("trace.gen_s", median(&gen_s), "s");
    metrics.set("store.write_s", median(&write_s), "s");

    let iterate = |ops: &mut Ops, traced: bool| {
        let start = Instant::now();
        let mut source = match TraceReader::open(&path) {
            Ok(reader) => ChunkedSource::new(reader, traced, start),
            Err(e) => {
                ops.check(false, || format!("opening {}: {e}", path.display()));
                return None;
            }
        };
        let result = p.run(&joint, &scale, &mut source);
        let (samples, decode_s, decoded) = source.finish();
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                ops.check(false, || format!("streamed replay: {e}"));
                return None;
            }
        };
        check_report(ops, &report, false, p.warmup_secs);
        Some(Iteration {
            samples,
            reports: vec![report],
            decode_s,
            decoded,
        })
    };
    let layers = |reports: &[RunReport], ops: &mut Ops| {
        let method = p.method(&joint, &scale, &reports[0]);
        isolate(p.replayed(&trace), trace.total_pages(), &method, ops)
    };
    let last = drive(args, &mut metrics, ops, iterate, layers)?;

    if let Some(mut reports) = last {
        // Streaming must not change a single simulated number.
        let in_memory = p
            .run(&joint, &scale, trace.source())
            .expect("in-memory trace sources cannot fail");
        ops.check(in_memory == reports[0], || {
            "the Joint report streamed from .jpt differs from the in-memory one".into()
        });
        match TraceReader::open(&path)
            .map_err(|e| e.to_string())
            .and_then(|reader| {
                p.run(&methods::always_on(&scale), &scale, reader)
                    .map_err(|e| e.to_string())
            }) {
            Ok(baseline) => {
                check_report(ops, &baseline, false, p.warmup_secs);
                reports.push(baseline);
            }
            Err(e) => ops.check(false, || format!("Always-on baseline replay: {e}")),
        }
        publish_simulated(&mut metrics, &reports);
    }
    Ok(metrics)
}
