//! `trace-ingest`: parse a JSON trace written during set-up with
//! `Trace::from_reader`, stream the records into a `.jpt` store with
//! `TraceWriter`, then read the store back with `TraceReader` and compare.
//! Only parse + write is timed; the read-back is the output check.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use jpmd_store::TraceReader;
use jpmd_trace::{Trace, TraceRecord, TraceSource, GIB, MIB};

use crate::replay::write_store;
use crate::sites::{time_builder, Site, SITE_SEED};
use crate::{
    halves, median, note_peak_rss, overhead_pct, run_for, set_throughput, setup_reps, throughput,
    Args, Metrics, Ops, Sample,
};

/// The paper's default point, cut short so the trace holds about 6,000
/// records.
const DATA_GB: u64 = 16;
const RATE_MB: u64 = 100;
const POPULARITY: f64 = 0.1;
const DURATION_SECS: f64 = 550.0;

fn write_json(path: &Path, trace: &Trace) -> Result<(), String> {
    let fail = |e: &dyn std::fmt::Display| format!("writing {}: {e}", path.display());
    let mut out = BufWriter::new(File::create(path).map_err(|e| fail(&e))?);
    trace.to_writer(&mut out).map_err(|e| fail(&e))?;
    out.flush().map_err(|e| fail(&e))
}

fn read_back(path: &Path) -> Result<(TraceReader<BufReader<File>>, Vec<TraceRecord>), String> {
    let mut reader = TraceReader::open(path).map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    while let Some(next) = reader.next_record() {
        records.push(next.map_err(|e| e.to_string())?);
    }
    Ok((reader, records))
}

/// Host seconds of one iteration's parse, store write and read-back.
struct Split {
    decode_s: f64,
    write_s: f64,
    read_s: f64,
}

pub fn run(args: &Args, dir: &Path, ops: &mut Ops) -> Result<Metrics, String> {
    let json = dir.join("ingest.json");
    let jpt = dir.join("ingest.jpt");
    let mut gen_s = Vec::new();
    let (trace, setup_s) = setup_reps(
        |_| {
            gen_s.push(time_builder(
                DATA_GB * GIB,
                MIB,
                POPULARITY,
                RATE_MB * MIB,
                DURATION_SECS,
                0.0,
                SITE_SEED,
            )?);
            let site = Site::new(DATA_GB * GIB, MIB, POPULARITY, SITE_SEED)?;
            let trace = site.trace(RATE_MB * MIB, DURATION_SECS, 0.0, args.seed);
            write_json(&json, &trace)?;
            Ok::<_, String>(trace)
        },
        drop,
    );
    let trace = trace?;
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_s, "s");
    metrics.set("trace.gen_s", median(&gen_s), "s");

    let mut splits = Vec::new();
    let iterate = |ops: &mut Ops, splits: &mut Vec<Split>| -> Option<Sample> {
        let start = Instant::now();
        let ingested = (|| {
            let file = File::open(&json).map_err(|e| e.to_string())?;
            let parsed = Trace::from_reader(BufReader::new(file)).map_err(|e| e.to_string())?;
            let decode_s = start.elapsed().as_secs_f64();
            write_store(&jpt, &parsed)?;
            Ok::<_, String>((parsed, decode_s))
        })();
        let secs = start.elapsed().as_secs_f64();
        let (parsed, decode_s) = match ingested {
            Ok(done) => done,
            Err(e) => {
                ops.check(false, || format!("ingest: {e}"));
                return None;
            }
        };
        let write_s = secs - decode_s;

        let start = Instant::now();
        let back = read_back(&jpt);
        let read_s = start.elapsed().as_secs_f64();
        ops.check(parsed == trace, || {
            "the parsed trace differs from the one written".into()
        });
        match back {
            Ok((reader, back)) => {
                let header = reader.header();
                ops.check(
                    header.page_bytes == parsed.page_bytes()
                        && header.total_pages == parsed.total_pages()
                        && back.len() == parsed.records().len(),
                    || format!("read back {} records under header {header:?}", back.len()),
                );
                for (i, record) in parsed.records().iter().enumerate() {
                    ops.check(back.get(i) == Some(record), || {
                        format!(
                            "record {i} read back as {:?}, written {record:?}",
                            back.get(i)
                        )
                    });
                }
            }
            Err(e) => ops.check(false, || format!("reading {} back: {e}", jpt.display())),
        }
        splits.push(Split {
            decode_s,
            write_s,
            read_s,
        });
        Some(Sample {
            records: parsed.records().len() as u64,
            accesses: parsed.total_pages_requested(),
            secs,
        })
    };

    let (untraced_s, traced_s) = halves(args);
    iterate(ops, &mut Vec::new()).ok_or("the warm-up iteration failed")?;
    note_peak_rss(&mut metrics);
    let samples = run_for(untraced_s, || {
        iterate(ops, &mut Vec::new()).map(|s| vec![s])
    });
    let records_per_s = set_throughput(&mut metrics, &samples);
    if args.trace {
        let traced = run_for(traced_s, || iterate(ops, &mut splits).map(|s| vec![s]));
        metrics.set(
            "trace_overhead_pct",
            overhead_pct(records_per_s, throughput(&traced).0),
            "%",
        );
        let column = |f: fn(&Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
        metrics.set("trace.json_decode_s", column(|s| s.decode_s), "s");
        metrics.set("store.write_s", column(|s| s.write_s), "s");
        metrics.set("store.decode_s", column(|s| s.read_s), "s");
        let records = trace.records().len() as f64;
        metrics.set("trace.json_records", records, "count");
        metrics.set("store.records", records, "count");
    }
    Ok(metrics)
}
