//! Golden digests pin the `RunReport` of every method's replay.
//!
//! A digest is the CRC-32 of a report's `serde_json` text after
//! [`RunReport::zero_wall_clock`]. The table covers the 16 paper methods
//! plus cascade on three workloads and two seeds, consolidated disable on
//! the period-edge workload, and three joint multi-disk runs. A change meant
//! to keep behaviour keeps every digest. A change meant to alter it pastes
//! the regenerated table that a failing run prints.
//!
//! Runs whose measured window is a whole number of periods (all of W1,
//! and the joint array runs) also check that their post-warm-up period
//! rows add up to the report's totals.
//!
//! The digests were computed on x86_64 Linux. The reports hold f64 results
//! that depend on that platform's libm.

use std::collections::BTreeMap;

use jpmd::core::{methods, DiskPolicyKind, JointConfig, JointPolicy, MethodSpec, SimScale};
use jpmd::disk::{Layout, SpinDownPolicy};
use jpmd::mem::IdlePolicy;
use jpmd::sim::{ArrayConfig, RunReport, Simulation};
use jpmd::store::crc32;
use jpmd::trace::{Trace, WorkloadBuilder, GIB, MIB};

struct Workload {
    name: &'static str,
    data_gb: u64,
    rate_mib: u64,
    popularity: f64,
    write_fraction: f64,
    warmup: f64,
    duration: f64,
    period: f64,
}

const WORKLOADS: [Workload; 3] = [
    // The paper's default point: read-only.
    Workload {
        name: "w1",
        data_gb: 4,
        rate_mib: 10,
        popularity: 0.1,
        write_fraction: 0.0,
        warmup: 900.0,
        duration: 2700.0,
        period: 300.0,
    },
    // Writes, through the write-back paths.
    Workload {
        name: "w2",
        data_gb: 8,
        rate_mib: 20,
        popularity: 0.6,
        write_fraction: 0.3,
        warmup: 600.0,
        duration: 2000.0,
        period: 120.0,
    },
    // Period edges: warm-up is one period and the trace ends mid-period.
    Workload {
        name: "w3",
        data_gb: 2,
        rate_mib: 5,
        popularity: 0.2,
        write_fraction: 0.1,
        warmup: 300.0,
        duration: 1750.0,
        period: 300.0,
    },
];

const SEEDS: [u64; 2] = [1, 2];

/// `(label, workload, seed, digest)`.
type Case = (String, &'static str, u64, u32);

#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, u32)] = &[
    ("Always-on", "w1", 1, 0xddeb3e5e),
    ("2TFM-1GB", "w1", 1, 0x6c0475cb),
    ("2TFM-2GB", "w1", 1, 0x2d604e88),
    ("2TFM-4GB", "w1", 1, 0xcd5755c7),
    ("2TFM-8GB", "w1", 1, 0x9adba135),
    ("2TFM-16GB", "w1", 1, 0x3b081474),
    ("ADFM-1GB", "w1", 1, 0xe1b57928),
    ("ADFM-2GB", "w1", 1, 0xf02f97d6),
    ("ADFM-4GB", "w1", 1, 0xb0655620),
    ("ADFM-8GB", "w1", 1, 0x3fa4ca8b),
    ("ADFM-16GB", "w1", 1, 0xc1a8abe3),
    ("2TPD-16GB", "w1", 1, 0x63b64415),
    ("2TDS-16GB", "w1", 1, 0x21950bb2),
    ("ADPD-16GB", "w1", 1, 0xcc67b8d1),
    ("ADDS-16GB", "w1", 1, 0x85444dae),
    ("Joint", "w1", 1, 0x9fd210a8),
    ("2TCD-16GB", "w1", 1, 0x4dcc299b),
    ("ADCD-16GB", "w1", 1, 0x20e0ab22),
    ("Always-on", "w1", 2, 0x624b855d),
    ("2TFM-1GB", "w1", 2, 0x3685a037),
    ("2TFM-2GB", "w1", 2, 0x05579bc0),
    ("2TFM-4GB", "w1", 2, 0x76a92026),
    ("2TFM-8GB", "w1", 2, 0x8292d17d),
    ("2TFM-16GB", "w1", 2, 0x5d4129a0),
    ("ADFM-1GB", "w1", 2, 0x342e71b3),
    ("ADFM-2GB", "w1", 2, 0x8f706b69),
    ("ADFM-4GB", "w1", 2, 0xef9c098a),
    ("ADFM-8GB", "w1", 2, 0x865514a7),
    ("ADFM-16GB", "w1", 2, 0xaa5f4386),
    ("2TPD-16GB", "w1", 2, 0xc4374e28),
    ("2TDS-16GB", "w1", 2, 0x8f18bbf4),
    ("ADPD-16GB", "w1", 2, 0x0bb85015),
    ("ADDS-16GB", "w1", 2, 0xe3f55f94),
    ("Joint", "w1", 2, 0xd75ab0b0),
    ("2TCD-16GB", "w1", 2, 0xe7019eb0),
    ("ADCD-16GB", "w1", 2, 0x1a6b53e5),
    ("Always-on", "w2", 1, 0xec9aa389),
    ("2TFM-1GB", "w2", 1, 0xeea5444d),
    ("2TFM-2GB", "w2", 1, 0x67f58c7d),
    ("2TFM-4GB", "w2", 1, 0x7a6c1450),
    ("2TFM-8GB", "w2", 1, 0xeef129bb),
    ("2TFM-16GB", "w2", 1, 0xaaf9e48b),
    ("ADFM-1GB", "w2", 1, 0xc6b9f164),
    ("ADFM-2GB", "w2", 1, 0xecde993c),
    ("ADFM-4GB", "w2", 1, 0x72365d26),
    ("ADFM-8GB", "w2", 1, 0x7869f208),
    ("ADFM-16GB", "w2", 1, 0xbc0a6e7c),
    ("2TPD-16GB", "w2", 1, 0x06c4023a),
    ("2TDS-16GB", "w2", 1, 0xe29eb9c3),
    ("ADPD-16GB", "w2", 1, 0x544c7fa5),
    ("ADDS-16GB", "w2", 1, 0x65108df1),
    ("Joint", "w2", 1, 0x616a5ca7),
    ("2TCD-16GB", "w2", 1, 0xe344ad89),
    ("ADCD-16GB", "w2", 1, 0x91b90873),
    ("Always-on", "w2", 2, 0x337d893c),
    ("2TFM-1GB", "w2", 2, 0xe77c099d),
    ("2TFM-2GB", "w2", 2, 0xbab89ba7),
    ("2TFM-4GB", "w2", 2, 0x0796ec94),
    ("2TFM-8GB", "w2", 2, 0xcaee14ef),
    ("2TFM-16GB", "w2", 2, 0x65ad1b06),
    ("ADFM-1GB", "w2", 2, 0x87e44538),
    ("ADFM-2GB", "w2", 2, 0xda20c8df),
    ("ADFM-4GB", "w2", 2, 0xe2e639a4),
    ("ADFM-8GB", "w2", 2, 0xdbb398a8),
    ("ADFM-16GB", "w2", 2, 0xb1a4cdc4),
    ("2TPD-16GB", "w2", 2, 0x23478076),
    ("2TDS-16GB", "w2", 2, 0x785dbf08),
    ("ADPD-16GB", "w2", 2, 0x3faa096d),
    ("ADDS-16GB", "w2", 2, 0x4e9f1044),
    ("Joint", "w2", 2, 0x00176441),
    ("2TCD-16GB", "w2", 2, 0xac0b2bda),
    ("ADCD-16GB", "w2", 2, 0x7aca28db),
    ("Always-on", "w3", 1, 0xfcec09a6),
    ("2TFM-1GB", "w3", 1, 0x804496ad),
    ("2TFM-2GB", "w3", 1, 0x5bf54251),
    ("2TFM-4GB", "w3", 1, 0x1f71979b),
    ("2TFM-8GB", "w3", 1, 0xfe1ad917),
    ("2TFM-16GB", "w3", 1, 0x296dc6e7),
    ("ADFM-1GB", "w3", 1, 0x3f665346),
    ("ADFM-2GB", "w3", 1, 0xdc7581a0),
    ("ADFM-4GB", "w3", 1, 0x9dc45256),
    ("ADFM-8GB", "w3", 1, 0xd4084fe6),
    ("ADFM-16GB", "w3", 1, 0xa8cd88f8),
    ("2TPD-16GB", "w3", 1, 0x1420f9b8),
    ("2TDS-16GB", "w3", 1, 0xbfe75d64),
    ("ADPD-16GB", "w3", 1, 0xb384af63),
    ("ADDS-16GB", "w3", 1, 0xf47a0c3b),
    ("Joint", "w3", 1, 0xb5f9ad0f),
    ("2TCD-16GB", "w3", 1, 0x97398f11),
    ("2TDSC-16GB", "w3", 1, 0xb6cc54b3),
    ("ADCD-16GB", "w3", 1, 0x6232df79),
    ("ADDSC-16GB", "w3", 1, 0xb3271360),
    ("Always-on", "w3", 2, 0xcab7e567),
    ("2TFM-1GB", "w3", 2, 0xc3cd0baf),
    ("2TFM-2GB", "w3", 2, 0x8901887b),
    ("2TFM-4GB", "w3", 2, 0x2952d3c6),
    ("2TFM-8GB", "w3", 2, 0x7de60838),
    ("2TFM-16GB", "w3", 2, 0x56810b1e),
    ("ADFM-1GB", "w3", 2, 0x82507246),
    ("ADFM-2GB", "w3", 2, 0x5255a04b),
    ("ADFM-4GB", "w3", 2, 0x98807c1f),
    ("ADFM-8GB", "w3", 2, 0x57f45820),
    ("ADFM-16GB", "w3", 2, 0x54edd6a5),
    ("2TPD-16GB", "w3", 2, 0xf3308322),
    ("2TDS-16GB", "w3", 2, 0xbce2d7e0),
    ("ADPD-16GB", "w3", 2, 0x926e30a9),
    ("ADDS-16GB", "w3", 2, 0xee66c010),
    ("Joint", "w3", 2, 0x8fd1c24d),
    ("2TCD-16GB", "w3", 2, 0xd833ea4a),
    ("2TDSC-16GB", "w3", 2, 0xc60b48d7),
    ("ADCD-16GB", "w3", 2, 0x3cbc806b),
    ("ADDSC-16GB", "w3", 2, 0xfa8d7171),
    ("joint-array", "multi-disk", 7, 0x536d4228),
    ("joint-array", "multi-disk-striped16", 7, 0xeacd3403),
    ("joint-array", "multi-disk-2disks", 7, 0xc48bee98),
];

/// The joint array runs on the multi-disk workload, told apart by the
/// workload column: `(workload, disks, layout)`. "multi-disk" is the run
/// of `tests/multi_disk.rs`; the other two change its layout or its
/// member count.
const ARRAYS: [(&str, usize, Layout); 3] = [
    ("multi-disk", 4, Layout::Partitioned),
    (
        "multi-disk-striped16",
        4,
        Layout::Striped { stripe_pages: 16 },
    ),
    ("multi-disk-2disks", 2, Layout::Partitioned),
];

fn scale() -> SimScale {
    SimScale {
        total_gb: 16,
        ..SimScale::default()
    }
}

fn digest(mut report: RunReport) -> u32 {
    report.zero_wall_clock();
    let json = serde_json::to_string(&report).expect("RunReport serializes");
    crc32(json.as_bytes())
}

fn specs(scale: &SimScale, workload: &Workload) -> Vec<MethodSpec> {
    let mut specs = methods::paper_suite(scale, &[1, 2, 4, 8, 16]);
    for kind in [DiskPolicyKind::TwoCompetitive, DiskPolicyKind::Adaptive] {
        specs.push(methods::cascade(scale, kind));
        // Consolidated disable takes seconds per debug run on W1 and W2.
        if workload.name == "w3" {
            specs.push(methods::disable_consolidated(scale, kind));
        }
    }
    specs
}

fn trace(workload: &Workload, seed: u64) -> Trace {
    WorkloadBuilder::new()
        .data_set_bytes(workload.data_gb * GIB)
        .rate_bytes_per_sec(workload.rate_mib * MIB)
        .popularity(workload.popularity)
        .write_fraction(workload.write_fraction)
        .duration_secs(workload.duration)
        .seed(seed)
        .build()
        .expect("workload generation")
}

/// The joint array runs of [`ARRAYS`], on one trace.
fn joint_arrays() -> Vec<Case> {
    const DURATION: f64 = 2700.0;
    let trace = WorkloadBuilder::new()
        .data_set_bytes(4 * GIB)
        .rate_bytes_per_sec(40 * MIB)
        .popularity(0.1)
        .duration_secs(DURATION)
        .seed(7)
        .build()
        .expect("workload generation");
    let scale = scale();
    let mut sim = scale.sim_config(IdlePolicy::Nap, scale.total_banks());
    sim.warmup_secs = 900.0;
    sim.period_secs = 300.0;
    ARRAYS
        .iter()
        .map(|&(workload, disks, layout)| {
            sim.array = ArrayConfig { disks, layout };
            let report = Simulation::new(
                &sim,
                SpinDownPolicy::controlled(f64::INFINITY),
                JointPolicy::new(JointConfig::from_sim(&sim)),
                "joint-array",
            )
            .run(trace.source(), DURATION)
            .expect("in-memory trace sources cannot fail")
            .into_report()
            .expect("no checkpoint policy was installed");
            check_period_sums(&report, sim.warmup_secs);
            ("joint-array".to_string(), workload, 7, digest(report))
        })
        .collect()
}

/// The post-warm-up period rows of `report` must add up to its totals:
/// delayed accesses to the long-latency count, cache accesses to the
/// report's, and period energy to the measured energy. Only meaningful
/// when the measured window is a whole number of periods — no row covers
/// a trailing partial period.
fn check_period_sums(report: &RunReport, warmup: f64) {
    let rows: Vec<_> = report
        .periods
        .iter()
        .map(|row| &row.observation)
        .filter(|obs| obs.start >= warmup)
        .collect();
    assert!(
        !rows.is_empty(),
        "{}: no measured period rows",
        report.label
    );
    let delayed: u64 = rows.iter().map(|obs| obs.delayed_page_accesses).sum();
    assert_eq!(
        delayed, report.long_latency_count,
        "{}: period delayed accesses",
        report.label
    );
    let accesses: u64 = rows.iter().map(|obs| obs.cache_accesses).sum();
    assert_eq!(
        accesses, report.cache_accesses,
        "{}: period cache accesses",
        report.label
    );
    let energy: f64 = rows.iter().map(|obs| obs.energy_total_j).sum();
    let total = report.energy.total_j();
    assert!(
        (energy - total).abs() <= 1e-9 * total.abs(),
        "{}: period energy {energy} J vs report {total} J",
        report.label
    );
}

fn replay(scale: &SimScale, workload: &'static Workload, seed: u64) -> Vec<Case> {
    let trace = trace(workload, seed);
    specs(scale, workload)
        .into_iter()
        .map(|spec| {
            let report = methods::run_method(
                &spec,
                scale,
                &trace,
                workload.warmup,
                workload.duration,
                workload.period,
            );
            if workload.name == "w1" {
                check_period_sums(&report, workload.warmup);
            }
            (spec.label, workload.name, seed, digest(report))
        })
        .collect()
}

/// Every case, in table order. One thread per workload and seed keeps
/// the debug build's run short.
fn compute() -> Vec<Case> {
    let scale = scale();
    std::thread::scope(|s| {
        let scale = &scale;
        let jobs: Vec<_> = WORKLOADS
            .iter()
            .flat_map(|workload| SEEDS.map(|seed| (workload, seed)))
            .map(|(workload, seed)| s.spawn(move || replay(scale, workload, seed)))
            .collect();
        let arrays = s.spawn(joint_arrays);
        let mut cases: Vec<Case> = jobs
            .into_iter()
            .flat_map(|job| job.join().expect("replay thread"))
            .collect();
        cases.extend(arrays.join().expect("array thread"));
        cases
    })
}

#[test]
fn every_replay_matches_its_golden_digest() {
    let cases = compute();
    let golden: BTreeMap<(&str, &str, u64), u32> = GOLDEN
        .iter()
        .map(|&(label, workload, seed, digest)| ((label, workload, seed), digest))
        .collect();
    let mut changed = Vec::new();
    for (label, workload, seed, digest) in &cases {
        let old = golden.get(&(label.as_str(), *workload, *seed));
        if old != Some(digest) {
            let old = old.map_or("missing".to_string(), |d| format!("{d:#010x}"));
            changed.push(format!("{label}/{workload}/{seed}: {old} → {digest:#010x}"));
        }
    }
    for &(label, workload, seed) in golden.keys() {
        if !cases
            .iter()
            .any(|(l, w, s, _)| (l.as_str(), *w, *s) == (label, workload, seed))
        {
            changed.push(format!("{label}/{workload}/{seed}: no longer run"));
        }
    }
    if !changed.is_empty() {
        let table: String = cases
            .iter()
            .map(|(label, workload, seed, digest)| {
                format!("    ({label:?}, {workload:?}, {seed}, {digest:#010x}),\n")
            })
            .collect();
        panic!(
            "{} of {} golden digests changed:\n{}\n\nRegenerated table:\n{table}",
            changed.len(),
            cases.len().max(golden.len()),
            changed.join("\n"),
        );
    }
}
