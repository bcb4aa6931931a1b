//! Integration of the multi-disk extension: arrays built through the one
//! `Simulation` builder, layouts, and the joint policy deciding per member
//! disk, at a fast test scale.

use jpmd::core::{methods, DiskPolicyKind, JointConfig, JointPolicy, SimScale};
use jpmd::disk::{Layout, SpinDownPolicy};
use jpmd::mem::{AccessLog, IdlePolicy, MemConfig, RdramModel};
use jpmd::sim::{
    ArrayConfig, CheckpointOptions, CheckpointPolicy, ControlAction, MemorySink, NullController,
    PeriodController, PeriodObservation, RunReport, SimCheckpoint, SimConfig, SimOutcome,
    Simulation, Telemetry,
};
use jpmd::store::crc32;
use jpmd::trace::{AccessKind, FileId, Trace, TraceRecord, WorkloadBuilder, GIB, MIB};
use jpmd_obs::ObsEvent;

const DURATION: f64 = 2700.0;
const WARMUP: f64 = 900.0;

/// A 16 GiB installed-memory scale: large enough that memory static power
/// is a real cost the joint policy can harvest (at the 4 GiB `small_test`
/// scale, full-memory 2T legitimately wins — the paper's own "memory
/// equals data set" caveat).
fn scale() -> SimScale {
    SimScale {
        total_gb: 16,
        ..SimScale::default()
    }
}

fn workload() -> Trace {
    WorkloadBuilder::new()
        .data_set_bytes(4 * GIB)
        .rate_bytes_per_sec(40 * MIB)
        .popularity(0.1)
        .duration_secs(DURATION)
        .seed(7)
        .build()
        .expect("workload generation")
}

/// Full memory in nap, measured after [`WARMUP`], on `disks` members.
fn array_config(disks: usize, layout: Layout) -> SimConfig {
    let scale = scale();
    let mut sim = scale.sim_config(IdlePolicy::Nap, scale.total_banks());
    sim.warmup_secs = WARMUP;
    sim.period_secs = 300.0;
    sim.array = ArrayConfig { disks, layout };
    sim
}

/// Runs `sim` over `trace` until `duration`.
fn complete<C: PeriodController>(
    sim: Simulation<'_, C>,
    trace: &Trace,
    duration: f64,
) -> RunReport {
    sim.run(trace.source(), duration)
        .expect("in-memory trace sources cannot fail")
        .into_report()
        .expect("no checkpoint policy was installed")
}

/// The joint-array run: per-member Pareto fits and timeouts. The policy
/// learns the array from the run.
fn joint_array<'a>(disks: usize, layout: Layout) -> Simulation<'a, JointPolicy> {
    let sim = array_config(disks, layout);
    Simulation::new(
        &sim,
        SpinDownPolicy::controlled(f64::INFINITY),
        JointPolicy::new(JointConfig::from_sim(&sim)),
        "joint-array",
    )
}

fn run(trace: &Trace, disks: usize, layout: Layout, joint: bool) -> RunReport {
    if joint {
        return complete(joint_array(disks, layout), trace, DURATION);
    }
    let sim = array_config(disks, layout);
    let spindown = SpinDownPolicy::two_competitive(&sim.disk_power);
    complete(
        Simulation::new(&sim, spindown, NullController, "2t-array"),
        trace,
        DURATION,
    )
}

#[test]
fn joint_array_beats_static_two_competitive() {
    let trace = workload();
    for layout in [Layout::Partitioned, Layout::Striped { stripe_pages: 16 }] {
        let base = run(&trace, 4, layout, false);
        let joint = run(&trace, 4, layout, true);
        assert!(
            joint.energy.total_j() < base.energy.total_j(),
            "joint-array must beat per-disk 2T under {layout:?} ({} vs {})",
            joint.energy.total_j(),
            base.energy.total_j()
        );
        // And stay inside a tolerable long-latency envelope.
        assert!(joint.long_latency_per_sec() < 10.0);
    }
}

#[test]
fn partitioned_layout_saves_disk_energy_versus_striped() {
    let trace = workload();
    let part = run(&trace, 4, Layout::Partitioned, false);
    let stripe = run(&trace, 4, Layout::Striped { stripe_pages: 4 }, false);
    assert!(
        part.energy.disk.total_j() < stripe.energy.disk.total_j(),
        "idle consolidation must pay off ({} vs {})",
        part.energy.disk.total_j(),
        stripe.energy.disk.total_j()
    );
}

#[test]
fn access_counts_match_single_disk_run() {
    // The array and single-disk runs must agree on cache behavior (same
    // shared cache, same workload).
    let trace = workload();
    let sim = array_config(1, Layout::Partitioned);
    let single = Simulation::new(&sim, SpinDownPolicy::AlwaysOn, NullController, "single");
    let single = complete(single, &trace, DURATION);
    let arr = run(&trace, 4, Layout::Partitioned, false);
    assert_eq!(arr.cache_accesses, single.cache_accesses);
    assert_eq!(arr.hits, single.hits);
    assert_eq!(arr.disk_page_accesses, single.disk_page_accesses);
}

#[test]
fn more_disks_cost_more_baseline_energy() {
    let trace = workload();
    let one = run(&trace, 1, Layout::Partitioned, false);
    let four = run(&trace, 4, Layout::Partitioned, false);
    assert!(four.energy.disk.total_j() > one.energy.disk.total_j());
}

/// A one-disk array is the default single-disk run, writes included: the
/// golden digests' W2 workload (30 % writes) through write-allocate and
/// write-back, whatever the layout.
#[test]
fn one_disk_array_matches_the_default_run_with_writes() {
    const W2_WARMUP: f64 = 600.0;
    const W2_DURATION: f64 = 2000.0;
    const W2_PERIOD: f64 = 120.0;
    let trace = WorkloadBuilder::new()
        .data_set_bytes(8 * GIB)
        .rate_bytes_per_sec(20 * MIB)
        .popularity(0.6)
        .write_fraction(0.3)
        .duration_secs(W2_DURATION)
        .seed(1)
        .build()
        .expect("workload generation");
    let scale = scale();
    let spec = methods::fixed_memory(&scale, DiskPolicyKind::TwoCompetitive, 4);
    let default = methods::run_method(&spec, &scale, &trace, W2_WARMUP, W2_DURATION, W2_PERIOD);
    assert!(default.disk_page_accesses > 0);
    let mut sim = scale.sim_config(spec.mem_policy, spec.initial_banks);
    sim.warmup_secs = W2_WARMUP;
    sim.period_secs = W2_PERIOD;
    for layout in [Layout::Partitioned, Layout::Striped { stripe_pages: 16 }] {
        sim.array = ArrayConfig { disks: 1, layout };
        let array = Simulation::new(&sim, spec.spindown.clone(), NullController, &spec.label);
        assert_eq!(
            complete(array, &trace, W2_DURATION),
            default,
            "one-disk {layout:?} array"
        );
    }
}

#[test]
fn array_run_resumes_bit_identically_from_a_checkpoint() {
    let trace = workload();
    let uninterrupted = run(&trace, 4, Layout::Partitioned, true);
    let mut captured: Option<SimCheckpoint> = None;
    let mut on_checkpoint = |ckpt: SimCheckpoint| {
        captured = Some(ckpt);
        false
    };
    let outcome = joint_array(4, Layout::Partitioned)
        .checkpoints(Some(CheckpointOptions {
            policy: CheckpointPolicy::every(2),
            on_checkpoint: &mut on_checkpoint,
        }))
        .run(trace.source(), DURATION)
        .expect("in-memory trace sources cannot fail");
    assert_eq!(outcome, SimOutcome::Interrupted);
    let ckpt = captured.expect("stopped at the first checkpoint");
    assert_eq!(ckpt.engine.stats.counts.period_boundaries, 2);
    let resumed = joint_array(4, Layout::Partitioned).resume(Some(&ckpt));
    assert_eq!(complete(resumed, &trace, DURATION), uninterrupted);
}

/// A joint policy configured from a one-disk run still drives every
/// member of the array it is started on: its report is the pinned
/// joint-array run (`tests/golden_digests.rs`, workload "multi-disk"),
/// and every period names one timeout per member.
#[test]
fn a_policy_configured_for_one_disk_drives_the_whole_array() {
    let trace = workload();
    let one_disk = array_config(1, Layout::Partitioned);
    let sim = array_config(4, Layout::Partitioned);
    let policy = JointPolicy::new(JointConfig::from_sim(&one_disk));
    let run = Simulation::new(
        &sim,
        SpinDownPolicy::controlled(f64::INFINITY),
        policy,
        "joint-array",
    );
    let mut report = complete(run, &trace, DURATION);
    assert!(report
        .periods
        .iter()
        .all(|row| row.action.disk_timeouts.len() == 4));
    report.zero_wall_clock();
    let json = serde_json::to_string(&report).expect("RunReport serializes");
    assert_eq!(crc32(json.as_bytes()), 0x536d4228);
}

/// An array run's policy emits the same telemetry as a one-disk run's:
/// one `PolicyDecision` per closed period, naming the operating point the
/// period's per-member action applied. Telemetry leaves the report as it
/// was.
#[test]
fn joint_array_emits_one_policy_decision_per_period() {
    let trace = workload();
    let sim = array_config(4, Layout::Partitioned);
    let sink = MemorySink::new();
    let telemetry = Telemetry::new(Box::new(sink.clone()));
    let policy = JointPolicy::with_telemetry(JointConfig::from_sim(&sim), telemetry.clone());
    let instrumented = Simulation::new(
        &sim,
        SpinDownPolicy::controlled(f64::INFINITY),
        policy,
        "joint-array",
    )
    .telemetry(&telemetry);
    let report = complete(instrumented, &trace, DURATION);
    assert_eq!(report, run(&trace, 4, Layout::Partitioned, true));
    let decisions: Vec<(u64, u32, f64)> = sink
        .records()
        .into_iter()
        .filter_map(|record| match record.event {
            ObsEvent::PolicyDecision {
                period,
                banks,
                timeout_s,
                ..
            } => Some((period, banks, timeout_s)),
            _ => None,
        })
        .collect();
    assert_eq!(decisions.len(), report.periods.len());
    for (i, (row, &(period, banks, timeout_s))) in report.periods.iter().zip(&decisions).enumerate()
    {
        assert_eq!(period, i as u64);
        assert_eq!(row.action.disk_timeouts.len(), 4);
        assert_eq!(row.action.disk_timeout, Some(timeout_s));
        assert_eq!(
            row.action
                .enabled_banks
                .unwrap_or(row.observation.enabled_banks),
            banks
        );
    }
}

fn small_config(banks: u32, disks: usize) -> SimConfig {
    let mut config = SimConfig::with_mem(MemConfig {
        page_bytes: 1 << 20,
        bank_pages: 4,
        total_banks: 8,
        initial_banks: banks,
        model: RdramModel::default(),
        policy: IdlePolicy::Nap,
    });
    config.array = ArrayConfig {
        disks,
        layout: Layout::Partitioned,
    };
    config
}

fn read(time: f64, first_page: u64, pages: u64) -> TraceRecord {
    TraceRecord {
        time,
        file: FileId(0),
        first_page,
        pages,
        kind: AccessKind::Read,
    }
}

#[test]
fn partitioned_array_spins_down_cold_members() {
    // All traffic in the first quarter of the page space, cache too small
    // to absorb it (2 banks = 8 pages, 12 hot pages cycled).
    let mut records = Vec::new();
    let mut t = 0.0;
    for i in 0..60u64 {
        records.push(read(t, (i * 5) % 12, 1));
        t += 30.0;
    }
    let trace = Trace::new(records, 1 << 20, 64);
    let config = small_config(2, 4);
    let spindown = SpinDownPolicy::two_competitive(&config.disk_power);
    let arr = Simulation::new(&config, spindown, NullController, "array");
    let arr = complete(arr, &trace, t + 50.0);
    // Three members never see a request and spin down once each.
    assert!(arr.spin_downs >= 3, "spin_downs = {}", arr.spin_downs);
}

#[test]
fn controller_sets_per_disk_timeouts() {
    struct PerDisk;
    impl PeriodController for PerDisk {
        fn on_period_end(&mut self, _: &PeriodObservation, _: &AccessLog) -> ControlAction {
            ControlAction {
                disk_timeouts: vec![5.0, 6.0],
                ..ControlAction::default()
            }
        }
    }
    let trace = Trace::new(vec![read(1.0, 0, 2)], 1 << 20, 64);
    let spindown = SpinDownPolicy::controlled(f64::INFINITY);
    let arr = Simulation::new(&small_config(8, 2), spindown, PerDisk, "array");
    let arr = complete(arr, &trace, 1300.0);
    assert_eq!(arr.periods.len(), 2);
    assert_eq!(arr.periods[0].action.disk_timeouts, [5.0, 6.0]);
    // The first member's timeout is the one a period row reports.
    assert_eq!(arr.periods[0].observation.disk_timeout, f64::INFINITY);
    assert_eq!(arr.periods[1].observation.disk_timeout, 5.0);
}
