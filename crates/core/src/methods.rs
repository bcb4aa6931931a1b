//! The registry of power-management methods compared in the paper (§V-A)
//! and the glue that runs any of them over a workload.
//!
//! Method names follow the paper's scheme — *disk policy* + *memory
//! policy* + *maximum memory size*:
//!
//! * disk: `2T` (two-competitive fixed timeout) or `AD` (Douglis adaptive),
//! * memory: `FM-xGB` (fixed size), `PD` (power-down after timeout), `DS`
//!   (disable after timeout),
//! * plus the `Always-on` baseline and the `Joint` method.
//!
//! `2T × FM{8,16,32,64,128} ∪ AD × FM{…} ∪ {2T,AD} × {PD,DS} ∪ {Joint}`
//! gives the 15 managed methods of the paper; [`paper_suite`] constructs
//! all 16 (baseline included) for the experiment harness, and
//! [`simulation`] turns any of them into a ready-to-run
//! [`Simulation`].

use serde::{Deserialize, Serialize};

use jpmd_disk::SpinDownPolicy;
use jpmd_mem::{IdlePolicy, Replacement};
use jpmd_obs::Telemetry;
use jpmd_sim::{NullController, PeriodController, RunReport, Simulation};
use jpmd_trace::{SourceError, Trace, TraceSource};

use crate::{JointConfig, JointPolicy, SimScale};

/// Which disk timeout family a static method uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiskPolicyKind {
    /// Fixed timeout at the break-even time ("2T").
    TwoCompetitive,
    /// Douglis adaptive timeout ("AD").
    Adaptive,
}

impl DiskPolicyKind {
    fn prefix(self) -> &'static str {
        match self {
            DiskPolicyKind::TwoCompetitive => "2T",
            DiskPolicyKind::Adaptive => "AD",
        }
    }
}

/// A fully specified power-management method, ready to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodSpec {
    /// Display label, e.g. `"2TFM-16GB"`.
    pub label: String,
    /// Disk spin-down policy.
    pub spindown: SpinDownPolicy,
    /// Memory idle policy.
    pub mem_policy: IdlePolicy,
    /// Banks enabled at simulation start.
    pub initial_banks: u32,
    /// Disk-cache replacement policy.
    pub replacement: Replacement,
    /// Whether `DisableAfter` banks migrate their pages before expiring
    /// (power-aware cache management, related work \[6\]/\[36\]).
    pub consolidate: bool,
    /// `Some` for the joint method: its controller configuration.
    pub joint: Option<JointConfig>,
}

/// The always-on baseline: full memory in nap, disk never spins down.
pub fn always_on(scale: &SimScale) -> MethodSpec {
    MethodSpec {
        label: "Always-on".to_string(),
        spindown: SpinDownPolicy::AlwaysOn,
        mem_policy: IdlePolicy::Nap,
        initial_banks: scale.total_banks(),
        replacement: Replacement::GlobalLru,
        consolidate: false,
        joint: None,
    }
}

/// A fixed-memory method (`2TFM-xGB` / `ADFM-xGB`).
pub fn fixed_memory(scale: &SimScale, disk: DiskPolicyKind, memory_gb: u64) -> MethodSpec {
    MethodSpec {
        label: format!("{}FM-{}GB", disk.prefix(), memory_gb),
        spindown: disk_policy(scale, disk),
        mem_policy: IdlePolicy::Nap,
        initial_banks: scale.gb_to_banks(memory_gb),
        replacement: Replacement::GlobalLru,
        consolidate: false,
        joint: None,
    }
}

/// A timeout power-down method (`2TPD` / `ADPD`): full memory, banks drop
/// to the power-down mode after the 129 µs two-competitive timeout. Data
/// are retained, so no extra disk accesses occur.
pub fn power_down(scale: &SimScale, disk: DiskPolicyKind) -> MethodSpec {
    MethodSpec {
        label: format!("{}PD-{}GB", disk.prefix(), scale.total_gb),
        spindown: disk_policy(scale, disk),
        mem_policy: IdlePolicy::PowerDownAfter(scale.mem_model.powerdown_timeout_s()),
        initial_banks: scale.total_banks(),
        replacement: Replacement::GlobalLru,
        consolidate: false,
        joint: None,
    }
}

/// A timeout disable method (`2TDS` / `ADDS`): full memory, banks are
/// *disabled* (contents lost) after their break-even timeout — 732 s with
/// the paper's constants (`7.7 J / 10.5 mW`).
pub fn disable(scale: &SimScale, disk: DiskPolicyKind) -> MethodSpec {
    MethodSpec {
        label: format!("{}DS-{}GB", disk.prefix(), scale.total_gb),
        spindown: disk_policy(scale, disk),
        mem_policy: IdlePolicy::DisableAfter(scale.disable_timeout_s()),
        initial_banks: scale.total_banks(),
        replacement: Replacement::GlobalLru,
        consolidate: false,
        joint: None,
    }
}

/// A *consolidating* disable method (`2TDSC` / `ADDSC`): like
/// [`disable`], but pages of nearly-expired banks migrate to warm banks
/// instead of being dropped — the power-aware cache management of the
/// related work (\[6\], \[36\]). Costs a little copy energy; avoids the DS
/// methods' disk reloads and their latency spikes.
pub fn disable_consolidated(scale: &SimScale, disk: DiskPolicyKind) -> MethodSpec {
    MethodSpec {
        label: format!("{}DSC-{}GB", disk.prefix(), scale.total_gb),
        spindown: disk_policy(scale, disk),
        mem_policy: IdlePolicy::DisableAfter(scale.disable_timeout_s()),
        initial_banks: scale.total_banks(),
        replacement: Replacement::GlobalLru,
        consolidate: true,
        joint: None,
    }
}

/// A *cascade* method (`2TCD` / `ADCD`): banks power down after the
/// 129 µs PD timeout and are disabled after the 732 s DS break-even —
/// using the full RDRAM mode ladder. Strictly dominates PD on memory
/// energy while deferring DS's data loss; not evaluated in the paper
/// (extension).
pub fn cascade(scale: &SimScale, disk: DiskPolicyKind) -> MethodSpec {
    MethodSpec {
        label: format!("{}CD-{}GB", disk.prefix(), scale.total_gb),
        spindown: disk_policy(scale, disk),
        mem_policy: IdlePolicy::Cascade {
            pd_after: scale.mem_model.powerdown_timeout_s(),
            disable_after: scale.disable_timeout_s(),
        },
        initial_banks: scale.total_banks(),
        replacement: Replacement::GlobalLru,
        consolidate: false,
        joint: None,
    }
}

/// The joint method with the paper's default constraints.
pub fn joint(scale: &SimScale) -> MethodSpec {
    let sim = scale.sim_config(IdlePolicy::Nap, scale.total_banks());
    MethodSpec {
        label: "Joint".to_string(),
        spindown: SpinDownPolicy::controlled(f64::INFINITY),
        mem_policy: IdlePolicy::Nap,
        initial_banks: scale.total_banks(),
        replacement: Replacement::GlobalLru,
        consolidate: false,
        joint: Some(JointConfig::from_sim(&sim)),
    }
}

fn disk_policy(scale: &SimScale, kind: DiskPolicyKind) -> SpinDownPolicy {
    match kind {
        DiskPolicyKind::TwoCompetitive => SpinDownPolicy::two_competitive(&scale.disk_power),
        DiskPolicyKind::Adaptive => SpinDownPolicy::adaptive(),
    }
}

/// All 16 methods of the paper's comparison (Fig. 7): the baseline, ten
/// fixed-memory variants, four timeout-memory variants, and the joint
/// method.
pub fn paper_suite(scale: &SimScale, fm_sizes_gb: &[u64]) -> Vec<MethodSpec> {
    let mut out = vec![always_on(scale)];
    for &kind in &[DiskPolicyKind::TwoCompetitive, DiskPolicyKind::Adaptive] {
        for &gb in fm_sizes_gb {
            out.push(fixed_memory(scale, kind, gb));
        }
    }
    for &kind in &[DiskPolicyKind::TwoCompetitive, DiskPolicyKind::Adaptive] {
        out.push(power_down(scale, kind));
        out.push(disable(scale, kind));
    }
    out.push(joint(scale));
    out
}

/// One method's simulation, ready for a source ([`Simulation::run`]) or an
/// incremental start ([`Simulation::start`]): the method's memory
/// configuration, replacement and spin-down policies and label, with
/// `warmup_secs`/`period_secs` carving the measured window and the control
/// period, and its controller — a [`JointPolicy`] for the joint method
/// (emitting one `PolicyDecision` per period through `telemetry`: fitted
/// Pareto α/β, chosen timeout and memory size, and the candidate power
/// table), a [`NullController`] for every other. `telemetry` is attached
/// to the run too.
///
/// # Errors
///
/// Fails on an invalid joint configuration.
pub fn simulation<'a>(
    spec: &MethodSpec,
    scale: &SimScale,
    warmup_secs: f64,
    period_secs: f64,
    telemetry: &Telemetry,
) -> Result<Simulation<'a, Box<dyn PeriodController>>, SourceError> {
    let mut sim = scale.sim_config(spec.mem_policy, spec.initial_banks);
    sim.warmup_secs = warmup_secs;
    sim.period_secs = period_secs;
    sim.replacement = spec.replacement;
    sim.consolidate = spec.consolidate;
    let controller: Box<dyn PeriodController> = match &spec.joint {
        Some(joint_cfg) => {
            let mut cfg = *joint_cfg;
            cfg.period_secs = period_secs;
            Box::new(
                JointPolicy::try_with_telemetry(cfg, telemetry.clone())
                    .map_err(SourceError::new)?,
            )
        }
        None => Box::new(NullController),
    };
    Ok(Simulation::new(&sim, spec.spindown.clone(), controller, &spec.label).telemetry(telemetry))
}

/// Runs one method over a trace and returns its report.
///
/// `warmup_secs`/`duration_secs` carve the measured window; `period_secs`
/// sets the control period (only the joint method acts on it).
pub fn run_method(
    spec: &MethodSpec,
    scale: &SimScale,
    trace: &Trace,
    warmup_secs: f64,
    duration_secs: f64,
    period_secs: f64,
) -> RunReport {
    run_method_source(
        spec,
        scale,
        trace.source(),
        warmup_secs,
        duration_secs,
        period_secs,
    )
    .expect("in-memory trace sources cannot fail")
}

/// Like [`run_method`], but replays any [`TraceSource`] — including the
/// paged binary store's streaming reader (`jpmd-store`), which keeps
/// resident memory at O(page) for arbitrarily long traces. For the same
/// record sequence the report is bit-identical to [`run_method`].
///
/// # Errors
///
/// Propagates the first [`SourceError`] the source yields (I/O failure or
/// a corrupt store).
pub fn run_method_source<S: TraceSource>(
    spec: &MethodSpec,
    scale: &SimScale,
    source: S,
    warmup_secs: f64,
    duration_secs: f64,
    period_secs: f64,
) -> Result<RunReport, SourceError> {
    let outcome = simulation(
        spec,
        scale,
        warmup_secs,
        period_secs,
        &Telemetry::disabled(),
    )?
    .run(source, duration_secs)?;
    Ok(outcome
        .into_report()
        .expect("no checkpoint policy was installed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpmd_sim::{FeedOutcome, PolicyStepper, SimCheckpoint};
    use jpmd_trace::{TraceRecord, WorkloadBuilder, GIB, MIB};

    fn scale() -> SimScale {
        SimScale::small_test()
    }

    #[test]
    fn paper_suite_has_sixteen_methods() {
        let suite = paper_suite(&scale(), &[1, 2, 4]);
        // baseline + 2×3 FM + 4 PD/DS + joint = 12 with three FM sizes;
        // the paper's five FM sizes give 16.
        assert_eq!(suite.len(), 12);
        let five = paper_suite(&SimScale::default(), &[8, 16, 32, 64, 128]);
        assert_eq!(five.len(), 16);
        let labels: Vec<&str> = five.iter().map(|m| m.label.as_str()).collect();
        assert!(labels.contains(&"Always-on"));
        assert!(labels.contains(&"2TFM-8GB"));
        assert!(labels.contains(&"ADFM-128GB"));
        assert!(labels.contains(&"2TPD-128GB"));
        assert!(labels.contains(&"ADDS-128GB"));
        assert!(labels.contains(&"Joint"));
    }

    #[test]
    fn labels_are_unique() {
        let suite = paper_suite(&SimScale::default(), &[8, 16, 32, 64, 128]);
        let mut labels: Vec<&String> = suite.iter().map(|m| &m.label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), suite.len());
    }

    #[test]
    fn disable_timeout_matches_paper_magnitude() {
        // Paper: 7.7 J / 10.5 mW = 732 s for 16 MB banks.
        let t = SimScale::default().disable_timeout_s();
        assert!(
            (300.0..1500.0).contains(&t),
            "disable timeout {t} s should be in the paper's order of magnitude (732 s)"
        );
    }

    #[test]
    fn joint_spec_is_controlled() {
        let j = joint(&scale());
        assert!(j.joint.is_some());
        assert!(matches!(j.spindown, SpinDownPolicy::Controlled { .. }));
    }

    #[test]
    fn fixed_memory_banks_scale_with_gb() {
        let s = SimScale::default();
        let m8 = fixed_memory(&s, DiskPolicyKind::TwoCompetitive, 8);
        let m16 = fixed_memory(&s, DiskPolicyKind::TwoCompetitive, 16);
        assert_eq!(m16.initial_banks, 2 * m8.initial_banks);
    }

    fn workload(seed: u64) -> Trace {
        WorkloadBuilder::new()
            .data_set_bytes(GIB / 2)
            .rate_bytes_per_sec(4 * MIB)
            .duration_secs(1800.0)
            .seed(seed)
            .build()
            .expect("workload")
    }

    fn run_stepper(
        spec: &MethodSpec,
        scale: &SimScale,
        trace: &Trace,
        duration: f64,
        period: f64,
    ) -> RunReport {
        let mut stepper = simulation(spec, scale, 0.0, period, &Telemetry::disabled())
            .and_then(|sim| sim.start(trace.total_pages(), duration))
            .expect("stepper");
        let mut source = trace.source();
        let mut decisions = 0usize;
        while let Some(next) = source.next_record() {
            let record = next.expect("in-memory sources cannot fail");
            if stepper.feed(record) == FeedOutcome::Finished {
                break;
            }
            decisions += stepper.poll_rows().len();
        }
        assert_eq!(decisions, stepper.rows().len());
        stepper.finish()
    }

    /// An incremental start of `spec` over `trace` (1800 s, 300-s periods).
    fn start(
        spec: &MethodSpec,
        scale: &SimScale,
        trace: &Trace,
        resume: Option<&SimCheckpoint>,
    ) -> PolicyStepper<Box<dyn PeriodController>> {
        simulation(spec, scale, 0.0, 300.0, &Telemetry::disabled())
            .and_then(|sim| sim.resume(resume).start(trace.total_pages(), 1800.0))
            .expect("stepper")
    }

    #[test]
    fn stepper_matches_batch_always_on() {
        let scale = SimScale::small_test();
        let trace = workload(11);
        let spec = always_on(&scale);
        let batch = run_method(&spec, &scale, &trace, 0.0, 1800.0, 300.0);
        let stepped = run_stepper(&spec, &scale, &trace, 1800.0, 300.0);
        assert_eq!(stepped, batch);
    }

    #[test]
    fn stepper_matches_batch_joint() {
        let scale = SimScale::small_test();
        let trace = workload(7);
        let spec = joint(&scale);
        let batch = run_method(&spec, &scale, &trace, 0.0, 1800.0, 300.0);
        let stepped = run_stepper(&spec, &scale, &trace, 1800.0, 300.0);
        assert_eq!(stepped, batch);
        // The joint policy actually acted somewhere in the run.
        assert!(stepped
            .periods
            .iter()
            .any(|p| p.action.enabled_banks.is_some()));
    }

    #[test]
    fn queries_track_the_live_operating_point() {
        let scale = SimScale::small_test();
        let trace = workload(5);
        let spec = joint(&scale);
        let mut stepper = start(&spec, &scale, &trace, None);
        let mut source = trace.source();
        while let Some(next) = source.next_record() {
            if stepper.feed(next.expect("infallible")) == FeedOutcome::Finished {
                break;
            }
        }
        assert!(stepper.enabled_banks() >= 1);
        assert!(stepper.enabled_banks() <= stepper.total_banks());
        assert!(stepper.disk_timeout() > 0.0);
        assert!(stepper.energy_so_far_j() > 0.0);
        assert!(stepper.sim_time() > 0.0);
        assert!(stepper.records_pulled() > 0);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        let scale = SimScale::small_test();
        let trace = workload(13);
        let spec = joint(&scale);
        let uninterrupted = run_stepper(&spec, &scale, &trace, 1800.0, 300.0);

        // Feed half the stream, checkpoint, abandon the stepper.
        let records: Vec<TraceRecord> = {
            let mut source = trace.source();
            let mut out = Vec::new();
            while let Some(next) = source.next_record() {
                out.push(next.expect("infallible"));
            }
            out
        };
        let mut first = start(&spec, &scale, &trace, None);
        for record in &records[..records.len() / 2] {
            assert_ne!(first.feed(*record), FeedOutcome::Finished);
        }
        let ckpt = first.checkpoint();
        drop(first);

        // Resume and replay the whole stream; the prefix is discarded.
        let mut resumed = start(&spec, &scale, &trace, Some(&ckpt));
        let mut skipped = 0u64;
        for record in &records {
            match resumed.feed(*record) {
                FeedOutcome::Skipped => skipped += 1,
                FeedOutcome::Finished => break,
                FeedOutcome::Replayed => {}
            }
        }
        assert_eq!(skipped, ckpt.engine.stats.records_pulled);
        assert_eq!(resumed.finish(), uninterrupted);
    }
}
