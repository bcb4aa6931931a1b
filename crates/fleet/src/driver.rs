//! The fleet driver: fan a trace out across shards, run the shard engines
//! in parallel on the bench work queue, and merge the results.
//!
//! Two modes compete under the **same global memory-bank budget**:
//!
//! * [`FleetMode::PerShardGreedy`] — every shard runs its own
//!   [`JointPolicy`](jpmd_core::JointPolicy) capped at an equal slice of
//!   the budget (`budget / shards` banks). No shard knows the others
//!   exist; this is the natural baseline a per-machine deployment gives.
//! * [`FleetMode::Coordinated`] — a two-pass protocol. Pass 1 (*bidding*)
//!   runs each shard with a [`BiddingJointPolicy`] allowed to bid up to
//!   the whole budget, recording the per-period candidate power tables
//!   the joint policy weighed. The coordinator then solves each period
//!   with [`allocate_budget`] — greedy by marginal energy saving per bank
//!   — producing a per-shard plan. Pass 2 replays the plans through
//!   [`PlannedController`]s: a deterministic, checkpointable run like any
//!   other.
//!
//! [`run_fleet_checkpointed`] adds whole-fleet crash safety: per-shard
//! telemetry WALs and `.jck` checkpoints (the proven single-engine
//! protocol, shard-tagged via [`Telemetry::for_shard`]), tied together by
//! a [`FleetManifest`] that also carries the coordinator's plan — so a
//! resumed coordinated run replays the *same* allocation without
//! re-bidding, and the completed fleet report is bit-identical to the
//! uninterrupted run's.

use std::fmt;
use std::path::{Path, PathBuf};

use jpmd_bench::run_queue;
use jpmd_ckpt::{
    load_checkpoint, load_manifest, save_manifest, CkptError, CkptMeta, FileCheckpointer,
    FleetManifest,
};
use jpmd_core::{
    allocate_budget, methods, BiddingJointPolicy, JointConfig, JointPolicy, PlanPoint,
    PlannedController, SimScale,
};
use jpmd_disk::SpinDownPolicy;
use jpmd_mem::IdlePolicy;
use jpmd_obs::{CandidatePower, JsonlSink, Telemetry, WalPolicy};
use jpmd_sim::{
    CheckpointOptions, CheckpointPolicy, PeriodController, SimCheckpoint, SimOutcome, Simulation,
};
use jpmd_trace::Trace;

use crate::{partition, FleetReport, Partitioner};

/// Geometry and cadence of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Experiment scale shared by every shard engine.
    pub scale: SimScale,
    /// Number of shards (≥ 1).
    pub shards: u32,
    /// Global memory-bank budget shared by the whole fleet.
    pub budget_banks: u32,
    /// Warm-up excluded from measured metrics, s.
    pub warmup_secs: f64,
    /// Measured run length, s.
    pub duration_secs: f64,
    /// Control-period length, s.
    pub period_secs: f64,
    /// Parallel shard workers (0 = one per shard).
    pub workers: usize,
    /// Run identity stamped into checkpoints and the fleet manifest.
    pub seed: u64,
}

impl FleetConfig {
    /// Each shard's equal slice of the budget (per-shard-greedy cap and
    /// both modes' starting memory size), at least one bank.
    pub fn per_shard_banks(&self) -> u32 {
        (self.budget_banks / self.shards.max(1)).max(1)
    }

    fn worker_count(&self) -> usize {
        if self.workers == 0 {
            self.shards.max(1) as usize
        } else {
            self.workers
        }
    }
}

/// Which allocation strategy the fleet runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetMode {
    /// Independent joint policies, each capped at `budget / shards`.
    PerShardGreedy,
    /// Global bidding + marginal-saving allocation + planned replay.
    Coordinated,
}

impl FleetMode {
    /// Stable label used in reports and manifests.
    pub fn label(self) -> &'static str {
        match self {
            FleetMode::PerShardGreedy => "per-shard-greedy",
            FleetMode::Coordinated => "coordinated",
        }
    }
}

/// Outcome of a checkpointed fleet run.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetOutcome {
    /// Every shard completed; the merged report is final.
    Completed(Box<FleetReport>),
    /// At least one shard stopped at a checkpoint; resume from the
    /// manifest directory.
    Interrupted,
}

impl FleetOutcome {
    /// The completed report, or `None` for an interrupted fleet.
    pub fn into_report(self) -> Option<FleetReport> {
        match self {
            FleetOutcome::Completed(report) => Some(*report),
            FleetOutcome::Interrupted => None,
        }
    }
}

/// A fleet-level failure: shard panics, checkpoint/manifest damage, I/O.
#[derive(Debug)]
pub enum FleetError {
    /// A shard task failed (replay error or panic), with its message.
    Shard {
        /// Which shard failed.
        shard: u32,
        /// The replay error or panic payload.
        message: String,
    },
    /// Checkpoint or manifest load/store failed.
    Ckpt(CkptError),
    /// Trace generation or filesystem failure.
    Io(std::io::Error),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Shard { shard, message } => write!(f, "shard {shard} failed: {message}"),
            FleetError::Ckpt(e) => write!(f, "fleet checkpoint error: {e}"),
            FleetError::Io(e) => write!(f, "fleet i/o error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<CkptError> for FleetError {
    fn from(e: CkptError) -> Self {
        FleetError::Ckpt(e)
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}

/// The per-shard-greedy method spec: the paper's joint method with its
/// memory enumeration ceiling *and* starting size capped at the shard's
/// budget slice.
fn greedy_spec(scale: &SimScale, cap_banks: u32) -> methods::MethodSpec {
    let mut spec = methods::joint(scale);
    let cap = cap_banks.min(scale.total_banks()).max(1);
    spec.label = format!("Joint-capped-{cap}");
    spec.initial_banks = cap;
    if let Some(cfg) = &mut spec.joint {
        cfg.total_banks = cap;
    }
    spec
}

/// The bidding-pass joint configuration: enumeration up to the *whole*
/// budget (bounded by the physically installed banks).
fn bidding_config(cfg: &FleetConfig) -> JointConfig {
    let sim = cfg.scale.sim_config(IdlePolicy::Nap, cfg.per_shard_banks());
    let mut jcfg = JointConfig::from_sim(&sim);
    jcfg.period_secs = cfg.period_secs;
    jcfg.total_banks = cfg.budget_banks.min(cfg.scale.total_banks()).max(1);
    jcfg
}

fn collect_shard_results<R>(
    results: Vec<Result<Result<R, String>, String>>,
) -> Result<Vec<R>, FleetError> {
    let mut out = Vec::with_capacity(results.len());
    for (shard, result) in results.into_iter().enumerate() {
        match result {
            Ok(Ok(r)) => out.push(r),
            Ok(Err(message)) | Err(message) => {
                return Err(FleetError::Shard {
                    shard: shard as u32,
                    message,
                })
            }
        }
    }
    Ok(out)
}

/// A shard's run of a fleet controller: the joint method's memory
/// configuration (Nap, global LRU) with the shard's bank share enabled at
/// start and a controller-owned disk timeout.
fn shard_simulation<'a, C: PeriodController>(
    cfg: &FleetConfig,
    label: &str,
    controller: C,
) -> Simulation<'a, C> {
    let mut sim = cfg.scale.sim_config(IdlePolicy::Nap, cfg.per_shard_banks());
    sim.warmup_secs = cfg.warmup_secs;
    sim.period_secs = cfg.period_secs;
    Simulation::new(
        &sim,
        SpinDownPolicy::controlled(f64::INFINITY),
        controller,
        label,
    )
}

/// Pass 1: run every shard with a bidding joint policy (telemetry off, no
/// checkpoints) and return its recorded per-period bids.
fn bidding_pass(
    cfg: &FleetConfig,
    shard_traces: &[Trace],
) -> Result<Vec<Vec<jpmd_core::PeriodBid>>, FleetError> {
    let items: Vec<(u32, &Trace)> = shard_traces
        .iter()
        .enumerate()
        .map(|(k, t)| (k as u32, t))
        .collect();
    let jcfg = bidding_config(cfg);
    let results = run_queue(&items, cfg.worker_count(), |(shard, trace)| {
        let policy = JointPolicy::try_with_telemetry(jcfg, Telemetry::disabled())
            .map_err(|e| e.to_string())?;
        let mut bidder = BiddingJointPolicy::new(policy);
        shard_simulation(cfg, &format!("fleet-bid-{shard}"), &mut bidder)
            .run(trace.source(), cfg.duration_secs)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(bidder.into_bids())
    });
    collect_shard_results(results)
}

/// Solves the coordinator's allocation from the shards' bids: one
/// [`allocate_budget`] call per period, transposed into one plan per
/// shard. Shards whose run closed fewer periods keep bidding their last
/// table; shards with no bids at all hold their starting banks.
pub fn plan_from_bids(
    cfg: &FleetConfig,
    bids: &[Vec<jpmd_core::PeriodBid>],
) -> Vec<Vec<PlanPoint>> {
    let periods = bids.iter().map(Vec::len).max().unwrap_or(0);
    let hold = |banks: u32| CandidatePower {
        banks,
        power_w: 0.0,
        timeout_s: 0.0,
        utilization: 0.0,
        feasible: true,
    };
    let mut plans: Vec<Vec<PlanPoint>> = vec![Vec::with_capacity(periods); bids.len()];
    for period in 0..periods {
        let tables: Vec<Vec<CandidatePower>> = bids
            .iter()
            .map(
                |shard_bids| match shard_bids.get(period.min(shard_bids.len().wrapping_sub(1))) {
                    Some(bid) => bid.candidates.clone(),
                    None => vec![hold(cfg.per_shard_banks())],
                },
            )
            .collect();
        let views: Vec<&[CandidatePower]> = tables.iter().map(Vec::as_slice).collect();
        for (shard, point) in allocate_budget(&views, cfg.budget_banks)
            .into_iter()
            .enumerate()
        {
            plans[shard].push(point);
        }
    }
    plans
}

/// What one shard task needs; assembled up front so the work-queue
/// closure stays `Fn` and the borrow checker stays calm.
struct ShardTask {
    shard: u32,
    trace: Trace,
    plan: Option<Vec<PlanPoint>>,
    wal: Option<PathBuf>,
    jck: Option<PathBuf>,
    die_after: Option<u64>,
    kind: String,
}

/// Runs one shard to completion (or checkpoint-interruption).
fn run_shard(cfg: &FleetConfig, mode: FleetMode, task: &ShardTask) -> Result<SimOutcome, String> {
    // Telemetry: a shard-tagged WAL when a directory is given, resuming
    // after the sealed checkpoint when one exists.
    let resume: Option<SimCheckpoint> = match &task.jck {
        Some(jck) if jck.exists() => {
            let (_, ckpt) = load_checkpoint(jck).map_err(|e| e.to_string())?;
            Some(ckpt)
        }
        _ => None,
    };
    let telemetry = match &task.wal {
        Some(wal) => {
            let sink = match &resume {
                Some(ckpt) => JsonlSink::resume(wal, ckpt.telemetry_seq, WalPolicy::wal()),
                None => JsonlSink::create_with(wal, WalPolicy::wal()),
            }
            .map_err(|e| e.to_string())?;
            Telemetry::for_shard(Box::new(sink), task.shard)
        }
        None => Telemetry::disabled(),
    };
    let mut saver = task.jck.as_ref().map(|jck| {
        let meta = CkptMeta {
            kind: task.kind.clone(),
            seed: cfg.seed,
            trace_seed: u64::from(task.shard),
            telemetry: task.wal.as_ref().map(|w| w.to_string_lossy().into_owned()),
            wal_index: None,
        };
        FileCheckpointer::new(jck, meta, telemetry.clone())
    });
    let die_after = task.die_after;
    let mut on_checkpoint = |ckpt: SimCheckpoint| match saver.as_mut() {
        Some(saver) => saver.save(&ckpt) && die_after.is_none_or(|limit| saver.saved() < limit),
        None => true,
    };
    let checkpoints = task.jck.as_ref().map(|_| CheckpointOptions {
        policy: CheckpointPolicy::every(1),
        on_checkpoint: &mut on_checkpoint,
    });

    let outcome = match mode {
        FleetMode::PerShardGreedy => methods::simulation(
            &greedy_spec(&cfg.scale, cfg.per_shard_banks()),
            &cfg.scale,
            cfg.warmup_secs,
            cfg.period_secs,
            &telemetry,
        )
        .and_then(|sim| {
            sim.resume(resume.as_ref())
                .checkpoints(checkpoints)
                .run(task.trace.source(), cfg.duration_secs)
        }),
        FleetMode::Coordinated => {
            let mut controller = PlannedController::new(task.plan.clone().unwrap_or_default());
            shard_simulation(cfg, &format!("fleet-{}", task.shard), &mut controller)
                .telemetry(&telemetry)
                .resume(resume.as_ref())
                .checkpoints(checkpoints)
                .run(task.trace.source(), cfg.duration_secs)
        }
    }
    .map_err(|e| e.to_string())?;
    if let Some(saver) = saver.as_mut() {
        if let Some(e) = saver.take_error() {
            return Err(format!("checkpoint save failed: {e}"));
        }
    }
    Ok(outcome)
}

fn run_shard_tasks(
    cfg: &FleetConfig,
    mode: FleetMode,
    tasks: Vec<ShardTask>,
) -> Result<FleetOutcome, FleetError> {
    let results = run_queue(&tasks, cfg.worker_count(), |task| {
        run_shard(cfg, mode, task)
    });
    let outcomes = collect_shard_results(results)?;
    let mut reports = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome {
            SimOutcome::Completed(report) => reports.push(*report),
            SimOutcome::Interrupted => return Ok(FleetOutcome::Interrupted),
        }
    }
    Ok(FleetOutcome::Completed(Box::new(FleetReport::from_shards(
        mode.label(),
        reports,
    ))))
}

/// Runs the fleet entirely in memory: no telemetry, no checkpoints.
/// This is the benchmarking path (`fleet_bench`) — both modes over the
/// same partitioned trace, same budget.
///
/// # Errors
///
/// Propagates shard replay failures and panics as [`FleetError::Shard`].
pub fn run_fleet(
    cfg: &FleetConfig,
    mode: FleetMode,
    trace: &Trace,
    partitioner: &dyn Partitioner,
) -> Result<FleetReport, FleetError> {
    let shard_traces = partition(trace, partitioner);
    let plans = match mode {
        FleetMode::Coordinated => {
            let bids = bidding_pass(cfg, &shard_traces)?;
            plan_from_bids(cfg, &bids)
        }
        FleetMode::PerShardGreedy => vec![Vec::new(); shard_traces.len()],
    };
    let tasks: Vec<ShardTask> = shard_traces
        .into_iter()
        .zip(plans)
        .enumerate()
        .map(|(k, (trace, plan))| ShardTask {
            shard: k as u32,
            trace,
            plan: Some(plan),
            wal: None,
            jck: None,
            die_after: None,
            kind: format!("fleet-{}", mode.label()),
        })
        .collect();
    match run_shard_tasks(cfg, mode, tasks)? {
        FleetOutcome::Completed(report) => Ok(*report),
        FleetOutcome::Interrupted => unreachable!("no checkpoint policy was installed"),
    }
}

/// Path of the fleet manifest inside a run directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("fleet.jck")
}

fn shard_wal(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard{shard}.jsonl"))
}

fn shard_jck(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard{shard}.jck"))
}

fn plans_to_value(plans: &[Vec<PlanPoint>]) -> serde::Value {
    serde::Serialize::to_value(&plans.to_vec())
}

fn plans_from_value(value: &serde::Value) -> Result<Vec<Vec<PlanPoint>>, CkptError> {
    if matches!(value, serde::Value::Null) {
        return Ok(Vec::new());
    }
    serde::Deserialize::from_value(value).map_err(|e| CkptError::Decode(format!("fleet plan: {e}")))
}

/// Runs the fleet with whole-fleet crash safety under `dir`:
/// `shard{k}.jsonl` WALs, `shard{k}.jck` checkpoints (captured every
/// period), and the `fleet.jck` manifest tying them together.
///
/// Fresh run: the manifest is written first (for the coordinated mode it
/// carries the allocation plan produced by the bidding pass), then the
/// shards run in parallel. **Resume**: when `dir` already holds a
/// manifest, the run is rebuilt from it — each shard resumes from its
/// sealed checkpoint (or restarts if it never checkpointed), the
/// coordinated plan is taken from the manifest instead of re-bidding, and
/// the completed [`FleetReport`] is bit-identical to an uninterrupted
/// run's.
///
/// `die_after` stops every shard after that many published checkpoints —
/// the crash-injection hook the chaos smoke and resume tests use.
///
/// # Errors
///
/// Propagates shard failures, checkpoint/manifest damage, and I/O errors.
pub fn run_fleet_checkpointed(
    cfg: &FleetConfig,
    mode: FleetMode,
    trace: &Trace,
    partitioner: &dyn Partitioner,
    dir: &Path,
    die_after: Option<u64>,
) -> Result<FleetOutcome, FleetError> {
    std::fs::create_dir_all(dir)?;
    let shard_traces = partition(trace, partitioner);
    let kind = format!("fleet-{}", mode.label());
    let manifest_file = manifest_path(dir);

    let plans = if manifest_file.exists() {
        let manifest = load_manifest(&manifest_file)?;
        plans_from_value(&manifest.extra)?
    } else {
        let plans = match mode {
            FleetMode::Coordinated => {
                let bids = bidding_pass(cfg, &shard_traces)?;
                plan_from_bids(cfg, &bids)
            }
            FleetMode::PerShardGreedy => vec![Vec::new(); shard_traces.len()],
        };
        let mut manifest = FleetManifest::new(kind.clone(), cfg.seed);
        for shard in 0..shard_traces.len() as u32 {
            manifest = manifest.with_shard(
                shard,
                shard_jck(dir, shard).to_string_lossy().into_owned(),
                Some(shard_wal(dir, shard).to_string_lossy().into_owned()),
            );
        }
        if mode == FleetMode::Coordinated {
            manifest = manifest.with_extra(plans_to_value(&plans));
        }
        save_manifest(&manifest_file, &manifest)?;
        plans
    };

    let mut plans = plans;
    plans.resize(shard_traces.len(), Vec::new());
    let tasks: Vec<ShardTask> = shard_traces
        .into_iter()
        .zip(plans)
        .enumerate()
        .map(|(k, (trace, plan))| ShardTask {
            shard: k as u32,
            trace,
            plan: Some(plan),
            wal: Some(shard_wal(dir, k as u32)),
            jck: Some(shard_jck(dir, k as u32)),
            die_after,
            kind: kind.clone(),
        })
        .collect();
    run_shard_tasks(cfg, mode, tasks)
}
