//! Isolation replays: one method's page stream, rebuilt from its trace
//! records, driven through each layer's public entry point on its own and
//! timed from outside.
//!
//! * `DiskCache::access` alone, with the run's bank resizes;
//! * `StackProfiler::observe` alone;
//! * `MemoryManager::access_rw` — the whole memory layer (cache, profiler,
//!   bank array, disable-timer heap, access log) — which also yields the
//!   miss runs and write-backs the engine would submit;
//! * those disk operations through `Disk::submit` and the method's
//!   spin-down policy;
//! * for the joint method, each period's `AccessLog` through candidate
//!   enumeration and `predict_sizes` (`core.predict_s`), the Pareto fits of
//!   the predicted idle intervals (`stats.fit_s`), and the full
//!   `JointPolicy::try_decide`, whose action must equal the one the real
//!   run took.
//!
//! The bank resizes and timeouts come from the real run's period rows, so
//! the replay tracks it. It leaves out what the engine adds on top: event
//! dispatch, observers, and energy accounting.

use std::hint::black_box;
use std::ops::AddAssign;
use std::time::{Duration, Instant};

use jpmd_core::predict::{candidate_banks, predict_sizes};
use jpmd_core::{methods::MethodSpec, JointConfig, JointPolicy, SimScale};
use jpmd_disk::{Disk, SpinDownPolicy};
use jpmd_mem::{AccessLog, DiskCache, MemoryManager, StackProfiler};
use jpmd_sim::{PeriodRow, SimConfig};
use jpmd_trace::{AccessKind, TraceRecord};

use crate::Ops;

/// Host seconds and work counts of the isolated layers.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotals {
    pub cache_lookup_s: f64,
    pub profiler_s: f64,
    pub access_s: f64,
    /// `access_s` of methods whose banks are disabled after a timeout.
    pub ds_access_s: f64,
    pub accesses: u64,
    pub hits: u64,
    /// Dirty pages written back on eviction or bank invalidation.
    pub writebacks: u64,
    pub submit_s: f64,
    pub requests: u64,
    pub spin_ups: u64,
    pub predict_s: f64,
    pub fit_s: f64,
    pub decisions: u64,
    pub candidates: u64,
    pub infeasible: u64,
}

impl AddAssign for LayerTotals {
    fn add_assign(&mut self, o: LayerTotals) {
        self.cache_lookup_s += o.cache_lookup_s;
        self.profiler_s += o.profiler_s;
        self.access_s += o.access_s;
        self.ds_access_s += o.ds_access_s;
        self.accesses += o.accesses;
        self.hits += o.hits;
        self.writebacks += o.writebacks;
        self.submit_s += o.submit_s;
        self.requests += o.requests;
        self.spin_ups += o.spin_ups;
        self.predict_s += o.predict_s;
        self.fit_s += o.fit_s;
        self.decisions += o.decisions;
        self.candidates += o.candidates;
        self.infeasible += o.infeasible;
    }
}

impl LayerTotals {
    /// Sets the `mem.*`, `disk.*`, `core.*` and `stats.*` metrics these
    /// totals cover.
    pub fn publish(&self, metrics: &mut crate::Metrics) {
        metrics.set("mem.cache_lookup_s", self.cache_lookup_s, "s");
        metrics.set("mem.profiler_s", self.profiler_s, "s");
        metrics.set("mem.access_s", self.access_s, "s");
        metrics.set("mem.ds_access_s", self.ds_access_s, "s");
        metrics.set("mem.accesses", self.accesses as f64, "count");
        metrics.set(
            "mem.hit_ratio",
            self.hits as f64 / self.accesses.max(1) as f64,
            "ratio",
        );
        metrics.set("mem.writebacks", self.writebacks as f64, "count");
        metrics.set("disk.submit_s", self.submit_s, "s");
        metrics.set("disk.requests", self.requests as f64, "count");
        metrics.set("disk.spin_ups", self.spin_ups as f64, "count");
        metrics.set("core.predict_s", self.predict_s, "s");
        metrics.set("stats.fit_s", self.fit_s, "s");
        metrics.set("core.decisions", self.decisions as f64, "count");
        metrics.set(
            "core.candidates_mean",
            self.candidates as f64 / self.decisions.max(1) as f64,
            "count",
        );
        metrics.set("core.infeasible_periods", self.infeasible as f64, "count");
    }
}

/// One method as the engine runs it: the wiring of
/// `methods::run_method_checkpointed`, plus the real run's period rows.
pub struct Method<'a> {
    pub sim: SimConfig,
    pub spindown: SpinDownPolicy,
    pub joint: Option<JointConfig>,
    pub rows: &'a [PeriodRow],
}

impl<'a> Method<'a> {
    pub fn new(
        spec: &MethodSpec,
        scale: &SimScale,
        warmup_secs: f64,
        period_secs: f64,
        rows: &'a [PeriodRow],
    ) -> Self {
        let mut sim = scale.sim_config(spec.mem_policy, spec.initial_banks);
        sim.warmup_secs = warmup_secs;
        sim.period_secs = period_secs;
        sim.replacement = spec.replacement;
        sim.consolidate = spec.consolidate;
        let joint = spec.joint.map(|mut cfg| {
            cfg.period_secs = period_secs;
            cfg
        });
        Method {
            sim,
            spindown: spec.spindown.clone(),
            joint,
            rows,
        }
    }
}

/// One contiguous disk operation: a read-miss run or coalesced
/// write-backs.
struct DiskOp {
    time: f64,
    first: u64,
    pages: u64,
}

/// Replays `records` (already cut at the run's duration) through each
/// layer of `method` in isolation.
pub fn isolate(
    records: &[TraceRecord],
    total_pages: u64,
    method: &Method,
    ops: &mut Ops,
) -> LayerTotals {
    assert!(
        method.sim.sync_interval_secs.is_infinite(),
        "isolation replays model no flush daemon"
    );
    let mut totals = LayerTotals {
        cache_lookup_s: cache_pass(records, method),
        profiler_s: profiler_pass(records),
        ..LayerTotals::default()
    };
    let disk_ops = mem_pass(records, method, &mut totals, ops);
    disk_pass(&disk_ops, total_pages, method, &mut totals);
    totals
}

/// The period rows whose boundary falls at or before `time`; advances
/// `next` past them.
fn due_rows<'r>(rows: &'r [PeriodRow], next: &mut usize, time: f64) -> &'r [PeriodRow] {
    let start = *next;
    while *next < rows.len() && rows[*next].observation.end <= time {
        *next += 1;
    }
    &rows[start..*next]
}

fn cache_pass(records: &[TraceRecord], method: &Method) -> f64 {
    let mem = &method.sim.mem;
    let mut cache = DiskCache::new(mem.total_banks, mem.bank_pages);
    cache.set_replacement(method.sim.replacement);
    if mem.initial_banks != mem.total_banks {
        cache.resize(mem.initial_banks);
    }
    let mut next = 0;
    let start = Instant::now();
    for record in records {
        for row in due_rows(method.rows, &mut next, record.time) {
            if let Some(banks) = row.action.enabled_banks {
                cache.resize(banks);
            }
        }
        for page in record.page_range() {
            black_box(cache.access(page));
        }
    }
    start.elapsed().as_secs_f64()
}

fn profiler_pass(records: &[TraceRecord]) -> f64 {
    let mut profiler = StackProfiler::new();
    let start = Instant::now();
    for record in records {
        for page in record.page_range() {
            black_box(profiler.observe(page));
        }
    }
    start.elapsed().as_secs_f64()
}

/// Appends `pages` as coalesced contiguous runs, the way the engine
/// submits write-backs: never merged into the read runs before them.
fn push_runs(disk_ops: &mut Vec<DiskOp>, mut pages: Vec<u64>, time: f64) {
    pages.sort_unstable();
    let first_new = disk_ops.len();
    for page in pages {
        match disk_ops[first_new..].last_mut() {
            Some(op) if op.first + op.pages == page => op.pages += 1,
            _ => disk_ops.push(DiskOp {
                time,
                first: page,
                pages: 1,
            }),
        }
    }
}

fn mem_pass(
    records: &[TraceRecord],
    method: &Method,
    totals: &mut LayerTotals,
    ops: &mut Ops,
) -> Vec<DiskOp> {
    let sim = &method.sim;
    let mut mem = MemoryManager::new(sim.mem);
    mem.set_replacement(sim.replacement);
    mem.set_consolidation(sim.consolidate);
    let mut policy = method.joint.map(JointPolicy::new);
    let mut disk_ops = Vec::new();
    let mut decisions = Duration::ZERO;
    let mut next = 0;

    // Closes one period; returns the time spent deciding, which is the
    // core layer's, not the memory layer's.
    let mut boundary = |mem: &mut MemoryManager, row: &PeriodRow, totals: &mut LayerTotals| {
        let t = row.observation.end;
        mem.settle(t);
        let log = mem.take_log();
        let mut spent = Duration::ZERO;
        if let (Some(policy), Some(cfg)) = (policy.as_mut(), method.joint.as_ref()) {
            let start = Instant::now();
            decide(policy, cfg, row, &log, totals, ops);
            spent = start.elapsed();
        }
        if let Some(banks) = row.action.enabled_banks {
            mem.set_enabled_banks(banks, t);
        }
        spent
    };

    let start = Instant::now();
    for record in records {
        for row in due_rows(method.rows, &mut next, record.time) {
            decisions += boundary(&mut mem, row, totals);
        }
        let write = record.kind == AccessKind::Write;
        let mut run: Option<DiskOp> = None;
        for page in record.page_range() {
            if mem.access_rw(page, record.time, write) {
                disk_ops.extend(run.take());
            } else {
                match run.as_mut() {
                    Some(op) => op.pages += 1,
                    None => {
                        run = Some(DiskOp {
                            time: record.time,
                            first: page,
                            pages: 1,
                        })
                    }
                }
            }
        }
        disk_ops.extend(run);
        let writebacks = mem.take_writebacks();
        if !writebacks.is_empty() {
            totals.writebacks += writebacks.len() as u64;
            push_runs(&mut disk_ops, writebacks, record.time);
        }
    }
    let elapsed = start.elapsed().saturating_sub(decisions).as_secs_f64();
    for row in &method.rows[next..] {
        boundary(&mut mem, row, totals);
    }
    totals.access_s += elapsed;
    if sim.mem.policy.disable_after().is_some() {
        totals.ds_access_s += elapsed;
    }
    totals.accesses += mem.accesses();
    totals.hits += mem.hits();
    disk_ops
}

/// One joint decision: prediction and fits timed on their own, then the
/// full decision, whose action must match the real run's.
fn decide(
    policy: &mut JointPolicy,
    cfg: &JointConfig,
    row: &PeriodRow,
    log: &AccessLog,
    totals: &mut LayerTotals,
    ops: &mut Ops,
) {
    let obs = &row.observation;
    if !log.is_empty() {
        let start = Instant::now();
        let banks = candidate_banks(log, cfg.bank_pages, cfg.min_banks, cfg.total_banks);
        let capacities: Vec<u64> = banks
            .iter()
            .map(|&b| u64::from(b) * u64::from(cfg.bank_pages))
            .collect();
        let predictions = predict_sizes(log, &capacities, cfg.window_secs);
        totals.predict_s += start.elapsed().as_secs_f64();

        let start = Instant::now();
        for prediction in &predictions {
            let bounded = prediction.with_period_bounds(obs.start, obs.end, cfg.window_secs);
            if let Some(mean) = bounded.idle_mean_secs() {
                let _ = black_box(jpmd_stats::fit::pareto_from_mean(mean, cfg.window_secs));
            }
        }
        totals.fit_s += start.elapsed().as_secs_f64();
    }
    let action = match policy.try_decide(obs, log) {
        Ok(action) => action,
        Err(failure) => {
            if failure.error.kind() == "all_infeasible" {
                totals.infeasible += 1;
            }
            failure.fallback
        }
    };
    totals.decisions += 1;
    totals.candidates += policy.last_evaluations().len() as u64;
    ops.check(action == row.action, || {
        format!(
            "isolated decision at t={} took {action:?}, the run took {:?}",
            obs.end, row.action
        )
    });
}

fn disk_pass(disk_ops: &[DiskOp], total_pages: u64, method: &Method, totals: &mut LayerTotals) {
    let sim = &method.sim;
    let mut disk = Disk::new(sim.disk_power, sim.disk_service, total_pages);
    let mut spindown = method.spindown.clone();
    disk.set_timeout(spindown.timeout());
    let mut next = 0;
    let start = Instant::now();
    for op in disk_ops {
        for row in due_rows(method.rows, &mut next, op.time) {
            if let (true, Some(timeout)) = (method.joint.is_some(), row.action.disk_timeout) {
                spindown.set_controlled_timeout(timeout);
                disk.set_timeout(timeout);
            }
        }
        let outcome = disk.submit(op.time, op.first, op.pages, sim.mem.page_bytes);
        let timeout = spindown.after_request(&outcome, &sim.disk_power);
        disk.set_timeout(timeout);
        totals.spin_ups += u64::from(outcome.woke_disk);
    }
    totals.submit_s += start.elapsed().as_secs_f64();
    totals.requests += disk_ops.len() as u64;
}
