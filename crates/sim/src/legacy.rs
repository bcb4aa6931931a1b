//! The pre-refactor monolithic replay loop, kept verbatim (test-only) as
//! the oracle for the event-driven [`Engine`](crate::Engine): the
//! regression tests at the bottom assert that a
//! [`Simulation`](crate::Simulation) reproduces this loop's physics bit for
//! bit across representative configurations.

use jpmd_disk::{Disk, SpinDownPolicy};
use jpmd_mem::MemoryManager;
use jpmd_stats::{IdleIntervals, Welford};
use jpmd_trace::{AccessKind, Trace};

use crate::{
    EnergyBreakdown, EngineStats, PeriodController, PeriodObservation, PeriodRow, RunReport,
    SimConfig,
};

/// The original monolithic replay loop, unchanged except for filling
/// the new [`RunReport::engine`] field with a default (the legacy loop has
/// no event counters).
#[allow(clippy::too_many_lines)]
pub fn run_simulation_legacy(
    config: &SimConfig,
    mut spindown: SpinDownPolicy,
    controller: &mut dyn PeriodController,
    trace: &Trace,
    duration: f64,
    label: &str,
) -> RunReport {
    config.validate();
    assert_eq!(
        trace.page_bytes(),
        config.mem.page_bytes,
        "trace and memory must agree on the page size"
    );
    assert!(
        duration > config.warmup_secs,
        "duration must exceed the warm-up window"
    );

    let page_bytes = config.mem.page_bytes;
    let mut mem = MemoryManager::new(config.mem);
    mem.set_replacement(config.replacement);
    mem.set_consolidation(config.consolidate);
    let mut disk = Disk::new(
        config.disk_power,
        config.disk_service,
        trace.total_pages().max(1),
    );
    disk.set_timeout(spindown.timeout());

    // Period bookkeeping.
    let mut rows: Vec<PeriodRow> = Vec::new();
    let mut period_start = 0.0f64;
    let mut next_period = config.period_secs;
    let mut p_acc = 0u64;
    let mut p_req = 0u64;
    let mut p_busy = 0.0f64;
    let mut p_delayed = 0u64;
    let mut p_energy = EnergyBreakdown::default();
    let mut period_disk_times: Vec<f64> = Vec::new();

    // Dirty-page flush daemon.
    let mut next_sync = config.sync_interval_secs;
    // All pages moved between disk and memory (read misses + write-backs).
    let mut disk_pages = 0u64;
    let mut p_pages = 0u64;
    let mut w_pages = 0u64;

    // Measured-window bookkeeping (post warm-up).
    let mut warm = config.warmup_secs <= 0.0;
    let mut w_energy = EnergyBreakdown::default();
    let mut w_acc = 0u64;
    let mut w_hits = 0u64;
    let mut w_req = 0u64;
    let mut w_busy = 0.0f64;
    let mut w_spin = 0u64;
    let mut latency = Welford::new();
    let mut request_latencies: Vec<f64> = Vec::new();
    let mut long_count = 0u64;

    macro_rules! snapshot_energy {
        () => {
            EnergyBreakdown {
                mem: mem.energy(),
                disk: disk.energy(),
            }
        };
    }

    macro_rules! submit_writes {
        ($pages:expr, $at:expr) => {
            let mut pages: Vec<u64> = $pages;
            pages.sort_unstable();
            let at: f64 = $at;
            let mut i = 0usize;
            while i < pages.len() {
                let first = pages[i];
                let mut len = 1u64;
                while i + (len as usize) < pages.len() && pages[i + len as usize] == first + len {
                    len += 1;
                }
                let outcome = disk.submit(at, first, len, page_bytes);
                let timeout = spindown.after_request(&outcome, &config.disk_power);
                disk.set_timeout(timeout);
                period_disk_times.push(at);
                disk_pages += len;
                i += len as usize;
            }
        };
    }

    macro_rules! advance_to {
        ($t:expr) => {
            let target: f64 = $t;
            loop {
                let pm_boundary = if !warm && config.warmup_secs <= next_period {
                    config.warmup_secs
                } else {
                    next_period
                };
                let boundary = pm_boundary.min(next_sync);
                if boundary > target {
                    break;
                }
                if next_sync < pm_boundary {
                    // Flush daemon tick.
                    let dirty = mem.sync_dirty();
                    submit_writes!(dirty, next_sync);
                    next_sync += config.sync_interval_secs;
                    continue;
                }
                mem.settle(boundary);
                disk.settle(boundary);
                if !warm && boundary == config.warmup_secs {
                    warm = true;
                    w_energy = snapshot_energy!();
                    w_acc = mem.accesses();
                    w_hits = mem.hits();
                    w_req = disk.requests();
                    w_busy = disk.busy_secs();
                    w_spin = disk.spin_downs();
                    w_pages = disk_pages;
                    if config.warmup_secs < next_period {
                        continue;
                    }
                }
                // Period boundary.
                let observation = PeriodObservation {
                    start: period_start,
                    end: boundary,
                    cache_accesses: mem.accesses() - p_acc,
                    disk_page_accesses: disk_pages - p_pages,
                    disk_requests: disk.requests() - p_req,
                    disk_busy_secs: disk.busy_secs() - p_busy,
                    idle: IdleIntervals::from_timestamps(
                        &period_disk_times,
                        config.aggregation_window_secs,
                    )
                    .stats(),
                    delayed_page_accesses: p_delayed,
                    enabled_banks: mem.enabled_banks(),
                    disk_timeout: disk.timeout(),
                    energy_total_j: snapshot_energy!().since(&p_energy).total_j(),
                };
                let log = mem.take_log();
                let action = controller.on_period_end(&observation, &log);
                if let Some(banks) = action.enabled_banks {
                    mem.set_enabled_banks(banks, boundary);
                }
                if let Some(t) = action.disk_timeout {
                    spindown.set_controlled_timeout(t);
                    disk.set_timeout(t);
                }
                rows.push(PeriodRow {
                    observation,
                    action,
                });
                period_start = boundary;
                next_period = boundary + config.period_secs;
                p_acc = mem.accesses();
                p_pages = disk_pages;
                p_req = disk.requests();
                p_busy = disk.busy_secs();
                p_delayed = 0;
                p_energy = snapshot_energy!();
                period_disk_times.clear();
            }
        };
    }

    let mut max_latency = 0.0f64;
    for record in trace.records() {
        if record.time >= duration {
            break;
        }
        advance_to!(record.time);
        let now = record.time;
        let measuring = warm;
        let is_write = record.kind == AccessKind::Write;

        // Walk the record's pages, coalescing misses into runs.
        let mut run_start: Option<u64> = None;
        let mut run_len = 0u64;
        macro_rules! flush_run {
            () => {
                if let Some(first) = run_start.take() {
                    let outcome = disk.submit(now, first, run_len, page_bytes);
                    let timeout = spindown.after_request(&outcome, &config.disk_power);
                    disk.set_timeout(timeout);
                    period_disk_times.push(now);
                    disk_pages += run_len;
                    if outcome.latency > config.long_latency_secs {
                        p_delayed += run_len;
                    }
                    if measuring {
                        request_latencies.push(outcome.latency);
                        for _ in 0..run_len {
                            latency.push(outcome.latency);
                        }
                        if outcome.latency > config.long_latency_secs {
                            long_count += run_len;
                        }
                        if outcome.latency > max_latency {
                            max_latency = outcome.latency;
                        }
                    }
                    #[allow(unused_assignments)]
                    {
                        run_len = 0;
                    }
                }
            };
        }
        for page in record.page_range() {
            let served_from_memory = mem.access_rw(page, now, is_write);
            if served_from_memory {
                flush_run!();
                if measuring {
                    latency.push(0.0);
                }
            } else {
                if run_start.is_none() {
                    run_start = Some(page);
                }
                run_len += 1;
            }
        }
        flush_run!();
        let writebacks = mem.take_writebacks();
        if !writebacks.is_empty() {
            submit_writes!(writebacks, now);
        }
    }

    // Close out remaining boundaries and settle at the end.
    advance_to!(duration);
    mem.settle(duration);
    disk.settle(duration);

    let end_energy = snapshot_energy!();
    let window = duration - config.warmup_secs;
    let cache_accesses = mem.accesses() - w_acc;
    let hits = mem.hits() - w_hits;
    RunReport {
        label: label.to_string(),
        duration_secs: window,
        energy: end_energy.since(&w_energy),
        cache_accesses,
        hits,
        disk_page_accesses: disk_pages - w_pages,
        disk_requests: disk.requests() - w_req,
        mean_latency_secs: latency.mean(),
        request_latency_p50_secs: {
            request_latencies.sort_by(f64::total_cmp);
            jpmd_stats::percentile(&request_latencies, 0.5).unwrap_or(0.0)
        },
        request_latency_p99_secs: jpmd_stats::percentile(&request_latencies, 0.99).unwrap_or(0.0),
        max_latency_secs: max_latency,
        long_latency_count: long_count,
        utilization: (disk.busy_secs() - w_busy) / window.max(f64::MIN_POSITIVE),
        spin_downs: disk.spin_downs() - w_spin,
        periods: rows,
        engine: EngineStats::default(),
        spans: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlAction, NullController, Simulation};
    use jpmd_mem::{IdlePolicy, MemConfig, RdramModel};
    use jpmd_trace::{FileId, TraceRecord, WorkloadBuilder, GIB, MIB};

    fn simulate(
        config: &SimConfig,
        spindown: SpinDownPolicy,
        controller: &mut dyn PeriodController,
        trace: &Trace,
        duration: f64,
        label: &str,
    ) -> RunReport {
        Simulation::new(config, spindown, controller, label)
            .run(trace.source(), duration)
            .expect("in-memory trace sources cannot fail")
            .into_report()
            .expect("no checkpoint policy was installed")
    }

    fn mem_config(banks: u32) -> MemConfig {
        MemConfig {
            page_bytes: 1 << 20,
            bank_pages: 4,
            total_banks: 8,
            initial_banks: banks,
            model: RdramModel::default(),
            policy: IdlePolicy::Nap,
        }
    }

    fn record(time: f64, first_page: u64, pages: u64, write: bool) -> TraceRecord {
        TraceRecord {
            time,
            file: FileId(0),
            first_page,
            pages,
            kind: if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        }
    }

    /// Bit-for-bit comparison of every physics field (everything except
    /// the engine counters, which the legacy loop does not produce).
    fn assert_physics_equal(engine: &RunReport, legacy: &RunReport) {
        assert_eq!(engine.label, legacy.label);
        assert_eq!(engine.duration_secs, legacy.duration_secs);
        assert_eq!(engine.energy, legacy.energy, "energy breakdown");
        assert_eq!(engine.cache_accesses, legacy.cache_accesses);
        assert_eq!(engine.hits, legacy.hits);
        assert_eq!(engine.disk_page_accesses, legacy.disk_page_accesses);
        assert_eq!(engine.disk_requests, legacy.disk_requests);
        assert_eq!(engine.mean_latency_secs, legacy.mean_latency_secs);
        assert_eq!(
            engine.request_latency_p50_secs,
            legacy.request_latency_p50_secs
        );
        assert_eq!(
            engine.request_latency_p99_secs,
            legacy.request_latency_p99_secs
        );
        assert_eq!(engine.max_latency_secs, legacy.max_latency_secs);
        assert_eq!(engine.long_latency_count, legacy.long_latency_count);
        assert_eq!(engine.utilization, legacy.utilization);
        assert_eq!(engine.spin_downs, legacy.spin_downs);
        assert_eq!(engine.periods, legacy.periods, "period rows");
    }

    fn synthetic_trace() -> Trace {
        WorkloadBuilder::new()
            .data_set_bytes(GIB / 4)
            .rate_bytes_per_sec(8 * MIB)
            .popularity(0.25)
            .write_fraction(0.3)
            .duration_secs(2000.0)
            .seed(11)
            .build()
            .expect("workload generation")
    }

    #[test]
    fn engine_matches_legacy_always_on_multi_period() {
        let config = SimConfig::with_mem(mem_config(8));
        let trace = synthetic_trace();
        let a = simulate(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            1800.0,
            "oracle",
        );
        let b = run_simulation_legacy(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            1800.0,
            "oracle",
        );
        assert_physics_equal(&a, &b);
        assert!(a.periods.len() >= 2);
        // The engine side additionally carries the event counters.
        assert_eq!(a.engine.counts.accesses, a.cache_accesses);
        assert_eq!(a.engine.counts.period_boundaries as usize, a.periods.len());
    }

    #[test]
    fn engine_matches_legacy_with_warmup_sync_and_spindown() {
        let mut config = SimConfig::with_mem(mem_config(4));
        config.warmup_secs = 250.0;
        config.sync_interval_secs = 30.0;
        let trace = synthetic_trace();
        let a = simulate(
            &config,
            SpinDownPolicy::two_competitive(&config.disk_power),
            &mut NullController,
            &trace,
            1900.0,
            "oracle",
        );
        let b = run_simulation_legacy(
            &config,
            SpinDownPolicy::two_competitive(&config.disk_power),
            &mut NullController,
            &trace,
            1900.0,
            "oracle",
        );
        assert_physics_equal(&a, &b);
        assert!(a.engine.counts.syncs > 0);
        assert!(a.engine.counts.warmup_ends == 1);
    }

    #[test]
    fn engine_matches_legacy_with_active_controller() {
        struct Shrinker;
        impl PeriodController for Shrinker {
            fn on_period_end(
                &mut self,
                obs: &PeriodObservation,
                _: &jpmd_mem::AccessLog,
            ) -> ControlAction {
                ControlAction {
                    enabled_banks: Some(obs.enabled_banks.saturating_sub(1).max(1)),
                    disk_timeout: Some(5.0),
                    disk_timeouts: Vec::new(),
                }
            }
            fn name(&self) -> &str {
                "shrinker"
            }
        }
        let config = SimConfig::with_mem(mem_config(8));
        let trace = synthetic_trace();
        let a = simulate(
            &config,
            SpinDownPolicy::controlled(f64::INFINITY),
            &mut Shrinker,
            &trace,
            1800.0,
            "oracle",
        );
        let b = run_simulation_legacy(
            &config,
            SpinDownPolicy::controlled(f64::INFINITY),
            &mut Shrinker,
            &trace,
            1800.0,
            "oracle",
        );
        assert_physics_equal(&a, &b);
        // Controller actions actually fired in both runs.
        assert_eq!(a.periods[0].action.enabled_banks, Some(7));
    }

    #[test]
    fn engine_matches_legacy_when_warmup_equals_period() {
        // The hairiest tie: warm-up snapshot and first period boundary at
        // the same instant, with the flush daemon also landing on it.
        let mut config = SimConfig::with_mem(mem_config(8));
        config.warmup_secs = config.period_secs;
        config.sync_interval_secs = config.period_secs / 4.0;
        let trace = synthetic_trace();
        let a = simulate(
            &config,
            SpinDownPolicy::two_competitive(&config.disk_power),
            &mut NullController,
            &trace,
            1800.0,
            "oracle",
        );
        let b = run_simulation_legacy(
            &config,
            SpinDownPolicy::two_competitive(&config.disk_power),
            &mut NullController,
            &trace,
            1800.0,
            "oracle",
        );
        assert_physics_equal(&a, &b);
    }

    // ------------------------------------------------------------------
    // Period-boundary edge cases (consistent rows from both paths).
    // ------------------------------------------------------------------

    fn check_both(config: &SimConfig, trace: &Trace, duration: f64) -> (RunReport, RunReport) {
        let a = simulate(
            config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            trace,
            duration,
            "edge",
        );
        let b = run_simulation_legacy(
            config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            trace,
            duration,
            "edge",
        );
        assert_physics_equal(&a, &b);
        (a, b)
    }

    #[test]
    fn access_exactly_on_period_boundary_lands_in_next_period() {
        let config = SimConfig::with_mem(mem_config(8));
        let p = config.period_secs;
        let trace = Trace::new(
            vec![
                record(1.0, 0, 2, false),
                record(p, 8, 2, false), // exactly on the boundary
            ],
            1 << 20,
            64,
        );
        let (a, _) = check_both(&config, &trace, 2.0 * p);
        assert_eq!(a.periods.len(), 2);
        // The boundary closes *before* the coincident record replays, so
        // its accesses belong to the second period.
        assert_eq!(a.periods[0].observation.cache_accesses, 2);
        assert_eq!(a.periods[1].observation.cache_accesses, 2);
        assert_eq!(a.engine.period_log.len(), 2);
        assert_eq!(a.engine.period_log[1].counts.accesses, 2);
    }

    #[test]
    fn warmup_equal_to_period_snapshots_then_closes_row() {
        let mut config = SimConfig::with_mem(mem_config(8));
        config.warmup_secs = config.period_secs;
        let p = config.period_secs;
        let trace = Trace::new(vec![record(1.0, 0, 4, false)], 1 << 20, 64);
        let (a, _) = check_both(&config, &trace, 2.0 * p);
        // Warm-up activity is excluded from the window but the first
        // period row still covers it.
        assert_eq!(a.cache_accesses, 0);
        assert_eq!(a.duration_secs, p);
        assert_eq!(a.periods.len(), 2);
        assert_eq!(a.periods[0].observation.cache_accesses, 4);
        assert_eq!(a.engine.counts.warmup_ends, 1);
    }

    #[test]
    fn trace_ending_mid_period_produces_no_partial_row() {
        let config = SimConfig::with_mem(mem_config(8));
        let p = config.period_secs;
        let trace = Trace::new(
            vec![record(1.0, 0, 2, false), record(p + 1.0, 4, 2, false)],
            1 << 20,
            64,
        );
        // Run ends halfway through the second period.
        let (a, _) = check_both(&config, &trace, 1.5 * p);
        assert_eq!(a.periods.len(), 1);
        assert_eq!(a.periods[0].observation.end, p);
        // The engine's event log still accounts for the partial tail.
        assert_eq!(a.engine.period_log.len(), 2);
        assert_eq!(a.engine.period_log[1].end, 1.5 * p);
        assert_eq!(a.engine.period_log[1].counts.accesses, 2);
        // A run ending exactly on a boundary closes the row instead.
        let (c, _) = check_both(&config, &trace, 2.0 * p);
        assert_eq!(c.periods.len(), 2);
        assert_eq!(c.periods[1].observation.end, 2.0 * p);
    }
}
