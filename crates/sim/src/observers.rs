//! The standard observer stack: the components that used to be inline
//! state in the monolithic replay loop, each now owning one concern.
//!
//! [`Simulation`](crate::Simulation) registers them in a
//! **load-bearing order** — `[WarmupWindow, PeriodAccounting, FlushDaemon,
//! LatencyTracker, EnergyMeter]` — because the engine fires same-instant
//! timers in registration order. That reproduces the legacy loop's
//! tie-breaks exactly: when the warm-up end, a period boundary, and a sync
//! tick coincide, the warm-up snapshot is taken first, then the period row
//! is closed, then the flush daemon writes back (its traffic lands in the
//! *next* period).

use jpmd_obs::{Counter, ObsEvent, Telemetry};
use jpmd_stats::{IdleIntervals, Welford};
use serde::{Deserialize, Serialize};

use crate::{
    EnergyBreakdown, HwState, PeriodController, PeriodObservation, PeriodRow, SimConfig, SimEvent,
    SimObserver,
};

/// Ends the warm-up window: settles the hardware at `warmup_secs` and emits
/// [`SimEvent::WarmupEnd`], which the metering observers use to snapshot
/// their baselines. With a non-positive warm-up no event is ever emitted
/// (measurement covers the whole run and all baselines stay zero).
pub struct WarmupWindow {
    at: f64,
    done: bool,
}

impl WarmupWindow {
    /// A warm-up window ending at `warmup_secs`.
    pub fn new(warmup_secs: f64) -> Self {
        WarmupWindow {
            at: warmup_secs,
            done: warmup_secs <= 0.0,
        }
    }
}

/// Serializable image of a [`WarmupWindow`].
#[derive(Serialize, Deserialize)]
struct WarmupSnapshot {
    at: f64,
    done: bool,
}

impl SimObserver for WarmupWindow {
    fn next_timer(&self) -> f64 {
        if self.done {
            f64::INFINITY
        } else {
            self.at
        }
    }

    fn on_timer(&mut self, t: f64, hw: &mut HwState, out: &mut Vec<SimEvent>) {
        self.done = true;
        hw.settle(t);
        out.push(SimEvent::WarmupEnd { time: t });
    }

    fn snapshot_state(&self) -> serde::Value {
        WarmupSnapshot {
            at: self.at,
            done: self.done,
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let snapshot = WarmupSnapshot::from_value(state)?;
        self.at = snapshot.at;
        self.done = snapshot.done;
        Ok(())
    }
}

/// Closes control periods: at every period boundary it settles the
/// hardware, builds the [`PeriodObservation`] from the since-last-boundary
/// deltas, invokes the controller, applies its [`ControlAction`]
/// (memory resize, disk timeout) to the hardware, records the
/// [`PeriodRow`], and emits [`SimEvent::PeriodBoundary`].
///
/// Generic over the controller: a run may own its controller or borrow it
/// (`&mut C` and `Box<C>` satisfy [`PeriodController`] via the blanket
/// impls in the controller module).
///
/// [`ControlAction`]: crate::ControlAction
pub struct PeriodAccounting<C> {
    controller: C,
    period_secs: f64,
    aggregation_window_secs: f64,
    long_latency_secs: f64,
    period_start: f64,
    next_period: f64,
    p_acc: u64,
    p_pages: u64,
    p_req: u64,
    /// Each member disk's busy seconds at the last boundary: the period's
    /// busy time sums per-member deltas.
    p_busy: Vec<f64>,
    p_delayed: u64,
    p_energy: EnergyBreakdown,
    rows: Vec<PeriodRow>,
}

impl<C: PeriodController> PeriodAccounting<C> {
    /// Period accounting driving `controller` every
    /// [`SimConfig::period_secs`], with idle intervals aggregated at
    /// [`SimConfig::aggregation_window_secs`] (paper Sec. 4.2). User page
    /// accesses slower than [`SimConfig::long_latency_secs`] count as the
    /// period's delayed accesses (the observation's delayed-request ratio,
    /// paper eq. 6).
    pub fn new(controller: C, config: &SimConfig) -> Self {
        PeriodAccounting {
            controller,
            period_secs: config.period_secs,
            aggregation_window_secs: config.aggregation_window_secs,
            long_latency_secs: config.long_latency_secs,
            period_start: 0.0,
            next_period: config.period_secs,
            p_acc: 0,
            p_pages: 0,
            p_req: 0,
            p_busy: vec![0.0; config.array.disks],
            p_delayed: 0,
            p_energy: EnergyBreakdown::default(),
            rows: Vec::new(),
        }
    }

    /// The recorded period rows (one per closed period; a trailing partial
    /// period produces no row, exactly like the legacy loop).
    pub fn into_rows(self) -> Vec<PeriodRow> {
        self.rows
    }

    /// The rows recorded so far — incremental drivers poll this after each
    /// record to see freshly closed periods and their control actions.
    pub fn rows(&self) -> &[PeriodRow] {
        &self.rows
    }

    /// The wrapped controller.
    pub fn controller(&self) -> &C {
        &self.controller
    }
}

/// Serializable image of [`PeriodAccounting`]'s dynamic state. The wrapped
/// controller's state rides along in `controller` — this is the seam that
/// routes a policy's learned state (LRU stack fits, degradation level)
/// into checkpoints without the engine knowing about controllers.
#[derive(Serialize, Deserialize)]
struct PeriodAccountingSnapshot {
    period_start: f64,
    next_period: f64,
    p_acc: u64,
    p_pages: u64,
    p_req: u64,
    p_busy: Vec<f64>,
    p_delayed: u64,
    p_energy: EnergyBreakdown,
    rows: Vec<PeriodRow>,
    controller: serde::Value,
}

impl<C: PeriodController> SimObserver for PeriodAccounting<C> {
    fn next_timer(&self) -> f64 {
        self.next_period
    }

    fn on_timer(&mut self, t: f64, hw: &mut HwState, out: &mut Vec<SimEvent>) {
        hw.settle(t);
        let observation = PeriodObservation {
            start: self.period_start,
            end: t,
            cache_accesses: hw.mem.accesses() - self.p_acc,
            disk_page_accesses: hw.disk_pages - self.p_pages,
            disk_requests: hw.disks.requests() - self.p_req,
            disk_busy_secs: hw
                .disks
                .disks()
                .iter()
                .zip(&self.p_busy)
                .map(|(disk, p_busy)| disk.busy_secs() - p_busy)
                .sum(),
            idle: IdleIntervals::from_timestamps(
                &hw.period_disk_times,
                self.aggregation_window_secs,
            )
            .stats(),
            delayed_page_accesses: self.p_delayed,
            enabled_banks: hw.mem.enabled_banks(),
            disk_timeout: hw.disk_timeout(),
            energy_total_j: hw.snapshot_energy().since(&self.p_energy).total_j(),
        };
        // One log buffer serves every period: the controller reads it in
        // place, and it is emptied before the action applies.
        let action = self.controller.on_period_end(&observation, hw.mem.log());
        hw.mem.clear_log();
        hw.apply_action(&action, t);
        out.push(SimEvent::PeriodBoundary {
            index: self.rows.len(),
            start: self.period_start,
            end: t,
        });
        self.rows.push(PeriodRow {
            observation,
            action,
        });
        self.period_start = t;
        self.next_period = t + self.period_secs;
        self.p_acc = hw.mem.accesses();
        self.p_pages = hw.disk_pages;
        self.p_req = hw.disks.requests();
        for (p_busy, disk) in self.p_busy.iter_mut().zip(hw.disks.disks()) {
            *p_busy = disk.busy_secs();
        }
        self.p_delayed = 0;
        self.p_energy = hw.snapshot_energy();
        hw.period_disk_times.clear();
    }

    fn on_event(&mut self, event: &SimEvent, _hw: &mut HwState) {
        if let SimEvent::DiskRequest {
            latency,
            pages,
            user: true,
            ..
        } = *event
        {
            if latency > self.long_latency_secs {
                self.p_delayed += pages;
            }
        }
    }

    fn snapshot_state(&self) -> serde::Value {
        PeriodAccountingSnapshot {
            period_start: self.period_start,
            next_period: self.next_period,
            p_acc: self.p_acc,
            p_pages: self.p_pages,
            p_req: self.p_req,
            p_busy: self.p_busy.clone(),
            p_delayed: self.p_delayed,
            p_energy: self.p_energy,
            rows: self.rows.clone(),
            controller: self.controller.snapshot_state(),
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let snapshot = PeriodAccountingSnapshot::from_value(state)?;
        self.period_start = snapshot.period_start;
        self.next_period = snapshot.next_period;
        self.p_acc = snapshot.p_acc;
        self.p_pages = snapshot.p_pages;
        self.p_req = snapshot.p_req;
        self.p_busy = snapshot.p_busy;
        self.p_delayed = snapshot.p_delayed;
        self.p_energy = snapshot.p_energy;
        self.rows = snapshot.rows;
        self.controller.restore_state(&snapshot.controller)
    }
}

/// The dirty-page flush daemon: every `interval` it writes all dirty pages
/// back to the disk as coalesced background requests (emitted as
/// [`SimEvent::DiskRequest`] with `user: false`, followed by one
/// [`SimEvent::Sync`] per tick). Deliberately does *not* settle the
/// hardware — background flushes poke the disk without advancing the
/// metering clocks, matching the legacy loop.
pub struct FlushDaemon {
    interval: f64,
    next_sync: f64,
}

impl FlushDaemon {
    /// A flush daemon ticking every `interval_secs` (infinite disables it).
    pub fn new(interval_secs: f64) -> Self {
        FlushDaemon {
            interval: interval_secs,
            next_sync: interval_secs,
        }
    }
}

/// Serializable image of a [`FlushDaemon`] (the interval is
/// configuration; only the next tick is dynamic).
#[derive(Serialize, Deserialize)]
struct FlushSnapshot {
    next_sync: f64,
}

impl SimObserver for FlushDaemon {
    fn next_timer(&self) -> f64 {
        self.next_sync
    }

    fn on_timer(&mut self, t: f64, hw: &mut HwState, out: &mut Vec<SimEvent>) {
        let dirty = hw.mem.sync_dirty();
        let pages = dirty.len() as u64;
        out.extend(hw.submit_writes(dirty, t));
        out.push(SimEvent::Sync { time: t, pages });
        self.next_sync += self.interval;
    }

    fn snapshot_state(&self) -> serde::Value {
        FlushSnapshot {
            next_sync: self.next_sync,
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        self.next_sync = FlushSnapshot::from_value(state)?.next_sync;
        Ok(())
    }
}

/// User-visible latency inside the measured window.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Mean per-page access latency, s (hits contribute 0).
    pub mean_latency_secs: f64,
    /// Median user disk-request latency, s.
    pub request_latency_p50_secs: f64,
    /// 99th-percentile user disk-request latency, s.
    pub request_latency_p99_secs: f64,
    /// Worst user request latency, s.
    pub max_latency_secs: f64,
    /// Page accesses with latency above the long-latency threshold.
    pub long_latency_count: u64,
}

/// Tracks user-visible latency: every measured page access contributes to
/// the mean (hits as 0, each page of a missed run as the run's request
/// latency); user disk requests feed the percentile sample. Background
/// flushes (`user: false`) are ignored. Measurement starts at
/// [`SimEvent::WarmupEnd`] (immediately, for a non-positive warm-up).
pub struct LatencyTracker {
    measuring: bool,
    long_threshold: f64,
    latency: Welford,
    request_latencies: Vec<f64>,
    long_count: u64,
    max_latency: f64,
}

impl LatencyTracker {
    /// A tracker measuring after `warmup_secs`, counting accesses slower
    /// than `long_latency_secs` as long-latency (paper: 0.5 s).
    pub fn new(warmup_secs: f64, long_latency_secs: f64) -> Self {
        LatencyTracker {
            measuring: warmup_secs <= 0.0,
            long_threshold: long_latency_secs,
            latency: Welford::new(),
            request_latencies: Vec::new(),
            long_count: 0,
            max_latency: 0.0,
        }
    }

    /// Final latency statistics over the measured window.
    pub fn finalize(mut self) -> LatencySummary {
        self.request_latencies.sort_by(f64::total_cmp);
        LatencySummary {
            mean_latency_secs: self.latency.mean(),
            request_latency_p50_secs: jpmd_stats::percentile(&self.request_latencies, 0.5)
                .unwrap_or(0.0),
            request_latency_p99_secs: jpmd_stats::percentile(&self.request_latencies, 0.99)
                .unwrap_or(0.0),
            max_latency_secs: self.max_latency,
            long_latency_count: self.long_count,
        }
    }
}

/// Serializable image of a [`LatencyTracker`].
#[derive(Serialize, Deserialize)]
struct LatencySnapshot {
    measuring: bool,
    latency: Welford,
    request_latencies: Vec<f64>,
    long_count: u64,
    max_latency: f64,
}

impl SimObserver for LatencyTracker {
    fn snapshot_state(&self) -> serde::Value {
        LatencySnapshot {
            measuring: self.measuring,
            latency: self.latency,
            request_latencies: self.request_latencies.clone(),
            long_count: self.long_count,
            max_latency: self.max_latency,
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let snapshot = LatencySnapshot::from_value(state)?;
        self.measuring = snapshot.measuring;
        self.latency = snapshot.latency;
        self.request_latencies = snapshot.request_latencies;
        self.long_count = snapshot.long_count;
        self.max_latency = snapshot.max_latency;
        Ok(())
    }

    fn on_event(&mut self, event: &SimEvent, _hw: &mut HwState) {
        match *event {
            SimEvent::WarmupEnd { .. } => self.measuring = true,
            SimEvent::Access { hit: true, .. } if self.measuring => self.latency.push(0.0),
            SimEvent::DiskRequest {
                latency,
                pages,
                user: true,
                ..
            } if self.measuring => {
                self.request_latencies.push(latency);
                for _ in 0..pages {
                    self.latency.push(latency);
                }
                if latency > self.long_threshold {
                    self.long_count += pages;
                }
                if latency > self.max_latency {
                    self.max_latency = latency;
                }
            }
            _ => {}
        }
    }
}

/// Measured-window energy and traffic totals.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergySummary {
    /// Energy consumed inside the window.
    pub energy: EnergyBreakdown,
    /// Page lookups inside the window.
    pub cache_accesses: u64,
    /// Lookups served from memory.
    pub hits: u64,
    /// Pages moved between disk and memory.
    pub disk_page_accesses: u64,
    /// Disk requests (user + background; sub-requests count one by one).
    pub disk_requests: u64,
    /// Fraction of the window the disks were busy (mean over members).
    pub utilization: f64,
    /// Disk spin-downs inside the window.
    pub spin_downs: u64,
}

/// Meters energy and traffic over the measured window: snapshots baselines
/// at [`SimEvent::WarmupEnd`] (the hardware is already settled there by
/// [`WarmupWindow`]) and reports end-of-run deltas via
/// [`EnergyMeter::finalize`].
#[derive(Default)]
pub struct EnergyMeter {
    baseline: EnergyBreakdown,
    acc: u64,
    hits: u64,
    req: u64,
    busy: f64,
    spins: u64,
    pages: u64,
}

impl EnergyMeter {
    /// A meter with all-zero baselines (measuring from t = 0 until a
    /// [`SimEvent::WarmupEnd`] re-baselines it).
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Measured-window totals; `hw` must already be settled at the run's
    /// end (the engine guarantees this) and `window` is the measured
    /// duration. Utilization is the mean over member disks.
    pub fn finalize(&self, hw: &HwState, window: f64) -> EnergySummary {
        let disks = hw.disks.len() as f64;
        EnergySummary {
            energy: hw.snapshot_energy().since(&self.baseline),
            cache_accesses: hw.mem.accesses() - self.acc,
            hits: hw.mem.hits() - self.hits,
            disk_page_accesses: hw.disk_pages - self.pages,
            disk_requests: hw.disks.requests() - self.req,
            utilization: (hw.disks.busy_secs() - self.busy)
                / (disks * window.max(f64::MIN_POSITIVE)),
            spin_downs: hw.disks.spin_downs() - self.spins,
        }
    }
}

/// Serializable image of an [`EnergyMeter`] (the measured-window
/// baselines).
#[derive(Serialize, Deserialize)]
struct EnergyMeterSnapshot {
    baseline: EnergyBreakdown,
    acc: u64,
    hits: u64,
    req: u64,
    busy: f64,
    spins: u64,
    pages: u64,
}

impl SimObserver for EnergyMeter {
    fn on_event(&mut self, event: &SimEvent, hw: &mut HwState) {
        if let SimEvent::WarmupEnd { .. } = event {
            self.baseline = hw.snapshot_energy();
            self.acc = hw.mem.accesses();
            self.hits = hw.mem.hits();
            self.req = hw.disks.requests();
            self.busy = hw.disks.busy_secs();
            self.spins = hw.disks.spin_downs();
            self.pages = hw.disk_pages;
        }
    }

    fn snapshot_state(&self) -> serde::Value {
        EnergyMeterSnapshot {
            baseline: self.baseline,
            acc: self.acc,
            hits: self.hits,
            req: self.req,
            busy: self.busy,
            spins: self.spins,
            pages: self.pages,
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let snapshot = EnergyMeterSnapshot::from_value(state)?;
        self.baseline = snapshot.baseline;
        self.acc = snapshot.acc;
        self.hits = snapshot.hits;
        self.req = snapshot.req;
        self.busy = snapshot.busy;
        self.spins = snapshot.spins;
        self.pages = snapshot.pages;
        Ok(())
    }
}

/// Streams engine activity into a [`Telemetry`] handle: whole-run counters
/// into its metrics registry, and one [`ObsEvent::Period`] per period
/// boundary carrying the period's traffic deltas and energy.
///
/// Purely passive — it only reads the hardware state — so registering it
/// cannot perturb the simulation; [`Simulation`](crate::Simulation)
/// registers it **last** (after the standard stack) and only when the
/// telemetry handle is enabled, keeping the disabled path free of it
/// entirely.
pub struct TelemetryObserver {
    telemetry: Telemetry,
    energy_base: EnergyBreakdown,
    accesses: u64,
    hits: u64,
    misses: u64,
    disk_requests: u64,
    syncs: u64,
    c_accesses: Counter,
    c_hits: Counter,
    c_misses: Counter,
    c_disk_requests: Counter,
    c_syncs: Counter,
    c_periods: Counter,
}

impl TelemetryObserver {
    /// An observer emitting through `telemetry` (and its registry).
    pub fn new(telemetry: &Telemetry) -> Self {
        let registry = telemetry.registry();
        TelemetryObserver {
            telemetry: telemetry.clone(),
            energy_base: EnergyBreakdown::default(),
            accesses: 0,
            hits: 0,
            misses: 0,
            disk_requests: 0,
            syncs: 0,
            c_accesses: registry.counter("sim.accesses"),
            c_hits: registry.counter("sim.hits"),
            c_misses: registry.counter("sim.misses"),
            c_disk_requests: registry.counter("sim.disk_requests"),
            c_syncs: registry.counter("sim.syncs"),
            c_periods: registry.counter("sim.periods"),
        }
    }
}

/// Serializable image of a [`TelemetryObserver`]'s per-period deltas
/// (counter handles are rebuilt from the live registry on resume; the
/// registry's own totals restart, which is fine — registry metrics are
/// advisory, not part of report equality).
#[derive(Serialize, Deserialize)]
struct TelemetrySnapshot {
    energy_base: EnergyBreakdown,
    accesses: u64,
    hits: u64,
    misses: u64,
    disk_requests: u64,
    syncs: u64,
}

impl SimObserver for TelemetryObserver {
    fn snapshot_state(&self) -> serde::Value {
        TelemetrySnapshot {
            energy_base: self.energy_base,
            accesses: self.accesses,
            hits: self.hits,
            misses: self.misses,
            disk_requests: self.disk_requests,
            syncs: self.syncs,
        }
        .to_value()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let snapshot = TelemetrySnapshot::from_value(state)?;
        self.energy_base = snapshot.energy_base;
        self.accesses = snapshot.accesses;
        self.hits = snapshot.hits;
        self.misses = snapshot.misses;
        self.disk_requests = snapshot.disk_requests;
        self.syncs = snapshot.syncs;
        Ok(())
    }

    fn on_event(&mut self, event: &SimEvent, hw: &mut HwState) {
        match *event {
            SimEvent::Access { hit, .. } => {
                self.accesses += 1;
                self.c_accesses.inc();
                if hit {
                    self.hits += 1;
                    self.c_hits.inc();
                }
            }
            SimEvent::Miss { .. } => {
                self.misses += 1;
                self.c_misses.inc();
            }
            SimEvent::DiskRequest { .. } => {
                self.disk_requests += 1;
                self.c_disk_requests.inc();
            }
            SimEvent::Sync { .. } => {
                self.syncs += 1;
                self.c_syncs.inc();
            }
            SimEvent::WarmupEnd { time } => {
                self.telemetry
                    .emit_with(|| ObsEvent::WarmupEnd { sim_time_s: time });
            }
            SimEvent::PeriodBoundary { index, start, end } => {
                self.c_periods.inc();
                // The hardware is already settled at `end` by
                // PeriodAccounting, so the snapshot is exact.
                let energy = hw.snapshot_energy();
                let energy_j = (energy - self.energy_base).total_j();
                self.telemetry.emit_with(|| ObsEvent::Period {
                    index: index as u64,
                    start_s: start,
                    end_s: end,
                    accesses: self.accesses,
                    hits: self.hits,
                    misses: self.misses,
                    disk_requests: self.disk_requests,
                    syncs: self.syncs,
                    energy_j,
                });
                self.energy_base = energy;
                self.accesses = 0;
                self.hits = 0;
                self.misses = 0;
                self.disk_requests = 0;
                self.syncs = 0;
            }
        }
    }
}
