use serde::{Deserialize, Serialize};

use jpmd_mem::AccessLog;
use jpmd_stats::IntervalStats;

use crate::ArrayConfig;

/// What the simulator observed during one control period — the inputs of
/// paper Fig. 2's "collect information of disk accesses and idle intervals"
/// box.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodObservation {
    /// Period start time, s.
    pub start: f64,
    /// Period end time (the decision instant), s.
    pub end: f64,
    /// Disk-cache accesses during the period (the paper's `N`).
    pub cache_accesses: u64,
    /// Disk accesses (cache misses, in pages) during the period (`n_d`).
    pub disk_page_accesses: u64,
    /// Disk requests (contiguous runs) issued during the period; on an
    /// array each member's sub-request counts once.
    pub disk_requests: u64,
    /// Seconds the disk spent serving during the period (summed over
    /// member disks).
    pub disk_busy_secs: f64,
    /// Idle intervals of the *actual* disk request stream, aggregated with
    /// window `w` (count = `n_i`, plus mean/min/max).
    pub idle: IntervalStats,
    /// Page accesses delayed past the long-latency threshold during the
    /// period (every page of a user disk request whose latency exceeded
    /// the configured threshold — paper eq. 6's delayed requests).
    #[serde(default)]
    pub delayed_page_accesses: u64,
    /// Banks enabled during (the end of) the period.
    pub enabled_banks: u32,
    /// Disk timeout in force at the end of the period (the first member's
    /// on an array), s.
    pub disk_timeout: f64,
    /// Total (memory + disk) energy spent during the period, J.
    pub energy_total_j: f64,
}

impl PeriodObservation {
    /// Disk utilization over the period.
    pub fn utilization(&self) -> f64 {
        self.disk_busy_secs / (self.end - self.start).max(f64::MIN_POSITIVE)
    }

    /// Mean total power over the period, W.
    pub fn mean_power_w(&self) -> f64 {
        self.energy_total_j / (self.end - self.start).max(f64::MIN_POSITIVE)
    }

    /// Fraction of the period's page accesses that were delayed past the
    /// long-latency threshold (the paper's delayed-request ratio, checked
    /// against the limit `D`). Zero for an idle period.
    pub fn delayed_ratio(&self) -> f64 {
        if self.cache_accesses == 0 {
            0.0
        } else {
            self.delayed_page_accesses as f64 / self.cache_accesses as f64
        }
    }
}

/// Decision returned by a [`PeriodController`]: fields left `None` (or
/// empty) keep the current setting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControlAction {
    /// Resize the disk cache to this many banks.
    pub enabled_banks: Option<u32>,
    /// Set the disk spin-down timeout to this many seconds (every member
    /// disk's, unless `disk_timeouts` names them one by one).
    pub disk_timeout: Option<f64>,
    /// Per-member spin-down timeouts, one per member disk in index order;
    /// empty leaves the members to `disk_timeout`.
    pub disk_timeouts: Vec<f64>,
}

// Hand-written so an action without per-member timeouts serializes
// exactly as before the field existed: golden digests hash period rows.
impl Serialize for ControlAction {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("enabled_banks".to_string(), self.enabled_banks.to_value()),
            ("disk_timeout".to_string(), self.disk_timeout.to_value()),
        ];
        if !self.disk_timeouts.is_empty() {
            fields.push(("disk_timeouts".to_string(), self.disk_timeouts.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for ControlAction {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            value.get(name).ok_or_else(|| {
                serde::Error::custom(format!("missing field `{name}` in ControlAction"))
            })
        };
        Ok(ControlAction {
            enabled_banks: Deserialize::from_value(field("enabled_banks")?)?,
            disk_timeout: Deserialize::from_value(field("disk_timeout")?)?,
            disk_timeouts: match value.get("disk_timeouts") {
                Some(timeouts) => Deserialize::from_value(timeouts)?,
                None => Vec::new(),
            },
        })
    }
}

/// A power manager invoked at every period boundary (paper Fig. 2).
///
/// The joint method of the paper is implemented against this trait in
/// `jpmd-core`; the static methods (2TFM, ADPD, …) use [`NullController`]
/// because their memory size and disk policy never change.
pub trait PeriodController {
    /// Tells the controller which disks it drives before the first
    /// period: the run's [`ArrayConfig`] and its page space of
    /// `total_pages` (≥ 1). Called once per run, fresh or resumed. The
    /// default ignores it (controllers that treat the disks as one).
    fn on_start(&mut self, array: ArrayConfig, total_pages: u64) {
        let _ = (array, total_pages);
    }

    /// Decides the next period's memory size and disk timeout from the
    /// last period's observation and profiled access log.
    fn on_period_end(&mut self, observation: &PeriodObservation, log: &AccessLog) -> ControlAction;

    /// Display name for reports.
    fn name(&self) -> &str {
        "static"
    }

    /// Whether [`PeriodController::on_period_end`] reads its
    /// [`AccessLog`]. The default, `true`, keeps the stack profiler and
    /// the log running for every access. A controller that ignores the log
    /// returns `false`, and the run then hands it empty logs and skips
    /// the profiler's per-page work. [`Simulation`](crate::Simulation)
    /// asks once, at start; a controller whose answer could change
    /// mid-run (a degradation guard that may re-promote a joint policy)
    /// must stay `true`, since that policy needs unbroken history.
    fn reads_access_log(&self) -> bool {
        true
    }

    /// The controller's internal state (learned models, period counters)
    /// as a serializable value, captured into checkpoints. The default
    /// ([`serde::Value::Null`]) is correct for stateless controllers such
    /// as [`NullController`].
    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restores the state captured by
    /// [`PeriodController::snapshot_state`]. The default ignores the value
    /// (stateless controllers).
    ///
    /// # Errors
    ///
    /// Returns a decode error when `state` does not match this
    /// controller's snapshot layout.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let _ = state;
        Ok(())
    }
}

/// Mutable references delegate, so `&mut dyn PeriodController` (the batch
/// simulation's wiring) satisfies generic `C: PeriodController` bounds.
impl<C: PeriodController + ?Sized> PeriodController for &mut C {
    fn on_start(&mut self, array: ArrayConfig, total_pages: u64) {
        (**self).on_start(array, total_pages);
    }

    fn on_period_end(&mut self, observation: &PeriodObservation, log: &AccessLog) -> ControlAction {
        (**self).on_period_end(observation, log)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn reads_access_log(&self) -> bool {
        (**self).reads_access_log()
    }

    fn snapshot_state(&self) -> serde::Value {
        (**self).snapshot_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        (**self).restore_state(state)
    }
}

/// Boxes delegate, so `Box<dyn PeriodController>` works where an owned
/// controller is needed (the incremental `PolicyStepper`).
impl<C: PeriodController + ?Sized> PeriodController for Box<C> {
    fn on_start(&mut self, array: ArrayConfig, total_pages: u64) {
        (**self).on_start(array, total_pages);
    }

    fn on_period_end(&mut self, observation: &PeriodObservation, log: &AccessLog) -> ControlAction {
        (**self).on_period_end(observation, log)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn reads_access_log(&self) -> bool {
        (**self).reads_access_log()
    }

    fn snapshot_state(&self) -> serde::Value {
        (**self).snapshot_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        (**self).restore_state(state)
    }
}

/// A controller that never changes anything — all non-joint methods.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullController;

impl PeriodController for NullController {
    fn on_period_end(&mut self, _: &PeriodObservation, _: &AccessLog) -> ControlAction {
        ControlAction::default()
    }

    fn reads_access_log(&self) -> bool {
        false
    }
}

/// Wraps a controller so every decision is timed under the
/// `controller.decide` span (and, when telemetry is enabled, emits a
/// `SpanEnd` event). Pure delegation otherwise — the wrapped controller's
/// decisions are untouched, which is what keeps instrumented runs
/// bit-identical to plain ones.
///
/// Generic over the controller it owns: the batch simulation instantiates
/// it with `&mut dyn PeriodController`, while a long-lived incremental
/// stepper owns its controller outright.
pub struct TimedController<C> {
    inner: C,
    spans: jpmd_obs::SpanRecorder,
    telemetry: jpmd_obs::Telemetry,
}

impl<C: PeriodController> TimedController<C> {
    /// Times `inner` under `spans`, emitting through `telemetry`.
    pub fn new(inner: C, spans: jpmd_obs::SpanRecorder, telemetry: jpmd_obs::Telemetry) -> Self {
        TimedController {
            inner,
            spans,
            telemetry,
        }
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: PeriodController> PeriodController for TimedController<C> {
    fn on_start(&mut self, array: ArrayConfig, total_pages: u64) {
        self.inner.on_start(array, total_pages);
    }

    fn on_period_end(&mut self, observation: &PeriodObservation, log: &AccessLog) -> ControlAction {
        let _span = self.spans.time_with("controller.decide", &self.telemetry);
        self.inner.on_period_end(observation, log)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reads_access_log(&self) -> bool {
        self.inner.reads_access_log()
    }

    fn snapshot_state(&self) -> serde::Value {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        self.inner.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_busy_over_span() {
        let obs = PeriodObservation {
            start: 0.0,
            end: 600.0,
            cache_accesses: 10,
            disk_page_accesses: 5,
            disk_requests: 3,
            disk_busy_secs: 60.0,
            idle: jpmd_stats::IdleIntervals::default().stats(),
            delayed_page_accesses: 2,
            enabled_banks: 4,
            disk_timeout: 11.7,
            energy_total_j: 0.0,
        };
        assert!((obs.utilization() - 0.1).abs() < 1e-12);
        assert!((obs.delayed_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn null_controller_keeps_everything() {
        let obs = PeriodObservation {
            start: 0.0,
            end: 1.0,
            cache_accesses: 0,
            disk_page_accesses: 0,
            disk_requests: 0,
            disk_busy_secs: 0.0,
            idle: jpmd_stats::IdleIntervals::default().stats(),
            delayed_page_accesses: 0,
            enabled_banks: 1,
            disk_timeout: 1.0,
            energy_total_j: 0.0,
        };
        let action = NullController.on_period_end(&obs, &AccessLog::new());
        assert_eq!(action, ControlAction::default());
        assert!(action.enabled_banks.is_none());
        assert!(action.disk_timeout.is_none());
    }

    #[test]
    fn per_member_timeouts_serialize_only_when_present() {
        let single = ControlAction {
            enabled_banks: Some(3),
            disk_timeout: Some(11.5),
            disk_timeouts: Vec::new(),
        };
        let keys = |action: &ControlAction| -> Vec<String> {
            let value = action.to_value();
            let fields = value.as_object().expect("object");
            fields.iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(keys(&single), ["enabled_banks", "disk_timeout"]);
        let array = ControlAction {
            disk_timeouts: vec![11.5, 20.0],
            ..single.clone()
        };
        assert_eq!(
            keys(&array),
            ["enabled_banks", "disk_timeout", "disk_timeouts"]
        );
        for action in [single, array] {
            let back = ControlAction::from_value(&action.to_value()).expect("round trip");
            assert_eq!(back, action);
        }
    }
}
