//! [`DegradationGuard`]: graceful degradation for the period controller.
//!
//! The guard wraps a fallible policy (the joint power manager, via
//! [`JointPolicy::try_decide`]) and turns typed decision failures into a
//! *retreat down a fallback chain* instead of a silent rescue:
//!
//! ```text
//!   joint  ──failure/watchdog──►  power_down  ──failure/watchdog──►  always_on
//!     ▲                                │                                 │
//!     └────────── backoff expired + healthy hysteresis (promote) ◄───────┘
//! ```
//!
//! * **joint** — the wrapped policy decides each period.
//! * **power_down** — full memory, fixed break-even disk timeout (the
//!   paper's 2T-style static method): safe, still saves disk energy.
//! * **always_on** — full memory, disk never spins down: the maximally
//!   conservative floor.
//!
//! Two triggers force a retreat: a typed [`PolicyFailure`] from the
//! wrapped policy (`kind = "fallback"`), and a **watchdog** observing the
//! performance constraints violated (utilization > `U` or delayed ratio >
//! `D`) for `k` consecutive periods (`kind = "watchdog"`). Each retreat
//! doubles an exponential backoff (capped); once the backoff expires the
//! guard waits for a hysteresis of consecutively healthy periods before
//! re-promoting (`kind = "promote"`, or `"recovery"` when the promotion
//! reaches the joint level again). Every transition emits one
//! [`ObsEvent::Degradation`](jpmd_obs::ObsEvent) and bumps [`GuardStats`].

use jpmd_core::{JointConfig, JointPolicy, PolicyError, PolicyFailure};
use jpmd_mem::AccessLog;
use jpmd_sim::{ArrayConfig, ControlAction, PeriodController, PeriodObservation};

use crate::plan::PolicyFaults;
use crate::rng::FaultRng;

/// A period policy whose decision can fail with a typed error carrying
/// the safe action the silent path would have taken.
pub trait FalliblePolicy {
    /// Learns which disks the policy drives, mirroring
    /// [`PeriodController::on_start`]. The default ignores it.
    fn on_start(&mut self, array: ArrayConfig, total_pages: u64) {
        let _ = (array, total_pages);
    }

    /// Decides the next period's action, or reports why it could not.
    ///
    /// # Errors
    ///
    /// A [`PolicyFailure`] naming the degenerate condition; its `fallback`
    /// is the action the silent (non-guarded) path would have applied.
    fn try_decide(
        &mut self,
        obs: &PeriodObservation,
        log: &AccessLog,
    ) -> Result<ControlAction, PolicyFailure>;

    /// Display name.
    fn name(&self) -> &str {
        "fallible"
    }

    /// The policy's internal state for checkpoints, mirroring
    /// [`PeriodController::snapshot_state`]. Stateless policies keep the
    /// default ([`serde::Value::Null`]).
    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restores the state captured by [`FalliblePolicy::snapshot_state`].
    ///
    /// # Errors
    ///
    /// Returns a decode error when `state` does not match this policy's
    /// snapshot layout.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let _ = state;
        Ok(())
    }
}

impl FalliblePolicy for JointPolicy {
    fn on_start(&mut self, array: ArrayConfig, total_pages: u64) {
        PeriodController::on_start(self, array, total_pages);
    }

    fn try_decide(
        &mut self,
        obs: &PeriodObservation,
        log: &AccessLog,
    ) -> Result<ControlAction, PolicyFailure> {
        JointPolicy::try_decide(self, obs, log)
    }

    fn name(&self) -> &str {
        "joint"
    }

    fn snapshot_state(&self) -> serde::Value {
        PeriodController::snapshot_state(self)
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        PeriodController::restore_state(self, state)
    }
}

/// A [`FalliblePolicy`] wrapper injecting [`PolicyError::Injected`]
/// failures per a [`PolicyFaults`](crate::PolicyFaults) window — the
/// chaos harness's way of exercising the guard's fallback chain on
/// workloads whose real decisions are healthy.
pub struct FaultyPolicy<P> {
    inner: P,
    faults: PolicyFaults,
    rng: FaultRng,
    period: u64,
    injected: u64,
}

impl<P: FalliblePolicy> FaultyPolicy<P> {
    /// Wraps `inner`, failing decisions inside the plan's window.
    pub fn new(inner: P, faults: PolicyFaults, rng: FaultRng) -> Self {
        FaultyPolicy {
            inner,
            faults,
            rng,
            period: 0,
            injected: 0,
        }
    }

    /// Failures injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

/// The dynamic state of a [`FaultyPolicy`]: its RNG stream position, the
/// period cursor that anchors the fault window, the injection count, and
/// the wrapped policy's own snapshot.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct FaultySnapshot {
    rng_state: u64,
    period: u64,
    injected: u64,
    inner: serde::Value,
}

impl<P: FalliblePolicy> FalliblePolicy for FaultyPolicy<P> {
    fn on_start(&mut self, array: ArrayConfig, total_pages: u64) {
        self.inner.on_start(array, total_pages);
    }

    fn try_decide(
        &mut self,
        obs: &PeriodObservation,
        log: &AccessLog,
    ) -> Result<ControlAction, PolicyFailure> {
        let period = self.period;
        self.period += 1;
        let result = self.inner.try_decide(obs, log);
        let in_window = period >= self.faults.from_period && period < self.faults.until_period;
        if in_window && self.rng.chance(self.faults.error_prob) {
            // Fail the decision but keep the inner policy's fallback: the
            // injected fault changes *control flow*, not the safe action.
            let fallback = match &result {
                Ok(action) => action.clone(),
                Err(failure) => failure.fallback.clone(),
            };
            self.injected += 1;
            return Err(PolicyFailure {
                error: PolicyError::Injected {
                    reason: format!("chaos-injected decision failure at period {period}"),
                },
                fallback,
            });
        }
        result
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn snapshot_state(&self) -> serde::Value {
        serde::Serialize::to_value(&FaultySnapshot {
            rng_state: self.rng.state(),
            period: self.period,
            injected: self.injected,
            inner: self.inner.snapshot_state(),
        })
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let snapshot = <FaultySnapshot as serde::Deserialize>::from_value(state)?;
        self.rng = FaultRng::from_state(snapshot.rng_state);
        self.period = snapshot.period;
        self.injected = snapshot.injected;
        self.inner.restore_state(&snapshot.inner)
    }
}

/// The guard's operating level, top (richest) to bottom (safest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FallbackLevel {
    /// The wrapped policy decides.
    Joint,
    /// Full memory, fixed break-even disk timeout.
    PowerDown,
    /// Full memory, disk never spins down.
    AlwaysOn,
}

impl FallbackLevel {
    /// The level's stable name as it appears in telemetry.
    pub fn as_str(self) -> &'static str {
        match self {
            FallbackLevel::Joint => "joint",
            FallbackLevel::PowerDown => "power_down",
            FallbackLevel::AlwaysOn => "always_on",
        }
    }

    fn down(self) -> Self {
        match self {
            FallbackLevel::Joint => FallbackLevel::PowerDown,
            _ => FallbackLevel::AlwaysOn,
        }
    }

    fn up(self) -> Self {
        match self {
            FallbackLevel::AlwaysOn => FallbackLevel::PowerDown,
            _ => FallbackLevel::Joint,
        }
    }
}

/// Tuning of the [`DegradationGuard`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Utilization limit `U` the watchdog enforces (paper: 0.10).
    pub util_limit: f64,
    /// Delayed-request ratio limit `D` (paper: 0.001).
    pub delay_ratio_limit: f64,
    /// Consecutive violating periods before the watchdog forces a retreat.
    pub violation_periods: u32,
    /// Backoff after the first retreat, periods; doubles per retreat.
    pub backoff_base_periods: u64,
    /// Backoff ceiling, periods.
    pub backoff_max_periods: u64,
    /// Consecutive healthy periods (after the backoff expires) required
    /// before re-promoting — the hysteresis that prevents flapping.
    pub promote_healthy_periods: u32,
    /// Disk timeout at the `power_down` level, s (the break-even time).
    pub powerdown_timeout_secs: f64,
    /// Banks enabled at both degraded levels (the installed total: the
    /// safe direction for a cache is *more* memory).
    pub full_banks: u32,
}

/// Floor for the watchdog's per-period delayed-ratio threshold.
///
/// The joint policy's `D` bounds the *expected* delay fraction through the
/// Pareto prediction; measured per-period ratios legitimately sit well
/// above it because every disk wake-up delays a whole request run (spin-up
/// amortization). The watchdog exists to catch *systemic* delay floods, so
/// it trips only an order of magnitude beyond the policy's observed
/// steady state (≈ 0.01–0.08 on the reference workloads).
const WATCHDOG_DELAY_RATIO_FLOOR: f64 = 0.15;

impl GuardConfig {
    /// Derives the guard's tuning from the wrapped joint configuration:
    /// the joint utilization limit, a delayed-ratio threshold with
    /// headroom (a 0.15 floor) over the policy's
    /// expectation-level `D`, break-even power-down timeout, full
    /// installed memory, and the default retreat/backoff cadence.
    pub fn from_joint(cfg: &JointConfig) -> Self {
        GuardConfig {
            util_limit: cfg.util_limit,
            delay_ratio_limit: cfg.delay_ratio_limit.max(WATCHDOG_DELAY_RATIO_FLOOR),
            violation_periods: 3,
            backoff_base_periods: 1,
            backoff_max_periods: 16,
            promote_healthy_periods: 2,
            powerdown_timeout_secs: cfg.disk_power.break_even_s(),
            full_banks: cfg.total_banks,
        }
    }
}

/// What the guard did over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct GuardStats {
    /// Periods decided (guard invocations).
    pub decisions: u64,
    /// Decisions served by the wrapped policy without incident.
    pub clean_decisions: u64,
    /// Decisions served by a degraded level.
    pub degraded_decisions: u64,
    /// Retreats caused by a typed policy failure.
    pub fallbacks: u64,
    /// Retreats forced by the constraint watchdog.
    pub watchdog_trips: u64,
    /// Promotions back up the chain (including recoveries).
    pub promotions: u64,
    /// Promotions that reached the joint level again.
    pub recoveries: u64,
}

/// A [`PeriodController`] that runs a [`FalliblePolicy`] under the
/// fallback chain described in the crate docs.
pub struct DegradationGuard<P> {
    inner: P,
    config: GuardConfig,
    telemetry: jpmd_obs::Telemetry,
    level: FallbackLevel,
    /// Lowest level reached since failures last cleared: a re-promotion
    /// that fails again retreats *below* this, so repeated failures walk
    /// the whole chain instead of bouncing between the top two levels.
    floor: FallbackLevel,
    period: u64,
    violation_streak: u32,
    healthy_streak: u32,
    failure_streak: u32,
    backoff_remaining: u64,
    stats: GuardStats,
}

impl<P: FalliblePolicy> DegradationGuard<P> {
    /// Guards `inner` under `config`, emitting one
    /// [`Degradation`](jpmd_obs::ObsEvent::Degradation) event per level
    /// transition through `telemetry`.
    pub fn new(inner: P, config: GuardConfig, telemetry: jpmd_obs::Telemetry) -> Self {
        DegradationGuard {
            inner,
            config,
            telemetry,
            level: FallbackLevel::Joint,
            floor: FallbackLevel::Joint,
            period: 0,
            violation_streak: 0,
            healthy_streak: 0,
            failure_streak: 0,
            backoff_remaining: 0,
            stats: GuardStats::default(),
        }
    }

    /// The current operating level.
    pub fn level(&self) -> FallbackLevel {
        self.level
    }

    /// What the guard has done so far.
    pub fn stats(&self) -> &GuardStats {
        &self.stats
    }

    /// The guarded policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn violated(&self, obs: &PeriodObservation) -> bool {
        obs.utilization() > self.config.util_limit
            || obs.delayed_ratio() > self.config.delay_ratio_limit
    }

    /// The action a degraded level pins every period.
    fn degraded_action(&self) -> ControlAction {
        match self.level {
            FallbackLevel::Joint => ControlAction::default(),
            FallbackLevel::PowerDown => ControlAction {
                enabled_banks: Some(self.config.full_banks),
                disk_timeout: Some(self.config.powerdown_timeout_secs),
                disk_timeouts: Vec::new(),
            },
            FallbackLevel::AlwaysOn => ControlAction {
                enabled_banks: Some(self.config.full_banks),
                disk_timeout: Some(f64::INFINITY),
                disk_timeouts: Vec::new(),
            },
        }
    }

    fn demote(&mut self, period: u64, time_s: f64, kind: &str, reason: &str) {
        let from = self.level;
        // First failure steps down one level; a failure after an earlier
        // retreat (promotion that did not stick) descends below the
        // previous floor.
        self.level = if self.failure_streak == 0 {
            self.level.down()
        } else {
            self.floor.down()
        };
        self.floor = self.level;
        self.failure_streak = self.failure_streak.saturating_add(1);
        let shift = u64::from(self.failure_streak - 1).min(16);
        self.backoff_remaining = self
            .config
            .backoff_base_periods
            .saturating_mul(1u64 << shift)
            .min(self.config.backoff_max_periods);
        self.violation_streak = 0;
        self.healthy_streak = 0;
        if kind == "watchdog" {
            self.stats.watchdog_trips += 1;
        } else {
            self.stats.fallbacks += 1;
        }
        let backoff = self.backoff_remaining;
        self.telemetry
            .emit_with(|| jpmd_obs::ObsEvent::Degradation {
                period,
                time_s,
                from: from.as_str().to_string(),
                to: self.level.as_str().to_string(),
                kind: kind.to_string(),
                reason: reason.to_string(),
                backoff_periods: backoff,
            });
    }

    fn promote(&mut self, period: u64, time_s: f64) {
        let from = self.level;
        self.level = self.level.up();
        self.healthy_streak = 0;
        self.stats.promotions += 1;
        let kind = if self.level == FallbackLevel::Joint {
            self.stats.recoveries += 1;
            "recovery"
        } else {
            "promote"
        };
        self.telemetry
            .emit_with(|| jpmd_obs::ObsEvent::Degradation {
                period,
                time_s,
                from: from.as_str().to_string(),
                to: self.level.as_str().to_string(),
                kind: kind.to_string(),
                reason: "backoff expired, constraints healthy".to_string(),
                backoff_periods: 0,
            });
    }

    fn decide_at_joint(
        &mut self,
        period: u64,
        violated: bool,
        obs: &PeriodObservation,
        log: &AccessLog,
    ) -> ControlAction {
        match self.inner.try_decide(obs, log) {
            Ok(action) => {
                self.stats.clean_decisions += 1;
                if violated {
                    self.healthy_streak = 0;
                } else {
                    self.healthy_streak = self.healthy_streak.saturating_add(1);
                    if self.healthy_streak >= self.config.promote_healthy_periods {
                        // Sustained health at the top level forgets past
                        // failures: backoff exponent and floor reset.
                        self.failure_streak = 0;
                        self.floor = FallbackLevel::Joint;
                    }
                }
                action
            }
            Err(failure) => {
                self.demote(period, obs.end, "fallback", &failure.error.to_string());
                self.stats.degraded_decisions += 1;
                self.degraded_action()
            }
        }
    }
}

/// The dynamic state of a [`DegradationGuard`]: the fallback-chain
/// position, the streak counters and backoff that drive
/// demotion/promotion, the cumulative [`GuardStats`], and the wrapped
/// policy's own snapshot. The [`GuardConfig`] and telemetry handle are
/// reconstructed by the resuming caller, not checkpointed.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct GuardSnapshot {
    level: FallbackLevel,
    floor: FallbackLevel,
    period: u64,
    violation_streak: u32,
    healthy_streak: u32,
    failure_streak: u32,
    backoff_remaining: u64,
    stats: GuardStats,
    inner: serde::Value,
}

impl<P: FalliblePolicy> PeriodController for DegradationGuard<P> {
    fn on_start(&mut self, array: ArrayConfig, total_pages: u64) {
        self.inner.on_start(array, total_pages);
    }

    fn on_period_end(&mut self, obs: &PeriodObservation, log: &AccessLog) -> ControlAction {
        let period = self.period;
        self.period += 1;
        self.stats.decisions += 1;

        let violated = self.violated(obs);
        self.violation_streak = if violated {
            self.violation_streak.saturating_add(1)
        } else {
            0
        };

        // Watchdog: sustained constraint violation forces a retreat no
        // matter how cleanly the policy is deciding.
        if self.violation_streak >= self.config.violation_periods
            && self.level != FallbackLevel::AlwaysOn
        {
            let reason = format!(
                "constraints violated {} consecutive periods (utilization {:.4} vs {:.4}, \
                 delayed ratio {:.5} vs {:.5})",
                self.violation_streak,
                obs.utilization(),
                self.config.util_limit,
                obs.delayed_ratio(),
                self.config.delay_ratio_limit,
            );
            self.demote(period, obs.end, "watchdog", &reason);
            self.stats.degraded_decisions += 1;
            return self.degraded_action();
        }

        if self.level == FallbackLevel::Joint {
            return self.decide_at_joint(period, violated, obs, log);
        }

        // Degraded: serve the pinned action while the backoff drains, then
        // require a healthy hysteresis before promoting.
        if self.backoff_remaining > 0 {
            self.backoff_remaining -= 1;
        } else if violated {
            self.healthy_streak = 0;
        } else {
            self.healthy_streak = self.healthy_streak.saturating_add(1);
            if self.healthy_streak >= self.config.promote_healthy_periods {
                self.promote(period, obs.end);
                if self.level == FallbackLevel::Joint {
                    // Back at the top: the policy decides this period.
                    return self.decide_at_joint(period, violated, obs, log);
                }
            }
        }
        self.stats.degraded_decisions += 1;
        self.degraded_action()
    }

    fn name(&self) -> &str {
        "guarded"
    }

    fn snapshot_state(&self) -> serde::Value {
        serde::Serialize::to_value(&GuardSnapshot {
            level: self.level,
            floor: self.floor,
            period: self.period,
            violation_streak: self.violation_streak,
            healthy_streak: self.healthy_streak,
            failure_streak: self.failure_streak,
            backoff_remaining: self.backoff_remaining,
            stats: self.stats,
            inner: self.inner.snapshot_state(),
        })
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let snapshot = <GuardSnapshot as serde::Deserialize>::from_value(state)?;
        self.level = snapshot.level;
        self.floor = snapshot.floor;
        self.period = snapshot.period;
        self.violation_streak = snapshot.violation_streak;
        self.healthy_streak = snapshot.healthy_streak;
        self.failure_streak = snapshot.failure_streak;
        self.backoff_remaining = snapshot.backoff_remaining;
        self.stats = snapshot.stats;
        self.inner.restore_state(&snapshot.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpmd_stats::IntervalStats;

    /// A scripted policy failing on a fixed set of decision indices.
    struct Scripted {
        fail: std::ops::Range<u64>,
        period: u64,
    }

    impl Scripted {
        fn failing(fail: std::ops::Range<u64>) -> Self {
            Scripted { fail, period: 0 }
        }
    }

    impl FalliblePolicy for Scripted {
        fn try_decide(
            &mut self,
            _obs: &PeriodObservation,
            _log: &AccessLog,
        ) -> Result<ControlAction, PolicyFailure> {
            let period = self.period;
            self.period += 1;
            if self.fail.contains(&period) {
                Err(PolicyFailure {
                    error: PolicyError::Injected {
                        reason: format!("scripted failure {period}"),
                    },
                    fallback: ControlAction::default(),
                })
            } else {
                Ok(ControlAction {
                    enabled_banks: Some(2),
                    disk_timeout: Some(10.0),
                    disk_timeouts: Vec::new(),
                })
            }
        }
    }

    fn guard_config() -> GuardConfig {
        GuardConfig {
            util_limit: 0.10,
            delay_ratio_limit: 0.001,
            violation_periods: 3,
            backoff_base_periods: 1,
            backoff_max_periods: 16,
            promote_healthy_periods: 2,
            powerdown_timeout_secs: 11.7,
            full_banks: 8,
        }
    }

    fn obs(utilization: f64) -> PeriodObservation {
        PeriodObservation {
            start: 0.0,
            end: 600.0,
            cache_accesses: 100,
            disk_page_accesses: 10,
            disk_requests: 5,
            disk_busy_secs: utilization * 600.0,
            idle: IntervalStats {
                count: 0,
                mean: 0.0,
                min: f64::INFINITY,
                max: 0.0,
                total: 0.0,
            },
            delayed_page_accesses: 0,
            enabled_banks: 8,
            disk_timeout: 10.0,
            energy_total_j: 0.0,
        }
    }

    fn run(guard: &mut DegradationGuard<Scripted>, periods: u64) -> Vec<ControlAction> {
        let log = AccessLog::new();
        (0..periods)
            .map(|_| guard.on_period_end(&obs(0.01), &log))
            .collect()
    }

    #[test]
    fn healthy_policy_never_degrades() {
        let mut guard = DegradationGuard::new(
            Scripted::failing(0..0),
            guard_config(),
            jpmd_obs::Telemetry::disabled(),
        );
        let actions = run(&mut guard, 5);
        assert!(actions
            .iter()
            .all(|a| a.enabled_banks == Some(2) && a.disk_timeout == Some(10.0)));
        assert_eq!(guard.level(), FallbackLevel::Joint);
        assert_eq!(guard.stats().fallbacks, 0);
        assert_eq!(guard.stats().clean_decisions, 5);
    }

    #[test]
    fn single_failure_retreats_then_recovers() {
        let sink = jpmd_obs::MemorySink::new();
        let telemetry = jpmd_obs::Telemetry::new(Box::new(sink.clone()));
        let mut guard = DegradationGuard::new(Scripted::failing(0..1), guard_config(), telemetry);
        // p0 fails -> power_down (backoff 1). p1 drains the backoff.
        // p2, p3 are healthy -> promotion back to joint at p3, which then
        // decides (inner period 1, healthy).
        let actions = run(&mut guard, 4);
        assert_eq!(actions[0].enabled_banks, Some(8), "degraded to full memory");
        assert_eq!(actions[0].disk_timeout, Some(11.7));
        assert_eq!(actions[3].enabled_banks, Some(2), "joint decides again");
        assert_eq!(guard.level(), FallbackLevel::Joint);
        assert_eq!(guard.stats().fallbacks, 1);
        assert_eq!(guard.stats().recoveries, 1);
        let kinds: Vec<String> = sink
            .records()
            .iter()
            .filter_map(|r| match &r.event {
                jpmd_obs::ObsEvent::Degradation { kind, .. } => Some(kind.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec!["fallback".to_string(), "recovery".to_string()]);
    }

    #[test]
    fn persistent_failure_descends_to_always_on() {
        let mut guard = DegradationGuard::new(
            Scripted::failing(0..u64::MAX),
            guard_config(),
            jpmd_obs::Telemetry::disabled(),
        );
        let actions = run(&mut guard, 30);
        assert_eq!(guard.level(), FallbackLevel::AlwaysOn);
        let last = actions.last().unwrap();
        assert_eq!(last.enabled_banks, Some(8));
        assert_eq!(last.disk_timeout, Some(f64::INFINITY));
        // Backoff doubles per retreat and caps.
        assert!(guard.stats().fallbacks >= 2);
    }

    #[test]
    fn watchdog_trips_on_sustained_violation() {
        let mut guard = DegradationGuard::new(
            Scripted::failing(0..0),
            guard_config(),
            jpmd_obs::Telemetry::disabled(),
        );
        let log = AccessLog::new();
        // Three consecutive periods above the utilization limit.
        for _ in 0..3 {
            guard.on_period_end(&obs(0.5), &log);
        }
        assert_eq!(guard.level(), FallbackLevel::PowerDown);
        assert_eq!(guard.stats().watchdog_trips, 1);
        assert_eq!(guard.stats().fallbacks, 0);
        // A violating period while degraded resets the healthy streak: the
        // guard stays down until genuinely healthy.
        guard.on_period_end(&obs(0.01), &log); // drains backoff
        guard.on_period_end(&obs(0.01), &log); // healthy 1
        guard.on_period_end(&obs(0.5), &log); // reset
        assert_eq!(guard.level(), FallbackLevel::PowerDown);
        guard.on_period_end(&obs(0.01), &log); // healthy 1
        guard.on_period_end(&obs(0.01), &log); // healthy 2 -> recovery
        assert_eq!(guard.level(), FallbackLevel::Joint);
        assert_eq!(guard.stats().recoveries, 1);
    }

    #[test]
    fn delayed_ratio_also_arms_the_watchdog() {
        let mut guard = DegradationGuard::new(
            Scripted::failing(0..0),
            guard_config(),
            jpmd_obs::Telemetry::disabled(),
        );
        let log = AccessLog::new();
        let mut bad = obs(0.01);
        bad.delayed_page_accesses = 10; // ratio 0.1 >> D = 0.001
        for _ in 0..3 {
            guard.on_period_end(&bad, &log);
        }
        assert_eq!(guard.level(), FallbackLevel::PowerDown);
        assert_eq!(guard.stats().watchdog_trips, 1);
    }

    #[test]
    fn faulty_policy_injects_only_inside_its_window() {
        let faults = PolicyFaults {
            error_prob: 1.0,
            from_period: 2,
            until_period: 4,
        };
        let mut policy = FaultyPolicy::new(Scripted::failing(0..0), faults, FaultRng::new(1));
        let log = AccessLog::new();
        let results: Vec<bool> = (0..6)
            .map(|_| policy.try_decide(&obs(0.01), &log).is_ok())
            .collect();
        assert_eq!(results, vec![true, true, false, false, true, true]);
        assert_eq!(policy.injected(), 2);
        // The injected failure carries the healthy decision as fallback.
        let mut policy = FaultyPolicy::new(Scripted::failing(0..0), faults, FaultRng::new(1));
        for _ in 0..2 {
            policy.try_decide(&obs(0.01), &log).unwrap();
        }
        let failure = policy.try_decide(&obs(0.01), &log).unwrap_err();
        assert_eq!(failure.error.kind(), "injected");
        assert_eq!(failure.fallback.enabled_banks, Some(2));
    }
}
