//! Property tests for the degradation guard: whatever mix of failures a
//! policy throws at it, the guard always answers with a *valid* control
//! action, and its behavior is a pure function of its inputs.

use jpmd_core::{PolicyError, PolicyFailure};
use jpmd_faults::{DegradationGuard, FallbackLevel, FalliblePolicy, FaultRng, GuardConfig};
use jpmd_mem::AccessLog;
use jpmd_sim::{ControlAction, PeriodController, PeriodObservation};
use jpmd_stats::IntervalStats;
use proptest::prelude::*;

const FULL_BANKS: u32 = 8;

/// A policy that fails with a random typed error on a seeded coin flip.
struct RandomlyFailing {
    rng: FaultRng,
    error_prob: f64,
}

impl FalliblePolicy for RandomlyFailing {
    fn try_decide(
        &mut self,
        _obs: &PeriodObservation,
        _log: &AccessLog,
    ) -> Result<ControlAction, PolicyFailure> {
        if self.rng.chance(self.error_prob) {
            let error = match self.rng.below(5) {
                0 => PolicyError::EmptyCandidateTable,
                1 => PolicyError::UnfittablePareto { candidates: 3 },
                2 => PolicyError::AllInfeasible { candidates: 3 },
                3 => PolicyError::NonFiniteEnergy { banks: 2 },
                _ => PolicyError::Injected {
                    reason: "random".to_string(),
                },
            };
            Err(PolicyFailure {
                error,
                fallback: ControlAction::default(),
            })
        } else {
            Ok(ControlAction {
                enabled_banks: Some(1 + self.rng.below(u64::from(FULL_BANKS)) as u32),
                disk_timeout: Some(1.0 + self.rng.next_f64() * 20.0),
                disk_timeouts: Vec::new(),
            })
        }
    }
}

fn config() -> GuardConfig {
    GuardConfig {
        util_limit: 0.10,
        delay_ratio_limit: 0.001,
        violation_periods: 3,
        backoff_base_periods: 1,
        backoff_max_periods: 16,
        promote_healthy_periods: 2,
        powerdown_timeout_secs: 11.7,
        full_banks: FULL_BANKS,
    }
}

fn observation(utilization: f64) -> PeriodObservation {
    PeriodObservation {
        start: 0.0,
        end: 300.0,
        cache_accesses: 1000,
        disk_page_accesses: 50,
        disk_requests: 20,
        disk_busy_secs: utilization * 300.0,
        idle: IntervalStats {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: 0.0,
            total: 0.0,
        },
        delayed_page_accesses: 0,
        enabled_banks: FULL_BANKS,
        disk_timeout: 10.0,
        energy_total_j: 0.0,
    }
}

fn drive(seed: u64, error_prob: f64, utilizations: &[f64]) -> (Vec<ControlAction>, FallbackLevel) {
    let policy = RandomlyFailing {
        rng: FaultRng::fork(seed, 1),
        error_prob,
    };
    let mut guard = DegradationGuard::new(policy, config(), jpmd_obs::Telemetry::disabled());
    let log = AccessLog::new();
    let actions = utilizations
        .iter()
        .map(|&u| guard.on_period_end(&observation(u), &log))
        .collect();
    (actions, guard.level())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Whatever the policy throws — any error kind, at any rate, under any
    // load — every action the guard hands the simulator is executable:
    // banks within the installed range, timeout positive (or infinite).
    #[test]
    fn guard_always_yields_a_valid_action(
        seed in 0u64..10_000,
        error_prob in 0.0f64..=1.0,
        utilizations in prop::collection::vec(0.0f64..0.5, 1..60),
    ) {
        let (actions, level) = drive(seed, error_prob, &utilizations);
        for action in &actions {
            if let Some(banks) = action.enabled_banks {
                prop_assert!((1..=FULL_BANKS).contains(&banks), "banks {banks}");
            }
            if let Some(timeout) = action.disk_timeout {
                prop_assert!(timeout > 0.0 && !timeout.is_nan(), "timeout {timeout}");
            }
        }
        prop_assert!(matches!(
            level,
            FallbackLevel::Joint | FallbackLevel::PowerDown | FallbackLevel::AlwaysOn
        ));
    }

    // The guard is deterministic: same seed, same failure rate, same
    // observations — same action sequence and same final level.
    #[test]
    fn guard_is_deterministic_per_seed(
        seed in 0u64..10_000,
        error_prob in 0.0f64..=1.0,
        utilizations in prop::collection::vec(0.0f64..0.5, 1..60),
    ) {
        let a = drive(seed, error_prob, &utilizations);
        let b = drive(seed, error_prob, &utilizations);
        prop_assert_eq!(&a.0, &b.0);
        prop_assert_eq!(a.1, b.1);
    }

    // A policy that always fails pins the guard to degraded levels: no
    // action may ever come from the (always-failing) inner policy, so
    // every decision must be one of the two safe shapes.
    #[test]
    fn total_failure_yields_only_safe_actions(
        seed in 0u64..10_000,
        periods in 1usize..60,
    ) {
        let utilizations = vec![0.01; periods];
        let (actions, _) = drive(seed, 1.0, &utilizations);
        for action in &actions {
            prop_assert_eq!(action.enabled_banks, Some(FULL_BANKS));
            let timeout = action.disk_timeout.unwrap();
            prop_assert!(timeout == 11.7 || timeout == f64::INFINITY);
        }
    }
}
