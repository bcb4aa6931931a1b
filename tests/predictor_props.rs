//! Invariants of the one predictor and of the joint decision it feeds,
//! over random access logs, one to four member disks and both layouts.
//!
//! * The per-member predictions split the one-disk prediction: at every
//!   candidate size the members' disk accesses sum to its count, and each
//!   member's miss stream matches a direct reconstruction from the log.
//! * Each member's disk accesses never rise as the memory grows (LRU
//!   inclusion).
//! * With one member the routed prediction is `predict_sizes`, field for
//!   field.
//! * Whenever the decision succeeds, every member of the chosen candidate
//!   stays within the utilization limit `U` and gets a timeout of at
//!   least the aggregation window `w`.

use jpmd::core::{predict_sizes, predict_sizes_routed, JointConfig, JointPolicy};
use jpmd::disk::Layout;
use jpmd::mem::{AccessLog, IdlePolicy, MemConfig, RdramModel, StackProfiler};
use jpmd::sim::{ArrayConfig, PeriodController, PeriodObservation, SimConfig};
use jpmd::stats::IdleIntervals;
use proptest::prelude::*;

/// Pages the random logs touch.
const PAGES: u64 = 64;
/// The control period, s; no log outlasts it.
const PERIOD: f64 = 600.0;

/// A random log over [`PAGES`] pages: up to 200 accesses, 0–3 s apart.
fn arb_log() -> impl Strategy<Value = AccessLog> {
    prop::collection::vec((0.0f64..3.0, 0u64..PAGES), 1..200).prop_map(|accesses| {
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        let mut time = 0.0;
        for (gap, page) in accesses {
            time += gap;
            log.record(time, page, profiler.observe(page));
        }
        log
    })
}

/// A random array: one to four members, partitioned or striped.
fn arb_array() -> impl Strategy<Value = ArrayConfig> {
    (1usize..5, prop::sample::select(vec![0u64, 1, 2, 4, 16])).prop_map(|(disks, stripe)| {
        ArrayConfig {
            disks,
            layout: match stripe {
                0 => Layout::Partitioned,
                stripe_pages => Layout::Striped { stripe_pages },
            },
        }
    })
}

fn route(array: ArrayConfig) -> impl Fn(u64) -> usize {
    move |page| array.layout.disk_of(page, array.disks, PAGES)
}

fn joint_config() -> JointConfig {
    JointConfig::from_sim(&SimConfig::with_mem(MemConfig {
        page_bytes: 1 << 20,
        bank_pages: 4,
        total_banks: 32,
        initial_banks: 32,
        model: RdramModel::default(),
        policy: IdlePolicy::Nap,
    }))
}

fn observation() -> PeriodObservation {
    PeriodObservation {
        start: 0.0,
        end: PERIOD,
        cache_accesses: 0,
        disk_page_accesses: 0,
        disk_requests: 0,
        disk_busy_secs: 0.0,
        idle: IdleIntervals::default().stats(),
        delayed_page_accesses: 0,
        enabled_banks: 32,
        disk_timeout: f64::INFINITY,
        energy_total_j: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn routed_prediction_splits_the_one_disk_prediction(
        log in arb_log(),
        array in arb_array(),
        mut candidates in prop::collection::vec(0u64..PAGES + 4, 1..8),
        window in prop::sample::select(vec![0.1f64, 1.0, 2.5]),
    ) {
        candidates.sort_unstable();
        let n = array.disks;
        let single = predict_sizes(&log, &candidates, window);
        let routed = predict_sizes_routed(&log, &candidates, window, route(array), n);
        prop_assert_eq!(routed.len(), candidates.len() * n);
        if n == 1 {
            prop_assert_eq!(&routed, &single);
        }
        for (c, (&cap, members)) in candidates.iter().zip(routed.chunks_exact(n)).enumerate() {
            let sum: u64 = members.iter().map(|p| p.disk_accesses).sum();
            prop_assert_eq!(sum, single[c].disk_accesses);
            for (r, member) in members.iter().enumerate() {
                prop_assert_eq!(member.capacity_pages, cap);
                let misses: Vec<f64> = log
                    .entries()
                    .iter()
                    .filter(|e| e.distance.misses_at(cap) && route(array)(e.page) == r)
                    .map(|e| e.time)
                    .collect();
                let direct = IdleIntervals::from_timestamps(&misses, window);
                prop_assert_eq!(member.disk_accesses as usize, misses.len());
                prop_assert_eq!(member.idle_count as usize, direct.count());
                prop_assert!((member.idle_total_secs - direct.total()).abs() < 1e-6);
                prop_assert_eq!(member.first_miss_secs, misses.first().copied());
                prop_assert_eq!(member.last_miss_secs, misses.last().copied());
                if c > 0 {
                    let smaller = &routed[(c - 1) * n + r];
                    prop_assert!(member.disk_accesses <= smaller.disk_accesses);
                }
            }
        }
    }

    #[test]
    fn accepted_decisions_keep_every_member_feasible(
        log in arb_log(),
        array in arb_array(),
    ) {
        let cfg = joint_config();
        let mut policy = JointPolicy::new(cfg);
        policy.on_start(array, PAGES);
        if let Ok(action) = policy.try_decide(&observation(), &log) {
            let n = array.disks;
            let timeouts = if n == 1 {
                prop_assert!(action.disk_timeouts.is_empty());
                vec![action.disk_timeout.expect("a decision sets the timeout")]
            } else {
                prop_assert_eq!(action.disk_timeout, action.disk_timeouts.first().copied());
                action.disk_timeouts.clone()
            };
            prop_assert_eq!(timeouts.len(), n);
            prop_assert!(timeouts.iter().all(|&to| to >= cfg.window_secs));

            let banks = action.enabled_banks.expect("a decision sizes the memory");
            let chosen = policy
                .last_evaluations()
                .iter()
                .find(|e| e.banks == banks)
                .expect("the chosen size was evaluated");
            prop_assert!(chosen.feasible && chosen.utilization <= cfg.util_limit);
            // Every member's utilization estimate (one-page requests, as
            // the observation reports no disk requests) is within U.
            let capacity = u64::from(banks) * u64::from(cfg.bank_pages);
            let members = predict_sizes_routed(&log, &[capacity], cfg.window_secs, route(array), n);
            let service = cfg.disk_service.expected_service_time(cfg.page_bytes);
            for member in &members {
                let utilization = member.disk_accesses as f64 * service / cfg.period_secs;
                prop_assert!(utilization <= cfg.util_limit, "{utilization}");
            }
        }
    }
}
