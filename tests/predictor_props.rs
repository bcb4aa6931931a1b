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
//! * Candidate enumeration and the routed prediction, which read one
//!   radix-ordered hit list, equal the definitions that sorted the log
//!   once each, to the bit, on hand-built logs whose positions need one,
//!   two and three radix passes.

use jpmd::core::{
    candidate_banks, predict_sizes, predict_sizes_routed, JointConfig, JointPolicy, SizePrediction,
};
use jpmd::disk::Layout;
use jpmd::mem::{AccessLog, IdlePolicy, MemConfig, RdramModel, StackDistance, StackProfiler};
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

/// A hand-built log of up to 300 accesses, 0–3 s apart, whose stack
/// positions come from a pool of up to twelve values below `top` (so
/// equal positions are common) and a quarter or more of which are cold.
/// A `top` of 2²³ puts positions at or past 2²² and 2¹¹.
fn arb_hand_log() -> impl Strategy<Value = AccessLog> {
    (
        prop::sample::select(vec![1u64 << 4, 1 << 12, 1 << 23]),
        prop::collection::vec(any::<u64>(), 1..13),
        prop::collection::vec((0.0f64..3.0, 0u64..PAGES, 0usize..16), 1..300),
    )
        .prop_map(|(top, pool, accesses)| {
            let pool: Vec<u64> = pool.iter().map(|v| 1 + v % top).collect();
            let mut log = AccessLog::new();
            let mut time = 0.0;
            for (gap, page, pick) in accesses {
                time += gap;
                let distance = pool
                    .get(pick)
                    .map_or(StackDistance::Cold, |&p| StackDistance::Position(p));
                log.record(time, page, distance);
            }
            log
        })
}

/// The definitions that sorted the log once for candidate enumeration and
/// once more for the prediction, kept as the reference the one radix
/// ordering must reproduce to the bit.
mod two_sorts {
    use jpmd::core::SizePrediction;
    use jpmd::mem::{AccessLog, StackDistance};

    fn positions(log: &AccessLog) -> impl Iterator<Item = (u64, u32)> + '_ {
        log.entries()
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.distance {
                StackDistance::Position(p) => Some((p, i as u32)),
                StackDistance::Cold => None,
            })
    }

    pub fn candidate_banks(
        log: &AccessLog,
        bank_pages: u32,
        min_banks: u32,
        max_banks: u32,
    ) -> Vec<u32> {
        let mut change_points: Vec<u64> = positions(log).map(|(p, _)| p).collect();
        change_points.sort_unstable();
        change_points.dedup();
        change_points.insert(0, 0);
        let mut banks: Vec<u32> = change_points
            .into_iter()
            .map(|pages| pages.div_ceil(bank_pages as u64).min(max_banks as u64) as u32)
            .map(|b| b.clamp(min_banks, max_banks))
            .collect();
        banks.push(min_banks);
        banks.push(max_banks);
        banks.sort_unstable();
        banks.dedup();
        banks
    }

    pub fn predict_sizes_routed(
        log: &AccessLog,
        candidates: &[u64],
        window: f64,
        route: impl Fn(u64) -> usize,
        n_routes: usize,
    ) -> Vec<SizePrediction> {
        const NONE: u32 = u32::MAX;
        let entries = log.entries();
        let n = entries.len();
        let route_of = |i: u32| route(entries[i as usize].page);
        let (mut prev, mut next) = (vec![NONE; n], vec![NONE; n]);
        let (mut head, mut tail) = (vec![NONE; n_routes], vec![NONE; n_routes]);
        let (mut nd, mut ni) = (vec![0u64; n_routes], vec![0u64; n_routes]);
        let mut total = vec![0.0f64; n_routes];
        for i in 0..n as u32 {
            let r = route_of(i);
            let l = tail[r];
            prev[i as usize] = l;
            if l == NONE {
                head[r] = i;
            } else {
                next[l as usize] = i;
                let g = entries[i as usize].time - entries[l as usize].time;
                if g > window {
                    ni[r] += 1;
                    total[r] += g;
                }
            }
            tail[r] = i;
            nd[r] += 1;
        }
        let mut order: Vec<(u64, u32)> = positions(log).collect();
        order.sort_unstable();
        let mut out = Vec::new();
        let mut cursor = 0;
        for &cap in candidates {
            while cursor < order.len() && order[cursor].0 <= cap {
                let i = order[cursor].1;
                let r = route_of(i);
                let (l, rr) = (prev[i as usize], next[i as usize]);
                if head[r] == i {
                    head[r] = rr;
                }
                if tail[r] == i {
                    tail[r] = l;
                }
                let t_i = entries[i as usize].time;
                if l != NONE {
                    let g = t_i - entries[l as usize].time;
                    if g > window {
                        ni[r] -= 1;
                        total[r] -= g;
                    }
                    next[l as usize] = rr;
                }
                if rr != NONE {
                    let g = entries[rr as usize].time - t_i;
                    if g > window {
                        ni[r] -= 1;
                        total[r] -= g;
                    }
                    prev[rr as usize] = l;
                }
                if l != NONE && rr != NONE {
                    let g = entries[rr as usize].time - entries[l as usize].time;
                    if g > window {
                        ni[r] += 1;
                        total[r] += g;
                    }
                }
                nd[r] -= 1;
                cursor += 1;
            }
            out.extend((0..n_routes).map(|r| SizePrediction {
                capacity_pages: cap,
                disk_accesses: nd[r],
                idle_count: ni[r],
                idle_total_secs: total[r].max(0.0),
                first_miss_secs: (head[r] != NONE).then(|| entries[head[r] as usize].time),
                last_miss_secs: (tail[r] != NONE).then(|| entries[tail[r] as usize].time),
            }));
        }
        out
    }
}

/// `a` and `b` field for field, with every `f64` compared by its bits.
fn same_bits(a: &SizePrediction, b: &SizePrediction) -> bool {
    let bits = |t: Option<f64>| t.map(f64::to_bits);
    (a.capacity_pages, a.disk_accesses, a.idle_count)
        == (b.capacity_pages, b.disk_accesses, b.idle_count)
        && a.idle_total_secs.to_bits() == b.idle_total_secs.to_bits()
        && bits(a.first_miss_secs) == bits(b.first_miss_secs)
        && bits(a.last_miss_secs) == bits(b.last_miss_secs)
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
    fn one_radix_ordering_matches_the_two_sorts_it_replaced(
        log in arb_hand_log(),
        bank_pages in prop::sample::select(vec![1u32, 4, 64, 4096]),
        max_banks in prop::sample::select(vec![8u32, 1 << 10, 1 << 20]),
        mut extra in prop::collection::vec(0u64..1 << 24, 0..8),
        window in prop::sample::select(vec![0.1f64, 1.0, 2.5]),
    ) {
        let banks = candidate_banks(&log, bank_pages, 1, max_banks);
        prop_assert_eq!(&banks, &two_sorts::candidate_banks(&log, bank_pages, 1, max_banks));
        // The decision's capacities, and sizes between and past them.
        let mut candidates: Vec<u64> =
            banks.iter().map(|&b| u64::from(b) * u64::from(bank_pages)).collect();
        candidates.append(&mut extra);
        candidates.sort_unstable();
        for n_routes in [1, 3] {
            let by_page = |page: u64| (page % n_routes as u64) as usize;
            let got = predict_sizes_routed(&log, &candidates, window, by_page, n_routes);
            let want =
                two_sorts::predict_sizes_routed(&log, &candidates, window, by_page, n_routes);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert!(same_bits(g, w), "{} routes: {:?} vs {:?}", n_routes, g, w);
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
