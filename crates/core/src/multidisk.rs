//! The joint power manager extended to a disk array — the paper's §VI
//! future work ("For future work, we can extend the joint method to
//! multiple disks. Such extension needs to consider: 1) management of disk
//! cache for multiple disks; … 3) data layout across disks; and
//! 4) workload distributions on disks").
//!
//! The shared disk cache is still sized globally (one LRU, one stack
//! profiler), but the predicted miss stream is **routed** to member disks
//! by the array's [`Layout`], and each member gets its own Pareto fit and
//! its own eq. (5)/(6) timeout. The candidate-size search then minimizes
//! `Σ_d disk_power_d + memory_power` subject to *every* member's
//! utilization staying under `U` and the delayed-request budget split
//! evenly across members.

use jpmd_disk::Layout;
use jpmd_mem::AccessLog;
use jpmd_sim::{ControlAction, PeriodController, PeriodObservation};
use jpmd_stats::fit;

use crate::predict::{candidate_banks, predict_sizes_routed, SizePrediction};
use crate::timeout::{disk_static_power, optimal_timeout, perf_constrained_timeout};
use crate::JointConfig;

/// One candidate memory size evaluated across all member disks.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayCandidate {
    /// Memory size, banks.
    pub banks: u32,
    /// Per-disk chosen timeouts, s.
    pub timeouts: Vec<f64>,
    /// Per-disk predicted utilization.
    pub utilizations: Vec<f64>,
    /// Estimated total (memory + all disks) power, W.
    pub total_power_w: f64,
    /// Whether every member satisfies the constraints.
    pub feasible: bool,
}

/// The multi-disk joint power manager: a [`PeriodController`] for a run
/// whose [`ArrayConfig`](jpmd_sim::ArrayConfig) has the same member count
/// and layout.
///
/// # Example
///
/// ```
/// use jpmd_core::{ArrayJointPolicy, JointConfig, SimScale};
/// use jpmd_disk::Layout;
/// use jpmd_mem::IdlePolicy;
///
/// let scale = SimScale::small_test();
/// let sim = scale.sim_config(IdlePolicy::Nap, scale.total_banks());
/// let policy = ArrayJointPolicy::new(
///     JointConfig::from_sim(&sim),
///     4,
///     Layout::Partitioned,
///     scale.gb_to_pages(4),
/// );
/// assert_eq!(policy.disks(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ArrayJointPolicy {
    config: JointConfig,
    disks: usize,
    layout: Layout,
    total_pages: u64,
    last_candidates: Vec<ArrayCandidate>,
}

impl ArrayJointPolicy {
    /// Creates the policy for an array of `disks` members behind `layout`
    /// over `total_pages` of data.
    ///
    /// # Panics
    ///
    /// Panics if `disks == 0` or `total_pages == 0`, or if `config` is
    /// degenerate (see [`JointPolicy::new`](crate::JointPolicy::new)).
    pub fn new(config: JointConfig, disks: usize, layout: Layout, total_pages: u64) -> Self {
        assert!(disks > 0, "array needs at least one disk");
        assert!(total_pages > 0, "array must have at least one page");
        assert!(config.bank_pages > 0 && config.total_banks > 0);
        Self {
            config,
            disks,
            layout,
            total_pages,
            last_candidates: Vec::new(),
        }
    }

    /// Number of member disks.
    pub fn disks(&self) -> usize {
        self.disks
    }

    /// Candidate evaluations from the most recent decision.
    pub fn last_candidates(&self) -> &[ArrayCandidate] {
        &self.last_candidates
    }

    fn evaluate(
        &self,
        banks: u32,
        per_disk: &[SizePrediction],
        cache_accesses: u64,
        avg_run_pages: f64,
    ) -> ArrayCandidate {
        let cfg = &self.config;
        let t = cfg.period_secs;
        let p = &cfg.disk_power;
        let page_mb = cfg.page_bytes as f64 / (1024.0 * 1024.0);
        let bank_mb = cfg.bank_pages as f64 * page_mb;

        let mut timeouts = Vec::with_capacity(self.disks);
        let mut utilizations = Vec::with_capacity(self.disks);
        let mut disk_power = 0.0;
        // Split the delayed-request budget evenly across members.
        let share_accesses = (cache_accesses / self.disks as u64).max(1);
        for pred in per_disk {
            let pareto = pred
                .idle_mean_secs()
                .and_then(|mean| fit::pareto_from_mean(mean, cfg.window_secs).ok());
            let (to, static_w) = match (&pareto, pred.disk_accesses) {
                (Some(dist), nd) if nd > 0 => {
                    let mut to = optimal_timeout(dist, p);
                    if cfg.enforce_performance {
                        to = to.max(perf_constrained_timeout(
                            dist,
                            p,
                            pred.idle_count,
                            nd,
                            share_accesses,
                            t,
                            cfg.long_latency_secs,
                            cfg.delay_ratio_limit,
                        ));
                    }
                    let to = to.max(cfg.window_secs);
                    (to, disk_static_power(dist, p, pred.idle_count, to, t))
                }
                (_, 0) => {
                    // This member sees no traffic: it sleeps the period.
                    let to = p.break_even_s();
                    (to, p.static_w() * (to + p.break_even_s()) / t)
                }
                _ => (p.break_even_s(), p.static_w()),
            };
            let run_pages = avg_run_pages.max(1.0);
            let requests = pred.disk_accesses as f64 / run_pages;
            let service = cfg
                .disk_service
                .expected_service_time((run_pages * page_mb * 1024.0 * 1024.0) as u64);
            let util = requests * service / t;
            disk_power += static_w + util.min(1.0) * p.dynamic_peak_w();
            timeouts.push(to);
            utilizations.push(util);
        }

        let mem_power = banks as f64 * bank_mb * cfg.mem_model.nap_w_per_mb()
            + cache_accesses as f64 * page_mb * cfg.mem_model.dynamic_j_per_mb() / t;
        let feasible =
            !cfg.enforce_performance || utilizations.iter().all(|&u| u <= cfg.util_limit);
        ArrayCandidate {
            banks,
            timeouts,
            utilizations,
            total_power_w: disk_power + mem_power,
            feasible,
        }
    }
}

/// An action setting each member's timeout; `disk_timeout` carries the
/// first member's, the timeout a single-disk report shows.
fn per_member(enabled_banks: Option<u32>, timeouts: Vec<f64>) -> ControlAction {
    ControlAction {
        enabled_banks,
        disk_timeout: timeouts.first().copied(),
        disk_timeouts: timeouts,
    }
}

impl PeriodController for ArrayJointPolicy {
    fn on_period_end(&mut self, obs: &PeriodObservation, log: &AccessLog) -> ControlAction {
        let cfg = self.config;
        if log.is_empty() {
            self.last_candidates.clear();
            return per_member(None, vec![cfg.disk_power.break_even_s(); self.disks]);
        }

        let banks = candidate_banks(log, cfg.bank_pages, cfg.min_banks, cfg.total_banks);
        let capacities: Vec<u64> = banks
            .iter()
            .map(|&b| b as u64 * cfg.bank_pages as u64)
            .collect();
        let layout = self.layout;
        let (disks, total_pages) = (self.disks, self.total_pages);
        let predictions: Vec<Vec<SizePrediction>> = predict_sizes_routed(
            log,
            &capacities,
            cfg.window_secs,
            |page| layout.disk_of(page, disks, total_pages),
            disks,
        )
        .into_iter()
        .map(|per_disk| {
            per_disk
                .into_iter()
                .map(|p| p.with_period_bounds(obs.start, obs.end, cfg.window_secs))
                .collect()
        })
        .collect();

        // Member sub-requests count one by one in `disk_requests`.
        let avg_run_pages = if obs.disk_requests > 0 {
            obs.disk_page_accesses as f64 / obs.disk_requests as f64
        } else {
            1.0
        };

        let candidates: Vec<ArrayCandidate> = banks
            .iter()
            .zip(&predictions)
            .map(|(&b, preds)| self.evaluate(b, preds, log.len() as u64, avg_run_pages))
            .collect();

        let best = candidates
            .iter()
            .filter(|c| c.feasible)
            .min_by(|a, b| a.total_power_w.total_cmp(&b.total_power_w))
            .or_else(|| {
                candidates.iter().min_by(|a, b| {
                    let wa = a.utilizations.iter().copied().fold(0.0, f64::max);
                    let wb = b.utilizations.iter().copied().fold(0.0, f64::max);
                    wa.total_cmp(&wb)
                        .then(a.total_power_w.total_cmp(&b.total_power_w))
                })
            })
            .cloned();
        self.last_candidates = candidates;

        match best {
            Some(choice) => per_member(Some(choice.banks), choice.timeouts),
            None => ControlAction::default(),
        }
    }

    fn name(&self) -> &str {
        "joint-array"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimScale;
    use jpmd_mem::{IdlePolicy, StackProfiler};
    use jpmd_stats::IdleIntervals;

    fn policy(disks: usize, layout: Layout) -> ArrayJointPolicy {
        let scale = SimScale::small_test();
        let sim = scale.sim_config(IdlePolicy::Nap, scale.total_banks());
        ArrayJointPolicy::new(
            JointConfig::from_sim(&sim),
            disks,
            layout,
            scale.gb_to_pages(4),
        )
    }

    fn observation(banks: u32) -> PeriodObservation {
        PeriodObservation {
            start: 0.0,
            end: 600.0,
            cache_accesses: 0,
            disk_page_accesses: 0,
            disk_requests: 0,
            disk_busy_secs: 0.0,
            idle: IdleIntervals::default().stats(),
            delayed_page_accesses: 0,
            enabled_banks: banks,
            disk_timeout: f64::INFINITY,
            energy_total_j: 0.0,
        }
    }

    fn hot_log(pages: u64, accesses: usize, spacing: f64) -> AccessLog {
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        for i in 0..accesses {
            let page = i as u64 % pages;
            log.record(i as f64 * spacing, page, profiler.observe(page));
        }
        log
    }

    #[test]
    fn empty_log_sleeps_all_disks() {
        let mut p = policy(3, Layout::Partitioned);
        let action = p.on_period_end(&observation(8), &AccessLog::new());
        let timeouts = action.disk_timeouts;
        assert_eq!(timeouts.len(), 3);
        assert_eq!(action.disk_timeout, Some(timeouts[0]));
        for t in timeouts {
            assert!((t - 77.5 / 6.6).abs() < 1e-6);
        }
    }

    #[test]
    fn produces_one_timeout_per_disk() {
        let mut p = policy(4, Layout::Partitioned);
        let log = hot_log(64, 2000, 0.3);
        let action = p.on_period_end(&observation(256), &log);
        assert_eq!(action.disk_timeouts.len(), 4);
        assert!(action.enabled_banks.is_some());
        assert!(!p.last_candidates().is_empty());
        for c in p.last_candidates() {
            assert_eq!(c.timeouts.len(), 4);
            assert_eq!(c.utilizations.len(), 4);
        }
    }

    #[test]
    fn partitioned_hot_traffic_lets_cold_disks_sleep() {
        // All accesses land in the first partition: the other members'
        // predictions must show zero traffic, so their chosen timeouts are
        // the "sleep the period" break-even value while the hot member may
        // differ.
        let mut p = policy(4, Layout::Partitioned);
        let log = hot_log(64, 2000, 0.3); // pages 0..64, partition 0 holds 0..1024
        p.on_period_end(&observation(256), &log);
        let chosen = p
            .last_candidates()
            .iter()
            .find(|c| c.feasible)
            .expect("some feasible candidate");
        assert!(chosen.utilizations[0] > 0.0);
        for d in 1..4 {
            assert_eq!(chosen.utilizations[d], 0.0, "disk {d} must be idle");
        }
    }

    #[test]
    fn striped_traffic_loads_all_disks() {
        let mut p = policy(4, Layout::Striped { stripe_pages: 1 });
        let log = hot_log(64, 2000, 0.3);
        p.on_period_end(&observation(256), &log);
        let chosen = p
            .last_candidates()
            .iter()
            .find(|c| c.feasible)
            .expect("some feasible candidate");
        for d in 0..4 {
            assert!(
                chosen.utilizations[d] > 0.0,
                "striping must spread load to disk {d}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_rejected() {
        let _ = policy(0, Layout::Partitioned);
    }
}
