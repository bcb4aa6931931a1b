use serde::{Deserialize, Serialize};

use jpmd_disk::{DiskPowerModel, ServiceModel};
use jpmd_mem::{AccessLog, RdramModel};
use jpmd_sim::{ArrayConfig, ControlAction, PeriodController, PeriodObservation, SimConfig};
use jpmd_stats::fit;

use crate::error::{PolicyError, PolicyFailure};
use crate::predict::{HitOrder, SizePrediction};
use crate::timeout::{disk_static_power, optimal_timeout, perf_constrained_timeout};

/// Configuration of the joint power manager (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JointConfig {
    /// Page size, bytes.
    pub page_bytes: u64,
    /// Pages per bank (the memory-size enumeration unit, paper: 16 MB).
    pub bank_pages: u32,
    /// Installed banks (enumeration ceiling, paper: 128 GB).
    pub total_banks: u32,
    /// Smallest memory the policy will select, banks.
    pub min_banks: u32,
    /// Period `T`, s (paper: 600).
    pub period_secs: f64,
    /// Aggregation window `w` = Pareto scale `β`, s (paper: 0.1).
    pub window_secs: f64,
    /// Disk-utilization limit `U` (paper: 0.10).
    pub util_limit: f64,
    /// Delayed-access ratio limit `D` (paper: 0.001).
    pub delay_ratio_limit: f64,
    /// Latency above which an access counts as delayed, s (paper: 0.5).
    pub long_latency_secs: f64,
    /// Disk power model (for `t_be`, `t_tr`, `p_d`).
    pub disk_power: DiskPowerModel,
    /// Disk mechanical model (for the utilization estimate).
    pub disk_service: ServiceModel,
    /// Memory power model (for the per-bank static cost).
    pub mem_model: RdramModel,
    /// When false, eq. (6) and the utilization limit are dropped — the
    /// DATE'05 power-only variant, kept for the ablation benches.
    pub enforce_performance: bool,
}

impl JointConfig {
    /// Derives the joint configuration from a simulation configuration,
    /// adopting its memory geometry, models, and timing constants.
    pub fn from_sim(sim: &SimConfig) -> Self {
        Self {
            page_bytes: sim.mem.page_bytes,
            bank_pages: sim.mem.bank_pages,
            total_banks: sim.mem.total_banks,
            min_banks: 1,
            period_secs: sim.period_secs,
            window_secs: sim.aggregation_window_secs.max(1e-3),
            util_limit: 0.10,
            delay_ratio_limit: 0.001,
            long_latency_secs: sim.long_latency_secs,
            disk_power: sim.disk_power,
            disk_service: sim.disk_service,
            mem_model: sim.mem.model,
            enforce_performance: true,
        }
    }

    fn bank_mb(&self) -> f64 {
        self.bank_pages as f64 * self.page_bytes as f64 / (1024.0 * 1024.0)
    }

    fn page_mb(&self) -> f64 {
        self.page_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// One enumerated candidate with its estimated power and chosen timeout —
/// exposed for tests, ablations, and the experiment harness's diagnostics.
///
/// On a disk array every member disk gets its own prediction, fit and
/// timeout; the evaluation sums the members' accesses, idle intervals and
/// disk power, reports the busiest member's utilization, and is feasible
/// only when every member is. The timeout and the Pareto fit are the
/// first member's (the action names every member's timeout).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateEvaluation {
    /// Memory size, banks.
    pub banks: u32,
    /// Predicted disk accesses (pages) next period.
    pub disk_accesses: u64,
    /// Predicted idle intervals next period.
    pub idle_count: u64,
    /// Chosen disk timeout (eq. 5 raised to the eq. 6 bound), s.
    pub timeout_secs: f64,
    /// Estimated memory power, W.
    pub mem_power_w: f64,
    /// Estimated disk power (static + transition + dynamic), W.
    pub disk_power_w: f64,
    /// Estimated disk utilization (the busiest member's).
    pub utilization: f64,
    /// Predicted mean disk response time (M/D/1 over the utilization
    /// estimate), s.
    pub predicted_latency_secs: f64,
    /// Whether the candidate satisfies the performance constraints.
    pub feasible: bool,
    /// Fitted Pareto shape `α` of the candidate's predicted idle intervals
    /// (0 when no fit was possible).
    #[serde(default)]
    pub pareto_alpha: f64,
    /// Fitted Pareto scale `β` (0 when no fit was possible).
    #[serde(default)]
    pub pareto_beta: f64,
}

impl CandidateEvaluation {
    /// Estimated total power, W.
    pub fn total_power_w(&self) -> f64 {
        self.mem_power_w + self.disk_power_w
    }
}

/// The joint power manager (paper §IV, Fig. 2).
///
/// The control loop of the paper's Fig. 2 flowchart:
///
/// ```text
///            every period T
///                  │
///   ┌──────────────▼──────────────┐
///   │ collect last period's disk   │  AccessLog: (time, page, stack
///   │ accesses and idle intervals  │  distance) per cache access
///   └──────────────┬──────────────┘
///                  ▼
///   │ filter idle intervals with   │  aggregation window w
///   │ the aggregation window       │
///                  ▼
///   │ estimate disk IO for the     │  predict_sizes(): n_d, n_i, idle
///   │ current period at every      │  structure at every candidate
///   │ candidate memory size        │  memory size (Fig. 3/4 machinery)
///                  ▼
///   │ determine memory size and    │  Pareto fit → eq. (5) timeout,
///   │ disk timeout minimizing      │  eq. (6) bound, eq. (4) power;
///   │ energy under the constraints │  utilization ≤ U, delay ratio ≤ D
///                  ▼
///   │ resize disk cache, set disk  │  ControlAction
///   │ timeout                      │
///                  └──────────── repeat
/// ```
///
/// At every period boundary it:
///
/// 1. takes the period's [`AccessLog`] (timestamps + stack distances — the
///    paper's extended LRU list),
/// 2. enumerates candidate memory sizes at bank granularity (only the
///    sizes where the predicted disk I/O changes, §IV-B),
/// 3. for each candidate, reconstructs the predicted idle intervals
///    (merging/splitting as in Fig. 4), fits a Pareto distribution, and
///    picks the timeout `t_o = max(α·t_be, eq. 6 bound)`,
/// 4. estimates total memory + disk power via eq. (4) plus the utilization
///    × peak-dynamic term, and
/// 5. selects the feasible candidate with minimum power (disk utilization
///    ≤ `U`; ties go to the smaller memory), resizing the cache and
///    setting the disk timeout accordingly.
///
/// The run tells the policy which disks it drives
/// ([`PeriodController::on_start`]); a policy that is never started
/// manages one disk. Over an array (the paper's §VI multi-disk
/// extension) the shared cache is still sized once, but the predicted
/// miss stream is routed to the member disks by the array's layout, and
/// each member gets its own Pareto fit and eq. (5)/(6) timeout, with the
/// delayed-request budget split evenly across members. The policy then
/// minimizes memory power plus the members' summed disk power subject to
/// every member's utilization staying under `U`.
///
/// # Example
///
/// ```
/// use jpmd_core::{JointConfig, JointPolicy};
/// use jpmd_mem::{IdlePolicy, MemConfig, RdramModel};
/// use jpmd_sim::SimConfig;
///
/// let mem = MemConfig {
///     page_bytes: 1 << 20,
///     bank_pages: 16,
///     total_banks: 64,
///     initial_banks: 64,
///     model: RdramModel::default(),
///     policy: IdlePolicy::Nap,
/// };
/// let policy = JointPolicy::new(JointConfig::from_sim(&SimConfig::with_mem(mem)));
/// assert!(policy.config().enforce_performance);
/// ```
#[derive(Debug, Clone)]
pub struct JointPolicy {
    config: JointConfig,
    array: ArrayConfig,
    total_pages: u64,
    last_evaluations: Vec<CandidateEvaluation>,
    telemetry: jpmd_obs::Telemetry,
    period: u64,
}

impl JointPolicy {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero banks/pages) or limits
    /// are outside their domains.
    pub fn new(config: JointConfig) -> Self {
        Self::with_telemetry(config, jpmd_obs::Telemetry::disabled())
    }

    /// Like [`JointPolicy::new`], emitting one
    /// [`PolicyDecision`](jpmd_obs::ObsEvent::PolicyDecision) per period —
    /// the fitted Pareto model, chosen operating point, and the full
    /// candidate power table — through `telemetry`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`JointPolicy::new`].
    pub fn with_telemetry(config: JointConfig, telemetry: jpmd_obs::Telemetry) -> Self {
        match Self::try_with_telemetry(config, telemetry) {
            Ok(policy) => policy,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`JointPolicy::with_telemetry`]: returns
    /// [`PolicyError::InvalidConfig`] instead of panicking, so embedding
    /// layers can surface a bad configuration as an error.
    ///
    /// # Errors
    ///
    /// [`PolicyError::InvalidConfig`] when the geometry is degenerate
    /// (zero banks/pages, `min_banks` outside `1..=total_banks`) or the
    /// period, window, or constraint limits are outside their domains.
    pub fn try_with_telemetry(
        config: JointConfig,
        telemetry: jpmd_obs::Telemetry,
    ) -> Result<Self, PolicyError> {
        let require = |ok: bool, reason: &str| {
            if ok {
                Ok(())
            } else {
                Err(PolicyError::InvalidConfig {
                    reason: reason.to_string(),
                })
            }
        };
        require(
            config.bank_pages > 0 && config.total_banks > 0,
            "bank_pages and total_banks must be positive",
        )?;
        require(
            (1..=config.total_banks).contains(&config.min_banks),
            "min_banks must lie in 1..=total_banks",
        )?;
        require(
            config.period_secs > 0.0 && config.window_secs > 0.0,
            "period_secs and window_secs must be positive",
        )?;
        require(
            config.util_limit > 0.0 && config.delay_ratio_limit > 0.0,
            "util_limit and delay_ratio_limit must be positive",
        )?;
        Ok(Self {
            config,
            array: ArrayConfig::default(),
            total_pages: 1,
            last_evaluations: Vec::new(),
            telemetry,
            period: 0,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &JointConfig {
        &self.config
    }

    /// The candidate evaluations from the most recent period decision
    /// (diagnostics for the harness and ablations).
    pub fn last_evaluations(&self) -> &[CandidateEvaluation] {
        &self.last_evaluations
    }

    /// Evaluates one candidate size over its member disks' predictions:
    /// each member's timeout choice (pushed to `timeouts`, in member
    /// order) and the power estimate. Also returns whether any member's
    /// idle intervals could be fitted.
    fn evaluate(
        &self,
        banks: u32,
        members: &[SizePrediction],
        cache_accesses: u64,
        avg_run_pages: f64,
        timeouts: &mut Vec<f64>,
    ) -> (CandidateEvaluation, bool) {
        let cfg = &self.config;
        let t = cfg.period_secs;
        let p = &cfg.disk_power;
        // Eq. (6)'s delayed-request budget, split evenly across members.
        let share = (cache_accesses / members.len() as u64).max(1);

        // Service time from the request-size-indexed bandwidth table (paper
        // §V-A); every member serves the same observed run length.
        let run_pages = avg_run_pages.max(1.0);
        let service = cfg
            .disk_service
            .expected_service_time((run_pages * cfg.page_mb() * 1024.0 * 1024.0) as u64);

        // Memory power: static per enabled bank plus the (size-independent)
        // dynamic term.
        let mem_static_w = banks as f64 * cfg.bank_mb() * cfg.mem_model.nap_w_per_mb();
        let mem_dynamic_w =
            cache_accesses as f64 * cfg.page_mb() * cfg.mem_model.dynamic_j_per_mb() / t;

        let mut eval = CandidateEvaluation {
            banks,
            disk_accesses: 0,
            idle_count: 0,
            timeout_secs: 0.0,
            mem_power_w: mem_static_w + mem_dynamic_w,
            disk_power_w: 0.0,
            utilization: 0.0,
            predicted_latency_secs: 0.0,
            feasible: true,
            pareto_alpha: 0.0,
            pareto_beta: 0.0,
        };
        let mut fitted = false;
        for (d, pred) in members.iter().enumerate() {
            // Pareto fit over the member's predicted idle intervals.
            let pareto = pred
                .idle_mean_secs()
                .and_then(|mean| fit::pareto_from_mean(mean, cfg.window_secs).ok());

            // Timeout: eq. (5) raised to the eq. (6) bound.
            let (timeout, disk_static_w) = match (&pareto, pred.disk_accesses) {
                (Some(dist), nd) if nd > 0 => {
                    let mut to = optimal_timeout(dist, p);
                    if cfg.enforce_performance {
                        let bound = perf_constrained_timeout(
                            dist,
                            p,
                            pred.idle_count,
                            nd,
                            share,
                            t,
                            cfg.long_latency_secs,
                            cfg.delay_ratio_limit,
                        );
                        to = to.max(bound);
                    }
                    let to = to.max(cfg.window_secs);
                    (to, disk_static_power(dist, p, pred.idle_count, to, t))
                }
                (_, 0) => {
                    // No predicted disk accesses: the disk sleeps essentially
                    // the whole period after one final timeout.
                    let to = p.break_even_s();
                    (to, p.static_w() * (to + p.break_even_s()) / t)
                }
                _ => {
                    // Misses but no aggregated idleness: the disk never gets
                    // a chance to spin down.
                    (p.break_even_s(), p.static_w())
                }
            };

            // Disk dynamic power from the utilization estimate (paper §V-A:
            // utilization × peak dynamic power).
            let requests = pred.disk_accesses as f64 / run_pages;
            let utilization = requests * service / t;
            eval.disk_power_w += disk_static_w + utilization.min(1.0) * p.dynamic_peak_w();

            eval.disk_accesses += pred.disk_accesses;
            eval.idle_count += pred.idle_count;
            eval.feasible &= !cfg.enforce_performance || utilization <= cfg.util_limit;
            if d == 0 {
                eval.timeout_secs = timeout;
                eval.utilization = utilization;
                (eval.pareto_alpha, eval.pareto_beta) = pareto
                    .as_ref()
                    .map_or((0.0, 0.0), |dist| (dist.shape(), dist.scale()));
            } else {
                eval.utilization = eval.utilization.max(utilization);
            }
            fitted |= pareto.is_some();
            timeouts.push(timeout);
        }
        eval.predicted_latency_secs =
            crate::timeout::predicted_response_time(service, eval.utilization);
        (eval, fitted)
    }

    /// The action applying `timeouts`, one per member disk: the first
    /// member's is `disk_timeout`, and an array's action also names every
    /// member's (a one-disk action leaves `disk_timeouts` empty).
    fn member_action(enabled_banks: Option<u32>, timeouts: &[f64]) -> ControlAction {
        ControlAction {
            enabled_banks,
            disk_timeout: timeouts.first().copied(),
            disk_timeouts: if timeouts.len() > 1 {
                timeouts.to_vec()
            } else {
                Vec::new()
            },
        }
    }

    /// The period decision with its failure modes surfaced.
    ///
    /// Runs the identical control loop as
    /// [`on_period_end`](PeriodController::on_period_end) — candidate
    /// enumeration, per-size prediction, Pareto fit, timeout choice, power
    /// comparison, telemetry emission — but reports degenerate periods as
    /// a typed [`PolicyFailure`] instead of silently rescuing them. The
    /// failure carries the exact action the silent path would have taken,
    /// so `try_decide(...).unwrap_or_else(|f| f.fallback)` is bit-identical
    /// to `on_period_end` (which is implemented exactly that way), while a
    /// degradation guard can use the error to retreat to a simpler method.
    ///
    /// # Errors
    ///
    /// * [`PolicyError::EmptyCandidateTable`] — enumeration produced no
    ///   sizes to evaluate.
    /// * [`PolicyError::NonFiniteEnergy`] — a candidate's power estimate
    ///   came out NaN/∞, poisoning the comparison.
    /// * [`PolicyError::UnfittablePareto`] — idle intervals were predicted
    ///   but no candidate's tail (on any member disk) could be fitted.
    /// * [`PolicyError::AllInfeasible`] — every candidate violates the
    ///   performance constraints.
    pub fn try_decide(
        &mut self,
        obs: &PeriodObservation,
        log: &AccessLog,
    ) -> Result<ControlAction, PolicyFailure> {
        let cfg = self.config;
        let period = self.period;
        self.period += 1;
        let disks = self.array.disks;
        if log.is_empty() {
            // Nothing observed: keep the memory, let every disk sleep.
            self.last_evaluations.clear();
            let timeout = cfg.disk_power.break_even_s();
            self.telemetry
                .emit_with(|| jpmd_obs::ObsEvent::PolicyDecision {
                    period,
                    start_s: obs.start,
                    end_s: obs.end,
                    alpha: 0.0,
                    beta: 0.0,
                    timeout_s: timeout,
                    banks: obs.enabled_banks,
                    cache_accesses: 0,
                    candidates: Vec::new(),
                    all_infeasible: false,
                });
            return Ok(Self::member_action(None, &vec![timeout; disks]));
        }

        // The log ordered once: candidate sizes where the disk I/O
        // changes, at bank granularity, and the order in which the sweep
        // below turns accesses into hits.
        let hits = HitOrder::new(log);
        let banks = hits.candidate_banks(cfg.bank_pages, cfg.min_banks, cfg.total_banks);
        let capacities: Vec<u64> = banks
            .iter()
            .map(|&b| b as u64 * cfg.bank_pages as u64)
            .collect();
        // Each member disk's share of the misses, routed by the array's
        // layout exactly as the array places pages.
        let ArrayConfig { layout, .. } = self.array;
        let total_pages = self.total_pages;
        let predictions: Vec<SizePrediction> = hits
            .predict_sizes_routed(
                &capacities,
                cfg.window_secs,
                |page| layout.disk_of(page, disks, total_pages),
                disks,
            )
            .into_iter()
            // Include the period-boundary idle gaps: without them, low-miss
            // candidates look like the disk never sleeps (see
            // SizePrediction::with_period_bounds).
            .map(|p| p.with_period_bounds(obs.start, obs.end, cfg.window_secs))
            .collect();

        // Observed average run length feeds the utilization estimate.
        let avg_run_pages = if obs.disk_requests > 0 {
            obs.disk_page_accesses as f64 / obs.disk_requests as f64
        } else {
            1.0
        };

        // Every member's timeout at every candidate, candidate-major.
        let mut timeouts = Vec::with_capacity(predictions.len());
        let mut fitted = false;
        let evaluations: Vec<CandidateEvaluation> = banks
            .iter()
            .zip(predictions.chunks_exact(disks))
            .map(|(&b, members)| {
                let (eval, any_fit) =
                    self.evaluate(b, members, log.len() as u64, avg_run_pages, &mut timeouts);
                fitted |= any_fit;
                eval
            })
            .collect();

        // Minimum-power feasible candidate; ascending order means ties and
        // equal disk I/O resolve to the smaller memory. If nothing is
        // feasible (e.g. a compulsory-miss burst while the cache warms),
        // get as close to the constraint as possible: minimal (busiest
        // member's) utilization, then minimal power — the smallest memory
        // that achieves the fewest disk accesses.
        let chosen = evaluations
            .iter()
            .enumerate()
            .filter(|(_, e)| e.feasible)
            .min_by(|(_, a), (_, b)| a.total_power_w().total_cmp(&b.total_power_w()))
            .or_else(|| {
                evaluations.iter().enumerate().min_by(|(_, a), (_, b)| {
                    a.utilization
                        .total_cmp(&b.utilization)
                        .then(a.total_power_w().total_cmp(&b.total_power_w()))
                })
            })
            .map(|(i, _)| i);
        let best = chosen.map(|i| evaluations[i]);
        self.last_evaluations = evaluations;

        self.telemetry.emit_with(|| {
            let all_infeasible = self.last_evaluations.iter().all(|e| !e.feasible);
            jpmd_obs::ObsEvent::PolicyDecision {
                period,
                start_s: obs.start,
                end_s: obs.end,
                alpha: best.map_or(0.0, |c| c.pareto_alpha),
                beta: best.map_or(0.0, |c| c.pareto_beta),
                timeout_s: best.map_or(obs.disk_timeout, |c| c.timeout_secs),
                banks: best.map_or(obs.enabled_banks, |c| c.banks),
                cache_accesses: log.len() as u64,
                candidates: self
                    .last_evaluations
                    .iter()
                    .map(|e| jpmd_obs::CandidatePower {
                        banks: e.banks,
                        power_w: e.total_power_w(),
                        timeout_s: e.timeout_secs,
                        utilization: e.utilization,
                        feasible: e.feasible,
                    })
                    .collect(),
                all_infeasible,
            }
        });

        let action = match chosen {
            Some(i) => Self::member_action(
                Some(self.last_evaluations[i].banks),
                &timeouts[i * disks..(i + 1) * disks],
            ),
            None => ControlAction::default(),
        };

        // Classify degenerate periods, carrying `action` so the silent
        // path (`on_period_end`) stays bit-identical to the pre-taxonomy
        // behavior.
        let fail = |error: PolicyError| PolicyFailure {
            error,
            fallback: action.clone(),
        };
        let evals = &self.last_evaluations;
        if evals.is_empty() {
            return Err(fail(PolicyError::EmptyCandidateTable));
        }
        if let Some(bad) = evals.iter().find(|e| !e.total_power_w().is_finite()) {
            return Err(fail(PolicyError::NonFiniteEnergy { banks: bad.banks }));
        }
        let needs_fit = evals
            .iter()
            .any(|e| e.disk_accesses > 0 && e.idle_count > 0);
        if needs_fit && !fitted {
            return Err(fail(PolicyError::UnfittablePareto {
                candidates: evals.len(),
            }));
        }
        if evals.iter().all(|e| !e.feasible) {
            return Err(fail(PolicyError::AllInfeasible {
                candidates: evals.len(),
            }));
        }
        Ok(action)
    }
}

/// The dynamic state of a [`JointPolicy`], captured into checkpoints: the
/// period counter (it numbers `PolicyDecision` telemetry events) and the
/// most recent candidate table (exposed through
/// [`JointPolicy::last_evaluations`]). The configuration, the array and
/// the telemetry handle are *not* part of the snapshot — a resumed run
/// reconstructs them the same way the original did.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct JointSnapshot {
    period: u64,
    last_evaluations: Vec<CandidateEvaluation>,
}

impl PeriodController for JointPolicy {
    fn on_start(&mut self, array: ArrayConfig, total_pages: u64) {
        self.array = array;
        self.total_pages = total_pages;
    }

    fn on_period_end(&mut self, obs: &PeriodObservation, log: &AccessLog) -> ControlAction {
        self.try_decide(obs, log)
            .unwrap_or_else(|failure| failure.fallback)
    }

    fn name(&self) -> &str {
        "joint"
    }

    fn snapshot_state(&self) -> serde::Value {
        serde::Serialize::to_value(&JointSnapshot {
            period: self.period,
            last_evaluations: self.last_evaluations.clone(),
        })
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let snapshot = <JointSnapshot as serde::Deserialize>::from_value(state)?;
        self.period = snapshot.period;
        self.last_evaluations = snapshot.last_evaluations;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpmd_disk::Layout;
    use jpmd_mem::{IdlePolicy, MemConfig, StackProfiler};
    use jpmd_stats::IntervalStats;

    fn config(total_banks: u32) -> JointConfig {
        let mem = MemConfig {
            page_bytes: 1 << 20,
            bank_pages: 4,
            total_banks,
            initial_banks: total_banks,
            model: RdramModel::default(),
            policy: IdlePolicy::Nap,
        };
        JointConfig::from_sim(&SimConfig::with_mem(mem))
    }

    fn observation(banks: u32) -> PeriodObservation {
        PeriodObservation {
            start: 0.0,
            end: 600.0,
            cache_accesses: 0,
            disk_page_accesses: 0,
            disk_requests: 0,
            disk_busy_secs: 0.0,
            idle: IntervalStats {
                count: 0,
                mean: 0.0,
                min: f64::INFINITY,
                max: 0.0,
                total: 0.0,
            },
            delayed_page_accesses: 0,
            enabled_banks: banks,
            disk_timeout: f64::INFINITY,
            energy_total_j: 0.0,
        }
    }

    /// A log where a small working set is reused heavily: pages 0..k cycle.
    fn cyclic_log(pages: u64, accesses: usize, spacing: f64) -> AccessLog {
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        for i in 0..accesses {
            let page = i as u64 % pages;
            log.record(i as f64 * spacing, page, profiler.observe(page));
        }
        log
    }

    /// A policy started on `disks` members behind `layout` over a
    /// 4096-page space.
    fn array_policy(disks: usize, layout: Layout) -> JointPolicy {
        let mut policy = JointPolicy::new(config(256));
        policy.on_start(ArrayConfig { disks, layout }, 4096);
        policy
    }

    #[test]
    fn empty_log_keeps_memory_and_sleeps_disk() {
        let mut policy = JointPolicy::new(config(8));
        let action = policy.on_period_end(&observation(8), &AccessLog::new());
        assert_eq!(action.enabled_banks, None);
        let to = action.disk_timeout.unwrap();
        assert!((to - 77.5 / 6.6).abs() < 1e-6);
        // A policy that is never started manages one disk.
        assert!(action.disk_timeouts.is_empty());
    }

    #[test]
    fn a_one_disk_array_decides_like_an_unstarted_policy() {
        let log = cyclic_log(64, 4000, 0.15);
        let mut plain = JointPolicy::new(config(256));
        let expected = plain.on_period_end(&observation(256), &log);
        for layout in [Layout::Partitioned, Layout::Striped { stripe_pages: 1 }] {
            let mut started = array_policy(1, layout);
            assert_eq!(started.on_period_end(&observation(256), &log), expected);
            assert_eq!(started.last_evaluations(), plain.last_evaluations());
        }
    }

    #[test]
    fn array_decisions_set_one_timeout_per_member() {
        let mut policy = array_policy(3, Layout::Partitioned);
        let action = policy.on_period_end(&observation(256), &AccessLog::new());
        assert_eq!(action.disk_timeouts.len(), 3);
        assert_eq!(action.disk_timeout, Some(action.disk_timeouts[0]));
        for to in &action.disk_timeouts {
            assert!((to - 77.5 / 6.6).abs() < 1e-6);
        }

        let mut policy = array_policy(4, Layout::Partitioned);
        let action = policy.on_period_end(&observation(256), &cyclic_log(64, 2000, 0.3));
        assert!(action.enabled_banks.is_some());
        assert_eq!(action.disk_timeouts.len(), 4);
        assert_eq!(action.disk_timeout, Some(action.disk_timeouts[0]));
    }

    #[test]
    fn cold_partitioned_members_sleep_the_period() {
        // Every access lands in member 0's partition: the other members
        // are predicted idle and get the "sleep the period" break-even
        // timeout, while member 0's comes from its own fit.
        let mut policy = array_policy(4, Layout::Partitioned);
        let action = policy.on_period_end(&observation(256), &cyclic_log(64, 2000, 0.3));
        let break_even = policy.config().disk_power.break_even_s();
        assert_ne!(action.disk_timeouts[0], break_even);
        assert_eq!(action.disk_timeouts[1..], [break_even; 3]);
    }

    #[test]
    fn striping_loads_every_member() {
        let log = cyclic_log(64, 2000, 0.3);
        let mut striped = array_policy(4, Layout::Striped { stripe_pages: 1 });
        let action = striped.on_period_end(&observation(256), &log);
        let break_even = striped.config().disk_power.break_even_s();
        assert!(action.disk_timeouts.iter().all(|&to| to != break_even));
        // The same misses over four members: the busiest member carries a
        // quarter of what one partitioned member does.
        let mut partitioned = array_policy(4, Layout::Partitioned);
        partitioned.on_period_end(&observation(256), &log);
        for (s, p) in striped
            .last_evaluations()
            .iter()
            .zip(partitioned.last_evaluations())
        {
            assert_eq!((s.banks, s.disk_accesses), (p.banks, p.disk_accesses));
            assert!(s.utilization < p.utilization, "{} banks", s.banks);
        }
    }

    #[test]
    fn hot_working_set_shrinks_memory() {
        // 8 pages reused constantly: anything beyond 2 banks (8 pages) is
        // wasted memory, so the policy should shrink toward it.
        let mut policy = JointPolicy::new(config(16));
        let log = cyclic_log(8, 2000, 0.3);
        let action = policy.on_period_end(&observation(16), &log);
        let banks = action.enabled_banks.unwrap();
        assert!(
            banks <= 3,
            "working set fits in 2 banks; policy picked {banks}"
        );
        assert!(banks >= 2, "shrinking below the working set thrashes");
    }

    #[test]
    fn streaming_workload_prefers_small_memory() {
        // No reuse at all: every access is cold, memory cannot help the
        // disk, so the minimum memory wins.
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        for i in 0..1500u64 {
            log.record(i as f64 * 0.4, i, profiler.observe(i));
        }
        let mut policy = JointPolicy::new(config(16));
        let action = policy.on_period_end(&observation(16), &log);
        assert_eq!(action.enabled_banks, Some(1));
    }

    #[test]
    fn performance_constraint_raises_timeout() {
        let log = cyclic_log(64, 4000, 0.15);
        let mut constrained = JointPolicy::new(config(16));
        let mut unconstrained = {
            let mut c = config(16);
            c.enforce_performance = false;
            JointPolicy::new(c)
        };
        let a = constrained.on_period_end(&observation(16), &log);
        let b = unconstrained.on_period_end(&observation(16), &log);
        // Same candidate set; the constrained timeout can only be larger
        // when both select the same memory size.
        if a.enabled_banks == b.enabled_banks {
            assert!(a.disk_timeout.unwrap() >= b.disk_timeout.unwrap());
        }
        // The evaluations carry per-candidate feasibility.
        assert!(constrained.last_evaluations().iter().any(|e| e.feasible));
    }

    #[test]
    fn infeasible_everywhere_picks_lowest_utilization() {
        // Saturating traffic: every access cold, 1 ms apart — utilization
        // blows past U at every size. All sizes miss identically (no
        // reuse), so the policy gets as close to the constraint as it can
        // and wastes no memory doing it.
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        for i in 0..200_000u64 {
            log.record(i as f64 * 1e-3, i, profiler.observe(i));
        }
        let mut policy = JointPolicy::new(config(4));
        let action = policy.on_period_end(&observation(4), &log);
        assert_eq!(action.enabled_banks, Some(1));
        assert!(policy.last_evaluations().iter().all(|e| !e.feasible));
    }

    #[test]
    fn infeasible_with_reuse_prefers_fewer_misses() {
        // Heavy traffic with reuse: larger memory genuinely reduces
        // utilization, so the infeasible fallback must choose it.
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        for i in 0..100_000u64 {
            // An 8-page working set revisited constantly, interleaved with
            // a cold stream: each working-set page recurs at stack
            // distance ~16, so capacity 16 halves the miss traffic.
            let page = if i % 2 == 0 {
                i
            } else {
                1_000_000 + (i / 2) % 8
            };
            log.record(i as f64 * 1e-3, page, profiler.observe(page));
        }
        let mut policy = JointPolicy::new(config(8));
        let action = policy.on_period_end(&observation(8), &log);
        let evals = policy.last_evaluations();
        assert!(evals.iter().all(|e| !e.feasible));
        // The chosen size is the smallest with the minimal predicted
        // utilization, which requires holding the interleaved working set.
        let chosen = action.enabled_banks.unwrap();
        assert!(
            chosen as u64 * 4 >= 16,
            "chosen {chosen} banks must cover the working set"
        );
    }

    #[test]
    fn evaluations_power_accounts_memory_size() {
        let log = cyclic_log(16, 2000, 0.3);
        let mut policy = JointPolicy::new(config(16));
        policy.on_period_end(&observation(16), &log);
        let evals = policy.last_evaluations();
        assert!(evals.len() >= 2);
        // Memory power strictly increases with banks.
        for pair in evals.windows(2) {
            assert!(pair[0].banks < pair[1].banks);
            assert!(pair[0].mem_power_w < pair[1].mem_power_w);
        }
    }

    #[test]
    fn timeout_respects_window_floor() {
        let log = cyclic_log(64, 1000, 0.05); // gaps below the window
        let mut policy = JointPolicy::new(config(16));
        let action = policy.on_period_end(&observation(16), &log);
        if let Some(to) = action.disk_timeout {
            assert!(to >= policy.config().window_secs);
        }
    }

    #[test]
    fn try_with_telemetry_rejects_degenerate_configs() {
        let telemetry = jpmd_obs::Telemetry::disabled;
        let mut bad = config(8);
        bad.min_banks = 9;
        let err = JointPolicy::try_with_telemetry(bad, telemetry()).unwrap_err();
        assert!(matches!(err, crate::PolicyError::InvalidConfig { .. }));

        let mut bad = config(8);
        bad.period_secs = f64::NAN;
        assert!(JointPolicy::try_with_telemetry(bad, telemetry()).is_err());

        let mut bad = config(8);
        bad.util_limit = 0.0;
        assert!(JointPolicy::try_with_telemetry(bad, telemetry()).is_err());

        assert!(JointPolicy::try_with_telemetry(config(8), telemetry()).is_ok());
    }

    #[test]
    fn try_decide_matches_on_period_end_bit_for_bit() {
        // The two stances must agree on every period: healthy logs via the
        // Ok action, degenerate ones via the carried fallback.
        let logs = [AccessLog::new(), cyclic_log(8, 2000, 0.3), {
            let mut profiler = StackProfiler::new();
            let mut log = AccessLog::new();
            for i in 0..200_000u64 {
                log.record(i as f64 * 1e-3, i, profiler.observe(i));
            }
            log
        }];
        for log in &logs {
            let mut silent = JointPolicy::new(config(4));
            let mut typed = JointPolicy::new(config(4));
            let expected = silent.on_period_end(&observation(4), log);
            let got = typed
                .try_decide(&observation(4), log)
                .unwrap_or_else(|f| f.fallback);
            assert_eq!(expected, got);
        }
    }

    #[test]
    fn try_decide_reports_all_infeasible_with_fallback() {
        // The saturating workload from infeasible_everywhere_* now also
        // surfaces a typed error alongside the identical fallback action.
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        for i in 0..200_000u64 {
            log.record(i as f64 * 1e-3, i, profiler.observe(i));
        }
        let mut policy = JointPolicy::new(config(4));
        let failure = policy.try_decide(&observation(4), &log).unwrap_err();
        assert!(matches!(
            failure.error,
            crate::PolicyError::AllInfeasible { candidates } if candidates > 0
        ));
        assert_eq!(failure.fallback.enabled_banks, Some(1));
        assert_eq!(failure.error.kind(), "all_infeasible");
    }

    #[test]
    fn try_decide_accepts_healthy_periods() {
        let log = cyclic_log(8, 2000, 0.3);
        let mut policy = JointPolicy::new(config(16));
        let action = policy
            .try_decide(&observation(16), &log)
            .expect("healthy period must decide cleanly");
        assert!(action.enabled_banks.is_some());
        assert!(action.disk_timeouts.is_empty());
    }
}
