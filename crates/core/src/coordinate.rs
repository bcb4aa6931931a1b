//! Fleet coordination seam: bank-budget allocation across shards.
//!
//! A fleet (`jpmd-fleet`) runs N independent engines, each with its own
//! disk/cache pair and its own [`JointPolicy`]. The shards share one
//! *global* memory-bank budget — the production constraint the ROADMAP
//! north star cares about: installed DRAM is provisioned fleet-wide, not
//! per disk. Two pieces implement the coordinated alternative to
//! per-shard greedy:
//!
//! * [`BiddingJointPolicy`] wraps a shard's joint policy and records, per
//!   period, the candidate power table the policy weighed (the same table
//!   `PolicyDecision` telemetry carries) plus the operating point it
//!   chose. The recorded [`PeriodBid`]s are the shard's bids.
//! * [`allocate_budget`] solves one period's allocation: starting every
//!   shard at its smallest candidate, it repeatedly applies the upgrade
//!   with the best **marginal energy saving per bank** that still fits the
//!   budget — the greedy knapsack heuristic of the multi-disk related work
//!   ("Energy-Aware Disk Storage Management", PAPERS.md).
//! * [`PlannedController`] replays a per-period plan (banks + timeout)
//!   produced from the allocation, so the coordinated fleet run is a
//!   deterministic, checkpointable simulation like any other.
//!
//! The seam lives next to the joint policy deliberately: over a disk
//! array [`JointPolicy`] coordinates disks *inside one engine*, this module
//! coordinates budget *across engines*.

use serde::{Deserialize, Serialize};

use jpmd_mem::AccessLog;
use jpmd_obs::CandidatePower;
use jpmd_sim::{ArrayConfig, ControlAction, PeriodController, PeriodObservation};

use crate::JointPolicy;

/// One shard-period operating point: the memory size and disk timeout a
/// plan (or a policy) commits to for the next period.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanPoint {
    /// Memory size, banks.
    pub banks: u32,
    /// Disk spin-down timeout, s.
    pub timeout_s: f64,
}

/// One shard's bid for one period: the candidate power table its joint
/// policy weighed, and the point the *uncoordinated* policy chose (the
/// fallback when the table is empty — e.g. an idle period).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodBid {
    /// What the shard's own greedy policy picked.
    pub chosen: PlanPoint,
    /// The candidate table (never empty: an idle period bids its chosen
    /// fallback as the single candidate).
    pub candidates: Vec<CandidatePower>,
}

/// Wraps a shard's [`JointPolicy`] so every period decision is recorded
/// as a [`PeriodBid`] while the policy keeps running untouched — the
/// bidding pass of the fleet coordinator is bit-identical to a plain
/// per-shard joint run.
pub struct BiddingJointPolicy {
    inner: JointPolicy,
    bids: Vec<PeriodBid>,
}

impl BiddingJointPolicy {
    /// Records bids from `inner`'s decisions.
    pub fn new(inner: JointPolicy) -> Self {
        BiddingJointPolicy {
            inner,
            bids: Vec::new(),
        }
    }

    /// The bids recorded so far, one per closed period.
    pub fn bids(&self) -> &[PeriodBid] {
        &self.bids
    }

    /// Consumes the wrapper, yielding the recorded bids.
    pub fn into_bids(self) -> Vec<PeriodBid> {
        self.bids
    }
}

impl PeriodController for BiddingJointPolicy {
    fn on_start(&mut self, array: ArrayConfig, total_pages: u64) {
        self.inner.on_start(array, total_pages);
    }

    fn on_period_end(&mut self, observation: &PeriodObservation, log: &AccessLog) -> ControlAction {
        let action = self.inner.on_period_end(observation, log);
        let chosen = PlanPoint {
            banks: action.enabled_banks.unwrap_or(observation.enabled_banks),
            timeout_s: action.disk_timeout.unwrap_or(observation.disk_timeout),
        };
        let mut candidates: Vec<CandidatePower> = self
            .inner
            .last_evaluations()
            .iter()
            .map(|e| CandidatePower {
                banks: e.banks,
                power_w: e.total_power_w(),
                timeout_s: e.timeout_secs,
                utilization: e.utilization,
                feasible: e.feasible,
            })
            .collect();
        if candidates.is_empty() {
            // Idle period: the policy fell back to "keep memory, sleep
            // disk". Bid that point alone so the coordinator charges its
            // banks against the budget without inventing alternatives.
            candidates.push(CandidatePower {
                banks: chosen.banks,
                power_w: 0.0,
                timeout_s: chosen.timeout_s,
                utilization: 0.0,
                feasible: true,
            });
        }
        self.bids.push(PeriodBid { chosen, candidates });
        action
    }

    fn name(&self) -> &str {
        "joint-bidding"
    }

    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("inner".to_string(), self.inner.snapshot_state()),
            ("bids".to_string(), serde::Serialize::to_value(&self.bids)),
        ])
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let field = |name: &str| {
            state.get(name).ok_or_else(|| {
                serde::Error::custom(format!("BiddingJointPolicy: missing field '{name}'"))
            })
        };
        self.inner.restore_state(field("inner")?)?;
        self.bids = serde::Deserialize::from_value(field("bids")?)?;
        Ok(())
    }
}

/// Replays a fixed per-period plan: period `p` applies `plan[p]` (the
/// last entry repeats past the end, and an empty plan keeps the engine's
/// settings). The only dynamic state is the period counter, which travels
/// through checkpoints, so a resumed planned run is bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedController {
    plan: Vec<PlanPoint>,
    period: u64,
}

impl PlannedController {
    /// A controller replaying `plan`.
    pub fn new(plan: Vec<PlanPoint>) -> Self {
        PlannedController { plan, period: 0 }
    }

    /// The plan being replayed.
    pub fn plan(&self) -> &[PlanPoint] {
        &self.plan
    }
}

impl PeriodController for PlannedController {
    fn on_period_end(&mut self, _: &PeriodObservation, _: &AccessLog) -> ControlAction {
        let index = (self.period as usize).min(self.plan.len().saturating_sub(1));
        self.period += 1;
        match self.plan.get(index) {
            Some(point) => ControlAction {
                enabled_banks: Some(point.banks),
                disk_timeout: Some(point.timeout_s),
                disk_timeouts: Vec::new(),
            },
            None => ControlAction::default(),
        }
    }

    fn name(&self) -> &str {
        "planned"
    }

    fn reads_access_log(&self) -> bool {
        false
    }

    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Object(vec![("period".to_string(), serde::Value::U64(self.period))])
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let period = state.get("period").ok_or_else(|| {
            serde::Error::custom("PlannedController: missing field 'period'".to_string())
        })?;
        self.period = serde::Deserialize::from_value(period)?;
        Ok(())
    }
}

/// Allocates one period's global bank budget across shards from their
/// candidate power tables, greedily by marginal energy saving.
///
/// Per shard, the usable table is its feasible candidates (all of them
/// when none is feasible — mirroring the joint policy's least-infeasible
/// fallback). Every shard starts at its smallest-banks candidate; then,
/// while the budget allows, the single upgrade (more banks, less power)
/// with the highest power saving per extra bank is applied anywhere in
/// the fleet. With a budget large enough for every shard's unconstrained
/// optimum this reproduces per-shard greedy exactly; with a tight budget
/// the banks flow to the shards whose energy bends most per bank — the
/// hot spots.
///
/// Returns one [`PlanPoint`] per shard (shards with an empty bid keep
/// zero banks and a zero timeout — callers should bid at least one
/// candidate, as [`BiddingJointPolicy`] always does). The summed banks
/// of the result can exceed `budget_banks` only when even the minimum
/// bids do — the budget is then infeasible and the minima are returned.
pub fn allocate_budget(bids: &[&[CandidatePower]], budget_banks: u32) -> Vec<PlanPoint> {
    // Usable, banks-sorted, power-deduped table per shard.
    let tables: Vec<Vec<CandidatePower>> = bids
        .iter()
        .map(|table| {
            let mut usable: Vec<CandidatePower> = if table.iter().any(|c| c.feasible) {
                table.iter().filter(|c| c.feasible).copied().collect()
            } else {
                table.to_vec()
            };
            usable.sort_by(|a, b| {
                a.banks.cmp(&b.banks).then(
                    a.power_w
                        .partial_cmp(&b.power_w)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
            });
            usable.dedup_by(|next, kept| {
                // Same size: keep the cheaper (first after the sort).
                next.banks == kept.banks
            });
            usable
        })
        .collect();

    let mut current: Vec<usize> = vec![0; tables.len()];
    let mut used: u64 = tables
        .iter()
        .map(|t| t.first().map_or(0, |c| u64::from(c.banks)))
        .sum();

    loop {
        // Best single upgrade: most power saved per extra bank, fitting
        // the remaining budget.
        let mut best: Option<(usize, usize, f64)> = None;
        for (shard, table) in tables.iter().enumerate() {
            let Some(cur) = table.get(current[shard]) else {
                continue;
            };
            for (j, cand) in table.iter().enumerate().skip(current[shard] + 1) {
                if cand.banks <= cur.banks || cand.power_w >= cur.power_w {
                    continue;
                }
                let next_used = used - u64::from(cur.banks) + u64::from(cand.banks);
                if next_used > u64::from(budget_banks) {
                    continue;
                }
                let rate = (cur.power_w - cand.power_w) / f64::from(cand.banks - cur.banks);
                if best.is_none_or(|(_, _, r)| rate > r) {
                    best = Some((shard, j, rate));
                }
            }
        }
        let Some((shard, j, _)) = best else { break };
        used = used - u64::from(tables[shard][current[shard]].banks)
            + u64::from(tables[shard][j].banks);
        current[shard] = j;
    }

    tables
        .iter()
        .zip(&current)
        .map(|(table, &i)| match table.get(i) {
            Some(c) => PlanPoint {
                banks: c.banks,
                timeout_s: c.timeout_s,
            },
            None => PlanPoint {
                banks: 0,
                timeout_s: 0.0,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(banks: u32, power_w: f64) -> CandidatePower {
        CandidatePower {
            banks,
            power_w,
            timeout_s: f64::from(banks),
            utilization: 0.1,
            feasible: true,
        }
    }

    #[test]
    fn ample_budget_reaches_every_shards_optimum() {
        let hot = [cand(1, 30.0), cand(4, 12.0), cand(8, 6.0)];
        let cold = [cand(1, 5.0), cand(4, 4.5), cand(8, 4.4)];
        let plan = allocate_budget(&[&hot, &cold], 16);
        assert_eq!(plan[0].banks, 8);
        assert_eq!(plan[1].banks, 8);
    }

    #[test]
    fn tight_budget_flows_banks_to_the_hot_shard() {
        let hot = [cand(1, 30.0), cand(4, 12.0), cand(8, 6.0)];
        let cold = [cand(1, 5.0), cand(4, 4.5), cand(8, 4.4)];
        // Nine banks: the hot shard's upgrades save 6 W/bank then 1.5
        // W/bank; the cold shard's save < 0.2 W/bank. Hot gets 8, cold
        // stays at 1.
        let plan = allocate_budget(&[&hot, &cold], 9);
        assert_eq!(plan[0].banks, 8);
        assert_eq!(plan[1].banks, 1);
        let total: u32 = plan.iter().map(|p| p.banks).sum();
        assert!(total <= 9);
    }

    #[test]
    fn infeasible_candidates_are_ignored_when_a_feasible_one_exists() {
        let mut bad = cand(8, 0.1);
        bad.feasible = false;
        let table = [cand(2, 10.0), bad, cand(4, 6.0)];
        let plan = allocate_budget(&[&table], 16);
        assert_eq!(plan[0].banks, 4);
    }

    #[test]
    fn all_infeasible_tables_fall_back_to_least_power() {
        let mut a = cand(2, 10.0);
        a.feasible = false;
        let mut b = cand(4, 6.0);
        b.feasible = false;
        let plan = allocate_budget(&[&[a, b]], 16);
        assert_eq!(plan[0].banks, 4);
    }

    #[test]
    fn timeouts_follow_the_chosen_candidate() {
        let table = [cand(2, 10.0), cand(4, 6.0)];
        let plan = allocate_budget(&[&table], 16);
        assert!((plan[0].timeout_s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_bid_yields_zero_banks() {
        let some = [cand(2, 1.0)];
        let plan = allocate_budget(&[&[], &some], 4);
        assert_eq!(plan[0].banks, 0);
        assert_eq!(plan[1].banks, 2);
    }

    #[test]
    fn allocation_is_deterministic() {
        let hot = [cand(1, 30.0), cand(4, 12.0), cand(8, 6.0)];
        let cold = [cand(1, 5.0), cand(4, 4.5)];
        let a = allocate_budget(&[&hot, &cold], 10);
        let b = allocate_budget(&[&hot, &cold], 10);
        assert_eq!(a, b);
    }

    #[test]
    fn planned_controller_replays_and_checkpoints_its_counter() {
        let plan = vec![
            PlanPoint {
                banks: 4,
                timeout_s: 2.0,
            },
            PlanPoint {
                banks: 2,
                timeout_s: 8.0,
            },
        ];
        let obs = PeriodObservation {
            start: 0.0,
            end: 600.0,
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
        let log = AccessLog::new();
        let mut ctrl = PlannedController::new(plan.clone());
        assert_eq!(ctrl.on_period_end(&obs, &log).enabled_banks, Some(4));
        let snapshot = ctrl.snapshot_state();
        assert_eq!(ctrl.on_period_end(&obs, &log).enabled_banks, Some(2));
        // Past the end, the last entry repeats.
        assert_eq!(ctrl.on_period_end(&obs, &log).enabled_banks, Some(2));

        // A rebuilt controller restored from the snapshot continues at
        // period 1, exactly like the original did.
        let mut resumed = PlannedController::new(plan);
        resumed.restore_state(&snapshot).unwrap();
        assert_eq!(resumed.on_period_end(&obs, &log).enabled_banks, Some(2));

        // An empty plan keeps the engine's settings.
        let mut empty = PlannedController::new(Vec::new());
        assert_eq!(empty.on_period_end(&obs, &log), ControlAction::default());
    }
}
