//! Fleet-level results: per-shard [`RunReport`]s merged into one
//! [`FleetReport`] with aggregate energy, tail latency, delay ratios, and
//! traffic-imbalance statistics.

use serde::{Deserialize, Serialize};

use jpmd_sim::{EnergyBreakdown, RunReport};

/// Traffic imbalance across shards, from per-shard cache accesses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Imbalance {
    /// Cache accesses per shard, in shard order.
    pub per_shard_accesses: Vec<u64>,
    /// Hottest shard's accesses over the mean (1.0 = perfectly even).
    pub max_over_mean: f64,
    /// Coefficient of variation of per-shard accesses.
    pub cv: f64,
}

impl Imbalance {
    fn from_accesses(per_shard_accesses: Vec<u64>) -> Self {
        let n = per_shard_accesses.len().max(1) as f64;
        let mean = per_shard_accesses.iter().sum::<u64>() as f64 / n;
        let (max_over_mean, cv) = if mean > 0.0 {
            let max = per_shard_accesses.iter().copied().max().unwrap_or(0) as f64;
            let var = per_shard_accesses
                .iter()
                .map(|&a| (a as f64 - mean).powi(2))
                .sum::<f64>()
                / n;
            (max / mean, var.sqrt() / mean)
        } else {
            (0.0, 0.0)
        };
        Imbalance {
            per_shard_accesses,
            max_over_mean,
            cv,
        }
    }
}

/// Merged results of one fleet run. Derived equality is wall-clock-safe
/// because [`RunReport`] equality already excludes wall-clock fields —
/// the fleet resume tests compare whole `FleetReport`s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Driver mode that produced the run (`"per-shard-greedy"`,
    /// `"coordinated"`).
    pub mode: String,
    /// Per-shard reports, index = shard id.
    pub shards: Vec<RunReport>,
    /// Summed energy across shards.
    pub energy: EnergyBreakdown,
    /// Worst per-shard p99 disk-request latency, s.
    pub p99_secs: f64,
    /// Per-shard delayed-access ratio (long-latency accesses over cache
    /// accesses), in shard order.
    pub delay_ratios: Vec<f64>,
    /// Traffic spread across shards.
    pub imbalance: Imbalance,
}

impl FleetReport {
    /// Merges per-shard reports (index = shard id) into a fleet report.
    pub fn from_shards(mode: impl Into<String>, shards: Vec<RunReport>) -> Self {
        let mut energy = EnergyBreakdown::default();
        let mut p99_secs: f64 = 0.0;
        let mut delay_ratios = Vec::with_capacity(shards.len());
        let mut accesses = Vec::with_capacity(shards.len());
        for report in &shards {
            energy.mem.static_j += report.energy.mem.static_j;
            energy.mem.dynamic_j += report.energy.mem.dynamic_j;
            energy.disk.active_j += report.energy.disk.active_j;
            energy.disk.idle_j += report.energy.disk.idle_j;
            energy.disk.standby_j += report.energy.disk.standby_j;
            energy.disk.transition_j += report.energy.disk.transition_j;
            p99_secs = p99_secs.max(report.request_latency_p99_secs);
            delay_ratios
                .push(report.long_latency_count as f64 / report.cache_accesses.max(1) as f64);
            accesses.push(report.cache_accesses);
        }
        FleetReport {
            mode: mode.into(),
            shards,
            energy,
            p99_secs,
            delay_ratios,
            imbalance: Imbalance::from_accesses(accesses),
        }
    }

    /// Total fleet energy, J.
    pub fn total_energy_j(&self) -> f64 {
        self.energy.total_j()
    }

    /// Summed cache accesses across shards.
    pub fn total_accesses(&self) -> u64 {
        self.shards.iter().map(|r| r.cache_accesses).sum()
    }

    /// Zeroes every wall-clock field (replay throughput, span seconds) so
    /// two equal runs serialize to byte-identical JSON — the fleet chaos
    /// smoke diffs these files, mirroring the single-run chaos bin.
    pub fn zero_wall_clock(&mut self) {
        for report in &mut self.shards {
            report.zero_wall_clock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_of_even_traffic_is_flat() {
        let i = Imbalance::from_accesses(vec![100, 100, 100, 100]);
        assert!((i.max_over_mean - 1.0).abs() < 1e-12);
        assert!(i.cv.abs() < 1e-12);
    }

    #[test]
    fn imbalance_flags_the_hot_shard() {
        let i = Imbalance::from_accesses(vec![900, 100, 100, 100]);
        assert!(i.max_over_mean > 2.9);
        assert!(i.cv > 1.0);
    }

    #[test]
    fn imbalance_of_empty_fleet_is_zero() {
        let i = Imbalance::from_accesses(vec![0, 0]);
        assert_eq!(i.max_over_mean, 0.0);
        assert_eq!(i.cv, 0.0);
    }
}
