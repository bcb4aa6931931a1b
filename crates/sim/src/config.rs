use serde::{Deserialize, Serialize};

use jpmd_disk::{DiskPowerModel, Layout, ServiceModel};
use jpmd_mem::{MemConfig, Replacement};

/// Geometry of the disks behind the cache: `disks` identical members,
/// each with its own copy of the run's spin-down policy, holding the page
/// space per `layout`. The default — one partitioned disk — is the
/// paper's single-disk system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// Number of member disks (≥ 1).
    pub disks: usize,
    /// Data layout across members.
    pub layout: Layout,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig {
            disks: 1,
            layout: Layout::Partitioned,
        }
    }
}

/// Configuration of one system simulation (memory + disk + timing).
///
/// Defaults follow Table II of the paper: period `T` = 10 min, aggregation
/// window `w` = 0.1 s, half-second long-latency threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Memory subsystem configuration.
    pub mem: MemConfig,
    /// Disk power model.
    pub disk_power: DiskPowerModel,
    /// Disk mechanical model.
    pub disk_service: ServiceModel,
    /// Control-period length `T`, s.
    pub period_secs: f64,
    /// Latency above which a request counts as "long" (user-noticeable),
    /// s. Paper: 0.5.
    pub long_latency_secs: f64,
    /// Idle-interval aggregation window `w`, s. Paper: 0.1.
    pub aggregation_window_secs: f64,
    /// Metrics and energy are reported from this offset onward, letting
    /// the cache warm up first. 0 disables warm-up exclusion.
    pub warmup_secs: f64,
    /// Disk-cache replacement policy (default: global LRU, as in the
    /// paper; `BankAware` is the power-aware alternative of related work
    /// \[6\]/\[36\]).
    pub replacement: Replacement,
    /// When true and the memory policy is `DisableAfter`, pages of
    /// nearly-expired banks migrate to warm banks instead of being lost.
    pub consolidate: bool,
    /// Period of the dirty-page flush daemon (pdflush-style), s. Dirty
    /// pages written by `AccessKind::Write` requests reach the disk when
    /// evicted or at each sync tick. `f64::INFINITY` disables the daemon
    /// (the default; the paper's SPECWeb99 workloads are read-dominated).
    pub sync_interval_secs: f64,
    /// The disks behind the cache (default: one disk; more members model
    /// the paper's §VI multi-disk extension).
    #[serde(default)]
    pub array: ArrayConfig,
}

impl SimConfig {
    /// A configuration with the paper's timing constants around the given
    /// memory configuration.
    pub fn with_mem(mem: MemConfig) -> Self {
        Self {
            mem,
            disk_power: DiskPowerModel::default(),
            disk_service: ServiceModel::default(),
            period_secs: 600.0,
            long_latency_secs: 0.5,
            aggregation_window_secs: 0.1,
            warmup_secs: 0.0,
            replacement: Replacement::default(),
            consolidate: false,
            sync_interval_secs: f64::INFINITY,
            array: ArrayConfig::default(),
        }
    }

    /// Validates timing fields.
    ///
    /// # Panics
    ///
    /// Panics when the period or threshold is not positive, the window is
    /// negative, or the array has no disk.
    pub fn validate(&self) {
        assert!(self.period_secs > 0.0, "period must be positive");
        assert!(
            self.long_latency_secs > 0.0,
            "long-latency threshold must be positive"
        );
        assert!(
            self.aggregation_window_secs >= 0.0,
            "aggregation window must be non-negative"
        );
        assert!(self.warmup_secs >= 0.0, "warmup must be non-negative");
        assert!(
            self.sync_interval_secs > 0.0,
            "sync interval must be positive (INFINITY disables it)"
        );
        assert!(self.array.disks >= 1, "array needs at least one disk");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpmd_mem::{IdlePolicy, RdramModel};

    fn mem() -> MemConfig {
        MemConfig {
            page_bytes: 1 << 20,
            bank_pages: 16,
            total_banks: 8,
            initial_banks: 8,
            model: RdramModel::default(),
            policy: IdlePolicy::Nap,
        }
    }

    #[test]
    fn defaults_match_table_ii() {
        let c = SimConfig::with_mem(mem());
        assert_eq!(c.period_secs, 600.0);
        assert_eq!(c.long_latency_secs, 0.5);
        assert_eq!(c.aggregation_window_secs, 0.1);
        assert_eq!(c.array, ArrayConfig::default());
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn empty_array_rejected() {
        let mut c = SimConfig::with_mem(mem());
        c.array.disks = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_rejected() {
        let mut c = SimConfig::with_mem(mem());
        c.period_secs = 0.0;
        c.validate();
    }
}
