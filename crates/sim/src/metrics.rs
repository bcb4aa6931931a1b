use serde::{Deserialize, Serialize};

use jpmd_disk::DiskEnergy;
use jpmd_mem::MemEnergy;

use crate::{ControlAction, EngineStats, PeriodObservation};

/// Combined memory + disk energy for one run (or one window of a run).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Memory energy.
    pub mem: MemEnergy,
    /// Disk energy.
    pub disk: DiskEnergy,
}

impl EnergyBreakdown {
    /// Total energy, J.
    pub fn total_j(&self) -> f64 {
        self.mem.total_j() + self.disk.total_j()
    }

    /// Component-wise difference (`self − earlier`), used to subtract the
    /// warm-up window.
    pub fn since(&self, earlier: &EnergyBreakdown) -> EnergyBreakdown {
        *self - *earlier
    }
}

impl std::ops::Sub for EnergyBreakdown {
    type Output = EnergyBreakdown;

    /// Component-wise difference over both devices.
    fn sub(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            mem: self.mem - rhs.mem,
            disk: self.disk - rhs.disk,
        }
    }
}

impl std::ops::SubAssign for EnergyBreakdown {
    fn sub_assign(&mut self, rhs: EnergyBreakdown) {
        *self = *self - rhs;
    }
}

/// One control period's observation and the action taken at its end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodRow {
    /// What the period looked like.
    pub observation: PeriodObservation,
    /// What the controller decided (empty for static methods).
    pub action: ControlAction,
}

/// Aggregated results of one simulation run.
///
/// All scalar metrics cover the *measured window* (after
/// [`SimConfig::warmup_secs`](crate::SimConfig)); [`RunReport::periods`]
/// covers every period including warm-up so time-series figures (paper
/// Fig. 9) can show the full run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Label of the method that produced this run ("Joint", "2TFM-16GB"…).
    pub label: String,
    /// Length of the measured window, s.
    pub duration_secs: f64,
    /// Energy spent in the measured window.
    pub energy: EnergyBreakdown,
    /// Disk-cache accesses (pages) in the window.
    pub cache_accesses: u64,
    /// Cache hits (memory accesses) in the window.
    pub hits: u64,
    /// Cache misses (disk page accesses) in the window.
    pub disk_page_accesses: u64,
    /// Disk requests (contiguous runs) in the window; on an array each
    /// member's sub-request counts once.
    pub disk_requests: u64,
    /// Mean latency over all cache accesses (hits count as zero), s.
    pub mean_latency_secs: f64,
    /// Median latency of *disk requests* in the window, s (0 when none).
    pub request_latency_p50_secs: f64,
    /// 99th-percentile latency of disk requests in the window, s.
    pub request_latency_p99_secs: f64,
    /// Largest request latency observed, s.
    pub max_latency_secs: f64,
    /// Accesses delayed beyond the long-latency threshold.
    pub long_latency_count: u64,
    /// Disk busy fraction of the window (the mean over member disks).
    pub utilization: f64,
    /// Disk spin-downs in the window (summed over member disks).
    pub spin_downs: u64,
    /// Per-period time series (full run, including warm-up).
    pub periods: Vec<PeriodRow>,
    /// Engine observability: event totals, the per-period event log, and
    /// replay throughput (wall-clock fields are excluded from equality).
    pub engine: EngineStats,
    /// Aggregated span timings (engine replay, controller decisions,
    /// report finalization). Always collected; equality ignores the
    /// wall-clock fields, like [`EngineStats`].
    #[serde(default)]
    pub spans: Vec<jpmd_obs::SpanTiming>,
}

impl RunReport {
    /// Long-latency requests per second (paper Fig. 7(f), 8(b), 8(d)).
    pub fn long_latency_per_sec(&self) -> f64 {
        if self.duration_secs > 0.0 {
            self.long_latency_count as f64 / self.duration_secs
        } else {
            0.0
        }
    }

    /// Average power over the window, W.
    pub fn mean_power_w(&self) -> f64 {
        if self.duration_secs > 0.0 {
            self.energy.total_j() / self.duration_secs
        } else {
            0.0
        }
    }

    /// Total energy as a fraction of `baseline` (the paper normalizes
    /// everything against the always-on method).
    pub fn normalized_total(&self, baseline: &RunReport) -> f64 {
        self.energy.total_j() / baseline.energy.total_j().max(f64::MIN_POSITIVE)
    }

    /// Disk energy as a fraction of the baseline's disk energy.
    pub fn normalized_disk(&self, baseline: &RunReport) -> f64 {
        self.energy.disk.total_j() / baseline.energy.disk.total_j().max(f64::MIN_POSITIVE)
    }

    /// Memory energy as a fraction of the baseline's memory energy.
    pub fn normalized_mem(&self, baseline: &RunReport) -> f64 {
        self.energy.mem.total_j() / baseline.energy.mem.total_j().max(f64::MIN_POSITIVE)
    }

    /// Cache hit ratio in the window.
    pub fn hit_ratio(&self) -> f64 {
        if self.cache_accesses > 0 {
            self.hits as f64 / self.cache_accesses as f64
        } else {
            0.0
        }
    }

    /// Zeroes every wall-clock field — the engine's replay time and
    /// throughput and each span's total and max — the fields equality
    /// already ignores. Two equal runs then serialize to byte-identical
    /// JSON, which is what report diffs and golden digests compare.
    pub fn zero_wall_clock(&mut self) {
        self.engine.replay_wall_secs = 0.0;
        self.engine.accesses_per_sec = 0.0;
        for span in &mut self.spans {
            span.total_secs = 0.0;
            span.max_secs = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(total_mem: f64, total_disk: f64, duration: f64) -> RunReport {
        RunReport {
            label: "test".into(),
            duration_secs: duration,
            energy: EnergyBreakdown {
                mem: MemEnergy {
                    static_j: total_mem,
                    dynamic_j: 0.0,
                },
                disk: DiskEnergy {
                    active_j: 0.0,
                    idle_j: total_disk,
                    standby_j: 0.0,
                    transition_j: 0.0,
                },
            },
            cache_accesses: 100,
            hits: 80,
            disk_page_accesses: 20,
            disk_requests: 5,
            mean_latency_secs: 0.001,
            request_latency_p50_secs: 0.02,
            request_latency_p99_secs: 0.4,
            max_latency_secs: 0.6,
            long_latency_count: 3,
            utilization: 0.05,
            spin_downs: 2,
            periods: Vec::new(),
            engine: EngineStats::default(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn normalization_against_baseline() {
        let a = report(50.0, 50.0, 10.0);
        let base = report(100.0, 100.0, 10.0);
        assert!((a.normalized_total(&base) - 0.5).abs() < 1e-12);
        assert!((a.normalized_disk(&base) - 0.5).abs() < 1e-12);
        assert!((a.normalized_mem(&base) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rates_and_ratios() {
        let r = report(10.0, 10.0, 10.0);
        assert!((r.long_latency_per_sec() - 0.3).abs() < 1e-12);
        assert!((r.mean_power_w() - 2.0).abs() < 1e-12);
        assert!((r.hit_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn energy_since_subtracts_componentwise() {
        let early = report(10.0, 20.0, 1.0).energy;
        let late = report(15.0, 50.0, 1.0).energy;
        let diff = late.since(&early);
        assert!((diff.mem.static_j - 5.0).abs() < 1e-12);
        assert!((diff.disk.idle_j - 30.0).abs() < 1e-12);
        assert!((diff.total_j() - 35.0).abs() < 1e-12);
        let mut assigned = late;
        assigned -= early;
        assert_eq!(assigned, diff);
    }

    /// Walks two serialized values in lockstep, asserting every numeric
    /// leaf of `diff` equals the corresponding `a − b`.
    fn assert_leafwise_difference(a: &serde::Value, b: &serde::Value, diff: &serde::Value) {
        use serde::Value;
        match (a, b, diff) {
            (Value::F64(xa), Value::F64(xb), Value::F64(xd)) => {
                assert!(
                    (xd - (xa - xb)).abs() < 1e-12,
                    "leaf {xd} != {xa} - {xb}: a field is missing from a Sub impl"
                );
            }
            (Value::Object(fa), Value::Object(fb), Value::Object(fd)) => {
                assert_eq!(fa.len(), fd.len(), "field sets diverged");
                for (((ka, va), (kb, vb)), (kd, vd)) in fa.iter().zip(fb).zip(fd) {
                    assert_eq!(ka, kb);
                    assert_eq!(ka, kd);
                    assert_leafwise_difference(va, vb, vd);
                }
            }
            _ => panic!(
                "unexpected shapes: {} / {} / {}",
                a.kind(),
                b.kind(),
                diff.kind()
            ),
        }
    }

    /// Guards the `Sub` impls against silently-missed fields: every numeric
    /// leaf of the serialized breakdown — whatever fields the energy structs
    /// grow — must be subtracted. A field skipped by a future `Sub` edit
    /// (e.g. via `..rhs` struct update) fails the leafwise comparison.
    #[test]
    fn subtraction_covers_every_energy_field() {
        use serde::Serialize;
        let late = EnergyBreakdown {
            mem: MemEnergy {
                static_j: 11.0,
                dynamic_j: 13.0,
            },
            disk: DiskEnergy {
                active_j: 17.0,
                idle_j: 19.0,
                standby_j: 23.0,
                transition_j: 29.0,
            },
        };
        let early = EnergyBreakdown {
            mem: MemEnergy {
                static_j: 1.0,
                dynamic_j: 2.0,
            },
            disk: DiskEnergy {
                active_j: 3.0,
                idle_j: 4.0,
                standby_j: 5.0,
                transition_j: 6.0,
            },
        };
        let diff = late - early;
        assert_leafwise_difference(&late.to_value(), &early.to_value(), &diff.to_value());
        assert_eq!(diff, late.since(&early));
    }
}
