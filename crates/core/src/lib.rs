//! `jpmd-core` — the joint power manager of memory and disk.
//!
//! This crate implements the primary contribution of Cai & Lu, *"Joint
//! Power Management of Memory and Disk"* (DATE 2005), in the extended
//! performance-constrained form of the TCAD 2006 journal version:
//!
//! * [`predict`] — per-memory-size prediction of disk accesses and idle
//!   intervals from stack-distance logs (paper §IV-B, Figs. 3–4),
//! * [`timeout`] — the Pareto timeout analytics, eqs. (2)–(6),
//! * [`JointPolicy`] — the period controller that enumerates candidate
//!   memory sizes, fits idle-interval distributions, and jointly picks the
//!   disk-cache size and disk spin-down timeout minimizing estimated power
//!   under the utilization and delayed-request constraints — for one disk
//!   or, per member, for a disk array (paper §VI),
//! * [`methods`] — the registry of all 16 power-management methods of the
//!   paper's evaluation, runnable over any workload via
//!   [`methods::run_method`] (or built into a [`jpmd_sim::Simulation`] by
//!   [`methods::simulation`]),
//! * [`SimScale`] — the experiment-scale mapping described in `DESIGN.md`.
//!
//! # Symbol map (paper Table I)
//!
//! | paper | meaning | here |
//! |---|---|---|
//! | `t_o` | disk timeout | [`CandidateEvaluation::timeout_secs`], [`timeout::optimal_timeout`] |
//! | `m` | memory size | `banks` (× bank size) throughout |
//! | `n_d` | disk accesses per period | [`SizePrediction::disk_accesses`] |
//! | `n_i` | disk idle intervals per period | [`SizePrediction::idle_count`] |
//! | `ℓ` | idle-interval length | [`jpmd_stats::IdleIntervals`], [`jpmd_stats::Pareto`] |
//! | `t_s` | expected off time per period | [`timeout::expected_off_time`] |
//! | `h` | expected spin-downs per period | [`timeout::expected_spin_downs`] |
//! | `T` | period length | [`JointConfig::period_secs`] |
//! | `w` | aggregation window | [`JointConfig::window_secs`] |
//! | `t_be` | disk break-even time | [`jpmd_disk::DiskPowerModel::break_even_s`] |
//! | `t_tr` | disk transition (spin-up) time | [`jpmd_disk::DiskPowerModel::spinup_s`] |
//! | `p_d` | disk static power | [`jpmd_disk::DiskPowerModel::static_w`] |
//! | `U` | utilization limit | [`JointConfig::util_limit`] |
//! | `D` | delayed-request ratio limit | [`JointConfig::delay_ratio_limit`] |
//! | `N` | cache accesses per period | [`jpmd_mem::AccessLog::len`] |
//!
//! # Example
//!
//! Run the joint method and the always-on baseline on a small workload and
//! compare energy:
//!
//! ```
//! use jpmd_core::{methods, SimScale};
//! use jpmd_trace::{WorkloadBuilder, GIB, MIB};
//!
//! # fn main() -> Result<(), jpmd_trace::TraceError> {
//! let scale = SimScale::small_test();
//! let trace = WorkloadBuilder::new()
//!     .data_set_bytes(GIB)
//!     .rate_bytes_per_sec(8 * MIB)
//!     .duration_secs(120.0)
//!     .build()?;
//! let baseline = methods::run_method(
//!     &methods::always_on(&scale), &scale, &trace, 0.0, 120.0, 60.0);
//! let joint = methods::run_method(
//!     &methods::joint(&scale), &scale, &trace, 0.0, 120.0, 60.0);
//! assert!(joint.energy.total_j() <= baseline.energy.total_j());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coordinate;
mod error;
mod joint;
pub mod methods;
pub mod predict;
mod scale;
pub mod timeout;

pub use coordinate::{
    allocate_budget, BiddingJointPolicy, PeriodBid, PlanPoint, PlannedController,
};
pub use error::{PolicyError, PolicyFailure};
pub use joint::{CandidateEvaluation, JointConfig, JointPolicy};
pub use methods::{DiskPolicyKind, MethodSpec};
pub use predict::{
    candidate_banks, irm_miss_rate, predict_sizes, predict_sizes_routed, SizePrediction,
};
pub use scale::SimScale;
