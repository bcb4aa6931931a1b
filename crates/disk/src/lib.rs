//! Disk substrate for `jpmd`: a single-disk simulator with power modes.
//!
//! The paper simulates its disk with DiskSim 3.0 and a Seagate Barracuda
//! IDE power model (Fig. 1(b)). This crate provides the equivalent pieces
//! (see `DESIGN.md` for the DiskSim substitution rationale):
//!
//! * [`DiskPowerModel`] — active/idle/standby powers, the 77.5 J / 10 s
//!   round-trip transition, and the derived 6.6 W static power and 11.7 s
//!   break-even time of §V-A.
//! * [`ServiceModel`] — seek + rotation + transfer service times and the
//!   request-size-indexed bandwidth table.
//! * [`Disk`] — the trace-driven disk: FIFO queueing, timeout spin-down,
//!   spin-up delays, and exact energy integration.
//! * [`SpinDownPolicy`] — the disk-side policies compared in the paper:
//!   always-on, 2-competitive fixed ("2T"), Douglis adaptive ("AD"), and
//!   the externally `Controlled` mode the joint manager drives.
//! * [`oracle_idle_energy`] — the offline-optimal bound used by the
//!   ablation benches.
//!
//! # Example
//!
//! ```
//! use jpmd_disk::{Disk, DiskPowerModel, ServiceModel, SpinDownPolicy};
//!
//! let model = DiskPowerModel::default();
//! let mut policy = SpinDownPolicy::adaptive();
//! let mut disk = Disk::new(model, ServiceModel::default(), 1 << 20);
//! disk.set_timeout(policy.timeout());
//!
//! let out = disk.submit(0.0, 0, 16, 4096);
//! disk.set_timeout(policy.after_request(&out, &model));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod disk;
mod multispeed;
mod oracle;
mod power;
mod predictive;
mod service;
mod spindown;

pub use crate::disk::{Disk, DiskMode, RequestOutcome};
pub use array::{DiskArray, Layout};
pub use multispeed::{MultiSpeedDisk, MultiSpeedModel, SpeedLevel, SpeedPolicy};
pub use oracle::{oracle_idle_energy, timeout_idle_energy};
pub use power::{DiskEnergy, DiskPowerModel};
pub use predictive::{EwmaPredictor, SessionPredictor};
pub use service::ServiceModel;
pub use spindown::{AdaptiveParams, SpinDownPolicy};
