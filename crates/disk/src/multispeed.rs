//! A multi-speed (DRPM-style) disk model — the paper's future-work item
//! "2) multiple-speed disks" (§VI) and related work \[12\] (Gurumurthi et
//! al., *DRPM: dynamic speed control for power management in server class
//! disks*).
//!
//! Instead of the binary spin-down of the main model, the platters can
//! rotate at one of several speeds: lower speeds consume less power
//! (spindle power grows roughly with the cube of RPM) but serve requests
//! more slowly (transfer rate scales with RPM, rotational latency
//! inversely). Speed changes cost far less than a full stop/start, which
//! is DRPM's whole point: it harvests idle power even when idle intervals
//! are too short for the 11.7 s break-even of spin-down.
//!
//! [`MultiSpeedDisk`] mirrors [`Disk`](crate::Disk)'s trace-driven,
//! exact-integration design; [`SpeedPolicy`] provides a fixed-level
//! baseline and the utilization-driven controller the DRPM paper
//! evaluates. The `figures drpm` experiment compares spin-down vs DRPM on
//! identical request streams.

use serde::{Deserialize, Serialize};

use crate::{RequestOutcome, ServiceModel};

/// One rotation-speed level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedLevel {
    /// Rotation speed, rpm.
    pub rpm: f64,
    /// Power while idle at this speed, W.
    pub idle_w: f64,
    /// Power while serving at this speed, W.
    pub active_w: f64,
    /// Media transfer rate at this speed, MB/s.
    pub transfer_mb_s: f64,
}

/// Power/performance model of a multi-speed disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiSpeedModel {
    /// Speed levels in ascending rpm order (at least one).
    pub levels: Vec<SpeedLevel>,
    /// Energy per one-level speed change, J.
    pub step_j: f64,
    /// Time per one-level speed change, s.
    pub step_s: f64,
    /// Seek model shared across levels (head mechanics are
    /// speed-independent).
    pub seek: ServiceModel,
}

impl Default for MultiSpeedModel {
    /// Five levels from 2400 rpm up to the paper's 7200 rpm operating
    /// point (7.5 W idle / 12.5 W active), with spindle power ∝ rpm³ plus
    /// a 2 W electronics floor and transfer rate ∝ rpm around the scaled
    /// 12 MB/s calibration — so the top level *is* the single-speed
    /// Barracuda and comparisons against spin-down are apples-to-apples.
    /// Speed steps cost 5 J / 2 s — far below the 77.5 J / 10 s of a full
    /// stop/start cycle, as in the DRPM paper.
    fn default() -> Self {
        let base_rpm = 7200.0f64;
        let base_transfer = ServiceModel::scaled_pages().transfer_mb_s;
        let levels = [2400.0f64, 3600.0, 4800.0, 6000.0, 7200.0]
            .iter()
            .map(|&rpm| {
                let spin = 5.5 * (rpm / base_rpm).powi(3);
                SpeedLevel {
                    rpm,
                    idle_w: 2.0 + spin,
                    active_w: 2.0 + spin + 5.0 * (rpm / base_rpm),
                    transfer_mb_s: base_transfer * rpm / base_rpm,
                }
            })
            .collect();
        Self {
            levels,
            step_j: 5.0,
            step_s: 2.0,
            seek: ServiceModel::scaled_pages(),
        }
    }
}

impl MultiSpeedModel {
    /// Number of speed levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Service time of one request at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn service_time(&self, level: usize, bytes: u64, seek_frac: f64) -> f64 {
        let l = &self.levels[level];
        self.seek.seek_time(seek_frac)
            + 30.0 / l.rpm
            + bytes as f64 / (l.transfer_mb_s * 1024.0 * 1024.0)
    }
}

/// Speed-selection policy for a [`MultiSpeedDisk`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpeedPolicy {
    /// Always run at this level (level `num_levels-1` ≈ a conventional
    /// always-on disk).
    Fixed(usize),
    /// DRPM-style control: track utilization over a sliding window of
    /// requests and step the speed down when below `low`, up when above
    /// `high`.
    UtilizationDriven {
        /// Step down below this utilization.
        low: f64,
        /// Step up above this utilization.
        high: f64,
        /// Window length for the utilization estimate, s.
        window_s: f64,
    },
}

/// A trace-driven multi-speed disk with exact energy integration.
///
/// # Example
///
/// ```
/// use jpmd_disk::{MultiSpeedDisk, MultiSpeedModel, SpeedPolicy};
///
/// let mut disk = MultiSpeedDisk::new(
///     MultiSpeedModel::default(),
///     SpeedPolicy::UtilizationDriven { low: 0.2, high: 0.7, window_s: 60.0 },
///     1 << 16,
/// );
/// let out = disk.submit(0.0, 100, 4, 1 << 20);
/// assert!(out.latency > 0.0);
/// disk.settle(120.0);
/// assert!(disk.energy_j() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct MultiSpeedDisk {
    model: MultiSpeedModel,
    policy: SpeedPolicy,
    total_pages: u64,
    level: usize,
    busy_until: f64,
    /// Until when the disk is changing speed (serves nothing).
    shifting_until: f64,
    settled: f64,
    head_page: u64,
    energy_j: f64,
    transition_j: f64,
    busy_secs: f64,
    /// Busy seconds inside the current utilization window.
    window_busy: f64,
    window_start: f64,
    speed_changes: u64,
    requests: u64,
}

impl MultiSpeedDisk {
    /// Creates the disk at the highest speed, idle at time 0.
    ///
    /// # Panics
    ///
    /// Panics if the model has no levels, a `Fixed` policy indexes out of
    /// range, or `total_pages == 0`.
    pub fn new(model: MultiSpeedModel, policy: SpeedPolicy, total_pages: u64) -> Self {
        assert!(!model.levels.is_empty(), "need at least one speed level");
        assert!(total_pages > 0, "disk must have at least one page");
        if let SpeedPolicy::Fixed(l) = policy {
            assert!(l < model.levels.len(), "fixed level out of range");
        }
        let level = match policy {
            SpeedPolicy::Fixed(l) => l,
            SpeedPolicy::UtilizationDriven { .. } => model.levels.len() - 1,
        };
        Self {
            model,
            policy,
            total_pages,
            level,
            busy_until: 0.0,
            shifting_until: 0.0,
            settled: 0.0,
            head_page: 0,
            energy_j: 0.0,
            transition_j: 0.0,
            busy_secs: 0.0,
            window_busy: 0.0,
            window_start: 0.0,
            speed_changes: 0,
            requests: 0,
        }
    }

    /// Current speed level index.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Total accumulated energy including transitions, J.
    pub fn energy_j(&self) -> f64 {
        self.energy_j + self.transition_j
    }

    /// Energy spent on speed changes alone, J.
    pub fn transition_j(&self) -> f64 {
        self.transition_j
    }

    /// Number of speed changes so far.
    pub fn speed_changes(&self) -> u64 {
        self.speed_changes
    }

    /// Cumulative seconds spent serving.
    pub fn busy_secs(&self) -> f64 {
        self.busy_secs
    }

    /// Requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    fn accrue(&mut self, to: f64) {
        if to <= self.settled {
            return;
        }
        let l = self.model.levels[self.level];
        // Piecewise: active until busy_until, idle after.
        let active_end = self.busy_until.clamp(self.settled, to);
        self.energy_j += l.active_w * (active_end - self.settled);
        self.energy_j += l.idle_w * (to - active_end);
        self.settled = to;
    }

    fn maybe_shift(&mut self, now: f64) {
        let SpeedPolicy::UtilizationDriven {
            low,
            high,
            window_s,
        } = self.policy
        else {
            return;
        };
        if now - self.window_start < window_s {
            return;
        }
        let util = self.window_busy / (now - self.window_start);
        self.window_start = now;
        self.window_busy = 0.0;
        let target = if util > high && self.level + 1 < self.model.levels.len() {
            self.level + 1
        } else if util < low && self.level > 0 {
            self.level - 1
        } else {
            return;
        };
        self.level = target;
        self.speed_changes += 1;
        self.transition_j += self.model.step_j;
        self.shifting_until = now + self.model.step_s;
    }

    /// Submits one request (arrival order, like [`Disk`](crate::Disk)).
    ///
    /// # Panics
    ///
    /// Panics on out-of-order submission or a zero-page request.
    pub fn submit(
        &mut self,
        now: f64,
        first_page: u64,
        pages: u64,
        page_bytes: u64,
    ) -> RequestOutcome {
        assert!(pages > 0, "request must cover at least one page");
        assert!(now + 1e-9 >= self.settled, "requests must arrive in order");
        let now = now.max(self.settled);
        self.accrue(now);
        self.maybe_shift(now);

        let idle_before = (now - self.busy_until).max(0.0);
        let start = now.max(self.busy_until).max(self.shifting_until);
        let distance = self.head_page.abs_diff(first_page) as f64 / self.total_pages as f64;
        let svc = self
            .model
            .service_time(self.level, pages * page_bytes, distance);
        let completion = start + svc;
        self.busy_until = completion;
        self.busy_secs += svc;
        self.window_busy += svc;
        self.head_page = first_page + pages;
        self.requests += 1;
        RequestOutcome {
            completion,
            latency: completion - now,
            woke_disk: false,
            idle_before,
        }
    }

    /// Settles energy accounting up to `now`.
    pub fn settle(&mut self, now: f64) {
        self.accrue(now);
        self.maybe_shift(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MultiSpeedModel {
        MultiSpeedModel::default()
    }

    #[test]
    fn default_levels_are_consistent() {
        let m = model();
        assert_eq!(m.num_levels(), 5);
        for pair in m.levels.windows(2) {
            assert!(pair[0].rpm < pair[1].rpm);
            assert!(pair[0].idle_w < pair[1].idle_w, "slower must be cheaper");
            assert!(pair[0].transfer_mb_s < pair[1].transfer_mb_s);
        }
        // The top (7200 rpm) level is the single-speed Barracuda.
        let top = m.levels[4];
        assert!((top.idle_w - 7.5).abs() < 0.1);
        assert!((top.active_w - 12.5).abs() < 0.1);
    }

    #[test]
    fn slower_levels_serve_slower() {
        let m = model();
        let fast = m.service_time(4, 1 << 20, 0.2);
        let slow = m.service_time(0, 1 << 20, 0.2);
        assert!(slow > fast);
    }

    #[test]
    fn fixed_policy_never_shifts() {
        let mut d = MultiSpeedDisk::new(model(), SpeedPolicy::Fixed(2), 1 << 16);
        for i in 0..50 {
            d.submit(i as f64 * 10.0, i * 100, 1, 1 << 20);
        }
        d.settle(1000.0);
        assert_eq!(d.speed_changes(), 0);
        assert_eq!(d.level(), 2);
    }

    #[test]
    fn light_load_steps_down() {
        let policy = SpeedPolicy::UtilizationDriven {
            low: 0.2,
            high: 0.7,
            window_s: 50.0,
        };
        let mut d = MultiSpeedDisk::new(model(), policy, 1 << 16);
        assert_eq!(d.level(), 4);
        // A trickle of requests: utilization near zero.
        for i in 0..40u64 {
            d.submit(i as f64 * 60.0, i * 10, 1, 1 << 20);
        }
        assert!(d.level() < 4, "light load must reduce speed");
        assert!(d.speed_changes() > 0);
    }

    #[test]
    fn heavy_load_steps_back_up() {
        let policy = SpeedPolicy::UtilizationDriven {
            low: 0.2,
            high: 0.6,
            window_s: 30.0,
        };
        let mut d = MultiSpeedDisk::new(model(), policy, 1 << 16);
        // Light phase pulls the speed down…
        let mut t = 0.0;
        for i in 0..20u64 {
            t = i as f64 * 50.0;
            d.submit(t, i * 10, 1, 1 << 20);
        }
        let low_level = d.level();
        assert!(low_level < 4);
        // …then a heavy phase (back-to-back large requests) pushes it up.
        for i in 0..400u64 {
            let out = d.submit(t, 50_000 + i * 8, 8, 1 << 20);
            t = out.completion + 0.01;
        }
        assert!(d.level() > low_level, "saturation must raise the speed");
    }

    #[test]
    fn lower_speed_saves_idle_energy() {
        let mut slow = MultiSpeedDisk::new(model(), SpeedPolicy::Fixed(0), 1 << 16);
        let mut fast = MultiSpeedDisk::new(model(), SpeedPolicy::Fixed(4), 1 << 16);
        slow.settle(1000.0);
        fast.settle(1000.0);
        assert!(slow.energy_j() < fast.energy_j() / 2.0);
    }

    #[test]
    fn energy_monotone_and_transitions_counted() {
        let policy = SpeedPolicy::UtilizationDriven {
            low: 0.2,
            high: 0.7,
            window_s: 20.0,
        };
        let mut d = MultiSpeedDisk::new(model(), policy, 1 << 16);
        let mut prev = 0.0;
        for i in 0..100u64 {
            d.submit(i as f64 * 25.0, (i * 37) % 60_000, 2, 1 << 20);
            d.settle(i as f64 * 25.0 + 1.0);
            let e = d.energy_j();
            assert!(e >= prev);
            prev = e;
        }
        assert!(
            (d.transition_j() - d.speed_changes() as f64 * 5.0).abs() < 1e-9,
            "5 J per speed change"
        );
    }

    #[test]
    #[should_panic(expected = "fixed level out of range")]
    fn fixed_level_bounds_checked() {
        let _ = MultiSpeedDisk::new(model(), SpeedPolicy::Fixed(9), 1 << 16);
    }
}
