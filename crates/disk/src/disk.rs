use serde::{Deserialize, Serialize};

use crate::{DiskEnergy, DiskPowerModel, ServiceModel};

/// Spin state of the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiskMode {
    /// Platters spinning: active while serving, idle otherwise.
    On,
    /// Waking from standby; ready at `spin_up_until`.
    SpinningUp,
    /// Platters stopped (the paper's standby mode).
    Standby,
}

/// Outcome of one disk request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// When the request finishes, s.
    pub completion: f64,
    /// Completion − arrival, s (queueing + spin-up + service).
    pub latency: f64,
    /// True when this request found the disk in standby and had to wait for
    /// (part of) a spin-up.
    pub woke_disk: bool,
    /// Length of the idle gap that preceded this request (arrival −
    /// previous completion; 0 when the disk was still busy).
    pub idle_before: f64,
}

/// A single hard disk: FIFO service, timeout-driven spin-down, and exact
/// energy integration.
///
/// The disk is *trace-driven*: requests are submitted in arrival order and
/// everything between two submissions (idle accrual, the timeout expiring,
/// the spin-down, standby residence) is integrated analytically at the next
/// event, which is both exact for piecewise-constant power and much faster
/// than event stepping.
///
/// Spin-down follows the paper's model: after `timeout` seconds of
/// idleness the disk transitions to standby, charging the full round-trip
/// transition energy (77.5 J — the paper accounts transitions per
/// *spin-down* as `p_d · t_be · h`); a request arriving in standby waits
/// the 10 s spin-up delay (`woke_disk`), during which further arrivals
/// queue behind it.
///
/// # Example
///
/// ```
/// use jpmd_disk::{Disk, DiskPowerModel, ServiceModel};
///
/// let mut disk = Disk::new(DiskPowerModel::default(), ServiceModel::default(), 1 << 16);
/// disk.set_timeout(11.7);
/// let out = disk.submit(0.0, 100, 8, 4096);
/// assert!(out.latency > 0.0 && !out.woke_disk);
/// // After a long gap the disk has spun down; the next request pays spin-up.
/// let out = disk.submit(500.0, 2000, 8, 4096);
/// assert!(out.woke_disk && out.latency >= 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct Disk {
    power: DiskPowerModel,
    service: ServiceModel,
    total_pages: u64,
    /// Current spin-down timeout; `f64::INFINITY` = never spin down.
    timeout: f64,
    mode: DiskMode,
    /// Completion time of the last-queued request.
    busy_until: f64,
    /// When a spin-up in progress completes.
    spin_up_until: f64,
    /// Time up to which energy is integrated.
    settled: f64,
    /// Head position (page) after the last request.
    head_page: u64,
    energy: DiskEnergy,
    busy_secs: f64,
    spin_downs: u64,
    requests: u64,
    bytes_transferred: u64,
}

impl Disk {
    /// Creates a spinning, idle disk at time 0 whose logical page space has
    /// `total_pages` pages (used for seek distances).
    ///
    /// # Panics
    ///
    /// Panics if `total_pages == 0`.
    pub fn new(power: DiskPowerModel, service: ServiceModel, total_pages: u64) -> Self {
        assert!(total_pages > 0, "disk must have at least one page");
        Self {
            power,
            service,
            total_pages,
            timeout: f64::INFINITY,
            mode: DiskMode::On,
            busy_until: 0.0,
            spin_up_until: 0.0,
            settled: 0.0,
            head_page: 0,
            energy: DiskEnergy::default(),
            busy_secs: 0.0,
            spin_downs: 0,
            requests: 0,
            bytes_transferred: 0,
        }
    }

    /// The service-time model in force.
    pub fn service_model(&self) -> &ServiceModel {
        &self.service
    }

    /// Sets the spin-down timeout (`f64::INFINITY` disables spin-down).
    ///
    /// The new value governs idle periods integrated after this call;
    /// controllers update it right after each request, so it is in force
    /// for the entire following idle gap.
    pub fn set_timeout(&mut self, timeout: f64) {
        self.timeout = timeout.max(0.0);
    }

    /// The current spin-down timeout.
    pub fn timeout(&self) -> f64 {
        self.timeout
    }

    /// Current mode at the last settled instant.
    pub fn mode(&self) -> DiskMode {
        self.mode
    }

    /// Integrates energy from the last settled instant to `to`.
    fn accrue(&mut self, to: f64) {
        while self.settled < to {
            match self.mode {
                DiskMode::On => {
                    if self.settled < self.busy_until {
                        // Actively serving.
                        let end = self.busy_until.min(to);
                        self.energy.active_j += self.power.active_w * (end - self.settled);
                        self.settled = end;
                        continue;
                    }
                    // Idle; does the timeout expire before `to`?
                    let spin_down_at = self.busy_until + self.timeout;
                    if spin_down_at <= to {
                        let end = spin_down_at.max(self.settled);
                        self.energy.idle_j += self.power.idle_w * (end - self.settled);
                        self.settled = end;
                        self.mode = DiskMode::Standby;
                        self.spin_downs += 1;
                        // Full round-trip transition energy charged at the
                        // spin-down, matching the paper's h · p_d · t_be.
                        self.energy.transition_j += self.power.transition_j;
                    } else {
                        self.energy.idle_j += self.power.idle_w * (to - self.settled);
                        self.settled = to;
                    }
                }
                DiskMode::SpinningUp => {
                    // The transition energy already covers the spin-up;
                    // accrue nothing until ready, then continue as On.
                    let end = self.spin_up_until.min(to);
                    self.settled = end;
                    if self.settled >= self.spin_up_until {
                        self.mode = DiskMode::On;
                    } else {
                        // `to` falls inside the spin-up.
                        break;
                    }
                }
                DiskMode::Standby => {
                    // Remains in standby until a submit() wakes it.
                    self.energy.standby_j += self.power.standby_w * (to - self.settled);
                    self.settled = to;
                }
            }
        }
    }

    /// Submits a request for `pages` contiguous pages starting at
    /// `first_page`, arriving at `now`. Requests must be submitted in
    /// arrival order.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous arrival's settled time or
    /// `pages == 0`.
    pub fn submit(
        &mut self,
        now: f64,
        first_page: u64,
        pages: u64,
        page_bytes: u64,
    ) -> RequestOutcome {
        assert!(pages > 0, "request must cover at least one page");
        assert!(
            now + 1e-9 >= self.settled,
            "requests must arrive in order (now = {now}, settled = {})",
            self.settled
        );
        let now = now.max(self.settled);
        self.accrue(now);

        let idle_before = (now - self.busy_until).max(0.0);
        let mut woke_disk = false;
        if self.mode == DiskMode::Standby {
            self.mode = DiskMode::SpinningUp;
            self.spin_up_until = now + self.power.spinup_s;
            woke_disk = true;
        }
        let ready = match self.mode {
            DiskMode::SpinningUp => self.spin_up_until,
            _ => now,
        };
        let start = ready.max(self.busy_until).max(now);

        let distance = self.head_page.abs_diff(first_page) as f64 / self.total_pages as f64;
        let bytes = pages * page_bytes;
        let svc = self.service.service_time(bytes, distance);
        let completion = start + svc;

        self.busy_until = completion;
        self.busy_secs += svc;
        self.head_page = first_page + pages;
        self.requests += 1;
        self.bytes_transferred += bytes;

        RequestOutcome {
            completion,
            latency: completion - now,
            woke_disk,
            idle_before,
        }
    }

    /// Extends the in-flight work by `secs` of extra busy time, as if the
    /// last request's service took longer than the model predicted (a bad
    /// sector retry, a recalibration, an injected fault).
    ///
    /// The extra time is charged as active service: it pushes `busy_until`
    /// (delaying queued work and the idle clock that drives spin-down) and
    /// counts toward [`busy_secs`](Self::busy_secs), so energy and
    /// utilization accounting see it like any other service time. Call it
    /// right after [`submit`](Self::submit) to inflate that request.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or non-finite.
    pub fn stall(&mut self, secs: f64) {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "stall must be a finite, non-negative duration (got {secs})"
        );
        self.busy_until += secs;
        self.busy_secs += secs;
    }

    /// Settles energy accounting up to `now` (end of period / simulation).
    pub fn settle(&mut self, now: f64) {
        self.accrue(now);
    }

    /// Accumulated energy (settle first for up-to-date figures).
    pub fn energy(&self) -> DiskEnergy {
        self.energy
    }

    /// Cumulative seconds spent serving requests.
    pub fn busy_secs(&self) -> f64 {
        self.busy_secs
    }

    /// Number of spin-downs so far (the paper's `h`, cumulative).
    pub fn spin_downs(&self) -> u64 {
        self.spin_downs
    }

    /// Number of requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Total bytes transferred.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Captures the disk's dynamic state (mode, clocks, head position,
    /// energy, counters) for checkpointing. The power/service models and
    /// page space come from construction and are not captured; restore into
    /// a disk built with the same models.
    pub fn snapshot_state(&self) -> serde::Value {
        DiskSnapshot {
            timeout: self.timeout,
            mode: self.mode,
            busy_until: self.busy_until,
            spin_up_until: self.spin_up_until,
            settled: self.settled,
            head_page: self.head_page,
            energy: self.energy,
            busy_secs: self.busy_secs,
            spin_downs: self.spin_downs,
            requests: self.requests,
            bytes_transferred: self.bytes_transferred,
        }
        .to_value()
    }

    /// Restores state captured by [`Disk::snapshot_state`] into a disk
    /// built with the same models.
    ///
    /// # Errors
    ///
    /// Returns an error when `value` does not decode as a disk snapshot.
    pub fn restore_state(&mut self, value: &serde::Value) -> Result<(), serde::Error> {
        let s = DiskSnapshot::from_value(value)?;
        self.timeout = s.timeout;
        self.mode = s.mode;
        self.busy_until = s.busy_until;
        self.spin_up_until = s.spin_up_until;
        self.settled = s.settled;
        self.head_page = s.head_page;
        self.energy = s.energy;
        self.busy_secs = s.busy_secs;
        self.spin_downs = s.spin_downs;
        self.requests = s.requests;
        self.bytes_transferred = s.bytes_transferred;
        Ok(())
    }
}

/// Serializable image of a [`Disk`]'s dynamic fields.
#[derive(Serialize, Deserialize)]
struct DiskSnapshot {
    timeout: f64,
    mode: DiskMode,
    busy_until: f64,
    spin_up_until: f64,
    settled: f64,
    head_page: u64,
    energy: DiskEnergy,
    busy_secs: f64,
    spin_downs: u64,
    requests: u64,
    bytes_transferred: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn disk() -> Disk {
        Disk::new(DiskPowerModel::default(), ServiceModel::default(), 1 << 16)
    }

    #[test]
    fn always_on_accrues_idle_power() {
        let mut d = disk();
        d.settle(100.0);
        assert!((d.energy().idle_j - 7.5 * 100.0).abs() < 1e-9);
        assert_eq!(d.spin_downs(), 0);
        assert_eq!(d.mode(), DiskMode::On);
    }

    #[test]
    fn request_splits_active_and_idle() {
        let mut d = disk();
        let out = d.submit(10.0, 0, 1, 1 << 20);
        let svc = out.completion - 10.0;
        d.settle(20.0);
        let e = d.energy();
        assert!((e.active_j - 12.5 * svc).abs() < 1e-9);
        assert!((e.idle_j - 7.5 * (20.0 - svc)).abs() < 1e-9);
        assert!((d.busy_secs() - svc).abs() < 1e-12);
    }

    #[test]
    fn timeout_spins_down_and_charges_transition() {
        let mut d = disk();
        d.set_timeout(10.0);
        d.submit(0.0, 0, 1, 4096);
        d.settle(100.0);
        assert_eq!(d.spin_downs(), 1);
        assert_eq!(d.mode(), DiskMode::Standby);
        let e = d.energy();
        assert!((e.transition_j - 77.5).abs() < 1e-9);
        // Standby from (completion + 10) to 100.
        assert!(e.standby_j > 0.0);
        assert!(e.standby_j < 0.9 * 100.0);
    }

    #[test]
    fn wakeup_delays_request_by_spinup() {
        let mut d = disk();
        d.set_timeout(5.0);
        let first = d.submit(0.0, 0, 1, 4096);
        let second = d.submit(100.0, 0, 1, 4096);
        assert!(second.woke_disk);
        assert!(second.latency >= 10.0, "latency {}", second.latency);
        assert!((second.idle_before - (100.0 - first.completion)).abs() < 1e-9);
    }

    #[test]
    fn arrivals_during_spinup_queue() {
        let mut d = disk();
        d.set_timeout(5.0);
        d.submit(0.0, 0, 1, 4096);
        let a = d.submit(100.0, 0, 1, 4096); // wakes; ready at 110
        let b = d.submit(101.0, 64, 1, 4096); // queues behind a
        assert!(a.woke_disk);
        assert!(!b.woke_disk);
        assert!(b.completion > a.completion);
        assert!(b.latency > 9.0);
    }

    #[test]
    fn queueing_under_load() {
        let mut d = disk();
        let a = d.submit(0.0, 0, 64, 1 << 20); // long request
        let b = d.submit(0.001, 10_000, 1, 4096);
        assert!(b.completion > a.completion);
        assert!(b.latency > a.completion - 0.001);
    }

    #[test]
    fn short_gaps_do_not_spin_down() {
        let mut d = disk();
        d.set_timeout(11.7);
        let mut t = 0.0;
        for i in 0..10 {
            let out = d.submit(t, i * 100, 1, 4096);
            assert!(!out.woke_disk);
            t = out.completion + 5.0; // gaps shorter than the timeout
        }
        assert_eq!(d.spin_downs(), 0);
    }

    #[test]
    fn energy_conservation_over_busy_trace() {
        // Total energy must equal the integral of the piecewise power,
        // which is bounded by active power × span + transitions.
        let mut d = disk();
        d.set_timeout(11.7);
        let mut t = 0.0;
        for i in 0..50u64 {
            let out = d.submit(t, (i * 37) % 60_000, 2, 1 << 20);
            t = out.completion + if i % 7 == 0 { 30.0 } else { 1.0 };
        }
        d.settle(t + 100.0);
        let e = d.energy();
        let span = t + 100.0;
        assert!(e.total_j() <= 12.5 * span + e.transition_j + 1e-6);
        assert!(e.total_j() >= 0.9 * span - 1e-6);
        assert_eq!(
            d.spin_downs() as f64,
            (e.transition_j / 77.5).round(),
            "transition energy must be 77.5 J per spin-down"
        );
    }

    #[test]
    fn infinite_timeout_never_transitions() {
        let mut d = disk();
        d.submit(0.0, 0, 1, 4096);
        d.settle(1e6);
        assert_eq!(d.spin_downs(), 0);
        assert_eq!(d.energy().standby_j, 0.0);
        assert_eq!(d.energy().transition_j, 0.0);
    }

    #[test]
    fn seek_distance_affects_service_time() {
        let mut near = disk();
        near.submit(0.0, 0, 1, 4096);
        let n = near.submit(1.0, 1, 1, 4096); // head at page 1: distance 0
        let mut far = disk();
        far.submit(0.0, 0, 1, 4096);
        let f = far.submit(1.0, 60_000, 1, 4096);
        assert!(f.latency > n.latency);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_submission_panics() {
        let mut d = disk();
        d.submit(10.0, 0, 1, 4096);
        d.settle(20.0);
        d.submit(5.0, 0, 1, 4096);
    }

    #[test]
    fn stall_charges_active_time_and_delays_the_idle_clock() {
        let mut plain = disk();
        plain.set_timeout(10.0);
        let out = plain.submit(0.0, 0, 1, 1 << 20);

        let mut stalled = disk();
        stalled.set_timeout(10.0);
        stalled.submit(0.0, 0, 1, 1 << 20);
        stalled.stall(3.0);

        assert!((stalled.busy_secs() - (plain.busy_secs() + 3.0)).abs() < 1e-12);
        // Settle both just past the plain disk's spin-down point: the
        // stalled disk's timeout clock started 3 s later, so it is still On.
        let probe = out.completion + 10.0 + 1.0;
        plain.settle(probe);
        stalled.settle(probe);
        assert_eq!(plain.mode(), DiskMode::Standby);
        assert_eq!(stalled.mode(), DiskMode::On);
        // The stall seconds are charged at active power.
        let extra = stalled.energy().active_j - plain.energy().active_j;
        assert!((extra - 12.5 * 3.0).abs() < 1e-9, "extra = {extra}");
    }

    #[test]
    fn settle_is_idempotent() {
        let mut d = disk();
        d.set_timeout(5.0);
        d.submit(0.0, 0, 1, 4096);
        d.settle(50.0);
        let e1 = d.energy();
        d.settle(50.0);
        assert_eq!(d.energy(), e1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn energy_bracketed_for_random_traces(
            gaps in proptest::collection::vec(0.01f64..120.0, 1..60),
            pages in proptest::collection::vec((0u64..60_000, 1u64..8), 1..60),
            timeout in prop::sample::select(vec![5.0f64, 11.7, 30.0, f64::INFINITY]),
        ) {
            let mut d = disk();
            d.set_timeout(timeout);
            let mut t = 0.0;
            for (g, &(page, len)) in gaps.iter().zip(&pages) {
                t += g;
                let out = d.submit(t, page, len, 1 << 20);
                t = t.max(out.completion - g.min(0.0)); // keep arrivals ordered
            }
            let end = t + 200.0;
            d.settle(end);
            let e = d.energy();
            // Bracketed by standby floor and active ceiling (+ transitions).
            prop_assert!(e.total_j() - e.transition_j <= 12.5 * end + 1e-6);
            prop_assert!(e.total_j() - e.transition_j >= 0.9 * end - 1e-6);
            // Exactly one round-trip charge per spin-down.
            prop_assert!((e.transition_j - 77.5 * d.spin_downs() as f64).abs() < 1e-9);
            // Infinite timeout => no standby residence at all.
            if timeout.is_infinite() {
                prop_assert_eq!(d.spin_downs(), 0);
                prop_assert_eq!(e.standby_j, 0.0);
            }
        }

        #[test]
        fn latency_at_least_service_time(
            gap in 0.01f64..300.0,
            page in 0u64..60_000,
            len in 1u64..8,
        ) {
            let mut d = disk();
            d.set_timeout(11.7);
            let first = d.submit(0.0, 0, 1, 1 << 20);
            let out = d.submit(first.completion + gap, page, len, 1 << 20);
            let svc = d.service_model().transfer_time(len * (1 << 20));
            prop_assert!(out.latency >= svc - 1e-12);
            // A wake-up implies at least the spin-up delay.
            if out.woke_disk {
                prop_assert!(out.latency >= 10.0);
            }
        }
    }

    #[test]
    fn snapshot_round_trip_resumes_identically() {
        let mut a = disk();
        a.set_timeout(8.0);
        a.submit(0.0, 0, 4, 1 << 20);
        a.submit(30.0, 512, 2, 1 << 20);
        a.settle(45.0);
        let snap = a.snapshot_state();
        let mut b = disk();
        b.restore_state(&snap).unwrap();
        assert_eq!(a.mode(), b.mode());
        assert_eq!(a.timeout().to_bits(), b.timeout().to_bits());
        let (oa, ob) = (
            a.submit(60.0, 9_000, 1, 4096),
            b.submit(60.0, 9_000, 1, 4096),
        );
        assert_eq!(oa, ob);
        a.settle(200.0);
        b.settle(200.0);
        assert_eq!(a.energy(), b.energy());
        assert_eq!(a.spin_downs(), b.spin_downs());
        assert_eq!(a.requests(), b.requests());
        assert_eq!(a.bytes_transferred(), b.bytes_transferred());
        assert_eq!(a.busy_secs().to_bits(), b.busy_secs().to_bits());
    }

    #[test]
    fn piecewise_settle_matches_single_settle() {
        let make = || {
            let mut d = disk();
            d.set_timeout(8.0);
            d.submit(0.0, 0, 4, 1 << 20);
            d
        };
        let mut a = make();
        for t in [1.0, 5.0, 8.5, 9.0, 30.0, 100.0] {
            a.settle(t);
        }
        let mut b = make();
        b.settle(100.0);
        let (ea, eb) = (a.energy(), b.energy());
        assert!((ea.total_j() - eb.total_j()).abs() < 1e-9);
        assert_eq!(a.spin_downs(), b.spin_downs());
    }
}
