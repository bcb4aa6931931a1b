//! The simulated hardware owned by the [`Engine`](crate::Engine): memory,
//! the member disks and their spin-down policies, plus the request
//! bookkeeping both the replay core and the observers read.

use jpmd_disk::{DiskArray, DiskPowerModel, RequestOutcome, SpinDownPolicy};
use jpmd_mem::MemoryManager;

use crate::{ControlAction, EnergyBreakdown, SimConfig, SimEvent};

/// Hook consulted at the hardware seams, letting a harness perturb what the
/// simulated hardware does without touching the replay engine. `jpmd-faults`
/// implements this for deterministic fault injection; when no injector is
/// installed ([`HwState::set_fault_injector`] never called) every seam is a
/// straight pass-through and the hot path pays only an `Option` check.
pub trait FaultInjector: Send {
    /// Called after the disk serves a request; returns extra service
    /// seconds to stall the disk with (0.0 = no fault). The stall is
    /// charged as active disk time and added to the request's latency —
    /// an inflated service time, a bad-sector retry, or a failed spin-up
    /// attempt (`outcome.woke_disk` tells the injector a spin-up
    /// happened).
    fn on_disk_request(&mut self, at: f64, outcome: &RequestOutcome) -> f64 {
        let _ = (at, outcome);
        0.0
    }

    /// Filters a controller's bank resize before it reaches the memory
    /// manager. Returning a different count models banks that refuse the
    /// power transition; implementations must return a count the memory
    /// configuration accepts.
    fn filter_banks(&mut self, requested: u32) -> u32 {
        requested
    }

    /// Filters a controller's disk-timeout setting before it is applied.
    fn filter_timeout(&mut self, requested: f64) -> f64 {
        requested
    }

    /// The injector's internal state (RNG position, counters) as a
    /// serializable value, captured into checkpoints so a resumed run
    /// replays the exact same fault sequence. The default
    /// ([`serde::Value::Null`]) is correct for stateless injectors.
    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restores the state captured by [`FaultInjector::snapshot_state`].
    /// The default ignores the value (stateless injectors).
    ///
    /// # Errors
    ///
    /// Returns a decode error when `state` does not match this injector's
    /// snapshot layout.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let _ = state;
        Ok(())
    }
}

/// Serializable image of the hardware's dynamic state.
#[derive(serde::Serialize, serde::Deserialize)]
struct HwSnapshot {
    mem: serde::Value,
    disks: serde::Value,
    spindowns: Vec<SpinDownPolicy>,
    disk_pages: u64,
    period_disk_times: Vec<f64>,
    injector: serde::Value,
}

/// The hardware under simulation.
///
/// Observers receive `&mut HwState` with every callback: they read counters
/// to build observations and may act on the hardware (the period controller
/// resizes memory and retunes the disk timeouts through
/// [`HwState::apply_action`]).
pub struct HwState {
    /// The disk cache (banked memory, LRU, stack profiler).
    pub mem: MemoryManager,
    /// The member disks behind the cache (queues, spin-down, energy);
    /// one disk unless [`SimConfig::array`] asks for more.
    pub disks: DiskArray,
    /// All pages moved between disk and memory so far (read misses +
    /// write-backs).
    pub disk_pages: u64,
    /// Disk (sub-)request arrival times inside the current control period
    /// (cleared by the period observer at each boundary).
    pub period_disk_times: Vec<f64>,
    /// Each member's spin-down policy, in member order.
    spindowns: Vec<SpinDownPolicy>,
    page_bytes: u64,
    disk_power: DiskPowerModel,
    injector: Option<Box<dyn FaultInjector>>,
}

impl HwState {
    /// Builds the hardware for one run: a memory manager and the
    /// configured member disks over `total_pages`, each member with its
    /// own copy of `spindown` and that policy's initial timeout applied.
    pub fn new(config: &SimConfig, spindown: SpinDownPolicy, total_pages: u64) -> Self {
        let mut mem = MemoryManager::new(config.mem);
        mem.set_replacement(config.replacement);
        mem.set_consolidation(config.consolidate);
        let mut disks = DiskArray::new(
            config.array.disks,
            config.disk_power,
            config.disk_service,
            total_pages,
            config.array.layout,
        );
        disks.set_timeout_all(spindown.timeout());
        HwState {
            mem,
            disks,
            disk_pages: 0,
            period_disk_times: Vec::new(),
            spindowns: vec![spindown; config.array.disks],
            page_bytes: config.mem.page_bytes,
            disk_power: config.disk_power,
            injector: None,
        }
    }

    /// Installs a [`FaultInjector`] consulted at every hardware seam.
    /// Without one (the default) all seams are pass-throughs.
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector>) {
        self.injector = Some(injector);
    }

    /// The hardware's full dynamic state (memory, every member disk and
    /// its spin-down policy, request bookkeeping, and the injector's state
    /// when one is installed) as a serializable value — the hardware half
    /// of a checkpoint.
    pub fn snapshot_state(&self) -> serde::Value {
        use serde::Serialize;
        HwSnapshot {
            mem: self.mem.snapshot_state(),
            disks: self.disks.snapshot_state(),
            spindowns: self.spindowns.clone(),
            disk_pages: self.disk_pages,
            period_disk_times: self.period_disk_times.clone(),
            injector: self
                .injector
                .as_deref()
                .map_or(serde::Value::Null, |injector| injector.snapshot_state()),
        }
        .to_value()
    }

    /// Restores the state captured by [`HwState::snapshot_state`]. An
    /// injector, when the checkpointed run had one, must already be
    /// installed (its configuration is rebuilt by the caller; only its
    /// dynamic state lives in the snapshot).
    ///
    /// # Errors
    ///
    /// Returns a decode error when `value` does not match the hardware
    /// snapshot layout (a corrupt or incompatible checkpoint).
    pub fn restore_state(&mut self, value: &serde::Value) -> Result<(), serde::Error> {
        use serde::Deserialize;
        let snapshot = HwSnapshot::from_value(value)?;
        if snapshot.spindowns.len() != self.spindowns.len() {
            return Err(serde::Error::custom(format!(
                "checkpoint holds {} spin-down policies for {} member disks",
                snapshot.spindowns.len(),
                self.spindowns.len()
            )));
        }
        self.mem.restore_state(&snapshot.mem)?;
        self.disks.restore_state(&snapshot.disks)?;
        self.spindowns = snapshot.spindowns;
        self.disk_pages = snapshot.disk_pages;
        self.period_disk_times = snapshot.period_disk_times;
        if let Some(injector) = self.injector.as_deref_mut() {
            injector.restore_state(&snapshot.injector)?;
        }
        Ok(())
    }

    /// Advances memory's and every disk's internal clock to `t`
    /// (idempotent).
    pub fn settle(&mut self, t: f64) {
        self.mem.settle(t);
        self.disks.settle(t);
    }

    /// Current cumulative energy of memory and all disks.
    pub fn snapshot_energy(&self) -> EnergyBreakdown {
        EnergyBreakdown {
            mem: self.mem.energy(),
            disk: self.disks.energy(),
        }
    }

    /// The spin-down timeout in force on the first member disk, s — the
    /// disk timeout of a single-disk run.
    pub fn disk_timeout(&self) -> f64 {
        self.disks.disk(0).timeout()
    }

    /// Submits one contiguous run of pages at `at`, split across the
    /// member disks by the layout. Each member's sub-request may be
    /// stalled by the fault injector, then lets that member's spin-down
    /// policy react, and is recorded in the period bookkeeping. Returns
    /// the request's outcome (the slowest sub-request).
    pub fn submit_request(&mut self, at: f64, first_page: u64, pages: u64) -> RequestOutcome {
        let HwState {
            disks,
            spindowns,
            period_disk_times,
            injector,
            disk_power,
            ..
        } = self;
        let outcome = disks.submit(
            at,
            first_page,
            pages,
            self.page_bytes,
            |d, disk, mut part| {
                if let Some(injector) = injector.as_mut() {
                    let extra = injector.on_disk_request(at, &part);
                    if extra > 0.0 {
                        disk.stall(extra);
                        part.completion += extra;
                        part.latency += extra;
                    }
                }
                disk.set_timeout(spindowns[d].after_request(&part, disk_power));
                period_disk_times.push(at);
                part
            },
        );
        self.disk_pages += pages;
        outcome
    }

    /// Submits background write-back pages as coalesced disk writes at
    /// `at`, returning one [`SimEvent::DiskRequest`] (with `user: false`)
    /// per coalesced run. Flushes do not count toward user latency but
    /// they do occupy the disk (energy, busy time, idle-interval
    /// structure).
    pub fn submit_writes(&mut self, mut pages: Vec<u64>, at: f64) -> Vec<SimEvent> {
        pages.sort_unstable();
        let mut events = Vec::new();
        let mut i = 0usize;
        while i < pages.len() {
            let first = pages[i];
            let mut len = 1u64;
            while i + (len as usize) < pages.len() && pages[i + len as usize] == first + len {
                len += 1;
            }
            let outcome = self.submit_request(at, first, len);
            events.push(SimEvent::DiskRequest {
                time: at,
                first_page: first,
                pages: len,
                latency: outcome.latency,
                woke_disk: outcome.woke_disk,
                user: false,
            });
            i += len as usize;
        }
        events
    }

    /// Applies a controller's decision at time `t`: the memory size, then
    /// each member's timeout — from `disk_timeouts` when the action names
    /// them one by one, else `disk_timeout` for every member.
    ///
    /// # Panics
    ///
    /// Panics when `disk_timeouts` is non-empty but does not hold one
    /// timeout per member disk, or when a timeout reaches a member whose
    /// policy is not [`SpinDownPolicy::Controlled`].
    pub fn apply_action(&mut self, action: &ControlAction, t: f64) {
        if let Some(banks) = action.enabled_banks {
            let banks = match self.injector.as_mut() {
                Some(injector) => injector.filter_banks(banks),
                None => banks,
            };
            self.mem.set_enabled_banks(banks, t);
        }
        if !action.disk_timeouts.is_empty() {
            assert_eq!(
                action.disk_timeouts.len(),
                self.spindowns.len(),
                "one timeout per member disk"
            );
            for (d, &timeout) in action.disk_timeouts.iter().enumerate() {
                self.set_member_timeout(d, timeout);
            }
        } else if let Some(timeout) = action.disk_timeout {
            for d in 0..self.spindowns.len() {
                self.set_member_timeout(d, timeout);
            }
        }
    }

    fn set_member_timeout(&mut self, d: usize, timeout: f64) {
        let timeout = match self.injector.as_mut() {
            Some(injector) => injector.filter_timeout(timeout),
            None => timeout,
        };
        self.spindowns[d].set_controlled_timeout(timeout);
        self.disks.set_timeout(d, timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpmd_mem::{IdlePolicy, MemConfig, RdramModel};

    fn config() -> SimConfig {
        SimConfig::with_mem(MemConfig {
            page_bytes: 1 << 20,
            bank_pages: 4,
            total_banks: 8,
            initial_banks: 8,
            model: RdramModel::default(),
            policy: IdlePolicy::Nap,
        })
    }

    fn hw(spindown: SpinDownPolicy) -> HwState {
        HwState::new(&config(), spindown, 64)
    }

    #[test]
    fn submit_writes_coalesces_contiguous_pages() {
        let mut hw = hw(SpinDownPolicy::AlwaysOn);
        // 0..3 and 8..9 coalesce into two requests; order-insensitive.
        let events = hw.submit_writes(vec![9, 0, 2, 1, 8], 5.0);
        assert_eq!(events.len(), 2);
        assert_eq!(hw.disk_pages, 5);
        assert_eq!(hw.disks.requests(), 2);
        assert_eq!(hw.period_disk_times, vec![5.0, 5.0]);
        match events[0] {
            SimEvent::DiskRequest {
                first_page,
                pages,
                user,
                ..
            } => {
                assert_eq!((first_page, pages), (0, 3));
                assert!(!user);
            }
            _ => panic!("expected DiskRequest"),
        }
    }

    #[test]
    fn fault_injector_stalls_requests_and_filters_actions() {
        struct Nasty;
        impl FaultInjector for Nasty {
            fn on_disk_request(&mut self, _at: f64, _outcome: &RequestOutcome) -> f64 {
                2.0
            }
            fn filter_banks(&mut self, requested: u32) -> u32 {
                requested.max(6)
            }
            fn filter_timeout(&mut self, _requested: f64) -> f64 {
                9.0
            }
        }
        let mut plain = hw(SpinDownPolicy::controlled(f64::INFINITY));
        let baseline = plain.submit_request(1.0, 0, 1);

        let mut faulty = hw(SpinDownPolicy::controlled(f64::INFINITY));
        faulty.set_fault_injector(Box::new(Nasty));
        let outcome = faulty.submit_request(1.0, 0, 1);
        assert!((outcome.latency - (baseline.latency + 2.0)).abs() < 1e-12);
        assert!((outcome.completion - (baseline.completion + 2.0)).abs() < 1e-12);
        assert!((faulty.disks.busy_secs() - (plain.disks.busy_secs() + 2.0)).abs() < 1e-12);

        faulty.apply_action(
            &ControlAction {
                enabled_banks: Some(2),
                disk_timeout: Some(7.0),
                disk_timeouts: Vec::new(),
            },
            10.0,
        );
        assert_eq!(faulty.mem.enabled_banks(), 6, "flaky banks refused");
        assert_eq!(faulty.disk_timeout(), 9.0, "timeout filtered");
    }

    #[test]
    fn apply_action_resizes_and_retunes() {
        let mut hw = hw(SpinDownPolicy::controlled(f64::INFINITY));
        hw.apply_action(
            &ControlAction {
                enabled_banks: Some(4),
                disk_timeout: Some(7.0),
                disk_timeouts: Vec::new(),
            },
            10.0,
        );
        assert_eq!(hw.mem.enabled_banks(), 4);
        assert_eq!(hw.disk_timeout(), 7.0);
        // Empty action leaves everything alone.
        hw.apply_action(&ControlAction::default(), 11.0);
        assert_eq!(hw.mem.enabled_banks(), 4);
        assert_eq!(hw.disk_timeout(), 7.0);
    }

    #[test]
    fn members_take_their_own_timeouts_and_share_a_plain_one() {
        let mut config = config();
        config.array = crate::ArrayConfig {
            disks: 3,
            layout: jpmd_disk::Layout::Partitioned,
        };
        let mut hw = HwState::new(&config, SpinDownPolicy::controlled(f64::INFINITY), 60);
        hw.apply_action(
            &ControlAction {
                disk_timeouts: vec![5.0, 6.0, 7.0],
                ..ControlAction::default()
            },
            1.0,
        );
        let timeouts: Vec<f64> = hw.disks.disks().iter().map(|d| d.timeout()).collect();
        assert_eq!(timeouts, [5.0, 6.0, 7.0]);
        hw.apply_action(
            &ControlAction {
                disk_timeout: Some(9.0),
                ..ControlAction::default()
            },
            2.0,
        );
        assert!(hw.disks.disks().iter().all(|d| d.timeout() == 9.0));
        // A request spanning two partitions is two sub-requests.
        hw.submit_request(3.0, 15, 10);
        assert_eq!(hw.disks.requests(), 2);
        assert_eq!(hw.period_disk_times, [3.0, 3.0]);
        let mut restored = HwState::new(&config, SpinDownPolicy::AlwaysOn, 60);
        restored
            .restore_state(&hw.snapshot_state())
            .expect("same geometry restores");
        assert_eq!(restored.disks.requests(), 2);
        assert!(HwState::new(
            &SimConfig::with_mem(config.mem),
            SpinDownPolicy::AlwaysOn,
            60
        )
        .restore_state(&hw.snapshot_state())
        .is_err());
    }
}
