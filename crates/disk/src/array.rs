//! A multi-disk array — the substrate for the paper's future-work item
//! "extend the joint method to multiple disks", which it says must
//! consider "management of disk cache for multiple disks … data layout
//! across disks; and workload distributions on disks" (§VI).
//!
//! The array owns `n` independent [`Disk`]s and a [`Layout`] mapping the
//! global page space onto them:
//!
//! * [`Layout::Partitioned`] — contiguous page ranges per disk. Hot data
//!   concentrates on few disks, leaving the others long idle periods —
//!   the energy-friendly layout (cf. Pinheiro & Bianchini's data
//!   migration, paper ref. \[31\]).
//! * [`Layout::Striped`] — round-robin stripes for bandwidth. Every disk
//!   sees a slice of every burst, which destroys idle consolidation: good
//!   for throughput, bad for spin-down.
//!
//! Requests spanning a layout boundary are split into per-disk
//! sub-requests; the array-level completion is the last sub-completion.
//! An array of one disk passes every request through unsplit, so it
//! behaves exactly like a lone [`Disk`].

use serde::{Deserialize, Serialize};

use crate::{Disk, DiskEnergy, DiskPowerModel, RequestOutcome, ServiceModel};

/// How the global page space maps onto the member disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Layout {
    /// Disk `d` holds pages `[d·(total/n), (d+1)·(total/n))`.
    Partitioned,
    /// Page `p` lives on disk `(p / stripe_pages) % n`.
    Striped {
        /// Stripe unit in pages (≥ 1).
        stripe_pages: u64,
    },
}

impl Layout {
    /// The disk holding `page` in an array of `n` disks over
    /// `total_pages`.
    pub fn disk_of(&self, page: u64, n: usize, total_pages: u64) -> usize {
        match *self {
            Layout::Partitioned => {
                let per_disk = total_pages.div_ceil(n as u64).max(1);
                ((page / per_disk) as usize).min(n - 1)
            }
            Layout::Striped { stripe_pages } => ((page / stripe_pages.max(1)) % n as u64) as usize,
        }
    }
}

/// An array of independently power-managed disks behind one page space.
///
/// # Example
///
/// ```
/// use jpmd_disk::{DiskArray, DiskPowerModel, Layout, ServiceModel};
///
/// let mut array = DiskArray::new(
///     4,
///     DiskPowerModel::default(),
///     ServiceModel::scaled_pages(),
///     1 << 16,
///     Layout::Partitioned,
/// );
/// array.set_timeout_all(11.7);
/// let mut parts = 0;
/// let out = array.submit(0.0, 42, 8, 1 << 20, |_, _, part| {
///     parts += 1;
///     part
/// });
/// assert_eq!(parts, 1); // partitioned: one disk serves it
/// assert!(out.latency > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct DiskArray {
    disks: Vec<Disk>,
    layout: Layout,
    total_pages: u64,
}

impl DiskArray {
    /// Creates `n` identical disks behind `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `total_pages == 0`.
    pub fn new(
        n: usize,
        power: DiskPowerModel,
        service: ServiceModel,
        total_pages: u64,
        layout: Layout,
    ) -> Self {
        assert!(n > 0, "array needs at least one disk");
        assert!(total_pages > 0, "array must have at least one page");
        // Each member models its own partition-sized platter so seek
        // fractions stay meaningful.
        let per_disk_pages = total_pages.div_ceil(n as u64).max(1);
        let disks = (0..n)
            .map(|_| Disk::new(power, service, per_disk_pages))
            .collect();
        Self {
            disks,
            layout,
            total_pages,
        }
    }

    /// Number of member disks.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// Always false (constructor requires n ≥ 1); part of the `len` pair.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The layout in force.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The disk index that holds `page`.
    pub fn disk_of(&self, page: u64) -> usize {
        self.layout
            .disk_of(page, self.disks.len(), self.total_pages)
    }

    /// Borrow one member disk.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn disk(&self, idx: usize) -> &Disk {
        &self.disks[idx]
    }

    /// The member disks, in index order.
    pub fn disks(&self) -> &[Disk] {
        &self.disks
    }

    /// Sets one member's spin-down timeout.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_timeout(&mut self, idx: usize, timeout: f64) {
        self.disks[idx].set_timeout(timeout);
    }

    /// Sets every member's spin-down timeout.
    pub fn set_timeout_all(&mut self, timeout: f64) {
        for d in &mut self.disks {
            d.set_timeout(timeout);
        }
    }

    /// Submits a request for contiguous global pages, splitting it at
    /// layout boundaries. `on_part` sees each member's sub-request right
    /// after it is queued — `(member, disk, outcome)` — and returns the
    /// outcome to keep, so a caller can stall the disk or retune its
    /// timeout. The array-level outcome spans all parts: the slowest
    /// completion, and whether any part woke its disk. With one member the
    /// request goes through unsplit and its pages unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `pages == 0` or arrivals go backwards.
    pub fn submit(
        &mut self,
        now: f64,
        first_page: u64,
        pages: u64,
        page_bytes: u64,
        mut on_part: impl FnMut(usize, &mut Disk, RequestOutcome) -> RequestOutcome,
    ) -> RequestOutcome {
        assert!(pages > 0, "request must cover at least one page");
        if let [disk] = self.disks.as_mut_slice() {
            let outcome = disk.submit(now, first_page, pages, page_bytes);
            return on_part(0, disk, outcome);
        }
        let mut total = RequestOutcome {
            completion: 0.0,
            latency: 0.0,
            woke_disk: false,
            idle_before: f64::INFINITY,
        };
        let end = first_page + pages;
        let mut run_start = first_page;
        while run_start < end {
            let d = self.disk_of(run_start);
            let mut run_end = run_start + 1;
            while run_end < end && self.disk_of(run_end) == d {
                run_end += 1;
            }
            let local = self.to_local(run_start);
            let disk = &mut self.disks[d];
            let outcome = disk.submit(now, local, run_end - run_start, page_bytes);
            let part = on_part(d, disk, outcome);
            total.completion = total.completion.max(part.completion);
            total.woke_disk |= part.woke_disk;
            total.idle_before = total.idle_before.min(part.idle_before);
            run_start = run_end;
        }
        total.latency = total.completion - now;
        total
    }

    /// Maps a global page to the member disk's local page (for seek
    /// distances).
    fn to_local(&self, page: u64) -> u64 {
        match self.layout {
            Layout::Partitioned => {
                let per_disk = self.total_pages.div_ceil(self.disks.len() as u64).max(1);
                page % per_disk
            }
            Layout::Striped { stripe_pages } => {
                let stripe = stripe_pages.max(1);
                let global_stripe = page / stripe;
                let local_stripe = global_stripe / self.disks.len() as u64;
                local_stripe * stripe + page % stripe
            }
        }
    }

    /// Settles every member's energy accounting up to `now`.
    pub fn settle(&mut self, now: f64) {
        for d in &mut self.disks {
            d.settle(now);
        }
    }

    /// Summed energy across members.
    pub fn energy(&self) -> DiskEnergy {
        let mut total = DiskEnergy::default();
        for d in &self.disks {
            let e = d.energy();
            total.active_j += e.active_j;
            total.idle_j += e.idle_j;
            total.standby_j += e.standby_j;
            total.transition_j += e.transition_j;
        }
        total
    }

    /// Summed busy seconds across members.
    pub fn busy_secs(&self) -> f64 {
        self.disks.iter().map(Disk::busy_secs).sum()
    }

    /// Summed spin-downs across members.
    pub fn spin_downs(&self) -> u64 {
        self.disks.iter().map(Disk::spin_downs).sum()
    }

    /// Summed requests across members (sub-requests count individually).
    pub fn requests(&self) -> u64 {
        self.disks.iter().map(Disk::requests).sum()
    }

    /// Every member's dynamic state, in index order (see
    /// [`Disk::snapshot_state`]).
    pub fn snapshot_state(&self) -> serde::Value {
        serde::Value::Array(self.disks.iter().map(Disk::snapshot_state).collect())
    }

    /// Restores the state captured by [`DiskArray::snapshot_state`] into
    /// an array built with the same geometry and models.
    ///
    /// # Errors
    ///
    /// Returns an error when `value` is not one disk snapshot per member.
    pub fn restore_state(&mut self, value: &serde::Value) -> Result<(), serde::Error> {
        let members = value
            .as_array()
            .filter(|members| members.len() == self.disks.len())
            .ok_or_else(|| {
                serde::Error::custom(format!(
                    "expected {} member disk snapshots, got {}",
                    self.disks.len(),
                    value.kind()
                ))
            })?;
        for (disk, state) in self.disks.iter_mut().zip(members) {
            disk.restore_state(state)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(n: usize, layout: Layout) -> DiskArray {
        DiskArray::new(
            n,
            DiskPowerModel::default(),
            ServiceModel::scaled_pages(),
            1024,
            layout,
        )
    }

    #[test]
    fn partitioned_routing() {
        let a = array(4, Layout::Partitioned);
        assert_eq!(a.disk_of(0), 0);
        assert_eq!(a.disk_of(255), 0);
        assert_eq!(a.disk_of(256), 1);
        assert_eq!(a.disk_of(1023), 3);
    }

    #[test]
    fn striped_routing() {
        let a = array(4, Layout::Striped { stripe_pages: 8 });
        assert_eq!(a.disk_of(0), 0);
        assert_eq!(a.disk_of(7), 0);
        assert_eq!(a.disk_of(8), 1);
        assert_eq!(a.disk_of(31), 3);
        assert_eq!(a.disk_of(32), 0);
    }

    /// Submits a request, returning the array outcome and each part's
    /// `(member, completion)` in submission order.
    fn submit_parts(
        a: &mut DiskArray,
        first_page: u64,
        pages: u64,
    ) -> (RequestOutcome, Vec<(usize, f64)>) {
        let mut parts = Vec::new();
        let out = a.submit(0.0, first_page, pages, 1 << 20, |d, _, part| {
            parts.push((d, part.completion));
            part
        });
        (out, parts)
    }

    #[test]
    fn partitioned_request_stays_on_one_disk() {
        let mut a = array(4, Layout::Partitioned);
        let (_, parts) = submit_parts(&mut a, 10, 100);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].0, 0);
    }

    #[test]
    fn boundary_request_splits() {
        let mut a = array(4, Layout::Partitioned);
        let (out, parts) = submit_parts(&mut a, 250, 12); // spans disks 0 and 1
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[1].0, 1);
        assert_eq!(parts[0].1.max(parts[1].1), out.completion);
        assert_eq!(a.requests(), 2);
    }

    #[test]
    fn striped_request_fans_out() {
        let mut a = array(4, Layout::Striped { stripe_pages: 2 });
        let (_, parts) = submit_parts(&mut a, 0, 8); // 4 stripes of 2 pages
        let disks: Vec<usize> = parts.iter().map(|&(d, _)| d).collect();
        assert_eq!(disks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_member_passes_requests_through() {
        // Striping a one-disk array must not split or remap the request.
        let mut a = array(1, Layout::Striped { stripe_pages: 2 });
        let mut lone = Disk::new(
            DiskPowerModel::default(),
            ServiceModel::scaled_pages(),
            1024,
        );
        let (out, parts) = submit_parts(&mut a, 5, 40);
        assert_eq!(parts.len(), 1);
        assert_eq!(out, lone.submit(0.0, 5, 40, 1 << 20));
    }

    #[test]
    fn on_part_can_stall_a_member() {
        let mut a = array(2, Layout::Partitioned);
        let out = a.submit(0.0, 500, 24, 1 << 20, |d, disk, mut part| {
            if d == 1 {
                disk.stall(3.0);
                part.completion += 3.0;
            }
            part
        });
        assert!(out.latency >= 3.0);
        assert!(a.disk(1).busy_secs() >= 3.0);
        assert!(a.disk(0).busy_secs() < 3.0);
    }

    #[test]
    fn snapshot_round_trips_every_member() {
        let mut a = array(3, Layout::Partitioned);
        submit_parts(&mut a, 700, 8);
        let mut b = array(3, Layout::Partitioned);
        b.restore_state(&a.snapshot_state()).expect("restore");
        assert_eq!(b.requests(), 1);
        assert_eq!(b.disk(2).busy_secs(), a.disk(2).busy_secs());
        assert!(array(2, Layout::Partitioned)
            .restore_state(&a.snapshot_state())
            .is_err());
    }

    #[test]
    fn striping_parallelism_beats_single_disk_latency() {
        let mut striped = array(4, Layout::Striped { stripe_pages: 2 });
        let mut single = array(1, Layout::Partitioned);
        let (s, _) = submit_parts(&mut striped, 0, 64);
        let (o, _) = submit_parts(&mut single, 0, 64);
        assert!(
            s.latency < o.latency,
            "striping must parallelize the transfer ({} vs {})",
            s.latency,
            o.latency
        );
    }

    #[test]
    fn partitioning_consolidates_idleness() {
        // Hot traffic confined to disk 0's partition: the other three
        // disks can spin down. Under striping, everything stays awake.
        let run = |layout| {
            let mut a = array(4, layout);
            a.set_timeout_all(11.7);
            let mut t = 0.0;
            for i in 0..200u64 {
                let page = (i * 13) % 200; // pages 0..200: partition 0 only
                let out = a.submit(t, page, 2, 1 << 20, |_, _, part| part);
                t = out.completion + 5.0;
            }
            a.settle(t + 100.0);
            (a.energy().total_j(), a.spin_downs())
        };
        let (part_energy, part_spins) = run(Layout::Partitioned);
        let (stripe_energy, stripe_spins) = run(Layout::Striped { stripe_pages: 2 });
        assert!(part_spins >= 3, "cold partitions must spin down");
        assert!(
            part_energy < stripe_energy,
            "partitioned {part_energy} should beat striped {stripe_energy} \
             (stripe spins: {stripe_spins})"
        );
    }

    #[test]
    fn energy_sums_members() {
        let mut a = array(2, Layout::Partitioned);
        a.settle(100.0);
        // Two idle disks at 7.5 W for 100 s.
        assert!((a.energy().total_j() - 2.0 * 7.5 * 100.0).abs() < 1e-6);
    }

    #[test]
    fn local_mapping_round_trips_within_partition() {
        let a = array(4, Layout::Partitioned);
        assert_eq!(a.to_local(0), 0);
        assert_eq!(a.to_local(256), 0);
        assert_eq!(a.to_local(300), 44);
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_panics() {
        let _ = array(0, Layout::Partitioned);
    }
}
