use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::{
    AccessLog, BankArray, DiskCache, IdlePolicy, MemEnergy, RdramModel, Replacement, StackProfiler,
};

/// Configuration of the physical memory used as the disk cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemConfig {
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Pages per memory bank (the resize granularity; paper default: one
    /// 16 MB bank).
    pub bank_pages: u32,
    /// Total installed banks (the resize ceiling; paper: 128 GB).
    pub total_banks: u32,
    /// Banks enabled at start.
    pub initial_banks: u32,
    /// RDRAM datasheet model.
    pub model: RdramModel,
    /// What enabled banks do while idle.
    pub policy: IdlePolicy,
}

impl MemConfig {
    /// Validates field relationships.
    ///
    /// # Panics
    ///
    /// Panics when any size is zero or `initial_banks` exceeds the total.
    fn validate(&self) {
        assert!(self.page_bytes > 0, "page_bytes must be > 0");
        assert!(self.bank_pages > 0, "bank_pages must be > 0");
        assert!(self.total_banks > 0, "total_banks must be > 0");
        assert!(
            (1..=self.total_banks).contains(&self.initial_banks),
            "initial_banks must be in 1..=total_banks"
        );
    }

    /// One bank's capacity in MB.
    pub fn bank_mb(&self) -> f64 {
        self.bank_pages as f64 * self.page_bytes as f64 / (1024.0 * 1024.0)
    }

    /// One page's size in MB.
    pub fn page_mb(&self) -> f64 {
        self.page_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Total installed capacity in pages.
    pub fn total_pages(&self) -> u64 {
        self.total_banks as u64 * self.bank_pages as u64
    }
}

/// What a heap entry does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum ExpiryKind {
    /// The disable timeout passed: drop the bank's pages.
    Invalidate,
    /// Half the timeout passed: migrate the bank's pages to warm banks so
    /// the bank can expire without data loss (consolidation).
    Consolidate,
}

impl ExpiryKind {
    /// When this timer fires after an access at `stamp`, under a disable
    /// timeout of `t`.
    fn deadline(self, stamp: f64, t: f64) -> f64 {
        match self {
            ExpiryKind::Invalidate => stamp + t,
            ExpiryKind::Consolidate => stamp + 0.5 * t,
        }
    }
}

/// Heap entry for lazy disable-mode expiry sweeping.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Expiry {
    at: f64,
    bank: u32,
    /// The arming access this deadline was computed from.
    stamp: f64,
    kind: ExpiryKind,
}

/// The disable timers of one bank: the access that last armed them, and
/// which of its two kinds has an entry in the heap. A bank holds at most
/// one entry per kind; an entry that fires after a later arming access
/// re-arms at that access's deadline instead.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct BankTimers {
    armed: f64,
    invalidate_queued: bool,
    consolidate_queued: bool,
}

impl BankTimers {
    fn queued(&mut self, kind: ExpiryKind) -> &mut bool {
        match kind {
            ExpiryKind::Invalidate => &mut self.invalidate_queued,
            ExpiryKind::Consolidate => &mut self.consolidate_queued,
        }
    }
}

impl PartialEq for Expiry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.bank == other.bank
    }
}
impl Eq for Expiry {}
impl PartialOrd for Expiry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Expiry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest expiry first.
        other
            .at
            .total_cmp(&self.at)
            .then_with(|| other.bank.cmp(&self.bank))
    }
}

/// The complete memory subsystem: disk cache, bank power accounting, and
/// the stack-distance profiler, driven by page accesses.
///
/// This is the component the system simulator talks to. Each call to
/// [`MemoryManager::access`] performs, in order:
///
/// 1. lazy expiry of `DisableAfter` banks whose timeout passed (their
///    cached pages are invalidated — future re-reads become disk accesses,
///    the defining cost of the DS methods),
/// 2. stack-distance profiling into the current [`AccessLog`], unless
///    [`MemoryManager::set_profiling`] turned it off (only a policy that
///    reads the log needs it),
/// 3. the LRU cache lookup/fill,
/// 4. bank energy accounting for the page transfer, and re-arming the
///    bank's disable timers.
///
/// Accesses must arrive in time order (the simulator clamps its records
/// to make them so). A disable timer costs one heap entry per bank and
/// kind however many accesses re-arm it.
///
/// # Example
///
/// ```
/// use jpmd_mem::{IdlePolicy, MemConfig, MemoryManager, RdramModel};
///
/// let config = MemConfig {
///     page_bytes: 1 << 20,
///     bank_pages: 16,
///     total_banks: 8,
///     initial_banks: 8,
///     model: RdramModel::default(),
///     policy: IdlePolicy::Nap,
/// };
/// let mut mem = MemoryManager::new(config);
/// assert!(!mem.access(42, 0.0)); // cold miss -> disk access
/// assert!(mem.access(42, 0.1));  // now cached
/// ```
#[derive(Debug, Clone)]
pub struct MemoryManager {
    config: MemConfig,
    cache: DiskCache,
    banks: BankArray,
    profiler: StackProfiler,
    log: AccessLog,
    /// Whether accesses feed `profiler` and `log`.
    profiling: bool,
    ds_heap: BinaryHeap<Expiry>,
    /// Per-bank disable timers; empty when the policy never disables.
    timers: Vec<BankTimers>,
    accesses: u64,
    hits: u64,
    /// Migrate pages out of nearly-expired `DisableAfter` banks instead of
    /// letting their contents be lost (power-aware cache management).
    consolidate: bool,
    pages_migrated: u64,
    /// Dirty pages dropped by eviction or bank invalidation that the
    /// simulator must write to the disk.
    pending_writebacks: Vec<u64>,
    /// Read misses (disk *read* traffic, excluding write-allocates).
    read_misses: u64,
}

impl MemoryManager {
    /// Creates the memory subsystem from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see [`MemConfig`]).
    pub fn new(config: MemConfig) -> Self {
        config.validate();
        let mut cache = DiskCache::new(config.total_banks, config.bank_pages);
        let mut banks = BankArray::new(
            config.model,
            config.total_banks as usize,
            config.bank_mb(),
            config.policy,
        );
        if config.initial_banks != config.total_banks {
            cache.resize(config.initial_banks);
            banks.set_enabled(config.initial_banks as usize, 0.0);
        }
        Self {
            config,
            cache,
            banks,
            profiler: StackProfiler::new(),
            log: AccessLog::new(),
            profiling: true,
            ds_heap: BinaryHeap::new(),
            timers: match config.policy.disable_after() {
                Some(_) => vec![BankTimers::default(); config.total_banks as usize],
                None => Vec::new(),
            },
            accesses: 0,
            hits: 0,
            consolidate: false,
            pages_migrated: 0,
            pending_writebacks: Vec::new(),
            read_misses: 0,
        }
    }

    /// Selects the cache replacement policy (default: global LRU).
    pub fn set_replacement(&mut self, replacement: Replacement) {
        self.cache.set_replacement(replacement);
    }

    /// Enables consolidation: pages of a `DisableAfter` bank are migrated
    /// to warm banks at half the disable timeout, so the bank turns off
    /// without losing data (the power-aware cache management of related
    /// work \[6\], \[36\]). The copies are charged 2× the per-MB dynamic
    /// energy (read + write) and do **not** revive the draining bank.
    /// Set it before the first access, as the simulator does.
    pub fn set_consolidation(&mut self, on: bool) {
        self.consolidate = on;
    }

    /// Turns stack profiling and the access log on or off (on by
    /// default). While off, accesses leave both untouched, so
    /// [`MemoryManager::take_log`] returns empty logs: a run whose policy
    /// never reads them skips the profiler's per-page work.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// Pages migrated by consolidation so far.
    pub fn pages_migrated(&self) -> u64 {
        self.pages_migrated
    }

    /// The configuration this manager was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Invalidates (or consolidates) banks whose timers fired before `now`.
    fn sweep_disabled(&mut self, now: f64) {
        let Some(t) = self.config.policy.disable_after() else {
            return;
        };
        while let Some(&e) = self.ds_heap.peek() {
            if e.at > now {
                break;
            }
            self.ds_heap.pop();
            let timers = &mut self.timers[e.bank as usize];
            if timers.armed != e.stamp {
                // A later access re-armed the bank: wait for its deadline,
                // which is never earlier than this one.
                self.ds_heap.push(Expiry {
                    at: e.kind.deadline(timers.armed, t),
                    stamp: timers.armed,
                    ..e
                });
                continue;
            }
            *timers.queued(e.kind) = false;
            // A resize that woke the bank since the access restarted its
            // idle clock without arming anything.
            if self.banks.last_access(e.bank as usize) != e.stamp {
                continue;
            }
            match e.kind {
                ExpiryKind::Invalidate => {
                    if self.banks.is_expired(e.bank as usize, now) {
                        // Dirty pages must reach the disk before the bank
                        // loses them.
                        self.pending_writebacks
                            .extend(self.cache.dirty_pages_in_banks(e.bank, e.bank + 1));
                        self.cache.invalidate_bank(e.bank);
                    }
                }
                ExpiryKind::Consolidate => {
                    let moved = self.cache.evacuate_bank(e.bank);
                    if !moved.is_empty() {
                        self.pages_migrated += moved.len() as u64;
                        let mb = moved.len() as f64 * self.config.page_mb();
                        self.banks
                            .add_dynamic_j(2.0 * mb * self.config.model.dynamic_j_per_mb());
                        // Destination banks now hold live data: mark them
                        // accessed (zero-byte touch) and arm their own
                        // disable timers so they stay physically honest.
                        let mut dest_banks: Vec<u32> =
                            moved.iter().map(|&f| self.cache.bank_of(f)).collect();
                        dest_banks.sort_unstable();
                        dest_banks.dedup();
                        for bank in dest_banks {
                            self.banks.record_access(bank as usize, now, 0.0);
                            self.arm_timers(bank, now);
                        }
                    }
                }
            }
        }
    }

    /// Arms `bank`'s disable timers from an access at `now`, pushing a heap
    /// entry only for a kind that has none queued. No-op for policies
    /// that never disable.
    fn arm_timers(&mut self, bank: u32, now: f64) {
        let Some(t) = self.config.policy.disable_after() else {
            return;
        };
        let kinds: &[ExpiryKind] = if self.consolidate {
            &[ExpiryKind::Invalidate, ExpiryKind::Consolidate]
        } else {
            &[ExpiryKind::Invalidate]
        };
        let timers = &mut self.timers[bank as usize];
        timers.armed = now;
        for &kind in kinds {
            let queued = timers.queued(kind);
            if !*queued {
                *queued = true;
                self.ds_heap.push(Expiry {
                    at: kind.deadline(now, t),
                    bank,
                    stamp: now,
                    kind,
                });
            }
        }
    }

    /// Performs one disk-cache **read**; returns `true` on a hit (memory
    /// access) and `false` on a miss (the caller must issue a disk read).
    pub fn access(&mut self, page: u64, now: f64) -> bool {
        self.access_rw(page, now, false)
    }

    /// Performs one disk-cache access; `write` selects write-back
    /// semantics: a write hit dirties the page, a write miss
    /// write-allocates (no disk read — the page is fully overwritten).
    /// Returns `true` when no disk *read* is required.
    ///
    /// Dirty pages displaced along the way accumulate in
    /// [`MemoryManager::take_writebacks`]; the caller must submit them to
    /// the disk as writes.
    pub fn access_rw(&mut self, page: u64, now: f64, write: bool) -> bool {
        self.sweep_disabled(now);
        if self.profiling {
            let distance = self.profiler.observe(page);
            self.log.record(now, page, distance);
        }
        let outcome = self.cache.access(page);
        if write {
            self.cache.mark_dirty(outcome.frame);
        }
        if let Some(dirty) = outcome.writeback {
            self.pending_writebacks.push(dirty);
        }
        let bank = self.cache.bank_of(outcome.frame);
        self.banks
            .record_access(bank as usize, now, self.config.page_mb());
        self.arm_timers(bank, now);
        self.accesses += 1;
        if outcome.hit {
            self.hits += 1;
        } else if !write {
            self.read_misses += 1;
        }
        outcome.hit || write
    }

    /// Read misses so far (disk read traffic; write-allocates excluded).
    pub fn read_misses(&self) -> u64 {
        self.read_misses
    }

    /// Takes the dirty pages displaced since the last call (eviction and
    /// bank-invalidation write-backs). The caller submits them to the disk.
    pub fn take_writebacks(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pending_writebacks)
    }

    /// Flushes every dirty page (the periodic sync / pdflush): clears the
    /// dirty bits and returns the pages, sorted for run coalescing.
    pub fn sync_dirty(&mut self) -> Vec<u64> {
        self.cache.drain_dirty()
    }

    /// Number of currently dirty resident pages.
    pub fn dirty_pages(&self) -> usize {
        self.cache.dirty_pages()
    }

    /// Resizes the enabled-bank count (the joint policy's memory knob),
    /// settling energy at `now`. Shrinking invalidates the disabled banks'
    /// pages.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or exceeds the installed total.
    pub fn set_enabled_banks(&mut self, banks: u32, now: f64) {
        if banks < self.enabled_banks() {
            // Dirty pages in the banks being switched off must be flushed.
            self.pending_writebacks
                .extend(self.cache.dirty_pages_in_banks(banks, self.enabled_banks()));
        }
        self.banks.set_enabled(banks as usize, now);
        self.cache.resize(banks);
    }

    /// Currently enabled banks.
    pub fn enabled_banks(&self) -> u32 {
        self.cache.enabled_banks()
    }

    /// Current disk-cache capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.cache.capacity_pages()
    }

    /// Currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.cache.resident_pages()
    }

    /// Total disk-cache accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Hits (memory accesses) so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses (disk accesses caused) so far.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Settles bank energy up to `now` (call at period ends and at the end
    /// of the simulation).
    pub fn settle(&mut self, now: f64) {
        self.banks.advance_to(now);
    }

    /// Accumulated memory energy (settle first for up-to-date statics).
    pub fn energy(&self) -> MemEnergy {
        self.banks.energy()
    }

    /// Takes the current period's access log, leaving an empty one.
    ///
    /// The profiler itself keeps its history across periods, matching the
    /// paper ("the joint method does not reset the LRU list every period").
    pub fn take_log(&mut self) -> AccessLog {
        std::mem::take(&mut self.log)
    }

    /// Read-only view of the current period's access log.
    pub fn log(&self) -> &AccessLog {
        &self.log
    }

    /// Empties the current period's access log, keeping its buffer for
    /// the next period. The profiler keeps its history, as with
    /// [`MemoryManager::take_log`].
    pub fn clear_log(&mut self) {
        self.log.clear();
    }

    /// Captures the full dynamic state (cache contents, bank clocks,
    /// profiler history, expiry timers, counters) for checkpointing. The
    /// configuration is *not* captured; restore into a manager built with
    /// the same [`MemConfig`].
    pub fn snapshot_state(&self) -> serde::Value {
        MemSnapshot {
            cache: self.cache.clone(),
            banks: self.banks.clone(),
            profiler: self.profiler.clone(),
            log: self.log.clone(),
            // Sorted for a deterministic byte representation; heap order
            // is rebuilt on restore.
            ds_heap: self.ds_heap.clone().into_sorted_vec(),
            timers: self.timers.clone(),
            accesses: self.accesses,
            hits: self.hits,
            consolidate: self.consolidate,
            pages_migrated: self.pages_migrated,
            pending_writebacks: self.pending_writebacks.clone(),
            read_misses: self.read_misses,
        }
        .to_value()
    }

    /// Restores state captured by [`MemoryManager::snapshot_state`] into a
    /// manager built with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns an error when `value` does not decode as a memory snapshot.
    pub fn restore_state(&mut self, value: &serde::Value) -> Result<(), serde::Error> {
        let s = MemSnapshot::from_value(value)?;
        if s.timers.len() != self.timers.len()
            || s.ds_heap.iter().any(|e| e.bank as usize >= s.timers.len())
        {
            return Err(serde::Error::custom(format!(
                "snapshot's disable timers do not fit {} timed banks",
                self.timers.len()
            )));
        }
        self.cache = s.cache;
        self.banks = s.banks;
        self.profiler = s.profiler;
        self.log = s.log;
        self.ds_heap = BinaryHeap::from(s.ds_heap);
        self.timers = s.timers;
        self.accesses = s.accesses;
        self.hits = s.hits;
        self.consolidate = s.consolidate;
        self.pages_migrated = s.pages_migrated;
        self.pending_writebacks = s.pending_writebacks;
        self.read_misses = s.read_misses;
        Ok(())
    }
}

/// Serializable image of a [`MemoryManager`]'s dynamic fields (the heap
/// flattened to a vector — `BinaryHeap` itself has no serde support).
#[derive(Serialize, Deserialize)]
struct MemSnapshot {
    cache: DiskCache,
    banks: BankArray,
    profiler: StackProfiler,
    log: AccessLog,
    ds_heap: Vec<Expiry>,
    timers: Vec<BankTimers>,
    accesses: u64,
    hits: u64,
    consolidate: bool,
    pages_migrated: u64,
    pending_writebacks: Vec<u64>,
    read_misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(policy: IdlePolicy) -> MemConfig {
        MemConfig {
            page_bytes: 1 << 20,
            bank_pages: 4,
            total_banks: 4,
            initial_banks: 4,
            model: RdramModel::default(),
            policy,
        }
    }

    #[test]
    fn hit_miss_counting() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        assert!(!m.access(1, 0.0));
        assert!(m.access(1, 1.0));
        assert!(!m.access(2, 2.0));
        assert_eq!(m.accesses(), 3);
        assert_eq!(m.hits(), 1);
        assert_eq!(m.misses(), 2);
    }

    #[test]
    fn resize_shrinks_capacity_and_invalidates() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        for p in 0..16u64 {
            m.access(p, p as f64);
        }
        assert_eq!(m.resident_pages(), 16);
        m.set_enabled_banks(1, 16.0);
        assert_eq!(m.capacity_pages(), 4);
        assert!(m.resident_pages() <= 4);
    }

    #[test]
    fn disable_policy_invalidates_after_timeout() {
        let mut m = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        assert!(!m.access(1, 0.0));
        assert!(m.access(1, 5.0)); // still cached
                                   // Idle 20 s > timeout: bank expired, page lost.
        assert!(!m.access(1, 25.0), "expired bank must lose its pages");
        // And it is cached again afterwards.
        assert!(m.access(1, 26.0));
    }

    #[test]
    fn disable_expiry_is_per_bank() {
        let mut m = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        m.access(0, 0.0); // bank 0 (frame 0)
                          // Keep bank 0 warm via a second page while letting nothing else age.
        m.access(1, 8.0);
        m.access(0, 16.0); // within 10 s of the bank's last access at 8.0
        assert_eq!(m.hits(), 1, "bank stays alive while any page keeps it warm");
    }

    #[test]
    fn energy_accrues_static_and_dynamic() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        m.access(1, 0.0);
        m.settle(100.0);
        let e = m.energy();
        // 4 banks × 4 MiB... bank_mb = 4 pages × 1 MiB = 4 MB; nap power.
        let expect_static = 4.0 * 4.0 * 0.65625e-3 * 100.0;
        assert!((e.static_j - expect_static).abs() < 1e-6);
        assert!((e.dynamic_j - RdramModel::default().dynamic_j_per_mb()).abs() < 1e-12);
    }

    #[test]
    fn take_log_resets_but_profiler_persists() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        m.access(1, 0.0);
        let log = m.take_log();
        assert_eq!(log.len(), 1);
        assert!(m.log().is_empty());
        // Second access to the same page is *not* cold: the profiler kept
        // its history across the period boundary.
        m.access(1, 1.0);
        assert_eq!(
            m.log().entries()[0].distance,
            crate::StackDistance::Position(1)
        );
    }

    #[test]
    fn clear_log_keeps_the_buffer_and_the_profiler() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        for page in 0..8 {
            m.access(page, page as f64);
        }
        let buffer = m.log().entries().as_ptr();
        m.clear_log();
        assert!(m.log().is_empty());
        m.access(7, 9.0);
        assert_eq!(m.log().entries().as_ptr(), buffer, "the buffer is reused");
        assert_eq!(
            m.log().entries()[0].distance,
            crate::StackDistance::Position(1)
        );
    }

    #[test]
    fn initial_banks_respected() {
        let mut cfg = config(IdlePolicy::Nap);
        cfg.initial_banks = 2;
        let m = MemoryManager::new(cfg);
        assert_eq!(m.enabled_banks(), 2);
        assert_eq!(m.capacity_pages(), 8);
    }

    #[test]
    #[should_panic(expected = "initial_banks")]
    fn zero_initial_banks_panics() {
        let mut cfg = config(IdlePolicy::Nap);
        cfg.initial_banks = 0;
        let _ = MemoryManager::new(cfg);
    }

    /// Fills bank 0 with pages 1..=4 at t = 0 (frames pop lowest-first),
    /// so the bank's consolidation timer (half of 10 s) is armed at t = 5.
    fn fill_bank0(m: &mut MemoryManager) {
        for p in 1..=4u64 {
            m.access(p, 0.0);
        }
    }

    #[test]
    fn consolidation_preserves_data_across_disable() {
        let mut m = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        m.set_consolidation(true);
        fill_bank0(&mut m);
        // An unrelated access at t = 6 drives the sweep: bank 0's
        // consolidation entry (t = 5) fires and evacuates it.
        m.access(500, 6.0);
        assert_eq!(m.pages_migrated(), 4, "all four pages must migrate");
        // Past bank 0's disable timeout, the pages are still hits because
        // they live in other banks now.
        assert!(
            m.access(1, 12.0),
            "migrated page must survive the source bank's expiry"
        );
        assert!(m.access(4, 12.5));
    }

    #[test]
    fn consolidation_charges_migration_energy() {
        let mut a = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        a.set_consolidation(true);
        let mut b = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        for m in [&mut a, &mut b] {
            fill_bank0(m);
            m.access(500, 6.0);
            m.settle(6.0);
        }
        assert!(
            a.energy().dynamic_j > b.energy().dynamic_j,
            "migration must cost dynamic energy"
        );
        assert_eq!(a.pages_migrated(), 4);
        assert_eq!(b.pages_migrated(), 0);
    }

    #[test]
    fn consolidation_off_by_default_loses_data() {
        let mut m = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        fill_bank0(&mut m);
        m.access(500, 6.0);
        assert!(!m.access(1, 12.0), "without consolidation the page is lost");
    }

    #[test]
    fn cascade_policy_loses_data_at_second_threshold_only() {
        let mut m = MemoryManager::new(config(IdlePolicy::Cascade {
            pd_after: 2.0,
            disable_after: 10.0,
        }));
        m.access(1, 0.0);
        // Past the PD threshold but before disable: data retained.
        assert!(m.access(1, 5.0));
        // Past the disable threshold since the refresh at t = 5: lost.
        assert!(!m.access(1, 16.0));
    }

    #[test]
    fn replacement_pass_through() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        m.set_replacement(crate::Replacement::BankAware);
        // Smoke: accesses still behave.
        assert!(!m.access(1, 0.0));
        assert!(m.access(1, 1.0));
    }

    #[test]
    fn write_miss_allocates_without_disk_read() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        assert!(m.access_rw(1, 0.0, true), "write miss needs no disk read");
        assert_eq!(m.read_misses(), 0);
        assert_eq!(m.dirty_pages(), 1);
        // A read of the same page now hits.
        assert!(m.access(1, 1.0));
    }

    #[test]
    fn eviction_of_dirty_page_queues_writeback() {
        // 1-bank cache (4 frames): fill with dirty pages, then overflow.
        let mut cfg = config(IdlePolicy::Nap);
        cfg.total_banks = 1;
        cfg.initial_banks = 1;
        let mut m = MemoryManager::new(cfg);
        for p in 0..4u64 {
            m.access_rw(p, p as f64, true);
        }
        assert!(m.take_writebacks().is_empty());
        m.access(10, 5.0); // evicts dirty page 0
        let wb = m.take_writebacks();
        assert_eq!(wb, vec![0]);
        assert!(m.take_writebacks().is_empty(), "drained");
    }

    #[test]
    fn sync_flushes_and_clears_dirty() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        m.access_rw(3, 0.0, true);
        m.access_rw(1, 0.0, true);
        m.access_rw(2, 0.0, false);
        assert_eq!(m.sync_dirty(), vec![1, 3]);
        assert_eq!(m.dirty_pages(), 0);
        assert!(m.sync_dirty().is_empty());
    }

    #[test]
    fn disable_expiry_flushes_dirty_pages() {
        let mut m = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        for p in 1..=4u64 {
            m.access_rw(p, 0.0, true); // bank 0, all dirty
        }
        // Past the timeout: the sweep invalidates bank 0 and must queue
        // the dirty pages for write-back rather than losing them.
        m.access(500, 12.0);
        let mut wb = m.take_writebacks();
        wb.sort_unstable();
        assert_eq!(wb, vec![1, 2, 3, 4]);
    }

    #[test]
    fn shrink_flushes_dirty_pages_of_disabled_banks() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        // Fill all 16 frames; the last 4 (bank 3) dirty.
        for p in 0..12u64 {
            m.access(p, 0.0);
        }
        for p in 12..16u64 {
            m.access_rw(p, 0.0, true);
        }
        m.set_enabled_banks(3, 1.0);
        let mut wb = m.take_writebacks();
        wb.sort_unstable();
        assert_eq!(wb, vec![12, 13, 14, 15]);
    }

    #[test]
    fn snapshot_round_trip_resumes_identically() {
        let mut a = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        a.set_consolidation(true);
        for p in 0..10u64 {
            a.access_rw(p, p as f64 * 0.5, p % 3 == 0);
        }
        let snap = a.snapshot_state();
        let mut b = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        b.restore_state(&snap).unwrap();
        // Both managers must behave identically from here on.
        for p in [1u64, 50, 2, 1, 60] {
            assert_eq!(a.access(p, 20.0), b.access(p, 20.0));
        }
        assert_eq!(a.accesses(), b.accesses());
        assert_eq!(a.hits(), b.hits());
        assert_eq!(a.take_writebacks(), b.take_writebacks());
        a.settle(30.0);
        b.settle(30.0);
        assert_eq!(a.energy().static_j.to_bits(), b.energy().static_j.to_bits());
        assert_eq!(
            a.energy().dynamic_j.to_bits(),
            b.energy().dynamic_j.to_bits()
        );
    }

    #[test]
    fn disable_timers_queue_at_most_one_heap_entry_per_bank_and_kind() {
        for consolidate in [false, true] {
            let mut m = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
            m.set_consolidation(consolidate);
            let kinds = if consolidate { 2 } else { 1 };
            for i in 0..5000u64 {
                // Idle gaps past the timeout every 1000 accesses, so
                // timers fire and re-arm as well as pile up.
                let now = i as f64 * 0.01 + (i / 1000) as f64 * 15.0;
                m.access_rw(i * 7 % 23, now, i % 5 == 0);
                let mut per_bank = [0; 4];
                for e in &m.ds_heap {
                    per_bank[e.bank as usize] += 1;
                }
                assert!(
                    per_bank.iter().all(|&n| n <= kinds),
                    "consolidate {consolidate}, access {i}: {per_bank:?} entries per bank"
                );
            }
        }
    }

    #[test]
    fn policies_without_a_disable_timeout_keep_no_timers() {
        let mut m = MemoryManager::new(config(IdlePolicy::PowerDownAfter(1e-4)));
        for i in 0..100u64 {
            m.access(i % 9, i as f64);
        }
        assert!(m.timers.is_empty() && m.ds_heap.is_empty());
    }

    #[test]
    fn profiling_off_leaves_the_profiler_and_log_empty() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        m.set_profiling(false);
        for p in [1u64, 2, 1, 3] {
            m.access(p, 0.0);
        }
        assert_eq!(m.hits(), 1, "the cache itself still runs");
        assert!(m.take_log().is_empty());
        assert_eq!(m.profiler.distinct_pages(), 0);
    }

    #[test]
    fn stale_expiry_entries_are_ignored() {
        let mut m = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        m.access(1, 0.0);
        m.access(1, 5.0); // re-arms the bank; first heap entry now stale
                          // At t = 12 the stale entry (expiry 10) fires but must not
                          // invalidate: the bank was touched at 5.0 and expires at 15.
        assert!(m.access(1, 12.0));
    }
}
