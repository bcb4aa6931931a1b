use std::collections::HashMap;

const NONE: u32 = u32::MAX;

/// Replacement policy of the [`DiskCache`].
///
/// The paper's baseline is global LRU (the Linux page cache it modifies).
/// [`Replacement::BankAware`] is the power-aware alternative studied in
/// the related work (Zhu et al. \[6\]; PB-LRU \[36\]): on eviction it victimizes
/// the least-recently-used page of the **coldest bank**, concentrating the
/// live working set into fewer banks so that timeout-managed banks
/// (power-down/disable) reach their idle thresholds sooner. It may raise
/// the miss rate slightly — "lower miss rates do not necessarily save more
/// disk energy" is exactly the effect the `replacement` ablation measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Replacement {
    /// Evict the globally least-recently-used page.
    #[default]
    GlobalLru,
    /// Evict the LRU page of the coldest (least-recently-touched) bank.
    BankAware,
}

/// Result of a [`DiskCache::access`]: whether the page was resident, and
/// which frame now holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// True when the page was already resident (a memory access); false
    /// when it had to be loaded (a disk access).
    pub hit: bool,
    /// Frame index now holding the page. Divide by the bank's page count
    /// to get the bank.
    pub frame: u32,
    /// A dirty page that was evicted to make room and must be written
    /// back to the disk (write-back caching).
    pub writeback: Option<u64>,
}

#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
struct Frame {
    page: u64,
    occupied: bool,
    /// Modified since it was loaded; must reach the disk before the page
    /// may be dropped.
    dirty: bool,
    prev: u32,
    next: u32,
    /// Logical access counter stamp of the last touch (for bank-aware
    /// eviction).
    stamp: u64,
}

/// An LRU disk cache over physical page frames, resizable in bank units.
///
/// This is the simulator counterpart of the Linux page cache the paper
/// modifies (§V-A): global LRU replacement over the *resident* pages, plus
/// bank-granular invalidation ("when a memory bank is turned off, all pages
/// in the same bank are invalidated"). Frames are laid out bank-major:
/// frame `f` belongs to bank `f / bank_pages`, and resizing to `k` banks
/// makes exactly frames `0..k·bank_pages` usable.
///
/// The *predictive* side of the paper's extended LRU list (replaced pages +
/// position counters) lives in [`StackProfiler`](crate::StackProfiler);
/// this type models what the hardware actually holds, including the
/// deviations from pure LRU that bank invalidation causes.
///
/// # Example
///
/// ```
/// use jpmd_mem::DiskCache;
///
/// let mut cache = DiskCache::new(2, 4); // 2 banks × 4 pages
/// assert!(!cache.access(7).hit);  // cold
/// assert!(cache.access(7).hit);   // now resident
/// cache.resize(1);                // drop to one bank
/// assert!(cache.capacity_pages() == 4);
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DiskCache {
    frames: Vec<Frame>,
    map: HashMap<u64, u32>,
    free: Vec<u32>,
    /// Most-recently-used frame.
    head: u32,
    /// Least-recently-used frame.
    tail: u32,
    bank_pages: u32,
    enabled_banks: u32,
    total_banks: u32,
    replacement: Replacement,
    /// Logical access counter (monotone per access).
    clock: u64,
    /// Per-bank stamp of the most recent touch.
    bank_stamp: Vec<u64>,
}

impl DiskCache {
    /// Creates a cache of `total_banks` banks with `bank_pages` frames
    /// each, all banks enabled.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(total_banks: u32, bank_pages: u32) -> Self {
        assert!(total_banks > 0 && bank_pages > 0, "cache must be non-empty");
        let n = (total_banks * bank_pages) as usize;
        let frames = vec![
            Frame {
                page: 0,
                occupied: false,
                dirty: false,
                prev: NONE,
                next: NONE,
                stamp: 0,
            };
            n
        ];
        // LIFO free list: low frames (low banks) get used first.
        let free = (0..n as u32).rev().collect();
        Self {
            frames,
            map: HashMap::new(),
            free,
            head: NONE,
            tail: NONE,
            bank_pages,
            enabled_banks: total_banks,
            total_banks,
            replacement: Replacement::GlobalLru,
            clock: 0,
            bank_stamp: vec![0; total_banks as usize],
        }
    }

    /// Selects the replacement policy (default: global LRU).
    pub fn set_replacement(&mut self, replacement: Replacement) {
        self.replacement = replacement;
    }

    /// The replacement policy in force.
    pub fn replacement(&self) -> Replacement {
        self.replacement
    }

    /// Current capacity in pages (`enabled_banks × bank_pages`).
    pub fn capacity_pages(&self) -> u64 {
        self.enabled_banks as u64 * self.bank_pages as u64
    }

    /// Number of currently enabled banks.
    pub fn enabled_banks(&self) -> u32 {
        self.enabled_banks
    }

    /// Total banks (ceiling for [`DiskCache::resize`]).
    pub fn total_banks(&self) -> u32 {
        self.total_banks
    }

    /// Frames per bank.
    pub fn bank_pages(&self) -> u32 {
        self.bank_pages
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.map.len()
    }

    /// Whether `page` is resident (does not touch recency).
    pub fn contains(&self, page: u64) -> bool {
        self.map.contains_key(&page)
    }

    /// Bank of a frame.
    pub fn bank_of(&self, frame: u32) -> u32 {
        frame / self.bank_pages
    }

    fn unlink(&mut self, f: u32) {
        let (prev, next) = {
            let fr = &self.frames[f as usize];
            (fr.prev, fr.next)
        };
        if prev != NONE {
            self.frames[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.frames[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.frames[f as usize].prev = NONE;
        self.frames[f as usize].next = NONE;
    }

    fn push_front(&mut self, f: u32) {
        self.frames[f as usize].prev = NONE;
        self.frames[f as usize].next = self.head;
        if self.head != NONE {
            self.frames[self.head as usize].prev = f;
        }
        self.head = f;
        if self.tail == NONE {
            self.tail = f;
        }
    }

    /// Accesses `page`: a hit refreshes recency; a miss loads the page,
    /// evicting the LRU page if no frame is free. A dirty eviction victim
    /// is reported through [`CacheAccess::writeback`].
    pub fn access(&mut self, page: u64) -> CacheAccess {
        self.clock += 1;
        if let Some(&f) = self.map.get(&page) {
            self.unlink(f);
            self.push_front(f);
            self.touch(f);
            return CacheAccess {
                hit: true,
                frame: f,
                writeback: None,
            };
        }
        let mut writeback = None;
        let f = match self.free.pop() {
            Some(f) => f,
            None => {
                let victim = self.pick_victim();
                debug_assert_ne!(victim, NONE, "no free frame and empty LRU list");
                if self.frames[victim as usize].dirty {
                    writeback = Some(self.frames[victim as usize].page);
                }
                self.evict_frame(victim);
                victim
            }
        };
        self.frames[f as usize].page = page;
        self.frames[f as usize].occupied = true;
        self.frames[f as usize].dirty = false;
        self.map.insert(page, f);
        self.push_front(f);
        self.touch(f);
        CacheAccess {
            hit: false,
            frame: f,
            writeback,
        }
    }

    /// Marks the page held by `frame` as modified (write-back caching).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn mark_dirty(&mut self, frame: u32) {
        assert!((frame as usize) < self.frames.len(), "frame out of range");
        debug_assert!(self.frames[frame as usize].occupied);
        self.frames[frame as usize].dirty = true;
    }

    /// Number of dirty resident pages.
    pub fn dirty_pages(&self) -> usize {
        self.frames.iter().filter(|f| f.occupied && f.dirty).count()
    }

    /// Clears every dirty bit and returns the pages that were dirty,
    /// sorted ascending (so the caller can coalesce contiguous runs into
    /// disk write requests) — the periodic sync / pdflush operation.
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let mut pages = Vec::new();
        for f in &mut self.frames {
            if f.occupied && f.dirty {
                f.dirty = false;
                pages.push(f.page);
            }
        }
        pages.sort_unstable();
        pages
    }

    /// Dirty pages currently resident in `banks_lo..banks_hi`, sorted —
    /// callers flush these before invalidating or disabling those banks.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the installed banks.
    pub fn dirty_pages_in_banks(&self, banks_lo: u32, banks_hi: u32) -> Vec<u64> {
        assert!(banks_hi <= self.total_banks && banks_lo <= banks_hi);
        let lo = (banks_lo * self.bank_pages) as usize;
        let hi = (banks_hi * self.bank_pages) as usize;
        let mut pages: Vec<u64> = self.frames[lo..hi]
            .iter()
            .filter(|f| f.occupied && f.dirty)
            .map(|f| f.page)
            .collect();
        pages.sort_unstable();
        pages
    }

    fn touch(&mut self, frame: u32) {
        let bank = self.bank_of(frame) as usize;
        self.frames[frame as usize].stamp = self.clock;
        self.bank_stamp[bank] = self.clock;
    }

    /// Picks the eviction victim per the replacement policy.
    fn pick_victim(&self) -> u32 {
        match self.replacement {
            Replacement::GlobalLru => self.tail,
            Replacement::BankAware => {
                // Coldest enabled bank with any occupied frame…
                let mut best_bank = NONE;
                let mut best_stamp = u64::MAX;
                for bank in 0..self.enabled_banks {
                    let lo = (bank * self.bank_pages) as usize;
                    let hi = lo + self.bank_pages as usize;
                    if self.frames[lo..hi].iter().any(|fr| fr.occupied)
                        && self.bank_stamp[bank as usize] < best_stamp
                    {
                        best_stamp = self.bank_stamp[bank as usize];
                        best_bank = bank;
                    }
                }
                if best_bank == NONE {
                    return self.tail;
                }
                // …and its LRU (oldest-stamp) occupied frame.
                let lo = best_bank * self.bank_pages;
                let mut victim = NONE;
                let mut oldest = u64::MAX;
                for f in lo..lo + self.bank_pages {
                    let fr = &self.frames[f as usize];
                    if fr.occupied && fr.stamp < oldest {
                        oldest = fr.stamp;
                        victim = f;
                    }
                }
                victim
            }
        }
    }

    /// Removes the page held by `frame` (which must be occupied) from the
    /// map and LRU list; the frame is left unoccupied but **not** returned
    /// to the free list.
    fn evict_frame(&mut self, frame: u32) {
        let page = self.frames[frame as usize].page;
        self.unlink(frame);
        self.frames[frame as usize].occupied = false;
        self.frames[frame as usize].dirty = false;
        self.map.remove(&page);
    }

    /// Invalidates every resident page in `bank` (paper: disabling a bank
    /// invalidates its pages). Returns the number of pages dropped. The
    /// freed frames become available again if the bank is enabled.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn invalidate_bank(&mut self, bank: u32) -> usize {
        assert!(bank < self.total_banks, "bank out of range");
        let lo = bank * self.bank_pages;
        let hi = lo + self.bank_pages;
        let mut dropped = 0;
        for f in lo..hi {
            if self.frames[f as usize].occupied {
                self.evict_frame(f);
                dropped += 1;
                // Unoccupied frames are already in the free list (or the
                // bank is disabled); only the just-evicted ones return.
                if bank < self.enabled_banks {
                    self.free.push(f);
                }
            }
        }
        dropped
    }

    /// Evacuates `bank`: moves its resident pages into free frames of
    /// *other* enabled banks (lowest frame first, i.e. the busiest end of
    /// the cache), preserving each page's position in the LRU order.
    /// Returns the destination frames of the moved pages; pages that found
    /// no free frame stay put.
    ///
    /// This is the consolidation primitive of power-aware cache
    /// management (related work \[6\], \[36\]): draining a nearly-idle bank
    /// lets a `DisableAfter` policy turn it off **without** losing data —
    /// trading a little memory-copy energy for avoided disk reloads.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn evacuate_bank(&mut self, bank: u32) -> Vec<u32> {
        assert!(bank < self.total_banks, "bank out of range");
        let lo = bank * self.bank_pages;
        let hi = lo + self.bank_pages;
        // Free frames outside the bank, busiest (lowest) first.
        let mut destinations: Vec<u32> = self
            .free
            .iter()
            .copied()
            .filter(|&f| f < lo || f >= hi)
            .collect();
        destinations.sort_unstable_by(|a, b| b.cmp(a)); // pop() yields lowest
        let mut moved = Vec::new();
        for src in lo..hi {
            if !self.frames[src as usize].occupied {
                continue;
            }
            let Some(dst) = destinations.pop() else { break };
            self.free.retain(|&f| f != dst);
            // Take over the source's identity: page, stamp, and LRU links.
            let src_frame = self.frames[src as usize];
            self.frames[dst as usize] = Frame {
                page: src_frame.page,
                occupied: true,
                dirty: src_frame.dirty,
                prev: src_frame.prev,
                next: src_frame.next,
                stamp: src_frame.stamp,
            };
            if src_frame.prev != NONE {
                self.frames[src_frame.prev as usize].next = dst;
            } else {
                self.head = dst;
            }
            if src_frame.next != NONE {
                self.frames[src_frame.next as usize].prev = dst;
            } else {
                self.tail = dst;
            }
            self.map.insert(src_frame.page, dst);
            self.frames[src as usize].occupied = false;
            self.frames[src as usize].dirty = false;
            self.frames[src as usize].prev = NONE;
            self.frames[src as usize].next = NONE;
            // The drained frame returns to the cold end of the free list
            // so future fills prefer already-warm banks.
            self.free.insert(0, src);
            let dst_bank = self.bank_of(dst) as usize;
            if self.frames[dst as usize].stamp > self.bank_stamp[dst_bank] {
                self.bank_stamp[dst_bank] = self.frames[dst as usize].stamp;
            }
            moved.push(dst);
        }
        moved
    }

    /// Resizes to `enabled_banks` banks.
    ///
    /// Shrinking invalidates all pages in the disabled banks and removes
    /// their frames from the free pool; growing adds empty frames. Returns
    /// the number of pages invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `enabled_banks` is zero or exceeds the total.
    pub fn resize(&mut self, enabled_banks: u32) -> usize {
        assert!(
            enabled_banks >= 1 && enabled_banks <= self.total_banks,
            "enabled banks must be in 1..=total"
        );
        let old = self.enabled_banks;
        let mut dropped = 0;
        if enabled_banks < old {
            let cutoff = enabled_banks * self.bank_pages;
            for bank in enabled_banks..old {
                let lo = bank * self.bank_pages;
                for f in lo..lo + self.bank_pages {
                    if self.frames[f as usize].occupied {
                        self.evict_frame(f);
                        dropped += 1;
                    }
                }
            }
            self.free.retain(|&f| f < cutoff);
        } else {
            for bank in old..enabled_banks {
                let lo = bank * self.bank_pages;
                // Reverse so lower frames are popped first.
                for f in (lo..lo + self.bank_pages).rev() {
                    debug_assert!(!self.frames[f as usize].occupied);
                    self.free.push(f);
                }
            }
        }
        self.enabled_banks = enabled_banks;
        dropped
    }

    /// Iterator over resident pages in LRU order (most recent first);
    /// intended for tests and diagnostics.
    pub fn iter_lru(&self) -> impl Iterator<Item = u64> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NONE {
                None
            } else {
                let f = &self.frames[cur as usize];
                cur = f.next;
                Some(f.page)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn hit_after_load() {
        let mut c = DiskCache::new(1, 4);
        assert!(!c.access(1).hit);
        assert!(c.access(1).hit);
        assert_eq!(c.resident_pages(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = DiskCache::new(1, 3);
        c.access(1);
        c.access(2);
        c.access(3);
        c.access(1); // refresh 1; LRU order now 1,3,2
        assert!(!c.access(4).hit); // evicts 2
        assert!(c.contains(1));
        assert!(c.contains(3));
        assert!(!c.contains(2));
    }

    #[test]
    fn iter_lru_most_recent_first() {
        let mut c = DiskCache::new(1, 4);
        for p in [1u64, 2, 3] {
            c.access(p);
        }
        let order: Vec<u64> = c.iter_lru().collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn shrink_invalidates_high_banks() {
        let mut c = DiskCache::new(2, 2);
        for p in [1u64, 2, 3, 4] {
            c.access(p);
        }
        assert_eq!(c.resident_pages(), 4);
        let dropped = c.resize(1);
        assert_eq!(dropped, 2);
        assert_eq!(c.resident_pages(), 2);
        assert_eq!(c.capacity_pages(), 2);
        // Pages 1 and 2 went to frames 0 and 1 (bank 0) and survive.
        assert!(c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn grow_restores_capacity() {
        let mut c = DiskCache::new(2, 2);
        c.resize(1);
        c.access(1);
        c.access(2);
        assert!(!c.access(3).hit); // evicts within 1 bank
        assert_eq!(c.resident_pages(), 2);
        c.resize(2);
        c.access(4);
        c.access(5);
        assert_eq!(c.resident_pages(), 4);
    }

    #[test]
    fn invalidate_bank_drops_only_that_bank() {
        let mut c = DiskCache::new(2, 2);
        for p in [1u64, 2, 3, 4] {
            c.access(p);
        }
        let dropped = c.invalidate_bank(0);
        assert_eq!(dropped, 2);
        assert!(!c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert!(c.contains(4));
        // Freed frames are reusable: next two misses fill bank 0 again.
        c.access(5);
        c.access(6);
        assert_eq!(c.resident_pages(), 4);
    }

    #[test]
    fn invalidate_then_reaccess_is_miss() {
        let mut c = DiskCache::new(2, 2);
        c.access(1);
        c.invalidate_bank(0);
        assert!(!c.access(1).hit);
    }

    #[test]
    #[should_panic(expected = "1..=total")]
    fn resize_zero_panics() {
        let mut c = DiskCache::new(2, 2);
        c.resize(0);
    }

    #[test]
    fn frame_to_bank_mapping() {
        let c = DiskCache::new(4, 8);
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(7), 0);
        assert_eq!(c.bank_of(8), 1);
        assert_eq!(c.bank_of(31), 3);
    }

    #[test]
    fn bank_aware_evicts_from_coldest_bank() {
        // Frames fill lowest-first: pages 1,2,3,5 land in bank 0 and
        // 6,7,8,4 in bank 1. Re-touching page 1 makes bank 0 the warm
        // bank while leaving page 2 the *global* LRU page (in bank 0).
        let seq = [1u64, 2, 3, 5, 6, 7, 8, 4, 1];
        let mut c = DiskCache::new(2, 4);
        c.set_replacement(Replacement::BankAware);
        for p in seq {
            c.access(p);
        }
        c.access(9); // miss, cache full
        assert!(
            !c.contains(6),
            "bank-aware must evict the cold bank's LRU page"
        );
        assert!(c.contains(2), "global LRU page in the warm bank survives");

        // Global LRU control: same sequence evicts page 2 instead.
        let mut g = DiskCache::new(2, 4);
        for p in seq {
            g.access(p);
        }
        g.access(9);
        assert!(!g.contains(2));
        assert!(g.contains(6));
    }

    #[test]
    fn evacuate_moves_pages_and_keeps_them_resident() {
        let mut c = DiskCache::new(4, 2);
        // Occupy bank 0 fully (frames 0, 1); banks 1..3 free.
        c.access(10);
        c.access(11);
        let moved = c.evacuate_bank(0);
        assert_eq!(moved.len(), 2);
        assert!(c.contains(10) && c.contains(11));
        // The pages now live outside bank 0.
        for page in [10u64, 11] {
            let f = c.access(page).frame;
            assert_ne!(c.bank_of(f), 0, "page {page} must have left bank 0");
        }
        // Bank 0 can now be invalidated without losing anything.
        assert_eq!(c.invalidate_bank(0), 0);
        assert_eq!(c.resident_pages(), 2);
    }

    #[test]
    fn evacuate_preserves_lru_order() {
        let mut c = DiskCache::new(4, 2);
        for p in [1u64, 2, 3] {
            c.access(p);
        }
        let before: Vec<u64> = c.iter_lru().collect();
        c.evacuate_bank(0);
        let after: Vec<u64> = c.iter_lru().collect();
        assert_eq!(before, after, "evacuation must not disturb recency");
    }

    #[test]
    fn evacuate_with_no_free_destinations_is_noop() {
        let mut c = DiskCache::new(2, 2);
        for p in 0..4u64 {
            c.access(p); // cache full
        }
        assert!(c.evacuate_bank(0).is_empty());
        assert_eq!(c.resident_pages(), 4);
    }

    #[test]
    fn evacuated_frames_are_reused_last() {
        let mut c = DiskCache::new(3, 2);
        c.access(1);
        c.access(2); // bank 0 full
        c.evacuate_bank(0); // pages move to bank 1
                            // Next fills should prefer bank 1's remaining frame / bank 2 over
                            // re-warming the drained bank 0.
        let f = c.access(30).frame;
        assert_ne!(c.bank_of(f), 0, "drained bank must be refilled last");
    }

    /// Reference model: plain LRU over a capacity, no banks.
    fn naive_lru(accesses: &[u64], capacity: usize) -> Vec<bool> {
        let mut order: VecDeque<u64> = VecDeque::new();
        let mut hits = Vec::new();
        for &p in accesses {
            if let Some(pos) = order.iter().position(|&q| q == p) {
                order.remove(pos);
                order.push_front(p);
                hits.push(true);
            } else {
                if order.len() == capacity {
                    order.pop_back();
                }
                order.push_front(p);
                hits.push(false);
            }
        }
        hits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn matches_naive_lru_without_resizes(
            accesses in proptest::collection::vec(0u64..24, 1..300),
            banks in 1u32..4,
            bank_pages in 1u32..6,
        ) {
            let mut c = DiskCache::new(banks, bank_pages);
            let expect = naive_lru(&accesses, (banks * bank_pages) as usize);
            for (&p, &e) in accesses.iter().zip(&expect) {
                prop_assert_eq!(c.access(p).hit, e);
            }
        }

        #[test]
        fn residents_never_exceed_capacity(
            ops in proptest::collection::vec((0u64..64, 1u32..4), 1..200),
        ) {
            let mut c = DiskCache::new(4, 4);
            for (p, new_banks) in ops {
                c.access(p);
                c.resize(new_banks);
                prop_assert!(c.resident_pages() as u64 <= c.capacity_pages());
            }
        }

        #[test]
        fn map_and_frames_stay_consistent(
            ops in proptest::collection::vec((0u64..32, 1u32..5), 1..200),
        ) {
            let mut c = DiskCache::new(4, 3);
            for (p, new_banks) in ops {
                c.access(p);
                if p % 3 == 0 {
                    c.invalidate_bank((p % 4) as u32);
                }
                c.resize(new_banks);
                // Every page in the LRU walk must be in the map and within
                // the enabled frame range.
                let walked: Vec<u64> = c.iter_lru().collect();
                prop_assert_eq!(walked.len(), c.resident_pages());
                for q in walked {
                    prop_assert!(c.contains(q));
                }
            }
        }
    }
}
