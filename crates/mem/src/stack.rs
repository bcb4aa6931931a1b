use std::collections::hash_map::{Entry, HashMap};

use serde::{Deserialize, Serialize};

use crate::fenwick::SlotMarks;

/// LRU stack distance of one disk-cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StackDistance {
    /// First-ever access to this page; a miss at every memory size
    /// ("these disk accesses cannot be avoided by changing the memory
    /// size", paper §IV-B).
    Cold,
    /// 1-based position in the (unbounded) LRU stack: the access hits in
    /// any LRU cache of at least this many pages.
    Position(u64),
}

impl StackDistance {
    /// Whether this access misses in an LRU cache of `capacity_pages`.
    pub fn misses_at(&self, capacity_pages: u64) -> bool {
        match *self {
            StackDistance::Cold => true,
            StackDistance::Position(p) => p > capacity_pages,
        }
    }
}

/// The paper's *extended LRU list* (resident + replaced pages with
/// per-position counters, §IV-B), implemented as an exact stack-distance
/// profiler.
///
/// Mattson's inclusion property makes the LRU stack position of each access
/// a complete summary: an access at position `d` hits in every LRU cache of
/// `≥ d` pages and misses in every smaller one. Recording positions for one
/// period therefore predicts the number of disk accesses *at every candidate
/// memory size simultaneously*, without re-running the workload — exactly
/// what the joint power manager needs.
///
/// The implementation is the Bennett–Kruskal algorithm: a bitset over
/// access slots marks, for each distinct page, its most recent access; the
/// stack position of a re-access is one plus the number of marks after the
/// page's previous slot. A Fenwick tree over the count of each 64-slot word
/// counts them: one tree query over the earlier words plus one popcount.
/// An access costs one hash lookup, that count, and two bit flips, each
/// walking one tree path of log₂(slots / 64) levels. When the slots run
/// out, one linear pass re-packs the marks to the front.
///
/// Memory is O(distinct pages): each page gets a dense id on first sight,
/// and every table is indexed by id or slot, never by page number, so
/// page 2⁶³ costs what page 0 does. Each slot costs 1.5 bits of marks (its
/// bit, plus a 4-byte count per 64 slots) and 4 bytes of slot → id table,
/// and there are one to two slots per distinct page.
///
/// # Example
///
/// The paper's Fig. 3 example — ten accesses to pages
/// (1, 2, 3, 5, 2, 1, 4, 6, 5, 2) — yields counters (0,0,1,1,2,0,0,0):
///
/// ```
/// use jpmd_mem::{StackDistance, StackProfiler};
///
/// let mut p = StackProfiler::new();
/// let mut hits_at_4 = 0;
/// for page in [1u64, 2, 3, 5, 2, 1, 4, 6, 5, 2] {
///     if !p.observe(page).misses_at(4) {
///         hits_at_4 += 1;
///     }
/// }
/// assert_eq!(hits_at_4, 2); // eight disk accesses with 4-page memory
/// ```
#[derive(Debug, Clone)]
pub struct StackProfiler {
    /// Dense id of every page seen, in first-seen order.
    ids: HashMap<u64, u32>,
    /// Most recent slot of each id.
    slot_of: Vec<u32>,
    /// The id accessed in each slot; its length is the next free slot.
    id_at: Vec<u32>,
    /// Marks the slots that are currently "most recent" for some page.
    marks: SlotMarks,
}

/// Slots a fresh or lightly used profiler starts with.
const MIN_SLOTS: usize = 1024;

/// Most distinct pages a profiler tracks: twice as many slots must still
/// fit its `u32` tables.
const MAX_DISTINCT: usize = (u32::MAX / 2) as usize;

impl Default for StackProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl StackProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self {
            ids: HashMap::new(),
            slot_of: Vec::new(),
            id_at: Vec::new(),
            marks: SlotMarks::new(MIN_SLOTS),
        }
    }

    /// A profiler whose stack holds `recency`, least recent first.
    fn from_recency(recency: &[u64]) -> Result<Self, serde::Error> {
        let n = recency.len();
        if n > MAX_DISTINCT {
            return Err(serde::Error::custom(format!(
                "an LRU stack of {n} pages exceeds the profiler's {MAX_DISTINCT}"
            )));
        }
        let mut ids = HashMap::with_capacity(n);
        for (id, &page) in recency.iter().enumerate() {
            if ids.insert(page, id as u32).is_some() {
                return Err(serde::Error::custom(format!(
                    "page {page} appears twice in the LRU stack"
                )));
            }
        }
        let ordered: Vec<u32> = (0..n as u32).collect();
        let slots = Self::slots_for(n);
        let mut id_at = Vec::with_capacity(slots);
        id_at.extend_from_slice(&ordered);
        Ok(Self {
            ids,
            slot_of: ordered,
            id_at,
            marks: SlotMarks::with_ones(slots, n),
        })
    }

    /// Number of distinct pages seen so far.
    pub fn distinct_pages(&self) -> usize {
        self.slot_of.len()
    }

    /// Observes one access and returns its stack distance.
    ///
    /// # Panics
    ///
    /// Panics past 2³¹ − 1 distinct pages, whose slots would not fit the
    /// profiler's `u32` tables.
    pub fn observe(&mut self, page: u64) -> StackDistance {
        if self.id_at.len() == self.marks.len() {
            self.compact();
        }
        let slot = self.id_at.len();
        let distinct = self.slot_of.len();
        let (id, distance) = match self.ids.entry(page) {
            Entry::Vacant(entry) => {
                entry.insert(distinct as u32);
                self.slot_of.push(slot as u32);
                (distinct as u32, StackDistance::Cold)
            }
            Entry::Occupied(entry) => {
                let id = *entry.get();
                let prev = std::mem::replace(&mut self.slot_of[id as usize], slot as u32) as usize;
                // Every mark lies before `slot`, so the pages touched since
                // `prev` are the marks after it.
                let after = distinct as u64 - self.marks.count_through(prev);
                self.marks.clear(prev);
                (id, StackDistance::Position(after + 1))
            }
        };
        self.id_at.push(id);
        self.marks.set(slot);
        distance
    }

    /// Drops all history (the joint method deliberately does **not** do
    /// this between periods — "the joint method does not reset the LRU list
    /// every period", §V-C — but tests and fresh simulations do).
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Slots to provide for `distinct` pages: room for as many accesses
    /// again before the next compaction, in whole words of the marks.
    fn slots_for(distinct: usize) -> usize {
        (2 * distinct).max(MIN_SLOTS).next_multiple_of(64)
    }

    /// Re-packs the marked slots to `0..distinct`, keeping recency order,
    /// in one pass: slot `s` survives iff it is its id's most recent slot.
    fn compact(&mut self) {
        assert!(
            self.slot_of.len() <= MAX_DISTINCT,
            "the stack profiler tracks at most {MAX_DISTINCT} distinct pages"
        );
        let mut kept = 0;
        for slot in 0..self.id_at.len() {
            let id = self.id_at[slot];
            if self.slot_of[id as usize] as usize == slot {
                self.slot_of[id as usize] = kept as u32;
                self.id_at[kept] = id;
                kept += 1;
            }
        }
        self.id_at.truncate(kept);
        let slots = Self::slots_for(kept);
        self.id_at.reserve_exact(slots - kept);
        self.marks = SlotMarks::with_ones(slots, kept);
    }

    /// The distinct pages in stack order, least recent first.
    fn recency(&self) -> Vec<u64> {
        let mut page_of = vec![0u64; self.slot_of.len()];
        for (&page, &id) in &self.ids {
            page_of[id as usize] = page;
        }
        self.id_at
            .iter()
            .enumerate()
            .filter(|&(slot, &id)| self.slot_of[id as usize] as usize == slot)
            .map(|(_, &id)| page_of[id as usize])
            .collect()
    }
}

// A snapshot holds only the stack order: ids, slots and the tree are
// rebuilt from it, so equal stacks serialize equally however many
// compactions each profiler has been through.
impl Serialize for StackProfiler {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![("recency".to_string(), self.recency().to_value())])
    }
}

impl Deserialize for StackProfiler {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let recency = value
            .get("recency")
            .ok_or_else(|| serde::Error::custom("missing field `recency` in StackProfiler"))?;
        Self::from_recency(&Vec::<u64>::from_value(recency)?)
    }
}

/// One profiled disk-cache access: when it happened, which page it
/// touched, and its LRU stack distance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Arrival time, s.
    pub time: f64,
    /// Global page number (used by the multi-disk extension to route
    /// predicted misses to the disk that would serve them).
    pub page: u64,
    /// LRU stack distance of the access.
    pub distance: StackDistance,
}

/// One period's worth of profiled accesses, the raw material for the
/// joint policy's per-size predictions.
///
/// This is the runtime embodiment of the paper's LRU-list *counters* plus
/// the access *timestamps* (§IV-B): together they predict, for any candidate
/// memory size, both the number of disk accesses and the disk idle-interval
/// structure.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccessLog {
    entries: Vec<LogEntry>,
}

impl AccessLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one profiled access.
    pub fn record(&mut self, time: f64, page: u64, distance: StackDistance) {
        self.entries.push(LogEntry {
            time,
            page,
            distance,
        });
    }

    /// Number of accesses in the log (the paper's `N`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no accesses were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded accesses, in arrival order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Predicted number of disk accesses with an LRU cache of
    /// `capacity_pages` (the paper's `n_d` at candidate size `m`).
    pub fn misses_at(&self, capacity_pages: u64) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.distance.misses_at(capacity_pages))
            .count() as u64
    }

    /// Timestamps of the accesses that would miss at `capacity_pages`, in
    /// arrival order — the predicted disk-access stream whose gaps form the
    /// idle intervals of paper Fig. 4.
    pub fn miss_times_at(&self, capacity_pages: u64) -> impl Iterator<Item = f64> + '_ {
        self.entries
            .iter()
            .filter(move |e| e.distance.misses_at(capacity_pages))
            .map(|e| e.time)
    }

    /// The paper's per-position counters: `counters[i]` (0-based) is the
    /// number of accesses at stack position `i + 1`, up to `max_positions`.
    /// Cold accesses increment no counter, exactly as in Fig. 3.
    pub fn position_counters(&self, max_positions: usize) -> Vec<u64> {
        let mut counters = vec![0u64; max_positions];
        for e in &self.entries {
            if let StackDistance::Position(p) = e.distance {
                let idx = p as usize - 1;
                if idx < max_positions {
                    counters[idx] += 1;
                }
            }
        }
        counters
    }

    /// Clears the log for the next period.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive LRU stack for cross-checking.
    fn naive_distances(pages: &[u64]) -> Vec<StackDistance> {
        let mut stack: Vec<u64> = Vec::new();
        let mut out = Vec::new();
        for &p in pages {
            match stack.iter().position(|&q| q == p) {
                None => {
                    out.push(StackDistance::Cold);
                }
                Some(pos) => {
                    out.push(StackDistance::Position(pos as u64 + 1));
                    stack.remove(pos);
                }
            }
            stack.insert(0, p);
        }
        out
    }

    #[test]
    fn paper_fig3_example() {
        // Paper §IV-B: accesses (1,2,3,5,2,1,4,6,5,2), 8-page LRU list.
        // Expected counters after all ten accesses: (0,0,1,1,2,0,0,0).
        let seq = [1u64, 2, 3, 5, 2, 1, 4, 6, 5, 2];
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        for (i, &p) in seq.iter().enumerate() {
            log.record(i as f64, p, profiler.observe(p));
        }
        assert_eq!(
            log.position_counters(8),
            vec![0, 0, 1, 1, 2, 0, 0, 0],
            "paper Fig. 3 counters"
        );
        // "Among the ten accesses, there are eight disk accesses and two
        // memory accesses … when the memory size is four pages."
        assert_eq!(log.misses_at(4), 8);
        // "If the physical memory size is three pages … the number of disk
        // accesses becomes nine."
        assert_eq!(log.misses_at(3), 9);
        // "If the physical memory size increases to five pages, two disk
        // accesses can be avoided" (relative to the 8 at four pages).
        assert_eq!(log.misses_at(5), 6);
        // "Further increasing the memory size has the same disk IO."
        assert_eq!(log.misses_at(6), 6);
        assert_eq!(log.misses_at(8), 6);
    }

    #[test]
    fn matches_naive_on_fixed_sequence() {
        let seq = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
        let mut profiler = StackProfiler::new();
        let got: Vec<StackDistance> = seq.iter().map(|&p| profiler.observe(p)).collect();
        assert_eq!(got, naive_distances(&seq));
    }

    #[test]
    fn repeated_same_page_is_distance_one() {
        let mut p = StackProfiler::new();
        assert_eq!(p.observe(7), StackDistance::Cold);
        for _ in 0..5 {
            assert_eq!(p.observe(7), StackDistance::Position(1));
        }
    }

    #[test]
    fn compaction_preserves_distances() {
        // Force many compactions with a tiny initial capacity by pushing
        // far more accesses than the default 1024 slots.
        let mut profiler = StackProfiler::new();
        let mut naive_seq = Vec::new();
        let mut got = Vec::new();
        for i in 0..5000u64 {
            let page = i % 97; // heavy reuse
            naive_seq.push(page);
            got.push(profiler.observe(page));
        }
        assert_eq!(got, naive_distances(&naive_seq));
        assert_eq!(profiler.distinct_pages(), 97);
    }

    #[test]
    fn snapshot_keeps_the_stack_order_and_only_it() {
        let mut a = StackProfiler::new();
        let mut b = StackProfiler::new();
        // `a` compacts several times, `b` never: same stack, same image.
        for i in 0..3000u64 {
            a.observe(i % 7);
        }
        for page in [5u64, 6, 4, 5, 6, 0, 1, 2, 3] {
            b.observe(page);
        }
        assert_eq!(a.to_value(), b.to_value());
        let mut restored = StackProfiler::from_value(&a.to_value()).unwrap();
        for page in [3u64, 9, 4, 0, 9, 6] {
            assert_eq!(restored.observe(page), a.observe(page));
        }
    }

    #[test]
    fn snapshot_naming_a_page_twice_is_refused() {
        let value =
            serde::Value::Object(vec![("recency".to_string(), vec![1u64, 2, 1].to_value())]);
        assert!(StackProfiler::from_value(&value).is_err());
    }

    #[test]
    fn reset_forgets_history() {
        let mut p = StackProfiler::new();
        p.observe(1);
        p.reset();
        assert_eq!(p.observe(1), StackDistance::Cold);
    }

    #[test]
    fn miss_times_filter_correctly() {
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        for (i, &p) in [1u64, 2, 1, 1].iter().enumerate() {
            log.record(i as f64, p, profiler.observe(p));
        }
        // distances: Cold, Cold, 2, 1
        let at1: Vec<f64> = log.miss_times_at(1).collect();
        assert_eq!(at1, vec![0.0, 1.0, 2.0]);
        let at2: Vec<f64> = log.miss_times_at(2).collect();
        assert_eq!(at2, vec![0.0, 1.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn profiler_matches_naive(seq in proptest::collection::vec(0u64..32, 1..300)) {
            let mut profiler = StackProfiler::new();
            let got: Vec<StackDistance> = seq.iter().map(|&p| profiler.observe(p)).collect();
            prop_assert_eq!(got, naive_distances(&seq));
        }

        #[test]
        fn misses_monotone_in_capacity(seq in proptest::collection::vec(0u64..16, 1..200)) {
            let mut profiler = StackProfiler::new();
            let mut log = AccessLog::new();
            for (i, &p) in seq.iter().enumerate() {
                log.record(i as f64, p, profiler.observe(p));
            }
            // Inclusion property: more memory never causes more misses.
            let mut prev = u64::MAX;
            for cap in 0..20 {
                let m = log.misses_at(cap);
                prop_assert!(m <= prev);
                prev = m;
            }
            // Cold misses remain at infinite capacity.
            let distinct: std::collections::HashSet<_> = seq.iter().collect();
            prop_assert_eq!(log.misses_at(u64::MAX), distinct.len() as u64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        // At least 200 distinct sparse pages over at least three
        // compactions; a snapshot taken at `cut` and restored must go on
        // exactly as the profiler it was taken from.
        #[test]
        fn profiler_matches_naive_across_compactions_and_a_restore(
            distinct in 200u64..400,
            picks in proptest::collection::vec(any::<u64>(), 4000..4001),
            cut in 0usize..4200,
        ) {
            let seq: Vec<u64> = (0..distinct)
                .chain(picks.iter().map(|p| p % distinct))
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect();
            let naive = naive_distances(&seq);
            let mut profiler = StackProfiler::new();
            let mut restored = None;
            let mut compactions = 0;
            for (i, (&page, &expect)) in seq.iter().zip(&naive).enumerate() {
                if i == cut {
                    restored = Some(StackProfiler::from_value(&profiler.to_value()).unwrap());
                }
                let before = profiler.id_at.len();
                prop_assert_eq!(profiler.observe(page), expect);
                compactions += usize::from(profiler.id_at.len() <= before);
                if let Some(restored) = &mut restored {
                    prop_assert_eq!(restored.observe(page), expect);
                }
            }
            prop_assert!(compactions >= 3, "{} compactions", compactions);
            prop_assert_eq!(profiler.distinct_pages(), distinct as usize);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        // Pages come from a sparse pool spanning all of `u64`, and every
        // case makes enough accesses to compact several times.
        #[test]
        fn profiler_matches_naive_on_sparse_pages_across_compactions(
            pool in proptest::collection::vec(any::<u64>(), 1..700),
            picks in proptest::collection::vec(0usize..100_000, 2000..5000),
        ) {
            let seq: Vec<u64> = picks.iter().map(|&i| pool[i % pool.len()]).collect();
            let mut profiler = StackProfiler::new();
            let got: Vec<StackDistance> = seq.iter().map(|&p| profiler.observe(p)).collect();
            prop_assert_eq!(got, naive_distances(&seq));
            let distinct: std::collections::HashSet<_> = seq.iter().collect();
            prop_assert_eq!(profiler.distinct_pages(), distinct.len());
        }
    }
}
