//! Per-memory-size prediction of disk traffic and idleness (paper §IV-B,
//! Figs. 3–4).
//!
//! Given one period's [`AccessLog`] (timestamps + stack distances), this
//! module predicts — for *every* candidate memory size at once — the number
//! of disk accesses `n_d`, the number of idle intervals `n_i`, and their
//! mean length, all without re-running the workload.
//!
//! Both steps read the log in one order, which the joint decision builds
//! once per period with one stable radix sort: the re-accesses by stack
//! position, ties by arrival. Its distinct positions are the sizes where
//! the disk I/O changes ([`candidate_banks`]), and its sequence is the
//! order in which accesses turn into hits as the memory grows
//! ([`predict_sizes_routed`]).
//!
//! The trick is to process candidate sizes in ascending order while
//! maintaining the predicted *miss sequence* as a doubly-linked list over
//! the log: growing the memory from one candidate to the next turns the
//! accesses whose stack distance falls inside the growth into hits, and
//! removing each such access **merges its two neighboring idle gaps into
//! one** — exactly the interval merging of paper Fig. 4, in O(1) per
//! removed access.

use jpmd_mem::{AccessLog, StackDistance};
use serde::{Deserialize, Serialize};

/// Predicted disk behavior at one candidate memory size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SizePrediction {
    /// Candidate cache capacity, pages.
    pub capacity_pages: u64,
    /// Predicted disk accesses in the period (`n_d`, pages).
    pub disk_accesses: u64,
    /// Predicted idle intervals longer than the aggregation window (`n_i`).
    pub idle_count: u64,
    /// Total predicted idle time across those intervals, s.
    pub idle_total_secs: f64,
    /// Time of the first predicted disk access, if any.
    pub first_miss_secs: Option<f64>,
    /// Time of the last predicted disk access, if any.
    pub last_miss_secs: Option<f64>,
}

impl SizePrediction {
    /// Mean idle-interval length, or `None` when there are no intervals.
    pub fn idle_mean_secs(&self) -> Option<f64> {
        if self.idle_count == 0 {
            None
        } else {
            Some(self.idle_total_secs / self.idle_count as f64)
        }
    }

    /// Adds the period-boundary idle gaps — from `period_start` to the
    /// first predicted miss and from the last miss to `period_end` — as
    /// idle intervals when they exceed `window`.
    ///
    /// Gap merging inside [`predict_sizes`] only sees *inter-access* gaps;
    /// for candidates with very few misses the boundary gaps dominate the
    /// disk's sleep opportunity, and without them the power estimate (eq. 4
    /// of the paper) concludes the disk "stays on" and systematically
    /// undervalues large memories.
    pub fn with_period_bounds(mut self, period_start: f64, period_end: f64, window: f64) -> Self {
        if let (Some(first), Some(last)) = (self.first_miss_secs, self.last_miss_secs) {
            let leading = first - period_start;
            if leading > window {
                self.idle_count += 1;
                self.idle_total_secs += leading;
            }
            let trailing = period_end - last;
            if trailing > window {
                self.idle_count += 1;
                self.idle_total_secs += trailing;
            }
        }
        self
    }
}

const NONE_IDX: u32 = u32::MAX;

/// Predicts disk accesses and idle structure at each candidate capacity.
///
/// `candidates` must be sorted ascending (duplicates are tolerated); the
/// result has one entry per candidate in the same order. `window` is the
/// aggregation window `w`: only gaps strictly longer than it count as idle
/// intervals, matching
/// [`IdleIntervals`](jpmd_stats::IdleIntervals)' semantics. This is the
/// one-disk case of [`predict_sizes_routed`].
///
/// # Panics
///
/// Panics if `candidates` is not sorted ascending.
pub fn predict_sizes(log: &AccessLog, candidates: &[u64], window: f64) -> Vec<SizePrediction> {
    predict_sizes_routed(log, candidates, window, |_| 0, 1)
}

/// Predicts disk accesses and idle structure at each candidate capacity,
/// **per member disk** of an array: `route(page)` assigns every access to
/// one of `n_routes` disks, and each disk's miss stream gets its own gap
/// merging (the multi-disk extension of paper Fig. 4). With one route,
/// `route` is never called.
///
/// Returns `n_routes` predictions per candidate, candidate-major: entry
/// `c * n_routes + r` is route `r` at `candidates[c]`. Within each
/// candidate, the per-route `disk_accesses` sum to the one-route count.
///
/// # Panics
///
/// Panics if `candidates` is not sorted ascending, `n_routes == 0`, or
/// `route` returns an index `≥ n_routes`.
pub fn predict_sizes_routed<F: Fn(u64) -> usize>(
    log: &AccessLog,
    candidates: &[u64],
    window: f64,
    route: F,
    n_routes: usize,
) -> Vec<SizePrediction> {
    HitOrder::new(log).predict_sizes_routed(candidates, window, route, n_routes)
}

/// Bits of the stack position each radix pass of `HitOrder::new` sorts.
const RADIX_BITS: u32 = 11;

/// One period's re-accesses in the order they turn into hits as the memory
/// grows: by stack position, ties by arrival. Cold accesses, which miss at
/// every size, are left out.
///
/// Built once per decision, it serves both candidate enumeration and the
/// gap-merging sweep. `HitOrder::new` is a stable LSD radix sort on the
/// position, 11 bits a pass, over the log in arrival order: linear in the
/// log, with one pass per 11 bits of the largest position — at most three
/// for any position a [`StackProfiler`](jpmd_mem::StackProfiler) returns
/// (below 2³¹). Stability makes it the `(position, index)` order, so the
/// sweep subtracts idle gaps in a fixed order and its `f64` sums are
/// reproducible to the bit.
#[derive(Debug)]
pub(crate) struct HitOrder<'a> {
    log: &'a AccessLog,
    /// `(position, index into the log)`, ascending.
    hits: Vec<(u64, u32)>,
}

impl<'a> HitOrder<'a> {
    /// Orders `log`'s re-accesses.
    pub(crate) fn new(log: &'a AccessLog) -> Self {
        let mut hits: Vec<(u64, u32)> = (0u32..)
            .zip(log.entries())
            .filter_map(|(i, e)| match e.distance {
                StackDistance::Position(p) => Some((p, i)),
                StackDistance::Cold => None,
            })
            .collect();
        let top = hits.iter().map(|&(p, _)| p).max().unwrap_or(0);
        let mut sorted = vec![(0, 0); hits.len()];
        let mut counts = [0usize; 1 << RADIX_BITS];
        let mut shift = 0;
        while shift < u64::BITS && top >> shift != 0 {
            let digit = |p: u64| (p >> shift) as usize & ((1 << RADIX_BITS) - 1);
            counts.fill(0);
            for &(p, _) in &hits {
                counts[digit(p)] += 1;
            }
            let mut next = 0;
            for count in &mut counts {
                next += std::mem::replace(count, next);
            }
            for &hit in &hits {
                let slot = &mut counts[digit(hit.0)];
                sorted[*slot] = hit;
                *slot += 1;
            }
            std::mem::swap(&mut hits, &mut sorted);
            shift += RADIX_BITS;
        }
        Self { log, hits }
    }

    /// [`candidate_banks`] of the ordered log.
    pub(crate) fn candidate_banks(
        &self,
        bank_pages: u32,
        min_banks: u32,
        max_banks: u32,
    ) -> Vec<u32> {
        // Rounding and clamping keep the ascending order of the positions.
        let to_banks = |pages: u64| {
            let b = pages.div_ceil(bank_pages as u64).min(max_banks as u64) as u32;
            b.clamp(min_banks, max_banks)
        };
        let mut banks = vec![min_banks];
        for b in std::iter::once(0)
            .chain(self.hits.iter().map(|&(p, _)| p))
            .map(to_banks)
            .chain([max_banks])
        {
            if banks.last() != Some(&b) {
                banks.push(b);
            }
        }
        banks
    }

    /// [`predict_sizes_routed`] of the ordered log.
    pub(crate) fn predict_sizes_routed<F: Fn(u64) -> usize>(
        &self,
        candidates: &[u64],
        window: f64,
        route: F,
        n_routes: usize,
    ) -> Vec<SizePrediction> {
        assert!(
            candidates.windows(2).all(|w| w[0] <= w[1]),
            "candidates must be sorted ascending"
        );
        assert!(n_routes > 0, "need at least one route");
        let entries = self.log.entries();
        let n = entries.len();

        // Each access's route; one route needs no table.
        let routes: Vec<u32> = if n_routes == 1 {
            Vec::new()
        } else {
            entries
                .iter()
                .map(|e| {
                    let r = route(e.page);
                    assert!(r < n_routes, "route index out of range");
                    r as u32
                })
                .collect()
        };
        let route_of = |i: u32| routes.get(i as usize).map_or(0, |&r| r as usize);

        // One doubly-linked chain per route over the full access sequence
        // (capacity 0: every access is a miss), with its gap statistics.
        let mut prev: Vec<u32> = vec![NONE_IDX; n];
        let mut next: Vec<u32> = vec![NONE_IDX; n];
        let mut head: Vec<u32> = vec![NONE_IDX; n_routes];
        let mut tail: Vec<u32> = vec![NONE_IDX; n_routes];
        let mut nd = vec![0u64; n_routes];
        let mut ni = vec![0u64; n_routes];
        let mut total = vec![0.0f64; n_routes];
        for (i, e) in (0u32..).zip(entries) {
            let r = route_of(i);
            let l = tail[r];
            prev[i as usize] = l;
            if l == NONE_IDX {
                head[r] = i;
            } else {
                next[l as usize] = i;
                let g = e.time - entries[l as usize].time;
                if g > window {
                    ni[r] += 1;
                    total[r] += g;
                }
            }
            tail[r] = i;
            nd[r] += 1;
        }

        let mut out = Vec::with_capacity(candidates.len() * n_routes);
        let mut hits = self.hits.iter().peekable();
        for &cap in candidates {
            // Each new hit leaves its route's miss chain, merging the two
            // gaps around it into one.
            while let Some(&(_, i)) = hits.next_if(|&&(p, _)| p <= cap) {
                let r = route_of(i);
                let (l, rr) = (prev[i as usize], next[i as usize]);
                if head[r] == i {
                    head[r] = rr;
                }
                if tail[r] == i {
                    tail[r] = l;
                }
                let t_i = entries[i as usize].time;
                if l != NONE_IDX {
                    let g = t_i - entries[l as usize].time;
                    if g > window {
                        ni[r] -= 1;
                        total[r] -= g;
                    }
                    next[l as usize] = rr;
                }
                if rr != NONE_IDX {
                    let g = entries[rr as usize].time - t_i;
                    if g > window {
                        ni[r] -= 1;
                        total[r] -= g;
                    }
                    prev[rr as usize] = l;
                }
                if l != NONE_IDX && rr != NONE_IDX {
                    let g = entries[rr as usize].time - entries[l as usize].time;
                    if g > window {
                        ni[r] += 1;
                        total[r] += g;
                    }
                }
                nd[r] -= 1;
            }
            out.extend((0..n_routes).map(|r| SizePrediction {
                capacity_pages: cap,
                disk_accesses: nd[r],
                idle_count: ni[r],
                idle_total_secs: total[r].max(0.0),
                first_miss_secs: (head[r] != NONE_IDX).then(|| entries[head[r] as usize].time),
                last_miss_secs: (tail[r] != NONE_IDX).then(|| entries[tail[r] as usize].time),
            }));
        }
        out
    }
}

/// The Che approximation of the LRU miss rate under the *independent
/// reference model* — the analytical alternative to the stack algorithm
/// in the paper's §II-C design space (Franklin & Gupta's Markov-chain
/// fault probabilities, ref. \[32\], are the classical ancestor; the Che
/// approximation is its modern closed-form descendant).
///
/// Given per-page access probabilities `p_i` and a cache of `m` pages, the
/// *characteristic time* `T_c` solves `Σ_i (1 − e^{−p_i T_c}) = m`; the
/// miss rate is then `Σ_i p_i e^{−p_i T_c}`.
///
/// Why the paper (and this crate) use the exact stack algorithm instead:
/// IRM assumes references are independent draws, so any *temporal
/// locality* — bursts of re-use, scans, phase changes — breaks the
/// estimate, while the stack algorithm is exact for every LRU cache size
/// simultaneously. The `irm` tests below measure exactly that gap.
///
/// Returns `(miss_rate, characteristic_time)`.
///
/// # Panics
///
/// Panics if `probabilities` is empty, contains non-finite or negative
/// entries, or sums to zero.
pub fn irm_miss_rate(probabilities: &[f64], capacity_pages: u64) -> (f64, f64) {
    assert!(!probabilities.is_empty(), "need at least one page");
    assert!(
        probabilities.iter().all(|p| p.is_finite() && *p >= 0.0),
        "probabilities must be finite and non-negative"
    );
    let total: f64 = probabilities.iter().sum();
    assert!(total > 0.0, "probabilities must not all be zero");
    let probs: Vec<f64> = probabilities.iter().map(|p| p / total).collect();

    if capacity_pages as usize >= probs.len() {
        return (0.0, f64::INFINITY); // everything fits
    }
    let m = capacity_pages as f64;
    // Bisection on T_c: occupancy(T) = Σ (1 − e^{−p_i T}) is increasing.
    let occupancy = |t: f64| -> f64 { probs.iter().map(|&p| 1.0 - (-p * t).exp()).sum() };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while occupancy(hi) < m {
        hi *= 2.0;
        if hi > 1e18 {
            break;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if occupancy(mid) < m {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t_c = 0.5 * (lo + hi);
    let miss = probs.iter().map(|&p| p * (-p * t_c).exp()).sum();
    (miss, t_c)
}

/// Candidate capacities worth enumerating for a given bank granularity:
/// the capacities where the predicted miss count changes — 0 and each
/// distinct stack position ("the size causing different disk IOs", §IV-B)
/// — rounded **up** to whole banks (between change points a smaller
/// memory has the same disk I/O and less static power), clamped to
/// `min_banks..=max_banks`, with both bounds added, deduplicated,
/// ascending. Expressed in banks.
///
/// # Panics
///
/// Panics if `bank_pages == 0` or `min_banks > max_banks`.
pub fn candidate_banks(
    log: &AccessLog,
    bank_pages: u32,
    min_banks: u32,
    max_banks: u32,
) -> Vec<u32> {
    HitOrder::new(log).candidate_banks(bank_pages, min_banks, max_banks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpmd_mem::StackProfiler;
    use jpmd_stats::IdleIntervals;

    /// Builds the paper's Fig. 3/4 example log: accesses to pages
    /// (1,2,3,5,2,1,4,6,5,2) at the given timestamps.
    fn paper_log(times: &[f64; 10]) -> AccessLog {
        let pages = [1u64, 2, 3, 5, 2, 1, 4, 6, 5, 2];
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        for (&t, &p) in times.iter().zip(&pages) {
            log.record(t, p, profiler.observe(p));
        }
        log
    }

    #[test]
    fn paper_fig4_intervals() {
        // Timestamps chosen so that consecutive accesses are 1 s apart
        // except two long think-times, mirroring Fig. 4's I1 and I2.
        let times = [0.0, 1.0, 2.0, 3.0, 13.0, 14.0, 33.0, 34.0, 64.0, 65.0];
        let log = paper_log(&times);
        let w = 5.0;
        let preds = predict_sizes(&log, &[2, 4, 5], w);

        // 4-page memory (Fig. 4(a)): misses at t1..t4, t7..t10 (accesses
        // 5 and 6 hit). Idle intervals: I1 = t7 − t4 = 30, I2 = t9 − t8 = 30.
        let at4 = preds[1];
        assert_eq!(at4.disk_accesses, 8);
        assert_eq!(at4.idle_count, 2);
        assert!((at4.idle_total_secs - 60.0).abs() < 1e-9);

        // 2-page memory (Fig. 4(b)): accesses 5 and 6 become disk accesses;
        // I1 is split into t5 − t4 = 10 and t7 − t6 = 19.
        let at2 = preds[0];
        assert_eq!(at2.disk_accesses, 10);
        assert_eq!(at2.idle_count, 3);
        assert!((at2.idle_total_secs - (10.0 + 19.0 + 30.0)).abs() < 1e-9);

        // 5-page memory (Fig. 4(c)): accesses 9 and 10 also hit; I2 merges
        // into the open end (disappears — its right edge was the last
        // access), leaving only I1.
        let at5 = preds[2];
        assert_eq!(at5.disk_accesses, 6);
        assert_eq!(at5.idle_count, 1);
        assert!((at5.idle_total_secs - 30.0).abs() < 1e-9);
    }

    #[test]
    fn matches_direct_reconstruction() {
        // Cross-check the incremental algorithm against recomputing idle
        // intervals from scratch at each size.
        let times: Vec<f64> = (0..40)
            .map(|i| (i as f64 * 1.7).sin().abs() * 50.0 + i as f64 * 3.0)
            .collect();
        let pages: Vec<u64> = (0..40).map(|i| (i * 7 % 13) as u64).collect();
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        let mut sorted_times = times.clone();
        sorted_times.sort_by(f64::total_cmp);
        for (t, &p) in sorted_times.iter().zip(&pages) {
            log.record(*t, p, profiler.observe(p));
        }
        let w = 2.0;
        let candidates: Vec<u64> = (0..=14).collect();
        let preds = predict_sizes(&log, &candidates, w);
        for pred in preds {
            let misses: Vec<f64> = log.miss_times_at(pred.capacity_pages).collect();
            assert_eq!(pred.disk_accesses as usize, misses.len());
            let direct = IdleIntervals::from_timestamps(&misses, w);
            assert_eq!(
                pred.idle_count as usize,
                direct.count(),
                "cap {}",
                pred.capacity_pages
            );
            assert!(
                (pred.idle_total_secs - direct.total()).abs() < 1e-6,
                "cap {}: {} vs {}",
                pred.capacity_pages,
                pred.idle_total_secs,
                direct.total()
            );
        }
    }

    #[test]
    fn empty_log_predicts_nothing() {
        let log = AccessLog::new();
        let preds = predict_sizes(&log, &[0, 4], 0.1);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].disk_accesses, 0);
        assert_eq!(preds[0].idle_count, 0);
        assert_eq!(preds[1].idle_mean_secs(), None);
    }

    #[test]
    fn disk_accesses_monotone_nonincreasing() {
        let times = [0.0, 1.0, 2.0, 3.0, 13.0, 14.0, 33.0, 34.0, 64.0, 65.0];
        let log = paper_log(&times);
        let candidates: Vec<u64> = (0..10).collect();
        let preds = predict_sizes(&log, &candidates, 0.5);
        for w in preds.windows(2) {
            assert!(w[1].disk_accesses <= w[0].disk_accesses);
        }
    }

    #[test]
    fn candidate_banks_rounds_up_and_bounds() {
        let times = [0.0, 1.0, 2.0, 3.0, 13.0, 14.0, 33.0, 34.0, 64.0, 65.0];
        let log = paper_log(&times);
        // Positions present: 3, 4, 5 -> with 2-page banks: ceil -> 2, 2, 3.
        let banks = candidate_banks(&log, 2, 1, 10);
        assert_eq!(banks, vec![1, 2, 3, 10]);
        // Clamped by max.
        let banks = candidate_banks(&log, 2, 1, 2);
        assert_eq!(banks, vec![1, 2]);
    }

    #[test]
    fn one_page_banks_are_zero_and_every_change_point() {
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        for (i, page) in [1u64, 2, 1, 3, 2, 1].into_iter().enumerate() {
            log.record(i as f64, page, profiler.observe(page));
        }
        let banks = candidate_banks(&log, 1, 0, 100);
        assert_eq!(banks, vec![0, 2, 3, 100]);
        assert!(banks.windows(2).all(|w| w[0] < w[1]));
        // The miss count changes at every change point; the ceiling
        // added past the last one changes nothing.
        let (points, ceiling) = banks.split_at(banks.len() - 1);
        for w in points.windows(2) {
            assert!(log.misses_at(w[0] as u64) > log.misses_at(w[1] as u64));
        }
        let last = *points.last().unwrap() as u64;
        assert_eq!(log.misses_at(last), log.misses_at(ceiling[0] as u64));
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_candidates_panic() {
        let log = AccessLog::new();
        predict_sizes(&log, &[5, 2], 0.1);
    }

    mod irm {
        use super::super::*;
        use jpmd_mem::StackProfiler;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Zipf-ish page probabilities over `n` pages.
        fn zipf_probs(n: usize, s: f64) -> Vec<f64> {
            (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect()
        }

        /// Samples an IRM trace from `probs` and returns the stack
        /// profiler's exact miss count at `capacity` (cold misses excluded
        /// to compare steady-state rates).
        fn exact_warm_miss_rate(probs: &[f64], capacity: u64, samples: usize, seed: u64) -> f64 {
            let total: f64 = probs.iter().sum();
            let cdf: Vec<f64> = probs
                .iter()
                .scan(0.0, |acc, p| {
                    *acc += p / total;
                    Some(*acc)
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut profiler = StackProfiler::new();
            let warmup = samples / 4;
            let mut misses = 0usize;
            let mut counted = 0usize;
            for i in 0..samples {
                let u: f64 = rng.gen();
                let page = cdf.partition_point(|&c| c < u) as u64;
                let d = profiler.observe(page);
                if i >= warmup {
                    counted += 1;
                    // Steady state: treat cold as miss too (rare by then).
                    if d.misses_at(capacity) {
                        misses += 1;
                    }
                }
            }
            misses as f64 / counted as f64
        }

        #[test]
        fn everything_fits_means_no_misses() {
            let (miss, tc) = irm_miss_rate(&[0.5, 0.3, 0.2], 3);
            assert_eq!(miss, 0.0);
            assert!(tc.is_infinite());
        }

        #[test]
        fn miss_rate_decreases_with_capacity() {
            let probs = zipf_probs(200, 0.9);
            let mut prev = 1.0;
            for m in [10u64, 40, 80, 160] {
                let (miss, _) = irm_miss_rate(&probs, m);
                assert!(miss < prev, "capacity {m}: {miss} < {prev}");
                assert!(miss >= 0.0);
                prev = miss;
            }
        }

        #[test]
        fn che_matches_exact_stack_on_irm_traces() {
            // On genuinely independent references the approximation is
            // known to be excellent for Zipf popularity.
            let probs = zipf_probs(300, 0.9);
            for capacity in [30u64, 100] {
                let (che, _) = irm_miss_rate(&probs, capacity);
                let exact = exact_warm_miss_rate(&probs, capacity, 120_000, 11);
                assert!(
                    (che - exact).abs() < 0.03,
                    "capacity {capacity}: Che {che:.4} vs exact {exact:.4}"
                );
            }
        }

        #[test]
        fn temporal_locality_breaks_irm_but_not_the_stack_algorithm() {
            // A looping scan (strong temporal structure): pages cycle
            // 0..N-1. LRU with capacity < N misses on *every* access
            // (sequential flooding); IRM sees uniform probabilities and
            // predicts far fewer misses. This is why the paper's predictor
            // is the exact stack algorithm, not a reference model.
            let n = 64usize;
            let capacity = 32u64;
            let probs = vec![1.0 / n as f64; n];
            let (che, _) = irm_miss_rate(&probs, capacity);
            let mut profiler = StackProfiler::new();
            let mut misses = 0usize;
            let mut counted = 0usize;
            for i in 0..(n * 50) {
                let d = profiler.observe((i % n) as u64);
                if i >= n {
                    counted += 1;
                    if d.misses_at(capacity) {
                        misses += 1;
                    }
                }
            }
            let exact = misses as f64 / counted as f64;
            assert!((exact - 1.0).abs() < 1e-9, "LRU thrashes on a loop");
            assert!(
                che < 0.6,
                "IRM must underestimate badly here (got {che:.3})"
            );
        }

        #[test]
        #[should_panic(expected = "at least one page")]
        fn rejects_empty() {
            let _ = irm_miss_rate(&[], 1);
        }
    }

    #[test]
    #[should_panic(expected = "route index out of range")]
    fn routed_checks_route_bounds() {
        let times = [0.0, 1.0, 2.0, 3.0, 13.0, 14.0, 33.0, 34.0, 64.0, 65.0];
        let log = paper_log(&times);
        predict_sizes_routed(&log, &[4], 5.0, |_| 7, 2);
    }
}
