/// Slots per word of the bitset.
const WORD: usize = 64;

/// A set of marked slots, used by the stack-distance profiler to count
/// the "still most-recent" access slots up to a given one.
///
/// The marks live in a bitset, and a Fenwick (binary-indexed) tree sums
/// each 64-slot word's count. Counting the marks through slot `s` takes
/// one tree query over the words before `s`'s word plus one popcount of
/// that word; setting or clearing a mark flips one bit and walks one tree
/// path. At ~131k slots the bitset takes 16 KB and the tree 8 KB with 11
/// levels, where a tree over slots would take 512 KB with 17.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotMarks {
    /// One bit per slot, slot `s` at bit `s % 64` of word `s / 64`.
    words: Vec<u64>,
    /// Fenwick tree over the words' mark counts: node `i` (1-based) sums
    /// words `i - lowbit(i) .. i`. Node 0 is unused.
    tree: Vec<u32>,
}

/// The lowest set bit of `i` (0 for 0).
fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

impl SlotMarks {
    /// Creates `n` slots, rounded up to whole words, none marked.
    pub fn new(n: usize) -> Self {
        Self::with_ones(n, 0)
    }

    /// Creates `n` slots, rounded up to whole words, whose first `ones`
    /// are marked, in O(n / 64): node `i` of the tree counts the marks
    /// among the slots of words `i - lowbit(i) .. i` directly.
    ///
    /// # Panics
    ///
    /// Panics if `ones > n`.
    pub fn with_ones(n: usize, ones: usize) -> Self {
        assert!(ones <= n, "more ones than slots");
        let words = (0..n.div_ceil(WORD))
            .map(|w| match ones.saturating_sub(w * WORD) {
                0 => 0,
                k if k >= WORD => u64::MAX,
                k => (1 << k) - 1,
            })
            .collect();
        let tree = (0..=n.div_ceil(WORD))
            .map(|i| {
                let below = (i - lowbit(i)) * WORD;
                (i * WORD).min(ones).saturating_sub(below) as u32
            })
            .collect();
        Self { words, tree }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.words.len() * WORD
    }

    /// Marks slot `s`, which must be unmarked.
    ///
    /// # Panics
    ///
    /// Panics if `s >= len()`.
    pub fn set(&mut self, s: usize) {
        let word = &mut self.words[s / WORD];
        debug_assert!(*word & (1 << (s % WORD)) == 0, "slot {s} already marked");
        *word |= 1 << (s % WORD);
        self.add(s / WORD, 1);
    }

    /// Unmarks slot `s`, which must be marked.
    ///
    /// # Panics
    ///
    /// Panics if `s >= len()`.
    pub fn clear(&mut self, s: usize) {
        let word = &mut self.words[s / WORD];
        debug_assert!(*word & (1 << (s % WORD)) != 0, "slot {s} not marked");
        *word &= !(1 << (s % WORD));
        self.add(s / WORD, u32::MAX);
    }

    /// Adds `delta` (mod 2³²) to word `w`'s count.
    fn add(&mut self, w: usize, delta: u32) {
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += lowbit(i);
        }
    }

    /// Number of marked slots in `0..=s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= len()`.
    pub fn count_through(&self, s: usize) -> u64 {
        let mut i = s / WORD;
        let mut count = (self.words[i] & (u64::MAX >> (WORD - 1 - s % WORD))).count_ones() as u64;
        while i > 0 {
            count += self.tree[i] as u64;
            i -= lowbit(i);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counts_through_word_edges() {
        let mut marks = SlotMarks::new(192);
        for s in [0, 62, 63, 64, 65, 127, 128] {
            marks.set(s);
        }
        let through = |s| marks.count_through(s);
        assert_eq!(through(0), 1);
        assert_eq!(through(61), 1);
        assert_eq!(through(62), 2);
        assert_eq!(through(63), 3);
        assert_eq!(through(64), 4);
        assert_eq!(through(65), 5);
        assert_eq!(through(126), 5);
        assert_eq!(through(127), 6);
        assert_eq!(through(128), 7);
        assert_eq!(through(191), 7);

        marks.clear(63);
        marks.clear(0);
        assert_eq!(marks.count_through(0), 0);
        assert_eq!(marks.count_through(63), 1);
        assert_eq!(marks.count_through(64), 2);
        assert_eq!(marks.count_through(191), 5);
    }

    #[test]
    fn counts_through_the_last_slot() {
        // The profiler compacts once its next slot reaches `len()`, so
        // `len() - 1` is the last slot it counts through before that.
        let mut marks = SlotMarks::with_ones(1024, 700);
        let last = marks.len() - 1;
        assert_eq!(last, 1023);
        assert_eq!(marks.count_through(last), 700);
        marks.set(last);
        assert_eq!(marks.count_through(last), 701);
        assert_eq!(marks.count_through(last - 1), 700);
        marks.clear(0);
        assert_eq!(marks.count_through(last), 700);
    }

    #[test]
    fn slots_round_up_to_whole_words() {
        assert_eq!(SlotMarks::new(0).len(), 0);
        assert_eq!(SlotMarks::new(1).len(), 64);
        assert_eq!(SlotMarks::new(64).len(), 64);
        assert_eq!(SlotMarks::with_ones(65, 65).len(), 128);
    }

    #[test]
    fn with_ones_matches_setting_them_one_by_one() {
        for n in 0..200 {
            for ones in 0..=n {
                let mut set = SlotMarks::new(n);
                for s in 0..ones {
                    set.set(s);
                }
                let built = SlotMarks::with_ones(n, ones);
                assert_eq!(built.words, set.words, "{ones} of {n}");
                assert_eq!(built.tree, set.tree, "{ones} of {n}");
            }
        }
    }

    proptest! {
        #[test]
        fn matches_naive(flips in proptest::collection::vec(0usize..300, 0..200)) {
            let mut marks = SlotMarks::new(300);
            let mut naive = vec![false; 300];
            for s in flips {
                if naive[s] {
                    marks.clear(s);
                } else {
                    marks.set(s);
                }
                naive[s] = !naive[s];
            }
            for s in 0..300 {
                let expect = naive[..=s].iter().filter(|&&m| m).count() as u64;
                prop_assert_eq!(marks.count_through(s), expect);
            }
        }
    }
}
