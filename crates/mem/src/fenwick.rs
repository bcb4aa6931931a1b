/// A Fenwick (binary-indexed) tree over `u32` counts, used by the
/// stack-distance profiler to count "still most-recent" access slots in a
/// time range in O(log n).
#[derive(Debug, Clone, Default)]
pub(crate) struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    /// Creates a tree over `n` slots, all zero.
    pub fn new(n: usize) -> Self {
        Self::with_ones(n, 0)
    }

    /// Creates a tree over `n` slots whose first `ones` slots hold 1 and
    /// the rest 0, in O(n): node `i` covers the 1-based positions
    /// `i - lowbit(i) + 1 ..= i`, so it counts the ones among them
    /// directly.
    ///
    /// # Panics
    ///
    /// Panics if `ones > n`.
    pub fn with_ones(n: usize, ones: usize) -> Self {
        assert!(ones <= n, "more ones than slots");
        let tree = (0..=n)
            .map(|i| {
                let below = i - (i & i.wrapping_neg());
                i.min(ones).saturating_sub(below) as u32
            })
            .collect();
        Self { tree }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Adds `delta` at 0-based position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn add(&mut self, i: usize, delta: i32) {
        assert!(i < self.len(), "fenwick index out of range");
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based, inclusive).
    pub fn prefix_sum(&self, i: usize) -> u64 {
        let mut i = (i + 1).min(self.tree.len() - 1);
        let mut s = 0u64;
        while i > 0 {
            s += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_sums() {
        let mut f = Fenwick::new(8);
        f.add(0, 1);
        f.add(3, 2);
        f.add(7, 5);
        assert_eq!(f.prefix_sum(0), 1);
        assert_eq!(f.prefix_sum(3), 3);
        assert_eq!(f.prefix_sum(7), 8);
    }

    #[test]
    fn add_and_remove() {
        let mut f = Fenwick::new(4);
        f.add(2, 1);
        f.add(2, -1);
        assert_eq!(f.prefix_sum(3), 0);
    }

    #[test]
    fn with_ones_matches_adding_them_one_by_one() {
        for n in 0..70 {
            for ones in 0..=n {
                let mut added = Fenwick::new(n);
                for i in 0..ones {
                    added.add(i, 1);
                }
                assert_eq!(
                    Fenwick::with_ones(n, ones).tree,
                    added.tree,
                    "{ones} of {n}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn matches_naive(ops in proptest::collection::vec((0usize..64, 0i32..3), 0..100)) {
            let mut f = Fenwick::new(64);
            let mut naive = vec![0i64; 64];
            for (i, d) in ops {
                f.add(i, d);
                naive[i] += d as i64;
            }
            for i in 0..64 {
                let expect: i64 = naive[..=i].iter().sum();
                prop_assert_eq!(f.prefix_sum(i) as i64, expect);
            }
        }
    }
}
