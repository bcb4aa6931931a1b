use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{FileId, TraceError};

/// One file-size class: files in `[min_bytes, max_bytes]` drawn with
/// relative `weight`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SizeClass {
    /// Smallest file size in this class, bytes.
    pub min_bytes: u64,
    /// Largest file size in this class, bytes.
    pub max_bytes: u64,
    /// Relative weight of the class (need not be normalized).
    pub weight: f64,
}

/// File-size distribution profile for building a [`FileSet`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SizeProfile {
    /// The four SPECWeb99 file classes. SPECWeb99 serves files from four
    /// size classes spanning roughly 0.1 kB to 1 MB with most requests in
    /// the 1–100 kB range; the weights below follow the benchmark's class
    /// mix (35 / 50 / 14 / 1 %).
    SpecWeb99,
    /// Custom mixture of size classes.
    Classes(Vec<SizeClass>),
    /// Every file has exactly this many bytes (useful in tests and for
    /// page-exact workloads).
    Fixed(u64),
}

impl SizeProfile {
    fn classes(&self) -> Vec<SizeClass> {
        match self {
            SizeProfile::SpecWeb99 => vec![
                SizeClass {
                    min_bytes: 102,
                    max_bytes: 921,
                    weight: 35.0,
                },
                SizeClass {
                    min_bytes: 1024,
                    max_bytes: 9216,
                    weight: 50.0,
                },
                SizeClass {
                    min_bytes: 10_240,
                    max_bytes: 92_160,
                    weight: 14.0,
                },
                SizeClass {
                    min_bytes: 102_400,
                    max_bytes: 921_600,
                    weight: 1.0,
                },
            ],
            SizeProfile::Classes(c) => c.clone(),
            SizeProfile::Fixed(b) => vec![SizeClass {
                min_bytes: *b,
                max_bytes: *b,
                weight: 1.0,
            }],
        }
    }
}

/// A set of files laid out contiguously in one logical page space.
///
/// Files are identified by [`FileId`] and *ranked by popularity*: the
/// workload generator always treats `FileId(0)` as the most popular file.
/// Laying popular files out first also gives the disk model realistic
/// short-seek behavior for hot data.
///
/// # Example
///
/// ```
/// use jpmd_trace::{FileSet, SizeProfile};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), jpmd_trace::TraceError> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let fs = FileSet::build(16 * 1024 * 1024, 4096, &SizeProfile::SpecWeb99, &mut rng)?;
/// assert!(fs.total_pages() >= 16 * 1024 * 1024 / 4096);
/// let (first, pages) = fs.page_extent(jpmd_trace::FileId(0));
/// assert_eq!(first, 0);
/// assert!(pages >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileSet {
    /// Per-file size in pages, indexed by `FileId`.
    pages: Vec<u64>,
    /// Per-file first global page, indexed by `FileId`.
    base: Vec<u64>,
    page_bytes: u64,
}

impl FileSet {
    /// Builds a file set totalling at least `total_bytes`, with sizes drawn
    /// from `profile` and rounded up to whole pages of `page_bytes`.
    ///
    /// Generation stops at the first file that reaches `total_bytes`, so the
    /// overshoot is at most one file.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidConfig`] when `total_bytes == 0`,
    /// `page_bytes == 0`, the profile has no classes, or a class is
    /// malformed (zero/negative weight sum or `min > max`).
    pub fn build<R: Rng + ?Sized>(
        total_bytes: u64,
        page_bytes: u64,
        profile: &SizeProfile,
        rng: &mut R,
    ) -> Result<Self, TraceError> {
        if total_bytes == 0 {
            return Err(TraceError::InvalidConfig {
                name: "total_bytes",
                requirement: "must be > 0",
            });
        }
        if page_bytes == 0 {
            return Err(TraceError::InvalidConfig {
                name: "page_bytes",
                requirement: "must be > 0",
            });
        }
        let classes = profile.classes();
        if classes.is_empty() {
            return Err(TraceError::InvalidConfig {
                name: "profile",
                requirement: "must contain at least one size class",
            });
        }
        let weight_sum: f64 = classes.iter().map(|c| c.weight).sum();
        if weight_sum.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || classes.iter().any(|c| c.min_bytes > c.max_bytes)
        {
            return Err(TraceError::InvalidConfig {
                name: "profile",
                requirement: "classes must have positive total weight and min <= max",
            });
        }

        let mut pages = Vec::new();
        let mut base = Vec::new();
        let mut next_page = 0u64;
        let mut bytes_so_far = 0u64;
        while bytes_so_far < total_bytes {
            // Pick a class by weight, then a size uniformly inside it.
            let mut pick = rng.gen_range(0.0..weight_sum);
            let mut chosen = classes[classes.len() - 1];
            for c in &classes {
                if pick < c.weight {
                    chosen = *c;
                    break;
                }
                pick -= c.weight;
            }
            let size_bytes = if chosen.min_bytes == chosen.max_bytes {
                chosen.min_bytes
            } else {
                rng.gen_range(chosen.min_bytes..=chosen.max_bytes)
            };
            let size_pages = size_bytes.div_ceil(page_bytes).max(1);
            base.push(next_page);
            pages.push(size_pages);
            next_page += size_pages;
            bytes_so_far += size_pages * page_bytes;
        }
        Ok(Self {
            pages,
            base,
            page_bytes,
        })
    }

    /// Builds a file set with an explicit list of per-file page counts.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidConfig`] if the list is empty, any file
    /// has zero pages, or `page_bytes == 0`.
    pub fn from_page_counts(counts: Vec<u64>, page_bytes: u64) -> Result<Self, TraceError> {
        if counts.is_empty() || counts.contains(&0) || page_bytes == 0 {
            return Err(TraceError::InvalidConfig {
                name: "counts",
                requirement: "must be non-empty with all files >= 1 page and page_bytes > 0",
            });
        }
        let mut base = Vec::with_capacity(counts.len());
        let mut next = 0u64;
        for &c in &counts {
            base.push(next);
            next += c;
        }
        Ok(Self {
            pages: counts,
            base,
            page_bytes,
        })
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when the set contains no files (unreachable via constructors,
    /// but part of the `len`/`is_empty` pair).
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Total pages across all files (the data-set size in pages).
    pub fn total_pages(&self) -> u64 {
        self.base
            .last()
            .map_or(0, |b| b + self.pages[self.pages.len() - 1])
    }

    /// Total data-set size in bytes (page-rounded).
    pub fn total_bytes(&self) -> u64 {
        self.total_pages() * self.page_bytes
    }

    /// `(first_page, pages)` extent of a file.
    ///
    /// # Panics
    ///
    /// Panics if `file` is out of range.
    pub fn page_extent(&self, file: FileId) -> (u64, u64) {
        let i = file.0 as usize;
        (self.base[i], self.pages[i])
    }

    /// Size of a file in pages.
    ///
    /// # Panics
    ///
    /// Panics if `file` is out of range.
    pub fn file_pages(&self, file: FileId) -> u64 {
        self.pages[file.0 as usize]
    }

    /// Cumulative pages of the first `n` files (prefix sums by popularity
    /// rank) — used by the popularity calibration.
    pub fn prefix_pages(&self, n: usize) -> u64 {
        let n = n.min(self.pages.len());
        if n == 0 {
            0
        } else {
            self.base[n - 1] + self.pages[n - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_config() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(FileSet::build(0, 4096, &SizeProfile::SpecWeb99, &mut rng).is_err());
        assert!(FileSet::build(1024, 0, &SizeProfile::SpecWeb99, &mut rng).is_err());
        assert!(FileSet::build(1024, 4096, &SizeProfile::Classes(vec![]), &mut rng).is_err());
        let bad = SizeProfile::Classes(vec![SizeClass {
            min_bytes: 10,
            max_bytes: 5,
            weight: 1.0,
        }]);
        assert!(FileSet::build(1024, 4096, &bad, &mut rng).is_err());
    }

    #[test]
    fn total_reaches_request() {
        let mut rng = StdRng::seed_from_u64(1);
        let fs = FileSet::build(1 << 24, 4096, &SizeProfile::SpecWeb99, &mut rng).unwrap();
        assert!(fs.total_bytes() >= 1 << 24);
        // Overshoot is at most one max-class file.
        assert!(fs.total_bytes() < (1 << 24) + 2 * 1024 * 1024);
    }

    #[test]
    fn extents_are_contiguous_and_disjoint() {
        let mut rng = StdRng::seed_from_u64(2);
        let fs = FileSet::build(1 << 22, 4096, &SizeProfile::SpecWeb99, &mut rng).unwrap();
        let mut next = 0;
        for i in 0..fs.len() {
            let (first, pages) = fs.page_extent(FileId(i as u32));
            assert_eq!(first, next);
            assert!(pages >= 1);
            next = first + pages;
        }
        assert_eq!(next, fs.total_pages());
    }

    #[test]
    fn fixed_profile_gives_equal_files() {
        let mut rng = StdRng::seed_from_u64(3);
        let fs = FileSet::build(64 * 4096, 4096, &SizeProfile::Fixed(4096), &mut rng).unwrap();
        assert_eq!(fs.len(), 64);
        for i in 0..64 {
            assert_eq!(fs.file_pages(FileId(i)), 1);
        }
    }

    #[test]
    fn sub_page_files_round_up() {
        let mut rng = StdRng::seed_from_u64(4);
        let fs = FileSet::build(10 * 4096, 4096, &SizeProfile::Fixed(100), &mut rng).unwrap();
        for i in 0..fs.len() {
            assert_eq!(fs.file_pages(FileId(i as u32)), 1);
        }
    }

    #[test]
    fn from_page_counts_validates() {
        assert!(FileSet::from_page_counts(vec![], 4096).is_err());
        assert!(FileSet::from_page_counts(vec![1, 0], 4096).is_err());
        let fs = FileSet::from_page_counts(vec![2, 3], 4096).unwrap();
        assert_eq!(fs.total_pages(), 5);
        assert_eq!(fs.page_extent(FileId(1)), (2, 3));
    }

    #[test]
    fn prefix_pages_matches_manual_sum() {
        let fs = FileSet::from_page_counts(vec![2, 3, 5], 4096).unwrap();
        assert_eq!(fs.prefix_pages(0), 0);
        assert_eq!(fs.prefix_pages(1), 2);
        assert_eq!(fs.prefix_pages(2), 5);
        assert_eq!(fs.prefix_pages(3), 10);
        assert_eq!(fs.prefix_pages(99), 10);
    }

    proptest! {
        #[test]
        fn build_is_deterministic_per_seed(seed in any::<u64>()) {
            let profile = SizeProfile::SpecWeb99;
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            let a = FileSet::build(1 << 20, 4096, &profile, &mut r1).unwrap();
            let b = FileSet::build(1 << 20, 4096, &profile, &mut r2).unwrap();
            prop_assert_eq!(a, b);
        }

        #[test]
        fn total_pages_consistent(total_kb in 64u64..4096, page in prop::sample::select(vec![512u64, 4096, 65536])) {
            let mut rng = StdRng::seed_from_u64(9);
            let fs = FileSet::build(total_kb * 1024, page, &SizeProfile::SpecWeb99, &mut rng).unwrap();
            let sum: u64 = (0..fs.len()).map(|i| fs.file_pages(FileId(i as u32))).sum();
            prop_assert_eq!(sum, fs.total_pages());
        }
    }
}
