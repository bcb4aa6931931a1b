//! Seeded request streams over fixed sites.
//!
//! A site — its file set, drawn from the SPECWeb99-style size mixture, and
//! the Zipf popularity calibrated on it — is built from a fixed seed, so
//! every benchmark seed serves the same files. `--seed` draws the request
//! stream the way `WorkloadBuilder` does: Poisson arrivals at the target
//! byte rate, Zipf-ranked whole-file requests, and the read/write mix.
//! Drawing the file sizes from `--seed` as well moves throughput by tens of
//! percent from seed to seed (the sizes of the few hottest files set the
//! pages per request), which would swamp the changes the benchmark exists
//! to resolve.
//!
//! The trace layer's own generator is still part of every set-up:
//! [`time_builder`] runs `WorkloadBuilder::build` with the workload's
//! parameters and the site's seed — so it draws the same file set and does
//! the same work whatever `--seed` is — and reports how long it took
//! (`trace.gen_s`); its trace is dropped.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use jpmd_stats::Zipf;
use jpmd_trace::{
    calibrate_popularity, AccessKind, FileId, FileSet, Trace, TraceRecord, WorkloadBuilder,
};

/// The seed every site's file set is drawn from (the repository's
/// experiment default).
pub const SITE_SEED: u64 = 42;

/// Host seconds `WorkloadBuilder::build` takes for a trace with these
/// parameters, drawn from `seed`.
pub fn time_builder(
    data_bytes: u64,
    page_bytes: u64,
    popularity: f64,
    rate_bytes_per_sec: u64,
    duration_secs: f64,
    write_fraction: f64,
    seed: u64,
) -> Result<f64, String> {
    let mut builder = WorkloadBuilder::new();
    builder
        .data_set_bytes(data_bytes)
        .page_bytes(page_bytes)
        .popularity(popularity)
        .rate_bytes_per_sec(rate_bytes_per_sec)
        .duration_secs(duration_secs)
        .write_fraction(write_fraction)
        .seed(seed);
    let start = Instant::now();
    builder
        .build()
        .map_err(|e| format!("trace generation: {e}"))?;
    Ok(start.elapsed().as_secs_f64())
}

pub struct Site {
    fileset: FileSet,
    zipf: Zipf,
    /// Popularity-weighted mean request size, bytes.
    mean_request_bytes: f64,
}

impl Site {
    /// A site of `data_bytes` in pages of `page_bytes`, whose hottest
    /// `popularity` fraction of bytes takes 90 % of the requests.
    pub fn new(
        data_bytes: u64,
        page_bytes: u64,
        popularity: f64,
        seed: u64,
    ) -> Result<Site, String> {
        let fail = |e: &dyn std::fmt::Display| format!("site generation: {e}");
        let mut rng = StdRng::seed_from_u64(seed);
        let profile = WorkloadBuilder::default_profile(page_bytes);
        let fileset =
            FileSet::build(data_bytes, page_bytes, &profile, &mut rng).map_err(|e| fail(&e))?;
        let exponent = calibrate_popularity(&fileset, popularity).map_err(|e| fail(&e))?;
        let zipf = Zipf::new(fileset.len(), exponent).map_err(|e| fail(&e))?;
        let mean_request_bytes = (0..fileset.len())
            .map(|k| zipf.pmf(k) * (fileset.file_pages(FileId(k as u32)) * page_bytes) as f64)
            .sum();
        Ok(Site {
            fileset,
            zipf,
            mean_request_bytes,
        })
    }

    /// `duration_secs` of requests at `rate_bytes_per_sec`, a
    /// `write_fraction` of them writes, drawn from `seed`.
    pub fn trace(
        &self,
        rate_bytes_per_sec: u64,
        duration_secs: f64,
        write_fraction: f64,
        seed: u64,
    ) -> Trace {
        let lambda = rate_bytes_per_sec as f64 / self.mean_request_bytes;
        let mut rng = StdRng::seed_from_u64(seed);
        // Sized for the expected count plus four standard deviations, so
        // the peak RSS does not jump with the seed when a growing vector
        // doubles past a power of two.
        let expected = lambda * duration_secs;
        let mut records = Vec::with_capacity((expected + 4.0 * expected.sqrt()) as usize + 16);
        let mut t = 0.0f64;
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / lambda;
            if t >= duration_secs {
                break;
            }
            let file = FileId(self.zipf.sample(&mut rng) as u32);
            let (first_page, pages) = self.fileset.page_extent(file);
            let write = write_fraction > 0.0 && rng.gen_bool(write_fraction);
            records.push(TraceRecord {
                time: t,
                file,
                first_page,
                pages,
                kind: if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            });
        }
        Trace::new(
            records,
            self.fileset.page_bytes(),
            self.fileset.total_pages(),
        )
    }
}
