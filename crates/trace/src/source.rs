//! The [`TraceSource`] seam: streaming access to trace records.
//!
//! The simulator's replay engine only ever walks a trace front to back, so
//! it does not need the whole record vector in memory — it needs an
//! iterator plus the two pieces of metadata required to size the hardware
//! (`page_bytes`, `total_pages`). [`TraceSource`] captures exactly that.
//!
//! Two implementations exist:
//!
//! * [`TraceRecords`], the in-memory source over a [`Trace`] (obtained via
//!   [`Trace::source`]) — infallible;
//! * `jpmd_store::TraceReader`, the paged binary store's streaming reader —
//!   replays multi-GB traces at O(page) resident memory and surfaces
//!   corruption as [`SourceError`]s wrapping typed store errors.
//!
//! Both must yield the *same record sequence* for the same trace; the
//! engine guarantees bit-identical reports in return (asserted by the
//! `store_stream` integration tests).

use std::error::Error;
use std::fmt;

use crate::{Trace, TraceRecord};

/// An error produced while pulling records out of a [`TraceSource`].
///
/// Streaming sources fail for source-specific reasons (I/O, checksum
/// mismatch, malformed records); this type erases the concrete error while
/// keeping it reachable through [`SourceError::inner`] /
/// [`Error::source`] for callers that want to match on it.
///
/// An error may be flagged *transient* ([`SourceError::transient`]): the
/// source expects the same pull to succeed if retried (a flaky network
/// hop, an interrupted read). The replay engine retries transient errors
/// with a bounded budget; non-transient errors abort the replay.
#[derive(Debug)]
pub struct SourceError {
    inner: Box<dyn Error + Send + Sync + 'static>,
    transient: bool,
}

impl SourceError {
    /// Wraps a concrete, non-transient source error.
    pub fn new<E: Error + Send + Sync + 'static>(inner: E) -> Self {
        SourceError {
            inner: Box::new(inner),
            transient: false,
        }
    }

    /// Wraps a concrete error that a retry of the same pull may clear.
    pub fn transient<E: Error + Send + Sync + 'static>(inner: E) -> Self {
        SourceError {
            inner: Box::new(inner),
            transient: true,
        }
    }

    /// Whether retrying the pull may succeed.
    pub fn is_transient(&self) -> bool {
        self.transient
    }

    /// The concrete error this wraps.
    pub fn inner(&self) -> &(dyn Error + Send + Sync + 'static) {
        self.inner.as_ref()
    }

    /// Attempts to view the concrete error as an `E`.
    pub fn downcast_ref<E: Error + 'static>(&self) -> Option<&E> {
        self.inner.downcast_ref::<E>()
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace source error: {}", self.inner)
    }
}

impl Error for SourceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(self.inner.as_ref())
    }
}

/// A streaming supply of [`TraceRecord`]s in non-decreasing time order,
/// plus the metadata needed to interpret them.
///
/// The replay engine ([`Engine::replay_source`](../jpmd_sim/engine/struct.Engine.html#method.replay_source))
/// consumes any `TraceSource`; implementations decide where the records
/// come from (a `Vec`, a paged binary file, a network stream, …).
pub trait TraceSource {
    /// Page size in bytes the record page numbers are expressed in.
    fn page_bytes(&self) -> u64;

    /// Number of pages in the backing data set (the page space).
    fn total_pages(&self) -> u64;

    /// The next record in time order, `None` at end of stream, or an error
    /// for unreadable/corrupt sources. After an error or `None` the source
    /// is exhausted; further calls return `None`.
    fn next_record(&mut self) -> Option<Result<TraceRecord, SourceError>>;
}

/// A mutable reference to a source is itself a source, so callers can keep
/// ownership of a reader/wrapper (e.g. to inspect its counters or recovery
/// summary) while the replay engine drives it.
impl<T: TraceSource + ?Sized> TraceSource for &mut T {
    fn page_bytes(&self) -> u64 {
        (**self).page_bytes()
    }

    fn total_pages(&self) -> u64 {
        (**self).total_pages()
    }

    fn next_record(&mut self) -> Option<Result<TraceRecord, SourceError>> {
        (**self).next_record()
    }
}

/// The in-memory [`TraceSource`] over a [`Trace`] (see [`Trace::source`]).
/// Never yields an error.
#[derive(Debug, Clone)]
pub struct TraceRecords<'a> {
    trace: &'a Trace,
    index: usize,
}

impl<'a> TraceRecords<'a> {
    pub(crate) fn new(trace: &'a Trace) -> Self {
        TraceRecords { trace, index: 0 }
    }
}

impl TraceSource for TraceRecords<'_> {
    fn page_bytes(&self) -> u64 {
        self.trace.page_bytes()
    }

    fn total_pages(&self) -> u64 {
        self.trace.total_pages()
    }

    fn next_record(&mut self) -> Option<Result<TraceRecord, SourceError>> {
        let record = self.trace.records().get(self.index)?;
        self.index += 1;
        Some(Ok(*record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FileId;

    fn rec(time: f64, first_page: u64) -> TraceRecord {
        TraceRecord {
            time,
            file: FileId(0),
            first_page,
            pages: 1,
            kind: crate::AccessKind::Read,
        }
    }

    #[test]
    fn in_memory_source_yields_all_records_in_order() {
        let t = Trace::new(vec![rec(2.0, 1), rec(1.0, 0)], 4096, 8);
        let mut s = t.source();
        assert_eq!(s.page_bytes(), 4096);
        assert_eq!(s.total_pages(), 8);
        let times: Vec<f64> = std::iter::from_fn(|| s.next_record())
            .map(|r| r.unwrap().time)
            .collect();
        assert_eq!(times, vec![1.0, 2.0]);
        assert!(s.next_record().is_none());
    }

    #[test]
    fn source_error_preserves_the_inner_error() {
        let inner = crate::TraceError::InvalidConfig {
            name: "rate",
            requirement: "must be positive",
        };
        let e = SourceError::new(inner.clone());
        assert!(e.to_string().contains("rate"));
        assert_eq!(e.downcast_ref::<crate::TraceError>(), Some(&inner));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn transient_flag_distinguishes_retryable_errors() {
        let inner = crate::TraceError::InvalidConfig {
            name: "x",
            requirement: "y",
        };
        assert!(!SourceError::new(inner.clone()).is_transient());
        assert!(SourceError::transient(inner).is_transient());
    }

    #[test]
    fn mut_reference_is_a_source() {
        let t = Trace::new(vec![rec(1.0, 0)], 4096, 8);
        let mut s = t.source();
        let mut by_ref = &mut s;
        assert_eq!(TraceSource::page_bytes(&by_ref), 4096);
        assert_eq!(TraceSource::total_pages(&by_ref), 8);
        assert!(matches!(TraceSource::next_record(&mut by_ref), Some(Ok(_))));
        // The original source observed the pull.
        assert!(s.next_record().is_none());
    }
}
