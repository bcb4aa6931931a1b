//! The store's typed error: every way a `.jpt` file (or the header of a
//! `.jx` or `.jck`, see [`crate::frame`]) can be unreadable, corrupt, or
//! malformed. Corruption never panics — it surfaces as one of these
//! variants (asserted by the corruption tests in `tests/roundtrip.rs` and
//! the workspace `store_stream` and `hostile_inputs` integration tests).

use std::error::Error;
use std::fmt;
use std::io;

use jpmd_trace::TraceError;

/// Error type for the paged binary trace store.
///
/// In page-indexed variants, page `0` is the file header and data pages
/// are numbered from `1`.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// The file does not start with the format's magic.
    BadMagic {
        /// The first eight bytes actually found.
        found: [u8; 8],
    },
    /// The file uses a format version this build cannot read.
    UnsupportedVersion {
        /// Version stamped in the header.
        found: u16,
    },
    /// The header's record stride differs from this build's record layout.
    BadRecordSize {
        /// Record size stamped in the header.
        found: u16,
    },
    /// The header's page size is outside the supported bounds.
    BadPageSize {
        /// Page size stamped in the header.
        found: u32,
    },
    /// A checksum did not match the stored one.
    Checksum {
        /// Page the mismatch occurred in (`0` = header).
        page: u64,
        /// Checksum recorded in the file.
        stored: u32,
        /// Checksum computed over the bytes read.
        computed: u32,
    },
    /// The file ended before a full header or page could be read.
    Truncated {
        /// Page the missing bytes belong to (`0` = header).
        page: u64,
    },
    /// The header still holds [`UNSEALED`](crate::frame::UNSEALED): its
    /// writer never finished.
    Unsealed,
    /// A page's record count disagrees with the header's record count.
    BadPageCount {
        /// Data page (1-based).
        page: u64,
        /// Count stored in the page.
        found: u32,
        /// Count implied by the header.
        expected: u32,
    },
    /// A record's kind byte is neither read (`0`) nor write (`1`).
    BadKind {
        /// Zero-based record index in the stream.
        index: u64,
        /// The byte found.
        value: u8,
    },
    /// A decoded record violated a trace invariant (see
    /// [`jpmd_trace::check_record`]).
    InvalidRecord(TraceError),
    /// A writer/reader parameter was outside its valid domain.
    InvalidConfig {
        /// What the parameter must satisfy.
        reason: &'static str,
    },
}

impl StoreError {
    /// True when the error condemns the *contents of one data page* —
    /// exactly the class a recovering reader
    /// ([`TraceReader::open_recovering`](crate::TraceReader::open_recovering))
    /// can skip past, because the store's fixed-size pages make the next
    /// page boundary a known resync point. I/O failures, truncation, and
    /// header-level errors are not page-local and stay fatal.
    pub fn is_page_corruption(&self) -> bool {
        matches!(
            self,
            StoreError::Checksum { .. }
                | StoreError::BadPageCount { .. }
                | StoreError::BadKind { .. }
                | StoreError::InvalidRecord(_)
        )
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "trace store I/O error: {e}"),
            StoreError::BadMagic { found } => write!(f, "foreign file (magic {found:02x?})"),
            StoreError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            StoreError::BadRecordSize { found } => {
                write!(f, "unsupported record size {found} in trace store header")
            }
            StoreError::BadPageSize { found } => {
                write!(f, "invalid page size {found} in trace store header")
            }
            StoreError::Checksum {
                page,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in page {page}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            StoreError::Truncated { page: 0 } => write!(f, "truncated inside the header (page 0)"),
            StoreError::Truncated { page } => {
                write!(f, "trace store truncated inside page {page}")
            }
            StoreError::Unsealed => write!(f, "unsealed header: its writer never finished"),
            StoreError::BadPageCount {
                page,
                found,
                expected,
            } => write!(
                f,
                "page {page} holds {found} records, header implies {expected}"
            ),
            StoreError::BadKind { index, value } => {
                write!(f, "record #{index} has invalid kind byte {value:#04x}")
            }
            StoreError::InvalidRecord(e) => write!(f, "{e}"),
            StoreError::InvalidConfig { reason } => {
                write!(f, "invalid trace store configuration: {reason}")
            }
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::InvalidRecord(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<TraceError> for StoreError {
    fn from(e: TraceError) -> Self {
        StoreError::InvalidRecord(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_the_diagnostic_fields() {
        let e = StoreError::Checksum {
            page: 3,
            stored: 0xDEAD_BEEF,
            computed: 0x1234_5678,
        };
        let s = e.to_string();
        assert!(s.contains("page 3") && s.contains("0xdeadbeef"), "{s}");
        assert!(StoreError::Truncated { page: 0 }.to_string().contains("0"));
    }

    #[test]
    fn page_corruption_classification() {
        assert!(StoreError::Checksum {
            page: 1,
            stored: 0,
            computed: 1
        }
        .is_page_corruption());
        assert!(StoreError::BadPageCount {
            page: 1,
            found: 2,
            expected: 3
        }
        .is_page_corruption());
        assert!(StoreError::BadKind { index: 0, value: 9 }.is_page_corruption());
        assert!(StoreError::InvalidRecord(TraceError::InvalidRecord {
            index: 0,
            reason: "x"
        })
        .is_page_corruption());
        assert!(!StoreError::Io(io::Error::other("x")).is_page_corruption());
        assert!(!StoreError::Truncated { page: 2 }.is_page_corruption());
        assert!(!StoreError::BadMagic { found: [0; 8] }.is_page_corruption());
    }

    #[test]
    fn sources_chain() {
        let io = StoreError::from(io::Error::other("boom"));
        assert!(Error::source(&io).is_some());
        let rec = StoreError::from(TraceError::InvalidRecord {
            index: 1,
            reason: "pages must be >= 1",
        });
        assert!(Error::source(&rec).is_some());
        assert!(rec.to_string().contains("#1"));
    }
}
