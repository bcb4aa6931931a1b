//! The header frame `.jpt`, `.jx` and `.jck` files share: eight magic
//! bytes, a `u16` version, the format's own fields, and a CRC-32 of all
//! that in the last four bytes. A format sealed in place (`.jpt`, `.jck`)
//! also names a `u64` field its writer holds at [`UNSEALED`] until it
//! finishes, so a file left by a crashed writer is refused at open.
//!
//! [`Frame::open`] checks every format in one order: the magic (whenever
//! 8 bytes are present), the header length, the version, the CRC, then
//! the unsealed field. The format then checks its own fields.

use std::io::Read;

use crate::crc32::crc32;
use crate::StoreError;

/// The value a sealed-in-place field holds until its writer finishes.
pub const UNSEALED: u64 = u64::MAX;

/// One format's header frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// The eight bytes every file of the format starts with.
    pub magic: [u8; 8],
    /// The one version this build reads and writes.
    pub version: u16,
    /// Bytes in the header, its trailing CRC included.
    pub header_bytes: usize,
    /// Offset of the `u64` that holds [`UNSEALED`] until the writer
    /// finishes; `None` for a format that is never sealed.
    pub sealed_at: Option<usize>,
}

/// `.jpt` trace store; the record count is sealed in place.
pub const TRACE: Frame = Frame {
    magic: *b"JPMDTRC1",
    version: 1,
    header_bytes: 64,
    sealed_at: Some(32),
};

/// `.jx` period index; append-only, never sealed.
pub const INDEX: Frame = Frame {
    magic: *b"JPMDIDX1",
    version: 1,
    header_bytes: 24,
    sealed_at: None,
};

/// `.jck` checkpoint; the payload length is sealed in place.
pub const CHECKPOINT: Frame = Frame {
    magic: *b"JPMDCKP1",
    version: 1,
    header_bytes: 64,
    sealed_at: Some(10),
};

impl Frame {
    /// Stamps the magic, the version and the CRC into `header` (exactly
    /// [`Frame::header_bytes`] long), whose format fields are written.
    pub fn seal(&self, header: &mut [u8]) {
        assert_eq!(header.len(), self.header_bytes, "header length");
        header[0..8].copy_from_slice(&self.magic);
        header[8..10].copy_from_slice(&self.version.to_le_bytes());
        let (body, crc) = header.split_at_mut(self.header_bytes - 4);
        crc.copy_from_slice(&crc32(body).to_le_bytes());
    }

    /// Reads one header from `input` and checks it in the order the
    /// module docs give. Returns the header's bytes; `input` is left at
    /// the first byte after it.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`], [`StoreError::Truncated`] (page 0),
    /// [`StoreError::UnsupportedVersion`], [`StoreError::Checksum`]
    /// (page 0) or [`StoreError::Unsealed`], in that order; I/O failures.
    pub fn open(&self, input: &mut impl Read) -> Result<Vec<u8>, StoreError> {
        let mut header = Vec::with_capacity(self.header_bytes);
        input
            .take(self.header_bytes as u64)
            .read_to_end(&mut header)?;
        if header.len() >= 8 && header[0..8] != self.magic {
            let found = header[0..8].try_into().expect("8-byte slice");
            return Err(StoreError::BadMagic { found });
        }
        if header.len() < self.header_bytes {
            return Err(StoreError::Truncated { page: 0 });
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != self.version {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let (body, crc) = header.split_at(self.header_bytes - 4);
        let stored = u32::from_le_bytes(crc.try_into().expect("4-byte slice"));
        let computed = crc32(body);
        if stored != computed {
            return Err(StoreError::Checksum {
                page: 0,
                stored,
                computed,
            });
        }
        if let Some(at) = self.sealed_at {
            let field = u64::from_le_bytes(header[at..at + 8].try_into().expect("8-byte slice"));
            if field == UNSEALED {
                return Err(StoreError::Unsealed);
            }
        }
        Ok(header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(frame: &Frame, field: u64) -> Vec<u8> {
        let mut header = vec![0u8; frame.header_bytes];
        let at = frame.sealed_at.unwrap_or(10);
        header[at..at + 8].copy_from_slice(&field.to_le_bytes());
        frame.seal(&mut header);
        header
    }

    fn open(frame: &Frame, bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
        frame.open(&mut &bytes[..])
    }

    #[test]
    fn a_sealed_header_opens_and_leaves_the_input_after_it() {
        for frame in [TRACE, INDEX, CHECKPOINT] {
            let mut bytes = sealed(&frame, 7);
            bytes.extend_from_slice(b"body");
            let mut input = &bytes[..];
            assert_eq!(frame.open(&mut input).unwrap(), sealed(&frame, 7));
            assert_eq!(input, b"body");
        }
    }

    #[test]
    fn checks_run_in_one_order() {
        let good = sealed(&TRACE, 7);
        // Foreign magic wins over everything, even a short file.
        let mut foreign = good.clone();
        foreign[0] = b'X';
        foreign[20] ^= 1;
        assert!(matches!(
            open(&TRACE, &foreign[..10]),
            Err(StoreError::BadMagic { .. })
        ));
        assert!(matches!(
            open(&TRACE, &[0u8; 10]),
            Err(StoreError::BadMagic { .. })
        ));
        // Fewer than 8 bytes cannot be named, only called short.
        assert!(matches!(
            open(&TRACE, &good[..5]),
            Err(StoreError::Truncated { page: 0 })
        ));
        assert!(matches!(
            open(&TRACE, &good[..63]),
            Err(StoreError::Truncated { page: 0 })
        ));
        // The version comes before the CRC that no longer matches it.
        let mut future = good.clone();
        future[8] = 9;
        assert!(matches!(
            open(&TRACE, &future),
            Err(StoreError::UnsupportedVersion { found: 9 })
        ));
        let mut flipped = good.clone();
        flipped[20] ^= 1;
        assert!(matches!(
            open(&TRACE, &flipped),
            Err(StoreError::Checksum { page: 0, .. })
        ));
        // Unsealed is checked last, on an otherwise valid header.
        let unsealed = sealed(&TRACE, UNSEALED);
        assert!(matches!(open(&TRACE, &unsealed), Err(StoreError::Unsealed)));
        let mut torn = unsealed.clone();
        torn[40] ^= 1;
        assert!(matches!(
            open(&TRACE, &torn),
            Err(StoreError::Checksum { page: 0, .. })
        ));
    }

    #[test]
    fn an_unsealed_value_means_nothing_to_a_format_never_sealed() {
        assert!(open(&INDEX, &sealed(&INDEX, UNSEALED)).is_ok());
        assert!(matches!(
            open(&CHECKPOINT, &sealed(&CHECKPOINT, UNSEALED)),
            Err(StoreError::Unsealed)
        ));
    }
}
