//! The `.jck` on-disk format: a 64-byte CRC-guarded header followed by
//! one binary-encoded value tree (see [`crate::codec`]).
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"JPMDCKP1"
//!      8     2  format version (LE), currently 1
//!     10     8  payload length in bytes (LE); frame::UNSEALED until sealed
//!     18     4  CRC-32 of the payload (LE)
//!     22    38  reserved, zero
//!     60     4  CRC-32 of header bytes 0..60 (LE)
//!     64     —  payload (binary value tree)
//! ```
//!
//! **Write protocol** (crash-consistent): the file is written under a
//! temporary sibling name with an *unsealed* header (`payload_len =
//! UNSEALED`), the payload appended, the header rewritten sealed, the
//! file fsynced, atomically renamed over the destination, and the parent
//! directory fsynced ([`jpmd_store::sync_parent_dir`]). A crash at any
//! point leaves either the previous good checkpoint (rename not yet
//! durable) or a file that [`read_jck`] rejects as
//! [`CkptError::Torn`] — never a silently wrong resume point.
//!
//! **Read protocol**: the header frame first ([`CHECKPOINT`]: magic,
//! header length, version, header CRC, unsealed length, in that order),
//! then the payload length and CRC — so a foreign file is named as
//! foreign before any complaint about its size or checksum, and every
//! physical defect is a typed error.

use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use jpmd_store::frame::{CHECKPOINT, UNSEALED};
use jpmd_store::{crc32, SharedBackend, StoreError};
use serde::Value;

use crate::codec;
use crate::error::CkptError;

fn encode_header(payload_len: u64, payload_crc: u32) -> [u8; CHECKPOINT.header_bytes] {
    let mut buf = [0u8; CHECKPOINT.header_bytes];
    buf[10..18].copy_from_slice(&payload_len.to_le_bytes());
    buf[18..22].copy_from_slice(&payload_crc.to_le_bytes());
    CHECKPOINT.seal(&mut buf);
    buf
}

/// Serializes `root` into `path` with the crash-consistent write
/// protocol described in the module docs.
pub(crate) fn write_jck(path: &Path, root: &Value) -> Result<(), CkptError> {
    write_jck_on(&SharedBackend::real_fs(), path, root)
}

/// [`write_jck`] through an explicit storage backend (the fault-injection
/// seam). On **any** failure the temp sibling is deleted best-effort, so
/// a failed seal never leaves a stale `<name>.jck.tmp` behind — and never
/// a valid-looking `.jck`, since the destination is only ever touched by
/// the final atomic rename.
pub(crate) fn write_jck_on(
    backend: &SharedBackend,
    path: &Path,
    root: &Value,
) -> Result<(), CkptError> {
    let payload = codec::encode(root);
    let file_name = path
        .file_name()
        .ok_or_else(|| CkptError::Io(std::io::Error::other("checkpoint path has no file name")))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);

    let sealed = (|| -> Result<(), CkptError> {
        let mut file = backend.create(&tmp)?;
        file.write_all(&encode_header(UNSEALED, 0))?;
        file.write_all(&payload)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&encode_header(payload.len() as u64, crc32(&payload)))?;
        file.sync_all()?;
        drop(file);
        backend.rename(&tmp, path)?;
        backend.sync_parent_dir(path)?;
        Ok(())
    })();
    if sealed.is_err() {
        backend.remove_file(&tmp).ok();
    }
    sealed
}

/// Loads and validates `path`, returning the decoded payload tree.
pub(crate) fn read_jck(path: &Path) -> Result<Value, CkptError> {
    let data = fs::read(path)?;
    let mut payload = &data[..];
    let header = CHECKPOINT.open(&mut payload).map_err(|e| match e {
        StoreError::BadMagic { found } => CkptError::BadMagic { found },
        StoreError::UnsupportedVersion { found } => CkptError::UnsupportedVersion { found },
        other => CkptError::Torn {
            detail: other.to_string(),
        },
    })?;
    let payload_len = u64::from_le_bytes(header[10..18].try_into().expect("8-byte slice"));
    let payload_crc = u32::from_le_bytes(header[18..22].try_into().expect("4-byte slice"));
    if payload.len() as u64 != payload_len {
        return Err(CkptError::Torn {
            detail: format!(
                "payload truncated: header promises {payload_len} bytes, file carries {}",
                payload.len()
            ),
        });
    }
    if crc32(payload) != payload_crc {
        return Err(CkptError::Torn {
            detail: "payload checksum mismatch".into(),
        });
    }
    codec::decode(payload).map_err(CkptError::Decode)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER_BYTES: usize = CHECKPOINT.header_bytes;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("jpmd-ckpt-format-{tag}-{}.jck", std::process::id()))
    }

    fn sample() -> Value {
        Value::Object(vec![
            ("label".into(), Value::Str("run".into())),
            (
                "floats".into(),
                Value::Array(vec![Value::F64(f64::NAN), Value::F64(-0.0)]),
            ),
        ])
    }

    #[test]
    fn writes_seal_atomically_and_read_back() {
        let path = tmp_path("roundtrip");
        write_jck(&path, &sample()).expect("write");
        let back = read_jck(&path).expect("read");
        assert_eq!(format!("{back:?}"), format!("{:?}", sample()));
        // Overwriting in place goes through the same temp+rename publish.
        write_jck(&path, &Value::Null).expect("rewrite");
        assert_eq!(read_jck(&path).expect("reread"), Value::Null);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_and_future_files_are_named_before_checksums() {
        let path = tmp_path("foreign");
        fs::write(&path, b"JPMDTRC1this is a trace store, not a checkpoint").expect("write");
        match read_jck(&path) {
            Err(CkptError::BadMagic { found }) => assert_eq!(&found, b"JPMDTRC1"),
            other => panic!("expected BadMagic, got {other:?}"),
        }

        write_jck(&path, &sample()).expect("write");
        let mut bytes = fs::read(&path).expect("read");
        bytes[8..10].copy_from_slice(&7u16.to_le_bytes());
        // Re-seal the header CRC so only the version is wrong.
        let crc = crc32(&bytes[..HEADER_BYTES - 4]);
        bytes[HEADER_BYTES - 4..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).expect("rewrite");
        match read_jck(&path) {
            Err(CkptError::UnsupportedVersion { found: 7 }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn a_surviving_poison_header_reads_as_torn() {
        let path = tmp_path("poison");
        write_jck(&path, &sample()).expect("write");
        let mut bytes = fs::read(&path).expect("read");
        bytes[10..18].copy_from_slice(&u64::MAX.to_le_bytes());
        let crc = crc32(&bytes[..HEADER_BYTES - 4]);
        bytes[HEADER_BYTES - 4..HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).expect("rewrite");
        match read_jck(&path) {
            Err(CkptError::Torn { detail }) => assert!(detail.contains("unsealed"), "{detail}"),
            other => panic!("expected Torn, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_corruption_is_torn() {
        let path = tmp_path("flip");
        write_jck(&path, &sample()).expect("write");
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        match read_jck(&path) {
            Err(CkptError::Torn { detail }) => assert!(detail.contains("checksum"), "{detail}"),
            other => panic!("expected Torn, got {other:?}"),
        }
        fs::remove_file(&path).ok();
    }
}
