//! The storage seam every durable write path goes through.
//!
//! [`StorageBackend`] abstracts the handful of filesystem operations the
//! durability stack performs — create/open, rename, remove, parent-dir
//! sync — and [`StorageFile`] abstracts the per-handle operations
//! (read/write/seek plus `sync_all`/`sync_data`/`set_len`). The default
//! implementation, [`RealFs`], forwards every call to `std::fs` and is
//! proven bit-identical to direct filesystem use by the `backend_noop`
//! identity tests (the same contract `jpmd-faults` pins for its noop
//! fault plans).
//!
//! The point of the seam is *fault injection*: `jpmd-faults` wraps an
//! inner backend in a `FaultyStorage` that deterministically injects
//! ENOSPC, EIO, short writes, failed fsyncs, and crashed renames into
//! the write-class operations, so the WAL sinks, period index, and
//! checkpoint seal protocol can be tortured without root, loop devices,
//! or real disk failures. Read-class operations are never faulted —
//! recovery code must be able to *see* what survived.
//!
//! Every durable writer in `jpmd-store` (`TraceWriter`,
//! `PeriodIndexWriter`) has a `*_on` constructor that takes a backend,
//! and its plain constructor is that same path on [`RealFs`]: no file is
//! opened around the seam, and callers pay nothing but a vtable
//! indirection.

use std::fmt::Debug;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, Write};
use std::path::Path;
use std::sync::Arc;

/// An open file handle behind the storage seam.
///
/// The supertraits carry the data plane ([`Read`]/[`Write`]/[`Seek`]);
/// the inherent methods carry the durability plane, which is where
/// fault injection concentrates. `Send` and `Debug` are required so
/// handles can live inside the existing `Send + Debug` store types.
pub trait StorageFile: Read + Write + Seek + Send + Debug {
    /// Flushes data *and* metadata to stable storage (`fsync`).
    fn sync_all(&mut self) -> io::Result<()>;

    /// Flushes data to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;

    /// Truncates or extends the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;

    /// Current file length in bytes.
    fn len(&mut self) -> io::Result<u64>;

    /// Whether the file is empty.
    fn is_empty(&mut self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

impl StorageFile for File {
    fn sync_all(&mut self) -> io::Result<()> {
        File::sync_all(self)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}

/// The filesystem operations the durability stack performs.
///
/// Implementations must be usable from multiple threads (the serve
/// daemon shares one backend across tenant workers).
pub trait StorageBackend: Send + Sync + Debug {
    /// Creates (truncating) a file open for read + write.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Opens an existing file for read + write.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Opens an existing file for appending (+ read).
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;

    /// Renames `from` to `to` (the atomic-publish step).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file, propagating errors (callers decide tolerance).
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;

    /// Fsyncs the directory containing `path` (see
    /// [`sync_parent_dir`](crate::sync_parent_dir)).
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()>;
}

/// The default backend: plain `std::fs`, nothing injected.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

impl StorageBackend for RealFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(file))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(Box::new(file))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new().read(true).append(true).open(path)?;
        Ok(Box::new(file))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        crate::sync_parent_dir(path)
    }
}

/// A cloneable, shareable handle to a [`StorageBackend`].
///
/// This is what configuration structs carry: it is `Clone + Debug +
/// Default` (defaulting to [`RealFs`]) so it composes with derived
/// `Clone`/`Debug` on the structs that hold it.
#[derive(Clone, Debug)]
pub struct SharedBackend(Arc<dyn StorageBackend>);

impl SharedBackend {
    /// Wraps a backend.
    pub fn new(backend: Arc<dyn StorageBackend>) -> Self {
        SharedBackend(backend)
    }

    /// The plain-filesystem backend.
    pub fn real_fs() -> Self {
        SharedBackend(Arc::new(RealFs))
    }
}

impl Default for SharedBackend {
    fn default() -> Self {
        SharedBackend::real_fs()
    }
}

impl std::ops::Deref for SharedBackend {
    type Target = dyn StorageBackend;

    fn deref(&self) -> &Self::Target {
        self.0.as_ref()
    }
}

impl<B: StorageBackend + 'static> From<B> for SharedBackend {
    fn from(backend: B) -> Self {
        SharedBackend(Arc::new(backend))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_fs_round_trips_and_reports_lengths() {
        let dir = std::env::temp_dir().join(format!("jpmd-backend-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        let backend = RealFs;

        let mut file = backend.create(&path).unwrap();
        file.write_all(b"hello world").unwrap();
        file.sync_data().unwrap();
        assert_eq!(file.len().unwrap(), 11);
        assert!(!file.is_empty().unwrap());
        file.set_len(5).unwrap();
        file.sync_all().unwrap();
        drop(file);

        let mut file = backend.open_rw(&path).unwrap();
        let mut buf = Vec::new();
        file.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"hello");
        drop(file);

        let renamed = dir.join("renamed.bin");
        backend.rename(&path, &renamed).unwrap();
        backend.sync_parent_dir(&renamed).unwrap();
        assert!(!backend.exists(&path));
        assert!(backend.exists(&renamed));
        backend.remove_file(&renamed).unwrap();
        assert!(!backend.exists(&renamed));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_append_appends_past_existing_bytes() {
        let dir = std::env::temp_dir().join(format!("jpmd-backend-app-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.bin");
        let backend = RealFs;
        backend.create(&path).unwrap().write_all(b"ab").unwrap();
        let mut file = backend.open_append(&path).unwrap();
        file.write_all(b"cd").unwrap();
        drop(file);
        assert_eq!(std::fs::read(&path).unwrap(), b"abcd");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_backend_defaults_to_real_fs_and_derefs() {
        let shared = SharedBackend::default();
        let dir = std::env::temp_dir();
        assert!(shared.exists(&dir));
        let cloned = shared.clone();
        assert!(cloned.exists(&dir));
        let from: SharedBackend = RealFs.into();
        assert!(format!("{from:?}").contains("RealFs"));
    }
}
