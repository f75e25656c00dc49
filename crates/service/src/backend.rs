//! Storage backends: the I/O seam between the artifact store's [`Store`]
//! stripes and the world.
//!
//! The store never touches `std::fs` directly; every read, atomic
//! publish, delete and directory listing goes through a [`Backend`] trait
//! object. Two implementations exist:
//!
//! - [`FsBackend`] — the real filesystem, with the same
//!   write-to-temp + fsync + rename publish discipline the store has
//!   always used;
//! - [`ChaosBackend`](crate::chaos::ChaosBackend) — a deterministic
//!   fault-injecting wrapper that subjects the store to torn writes,
//!   transient `EIO`/`ENOSPC`, post-write bit flips, rename failures and
//!   stale temp-file litter from a seeded schedule.
//!
//! The seam exists so the robustness claims in DESIGN.md §12 are *tested*
//! rather than asserted: `chaosbench` replays thousands of requests
//! against a chaos-backed store and checks that every fault collapses to
//! a retry, a miss, an eviction or degraded-mode compilation — never a
//! wrong answer and never a panic. That is the same stance the verified
//! loads take toward cache contents (re-check, never believe), extended
//! to the I/O layer itself.
//!
//! [`Store`]: crate::store::Store

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// The I/O operations the artifact store needs, as a mockable seam.
///
/// Implementations must be `Send + Sync`: a [`ShardedStore`] stripe runs
/// concurrent verified loads under one shared read lock, so several
/// workers read through the same backend at once.
///
/// [`ShardedStore`]: crate::shard::ShardedStore
pub trait Backend: std::fmt::Debug + Send + Sync {
    /// A short name for reports (`"fs"`, `"chaos"`).
    fn name(&self) -> &'static str;

    /// Creates `path` and any missing parents.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Reads the whole file at `path` as UTF-8.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error; non-UTF-8 contents surface as
    /// [`io::ErrorKind::InvalidData`], which the store treats as
    /// *corruption* (evict), not as an I/O fault (retry).
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Atomically publishes `bytes` at `dst`: writes to `tmp` (which must
    /// live in the same directory), syncs, then renames over `dst`.
    /// Concurrent readers see the old contents or the new contents, never
    /// a torn file. On failure the implementation removes `tmp` on a
    /// best-effort basis — a mid-write crash is exactly what leaves the
    /// orphans that opening a store ([`ShardedStore::open`]) scavenges.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    ///
    /// [`ShardedStore::open`]: crate::shard::ShardedStore::open
    fn write_atomic(&self, tmp: &Path, dst: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Deletes the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Lists the entries of the directory at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Creates `path` *exclusively* (failing with
    /// [`io::ErrorKind::AlreadyExists`] if it exists) and writes `bytes`.
    /// This is the primitive the advisory store lock is built on.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
}

/// The real filesystem backend.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsBackend;

impl Backend for FsBackend {
    fn name(&self) -> &'static str {
        "fs"
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        fs::read_to_string(path)
    }

    fn write_atomic(&self, tmp: &Path, dst: &Path, bytes: &[u8]) -> io::Result<()> {
        let write = (|| -> io::Result<()> {
            let mut f = fs::File::create(tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            fs::rename(tmp, dst)
        })();
        if write.is_err() {
            let _ = fs::remove_file(tmp);
        }
        write
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(path)? {
            out.push(entry?.path());
        }
        // Deterministic order: `read_dir` order is filesystem-dependent,
        // and recovery/scavenging reports are easier to test when stable.
        out.sort();
        Ok(out)
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new().write(true).create_new(true).open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rupicola-backend-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_publishes_and_cleans_up_tmp() {
        let dir = scratch("atomic");
        let b = FsBackend;
        let dst = dir.join("a.json");
        let tmp = dir.join("a.json.tmp.1");
        b.write_atomic(&tmp, &dst, b"hello").unwrap();
        assert_eq!(b.read_to_string(&dst).unwrap(), "hello");
        assert!(!tmp.exists(), "tmp must be renamed away");
        // Overwrite goes through the same path.
        b.write_atomic(&tmp, &dst, b"world").unwrap();
        assert_eq!(b.read_to_string(&dst).unwrap(), "world");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_exclusive_refuses_an_existing_file() {
        let dir = scratch("excl");
        let b = FsBackend;
        let path = dir.join("lock");
        b.create_exclusive(&path, b"1").unwrap();
        let err = b.create_exclusive(&path, b"2").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert_eq!(b.read_to_string(&path).unwrap(), "1", "loser must not clobber");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_utf8_contents_surface_as_invalid_data() {
        let dir = scratch("utf8");
        let b = FsBackend;
        let path = dir.join("bad");
        fs::write(&path, [0xff, 0xfe, 0x00]).unwrap();
        let err = b.read_to_string(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_dir_is_sorted() {
        let dir = scratch("list");
        let b = FsBackend;
        fs::write(dir.join("b"), b"").unwrap();
        fs::write(dir.join("a"), b"").unwrap();
        fs::write(dir.join("c"), b"").unwrap();
        let names: Vec<_> = b
            .list_dir(&dir)
            .unwrap()
            .into_iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a", "b", "c"]);
        let _ = fs::remove_dir_all(&dir);
    }
}
