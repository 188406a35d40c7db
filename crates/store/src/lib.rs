//! Crash-consistent storage for the CIRC pipeline.
//!
//! Every artifact the pipeline persists — the entailment-cache and
//! solver-cache snapshots, the predicate store, the batch journal —
//! routes its file I/O through this crate, so the durability rules
//! live in exactly one place:
//!
//! * **Durable atomic writes** ([`Store::write_atomic`]): write a
//!   same-directory `*.tmp` file, `fsync` it, rename it over the
//!   destination, then `fsync` the parent directory. A crash at any
//!   step leaves either the complete old snapshot or the complete new
//!   one — never a torn file — at the price of a possible stale
//!   `*.tmp`, which the next run's [`Store::sweep_stale_tmps`]
//!   removes.
//! * **A fault-injectable I/O facade** (the [`Vfs`] trait): the real
//!   backend and a seeded fault-injecting backend share one
//!   interface, so the crash-point torture harness can fail or
//!   truncate any write, fsync, rename, lock, append, or read
//!   deterministically via a [`circ_governor::FaultPlan`] armed with
//!   [`IoFaultPoint`]s. Without the `inject` cargo feature every
//!   injection decision is a constant `false` and the fault backend
//!   behaves exactly like the real one.
//! * **Advisory cross-process locking** ([`Store::lock_dir`]): a
//!   shared cache directory is guarded by an advisory file lock on
//!   `.circ.lock`, so a resident `circ serve` daemon and a concurrent
//!   `circ batch` run flush under mutual exclusion and can
//!   read-merge-write instead of last-writer-wins clobbering each
//!   other's learned entries.
//!
//! The degradation contract mirrors the rest of the workspace: any
//! I/O failure here may cost warm-start time (a cold start, a
//! re-check, a skipped persist that leaves the previous snapshot
//! intact) but can never flip a verdict, because callers treat every
//! error as "no usable snapshot" and re-derive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use circ_governor::{FaultPlan, IoFaultPoint};
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Suffix of the temporary files [`Store::write_atomic`] stages
/// through (`<artifact>.tmp`, same directory as the artifact).
pub const TMP_SUFFIX: &str = ".tmp";

/// Name of the advisory lock file guarding a cache directory.
pub const LOCK_FILE: &str = ".circ.lock";

/// The primitive file operations the storage layer is built from.
///
/// Implementations: [`RealVfs`] (thin wrappers over `std::fs`) and
/// [`FaultVfs`] (same, but each operation first consults a
/// [`FaultPlan`] and fails — or yields truncated data — when its
/// [`IoFaultPoint`] is armed). Keeping the surface this small is what
/// makes the crash-point enumeration exhaustive: there is no write,
/// sync, rename, lock, append, or read the harness cannot fail.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Reads a whole file to a string.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;
    /// Creates/truncates `path` and writes `bytes` to it (the staging
    /// write of the atomic-write protocol).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes a written file's contents and metadata to disk.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` over `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Flushes a directory entry table to disk (makes a completed
    /// rename durable).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Creates a directory and its ancestors.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Appends `bytes` to an open file and flushes (the journal's
    /// one-`write_all`-per-line discipline).
    fn append(&self, file: &mut fs::File, bytes: &[u8]) -> io::Result<()>;
    /// Takes an exclusive advisory lock on an open file, blocking
    /// until the current holder (possibly in another process)
    /// releases it.
    fn lock_exclusive(&self, file: &fs::File) -> io::Result<()>;
}

/// The production backend: direct `std::fs` operations with real
/// `fsync`s.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        fs::read_to_string(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        fs::File::open(dir)?.sync_all()
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn append(&self, file: &mut fs::File, bytes: &[u8]) -> io::Result<()> {
        file.write_all(bytes)?;
        file.flush()
    }

    fn lock_exclusive(&self, file: &fs::File) -> io::Result<()> {
        file.lock()
    }
}

/// The fault-injecting backend: consults a [`FaultPlan`] before each
/// operation and simulates the corresponding crash when its
/// [`IoFaultPoint`] fires.
///
/// Failure shapes are chosen to match what a real crash or full disk
/// leaves behind: a failed staging write leaves a *truncated* temp
/// file, a failed append leaves a torn journal line, a failed read
/// yields a truncated prefix (which the checksum envelope must
/// reject), disk-full is sticky across subsequent writes. Without the
/// `inject` cargo feature [`FaultPlan::io_fail`] is a constant
/// `false`, so this backend degenerates to [`RealVfs`].
#[derive(Debug, Clone)]
pub struct FaultVfs {
    plan: FaultPlan,
    real: RealVfs,
}

impl FaultVfs {
    /// Wraps the real backend with `plan`'s I/O fault schedule.
    pub fn new(plan: FaultPlan) -> FaultVfs {
        FaultVfs { plan, real: RealVfs }
    }

    fn injected(kind: io::ErrorKind, what: &str) -> io::Error {
        io::Error::new(kind, format!("injected fault: {what}"))
    }
}

impl Vfs for FaultVfs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let text = self.real.read_to_string(path)?;
        if self.plan.io_fail(IoFaultPoint::Read) {
            // A truncated read: yield only a prefix, as a torn page
            // or short read would. The caller's checksum envelope is
            // responsible for rejecting it.
            return Ok(text[..floor_char_boundary(&text, text.len() / 2)].to_string());
        }
        Ok(text)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.plan.io_fail(IoFaultPoint::NoSpace) {
            let _ = self.real.write(path, &bytes[..bytes.len() / 2]);
            return Err(FaultVfs::injected(io::ErrorKind::StorageFull, "disk full during write"));
        }
        if self.plan.io_fail(IoFaultPoint::TmpWrite) {
            // Crash mid-write: leave a truncated file behind, exactly
            // what the startup sweep must clean up.
            let _ = self.real.write(path, &bytes[..bytes.len() / 2]);
            return Err(FaultVfs::injected(io::ErrorKind::Other, "crash during staging write"));
        }
        self.real.write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        if self.plan.io_fail(IoFaultPoint::FileSync) {
            return Err(FaultVfs::injected(io::ErrorKind::Other, "crash during file fsync"));
        }
        self.real.sync_file(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.plan.io_fail(IoFaultPoint::Rename) {
            return Err(FaultVfs::injected(io::ErrorKind::Other, "crash during rename"));
        }
        self.real.rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if self.plan.io_fail(IoFaultPoint::DirSync) {
            return Err(FaultVfs::injected(io::ErrorKind::Other, "crash during directory fsync"));
        }
        self.real.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.real.create_dir_all(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.real.remove_file(path)
    }

    fn append(&self, file: &mut fs::File, bytes: &[u8]) -> io::Result<()> {
        if self.plan.io_fail(IoFaultPoint::NoSpace) {
            let _ = self.real.append(file, &bytes[..bytes.len() / 2]);
            return Err(FaultVfs::injected(io::ErrorKind::StorageFull, "disk full during append"));
        }
        if self.plan.io_fail(IoFaultPoint::JournalAppend) {
            // Crash mid-append: tear the line. The journal loader
            // degrades a torn line to a re-check of that file.
            let _ = self.real.append(file, &bytes[..bytes.len() / 2]);
            return Err(FaultVfs::injected(io::ErrorKind::Other, "crash during journal append"));
        }
        self.real.append(file, bytes)
    }

    fn lock_exclusive(&self, file: &fs::File) -> io::Result<()> {
        if self.plan.io_fail(IoFaultPoint::LockAcquire) {
            return Err(FaultVfs::injected(io::ErrorKind::Other, "crash acquiring advisory lock"));
        }
        self.real.lock_exclusive(file)
    }
}

/// Largest index `<= ix` that lies on a `char` boundary of `s`.
fn floor_char_boundary(s: &str, mut ix: usize) -> usize {
    while ix > 0 && !s.is_char_boundary(ix) {
        ix -= 1;
    }
    ix
}

/// A handle on the storage layer: a cheaply clonable wrapper around
/// one [`Vfs`] backend. Every persistence site takes one of these (or
/// defaults to [`Store::real`]), so arming I/O faults for a torture
/// run is a matter of constructing the store with
/// [`Store::with_faults`] — no call site changes shape.
#[derive(Debug, Clone)]
pub struct Store {
    vfs: Arc<dyn Vfs>,
}

impl Default for Store {
    fn default() -> Store {
        Store::real()
    }
}

impl Store {
    /// The production store (real filesystem, real fsyncs).
    pub fn real() -> Store {
        Store { vfs: Arc::new(RealVfs) }
    }

    /// A store whose operations follow `plan`'s I/O fault schedule.
    /// With an inert plan (or without the `inject` feature) this
    /// behaves exactly like [`Store::real`].
    pub fn with_faults(plan: &FaultPlan) -> Store {
        Store { vfs: Arc::new(FaultVfs::new(plan.clone())) }
    }

    /// A store over an arbitrary backend (tests).
    pub fn from_vfs(vfs: Arc<dyn Vfs>) -> Store {
        Store { vfs }
    }

    /// Reads a whole file to a string through the backend.
    pub fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.vfs.read_to_string(path)
    }

    /// Writes `text` to `path` with the full durability discipline:
    /// stage into `<path>.tmp`, `fsync` the staged file, rename it
    /// over `path`, `fsync` the parent directory. An interrupted
    /// write leaves either the old complete file or the new complete
    /// file (plus possibly a stale `*.tmp` for the next
    /// [`Store::sweep_stale_tmps`]); a reader can never observe a
    /// torn artifact.
    pub fn write_atomic(&self, path: &Path, text: &str) -> io::Result<()> {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(parent) = parent {
            self.vfs.create_dir_all(parent)?;
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(TMP_SUFFIX);
        let tmp = PathBuf::from(tmp);
        self.vfs.write(&tmp, text.as_bytes())?;
        self.vfs.sync_file(&tmp)?;
        self.vfs.rename(&tmp, path)?;
        match parent {
            Some(parent) => self.vfs.sync_dir(parent),
            None => self.vfs.sync_dir(Path::new(".")),
        }
    }

    /// Appends one line (caller includes the trailing `\n`) to an
    /// open file with a single write-and-flush, so concurrent writers
    /// interleave lines, never bytes.
    pub fn append_line(&self, file: &mut fs::File, line: &str) -> io::Result<()> {
        self.vfs.append(file, line.as_bytes())
    }

    /// Removes stale `*.tmp` staging files left in `dir` by a crash
    /// between write and rename. Returns the number removed plus one
    /// warning per removal (callers surface them and count them as
    /// recoveries). A missing or unreadable directory sweeps nothing,
    /// and a failure to take the directory lock skips the sweep with
    /// a warning: this runs on the startup path and must never fail
    /// it.
    ///
    /// The sweep holds the directory's advisory lock: a concurrent
    /// process mid-flush has a live `*.tmp` staged between its write
    /// and rename, and sweeping that would make the rename fail.
    /// Locking serializes sweeps against flushes, so the only `*.tmp`
    /// files ever observed here are genuinely stale.
    pub fn sweep_stale_tmps(&self, dir: &Path) -> (u64, Vec<String>) {
        let mut removed = 0;
        let mut warnings = Vec::new();
        if !dir.is_dir() {
            return (0, warnings);
        }
        let _lock = match self.lock_dir(dir) {
            Ok(lock) => lock,
            Err(e) => {
                warnings.push(format!(
                    "cannot lock cache dir `{}`: {e}; skipping stale-file sweep",
                    dir.display()
                ));
                return (0, warnings);
            }
        };
        let Ok(entries) = fs::read_dir(dir) else { return (0, warnings) };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.ends_with(TMP_SUFFIX) {
                continue;
            }
            let path = entry.path();
            match self.vfs.remove_file(&path) {
                Ok(()) => {
                    removed += 1;
                    warnings.push(format!(
                        "removed stale staging file `{}` left by an interrupted flush",
                        path.display()
                    ));
                }
                Err(e) => warnings
                    .push(format!("cannot remove stale staging file `{}`: {e}", path.display())),
            }
        }
        (removed, warnings)
    }

    /// Takes the advisory cross-process lock guarding cache directory
    /// `dir` (creating the directory and its `.circ.lock` file as
    /// needed), blocking until any concurrent holder releases it. The
    /// lock is held until the returned guard drops. Every flush of a
    /// shared cache directory runs its read-merge-write cycle under
    /// this lock; a failure here degrades to a logged no-persist.
    pub fn lock_dir(&self, dir: &Path) -> io::Result<DirLock> {
        self.vfs.create_dir_all(dir)?;
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(LOCK_FILE))?;
        self.vfs.lock_exclusive(&file)?;
        Ok(DirLock { _file: file })
    }
}

/// An exclusive advisory lock on a cache directory, released when
/// dropped (closing the lock file releases the OS lock).
#[derive(Debug)]
pub struct DirLock {
    _file: fs::File,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("circ-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_round_trips_and_creates_parents() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("nested/deep/snapshot.cache");
        let store = Store::real();
        store.write_atomic(&path, "hello snapshot\n").unwrap();
        assert_eq!(store.read_to_string(&path).unwrap(), "hello snapshot\n");
        // Overwrite is atomic too: the tmp staging file never lingers
        // on the success path.
        store.write_atomic(&path, "second\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second\n");
        assert!(!path.parent().unwrap().join("snapshot.cache.tmp").exists());
    }

    #[test]
    fn sweep_removes_only_stale_tmps() {
        let dir = tmp_dir("sweep");
        fs::write(dir.join("abs.cache"), "keep me").unwrap();
        fs::write(dir.join("abs.cache.tmp"), "stale staging").unwrap();
        fs::write(dir.join("solver.cache.tmp"), "stale too").unwrap();
        let store = Store::real();
        let (removed, warnings) = store.sweep_stale_tmps(&dir);
        assert_eq!(removed, 2);
        assert_eq!(warnings.len(), 2);
        assert!(warnings.iter().all(|w| w.contains("stale staging file")), "{warnings:?}");
        assert!(dir.join("abs.cache").exists(), "real artifact must survive the sweep");
        assert!(!dir.join("abs.cache.tmp").exists());
        assert!(!dir.join("solver.cache.tmp").exists());
        // Sweeping a missing directory is a quiet no-op.
        let (removed, warnings) = store.sweep_stale_tmps(&dir.join("missing"));
        assert_eq!((removed, warnings.len()), (0, 0));
    }

    #[test]
    fn dir_lock_excludes_a_second_holder() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let dir = tmp_dir("lock");
        let store = Store::real();
        let guard = store.lock_dir(&dir).unwrap();
        let acquired = Arc::new(AtomicBool::new(false));
        let handle = {
            let acquired = Arc::clone(&acquired);
            let dir = dir.clone();
            std::thread::spawn(move || {
                // A second open file description must block until the
                // first guard drops (same contention shape as a
                // second process).
                let store = Store::real();
                let _guard = store.lock_dir(&dir).unwrap();
                acquired.store(true, Ordering::SeqCst);
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!acquired.load(Ordering::SeqCst), "second lock acquired while first held");
        drop(guard);
        handle.join().unwrap();
        assert!(acquired.load(Ordering::SeqCst));
    }

    #[test]
    fn append_line_appends_whole_lines() {
        let dir = tmp_dir("append");
        let path = dir.join("journal.jsonl");
        let store = Store::real();
        let mut file = fs::OpenOptions::new().create(true).append(true).open(&path).unwrap();
        store.append_line(&mut file, "{\"row\":1}\n").unwrap();
        store.append_line(&mut file, "{\"row\":2}\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"row\":1}\n{\"row\":2}\n");
    }

    #[test]
    fn floor_char_boundary_respects_utf8() {
        let s = "ab\u{00e9}cd"; // é is two bytes
        for ix in 0..=s.len() {
            let b = floor_char_boundary(s, ix);
            assert!(s.is_char_boundary(b));
            assert!(b <= ix);
        }
    }
}
