//! Process facts and the run's private scratch directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Starts a new peak: sets this process's `VmHWM` to its current resident
/// set size (Linux 4.0 and later), so [`peak_rss_mib`] then reads the peak
/// reached since this call.
///
/// # Errors
///
/// When `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Parent of every scratch directory, relative to the working directory
/// (the checkout root), so a run writes nothing outside it.
pub const SCRATCH_ROOT: &str = ".bench_tmp";

/// A directory private to one run, removed (with [`SCRATCH_ROOT`] if it
/// ends up empty) when dropped.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `.bench_tmp/<tag>-<pid>-<n>`.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn new(tag: &str) -> Result<Scratch, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(SCRATCH_ROOT).join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}
