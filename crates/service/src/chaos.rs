//! Deterministic fault injection for the storage layer.
//!
//! [`ChaosBackend`] wraps the real [`FsBackend`] and injects faults from
//! a **seeded schedule**: the same seed and the same call sequence
//! produce the same faults, so a `chaosbench` failure is replayable with
//! nothing but its seed. The injected fault classes mirror what a real
//! deployment sees:
//!
//! | fault          | where        | models                                    |
//! |----------------|--------------|-------------------------------------------|
//! | transient `EIO`| reads/writes | flaky disk, NFS hiccup                    |
//! | `ENOSPC`       | writes       | full disk (freed later by eviction)       |
//! | torn write     | writes       | fsync lie / crash between write and sync  |
//! | bit flip       | writes       | silent media corruption                   |
//! | rename failure | writes       | crash between temp write and publish      |
//! | stale litter   | writes       | a previous process killed mid-store       |
//! | remove failure | evictions    | flaky disk during cleanup                 |
//! | slow op        | reads        | saturated I/O queue                       |
//!
//! None of these may ever cause a *wrong answer*: torn writes and bit
//! flips are caught by the store's verified loads (evict + recompile),
//! transient errors are retried and then degrade gracefully, rename
//! failures and litter are scavenged by startup recovery. `chaosbench`
//! is the gate that keeps that sentence true.
//!
//! Faults that are not random are [`WitnessEdit`]s: material edits of a
//! stored witness that a buggy or hostile writer could file under a key
//! with a *valid* content digest. They exercise the store's reuse of
//! cached certificates — a certificate checked for one witness must never
//! vouch for another.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::backend::{Backend, FsBackend};
use rupicola_core::derive::DerivationNode;
use rupicola_core::CompiledFunction;

const EIO: i32 = 5;
const ENOSPC: i32 = 28;

/// Per-mille fault probabilities plus the schedule seed. All rates are
/// out of 1000; `FaultPlan::calm` is all-zero (the backend then behaves
/// exactly like [`FsBackend`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the deterministic schedule.
    pub seed: u64,
    /// Transient `EIO` on reads (‰).
    pub read_eio: u32,
    /// Slow read: the op sleeps ~1 ms first (‰).
    pub slow_read: u32,
    /// Transient `EIO` before a write touches disk (‰).
    pub write_eio: u32,
    /// `ENOSPC` before a write touches disk (‰).
    pub write_enospc: u32,
    /// Torn write: the published file is silently truncated (‰).
    pub torn_write: u32,
    /// Bit flip: one random bit of the published file is inverted (‰).
    pub bit_flip: u32,
    /// Rename failure: the temp file is written, the publish fails, the
    /// temp file is *left behind* (‰). This is the crash-mid-store model.
    pub rename_fail: u32,
    /// Stale litter: an orphaned `…tmp.<dead-pid>` file appears next to
    /// the written artifact (‰).
    pub litter: u32,
    /// Transient `EIO` on file removal — evictions included (‰).
    pub remove_eio: u32,
}

impl FaultPlan {
    /// No faults at all: behaves exactly like the real backend.
    pub fn calm(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            read_eio: 0,
            slow_read: 0,
            write_eio: 0,
            write_enospc: 0,
            torn_write: 0,
            bit_flip: 0,
            rename_fail: 0,
            litter: 0,
            remove_eio: 0,
        }
    }

    /// The `chaosbench` default: every fault class enabled at rates high
    /// enough that a few-thousand-request replay exercises all of them
    /// many times over.
    pub fn hostile(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            read_eio: 60,
            slow_read: 10,
            write_eio: 40,
            write_enospc: 30,
            torn_write: 25,
            bit_flip: 25,
            rename_fail: 20,
            litter: 30,
            remove_eio: 40,
        }
    }

    /// Everything fails: every read and write errors out. This is the
    /// degraded-mode scenario — the store must flip to compile-without-
    /// cache instead of failing the batch.
    pub fn outage(seed: u64) -> FaultPlan {
        FaultPlan {
            read_eio: 1000,
            write_eio: 1000,
            remove_eio: 1000,
            ..FaultPlan::calm(seed)
        }
    }
}

/// Counters of the faults actually injected (totals since creation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transient read errors injected.
    pub read_errors: u64,
    /// Reads artificially slowed.
    pub slow_reads: u64,
    /// Write errors injected (`EIO` + `ENOSPC`).
    pub write_errors: u64,
    /// Writes whose published contents were truncated.
    pub torn_writes: u64,
    /// Writes whose published contents had one bit flipped.
    pub bit_flips: u64,
    /// Publishes that failed after the temp file was written.
    pub rename_failures: u64,
    /// Stale orphan temp files dropped next to artifacts.
    pub litter_files: u64,
    /// Removals that failed transiently.
    pub remove_errors: u64,
}

impl FaultCounts {
    /// Total injected faults of every class.
    pub fn total(&self) -> u64 {
        self.read_errors
            + self.slow_reads
            + self.write_errors
            + self.torn_writes
            + self.bit_flips
            + self.rename_failures
            + self.litter_files
            + self.remove_errors
    }
}

#[derive(Debug, Default)]
struct AtomicCounts {
    read_errors: AtomicU64,
    slow_reads: AtomicU64,
    write_errors: AtomicU64,
    torn_writes: AtomicU64,
    bit_flips: AtomicU64,
    rename_failures: AtomicU64,
    litter_files: AtomicU64,
    remove_errors: AtomicU64,
}

/// The fault-injecting backend. Wraps [`FsBackend`]; every fault decision
/// is drawn from a seeded xorshift64* stream, so runs are reproducible
/// from `(seed, call sequence)` alone.
#[derive(Debug)]
pub struct ChaosBackend {
    inner: FsBackend,
    plan: FaultPlan,
    rng: Mutex<u64>,
    counts: AtomicCounts,
}

impl ChaosBackend {
    /// A chaos backend executing `plan`.
    pub fn new(plan: FaultPlan) -> ChaosBackend {
        // Scramble the seed (splitmix64 finalizer) so adjacent seeds get
        // unrelated streams, and so the xorshift state is never zero —
        // `seed | 1` would satisfy the nonzero requirement but maps seeds
        // 2k and 2k+1 to the *same* schedule.
        let mut z = plan.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        ChaosBackend {
            inner: FsBackend,
            plan,
            rng: Mutex::new(z.max(1)),
            counts: AtomicCounts::default(),
        }
    }

    /// The plan this backend executes.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// A snapshot of the faults injected so far.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            read_errors: self.counts.read_errors.load(Ordering::Relaxed),
            slow_reads: self.counts.slow_reads.load(Ordering::Relaxed),
            write_errors: self.counts.write_errors.load(Ordering::Relaxed),
            torn_writes: self.counts.torn_writes.load(Ordering::Relaxed),
            bit_flips: self.counts.bit_flips.load(Ordering::Relaxed),
            rename_failures: self.counts.rename_failures.load(Ordering::Relaxed),
            litter_files: self.counts.litter_files.load(Ordering::Relaxed),
            remove_errors: self.counts.remove_errors.load(Ordering::Relaxed),
        }
    }

    /// Next value of the xorshift64* stream.
    fn roll(&self) -> u64 {
        let mut s = self.rng.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut x = *s;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *s = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Draws one fault decision at `rate` per mille.
    fn fires(&self, rate: u32) -> bool {
        rate > 0 && (self.roll() % 1000) < u64::from(rate)
    }
}

fn eio(_what: &str) -> io::Error {
    // `from_raw_os_error` keeps `raw_os_error()` populated, which is what
    // the retry classifier keys on.
    io::Error::from_raw_os_error(EIO)
}

fn enospc() -> io::Error {
    io::Error::from_raw_os_error(ENOSPC)
}

impl Backend for ChaosBackend {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        if self.fires(self.plan.slow_read) {
            self.counts.slow_reads.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        if self.fires(self.plan.read_eio) {
            self.counts.read_errors.fetch_add(1, Ordering::Relaxed);
            return Err(eio("read"));
        }
        self.inner.read_to_string(path)
    }

    fn write_atomic(&self, tmp: &Path, dst: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.fires(self.plan.write_eio) {
            self.counts.write_errors.fetch_add(1, Ordering::Relaxed);
            return Err(eio("write"));
        }
        if self.fires(self.plan.write_enospc) {
            self.counts.write_errors.fetch_add(1, Ordering::Relaxed);
            return Err(enospc());
        }
        if self.fires(self.plan.litter) {
            // A stale orphan from a "previous process killed mid-store":
            // pid far above any live one, garbage contents.
            self.counts.litter_files.fetch_add(1, Ordering::Relaxed);
            let orphan = dst.with_extension(format!("json.tmp.{}", 4_000_000 + self.roll() % 100));
            let _ = std::fs::write(orphan, b"{ torn mid-write");
        }
        if self.fires(self.plan.rename_fail) {
            // Crash-between-write-and-publish: the temp file lands on
            // disk and STAYS there; the publish itself fails.
            self.counts.rename_failures.fetch_add(1, Ordering::Relaxed);
            let _ = std::fs::write(tmp, bytes);
            return Err(eio("rename"));
        }
        if self.fires(self.plan.torn_write) {
            // The publish "succeeds" but the contents are truncated —
            // the fsync-lied model. Must surface as a later eviction.
            self.counts.torn_writes.fetch_add(1, Ordering::Relaxed);
            let cut = (self.roll() as usize) % bytes.len().max(1);
            return self.inner.write_atomic(tmp, dst, &bytes[..cut]);
        }
        if self.fires(self.plan.bit_flip) {
            self.counts.bit_flips.fetch_add(1, Ordering::Relaxed);
            let mut corrupted = bytes.to_vec();
            if !corrupted.is_empty() {
                let at = (self.roll() as usize) % corrupted.len();
                corrupted[at] ^= 1 << (self.roll() % 8);
            }
            return self.inner.write_atomic(tmp, dst, &corrupted);
        }
        self.inner.write_atomic(tmp, dst, bytes)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if self.fires(self.plan.remove_eio) {
            self.counts.remove_errors.fetch_add(1, Ordering::Relaxed);
            return Err(eio("remove"));
        }
        self.inner.remove_file(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(path)
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.create_exclusive(path, bytes)
    }
}

/// A material edit of a compiled function's witness. Filed with
/// [`ShardedStore::put`](crate::ShardedStore::put), it lands under the
/// request's key with a valid content digest, so only the verified
/// load's checker stands between it and a served answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessEdit {
    /// Drops the hypotheses of the `n`-th side condition that records
    /// any, in preorder. Material exactly when the condition needed them.
    DropHyps(usize),
    /// Renames the `n`-th derivation node's lemma, in preorder, to one no
    /// database registers.
    ForgeLemma(usize),
    /// Bumps the witness's recorded node count.
    ForgeNodeCount,
}

impl WitnessEdit {
    /// `cf` with this edit applied, or `None` when the witness has no
    /// `n`-th site for it.
    pub fn apply(self, cf: &CompiledFunction) -> Option<CompiledFunction> {
        let mut edited = cf.clone();
        let mut seen = 0;
        let mut applied = false;
        match self {
            WitnessEdit::DropHyps(n) => preorder_mut(&mut edited.derivation.root, &mut |node| {
                for record in &mut node.side_conds {
                    if !record.hyps.is_empty() {
                        if seen == n && !applied {
                            record.hyps = Vec::new().into();
                            applied = true;
                        }
                        seen += 1;
                    }
                }
            }),
            WitnessEdit::ForgeLemma(n) => preorder_mut(&mut edited.derivation.root, &mut |node| {
                if seen == n {
                    node.lemma = format!("{}_forged", node.lemma).into();
                    applied = true;
                }
                seen += 1;
            }),
            WitnessEdit::ForgeNodeCount => {
                edited.derivation.node_count += 1;
                applied = true;
            }
        }
        applied.then_some(edited)
    }
}

fn preorder_mut(node: &mut DerivationNode, visit: &mut dyn FnMut(&mut DerivationNode)) {
    visit(node);
    for child in &mut node.children {
        preorder_mut(child, visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rupicola-chaos-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn calm_plan_behaves_like_fs() {
        let dir = scratch("calm");
        let b = ChaosBackend::new(FaultPlan::calm(7));
        let dst = dir.join("x.json");
        for i in 0..100 {
            b.write_atomic(&dir.join("x.json.tmp.1"), &dst, format!("v{i}").as_bytes()).unwrap();
            assert_eq!(b.read_to_string(&dst).unwrap(), format!("v{i}"));
        }
        assert_eq!(b.counts(), FaultCounts::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = ChaosBackend::new(FaultPlan::hostile(42));
        let b = ChaosBackend::new(FaultPlan::hostile(42));
        let c = ChaosBackend::new(FaultPlan::hostile(43));
        let seq = |x: &ChaosBackend| (0..256).map(|_| x.fires(100)).collect::<Vec<_>>();
        let (sa, sb, sc) = (seq(&a), seq(&b), seq(&c));
        assert_eq!(sa, sb, "same seed, same schedule");
        assert_ne!(sa, sc, "different seed, different schedule");
    }

    #[test]
    fn injected_errors_are_transient_class() {
        use crate::retry::{classify, ErrorClass};
        assert_eq!(classify(&eio("read")), ErrorClass::Transient);
        assert_eq!(classify(&enospc()), ErrorClass::Transient);
    }

    #[test]
    fn hostile_plan_injects_every_class_eventually() {
        let dir = scratch("hostile");
        let b = ChaosBackend::new(FaultPlan::hostile(0xDEAD_BEEF));
        let dst = dir.join("y.json");
        let tmp = dir.join("y.json.tmp.2");
        let payload = vec![b'a'; 256];
        for _ in 0..4000 {
            let _ = b.write_atomic(&tmp, &dst, &payload);
            let _ = b.read_to_string(&dst);
            let _ = b.remove_file(&dst);
        }
        let c = b.counts();
        assert!(c.read_errors > 0, "{c:?}");
        assert!(c.write_errors > 0, "{c:?}");
        assert!(c.torn_writes > 0, "{c:?}");
        assert!(c.bit_flips > 0, "{c:?}");
        assert!(c.rename_failures > 0, "{c:?}");
        assert!(c.litter_files > 0, "{c:?}");
        assert!(c.remove_errors > 0, "{c:?}");
        assert_eq!(c.total(), c.read_errors + c.slow_reads + c.write_errors + c.torn_writes
            + c.bit_flips + c.rename_failures + c.litter_files + c.remove_errors);
        let _ = fs::remove_dir_all(&dir);
    }
}
