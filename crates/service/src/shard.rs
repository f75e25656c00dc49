//! The lock-striped sharded artifact store: the only way to load or put.
//!
//! [`ShardedStore`] stripes the key space over `N` independent shards —
//! each a [`Store`] stripe on its own [`Backend`], behind its own
//! `RwLock` — so concurrent requests whose fingerprints land in
//! different shards proceed fully in parallel: reads, verification,
//! eviction bookkeeping, quarantine and degraded-mode tracking are all
//! per-shard state. It has one [`put`](ShardedStore::put) and one
//! [`load_verified`](ShardedStore::load_verified); a stripe is configured
//! only through [`ShardedStore::open_with`]'s `tune` hook.
//!
//! # The stripe lock split
//!
//! Within one stripe, a verified load is two steps. The *attempt* (read,
//! digest, decode, checker, re-validation — nearly all of a hit's cost)
//! needs only a shared borrow of the stripe and runs under its **read**
//! guard, so concurrent loads on one shard verify in parallel; a 1-shard
//! store loses no verification parallelism to its single stripe. The
//! *settlement* (counters, degraded tracking, quarantine, eviction) runs
//! under the **write** guard, as does every put's write. Key computation
//! and the pipeline accessors take read guards; an rv-keyed put lowers
//! its machine artifact before it takes any guard, as a compile does. A
//! racing put may land between an attempt and its settlement; the worst
//! it can cost is that a settlement evicting a corrupt read deletes the
//! fresh file too — one spurious miss, never a wrong answer.
//!
//! # Routing
//!
//! A request's shard is a pure function of its [`Fingerprint`] *prefix*:
//! the top 16 bits, scaled to the shard count
//! ([`shard_of_key`]). Routing therefore:
//!
//! - is stable across processes, runs, and store open/close (the
//!   fingerprint itself is stable by construction — see `fingerprint`);
//! - never moves a key between shards for a fixed shard count, so a
//!   shard's on-disk directory is self-contained;
//! - spreads uniformly: FNV output bits are uniform, so 1k random keys
//!   land within ~2x of each other across any practical shard count
//!   (property-tested in `tests/shard_routing.rs`).
//!
//! # Layout
//!
//! `shards = 1` uses the root directory itself
//! (`<root>/<program>-<key>.json`, the layout every store has written
//! since before sharding; `tests/shard_routing.rs` pins the bytes).
//! `shards = N > 1` places shard `i` under `<root>/shard-<i:02x>/`. The
//! shard count is a *deployment* choice, not part of any fingerprint:
//! resharding is `rsync` by filename, and a request's key is the same
//! under every shard count.
//!
//! # Trust
//!
//! Unchanged. Every shard is a full stripe: verified loads (re-check,
//! never believe), per-key quarantine, per-shard degraded mode and
//! startup recovery. Striping moves no trust boundary — it only lets
//! mutually untrusting tenants share the verified cache concurrently.

use std::path::{Path, PathBuf};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use crate::backend::{Backend, FsBackend};
use crate::fingerprint::Fingerprint;
use crate::store::{CacheStats, LoadOutcome, Store, StoreLock};
use rupicola_core::check::CheckConfig;
use rupicola_core::fnspec::FnSpec;
use rupicola_core::{CompiledFunction, EngineLimits, HintDbs};
use rupicola_lang::Model;

/// Default shard count for the concurrent server: enough stripes that a
/// handful of workers rarely contend, few enough that a suite-sized
/// working set still populates most shards.
pub const DEFAULT_SHARDS: usize = 8;

/// The shard a fingerprint routes to, for `nshards` shards: the key's top
/// 16 bits scaled by `nshards / 2^16`. Monotone in the key prefix (shard
/// directories partition the keyspace into contiguous prefix ranges) and
/// exactly uniform when `nshards` divides `2^16`.
pub fn shard_of_key(key: Fingerprint, nshards: usize) -> usize {
    let prefix = (key.0 >> 48) as usize;
    (prefix * nshards.max(1)) >> 16
}

/// The root directory of shard `index` out of `nshards`, under `root`.
/// The 1-shard layout is the root itself.
pub fn shard_root(root: &Path, index: usize, nshards: usize) -> PathBuf {
    if nshards <= 1 {
        root.to_path_buf()
    } else {
        root.join(format!("shard-{index:02x}"))
    }
}

/// A lock-striped sharded artifact store: `N` independent [`Store`]
/// stripes, each behind its own `RwLock`, routed by fingerprint prefix.
///
/// All `&self` — this is the type that makes the service layer
/// concurrent. A load verifies under one stripe's read guard and settles
/// under its write guard; a put holds the write guard for its I/O only.
#[derive(Debug)]
pub struct ShardedStore {
    root: PathBuf,
    shards: Vec<RwLock<Store>>,
}

impl ShardedStore {
    /// Opens (creating if needed) `nshards` shards under `root` on the
    /// real filesystem. Each shard runs its own startup recovery.
    ///
    /// # Errors
    ///
    /// Fails if any shard directory cannot be created.
    pub fn open(root: impl Into<PathBuf>, nshards: usize) -> Result<ShardedStore, String> {
        ShardedStore::open_with(root, nshards, |_| Box::new(FsBackend), |s| s)
    }

    /// [`ShardedStore::open`] with an explicit [`Backend`] per shard
    /// (`mk_backend(i)` builds shard `i`'s — the concurrency battery
    /// hands every shard its own seeded `ChaosBackend`) and a `tune`
    /// hook applied to each shard's [`Store`] — the one place a stripe is
    /// configured (retry policy, check config, pipeline, rv pipeline,
    /// lints on load, degrade and quarantine thresholds).
    ///
    /// # Errors
    ///
    /// Fails if any shard root cannot be created; already-opened shards
    /// are dropped.
    pub fn open_with(
        root: impl Into<PathBuf>,
        nshards: usize,
        mk_backend: impl Fn(usize) -> Box<dyn Backend>,
        tune: impl Fn(Store) -> Store,
    ) -> Result<ShardedStore, String> {
        let root = root.into();
        let nshards = nshards.max(1);
        let mut shards = Vec::with_capacity(nshards);
        for i in 0..nshards {
            let store = Store::open(shard_root(&root, i, nshards), mk_backend(i))
                .map_err(|e| format!("shard {i}/{nshards}: {e}"))?;
            shards.push(RwLock::new(tune(store)));
        }
        Ok(ShardedStore { root, shards })
    }

    /// A sharded store whose every shard is **born degraded**
    /// (compile-without-cache): it never touches the disk, every load
    /// answers [`LoadOutcome::Unavailable`] and every put is skipped. This
    /// is `served`'s fallback when the root cannot be opened at all — the
    /// batch still gets answered, just without persistence.
    pub fn open_degraded(root: impl Into<PathBuf>, nshards: usize) -> ShardedStore {
        let root = root.into();
        let nshards = nshards.max(1);
        let shards = (0..nshards)
            .map(|i| RwLock::new(Store::open_degraded(shard_root(&root, i, nshards))))
            .collect();
        ShardedStore { root, shards }
    }

    /// The store root (shard directories live beneath it).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` routes to.
    pub fn shard_of(&self, key: Fingerprint) -> usize {
        shard_of_key(key, self.shards.len())
    }

    /// Write-locks shard `index`'s stripe, for reading its configuration
    /// and state (`key_for`, `path_for`, `stats`, `degraded`); loads and
    /// puts go through [`ShardedStore::load_verified`] and
    /// [`ShardedStore::put`], which lock internally.
    pub fn shard(&self, index: usize) -> RwLockWriteGuard<'_, Store> {
        self.shards[index].write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Read-locks shard `index`'s stripe.
    fn read(&self, index: usize) -> RwLockReadGuard<'_, Store> {
        self.shards[index].read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fingerprints a request with shard 0's conventions (every shard is
    /// configured identically, so any shard's key agrees).
    pub fn key_for(
        &self,
        model: &Model,
        spec: &FnSpec,
        dbs: &HintDbs,
        limits: &EngineLimits,
    ) -> Fingerprint {
        self.read(0).key_for(model, spec, dbs, limits)
    }

    /// The optimization pipeline the shards key under (shard 0's —
    /// identical across shards by construction).
    pub fn pipeline(&self) -> rupicola_opt::PipelineConfig {
        self.read(0).pipeline().clone()
    }

    /// Verified load, routed by fingerprint: verifies under one stripe's
    /// read guard, settles under its write guard (see the module docs and
    /// the ladder in [`crate::store`]). A hit carries the re-certified
    /// artifact and, on an rv-keyed store, its re-validated machine
    /// artifact.
    pub fn load_verified(
        &self,
        model: &Model,
        spec: &FnSpec,
        dbs: &HintDbs,
        limits: &EngineLimits,
    ) -> LoadOutcome {
        let key = self.key_for(model, spec, dbs, limits);
        let index = self.shard_of(key);
        let raw = {
            let shard = self.read(index);
            shard.attempt(&shard.path_for(&spec.name, key), key, model, spec, dbs)
        };
        self.shard(index).settle(raw)
    }

    /// Files `cf` under `key` in the stripe the key routes to. On an
    /// rv-keyed store the put first lowers and validates the machine
    /// artifact the key promises (`rupicola_rv::lower_validated` at
    /// [`CheckConfig::default`], the strength a fresh compile is optimized
    /// at), outside any lock; only the write holds the stripe's write
    /// guard.
    ///
    /// # Errors
    ///
    /// Fails when the machine artifact cannot be lowered or validated, on
    /// post-retry I/O errors, in a degraded shard and for quarantined
    /// keys.
    pub fn put(&self, key: Fingerprint, cf: &CompiledFunction) -> Result<PathBuf, String> {
        let index = self.shard_of(key);
        let mut shard = self.shard(index);
        let Some(pipeline) = shard.rv_pipeline.clone() else {
            return shard.write(key, cf, None);
        };
        // Lowering is pure and costly: like a compile, it runs with the
        // stripe unlocked.
        drop(shard);
        let (art, _) = rupicola_rv::lower_validated(cf, &pipeline, &CheckConfig::default())
            .map_err(|e| format!("cannot lower `{}` for the store: {e}", cf.function.name))?;
        self.shard(index).write(key, cf, Some(&art))
    }

    /// Aggregated lifetime counters across every shard.
    pub fn stats(&self) -> CacheStats {
        let shards = (0..self.shards.len()).map(|i| self.read(i).stats());
        shards.fold(CacheStats::default(), |mut acc, s| {
            acc.hits += s.hits;
            acc.misses += s.misses;
            acc.evictions += s.evictions;
            acc.stores += s.stores;
            acc.unavailable += s.unavailable;
            acc.write_failures += s.write_failures;
            acc.retries += s.retries;
            acc.scavenged += s.scavenged;
            acc.quarantined += s.quarantined;
            acc.verify_nanos += s.verify_nanos;
            acc
        })
    }

    /// Whether *any* shard has flipped into degraded mode (the in-band
    /// `"degraded"` flag: a response may have skipped caching).
    pub fn any_degraded(&self) -> bool {
        (0..self.shards.len()).any(|i| self.read(i).degraded())
    }

    /// Whether *every* shard is degraded (the store as a whole is
    /// effectively compile-without-cache).
    pub fn all_degraded(&self) -> bool {
        (0..self.shards.len()).all(|i| self.read(i).degraded())
    }

    /// The backend name of shard 0 (`"fs"`, `"chaos"`), for reports.
    pub fn backend_name(&self) -> &'static str {
        self.read(0).backend_name()
    }

    /// Acquires the advisory cross-process locks of the shards in
    /// `touched` (deduplicated, ascending order — every caller acquiring
    /// in the same order cannot deadlock another). An empty `touched`
    /// acquires nothing. This is what `served` holds for a batch: only
    /// the shards the batch's keys route to, so two processes whose
    /// batches touch disjoint shards run fully concurrently instead of
    /// serializing on one root-wide `.lock`.
    ///
    /// # Errors
    ///
    /// See [`StoreLock::acquire`]; already-acquired locks are released
    /// (dropped) on failure.
    pub fn lock_shards(
        &self,
        touched: impl IntoIterator<Item = usize>,
        wait: Duration,
    ) -> Result<Vec<StoreLock>, String> {
        let mut wanted: Vec<usize> =
            touched.into_iter().filter(|&i| i < self.shards.len()).collect();
        wanted.sort_unstable();
        wanted.dedup();
        let mut locks = Vec::with_capacity(wanted.len());
        for i in wanted {
            let root = shard_root(&self.root, i, self.shards.len());
            locks.push(
                StoreLock::acquire(&root, wait).map_err(|e| format!("shard {i}: {e}"))?,
            );
        }
        Ok(locks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_ext::standard_dbs;
    use std::fs;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rupicola-shard-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn routing_is_prefix_monotone_and_in_range() {
        for nshards in [1usize, 2, 3, 8, 16, 64] {
            let mut last = 0usize;
            for prefix in 0..=0xffffu64 {
                let shard = shard_of_key(Fingerprint(prefix << 48), nshards);
                assert!(shard < nshards, "prefix {prefix:#x} out of range for {nshards}");
                assert!(shard >= last, "routing must be monotone in the prefix");
                last = shard;
            }
            assert_eq!(last, nshards - 1, "top prefix must land in the last shard");
        }
        // Low bits never matter: same prefix, any suffix, same shard.
        assert_eq!(
            shard_of_key(Fingerprint(0xabcd_0000_0000_0000), 8),
            shard_of_key(Fingerprint(0xabcd_ffff_ffff_ffff), 8)
        );
    }

    #[test]
    fn multi_shard_round_trip_routes_by_prefix() {
        let root = scratch("multi");
        let sharded = ShardedStore::open(&root, 8).unwrap();
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        for entry in rupicola_programs::suite().iter().take(3) {
            let model = (entry.model)();
            let spec = (entry.spec)();
            let cf = (entry.compiled)().unwrap();
            let key = sharded.key_for(&model, &spec, &dbs, &limits);
            let path = sharded.put(key, &cf).unwrap();
            let expected_dir = shard_root(&root, sharded.shard_of(key), 8);
            assert_eq!(path.parent().unwrap(), expected_dir);
            match sharded.load_verified(&model, &spec, &dbs, &limits) {
                LoadOutcome::Hit(loaded) => assert_eq!(loaded.cf.function, cf.function),
                other => panic!("{}: expected hit, got {other:?}", entry.info.name),
            }
        }
        let stats = sharded.stats();
        assert_eq!((stats.hits, stats.stores), (3, 3));
        assert!(!sharded.any_degraded());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn degradation_and_quarantine_stay_per_shard() {
        use crate::chaos::{ChaosBackend, FaultPlan};
        use crate::retry::RetryPolicy;
        let root = scratch("perdegrade");
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let model = rupicola_programs::fnv1a::model();
        let spec = rupicola_programs::fnv1a::spec();
        // The stripe fnv1a routes to suffers a total outage; every other
        // shard is healthy. (A born-degraded store computes keys without
        // touching the disk.)
        let key = ShardedStore::open_degraded(&root, 4).key_for(&model, &spec, &dbs, &limits);
        let sick = shard_of_key(key, 4);
        let sharded = ShardedStore::open_with(
            &root,
            4,
            |i| {
                if i == sick {
                    Box::new(ChaosBackend::new(FaultPlan::outage(5)))
                } else {
                    Box::new(FsBackend)
                }
            },
            |s| {
                s.with_retry_policy(RetryPolicy {
                    max_attempts: 2,
                    base_delay: Duration::from_micros(10),
                    max_delay: Duration::from_micros(20),
                })
                .with_degrade_after(1)
            },
        )
        .unwrap();
        // Hammer the sick shard with loads until it degrades.
        for _ in 0..4 {
            let _ = sharded.load_verified(&model, &spec, &dbs, &limits);
        }
        assert!(sharded.shard(sick).degraded());
        assert!(sharded.any_degraded());
        assert!(!sharded.all_degraded(), "an outage on one stripe is not a store outage");
        // Healthy shards still store and serve.
        let healthy = rupicola_programs::suite()
            .into_iter()
            .find(|e| {
                let key = sharded.key_for(&(e.model)(), &(e.spec)(), &dbs, &limits);
                sharded.shard_of(key) != sick
            })
            .expect("a program routed to a healthy shard");
        let key = sharded.key_for(&(healthy.model)(), &(healthy.spec)(), &dbs, &limits);
        sharded.put(key, &(healthy.compiled)().unwrap()).unwrap();
        assert_eq!(sharded.stats().stores, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn lock_shards_orders_dedups_and_excludes() {
        let root = scratch("locks");
        let sharded = ShardedStore::open(&root, 4).unwrap();
        let locks =
            sharded.lock_shards([2usize, 0, 2, 3], Duration::from_millis(10)).unwrap();
        assert_eq!(locks.len(), 3, "duplicates are acquired once");
        // The held shards are excluded; the untouched shard is free.
        assert!(sharded.lock_shards([0usize], Duration::from_millis(5)).is_err());
        let free = sharded.lock_shards([1usize], Duration::from_millis(5)).unwrap();
        assert_eq!(free.len(), 1);
        drop(locks);
        drop(free);
        // Released: every stripe acquirable again.
        let all = sharded.lock_shards(0..4, Duration::from_millis(10)).unwrap();
        assert_eq!(all.len(), 4);
        let _ = fs::remove_dir_all(&root);
    }
}
