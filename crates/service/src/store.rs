//! The content-addressed, *verified*, crash-safe artifact store.
//!
//! Layout: one file per artifact under the store root,
//! `"<program>-<fingerprint>.json"`, holding an envelope written as its
//! canonical compact rendering ([`Json::render_compact`]: one line, no
//! whitespace, no trailing newline)
//!
//! ```json
//! {"format":6,"key":"<16 hex>","program":"...","digest":"<16 hex>","artifact":{…}}
//! ```
//!
//! where `artifact` is `rupicola_core::serial::encode_compiled_function`
//! (its derivation encoded spine-flat) and `digest` is an FNV-1a/64
//! content digest of the artifact's canonical compact rendering — the
//! bytes the file stores.
//!
//! # The cache adds no trust
//!
//! A warm load is CompCert-style *verified*. It reads the file's text
//! once, front to back, with the pull reader ([`Reader`]); no `Json`
//! tree is built. The envelope's fields are read in the order they were
//! written, and the store
//!
//! 1. cross-checks the envelope (format version, key, program name),
//! 2. decodes the artifact and hashes the exact bytes it was decoded
//!    from ([`text_digest`]), which must equal the stored digest —
//!    semantic re-validation (step 4) cannot see corruption in the
//!    witness's *descriptive* fields (a derivation node's focus
//!    rendering, a solver name), and a flipped bit there must read as
//!    corruption, never be served as an answer. Each artifact has one
//!    accepted structure: its fields in the writer's order and every
//!    chain in its one canonical form. Whitespace between tokens reads,
//!    but it changes the bytes, so a re-indented artifact evicts here.
//!    When the artifact's certified fields (`function` through `spec`)
//!    are byte for byte the text the key's cached certificate was
//!    decoded from, they are cloned from it instead of decoded again;
//!    the digest still covers every stored byte,
//! 3. cross-checks that the decoded model and spec are structurally equal
//!    to the *requested* ones (a fingerprint collision or a hand-edited
//!    file thus turns into an eviction, never a wrong answer),
//! 4. re-runs the independent checker ([`Certificate::check_body`]) on the
//!    decoded artifact — the same witness re-validation a fresh
//!    compilation gets,
//! 5. re-runs the full translation-validation stack on any stored
//!    *optimized* body (checker against the original certificate, lint
//!    suite, interpreter differential),
//! 6. optionally re-runs the static-analysis lints ([`lint_on_load`]),
//! 7. differentially re-validates a stored machine artifact when the
//!    store is rv-keyed ([`Store::with_rv_pipeline`]).
//!
//! Steps 4–7 validate their bodies against one [`Certificate`]. Its parts
//! depend only on the certified fields — model, spec, witness, linked
//! functions and certified body — so each stripe keeps them per key with
//! those fields' stored text, and a load whose certified text is that
//! text (under the same hint-database identity) reuses them instead of
//! rebuilding them. Decoding is a function of the bytes, so equal text
//! decodes to equal fields; the bodies are still validated on every load
//! (DESIGN.md §10).
//!
//! Any failure at any step *evicts* the artifact (the file is deleted)
//! and reports [`LoadOutcome::Evicted`]; the caller recompiles. A decode
//! error is indistinguishable from corruption by design: decoders are
//! total, so a bit flip is at worst an eviction.
//!
//! # The environment adds no trust either
//!
//! All I/O goes through a [`Backend`] (DESIGN.md §12), and the store
//! assumes the environment is hostile:
//!
//! - **transient faults** (`EIO`, `ENOSPC`, …) are retried with bounded
//!   exponential backoff ([`RetryPolicy`]); retries are counted in
//!   [`CacheStats::retries`];
//! - **persistent faults** flip the store into **degraded mode** after
//!   [`DEGRADE_AFTER`] consecutive backend failures: every subsequent
//!   load answers [`LoadOutcome::Unavailable`] without touching disk and
//!   every put is skipped, so the service falls back to
//!   compile-without-cache instead of erroring batches;
//! - **corruption loops** are broken by **quarantine**: a key evicted
//!   [`QUARANTINE_AFTER`] times stops being cached at all (loads answer
//!   `Unavailable`, puts are refused), so a bad sector cannot cause an
//!   endless store → evict → recompile → store cycle;
//! - **crash recovery**: opening a store ([`ShardedStore::open`])
//!   scavenges orphaned `…tmp.<pid>` files left by processes killed
//!   mid-store (only files whose writer pid is provably dead are reaped);
//! - **multi-process sharing** is serialized by advisory [`StoreLock`]s
//!   (`<stripe root>/.lock`, holder pid inside, stale locks of dead
//!   holders are broken automatically; see
//!   [`ShardedStore::lock_shards`]). Publishing is atomic (temp + rename)
//!   either way; the lock exists so two `served` processes do not
//!   interleave scavenging with each other's batches.
//!
//! None of this machinery is trusted: `chaosbench` replays thousands of
//! requests against a fault-injecting backend and gates that every fault
//! collapses to a retry, miss, eviction or degraded compile — never a
//! wrong answer.
//!
//! [`lint_on_load`]: Store::with_lint_on_load
//! [`text_digest`]: crate::fingerprint::text_digest
//! [`Backend`]: crate::backend::Backend
//! [`RetryPolicy`]: crate::retry::RetryPolicy
//! [`ShardedStore::open`]: crate::shard::ShardedStore::open
//! [`ShardedStore::lock_shards`]: crate::shard::ShardedStore::lock_shards

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::backend::{Backend, FsBackend};
use crate::fingerprint::{
    fingerprint, text_digest, Fingerprint, FingerprintInputs, FORMAT_VERSION,
};
use crate::retry::{with_retry, RetryPolicy};
use rupicola_analysis::LintCertificate;
use rupicola_bedrock::rv_compile::RvArtifact;
use rupicola_bedrock::serial::{encode_rv_artifact, read_rv_artifact};
use rupicola_core::check::{Certificate, CertificateParts, CheckConfig};
use rupicola_core::fnspec::FnSpec;
use rupicola_core::serial::{encode_compiled_function, read_compiled_function};
use rupicola_core::{CompiledFunction, EngineLimits, HintDbs};
use rupicola_lang::codec::DecodeResult;
use rupicola_lang::json::{Json, ParseError, Reader};
use rupicola_lang::Model;
use rupicola_opt::{CtBaseline, PipelineConfig};
use rupicola_rv::{validate_artifact, RvPipelineConfig};

/// Name of the environment variable overriding the store root.
pub const STORE_ENV: &str = "SERVICE_STORE";

/// Differential-test vectors per poison used by the *load-time* re-check.
///
/// Certification runs use [`CheckConfig::default`]'s 16; loads default to
/// fewer. The structural layers of the checker (witness integrity
/// counters, cited lemmas, side-condition re-solving) run in full at any
/// vector count, but none of them looks at the certified body: the only
/// thing that binds a stored body to its witness is the body phase's
/// differential runs, and those run at this many vectors. Random
/// corruption of the stored bytes is caught before the checker runs, by
/// the content digest; the vectors matter for an envelope with a valid
/// digest and a wrong body, and there four do not certify: a probe of
/// the fault matrix's semantic body mutants found `check_with` accepting
/// 162 of 327 at 4 vectors (15 at 16). Callers that want
/// certification-strength loads say
/// [`Store::with_check_config`]`(CheckConfig::default())` in the store's
/// `tune` hook ([`ShardedStore::open_with`]).
///
/// [`ShardedStore::open_with`]: crate::shard::ShardedStore::open_with
pub const LOAD_CHECK_VECTORS: usize = 4;

/// Default store root, relative to the current directory.
pub const DEFAULT_ROOT: &str = "results/store";

/// Consecutive backend failures (reads or writes, after retries) that
/// flip the store into degraded mode.
pub const DEGRADE_AFTER: u32 = 4;

/// Evictions of one key after which it is quarantined (never cached
/// again by this store instance). Breaks store/evict/recompile loops on
/// persistently corrupting media.
pub const QUARANTINE_AFTER: u32 = 3;

/// Filename of the advisory store lock, under the store root.
pub const LOCK_FILE: &str = ".lock";

/// Resolves the store root: `$SERVICE_STORE` if set, else [`DEFAULT_ROOT`].
///
/// # Errors
///
/// Fails loudly — instead of silently falling back — when the variable is
/// set but unusable (empty, or not valid Unicode). An operator who set the
/// variable meant it; quietly writing to `results/store` anyway would be
/// the env-var equivalent of an unverified cache hit.
pub fn store_root_from_env() -> Result<PathBuf, String> {
    match std::env::var(STORE_ENV) {
        Ok(v) if v.trim().is_empty() => {
            Err(format!("{STORE_ENV} is set but empty; unset it or point it at a directory"))
        }
        Ok(v) => Ok(PathBuf::from(v)),
        Err(std::env::VarError::NotPresent) => Ok(PathBuf::from(DEFAULT_ROOT)),
        Err(std::env::VarError::NotUnicode(raw)) => {
            Err(format!("{STORE_ENV} is set but not valid Unicode: {raw:?}"))
        }
    }
}

/// Whether `pid` refers to a live process. On Linux this consults
/// `/proc`; elsewhere liveness cannot be probed cheaply and every pid is
/// conservatively reported alive (stale temp files and locks are then
/// only reclaimed when their names fail to parse).
fn pid_alive(pid: u32) -> bool {
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        true
    }
}

/// Counters describing what the store did over its lifetime.
///
/// Same spirit as `CompileStats`: plain counters a harness can print or
/// serialize next to compilation stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Verified loads served from disk.
    pub hits: usize,
    /// Keys with no artifact on disk.
    pub misses: usize,
    /// Artifacts found but rejected (decode error, stale inputs, failed
    /// re-check or lint) and deleted.
    pub evictions: usize,
    /// Artifacts written.
    pub stores: usize,
    /// Loads the store could not answer: I/O failure after retries,
    /// degraded mode, or a quarantined key. The caller compiles instead.
    pub unavailable: usize,
    /// Put attempts that failed at the I/O layer (after retries).
    pub write_failures: usize,
    /// Transient-fault retries performed across all operations.
    pub retries: u64,
    /// Orphaned temp files reaped by startup recovery.
    pub scavenged: usize,
    /// Keys quarantined after repeated evictions.
    pub quarantined: usize,
    /// Total nanoseconds spent verifying read artifacts, over hits *and*
    /// evictions: everything after the read — the envelope's header
    /// cross-checks, decode, digest, model and spec cross-check, the
    /// certificate lookup or build, the body phase, optimized-body
    /// validation, lints and the rv differential.
    pub verify_nanos: u128,
    /// Verified loads (hits and evictions) that validated against their
    /// key's cached certificate instead of building one.
    pub cert_reuses: usize,
}

impl CacheStats {
    /// Renders the counters as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("hits", Json::U64(self.hits as u64)),
            ("misses", Json::U64(self.misses as u64)),
            ("evictions", Json::U64(self.evictions as u64)),
            ("stores", Json::U64(self.stores as u64)),
            ("unavailable", Json::U64(self.unavailable as u64)),
            ("write_failures", Json::U64(self.write_failures as u64)),
            ("retries", Json::U64(self.retries)),
            ("scavenged", Json::U64(self.scavenged as u64)),
            ("quarantined", Json::U64(self.quarantined as u64)),
            ("verify_nanos", Json::U64(u64::try_from(self.verify_nanos).unwrap_or(u64::MAX))),
            ("cert_reuses", Json::U64(self.cert_reuses as u64)),
        ])
    }
}

/// Outcome of a [`ShardedStore::load_verified`] call.
///
/// [`ShardedStore::load_verified`]: crate::shard::ShardedStore::load_verified
#[derive(Debug)]
pub enum LoadOutcome {
    /// A verified artifact, served from disk. No derivation was performed.
    Hit(Box<Verified>),
    /// Nothing stored under this key.
    Miss,
    /// An artifact existed but failed verification and was deleted.
    Evicted {
        /// Why the artifact was rejected.
        reason: String,
    },
    /// The store could not answer: I/O failure after bounded retries,
    /// degraded mode, or a quarantined key. Unlike [`LoadOutcome::Miss`]
    /// nothing is known about whether an artifact exists; the caller
    /// should compile without caching expectations.
    Unavailable {
        /// Why the store could not answer.
        reason: String,
    },
}

/// What a verified load serves: the re-certified artifact and, when the
/// store is rv-keyed, the machine artifact that was just differentially
/// re-executed against it — as trustworthy as the certificate itself.
#[derive(Debug)]
pub struct Verified {
    /// The certificate: compiled function, witness and optimized body.
    pub cf: CompiledFunction,
    /// The re-validated RISC-V machine artifact; `Some` exactly when the
    /// store keys under an rv pipeline.
    pub rv: Option<RvArtifact>,
}

/// An advisory, cross-process store lock: `<root>/.lock` created
/// exclusively with the holder's pid inside, removed on drop.
///
/// Locks of *dead* holders are broken automatically (pid liveness via
/// `/proc` on Linux), so a `served` process killed mid-batch never
/// wedges the store for its successors. The lock is advisory: artifact
/// publishing is atomic (temp + rename) with or without it — the lock
/// exists so concurrent `served` processes serialize whole batches and
/// never interleave recovery scavenging with each other's in-flight
/// writes.
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
}

impl StoreLock {
    /// Acquires the lock for the store rooted at `root`, waiting up to
    /// `wait` (with capped exponential backoff between attempts).
    ///
    /// # Errors
    ///
    /// Fails when the wait budget expires while a *live* process holds
    /// the lock, or on an unexpected I/O error.
    pub fn acquire(root: &Path, wait: Duration) -> Result<StoreLock, String> {
        let path = root.join(LOCK_FILE);
        let deadline = Instant::now() + wait;
        let mut delay = Duration::from_millis(1);
        loop {
            match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    let _ = f.sync_all();
                    return Ok(StoreLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    let stale = match holder {
                        // Our own pid means another thread of this process
                        // holds it — alive by definition.
                        Some(pid) => pid != std::process::id() && !pid_alive(pid),
                        // Unreadable or torn lock contents: the holder
                        // cannot be identified, treat as stale.
                        None => true,
                    };
                    if stale {
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    if Instant::now() >= deadline {
                        return Err(format!(
                            "store lock {} held by live pid {}",
                            path.display(),
                            holder.map_or_else(|| "?".to_string(), |p| p.to_string())
                        ));
                    }
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_millis(50));
                }
                Err(e) => {
                    return Err(format!("cannot create store lock {}: {e}", path.display()));
                }
            }
        }
    }

    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// One stripe of a [`ShardedStore`]: its configuration and state.
///
/// A stripe is configured only through the `tune` hook of
/// [`ShardedStore::open_with`] (the `with_*` setters below) and reached
/// only through [`ShardedStore::shard`]; loads and puts go through the
/// [`ShardedStore`], which locks the stripe a key routes to.
///
/// [`ShardedStore`]: crate::shard::ShardedStore
/// [`ShardedStore::open_with`]: crate::shard::ShardedStore::open_with
/// [`ShardedStore::shard`]: crate::shard::ShardedStore::shard
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    backend: Box<dyn Backend>,
    retry: RetryPolicy,
    check: CheckConfig,
    lint_on_load: bool,
    pipeline: PipelineConfig,
    /// When set, artifacts are keyed under this RISC-V lowering pipeline,
    /// every put files the machine artifact lowered under it, and every
    /// load differentially re-validates that artifact against the decoded
    /// certificate (evicting on absence or divergence). `None` — the
    /// default and the pre-v4 behavior — neither stores nor expects
    /// machine code.
    pub(crate) rv_pipeline: Option<RvPipelineConfig>,
    stats: CacheStats,
    /// Set once [`DEGRADE_AFTER`] consecutive backend failures accrue;
    /// never cleared for the lifetime of this instance (recovery is a
    /// reopen, which re-probes the filesystem from scratch).
    degraded: bool,
    degrade_after: u32,
    consecutive_failures: u32,
    /// Evictions per artifact path, feeding the quarantine.
    evict_counts: HashMap<PathBuf, u32>,
    /// Paths this store refuses to cache (load or put) any further.
    quarantine: HashSet<PathBuf>,
    quarantine_after: u32,
    /// Each key's checked certificate, inserted by the settlement of a
    /// hit that built it and dropped when the key is evicted.
    certs: HashMap<Fingerprint, Arc<CertEntry>>,
}

impl Store {
    /// Opens (creating if needed) a stripe rooted at `root` over
    /// `backend`, then runs startup recovery (orphaned temp files whose
    /// writer process is dead are scavenged — see
    /// [`CacheStats::scavenged`]).
    ///
    /// # Errors
    ///
    /// Fails if the root directory cannot be created (after retries).
    pub(crate) fn open(root: PathBuf, backend: Box<dyn Backend>) -> Result<Store, String> {
        let retry = RetryPolicy::default();
        let mk = with_retry(&retry, || backend.create_dir_all(&root));
        mk.result
            .map_err(|e| format!("cannot create store root {}: {e}", root.display()))?;
        let mut store = Store::new(root, backend, retry, false);
        store.stats.retries += u64::from(mk.retries);
        store.recover();
        Ok(store)
    }

    /// A stripe that is **born degraded**: it never touches the disk,
    /// every load answers [`LoadOutcome::Unavailable`] and every put is
    /// skipped.
    pub(crate) fn open_degraded(root: PathBuf) -> Store {
        Store::new(root, Box::new(FsBackend), RetryPolicy::none(), true)
    }

    fn new(root: PathBuf, backend: Box<dyn Backend>, retry: RetryPolicy, degraded: bool) -> Store {
        Store {
            root,
            backend,
            retry,
            check: CheckConfig { vectors: LOAD_CHECK_VECTORS, ..CheckConfig::default() },
            lint_on_load: false,
            pipeline: PipelineConfig::full(),
            rv_pipeline: None,
            stats: CacheStats::default(),
            degraded,
            degrade_after: DEGRADE_AFTER,
            consecutive_failures: 0,
            evict_counts: HashMap::new(),
            quarantine: HashSet::new(),
            quarantine_after: QUARANTINE_AFTER,
            certs: HashMap::new(),
        }
    }

    /// Replaces the checker configuration used by verified loads.
    #[must_use]
    pub fn with_check_config(mut self, check: CheckConfig) -> Store {
        self.check = check;
        self
    }

    /// Enables (or disables) running the static-analysis lints on every
    /// load; a lint *error* evicts the artifact like a failed check.
    #[must_use]
    pub fn with_lint_on_load(mut self, enabled: bool) -> Store {
        self.lint_on_load = enabled;
        self
    }

    /// Replaces the optimization pipeline this store keys and optimizes
    /// under (default: [`PipelineConfig::full`]). The pipeline identity is
    /// part of every fingerprint, so artifacts produced under different
    /// pipelines never alias.
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Store {
        self.pipeline = pipeline;
        self
    }

    /// Keys and verifies artifacts under a RISC-V lowering pipeline: the
    /// pipeline identity joins the fingerprint, every put lowers and
    /// files the machine artifact in the envelope, and every load
    /// requires one and differentially re-validates it against the
    /// decoded certificate (evicting on absence, identity mismatch, or
    /// divergence).
    #[must_use]
    pub fn with_rv_pipeline(mut self, rv: RvPipelineConfig) -> Store {
        self.rv_pipeline = Some(rv);
        self
    }

    /// Replaces the transient-fault retry policy.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Store {
        self.retry = retry;
        self
    }

    /// Replaces the degraded-mode threshold (consecutive backend
    /// failures; default [`DEGRADE_AFTER`]). `0` degrades on the first
    /// failure.
    #[must_use]
    pub fn with_degrade_after(mut self, failures: u32) -> Store {
        self.degrade_after = failures;
        self
    }

    /// Replaces the quarantine threshold (evictions of one key; default
    /// [`QUARANTINE_AFTER`]). `0` disables quarantining entirely — used
    /// by tests that hammer one key with corruption on purpose.
    #[must_use]
    pub fn with_quarantine_after(mut self, evictions: u32) -> Store {
        self.quarantine_after = evictions;
        self
    }

    /// The optimization pipeline this store keys under.
    pub fn pipeline(&self) -> &PipelineConfig {
        &self.pipeline
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether the store has flipped into degraded (compile-without-
    /// cache) mode.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The backend's short name (`"fs"`, `"chaos"`), for reports.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The file an artifact for `(name, key)` lives in.
    pub fn path_for(&self, name: &str, key: Fingerprint) -> PathBuf {
        self.root.join(format!("{name}-{key}.json"))
    }

    /// Fingerprints a request with this store's conventions.
    ///
    /// Note that [`EngineLimits::max_wall_ms`] is deliberately *not* part
    /// of the key (see `fingerprint`): deadlines change when an answer
    /// arrives, never which artifact is correct, and keying on them would
    /// fragment the cache across tenants with different latency budgets.
    pub fn key_for(
        &self,
        model: &Model,
        spec: &FnSpec,
        dbs: &HintDbs,
        limits: &EngineLimits,
    ) -> Fingerprint {
        let ct = self
            .pipeline
            .ct_policy
            .as_ref()
            .map_or_else(|| "public".to_string(), rupicola_analysis::SecrecyPolicy::identity_string);
        let rv = self
            .rv_pipeline
            .as_ref()
            .map_or_else(|| "none".to_string(), RvPipelineConfig::identity_string);
        fingerprint(&FingerprintInputs {
            pipeline: &self.pipeline.identity_string(),
            ct: &ct,
            rv: &rv,
            ..FingerprintInputs::new(model, spec, dbs, limits)
        })
    }

    /// One backend success: resets the consecutive-failure streak.
    fn note_backend_ok(&mut self) {
        self.consecutive_failures = 0;
    }

    /// One backend failure (post-retry): counts toward degraded mode.
    fn note_backend_failure(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures > self.degrade_after {
            self.degraded = true;
        }
    }

    /// One eviction of `path`: counts toward that key's quarantine.
    fn note_eviction(&mut self, path: &Path) {
        let count = self.evict_counts.entry(path.to_path_buf()).or_insert(0);
        *count += 1;
        if self.quarantine_after > 0
            && *count >= self.quarantine_after
            && self.quarantine.insert(path.to_path_buf())
        {
            self.stats.quarantined += 1;
        }
    }

    /// Startup recovery: reap orphaned `…tmp.<pid>` files whose writer is
    /// provably dead (unparseable writer tags are reaped too — they can
    /// only be litter). Live writers' in-flight temp files are never
    /// touched. Best-effort: an unlistable root simply skips recovery.
    fn recover(&mut self) {
        let listing = with_retry(&self.retry, || self.backend.list_dir(&self.root));
        self.stats.retries += u64::from(listing.retries);
        let Ok(entries) = listing.result else { return };
        for path in entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(pos) = name.rfind(".tmp.") else { continue };
            let writer = name[pos + ".tmp.".len()..].parse::<u32>().ok();
            let stale = match writer {
                Some(pid) => pid != std::process::id() && !pid_alive(pid),
                None => true,
            };
            if stale {
                let rm = with_retry(&self.retry, || self.backend.remove_file(&path));
                self.stats.retries += u64::from(rm.retries);
                if rm.result.is_ok() {
                    self.stats.scavenged += 1;
                }
            }
        }
    }

    /// The write half of a put: files `cf` (and `rv`, the machine
    /// artifact an rv-keyed stripe promises) under `key`. The write goes
    /// through a temporary file in the same directory followed by a
    /// rename (see [`Backend::write_atomic`]), so concurrent readers see
    /// either the old artifact or the new one, never a torn file.
    /// Transient I/O faults are retried; a degraded store and quarantined
    /// keys skip the write.
    ///
    /// # Errors
    ///
    /// Fails on post-retry I/O errors, in degraded mode, and for
    /// quarantined keys; the store counters are only bumped on success.
    pub(crate) fn write(
        &mut self,
        key: Fingerprint,
        cf: &CompiledFunction,
        rv: Option<&RvArtifact>,
    ) -> Result<PathBuf, String> {
        let path = self.path_for(&cf.function.name, key);
        if self.degraded {
            return Err(format!(
                "store degraded; not persisting {} (compile-without-cache mode)",
                path.display()
            ));
        }
        if self.quarantine.contains(&path) {
            return Err(format!(
                "{} is quarantined after repeated evictions; not persisting",
                path.display()
            ));
        }
        let artifact = encode_compiled_function(cf);
        let digest = crate::fingerprint::content_digest(&artifact);
        let mut fields = vec![
            ("format", Json::U64(FORMAT_VERSION)),
            ("key", Json::str(key.as_hex())),
            ("program", Json::str(cf.function.name.clone())),
            ("digest", Json::str(digest)),
            ("artifact", artifact),
        ];
        if let (Some(pipeline), Some(art)) = (&self.rv_pipeline, rv) {
            fields.push((
                "rv",
                Json::obj([
                    ("pipeline", Json::str(pipeline.identity_string())),
                    ("artifact", encode_rv_artifact(art)),
                ]),
            ));
        }
        let envelope = Json::obj(fields);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let bytes = envelope.render_compact().into_bytes();
        let write = with_retry(&self.retry, || self.backend.write_atomic(&tmp, &path, &bytes));
        self.stats.retries += u64::from(write.retries);
        match write.result {
            Ok(()) => {
                self.note_backend_ok();
                self.stats.stores += 1;
                Ok(path)
            }
            Err(e) => {
                self.note_backend_failure();
                self.stats.write_failures += 1;
                Err(format!("cannot write artifact {}: {e}", path.display()))
            }
        }
    }

    /// The read side of one load, free of `&mut` bookkeeping so it can
    /// run under a shared lock ([`crate::shard::ShardedStore`]'s read
    /// guard): retried read, then the verification ladder.
    pub(crate) fn attempt(
        &self,
        path: &Path,
        key: Fingerprint,
        model: &Model,
        spec: &FnSpec,
        dbs: &HintDbs,
    ) -> Raw {
        let raw = |retries, kind| Raw { retries, nanos: 0, key, cert: None, kind };
        if self.degraded {
            return raw(
                0,
                RawKind::Unavailable(
                    Unavailability::Degraded,
                    "store degraded (compile-without-cache)".to_string(),
                ),
            );
        }
        if self.quarantine.contains(path) {
            return raw(
                0,
                RawKind::Unavailable(
                    Unavailability::Quarantined,
                    format!("{} quarantined after repeated evictions", path.display()),
                ),
            );
        }
        let read = with_retry(&self.retry, || self.backend.read_to_string(path));
        let retries = read.retries;
        let text = match read.result {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return raw(retries, RawKind::Miss),
            // Non-UTF-8 contents are *corruption*, not an I/O fault: the
            // artifact must be evicted, exactly like undecodable JSON.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return raw(
                    retries,
                    RawKind::Evict(path.to_path_buf(), format!("unreadable (corrupt): {e}")),
                );
            }
            Err(e) => {
                return raw(
                    retries,
                    RawKind::Unavailable(
                        Unavailability::Io,
                        format!("read failed after {retries} retries: {e}"),
                    ),
                );
            }
        };
        let started = Instant::now();
        let mut cert = None;
        let dbs_identity = dbs.identity_string();
        let cached = self.certs.get(&key).filter(|entry| entry.dbs_identity == dbs_identity);
        let known = cached.map(|entry| (&*entry.text, &entry.cf));
        let outcome = unseal(&text, key, model, spec, known).and_then(|(cf, certified, rv)| {
            // The reuse rule: the certified fields' stored bytes are the
            // ones the entry was decoded from.
            let (entry, used) = match cached {
                Some(entry) if *entry.text == *certified => (Arc::clone(entry), CertUse::Reused),
                _ => {
                    let entry = Arc::new(CertEntry::new(&cf, certified, dbs_identity, &self.check));
                    (Arc::clone(&entry), CertUse::Built(entry))
                }
            };
            cert = Some(used);
            let rv = self.validate(&cf, rv, &entry, dbs)?;
            Ok(Box::new(Verified { cf, rv }))
        });
        let nanos = started.elapsed().as_nanos();
        let kind = match outcome {
            Ok(hit) => RawKind::Hit(hit),
            Err(reason) => RawKind::Evict(path.to_path_buf(), reason),
        };
        Raw { retries, nanos, key, cert, kind }
    }

    /// The serial bookkeeping for one [`Raw`] attempt: counters, degraded
    /// tracking, quarantine, eviction, and the key's certificate entry.
    pub(crate) fn settle(&mut self, raw: Raw) -> LoadOutcome {
        self.stats.retries += u64::from(raw.retries);
        self.stats.verify_nanos += raw.nanos;
        let built = match raw.cert {
            Some(CertUse::Reused) => {
                self.stats.cert_reuses += 1;
                None
            }
            Some(CertUse::Built(entry)) => Some(entry),
            None => None,
        };
        match raw.kind {
            RawKind::Miss => {
                self.note_backend_ok();
                self.stats.misses += 1;
                LoadOutcome::Miss
            }
            RawKind::Hit(hit) => {
                if let Some(entry) = built {
                    self.certs.insert(raw.key, entry);
                }
                self.note_backend_ok();
                self.stats.hits += 1;
                LoadOutcome::Hit(hit)
            }
            RawKind::Evict(path, reason) => {
                self.certs.remove(&raw.key);
                self.evict(&path, reason)
            }
            RawKind::Unavailable(cause, reason) => {
                // A degraded or quarantined skip is not a fresh backend
                // failure; only real post-retry I/O errors count toward
                // the degrade threshold.
                if cause == Unavailability::Io {
                    self.note_backend_failure();
                }
                self.stats.unavailable += 1;
                LoadOutcome::Unavailable { reason }
            }
        }
    }

    /// The second half of the ladder: every body the artifact serves,
    /// validated against `entry`'s certificate — the checker's body phase
    /// on the certified body, the optimized body's translation
    /// validation, the optional lints, and the machine artifact's
    /// differential. Returns the re-validated machine artifact when the
    /// store is rv-keyed.
    fn validate(
        &self,
        cf: &CompiledFunction,
        rv: Option<RvBlock>,
        entry: &CertEntry,
        dbs: &HintDbs,
    ) -> Result<Option<RvArtifact>, String> {
        // The load-bearing step: the independent checker re-validates the
        // certified body against the witness's certificate and re-runs
        // the differential test battery, exactly as it would after a
        // fresh compilation. The cache adds no trust. Every step below
        // validates a body against this one certificate.
        let cert = Certificate::with_parts(&entry.cf, dbs, &self.check, &entry.cert);
        cert.check_body(&cf.function).map_err(|e| format!("re-check failed: {e}"))?;
        let lint = || entry.lint.get_or_init(|| LintCertificate::new(&entry.cf, Some(dbs)));
        // A stored optimized body is as untrusted as the pass that made
        // it: re-run the full translation-validation stack (checker
        // against the original certificate, lints, interpreter
        // differential) before serving it. A tampered or stale optimized
        // body evicts the artifact exactly like a corrupt witness.
        // The CT policy the store was configured with participates here
        // too: an optimized body that regresses secret-independence under
        // the active policy is evicted, even if it is functionally sound.
        if let Some(opt) = &cf.optimized {
            let ct = entry
                .ct
                .get_or_init(|| CtBaseline::new(&entry.cf, self.pipeline.ct_policy.as_ref()));
            rupicola_opt::validate(&cert, lint(), opt, ct)
                .map_err(|e| format!("optimized body failed re-validation: {e}"))?;
        }
        if self.lint_on_load {
            let report = lint().analyze(&cf.function);
            if report.has_errors() {
                let first = report
                    .errors()
                    .next()
                    .map_or_else(|| "unknown lint error".to_string(), |f| f.to_string());
                return Err(format!("lint-on-load failed: {first}"));
            }
        }
        // A stored machine artifact is as untrusted as the lowering that
        // made it: when this store promises one (rv pipeline configured),
        // the envelope must carry it under the same pipeline identity, and
        // it is differentially re-executed against the just-re-certified
        // Bedrock2 body before being served. Absence, identity mismatch,
        // or divergence evicts — never a wrong answer.
        let Some(rv_pipeline) = &self.rv_pipeline else { return Ok(None) };
        let RvBlock { pipeline, artifact: art } =
            rv.ok_or("rv pipeline configured but envelope carries no machine artifact")?;
        if pipeline != rv_pipeline.identity_string() {
            return Err(format!(
                "machine artifact lowered under `{pipeline}`, requested `{}`",
                rv_pipeline.identity_string()
            ));
        }
        if art.name != cf.function.name {
            return Err(format!(
                "machine artifact is for `{}`, certificate is `{}`",
                art.name, cf.function.name
            ));
        }
        validate_artifact(&cert, &art)
            .map_err(|e| format!("machine artifact failed re-validation: {e}"))?;
        Ok(Some(art))
    }

    fn evict(&mut self, path: &Path, reason: String) -> LoadOutcome {
        let rm = with_retry(&self.retry, || match self.backend.remove_file(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        });
        self.stats.retries += u64::from(rm.retries);
        match rm.result {
            Ok(()) => self.note_backend_ok(),
            // The corrupt file could not be deleted: it will be found
            // again. Quarantine (below) bounds how often.
            Err(_) => self.note_backend_failure(),
        }
        self.stats.evictions += 1;
        self.note_eviction(path);
        LoadOutcome::Evicted { reason }
    }
}

/// An envelope's `rv` block: a machine artifact and the identity of the
/// lowering pipeline it was filed under.
struct RvBlock {
    pipeline: String,
    artifact: RvArtifact,
}

fn read_rv_block(r: &mut Reader<'_>) -> DecodeResult<RvBlock> {
    r.key("rv")?;
    r.begin_obj()?;
    r.key("pipeline")?;
    let pipeline = r.string()?;
    r.key("artifact")?;
    let artifact = read_rv_artifact(r)?;
    r.end_obj()?;
    Ok(RvBlock { pipeline, artifact })
}

/// The first half of the verification ladder, in one forward read of the
/// envelope text that builds no `Json` tree: header cross-checks, decode,
/// digest, input cross-check. Returns the decoded artifact, which is for
/// this request, the stored text of its certified fields, and the
/// envelope's `rv` block if it carries one. `known` is the key's cached
/// certified text and the function decoded from it: when the artifact
/// continues with that text, its certified fields are cloned from that
/// function instead of decoded ([`read_compiled_function`]).
fn unseal<'t>(
    text: &'t str,
    key: Fingerprint,
    model: &Model,
    spec: &FnSpec,
    known: Option<(&str, &CompiledFunction)>,
) -> Result<(CompiledFunction, &'t str, Option<RvBlock>), String> {
    let invalid = |e: ParseError| format!("invalid JSON: {e}");
    let mut r = Reader::new(text);
    r.begin_obj().map_err(invalid)?;
    r.key("format").map_err(invalid)?;
    match r.u64().map_err(invalid)? {
        FORMAT_VERSION => {}
        v => return Err(format!("format version {v}, expected {FORMAT_VERSION}")),
    }
    r.key("key").map_err(invalid)?;
    if r.str().map_err(invalid)? != key.as_hex() {
        return Err("stored key does not match filename key".to_string());
    }
    r.key("program").map_err(invalid)?;
    let program = r.str().map_err(invalid)?;
    if program != spec.name {
        return Err(format!("envelope program `{program}`, requested `{}`", spec.name));
    }
    r.key("digest").map_err(invalid)?;
    let digest = r.str().map_err(invalid)?;
    r.key("artifact").map_err(invalid)?;
    let ((cf, certified), stored) = r
        .span(|r| read_compiled_function(r, known))
        .map_err(|e| format!("decode: {e}"))?;
    // Byte-level integrity: the digest of the artifact's stored bytes.
    // The checker below re-proves the *semantics*; this step catches
    // corruption in the semantically inert parts of the witness (focus
    // renderings, solver names) that a flipped backend read could
    // otherwise smuggle into a served answer. The store writes the
    // compact rendering, so any other text of the artifact evicts here.
    if digest != text_digest(stored) {
        return Err("artifact content digest mismatch".to_string());
    }
    let rv = match r.peek().map_err(invalid)? {
        b'}' => None,
        _ => Some(read_rv_block(&mut r).map_err(|e| format!("rv decode: {e}"))?),
    };
    r.end_obj().map_err(invalid)?;
    r.finish().map_err(invalid)?;
    // Stale-input cross-check: the artifact must be *for this request*,
    // not merely a well-formed artifact filed under a colliding key.
    if cf.function.name != spec.name {
        return Err(format!(
            "artifact is for `{}`, requested `{}`",
            cf.function.name, spec.name
        ));
    }
    if cf.model != *model {
        return Err("stored model differs from requested model".to_string());
    }
    if cf.spec != *spec {
        return Err("stored spec differs from requested spec".to_string());
    }
    Ok((cf, certified, rv))
}

/// One key's checked certificate: everything a verified load validates
/// bodies against that depends only on the certified function — the
/// checker's certificate parts (structural result, vectors, source runs,
/// invariants, reference runs), the lint certificate and the CT baseline
/// decision — with the inputs they were built from: the certified fields
/// (`function`, `linked`, `derivation`, `model`, `spec`), both decoded
/// and as the stored text they were decoded from. Each part is computed
/// on first use and kept, so every later load of the key whose certified
/// text is the entry's, under the same hint-database identity, reuses it
/// and clones the decoded fields instead of decoding them again
/// (DESIGN.md §10).
///
/// The stripe's [`CheckConfig`] and CT policy are fixed when it is
/// opened, so an entry in a stripe always matches the stripe's
/// configuration.
pub(crate) struct CertEntry {
    /// The certified function the parts were computed from (no optimized
    /// body: an entry certifies, it does not serve).
    cf: CompiledFunction,
    /// The stored text `cf`'s certified fields were decoded from.
    text: Box<str>,
    /// `HintDbs::identity_string` of the databases the side conditions
    /// were re-solved under.
    dbs_identity: String,
    cert: CertificateParts,
    lint: OnceLock<LintCertificate>,
    ct: OnceLock<CtBaseline>,
}

impl CertEntry {
    fn new(
        cf: &CompiledFunction,
        text: &str,
        dbs_identity: String,
        check: &CheckConfig,
    ) -> CertEntry {
        CertEntry {
            cf: CompiledFunction { optimized: None, ..cf.clone() },
            text: text.into(),
            dbs_identity,
            cert: CertificateParts::new(check),
            lint: OnceLock::new(),
            ct: OnceLock::new(),
        }
    }
}

impl fmt::Debug for CertEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CertEntry")
            .field("function", &self.cf.function.name)
            .field("cert", &self.cert)
            .finish_non_exhaustive()
    }
}

/// One attempted load before the serial bookkeeping is applied.
pub(crate) struct Raw {
    retries: u32,
    nanos: u128,
    key: Fingerprint,
    /// The certificate entry the attempt validated against, if it got
    /// that far.
    cert: Option<CertUse>,
    kind: RawKind,
}

/// How an attempt came by its certificate entry.
enum CertUse {
    /// The artifact's certified text was the key's cached entry's.
    Reused,
    /// A fresh entry, inserted if the attempt is a hit.
    Built(Arc<CertEntry>),
}

enum RawKind {
    Miss,
    Hit(Box<Verified>),
    Evict(PathBuf, String),
    Unavailable(Unavailability, String),
}

/// Why an attempt could not answer. Only [`Unavailability::Io`] counts
/// toward degraded mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unavailability {
    /// The stripe is degraded and did not touch the disk.
    Degraded,
    /// The key is quarantined and was not read.
    Quarantined,
    /// The read failed after its retries.
    Io,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosBackend, FaultPlan};
    use crate::shard::ShardedStore;
    use rupicola_ext::standard_dbs;

    fn scratch_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rupicola-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A 1-shard store (the root layout) at a fresh scratch root.
    fn open(tag: &str) -> ShardedStore {
        ShardedStore::open(scratch_root(tag), 1).unwrap()
    }

    /// [`open`] with `tune` applied to the stripe.
    fn open_tuned(tag: &str, tune: impl Fn(Store) -> Store) -> ShardedStore {
        ShardedStore::open_with(scratch_root(tag), 1, |_| Box::new(FsBackend), tune).unwrap()
    }

    #[test]
    fn put_then_load_verified_hits() {
        let store = open("hit");
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let model = rupicola_programs::fnv1a::model();
        let spec = rupicola_programs::fnv1a::spec();
        let cf = rupicola_programs::fnv1a::compiled().unwrap();
        let key = store.key_for(&model, &spec, &dbs, &limits);
        store.put(key, &cf).unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Hit(loaded) => {
                assert_eq!(loaded.cf.function, cf.function);
                assert_eq!(loaded.cf.derivation, cf.derivation);
                assert_eq!(loaded.cf.stats, cf.stats);
                assert!(loaded.rv.is_none(), "a plain store files no machine code");
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions, stats.stores), (1, 0, 0, 1));
        assert!(stats.verify_nanos > 0);
        assert_eq!(stats.retries, 0, "no faults, no retries");
        assert!(!store.any_degraded());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn empty_store_misses() {
        let store = open("miss");
        let dbs = standard_dbs();
        let outcome = store.load_verified(
            &rupicola_programs::fnv1a::model(),
            &rupicola_programs::fnv1a::spec(),
            &dbs,
            &EngineLimits::default(),
        );
        assert!(matches!(outcome, LoadOutcome::Miss));
        assert_eq!(store.stats().misses, 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn garbage_artifact_is_evicted() {
        let store = open("garbage");
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let model = rupicola_programs::fnv1a::model();
        let spec = rupicola_programs::fnv1a::spec();
        let key = store.key_for(&model, &spec, &dbs, &limits);
        let path = store.shard(0).path_for(&spec.name, key);
        fs::write(&path, "{ not json").unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Evicted { reason } => assert!(reason.contains("invalid JSON"), "{reason}"),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(!path.exists(), "evicted artifact must be deleted");
        // Next lookup is a clean miss: the poisoned file is gone.
        assert!(matches!(store.load_verified(&model, &spec, &dbs, &limits), LoadOutcome::Miss));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn non_utf8_artifact_is_evicted_not_unavailable() {
        let store = open("utf8");
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let model = rupicola_programs::fnv1a::model();
        let spec = rupicola_programs::fnv1a::spec();
        let key = store.key_for(&model, &spec, &dbs, &limits);
        let path = store.shard(0).path_for(&spec.name, key);
        fs::write(&path, [0xff, 0xfe, 0x00, 0x41]).unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Evicted { reason } => assert!(reason.contains("corrupt"), "{reason}"),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(!path.exists());
        assert!(!store.any_degraded(), "corruption is not an I/O outage");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn optimized_artifact_round_trips_and_reverifies() {
        let store = open("opt-roundtrip");
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let model = rupicola_programs::fnv1a::model();
        let spec = rupicola_programs::fnv1a::spec();
        let mut cf = rupicola_programs::fnv1a::compiled().unwrap();
        let pipeline = store.pipeline().clone();
        let report =
            rupicola_opt::optimize_compiled(&mut cf, &dbs, &pipeline, &CheckConfig::default());
        assert!(report.applied_count() > 0, "fnv1a should optimize:\n{report}");
        let optimized = cf.optimized.clone().expect("optimized body");
        let key = store.key_for(&model, &spec, &dbs, &limits);
        store.put(key, &cf).unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Hit(loaded) => {
                assert_eq!(loaded.cf.optimized.as_ref(), Some(&optimized));
                assert_eq!(loaded.cf.stats, cf.stats);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn tampered_optimized_body_is_evicted() {
        let store = open("opt-tamper");
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let model = rupicola_programs::fnv1a::model();
        let spec = rupicola_programs::fnv1a::spec();
        let mut cf = rupicola_programs::fnv1a::compiled().unwrap();
        // A plausible-looking but miscompiled "optimized" body: the
        // certified body with its first live store deleted.
        let broken = rupicola_opt::mutants::PassMutant::DropLiveStore
            .apply(&cf.function)
            .expect("applicable");
        cf.optimized = Some(broken);
        let key = store.key_for(&model, &spec, &dbs, &limits);
        store.put(key, &cf).unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Evicted { reason } => {
                assert!(reason.contains("optimized body failed re-validation"), "{reason}");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(!store.shard(0).path_for(&spec.name, key).exists());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn flipped_descriptive_byte_is_evicted_by_the_digest() {
        let store = open("digest-tamper");
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let model = rupicola_programs::fnv1a::model();
        let spec = rupicola_programs::fnv1a::spec();
        let cf = rupicola_programs::fnv1a::compiled().unwrap();
        let key = store.key_for(&model, &spec, &dbs, &limits);
        let path = store.put(key, &cf).unwrap();
        // Flip one character inside a derivation node's `focus` rendering —
        // a field the checker treats as descriptive, so semantic
        // re-validation alone would serve the corrupted witness.
        let text = fs::read_to_string(&path).unwrap();
        let at = text.find("\"focus\":\"").expect("a focus field") + "\"focus\":\"".len();
        let mut bytes = text.into_bytes();
        bytes[at] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Evicted { reason } => {
                assert!(reason.contains("digest"), "{reason}");
            }
            other => panic!("expected digest eviction, got {other:?}"),
        }
        assert!(!store.shard(0).path_for(&spec.name, key).exists());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn pipeline_config_changes_the_key() {
        let store_full = open("key-full");
        let store_none = open_tuned("key-none", |s| s.with_pipeline(PipelineConfig::none()));
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let model = rupicola_programs::fnv1a::model();
        let spec = rupicola_programs::fnv1a::spec();
        assert_ne!(
            store_full.key_for(&model, &spec, &dbs, &limits),
            store_none.key_for(&model, &spec, &dbs, &limits)
        );
        let _ = fs::remove_dir_all(store_full.root());
        let _ = fs::remove_dir_all(store_none.root());
    }

    #[test]
    fn ct_policy_changes_the_key() {
        use rupicola_analysis::SecrecyPolicy;
        let plain = open("key-ct-plain");
        let strict = open_tuned("key-ct-strict", |s| {
            s.with_pipeline(PipelineConfig::full().with_ct_policy(SecrecyPolicy::secrets(["data"])))
        });
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let model = rupicola_programs::fnv1a::model();
        let spec = rupicola_programs::fnv1a::spec();
        assert_ne!(
            plain.key_for(&model, &spec, &dbs, &limits),
            strict.key_for(&model, &spec, &dbs, &limits),
            "an artifact verified under one secrecy policy must never be \
             served under another"
        );
        let _ = fs::remove_dir_all(plain.root());
        let _ = fs::remove_dir_all(strict.root());
    }

    #[test]
    fn deadline_is_not_part_of_the_key() {
        let store = open("key-deadline");
        let dbs = standard_dbs();
        let model = rupicola_programs::fnv1a::model();
        let spec = rupicola_programs::fnv1a::spec();
        let plain = EngineLimits::default();
        assert_eq!(
            store.key_for(&model, &spec, &dbs, &plain),
            store.key_for(&model, &spec, &dbs, &plain.with_deadline_ms(125)),
            "a deadline changes when an answer arrives, not which artifact is right"
        );
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn store_env_rejects_empty_value() {
        // Env vars are process-global and libtest runs tests on threads:
        // every env-mutating test serializes behind the shared lock.
        let _guard = crate::env::test_lock();
        std::env::set_var(STORE_ENV, "   ");
        let err = store_root_from_env().unwrap_err();
        assert!(err.contains("empty"), "{err}");
        std::env::set_var(STORE_ENV, "/tmp/some-store");
        assert_eq!(store_root_from_env().unwrap(), PathBuf::from("/tmp/some-store"));
        std::env::remove_var(STORE_ENV);
        assert_eq!(store_root_from_env().unwrap(), PathBuf::from(DEFAULT_ROOT));
    }

    #[test]
    fn outage_backend_degrades_instead_of_erroring_forever() {
        let root = scratch_root("outage");
        fs::create_dir_all(&root).unwrap();
        let store = ShardedStore::open_with(
            &root,
            1,
            |_| Box::new(ChaosBackend::new(FaultPlan::outage(11))),
            |s| {
                s.with_retry_policy(RetryPolicy {
                    max_attempts: 2,
                    base_delay: Duration::from_micros(10),
                    max_delay: Duration::from_micros(20),
                })
                .with_degrade_after(2)
            },
        )
        .unwrap();
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let model = rupicola_programs::fnv1a::model();
        let spec = rupicola_programs::fnv1a::spec();
        // Every read fails; after the threshold the store degrades and
        // stops touching the disk entirely.
        for _ in 0..5 {
            match store.load_verified(&model, &spec, &dbs, &limits) {
                LoadOutcome::Unavailable { .. } => {}
                other => panic!("expected unavailable under total outage, got {other:?}"),
            }
        }
        assert!(store.all_degraded());
        let stats = store.stats();
        assert_eq!(stats.unavailable, 5);
        assert!(stats.retries > 0, "transient faults must be retried before giving up");
        // Degraded puts are skipped, not attempted.
        let cf = rupicola_programs::fnv1a::compiled().unwrap();
        let key = store.key_for(&model, &spec, &dbs, &limits);
        let err = store.put(key, &cf).unwrap_err();
        assert!(err.contains("degraded"), "{err}");
        assert_eq!(store.stats().stores, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn repeated_corruption_quarantines_the_key() {
        let store = open_tuned("quarantine", |s| s.with_quarantine_after(3));
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let model = rupicola_programs::fnv1a::model();
        let spec = rupicola_programs::fnv1a::spec();
        let key = store.key_for(&model, &spec, &dbs, &limits);
        let path = store.shard(0).path_for(&spec.name, key);
        // A persistently corrupting environment: every write lands
        // corrupt, every load evicts. The third eviction quarantines.
        for i in 0..3 {
            fs::write(&path, format!("{{ corrupt #{i}")).unwrap();
            assert!(
                matches!(
                    store.load_verified(&model, &spec, &dbs, &limits),
                    LoadOutcome::Evicted { .. }
                ),
                "eviction #{i}"
            );
        }
        assert_eq!(store.stats().quarantined, 1);
        // From now on the key is dead to the cache: loads answer
        // Unavailable without reading, puts are refused — the
        // store/evict/recompile loop is broken.
        fs::write(&path, "{ corrupt again").unwrap();
        match store.load_verified(&model, &spec, &dbs, &limits) {
            LoadOutcome::Unavailable { reason } => {
                assert!(reason.contains("quarantined"), "{reason}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let cf = rupicola_programs::fnv1a::compiled().unwrap();
        let err = store.put(key, &cf).unwrap_err();
        assert!(err.contains("quarantined"), "{err}");
        assert!(!store.any_degraded(), "quarantine is per-key, not a store-wide outage");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn open_scavenges_orphans_of_dead_writers_only() {
        let root = scratch_root("scavenge");
        fs::create_dir_all(&root).unwrap();
        // Orphans: a dead pid (far above pid_max) and an unparseable tag.
        fs::write(root.join("prog-0011223344556677.tmp.4194999"), "torn").unwrap();
        fs::write(root.join("prog-0011223344556677.tmp.notapid"), "torn").unwrap();
        // A live writer's in-flight temp (our own pid) and a real artifact.
        let live = root.join(format!("prog-0011223344556677.tmp.{}", std::process::id()));
        fs::write(&live, "in flight").unwrap();
        let artifact = root.join("prog-0011223344556677.json");
        fs::write(&artifact, "{}").unwrap();
        let store = ShardedStore::open(&root, 1).unwrap();
        assert_eq!(store.stats().scavenged, 2);
        assert!(live.exists(), "live writers' temp files are never touched");
        assert!(artifact.exists(), "artifacts are never scavenged");
        assert!(!root.join("prog-0011223344556677.tmp.4194999").exists());
        assert!(!root.join("prog-0011223344556677.tmp.notapid").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn advisory_lock_excludes_and_breaks_stale_holders() {
        let root = scratch_root("lock");
        fs::create_dir_all(&root).unwrap();
        let lock = StoreLock::acquire(&root, Duration::from_millis(10)).unwrap();
        // Held: a second acquire times out (the holder pid — ours — is
        // alive).
        let err = StoreLock::acquire(&root, Duration::from_millis(20)).unwrap_err();
        assert!(err.contains("held by live pid"), "{err}");
        drop(lock);
        // Released: acquirable again.
        let lock = StoreLock::acquire(&root, Duration::from_millis(10)).unwrap();
        drop(lock);
        // Stale lock of a dead holder: broken and acquired.
        fs::write(root.join(LOCK_FILE), "4194999").unwrap();
        let lock = StoreLock::acquire(&root, Duration::from_millis(50)).unwrap();
        drop(lock);
        // Torn lock contents: unidentifiable holder, treated as stale.
        fs::write(root.join(LOCK_FILE), "garbage").unwrap();
        let lock = StoreLock::acquire(&root, Duration::from_millis(50)).unwrap();
        drop(lock);
        assert!(!root.join(LOCK_FILE).exists(), "drop removes the lock file");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn advisory_lock_contention_is_per_root_not_per_store() {
        // The concurrent server stripes the keyspace over shard
        // directories, each with its *own* advisory lock — so writers on
        // different shards never serialize on one `.lock` (the pre-shard
        // design's bottleneck), while contention on one shard root still
        // excludes correctly and hands over promptly on release.
        let shard_a = scratch_root("contention-a");
        let shard_b = scratch_root("contention-b");
        fs::create_dir_all(&shard_a).unwrap();
        fs::create_dir_all(&shard_b).unwrap();
        let held_a = StoreLock::acquire(&shard_a, Duration::from_millis(10)).unwrap();
        // Disjoint roots are uncontended: holding A's lock does not
        // serialize B.
        let held_b = StoreLock::acquire(&shard_b, Duration::from_millis(10)).unwrap();
        drop(held_b);
        // Same-root contention from another thread: the waiter's budget
        // outlasts the holder, so it must acquire as soon as the lock is
        // released — exclusion is a queue, not a failure.
        let waiter = std::thread::spawn({
            let shard_a = shard_a.clone();
            move || StoreLock::acquire(&shard_a, Duration::from_secs(10)).map(drop)
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(held_a);
        waiter.join().unwrap().expect("waiter acquires after release");
        assert!(!shard_a.join(LOCK_FILE).exists());
        let _ = fs::remove_dir_all(&shard_a);
        let _ = fs::remove_dir_all(&shard_b);
    }

    #[test]
    fn born_degraded_store_never_touches_disk() {
        let root = scratch_root("born-degraded");
        // Deliberately never created on disk.
        let store = ShardedStore::open_degraded(&root, 1);
        assert!(store.all_degraded());
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let model = rupicola_programs::fnv1a::model();
        let spec = rupicola_programs::fnv1a::spec();
        assert!(matches!(
            store.load_verified(&model, &spec, &dbs, &limits),
            LoadOutcome::Unavailable { .. }
        ));
        let cf = rupicola_programs::fnv1a::compiled().unwrap();
        let key = store.key_for(&model, &spec, &dbs, &limits);
        assert!(store.put(key, &cf).is_err());
        assert!(!root.exists(), "degraded store must not create directories");
    }
}
