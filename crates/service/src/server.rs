//! The compilation server: the only way a request reaches the store.
//!
//! The sharded artifact store ([`ShardedStore`]), the work-stealing
//! scheduler ([`run_work_stealing`]), and per-tenant admission control
//! ([`tenant`](crate::tenant)) compose into a [`Server`] that answers a
//! batch of mixed-tenant requests with `W` workers over `N` store
//! stripes. [`resolve_one`] is the one load → compile → optimize → put
//! sequence; the JSON-lines front-end ([`crate::batch::serve`]), the
//! suite driver ([`compile_suite_cached`]) and the harness binaries all
//! go through it. There is no separate serial path: `workers = 1` runs a
//! batch inline in request order, and `shards = 1` files artifacts at
//! the store root.
//!
//! # Execution model
//!
//! [`Server::run_batch`] runs three phases:
//!
//! 1. **Admission** (serial, deterministic): every request passes its
//!    tenant's quota gate in request order. Rejections are typed and
//!    final — the scheduler only ever sees admitted jobs — so admission
//!    outcomes are independent of worker scheduling.
//! 2. **Execution** (parallel): admitted jobs go to the work-stealing
//!    pool. Each job routes by fingerprint to one store stripe: verified
//!    load under that stripe's read lock (bookkeeping under its write
//!    lock); on a miss the *compilation runs outside any lock* (it is
//!    pure), and only the final put write-locks the stripe. Long
//!    compilations migrate work to idle workers automatically.
//! 3. **Settlement** (serial, deterministic): results land in
//!    request-indexed slots; per-tenant accounting
//!    ([`TenantStats`]) is applied in request order.
//!
//! # Determinism
//!
//! Answers are byte-identical to a serial run of the same batch:
//! compilation is a pure function of `(model, spec, dbs, limits)`,
//! verified loads serve only artifacts that re-certify, and response
//! order is request order by construction. Concurrency can change
//! *provenance* (two racing cold requests may both compile instead of
//! one hitting the other's store-back) but never the answer — the
//! concurrency battery (`tests/service_concurrency.rs`) pins this
//! against a serial reference under seeded chaos backends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::shard::ShardedStore;
use crate::store::{store_root_from_env, CacheStats, LoadOutcome};
use crate::tenant::{Admission, Rejection, TenantStats, TenantTable, DEFAULT_TENANT};
use rupicola_core::check::CheckConfig;
use rupicola_core::{compile_with_limits, CompileError, CompiledFunction, EngineLimits, HintDbs};
use rupicola_opt::optimize_compiled;
use rupicola_programs::parallel::{default_workers, run_work_stealing};
use rupicola_programs::{suite, SuiteEntry};

/// How one program was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Served from the store after a verified load.
    Cache,
    /// Freshly compiled (store miss or eviction).
    Compiled,
}

/// One program's outcome, tagged with where it came from.
#[derive(Debug)]
pub struct CachedResult {
    /// Program name.
    pub name: &'static str,
    /// Compilation (or verified-load) outcome.
    pub result: Result<CompiledFunction, CompileError>,
    /// Cache or fresh compile.
    pub provenance: Provenance,
}

/// One compile request as the server schedules it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileJob {
    /// Tenant id; `None` routes to [`DEFAULT_TENANT`]'s shared quota.
    pub tenant: Option<String>,
    /// Suite program name.
    pub program: String,
    /// Optional per-request wall-clock deadline (overrides the tenant
    /// policy's `max_wall_ms` for this request only).
    pub deadline_ms: Option<u64>,
}

impl CompileJob {
    /// A job for `program` under the default tenant, no deadline.
    pub fn named(program: impl Into<String>) -> CompileJob {
        CompileJob { tenant: None, program: program.into(), deadline_ms: None }
    }

    /// This job under tenant `t`.
    #[must_use]
    pub fn tenant(mut self, t: impl Into<String>) -> CompileJob {
        self.tenant = Some(t.into());
        self
    }
}

/// How one job ended.
#[derive(Debug)]
pub enum JobOutcome {
    /// Resolved (cache or fresh compile; the result may still be a typed
    /// compile error — in-band, per request).
    Done(Box<CachedResult>),
    /// Rejected at admission with typed backpressure.
    Rejected(Rejection),
    /// The program is not in the suite.
    UnknownProgram,
}

/// One job's response: outcome plus completion latency relative to the
/// batch start (what loadgen's percentiles are computed over).
#[derive(Debug)]
pub struct JobResponse {
    /// The tenant billed for the job.
    pub tenant: String,
    /// Requested program.
    pub program: String,
    /// Outcome.
    pub outcome: JobOutcome,
    /// Nanoseconds from batch start to this job's completion (admission
    /// rejections settle at admission time).
    pub latency_nanos: u128,
}

impl JobResponse {
    /// Whether the job produced a successful answer.
    pub fn is_ok(&self) -> bool {
        matches!(&self.outcome, JobOutcome::Done(r) if r.result.is_ok())
    }
}

/// Resolves one suite entry through the sharded store: verified load,
/// compile-on-miss *outside* any lock (under the entry's limits
/// adjustment), optimize under the store's pipeline, store-back. The
/// store key uses the unadjusted `limits` and ignores their deadline, so
/// a load that hits is served whatever the deadline; only fresh
/// derivations race it.
pub fn resolve_one(
    store: &ShardedStore,
    entry: &SuiteEntry,
    dbs: &HintDbs,
    limits: &EngineLimits,
) -> CachedResult {
    let model = (entry.model)();
    let spec = (entry.spec)();
    match store.load_verified(&model, &spec, dbs, limits) {
        LoadOutcome::Hit(hit) => CachedResult {
            name: entry.info.name,
            result: Ok(hit.cf),
            provenance: Provenance::Cache,
        },
        // Miss, eviction and unavailable all degrade to a fresh compile;
        // the put below refuses or fails harmlessly if the stripe cannot
        // persist (degraded shard, quarantined key).
        LoadOutcome::Miss | LoadOutcome::Evicted { .. } | LoadOutcome::Unavailable { .. } => {
            let mut result = compile_with_limits(&model, &spec, dbs, (entry.limits)(*limits));
            if let Ok(cf) = &mut result {
                let pipeline = store.pipeline();
                if !pipeline.passes.is_empty() {
                    // Fresh optimization is a fresh claim, not a reload of
                    // an already-certified one: certification-strength
                    // validation.
                    let _ = optimize_compiled(cf, dbs, &pipeline, &CheckConfig::default());
                }
                let key = store.key_for(&cf.model, &cf.spec, dbs, limits);
                let _ = store.put(key, cf);
            }
            CachedResult { name: entry.info.name, result, provenance: Provenance::Compiled }
        }
    }
}

/// The multi-tenant compilation server: sharded store + scheduler +
/// admission, with lifetime per-tenant accounting.
#[derive(Debug)]
pub struct Server {
    store: ShardedStore,
    tenants: TenantTable,
    workers: usize,
    stats: Mutex<BTreeMap<String, TenantStats>>,
}

impl Server {
    /// A server over `store` with `workers` scheduler threads and
    /// `tenants` admission policies.
    pub fn new(store: ShardedStore, tenants: TenantTable, workers: usize) -> Server {
        Server { store, tenants, workers: workers.max(1), stats: Mutex::new(BTreeMap::new()) }
    }

    /// The underlying sharded store.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// Scheduler width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Lifetime per-tenant accounting (a snapshot).
    pub fn tenant_stats(&self) -> BTreeMap<String, TenantStats> {
        self.stats.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Runs one batch of jobs: admission (serial) → work-stealing
    /// execution (parallel) → settlement (serial). Responses come back in
    /// request order, exactly one per job — rejections included.
    pub fn run_batch(&self, jobs: &[CompileJob], dbs: &HintDbs) -> Vec<JobResponse> {
        let t0 = Instant::now();
        let all = suite();

        // Phase 1 — admission, in request order. `pending` carries the
        // per-tenant deltas; they merge into the lifetime stats at
        // settlement so a panicking worker cannot leave half a batch
        // accounted.
        let mut gate = Admission::new();
        let mut pending: BTreeMap<String, TenantStats> = BTreeMap::new();
        // Per-job: Some((entry, limits)) if admitted and known, else the
        // ready outcome.
        let mut admitted: Vec<Option<(SuiteEntry, EngineLimits)>> = Vec::with_capacity(jobs.len());
        let mut early: Vec<Option<JobOutcome>> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let tenant = job.tenant.as_deref().unwrap_or(DEFAULT_TENANT);
            let policy = self.tenants.policy(tenant);
            let stats = pending.entry(tenant.to_string()).or_default();
            stats.submitted += 1;
            match gate.admit(tenant, &policy) {
                Err(rejection) => {
                    stats.rejected += 1;
                    admitted.push(None);
                    early.push(Some(JobOutcome::Rejected(rejection)));
                }
                Ok(()) => {
                    stats.admitted += 1;
                    match all.iter().find(|e| e.info.name == job.program) {
                        None => {
                            // Unknown program: admitted, completes
                            // immediately with an in-band error.
                            stats.completed_err += 1;
                            gate.complete(tenant);
                            admitted.push(None);
                            early.push(Some(JobOutcome::UnknownProgram));
                        }
                        Some(entry) => {
                            let mut limits = policy.limits;
                            if let Some(ms) = job.deadline_ms {
                                limits = limits.with_deadline_ms(ms);
                            }
                            admitted.push(Some((entry.clone(), limits)));
                            early.push(None);
                        }
                    }
                }
            }
        }

        // Phase 2 — work-stealing execution of exactly the admitted,
        // known jobs. Results are keyed by *batch* index so settlement is
        // a direct merge.
        let runnable: Vec<usize> =
            (0..jobs.len()).filter(|&i| admitted[i].is_some()).collect();
        let outcomes: Vec<(usize, CachedResult, u128)> =
            run_work_stealing(runnable.len(), self.workers.min(runnable.len().max(1)), |j| {
                let i = runnable[j];
                let (entry, limits) =
                    admitted[i].as_ref().expect("runnable indices are admitted");
                let result = resolve_one(&self.store, entry, dbs, limits);
                (i, result, t0.elapsed().as_nanos())
            });

        // Phase 3 — settlement, in request order.
        let mut done: Vec<Option<(CachedResult, u128)>> = Vec::new();
        done.resize_with(jobs.len(), || None);
        for (i, result, nanos) in outcomes {
            done[i] = Some((result, nanos));
        }
        let admission_nanos = t0.elapsed().as_nanos();
        let mut responses = Vec::with_capacity(jobs.len());
        for ((job, early), done) in jobs.iter().zip(early).zip(done) {
            let tenant = job.tenant.clone().unwrap_or_else(|| DEFAULT_TENANT.to_string());
            let stats = pending.entry(tenant.clone()).or_default();
            let (outcome, latency_nanos) = match (early, done) {
                (Some(outcome), _) => (outcome, admission_nanos),
                (None, Some((result, nanos))) => {
                    match &result.result {
                        Ok(_) => {
                            stats.completed_ok += 1;
                            if result.provenance == Provenance::Cache {
                                stats.cache_hits += 1;
                            }
                        }
                        Err(_) => stats.completed_err += 1,
                    }
                    gate.complete(&tenant);
                    (JobOutcome::Done(Box::new(result)), nanos)
                }
                // Unreachable by construction: every job is either settled
                // early at admission or executed by the scheduler.
                (None, None) => (JobOutcome::UnknownProgram, admission_nanos),
            };
            responses.push(JobResponse {
                tenant,
                program: job.program.clone(),
                outcome,
                latency_nanos,
            });
        }
        debug_assert!(pending.values().all(TenantStats::exact));
        let mut lifetime =
            self.stats.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for (tenant, delta) in pending {
            let s = lifetime.entry(tenant).or_default();
            s.submitted += delta.submitted;
            s.admitted += delta.admitted;
            s.rejected += delta.rejected;
            s.completed_ok += delta.completed_ok;
            s.completed_err += delta.completed_err;
            s.cache_hits += delta.cache_hits;
        }
        responses
    }
}

/// Compiles the whole suite through `server`: one [`Server::run_batch`]
/// over every suite program under the default tenant, results in suite
/// order. A fully warm store performs zero derivations; fresh results are
/// written back (write failures are non-fatal — the next run just
/// misses).
pub fn compile_suite_cached(server: &Server, dbs: &HintDbs) -> Vec<CachedResult> {
    let all = suite();
    let jobs: Vec<CompileJob> = all.iter().map(|e| CompileJob::named(e.info.name)).collect();
    all.iter()
        .zip(server.run_batch(&jobs, dbs))
        .map(|(entry, r)| match r.outcome {
            JobOutcome::Done(result) => *result,
            // Only a tenant table whose default quota is smaller than the
            // suite rejects here; report it in-band like any failure.
            other => CachedResult {
                name: entry.info.name,
                result: Err(CompileError::Internal(format!("not resolved: {other:?}"))),
                provenance: Provenance::Compiled,
            },
        })
        .collect()
}

/// Harness-binary convenience: opens the environment-resolved store root
/// (`$SERVICE_STORE`, default `results/store`) as a 1-shard store under a
/// [`default_workers`]-wide server, runs the cached suite pass, and
/// returns the results together with the store's counters. Prints the
/// error and exits 2 if the store cannot be opened — for the
/// `table2`/`lint`/`validate`-style binaries whose other failure paths
/// already exit nonzero.
pub fn suite_via_store(dbs: &HintDbs) -> (Vec<CachedResult>, CacheStats) {
    let store = store_root_from_env()
        .and_then(|root| ShardedStore::open(root, 1))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    let server = Server::new(store, TenantTable::default(), default_workers());
    let results = compile_suite_cached(&server, dbs);
    (results, server.store().stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantPolicy;
    use rupicola_ext::standard_dbs;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rupicola-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn server(tag: &str, shards: usize, workers: usize) -> Server {
        Server::new(
            ShardedStore::open(scratch(tag), shards).unwrap(),
            TenantTable::default(),
            workers,
        )
    }

    #[test]
    fn batch_resolves_mixed_tenants_with_exact_accounting() {
        let server = server("mixed", 4, 4);
        let dbs = standard_dbs();
        let jobs = vec![
            CompileJob::named("fnv1a").tenant("a"),
            CompileJob::named("crc32").tenant("b"),
            CompileJob::named("fnv1a").tenant("a"),
            CompileJob::named("nosuch").tenant("b"),
        ];
        let responses = server.run_batch(&jobs, &dbs);
        assert_eq!(responses.len(), 4);
        assert!(responses[0].is_ok());
        assert!(responses[1].is_ok());
        assert!(responses[2].is_ok());
        assert!(matches!(responses[3].outcome, JobOutcome::UnknownProgram));
        let stats = server.tenant_stats();
        assert_eq!(stats["a"].submitted, 2);
        assert_eq!(stats["a"].completed_ok, 2);
        assert_eq!(stats["b"].submitted, 2);
        assert_eq!(stats["b"].completed_ok, 1);
        assert_eq!(stats["b"].completed_err, 1);
        assert!(stats.values().all(TenantStats::exact));
        // A second batch is all warm: the sharded store served it.
        let responses = server.run_batch(&jobs[..3], &dbs);
        assert!(responses.iter().all(|r| matches!(
            &r.outcome,
            JobOutcome::Done(d) if d.provenance == Provenance::Cache
        )));
        let _ = std::fs::remove_dir_all(server.store().root());
    }

    #[test]
    fn quota_rejections_are_typed_and_final() {
        let store = ShardedStore::open(scratch("quota"), 2).unwrap();
        let tenants = TenantTable::default()
            .with_tenant("greedy", TenantPolicy { max_queued: 2, ..TenantPolicy::default() });
        let server = Server::new(store, tenants, 2);
        let dbs = standard_dbs();
        let jobs: Vec<CompileJob> =
            (0..5).map(|_| CompileJob::named("fnv1a").tenant("greedy")).collect();
        let responses = server.run_batch(&jobs, &dbs);
        let rejected: Vec<_> = responses
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Rejected(_)))
            .collect();
        assert_eq!(rejected.len(), 3, "2 admitted, 3 rejected");
        // Rejection is deterministic: the *first two* requests are the
        // admitted ones (admission order is request order).
        assert!(responses[0].is_ok() && responses[1].is_ok());
        let stats = server.tenant_stats();
        assert_eq!(stats["greedy"].admitted, 2);
        assert_eq!(stats["greedy"].rejected, 3);
        assert!(stats["greedy"].exact());
        // The queue drained: a fresh batch admits again.
        assert!(server.run_batch(&jobs[..1], &dbs)[0].is_ok());
        let _ = std::fs::remove_dir_all(server.store().root());
    }

    #[test]
    fn cold_then_warm_suite_serves_everything_from_cache() {
        let server = server("suite", 1, 2);
        let dbs = standard_dbs();

        let cold = compile_suite_cached(&server, &dbs);
        assert_eq!(cold.len(), 7);
        assert!(cold.iter().all(|r| r.provenance == Provenance::Compiled));
        assert!(cold.iter().all(|r| r.result.is_ok()));
        assert_eq!(server.store().stats().stores, 7);

        let warm = compile_suite_cached(&server, &dbs);
        assert!(warm.iter().all(|r| r.provenance == Provenance::Cache), "{warm:?}");
        assert_eq!(server.store().stats().hits, 7);
        for (c, w) in cold.iter().zip(warm.iter()) {
            assert_eq!(c.name, w.name);
            let (c, w) = (c.result.as_ref().unwrap(), w.result.as_ref().unwrap());
            assert_eq!(c.function, w.function);
            assert_eq!(c.derivation, w.derivation);
            assert_eq!(c.stats, w.stats);
            // The store keys under the full pipeline by default, so warm
            // runs serve the same (re-validated) optimized body the cold
            // run produced.
            assert_eq!(c.optimized, w.optimized);
        }
        assert!(
            cold.iter()
                .filter(|r| r.result.as_ref().is_ok_and(|cf| cf.optimized.is_some()))
                .count()
                >= 3,
            "the default pipeline should optimize several suite programs"
        );
        let _ = std::fs::remove_dir_all(server.store().root());
    }
}
