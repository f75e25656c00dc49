//! Deterministic concurrency battery for the multi-tenant server
//! (DESIGN.md §14).
//!
//! The server's contract is that concurrency is *invisible in the
//! answers*: scheduling, lock striping, work stealing, chaos-injected
//! store faults and racing clients may change provenance (cache vs
//! fresh) and latency, but every response must be byte-identical — via
//! the artifact types' structural equality, which the codec round-trip
//! battery in `service_cache.rs` ties to the rendered bytes — to the
//! serial fault-free reference, with exactly one response per request
//! and exact per-tenant accounting. This battery pins that:
//!
//! - chaos-backed concurrent batches vs a serial reference across 3+
//!   seeds (every shard on its own seeded `ChaosBackend`);
//! - barrier-stepped client threads (fixed interleaving points) hammering
//!   one server concurrently, each batch checked against the reference
//!   and the lifetime accounting summed exactly;
//! - quota exactness across seeds, and a two-tenant starvation test: a
//!   greedy tenant's flood is rejected *at admission* with typed
//!   backpressure, so the victim's work and answers are untouched;
//! - concurrent loads of one key sharing its cached certificate.

use rupicola::core::EngineLimits;
use rupicola::ext::standard_dbs;
use rupicola::programs::suite;
use rupicola::service::{
    ChaosBackend, CompileJob, FaultPlan, JobOutcome, LoadOutcome, Provenance, Server,
    ShardedStore, TenantPolicy, TenantStats, TenantTable,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Barrier;

const SEEDS: [u64; 4] = [1, 42, 0xC0FFEE, 0xDEAD_BEEF];
const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("rupicola-conc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic splitmix-style stream for building request traces.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// A seeded mixed-tenant trace over the whole suite.
fn trace(seed: u64, n: usize) -> Vec<CompileJob> {
    let all = suite();
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    (0..n)
        .map(|_| {
            let program = all[(mix(&mut state) as usize) % all.len()].info.name;
            let tenant = TENANTS[(mix(&mut state) as usize) % TENANTS.len()];
            CompileJob::named(program).tenant(tenant)
        })
        .collect()
}

/// The serial fault-free reference: the same jobs through a 1-worker,
/// 1-shard, plain-filesystem server.
fn reference_answers(jobs: &[CompileJob], tag: &str) -> Vec<rupicola::core::CompiledFunction> {
    let dbs = standard_dbs();
    let root = scratch(tag);
    let server = Server::new(
        ShardedStore::open(&root, 1).unwrap(),
        TenantTable::default(),
        1,
    );
    let responses = server.run_batch(jobs, &dbs);
    let answers = responses
        .iter()
        .map(|r| match &r.outcome {
            JobOutcome::Done(result) => result.result.clone().expect("reference compiles"),
            other => panic!("reference run must resolve {}: {other:?}", r.program),
        })
        .collect();
    let _ = std::fs::remove_dir_all(&root);
    answers
}

/// Asserts a concurrent run's responses are exactly the reference's:
/// one response per request, same program in the same slot, identical
/// function and derivation.
fn assert_identical(
    label: &str,
    jobs: &[CompileJob],
    responses: &[impl std::borrow::Borrow<rupicola::service::JobResponse>],
    reference: &[rupicola::core::CompiledFunction],
) {
    assert_eq!(responses.len(), jobs.len(), "{label}: lost or duplicated responses");
    for (i, (job, r)) in jobs.iter().zip(responses.iter().map(std::borrow::Borrow::borrow)).enumerate() {
        assert_eq!(r.program, job.program, "{label}: slot {i} answers the wrong request");
        let JobOutcome::Done(result) = &r.outcome else {
            panic!("{label}: slot {i} ({}) not resolved: {:?}", job.program, r.outcome);
        };
        let cf = result.result.as_ref().unwrap_or_else(|e| {
            panic!("{label}: slot {i} ({}) failed: {e}", job.program)
        });
        assert_eq!(cf.function, reference[i].function, "{label}: slot {i} function differs");
        assert_eq!(
            cf.derivation, reference[i].derivation,
            "{label}: slot {i} derivation differs"
        );
    }
}

/// Sums per-tenant submissions in a trace.
fn submissions(jobs: &[CompileJob]) -> BTreeMap<String, usize> {
    let mut by_tenant: BTreeMap<String, usize> = BTreeMap::new();
    for job in jobs {
        *by_tenant.entry(job.tenant.clone().unwrap_or_default()).or_default() += 1;
    }
    by_tenant
}

/// Chaos-backed concurrent batches answer byte-identically to the serial
/// fault-free reference across every seed: per-shard seeded fault
/// injection (transient EIO, torn writes, bit flips) may cost retries,
/// misses and degraded shards — never a different answer, never a lost
/// response.
#[test]
fn chaos_concurrent_matches_serial_reference_across_seeds() {
    let dbs = standard_dbs();
    for &seed in &SEEDS {
        let jobs = trace(seed, 36);
        let reference = reference_answers(&jobs, &format!("ref-{seed:x}"));
        let root = scratch(&format!("chaos-{seed:x}"));
        let store = ShardedStore::open_with(
            &root,
            4,
            |i| Box::new(ChaosBackend::new(FaultPlan::calm(seed ^ (i as u64 + 1)))),
            |s| s,
        )
        .unwrap();
        let server = Server::new(store, TenantTable::default(), 4);
        // Two rounds: the first mostly compiles, the second mostly loads
        // (through the fault-injecting backend) — both must be identical
        // to the reference.
        for round in 0..2 {
            let responses = server.run_batch(&jobs, &dbs);
            assert_identical(&format!("seed {seed:#x} round {round}"), &jobs, &responses, &reference);
        }
        // Accounting is exact and complete: every submission admitted and
        // completed ok, per tenant, both rounds.
        let stats = server.tenant_stats();
        for (tenant, sent) in submissions(&jobs) {
            let s = stats.get(&tenant).expect("tenant accounted");
            assert!(s.exact(), "seed {seed:#x}: {tenant} inexact: {s:?}");
            assert_eq!(s.submitted, 2 * sent, "seed {seed:#x}: {tenant} submissions");
            assert_eq!(s.completed_ok, 2 * sent, "seed {seed:#x}: {tenant} completions");
            assert_eq!(s.rejected, 0);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Barrier-stepped interleaving: N client threads release together into
/// `run_batch` on one shared server, for several rounds. Whatever the
/// interleaving does to scheduling, every client's every round is
/// byte-identical to the reference, and the server's lifetime accounting
/// is exactly the sum of what the clients sent.
#[test]
fn barrier_stepped_clients_are_answer_deterministic() {
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 3;
    let dbs = standard_dbs();
    let traces: Vec<Vec<CompileJob>> =
        (0..CLIENTS).map(|c| trace(0x5EED ^ c as u64, 18)).collect();
    let references: Vec<Vec<rupicola::core::CompiledFunction>> = traces
        .iter()
        .enumerate()
        .map(|(c, jobs)| reference_answers(jobs, &format!("barrier-ref-{c}")))
        .collect();

    let root = scratch("barrier");
    let server =
        Server::new(ShardedStore::open(&root, 4).unwrap(), TenantTable::default(), 2);
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for (c, (jobs, reference)) in traces.iter().zip(&references).enumerate() {
            let (server, barrier, dbs) = (&server, &barrier, &dbs);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Step the interleaving: all clients enter the round
                    // together, so batches genuinely overlap inside the
                    // striped store.
                    barrier.wait();
                    let responses = server.run_batch(jobs, dbs);
                    assert_identical(
                        &format!("client {c} round {round}"),
                        jobs,
                        &responses,
                        reference,
                    );
                }
            });
        }
    });

    // Lifetime accounting across all clients and rounds: no submission
    // lost, none double-counted, every identity exact.
    let mut expected: BTreeMap<String, usize> = BTreeMap::new();
    for jobs in &traces {
        for (tenant, sent) in submissions(jobs) {
            *expected.entry(tenant).or_default() += ROUNDS * sent;
        }
    }
    let stats = server.tenant_stats();
    for (tenant, sent) in expected {
        let s = stats.get(&tenant).expect("tenant accounted");
        assert!(s.exact(), "{tenant} inexact: {s:?}");
        assert_eq!(s.submitted, sent, "{tenant} lost or duplicated submissions");
        assert_eq!(s.completed_ok + s.completed_err, s.admitted);
        assert_eq!(s.rejected, 0);
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Quota accounting stays exact under concurrent clients across seeds:
/// every batch's rejections are deterministic (admission is serial, in
/// request order), and the lifetime counters still satisfy the identities
/// after racing clients.
#[test]
fn quota_accounting_is_exact_under_concurrency_across_seeds() {
    let dbs = standard_dbs();
    for &seed in &SEEDS[..3] {
        let root = scratch(&format!("quota-{seed:x}"));
        let tenants = TenantTable::default()
            .with_tenant("capped", TenantPolicy { max_queued: 5, ..TenantPolicy::default() });
        let server =
            Server::new(ShardedStore::open(&root, 2).unwrap(), tenants, 3);
        // Each batch: 9 capped requests (5 admitted, 4 rejected —
        // deterministically the *last* 4, admission being request-order)
        // plus seeded filler from unlimited tenants.
        let mut jobs: Vec<CompileJob> =
            (0..9).map(|_| CompileJob::named("fnv1a").tenant("capped")).collect();
        jobs.extend(trace(seed, 8));
        let clients = 2;
        std::thread::scope(|scope| {
            for _ in 0..clients {
                let (server, jobs, dbs) = (&server, &jobs, &dbs);
                scope.spawn(move || {
                    let responses = server.run_batch(jobs, dbs);
                    assert_eq!(responses.len(), jobs.len());
                    let rejected: Vec<usize> = responses
                        .iter()
                        .enumerate()
                        .filter(|(_, r)| matches!(r.outcome, JobOutcome::Rejected(_)))
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(rejected, vec![5, 6, 7, 8], "rejections are deterministic");
                });
            }
        });
        let stats = server.tenant_stats();
        assert!(stats.values().all(TenantStats::exact), "seed {seed:#x}: {stats:?}");
        let capped = &stats["capped"];
        assert_eq!(capped.submitted, 9 * clients);
        assert_eq!(capped.admitted, 5 * clients);
        assert_eq!(capped.rejected, 4 * clients);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Two-tenant starvation: a greedy tenant floods far past its quota while
/// a victim tenant submits normal work in the same batches. The flood is
/// cut at admission — typed rejections, no panic, no silent drop — so the
/// victim's answers are complete and correct and the scheduler never even
/// sees the excess (the victim's latency cannot be degraded by work that
/// is never admitted).
#[test]
fn greedy_tenant_cannot_starve_the_victim() {
    let dbs = standard_dbs();
    let root = scratch("starve");
    let tenants = TenantTable::default()
        .with_tenant("greedy", TenantPolicy { max_queued: 3, ..TenantPolicy::default() });
    let server = Server::new(ShardedStore::open(&root, 4).unwrap(), tenants, 4);

    let victim_jobs: Vec<CompileJob> = suite()
        .iter()
        .map(|e| CompileJob::named(e.info.name).tenant("victim"))
        .collect();
    let mut jobs: Vec<CompileJob> =
        (0..40).map(|_| CompileJob::named("utf8").tenant("greedy")).collect();
    jobs.extend(victim_jobs.iter().cloned());
    let reference = reference_answers(&victim_jobs, "starve-ref");

    let responses = server.run_batch(&jobs, &dbs);
    assert_eq!(responses.len(), jobs.len(), "every request answered, flood included");
    // The flood: exactly quota-many admitted, the rest typed rejections.
    let greedy: Vec<_> = responses.iter().filter(|r| r.tenant == "greedy").collect();
    let rejected = greedy
        .iter()
        .filter(|r| matches!(r.outcome, JobOutcome::Rejected(_)))
        .count();
    assert_eq!(rejected, 37, "flood rejected at admission: 3 admitted of 40");
    assert!(
        greedy.iter().all(|r| !matches!(r.outcome, JobOutcome::UnknownProgram)),
        "rejection is typed, never a swallowed request"
    );
    // The victim: all answers present, correct, and in order.
    let victim: Vec<_> = responses.iter().filter(|r| r.tenant == "victim").collect();
    assert_identical("victim under flood", &victim_jobs, &victim, &reference);
    let stats = server.tenant_stats();
    assert_eq!(stats["victim"].completed_ok, victim_jobs.len());
    assert_eq!(stats["victim"].rejected, 0);
    assert_eq!(stats["greedy"].admitted, 3);
    assert!(stats.values().all(TenantStats::exact));
    let _ = std::fs::remove_dir_all(&root);
}

/// Racing cold requests for the same key: however the workers interleave,
/// the store converges to one verified artifact and a follow-up batch is
/// all cache hits — duplicated *work* is possible, duplicated or divergent
/// *answers* are not.
#[test]
fn racing_cold_requests_converge_to_one_verified_artifact() {
    let dbs = standard_dbs();
    let root = scratch("race");
    let server =
        Server::new(ShardedStore::open(&root, 2).unwrap(), TenantTable::default(), 4);
    let jobs: Vec<CompileJob> = (0..8)
        .map(|i| CompileJob::named("crc32").tenant(TENANTS[i % TENANTS.len()]))
        .collect();
    let reference = reference_answers(&jobs, "race-ref");
    let responses = server.run_batch(&jobs, &dbs);
    assert_identical("racing colds", &jobs, &responses, &reference);
    // Convergence: the next batch serves every duplicate from the cache.
    let warm = server.run_batch(&jobs, &dbs);
    for r in &warm {
        let JobOutcome::Done(result) = &r.outcome else { panic!("unresolved: {r:?}") };
        assert_eq!(result.provenance, Provenance::Cache, "{}", r.program);
    }
    // And per-request deadlines still ride through the concurrent path:
    // an instantly-expiring deadline on a *cold* key fails in-band.
    let expire_root = scratch("race-deadline");
    let expire = Server::new(
        ShardedStore::open(&expire_root, 1).unwrap(),
        TenantTable::default(),
        2,
    );
    let mut dead = CompileJob::named("fnv1a");
    dead.deadline_ms = Some(0);
    let responses = expire.run_batch(std::slice::from_ref(&dead), &dbs);
    let JobOutcome::Done(result) = &responses[0].outcome else {
        panic!("deadline'd job must resolve in-band: {:?}", responses[0]);
    };
    assert!(result.result.is_err(), "0ms deadline on a cold key must expire");
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&expire_root);
}

/// Limits are part of the fingerprint (except `max_wall_ms`): per-tenant
/// budget overrides route to their own artifacts, but a deadline does not
/// fork the key — the concurrent server inherits the store's sharing
/// semantics unchanged.
#[test]
fn tenant_budgets_fork_keys_but_deadlines_do_not() {
    let dbs = standard_dbs();
    let root = scratch("budget");
    let tenants = TenantTable::default()
        .with_tenant("tight", TenantPolicy { limits: EngineLimits::tight(), ..TenantPolicy::default() });
    let server = Server::new(ShardedStore::open(&root, 2).unwrap(), tenants, 2);
    // A default-tenant compile populates the default-limits artifact.
    let responses = server.run_batch(&[CompileJob::named("m3s")], &dbs);
    assert!(responses[0].is_ok());
    // The tight tenant's limits hash differently: its first request is a
    // fresh compile, not a hit on the default artifact.
    let responses = server.run_batch(&[CompileJob::named("m3s").tenant("tight")], &dbs);
    let JobOutcome::Done(result) = &responses[0].outcome else { panic!() };
    assert_eq!(result.provenance, Provenance::Compiled, "tight limits fork the key");
    // A deadline'd request under default limits *hits* the default
    // artifact: wall-clock budget is deliberately not in the key.
    let mut dead = CompileJob::named("m3s");
    dead.deadline_ms = Some(600_000);
    let responses = server.run_batch(std::slice::from_ref(&dead), &dbs);
    let JobOutcome::Done(result) = &responses[0].outcome else { panic!() };
    assert_eq!(result.provenance, Provenance::Cache, "deadlines do not fork the key");
    let _ = std::fs::remove_dir_all(&root);
}

/// Four workers loading one key on a 1-shard store share its cached
/// certificate: every answer is the reference, every load is a hit, and
/// every load but the ones that built the entry reused it — at most one
/// build per worker, for the loads that raced the first settlement.
#[test]
fn concurrent_loads_of_one_key_share_its_certificate() {
    const WORKERS: usize = 4;
    const LOADS: usize = 12;
    let dbs = standard_dbs();
    let limits = EngineLimits::default();
    let model = rupicola::programs::crc32::model();
    let spec = rupicola::programs::crc32::spec();
    let reference = rupicola::programs::crc32::compiled().unwrap();
    let root = scratch("one-key");
    let store = ShardedStore::open(&root, 1).unwrap();
    store.put(store.key_for(&model, &spec, &dbs, &limits), &reference).unwrap();
    let start = Barrier::new(WORKERS);
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| {
                start.wait();
                for i in 0..LOADS {
                    match store.load_verified(&model, &spec, &dbs, &limits) {
                        LoadOutcome::Hit(loaded) => {
                            assert_eq!(loaded.cf.function, reference.function, "load {i}");
                            assert_eq!(loaded.cf.derivation, reference.derivation, "load {i}");
                        }
                        other => panic!("load {i}: expected a hit, got {other:?}"),
                    }
                }
            });
        }
    });
    let stats = store.stats();
    let hits = WORKERS * LOADS;
    assert_eq!((stats.hits, stats.misses, stats.evictions), (hits, 0, 0));
    let built = hits - stats.cert_reuses;
    assert!((1..=WORKERS).contains(&built), "{built} certificates built for one key");
    let _ = std::fs::remove_dir_all(&root);
}
