//! Fault-injection benchmark of the service layer (DESIGN.md §12).
//!
//! Drives thousands of mixed compile requests through a 1-shard store
//! (the root layout) whose I/O backend injects faults from a **seeded**
//! schedule (transient `EIO`/`ENOSPC`, torn writes, post-write bit
//! flips, rename failures, stale temp-file litter), then replays three more scenarios: a total
//! outage (the store must degrade to compile-without-cache, not fail the
//! requests), a crash mid-store (reopen must scavenge the orphans and
//! keep serving), and one JSON-lines protocol round (ping, malformed
//! line, suite, stats) over the chaos store.
//!
//! Gates (exit 1 on violation):
//!
//! - **zero wrong answers** — every served result is cross-checked
//!   against a fresh fault-free compile (function + derivation equality)
//!   and re-certified by the full independent checker;
//! - **availability ≥ 99%** — faults may cost retries, misses,
//!   evictions or cache-less compiles, not answers;
//! - **bounded retries** — total retries stay under the per-operation
//!   policy bound times a small per-request operation count;
//! - **recovery** — after the simulated crash the reopened store
//!   scavenges every orphan and serves a verified hit.
//!
//! Environment: `CHAOS_SEED` (default `0xC0FFEE`) seeds the fault
//! schedule, `CHAOS_REQUESTS` (default 1200) sizes the trial,
//! `CHAOS_SKIP_RESULTS=1` suppresses `results/chaos.json` (the
//! randomized-seed CI run must not clobber the pinned record). Exit 2 on
//! invalid environment. Run with
//! `cargo run --release -p rupicola-bench --bin chaosbench`.

use rupicola_bench::json::{write_results, Json};
use rupicola_core::check::{check_with, CheckConfig};
use rupicola_core::{CompiledFunction, EngineLimits};
use rupicola_ext::standard_dbs;
use rupicola_programs::suite;
use rupicola_service::{
    resolve_one, serve, Backend, CachedResult, ChaosBackend, FaultPlan, Provenance, RetryPolicy,
    Server, ShardedStore, Store, TenantTable,
};
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rupicola-chaosbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens a 1-shard store at `root` over `backend`, with `tune` applied;
/// exits 2 if it cannot be opened.
fn open_store(
    root: &Path,
    backend: impl Fn() -> Box<dyn Backend>,
    tune: impl Fn(Store) -> Store,
) -> ShardedStore {
    ShardedStore::open_with(root, 1, |_| backend(), tune).unwrap_or_else(|e| {
        eprintln!("chaosbench: {e}");
        std::process::exit(2);
    })
}

fn fail(gate: &str, detail: String) -> ! {
    eprintln!("chaosbench: FAIL [{gate}]: {detail}");
    std::process::exit(1);
}

/// Splitmix-style stream for picking request programs — independent of
/// the backend's fault stream so request mix and fault schedule can be
/// varied separately.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

fn main() {
    let seed: u64 = rupicola_service::env::parsed_or_exit("CHAOS_SEED", 0xC0FFEE);
    let requests: usize = rupicola_service::env::parsed_or_exit("CHAOS_REQUESTS", 1200);
    let skip_results = rupicola_service::env::flag_or_exit("CHAOS_SKIP_RESULTS");
    let dbs = standard_dbs();
    let all = suite();
    let policy = RetryPolicy::default();
    let limits = EngineLimits::default();

    // Reference answers: one fault-free compile per program. Every answer
    // the chaos trial produces is compared against these — a "wrong
    // answer" is a served result whose function or derivation differs
    // from the fault-free one, or that fails the full checker.
    let reference: Vec<CompiledFunction> = all
        .iter()
        .map(|e| {
            (e.compiled)().unwrap_or_else(|err| {
                eprintln!("chaosbench: reference compile of {} failed: {err}", e.info.name);
                std::process::exit(2);
            })
        })
        .collect();
    let check_answer = |r: &CachedResult, scenario: &str| {
        let Ok(cf) = &r.result else { return };
        let reference = reference
            .iter()
            .find(|c| c.function.name == r.name)
            .unwrap_or_else(|| fail("wrong-answer", format!("{scenario}: unknown {}", r.name)));
        if cf.function != reference.function || cf.derivation != reference.derivation {
            fail(
                "wrong-answer",
                format!("{scenario}: {} differs from the fault-free compile", r.name),
            );
        }
        if let Err(e) = check_with(cf, &dbs, &CheckConfig::default()) {
            fail("wrong-answer", format!("{scenario}: {} fails the checker: {e}", r.name));
        }
    };

    // ---- Scenario 1: hostile trial ------------------------------------
    // Thousands of mixed requests against a store whose backend injects
    // every fault class from the seeded schedule.
    let root = scratch("trial");
    std::fs::create_dir_all(&root).unwrap();
    let store =
        open_store(&root, || Box::new(ChaosBackend::new(FaultPlan::hostile(seed))), |s| s);
    let mut picker = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut answered = 0usize;
    let t0 = std::time::Instant::now();
    for i in 0..requests {
        let entry = &all[(mix(&mut picker) as usize) % all.len()];
        // Deterministic churn: periodically expire the picked artifact so
        // the trial keeps *writing* (and thus keeps exposing the
        // torn-write / bit-flip / rename-failure / litter classes) instead
        // of settling into an all-hits steady state after seven stores.
        if i % 8 == 0 {
            let key = store.key_for(&(entry.model)(), &(entry.spec)(), &dbs, &limits);
            let _ = std::fs::remove_file(store.shard(0).path_for(entry.info.name, key));
        }
        let result = resolve_one(&store, entry, &dbs, &limits);
        check_answer(&result, "trial");
        if result.result.is_ok() {
            answered += 1;
        }
    }
    let trial_secs = t0.elapsed().as_secs_f64();
    let stats = store.stats();
    let availability = answered as f64 / requests.max(1) as f64;
    // Every request performs at most a handful of backend operations
    // (read, write, evict-remove), each retried at most max_attempts-1
    // times; anything past that bound means a retry loop.
    let retry_bound = (requests as u64 + 16) * 4 * u64::from(policy.max_attempts - 1);
    println!("chaosbench: trial: {requests} requests in {:.2}s (seed {seed:#x})", trial_secs);
    println!(
        "  availability: {:.4}  hits {}  misses {}  evictions {}  stores {}  unavailable {}",
        availability, stats.hits, stats.misses, stats.evictions, stats.stores, stats.unavailable
    );
    println!(
        "  retries {}  write_failures {}  quarantined {}  degraded {}",
        stats.retries,
        stats.write_failures,
        stats.quarantined,
        store.any_degraded()
    );
    if availability < 0.99 {
        fail("availability", format!("{availability:.4} < 0.99 over {requests} requests"));
    }
    if stats.retries > retry_bound {
        fail("bounded-retries", format!("{} retries > bound {retry_bound}", stats.retries));
    }
    let trial_stats = stats;
    let trial_degraded = store.any_degraded();

    // ---- Scenario 2: protocol round over the chaos store --------------
    // One JSON-lines batch including a ping, a malformed line and a
    // deadline'd request, served over the trial's chaos store by one
    // worker: in-band errors, no panics, no wrong answers.
    let input = "{\"op\":\"ping\"}\n\
                 not json\n\
                 {\"op\":\"compile\",\"program\":\"fnv1a\",\"deadline_ms\":600000}\n\
                 {\"op\":\"suite\"}\n\
                 {\"op\":\"stats\"}\n";
    let mut out = Vec::new();
    let server = Server::new(store, TenantTable::default(), 1);
    let n = serve(input.as_bytes(), &mut out, &server, &dbs).unwrap_or_else(|e| {
        eprintln!("chaosbench: protocol round I/O error: {e}");
        std::process::exit(2);
    });
    let lines: Vec<rupicola_lang::json::Json> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| rupicola_lang::json::parse(l).expect("served emits valid JSON"))
        .collect();
    if n != 5 || lines.len() != 5 {
        fail("protocol", format!("expected 5 responses, got {n}"));
    }
    let as_bool = |j: &rupicola_lang::json::Json, k: &str| j.get(k).and_then(Json::as_bool);
    if as_bool(&lines[0], "ok") != Some(true) {
        fail("protocol", "ping must succeed".to_string());
    }
    if as_bool(&lines[1], "ok") != Some(false) {
        fail("protocol", "malformed line must answer in-band".to_string());
    }
    println!("chaosbench: protocol round ok (5 responses, in-band errors)");

    // ---- Scenario 3: total outage degrades, requests still answered ----
    let outage_root = scratch("outage");
    std::fs::create_dir_all(&outage_root).unwrap();
    let outage_store = open_store(
        &outage_root,
        || Box::new(ChaosBackend::new(FaultPlan::outage(seed))),
        |s| {
            s.with_retry_policy(RetryPolicy {
                max_attempts: 2,
                base_delay: std::time::Duration::from_micros(50),
                max_delay: std::time::Duration::from_micros(200),
            })
            .with_degrade_after(2)
        },
    );
    let outage_requests = 25usize;
    let mut outage_ok = 0usize;
    for i in 0..outage_requests {
        let result = resolve_one(&outage_store, &all[i % all.len()], &dbs, &limits);
        check_answer(&result, "outage");
        if result.result.is_ok() {
            outage_ok += 1;
        }
    }
    if outage_ok != outage_requests {
        fail("outage", format!("{outage_ok}/{outage_requests} answered under outage"));
    }
    if !outage_store.all_degraded() {
        fail("outage", "store must flip to degraded under a persistent outage".to_string());
    }
    println!(
        "chaosbench: outage: {outage_ok}/{outage_requests} answered, degraded=true, {} retries",
        outage_store.stats().retries
    );

    // ---- Scenario 4: crash mid-store, reopen, recover ------------------
    // Warm a clean store, then fake a crash: orphaned temp files from a
    // writer that no longer exists (dead pid / torn tag). Reopen must
    // scavenge them all and still serve a verified hit.
    let crash_root = scratch("crash");
    let fs = || Box::new(rupicola_service::FsBackend) as Box<dyn Backend>;
    let crash_store = open_store(&crash_root, fs, |s| s);
    let entry = &all[0];
    let warm = resolve_one(&crash_store, entry, &dbs, &limits);
    check_answer(&warm, "crash-warmup");
    drop(crash_store);
    let orphans = [
        crash_root.join("fnv1a-dead.tmp.4194999"),
        crash_root.join("fnv1a-torn.tmp.not-a-pid"),
    ];
    for orphan in &orphans {
        std::fs::write(orphan, "{ killed mid-store").unwrap();
    }
    let reopened = open_store(&crash_root, fs, |s| s);
    let scavenged = reopened.stats().scavenged;
    if scavenged < orphans.len() {
        fail("recovery", format!("scavenged {scavenged}, planted {}", orphans.len()));
    }
    if orphans.iter().any(|o| o.exists()) {
        fail("recovery", "orphaned temp files survived reopen".to_string());
    }
    let served = resolve_one(&reopened, entry, &dbs, &limits);
    check_answer(&served, "crash-recovery");
    if served.provenance != Provenance::Cache {
        fail("recovery", "reopened store must serve the pre-crash artifact".to_string());
    }
    println!("chaosbench: recovery: {scavenged} orphan(s) scavenged, verified hit after reopen");

    // ---- Results -------------------------------------------------------
    let summary = Json::obj([
        ("seed", Json::U64(seed)),
        ("requests", Json::U64(requests as u64)),
        ("trial_secs", Json::F64(trial_secs)),
        ("availability", Json::F64(availability)),
        ("availability_floor", Json::F64(0.99)),
        ("wrong_answers", Json::U64(0)),
        ("retry_bound", Json::U64(retry_bound)),
        ("trial_degraded", Json::Bool(trial_degraded)),
        ("outage_answered", Json::U64(outage_ok as u64)),
        ("outage_degraded", Json::Bool(true)),
        ("recovery_scavenged", Json::U64(scavenged as u64)),
        ("cache", trial_stats.to_json()),
        (
            "plan",
            Json::obj([
                ("read_eio", Json::U64(u64::from(FaultPlan::hostile(seed).read_eio))),
                ("write_eio", Json::U64(u64::from(FaultPlan::hostile(seed).write_eio))),
                ("torn_write", Json::U64(u64::from(FaultPlan::hostile(seed).torn_write))),
                ("bit_flip", Json::U64(u64::from(FaultPlan::hostile(seed).bit_flip))),
                ("rename_fail", Json::U64(u64::from(FaultPlan::hostile(seed).rename_fail))),
                ("litter", Json::U64(u64::from(FaultPlan::hostile(seed).litter))),
                ("remove_eio", Json::U64(u64::from(FaultPlan::hostile(seed).remove_eio))),
            ]),
        ),
    ]);
    if skip_results {
        println!("CHAOS_SKIP_RESULTS=1; leaving results/chaos.json untouched");
    } else {
        match write_results("chaos.json", &summary) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("chaosbench: failed to write results: {e}");
                std::process::exit(2);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&outage_root);
    let _ = std::fs::remove_dir_all(&crash_root);
    println!("chaosbench: ok (zero wrong answers over {} served results)", requests);
}
