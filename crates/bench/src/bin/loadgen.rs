//! Load generator for the concurrent multi-tenant server (DESIGN.md §14).
//!
//! Replays a **seeded, deterministic** trace of mixed cold/warm compile
//! requests across four tenants through `rupicola_service::Server` in
//! `PAIRS` alternating pairs of passes — one with one worker (the serial
//! baseline, equivalent to the pre-concurrency `served` loop) and one with
//! `WORKERS` workers over a lock-striped sharded store, their order
//! alternating between pairs ([`rupicola_bench::timing`]) — then gates
//! the comparison into `results/service_load.json`. Every pass reports
//! its own latency percentiles; each gate compares the two arms' medians
//! of them across pairs.
//!
//! The trace is built as drain cycles that reproduce the production
//! pathology the scheduler exists for: each batch carries **one cold
//! request** (its artifact is deleted just before the batch, forcing a
//! full derivation) placed at a seed-chosen position among **many warm
//! requests** (verified cache loads, milliseconds each). Served
//! serially, every warm request queued behind the cold one eats the
//! whole derivation in its latency — head-of-line blocking. The
//! work-stealing scheduler lets warm requests complete while the cold
//! derivation runs, so warm tail latency collapses even on a single
//! core (processor sharing beats FIFO for mixed job sizes; it does not
//! add throughput there — that is reported, not gated).
//!
//! Two degraded scenarios ride along: every shard born degraded
//! (compile-without-cache must still answer everything, flagged), and a
//! two-tenant quota storm (typed `queue_full` rejections for the greedy
//! tenant, zero impact on the other's answers).
//!
//! Gates (exit 1 on violation):
//!
//! - **zero wrong answers** — every served result equals the fault-free
//!   reference compile (function + derivation), with the full
//!   independent checker re-run on every cold result and a 1-in-16
//!   sample of warm ones;
//! - **no lost/duplicated responses** — exactly one response per
//!   request, per tenant, per batch;
//! - **responsiveness improvement** (always) — warm p99 measured in
//!   units of cold p50 (the "how many derivations does a cache hit wait
//!   for" ratio) strictly improves over serial;
//! - **latency improvement** (machines with ≥ 2 cores) — concurrent
//!   warm p99 and cold p50 strictly below the serial baseline's;
//! - **bounded overhead** (single-core machines, where time-sharing one
//!   CPU cannot reduce CPU-bound latency — it is serial work reordered)
//!   — concurrent throughput ≥ 0.75× serial and warm p99 ≤ 1.5×
//!   serial, i.e. the scheduler costs almost nothing where it cannot
//!   win; `gate_mode` in the results records which branch ran;
//! - **accounting exactness** — per-tenant `submitted = admitted +
//!   rejected` and `admitted = completed_ok + completed_err` after every
//!   pass;
//! - **degraded availability** — the all-degraded pass answers 100%.
//!
//! Environment: `LOADGEN_SEED` (default `0x10AD`), `LOADGEN_REQUESTS`
//! (default 1500 — trace length per pass), `LOADGEN_SKIP_RESULTS=1` to
//! leave `results/service_load.json` untouched. Exit 2 on invalid
//! environment. Run with `cargo run --release -p rupicola-bench --bin
//! loadgen`.

use std::collections::BTreeMap;

use rupicola_bench::json::{write_results, Json};
use rupicola_bench::timing::{interleaved, percentile, Clock, Summary, Timed};
use rupicola_bench::{mix, scratch_dir};
use rupicola_core::check::{check_with, CheckConfig};
use rupicola_core::CompiledFunction;
use rupicola_ext::standard_dbs;
use rupicola_programs::parallel::default_workers;
use rupicola_programs::suite;
use rupicola_service::{
    CompileJob, JobOutcome, Server, ShardedStore, TenantPolicy, TenantStats, TenantTable,
};

const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
/// Workers of the concurrent arm (and of the degraded and storm passes).
const WORKERS: usize = 4;
/// Shards of every pass's store.
const SHARDS: usize = 8;
/// Requests per drain cycle.
const BATCH: usize = 25;
/// Alternating serial/concurrent pass pairs.
const PAIRS: usize = 5;
/// The compared arms: label and worker count.
const ARMS: [(&str, usize); 2] = [("serial", 1), ("concurrent", WORKERS)];

fn fail(gate: &str, detail: String) -> ! {
    eprintln!("loadgen: FAIL [{gate}]: {detail}");
    std::process::exit(1);
}

/// One drain cycle of the trace: the program whose artifact is expired
/// just before the batch runs, and the requests (cold first occurrence
/// of `churn` at a seed-chosen position, warm everywhere else).
struct Cycle {
    churn: &'static str,
    jobs: Vec<CompileJob>,
    /// `cold[i]` ⇔ `jobs[i]` is the cold request.
    cold: Vec<bool>,
}

/// Builds the full trace: `requests` jobs in batches of `batch`. Pure in
/// the seed.
fn build_trace(seed: u64, requests: usize, batch: usize) -> Vec<Cycle> {
    let all = suite();
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut cycles = Vec::new();
    let mut emitted = 0usize;
    while emitted < requests {
        let size = batch.min(requests - emitted).max(1);
        let churn = all[(mix(&mut state) as usize) % all.len()].info.name;
        let cold_at = (mix(&mut state) as usize) % size;
        let mut jobs = Vec::with_capacity(size);
        let mut cold = vec![false; size];
        for (i, is_cold) in cold.iter_mut().enumerate() {
            let tenant = TENANTS[(mix(&mut state) as usize) % TENANTS.len()];
            let program = if i == cold_at {
                *is_cold = true;
                churn
            } else {
                // Warm request: any *other* program (resolved in warmup,
                // never churned this cycle).
                let mut pick = all[(mix(&mut state) as usize) % all.len()].info.name;
                while pick == churn {
                    pick = all[(mix(&mut state) as usize) % all.len()].info.name;
                }
                pick
            };
            jobs.push(CompileJob::named(program).tenant(tenant));
        }
        emitted += size;
        cycles.push(Cycle { churn, jobs, cold });
    }
    cycles
}

/// Latencies (µs) split by planned temperature, in trace order.
#[derive(Default)]
struct PassLatencies {
    warm: Vec<f64>,
    cold: Vec<f64>,
}

/// One pass: its latencies and the server's final tenant stats.
type Pass = (PassLatencies, BTreeMap<String, TenantStats>);

/// Runs the trace through a fresh server, checking every answer, with
/// `clock` timing the trace, and returns the latency profile plus the
/// server's final tenant stats.
fn run_pass(
    label: &str,
    workers: usize,
    cycles: &[Cycle],
    reference: &BTreeMap<&'static str, CompiledFunction>,
    clock: &mut Clock,
) -> Pass {
    let dbs = standard_dbs();
    let root = scratch_dir(&format!("loadgen-{label}"));
    // Full optimization pipeline: the production configuration, and the
    // source of the cold/warm cost asymmetry the scheduler is being
    // measured on (a cold request pays compile + optimize + translation
    // validation; a warm one pays the verified-load ladder only).
    let store = ShardedStore::open_with(
        &root,
        SHARDS,
        |_| Box::new(rupicola_service::FsBackend),
        |s| s.with_pipeline(rupicola_opt::PipelineConfig::full()),
    )
    .unwrap_or_else(|e| {
        eprintln!("loadgen: {e}");
        std::process::exit(2);
    });
    let server = Server::new(store, TenantTable::default(), workers);
    let check = CheckConfig::default();

    // Warmup (untimed): resolve every program once so "warm" means warm.
    let warmup: Vec<CompileJob> = suite().iter().map(|e| CompileJob::named(e.info.name)).collect();
    for r in server.run_batch(&warmup, &dbs) {
        if !r.is_ok() {
            fail("warmup", format!("{label}: {} failed warmup", r.program));
        }
    }

    let mut out = PassLatencies::default();
    let mut checked = 0usize;
    clock.time(|| {
        for cycle in cycles {
            // Expire the cycle's churn program so its request derives from
            // scratch — the artifact lives in exactly one shard.
            {
                let entry = suite().into_iter().find(|e| e.info.name == cycle.churn).unwrap();
                let key = server.store().key_for(
                    &(entry.model)(),
                    &(entry.spec)(),
                    &dbs,
                    &Default::default(),
                );
                let path = server
                    .store()
                    .shard(server.store().shard_of(key))
                    .path_for(cycle.churn, key);
                let _ = std::fs::remove_file(path);
            }
            let responses = server.run_batch(&cycle.jobs, &dbs);
            if responses.len() != cycle.jobs.len() {
                fail(
                    "lost-response",
                    format!("{label}: {} jobs, {} responses", cycle.jobs.len(), responses.len()),
                );
            }
            for (i, r) in responses.iter().enumerate() {
                let JobOutcome::Done(result) = &r.outcome else {
                    fail("lost-response", format!("{label}: {} not resolved: {r:?}", r.program));
                };
                let Ok(cf) = &result.result else {
                    fail("wrong-answer", format!("{label}: {} failed: {:?}", r.program, result));
                };
                let want = &reference[result.name];
                if cf.function != want.function || cf.derivation != want.derivation {
                    fail(
                        "wrong-answer",
                        format!("{label}: {} differs from fault-free reference", r.program),
                    );
                }
                // Full independent re-certification: every cold answer, and a
                // deterministic 1-in-16 sample of warm ones (warm loads were
                // already checker-verified inside the store).
                checked += 1;
                if cycle.cold[i] || checked.is_multiple_of(16) {
                    if let Err(e) = check_with(cf, &dbs, &check) {
                        fail("wrong-answer", format!("{label}: {} fails checker: {e}", r.program));
                    }
                }
                let micros = r.latency_nanos as f64 / 1e3;
                if cycle.cold[i] {
                    out.cold.push(micros);
                } else {
                    out.warm.push(micros);
                }
            }
        }
    });

    let stats = server.tenant_stats();
    for (tenant, s) in &stats {
        if !s.exact() {
            fail("accounting", format!("{label}: tenant {tenant} inexact: {s:?}"));
        }
        if s.rejected != 0 {
            fail("accounting", format!("{label}: unexpected rejection for {tenant}"));
        }
    }
    let total: usize = stats.values().map(|s| s.submitted).sum();
    let expected = cycles.iter().map(|c| c.jobs.len()).sum::<usize>() + warmup.len();
    if total != expected {
        fail("lost-response", format!("{label}: {total} submitted != {expected} sent"));
    }
    let _ = std::fs::remove_dir_all(&root);
    (out, stats)
}

/// The statistics of one pass, in the order [`pass_stats`] returns them.
/// Responsiveness is warm p99 in units of cold p50: how many full
/// derivations a cache hit waits for.
const STATS: [&str; 7] = [
    "warm_p50_us", "warm_p99_us", "cold_p50_us", "cold_p99_us",
    "trace_ms", "throughput_rps", "responsiveness",
];
const WARM_P50: usize = 0;
const WARM_P99: usize = 1;
const COLD_P50: usize = 2;
const RPS: usize = 5;
const RESPONSIVENESS: usize = 6;

fn pass_stats(pass: &Timed<Pass>) -> [f64; 7] {
    let (warm, cold) = (&pass.out.0.warm, &pass.out.0.cold);
    let p = |v: &[f64], percent| percentile(v.iter().copied(), percent);
    let rps = (warm.len() + cold.len()) as f64 / (pass.ms / 1e3).max(1e-9);
    let responsiveness = p(warm, 99) / p(cold, 50).max(1e-3);
    [p(warm, 50), p(warm, 99), p(cold, 50), p(cold, 99), pass.ms, rps, responsiveness]
}

/// Each statistic of one arm, summarised across its passes.
fn arm_stats(passes: &[Timed<Pass>]) -> [Summary; 7] {
    let stats: Vec<[f64; 7]> = passes.iter().map(pass_stats).collect();
    std::array::from_fn(|i| Summary::of(stats.iter().map(|s| s[i])))
}

fn arm_json(arm: &[Summary; 7], warm_requests: usize, cold_requests: usize) -> Json {
    let counts = [("warm_requests", warm_requests), ("cold_requests", cold_requests)];
    let counts = counts.map(|(name, n)| (name, Json::U64(n as u64)));
    Json::obj(counts.into_iter().chain(STATS.into_iter().zip(arm.iter().map(Summary::to_json))))
}

fn main() {
    let seed: u64 = rupicola_service::env::parsed_or_exit("LOADGEN_SEED", 0x10AD);
    let requests: usize = rupicola_service::env::parsed_or_exit("LOADGEN_REQUESTS", 1500);
    let skip_results = rupicola_service::env::flag_or_exit("LOADGEN_SKIP_RESULTS");
    let dbs = standard_dbs();

    // Fault-free reference answers: the ground truth every served result
    // is compared against.
    let reference: BTreeMap<&'static str, CompiledFunction> = suite()
        .iter()
        .map(|e| {
            (
                e.info.name,
                (e.compiled)().unwrap_or_else(|err| {
                    eprintln!("loadgen: reference compile of {} failed: {err}", e.info.name);
                    std::process::exit(2);
                }),
            )
        })
        .collect();

    let cycles = build_trace(seed, requests, BATCH);
    let sent: usize = cycles.iter().map(|c| c.jobs.len()).sum();
    println!(
        "loadgen: trace: {sent} requests in {} drain cycles (seed {seed:#x}, batch {BATCH}, \
         {} tenants), {PAIRS} serial/concurrent pairs",
        cycles.len(),
        TENANTS.len()
    );

    // ---- Passes 1–2, in alternating pairs: the serial baseline (1
    // worker — the pre-concurrency loop) and the concurrent server.
    let mut passes = interleaved(ARMS.len(), 0, PAIRS, |arm, clock| {
        let (label, workers) = ARMS[arm];
        run_pass(label, workers, &cycles, &reference, clock)
    });
    for (pair, (s, c)) in passes[0].iter().zip(&passes[1]).enumerate() {
        let (s, c) = (pass_stats(s), pass_stats(c));
        println!(
            "loadgen: pair {pair}: serial warm p99 {:>7.0}us cold p50 {:>7.0}us {:>7.1} rps | \
             concurrent warm p99 {:>7.0}us cold p50 {:>7.0}us {:>7.1} rps",
            s[WARM_P99], s[COLD_P50], s[RPS], c[WARM_P99], c[COLD_P50], c[RPS]
        );
    }
    let [serial, concurrent] = [&passes[0], &passes[1]].map(|arm| arm_stats(arm));
    let tenant_stats = passes.remove(1).pop().expect("PAIRS > 0").out.1;
    for (label, arm) in [("serial:    ", &serial), ("concurrent:", &concurrent)] {
        println!(
            "loadgen: {label} median warm p50 {:>7.0}us p99 {:>7.0}us | cold p50 {:>7.0}us | \
             {:.1} rps",
            arm[WARM_P50].median, arm[WARM_P99].median, arm[COLD_P50].median, arm[RPS].median
        );
    }
    let median = |arm: &[Summary; 7], stat: usize| arm[stat].median;
    let (s_resp, c_resp) = (median(&serial, RESPONSIVENESS), median(&concurrent, RESPONSIVENESS));
    println!(
        "loadgen: median responsiveness (warm p99 / cold p50): serial {s_resp:.3} -> \
         concurrent {c_resp:.3} ({WORKERS} workers, {SHARDS} shards)"
    );

    // ---- Pass 3: every shard degraded — 100% answers, flagged, unpersisted.
    let degraded_root = scratch_dir("loadgen-degraded");
    let degraded_store = ShardedStore::open_degraded(&degraded_root, SHARDS);
    let degraded_server = Server::new(degraded_store, TenantTable::default(), WORKERS);
    let degraded_jobs: Vec<CompileJob> = cycles[0].jobs.clone();
    let degraded_responses = degraded_server.run_batch(&degraded_jobs, &dbs);
    let degraded_ok = degraded_responses.iter().filter(|r| r.is_ok()).count();
    if degraded_ok != degraded_jobs.len() {
        fail(
            "degraded",
            format!("{degraded_ok}/{} answered with every shard degraded", degraded_jobs.len()),
        );
    }
    if degraded_server.store().stats().stores != 0 {
        fail("degraded", "a degraded store persisted an artifact".to_string());
    }
    for r in &degraded_responses {
        let JobOutcome::Done(result) = &r.outcome else { unreachable!("checked ok above") };
        let cf = result.result.as_ref().unwrap();
        let want = &reference[result.name];
        if cf.function != want.function || cf.derivation != want.derivation {
            fail("wrong-answer", format!("degraded: {} differs from reference", r.program));
        }
    }
    println!("loadgen: degraded: {degraded_ok}/{} answered, nothing persisted", degraded_ok);

    // ---- Pass 4: quota storm — typed rejections, other tenant untouched.
    let storm_root = scratch_dir("loadgen-storm");
    let storm_tenants = TenantTable::default()
        .with_tenant("greedy", TenantPolicy { max_queued: 4, ..TenantPolicy::default() });
    let storm_server = Server::new(
        ShardedStore::open(&storm_root, SHARDS).unwrap(),
        storm_tenants,
        WORKERS,
    );
    let mut storm_jobs: Vec<CompileJob> =
        (0..12).map(|_| CompileJob::named("fnv1a").tenant("greedy")).collect();
    storm_jobs.extend((0..6).map(|_| CompileJob::named("crc32").tenant("alpha")));
    let storm = storm_server.run_batch(&storm_jobs, &dbs);
    let rejected = storm
        .iter()
        .filter(|r| matches!(r.outcome, JobOutcome::Rejected(_)))
        .count();
    let alpha_ok = storm.iter().filter(|r| r.tenant == "alpha" && r.is_ok()).count();
    if rejected != 8 {
        fail("backpressure", format!("expected 8 typed rejections, got {rejected}"));
    }
    if alpha_ok != 6 {
        fail("backpressure", format!("alpha lost answers to greedy's storm: {alpha_ok}/6"));
    }
    let storm_stats = storm_server.tenant_stats();
    if !storm_stats.values().all(TenantStats::exact) {
        fail("accounting", format!("storm accounting inexact: {storm_stats:?}"));
    }
    println!("loadgen: quota storm: {rejected} typed rejections, alpha unaffected (6/6)");
    let _ = std::fs::remove_dir_all(&degraded_root);
    let _ = std::fs::remove_dir_all(&storm_root);

    // ---- Gates: each on the arms' medians across pairs ----------------
    // Every latency gate is evaluated and reported; any failure exits 1.
    let mut failures: Vec<(&str, String)> = Vec::new();
    if c_resp >= s_resp {
        failures.push((
            "responsiveness",
            format!("warm p99 / cold p50 must improve: serial {s_resp:.3} vs {c_resp:.3}"),
        ));
    }
    let cores = default_workers();
    let (s_warm_p99, c_warm_p99) = (median(&serial, WARM_P99), median(&concurrent, WARM_P99));
    let gate_mode = if cores >= 2 { "multicore" } else { "single-core-overhead" };
    if cores >= 2 {
        // Real parallelism: the scheduler must deliver absolute wins —
        // warm requests stop queueing behind derivations, derivations
        // stop queueing behind each other.
        if c_warm_p99 >= s_warm_p99 {
            failures.push((
                "warm-p99",
                format!(
                    "concurrent warm p99 {c_warm_p99:.0}us must beat serial {s_warm_p99:.0}us \
                     on {cores} cores"
                ),
            ));
        }
        let (s_cold_p50, c_cold_p50) = (median(&serial, COLD_P50), median(&concurrent, COLD_P50));
        if c_cold_p50 >= s_cold_p50 {
            failures.push((
                "cold-p50",
                format!(
                    "concurrent cold p50 {c_cold_p50:.0}us must beat serial {s_cold_p50:.0}us \
                     on {cores} cores"
                ),
            ));
        }
    } else {
        // One core: time-sharing cannot reduce CPU-bound latency, so the
        // gate is that the scheduler costs almost nothing where it cannot
        // win (the absolute-improvement gates arm on multi-core runners).
        let (s_rps, c_rps) = (median(&serial, RPS), median(&concurrent, RPS));
        if c_rps < 0.75 * s_rps {
            failures.push((
                "overhead",
                format!("concurrent throughput {c_rps:.1} rps < 0.75x serial {s_rps:.1} rps"),
            ));
        }
        if c_warm_p99 > 1.5 * s_warm_p99 {
            failures.push((
                "overhead",
                format!(
                    "concurrent warm p99 {c_warm_p99:.0}us > 1.5x serial {s_warm_p99:.0}us on \
                     one core"
                ),
            ));
        }
    }
    if !failures.is_empty() {
        for (gate, detail) in &failures {
            eprintln!("loadgen: FAIL [{gate}]: {detail}");
        }
        std::process::exit(1);
    }
    println!("loadgen: gates ok ({gate_mode}, {cores} core(s))");

    // ---- Results -------------------------------------------------------
    let tenants: Vec<(String, Json)> =
        tenant_stats.iter().map(|(name, s)| (name.clone(), s.to_json())).collect();
    let summary = Json::obj([
        ("seed", Json::U64(seed)),
        ("requests", Json::U64(sent as u64)),
        ("batch", Json::U64(BATCH as u64)),
        ("workers", Json::U64(WORKERS as u64)),
        ("shards", Json::U64(SHARDS as u64)),
        ("pairs", Json::U64(PAIRS as u64)),
        ("wrong_answers", Json::U64(0)),
        ("lost_responses", Json::U64(0)),
        ("cores", Json::U64(cores as u64)),
        ("gate_mode", Json::str(gate_mode)),
        ("serial", arm_json(&serial, sent - cycles.len(), cycles.len())),
        ("concurrent", arm_json(&concurrent, sent - cycles.len(), cycles.len())),
        ("degraded_answered", Json::U64(degraded_ok as u64)),
        ("quota_rejections", Json::U64(rejected as u64)),
        ("tenants", Json::Obj(tenants)),
    ]);
    if skip_results {
        println!("LOADGEN_SKIP_RESULTS=1; leaving results/service_load.json untouched");
    } else {
        match write_results("service_load.json", &summary) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("loadgen: failed to write results: {e}");
                std::process::exit(2);
            }
        }
    }
    println!("loadgen: ok (zero wrong answers over {} served results)", 2 * PAIRS * sent);
}
