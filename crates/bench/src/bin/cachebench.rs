//! Cold-vs-warm benchmark of the persistent artifact store.
//!
//! Runs the cached suite pass ([`compile_suite_cached`] over a 1-shard
//! store under a `default_workers()`-wide server) in two phases:
//!
//! 1. **cold** — `COLD_PASSES` passes, each on a freshly wiped store under
//!    a new server, so every program is compiled by the engine and filed
//!    (with `CACHEBENCH_KEEP_STORE=1`: one pass on the kept store, unwiped);
//! 2. **warm** — on the last cold pass's store, every program must come
//!    back as a verified cache load:
//!    zero engine derivations, every certificate re-checked by the
//!    independent checker on the way out of the store.
//!
//! Asserts (exit nonzero on violation):
//!
//! - the warm pass is 100% cache hits with no evictions;
//! - every warm pass after the first reuses its key's cached certificate
//!   on every load (`cert_reuses` rises by the pass's hit count): the
//!   first warm pass builds the entries, and a later one that decodes
//!   and re-checks a certificate has lost the reuse path;
//! - cold and warm results are structurally identical (function,
//!   derivation, stats);
//! - the median warm wall-time ≤ 0.5× the median cold wall-time — only
//!   enforced when phase 1 actually compiled everything (with
//!   `CACHEBENCH_KEEP_STORE=1` both phases may be warm and the ratio is
//!   reported but not gated).
//!
//! Both phases are timed through [`rupicola_bench::timing`], each as the
//! median of its passes; only the suite pass itself is timed, not the
//! wipe or the server start.
//!
//! With `CACHEBENCH_EXPECT_WARM=1` the *first* pass must already be fully
//! warm too — the CI mode for the second of two back-to-back runs.
//!
//! It also guards the on-disk form: every program's stored envelope must
//! be exactly the compact rendering of its own parse (exit 1 otherwise),
//! and its byte count goes into the program's row.
//!
//! Writes `results/cache.json`. Respects `SERVICE_STORE` for the store
//! root. Run with `cargo run --release -p rupicola-bench --bin cachebench`.

use rupicola_bench::json::{parse, write_results, Json};
use rupicola_bench::timing::{interleaved, time, Summary};
use rupicola_core::{EngineLimits, HintDbs};
use rupicola_ext::standard_dbs;
use rupicola_programs::parallel::default_workers;
use rupicola_service::{
    compile_suite_cached, env, store_root_from_env, CachedResult, Provenance, Server, ShardedStore,
    TenantTable,
};
use std::path::Path;

/// Timed cold passes, each on a freshly wiped store under a new server.
const COLD_PASSES: usize = 3;
/// Timed warm passes; every one must be 100% verified cache loads.
const WARM_PASSES: usize = 3;

/// Returns a suite pass; exits 1 if any program in it failed to compile.
fn checked(results: Vec<CachedResult>) -> Vec<CachedResult> {
    for r in &results {
        if let Err(e) = &r.result {
            eprintln!("cachebench: {} failed to compile: {e}", r.name);
            std::process::exit(1);
        }
    }
    results
}

/// One row per program: whether the pass served it from the store, and
/// the byte count of its stored envelope. Exits 1 if an envelope is
/// missing or not the compact rendering of its own parse.
fn program_rows(store: &ShardedStore, results: &[CachedResult], dbs: &HintDbs) -> Vec<Json> {
    results
        .iter()
        .map(|r| {
            let cf = r.result.as_ref().expect("checked");
            let key = store.key_for(&cf.model, &cf.spec, dbs, &EngineLimits::default());
            let path = store.shard(store.shard_of(key)).path_for(r.name, key);
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cachebench: cannot read {}: {e}", path.display());
                std::process::exit(1);
            });
            if !parse(&text).is_ok_and(|envelope| envelope.render_compact() == text) {
                eprintln!(
                    "cachebench: {} is not the compact rendering of its own parse",
                    path.display()
                );
                std::process::exit(1);
            }
            Json::obj([
                ("program", Json::str(r.name)),
                ("cached", Json::Bool(r.provenance == Provenance::Cache)),
                ("envelope_bytes", Json::U64(text.len() as u64)),
            ])
        })
        .collect()
}

/// Wipes the store at `root`; exits 2 if it exists and cannot be removed.
fn wipe(root: &Path) {
    if let Err(e) = std::fs::remove_dir_all(root) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("cachebench: cannot wipe store {}: {e}", root.display());
            std::process::exit(2);
        }
    }
}

/// A new server over a 1-shard store at `root`; exits 2 if it cannot open.
fn open_server(root: &Path) -> Server {
    let store = ShardedStore::open(root, 1).unwrap_or_else(|e| {
        eprintln!("cachebench: {e}");
        std::process::exit(2);
    });
    Server::new(store, TenantTable::default(), default_workers())
}

fn main() {
    let keep_store = env::flag_or_exit("CACHEBENCH_KEEP_STORE");
    let expect_warm = env::flag_or_exit("CACHEBENCH_EXPECT_WARM");
    let root = store_root_from_env().unwrap_or_else(|e| {
        eprintln!("cachebench: {e}");
        std::process::exit(2);
    });
    let dbs = standard_dbs();

    // Cold phase: a single pass varies more than 2x between runs, so the
    // gate compares against the median of several, each from an empty
    // store and a fresh server.
    let cold_passes = if keep_store { 1 } else { COLD_PASSES };
    let mut cold_samples = Vec::with_capacity(cold_passes);
    let mut cold_hits = 0;
    let mut last = None;
    for _ in 0..cold_passes {
        // The previous pass's server goes before its store is wiped.
        drop(last.take());
        if !keep_store {
            wipe(&root);
        }
        let server = open_server(&root);
        let (pass, ms) = time(|| compile_suite_cached(&server, &dbs));
        let pass = checked(pass);
        cold_hits += pass.iter().filter(|r| r.provenance == Provenance::Cache).count();
        cold_samples.push(ms);
        last = Some((server, pass));
    }
    let (server, first) = last.expect("at least one cold pass");
    let store = server.store();
    let cold_ms = Summary::of(cold_samples);
    let fully_cold = cold_hits == 0;
    if expect_warm && cold_hits != first.len() {
        eprintln!(
            "cachebench: CACHEBENCH_EXPECT_WARM=1 but the first pass had {}/{} cache hits",
            cold_hits,
            first.len()
        );
        std::process::exit(1);
    }

    // Warm phase: every pass must be 100% verified cache loads; the
    // median pass is the gated number, so a scheduler hiccup in one pass
    // doesn't fail an otherwise-healthy cache. Every pass still performs
    // the full verified-load ladder.
    let warm = interleaved(1, 0, WARM_PASSES, |_, clock| {
        let stats_before = store.stats();
        let pass = checked(clock.time(|| compile_suite_cached(&server, &dbs)));
        let stats = store.stats();
        let warm_hits = stats.hits - stats_before.hits;
        let warm_evictions = stats.evictions - stats_before.evictions;
        let warm_reuses = stats.cert_reuses - stats_before.cert_reuses;
        if warm_hits != pass.len()
            || warm_evictions != 0
            || pass.iter().any(|r| r.provenance != Provenance::Cache)
        {
            eprintln!(
                "cachebench: warm pass not fully cached: {warm_hits}/{} hits, \
                 {warm_evictions} eviction(s)",
                pass.len()
            );
            std::process::exit(1);
        }
        (pass, warm_reuses)
    })
    .remove(0);
    let warm_ms = Summary::of(warm.iter().map(|t| t.ms));
    let warm_reuses: Vec<usize> = warm.iter().map(|t| t.out.1).collect();
    let second = &warm[warm.len() - 1].out.0;
    let stats = store.stats();
    let warm_hits = second.len();
    if warm_reuses[1..].iter().any(|&n| n != warm_hits) {
        eprintln!(
            "cachebench: FAIL: warm passes after the first reused {warm_reuses:?} cached \
             certificate(s) of {warm_hits} hits each"
        );
        std::process::exit(1);
    }
    // And must serve exactly what the first pass produced.
    for (c, w) in first.iter().zip(second.iter()) {
        let (c, w) = (c.result.as_ref().expect("checked"), w.result.as_ref().expect("checked"));
        if c.function != w.function || c.derivation != w.derivation || c.stats != w.stats {
            eprintln!("cachebench: warm artifact for {} differs from cold", w.function.name);
            std::process::exit(1);
        }
    }

    let rows = program_rows(store, second, &dbs);

    let ratio = warm_ms.median / cold_ms.median;
    println!("cachebench: store root {}", store.root().display());
    println!(
        "  cold pass:   {:>8.2} ms median of {cold_passes} ({cold_hits} hit(s), \
         fully_cold={fully_cold})",
        cold_ms.median
    );
    println!(
        "  warm pass:   {:>8.2} ms median of {WARM_PASSES} ({warm_hits} verified hit(s) each, \
         {warm_reuses:?} cached certificate(s) reused)",
        warm_ms.median
    );
    println!(
        "  warm/cold:   {ratio:>8.3}  (verify time {:.2} ms total)",
        stats.verify_nanos as f64 / 1e6
    );

    let summary = Json::obj([
        ("cores", Json::U64(default_workers() as u64)),
        ("cold_ms", cold_ms.to_json()),
        ("warm_ms", warm_ms.to_json()),
        ("warm_over_cold", Json::F64(ratio)),
        ("fully_cold_first_pass", Json::Bool(fully_cold)),
        ("warm_hits", Json::U64(warm_hits as u64)),
        (
            "warm_cert_reuses",
            Json::Arr(warm_reuses.iter().map(|&n| Json::U64(n as u64)).collect()),
        ),
        ("programs", Json::Arr(rows)),
        ("cache", stats.to_json()),
    ]);
    // Only a genuinely cold first pass measures the advertised cold/warm
    // ratio; an already-warm run (CACHEBENCH_KEEP_STORE=1 in CI's second
    // invocation) must not clobber that record with warm-vs-warm numbers.
    if fully_cold {
        match write_results("cache.json", &summary) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cachebench: failed to write results: {e}");
                std::process::exit(2);
            }
        }
    } else {
        println!("store was warm; leaving results/cache.json untouched");
    }

    // The perf gate: a verified warm load must cost at most half a cold
    // compile. Only meaningful when phase 1 really compiled everything.
    if fully_cold && ratio > 0.5 {
        eprintln!("cachebench: FAIL: warm pass took {ratio:.3}x of cold (gate: 0.5x)");
        std::process::exit(1);
    }
    println!("cachebench: ok");
}
