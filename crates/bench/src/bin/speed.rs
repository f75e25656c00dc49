//! Compiler-throughput harness: statements/second of the proof-search
//! engine on the enlarged perf suite (`perf_suite`: the seven Table 2
//! programs plus the full ChaCha20 block, the poly1305-style accumulate,
//! and the hex codecs — 2x+ the Table 2 statement count), in three
//! configurations of the one engine (§4.3 reports Coq-Rupicola at 2–15
//! statements/second; the paper names compiler speed as the practical
//! bottleneck):
//!
//! - `linear` — [`DispatchMode::Linear`]: every lemma tried for every
//!   goal in registration order, memo cache off, one worker;
//! - `indexed` — goal-head dispatch index + side-condition memo cache,
//!   one worker;
//! - `indexed+parallel` — the indexed engine on `available_parallelism`
//!   work-stealing workers.
//!
//! All three modes are timed in one process, interleaved per repetition,
//! so the comparison is not polluted by machine-load drift between runs.
//! Writes `results/compiler_speed.json` (with the core count it ran on)
//! and exits nonzero if the `indexed+parallel` throughput falls below the
//! committed absolute floor (the CI speed gate).
//!
//! Run with `cargo run --release -p rupicola-bench --bin speed`.
//! `SPEED_REPS` overrides the repetition count (default 30).

use rupicola_bench::json::{write_results, Json};
use rupicola_core::{CompileStats, DispatchMode, EngineLimits, HintDbs};
use rupicola_ext::standard_dbs;
use rupicola_programs::parallel::{compile_entries, default_workers, on_deep_stack, SuiteResult};
use rupicola_programs::{perf_suite, SuiteEntry};
use std::hint::black_box;
use std::time::Instant;

/// Absolute throughput floor for the `indexed+parallel` configuration, in
/// statements per second. The engine measures ~11,000–13,500
/// statements/s on a 2-core host (see `results/compiler_speed.json`, which
/// records the core count); the floor is committed at roughly a third of
/// that so the gate trips on real regressions — a quadratic memo-cache
/// scan, an O(n²) goal-snapshot copy — rather than on scheduler jitter or
/// a slower CI host.
const MIN_STATEMENTS_PER_S_PARALLEL: f64 = 4_500.0;

struct Mode {
    name: &'static str,
    dbs: HintDbs,
    workers: usize,
}

/// One full-suite run. On a deep-stack thread because one worker compiles
/// inline, and `chacha20_block`'s derivation overflows a default stack.
fn run(mode: &Mode, entries: &[SuiteEntry]) -> Vec<SuiteResult> {
    on_deep_stack(|| compile_entries(entries, &mode.dbs, &EngineLimits::default(), mode.workers))
}

/// Aggregates compile stats over one full-suite run.
fn aggregate(results: &[SuiteResult]) -> CompileStats {
    let mut total = CompileStats::default();
    for r in results {
        let s = r.result.as_ref().expect("suite compiles").stats;
        total.lemma_applications += s.lemma_applications;
        total.side_conditions += s.side_conditions;
        total.solver_cache_hits += s.solver_cache_hits;
        total.solver_cache_misses += s.solver_cache_misses;
        total.solver_confirm_compares += s.solver_confirm_compares;
    }
    total
}

fn main() {
    // Strict: a set-but-unparseable SPEED_REPS (e.g. `3O`) aborts with an
    // explanation instead of silently running the 30-rep default.
    let reps: u32 = rupicola_service::env::parsed_or_exit("SPEED_REPS", 30);

    let entries = perf_suite();
    let cores = default_workers();
    let mut linear_dbs = standard_dbs();
    linear_dbs.set_dispatch_mode(DispatchMode::Linear);
    let modes = [
        Mode { name: "linear", dbs: linear_dbs, workers: 1 },
        Mode { name: "indexed", dbs: standard_dbs(), workers: 1 },
        Mode { name: "indexed+parallel", dbs: standard_dbs(), workers: cores },
    ];

    // The statement count is a property of the emitted code and identical
    // across modes (the equivalence battery proves it); count it once.
    let reference = run(&modes[0], &entries);
    let total_statements: usize = reference
        .iter()
        .map(|r| r.result.as_ref().expect("suite compiles").function.statement_count())
        .sum();

    // Warm-up, then interleave the modes per repetition and keep each
    // mode's best suite time, so load spikes hit all modes alike.
    for mode in &modes {
        black_box(run(mode, &entries));
    }
    let mut best = [f64::INFINITY; 3];
    for _ in 0..reps {
        for (i, mode) in modes.iter().enumerate() {
            let t0 = Instant::now();
            black_box(run(mode, &entries));
            best[i] = best[i].min(t0.elapsed().as_secs_f64());
        }
    }

    let throughput = |secs: f64| total_statements as f64 / secs;
    println!(
        "{:<18} {:>10} {:>14} {:>12} {:>12} {:>12}",
        "mode", "ms/suite", "statements/s", "cache hits", "cache misses", "confirms"
    );
    let mut rows = Vec::new();
    for (i, mode) in modes.iter().enumerate() {
        let stats = aggregate(&run(mode, &entries));
        println!(
            "{:<18} {:>10.3} {:>14.0} {:>12} {:>12} {:>12}",
            mode.name,
            best[i] * 1e3,
            throughput(best[i]),
            stats.solver_cache_hits,
            stats.solver_cache_misses,
            stats.solver_confirm_compares,
        );
        rows.push(Json::obj([
            ("mode", Json::str(mode.name)),
            ("ms_per_suite", Json::F64(best[i] * 1e3)),
            ("statements_per_s", Json::F64(throughput(best[i]))),
            ("solver_cache_hits", Json::U64(stats.solver_cache_hits as u64)),
            ("solver_cache_misses", Json::U64(stats.solver_cache_misses as u64)),
            ("solver_confirm_compares", Json::U64(stats.solver_confirm_compares as u64)),
            (
                "solver_cache_hit_rate",
                stats.solver_cache_hit_rate().map_or(Json::Bool(false), Json::F64),
            ),
        ]));
    }
    let speedup_indexed = best[0] / best[1];
    let speedup_parallel = best[0] / best[2];
    let parallel_stmts_per_s = throughput(best[2]);
    println!(
        "\nspeedup: indexed {speedup_indexed:.2}x, indexed+parallel {speedup_parallel:.2}x \
         over linear dispatch ({total_statements} statements, {} programs, {cores} core(s))",
        entries.len()
    );

    let summary = Json::obj([
        ("statements", Json::U64(total_statements as u64)),
        ("programs", Json::U64(entries.len() as u64)),
        ("cores", Json::U64(cores as u64)),
        ("repetitions", Json::U64(u64::from(reps))),
        ("modes", Json::Arr(rows)),
        ("speedup_indexed", Json::F64(speedup_indexed)),
        ("speedup_indexed_parallel", Json::F64(speedup_parallel)),
        ("min_statements_per_s_parallel", Json::F64(MIN_STATEMENTS_PER_S_PARALLEL)),
    ]);
    match write_results("compiler_speed.json", &summary) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => println!("failed to write results: {e}"),
    }

    // The CI speed gate: an absolute floor, a committed constant above, so
    // regenerating the results file cannot move the bar by itself.
    if parallel_stmts_per_s < MIN_STATEMENTS_PER_S_PARALLEL {
        println!(
            "FAIL: indexed+parallel throughput {parallel_stmts_per_s:.0} statements/s is below \
             the committed {MIN_STATEMENTS_PER_S_PARALLEL:.0} floor"
        );
        std::process::exit(1);
    }
}
