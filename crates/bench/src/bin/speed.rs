//! Compiler-throughput harness: statements/second of the proof-search
//! engine on the enlarged perf suite (`perf_suite`: the seven Table 2
//! programs plus the full ChaCha20 block, the poly1305-style accumulate,
//! and the hex codecs — 2x+ the Table 2 statement count), on one worker
//! and on all of them (§4.3 reports Coq-Rupicola at 2–15 statements/second;
//! the paper names compiler speed as the practical bottleneck):
//!
//! - `serial` — the suite compiled inline on one worker;
//! - `parallel` — the same engine on `available_parallelism`
//!   work-stealing workers.
//!
//! Both rows are timed in one process, interleaved per repetition, so the
//! comparison is not polluted by machine-load drift between runs. Each row
//! reports its best suite time and the median and interquartile range of
//! all repetitions, which is the noise band a comparison must clear.
//! Writes `results/compiler_speed.json` (with the core count it ran on)
//! and exits nonzero if the `parallel` best-of throughput falls below the
//! committed absolute floor (the CI speed gate).
//!
//! Run with `cargo run --release -p rupicola-bench --bin speed`.
//! `SPEED_REPS` overrides the repetition count (default 30).

use rupicola_bench::json::{write_results, Json};
use rupicola_core::{EngineLimits, HintDbs};
use rupicola_ext::standard_dbs;
use rupicola_programs::parallel::{compile_entries, default_workers, on_deep_stack, SuiteResult};
use rupicola_programs::{perf_suite, SuiteEntry};
use std::hint::black_box;
use std::time::Instant;

/// Absolute throughput floor for the `parallel` row, in statements per
/// second. The engine measures ~11,000–15,000 statements/s on a 2-core
/// host (see `results/compiler_speed.json`, which records the core
/// count); the floor is committed at roughly a third of that so the gate
/// trips on real regressions — an O(n²) goal-snapshot copy, a quadratic
/// solver loop — rather than on scheduler jitter or a slower CI host.
const MIN_STATEMENTS_PER_S_PARALLEL: f64 = 4_500.0;

/// One full-suite run. On a deep-stack thread because one worker compiles
/// inline, and `chacha20_block`'s derivation overflows a default stack.
fn run(dbs: &HintDbs, entries: &[SuiteEntry], workers: usize) -> Vec<SuiteResult> {
    on_deep_stack(|| compile_entries(entries, dbs, &EngineLimits::default(), workers))
}

/// The `q`-quantile of ascending `sorted`, interpolating linearly between
/// neighbouring samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn main() {
    // Strict: a set-but-unparseable SPEED_REPS (e.g. `3O`) aborts with an
    // explanation instead of silently running the 30-rep default.
    let reps: u32 = rupicola_service::env::parsed_or_exit("SPEED_REPS", 30);
    let reps = reps.max(1);

    let entries = perf_suite();
    let cores = default_workers();
    let dbs = standard_dbs();
    let rows = [("serial", 1), ("parallel", cores)];

    // The statement count is a property of the emitted code and identical
    // across worker counts (the determinism battery proves it); count it
    // once.
    let total_statements: usize = run(&dbs, &entries, 1)
        .iter()
        .map(|r| r.result.as_ref().expect("suite compiles").function.statement_count())
        .sum();

    // Warm-up, then interleave the rows per repetition, so load spikes hit
    // both alike.
    for &(_, workers) in &rows {
        black_box(run(&dbs, &entries, workers));
    }
    let mut times: [Vec<f64>; 2] = Default::default();
    for _ in 0..reps {
        for (i, &(_, workers)) in rows.iter().enumerate() {
            let t0 = Instant::now();
            black_box(run(&dbs, &entries, workers));
            times[i].push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }

    let throughput = |ms: f64| total_statements as f64 / (ms / 1e3);
    println!(
        "{:<10} {:>10} {:>14} {:>12} {:>10} {:>14}",
        "mode", "best ms", "statements/s", "median ms", "IQR ms", "median stmt/s"
    );
    let mut json_rows = Vec::new();
    for (&(name, _), samples) in rows.iter().zip(&mut times) {
        samples.sort_by(f64::total_cmp);
        let best = samples[0];
        let median = quantile(samples, 0.5);
        let iqr = quantile(samples, 0.75) - quantile(samples, 0.25);
        println!(
            "{name:<10} {best:>10.3} {:>14.0} {median:>12.3} {iqr:>10.3} {:>14.0}",
            throughput(best),
            throughput(median),
        );
        json_rows.push(Json::obj([
            ("mode", Json::str(name)),
            ("ms_per_suite", Json::F64(best)),
            ("statements_per_s", Json::F64(throughput(best))),
            ("median_ms_per_suite", Json::F64(median)),
            ("iqr_ms_per_suite", Json::F64(iqr)),
            ("median_statements_per_s", Json::F64(throughput(median))),
        ]));
    }
    let parallel_stmts_per_s = throughput(times[1][0]);
    println!(
        "\n{total_statements} statements, {} programs, {cores} core(s), {reps} repetitions",
        entries.len()
    );

    let summary = Json::obj([
        ("statements", Json::U64(total_statements as u64)),
        ("programs", Json::U64(entries.len() as u64)),
        ("cores", Json::U64(cores as u64)),
        ("repetitions", Json::U64(u64::from(reps))),
        ("modes", Json::Arr(json_rows)),
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
            "FAIL: parallel throughput {parallel_stmts_per_s:.0} statements/s is below the \
             committed {MIN_STATEMENTS_PER_S_PARALLEL:.0} floor"
        );
        std::process::exit(1);
    }
}
