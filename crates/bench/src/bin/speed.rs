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
//!
//! A third measurement is a scaling series: `chacha20_block` with 2, 4, 8
//! and 16 double rounds (160 to 1,056 statements) compiled on one worker,
//! the sizes interleaved per repetition. It reports each size's median
//! compile time, IQR and median time per statement; §4.3's claim that
//! compile time is linear in program size reads as a per-statement
//! column that levels off instead of growing with the size.
//!
//! Writes `results/compiler_speed.json` (with the core count it ran on)
//! and exits nonzero if the `parallel` best-of throughput falls below the
//! committed absolute floor, or if the per-statement median time of the
//! largest series size exceeds the smallest's by more than the committed
//! ratio (the CI speed gates).
//!
//! Run with `cargo run --release -p rupicola-bench --bin speed`.
//! `SPEED_REPS` overrides the repetition count (default 30).

use rupicola_bench::json::{write_results, Json};
use rupicola_core::{EngineLimits, HintDbs};
use rupicola_ext::standard_dbs;
use rupicola_programs::parallel::{compile_entries, default_workers, on_deep_stack, SuiteResult};
use rupicola_programs::{chacha20_block, perf_suite, SuiteEntry};
use std::hint::black_box;
use std::time::Instant;

/// Absolute throughput floor for the `parallel` row, in statements per
/// second. The row measures ~17,000–28,000 statements/s (median to
/// best-of, moving with host load) on a 2-core host (see
/// `results/compiler_speed.json`, which records the core count); the
/// floor sits far enough below that for the gate to trip on real
/// regressions — an O(n²) goal-snapshot copy, a quadratic solver loop —
/// rather than on scheduler jitter or a slower CI host.
const MIN_STATEMENTS_PER_S_PARALLEL: f64 = 4_500.0;

/// Double-round counts of the scaling series, smallest first.
const SCALING_ROUNDS: [usize; 4] = [2, 4, 8, 16];

/// Ceiling on the scaling series' per-statement median compile time at
/// the largest size over the smallest. The engine measures 1.4–1.6 on a
/// 2-core host: per-statement time steps up once the compile's working
/// set outgrows the caches, then levels off (2,080 statements cost what
/// 1,056 do). An engine that rescans every hypothesis per statement
/// measured 3.0–3.2 with the same protocol, and grows without bound.
const MAX_PER_STATEMENT_RATIO: f64 = 2.0;

/// One full-suite run. On a deep-stack thread because one worker compiles
/// inline, and `chacha20_block`'s derivation overflows a default stack.
fn run(dbs: &HintDbs, entries: &[SuiteEntry], workers: usize) -> Vec<SuiteResult> {
    on_deep_stack(|| compile_entries(entries, dbs, &EngineLimits::default(), workers))
}

/// The scaling series: warm-up (which also counts each size's emitted
/// statements), then `reps` repetitions with the sizes interleaved, so
/// load spikes hit every size alike. All on one deep-stack thread (the
/// derivation recurses one frame per statement), spawned once so no
/// per-compile thread setup inflates the small sizes. Returns each size's
/// statement count and compile times in milliseconds.
fn scaling_series(dbs: &HintDbs, reps: u32) -> Vec<(usize, Vec<f64>)> {
    let spec = chacha20_block::spec();
    let limits = chacha20_block::limits(EngineLimits::default());
    let models: Vec<_> =
        SCALING_ROUNDS.iter().map(|&k| chacha20_block::model_with_rounds(k)).collect();
    let compile = |i: usize| {
        rupicola_core::compile_with_limits(&models[i], &spec, dbs, limits)
            .expect("chacha20_block compiles")
    };
    on_deep_stack(|| {
        let mut series: Vec<(usize, Vec<f64>)> = (0..models.len())
            .map(|i| (compile(i).function.statement_count(), Vec::new()))
            .collect();
        for _ in 0..reps {
            for (i, (_, samples)) in series.iter_mut().enumerate() {
                // An untimed compile of the same size first: the timed one
                // then starts from the allocator state its own size leaves
                // behind, not from the previous size's.
                black_box(compile(i));
                let t0 = Instant::now();
                black_box(compile(i));
                samples.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        series
    })
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

    let mut series = scaling_series(&dbs, reps);
    println!(
        "\n{:>13} {:>10} {:>12} {:>10} {:>16}",
        "double rounds", "statements", "median ms", "IQR ms", "median µs/stmt"
    );
    let mut scaling_rows = Vec::new();
    let mut us_per_stmt = Vec::new();
    for ((stmts, samples), &k) in series.iter_mut().zip(&SCALING_ROUNDS) {
        let stmts = *stmts;
        samples.sort_by(f64::total_cmp);
        let median = quantile(samples, 0.5);
        let iqr = quantile(samples, 0.75) - quantile(samples, 0.25);
        let per_stmt = median * 1e3 / stmts as f64;
        println!("{k:>13} {stmts:>10} {median:>12.3} {iqr:>10.3} {per_stmt:>16.2}");
        us_per_stmt.push(per_stmt);
        scaling_rows.push(Json::obj([
            ("double_rounds", Json::U64(k as u64)),
            ("statements", Json::U64(stmts as u64)),
            ("median_ms", Json::F64(median)),
            ("iqr_ms", Json::F64(iqr)),
            ("median_us_per_statement", Json::F64(per_stmt)),
        ]));
    }
    let ratio = us_per_stmt[us_per_stmt.len() - 1] / us_per_stmt[0];
    let (smallest, largest) = (series[0].0, series[series.len() - 1].0);
    println!(
        "per-statement ratio, {largest} over {smallest} statements: {ratio:.2} \
         (ceiling {MAX_PER_STATEMENT_RATIO})"
    );

    let summary = Json::obj([
        ("statements", Json::U64(total_statements as u64)),
        ("programs", Json::U64(entries.len() as u64)),
        ("cores", Json::U64(cores as u64)),
        ("repetitions", Json::U64(u64::from(reps))),
        ("modes", Json::Arr(json_rows)),
        ("min_statements_per_s_parallel", Json::F64(MIN_STATEMENTS_PER_S_PARALLEL)),
        ("scaling", Json::Arr(scaling_rows)),
        ("per_statement_ratio", Json::F64(ratio)),
        ("max_per_statement_ratio", Json::F64(MAX_PER_STATEMENT_RATIO)),
    ]);
    match write_results("compiler_speed.json", &summary) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => println!("failed to write results: {e}"),
    }

    // The CI speed gates: committed constants above, so regenerating the
    // results file cannot move either bar by itself.
    let mut failed = false;
    if parallel_stmts_per_s < MIN_STATEMENTS_PER_S_PARALLEL {
        println!(
            "FAIL: parallel throughput {parallel_stmts_per_s:.0} statements/s is below the \
             committed {MIN_STATEMENTS_PER_S_PARALLEL:.0} floor"
        );
        failed = true;
    }
    if ratio > MAX_PER_STATEMENT_RATIO {
        println!(
            "FAIL: per-statement compile time grows {ratio:.2}x from {smallest} to {largest} \
             statements, above the committed {MAX_PER_STATEMENT_RATIO} ceiling"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
