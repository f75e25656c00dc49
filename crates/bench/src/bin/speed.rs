//! Compiler-throughput harness: statements/second of the proof-search
//! engine on the enlarged perf suite (`perf_suite`: the seven Table 2
//! programs plus the full ChaCha20 block, the poly1305-style accumulate,
//! and the hex codecs — 2x+ the Table 2 statement count), compiled inline
//! on one worker (§4.3 reports Coq-Rupicola at 2–15 statements/second;
//! the paper names compiler speed as the practical bottleneck). The row
//! reports the median suite time and its interquartile range, the noise
//! band a comparison must clear.
//!
//! A second measurement is a scaling series: `chacha20_block` with 2, 4,
//! 8 and 16 double rounds (160 to 1,056 statements) compiled on one
//! worker, the sizes interleaved per repetition. It reports each size's
//! median compile time, IQR and median time per statement; §4.3's claim
//! that compile time is linear in program size reads as a per-statement
//! column that levels off instead of growing with the size.
//!
//! A third measurement times each of the five optimizer passes on every
//! scaling-series size, each on the body it sees in the full pipeline
//! (`PipelineConfig::full()` order: a pass's input is the previous pass's
//! output), and reports each pass's median time per statement of the
//! certified body, the engine column's unit.
//!
//! A fourth times two validation layers on every scaling-series size, in
//! the same unit: one interpreter run of the certified body on its first
//! differential input (the interpreter resolved beforehand), and
//! `Certificate::check_body` of the certified body against a certificate
//! whose parts are already computed (one resolution and every vector's
//! runs).
//!
//! All four go through the one timing harness
//! ([`rupicola_bench::timing`]). Writes `results/compiler_speed.json`
//! (with the core count it ran on) and exits nonzero if the median
//! throughput falls below the committed absolute floor, if the
//! per-statement median time of the largest series size exceeds the
//! smallest's by more than the committed ratio, or if load-CSE's
//! per-statement median at the largest size exceeds const-fold's by more
//! than the committed ratio (the CI speed gates).
//!
//! Run with `cargo run --release -p rupicola-bench --bin speed`.
//! `SPEED_REPS` overrides the repetition count (default 30).

use rupicola_bedrock::interp::{ExecState, Interpreter, NoExternals};
use rupicola_bench::json::{write_results, Json};
use rupicola_bench::timing::{interleaved, Summary};
use rupicola_core::check::{Certificate, CheckConfig};
use rupicola_core::{EngineLimits, HintDbs};
use rupicola_ext::standard_dbs;
use rupicola_opt::{run_pass, PassId, PipelineConfig};
use rupicola_programs::parallel::{compile_entries, default_workers, on_deep_stack};
use rupicola_programs::{chacha20_block, perf_suite};

/// Absolute floor on the suite's median throughput, in statements per
/// second. The row measures ~18,000–34,000 statements/s median on a
/// 2-core host, moving with host load (see `results/compiler_speed.json`,
/// which records the core count); the
/// floor sits far enough below that for the gate to trip on real
/// regressions — an O(n²) goal-snapshot copy, a quadratic solver loop —
/// rather than on scheduler jitter or a slower CI host. It was 4,500 on
/// the best-of of an all-cores row that only added scheduling cost (its
/// median read 24,506 against this row's 27,374); moved here at the same
/// margin: 4,500 × 27,374 / 24,506 ≈ 5,030.
const MIN_STATEMENTS_PER_S: f64 = 5_030.0;

/// Double-round counts of the scaling series, smallest first.
const SCALING_ROUNDS: [usize; 4] = [2, 4, 8, 16];

/// Ceiling on the scaling series' per-statement median compile time at
/// the largest size over the smallest. The engine measures 1.4–1.6 on a
/// 2-core host: per-statement time steps up once the compile's working
/// set outgrows the caches, then levels off (2,080 statements cost what
/// 1,056 do). An engine that rescans every hypothesis per statement
/// measured 3.0–3.2 with the same protocol, and grows without bound.
const MAX_PER_STATEMENT_RATIO: f64 = 2.0;

/// Ceiling on load-CSE's per-statement median time over const-fold's, at
/// the largest scaling size. Load-CSE summarizes each statement once and
/// rewrites only the statements that hold the repeated expression; it
/// measures 0.54–0.60× const-fold at 1,056 statements (1.1–1.2× at the
/// smaller sizes) on a 2-core host. A search that rebuilds every
/// candidate's facts and every window statement measured 4.8–4.9× with
/// this protocol (17 against 3.5 µs per statement).
const MAX_LOADCSE_OVER_CONSTFOLD: f64 = 3.0;

/// The suite row: one warm-up, then `reps` suite compiles on one worker,
/// each on a deep-stack thread (one worker compiles inline, and
/// `chacha20_block`'s derivation overflows a default stack). Each compile
/// is dropped inside its timed call, so no sample runs beside the
/// previous ones' results. Returns the suite's statement count and its
/// times in milliseconds.
fn suite_row(dbs: &HintDbs, reps: usize) -> (usize, Summary) {
    let entries = perf_suite();
    let row = interleaved(1, 1, reps, |_, clock| {
        clock.time(|| {
            on_deep_stack(|| compile_entries(&entries, dbs, &EngineLimits::default(), 1))
                .iter()
                .map(|r| r.result.as_ref().expect("suite compiles").function.statement_count())
                .sum::<usize>()
        })
    });
    (row[0][0].out, Summary::of(row[0].iter().map(|t| t.ms)))
}

/// The scaling series: one warm-up, then `reps` rounds with the sizes
/// interleaved, so load spikes hit every size alike, each timed compile
/// primed by an untimed one of the same size. All on one deep-stack
/// thread (the derivation recurses one frame per statement), spawned once
/// so no per-compile thread setup inflates the small sizes. Returns each
/// size's statement count and its compile times in milliseconds.
fn scaling_series(dbs: &HintDbs, reps: usize) -> Vec<(usize, Summary)> {
    let spec = chacha20_block::spec();
    let limits = chacha20_block::limits(EngineLimits::default());
    let models: Vec<_> =
        SCALING_ROUNDS.iter().map(|&k| chacha20_block::model_with_rounds(k)).collect();
    on_deep_stack(|| {
        interleaved(models.len(), 1, reps, |i, clock| {
            clock.primed(|| {
                rupicola_core::compile_with_limits(&models[i], &spec, dbs, limits)
                    .expect("chacha20_block compiles")
                    .function
                    .statement_count()
            })
        })
        .into_iter()
        .map(|size| (size[0].out, Summary::of(size.iter().map(|t| t.ms))))
        .collect()
    })
}

/// The per-pass rows: one warm-up, then `reps` rounds in which every pass
/// runs once on every scaling size, each timed run primed by an untimed
/// one of the same pass and size. A pass's input is the full pipeline's
/// body at its position (the previous pass's output, from the certified
/// body on). Returns, per size, each pass's times in milliseconds in
/// pipeline order.
fn pass_series(dbs: &HintDbs, reps: usize) -> Vec<Vec<Summary>> {
    let spec = chacha20_block::spec();
    let limits = chacha20_block::limits(EngineLimits::default());
    let passes = PipelineConfig::full().passes;
    on_deep_stack(|| {
        let inputs: Vec<Vec<_>> = SCALING_ROUNDS
            .iter()
            .map(|&k| {
                let model = chacha20_block::model_with_rounds(k);
                let mut body = rupicola_core::compile_with_limits(&model, &spec, dbs, limits)
                    .expect("chacha20_block compiles")
                    .function;
                passes
                    .iter()
                    .map(|&pass| {
                        let next = run_pass(pass, &body).function;
                        std::mem::replace(&mut body, next)
                    })
                    .collect()
            })
            .collect();
        let timed = interleaved(inputs.len() * passes.len(), 1, reps, |arm, clock| {
            let (size, pass) = (arm / passes.len(), arm % passes.len());
            clock.primed(|| run_pass(passes[pass], &inputs[size][pass]).sites_rewritten)
        });
        timed
            .chunks(passes.len())
            .map(|size| size.iter().map(|pass| Summary::of(pass.iter().map(|t| t.ms))).collect())
            .collect()
    })
}

/// The validation layers the layer rows time, in row order.
const LAYERS: [&str; 2] = ["interp_run", "check_body"];

/// The layer rows: one warm-up, then `reps` rounds in which each of
/// [`LAYERS`] runs once on every scaling size's certified body, each timed
/// run primed by an untimed one of the same layer and size. Returns, per
/// size, each layer's times in milliseconds.
fn layer_series(dbs: &HintDbs, reps: usize) -> Vec<Vec<Summary>> {
    let spec = chacha20_block::spec();
    let limits = chacha20_block::limits(EngineLimits::default());
    let config = CheckConfig::default();
    on_deep_stack(|| {
        let compiled: Vec<_> = SCALING_ROUNDS
            .iter()
            .map(|&k| {
                let model = chacha20_block::model_with_rounds(k);
                rupicola_core::compile_with_limits(&model, &spec, dbs, limits)
                    .expect("chacha20_block compiles")
            })
            .collect();
        let certs: Vec<_> = compiled.iter().map(|cf| Certificate::new(cf, dbs, &config)).collect();
        let interps: Vec<_> = compiled
            .iter()
            .map(|cf| Interpreter::of(std::iter::once(&cf.function).chain(&cf.linked)))
            .collect();
        let timed = interleaved(certs.len() * LAYERS.len(), 1, reps, |arm, clock| {
            let (size, layer) = (arm / LAYERS.len(), arm % LAYERS.len());
            let cert = &certs[size];
            let f = &cert.compiled().function;
            if layer == 0 {
                let input = &cert.reference_runs()[0].input;
                clock.primed(|| {
                    let mut state = ExecState::new(input.mem.clone());
                    let rets = interps[size].call(
                        &f.name,
                        &input.args,
                        &mut state,
                        &mut NoExternals,
                        config.max_fuel,
                    );
                    rets.expect("the certified body runs").len()
                })
            } else {
                clock.primed(|| cert.check_body(f).expect("the certified body checks").vectors_run)
            }
        });
        timed
            .chunks(LAYERS.len())
            .map(|size| size.iter().map(|layer| Summary::of(layer.iter().map(|t| t.ms))).collect())
            .collect()
    })
}

fn main() {
    // Strict: a set-but-unparseable SPEED_REPS (e.g. `3O`) aborts with an
    // explanation instead of silently running the 30-rep default.
    let reps: usize = rupicola_service::env::parsed_or_exit("SPEED_REPS", 30);
    let reps = reps.max(1);
    let cores = default_workers();
    let dbs = standard_dbs();

    let (total_statements, suite) = suite_row(&dbs, reps);
    let stmts_per_s = total_statements as f64 / (suite.median / 1e3);
    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>14}",
        "mode", "median ms", "q1 ms", "q3 ms", "median stmt/s"
    );
    println!(
        "{:<10} {:>12.3} {:>10.3} {:>10.3} {stmts_per_s:>14.0}",
        "serial", suite.median, suite.q1, suite.q3
    );
    println!(
        "\n{total_statements} statements, {} programs, {cores} core(s), {reps} repetitions",
        perf_suite().len()
    );

    let series = scaling_series(&dbs, reps);
    let passes = PipelineConfig::full().passes;
    let pass_times = pass_series(&dbs, reps);
    let layer_times = layer_series(&dbs, reps);
    println!(
        "\n{:>13} {:>10} {:>12} {:>10} {:>16}",
        "double rounds", "statements", "median ms", "IQR ms", "median µs/stmt"
    );
    let mut us_per_stmt = Vec::new();
    let mut pass_us = Vec::new();
    let mut layer_us = Vec::new();
    let medians_per_stmt = |times: &[Summary], stmts: usize| {
        times.iter().map(|ms| ms.median * 1e3 / stmts as f64).collect::<Vec<_>>()
    };
    for ((&(stmts, ms), passes), layers) in series.iter().zip(&pass_times).zip(&layer_times) {
        us_per_stmt.push(ms.median * 1e3 / stmts as f64);
        pass_us.push(medians_per_stmt(passes, stmts));
        layer_us.push(medians_per_stmt(layers, stmts));
    }
    let mut scaling_rows = Vec::new();
    for (i, (&(stmts, ms), &k)) in series.iter().zip(&SCALING_ROUNDS).enumerate() {
        let per_stmt = us_per_stmt[i];
        println!("{k:>13} {stmts:>10} {:>12.3} {:>10.3} {per_stmt:>16.2}", ms.median, ms.q3 - ms.q1);
        let pass_cells = passes.iter().zip(&pass_times[i]).zip(&pass_us[i]).map(|((pass, ms), &us)| {
            Json::obj([
                ("pass", Json::str(pass.name())),
                ("ms", ms.to_json()),
                ("median_us_per_statement", Json::F64(us)),
            ])
        });
        let layer_cells = LAYERS.iter().zip(&layer_times[i]).zip(&layer_us[i]).map(|((layer, ms), &us)| {
            Json::obj([
                ("layer", Json::str(*layer)),
                ("ms", ms.to_json()),
                ("median_us_per_statement", Json::F64(us)),
            ])
        });
        scaling_rows.push(Json::obj([
            ("double_rounds", Json::U64(k as u64)),
            ("statements", Json::U64(stmts as u64)),
            ("ms", ms.to_json()),
            ("median_us_per_statement", Json::F64(per_stmt)),
            ("passes", Json::Arr(pass_cells.collect())),
            ("layers", Json::Arr(layer_cells.collect())),
        ]));
    }
    let ratio = us_per_stmt[us_per_stmt.len() - 1] / us_per_stmt[0];
    let (smallest, largest) = (series[0].0, series[series.len() - 1].0);
    println!(
        "per-statement ratio, {largest} over {smallest} statements: {ratio:.2} \
         (ceiling {MAX_PER_STATEMENT_RATIO})"
    );

    print!("\n{:>10}", "statements");
    for pass in &passes {
        print!(" {:>16}", pass.name());
    }
    println!("   (median µs/stmt)");
    for (&(stmts, _), row) in series.iter().zip(&pass_us) {
        print!("{stmts:>10}");
        for us in row {
            print!(" {us:>16.2}");
        }
        println!();
    }

    print!("\n{:>10}", "statements");
    for layer in LAYERS {
        print!(" {layer:>16}");
    }
    println!("   (median µs/stmt)");
    for (&(stmts, _), row) in series.iter().zip(&layer_us) {
        print!("{stmts:>10}");
        for us in row {
            print!(" {us:>16.2}");
        }
        println!();
    }
    let at_largest = &pass_us[pass_us.len() - 1];
    let us_of = |id| at_largest[passes.iter().position(|&p| p == id).expect("full() runs every pass")];
    let cse_ratio = us_of(PassId::LoadCse) / us_of(PassId::ConstFold);
    println!(
        "load-cse over const-fold per statement, {largest} statements: {cse_ratio:.2} \
         (ceiling {MAX_LOADCSE_OVER_CONSTFOLD})"
    );

    let summary = Json::obj([
        ("statements", Json::U64(total_statements as u64)),
        ("programs", Json::U64(perf_suite().len() as u64)),
        ("cores", Json::U64(cores as u64)),
        ("repetitions", Json::U64(reps as u64)),
        ("ms_per_suite", suite.to_json()),
        ("median_statements_per_s", Json::F64(stmts_per_s)),
        ("min_statements_per_s", Json::F64(MIN_STATEMENTS_PER_S)),
        ("scaling", Json::Arr(scaling_rows)),
        ("per_statement_ratio", Json::F64(ratio)),
        ("max_per_statement_ratio", Json::F64(MAX_PER_STATEMENT_RATIO)),
        ("loadcse_over_constfold", Json::F64(cse_ratio)),
        ("max_loadcse_over_constfold", Json::F64(MAX_LOADCSE_OVER_CONSTFOLD)),
    ]);
    match write_results("compiler_speed.json", &summary) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => println!("failed to write results: {e}"),
    }

    // The CI speed gates: committed constants above, so regenerating the
    // results file cannot move any bar by itself.
    let mut failed = false;
    if stmts_per_s < MIN_STATEMENTS_PER_S {
        println!(
            "FAIL: median throughput {stmts_per_s:.0} statements/s is below the committed \
             {MIN_STATEMENTS_PER_S:.0} floor"
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
    if cse_ratio > MAX_LOADCSE_OVER_CONSTFOLD {
        println!(
            "FAIL: load-cse costs {cse_ratio:.2}x const-fold per statement at {largest} \
             statements, above the committed {MAX_LOADCSE_OVER_CONSTFOLD} ceiling"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
