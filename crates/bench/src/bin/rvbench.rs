//! The RISC-V backend battery: every suite and CT-suite program lowered
//! through the naive, allocated, and fully-optimized routes, with the
//! differential validator live at every stage, plus the lowering-mutant
//! kill matrix.
//!
//! Three gates, any failure exits non-zero:
//!
//! 1. **Battery** — all ten programs must validate on both end routes,
//!    with zero rolled-back stages (a rollback on the pristine suite is a
//!    pass bug, exactly as in `golden_rs`).
//! 2. **Allocator** — register allocation must *strictly* shrink at least
//!    5 of the 7 benchmark programs. This keeps the spill-all baseline
//!    honest: an allocator that only ties is not an improvement.
//! 3. **Mutants** — every fired lowering mutant must be killed by
//!    differential re-validation (100%; one survivor is a hole in the
//!    trusted base).
//!
//! Writes `results/rv.json`. Run with
//! `cargo run --release -p rupicola-bench --bin rvbench`.

use rupicola_bench::json::{write_results, Json};
use rupicola_bench::rvsupport::{rv_mutant_matrix, rv_route_stats};
use rupicola_core::check::CheckConfig;
use rupicola_programs::{ct_suite, suite};

fn main() {
    // Fewer vectors than a certification run: every program is validated
    // on every route at every stage, so the battery multiplies runs.
    let config = CheckConfig { vectors: 8, ..CheckConfig::default() };

    let mut compiled: Vec<(&'static str, rupicola_core::CompiledFunction)> = Vec::new();
    for e in suite() {
        match (e.compiled)() {
            Ok(cf) => compiled.push((e.info.name, cf)),
            Err(err) => {
                println!("{}: COMPILATION FAILED: {err}", e.info.name);
                std::process::exit(1);
            }
        }
    }
    let suite_len = compiled.len();
    for e in ct_suite() {
        match (e.entry.compiled)() {
            Ok(cf) => compiled.push((e.entry.info.name, cf)),
            Err(err) => {
                println!("{}: COMPILATION FAILED: {err}", e.entry.info.name);
                std::process::exit(1);
            }
        }
    }

    println!("# RISC-V backend battery (naive | alloc | full routes, validated per stage)");
    println!(
        "{:<10} {:>7} {:>7} {:>7} {:>8} {:>10} {:>10} {:>8}",
        "program", "naive", "alloc", "full", "static%", "naive-dyn", "full-dyn", "dyn%"
    );
    let mut rows: Vec<Json> = Vec::new();
    let mut battery_failures = 0usize;
    let mut alloc_wins = 0usize;
    for (i, (name, cf)) in compiled.iter().enumerate() {
        let stats = match rv_route_stats(name, cf, &config) {
            Ok(s) => s,
            Err(e) => {
                println!("{name:<10} BATTERY FAILED: {e}");
                battery_failures += 1;
                continue;
            }
        };
        if stats.rolled_back > 0 {
            println!("{name:<10} BATTERY FAILED: {} stage(s) rolled back", stats.rolled_back);
            battery_failures += 1;
            continue;
        }
        let in_suite = i < suite_len;
        if in_suite && stats.alloc_strictly_smaller() {
            alloc_wins += 1;
        }
        let pct = |before: usize, after: usize| {
            if before == 0 {
                0.0
            } else {
                100.0 * (before as f64 - after as f64) / before as f64
            }
        };
        let dyn_pct = if stats.naive_executed == 0 {
            0.0
        } else {
            100.0 * (stats.naive_executed as f64 - stats.full_executed as f64)
                / stats.naive_executed as f64
        };
        println!(
            "{:<10} {:>7} {:>7} {:>7} {:>7.1}% {:>10} {:>10} {:>7.1}%",
            name,
            stats.naive_instrs,
            stats.alloc_instrs,
            stats.full_instrs,
            pct(stats.naive_instrs, stats.full_instrs),
            stats.naive_executed,
            stats.full_executed,
            dyn_pct,
        );
        rows.push(Json::obj([
            ("program", Json::str(*name)),
            ("in_suite", Json::Bool(in_suite)),
            ("naive_instrs", Json::U64(stats.naive_instrs as u64)),
            ("alloc_instrs", Json::U64(stats.alloc_instrs as u64)),
            ("full_instrs", Json::U64(stats.full_instrs as u64)),
            ("naive_executed", Json::U64(stats.naive_executed)),
            ("full_executed", Json::U64(stats.full_executed)),
            ("alloc_strictly_smaller", Json::Bool(stats.alloc_strictly_smaller())),
        ]));
    }

    println!("\n# lowering-mutant matrix (differential validation as the defense):");
    let matrix = match rv_mutant_matrix(&compiled, &config) {
        Ok(m) => m,
        Err(e) => {
            println!("mutant matrix failed: {e}");
            std::process::exit(1);
        }
    };
    let mutant_rows = matrix.report();

    let summary = Json::obj([
        ("programs", Json::Arr(rows)),
        ("battery_failures", Json::U64(battery_failures as u64)),
        ("alloc_strictly_smaller", Json::U64(alloc_wins as u64)),
        ("suite_programs", Json::U64(suite_len as u64)),
        ("rv_mutants", Json::Arr(mutant_rows)),
        ("rv_mutant_applicable", Json::U64(matrix.applicable() as u64)),
        ("rv_mutant_killed", Json::U64(matrix.killed() as u64)),
    ]);
    match write_results("rv.json", &summary) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => println!("\nfailed to write results: {e}"),
    }

    let mut failed = false;
    if battery_failures > 0 {
        println!("\nFATAL: {battery_failures} program(s) failed the differential battery");
        failed = true;
    }
    if alloc_wins < 5 {
        println!(
            "\nFATAL: allocator strictly shrank only {alloc_wins}/{suite_len} suite programs \
             (≥5 required)"
        );
        failed = true;
    }
    if !matrix.survivors.is_empty() {
        println!("\nFATAL: surviving lowering mutants — differential-validation hole:");
        for s in &matrix.survivors {
            println!("  {s}");
        }
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "\nbattery: {} programs validated on all routes ✓",
        compiled.len()
    );
    println!("allocator gate: {alloc_wins}/{suite_len} suite programs strictly smaller (≥5) ✓");
    println!(
        "mutant kill rate: {}/{} (100% required) ✓",
        matrix.killed(),
        matrix.applicable()
    );
}
