//! Prints the Figure 2 table: ns/byte (and estimated cycles/byte) for the
//! generated, optimized, handwritten and extraction series of every suite
//! program.
//!
//! Each program's four series go through the one timing harness
//! ([`rupicola_bench::timing`]): one untimed warm-up call each, then
//! rounds that call every series once, in an order that alternates
//! between rounds, so load drift hits every series alike. A sample is
//! the ns/byte of `CALLS` consecutive rounds. The table and
//! `results/fig2_opt.json` report medians; the JSON adds each series'
//! quartiles. Exits nonzero if the optimized route computes anything but
//! what the certified route computes, if its median is more than 5%
//! slower, or if its median is more than 1.10× the handwritten median
//! (the paper's "as fast as handwritten" claim, §4.2). The RISC-V routes
//! are gated by `rvbench`.
//!
//! Run with `cargo run -p rupicola-bench --bin fig2 --release`.

use rupicola_bench::json::{write_results, Json};
use rupicola_bench::timing::{interleaved, time, Summary};
use rupicola_bench::{fig2_rows, make_input, make_text_input};
use rupicola_programs::parallel::default_workers;
use std::hint::black_box;

const MAIN_LEN: usize = 1 << 20; // 1 MiB
const EXTRACTION_LEN: usize = 1 << 16; // 64 KiB
/// Samples per series.
const SAMPLES: usize = 61;
/// Driver calls per sample, each on a freshly reset buffer.
const CALLS: usize = 4;
/// The largest optimized-route median allowed, as a multiple of the
/// handwritten median.
const MAX_OPT_OVER_HAND: f64 = 1.10;

/// Estimates the CPU frequency (GHz) with a dependent-add spin loop
/// (~1 add/cycle on any recent core), to convert ns/byte to cycles/byte.
fn estimate_ghz() -> f64 {
    let iters = 400_000_000u64;
    let (acc, ms) = time(|| {
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_add(i ^ acc);
        }
        acc
    });
    black_box(acc);
    iters as f64 / (ms * 1e6)
}

fn main() {
    let ghz = estimate_ghz();
    println!("# Figure 2 — cycles per byte (1 MiB input; extraction series on 64 KiB)");
    println!("# CPU frequency estimate: {ghz:.2} GHz (dependent-add calibration)");
    println!("# medians of {SAMPLES} samples of {CALLS} interleaved calls");
    println!();
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>9} {:>9} {:>12} {:>12}",
        "program", "gen ns/B", "opt ns/B", "hand ns/B", "extr ns/B", "gen/hand", "opt/hand", "opt cyc/B", "hand cyc/B"
    );
    let mut opt_rows: Vec<Json> = Vec::new();
    let mut improved = 0usize;
    let mut divergences = 0usize;
    let mut regressions: Vec<String> = Vec::new();
    let mut slower_than_hand: Vec<String> = Vec::new();
    for row in fig2_rows() {
        let make = if row.text_input { make_text_input } else { make_input };
        let input = make(0xF162, MAIN_LEN);
        let small = make(0xF162, EXTRACTION_LEN);
        // Observable-behavior gate before timing anything: the optimized
        // route must compute exactly what the certified route computes,
        // checksum and final buffer alike.
        let mut bg = input.clone();
        let mut bo = input.clone();
        let cg = (row.generated)(&mut bg);
        let co = (row.optimized)(&mut bo);
        if cg != co || bg != bo {
            println!("{:<8} OPTIMIZED OUTPUT DIVERGES", row.name);
            divergences += 1;
            continue;
        }
        let series = [
            (row.generated, &input),
            (row.optimized, &input),
            (row.handwritten, &input),
            (row.extraction, &small),
        ];
        // One buffer per input size, shared by the series that read it,
        // so no series gets a luckier address.
        let (mut main_buf, mut small_buf) = (input.clone(), small.clone());
        let timed = interleaved(series.len(), 1, SAMPLES * CALLS, |i, clock| {
            let (driver, input) = series[i];
            let buf = if input.len() == MAIN_LEN { &mut main_buf } else { &mut small_buf };
            buf.copy_from_slice(input);
            clock.time(|| black_box(driver(black_box(buf))));
        });
        // A sample is CALLS consecutive rounds, so every series' sample
        // spans the same stretch of wall time.
        let [g, o, h, n]: [Summary; 4] = std::array::from_fn(|i| {
            let bytes = (CALLS * series[i].1.len()) as f64;
            Summary::of(
                timed[i].chunks(CALLS).map(|c| c.iter().map(|t| t.ms).sum::<f64>() * 1e6 / bytes),
            )
        });
        // Improved only outside the noise band: the optimized route's q3
        // under the unoptimized route's q1.
        let faster = o.q3 < g.q1;
        improved += usize::from(faster);
        if o.median > g.median * 1.05 {
            regressions.push(format!(
                "{}: {:.3} ns/B vs {:.3} unoptimized",
                row.name, o.median, g.median
            ));
        }
        let opt_over_hand = o.median / h.median;
        if opt_over_hand > MAX_OPT_OVER_HAND {
            slower_than_hand.push(format!(
                "{}: {:.3} ns/B vs {:.3} handwritten ({opt_over_hand:.2}×)",
                row.name, o.median, h.median
            ));
        }
        println!(
            "{:<8} {:>12.3} {:>12.3} {:>12.3} {:>12.1} {:>9.2} {:>9.2} {:>12.2} {:>12.2}",
            row.name,
            g.median,
            o.median,
            h.median,
            n.median,
            g.median / h.median,
            opt_over_hand,
            o.median * ghz,
            h.median * ghz,
        );
        opt_rows.push(Json::obj([
            ("program", Json::str(row.name)),
            ("unopt_ns_per_byte", g.to_json()),
            ("opt_ns_per_byte", o.to_json()),
            ("hand_ns_per_byte", h.to_json()),
            ("extraction_ns_per_byte", n.to_json()),
            ("unopt_cycles_per_byte", Json::F64(g.median * ghz)),
            ("opt_cycles_per_byte", Json::F64(o.median * ghz)),
            ("improved", Json::Bool(faster)),
            ("speedup", Json::F64(g.median / o.median)),
            ("opt_over_hand", Json::F64(opt_over_hand)),
        ]));
    }

    let summary = Json::obj([
        ("cores", Json::U64(default_workers() as u64)),
        ("samples", Json::U64(SAMPLES as u64)),
        ("calls_per_sample", Json::U64(CALLS as u64)),
        ("ghz_estimate", Json::F64(ghz)),
        ("programs", Json::Arr(opt_rows)),
        ("improved", Json::U64(improved as u64)),
        ("divergences", Json::U64(divergences as u64)),
    ]);
    match write_results("fig2_opt.json", &summary) {
        Ok(path) => println!("\n# wrote {}", path.display()),
        Err(e) => println!("\n# failed to write fig2_opt.json: {e}"),
    }
    println!("# optimized route: {improved}/7 programs improved");
    if divergences > 0 {
        println!("# FATAL: {divergences} program(s) with diverging optimized output");
        std::process::exit(1);
    }
    if !regressions.is_empty() {
        println!("# FATAL: optimized route >5% slower on:");
        for r in &regressions {
            println!("#   {r}");
        }
    }
    if !slower_than_hand.is_empty() {
        println!("# FATAL: optimized route >{MAX_OPT_OVER_HAND:.2}× handwritten on:");
        for r in &slower_than_hand {
            println!("#   {r}");
        }
    }
    if !regressions.is_empty() || !slower_than_hand.is_empty() {
        std::process::exit(1);
    }
    println!();
    println!("# Shape check (paper §4.2): generated ≈ handwritten (ratio ≈ 1,");
    println!("# within compiler fluctuation), both orders of magnitude faster");
    println!("# than the extraction baseline. Compiler throughput (§4.3) is");
    println!("# `--bin speed`; the RISC-V routes are `--bin rvbench`.");
}
