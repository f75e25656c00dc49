//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints two JSON lines: the full record (metrics with units and sample
//! counts, and the layer table of a traced run), then the result line
//! `{"correct", "attempted", "failed", "metrics"}`. A human summary goes
//! to the error stream. Exit codes: 0 correct, 1 a wrong answer, 2 bad
//! arguments or a failed set-up (no result printed).

use std::process::ExitCode;
use std::time::Duration;

use rupicola_benchmark::{run, Config, Workload};

const USAGE: &str = "usage: benchmark --workload <cold-pipeline|warm-hits|mixed-batch|codegen> \
                     --seed <u64> --seconds <1..=3600> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("missing --workload")?,
        seed,
        run_for: Duration::from_secs(seconds),
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {}: set-up failed: {e}", config.workload.name());
            return ExitCode::from(2);
        }
    };
    eprint!("{}", report.summary());
    if let Some(problem) = &report.first_problem {
        eprintln!("benchmark: first problem: {problem}");
    }
    println!("{}", report.detail_line());
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
