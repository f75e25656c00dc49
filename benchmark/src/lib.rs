//! The repository benchmark.
//!
//! Four seeded workloads, each a single client in a closed loop driving
//! the system through its public functions only:
//!
//! - `cold-pipeline` — the whole compile route (engine, checker,
//!   translation-validated optimizer, RISC-V backend) on the perf suite,
//!   with no store;
//! - `warm-hits` — single-job server calls that are all verified cache
//!   hits (the store's verify ladder);
//! - `mixed-batch` — 8-job multi-tenant batches, one cold job per batch
//!   (store misses and writes beside verified reads);
//! - `codegen` — the generated code itself: the Figure 2 native drivers
//!   against their handwritten baselines, and the RISC-V artifacts in the
//!   simulator.
//!
//! A plain run reports the end-to-end metrics; a traced run replays the
//! same seeded sequence with a span around every layer call and reports
//! the per-layer metrics. See `README.md` beside this crate.

pub mod plan;
pub mod stats;

mod codegen;
mod cold;
mod host;
mod report;
mod service;
mod spans;
mod sys;

use std::time::Duration;

use host::HostClock;
pub use report::Report;
use rupicola_core::CompiledFunction;
use spans::Spans;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Compile → check → optimize → lower, perf suite, no store.
    ColdPipeline,
    /// Single-job verified hits through the server.
    WarmHits,
    /// Multi-tenant batches with one cold job each.
    MixedBatch,
    /// Generated-code speed and RISC-V instruction counts.
    Codegen,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdPipeline,
        Workload::WarmHits,
        Workload::MixedBatch,
        Workload::Codegen,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPipeline => "cold-pipeline",
            Workload::WarmHits => "warm-hits",
            Workload::MixedBatch => "mixed-batch",
            Workload::Codegen => "codegen",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input and request sequence.
    pub seed: u64,
    /// Length of the measured window.
    pub run_for: Duration,
    /// Traced run (per-layer metrics) instead of plain (end-to-end).
    pub trace: bool,
}

/// Set-ups per plain run: enough for a median that ignores the slow
/// first-touch set-up and the set-ups a neighbour on the host interrupts.
const SETUPS: usize = 11;

/// Runs one workload.
///
/// # Errors
///
/// When the benchmark cannot set up (a reference compile fails, the
/// scratch store cannot be created): no result is printed then. Wrong
/// answers are not errors; they make the report incorrect.
pub fn run(config: &Config) -> Result<Report, String> {
    let mut report = Report::new(config.workload, config.seed, config.trace);
    // chacha20_block's derivation recurses one frame per statement: every
    // workload runs on the scheduler's deep stack.
    rupicola_programs::parallel::on_deep_stack(|| match config.workload {
        Workload::ColdPipeline => cold::run(config, &mut report),
        Workload::WarmHits | Workload::MixedBatch => service::run(config, &mut report),
        Workload::Codegen => codegen::run(config, &mut report),
    })?;
    Ok(report)
}

/// Times [`SETUPS`] set-ups, keeping the last, and records `setup_s` as
/// their median at the reference host speed (a traced run sets up once
/// and records nothing).
fn repeated_setup<T>(
    config: &Config,
    report: &mut Report,
    clock: &mut HostClock,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<T, String> {
    let runs = if config.trace { 1 } else { SETUPS };
    let mut timed = Vec::with_capacity(runs);
    let mut kept = None;
    clock.sample();
    for i in 0..runs {
        let start = std::time::Instant::now();
        let fixture = setup(i)?;
        let took = start.elapsed();
        clock.sample();
        timed.push((start + took / 2, took.as_secs_f64()));
        kept = Some(fixture);
    }
    if !config.trace {
        let raw: Vec<f64> = timed.iter().map(|&(_, s)| s).collect();
        let scaled: Vec<f64> = timed.iter().map(|&(at, s)| s * clock.factor(at)).collect();
        report.set_scaled(
            "setup_s",
            stats::median(&scaled),
            stats::median(&raw),
            runs as u64,
        );
    }
    kept.ok_or_else(|| "no set-up ran".to_string())
}

/// Request-level numbers of a traced run, shared by every workload.
struct TraceTotals<'a> {
    /// Latencies (ms) of the untraced client calls interleaved with the
    /// traced ones.
    plain_ms: &'a [f64],
    /// Latencies (ms) of the traced client calls.
    traced_ms: &'a [f64],
    /// Layers whose summed time counts as attributed.
    attributed: &'a [&'static str],
}

/// Records the traced run's request-level metrics, one layer row per
/// `(layer, parent)`, and every span counter as a mean per traced call.
fn emit_trace(
    report: &mut Report,
    spans: &Spans,
    totals: &TraceTotals<'_>,
    rows: &[(&'static str, Option<&'static str>)],
    counters: &[&'static str],
) {
    let n = totals.traced_ms.len().max(1) as f64;
    let traced_total: f64 = totals.traced_ms.iter().sum();
    let request_ms = traced_total / n;
    report.set(
        "trace.request_ms",
        request_ms,
        totals.traced_ms.len() as u64,
    );
    report.set("trace.requests", totals.traced_ms.len() as f64, 1);
    let attributed: f64 = totals.attributed.iter().map(|l| spans.ms(l)).sum();
    if traced_total > 0.0 {
        report.set(
            "trace.attributed_share",
            attributed / traced_total,
            totals.traced_ms.len() as u64,
        );
    }
    if !totals.plain_ms.is_empty() && traced_total > 0.0 {
        let plain_mean = totals.plain_ms.iter().sum::<f64>() / totals.plain_ms.len() as f64;
        report.set(
            "trace.overhead",
            1.0 - plain_mean / request_ms,
            totals.plain_ms.len() as u64,
        );
    }
    for &(layer, parent) in rows {
        report.layer(
            layer,
            parent,
            spans.ms(layer) / n,
            request_ms,
            spans.calls(layer),
        );
    }
    for &c in counters {
        report.set(c, spans.counter(c) / n, totals.traced_ms.len() as u64);
    }
}

/// The engine counters [`count_compile`] adds, reported as means per call.
const COMPILE_COUNTERS: [&str; 3] = [
    "core.lemma_applications",
    "core.side_conditions",
    "core.solver_confirm_compares",
];

/// Adds one compile's engine counters to a traced run.
fn count_compile(spans: &mut Spans, cf: &CompiledFunction) {
    let s = cf.stats;
    spans.count("core.lemma_applications", s.lemma_applications as f64);
    spans.count("core.side_conditions", s.side_conditions as f64);
    spans.count(
        "core.solver_confirm_compares",
        s.solver_confirm_compares as f64,
    );
    spans.count("cache.hits", s.solver_cache_hits as f64);
    spans.count(
        "cache.lookups",
        (s.solver_cache_hits + s.solver_cache_misses) as f64,
    );
    spans.count("core.statements", cf.function.statement_count() as f64);
}

/// Records the solver cache's hit rate and the statements emitted per
/// second of `core.compile_ms` over a traced run's compiles.
fn emit_compile_rates(report: &mut Report, spans: &Spans, samples: u64) {
    let lookups = spans.counter("cache.lookups");
    if lookups > 0.0 {
        report.set(
            "core.solver_cache_hit_rate",
            spans.counter("cache.hits") / lookups,
            samples,
        );
    }
    let compile_s = spans.ms("core.compile_ms") / 1e3;
    if compile_s > 0.0 {
        report.set(
            "core.stmts_per_s",
            spans.counter("core.statements") / compile_s,
            samples,
        );
    }
}

/// Whether client call `i` of a traced run is traced: calls alternate in
/// blocks of `block`, so the untraced blocks measure the same sequence
/// without spans and give the trace overhead.
fn traced_block(trace: bool, i: u64, block: u64) -> bool {
    trace && (i / block) % 2 == 1
}
