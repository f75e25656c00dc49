//! `cold-pipeline`: every perf-suite program through compile → check →
//! optimize → lower, in seeded shuffled rounds, with no store.

use std::time::{Duration, Instant};

use rupicola_analysis::analyze_with_dbs;
use rupicola_bedrock::rv_compile::RvArtifact;
use rupicola_bedrock::BFunction;
use rupicola_core::check::{check_with, CheckConfig};
use rupicola_core::derive::Derivation;
use rupicola_core::fnspec::FnSpec;
use rupicola_core::{catch_quiet, compile_with_limits, CompiledFunction, EngineLimits, HintDbs};
use rupicola_lang::Model;
use rupicola_opt::{optimize_compiled, run_pass, validate_candidate_with_policy, PipelineConfig};
use rupicola_rv::{instr_count, lower_validated, RvPipelineConfig};

use crate::codegen;
use crate::host::HostClock;
use crate::spans::Spans;
use crate::sys;
use crate::{
    count_compile, emit_compile_rates, emit_trace, plan, repeated_setup, traced_block, Config,
    Report, TraceTotals, COMPILE_COUNTERS,
};

/// One request's input.
struct Program {
    name: &'static str,
    model: Model,
    spec: FnSpec,
    limits: EngineLimits,
}

/// One request's answer.
struct Answer {
    cf: CompiledFunction,
    artifact: RvArtifact,
}

/// What the fault-free pipeline answers for one program.
struct Reference {
    function: BFunction,
    derivation: Derivation,
    optimized: Option<BFunction>,
    artifact: RvArtifact,
}

fn programs() -> Vec<Program> {
    rupicola_programs::perf_suite()
        .iter()
        .map(|e| Program {
            name: e.info.name,
            model: (e.model)(),
            spec: (e.spec)(),
            limits: (e.limits)(EngineLimits::default()),
        })
        .collect()
}

/// One client call: the whole compile route.
fn pipeline(p: &Program, dbs: &HintDbs) -> Result<Answer, String> {
    let check = CheckConfig::default();
    let mut cf = compile_with_limits(&p.model, &p.spec, dbs, p.limits)
        .map_err(|e| format!("{}: compile: {e}", p.name))?;
    check_with(&cf, dbs, &check).map_err(|e| format!("{}: check: {e}", p.name))?;
    optimize_compiled(&mut cf, dbs, &PipelineConfig::full(), &check);
    let (artifact, _) = lower_validated(&cf, &RvPipelineConfig::full(), &check)
        .map_err(|e| format!("{}: lower: {e}", p.name))?;
    Ok(Answer { cf, artifact })
}

/// [`pipeline`] with a span around every layer call. The optimizer's loop
/// is replayed through its public pieces so pass and validation time
/// separate; the replayed body must equal the reference's optimized body.
/// Returns the answer and the call's time without the trace-only lint
/// re-runs.
fn traced(p: &Program, dbs: &HintDbs, spans: &mut Spans) -> (Result<Answer, String>, Duration) {
    let check = CheckConfig::default();
    let start = Instant::now();
    let mut extra = Duration::ZERO;
    let answer = (|| {
        let mut cf = spans
            .time("core.compile_ms", || {
                compile_with_limits(&p.model, &p.spec, dbs, p.limits)
            })
            .map_err(|e| format!("{}: compile: {e}", p.name))?;
        spans
            .time("core.check_ms", || check_with(&cf, dbs, &check))
            .map_err(|e| format!("{}: check: {e}", p.name))?;
        let opt_start = Instant::now();
        let (optimized, lint) = replay_optimizer(&cf, dbs, &check, spans);
        extra += lint;
        spans.add("opt.optimize_ms", opt_start.elapsed() - lint);
        cf.optimized = optimized;
        let (artifact, rv) = spans
            .time("rv.lower_ms", || {
                lower_validated(&cf, &RvPipelineConfig::full(), &check)
            })
            .map_err(|e| format!("{}: lower: {e}", p.name))?;
        count_compile(spans, &cf);
        spans.count("rv.stages_applied", rv.applied_count() as f64);
        spans.count("rv.rollbacks", rv.rolled_back_count() as f64);
        Ok(Answer { cf, artifact })
    })();
    (answer, start.elapsed() - extra)
}

/// `optimize_compiled`'s loop, pass by pass. Returns the optimized body
/// (`None` when no pass applied) and the time spent re-running the lint
/// suite on each candidate to split it out of validation (trace-only
/// work, not part of the call).
fn replay_optimizer(
    cf: &CompiledFunction,
    dbs: &HintDbs,
    check: &CheckConfig,
    spans: &mut Spans,
) -> (Option<BFunction>, Duration) {
    let pipeline = PipelineConfig::full();
    let mut current = cf.function.clone();
    let (mut applied, mut rolled_back, mut sites) = (0usize, 0usize, 0usize);
    let mut lint = Duration::ZERO;
    for &pass in &pipeline.passes {
        let Ok(outcome) = spans.time("opt.pass_ms", || catch_quiet(|| run_pass(pass, &current)))
        else {
            rolled_back += 1;
            continue;
        };
        if outcome.sites_rewritten == 0 || outcome.function == current {
            continue;
        }
        let t = Instant::now();
        let candidate = CompiledFunction {
            function: outcome.function.clone(),
            optimized: None,
            ..cf.clone()
        };
        spans.time("analysis.lint_ms", || {
            analyze_with_dbs(&candidate, Some(dbs))
        });
        lint += t.elapsed();
        let verdict = spans.time("opt.validate_ms", || {
            validate_candidate_with_policy(
                cf,
                &outcome.function,
                dbs,
                check,
                pipeline.ct_policy.as_ref(),
            )
        });
        if verdict.is_ok() {
            current = outcome.function;
            applied += 1;
            sites += outcome.sites_rewritten;
        } else {
            rolled_back += 1;
        }
    }
    spans.count("opt.passes_applied", applied as f64);
    spans.count("opt.rollbacks", rolled_back as f64);
    spans.count("opt.sites_rewritten", sites as f64);
    ((applied > 0).then_some(current), lint)
}

/// Compares an answer with the reference; `None` when it matches.
fn mismatch(p: &Program, a: &Answer, r: &Reference) -> Option<String> {
    let what = if a.cf.function != r.function {
        "function"
    } else if a.cf.derivation != r.derivation {
        "derivation"
    } else if a.cf.optimized != r.optimized {
        "optimized body"
    } else if a.artifact != r.artifact {
        "RISC-V artifact"
    } else {
        return None;
    };
    Some(format!("{}: {what} differs from the reference", p.name))
}

pub(crate) fn run(config: &Config, report: &mut Report) -> Result<(), String> {
    // Reference answers, before set-up and outside every timed window.
    let reference: Vec<Reference> = {
        let dbs = rupicola_ext::standard_dbs();
        programs()
            .iter()
            .map(|p| {
                pipeline(p, &dbs).map(|a| Reference {
                    function: a.cf.function,
                    derivation: a.cf.derivation,
                    optimized: a.cf.optimized,
                    artifact: a.artifact,
                })
            })
            .collect::<Result<_, _>>()?
    };

    // Set-up: the databases and the request inputs. (The reference
    // answers above already ran every program once in this process.)
    let mut clock = HostClock::new()?;
    let (dbs, programs) = repeated_setup(config, report, &mut clock, |_| {
        Ok((rupicola_ext::standard_dbs(), programs()))
    })?;

    let mut spans = Spans::default();
    let (mut plain, mut traced_ms) = (Vec::new(), Vec::new());
    if !config.trace {
        sys::reset_peak_rss()?;
    }
    let start = Instant::now();
    let mut round = 0u64;
    loop {
        let traced_round = traced_block(config.trace, round, 1);
        for i in plan::cold_round(config.seed, round, programs.len()) {
            let p = &programs[i];
            let (answer, took) = if traced_round {
                traced(p, &dbs, &mut spans)
            } else {
                if !config.trace {
                    clock.tick();
                }
                let t = Instant::now();
                let answer = pipeline(p, &dbs);
                let took = t.elapsed();
                plain.push((i, t + took / 2, took.as_secs_f64() * 1e3));
                (answer, took)
            };
            report.attempted += 1;
            let ms = took.as_secs_f64() * 1e3;
            match answer {
                Err(e) => report.fail(e),
                Ok(a) => {
                    if let Some(why) = mismatch(p, &a, &reference[i]) {
                        report.wrong_answer(why);
                    }
                    if traced_round {
                        traced_ms.push(ms);
                        let name = format!("rv.static_instrs.{}", p.name);
                        report.set(&name, instr_count(&a.artifact.asm) as f64, 1);
                    }
                }
            }
        }
        round += 1;
        if start.elapsed() >= config.run_for || !report.correct() {
            break;
        }
    }
    report.secs = start.elapsed().as_secs_f64();

    if !config.trace {
        // Before the statistics over the calls allocate: their size grows
        // with the number of calls, which varies with host speed.
        report.set("peak_rss_mb", sys::peak_rss_mib()?, 1);
        clock.finish(report, &plain, 1.0);
        return codegen::emitted_code(config.seed, report);
    }
    let plain_ms: Vec<f64> = plain.iter().map(|&(_, _, ms)| ms).collect();
    let totals = TraceTotals {
        plain_ms: &plain_ms,
        traced_ms: &traced_ms,
        attributed: &[
            "core.compile_ms",
            "core.check_ms",
            "opt.pass_ms",
            "opt.validate_ms",
            "rv.lower_ms",
        ],
    };
    let counters = [
        "opt.passes_applied",
        "opt.rollbacks",
        "opt.sites_rewritten",
        "rv.stages_applied",
        "rv.rollbacks",
    ];
    emit_trace(
        report,
        &spans,
        &totals,
        &[
            ("core.compile_ms", None),
            ("core.check_ms", None),
            ("opt.optimize_ms", None),
            ("opt.pass_ms", Some("opt.optimize_ms")),
            ("opt.validate_ms", Some("opt.optimize_ms")),
            ("analysis.lint_ms", Some("opt.validate_ms")),
            ("rv.lower_ms", None),
        ],
        &[&COMPILE_COUNTERS[..], &counters].concat(),
    );
    emit_compile_rates(report, &spans, traced_ms.len() as u64);
    Ok(())
}
