//! `codegen`: the speed of the generated code and the size and dynamic
//! cost of the RISC-V artifacts. Only a change to the emitted code moves
//! this workload.
//!
//! A client call is one Figure 2 program's optimized-route native driver
//! processing that program's own seeded 1 MiB input. Calls come in rounds
//! over the seven programs (seeded order); in the same round each
//! program's handwritten driver runs on the same input, as the baseline
//! of `gen_over_hand`, and its output is the reference the generated code
//! must match. After the rounds, the full-pipeline RISC-V artifacts of the
//! eleven perf-suite programs run in the simulator on the checker's
//! inputs, and every run must match the Bedrock2 interpreter on the
//! certified body.
//!
//! The emitted code is the same whatever traffic a workload sends, so
//! every plain run reports `gen_over_hand`, `rv_dyn_instrs` and
//! `rv_static_instrs`: the other workloads measure them after their
//! window with [`emitted_code`].

use std::hint::black_box;
use std::time::{Duration, Instant};

use rupicola_bedrock::rv_compile::RvArtifact;
use rupicola_bedrock::{ExecState, Interpreter, Memory, NoExternals, Program};
use rupicola_bench::{fig2_rows, make_input, make_text_input, Driver};
use rupicola_core::check::{differential_inputs, CheckConfig, DifferentialInput};
use rupicola_core::{compile_with_limits, CompiledFunction, EngineLimits};
use rupicola_programs::SuiteEntry;
use rupicola_rv::{instr_count, lower_validated, run_artifact, RvPipelineConfig, RV_FUEL};

use crate::host::HostClock;
use crate::spans::Spans;
use crate::stats::{geomean, median};
use crate::sys;
use crate::{emit_trace, plan, repeated_setup, traced_block, Config, Report, TraceTotals};

/// Bytes per native input (the Figure 2 input size).
const INPUT_LEN: usize = 1 << 20;

/// Rounds of the native drivers that a workload other than `codegen` runs
/// after its window for `gen_over_hand` (about a second).
const NATIVE_ROUNDS: u64 = 50;

struct Native {
    name: &'static str,
    optimized: Driver,
    handwritten: Driver,
    input: Vec<u8>,
}

/// The seven Figure 2 programs' native drivers on their seeded inputs,
/// and the nanoseconds per byte of every call made.
struct Natives {
    natives: Vec<Native>,
    opt_ns: Vec<Vec<f64>>,
    hand_ns: Vec<Vec<f64>>,
    buf_opt: Vec<u8>,
    buf_hand: Vec<u8>,
}

/// Runs `driver` on a fresh copy of `input` in `buf`, returning its
/// checksum, the call's start and its time.
fn timed_call(driver: Driver, input: &[u8], buf: &mut Vec<u8>) -> (u64, Instant, Duration) {
    buf.clear();
    buf.extend_from_slice(input);
    let t = Instant::now();
    let sum = black_box(driver(black_box(buf)));
    (sum, t, t.elapsed())
}

impl Natives {
    fn new(seed: u64) -> Natives {
        let natives: Vec<Native> = fig2_rows()
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let make = if row.text_input {
                    make_text_input
                } else {
                    make_input
                };
                Native {
                    name: row.name,
                    optimized: row.optimized,
                    handwritten: row.handwritten,
                    input: make(plan::input_seed(seed, i), INPUT_LEN),
                }
            })
            .collect();
        let n = natives.len();
        Natives {
            natives,
            opt_ns: vec![Vec::new(); n],
            hand_ns: vec![Vec::new(); n],
            buf_opt: Vec::with_capacity(INPUT_LEN),
            buf_hand: Vec::with_capacity(INPUT_LEN),
        }
    }

    /// Round `round`: every program's generated and handwritten drivers
    /// in the seeded order, each generated answer checked against the
    /// handwritten one. Returns the generated-code calls as `(program,
    /// midpoint, ms)`.
    fn round(&mut self, seed: u64, round: u64, report: &mut Report) -> Vec<(usize, Instant, f64)> {
        let plan = plan::codegen_round(seed, round, self.natives.len());
        let mut calls = Vec::with_capacity(self.natives.len());
        for (&i, &hand_first) in plan.order.iter().zip(&plan.hand_first) {
            let n = &self.natives[i];
            let ((opt_sum, opt_at, opt_t), (hand_sum, _, hand_t)) = if hand_first {
                let h = timed_call(n.handwritten, &n.input, &mut self.buf_hand);
                (timed_call(n.optimized, &n.input, &mut self.buf_opt), h)
            } else {
                let o = timed_call(n.optimized, &n.input, &mut self.buf_opt);
                (o, timed_call(n.handwritten, &n.input, &mut self.buf_hand))
            };
            report.attempted += 1;
            if opt_sum != hand_sum || self.buf_opt != self.buf_hand {
                report.wrong_answer(format!(
                    "{}: generated code disagrees with the handwritten baseline",
                    n.name
                ));
            }
            calls.push((i, opt_at + opt_t / 2, opt_t.as_secs_f64() * 1e3));
            self.opt_ns[i].push(opt_t.as_secs_f64() * 1e9 / INPUT_LEN as f64);
            self.hand_ns[i].push(hand_t.as_secs_f64() * 1e9 / INPUT_LEN as f64);
        }
        calls
    }

    /// Geometric mean over the programs of the median generated ns/B over
    /// the median handwritten ns/B. Both routes run interleaved on the
    /// same inputs, so the ratio needs no host-speed scaling.
    fn gen_over_hand(&self) -> f64 {
        let ratios: Vec<f64> = self
            .opt_ns
            .iter()
            .zip(&self.hand_ns)
            .map(|(o, h)| median(o) / median(h))
            .collect();
        geomean(&ratios)
    }

    /// The per-program ns/B medians of a traced run.
    fn emit_per_program(&self, report: &mut Report) {
        for (i, n) in self.natives.iter().enumerate() {
            let (o, h) = (&self.opt_ns[i], &self.hand_ns[i]);
            let name = n.name;
            report.set(
                &format!("native.opt_ns_per_byte.{name}"),
                median(o),
                o.len() as u64,
            );
            report.set(
                &format!("native.hand_ns_per_byte.{name}"),
                median(h),
                h.len() as u64,
            );
        }
    }

    fn rounds(&self) -> u64 {
        self.opt_ns.first().map_or(0, |v| v.len() as u64)
    }
}

/// What one run of a function observably produced: return words and the
/// final heap, region by region. `None` when the run faulted.
type Observed = Option<(Vec<u64>, Vec<(u64, Vec<u8>)>)>;

fn regions(mem: &Memory) -> Vec<(u64, Vec<u8>)> {
    mem.regions()
        .map(|(base, bytes)| (base, bytes.to_vec()))
        .collect()
}

/// A perf-suite program's checker inputs and what the Bedrock2
/// interpreter computes on each.
struct RvCase {
    name: &'static str,
    inputs: Vec<DifferentialInput>,
    expected: Vec<Observed>,
}

fn rv_case(name: &'static str, cf: &CompiledFunction) -> Result<RvCase, String> {
    let config = CheckConfig::default();
    let inputs = differential_inputs(cf, &config);
    if inputs.is_empty() {
        return Err(format!("{name}: no checker inputs"));
    }
    let mut program = Program::new();
    program.insert(cf.function.clone());
    for f in &cf.linked {
        program.insert(f.clone());
    }
    let interp = Interpreter::new(&program);
    let expected = inputs
        .iter()
        .map(|input| {
            let mut st = ExecState::new(input.mem.clone());
            interp
                .call_with_locals(
                    name,
                    &input.args,
                    &mut st,
                    &mut NoExternals,
                    config.max_fuel,
                )
                .ok()
                .map(|(rets, _)| (rets, regions(&st.mem)))
        })
        .collect();
    Ok(RvCase {
        name,
        inputs,
        expected,
    })
}

/// The reference compile of every perf-suite program and its checker
/// cases.
fn rv_cases(entries: &[SuiteEntry]) -> Result<Vec<RvCase>, String> {
    entries
        .iter()
        .map(|e| {
            let cf = (e.compiled)()
                .map_err(|err| format!("reference compile of {}: {err}", e.info.name))?;
            rv_case(e.info.name, &cf)
        })
        .collect()
}

/// The system's work behind the machine code: compile and lower (full
/// RISC-V pipeline) every perf-suite program.
fn lower_all(entries: &[SuiteEntry]) -> Result<Vec<RvArtifact>, String> {
    let dbs = rupicola_ext::standard_dbs();
    entries
        .iter()
        .map(|e| {
            let limits = (e.limits)(EngineLimits::default());
            let cf = compile_with_limits(&(e.model)(), &(e.spec)(), &dbs, limits)
                .map_err(|err| format!("{}: compile: {err}", e.info.name))?;
            lower_validated(&cf, &RvPipelineConfig::full(), &CheckConfig::default())
                .map(|(artifact, _)| artifact)
                .map_err(|err| format!("{}: lower: {err}", e.info.name))
        })
        .collect()
}

/// Runs every artifact on its program's checker inputs; every run must
/// match the interpreter. Returns `(program, instructions retired over
/// all inputs, static instructions)` per program: exact counts.
fn simulate(
    cases: &[RvCase],
    artifacts: &[RvArtifact],
    report: &mut Report,
) -> Vec<(&'static str, u64, u64)> {
    let mut counts = Vec::with_capacity(cases.len());
    for (case, artifact) in cases.iter().zip(artifacts) {
        let mut executed = 0u64;
        for (input, expected) in case.inputs.iter().zip(&case.expected) {
            let mut mem = input.mem.clone();
            let observed = run_artifact(artifact, &mut mem, &input.args, RV_FUEL)
                .ok()
                .map(|out| {
                    executed += out.executed;
                    (out.rets, regions(&mem))
                });
            report.attempted += 1;
            if &observed != expected {
                report.wrong_answer(format!(
                    "{}: RISC-V run on [{}] differs from the interpreter",
                    case.name, input.desc
                ));
            }
        }
        counts.push((case.name, executed, instr_count(&artifact.asm) as u64));
    }
    counts
}

/// Records the emitted-code end-to-end metrics of a plain run.
fn emit_emitted_code(report: &mut Report, natives: &Natives, rv: &[(&str, u64, u64)]) {
    report.set("gen_over_hand", natives.gen_over_hand(), natives.rounds());
    let programs = rv.len() as u64;
    let dyn_total: u64 = rv.iter().map(|&(_, d, _)| d).sum();
    let static_total: u64 = rv.iter().map(|&(_, _, s)| s).sum();
    report.set("rv_dyn_instrs", dyn_total as f64, programs);
    report.set("rv_static_instrs", static_total as f64, programs);
}

/// The emitted-code end-to-end metrics of a plain run of a workload other
/// than `codegen`, measured after its window: [`NATIVE_ROUNDS`] rounds of
/// the native drivers, and every RISC-V artifact in the simulator.
///
/// # Errors
///
/// When a reference compile, a compile or a lowering fails.
pub(crate) fn emitted_code(seed: u64, report: &mut Report) -> Result<(), String> {
    let mut natives = Natives::new(seed);
    for round in 0..NATIVE_ROUNDS {
        natives.round(seed, round, report);
    }
    let entries = rupicola_programs::perf_suite();
    let rv = simulate(&rv_cases(&entries)?, &lower_all(&entries)?, report);
    emit_emitted_code(report, &natives, &rv);
    Ok(())
}

pub(crate) fn run(config: &Config, report: &mut Report) -> Result<(), String> {
    // Benchmark inputs and references, before set-up.
    let mut natives = Natives::new(config.seed);
    let entries = rupicola_programs::perf_suite();
    let cases = rv_cases(&entries)?;

    // Set-up: the system produces the machine code the run simulates.
    let mut clock = HostClock::new()?;
    let artifacts = repeated_setup(config, report, &mut clock, |_| lower_all(&entries))?;

    let (mut plain, mut traced_ms) = (Vec::new(), Vec::new());
    if !config.trace {
        sys::reset_peak_rss()?;
    }
    let start = Instant::now();
    let mut round = 0u64;
    loop {
        if !config.trace {
            clock.tick();
        }
        let calls = natives.round(config.seed, round, report);
        if traced_block(config.trace, round, 1) {
            traced_ms.extend(calls.iter().map(|&(_, _, ms)| ms));
        } else {
            plain.extend(calls);
        }
        round += 1;
        if start.elapsed() >= config.run_for || !report.correct() {
            break;
        }
    }
    report.secs = start.elapsed().as_secs_f64();

    if !config.trace {
        // Before the statistics over the rounds allocate: their size grows
        // with the number of rounds, which varies with host speed.
        report.set("peak_rss_mb", sys::peak_rss_mib()?, 1);
        clock.finish(report, &plain, 1.0);
        let rv = simulate(&cases, &artifacts, report);
        emit_emitted_code(report, &natives, &rv);
        return Ok(());
    }
    let sim_start = Instant::now();
    let rv = simulate(&cases, &artifacts, report);
    let sim = sim_start.elapsed();
    let plain_ms: Vec<f64> = plain.iter().map(|&(_, _, ms)| ms).collect();
    let totals = TraceTotals {
        plain_ms: &plain_ms,
        traced_ms: &traced_ms,
        attributed: &[],
    };
    emit_trace(report, &Spans::default(), &totals, &[], &[]);
    // A call is nothing but generated code: all of it is attributed.
    report.set("trace.attributed_share", 1.0, traced_ms.len() as u64);
    report.set("rv.sim_ms", sim.as_secs_f64() * 1e3, 1);
    natives.emit_per_program(report);
    for &(name, executed, size) in &rv {
        report.set(&format!("rv.dyn_instrs.{name}"), executed as f64, 1);
        report.set(&format!("rv.static_instrs.{name}"), size as f64, 1);
    }
    Ok(())
}
