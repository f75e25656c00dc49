//! The trusted checker: witness re-validation plus translation validation.
//!
//! In Coq, the kernel checks the proof term each compilation produces. Our
//! substitution (see `DESIGN.md`) keeps the same architecture — untrusted,
//! extensible search produces a witness; a small trusted component validates
//! it — with three layers of validation:
//!
//! 1. **Structural**: every derivation node cites a registered lemma and
//!    every recorded side condition is re-solved by a registered solver.
//! 2. **Differential**: the functional model and the generated Bedrock2
//!    function are executed on generated test vectors; return words, final
//!    memory regions, event traces and writer output must agree. Programs
//!    that consume nondeterminism (the nondet monad, uninitialized stack
//!    allocations) are executed under *two* different poisons/oracles, which
//!    both checks the refinement and catches dependence on unspecified
//!    contents.
//! 3. **Invariants**: the loop invariants inferred by §3.4.2's heuristic are
//!    evaluated *at every loop head* of the real execution, via the
//!    interpreter's loop hook: the checker extends the closed-form
//!    partial-execution term to the current iteration count, one model
//!    step per loop iteration, and compares it against actual locals and
//!    memory.
//!
//! A check runs in two phases. The **certificate phase**
//! ([`Certificate`]) computes everything that depends only on the model,
//! spec, witness, linked functions and configuration: layer 1, the
//! vectors and their concretized calls, the source runs and the
//! invariants. The **body phase** ([`Certificate::check_body`]) runs the
//! body under test against it. [`check_with`] is the two in sequence; the
//! optimizer and the RISC-V backend validate many bodies against one
//! certificate.

use crate::engine::CompiledFunction;
use crate::fnspec::{concretize, ArgSpec, ConcreteCall, FnSpec, RegionLayout, RetSpec, TraceSpec};
use crate::goal::{Hyp, MonadCtx};
use crate::invariant::{LoopInvariant, LoopInvariantKind};
use rupicola_bedrock::interp::{Locals, LocalsView, NoExternals};
use rupicola_bedrock::{
    BExpr, BFunction, ExecError, ExecState, ExternalHandler, Interpreter, LoopHook, Memory,
    TraceEvent,
};
use rupicola_lang::eval::{eval, eval_model, Env, Oracle, World};
use rupicola_lang::{
    ElemKind, Event, Expr, ExternRegistry, Ident, Model, MonadKind, PrimOp, Value,
};
use rupicola_sep::ScalarKind;
use std::collections::VecDeque;
use std::fmt;
use std::sync::OnceLock;

/// Configuration of a checking run.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Number of test vectors per poison.
    pub vectors: usize,
    /// RNG seed for vector generation.
    pub seed: u64,
    /// Initial interpreter fuel per run. A run that exhausts it is retried
    /// with doubled fuel (*escalation*) until it fits or [`max_fuel`] is
    /// reached.
    ///
    /// [`max_fuel`]: CheckConfig::max_fuel
    pub fuel: u64,
    /// Fuel ceiling of the escalation. Exhausting *this* is reported as
    /// [`CheckError::Divergence`]: the code does not terminate within any
    /// budget the deployment is willing to pay, as opposed to merely
    /// needing more than the initial [`fuel`](CheckConfig::fuel).
    pub max_fuel: u64,
    /// Whether to validate inferred loop invariants at loop heads.
    pub check_invariants: bool,
    /// Extern operations / effect handlers the model uses.
    pub externs: ExternRegistry,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            vectors: 16,
            seed: 0xC0FF_EE00,
            fuel: 1 << 20,
            max_fuel: 1 << 30,
            check_invariants: true,
            externs: ExternRegistry::new(),
        }
    }
}

/// Summary of a successful check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Vectors executed (per poison).
    pub vectors_run: usize,
    /// Vectors skipped because the model's precondition excluded them
    /// (source evaluation was undefined).
    pub vectors_skipped: usize,
    /// Side conditions re-solved during structural validation.
    pub side_conds_rechecked: usize,
    /// Loop-head invariant evaluations performed.
    pub invariant_checks: usize,
    /// Whether the two-poison nondeterminism discipline was exercised.
    pub poison_pair: bool,
    /// Fuel-escalation retries performed (runs that exhausted the current
    /// fuel and were re-executed with doubled fuel).
    pub fuel_escalations: usize,
    /// The largest fuel actually consumed by any single target run (from
    /// the interpreter's fuel accounting).
    pub max_fuel_used: u64,
}

/// A validation failure: the witness does not certify the program.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// A derivation node cites a lemma absent from the databases.
    UnknownLemma(String),
    /// A recorded side condition is not re-solvable.
    SideCondition {
        /// The condition.
        cond: String,
        /// The lemma that recorded it.
        lemma: String,
    },
    /// The compiled function diverged from the model.
    Mismatch {
        /// The offending vector.
        vector: String,
        /// What differed.
        detail: String,
    },
    /// The compiled function got stuck (OOB access, fuel, …).
    TargetStuck {
        /// The offending vector.
        vector: String,
        /// The interpreter error.
        error: String,
    },
    /// A loop invariant failed at a loop head.
    InvariantViolated {
        /// The offending vector.
        vector: String,
        /// What the hook observed.
        detail: String,
    },
    /// Too few vectors were runnable (the generator could not satisfy the
    /// model's precondition).
    InsufficientCoverage {
        /// Vectors that ran.
        ran: usize,
        /// Vectors attempted.
        attempted: usize,
    },
    /// The compiled function exhausted the *escalated* fuel ceiling
    /// ([`CheckConfig::max_fuel`]) — it diverges for practical purposes,
    /// as opposed to [`CheckError::TargetStuck`] on a genuine stuck state
    /// or a run that merely needed more than the initial fuel (which is
    /// retried transparently).
    Divergence {
        /// The offending vector.
        vector: String,
        /// The ceiling that was exhausted.
        fuel_cap: u64,
    },
    /// The witness's integrity counters disagree with its tree: records
    /// were dropped, children truncated, or counters forged after
    /// construction.
    WitnessCorrupted {
        /// What disagreed.
        detail: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::UnknownLemma(l) => write!(f, "derivation cites unknown lemma `{l}`"),
            CheckError::SideCondition { cond, lemma } => {
                write!(f, "side condition `{cond}` of `{lemma}` does not re-solve")
            }
            CheckError::Mismatch { vector, detail } => {
                write!(f, "output mismatch on input {vector}: {detail}")
            }
            CheckError::TargetStuck { vector, error } => {
                write!(f, "compiled code stuck on input {vector}: {error}")
            }
            CheckError::InvariantViolated { vector, detail } => {
                write!(f, "loop invariant violated on input {vector}: {detail}")
            }
            CheckError::InsufficientCoverage { ran, attempted } => {
                write!(f, "only {ran}/{attempted} vectors satisfied the model's precondition")
            }
            CheckError::Divergence { vector, fuel_cap } => {
                write!(
                    f,
                    "compiled code on input {vector} still out of fuel at the escalation \
                     ceiling ({fuel_cap}): divergent"
                )
            }
            CheckError::WitnessCorrupted { detail } => {
                write!(f, "witness integrity violation: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Checks a compiled function against the default configuration.
///
/// # Errors
///
/// See [`CheckError`].
pub fn check(
    cf: &CompiledFunction,
    dbs: &crate::lemma::HintDbs,
) -> Result<CheckReport, CheckError> {
    check_with(cf, dbs, &CheckConfig::default())
}

/// Checks a compiled function: the certificate phase, then the body phase
/// on the certified body.
///
/// # Errors
///
/// See [`CheckError`].
pub fn check_with(
    cf: &CompiledFunction,
    dbs: &crate::lemma::HintDbs,
    config: &CheckConfig,
) -> Result<CheckReport, CheckError> {
    Certificate::new(cf, dbs, config).check_body(&cf.function)
}

/// The poisons of the nondeterminism discipline. Every body runs under
/// the first; a body that consumes nondeterminism also runs under the
/// second.
const POISONS: [u8; 2] = [0xAA, 0x55];

/// The certificate phase of a check: everything validation computes from
/// the model, spec, witness, linked functions and configuration, never
/// from the body under test. One value serves every body validated
/// against the same [`CompiledFunction`] — the checker's own body phase
/// ([`Certificate::check_body`]), the optimizer's candidates and the RISC-V
/// stages ([`Certificate::reference_runs`]).
///
/// Each part is computed on first use and kept: the structural result,
/// the vectors with their precondition verdicts, descriptions and
/// concretized calls, the source run per vector and poison, the collected
/// invariants, and the certified body's runs on the differential inputs.
/// A body that fails early therefore costs no more source runs than it
/// reaches, and the second poison's source runs exist only once a body
/// needs them.
///
/// The parts live in the certificate ([`Certificate::new`]) or in a
/// [`CertificateParts`] that outlives it ([`Certificate::with_parts`]),
/// so a caller that validates bodies of one certified function across
/// many requests computes them once.
pub struct Certificate<'a> {
    cf: &'a CompiledFunction,
    dbs: &'a crate::lemma::HintDbs,
    config: &'a CheckConfig,
    parts: Parts<'a>,
}

/// Where a [`Certificate`]'s parts live.
enum Parts<'a> {
    Own(CertificateParts),
    Shared(&'a CertificateParts),
}

impl std::ops::Deref for Parts<'_> {
    type Target = CertificateParts;

    fn deref(&self) -> &CertificateParts {
        match self {
            Parts::Own(parts) => parts,
            Parts::Shared(parts) => parts,
        }
    }
}

/// The computed parts of a [`Certificate`], owned and `Send + Sync`, so
/// they can outlive one request and be shared between threads. Each part
/// is computed at most once, by whichever certificate first needs it.
///
/// Parts are only meaningful for the inputs they were first used with: a
/// [`CompiledFunction`] whose model, spec, derivation, linked functions
/// and certified body are equal, one [`CheckConfig`], and hint databases
/// of one identity. Keeping that pairing is the caller's job.
pub struct CertificateParts {
    /// The `io_read` input stream every source and target run starts from.
    input_words: Vec<u64>,
    /// Side conditions re-solved, or the first structural failure.
    structural: OnceLock<Result<usize, CheckError>>,
    vectors: OnceLock<Vec<CertVector>>,
    invariants: OnceLock<Vec<LoopInvariant>>,
    reference: OnceLock<Vec<ReferenceRun>>,
}

impl CertificateParts {
    /// Parts for a certificate under `config`, none computed yet.
    pub fn new(config: &CheckConfig) -> CertificateParts {
        CertificateParts {
            input_words: (0..64).map(|i| splitmix(config.seed ^ (i + 1))).collect(),
            structural: OnceLock::new(),
            vectors: OnceLock::new(),
            invariants: OnceLock::new(),
            reference: OnceLock::new(),
        }
    }
}

// Parts outlive one request and are shared between threads.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<CertificateParts>();
};

impl fmt::Debug for CertificateParts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CertificateParts")
            .field("structural", &self.structural.get())
            .finish_non_exhaustive()
    }
}

/// One generated vector and what the certificate knows about it.
struct CertVector {
    values: Vec<Value>,
    desc: String,
    /// `None` when the spec's hints exclude the vector; otherwise the
    /// concretized call, or why the vector does not concretize.
    call: Option<Result<ConcreteCall, String>>,
    /// The source run under each of [`POISONS`]; `None` inside when the
    /// model's precondition excludes the vector.
    sources: [OnceLock<Option<SourceRun>>; 2],
}

/// What the functional model did on one vector under one poison.
struct SourceRun {
    value: Value,
    writer: Vec<u64>,
    events: Vec<Event>,
}

/// The certified body's run on one differential input: the reference a
/// replacement body (an optimizer candidate, a machine artifact) must
/// reproduce.
#[derive(Debug)]
pub struct ReferenceRun {
    /// The input.
    pub input: DifferentialInput,
    /// Return words and final locals, or the interpreter's error.
    pub outcome: Result<(Vec<u64>, Locals), ExecError>,
    /// The final heap and event trace.
    pub state: ExecState,
}

impl fmt::Debug for Certificate<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Certificate")
            .field("function", &self.cf.function.name)
            .finish_non_exhaustive()
    }
}

impl<'a> Certificate<'a> {
    /// Starts the certificate phase for `cf`. Nothing is computed until a
    /// body is checked or the reference runs are read.
    pub fn new(
        cf: &'a CompiledFunction,
        dbs: &'a crate::lemma::HintDbs,
        config: &'a CheckConfig,
    ) -> Self {
        Certificate { cf, dbs, config, parts: Parts::Own(CertificateParts::new(config)) }
    }

    /// A certificate for `cf` whose parts live in `parts`: whatever an
    /// earlier certificate over the same parts computed is reused, and
    /// whatever this one computes is kept there. `parts` must come from
    /// [`CertificateParts::new`] under `config`, and only ever be paired
    /// with an equal `cf` and hint databases of `dbs`'s identity.
    pub fn with_parts(
        cf: &'a CompiledFunction,
        dbs: &'a crate::lemma::HintDbs,
        config: &'a CheckConfig,
        parts: &'a CertificateParts,
    ) -> Self {
        Certificate { cf, dbs, config, parts: Parts::Shared(parts) }
    }

    /// The certified function this certificate was built from.
    pub fn compiled(&self) -> &'a CompiledFunction {
        self.cf
    }

    /// The configuration the certificate was built under.
    pub fn config(&self) -> &'a CheckConfig {
        self.config
    }

    fn vectors(&self) -> &[CertVector] {
        self.parts.vectors.get_or_init(|| certificate_vectors(self.cf, self.config))
    }

    fn invariants(&self) -> &[LoopInvariant] {
        self.parts.invariants.get_or_init(|| {
            let mut invariants = Vec::new();
            self.cf.derivation.root.walk(&mut |n| {
                if let Some(inv) = &n.invariant {
                    invariants.push(inv.clone());
                }
            });
            invariants
        })
    }

    /// The model's run on `vector` under `POISONS[slot]`.
    fn source<'v>(&self, vector: &'v CertVector, slot: usize) -> Option<&'v SourceRun> {
        vector.sources[slot]
            .get_or_init(|| {
                let mut world = World::with_input(self.parts.input_words.iter().copied())
                    .with_oracle(PoisonOracle { byte: POISONS[slot] });
                world.externs = self.config.externs.clone();
                let value = eval_model(&self.cf.model, &vector.values, &mut world).ok()?;
                Some(SourceRun { value, writer: world.writer, events: world.events })
            })
            .as_ref()
    }

    /// The certified body's runs on every differential input (see
    /// [`differential_inputs`]), with the interpreter's full fuel ceiling
    /// and no external handler.
    pub fn reference_runs(&self) -> &[ReferenceRun] {
        self.parts.reference.get_or_init(|| {
            let cf = self.cf;
            let interp = interpreter_for(&cf.function, &cf.linked);
            self.vectors()
                .iter()
                .filter_map(|v| match &v.call {
                    Some(Ok(call)) => Some((v, call)),
                    _ => None,
                })
                .map(|(v, call)| {
                    let mut state = ExecState::new(call.mem.clone());
                    let outcome = interp.call_with_locals(
                        &cf.function.name,
                        &call.args,
                        &mut state,
                        &mut NoExternals,
                        self.config.max_fuel,
                    );
                    let input = DifferentialInput {
                        args: call.args.clone(),
                        mem: call.mem.clone(),
                        desc: v.desc.clone(),
                    };
                    ReferenceRun { input, outcome, state }
                })
                .collect()
        })
    }

    /// The body phase: validates `body` as the implementation of the
    /// certified function — the witness's structural result, then the
    /// differential against the model with invariant hooks at every loop
    /// head.
    ///
    /// # Errors
    ///
    /// See [`CheckError`].
    pub fn check_body(&self, body: &BFunction) -> Result<CheckReport, CheckError> {
        let cf = self.cf;
        let config = self.config;
        let mut report = CheckReport {
            side_conds_rechecked: self
                .parts
                .structural
                .get_or_init(|| structural(cf, self.dbs))
                .clone()?,
            ..CheckReport::default()
        };

        // The second poison is triggered by the body: a stack allocation
        // hands it unspecified bytes even under a deterministic spec.
        let uses_nondet = matches!(cf.spec.monad, MonadCtx::Monadic(MonadKind::Nondet))
            || function_has_stackalloc(&body.body);
        let poisons = if uses_nondet { &POISONS[..] } else { &POISONS[..1] };
        report.poison_pair = poisons.len() == 2;

        let vectors = self.vectors();
        let invariants = self.invariants();
        let interp = interpreter_for(body, &cf.linked);

        let mut ran = 0;
        for vector in vectors {
            let Some(call) = &vector.call else {
                report.vectors_skipped += 1;
                continue;
            };
            let mut this_ran = false;
            for (slot, &poison) in poisons.iter().enumerate() {
                let Some(src) = self.source(vector, slot) else {
                    // Precondition excluded this input.
                    report.vectors_skipped += 1;
                    break;
                };
                this_ran = true;
                let call = call.as_ref().map_err(|e| CheckError::Mismatch {
                    vector: vector.desc.clone(),
                    detail: e.clone(),
                })?;

                // Target run, with bounded fuel escalation: a run that
                // exhausts the current fuel is re-executed from scratch
                // with doubled fuel, distinguishing "needs more fuel"
                // (retried transparently) from "diverges" (still starving
                // at the cap).
                let mut fuel = config.fuel.clamp(1, config.max_fuel);
                let (rets, state, hook_checks) = loop {
                    let mut state = ExecState::new(call.mem.clone()).with_stack_poison(poison);
                    let mut ext = CheckerExternals {
                        input: self.parts.input_words.iter().copied().collect(),
                        externs: config.externs.clone(),
                    };
                    let mut hook = InvariantHook::new(
                        &body.name,
                        invariants,
                        &cf.model,
                        &vector.values,
                        &config.externs,
                    );
                    let rets = if config.check_invariants {
                        interp.call_with_hook(
                            &body.name,
                            &call.args,
                            &mut state,
                            &mut ext,
                            fuel,
                            &mut hook,
                        )
                    } else {
                        interp.call(&body.name, &call.args, &mut state, &mut ext, fuel)
                    };
                    report.max_fuel_used = report.max_fuel_used.max(state.fuel_used);
                    match rets {
                        Err(ExecError::OutOfFuel) if fuel < config.max_fuel => {
                            report.fuel_escalations += 1;
                            fuel = fuel.saturating_mul(2).min(config.max_fuel);
                        }
                        Err(ExecError::OutOfFuel) => {
                            return Err(CheckError::Divergence {
                                vector: vector.desc.clone(),
                                fuel_cap: config.max_fuel,
                            });
                        }
                        other => break (other, state, hook.checks),
                    }
                };
                report.invariant_checks += hook_checks;
                let rets = rets.map_err(|e| match e {
                    ExecError::HookFailure(m) => CheckError::InvariantViolated {
                        vector: vector.desc.clone(),
                        detail: m,
                    },
                    other => CheckError::TargetStuck {
                        vector: vector.desc.clone(),
                        error: other.to_string(),
                    },
                })?;

                compare_outputs(
                    cf,
                    &src.value,
                    &rets,
                    &state,
                    &call.regions,
                    &vector.values,
                    &vector.desc,
                )?;
                compare_traces(&cf.spec, src, &state, &vector.desc)?;
            }
            if this_ran {
                ran += 1;
            }
        }
        report.vectors_run = ran;
        if ran == 0 || ran * 4 < vectors.len() {
            return Err(CheckError::InsufficientCoverage { ran, attempted: vectors.len() });
        }
        Ok(report)
    }
}

/// Layer 1: structural validation of the witness. Returns the number of
/// side conditions re-solved.
fn structural(cf: &CompiledFunction, dbs: &crate::lemma::HintDbs) -> Result<usize, CheckError> {
    // First the integrity counters — recompute both summaries from the
    // tree; a mismatch means records were dropped or children truncated
    // after construction.
    let node_count = cf.derivation.root.size();
    if node_count != cf.derivation.node_count {
        return Err(CheckError::WitnessCorrupted {
            detail: format!(
                "tree has {node_count} node(s) but the witness records {}",
                cf.derivation.node_count
            ),
        });
    }
    let mut sc_count = 0;
    cf.derivation.root.walk(&mut |n| sc_count += n.side_conds.len());
    if sc_count != cf.derivation.side_cond_count {
        return Err(CheckError::WitnessCorrupted {
            detail: format!(
                "tree records {sc_count} side condition(s) but the witness counts {}",
                cf.derivation.side_cond_count
            ),
        });
    }

    // Then per-node validation: every lemma registered, every side
    // condition re-solved. Solvers are untrusted extensions: a panicking
    // solver counts as "does not re-solve", not as a checker crash.
    let mut rechecked = 0;
    let mut result: Result<(), CheckError> = Ok(());
    cf.derivation.root.walk(&mut |node| {
        if result.is_err() {
            return;
        }
        if !dbs.knows_lemma(&node.lemma) {
            result = Err(CheckError::UnknownLemma(node.lemma.to_string()));
            return;
        }
        for sc in &node.side_conds {
            let solved = dbs.solvers().iter().any(|s| {
                crate::engine::catch_quiet(|| s.solve(&sc.cond, &sc.hyps)).unwrap_or(false)
            });
            if !solved {
                result = Err(CheckError::SideCondition {
                    cond: sc.cond.to_string(),
                    lemma: node.lemma.to_string(),
                });
                return;
            }
            rechecked += 1;
        }
    });
    result.map(|()| rechecked)
}

/// An interpreter over `main` and the functions linked with it (a linked
/// function of `main`'s name shadows it, as in a [`rupicola_bedrock::Program`]).
fn interpreter_for<'a>(main: &'a BFunction, linked: &'a [BFunction]) -> Interpreter<'a> {
    Interpreter::of(std::iter::once(main).chain(linked))
}

/// The generated vectors with their precondition verdicts, descriptions
/// and concretized calls.
fn certificate_vectors(cf: &CompiledFunction, config: &CheckConfig) -> Vec<CertVector> {
    generate_vectors(&cf.spec, &cf.model, config)
        .into_iter()
        .map(|values| {
            let desc = describe_vector(&cf.model.params, &values);
            let call = hints_hold(&cf.spec, &cf.model, &values, config)
                .then(|| concretize(&cf.spec, &cf.model.params, &values));
            CertVector { values, desc, call, sources: Default::default() }
        })
        .collect()
}

/// One concretized differential-test input: the same machine state the
/// checker's layer-3 differential would start the compiled function in.
#[derive(Debug)]
pub struct DifferentialInput {
    /// Argument words, in Bedrock2 argument order.
    pub args: Vec<u64>,
    /// Initial memory (argument regions laid out and filled).
    pub mem: Memory,
    /// Human-readable description of the underlying model vector.
    pub desc: String,
}

/// Concretizes the checker's test vectors for `cf` into interpreter-ready
/// inputs, skipping vectors outside the spec's precondition (its hint
/// hypotheses). These are exactly the inputs of
/// [`Certificate::reference_runs`]; the equivalence battery and the
/// benchmarks use them to run machine code on the inputs the certificate
/// was checked on.
pub fn differential_inputs(cf: &CompiledFunction, config: &CheckConfig) -> Vec<DifferentialInput> {
    certificate_vectors(cf, config)
        .into_iter()
        .filter_map(|v| match v.call {
            Some(Ok(call)) => Some(DifferentialInput { args: call.args, mem: call.mem, desc: v.desc }),
            _ => None,
        })
        .collect()
}

fn function_has_stackalloc(cmd: &rupicola_bedrock::Cmd) -> bool {
    use rupicola_bedrock::Cmd;
    match cmd {
        Cmd::StackAlloc { .. } => true,
        Cmd::Seq(a, b) => function_has_stackalloc(a) || function_has_stackalloc(b),
        Cmd::If { then_, else_, .. } => {
            function_has_stackalloc(then_) || function_has_stackalloc(else_)
        }
        Cmd::While { body, .. } => function_has_stackalloc(body),
        _ => false,
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Oracle returning a fixed byte pattern; `nondet_word` always picks the
/// least element, matching the compiled code's canonical choice.
#[derive(Debug, Clone, Copy)]
struct PoisonOracle {
    byte: u8,
}

impl Oracle for PoisonOracle {
    fn nondet_byte(&mut self) -> u8 {
        self.byte
    }
    fn nondet_word(&mut self, _bound: u64) -> u64 {
        0
    }
}

struct CheckerExternals {
    input: VecDeque<u64>,
    externs: ExternRegistry,
}

impl ExternalHandler for CheckerExternals {
    fn interact(
        &mut self,
        action: &str,
        args: &[u64],
        _mem: &mut Memory,
    ) -> Result<Vec<u64>, String> {
        match action {
            "io_read" => {
                let w = self.input.pop_front().ok_or("io input exhausted")?;
                Ok(vec![w])
            }
            "io_write" | "writer_tell" => Ok(vec![]),
            other => {
                let handler = self
                    .externs
                    .effect(other)
                    .ok_or_else(|| format!("no effect handler for `{other}`"))?
                    .clone();
                let vals: Vec<Value> = args.iter().map(|w| Value::Word(*w)).collect();
                let (_, rets) = handler(&vals).map_err(|e| e.to_string())?;
                Ok(rets)
            }
        }
    }
}

fn describe_vector(params: &[Ident], values: &[Value]) -> String {
    params
        .iter()
        .zip(values)
        .map(|(p, v)| format!("{p} := {v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Evaluates the spec's hint hypotheses on a vector. Hints double as the
/// function's `requires` clause: a vector on which a hint is false is
/// outside the precondition and is skipped. Hints mentioning terms that are
/// not evaluable from the parameters alone are ignored here (they were
/// still re-solved structurally).
fn hints_hold(spec: &FnSpec, model: &Model, vector: &[Value], config: &CheckConfig) -> bool {
    let mut env: Env = model.params.iter().cloned().zip(vector.iter().cloned()).collect();
    let mut world = World { externs: config.externs.clone(), ..World::default() };
    for hint in &spec.hints {
        let (a, b, test): (&Expr, &Expr, fn(u64, u64) -> bool) = match hint {
            Hyp::EqWord(a, b) => (a, b, |x, y| x == y),
            Hyp::LtU(a, b) => (a, b, |x, y| x < y),
            Hyp::LeU(a, b) => (a, b, |x, y| x <= y),
        };
        let va = eval(a, &mut env, &model.tables, &mut world).ok().and_then(|v| v.to_scalar_word());
        let vb = eval(b, &mut env, &model.tables, &mut world).ok().and_then(|v| v.to_scalar_word());
        if let (Some(x), Some(y)) = (va, vb) {
            if !test(x, y) {
                return false;
            }
        }
    }
    true
}

fn compare_outputs(
    cf: &CompiledFunction,
    src_value: &Value,
    rets: &[u64],
    state: &ExecState,
    regions: &[RegionLayout],
    vector: &[Value],
    vector_desc: &str,
) -> Result<(), CheckError> {
    let components = flatten_value(src_value);
    if components.len() != cf.spec.rets.len() {
        return Err(CheckError::Mismatch {
            vector: vector_desc.to_string(),
            detail: format!(
                "model produced {} result component(s), spec declares {}",
                components.len(),
                cf.spec.rets.len()
            ),
        });
    }
    let mut ret_iter = rets.iter();
    for (spec, comp) in cf.spec.rets.iter().zip(&components) {
        match spec {
            RetSpec::Scalar { name, kind } => {
                let got = *ret_iter.next().ok_or_else(|| CheckError::Mismatch {
                    vector: vector_desc.to_string(),
                    detail: "too few return values".into(),
                })?;
                let want = comp.to_scalar_word().ok_or_else(|| CheckError::Mismatch {
                    vector: vector_desc.to_string(),
                    detail: format!("model result component for `{name}` is not scalar"),
                })?;
                let want = mask_for_kind(*kind, want);
                if got != want {
                    return Err(CheckError::Mismatch {
                        vector: vector_desc.to_string(),
                        detail: format!("return `{name}`: model {want:#x}, compiled {got:#x}"),
                    });
                }
            }
            RetSpec::InPlace { param } => {
                let layout = regions.iter().find(|r| &r.param == param).ok_or_else(|| {
                    CheckError::Mismatch {
                        vector: vector_desc.to_string(),
                        detail: format!("no region layout for `{param}`"),
                    }
                })?;
                let bytes = state.mem.region(layout.base).ok_or_else(|| CheckError::Mismatch {
                    vector: vector_desc.to_string(),
                    detail: format!("region of `{param}` vanished"),
                })?;
                let got = match layout.elem {
                    Some(elem) => Value::from_layout_bytes(elem, bytes),
                    None => bytes
                        .get(..8)
                        .and_then(|b| <[u8; 8]>::try_from(b).ok())
                        .map(|b| Value::Cell(u64::from_le_bytes(b))),
                };
                let input_len = vector
                    .get(cf.model.params.iter().position(|p| p == param).unwrap_or(usize::MAX))
                    .and_then(Value::list_len);
                if let (Some(want_len), Some(got_len)) = (input_len, comp.list_len()) {
                    if want_len != got_len {
                        return Err(CheckError::Mismatch {
                            vector: vector_desc.to_string(),
                            detail: format!(
                                "in-place result for `{param}` changed length: {want_len} → {got_len}"
                            ),
                        });
                    }
                }
                if got.as_ref() != Some(comp) {
                    return Err(CheckError::Mismatch {
                        vector: vector_desc.to_string(),
                        detail: format!(
                            "in-place result for `{param}`: model {comp}, compiled {}",
                            got.map_or_else(|| "<undecodable>".to_string(), |v| v.to_string())
                        ),
                    });
                }
            }
        }
    }
    // Input regions that are not declared as outputs carry the implicit
    // `array p s` ensures clause: the compiled code must leave them
    // byte-for-byte unchanged.
    for layout in regions {
        let declared_output = cf
            .spec
            .rets
            .iter()
            .any(|r| matches!(r, RetSpec::InPlace { param } if *param == layout.param));
        if declared_output {
            continue;
        }
        let original = cf
            .model
            .params
            .iter()
            .position(|p| *p == layout.param)
            .and_then(|i| vector.get(i))
            .and_then(Value::to_layout_bytes);
        let got = state.mem.region(layout.base);
        if let (Some(want), Some(got)) = (original, got) {
            if want.as_slice() != got {
                return Err(CheckError::Mismatch {
                    vector: vector_desc.to_string(),
                    detail: format!(
                        "`{}` is not an output but its memory changed (spec ensures `array p {}` unchanged)",
                        layout.param, layout.param
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Flattens a pair-structured result value, mirroring
/// [`crate::goal::flatten_result`] on terms.
fn flatten_value(v: &Value) -> Vec<Value> {
    match v {
        Value::Pair(a, b) => {
            let mut out = flatten_value(a);
            out.extend(flatten_value(b));
            out
        }
        other => vec![other.clone()],
    }
}

fn mask_for_kind(kind: ScalarKind, w: u64) -> u64 {
    match kind {
        ScalarKind::Byte => w & 0xff,
        ScalarKind::Bool => w & 1,
        _ => w,
    }
}

fn compare_traces(
    spec: &FnSpec,
    source: &SourceRun,
    state: &ExecState,
    vector_desc: &str,
) -> Result<(), CheckError> {
    let (writer_events, other_events): (Vec<&TraceEvent>, Vec<&TraceEvent>) = state
        .trace
        .iter()
        .partition(|e| e.action == "writer_tell");
    let writer_got: Vec<u64> = writer_events.iter().filter_map(|e| e.args.first().copied()).collect();
    if writer_got != source.writer {
        return Err(CheckError::Mismatch {
            vector: vector_desc.to_string(),
            detail: format!(
                "writer output: model {:?}, compiled {:?}",
                source.writer, writer_got
            ),
        });
    }
    match spec.trace {
        TraceSpec::Unchanged => {
            if !other_events.is_empty() {
                return Err(CheckError::Mismatch {
                    vector: vector_desc.to_string(),
                    detail: format!(
                        "spec says tr' = tr but compiled code performed {} interaction(s)",
                        other_events.len()
                    ),
                });
            }
        }
        TraceSpec::MirrorsSource => {
            let expected: Vec<TraceEvent> = source.events.iter().map(event_to_trace).collect();
            let got: Vec<TraceEvent> = other_events.into_iter().cloned().collect();
            if expected != got {
                return Err(CheckError::Mismatch {
                    vector: vector_desc.to_string(),
                    detail: format!("trace: model {expected:?}, compiled {got:?}"),
                });
            }
        }
    }
    Ok(())
}

fn event_to_trace(e: &Event) -> TraceEvent {
    match e {
        Event::Read(w) => TraceEvent { action: "io_read".into(), args: vec![], rets: vec![*w] },
        Event::Write(w) => TraceEvent { action: "io_write".into(), args: vec![*w], rets: vec![] },
        Event::Ext { tag, args, rets } => TraceEvent {
            action: tag.clone(),
            args: args.clone(),
            rets: rets.clone(),
        },
    }
}

/// Bounds on a parameter's list length implied by the spec hints
/// (`length s = n`, `k ≤ length s`, `length s < m`).
fn hinted_len_bounds(spec: &FnSpec, param: &str) -> (usize, Option<usize>) {
    let mut lo = 0usize;
    let mut exact = None;
    for h in &spec.hints {
        let (a, b, kind) = match h {
            Hyp::EqWord(a, b) => (a, b, 0),
            Hyp::LeU(a, b) => (a, b, 1),
            Hyp::LtU(a, b) => (a, b, 2),
        };
        let is_len = |e: &Expr| {
            matches!(e, Expr::ArrayLen { arr, .. } if matches!(arr.as_ref(), Expr::Var(v) if v == param))
        };
        let lit = |e: &Expr| match e {
            Expr::Lit(v) => v.to_scalar_word(),
            _ => None,
        };
        match kind {
            0 if is_len(a) => {
                if let Some(n) = lit(b) {
                    exact = Some(n as usize);
                }
            }
            1 if is_len(b) => {
                if let Some(n) = lit(a) {
                    lo = lo.max(n as usize);
                }
            }
            _ => {}
        }
    }
    (lo, exact)
}

/// Extracts relational length hints of the form
/// `len A = len B >> k` / `len A = len B * k` (either literal-operand
/// order for the product), returned as `(a_param, b_param, transform)`
/// where `transform` maps B's length to A's required length. The codec
/// programs (`hex_enc`, `hex_dec`) relate their two buffers this way, and
/// without honoring the relation almost every generated vector would be
/// skipped by `hints_hold`, starving coverage.
/// One relational length hint: `(a_param, b_param, transform, k)` — A's
/// required length is `transform(len B, k)`.
type LenHint = (String, String, fn(usize, u64) -> usize, u64);

fn relational_len_hints(spec: &FnSpec) -> Vec<LenHint> {
    let len_param = |e: &Expr| match e {
        Expr::ArrayLen { arr, .. } => match arr.as_ref() {
            Expr::Var(v) => Some(v.clone()),
            _ => None,
        },
        _ => None,
    };
    let lit = |e: &Expr| match e {
        Expr::Lit(v) => v.to_scalar_word(),
        _ => None,
    };
    let mut out: Vec<LenHint> = Vec::new();
    for h in &spec.hints {
        let Hyp::EqWord(a, b) = h else { continue };
        let Some(a_param) = len_param(a) else { continue };
        let Expr::Prim { op, args } = b else { continue };
        if args.len() != 2 {
            continue;
        }
        match op {
            PrimOp::WShr => {
                if let (Some(b_param), Some(k)) = (len_param(&args[0]), lit(&args[1])) {
                    out.push((a_param, b_param, |n, k| n >> (k & 63), k));
                }
            }
            PrimOp::WMul => {
                let (p, k) = (len_param(&args[0]), lit(&args[1]));
                let (p, k) = if p.is_some() { (p, k) } else { (len_param(&args[1]), lit(&args[0])) };
                if let (Some(b_param), Some(k)) = (p, k) {
                    out.push((a_param, b_param, |n, k| n * (k as usize), k));
                }
            }
            _ => {}
        }
    }
    out
}

/// Generates input vectors covering size edge cases and random contents,
/// steering list sizes by any length hints so that preconditions do not
/// starve coverage.
fn generate_vectors(spec: &FnSpec, model: &Model, config: &CheckConfig) -> Vec<Vec<Value>> {
    const SIZES: [usize; 8] = [0, 1, 2, 3, 7, 8, 13, 32];
    let relational = relational_len_hints(spec);
    let mut out = Vec::with_capacity(config.vectors);
    let mut state = config.seed | 1;
    let mut next = move || {
        state = splitmix(state);
        state
    };
    for v in 0..config.vectors {
        let base_size = SIZES[v % SIZES.len()];
        // Decide every array's size up front so relational hints can tie
        // one buffer's length to another's before contents are drawn.
        let mut sizes: std::collections::HashMap<&str, usize> = spec
            .args
            .iter()
            .filter_map(|a| match a {
                ArgSpec::ArrayPtr { param, .. } => {
                    let (lo, exact) = hinted_len_bounds(spec, param);
                    Some((param.as_str(), exact.unwrap_or_else(|| base_size.max(lo))))
                }
                _ => None,
            })
            .collect();
        for (a_param, b_param, transform, k) in &relational {
            if let Some(&b_len) = sizes.get(b_param.as_str()) {
                if let Some(slot) = sizes.get_mut(a_param.as_str()) {
                    *slot = transform(b_len, *k);
                }
            }
        }
        let mut vector = Vec::with_capacity(model.params.len());
        for p in &model.params {
            let arg = spec.args.iter().find(|a| match a {
                ArgSpec::Scalar { param, .. }
                | ArgSpec::ArrayPtr { param, .. }
                | ArgSpec::CellPtr { param, .. } => param == p,
                ArgSpec::LenOf { .. } => false,
            });
            let size = match arg {
                Some(ArgSpec::ArrayPtr { param, .. }) => {
                    sizes.get(param.as_str()).copied().unwrap_or(base_size)
                }
                _ => base_size,
            };
            let value = match arg {
                Some(ArgSpec::ArrayPtr { elem: ElemKind::Byte, .. }) => {
                    Value::byte_list((0..size).map(|_| (next() & 0xff) as u8))
                }
                Some(ArgSpec::ArrayPtr { elem: ElemKind::Word, .. }) => {
                    Value::word_list((0..size).map(|_| next()))
                }
                Some(ArgSpec::CellPtr { .. }) => Value::Cell(next()),
                Some(ArgSpec::Scalar { kind, .. }) => match kind {
                    // Words are biased toward plausible index values so that
                    // hints acting as preconditions (e.g. `i < length s`)
                    // keep enough vectors alive.
                    ScalarKind::Word => Value::Word(match v % 4 {
                        0 => 0,
                        1 => 1,
                        _ => next() % (2 * size as u64 + 2),
                    }),
                    ScalarKind::Byte => Value::Byte((next() & 0xff) as u8),
                    ScalarKind::Bool => Value::Bool(next() & 1 == 1),
                    ScalarKind::Nat => Value::Nat(next() & 0xffff),
                    ScalarKind::Unit => Value::Unit,
                },
                _ => Value::Unit,
            };
            vector.push(value);
        }
        out.push(vector);
    }
    out
}

/// The loop-head invariant checker for one target run of the body under
/// test.
///
/// Each invariant's model-side fold is replayed *incrementally*: the hook
/// keeps a [`Replay`] per invariant and, at a loop head with counter `i`,
/// extends it from the iteration it reached to `i`. A replay to `i` is the
/// replay to `k` followed by steps `k..i` — the same deterministic `eval`s
/// on the same environment and world — so every verdict equals that of a
/// from-scratch replay, at one model step per loop iteration instead of
/// `i` per head. A counter below the one reached (a second call of the
/// loop, an inner loop restarting) starts the replay over.
struct InvariantHook<'a> {
    /// The body under test: loop heads of linked callees are not its
    /// loops, whatever their conditions mention.
    function: &'a str,
    invariants: &'a [LoopInvariant],
    model: &'a Model,
    values: &'a [Value],
    externs: &'a ExternRegistry,
    /// Per invariant, the replay reached in this run; `None` before its
    /// first loop head and after a failed one.
    replays: Vec<Option<Replay>>,
    checks: usize,
    /// Fold-body evaluations performed (the replay's cost).
    #[cfg(test)]
    steps: usize,
}

/// One invariant's model-side fold, replayed up to iteration `k`.
struct Replay {
    /// The prefix bindings' environment; the fold binds its names here.
    env: Env,
    world: World,
    /// The evaluated array term of `ArrayFoldScalar` (`Unit` otherwise).
    arr: Value,
    /// The accumulator (scalar kinds) or the expected array.
    acc: Value,
    /// The array term's length (`Array*` kinds): it bounds the counter.
    len: Option<usize>,
    /// The first iteration: 0 for `Array*` kinds, the evaluated `from`
    /// for range kinds.
    lo: u64,
    /// The iteration reached, `lo <= k`.
    k: u64,
}

impl<'a> InvariantHook<'a> {
    fn new(
        function: &'a str,
        invariants: &'a [LoopInvariant],
        model: &'a Model,
        values: &'a [Value],
        externs: &'a ExternRegistry,
    ) -> Self {
        InvariantHook {
            function,
            invariants,
            model,
            values,
            externs,
            replays: invariants.iter().map(|_| None).collect(),
            checks: 0,
            #[cfg(test)]
            steps: 0,
        }
    }

    /// A fresh replay of `inv` at its first iteration: the prefix
    /// bindings, then the array term (`Array*` kinds, whose length must
    /// admit counter `i`) or the loop start, then the initial accumulator.
    fn start(&mut self, inv: &LoopInvariant, i: u64) -> Result<Replay, String> {
        let tables = &self.model.tables;
        let mut world = World { externs: self.externs.clone(), ..World::default() };
        let mut env: Env =
            self.model.params.iter().cloned().zip(self.values.iter().cloned()).collect();
        for (name, def) in &inv.bindings {
            let v = eval(def, &mut env, tables, &mut world)
                .map_err(|e| format!("binding `{name}`: {e}"))?;
            env.insert(name.clone(), v);
        }
        self.checks += 1;
        let (arr, len, lo) = match &inv.kind {
            LoopInvariantKind::ArrayMapInPlace { arr, .. }
            | LoopInvariantKind::ArrayFoldScalar { arr, .. } => {
                let arr = eval(arr, &mut env, tables, &mut world)
                    .map_err(|e| format!("invariant array term: {e}"))?;
                let len = arr.list_len().ok_or("invariant array term is not a list")?;
                counter_within(i, len)?;
                (arr, Some(len), 0)
            }
            LoopInvariantKind::RangeFoldArrayPut { from, .. }
            | LoopInvariantKind::RangeFoldScalar { from, .. } => {
                let lo = eval(from, &mut env, tables, &mut world)
                    .ok()
                    .and_then(|v| v.to_scalar_word())
                    .ok_or("invariant `from` term not scalar")?;
                (Value::Unit, None, lo)
            }
        };
        let (arr, acc) = match &inv.kind {
            LoopInvariantKind::ArrayMapInPlace { .. } => (Value::Unit, arr),
            LoopInvariantKind::ArrayFoldScalar { init, .. }
            | LoopInvariantKind::RangeFoldArrayPut { init, .. }
            | LoopInvariantKind::RangeFoldScalar { init, .. } => {
                let acc = eval(init, &mut env, tables, &mut world)
                    .map_err(|e| format!("invariant init: {e}"))?;
                (arr, acc)
            }
        };
        Ok(Replay { env, world, arr, acc, len, lo, k: lo })
    }

    /// Extends `r` from iteration `r.k` to `to` (nothing when `to <= r.k`),
    /// one fold-body evaluation per iteration.
    fn advance(&mut self, r: &mut Replay, kind: &LoopInvariantKind, to: u64) -> Result<(), String> {
        let tables = &self.model.tables;
        let Replay { env, world, arr, acc: accv, k, .. } = r;
        while *k < to {
            #[cfg(test)]
            {
                self.steps += 1;
            }
            let idx = *k as usize;
            let prev = std::mem::replace(accv, Value::Unit);
            *accv = match kind {
                LoopInvariantKind::ArrayMapInPlace { x, f, .. } => {
                    let xv = prev
                        .list_get(idx)
                        .ok_or_else(|| format!("invariant element {idx} out of range"))?;
                    env.insert(x.clone(), xv);
                    let fx = eval(f, env, tables, world)
                        .map_err(|e| format!("invariant map body: {e}"))?;
                    put_elem(prev, idx, &fx)?
                }
                LoopInvariantKind::ArrayFoldScalar { acc, x, f, .. } => {
                    env.insert(acc.clone(), prev);
                    let xv = arr
                        .list_get(idx)
                        .ok_or_else(|| format!("invariant element {idx} out of range"))?;
                    env.insert(x.clone(), xv);
                    eval(f, env, tables, world).map_err(|e| format!("invariant fold body: {e}"))?
                }
                LoopInvariantKind::RangeFoldArrayPut { i, acc, f, .. } => {
                    env.insert(i.clone(), Value::Word(*k));
                    env.insert(acc.clone(), prev);
                    eval(f, env, tables, world).map_err(|e| format!("invariant put body: {e}"))?
                }
                LoopInvariantKind::RangeFoldScalar { i, acc, f, .. } => {
                    env.insert(i.clone(), Value::Word(*k));
                    env.insert(acc.clone(), prev);
                    eval(f, env, tables, world).map_err(|e| format!("invariant fold body: {e}"))?
                }
            };
            *k += 1;
        }
        Ok(())
    }

    /// Checks `inv` at a loop head with counter `i`, extending or
    /// restarting its replay.
    fn check_one(
        &mut self,
        slot: usize,
        inv: &LoopInvariant,
        i: u64,
        locals: &dyn LocalsView,
        mem: &Memory,
    ) -> Result<(), String> {
        // Taken out for the check and put back only when it passes: a
        // failed head leaves no half-advanced replay behind.
        let mut r = match self.replays[slot].take() {
            // A fresh replay to `i` would stand at `max(i, lo)`: this one
            // extends to it unless it is already past.
            Some(r) if r.k <= i.max(r.lo) => {
                self.checks += 1;
                if let Some(len) = r.len {
                    counter_within(i, len)?;
                }
                r
            }
            _ => self.start(inv, i)?,
        };
        self.advance(&mut r, &inv.kind, i)?;
        match &inv.kind {
            LoopInvariantKind::ArrayMapInPlace { ptr_local, elem, .. }
            | LoopInvariantKind::RangeFoldArrayPut { ptr_local, elem, .. } => {
                let base =
                    locals.local(ptr_local).ok_or_else(|| format!("no local `{ptr_local}`"))?;
                let got = mem.region(base).ok_or("array region missing at loop head")?;
                let want = r.acc.to_layout_bytes().ok_or("no layout")?;
                if got != want.as_slice() {
                    let term = if matches!(inv.kind, LoopInvariantKind::ArrayMapInPlace { .. }) {
                        format!("map f (first {i} l) ++ skip {i} l")
                    } else {
                        format!("fold_range ({}) {i} put", r.lo)
                    };
                    return Err(format!(
                        "iteration {i}: memory is {got:?}, invariant predicts {term} = {want:?} ({elem})"
                    ));
                }
            }
            LoopInvariantKind::ArrayFoldScalar { acc_local, .. }
            | LoopInvariantKind::RangeFoldScalar { acc_local, .. } => {
                check_scalar_local(locals, acc_local, &r.acc, i)?;
            }
        }
        self.replays[slot] = Some(r);
        Ok(())
    }
}

impl LoopHook for InvariantHook<'_> {
    fn at_loop_head(
        &mut self,
        function: &str,
        cond: &BExpr,
        locals: &dyn LocalsView,
        mem: &Memory,
    ) -> Result<(), String> {
        if function != self.function {
            return Ok(());
        }
        let invariants = self.invariants;
        for (slot, inv) in invariants.iter().enumerate() {
            // Each invariant belongs to one loop: the one whose condition
            // tests its counter.
            if !cond.mentions(&inv.index_local) {
                continue;
            }
            let Some(i) = locals.local(&inv.index_local) else { continue };
            self.check_one(slot, inv, i, locals, mem)?;
        }
        Ok(())
    }
}

/// An `Array*` invariant's counter never passes its array's length.
fn counter_within(i: u64, len: usize) -> Result<(), String> {
    if (i as usize) > len {
        return Err(format!("loop counter {i} exceeds length {len}"));
    }
    Ok(())
}

fn check_scalar_local(
    locals: &dyn LocalsView,
    name: &str,
    want: &Value,
    i: u64,
) -> Result<(), String> {
    let got = locals.local(name).ok_or_else(|| format!("no local `{name}`"))?;
    let want_w = want
        .to_scalar_word()
        .ok_or_else(|| format!("invariant accumulator for `{name}` is not scalar"))?;
    if got != want_w {
        return Err(format!(
            "iteration {i}: local `{name}` is {got:#x}, invariant predicts {want_w:#x}"
        ));
    }
    Ok(())
}

fn put_elem(v: Value, idx: usize, x: &Value) -> Result<Value, String> {
    match (v, x) {
        (Value::ByteList(mut b), Value::Byte(e)) => {
            b[idx] = *e;
            Ok(Value::ByteList(b))
        }
        (Value::WordList(mut w), Value::Word(e)) => {
            w[idx] = *e;
            Ok(Value::WordList(w))
        }
        _ => Err("invariant map body produced wrong element kind".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::{Derivation, DerivationNode};
    use crate::engine::CompiledFunction;
    use crate::fnspec::{ArgSpec, RetSpec};
    use crate::lemma::HintDbs;
    use rupicola_bedrock::{BFunction, Cmd};
    use rupicola_lang::dsl::*;

    /// A hand-built "compiled function" with correct identity behaviour
    /// passes the checker with an empty-lemma derivation.
    fn identity_compiled() -> CompiledFunction {
        let model = Model::new("id", ["s"], var("s"));
        let spec = FnSpec::new(
            "id",
            vec![
                ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
                ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
            ],
            vec![RetSpec::InPlace { param: "s".into() }],
        );
        CompiledFunction {
            function: BFunction::new("id", ["s", "len"], Vec::<String>::new(), Cmd::Skip),
            derivation: Derivation::new(DerivationNode::leaf("done", "s")),
            model,
            spec,
            linked: Vec::new(),
            optimized: None,
            stats: Default::default(),
        }
    }

    #[test]
    fn correct_identity_passes() {
        let report = check(&identity_compiled(), &HintDbs::new()).unwrap();
        assert!(report.vectors_run > 0);
        assert_eq!(report.vectors_skipped, 0);
    }

    #[test]
    fn wrong_code_is_caught() {
        // "id" that zeroes the first byte — differential testing must object.
        let mut cf = identity_compiled();
        cf.function.body = Cmd::if_(
            rupicola_bedrock::BExpr::var("len"),
            Cmd::store(
                rupicola_bedrock::AccessSize::One,
                rupicola_bedrock::BExpr::var("s"),
                rupicola_bedrock::BExpr::lit(0),
            ),
            Cmd::Skip,
        );
        let err = check(&cf, &HintDbs::new()).unwrap_err();
        assert!(matches!(err, CheckError::Mismatch { .. }), "got {err:?}");
    }

    #[test]
    fn oob_code_is_caught() {
        let mut cf = identity_compiled();
        // Unconditional store past the end (faults even on empty arrays).
        cf.function.body = Cmd::store(
            rupicola_bedrock::AccessSize::One,
            rupicola_bedrock::BExpr::op(
                rupicola_bedrock::BinOp::Add,
                rupicola_bedrock::BExpr::var("s"),
                rupicola_bedrock::BExpr::var("len"),
            ),
            rupicola_bedrock::BExpr::lit(0),
        );
        let err = check(&cf, &HintDbs::new()).unwrap_err();
        assert!(matches!(err, CheckError::TargetStuck { .. }), "got {err:?}");
    }

    #[test]
    fn unknown_lemma_is_rejected() {
        let mut cf = identity_compiled();
        cf.derivation = Derivation::new(DerivationNode::leaf("not_a_lemma", "s"));
        let err = check(&cf, &HintDbs::new()).unwrap_err();
        assert_eq!(err, CheckError::UnknownLemma("not_a_lemma".into()));
    }

    #[test]
    fn unsatisfiable_hint_starves_coverage() {
        // Hints are `requires` clauses; one that excludes (almost) every
        // input leaves the checker without evidence and must be rejected.
        let mut cf = identity_compiled();
        cf.spec = cf
            .spec
            .with_hint(crate::goal::Hyp::LtU(array_len_b(var("s")), word_lit(0)));
        let err = check(&cf, &HintDbs::new()).unwrap_err();
        assert!(matches!(err, CheckError::InsufficientCoverage { .. }), "got {err:?}");
    }

    #[test]
    fn unresolvable_side_condition_is_rejected() {
        let mut cf = identity_compiled();
        let mut node = DerivationNode::leaf("done", "s");
        node.side_conds.push(crate::derive::SideCondRecord {
            cond: crate::goal::SideCond::Lt(word_lit(5), word_lit(3)),
            solver: "lia".into(),
            hyps: Vec::new().into(),
        });
        cf.derivation = Derivation::new(node);
        let err = check(&cf, &HintDbs::new()).unwrap_err();
        assert!(matches!(err, CheckError::SideCondition { .. }), "got {err:?}");
    }

    /// The identity body with a stack allocation whose unspecified
    /// contents reach the output: it behaves like the identity under the
    /// first poison only.
    fn poison_dependent_body() -> Cmd {
        use rupicola_bedrock::{AccessSize, BExpr, BinOp};
        let byte = |addr| BExpr::load(AccessSize::One, addr);
        Cmd::StackAlloc {
            var: "tmp".into(),
            nbytes: 8,
            body: Box::new(Cmd::if_(
                BExpr::var("len"),
                Cmd::seq([
                    Cmd::set("x", BExpr::op(BinOp::Xor, byte(BExpr::var("tmp")), BExpr::lit(0xAA))),
                    Cmd::store(
                        AccessSize::One,
                        BExpr::var("s"),
                        BExpr::op(BinOp::Xor, byte(BExpr::var("s")), BExpr::var("x")),
                    ),
                ]),
                Cmd::Skip,
            )),
        }
    }

    /// `check_with` on a function carrying `body`: the reference the
    /// shared certificate must reproduce exactly.
    fn one_shot(cf: &CompiledFunction, body: &Cmd) -> Result<CheckReport, CheckError> {
        let mut fresh = cf.clone();
        fresh.function.body = body.clone();
        check_with(&fresh, &HintDbs::new(), &CheckConfig::default())
    }

    #[test]
    fn one_certificate_checks_many_bodies_like_check_with() {
        let cf = identity_compiled();
        let dbs = HintDbs::new();
        let config = CheckConfig::default();
        let cert = Certificate::new(&cf, &dbs, &config);
        let broken = Cmd::store(
            rupicola_bedrock::AccessSize::One,
            rupicola_bedrock::BExpr::var("s"),
            rupicola_bedrock::BExpr::lit(0),
        );
        let certified = cf.function.body.clone();
        for body in [&certified, &broken, &poison_dependent_body(), &certified] {
            let mut candidate = cf.function.clone();
            candidate.body = body.clone();
            let shared = cert.check_body(&candidate);
            let fresh = one_shot(&cf, body);
            assert_eq!(shared, fresh, "body {body:?}");
            assert_eq!(
                shared.as_ref().map_err(ToString::to_string),
                fresh.as_ref().map_err(ToString::to_string)
            );
        }
        assert!(cert.check_body(&cf.function).is_ok());
    }

    #[test]
    fn a_candidate_stack_allocation_runs_the_second_poison() {
        // The certified body allocates nothing under a deterministic spec,
        // so its check runs one poison; a candidate that adds a stack
        // allocation must still get the pair from the shared certificate.
        let cf = identity_compiled();
        let dbs = HintDbs::new();
        let config = CheckConfig::default();
        let cert = Certificate::new(&cf, &dbs, &config);
        assert!(!cert.check_body(&cf.function).unwrap().poison_pair);

        let mut harmless = cf.function.clone();
        harmless.body = Cmd::StackAlloc { var: "tmp".into(), nbytes: 8, body: Box::new(Cmd::Skip) };
        let report = cert.check_body(&harmless).unwrap();
        assert!(report.poison_pair);
        assert_eq!(Ok(report), one_shot(&cf, &harmless.body));

        // Correct under the first poison, wrong under the second.
        let mut leaky = cf.function.clone();
        leaky.body = poison_dependent_body();
        let err = cert.check_body(&leaky).unwrap_err();
        assert!(matches!(err, CheckError::Mismatch { .. }), "got {err:?}");
        assert_eq!(Err(err), one_shot(&cf, &leaky.body));
    }

    #[test]
    fn trace_unchanged_rejects_interactions() {
        let mut cf = identity_compiled();
        cf.function.body = Cmd::Interact {
            rets: vec![],
            action: "io_write".into(),
            args: vec![rupicola_bedrock::BExpr::lit(1)],
        };
        let err = check(&cf, &HintDbs::new()).unwrap_err();
        assert!(matches!(err, CheckError::Mismatch { .. }), "got {err:?}");
    }

    /// The from-scratch replay the incremental hook replaced, kept as its
    /// reference model: at every head, each invariant's fold is replayed
    /// from its first iteration in a fresh environment and world.
    #[allow(clippy::too_many_arguments)]
    fn from_scratch_at_loop_head(
        invariants: &[LoopInvariant],
        model: &Model,
        values: &[Value],
        externs: &ExternRegistry,
        cond: &BExpr,
        locals: &Locals,
        mem: &Memory,
        checks: &mut usize,
    ) -> Result<(), String> {
        for inv in invariants {
            if !cond.vars().iter().any(|v| v == &inv.index_local) {
                continue;
            }
            let Some(&i) = locals.get(&inv.index_local) else { continue };
            let mut world = World { externs: externs.clone(), ..World::default() };
            let mut env: Env = model.params.iter().cloned().zip(values.iter().cloned()).collect();
            for (name, def) in &inv.bindings {
                let v = eval(def, &mut env, &model.tables, &mut world)
                    .map_err(|e| format!("binding `{name}`: {e}"))?;
                env.insert(name.clone(), v);
            }
            *checks += 1;
            match &inv.kind {
                LoopInvariantKind::ArrayMapInPlace { ptr_local, elem, x, f, arr } => {
                    let arr_val = eval(arr, &mut env, &model.tables, &mut world)
                        .map_err(|e| format!("invariant array term: {e}"))?;
                    let len = arr_val.list_len().ok_or("invariant array term is not a list")?;
                    if (i as usize) > len {
                        return Err(format!("loop counter {i} exceeds length {len}"));
                    }
                    let mut expected = arr_val;
                    for k in 0..i as usize {
                        let xv = expected
                            .list_get(k)
                            .ok_or_else(|| format!("invariant element {k} out of range"))?;
                        env.insert(x.clone(), xv);
                        let fx = eval(f, &mut env, &model.tables, &mut world)
                            .map_err(|e| format!("invariant map body: {e}"))?;
                        expected = put_elem(expected, k, &fx)?;
                    }
                    let base = *locals
                        .get(ptr_local)
                        .ok_or_else(|| format!("no local `{ptr_local}`"))?;
                    let got = mem.region(base).ok_or("array region missing at loop head")?;
                    let want = expected.to_layout_bytes().ok_or("no layout")?;
                    if got != want.as_slice() {
                        return Err(format!(
                            "iteration {i}: memory is {got:?}, invariant predicts map f (first {i} l) ++ skip {i} l = {want:?} ({elem})"
                        ));
                    }
                }
                LoopInvariantKind::ArrayFoldScalar { acc_local, acc, x, f, init, arr, .. } => {
                    let arr_val = eval(arr, &mut env, &model.tables, &mut world)
                        .map_err(|e| format!("invariant array term: {e}"))?;
                    let len = arr_val.list_len().ok_or("invariant array term is not a list")?;
                    if (i as usize) > len {
                        return Err(format!("loop counter {i} exceeds length {len}"));
                    }
                    let mut accv = eval(init, &mut env, &model.tables, &mut world)
                        .map_err(|e| format!("invariant init: {e}"))?;
                    for k in 0..i as usize {
                        env.insert(acc.clone(), accv);
                        let xv = arr_val
                            .list_get(k)
                            .ok_or_else(|| format!("invariant element {k} out of range"))?;
                        env.insert(x.clone(), xv);
                        accv = eval(f, &mut env, &model.tables, &mut world)
                            .map_err(|e| format!("invariant fold body: {e}"))?;
                    }
                    check_scalar_local(locals, acc_local, &accv, i)?;
                }
                LoopInvariantKind::RangeFoldArrayPut { ptr_local, elem, i: iv, acc, f, init, from } => {
                    let lo = eval(from, &mut env, &model.tables, &mut world)
                        .ok()
                        .and_then(|v| v.to_scalar_word())
                        .ok_or("invariant `from` term not scalar")?;
                    let mut expected = eval(init, &mut env, &model.tables, &mut world)
                        .map_err(|e| format!("invariant init: {e}"))?;
                    let mut k = lo;
                    while k < i {
                        env.insert(iv.clone(), Value::Word(k));
                        env.insert(acc.clone(), expected);
                        expected = eval(f, &mut env, &model.tables, &mut world)
                            .map_err(|e| format!("invariant put body: {e}"))?;
                        k += 1;
                    }
                    let base = *locals
                        .get(ptr_local)
                        .ok_or_else(|| format!("no local `{ptr_local}`"))?;
                    let got = mem.region(base).ok_or("array region missing at loop head")?;
                    let want = expected.to_layout_bytes().ok_or("no layout")?;
                    if got != want.as_slice() {
                        return Err(format!(
                            "iteration {i}: memory is {got:?}, invariant predicts fold_range ({lo}) {i} put = {want:?} ({elem})"
                        ));
                    }
                }
                LoopInvariantKind::RangeFoldScalar { acc_local, i: iv, acc, f, init, from } => {
                    let lo = eval(from, &mut env, &model.tables, &mut world)
                        .ok()
                        .and_then(|v| v.to_scalar_word())
                        .ok_or("invariant `from` term not scalar")?;
                    let mut accv = eval(init, &mut env, &model.tables, &mut world)
                        .map_err(|e| format!("invariant init: {e}"))?;
                    let mut k = lo;
                    while k < i {
                        env.insert(iv.clone(), Value::Word(k));
                        env.insert(acc.clone(), accv);
                        accv = eval(f, &mut env, &model.tables, &mut world)
                            .map_err(|e| format!("invariant fold body: {e}"))?;
                        k += 1;
                    }
                    check_scalar_local(locals, acc_local, &accv, i)?;
                }
            }
        }
        Ok(())
    }

    /// One invariant of each kind over the model parameters `s` (bytes)
    /// and `n` (a word), each with its own counter: `i`, `j`, `c`, `d`.
    fn one_invariant_per_kind() -> (Model, Vec<LoopInvariant>) {
        let model = Model::new("kinds", ["s", "n"], var("s"));
        let invariants = vec![
            LoopInvariant {
                index_local: "i".into(),
                bindings: vec![("t".into(), var("s"))],
                kind: LoopInvariantKind::ArrayMapInPlace {
                    ptr_local: "p".into(),
                    elem: ElemKind::Byte,
                    x: "b".into(),
                    f: byte_add(var("b"), byte_lit(1)),
                    arr: var("t"),
                },
            },
            LoopInvariant {
                index_local: "j".into(),
                bindings: vec![],
                kind: LoopInvariantKind::ArrayFoldScalar {
                    acc_local: "h".into(),
                    elem: ElemKind::Byte,
                    acc: "a".into(),
                    x: "b".into(),
                    f: word_add(word_mul(var("a"), word_lit(31)), word_of_byte(var("b"))),
                    init: word_lit(7),
                    arr: var("s"),
                },
            },
            LoopInvariant {
                index_local: "c".into(),
                bindings: vec![],
                kind: LoopInvariantKind::RangeFoldArrayPut {
                    ptr_local: "q".into(),
                    elem: ElemKind::Byte,
                    i: "m".into(),
                    acc: "arr".into(),
                    f: array_put_b(var("arr"), var("m"), byte_of_word(var("m"))),
                    init: var("s"),
                    from: word_lit(2),
                },
            },
            LoopInvariant {
                index_local: "d".into(),
                bindings: vec![],
                kind: LoopInvariantKind::RangeFoldScalar {
                    acc_local: "r".into(),
                    i: "m".into(),
                    acc: "a".into(),
                    f: word_add(var("a"), word_mul(var("m"), var("m"))),
                    init: var("n"),
                    from: word_lit(3),
                },
            },
        ];
        (model, invariants)
    }

    /// What a correct loop holds at counter `k` for each invariant of
    /// [`one_invariant_per_kind`]: the mapped prefix, the fold, the
    /// scattered array (past the array's end the replay fails anyway), the
    /// sum of squares.
    fn correct_state(s: &[u8], n: u64, k: [u64; 4]) -> (Vec<u8>, u64, Vec<u8>, u64) {
        let mapped = s
            .iter()
            .enumerate()
            .map(|(idx, &b)| if (idx as u64) < k[0] { b.wrapping_add(1) } else { b })
            .collect();
        let fold = s[..(k[1] as usize).min(s.len())]
            .iter()
            .fold(7u64, |a, &b| a.wrapping_mul(31).wrapping_add(u64::from(b)));
        let mut scattered = s.to_vec();
        for m in 2..k[2] {
            if let Some(slot) = scattered.get_mut(m as usize) {
                *slot = m as u8;
            }
        }
        let sum = (3..k[3].max(3)).fold(n, |a, m| a.wrapping_add(m * m));
        (mapped, fold, scattered, sum)
    }

    #[test]
    fn incremental_replay_matches_the_from_scratch_reference() {
        let (model, invariants) = one_invariant_per_kind();
        let externs = ExternRegistry::new();
        let counters = ["i", "j", "c", "d"];
        // Per kind, heads that passed and heads that failed while that
        // invariant's loop was the one checked.
        let mut seen = [[0usize; 2]; 4];
        for case in 0..300u64 {
            let mut seed = splitmix(case + 1);
            let mut next = move |n: u64| {
                seed = splitmix(seed);
                seed % n.max(1)
            };
            let s: Vec<u8> = (0..next(11)).map(|_| next(256) as u8).collect();
            let n = next(1 << 20);
            let values = [Value::ByteList(s.clone()), Value::Word(n)];
            let mut hook = InvariantHook::new("f", &invariants, &model, &values, &externs);
            let mut ref_checks = 0;
            let mut k = [0u64; 4];
            for _ in 0..40 {
                // Each counter stays, steps by one, jumps ahead, restarts
                // at 0, or lands anywhere (past the array's end included).
                for c in &mut k {
                    *c = match next(8) {
                        0 | 1 => *c,
                        2..=4 => *c + 1,
                        5 => *c + 1 + next(4),
                        6 => 0,
                        _ => next(s.len() as u64 + 4),
                    };
                }
                let tested: Vec<usize> = (0..4).filter(|_| next(3) != 0).collect();
                let cond = tested.iter().fold(BExpr::var("len"), |e, &t| {
                    BExpr::op(rupicola_bedrock::BinOp::LtU, BExpr::var(counters[t]), e)
                });
                let (mut mapped, mut fold, mut scattered, mut sum) = correct_state(&s, n, k);
                // Occasionally a wrong value, to exercise every failure.
                match next(10) {
                    0 if !mapped.is_empty() => mapped[0] ^= 1,
                    1 => fold ^= 1,
                    2 if !scattered.is_empty() => scattered[0] ^= 1,
                    3 => sum ^= 1,
                    _ => {}
                }
                let mut mem = Memory::new();
                let mut locals = Locals::new();
                locals.insert("p".into(), mem.alloc(mapped));
                locals.insert("q".into(), mem.alloc(scattered));
                locals.insert("h".into(), fold);
                locals.insert("r".into(), sum);
                for (t, name) in counters.iter().enumerate() {
                    locals.insert((*name).into(), k[t]);
                }
                match next(12) {
                    0 => drop(locals.remove(counters[next(4) as usize])),
                    1 => drop(locals.remove(["p", "q", "h", "r"][next(4) as usize])),
                    2 => drop(locals.insert("p".into(), 8)),
                    _ => {}
                }

                let got = hook.at_loop_head("f", &cond, &locals, &mem);
                let want = from_scratch_at_loop_head(
                    &invariants,
                    &model,
                    &values,
                    &externs,
                    &cond,
                    &locals,
                    &mem,
                    &mut ref_checks,
                );
                assert_eq!(got, want, "case {case}, counters {k:?}, cond {cond:?}");
                assert_eq!(hook.checks, ref_checks, "case {case}");
                if let [t] = tested[..] {
                    seen[t][usize::from(got.is_err())] += 1;
                }
            }
        }
        for (kind, [ok, err]) in seen.iter().enumerate() {
            assert!(*ok > 0 && *err > 0, "invariant {kind}: {ok} passing, {err} failing heads");
        }
    }

    /// A loop folding `h := h * 31 + s[i]` over `s`, with the invariant
    /// the engine would infer for it.
    fn fold_loop() -> (Cmd, LoopInvariant) {
        use rupicola_bedrock::{AccessSize, BinOp};
        let loop_ = Cmd::seq([
            Cmd::set("i", BExpr::lit(0)),
            Cmd::set("h", BExpr::lit(7)),
            Cmd::while_(
                BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("len")),
                Cmd::seq([
                    Cmd::set(
                        "h",
                        BExpr::op(
                            BinOp::Add,
                            BExpr::op(BinOp::Mul, BExpr::var("h"), BExpr::lit(31)),
                            BExpr::load(
                                AccessSize::One,
                                BExpr::op(BinOp::Add, BExpr::var("s"), BExpr::var("i")),
                            ),
                        ),
                    ),
                    Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1))),
                ]),
            ),
        ]);
        let (_, invariants) = one_invariant_per_kind();
        let mut inv = invariants[1].clone();
        inv.index_local = "i".into();
        (loop_, inv)
    }

    #[test]
    fn the_replay_costs_one_fold_step_per_iteration() {
        let (loop_, inv) = fold_loop();
        let model = Model::new("fold", ["s", "n"], var("s"));
        let s: Vec<u8> = (0..32u8).map(|b| b.wrapping_mul(37)).collect();
        let values = [Value::ByteList(s.clone()), Value::Word(0)];
        let externs = ExternRegistry::new();
        let invariants = [inv];
        // One run of `body`: its loop-head checks and fold-body evaluations.
        let run = |body: Cmd| {
            let f = BFunction::new("fold", ["s", "len"], ["h"], body);
            let mut mem = Memory::new();
            let base = mem.alloc(s.clone());
            let mut state = ExecState::new(mem);
            let mut hook = InvariantHook::new("fold", &invariants, &model, &values, &externs);
            interpreter_for(&f, &[])
                .call_with_hook("fold", &[base, 32], &mut state, &mut NoExternals, 1 << 20, &mut hook)
                .unwrap();
            (hook.checks, hook.steps)
        };
        // 33 heads, one fold step per iteration: 32, where replaying from
        // scratch at every head costs 0 + 1 + … + 32 = 528.
        assert_eq!(run(loop_.clone()), (33, 32));
        // A second pass restarts the counter: one more replay, no more.
        assert_eq!(run(Cmd::seq([loop_.clone(), loop_])), (66, 64));
    }

    #[test]
    fn a_linked_callee_loop_is_not_the_body_loop() {
        use rupicola_bedrock::BinOp;
        // The identity with a counting loop over `i` whose invariant the
        // derivation records, then a call to a linked callee that loops
        // over a local of the same name (and has no `acc`).
        let mut cf = identity_compiled();
        let mut node = DerivationNode::leaf("done", "s");
        node.invariant = Some(LoopInvariant {
            index_local: "i".into(),
            bindings: vec![],
            kind: LoopInvariantKind::RangeFoldScalar {
                acc_local: "acc".into(),
                i: "m".into(),
                acc: "a".into(),
                f: word_add(var("a"), word_lit(1)),
                init: word_lit(0),
                from: word_lit(0),
            },
        });
        cf.derivation = Derivation::new(node);
        let step = |v: &str| Cmd::set(v, BExpr::op(BinOp::Add, BExpr::var(v), BExpr::lit(1)));
        let count = Cmd::seq([
            Cmd::set("i", BExpr::lit(0)),
            Cmd::set("acc", BExpr::lit(0)),
            Cmd::while_(
                BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("len")),
                Cmd::seq([step("acc"), step("i")]),
            ),
        ]);
        cf.function.body = count.clone();
        let alone = check(&cf, &HintDbs::new()).unwrap();
        assert!(alone.invariant_checks > 0);

        cf.linked = vec![BFunction::new(
            "spin",
            ["n"],
            Vec::<String>::new(),
            Cmd::seq([
                Cmd::set("i", BExpr::lit(0)),
                Cmd::while_(BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::lit(3)), step("i")),
            ]),
        )];
        cf.function.body = Cmd::seq([
            count,
            Cmd::Call { rets: vec![], func: "spin".into(), args: vec![BExpr::var("len")] },
        ]);
        let linked = check(&cf, &HintDbs::new()).unwrap();
        assert_eq!(linked.invariant_checks, alone.invariant_checks);
    }
}
