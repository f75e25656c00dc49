//! Derivation-blind static analysis of generated Bedrock2 code.
//!
//! The compiler's trust story (paper §3, §4.3) is: untrusted lemmas
//! propose, a small trusted checker re-validates the derivation witness.
//! This crate adds an *independent* second line of defense in the style of
//! translation validation: a CFG + worklist dataflow framework over
//! [`rupicola_bedrock::cfg`] and lint passes that inspect the generated
//! code directly, never reading the derivation —
//!
//! - [`assign`]: definite assignment (no use-before-def, returns assigned);
//! - [`live`]: liveness and dead-store detection;
//! - [`interval`]: interval analysis with symbolic array-length bounds,
//!   cross-checking every memory access against the separation-logic
//!   footprint exported from the certificate, plus inline-table bounds
//!   and alignment;
//! - [`loopcheck`]: loop progress (a monotone counter against a
//!   loop-invariant bound);
//! - [`certcheck`]: certificate internal consistency (witness counters,
//!   ABI, table bytes, cited lemmas);
//! - [`lemma_lint`]: hint-database hygiene (duplicate, shadowed,
//!   unreachable lemmas; redundant solvers).
//!
//! Nothing here is trusted: a finding is a report, and the analyses are
//! deliberately conservative (they may warn about code the checker proves
//! fine, never the reverse direction — clean code that faults). The
//! soundness direction is exercised by a property test in the workspace
//! root: programs that pass the lints clean do not fault in the Bedrock2
//! interpreter on fuzzed inputs.

#![forbid(unsafe_code)]

pub mod assign;
pub mod certcheck;
pub mod ct;
pub mod dataflow;
pub mod facts;
pub mod interval;
pub mod lemma_lint;
pub mod live;
pub mod loopcheck;

use rupicola_core::fnspec::FnSpec;
use rupicola_core::lemma::HintDbs;
use rupicola_core::{CompileError, CompiledFunction, EngineLimits};
use rupicola_lang::Model;
use std::fmt;

pub use ct::SecrecyPolicy;
pub use facts::{dead_store_sites, expr_range, finite_upper_bound, removal_safe};
pub use interval::{AbsVal, Bound, MemEnv, Range, RegionInfo, SizeInfo};
pub use lemma_lint::ProbeSuite;

/// Which lint produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Definite assignment.
    Assign,
    /// Liveness / dead stores.
    Liveness,
    /// Footprint memory safety.
    MemSafety,
    /// Inline-table bounds.
    TableBounds,
    /// Loop progress.
    LoopProgress,
    /// Certificate cross-checking.
    CertCheck,
    /// Lemma-library hygiene.
    LemmaLint,
    /// Secret-independence (constant-time).
    Ct,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Pass::Assign => "assign",
            Pass::Liveness => "liveness",
            Pass::MemSafety => "mem",
            Pass::TableBounds => "table",
            Pass::LoopProgress => "loop",
            Pass::CertCheck => "cert",
            Pass::LemmaLint => "lemma",
            Pass::Ct => "ct",
        };
        write!(f, "{s}")
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not a safety violation.
    Warning,
    /// A property the certified pipeline promises is violated (or cannot
    /// be independently re-proven).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// What a finding is about.
#[derive(Debug, Clone, PartialEq)]
pub enum FindingKind {
    /// A local may be read before any assignment.
    UseBeforeDef {
        /// The local.
        var: String,
    },
    /// A returned local is not assigned on every path.
    MissingReturn {
        /// The local.
        var: String,
    },
    /// An assignment whose value is never read (and whose removal is
    /// observationally safe).
    DeadStore {
        /// The local.
        var: String,
    },
    /// A memory access provably outside its region.
    OutOfFootprint,
    /// A memory access that cannot be proven inside the footprint.
    UnprovenAccess,
    /// A multi-byte access at an offset not provably aligned.
    Misaligned,
    /// An access through a pointer whose stack allocation scope ended.
    StackScopeEscape,
    /// An inline-table read not provably inside the table.
    TableOutOfBounds {
        /// The table.
        table: String,
    },
    /// An inline-table read from an undeclared table.
    UnknownTable {
        /// The table.
        table: String,
    },
    /// A loop with no evident progress argument.
    LoopNoProgress,
    /// A certificate whose parts disagree with each other.
    CertMismatch,
    /// A derivation citing a lemma absent from the databases.
    UnknownLemma {
        /// The lemma.
        lemma: String,
    },
    /// Two registered lemmas (or solvers) share a name.
    DuplicateLemma {
        /// The name.
        lemma: String,
    },
    /// A lemma that always loses the ordered race to an earlier one.
    ShadowedLemma {
        /// The lemma.
        lemma: String,
    },
    /// A lemma unreachable for the probed goal corpus.
    UnreachableLemma {
        /// The lemma.
        lemma: String,
    },
    /// A solver whose corpus discharges are all covered by earlier ones.
    RedundantSolver {
        /// The solver.
        solver: String,
    },
    /// A branch or loop condition that may depend on a secret.
    SecretBranch,
    /// A memory address (load, store, or table index) that may depend on
    /// a secret.
    SecretAddress,
    /// A variable-latency operation (`div`/`mod`) with a possibly-secret
    /// operand.
    SecretVariableLatency,
}

impl FindingKind {
    /// The severity policy: violations of promised properties are errors,
    /// hygiene and style are warnings.
    pub fn severity(&self) -> Severity {
        match self {
            FindingKind::UseBeforeDef { .. }
            | FindingKind::MissingReturn { .. }
            | FindingKind::OutOfFootprint
            | FindingKind::UnprovenAccess
            | FindingKind::StackScopeEscape
            | FindingKind::TableOutOfBounds { .. }
            | FindingKind::UnknownTable { .. }
            | FindingKind::LoopNoProgress
            | FindingKind::CertMismatch
            | FindingKind::UnknownLemma { .. }
            | FindingKind::DuplicateLemma { .. }
            | FindingKind::SecretBranch
            | FindingKind::SecretAddress
            | FindingKind::SecretVariableLatency => Severity::Error,
            FindingKind::DeadStore { .. }
            | FindingKind::Misaligned
            | FindingKind::ShadowedLemma { .. }
            | FindingKind::UnreachableLemma { .. }
            | FindingKind::RedundantSolver { .. } => Severity::Warning,
        }
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The pass that produced it.
    pub pass: Pass,
    /// What it is about.
    pub kind: FindingKind,
    /// The function (or `"(library)"` for lemma lints).
    pub function: String,
    /// For dead stores: the assignment-site ordinal, compatible with
    /// [`rupicola_bedrock::cfg::remove_set_sites`].
    pub site: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// The finding's severity (derived from its kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}: {}",
            self.severity(),
            self.pass,
            self.function,
            self.message
        )
    }
}

/// The outcome of analyzing one compiled function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// All findings, in pass order.
    pub findings: Vec<Finding>,
}

impl AnalysisReport {
    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity() == Severity::Error)
    }

    /// The error findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity() == Severity::Error)
    }

    /// The warning findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity() == Severity::Warning)
    }

    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return write!(f, "clean");
        }
        for (i, finding) in self.findings.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{finding}")?;
        }
        Ok(())
    }
}

/// The certificate phase of the lint suite: the certificate cross-checks
/// that never read the body and the memory environment derived from the
/// spec. [`LintCertificate::analyze`] runs the body-dependent checks and
/// the code passes against it, so many bodies can be linted against one
/// certificate. It owns everything it computed and is `Send + Sync`, so
/// it can outlive the request that built it.
#[derive(Debug)]
pub struct LintCertificate {
    witness: certcheck::WitnessFindings,
    env: MemEnv,
}

// A lint certificate may be shared between threads.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<LintCertificate>();
};

impl LintCertificate {
    /// Runs the certificate phase for `cf`. Pass `dbs` to also verify
    /// cited lemmas exist.
    pub fn new(cf: &CompiledFunction, dbs: Option<&HintDbs>) -> Self {
        let goal = cf.initial_goal();
        let witness = certcheck::WitnessFindings::new(cf, goal.as_ref().err(), dbs);
        let env = match &goal {
            Ok(goal) => MemEnv::from_goal(goal),
            // Already reported as a certificate mismatch; code passes still
            // run, with an empty footprint.
            Err(_) => MemEnv::default(),
        };
        LintCertificate { witness, env }
    }

    /// The body phase: every finding for `body` as the implementation of
    /// the certified function, in pass order.
    pub fn analyze(&self, body: &rupicola_bedrock::BFunction) -> AnalysisReport {
        let mut findings = self.witness.with_body(body);
        findings.extend(run_code_passes(body, &self.env));
        AnalysisReport { findings }
    }
}

/// Analyzes a compilation certificate: all code passes plus certificate
/// cross-checking. Pass `dbs` to also verify cited lemmas exist.
pub fn analyze_with_dbs(cf: &CompiledFunction, dbs: Option<&HintDbs>) -> AnalysisReport {
    LintCertificate::new(cf, dbs).analyze(&cf.function)
}

/// [`analyze_with_dbs`] without the database-dependent checks.
pub fn analyze(cf: &CompiledFunction) -> AnalysisReport {
    analyze_with_dbs(cf, None)
}

/// The footprint regions of `cf`'s spec as the Rust printer takes them
/// ([`rsprint::function_to_rust`](rupicola_bedrock::rsprint::function_to_rust)):
/// every region whose base is an argument and whose size is fixed or an
/// element count bound to an argument, in heap order. Empty when the
/// certificate's spec does not match its model. The same list serves the
/// certified and the optimized body, which share the spec.
pub fn rust_regions(cf: &CompiledFunction) -> Vec<rupicola_bedrock::rsprint::Region> {
    use rupicola_bedrock::rsprint::{Extent, Region};
    let Ok(goal) = cf.initial_goal() else { return Vec::new() };
    let env = MemEnv::from_goal(&goal);
    let mut out = Vec::new();
    for (i, r) in env.regions.iter().enumerate() {
        let base = env.entry.iter().find_map(|(name, v)| match v {
            AbsVal::Ptr { region, off } if *region == i && *off == Range::exact(0) => Some(name),
            _ => None,
        });
        let Some(base) = base else { continue };
        // `from_goal` gives the local bound to a region's count term
        // exactly this range's upper bound.
        let count = env.entry.iter().find_map(|(name, v)| match v {
            AbsVal::Num(Range { hi: Bound::Sym { region, scale: 1, shift: 0, delta: 0 }, .. })
                if *region == i =>
            {
                Some(name)
            }
            _ => None,
        });
        let extent = match (r.size, count) {
            (SizeInfo::Fixed(n), _) => Extent::Bytes(n),
            (SizeInfo::Sym { .. }, Some(count)) => {
                Extent::Elems { elem_bytes: r.elem_bytes, count: count.clone() }
            }
            (SizeInfo::Sym { .. }, None) => continue,
        };
        out.push(Region { base: base.clone(), extent });
    }
    out
}

/// Runs the code-only passes over one function under an explicit memory
/// environment (used directly by tests on hand-written programs).
pub fn run_code_passes(f: &rupicola_bedrock::BFunction, env: &MemEnv) -> Vec<Finding> {
    let mut findings = assign::run(f);
    findings.extend(live::run(f));
    findings.extend(interval::run(f, env));
    findings.extend(loopcheck::run(f));
    findings
}

/// Options for the analyzing compile entry point.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Engine resource budgets.
    pub limits: EngineLimits,
    /// Run the static-analysis layer after certification and fail on
    /// analysis errors.
    pub analyze: bool,
    /// When set, also run the secret-independence analysis under this
    /// policy and fail on constant-time findings (which are always
    /// errors). Runs regardless of `analyze`.
    pub ct_policy: Option<SecrecyPolicy>,
}

/// Why an analyzing compilation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The relational compilation itself failed.
    Compile(CompileError),
    /// Compilation succeeded, but the static-analysis layer found errors.
    /// Carries the full report (warnings included) for context.
    Analysis(AnalysisReport),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Compile(e) => write!(f, "{e}"),
            PipelineError::Analysis(report) => {
                writeln!(f, "static analysis rejected the generated code:")?;
                write!(f, "{report}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> Self {
        PipelineError::Compile(e)
    }
}

/// Compiles a model and, when [`CompileOptions::analyze`] is set, runs the
/// static-analysis layer over the result, failing on analysis errors —
/// the opt-in hardened pipeline.
///
/// # Errors
///
/// [`PipelineError::Compile`] if relational compilation fails;
/// [`PipelineError::Analysis`] if the generated code or certificate does
/// not independently re-verify.
pub fn compile(
    model: &Model,
    spec: &FnSpec,
    dbs: &HintDbs,
    opts: &CompileOptions,
) -> Result<CompiledFunction, PipelineError> {
    let cf = rupicola_core::compile_with_limits(model, spec, dbs, opts.limits)?;
    let mut report =
        if opts.analyze { analyze_with_dbs(&cf, Some(dbs)) } else { AnalysisReport::default() };
    if let Some(policy) = &opts.ct_policy {
        report.findings.extend(ct::run(&cf, policy));
    }
    if report.has_errors() {
        return Err(PipelineError::Analysis(report));
    }
    Ok(cf)
}
