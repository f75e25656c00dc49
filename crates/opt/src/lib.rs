//! Translation-validated optimization pipeline for certified Bedrock2 code.
//!
//! The relational compiler in `rupicola-core` emits straightforwardly
//! correct code — one statement per consumed lemma — and proves it against
//! the functional model. This crate adds a *staged pass manager* that
//! rewrites that certified output for speed without ever joining the
//! trusted base: every pass is untrusted, and after each one the candidate
//! body is re-validated against the **original** certificate by three
//! independent layers (CompCert-style translation validation):
//!
//! 1. the trusted checker's body phase
//!    ([`rupicola_core::check::Certificate::check_body`]) — the witness's
//!    structural result and the model-vs-code differential on the
//!    certificate's vectors;
//! 2. the derivation-blind lint suite re-audits the candidate
//!    ([`rupicola_analysis::LintCertificate::analyze`]);
//! 3. the Bedrock2 interpreter differential-tests the candidate against
//!    the certified body's reference runs on the checker's concretized
//!    inputs, comparing return values, heap, trace, and final locals;
//! 4. when the pipeline carries a [`SecrecyPolicy`], the
//!    secret-independence analysis ([`rupicola_analysis::ct`]) re-runs on
//!    the candidate: a pass that turns a CT-clean body into one with a
//!    secret-dependent branch, address, or variable-latency operand is
//!    rolled back even though it is functionally correct.
//!
//! The layers read one checker certificate and one lint certificate,
//! built once per function on its first candidate ([`validate`]).
//!
//! A pass whose output fails any layer is **rolled back** — its
//! [`PassReport`] records a typed [`OptError`], the pipeline continues
//! from the last validated body, and nothing ever panics. The certified
//! [`CompiledFunction::function`] is never replaced; the optimized body
//! lands in [`CompiledFunction::optimized`] and consumers opt in
//! explicitly.
//!
//! The passes (in default order) are deliberately boring — the interesting
//! part is that none of them has to be correct:
//!
//! - [`passes::constfold`]: constant folding and algebraic identities;
//! - [`passes::copyprop`]: copy/constant propagation plus single-use
//!   adjacent forward substitution (the big statement-count win on
//!   accumulator loops);
//! - [`passes::deadstore`]: dead-store elimination driven by the liveness
//!   lint's own facts ([`rupicola_analysis::dead_store_sites`]);
//! - [`passes::strength`]: strength reduction and interval-informed
//!   redundant-mask/remainder removal ([`rupicola_analysis::expr_range`]);
//! - [`passes::loadcse`]: common-subexpression elimination for repeated
//!   memory reads (the big win on multi-byte decoders).
//!
//! [`CompiledFunction::function`]: rupicola_core::CompiledFunction
//! [`CompiledFunction::optimized`]: rupicola_core::CompiledFunction

#![forbid(unsafe_code)]

pub mod mutants;
pub mod passes;
mod validate;

use rupicola_bedrock::BFunction;
use rupicola_core::check::{Certificate, CheckConfig};
use rupicola_core::lemma::HintDbs;
use rupicola_core::CompiledFunction;
use std::cell::OnceCell;
use std::fmt;

pub use validate::{validate, validate_candidate_with_policy, CtBaseline};

use rupicola_analysis::{LintCertificate, SecrecyPolicy};

/// Reserved prefix for temporaries introduced by optimization passes.
/// The interpreter-differential validator uses it to tell pass-introduced
/// locals from originals; fresh-name generation additionally consults
/// [`rupicola_bedrock::rewrite::all_names`] so clashes are impossible.
pub const TEMP_PREFIX: &str = "_cse";

/// Identifies one optimization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassId {
    /// Constant folding + algebraic simplification.
    ConstFold,
    /// Copy propagation + single-use forward substitution.
    CopyProp,
    /// Dead-store elimination (liveness-fact driven).
    DeadStore,
    /// Strength reduction + interval-informed peepholes.
    StrengthReduce,
    /// Repeated-load / common-subexpression elimination.
    LoadCse,
}

impl PassId {
    /// Every pass, in the default pipeline order.
    pub const ALL: [PassId; 5] = [
        PassId::ConstFold,
        PassId::CopyProp,
        PassId::DeadStore,
        PassId::StrengthReduce,
        PassId::LoadCse,
    ];

    /// Stable kebab-case name (used in fingerprints and reports).
    pub fn name(self) -> &'static str {
        match self {
            PassId::ConstFold => "const-fold",
            PassId::CopyProp => "copy-prop",
            PassId::DeadStore => "dead-store",
            PassId::StrengthReduce => "strength-reduce",
            PassId::LoadCse => "load-cse",
        }
    }
}

impl fmt::Display for PassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An ordered, configurable pass pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PipelineConfig {
    /// Passes to run, in order. May repeat.
    pub passes: Vec<PassId>,
    /// The secret-independence policy candidates are validated under
    /// (layer 4). `None` disables the layer. The policy is *not* part of
    /// [`PipelineConfig::identity_string`] — the service fingerprints it
    /// separately via `SecrecyPolicy::identity_string`, since it gates
    /// artifacts on every route, not just the optimizing one.
    pub ct_policy: Option<SecrecyPolicy>,
}

impl PipelineConfig {
    /// The full default pipeline.
    pub fn full() -> Self {
        PipelineConfig { passes: PassId::ALL.to_vec(), ..Default::default() }
    }

    /// Attaches a CT policy (validation layer 4) to this pipeline.
    #[must_use]
    pub fn with_ct_policy(mut self, policy: SecrecyPolicy) -> Self {
        self.ct_policy = Some(policy);
        self
    }

    /// The empty pipeline (optimization disabled).
    pub fn none() -> Self {
        PipelineConfig::default()
    }

    /// A canonical identity string for cache fingerprints: the ordered
    /// pass names joined with `,`, or `none` for the empty pipeline. Two
    /// configs with equal identity strings produce identical pipelines.
    pub fn identity_string(&self) -> String {
        if self.passes.is_empty() {
            "none".to_string()
        } else {
            self.passes.iter().map(|p| p.name()).collect::<Vec<_>>().join(",")
        }
    }
}

/// Why a pass was rolled back. Every variant is a *recovered* failure: the
/// pipeline keeps the last validated body and continues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptError {
    /// The trusted checker rejected the candidate against the original
    /// certificate.
    CheckFailed {
        /// Checker error rendering.
        detail: String,
    },
    /// The static-analysis lint suite found errors in the candidate.
    LintFailed {
        /// Joined lint errors.
        detail: String,
    },
    /// The interpreter differential found an observable divergence from
    /// the pre-pass body (or the candidate stopped terminating).
    InterpDiverged {
        /// Input and mismatch description.
        detail: String,
    },
    /// The candidate regressed the secret-independence (constant-time)
    /// analysis: the pre-pass body was CT-clean under the pipeline's
    /// policy but the candidate is not.
    CtRegressed {
        /// The CT findings the candidate introduced.
        detail: String,
    },
    /// The pass infrastructure itself misbehaved (e.g. a pass panicked).
    Internal {
        /// What happened.
        detail: String,
    },
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::CheckFailed { detail } => write!(f, "checker rejected candidate: {detail}"),
            OptError::LintFailed { detail } => write!(f, "lint suite rejected candidate: {detail}"),
            OptError::InterpDiverged { detail } => {
                write!(f, "interpreter differential diverged: {detail}")
            }
            OptError::CtRegressed { detail } => {
                write!(f, "constant-time analysis regressed: {detail}")
            }
            OptError::Internal { detail } => write!(f, "internal pass failure: {detail}"),
        }
    }
}

impl std::error::Error for OptError {}

/// What one pass did (or failed to do) to one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassReport {
    /// Which pass.
    pub pass: PassId,
    /// Rewrite sites the pass touched in its candidate (0 means the pass
    /// found nothing to do and was skipped without validation).
    pub sites_rewritten: usize,
    /// Analysis facts the pass consumed (dead-store sites, interval
    /// bounds) — the paper's "facts consumed" accounting.
    pub facts_consumed: usize,
    /// Whether the candidate survived validation and was kept.
    pub applied: bool,
    /// The validation failure, when the candidate was discarded.
    pub rolled_back: Option<OptError>,
}

/// The whole pipeline's outcome for one function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PipelineReport {
    /// Per-pass reports, in execution order.
    pub passes: Vec<PassReport>,
}

impl PipelineReport {
    /// Passes that rewrote something and survived validation.
    pub fn applied_count(&self) -> usize {
        self.passes.iter().filter(|p| p.applied).count()
    }

    /// Passes whose candidate was discarded.
    pub fn rolled_back_count(&self) -> usize {
        self.passes.iter().filter(|p| p.rolled_back.is_some()).count()
    }

    /// Total rewrite sites across applied passes.
    pub fn sites_rewritten(&self) -> usize {
        self.passes.iter().filter(|p| p.applied).map(|p| p.sites_rewritten).sum()
    }

    /// Total analysis facts consumed by applied passes.
    pub fn facts_consumed(&self) -> usize {
        self.passes.iter().filter(|p| p.applied).map(|p| p.facts_consumed).sum()
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            let status = if p.applied {
                "applied"
            } else if p.rolled_back.is_some() {
                "rolled back"
            } else {
                "no-op"
            };
            write!(
                f,
                "{}: {status} ({} site(s), {} fact(s))",
                p.pass, p.sites_rewritten, p.facts_consumed
            )?;
            if let Some(err) = &p.rolled_back {
                write!(f, " — {err}")?;
            }
        }
        Ok(())
    }
}

/// What a single pass produced, before validation.
#[derive(Debug, Clone)]
pub struct PassOutcome {
    /// The rewritten function.
    pub function: BFunction,
    /// Rewrite sites touched.
    pub sites_rewritten: usize,
    /// Analysis facts consumed.
    pub facts_consumed: usize,
}

/// Runs one pass over one function, with no validation. Exposed so the
/// fault-injection matrix and tests can exercise passes in isolation.
pub fn run_pass(pass: PassId, f: &BFunction) -> PassOutcome {
    match pass {
        PassId::ConstFold => passes::constfold::run(f),
        PassId::CopyProp => passes::copyprop::run(f),
        PassId::DeadStore => passes::deadstore::run(f),
        PassId::StrengthReduce => passes::strength::run(f),
        PassId::LoadCse => passes::loadcse::run(f),
    }
}

/// Runs the pipeline over a certified function, translation-validating
/// after every pass and rolling back any pass that fails.
///
/// On return, `cf.optimized` holds the final validated body when at least
/// one pass applied (`None` otherwise), and the `opt_*` counters in
/// `cf.stats` summarize the run. `cf.function` — the certified body — is
/// never modified.
pub fn optimize_compiled(
    cf: &mut CompiledFunction,
    dbs: &HintDbs,
    pipeline: &PipelineConfig,
    config: &CheckConfig,
) -> PipelineReport {
    let mut current = cf.function.clone();
    let mut report = PipelineReport::default();
    // Every candidate is validated against the same certificates and CT
    // baseline, built on the first candidate: a program no pass rewrites
    // builds none.
    let certified: &CompiledFunction = cf;
    let certs = OnceCell::new();

    for &pass in &pipeline.passes {
        let outcome = match rupicola_core::catch_quiet(|| run_pass(pass, &current)) {
            Ok(outcome) => outcome,
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("pass panicked")
                    .to_string();
                report.passes.push(PassReport {
                    pass,
                    sites_rewritten: 0,
                    facts_consumed: 0,
                    applied: false,
                    rolled_back: Some(OptError::Internal { detail }),
                });
                continue;
            }
        };
        // A pass that rewrote nothing produced the same body; skip the
        // (expensive) validation and record a no-op.
        if outcome.sites_rewritten == 0 || outcome.function == current {
            report.passes.push(PassReport {
                pass,
                sites_rewritten: 0,
                facts_consumed: outcome.facts_consumed,
                applied: false,
                rolled_back: None,
            });
            continue;
        }
        let (cert, lint, ct) = certs.get_or_init(|| {
            (
                Certificate::new(certified, dbs, config),
                LintCertificate::new(certified, Some(dbs)),
                CtBaseline::new(certified, pipeline.ct_policy.as_ref()),
            )
        });
        match validate::validate(cert, lint, &outcome.function, ct) {
            Ok(()) => {
                current = outcome.function;
                report.passes.push(PassReport {
                    pass,
                    sites_rewritten: outcome.sites_rewritten,
                    facts_consumed: outcome.facts_consumed,
                    applied: true,
                    rolled_back: None,
                });
            }
            Err(err) => {
                report.passes.push(PassReport {
                    pass,
                    sites_rewritten: outcome.sites_rewritten,
                    facts_consumed: outcome.facts_consumed,
                    applied: false,
                    rolled_back: Some(err),
                });
            }
        }
    }

    cf.stats.opt_passes_applied = report.applied_count();
    cf.stats.opt_passes_rolled_back = report.rolled_back_count();
    cf.stats.opt_sites_rewritten = report.sites_rewritten();
    cf.optimized = if report.applied_count() > 0 { Some(current) } else { None };
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_strings_are_canonical() {
        assert_eq!(PipelineConfig::none().identity_string(), "none");
        assert_eq!(
            PipelineConfig::full().identity_string(),
            "const-fold,copy-prop,dead-store,strength-reduce,load-cse"
        );
        let partial = PipelineConfig {
            passes: vec![PassId::LoadCse, PassId::ConstFold],
            ..Default::default()
        };
        assert_eq!(partial.identity_string(), "load-cse,const-fold");
    }

    #[test]
    fn ct_policy_does_not_change_the_pass_identity() {
        let with = PipelineConfig::full().with_ct_policy(SecrecyPolicy::secrets(["k"]));
        assert_eq!(with.identity_string(), PipelineConfig::full().identity_string());
    }

    #[test]
    fn pass_names_are_distinct() {
        let names: std::collections::BTreeSet<_> =
            PassId::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), PassId::ALL.len());
    }
}
