//! Resource limits for the proof-search engine.
//!
//! The engine is *extensible*: statement lemmas, expression lemmas and
//! side-condition solvers are user-supplied trait objects. A production
//! deployment cannot trust them to terminate, so every compilation run is
//! metered against an [`EngineLimits`] budget. Exceeding any budget aborts
//! the current request with a typed
//! [`CompileError::ResourceExhausted`](crate::CompileError::ResourceExhausted)
//! carrying the partial derivation path — never a stack overflow or a hung
//! process.

use std::fmt;

/// Budgets for one compilation run.
///
/// All limits are inclusive ceilings: the run fails when it *would exceed*
/// a limit. The defaults are far above anything the §4.2 suite needs (the
/// largest suite derivation applies fewer than 500 lemmas at depth < 40)
/// while still aborting a runaway extension in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineLimits {
    /// Maximum number of lemma applications (statement + expression).
    pub max_lemma_applications: usize,
    /// Maximum nesting depth of the statement/expression judgments: loop
    /// bodies, branches and expressions nest, while a let-spine's
    /// continuations do not (the engine resolves them in a loop), so any
    /// spine length fits. Bounds the stack: a self-recursive lemma that
    /// makes no progress hits this long before the thread's guard page.
    pub max_recursion_depth: usize,
    /// Maximum number of fresh names ([`Compiler::fresh_var`] /
    /// [`Compiler::fresh_ghost`](crate::Compiler::fresh_ghost) calls).
    ///
    /// [`Compiler::fresh_var`]: crate::Compiler::fresh_var
    pub max_fresh_names: usize,
    /// Maximum number of solver invocations (one *step* = one registered
    /// solver attempting one side condition).
    pub solver_step_budget: usize,
    /// Optional wall-clock deadline for one compilation run, in
    /// milliseconds from the moment the `Compiler` is created. `None`
    /// (the default) means no deadline.
    ///
    /// Unlike the structural budgets above, this one is *nondeterministic*:
    /// the same request may succeed on an idle machine and miss its
    /// deadline on a loaded one. It exists for the service layer — a
    /// request that carries `deadline_ms` must be answered in-band within
    /// that budget, with a typed
    /// [`ResourceExhausted`](crate::CompileError::ResourceExhausted) of
    /// kind [`ResourceKind::WallClock`] rather than a hung batch. Because
    /// the outcome is timing-dependent, the deadline is deliberately *not*
    /// part of the artifact-store fingerprint (see
    /// `rupicola_service::fingerprint`).
    pub max_wall_ms: Option<u64>,
}

impl Default for EngineLimits {
    fn default() -> Self {
        EngineLimits {
            max_lemma_applications: 100_000,
            max_recursion_depth: 256,
            max_fresh_names: 65_536,
            solver_step_budget: 1_000_000,
            max_wall_ms: None,
        }
    }
}

impl EngineLimits {
    /// A deliberately tight budget for tests and fuzzing: small enough that
    /// a non-productive extension fails fast, large enough for every suite
    /// program.
    pub fn tight() -> Self {
        EngineLimits {
            max_lemma_applications: 2_000,
            max_recursion_depth: 64,
            max_fresh_names: 1_024,
            solver_step_budget: 20_000,
            max_wall_ms: None,
        }
    }

    /// This budget with a wall-clock deadline of `ms` milliseconds.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.max_wall_ms = Some(ms);
        self
    }
}

/// Which budget of an [`EngineLimits`] was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// [`EngineLimits::max_lemma_applications`].
    LemmaApplications,
    /// [`EngineLimits::max_recursion_depth`].
    RecursionDepth,
    /// [`EngineLimits::max_fresh_names`].
    FreshNames,
    /// [`EngineLimits::solver_step_budget`].
    SolverSteps,
    /// [`EngineLimits::max_wall_ms`] — the run's wall-clock deadline
    /// passed while the derivation was still in progress.
    WallClock,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResourceKind::LemmaApplications => "lemma applications",
            ResourceKind::RecursionDepth => "recursion depth",
            ResourceKind::FreshNames => "fresh names",
            ResourceKind::SolverSteps => "solver steps",
            ResourceKind::WallClock => "wall-clock",
        })
    }
}

/// Typed panic payload thrown by `fresh_var`/`fresh_ghost` when the fresh
/// name budget is exhausted. `fresh_var` returns a plain `String` (changing
/// it to `Result` would break every extension lemma), so exhaustion unwinds
/// instead; the engine's `catch_unwind` around `try_apply` downcasts this
/// payload back into a structured `ResourceExhausted` error.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FreshNamesExhausted {
    pub limit: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_dominate_tight() {
        let d = EngineLimits::default();
        let t = EngineLimits::tight();
        assert!(d.max_lemma_applications > t.max_lemma_applications);
        assert!(d.max_recursion_depth > t.max_recursion_depth);
        assert!(d.max_fresh_names > t.max_fresh_names);
        assert!(d.solver_step_budget > t.solver_step_budget);
    }

    #[test]
    fn resource_kinds_render() {
        assert_eq!(ResourceKind::RecursionDepth.to_string(), "recursion depth");
        assert_eq!(ResourceKind::SolverSteps.to_string(), "solver steps");
        assert_eq!(ResourceKind::WallClock.to_string(), "wall-clock");
    }

    #[test]
    fn deadline_builder_sets_only_the_wall_budget() {
        let d = EngineLimits::default();
        let with = d.with_deadline_ms(250);
        assert_eq!(with.max_wall_ms, Some(250));
        assert_eq!(EngineLimits { max_wall_ms: None, ..with }, d);
        assert_eq!(d.max_wall_ms, None, "no deadline by default");
    }
}
