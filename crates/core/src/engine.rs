//! The proof-search engine: code-generating goal resolution.
//!
//! Compiling a program `s` is proving `∃ t, t ∼ s` (§2): the engine holds
//! the current goal, tries the registered lemmas in order, and lets the
//! matching lemma emit target code and recurse into its premises. There is
//! no backtracking; when nothing applies, the residual goal is surfaced to
//! the user (§3.1).
//!
//! The search is one loop per judgment: every goal tries every lemma of
//! its database in registration order, and every side condition tries
//! every solver in order ([`Compiler::solve`]). Nothing filters or caches
//! either loop (DESIGN.md §9 records the measurement behind that choice).
//!
//! The engine owns two built-in rules only:
//!
//! - fresh-name generation (for loop counters and ghost renames), and
//! - the terminal `done` rule, which checks that the final source term
//!   matches the postcondition slots (scalar results are compiled through
//!   the expression judgment; in-place results must already live in their
//!   designated heaplets).
//!
//! Everything else — even plain `let` — is an extension lemma.

use crate::derive::{Derivation, DerivationNode, SideCondRecord};
use crate::error::CompileError;
use crate::fnspec::FnSpec;
use crate::goal::{flatten_result, HypRef, RetSlot, SideCond, StmtGoal};
use crate::lemma::HintDbs;
use crate::limits::{EngineLimits, FreshNamesExhausted, ResourceKind};
use rupicola_bedrock::{BExpr, BFunction, BTable, Cmd};
use rupicola_lang::{Expr, Model};
use std::any::Any;
use std::cell::Cell;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

// --- panic isolation -------------------------------------------------------
//
// Extension lemmas and solvers are untrusted: a panic in `try_apply` or
// `solve` must degrade the *request*, not the process. Every such call is
// wrapped in `catch_unwind`. The default panic hook would still print a
// backtrace for each caught panic, so while a guarded call is on the stack
// we suppress the hook (per thread); the previous hook is chained for
// panics originating anywhere else.

thread_local! {
    static SUPPRESS_PANIC_HOOK: Cell<u32> = const { Cell::new(0) };
}

fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SUPPRESS_PANIC_HOOK.with(|s| s.get()) == 0 {
                prev(info);
            }
        }));
    });
}

/// Runs `f`, catching panics without letting the global hook print.
/// Shared with the trusted checker, which re-runs the same untrusted
/// solvers during witness re-validation, and with the lemma-library
/// linter, which probes untrusted lemmas against benchmark goal shapes.
pub fn catch_quiet<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn Any + Send>> {
    install_quiet_hook();
    SUPPRESS_PANIC_HOOK.with(|s| s.set(s.get() + 1));
    let result = catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_HOOK.with(|s| s.set(s.get() - 1));
    result
}

/// Renders a caught panic payload (the common `&str`/`String` cases).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "(non-string panic payload)".to_string()
    }
}

/// Statistics of one compilation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Number of lemma applications (statement + expression).
    pub lemma_applications: usize,
    /// Number of side conditions discharged.
    pub side_conditions: usize,
    /// Always 0: the engine has no side-condition memo cache. Kept because
    /// the artifact codec and external benchmark readers still carry it.
    pub solver_cache_hits: usize,
    /// Always 0, for the same reason as `solver_cache_hits`.
    pub solver_cache_misses: usize,
    /// Always 0, for the same reason as `solver_cache_hits`.
    pub solver_confirm_compares: usize,
    /// Optimization passes that ran and were kept (validated rewrites).
    /// Zero until the pass manager in `rupicola-opt` processes the
    /// function.
    pub opt_passes_applied: usize,
    /// Optimization passes that rewrote something but failed translation
    /// validation and were rolled back.
    pub opt_passes_rolled_back: usize,
    /// Total sites rewritten by kept optimization passes.
    pub opt_sites_rewritten: usize,
}

/// The compiler state threaded through lemma applications.
///
/// Lemmas receive `&mut Compiler` and use it to compile their continuation
/// premises ([`Compiler::compile_stmt`]), their expression subgoals
/// ([`Compiler::compile_expr`]), to discharge side conditions
/// ([`Compiler::solve`]), and to generate fresh names.
#[derive(Debug)]
pub struct Compiler<'a> {
    /// The model being compiled (for inline-table lookups).
    pub model: &'a Model,
    /// The hint databases in use.
    pub dbs: &'a HintDbs,
    /// Run statistics.
    pub stats: CompileStats,
    /// Separately verified Bedrock2 functions that the emitted code calls
    /// (the paper's "linking against separately compiled verified
    /// fragments"). Lemmas register callees with [`Compiler::link`].
    linked: Vec<BFunction>,
    fresh: usize,
    /// Resource budgets for this run.
    limits: EngineLimits,
    /// Current recursion depth of the statement/expression judgments.
    depth: usize,
    /// Solver invocations so far.
    solver_steps: usize,
    /// Stack of lemma names currently being applied (derivation root
    /// first); rendered into `ResourceExhausted`/`LemmaPanicked` errors.
    /// Names are `&'static str` so pushing a frame never allocates — this
    /// runs once per *tried* lemma, the engine's hottest edge.
    path: Vec<&'static str>,
    /// When this run started — the origin of the optional
    /// [`EngineLimits::max_wall_ms`] deadline. Only consulted when a
    /// deadline is configured, so the default configuration pays one
    /// `Option` branch per judgment and no clock reads.
    started: std::time::Instant,
    /// Loop-counter locals already emitted in this run. Two sibling loops
    /// whose binders share a source name must get *distinct* Bedrock2
    /// locals — the trusted checker matches loop-head invariants by
    /// counter local, so a collision would make one loop's invariant fire
    /// at the other's head (see `claim_loop_local`).
    loop_locals: std::collections::HashSet<String>,
}

impl<'a> Compiler<'a> {
    /// Creates a compiler for `model` using the lemmas of `dbs` with
    /// default [`EngineLimits`].
    pub fn new(model: &'a Model, dbs: &'a HintDbs) -> Self {
        Self::with_limits(model, dbs, EngineLimits::default())
    }

    /// Creates a compiler with explicit resource budgets.
    pub fn with_limits(model: &'a Model, dbs: &'a HintDbs, limits: EngineLimits) -> Self {
        Compiler {
            model,
            dbs,
            stats: CompileStats::default(),
            linked: Vec::new(),
            fresh: 0,
            limits,
            depth: 0,
            solver_steps: 0,
            path: Vec::new(),
            started: std::time::Instant::now(),
            loop_locals: std::collections::HashSet::new(),
        }
    }

    /// Claims `name` as a loop-counter local. Returns `true` on first
    /// claim; `false` if an earlier loop in this run already uses it (the
    /// caller must then pick a fresh local, keeping counter locals unique
    /// per function so invariant checking can tell loop heads apart).
    pub fn claim_loop_local(&mut self, name: &str) -> bool {
        self.loop_locals.insert(name.to_string())
    }

    /// The budgets this run is metered against.
    pub fn limits(&self) -> &EngineLimits {
        &self.limits
    }

    /// Renders a derivation focus of the form `{term}`: one pre-sized
    /// buffer through [`Expr::write_into`], the same bytes `Display` gives.
    #[must_use]
    pub fn focus_term(&self, term: &Expr) -> String {
        term.display_string()
    }

    /// Renders a binding focus `let/n {name} := {value}` (see
    /// [`Compiler::focus_term`]).
    #[must_use]
    pub fn focus_let(&self, name: &str, value: &Expr) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("let/n ");
        s.push_str(name);
        s.push_str(" := ");
        let _ = value.write_into(&mut s);
        s
    }

    /// Renders a resolution focus `{term} ↦ {target}` (see
    /// [`Compiler::focus_term`]).
    #[must_use]
    pub fn focus_mapsto(&self, term: &Expr, target: &str) -> String {
        let mut s = String::with_capacity(48);
        let _ = term.write_into(&mut s);
        s.push_str(" ↦ ");
        s.push_str(target);
        s
    }

    /// Renders a literal-resolution focus `{term} ↦ {w}` (see
    /// [`Compiler::focus_term`]).
    #[must_use]
    pub fn focus_mapsto_word(&self, term: &Expr, w: u64) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(48);
        let _ = term.write_into(&mut s);
        let _ = write!(s, " ↦ {w}");
        s
    }

    /// The current derivation path (lemma names, root first).
    pub fn derivation_path(&self) -> &[&'static str] {
        &self.path
    }

    fn path_strings(&self) -> Vec<String> {
        self.path.iter().map(|s| (*s).to_string()).collect()
    }

    fn exhausted(&self, resource: ResourceKind, limit: usize) -> CompileError {
        CompileError::ResourceExhausted { resource, limit, path: self.path_strings() }
    }

    /// Converts a caught `try_apply` panic into a typed error: a
    /// [`FreshNamesExhausted`] payload (thrown by [`Compiler::fresh_var`])
    /// becomes `ResourceExhausted`, anything else `LemmaPanicked`.
    fn panic_to_error(&self, lemma: &str, payload: Box<dyn Any + Send>) -> CompileError {
        if let Some(e) = payload.downcast_ref::<FreshNamesExhausted>() {
            return self.exhausted(ResourceKind::FreshNames, e.limit);
        }
        CompileError::LemmaPanicked {
            lemma: lemma.to_string(),
            message: panic_message(payload.as_ref()),
            path: self.path_strings(),
        }
    }

    /// Registers a callee to be linked into the final program (idempotent
    /// per function name).
    pub fn link(&mut self, callee: BFunction) {
        if !self.linked.iter().any(|f| f.name == callee.name) {
            self.linked.push(callee);
        }
    }

    /// Claims the next fresh index, unwinding with a typed payload when
    /// the budget is exhausted (converted to `ResourceExhausted` at the
    /// enclosing lemma-application boundary; fresh names are only minted
    /// inside `try_apply`).
    fn next_fresh(&mut self) -> usize {
        if self.fresh >= self.limits.max_fresh_names {
            std::panic::panic_any(FreshNamesExhausted { limit: self.limits.max_fresh_names });
        }
        let n = self.fresh;
        self.fresh += 1;
        n
    }

    /// A fresh Bedrock2 local name with the given prefix (e.g. `_i0`).
    pub fn fresh_var(&mut self, prefix: &str) -> String {
        let n = self.next_fresh();
        format!("{prefix}{n}")
    }

    /// A fresh *ghost* name derived from a source name; ghosts appear only
    /// in symbolic terms (they contain `'`, which no emitted local uses).
    pub fn fresh_ghost(&mut self, name: &str) -> String {
        let n = self.next_fresh();
        format!("{name}'{n}")
    }

    /// Charges one judgment-entry against the depth and application
    /// budgets. Returns the error to report if a budget is exceeded.
    fn enter_judgment(&mut self) -> Result<(), CompileError> {
        if self.depth >= self.limits.max_recursion_depth {
            return Err(self.exhausted(
                ResourceKind::RecursionDepth,
                self.limits.max_recursion_depth,
            ));
        }
        if self.stats.lemma_applications >= self.limits.max_lemma_applications {
            return Err(self.exhausted(
                ResourceKind::LemmaApplications,
                self.limits.max_lemma_applications,
            ));
        }
        // Inclusive like the other ceilings: `max_wall_ms: Some(0)` means
        // "no time at all" and fails at the first judgment, which gives
        // tests a deterministic way to exercise the deadline path.
        if let Some(ms) = self.limits.max_wall_ms {
            if self.started.elapsed().as_millis() >= u128::from(ms) {
                return Err(self.exhausted(
                    ResourceKind::WallClock,
                    usize::try_from(ms).unwrap_or(usize::MAX),
                ));
            }
        }
        Ok(())
    }

    /// Resolves a statement goal by trying each statement lemma in order,
    /// falling back to the terminal `done` rule.
    ///
    /// # Errors
    ///
    /// Propagates lemma failures (no backtracking) and reports a
    /// [`CompileError::ResidualGoal`] when nothing applies. A panicking
    /// lemma yields [`CompileError::LemmaPanicked`]; exceeding an
    /// [`EngineLimits`] budget yields [`CompileError::ResourceExhausted`].
    pub fn compile_stmt(
        &mut self,
        goal: &StmtGoal,
    ) -> Result<(Cmd, DerivationNode), CompileError> {
        self.enter_judgment()?;
        self.depth += 1;
        let result = self.compile_stmt_inner(goal);
        self.depth -= 1;
        result
    }

    fn compile_stmt_inner(
        &mut self,
        goal: &StmtGoal,
    ) -> Result<(Cmd, DerivationNode), CompileError> {
        // Copy the `&HintDbs` out of `self` so iterating the lemma slice
        // does not hold a borrow of the compiler across `try_apply`.
        let dbs = self.dbs;
        for lemma in dbs.stmt_lemmas() {
            self.path.push(lemma.name());
            match catch_quiet(AssertUnwindSafe(|| lemma.try_apply(goal, self))) {
                Err(payload) => return Err(self.panic_to_error(lemma.name(), payload)),
                Ok(None) => {
                    self.path.pop();
                }
                Ok(Some(res)) => {
                    let applied = res?;
                    self.path.pop();
                    self.stats.lemma_applications += 1;
                    return Ok((applied.cmd, applied.node));
                }
            }
        }
        self.compile_done(goal)
    }

    /// Resolves an expression goal (`EXPR m l ?e (term)`).
    ///
    /// # Errors
    ///
    /// As [`Compiler::compile_stmt`].
    pub fn compile_expr(
        &mut self,
        term: &Expr,
        goal: &StmtGoal,
    ) -> Result<(BExpr, DerivationNode), CompileError> {
        self.enter_judgment()?;
        self.depth += 1;
        let result = self.compile_expr_inner(term, goal);
        self.depth -= 1;
        result
    }

    fn compile_expr_inner(
        &mut self,
        term: &Expr,
        goal: &StmtGoal,
    ) -> Result<(BExpr, DerivationNode), CompileError> {
        let dbs = self.dbs;
        for lemma in dbs.expr_lemmas() {
            self.path.push(lemma.name());
            match catch_quiet(AssertUnwindSafe(|| lemma.try_apply(term, goal, self))) {
                Err(payload) => return Err(self.panic_to_error(lemma.name(), payload)),
                Ok(None) => {
                    self.path.pop();
                }
                Ok(Some(res)) => {
                    let applied = res?;
                    self.path.pop();
                    self.stats.lemma_applications += 1;
                    return Ok((applied.expr, applied.node));
                }
            }
        }
        Err(CompileError::ResidualGoal {
            goal: format!("EXPR {} ?e ↝ ({term})", goal.locals),
            hint: format!(
                "no expression lemma matches `{term}`; register an ExprLemma for this construct \
                 or bind the value with let/n first"
            ),
        })
    }

    /// Discharges a side condition through the registered solvers.
    ///
    /// Each solver invocation is one *step* against the
    /// [`EngineLimits::solver_step_budget`]. A panicking solver is treated
    /// as "does not prove it": the engine falls through to the next
    /// registered solver, so one buggy solver cannot take down the others.
    /// Nothing is memoized: every call runs the solvers afresh, so a solver
    /// need not be a pure function of `(cond, hyps)`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::SideCondition`] when no solver proves it,
    /// or [`CompileError::ResourceExhausted`] when the step budget runs
    /// out.
    pub fn solve(
        &mut self,
        lemma: &str,
        cond: SideCond,
        hyps: &[HypRef],
    ) -> Result<SideCondRecord, CompileError> {
        for s in self.dbs.solvers() {
            if self.solver_steps >= self.limits.solver_step_budget {
                return Err(
                    self.exhausted(ResourceKind::SolverSteps, self.limits.solver_step_budget)
                );
            }
            self.solver_steps += 1;
            // `Ok(false)` means the solver declined; `Err(_)` means it
            // panicked — same outcome, fall through to the next solver.
            if let Ok(true) = catch_quiet(|| s.solve(&cond, hyps)) {
                self.stats.side_conditions += 1;
                // Snapshot the hypotheses for the record: shallow copies
                // into one shared allocation.
                return Ok(SideCondRecord {
                    cond,
                    solver: Cow::Borrowed(s.name()),
                    hyps: hyps.into(),
                });
            }
        }
        Err(CompileError::SideCondition {
            cond: cond.to_string(),
            hyps: hyps.iter().map(ToString::to_string).collect(),
            lemma: lemma.to_string(),
        })
    }

    /// The terminal rule: the program remainder is the final result term.
    fn compile_done(&mut self, goal: &StmtGoal) -> Result<(Cmd, DerivationNode), CompileError> {
        // Unwrap a final monadic return.
        let result = match &goal.prog {
            Expr::Ret { monad, value } if goal.monad.admits(*monad) => value.as_ref(),
            other => other,
        };
        let components = flatten_result(result);
        if components.len() != goal.post.slots.len() {
            return Err(CompileError::ResidualGoal {
                goal: goal.to_string(),
                hint: format!(
                    "the result term has {} component(s) but the spec declares {} return slot(s); \
                     no statement lemma matched the program head either",
                    components.len(),
                    goal.post.slots.len()
                ),
            });
        }
        let mut cmds = Vec::new();
        let mut node = DerivationNode::leaf("done", self.focus_term(result));
        for (slot, comp) in goal.post.slots.iter().zip(components) {
            match slot {
                RetSlot::ScalarTo(ret_var) => {
                    let (e, child) = self.compile_expr(comp, goal)?;
                    cmds.push(Cmd::set(ret_var.clone(), e));
                    node.children.push(child);
                }
                RetSlot::InHeaplet(id) => {
                    let ok = match comp {
                        Expr::Var(x) => goal
                            .locals
                            .get(x)
                            .and_then(rupicola_sep::SymValue::ptr)
                            .is_some_and(|h| h == *id)
                            || goal.heap.find_by_content(comp) == Some(*id),
                        other => goal.heap.find_by_content(other) == Some(*id),
                    };
                    if !ok {
                        return Err(CompileError::ResidualGoal {
                            goal: goal.to_string(),
                            hint: format!(
                                "result component `{comp}` must reside in heaplet {id}, but the \
                                 memory predicate does not place it there"
                            ),
                        });
                    }
                }
            }
        }
        Ok((Cmd::seq(cmds), node))
    }
}

/// The output of a successful compilation run: the Bedrock2 function and
/// its correctness witness, bundled with the model and spec so that the
/// trusted checker can re-validate everything.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFunction {
    /// The derived Bedrock2 function.
    pub function: BFunction,
    /// The derivation witness.
    pub derivation: Derivation,
    /// The source model.
    pub model: Model,
    /// The ABI specification.
    pub spec: FnSpec,
    /// Separately verified callees the function links against.
    pub linked: Vec<BFunction>,
    /// The optimized body, when the staged pass pipeline in `rupicola-opt`
    /// rewrote the function and every pass survived translation
    /// validation. `None` straight out of the engine. The certified
    /// `function` is never replaced: consumers opt into the optimized body
    /// explicitly, and validators always re-anchor on `function`.
    pub optimized: Option<BFunction>,
    /// Run statistics.
    pub stats: CompileStats,
}

impl CompiledFunction {
    /// Rebuilds the initial compilation goal from the bundled model and
    /// spec. Analyses use this to recover the separation-logic footprint
    /// and hypothesis set the certificate was derived under, without
    /// trusting anything recorded in the derivation itself.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Spec`] when the bundled spec no longer
    /// matches the bundled model (a corrupted certificate).
    pub fn initial_goal(&self) -> Result<crate::goal::StmtGoal, CompileError> {
        self.spec.initial_goal(&self.model)
    }
}

/// Compiles a model against its specification using the given databases —
/// the `Derive … SuchThat … Proof. compile. Qed.` entry point of §3.2.
///
/// # Errors
///
/// Returns the first [`CompileError`]: a spec inconsistency, an unsolved
/// side condition, or a residual goal (with the rendered goal, so the
/// missing lemma's shape can be read off).
pub fn compile(
    model: &Model,
    spec: &FnSpec,
    dbs: &HintDbs,
) -> Result<CompiledFunction, CompileError> {
    compile_with_limits(model, spec, dbs, EngineLimits::default())
}

/// [`compile`] with explicit resource budgets: the entry point for serving
/// untrusted extension sets, where a non-productive or panicking lemma must
/// fail this request only.
///
/// # Errors
///
/// As [`compile`], plus [`CompileError::ResourceExhausted`] /
/// [`CompileError::LemmaPanicked`] when a budget is exceeded or an
/// extension panics.
pub fn compile_with_limits(
    model: &Model,
    spec: &FnSpec,
    dbs: &HintDbs,
    limits: EngineLimits,
) -> Result<CompiledFunction, CompileError> {
    let goal = spec.initial_goal(model)?;
    let mut cx = Compiler::with_limits(model, dbs, limits);
    let (body, root) = cx.compile_stmt(&goal)?;
    let mut function = BFunction::new(
        spec.name.clone(),
        spec.arg_names(),
        spec.ret_names(),
        body,
    );
    for t in &model.tables {
        function = function.with_table(BTable {
            name: t.name.clone(),
            data: t
                .data
                .to_layout_bytes()
                .ok_or_else(|| CompileError::Spec(format!("table `{}` has no layout", t.name)))?,
        });
    }
    Ok(CompiledFunction {
        function,
        derivation: Derivation::new(root),
        model: model.clone(),
        spec: spec.clone(),
        linked: cx.linked,
        optimized: None,
        stats: cx.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnspec::{ArgSpec, RetSpec};
    use rupicola_lang::dsl::*;
    use rupicola_sep::ScalarKind;

    /// With an empty database, nothing applies: the engine must surface a
    /// residual goal, not wrong code.
    #[test]
    fn empty_db_reports_residual_goal() {
        let model = Model::new("f", ["x"], word_add(var("x"), word_lit(1)));
        let spec = FnSpec::new(
            "f",
            vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
            vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
        );
        let err = compile(&model, &spec, &HintDbs::new()).unwrap_err();
        match err {
            CompileError::ResidualGoal { goal, .. } => {
                assert!(goal.contains("word.add"), "goal was: {goal}");
            }
            other => panic!("expected residual goal, got {other}"),
        }
    }

    /// A trivially returnable in-place result compiles with the empty
    /// database: `done` needs no lemmas for pointer results.
    #[test]
    fn identity_array_model_compiles_with_done_only() {
        let model = Model::new("id", ["s"], var("s"));
        let spec = FnSpec::new(
            "id",
            vec![ArgSpec::ArrayPtr {
                name: "s".into(),
                param: "s".into(),
                elem: rupicola_lang::ElemKind::Byte,
            }],
            vec![RetSpec::InPlace { param: "s".into() }],
        );
        let out = compile(&model, &spec, &HintDbs::new()).unwrap();
        assert_eq!(out.function.body, Cmd::Skip);
        assert_eq!(out.derivation.root.lemma, "done");
    }

    #[test]
    fn arity_mismatch_is_residual() {
        let model = Model::new("f", ["s"], pair(var("s"), word_lit(0)));
        let spec = FnSpec::new(
            "f",
            vec![ArgSpec::ArrayPtr {
                name: "s".into(),
                param: "s".into(),
                elem: rupicola_lang::ElemKind::Byte,
            }],
            vec![RetSpec::InPlace { param: "s".into() }],
        );
        assert!(matches!(
            compile(&model, &spec, &HintDbs::new()),
            Err(CompileError::ResidualGoal { .. })
        ));
    }

    #[test]
    fn fresh_names_are_distinct() {
        let model = Model::new("f", Vec::<String>::new(), word_lit(0));
        let dbs = HintDbs::new();
        let mut cx = Compiler::new(&model, &dbs);
        let a = cx.fresh_var("_i");
        let b = cx.fresh_var("_i");
        let g = cx.fresh_ghost("acc");
        assert_ne!(a, b);
        assert!(g.contains('\''));
    }
}
