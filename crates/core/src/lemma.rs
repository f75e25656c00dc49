//! Lemma traits and hint databases.
//!
//! "A relational compiler is just a collection of facts connecting target
//! programs to source programs" (§2.3). Here each *fact* is a value
//! implementing [`StmtLemma`] or [`ExprLemma`]: it inspects a goal, and if
//! its syntactic premises match, emits target code, discharges its side
//! conditions through the engine, and recursively compiles its continuation
//! premises. A [`HintDbs`] is the analog of Coq's hint databases: the
//! ordered collections of lemmas (and side-condition solvers) that
//! constitute a compiler.
//!
//! The search is deliberately *non-backtracking* — "compilers built with
//! Rupicola (almost) never backtrack" (§3.1): returning `Some(Err(…))` from
//! `try_apply` commits to the lemma and propagates the failure, so lemmas
//! do their (cheap, syntactic) applicability checks before committing.
//!
//! The engine tries every registered lemma, in registration order, for
//! every goal; lemmas declare no head constructors and there is no dispatch
//! index. Solvers are likewise consulted in order for every side
//! condition, with no memo cache in front of them, so a solver need not be
//! a pure function of its inputs.

use crate::derive::DerivationNode;
use crate::engine::Compiler;
use crate::error::CompileError;
use crate::goal::StmtGoal;
use crate::solver::{Lia, SideSolver};
use rupicola_bedrock::{BExpr, Cmd};
use rupicola_lang::Expr;
use std::fmt;
use std::sync::Arc;

/// The result of applying a statement lemma: the emitted command (covering
/// the *entire* remaining program, since lemmas compile their continuations
/// recursively) and the derivation node recording the application.
#[derive(Debug, Clone, PartialEq)]
pub struct Applied {
    /// Emitted Bedrock2 code.
    pub cmd: Cmd,
    /// Witness node.
    pub node: DerivationNode,
}

/// The result of applying an expression lemma.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedExpr {
    /// Emitted Bedrock2 expression.
    pub expr: BExpr,
    /// Witness node.
    pub node: DerivationNode,
}

/// A compilation lemma for the statement judgment (§3.3).
pub trait StmtLemma: Send + Sync {
    /// The lemma's name, recorded in derivations and checked on
    /// re-validation.
    fn name(&self) -> &'static str;

    /// Attempts to apply the lemma.
    ///
    /// - `None`: the lemma's premises do not match this goal; the engine
    ///   tries the next lemma.
    /// - `Some(Ok(applied))`: the lemma applied and all its premises
    ///   (side conditions, subgoals, continuation) were discharged.
    /// - `Some(Err(e))`: the lemma matched but a premise failed; the engine
    ///   does *not* backtrack and reports `e`.
    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>>;
}

/// A compilation lemma for the expression judgment (`EXPR m l E v`, §3.3).
pub trait ExprLemma: Send + Sync {
    /// The lemma's name.
    fn name(&self) -> &'static str;

    /// Attempts to compile `term` to a Bedrock2 expression under the
    /// symbolic state of `goal` (the ambient statement goal).
    fn try_apply(
        &self,
        term: &Expr,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<AppliedExpr, CompileError>>;
}

/// The hint databases making up a compiler: statement lemmas, expression
/// lemmas, and side-condition solvers, each tried in registration order.
#[derive(Clone)]
pub struct HintDbs {
    stmt: Vec<Arc<dyn StmtLemma>>,
    expr: Vec<Arc<dyn ExprLemma>>,
    solvers: Vec<Arc<dyn SideSolver>>,
}

impl fmt::Debug for HintDbs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HintDbs")
            .field("stmt", &self.stmt.iter().map(|l| l.name()).collect::<Vec<_>>())
            .field("expr", &self.expr.iter().map(|l| l.name()).collect::<Vec<_>>())
            .field(
                "solvers",
                &self.solvers.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Default for HintDbs {
    fn default() -> Self {
        Self::new()
    }
}

impl HintDbs {
    /// An empty database with only the built-in `lia` solver. This is
    /// Rupicola's "minimal core": all constructs (even `let`) come from
    /// extension crates.
    pub fn new() -> Self {
        HintDbs {
            stmt: Vec::new(),
            expr: Vec::new(),
            solvers: vec![Arc::new(Lia)],
        }
    }

    /// Registers a statement lemma (tried after existing ones).
    pub fn register_stmt<L: StmtLemma + 'static>(&mut self, lemma: L) -> &mut Self {
        self.register_stmt_arc(Arc::new(lemma))
    }

    /// Registers an already-boxed statement lemma (tried after existing
    /// ones). Lets callers rebuild databases from the `Arc`s of another
    /// database's [`HintDbs::stmt_lemmas`] — the equivalence battery uses
    /// this to compile with random lemma subsets.
    pub fn register_stmt_arc(&mut self, lemma: Arc<dyn StmtLemma>) -> &mut Self {
        self.stmt.push(lemma);
        self
    }

    /// Registers a statement lemma ahead of existing ones (a
    /// program-specific override).
    pub fn register_stmt_front<L: StmtLemma + 'static>(&mut self, lemma: L) -> &mut Self {
        self.stmt.insert(0, Arc::new(lemma));
        self
    }

    /// Registers an expression lemma.
    pub fn register_expr<L: ExprLemma + 'static>(&mut self, lemma: L) -> &mut Self {
        self.register_expr_arc(Arc::new(lemma))
    }

    /// Registers an already-boxed expression lemma (see
    /// [`HintDbs::register_stmt_arc`]).
    pub fn register_expr_arc(&mut self, lemma: Arc<dyn ExprLemma>) -> &mut Self {
        self.expr.push(lemma);
        self
    }

    /// Registers an expression lemma ahead of existing ones.
    pub fn register_expr_front<L: ExprLemma + 'static>(&mut self, lemma: L) -> &mut Self {
        self.expr.insert(0, Arc::new(lemma));
        self
    }

    /// Registers a side-condition solver.
    pub fn register_solver<S: SideSolver + 'static>(&mut self, solver: S) -> &mut Self {
        self.register_solver_arc(Arc::new(solver))
    }

    /// Registers an already-boxed side-condition solver (see
    /// [`HintDbs::register_stmt_arc`]).
    pub fn register_solver_arc(&mut self, solver: Arc<dyn SideSolver>) -> &mut Self {
        self.solvers.push(solver);
        self
    }

    /// Registers a side-condition solver ahead of the existing ones.
    pub fn register_solver_front<S: SideSolver + 'static>(&mut self, solver: S) -> &mut Self {
        self.solvers.insert(0, Arc::new(solver));
        self
    }

    /// Statement lemmas, in application order.
    pub fn stmt_lemmas(&self) -> &[Arc<dyn StmtLemma>] {
        &self.stmt
    }

    /// Expression lemmas, in application order.
    pub fn expr_lemmas(&self) -> &[Arc<dyn ExprLemma>] {
        &self.expr
    }

    /// Side-condition solvers, in application order.
    pub fn solvers(&self) -> &[Arc<dyn SideSolver>] {
        &self.solvers
    }

    /// Whether a lemma with this name is registered (in either judgment) or
    /// is an engine-internal rule. The checker rejects derivations citing
    /// unknown lemmas.
    pub fn knows_lemma(&self, name: &str) -> bool {
        name == "done"
            || self.stmt.iter().any(|l| l.name() == name)
            || self.expr.iter().any(|l| l.name() == name)
    }

    /// A canonical textual identity of this database *as a compiler
    /// configuration*: statement-lemma names in try order, then
    /// expression-lemma names, then solver names, then a constant engine
    /// segment.
    ///
    /// Two databases with equal identity strings consult the same lemmas
    /// and solvers in the same order — exactly the property the persistent
    /// artifact store's fingerprint needs: reordering lemmas or adding or
    /// removing one changes the string, so a cached artifact can never be
    /// served for a *different* compiler than the one that produced it.
    /// (Lemma *names* stand in for lemma *behavior*; a behavioral change
    /// under an unchanged name is caught by the verify-on-load checker pass
    /// instead.)
    pub fn identity_string(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("stmt=");
        for l in &self.stmt {
            s.push_str(l.name());
            s.push(',');
        }
        s.push_str(";expr=");
        for l in &self.expr {
            s.push_str(l.name());
            s.push(',');
        }
        s.push_str(";solvers=");
        for sv in &self.solvers {
            s.push_str(sv.name());
            s.push(',');
        }
        // The engine once had switchable lemma dispatch and solver memo
        // modes; this literal keeps every existing key and stored artifact
        // valid.
        s.push_str(";mode=Indexed;memo=true");
        s
    }

    /// All registered lemma names (statement then expression).
    pub fn lemma_names(&self) -> Vec<&'static str> {
        self.stmt
            .iter()
            .map(|l| l.name())
            .chain(self.expr.iter().map(|l| l.name()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl StmtLemma for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn try_apply(
            &self,
            _goal: &StmtGoal,
            _cx: &mut Compiler<'_>,
        ) -> Option<Result<Applied, CompileError>> {
            None
        }
    }

    #[test]
    fn registration_order_and_front() {
        struct Second;
        impl StmtLemma for Second {
            fn name(&self) -> &'static str {
                "second"
            }
            fn try_apply(
                &self,
                _goal: &StmtGoal,
                _cx: &mut Compiler<'_>,
            ) -> Option<Result<Applied, CompileError>> {
                None
            }
        }
        let mut dbs = HintDbs::new();
        dbs.register_stmt(Dummy);
        dbs.register_stmt_front(Second);
        let names: Vec<_> = dbs.stmt_lemmas().iter().map(|l| l.name()).collect();
        assert_eq!(names, vec!["second", "dummy"]);
    }

    #[test]
    fn knows_builtin_done_and_registered() {
        let mut dbs = HintDbs::new();
        assert!(dbs.knows_lemma("done"));
        assert!(!dbs.knows_lemma("dummy"));
        dbs.register_stmt(Dummy);
        assert!(dbs.knows_lemma("dummy"));
    }

    #[test]
    fn default_db_has_lia() {
        let dbs = HintDbs::new();
        assert_eq!(dbs.solvers().len(), 1);
        assert_eq!(dbs.solvers()[0].name(), "lia");
        assert!(dbs.lemma_names().is_empty());
    }
}
