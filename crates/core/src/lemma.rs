//! Lemma traits and hint databases.
//!
//! "A relational compiler is just a collection of facts connecting target
//! programs to source programs" (§2.3). Here each *fact* is a value
//! implementing [`StmtLemma`] or [`ExprLemma`]: it inspects a goal, and if
//! its syntactic premises match, emits target code, discharges its side
//! conditions through the engine, and compiles its subgoals. A lemma whose
//! last premise is its continuation (the shape of §3.3's lemma anatomy)
//! does not compile that premise itself: it hands back the edit that turns
//! its goal into the continuation goal ([`Applied::then`]), and the engine
//! compiles the continuation in its own loop. A [`HintDbs`] is the analog
//! of Coq's hint databases: the ordered collections of lemmas (and
//! side-condition solvers) that constitute a compiler.
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

/// Turns a lemma's goal into its continuation goal. It runs once the lemma
/// has applied, on the goal the engine owns, so a lemma that declines never
/// changes the goal the next lemma sees.
pub type GoalEdit = Box<dyn FnOnce(&mut StmtGoal)>;

/// The result of applying a statement lemma.
pub enum Applied {
    /// The lemma discharged every premise itself: `cmd` covers the
    /// *entire* remaining program and `node` records the application with
    /// all its premises.
    Closed {
        /// Emitted Bedrock2 code.
        cmd: Cmd,
        /// Witness node.
        node: DerivationNode,
    },
    /// The lemma's last premise is its continuation: `prefix` holds what it
    /// emits before the continuation and its witness node minus the last
    /// child, and `edit` makes the continuation goal. The engine compiles
    /// that goal next and closes the prefix around the result
    /// ([`Prefix::close`]).
    Continue {
        /// The code and witness around the continuation.
        prefix: Prefix,
        /// The continuation goal, as an edit of this lemma's goal.
        edit: GoalEdit,
    },
}

impl Applied {
    /// A continuing application: `cmds` run before the continuation,
    /// `node` is the witness without the continuation's child, and `edit`
    /// makes the continuation goal. For example, a lemma for
    /// `let/n x := e in k` with a fresh word `x` hands back `[x = e]`, its
    /// node, and an edit that binds `x` and focuses the goal on `k`:
    ///
    /// ```
    /// use rupicola_bedrock::Cmd;
    /// use rupicola_core::derive::DerivationNode;
    /// use rupicola_core::{Applied, CompileError, Compiler, StmtGoal, StmtLemma};
    /// use rupicola_lang::Expr;
    /// use rupicola_sep::{ScalarKind, SymValue};
    ///
    /// struct LetFreshWord;
    ///
    /// impl StmtLemma for LetFreshWord {
    ///     fn name(&self) -> &'static str {
    ///         "let_fresh_word"
    ///     }
    ///
    ///     fn try_apply(
    ///         &self,
    ///         goal: &StmtGoal,
    ///         cx: &mut Compiler<'_>,
    ///     ) -> Option<Result<Applied, CompileError>> {
    ///         let Expr::Let { name, value, body } = &goal.prog else { return None };
    ///         if goal.locals.get(name).is_some() {
    ///             return None;
    ///         }
    ///         Some(cx.compile_expr(value, goal).map(|(e, e_node)| {
    ///             let node =
    ///                 DerivationNode::leaf(self.name(), cx.focus_let(name, value)).with_child(e_node);
    ///             let (x, body) = (name.clone(), body.as_ref().clone());
    ///             Applied::then(vec![Cmd::set(x.clone(), e)], node, move |g| {
    ///                 g.locals.set(x.clone(), SymValue::Scalar(ScalarKind::Word, Expr::Var(x)));
    ///                 g.prog = body;
    ///             })
    ///         }))
    ///     }
    /// }
    /// ```
    pub fn then(
        cmds: Vec<Cmd>,
        node: DerivationNode,
        edit: impl FnOnce(&mut StmtGoal) + 'static,
    ) -> Applied {
        Applied::Continue { prefix: Prefix { cmds, stack_alloc: None, node }, edit: Box::new(edit) }
    }

    /// As [`Applied::then`], with `cmds` and the continuation scoped inside
    /// a stack allocation of `nbytes` bytes whose address is bound to `var`.
    pub fn then_in_stack_alloc(
        var: String,
        nbytes: u64,
        cmds: Vec<Cmd>,
        node: DerivationNode,
        edit: impl FnOnce(&mut StmtGoal) + 'static,
    ) -> Applied {
        Applied::Continue {
            prefix: Prefix { cmds, stack_alloc: Some((var, nbytes)), node },
            edit: Box::new(edit),
        }
    }
}

impl fmt::Debug for Applied {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Applied::Closed { cmd, node } => {
                f.debug_struct("Closed").field("cmd", cmd).field("node", node).finish()
            }
            Applied::Continue { prefix, .. } => {
                f.debug_struct("Continue").field("prefix", prefix).finish_non_exhaustive()
            }
        }
    }
}

/// What a continuing lemma application contributes around its
/// continuation.
#[derive(Debug, Clone, PartialEq)]
pub struct Prefix {
    /// Commands run before the continuation.
    pub cmds: Vec<Cmd>,
    /// When set, `cmds` and the continuation run inside a stack
    /// allocation of this many bytes bound to this local.
    pub stack_alloc: Option<(String, u64)>,
    /// The witness node, without the continuation's child.
    pub node: DerivationNode,
}

impl Prefix {
    /// The command and witness of the whole application, given the
    /// continuation's: `Cmd::seq(cmds ++ [k_cmd])` (inside the stack
    /// allocation, if any) and the node with `k_node` as its last child —
    /// exactly what a lemma compiling its continuation itself would build.
    pub fn close(self, k_cmd: Cmd, k_node: DerivationNode) -> (Cmd, DerivationNode) {
        let Prefix { mut cmds, stack_alloc, mut node } = self;
        cmds.push(k_cmd);
        let mut cmd = Cmd::seq(cmds);
        if let Some((var, nbytes)) = stack_alloc {
            cmd = Cmd::StackAlloc { var, nbytes, body: Box::new(cmd) };
        }
        node.children.push(k_node);
        (cmd, node)
    }
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
    /// - `Some(Ok(applied))`: the lemma applied and its premises (side
    ///   conditions, subgoals) were discharged — the continuation too for
    ///   [`Applied::Closed`]; for [`Applied::Continue`] the engine compiles
    ///   the continuation next. A lemma decides and compiles its prefix
    ///   from `goal` alone; only the returned edit may change the goal.
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
    /// expression-lemma names, then solver names.
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
