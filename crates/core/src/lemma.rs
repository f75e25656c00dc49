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

use crate::derive::DerivationNode;
use crate::engine::Compiler;
use crate::error::CompileError;
use crate::goal::StmtGoal;
use crate::solver::{Lia, SideSolver};
use rupicola_bedrock::{BExpr, Cmd};
use rupicola_lang::Expr;
use std::fmt;
use std::sync::Arc;

/// The head constructor of a source term — the dispatch key of the lemma
/// index.
///
/// Every [`Expr`] variant maps to exactly one `HeadKey` via [`HeadKey::of`].
/// A lemma whose premises start with a syntactic match on the goal's head
/// (which is almost all of them: `let Expr::Let { .. } = &goal.prog else
/// { return None }`) declares the heads it can match through
/// [`StmtLemma::dispatch`] / [`ExprLemma::dispatch`]; the engine then skips
/// it entirely for goals with any other head, instead of paying a
/// `catch_unwind`-guarded `try_apply` call that is guaranteed to decline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum HeadKey {
    /// `Expr::Var`.
    Var,
    /// `Expr::Lit`.
    Lit,
    /// `Expr::Prim`.
    Prim,
    /// `Expr::Extern`.
    Extern,
    /// `Expr::Let`.
    Let,
    /// `Expr::Copy`.
    Copy,
    /// `Expr::Stack`.
    Stack,
    /// `Expr::If`.
    If,
    /// `Expr::Pair`.
    Pair,
    /// `Expr::Fst`.
    Fst,
    /// `Expr::Snd`.
    Snd,
    /// `Expr::CellGet`.
    CellGet,
    /// `Expr::CellPut`.
    CellPut,
    /// `Expr::ArrayLen`.
    ArrayLen,
    /// `Expr::ArrayGet`.
    ArrayGet,
    /// `Expr::ArrayPut`.
    ArrayPut,
    /// `Expr::TableGet`.
    TableGet,
    /// `Expr::ArrayMap`.
    ArrayMap,
    /// `Expr::ArrayFold`.
    ArrayFold,
    /// `Expr::RangeFold`.
    RangeFold,
    /// `Expr::RangeFoldBreak`.
    RangeFoldBreak,
    /// `Expr::RangeFoldM`.
    RangeFoldM,
    /// `Expr::Ret`.
    Ret,
    /// `Expr::Bind`.
    Bind,
    /// `Expr::NondetBytes`.
    NondetBytes,
    /// `Expr::NondetWord`.
    NondetWord,
    /// `Expr::IoRead`.
    IoRead,
    /// `Expr::IoWrite`.
    IoWrite,
    /// `Expr::WriterTell`.
    WriterTell,
    /// `Expr::FreeOp`.
    FreeOp,
}

impl HeadKey {
    /// Number of head keys (= number of `Expr` variants).
    pub const COUNT: usize = 30;

    /// All head keys, in discriminant order.
    pub const ALL: [HeadKey; HeadKey::COUNT] = [
        HeadKey::Var,
        HeadKey::Lit,
        HeadKey::Prim,
        HeadKey::Extern,
        HeadKey::Let,
        HeadKey::Copy,
        HeadKey::Stack,
        HeadKey::If,
        HeadKey::Pair,
        HeadKey::Fst,
        HeadKey::Snd,
        HeadKey::CellGet,
        HeadKey::CellPut,
        HeadKey::ArrayLen,
        HeadKey::ArrayGet,
        HeadKey::ArrayPut,
        HeadKey::TableGet,
        HeadKey::ArrayMap,
        HeadKey::ArrayFold,
        HeadKey::RangeFold,
        HeadKey::RangeFoldBreak,
        HeadKey::RangeFoldM,
        HeadKey::Ret,
        HeadKey::Bind,
        HeadKey::NondetBytes,
        HeadKey::NondetWord,
        HeadKey::IoRead,
        HeadKey::IoWrite,
        HeadKey::WriterTell,
        HeadKey::FreeOp,
    ];

    /// The head key of a term.
    pub fn of(e: &Expr) -> HeadKey {
        match e {
            Expr::Var(_) => HeadKey::Var,
            Expr::Lit(_) => HeadKey::Lit,
            Expr::Prim { .. } => HeadKey::Prim,
            Expr::Extern { .. } => HeadKey::Extern,
            Expr::Let { .. } => HeadKey::Let,
            Expr::Copy(_) => HeadKey::Copy,
            Expr::Stack(_) => HeadKey::Stack,
            Expr::If { .. } => HeadKey::If,
            Expr::Pair(..) => HeadKey::Pair,
            Expr::Fst(_) => HeadKey::Fst,
            Expr::Snd(_) => HeadKey::Snd,
            Expr::CellGet(_) => HeadKey::CellGet,
            Expr::CellPut { .. } => HeadKey::CellPut,
            Expr::ArrayLen { .. } => HeadKey::ArrayLen,
            Expr::ArrayGet { .. } => HeadKey::ArrayGet,
            Expr::ArrayPut { .. } => HeadKey::ArrayPut,
            Expr::TableGet { .. } => HeadKey::TableGet,
            Expr::ArrayMap { .. } => HeadKey::ArrayMap,
            Expr::ArrayFold { .. } => HeadKey::ArrayFold,
            Expr::RangeFold { .. } => HeadKey::RangeFold,
            Expr::RangeFoldBreak { .. } => HeadKey::RangeFoldBreak,
            Expr::RangeFoldM { .. } => HeadKey::RangeFoldM,
            Expr::Ret { .. } => HeadKey::Ret,
            Expr::Bind { .. } => HeadKey::Bind,
            Expr::NondetBytes { .. } => HeadKey::NondetBytes,
            Expr::NondetWord { .. } => HeadKey::NondetWord,
            Expr::IoRead => HeadKey::IoRead,
            Expr::IoWrite(_) => HeadKey::IoWrite,
            Expr::WriterTell(_) => HeadKey::WriterTell,
            Expr::FreeOp { .. } => HeadKey::FreeOp,
        }
    }
}

/// A lemma's dispatch declaration: the set of goal heads it can possibly
/// match.
///
/// This is an *applicability bound*, not a semantic contract: declaring
/// `Heads(&[HeadKey::Let])` promises that `try_apply` returns `None` for
/// every goal whose head is not `Let`, so the engine may skip the call.
/// Declaring a head the lemma then declines is fine (the engine just pays
/// the call); omitting a head the lemma *would* match is a dispatch bug —
/// the equivalence battery (indexed vs forced-linear byte-identical
/// derivations) exists to catch exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// The lemma may match any goal; it is consulted for every head (the
    /// default, always safe).
    Wildcard,
    /// The lemma can only match goals whose head is in the given set.
    Heads(&'static [HeadKey]),
}

fn head_key_from_usize(i: usize) -> HeadKey {
    HeadKey::ALL[i]
}

impl Dispatch {
    fn admits(self, head: HeadKey) -> bool {
        match self {
            Dispatch::Wildcard => true,
            Dispatch::Heads(hs) => hs.contains(&head),
        }
    }
}

/// How the engine walks a hint database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Per-head lemma index (the default): for each goal, only the lemmas
    /// whose [`Dispatch`] admits the goal's head are tried, in registration
    /// order. Provably order-preserving: the index for each head is the
    /// registration sequence with non-matching lemmas removed, and removed
    /// lemmas are exactly those whose `try_apply` would have returned
    /// `None`.
    #[default]
    Indexed,
    /// Every lemma is tried in registration order for every goal, and the
    /// side-condition memo cache is disabled; nothing else about the engine
    /// changes. This is the oracle the equivalence battery compares
    /// [`DispatchMode::Indexed`] against, and the `linear` row of the
    /// `speed` harness.
    Linear,
}

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

    /// The goal heads this lemma can match (see [`Dispatch`]). The default
    /// is [`Dispatch::Wildcard`] — always sound, never skipped.
    fn dispatch(&self) -> Dispatch {
        Dispatch::Wildcard
    }
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

    /// The term heads this lemma can match (see [`Dispatch`]). The default
    /// is [`Dispatch::Wildcard`].
    fn dispatch(&self) -> Dispatch {
        Dispatch::Wildcard
    }
}

/// The hint databases making up a compiler: statement lemmas, expression
/// lemmas, and side-condition solvers, each tried in registration order.
#[derive(Clone)]
pub struct HintDbs {
    stmt: Vec<Arc<dyn StmtLemma>>,
    expr: Vec<Arc<dyn ExprLemma>>,
    solvers: Vec<Arc<dyn SideSolver>>,
    mode: DispatchMode,
    solver_memo: bool,
    /// Per-head candidate lists: `stmt_index[head as usize]` holds the
    /// indices (into `stmt`) of the lemmas whose dispatch admits `head`, in
    /// registration order. Rebuilt on every registration.
    stmt_index: Vec<Vec<u32>>,
    expr_index: Vec<Vec<u32>>,
    /// Identity orders, used in [`DispatchMode::Linear`].
    stmt_all: Vec<u32>,
    expr_all: Vec<u32>,
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
            mode: DispatchMode::Indexed,
            solver_memo: true,
            stmt_index: vec![Vec::new(); HeadKey::COUNT],
            expr_index: vec![Vec::new(); HeadKey::COUNT],
            stmt_all: Vec::new(),
            expr_all: Vec::new(),
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
        // Appending preserves the order of everything already indexed, so
        // the buckets extend incrementally — no full rebuild.
        let i = self.stmt.len() as u32;
        let dispatch = lemma.dispatch();
        self.stmt.push(lemma);
        self.stmt_all.push(i);
        for (h, bucket) in self.stmt_index.iter_mut().enumerate() {
            if dispatch.admits(head_key_from_usize(h)) {
                bucket.push(i);
            }
        }
        self
    }

    /// Registers a statement lemma ahead of existing ones (a
    /// program-specific override).
    pub fn register_stmt_front<L: StmtLemma + 'static>(&mut self, lemma: L) -> &mut Self {
        self.stmt.insert(0, Arc::new(lemma));
        self.rebuild_stmt_index();
        self
    }

    /// Registers an expression lemma.
    pub fn register_expr<L: ExprLemma + 'static>(&mut self, lemma: L) -> &mut Self {
        self.register_expr_arc(Arc::new(lemma))
    }

    /// Registers an already-boxed expression lemma (see
    /// [`HintDbs::register_stmt_arc`]).
    pub fn register_expr_arc(&mut self, lemma: Arc<dyn ExprLemma>) -> &mut Self {
        let i = self.expr.len() as u32;
        let dispatch = lemma.dispatch();
        self.expr.push(lemma);
        self.expr_all.push(i);
        for (h, bucket) in self.expr_index.iter_mut().enumerate() {
            if dispatch.admits(head_key_from_usize(h)) {
                bucket.push(i);
            }
        }
        self
    }

    /// Registers an expression lemma ahead of existing ones.
    pub fn register_expr_front<L: ExprLemma + 'static>(&mut self, lemma: L) -> &mut Self {
        self.expr.insert(0, Arc::new(lemma));
        self.rebuild_expr_index();
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

    /// Sets how the engine walks this database (see [`DispatchMode`]).
    /// [`DispatchMode::Linear`] also disables the side-condition memo
    /// cache.
    pub fn set_dispatch_mode(&mut self, mode: DispatchMode) -> &mut Self {
        self.mode = mode;
        self
    }

    /// The active dispatch mode.
    pub fn dispatch_mode(&self) -> DispatchMode {
        self.mode
    }

    /// Enables/disables the engine's side-condition memo cache for runs
    /// using this database (default: enabled). Disable it when registering
    /// *stateful* solvers whose verdict is not a pure function of
    /// `(cond, hyps)`.
    pub fn set_solver_memo(&mut self, enabled: bool) -> &mut Self {
        self.solver_memo = enabled;
        self
    }

    /// Whether runs using this database memoize side-condition discharges.
    /// False in [`DispatchMode::Linear`] regardless of the flag.
    pub fn solver_memo_enabled(&self) -> bool {
        self.solver_memo && self.mode == DispatchMode::Indexed
    }

    fn rebuild_stmt_index(&mut self) {
        self.stmt_all = (0..self.stmt.len() as u32).collect();
        for (h, bucket) in self.stmt_index.iter_mut().enumerate() {
            bucket.clear();
            let head = head_key_from_usize(h);
            bucket.extend(
                self.stmt
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.dispatch().admits(head))
                    .map(|(i, _)| i as u32),
            );
        }
    }

    fn rebuild_expr_index(&mut self) {
        self.expr_all = (0..self.expr.len() as u32).collect();
        for (h, bucket) in self.expr_index.iter_mut().enumerate() {
            bucket.clear();
            let head = head_key_from_usize(h);
            bucket.extend(
                self.expr
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.dispatch().admits(head))
                    .map(|(i, _)| i as u32),
            );
        }
    }

    /// The statement-lemma try order for a goal with program `prog`:
    /// indices into [`HintDbs::stmt_lemmas`], in registration order, with
    /// (in [`DispatchMode::Indexed`]) lemmas that cannot match the head
    /// removed.
    pub fn stmt_order(&self, prog: &Expr) -> &[u32] {
        match self.mode {
            DispatchMode::Linear => &self.stmt_all,
            DispatchMode::Indexed => &self.stmt_index[HeadKey::of(prog) as usize],
        }
    }

    /// The expression-lemma try order for `term` (see
    /// [`HintDbs::stmt_order`]).
    pub fn expr_order(&self, term: &Expr) -> &[u32] {
        match self.mode {
            DispatchMode::Linear => &self.expr_all,
            DispatchMode::Indexed => &self.expr_index[HeadKey::of(term) as usize],
        }
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
    /// expression-lemma names, then solver names, then the dispatch mode
    /// and effective memo flag.
    ///
    /// Two databases with equal identity strings consult the same lemmas
    /// and solvers in the same order under the same engine configuration —
    /// exactly the property the persistent artifact store's fingerprint
    /// needs: reordering lemmas, adding or removing one, switching
    /// [`DispatchMode`], or toggling the memo cache all change the string,
    /// so a cached artifact can never be served for a *different* compiler
    /// than the one that produced it. (Lemma *names* stand in for lemma
    /// *behavior*; a behavioral change under an unchanged name is caught
    /// by the verify-on-load checker pass instead.)
    pub fn identity_string(&self) -> String {
        use std::fmt::Write as _;
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
        let _ = write!(
            s,
            ";mode={:?};memo={}",
            self.mode,
            self.solver_memo_enabled()
        );
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
