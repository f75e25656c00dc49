//! Compilation goals: the judgments `{t; m; l; σ} ?c {P p}` of §3.3.
//!
//! A [`StmtGoal`] is the statement judgment: it packages the source program
//! remainder `p`, the symbolic machine state reached after the
//! already-derived prefix (locals, heap), the hypotheses learnt along the
//! way, the ambient monad (the lift of §3.4.1), and the postcondition slots
//! describing where results must end up. The Bedrock2 command `?c` is the
//! evar: it is *produced*, not stored in the goal.
//!
//! Hypotheses are the logical context used to discharge side conditions:
//! binding facts (`i = 0`), loop bounds (`i < length s`) and user hints
//! (§3.4.2's "incidental properties").

use rupicola_lang::intern::{name_bit, occ_bloom};
use rupicola_lang::{Expr, Ident, MonadKind};
use rupicola_sep::{HeapletId, SymHeap, SymLocals, SymValue};
use std::fmt;
use std::sync::Arc;

/// A hypothesis: a fact about source terms known to hold at this point.
///
/// All comparisons are on the numeric denotation of scalar terms (words,
/// bytes, naturals and booleans all denote numbers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hyp {
    /// The two terms denote the same number.
    EqWord(Expr, Expr),
    /// Strict unsigned less-than.
    LtU(Expr, Expr),
    /// Unsigned less-than-or-equal.
    LeU(Expr, Expr),
}

impl fmt::Display for Hyp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hyp::EqWord(a, b) => write!(f, "{a} = {b}"),
            Hyp::LtU(a, b) => write!(f, "{a} < {b}"),
            Hyp::LeU(a, b) => write!(f, "{a} ≤ {b}"),
        }
    }
}

/// One entry of a goal's hypothesis snapshot: the hypothesis behind a
/// shared pointer (so snapshotting a goal bumps a reference count per
/// entry instead of deep-copying two term trees), plus the union of the
/// terms' variable-occurrence blooms, computed once at construction.
///
/// The bloom makes [`StmtGoal::shadow`]'s "does this hypothesis mention
/// the rebound name?" test O(1) for the common case (it does not): a
/// clear bit proves the name occurs nowhere in either term. Equality and
/// hashing delegate to the hypothesis itself — the bloom is derived data.
#[derive(Debug)]
pub struct HypEntry {
    /// The hypothesis.
    pub hyp: Hyp,
    occ: u64,
}

/// A shared hypothesis-snapshot entry. `Vec<HypRef>` clones in one memcpy
/// plus a reference-count bump per entry — this is what lets every
/// `let/n` rebinding snapshot a goal with hundreds of accumulated
/// hypotheses without an O(hyps × term-size) copy.
pub type HypRef = Arc<HypEntry>;

impl HypEntry {
    /// Wraps a hypothesis for a goal snapshot, precomputing its
    /// occurrence bloom.
    pub fn shared(hyp: Hyp) -> HypRef {
        let occ = match &hyp {
            Hyp::EqWord(a, b) | Hyp::LtU(a, b) | Hyp::LeU(a, b) => occ_bloom(a) | occ_bloom(b),
        };
        Arc::new(HypEntry { hyp, occ })
    }

    /// Whether either term *may* mention `name` (one-sided: `false` is
    /// definitive, `true` means "check exactly").
    pub fn may_mention(&self, name: &str) -> bool {
        self.occ & name_bit(name) != 0
    }
}

impl PartialEq for HypEntry {
    fn eq(&self, other: &Self) -> bool {
        self.hyp == other.hyp
    }
}

impl Eq for HypEntry {}

impl fmt::Display for HypEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.hyp.fmt(f)
    }
}

/// The evaluation prefix of a goal as a persistent chain: `(name,
/// definition)` equations in binding order, including ghost saves.
///
/// Goals snapshot this on every compiled statement, and for a straight-line
/// program the chain grows one equation per statement — with a `Vec` each
/// snapshot would copy the entire prefix (O(statements²) term clones per
/// compile, the dominant cost the speed harness measured before this
/// representation). The chain is append-only (nothing ever rewrites a
/// recorded definition — `shadow` renames hypotheses and state, not
/// history), so a snapshot is one `Arc` bump and a push is one allocation.
/// Readers that need binding order ([`StmtGoal::binding_defs`]) pay the
/// O(n) walk, which happens only when a loop invariant is recorded.
#[derive(Clone, Default)]
pub struct DefChain {
    head: Option<Arc<DefNode>>,
    len: usize,
}

#[derive(Debug)]
struct DefNode {
    name: Ident,
    value: Expr,
    prev: Option<Arc<DefNode>>,
}

impl DefChain {
    /// The empty chain.
    pub fn new() -> DefChain {
        DefChain::default()
    }

    /// Appends one `(name, definition)` equation. O(1).
    pub fn push(&mut self, entry: (Ident, Expr)) {
        self.head = Some(Arc::new(DefNode { name: entry.0, value: entry.1, prev: self.head.take() }));
        self.len += 1;
    }

    /// Number of recorded equations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no equations are recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The equations in binding (oldest-first) order. O(n).
    pub fn to_vec(&self) -> Vec<(Ident, Expr)> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.head.as_deref();
        while let Some(node) = cur {
            out.push((node.name.clone(), node.value.clone()));
            cur = node.prev.as_deref();
        }
        out.reverse();
        out
    }
}

impl PartialEq for DefChain {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let (mut a, mut b) = (self.head.as_ref(), other.head.as_ref());
        while let (Some(x), Some(y)) = (a, b) {
            if Arc::ptr_eq(x, y) {
                return true; // shared tail: identical from here down
            }
            if x.name != y.name || x.value != y.value {
                return false;
            }
            (a, b) = (x.prev.as_ref(), y.prev.as_ref());
        }
        true
    }
}

impl Eq for DefChain {}

impl FromIterator<(Ident, Expr)> for DefChain {
    fn from_iter<I: IntoIterator<Item = (Ident, Expr)>>(iter: I) -> DefChain {
        let mut chain = DefChain::new();
        for entry in iter {
            chain.push(entry);
        }
        chain
    }
}

impl From<Vec<(Ident, Expr)>> for DefChain {
    fn from(v: Vec<(Ident, Expr)>) -> DefChain {
        v.into_iter().collect()
    }
}

impl fmt::Debug for DefChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.to_vec()).finish()
    }
}

/// A side condition generated during compilation, to be discharged by a
/// registered solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SideCond {
    /// `idx < len` (an index-bounds obligation).
    Lt(Expr, Expr),
    /// `a ≤ b`.
    Le(Expr, Expr),
    /// `term ≠ 0` (e.g. a division guard).
    NonZero(Expr),
}

impl fmt::Display for SideCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SideCond::Lt(a, b) => write!(f, "{a} < {b}"),
            SideCond::Le(a, b) => write!(f, "{a} ≤ {b}"),
            SideCond::NonZero(a) => write!(f, "{a} ≠ 0"),
        }
    }
}

/// The ambient monad of the program being compiled (the lift of §3.4.1).
///
/// `Pure` bindings inside a monadic program are compiled by the same lemmas
/// as in pure programs — the judgment is phrased so that "lemmas about
/// nonmonadic terms apply regardless of the source program's ambient monad".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonadCtx {
    /// No ambient monad.
    #[default]
    Pure,
    /// The given monad, lifted into the postcondition.
    Monadic(MonadKind),
}

impl MonadCtx {
    /// Whether a `Ret`/`Bind` of monad `m` is admissible under this context.
    pub fn admits(self, m: MonadKind) -> bool {
        match self {
            MonadCtx::Pure => false,
            MonadCtx::Monadic(k) => k == m,
        }
    }
}

impl fmt::Display for MonadCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonadCtx::Pure => write!(f, "pure"),
            MonadCtx::Monadic(k) => write!(f, "{k}"),
        }
    }
}

/// Where one component of the final result must end up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetSlot {
    /// A scalar component, assigned to the named Bedrock2 local (which is
    /// one of the function's `rets`).
    ScalarTo(String),
    /// An array or cell component that must reside, at exit, in the given
    /// heaplet (the in-place output of the ABI's ensures clause).
    InHeaplet(HeapletId),
}

/// The postcondition skeleton: one slot per component of the model's result
/// (pairs are flattened left-to-right).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Post {
    /// Result slots, in order.
    pub slots: Vec<RetSlot>,
}

/// The statement-compilation judgment (minus the evar).
#[derive(Debug, Clone, PartialEq)]
pub struct StmtGoal {
    /// The source program remainder.
    pub prog: Expr,
    /// Symbolic Bedrock2 locals.
    pub locals: SymLocals,
    /// Symbolic heap (separation-logic context).
    pub heap: SymHeap,
    /// Hypotheses available to side-condition solvers, as shared
    /// snapshot entries (see [`HypEntry`]).
    pub hyps: Vec<HypRef>,
    /// The ambient monad.
    pub monad: MonadCtx,
    /// Result slots.
    pub post: Post,
    /// The evaluation prefix: `(name, definition)` equations in binding
    /// order, including ghost saves. Re-evaluating this chain from the
    /// function's inputs reconstructs every bound value — the checker uses
    /// it to evaluate loop-invariant terms at runtime. Monadic definitions
    /// are not recorded (they are not re-evaluable offline).
    pub defs: DefChain,
}

impl StmtGoal {
    /// Rebinds source name `name`: every occurrence of `Var name` in the
    /// symbolic state (locals, heap contents and lengths, hypotheses) is
    /// renamed to the ghost `ghost`, preserving meaning, so that `name` can
    /// be re-bound to a new value (the paper's `let/n acc := acc + 1`
    /// pattern).
    pub fn shadow(&mut self, name: &str, ghost: &str) {
        let replacement = Expr::Var(ghost.to_string());
        let sub = |e: &Expr| rupicola_sep::subst(e, name, &replacement);
        let names: Vec<String> = self.locals.iter().map(|(n, _)| n.to_string()).collect();
        for n in names {
            if let Some(SymValue::Scalar(k, term)) = self.locals.get(&n).cloned() {
                self.locals.set(n, SymValue::Scalar(k, sub(&term)));
            }
        }
        let ids: Vec<HeapletId> = self.heap.iter().map(|(id, _)| id).collect();
        for id in ids {
            if let Some(h) = self.heap.get_mut(id) {
                h.content = rupicola_sep::subst(&h.content, name, &replacement);
                if let Some(len) = &h.len {
                    h.len = Some(rupicola_sep::subst(len, name, &replacement));
                }
            }
        }
        for h in &mut self.hyps {
            // Bloom gate: most hypotheses do not mention the rebound name
            // (a straight-line program accumulates one equation per past
            // statement, almost all about other names), and a clear bit
            // proves it without walking either term.
            if !h.may_mention(name) {
                continue;
            }
            let rewritten = match &h.hyp {
                Hyp::EqWord(a, b) => Hyp::EqWord(sub(a), sub(b)),
                Hyp::LtU(a, b) => Hyp::LtU(sub(a), sub(b)),
                Hyp::LeU(a, b) => Hyp::LeU(sub(a), sub(b)),
            };
            *h = HypEntry::shared(rewritten);
        }
    }

    /// Appends a hypothesis to the snapshot.
    pub fn push_hyp(&mut self, h: Hyp) {
        self.hyps.push(HypEntry::shared(h));
    }

    /// Appends every hypothesis in `hyps` to the snapshot.
    pub fn extend_hyps<I: IntoIterator<Item = Hyp>>(&mut self, hyps: I) {
        self.hyps.extend(hyps.into_iter().map(HypEntry::shared));
    }

    /// The `(name, definition)` evaluation prefix (see the `defs` field).
    pub fn binding_defs(&self) -> Vec<(Ident, Expr)> {
        self.defs.to_vec()
    }
}

impl fmt::Display for StmtGoal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{ locals := {}", self.locals)?;
        writeln!(f, "  mem    := {}", self.heap)?;
        if !self.hyps.is_empty() {
            write!(f, "  hyps   := ")?;
            for (i, h) in self.hyps.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                write!(f, "{h}")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "  monad  := {} }}", self.monad)?;
        write!(f, "?c {{ pred ({}) }}", self.prog)
    }
}

/// Flattens a (possibly nested-pair) result term into its components,
/// left-to-right, one level per pair: `(a, (b, c))` becomes `[a, b, c]`.
pub fn flatten_result(term: &Expr) -> Vec<&Expr> {
    match term {
        Expr::Pair(a, b) => {
            let mut out = flatten_result(a);
            out.extend(flatten_result(b));
            out
        }
        other => vec![other],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_lang::dsl::*;
    use rupicola_sep::ScalarKind;

    fn goal_with_acc() -> StmtGoal {
        let mut locals = SymLocals::new();
        locals.set("acc", SymValue::Scalar(ScalarKind::Word, var("acc")));
        StmtGoal {
            prog: var("acc"),
            locals,
            heap: SymHeap::new(),
            hyps: vec![HypEntry::shared(Hyp::EqWord(var("acc"), word_lit(0)))],
            monad: MonadCtx::Pure,
            post: Post::default(),
            defs: vec![("acc".to_string(), word_lit(0))].into(),
        }
    }

    #[test]
    fn shadow_renames_state_not_prog() {
        let mut g = goal_with_acc();
        g.shadow("acc", "acc'0");
        let (term, _) = g.locals.get("acc").unwrap().scalar_term().unwrap();
        assert_eq!(term, &var("acc'0"));
        assert_eq!(g.hyps[0].hyp, Hyp::EqWord(var("acc'0"), word_lit(0)));
        assert_eq!(g.prog, var("acc")); // program text untouched
    }

    #[test]
    fn shadow_rewrites_heap_contents() {
        let mut g = goal_with_acc();
        g.heap.add(rupicola_sep::Heaplet {
            kind: rupicola_sep::HeapletKind::Array { elem: rupicola_lang::ElemKind::Byte },
            content: array_put_b(var("s"), word_lit(0), byte_lit(1)),
            len: Some(array_len_b(var("s"))),
            ptr_name: "&s".into(),
        });
        g.shadow("s", "s'1");
        let (_, h) = g.heap.iter().next().unwrap();
        assert_eq!(h.content, array_put_b(var("s'1"), word_lit(0), byte_lit(1)));
        assert_eq!(h.len, Some(array_len_b(var("s'1"))));
    }

    #[test]
    fn binding_defs_extracts_equations() {
        let g = goal_with_acc();
        assert_eq!(g.binding_defs(), vec![("acc".to_string(), word_lit(0))]);
    }

    #[test]
    fn flatten_result_unnests_pairs() {
        let t = pair(var("a"), pair(var("b"), var("c")));
        let parts = flatten_result(&t);
        assert_eq!(parts, vec![&var("a"), &var("b"), &var("c")]);
        assert_eq!(flatten_result(&var("x")), vec![&var("x")]);
    }

    #[test]
    fn monad_ctx_admits() {
        use rupicola_lang::MonadKind::*;
        assert!(MonadCtx::Monadic(Io).admits(Io));
        assert!(!MonadCtx::Monadic(Io).admits(Writer));
        assert!(!MonadCtx::Pure.admits(Io));
    }

    #[test]
    fn goal_display_mentions_all_parts() {
        let g = goal_with_acc();
        let shown = format!("{g}");
        assert!(shown.contains("locals"));
        assert!(shown.contains("pred (acc)"));
        assert!(shown.contains("acc = 0"));
    }
}
