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

use crate::pmap::PMap;
use rupicola_lang::intern::structural_hash;
use rupicola_lang::{Expr, Ident, MonadKind};
use rupicola_sep::{HeapletId, SymHeap, SymLocals, SymValue};
use std::fmt;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

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

/// One entry of a goal's hypothesis context: the hypothesis behind a
/// shared pointer (so a context and the side-condition records that
/// snapshot it share one copy of each term tree), plus the keys
/// [`HypContext`]'s index files it under: one per free variable of its
/// terms and, for an `EqWord`, one per side. The keys are computed once,
/// when a context first files the entry, so an entry that never enters a
/// context (one decoded from a stored artifact) never pays for them.
/// Equality delegates to the hypothesis itself — the keys are derived
/// data.
#[derive(Debug)]
pub struct HypEntry {
    /// The hypothesis.
    pub hyp: Hyp,
    keys: OnceLock<Box<[u64]>>,
}

/// A shared hypothesis entry. Side-condition records hold their snapshot
/// as `Arc<[HypRef]>`, and solvers read it as `&[HypRef]`.
pub type HypRef = Arc<HypEntry>;

impl HypEntry {
    /// Wraps a hypothesis for a goal context or a side-condition record.
    pub fn shared(hyp: Hyp) -> HypRef {
        Arc::new(HypEntry { hyp, keys: OnceLock::new() })
    }

    /// The index keys, sorted and deduplicated.
    fn keys(&self) -> &[u64] {
        self.keys.get_or_init(|| {
            let (a, b) = self.hyp.terms();
            let mut keys: Vec<u64> =
                a.free_vars().iter().chain(&b.free_vars()).map(|n| name_key(n)).collect();
            if let Hyp::EqWord(a, b) = &self.hyp {
                keys.extend([side_key(a), side_key(b)]);
            }
            keys.sort_unstable();
            keys.dedup();
            keys.into()
        })
    }

    /// Whether either term has a free occurrence of `name`.
    pub fn mentions(&self, name: &str) -> bool {
        let (a, b) = self.hyp.terms();
        a.mentions(name) || b.mentions(name)
    }
}

impl Hyp {
    /// The two terms the hypothesis relates.
    pub fn terms(&self) -> (&Expr, &Expr) {
        let (Hyp::EqWord(a, b) | Hyp::LtU(a, b) | Hyp::LeU(a, b)) = self;
        (a, b)
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

/// The index key of a variable name: even, so no name key equals a side
/// key. Keys are hashes; every query re-checks its candidates exactly, so
/// a collision costs only a filtered candidate.
fn name_key(name: &str) -> u64 {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    h.finish() << 1
}

/// The index key of an equation side: odd. `Expr`'s `Hash` reads each
/// interned subterm's cached hash, so this never walks below the top
/// node's interned children.
fn side_key(term: &Expr) -> u64 {
    structural_hash(term) << 1 | 1
}

/// A goal's hypotheses: an ordered, persistent, indexed context.
///
/// Every compiled statement snapshots its goal, and a straight-line
/// program adds about one hypothesis per statement, so with a flat list
/// each snapshot, drop, rename and lookup would cost O(hypotheses) — the
/// engine's per-statement cost would grow with the program. Here the
/// entries live in a persistent ordered map keyed by insertion sequence
/// number (see [`crate::pmap`]), and a second persistent map indexes them
/// under `(key, sequence number)` for two kinds of key:
///
/// - **name keys**: which entries have a free occurrence of a variable —
///   the entries [`HypContext::shadow`] must rewrite;
/// - **side keys**: which equations have a given term as one side — the
///   steps of `ExprLocal`'s equational chase.
///
/// A snapshot (`clone`) and dropping one are O(1). [`HypContext::push`]
/// and each entry a shadow rewrites cost O(log n), and a rewritten entry
/// keeps its sequence number, hence its position. Both queries answer in
/// hypothesis order and re-check each candidate exactly (keys are hashes),
/// so a lemma scanning a query's answer picks the same candidate a scan
/// of the whole list would. The flat form is built only where a consumer
/// reads the whole list: solver calls and the side-condition records
/// ([`HypContext::snapshot`]).
#[derive(Clone, Default)]
pub struct HypContext {
    entries: PMap<usize, HypRef>,
    index: PMap<(u64, usize), ()>,
    next: usize,
}

impl HypContext {
    /// The empty context.
    pub fn new() -> HypContext {
        HypContext::default()
    }

    /// Number of hypotheses (entries are rewritten in place, never
    /// removed).
    pub fn len(&self) -> usize {
        self.next
    }

    /// Whether there are no hypotheses.
    pub fn is_empty(&self) -> bool {
        self.next == 0
    }

    /// Appends a hypothesis. O(log n).
    pub fn push(&mut self, hyp: Hyp) {
        let seq = self.next;
        self.next += 1;
        self.file(seq, None, HypEntry::shared(hyp));
    }

    /// The hypotheses in order.
    pub fn iter(&self) -> impl Iterator<Item = &HypRef> + '_ {
        self.entries.iter().map(|(_, e)| e)
    }

    /// The hypotheses in order, as one shared slice: the form solvers
    /// read and side-condition records keep. O(n).
    pub fn snapshot(&self) -> Arc<[HypRef]> {
        self.iter().cloned().collect()
    }

    /// The hypotheses with a free occurrence of `name`, in order.
    pub fn mentioning<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a HypRef> + 'a {
        self.keyed(name_key(name)).map(|(_, e)| e).filter(move |e| e.mentions(name))
    }

    /// The `EqWord` hypotheses with `side` as either side, in order.
    pub fn equations_with<'a>(&'a self, side: &'a Expr) -> impl Iterator<Item = &'a HypRef> + 'a {
        self.keyed(side_key(side))
            .map(|(_, e)| e)
            .filter(move |e| matches!(&e.hyp, Hyp::EqWord(a, b) if a == side || b == side))
    }

    /// Rewrites every hypothesis mentioning `name` with `replacement`
    /// substituted for its free occurrences, in place: each rewritten
    /// entry keeps its position. O(log n) per rewritten entry.
    pub fn shadow(&mut self, name: &str, replacement: &Expr) {
        let hits: Vec<(usize, HypRef)> = self
            .keyed(name_key(name))
            .filter(|(_, e)| e.mentions(name))
            .map(|(seq, e)| (seq, Arc::clone(e)))
            .collect();
        let sub = |e: &Expr| rupicola_sep::subst(e, name, replacement);
        for (seq, old) in hits {
            let rewritten = HypEntry::shared(match &old.hyp {
                Hyp::EqWord(a, b) => Hyp::EqWord(sub(a), sub(b)),
                Hyp::LtU(a, b) => Hyp::LtU(sub(a), sub(b)),
                Hyp::LeU(a, b) => Hyp::LeU(sub(a), sub(b)),
            });
            self.file(seq, Some(&old), rewritten);
        }
    }

    /// Files `entry` under `seq`, replacing `old` (the entry there now, if
    /// any): the entry map takes the new entry, and the index gains the
    /// keys only the new entry has and loses those only the old one had.
    fn file(&mut self, seq: usize, old: Option<&HypEntry>, entry: HypRef) {
        let old_keys = old.map_or(&[][..], HypEntry::keys);
        for k in old_keys {
            if entry.keys().binary_search(k).is_err() {
                self.index.remove(&(*k, seq));
            }
        }
        for k in entry.keys() {
            if old_keys.binary_search(k).is_err() {
                self.index.insert((*k, seq), ());
            }
        }
        self.entries.insert(seq, entry);
    }

    /// The entries the index files under `key`, with their sequence
    /// numbers, in order.
    fn keyed(&self, key: u64) -> impl Iterator<Item = (usize, &HypRef)> + '_ {
        self.index
            .range_from(&(key, 0))
            .take_while(move |((k, _), _)| *k == key)
            .filter_map(|((_, seq), _)| Some((*seq, self.entries.get(seq)?)))
    }
}

impl FromIterator<Hyp> for HypContext {
    fn from_iter<I: IntoIterator<Item = Hyp>>(iter: I) -> HypContext {
        let mut ctx = HypContext::new();
        for h in iter {
            ctx.push(h);
        }
        ctx
    }
}

impl PartialEq for HypContext {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for HypContext {}

impl fmt::Debug for HypContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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
    /// Hypotheses available to side-condition solvers (see
    /// [`HypContext`]).
    pub hyps: HypContext,
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
        for v in self.locals.values_mut() {
            if let SymValue::Scalar(_, term) = v {
                if term.mentions(name) {
                    *term = rupicola_sep::subst(term, name, &replacement);
                }
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
        self.hyps.shadow(name, &replacement);
    }

    /// Appends a hypothesis to the context.
    pub fn push_hyp(&mut self, h: Hyp) {
        self.hyps.push(h);
    }

    /// Appends every hypothesis in `hyps` to the context.
    pub fn extend_hyps<I: IntoIterator<Item = Hyp>>(&mut self, hyps: I) {
        for h in hyps {
            self.hyps.push(h);
        }
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
            hyps: [Hyp::EqWord(var("acc"), word_lit(0))].into_iter().collect(),
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
        assert_eq!(g.hyps.iter().next().unwrap().hyp, Hyp::EqWord(var("acc'0"), word_lit(0)));
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
    fn shadow_keeps_a_rewritten_entry_in_place() {
        let mut g = goal_with_acc();
        g.push_hyp(Hyp::LtU(var("i"), var("n")));
        g.push_hyp(Hyp::LeU(var("acc"), var("n")));
        let before = g.clone();
        // `acc = 0` (first) and `acc ≤ n` (last) mention `acc`; the middle
        // entry does not and must stay shared, not re-created.
        g.shadow("acc", "acc'0");
        let hyps: Vec<Hyp> = g.hyps.iter().map(|h| h.hyp.clone()).collect();
        assert_eq!(
            hyps,
            vec![
                Hyp::EqWord(var("acc'0"), word_lit(0)),
                Hyp::LtU(var("i"), var("n")),
                Hyp::LeU(var("acc'0"), var("n")),
            ]
        );
        let middle = |g: &StmtGoal| Arc::clone(g.hyps.iter().nth(1).unwrap());
        assert!(Arc::ptr_eq(&middle(&g), &middle(&before)));
        // The snapshot taken before the shadow still reads the old names.
        assert_eq!(before.hyps.iter().next().unwrap().hyp, Hyp::EqWord(var("acc"), word_lit(0)));
        assert_eq!(g.hyps.mentioning("acc").count(), 0);
        assert_eq!(g.hyps.mentioning("acc'0").count(), 2);
        assert_eq!(g.hyps.mentioning("n").count(), 2);
        assert_eq!(g.hyps.snapshot().len(), 3);
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

