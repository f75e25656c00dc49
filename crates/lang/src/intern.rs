//! Hash-consing interner for [`Expr`] subterms.
//!
//! Every [`ExprRef`] is produced by [`ExprRef::new`], which *interns* the
//! node in a process-wide table: structurally equal terms (whose subterms,
//! being `ExprRef`s themselves, are already interned) share one allocation,
//! carry one precomputed structural hash, and one process-unique id. The
//! engine's innermost loops — equational-hypothesis chases, `find_scalar`,
//! heaplet-content lookups, solver memo-cache keys and confirms — all
//! reduce to id compares and cached-hash reads instead of whole-tree walks.
//!
//! # Invariants
//!
//! Among *live* references the three notions of equality coincide:
//!
//! > `ExprRef` id equality ⟺ allocation (pointer) equality ⟺ structural
//! > equality of the underlying terms.
//!
//! The forward directions are immediate (ids are unique per interned
//! allocation, terms are immutable). The reverse — structurally equal live
//! terms share an allocation — holds because interning is the *only*
//! constructor: a node stays findable in the table for as long as any
//! strong reference exists (the table holds `Weak`s, and `Weak::upgrade`
//! succeeds exactly while the strong count is nonzero), so a second build
//! of an equal term always lands on the first allocation. Dead entries are
//! pruned opportunistically during bucket scans and by an amortized
//! whole-shard sweep, so a long-running server does not leak table slots.
//!
//! # Id stability
//!
//! Ids are assigned by a process-local counter in first-intern order, which
//! depends on thread interleaving under the suite-parallel driver. They are
//! therefore **process-local ephemera**: sound for equality and for keying
//! in-memory caches (analysis fact maps), and
//! *forbidden* in anything persisted or fingerprinted. Serialized artifacts
//! (`codec`) encode structure only and re-intern on decode; service
//! fingerprints are recomputed canonically from rendered bytes (see
//! `rupicola-service::fingerprint` and DESIGN.md §16). The cached
//! *structural hash* is a pure function of the term's structure (it never
//! mixes in ids), so it is deterministic within a process and safe for
//! in-memory tables; it is still not allowed in fingerprints, which must not
//! depend on `DefaultHasher`'s unspecified algorithm.

use crate::ast::Expr;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

/// One interned term: the node itself plus its cached structural hash and
/// process-unique id. Constructed only by [`ExprRef::new`]; the private
/// fields keep it that way.
pub struct ExprNode {
    expr: Expr,
    hash: u64,
    id: u64,
    occ: u64,
}

/// A shared, immutable, *interned* reference to a subterm.
///
/// Replaces the seed's `Arc<Expr>` alias: still a reference-counted pointer
/// (terms are cloned into symbolic goals, hypotheses, and definition chains
/// on nearly every compilation step, and `clone()` is a pointer bump; `Arc`
/// rather than `Rc` keeps models and artifacts `Send + Sync` for the
/// suite-parallel driver), but now hash-consed: `==` is an O(1) id compare
/// and `Hash` writes the precomputed structural hash (see the module doc
/// for the invariant making that sound).
pub struct ExprRef(Arc<ExprNode>);

/// Shard count for the intern table. Power of two; sized so the
/// work-stealing suite driver's workers rarely contend on one lock.
const SHARDS: usize = 64;

/// One shard: hash-bucketed weak references plus the amortized-sweep
/// watermark (when the map outgrows it, dead entries are swept and the
/// watermark doubles — O(1) amortized per insert).
struct Shard {
    map: HashMap<u64, Vec<Weak<ExprNode>>>,
    sweep_at: usize,
}

struct Interner {
    shards: [Mutex<Shard>; SHARDS],
    next_id: AtomicU64,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| {
            Mutex::new(Shard { map: HashMap::new(), sweep_at: 1024 })
        }),
        next_id: AtomicU64::new(1),
    })
}

/// Maps a variable name to its bit in a 64-bit occurrence bloom (FNV-1a,
/// fixed keys — deterministic across processes, though blooms are never
/// persisted anyway).
pub fn name_bit(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    1u64 << (h & 63)
}

/// Conservative variable-occurrence bloom of a term: the union of
/// [`name_bit`] over every `Var` occurrence anywhere in it, bound or free.
/// A clear bit therefore proves the name does not occur at all — in
/// particular that it is not free — which is what lets `mentions` and
/// `subst` skip whole interned subtrees in O(1). (The approximation is
/// one-sided: a set bit says nothing, binders cannot be subtracted from a
/// bloom.) Interned subterms contribute their cached bloom, so computing
/// a node's bloom costs the width of the node, not the size of the tree.
pub fn occ_bloom(e: &Expr) -> u64 {
    use Expr::*;
    let vecs = |args: &[Expr]| args.iter().map(occ_bloom).fold(0, |a, b| a | b);
    match e {
        Var(v) => name_bit(v),
        Lit(_) | IoRead => 0,
        Prim { args, .. } | Extern { args, .. } | FreeOp { args, .. } => vecs(args),
        Let { value, body, .. } => value.occ() | body.occ(),
        Bind { ma, body, .. } => ma.occ() | body.occ(),
        Copy(e) | Stack(e) | Fst(e) | Snd(e) | CellGet(e) | IoWrite(e) | WriterTell(e) => e.occ(),
        If { cond, then_, else_ } => cond.occ() | then_.occ() | else_.occ(),
        Pair(a, b) => a.occ() | b.occ(),
        CellPut { cell, val } => cell.occ() | val.occ(),
        ArrayLen { arr, .. } => arr.occ(),
        ArrayGet { arr, idx, .. } => arr.occ() | idx.occ(),
        ArrayPut { arr, idx, val, .. } => arr.occ() | idx.occ() | val.occ(),
        TableGet { idx, .. } => idx.occ(),
        ArrayMap { f, arr, .. } => f.occ() | arr.occ(),
        ArrayFold { f, init, arr, .. } => f.occ() | init.occ() | arr.occ(),
        RangeFold { f, init, from, to, .. }
        | RangeFoldBreak { f, init, from, to, .. }
        | RangeFoldM { f, init, from, to, .. } => f.occ() | init.occ() | from.occ() | to.occ(),
        Ret { value, .. } => value.occ(),
        NondetBytes { len } => len.occ(),
        NondetWord { bound } => bound.occ(),
    }
}

/// The structural hash of a term: [`Expr`]'s derived `Hash` (which reads
/// each `ExprRef` subterm's *cached* hash, so the walk touches only the
/// top-level node) finished through the std hasher. A pure function of the
/// term's structure — never of ids or addresses.
pub fn structural_hash(expr: &Expr) -> u64 {
    let mut h = DefaultHasher::new();
    expr.hash(&mut h);
    h.finish()
}

impl ExprRef {
    /// Interns `expr`: returns the existing reference if a structurally
    /// equal term is live, otherwise allocates a node with a fresh id.
    /// The equality probe compares subterms by id, so it costs the width
    /// of the top-level node, not the size of the tree.
    pub fn new(expr: Expr) -> ExprRef {
        let hash = structural_hash(&expr);
        let it = interner();
        let shard = &it.shards[(hash as usize) & (SHARDS - 1)];
        let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        let bucket = guard.map.entry(hash).or_default();
        // Scan for a live equal node, pruning dead entries as we go.
        let mut found: Option<Arc<ExprNode>> = None;
        bucket.retain(|w| match w.upgrade() {
            Some(node) => {
                if found.is_none() && node.expr == expr {
                    found = Some(node);
                }
                true
            }
            None => false,
        });
        if let Some(node) = found {
            return ExprRef(node);
        }
        let occ = occ_bloom(&expr);
        let node = Arc::new(ExprNode {
            expr,
            hash,
            id: it.next_id.fetch_add(1, Ordering::Relaxed),
            occ,
        });
        bucket.push(Arc::downgrade(&node));
        if guard.map.len() >= guard.sweep_at {
            guard.map.retain(|_, b| {
                b.retain(|w| w.strong_count() > 0);
                !b.is_empty()
            });
            guard.sweep_at = (guard.map.len() * 2).max(1024);
        }
        ExprRef(node)
    }

    /// The underlying term.
    ///
    /// Inherent (rather than only `AsRef`) so the pervasive
    /// `expr_ref.as_ref()` call sites from the `Arc<Expr>` era keep
    /// resolving to `&Expr` unchanged.
    #[allow(clippy::should_implement_trait)]
    pub fn as_ref(&self) -> &Expr {
        &self.0.expr
    }

    /// The process-unique id (see the module doc for what it may key).
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// The cached structural hash (what `Hash` writes).
    pub fn cached_hash(&self) -> u64 {
        self.0.hash
    }

    /// The cached variable-occurrence bloom (see [`occ_bloom`]).
    pub fn occ(&self) -> u64 {
        self.0.occ
    }

    /// Bloom-pruned [`Expr::mentions`]: a clear bit in the cached
    /// occurrence bloom proves the name does not occur in this subtree,
    /// skipping the walk entirely; otherwise falls through to the exact
    /// binder-aware check. Inherent, so walks that recurse through
    /// `ExprRef` fields prune at every interned boundary.
    pub fn mentions(&self, name: &str) -> bool {
        self.mentions_bit(name, name_bit(name))
    }

    pub(crate) fn mentions_bit(&self, name: &str, bit: u64) -> bool {
        self.0.occ & bit != 0 && self.0.expr.mentions_bit(name, bit)
    }

    /// Allocation identity — by the interning invariant this is equivalent
    /// to `a == b`; exposed for tests asserting the sharing itself.
    pub fn ptr_eq(a: &ExprRef, b: &ExprRef) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Number of live interned nodes currently reachable through the
    /// table (test/diagnostic aid; takes every shard lock in turn).
    pub fn interned_live_count() -> usize {
        let it = interner();
        it.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .map
                    .values()
                    .map(|b| b.iter().filter(|w| w.strong_count() > 0).count())
                    .sum::<usize>()
            })
            .sum()
    }
}

impl Clone for ExprRef {
    fn clone(&self) -> Self {
        ExprRef(Arc::clone(&self.0))
    }
}

impl Deref for ExprRef {
    type Target = Expr;
    fn deref(&self) -> &Expr {
        &self.0.expr
    }
}

impl AsRef<Expr> for ExprRef {
    fn as_ref(&self) -> &Expr {
        &self.0.expr
    }
}

impl std::borrow::Borrow<Expr> for ExprRef {
    fn borrow(&self) -> &Expr {
        &self.0.expr
    }
}

impl PartialEq for ExprRef {
    /// O(1): id equality ⟺ structural equality among live refs.
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}

impl Eq for ExprRef {}

impl Hash for ExprRef {
    /// Writes the cached structural hash — consistent with `==` because
    /// equal ids mean one allocation, hence one cached hash; and equal
    /// structures mean equal ids (interning invariant).
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

/// Transparent: renders exactly as the underlying `Expr`. Ids and hashes
/// are process-local ephemera (see the module doc) and must never leak
/// into rendered output — goldens, error messages, and derivation dumps
/// all go through `Debug`/`Display`.
impl fmt::Debug for ExprRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.expr.fmt(f)
    }
}

impl fmt::Display for ExprRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0.expr, f)
    }
}

impl From<Expr> for ExprRef {
    fn from(e: Expr) -> Self {
        ExprRef::new(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    #[test]
    fn separately_built_equal_terms_share_id_and_allocation() {
        let a = word_add(var("x"), word_lit(1)).boxed();
        let b = word_add(var("x"), word_lit(1)).boxed();
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert!(ExprRef::ptr_eq(&a, &b));
        assert_eq!(a.cached_hash(), b.cached_hash());
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let a = word_add(var("x"), word_lit(1)).boxed();
        let b = word_add(var("x"), word_lit(2)).boxed();
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id());
        assert!(!ExprRef::ptr_eq(&a, &b));
    }

    #[test]
    fn dropped_terms_may_be_reinterned() {
        // After every strong ref dies, re-interning the same structure is
        // allowed to mint a fresh id — the invariant only covers live refs.
        let id0 = {
            let a = word_mul(var("reintern_probe"), word_lit(77)).boxed();
            a.id()
        };
        let b = word_mul(var("reintern_probe"), word_lit(77)).boxed();
        // Either the table still had it (another test raced us) or a fresh
        // id was minted; both are fine — what matters is self-consistency.
        let c = word_mul(var("reintern_probe"), word_lit(77)).boxed();
        assert_eq!(b.id(), c.id());
        let _ = id0;
    }

    #[test]
    fn debug_is_transparent() {
        let a = word_lit(3).boxed();
        assert_eq!(format!("{a:?}"), format!("{:?}", *a));
    }

    #[test]
    fn deep_terms_share_subterms() {
        let a = let_n("t", word_add(var("u"), word_lit(9)), var("t"));
        let b = let_n("t", word_add(var("u"), word_lit(9)), var("t"));
        let (Expr::Let { value: va, .. }, Expr::Let { value: vb, .. }) = (&a, &b) else {
            panic!("shape");
        };
        assert!(ExprRef::ptr_eq(va, vb));
    }
}
