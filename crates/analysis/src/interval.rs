//! Interval-based memory-access analysis with symbolic length bounds.
//!
//! This pass re-proves, from the generated code alone, the property the
//! derivation certifies: every `Load`/`Store` lands inside the
//! separation-logic footprint of the function's precondition, and every
//! inline-table read stays inside its table. It never consults the
//! derivation — it is the derivation-blind second line of defense.
//!
//! # The domain
//!
//! Abstract values are [`AbsVal`]: an unsigned interval ([`Range`]) or a
//! pointer into a footprint region with an interval byte offset. Array
//! extents are symbolic (the element count `L` is a runtime value), so
//! plain constant intervals cannot prove `s[i]` in bounds; upper bounds
//! are therefore three-valued ([`Bound`]):
//!
//! - `Fin(k)` — a constant;
//! - `Sym {region, scale, shift, delta}` — the value is at most
//!   `scale·⌊L ≫ shift⌋ + delta`, where `L` is the element count of
//!   `region`. The representation invariants `delta ≤ 0` and
//!   `scale ≤ elem_bytes·2^shift` make the bound itself at most the
//!   region's byte size, so the arithmetic never wraps in any execution
//!   satisfying the precondition;
//! - `Inf` — unbounded.
//!
//! A guard `i < len` refines `i`'s bound to `Sym{…, delta: -1}` on the
//! taken edge; the access `load1(s + i)` then has end offset
//! `Sym{…, delta: -1} + 1`, i.e. `delta + size ≤ 0` — in bounds for every
//! length. The same mechanism proves `s + 2·i + 1` in bounds under
//! `i < len ≫ 1` (scale/shift) and `s + i + 3` under `i < len − 3` with a
//! `4 ≤ len` hypothesis (delta).

use crate::dataflow::{forward_solve, ForwardAnalysis, Lattice};
use crate::{Finding, FindingKind, Pass};
use rupicola_bedrock::cfg::{Cfg, Stmt, Terminator};
use rupicola_bedrock::{AccessSize, BExpr, BFunction, BinOp, Cmd};
use rupicola_core::goal::{Hyp, HypContext, StmtGoal};
use rupicola_lang::{Expr, ExprRef, Value};
use rupicola_sep::{RegionSize, SymValue};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Upper bound of a [`Range`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// A constant bound.
    Fin(u64),
    /// `scale·⌊L ≫ shift⌋ + delta` where `L` is the element count of
    /// `region`. Invariants: `delta ≤ 0`, `scale ≤ elem_bytes·2^shift`.
    Sym {
        /// The region whose element count bounds the value.
        region: usize,
        /// Multiplier on the (shifted) count.
        scale: u64,
        /// Right shift applied to the count before scaling.
        shift: u32,
        /// Additive slack (non-positive).
        delta: i64,
    },
    /// No known bound.
    Inf,
}

/// An unsigned interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: Bound,
}

impl Range {
    /// The full range `[0, ∞]`.
    pub fn full() -> Range {
        Range { lo: 0, hi: Bound::Inf }
    }

    /// The singleton `[k, k]`.
    pub fn exact(k: u64) -> Range {
        Range { lo: k, hi: Bound::Fin(k) }
    }

    /// The constant interval `[lo, hi]`.
    pub fn of(lo: u64, hi: u64) -> Range {
        Range { lo, hi: Bound::Fin(hi) }
    }

    /// The constant, if the range is a singleton.
    pub fn as_exact(&self) -> Option<u64> {
        match self.hi {
            Bound::Fin(h) if h == self.lo => Some(h),
            _ => None,
        }
    }
}

/// An abstract value.
#[derive(Debug, Clone, PartialEq)]
pub enum AbsVal {
    /// Anything.
    Top,
    /// A number in the given range.
    Num(Range),
    /// A pointer `off` bytes past the base of a footprint region.
    Ptr {
        /// Index into the region table.
        region: usize,
        /// Byte offset range.
        off: Range,
    },
}

/// Extent of a footprint region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeInfo {
    /// Exactly this many bytes (cells, scratch, stack allocations).
    Fixed(u64),
    /// `elem_bytes · L` bytes for a runtime element count `L ≥ min_count`
    /// (arrays whose length is a precondition variable; `min_count` comes
    /// from spec hypotheses such as `4 ≤ len s`).
    Sym {
        /// Hypothesis-derived lower bound on the element count.
        min_count: u64,
    },
}

/// One region of the precondition footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionInfo {
    /// Reporting name (the heaplet's pointer name).
    pub name: String,
    /// Bytes per element (1 for byte arrays/scratch, 8 for word arrays).
    pub elem_bytes: u64,
    /// The extent.
    pub size: SizeInfo,
}

impl RegionInfo {
    /// A guaranteed lower bound on the region's byte size.
    fn min_bytes(&self) -> u64 {
        match self.size {
            SizeInfo::Fixed(n) => n,
            SizeInfo::Sym { min_count } => self.elem_bytes.saturating_mul(min_count),
        }
    }
}

/// The memory environment a function is analyzed under: the footprint
/// regions and the abstract values of the ABI locals at entry.
///
/// [`MemEnv::from_goal`] derives this from a compilation certificate's
/// initial goal; tests construct it by hand for seeded-negative programs.
#[derive(Debug, Clone, Default)]
pub struct MemEnv {
    /// Footprint regions, in heap order.
    pub regions: Vec<RegionInfo>,
    /// Entry-state bindings for function arguments.
    pub entry: Vec<(String, AbsVal)>,
    /// Pairs of regions whose element counts are provably equal, derived
    /// from `EqWord` spec hypotheses such as `len s = len t`. An index
    /// bounded by one region's count then proves accesses into the other —
    /// the paper's "incidental property" pattern (§3.4.2) at lint level.
    pub count_equal: Vec<(usize, usize)>,
}

fn lit_u64(e: &Expr) -> Option<u64> {
    match e {
        Expr::Lit(Value::Word(w)) => Some(*w),
        Expr::Lit(Value::Nat(n)) => Some(*n),
        Expr::Lit(Value::Byte(b)) => Some(u64::from(*b)),
        _ => None,
    }
}

/// Hypothesis-derived constant bounds on source terms, indexed by the
/// *interned id* of the constrained term.
///
/// Built once per goal from its hypothesis snapshot: every hypothesis
/// relating a term to a literal contributes a fact keyed by the term's
/// [`ExprRef`] id (interning the term is how structurally equal facts from
/// different hypotheses land on one key). Queries then cost one intern
/// probe plus a hash lookup instead of a scan over every hypothesis per
/// queried local — the analysis-side leg of the interned-representation
/// refactor (ids are process-local, so the index never outlives the run;
/// see `rupicola-lang::intern`).
struct FactIndex {
    bounds: std::collections::HashMap<u64, (u64, Option<u64>)>,
    /// Keeps the interned keys alive so ids stay stable for the index's
    /// lifetime (a dropped-and-reinterned term may get a fresh id).
    _keys: Vec<ExprRef>,
}

impl FactIndex {
    fn from_hyps(hyps: &HypContext) -> FactIndex {
        let mut bounds: std::collections::HashMap<u64, (u64, Option<u64>)> =
            std::collections::HashMap::new();
        let mut keys = Vec::new();
        // `lo` raises the lower bound, `hi` lowers the upper bound (the
        // same merge rules the pre-index scan applied hypothesis by
        // hypothesis).
        let mut add = |term: &Expr, keys: &mut Vec<ExprRef>, lo: Option<u64>, hi: Option<u64>| {
            let key = ExprRef::new(term.clone());
            let entry = bounds.entry(key.id()).or_insert((0, None));
            if let Some(k) = lo {
                entry.0 = entry.0.max(k);
            }
            if let Some(k) = hi {
                entry.1 = Some(entry.1.map_or(k, |h| h.min(k)));
            }
            keys.push(key);
        };
        for h in hyps.iter() {
            match &h.hyp {
                Hyp::LeU(a, b) => {
                    if let Some(k) = lit_u64(a) {
                        add(b, &mut keys, Some(k), None);
                    }
                    if let Some(k) = lit_u64(b) {
                        add(a, &mut keys, None, Some(k));
                    }
                }
                Hyp::LtU(a, b) => {
                    if let Some(k) = lit_u64(a) {
                        add(b, &mut keys, Some(k.saturating_add(1)), None);
                    }
                    if let Some(k) = lit_u64(b) {
                        add(a, &mut keys, None, Some(k.saturating_sub(1)));
                    }
                }
                Hyp::EqWord(a, b) => {
                    for (t, u) in [(a, b), (b, a)] {
                        if let Some(k) = lit_u64(u) {
                            add(t, &mut keys, Some(k), Some(k));
                        }
                    }
                }
            }
        }
        FactIndex { bounds, _keys: keys }
    }

    /// Constant bounds `(lo, hi)` on `term`, as recorded by the indexed
    /// hypotheses (the same merge rules the pre-index scan applied).
    fn range(&self, term: &Expr) -> (u64, Option<u64>) {
        let key = ExprRef::new(term.clone());
        self.bounds.get(&key.id()).copied().unwrap_or((0, None))
    }
}

impl MemEnv {
    /// Builds the environment from a certificate's initial compilation
    /// goal: the heap's [footprint](rupicola_sep::SymHeap::footprint)
    /// becomes the region table, pointer locals become region bases, and a
    /// local bound to a region's element-count term becomes a symbolic
    /// length with hypothesis-derived `min_count`.
    pub fn from_goal(goal: &StmtGoal) -> MemEnv {
        let facts = FactIndex::from_hyps(&goal.hyps);
        let fp = goal.heap.footprint();
        let mut regions = Vec::new();
        let mut counts: Vec<Option<Expr>> = Vec::new();
        let mut index_of = BTreeMap::new();
        for (i, r) in fp.iter().enumerate() {
            index_of.insert(r.id, i);
            match &r.size {
                RegionSize::Elems { elem, count } => {
                    let (min_count, _) = facts.range(count);
                    regions.push(RegionInfo {
                        name: r.ptr_name.clone(),
                        elem_bytes: elem.width(),
                        size: SizeInfo::Sym { min_count },
                    });
                    counts.push(Some(count.clone()));
                }
                RegionSize::Bytes(n) => {
                    regions.push(RegionInfo {
                        name: r.ptr_name.clone(),
                        elem_bytes: 1,
                        size: SizeInfo::Fixed(*n),
                    });
                    counts.push(None);
                }
            }
        }
        let mut entry = Vec::new();
        for (name, v) in goal.locals.iter() {
            match v {
                SymValue::Ptr(id) => {
                    if let Some(&region) = index_of.get(id) {
                        entry.push((
                            name.to_string(),
                            AbsVal::Ptr { region, off: Range::exact(0) },
                        ));
                    }
                }
                SymValue::Scalar(_, term) => {
                    if let Some(region) =
                        counts.iter().position(|c| c.as_ref() == Some(term))
                    {
                        // A length local: bounded above by the count itself.
                        let lo = match regions[region].size {
                            SizeInfo::Sym { min_count } => min_count,
                            SizeInfo::Fixed(_) => 0,
                        };
                        entry.push((
                            name.to_string(),
                            AbsVal::Num(Range {
                                lo,
                                hi: Bound::Sym { region, scale: 1, shift: 0, delta: 0 },
                            }),
                        ));
                    } else if let Some(k) = lit_u64(term) {
                        entry.push((name.to_string(), AbsVal::Num(Range::exact(k))));
                    } else {
                        let (lo, hi) = facts.range(term);
                        if lo > 0 || hi.is_some() {
                            let hi = hi.map_or(Bound::Inf, Bound::Fin);
                            entry.push((name.to_string(), AbsVal::Num(Range { lo, hi })));
                        }
                    }
                }
            }
        }
        let mut count_equal = Vec::new();
        for h in goal.hyps.iter() {
            if let Hyp::EqWord(a, b) = &h.hyp {
                let find = |t: &Expr| counts.iter().position(|c| c.as_ref() == Some(t));
                if let (Some(i), Some(j)) = (find(a), find(b)) {
                    if i != j {
                        count_equal.push((i, j));
                    }
                }
            }
        }
        MemEnv { regions, entry, count_equal }
    }
}

// ---------------------------------------------------------------------------
// Bound and range arithmetic
// ---------------------------------------------------------------------------

/// Least value the symbolic bound can take, given region minimum counts.
fn sym_min_val(region: usize, scale: u64, shift: u32, delta: i64, regions: &[RegionInfo]) -> u64 {
    let min_count = match regions.get(region).map(|r| r.size) {
        Some(SizeInfo::Sym { min_count }) => min_count,
        _ => 0,
    };
    let base = scale.saturating_mul(min_count >> shift);
    if delta >= 0 {
        base.saturating_add(delta as u64)
    } else {
        base.saturating_sub(delta.unsigned_abs())
    }
}

fn bound_join(a: Bound, b: Bound, regions: &[RegionInfo]) -> Bound {
    use Bound::*;
    match (a, b) {
        (Fin(x), Fin(y)) => Fin(x.max(y)),
        (
            Sym { region: r1, scale: s1, shift: h1, delta: d1 },
            Sym { region: r2, scale: s2, shift: h2, delta: d2 },
        ) if r1 == r2 && s1 == s2 && h1 == h2 => {
            Sym { region: r1, scale: s1, shift: h1, delta: d1.max(d2) }
        }
        (Fin(k), s @ Sym { region, scale, shift, delta })
        | (s @ Sym { region, scale, shift, delta }, Fin(k)) => {
            // The symbolic bound covers the constant iff the constant is at
            // most the bound's guaranteed minimum value.
            if k <= sym_min_val(region, scale, shift, delta, regions) {
                s
            } else {
                Inf
            }
        }
        _ => Inf,
    }
}

fn range_join(a: Range, b: Range, regions: &[RegionInfo]) -> Range {
    Range { lo: a.lo.min(b.lo), hi: bound_join(a.hi, b.hi, regions) }
}

fn val_join(a: &AbsVal, b: &AbsVal, regions: &[RegionInfo]) -> AbsVal {
    match (a, b) {
        (AbsVal::Num(x), AbsVal::Num(y)) => AbsVal::Num(range_join(*x, *y, regions)),
        (AbsVal::Ptr { region: r1, off: o1 }, AbsVal::Ptr { region: r2, off: o2 })
            if r1 == r2 =>
        {
            AbsVal::Ptr { region: *r1, off: range_join(*o1, *o2, regions) }
        }
        _ => AbsVal::Top,
    }
}

fn range_add(a: Range, b: Range) -> Range {
    let Some(lo) = a.lo.checked_add(b.lo) else { return Range::full() };
    let hi = match (a.hi, b.hi) {
        (Bound::Fin(x), Bound::Fin(y)) => x.checked_add(y).map_or(Bound::Inf, Bound::Fin),
        (Bound::Sym { region, scale, shift, delta }, Bound::Fin(k))
        | (Bound::Fin(k), Bound::Sym { region, scale, shift, delta }) => {
            match i64::try_from(k).ok().and_then(|k| delta.checked_add(k)) {
                // `delta ≤ 0` keeps the bound below the region size; a
                // positive slack would let it wrap.
                Some(d) if d <= 0 => Bound::Sym { region, scale, shift, delta: d },
                _ => Bound::Inf,
            }
        }
        _ => Bound::Inf,
    };
    Range { lo, hi }
}

fn range_sub(a: Range, b: Range) -> Range {
    let Some(k) = b.as_exact() else { return Range::full() };
    if a.lo < k {
        // The subtraction may wrap below zero.
        return Range::full();
    }
    let hi = match a.hi {
        Bound::Fin(h) => Bound::Fin(h - k),
        Bound::Sym { region, scale, shift, delta } => {
            match i64::try_from(k).ok().and_then(|k| delta.checked_sub(k)) {
                Some(d) => Bound::Sym { region, scale, shift, delta: d },
                None => Bound::Inf,
            }
        }
        Bound::Inf => Bound::Inf,
    };
    Range { lo: a.lo - k, hi }
}

fn range_mul(a: Range, b: Range, regions: &[RegionInfo]) -> Range {
    let (r, c) = match (a.as_exact(), b.as_exact()) {
        (_, Some(c)) => (a, c),
        (Some(c), _) => (b, c),
        (None, None) => {
            let hi = match (a.hi, b.hi) {
                (Bound::Fin(x), Bound::Fin(y)) => {
                    x.checked_mul(y).map_or(Bound::Inf, Bound::Fin)
                }
                _ => Bound::Inf,
            };
            let lo = a.lo.checked_mul(b.lo);
            return match lo {
                Some(lo) => Range { lo, hi },
                None => Range::full(),
            };
        }
    };
    if c == 0 {
        return Range::exact(0);
    }
    let Some(lo) = r.lo.checked_mul(c) else { return Range::full() };
    let hi = match r.hi {
        Bound::Fin(h) => h.checked_mul(c).map_or(Bound::Inf, Bound::Fin),
        Bound::Sym { region, scale, shift, delta } => {
            let eb = regions.get(region).map_or(0, |r| r.elem_bytes);
            let scaled = scale.checked_mul(c);
            let d = i64::try_from(c).ok().and_then(|c| delta.checked_mul(c));
            match (scaled, d) {
                // `c·value ≤ c·scale·⌊L≫shift⌋ + c·delta` stays wrap-free
                // while the new scale keeps the bound under the region's
                // byte size.
                (Some(s), Some(d)) if eb.checked_shl(shift).is_some_and(|m| s <= m) => {
                    Bound::Sym { region, scale: s, shift, delta: d }
                }
                _ => Bound::Inf,
            }
        }
        Bound::Inf => Bound::Inf,
    };
    Range { lo, hi }
}

/// Smallest all-ones mask covering `m`.
fn bit_mask(m: u64) -> u64 {
    if m == 0 {
        0
    } else {
        u64::MAX >> m.leading_zeros()
    }
}

fn range_bitop(op: BinOp, a: Range, b: Range) -> Range {
    match op {
        BinOp::And => {
            // x & y ≤ min(x, y): any finite operand bound caps the result.
            let hi = match (a.hi, b.hi) {
                (Bound::Fin(x), Bound::Fin(y)) => Bound::Fin(x.min(y)),
                (Bound::Fin(x), _) => Bound::Fin(x),
                (_, Bound::Fin(y)) => Bound::Fin(y),
                (x, Bound::Inf) => x,
                (_, y) => y,
            };
            Range { lo: 0, hi }
        }
        BinOp::Or => match (a.hi, b.hi) {
            (Bound::Fin(x), Bound::Fin(y)) => {
                Range { lo: a.lo.max(b.lo), hi: Bound::Fin(bit_mask(x | y)) }
            }
            _ => Range { lo: a.lo.max(b.lo), hi: Bound::Inf },
        },
        _ => match (a.hi, b.hi) {
            // Xor.
            (Bound::Fin(x), Bound::Fin(y)) => Range { lo: 0, hi: Bound::Fin(bit_mask(x | y)) },
            _ => Range::full(),
        },
    }
}

fn range_shl(a: Range, b: Range, regions: &[RegionInfo]) -> Range {
    // `x << k` (shift counts are mod 64) is exactly `x · 2^(k mod 64)` on
    // wrapping 64-bit words, so the multiply transfer applies — including
    // its symbolic-bound scaling, which a shift-specific transfer would
    // lose: `i·2 → i≪1` strength reduction must not cost the in-bounds
    // proof.
    match b.as_exact() {
        Some(k) => range_mul(a, Range::exact(1u64 << (k & 63)), regions),
        None => Range::full(),
    }
}

fn range_shr(a: Range, b: Range) -> Range {
    match b.as_exact() {
        Some(k) => {
            let k = (k & 63) as u32;
            let hi = match a.hi {
                Bound::Fin(h) => Bound::Fin(h >> k),
                // `(⌊L≫shift⌋) ≫ k = ⌊L ≫ (shift+k)⌋` when the bound is the
                // raw shifted count (scale 1, no slack).
                Bound::Sym { region, scale: 1, shift, delta: 0 } => {
                    Bound::Sym { region, scale: 1, shift: shift + k, delta: 0 }
                }
                // Shifting right never increases the value, so the old
                // bound remains valid.
                other => other,
            };
            Range { lo: a.lo >> k, hi }
        }
        // Result is at most the dividend.
        None => Range { lo: 0, hi: a.hi },
    }
}

fn range_div(a: Range, b: Range) -> Range {
    match b.as_exact() {
        // RISC-V: division by zero returns all-ones.
        Some(0) => Range::exact(u64::MAX),
        Some(k) => {
            let hi = match a.hi {
                Bound::Fin(h) => Bound::Fin(h / k),
                // quotient ≤ dividend for k ≥ 1.
                other => other,
            };
            Range { lo: a.lo / k, hi }
        }
        None => {
            if b.lo >= 1 {
                Range { lo: 0, hi: a.hi }
            } else {
                Range::full()
            }
        }
    }
}

fn range_rem(a: Range, b: Range) -> Range {
    // rem ≤ dividend always (rem by zero returns the dividend).
    let hi = match (a.hi, b.hi) {
        (Bound::Fin(h), Bound::Fin(k)) if k > 0 => Bound::Fin(h.min(k - 1)),
        (h, Bound::Fin(k)) if k > 0 && b.lo > 0 => match h {
            Bound::Fin(x) => Bound::Fin(x.min(k - 1)),
            _ => Bound::Fin(k - 1),
        },
        (h, _) => h,
    };
    Range { lo: 0, hi }
}

// ---------------------------------------------------------------------------
// The dataflow state
// ---------------------------------------------------------------------------

/// Flow state: abstract values per local, plus which stack regions have
/// been freed on some path (accessing those is a scope escape).
#[derive(Clone, Debug)]
pub struct MemState {
    reachable: bool,
    vars: BTreeMap<String, AbsVal>,
    dead: BTreeSet<usize>,
    /// Shared region table; carried in the state so the lattice join has
    /// the context needed to compare symbolic bounds.
    regions: Arc<Vec<RegionInfo>>,
}

impl MemState {
    fn get(&self, v: &str) -> AbsVal {
        self.vars.get(v).cloned().unwrap_or(AbsVal::Top)
    }
}

impl PartialEq for MemState {
    fn eq(&self, other: &Self) -> bool {
        self.reachable == other.reachable && self.vars == other.vars && self.dead == other.dead
    }
}

impl Lattice for MemState {
    fn join_with(&mut self, other: &Self) -> bool {
        if !other.reachable {
            return false;
        }
        if !self.reachable {
            *self = other.clone();
            return true;
        }
        let mut changed = false;
        let keys: Vec<String> = self.vars.keys().cloned().collect();
        for k in keys {
            let joined = match other.vars.get(&k) {
                Some(ov) => val_join(&self.vars[&k], ov, &self.regions),
                None => AbsVal::Top,
            };
            if joined == AbsVal::Top {
                self.vars.remove(&k);
                changed = true;
            } else if self.vars[&k] != joined {
                self.vars.insert(k, joined);
                changed = true;
            }
        }
        for d in &other.dead {
            changed |= self.dead.insert(*d);
        }
        changed
    }

    fn widen_with(&mut self, other: &Self) -> bool {
        if !other.reachable {
            return false;
        }
        if !self.reachable {
            *self = other.clone();
            return true;
        }
        let before = self.vars.clone();
        let mut changed = self.join_with(other);
        // Any binding still moving after repeated joins gets pushed to its
        // extreme so the ascending chain stabilizes.
        for (k, was) in &before {
            if let Some(now) = self.vars.get(k) {
                if now != was {
                    let widened = match now {
                        AbsVal::Num(_) => AbsVal::Num(Range::full()),
                        AbsVal::Ptr { region, .. } => {
                            AbsVal::Ptr { region: *region, off: Range::full() }
                        }
                        AbsVal::Top => AbsVal::Top,
                    };
                    self.vars.insert(k.clone(), widened);
                    changed = true;
                }
            }
        }
        changed
    }
}

// ---------------------------------------------------------------------------
// The analysis
// ---------------------------------------------------------------------------

struct MemAnalysis<'a> {
    function: &'a BFunction,
    regions: Arc<Vec<RegionInfo>>,
    entry: &'a [(String, AbsVal)],
    /// Region index of each syntactic `stackalloc` site.
    alloc_region_base: usize,
    /// Canonical representative per region under the hypothesis-derived
    /// equal-count relation ([`MemEnv::count_equal`]); identity when no
    /// equalities are known.
    count_class: Vec<usize>,
}

enum Access<'e> {
    Region(AccessSize, &'e BExpr, bool),
    Table(AccessSize, &'e str, &'e BExpr),
}

impl<'a> MemAnalysis<'a> {
    /// Whether two regions have provably equal element counts.
    fn same_count(&self, a: usize, b: usize) -> bool {
        a == b
            || (self.count_class.get(a) == self.count_class.get(b)
                && self.count_class.get(a).is_some())
    }

    fn eval(
        &self,
        expr: &BExpr,
        state: &MemState,
        sink: &mut Option<&mut Vec<Finding>>,
    ) -> AbsVal {
        match expr {
            BExpr::Lit(w) => AbsVal::Num(Range::exact(*w)),
            BExpr::Var(v) => state.get(v),
            BExpr::Load(size, addr) => {
                let a = self.eval(addr, state, sink);
                if let Some(findings) = sink.as_deref_mut() {
                    self.check_access(Access::Region(*size, addr, false), &a, state, findings);
                }
                load_result(*size)
            }
            BExpr::InlineTable { size, table, index } => {
                let i = self.eval(index, state, sink);
                if let Some(findings) = sink.as_deref_mut() {
                    self.check_access(Access::Table(*size, table, index), &i, state, findings);
                }
                load_result(*size)
            }
            BExpr::Op(op, a, b) => {
                let va = self.eval(a, state, sink);
                let vb = self.eval(b, state, sink);
                self.apply(*op, va, vb)
            }
        }
    }

    fn apply(&self, op: BinOp, a: AbsVal, b: AbsVal) -> AbsVal {
        use AbsVal::*;
        let num = |v: &AbsVal| match v {
            Num(r) => Some(*r),
            Top => Some(Range::full()),
            Ptr { .. } => None,
        };
        // Pointer arithmetic: offsets move within the region.
        match (&a, &b, op) {
            (Ptr { region, off }, _, BinOp::Add) => {
                return match num(&b) {
                    Some(nb) => Ptr { region: *region, off: range_add(*off, nb) },
                    None => Top,
                }
            }
            (_, Ptr { region, off }, BinOp::Add) => {
                return match num(&a) {
                    Some(na) => Ptr { region: *region, off: range_add(*off, na) },
                    None => Top,
                }
            }
            (Ptr { region, off }, _, BinOp::Sub) => {
                return match num(&b) {
                    Some(nb) => Ptr { region: *region, off: range_sub(*off, nb) },
                    None => Top,
                }
            }
            _ => {}
        }
        let (Some(ra), Some(rb)) = (num(&a), num(&b)) else { return Top };
        let r = match op {
            BinOp::Add => range_add(ra, rb),
            BinOp::Sub => range_sub(ra, rb),
            BinOp::Mul => range_mul(ra, rb, &self.regions),
            BinOp::MulHuu => Range::full(),
            BinOp::DivU => range_div(ra, rb),
            BinOp::RemU => range_rem(ra, rb),
            BinOp::And | BinOp::Or | BinOp::Xor => range_bitop(op, ra, rb),
            BinOp::Slu => range_shl(ra, rb, &self.regions),
            BinOp::Sru => range_shr(ra, rb),
            BinOp::Srs => match ra.hi {
                // Non-negative as a signed value: behaves like a logical
                // shift.
                Bound::Fin(h) if h < 1 << 63 => range_shr(ra, rb),
                _ => Range::full(),
            },
            BinOp::LtU | BinOp::LtS | BinOp::Eq => Range::of(0, 1),
        };
        Num(r)
    }

    fn check_access(
        &self,
        access: Access<'_>,
        val: &AbsVal,
        state: &MemState,
        findings: &mut Vec<Finding>,
    ) {
        match access {
            Access::Region(size, addr_expr, is_store) => {
                let what = if is_store { "store" } else { "load" };
                let sz = size.bytes();
                let AbsVal::Ptr { region, off } = val else {
                    findings.push(self.finding(
                        FindingKind::UnprovenAccess,
                        format!(
                            "{what}{sz} address `{}` is not provably a pointer into the \
                             precondition footprint",
                            rupicola_bedrock::cprint::expr_to_c(addr_expr)
                        ),
                    ));
                    return;
                };
                let Some(info) = self.regions.get(*region) else {
                    findings.push(self.finding(
                        FindingKind::UnprovenAccess,
                        format!("{what}{sz} targets an unknown region"),
                    ));
                    return;
                };
                if state.dead.contains(region) {
                    findings.push(self.finding(
                        FindingKind::StackScopeEscape,
                        format!(
                            "{what}{sz} into `{}` after its stack allocation scope ended",
                            info.name
                        ),
                    ));
                    return;
                }
                let ok = match (info.size, off.hi) {
                    (SizeInfo::Fixed(n), Bound::Fin(k)) => k.checked_add(sz).is_some_and(|e| e <= n),
                    (SizeInfo::Fixed(_), _) => false,
                    (SizeInfo::Sym { .. }, Bound::Fin(k)) => {
                        // Provable from the hypothesis-derived minimum size
                        // alone.
                        k.checked_add(sz).is_some_and(|e| e <= info.min_bytes())
                    }
                    (SizeInfo::Sym { .. }, Bound::Sym { region: br, scale, shift, delta }) => {
                        // The bound may live in a *different* region whose
                        // element count is hypothesis-equal (`len s = len t`)
                        // — then `scale·⌊L_br≫shift⌋ = scale·⌊L≫shift⌋` and
                        // the same in-bounds argument applies, provided the
                        // element widths agree so the byte extents match.
                        let same_extent = br == *region
                            || (self.same_count(br, *region)
                                && self.regions.get(br).map(|r| r.elem_bytes)
                                    == Some(info.elem_bytes));
                        same_extent
                            && info.elem_bytes.checked_shl(shift).is_some_and(|m| scale <= m)
                            && i64::try_from(sz)
                                .ok()
                                .and_then(|s| delta.checked_add(s))
                                .is_some_and(|end| end <= 0)
                    }
                    (SizeInfo::Sym { .. }, Bound::Inf) => false,
                };
                if !ok {
                    let kind = match (info.size, off.hi) {
                        (SizeInfo::Fixed(_), Bound::Fin(_)) => FindingKind::OutOfFootprint,
                        _ => FindingKind::UnprovenAccess,
                    };
                    let certain = matches!(kind, FindingKind::OutOfFootprint);
                    findings.push(self.finding(
                        kind,
                        format!(
                            "{what}{sz} at `{}` {} region `{}` ({})",
                            rupicola_bedrock::cprint::expr_to_c(addr_expr),
                            if certain { "lands outside" } else { "cannot be proven inside" },
                            info.name,
                            describe_extent(info),
                        ),
                    ));
                    // Fall through: an out-of-bounds access can also be
                    // misaligned, and both findings are useful.
                }
                if sz > 1 && !expr_multiple_of(addr_expr, sz, state) {
                    findings.push(self.finding(
                        FindingKind::Misaligned,
                        format!(
                            "{what}{sz} at `{}` is not provably {sz}-byte aligned",
                            rupicola_bedrock::cprint::expr_to_c(addr_expr)
                        ),
                    ));
                }
            }
            Access::Table(size, table, idx_expr) => {
                let sz = size.bytes();
                let Some(t) = self.function.table(table) else {
                    findings.push(self.finding(
                        FindingKind::UnknownTable { table: table.to_string() },
                        format!("inline-table load from undeclared table `{table}`"),
                    ));
                    return;
                };
                let len = t.data.len() as u64;
                let ok = match val {
                    AbsVal::Num(r) => match r.hi {
                        Bound::Fin(k) => k.checked_add(sz).is_some_and(|e| e <= len),
                        _ => false,
                    },
                    _ => false,
                };
                if !ok {
                    findings.push(self.finding(
                        FindingKind::TableOutOfBounds { table: table.to_string() },
                        format!(
                            "table{sz} read of `{table}` ({len} bytes) at offset `{}` is not \
                             provably in bounds",
                            rupicola_bedrock::cprint::expr_to_c(idx_expr)
                        ),
                    ));
                    return;
                }
                if sz > 1 && !expr_multiple_of(idx_expr, sz, state) {
                    findings.push(self.finding(
                        FindingKind::Misaligned,
                        format!(
                            "table{sz} offset `{}` into `{table}` is not provably a multiple \
                             of {sz}",
                            rupicola_bedrock::cprint::expr_to_c(idx_expr)
                        ),
                    ));
                }
            }
        }
    }

    fn finding(&self, kind: FindingKind, message: String) -> Finding {
        let pass = match kind {
            FindingKind::TableOutOfBounds { .. } | FindingKind::UnknownTable { .. } => {
                Pass::TableBounds
            }
            _ => Pass::MemSafety,
        };
        Finding { pass, kind, function: self.function.name.clone(), site: None, message }
    }

    fn transfer_with(
        &self,
        stmt: &Stmt,
        state: &mut MemState,
        sink: &mut Option<&mut Vec<Finding>>,
    ) {
        if !state.reachable {
            return;
        }
        match stmt {
            Stmt::Set { var, expr, .. } => {
                let v = self.eval(expr, state, sink);
                if v == AbsVal::Top {
                    state.vars.remove(var);
                } else {
                    state.vars.insert(var.clone(), v);
                }
            }
            Stmt::Unset(v) => {
                state.vars.remove(v);
            }
            Stmt::Store(size, addr, val) => {
                let a = self.eval(addr, state, sink);
                let _ = self.eval(val, state, sink);
                if let Some(findings) = sink.as_deref_mut() {
                    self.check_access(Access::Region(*size, addr, true), &a, state, findings);
                }
            }
            Stmt::Call { rets, args, .. } | Stmt::Interact { rets, args, .. } => {
                for a in args {
                    let _ = self.eval(a, state, sink);
                }
                for r in rets {
                    state.vars.remove(r);
                }
            }
            Stmt::AllocEnter { var, site, .. } => {
                let region = self.alloc_region_base + site;
                state.dead.remove(&region);
                state
                    .vars
                    .insert(var.clone(), AbsVal::Ptr { region, off: Range::exact(0) });
            }
            Stmt::AllocExit { site, .. } => {
                state.dead.insert(self.alloc_region_base + site);
            }
        }
    }

    /// Edge refinement from a branch condition.
    fn refine_state(&self, cond: &BExpr, taken: bool, state: &mut MemState) {
        if !state.reachable {
            return;
        }
        let eval_num = |e: &BExpr, st: &MemState| -> Option<Range> {
            match self.eval(e, st, &mut None) {
                AbsVal::Num(r) => Some(r),
                AbsVal::Top => Some(Range::full()),
                AbsVal::Ptr { .. } => None,
            }
        };
        let refine_num = |state: &mut MemState, v: &str, f: &dyn Fn(Range) -> Option<Range>| {
            let cur = match state.get(v) {
                AbsVal::Num(r) => r,
                AbsVal::Top => Range::full(),
                AbsVal::Ptr { .. } => return true,
            };
            match f(cur) {
                Some(r) => {
                    state.vars.insert(v.to_string(), AbsVal::Num(r));
                    true
                }
                // Contradictory refinement: the edge is infeasible.
                None => {
                    state.reachable = false;
                    false
                }
            }
        };
        match cond {
            BExpr::Var(v) => {
                if taken {
                    refine_num(state, v, &|r| {
                        Some(Range { lo: r.lo.max(1), hi: r.hi })
                    });
                } else {
                    refine_num(state, v, &|r| {
                        if r.lo > 0 {
                            None
                        } else {
                            Some(Range::exact(0))
                        }
                    });
                }
            }
            BExpr::Op(BinOp::LtU, a, b) => {
                if let BExpr::Var(v) = &**a {
                    let rb = eval_num(b, state);
                    if let Some(rb) = rb {
                        if taken {
                            // v < b: the bound's predecessor caps v.
                            refine_num(state, v, &|r| {
                                let hi = match rb.hi {
                                    Bound::Fin(0) => return None,
                                    Bound::Fin(k) => {
                                        let k = k - 1;
                                        if k < r.lo {
                                            return None;
                                        }
                                        match r.hi {
                                            Bound::Fin(h) => Bound::Fin(h.min(k)),
                                            _ => Bound::Fin(k),
                                        }
                                    }
                                    Bound::Sym { region, scale, shift, delta } => {
                                        match delta.checked_sub(1) {
                                            Some(d) => Bound::Sym { region, scale, shift, delta: d },
                                            None => r.hi,
                                        }
                                    }
                                    Bound::Inf => r.hi,
                                };
                                Some(Range { lo: r.lo, hi })
                            });
                        } else {
                            // !(v < b): v ≥ b ≥ b.lo.
                            refine_num(state, v, &|r| {
                                Some(Range { lo: r.lo.max(rb.lo), hi: r.hi })
                            });
                        }
                    }
                }
                if let BExpr::Var(v) = &**b {
                    let ra = eval_num(a, state);
                    if let Some(ra) = ra {
                        if taken {
                            // a < v: v ≥ a.lo + 1.
                            refine_num(state, v, &|r| {
                                Some(Range { lo: r.lo.max(ra.lo.saturating_add(1)), hi: r.hi })
                            });
                        } else {
                            // !(a < v): v ≤ a.
                            refine_num(state, v, &|r| {
                                let hi = match (r.hi, ra.hi) {
                                    (Bound::Fin(h), Bound::Fin(k)) => Bound::Fin(h.min(k)),
                                    (_, Bound::Inf) => r.hi,
                                    (_, k) => k,
                                };
                                Some(Range { lo: r.lo, hi })
                            });
                        }
                    }
                }
            }
            BExpr::Op(BinOp::Eq, a, b) if taken => {
                for (v, other) in [(&**a, &**b), (&**b, &**a)] {
                    if let BExpr::Var(v) = v {
                        if let Some(ro) = eval_num(other, state) {
                            refine_num(state, v, &|r| {
                                let hi = match (r.hi, ro.hi) {
                                    (Bound::Fin(h), Bound::Fin(k)) => Bound::Fin(h.min(k)),
                                    (_, Bound::Inf) => r.hi,
                                    (_, k) => k,
                                };
                                Some(Range { lo: r.lo.max(ro.lo), hi })
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

fn load_result(size: AccessSize) -> AbsVal {
    match size {
        AccessSize::Eight => AbsVal::Num(Range::full()),
        s => AbsVal::Num(Range::of(0, (1u64 << (8 * s.bytes())) - 1)),
    }
}

fn describe_extent(info: &RegionInfo) -> String {
    match info.size {
        SizeInfo::Fixed(n) => format!("{n} bytes"),
        SizeInfo::Sym { min_count } => format!(
            "{}·L bytes, L ≥ {min_count}",
            info.elem_bytes
        ),
    }
}

/// Syntactic divisibility: is `e` provably a multiple of `k`?
///
/// Region base pointers count as aligned (the allocator's contract); exact
/// abstract values are checked numerically.
fn expr_multiple_of(e: &BExpr, k: u64, state: &MemState) -> bool {
    if k <= 1 {
        return true;
    }
    match e {
        BExpr::Lit(l) => l % k == 0,
        BExpr::Var(v) => match state.get(v) {
            AbsVal::Ptr { off, .. } => off.as_exact().is_some_and(|o| o % k == 0),
            AbsVal::Num(r) => r.as_exact().is_some_and(|m| m % k == 0),
            AbsVal::Top => false,
        },
        BExpr::Op(BinOp::Add | BinOp::Sub, a, b) => {
            expr_multiple_of(a, k, state) && expr_multiple_of(b, k, state)
        }
        BExpr::Op(BinOp::Mul, a, b) => {
            matches!(&**a, BExpr::Lit(l) if l % k == 0)
                || matches!(&**b, BExpr::Lit(l) if l % k == 0)
                || (expr_multiple_of(a, k, state) || expr_multiple_of(b, k, state))
        }
        BExpr::Op(BinOp::Slu, a, b) => match &**b {
            BExpr::Lit(s) if *s < 64 => {
                (1u64 << s).is_multiple_of(k) || expr_multiple_of(a, k, state)
            }
            _ => false,
        },
        _ => false,
    }
}

impl<'a> ForwardAnalysis for MemAnalysis<'a> {
    type State = MemState;

    fn boundary(&self) -> MemState {
        MemState {
            reachable: true,
            vars: self.entry.iter().cloned().collect(),
            dead: BTreeSet::new(),
            regions: Arc::clone(&self.regions),
        }
    }

    fn bottom(&self) -> MemState {
        MemState {
            reachable: false,
            vars: BTreeMap::new(),
            dead: BTreeSet::new(),
            regions: Arc::clone(&self.regions),
        }
    }

    fn transfer(&self, stmt: &Stmt, state: &mut MemState) {
        self.transfer_with(stmt, state, &mut None);
    }

    fn refine(&self, cond: &BExpr, taken: bool, state: &mut MemState) {
        self.refine_state(cond, taken, state);
    }
}

fn count_alloc_sites(cmd: &Cmd) -> usize {
    match cmd {
        Cmd::StackAlloc { body, .. } => 1 + count_alloc_sites(body),
        Cmd::Seq(a, b) => count_alloc_sites(a) + count_alloc_sites(b),
        Cmd::If { then_, else_, .. } => count_alloc_sites(then_) + count_alloc_sites(else_),
        Cmd::While { body, .. } => count_alloc_sites(body),
        _ => 0,
    }
}

fn alloc_regions(cmd: &Cmd, out: &mut Vec<RegionInfo>) {
    match cmd {
        Cmd::StackAlloc { var, nbytes, body } => {
            out.push(RegionInfo {
                name: format!("stack:{var}"),
                elem_bytes: 1,
                size: SizeInfo::Fixed(*nbytes),
            });
            alloc_regions(body, out);
        }
        Cmd::Seq(a, b) => {
            alloc_regions(a, out);
            alloc_regions(b, out);
        }
        Cmd::If { then_, else_, .. } => {
            alloc_regions(then_, out);
            alloc_regions(else_, out);
        }
        Cmd::While { body, .. } => alloc_regions(body, out),
        _ => {}
    }
}

/// Runs the memory-safety and inline-table lints over one function.
pub fn run(f: &BFunction, env: &MemEnv) -> Vec<Finding> {
    debug_assert_eq!(count_alloc_sites(&f.body), {
        let mut v = Vec::new();
        alloc_regions(&f.body, &mut v);
        v.len()
    });
    let mut all_regions = env.regions.clone();
    let alloc_region_base = all_regions.len();
    alloc_regions(&f.body, &mut all_regions);

    // Close the equal-count pairs into classes (tiny union-find by
    // repeated relabeling — region tables have a handful of entries).
    let mut count_class: Vec<usize> = (0..all_regions.len()).collect();
    for &(a, b) in &env.count_equal {
        if a < count_class.len() && b < count_class.len() {
            let (ca, cb) = (count_class[a], count_class[b]);
            if ca != cb {
                for c in &mut count_class {
                    if *c == cb {
                        *c = ca;
                    }
                }
            }
        }
    }

    let analysis = MemAnalysis {
        function: f,
        regions: Arc::new(all_regions),
        entry: &env.entry,
        alloc_region_base,
        count_class,
    };
    let cfg = Cfg::build(&f.body);
    let sol = forward_solve(&cfg, &analysis);

    // Emission pass: re-walk each block from its fixpoint entry state; every
    // syntactic access site is visited exactly once.
    let mut findings = Vec::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut state = sol.ins[b].clone();
        if !state.reachable {
            continue;
        }
        for stmt in &block.stmts {
            let mut sink = Some(&mut findings);
            analysis.transfer_with(stmt, &mut state, &mut sink);
        }
        if let Terminator::Branch { cond, .. } = &block.term {
            let mut sink = Some(&mut findings);
            let _ = analysis.eval(cond, &state, &mut sink);
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_bedrock::ast::{AccessSize, BinOp, Cmd};

    fn byte_array_env(ptr: &str, len_var: &str, min_count: u64) -> MemEnv {
        MemEnv {
            regions: vec![RegionInfo {
                name: format!("&{ptr}"),
                elem_bytes: 1,
                size: SizeInfo::Sym { min_count },
            }],
            entry: vec![
                (ptr.to_string(), AbsVal::Ptr { region: 0, off: Range::exact(0) }),
                (
                    len_var.to_string(),
                    AbsVal::Num(Range {
                        lo: min_count,
                        hi: Bound::Sym { region: 0, scale: 1, shift: 0, delta: 0 },
                    }),
                ),
            ],
            count_equal: Vec::new(),
        }
    }

    /// `i = 0; while (i < len) { a = load1(s + i); b = load1(t + i); i++ }`
    /// with `len` the count of `s` — `t[i]` needs the equal-count fact.
    fn two_array_loop() -> BFunction {
        BFunction::new(
            "f",
            ["s", "t", "len"],
            Vec::<String>::new(),
            Cmd::seq([
                Cmd::set("i", BExpr::lit(0)),
                Cmd::while_(
                    BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("len")),
                    Cmd::seq([
                        Cmd::set(
                            "a",
                            BExpr::load(
                                AccessSize::One,
                                BExpr::op(BinOp::Add, BExpr::var("s"), BExpr::var("i")),
                            ),
                        ),
                        Cmd::set(
                            "b",
                            BExpr::load(
                                AccessSize::One,
                                BExpr::op(BinOp::Add, BExpr::var("t"), BExpr::var("i")),
                            ),
                        ),
                        Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1))),
                    ]),
                ),
            ]),
        )
    }

    fn two_array_env(count_equal: Vec<(usize, usize)>) -> MemEnv {
        let region = |name: &str| RegionInfo {
            name: name.to_string(),
            elem_bytes: 1,
            size: SizeInfo::Sym { min_count: 0 },
        };
        MemEnv {
            regions: vec![region("&s"), region("&t")],
            entry: vec![
                ("s".to_string(), AbsVal::Ptr { region: 0, off: Range::exact(0) }),
                ("t".to_string(), AbsVal::Ptr { region: 1, off: Range::exact(0) }),
                (
                    "len".to_string(),
                    AbsVal::Num(Range {
                        lo: 0,
                        hi: Bound::Sym { region: 0, scale: 1, shift: 0, delta: 0 },
                    }),
                ),
            ],
            count_equal,
        }
    }

    #[test]
    fn equal_count_hypothesis_proves_the_second_array() {
        // Without the equality, t[i] is unprovable…
        let findings = run(&two_array_loop(), &two_array_env(Vec::new()));
        assert!(
            findings.iter().any(|f| matches!(f.kind, FindingKind::UnprovenAccess)),
            "findings: {findings:?}"
        );
        // …with it, the loop is clean.
        let findings = run(&two_array_loop(), &two_array_env(vec![(0, 1)]));
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    /// `i = 0; while (i < len) { b = load1(s + i); i = i + 1 }`
    fn counted_byte_loop() -> BFunction {
        BFunction::new(
            "f",
            ["s", "len"],
            Vec::<String>::new(),
            Cmd::seq([
                Cmd::set("i", BExpr::lit(0)),
                Cmd::while_(
                    BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("len")),
                    Cmd::seq([
                        Cmd::set(
                            "b",
                            BExpr::load(
                                AccessSize::One,
                                BExpr::op(BinOp::Add, BExpr::var("s"), BExpr::var("i")),
                            ),
                        ),
                        Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1))),
                    ]),
                ),
            ]),
        )
    }

    #[test]
    fn guarded_loop_access_is_clean() {
        let findings = run(&counted_byte_loop(), &byte_array_env("s", "len", 0));
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn load_at_len_flagged() {
        // load1(s + len): one past the end.
        let f = BFunction::new(
            "f",
            ["s", "len"],
            Vec::<String>::new(),
            Cmd::set(
                "x",
                BExpr::load(
                    AccessSize::One,
                    BExpr::op(BinOp::Add, BExpr::var("s"), BExpr::var("len")),
                ),
            ),
        );
        let findings = run(&f, &byte_array_env("s", "len", 0));
        assert!(
            findings.iter().any(|f| matches!(f.kind, FindingKind::UnprovenAccess)),
            "findings: {findings:?}"
        );
    }

    #[test]
    fn literal_address_flagged() {
        let f = BFunction::new(
            "f",
            Vec::<String>::new(),
            Vec::<String>::new(),
            Cmd::set("x", BExpr::load(AccessSize::Eight, BExpr::lit(0x1000))),
        );
        let findings = run(&f, &MemEnv::default());
        assert!(findings.iter().any(|f| matches!(f.kind, FindingKind::UnprovenAccess)));
    }

    #[test]
    fn halved_count_with_scaled_index_is_clean() {
        // n = len >> 1; i = 0; while (i < n) { load1(s + 2*i + 1); i++ }
        let f = BFunction::new(
            "f",
            ["s", "len"],
            Vec::<String>::new(),
            Cmd::seq([
                Cmd::set("n", BExpr::op(BinOp::Sru, BExpr::var("len"), BExpr::lit(1))),
                Cmd::set("i", BExpr::lit(0)),
                Cmd::while_(
                    BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("n")),
                    Cmd::seq([
                        Cmd::set(
                            "x",
                            BExpr::load(
                                AccessSize::One,
                                BExpr::op(
                                    BinOp::Add,
                                    BExpr::var("s"),
                                    BExpr::op(
                                        BinOp::Add,
                                        BExpr::op(BinOp::Mul, BExpr::lit(2), BExpr::var("i")),
                                        BExpr::lit(1),
                                    ),
                                ),
                            ),
                        ),
                        Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1))),
                    ]),
                ),
            ]),
        );
        let findings = run(&f, &byte_array_env("s", "len", 0));
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn shortened_count_with_lookahead_is_clean() {
        // Requires the `4 ≤ len` hypothesis: n = len - 3; while (i < n)
        // { load1(s + i + 3); i++ }.
        let f = BFunction::new(
            "f",
            ["s", "len"],
            Vec::<String>::new(),
            Cmd::seq([
                Cmd::set("n", BExpr::op(BinOp::Sub, BExpr::var("len"), BExpr::lit(3))),
                Cmd::set("i", BExpr::lit(0)),
                Cmd::while_(
                    BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("n")),
                    Cmd::seq([
                        Cmd::set(
                            "x",
                            BExpr::load(
                                AccessSize::One,
                                BExpr::op(
                                    BinOp::Add,
                                    BExpr::op(BinOp::Add, BExpr::var("s"), BExpr::var("i")),
                                    BExpr::lit(3),
                                ),
                            ),
                        ),
                        Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1))),
                    ]),
                ),
            ]),
        );
        let clean = run(&f, &byte_array_env("s", "len", 4));
        assert!(clean.is_empty(), "unexpected findings: {clean:?}");
        // Without the hypothesis, `len - 3` may wrap: must NOT be clean.
        let unhinted = run(&f, &byte_array_env("s", "len", 0));
        assert!(!unhinted.is_empty());
    }

    #[test]
    fn table_oob_literal_flagged() {
        let f = BFunction::new(
            "f",
            Vec::<String>::new(),
            Vec::<String>::new(),
            Cmd::set("x", BExpr::table(AccessSize::One, "T", BExpr::lit(3))),
        )
        .with_table(rupicola_bedrock::BTable { name: "T".into(), data: vec![1, 2, 3] });
        let findings = run(&f, &MemEnv::default());
        assert!(findings
            .iter()
            .any(|f| matches!(&f.kind, FindingKind::TableOutOfBounds { table } if table == "T")));
    }

    #[test]
    fn table_masked_index_is_clean() {
        // load1(T[x & 255]) on a 256-byte table.
        let f = BFunction::new(
            "f",
            ["x"],
            Vec::<String>::new(),
            Cmd::set(
                "y",
                BExpr::table(
                    AccessSize::One,
                    "T",
                    BExpr::op(BinOp::And, BExpr::var("x"), BExpr::lit(255)),
                ),
            ),
        )
        .with_table(rupicola_bedrock::BTable { name: "T".into(), data: vec![0; 256] });
        assert!(run(&f, &MemEnv::default()).is_empty());
    }

    #[test]
    fn unknown_table_flagged() {
        let f = BFunction::new(
            "f",
            Vec::<String>::new(),
            Vec::<String>::new(),
            Cmd::set("x", BExpr::table(AccessSize::One, "NOPE", BExpr::lit(0))),
        );
        let findings = run(&f, &MemEnv::default());
        assert!(findings.iter().any(|f| matches!(&f.kind, FindingKind::UnknownTable { .. })));
    }

    #[test]
    fn stackalloc_in_bounds_clean_and_oob_flagged() {
        let ok = BFunction::new(
            "f",
            Vec::<String>::new(),
            Vec::<String>::new(),
            Cmd::StackAlloc {
                var: "p".into(),
                nbytes: 16,
                body: Box::new(Cmd::store(
                    AccessSize::Eight,
                    BExpr::op(BinOp::Add, BExpr::var("p"), BExpr::lit(8)),
                    BExpr::lit(0),
                )),
            },
        );
        assert!(run(&ok, &MemEnv::default()).is_empty());

        let bad = BFunction::new(
            "f",
            Vec::<String>::new(),
            Vec::<String>::new(),
            Cmd::StackAlloc {
                var: "p".into(),
                nbytes: 16,
                body: Box::new(Cmd::store(
                    AccessSize::Eight,
                    BExpr::op(BinOp::Add, BExpr::var("p"), BExpr::lit(9)),
                    BExpr::lit(0),
                )),
            },
        );
        let findings = run(&bad, &MemEnv::default());
        assert!(findings.iter().any(|f| matches!(f.kind, FindingKind::OutOfFootprint)));
        // offset 9 with an 8-byte store is also misaligned.
        assert!(findings.iter().any(|f| matches!(f.kind, FindingKind::Misaligned)));
    }

    #[test]
    fn stack_scope_escape_flagged() {
        // q escapes the stackalloc scope; the later load is a scope escape.
        let f = BFunction::new(
            "f",
            Vec::<String>::new(),
            Vec::<String>::new(),
            Cmd::seq([
                Cmd::StackAlloc {
                    var: "p".into(),
                    nbytes: 8,
                    body: Box::new(Cmd::set("q", BExpr::var("p"))),
                },
                Cmd::set("x", BExpr::load(AccessSize::One, BExpr::var("q"))),
            ]),
        );
        let findings = run(&f, &MemEnv::default());
        assert!(
            findings.iter().any(|f| matches!(f.kind, FindingKind::StackScopeEscape)),
            "findings: {findings:?}"
        );
    }

    #[test]
    fn unguarded_index_flagged() {
        // load1(s + i) where i is the raw length (no guard).
        let f = BFunction::new(
            "f",
            ["s", "len"],
            Vec::<String>::new(),
            Cmd::set(
                "x",
                BExpr::load(
                    AccessSize::One,
                    BExpr::op(
                        BinOp::Add,
                        BExpr::var("s"),
                        BExpr::op(BinOp::Mul, BExpr::var("len"), BExpr::lit(2)),
                    ),
                ),
            ),
        );
        let findings = run(&f, &byte_array_env("s", "len", 0));
        assert!(!findings.is_empty());
    }
}
