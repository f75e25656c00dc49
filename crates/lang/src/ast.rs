//! Abstract syntax of the lowered-Gallina source language.
//!
//! The language is deliberately restricted — "essentially arithmetic, simple
//! data structures, and some control flow" (§1) — and *annotated*: every
//! `let` carries the name of the variable it binds, which is how the
//! relational compiler decides between mutation and allocation (§3.4.1), and
//! iteration is expressed through a fixed vocabulary of patterns
//! (`ListArray.map`, folds, ranged folds, folds with early exit) for which
//! the compiler has loop lemmas (§3.4.2).

use crate::value::{ElemKind, Value};
use std::fmt;

/// A variable name. Names are semantically transparent annotations: they do
/// not change the meaning of the program but direct code generation.
pub type Ident = String;

/// The ambient monad of a [`Expr::Ret`] / [`Expr::Bind`] node (§3.4.1,
/// "extensional effects").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonadKind {
    /// Nondeterminism: a computation denotes a *set* of results.
    Nondet,
    /// Writer: a computation denotes a result plus accumulated output.
    Writer,
    /// I/O: a computation interacts with an external input/output stream.
    Io,
    /// A generic free monad over externally-interpreted commands
    /// ([`Expr::FreeOp`]).
    Free,
}

impl fmt::Display for MonadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonadKind::Nondet => write!(f, "nondet"),
            MonadKind::Writer => write!(f, "writer"),
            MonadKind::Io => write!(f, "io"),
            MonadKind::Free => write!(f, "free"),
        }
    }
}

/// Pure scalar primitives.
///
/// Operations are grouped by the scalar kind they operate on; casts move
/// between kinds. This mirrors the expression-language scope of Rupicola's
/// relational expression compiler (§4.1.3): "machine words, bytes, Booleans,
/// integers, two representations of natural numbers, and expressions with
/// casts between different types".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimOp {
    // 64-bit machine words (wrapping semantics, as in Bedrock2).
    WAdd,
    WSub,
    WMul,
    /// Unsigned division; division by zero is an evaluation error (the
    /// compiler emits a side condition for it).
    WDivU,
    /// Unsigned remainder; same zero side condition as [`PrimOp::WDivU`].
    WRemU,
    WAnd,
    WOr,
    WXor,
    /// Left shift; shift amounts are taken modulo 64, as in Bedrock2.
    WShl,
    /// Logical right shift (amount modulo 64).
    WShr,
    /// Arithmetic right shift (amount modulo 64).
    WSar,
    /// Unsigned less-than, returning a boolean.
    WLtU,
    /// Signed less-than, returning a boolean.
    WLtS,
    /// Word equality, returning a boolean.
    WEq,
    // Bytes (wrapping 8-bit semantics).
    BAdd,
    BSub,
    BAnd,
    BOr,
    BXor,
    BShl,
    BShr,
    BLtU,
    BEq,
    // Booleans.
    Not,
    BoolAnd,
    BoolOr,
    BoolEq,
    // Natural numbers (unbounded in Gallina; overflow is an eval error).
    NAdd,
    /// Truncated subtraction, as on Gallina naturals (`x - y = 0` if `y > x`).
    NSub,
    NMul,
    NLt,
    NEq,
    // Casts.
    WordOfByte,
    /// Truncating cast.
    ByteOfWord,
    WordOfNat,
    /// The inverse cast; always exact in our `u64` model of naturals.
    NatOfWord,
    WordOfBool,
}

impl PrimOp {
    /// The number of operands the primitive expects.
    pub fn arity(self) -> usize {
        match self {
            PrimOp::Not
            | PrimOp::WordOfByte
            | PrimOp::ByteOfWord
            | PrimOp::WordOfNat
            | PrimOp::NatOfWord
            | PrimOp::WordOfBool => 1,
            _ => 2,
        }
    }

    /// A Gallina-flavoured rendering used by `Display` for expressions.
    pub fn name(self) -> &'static str {
        match self {
            PrimOp::WAdd => "word.add",
            PrimOp::WSub => "word.sub",
            PrimOp::WMul => "word.mul",
            PrimOp::WDivU => "word.divu",
            PrimOp::WRemU => "word.remu",
            PrimOp::WAnd => "word.and",
            PrimOp::WOr => "word.or",
            PrimOp::WXor => "word.xor",
            PrimOp::WShl => "word.slu",
            PrimOp::WShr => "word.sru",
            PrimOp::WSar => "word.srs",
            PrimOp::WLtU => "word.ltu",
            PrimOp::WLtS => "word.lts",
            PrimOp::WEq => "word.eqb",
            PrimOp::BAdd => "byte.add",
            PrimOp::BSub => "byte.sub",
            PrimOp::BAnd => "byte.and",
            PrimOp::BOr => "byte.or",
            PrimOp::BXor => "byte.xor",
            PrimOp::BShl => "byte.shl",
            PrimOp::BShr => "byte.shr",
            PrimOp::BLtU => "byte.ltu",
            PrimOp::BEq => "byte.eqb",
            PrimOp::Not => "negb",
            PrimOp::BoolAnd => "andb",
            PrimOp::BoolOr => "orb",
            PrimOp::BoolEq => "eqb",
            PrimOp::NAdd => "Nat.add",
            PrimOp::NSub => "Nat.sub",
            PrimOp::NMul => "Nat.mul",
            PrimOp::NLt => "Nat.ltb",
            PrimOp::NEq => "Nat.eqb",
            PrimOp::WordOfByte => "word.of_byte",
            PrimOp::ByteOfWord => "byte.of_word",
            PrimOp::WordOfNat => "word.of_nat",
            PrimOp::NatOfWord => "word.to_nat",
            PrimOp::WordOfBool => "word.of_bool",
        }
    }
}

/// An inline (constant) table attached to a [`crate::Model`] (§4.1.2).
///
/// On the Bedrock2 side these become `const` arrays local to the function;
/// at the source level, `InlineTable.get` "is just the function `nth` on
/// lists".
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    /// Name by which [`Expr::TableGet`] refers to the table.
    pub name: Ident,
    /// Element representation.
    pub elem: ElemKind,
    /// Table contents, in the layout of `elem`.
    pub data: Value,
}

impl TableDef {
    /// Builds a byte table.
    pub fn bytes<N: Into<Ident>, I: IntoIterator<Item = u8>>(name: N, data: I) -> Self {
        TableDef {
            name: name.into(),
            elem: ElemKind::Byte,
            data: Value::byte_list(data),
        }
    }

    /// Builds a word table.
    pub fn words<N: Into<Ident>, I: IntoIterator<Item = u64>>(name: N, data: I) -> Self {
        TableDef {
            name: name.into(),
            elem: ElemKind::Word,
            data: Value::word_list(data),
        }
    }

    /// Number of elements in the table.
    pub fn len(&self) -> usize {
        self.data.list_len().unwrap_or(0)
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

pub use crate::intern::ExprRef;

/// Expressions of the lowered-Gallina language.
///
/// Programs meant for compilation are shaped as "sequences of let-bindings,
/// one per desired assignment in the target language" (§3.4.1); the
/// evaluator accepts any well-formed term.
// The manual `PartialEq` below is the derived comparison with subterms
// compared by interned id (see `crate::intern`); equal terms still hash
// equally — the derived `Hash` reads each subterm's cached structural
// hash — so `Hash` (used by the solver memo cache) remains consistent
// with it.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Debug, Clone, Eq, Hash)]
pub enum Expr {
    /// A variable reference.
    Var(Ident),
    /// A literal value.
    Lit(Value),
    /// A pure scalar primitive application.
    Prim { op: PrimOp, args: Vec<Expr> },
    /// A user-registered pure operation (see [`crate::ExternRegistry`]);
    /// the open extension point of the source language.
    Extern { tag: String, args: Vec<Expr> },
    /// `let/n name := value in body` — a named binding. Rebinding the name of
    /// an array-valued variable signals in-place mutation to the compiler.
    Let {
        name: Ident,
        value: ExprRef,
        body: ExprRef,
    },
    /// Forces the bound value to be *copied* rather than mutated in place
    /// (the paper's `copy : ∀α. α → α` annotation). Semantically the
    /// identity.
    Copy(ExprRef),
    /// Requests stack allocation for the wrapped value (§4.1.2). Semantically
    /// the identity.
    Stack(ExprRef),
    /// A conditional.
    If {
        cond: ExprRef,
        then_: ExprRef,
        else_: ExprRef,
    },
    /// Pair construction.
    Pair(ExprRef, ExprRef),
    /// First projection.
    Fst(ExprRef),
    /// Second projection.
    Snd(ExprRef),
    /// Reads a one-word mutable cell (pure model: unwraps the content).
    CellGet(ExprRef),
    /// Writes a one-word mutable cell (pure model: builds a new cell).
    CellPut { cell: ExprRef, val: ExprRef },
    /// `ListArray.length` — list length as a word.
    ArrayLen { elem: ElemKind, arr: ExprRef },
    /// `ListArray.get` — element load; out-of-bounds is an evaluation error
    /// (and a compilation side condition).
    ArrayGet {
        elem: ElemKind,
        arr: ExprRef,
        idx: ExprRef,
    },
    /// `ListArray.put` — pure replacement at an index.
    ArrayPut {
        elem: ElemKind,
        arr: ExprRef,
        idx: ExprRef,
        val: ExprRef,
    },
    /// `InlineTable.get` on a table of the enclosing [`crate::Model`].
    TableGet { table: Ident, idx: ExprRef },
    /// `ListArray.map (fun x => f) arr` — the element variable `x` is bound
    /// in `f`; `f` must produce a scalar of the element kind.
    ArrayMap {
        elem: ElemKind,
        x: Ident,
        f: ExprRef,
        arr: ExprRef,
    },
    /// `List.fold_left (fun acc x => f) arr init`.
    ArrayFold {
        elem: ElemKind,
        acc: Ident,
        x: Ident,
        f: ExprRef,
        init: ExprRef,
        arr: ExprRef,
    },
    /// A ranged fold: `fold i = from .. to-1 over (fun i acc => f)`, the
    /// compilation image of `Nat.iter`-style numeric loops.
    RangeFold {
        i: Ident,
        acc: Ident,
        f: ExprRef,
        init: ExprRef,
        from: ExprRef,
        to: ExprRef,
    },
    /// A ranged fold with early exit: `f` produces `(continue?, acc')`; the
    /// loop stops when `continue?` is false ("iteration patterns … with and
    /// without early exits", §3).
    RangeFoldBreak {
        i: Ident,
        acc: Ident,
        f: ExprRef,
        init: ExprRef,
        from: ExprRef,
        to: ExprRef,
    },
    /// A *monadic* ranged fold: the body `f` is a computation in the
    /// ambient monad (a chain of binds ending in `ret acc'`), so iterations
    /// may perform effects — `fold_range_m from to (fun i acc => …) init`.
    RangeFoldM {
        monad: MonadKind,
        i: Ident,
        acc: Ident,
        f: ExprRef,
        init: ExprRef,
        from: ExprRef,
        to: ExprRef,
    },
    /// Monadic return.
    Ret { monad: MonadKind, value: ExprRef },
    /// Monadic bind: `bind ma (fun name => body)`.
    Bind {
        monad: MonadKind,
        name: Ident,
        ma: ExprRef,
        body: ExprRef,
    },
    /// Nondeterministic allocation: a byte list of the given length with
    /// unspecified contents (Table 1's `alloc`).
    NondetBytes { len: ExprRef },
    /// Nondeterministic choice of a word strictly below the bound (Table 1's
    /// `peek` of an abstract set).
    NondetWord { bound: ExprRef },
    /// Reads one word from the external input stream (io monad).
    IoRead,
    /// Writes one word to the external output stream (io monad).
    IoWrite(ExprRef),
    /// Emits one word of writer output (§3.4.1, writer monad).
    WriterTell(ExprRef),
    /// A command of the free monad, interpreted by the extern registry's
    /// effect handlers.
    FreeOp { tag: String, args: Vec<Expr> },
}

/// Subterm equality in O(1): interned references are equal exactly when
/// their ids are (hash-consing makes structurally equal live terms share
/// one allocation — see [`crate::intern`]). The engine's innermost loops
/// (equational-hypothesis chases, `find_scalar`, heaplet-content lookups,
/// cache-hit confirmation) therefore never walk a tree to compare terms,
/// even for terms built independently on different compilation paths —
/// the case the seed's `Arc::ptr_eq` fast path could not catch. `Expr`'s
/// manual `PartialEq` below answers exactly as the derived structural one
/// would.
fn ref_eq(a: &ExprRef, b: &ExprRef) -> bool {
    a == b
}

impl PartialEq for Expr {
    fn eq(&self, other: &Self) -> bool {
        use Expr::{
            ArrayFold, ArrayGet, ArrayLen, ArrayMap, ArrayPut, Bind, CellGet, CellPut, Copy,
            Extern, FreeOp, Fst, If, IoRead, IoWrite, Let, Lit, NondetBytes, NondetWord, Pair,
            Prim, RangeFold, RangeFoldBreak, RangeFoldM, Ret, Snd, Stack, TableGet, Var,
            WriterTell,
        };
        match (self, other) {
            (Var(a), Var(b)) => a == b,
            (Lit(a), Lit(b)) => a == b,
            (Prim { op: o1, args: a1 }, Prim { op: o2, args: a2 }) => o1 == o2 && a1 == a2,
            (Extern { tag: t1, args: a1 }, Extern { tag: t2, args: a2 })
            | (FreeOp { tag: t1, args: a1 }, FreeOp { tag: t2, args: a2 }) => {
                t1 == t2 && a1 == a2
            }
            (
                Let { name: n1, value: v1, body: b1 },
                Let { name: n2, value: v2, body: b2 },
            ) => n1 == n2 && ref_eq(v1, v2) && ref_eq(b1, b2),
            (Copy(a), Copy(b))
            | (Stack(a), Stack(b))
            | (Fst(a), Fst(b))
            | (Snd(a), Snd(b))
            | (CellGet(a), CellGet(b))
            | (IoWrite(a), IoWrite(b))
            | (WriterTell(a), WriterTell(b)) => ref_eq(a, b),
            (
                If { cond: c1, then_: t1, else_: e1 },
                If { cond: c2, then_: t2, else_: e2 },
            ) => ref_eq(c1, c2) && ref_eq(t1, t2) && ref_eq(e1, e2),
            (Pair(a1, b1), Pair(a2, b2)) => ref_eq(a1, a2) && ref_eq(b1, b2),
            (CellPut { cell: c1, val: v1 }, CellPut { cell: c2, val: v2 }) => {
                ref_eq(c1, c2) && ref_eq(v1, v2)
            }
            (ArrayLen { elem: e1, arr: a1 }, ArrayLen { elem: e2, arr: a2 }) => {
                e1 == e2 && ref_eq(a1, a2)
            }
            (
                ArrayGet { elem: e1, arr: a1, idx: i1 },
                ArrayGet { elem: e2, arr: a2, idx: i2 },
            ) => e1 == e2 && ref_eq(a1, a2) && ref_eq(i1, i2),
            (
                ArrayPut { elem: e1, arr: a1, idx: i1, val: v1 },
                ArrayPut { elem: e2, arr: a2, idx: i2, val: v2 },
            ) => e1 == e2 && ref_eq(a1, a2) && ref_eq(i1, i2) && ref_eq(v1, v2),
            (TableGet { table: t1, idx: i1 }, TableGet { table: t2, idx: i2 }) => {
                t1 == t2 && ref_eq(i1, i2)
            }
            (
                ArrayMap { elem: e1, x: x1, f: f1, arr: a1 },
                ArrayMap { elem: e2, x: x2, f: f2, arr: a2 },
            ) => e1 == e2 && x1 == x2 && ref_eq(f1, f2) && ref_eq(a1, a2),
            (
                ArrayFold { elem: e1, acc: c1, x: x1, f: f1, init: n1, arr: a1 },
                ArrayFold { elem: e2, acc: c2, x: x2, f: f2, init: n2, arr: a2 },
            ) => {
                e1 == e2
                    && c1 == c2
                    && x1 == x2
                    && ref_eq(f1, f2)
                    && ref_eq(n1, n2)
                    && ref_eq(a1, a2)
            }
            (
                RangeFold { i: i1, acc: c1, f: f1, init: n1, from: lo1, to: hi1 },
                RangeFold { i: i2, acc: c2, f: f2, init: n2, from: lo2, to: hi2 },
            )
            | (
                RangeFoldBreak { i: i1, acc: c1, f: f1, init: n1, from: lo1, to: hi1 },
                RangeFoldBreak { i: i2, acc: c2, f: f2, init: n2, from: lo2, to: hi2 },
            ) => {
                i1 == i2
                    && c1 == c2
                    && ref_eq(f1, f2)
                    && ref_eq(n1, n2)
                    && ref_eq(lo1, lo2)
                    && ref_eq(hi1, hi2)
            }
            (
                RangeFoldM { monad: m1, i: i1, acc: c1, f: f1, init: n1, from: lo1, to: hi1 },
                RangeFoldM { monad: m2, i: i2, acc: c2, f: f2, init: n2, from: lo2, to: hi2 },
            ) => {
                m1 == m2
                    && i1 == i2
                    && c1 == c2
                    && ref_eq(f1, f2)
                    && ref_eq(n1, n2)
                    && ref_eq(lo1, lo2)
                    && ref_eq(hi1, hi2)
            }
            (Ret { monad: m1, value: v1 }, Ret { monad: m2, value: v2 }) => {
                m1 == m2 && ref_eq(v1, v2)
            }
            (
                Bind { monad: m1, name: n1, ma: a1, body: b1 },
                Bind { monad: m2, name: n2, ma: a2, body: b2 },
            ) => m1 == m2 && n1 == n2 && ref_eq(a1, a2) && ref_eq(b1, b2),
            (NondetBytes { len: l1 }, NondetBytes { len: l2 }) => ref_eq(l1, l2),
            (NondetWord { bound: b1 }, NondetWord { bound: b2 }) => ref_eq(b1, b2),
            (IoRead, IoRead) => true,
            _ => false,
        }
    }
}

impl Expr {
    /// Wraps `self` in a shared reference (ergonomics for manual AST
    /// construction). Subterms are reference-counted so cloning a term —
    /// which the symbolic-state machinery does constantly — shares
    /// structure instead of deep-copying it.
    pub fn boxed(self) -> ExprRef {
        ExprRef::new(self)
    }

    /// Counts statements: the number of `let`/`bind` spines plus one for the
    /// result, matching the paper's statements-per-second unit (§4.3).
    pub fn statement_count(&self) -> usize {
        match self {
            Expr::Let { body, .. } | Expr::Bind { body, .. } => 1 + body.statement_count(),
            _ => 1,
        }
    }

    /// The set of free variables of the expression, in first-occurrence
    /// order.
    pub fn free_vars(&self) -> Vec<Ident> {
        let mut out = Vec::new();
        let mut bound = Vec::new();
        self.free_vars_into(&mut bound, &mut out);
        out
    }

    /// Whether `name` occurs free in the expression — equivalent to
    /// `free_vars().contains(&name)` without building the set. This sits on
    /// the engine's hot path (every `let` rebinding scans the symbolic
    /// state with it), hence the allocation-free form.
    pub fn mentions(&self, name: &str) -> bool {
        self.mentions_bit(name, crate::intern::name_bit(name))
    }

    /// The exact check behind [`Expr::mentions`], with the name's bloom bit
    /// precomputed so every interned subterm boundary can prune on its
    /// cached occurrence bloom (see [`crate::intern::occ_bloom`]).
    pub(crate) fn mentions_bit(&self, name: &str, bit: u64) -> bool {
        match self {
            Expr::Var(v) => v == name,
            Expr::Lit(_) | Expr::IoRead => false,
            Expr::Prim { args, .. } | Expr::Extern { args, .. } | Expr::FreeOp { args, .. } => {
                args.iter().any(|a| a.mentions_bit(name, bit))
            }
            Expr::Let { name: n, value, body } | Expr::Bind { name: n, ma: value, body, .. } => {
                value.mentions_bit(name, bit) || (n != name && body.mentions_bit(name, bit))
            }
            Expr::Copy(e)
            | Expr::Stack(e)
            | Expr::Fst(e)
            | Expr::Snd(e)
            | Expr::CellGet(e)
            | Expr::IoWrite(e)
            | Expr::WriterTell(e) => e.mentions_bit(name, bit),
            Expr::If { cond, then_, else_ } => {
                cond.mentions_bit(name, bit)
                    || then_.mentions_bit(name, bit)
                    || else_.mentions_bit(name, bit)
            }
            Expr::Pair(a, b) => a.mentions_bit(name, bit) || b.mentions_bit(name, bit),
            Expr::CellPut { cell, val } => {
                cell.mentions_bit(name, bit) || val.mentions_bit(name, bit)
            }
            Expr::ArrayLen { arr, .. } => arr.mentions_bit(name, bit),
            Expr::ArrayGet { arr, idx, .. } => {
                arr.mentions_bit(name, bit) || idx.mentions_bit(name, bit)
            }
            Expr::ArrayPut { arr, idx, val, .. } => {
                arr.mentions_bit(name, bit)
                    || idx.mentions_bit(name, bit)
                    || val.mentions_bit(name, bit)
            }
            Expr::TableGet { idx, .. } => idx.mentions_bit(name, bit),
            Expr::ArrayMap { x, f, arr, .. } => {
                arr.mentions_bit(name, bit) || (x != name && f.mentions_bit(name, bit))
            }
            Expr::ArrayFold { acc, x, f, init, arr, .. } => {
                init.mentions_bit(name, bit)
                    || arr.mentions_bit(name, bit)
                    || (acc != name && x != name && f.mentions_bit(name, bit))
            }
            Expr::RangeFold { i, acc, f, init, from, to }
            | Expr::RangeFoldBreak { i, acc, f, init, from, to }
            | Expr::RangeFoldM { i, acc, f, init, from, to, .. } => {
                init.mentions_bit(name, bit)
                    || from.mentions_bit(name, bit)
                    || to.mentions_bit(name, bit)
                    || (i != name && acc != name && f.mentions_bit(name, bit))
            }
            Expr::Ret { value, .. } => value.mentions_bit(name, bit),
            Expr::NondetBytes { len } => len.mentions_bit(name, bit),
            Expr::NondetWord { bound: b } => b.mentions_bit(name, bit),
        }
    }

    fn free_vars_into(&self, bound: &mut Vec<Ident>, out: &mut Vec<Ident>) {
        let record = |name: &Ident, bound: &[Ident], out: &mut Vec<Ident>| {
            if !bound.contains(name) && !out.contains(name) {
                out.push(name.clone());
            }
        };
        match self {
            Expr::Var(v) => record(v, bound, out),
            Expr::Lit(_) | Expr::IoRead => {}
            Expr::Prim { args, .. } | Expr::Extern { args, .. } | Expr::FreeOp { args, .. } => {
                for a in args {
                    a.free_vars_into(bound, out);
                }
            }
            Expr::Let { name, value, body } | Expr::Bind { name, ma: value, body, .. } => {
                value.free_vars_into(bound, out);
                bound.push(name.clone());
                body.free_vars_into(bound, out);
                bound.pop();
            }
            Expr::Copy(e)
            | Expr::Stack(e)
            | Expr::Fst(e)
            | Expr::Snd(e)
            | Expr::CellGet(e)
            | Expr::IoWrite(e)
            | Expr::WriterTell(e) => e.free_vars_into(bound, out),
            Expr::If { cond, then_, else_ } => {
                cond.free_vars_into(bound, out);
                then_.free_vars_into(bound, out);
                else_.free_vars_into(bound, out);
            }
            Expr::Pair(a, b) => {
                a.free_vars_into(bound, out);
                b.free_vars_into(bound, out);
            }
            Expr::CellPut { cell, val } => {
                cell.free_vars_into(bound, out);
                val.free_vars_into(bound, out);
            }
            Expr::ArrayLen { arr, .. } => arr.free_vars_into(bound, out),
            Expr::ArrayGet { arr, idx, .. } => {
                arr.free_vars_into(bound, out);
                idx.free_vars_into(bound, out);
            }
            Expr::ArrayPut { arr, idx, val, .. } => {
                arr.free_vars_into(bound, out);
                idx.free_vars_into(bound, out);
                val.free_vars_into(bound, out);
            }
            Expr::TableGet { idx, .. } => idx.free_vars_into(bound, out),
            Expr::ArrayMap { x, f, arr, .. } => {
                arr.free_vars_into(bound, out);
                bound.push(x.clone());
                f.free_vars_into(bound, out);
                bound.pop();
            }
            Expr::ArrayFold { acc, x, f, init, arr, .. } => {
                init.free_vars_into(bound, out);
                arr.free_vars_into(bound, out);
                bound.push(acc.clone());
                bound.push(x.clone());
                f.free_vars_into(bound, out);
                bound.pop();
                bound.pop();
            }
            Expr::RangeFold { i, acc, f, init, from, to }
            | Expr::RangeFoldBreak { i, acc, f, init, from, to }
            | Expr::RangeFoldM { i, acc, f, init, from, to, .. } => {
                init.free_vars_into(bound, out);
                from.free_vars_into(bound, out);
                to.free_vars_into(bound, out);
                bound.push(i.clone());
                bound.push(acc.clone());
                f.free_vars_into(bound, out);
                bound.pop();
                bound.pop();
            }
            Expr::Ret { value, .. } => value.free_vars_into(bound, out),
            Expr::NondetBytes { len } => len.free_vars_into(bound, out),
            Expr::NondetWord { bound: b } => b.free_vars_into(bound, out),
        }
    }

    /// Whether the expression syntactically mentions a monadic construct.
    pub fn is_monadic(&self) -> bool {
        matches!(
            self,
            Expr::Ret { .. }
                | Expr::Bind { .. }
                | Expr::RangeFoldM { .. }
                | Expr::NondetBytes { .. }
                | Expr::NondetWord { .. }
                | Expr::IoRead
                | Expr::IoWrite(_)
                | Expr::WriterTell(_)
                | Expr::FreeOp { .. }
        )
    }
}

impl Expr {
    /// Renders `self` into `out`: the one term printer. `Display` is this
    /// function over the `Formatter`; the engine's derivation-focus
    /// helpers call it over a pre-sized `String`, where it monomorphizes
    /// to direct byte pushes with no per-node `Formatter` dispatch
    /// (focus rendering sits on the compiler's hot path).
    ///
    /// # Errors
    ///
    /// Only those `out` reports; writing into a `String` cannot fail.
    pub fn write_into<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match self {
            Expr::Var(v) => out.write_str(v),
            Expr::Lit(v) => write!(out, "{v}"),
            Expr::Prim { op, args } => {
                out.write_str(op.name())?;
                Self::call_into(out, "(", args)
            }
            Expr::Extern { tag, args } | Expr::FreeOp { tag, args } => {
                out.write_str(tag)?;
                Self::call_into(out, "(", args)
            }
            Expr::Let { name, value, body } => {
                write!(out, "let/n {name} := ")?;
                value.write_into(out)?;
                out.write_str(" in ")?;
                body.write_into(out)
            }
            Expr::Copy(e) => Self::call_into(out, "copy(", [&**e]),
            Expr::Stack(e) => Self::call_into(out, "stack(", [&**e]),
            Expr::If { cond, then_, else_ } => {
                out.write_str("if ")?;
                cond.write_into(out)?;
                out.write_str(" then ")?;
                then_.write_into(out)?;
                out.write_str(" else ")?;
                else_.write_into(out)
            }
            Expr::Pair(a, b) => Self::call_into(out, "(", [&**a, &**b]),
            Expr::Fst(e) => Self::call_into(out, "fst(", [&**e]),
            Expr::Snd(e) => Self::call_into(out, "snd(", [&**e]),
            Expr::CellGet(e) => Self::call_into(out, "get(", [&**e]),
            Expr::CellPut { cell, val } => Self::call_into(out, "put(", [&**cell, &**val]),
            Expr::ArrayLen { arr, .. } => Self::call_into(out, "ListArray.length(", [&**arr]),
            Expr::ArrayGet { arr, idx, .. } => {
                Self::call_into(out, "ListArray.get(", [&**arr, &**idx])
            }
            Expr::ArrayPut { arr, idx, val, .. } => {
                Self::call_into(out, "ListArray.put(", [&**arr, &**idx, &**val])
            }
            Expr::TableGet { table, idx } => {
                write!(out, "InlineTable.get({table}, ")?;
                idx.write_into(out)?;
                out.write_char(')')
            }
            Expr::ArrayMap { x, f: fun, arr, .. } => {
                write!(out, "ListArray.map (fun {x} => ")?;
                fun.write_into(out)?;
                out.write_str(") ")?;
                arr.write_into(out)
            }
            Expr::ArrayFold { acc, x, f: fun, init, arr, .. } => {
                write!(out, "List.fold_left (fun {acc} {x} => ")?;
                fun.write_into(out)?;
                out.write_str(") ")?;
                arr.write_into(out)?;
                out.write_char(' ')?;
                init.write_into(out)
            }
            Expr::RangeFold { i, acc, f: fun, init, from, to } => {
                out.write_str("fold_range ")?;
                Self::range_fold_into(out, i, acc, fun, init, from, to)
            }
            Expr::RangeFoldBreak { i, acc, f: fun, init, from, to } => {
                out.write_str("fold_range_break ")?;
                Self::range_fold_into(out, i, acc, fun, init, from, to)
            }
            Expr::RangeFoldM { monad, i, acc, f: fun, init, from, to } => {
                write!(out, "fold_range[{monad}] ")?;
                Self::range_fold_into(out, i, acc, fun, init, from, to)
            }
            Expr::Ret { monad, value } => {
                write!(out, "ret[{monad}] ")?;
                value.write_into(out)
            }
            Expr::Bind { monad, name, ma, body } => {
                write!(out, "let/n! {name} :=[{monad}] ")?;
                ma.write_into(out)?;
                out.write_str(" in ")?;
                body.write_into(out)
            }
            Expr::NondetBytes { len } => Self::call_into(out, "nondet.bytes(", [&**len]),
            Expr::NondetWord { bound } => Self::call_into(out, "nondet.word(< ", [&**bound]),
            Expr::IoRead => out.write_str("io.read()"),
            Expr::IoWrite(e) => Self::call_into(out, "io.write(", [&**e]),
            Expr::WriterTell(e) => Self::call_into(out, "writer.tell(", [&**e]),
        }
    }

    /// Shared shape of call-like renderings: `{open}{a}, {b}, …)`.
    fn call_into<'e, W: fmt::Write + ?Sized>(
        out: &mut W,
        open: &str,
        args: impl IntoIterator<Item = &'e Expr>,
    ) -> fmt::Result {
        out.write_str(open)?;
        for (i, a) in args.into_iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            a.write_into(out)?;
        }
        out.write_char(')')
    }

    /// Shared tail of the three ranged-fold renderings:
    /// `{from} {to} (fun {i} {acc} => {f}) {init}`.
    fn range_fold_into<W: fmt::Write + ?Sized>(
        out: &mut W,
        i: &str,
        acc: &str,
        fun: &Expr,
        init: &Expr,
        from: &Expr,
        to: &Expr,
    ) -> fmt::Result {
        from.write_into(out)?;
        out.write_char(' ')?;
        to.write_into(out)?;
        write!(out, " (fun {i} {acc} => ")?;
        fun.write_into(out)?;
        out.write_str(") ")?;
        init.write_into(out)
    }

    /// Renders `self` to a fresh pre-sized `String` through
    /// [`Expr::write_into`]: the same bytes as `to_string()`, without the
    /// `Formatter` indirection.
    pub fn display_string(&self) -> String {
        let mut s = String::with_capacity(64);
        let _ = self.write_into(&mut s);
        s
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_into(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    #[test]
    fn statement_count_follows_let_spine() {
        let e = let_n("a", word_lit(1), let_n("b", word_lit(2), var("a")));
        assert_eq!(e.statement_count(), 3);
        assert_eq!(word_lit(0).statement_count(), 1);
    }

    #[test]
    fn free_vars_respects_binders() {
        let e = let_n("a", var("x"), word_add(var("a"), var("y")));
        assert_eq!(e.free_vars(), vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn free_vars_of_map_excludes_element_var() {
        let e = array_map_b("b", byte_and(var("b"), var("mask")), var("s"));
        assert_eq!(e.free_vars(), vec!["s".to_string(), "mask".to_string()]);
    }

    #[test]
    fn free_vars_of_fold_excludes_loop_vars() {
        let e = range_fold(
            "i",
            "acc",
            word_add(var("acc"), var("i")),
            word_lit(0),
            word_lit(0),
            var("n"),
        );
        assert_eq!(e.free_vars(), vec!["n".to_string()]);
    }

    #[test]
    fn display_round_trips_names() {
        let e = let_n("s", array_map_b("b", var("b"), var("s")), var("s"));
        let shown = format!("{e}");
        assert!(shown.contains("let/n s"));
        assert!(shown.contains("ListArray.map"));
    }

    #[test]
    fn arity_matches_ops() {
        assert_eq!(PrimOp::Not.arity(), 1);
        assert_eq!(PrimOp::WAdd.arity(), 2);
        assert_eq!(PrimOp::WordOfBool.arity(), 1);
    }
}
