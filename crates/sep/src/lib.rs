//! Separation-logic symbolic state for relational compilation.
//!
//! During compilation, Rupicola's goals carry "a logical context that
//! captures the state reached after symbolically executing the
//! already-derived prefix of the output program" (§3.4.2). This crate
//! provides that context:
//!
//! - [`SymHeap`] — a separation-logic view of memory as disjoint
//!   *heaplets* (`array p xs ∗ cell q c ∗ r`), each owning a pointer and a
//!   *source-level term* describing its current contents;
//! - [`SymLocals`] — the Bedrock2 locals map, binding each local either to
//!   a scalar source term or to a pointer at a heaplet;
//! - [`ScalarKind`] and kind inference for source terms, used by the
//!   expression compiler and the conditional/loop target classification of
//!   §3.4.2 (step 2: "determine whether it is a scalar or a pointer by
//!   inspecting the current locals and memory predicate").
//!
//! Contents and lengths are [`rupicola_lang::Expr`] terms whose free
//! variables refer to source binders in scope at the current compilation
//! point: lemmas match these terms *syntactically*, which is why the engine
//! keeps precise control over their shape instead of taking strongest
//! postconditions.

use rupicola_lang::{ElemKind, Expr, Ident, PrimOp};
use std::fmt;

/// The kind of a scalar source term (which Bedrock2 represents as one word).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarKind {
    /// A 64-bit machine word.
    Word,
    /// A byte, zero-extended in locals.
    Byte,
    /// A boolean, encoded 0/1.
    Bool,
    /// A natural number, bounded by construction.
    Nat,
    /// The unit value (present only transiently for effect results).
    Unit,
}

impl ScalarKind {
    /// The stable wire/display name of the kind. Used both by `Display`
    /// and by the artifact codec in `rupicola-core`, so it must not change
    /// for already-stored artifacts to keep decoding.
    pub fn as_str(self) -> &'static str {
        match self {
            ScalarKind::Word => "word",
            ScalarKind::Byte => "byte",
            ScalarKind::Bool => "bool",
            ScalarKind::Nat => "nat",
            ScalarKind::Unit => "unit",
        }
    }

    /// Inverse of [`ScalarKind::as_str`].
    pub fn from_str_tag(s: &str) -> Option<ScalarKind> {
        match s {
            "word" => Some(ScalarKind::Word),
            "byte" => Some(ScalarKind::Byte),
            "bool" => Some(ScalarKind::Bool),
            "nat" => Some(ScalarKind::Nat),
            "unit" => Some(ScalarKind::Unit),
            _ => None,
        }
    }
}

impl fmt::Display for ScalarKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// Identifier of a heaplet within a [`SymHeap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HeapletId(usize);

impl fmt::Display for HeapletId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// The shape of a heaplet.
#[derive(Debug, Clone, PartialEq)]
pub enum HeapletKind {
    /// `array p xs`: a flat array of `elem`-sized elements.
    Array {
        /// Element representation.
        elem: ElemKind,
    },
    /// `cell p c`: a single-word mutable cell.
    Cell,
    /// Raw scratch bytes (a stack allocation before initialization).
    Scratch {
        /// Region size in bytes.
        nbytes: u64,
    },
}

/// One separation-logic conjunct: a pointer plus a source-level description
/// of the memory it owns.
#[derive(Debug, Clone, PartialEq)]
pub struct Heaplet {
    /// The shape of the region.
    pub kind: HeapletKind,
    /// Source term for the current contents (an array/cell-valued term).
    pub content: Expr,
    /// Source term for the element count (arrays only). This is the
    /// *structural* length property of §3.4.2: it is carried by the
    /// predicate and survives mutation.
    pub len: Option<Expr>,
    /// A ghost name for the pointer value (e.g. the ABI argument that
    /// supplied it). Used for reporting; code references pointers through
    /// whichever local holds them.
    pub ptr_name: Ident,
}

/// The symbolic heap: an ordered collection of disjoint heaplets (the
/// iterated separating conjunction), plus an implicit frame `r` for
/// everything the function does not own.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymHeap {
    slots: Vec<Option<Heaplet>>,
}

impl SymHeap {
    /// Creates an empty heap (just the frame).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a heaplet, returning its id.
    pub fn add(&mut self, heaplet: Heaplet) -> HeapletId {
        self.slots.push(Some(heaplet));
        HeapletId(self.slots.len() - 1)
    }

    /// Looks up a heaplet.
    pub fn get(&self, id: HeapletId) -> Option<&Heaplet> {
        self.slots.get(id.0).and_then(Option::as_ref)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: HeapletId) -> Option<&mut Heaplet> {
        self.slots.get_mut(id.0).and_then(Option::as_mut)
    }

    /// Removes a heaplet (consumed, e.g. when a stack allocation ends),
    /// returning it.
    pub fn remove(&mut self, id: HeapletId) -> Option<Heaplet> {
        self.slots.get_mut(id.0).and_then(Option::take)
    }

    /// Finds the heaplet whose content term is syntactically `term`.
    ///
    /// This is the engine's core matching operation: "the compiler will look
    /// for a fact of the form `cell ?p (if t then … else …)` — not a
    /// disjunction" (§3.4.2).
    pub fn find_by_content(&self, term: &Expr) -> Option<HeapletId> {
        self.slots
            .iter()
            .position(|h| h.as_ref().is_some_and(|h| &h.content == term))
            .map(HeapletId)
    }

    /// Iterates over live heaplets.
    pub fn iter(&self) -> impl Iterator<Item = (HeapletId, &Heaplet)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.as_ref().map(|h| (HeapletId(i), h)))
    }

    /// Number of live heaplets.
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Whether there are no live heaplets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The extent of one region in a heap footprint ([`RegionFootprint`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RegionSize {
    /// `count` elements of the given kind (`count` is a source-level term;
    /// for function inputs it is typically `ArrayLen(Var(param))`).
    Elems {
        /// Element representation.
        elem: ElemKind,
        /// Source term for the element count.
        count: Expr,
    },
    /// A fixed number of bytes (cells and scratch regions).
    Bytes(u64),
}

/// One entry of a [`SymHeap`]'s footprint: a region the code may access,
/// identified by the heaplet that owns it.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionFootprint {
    /// The owning heaplet.
    pub id: HeapletId,
    /// The ghost pointer name (for reporting).
    pub ptr_name: Ident,
    /// The region's extent.
    pub size: RegionSize,
}

impl SymHeap {
    /// Exports the heap's *footprint*: the extents of all regions the
    /// separation-logic precondition grants access to. This is what an
    /// independent analyzer checks generated memory accesses against —
    /// every `Load`/`Store` must land inside one of these regions.
    pub fn footprint(&self) -> Vec<RegionFootprint> {
        self.iter()
            .map(|(id, h)| RegionFootprint {
                id,
                ptr_name: h.ptr_name.clone(),
                size: match &h.kind {
                    HeapletKind::Array { elem } => match &h.len {
                        Some(count) => RegionSize::Elems { elem: *elem, count: count.clone() },
                        // An array without a length term grants no
                        // statically-known extent.
                        None => RegionSize::Bytes(0),
                    },
                    HeapletKind::Cell => RegionSize::Bytes(8),
                    HeapletKind::Scratch { nbytes } => RegionSize::Bytes(*nbytes),
                },
            })
            .collect()
    }
}

impl fmt::Display for SymHeap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (_, h) in self.iter() {
            if !first {
                write!(f, " ∗ ")?;
            }
            first = false;
            match &h.kind {
                HeapletKind::Array { elem } => {
                    write!(f, "array<{elem}> {} ({})", h.ptr_name, h.content)?;
                }
                HeapletKind::Cell => write!(f, "cell {} ({})", h.ptr_name, h.content)?,
                HeapletKind::Scratch { nbytes } => {
                    write!(f, "scratch {} [{} bytes]", h.ptr_name, nbytes)?;
                }
            }
        }
        if first {
            write!(f, "emp")?;
        }
        write!(f, " ∗ r")
    }
}

/// What a Bedrock2 local denotes.
#[derive(Debug, Clone, PartialEq)]
pub enum SymValue {
    /// A scalar: the local holds the word encoding of this source term.
    Scalar(ScalarKind, Expr),
    /// A pointer: the local holds the address of the given heaplet.
    Ptr(HeapletId),
}

impl SymValue {
    /// The scalar term, if this is a scalar binding.
    pub fn scalar_term(&self) -> Option<(&Expr, ScalarKind)> {
        match self {
            SymValue::Scalar(k, e) => Some((e, *k)),
            SymValue::Ptr(_) => None,
        }
    }

    /// The heaplet id, if this is a pointer binding.
    pub fn ptr(&self) -> Option<HeapletId> {
        match self {
            SymValue::Ptr(id) => Some(*id),
            SymValue::Scalar(..) => None,
        }
    }
}

/// The symbolic Bedrock2 locals map (insertion-ordered, last binding wins).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymLocals {
    entries: Vec<(Ident, SymValue)>,
}

impl SymLocals {
    /// Creates an empty locals map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds (or rebinds) a local.
    pub fn set(&mut self, name: impl Into<Ident>, value: SymValue) {
        let name = name.into();
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| *n == name) {
            e.1 = value;
        } else {
            self.entries.push((name, value));
        }
    }

    /// Looks up a local.
    pub fn get(&self, name: &str) -> Option<&SymValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Removes a local.
    pub fn remove(&mut self, name: &str) -> Option<SymValue> {
        let idx = self.entries.iter().position(|(n, _)| n == name)?;
        Some(self.entries.remove(idx).1)
    }

    /// Finds a local bound to exactly this scalar term.
    pub fn find_scalar(&self, term: &Expr) -> Option<(&str, ScalarKind)> {
        self.entries.iter().find_map(|(n, v)| match v {
            SymValue::Scalar(k, e) if e == term => Some((n.as_str(), *k)),
            _ => None,
        })
    }

    /// Finds the local holding a pointer to the given heaplet.
    pub fn find_ptr(&self, id: HeapletId) -> Option<&str> {
        self.entries.iter().find_map(|(n, v)| match v {
            SymValue::Ptr(h) if *h == id => Some(n.as_str()),
            _ => None,
        })
    }

    /// Iterates over bindings in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SymValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// The bound values, mutably, in insertion order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut SymValue> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for SymLocals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match v {
                SymValue::Scalar(k, e) => write!(f, "\"{n}\": {e} : {k}")?,
                SymValue::Ptr(id) => write!(f, "\"{n}\": &{id}")?,
            }
        }
        write!(f, "}}")
    }
}

/// Capture-avoiding substitution of `replacement` for free occurrences of
/// `var` in `term`.
///
/// Used when re-expressing heaplet contents in the scope of a continuation
/// (e.g. after `let/n s := … in k`, the content term becomes `s`).
pub fn subst(term: &Expr, var: &str, replacement: &Expr) -> Expr {
    use Expr::*;
    // A subtree that never mentions `var` (bound or free — `mentions` is
    // an over-approximation of "has a free occurrence") substitutes to
    // itself. Returning the clone directly keeps the subtree's interned
    // nodes instead of reconstructing and re-probing the whole spine;
    // `mentions` short-circuits on the first hit, so touched spines pay
    // one extra cheap walk and untouched ones pay nothing deeper.
    if !term.mentions(var) {
        return term.clone();
    }
    let s = |e: &Expr| subst(e, var, replacement);
    let sb = |e: &Expr| subst(e, var, replacement).boxed();
    match term {
        Var(v) => {
            if v == var {
                replacement.clone()
            } else {
                term.clone()
            }
        }
        Lit(_) | IoRead => term.clone(),
        Prim { op, args } => Prim { op: *op, args: args.iter().map(s).collect() },
        Extern { tag, args } => Extern { tag: tag.clone(), args: args.iter().map(s).collect() },
        FreeOp { tag, args } => FreeOp { tag: tag.clone(), args: args.iter().map(s).collect() },
        Let { name, value, body } => Let {
            name: name.clone(),
            value: sb(value),
            body: if name == var { body.clone() } else { sb(body) },
        },
        Bind { monad, name, ma, body } => Bind {
            monad: *monad,
            name: name.clone(),
            ma: sb(ma),
            body: if name == var { body.clone() } else { sb(body) },
        },
        Copy(e) => Copy(sb(e)),
        Stack(e) => Stack(sb(e)),
        If { cond, then_, else_ } => If { cond: sb(cond), then_: sb(then_), else_: sb(else_) },
        Pair(a, b) => Pair(sb(a), sb(b)),
        Fst(e) => Fst(sb(e)),
        Snd(e) => Snd(sb(e)),
        CellGet(e) => CellGet(sb(e)),
        CellPut { cell, val } => CellPut { cell: sb(cell), val: sb(val) },
        ArrayLen { elem, arr } => ArrayLen { elem: *elem, arr: sb(arr) },
        ArrayGet { elem, arr, idx } => ArrayGet { elem: *elem, arr: sb(arr), idx: sb(idx) },
        ArrayPut { elem, arr, idx, val } => ArrayPut {
            elem: *elem,
            arr: sb(arr),
            idx: sb(idx),
            val: sb(val),
        },
        TableGet { table, idx } => TableGet { table: table.clone(), idx: sb(idx) },
        ArrayMap { elem, x, f, arr } => ArrayMap {
            elem: *elem,
            x: x.clone(),
            f: if x == var { f.clone() } else { sb(f) },
            arr: sb(arr),
        },
        ArrayFold { elem, acc, x, f, init, arr } => ArrayFold {
            elem: *elem,
            acc: acc.clone(),
            x: x.clone(),
            f: if acc == var || x == var { f.clone() } else { sb(f) },
            init: sb(init),
            arr: sb(arr),
        },
        RangeFold { i, acc, f, init, from, to } => RangeFold {
            i: i.clone(),
            acc: acc.clone(),
            f: if i == var || acc == var { f.clone() } else { sb(f) },
            init: sb(init),
            from: sb(from),
            to: sb(to),
        },
        RangeFoldBreak { i, acc, f, init, from, to } => RangeFoldBreak {
            i: i.clone(),
            acc: acc.clone(),
            f: if i == var || acc == var { f.clone() } else { sb(f) },
            init: sb(init),
            from: sb(from),
            to: sb(to),
        },
        RangeFoldM { monad, i, acc, f, init, from, to } => RangeFoldM {
            monad: *monad,
            i: i.clone(),
            acc: acc.clone(),
            f: if i == var || acc == var { f.clone() } else { sb(f) },
            init: sb(init),
            from: sb(from),
            to: sb(to),
        },
        Ret { monad, value } => Ret { monad: *monad, value: sb(value) },
        NondetBytes { len } => NondetBytes { len: sb(len) },
        NondetWord { bound } => NondetWord { bound: sb(bound) },
        IoWrite(e) => IoWrite(sb(e)),
        WriterTell(e) => WriterTell(sb(e)),
    }
}

/// Infers the scalar kind of a source term, consulting `lookup` for the
/// kinds of free variables.
///
/// Returns `None` for non-scalar terms (lists, pairs, cells) and for terms
/// whose kind cannot be determined.
pub fn scalar_kind(term: &Expr, lookup: &dyn Fn(&str) -> Option<ScalarKind>) -> Option<ScalarKind> {
    use rupicola_lang::Value;
    match term {
        Expr::Var(v) => lookup(v),
        Expr::Lit(v) => match v {
            Value::Bool(_) => Some(ScalarKind::Bool),
            Value::Byte(_) => Some(ScalarKind::Byte),
            Value::Word(_) => Some(ScalarKind::Word),
            Value::Nat(_) => Some(ScalarKind::Nat),
            Value::Unit => Some(ScalarKind::Unit),
            _ => None,
        },
        Expr::Prim { op, .. } => Some(prim_result_kind(*op)),
        Expr::If { then_, else_, .. } => {
            let a = scalar_kind(then_, lookup)?;
            let b = scalar_kind(else_, lookup)?;
            (a == b).then_some(a)
        }
        Expr::Let { name, value, body } => {
            let vk = scalar_kind(value, lookup);
            let lookup2 = |n: &str| if n == name { vk } else { lookup(n) };
            scalar_kind(body, &lookup2)
        }
        Expr::ArrayGet { elem, .. } => Some(match elem {
            ElemKind::Byte => ScalarKind::Byte,
            ElemKind::Word => ScalarKind::Word,
        }),
        Expr::TableGet { .. } => None, // kind comes from the table; engine resolves it
        Expr::ArrayLen { .. } | Expr::CellGet(_) | Expr::IoRead | Expr::NondetWord { .. } => {
            Some(ScalarKind::Word)
        }
        Expr::Copy(e) | Expr::Stack(e) | Expr::Ret { value: e, .. } => scalar_kind(e, lookup),
        _ => None,
    }
}

/// The result kind of a primitive.
pub fn prim_result_kind(op: PrimOp) -> ScalarKind {
    use PrimOp::*;
    match op {
        WAdd | WSub | WMul | WDivU | WRemU | WAnd | WOr | WXor | WShl | WShr | WSar
        | WordOfByte | WordOfNat | WordOfBool => ScalarKind::Word,
        BAdd | BSub | BAnd | BOr | BXor | BShl | BShr | ByteOfWord => ScalarKind::Byte,
        WLtU | WLtS | WEq | BLtU | BEq | Not | BoolAnd | BoolOr | BoolEq | NLt | NEq => {
            ScalarKind::Bool
        }
        NAdd | NSub | NMul | NatOfWord => ScalarKind::Nat,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_lang::dsl::*;

    fn byte_array_heaplet(name: &str) -> Heaplet {
        Heaplet {
            kind: HeapletKind::Array { elem: ElemKind::Byte },
            content: var(name),
            len: Some(array_len_b(var(name))),
            ptr_name: format!("&{name}"),
        }
    }

    #[test]
    fn heap_add_find_update() {
        let mut heap = SymHeap::new();
        let id = heap.add(byte_array_heaplet("s"));
        assert_eq!(heap.find_by_content(&var("s")), Some(id));
        assert_eq!(heap.find_by_content(&var("t")), None);
        heap.get_mut(id).unwrap().content = array_map_b("b", var("b"), var("s"));
        assert_eq!(heap.find_by_content(&var("s")), None);
        assert!(heap
            .find_by_content(&array_map_b("b", var("b"), var("s")))
            .is_some());
    }

    #[test]
    fn heap_remove_consumes() {
        let mut heap = SymHeap::new();
        let id = heap.add(byte_array_heaplet("s"));
        assert_eq!(heap.len(), 1);
        assert!(heap.remove(id).is_some());
        assert!(heap.is_empty());
        assert!(heap.get(id).is_none());
        assert!(heap.remove(id).is_none());
    }

    #[test]
    fn locals_set_get_rebind() {
        let mut locals = SymLocals::new();
        locals.set("x", SymValue::Scalar(ScalarKind::Word, word_lit(3)));
        locals.set("x", SymValue::Scalar(ScalarKind::Word, word_lit(4)));
        assert_eq!(locals.len(), 1);
        let (term, kind) = locals.get("x").unwrap().scalar_term().unwrap();
        assert_eq!((term, kind), (&word_lit(4), ScalarKind::Word));
    }

    #[test]
    fn locals_find_scalar_and_ptr() {
        let mut heap = SymHeap::new();
        let id = heap.add(byte_array_heaplet("s"));
        let mut locals = SymLocals::new();
        locals.set("s", SymValue::Ptr(id));
        locals.set("len", SymValue::Scalar(ScalarKind::Word, array_len_b(var("s"))));
        assert_eq!(locals.find_ptr(id), Some("s"));
        assert_eq!(
            locals.find_scalar(&array_len_b(var("s"))),
            Some(("len", ScalarKind::Word))
        );
        assert_eq!(locals.find_scalar(&var("nope")), None);
    }

    #[test]
    fn subst_replaces_free_occurrences_only() {
        // let s := f(s) in get(s)  — substituting for the outer `s` only
        // touches the bound value, not the shadowed body.
        let term = let_n(
            "s",
            array_map_b("b", var("b"), var("s")),
            array_get_b(var("s"), word_lit(0)),
        );
        let out = subst(&term, "s", &var("input"));
        match out {
            Expr::Let { value, body, .. } => {
                assert_eq!(*value, array_map_b("b", var("b"), var("input")));
                assert_eq!(*body, array_get_b(var("s"), word_lit(0)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn subst_respects_iteration_binders() {
        let term = array_map_b("x", byte_add(var("x"), var("d")), var("a"));
        let out = subst(&term, "x", &byte_lit(0));
        // `x` is the element binder: body is untouched.
        assert_eq!(out, term);
        let out2 = subst(&term, "d", &byte_lit(1));
        assert_eq!(out2, array_map_b("x", byte_add(var("x"), byte_lit(1)), var("a")));
    }

    #[test]
    fn scalar_kind_inference() {
        let lookup = |n: &str| match n {
            "w" => Some(ScalarKind::Word),
            "b" => Some(ScalarKind::Byte),
            _ => None,
        };
        assert_eq!(
            scalar_kind(&word_add(var("w"), word_lit(1)), &lookup),
            Some(ScalarKind::Word)
        );
        assert_eq!(
            scalar_kind(&byte_and(var("b"), byte_lit(1)), &lookup),
            Some(ScalarKind::Byte)
        );
        assert_eq!(
            scalar_kind(&word_ltu(var("w"), word_lit(1)), &lookup),
            Some(ScalarKind::Bool)
        );
        assert_eq!(scalar_kind(&var("unknown"), &lookup), None);
        assert_eq!(
            scalar_kind(&ite(bool_lit(true), var("b"), var("b")), &lookup),
            Some(ScalarKind::Byte)
        );
        assert_eq!(scalar_kind(&ite(bool_lit(true), var("b"), var("w")), &lookup), None);
        assert_eq!(
            scalar_kind(&array_get_b(var("a"), word_lit(0)), &lookup),
            Some(ScalarKind::Byte)
        );
    }

    #[test]
    fn display_renders_sep_conjunction() {
        let mut heap = SymHeap::new();
        heap.add(byte_array_heaplet("s"));
        let shown = format!("{heap}");
        assert!(shown.contains("array<byte> &s (s)"));
        assert!(shown.ends_with("∗ r"));
        assert_eq!(format!("{}", SymHeap::new()), "emp ∗ r");
    }
}
