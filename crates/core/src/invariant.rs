//! Predicate and loop-invariant inference (§3.4.2).
//!
//! Rupicola does not take strongest postconditions at control-flow joins —
//! that would produce disjunctions later compilation steps cannot match.
//! Instead it builds a *template* by (1) identifying the targets of the
//! construct from the names in its bindings, (2) classifying each target as
//! scalar or pointer by inspecting the locals and the memory predicate,
//! (3) abstracting the corresponding binding or heaplet, and (4) closing
//! over the result. For forward edges the template is instantiated with the
//! source program itself; for loops it is instantiated with a closed-form
//! *partial-execution term* ("`map f (first n l) ++ skip n l`"), which this
//! module also renders as a [`LoopInvariant`] that the trusted checker can
//! evaluate at every loop head.

use crate::goal::StmtGoal;
use rupicola_lang::{ElemKind, Expr, Ident};
use rupicola_sep::{HeapletId, ScalarKind, SymValue};
use std::fmt;

/// Classification of one target of a control-flow construct (step 2 of the
/// heuristic).
#[derive(Debug, Clone, PartialEq)]
pub enum TargetClass {
    /// The name is not currently bound: a fresh scalar will be created
    /// (like `"r"` in the paper's compare-and-swap example).
    NewScalar,
    /// The name is bound to a scalar local: the template abstracts over the
    /// binding in the locals map.
    Scalar(ScalarKind),
    /// The name is bound to a pointer: the template abstracts over the
    /// corresponding heaplet's contents.
    Pointer(HeapletId),
}

/// The inferred template: one abstracted slot per target (steps 3–4).
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantTemplate {
    /// `(target name, classification)` pairs, in binding order.
    pub targets: Vec<(Ident, TargetClass)>,
}

impl InvariantTemplate {
    /// Runs steps 1–3 of the §3.4.2 heuristic for the given target names in
    /// the state of `goal`.
    pub fn infer(names: &[Ident], goal: &StmtGoal) -> Self {
        let targets = names
            .iter()
            .map(|n| {
                let class = match goal.locals.get(n) {
                    None => TargetClass::NewScalar,
                    Some(SymValue::Scalar(k, _)) => TargetClass::Scalar(*k),
                    Some(SymValue::Ptr(id)) => TargetClass::Pointer(*id),
                };
                (n.clone(), class)
            })
            .collect();
        InvariantTemplate { targets }
    }

    /// The pointer targets of the template.
    pub fn pointer_targets(&self) -> impl Iterator<Item = (&Ident, HeapletId)> {
        self.targets.iter().filter_map(|(n, c)| match c {
            TargetClass::Pointer(id) => Some((n, *id)),
            _ => None,
        })
    }
}

impl fmt::Display for InvariantTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ (")?;
        for (i, (n, _)) in self.targets.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, ") l m ⇒ l = {{")?;
        for (i, (n, c)) in self.targets.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match c {
                TargetClass::NewScalar | TargetClass::Scalar(_) => write!(f, "\"{n}\": _")?,
                TargetClass::Pointer(id) => write!(f, "\"{n}\": &{id}")?,
            }
        }
        write!(f, "}} ∧ (…abstracted heaplets…) m")
    }
}

/// The closed-form characterization of one generated loop, checkable at
/// runtime.
///
/// The `kind` captures the partial-execution term for iteration `n`; the
/// `bindings` are the let-prefix equations needed to evaluate the terms it
/// mentions from the function's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopInvariant {
    /// The Bedrock2 local holding the iteration counter.
    pub index_local: String,
    /// Evaluation prefix: `(name, definition)` equations, oldest first.
    pub bindings: Vec<(Ident, Expr)>,
    /// The shape-specific part.
    pub kind: LoopInvariantKind,
}

/// The shape-specific part of a [`LoopInvariant`].
#[derive(Debug, Clone, PartialEq)]
pub enum LoopInvariantKind {
    /// In-place `ListArray.map`: after `n` iterations the array at
    /// `ptr_local` contains `map f (first n arr) ++ skip n arr`.
    ArrayMapInPlace {
        /// Bedrock2 local holding the array pointer.
        ptr_local: String,
        /// Element representation.
        elem: ElemKind,
        /// Element binder of `f`.
        x: Ident,
        /// Map body.
        f: Expr,
        /// Source term for the array being mapped (in prefix scope).
        arr: Expr,
    },
    /// Scalar `List.fold_left`: after `n` iterations the local `acc_local`
    /// holds `fold_left f (first n arr) init`.
    ArrayFoldScalar {
        /// Bedrock2 local holding the accumulator.
        acc_local: String,
        /// Element representation.
        elem: ElemKind,
        /// Accumulator binder of `f`.
        acc: Ident,
        /// Element binder of `f`.
        x: Ident,
        /// Fold body.
        f: Expr,
        /// Initial accumulator (in prefix scope).
        init: Expr,
        /// Source term for the array (in prefix scope).
        arr: Expr,
    },
    /// Ranged fold whose accumulator is the array itself, one `put` per
    /// iteration: after the counter reaches `i`, the memory at `ptr_local`
    /// holds `fold_range from i (fun i a => put a idx v) init` (the
    /// scatter shape of [`crate::check`]'s partial-execution checking).
    RangeFoldArrayPut {
        /// Bedrock2 local holding the array pointer.
        ptr_local: String,
        /// Element representation.
        elem: ElemKind,
        /// Index binder of `f`.
        i: Ident,
        /// Accumulator (array) binder of `f`.
        acc: Ident,
        /// Fold body (an `ArrayPut` on the accumulator).
        f: Expr,
        /// Source term for the initial array (in prefix scope).
        init: Expr,
        /// Loop start (in prefix scope).
        from: Expr,
    },
    /// Scalar ranged fold: after the counter reaches `i`, `acc_local` holds
    /// the fold of `f` over `from..i`.
    RangeFoldScalar {
        /// Bedrock2 local holding the accumulator.
        acc_local: String,
        /// Index binder of `f`.
        i: Ident,
        /// Accumulator binder of `f`.
        acc: Ident,
        /// Fold body.
        f: Expr,
        /// Initial accumulator (in prefix scope).
        init: Expr,
        /// Loop start (in prefix scope).
        from: Expr,
    },
}

impl fmt::Display for LoopInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            LoopInvariantKind::ArrayMapInPlace { ptr_local, x, f: body, arr, .. } => write!(
                f,
                "array {ptr_local} (map (fun {x} => {body}) (first {i} ({arr})) ++ skip {i} ({arr}))",
                i = self.index_local
            ),
            LoopInvariantKind::ArrayFoldScalar { acc_local, acc, x, f: body, init, arr, .. } => {
                write!(
                    f,
                    "{acc_local} = fold_left (fun {acc} {x} => {body}) (first {i} ({arr})) ({init})",
                    i = self.index_local
                )
            }
            LoopInvariantKind::RangeFoldArrayPut { ptr_local, i, acc, f: body, init, from, .. } => {
                write!(
                    f,
                    "array {ptr_local} (fold_range ({from}) {n} (fun {i} {acc} => {body}) ({init}))",
                    n = self.index_local
                )
            }
            LoopInvariantKind::RangeFoldScalar { acc_local, i, acc, f: body, init, from } => {
                write!(
                    f,
                    "{acc_local} = fold_range ({from}) {n} (fun {i} {acc} => {body}) ({init})",
                    n = self.index_local
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goal::{MonadCtx, Post};
    use rupicola_lang::dsl::*;
    use rupicola_sep::{Heaplet, HeapletKind, SymHeap, SymLocals};

    fn cas_goal() -> StmtGoal {
        // locals {"c": p}, memory cell p c — the paper's CAS example.
        let mut heap = SymHeap::new();
        let id = heap.add(Heaplet {
            kind: HeapletKind::Cell,
            content: var("c"),
            len: None,
            ptr_name: "p".into(),
        });
        let mut locals = SymLocals::new();
        locals.set("c", SymValue::Ptr(id));
        StmtGoal {
            prog: var("c"),
            locals,
            heap,
            hyps: Default::default(),
            monad: MonadCtx::Pure,
            post: Post::default(),
            defs: Default::default(),
        }
    }

    #[test]
    fn cas_example_classification() {
        // Targets "r" and "c": "r" is a scalar (no binding), "c" a pointer.
        let goal = cas_goal();
        let t = InvariantTemplate::infer(&["r".into(), "c".into()], &goal);
        assert_eq!(t.targets[0], ("r".into(), TargetClass::NewScalar));
        assert!(matches!(t.targets[1], (_, TargetClass::Pointer(_))));
        assert_eq!(t.pointer_targets().count(), 1);
    }

    #[test]
    fn scalar_binding_classifies_as_scalar() {
        let mut goal = cas_goal();
        goal.locals
            .set("x", SymValue::Scalar(ScalarKind::Byte, byte_lit(0)));
        let t = InvariantTemplate::infer(&["x".into()], &goal);
        assert_eq!(t.targets[0], ("x".into(), TargetClass::Scalar(ScalarKind::Byte)));
    }

    #[test]
    fn template_display_shows_closure() {
        let goal = cas_goal();
        let t = InvariantTemplate::infer(&["r".into(), "c".into()], &goal);
        let shown = format!("{t}");
        assert!(shown.contains("λ (r, c)"));
        assert!(shown.contains("\"c\": &h0"));
    }

    #[test]
    fn loop_invariant_displays_partial_execution_term() {
        let inv = LoopInvariant {
            index_local: "i".into(),
            bindings: vec![],
            kind: LoopInvariantKind::ArrayMapInPlace {
                ptr_local: "s".into(),
                elem: ElemKind::Byte,
                x: "b".into(),
                f: byte_or(var("b"), byte_lit(0x20)),
                arr: var("s"),
            },
        };
        let shown = format!("{inv}");
        assert!(shown.contains("first i"));
        assert!(shown.contains("skip i"));
    }
}
