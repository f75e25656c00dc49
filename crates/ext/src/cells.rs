//! Mutable cells (Table 1: `get`, `put`, `iadd`).
//!
//! A cell is a single-word object behind a pointer; at the source level it
//! is the pure `Value::Cell` with `get`/`put` as pure operations. The
//! Table 1 measurements count exactly these lemmas: a load, a store, and
//! the fused in-place increment.

use crate::helpers::{ghost_for, save_ghost};
use rupicola_core::derive::DerivationNode;
use rupicola_core::{
    Applied,
    AppliedExpr,
    CompileError,
    Compiler,
    ExprLemma,
    StmtGoal,
    StmtLemma,
};
use rupicola_bedrock::{AccessSize, BExpr, BinOp, Cmd};
use rupicola_lang::{Expr, PrimOp};
use rupicola_sep::SymValue;

/// `EXPR (get c)` — a word load through the cell's pointer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExprCellGet;

impl ExprLemma for ExprCellGet {
    fn name(&self) -> &'static str {
        "expr_cell_get"
    }

    fn try_apply(
        &self,
        term: &Expr,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<AppliedExpr, CompileError>> {
        let Expr::CellGet(cell) = term else { return None };
        let id = goal.heap.find_by_content(cell)?;
        let ptr = goal.locals.find_ptr(id)?.to_string();
        Some(Ok(AppliedExpr {
            expr: BExpr::load(AccessSize::Eight, BExpr::var(ptr)),
            node: DerivationNode::leaf(self.name(), cx.focus_term(term)),
        }))
    }
}

/// Rebinds a cell name after an in-place mutation (shared by put, iadd
/// and compare-and-swap): draws the ghost now, from `goal`, and returns
/// the edit that makes the continuation goal.
fn rebind_cell(
    cx: &mut Compiler<'_>,
    goal: &StmtGoal,
    name: &str,
    id: rupicola_sep::HeapletId,
    value: &Expr,
    body: &Expr,
) -> impl FnOnce(&mut StmtGoal) + 'static {
    let ghost = ghost_for(cx, goal, name);
    let (name, value, body) = (name.to_string(), value.clone(), body.clone());
    move |g| {
        if let Some(ghost) = ghost {
            save_ghost(g, &name, ghost);
        }
        if !value.is_monadic() {
            g.defs.push((name.clone(), value));
        }
        if let Some(h) = g.heap.get_mut(id) {
            h.content = Expr::Var(name.clone());
        }
        g.locals.set(name, SymValue::Ptr(id));
        g.prog = body;
    }
}

/// `let/n c := put c v in k` — a store through the cell's pointer.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileCellPut;

impl StmtLemma for CompileCellPut {
    fn name(&self) -> &'static str {
        "compile_cell_put"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::CellPut { cell, val } = value.as_ref() else { return None };
        if cell.as_ref() != &Expr::Var(name.clone()) {
            return None;
        }
        let id = goal.heap.find_by_content(cell)?;
        let ptr = goal.locals.find_ptr(id)?.to_string();
        Some(self.apply(goal, cx, name, id, &ptr, val, value, body))
    }
}

impl CompileCellPut {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        id: rupicola_sep::HeapletId,
        ptr: &str,
        val: &Expr,
        value: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let mut node = DerivationNode::leaf(self.name(), cx.focus_let(name, value));
        let (val_e, c0) = cx.compile_expr(val, goal)?;
        node.children.push(c0);
        let edit = rebind_cell(cx, goal, name, id, value, body);
        Ok(Applied::then(vec![Cmd::store(AccessSize::Eight, BExpr::var(ptr), val_e)], node, edit))
    }
}

/// `let/n c := put c (get c + e) in k` — the fused in-place increment
/// (`iadd` in Table 1), emitting `*p = *p + e` without re-deriving the
/// load through the generic put lemma.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileCellIncr;

impl StmtLemma for CompileCellIncr {
    fn name(&self) -> &'static str {
        "compile_cell_iadd"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::CellPut { cell, val } = value.as_ref() else { return None };
        if cell.as_ref() != &Expr::Var(name.clone()) {
            return None;
        }
        let Expr::Prim { op: PrimOp::WAdd, args } = val.as_ref() else { return None };
        let Expr::CellGet(inner) = &args[0] else { return None };
        if inner != cell {
            return None;
        }
        let id = goal.heap.find_by_content(cell)?;
        let ptr = goal.locals.find_ptr(id)?.to_string();
        Some(self.apply(goal, cx, name, id, &ptr, &args[1], value, body))
    }
}

impl CompileCellIncr {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        id: rupicola_sep::HeapletId,
        ptr: &str,
        delta: &Expr,
        value: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        let mut node = DerivationNode::leaf(self.name(), cx.focus_let(name, value));
        let (delta_e, c0) = cx.compile_expr(delta, goal)?;
        node.children.push(c0);
        let edit = rebind_cell(cx, goal, name, id, value, body);
        let load = BExpr::load(AccessSize::Eight, BExpr::var(ptr));
        let store = Cmd::store(AccessSize::Eight, BExpr::var(ptr), BExpr::op(BinOp::Add, load, delta_e));
        Ok(Applied::then(vec![store], node, edit))
    }
}

/// The compare-and-swap shape of §3.4.2:
/// `let/n c := if t then put c v else c in k` — a conditional *pointer*
/// target. The invariant-inference heuristic classifies the binder as a
/// pointer (its binding is to a heaplet), so the template abstracts over
/// the heaplet's contents rather than a local, and the forward edge is
/// instantiated with the source conditional itself — never with a
/// disjunction of postconditions.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileCellCas;

impl StmtLemma for CompileCellCas {
    fn name(&self) -> &'static str {
        "compile_cell_cas"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::If { cond, then_, else_ } = value.as_ref() else { return None };
        // One branch mutates the cell in place, the other leaves it.
        let self_var = Expr::Var(name.clone());
        let (put_val, put_in_then) = match (then_.as_ref(), else_.as_ref()) {
            (Expr::CellPut { cell, val }, e) if cell.as_ref() == &self_var && e == &self_var => {
                (val.as_ref(), true)
            }
            (t, Expr::CellPut { cell, val }) if cell.as_ref() == &self_var && t == &self_var => {
                (val.as_ref(), false)
            }
            _ => return None,
        };
        // Step 2 of the heuristic: the target must classify as a pointer.
        use rupicola_core::invariant::{InvariantTemplate, TargetClass};
        let template = InvariantTemplate::infer(std::slice::from_ref(name), goal);
        let TargetClass::Pointer(id) = template.targets[0].1 else { return None };
        let ptr = goal.locals.find_ptr(id)?.to_string();
        Some(self.apply(goal, cx, name, id, &ptr, cond, put_val, put_in_then, value, body, &template))
    }
}

impl CompileCellCas {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        id: rupicola_sep::HeapletId,
        ptr: &str,
        cond: &Expr,
        put_val: &Expr,
        put_in_then: bool,
        value: &Expr,
        body: &Expr,
        template: &rupicola_core::invariant::InvariantTemplate,
    ) -> Result<Applied, CompileError> {
        let mut node = DerivationNode::leaf(
            self.name(),
            format!("let/n {name} := {value}   [template: {template}]"),
        );
        let (cond_e, c0) = cx.compile_expr(cond, goal)?;
        let (val_e, c1) = cx.compile_expr(put_val, goal)?;
        node.children.push(c0);
        node.children.push(c1);
        let edit = rebind_cell(cx, goal, name, id, value, body);
        let store = Cmd::store(AccessSize::Eight, BExpr::var(ptr), val_e);
        let cond_e = if put_in_then {
            cond_e
        } else {
            BExpr::op(BinOp::Eq, cond_e, BExpr::lit(0))
        };
        Ok(Applied::then(vec![Cmd::if_(cond_e, store, Cmd::Skip)], node, edit))
    }
}

/// The paper's *two-target* compare-and-swap (§3.4.2's running example):
///
/// ```text
/// let r, c := (if t then (true, put c x) else (false, c)) in k
/// ```
///
/// The inference heuristic identifies two targets from the binding — the
/// flag (a scalar that is not yet bound: `NewScalar`) and the cell (a
/// pointer) — abstracts the scalar's local slot and the pointer's heaplet
/// content, and instantiates the template with the source conditional.
/// The continuation sees `fst p` as a fresh local and the heaplet holding
/// `snd p` — never the disjunction `(t ∧ cell p (put c x)) ∨ (¬t ∧ cell p c)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileCellCasPair;

impl StmtLemma for CompileCellCasPair {
    fn name(&self) -> &'static str {
        "compile_cell_cas_pair"
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        let Expr::Let { name, value, body } = &goal.prog else { return None };
        let Expr::If { cond, then_, else_ } = value.as_ref() else { return None };
        let (Expr::Pair(r1, m1), Expr::Pair(r2, m2)) = (then_.as_ref(), else_.as_ref()) else {
            return None;
        };
        // Exactly one memory component mutates a cell; the other leaves it.
        let (cell_var, put_val, put_in_then) = match (m1.as_ref(), m2.as_ref()) {
            (Expr::CellPut { cell, val }, other) if other == cell.as_ref() => {
                (cell.as_ref().clone(), val.as_ref().clone(), true)
            }
            (other, Expr::CellPut { cell, val }) if other == cell.as_ref() => {
                (cell.as_ref().clone(), val.as_ref().clone(), false)
            }
            _ => return None,
        };
        let id = goal.heap.find_by_content(&cell_var)?;
        let ptr = goal.locals.find_ptr(id)?.to_string();
        let kr = crate::helpers::kind_of(cx.model, goal, r1)?;
        if crate::helpers::kind_of(cx.model, goal, r2)? != kr {
            return None;
        }
        Some(self.apply(
            goal, cx, name, id, &ptr, cond, r1, r2, &put_val, put_in_then, kr, value, body,
        ))
    }
}

impl CompileCellCasPair {
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
        name: &str,
        id: rupicola_sep::HeapletId,
        ptr: &str,
        cond: &Expr,
        r1: &Expr,
        r2: &Expr,
        put_val: &Expr,
        put_in_then: bool,
        kr: rupicola_sep::ScalarKind,
        value: &Expr,
        body: &Expr,
    ) -> Result<Applied, CompileError> {
        use rupicola_core::invariant::InvariantTemplate;
        let template = InvariantTemplate::infer(&[format!("{name}_fst"), ptr.to_string()], goal);
        let mut node = DerivationNode::leaf(
            self.name(),
            format!("let/n {name} := {value}   [template: {template}]"),
        );
        let (cond_e, c0) = cx.compile_expr(cond, goal)?;
        let (r1_e, c1) = cx.compile_expr(r1, goal)?;
        let (r2_e, c2) = cx.compile_expr(r2, goal)?;
        let (val_e, c3) = cx.compile_expr(put_val, goal)?;
        node.children.extend([c0, c1, c2, c3]);

        let flag_local = format!("{name}_fst");
        let (flag, name, value, body) =
            (flag_local.clone(), name.to_string(), value.clone(), body.clone());
        let edit = move |g: &mut StmtGoal| {
            let me = Expr::Var(name.clone());
            g.locals.set(flag, SymValue::Scalar(kr, Expr::Fst(me.clone().boxed())));
            if let Some(h) = g.heap.get_mut(id) {
                h.content = Expr::Snd(me.boxed());
            }
            g.defs.push((name, value));
            g.prog = body;
        };

        let store = Cmd::store(AccessSize::Eight, BExpr::var(ptr), val_e);
        let (then_cmd, else_cmd) = if put_in_then {
            (
                Cmd::seq([Cmd::set(flag_local.clone(), r1_e), store]),
                Cmd::set(flag_local, r2_e),
            )
        } else {
            (
                Cmd::set(flag_local.clone(), r1_e),
                Cmd::seq([Cmd::set(flag_local, r2_e), store]),
            )
        };
        Ok(Applied::then(vec![Cmd::if_(cond_e, then_cmd, else_cmd)], node, edit))
    }
}

#[cfg(test)]
mod tests {
    use crate::standard_dbs;
    use rupicola_core::check::check;
    use rupicola_core::compile;
    use rupicola_core::fnspec::{ArgSpec, FnSpec, RetSpec};
    use rupicola_lang::dsl::*;
    use rupicola_lang::Model;
    use rupicola_sep::ScalarKind;

    fn cell_spec(name: &str, rets: Vec<RetSpec>) -> FnSpec {
        FnSpec::new(
            name,
            vec![ArgSpec::CellPtr { name: "c".into(), param: "c".into() }],
            rets,
        )
    }

    #[test]
    fn cell_get_compiles_to_load() {
        let model = Model::new("read", ["c"], let_n("x", cell_get(var("c")), var("x")));
        let dbs = standard_dbs();
        let out = compile(
            &model,
            &cell_spec("read", vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }]),
            &dbs,
        )
        .unwrap();
        check(&out, &dbs).unwrap();
    }

    #[test]
    fn cell_put_stores_in_place() {
        // let c := put c 42 in c
        let model = Model::new(
            "write",
            ["c"],
            let_n("c", cell_put(var("c"), word_lit(42)), var("c")),
        );
        let dbs = standard_dbs();
        let out = compile(
            &model,
            &cell_spec("write", vec![RetSpec::InPlace { param: "c".into() }]),
            &dbs,
        )
        .unwrap();
        check(&out, &dbs).unwrap();
    }

    #[test]
    fn cell_iadd_fuses_load_and_store() {
        // let c := put c (get c + 5) in c — the Table 1 iadd extension.
        let model = Model::new(
            "bump",
            ["c"],
            let_n(
                "c",
                cell_put(var("c"), word_add(cell_get(var("c")), word_lit(5))),
                var("c"),
            ),
        );
        let dbs = standard_dbs();
        let out = compile(
            &model,
            &cell_spec("bump", vec![RetSpec::InPlace { param: "c".into() }]),
            &dbs,
        )
        .unwrap();
        assert_eq!(out.derivation.root.lemma, "compile_cell_iadd");
        check(&out, &dbs).unwrap();
        // Exactly one statement: the fused store.
        assert_eq!(out.function.body.statement_count(), 1);
    }

    #[test]
    fn cas_compiles_to_conditional_store() {
        // The paper's compare-and-swap: write x when t, else leave c.
        let model = Model::new(
            "cas",
            ["c", "t", "x"],
            let_n(
                "c",
                ite(
                    word_eq(var("t"), word_lit(1)),
                    cell_put(var("c"), var("x")),
                    var("c"),
                ),
                var("c"),
            ),
        );
        let spec = FnSpec::new(
            "cas",
            vec![
                ArgSpec::CellPtr { name: "c".into(), param: "c".into() },
                ArgSpec::Scalar { name: "t".into(), param: "t".into(), kind: ScalarKind::Word },
                ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word },
            ],
            vec![RetSpec::InPlace { param: "c".into() }],
        );
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        assert_eq!(out.derivation.root.lemma, "compile_cell_cas");
        check(&out, &dbs).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("if ("), "{c}");
    }

    #[test]
    fn cas_with_put_in_else_branch() {
        // let c := if t == 0 then c else put c x — the mirrored shape.
        let model = Model::new(
            "cas2",
            ["c", "t", "x"],
            let_n(
                "c",
                ite(
                    word_eq(var("t"), word_lit(0)),
                    var("c"),
                    cell_put(var("c"), var("x")),
                ),
                var("c"),
            ),
        );
        let spec = FnSpec::new(
            "cas2",
            vec![
                ArgSpec::CellPtr { name: "c".into(), param: "c".into() },
                ArgSpec::Scalar { name: "t".into(), param: "t".into(), kind: ScalarKind::Word },
                ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word },
            ],
            vec![RetSpec::InPlace { param: "c".into() }],
        );
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        check(&out, &dbs).unwrap();
    }

    #[test]
    fn cas_pair_matches_the_paper_example() {
        // let p := (if t == 1 then (1, put c x) else (0, c)) in
        //   (fst p, snd p)
        // — returns both the "did we write?" flag and the (possibly
        // mutated) cell.
        let model = Model::new(
            "cas_pair",
            ["c", "t", "x"],
            let_n(
                "p",
                ite(
                    word_eq(var("t"), word_lit(1)),
                    pair(word_lit(1), cell_put(var("c"), var("x"))),
                    pair(word_lit(0), var("c")),
                ),
                pair(fst(var("p")), snd(var("p"))),
            ),
        );
        let spec = FnSpec::new(
            "cas_pair",
            vec![
                ArgSpec::CellPtr { name: "c".into(), param: "c".into() },
                ArgSpec::Scalar { name: "t".into(), param: "t".into(), kind: ScalarKind::Word },
                ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word },
            ],
            vec![
                RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word },
                RetSpec::InPlace { param: "c".into() },
            ],
        );
        let dbs = standard_dbs();
        let out = compile(&model, &spec, &dbs).unwrap();
        assert_eq!(out.derivation.root.lemma, "compile_cell_cas_pair");
        check(&out, &dbs).unwrap();
        let c = rupicola_bedrock::cprint::function_to_c(&out.function);
        assert!(c.contains("if ("), "{c}");
        assert!(c.contains("p_fst"), "{c}");
    }

    #[test]
    fn chained_cell_updates() {
        // let c := put c (get c + 1) in let c := put c (get c + 2) in c
        let model = Model::new(
            "bump2",
            ["c"],
            let_n(
                "c",
                cell_put(var("c"), word_add(cell_get(var("c")), word_lit(1))),
                let_n(
                    "c",
                    cell_put(var("c"), word_add(cell_get(var("c")), word_lit(2))),
                    var("c"),
                ),
            ),
        );
        let dbs = standard_dbs();
        let out = compile(
            &model,
            &cell_spec("bump2", vec![RetSpec::InPlace { param: "c".into() }]),
            &dbs,
        )
        .unwrap();
        check(&out, &dbs).unwrap();
    }
}
