//! Shared AST rewrite utilities for Bedrock2→Bedrock2 transformations.
//!
//! The site-tagged CFG in [`crate::cfg`] gives analyses a *read* view of a
//! function body (and [`crate::cfg::remove_set_sites`] one specific edit);
//! this module is the *write* side used by the optimization pass manager:
//! generic expression visitors and rewriters that keep the traversal order
//! conventions of `cfg.rs` — statements are visited in syntactic order,
//! matching the site ordinals `Cfg::build` assigns — so a pass can consume
//! site-indexed facts from `rupicola-analysis` and apply rewrites without
//! re-deriving its own walk.

use crate::ast::{BExpr, Cmd};

/// Applies `f` bottom-up to every node of `e`, children first, rebuilding
/// the expression. `f` sees each node *after* its children were rewritten,
/// so local rewrites compose (folding `1 + 2` inside `(1 + 2) * x` exposes
/// `3 * x` to the parent's visit).
pub fn map_expr_bottom_up(e: &BExpr, f: &mut impl FnMut(BExpr) -> BExpr) -> BExpr {
    let rebuilt = match e {
        BExpr::Lit(_) | BExpr::Var(_) => e.clone(),
        BExpr::Load(size, addr) => BExpr::Load(*size, Box::new(map_expr_bottom_up(addr, f))),
        BExpr::InlineTable { size, table, index } => BExpr::InlineTable {
            size: *size,
            table: table.clone(),
            index: Box::new(map_expr_bottom_up(index, f)),
        },
        BExpr::Op(op, a, b) => BExpr::Op(
            *op,
            Box::new(map_expr_bottom_up(a, f)),
            Box::new(map_expr_bottom_up(b, f)),
        ),
    };
    f(rebuilt)
}

/// Calls `f` on every subexpression of `e`, including `e` itself, parents
/// before children (pre-order).
pub fn for_each_subexpr<'e>(e: &'e BExpr, f: &mut impl FnMut(&'e BExpr)) {
    f(e);
    match e {
        BExpr::Lit(_) | BExpr::Var(_) => {}
        BExpr::Load(_, addr) => for_each_subexpr(addr, f),
        BExpr::InlineTable { index, .. } => for_each_subexpr(index, f),
        BExpr::Op(_, a, b) => {
            for_each_subexpr(a, f);
            for_each_subexpr(b, f);
        }
    }
}

/// Number of AST nodes in `e` — the interpreter's per-evaluation work is
/// proportional to this, so passes use it as their cost model.
pub fn expr_size(e: &BExpr) -> usize {
    let mut n = 0;
    for_each_subexpr(e, &mut |_| n += 1);
    n
}

/// Whether `e` reads memory (`Load` or an inline table). Pure expressions
/// are total — every operator is, division by zero included — so they can
/// be duplicated, reordered, or deleted freely; memory reads can trap and
/// must keep their multiplicity.
pub fn reads_memory(e: &BExpr) -> bool {
    let mut found = false;
    for_each_subexpr(e, &mut |sub| {
        found |= matches!(sub, BExpr::Load(..) | BExpr::InlineTable { .. });
    });
    found
}

/// Total AST nodes across every expression of `cmd` (conditions, RHSs,
/// addresses, arguments), plus one per statement — the interpreter work
/// for one pass over the body with each loop run once.
pub fn cmd_size(cmd: &Cmd) -> usize {
    let mut n = 1;
    match cmd {
        Cmd::Skip | Cmd::Unset(_) => {}
        Cmd::Set(_, e) => n += expr_size(e),
        Cmd::Store(_, addr, val) => n += expr_size(addr) + expr_size(val),
        Cmd::Seq(a, b) => n += cmd_size(a) + cmd_size(b) - 1,
        Cmd::If { cond, then_, else_ } => {
            n += expr_size(cond) + cmd_size(then_) + cmd_size(else_);
        }
        Cmd::While { cond, body } => n += expr_size(cond) + cmd_size(body),
        Cmd::Call { args, .. } | Cmd::Interact { args, .. } => {
            n += args.iter().map(expr_size).sum::<usize>();
        }
        Cmd::StackAlloc { body, .. } => n += cmd_size(body),
    }
    n
}

/// Rewrites every expression occurrence in `cmd` (in syntactic order, the
/// same order `cfg::Cfg::build` assigns sites) through `f`. `f` receives
/// each whole top-level expression — a `Set` RHS, a `Store` address or
/// value, an `If`/`While` condition, a call argument — and returns its
/// replacement; use [`map_expr_bottom_up`] inside `f` for per-node
/// rewrites.
pub fn map_cmd_exprs(cmd: &Cmd, f: &mut impl FnMut(&BExpr) -> BExpr) -> Cmd {
    match cmd {
        Cmd::Skip => Cmd::Skip,
        Cmd::Set(v, e) => Cmd::Set(v.clone(), f(e)),
        Cmd::Unset(v) => Cmd::Unset(v.clone()),
        Cmd::Store(size, addr, val) => Cmd::Store(*size, f(addr), f(val)),
        Cmd::Seq(a, b) => Cmd::Seq(
            Box::new(map_cmd_exprs(a, f)),
            Box::new(map_cmd_exprs(b, f)),
        ),
        Cmd::If { cond, then_, else_ } => Cmd::If {
            cond: f(cond),
            then_: Box::new(map_cmd_exprs(then_, f)),
            else_: Box::new(map_cmd_exprs(else_, f)),
        },
        Cmd::While { cond, body } => Cmd::While {
            cond: f(cond),
            body: Box::new(map_cmd_exprs(body, f)),
        },
        Cmd::Call { rets, func, args } => Cmd::Call {
            rets: rets.clone(),
            func: func.clone(),
            args: args.iter().map(&mut *f).collect(),
        },
        Cmd::Interact { rets, action, args } => Cmd::Interact {
            rets: rets.clone(),
            action: action.clone(),
            args: args.iter().map(&mut *f).collect(),
        },
        Cmd::StackAlloc { var, nbytes, body } => Cmd::StackAlloc {
            var: var.clone(),
            nbytes: *nbytes,
            body: Box::new(map_cmd_exprs(body, f)),
        },
    }
}

/// Flattens the `Seq` spine of `cmd` into a statement list. Nested
/// control-flow bodies are *not* flattened — each `If`/`While`/
/// `StackAlloc` stays one element, carrying its body. Inverse of
/// [`seq_of`].
pub fn spine_of(cmd: &Cmd) -> Vec<Cmd> {
    fn walk(cmd: &Cmd, out: &mut Vec<Cmd>) {
        match cmd {
            Cmd::Seq(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Cmd::Skip => {}
            other => out.push(other.clone()),
        }
    }
    let mut out = Vec::new();
    walk(cmd, &mut out);
    out
}

/// Rebuilds a `Seq` spine from a statement list (right-nested, the shape
/// `Cmd::seq` produces). An empty list is `Skip`.
pub fn seq_of(stmts: Vec<Cmd>) -> Cmd {
    Cmd::seq(stmts)
}

/// Every variable name occurring anywhere in `f`: arguments, returns,
/// assignment targets, and expression reads. Fresh-name generators consult
/// this to avoid capture.
pub fn all_names(f: &crate::ast::BFunction) -> std::collections::BTreeSet<String> {
    let mut names = std::collections::BTreeSet::new();
    for_each_name(f, &mut |n| {
        if !names.contains(n) {
            names.insert(n.to_owned());
        }
    });
    names
}

/// Calls `visit` on every occurrence of a variable name in `f` (the names
/// [`all_names`] collects, each as often as it occurs), without building
/// a set.
pub fn for_each_name(f: &crate::ast::BFunction, visit: &mut impl FnMut(&str)) {
    for n in f.args.iter().chain(&f.rets) {
        visit(n);
    }
    cmd_names(&f.body, visit);
}

fn expr_names(e: &BExpr, visit: &mut impl FnMut(&str)) {
    for_each_subexpr(e, &mut |sub| {
        if let BExpr::Var(v) = sub {
            visit(v);
        }
    });
}

fn cmd_names(cmd: &Cmd, visit: &mut impl FnMut(&str)) {
    match cmd {
        Cmd::Skip => {}
        Cmd::Set(v, e) => {
            visit(v);
            expr_names(e, visit);
        }
        Cmd::Unset(v) => visit(v),
        Cmd::Store(_, addr, val) => {
            expr_names(addr, visit);
            expr_names(val, visit);
        }
        Cmd::Seq(a, b) => {
            cmd_names(a, visit);
            cmd_names(b, visit);
        }
        Cmd::If { cond, then_, else_ } => {
            expr_names(cond, visit);
            cmd_names(then_, visit);
            cmd_names(else_, visit);
        }
        Cmd::While { cond, body } => {
            expr_names(cond, visit);
            cmd_names(body, visit);
        }
        Cmd::Call { rets, args, .. } | Cmd::Interact { rets, args, .. } => {
            for r in rets {
                visit(r);
            }
            for a in args {
                expr_names(a, visit);
            }
        }
        Cmd::StackAlloc { var, body, .. } => {
            visit(var);
            cmd_names(body, visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AccessSize, BFunction, BinOp};

    fn add(a: BExpr, b: BExpr) -> BExpr {
        BExpr::op(BinOp::Add, a, b)
    }

    #[test]
    fn bottom_up_sees_rewritten_children() {
        // (1 + 2) * x with "fold literal adds" must expose 3 to the parent.
        let e = BExpr::op(BinOp::Mul, add(BExpr::lit(1), BExpr::lit(2)), BExpr::var("x"));
        let mut seen_three = false;
        let out = map_expr_bottom_up(&e, &mut |node| match node {
            BExpr::Op(BinOp::Add, a, b) => match (&*a, &*b) {
                (BExpr::Lit(x), BExpr::Lit(y)) => BExpr::lit(x.wrapping_add(*y)),
                _ => BExpr::Op(BinOp::Add, a, b),
            },
            BExpr::Op(BinOp::Mul, a, _) => {
                seen_three = matches!(&*a, BExpr::Lit(3));
                BExpr::Op(BinOp::Mul, a, Box::new(BExpr::var("x")))
            }
            other => other,
        });
        assert!(seen_three);
        assert_eq!(out, BExpr::op(BinOp::Mul, BExpr::lit(3), BExpr::var("x")));
    }

    #[test]
    fn expr_size_counts_nodes() {
        let e = BExpr::load(AccessSize::One, add(BExpr::var("s"), BExpr::var("i")));
        assert_eq!(expr_size(&e), 4);
        assert!(reads_memory(&e));
        assert!(!reads_memory(&add(BExpr::var("s"), BExpr::var("i"))));
    }

    #[test]
    fn spine_round_trips() {
        let body = Cmd::seq([
            Cmd::set("a", BExpr::lit(1)),
            Cmd::while_(BExpr::var("a"), Cmd::set("a", BExpr::lit(0))),
            Cmd::set("b", BExpr::lit(2)),
        ]);
        let spine = spine_of(&body);
        assert_eq!(spine.len(), 3);
        assert_eq!(seq_of(spine), body);
    }

    #[test]
    fn map_cmd_exprs_hits_every_position() {
        let body = Cmd::seq([
            Cmd::set("a", BExpr::lit(1)),
            Cmd::store(AccessSize::One, BExpr::var("p"), BExpr::var("a")),
            Cmd::if_(BExpr::var("a"), Cmd::Skip, Cmd::Skip),
        ]);
        let mut count = 0;
        map_cmd_exprs(&body, &mut |e| {
            count += 1;
            e.clone()
        });
        assert_eq!(count, 4); // RHS, addr, value, cond
    }

    #[test]
    fn all_names_covers_args_rets_and_temps() {
        let f = BFunction::new(
            "f",
            ["s"],
            ["out"],
            Cmd::seq([
                Cmd::set("t", add(BExpr::var("s"), BExpr::var("k"))),
                Cmd::set("out", BExpr::var("t")),
            ]),
        );
        let names = all_names(&f);
        for n in ["s", "out", "t", "k"] {
            assert!(names.contains(n), "missing {n}");
        }
    }
}
