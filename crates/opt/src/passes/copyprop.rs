//! Copy propagation and single-use forward substitution.
//!
//! Two phases, both over straight-line structure:
//!
//! 1. **Copy/constant propagation**: a `Set(x, Var y)` or `Set(x, Lit k)`
//!    makes later reads of `x` read `y`/`k` directly, invalidated on
//!    reassignment and conservatively dropped at control-flow joins and
//!    loops (a mapping survives a loop only if neither side is mutated in
//!    the body, which makes it invariant across iterations).
//!
//! 2. **Forward substitution**: for *adjacent* statements
//!    `x = e; S` where `Var x` occurs exactly once in the whole function —
//!    that occurrence inside `S`'s immediately-evaluated expressions — the
//!    definition is substituted into `S` and deleted. This is the main
//!    statement-count win on accumulator loops (`b = load1(p); acc = f(acc,
//!    b)` becomes one statement) and is trap-safe because the statements
//!    are adjacent: every memory read still happens, against the same
//!    memory (a `Set` writes no memory, and `Store`/`If` evaluate their
//!    expressions before any write or branch), and reordering a read past
//!    a *pure* evaluation is unobservable.
//!
//! `While` conditions are never substitution targets (they re-evaluate
//! every iteration), and returned locals are never eliminated.

use crate::PassOutcome;
use rupicola_bedrock::ast::{BExpr, BFunction, Cmd};
use rupicola_bedrock::rewrite::{map_expr_bottom_up, seq_of, spine_of};
use std::collections::{BTreeSet, HashMap};

/// Runs the pass.
pub fn run(f: &BFunction) -> PassOutcome {
    let mut sites = 0;
    let mut env: HashMap<String, BExpr> = HashMap::new();
    let body = prop_cmd(&f.body, &mut env, &mut sites);
    let mut g = BFunction { body, ..f.clone() };
    // Forward substitution cascades (b = load; c = b + 1; use c), so
    // iterate to a fixpoint; each round recomputes global use counts.
    loop {
        let (body, changed) = forward_sub(&g);
        if changed == 0 {
            break;
        }
        sites += changed;
        g.body = body;
    }
    PassOutcome { function: g, sites_rewritten: sites, facts_consumed: 0 }
}

// --- Phase 1: copy/constant propagation -----------------------------------

fn subst(e: &BExpr, env: &HashMap<String, BExpr>, sites: &mut usize) -> BExpr {
    map_expr_bottom_up(e, &mut |node| match node {
        BExpr::Var(v) => match env.get(&v) {
            Some(rep) => {
                *sites += 1;
                rep.clone()
            }
            None => BExpr::Var(v),
        },
        other => other,
    })
}

/// Drops every mapping invalidated by an assignment to `var`: the mapping
/// for `var` itself, and any mapping whose replacement reads `var`.
fn purge(env: &mut HashMap<String, BExpr>, var: &str) {
    env.remove(var);
    env.retain(|_, rep| !rep.mentions(var));
}

/// Locals a command may write: `Set`/`Unset` targets, call and interact
/// returns, `stackalloc` binders.
fn mutated_vars(cmd: &Cmd, out: &mut BTreeSet<String>) {
    match cmd {
        Cmd::Skip | Cmd::Store(..) => {}
        Cmd::Set(v, _) | Cmd::Unset(v) => {
            out.insert(v.clone());
        }
        Cmd::Seq(a, b) => {
            mutated_vars(a, out);
            mutated_vars(b, out);
        }
        Cmd::If { then_, else_, .. } => {
            mutated_vars(then_, out);
            mutated_vars(else_, out);
        }
        Cmd::While { body, .. } => mutated_vars(body, out),
        Cmd::Call { rets, .. } | Cmd::Interact { rets, .. } => {
            out.extend(rets.iter().cloned());
        }
        Cmd::StackAlloc { var, body, .. } => {
            out.insert(var.clone());
            mutated_vars(body, out);
        }
    }
}

fn purge_mutated(env: &mut HashMap<String, BExpr>, cmd: &Cmd) {
    let mut muts = BTreeSet::new();
    mutated_vars(cmd, &mut muts);
    for m in &muts {
        purge(env, m);
    }
}

fn prop_cmd(cmd: &Cmd, env: &mut HashMap<String, BExpr>, sites: &mut usize) -> Cmd {
    match cmd {
        Cmd::Skip => Cmd::Skip,
        Cmd::Set(x, rhs) => {
            let rhs = subst(rhs, env, sites);
            purge(env, x);
            match &rhs {
                BExpr::Lit(_) => {
                    env.insert(x.clone(), rhs.clone());
                }
                BExpr::Var(y) if y != x => {
                    env.insert(x.clone(), rhs.clone());
                }
                _ => {}
            }
            Cmd::Set(x.clone(), rhs)
        }
        Cmd::Unset(x) => {
            purge(env, x);
            Cmd::Unset(x.clone())
        }
        Cmd::Store(size, addr, val) => {
            Cmd::Store(*size, subst(addr, env, sites), subst(val, env, sites))
        }
        Cmd::Seq(a, b) => {
            let a = prop_cmd(a, env, sites);
            let b = prop_cmd(b, env, sites);
            Cmd::Seq(Box::new(a), Box::new(b))
        }
        Cmd::If { cond, then_, else_ } => {
            let cond = subst(cond, env, sites);
            let mut env_t = env.clone();
            let mut env_e = env.clone();
            let t = prop_cmd(then_, &mut env_t, sites);
            let e = prop_cmd(else_, &mut env_e, sites);
            // Join conservatively: keep only pre-branch facts not
            // clobbered by either side.
            purge_mutated(env, then_);
            purge_mutated(env, else_);
            Cmd::If { cond, then_: Box::new(t), else_: Box::new(e) }
        }
        Cmd::While { cond, body } => {
            // Mappings surviving this purge mention only loop-invariant
            // locals, so they hold at every iteration: safe in the
            // condition and inside the body.
            purge_mutated(env, body);
            let cond = subst(cond, env, sites);
            let mut benv = env.clone();
            let body = prop_cmd(body, &mut benv, sites);
            // Facts established inside the body don't hold when the loop
            // runs zero times; discard them.
            Cmd::While { cond, body: Box::new(body) }
        }
        Cmd::Call { rets, func, args } => {
            let args = args.iter().map(|a| subst(a, env, sites)).collect();
            for r in rets {
                purge(env, r);
            }
            Cmd::Call { rets: rets.clone(), func: func.clone(), args }
        }
        Cmd::Interact { rets, action, args } => {
            let args = args.iter().map(|a| subst(a, env, sites)).collect();
            for r in rets {
                purge(env, r);
            }
            Cmd::Interact { rets: rets.clone(), action: action.clone(), args }
        }
        Cmd::StackAlloc { var, nbytes, body } => {
            purge(env, var);
            let mut benv = env.clone();
            let b = prop_cmd(body, &mut benv, sites);
            purge_mutated(env, body);
            Cmd::StackAlloc { var: var.clone(), nbytes: *nbytes, body: Box::new(b) }
        }
    }
}

// --- Phase 2: single-use adjacent forward substitution ---------------------

/// Counts `Var` occurrences across every expression of the function, plus
/// `Unset` targets (an `Unset` of a variable whose definition we deleted
/// would fault).
fn use_counts(cmd: &Cmd, counts: &mut HashMap<String, usize>) {
    let mut count_expr = |e: &BExpr| {
        rupicola_bedrock::rewrite::for_each_subexpr(e, &mut |n| {
            if let BExpr::Var(v) = n {
                *counts.entry(v.clone()).or_insert(0) += 1;
            }
        });
    };
    match cmd {
        Cmd::Skip => {}
        Cmd::Set(_, e) => count_expr(e),
        Cmd::Unset(v) => {
            *counts.entry(v.clone()).or_insert(0) += 1;
        }
        Cmd::Store(_, a, v) => {
            count_expr(a);
            count_expr(v);
        }
        Cmd::Seq(a, b) => {
            use_counts(a, counts);
            use_counts(b, counts);
        }
        Cmd::If { cond, then_, else_ } => {
            count_expr(cond);
            use_counts(then_, counts);
            use_counts(else_, counts);
        }
        Cmd::While { cond, body } => {
            count_expr(cond);
            use_counts(body, counts);
        }
        Cmd::Call { args, .. } | Cmd::Interact { args, .. } => {
            for a in args {
                count_expr(a);
            }
        }
        Cmd::StackAlloc { body, .. } => use_counts(body, counts),
    }
}

/// How many times `var` occurs in `e`.
pub(crate) fn count_var_in(e: &BExpr, var: &str) -> usize {
    let mut n = 0;
    rupicola_bedrock::rewrite::for_each_subexpr(e, &mut |sub| {
        if matches!(sub, BExpr::Var(v) if v == var) {
            n += 1;
        }
    });
    n
}

fn replace_var(e: &BExpr, var: &str, rep: &BExpr) -> BExpr {
    map_expr_bottom_up(e, &mut |node| match node {
        BExpr::Var(v) if v == var => rep.clone(),
        other => other,
    })
}

/// If `s` is a statement whose immediately-evaluated expressions contain
/// the single use of `var`, returns `s` with `def` substituted in.
fn try_substitute(s: &Cmd, var: &str, def: &BExpr) -> Option<Cmd> {
    match s {
        Cmd::Set(y, rhs) if count_var_in(rhs, var) == 1 => {
            Some(Cmd::Set(y.clone(), replace_var(rhs, var, def)))
        }
        Cmd::Store(size, addr, val)
            if count_var_in(addr, var) + count_var_in(val, var) == 1 =>
        {
            Some(Cmd::Store(*size, replace_var(addr, var, def), replace_var(val, var, def)))
        }
        Cmd::If { cond, then_, else_ } if count_var_in(cond, var) == 1 => Some(Cmd::If {
            cond: replace_var(cond, var, def),
            then_: then_.clone(),
            else_: else_.clone(),
        }),
        _ => None,
    }
}

fn forward_sub(f: &BFunction) -> (Cmd, usize) {
    let mut counts = HashMap::new();
    use_counts(&f.body, &mut counts);
    let rets: BTreeSet<&String> = f.rets.iter().collect();
    let mut changed = 0;
    let body = sub_cmd(&f.body, &counts, &rets, &mut changed);
    (body, changed)
}

fn sub_cmd(
    cmd: &Cmd,
    counts: &HashMap<String, usize>,
    rets: &BTreeSet<&String>,
    changed: &mut usize,
) -> Cmd {
    // Recurse into nested bodies first, then fuse along this spine.
    let stmts: Vec<Cmd> = spine_of(cmd)
        .into_iter()
        .map(|s| match s {
            Cmd::If { cond, then_, else_ } => Cmd::If {
                cond,
                then_: Box::new(sub_cmd(&then_, counts, rets, changed)),
                else_: Box::new(sub_cmd(&else_, counts, rets, changed)),
            },
            Cmd::While { cond, body } => {
                Cmd::While { cond, body: Box::new(sub_cmd(&body, counts, rets, changed)) }
            }
            Cmd::StackAlloc { var, nbytes, body } => Cmd::StackAlloc {
                var,
                nbytes,
                body: Box::new(sub_cmd(&body, counts, rets, changed)),
            },
            other => other,
        })
        .collect();

    let mut out: Vec<Cmd> = Vec::with_capacity(stmts.len());
    let mut i = 0;
    while i < stmts.len() {
        if i + 1 < stmts.len() {
            if let Cmd::Set(x, e) = &stmts[i] {
                if !rets.contains(x) && counts.get(x) == Some(&1) {
                    if let Some(fused) = try_substitute(&stmts[i + 1], x, e) {
                        out.push(fused);
                        *changed += 1;
                        i += 2;
                        continue;
                    }
                }
            }
        }
        out.push(stmts[i].clone());
        i += 1;
    }
    seq_of(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_bedrock::ast::{AccessSize, BinOp};

    #[test]
    fn copies_and_constants_propagate() {
        let f = BFunction::new(
            "f",
            ["a"],
            ["r"],
            Cmd::seq([
                Cmd::set("k", BExpr::lit(5)),
                Cmd::set("r", BExpr::op(BinOp::Add, BExpr::var("a"), BExpr::var("k"))),
            ]),
        );
        let out = run(&f);
        // k propagates into r's RHS, then forward-sub is inapplicable
        // (k's use count dropped to 0 via propagation, but the Set stays —
        // dead-store elimination is a separate pass).
        let stmts = spine_of(&out.function.body);
        assert!(matches!(
            &stmts[1],
            Cmd::Set(r, BExpr::Op(BinOp::Add, a, k))
                if r == "r" && **a == BExpr::var("a") && **k == BExpr::lit(5)
        ));
        assert!(out.sites_rewritten >= 1);
    }

    #[test]
    fn single_use_load_fuses_into_consumer() {
        // b = load1(s); acc = acc ^ b  ⇒  acc = acc ^ load1(s)
        let f = BFunction::new(
            "f",
            ["s", "acc0"],
            ["acc"],
            Cmd::seq([
                Cmd::set("acc", BExpr::var("acc0")),
                Cmd::set("b", BExpr::load(AccessSize::One, BExpr::var("s"))),
                Cmd::set("acc", BExpr::op(BinOp::Xor, BExpr::var("acc"), BExpr::var("b"))),
            ]),
        );
        let out = run(&f);
        let stmts = spine_of(&out.function.body);
        assert_eq!(stmts.len(), 2, "{stmts:?}");
        assert!(matches!(&stmts[1], Cmd::Set(acc, _) if acc == "acc"));
    }

    #[test]
    fn multi_use_definition_is_kept() {
        let f = BFunction::new(
            "f",
            ["s"],
            ["r"],
            Cmd::seq([
                Cmd::set("b", BExpr::load(AccessSize::One, BExpr::var("s"))),
                Cmd::set("r", BExpr::op(BinOp::Mul, BExpr::var("b"), BExpr::var("b"))),
            ]),
        );
        let out = run(&f);
        assert_eq!(spine_of(&out.function.body).len(), 2);
    }

    #[test]
    fn returned_local_is_never_eliminated() {
        let f = BFunction::new(
            "f",
            ["s"],
            ["b", "r"],
            Cmd::seq([
                Cmd::set("b", BExpr::load(AccessSize::One, BExpr::var("s"))),
                Cmd::set("r", BExpr::op(BinOp::Add, BExpr::var("b"), BExpr::lit(1))),
            ]),
        );
        let out = run(&f);
        assert_eq!(spine_of(&out.function.body).len(), 2);
    }

    #[test]
    fn loop_carried_mappings_are_dropped() {
        // i = 0; while (i < n) { i = i + 1 }: the i ↦ 0 mapping must not
        // reach the loop condition or body.
        let f = BFunction::new(
            "f",
            ["n"],
            ["i"],
            Cmd::seq([
                Cmd::set("i", BExpr::lit(0)),
                Cmd::while_(
                    BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("n")),
                    Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1))),
                ),
            ]),
        );
        let out = run(&f);
        let stmts = spine_of(&out.function.body);
        let Cmd::While { cond, body } = &stmts[1] else { panic!("shape") };
        assert_eq!(*cond, BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("n")));
        assert!(
            matches!(&**body, Cmd::Set(i, BExpr::Op(BinOp::Add, a, _))
                if i == "i" && **a == BExpr::var("i")),
            "counter update shape must survive: {body:?}"
        );
    }

    #[test]
    fn while_condition_is_not_a_substitution_target() {
        // b = load1(s); while (b) { skip }: substituting the load into the
        // condition would re-execute it every iteration.
        let f = BFunction::new(
            "f",
            ["s"],
            Vec::<String>::new(),
            Cmd::seq([
                Cmd::set("b", BExpr::load(AccessSize::One, BExpr::var("s"))),
                Cmd::while_(BExpr::var("b"), Cmd::Skip),
            ]),
        );
        let out = run(&f);
        assert_eq!(spine_of(&out.function.body).len(), 2);
    }
}
