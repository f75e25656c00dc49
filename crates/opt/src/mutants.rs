//! Seeded miscompiling pass mutants for the fault-injection matrix.
//!
//! Each mutant is a deliberately broken optimization pass — the exact bug
//! class its healthy counterpart guards against, applied *only* where the
//! healthy pass would refuse. That construction matters: a mutant whose
//! output coincides with a sound rewrite would (correctly) survive
//! validation and poison the kill-rate signal. Built this way, every body
//! a mutant changes is genuinely miscompiled, and the translation-
//! validation stack must reject 100% of them.

use crate::passes::copyprop::count_var_in;
use rupicola_bedrock::ast::{AccessSize, BExpr, BFunction, BinOp, Cmd};
use rupicola_bedrock::rewrite::{
    for_each_subexpr, map_cmd_exprs, map_expr_bottom_up, seq_of, spine_of,
};

/// A seeded miscompiling mutation of one optimization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassMutant {
    /// Strength reduction with an off-by-one shift: `x * 2^k → x << (k+1)`.
    WrongShift,
    /// Forward substitution ignoring the use count: substitutes the first
    /// use of a multi-use temporary and deletes its definition, leaving
    /// the remaining uses reading an undefined local.
    SubstMultiUse,
    /// Dead-store elimination deleting a *live* store (the first `Set`
    /// in the body).
    DropLiveStore,
    /// Load-CSE hoisting a repeated 1-byte load at the wrong width,
    /// reading two bytes where the program read one.
    CseWrongWidth,
}

impl PassMutant {
    /// Every mutant.
    pub const ALL: [PassMutant; 4] = [
        PassMutant::WrongShift,
        PassMutant::SubstMultiUse,
        PassMutant::DropLiveStore,
        PassMutant::CseWrongWidth,
    ];

    /// Stable name (used in the fault-matrix report).
    pub fn name(self) -> &'static str {
        match self {
            PassMutant::WrongShift => "strength-reduce/wrong-shift",
            PassMutant::SubstMultiUse => "copy-prop/subst-multi-use",
            PassMutant::DropLiveStore => "dead-store/drop-live",
            PassMutant::CseWrongWidth => "load-cse/wrong-width",
        }
    }

    /// Applies the broken pass. `None` means the mutant found no site in
    /// this function (not applicable); `Some` is a changed, miscompiled
    /// body.
    pub fn apply(self, f: &BFunction) -> Option<BFunction> {
        let g = match self {
            PassMutant::WrongShift => wrong_shift(f),
            PassMutant::SubstMultiUse => subst_multi_use(f),
            PassMutant::DropLiveStore => drop_live_store(f),
            PassMutant::CseWrongWidth => cse_wrong_width(f),
        };
        g.filter(|g| g != f)
    }
}

/// A seeded *semantics-preserving but leaky* pass mutant: the
/// constant-time counterpart of [`PassMutant`]. Kept in its own enum —
/// these survive all three functional validation layers by construction
/// (the rewrite is correct!) and are killable only by the
/// secret-independence layer, so they belong in the fault matrix's `ct`
/// column, not the functional one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtPassMutant {
    /// If-conversion run *backwards*: rewrites a straight-line
    /// `x = e` into `if (e) { x = e } else { x = e }` — the exact inverse
    /// of the if-conversion a CT-hardening pass performs. The expression
    /// is pure, both arms are the original statement, so values, heap,
    /// trace, and locals are all preserved; but when `e` reads secrets the
    /// rewritten body branches on them.
    IfConvertBackwards,
}

impl CtPassMutant {
    /// Every CT pass mutant.
    pub const ALL: [CtPassMutant; 1] = [CtPassMutant::IfConvertBackwards];

    /// Stable name (used in the fault-matrix report).
    pub fn name(self) -> &'static str {
        match self {
            CtPassMutant::IfConvertBackwards => "if-convert/backwards",
        }
    }

    /// Applies the leaky rewrite. `None` means no applicable site.
    pub fn apply(self, f: &BFunction) -> Option<BFunction> {
        match self {
            CtPassMutant::IfConvertBackwards => if_convert_backwards(f),
        }
    }
}

fn expr_reads_memory(e: &BExpr) -> bool {
    let mut found = false;
    for_each_subexpr(e, &mut |sub| {
        if matches!(sub, BExpr::Load(..) | BExpr::InlineTable { .. }) {
            found = true;
        }
    });
    found
}

fn any_set_matches(cmd: &Cmd, pred: &dyn Fn(&BExpr) -> bool) -> bool {
    match cmd {
        Cmd::Set(_, e) => pred(e),
        Cmd::Seq(a, b) => any_set_matches(a, pred) || any_set_matches(b, pred),
        Cmd::If { then_, else_, .. } => {
            any_set_matches(then_, pred) || any_set_matches(else_, pred)
        }
        Cmd::While { body, .. } | Cmd::StackAlloc { body, .. } => any_set_matches(body, pred),
        _ => false,
    }
}

fn if_convert_last_set(cmd: &Cmd, pred: &dyn Fn(&BExpr) -> bool, done: &mut bool) -> Cmd {
    match cmd {
        // Recurse right-to-left so the *last* matching assignment is the
        // one converted (in loops that is a per-iteration branch).
        Cmd::Seq(a, b) => {
            let b = if_convert_last_set(b, pred, done);
            let a = if_convert_last_set(a, pred, done);
            Cmd::Seq(Box::new(a), Box::new(b))
        }
        Cmd::If { cond, then_, else_ } => {
            let else_ = if_convert_last_set(else_, pred, done);
            let then_ = if_convert_last_set(then_, pred, done);
            Cmd::If { cond: cond.clone(), then_: Box::new(then_), else_: Box::new(else_) }
        }
        Cmd::While { cond, body } => {
            let body = if_convert_last_set(body, pred, done);
            Cmd::While { cond: cond.clone(), body: Box::new(body) }
        }
        Cmd::StackAlloc { var, nbytes, body } => {
            let body = if_convert_last_set(body, pred, done);
            Cmd::StackAlloc { var: var.clone(), nbytes: *nbytes, body: Box::new(body) }
        }
        Cmd::Set(x, e) if !*done && pred(e) => {
            *done = true;
            Cmd::if_(e.clone(), Cmd::set(x.clone(), e.clone()), Cmd::set(x.clone(), e.clone()))
        }
        other => other.clone(),
    }
}

/// The backwards if-conversion: prefers the last assignment that reads
/// memory (a secret load in any CT suite program), falling back to the
/// last non-literal assignment (the masked select in `ct_select`), so the
/// introduced branch condition actually carries taint rather than a public
/// loop counter.
fn if_convert_backwards(f: &BFunction) -> Option<BFunction> {
    let memory: &dyn Fn(&BExpr) -> bool = &expr_reads_memory;
    let nonlit: &dyn Fn(&BExpr) -> bool = &|e| !matches!(e, BExpr::Lit(_));
    let pred = if any_set_matches(&f.body, memory) {
        memory
    } else if any_set_matches(&f.body, nonlit) {
        nonlit
    } else {
        return None;
    };
    let mut done = false;
    let body = if_convert_last_set(&f.body, pred, &mut done);
    done.then(|| BFunction { body, ..f.clone() })
}

fn wrong_shift(f: &BFunction) -> Option<BFunction> {
    let pow2 = |n: u64| (n.count_ones() == 1 && n > 1).then(|| u64::from(n.trailing_zeros()));
    let mut changed = false;
    let body = map_cmd_exprs(&f.body, &mut |e| {
        map_expr_bottom_up(e, &mut |node| {
            let BExpr::Op(BinOp::Mul, a, b) = node else { return node };
            if let BExpr::Lit(n) = &*b {
                if let Some(k) = pow2(*n) {
                    changed = true;
                    return BExpr::Op(BinOp::Slu, a, Box::new(BExpr::Lit(k + 1)));
                }
            }
            if let BExpr::Lit(n) = &*a {
                if let Some(k) = pow2(*n) {
                    changed = true;
                    return BExpr::Op(BinOp::Slu, b, Box::new(BExpr::Lit(k + 1)));
                }
            }
            BExpr::Op(BinOp::Mul, a, b)
        })
    });
    changed.then(|| BFunction { body, ..f.clone() })
}

fn count_var_uses(cmd: &Cmd, var: &str) -> usize {
    match cmd {
        Cmd::Skip | Cmd::Unset(_) => 0,
        Cmd::Set(_, e) => count_var_in(e, var),
        Cmd::Store(_, a, v) => count_var_in(a, var) + count_var_in(v, var),
        Cmd::Seq(a, b) => count_var_uses(a, var) + count_var_uses(b, var),
        Cmd::If { cond, then_, else_ } => {
            count_var_in(cond, var)
                + count_var_uses(then_, var)
                + count_var_uses(else_, var)
        }
        Cmd::While { cond, body } => count_var_in(cond, var) + count_var_uses(body, var),
        Cmd::Call { args, .. } | Cmd::Interact { args, .. } => {
            args.iter().map(|a| count_var_in(a, var)).sum()
        }
        Cmd::StackAlloc { body, .. } => count_var_uses(body, var),
    }
}

/// Forward substitution exactly where the healthy pass refuses: a
/// definition with *more than one* use, substituted into the adjacent
/// statement's first use and then deleted.
fn subst_multi_use(f: &BFunction) -> Option<BFunction> {
    fn go(cmd: &Cmd, f: &BFunction, done: &mut bool) -> Cmd {
        let stmts: Vec<Cmd> = spine_of(cmd)
            .into_iter()
            .map(|s| match s {
                Cmd::If { cond, then_, else_ } if !*done => Cmd::If {
                    cond,
                    then_: Box::new(go(&then_, f, done)),
                    else_: Box::new(go(&else_, f, done)),
                },
                Cmd::While { cond, body } if !*done => {
                    Cmd::While { cond, body: Box::new(go(&body, f, done)) }
                }
                other => other,
            })
            .collect();
        let mut out = Vec::with_capacity(stmts.len());
        let mut i = 0;
        while i < stmts.len() {
            if !*done && i + 1 < stmts.len() {
                if let Cmd::Set(x, e) = &stmts[i] {
                    let multi_use = !f.rets.contains(x) && count_var_uses(&f.body, x) > 1;
                    if multi_use {
                        if let Some(fused) = substitute_first_use(&stmts[i + 1], x, e) {
                            out.push(fused);
                            *done = true;
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
    let mut done = false;
    let body = go(&f.body, f, &mut done);
    done.then(|| BFunction { body, ..f.clone() })
}

fn substitute_first_use(s: &Cmd, var: &str, def: &BExpr) -> Option<Cmd> {
    fn replace_first(e: &BExpr, var: &str, def: &BExpr, used: &mut bool) -> BExpr {
        if *used {
            return e.clone();
        }
        match e {
            BExpr::Var(v) if v == var => {
                *used = true;
                def.clone()
            }
            BExpr::Lit(_) | BExpr::Var(_) => e.clone(),
            BExpr::Load(size, addr) => {
                BExpr::Load(*size, Box::new(replace_first(addr, var, def, used)))
            }
            BExpr::InlineTable { size, table, index } => BExpr::InlineTable {
                size: *size,
                table: table.clone(),
                index: Box::new(replace_first(index, var, def, used)),
            },
            BExpr::Op(op, a, b) => {
                let a = replace_first(a, var, def, used);
                let b = replace_first(b, var, def, used);
                BExpr::Op(*op, Box::new(a), Box::new(b))
            }
        }
    }
    let mut used = false;
    let out = match s {
        Cmd::Set(y, rhs) => Cmd::Set(y.clone(), replace_first(rhs, var, def, &mut used)),
        Cmd::Store(size, addr, val) => {
            let addr = replace_first(addr, var, def, &mut used);
            let val = replace_first(val, var, def, &mut used);
            Cmd::Store(*size, addr, val)
        }
        _ => return None,
    };
    used.then_some(out)
}

/// Deletes the first `Set` in the body, live or not.
fn drop_live_store(f: &BFunction) -> Option<BFunction> {
    fn go(cmd: &Cmd, done: &mut bool) -> Cmd {
        match cmd {
            Cmd::Set(..) if !*done => {
                *done = true;
                Cmd::Skip
            }
            Cmd::Seq(a, b) => {
                let a = go(a, done);
                let b = go(b, done);
                Cmd::Seq(Box::new(a), Box::new(b))
            }
            other => other.clone(),
        }
    }
    let mut done = false;
    let body = go(&f.body, &mut done);
    done.then(|| BFunction { body, ..f.clone() })
}

/// Widens every occurrence of one repeated 1-byte load — the load a
/// healthy CSE pass would hoist — reading two bytes where the program
/// read one.
fn cse_wrong_width(f: &BFunction) -> Option<BFunction> {
    let mut target: Option<BExpr> = None;
    let _ = map_cmd_exprs(&f.body, &mut |e| {
        if target.is_none() {
            let mut counts: Vec<(BExpr, usize)> = Vec::new();
            for_each_subexpr(e, &mut |sub| {
                if matches!(sub, BExpr::Load(AccessSize::One, _)) {
                    match counts.iter_mut().find(|(c, _)| c == sub) {
                        Some((_, n)) => *n += 1,
                        None => counts.push((sub.clone(), 1)),
                    }
                }
            });
            if let Some((load, _)) = counts.iter().find(|(_, n)| *n >= 2) {
                target = Some(load.clone());
            }
        }
        e.clone()
    });
    let target = target?;
    let BExpr::Load(_, addr) = &target else { return None };
    let widened = BExpr::Load(AccessSize::Two, addr.clone());
    let body = map_cmd_exprs(&f.body, &mut |e| {
        map_expr_bottom_up(e, &mut |node| {
            if node == target {
                widened.clone()
            } else {
                node
            }
        })
    });
    Some(BFunction { body, ..f.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::copyprop;

    #[test]
    fn if_convert_backwards_branches_on_the_masked_select() {
        let f = BFunction::new(
            "f",
            ["c", "x"],
            ["r"],
            Cmd::seq([
                Cmd::set("m", BExpr::op(BinOp::Sub, BExpr::lit(0), BExpr::var("c"))),
                Cmd::set("r", BExpr::op(BinOp::And, BExpr::var("x"), BExpr::var("m"))),
            ]),
        );
        let g = CtPassMutant::IfConvertBackwards.apply(&f).expect("applicable");
        // The *last* assignment became a branch with identical arms.
        let stmts = spine_of(&g.body);
        assert_eq!(stmts.len(), 2);
        let Cmd::If { cond, then_, else_ } = &stmts[1] else { panic!("converted") };
        assert_eq!(*cond, BExpr::op(BinOp::And, BExpr::var("x"), BExpr::var("m")));
        assert_eq!(then_, else_);
    }

    #[test]
    fn if_convert_backwards_prefers_memory_reads() {
        let f = BFunction::new(
            "f",
            ["s"],
            ["r"],
            Cmd::seq([
                Cmd::set("b", BExpr::load(AccessSize::One, BExpr::var("s"))),
                Cmd::set("r", BExpr::op(BinOp::Add, BExpr::var("b"), BExpr::lit(1))),
            ]),
        );
        let g = CtPassMutant::IfConvertBackwards.apply(&f).expect("applicable");
        let stmts = spine_of(&g.body);
        assert!(
            matches!(&stmts[0], Cmd::If { cond, .. } if matches!(cond, BExpr::Load(..))),
            "the load assignment is the converted one"
        );
        assert!(matches!(&stmts[1], Cmd::Set(..)));
    }

    #[test]
    fn wrong_shift_fires_on_pow2_multiplies() {
        let f = BFunction::new(
            "f",
            ["x"],
            ["r"],
            Cmd::set("r", BExpr::op(BinOp::Mul, BExpr::var("x"), BExpr::lit(8))),
        );
        let g = PassMutant::WrongShift.apply(&f).expect("applicable");
        let Cmd::Set(_, rhs) = g.body else { panic!("shape") };
        assert_eq!(rhs, BExpr::op(BinOp::Slu, BExpr::var("x"), BExpr::lit(4)));
    }

    #[test]
    fn subst_multi_use_leaves_a_dangling_read() {
        let f = BFunction::new(
            "f",
            ["s"],
            ["r"],
            Cmd::seq([
                Cmd::set("b", BExpr::load(AccessSize::One, BExpr::var("s"))),
                Cmd::set("r", BExpr::op(BinOp::Add, BExpr::var("b"), BExpr::var("b"))),
            ]),
        );
        let g = PassMutant::SubstMultiUse.apply(&f).expect("applicable");
        // The definition is gone but a use of `b` survives.
        assert_eq!(count_var_uses(&g.body, "b"), 1);
        assert_eq!(spine_of(&g.body).len(), 1);
    }

    #[test]
    fn healthy_pass_refuses_what_the_mutant_does() {
        // Same function: the real copy-prop pass must not change it.
        let f = BFunction::new(
            "f",
            ["s"],
            ["r"],
            Cmd::seq([
                Cmd::set("b", BExpr::load(AccessSize::One, BExpr::var("s"))),
                Cmd::set("r", BExpr::op(BinOp::Add, BExpr::var("b"), BExpr::var("b"))),
            ]),
        );
        let healthy = copyprop::run(&f);
        assert_eq!(healthy.function, f);
    }

    #[test]
    fn drop_live_store_always_fires_on_nonempty_bodies() {
        let f =
            BFunction::new("f", Vec::<String>::new(), ["r"], Cmd::set("r", BExpr::lit(1)));
        let g = PassMutant::DropLiveStore.apply(&f).expect("applicable");
        assert_eq!(spine_of(&g.body).len(), 0);
    }

    #[test]
    fn cse_wrong_width_needs_a_repeated_byte_load() {
        let single = BFunction::new(
            "f",
            ["s"],
            ["r"],
            Cmd::set("r", BExpr::load(AccessSize::One, BExpr::var("s"))),
        );
        assert!(PassMutant::CseWrongWidth.apply(&single).is_none());

        let repeated = BFunction::new(
            "f",
            ["s"],
            ["r"],
            Cmd::set(
                "r",
                BExpr::op(
                    BinOp::Mul,
                    BExpr::load(AccessSize::One, BExpr::var("s")),
                    BExpr::load(AccessSize::One, BExpr::var("s")),
                ),
            ),
        );
        let g = PassMutant::CseWrongWidth.apply(&repeated).expect("applicable");
        assert_ne!(g, repeated);
    }
}
