//! Common-subexpression elimination for repeated memory reads (and, with
//! a cost model, large pure subexpressions).
//!
//! The pass walks each straight-line statement run (a `Seq` spine
//! segment; nested `If`/`While`/`StackAlloc` bodies are processed as
//! their own runs) and looks for a subexpression that is evaluated
//! several times while its value is provably stable:
//!
//! - the scan window extends forward from the first occurrence until a
//!   statement assigns one of the expression's variables, or — for
//!   memory-reading expressions — until anything writes memory
//!   (`Store`, calls, interacts) or control flow intervenes. Occurrences
//!   *in* the cutting statement still count: a `Set` evaluates its RHS
//!   before assigning, and a `Store` evaluates both operands before
//!   writing.
//! - repeated loads are hoisted into a fresh `_cse<n>` temporary inserted
//!   just before the first occurrence (count ≥ 2 pays: loads evaluate
//!   eagerly and unconditionally there, so hoisting preserves the trap
//!   set exactly); pure subexpressions hoist only when
//!   `(count − 1) · (size − 1) > 2` — the break-even of adding one
//!   statement plus one variable read per occurrence;
//! - when a statement is already `x = e`, later occurrences of `e` in the
//!   window are simply rewritten to `x` ("available expression") with no
//!   new temporary.
//!
//! A `Set` right-hand side is never rewritten *at its root* (that would
//! turn counter updates like `i = i + 1` into shapes the loop-progress
//! lint no longer recognizes), and `While` conditions are never rewritten
//! (they re-evaluate every iteration).
//!
//! The rewrite loop applies the first profitable candidate (lowest start
//! statement, larger expressions first) until none is left. After
//! applying a candidate that starts at statement `s`, the search resumes
//! at `s`, not at 0, and finds exactly the candidate a restart would:
//!
//! - applying a candidate touches only `stmts[s..]` (a hoisted temporary
//!   is inserted at `s`), so every statement before `s` and every
//!   candidate first evaluated there is unchanged;
//! - such a candidate `e`, first evaluated at `j < s`, was unprofitable
//!   before the application and can only lose later occurrences in it.
//!   Occurrences of the rewritten expression become a variable; a copy of
//!   `e` inside them becomes the single copy in the hoisted definition
//!   (hoisting needs an occurrence at `s` itself, so `e`'s window had at
//!   least that one), or vanishes. A *new* occurrence of `e` would have to
//!   mention the replacing variable. A hoisted temporary is fresh, so `e`
//!   cannot mention it. In available-expression mode the variable is the
//!   `x` of the `Set(x, _)` at `s`, which ends every window whose
//!   expression mentions `x` at `s`, before the first rewritten statement.
//!   No statement changes kind or target, and the inserted `Set` of a fresh
//!   temporary ends no window, so every window ends where it did.
//!   Profitability only grows with the occurrence count, so `e` stays
//!   unprofitable.
//!
//! Resuming saves one rescan of the run's prefix per rewrite.

use crate::{PassOutcome, TEMP_PREFIX};
use rupicola_bedrock::ast::{BExpr, BFunction, Cmd};
use rupicola_bedrock::rewrite::{
    all_names, expr_size, for_each_subexpr, reads_memory, seq_of, spine_of,
};
use std::collections::BTreeSet;

/// Hard cap on rewrite applications, a backstop against a cycling greedy
/// loop (each application is meant to strictly shrink the body's node
/// count or occurrence multiset).
const MAX_APPLICATIONS: usize = 10_000;

/// Runs the pass.
pub fn run(f: &BFunction) -> PassOutcome {
    run_with(f, true)
}

/// Runs the pass; `resume` picks where the search restarts after each
/// application: at the applied candidate's start statement, or (the
/// reference the tests compare against) at statement 0.
fn run_with(f: &BFunction, resume: bool) -> PassOutcome {
    let mut names = all_names(f);
    let mut fresh = 0usize;
    let mut sites = 0usize;
    let body = cse_cmd(&f.body, &mut names, &mut fresh, &mut sites, resume);
    PassOutcome {
        function: BFunction { body, ..f.clone() },
        sites_rewritten: sites,
        facts_consumed: 0,
    }
}

fn cse_cmd(
    cmd: &Cmd,
    names: &mut BTreeSet<String>,
    fresh: &mut usize,
    sites: &mut usize,
    resume: bool,
) -> Cmd {
    let mut stmts: Vec<Cmd> = spine_of(cmd)
        .into_iter()
        .map(|s| match s {
            Cmd::If { cond, then_, else_ } => Cmd::If {
                cond,
                then_: Box::new(cse_cmd(&then_, names, fresh, sites, resume)),
                else_: Box::new(cse_cmd(&else_, names, fresh, sites, resume)),
            },
            Cmd::While { cond, body } => {
                Cmd::While { cond, body: Box::new(cse_cmd(&body, names, fresh, sites, resume)) }
            }
            Cmd::StackAlloc { var, nbytes, body } => Cmd::StackAlloc {
                var,
                nbytes,
                body: Box::new(cse_cmd(&body, names, fresh, sites, resume)),
            },
            other => other,
        })
        .collect();

    let mut from = 0;
    let mut applications = 0;
    while applications < MAX_APPLICATIONS {
        match find_candidate(&stmts, from) {
            Some(c) => {
                apply_candidate(&mut stmts, &c, names, fresh, sites);
                applications += 1;
                if resume {
                    from = c.start;
                }
            }
            None => break,
        }
    }
    seq_of(stmts)
}

/// One profitable rewrite opportunity.
struct Candidate {
    /// The repeated subexpression.
    expr: BExpr,
    /// Index of the statement holding its first evaluation.
    start: usize,
    /// Last statement index (inclusive) whose occurrences may be
    /// rewritten.
    end: usize,
    /// `Some(x)` when `stmts[start]` is `Set(x, expr)` — reuse `x`
    /// instead of hoisting a temporary.
    avail: Option<String>,
}

/// The expressions a statement evaluates immediately, with a flag marking
/// the one position that must never be rewritten at its root (a `Set`
/// RHS). `While` conditions and call arguments are deliberately absent.
fn eval_exprs(s: &Cmd) -> Vec<(&BExpr, bool)> {
    match s {
        Cmd::Set(_, rhs) => vec![(rhs, true)],
        Cmd::Store(_, addr, val) => vec![(addr, false), (val, false)],
        Cmd::If { cond, .. } => vec![(cond, false)],
        _ => Vec::new(),
    }
}

/// Whether `s`, *after* evaluating its own expressions, invalidates an
/// expression reading `vars` (and memory, when `reads_mem`) for later
/// statements.
fn invalidates(s: &Cmd, vars: &[String], reads_mem: bool, avail: Option<&str>) -> bool {
    let clobbers_var = |v: &String| vars.contains(v) || avail == Some(v.as_str());
    match s {
        Cmd::Skip => false,
        Cmd::Set(v, _) | Cmd::Unset(v) => clobbers_var(v),
        Cmd::Store(..) => reads_mem,
        // Conservative: control flow and calls end every window.
        Cmd::Seq(..)
        | Cmd::If { .. }
        | Cmd::While { .. }
        | Cmd::Call { .. }
        | Cmd::Interact { .. }
        | Cmd::StackAlloc { .. } => true,
    }
}

fn count_subtree(hay: &BExpr, needle: &BExpr, skip_root: bool) -> usize {
    let mut n = 0;
    for_each_subexpr(hay, &mut |sub| {
        if sub == needle && !(skip_root && std::ptr::eq(sub, hay)) {
            n += 1;
        }
    });
    n
}

/// Counts rewritable occurrences of `e` in `stmts[j]`.
fn occurrences_in(s: &Cmd, e: &BExpr) -> usize {
    eval_exprs(s).iter().map(|(x, skip_root)| count_subtree(x, e, *skip_root)).sum()
}

/// The first profitable candidate first evaluated at or after statement
/// `from`.
fn find_candidate(stmts: &[Cmd], from: usize) -> Option<Candidate> {
    for (j, s) in stmts.iter().enumerate().skip(from) {
        // Candidate subexpressions first evaluated at statement j, larger
        // first so a repeated load swallows its repeated address.
        let mut cands: Vec<(BExpr, Option<String>)> = Vec::new();
        if let Cmd::Set(x, rhs) = s {
            if expr_size(rhs) >= 2 {
                cands.push((rhs.clone(), Some(x.clone())));
            }
        }
        for (root, _) in eval_exprs(s) {
            for_each_subexpr(root, &mut |sub| {
                if expr_size(sub) >= 2 && !cands.iter().any(|(c, _)| c == sub) {
                    cands.push((sub.clone(), None));
                }
            });
        }
        cands.sort_by_key(|(c, _)| std::cmp::Reverse(expr_size(c)));

        for (e, avail) in cands {
            let vars = e.vars();
            let reads_mem = reads_memory(&e);
            // Available-expression mode must not reuse a definition whose
            // own RHS is the whole expression *and* whose target appears
            // in it (x = f(x) changes the meaning of later occurrences).
            if let Some(x) = &avail {
                if vars.contains(x) {
                    continue;
                }
            }
            let within = if avail.is_some() { 0 } else { occurrences_in(s, &e) };
            // Scan forward while the value is stable. In available-
            // expression mode the defining assignment itself is what makes
            // the value available, not an invalidation (x ∉ vars(e) was
            // checked above, and a `Set` writes no memory).
            let start_invalidates = avail.is_none() && invalidates(s, &vars, reads_mem, None);
            let mut later = 0;
            let mut end = j;
            if !start_invalidates {
                for (m, sm) in stmts.iter().enumerate().skip(j + 1) {
                    later += occurrences_in(sm, &e);
                    end = m;
                    if invalidates(sm, &vars, reads_mem, avail.as_deref()) {
                        break;
                    }
                }
            }
            let profitable = match &avail {
                Some(_) => {
                    later >= 1 && (reads_mem || later * (expr_size(&e) - 1) >= 2)
                }
                None => {
                    let count = within + later;
                    if reads_mem {
                        count >= 2
                    } else {
                        count >= 2 && (count - 1) * (expr_size(&e) - 1) > 2
                    }
                }
            };
            if profitable {
                return Some(Candidate { expr: e, start: j, end, avail });
            }
        }
    }
    None
}

fn replace_subtree(hay: &BExpr, needle: &BExpr, rep: &BExpr, skip_root: bool) -> BExpr {
    if !skip_root && hay == needle {
        return rep.clone();
    }
    match hay {
        BExpr::Lit(_) | BExpr::Var(_) => hay.clone(),
        BExpr::Load(size, addr) => {
            BExpr::Load(*size, Box::new(replace_subtree(addr, needle, rep, false)))
        }
        BExpr::InlineTable { size, table, index } => BExpr::InlineTable {
            size: *size,
            table: table.clone(),
            index: Box::new(replace_subtree(index, needle, rep, false)),
        },
        BExpr::Op(op, a, b) => BExpr::Op(
            *op,
            Box::new(replace_subtree(a, needle, rep, false)),
            Box::new(replace_subtree(b, needle, rep, false)),
        ),
    }
}

fn rewrite_stmt(s: &Cmd, needle: &BExpr, rep: &BExpr, sites: &mut usize) -> Cmd {
    match s {
        Cmd::Set(x, rhs) => {
            *sites += count_subtree(rhs, needle, true);
            Cmd::Set(x.clone(), replace_subtree(rhs, needle, rep, true))
        }
        Cmd::Store(size, addr, val) => {
            *sites += count_subtree(addr, needle, false) + count_subtree(val, needle, false);
            Cmd::Store(
                *size,
                replace_subtree(addr, needle, rep, false),
                replace_subtree(val, needle, rep, false),
            )
        }
        Cmd::If { cond, then_, else_ } => {
            *sites += count_subtree(cond, needle, false);
            Cmd::If {
                cond: replace_subtree(cond, needle, rep, false),
                then_: then_.clone(),
                else_: else_.clone(),
            }
        }
        other => other.clone(),
    }
}

fn fresh_temp(names: &mut BTreeSet<String>, fresh: &mut usize) -> String {
    loop {
        let t = format!("{TEMP_PREFIX}{fresh}");
        *fresh += 1;
        if names.insert(t.clone()) {
            return t;
        }
    }
}

fn apply_candidate(
    stmts: &mut Vec<Cmd>,
    c: &Candidate,
    names: &mut BTreeSet<String>,
    fresh: &mut usize,
    sites: &mut usize,
) {
    match &c.avail {
        Some(x) => {
            let rep = BExpr::var(x.clone());
            for s in stmts.iter_mut().take(c.end + 1).skip(c.start + 1) {
                *s = rewrite_stmt(s, &c.expr, &rep, sites);
            }
        }
        None => {
            let t = fresh_temp(names, fresh);
            let rep = BExpr::var(t.clone());
            for s in stmts.iter_mut().take(c.end + 1).skip(c.start) {
                *s = rewrite_stmt(s, &c.expr, &rep, sites);
            }
            stmts.insert(c.start, Cmd::Set(t, c.expr.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_bedrock::ast::{AccessSize, BinOp};
    use rupicola_minicheck::{check, Rng};

    /// Resuming the search gives exactly what restarting it at statement 0
    /// after every application gives: same body, same site count.
    fn assert_resume_matches_restart(f: &BFunction) -> usize {
        let resumed = run(f);
        let restarted = run_with(f, false);
        assert_eq!(resumed.function, restarted.function, "{}: bodies differ", f.name);
        assert_eq!(
            resumed.sites_rewritten, restarted.sites_rewritten,
            "{}: site counts differ",
            f.name
        );
        resumed.sites_rewritten
    }

    /// A small expression over the variables `a`, `b`, `p` and a pool of
    /// three addresses, so loads and address arithmetic repeat often.
    fn random_expr(rng: &mut Rng, depth: u32) -> BExpr {
        let vars = ["a", "b", "p"];
        let addr = |rng: &mut Rng| match rng.below(3) {
            0 => BExpr::var("p"),
            1 => BExpr::op(BinOp::Add, BExpr::var("p"), BExpr::lit(4)),
            _ => BExpr::op(BinOp::Add, BExpr::var("p"), BExpr::var("a")),
        };
        match if depth == 0 { rng.below(3) } else { rng.below(6) } {
            0 => BExpr::var(*rng.pick(&vars)),
            1 => BExpr::lit(rng.below(8)),
            2 => BExpr::load(*rng.pick(&[AccessSize::One, AccessSize::Four]), addr(rng)),
            _ => BExpr::op(
                *rng.pick(&[BinOp::Add, BinOp::Xor, BinOp::Mul]),
                random_expr(rng, depth - 1),
                random_expr(rng, depth - 1),
            ),
        }
    }

    /// A straight-line statement: mostly assignments (some reassigning an
    /// address variable), some stores, and the odd branch whose arms are
    /// runs of their own.
    fn random_stmt(rng: &mut Rng, depth: u32) -> Cmd {
        match rng.below(10) {
            0..=5 => Cmd::set(*rng.pick(&["a", "b", "c", "d"]), random_expr(rng, 2)),
            6 | 7 => Cmd::store(
                *rng.pick(&[AccessSize::One, AccessSize::Four]),
                random_expr(rng, 1),
                random_expr(rng, 2),
            ),
            8 if depth > 0 => Cmd::if_(
                random_expr(rng, 1),
                random_spine(rng, depth - 1),
                random_spine(rng, depth - 1),
            ),
            _ => Cmd::set("c", random_expr(rng, 3)),
        }
    }

    fn random_spine(rng: &mut Rng, depth: u32) -> Cmd {
        let n = rng.range(1, 12);
        Cmd::seq((0..n).map(|_| random_stmt(rng, depth)))
    }

    #[test]
    fn resumed_search_matches_restarted_search_on_random_spines() {
        let mut rewritten = 0;
        check("loadcse_resume_matches_restart", 512, |rng| {
            let body = random_spine(rng, 1);
            let f = BFunction::new("f", ["p", "a", "b"], ["c"], body);
            if assert_resume_matches_restart(&f) > 0 {
                rewritten += 1;
            }
        });
        assert!(rewritten >= 128, "only {rewritten} of 512 spines had a rewrite");
    }

    #[test]
    fn resumed_search_matches_restarted_search_on_the_perf_suite() {
        let dbs = rupicola_ext::standard_dbs();
        for entry in rupicola_programs::perf_suite() {
            let name = entry.info.name;
            let sites = rupicola_programs::parallel::on_deep_stack(|| {
                let cf = rupicola_core::compile_with_limits(
                    &(entry.model)(),
                    &(entry.spec)(),
                    &dbs,
                    (entry.limits)(rupicola_core::EngineLimits::default()),
                )
                .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
                // The certified body, and the body load-CSE sees at the
                // end of the full pipeline.
                let mut sites = assert_resume_matches_restart(&cf.function);
                let mut body = cf.function;
                for pass in crate::PassId::ALL {
                    if pass == crate::PassId::LoadCse {
                        sites += assert_resume_matches_restart(&body);
                    }
                    body = crate::run_pass(pass, &body).function;
                }
                sites
            });
            if name == "chacha20_block" {
                assert!(sites > 0, "{name}: load-CSE never fired");
            }
        }
    }

    fn load1(addr: BExpr) -> BExpr {
        BExpr::load(AccessSize::One, addr)
    }

    fn addv(a: &str, b: &str) -> BExpr {
        BExpr::op(BinOp::Add, BExpr::var(a), BExpr::var(b))
    }

    #[test]
    fn repeated_load_in_one_statement_is_hoisted() {
        // r = load1(s+i) * load1(s+i)
        let e = BExpr::op(BinOp::Mul, load1(addv("s", "i")), load1(addv("s", "i")));
        let f = BFunction::new("f", ["s", "i"], ["r"], Cmd::set("r", e));
        let out = run(&f);
        let stmts = spine_of(&out.function.body);
        assert_eq!(stmts.len(), 2, "{stmts:?}");
        let Cmd::Set(t, rhs) = &stmts[0] else { panic!("hoist shape") };
        assert!(t.starts_with(TEMP_PREFIX));
        assert_eq!(*rhs, load1(addv("s", "i")));
        let expected = BExpr::op(BinOp::Mul, BExpr::var(t.clone()), BExpr::var(t.clone()));
        assert!(matches!(&stmts[1], Cmd::Set(r, e) if r == "r" && *e == expected));
        assert_eq!(out.sites_rewritten, 2);
    }

    #[test]
    fn available_definition_is_reused_across_statements() {
        // b = load1(p); r = load1(p) + 1  ⇒  second load reads b.
        let f = BFunction::new(
            "f",
            ["p"],
            ["b", "r"],
            Cmd::seq([
                Cmd::set("b", load1(BExpr::var("p"))),
                Cmd::set("r", BExpr::op(BinOp::Add, load1(BExpr::var("p")), BExpr::lit(1))),
            ]),
        );
        let out = run(&f);
        let stmts = spine_of(&out.function.body);
        assert_eq!(stmts.len(), 2);
        let expected = BExpr::op(BinOp::Add, BExpr::var("b"), BExpr::lit(1));
        assert!(matches!(&stmts[1], Cmd::Set(r, e) if r == "r" && *e == expected));
    }

    #[test]
    fn store_cuts_the_window_for_memory_reads() {
        // r1 = load1(p) + 0x100; store1(p, r1); r2 = load1(p) + 0x200 —
        // the second load must stay: memory changed.
        let f = BFunction::new(
            "f",
            ["p"],
            ["r1", "r2"],
            Cmd::seq([
                Cmd::set("r1", BExpr::op(BinOp::Add, load1(BExpr::var("p")), BExpr::lit(0x100))),
                Cmd::store(AccessSize::One, BExpr::var("p"), BExpr::var("r1")),
                Cmd::set("r2", BExpr::op(BinOp::Add, load1(BExpr::var("p")), BExpr::lit(0x200))),
            ]),
        );
        let out = run(&f);
        assert_eq!(out.sites_rewritten, 0);
        assert_eq!(out.function, f);
    }

    #[test]
    fn index_reassignment_cuts_the_window() {
        // b = load1(s+i); i = i + 1; r = load1(s+i): different addresses.
        let f = BFunction::new(
            "f",
            ["s", "i0"],
            ["r"],
            Cmd::seq([
                Cmd::set("i", BExpr::var("i0")),
                Cmd::set("b", load1(addv("s", "i"))),
                Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1))),
                Cmd::set("r", BExpr::op(BinOp::Add, load1(addv("s", "i")), BExpr::var("b"))),
            ]),
        );
        let out = run(&f);
        assert_eq!(out.sites_rewritten, 0, "{:?}", out.function.body);
    }

    #[test]
    fn small_pure_expressions_are_left_alone() {
        // addr arithmetic used twice is a wash; don't churn.
        let f = BFunction::new(
            "f",
            ["s", "i"],
            Vec::<String>::new(),
            Cmd::seq([
                Cmd::set("a", load1(addv("s", "i"))),
                Cmd::store(AccessSize::One, addv("s", "i"), BExpr::var("a")),
            ]),
        );
        let out = run(&f);
        // load1(s+i) occurs once; s+i twice but pure size-3 ⇒ not
        // profitable under the cost model.
        assert_eq!(out.sites_rewritten, 0);
    }

    #[test]
    fn while_bodies_are_processed_but_conditions_untouched() {
        let body = Cmd::seq([
            Cmd::set(
                "r",
                BExpr::op(BinOp::Mul, load1(addv("s", "i")), load1(addv("s", "i"))),
            ),
            Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1))),
        ]);
        let f = BFunction::new(
            "f",
            ["s", "n"],
            ["r"],
            Cmd::seq([
                Cmd::set("i", BExpr::lit(0)),
                Cmd::while_(
                    BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("n")),
                    body,
                ),
            ]),
        );
        let out = run(&f);
        let stmts = spine_of(&out.function.body);
        let Cmd::While { cond, body } = &stmts[1] else { panic!("shape") };
        assert_eq!(*cond, BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("n")));
        let inner = spine_of(body);
        assert_eq!(inner.len(), 3, "hoist inside the loop body: {inner:?}");
        assert!(matches!(&inner[0], Cmd::Set(t, _) if t.starts_with(TEMP_PREFIX)));
        // Counter update keeps its loop-progress shape.
        assert!(matches!(
            &inner[2],
            Cmd::Set(i, BExpr::Op(BinOp::Add, a, _)) if i == "i" && **a == BExpr::var("i")
        ));
    }
}
