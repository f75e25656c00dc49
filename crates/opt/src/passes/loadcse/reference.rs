//! The reference search the tests compare [`super::run`] against: every
//! candidate's facts and every window statement rebuilt from scratch, the
//! search restarted at statement 0 after each application, and every
//! window statement rebuilt by a rewrite. Slow and obviously faithful to
//! the rules in the parent module's documentation.

use crate::{PassOutcome, TEMP_PREFIX};
use rupicola_bedrock::ast::{BExpr, BFunction, Cmd};
use rupicola_bedrock::rewrite::{
    all_names, expr_size, for_each_subexpr, reads_memory, seq_of, spine_of,
};
use std::collections::BTreeSet;

/// Runs the reference pass.
pub fn run(f: &BFunction) -> PassOutcome {
    let mut names = all_names(f);
    let mut fresh = 0usize;
    let mut sites = 0usize;
    let body = cse_cmd(&f.body, &mut names, &mut fresh, &mut sites);
    PassOutcome {
        function: BFunction { body, ..f.clone() },
        sites_rewritten: sites,
        facts_consumed: 0,
    }
}

fn cse_cmd(cmd: &Cmd, names: &mut BTreeSet<String>, fresh: &mut usize, sites: &mut usize) -> Cmd {
    let mut stmts: Vec<Cmd> = spine_of(cmd)
        .into_iter()
        .map(|s| match s {
            Cmd::If { cond, then_, else_ } => Cmd::If {
                cond,
                then_: Box::new(cse_cmd(&then_, names, fresh, sites)),
                else_: Box::new(cse_cmd(&else_, names, fresh, sites)),
            },
            Cmd::While { cond, body } => {
                Cmd::While { cond, body: Box::new(cse_cmd(&body, names, fresh, sites)) }
            }
            Cmd::StackAlloc { var, nbytes, body } => Cmd::StackAlloc {
                var,
                nbytes,
                body: Box::new(cse_cmd(&body, names, fresh, sites)),
            },
            other => other,
        })
        .collect();

    let mut applications = 0;
    while applications < super::MAX_APPLICATIONS {
        match find_candidate(&stmts) {
            Some(c) => {
                apply_candidate(&mut stmts, &c, names, fresh, sites);
                applications += 1;
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

/// Counts rewritable occurrences of `e` in `s`.
fn occurrences_in(s: &Cmd, e: &BExpr) -> usize {
    eval_exprs(s).iter().map(|(x, skip_root)| count_subtree(x, e, *skip_root)).sum()
}

/// The first profitable candidate.
fn find_candidate(stmts: &[Cmd]) -> Option<Candidate> {
    for (j, s) in stmts.iter().enumerate() {
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
            if let Some(x) = &avail {
                if vars.contains(x) {
                    continue;
                }
            }
            let within = if avail.is_some() { 0 } else { occurrences_in(s, &e) };
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
                Some(_) => later >= 1 && (reads_mem || later * (expr_size(&e) - 1) >= 2),
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
