//! Common-subexpression elimination for repeated memory reads (and, with
//! a cost model, large pure subexpressions).
//!
//! The pass walks each straight-line statement run (a `Seq` spine
//! segment; nested `If`/`While`/`StackAlloc` bodies are processed as
//! their own runs, first) and looks for a subexpression that is evaluated
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
//! statement, larger expressions first, first evaluation first among
//! equals) until none is left.
//!
//! # What is summarized
//!
//! Each statement of a run is summarized once, when the run is built, and
//! again only when a rewrite changes it. A summary is a 128-bit filter
//! over the structural hashes of every subexpression the statement may
//! rewrite (every node of a `Store`'s operands or an `If` condition, every
//! node below a `Set`'s root), plus one bit standing for the variable the
//! statement assigns. Equal expressions hash equal, so a statement whose
//! filter lacks an expression's bits holds no occurrence of it; a filter
//! hit only means "maybe", and every count and every rewrite is confirmed
//! by walking the statement with `==`. When the search reaches a
//! statement it lists that statement's subexpressions once, with each
//! one's hash, size, reads-memory flag and a 64-bit filter over its
//! variables (again confirmed by [`BExpr::mentions`] before a window ends
//! on it). The candidates stay borrowed from the run; only the applied
//! one is cloned. A window step is then two filter tests, not a walk of
//! the statement's trees.
//!
//! # Why applying touches only the statements that hold the expression
//!
//! A statement with no occurrence of the expression is left unchanged by
//! the rewrite, so its summary still holds. Applying a candidate rewrites,
//! in place, the window statements whose filter and `==` walk find the
//! expression, re-summarizes those, and inserts the summarized hoist; no
//! other statement of the run is rebuilt.
//!
//! # Why the search resumes where the last candidate started
//!
//! After applying a candidate that starts at statement `s`, the search
//! resumes at `s`, not at 0, and finds exactly the candidate a restart
//! would:
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
//! Summaries do not change this argument: they decide nothing a full walk
//! would decide differently. The tests hold the pass to a reference that
//! rebuilds everything and restarts at statement 0.
//!
//! # Cost
//!
//! On the `chacha20_block` scaling series the pass costs about what
//! const-fold does per statement (EXPERIMENTS, "Load-CSE at the cost of
//! the other passes"); `speed` gates the ratio.

use crate::{PassOutcome, TEMP_PREFIX};
use rupicola_bedrock::ast::{BExpr, BFunction, Cmd};
use rupicola_bedrock::rewrite::{for_each_name, for_each_subexpr};
use std::cmp::Reverse;
use std::collections::BTreeSet;

#[cfg(test)]
mod reference;

/// Hard cap on rewrite applications, a backstop against a cycling greedy
/// loop (each application is meant to strictly shrink the body's node
/// count or occurrence multiset).
const MAX_APPLICATIONS: usize = 10_000;

/// Runs the pass.
pub fn run(f: &BFunction) -> PassOutcome {
    let mut temps = Temps { f, taken: None, next: 0 };
    let mut sites = 0usize;
    let body = cse_cmd(&f.body, &mut temps, &mut sites);
    PassOutcome {
        function: BFunction {
            name: f.name.clone(),
            args: f.args.clone(),
            rets: f.rets.clone(),
            body,
            tables: f.tables.clone(),
        },
        sites_rewritten: sites,
        facts_consumed: 0,
    }
}

/// Fresh `_cse<n>` names. The input's names that could clash (those with
/// the prefix) are collected on the first request, so a body with
/// nothing to hoist is never walked for them.
struct Temps<'f> {
    f: &'f BFunction,
    taken: Option<BTreeSet<String>>,
    next: usize,
}

impl Temps<'_> {
    fn fresh(&mut self) -> String {
        let f = self.f;
        let taken = self.taken.get_or_insert_with(|| {
            let mut taken = BTreeSet::new();
            for_each_name(f, &mut |n| {
                if n.starts_with(TEMP_PREFIX) {
                    taken.insert(n.to_owned());
                }
            });
            taken
        });
        loop {
            let t = format!("{TEMP_PREFIX}{}", self.next);
            self.next += 1;
            if taken.insert(t.clone()) {
                return t;
            }
        }
    }
}

/// Appends the statements of `cmd`'s `Seq` spine to `out` (`Skip`s
/// dropped).
fn spine<'c>(cmd: &'c Cmd, out: &mut Vec<&'c Cmd>) {
    let mut rest = cmd;
    loop {
        match rest {
            Cmd::Seq(a, b) => {
                spine(a, out);
                rest = b;
            }
            Cmd::Skip => return,
            other => {
                out.push(other);
                return;
            }
        }
    }
}

/// Copies one run of `cmd` with its nested bodies already processed (in
/// statement order), then rewrites the run.
fn cse_cmd(cmd: &Cmd, temps: &mut Temps<'_>, sites: &mut usize) -> Cmd {
    let mut spine_refs = Vec::new();
    spine(cmd, &mut spine_refs);
    let mut nested = |body: &Cmd| Box::new(cse_cmd(body, temps, sites));
    let stmts: Vec<Cmd> = spine_refs
        .into_iter()
        .map(|s| match s {
            Cmd::If { cond, then_, else_ } => {
                let then_ = nested(then_);
                Cmd::If { cond: cond.clone(), then_, else_: nested(else_) }
            }
            Cmd::While { cond, body } => Cmd::While { cond: cond.clone(), body: nested(body) },
            Cmd::StackAlloc { var, nbytes, body } => {
                Cmd::StackAlloc { var: var.clone(), nbytes: *nbytes, body: nested(body) }
            }
            other => other.clone(),
        })
        .collect();

    let mut run = Run::new(stmts);
    let mut from = 0;
    let mut applications = 0;
    while applications < MAX_APPLICATIONS {
        let Some(c) = run.find_candidate(from) else { break };
        let c = Applied {
            expr: c.expr.clone(),
            hash: c.hash,
            start: c.start,
            end: c.end,
            avail: c.avail.map(str::to_owned),
        };
        from = c.start;
        run.apply(c, temps, sites);
        applications += 1;
    }
    Cmd::seq(run.stmts)
}

/// FxHash's combining step.
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// FxHash over a name's bytes. Its top bits depend on every byte (FNV's
/// do not: `x1` and `x9` would share a [`name_bit`]).
fn name_hash(s: &str) -> u64 {
    s.bytes().fold(0, |h, b| mix(h, u64::from(b)))
}

/// The bit standing for a variable in a variable filter.
fn name_bit(v: &str) -> u64 {
    1 << (name_hash(v) >> 58)
}

/// The two bits standing for a structural hash in a statement filter.
fn filter_bits(hash: u64) -> u128 {
    (1 << (hash >> 57)) | (1 << ((hash >> 50) & 127))
}

/// What the search needs to know about one subexpression.
#[derive(Clone, Copy)]
struct Facts {
    /// Structural hash: equal expressions hash equal.
    hash: u64,
    /// Node count.
    size: usize,
    reads_mem: bool,
    /// The OR of [`name_bit`] over the variables it reads.
    var_bits: u64,
}

/// Appends the facts of `e` and its subexpressions to `out` in pre-order
/// (the order of [`for_each_subexpr`]), and returns `e`'s.
fn push_facts(e: &BExpr, out: &mut Vec<Facts>) -> Facts {
    let slot = out.len();
    let leaf = Facts { hash: 0, size: 1, reads_mem: false, var_bits: 0 };
    out.push(leaf);
    let facts = match e {
        BExpr::Lit(w) => Facts { hash: mix(1, *w), ..leaf },
        BExpr::Var(v) => {
            let h = name_hash(v);
            Facts { hash: mix(2, h), var_bits: 1 << (h >> 58), ..leaf }
        }
        BExpr::Load(size, addr) => {
            let a = push_facts(addr, out);
            Facts { hash: mix(mix(3, size.bytes()), a.hash), size: 1 + a.size, reads_mem: true, ..a }
        }
        BExpr::InlineTable { size, table, index } => {
            let i = push_facts(index, out);
            Facts {
                hash: mix(mix(mix(4, size.bytes()), name_hash(table)), i.hash),
                size: 1 + i.size,
                reads_mem: true,
                ..i
            }
        }
        BExpr::Op(op, a, b) => {
            let a = push_facts(a, out);
            let b = push_facts(b, out);
            Facts {
                hash: mix(mix(mix(5, *op as u64), a.hash), b.hash),
                size: 1 + a.size + b.size,
                reads_mem: a.reads_mem || b.reads_mem,
                var_bits: a.var_bits | b.var_bits,
            }
        }
    };
    out[slot] = facts;
    facts
}

/// The expressions `s` evaluates immediately, in order: a `Set` RHS, a
/// `Store` address then value, an `If` condition. `While` conditions and
/// call arguments are deliberately absent. Every subexpression of them
/// may be rewritten except a `Set`'s RHS at its root.
fn eval_roots(s: &Cmd) -> [Option<&BExpr>; 2] {
    match s {
        Cmd::Set(_, e) | Cmd::If { cond: e, .. } => [Some(e), None],
        Cmd::Store(_, addr, val) => [Some(addr), Some(val)],
        _ => [None, None],
    }
}

/// How a statement can end a window.
#[derive(Clone, Copy)]
enum Effect {
    /// It ends none.
    Nothing,
    /// It assigns the variable with this [`name_bit`].
    Assigns(u64),
    /// It writes memory.
    Stores,
    /// Control flow or a call: it ends every window.
    Barrier,
}

/// One statement's summary.
struct Summary {
    /// A filter over the structural hashes of the subexpressions (size
    /// ≥ 2) the statement may rewrite.
    holds: u128,
    effect: Effect,
    /// Where the facts of [`eval_roots`]'s subexpressions, in pre-order,
    /// sit in the run's arena.
    facts: std::ops::Range<usize>,
}

impl Summary {
    /// False only if the statement holds no rewritable occurrence of an
    /// expression with this hash.
    fn may_hold(&self, hash: u64) -> bool {
        let bits = filter_bits(hash);
        self.holds & bits == bits
    }
}

/// One statement run and its summaries.
struct Run {
    stmts: Vec<Cmd>,
    sums: Vec<Summary>,
    /// Every summary's facts; a re-summarized statement's new facts are
    /// appended and its old ones left unused.
    arena: Vec<Facts>,
}

/// One profitable rewrite opportunity, borrowed from the run.
struct Candidate<'a> {
    /// The repeated subexpression.
    expr: &'a BExpr,
    hash: u64,
    /// Index of the statement holding its first evaluation.
    start: usize,
    /// Last statement index (inclusive) whose occurrences may be
    /// rewritten.
    end: usize,
    /// `Some(x)` when `stmts[start]` is `Set(x, expr)` — reuse `x`
    /// instead of hoisting a temporary.
    avail: Option<&'a str>,
}

/// The candidate being applied, owned so the run can change under it.
struct Applied {
    expr: BExpr,
    hash: u64,
    start: usize,
    end: usize,
    avail: Option<String>,
}

/// Counts the occurrences of `needle` in `hay` (equal expressions never
/// nest, so the walk stops at a match).
fn count(hay: &BExpr, needle: &BExpr) -> usize {
    if hay == needle {
        1
    } else {
        count_below(hay, needle)
    }
}

fn count_below(hay: &BExpr, needle: &BExpr) -> usize {
    match hay {
        BExpr::Lit(_) | BExpr::Var(_) => 0,
        BExpr::Load(_, e) | BExpr::InlineTable { index: e, .. } => count(e, needle),
        BExpr::Op(_, a, b) => count(a, needle) + count(b, needle),
    }
}

/// Counts the rewritable occurrences of `e` in `s`.
fn occurrences_in(s: &Cmd, e: &BExpr) -> usize {
    match s {
        Cmd::Set(_, rhs) => count_below(rhs, e),
        Cmd::Store(_, addr, val) => count(addr, e) + count(val, e),
        Cmd::If { cond, .. } => count(cond, e),
        _ => 0,
    }
}

/// Replaces every occurrence of `needle` in `hay` by `rep`; returns how
/// many it replaced.
fn replace(hay: &mut BExpr, needle: &BExpr, rep: &BExpr) -> usize {
    if hay == needle {
        *hay = rep.clone();
        1
    } else {
        replace_below(hay, needle, rep)
    }
}

fn replace_below(hay: &mut BExpr, needle: &BExpr, rep: &BExpr) -> usize {
    match hay {
        BExpr::Lit(_) | BExpr::Var(_) => 0,
        BExpr::Load(_, e) | BExpr::InlineTable { index: e, .. } => replace(e, needle, rep),
        BExpr::Op(_, a, b) => replace(a, needle, rep) + replace(b, needle, rep),
    }
}

/// Rewrites the rewritable occurrences of `needle` in `s` in place;
/// returns how many it rewrote. A statement with none is left unchanged.
fn rewrite_stmt(s: &mut Cmd, needle: &BExpr, rep: &BExpr) -> usize {
    match s {
        Cmd::Set(_, rhs) => replace_below(rhs, needle, rep),
        Cmd::Store(_, addr, val) => replace(addr, needle, rep) + replace(val, needle, rep),
        Cmd::If { cond, .. } => replace(cond, needle, rep),
        _ => 0,
    }
}

impl Run {
    fn new(stmts: Vec<Cmd>) -> Run {
        let mut arena = Vec::new();
        let sums = stmts.iter().map(|s| summarize(s, &mut arena)).collect();
        Run { stmts, sums, arena }
    }

    /// Whether statement `m`, *after* evaluating its own expressions, ends
    /// the window of `e` (held in `avail`, in available-expression mode)
    /// for later statements. `clobber_bits` filters the variables that
    /// end it.
    fn ends_window(&self, m: usize, e: &BExpr, facts: Facts, clobber_bits: u64, avail: Option<&str>) -> bool {
        match self.sums[m].effect {
            Effect::Nothing => false,
            Effect::Assigns(bit) => {
                bit & clobber_bits != 0
                    && matches!(&self.stmts[m], Cmd::Set(v, _) | Cmd::Unset(v)
                        if avail == Some(v.as_str()) || e.mentions(v))
            }
            Effect::Stores => facts.reads_mem,
            Effect::Barrier => true,
        }
    }

    /// The first profitable candidate first evaluated at or after
    /// statement `from`.
    fn find_candidate(&self, from: usize) -> Option<Candidate<'_>> {
        let mut exprs: Vec<&BExpr> = Vec::new();
        let mut cands: Vec<(usize, Option<&str>)> = Vec::new();
        for (j, s) in self.stmts.iter().enumerate().skip(from) {
            // Candidate subexpressions first evaluated at statement j,
            // larger first so a repeated load swallows its repeated
            // address; `exprs` lines up with the summary's facts.
            let facts = &self.arena[self.sums[j].facts.clone()];
            exprs.clear();
            for root in eval_roots(s).into_iter().flatten() {
                for_each_subexpr(root, &mut |sub| exprs.push(sub));
            }
            cands.clear();
            if let Cmd::Set(x, _) = s {
                if facts[0].size >= 2 {
                    cands.push((0, Some(x.as_str())));
                }
            }
            for (k, f) in facts.iter().enumerate() {
                if f.size >= 2
                    && !cands.iter().any(|&(c, _)| facts[c].hash == f.hash && exprs[c] == exprs[k])
                {
                    cands.push((k, None));
                }
            }
            cands.sort_by_key(|&(k, _)| Reverse(facts[k].size));

            // A `Set`'s root is not a rewritable occurrence.
            let skip = usize::from(matches!(s, Cmd::Set(..)));
            for &(k, avail) in &cands {
                let (e, ef) = (exprs[k], facts[k]);
                // Available-expression mode must not reuse a definition
                // whose own RHS is the whole expression *and* whose target
                // appears in it (x = f(x) changes the meaning of later
                // occurrences).
                let avail_bit = avail.map_or(0, name_bit);
                if let Some(x) = avail {
                    if ef.var_bits & avail_bit != 0 && e.mentions(x) {
                        continue;
                    }
                }
                let within = match avail {
                    Some(_) => 0,
                    None => (skip..facts.len())
                        .filter(|&i| facts[i].hash == ef.hash && exprs[i] == e)
                        .count(),
                };
                // Scan forward while the value is stable. In available-
                // expression mode the defining assignment itself is what
                // makes the value available, not an invalidation
                // (x ∉ vars(e) was checked above, and a `Set` writes no
                // memory).
                let start_invalidates =
                    avail.is_none() && self.ends_window(j, e, ef, ef.var_bits, None);
                let clobber_bits = ef.var_bits | avail_bit;
                let mut later = 0;
                let mut end = j;
                if !start_invalidates {
                    for m in j + 1..self.stmts.len() {
                        if self.sums[m].may_hold(ef.hash) {
                            later += occurrences_in(&self.stmts[m], e);
                        }
                        end = m;
                        if self.ends_window(m, e, ef, clobber_bits, avail) {
                            break;
                        }
                    }
                }
                let profitable = match avail {
                    Some(_) => later >= 1 && (ef.reads_mem || later * (ef.size - 1) >= 2),
                    None => {
                        let count = within + later;
                        if ef.reads_mem {
                            count >= 2
                        } else {
                            count >= 2 && (count - 1) * (ef.size - 1) > 2
                        }
                    }
                };
                if profitable {
                    return Some(Candidate { expr: e, hash: ef.hash, start: j, end, avail });
                }
            }
        }
        None
    }

    /// Rewrites the window statements that hold `c.expr`, re-summarizes
    /// them, and inserts the hoist (outside available-expression mode).
    fn apply(&mut self, c: Applied, temps: &mut Temps<'_>, sites: &mut usize) {
        let (rep, first, hoist) = match c.avail {
            Some(x) => (BExpr::Var(x), c.start + 1, None),
            None => {
                let t = temps.fresh();
                (BExpr::var(t.clone()), c.start, Some(t))
            }
        };
        for m in first..=c.end {
            if self.sums[m].may_hold(c.hash) {
                let n = rewrite_stmt(&mut self.stmts[m], &c.expr, &rep);
                if n > 0 {
                    *sites += n;
                    self.sums[m] = summarize(&self.stmts[m], &mut self.arena);
                }
            }
        }
        if let Some(t) = hoist {
            let hoist = Cmd::Set(t, c.expr);
            self.sums.insert(c.start, summarize(&hoist, &mut self.arena));
            self.stmts.insert(c.start, hoist);
        }
    }
}

/// Summarizes `s`, appending its facts to `arena`.
fn summarize(s: &Cmd, arena: &mut Vec<Facts>) -> Summary {
    let first = arena.len();
    for root in eval_roots(s).into_iter().flatten() {
        push_facts(root, arena);
    }
    let skip = usize::from(matches!(s, Cmd::Set(..)));
    let holds = arena[first + skip..]
        .iter()
        .filter(|f| f.size >= 2)
        .fold(0, |acc, f| acc | filter_bits(f.hash));
    let effect = match s {
        Cmd::Skip => Effect::Nothing,
        Cmd::Set(v, _) | Cmd::Unset(v) => Effect::Assigns(name_bit(v)),
        Cmd::Store(..) => Effect::Stores,
        // Conservative: control flow and calls end every window.
        Cmd::Seq(..)
        | Cmd::If { .. }
        | Cmd::While { .. }
        | Cmd::Call { .. }
        | Cmd::Interact { .. }
        | Cmd::StackAlloc { .. } => Effect::Barrier,
    };
    Summary { holds, effect, facts: first..arena.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_bedrock::ast::{AccessSize, BinOp};
    use rupicola_bedrock::rewrite::spine_of;
    use rupicola_minicheck::{check, Rng};

    /// The summarized, resuming pass gives exactly what the reference
    /// (full rebuilds, restart at statement 0) gives: same body, same site
    /// count.
    fn assert_matches_reference(f: &BFunction) -> usize {
        let fast = run(f);
        let slow = reference::run(f);
        assert_eq!(fast.function, slow.function, "{}: bodies differ", f.name);
        assert_eq!(fast.sites_rewritten, slow.sites_rewritten, "{}: site counts differ", f.name);
        fast.sites_rewritten
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
    fn summarized_search_matches_the_reference_on_random_spines() {
        let mut rewritten = 0;
        check("loadcse_resume_matches_restart", 512, |rng| {
            let body = random_spine(rng, 1);
            let f = BFunction::new("f", ["p", "a", "b"], ["c"], body);
            if assert_matches_reference(&f) > 0 {
                rewritten += 1;
            }
        });
        assert!(rewritten >= 128, "only {rewritten} of 512 spines had a rewrite");
    }

    /// An address for the long runs: one of the address variables `p`,
    /// `q`, plus a small offset or the index `k`.
    fn long_addr(rng: &mut Rng) -> BExpr {
        let base = BExpr::var(*rng.pick(&["p", "q"]));
        match rng.below(3) {
            0 => base,
            1 => BExpr::op(BinOp::Add, base, BExpr::lit(4 * rng.below(3))),
            _ => BExpr::op(BinOp::Add, base, BExpr::var("k")),
        }
    }

    /// A value for the long runs: loads and arithmetic over `k` and the
    /// rarely-read accumulators `u`, `v`, so most windows are ended only
    /// by an address reassignment or, for loads, by a store.
    fn long_expr(rng: &mut Rng, depth: u32) -> BExpr {
        match if depth == 0 { rng.below(3) } else { rng.below(6) } {
            0 => BExpr::var(*rng.pick(&["k", "u", "v"])),
            1 => BExpr::lit(rng.below(4)),
            2 => BExpr::load(*rng.pick(&[AccessSize::One, AccessSize::Four]), long_addr(rng)),
            _ => BExpr::op(
                *rng.pick(&[BinOp::Add, BinOp::Xor, BinOp::Mul]),
                long_expr(rng, depth - 1),
                long_expr(rng, depth - 1),
            ),
        }
    }

    /// A run of 100–400 statements: loads in the first three quarters,
    /// stores only in the last quarter, the address variable `p`
    /// reassigned every 40–80 statements (`q` never), the odd `u`/`v`
    /// update, and one nested `If` run per ~150 statements. Most targets
    /// are never read, so a window over `q` and `k` spans most of the run.
    fn long_run(rng: &mut Rng) -> Cmd {
        let n = rng.range(100, 401);
        let period = rng.range(40, 81);
        let stmts = (0..n).map(|i| {
            if i % period == period - 1 {
                return Cmd::set("p", BExpr::op(BinOp::Add, BExpr::var("p"), BExpr::lit(64)));
            }
            match rng.below(150) {
                0 => Cmd::if_(long_expr(rng, 1), random_spine(rng, 0), random_spine(rng, 0)),
                1..=3 => Cmd::set(*rng.pick(&["u", "v"]), long_expr(rng, 2)),
                4..=40 if 4 * i >= 3 * n => Cmd::store(
                    *rng.pick(&[AccessSize::One, AccessSize::Four]),
                    long_addr(rng),
                    long_expr(rng, 1),
                ),
                _ => Cmd::set(format!("t{}", rng.below(12)), long_expr(rng, 2)),
            }
        });
        Cmd::seq(stmts.collect::<Vec<_>>())
    }

    #[test]
    fn summarized_search_matches_the_reference_on_long_runs() {
        let mut rewritten = 0;
        check("loadcse_long_runs_match_reference", 64, |rng| {
            let f = BFunction::new("f", ["p", "q", "k"], ["u", "v"], long_run(rng));
            if assert_matches_reference(&f) > 0 {
                rewritten += 1;
            }
        });
        assert!(rewritten >= 56, "only {rewritten} of 64 long runs had a rewrite");
    }

    /// Every perf-suite and CT-suite program, on its certified body and
    /// on the body load-CSE sees at its position in the full pipeline.
    #[test]
    fn summarized_search_matches_the_reference_on_every_suite_body() {
        let dbs = rupicola_ext::standard_dbs();
        let entries = rupicola_programs::perf_suite()
            .into_iter()
            .chain(rupicola_programs::ct_suite().into_iter().map(|e| e.entry));
        for entry in entries {
            let name = entry.info.name;
            let sites = rupicola_programs::parallel::on_deep_stack(|| {
                let cf = rupicola_core::compile_with_limits(
                    &(entry.model)(),
                    &(entry.spec)(),
                    &dbs,
                    (entry.limits)(rupicola_core::EngineLimits::default()),
                )
                .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
                let mut sites = assert_matches_reference(&cf.function);
                let mut body = cf.function;
                for pass in crate::PipelineConfig::full().passes {
                    if pass == crate::PassId::LoadCse {
                        sites += assert_matches_reference(&body);
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
