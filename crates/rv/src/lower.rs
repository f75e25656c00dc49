//! The RISC-V lowering: one register-aware code generator plus the
//! linear-scan allocator that feeds it.
//!
//! [`lower_allocated`] lowers the *certified Bedrock2 body* (never an
//! earlier artifact) under an [`Assignment`] of locals to the callee-saved
//! pool `x18`–`x27`. Under the empty assignment every local stays in the
//! frame — a `Var` read is a load, a `Set` ends in a store — and that
//! spill-all code is the pipeline's validated baseline, the `lower` stage.
//! The untrusted [`linear_scan`] pass picks which locals live in the pool
//! instead, the `regalloc` stage: reads of a pooled local cost zero
//! instructions, writes cost at most a register move.
//!
//! **The live-out constraint.** The machine differential reads the final
//! locals back from the frame, so the frame must be a complete snapshot of
//! the locals at exit. A pooled local therefore stays register-resident to
//! the function exit, where the epilogue flushes it to its frame slot —
//! intervals all end at exit ("every local is observable at exit"), and
//! linear scan degenerates to scanning interval starts with eviction by
//! loop-weighted use count when the pool overflows. That is a *sound*
//! degeneration, not a shortcut: reusing a register mid-function would
//! leave its earlier tenant's frame slot stale and the differential would
//! (correctly) reject the lowering. None of this is trusted — a bug here
//! is a rolled-back stage, not a miscompile.
//!
//! Every artifact shares one frame ABI ([`FP`], [`RvArtifact`]), so
//! [`run_artifact`](crate::run_artifact) runs them all alike: arguments
//! arrive in frame slots (the prologue loads pooled arguments), returns
//! are read from frame slots (the epilogue flush puts them there).

use rupicola_bedrock::ast::{AccessSize, BExpr, BFunction, BinOp, Cmd};
use rupicola_bedrock::rv::{Asm, Imm, Reg, ZERO};
use rupicola_bedrock::rv_compile::{RvArtifact, RvCompileError, FP};
use std::collections::{BTreeMap, HashMap};

/// First expression-scratch register.
const RBASE: Reg = 5;
/// Last expression-scratch register. One register above it (`x16`) is
/// used as an `Eq`-lowering temporary, so the scratch window never
/// touches the pool.
const RMAX: Reg = 15;

/// First register of the callee-saved pool locals are allocated to
/// (`s2` in the standard RV64 calling convention).
pub const POOL_BASE: Reg = 18;
/// Last register of the callee-saved pool (`s11`).
pub const POOL_LAST: Reg = 27;

/// A register assignment for a function's locals. Locals absent from the
/// map stay frame-resident; the empty assignment is the spill-all
/// baseline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Assignment {
    /// Local name → pool register (each in `POOL_BASE..=POOL_LAST`,
    /// pairwise distinct).
    pub regs: BTreeMap<String, Reg>,
}

/// Per-local occupancy facts the scan orders candidates by.
#[derive(Debug, Clone, Copy, Default)]
struct Interval {
    /// Linearized position of the first occurrence.
    start: usize,
    /// Loop-weighted occurrence count (×8 per nesting level): the
    /// eviction priority when the pool overflows.
    weight: u64,
}

struct Scan {
    next: usize,
    depth: u32,
    intervals: HashMap<String, Interval>,
}

impl Scan {
    fn touch(&mut self, v: &str) {
        let at = self.next;
        let w = 8u64.saturating_pow(self.depth);
        let e = self.intervals.entry(v.to_string()).or_insert(Interval { start: at, weight: 0 });
        e.weight = e.weight.saturating_add(w);
    }

    fn expr(&mut self, e: &BExpr) {
        match e {
            BExpr::Lit(_) => {}
            BExpr::Var(v) => self.touch(v),
            BExpr::Load(_, a) => self.expr(a),
            BExpr::InlineTable { index, .. } => self.expr(index),
            BExpr::Op(_, a, b) => {
                self.expr(a);
                self.expr(b);
            }
        }
    }

    fn cmd(&mut self, c: &Cmd) {
        self.next += 1;
        match c {
            Cmd::Skip | Cmd::Unset(_) => {}
            Cmd::Set(v, e) => {
                self.expr(e);
                self.touch(v);
            }
            Cmd::Store(_, a, v) => {
                self.expr(a);
                self.expr(v);
            }
            Cmd::Seq(a, b) => {
                self.cmd(a);
                self.cmd(b);
            }
            Cmd::If { cond, then_, else_ } => {
                self.expr(cond);
                self.cmd(then_);
                self.cmd(else_);
            }
            Cmd::While { cond, body } => {
                self.depth += 1;
                self.expr(cond);
                self.cmd(body);
                self.depth -= 1;
            }
            // Outside the backend fragment; `lower_allocated` reports it.
            Cmd::Call { .. } | Cmd::Interact { .. } | Cmd::StackAlloc { .. } => {}
        }
    }
}

/// Scans the certified body and assigns the heaviest-used locals to the
/// callee-saved pool. Untrusted: the assignment's only consumer is
/// [`lower_allocated`], whose output is differentially validated.
pub fn linear_scan(f: &BFunction) -> Assignment {
    let mut scan = Scan { next: 0, depth: 0, intervals: HashMap::new() };
    // Arguments are live from entry (the prologue load is their first use).
    for a in &f.args {
        scan.touch(a);
    }
    scan.cmd(&f.body);
    // Returns are live to exit (the epilogue flush feeds the ret slots).
    for r in &f.rets {
        scan.touch(r);
    }
    // Scan order: interval start, then weight as the eviction priority —
    // when more intervals are live than the pool holds, the lightest
    // candidates stay in the frame.
    let mut order: Vec<(String, Interval)> = scan.intervals.into_iter().collect();
    order.sort_by(|(va, ia), (vb, ib)| {
        ib.weight.cmp(&ia.weight).then_with(|| ia.start.cmp(&ib.start)).then_with(|| va.cmp(vb))
    });
    let pool_size = usize::from(POOL_LAST - POOL_BASE + 1);
    let mut regs = BTreeMap::new();
    for (i, (v, _)) in order.into_iter().take(pool_size).enumerate() {
        regs.insert(v, POOL_BASE + i as Reg);
    }
    Assignment { regs }
}

struct Ctx<'f> {
    slots: HashMap<String, usize>,
    assign: &'f Assignment,
    asm: Vec<Asm>,
    labels: usize,
}

impl Ctx<'_> {
    fn fresh_label(&mut self, stem: &str) -> String {
        let n = self.labels;
        self.labels += 1;
        format!(".L{stem}{n}")
    }

    fn slot_off(&self, v: &str) -> Result<i64, RvCompileError> {
        self.slots
            .get(v)
            .map(|i| (*i as i64) * 8)
            .ok_or_else(|| RvCompileError::UnknownLocal(v.to_string()))
    }

    fn chk(dst: Reg) -> Result<Reg, RvCompileError> {
        if dst > RMAX {
            Err(RvCompileError::ExpressionTooDeep)
        } else {
            Ok(dst)
        }
    }

    fn load_at(sz: AccessSize, dst: Reg, base: Reg) -> Asm {
        match sz {
            AccessSize::One => Asm::Lbu(dst, base, 0),
            AccessSize::Two => Asm::Lhu(dst, base, 0),
            AccessSize::Four => Asm::Lwu(dst, base, 0),
            AccessSize::Eight => Asm::Ld(dst, base, 0),
        }
    }

    /// Compiles `e`, returning the register holding its value: `dst` when
    /// scratch was needed, the pool register when `e` is a pooled local
    /// (zero instructions). Writes only registers ≥ `dst` in the scratch
    /// window (plus the `Eq` temporary at most one above it) — never the
    /// pool, never the frame.
    fn expr(&mut self, e: &BExpr, dst: Reg) -> Result<Reg, RvCompileError> {
        match e {
            BExpr::Lit(w) => {
                self.asm.push(Asm::Li(Self::chk(dst)?, Imm::Lit(*w as i64)));
                Ok(dst)
            }
            BExpr::Var(v) => {
                if let Some(&r) = self.assign.regs.get(v) {
                    return Ok(r);
                }
                let off = self.slot_off(v)?;
                self.asm.push(Asm::Ld(Self::chk(dst)?, FP, off));
                Ok(dst)
            }
            BExpr::Load(sz, addr) => {
                let ra = self.expr(addr, dst)?;
                self.asm.push(Self::load_at(*sz, Self::chk(dst)?, ra));
                Ok(dst)
            }
            BExpr::InlineTable { size, table, index } => {
                let ri = self.expr(index, dst)?;
                let tmp = if ri == dst { Self::chk(dst + 1)? } else { Self::chk(dst)? };
                self.asm.push(Asm::Li(tmp, Imm::TableBase(table.clone())));
                self.asm.push(Asm::Add(Self::chk(dst)?, ri, tmp));
                self.asm.push(Self::load_at(*size, dst, dst));
                Ok(dst)
            }
            BExpr::Op(op, a, b) => {
                let ra = self.expr(a, dst)?;
                // `b` may not clobber `a`'s value: when `a` landed in the
                // scratch slot `dst`, `b` evaluates one slot up.
                let bslot = if ra == dst { dst + 1 } else { dst };
                let rb = self.expr(b, bslot)?;
                let d = Self::chk(dst)?;
                match op {
                    BinOp::Add => self.asm.push(Asm::Add(d, ra, rb)),
                    BinOp::Sub => self.asm.push(Asm::Sub(d, ra, rb)),
                    BinOp::Mul => self.asm.push(Asm::Mul(d, ra, rb)),
                    BinOp::MulHuu => self.asm.push(Asm::Mulhu(d, ra, rb)),
                    BinOp::DivU => self.asm.push(Asm::Divu(d, ra, rb)),
                    BinOp::RemU => self.asm.push(Asm::Remu(d, ra, rb)),
                    BinOp::And => self.asm.push(Asm::And(d, ra, rb)),
                    BinOp::Or => self.asm.push(Asm::Or(d, ra, rb)),
                    BinOp::Xor => self.asm.push(Asm::Xor(d, ra, rb)),
                    BinOp::Sru => self.asm.push(Asm::Srl(d, ra, rb)),
                    BinOp::Slu => self.asm.push(Asm::Sll(d, ra, rb)),
                    BinOp::Srs => self.asm.push(Asm::Sra(d, ra, rb)),
                    BinOp::LtS => self.asm.push(Asm::Slt(d, ra, rb)),
                    BinOp::LtU => self.asm.push(Asm::Sltu(d, ra, rb)),
                    BinOp::Eq => {
                        // d = (a − b == 0): sltu against zero, then flip.
                        // The temporary sits just above the operand slots,
                        // at most x16 — still below the pool.
                        let tmp = if bslot == dst { dst + 1 } else { bslot };
                        self.asm.push(Asm::Sub(d, ra, rb));
                        self.asm.push(Asm::Sltu(d, ZERO, d));
                        self.asm.push(Asm::Li(tmp, Imm::Lit(1)));
                        self.asm.push(Asm::Xor(d, d, tmp));
                    }
                }
                Ok(dst)
            }
        }
    }

    fn cmd(&mut self, c: &Cmd) -> Result<(), RvCompileError> {
        match c {
            Cmd::Skip | Cmd::Unset(_) => {}
            Cmd::Set(v, e) => {
                // Always evaluate into scratch, then move/store: targeting
                // the pool register directly would let `e`'s own reads of
                // `v` observe a half-written value.
                let src = self.expr(e, RBASE)?;
                if let Some(&r) = self.assign.regs.get(v) {
                    if src != r {
                        self.asm.push(Asm::Add(r, src, ZERO));
                    }
                } else {
                    let off = self.slot_off(v)?;
                    self.asm.push(Asm::Sd(src, FP, off));
                }
            }
            Cmd::Store(sz, addr, val) => {
                let ra = self.expr(addr, RBASE)?;
                let vslot = if ra == RBASE { RBASE + 1 } else { RBASE };
                let rv = self.expr(val, vslot)?;
                self.asm.push(match sz {
                    AccessSize::One => Asm::Sb(rv, ra, 0),
                    AccessSize::Two => Asm::Sh(rv, ra, 0),
                    AccessSize::Four => Asm::Sw(rv, ra, 0),
                    AccessSize::Eight => Asm::Sd(rv, ra, 0),
                });
            }
            Cmd::Seq(a, b) => {
                self.cmd(a)?;
                self.cmd(b)?;
            }
            Cmd::If { cond, then_, else_ } => {
                let l_else = self.fresh_label("else");
                let l_end = self.fresh_label("endif");
                let rc = self.expr(cond, RBASE)?;
                self.asm.push(Asm::Beq(rc, ZERO, l_else.clone()));
                self.cmd(then_)?;
                self.asm.push(Asm::J(l_end.clone()));
                self.asm.push(Asm::Label(l_else));
                self.cmd(else_)?;
                self.asm.push(Asm::Label(l_end));
            }
            Cmd::While { cond, body } => {
                let l_head = self.fresh_label("head");
                let l_end = self.fresh_label("endw");
                self.asm.push(Asm::Label(l_head.clone()));
                let rc = self.expr(cond, RBASE)?;
                self.asm.push(Asm::Beq(rc, ZERO, l_end.clone()));
                self.cmd(body)?;
                self.asm.push(Asm::J(l_head));
                self.asm.push(Asm::Label(l_end));
            }
            Cmd::Call { .. } => return Err(RvCompileError::Unsupported("call")),
            Cmd::Interact { .. } => return Err(RvCompileError::Unsupported("interact")),
            Cmd::StackAlloc { .. } => return Err(RvCompileError::Unsupported("stackalloc")),
        }
        Ok(())
    }
}

/// Compiles one Bedrock2 function with the given register assignment
/// under the frame ABI: the prologue loads pooled arguments
/// from their frame slots, the epilogue flushes every pooled local back
/// before `halt` so the frame is a complete final-locals snapshot.
///
/// # Errors
///
/// See [`RvCompileError`]; additionally rejects assignments that name
/// unknown locals or leave the pool, so a buggy allocator cannot silently
/// alias registers.
pub fn lower_allocated(f: &BFunction, assign: &Assignment) -> Result<RvArtifact, RvCompileError> {
    let mut locals: Vec<String> = f.args.clone();
    for v in f.body.assigned_vars() {
        if !locals.contains(&v) {
            locals.push(v);
        }
    }
    for r in &f.rets {
        if !locals.contains(r) {
            locals.push(r.clone());
        }
    }
    let mut seen = std::collections::HashSet::new();
    for (v, &r) in &assign.regs {
        if !locals.contains(v) {
            return Err(RvCompileError::UnknownLocal(v.clone()));
        }
        if !(POOL_BASE..=POOL_LAST).contains(&r) || !seen.insert(r) {
            return Err(RvCompileError::Unsupported("register assignment outside the pool"));
        }
    }
    let slots: HashMap<String, usize> =
        locals.iter().enumerate().map(|(i, v)| (v.clone(), i)).collect();
    let mut cx = Ctx { slots, assign, asm: Vec::new(), labels: 0 };
    // Prologue: pooled arguments move from their ABI frame slots into
    // their registers.
    for a in &f.args {
        if let Some(&r) = assign.regs.get(a) {
            let off = cx.slot_off(a)?;
            cx.asm.push(Asm::Ld(r, FP, off));
        }
    }
    cx.cmd(&f.body)?;
    // Epilogue: flush every pooled local so ret slots read correctly and
    // the differential can compare the full locals frame.
    for v in &locals {
        if let Some(&r) = assign.regs.get(v) {
            let off = cx.slot_off(v)?;
            cx.asm.push(Asm::Sd(r, FP, off));
        }
    }
    cx.asm.push(Asm::Halt);
    let arg_slots = f.args.iter().map(|a| cx.slots[a]).collect();
    let ret_slots = f.rets.iter().map(|r| cx.slots[r]).collect();
    Ok(RvArtifact {
        name: f.name.clone(),
        asm: cx.asm,
        locals,
        arg_slots,
        ret_slots,
        tables: f.tables.iter().map(|t| (t.name.clone(), t.data.clone())).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_artifact;
    use rupicola_bedrock::ast::BTable;
    use rupicola_bedrock::Memory;

    fn spill_all(f: &BFunction) -> Result<RvArtifact, RvCompileError> {
        lower_allocated(f, &Assignment::default())
    }

    fn run(art: &RvArtifact, mem: &mut Memory, args: &[u64]) -> Vec<u64> {
        run_artifact(art, mem, args, 100_000).unwrap().rets
    }

    fn sum_to_n() -> BFunction {
        let body = Cmd::seq([
            Cmd::set("acc", BExpr::lit(0)),
            Cmd::set("i", BExpr::lit(0)),
            Cmd::while_(
                BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("n")),
                Cmd::seq([
                    Cmd::set("acc", BExpr::op(BinOp::Add, BExpr::var("acc"), BExpr::var("i"))),
                    Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1))),
                ]),
            ),
        ]);
        BFunction::new("sum", ["n"], ["acc"], body)
    }

    #[test]
    fn allocated_lowering_agrees_with_the_spill_all_baseline() {
        let f = sum_to_n();
        let assign = linear_scan(&f);
        assert!(!assign.regs.is_empty());
        let fast = lower_allocated(&f, &assign).unwrap();
        let slow = spill_all(&f).unwrap();
        for n in [0u64, 1, 7, 100] {
            let expected = vec![n * n.saturating_sub(1) / 2];
            assert_eq!(run(&fast, &mut Memory::new(), &[n]), expected);
            assert_eq!(run(&slow, &mut Memory::new(), &[n]), expected);
        }
    }

    #[test]
    fn allocation_strictly_shrinks_the_loop() {
        let f = sum_to_n();
        let fast = lower_allocated(&f, &linear_scan(&f)).unwrap();
        let slow = spill_all(&f).unwrap();
        assert!(
            crate::instr_count(&fast.asm) < crate::instr_count(&slow.asm),
            "expected fewer instructions: {} vs {}",
            crate::instr_count(&fast.asm),
            crate::instr_count(&slow.asm),
        );
    }

    #[test]
    fn pool_overflow_leaves_lightest_locals_in_the_frame() {
        // 14 locals, one loop-heavy: the loop-weighted ones must win pool
        // registers; everyone must still compute correctly.
        let mut setup = vec![];
        for i in 0..12 {
            setup.push(Cmd::set(format!("v{i}"), BExpr::lit(i as u64)));
        }
        let mut total = BExpr::lit(0);
        for i in 0..12 {
            total = BExpr::op(BinOp::Add, total, BExpr::var(format!("v{i}")));
        }
        setup.push(Cmd::set("i", BExpr::lit(0)));
        setup.push(Cmd::while_(
            BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("n")),
            Cmd::seq([
                Cmd::set("v0", BExpr::op(BinOp::Add, BExpr::var("v0"), BExpr::lit(1))),
                Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1))),
            ]),
        ));
        setup.push(Cmd::set("r", total));
        let f = BFunction::new("many", ["n"], ["r"], Cmd::seq(setup));
        let assign = linear_scan(&f);
        assert_eq!(assign.regs.len(), usize::from(POOL_LAST - POOL_BASE + 1));
        assert!(assign.regs.contains_key("i"), "loop counter must be pooled");
        assert!(assign.regs.contains_key("v0"), "loop accumulator must be pooled");
        let art = lower_allocated(&f, &assign).unwrap();
        // 0+1+…+11 = 66, plus 5 increments of v0.
        assert_eq!(run(&art, &mut Memory::new(), &[5]), vec![66 + 5]);
    }

    #[test]
    fn bad_assignments_are_rejected() {
        let f = sum_to_n();
        let alias = Assignment {
            regs: [("acc".to_string(), POOL_BASE), ("i".to_string(), POOL_BASE)].into(),
        };
        assert!(lower_allocated(&f, &alias).is_err(), "aliased registers must be rejected");
        let outside = Assignment { regs: [("acc".to_string(), RBASE)].into() };
        assert!(lower_allocated(&f, &outside).is_err(), "scratch-window assignment rejected");
        let unknown = Assignment { regs: [("ghost".to_string(), POOL_BASE)].into() };
        assert!(lower_allocated(&f, &unknown).is_err(), "unknown local rejected");
    }

    #[test]
    fn constructs_outside_the_fragment_are_unsupported() {
        let none = Vec::<String>::new;
        for (cmd, what) in [
            (Cmd::Call { rets: vec![], func: "g".into(), args: vec![] }, "call"),
            (Cmd::Interact { rets: vec![], action: "io".into(), args: vec![] }, "interact"),
            (
                Cmd::StackAlloc { var: "p".into(), nbytes: 8, body: Box::new(Cmd::Skip) },
                "stackalloc",
            ),
        ] {
            let f = BFunction::new("c", none(), none(), cmd);
            assert_eq!(spill_all(&f), Err(RvCompileError::Unsupported(what)));
        }
    }

    #[test]
    fn eq_lowers_to_a_flipped_sltu() {
        let f = BFunction::new(
            "iszero",
            ["x"],
            ["r"],
            Cmd::if_(
                BExpr::op(BinOp::Eq, BExpr::var("x"), BExpr::lit(0)),
                Cmd::set("r", BExpr::lit(1)),
                Cmd::set("r", BExpr::lit(2)),
            ),
        );
        for art in [spill_all(&f).unwrap(), lower_allocated(&f, &linear_scan(&f)).unwrap()] {
            let mut mem = Memory::new();
            assert_eq!(run(&art, &mut mem, &[0]), vec![1]);
            assert_eq!(run(&art, &mut mem, &[9]), vec![2]);
        }
    }

    #[test]
    fn table_lookup_over_a_load_frees_the_table() {
        // r = tbl[mem1[p]] — a load feeding a table lookup.
        let f = BFunction::new(
            "xlat",
            ["p"],
            ["r"],
            Cmd::set(
                "r",
                BExpr::table(AccessSize::One, "tbl", BExpr::load(AccessSize::One, BExpr::var("p"))),
            ),
        )
        .with_table(BTable { name: "tbl".into(), data: (0..=255).map(|b: u8| b ^ 0x5a).collect() });
        let art = spill_all(&f).unwrap();
        let mut mem = Memory::new();
        let p = mem.alloc(vec![0x33]);
        assert_eq!(run(&art, &mut mem, &[p]), vec![0x33 ^ 0x5a]);
        assert_eq!(mem.region_count(), 1, "only the caller's buffer remains");
    }

    #[test]
    fn expression_depth_is_bounded_by_the_scratch_window() {
        // `1 + (1 + (… + 1))` with `ops` additions keeps one operand live
        // per level: its innermost leaf lands in x(5 + ops).
        let chain = |ops: u64| {
            let mut e = BExpr::lit(1);
            for _ in 0..ops {
                e = BExpr::op(BinOp::Add, BExpr::lit(1), e);
            }
            BFunction::new("deep", Vec::<String>::new(), ["r"], Cmd::set("r", e))
        };
        let deepest = u64::from(RMAX - RBASE);
        let art = spill_all(&chain(deepest)).unwrap();
        assert_eq!(run(&art, &mut Memory::new(), &[]), vec![deepest + 1]);
        assert_eq!(spill_all(&chain(deepest + 1)), Err(RvCompileError::ExpressionTooDeep));
    }
}
