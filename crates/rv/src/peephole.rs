//! Untrusted peephole passes over symbolic RISC-V assembly.
//!
//! Each pass is a pure `Vec<Asm> → Vec<Asm>` rewrite. None of them is
//! trusted: the staged driver re-validates the rewritten artifact against
//! the certified Bedrock2 body and rolls the stage back on divergence, so
//! a bug here costs a missed optimization, never a miscompile.
//!
//! One structural invariant is deliberately preserved: no pass removes a
//! store. The differential reads the final locals back from the frame, so
//! frame stores are observable even when a cleverer analysis would call
//! them dead.

use rupicola_bedrock::rv::{Asm, Reg, ZERO};
use rupicola_bedrock::rv_compile::FP;
use std::collections::HashMap;

/// The register an instruction writes, if any.
fn writes(i: &Asm) -> Option<Reg> {
    match *i {
        Asm::Add(d, ..)
        | Asm::Sub(d, ..)
        | Asm::Mul(d, ..)
        | Asm::Mulhu(d, ..)
        | Asm::Divu(d, ..)
        | Asm::Remu(d, ..)
        | Asm::And(d, ..)
        | Asm::Or(d, ..)
        | Asm::Xor(d, ..)
        | Asm::Sll(d, ..)
        | Asm::Srl(d, ..)
        | Asm::Sra(d, ..)
        | Asm::Slt(d, ..)
        | Asm::Sltu(d, ..)
        | Asm::Li(d, _)
        | Asm::Addi(d, ..)
        | Asm::Lbu(d, ..)
        | Asm::Lhu(d, ..)
        | Asm::Lwu(d, ..)
        | Asm::Ld(d, ..) => Some(d),
        Asm::Sb(..)
        | Asm::Sh(..)
        | Asm::Sw(..)
        | Asm::Sd(..)
        | Asm::Label(_)
        | Asm::Beq(..)
        | Asm::Bne(..)
        | Asm::Bltu(..)
        | Asm::Bgeu(..)
        | Asm::J(_)
        | Asm::Halt => None,
    }
}

/// The registers an instruction reads.
fn reads(i: &Asm) -> Vec<Reg> {
    match *i {
        Asm::Add(_, a, b)
        | Asm::Sub(_, a, b)
        | Asm::Mul(_, a, b)
        | Asm::Mulhu(_, a, b)
        | Asm::Divu(_, a, b)
        | Asm::Remu(_, a, b)
        | Asm::And(_, a, b)
        | Asm::Or(_, a, b)
        | Asm::Xor(_, a, b)
        | Asm::Sll(_, a, b)
        | Asm::Srl(_, a, b)
        | Asm::Sra(_, a, b)
        | Asm::Slt(_, a, b)
        | Asm::Sltu(_, a, b) => vec![a, b],
        Asm::Li(..) => vec![],
        Asm::Addi(_, a, _) => vec![a],
        Asm::Lbu(_, base, _) | Asm::Lhu(_, base, _) | Asm::Lwu(_, base, _) | Asm::Ld(_, base, _) => {
            vec![base]
        }
        Asm::Sb(src, base, _) | Asm::Sh(src, base, _) | Asm::Sw(src, base, _) | Asm::Sd(src, base, _) => {
            vec![src, base]
        }
        Asm::Beq(a, b, _) | Asm::Bne(a, b, _) | Asm::Bltu(a, b, _) | Asm::Bgeu(a, b, _) => {
            vec![a, b]
        }
        Asm::Label(_) | Asm::J(_) | Asm::Halt => vec![],
    }
}

/// Whether control flow can enter or leave at this instruction: labels
/// (join points), branches, jumps, and `halt`.
fn is_barrier(i: &Asm) -> bool {
    matches!(
        i,
        Asm::Label(_)
            | Asm::Beq(..)
            | Asm::Bne(..)
            | Asm::Bltu(..)
            | Asm::Bgeu(..)
            | Asm::J(_)
            | Asm::Halt
    )
}

/// Scratch registers are single-basic-block temporaries by construction
/// in both lowerings (`x5`–`x16`); only those are safe to retarget or
/// discard when locally dead.
fn is_scratch(r: Reg) -> bool {
    (5..=17).contains(&r)
}

/// Is `r` provably dead after position `i` (exclusive)? Conservative:
/// scanning stops at any barrier (where another block might read it) —
/// except `halt`, after which nothing runs.
fn dead_after(asm: &[Asm], i: usize, r: Reg) -> bool {
    for ins in &asm[i + 1..] {
        if reads(ins).contains(&r) {
            return false;
        }
        if matches!(ins, Asm::Halt) {
            return true;
        }
        if writes(ins) == Some(r) {
            return true;
        }
        if is_barrier(ins) {
            return false;
        }
    }
    true
}

/// Forwards frame loads through known frame stores within a basic block:
/// after `sd r, off(x2)`, a later `ld d, off(x2)` becomes a move (or
/// disappears when `d == r`). Stores are never removed.
pub fn redundant_mem(asm: &[Asm]) -> Vec<Asm> {
    let mut out = Vec::with_capacity(asm.len());
    // Frame offset → register known to hold that slot's value.
    let mut known: HashMap<i64, Reg> = HashMap::new();
    for ins in asm {
        if is_barrier(ins) {
            known.clear();
            out.push(ins.clone());
            continue;
        }
        match *ins {
            Asm::Sd(src, base, off) if base == FP => {
                known.insert(off, src);
                out.push(ins.clone());
                continue;
            }
            // A store through any other base may alias the frame.
            Asm::Sb(..) | Asm::Sh(..) | Asm::Sw(..) | Asm::Sd(..) => {
                known.clear();
                out.push(ins.clone());
                continue;
            }
            Asm::Ld(dst, base, off) if base == FP => {
                if let Some(&src) = known.get(&off) {
                    if src != dst {
                        out.push(Asm::Add(dst, src, ZERO));
                        // `src` still holds the slot's value; only `dst`'s
                        // old contents are invalidated.
                        known.retain(|_, r| *r != dst);
                    }
                    continue;
                }
                known.retain(|_, r| *r != dst);
                if dst != ZERO {
                    known.insert(off, dst);
                }
                out.push(ins.clone());
                continue;
            }
            _ => {}
        }
        if let Some(d) = writes(ins) {
            known.retain(|_, r| *r != d);
        }
        out.push(ins.clone());
    }
    out
}

fn invert(b: &Asm, target: String) -> Option<Asm> {
    match b {
        Asm::Beq(a, c, _) => Some(Asm::Bne(*a, *c, target)),
        Asm::Bne(a, c, _) => Some(Asm::Beq(*a, *c, target)),
        Asm::Bltu(a, c, _) => Some(Asm::Bgeu(*a, *c, target)),
        Asm::Bgeu(a, c, _) => Some(Asm::Bltu(*a, *c, target)),
        _ => None,
    }
}

fn branch_target(b: &Asm) -> Option<&str> {
    match b {
        Asm::Beq(_, _, l) | Asm::Bne(_, _, l) | Asm::Bltu(_, _, l) | Asm::Bgeu(_, _, l) => Some(l),
        _ => None,
    }
}

/// Straightens control flow: drops jumps to the immediately following
/// label, inverts `br l1; j l2; l1:` into one branch, and folds branches
/// whose operands are the same register.
pub fn branch_simplify(asm: &[Asm]) -> Vec<Asm> {
    let mut out = Vec::with_capacity(asm.len());
    let mut i = 0;
    while i < asm.len() {
        let ins = &asm[i];
        // `j l` where only labels separate it from `l:` — fall through.
        if let Asm::J(l) = ins {
            let mut j = i + 1;
            let mut falls = false;
            while j < asm.len() {
                match &asm[j] {
                    Asm::Label(m) if m == l => {
                        falls = true;
                        break;
                    }
                    Asm::Label(_) => j += 1,
                    _ => break,
                }
            }
            if falls {
                i += 1;
                continue;
            }
        }
        // `br a,b,l1; j l2; l1:` → `inv-br a,b,l2; l1:` (label kept — other
        // branches may target it).
        if i + 2 < asm.len() {
            if let (Some(l1), Asm::J(l2), Asm::Label(m)) =
                (branch_target(ins), &asm[i + 1], &asm[i + 2])
            {
                if m == l1 {
                    if let Some(inv) = invert(ins, l2.clone()) {
                        out.push(inv);
                        out.push(asm[i + 2].clone());
                        i += 3;
                        continue;
                    }
                }
            }
        }
        // Same-register comparisons have a constant outcome.
        match ins {
            Asm::Beq(a, b, l) | Asm::Bgeu(a, b, l) if a == b => {
                out.push(Asm::J(l.clone()));
                i += 1;
                continue;
            }
            Asm::Bne(a, b, _) | Asm::Bltu(a, b, _) if a == b => {
                i += 1;
                continue;
            }
            _ => {}
        }
        out.push(ins.clone());
        i += 1;
    }
    out
}

fn retarget(i: &Asm, d: Reg) -> Asm {
    match i.clone() {
        Asm::Add(_, a, b) => Asm::Add(d, a, b),
        Asm::Sub(_, a, b) => Asm::Sub(d, a, b),
        Asm::Mul(_, a, b) => Asm::Mul(d, a, b),
        Asm::Mulhu(_, a, b) => Asm::Mulhu(d, a, b),
        Asm::Divu(_, a, b) => Asm::Divu(d, a, b),
        Asm::Remu(_, a, b) => Asm::Remu(d, a, b),
        Asm::And(_, a, b) => Asm::And(d, a, b),
        Asm::Or(_, a, b) => Asm::Or(d, a, b),
        Asm::Xor(_, a, b) => Asm::Xor(d, a, b),
        Asm::Sll(_, a, b) => Asm::Sll(d, a, b),
        Asm::Srl(_, a, b) => Asm::Srl(d, a, b),
        Asm::Sra(_, a, b) => Asm::Sra(d, a, b),
        Asm::Slt(_, a, b) => Asm::Slt(d, a, b),
        Asm::Sltu(_, a, b) => Asm::Sltu(d, a, b),
        Asm::Li(_, imm) => Asm::Li(d, imm),
        Asm::Addi(_, a, k) => Asm::Addi(d, a, k),
        Asm::Lbu(_, b, o) => Asm::Lbu(d, b, o),
        Asm::Lhu(_, b, o) => Asm::Lhu(d, b, o),
        Asm::Lwu(_, b, o) => Asm::Lwu(d, b, o),
        Asm::Ld(_, b, o) => Asm::Ld(d, b, o),
        other => other,
    }
}

/// Folds literal adds into `addi`, retargets writer-then-move pairs, and
/// deletes self-moves. Runs to a fixpoint (bounded) because each rewrite
/// exposes the next: `li`+`add` → `addi`+`mv` → retargeted `addi`.
pub fn addi_fold(asm: &[Asm]) -> Vec<Asm> {
    let mut cur = asm.to_vec();
    for _ in 0..8 {
        let next = addi_fold_once(&cur);
        if next == cur {
            break;
        }
        cur = next;
    }
    cur
}

fn addi_fold_once(asm: &[Asm]) -> Vec<Asm> {
    let mut out = Vec::with_capacity(asm.len());
    let mut i = 0;
    while i < asm.len() {
        // `li x,k; add d,a,x` → `addi d,a,k` when `x` dies with the add.
        if i + 1 < asm.len() {
            if let Asm::Li(x, rupicola_bedrock::rv::Imm::Lit(k)) = &asm[i] {
                let folded = match &asm[i + 1] {
                    Asm::Add(d, a, b) if b == x && a != x => Some((*d, *a)),
                    Asm::Add(d, a, b) if a == x && b != x => Some((*d, *b)),
                    _ => None,
                };
                if let Some((d, a)) = folded {
                    if d == *x || (is_scratch(*x) && dead_after(asm, i + 1, *x)) {
                        out.push(Asm::Addi(d, a, *k));
                        i += 2;
                        continue;
                    }
                }
            }
            // `op s,…; mv v,s` → `op v,…` when scratch `s` dies with the
            // move. Turns spill/flush moves into direct writes.
            if let Some(s) = writes(&asm[i]) {
                let mv_dst = match &asm[i + 1] {
                    Asm::Add(v, a, b) if *a == s && *b == ZERO => Some(*v),
                    Asm::Add(v, a, b) if *b == s && *a == ZERO && s != ZERO => Some(*v),
                    Asm::Addi(v, a, 0) if *a == s => Some(*v),
                    _ => None,
                };
                if let Some(v) = mv_dst {
                    if is_scratch(s)
                        && v != s
                        && !reads(&asm[i]).contains(&v)
                        && !is_barrier(&asm[i])
                        && dead_after(asm, i + 1, s)
                    {
                        out.push(retarget(&asm[i], v));
                        i += 2;
                        continue;
                    }
                }
            }
        }
        // Self-moves vanish.
        match &asm[i] {
            Asm::Add(d, a, z) if d == a && *z == ZERO => {
                i += 1;
                continue;
            }
            Asm::Addi(d, a, 0) if d == a => {
                i += 1;
                continue;
            }
            _ => {}
        }
        out.push(asm[i].clone());
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_bedrock::rv::Imm;

    #[test]
    fn redundant_load_becomes_move_and_stores_survive() {
        let asm = vec![
            Asm::Sd(7, FP, 16),
            Asm::Ld(8, FP, 16),
            Asm::Ld(7, FP, 16),
        ];
        let out = redundant_mem(&asm);
        assert_eq!(out, vec![Asm::Sd(7, FP, 16), Asm::Add(8, 7, ZERO)]);
    }

    #[test]
    fn aliasing_store_and_barriers_kill_knowledge() {
        let through_store = vec![Asm::Sd(7, FP, 16), Asm::Sd(9, 10, 0), Asm::Ld(8, FP, 16)];
        assert_eq!(redundant_mem(&through_store), through_store);
        let through_label =
            vec![Asm::Sd(7, FP, 16), Asm::Label("l".into()), Asm::Ld(8, FP, 16)];
        assert_eq!(redundant_mem(&through_label), through_label);
    }

    #[test]
    fn clobbered_value_register_is_forgotten() {
        let asm = vec![Asm::Sd(7, FP, 16), Asm::Li(7, Imm::Lit(9)), Asm::Ld(8, FP, 16)];
        assert_eq!(redundant_mem(&asm), asm);
    }

    #[test]
    fn jump_to_next_label_is_dropped() {
        let asm = vec![Asm::J("l".into()), Asm::Label("l".into()), Asm::Halt];
        assert_eq!(branch_simplify(&asm), vec![Asm::Label("l".into()), Asm::Halt]);
    }

    #[test]
    fn branch_over_jump_is_inverted() {
        let asm = vec![
            Asm::Beq(5, ZERO, "t".into()),
            Asm::J("e".into()),
            Asm::Label("t".into()),
            Asm::Halt,
        ];
        assert_eq!(
            branch_simplify(&asm),
            vec![Asm::Bne(5, ZERO, "e".into()), Asm::Label("t".into()), Asm::Halt]
        );
    }

    #[test]
    fn same_register_branches_fold() {
        let taken = vec![Asm::Beq(5, 5, "l".into()), Asm::Halt, Asm::Label("l".into())];
        assert_eq!(
            branch_simplify(&taken),
            vec![Asm::J("l".into()), Asm::Halt, Asm::Label("l".into())]
        );
        let never = vec![Asm::Bltu(5, 5, "l".into()), Asm::Label("l".into()), Asm::Halt];
        assert_eq!(branch_simplify(&never), vec![Asm::Label("l".into()), Asm::Halt]);
    }

    #[test]
    fn li_add_folds_to_addi() {
        let asm = vec![Asm::Li(6, Imm::Lit(1)), Asm::Add(18, 18, 6), Asm::Halt];
        assert_eq!(addi_fold(&asm), vec![Asm::Addi(18, 18, 1), Asm::Halt]);
    }

    #[test]
    fn li_add_keeps_live_literal() {
        // x6 is read again after the add: the li must survive, and only
        // folds at the pair position (the second add is not adjacent).
        let asm = vec![
            Asm::Li(6, Imm::Lit(1)),
            Asm::Add(18, 18, 6),
            Asm::Add(19, 19, 6),
            Asm::Halt,
        ];
        assert_eq!(addi_fold(&asm), asm);
    }

    #[test]
    fn writer_move_pair_is_retargeted() {
        let asm = vec![Asm::Add(5, 18, 19), Asm::Add(20, 5, ZERO), Asm::Halt];
        assert_eq!(addi_fold(&asm), vec![Asm::Add(20, 18, 19), Asm::Halt]);
        // Not retargeted when the writer reads the move's destination.
        let hazard = vec![Asm::Sub(5, 20, 19), Asm::Add(20, 5, ZERO), Asm::Sub(6, 20, 5), Asm::Halt];
        assert_eq!(addi_fold(&hazard), hazard);
    }

    #[test]
    fn pool_registers_are_never_discarded() {
        // x18 is not scratch: the li/add pair must stay even though x18
        // looks dead locally.
        let asm = vec![Asm::Li(18, Imm::Lit(1)), Asm::Add(19, 20, 18), Asm::Halt];
        assert_eq!(addi_fold(&asm), asm);
    }
}
