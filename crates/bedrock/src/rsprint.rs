//! Transpiler from Bedrock2 to Rust.
//!
//! The paper benchmarks Rupicola's output by pretty-printing Bedrock2 to C
//! and handing it to GCC/Clang. In this reproduction the native route is
//! rustc: this module prints a Bedrock2 function as a safe Rust function
//! over an explicit byte-addressed heap (`mem: &mut Vec<u8>`, addresses are
//! indices), preserving the shape of the generated code — straight-line
//! word arithmetic, `while` loops, explicit loads and stores — so the
//! Figure 2 comparison against handwritten baselines is meaningful.
//!
//! Three choices let LLVM compile the hot loops the way it compiles the
//! handwritten baselines; every index stays bounds-checked:
//!
//! - **Region slice.** Given the spec's footprint as [`Region`]s, a
//!   function whose every memory access is `base + off` (or `base`) into
//!   one region, whose `base` argument is never assigned, and which has no
//!   `stackalloc` or call borrows that region once at entry,
//!   `let r_s = &mut mem[s as usize..][..extent];`, and prints each access
//!   as `r_s[off]`. A call that breaks the precondition panics at that
//!   borrow instead of reading outside the region. Any other function
//!   addresses `mem` directly, as does every function printed with no
//!   regions.
//! - **Word tables.** An inline table whose length is a multiple of 8 and
//!   that the body reads 8 bytes at a time also gets a `[u64; len / 8]`
//!   static; an 8-byte load at an aligned index reads it, any other index
//!   reads the bytes. Both give the same word at every index, so no fact
//!   about the index is needed, and LLVM drops the unaligned branch when
//!   the index is a multiple of 8 by construction (`crc32`).
//! - **`#[inline]`** on every function, so a caller's facts about the
//!   arguments (say, an even `len`) reach the loop.
//!
//! The transpiler covers everything except `Interact` (which involves the
//! external world and remains interpreter-only): expressions (including
//! inline tables), assignments, conditionals, loops, calls, and
//! `stackalloc` (grown at the end of the memory vector and truncated on
//! scope exit, mirroring a stack discipline).

use std::fmt;
use std::fmt::Write as _;

use crate::ast::{AccessSize, BExpr, BFunction, BinOp, Cmd};

/// Why a function could not be transpiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranspileError {
    /// The construct is intentionally interpreter-only.
    Unsupported(&'static str),
    /// A call or return-shape the printer cannot express.
    BadShape(String),
}

impl fmt::Display for TranspileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranspileError::Unsupported(what) => {
                write!(f, "construct not supported by the Rust backend: {what}")
            }
            TranspileError::BadShape(m) => write!(f, "cannot transpile: {m}"),
        }
    }
}

impl std::error::Error for TranspileError {}

/// One region of a function's precondition footprint, as the printer
/// takes it: plain data, derived from the spec by the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// The argument holding the region's base address.
    pub base: String,
    /// The region's size in bytes.
    pub extent: Extent,
}

/// The byte size of a [`Region`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Extent {
    /// Exactly this many bytes.
    Bytes(u64),
    /// `elem_bytes · count` bytes, `count` being an argument's value at
    /// entry.
    Elems {
        /// Bytes per element.
        elem_bytes: u64,
        /// The argument holding the element count.
        count: String,
    },
}

fn table_const(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_uppercase() } else { '_' })
        .collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, 'T');
    }
    s
}

/// The little-endian words of `data`, 8 bytes each (the word table of an
/// inline table whose length is a multiple of 8).
fn word_table(data: &[u8]) -> Vec<u64> {
    data.chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .collect()
}

/// What the printer needs to know about a body before printing it.
#[derive(Default)]
struct Scan<'f> {
    /// Every load and store address.
    addrs: Vec<&'f BExpr>,
    /// Tables read 8 bytes at a time.
    wide_tables: Vec<&'f str>,
    /// Whether the body reaches memory other than through an address:
    /// a call (the callee gets `mem`) or a stack allocation.
    opaque: bool,
}

impl<'f> Scan<'f> {
    fn cmd(&mut self, cmd: &'f Cmd) {
        match cmd {
            Cmd::Skip | Cmd::Unset(_) => {}
            Cmd::Set(_, e) => self.expr(e),
            Cmd::Store(_, addr, val) => {
                self.addrs.push(addr);
                self.expr(addr);
                self.expr(val);
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
                self.expr(cond);
                self.cmd(body);
            }
            Cmd::Call { args, .. } | Cmd::Interact { args, .. } => {
                self.opaque = true;
                args.iter().for_each(|a| self.expr(a));
            }
            Cmd::StackAlloc { body, .. } => {
                self.opaque = true;
                self.cmd(body);
            }
        }
    }

    fn expr(&mut self, e: &'f BExpr) {
        match e {
            BExpr::Lit(_) | BExpr::Var(_) => {}
            BExpr::Load(_, addr) => {
                self.addrs.push(addr);
                self.expr(addr);
            }
            BExpr::InlineTable { size, table, index } => {
                if *size == AccessSize::Eight && !self.wide_tables.contains(&table.as_str()) {
                    self.wide_tables.push(table);
                }
                self.expr(index);
            }
            BExpr::Op(_, a, b) => {
                self.expr(a);
                self.expr(b);
            }
        }
    }
}

/// The offset of `addr` from `base` when it is `base + off` (`None` for
/// the offset of `base` itself), or `Err` when it is neither.
fn offset_from<'e>(addr: &'e BExpr, base: &str) -> Result<Option<&'e BExpr>, ()> {
    match addr {
        BExpr::Var(v) if v == base => Ok(None),
        BExpr::Op(BinOp::Add, a, off) if matches!(&**a, BExpr::Var(v) if v == base) => Ok(Some(off)),
        _ => Err(()),
    }
}

/// The slice name of the region based at `base`.
fn slice_name(base: &str) -> String {
    format!("r_{base}")
}

/// The region every memory access of `f` goes through, if `f` may index
/// it as a slice: its base and count are arguments, its base is never
/// assigned, its slice name is free, and the body reaches memory only
/// through `base + off` or `base` addresses.
fn slice_region<'r>(f: &BFunction, scan: &Scan<'_>, regions: &'r [Region]) -> Option<&'r Region> {
    if scan.opaque || scan.addrs.is_empty() {
        return None;
    }
    let assigned = f.body.assigned_vars();
    regions.iter().find(|r| {
        let count_is_arg = match &r.extent {
            Extent::Bytes(_) => true,
            Extent::Elems { count, .. } => f.args.contains(count),
        };
        let name = slice_name(&r.base);
        f.args.contains(&r.base)
            && count_is_arg
            && !assigned.contains(&r.base)
            && !assigned.contains(&name)
            && !f.args.contains(&name)
            && scan.addrs.iter().all(|a| offset_from(a, &r.base).is_ok())
    })
}

/// Transpiles one function.
///
/// The emitted signature is
/// `pub fn <name>(mem: &mut Vec<u8>, <args: u64>...) -> <rets>` where
/// `<rets>` is `()`, `u64`, or a tuple. `regions` is the spec's footprint;
/// the one region every access goes through, if there is one, is indexed
/// as a slice (see the module doc). `&[]` addresses `mem` directly.
///
/// # Errors
///
/// Fails on `Interact` (interpreter-only).
pub fn function_to_rust(f: &BFunction, regions: &[Region]) -> Result<String, TranspileError> {
    let mut scan = Scan::default();
    scan.cmd(&f.body);
    let region = slice_region(f, &scan, regions);
    let mut p = Printer { out: String::new(), base: region.map(|r| r.base.as_str()), words: Vec::new() };
    let args: Vec<String> = f.args.iter().map(|a| format!("mut {a}: u64")).collect();
    let ret_ty = match f.rets.len() {
        0 => "()".to_string(),
        1 => "u64".to_string(),
        n => format!("({})", vec!["u64"; n].join(", ")),
    };
    let _ = writeln!(
        p.out,
        "#[inline]\n#[allow(unused_mut, unused_variables, unused_parens, unused_assignments, clippy::all)]\npub fn {}(mem: &mut Vec<u8>{}{}) -> {ret_ty} {{",
        f.name,
        if args.is_empty() { "" } else { ", " },
        args.join(", ")
    );
    for t in &f.tables {
        let name = table_const(&t.name);
        let items: Vec<String> = t.data.iter().map(u8::to_string).collect();
        let _ = writeln!(p.out, "    static {name}: [u8; {}] = [{}];", t.data.len(), items.join(", "));
        if t.data.len() % 8 == 0 && scan.wide_tables.contains(&t.name.as_str()) {
            let words: Vec<String> = word_table(&t.data).iter().map(u64::to_string).collect();
            let _ = writeln!(p.out, "    static {name}_W: [u64; {}] = [{}];", words.len(), words.join(", "));
            p.words.push(t.name.as_str());
        }
    }
    for v in f.body.assigned_vars() {
        if !f.args.contains(&v) {
            let _ = writeln!(p.out, "    let mut {v}: u64 = 0;");
        }
    }
    if let Some(r) = region {
        let extent = match &r.extent {
            Extent::Bytes(n) => format!("{n}"),
            Extent::Elems { elem_bytes: 1, count } => format!("{count} as usize"),
            Extent::Elems { elem_bytes, count } => {
                format!("({count} as usize).checked_mul({elem_bytes}).unwrap()")
            }
        };
        let _ = writeln!(
            p.out,
            "    let {} = &mut mem[{} as usize..][..{extent}];",
            slice_name(&r.base),
            r.base
        );
    }
    p.cmd(&f.body, 1)?;
    match f.rets.len() {
        0 => {}
        1 => {
            let _ = writeln!(p.out, "    {}", f.rets[0]);
        }
        _ => {
            let _ = writeln!(p.out, "    ({})", f.rets.join(", "));
        }
    }
    p.out.push_str("}\n");
    Ok(p.out)
}

struct Printer<'f> {
    out: String,
    /// The base argument of the region indexed as a slice, if any.
    base: Option<&'f str>,
    /// Tables that have a word-table static.
    words: Vec<&'f str>,
}

impl Printer<'_> {
    /// The slice an access at `addr` indexes and the index within it.
    fn place(&self, addr: &BExpr) -> (String, String) {
        match self.base.map(|b| (b, offset_from(addr, b))) {
            Some((b, Ok(off))) => {
                (slice_name(b), off.map_or_else(|| "0u64".to_string(), |o| self.expr(o)))
            }
            _ => ("mem".to_string(), self.expr(addr)),
        }
    }

    /// Renders an expression as Rust.
    fn expr(&self, e: &BExpr) -> String {
        match e {
            BExpr::Lit(w) => format!("{w}u64"),
            BExpr::Var(v) => v.clone(),
            BExpr::Load(size, addr) => {
                let (m, a) = self.place(addr);
                match size {
                    AccessSize::One => format!("u64::from({m}[({a}) as usize])"),
                    AccessSize::Two => format!(
                        "{{ let a = ({a}) as usize; u64::from(u16::from_le_bytes({m}[a..a + 2].try_into().unwrap())) }}"
                    ),
                    AccessSize::Four => format!(
                        "{{ let a = ({a}) as usize; u64::from(u32::from_le_bytes({m}[a..a + 4].try_into().unwrap())) }}"
                    ),
                    AccessSize::Eight => format!(
                        "{{ let a = ({a}) as usize; u64::from_le_bytes({m}[a..a + 8].try_into().unwrap()) }}"
                    ),
                }
            }
            BExpr::InlineTable { size, table, index } => {
                let t = table_const(table);
                let i = self.expr(index);
                match size {
                    AccessSize::One => format!("u64::from({t}[({i}) as usize])"),
                    AccessSize::Two => format!(
                        "{{ let a = ({i}) as usize; u64::from(u16::from_le_bytes({t}[a..a + 2].try_into().unwrap())) }}"
                    ),
                    AccessSize::Four => format!(
                        "{{ let a = ({i}) as usize; u64::from(u32::from_le_bytes({t}[a..a + 4].try_into().unwrap())) }}"
                    ),
                    AccessSize::Eight if self.words.contains(&table.as_str()) => format!(
                        "{{ let a = ({i}) as usize; if a % 8 == 0 {{ {t}_W[a / 8] }} else {{ u64::from_le_bytes({t}[a..a + 8].try_into().unwrap()) }} }}"
                    ),
                    AccessSize::Eight => format!(
                        "{{ let a = ({i}) as usize; u64::from_le_bytes({t}[a..a + 8].try_into().unwrap()) }}"
                    ),
                }
            }
            BExpr::Op(op, a, b) => {
                let (sa, sb) = (self.expr(a), self.expr(b));
                match op {
                    BinOp::Add => format!("({sa}).wrapping_add({sb})"),
                    BinOp::Sub => format!("({sa}).wrapping_sub({sb})"),
                    BinOp::Mul => format!("({sa}).wrapping_mul({sb})"),
                    BinOp::MulHuu => {
                        format!("((u128::from({sa}) * u128::from({sb})) >> 64) as u64")
                    }
                    // Both operands are evaluated before either is bound,
                    // so a local named `n` or `d` is never shadowed.
                    BinOp::DivU => format!(
                        "{{ let (n, d) = ({sa}, {sb}); if d == 0 {{ u64::MAX }} else {{ n / d }} }}"
                    ),
                    BinOp::RemU => format!(
                        "{{ let (n, d) = ({sa}, {sb}); if d == 0 {{ n }} else {{ n % d }} }}"
                    ),
                    BinOp::And => format!("(({sa}) & ({sb}))"),
                    BinOp::Or => format!("(({sa}) | ({sb}))"),
                    BinOp::Xor => format!("(({sa}) ^ ({sb}))"),
                    BinOp::Sru => format!("(({sa}) >> (({sb}) & 63))"),
                    BinOp::Slu => format!("(({sa}) << (({sb}) & 63))"),
                    BinOp::Srs => format!("((({sa}) as i64 >> (({sb}) & 63)) as u64)"),
                    BinOp::LtS => format!("u64::from((({sa}) as i64) < (({sb}) as i64))"),
                    BinOp::LtU => format!("u64::from(({sa}) < ({sb}))"),
                    BinOp::Eq => format!("u64::from(({sa}) == ({sb}))"),
                }
            }
        }
    }

    fn indent(&mut self, level: usize) {
        for _ in 0..level {
            self.out.push_str("    ");
        }
    }

    fn cmd(&mut self, cmd: &Cmd, level: usize) -> Result<(), TranspileError> {
        match cmd {
            Cmd::Skip => {}
            Cmd::Set(v, e) => {
                self.indent(level);
                let e = self.expr(e);
                let _ = writeln!(self.out, "{v} = {e};");
            }
            Cmd::Unset(_) => {}
            Cmd::Store(size, addr, val) => {
                self.indent(level);
                let (m, a) = self.place(addr);
                let v = self.expr(val);
                // Address and value are evaluated before either is bound,
                // so a local named `a` or `v` is never shadowed.
                let line = match size {
                    AccessSize::One => format!("{m}[({a}) as usize] = ({v}) as u8;"),
                    AccessSize::Two => format!("{{ let (a, v) = (({a}) as usize, ({v}) as u16); {m}[a..a + 2].copy_from_slice(&v.to_le_bytes()); }}"),
                    AccessSize::Four => format!("{{ let (a, v) = (({a}) as usize, ({v}) as u32); {m}[a..a + 4].copy_from_slice(&v.to_le_bytes()); }}"),
                    AccessSize::Eight => format!("{{ let (a, v) = (({a}) as usize, {v}); {m}[a..a + 8].copy_from_slice(&v.to_le_bytes()); }}"),
                };
                self.out.push_str(&line);
                self.out.push('\n');
            }
            Cmd::Seq(a, b) => {
                self.cmd(a, level)?;
                self.cmd(b, level)?;
            }
            Cmd::If { cond, then_, else_ } => {
                self.indent(level);
                let c = self.expr(cond);
                let _ = writeln!(self.out, "if ({c}) != 0 {{");
                self.cmd(then_, level + 1)?;
                if !matches!(**else_, Cmd::Skip) {
                    self.indent(level);
                    self.out.push_str("} else {\n");
                    self.cmd(else_, level + 1)?;
                }
                self.indent(level);
                self.out.push_str("}\n");
            }
            Cmd::While { cond, body } => {
                self.indent(level);
                let c = self.expr(cond);
                let _ = writeln!(self.out, "while ({c}) != 0 {{");
                self.cmd(body, level + 1)?;
                self.indent(level);
                self.out.push_str("}\n");
            }
            Cmd::Call { rets, func, args } => {
                self.indent(level);
                let argv: Vec<String> = args.iter().map(|a| self.expr(a)).collect();
                let call = format!(
                    "{func}(mem{}{})",
                    if argv.is_empty() { "" } else { ", " },
                    argv.join(", ")
                );
                match rets.len() {
                    0 => {
                        let _ = writeln!(self.out, "{call};");
                    }
                    1 => {
                        let _ = writeln!(self.out, "{} = {call};", rets[0]);
                    }
                    _ => {
                        let tmp: Vec<String> =
                            (0..rets.len()).map(|i| format!("r{i}")).collect();
                        let _ = writeln!(self.out, "let ({}) = {call};", tmp.join(", "));
                        for (r, t) in rets.iter().zip(&tmp) {
                            self.indent(level);
                            let _ = writeln!(self.out, "{r} = {t};");
                        }
                    }
                }
            }
            Cmd::Interact { .. } => return Err(TranspileError::Unsupported("interact")),
            Cmd::StackAlloc { var, nbytes, body } => {
                self.indent(level);
                let _ = writeln!(self.out, "{var} = mem.len() as u64;");
                self.indent(level);
                let _ = writeln!(self.out, "mem.resize(mem.len() + {nbytes}, 0xAA);");
                self.cmd(body, level)?;
                self.indent(level);
                let _ = writeln!(self.out, "mem.truncate({var} as usize);");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AccessSize as Sz, BTable};

    /// `for i < len: s[i] = 0`, addressing `s + i`.
    fn zero_fn() -> BFunction {
        let body = Cmd::seq([
            Cmd::set("i", BExpr::lit(0)),
            Cmd::while_(
                BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("len")),
                Cmd::seq([
                    Cmd::store(
                        Sz::One,
                        BExpr::op(BinOp::Add, BExpr::var("s"), BExpr::var("i")),
                        BExpr::lit(0),
                    ),
                    Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1))),
                ]),
            ),
        ]);
        BFunction::new("zero", ["s", "len"], Vec::<String>::new(), body)
    }

    fn byte_region(base: &str, count: &str) -> Region {
        Region { base: base.into(), extent: Extent::Elems { elem_bytes: 1, count: count.into() } }
    }

    #[test]
    fn transpiles_loop_shape() {
        let rs = function_to_rust(&zero_fn(), &[]).unwrap();
        assert!(rs.contains("#[inline]\n"));
        assert!(rs.contains("pub fn zero(mem: &mut Vec<u8>, mut s: u64, mut len: u64) -> ()"));
        assert!(rs.contains("while (u64::from((i) < (len))) != 0 {"));
        assert!(rs.contains("mem[((s).wrapping_add(i)) as usize]"));
    }

    #[test]
    fn region_accesses_index_one_slice() {
        let rs = function_to_rust(&zero_fn(), &[byte_region("s", "len")]).unwrap();
        assert!(rs.contains("let r_s = &mut mem[s as usize..][..len as usize];"), "{rs}");
        assert!(rs.contains("r_s[(i) as usize] = (0u64) as u8;"), "{rs}");
        assert!(!rs.contains("mem[("), "{rs}");
        // Word arrays borrow `8 · len` bytes with a checked multiply.
        let words = Region { base: "s".into(), extent: Extent::Elems { elem_bytes: 8, count: "len".into() } };
        let rs = function_to_rust(&zero_fn(), &[words]).unwrap();
        assert!(rs.contains("[..(len as usize).checked_mul(8).unwrap()]"), "{rs}");
        let cell = Region { base: "s".into(), extent: Extent::Bytes(16) };
        assert!(function_to_rust(&zero_fn(), &[cell]).unwrap().contains("[..16];"));
    }

    #[test]
    fn region_slice_needs_every_access_through_an_unassigned_base() {
        let plain = function_to_rust(&zero_fn(), &[]).unwrap();
        // The base is reassigned.
        let mut f = zero_fn();
        f.body = Cmd::seq([f.body.clone(), Cmd::set("s", BExpr::lit(0))]);
        assert!(!function_to_rust(&f, &[byte_region("s", "len")]).unwrap().contains("r_s"));
        // One access is not `s + off`.
        let mut f = zero_fn();
        f.body = Cmd::seq([f.body.clone(), Cmd::store(Sz::One, BExpr::var("len"), BExpr::lit(1))]);
        assert!(!function_to_rust(&f, &[byte_region("s", "len")]).unwrap().contains("r_s"));
        // A stack allocation.
        let mut f = zero_fn();
        f.body = Cmd::StackAlloc { var: "p".into(), nbytes: 8, body: Box::new(f.body.clone()) };
        assert!(!function_to_rust(&f, &[byte_region("s", "len")]).unwrap().contains("r_s"));
        // No region is based at an argument.
        assert_eq!(function_to_rust(&zero_fn(), &[byte_region("t", "len")]).unwrap(), plain);
    }

    #[test]
    fn transpiles_tables() {
        let rs = function_to_rust(&table_fn(Sz::One, vec![5, 6]), &[]).unwrap();
        assert!(rs.contains("static LUT: [u8; 2] = [5, 6];"));
        assert!(rs.contains("u64::from(LUT[(i) as usize])"));
        assert!(rs.trim_end().ends_with('}'));
    }

    /// `x = lut[i]`, read `size` bytes at a time from a table of `data`.
    fn table_fn(size: Sz, data: Vec<u8>) -> BFunction {
        BFunction::new("t", ["i"], ["x"], Cmd::set("x", BExpr::table(size, "lut", BExpr::var("i"))))
            .with_table(BTable { name: "lut".into(), data })
    }

    /// An 8-byte table load reads the word table at an aligned index and
    /// the bytes elsewhere; both give the bytes' little-endian word.
    #[test]
    fn word_table_loads_equal_byte_table_loads() {
        let data: Vec<u8> = (0..32u8).map(|b| b.wrapping_mul(37) ^ 0x5a).collect();
        let rs = function_to_rust(&table_fn(Sz::Eight, data.clone()), &[]).unwrap();
        let words = word_table(&data);
        let listed: Vec<String> = words.iter().map(u64::to_string).collect();
        assert!(rs.contains(&format!("static LUT_W: [u64; 4] = [{}];", listed.join(", "))), "{rs}");
        assert!(rs.contains(
            "if a % 8 == 0 { LUT_W[a / 8] } else { u64::from_le_bytes(LUT[a..a + 8].try_into().unwrap()) }"
        ));
        // The printed branch, evaluated at every index an 8-byte load can
        // read, aligned (0, 8, 16, 24) and unaligned alike.
        for a in 0..=data.len() - 8 {
            let bytes = u64::from_le_bytes(data[a..a + 8].try_into().unwrap());
            let printed = if a % 8 == 0 { words[a / 8] } else { bytes };
            assert_eq!(printed, bytes, "index {a}");
        }
        // A table whose length is not a multiple of 8, or that is read a
        // byte at a time, gets no word table.
        assert!(!function_to_rust(&table_fn(Sz::Eight, vec![1; 12]), &[]).unwrap().contains("LUT_W"));
        assert!(!function_to_rust(&table_fn(Sz::One, data), &[]).unwrap().contains("LUT_W"));
    }

    #[test]
    fn rejects_interact() {
        let f = BFunction::new(
            "io",
            Vec::<String>::new(),
            Vec::<String>::new(),
            Cmd::Interact { rets: vec![], action: "io_write".into(), args: vec![] },
        );
        assert_eq!(
            function_to_rust(&f, &[]),
            Err(TranspileError::Unsupported("interact"))
        );
    }

    #[test]
    fn stackalloc_grows_and_truncates() {
        let f = BFunction::new(
            "s",
            Vec::<String>::new(),
            ["x"],
            Cmd::StackAlloc {
                var: "p".into(),
                nbytes: 8,
                body: Box::new(Cmd::seq([
                    Cmd::store(Sz::Eight, BExpr::var("p"), BExpr::lit(7)),
                    Cmd::set("x", BExpr::load(Sz::Eight, BExpr::var("p"))),
                ])),
            },
        );
        let rs = function_to_rust(&f, &[]).unwrap();
        assert!(rs.contains("p = mem.len() as u64;"), "{rs}");
        assert!(rs.contains("mem.resize(mem.len() + 8, 0xAA);"), "{rs}");
        assert!(rs.contains("mem.truncate(p as usize);"), "{rs}");
    }

    #[test]
    fn table_const_sanitizes() {
        assert_eq!(table_const("crc-table"), "CRC_TABLE");
        assert_eq!(table_const("0tbl"), "T0TBL");
    }

    #[test]
    fn multi_ret_is_tuple() {
        let f = BFunction::new(
            "pairy",
            ["x"],
            ["x", "y"],
            Cmd::set("y", BExpr::var("x")),
        );
        let rs = function_to_rust(&f, &[]).unwrap();
        assert!(rs.contains("-> (u64, u64)"));
        assert!(rs.contains("(x, y)"));
    }
}
