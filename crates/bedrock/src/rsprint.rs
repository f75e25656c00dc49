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

/// Transpiles one function.
///
/// The emitted signature is
/// `pub fn <name>(mem: &mut Vec<u8>, <args: u64>...) -> <rets>` where
/// `<rets>` is `()`, `u64`, or a tuple.
///
/// # Errors
///
/// Fails on `Interact` (interpreter-only).
pub fn function_to_rust(f: &BFunction) -> Result<String, TranspileError> {
    let mut out = String::new();
    let args: Vec<String> = f.args.iter().map(|a| format!("mut {a}: u64")).collect();
    let ret_ty = match f.rets.len() {
        0 => "()".to_string(),
        1 => "u64".to_string(),
        n => format!("({})", vec!["u64"; n].join(", ")),
    };
    let _ = writeln!(
        out,
        "#[allow(unused_mut, unused_variables, unused_parens, unused_assignments, clippy::all)]\npub fn {}(mem: &mut Vec<u8>{}{}) -> {ret_ty} {{",
        f.name,
        if args.is_empty() { "" } else { ", " },
        args.join(", ")
    );
    for t in &f.tables {
        let items: Vec<String> = t.data.iter().map(u8::to_string).collect();
        let _ = writeln!(
            out,
            "    static {}: [u8; {}] = [{}];",
            table_const(&t.name),
            t.data.len(),
            items.join(", ")
        );
    }
    for v in f.body.assigned_vars() {
        if !f.args.contains(&v) {
            let _ = writeln!(out, "    let mut {v}: u64 = 0;");
        }
    }
    print_cmd(&mut out, &f.body, 1)?;
    match f.rets.len() {
        0 => {}
        1 => {
            let _ = writeln!(out, "    {}", f.rets[0]);
        }
        _ => {
            let _ = writeln!(out, "    ({})", f.rets.join(", "));
        }
    }
    out.push_str("}\n");
    Ok(out)
}

/// Renders an expression as Rust.
pub fn expr_to_rust(e: &BExpr) -> String {
    match e {
        BExpr::Lit(w) => format!("{w}u64"),
        BExpr::Var(v) => v.clone(),
        BExpr::Load(size, addr) => {
            let a = expr_to_rust(addr);
            match size {
                AccessSize::One => format!("u64::from(mem[({a}) as usize])"),
                AccessSize::Two => format!(
                    "{{ let a = ({a}) as usize; u64::from(u16::from_le_bytes(mem[a..a + 2].try_into().unwrap())) }}"
                ),
                AccessSize::Four => format!(
                    "{{ let a = ({a}) as usize; u64::from(u32::from_le_bytes(mem[a..a + 4].try_into().unwrap())) }}"
                ),
                AccessSize::Eight => format!(
                    "{{ let a = ({a}) as usize; u64::from_le_bytes(mem[a..a + 8].try_into().unwrap()) }}"
                ),
            }
        }
        BExpr::InlineTable { size, table, index } => {
            let t = table_const(table);
            let i = expr_to_rust(index);
            match size {
                AccessSize::One => format!("u64::from({t}[({i}) as usize])"),
                AccessSize::Two => format!(
                    "{{ let a = ({i}) as usize; u64::from(u16::from_le_bytes({t}[a..a + 2].try_into().unwrap())) }}"
                ),
                AccessSize::Four => format!(
                    "{{ let a = ({i}) as usize; u64::from(u32::from_le_bytes({t}[a..a + 4].try_into().unwrap())) }}"
                ),
                AccessSize::Eight => format!(
                    "{{ let a = ({i}) as usize; u64::from_le_bytes({t}[a..a + 8].try_into().unwrap()) }}"
                ),
            }
        }
        BExpr::Op(op, a, b) => {
            let (sa, sb) = (expr_to_rust(a), expr_to_rust(b));
            match op {
                BinOp::Add => format!("({sa}).wrapping_add({sb})"),
                BinOp::Sub => format!("({sa}).wrapping_sub({sb})"),
                BinOp::Mul => format!("({sa}).wrapping_mul({sb})"),
                BinOp::MulHuu => {
                    format!("((u128::from({sa}) * u128::from({sb})) >> 64) as u64")
                }
                BinOp::DivU => format!(
                    "{{ let d = {sb}; if d == 0 {{ u64::MAX }} else {{ ({sa}) / d }} }}"
                ),
                BinOp::RemU => format!(
                    "{{ let n = {sa}; let d = {sb}; if d == 0 {{ n }} else {{ n % d }} }}"
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

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_cmd(out: &mut String, cmd: &Cmd, level: usize) -> Result<(), TranspileError> {
    match cmd {
        Cmd::Skip => {}
        Cmd::Set(v, e) => {
            indent(out, level);
            let _ = writeln!(out, "{v} = {};", expr_to_rust(e));
        }
        Cmd::Unset(_) => {}
        Cmd::Store(size, addr, val) => {
            indent(out, level);
            let a = expr_to_rust(addr);
            let v = expr_to_rust(val);
            match size {
                AccessSize::One => {
                    let _ = writeln!(out, "mem[({a}) as usize] = ({v}) as u8;");
                }
                AccessSize::Two => {
                    let _ = writeln!(out, "{{ let a = ({a}) as usize; let v = ({v}) as u16; mem[a..a + 2].copy_from_slice(&v.to_le_bytes()); }}");
                }
                AccessSize::Four => {
                    let _ = writeln!(out, "{{ let a = ({a}) as usize; let v = ({v}) as u32; mem[a..a + 4].copy_from_slice(&v.to_le_bytes()); }}");
                }
                AccessSize::Eight => {
                    let _ = writeln!(out, "{{ let a = ({a}) as usize; let v = {v}; mem[a..a + 8].copy_from_slice(&v.to_le_bytes()); }}");
                }
            }
        }
        Cmd::Seq(a, b) => {
            print_cmd(out, a, level)?;
            print_cmd(out, b, level)?;
        }
        Cmd::If { cond, then_, else_ } => {
            indent(out, level);
            let _ = writeln!(out, "if ({}) != 0 {{", expr_to_rust(cond));
            print_cmd(out, then_, level + 1)?;
            if !matches!(**else_, Cmd::Skip) {
                indent(out, level);
                out.push_str("} else {\n");
                print_cmd(out, else_, level + 1)?;
            }
            indent(out, level);
            out.push_str("}\n");
        }
        Cmd::While { cond, body } => {
            indent(out, level);
            let _ = writeln!(out, "while ({}) != 0 {{", expr_to_rust(cond));
            print_cmd(out, body, level + 1)?;
            indent(out, level);
            out.push_str("}\n");
        }
        Cmd::Call { rets, func, args } => {
            indent(out, level);
            let argv: Vec<String> = args.iter().map(expr_to_rust).collect();
            let call = format!(
                "{func}(mem{}{})",
                if argv.is_empty() { "" } else { ", " },
                argv.join(", ")
            );
            match rets.len() {
                0 => {
                    let _ = writeln!(out, "{call};");
                }
                1 => {
                    let _ = writeln!(out, "{} = {call};", rets[0]);
                }
                _ => {
                    let tmp: Vec<String> =
                        (0..rets.len()).map(|i| format!("r{i}")).collect();
                    let _ = writeln!(out, "let ({}) = {call};", tmp.join(", "));
                    for (r, t) in rets.iter().zip(&tmp) {
                        indent(out, level);
                        let _ = writeln!(out, "{r} = {t};");
                    }
                }
            }
        }
        Cmd::Interact { .. } => return Err(TranspileError::Unsupported("interact")),
        Cmd::StackAlloc { var, nbytes, body } => {
            indent(out, level);
            let _ = writeln!(out, "{var} = mem.len() as u64;");
            indent(out, level);
            let _ = writeln!(out, "mem.resize(mem.len() + {nbytes}, 0xAA);");
            print_cmd(out, body, level)?;
            indent(out, level);
            let _ = writeln!(out, "mem.truncate({var} as usize);");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AccessSize as Sz, BTable};

    #[test]
    fn transpiles_loop_shape() {
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
        let f = BFunction::new("zero", ["s", "len"], Vec::<String>::new(), body);
        let rs = function_to_rust(&f).unwrap();
        assert!(rs.contains("pub fn zero(mem: &mut Vec<u8>, mut s: u64, mut len: u64) -> ()"));
        assert!(rs.contains("while (u64::from((i) < (len))) != 0 {"));
        assert!(rs.contains("mem[((s).wrapping_add(i)) as usize]"));
    }

    #[test]
    fn transpiles_tables() {
        let f = BFunction::new(
            "t",
            ["i"],
            ["x"],
            Cmd::set("x", BExpr::table(Sz::One, "lut", BExpr::var("i"))),
        )
        .with_table(BTable { name: "lut".into(), data: vec![5, 6] });
        let rs = function_to_rust(&f).unwrap();
        assert!(rs.contains("static LUT: [u8; 2] = [5, 6];"));
        assert!(rs.contains("u64::from(LUT[(i) as usize])"));
        assert!(rs.trim_end().ends_with('}'));
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
            function_to_rust(&f),
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
        let rs = function_to_rust(&f).unwrap();
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
        let rs = function_to_rust(&f).unwrap();
        assert!(rs.contains("-> (u64, u64)"));
        assert!(rs.contains("(x, y)"));
    }
}
