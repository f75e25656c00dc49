//! Abstract syntax of Bedrock2.
//!
//! The definitions follow the Coq development's `Syntax.v`: expressions are
//! word-valued (literals, variables, memory loads, inline-table loads and
//! binary operations), and commands are the usual structured-programming
//! fare plus `stackalloc` and `interact` (external calls recorded on the
//! event trace).

use std::collections::BTreeMap;
use std::fmt;

/// The width of a memory access, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessSize {
    /// One byte (`load1`/`store1`).
    One,
    /// Two bytes.
    Two,
    /// Four bytes.
    Four,
    /// Eight bytes (a full word on our 64-bit instantiation).
    Eight,
}

impl AccessSize {
    /// Number of bytes.
    pub fn bytes(self) -> u64 {
        match self {
            AccessSize::One => 1,
            AccessSize::Two => 2,
            AccessSize::Four => 4,
            AccessSize::Eight => 8,
        }
    }
}

impl fmt::Display for AccessSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bytes())
    }
}

/// Bedrock2 binary operators (all on 64-bit words; comparisons produce 0/1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// High 64 bits of the unsigned 128-bit product.
    MulHuu,
    /// Unsigned division (Bedrock2 defines division by zero as all-ones,
    /// following RISC-V).
    DivU,
    /// Unsigned remainder (remainder by zero returns the dividend,
    /// following RISC-V).
    RemU,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift right (amount taken modulo 64).
    Sru,
    /// Shift left (amount taken modulo 64).
    Slu,
    /// Arithmetic shift right (amount taken modulo 64).
    Srs,
    /// Signed less-than (0/1).
    LtS,
    /// Unsigned less-than (0/1).
    LtU,
    /// Equality (0/1).
    Eq,
}

impl BinOp {
    /// Evaluates the operator on two words.
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::MulHuu => ((u128::from(a) * u128::from(b)) >> 64) as u64,
            BinOp::DivU => a.checked_div(b).unwrap_or(u64::MAX),
            BinOp::RemU => a.checked_rem(b).unwrap_or(a),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Sru => a.wrapping_shr((b & 63) as u32),
            BinOp::Slu => a.wrapping_shl((b & 63) as u32),
            BinOp::Srs => ((a as i64) >> (b & 63)) as u64,
            BinOp::LtS => u64::from((a as i64) < (b as i64)),
            BinOp::LtU => u64::from(a < b),
            BinOp::Eq => u64::from(a == b),
        }
    }

    /// The C spelling of the operator (used by the pretty-printers).
    pub fn c_symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::MulHuu => "/*mulhuu*/",
            BinOp::DivU => "/",
            BinOp::RemU => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Sru => ">>",
            BinOp::Slu => "<<",
            BinOp::Srs => ">>",
            BinOp::LtS => "<",
            BinOp::LtU => "<",
            BinOp::Eq => "==",
        }
    }
}

/// Bedrock2 expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BExpr {
    /// A word literal.
    Lit(u64),
    /// A local variable.
    Var(String),
    /// A memory load of the given width at the address denoted by the
    /// operand; sub-word loads zero-extend.
    Load(AccessSize, Box<BExpr>),
    /// A load from a function-local inline table at a *byte* offset.
    InlineTable {
        /// Access width.
        size: AccessSize,
        /// Name of the table in the enclosing [`BFunction`].
        table: String,
        /// Byte offset into the table.
        index: Box<BExpr>,
    },
    /// A binary operation.
    Op(BinOp, Box<BExpr>, Box<BExpr>),
}

impl BExpr {
    /// A literal.
    pub fn lit(w: u64) -> Self {
        BExpr::Lit(w)
    }

    /// A variable reference.
    pub fn var<S: Into<String>>(name: S) -> Self {
        BExpr::Var(name.into())
    }

    /// A load.
    pub fn load(size: AccessSize, addr: BExpr) -> Self {
        BExpr::Load(size, Box::new(addr))
    }

    /// A binary operation.
    pub fn op(op: BinOp, a: BExpr, b: BExpr) -> Self {
        BExpr::Op(op, Box::new(a), Box::new(b))
    }

    /// An inline-table load.
    pub fn table<S: Into<String>>(size: AccessSize, table: S, index: BExpr) -> Self {
        BExpr::InlineTable {
            size,
            table: table.into(),
            index: Box::new(index),
        }
    }

    /// The variables read by this expression, in syntactic order.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.vars_into(&mut out);
        out
    }

    /// Whether this expression reads the variable `name` (allocation-free
    /// [`BExpr::vars`] membership).
    pub fn mentions(&self, name: &str) -> bool {
        match self {
            BExpr::Lit(_) => false,
            BExpr::Var(v) => v == name,
            BExpr::Load(_, e) | BExpr::InlineTable { index: e, .. } => e.mentions(name),
            BExpr::Op(_, a, b) => a.mentions(name) || b.mentions(name),
        }
    }

    fn vars_into(&self, out: &mut Vec<String>) {
        match self {
            BExpr::Lit(_) => {}
            BExpr::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            BExpr::Load(_, e) | BExpr::InlineTable { index: e, .. } => e.vars_into(out),
            BExpr::Op(_, a, b) => {
                a.vars_into(out);
                b.vars_into(out);
            }
        }
    }
}

/// Bedrock2 commands (statements).
#[derive(Debug, Clone, PartialEq)]
pub enum Cmd {
    /// No-op.
    Skip,
    /// `x = e`.
    Set(String, BExpr),
    /// Removes a local from scope (Bedrock2's `unset`).
    Unset(String),
    /// `store<size>(addr, value)`.
    Store(AccessSize, BExpr, BExpr),
    /// Sequential composition.
    Seq(Box<Cmd>, Box<Cmd>),
    /// `if (cond != 0) { then } else { else }`.
    If {
        /// Condition (nonzero = true).
        cond: BExpr,
        /// Then branch.
        then_: Box<Cmd>,
        /// Else branch.
        else_: Box<Cmd>,
    },
    /// `while (cond != 0) { body }`.
    While {
        /// Loop condition.
        cond: BExpr,
        /// Loop body.
        body: Box<Cmd>,
    },
    /// A call to another Bedrock2 function.
    Call {
        /// Variables receiving the return values.
        rets: Vec<String>,
        /// Callee name.
        func: String,
        /// Argument expressions.
        args: Vec<BExpr>,
    },
    /// An external interaction: the action and argument words are appended
    /// to the event trace together with the handler's response words.
    Interact {
        /// Variables receiving the response words.
        rets: Vec<String>,
        /// Action name.
        action: String,
        /// Argument expressions.
        args: Vec<BExpr>,
    },
    /// `stackalloc var[nbytes] { body }` — lexically scoped scratch space
    /// whose initial contents are unspecified.
    StackAlloc {
        /// Variable receiving the base address.
        var: String,
        /// Number of bytes (compile-time constant).
        nbytes: u64,
        /// Scope of the allocation.
        body: Box<Cmd>,
    },
}

impl Cmd {
    /// `x = e`.
    pub fn set<S: Into<String>>(var: S, e: BExpr) -> Self {
        Cmd::Set(var.into(), e)
    }

    /// Sequences a list of commands (right-nested; empty list is `Skip`).
    pub fn seq<I: IntoIterator<Item = Cmd>>(cmds: I) -> Self {
        let mut items: Vec<Cmd> = cmds.into_iter().collect();
        match items.len() {
            0 => Cmd::Skip,
            1 => items.pop().expect("len checked"),
            _ => {
                let mut acc = items.pop().expect("len checked");
                while let Some(c) = items.pop() {
                    acc = Cmd::Seq(Box::new(c), Box::new(acc));
                }
                acc
            }
        }
    }

    /// `store<size>(addr, value)`.
    pub fn store(size: AccessSize, addr: BExpr, value: BExpr) -> Self {
        Cmd::Store(size, addr, value)
    }

    /// `if` with both branches.
    pub fn if_(cond: BExpr, then_: Cmd, else_: Cmd) -> Self {
        Cmd::If {
            cond,
            then_: Box::new(then_),
            else_: Box::new(else_),
        }
    }

    /// `while`.
    pub fn while_(cond: BExpr, body: Cmd) -> Self {
        Cmd::While { cond, body: Box::new(body) }
    }

    /// The number of statement nodes (used for reporting compilation rates).
    pub fn statement_count(&self) -> usize {
        match self {
            Cmd::Skip => 0,
            Cmd::Set(..) | Cmd::Unset(..) | Cmd::Store(..) | Cmd::Call { .. } | Cmd::Interact { .. } => 1,
            Cmd::Seq(a, b) => a.statement_count() + b.statement_count(),
            Cmd::If { then_, else_, .. } => 1 + then_.statement_count() + else_.statement_count(),
            Cmd::While { body, .. } => 1 + body.statement_count(),
            Cmd::StackAlloc { body, .. } => 1 + body.statement_count(),
        }
    }

    /// All variables assigned anywhere in the command (targets of `Set`,
    /// call/interact returns, and stack-allocation binders).
    pub fn assigned_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.assigned_vars_into(&mut out);
        out
    }

    fn assigned_vars_into(&self, out: &mut Vec<String>) {
        let push = |v: &String, out: &mut Vec<String>| {
            if !out.contains(v) {
                out.push(v.clone());
            }
        };
        match self {
            Cmd::Skip | Cmd::Unset(_) | Cmd::Store(..) => {}
            Cmd::Set(v, _) => push(v, out),
            Cmd::Seq(a, b) => {
                a.assigned_vars_into(out);
                b.assigned_vars_into(out);
            }
            Cmd::If { then_, else_, .. } => {
                then_.assigned_vars_into(out);
                else_.assigned_vars_into(out);
            }
            Cmd::While { body, .. } => body.assigned_vars_into(out),
            Cmd::Call { rets, .. } | Cmd::Interact { rets, .. } => {
                for r in rets {
                    push(r, out);
                }
            }
            Cmd::StackAlloc { var, body, .. } => {
                push(var, out);
                body.assigned_vars_into(out);
            }
        }
    }
}

/// A function-local inline (constant) table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BTable {
    /// Table name, referenced by [`BExpr::InlineTable`].
    pub name: String,
    /// Raw bytes of the table in memory layout.
    pub data: Vec<u8>,
}

/// A Bedrock2 function.
#[derive(Debug, Clone, PartialEq)]
pub struct BFunction {
    /// Function name.
    pub name: String,
    /// Argument names, in order.
    pub args: Vec<String>,
    /// Names of the locals whose final values are returned, in order.
    pub rets: Vec<String>,
    /// The body.
    pub body: Cmd,
    /// Inline tables available to the body.
    pub tables: Vec<BTable>,
}

impl BFunction {
    /// Creates a function with no inline tables.
    pub fn new<N, A, R, SA, SR>(name: N, args: A, rets: R, body: Cmd) -> Self
    where
        N: Into<String>,
        A: IntoIterator<Item = SA>,
        SA: Into<String>,
        R: IntoIterator<Item = SR>,
        SR: Into<String>,
    {
        BFunction {
            name: name.into(),
            args: args.into_iter().map(Into::into).collect(),
            rets: rets.into_iter().map(Into::into).collect(),
            body,
            tables: Vec::new(),
        }
    }

    /// Attaches an inline table (builder style).
    #[must_use]
    pub fn with_table(mut self, table: BTable) -> Self {
        self.tables.push(table);
        self
    }

    /// Looks up an inline table by name.
    pub fn table(&self, name: &str) -> Option<&BTable> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Statement count of the body.
    pub fn statement_count(&self) -> usize {
        self.body.statement_count()
    }
}

/// A collection of Bedrock2 functions (the linking environment `σ`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    functions: BTreeMap<String, BFunction>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a function, replacing any previous one of the same name.
    pub fn insert(&mut self, f: BFunction) {
        self.functions.insert(f.name.clone(), f);
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&BFunction> {
        self.functions.get(name)
    }

    /// Iterates over the functions in name order.
    pub fn iter(&self) -> impl Iterator<Item = &BFunction> {
        self.functions.values()
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether the program has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_semantics_match_riscv_conventions() {
        assert_eq!(BinOp::DivU.eval(5, 0), u64::MAX);
        assert_eq!(BinOp::RemU.eval(5, 0), 5);
        assert_eq!(BinOp::MulHuu.eval(u64::MAX, u64::MAX), u64::MAX - 1);
        assert_eq!(BinOp::Srs.eval(u64::MAX, 63), u64::MAX);
        assert_eq!(BinOp::LtS.eval(u64::MAX, 0), 1); // -1 < 0 signed
        assert_eq!(BinOp::LtU.eval(u64::MAX, 0), 0);
        assert_eq!(BinOp::Slu.eval(1, 64), 1); // shift amounts mod 64
    }

    #[test]
    fn seq_builder_nests_right() {
        let c = Cmd::seq([
            Cmd::set("a", BExpr::lit(1)),
            Cmd::set("b", BExpr::lit(2)),
            Cmd::set("c", BExpr::lit(3)),
        ]);
        assert_eq!(c.statement_count(), 3);
        assert_eq!(Cmd::seq([]), Cmd::Skip);
    }

    #[test]
    fn expr_vars_deduplicate() {
        let e = BExpr::op(
            BinOp::Add,
            BExpr::var("x"),
            BExpr::op(BinOp::Mul, BExpr::var("x"), BExpr::var("y")),
        );
        assert_eq!(e.vars(), vec!["x".to_string(), "y".to_string()]);
        let e = BExpr::load(AccessSize::One, BExpr::table(AccessSize::One, "t", e));
        for name in ["x", "y", "t", "z"] {
            assert_eq!(e.mentions(name), e.vars().iter().any(|v| v == name), "{name}");
        }
    }

    #[test]
    fn assigned_vars_cover_all_targets() {
        let c = Cmd::seq([
            Cmd::set("a", BExpr::lit(0)),
            Cmd::while_(
                BExpr::var("a"),
                Cmd::Call { rets: vec!["b".into()], func: "f".into(), args: vec![] },
            ),
        ]);
        assert_eq!(c.assigned_vars(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn program_lookup() {
        let mut p = Program::new();
        p.insert(BFunction::new("f", ["x"], Vec::<String>::new(), Cmd::Skip));
        assert!(p.function("f").is_some());
        assert!(p.function("g").is_none());
        assert_eq!(p.len(), 1);
    }
}
