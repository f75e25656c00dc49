//! Big-step interpreter for Bedrock2 (the paper's `σ_T`).
//!
//! Execution is fuel-indexed: every loop iteration and function call
//! consumes one unit of fuel, and running out of fuel is an error. A
//! successful run within finite fuel therefore witnesses termination, which
//! is how this crate mirrors Bedrock2's total-correctness semantics ("the
//! semantics only give meaning to terminating loops", Box 2).
//!
//! [`Interpreter::of`] resolves each function once before anything runs:
//! every local becomes a slot of a per-call frame, every `Seq` chain one
//! flat block (with `Skip` dropped), every inline table and callee its
//! definition. Resolution is a pure renaming. It checks nothing: an
//! unknown table or callee and an unbound local fail only when executed,
//! with the error the tree walker gave, and evaluation order, fuel, the
//! [`CtLog`] and the loop hook are the tree walker's. That tree walker is
//! kept as a test-only reference, and a property test compares every
//! observable of the two on random bodies.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use crate::ast::{AccessSize, BExpr, BFunction, BTable, BinOp, Cmd, Program};
use crate::mem::{MemAccessError, Memory};

/// An entry of the event trace: one external interaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Action name.
    pub action: String,
    /// Argument words passed to the environment.
    pub args: Vec<u64>,
    /// Response words returned by the environment.
    pub rets: Vec<u64>,
}

/// Handler giving meaning to `Interact` commands.
///
/// The handler plays the role of the external world in Bedrock2's semantics:
/// it receives the action name and argument words and returns the response
/// words (which the interpreter then records on the trace).
pub trait ExternalHandler {
    /// Performs the interaction.
    ///
    /// # Errors
    ///
    /// Returns a message when the action is unknown or the environment
    /// cannot satisfy it (e.g. reading from an exhausted input stream).
    fn interact(&mut self, action: &str, args: &[u64], mem: &mut Memory)
        -> Result<Vec<u64>, String>;
}

/// An [`ExternalHandler`] that rejects every interaction; suitable for pure
/// programs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoExternals;

impl ExternalHandler for NoExternals {
    fn interact(
        &mut self,
        action: &str,
        _args: &[u64],
        _mem: &mut Memory,
    ) -> Result<Vec<u64>, String> {
        Err(format!("no external handler for action `{action}`"))
    }
}

/// Observer invoked each time a `while` loop is about to test its
/// condition.
///
/// The trusted checker in `rupicola-core` uses this to validate inferred
/// loop invariants (§3.4.2) *at runtime*: at every loop head it recomputes
/// the closed-form partial-execution term for the current iteration and
/// compares it against the actual locals and memory.
pub trait LoopHook {
    /// Called at a loop head, before the condition is evaluated.
    ///
    /// # Errors
    ///
    /// Returning an error aborts execution (reported as
    /// [`ExecError::HookFailure`]).
    fn at_loop_head(
        &mut self,
        function: &str,
        cond: &BExpr,
        locals: &dyn LocalsView,
        mem: &Memory,
    ) -> Result<(), String>;
}

/// A [`LoopHook`] that observes nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoHook;

impl LoopHook for NoHook {
    fn at_loop_head(
        &mut self,
        _function: &str,
        _cond: &BExpr,
        _locals: &dyn LocalsView,
        _mem: &Memory,
    ) -> Result<(), String> {
        Ok(())
    }
}

/// A queue-backed handler for the `io_read` / `io_write` / `writer_tell`
/// actions that Rupicola's monadic extensions compile to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct QueueIo {
    /// Words served to `io_read`, front first.
    pub input: std::collections::VecDeque<u64>,
}

impl QueueIo {
    /// Creates a handler with the given input stream.
    pub fn new<I: IntoIterator<Item = u64>>(input: I) -> Self {
        QueueIo { input: input.into_iter().collect() }
    }
}

impl ExternalHandler for QueueIo {
    fn interact(
        &mut self,
        action: &str,
        args: &[u64],
        _mem: &mut Memory,
    ) -> Result<Vec<u64>, String> {
        match action {
            "io_read" => {
                let w = self.input.pop_front().ok_or("io input exhausted")?;
                Ok(vec![w])
            }
            "io_write" | "writer_tell" => {
                if args.len() != 1 {
                    return Err(format!("{action} expects 1 argument"));
                }
                Ok(vec![])
            }
            other => Err(format!("no external handler for action `{other}`")),
        }
    }
}

/// Errors of Bedrock2 execution (stuck states of the semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Fuel exhausted: the execution did not terminate within the bound.
    OutOfFuel,
    /// A read of an unbound local.
    UndefinedVariable(String),
    /// An invalid memory access.
    Memory(MemAccessError),
    /// A call to an unknown function.
    UnknownFunction(String),
    /// A reference to an unknown inline table.
    UnknownTable(String),
    /// An inline-table access out of bounds.
    TableOutOfBounds {
        /// Table name.
        table: String,
        /// Byte offset used.
        offset: u64,
        /// Table length in bytes.
        len: u64,
    },
    /// Call or interact arity mismatch.
    ArityMismatch {
        /// What was called.
        name: String,
        /// Expected count.
        expected: usize,
        /// Provided count.
        found: usize,
    },
    /// An external interaction failed.
    External(String),
    /// A `stackalloc` body freed or resized its own allocation.
    StackDiscipline(String),
    /// A loop-head hook (e.g. an invariant check) rejected the state.
    HookFailure(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfFuel => write!(f, "out of fuel (possible nontermination)"),
            ExecError::UndefinedVariable(v) => write!(f, "undefined local `{v}`"),
            ExecError::Memory(e) => write!(f, "{e}"),
            ExecError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            ExecError::UnknownTable(n) => write!(f, "unknown inline table `{n}`"),
            ExecError::TableOutOfBounds { table, offset, len } => {
                write!(f, "inline table `{table}`: offset {offset} out of bounds for {len} bytes")
            }
            ExecError::ArityMismatch { name, expected, found } => {
                write!(f, "`{name}` expects {expected} values, got {found}")
            }
            ExecError::External(m) => write!(f, "external interaction failed: {m}"),
            ExecError::StackDiscipline(m) => write!(f, "stack discipline violation: {m}"),
            ExecError::HookFailure(m) => write!(f, "loop hook failed: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<MemAccessError> for ExecError {
    fn from(e: MemAccessError) -> Self {
        ExecError::Memory(e)
    }
}

/// A microarchitectural observation log: what a timing attacker sees.
///
/// The standard constant-time leakage model exposes the sequence of
/// branch decisions (control flow drives the instruction cache and the
/// branch predictor) and the sequence of memory addresses touched (the
/// data cache), but not the *values* read or written. Two executions with
/// identical logs are indistinguishable to such an attacker; the
/// secret-independence property tested in the workspace root is exactly
/// "logs agree across inputs differing only in secrets".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CtLog {
    /// Every branch decision, in evaluation order: `If` conditions and
    /// each `While` condition test (`true` = taken / loop entered).
    pub branches: Vec<bool>,
    /// Every address touched, in evaluation order: load addresses, store
    /// addresses, and inline-table byte offsets.
    pub addrs: Vec<u64>,
}

impl CtLog {
    fn branch(log: &mut Option<CtLog>, taken: bool) {
        if let Some(log) = log.as_mut() {
            log.branches.push(taken);
        }
    }

    fn addr(log: &mut Option<CtLog>, a: u64) {
        if let Some(log) = log.as_mut() {
            log.addrs.push(a);
        }
    }
}

/// The mutable machine state threaded through execution: memory plus the
/// event trace. (Locals are per-call and live in the interpreter frames.)
#[derive(Debug)]
pub struct ExecState {
    /// The heap.
    pub mem: Memory,
    /// The event trace, oldest first.
    pub trace: Vec<TraceEvent>,
    /// Byte used to fill fresh `stackalloc` regions. Bedrock2 leaves their
    /// initial contents unspecified; the validator runs programs under two
    /// different poisons to detect code that depends on them.
    pub stack_poison: u8,
    /// Fuel units consumed so far (one per function call and per loop
    /// iteration). Callers that retry with escalated fuel read this to
    /// distinguish "needed a little more" from "diverges".
    pub fuel_used: u64,
    /// When `Some`, every branch decision and memory address is recorded
    /// (see [`CtLog`]). `None` by default: recording is opt-in so the
    /// hot differential paths pay nothing.
    pub ct_log: Option<CtLog>,
}

impl Default for ExecState {
    fn default() -> Self {
        ExecState::new(Memory::new())
    }
}

impl ExecState {
    /// Creates a state with the given memory, an empty trace and the
    /// default poison byte `0xAA`.
    pub fn new(mem: Memory) -> Self {
        ExecState { mem, trace: Vec::new(), stack_poison: 0xAA, fuel_used: 0, ct_log: None }
    }

    /// Sets the stack poison byte (builder style).
    #[must_use]
    pub fn with_stack_poison(mut self, poison: u8) -> Self {
        self.stack_poison = poison;
        self
    }

    /// Enables branch/address recording (builder style).
    #[must_use]
    pub fn with_ct_log(mut self) -> Self {
        self.ct_log = Some(CtLog::default());
        self
    }
}

/// Per-call locals map.
pub type Locals = HashMap<String, u64>;

/// Read access to one frame's locals by name: what a [`LoopHook`] sees.
pub trait LocalsView {
    /// The value of local `name`, or `None` when it is unbound.
    fn local(&self, name: &str) -> Option<u64>;
}

impl LocalsView for Locals {
    fn local(&self, name: &str) -> Option<u64> {
        self.get(name).copied()
    }
}

/// A local's index into its function's frame.
type Slot = u32;

/// One call's locals, by slot; `None` is unbound.
type Frame = Vec<Option<u64>>;

/// An expression's index into its function's expression arena.
type ExprId = u32;

/// A [`BExpr`] node with its locals resolved to slots, its inline table to
/// its definition and its operands to arena indices.
#[derive(Debug, Clone)]
enum Expr<'p> {
    Lit(u64),
    Var(Slot),
    Load(AccessSize, ExprId),
    Table {
        size: AccessSize,
        /// The referenced name, for the error when `table` is `None`.
        name: &'p str,
        table: Option<&'p BTable>,
        index: ExprId,
    },
    Op(BinOp, ExprId, ExprId),
}

/// A [`Cmd`] other than `Skip` and `Seq`, resolved: a body is a block of
/// these.
#[derive(Debug, Clone)]
enum Stmt<'p> {
    Set(Slot, ExprId),
    Unset(Slot),
    Store(AccessSize, ExprId, ExprId),
    If { cond: ExprId, then_: Vec<Stmt<'p>>, else_: Vec<Stmt<'p>> },
    While {
        cond: ExprId,
        /// The condition as written, for the loop hook.
        source: &'p BExpr,
        body: Vec<Stmt<'p>>,
    },
    Call {
        rets: Vec<Slot>,
        /// The callee's index in the interpreter, `None` when unknown.
        callee: Option<usize>,
        name: &'p str,
        args: Vec<ExprId>,
    },
    Interact { rets: Vec<Slot>, action: &'p str, args: Vec<ExprId> },
    StackAlloc { var: Slot, nbytes: u64, body: Vec<Stmt<'p>> },
}

/// A function resolved for execution.
#[derive(Debug, Clone)]
struct Resolved<'p> {
    name: &'p str,
    /// Every local the function names, by slot.
    names: Vec<&'p str>,
    /// The inverse of `names`.
    slots: HashMap<&'p str, Slot>,
    params: Vec<Slot>,
    rets: Vec<Slot>,
    /// Every expression node of the body.
    exprs: Vec<Expr<'p>>,
    body: Vec<Stmt<'p>>,
}

impl<'p> Resolved<'p> {
    fn new(f: &'p BFunction, callees: &HashMap<&'p str, usize>) -> Self {
        let mut r =
            Resolver { f, callees, names: Vec::new(), slots: HashMap::new(), exprs: Vec::new() };
        let params = r.slots(&f.args);
        let rets = r.slots(&f.rets);
        let body = r.block(&f.body);
        Resolved { name: &f.name, names: r.names, slots: r.slots, params, rets, exprs: r.exprs, body }
    }

    fn undefined(&self, slot: Slot) -> ExecError {
        ExecError::UndefinedVariable(self.names[slot as usize].to_string())
    }

    /// The return words of a finished `frame`.
    fn rets_of(&self, frame: &[Option<u64>]) -> Result<Vec<u64>, ExecError> {
        self.rets.iter().map(|&r| frame[r as usize].ok_or_else(|| self.undefined(r))).collect()
    }

    /// A finished `frame` as a name-keyed map of its bound locals.
    fn locals_of(&self, frame: &[Option<u64>]) -> Locals {
        self.names
            .iter()
            .zip(frame)
            .filter_map(|(name, w)| w.map(|w| ((*name).to_string(), w)))
            .collect()
    }
}

/// Resolution of one function's body.
struct Resolver<'a, 'p> {
    f: &'p BFunction,
    callees: &'a HashMap<&'p str, usize>,
    names: Vec<&'p str>,
    slots: HashMap<&'p str, Slot>,
    exprs: Vec<Expr<'p>>,
}

impl<'p> Resolver<'_, 'p> {
    fn slot(&mut self, name: &'p str) -> Slot {
        let names = &mut self.names;
        *self.slots.entry(name).or_insert_with(|| {
            names.push(name);
            Slot::try_from(names.len() - 1).expect("fewer than 2^32 locals")
        })
    }

    fn slots(&mut self, names: &'p [String]) -> Vec<Slot> {
        names.iter().map(|v| self.slot(v)).collect()
    }

    fn expr(&mut self, e: &'p BExpr) -> ExprId {
        let node = match e {
            BExpr::Lit(w) => Expr::Lit(*w),
            BExpr::Var(v) => Expr::Var(self.slot(v)),
            BExpr::Load(size, addr) => Expr::Load(*size, self.expr(addr)),
            BExpr::InlineTable { size, table, index } => Expr::Table {
                size: *size,
                name: table,
                table: self.f.table(table),
                index: self.expr(index),
            },
            BExpr::Op(op, a, b) => Expr::Op(*op, self.expr(a), self.expr(b)),
        };
        self.exprs.push(node);
        ExprId::try_from(self.exprs.len() - 1).expect("fewer than 2^32 expression nodes")
    }

    fn exprs(&mut self, es: &'p [BExpr]) -> Vec<ExprId> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    fn block(&mut self, cmd: &'p Cmd) -> Vec<Stmt<'p>> {
        let mut out = Vec::new();
        self.block_into(cmd, &mut out);
        out
    }

    /// Appends `cmd`'s statements to `out`. A `Seq` chain's right spine is
    /// walked in a loop, so a long body does not recurse per statement.
    fn block_into(&mut self, mut cmd: &'p Cmd, out: &mut Vec<Stmt<'p>>) {
        loop {
            let stmt = match cmd {
                Cmd::Skip => return,
                Cmd::Seq(a, b) => {
                    self.block_into(a, out);
                    cmd = b;
                    continue;
                }
                Cmd::Set(v, e) => Stmt::Set(self.slot(v), self.expr(e)),
                Cmd::Unset(v) => Stmt::Unset(self.slot(v)),
                Cmd::Store(size, addr, val) => Stmt::Store(*size, self.expr(addr), self.expr(val)),
                Cmd::If { cond, then_, else_ } => Stmt::If {
                    cond: self.expr(cond),
                    then_: self.block(then_),
                    else_: self.block(else_),
                },
                Cmd::While { cond, body } => {
                    Stmt::While { cond: self.expr(cond), source: cond, body: self.block(body) }
                }
                Cmd::Call { rets, func, args } => Stmt::Call {
                    rets: self.slots(rets),
                    callee: self.callees.get(func.as_str()).copied(),
                    name: func,
                    args: self.exprs(args),
                },
                Cmd::Interact { rets, action, args } => {
                    Stmt::Interact { rets: self.slots(rets), action, args: self.exprs(args) }
                }
                Cmd::StackAlloc { var, nbytes, body } => {
                    Stmt::StackAlloc { var: self.slot(var), nbytes: *nbytes, body: self.block(body) }
                }
            };
            out.push(stmt);
            return;
        }
    }
}

/// The Bedrock2 interpreter, over functions it borrows and resolves once
/// (see the module documentation).
#[derive(Debug, Clone)]
pub struct Interpreter<'p> {
    functions: Vec<Resolved<'p>>,
    by_name: HashMap<&'p str, usize>,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter over `program`'s functions.
    pub fn new(program: &'p Program) -> Self {
        Self::of(program.iter())
    }

    /// Creates an interpreter over `functions`. Of two functions with one
    /// name the later wins, as with [`Program::insert`].
    pub fn of<I: IntoIterator<Item = &'p BFunction>>(functions: I) -> Self {
        let mut by_name = HashMap::new();
        let mut sources: Vec<&'p BFunction> = Vec::new();
        for f in functions {
            match by_name.entry(f.name.as_str()) {
                Entry::Occupied(e) => sources[*e.get()] = f,
                Entry::Vacant(e) => {
                    e.insert(sources.len());
                    sources.push(f);
                }
            }
        }
        let functions = sources.into_iter().map(|f| Resolved::new(f, &by_name)).collect();
        Interpreter { functions, by_name }
    }

    /// Calls a function by name with argument words, returning its result
    /// words.
    ///
    /// # Errors
    ///
    /// Any stuck state of the semantics ([`ExecError`]), including fuel
    /// exhaustion.
    pub fn call(
        &self,
        name: &str,
        args: &[u64],
        state: &mut ExecState,
        externals: &mut dyn ExternalHandler,
        fuel: u64,
    ) -> Result<Vec<u64>, ExecError> {
        self.call_with_hook(name, args, state, externals, fuel, &mut NoHook)
    }

    /// Like [`Interpreter::call`], but invokes `hook` at every loop head.
    ///
    /// # Errors
    ///
    /// As [`Interpreter::call`]; additionally fails with
    /// [`ExecError::HookFailure`] when the hook rejects a state.
    pub fn call_with_hook(
        &self,
        name: &str,
        args: &[u64],
        state: &mut ExecState,
        externals: &mut dyn ExternalHandler,
        fuel: u64,
        hook: &mut dyn LoopHook,
    ) -> Result<Vec<u64>, ExecError> {
        let (f, frame) = self.run(name, args, state, externals, fuel, hook)?;
        f.rets_of(&frame)
    }

    /// Like [`Interpreter::call`], but also returns the top frame's final
    /// locals map. Differential harnesses (the optimization validator, the
    /// equivalence battery) use this to compare *all* observable state of
    /// two bodies, not just the declared returns.
    ///
    /// # Errors
    ///
    /// As [`Interpreter::call`].
    pub fn call_with_locals(
        &self,
        name: &str,
        args: &[u64],
        state: &mut ExecState,
        externals: &mut dyn ExternalHandler,
        fuel: u64,
    ) -> Result<(Vec<u64>, Locals), ExecError> {
        let (f, frame) = self.run(name, args, state, externals, fuel, &mut NoHook)?;
        Ok((f.rets_of(&frame)?, f.locals_of(&frame)))
    }

    /// Runs `name` on `args`, returning the function and its final frame.
    fn run(
        &self,
        name: &str,
        args: &[u64],
        state: &mut ExecState,
        externals: &mut dyn ExternalHandler,
        fuel: u64,
        hook: &mut dyn LoopHook,
    ) -> Result<(&Resolved<'p>, Frame), ExecError> {
        let f = self
            .by_name
            .get(name)
            .map(|&i| &self.functions[i])
            .ok_or_else(|| ExecError::UnknownFunction(name.to_string()))?;
        let frame = Machine { interp: self, state, externals, hook, fuel }.invoke(f, args)?;
        Ok((f, frame))
    }
}

/// One run's mutable context: the machine state, the environment, the
/// hook and the fuel left.
struct Machine<'r, 'p> {
    interp: &'r Interpreter<'p>,
    state: &'r mut ExecState,
    externals: &'r mut dyn ExternalHandler,
    hook: &'r mut dyn LoopHook,
    fuel: u64,
}

impl<'r, 'p> Machine<'r, 'p> {
    /// Spends one unit of fuel.
    fn tick(&mut self) -> Result<(), ExecError> {
        if self.fuel == 0 {
            return Err(ExecError::OutOfFuel);
        }
        self.fuel -= 1;
        self.state.fuel_used += 1;
        Ok(())
    }

    /// Calls `f` on `args`, returning its final frame.
    fn invoke(&mut self, f: &Resolved<'p>, args: &[u64]) -> Result<Frame, ExecError> {
        same_arity(f.name, f.params.len(), args.len())?;
        self.tick()?;
        let mut frame = vec![None; f.names.len()];
        for (&p, &a) in f.params.iter().zip(args) {
            frame[p as usize] = Some(a);
        }
        self.block(f, &f.body, &mut frame)?;
        Ok(frame)
    }

    fn eval(&mut self, f: &Resolved<'p>, e: ExprId, frame: &[Option<u64>]) -> Result<u64, ExecError> {
        eval(f, e, frame, &self.state.mem, &mut self.state.ct_log)
    }

    fn eval_all(
        &mut self,
        f: &Resolved<'p>,
        es: &[ExprId],
        frame: &[Option<u64>],
    ) -> Result<Vec<u64>, ExecError> {
        es.iter().map(|&e| self.eval(f, e, frame)).collect()
    }

    fn block(&mut self, f: &Resolved<'p>, block: &[Stmt<'p>], frame: &mut Frame) -> Result<(), ExecError> {
        block.iter().try_for_each(|s| self.stmt(f, s, frame))
    }

    fn stmt(&mut self, f: &Resolved<'p>, stmt: &Stmt<'p>, frame: &mut Frame) -> Result<(), ExecError> {
        match stmt {
            Stmt::Set(v, e) => frame[*v as usize] = Some(self.eval(f, *e, frame)?),
            Stmt::Unset(v) => frame[*v as usize] = None,
            Stmt::Store(size, addr, val) => {
                let a = self.eval(f, *addr, frame)?;
                let w = self.eval(f, *val, frame)?;
                CtLog::addr(&mut self.state.ct_log, a);
                self.state.mem.store(a, *size, w)?;
            }
            Stmt::If { cond, then_, else_ } => {
                let c = self.eval(f, *cond, frame)?;
                CtLog::branch(&mut self.state.ct_log, c != 0);
                self.block(f, if c != 0 { then_ } else { else_ }, frame)?;
            }
            Stmt::While { cond, source, body } => loop {
                self.hook
                    .at_loop_head(f.name, source, &FrameView { f, frame }, &self.state.mem)
                    .map_err(ExecError::HookFailure)?;
                let c = self.eval(f, *cond, frame)?;
                CtLog::branch(&mut self.state.ct_log, c != 0);
                if c == 0 {
                    break;
                }
                self.tick()?;
                self.block(f, body, frame)?;
            },
            Stmt::Call { rets, callee, name, args } => {
                let argv = self.eval_all(f, args, frame)?;
                let interp = self.interp;
                let g = callee
                    .map(|i| &interp.functions[i])
                    .ok_or_else(|| ExecError::UnknownFunction((*name).to_string()))?;
                let out = g.rets_of(&self.invoke(g, &argv)?)?;
                same_arity(name, rets.len(), out.len())?;
                for (&r, w) in rets.iter().zip(out) {
                    frame[r as usize] = Some(w);
                }
            }
            Stmt::Interact { rets, action, args } => {
                let argv = self.eval_all(f, args, frame)?;
                let out = self
                    .externals
                    .interact(action, &argv, &mut self.state.mem)
                    .map_err(ExecError::External)?;
                same_arity(action, rets.len(), out.len())?;
                for (&r, &w) in rets.iter().zip(&out) {
                    frame[r as usize] = Some(w);
                }
                self.state.trace.push(TraceEvent { action: (*action).to_string(), args: argv, rets: out });
            }
            Stmt::StackAlloc { var, nbytes, body } => {
                // Bedrock2 leaves the initial contents unspecified; the
                // poison byte makes accidental dependence detectable.
                let base = self.state.mem.alloc(vec![self.state.stack_poison; *nbytes as usize]);
                frame[*var as usize] = Some(base);
                let result = self.block(f, body, frame);
                if self.state.mem.dealloc(base).is_none() {
                    return Err(ExecError::StackDiscipline(format!(
                        "stack region {base:#x} was freed by the body"
                    )));
                }
                result?;
            }
        }
        Ok(())
    }
}

/// Fails with [`ExecError::ArityMismatch`] unless `found` is `expected`.
fn same_arity(name: &str, expected: usize, found: usize) -> Result<(), ExecError> {
    if found != expected {
        return Err(ExecError::ArityMismatch { name: name.to_string(), expected, found });
    }
    Ok(())
}

/// Evaluates `e` in `f`'s `frame`, recording load addresses and table
/// offsets into `log` when enabled.
fn eval(
    f: &Resolved<'_>,
    e: ExprId,
    frame: &[Option<u64>],
    mem: &Memory,
    log: &mut Option<CtLog>,
) -> Result<u64, ExecError> {
    match &f.exprs[e as usize] {
        Expr::Lit(w) => Ok(*w),
        Expr::Var(v) => frame[*v as usize].ok_or_else(|| f.undefined(*v)),
        Expr::Load(size, addr) => {
            let a = eval(f, *addr, frame, mem, log)?;
            CtLog::addr(log, a);
            Ok(mem.load(a, *size)?)
        }
        Expr::Table { size, name, table, index } => {
            let t = table.ok_or_else(|| ExecError::UnknownTable((*name).to_string()))?;
            let off = eval(f, *index, frame, mem, log)?;
            CtLog::addr(log, off);
            let n = size.bytes();
            if off.checked_add(n).is_none_or(|end| end > t.data.len() as u64) {
                return Err(ExecError::TableOutOfBounds {
                    table: (*name).to_string(),
                    offset: off,
                    len: t.data.len() as u64,
                });
            }
            let mut out = [0u8; 8];
            out[..n as usize].copy_from_slice(&t.data[off as usize..(off + n) as usize]);
            Ok(u64::from_le_bytes(out))
        }
        Expr::Op(op, a, b) => {
            let va = eval(f, *a, frame, mem, log)?;
            let vb = eval(f, *b, frame, mem, log)?;
            Ok(op.eval(va, vb))
        }
    }
}

/// A frame as the loop hook sees it.
struct FrameView<'a, 'p> {
    f: &'a Resolved<'p>,
    frame: &'a [Option<u64>],
}

impl LocalsView for FrameView<'_, '_> {
    fn local(&self, name: &str) -> Option<u64> {
        self.f.slots.get(name).and_then(|&s| self.frame[s as usize])
    }
}

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;
