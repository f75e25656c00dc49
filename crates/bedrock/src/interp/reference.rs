//! The tree walker the resolved interpreter replaced, kept as its
//! reference model: locals in a name-keyed map, the body walked as the
//! syntax tree, functions and inline tables looked up by name at every
//! use. Slow and obviously faithful to the semantics in the parent
//! module's documentation; the properties in `super::tests` compare every
//! observable of [`super::Interpreter`] against it.

use super::{CtLog, ExecError, ExecState, ExternalHandler, Locals, LoopHook, TraceEvent};
use crate::ast::{BExpr, BFunction, Cmd, Program};
use crate::mem::Memory;

/// The reference interpreter over `program`.
pub struct Reference<'p> {
    program: &'p Program,
}

impl<'p> Reference<'p> {
    pub fn new(program: &'p Program) -> Self {
        Reference { program }
    }

    /// Calls `name`, returning its result words and its final locals.
    pub fn call(
        &self,
        name: &str,
        args: &[u64],
        state: &mut ExecState,
        externals: &mut dyn ExternalHandler,
        fuel: u64,
        hook: &mut dyn LoopHook,
    ) -> Result<(Vec<u64>, Locals), ExecError> {
        let mut fuel = fuel;
        self.call_internal(name, args, state, externals, &mut fuel, hook)
    }

    fn call_internal(
        &self,
        name: &str,
        args: &[u64],
        state: &mut ExecState,
        externals: &mut dyn ExternalHandler,
        fuel: &mut u64,
        hook: &mut dyn LoopHook,
    ) -> Result<(Vec<u64>, Locals), ExecError> {
        let f = self
            .program
            .function(name)
            .ok_or_else(|| ExecError::UnknownFunction(name.to_string()))?;
        if args.len() != f.args.len() {
            return Err(ExecError::ArityMismatch {
                name: name.to_string(),
                expected: f.args.len(),
                found: args.len(),
            });
        }
        if *fuel == 0 {
            return Err(ExecError::OutOfFuel);
        }
        *fuel -= 1;
        state.fuel_used += 1;
        let mut locals = Locals::new();
        for (p, a) in f.args.iter().zip(args) {
            locals.insert(p.clone(), *a);
        }
        self.exec(f, &f.body, &mut locals, state, externals, fuel, hook)?;
        let mut rets = Vec::with_capacity(f.rets.len());
        for r in &f.rets {
            rets.push(
                *locals
                    .get(r)
                    .ok_or_else(|| ExecError::UndefinedVariable(r.clone()))?,
            );
        }
        Ok((rets, locals))
    }

    fn eval(
        f: &BFunction,
        e: &BExpr,
        locals: &Locals,
        mem: &Memory,
        log: &mut Option<CtLog>,
    ) -> Result<u64, ExecError> {
        match e {
            BExpr::Lit(w) => Ok(*w),
            BExpr::Var(v) => locals
                .get(v)
                .copied()
                .ok_or_else(|| ExecError::UndefinedVariable(v.clone())),
            BExpr::Load(size, addr) => {
                let a = Self::eval(f, addr, locals, mem, log)?;
                CtLog::addr(log, a);
                Ok(mem.load(a, *size)?)
            }
            BExpr::InlineTable { size, table, index } => {
                let t = f
                    .table(table)
                    .ok_or_else(|| ExecError::UnknownTable(table.clone()))?;
                let off = Self::eval(f, index, locals, mem, log)?;
                CtLog::addr(log, off);
                let n = size.bytes();
                if off.checked_add(n).is_none_or(|end| end > t.data.len() as u64) {
                    return Err(ExecError::TableOutOfBounds {
                        table: table.clone(),
                        offset: off,
                        len: t.data.len() as u64,
                    });
                }
                let mut out = [0u8; 8];
                out[..n as usize]
                    .copy_from_slice(&t.data[off as usize..(off + n) as usize]);
                Ok(u64::from_le_bytes(out))
            }
            BExpr::Op(op, a, b) => {
                let va = Self::eval(f, a, locals, mem, log)?;
                let vb = Self::eval(f, b, locals, mem, log)?;
                Ok(op.eval(va, vb))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec(
        &self,
        f: &BFunction,
        cmd: &Cmd,
        locals: &mut Locals,
        state: &mut ExecState,
        externals: &mut dyn ExternalHandler,
        fuel: &mut u64,
        hook: &mut dyn LoopHook,
    ) -> Result<(), ExecError> {
        match cmd {
            Cmd::Skip => Ok(()),
            Cmd::Set(v, e) => {
                let w = Self::eval(f, e, locals, &state.mem, &mut state.ct_log)?;
                locals.insert(v.clone(), w);
                Ok(())
            }
            Cmd::Unset(v) => {
                locals.remove(v);
                Ok(())
            }
            Cmd::Store(size, addr, val) => {
                let a = Self::eval(f, addr, locals, &state.mem, &mut state.ct_log)?;
                let w = Self::eval(f, val, locals, &state.mem, &mut state.ct_log)?;
                CtLog::addr(&mut state.ct_log, a);
                state.mem.store(a, *size, w)?;
                Ok(())
            }
            Cmd::Seq(a, b) => {
                self.exec(f, a, locals, state, externals, fuel, hook)?;
                self.exec(f, b, locals, state, externals, fuel, hook)
            }
            Cmd::If { cond, then_, else_ } => {
                let c = Self::eval(f, cond, locals, &state.mem, &mut state.ct_log)?;
                CtLog::branch(&mut state.ct_log, c != 0);
                if c != 0 {
                    self.exec(f, then_, locals, state, externals, fuel, hook)
                } else {
                    self.exec(f, else_, locals, state, externals, fuel, hook)
                }
            }
            Cmd::While { cond, body } => loop {
                hook.at_loop_head(&f.name, cond, locals, &state.mem)
                    .map_err(ExecError::HookFailure)?;
                let c = Self::eval(f, cond, locals, &state.mem, &mut state.ct_log)?;
                CtLog::branch(&mut state.ct_log, c != 0);
                if c == 0 {
                    return Ok(());
                }
                if *fuel == 0 {
                    return Err(ExecError::OutOfFuel);
                }
                *fuel -= 1;
                state.fuel_used += 1;
                self.exec(f, body, locals, state, externals, fuel, hook)?;
            },
            Cmd::Call { rets, func, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(Self::eval(f, a, locals, &state.mem, &mut state.ct_log)?);
                }
                let (out, _) = self.call_internal(func, &argv, state, externals, fuel, hook)?;
                if out.len() != rets.len() {
                    return Err(ExecError::ArityMismatch {
                        name: func.clone(),
                        expected: rets.len(),
                        found: out.len(),
                    });
                }
                for (r, w) in rets.iter().zip(out) {
                    locals.insert(r.clone(), w);
                }
                Ok(())
            }
            Cmd::Interact { rets, action, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(Self::eval(f, a, locals, &state.mem, &mut state.ct_log)?);
                }
                let out = externals
                    .interact(action, &argv, &mut state.mem)
                    .map_err(ExecError::External)?;
                if out.len() != rets.len() {
                    return Err(ExecError::ArityMismatch {
                        name: action.clone(),
                        expected: rets.len(),
                        found: out.len(),
                    });
                }
                state.trace.push(TraceEvent {
                    action: action.clone(),
                    args: argv,
                    rets: out.clone(),
                });
                for (r, w) in rets.iter().zip(out) {
                    locals.insert(r.clone(), w);
                }
                Ok(())
            }
            Cmd::StackAlloc { var, nbytes, body } => {
                let base = state.mem.alloc(vec![state.stack_poison; *nbytes as usize]);
                locals.insert(var.clone(), base);
                let result = self.exec(f, body, locals, state, externals, fuel, hook);
                match state.mem.dealloc(base) {
                    Some(_) => result,
                    None => Err(ExecError::StackDiscipline(format!(
                        "stack region {base:#x} was freed by the body"
                    ))),
                }
            }
        }
    }
}
