//! Big-step reference semantics of the source language (the paper's `σ_S`).
//!
//! Evaluation is pure except for the explicit effect channels collected in a
//! [`World`]: a nondeterminism [`Oracle`], an input stream and event trace
//! for the io monad, writer output, and free-monad effect handlers. These are
//! the *extensional* effects of §3.4.1; intensional effects (mutation, stack
//! allocation) have no footprint here — `ListArray.put` is a pure
//! replacement.

use crate::ast::{Expr, Ident, PrimOp, TableDef};
use crate::externs::ExternRegistry;
use crate::value::{ElemKind, Value};
use crate::Model;
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Evaluation environment: variable bindings.
///
/// [`eval`] borrows it mutably but hands it back exactly as it found it,
/// on success and on error alike: a binding construct (`Let`, `Bind`, the
/// map and fold loops) binds its names in place and, on exit, restores
/// each shadowed value or removes the name. No binder copies the map, so
/// evaluating a let-spine is linear in its length.
pub type Env = HashMap<Ident, Value>;

/// Errors of the reference semantics.
///
/// The source language is partial: out-of-bounds accesses, division by zero
/// and natural-number overflow have no defined value. Rupicola turns these
/// into compilation side conditions; at the semantics level they are errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable was not bound in the environment.
    UnboundVariable(Ident),
    /// A primitive or construct received a value of the wrong kind.
    TypeMismatch {
        /// What the construct expected.
        expected: &'static str,
        /// What it received.
        found: &'static str,
        /// Which construct complained.
        context: &'static str,
    },
    /// A list or table access was out of bounds.
    OutOfBounds {
        /// The index used.
        idx: u64,
        /// The length of the collection.
        len: u64,
        /// Which construct complained.
        context: &'static str,
    },
    /// Unsigned division or remainder by zero.
    DivisionByZero,
    /// A natural-number operation exceeded the `u64` model of `nat`.
    NatOverflow,
    /// `TableGet` referenced a table missing from the model.
    UnknownTable(Ident),
    /// `Extern` referenced an unregistered operation.
    UnknownExtern(String),
    /// `FreeOp` referenced an unregistered effect handler.
    UnknownEffect(String),
    /// An extern was applied to the wrong number of arguments.
    ArityMismatch {
        /// The operation.
        tag: String,
        /// Its declared arity.
        expected: usize,
        /// The number of arguments supplied.
        found: usize,
    },
    /// `IoRead` on an exhausted input stream.
    InputExhausted,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound variable `{v}`"),
            EvalError::TypeMismatch { expected, found, context } => {
                write!(f, "type mismatch in {context}: expected {expected}, found {found}")
            }
            EvalError::OutOfBounds { idx, len, context } => {
                write!(f, "index {idx} out of bounds for length {len} in {context}")
            }
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::NatOverflow => write!(f, "natural-number overflow"),
            EvalError::UnknownTable(t) => write!(f, "unknown inline table `{t}`"),
            EvalError::UnknownExtern(t) => write!(f, "unknown extern operation `{t}`"),
            EvalError::UnknownEffect(t) => write!(f, "unknown effect handler `{t}`"),
            EvalError::ArityMismatch { tag, expected, found } => {
                write!(f, "`{tag}` expects {expected} arguments, got {found}")
            }
            EvalError::InputExhausted => write!(f, "io input stream exhausted"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Supplier of nondeterministic choices (the semantics of the nondet monad).
///
/// Running the same program against different oracles explores different
/// members of the nondeterministic result set; the validator in
/// `rupicola-core` uses this to check that compiled code refines the set and,
/// for the "provably deterministic" stack-allocation lemma of §4.1.2, that
/// the result does not depend on the oracle at all.
pub trait Oracle {
    /// An arbitrary byte.
    fn nondet_byte(&mut self) -> u8;
    /// An arbitrary word strictly below `bound` (callers guarantee
    /// `bound > 0`).
    fn nondet_word(&mut self, bound: u64) -> u64;
}

/// The all-zeros oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroOracle;

impl Oracle for ZeroOracle {
    fn nondet_byte(&mut self) -> u8 {
        0
    }
    fn nondet_word(&mut self, _bound: u64) -> u64 {
        0
    }
}

/// A small deterministic pseudo-random oracle (an xorshift generator), for
/// exploring the nondeterministic space reproducibly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeededOracle {
    state: u64,
}

impl SeededOracle {
    /// Creates an oracle from a seed.
    pub fn new(seed: u64) -> Self {
        SeededOracle { state: seed | 1 }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

impl Oracle for SeededOracle {
    fn nondet_byte(&mut self) -> u8 {
        (self.next() & 0xff) as u8
    }
    fn nondet_word(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next() % bound
        }
    }
}

/// An externally observable event (the analog of Bedrock2's event trace).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A word read from the environment.
    Read(u64),
    /// A word written to the environment.
    Write(u64),
    /// A free-monad command with its argument and result words.
    Ext {
        /// Command tag.
        tag: String,
        /// Argument words.
        args: Vec<u64>,
        /// Words recorded by the handler.
        rets: Vec<u64>,
    },
}

/// The effect channels threaded through evaluation.
pub struct World {
    /// Nondeterminism supplier.
    pub oracle: Box<dyn Oracle + Send>,
    /// Input stream for `IoRead`.
    pub input: VecDeque<u64>,
    /// Trace of observable events (io + free-monad commands), in order.
    pub events: Vec<Event>,
    /// Writer-monad accumulated output.
    pub writer: Vec<u64>,
    /// Extern operations and effect handlers.
    pub externs: ExternRegistry,
}

impl fmt::Debug for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("input", &self.input)
            .field("events", &self.events)
            .field("writer", &self.writer)
            .field("externs", &self.externs)
            .finish_non_exhaustive()
    }
}

impl Default for World {
    fn default() -> Self {
        World {
            oracle: Box::new(ZeroOracle),
            input: VecDeque::new(),
            events: Vec::new(),
            writer: Vec::new(),
            externs: ExternRegistry::new(),
        }
    }
}

impl World {
    /// A world with the given io input stream.
    pub fn with_input<I: IntoIterator<Item = u64>>(input: I) -> Self {
        World {
            input: input.into_iter().collect(),
            ..World::default()
        }
    }

    /// Replaces the oracle (builder style).
    #[must_use]
    pub fn with_oracle<O: Oracle + Send + 'static>(mut self, oracle: O) -> Self {
        self.oracle = Box::new(oracle);
        self
    }
}

/// Alias used in examples: a default world (no input, zero oracle).
pub type PureWorld = World;

/// Evaluates a model applied to argument values.
///
/// # Errors
///
/// Returns an [`EvalError`] when the argument count does not match the
/// parameter list (reported as a type mismatch) or when the body errors.
pub fn eval_model(model: &Model, args: &[Value], world: &mut World) -> Result<Value, EvalError> {
    if args.len() != model.params.len() {
        return Err(EvalError::ArityMismatch {
            tag: model.name.clone(),
            expected: model.params.len(),
            found: args.len(),
        });
    }
    let mut env: Env = model.params.iter().cloned().zip(args.iter().cloned()).collect();
    eval(&model.body, &mut env, &model.tables, world)
}

/// Binds `name` to `v`, returning the value it shadows.
fn bind_name(env: &mut Env, name: &Ident, v: Value) -> Option<Value> {
    match env.get_mut(name) {
        Some(slot) => Some(std::mem::replace(slot, v)),
        None => {
            env.insert(name.clone(), v);
            None
        }
    }
}

/// Undoes [`bind_name`]: puts back the shadowed value, or removes `name`
/// when nothing was shadowed.
fn unbind_name(env: &mut Env, name: &Ident, shadowed: Option<Value>) {
    match shadowed {
        Some(v) => {
            bind_name(env, name, v);
        }
        None => {
            env.remove(name);
        }
    }
}

/// Runs a loop that rebinds `names` each iteration, then restores `env`.
/// The names' outer bindings are saved once, up front, and restored
/// last-first, so a name listed twice (`acc == x`) comes back right. The
/// loop binds them in the same order every iteration, so when two loop
/// names coincide the one bound later is the one the body sees.
fn with_loop_names<const N: usize, T>(
    env: &mut Env,
    names: [&Ident; N],
    body: impl FnOnce(&mut Env) -> T,
) -> T {
    let saved = names.map(|n| env.remove(n));
    let out = body(env);
    for (n, v) in names.into_iter().zip(saved).rev() {
        unbind_name(env, n, v);
    }
    out
}

/// Evaluates an expression under an environment, table set and world.
/// `env` is returned unchanged (see [`Env`]).
///
/// # Errors
///
/// Returns the first [`EvalError`] encountered; evaluation order is
/// left-to-right and call-by-value.
pub fn eval(
    expr: &Expr,
    env: &mut Env,
    tables: &[TableDef],
    world: &mut World,
) -> Result<Value, EvalError> {
    match expr {
        Expr::Var(v) => env
            .get(v)
            .cloned()
            .ok_or_else(|| EvalError::UnboundVariable(v.clone())),
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Prim { op, args } => {
            if args.len() != op.arity() {
                return Err(EvalError::ArityMismatch {
                    tag: op.name().to_string(),
                    expected: op.arity(),
                    found: args.len(),
                });
            }
            // The arity check bounds the arguments at two.
            let mut vals = [Value::Unit, Value::Unit];
            for (slot, a) in vals.iter_mut().zip(args) {
                *slot = eval(a, env, tables, world)?;
            }
            eval_prim(*op, &vals[..args.len()])
        }
        Expr::Extern { tag, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, env, tables, world)?);
            }
            let op = world
                .externs
                .op(tag)
                .ok_or_else(|| EvalError::UnknownExtern(tag.clone()))?
                .clone();
            if vals.len() != op.arity {
                return Err(EvalError::ArityMismatch {
                    tag: tag.clone(),
                    expected: op.arity,
                    found: vals.len(),
                });
            }
            (op.eval)(&vals)
        }
        Expr::Let { name, value, body } | Expr::Bind { name, ma: value, body, .. } => {
            let v = eval(value, env, tables, world)?;
            let shadowed = bind_name(env, name, v);
            let out = eval(body, env, tables, world);
            unbind_name(env, name, shadowed);
            out
        }
        Expr::Copy(e) | Expr::Stack(e) => eval(e, env, tables, world),
        Expr::If { cond, then_, else_ } => {
            let c = eval(cond, env, tables, world)?;
            let b = c.as_bool().ok_or(EvalError::TypeMismatch {
                expected: "bool",
                found: c.kind(),
                context: "if",
            })?;
            if b {
                eval(then_, env, tables, world)
            } else {
                eval(else_, env, tables, world)
            }
        }
        Expr::Pair(a, b) => {
            let va = eval(a, env, tables, world)?;
            let vb = eval(b, env, tables, world)?;
            Ok(Value::pair(va, vb))
        }
        Expr::Fst(e) => match eval(e, env, tables, world)? {
            Value::Pair(a, _) => Ok(*a),
            other => Err(EvalError::TypeMismatch {
                expected: "pair",
                found: other.kind(),
                context: "fst",
            }),
        },
        Expr::Snd(e) => match eval(e, env, tables, world)? {
            Value::Pair(_, b) => Ok(*b),
            other => Err(EvalError::TypeMismatch {
                expected: "pair",
                found: other.kind(),
                context: "snd",
            }),
        },
        Expr::CellGet(e) => match eval(e, env, tables, world)? {
            Value::Cell(w) => Ok(Value::Word(w)),
            other => Err(EvalError::TypeMismatch {
                expected: "cell",
                found: other.kind(),
                context: "get",
            }),
        },
        Expr::CellPut { cell, val } => {
            let c = eval(cell, env, tables, world)?;
            if !matches!(c, Value::Cell(_)) {
                return Err(EvalError::TypeMismatch {
                    expected: "cell",
                    found: c.kind(),
                    context: "put",
                });
            }
            let v = eval(val, env, tables, world)?;
            let w = v.as_word().ok_or(EvalError::TypeMismatch {
                expected: "word",
                found: v.kind(),
                context: "put",
            })?;
            Ok(Value::Cell(w))
        }
        Expr::ArrayLen { elem, arr } => {
            let a = eval(arr, env, tables, world)?;
            let len = list_len_checked(&a, *elem, "ListArray.length")?;
            Ok(Value::Word(len))
        }
        Expr::ArrayGet { elem, arr, idx } => {
            let a = eval(arr, env, tables, world)?;
            let i = eval_index(idx, env, tables, world)?;
            let len = list_len_checked(&a, *elem, "ListArray.get")?;
            if i >= len {
                return Err(EvalError::OutOfBounds { idx: i, len, context: "ListArray.get" });
            }
            Ok(a.list_get(i as usize).expect("bounds checked"))
        }
        Expr::ArrayPut { elem, arr, idx, val } => {
            let a = eval(arr, env, tables, world)?;
            let i = eval_index(idx, env, tables, world)?;
            let v = eval(val, env, tables, world)?;
            let len = list_len_checked(&a, *elem, "ListArray.put")?;
            if i >= len {
                return Err(EvalError::OutOfBounds { idx: i, len, context: "ListArray.put" });
            }
            list_put(a, *elem, i as usize, &v)
        }
        Expr::TableGet { table, idx } => {
            let t = tables
                .iter()
                .find(|t| &t.name == table)
                .ok_or_else(|| EvalError::UnknownTable(table.clone()))?;
            let i = eval_index(idx, env, tables, world)?;
            let len = t.len() as u64;
            if i >= len {
                return Err(EvalError::OutOfBounds { idx: i, len, context: "InlineTable.get" });
            }
            Ok(t.data.list_get(i as usize).expect("bounds checked"))
        }
        Expr::ArrayMap { elem, x, f, arr } => {
            let a = eval(arr, env, tables, world)?;
            let len = list_len_checked(&a, *elem, "ListArray.map")? as usize;
            with_loop_names(env, [x], |env| {
                let mut out = a;
                for i in 0..len {
                    let xi = out.list_get(i).expect("in range");
                    bind_name(env, x, xi);
                    let fx = eval(f, env, tables, world)?;
                    out = list_put(out, *elem, i, &fx)?;
                }
                Ok(out)
            })
        }
        Expr::ArrayFold { elem, acc, x, f, init, arr } => {
            let a = eval(arr, env, tables, world)?;
            let len = list_len_checked(&a, *elem, "List.fold_left")? as usize;
            let mut accv = eval(init, env, tables, world)?;
            with_loop_names(env, [acc, x], |env| {
                for i in 0..len {
                    let xi = a.list_get(i).expect("in range");
                    bind_name(env, acc, accv);
                    bind_name(env, x, xi);
                    accv = eval(f, env, tables, world)?;
                }
                Ok(accv)
            })
        }
        Expr::RangeFold { i, acc, f, init, from, to } => {
            let lo = eval_word(from, env, tables, world, "fold_range")?;
            let hi = eval_word(to, env, tables, world, "fold_range")?;
            let mut accv = eval(init, env, tables, world)?;
            with_loop_names(env, [i, acc], |env| {
                for ix in lo..hi {
                    bind_name(env, i, Value::Word(ix));
                    bind_name(env, acc, accv);
                    accv = eval(f, env, tables, world)?;
                }
                Ok(accv)
            })
        }
        Expr::RangeFoldBreak { i, acc, f, init, from, to } => {
            let lo = eval_word(from, env, tables, world, "fold_range_break")?;
            let hi = eval_word(to, env, tables, world, "fold_range_break")?;
            let mut accv = eval(init, env, tables, world)?;
            with_loop_names(env, [i, acc], |env| {
                for ix in lo..hi {
                    bind_name(env, i, Value::Word(ix));
                    bind_name(env, acc, accv);
                    match eval(f, env, tables, world)? {
                        Value::Pair(cont, next) => {
                            let c = cont.as_bool().ok_or(EvalError::TypeMismatch {
                                expected: "bool",
                                found: cont.kind(),
                                context: "fold_range_break continue flag",
                            })?;
                            accv = *next;
                            if !c {
                                break;
                            }
                        }
                        other => {
                            return Err(EvalError::TypeMismatch {
                                expected: "pair",
                                found: other.kind(),
                                context: "fold_range_break body",
                            })
                        }
                    }
                }
                Ok(accv)
            })
        }
        Expr::RangeFoldM { i, acc, f, init, from, to, .. } => {
            let lo = eval_word(from, env, tables, world, "fold_range_m")?;
            let hi = eval_word(to, env, tables, world, "fold_range_m")?;
            let mut accv = eval(init, env, tables, world)?;
            with_loop_names(env, [i, acc], |env| {
                for ix in lo..hi {
                    bind_name(env, i, Value::Word(ix));
                    bind_name(env, acc, accv);
                    accv = eval(f, env, tables, world)?;
                }
                Ok(accv)
            })
        }
        Expr::Ret { value, .. } => eval(value, env, tables, world),
        Expr::NondetBytes { len } => {
            let n = eval_word(len, env, tables, world, "nondet.bytes")?;
            let mut bytes = Vec::with_capacity(n as usize);
            for _ in 0..n {
                bytes.push(world.oracle.nondet_byte());
            }
            Ok(Value::ByteList(bytes))
        }
        Expr::NondetWord { bound } => {
            let b = eval_word(bound, env, tables, world, "nondet.word")?;
            if b == 0 {
                return Err(EvalError::OutOfBounds { idx: 0, len: 0, context: "nondet.word" });
            }
            Ok(Value::Word(world.oracle.nondet_word(b)))
        }
        Expr::IoRead => {
            let w = world.input.pop_front().ok_or(EvalError::InputExhausted)?;
            world.events.push(Event::Read(w));
            Ok(Value::Word(w))
        }
        Expr::IoWrite(e) => {
            let w = eval_word(e, env, tables, world, "io.write")?;
            world.events.push(Event::Write(w));
            Ok(Value::Unit)
        }
        Expr::WriterTell(e) => {
            let w = eval_word(e, env, tables, world, "writer.tell")?;
            world.writer.push(w);
            Ok(Value::Unit)
        }
        Expr::FreeOp { tag, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, env, tables, world)?);
            }
            let handler = world
                .externs
                .effect(tag)
                .ok_or_else(|| EvalError::UnknownEffect(tag.clone()))?
                .clone();
            let (result, rets) = handler(&vals)?;
            let arg_words: Vec<u64> = vals.iter().filter_map(Value::to_scalar_word).collect();
            world.events.push(Event::Ext {
                tag: tag.clone(),
                args: arg_words,
                rets,
            });
            Ok(result)
        }
    }
}

fn eval_word(
    e: &Expr,
    env: &mut Env,
    tables: &[TableDef],
    world: &mut World,
    context: &'static str,
) -> Result<u64, EvalError> {
    let v = eval(e, env, tables, world)?;
    v.as_word().ok_or(EvalError::TypeMismatch {
        expected: "word",
        found: v.kind(),
        context,
    })
}

/// Indices may be words or naturals; both denote the same number.
fn eval_index(
    e: &Expr,
    env: &mut Env,
    tables: &[TableDef],
    world: &mut World,
) -> Result<u64, EvalError> {
    let v = eval(e, env, tables, world)?;
    match v {
        Value::Word(w) => Ok(w),
        Value::Nat(n) => Ok(n),
        other => Err(EvalError::TypeMismatch {
            expected: "word or nat",
            found: other.kind(),
            context: "index",
        }),
    }
}

fn list_len_checked(v: &Value, elem: ElemKind, context: &'static str) -> Result<u64, EvalError> {
    match (v, elem) {
        (Value::ByteList(b), ElemKind::Byte) => Ok(b.len() as u64),
        (Value::WordList(w), ElemKind::Word) => Ok(w.len() as u64),
        _ => Err(EvalError::TypeMismatch {
            expected: match elem {
                ElemKind::Byte => "byte list",
                ElemKind::Word => "word list",
            },
            found: v.kind(),
            context,
        }),
    }
}

fn list_put(v: Value, elem: ElemKind, idx: usize, val: &Value) -> Result<Value, EvalError> {
    match (v, elem) {
        (Value::ByteList(mut b), ElemKind::Byte) => {
            let x = val.as_byte().ok_or(EvalError::TypeMismatch {
                expected: "byte",
                found: val.kind(),
                context: "ListArray.put",
            })?;
            b[idx] = x;
            Ok(Value::ByteList(b))
        }
        (Value::WordList(mut w), ElemKind::Word) => {
            let x = val.as_word().ok_or(EvalError::TypeMismatch {
                expected: "word",
                found: val.kind(),
                context: "ListArray.put",
            })?;
            w[idx] = x;
            Ok(Value::WordList(w))
        }
        (other, _) => Err(EvalError::TypeMismatch {
            expected: "list",
            found: other.kind(),
            context: "ListArray.put",
        }),
    }
}

fn eval_prim(op: PrimOp, vals: &[Value]) -> Result<Value, EvalError> {
    use PrimOp::*;
    let w = |v: &Value| -> Result<u64, EvalError> {
        v.as_word().ok_or(EvalError::TypeMismatch {
            expected: "word",
            found: v.kind(),
            context: "word primitive",
        })
    };
    let by = |v: &Value| -> Result<u8, EvalError> {
        v.as_byte().ok_or(EvalError::TypeMismatch {
            expected: "byte",
            found: v.kind(),
            context: "byte primitive",
        })
    };
    let bo = |v: &Value| -> Result<bool, EvalError> {
        v.as_bool().ok_or(EvalError::TypeMismatch {
            expected: "bool",
            found: v.kind(),
            context: "bool primitive",
        })
    };
    let na = |v: &Value| -> Result<u64, EvalError> {
        v.as_nat().ok_or(EvalError::TypeMismatch {
            expected: "nat",
            found: v.kind(),
            context: "nat primitive",
        })
    };
    Ok(match op {
        WAdd => Value::Word(w(&vals[0])?.wrapping_add(w(&vals[1])?)),
        WSub => Value::Word(w(&vals[0])?.wrapping_sub(w(&vals[1])?)),
        WMul => Value::Word(w(&vals[0])?.wrapping_mul(w(&vals[1])?)),
        WDivU => {
            let d = w(&vals[1])?;
            if d == 0 {
                return Err(EvalError::DivisionByZero);
            }
            Value::Word(w(&vals[0])? / d)
        }
        WRemU => {
            let d = w(&vals[1])?;
            if d == 0 {
                return Err(EvalError::DivisionByZero);
            }
            Value::Word(w(&vals[0])? % d)
        }
        WAnd => Value::Word(w(&vals[0])? & w(&vals[1])?),
        WOr => Value::Word(w(&vals[0])? | w(&vals[1])?),
        WXor => Value::Word(w(&vals[0])? ^ w(&vals[1])?),
        WShl => Value::Word(w(&vals[0])?.wrapping_shl(w(&vals[1])? as u32 & 63)),
        WShr => Value::Word(w(&vals[0])?.wrapping_shr(w(&vals[1])? as u32 & 63)),
        WSar => Value::Word(((w(&vals[0])? as i64) >> (w(&vals[1])? & 63)) as u64),
        WLtU => Value::Bool(w(&vals[0])? < w(&vals[1])?),
        WLtS => Value::Bool((w(&vals[0])? as i64) < (w(&vals[1])? as i64)),
        WEq => Value::Bool(w(&vals[0])? == w(&vals[1])?),
        BAdd => Value::Byte(by(&vals[0])?.wrapping_add(by(&vals[1])?)),
        BSub => Value::Byte(by(&vals[0])?.wrapping_sub(by(&vals[1])?)),
        BAnd => Value::Byte(by(&vals[0])? & by(&vals[1])?),
        BOr => Value::Byte(by(&vals[0])? | by(&vals[1])?),
        BXor => Value::Byte(by(&vals[0])? ^ by(&vals[1])?),
        BShl => Value::Byte(by(&vals[0])?.wrapping_shl(u32::from(by(&vals[1])?) & 7)),
        BShr => Value::Byte(by(&vals[0])?.wrapping_shr(u32::from(by(&vals[1])?) & 7)),
        BLtU => Value::Bool(by(&vals[0])? < by(&vals[1])?),
        BEq => Value::Bool(by(&vals[0])? == by(&vals[1])?),
        Not => Value::Bool(!bo(&vals[0])?),
        BoolAnd => Value::Bool(bo(&vals[0])? && bo(&vals[1])?),
        BoolOr => Value::Bool(bo(&vals[0])? || bo(&vals[1])?),
        BoolEq => Value::Bool(bo(&vals[0])? == bo(&vals[1])?),
        NAdd => Value::Nat(na(&vals[0])?.checked_add(na(&vals[1])?).ok_or(EvalError::NatOverflow)?),
        NSub => Value::Nat(na(&vals[0])?.saturating_sub(na(&vals[1])?)),
        NMul => Value::Nat(na(&vals[0])?.checked_mul(na(&vals[1])?).ok_or(EvalError::NatOverflow)?),
        NLt => Value::Bool(na(&vals[0])? < na(&vals[1])?),
        NEq => Value::Bool(na(&vals[0])? == na(&vals[1])?),
        WordOfByte => Value::Word(u64::from(by(&vals[0])?)),
        ByteOfWord => Value::Byte((w(&vals[0])? & 0xff) as u8),
        WordOfNat => Value::Word(na(&vals[0])?),
        NatOfWord => Value::Nat(w(&vals[0])?),
        WordOfBool => Value::Word(u64::from(bo(&vals[0])?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    fn run(e: &Expr) -> Result<Value, EvalError> {
        eval(e, &mut Env::new(), &[], &mut World::default())
    }

    #[test]
    fn words_wrap() {
        assert_eq!(
            run(&word_add(word_lit(u64::MAX), word_lit(1))).unwrap(),
            Value::Word(0)
        );
        assert_eq!(
            run(&word_mul(word_lit(1 << 63), word_lit(2))).unwrap(),
            Value::Word(0)
        );
    }

    #[test]
    fn division_by_zero_errors() {
        assert_eq!(run(&word_divu(word_lit(1), word_lit(0))), Err(EvalError::DivisionByZero));
        assert_eq!(run(&word_remu(word_lit(1), word_lit(0))), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn nats_are_checked() {
        assert_eq!(
            run(&nat_add(nat_lit(u64::MAX), nat_lit(1))),
            Err(EvalError::NatOverflow)
        );
        // Truncated subtraction, as on Gallina naturals.
        assert_eq!(run(&nat_sub(nat_lit(3), nat_lit(5))).unwrap(), Value::Nat(0));
    }

    #[test]
    fn shifts_mask_their_amounts() {
        assert_eq!(run(&word_shl(word_lit(1), word_lit(64))).unwrap(), Value::Word(1));
        assert_eq!(run(&word_sar(word_lit(u64::MAX), word_lit(1))).unwrap(), Value::Word(u64::MAX));
    }

    #[test]
    fn let_binds_and_shadows() {
        let e = let_n("x", word_lit(1), let_n("x", word_add(var("x"), word_lit(2)), var("x")));
        assert_eq!(run(&e).unwrap(), Value::Word(3));
    }

    #[test]
    fn array_get_put_roundtrip() {
        let e = let_n(
            "a",
            Expr::Lit(Value::byte_list([1, 2, 3])),
            array_get_b(array_put_b(var("a"), word_lit(1), byte_lit(9)), word_lit(1)),
        );
        assert_eq!(run(&e).unwrap(), Value::Byte(9));
    }

    #[test]
    fn array_oob_is_an_error() {
        let e = array_get_b(Expr::Lit(Value::byte_list([1])), word_lit(1));
        assert!(matches!(run(&e), Err(EvalError::OutOfBounds { idx: 1, len: 1, .. })));
    }

    #[test]
    fn array_map_is_pure_elementwise() {
        let e = array_map_b("b", byte_add(var("b"), byte_lit(1)), Expr::Lit(Value::byte_list([1, 2, 255])));
        assert_eq!(run(&e).unwrap(), Value::byte_list([2, 3, 0]));
    }

    #[test]
    fn array_fold_accumulates_left() {
        let e = array_fold_b(
            "acc",
            "x",
            word_add(word_mul(var("acc"), word_lit(10)), word_of_byte(var("x"))),
            word_lit(0),
            Expr::Lit(Value::byte_list([1, 2, 3])),
        );
        assert_eq!(run(&e).unwrap(), Value::Word(123));
    }

    #[test]
    fn range_fold_sums() {
        let e = range_fold("i", "acc", word_add(var("acc"), var("i")), word_lit(0), word_lit(0), word_lit(5));
        assert_eq!(run(&e).unwrap(), Value::Word(10));
        let empty = range_fold("i", "acc", word_add(var("acc"), var("i")), word_lit(7), word_lit(5), word_lit(5));
        assert_eq!(run(&empty).unwrap(), Value::Word(7));
    }

    #[test]
    fn range_fold_break_stops_early() {
        // Find the first index i with i*i >= 10; accumulate it.
        let e = range_fold_break(
            "i",
            "acc",
            ite(
                word_ltu(word_mul(var("i"), var("i")), word_lit(10)),
                pair(bool_lit(true), var("acc")),
                pair(bool_lit(false), var("i")),
            ),
            word_lit(0),
            word_lit(0),
            word_lit(100),
        );
        assert_eq!(run(&e).unwrap(), Value::Word(4));
    }

    #[test]
    fn cells_get_put() {
        let e = cell_get(cell_put(Expr::Lit(Value::Cell(1)), word_lit(42)));
        assert_eq!(run(&e).unwrap(), Value::Word(42));
    }

    #[test]
    fn table_get_reads_model_tables() {
        let t = TableDef::bytes("t", [10, 20, 30]);
        let e = table_get("t", word_lit(2));
        let v = eval(&e, &mut Env::new(), &[t], &mut World::default()).unwrap();
        assert_eq!(v, Value::Byte(30));
    }

    #[test]
    fn table_get_oob_and_missing() {
        let t = TableDef::bytes("t", [10]);
        assert!(matches!(
            eval(&table_get("t", word_lit(1)), &mut Env::new(), &[t], &mut World::default()),
            Err(EvalError::OutOfBounds { .. })
        ));
        assert_eq!(
            eval(&table_get("u", word_lit(0)), &mut Env::new(), &[], &mut World::default()),
            Err(EvalError::UnknownTable("u".into()))
        );
    }

    #[test]
    fn io_reads_trace_events() {
        let prog = bind(
            crate::MonadKind::Io,
            "x",
            io_read(),
            bind(crate::MonadKind::Io, "_", io_write(word_add(var("x"), word_lit(1))), ret(crate::MonadKind::Io, var("x"))),
        );
        let mut world = World::with_input([41]);
        let v = eval(&prog, &mut Env::new(), &[], &mut world).unwrap();
        assert_eq!(v, Value::Word(41));
        assert_eq!(world.events, vec![Event::Read(41), Event::Write(42)]);
    }

    #[test]
    fn io_read_exhausted_errors() {
        assert_eq!(
            eval(&io_read(), &mut Env::new(), &[], &mut World::default()),
            Err(EvalError::InputExhausted)
        );
    }

    #[test]
    fn writer_accumulates() {
        let prog = bind(
            crate::MonadKind::Writer,
            "_",
            writer_tell(word_lit(1)),
            bind(crate::MonadKind::Writer, "_", writer_tell(word_lit(2)), ret(crate::MonadKind::Writer, word_lit(0))),
        );
        let mut world = World::default();
        eval(&prog, &mut Env::new(), &[], &mut world).unwrap();
        assert_eq!(world.writer, vec![1, 2]);
    }

    #[test]
    fn nondet_uses_oracle() {
        let mut world = World::default().with_oracle(SeededOracle::new(7));
        let v = eval(&nondet_bytes(word_lit(4)), &mut Env::new(), &[], &mut world).unwrap();
        assert_eq!(v.list_len(), Some(4));
        let w = eval(&nondet_word(word_lit(10)), &mut Env::new(), &[], &mut world).unwrap();
        assert!(w.as_word().unwrap() < 10);
    }

    #[test]
    fn zero_oracle_is_deterministic() {
        let mut world = World::default();
        let v = eval(&nondet_bytes(word_lit(3)), &mut Env::new(), &[], &mut world).unwrap();
        assert_eq!(v, Value::byte_list([0, 0, 0]));
    }

    #[test]
    fn free_op_records_events() {
        let mut world = World::default();
        world.externs.register_effect("rng", |_| Ok((Value::Word(4), vec![4])));
        let v = eval(&free_op("rng", vec![]), &mut Env::new(), &[], &mut world).unwrap();
        assert_eq!(v, Value::Word(4));
        assert_eq!(
            world.events,
            vec![Event::Ext { tag: "rng".into(), args: vec![], rets: vec![4] }]
        );
    }

    #[test]
    fn extern_op_applies_registered_semantics() {
        let mut world = World::default();
        world.externs.register_fn("inc", 1, |args| {
            Ok(Value::Word(args[0].as_word().unwrap() + 1))
        });
        let inc = extern_op("inc", vec![word_lit(1)]);
        let v = eval(&inc, &mut Env::new(), &[], &mut world).unwrap();
        assert_eq!(v, Value::Word(2));
        assert_eq!(
            eval(&extern_op("nope", vec![]), &mut Env::new(), &[], &mut world),
            Err(EvalError::UnknownExtern("nope".into()))
        );
    }

    #[test]
    fn eval_model_binds_params() {
        let m = crate::Model::new("add1", ["x"], word_add(var("x"), word_lit(1)));
        let v = eval_model(&m, &[Value::Word(9)], &mut World::default()).unwrap();
        assert_eq!(v, Value::Word(10));
        assert!(eval_model(&m, &[], &mut World::default()).is_err());
    }
}
