//! Function specifications: the ABI layer (`fnspec!` in the paper, §3.2).
//!
//! A [`FnSpec`] is "the collection of low-level representation choices that
//! are visible to other low-level code but abstracted away in the high-level
//! code": how each model parameter arrives (by value, as an array pointer,
//! as a pointer-plus-length pair, as a cell pointer) and how each component
//! of the model's result leaves (as a returned scalar, or written back in
//! place over an input region).
//!
//! The spec determines both the *initial compilation goal* (the symbolic
//! precondition: locals, heaplets and hypotheses) and, for the trusted
//! checker, the *concretization* of test inputs into Bedrock2 memories.

use crate::error::CompileError;
use crate::goal::{Hyp, MonadCtx, Post, RetSlot, StmtGoal};
use rupicola_bedrock::Memory;
use rupicola_lang::{ElemKind, Expr, Ident, Model, Value};
use rupicola_sep::{Heaplet, HeapletKind, ScalarKind, SymHeap, SymLocals, SymValue};
use std::collections::HashMap;

/// How one Bedrock2 argument relates to the model.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgSpec {
    /// A scalar passed by value, bound to a model parameter.
    Scalar {
        /// Bedrock2 argument name.
        name: String,
        /// Model parameter it carries.
        param: Ident,
        /// Scalar kind of the parameter.
        kind: ScalarKind,
    },
    /// A pointer to an array whose contents are a model parameter
    /// (`(array p s ∗ r) m` in the paper's `upstr` spec).
    ArrayPtr {
        /// Bedrock2 argument name.
        name: String,
        /// Model parameter holding the list.
        param: Ident,
        /// Element representation.
        elem: ElemKind,
    },
    /// A scalar argument specified to equal the length of an array
    /// parameter (`wlen = of_nat (length s)`).
    LenOf {
        /// Bedrock2 argument name.
        name: String,
        /// The array parameter measured.
        param: Ident,
        /// Element representation of that parameter.
        elem: ElemKind,
    },
    /// A pointer to a one-word cell parameter.
    CellPtr {
        /// Bedrock2 argument name.
        name: String,
        /// Model parameter holding the cell.
        param: Ident,
    },
}

impl ArgSpec {
    /// The Bedrock2 argument name.
    pub fn name(&self) -> &str {
        match self {
            ArgSpec::Scalar { name, .. }
            | ArgSpec::ArrayPtr { name, .. }
            | ArgSpec::LenOf { name, .. }
            | ArgSpec::CellPtr { name, .. } => name,
        }
    }
}

/// How one component of the model's result leaves the function.
///
/// Components are matched positionally against the model's (possibly
/// pair-valued) result, flattened left-to-right.
#[derive(Debug, Clone, PartialEq)]
pub enum RetSpec {
    /// Returned as a Bedrock2 return value.
    Scalar {
        /// Name of the Bedrock2 local returned.
        name: String,
        /// Scalar kind of the component.
        kind: ScalarKind,
    },
    /// Written back in place over the region of the given array or cell
    /// parameter.
    InPlace {
        /// The input parameter whose region holds the output.
        param: Ident,
    },
}

/// Expectations on the event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceSpec {
    /// `tr' = tr`: the function performs no observable I/O.
    #[default]
    Unchanged,
    /// The Bedrock2 trace must mirror the source program's effect log
    /// (io reads/writes, writer output, free-monad commands).
    MirrorsSource,
}

/// A complete function specification.
#[derive(Debug, Clone, PartialEq)]
pub struct FnSpec {
    /// Bedrock2 function name.
    pub name: String,
    /// Argument bindings, in Bedrock2 argument order.
    pub args: Vec<ArgSpec>,
    /// Result bindings, in model-result component order.
    pub rets: Vec<RetSpec>,
    /// The ambient monad of the model.
    pub monad: MonadCtx,
    /// Trace expectations.
    pub trace: TraceSpec,
    /// User-supplied hypotheses (the paper's *incidental* properties,
    /// §3.4.2, "proven at the source level and recovered during compilation
    /// using hints"). The checker validates them on every test vector.
    pub hints: Vec<Hyp>,
}

impl FnSpec {
    /// Creates a spec with no hints, pure monad and unchanged trace.
    pub fn new(name: impl Into<String>, args: Vec<ArgSpec>, rets: Vec<RetSpec>) -> Self {
        FnSpec {
            name: name.into(),
            args,
            rets,
            monad: MonadCtx::Pure,
            trace: TraceSpec::default(),
            hints: Vec::new(),
        }
    }

    /// Sets the ambient monad (builder style).
    #[must_use]
    pub fn with_monad(mut self, monad: MonadCtx) -> Self {
        self.monad = monad;
        self
    }

    /// Sets the trace expectation (builder style).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceSpec) -> Self {
        self.trace = trace;
        self
    }

    /// Adds a hint hypothesis (builder style).
    #[must_use]
    pub fn with_hint(mut self, hint: Hyp) -> Self {
        self.hints.push(hint);
        self
    }

    /// Bedrock2 argument names, in order.
    pub fn arg_names(&self) -> Vec<String> {
        self.args.iter().map(|a| a.name().to_string()).collect()
    }

    /// Bedrock2 return-variable names, in order.
    pub fn ret_names(&self) -> Vec<String> {
        self.rets
            .iter()
            .filter_map(|r| match r {
                RetSpec::Scalar { name, .. } => Some(name.clone()),
                RetSpec::InPlace { .. } => None,
            })
            .collect()
    }

    /// Checks internal consistency against a model and returns the initial
    /// compilation goal.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Spec`] when parameters are unbound, bound
    /// twice, or referenced by `LenOf`/`InPlace` without being array/cell
    /// parameters.
    pub fn initial_goal(&self, model: &Model) -> Result<StmtGoal, CompileError> {
        let mut locals = SymLocals::new();
        let mut heap = SymHeap::new();
        let mut hyps: crate::goal::HypContext = self.hints.iter().cloned().collect();
        let mut bound: HashMap<&str, ()> = HashMap::new();
        let mut heaplet_of_param: HashMap<&str, rupicola_sep::HeapletId> = HashMap::new();

        for a in &self.args {
            match a {
                ArgSpec::Scalar { name, param, kind } => {
                    self.ensure_param(model, param)?;
                    if bound.insert(param, ()).is_some() {
                        return Err(CompileError::Spec(format!("parameter `{param}` bound twice")));
                    }
                    locals.set(name.clone(), SymValue::Scalar(*kind, Expr::Var(param.clone())));
                }
                ArgSpec::ArrayPtr { name, param, elem } => {
                    self.ensure_param(model, param)?;
                    if bound.insert(param, ()).is_some() {
                        return Err(CompileError::Spec(format!("parameter `{param}` bound twice")));
                    }
                    let id = heap.add(Heaplet {
                        kind: HeapletKind::Array { elem: *elem },
                        content: Expr::Var(param.clone()),
                        len: Some(Expr::ArrayLen {
                            elem: *elem,
                            arr: Expr::Var(param.clone()).boxed(),
                        }),
                        ptr_name: name.clone(),
                    });
                    heaplet_of_param.insert(param, id);
                    locals.set(name.clone(), SymValue::Ptr(id));
                }
                ArgSpec::LenOf { name, param, elem } => {
                    self.ensure_param(model, param)?;
                    locals.set(
                        name.clone(),
                        SymValue::Scalar(
                            ScalarKind::Word,
                            Expr::ArrayLen {
                                elem: *elem,
                                arr: Expr::Var(param.clone()).boxed(),
                            },
                        ),
                    );
                }
                ArgSpec::CellPtr { name, param } => {
                    self.ensure_param(model, param)?;
                    if bound.insert(param, ()).is_some() {
                        return Err(CompileError::Spec(format!("parameter `{param}` bound twice")));
                    }
                    let id = heap.add(Heaplet {
                        kind: HeapletKind::Cell,
                        content: Expr::Var(param.clone()),
                        len: None,
                        ptr_name: name.clone(),
                    });
                    heaplet_of_param.insert(param, id);
                    locals.set(name.clone(), SymValue::Ptr(id));
                }
            }
        }
        for p in &model.params {
            if !bound.contains_key(p.as_str()) {
                return Err(CompileError::Spec(format!(
                    "model parameter `{p}` is not bound by any argument"
                )));
            }
        }

        let mut slots = Vec::with_capacity(self.rets.len());
        for r in &self.rets {
            match r {
                RetSpec::Scalar { name, .. } => slots.push(RetSlot::ScalarTo(name.clone())),
                RetSpec::InPlace { param } => {
                    let id = heaplet_of_param.get(param.as_str()).copied().ok_or_else(|| {
                        CompileError::Spec(format!(
                            "in-place return references `{param}`, which is not an array or cell argument"
                        ))
                    })?;
                    slots.push(RetSlot::InHeaplet(id));
                }
            }
        }

        // Inline-table bounds are structural facts about the model.
        for t in &model.tables {
            hyps.push(Hyp::EqWord(
                Expr::ArrayLen {
                    elem: t.elem,
                    arr: Expr::Var(format!("table:{}", t.name)).boxed(),
                },
                Expr::Lit(Value::Word(t.len() as u64)),
            ));
        }

        Ok(StmtGoal {
            prog: model.body.clone(),
            locals,
            heap,
            hyps,
            monad: self.monad,
            post: Post { slots },
            defs: crate::goal::DefChain::new(),
        })
    }

    fn ensure_param(&self, model: &Model, param: &str) -> Result<(), CompileError> {
        if model.params.iter().any(|p| p == param) {
            Ok(())
        } else {
            Err(CompileError::Spec(format!(
                "`{param}` is not a parameter of model `{}`",
                model.name
            )))
        }
    }
}

/// Where an output region lives in a concretized call.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionLayout {
    /// The model parameter whose data is in the region.
    pub param: Ident,
    /// Region base address.
    pub base: u64,
    /// Element representation (`None` for cells).
    pub elem: Option<ElemKind>,
}

/// A concretized call: memory image, argument words, and the layout needed
/// to read results back.
#[derive(Debug)]
pub struct ConcreteCall {
    /// Initial memory.
    pub mem: Memory,
    /// Argument words, in Bedrock2 argument order.
    pub args: Vec<u64>,
    /// Layouts of pointer arguments.
    pub regions: Vec<RegionLayout>,
}

/// Builds the initial machine state for calling the compiled function on
/// concrete model-parameter values (`values` in `model.params` order).
///
/// # Errors
///
/// Returns a message when a value's shape does not match its `ArgSpec`.
pub fn concretize(spec: &FnSpec, params: &[Ident], values: &[Value]) -> Result<ConcreteCall, String> {
    let lookup = |param: &str| -> Result<&Value, String> {
        params
            .iter()
            .position(|p| p == param)
            .and_then(|i| values.get(i))
            .ok_or_else(|| format!("no value for parameter `{param}`"))
    };
    let mut mem = Memory::new();
    let mut args = Vec::with_capacity(spec.args.len());
    let mut regions = Vec::new();
    for a in &spec.args {
        match a {
            ArgSpec::Scalar { param, .. } => {
                let v = lookup(param)?;
                args.push(
                    v.to_scalar_word()
                        .ok_or_else(|| format!("`{param}` is not scalar"))?,
                );
            }
            ArgSpec::ArrayPtr { param, elem, .. } => {
                let v = lookup(param)?;
                let bytes = v
                    .to_layout_bytes()
                    .ok_or_else(|| format!("`{param}` is not a list"))?;
                let base = mem.alloc(bytes);
                regions.push(RegionLayout { param: param.clone(), base, elem: Some(*elem) });
                args.push(base);
            }
            ArgSpec::LenOf { param, .. } => {
                let v = lookup(param)?;
                args.push(v.list_len().ok_or_else(|| format!("`{param}` is not a list"))? as u64);
            }
            ArgSpec::CellPtr { param, .. } => {
                let v = lookup(param)?;
                let Value::Cell(w) = v else {
                    return Err(format!("`{param}` is not a cell"));
                };
                let base = mem.alloc(w.to_le_bytes().to_vec());
                regions.push(RegionLayout { param: param.clone(), base, elem: None });
                args.push(base);
            }
        }
    }
    Ok(ConcreteCall { mem, args, regions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_lang::dsl::*;

    fn upstr_spec() -> FnSpec {
        FnSpec::new(
            "upstr",
            vec![
                ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
                ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
            ],
            vec![RetSpec::InPlace { param: "s".into() }],
        )
    }

    fn upstr_model() -> Model {
        Model::new(
            "upstr",
            ["s"],
            let_n("s", array_map_b("b", byte_and(var("b"), byte_lit(0xdf)), var("s")), var("s")),
        )
    }

    #[test]
    fn initial_goal_builds_precondition() {
        let goal = upstr_spec().initial_goal(&upstr_model()).unwrap();
        // "s" is a pointer local; "len" is bound to `length s`.
        assert!(goal.locals.get("s").unwrap().ptr().is_some());
        let (term, kind) = goal.locals.get("len").unwrap().scalar_term().unwrap();
        assert_eq!(kind, ScalarKind::Word);
        assert_eq!(term, &array_len_b(var("s")));
        assert_eq!(goal.heap.len(), 1);
        assert_eq!(goal.post.slots.len(), 1);
        assert!(matches!(goal.post.slots[0], RetSlot::InHeaplet(_)));
    }

    #[test]
    fn spec_rejects_unbound_params() {
        let spec = FnSpec::new("f", vec![], vec![]);
        let model = Model::new("f", ["x"], var("x"));
        assert!(matches!(spec.initial_goal(&model), Err(CompileError::Spec(_))));
    }

    #[test]
    fn spec_rejects_double_binding() {
        let spec = FnSpec::new(
            "f",
            vec![
                ArgSpec::Scalar { name: "a".into(), param: "x".into(), kind: ScalarKind::Word },
                ArgSpec::Scalar { name: "b".into(), param: "x".into(), kind: ScalarKind::Word },
            ],
            vec![],
        );
        let model = Model::new("f", ["x"], var("x"));
        assert!(matches!(spec.initial_goal(&model), Err(CompileError::Spec(_))));
    }

    #[test]
    fn spec_rejects_inplace_of_scalar() {
        let spec = FnSpec::new(
            "f",
            vec![ArgSpec::Scalar { name: "a".into(), param: "x".into(), kind: ScalarKind::Word }],
            vec![RetSpec::InPlace { param: "x".into() }],
        );
        let model = Model::new("f", ["x"], var("x"));
        assert!(matches!(spec.initial_goal(&model), Err(CompileError::Spec(_))));
    }

    #[test]
    fn concretize_lays_out_arrays_and_lens() {
        let spec = upstr_spec();
        let call = concretize(&spec, &["s".into()], &[Value::byte_list(*b"abc")]).unwrap();
        assert_eq!(call.args.len(), 2);
        assert_eq!(call.args[1], 3); // LenOf
        assert_eq!(call.regions.len(), 1);
        assert_eq!(call.mem.region(call.args[0]).unwrap(), b"abc");
    }

    #[test]
    fn concretize_cells() {
        let spec = FnSpec::new(
            "g",
            vec![ArgSpec::CellPtr { name: "c".into(), param: "c".into() }],
            vec![RetSpec::InPlace { param: "c".into() }],
        );
        let call = concretize(&spec, &["c".into()], &[Value::Cell(0x42)]).unwrap();
        assert_eq!(call.mem.region(call.args[0]).unwrap()[0], 0x42);
        assert!(concretize(&spec, &["c".into()], &[Value::Word(1)]).is_err());
    }
}
