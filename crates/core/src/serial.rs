//! JSON codec for compiled artifacts: specs, witnesses, and
//! [`CompiledFunction`] itself.
//!
//! This is the top layer of the artifact codec (see `rupicola_lang::codec`
//! for the shared conventions; `rupicola_bedrock::serial` covers the
//! target syntax). What gets persisted is everything the independent
//! checker needs to re-validate a compilation result from scratch:
//!
//! - the Bedrock2 function and its linked callees,
//! - the full [`Derivation`] witness, including per-node side-condition
//!   records with their hypothesis snapshots and the stored integrity
//!   counters (stored *as-is*, NOT recomputed on decode — the checker
//!   recounts them, so a corrupted artifact that drops a node without
//!   fixing the counters is rejected structurally), encoded spine-flat
//!   ([`encode_derivation_node`]) so that a long let-spine is one array
//!   instead of one JSON nesting level per statement,
//! - the source [`Model`] and the [`FnSpec`] ABI (from which the checker
//!   rebuilds the initial goal and concretizes test vectors),
//! - the [`CompileStats`] of the original run (so cached suite passes
//!   still cross-check against build-time stats).
//!
//! Every type is encoded as a [`Json`] tree and read back from text by
//! one `read_*` function over a [`Reader`]; [`decode_compiled_function`]
//! is the tree-taking entry point, a thin adapter that renders the tree
//! and reads it.
//!
//! Symbolic goals are deliberately *not* serialized: `StmtGoal` is
//! reconstructible via `FnSpec::initial_goal`, and keeping it out of the
//! format keeps heaplet identifiers an engine-internal notion.

use crate::derive::{Derivation, DerivationNode, SideCondRecord};
use crate::engine::{CompileStats, CompiledFunction};
use crate::fnspec::{ArgSpec, FnSpec, RetSpec, TraceSpec};
use crate::goal::{Hyp, MonadCtx, SideCond};
use crate::invariant::{LoopInvariant, LoopInvariantKind};
use rupicola_bedrock::serial::{encode_bfunction, read_bfunction};
use rupicola_bedrock::BFunction;
use rupicola_lang::codec::{
    encode_elem_kind, encode_expr, encode_model, encode_monad_kind, monad_kind_from_name,
    read_elem_kind, read_expr, read_model, read_text, DecodeResult,
};
use rupicola_lang::json::{Json, Reader};
use rupicola_lang::Model;
use rupicola_sep::ScalarKind;

// ---------------------------------------------------------------------------
// Local helpers
// ---------------------------------------------------------------------------

fn read_usize(r: &mut Reader<'_>) -> DecodeResult<usize> {
    let n = r.u64()?;
    usize::try_from(n).map_err(|_| format!("count {n} out of range"))
}

fn encode_scalar_kind(k: ScalarKind) -> Json {
    Json::str(k.as_str())
}

fn read_scalar_kind(r: &mut Reader<'_>) -> DecodeResult<ScalarKind> {
    let tag = r.str()?;
    ScalarKind::from_str_tag(&tag).ok_or_else(|| format!("expected scalar kind, got `{tag}`"))
}

// ---------------------------------------------------------------------------
// Hypotheses and side conditions
// ---------------------------------------------------------------------------

/// Encodes a [`Hyp`].
pub fn encode_hyp(h: &Hyp) -> Json {
    match h {
        Hyp::EqWord(a, b) => Json::Arr(vec![Json::str("eq"), encode_expr(a), encode_expr(b)]),
        Hyp::LtU(a, b) => Json::Arr(vec![Json::str("ltu"), encode_expr(a), encode_expr(b)]),
        Hyp::LeU(a, b) => Json::Arr(vec![Json::str("leu"), encode_expr(a), encode_expr(b)]),
    }
}

/// Reads a [`Hyp`].
pub fn read_hyp(r: &mut Reader<'_>) -> DecodeResult<Hyp> {
    r.begin_arr()?;
    let tag = r.str()?;
    let make = match &*tag {
        "eq" => Hyp::EqWord,
        "ltu" => Hyp::LtU,
        "leu" => Hyp::LeU,
        other => return Err(format!("unknown hyp tag `{other}`")),
    };
    let a = read_expr(r)?;
    let b = read_expr(r)?;
    r.end_arr()?;
    Ok(make(a, b))
}

/// Encodes a [`SideCond`].
pub fn encode_side_cond(c: &SideCond) -> Json {
    match c {
        SideCond::Lt(a, b) => Json::Arr(vec![Json::str("lt"), encode_expr(a), encode_expr(b)]),
        SideCond::Le(a, b) => Json::Arr(vec![Json::str("le"), encode_expr(a), encode_expr(b)]),
        SideCond::NonZero(a) => Json::Arr(vec![Json::str("nonzero"), encode_expr(a)]),
    }
}

/// Reads a [`SideCond`].
pub fn read_side_cond(r: &mut Reader<'_>) -> DecodeResult<SideCond> {
    r.begin_arr()?;
    let tag = r.str()?;
    let c = match &*tag {
        "lt" | "le" => {
            let a = read_expr(r)?;
            let b = read_expr(r)?;
            if tag == "lt" { SideCond::Lt(a, b) } else { SideCond::Le(a, b) }
        }
        "nonzero" => SideCond::NonZero(read_expr(r)?),
        other => return Err(format!("unknown side-condition tag `{other}`")),
    };
    r.end_arr()?;
    Ok(c)
}

// ---------------------------------------------------------------------------
// Specs
// ---------------------------------------------------------------------------

/// Encodes a [`MonadCtx`] (`"pure"` or the monad's name).
pub fn encode_monad_ctx(m: MonadCtx) -> Json {
    match m {
        MonadCtx::Pure => Json::str("pure"),
        MonadCtx::Monadic(k) => encode_monad_kind(k),
    }
}

/// Reads a [`MonadCtx`].
pub fn read_monad_ctx(r: &mut Reader<'_>) -> DecodeResult<MonadCtx> {
    match &*r.str()? {
        "pure" => Ok(MonadCtx::Pure),
        other => monad_kind_from_name(other)
            .map(MonadCtx::Monadic)
            .ok_or_else(|| format!("expected monad context, got `{other}`")),
    }
}

/// Encodes a [`TraceSpec`].
pub fn encode_trace_spec(t: TraceSpec) -> Json {
    Json::str(match t {
        TraceSpec::Unchanged => "unchanged",
        TraceSpec::MirrorsSource => "mirrors-source",
    })
}

/// Reads a [`TraceSpec`].
pub fn read_trace_spec(r: &mut Reader<'_>) -> DecodeResult<TraceSpec> {
    match &*r.str()? {
        "unchanged" => Ok(TraceSpec::Unchanged),
        "mirrors-source" => Ok(TraceSpec::MirrorsSource),
        other => Err(format!("expected trace spec, got `{other}`")),
    }
}

/// Encodes an [`ArgSpec`].
pub fn encode_arg_spec(a: &ArgSpec) -> Json {
    match a {
        ArgSpec::Scalar { name, param, kind } => Json::Arr(vec![
            Json::str("scalar"),
            Json::str(name.clone()),
            Json::str(param.clone()),
            encode_scalar_kind(*kind),
        ]),
        ArgSpec::ArrayPtr { name, param, elem } => Json::Arr(vec![
            Json::str("arrayptr"),
            Json::str(name.clone()),
            Json::str(param.clone()),
            encode_elem_kind(*elem),
        ]),
        ArgSpec::LenOf { name, param, elem } => Json::Arr(vec![
            Json::str("lenof"),
            Json::str(name.clone()),
            Json::str(param.clone()),
            encode_elem_kind(*elem),
        ]),
        ArgSpec::CellPtr { name, param } => Json::Arr(vec![
            Json::str("cellptr"),
            Json::str(name.clone()),
            Json::str(param.clone()),
        ]),
    }
}

/// Reads an [`ArgSpec`].
pub fn read_arg_spec(r: &mut Reader<'_>) -> DecodeResult<ArgSpec> {
    r.begin_arr()?;
    let tag = r.str()?;
    let a = match &*tag {
        "scalar" => ArgSpec::Scalar {
            name: r.string()?,
            param: r.string()?,
            kind: read_scalar_kind(r)?,
        },
        "arrayptr" => ArgSpec::ArrayPtr {
            name: r.string()?,
            param: r.string()?,
            elem: read_elem_kind(r)?,
        },
        "lenof" => ArgSpec::LenOf {
            name: r.string()?,
            param: r.string()?,
            elem: read_elem_kind(r)?,
        },
        "cellptr" => ArgSpec::CellPtr { name: r.string()?, param: r.string()? },
        other => return Err(format!("unknown arg-spec tag `{other}`")),
    };
    r.end_arr()?;
    Ok(a)
}

/// Encodes a [`RetSpec`].
pub fn encode_ret_spec(r: &RetSpec) -> Json {
    match r {
        RetSpec::Scalar { name, kind } => Json::Arr(vec![
            Json::str("scalar"),
            Json::str(name.clone()),
            encode_scalar_kind(*kind),
        ]),
        RetSpec::InPlace { param } => {
            Json::Arr(vec![Json::str("inplace"), Json::str(param.clone())])
        }
    }
}

/// Reads a [`RetSpec`].
pub fn read_ret_spec(r: &mut Reader<'_>) -> DecodeResult<RetSpec> {
    r.begin_arr()?;
    let tag = r.str()?;
    let ret = match &*tag {
        "scalar" => RetSpec::Scalar { name: r.string()?, kind: read_scalar_kind(r)? },
        "inplace" => RetSpec::InPlace { param: r.string()? },
        other => return Err(format!("unknown ret-spec tag `{other}`")),
    };
    r.end_arr()?;
    Ok(ret)
}

/// Encodes a [`FnSpec`].
pub fn encode_fn_spec(s: &FnSpec) -> Json {
    Json::obj([
        ("name", Json::str(s.name.clone())),
        ("args", Json::Arr(s.args.iter().map(encode_arg_spec).collect())),
        ("rets", Json::Arr(s.rets.iter().map(encode_ret_spec).collect())),
        ("monad", encode_monad_ctx(s.monad)),
        ("trace", encode_trace_spec(s.trace)),
        ("hints", Json::Arr(s.hints.iter().map(encode_hyp).collect())),
    ])
}

/// Reads a [`FnSpec`].
pub fn read_fn_spec(r: &mut Reader<'_>) -> DecodeResult<FnSpec> {
    r.begin_obj()?;
    r.key("name")?;
    let name = r.string()?;
    r.key("args")?;
    let args = r.list(read_arg_spec)?;
    r.key("rets")?;
    let rets = r.list(read_ret_spec)?;
    r.key("monad")?;
    let monad = read_monad_ctx(r)?;
    r.key("trace")?;
    let trace = read_trace_spec(r)?;
    r.key("hints")?;
    let hints = r.list(read_hyp)?;
    r.end_obj()?;
    Ok(FnSpec { name, args, rets, monad, trace, hints })
}

// ---------------------------------------------------------------------------
// Loop invariants
// ---------------------------------------------------------------------------

fn encode_invariant_kind(k: &LoopInvariantKind) -> Json {
    match k {
        LoopInvariantKind::ArrayMapInPlace { ptr_local, elem, x, f, arr } => Json::Arr(vec![
            Json::str("mapinplace"),
            Json::str(ptr_local.clone()),
            encode_elem_kind(*elem),
            Json::str(x.clone()),
            encode_expr(f),
            encode_expr(arr),
        ]),
        LoopInvariantKind::ArrayFoldScalar { acc_local, elem, acc, x, f, init, arr } => {
            Json::Arr(vec![
                Json::str("foldscalar"),
                Json::str(acc_local.clone()),
                encode_elem_kind(*elem),
                Json::str(acc.clone()),
                Json::str(x.clone()),
                encode_expr(f),
                encode_expr(init),
                encode_expr(arr),
            ])
        }
        LoopInvariantKind::RangeFoldScalar { acc_local, i, acc, f, init, from } => {
            Json::Arr(vec![
                Json::str("rangefoldscalar"),
                Json::str(acc_local.clone()),
                Json::str(i.clone()),
                Json::str(acc.clone()),
                encode_expr(f),
                encode_expr(init),
                encode_expr(from),
            ])
        }
        LoopInvariantKind::RangeFoldArrayPut { ptr_local, elem, i, acc, f, init, from } => {
            Json::Arr(vec![
                Json::str("rangefoldarrayput"),
                Json::str(ptr_local.clone()),
                encode_elem_kind(*elem),
                Json::str(i.clone()),
                Json::str(acc.clone()),
                encode_expr(f),
                encode_expr(init),
                encode_expr(from),
            ])
        }
    }
}

fn read_invariant_kind(r: &mut Reader<'_>) -> DecodeResult<LoopInvariantKind> {
    r.begin_arr()?;
    let tag = r.str()?;
    let k = match &*tag {
        "mapinplace" => LoopInvariantKind::ArrayMapInPlace {
            ptr_local: r.string()?,
            elem: read_elem_kind(r)?,
            x: r.string()?,
            f: read_expr(r)?,
            arr: read_expr(r)?,
        },
        "foldscalar" => LoopInvariantKind::ArrayFoldScalar {
            acc_local: r.string()?,
            elem: read_elem_kind(r)?,
            acc: r.string()?,
            x: r.string()?,
            f: read_expr(r)?,
            init: read_expr(r)?,
            arr: read_expr(r)?,
        },
        "rangefoldscalar" => LoopInvariantKind::RangeFoldScalar {
            acc_local: r.string()?,
            i: r.string()?,
            acc: r.string()?,
            f: read_expr(r)?,
            init: read_expr(r)?,
            from: read_expr(r)?,
        },
        "rangefoldarrayput" => LoopInvariantKind::RangeFoldArrayPut {
            ptr_local: r.string()?,
            elem: read_elem_kind(r)?,
            i: r.string()?,
            acc: r.string()?,
            f: read_expr(r)?,
            init: read_expr(r)?,
            from: read_expr(r)?,
        },
        other => return Err(format!("unknown loop-invariant tag `{other}`")),
    };
    r.end_arr()?;
    Ok(k)
}

/// Encodes a [`LoopInvariant`].
pub fn encode_loop_invariant(inv: &LoopInvariant) -> Json {
    Json::obj([
        ("index_local", Json::str(inv.index_local.clone())),
        (
            "bindings",
            Json::Arr(
                inv.bindings
                    .iter()
                    .map(|(n, e)| Json::Arr(vec![Json::str(n.clone()), encode_expr(e)]))
                    .collect(),
            ),
        ),
        ("kind", encode_invariant_kind(&inv.kind)),
    ])
}

/// Reads a [`LoopInvariant`].
pub fn read_loop_invariant(r: &mut Reader<'_>) -> DecodeResult<LoopInvariant> {
    r.begin_obj()?;
    r.key("index_local")?;
    let index_local = r.string()?;
    r.key("bindings")?;
    let bindings = r.list(|r| {
        r.begin_arr()?;
        let name = r.string()?;
        let expr = read_expr(r)?;
        r.end_arr()?;
        Ok::<_, String>((name, expr))
    })?;
    r.key("kind")?;
    let kind = read_invariant_kind(r)?;
    r.end_obj()?;
    Ok(LoopInvariant { index_local, bindings, kind })
}

// ---------------------------------------------------------------------------
// Derivations
// ---------------------------------------------------------------------------

/// Encodes a [`SideCondRecord`].
pub fn encode_side_cond_record(r: &SideCondRecord) -> Json {
    Json::obj([
        ("cond", encode_side_cond(&r.cond)),
        ("solver", Json::str(r.solver.as_ref())),
        ("hyps", Json::Arr(r.hyps.iter().map(|h| encode_hyp(&h.hyp)).collect())),
    ])
}

/// Reads a [`SideCondRecord`]. Names come back owned (`Cow::Owned`);
/// equality with the original records is still by content.
pub fn read_side_cond_record(r: &mut Reader<'_>) -> DecodeResult<SideCondRecord> {
    r.begin_obj()?;
    r.key("cond")?;
    let cond = read_side_cond(r)?;
    r.key("solver")?;
    let solver = r.string()?.into();
    r.key("hyps")?;
    let hyps = r.list(|r| read_hyp(r).map(crate::goal::HypEntry::shared))?;
    r.end_obj()?;
    Ok(SideCondRecord { cond, solver, hyps: hyps.into() })
}

/// Encodes a [`DerivationNode`] spine-flat: the node, its last child,
/// that child's last child, and so on, as one array of node records. A
/// record's `leading` holds its children before the last (each encoded
/// the same way); the last child is the next record, and the final
/// record has no children. A let-spine nests each statement's
/// continuation as the last child, so the JSON nests only as deep as the
/// tree's *leading* branches (DESIGN.md §10).
pub fn encode_derivation_node(n: &DerivationNode) -> Json {
    let mut spine = Vec::new();
    let mut node = n;
    loop {
        let (leading, last) = match node.children.split_last() {
            Some((last, leading)) => (leading, Some(last)),
            None => (&[][..], None),
        };
        let invariant = match &node.invariant {
            Some(inv) => encode_loop_invariant(inv),
            None => Json::Null,
        };
        spine.push(Json::obj([
            ("lemma", Json::str(node.lemma.as_ref())),
            ("focus", Json::str(node.focus.clone())),
            (
                "side_conds",
                Json::Arr(node.side_conds.iter().map(encode_side_cond_record).collect()),
            ),
            ("invariant", invariant),
            ("leading", Json::Arr(leading.iter().map(encode_derivation_node).collect())),
        ]));
        match last {
            Some(last) => node = last,
            None => return Json::Arr(spine),
        }
    }
}

/// Reads a [`DerivationNode`] from its spine-flat encoding
/// ([`encode_derivation_node`]). The spine must be non-empty and its
/// final record must carry no leading children, so every tree has
/// exactly one encoding.
pub fn read_derivation_node(r: &mut Reader<'_>) -> DecodeResult<DerivationNode> {
    // Each record's leading children recurse through this function, so
    // it holds nothing node-sized itself: `push_record_head` reads a
    // record's other fields and `assemble_spine` builds the nodes, and
    // neither is on the stack while a child is read.
    let mut spine = Vec::new();
    r.begin_arr()?;
    while r.more()? {
        r.begin_obj()?;
        push_record_head(r, &mut spine)?;
        r.key("leading")?;
        let leading = r.list(read_derivation_node)?;
        if let Some(node) = spine.last_mut() {
            node.children = leading;
        }
        r.end_obj()?;
    }
    r.end_arr()?;
    assemble_spine(spine)
}

/// Reads a spine record's fields before `leading` onto `spine`, as a
/// node with no children yet.
#[inline(never)]
fn push_record_head(r: &mut Reader<'_>, spine: &mut Vec<DerivationNode>) -> DecodeResult<()> {
    r.key("lemma")?;
    let lemma = r.string()?;
    r.key("focus")?;
    let mut node = DerivationNode::leaf(lemma, r.string()?);
    r.key("side_conds")?;
    node.side_conds = r.list(read_side_cond_record)?;
    r.key("invariant")?;
    if !r.null()? {
        node.invariant = Some(read_loop_invariant(r)?);
    }
    spine.push(node);
    Ok(())
}

/// Assembles a spine's records from its end, so each node is finished
/// before it becomes its parent's last child.
#[inline(never)]
fn assemble_spine(mut spine: Vec<DerivationNode>) -> DecodeResult<DerivationNode> {
    let what = "derivation node";
    let mut node = spine.pop().ok_or_else(|| format!("{what} has an empty spine"))?;
    if !node.children.is_empty() {
        return Err(format!("{what} spine ends in a record with leading children"));
    }
    while let Some(mut parent) = spine.pop() {
        parent.children.reserve_exact(1);
        parent.children.push(node);
        node = parent;
    }
    Ok(node)
}

/// Encodes a [`Derivation`], *including* its stored integrity counters.
pub fn encode_derivation(d: &Derivation) -> Json {
    Json::obj([
        ("root", encode_derivation_node(&d.root)),
        ("side_cond_count", Json::U64(d.side_cond_count as u64)),
        ("node_count", Json::U64(d.node_count as u64)),
    ])
}

/// Reads a [`Derivation`]. The integrity counters are taken from the
/// artifact verbatim — NOT recomputed — so that the checker's recount
/// still guards against witness corruption after a round-trip.
pub fn read_derivation(r: &mut Reader<'_>) -> DecodeResult<Derivation> {
    r.begin_obj()?;
    r.key("root")?;
    let root = read_derivation_node(r)?;
    r.key("side_cond_count")?;
    let side_cond_count = read_usize(r)?;
    r.key("node_count")?;
    let node_count = read_usize(r)?;
    r.end_obj()?;
    Ok(Derivation { root, side_cond_count, node_count })
}

// ---------------------------------------------------------------------------
// Stats and the full artifact
// ---------------------------------------------------------------------------

/// Encodes [`CompileStats`].
pub fn encode_compile_stats(s: &CompileStats) -> Json {
    Json::obj([
        ("lemma_applications", Json::U64(s.lemma_applications as u64)),
        ("side_conditions", Json::U64(s.side_conditions as u64)),
        ("solver_cache_hits", Json::U64(s.solver_cache_hits as u64)),
        ("solver_cache_misses", Json::U64(s.solver_cache_misses as u64)),
        (
            "solver_confirm_compares",
            Json::U64(s.solver_confirm_compares as u64),
        ),
        ("opt_passes_applied", Json::U64(s.opt_passes_applied as u64)),
        ("opt_passes_rolled_back", Json::U64(s.opt_passes_rolled_back as u64)),
        ("opt_sites_rewritten", Json::U64(s.opt_sites_rewritten as u64)),
    ])
}

/// Reads [`CompileStats`].
pub fn read_compile_stats(r: &mut Reader<'_>) -> DecodeResult<CompileStats> {
    r.begin_obj()?;
    let mut field = |key: &str| {
        r.key(key)?;
        read_usize(r)
    };
    let stats = CompileStats {
        lemma_applications: field("lemma_applications")?,
        side_conditions: field("side_conditions")?,
        solver_cache_hits: field("solver_cache_hits")?,
        solver_cache_misses: field("solver_cache_misses")?,
        solver_confirm_compares: field("solver_confirm_compares")?,
        opt_passes_applied: field("opt_passes_applied")?,
        opt_passes_rolled_back: field("opt_passes_rolled_back")?,
        opt_sites_rewritten: field("opt_sites_rewritten")?,
    };
    r.end_obj()?;
    Ok(stats)
}

/// Encodes a full [`CompiledFunction`] artifact.
pub fn encode_compiled_function(cf: &CompiledFunction) -> Json {
    Json::obj([
        ("function", encode_bfunction(&cf.function)),
        (
            "linked",
            Json::Arr(cf.linked.iter().map(encode_bfunction).collect()),
        ),
        ("derivation", encode_derivation(&cf.derivation)),
        ("model", encode_model(&cf.model)),
        ("spec", encode_fn_spec(&cf.spec)),
        (
            "optimized",
            match &cf.optimized {
                Some(f) => encode_bfunction(f),
                None => Json::Null,
            },
        ),
        ("stats", encode_compile_stats(&cf.stats)),
    ])
}

/// Reads a full [`CompiledFunction`] artifact, its fields in the order
/// [`encode_compiled_function`] writes them, and returns it with the
/// exact text of its certified fields: `function`, `linked`,
/// `derivation`, `model` and `spec`, which the writer emits first.
///
/// `known` is a certified text this decoder returned before, with the
/// function it decoded from that text. When the artifact continues with
/// exactly that text ([`Reader::verbatim`]), those five fields are cloned
/// from the known function instead of decoded; decoding is a function of
/// the bytes, so the result is the one a full decode gives. Otherwise
/// every field is decoded.
///
/// Decoding alone confers no trust: the store's verified-load path hands
/// the result to the independent checker before serving it.
pub fn read_compiled_function<'a>(
    r: &mut Reader<'a>,
    known: Option<(&str, &CompiledFunction)>,
) -> DecodeResult<(CompiledFunction, &'a str)> {
    r.begin_obj()?;
    let ((function, linked, derivation, model, spec), certified) = r.span(|r| match known {
        Some((text, cf)) if r.verbatim(text) => Ok((
            cf.function.clone(),
            cf.linked.clone(),
            cf.derivation.clone(),
            cf.model.clone(),
            cf.spec.clone(),
        )),
        _ => read_certified_fields(r),
    })?;
    r.key("optimized")?;
    let optimized = if r.null()? { None } else { Some(read_bfunction(r)?) };
    r.key("stats")?;
    let stats = read_compile_stats(r)?;
    r.end_obj()?;
    let cf = CompiledFunction { function, linked, derivation, model, spec, optimized, stats };
    Ok((cf, certified))
}

/// The certified fields of a [`CompiledFunction`], in the writer's order.
type CertifiedFields = (BFunction, Vec<BFunction>, Derivation, Model, FnSpec);

/// Decodes the certified fields, `function` through `spec`.
fn read_certified_fields(r: &mut Reader<'_>) -> DecodeResult<CertifiedFields> {
    r.key("function")?;
    let function = read_bfunction(r)?;
    r.key("linked")?;
    let linked = r.list(read_bfunction)?;
    r.key("derivation")?;
    let derivation = read_derivation(r)?;
    r.key("model")?;
    let model = read_model(r)?;
    r.key("spec")?;
    let spec = read_fn_spec(r)?;
    Ok((function, linked, derivation, model, spec))
}

/// Decodes a [`CompiledFunction`] from an encoded tree: its compact
/// rendering, read by [`read_compiled_function`].
pub fn decode_compiled_function(j: &Json) -> DecodeResult<CompiledFunction> {
    read_text(&j.render_compact(), |r| read_compiled_function(r, None).map(|(cf, _)| cf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_lang::dsl::*;
    use rupicola_lang::ElemKind;

    fn sample_spec() -> FnSpec {
        FnSpec::new(
            "upstr",
            vec![
                ArgSpec::ArrayPtr { name: "s".into(), param: "s".into(), elem: ElemKind::Byte },
                ArgSpec::LenOf { name: "len".into(), param: "s".into(), elem: ElemKind::Byte },
                ArgSpec::Scalar { name: "k".into(), param: "k".into(), kind: ScalarKind::Word },
                ArgSpec::CellPtr { name: "c".into(), param: "c".into() },
            ],
            vec![
                RetSpec::InPlace { param: "s".into() },
                RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Bool },
            ],
        )
        .with_monad(MonadCtx::Monadic(rupicola_lang::MonadKind::Writer))
        .with_trace(TraceSpec::MirrorsSource)
        .with_hint(Hyp::LtU(var("i"), array_len_b(var("s"))))
    }

    #[test]
    fn fn_specs_round_trip() {
        let spec = sample_spec();
        let j = encode_fn_spec(&spec);
        for text in [j.render(), j.render_compact()] {
            assert_eq!(read_text(&text, read_fn_spec).unwrap(), spec);
        }
    }

    #[test]
    fn derivations_round_trip_with_invariants_and_counters() {
        let mut node = DerivationNode::leaf("compile_map", "ListArray.map …");
        node.side_conds.push(SideCondRecord {
            cond: SideCond::Lt(var("i"), var("n")),
            solver: "lia".into(),
            hyps: vec![Hyp::EqWord(var("i"), word_lit(0))].into_iter().map(crate::goal::HypEntry::shared).collect(),
        });
        node.invariant = Some(LoopInvariant {
            index_local: "i".into(),
            bindings: vec![("s0".into(), var("s"))],
            kind: LoopInvariantKind::ArrayMapInPlace {
                ptr_local: "s".into(),
                elem: ElemKind::Byte,
                x: "b".into(),
                f: byte_or(var("b"), byte_lit(0x20)),
                arr: var("s0"),
            },
        });
        let d = Derivation::new(
            DerivationNode::leaf("compile_let", "let/n s := …")
                .with_child(node)
                .with_child(DerivationNode::leaf("done", "s")),
        );
        let j = encode_derivation(&d);
        for text in [j.render(), j.render_compact()] {
            assert_eq!(read_text(&text, read_derivation).unwrap(), d);
        }
    }

    /// JSON nesting depth of `j` (a scalar is 0).
    fn depth(j: &Json) -> usize {
        match j {
            Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            Json::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
            _ => 0,
        }
    }

    #[test]
    fn a_long_spine_encodes_flat_and_round_trips() {
        // A 2,000-statement let-spine: each node's continuation is its
        // last child, after one leading child for the bound value.
        let mut node = DerivationNode::leaf("done", "x");
        for i in 0..2000 {
            node = DerivationNode::leaf("compile_let", format!("let/n x{i}"))
                .with_child(DerivationNode::leaf("expr_var", "y"))
                .with_child(node);
        }
        let d = Derivation::new(node);
        let j = encode_derivation(&d);
        assert!(depth(&j) < 10, "spine nests {} deep", depth(&j));
        assert_eq!(read_text(&j.render_compact(), read_derivation).unwrap(), d);
    }

    #[test]
    fn decode_rejects_non_canonical_spines() {
        let leaf = |lemma: &str, leading: &str| {
            format!(
                r#"{{"lemma":"{lemma}","focus":"x","side_conds":[],"invariant":null,"leading":{leading}}}"#
            )
        };
        let done = format!("[{}]", leaf("done", "[]"));
        assert!(read_text(&done, read_derivation_node).is_ok());
        for bad in [
            "[]".to_string(),
            leaf("done", "[]"),
            // The final record's children belong on the spine.
            format!("[{}]", leaf("compile_let", &format!("[{done}]"))),
        ] {
            assert!(read_text(&bad, read_derivation_node).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn counters_pass_through_verbatim() {
        // A tampered counter must survive the round-trip *tampered*, so the
        // checker can catch it: the codec must not silently repair witnesses.
        let mut d = Derivation::new(DerivationNode::leaf("done", "x"));
        d.node_count = 99;
        let back = read_text(&encode_derivation(&d).render_compact(), read_derivation).unwrap();
        assert_eq!(back.node_count, 99);
    }

    #[test]
    fn all_invariant_kinds_round_trip() {
        let kinds = [
            LoopInvariantKind::ArrayFoldScalar {
                acc_local: "acc".into(),
                elem: ElemKind::Word,
                acc: "a".into(),
                x: "x".into(),
                f: word_add(var("a"), var("x")),
                init: word_lit(0),
                arr: var("ws"),
            },
            LoopInvariantKind::RangeFoldScalar {
                acc_local: "acc".into(),
                i: "i".into(),
                acc: "a".into(),
                f: word_mul(var("a"), var("i")),
                init: word_lit(1),
                from: word_lit(2),
            },
        ];
        for kind in kinds {
            let inv = LoopInvariant { index_local: "i".into(), bindings: vec![], kind };
            let text = encode_loop_invariant(&inv).render_compact();
            assert_eq!(read_text(&text, read_loop_invariant).unwrap(), inv);
        }
    }

    #[test]
    fn decode_rejects_mangled_specs() {
        for bad in [
            r#"["scalar","a","x","float"]"#,
            r#"["inplace"]"#,
            r#"{"name":"f"}"#,
        ] {
            assert!(
                read_text(bad, read_arg_spec).is_err() && read_text(bad, read_fn_spec).is_err(),
                "accepted {bad}"
            );
        }
    }
}
