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
//!   fixing the counters is rejected structurally),
//! - the source [`Model`](rupicola_lang::Model) and the [`FnSpec`] ABI (from which the checker
//!   rebuilds the initial goal and concretizes test vectors),
//! - the [`CompileStats`] of the original run (so cached suite passes
//!   still cross-check against build-time stats).
//!
//! Symbolic goals are deliberately *not* serialized: `StmtGoal` is
//! reconstructible via `FnSpec::initial_goal`, and keeping it out of the
//! format keeps heaplet identifiers an engine-internal notion.

use crate::derive::{Derivation, DerivationNode, SideCondRecord};
use crate::engine::{CompileStats, CompiledFunction};
use crate::fnspec::{ArgSpec, FnSpec, RetSpec, TraceSpec};
use crate::goal::{Hyp, MonadCtx, SideCond};
use crate::invariant::{LoopInvariant, LoopInvariantKind};
use rupicola_bedrock::serial::{decode_bfunction, encode_bfunction};
use rupicola_lang::codec::{
    decode_elem_kind, decode_expr, decode_model, decode_monad_kind, encode_elem_kind,
    encode_expr, encode_model, encode_monad_kind, DecodeResult,
};
use rupicola_lang::json::Json;
use rupicola_lang::Ident;
use rupicola_sep::ScalarKind;

// ---------------------------------------------------------------------------
// Local helpers (same shapes as the lower codec layers)
// ---------------------------------------------------------------------------

fn tagged<'a>(j: &'a Json, what: &str) -> DecodeResult<(String, &'a [Json])> {
    let items = j
        .as_arr()
        .ok_or_else(|| format!("expected {what} (tagged array), got {}", j.render_compact()))?;
    let (tag, rest) = items
        .split_first()
        .ok_or_else(|| format!("empty tagged array for {what}"))?;
    let tag = tag
        .as_str()
        .ok_or_else(|| format!("{what} tag is not a string"))?;
    Ok((tag.to_string(), rest))
}

fn field<'a>(rest: &'a [Json], i: usize, tag: &str) -> DecodeResult<&'a Json> {
    rest.get(i)
        .ok_or_else(|| format!("`{tag}` is missing field {i}"))
}

fn str_field(rest: &[Json], i: usize, tag: &str) -> DecodeResult<String> {
    field(rest, i, tag)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{tag}` field {i} is not a string"))
}

fn arity(rest: &[Json], n: usize, tag: &str) -> DecodeResult<()> {
    if rest.len() == n {
        Ok(())
    } else {
        Err(format!("`{tag}` expects {n} fields, got {}", rest.len()))
    }
}

fn obj_get<'a>(j: &'a Json, key: &str, what: &str) -> DecodeResult<&'a Json> {
    j.get(key)
        .ok_or_else(|| format!("{what} is missing key `{key}`"))
}

fn obj_str(j: &Json, key: &str, what: &str) -> DecodeResult<String> {
    obj_get(j, key, what)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{what} key `{key}` is not a string"))
}

fn obj_usize(j: &Json, key: &str, what: &str) -> DecodeResult<usize> {
    let n = obj_get(j, key, what)?
        .as_u64()
        .ok_or_else(|| format!("{what} key `{key}` is not an integer"))?;
    usize::try_from(n).map_err(|_| format!("{what} key `{key}` out of range"))
}

fn obj_arr<'a>(j: &'a Json, key: &str, what: &str) -> DecodeResult<&'a [Json]> {
    obj_get(j, key, what)?
        .as_arr()
        .ok_or_else(|| format!("{what} key `{key}` is not an array"))
}

fn encode_scalar_kind(k: ScalarKind) -> Json {
    Json::str(k.as_str())
}

fn decode_scalar_kind(j: &Json) -> DecodeResult<ScalarKind> {
    j.as_str()
        .and_then(ScalarKind::from_str_tag)
        .ok_or_else(|| format!("expected scalar kind, got {}", j.render_compact()))
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

/// Decodes a [`Hyp`].
pub fn decode_hyp(j: &Json) -> DecodeResult<Hyp> {
    let (tag, rest) = tagged(j, "hyp")?;
    let t = tag.as_str();
    arity(rest, 2, t)?;
    let a = decode_expr(field(rest, 0, t)?)?;
    let b = decode_expr(field(rest, 1, t)?)?;
    match t {
        "eq" => Ok(Hyp::EqWord(a, b)),
        "ltu" => Ok(Hyp::LtU(a, b)),
        "leu" => Ok(Hyp::LeU(a, b)),
        other => Err(format!("unknown hyp tag `{other}`")),
    }
}

/// Encodes a [`SideCond`].
pub fn encode_side_cond(c: &SideCond) -> Json {
    match c {
        SideCond::Lt(a, b) => Json::Arr(vec![Json::str("lt"), encode_expr(a), encode_expr(b)]),
        SideCond::Le(a, b) => Json::Arr(vec![Json::str("le"), encode_expr(a), encode_expr(b)]),
        SideCond::NonZero(a) => Json::Arr(vec![Json::str("nonzero"), encode_expr(a)]),
    }
}

/// Decodes a [`SideCond`].
pub fn decode_side_cond(j: &Json) -> DecodeResult<SideCond> {
    let (tag, rest) = tagged(j, "side condition")?;
    let t = tag.as_str();
    match t {
        "lt" | "le" => {
            arity(rest, 2, t)?;
            let a = decode_expr(field(rest, 0, t)?)?;
            let b = decode_expr(field(rest, 1, t)?)?;
            Ok(if t == "lt" { SideCond::Lt(a, b) } else { SideCond::Le(a, b) })
        }
        "nonzero" => {
            arity(rest, 1, t)?;
            Ok(SideCond::NonZero(decode_expr(field(rest, 0, t)?)?))
        }
        other => Err(format!("unknown side-condition tag `{other}`")),
    }
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

/// Decodes a [`MonadCtx`].
pub fn decode_monad_ctx(j: &Json) -> DecodeResult<MonadCtx> {
    if j.as_str() == Some("pure") {
        Ok(MonadCtx::Pure)
    } else {
        decode_monad_kind(j).map(MonadCtx::Monadic)
    }
}

/// Encodes a [`TraceSpec`].
pub fn encode_trace_spec(t: TraceSpec) -> Json {
    Json::str(match t {
        TraceSpec::Unchanged => "unchanged",
        TraceSpec::MirrorsSource => "mirrors-source",
    })
}

/// Decodes a [`TraceSpec`].
pub fn decode_trace_spec(j: &Json) -> DecodeResult<TraceSpec> {
    match j.as_str() {
        Some("unchanged") => Ok(TraceSpec::Unchanged),
        Some("mirrors-source") => Ok(TraceSpec::MirrorsSource),
        _ => Err(format!("expected trace spec, got {}", j.render_compact())),
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

/// Decodes an [`ArgSpec`].
pub fn decode_arg_spec(j: &Json) -> DecodeResult<ArgSpec> {
    let (tag, rest) = tagged(j, "arg spec")?;
    let t = tag.as_str();
    match t {
        "scalar" => {
            arity(rest, 3, t)?;
            Ok(ArgSpec::Scalar {
                name: str_field(rest, 0, t)?,
                param: str_field(rest, 1, t)?,
                kind: decode_scalar_kind(field(rest, 2, t)?)?,
            })
        }
        "arrayptr" | "lenof" => {
            arity(rest, 3, t)?;
            let name = str_field(rest, 0, t)?;
            let param = str_field(rest, 1, t)?;
            let elem = decode_elem_kind(field(rest, 2, t)?)?;
            Ok(if t == "arrayptr" {
                ArgSpec::ArrayPtr { name, param, elem }
            } else {
                ArgSpec::LenOf { name, param, elem }
            })
        }
        "cellptr" => {
            arity(rest, 2, t)?;
            Ok(ArgSpec::CellPtr {
                name: str_field(rest, 0, t)?,
                param: str_field(rest, 1, t)?,
            })
        }
        other => Err(format!("unknown arg-spec tag `{other}`")),
    }
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

/// Decodes a [`RetSpec`].
pub fn decode_ret_spec(j: &Json) -> DecodeResult<RetSpec> {
    let (tag, rest) = tagged(j, "ret spec")?;
    let t = tag.as_str();
    match t {
        "scalar" => {
            arity(rest, 2, t)?;
            Ok(RetSpec::Scalar {
                name: str_field(rest, 0, t)?,
                kind: decode_scalar_kind(field(rest, 1, t)?)?,
            })
        }
        "inplace" => {
            arity(rest, 1, t)?;
            Ok(RetSpec::InPlace { param: str_field(rest, 0, t)? })
        }
        other => Err(format!("unknown ret-spec tag `{other}`")),
    }
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

/// Decodes a [`FnSpec`].
pub fn decode_fn_spec(j: &Json) -> DecodeResult<FnSpec> {
    Ok(FnSpec {
        name: obj_str(j, "name", "fn spec")?,
        args: obj_arr(j, "args", "fn spec")?
            .iter()
            .map(decode_arg_spec)
            .collect::<DecodeResult<Vec<ArgSpec>>>()?,
        rets: obj_arr(j, "rets", "fn spec")?
            .iter()
            .map(decode_ret_spec)
            .collect::<DecodeResult<Vec<RetSpec>>>()?,
        monad: decode_monad_ctx(obj_get(j, "monad", "fn spec")?)?,
        trace: decode_trace_spec(obj_get(j, "trace", "fn spec")?)?,
        hints: obj_arr(j, "hints", "fn spec")?
            .iter()
            .map(decode_hyp)
            .collect::<DecodeResult<Vec<Hyp>>>()?,
    })
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

fn decode_invariant_kind(j: &Json) -> DecodeResult<LoopInvariantKind> {
    let (tag, rest) = tagged(j, "loop-invariant kind")?;
    let t = tag.as_str();
    match t {
        "mapinplace" => {
            arity(rest, 5, t)?;
            Ok(LoopInvariantKind::ArrayMapInPlace {
                ptr_local: str_field(rest, 0, t)?,
                elem: decode_elem_kind(field(rest, 1, t)?)?,
                x: str_field(rest, 2, t)?,
                f: decode_expr(field(rest, 3, t)?)?,
                arr: decode_expr(field(rest, 4, t)?)?,
            })
        }
        "foldscalar" => {
            arity(rest, 7, t)?;
            Ok(LoopInvariantKind::ArrayFoldScalar {
                acc_local: str_field(rest, 0, t)?,
                elem: decode_elem_kind(field(rest, 1, t)?)?,
                acc: str_field(rest, 2, t)?,
                x: str_field(rest, 3, t)?,
                f: decode_expr(field(rest, 4, t)?)?,
                init: decode_expr(field(rest, 5, t)?)?,
                arr: decode_expr(field(rest, 6, t)?)?,
            })
        }
        "rangefoldscalar" => {
            arity(rest, 6, t)?;
            Ok(LoopInvariantKind::RangeFoldScalar {
                acc_local: str_field(rest, 0, t)?,
                i: str_field(rest, 1, t)?,
                acc: str_field(rest, 2, t)?,
                f: decode_expr(field(rest, 3, t)?)?,
                init: decode_expr(field(rest, 4, t)?)?,
                from: decode_expr(field(rest, 5, t)?)?,
            })
        }
        "rangefoldarrayput" => {
            arity(rest, 7, t)?;
            Ok(LoopInvariantKind::RangeFoldArrayPut {
                ptr_local: str_field(rest, 0, t)?,
                elem: decode_elem_kind(field(rest, 1, t)?)?,
                i: str_field(rest, 2, t)?,
                acc: str_field(rest, 3, t)?,
                f: decode_expr(field(rest, 4, t)?)?,
                init: decode_expr(field(rest, 5, t)?)?,
                from: decode_expr(field(rest, 6, t)?)?,
            })
        }
        other => Err(format!("unknown loop-invariant tag `{other}`")),
    }
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

/// Decodes a [`LoopInvariant`].
pub fn decode_loop_invariant(j: &Json) -> DecodeResult<LoopInvariant> {
    let bindings = obj_arr(j, "bindings", "loop invariant")?
        .iter()
        .map(|pair| {
            let items = pair
                .as_arr()
                .ok_or_else(|| "invariant binding is not a pair".to_string())?;
            match items {
                [name, expr] => {
                    let name = name
                        .as_str()
                        .ok_or_else(|| "binding name is not a string".to_string())?;
                    Ok((name.to_string(), decode_expr(expr)?))
                }
                _ => Err("invariant binding is not a pair".to_string()),
            }
        })
        .collect::<DecodeResult<Vec<(Ident, rupicola_lang::Expr)>>>()?;
    Ok(LoopInvariant {
        index_local: obj_str(j, "index_local", "loop invariant")?,
        bindings,
        kind: decode_invariant_kind(obj_get(j, "kind", "loop invariant")?)?,
    })
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

/// Decodes a [`SideCondRecord`]. Names come back owned (`Cow::Owned`);
/// equality with the original records is still by content.
pub fn decode_side_cond_record(j: &Json) -> DecodeResult<SideCondRecord> {
    let hyps = obj_arr(j, "hyps", "side-condition record")?
        .iter()
        .map(decode_hyp)
        .collect::<DecodeResult<Vec<Hyp>>>()?;
    Ok(SideCondRecord {
        cond: decode_side_cond(obj_get(j, "cond", "side-condition record")?)?,
        solver: obj_str(j, "solver", "side-condition record")?.into(),
        hyps: hyps.into_iter().map(crate::goal::HypEntry::shared).collect(),
    })
}

/// Encodes a [`DerivationNode`] (recursively).
pub fn encode_derivation_node(n: &DerivationNode) -> Json {
    let invariant = match &n.invariant {
        Some(inv) => encode_loop_invariant(inv),
        None => Json::Null,
    };
    Json::obj([
        ("lemma", Json::str(n.lemma.as_ref())),
        ("focus", Json::str(n.focus.clone())),
        (
            "side_conds",
            Json::Arr(n.side_conds.iter().map(encode_side_cond_record).collect()),
        ),
        ("invariant", invariant),
        (
            "children",
            Json::Arr(n.children.iter().map(encode_derivation_node).collect()),
        ),
    ])
}

/// Decodes a [`DerivationNode`].
pub fn decode_derivation_node(j: &Json) -> DecodeResult<DerivationNode> {
    let invariant = match obj_get(j, "invariant", "derivation node")? {
        Json::Null => None,
        other => Some(decode_loop_invariant(other)?),
    };
    Ok(DerivationNode {
        lemma: obj_str(j, "lemma", "derivation node")?.into(),
        focus: obj_str(j, "focus", "derivation node")?,
        side_conds: obj_arr(j, "side_conds", "derivation node")?
            .iter()
            .map(decode_side_cond_record)
            .collect::<DecodeResult<Vec<SideCondRecord>>>()?,
        invariant,
        children: obj_arr(j, "children", "derivation node")?
            .iter()
            .map(decode_derivation_node)
            .collect::<DecodeResult<Vec<DerivationNode>>>()?,
    })
}

/// Encodes a [`Derivation`], *including* its stored integrity counters.
pub fn encode_derivation(d: &Derivation) -> Json {
    Json::obj([
        ("root", encode_derivation_node(&d.root)),
        ("side_cond_count", Json::U64(d.side_cond_count as u64)),
        ("node_count", Json::U64(d.node_count as u64)),
    ])
}

/// Decodes a [`Derivation`]. The integrity counters are taken from the
/// artifact verbatim — NOT recomputed — so that the checker's recount
/// still guards against witness corruption after a round-trip.
pub fn decode_derivation(j: &Json) -> DecodeResult<Derivation> {
    Ok(Derivation {
        root: decode_derivation_node(obj_get(j, "root", "derivation")?)?,
        side_cond_count: obj_usize(j, "side_cond_count", "derivation")?,
        node_count: obj_usize(j, "node_count", "derivation")?,
    })
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

/// Decodes [`CompileStats`].
pub fn decode_compile_stats(j: &Json) -> DecodeResult<CompileStats> {
    Ok(CompileStats {
        lemma_applications: obj_usize(j, "lemma_applications", "compile stats")?,
        side_conditions: obj_usize(j, "side_conditions", "compile stats")?,
        solver_cache_hits: obj_usize(j, "solver_cache_hits", "compile stats")?,
        solver_cache_misses: obj_usize(j, "solver_cache_misses", "compile stats")?,
        solver_confirm_compares: obj_usize(j, "solver_confirm_compares", "compile stats")?,
        opt_passes_applied: obj_usize(j, "opt_passes_applied", "compile stats")?,
        opt_passes_rolled_back: obj_usize(j, "opt_passes_rolled_back", "compile stats")?,
        opt_sites_rewritten: obj_usize(j, "opt_sites_rewritten", "compile stats")?,
    })
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

/// Decodes a full [`CompiledFunction`] artifact.
///
/// Decoding alone confers no trust: the store's verified-load path hands
/// the result to the independent checker before serving it.
pub fn decode_compiled_function(j: &Json) -> DecodeResult<CompiledFunction> {
    Ok(CompiledFunction {
        function: decode_bfunction(obj_get(j, "function", "compiled function")?)?,
        derivation: decode_derivation(obj_get(j, "derivation", "compiled function")?)?,
        model: decode_model(obj_get(j, "model", "compiled function")?)?,
        spec: decode_fn_spec(obj_get(j, "spec", "compiled function")?)?,
        linked: obj_arr(j, "linked", "compiled function")?
            .iter()
            .map(decode_bfunction)
            .collect::<DecodeResult<Vec<_>>>()?,
        optimized: match obj_get(j, "optimized", "compiled function")? {
            Json::Null => None,
            j => Some(decode_bfunction(j)?),
        },
        stats: decode_compile_stats(obj_get(j, "stats", "compiled function")?)?,
    })
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
        assert_eq!(decode_fn_spec(&j).unwrap(), spec);
        let reparsed = rupicola_lang::json::parse(&j.render()).unwrap();
        assert_eq!(decode_fn_spec(&reparsed).unwrap(), spec);
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
        assert_eq!(decode_derivation(&j).unwrap(), d);
        let reparsed = rupicola_lang::json::parse(&j.render()).unwrap();
        assert_eq!(decode_derivation(&reparsed).unwrap(), d);
    }

    #[test]
    fn counters_pass_through_verbatim() {
        // A tampered counter must survive the round-trip *tampered*, so the
        // checker can catch it: the codec must not silently repair witnesses.
        let mut d = Derivation::new(DerivationNode::leaf("done", "x"));
        d.node_count = 99;
        let back = decode_derivation(&encode_derivation(&d)).unwrap();
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
            let j = encode_loop_invariant(&inv);
            assert_eq!(decode_loop_invariant(&j).unwrap(), inv);
        }
    }

    #[test]
    fn decode_rejects_mangled_specs() {
        for bad in [
            r#"["scalar","a","x","float"]"#,
            r#"["inplace"]"#,
            r#"{"name":"f"}"#,
        ] {
            let j = rupicola_lang::json::parse(bad).unwrap();
            assert!(
                decode_arg_spec(&j).is_err() && decode_fn_spec(&j).is_err(),
                "accepted {bad}"
            );
        }
    }
}
