//! JSON codec for source-language terms.
//!
//! The persistent artifact store (crate `rupicola-service`) writes each
//! `CompiledFunction` — including its source [`Model`] and derivation
//! witness — to disk and reads it back on a cache hit. This module is the
//! source-language half of that codec: [`Value`], [`Expr`], [`TableDef`],
//! and [`Model`] to and from the [`Json`] tree.
//!
//! Encoding conventions, shared with the other `*_serial` modules up the
//! crate stack:
//!
//! - enums with payloads encode as *tagged arrays*, `["var", name]` —
//!   compact, order-stable (the content fingerprint hashes rendered
//!   bytes), and self-describing enough to reject mismatched shapes on
//!   decode;
//! - a right-nested chain encodes as one array, so a long program nests
//!   no deeper in JSON than its widest statement: a let-spine is
//!   `["let", name₁, value₁, …, nameₖ, valueₖ, body]` (here) and a
//!   sequence `["seq", cmd₁, …, cmdₙ]` (`rupicola_bedrock::serial`). The
//!   chain's last element is never itself a chain, so every term has
//!   exactly one encoding;
//! - fieldless enums ([`ElemKind`], [`MonadKind`], [`PrimOp`]) encode as
//!   their existing stable display names, so the wire format stays aligned
//!   with focus strings and error messages;
//! - byte payloads encode as lowercase hex strings ([`hex_encode`]).
//!
//! Decoding is total and never panics: every shape mismatch is a
//! `Result::Err` with a path-free but self-locating message (the offending
//! tag is quoted). The store treats any decode error as artifact
//! corruption and falls back to recompilation, so errors here only cost
//! time, never soundness.

use crate::ast::{Expr, ExprRef, Ident, MonadKind, PrimOp, TableDef};
use crate::value::{ElemKind, Value};
use crate::json::Json;
use crate::Model;

/// Decode failures are plain messages; the store maps any of them to
/// "corrupt artifact, recompile".
pub type DecodeResult<T> = Result<T, String>;

// ---------------------------------------------------------------------------
// Hex bytes
// ---------------------------------------------------------------------------

/// Lowercase hex encoding for byte payloads (`ByteList`, Bedrock2 table
/// data). Two characters per byte, no separators.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).unwrap_or('0'));
        out.push(char::from_digit(u32::from(b & 0xf), 16).unwrap_or('0'));
    }
    out
}

/// Inverse of [`hex_encode`]. Rejects odd lengths and non-hex characters.
pub fn hex_decode(s: &str) -> DecodeResult<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("hex string has odd length {}", s.len()));
    }
    let digit = |c: char| {
        c.to_digit(16)
            .ok_or_else(|| format!("invalid hex digit `{c}`"))
    };
    let mut out = Vec::with_capacity(s.len() / 2);
    let mut chars = s.chars();
    while let (Some(hi), Some(lo)) = (chars.next(), chars.next()) {
        #[allow(clippy::cast_possible_truncation)]
        out.push((digit(hi)? * 16 + digit(lo)?) as u8);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Fieldless enums: stable string tags
// ---------------------------------------------------------------------------

/// Encodes an [`ElemKind`] as its display name (`"byte"` / `"word"`).
pub fn encode_elem_kind(e: ElemKind) -> Json {
    Json::str(e.to_string())
}

/// Decodes an [`ElemKind`] from its display name.
pub fn decode_elem_kind(j: &Json) -> DecodeResult<ElemKind> {
    match j.as_str() {
        Some("byte") => Ok(ElemKind::Byte),
        Some("word") => Ok(ElemKind::Word),
        _ => Err(format!("expected elem kind, got {}", j.render_compact())),
    }
}

/// Encodes a [`MonadKind`] as its display name.
pub fn encode_monad_kind(m: MonadKind) -> Json {
    Json::str(m.to_string())
}

/// Decodes a [`MonadKind`] from its display name.
pub fn decode_monad_kind(j: &Json) -> DecodeResult<MonadKind> {
    match j.as_str() {
        Some("nondet") => Ok(MonadKind::Nondet),
        Some("writer") => Ok(MonadKind::Writer),
        Some("io") => Ok(MonadKind::Io),
        Some("free") => Ok(MonadKind::Free),
        _ => Err(format!("expected monad kind, got {}", j.render_compact())),
    }
}

/// Every [`PrimOp`], in declaration order. The codec keys primitives by
/// [`PrimOp::name`], which is unique per operation (each name doubles as
/// the Gallina-flavoured rendering in focus strings).
pub const ALL_PRIM_OPS: [PrimOp; 37] = [
    PrimOp::WAdd,
    PrimOp::WSub,
    PrimOp::WMul,
    PrimOp::WDivU,
    PrimOp::WRemU,
    PrimOp::WAnd,
    PrimOp::WOr,
    PrimOp::WXor,
    PrimOp::WShl,
    PrimOp::WShr,
    PrimOp::WSar,
    PrimOp::WLtU,
    PrimOp::WLtS,
    PrimOp::WEq,
    PrimOp::BAdd,
    PrimOp::BSub,
    PrimOp::BAnd,
    PrimOp::BOr,
    PrimOp::BXor,
    PrimOp::BShl,
    PrimOp::BShr,
    PrimOp::BLtU,
    PrimOp::BEq,
    PrimOp::Not,
    PrimOp::BoolAnd,
    PrimOp::BoolOr,
    PrimOp::BoolEq,
    PrimOp::NAdd,
    PrimOp::NSub,
    PrimOp::NMul,
    PrimOp::NLt,
    PrimOp::NEq,
    PrimOp::WordOfByte,
    PrimOp::ByteOfWord,
    PrimOp::WordOfNat,
    PrimOp::NatOfWord,
    PrimOp::WordOfBool,
];

/// Looks a primitive up by its [`PrimOp::name`].
pub fn prim_op_from_name(name: &str) -> Option<PrimOp> {
    ALL_PRIM_OPS.iter().copied().find(|op| op.name() == name)
}

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

/// Encodes a [`Value`] as a tagged array.
pub fn encode_value(v: &Value) -> Json {
    match v {
        Value::Unit => Json::Arr(vec![Json::str("unit")]),
        Value::Bool(b) => Json::Arr(vec![Json::str("bool"), Json::Bool(*b)]),
        Value::Byte(b) => Json::Arr(vec![Json::str("byte"), Json::U64(u64::from(*b))]),
        Value::Word(w) => Json::Arr(vec![Json::str("word"), Json::U64(*w)]),
        Value::Nat(n) => Json::Arr(vec![Json::str("nat"), Json::U64(*n)]),
        Value::ByteList(bytes) => {
            Json::Arr(vec![Json::str("bytes"), Json::str(hex_encode(bytes))])
        }
        Value::WordList(words) => Json::Arr(vec![
            Json::str("words"),
            Json::Arr(words.iter().map(|w| Json::U64(*w)).collect()),
        ]),
        Value::Pair(a, b) => {
            Json::Arr(vec![Json::str("pair"), encode_value(a), encode_value(b)])
        }
        Value::Cell(w) => Json::Arr(vec![Json::str("cell"), Json::U64(*w)]),
    }
}

/// Splits a tagged array into its tag and payload slice.
#[inline]
pub fn tagged<'a>(j: &'a Json, what: &str) -> DecodeResult<(String, &'a [Json])> {
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

/// Fixed-arity payload access with a uniform error message.
#[inline]
pub fn field<'a>(rest: &'a [Json], i: usize, tag: &str) -> DecodeResult<&'a Json> {
    rest.get(i)
        .ok_or_else(|| format!("`{tag}` is missing field {i}"))
}

/// Payload field `i` as an owned string.
#[inline]
pub fn str_field(rest: &[Json], i: usize, tag: &str) -> DecodeResult<String> {
    field(rest, i, tag)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{tag}` field {i} is not a string"))
}

fn u64_field(rest: &[Json], i: usize, tag: &str) -> DecodeResult<u64> {
    field(rest, i, tag)?
        .as_u64()
        .ok_or_else(|| format!("`{tag}` field {i} is not an integer"))
}

/// Checks that a tagged payload has exactly `n` fields.
#[inline]
pub fn arity(rest: &[Json], n: usize, tag: &str) -> DecodeResult<()> {
    if rest.len() == n {
        Ok(())
    } else {
        Err(format!("`{tag}` expects {n} fields, got {}", rest.len()))
    }
}

/// Decodes a [`Value`] from its tagged-array form.
pub fn decode_value(j: &Json) -> DecodeResult<Value> {
    let (tag, rest) = tagged(j, "value")?;
    match tag.as_str() {
        "unit" => {
            arity(rest, 0, &tag)?;
            Ok(Value::Unit)
        }
        "bool" => {
            arity(rest, 1, &tag)?;
            field(rest, 0, &tag)?
                .as_bool()
                .map(Value::Bool)
                .ok_or_else(|| "`bool` payload is not a boolean".to_string())
        }
        "byte" => {
            arity(rest, 1, &tag)?;
            let n = u64_field(rest, 0, &tag)?;
            u8::try_from(n)
                .map(Value::Byte)
                .map_err(|_| format!("byte value {n} out of range"))
        }
        "word" => {
            arity(rest, 1, &tag)?;
            Ok(Value::Word(u64_field(rest, 0, &tag)?))
        }
        "nat" => {
            arity(rest, 1, &tag)?;
            Ok(Value::Nat(u64_field(rest, 0, &tag)?))
        }
        "bytes" => {
            arity(rest, 1, &tag)?;
            Ok(Value::ByteList(hex_decode(&str_field(rest, 0, &tag)?)?))
        }
        "words" => {
            arity(rest, 1, &tag)?;
            let items = field(rest, 0, &tag)?
                .as_arr()
                .ok_or_else(|| "`words` payload is not an array".to_string())?;
            let words = items
                .iter()
                .map(|w| w.as_u64().ok_or_else(|| "non-integer word".to_string()))
                .collect::<DecodeResult<Vec<u64>>>()?;
            Ok(Value::WordList(words))
        }
        "pair" => {
            arity(rest, 2, &tag)?;
            Ok(Value::pair(
                decode_value(field(rest, 0, &tag)?)?,
                decode_value(field(rest, 1, &tag)?)?,
            ))
        }
        "cell" => {
            arity(rest, 1, &tag)?;
            Ok(Value::Cell(u64_field(rest, 0, &tag)?))
        }
        other => Err(format!("unknown value tag `{other}`")),
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

fn enc_ref(e: &ExprRef) -> Json {
    encode_expr(e)
}

fn enc_args(args: &[Expr]) -> Json {
    Json::Arr(args.iter().map(encode_expr).collect())
}

/// Encodes an [`Expr`] as a tagged array, one tag per variant.
pub fn encode_expr(e: &Expr) -> Json {

    match e {
        Expr::Var(v) => Json::Arr(vec![Json::str("var"), Json::str(v.clone())]),
        Expr::Lit(v) => Json::Arr(vec![Json::str("lit"), encode_value(v)]),
        Expr::Prim { op, args } => {
            Json::Arr(vec![Json::str("prim"), Json::str(op.name()), enc_args(args)])
        }
        Expr::Extern { tag, args } => {
            Json::Arr(vec![Json::str("extern"), Json::str(tag.clone()), enc_args(args)])
        }
        Expr::FreeOp { tag, args } => {
            Json::Arr(vec![Json::str("freeop"), Json::str(tag.clone()), enc_args(args)])
        }
        Expr::Let { .. } => {
            // A let-spine is one array: every binding's name and value,
            // then the body the spine ends in.
            let mut items = vec![Json::str("let")];
            let mut e = e;
            while let Expr::Let { name, value, body } = e {
                items.push(Json::str(name.clone()));
                items.push(enc_ref(value));
                e = body;
            }
            items.push(encode_expr(e));
            Json::Arr(items)
        }
        Expr::Copy(e) => Json::Arr(vec![Json::str("copy"), enc_ref(e)]),
        Expr::Stack(e) => Json::Arr(vec![Json::str("stack"), enc_ref(e)]),
        Expr::If { cond, then_, else_ } => Json::Arr(vec![
            Json::str("if"),
            enc_ref(cond),
            enc_ref(then_),
            enc_ref(else_),
        ]),
        Expr::Pair(a, b) => Json::Arr(vec![Json::str("mkpair"), enc_ref(a), enc_ref(b)]),
        Expr::Fst(e) => Json::Arr(vec![Json::str("fst"), enc_ref(e)]),
        Expr::Snd(e) => Json::Arr(vec![Json::str("snd"), enc_ref(e)]),
        Expr::CellGet(e) => Json::Arr(vec![Json::str("cellget"), enc_ref(e)]),
        Expr::CellPut { cell, val } => {
            Json::Arr(vec![Json::str("cellput"), enc_ref(cell), enc_ref(val)])
        }
        Expr::ArrayLen { elem, arr } => {
            Json::Arr(vec![Json::str("arraylen"), encode_elem_kind(*elem), enc_ref(arr)])
        }
        Expr::ArrayGet { elem, arr, idx } => Json::Arr(vec![
            Json::str("arrayget"),
            encode_elem_kind(*elem),
            enc_ref(arr),
            enc_ref(idx),
        ]),
        Expr::ArrayPut { elem, arr, idx, val } => Json::Arr(vec![
            Json::str("arrayput"),
            encode_elem_kind(*elem),
            enc_ref(arr),
            enc_ref(idx),
            enc_ref(val),
        ]),
        Expr::TableGet { table, idx } => {
            Json::Arr(vec![Json::str("tableget"), Json::str(table.clone()), enc_ref(idx)])
        }
        Expr::ArrayMap { elem, x, f, arr } => Json::Arr(vec![
            Json::str("arraymap"),
            encode_elem_kind(*elem),
            Json::str(x.clone()),
            enc_ref(f),
            enc_ref(arr),
        ]),
        Expr::ArrayFold { elem, acc, x, f, init, arr } => Json::Arr(vec![
            Json::str("arrayfold"),
            encode_elem_kind(*elem),
            Json::str(acc.clone()),
            Json::str(x.clone()),
            enc_ref(f),
            enc_ref(init),
            enc_ref(arr),
        ]),
        Expr::RangeFold { i, acc, f, init, from, to } => Json::Arr(vec![
            Json::str("rangefold"),
            Json::str(i.clone()),
            Json::str(acc.clone()),
            enc_ref(f),
            enc_ref(init),
            enc_ref(from),
            enc_ref(to),
        ]),
        Expr::RangeFoldBreak { i, acc, f, init, from, to } => Json::Arr(vec![
            Json::str("rangefoldbreak"),
            Json::str(i.clone()),
            Json::str(acc.clone()),
            enc_ref(f),
            enc_ref(init),
            enc_ref(from),
            enc_ref(to),
        ]),
        Expr::RangeFoldM { monad, i, acc, f, init, from, to } => Json::Arr(vec![
            Json::str("rangefoldm"),
            encode_monad_kind(*monad),
            Json::str(i.clone()),
            Json::str(acc.clone()),
            enc_ref(f),
            enc_ref(init),
            enc_ref(from),
            enc_ref(to),
        ]),
        Expr::Ret { monad, value } => Json::Arr(vec![
            Json::str("ret"),
            encode_monad_kind(*monad),
            enc_ref(value),
        ]),
        Expr::Bind { monad, name, ma, body } => Json::Arr(vec![
            Json::str("bind"),
            encode_monad_kind(*monad),
            Json::str(name.clone()),
            enc_ref(ma),
            enc_ref(body),
        ]),
        Expr::NondetBytes { len } => Json::Arr(vec![Json::str("nondetbytes"), enc_ref(len)]),
        Expr::NondetWord { bound } => Json::Arr(vec![Json::str("nondetword"), enc_ref(bound)]),
        Expr::IoRead => Json::Arr(vec![Json::str("ioread")]),
        Expr::IoWrite(e) => Json::Arr(vec![Json::str("iowrite"), enc_ref(e)]),
        Expr::WriterTell(e) => Json::Arr(vec![Json::str("writertell"), enc_ref(e)]),
    }
}

fn dec_ref(rest: &[Json], i: usize, tag: &str) -> DecodeResult<ExprRef> {
    Ok(decode_expr(field(rest, i, tag)?)?.boxed())
}

fn dec_args(rest: &[Json], i: usize, tag: &str) -> DecodeResult<Vec<Expr>> {
    field(rest, i, tag)?
        .as_arr()
        .ok_or_else(|| format!("`{tag}` argument list is not an array"))?
        .iter()
        .map(decode_expr)
        .collect()
}

/// Decodes an [`Expr`] from its tagged-array form.
pub fn decode_expr(j: &Json) -> DecodeResult<Expr> {
    let (tag, rest) = tagged(j, "expr")?;
    let t = tag.as_str();
    match t {
        "var" => {
            arity(rest, 1, t)?;
            Ok(Expr::Var(str_field(rest, 0, t)?))
        }
        "lit" => {
            arity(rest, 1, t)?;
            Ok(Expr::Lit(decode_value(field(rest, 0, t)?)?))
        }
        "prim" => {
            arity(rest, 2, t)?;
            let name = str_field(rest, 0, t)?;
            let op = prim_op_from_name(&name)
                .ok_or_else(|| format!("unknown primitive `{name}`"))?;
            Ok(Expr::Prim { op, args: dec_args(rest, 1, t)? })
        }
        "extern" => {
            arity(rest, 2, t)?;
            Ok(Expr::Extern { tag: str_field(rest, 0, t)?, args: dec_args(rest, 1, t)? })
        }
        "freeop" => {
            arity(rest, 2, t)?;
            Ok(Expr::FreeOp { tag: str_field(rest, 0, t)?, args: dec_args(rest, 1, t)? })
        }
        "let" => {
            let Some((body, bindings)) = rest.split_last() else {
                return Err("`let` has no body".to_string());
            };
            if bindings.is_empty() || bindings.len() % 2 != 0 {
                return Err(format!("`let` has {} binding fields, expected name/value pairs", bindings.len()));
            }
            let mut body = decode_expr(body)?;
            if matches!(body, Expr::Let { .. }) {
                return Err("`let` spine continues in a nested `let`".to_string());
            }
            for pair in bindings.chunks(2).rev() {
                body = Expr::Let {
                    name: str_field(pair, 0, t)?,
                    value: dec_ref(pair, 1, t)?,
                    body: body.boxed(),
                };
            }
            Ok(body)
        }
        "copy" => {
            arity(rest, 1, t)?;
            Ok(Expr::Copy(dec_ref(rest, 0, t)?))
        }
        "stack" => {
            arity(rest, 1, t)?;
            Ok(Expr::Stack(dec_ref(rest, 0, t)?))
        }
        "if" => {
            arity(rest, 3, t)?;
            Ok(Expr::If {
                cond: dec_ref(rest, 0, t)?,
                then_: dec_ref(rest, 1, t)?,
                else_: dec_ref(rest, 2, t)?,
            })
        }
        "mkpair" => {
            arity(rest, 2, t)?;
            Ok(Expr::Pair(dec_ref(rest, 0, t)?, dec_ref(rest, 1, t)?))
        }
        "fst" => {
            arity(rest, 1, t)?;
            Ok(Expr::Fst(dec_ref(rest, 0, t)?))
        }
        "snd" => {
            arity(rest, 1, t)?;
            Ok(Expr::Snd(dec_ref(rest, 0, t)?))
        }
        "cellget" => {
            arity(rest, 1, t)?;
            Ok(Expr::CellGet(dec_ref(rest, 0, t)?))
        }
        "cellput" => {
            arity(rest, 2, t)?;
            Ok(Expr::CellPut { cell: dec_ref(rest, 0, t)?, val: dec_ref(rest, 1, t)? })
        }
        "arraylen" => {
            arity(rest, 2, t)?;
            Ok(Expr::ArrayLen {
                elem: decode_elem_kind(field(rest, 0, t)?)?,
                arr: dec_ref(rest, 1, t)?,
            })
        }
        "arrayget" => {
            arity(rest, 3, t)?;
            Ok(Expr::ArrayGet {
                elem: decode_elem_kind(field(rest, 0, t)?)?,
                arr: dec_ref(rest, 1, t)?,
                idx: dec_ref(rest, 2, t)?,
            })
        }
        "arrayput" => {
            arity(rest, 4, t)?;
            Ok(Expr::ArrayPut {
                elem: decode_elem_kind(field(rest, 0, t)?)?,
                arr: dec_ref(rest, 1, t)?,
                idx: dec_ref(rest, 2, t)?,
                val: dec_ref(rest, 3, t)?,
            })
        }
        "tableget" => {
            arity(rest, 2, t)?;
            Ok(Expr::TableGet { table: str_field(rest, 0, t)?, idx: dec_ref(rest, 1, t)? })
        }
        "arraymap" => {
            arity(rest, 4, t)?;
            Ok(Expr::ArrayMap {
                elem: decode_elem_kind(field(rest, 0, t)?)?,
                x: str_field(rest, 1, t)?,
                f: dec_ref(rest, 2, t)?,
                arr: dec_ref(rest, 3, t)?,
            })
        }
        "arrayfold" => {
            arity(rest, 6, t)?;
            Ok(Expr::ArrayFold {
                elem: decode_elem_kind(field(rest, 0, t)?)?,
                acc: str_field(rest, 1, t)?,
                x: str_field(rest, 2, t)?,
                f: dec_ref(rest, 3, t)?,
                init: dec_ref(rest, 4, t)?,
                arr: dec_ref(rest, 5, t)?,
            })
        }
        "rangefold" | "rangefoldbreak" => {
            arity(rest, 6, t)?;
            let i = str_field(rest, 0, t)?;
            let acc = str_field(rest, 1, t)?;
            let f = dec_ref(rest, 2, t)?;
            let init = dec_ref(rest, 3, t)?;
            let from = dec_ref(rest, 4, t)?;
            let to = dec_ref(rest, 5, t)?;
            Ok(if t == "rangefold" {
                Expr::RangeFold { i, acc, f, init, from, to }
            } else {
                Expr::RangeFoldBreak { i, acc, f, init, from, to }
            })
        }
        "rangefoldm" => {
            arity(rest, 7, t)?;
            Ok(Expr::RangeFoldM {
                monad: decode_monad_kind(field(rest, 0, t)?)?,
                i: str_field(rest, 1, t)?,
                acc: str_field(rest, 2, t)?,
                f: dec_ref(rest, 3, t)?,
                init: dec_ref(rest, 4, t)?,
                from: dec_ref(rest, 5, t)?,
                to: dec_ref(rest, 6, t)?,
            })
        }
        "ret" => {
            arity(rest, 2, t)?;
            Ok(Expr::Ret {
                monad: decode_monad_kind(field(rest, 0, t)?)?,
                value: dec_ref(rest, 1, t)?,
            })
        }
        "bind" => {
            arity(rest, 4, t)?;
            Ok(Expr::Bind {
                monad: decode_monad_kind(field(rest, 0, t)?)?,
                name: str_field(rest, 1, t)?,
                ma: dec_ref(rest, 2, t)?,
                body: dec_ref(rest, 3, t)?,
            })
        }
        "nondetbytes" => {
            arity(rest, 1, t)?;
            Ok(Expr::NondetBytes { len: dec_ref(rest, 0, t)? })
        }
        "nondetword" => {
            arity(rest, 1, t)?;
            Ok(Expr::NondetWord { bound: dec_ref(rest, 0, t)? })
        }
        "ioread" => {
            arity(rest, 0, t)?;
            Ok(Expr::IoRead)
        }
        "iowrite" => {
            arity(rest, 1, t)?;
            Ok(Expr::IoWrite(dec_ref(rest, 0, t)?))
        }
        "writertell" => {
            arity(rest, 1, t)?;
            Ok(Expr::WriterTell(dec_ref(rest, 0, t)?))
        }
        other => Err(format!("unknown expr tag `{other}`")),
    }
}

// ---------------------------------------------------------------------------
// Tables and models
// ---------------------------------------------------------------------------

/// Encodes a [`TableDef`].
pub fn encode_table_def(table: &TableDef) -> Json {
    Json::obj([
        ("name", Json::str(table.name.clone())),
        ("elem", encode_elem_kind(table.elem)),
        ("data", encode_value(&table.data)),
    ])
}

/// Decodes a [`TableDef`].
pub fn decode_table_def(j: &Json) -> DecodeResult<TableDef> {
    let get = |k: &str| {
        j.get(k)
            .ok_or_else(|| format!("table is missing key `{k}`"))
    };
    Ok(TableDef {
        name: get("name")?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| "table `name` is not a string".to_string())?,
        elem: decode_elem_kind(get("elem")?)?,
        data: decode_value(get("data")?)?,
    })
}

/// Encodes a [`Model`].
pub fn encode_model(m: &Model) -> Json {
    Json::obj([
        ("name", Json::str(m.name.clone())),
        (
            "params",
            Json::Arr(m.params.iter().map(|p| Json::str(p.clone())).collect()),
        ),
        (
            "tables",
            Json::Arr(m.tables.iter().map(encode_table_def).collect()),
        ),
        ("body", encode_expr(&m.body)),
    ])
}

/// Decodes a [`Model`].
pub fn decode_model(j: &Json) -> DecodeResult<Model> {
    let get = |k: &str| {
        j.get(k)
            .ok_or_else(|| format!("model is missing key `{k}`"))
    };
    let params = get("params")?
        .as_arr()
        .ok_or_else(|| "model `params` is not an array".to_string())?
        .iter()
        .map(|p| {
            p.as_str()
                .map(str::to_string)
                .ok_or_else(|| "non-string param".to_string())
        })
        .collect::<DecodeResult<Vec<Ident>>>()?;
    let tables = get("tables")?
        .as_arr()
        .ok_or_else(|| "model `tables` is not an array".to_string())?
        .iter()
        .map(decode_table_def)
        .collect::<DecodeResult<Vec<TableDef>>>()?;
    Ok(Model {
        name: get("name")?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| "model `name` is not a string".to_string())?,
        params,
        tables,
        body: decode_expr(get("body")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    #[test]
    fn prim_op_names_are_unique_and_invertible() {
        for op in ALL_PRIM_OPS {
            assert_eq!(prim_op_from_name(op.name()), Some(op), "{}", op.name());
        }
        let mut names: Vec<&str> = ALL_PRIM_OPS.iter().map(|op| op.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_PRIM_OPS.len());
    }

    #[test]
    fn hex_round_trips() {
        let data = [0u8, 1, 0x7f, 0x80, 0xff];
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data.to_vec());
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn values_round_trip() {
        let samples = [
            Value::Unit,
            Value::Bool(true),
            Value::Byte(0xab),
            Value::Word(u64::MAX),
            Value::Nat(7),
            Value::byte_list(*b"rupicola"),
            Value::word_list([0, 1, u64::MAX]),
            Value::pair(Value::Word(1), Value::pair(Value::Byte(2), Value::Unit)),
            Value::Cell(99),
        ];
        for v in samples {
            let j = encode_value(&v);
            assert_eq!(decode_value(&j).unwrap(), v, "{v}");
            // Through the actual wire: rendered text, reparsed.
            let reparsed = crate::json::parse(&j.render()).unwrap();
            assert_eq!(decode_value(&reparsed).unwrap(), v, "{v}");
        }
    }

    #[test]
    fn exprs_round_trip() {
        let samples = [
            var("x"),
            word_lit(42),
            word_add(var("a"), word_lit(1)),
            let_n("s", array_map_b("b", byte_or(var("b"), byte_lit(0)), var("s")), var("s")),
            Expr::If {
                cond: bool_lit(true).boxed(),
                then_: word_lit(1).boxed(),
                else_: word_lit(2).boxed(),
            },
            Expr::TableGet { table: "t".into(), idx: word_lit(3).boxed() },
            range_fold(
                "i",
                "acc",
                word_add(var("acc"), var("i")),
                word_lit(0),
                word_lit(0),
                var("n"),
            ),
            Expr::Bind {
                monad: MonadKind::Io,
                name: "w".into(),
                ma: Expr::IoRead.boxed(),
                body: Expr::IoWrite(var("w").boxed()).boxed(),
            },
            Expr::Extern { tag: "rot13".into(), args: vec![var("b")] },
            Expr::Stack(Expr::Pair(word_lit(1).boxed(), word_lit(2).boxed()).boxed()),
        ];
        for e in samples {
            let j = encode_expr(&e);
            assert_eq!(decode_expr(&j).unwrap(), e, "{e}");
            let reparsed = crate::json::parse(&j.render_compact()).unwrap();
            assert_eq!(decode_expr(&reparsed).unwrap(), e, "{e}");
        }
    }

    #[test]
    fn a_long_let_spine_encodes_as_one_array() {
        let mut e = var("x");
        for i in 0..2000 {
            e = let_n("x", word_add(var("x"), word_lit(i)), e);
        }
        let j = encode_expr(&e);
        assert_eq!(j.as_arr().map(<[Json]>::len), Some(4002), "tag, 2,000 pairs, the body");
        let reparsed = crate::json::parse(&j.render_compact()).unwrap();
        assert_eq!(decode_expr(&reparsed).unwrap(), e);
    }

    #[test]
    fn models_round_trip_with_tables() {
        let model = Model::new(
            "crc",
            ["data"],
            let_n("acc", word_lit(0), var("acc")),
        )
        .with_table(TableDef::bytes("tbl", [1, 2, 3]))
        .with_table(TableDef::words("wtbl", [10, 20]));
        let j = encode_model(&model);
        assert_eq!(decode_model(&j).unwrap(), model);
        let reparsed = crate::json::parse(&j.render()).unwrap();
        assert_eq!(decode_model(&reparsed).unwrap(), model);
    }

    #[test]
    fn decode_rejects_malformed_terms() {
        for bad in [
            r#"["prim","word.nosuch",[]]"#,
            r#"["let","x"]"#,
            r#"["let","x",["var","y"],["var","z"],["var","x"]]"#,
            // The spine's body belongs on the spine.
            r#"["let","x",["var","y"],["let","z",["var","x"],["var","z"]]]"#,
            r#"["byte",256]"#,
            r#"["frobnicate"]"#,
            r#""just a string""#,
            r#"["arraylen","float",["var","a"]]"#,
        ] {
            let j = crate::json::parse(bad).unwrap();
            assert!(
                decode_value(&j).is_err() || decode_expr(&j).is_err(),
                "accepted {bad}"
            );
        }
        // Shape mismatches must error on both decoders.
        let j = crate::json::parse(r#"["frobnicate"]"#).unwrap();
        assert!(decode_expr(&j).is_err());
        assert!(decode_value(&j).is_err());
    }
}
