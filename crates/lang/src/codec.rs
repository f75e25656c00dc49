//! JSON codec for source-language terms.
//!
//! The persistent artifact store (crate `rupicola-service`) writes each
//! `CompiledFunction` — including its source [`Model`] and derivation
//! witness — to disk and reads it back on a cache hit. This module is the
//! source-language half of that codec: [`Value`], [`Expr`], [`TableDef`],
//! and [`Model`], encoded as a [`Json`] tree and read back from the
//! stored text with a [`Reader`] (`read_*`), without building a tree.
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
//! `Result::Err` with a self-locating message (a byte offset, or the
//! offending tag quoted). Each type has one accepted structure: object
//! fields in the order the encoder writes them, tagged arrays with
//! exactly their fields, chains in their one canonical form; whitespace
//! between tokens is the only freedom. The store treats any decode error
//! as artifact corruption and falls back to recompilation, so errors here
//! only cost time, never soundness.

use crate::ast::{Expr, ExprRef, Ident, MonadKind, PrimOp, TableDef};
use crate::value::{ElemKind, Value};
use crate::json::{Json, Reader};
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

/// Reads an [`ElemKind`] from its display name.
pub fn read_elem_kind(r: &mut Reader<'_>) -> DecodeResult<ElemKind> {
    match &*r.str()? {
        "byte" => Ok(ElemKind::Byte),
        "word" => Ok(ElemKind::Word),
        other => Err(format!("expected elem kind, got `{other}`")),
    }
}

/// Encodes a [`MonadKind`] as its display name.
pub fn encode_monad_kind(m: MonadKind) -> Json {
    Json::str(m.to_string())
}

/// Looks a [`MonadKind`] up by its display name.
pub fn monad_kind_from_name(name: &str) -> Option<MonadKind> {
    match name {
        "nondet" => Some(MonadKind::Nondet),
        "writer" => Some(MonadKind::Writer),
        "io" => Some(MonadKind::Io),
        "free" => Some(MonadKind::Free),
        _ => None,
    }
}

fn read_monad_kind(r: &mut Reader<'_>) -> DecodeResult<MonadKind> {
    let name = r.str()?;
    monad_kind_from_name(&name).ok_or_else(|| format!("expected monad kind, got `{name}`"))
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

/// Reads one whole JSON text with `read`: nothing but whitespace may
/// follow the value.
///
/// # Errors
///
/// Whatever `read` returns, and trailing characters.
pub fn read_text<'a, T>(
    text: &'a str,
    read: impl FnOnce(&mut Reader<'a>) -> DecodeResult<T>,
) -> DecodeResult<T> {
    let mut r = Reader::new(text);
    let value = read(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Reads a [`Value`] from its tagged-array form.
pub fn read_value(r: &mut Reader<'_>) -> DecodeResult<Value> {
    r.begin_arr()?;
    let tag = r.str()?;
    let fields = value_fields(&tag).ok_or_else(|| format!("unknown value tag `{tag}`"))?;
    let v = fields(r)?;
    r.end_arr()?;
    Ok(v)
}

/// A reader of one tag's fields.
pub type Fields<T> = fn(&mut Reader<'_>) -> DecodeResult<T>;

/// The reader of a value tag's fields (a table, like [`expr_fields`]).
fn value_fields(tag: &str) -> Option<Fields<Value>> {
    Some(match tag {
        "unit" => |_| Ok(Value::Unit),
        "bool" => |r| Ok(Value::Bool(r.bool()?)),
        "byte" => |r| {
            let n = r.u64()?;
            Ok(Value::Byte(u8::try_from(n).map_err(|_| format!("byte value {n} out of range"))?))
        },
        "word" => |r| Ok(Value::Word(r.u64()?)),
        "nat" => |r| Ok(Value::Nat(r.u64()?)),
        "bytes" => |r| Ok(Value::ByteList(hex_decode(&r.str()?)?)),
        "words" => |r| Ok(Value::WordList(r.list(Reader::u64)?)),
        "pair" => |r| {
            let a = read_value(r)?;
            Ok(Value::pair(a, read_value(r)?))
        },
        "cell" => |r| Ok(Value::Cell(r.u64()?)),
        _ => return None,
    })
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

fn read_ref(r: &mut Reader<'_>) -> DecodeResult<ExprRef> {
    Ok(read_expr(r)?.boxed())
}

fn read_args(r: &mut Reader<'_>) -> DecodeResult<Vec<Expr>> {
    r.list(read_expr)
}

/// Reads an [`Expr`] from its tagged-array form.
pub fn read_expr(r: &mut Reader<'_>) -> DecodeResult<Expr> {
    r.begin_arr()?;
    let tag = r.str()?;
    let fields = expr_fields(&tag).ok_or_else(|| format!("unknown expr tag `{tag}`"))?;
    let e = fields(r)?;
    r.end_arr()?;
    Ok(e)
}

/// The reader of an expr tag's fields. One function per tag, looked up
/// before it runs instead of one `match` that runs them all: a level of a
/// deep term then costs the stack only the small frame of the tag it
/// reads, so a term nested to the reader's depth limit fits a default
/// thread stack even in a debug build.
fn expr_fields(tag: &str) -> Option<Fields<Expr>> {
    Some(match tag {
        "var" => |r| Ok(Expr::Var(r.string()?)),
        "lit" => |r| Ok(Expr::Lit(read_value(r)?)),
        "prim" => |r| {
            let name = r.str()?;
            let op = prim_op_from_name(&name)
                .ok_or_else(|| format!("unknown primitive `{name}`"))?;
            Ok(Expr::Prim { op, args: read_args(r)? })
        },
        "extern" => |r| Ok(Expr::Extern { tag: r.string()?, args: read_args(r)? }),
        "freeop" => |r| Ok(Expr::FreeOp { tag: r.string()?, args: read_args(r)? }),
        "let" => read_let_spine,
        "copy" => |r| Ok(Expr::Copy(read_ref(r)?)),
        "stack" => |r| Ok(Expr::Stack(read_ref(r)?)),
        "if" => |r| Ok(Expr::If { cond: read_ref(r)?, then_: read_ref(r)?, else_: read_ref(r)? }),
        "mkpair" => |r| {
            let a = read_ref(r)?;
            Ok(Expr::Pair(a, read_ref(r)?))
        },
        "fst" => |r| Ok(Expr::Fst(read_ref(r)?)),
        "snd" => |r| Ok(Expr::Snd(read_ref(r)?)),
        "cellget" => |r| Ok(Expr::CellGet(read_ref(r)?)),
        "cellput" => |r| Ok(Expr::CellPut { cell: read_ref(r)?, val: read_ref(r)? }),
        "arraylen" => |r| Ok(Expr::ArrayLen { elem: read_elem_kind(r)?, arr: read_ref(r)? }),
        "arrayget" => |r| {
            Ok(Expr::ArrayGet { elem: read_elem_kind(r)?, arr: read_ref(r)?, idx: read_ref(r)? })
        },
        "arrayput" => |r| {
            Ok(Expr::ArrayPut {
                elem: read_elem_kind(r)?,
                arr: read_ref(r)?,
                idx: read_ref(r)?,
                val: read_ref(r)?,
            })
        },
        "tableget" => |r| Ok(Expr::TableGet { table: r.string()?, idx: read_ref(r)? }),
        "arraymap" => |r| {
            Ok(Expr::ArrayMap {
                elem: read_elem_kind(r)?,
                x: r.string()?,
                f: read_ref(r)?,
                arr: read_ref(r)?,
            })
        },
        "arrayfold" => |r| {
            Ok(Expr::ArrayFold {
                elem: read_elem_kind(r)?,
                acc: r.string()?,
                x: r.string()?,
                f: read_ref(r)?,
                init: read_ref(r)?,
                arr: read_ref(r)?,
            })
        },
        "rangefold" => |r| {
            Ok(Expr::RangeFold {
                i: r.string()?,
                acc: r.string()?,
                f: read_ref(r)?,
                init: read_ref(r)?,
                from: read_ref(r)?,
                to: read_ref(r)?,
            })
        },
        "rangefoldbreak" => |r| {
            Ok(Expr::RangeFoldBreak {
                i: r.string()?,
                acc: r.string()?,
                f: read_ref(r)?,
                init: read_ref(r)?,
                from: read_ref(r)?,
                to: read_ref(r)?,
            })
        },
        "rangefoldm" => |r| {
            Ok(Expr::RangeFoldM {
                monad: read_monad_kind(r)?,
                i: r.string()?,
                acc: r.string()?,
                f: read_ref(r)?,
                init: read_ref(r)?,
                from: read_ref(r)?,
                to: read_ref(r)?,
            })
        },
        "ret" => |r| Ok(Expr::Ret { monad: read_monad_kind(r)?, value: read_ref(r)? }),
        "bind" => |r| {
            Ok(Expr::Bind {
                monad: read_monad_kind(r)?,
                name: r.string()?,
                ma: read_ref(r)?,
                body: read_ref(r)?,
            })
        },
        "nondetbytes" => |r| Ok(Expr::NondetBytes { len: read_ref(r)? }),
        "nondetword" => |r| Ok(Expr::NondetWord { bound: read_ref(r)? }),
        "ioread" => |_| Ok(Expr::IoRead),
        "iowrite" => |r| Ok(Expr::IoWrite(read_ref(r)?)),
        "writertell" => |r| Ok(Expr::WriterTell(read_ref(r)?)),
        _ => return None,
    })
}

/// The fields of a `let` spine, read forward and assembled from the end:
/// name/value pairs, then the body, the first array after them.
fn read_let_spine(r: &mut Reader<'_>) -> DecodeResult<Expr> {
    let mut bindings = Vec::new();
    while r.peek()? == b'"' {
        let name = r.string()?;
        bindings.push((name, read_ref(r)?));
    }
    assemble_let(bindings, read_expr(r)?)
}

/// Nests a spine's bindings around its body, from the last binding out.
#[inline(never)]
fn assemble_let(bindings: Vec<(Ident, ExprRef)>, body: Expr) -> DecodeResult<Expr> {
    if bindings.is_empty() {
        return Err("`let` has no bindings".to_string());
    }
    if matches!(body, Expr::Let { .. }) {
        return Err("`let` spine continues in a nested `let`".to_string());
    }
    Ok(bindings
        .into_iter()
        .rev()
        .fold(body, |body, (name, value)| Expr::Let { name, value, body: body.boxed() }))
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

/// Reads a [`TableDef`].
pub fn read_table_def(r: &mut Reader<'_>) -> DecodeResult<TableDef> {
    r.begin_obj()?;
    r.key("name")?;
    let name = r.string()?;
    r.key("elem")?;
    let elem = read_elem_kind(r)?;
    r.key("data")?;
    let data = read_value(r)?;
    r.end_obj()?;
    Ok(TableDef { name, elem, data })
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

/// Reads a [`Model`].
pub fn read_model(r: &mut Reader<'_>) -> DecodeResult<Model> {
    r.begin_obj()?;
    r.key("name")?;
    let name = r.string()?;
    r.key("params")?;
    let params: Vec<Ident> = r.list(Reader::string)?;
    r.key("tables")?;
    let tables = r.list(read_table_def)?;
    r.key("body")?;
    let body = read_expr(r)?;
    r.end_obj()?;
    Ok(Model { name, params, tables, body })
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
            for text in [j.render(), j.render_compact()] {
                assert_eq!(read_text(&text, read_value).unwrap(), v, "{v}");
            }
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
            for text in [j.render(), j.render_compact()] {
                assert_eq!(read_text(&text, read_expr).unwrap(), e, "{e}");
            }
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
        assert_eq!(read_text(&j.render_compact(), read_expr).unwrap(), e);
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
        for text in [j.render(), j.render_compact()] {
            assert_eq!(read_text(&text, read_model).unwrap(), model);
        }
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
            r#"["byte",07]"#,
            r#"["frobnicate"]"#,
            r#""just a string""#,
            r#"["arraylen","float",["var","a"]]"#,
            r#"["var","x",]"#,
            r#"["var" "x"]"#,
            r#"["var","x"] ["var","y"]"#,
        ] {
            assert!(
                read_text(bad, read_value).is_err() && read_text(bad, read_expr).is_err(),
                "accepted {bad}"
            );
        }
    }

    #[test]
    fn model_fields_are_read_in_the_written_order() {
        let model = Model::new("m", ["x"], var("x"));
        let text = encode_model(&model).render_compact();
        assert!(read_text(&text, read_model).is_ok());
        let swapped = text.replacen(r#""name":"m","params":["x"]"#, r#""params":["x"],"name":"m""#, 1);
        assert_ne!(swapped, text);
        assert!(read_text(&swapped, read_model).is_err(), "{swapped}");
    }
}
