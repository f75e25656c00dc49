//! JSON codec for Bedrock2 syntax.
//!
//! The target-language half of the artifact codec (see
//! `rupicola_lang::codec` for the conventions): [`BExpr`], [`Cmd`],
//! [`BTable`], and [`BFunction`] to and from `rupicola_lang::json::Json`.
//! A compiled artifact stores the full Bedrock2 function (plus any linked
//! callees), so a warm cache hit can skip the engine entirely and hand the
//! deserialized function straight to the independent checker.
//!
//! Same rules as the source codec: tagged arrays for enums with payloads,
//! stable lowercase names for fieldless enums, hex strings for table
//! bytes, total never-panicking decoders that surface every shape mismatch
//! as an `Err` (which the store treats as corruption).

use crate::ast::{AccessSize, BExpr, BFunction, BTable, BinOp, Cmd};
use rupicola_lang::codec::{arity, field, hex_decode, hex_encode, str_field, tagged, DecodeResult};
use rupicola_lang::json::Json;

// ---------------------------------------------------------------------------
// Fieldless enums
// ---------------------------------------------------------------------------

/// Encodes an [`AccessSize`] as its byte width.
pub fn encode_access_size(s: AccessSize) -> Json {
    Json::U64(s.bytes())
}

/// Decodes an [`AccessSize`] from its byte width.
pub fn decode_access_size(j: &Json) -> DecodeResult<AccessSize> {
    match j.as_u64() {
        Some(1) => Ok(AccessSize::One),
        Some(2) => Ok(AccessSize::Two),
        Some(4) => Ok(AccessSize::Four),
        Some(8) => Ok(AccessSize::Eight),
        _ => Err(format!("expected access size, got {}", j.render_compact())),
    }
}

/// Every [`BinOp`], paired with its stable wire name.
pub const ALL_BIN_OPS: [(BinOp, &str); 15] = [
    (BinOp::Add, "add"),
    (BinOp::Sub, "sub"),
    (BinOp::Mul, "mul"),
    (BinOp::MulHuu, "mulhuu"),
    (BinOp::DivU, "divu"),
    (BinOp::RemU, "remu"),
    (BinOp::And, "and"),
    (BinOp::Or, "or"),
    (BinOp::Xor, "xor"),
    (BinOp::Sru, "sru"),
    (BinOp::Slu, "slu"),
    (BinOp::Srs, "srs"),
    (BinOp::LtS, "lts"),
    (BinOp::LtU, "ltu"),
    (BinOp::Eq, "eq"),
];

/// The wire name of a [`BinOp`].
pub fn bin_op_name(op: BinOp) -> &'static str {
    ALL_BIN_OPS
        .iter()
        .find(|(o, _)| *o == op)
        .map_or("unknown", |(_, n)| n)
}

/// Looks a [`BinOp`] up by wire name.
pub fn bin_op_from_name(name: &str) -> Option<BinOp> {
    ALL_BIN_OPS
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(o, _)| *o)
}

// ---------------------------------------------------------------------------
// Shared decode helpers (the tagged-array ones come from the source codec)
// ---------------------------------------------------------------------------

fn str_list(j: &Json, what: &str) -> DecodeResult<Vec<String>> {
    j.as_arr()
        .ok_or_else(|| format!("{what} is not an array"))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("non-string entry in {what}"))
        })
        .collect()
}

fn encode_str_list(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::str(s.clone())).collect())
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// Encodes a [`BExpr`] as a tagged array.
pub fn encode_bexpr(e: &BExpr) -> Json {
    match e {
        BExpr::Lit(w) => Json::Arr(vec![Json::str("lit"), Json::U64(*w)]),
        BExpr::Var(v) => Json::Arr(vec![Json::str("var"), Json::str(v.clone())]),
        BExpr::Load(size, addr) => Json::Arr(vec![
            Json::str("load"),
            encode_access_size(*size),
            encode_bexpr(addr),
        ]),
        BExpr::InlineTable { size, table, index } => Json::Arr(vec![
            Json::str("table"),
            encode_access_size(*size),
            Json::str(table.clone()),
            encode_bexpr(index),
        ]),
        BExpr::Op(op, a, b) => Json::Arr(vec![
            Json::str("op"),
            Json::str(bin_op_name(*op)),
            encode_bexpr(a),
            encode_bexpr(b),
        ]),
    }
}

/// Decodes a [`BExpr`] from its tagged-array form.
pub fn decode_bexpr(j: &Json) -> DecodeResult<BExpr> {
    let (tag, rest) = tagged(j, "bexpr")?;
    let t = tag.as_str();
    match t {
        "lit" => {
            arity(rest, 1, t)?;
            field(rest, 0, t)?
                .as_u64()
                .map(BExpr::Lit)
                .ok_or_else(|| "`lit` payload is not an integer".to_string())
        }
        "var" => {
            arity(rest, 1, t)?;
            Ok(BExpr::Var(str_field(rest, 0, t)?))
        }
        "load" => {
            arity(rest, 2, t)?;
            Ok(BExpr::Load(
                decode_access_size(field(rest, 0, t)?)?,
                Box::new(decode_bexpr(field(rest, 1, t)?)?),
            ))
        }
        "table" => {
            arity(rest, 3, t)?;
            Ok(BExpr::InlineTable {
                size: decode_access_size(field(rest, 0, t)?)?,
                table: str_field(rest, 1, t)?,
                index: Box::new(decode_bexpr(field(rest, 2, t)?)?),
            })
        }
        "op" => {
            arity(rest, 3, t)?;
            let name = str_field(rest, 0, t)?;
            let op = bin_op_from_name(&name)
                .ok_or_else(|| format!("unknown binary operator `{name}`"))?;
            Ok(BExpr::Op(
                op,
                Box::new(decode_bexpr(field(rest, 1, t)?)?),
                Box::new(decode_bexpr(field(rest, 2, t)?)?),
            ))
        }
        other => Err(format!("unknown bexpr tag `{other}`")),
    }
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

fn encode_bexpr_list(args: &[BExpr]) -> Json {
    Json::Arr(args.iter().map(encode_bexpr).collect())
}

fn decode_bexpr_list(j: &Json, what: &str) -> DecodeResult<Vec<BExpr>> {
    j.as_arr()
        .ok_or_else(|| format!("{what} is not an array"))?
        .iter()
        .map(decode_bexpr)
        .collect()
}

/// Encodes a [`Cmd`] as a tagged array.
pub fn encode_cmd(c: &Cmd) -> Json {
    match c {
        Cmd::Skip => Json::Arr(vec![Json::str("skip")]),
        Cmd::Set(var, e) => Json::Arr(vec![
            Json::str("set"),
            Json::str(var.clone()),
            encode_bexpr(e),
        ]),
        Cmd::Unset(var) => Json::Arr(vec![Json::str("unset"), Json::str(var.clone())]),
        Cmd::Store(size, addr, value) => Json::Arr(vec![
            Json::str("store"),
            encode_access_size(*size),
            encode_bexpr(addr),
            encode_bexpr(value),
        ]),
        Cmd::Seq(..) => {
            // A right-nested sequence is one array: every command of the
            // chain in order, ending in the first non-`seq` command.
            let mut items = vec![Json::str("seq")];
            let mut c = c;
            while let Cmd::Seq(a, b) = c {
                items.push(encode_cmd(a));
                c = b;
            }
            items.push(encode_cmd(c));
            Json::Arr(items)
        }
        Cmd::If { cond, then_, else_ } => Json::Arr(vec![
            Json::str("if"),
            encode_bexpr(cond),
            encode_cmd(then_),
            encode_cmd(else_),
        ]),
        Cmd::While { cond, body } => Json::Arr(vec![
            Json::str("while"),
            encode_bexpr(cond),
            encode_cmd(body),
        ]),
        Cmd::Call { rets, func, args } => Json::Arr(vec![
            Json::str("call"),
            encode_str_list(rets),
            Json::str(func.clone()),
            encode_bexpr_list(args),
        ]),
        Cmd::Interact { rets, action, args } => Json::Arr(vec![
            Json::str("interact"),
            encode_str_list(rets),
            Json::str(action.clone()),
            encode_bexpr_list(args),
        ]),
        Cmd::StackAlloc { var, nbytes, body } => Json::Arr(vec![
            Json::str("stackalloc"),
            Json::str(var.clone()),
            Json::U64(*nbytes),
            encode_cmd(body),
        ]),
    }
}

/// Decodes a [`Cmd`] from its tagged-array form.
pub fn decode_cmd(j: &Json) -> DecodeResult<Cmd> {
    let (tag, rest) = tagged(j, "cmd")?;
    let t = tag.as_str();
    match t {
        "skip" => {
            arity(rest, 0, t)?;
            Ok(Cmd::Skip)
        }
        "set" => {
            arity(rest, 2, t)?;
            Ok(Cmd::Set(
                str_field(rest, 0, t)?,
                decode_bexpr(field(rest, 1, t)?)?,
            ))
        }
        "unset" => {
            arity(rest, 1, t)?;
            Ok(Cmd::Unset(str_field(rest, 0, t)?))
        }
        "store" => {
            arity(rest, 3, t)?;
            Ok(Cmd::Store(
                decode_access_size(field(rest, 0, t)?)?,
                decode_bexpr(field(rest, 1, t)?)?,
                decode_bexpr(field(rest, 2, t)?)?,
            ))
        }
        "seq" => {
            let Some((last, init)) = rest.split_last().filter(|(_, init)| !init.is_empty())
            else {
                return Err(format!("`seq` has {} commands, expected at least 2", rest.len()));
            };
            let mut c = decode_cmd(last)?;
            if matches!(c, Cmd::Seq(..)) {
                return Err("`seq` chain continues in a nested `seq`".to_string());
            }
            for j in init.iter().rev() {
                c = Cmd::Seq(Box::new(decode_cmd(j)?), Box::new(c));
            }
            Ok(c)
        }
        "if" => {
            arity(rest, 3, t)?;
            Ok(Cmd::If {
                cond: decode_bexpr(field(rest, 0, t)?)?,
                then_: Box::new(decode_cmd(field(rest, 1, t)?)?),
                else_: Box::new(decode_cmd(field(rest, 2, t)?)?),
            })
        }
        "while" => {
            arity(rest, 2, t)?;
            Ok(Cmd::While {
                cond: decode_bexpr(field(rest, 0, t)?)?,
                body: Box::new(decode_cmd(field(rest, 1, t)?)?),
            })
        }
        "call" => {
            arity(rest, 3, t)?;
            Ok(Cmd::Call {
                rets: str_list(field(rest, 0, t)?, "call rets")?,
                func: str_field(rest, 1, t)?,
                args: decode_bexpr_list(field(rest, 2, t)?, "call args")?,
            })
        }
        "interact" => {
            arity(rest, 3, t)?;
            Ok(Cmd::Interact {
                rets: str_list(field(rest, 0, t)?, "interact rets")?,
                action: str_field(rest, 1, t)?,
                args: decode_bexpr_list(field(rest, 2, t)?, "interact args")?,
            })
        }
        "stackalloc" => {
            arity(rest, 3, t)?;
            Ok(Cmd::StackAlloc {
                var: str_field(rest, 0, t)?,
                nbytes: field(rest, 1, t)?
                    .as_u64()
                    .ok_or_else(|| "`stackalloc` nbytes is not an integer".to_string())?,
                body: Box::new(decode_cmd(field(rest, 2, t)?)?),
            })
        }
        other => Err(format!("unknown cmd tag `{other}`")),
    }
}

// ---------------------------------------------------------------------------
// Tables and functions
// ---------------------------------------------------------------------------

/// Encodes a [`BTable`] (bytes as hex).
pub fn encode_btable(t: &BTable) -> Json {
    Json::obj([
        ("name", Json::str(t.name.clone())),
        ("data", Json::str(hex_encode(&t.data))),
    ])
}

/// Decodes a [`BTable`].
pub fn decode_btable(j: &Json) -> DecodeResult<BTable> {
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| "table `name` missing or not a string".to_string())?;
    let data = j
        .get("data")
        .and_then(Json::as_str)
        .ok_or_else(|| "table `data` missing or not a string".to_string())?;
    Ok(BTable {
        name: name.to_string(),
        data: hex_decode(data)?,
    })
}

/// Encodes a [`BFunction`].
pub fn encode_bfunction(f: &BFunction) -> Json {
    Json::obj([
        ("name", Json::str(f.name.clone())),
        ("args", encode_str_list(&f.args)),
        ("rets", encode_str_list(&f.rets)),
        ("body", encode_cmd(&f.body)),
        (
            "tables",
            Json::Arr(f.tables.iter().map(encode_btable).collect()),
        ),
    ])
}

/// Decodes a [`BFunction`].
pub fn decode_bfunction(j: &Json) -> DecodeResult<BFunction> {
    let get = |k: &str| {
        j.get(k)
            .ok_or_else(|| format!("function is missing key `{k}`"))
    };
    Ok(BFunction {
        name: get("name")?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| "function `name` is not a string".to_string())?,
        args: str_list(get("args")?, "function args")?,
        rets: str_list(get("rets")?, "function rets")?,
        body: decode_cmd(get("body")?)?,
        tables: get("tables")?
            .as_arr()
            .ok_or_else(|| "function `tables` is not an array".to_string())?
            .iter()
            .map(decode_btable)
            .collect::<DecodeResult<Vec<BTable>>>()?,
    })
}

// ---------------------------------------------------------------------------
// Machine-code artifacts
// ---------------------------------------------------------------------------

/// Encodes an [`RvArtifact`]. The assembly travels as its `listing()` text
/// — reviewable in a store dump, decoded by the total
/// [`crate::rv::parse_listing`] — and table bytes as hex, like
/// [`encode_btable`].
///
/// [`RvArtifact`]: crate::rv_compile::RvArtifact
pub fn encode_rv_artifact(a: &crate::rv_compile::RvArtifact) -> Json {
    let slots = |xs: &[usize]| Json::Arr(xs.iter().map(|&i| Json::U64(i as u64)).collect());
    Json::obj([
        ("name", Json::str(a.name.clone())),
        ("asm", Json::str(crate::rv::listing(&a.asm))),
        ("locals", encode_str_list(&a.locals)),
        ("arg_slots", slots(&a.arg_slots)),
        ("ret_slots", slots(&a.ret_slots)),
        (
            "tables",
            Json::Arr(
                a.tables
                    .iter()
                    .map(|(name, data)| {
                        Json::obj([
                            ("name", Json::str(name.clone())),
                            ("data", Json::str(hex_encode(data))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes an [`RvArtifact`]. Total: any malformed shape — including an
/// unparseable assembly listing or a slot index past the frame — is an
/// `Err` the store treats as corruption.
///
/// [`RvArtifact`]: crate::rv_compile::RvArtifact
pub fn decode_rv_artifact(j: &Json) -> DecodeResult<crate::rv_compile::RvArtifact> {
    let get = |k: &str| j.get(k).ok_or_else(|| format!("rv artifact is missing key `{k}`"));
    let name = get("name")?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| "rv artifact `name` is not a string".to_string())?;
    let asm_text = get("asm")?
        .as_str()
        .ok_or_else(|| "rv artifact `asm` is not a string".to_string())?;
    let asm = crate::rv::parse_listing(asm_text)
        .map_err(|e| format!("rv artifact assembly does not parse: {e}"))?;
    let locals = str_list(get("locals")?, "rv artifact locals")?;
    let slots = |k: &str| -> DecodeResult<Vec<usize>> {
        let out = get(k)?
            .as_arr()
            .ok_or_else(|| format!("rv artifact `{k}` is not an array"))?
            .iter()
            .map(|v| {
                v.as_u64()
                    .map(|i| i as usize)
                    .ok_or_else(|| format!("non-integer entry in rv artifact `{k}`"))
            })
            .collect::<DecodeResult<Vec<usize>>>()?;
        if let Some(&bad) = out.iter().find(|&&i| i >= locals.len()) {
            return Err(format!("rv artifact `{k}` index {bad} is past the frame"));
        }
        Ok(out)
    };
    let arg_slots = slots("arg_slots")?;
    let ret_slots = slots("ret_slots")?;
    let tables = get("tables")?
        .as_arr()
        .ok_or_else(|| "rv artifact `tables` is not an array".to_string())?
        .iter()
        .map(|t| {
            let name = t
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| "rv table `name` missing or not a string".to_string())?;
            let data = t
                .get("data")
                .and_then(Json::as_str)
                .ok_or_else(|| "rv table `data` missing or not a string".to_string())?;
            Ok((name.to_string(), hex_decode(data)?))
        })
        .collect::<DecodeResult<Vec<(String, Vec<u8>)>>>()?;
    Ok(crate::rv_compile::RvArtifact { name, asm, locals, arg_slots, ret_slots, tables })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_function() -> BFunction {
        let body = Cmd::seq([
            Cmd::set("acc", BExpr::lit(0)),
            Cmd::while_(
                BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("n")),
                Cmd::seq([
                    Cmd::set(
                        "b",
                        BExpr::table(
                            AccessSize::One,
                            "tbl",
                            BExpr::load(AccessSize::One, BExpr::var("p")),
                        ),
                    ),
                    Cmd::store(
                        AccessSize::Eight,
                        BExpr::var("p"),
                        BExpr::op(BinOp::Xor, BExpr::var("acc"), BExpr::var("b")),
                    ),
                    Cmd::Call {
                        rets: vec!["acc".into()],
                        func: "helper".into(),
                        args: vec![BExpr::var("acc")],
                    },
                    Cmd::Interact {
                        rets: vec![],
                        action: "tell".into(),
                        args: vec![BExpr::var("acc")],
                    },
                    Cmd::StackAlloc {
                        var: "scratch".into(),
                        nbytes: 16,
                        body: Box::new(Cmd::Unset("b".into())),
                    },
                ]),
            ),
            Cmd::if_(BExpr::var("acc"), Cmd::Skip, Cmd::set("acc", BExpr::lit(1))),
        ]);
        BFunction::new("sample", ["p", "n", "i"], ["acc"], body)
            .with_table(BTable { name: "tbl".into(), data: (0u8..=255).collect() })
    }

    #[test]
    fn bin_op_names_are_unique_and_invertible() {
        for (op, name) in ALL_BIN_OPS {
            assert_eq!(bin_op_name(op), name);
            assert_eq!(bin_op_from_name(name), Some(op));
        }
        let mut names: Vec<&str> = ALL_BIN_OPS.iter().map(|(_, n)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL_BIN_OPS.len());
    }

    #[test]
    fn functions_round_trip_through_rendered_json() {
        let f = sample_function();
        let j = encode_bfunction(&f);
        assert_eq!(decode_bfunction(&j).unwrap(), f);
        let reparsed = rupicola_lang::json::parse(&j.render()).unwrap();
        assert_eq!(decode_bfunction(&reparsed).unwrap(), f);
    }

    #[test]
    fn access_sizes_round_trip() {
        for s in [AccessSize::One, AccessSize::Two, AccessSize::Four, AccessSize::Eight] {
            assert_eq!(decode_access_size(&encode_access_size(s)).unwrap(), s);
        }
        assert!(decode_access_size(&Json::U64(3)).is_err());
    }

    #[test]
    fn a_long_sequence_encodes_as_one_array() {
        // A left-nested pair, then 2,000 statements, right-nested.
        let pair = Cmd::seq([Cmd::set("a", BExpr::lit(1)), Cmd::set("b", BExpr::lit(2))]);
        let sets = (0..2000u64).map(|i| Cmd::set("x", BExpr::lit(i)));
        let body = Cmd::seq(std::iter::once(pair).chain(sets));
        let j = encode_cmd(&body);
        assert_eq!(j.as_arr().map(<[Json]>::len), Some(2002), "tag, the pair, 2,000 sets");
        let reparsed = rupicola_lang::json::parse(&j.render_compact()).unwrap();
        assert_eq!(decode_cmd(&reparsed).unwrap(), body);
    }

    #[test]
    fn decode_rejects_malformed_commands() {
        for bad in [
            r#"["set","x"]"#,
            r#"["op","nosuchop",["lit",1],["lit",2]]"#,
            r#"["store",3,["var","p"],["lit",0]]"#,
            r#"["frobnicate"]"#,
            r#"["seq",["skip"]]"#,
            // The chain's last command belongs on the chain.
            r#"["seq",["skip"],["seq",["skip"],["skip"]]]"#,
        ] {
            let j = rupicola_lang::json::parse(bad).unwrap();
            assert!(
                decode_cmd(&j).is_err() && decode_bexpr(&j).is_err(),
                "accepted {bad}"
            );
        }
    }

    // `sample_function` uses call/interact/stackalloc, which the RV
    // backend rejects; the machine-code codec tests use a loop with a
    // table so every artifact field is populated.
    fn rv_sample_function() -> BFunction {
        let body = Cmd::seq([
            Cmd::set("acc", BExpr::lit(0)),
            Cmd::set("i", BExpr::lit(0)),
            Cmd::while_(
                BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("n")),
                Cmd::seq([
                    Cmd::set(
                        "acc",
                        BExpr::op(
                            BinOp::Add,
                            BExpr::var("acc"),
                            BExpr::table(AccessSize::One, "tbl", BExpr::var("i")),
                        ),
                    ),
                    Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1))),
                ]),
            ),
        ]);
        BFunction::new("tblsum", ["n"], ["acc"], body)
            .with_table(BTable { name: "tbl".into(), data: (0..16u8).collect() })
    }

    #[test]
    fn rv_artifacts_round_trip_through_rendered_json() {
        let f = rv_sample_function();
        let art = crate::rv_compile::compile_function(&f).unwrap();
        let j = encode_rv_artifact(&art);
        assert_eq!(decode_rv_artifact(&j).unwrap(), art);
        let reparsed = rupicola_lang::json::parse(&j.render()).unwrap();
        assert_eq!(decode_rv_artifact(&reparsed).unwrap(), art);
    }

    #[test]
    fn rv_artifact_decode_is_total_on_corruption() {
        let art = crate::rv_compile::compile_function(&rv_sample_function()).unwrap();
        let good = encode_rv_artifact(&art);
        let corrupt = |k: &str, v: Json| {
            let Json::Obj(fields) = good.clone() else { unreachable!() };
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(key, val)| if key == k { (key, v.clone()) } else { (key, val) })
                    .collect(),
            )
        };
        for (k, v) in [
            ("asm", Json::str("  frobnicate x1")),
            ("asm", Json::U64(7)),
            ("locals", Json::Null),
            ("arg_slots", Json::Arr(vec![Json::U64(999)])),
            ("ret_slots", Json::str("nope")),
            ("tables", Json::Arr(vec![Json::obj([("name", Json::str("t"))])])),
        ] {
            assert!(decode_rv_artifact(&corrupt(k, v)).is_err(), "accepted corrupted `{k}`");
        }
    }
}
