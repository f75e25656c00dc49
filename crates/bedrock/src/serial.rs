//! JSON codec for Bedrock2 syntax.
//!
//! The target-language half of the artifact codec (see
//! `rupicola_lang::codec` for the conventions): [`BExpr`], [`Cmd`],
//! [`BTable`], and [`BFunction`], encoded as a `rupicola_lang::json::Json`
//! tree and read back from text with a [`Reader`].
//! A compiled artifact stores the full Bedrock2 function (plus any linked
//! callees), so a warm cache hit can skip the engine entirely and hand the
//! deserialized function straight to the independent checker.
//!
//! Same rules as the source codec: tagged arrays for enums with payloads,
//! stable lowercase names for fieldless enums, hex strings for table
//! bytes, total never-panicking readers that surface every shape mismatch
//! as an `Err` (which the store treats as corruption).

use crate::ast::{AccessSize, BExpr, BFunction, BTable, BinOp, Cmd};
use rupicola_lang::codec::{hex_decode, hex_encode, DecodeResult, Fields};
use rupicola_lang::json::{Json, Reader};

// ---------------------------------------------------------------------------
// Fieldless enums
// ---------------------------------------------------------------------------

/// Encodes an [`AccessSize`] as its byte width.
pub fn encode_access_size(s: AccessSize) -> Json {
    Json::U64(s.bytes())
}

/// Reads an [`AccessSize`] from its byte width.
pub fn read_access_size(r: &mut Reader<'_>) -> DecodeResult<AccessSize> {
    match r.u64()? {
        1 => Ok(AccessSize::One),
        2 => Ok(AccessSize::Two),
        4 => Ok(AccessSize::Four),
        8 => Ok(AccessSize::Eight),
        n => Err(format!("expected access size, got {n}")),
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

/// Reads a [`BExpr`] from its tagged-array form.
pub fn read_bexpr(r: &mut Reader<'_>) -> DecodeResult<BExpr> {
    r.begin_arr()?;
    let tag = r.str()?;
    let fields = bexpr_fields(&tag).ok_or_else(|| format!("unknown bexpr tag `{tag}`"))?;
    let e = fields(r)?;
    r.end_arr()?;
    Ok(e)
}

/// The reader of a bexpr tag's fields: a table, so that each level of a
/// deep term costs the stack only its own tag's frame (see
/// `rupicola_lang::codec`).
fn bexpr_fields(tag: &str) -> Option<Fields<BExpr>> {
    Some(match tag {
        "lit" => |r| Ok(BExpr::Lit(r.u64()?)),
        "var" => |r| Ok(BExpr::Var(r.string()?)),
        "load" => |r| {
            let size = read_access_size(r)?;
            Ok(BExpr::Load(size, Box::new(read_bexpr(r)?)))
        },
        "table" => |r| {
            Ok(BExpr::InlineTable {
                size: read_access_size(r)?,
                table: r.string()?,
                index: Box::new(read_bexpr(r)?),
            })
        },
        "op" => |r| {
            let name = r.str()?;
            let op = bin_op_from_name(&name)
                .ok_or_else(|| format!("unknown binary operator `{name}`"))?;
            let a = read_bexpr(r)?;
            Ok(BExpr::Op(op, Box::new(a), Box::new(read_bexpr(r)?)))
        },
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

fn encode_bexpr_list(args: &[BExpr]) -> Json {
    Json::Arr(args.iter().map(encode_bexpr).collect())
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

/// Reads a [`Cmd`] from its tagged-array form.
pub fn read_cmd(r: &mut Reader<'_>) -> DecodeResult<Cmd> {
    r.begin_arr()?;
    let tag = r.str()?;
    let fields = cmd_fields(&tag).ok_or_else(|| format!("unknown cmd tag `{tag}`"))?;
    let c = fields(r)?;
    r.end_arr()?;
    Ok(c)
}

/// The reader of a cmd tag's fields (a table, like [`bexpr_fields`]).
fn cmd_fields(tag: &str) -> Option<Fields<Cmd>> {
    Some(match tag {
        "skip" => |_| Ok(Cmd::Skip),
        "set" => |r| {
            let var = r.string()?;
            Ok(Cmd::Set(var, read_bexpr(r)?))
        },
        "unset" => |r| Ok(Cmd::Unset(r.string()?)),
        "store" => |r| {
            let size = read_access_size(r)?;
            let addr = read_bexpr(r)?;
            Ok(Cmd::Store(size, addr, read_bexpr(r)?))
        },
        "seq" => read_seq,
        "if" => |r| {
            Ok(Cmd::If {
                cond: read_bexpr(r)?,
                then_: Box::new(read_cmd(r)?),
                else_: Box::new(read_cmd(r)?),
            })
        },
        "while" => |r| Ok(Cmd::While { cond: read_bexpr(r)?, body: Box::new(read_cmd(r)?) }),
        "call" => |r| {
            Ok(Cmd::Call {
                rets: r.list(Reader::string)?,
                func: r.string()?,
                args: r.list(read_bexpr)?,
            })
        },
        "interact" => |r| {
            Ok(Cmd::Interact {
                rets: r.list(Reader::string)?,
                action: r.string()?,
                args: r.list(read_bexpr)?,
            })
        },
        "stackalloc" => |r| {
            Ok(Cmd::StackAlloc {
                var: r.string()?,
                nbytes: r.u64()?,
                body: Box::new(read_cmd(r)?),
            })
        },
        _ => return None,
    })
}

/// The commands of a `seq` chain, read forward and assembled from the end.
fn read_seq(r: &mut Reader<'_>) -> DecodeResult<Cmd> {
    let mut cmds = Vec::new();
    while r.more()? {
        cmds.push(read_cmd(r)?);
    }
    let Some(mut c) = cmds.pop().filter(|_| !cmds.is_empty()) else {
        return Err(format!("`seq` has {} commands, expected at least 2", cmds.len()));
    };
    if matches!(c, Cmd::Seq(..)) {
        return Err("`seq` chain continues in a nested `seq`".to_string());
    }
    while let Some(first) = cmds.pop() {
        c = Cmd::Seq(Box::new(first), Box::new(c));
    }
    Ok(c)
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

/// Reads a [`BTable`].
pub fn read_btable(r: &mut Reader<'_>) -> DecodeResult<BTable> {
    r.begin_obj()?;
    r.key("name")?;
    let name = r.string()?;
    r.key("data")?;
    let data = hex_decode(&r.str()?)?;
    r.end_obj()?;
    Ok(BTable { name, data })
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

/// Reads a [`BFunction`].
pub fn read_bfunction(r: &mut Reader<'_>) -> DecodeResult<BFunction> {
    r.begin_obj()?;
    r.key("name")?;
    let name = r.string()?;
    r.key("args")?;
    let args = r.list(Reader::string)?;
    r.key("rets")?;
    let rets = r.list(Reader::string)?;
    r.key("body")?;
    let body = read_cmd(r)?;
    r.key("tables")?;
    let tables = r.list(read_btable)?;
    r.end_obj()?;
    Ok(BFunction { name, args, rets, body, tables })
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

/// Reads an [`RvArtifact`]. Total: any malformed shape — including an
/// unparseable assembly listing or a slot index past the frame — is an
/// `Err` the store treats as corruption.
///
/// [`RvArtifact`]: crate::rv_compile::RvArtifact
pub fn read_rv_artifact(r: &mut Reader<'_>) -> DecodeResult<crate::rv_compile::RvArtifact> {
    r.begin_obj()?;
    r.key("name")?;
    let name = r.string()?;
    r.key("asm")?;
    let asm = crate::rv::parse_listing(&r.str()?)
        .map_err(|e| format!("rv artifact assembly does not parse: {e}"))?;
    r.key("locals")?;
    let locals = r.list(Reader::string)?;
    let mut slots = |k: &str| -> DecodeResult<Vec<usize>> {
        r.key(k)?;
        let out = r.list(Reader::u64)?;
        match out.iter().find(|&&i| i >= locals.len() as u64) {
            Some(bad) => Err(format!("rv artifact `{k}` index {bad} is past the frame")),
            None => Ok(out.into_iter().map(|i| i as usize).collect()),
        }
    };
    let arg_slots = slots("arg_slots")?;
    let ret_slots = slots("ret_slots")?;
    r.key("tables")?;
    let tables = r.list(|r| {
        let table = read_btable(r)?;
        Ok::<_, String>((table.name, table.data))
    })?;
    r.end_obj()?;
    Ok(crate::rv_compile::RvArtifact { name, asm, locals, arg_slots, ret_slots, tables })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_lang::codec::read_text;

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
        for text in [j.render(), j.render_compact()] {
            assert_eq!(read_text(&text, read_bfunction).unwrap(), f);
        }
    }

    #[test]
    fn access_sizes_round_trip() {
        for s in [AccessSize::One, AccessSize::Two, AccessSize::Four, AccessSize::Eight] {
            let text = encode_access_size(s).render_compact();
            assert_eq!(read_text(&text, read_access_size).unwrap(), s);
        }
        assert!(read_text("3", read_access_size).is_err());
    }

    #[test]
    fn a_long_sequence_encodes_as_one_array() {
        // A left-nested pair, then 2,000 statements, right-nested.
        let pair = Cmd::seq([Cmd::set("a", BExpr::lit(1)), Cmd::set("b", BExpr::lit(2))]);
        let sets = (0..2000u64).map(|i| Cmd::set("x", BExpr::lit(i)));
        let body = Cmd::seq(std::iter::once(pair).chain(sets));
        let j = encode_cmd(&body);
        assert_eq!(j.as_arr().map(<[Json]>::len), Some(2002), "tag, the pair, 2,000 sets");
        assert_eq!(read_text(&j.render_compact(), read_cmd).unwrap(), body);
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
            assert!(
                read_text(bad, read_cmd).is_err() && read_text(bad, read_bexpr).is_err(),
                "accepted {bad}"
            );
        }
    }

    // A hand-built artifact with every field populated: labels, branches,
    // a table symbol, frame loads and stores, two tables.
    fn rv_sample_artifact() -> crate::rv_compile::RvArtifact {
        use crate::rv::{Asm, Imm};
        crate::rv_compile::RvArtifact {
            name: "tblsum".into(),
            asm: vec![
                Asm::Label(".Lhead0".into()),
                Asm::Ld(5, 2, 8),
                Asm::Ld(6, 2, 0),
                Asm::Sltu(5, 5, 6),
                Asm::Beq(5, 0, ".Lendw1".into()),
                Asm::Li(6, Imm::TableBase("tbl".into())),
                Asm::Lbu(5, 6, 0),
                Asm::Sd(5, 2, 16),
                Asm::Addi(5, 5, -1),
                Asm::J(".Lhead0".into()),
                Asm::Label(".Lendw1".into()),
                Asm::Li(7, Imm::Lit(42)),
                Asm::Halt,
            ],
            locals: vec!["n".into(), "i".into(), "acc".into()],
            arg_slots: vec![0],
            ret_slots: vec![2],
            tables: vec![("tbl".into(), (0..16u8).collect()), ("empty".into(), vec![])],
        }
    }

    #[test]
    fn rv_artifacts_round_trip_through_rendered_json() {
        let art = rv_sample_artifact();
        let j = encode_rv_artifact(&art);
        for text in [j.render(), j.render_compact()] {
            assert_eq!(read_text(&text, read_rv_artifact).unwrap(), art);
        }
    }

    #[test]
    fn rv_artifact_decode_is_total_on_corruption() {
        let good = encode_rv_artifact(&rv_sample_artifact());
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
            let text = corrupt(k, v).render_compact();
            assert!(read_text(&text, read_rv_artifact).is_err(), "accepted corrupted `{k}`");
        }
    }
}
