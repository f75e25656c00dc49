//! End-to-end integration: model → relational compilation → witness
//! checking → Bedrock2 execution → C and Rust rendering, across the whole
//! benchmark suite.

use rupicola::bedrock::{cprint, rsprint, ExecState, Interpreter, NoExternals, Program};
use rupicola::core::check::{check_with, CheckConfig};
use rupicola::core::fnspec::{concretize, RetSpec};
use rupicola::ext::standard_dbs;
use rupicola::lang::eval::{eval_model, World};
use rupicola::lang::Value;
use rupicola::programs::suite;

fn workload_for(name: &str, n: usize) -> Vec<u8> {
    let mut state = 0x1234_5678_u64 | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match name {
                // Text-ish inputs for the string programs.
                "upstr" | "fasta" | "utf8" => 0x20 + (state & 0x3f) as u8,
                _ => (state & 0xff) as u8,
            }
        })
        .collect()
}

/// Compile, check, and cross-execute every suite program on a concrete
/// workload: the interpreter run of the generated Bedrock2 must agree with
/// the source semantics.
#[test]
fn suite_pipeline_agrees_with_source_semantics() {
    let dbs = standard_dbs();
    for entry in suite() {
        let name = entry.info.name;
        if name == "m3s" {
            continue; // scalar ABI; covered below
        }
        let compiled = (entry.compiled)().unwrap_or_else(|e| panic!("{name}: {e}"));
        let config = CheckConfig { vectors: 8, ..CheckConfig::default() };
        check_with(&compiled, &dbs, &config).unwrap_or_else(|e| panic!("{name}: {e}"));

        let data = workload_for(name, 64);
        let input = Value::byte_list(data.iter().copied());
        let expected = eval_model(&compiled.model, std::slice::from_ref(&input), &mut World::default())
            .unwrap_or_else(|e| panic!("{name} source eval: {e}"));

        let mut program = Program::new();
        program.insert(compiled.function.clone());
        let interp = Interpreter::new(&program);
        let call = concretize(&compiled.spec, &compiled.model.params, &[input]).unwrap();
        let mut state = ExecState::new(call.mem);
        let rets = interp
            .call(name, &call.args, &mut state, &mut NoExternals, 10_000_000)
            .unwrap_or_else(|e| panic!("{name} target run: {e}"));

        match &compiled.spec.rets[0] {
            RetSpec::Scalar { .. } => {
                assert_eq!(rets[0], expected.to_scalar_word().unwrap(), "{name}");
            }
            RetSpec::InPlace { .. } => {
                let region = state.mem.region(call.args[0]).unwrap();
                assert_eq!(
                    Value::from_layout_bytes(rupicola::lang::ElemKind::Byte, region).unwrap(),
                    expected,
                    "{name}"
                );
            }
        }
    }
}

#[test]
fn m3s_scalar_pipeline() {
    let compiled = rupicola::programs::m3s::compiled().unwrap();
    let mut program = Program::new();
    program.insert(compiled.function.clone());
    let interp = Interpreter::new(&program);
    for k in [0u32, 1, 0xdead_beef, u32::MAX] {
        let mut state = ExecState::default();
        let rets = interp
            .call("m3s", &[u64::from(k)], &mut state, &mut NoExternals, 10_000)
            .unwrap();
        assert_eq!(rets[0], u64::from(rupicola::programs::m3s::reference(k)));
    }
}

/// Every suite program renders to C (with the expected shape markers) and
/// transpiles to Rust.
#[test]
fn suite_renders_to_c_and_rust() {
    for entry in suite() {
        let compiled = (entry.compiled)().unwrap();
        let c = cprint::function_to_c(&compiled.function);
        assert!(c.contains(&format!("{}(", entry.info.name)), "{c}");
        let rs = rsprint::function_to_rust(&compiled.function, &rupicola::analysis::rust_regions(&compiled))
            .unwrap();
        assert!(rs.contains(&format!("pub fn {}(", entry.info.name)), "{rs}");
        if entry.info.features.loops {
            assert!(c.contains("while"), "{}: expected a loop\n{c}", entry.info.name);
        }
        if entry.info.features.inline {
            assert!(c.contains("static const"), "{}: expected a table", entry.info.name);
        }
    }
}

/// The derivation witnesses are structurally meaningful: they cite only
/// registered lemmas and record the loop invariants for loop programs.
#[test]
fn suite_derivations_are_well_formed() {
    let dbs = standard_dbs();
    for entry in suite() {
        let compiled = (entry.compiled)().unwrap();
        let mut lemmas = Vec::new();
        let mut invariants = 0;
        compiled.derivation.root.walk(&mut |n| {
            lemmas.push(n.lemma.clone());
            if n.invariant.is_some() {
                invariants += 1;
            }
        });
        for l in &lemmas {
            assert!(dbs.knows_lemma(l), "{}: unknown lemma {l}", entry.info.name);
        }
        if entry.info.features.loops {
            assert!(invariants > 0, "{}: loop program without invariant", entry.info.name);
        }
    }
}

/// Re-running the compiler is deterministic: same function, same witness.
#[test]
fn compilation_is_deterministic() {
    for entry in suite() {
        let a = (entry.compiled)().unwrap();
        let b = (entry.compiled)().unwrap();
        assert_eq!(a.function, b.function, "{}", entry.info.name);
        assert_eq!(a.derivation, b.derivation, "{}", entry.info.name);
    }
}
