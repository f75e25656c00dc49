//! The full end-to-end leg: functional model → relational compilation →
//! Bedrock2 → RV64 assembly → ISA simulation, cross-checked against the
//! executable specifications.
//!
//! This is the "compiled to RISC-V, yielding an end-to-end proof from
//! high-level specifications to assembly" pipeline of §4.1.3, with the
//! proof replaced by differential validation at every level (see
//! DESIGN.md).

use rupicola::bedrock::rv_compile::RvArtifact;
use rupicola::bedrock::{BFunction, Memory};
use rupicola::rv::{lower_allocated, run_artifact, Assignment};
use rupicola::programs::{crc32, fasta, fnv1a, ip, m3s, upstr, utf8};

fn workload(n: usize, text: bool) -> Vec<u8> {
    let mut state = 0xBEEF_u64 | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if text {
                0x20 + (state & 0x3f) as u8
            } else {
                (state & 0xff) as u8
            }
        })
        .collect()
}

/// Lowers a compiled suite program with every local in the frame.
fn spill_all(function: &BFunction) -> RvArtifact {
    lower_allocated(function, &Assignment::default())
        .unwrap_or_else(|e| panic!("{}: {e}", function.name))
}

/// Runs a compiled suite program on a buffer through the RV64 simulator.
fn rv_run_on_buffer(function: &BFunction, data: &[u8]) -> (Vec<u64>, Vec<u8>) {
    let art = spill_all(function);
    let mut mem = Memory::new();
    let p = mem.alloc(data.to_vec());
    let rets = run_artifact(&art, &mut mem, &[p, data.len() as u64], 50_000_000)
        .unwrap_or_else(|e| panic!("{}: {e}", function.name))
        .rets;
    let out = mem.region(p).expect("buffer survives").to_vec();
    (rets, out)
}

#[test]
fn fnv1a_to_assembly() {
    let compiled = fnv1a::compiled().unwrap();
    let data = workload(257, false);
    let (rets, _) = rv_run_on_buffer(&compiled.function, &data);
    assert_eq!(rets, vec![fnv1a::reference(&data)]);
}

#[test]
fn upstr_to_assembly() {
    let compiled = upstr::compiled().unwrap();
    let data = workload(300, true);
    let (_, out) = rv_run_on_buffer(&compiled.function, &data);
    assert_eq!(out, upstr::reference(&data));
}

#[test]
fn utf8_to_assembly() {
    let compiled = utf8::compiled().unwrap();
    let data = workload(128, true);
    let (rets, _) = rv_run_on_buffer(&compiled.function, &data);
    assert_eq!(rets, vec![utf8::reference(&data)]);
}

#[test]
fn m3s_to_assembly() {
    let compiled = m3s::compiled().unwrap();
    let art = spill_all(&compiled.function);
    for k in [0u32, 1, 0xdead_beef, u32::MAX] {
        let mut mem = Memory::new();
        let rets = run_artifact(&art, &mut mem, &[u64::from(k)], 10_000).unwrap().rets;
        assert_eq!(rets, vec![u64::from(m3s::reference(k))]);
    }
}

#[test]
fn ip_to_assembly() {
    let compiled = ip::compiled().unwrap();
    let data = workload(96, false);
    let (rets, _) = rv_run_on_buffer(&compiled.function, &data);
    assert_eq!(rets, vec![u64::from(ip::reference(&data))]);
}

#[test]
fn fasta_to_assembly() {
    let compiled = fasta::compiled().unwrap();
    let data = b"GATTACA and friends: ACGTacgtNN".to_vec();
    let (_, out) = rv_run_on_buffer(&compiled.function, &data);
    assert_eq!(out, fasta::reference(&data));
}

#[test]
fn crc32_to_assembly() {
    let compiled = crc32::compiled().unwrap();
    let data = b"123456789".to_vec();
    let (rets, _) = rv_run_on_buffer(&compiled.function, &data);
    assert_eq!(rets, vec![0xCBF4_3926]);
}

/// The three execution routes of the generated code agree: the Bedrock2
/// interpreter, the RV64 simulation, and the reference.
#[test]
fn all_routes_agree_on_crc32() {
    use rupicola::bedrock::{ExecState, Interpreter, NoExternals, Program};
    let compiled = crc32::compiled().unwrap();
    let data = workload(64, false);

    // Route 1: Bedrock2 interpreter.
    let call = rupicola::core::fnspec::concretize(
        &compiled.spec,
        &compiled.model.params,
        &[rupicola::lang::Value::byte_list(data.iter().copied())],
    )
    .unwrap();
    let mut program = Program::new();
    program.insert(compiled.function.clone());
    let interp = Interpreter::new(&program);
    let mut state = ExecState::new(call.mem);
    let r1 = interp
        .call("crc32", &call.args, &mut state, &mut NoExternals, 10_000_000)
        .unwrap();

    // Route 2: RV64 simulation.
    let (r2, _) = rv_run_on_buffer(&compiled.function, &data);

    // Route 3: the executable specification.
    let r3 = u64::from(crc32::reference(&data));

    assert_eq!(r1, r2);
    assert_eq!(r2, vec![r3]);
}
