//! The full pipeline down to assembly: functional model → relational
//! compilation → Bedrock2 → RV64 → simulated execution.
//!
//! "The program can be further compiled using Bedrock2's verified compiler
//! (with support for linking against separately compiled … fragments of
//! RISC-V machine code as needed), or it can be pretty-printed to C" —
//! §3.2. This example takes the first route on the `ip` checksum.
//!
//! Run with `cargo run --example riscv_pipeline`.

use rupicola::bedrock::rv::listing;
use rupicola::bedrock::Memory;
use rupicola::core::check::check;
use rupicola::ext::standard_dbs;
use rupicola::programs::ip;
use rupicola::rv::{lower_allocated, run_artifact, Assignment};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Compile the model and certify the Bedrock2 level.
    let compiled = ip::compiled()?;
    check(&compiled, &standard_dbs())?;
    println!(
        "`ip` certified at the Bedrock2 level: {} statements, {} side conditions\n",
        compiled.function.statement_count(),
        compiled.derivation.side_cond_count
    );

    // 2. Lower to RV64, every local in the frame (the empty register
    //    assignment).
    let artifact = lower_allocated(&compiled.function, &Assignment::default())
        .map_err(std::io::Error::other)?;
    println!(
        "== RV64 assembly ({} instructions; locals frame: {:?}) ==",
        artifact.asm.iter().filter(|a| !matches!(a, rupicola::bedrock::rv::Asm::Label(_))).count(),
        artifact.locals
    );
    println!("{}", listing(&artifact.asm));

    // 3. Execute in the ISA simulator and compare with the reference.
    let packet = [0x45u8, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
                  0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7];
    let mut mem = Memory::new();
    let p = mem.alloc(packet.to_vec());
    let rets = run_artifact(&artifact, &mut mem, &[p, packet.len() as u64], 1_000_000)
        .map_err(std::io::Error::other)?
        .rets;
    println!("checksum(IPv4 header) = {:#06x}", rets[0]);
    assert_eq!(rets[0], u64::from(ip::reference(&packet)));
    // The classic worked example: this header checksums to 0xb861.
    assert_eq!(rets[0], 0xb861);
    println!("matches the RFC 1071 worked example (0xb861) ✓");
    Ok(())
}
