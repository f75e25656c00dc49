//! Benchmark-harness support: the generated native code, workload
//! generators, and uniform per-program drivers for the three Figure 2
//! series (Rupicola-generated, handwritten, extraction baseline).
//!
//! Drivers uniformly take `&mut Vec<u8>` because the generated functions
//! need a growable memory (stack allocations extend it).
#![allow(clippy::ptr_arg)]

pub mod json;
pub mod rvsupport;
pub mod timing;

/// The certified Bedrock2 functions, transpiled to Rust at build time (see
/// `build.rs`). A function whose every access goes through its spec's one
/// region borrows `mem[s..][..extent]` once at entry, so a call whose
/// region does not fit in `mem` panics there, and indexes that slice by
/// offset; `m3s` touches no memory. The drivers below place each buffer at
/// offset 0; the tests also place it at a non-zero base.
pub mod generated {
    include!(concat!(env!("OUT_DIR"), "/generated.rs"));
}

use rupicola_programs::{crc32, fasta, fnv1a, ip, m3s, upstr, utf8};

/// An empty scratch directory `rupicola-<tag>-<pid>` under the system
/// temp dir (whatever an earlier run left there is removed).
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rupicola-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One step of the splitmix-style stream the seeded service drivers draw
/// from, so their request sequences are pure functions of the seed.
pub fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// Deterministic pseudo-random workload bytes (the "1 MiB input" of
/// Figure 2).
pub fn make_input(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 0xff) as u8
        })
        .collect()
}

/// ASCII-ish workload (for upstr/fasta/utf8: mostly printable bytes).
pub fn make_text_input(seed: u64, len: usize) -> Vec<u8> {
    make_input(seed, len)
        .into_iter()
        .map(|b| 0x20 + (b % 0x5f))
        .collect()
}

/// One benchmarked implementation of one program: a uniform
/// buffer-consuming driver returning a checksum word (so results can be
/// cross-checked between series).
pub type Driver = fn(&mut Vec<u8>) -> u64;

/// One Figure 2 row: the four series for one program.
#[derive(Debug)]
pub struct Fig2Row {
    /// Program name.
    pub name: &'static str,
    /// Which input generator the program expects.
    pub text_input: bool,
    /// The Rupicola-generated native code.
    pub generated: Driver,
    /// The generated code after the translation-validated optimization
    /// pipeline (`<name>_opt` in [`generated`]).
    pub optimized: Driver,
    /// The handwritten C-style baseline.
    pub handwritten: Driver,
    /// The linked-list extraction baseline.
    pub extraction: Driver,
}

// --- fnv1a ---
fn g_fnv1a(buf: &mut Vec<u8>) -> u64 {
    let len = buf.len() as u64;
    generated::fnv1a(buf, 0, len)
}
fn h_fnv1a(buf: &mut Vec<u8>) -> u64 {
    fnv1a::baseline(buf)
}
fn n_fnv1a(buf: &mut Vec<u8>) -> u64 {
    fnv1a::naive(buf)
}

// --- utf8 ---
fn g_utf8(buf: &mut Vec<u8>) -> u64 {
    let len = buf.len() as u64;
    generated::utf8(buf, 0, len)
}
fn h_utf8(buf: &mut Vec<u8>) -> u64 {
    utf8::baseline(buf)
}
fn n_utf8(buf: &mut Vec<u8>) -> u64 {
    utf8::naive(buf)
}

// --- upstr ---
fn g_upstr(buf: &mut Vec<u8>) -> u64 {
    let len = buf.len() as u64;
    generated::upstr(buf, 0, len);
    u64::from(buf.first().copied().unwrap_or(0))
}
fn h_upstr(buf: &mut Vec<u8>) -> u64 {
    upstr::baseline(buf);
    u64::from(buf.first().copied().unwrap_or(0))
}
fn n_upstr(buf: &mut Vec<u8>) -> u64 {
    let out = upstr::naive(buf);
    u64::from(out.first().copied().unwrap_or(0))
}

// --- m3s (scramble each 8-byte word, xor-accumulate) ---
fn g_m3s(buf: &mut Vec<u8>) -> u64 {
    let mut acc = 0u64;
    let mut empty = Vec::new();
    for w in buf.chunks_exact(8) {
        let k = u64::from_le_bytes(w.try_into().expect("8"));
        acc ^= generated::m3s(&mut empty, k & 0xffff_ffff);
    }
    acc
}
fn h_m3s(buf: &mut Vec<u8>) -> u64 {
    let mut acc = 0u64;
    for w in buf.chunks_exact(8) {
        let k = u64::from_le_bytes(w.try_into().expect("8"));
        acc ^= m3s::baseline(k & 0xffff_ffff);
    }
    acc
}
fn n_m3s(buf: &mut Vec<u8>) -> u64 {
    let mut acc = 0u64;
    for w in buf.chunks_exact(8) {
        let k = u64::from_le_bytes(w.try_into().expect("8"));
        acc ^= m3s::naive(k & 0xffff_ffff);
    }
    acc
}

// --- ip ---
fn g_ip(buf: &mut Vec<u8>) -> u64 {
    let len = buf.len() as u64 & !1;
    generated::ip(buf, 0, len)
}
fn h_ip(buf: &mut Vec<u8>) -> u64 {
    let even = buf.len() & !1;
    ip::baseline(&buf[..even])
}
fn n_ip(buf: &mut Vec<u8>) -> u64 {
    let even = buf.len() & !1;
    ip::naive(&buf[..even])
}

// --- fasta ---
fn g_fasta(buf: &mut Vec<u8>) -> u64 {
    let len = buf.len() as u64;
    generated::fasta(buf, 0, len);
    u64::from(buf.first().copied().unwrap_or(0))
}
fn h_fasta(buf: &mut Vec<u8>) -> u64 {
    let table: [u8; 256] = fasta::complement_table().try_into().expect("256");
    fasta::baseline(buf, &table);
    u64::from(buf.first().copied().unwrap_or(0))
}
fn n_fasta(buf: &mut Vec<u8>) -> u64 {
    let out = fasta::naive(buf);
    u64::from(out.first().copied().unwrap_or(0))
}

// --- crc32 ---
fn g_crc32(buf: &mut Vec<u8>) -> u64 {
    let len = buf.len() as u64;
    generated::crc32(buf, 0, len)
}
fn h_crc32(buf: &mut Vec<u8>) -> u64 {
    let table: [u64; 256] = crc32::crc_table().try_into().expect("256");
    crc32::baseline(buf, &table)
}
fn n_crc32(buf: &mut Vec<u8>) -> u64 {
    crc32::naive(buf)
}


// --- optimized-route drivers (same ABI as the generated ones) ---
fn o_fnv1a(buf: &mut Vec<u8>) -> u64 {
    let len = buf.len() as u64;
    generated::fnv1a_opt(buf, 0, len)
}
fn o_utf8(buf: &mut Vec<u8>) -> u64 {
    let len = buf.len() as u64;
    generated::utf8_opt(buf, 0, len)
}
fn o_upstr(buf: &mut Vec<u8>) -> u64 {
    let len = buf.len() as u64;
    generated::upstr_opt(buf, 0, len);
    u64::from(buf.first().copied().unwrap_or(0))
}
fn o_m3s(buf: &mut Vec<u8>) -> u64 {
    let mut acc = 0u64;
    let mut empty = Vec::new();
    for w in buf.chunks_exact(8) {
        let k = u64::from_le_bytes(w.try_into().expect("8"));
        acc ^= generated::m3s_opt(&mut empty, k & 0xffff_ffff);
    }
    acc
}
fn o_ip(buf: &mut Vec<u8>) -> u64 {
    let len = buf.len() as u64 & !1;
    generated::ip_opt(buf, 0, len)
}
fn o_fasta(buf: &mut Vec<u8>) -> u64 {
    let len = buf.len() as u64;
    generated::fasta_opt(buf, 0, len);
    u64::from(buf.first().copied().unwrap_or(0))
}
fn o_crc32(buf: &mut Vec<u8>) -> u64 {
    let len = buf.len() as u64;
    generated::crc32_opt(buf, 0, len)
}

/// All Figure 2 rows, in the figure's order.
pub fn fig2_rows() -> Vec<Fig2Row> {
    vec![
        Fig2Row { name: "fnv1a", text_input: false, generated: g_fnv1a, optimized: o_fnv1a, handwritten: h_fnv1a, extraction: n_fnv1a },
        Fig2Row { name: "utf8", text_input: true, generated: g_utf8, optimized: o_utf8, handwritten: h_utf8, extraction: n_utf8 },
        Fig2Row { name: "upstr", text_input: true, generated: g_upstr, optimized: o_upstr, handwritten: h_upstr, extraction: n_upstr },
        Fig2Row { name: "m3s", text_input: false, generated: g_m3s, optimized: o_m3s, handwritten: h_m3s, extraction: n_m3s },
        Fig2Row { name: "ip", text_input: false, generated: g_ip, optimized: o_ip, handwritten: h_ip, extraction: n_ip },
        Fig2Row { name: "fasta", text_input: true, generated: g_fasta, optimized: o_fasta, handwritten: h_fasta, extraction: n_fasta },
        Fig2Row { name: "crc32", text_input: false, generated: g_crc32, optimized: o_crc32, handwritten: h_crc32, extraction: n_crc32 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row's three series agree on the checksum word: the native
    /// build of the certified code computes the same function as the
    /// handwritten and extraction implementations.
    #[test]
    fn all_series_agree() {
        for row in fig2_rows() {
            let base = if row.text_input {
                make_text_input(42, 4096)
            } else {
                make_input(42, 4096)
            };
            let mut b1 = base.clone();
            let mut b2 = base.clone();
            let mut b3 = base.clone();
            let mut b4 = base.clone();
            let g = (row.generated)(&mut b1);
            let h = (row.handwritten)(&mut b2);
            let n = (row.extraction)(&mut b3);
            let o = (row.optimized)(&mut b4);
            assert_eq!(g, h, "{}: generated vs handwritten", row.name);
            assert_eq!(g, n, "{}: generated vs extraction", row.name);
            assert_eq!(g, o, "{}: generated vs optimized", row.name);
            // In-place programs must also leave identical buffers.
            assert_eq!(b1, b2, "{}: buffers diverged", row.name);
            assert_eq!(b1, b4, "{}: optimized buffer diverged", row.name);
        }
    }

    /// A generated function in the region ABI `(mem, s, len)`, returning
    /// its result word (0 for the in-place programs).
    type RegionFn = fn(&mut Vec<u8>, u64, u64) -> u64;

    /// One Figure 2 program that works on a region: both generated
    /// routes, the handwritten reference on the region's bytes, and the
    /// precondition's shortest region.
    struct RegionCase {
        name: &'static str,
        text_input: bool,
        routes: [RegionFn; 2],
        hand: fn(&mut [u8]) -> u64,
        min_len: usize,
    }

    fn region_cases() -> Vec<RegionCase> {
        fn fasta_hand(b: &mut [u8]) -> u64 {
            let table: [u8; 256] = fasta::complement_table().try_into().expect("256");
            fasta::baseline(b, &table);
            0
        }
        fn crc32_hand(b: &mut [u8]) -> u64 {
            let table: [u64; 256] = crc32::crc_table().try_into().expect("256");
            crc32::baseline(b, &table)
        }
        vec![
            RegionCase { name: "fnv1a", text_input: false, routes: [generated::fnv1a, generated::fnv1a_opt], hand: |b| fnv1a::baseline(b), min_len: 0 },
            RegionCase { name: "utf8", text_input: true, routes: [generated::utf8, generated::utf8_opt], hand: |b| utf8::baseline(b), min_len: 4 },
            RegionCase {
                name: "upstr",
                text_input: true,
                routes: [|m, s, l| { generated::upstr(m, s, l); 0 }, |m, s, l| { generated::upstr_opt(m, s, l); 0 }],
                hand: |b| { upstr::baseline(b); 0 },
                min_len: 0,
            },
            RegionCase { name: "ip", text_input: false, routes: [generated::ip, generated::ip_opt], hand: |b| ip::baseline(b), min_len: 0 },
            RegionCase {
                name: "fasta",
                text_input: true,
                routes: [|m, s, l| { generated::fasta(m, s, l); 0 }, |m, s, l| { generated::fasta_opt(m, s, l); 0 }],
                hand: fasta_hand,
                min_len: 0,
            },
            RegionCase { name: "crc32", text_input: false, routes: [generated::crc32, generated::crc32_opt], hand: crc32_hand, min_len: 0 },
        ]
    }

    /// Bytes of memory on each side of the region.
    const GUARD: usize = 13;

    /// Every region program on both routes, with its region at the
    /// unaligned base `GUARD` inside a larger memory, at every buffer
    /// length up to 64 the precondition allows: the result and the
    /// region's final bytes equal the handwritten code's, and no byte on
    /// either side of the region changes. `ip` requires an even length,
    /// so at an odd buffer length it gets the even prefix (as its driver
    /// does) and the odd byte lies outside the region.
    #[test]
    fn region_form_matches_handwritten_at_every_length() {
        for case in region_cases() {
            for n in case.min_len..=64 {
                let len = if case.name == "ip" { n & !1 } else { n };
                let input = if case.text_input { make_text_input(n as u64, n) } else { make_input(n as u64, n) };
                let mut before = make_input(0xD00D, GUARD);
                before.extend_from_slice(&input);
                before.extend(make_input(0xFEED, GUARD));
                let mut region = input[..len].to_vec();
                let want = (case.hand)(&mut region);
                for (route, f) in ["generated", "optimized"].iter().zip(case.routes) {
                    let mut mem = before.clone();
                    let got = f(&mut mem, GUARD as u64, len as u64);
                    let at = format!("{} {route}, {n}-byte buffer", case.name);
                    assert_eq!(got, want, "{at}: result");
                    assert_eq!(&mem[GUARD..GUARD + len], &region[..], "{at}: region");
                    assert_eq!(mem[..GUARD], before[..GUARD], "{at}: bytes before the region");
                    assert_eq!(mem[GUARD + len..], before[GUARD + len..], "{at}: bytes after the region");
                }
            }
        }
    }

    /// `m3s` has no region: both routes agree with the handwritten
    /// scramble and leave memory alone.
    #[test]
    fn m3s_routes_match_handwritten() {
        let before = make_input(3, 32);
        for k in make_input(9, 512).chunks_exact(4).map(|w| u64::from(u32::from_le_bytes(w.try_into().unwrap()))) {
            for f in [generated::m3s, generated::m3s_opt] {
                let mut mem = before.clone();
                assert_eq!(f(&mut mem, k), m3s::baseline(k), "k = {k}");
                assert_eq!(mem, before);
            }
        }
    }

    /// A call whose region runs past the end of memory breaks the
    /// precondition: it panics at the entry borrow (a range error, not an
    /// index error inside the loop) instead of reading what lies past the
    /// region.
    #[test]
    #[should_panic(expected = "range end index 16 out of range for slice of length 8")]
    fn a_region_past_the_end_of_memory_panics() {
        let mut mem = make_input(7, 48);
        generated::ip_opt(&mut mem, 40, 16);
    }

    /// An in-place program given a region past the end of memory panics
    /// before its first store.
    #[test]
    fn a_broken_precondition_panics_before_writing() {
        let before = make_text_input(7, 48);
        let routes: [fn(&mut Vec<u8>, u64, u64); 4] =
            [generated::upstr, generated::upstr_opt, generated::fasta, generated::fasta_opt];
        for f in routes {
            let mut mem = before.clone();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut mem, 40, 16)));
            assert!(r.is_err(), "a region past the end of memory must panic");
            assert_eq!(mem, before, "no byte may change before the panic");
        }
    }

    #[test]
    fn compile_stats_cover_the_suite() {
        assert_eq!(generated::COMPILE_STATS.len(), 7);
        for (name, stmts, lemmas, _) in generated::COMPILE_STATS {
            assert!(*stmts > 0, "{name}");
            assert!(*lemmas > 0, "{name}");
        }
    }

    #[test]
    fn opt_stats_cover_the_suite_with_enough_wins() {
        assert_eq!(generated::OPT_STATS.len(), 7);
        let optimized = generated::OPT_STATS.iter().filter(|(_, _, _, o)| *o).count();
        assert!(optimized >= 3, "only {optimized} programs optimized");
        for (name, applied, sites, opt) in generated::OPT_STATS {
            assert_eq!(*opt, *applied > 0, "{name}: applied/optimized mismatch");
            assert!(!*opt || *sites > 0, "{name}: optimized with zero sites");
        }
    }

    #[test]
    fn input_generators_are_deterministic() {
        assert_eq!(make_input(1, 16), make_input(1, 16));
        assert_ne!(make_input(1, 16), make_input(2, 16));
        assert!(make_text_input(1, 256).iter().all(|b| (0x20..0x7f).contains(b)));
    }
}
