//! `chacha20_block` — the full ChaCha20 block function (RFC 8439 §2.3),
//! in place.
//!
//! The throughput stress program of the perf suite: the 16-word state is
//! loaded into scalar locals, put through the 20 rounds (ten double
//! rounds of eight quarter-rounds each, fully unrolled — the range-fold
//! lemmas compile scalar accumulators, and a round permutes sixteen), and
//! added back to the input state in place. The model is one let-spine of
//! ~670 statements, an order of magnitude deeper than any Table 2
//! program, which is exactly what a representation-level engine change
//! needs to show up in `speed` ([`crate::perf_suite`]).
//!
//! The 32-bit arithmetic rides on 64-bit words with the masking idiom of
//! `chacha_qr`: adds masked with `0xffff_ffff`, `rotl32` built from
//! shifts, xor of in-range values unmasked.
//!
//! Depth note: the default [`EngineLimits::max_recursion_depth`] (256)
//! tracks the let-spine and is far too small here; [`limits`] raises it,
//! and suite drivers apply the adjustment through
//! [`crate::SuiteEntry::limits`].

use crate::funclist::List;
use crate::{Features, ProgramInfo};
use rupicola_core::fnspec::{ArgSpec, FnSpec, RetSpec};
use rupicola_core::{CompileError, CompiledFunction, EngineLimits, Hyp};
use rupicola_ext::standard_dbs;
use rupicola_lang::dsl::*;
use rupicola_lang::{ElemKind, Expr, Model};

/// Parameters whose contents are secret under a ChaCha CT policy (kept
/// for symmetry with `chacha_qr`; this program is benchmarked in the perf
/// suite, not the CT battery).
pub const SECRET_PARAMS: &[&str] = &["st"];

const MASK32: u64 = 0xffff_ffff;

/// The eight quarter-round index patterns of one double round: four
/// columns, then four diagonals (RFC 8439 §2.3's `inner_block`).
const QUARTER_ROUNDS: [(usize, usize, usize, usize); 8] = [
    (0, 4, 8, 12),
    (1, 5, 9, 13),
    (2, 6, 10, 14),
    (3, 7, 11, 15),
    (0, 5, 10, 15),
    (1, 6, 11, 12),
    (2, 7, 8, 13),
    (3, 4, 9, 14),
];

fn add32(a: Expr, b: Expr) -> Expr {
    word_and(word_add(a, b), word_lit(MASK32))
}

fn rotl32(v: Expr, k: u64) -> Expr {
    word_and(
        word_or(word_shl(v.clone(), word_lit(k)), word_shr(v, word_lit(32 - k))),
        word_lit(MASK32),
    )
}

fn local(i: usize) -> String {
    format!("x{i}")
}

/// One quarter-round over the scalar locals `x{a}`, `x{b}`, `x{c}`,
/// `x{d}`, prepended to `rest` (eight rebindings, as in `chacha_qr`).
fn quarter_round(a: usize, b: usize, c: usize, d: usize, rest: Expr) -> Expr {
    let step = |x: usize, y: usize, z: usize, k: u64, rest: Expr| {
        let_n(
            local(x),
            add32(var(local(x)), var(local(y))),
            let_n(local(z), rotl32(word_xor(var(local(z)), var(local(x))), k), rest),
        )
    };
    step(a, b, d, 16, step(c, d, b, 12, step(a, b, d, 8, step(c, d, b, 7, rest))))
}

/// The functional model: ten double rounds ([`model_with_rounds`]).
pub fn model() -> Model {
    model_with_rounds(10)
}

/// The block function with `double_rounds` double rounds instead of ten:
/// the same let-spine shape at 33 + 64·`double_rounds` statements, which
/// is what `speed`'s compile-time scaling series sweeps.
pub fn model_with_rounds(double_rounds: usize) -> Model {
    // model-begin
    // chacha20_block st :=
    //   let/n x0 := st[0] in … let/n x15 := st[15] in
    //   (double_rounds double rounds, each: QR on the four columns then
    //    the four diagonals — 8 quarter-rounds per double round, unrolled)
    //   let/n st := st[0 := x0 + st[0]] in … st[15 := x15 + st[15]] in st
    let mut body = var("st");
    for i in (0..16).rev() {
        body = let_n(
            "st",
            array_put_w(
                var("st"),
                word_lit(i as u64),
                add32(var(local(i)), array_get_w(var("st"), word_lit(i as u64))),
            ),
            body,
        );
    }
    for _ in 0..double_rounds {
        for &(a, b, c, d) in QUARTER_ROUNDS.iter().rev() {
            body = quarter_round(a, b, c, d, body);
        }
    }
    for i in (0..16).rev() {
        body = let_n(local(i), array_get_w(var("st"), word_lit(i as u64)), body);
    }
    Model::new("chacha20_block", ["st"], body)
    // model-end
}

/// The ABI: a pointer to the 16-word state, updated in place.
pub fn spec() -> FnSpec {
    // hints-begin
    // The requires clause: the state holds exactly sixteen words, so every
    // literal-index access is in bounds.
    FnSpec::new(
        "chacha20_block",
        vec![ArgSpec::ArrayPtr { name: "st".into(), param: "st".into(), elem: ElemKind::Word }],
        vec![RetSpec::InPlace { param: "st".into() }],
    )
    .with_hint(Hyp::EqWord(array_len_w(var("st")), word_lit(16)))
    // hints-end
}

/// Raises the recursion-depth budget to cover the ~670-statement
/// let-spine (the other budgets' defaults already dominate this program).
pub fn limits(base: EngineLimits) -> EngineLimits {
    EngineLimits { max_recursion_depth: base.max_recursion_depth.max(4096), ..base }
}

/// Runs the relational compiler (under [`limits`], on a deep stack — the
/// derivation recurses one frame per statement, past default-sized
/// thread stacks; see [`crate::parallel::on_deep_stack`]).
///
/// # Errors
///
/// Propagates [`CompileError`] (none expected with the standard databases).
pub fn compiled() -> Result<CompiledFunction, CompileError> {
    crate::parallel::on_deep_stack(|| {
        rupicola_core::compile_with_limits(
            &model(),
            &spec(),
            &standard_dbs(),
            limits(EngineLimits::default()),
        )
    })
}

/// The executable specification: RFC 8439 §2.3 on `u32` state (rounds on
/// a working copy, then the feed-forward add).
pub fn reference(st: &mut [u32; 16]) {
    let mut x = *st;
    for _ in 0..10 {
        for &(a, b, c, d) in &QUARTER_ROUNDS {
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(16);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(12);
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(8);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(7);
        }
    }
    for i in 0..16 {
        st[i] = x[i].wrapping_add(st[i]);
    }
}

/// The handwritten C-style implementation on 64-bit words (the shape the
/// generated code has).
pub fn baseline(st: &mut [u64; 16]) {
    fn rot(v: u64, k: u32) -> u64 {
        ((v << k) | (v >> (32 - k))) & MASK32
    }
    let mut x = *st;
    for _ in 0..10 {
        for &(a, b, c, d) in &QUARTER_ROUNDS {
            x[a] = (x[a] + x[b]) & MASK32;
            x[d] = rot(x[d] ^ x[a], 16);
            x[c] = (x[c] + x[d]) & MASK32;
            x[b] = rot(x[b] ^ x[c], 12);
            x[a] = (x[a] + x[b]) & MASK32;
            x[d] = rot(x[d] ^ x[a], 8);
            x[c] = (x[c] + x[d]) & MASK32;
            x[b] = rot(x[b] ^ x[c], 7);
        }
    }
    for i in 0..16 {
        st[i] = (x[i] + st[i]) & MASK32;
    }
}

/// The extraction baseline: the state as a linked list, rebuilt per
/// quarter-round step.
pub fn naive(st: &[u64]) -> Vec<u64> {
    fn get(l: &List<u64>, i: usize) -> u64 {
        let mut cur = l.clone();
        for _ in 0..i {
            cur = cur.as_cons().map(|(_, r)| r.clone()).unwrap_or_default();
        }
        cur.as_cons().map_or(0, |(w, _)| *w)
    }
    fn put(l: &List<u64>, i: usize, v: u64) -> List<u64> {
        let mut out: Vec<u64> = l.to_vec();
        if i < out.len() {
            out[i] = v;
        }
        List::from_slice(&out)
    }
    let rot = |v: u64, k: u32| ((v << k) | (v >> (32 - k))) & MASK32;
    let init = List::from_slice(st);
    let mut x = init.clone();
    for _ in 0..10 {
        for &(a, b, c, d) in &QUARTER_ROUNDS {
            x = put(&x, a, (get(&x, a) + get(&x, b)) & MASK32);
            x = put(&x, d, rot(get(&x, d) ^ get(&x, a), 16));
            x = put(&x, c, (get(&x, c) + get(&x, d)) & MASK32);
            x = put(&x, b, rot(get(&x, b) ^ get(&x, c), 12));
            x = put(&x, a, (get(&x, a) + get(&x, b)) & MASK32);
            x = put(&x, d, rot(get(&x, d) ^ get(&x, a), 8));
            x = put(&x, c, (get(&x, c) + get(&x, d)) & MASK32);
            x = put(&x, b, rot(get(&x, b) ^ get(&x, c), 7));
        }
    }
    let mut out = x;
    for i in 0..16 {
        out = put(&out, i, (get(&out, i) + get(&init, i)) & MASK32);
    }
    out.to_vec()
}

/// Perf-suite metadata (same shape as Table 2 rows).
pub fn info() -> ProgramInfo {
    let src = include_str!("chacha20_block.rs");
    ProgramInfo {
        name: "chacha20_block",
        description: "ChaCha20 block function (RFC 8439), in place",
        source_loc: crate::lines_between(src, "model"),
        lemmas_loc: crate::lines_between(src, "hints"),
        hints: 1,
        end_to_end: true,
        features: Features {
            arithmetic: true,
            arrays: true,
            mutation: true,
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_core::check::check;
    use rupicola_lang::eval::{eval_model, World};
    use rupicola_lang::Value;

    /// RFC 8439 §2.3.2: state for key 00..1f, counter 1, nonce
    /// 00:00:00:09:00:00:00:4a:00:00:00:00.
    const RFC_INIT: [u32; 16] = [
        0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574,
        0x0302_0100, 0x0706_0504, 0x0b0a_0908, 0x0f0e_0d0c,
        0x1312_1110, 0x1716_1514, 0x1b1a_1918, 0x1f1e_1d1c,
        0x0000_0001, 0x0900_0000, 0x4a00_0000, 0x0000_0000,
    ];

    /// The keystream block for [`RFC_INIT`] (checked against an
    /// independent ChaCha20 implementation).
    const RFC_OUT: [u32; 16] = [
        0xe4e7_f110, 0x1559_3bd1, 0x1fdd_0f50, 0xc471_20a3,
        0xc7f4_d1c7, 0x0368_c033, 0x9aaa_2204, 0x4e6c_d4c3,
        0x4664_82d2, 0x09aa_9f07, 0x05d7_c214, 0xa202_8bd9,
        0xd19c_12b5, 0xb94e_16de, 0xe883_d0cb, 0x4e3c_50a2,
    ];

    #[test]
    fn rfc8439_block_vector() {
        let mut st = RFC_INIT;
        reference(&mut st);
        assert_eq!(st, RFC_OUT);
    }

    #[test]
    fn model_matches_reference() {
        let mut states = vec![[0u32; 16], RFC_INIT];
        let mut mixed = [0u32; 16];
        for (i, w) in mixed.iter_mut().enumerate() {
            *w = (i as u32).wrapping_mul(0x9e37_79b9) ^ 0x5bd1_e995;
        }
        states.push(mixed);
        crate::parallel::on_deep_stack(|| {
            for words in states {
                let mut expect = words;
                reference(&mut expect);
                let out = eval_model(
                    &model(),
                    &[Value::word_list(words.iter().map(|w| u64::from(*w)))],
                    &mut World::default(),
                )
                .unwrap();
                assert_eq!(
                    out,
                    Value::word_list(expect.iter().map(|w| u64::from(*w))),
                    "state {words:?}"
                );
            }
        });
    }

    #[test]
    fn baseline_and_naive_match_reference() {
        let words: [u64; 16] = std::array::from_fn(|i| u64::from(RFC_INIT[i]));
        let mut b = words;
        baseline(&mut b);
        let n = naive(&words);
        let mut expect32 = RFC_INIT;
        reference(&mut expect32);
        let expect: Vec<u64> = expect32.iter().map(|w| u64::from(*w)).collect();
        assert_eq!(b.to_vec(), expect);
        assert_eq!(n, expect);
    }

    #[test]
    fn statement_count_dwarfs_the_table2_suite() {
        // 16 loads + 80 quarter-rounds × 8 rebindings + 16 feed-forward
        // puts (plus one for the result): the spine the perf suite exists
        // to measure.
        assert_eq!(model().statement_count(), 16 + 80 * 8 + 16 + 1);
    }

    #[test]
    fn compiles_and_validates_in_place() {
        let out = compiled().unwrap();
        let report =
            crate::parallel::on_deep_stack(|| check(&out, &standard_dbs())).unwrap();
        assert!(report.vectors_run > 0);
    }
}
