//! Property-based tests of the substrate semantics: the source language's
//! structural laws, the Bedrock2 memory model, and the §2 stack machine.

use rupicola::bedrock::{AccessSize, BinOp, Memory};
use rupicola::lang::dsl::*;
use rupicola::lang::eval::{eval, eval_model, Env, EvalError, World};
use rupicola::lang::{Expr, Model, Value};
use rupicola::stackm;
use rupicola_minicheck::{check, Rng};

/// Evaluates `e` under `env`, checking that `env` comes back unchanged.
fn eval_in(e: &Expr, env: &mut Env) -> Result<Value, EvalError> {
    let before = env.clone();
    let out = eval(e, env, &[], &mut World::default());
    assert_eq!(*env, before, "eval left the environment changed ({out:?})");
    out
}

fn eval_pure(e: &Expr, env: &mut Env) -> Value {
    eval_in(e, env).expect("pure eval")
}

fn env_of(bindings: &[(&str, Value)]) -> Env {
    bindings.iter().map(|(n, v)| (n.to_string(), v.clone())).collect()
}

/// An environment that binds a random subset of the names the contract
/// tests' binders use, so each binder sometimes shadows and sometimes
/// introduces its name.
fn random_outer_env(rng: &mut Rng) -> Env {
    let mut env = Env::new();
    for n in ["x", "acc", "i", "s", "y"] {
        if rng.bool() {
            env.insert(n.into(), Value::Word(rng.next_u64()));
        }
    }
    env
}

/// The evaluator's environment contract: `eval` hands `env` back exactly
/// as it found it, after a successful run, after a `Let` whose body
/// errors, and after a fold whose body errors part-way through.
#[test]
fn eval_restores_the_environment() {
    check("eval_restores_the_environment", 128, |rng| {
        let mut env = random_outer_env(rng);
        let n = rng.below(8) + 1;
        let k = rng.below(n);
        // A let-spine whose binders shadow the outer names.
        let spine = let_n(
            "x",
            word_lit(rng.next_u64()),
            let_n(
                "y",
                word_add(var("x"), word_lit(1)),
                let_n("x", word_mul(var("y"), var("y")), var("x")),
            ),
        );
        assert!(eval_in(&spine, &mut env).is_ok());
        // A `Let` whose body errors.
        let bad_let = let_n("x", word_lit(1), word_divu(var("x"), word_lit(0)));
        assert_eq!(eval_in(&bad_let, &mut env), Err(EvalError::DivisionByZero));
        // Folds whose body errors at iteration k.
        let trap = || word_divu(word_lit(1), word_lit(0));
        let trap_at_k = |i: Expr, ok: Expr| ite(word_eq(i, word_lit(k)), trap(), ok);
        let range = range_fold(
            "i",
            "acc",
            trap_at_k(var("i"), word_add(var("acc"), var("i"))),
            word_lit(0),
            word_lit(0),
            word_lit(n),
        );
        assert_eq!(eval_in(&range, &mut env), Err(EvalError::DivisionByZero));
        env.insert("s".into(), Value::byte_list((0..n).map(|b| b as u8)));
        let array = array_fold_b(
            "acc",
            "x",
            trap_at_k(word_of_byte(var("x")), word_add(var("acc"), word_of_byte(var("x")))),
            word_lit(0),
            var("s"),
        );
        assert_eq!(eval_in(&array, &mut env), Err(EvalError::DivisionByZero));
        let map = array_map_b(
            "x",
            ite(byte_eq(var("x"), byte_lit(k as u8)), byte_of_word(trap()), var("x")),
            var("s"),
        );
        assert_eq!(eval_in(&map, &mut env), Err(EvalError::DivisionByZero));
        // The same fold without the trap succeeds and still restores.
        let sum = word_add(var("acc"), var("i"));
        let ok = range_fold("i", "acc", sum, word_lit(0), word_lit(0), word_lit(n));
        assert_eq!(eval_in(&ok, &mut env), Ok(Value::Word(n * (n - 1) / 2)));
    });
}

/// The values of the shadowing cases a binder can meet.
#[test]
fn shadowing_values_are_pinned() {
    // A let shadowing a parameter ends with the let's body.
    let m = Model::new("m", ["x"], word_add(let_n("x", word_lit(10), var("x")), var("x")));
    assert_eq!(eval_model(&m, &[Value::Word(1)], &mut World::default()), Ok(Value::Word(11)));
    let mut env = env_of(&[("x", Value::Word(5))]);
    let e = word_mul(let_n("x", word_add(var("x"), word_lit(1)), var("x")), var("x"));
    assert_eq!(eval_pure(&e, &mut env), Value::Word(30));

    // Fold `acc`/`x` shadow outer names inside the body only.
    let mut env = env_of(&[("acc", Value::Word(100)), ("x", Value::Word(200))]);
    let e = word_add(
        array_fold_b(
            "acc",
            "x",
            word_add(var("acc"), word_of_byte(var("x"))),
            word_lit(0),
            Expr::Lit(Value::byte_list([1, 2, 3])),
        ),
        word_add(var("acc"), var("x")),
    );
    assert_eq!(eval_pure(&e, &mut env), Value::Word(306));

    // `acc == x`: the element wins in an array fold (bound second) ...
    let mut env = env_of(&[("v", Value::Word(7))]);
    let bytes = Expr::Lit(Value::byte_list([1, 2, 3]));
    let e = array_fold_b("v", "v", word_of_byte(var("v")), word_lit(0), bytes);
    assert_eq!(eval_pure(&e, &mut env), Value::Word(3));
    // ... and the accumulator wins in a range fold (bound after the index).
    let incr = word_add(var("v"), word_lit(1));
    let e = range_fold("v", "v", incr, word_lit(10), word_lit(0), word_lit(5));
    assert_eq!(eval_pure(&e, &mut env), Value::Word(15));

    // Nested folds reusing an index name: the outer `i` is back after the
    // inner fold. Σ_{i<4} (Σ_{j<i} j + i) = 10.
    let inner =
        range_fold("i", "b", word_add(var("b"), var("i")), word_lit(0), word_lit(0), var("i"));
    let body = word_add(var("a"), word_add(inner, var("i")));
    let e = range_fold("i", "a", body, word_lit(0), word_lit(0), word_lit(4));
    let mut env = env_of(&[("i", Value::Word(99))]);
    assert_eq!(eval_pure(&e, &mut env), Value::Word(10));
}

/// `ListArray.map` preserves length and acts elementwise.
#[test]
fn map_is_elementwise() {
    check("map_is_elementwise", 128, |rng| {
        let len = rng.range(0, 200);
        let data = rng.bytes(len);
        let mask = rng.byte();
        let mut env = Env::new();
        env.insert("s".into(), Value::byte_list(data.iter().copied()));
        let e = array_map_b("b", byte_and(var("b"), byte_lit(mask)), var("s"));
        let out = eval_pure(&e, &mut env);
        let expected: Vec<u8> = data.iter().map(|b| b & mask).collect();
        assert_eq!(out, Value::byte_list(expected));
    });
}

/// `fold_left` agrees with the iterative computation.
#[test]
fn fold_agrees_with_iteration() {
    check("fold_agrees_with_iteration", 128, |rng| {
        let len = rng.range(0, 200);
        let data = rng.bytes(len);
        let init = rng.next_u64();
        let mut env = Env::new();
        env.insert("s".into(), Value::byte_list(data.iter().copied()));
        let e = array_fold_b(
            "acc",
            "b",
            word_add(word_mul(var("acc"), word_lit(31)), word_of_byte(var("b"))),
            word_lit(init),
            var("s"),
        );
        let out = eval_pure(&e, &mut env);
        let expected = data
            .iter()
            .fold(init, |acc, b| acc.wrapping_mul(31).wrapping_add(u64::from(*b)));
        assert_eq!(out, Value::Word(expected));
    });
}

/// `get (put a i v) i = v` and other indices unchanged.
#[test]
fn put_get_roundtrip() {
    check("put_get_roundtrip", 128, |rng| {
        let len = rng.range(1, 100);
        let data = rng.bytes(len);
        let v = rng.byte();
        let i = rng.below(data.len() as u64);
        let mut env = Env::new();
        env.insert("s".into(), Value::byte_list(data.iter().copied()));
        let put = array_put_b(var("s"), word_lit(i), byte_lit(v));
        let got = eval_pure(&array_get_b(put.clone(), word_lit(i)), &mut env);
        assert_eq!(got, Value::Byte(v));
        // Another index is untouched.
        let k = (i + 1) % data.len() as u64;
        if k != i {
            let other = eval_pure(&array_get_b(put, word_lit(k)), &mut env);
            assert_eq!(other, Value::Byte(data[k as usize]));
        }
    });
}

/// `range_fold` splits: folding 0..n equals folding 0..m then m..n.
#[test]
fn range_fold_splits() {
    check("range_fold_splits", 128, |rng| {
        let n = rng.below(64);
        let m = rng.below(n + 1);
        let salt = rng.next_u64();
        let body =
            |acc: Expr, i: Expr| word_add(word_mul(acc, word_lit(3)), word_xor(i, word_lit(salt)));
        let mut env = Env::new();
        let whole = eval_pure(
            &range_fold("i", "a", body(var("a"), var("i")), word_lit(1), word_lit(0), word_lit(n)),
            &mut env,
        );
        let first = eval_pure(
            &range_fold("i", "a", body(var("a"), var("i")), word_lit(1), word_lit(0), word_lit(m)),
            &mut env,
        );
        let Value::Word(first_w) = first else { unreachable!() };
        let second = eval_pure(
            &range_fold(
                "i",
                "a",
                body(var("a"), var("i")),
                word_lit(first_w),
                word_lit(m),
                word_lit(n),
            ),
            &mut env,
        );
        assert_eq!(whole, second);
    });
}

/// Memory load/store roundtrips at every size, and neighbours survive.
#[test]
fn memory_roundtrips() {
    check("memory_roundtrips", 128, |rng| {
        let len = rng.range(16, 64);
        let off = rng.range(0, 8);
        let value = rng.next_u64();
        let sizes = [AccessSize::One, AccessSize::Two, AccessSize::Four, AccessSize::Eight];
        let size = *rng.pick(&sizes);
        let mut m = Memory::new();
        let base = m.alloc(vec![0xCC; len]);
        let addr = base + off as u64;
        m.store(addr, size, value).unwrap();
        let loaded = m.load(addr, size).unwrap();
        let mask =
            if size.bytes() == 8 { u64::MAX } else { (1 << (8 * size.bytes())) - 1 };
        assert_eq!(loaded, value & mask);
        // The byte just after the store is untouched.
        let after = addr + size.bytes();
        if after < base + len as u64 {
            assert_eq!(m.load(after, AccessSize::One).unwrap(), 0xCC);
        }
    });
}

/// Out-of-bounds accesses always trap, never wrap into other regions.
#[test]
fn memory_oob_always_traps() {
    check("memory_oob_always_traps", 128, |rng| {
        let len = rng.range(0, 32);
        let past = rng.below(16);
        let mut m = Memory::new();
        let a = m.alloc(vec![0; len]);
        let _b = m.alloc(vec![0; 32]);
        assert!(m.load(a + len as u64 + past, AccessSize::One).is_err() || past >= 64);
        assert!(m.store(a + len as u64 + past, AccessSize::One, 1).is_err() || past >= 64);
    });
}

/// Bedrock2's division/remainder match the RISC-V convention exactly.
#[test]
fn bedrock_divrem_riscv() {
    check("bedrock_divrem_riscv", 128, |rng| {
        let (a, b) = (rng.next_u64(), if rng.below(8) == 0 { 0 } else { rng.next_u64() });
        let d = BinOp::DivU.eval(a, b);
        let r = BinOp::RemU.eval(a, b);
        assert_eq!(d, a.checked_div(b).unwrap_or(u64::MAX));
        assert_eq!(r, a.checked_rem(b).unwrap_or(a));
        if b != 0 {
            assert_eq!(d.wrapping_mul(b).wrapping_add(r), a);
        }
    });
}

// --- §2 stack machine ---

fn arb_s(rng: &mut Rng, depth: usize) -> stackm::S {
    if depth == 0 || rng.below(3) == 0 {
        return stackm::S::int(rng.next_u64());
    }
    stackm::S::add(arb_s(rng, depth - 1), arb_s(rng, depth - 1))
}

/// The functional compiler, the relational derivation and the source
/// semantics agree on arbitrary programs (§2's `StoT_ok`/`StoT_rel_ok`).
#[test]
fn stack_machine_compilers_agree() {
    check("stack_machine_compilers_agree", 128, |rng| {
        let s = arb_s(rng, 6);
        let t = stackm::compile(&s);
        assert!(stackm::equiv(&t, &s));
        let d = stackm::derive(&s);
        assert_eq!(d.target(), t);
        assert!(d.validate());
    });
}

/// Stack-machine execution leaves lower stack entries untouched
/// (the ∀zs quantification of `t ∼ s`).
#[test]
fn stack_machine_preserves_stack_below() {
    check("stack_machine_preserves_stack_below", 128, |rng| {
        let s = arb_s(rng, 6);
        let zs_len = rng.range(0, 5);
        let zs = rng.words(zs_len);
        let t = stackm::compile(&s);
        let out = stackm::run(&t, zs.clone());
        assert_eq!(out.len(), zs.len() + 1);
        assert_eq!(&out[..zs.len()], &zs[..]);
        assert_eq!(out[zs.len()], s.eval());
    });
}
