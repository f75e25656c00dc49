//! Unit tests of the interpreter, and properties comparing it with the
//! tree-walking reference.

use super::reference::Reference;
use super::*;
use crate::ast::{AccessSize as Sz, BTable, BinOp};
use rupicola_minicheck::{check, Rng};

fn run_fn(f: BFunction, args: &[u64], mem: Memory) -> Result<(Vec<u64>, ExecState), ExecError> {
    let name = f.name.clone();
    let mut p = Program::new();
    p.insert(f);
    let interp = Interpreter::new(&p);
    let mut state = ExecState::new(mem);
    let rets = interp.call(&name, args, &mut state, &mut NoExternals, 100_000)?;
    Ok((rets, state))
}

#[test]
fn straightline_arithmetic() {
    let f = BFunction::new(
        "f",
        ["x"],
        ["y"],
        Cmd::set("y", BExpr::op(BinOp::Mul, BExpr::var("x"), BExpr::lit(3))),
    );
    let (rets, _) = run_fn(f, &[14], Memory::new()).unwrap();
    assert_eq!(rets, vec![42]);
}

#[test]
fn while_loop_sums() {
    // acc = 0; i = 0; while (i < n) { acc += i; i += 1; }
    let body = Cmd::seq([
        Cmd::set("acc", BExpr::lit(0)),
        Cmd::set("i", BExpr::lit(0)),
        Cmd::while_(
            BExpr::op(BinOp::LtU, BExpr::var("i"), BExpr::var("n")),
            Cmd::seq([
                Cmd::set("acc", BExpr::op(BinOp::Add, BExpr::var("acc"), BExpr::var("i"))),
                Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1))),
            ]),
        ),
    ]);
    let f = BFunction::new("sum", ["n"], ["acc"], body);
    let (rets, _) = run_fn(f, &[10], Memory::new()).unwrap();
    assert_eq!(rets, vec![45]);
}

#[test]
fn infinite_loop_runs_out_of_fuel() {
    let f = BFunction::new("spin", Vec::<String>::new(), Vec::<String>::new(),
        Cmd::while_(BExpr::lit(1), Cmd::Skip));
    assert_eq!(run_fn(f, &[], Memory::new()).unwrap_err(), ExecError::OutOfFuel);
}

#[test]
fn loads_and_stores_hit_memory() {
    let mut mem = Memory::new();
    let p = mem.alloc(vec![1, 2, 3, 4]);
    // swap bytes 0 and 3
    let body = Cmd::seq([
        Cmd::set("a", BExpr::load(Sz::One, BExpr::var("p"))),
        Cmd::set(
            "b",
            BExpr::load(Sz::One, BExpr::op(BinOp::Add, BExpr::var("p"), BExpr::lit(3))),
        ),
        Cmd::store(Sz::One, BExpr::var("p"), BExpr::var("b")),
        Cmd::store(
            Sz::One,
            BExpr::op(BinOp::Add, BExpr::var("p"), BExpr::lit(3)),
            BExpr::var("a"),
        ),
    ]);
    let f = BFunction::new("swap", ["p"], Vec::<String>::new(), body);
    let (_, state) = run_fn(f, &[p], mem).unwrap();
    assert_eq!(state.mem.region(p).unwrap(), &[4, 2, 3, 1]);
}

#[test]
fn oob_store_traps() {
    let mut mem = Memory::new();
    let p = mem.alloc(vec![0; 2]);
    let f = BFunction::new(
        "oob",
        ["p"],
        Vec::<String>::new(),
        Cmd::store(Sz::One, BExpr::op(BinOp::Add, BExpr::var("p"), BExpr::lit(2)), BExpr::lit(0)),
    );
    assert!(matches!(run_fn(f, &[p], mem), Err(ExecError::Memory(_))));
}

#[test]
fn inline_table_lookup() {
    let f = BFunction::new(
        "nth",
        ["i"],
        ["x"],
        Cmd::set("x", BExpr::table(Sz::One, "t", BExpr::var("i"))),
    )
    .with_table(BTable { name: "t".into(), data: vec![10, 20, 30] });
    let (rets, _) = run_fn(f.clone(), &[2], Memory::new()).unwrap();
    assert_eq!(rets, vec![30]);
    assert!(matches!(
        run_fn(f, &[3], Memory::new()),
        Err(ExecError::TableOutOfBounds { .. })
    ));
}

#[test]
fn calls_pass_args_and_rets() {
    let callee = BFunction::new(
        "inc",
        ["x"],
        ["y"],
        Cmd::set("y", BExpr::op(BinOp::Add, BExpr::var("x"), BExpr::lit(1))),
    );
    let caller = BFunction::new(
        "twice",
        ["x"],
        ["y"],
        Cmd::seq([
            Cmd::Call { rets: vec!["y".into()], func: "inc".into(), args: vec![BExpr::var("x")] },
            Cmd::Call { rets: vec!["y".into()], func: "inc".into(), args: vec![BExpr::var("y")] },
        ]),
    );
    let mut p = Program::new();
    p.insert(callee);
    p.insert(caller);
    let interp = Interpreter::new(&p);
    let mut state = ExecState::new(Memory::new());
    let rets = interp.call("twice", &[40], &mut state, &mut NoExternals, 1000).unwrap();
    assert_eq!(rets, vec![42]);
}

#[test]
fn interact_records_trace() {
    let f = BFunction::new(
        "echo",
        Vec::<String>::new(),
        ["x"],
        Cmd::seq([
            Cmd::Interact { rets: vec!["x".into()], action: "io_read".into(), args: vec![] },
            Cmd::Interact { rets: vec![], action: "io_write".into(), args: vec![BExpr::var("x")] },
        ]),
    );
    let mut p = Program::new();
    p.insert(f);
    let interp = Interpreter::new(&p);
    let mut state = ExecState::new(Memory::new());
    let mut io = QueueIo::new([7]);
    let rets = interp.call("echo", &[], &mut state, &mut io, 1000).unwrap();
    assert_eq!(rets, vec![7]);
    assert_eq!(
        state.trace,
        vec![
            TraceEvent { action: "io_read".into(), args: vec![], rets: vec![7] },
            TraceEvent { action: "io_write".into(), args: vec![7], rets: vec![] },
        ]
    );
}

#[test]
fn interact_without_handler_fails() {
    let f = BFunction::new(
        "bad",
        Vec::<String>::new(),
        Vec::<String>::new(),
        Cmd::Interact { rets: vec![], action: "mystery".into(), args: vec![] },
    );
    assert!(matches!(run_fn(f, &[], Memory::new()), Err(ExecError::External(_))));
}

#[test]
fn stackalloc_scopes_memory() {
    // Write into the scratch region; region must be gone afterwards.
    let body = Cmd::StackAlloc {
        var: "p".into(),
        nbytes: 8,
        body: Box::new(Cmd::seq([
            Cmd::store(Sz::Eight, BExpr::var("p"), BExpr::lit(99)),
            Cmd::set("x", BExpr::load(Sz::Eight, BExpr::var("p"))),
        ])),
    };
    let f = BFunction::new("scratch", Vec::<String>::new(), ["x"], body);
    let (rets, state) = run_fn(f, &[], Memory::new()).unwrap();
    assert_eq!(rets, vec![99]);
    assert_eq!(state.mem.region_count(), 0);
}

#[test]
fn stackalloc_contents_are_poisoned_not_zero() {
    let body = Cmd::StackAlloc {
        var: "p".into(),
        nbytes: 1,
        body: Box::new(Cmd::set("x", BExpr::load(Sz::One, BExpr::var("p")))),
    };
    let f = BFunction::new("peek", Vec::<String>::new(), ["x"], body);
    let (rets, _) = run_fn(f, &[], Memory::new()).unwrap();
    assert_eq!(rets, vec![0xAA]);
}

#[test]
fn unset_removes_locals() {
    let f = BFunction::new(
        "f",
        ["x"],
        ["x"],
        Cmd::Unset("x".into()),
    );
    assert!(matches!(
        run_fn(f, &[1], Memory::new()),
        Err(ExecError::UndefinedVariable(_))
    ));
}

#[test]
fn unknown_function_and_arity() {
    let p = Program::new();
    let interp = Interpreter::new(&p);
    let mut state = ExecState::new(Memory::new());
    assert!(matches!(
        interp.call("nope", &[], &mut state, &mut NoExternals, 10),
        Err(ExecError::UnknownFunction(_))
    ));
}

#[test]
fn a_later_function_of_the_same_name_wins() {
    let one = BFunction::new("k", Vec::<String>::new(), ["x"], Cmd::set("x", BExpr::lit(1)));
    let two = BFunction::new("k", Vec::<String>::new(), ["x"], Cmd::set("x", BExpr::lit(2)));
    let mut state = ExecState::default();
    for (order, want) in [([&one, &two], 2), ([&two, &one], 1)] {
        let interp = Interpreter::of(order);
        assert_eq!(interp.call("k", &[], &mut state, &mut NoExternals, 10), Ok(vec![want]));
    }
}

#[test]
fn unresolvable_names_fail_only_when_reached() {
    // An unknown table, an unknown callee and an unbound local, all in the
    // branch not taken.
    let bad = Cmd::seq([
        Cmd::set("y", BExpr::table(Sz::One, "missing", BExpr::var("unbound"))),
        Cmd::Call { rets: vec![], func: "nowhere".into(), args: vec![] },
    ]);
    let f = BFunction::new("f", ["x"], ["x"], Cmd::if_(BExpr::lit(0), bad.clone(), Cmd::Skip));
    assert_eq!(run_fn(f, &[5], Memory::new()).unwrap().0, vec![5]);
    let f = BFunction::new("f", ["x"], ["x"], bad);
    assert_eq!(
        run_fn(f, &[5], Memory::new()).unwrap_err(),
        ExecError::UnknownTable("missing".into())
    );
}

/// Locals the random bodies read and write; `p` and `q` start as
/// pointers into the two heap regions.
const VARS: [&str; 6] = ["a", "b", "c", "i", "p", "q"];

/// Names random calls use; bodies are generated for a random subset, so
/// some callees are unknown.
const FUNCS: [&str; 3] = ["f", "g", "h"];

fn random_expr(rng: &mut Rng, depth: usize) -> BExpr {
    let size = *rng.pick(&[Sz::One, Sz::Two, Sz::Four, Sz::Eight]);
    match rng.below(if depth == 0 { 2 } else { 6 }) {
        0 => {
            let any = rng.next_u64();
            BExpr::lit(*rng.pick(&[0, 1, 2, 3, 7, 0xff, u64::MAX, any]))
        }
        1 => BExpr::var(*rng.pick(&VARS)),
        2 => {
            let base = BExpr::var(*rng.pick(&["p", "q", "a"]));
            BExpr::load(size, BExpr::op(BinOp::Add, base, BExpr::lit(rng.below(12))))
        }
        3 => {
            let index = if rng.bool() { BExpr::lit(rng.below(8)) } else { random_expr(rng, depth - 1) };
            BExpr::table(size, *rng.pick(&["t", "u"]), index)
        }
        _ => {
            let op = *rng.pick(&[
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::And,
                BinOp::Xor,
                BinOp::Sru,
                BinOp::LtU,
                BinOp::Eq,
                BinOp::DivU,
            ]);
            BExpr::op(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))
        }
    }
}

fn random_names(rng: &mut Rng, max: usize) -> Vec<String> {
    (0..rng.range(0, max + 1)).map(|_| (*rng.pick(&VARS)).to_string()).collect()
}

fn random_args(rng: &mut Rng, max: usize) -> Vec<BExpr> {
    (0..rng.range(0, max + 1)).map(|_| random_expr(rng, 1)).collect()
}

/// A block of one to four statements; sometimes a left-nested `Seq`.
fn random_block(rng: &mut Rng, depth: usize) -> Cmd {
    let block = Cmd::seq((0..rng.range(1, 5)).map(|_| random_stmt(rng, depth)));
    if rng.below(6) == 0 {
        Cmd::Seq(Box::new(block), Box::new(random_stmt(rng, depth)))
    } else {
        block
    }
}

fn random_stmt(rng: &mut Rng, depth: usize) -> Cmd {
    match rng.below(if depth == 0 { 7 } else { 11 }) {
        0 | 1 => Cmd::set(*rng.pick(&VARS), random_expr(rng, 2)),
        2 => Cmd::Unset((*rng.pick(&VARS)).into()),
        3 => {
            let size = *rng.pick(&[Sz::One, Sz::Two, Sz::Four, Sz::Eight]);
            Cmd::store(size, random_expr(rng, 2), random_expr(rng, 2))
        }
        4 => Cmd::Interact {
            rets: random_names(rng, 2),
            action: (*rng.pick(&["io_read", "io_write", "writer_tell", "mystery", "free"])).into(),
            args: random_args(rng, 2),
        },
        5 => Cmd::Call {
            rets: random_names(rng, 2),
            func: (*rng.pick(&FUNCS)).into(),
            args: random_args(rng, 3),
        },
        6 => Cmd::Skip,
        7 => Cmd::if_(random_expr(rng, 2), random_block(rng, depth - 1), random_block(rng, depth - 1)),
        8 => {
            // A counted loop, whose body may still clobber the counter.
            let bound = BExpr::lit(rng.below(6));
            let step = Cmd::set("i", BExpr::op(BinOp::Add, BExpr::var("i"), BExpr::lit(1)));
            Cmd::seq([
                Cmd::set("i", BExpr::lit(0)),
                Cmd::while_(
                    BExpr::op(BinOp::LtU, BExpr::var("i"), bound),
                    Cmd::seq([random_block(rng, depth - 1), step]),
                ),
            ])
        }
        9 => Cmd::while_(random_expr(rng, 2), random_block(rng, depth - 1)),
        _ => {
            let var = *rng.pick(&VARS);
            let mut body = random_block(rng, depth - 1);
            if rng.below(3) == 0 {
                let free =
                    Cmd::Interact { rets: vec![], action: "free".into(), args: vec![BExpr::var(var)] };
                body = Cmd::seq([body, free]);
            }
            Cmd::StackAlloc { var: var.into(), nbytes: rng.below(16), body: Box::new(body) }
        }
    }
}

/// A random function whose body first binds most of [`VARS`], `p` and
/// `q` to the heap regions at `p` and `q`.
fn random_function(rng: &mut Rng, p: u64, q: u64) -> BFunction {
    let mut body = Vec::new();
    for v in VARS {
        let w = match v {
            "p" => p,
            "q" => q,
            _ => rng.below(6),
        };
        if rng.below(4) != 0 {
            body.push(Cmd::set(v, BExpr::lit(w)));
        }
    }
    body.push(random_block(rng, 3));
    let mut f =
        BFunction::new(*rng.pick(&FUNCS), random_names(rng, 3), random_names(rng, 2), Cmd::seq(body));
    // `u` is sometimes missing, and a second `t` is shadowed by the first.
    for name in ["t", "u", "t"] {
        if rng.below(3) != 0 {
            let len = rng.range(0, 10);
            f = f.with_table(BTable { name: name.into(), data: rng.bytes(len) });
        }
    }
    f
}

/// `QueueIo`, plus a `free` action that frees the region based at its
/// argument: the one way a body can break stack discipline.
struct Env {
    io: QueueIo,
}

impl ExternalHandler for Env {
    fn interact(&mut self, action: &str, args: &[u64], mem: &mut Memory) -> Result<Vec<u64>, String> {
        if action != "free" {
            return self.io.interact(action, args, mem);
        }
        let base = args.first().copied().unwrap_or_default();
        mem.dealloc(base).map(|_| vec![]).ok_or_else(|| format!("no region at {base:#x}"))
    }
}

/// A copy of `state` to run from.
fn fresh(state: &ExecState) -> ExecState {
    ExecState {
        mem: state.mem.clone(),
        trace: state.trace.clone(),
        stack_poison: state.stack_poison,
        fuel_used: state.fuel_used,
        ct_log: state.ct_log.clone(),
    }
}

fn env_of(input: &[u64]) -> Env {
    Env { io: QueueIo::new(input.iter().copied()) }
}

/// A hook that records what it reads of every loop head, and rejects the
/// head numbered `fail_at`.
#[derive(Debug, Default, PartialEq)]
struct Recorder {
    reads: Vec<(String, String, Vec<Option<u64>>, usize)>,
    fail_at: Option<usize>,
}

impl LoopHook for Recorder {
    fn at_loop_head(
        &mut self,
        function: &str,
        cond: &BExpr,
        locals: &dyn LocalsView,
        mem: &Memory,
    ) -> Result<(), String> {
        let values = VARS.iter().chain(&["zz"]).map(|v| locals.local(v)).collect();
        self.reads.push((function.into(), format!("{cond:?}"), values, mem.region_count()));
        if self.fail_at == Some(self.reads.len()) {
            return Err(format!("rejected head {}", self.reads.len()));
        }
        Ok(())
    }
}

/// The error's variant, for coverage counts.
fn variant(outcome: &Result<(Vec<u64>, Locals), ExecError>) -> &'static str {
    match outcome {
        Ok(_) => "ok",
        Err(ExecError::OutOfFuel) => "fuel",
        Err(ExecError::UndefinedVariable(_)) => "undefined",
        Err(ExecError::Memory(_)) => "memory",
        Err(ExecError::UnknownFunction(_)) => "callee",
        Err(ExecError::UnknownTable(_)) => "table",
        Err(ExecError::TableOutOfBounds { .. }) => "table-bounds",
        Err(ExecError::ArityMismatch { .. }) => "arity",
        Err(ExecError::External(_)) => "external",
        Err(ExecError::StackDiscipline(_)) => "stack",
        Err(ExecError::HookFailure(_)) => "hook",
    }
}

#[test]
fn resolved_runs_match_the_tree_walker_on_random_bodies() {
    // Recursive calls nest one interpreter call per unit of fuel: room for
    // the reference's frames in a debug build.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(compare_on_random_bodies)
        .expect("spawn")
        .join()
        .unwrap_or_else(|e| std::panic::resume_unwind(e));
}

fn compare_on_random_bodies() {
    let mut seen: HashMap<&'static str, usize> = HashMap::new();
    let mut heads = 0;
    check("interp_matches_reference", 2048, |rng| {
        let mut mem = Memory::new();
        let p = mem.alloc(rng.bytes(16));
        let q = mem.alloc(rng.bytes(8));
        let functions: Vec<BFunction> =
            (0..rng.range(1, 4)).map(|_| random_function(rng, p, q)).collect();
        let mut program = Program::new();
        for f in &functions {
            program.insert(f.clone());
        }
        let name = if rng.below(16) == 0 { "nope" } else { &rng.pick(&functions).name };
        let arity = program.function(name).map_or(0, |f| f.args.len());
        let arity = if rng.below(12) == 0 { arity + 1 } else { arity };
        let args: Vec<u64> = (0..arity)
            .map(|_| {
                let any = rng.next_u64();
                *rng.pick(&[p, q, p + 3, 0, 5, any])
            })
            .collect();
        let mut state = ExecState::new(mem).with_stack_poison(rng.byte());
        if rng.bool() {
            state = state.with_ct_log();
        }
        let len = rng.range(0, 4);
        let input = rng.words(len);
        let fuel = rng.range(1, 120) as u64;
        let fail_at = (rng.below(4) == 0).then(|| rng.range(1, 6));

        let run = |with_reference: bool, state: &mut ExecState, hook: &mut Recorder, env: &mut Env| {
            if with_reference {
                Reference::new(&program).call(name, &args, state, env, fuel, hook)
            } else {
                let interp = Interpreter::of(&functions);
                let (f, frame) = interp.run(name, &args, state, env, fuel, hook)?;
                Ok((f.rets_of(&frame)?, f.locals_of(&frame)))
            }
        };
        let mut outcomes = Vec::new();
        for with_reference in [true, false] {
            let (mut state, mut env) = (fresh(&state), env_of(&input));
            let mut hook = Recorder { fail_at, ..Recorder::default() };
            let outcome = run(with_reference, &mut state, &mut hook, &mut env);
            outcomes.push((outcome, state, hook, env.io));
        }
        let [(want, want_state, want_hook, want_io), (got, got_state, got_hook, got_io)] =
            &outcomes[..]
        else {
            unreachable!()
        };
        assert_eq!(got, want, "functions {functions:#?}");
        if let (Err(a), Err(b)) = (got, want) {
            assert_eq!(a.to_string(), b.to_string());
        }
        assert_eq!(got_state.mem, want_state.mem);
        assert_eq!(got_state.trace, want_state.trace);
        assert_eq!(got_state.fuel_used, want_state.fuel_used);
        assert_eq!(got_state.ct_log, want_state.ct_log);
        assert_eq!(got_hook, want_hook);
        assert_eq!(got_io, want_io);
        *seen.entry(variant(want)).or_default() += 1;
        heads += want_hook.reads.len();

        // The public entry points, over a `Program`.
        let interp = Interpreter::new(&program);
        let (mut st, mut env) = (fresh(&state), env_of(&input));
        let mut hook = Recorder { fail_at, ..Recorder::default() };
        let hooked = interp.call_with_hook(name, &args, &mut st, &mut env, fuel, &mut hook);
        assert_eq!(hooked, want.clone().map(|(rets, _)| rets));
        assert_eq!(&hook, want_hook);
        let (mut st, mut env) = (fresh(&state), env_of(&input));
        let want = Reference::new(&program).call(name, &args, &mut st, &mut env, fuel, &mut NoHook);
        let (mut st, mut env) = (fresh(&state), env_of(&input));
        let with_locals = interp.call_with_locals(name, &args, &mut st, &mut env, fuel);
        assert_eq!(with_locals, want);
        let (mut st, mut env) = (fresh(&state), env_of(&input));
        let plain = interp.call(name, &args, &mut st, &mut env, fuel);
        assert_eq!(plain, with_locals.map(|(rets, _)| rets));
    });
    for kind in [
        "ok",
        "fuel",
        "undefined",
        "memory",
        "callee",
        "table",
        "table-bounds",
        "arity",
        "external",
        "stack",
        "hook",
    ] {
        assert!(seen.get(kind).copied().unwrap_or_default() >= 8, "{kind}: {seen:?}");
    }
    assert!(heads >= 1024, "{heads} loop heads, {seen:?}");
}
