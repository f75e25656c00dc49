//! The engine's let-spine loop.
//!
//! A statement lemma whose last premise is its continuation hands that
//! goal back to the engine (`Applied::Continue`), which resolves it in the
//! same loop instead of one stack frame deeper. These tests pin the three
//! consequences: a spine far longer than the depth budget compiles on a
//! small stack, the application budget (not the stack) stops a spine too
//! long for a tight budget, and the loop builds exactly what lemmas that
//! compile their continuations themselves through `Compiler::compile_stmt`
//! build.

use rupicola::bedrock::Cmd;
use rupicola::core::fnspec::{ArgSpec, FnSpec, RetSpec, TraceSpec};
use rupicola::core::{
    compile, compile_with_limits, Applied, CompileError, Compiler, EngineLimits, HintDbs,
    MonadCtx, ResourceKind, StmtGoal, StmtLemma,
};
use rupicola::ext::standard_dbs;
use rupicola::lang::dsl::*;
use rupicola::lang::{Expr, Model, MonadKind, Value};
use rupicola::programs::parallel::on_deep_stack;
use rupicola::programs::{chacha20_block, ct_suite, perf_suite};
use rupicola::sep::ScalarKind;
use std::sync::Arc;

/// The platform default stack of a spawned thread.
const SMALL_STACK: usize = 2 << 20;

/// Runs `f` on a fresh thread with a 2 MiB stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(SMALL_STACK)
        .spawn(f)
        .expect("spawn a small-stack thread")
        .join()
        .expect("the small-stack thread finished")
}

/// 33 + 64·64 statements: six times the perf suite's longest spine.
const LONG_ROUNDS: usize = 64;

#[test]
fn a_long_spine_compiles_on_a_small_stack_under_default_limits() {
    let (statements, nodes, applications) = on_small_stack(|| {
        let model = chacha20_block::model_with_rounds(LONG_ROUNDS);
        let statements = model.statement_count();
        let cf = compile_with_limits(
            &model,
            &chacha20_block::spec(),
            &standard_dbs(),
            EngineLimits::default(),
        )
        .expect("the long spine compiles");
        (statements, cf.derivation.node_count, cf.stats.lemma_applications)
    });
    assert_eq!(statements, 33 + 64 * LONG_ROUNDS);
    assert!(statements > EngineLimits::default().max_recursion_depth * 16);
    assert!(nodes > statements && applications > statements, "{nodes} {applications}");
}

#[test]
fn a_long_spine_under_a_tight_budget_runs_out_of_applications() {
    let err = on_small_stack(|| {
        compile_with_limits(
            &chacha20_block::model_with_rounds(LONG_ROUNDS),
            &chacha20_block::spec(),
            &standard_dbs(),
            EngineLimits::tight(),
        )
        .expect_err("the tight budget cannot cover the spine")
    });
    let CompileError::ResourceExhausted { resource, limit, path } = err else {
        panic!("expected ResourceExhausted, got {err}");
    };
    assert_eq!(resource, ResourceKind::LemmaApplications);
    assert_eq!(limit, EngineLimits::tight().max_lemma_applications);
    // The path lists the lemmas still open (one binding and the
    // expression lemmas under it), not the spine steps already taken.
    assert_eq!(path.iter().filter(|l| *l == "compile_let_scalar").count(), 1, "{path:?}");
    assert!(path.len() < EngineLimits::tight().max_recursion_depth, "{path:?}");
}

/// `lemma`, continuing through the recursive `Compiler::compile_stmt`
/// instead of handing its continuation back: the form every lemma had
/// before the engine looped over spines, and the form a user lemma may
/// still take.
struct Recursive(Arc<dyn StmtLemma>);

impl StmtLemma for Recursive {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn try_apply(
        &self,
        goal: &StmtGoal,
        cx: &mut Compiler<'_>,
    ) -> Option<Result<Applied, CompileError>> {
        Some(self.0.try_apply(goal, cx)?.and_then(|applied| match applied {
            // Spliced by hand, as the lemmas did, not by `Prefix::close`.
            Applied::Continue { prefix, edit } => {
                let mut k_goal = goal.clone();
                edit(&mut k_goal);
                let (k_cmd, k_node) = cx.compile_stmt(&k_goal)?;
                let body = Cmd::seq(prefix.cmds.into_iter().chain([k_cmd]));
                let cmd = match prefix.stack_alloc {
                    Some((var, nbytes)) => Cmd::StackAlloc { var, nbytes, body: Box::new(body) },
                    None => body,
                };
                Ok(Applied::Closed { cmd, node: prefix.node.with_child(k_node) })
            }
            closed => Ok(closed),
        }))
    }
}

/// `base` with every statement lemma in its recursive form.
fn recursive_dbs(base: &HintDbs) -> HintDbs {
    let mut dbs = HintDbs::new();
    for l in base.stmt_lemmas() {
        dbs.register_stmt(Recursive(Arc::clone(l)));
    }
    for l in base.expr_lemmas() {
        dbs.register_expr_arc(Arc::clone(l));
    }
    for s in base.solvers().iter().skip(1) {
        dbs.register_solver_arc(Arc::clone(s));
    }
    assert_eq!(dbs.identity_string(), base.identity_string());
    dbs
}

/// An io program: `monad_bind_ret`'s empty prefix, reads and writes.
fn io_program() -> (Model, FnSpec) {
    let model = Model::new(
        "echo_sum",
        ["x"],
        bind(
            MonadKind::Io,
            "a",
            io_read(),
            bind(
                MonadKind::Io,
                "s",
                ret(MonadKind::Io, word_add(var("a"), var("x"))),
                bind(MonadKind::Io, "_", io_write(var("s")), ret(MonadKind::Io, var("s"))),
            ),
        ),
    );
    let spec = FnSpec::new(
        "echo_sum",
        vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
        vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
    )
    .with_monad(MonadCtx::Monadic(MonadKind::Io))
    .with_trace(TraceSpec::MirrorsSource);
    (model, spec)
}

/// A stack buffer whose continuation runs inside the allocation, then a
/// rebinding of the same name.
fn stack_program() -> (Model, FnSpec) {
    let model = Model::new(
        "scratch",
        ["x"],
        let_n(
            "t",
            stack(Expr::Lit(Value::byte_list([10, 20, 30]))),
            let_n(
                "x",
                word_add(var("x"), word_of_byte(array_get_b(var("t"), word_lit(2)))),
                let_n("x", word_mul(var("x"), word_lit(3)), var("x")),
            ),
        ),
    );
    let spec = FnSpec::new(
        "scratch",
        vec![ArgSpec::Scalar { name: "x".into(), param: "x".into(), kind: ScalarKind::Word }],
        vec![RetSpec::Scalar { name: "out".into(), kind: ScalarKind::Word }],
    );
    (model, spec)
}

#[test]
fn the_spine_loop_builds_what_recursive_continuations_build() {
    let dbs = standard_dbs();
    let recursive = recursive_dbs(&dbs);
    let mut programs: Vec<(Model, FnSpec)> = perf_suite()
        .into_iter()
        .chain(ct_suite().into_iter().map(|c| c.entry))
        .filter(|e| e.info.name != "chacha20_block")
        .map(|e| ((e.model)(), (e.spec)()))
        .collect();
    programs.extend([io_program(), stack_program()]);
    on_deep_stack(|| {
        for (model, spec) in &programs {
            let looped = compile(model, spec, &dbs).expect("compiles with the spine loop");
            let nested = compile(model, spec, &recursive).expect("compiles recursively");
            let name = &model.name;
            assert_eq!(looped.function, nested.function, "{name}: function");
            assert_eq!(looped.derivation, nested.derivation, "{name}: derivation");
            assert_eq!(looped.linked, nested.linked, "{name}: linked");
            assert_eq!(looped.stats, nested.stats, "{name}: stats");
        }
    });
}
