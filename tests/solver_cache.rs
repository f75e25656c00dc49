//! The engine keeps no side-condition cache (see `Compiler::solve`): every
//! side condition runs the solver loop afresh, so a solver need not be a
//! pure function of its inputs. This pins that contract by counting solver
//! consultations. That a panicking solver falls through to the next one is
//! covered by `failure_injection::panicking_solver_falls_through_to_the_next_one`.

use rupicola::core::solver::SideSolver;
use rupicola::core::{compile, HypRef, SideCond};
use rupicola::ext::standard_dbs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Wraps the built-in `lia` logic behind a shared call counter, so the
/// test can observe exactly how often the solver loop actually runs.
#[derive(Debug)]
struct CountingLia(Arc<AtomicUsize>);

impl SideSolver for CountingLia {
    fn name(&self) -> &'static str {
        "counting_lia"
    }
    fn solve(&self, cond: &SideCond, hyps: &[HypRef]) -> bool {
        self.0.fetch_add(1, Ordering::Relaxed);
        rupicola::core::solver::Lia.solve(cond, hyps)
    }
}

#[test]
fn every_side_condition_consults_the_solvers() {
    // utf8 discharges the same bounds conditions several times, which a
    // cache would have served without consulting the solver.
    let (model, spec) = (rupicola::programs::utf8::model(), rupicola::programs::utf8::spec());
    let calls = Arc::new(AtomicUsize::new(0));
    let mut dbs = standard_dbs();
    dbs.register_solver_front(CountingLia(calls.clone()));
    let compiled = compile(&model, &spec, &dbs).expect("utf8 compiles");
    let stats = compiled.stats;
    assert!(stats.side_conditions > 0, "utf8 discharges side conditions");
    // The front solver is `lia` itself, so it proves every condition the
    // compile discharges: one consultation per record, none saved.
    assert_eq!(calls.load(Ordering::Relaxed), stats.side_conditions);
    assert_eq!(
        (stats.solver_cache_hits, stats.solver_cache_misses, stats.solver_confirm_compares),
        (0, 0, 0),
        "the memo counters have nothing to count"
    );
}
