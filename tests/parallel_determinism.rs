//! Determinism of the suite compilation driver.
//!
//! `compile_entries` runs one job per suite entry on the work-stealing
//! scheduler, which keys every result by its job index, so output order is
//! suite order no matter which worker ran which job or how the OS
//! scheduled them. These tests pin the stronger claim the throughput layer
//! rests on: the *contents* are byte-identical run to run and identical to
//! a one-worker run's — same C rendering, same witness node counts, same
//! compile stats.

use rupicola::bedrock::cprint::function_to_c;
use rupicola::core::{EngineLimits, HintDbs};
use rupicola::ext::standard_dbs;
use rupicola::programs::suite;
use rupicola::{compile_entries, default_workers, SuiteResult};

/// The whole suite on `workers` threads, under default limits.
fn compile_suite(dbs: &HintDbs, workers: usize) -> Vec<SuiteResult> {
    compile_entries(&suite(), dbs, &EngineLimits::default(), workers)
}

#[test]
fn parallel_runs_are_byte_identical_across_invocations() {
    let dbs = standard_dbs();
    let first = compile_suite(&dbs, default_workers());
    let second = compile_suite(&dbs, default_workers());
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(second.iter()) {
        assert_eq!(a.name, b.name, "suite order must be deterministic");
        let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(
            function_to_c(&a.function),
            function_to_c(&b.function),
            "{}: C output differs between two parallel runs",
            a.function.name
        );
        assert_eq!(a.derivation.node_count, b.derivation.node_count);
        assert_eq!(a.derivation, b.derivation);
    }
}

#[test]
fn parallel_matches_serial_byte_for_byte() {
    let dbs = standard_dbs();
    let serial = compile_suite(&dbs, 1);
    // At least two workers even on a one-core host, so the scheduler's
    // spawning path is what gets compared against the inline one.
    let parallel = compile_suite(&dbs, default_workers().max(2));
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(parallel.iter()) {
        assert_eq!(s.name, p.name, "suite order must match");
        let (s, p) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert_eq!(
            function_to_c(&s.function),
            function_to_c(&p.function),
            "{}: C output differs between serial and parallel drivers",
            s.function.name
        );
        assert_eq!(s.function, p.function);
        assert_eq!(s.derivation.node_count, p.derivation.node_count);
        assert_eq!(s.derivation, p.derivation);
        assert_eq!(
            (s.stats.solver_cache_hits, s.stats.solver_cache_misses),
            (p.stats.solver_cache_hits, p.stats.solver_cache_misses),
            "{}: per-program cache stats must not depend on the driver",
            s.function.name
        );
    }
}
