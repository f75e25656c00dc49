//! Prints the Table 2 analog: the benchmark suite with programmer effort
//! and the compiler-extension feature matrix.
//!
//! Run with `cargo run -p rupicola-bench --bin table2`.

use rupicola_programs::suite;

fn mark(b: bool) -> &'static str {
    if b {
        "✓"
    } else {
        " "
    }
}

fn main() {
    println!("# Table 2 — benchmark suite: effort and compiler extensions used");
    println!("# Source/Lemmas in lines (measured from the module sources);");
    println!("# Hints counts spec hypotheses and rewrites.");
    println!();
    println!(
        "{:<7} {:>6} {:>6} {:>5}  {:^3} {:^5} {:^6} {:^6} {:^5} {:^8}",
        "name", "source", "lemmas", "hints", "e2e", "arith", "inline", "arrays", "loops", "mutation"
    );
    for entry in suite() {
        let i = &entry.info;
        println!(
            "{:<7} {:>6} {:>6} {:>5}  {:^3} {:^5} {:^6} {:^6} {:^5} {:^8}",
            i.name,
            i.source_loc,
            i.lemmas_loc,
            i.hints,
            mark(i.end_to_end),
            mark(i.features.arithmetic),
            mark(i.features.inline),
            mark(i.features.arrays),
            mark(i.features.loops),
            mark(i.features.mutation),
        );
        println!("        {}", i.description);
    }
    println!();
    println!("# Compilation footprint (statements emitted / lemma applications /");
    println!("# side conditions discharged), via the store-backed server");
    println!("# (verified cache loads; misses compiled in parallel):");
    let dbs = rupicola_ext::standard_dbs();
    let (live, cache) = rupicola_service::suite_via_store(&dbs);
    for r in &live {
        let c = r.result.as_ref().expect("suite compiles");
        println!(
            "#   {:<7} {:>3} statements, {:>3} lemmas, {:>2} side conditions",
            r.name,
            c.function.statement_count(),
            c.stats.lemma_applications,
            c.derivation.side_cond_count
        );
    }
    // Cross-check against the constants captured at build time: a drift
    // here means the engine stopped being deterministic between the build
    // script's compile and this one.
    for (r, (name, stmts, lemmas, sides)) in live.iter().zip(rupicola_bench::generated::COMPILE_STATS)
    {
        let c = r.result.as_ref().expect("suite compiles");
        assert_eq!(r.name, *name);
        assert_eq!(
            (c.function.statement_count(), c.stats.lemma_applications, c.derivation.side_cond_count),
            (*stmts, *lemmas, *sides),
            "{name}: live compile drifted from build-time stats"
        );
    }
    println!("#   (matches the build-time COMPILE_STATS constants)");
    println!(
        "#   cache: {} hit(s), {} miss(es), {} eviction(s)",
        cache.hits, cache.misses, cache.evictions
    );
}
