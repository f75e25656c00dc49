//! Runs the derivation-mutation fault-injection matrix over the §4.2
//! benchmark suite.
//!
//! For every program, every mutant class of
//! `rupicola_core::faultinject` is generated and fed to *two* independent
//! defenses: the trusted checker (replaying the witness) and the static
//! analyzer (derivation-blind dataflow over the mutated artifact).
//! Structural mutants (tampered witnesses, mismatched return slots) must
//! be killed by the checker without exception — a survivor is a checker
//! bug and fails the run. Semantic mutants (wrong code with an intact
//! witness) are killed by differential execution; survivors are possible
//! and listed explicitly so the residual risk is visible, not averaged
//! away. The analyzer's kill rate is reported per class but not enforced:
//! it is a diversity metric (how much of the fault space the second,
//! independent line of defense covers), not a gate.
//!
//! Run with `cargo run --release -p rupicola-bench --bin faultmatrix`.

use rupicola_analysis::{analyze_with_dbs, ct, SecrecyPolicy};
use rupicola_bench::json::{write_results, Json};
use rupicola_bench::rvsupport::rv_mutant_matrix;
use rupicola_core::check::{check_with, CheckConfig};
use rupicola_core::faultinject::{mutants, MutationClass};
use rupicola_ext::standard_dbs;
use rupicola_opt::mutants::{CtPassMutant, PassMutant};
use rupicola_opt::validate_candidate_with_policy;
use rupicola_programs::{ct_suite, ctmutants};
use rupicola_service::suite_via_store;

struct ClassTally {
    class: MutationClass,
    generated: usize,
    checker_killed: usize,
    analyzer_killed: usize,
}

/// `killed / applicable`, NaN when no mutant applied.
fn kill_rate(killed: usize, applicable: usize) -> Json {
    Json::F64(if applicable == 0 { f64::NAN } else { killed as f64 / applicable as f64 })
}

fn main() {
    let dbs = standard_dbs();
    // Fewer vectors than a certification run: each mutant only needs one
    // witness of divergence, and the matrix multiplies runs by mutants.
    let config = CheckConfig { vectors: 8, ..CheckConfig::default() };

    let mut totals: Vec<ClassTally> = MutationClass::ALL
        .iter()
        .map(|&class| ClassTally { class, generated: 0, checker_killed: 0, analyzer_killed: 0 })
        .collect();
    let mut survivors: Vec<(&'static str, MutationClass, String)> = Vec::new();
    let mut structural_escapes = 0;
    let mut program_rows: Vec<Json> = Vec::new();

    println!(
        "{:<8} {:>8} {:>7} {:>9} {:>9} {:>10}",
        "program", "mutants", "killed", "survived", "analyzer", "structural"
    );
    // One cached suite pass (verified cache loads, compilation of the
    // misses through the server): each program's artifact is obtained once
    // and shared by every mutant derived from it. A cache-served artifact
    // is safe to mutate from: the verified load re-checked it, so mutants
    // still start from a pristine witness. What CANNOT
    // be shared, by design: (a) mutant generation clones the pristine
    // artifact per mutant, since each mutation must start from an
    // uncorrupted witness; (b) `check_with`/`analyze_with_dbs` re-run per
    // mutant, because the checker replaying the (mutated) witness is
    // exactly the defense under test — caching any part of a check across
    // mutants would let one mutant's verdict leak into another's.
    let (results, _cache) = suite_via_store(&dbs);
    let compiled_suite: Vec<_> = results
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|cf| (r.name, cf.clone())))
        .collect();
    for compiled_entry in results {
        let name = compiled_entry.name;
        let compiled = match compiled_entry.result {
            Ok(c) => c,
            Err(e) => {
                println!("{name:<8} COMPILATION FAILED: {e}");
                std::process::exit(1);
            }
        };
        let all = mutants(&compiled);
        let (mut generated, mut checker_killed, mut analyzer_killed) = (0usize, 0usize, 0usize);
        let mut structural_clean = true;
        for m in all {
            let checker_kill = check_with(&m.cf, &dbs, &config).is_err();
            let analyzer_kill = analyze_with_dbs(&m.cf, Some(&dbs)).has_errors();
            generated += 1;
            if checker_kill {
                checker_killed += 1;
            } else {
                if m.class.is_structural() {
                    structural_clean = false;
                }
                survivors.push((name, m.class, m.description));
            }
            if analyzer_kill {
                analyzer_killed += 1;
            }
            if let Some(slot) = totals.iter_mut().find(|t| t.class == m.class) {
                slot.generated += 1;
                if checker_kill {
                    slot.checker_killed += 1;
                }
                if analyzer_kill {
                    slot.analyzer_killed += 1;
                }
            }
        }
        if !structural_clean {
            structural_escapes += 1;
        }
        println!(
            "{:<8} {:>8} {:>7} {:>9} {:>9} {:>10}",
            name,
            generated,
            checker_killed,
            generated - checker_killed,
            analyzer_killed,
            if structural_clean { "clean" } else { "ESCAPED" },
        );
        program_rows.push(Json::obj([
            ("program", Json::str(name)),
            ("mutants", Json::U64(generated as u64)),
            ("checker_killed", Json::U64(checker_killed as u64)),
            ("analyzer_killed", Json::U64(analyzer_killed as u64)),
            ("structural_clean", Json::Bool(structural_clean)),
        ]));
    }

    println!("\nper-class kill rate (checker | analyzer):");
    let mut class_rows: Vec<Json> = Vec::new();
    for t in &totals {
        let rate = |killed: usize| {
            if t.generated == 0 {
                "    —".to_string()
            } else {
                format!("{:>4.0}%", 100.0 * killed as f64 / t.generated as f64)
            }
        };
        println!(
            "  {:<22} {:>5}/{:<5} {} | {}  [{}]",
            t.class.to_string(),
            t.checker_killed,
            t.generated,
            rate(t.checker_killed),
            rate(t.analyzer_killed),
            if t.class.is_structural() { "structural" } else { "semantic" },
        );
        class_rows.push(Json::obj([
            ("class", Json::str(t.class.to_string())),
            ("structural", Json::Bool(t.class.is_structural())),
            ("generated", Json::U64(t.generated as u64)),
            ("checker_killed", Json::U64(t.checker_killed as u64)),
            ("analyzer_killed", Json::U64(t.analyzer_killed as u64)),
        ]));
    }

    if survivors.is_empty() {
        println!("\nno surviving mutants ✓");
    } else {
        println!("\nsurviving mutants ({}):", survivors.len());
        for (program, class, description) in &survivors {
            println!("  {program}: [{class}] {description}");
        }
    }

    let total_generated: usize = totals.iter().map(|t| t.generated).sum();
    let total_analyzer: usize = totals.iter().map(|t| t.analyzer_killed).sum();
    let mut summary = vec![
        ("programs", Json::Arr(program_rows)),
        ("classes", Json::Arr(class_rows)),
        (
            "survivors",
            Json::Arr(
                survivors
                    .iter()
                    .map(|(p, c, d)| {
                        Json::obj([
                            ("program", Json::str(*p)),
                            ("class", Json::str(c.to_string())),
                            ("description", Json::str(d.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("structural_escapes", Json::U64(structural_escapes as u64)),
        ("analyzer_kill_rate", kill_rate(total_analyzer, total_generated)),
    ];
    // The pass-mutant matrix: seeded miscompiling optimization passes
    // (rupicola_opt::mutants). Where a mutant fires, the translation-
    // validation stack — checker against the original certificate, lint
    // suite, interpreter differential — must reject the result. This
    // column IS a gate: optimization passes are untrusted precisely
    // because validation catches every miscompile, so one survivor here
    // invalidates the soundness argument.
    println!("\npass-mutant matrix (translation validation as the defense):");
    let mut pass_applicable = 0usize;
    let mut pass_killed = 0usize;
    let mut pass_survivors: Vec<String> = Vec::new();
    let mut pass_rows: Vec<Json> = Vec::new();
    for mutant in PassMutant::ALL {
        let (mut applicable, mut killed) = (0usize, 0usize);
        for (name, cf) in &compiled_suite {
            let Some(broken) = mutant.apply(&cf.function) else { continue };
            applicable += 1;
            if validate_candidate_with_policy(cf, &broken, &dbs, &config, None).is_err() {
                killed += 1;
            } else {
                pass_survivors.push(format!("{name}: [{}]", mutant.name()));
            }
        }
        println!(
            "  {:<28} {:>2}/{:<2} killed{}",
            mutant.name(),
            killed,
            applicable,
            if applicable == 0 { "  (never fired)" } else { "" },
        );
        pass_applicable += applicable;
        pass_killed += killed;
        pass_rows.push(Json::obj([
            ("mutant", Json::str(mutant.name())),
            ("applicable", Json::U64(applicable as u64)),
            ("killed", Json::U64(killed as u64)),
        ]));
    }
    summary.push(("pass_mutants", Json::Arr(pass_rows)));
    summary.push(("pass_mutant_kill_rate", kill_rate(pass_killed, pass_applicable)));

    // The constant-time mutant matrix: seeded secrecy leaks in the three
    // CT-labeled programs, with the CT analysis (and, for the pass-level
    // mutant, the policy-aware validation layer 4) as the defense. Two
    // flavors:
    //  - program-level mutants (ctmutants): hand-written leaky bodies —
    //    early-exit memcmp, branchy select, secret-indexed S-box lookup —
    //    that the taint analysis alone must flag;
    //  - the pass-level mutant (backwards if-conversion): functionally
    //    correct, so layers 1–3 accept it; only layer 4 can kill it.
    // This column is a gate like the pass-mutant one: a survivor means a
    // real leak pattern the analysis is blind to.
    println!("\nconstant-time mutant matrix (taint analysis as the defense):");
    let ct_compiled: Vec<_> = ct_suite()
        .iter()
        .map(|e| {
            let cf = (e.entry.compiled)().unwrap_or_else(|err| {
                println!("{:<8} COMPILATION FAILED: {err}", e.entry.info.name);
                std::process::exit(1);
            });
            let policy = SecrecyPolicy::secrets(e.secret_params.iter().copied());
            (e.entry.info.name, policy, cf)
        })
        .collect();
    let mut ct_generated = 0usize;
    let mut ct_killed = 0usize;
    let mut ct_survivors: Vec<String> = Vec::new();
    let mut ct_rows: Vec<Json> = Vec::new();
    for m in ctmutants::all() {
        let (name, policy, cf) = ct_compiled
            .iter()
            .find(|(n, _, _)| *n == m.program)
            .unwrap_or_else(|| {
                println!("ct mutant {} targets unknown program {}", m.name, m.program);
                std::process::exit(1);
            });
        let leaky = (m.build)(&cf.function);
        let kill = !ct::run_function(&leaky, &cf.spec, policy).is_empty();
        ct_generated += 1;
        if kill {
            ct_killed += 1;
        } else {
            ct_survivors.push(format!("{name}: [{}]", m.name));
        }
        println!(
            "  {:<10} {:<28} {}  ({})",
            name,
            m.name,
            if kill { "killed" } else { "SURVIVED" },
            m.sin,
        );
        ct_rows.push(Json::obj([
            ("program", Json::str(*name)),
            ("mutant", Json::str(m.name)),
            ("level", Json::str("program")),
            ("killed", Json::Bool(kill)),
        ]));
    }
    for mutant in CtPassMutant::ALL {
        for (name, policy, cf) in &ct_compiled {
            let Some(leaky) = mutant.apply(&cf.function) else { continue };
            let kill =
                validate_candidate_with_policy(cf, &leaky, &dbs, &config, Some(policy)).is_err();
            ct_generated += 1;
            if kill {
                ct_killed += 1;
            } else {
                ct_survivors.push(format!("{name}: [{}]", mutant.name()));
            }
            println!(
                "  {:<10} {:<28} {}  (leak introduced by an optimization pass)",
                name,
                mutant.name(),
                if kill { "killed" } else { "SURVIVED" },
            );
            ct_rows.push(Json::obj([
                ("program", Json::str(*name)),
                ("mutant", Json::str(mutant.name())),
                ("level", Json::str("pass")),
                ("killed", Json::Bool(kill)),
            ]));
        }
    }
    summary.push(("ct_mutants", Json::Arr(ct_rows)));
    summary.push(("ct_kill_rate", kill_rate(ct_killed, ct_generated)));

    // The RISC-V lowering-mutant matrix: seeded machine-level miscompiles
    // (clobbered callee-saved register, off-by-one branch offset, dropped
    // spill, wrong-width load) injected into each program's fully-
    // optimized validated artifact, with differential re-validation —
    // machine simulator against the Bedrock2 interpreter — as the sole
    // defense. A gate like the pass-mutant column: the RISC-V stages are
    // untrusted precisely because this validator catches every
    // miscompile, so one survivor invalidates the backend's soundness
    // argument.
    println!("\nRISC-V lowering-mutant matrix (machine differential as the defense):");
    let rv_matrix = match rv_mutant_matrix(&compiled_suite, &config) {
        Ok(m) => m,
        Err(e) => {
            println!("  rv matrix failed: {e}");
            std::process::exit(1);
        }
    };
    summary.push(("rv_mutants", Json::Arr(rv_matrix.report())));
    summary.push(("rv_kill_rate", kill_rate(rv_matrix.killed(), rv_matrix.applicable())));

    match write_results("faultmatrix.json", &Json::obj(summary)) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => println!("\nfailed to write results: {e}"),
    }

    if structural_escapes > 0 {
        println!("\n{structural_escapes} program(s) with surviving STRUCTURAL mutants — checker bug");
        std::process::exit(1);
    }
    if !pass_survivors.is_empty() {
        println!("\nsurviving PASS mutants — translation-validation hole:");
        for s in &pass_survivors {
            println!("  {s}");
        }
        std::process::exit(1);
    }
    if !ct_survivors.is_empty() {
        println!("\nsurviving CT mutants — secrecy leak the analysis misses:");
        for s in &ct_survivors {
            println!("  {s}");
        }
        std::process::exit(1);
    }
    if !rv_matrix.survivors.is_empty() {
        println!("\nsurviving RISC-V lowering mutants — machine-differential hole:");
        for s in &rv_matrix.survivors {
            println!("  {s}");
        }
        std::process::exit(1);
    }
    println!("\npass-mutant kill rate: {pass_killed}/{pass_applicable} (100% required) ✓");
    println!("ct-mutant kill rate: {ct_killed}/{ct_generated} (100% required) ✓");
    println!(
        "rv-mutant kill rate: {}/{} (100% required) ✓",
        rv_matrix.killed(),
        rv_matrix.applicable()
    );
}
