//! End-to-end pipeline validation over the real program suite.
//!
//! Two claims, both load-bearing for the optimization layer:
//!
//! 1. **The healthy pipeline sticks.** Every suite program goes through the
//!    full default pipeline with zero rollbacks — the passes are sound on
//!    the code the relational compiler actually emits — and enough programs
//!    get strictly smaller bodies for the layer to be worth having.
//! 2. **Every seeded miscompile dies.** Each `PassMutant` is a deliberately
//!    broken pass; on every suite program where it fires (changes the
//!    body), translation validation must reject the result. One surviving
//!    mutant means the validation stack has a hole.

use rupicola_bedrock::rewrite::cmd_size;
use rupicola_core::check::CheckConfig;
use rupicola_core::compile;
use rupicola_ext::standard_dbs;
use rupicola_opt::mutants::PassMutant;
use rupicola_opt::{optimize_compiled, validate_candidate_with_policy, PipelineConfig};
use rupicola_programs::suite;

#[test]
fn full_pipeline_applies_cleanly_across_the_suite() {
    let dbs = standard_dbs();
    let config = CheckConfig::default();
    let pipeline = PipelineConfig::full();
    let mut improved = 0;

    for entry in suite() {
        let name = entry.info.name;
        let (model, spec) = ((entry.model)(), (entry.spec)());
        let mut cf = compile(&model, &spec, &dbs).expect("suite compiles");
        let before = cmd_size(&cf.function.body);

        let report = optimize_compiled(&mut cf, &dbs, &pipeline, &config);

        assert_eq!(
            report.rolled_back_count(),
            0,
            "{name}: healthy pass rolled back:\n{report}"
        );
        assert_eq!(cf.stats.opt_passes_applied, report.applied_count(), "{name}: stats drift");
        if let Some(opt) = &cf.optimized {
            let after = cmd_size(&opt.body);
            assert!(
                after <= before,
                "{name}: pipeline grew the body ({before} -> {after} nodes)"
            );
            if after < before {
                improved += 1;
            }
            assert!(report.applied_count() > 0, "{name}: optimized body with no applied pass");
        } else {
            assert_eq!(report.applied_count(), 0, "{name}: applied passes but no optimized body");
        }
    }

    assert!(improved >= 3, "only {improved} suite programs improved; expected at least 3");
}

#[test]
fn every_applicable_mutant_is_killed() {
    let dbs = standard_dbs();
    let config = CheckConfig::default();
    let mut applicable = 0;
    let mut killed = 0;
    let mut fired = std::collections::BTreeSet::new();

    for entry in suite() {
        let name = entry.info.name;
        let (model, spec) = ((entry.model)(), (entry.spec)());
        let cf = compile(&model, &spec, &dbs).expect("suite compiles");

        for mutant in PassMutant::ALL {
            let Some(broken) = mutant.apply(&cf.function) else { continue };
            applicable += 1;
            fired.insert(mutant.name());
            match validate_candidate_with_policy(&cf, &broken, &dbs, &config, None) {
                Err(_) => killed += 1,
                Ok(()) => panic!("{name}: mutant {} survived validation", mutant.name()),
            }
        }
    }

    assert_eq!(killed, applicable, "kill rate below 100%");
    assert!(applicable >= PassMutant::ALL.len(), "too few applicable mutant sites: {applicable}");
    // Every mutant class must fire somewhere, or the matrix says nothing
    // about that class.
    assert_eq!(fired.len(), PassMutant::ALL.len(), "mutant classes that never fired: {fired:?}");
}
