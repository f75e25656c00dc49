//! The secret-independence validation layer, end to end.
//!
//! Three claims:
//!
//! 1. **The healthy pipeline preserves constant-time.** Every CT suite
//!    program runs the full default pipeline under its secrecy policy with
//!    zero rollbacks, and the final body is still CT-clean.
//! 2. **A leaky-but-correct rewrite is killed by layer 4 alone.** The
//!    backwards if-conversion mutant preserves values, heap, trace, and
//!    locals — layers 1–3 accept it — but the policy-aware validator
//!    rejects it with a typed [`OptError::CtRegressed`] and the pipeline
//!    rolls it back.
//! 3. **The layer gates regressions, not pre-existing findings**: a
//!    certified body that is already dirty under the policy gates
//!    nothing, and with no policy attached, behavior is exactly the old
//!    three-layer stack.

use rupicola_analysis::{ct, SecrecyPolicy};
use rupicola_core::check::CheckConfig;
use rupicola_core::compile;
use rupicola_ext::standard_dbs;
use rupicola_opt::mutants::CtPassMutant;
use rupicola_opt::{
    optimize_compiled, validate_candidate_with_policy, OptError, PipelineConfig,
};
use rupicola_programs::ct_suite;

fn policy_of(secret_params: &[&str]) -> SecrecyPolicy {
    SecrecyPolicy::secrets(secret_params.iter().copied())
}

#[test]
fn healthy_pipeline_keeps_ct_programs_clean() {
    let dbs = standard_dbs();
    let config = CheckConfig::default();

    for e in ct_suite() {
        let name = e.entry.info.name;
        let policy = policy_of(e.secret_params);
        let (model, spec) = ((e.entry.model)(), (e.entry.spec)());
        let mut cf = compile(&model, &spec, &dbs).expect("CT suite compiles");

        assert!(
            ct::run(&cf, &policy).is_empty(),
            "{name}: certified body is CT-clean to begin with"
        );

        let pipeline = PipelineConfig::full().with_ct_policy(policy.clone());
        let report = optimize_compiled(&mut cf, &dbs, &pipeline, &config);
        assert_eq!(
            report.rolled_back_count(),
            0,
            "{name}: healthy pass rolled back under the CT layer:\n{report}"
        );

        let final_body = cf.optimized.as_ref().unwrap_or(&cf.function);
        assert!(
            ct::run_function(final_body, &cf.spec, &policy).is_empty(),
            "{name}: optimized body stays CT-clean"
        );
    }
}

#[test]
fn backwards_if_conversion_is_killed_by_layer_4_alone() {
    let dbs = standard_dbs();
    let config = CheckConfig::default();

    for e in ct_suite() {
        let name = e.entry.info.name;
        let policy = policy_of(e.secret_params);
        let cf = (e.entry.compiled)().expect("CT suite compiles");

        let leaky = CtPassMutant::IfConvertBackwards
            .apply(&cf.function)
            .unwrap_or_else(|| panic!("{name}: mutant finds a site"));

        // Layers 1–3 accept it: the rewrite is functionally correct.
        validate_candidate_with_policy(&cf, &leaky, &dbs, &config, None).unwrap_or_else(|err| {
            panic!("{name}: functional layers should accept the leaky body: {err}")
        });

        // Layer 4 rejects it with the typed error.
        match validate_candidate_with_policy(&cf, &leaky, &dbs, &config, Some(&policy)) {
            Err(OptError::CtRegressed { detail }) => {
                assert!(!detail.is_empty(), "{name}: regression names its findings");
            }
            other => panic!("{name}: expected CtRegressed, got {other:?}"),
        }
    }
}

#[test]
fn an_already_dirty_certified_body_gates_nothing() {
    // Certify the leaky body itself: layer 4's baseline is then dirty, so
    // a candidate with the same findings is not a regression.
    let dbs = standard_dbs();
    let config = CheckConfig::default();
    let e = &ct_suite()[1];
    let policy = policy_of(e.secret_params);
    let mut cf = (e.entry.compiled)().expect("compiles");
    let leaky = CtPassMutant::IfConvertBackwards.apply(&cf.function).expect("site");
    assert!(!ct::run_function(&leaky, &cf.spec, &policy).is_empty());
    cf.function = leaky.clone();
    let verdict = validate_candidate_with_policy(&cf, &leaky, &dbs, &config, Some(&policy));
    assert_eq!(verdict, Ok(()));
}

#[test]
fn no_policy_means_the_old_three_layer_stack() {
    let dbs = standard_dbs();
    let config = CheckConfig::default();
    let e = &ct_suite()[1]; // ct_select: scalar-only, cheapest to compile.
    let cf = (e.entry.compiled)().expect("compiles");
    let leaky = CtPassMutant::IfConvertBackwards.apply(&cf.function).expect("site");
    assert!(validate_candidate_with_policy(&cf, &leaky, &dbs, &config, None).is_ok());
}
