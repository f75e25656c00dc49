//! One certificate, many candidates.
//!
//! `optimize_compiled` builds the checker's and the lint's certificates and
//! the CT baseline once per function and validates every candidate
//! against them. These tests pin that sharing to the one-shot validator,
//! which builds them fresh for each candidate: over every perf-suite and CT-suite
//! program, the pipeline reports must be equal (error details included),
//! and every seeded pass mutant must get the same verdict from the shared
//! certificates as from fresh ones — failing bodies interleaved with
//! passing ones, so no state leaks from one body into the next.

use rupicola_analysis::{LintCertificate, SecrecyPolicy};
use rupicola_bedrock::BFunction;
use rupicola_core::check::{Certificate, CheckConfig};
use rupicola_core::{CompiledFunction, HintDbs};
use rupicola_ext::standard_dbs;
use rupicola_opt::mutants::{CtPassMutant, PassMutant};
use rupicola_opt::{
    optimize_compiled, run_pass, validate, validate_candidate_with_policy, CtBaseline,
    PassReport, PipelineConfig, PipelineReport,
};
use rupicola_programs::parallel::on_deep_stack;
use rupicola_programs::{ct_suite, perf_suite};

/// Every perf-suite and CT-suite program, compiled, with the pipeline it
/// is optimized under (the CT programs carry their secrecy policy).
fn programs() -> Vec<(&'static str, CompiledFunction, PipelineConfig)> {
    let mut out: Vec<_> = perf_suite()
        .iter()
        .map(|e| {
            let cf = (e.compiled)().expect("perf suite compiles");
            (e.info.name, cf, PipelineConfig::full())
        })
        .collect();
    for e in ct_suite() {
        let cf = (e.entry.compiled)().expect("CT suite compiles");
        let policy = SecrecyPolicy::secrets(e.secret_params.iter().copied());
        out.push((e.entry.info.name, cf, PipelineConfig::full().with_ct_policy(policy)));
    }
    out
}

/// `optimize_compiled`'s loop with a fresh certificate per candidate.
fn one_shot_report(
    cf: &CompiledFunction,
    dbs: &HintDbs,
    pipeline: &PipelineConfig,
    config: &CheckConfig,
) -> PipelineReport {
    let mut current = cf.function.clone();
    let mut report = PipelineReport::default();
    for &pass in &pipeline.passes {
        let outcome = run_pass(pass, &current);
        let mut entry = PassReport {
            pass,
            sites_rewritten: 0,
            facts_consumed: outcome.facts_consumed,
            applied: false,
            rolled_back: None,
        };
        if outcome.sites_rewritten > 0 && outcome.function != current {
            entry.sites_rewritten = outcome.sites_rewritten;
            match validate_candidate_with_policy(
                cf,
                &outcome.function,
                dbs,
                config,
                pipeline.ct_policy.as_ref(),
            ) {
                Ok(()) => {
                    entry.applied = true;
                    current = outcome.function;
                }
                Err(err) => entry.rolled_back = Some(err),
            }
        }
        report.passes.push(entry);
    }
    report
}

#[test]
fn pipeline_reports_equal_one_shot_validation() {
    on_deep_stack(pipeline_reports_equal);
}

#[test]
fn every_mutant_gets_the_one_shot_verdict_from_shared_certificates() {
    on_deep_stack(mutant_verdicts_equal);
}

fn pipeline_reports_equal() {
    let dbs = standard_dbs();
    let config = CheckConfig::default();
    let mut rollbacks = 0;
    for (name, cf, pipeline) in programs() {
        let mut optimized = cf.clone();
        let shared = optimize_compiled(&mut optimized, &dbs, &pipeline, &config);
        assert_eq!(shared, one_shot_report(&cf, &dbs, &pipeline, &config), "{name}");
        rollbacks += shared.rolled_back_count();
    }
    // The comparison covers error details only if some candidate fails.
    assert!(rollbacks > 0, "no candidate was rolled back anywhere");
}

fn mutant_verdicts_equal() {
    let dbs = standard_dbs();
    let config = CheckConfig::default();
    let mut killed = 0;
    for (name, cf, pipeline) in programs() {
        let policy = pipeline.ct_policy.as_ref();
        let cert = Certificate::new(&cf, &dbs, &config);
        let lint = LintCertificate::new(&cf, Some(&dbs));
        let ct = CtBaseline::new(&cf, policy);
        let mutants = PassMutant::ALL
            .iter()
            .map(|m| (m.name(), m.apply(&cf.function)))
            .chain(CtPassMutant::ALL.iter().map(|m| (m.name(), m.apply(&cf.function))));
        for (mutant, broken) in mutants {
            let Some(broken) = broken else { continue };
            // The certified body after each mutant, against the same certificates.
            let bodies: [(&str, &BFunction); 2] = [(mutant, &broken), ("certified", &cf.function)];
            for (what, body) in bodies {
                let shared = validate(&cert, &lint, body, &ct);
                let fresh = validate_candidate_with_policy(&cf, body, &dbs, &config, policy);
                assert_eq!(shared, fresh, "{name}: {what}");
                killed += usize::from(shared.is_err());
            }
        }
    }
    assert!(killed > 0, "no mutant fired anywhere");
}
