//! Translation validation: the layers every pass output must clear before
//! it replaces the working body — three always, and a fourth
//! (secret-independence) when the pipeline carries a CT policy.
//!
//! The candidate is validated against the **original** certificate and
//! specification, never against intermediate states, so pass bugs cannot
//! compound: whatever the pipeline ends with provably satisfies the same
//! `FnSpec` the relational compiler certified.

use crate::{OptError, TEMP_PREFIX};
use rupicola_analysis::{ct, LintCertificate, SecrecyPolicy};
use rupicola_bedrock::interp::NoExternals;
use rupicola_bedrock::{BFunction, ExecState, Interpreter, Program};
use rupicola_core::check::{Certificate, CheckConfig, CheckError};
use rupicola_core::lemma::HintDbs;
use rupicola_core::CompiledFunction;

/// Validates `candidate` as a replacement body for `cf.function` with a
/// fresh certificate: see [`validate`].
///
/// # Errors
///
/// A typed [`OptError`] naming the first layer that rejected the
/// candidate.
pub fn validate_candidate_with_policy(
    cf: &CompiledFunction,
    candidate: &BFunction,
    dbs: &HintDbs,
    config: &CheckConfig,
    policy: Option<&SecrecyPolicy>,
) -> Result<(), OptError> {
    let cert = Certificate::new(cf, dbs, config);
    validate(&cert, &LintCertificate::new(cf, Some(dbs)), candidate, &CtBaseline::new(cf, policy))
}

/// Validation layer 4's reference side, decided once per certified
/// function: the [`SecrecyPolicy`] a candidate must be CT-clean under,
/// which is the configured policy when the certified body is itself clean
/// under it, and none otherwise (no policy configured, or a body that was
/// already dirty: the layer gates regressions, not pre-existing findings).
/// It owns the decision, so it can outlive the request that made it.
#[derive(Debug, Clone, Default)]
pub struct CtBaseline {
    gate: Option<SecrecyPolicy>,
}

impl CtBaseline {
    /// Runs the CT analysis on `cf`'s certified body under `policy`, once.
    pub fn new(cf: &CompiledFunction, policy: Option<&SecrecyPolicy>) -> CtBaseline {
        let gate =
            policy.filter(|p| ct::run_function(&cf.function, &cf.spec, p).is_empty()).cloned();
        CtBaseline { gate }
    }
}

/// Validates `candidate` as a replacement body for the certified function
/// of `cert` (whose lint certificate is `lint`, and CT baseline `ct`): the
/// trusted checker's body phase, the lint suite, and the interpreter
/// differential against the certified body's reference runs.
///
/// With a [`SecrecyPolicy`], a fourth layer applies: when the **original**
/// certified body is CT-clean under it (see [`CtBaseline`]), the
/// candidate must be too. A
/// candidate that introduces a secret-dependent branch, memory address, or
/// variable-latency operand is rejected with [`OptError::CtRegressed`] —
/// functional equivalence (layers 1–3) is deliberately not enough, since
/// an if-conversion in the wrong direction preserves values while leaking
/// through the instruction trace.
///
/// A body that was *already* CT-dirty under the policy stays optimizable:
/// the layer gates regressions, not pre-existing findings (those are the
/// compile route's job to report).
///
/// # Errors
///
/// A typed [`OptError`] naming the first layer that rejected the
/// candidate.
pub fn validate(
    cert: &Certificate<'_>,
    lint: &LintCertificate,
    candidate: &BFunction,
    ct: &CtBaseline,
) -> Result<(), OptError> {
    let cf = cert.compiled();

    // Layer 1: the trusted checker, against the original spec and witness.
    if let Err(e) = cert.check_body(candidate) {
        return Err(match e {
            CheckError::Divergence { .. } => {
                OptError::InterpDiverged { detail: e.to_string() }
            }
            other => OptError::CheckFailed { detail: other.to_string() },
        });
    }

    // Layer 2: the derivation-blind lint suite.
    let report = lint.analyze(candidate);
    if report.has_errors() {
        let detail = report
            .errors()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        return Err(OptError::LintFailed { detail });
    }

    // Layer 3: the interpreter differential against the certified body.
    differential(cert, candidate)?;

    // Layer 4: secret-independence. Only a *regression* is a failure.
    if let Some(policy) = &ct.gate {
        let cand_findings = ct::run_function(candidate, &cf.spec, policy);
        if !cand_findings.is_empty() {
            let detail = cand_findings
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ");
            return Err(OptError::CtRegressed { detail });
        }
    }
    Ok(())
}

/// Runs the candidate on the checker's concretized inputs and demands
/// byte-identical observable behavior with the certified body's
/// reference runs: return words, final heap, event trace — and locals, up
/// to pass-introduced `_cse*` temporaries on the optimized side and
/// eliminated temporaries on the original side.
fn differential(cert: &Certificate<'_>, candidate: &BFunction) -> Result<(), OptError> {
    let cf = cert.compiled();
    let mut prog_cand = Program::new();
    prog_cand.insert(candidate.clone());
    for f in &cf.linked {
        prog_cand.insert(f.clone());
    }
    let interp_cand = Interpreter::new(&prog_cand);
    let name = &cf.function.name;
    let fuel = cert.config().max_fuel;

    for reference in cert.reference_runs() {
        let input = &reference.input;
        let st_o = &reference.state;
        let mut st_c = ExecState::new(input.mem.clone());
        let res_c =
            interp_cand.call_with_locals(name, &input.args, &mut st_c, &mut NoExternals, fuel);

        match (&reference.outcome, res_c) {
            // Matching faults are equivalent (messages may differ: a pass
            // may legally reorder which of several traps fires first).
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => {
                return Err(OptError::InterpDiverged {
                    detail: format!("candidate faults on [{}]: {e}", input.desc),
                });
            }
            (Err(e), Ok(_)) => {
                return Err(OptError::InterpDiverged {
                    detail: format!(
                        "candidate succeeds where original faults on [{}]: {e}",
                        input.desc
                    ),
                });
            }
            (Ok((rets_o, locals_o)), Ok((rets_c, locals_c))) => {
                if *rets_o != rets_c {
                    return Err(OptError::InterpDiverged {
                        detail: format!(
                            "return values differ on [{}]: {rets_o:?} vs {rets_c:?}",
                            input.desc
                        ),
                    });
                }
                if st_o.mem != st_c.mem {
                    return Err(OptError::InterpDiverged {
                        detail: format!("final heap differs on [{}]", input.desc),
                    });
                }
                if st_o.trace != st_c.trace {
                    return Err(OptError::InterpDiverged {
                        detail: format!("event trace differs on [{}]", input.desc),
                    });
                }
                for (var, val) in &locals_c {
                    match locals_o.get(var) {
                        Some(orig_val) if orig_val != val => {
                            return Err(OptError::InterpDiverged {
                                detail: format!(
                                    "local `{var}` differs on [{}]: {orig_val} vs {val}",
                                    input.desc
                                ),
                            });
                        }
                        Some(_) => {}
                        None if var.starts_with(TEMP_PREFIX) => {}
                        None => {
                            return Err(OptError::InterpDiverged {
                                detail: format!(
                                    "candidate introduces unreserved local `{var}` on [{}]",
                                    input.desc
                                ),
                            });
                        }
                    }
                }
                // Locals present only in the original are eliminated
                // temporaries — allowed by construction.
            }
        }
    }
    Ok(())
}
