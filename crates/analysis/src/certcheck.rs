//! Certificate cross-checking.
//!
//! A [`CompiledFunction`] bundles code, derivation witness, model, and
//! spec. The trusted checker validates the derivation against the code;
//! this pass validates the *bundle's internal consistency* without
//! replaying the derivation, so a corrupted or forged certificate is
//! caught even by a consumer that never runs the checker:
//!
//! - the witness summary counters must match a recount of the tree (a
//!   truncated or pruned witness carries stale counters);
//! - the function's ABI (argument and return lists) must match the spec
//!   it claims to implement;
//! - the spec must still produce an initial goal against the bundled model
//!   (a re-pointed return slot or renamed parameter fails here);
//! - every inline table must be byte-identical to the layout of the
//!   model-level table it was derived from;
//! - optionally, every lemma cited by the derivation must exist in the
//!   hint databases the certificate will be re-validated against.

use crate::{Finding, FindingKind, Pass};
use rupicola_bedrock::BFunction;
use rupicola_core::lemma::HintDbs;
use rupicola_core::{CompileError, CompiledFunction};
use std::collections::BTreeSet;

/// The findings of this pass that do not read the body: the witness
/// recount, the spec/model goal, and the cited lemmas, plus the spec's
/// interface and the model's table layouts a body is held to. They are
/// computed once per certificate and merged with each body's ABI and
/// table findings by [`WitnessFindings::with_body`], in the pass's fixed
/// order.
#[derive(Debug, Clone, Default)]
pub struct WitnessFindings {
    recount: Option<String>,
    goal: Option<String>,
    unknown_lemmas: Vec<String>,
    arg_names: Vec<String>,
    ret_names: Vec<String>,
    /// Each model table's name and layout bytes (`None`: no layout).
    tables: Vec<(String, Option<Vec<u8>>)>,
}

impl WitnessFindings {
    /// Runs the body-independent checks. `goal_error` is the failure of
    /// [`CompiledFunction::initial_goal`], if any; `dbs` enables the
    /// cited-lemma existence check.
    pub fn new(
        cf: &CompiledFunction,
        goal_error: Option<&CompileError>,
        dbs: Option<&HintDbs>,
    ) -> Self {
        // Witness integrity: recount the tree.
        let node_count = cf.derivation.root.size();
        let mut side_cond_count = 0;
        cf.derivation.root.walk(&mut |n| side_cond_count += n.side_conds.len());
        let recount = (node_count != cf.derivation.node_count
            || side_cond_count != cf.derivation.side_cond_count)
            .then(|| {
                format!(
                    "derivation summary counters are stale: recorded {} nodes / {} side \
                     conditions, recounted {node_count} / {side_cond_count}",
                    cf.derivation.node_count, cf.derivation.side_cond_count,
                )
            });

        // The spec must still be consistent with the bundled model.
        let goal =
            goal_error.map(|e| format!("spec and model no longer produce an initial goal: {e}"));

        // Cited lemmas must exist where the certificate claims to be
        // re-checkable.
        let mut unknown_lemmas = Vec::new();
        if let Some(dbs) = dbs {
            let mut cited = BTreeSet::new();
            cf.derivation.root.walk(&mut |n| {
                cited.insert(n.lemma.clone());
            });
            unknown_lemmas =
                cited.into_iter().filter(|l| !dbs.knows_lemma(l)).map(|l| l.to_string()).collect();
        }
        WitnessFindings {
            recount,
            goal,
            unknown_lemmas,
            arg_names: cf.spec.arg_names(),
            ret_names: cf.spec.ret_names(),
            tables: cf
                .model
                .tables
                .iter()
                .map(|t| (t.name.clone(), t.data.to_layout_bytes()))
                .collect(),
        }
    }

    /// The pass's findings for `body` as the implementation of the
    /// function these findings were computed for.
    pub fn with_body(&self, body: &BFunction) -> Vec<Finding> {
        let finding = |kind, message| Finding {
            pass: Pass::CertCheck,
            kind,
            function: body.name.clone(),
            site: None,
            message,
        };
        let mut findings = Vec::new();
        if let Some(message) = &self.recount {
            findings.push(finding(FindingKind::CertMismatch, message.clone()));
        }

        // ABI: the function must expose exactly the spec's interface.
        if body.args != self.arg_names {
            findings.push(finding(
                FindingKind::CertMismatch,
                format!(
                    "function arguments {:?} do not match the spec's {:?}",
                    body.args, self.arg_names
                ),
            ));
        }
        if body.rets != self.ret_names {
            findings.push(finding(
                FindingKind::CertMismatch,
                format!(
                    "function returns {:?} do not match the spec's scalar returns {:?}",
                    body.rets, self.ret_names
                ),
            ));
        }

        if let Some(message) = &self.goal {
            findings.push(finding(FindingKind::CertMismatch, message.clone()));
        }

        // Inline tables must be the model tables, byte for byte.
        for (name, layout) in &self.tables {
            match (layout, body.table(name)) {
                (Some(expected), Some(actual)) => {
                    if *expected != actual.data {
                        findings.push(finding(
                            FindingKind::CertMismatch,
                            format!(
                                "inline table `{name}` differs from the model table's layout bytes"
                            ),
                        ));
                    }
                }
                (Some(_), None) => {
                    findings.push(finding(
                        FindingKind::CertMismatch,
                        format!("model table `{name}` is missing from the function"),
                    ));
                }
                (None, _) => {
                    findings.push(finding(
                        FindingKind::CertMismatch,
                        format!("model table `{name}` has no byte layout"),
                    ));
                }
            }
        }
        let model_tables: BTreeSet<&str> =
            self.tables.iter().map(|(name, _)| name.as_str()).collect();
        for t in &body.tables {
            if !model_tables.contains(t.name.as_str()) {
                findings.push(finding(
                    FindingKind::CertMismatch,
                    format!("function carries table `{}` with no model counterpart", t.name),
                ));
            }
        }

        for lemma in &self.unknown_lemmas {
            findings.push(finding(
                FindingKind::UnknownLemma { lemma: lemma.clone() },
                format!("derivation cites lemma `{lemma}` not present in the hint databases"),
            ));
        }
        findings
    }
}
