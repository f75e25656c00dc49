//! Stable structural fingerprints for compilation requests.
//!
//! The artifact store is *content-addressed by input*: the key under which
//! a [`CompiledFunction`] is filed is a fingerprint of everything the
//! compilation result depends on —
//!
//! 1. the functional **model** (its canonical JSON encoding),
//! 2. the ABI **spec** (canonical JSON),
//! 3. the **hint-database identity** (`HintDbs::identity_string`): lemma
//!    names in registration order and solver names, then a constant engine
//!    segment — registration *order* matters because the engine's
//!    first-match lemma loop makes it semantically relevant,
//! 4. the **engine limits** (a run that fails under tight budgets is not
//!    the same request as one under default budgets),
//! 5. the **optimization pipeline identity** (ordered pass names) — an
//!    artifact optimized under one pipeline is a different artifact from
//!    the same program unoptimized or optimized differently,
//! 6. a **format version**, so a codec change invalidates the whole store
//!    instead of mis-decoding old artifacts.
//!
//! The hash is FNV-1a/64 over those canonical bytes — hand-rolled, fully
//! specified, and therefore stable across processes, platforms and runs
//! (unlike `DefaultHasher`, whose keys are randomized per process). FNV is
//! not collision-resistant against adversaries, but the store does not
//! rely on key uniqueness for soundness: every load is re-checked by the
//! independent checker, so a collision costs one spurious eviction, never
//! a wrong artifact (see `store`).
//!
//! [`CompiledFunction`]: rupicola_core::CompiledFunction

use rupicola_core::fnspec::FnSpec;
use rupicola_core::serial::encode_fn_spec;
use rupicola_core::{EngineLimits, HintDbs};
use rupicola_lang::codec::encode_model;
use rupicola_lang::Model;

/// Version of the on-disk artifact format. Bump whenever the codec or the
/// canonical-bytes layout changes: old artifacts then miss (different key)
/// or evict (envelope mismatch) instead of being mis-read.
///
/// v2: artifacts carry the optional optimized body and the `opt_*`
/// compile-stats counters; the canonical bytes gained the pass-pipeline
/// identity segment.
///
/// v3: the canonical bytes gained the constant-time policy identity
/// segment (`SecrecyPolicy::identity_string`), so an artifact verified
/// under one secrecy policy is never served to a request made under
/// another — in particular never under a *stricter* one.
///
/// v4: artifact envelopes may carry a validated RISC-V machine artifact,
/// and the canonical bytes gained the RISC-V pipeline identity segment
/// (`RvPipelineConfig::identity_string`, or `none` when the request asks
/// for no machine code): an artifact lowered under one stage pipeline is
/// a different artifact from the same program lowered under another.
///
/// v5: compile stats gained the `solver_confirm_compares` counter (the
/// interned-representation memo-cache refactor), so v4 artifacts no
/// longer decode. The fingerprint itself stays a pure function of the
/// request's *structure*: interner ids and cached hashes are process-local
/// ephemera and never reach the canonical bytes (see DESIGN.md §16).
pub const FORMAT_VERSION: u64 = 5;

/// A stable 64-bit structural fingerprint of a compilation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// The fingerprint as 16 lowercase hex digits — the filename stem used
    /// by the store.
    pub fn as_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a/64 over `bytes`, continuing from `state`.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Content digest of an encoded artifact subtree, as 16 lowercase hex
/// digits. Computed over the *canonical compact rendering* on both the
/// write and the load side, so it is insensitive to whitespace but
/// catches any corruption that survives JSON parsing — the checker
/// re-validates semantics, but free-text witness fields (a derivation
/// node's `focus` rendering, a solver name) are semantically inert, and
/// a bit flip there must still read as corruption, not be served.
pub(crate) fn content_digest(artifact: &rupicola_lang::json::Json) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, artifact.render_compact().as_bytes()))
}

/// The canonical byte string a request hashes to. Exposed (crate-public)
/// so tests can assert on *why* two keys differ, not just that they do.
pub(crate) fn canonical_bytes(
    model: &Model,
    spec: &FnSpec,
    dbs: &HintDbs,
    limits: &EngineLimits,
    pipeline: &str,
    ct: &str,
    rv: &str,
) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(4096);
    bytes.extend_from_slice(b"rupicola-artifact-v");
    bytes.extend_from_slice(FORMAT_VERSION.to_string().as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(encode_model(model).render_compact().as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(encode_fn_spec(spec).render_compact().as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(dbs.identity_string().as_bytes());
    bytes.push(0);
    // Exactly the four *determinism-relevant* budgets. `max_wall_ms` is
    // deliberately excluded: a wall-clock deadline changes when an answer
    // arrives (and whether it arrives at all), never which artifact is
    // correct for the request — keying on it would fragment the cache
    // across callers with different latency budgets for no safety gain.
    bytes.extend_from_slice(
        format!(
            "limits:lemmas={};depth={};names={};solver={}",
            limits.max_lemma_applications,
            limits.max_recursion_depth,
            limits.max_fresh_names,
            limits.solver_step_budget
        )
        .as_bytes(),
    );
    bytes.push(0);
    bytes.extend_from_slice(b"pipeline:");
    bytes.extend_from_slice(pipeline.as_bytes());
    bytes.push(0);
    // The secrecy policy is *included* (unlike `max_wall_ms`): which CT
    // findings gate an artifact is part of what was verified about it, so
    // a cached artifact must never satisfy a request made under a policy
    // it was not checked against.
    bytes.extend_from_slice(b"ct:");
    bytes.extend_from_slice(ct.as_bytes());
    bytes.push(0);
    // The RISC-V stage-pipeline identity: whether (and through which
    // validated stages) machine code was lowered is part of what the
    // envelope contains, exactly like the Bedrock2 pass pipeline.
    bytes.extend_from_slice(b"rv:");
    bytes.extend_from_slice(rv.as_bytes());
    bytes
}

/// Everything a compilation request's key depends on (see the module
/// docs). [`FingerprintInputs::new`] fills the three identity strings
/// with their "nothing configured" values; callers that key under a
/// pipeline, policy or RISC-V stage list override them with struct-update
/// syntax.
#[derive(Debug, Clone, Copy)]
pub struct FingerprintInputs<'a> {
    /// The functional model.
    pub model: &'a Model,
    /// The ABI spec.
    pub spec: &'a FnSpec,
    /// The hint databases (keyed by `HintDbs::identity_string`).
    pub dbs: &'a HintDbs,
    /// The engine budgets (every one but `max_wall_ms`).
    pub limits: &'a EngineLimits,
    /// Optimization pass-pipeline identity
    /// (`rupicola_opt::PipelineConfig::identity_string`); `none` for an
    /// unoptimized artifact.
    pub pipeline: &'a str,
    /// Constant-time policy identity
    /// (`rupicola_analysis::SecrecyPolicy::identity_string`); the empty
    /// policy renders as `public`, so requests with no secrets and
    /// requests that never mention a policy share a key.
    pub ct: &'a str,
    /// RISC-V lowering-pipeline identity
    /// (`rupicola_rv::RvPipelineConfig::identity_string`); `none` when the
    /// request asks for no machine code.
    pub rv: &'a str,
}

impl<'a> FingerprintInputs<'a> {
    /// A request with no optimization pipeline, the public CT policy and
    /// no RISC-V lowering.
    pub fn new(
        model: &'a Model,
        spec: &'a FnSpec,
        dbs: &'a HintDbs,
        limits: &'a EngineLimits,
    ) -> FingerprintInputs<'a> {
        FingerprintInputs { model, spec, dbs, limits, pipeline: "none", ct: "public", rv: "none" }
    }
}

/// Fingerprints a compilation request: FNV-1a/64 over its canonical bytes.
pub fn fingerprint(inputs: &FingerprintInputs<'_>) -> Fingerprint {
    let FingerprintInputs { model, spec, dbs, limits, pipeline, ct, rv } = *inputs;
    Fingerprint(fnv1a(FNV_OFFSET, &canonical_bytes(model, spec, dbs, limits, pipeline, ct, rv)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rupicola_ext::standard_dbs;

    fn request() -> (Model, FnSpec) {
        (rupicola_programs::fnv1a::model(), rupicola_programs::fnv1a::spec())
    }

    fn key(model: &Model, spec: &FnSpec, dbs: &HintDbs, limits: &EngineLimits) -> Fingerprint {
        fingerprint(&FingerprintInputs::new(model, spec, dbs, limits))
    }

    #[test]
    fn fnv_vectors() {
        // Reference vectors for FNV-1a/64 (from the FNV spec).
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn deterministic_within_process() {
        let (model, spec) = request();
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        assert_eq!(
            key(&model, &spec, &dbs, &limits),
            key(&model, &spec, &dbs, &limits)
        );
    }

    #[test]
    fn different_programs_different_keys() {
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let (m1, s1) = request();
        let m2 = rupicola_programs::crc32::model();
        let s2 = rupicola_programs::crc32::spec();
        assert_ne!(key(&m1, &s1, &dbs, &limits), key(&m2, &s2, &dbs, &limits));
    }

    #[test]
    fn limits_are_part_of_the_key() {
        let (model, spec) = request();
        let dbs = standard_dbs();
        assert_ne!(
            key(&model, &spec, &dbs, &EngineLimits::default()),
            key(&model, &spec, &dbs, &EngineLimits::tight())
        );
    }

    #[test]
    fn pipeline_identity_is_part_of_the_key() {
        let (model, spec) = request();
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let base = FingerprintInputs::new(&model, &spec, &dbs, &limits);
        let key = |pipeline: &str| fingerprint(&FingerprintInputs { pipeline, ..base });
        let none = key("none");
        let full = key("const-fold,copy-prop,dead-store,strength-reduce,load-cse");
        let partial = key("const-fold");
        assert_ne!(none, full);
        assert_ne!(none, partial);
        assert_ne!(full, partial);
        // The default inputs are exactly the `none` pipeline.
        assert_eq!(none, fingerprint(&base));
    }

    #[test]
    fn ct_policy_is_part_of_the_key() {
        use rupicola_analysis::SecrecyPolicy;
        let (model, spec) = request();
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let public = SecrecyPolicy::default().identity_string();
        let secret = SecrecyPolicy::secrets(["s"]).identity_string();
        let stricter = SecrecyPolicy::secrets(["s", "t"]).identity_string();
        let base = FingerprintInputs::new(&model, &spec, &dbs, &limits);
        let key = |ct: &str| fingerprint(&FingerprintInputs { ct, ..base });
        assert_ne!(key(&public), key(&secret), "labeling a secret changes the key");
        assert_ne!(key(&secret), key(&stricter), "strengthening the policy changes the key");
        // The default inputs are exactly the empty (`public`) policy:
        // policy-less and explicitly-public callers share a cache.
        assert_eq!(key(&public), fingerprint(&base));
        assert_eq!(public, "public");
    }

    #[test]
    fn rv_pipeline_is_part_of_the_key() {
        let (model, spec) = request();
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let base = FingerprintInputs::new(&model, &spec, &dbs, &limits);
        let key = |rv: &str| fingerprint(&FingerprintInputs { rv, ..base });
        let none = key("none");
        let naive = key("lower");
        let full = key("lower,regalloc,redundant-mem,branch-simplify,addi-fold");
        assert_ne!(none, naive, "asking for machine code changes the key");
        assert_ne!(naive, full, "the stage pipeline changes the key");
        // The default inputs are exactly the `none` rv pipeline.
        assert_eq!(none, fingerprint(&base));
    }

    #[test]
    fn hex_key_is_16_lowercase_digits() {
        let (model, spec) = request();
        let key = key(&model, &spec, &standard_dbs(), &EngineLimits::default()).as_hex();
        assert_eq!(key.len(), 16);
        assert!(key.bytes().all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
    }
}
