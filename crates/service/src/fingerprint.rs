//! Stable structural fingerprints for compilation requests.
//!
//! The artifact store is *content-addressed by input*: the key under which
//! a [`CompiledFunction`] is filed is a fingerprint of everything the
//! compilation result depends on —
//!
//! 1. the functional **model** (its canonical JSON encoding),
//! 2. the ABI **spec** (canonical JSON),
//! 3. the **hint-database identity** (`HintDbs::identity_string`): lemma
//!    names in registration order and solver names — registration
//!    *order* matters because the engine's first-match lemma loop makes
//!    it semantically relevant,
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
use rupicola_lang::json::{Json, Sink};
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
///
/// v6: the store writes each envelope as its canonical compact rendering
/// instead of the indented one, and every right-nested chain encodes as
/// one array: a derivation node's last-child chain, a model's let-spine
/// and a body's `seq` chain. `chacha20_block`'s envelope now nests 24
/// JSON levels (its v5 derivation alone nested 1,364, its model and body
/// about 680 each), and every perf-suite program fits the parser's depth
/// limit. The canonical model bytes changed with the
/// model codec, so every key changed. The hint-database identity lost the
/// constant `;mode=Indexed;memo=true` segment that kept v5 keys stable
/// after the engine's dispatch and memo switches were retired. v5
/// envelopes sit under keys no request makes any more, and one filed
/// under a v6 key evicts on its format version.
pub const FORMAT_VERSION: u64 = 6;

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

/// FNV-1a/64 as a rendering [`Sink`]: hashes JSON renderings and other
/// canonical text as it is written, without building it.
struct Fnv(u64);

impl Sink for Fnv {
    fn put(&mut self, chunk: &str) {
        self.0 = fnv1a(self.0, chunk.as_bytes());
    }
}

/// Content digest of an encoded artifact subtree, as 16 lowercase hex
/// digits: FNV-1a/64 over its *canonical compact rendering*, which is
/// what the store writes. A load compares it with [`text_digest`] of the
/// stored bytes, so it catches any corruption of them — the checker
/// re-validates semantics, but free-text witness fields (a derivation
/// node's `focus` rendering, a solver name) are semantically inert, and
/// a bit flip there must still read as corruption, not be served.
pub fn content_digest(artifact: &Json) -> String {
    let mut digest = Fnv(FNV_OFFSET);
    artifact.write_compact(&mut digest);
    format!("{:016x}", digest.0)
}

/// The digest a verified load compares: FNV-1a/64 over an artifact's
/// stored text, as 16 lowercase hex digits. On the compact rendering the
/// store writes it equals [`content_digest`] of the encoded artifact; any
/// other text of the artifact (re-indented, fields reordered) hashes
/// differently.
pub fn text_digest(text: &str) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, text.as_bytes()))
}

/// Writes the canonical text a request hashes to into `sink`: the format
/// version, the compact renderings of model and spec, the hint-database
/// identity, the four determinism-relevant limits and the three identity
/// strings, `NUL`-separated.
fn write_canonical(inputs: &FingerprintInputs<'_>, sink: &mut impl Sink) {
    let FingerprintInputs { model, spec, dbs, limits, pipeline, ct, rv } = *inputs;
    sink.put("rupicola-artifact-v");
    sink.put(&FORMAT_VERSION.to_string());
    sink.put("\0");
    encode_model(model).write_compact(sink);
    sink.put("\0");
    encode_fn_spec(spec).write_compact(sink);
    sink.put("\0");
    sink.put(&dbs.identity_string());
    sink.put("\0");
    // Exactly the four *determinism-relevant* budgets. `max_wall_ms` is
    // deliberately excluded: a wall-clock deadline changes when an answer
    // arrives (and whether it arrives at all), never which artifact is
    // correct for the request — keying on it would fragment the cache
    // across callers with different latency budgets for no safety gain.
    sink.put(&format!(
        "limits:lemmas={};depth={};names={};solver={}",
        limits.max_lemma_applications,
        limits.max_recursion_depth,
        limits.max_fresh_names,
        limits.solver_step_budget
    ));
    sink.put("\0");
    sink.put("pipeline:");
    sink.put(pipeline);
    sink.put("\0");
    // The secrecy policy is *included* (unlike `max_wall_ms`): which CT
    // findings gate an artifact is part of what was verified about it, so
    // a cached artifact must never satisfy a request made under a policy
    // it was not checked against.
    sink.put("ct:");
    sink.put(ct);
    sink.put("\0");
    // The RISC-V stage-pipeline identity: whether (and through which
    // validated stages) machine code was lowered is part of what the
    // envelope contains, exactly like the Bedrock2 pass pipeline.
    sink.put("rv:");
    sink.put(rv);
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
    let mut key = Fnv(FNV_OFFSET);
    write_canonical(inputs, &mut key);
    Fingerprint(key.0)
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
    fn hashing_as_written_equals_hashing_the_whole_text() {
        let (model, spec) = request();
        let dbs = standard_dbs();
        let limits = EngineLimits::default();
        let inputs = FingerprintInputs::new(&model, &spec, &dbs, &limits);
        let mut text = String::new();
        write_canonical(&inputs, &mut text);
        assert!(text.starts_with("rupicola-artifact-v6\0"));
        assert_eq!(fingerprint(&inputs).0, fnv1a(FNV_OFFSET, text.as_bytes()));
        let artifact = encode_fn_spec(&spec);
        assert_eq!(content_digest(&artifact), text_digest(&artifact.render_compact()));
        assert_ne!(content_digest(&artifact), text_digest(&artifact.render()));
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
