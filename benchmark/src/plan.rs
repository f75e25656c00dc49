//! Seeded request sequences. Every generator is a pure function of the
//! seed and the request (or round, or batch) index, so a run can be
//! replayed exactly and two runs with the same seed send the same traffic.

/// A splitmix64 stream: the only source of randomness in the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

/// Stream tags, so one seed gives unrelated sequences per workload.
const COLD: u64 = 0xC01D;
const WARM: u64 = 0x3A53;
const CHURN: u64 = 0xC4A2;
const MIXED: u64 = 0x313E;
const CODEGEN: u64 = 0xC0DE;
const AUDIT: u64 = 0xA0D1;
const INPUT: u64 = 0x1397;

impl Rng {
    /// The stream for `(seed, index)`.
    pub fn new(seed: u64, index: u64) -> Rng {
        let mut r = Rng(seed);
        let base = r.next_u64();
        Rng(base ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`; the modulo bias is below 2^-50 for the
    /// small `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Round `round` of a stream: a seeded permutation of `0..n`.
fn shuffled(stream: u64, round: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(stream, round).shuffle(&mut order);
    order
}

/// Item `i` of a stream of seeded shuffled rounds over `0..n`: every value
/// comes up equally often whatever the seed, so the mix of a run does not
/// depend on it.
fn balanced(stream: u64, i: u64, n: usize) -> usize {
    shuffled(stream, i / n as u64, n)[(i % n as u64) as usize]
}

/// cold-pipeline round `round`: a seeded permutation of `0..programs`.
pub fn cold_round(seed: u64, round: u64, programs: usize) -> Vec<usize> {
    shuffled(seed ^ COLD, round, programs)
}

/// warm-hits request `i`: the program it asks for.
pub fn warm_request(seed: u64, i: u64, programs: usize) -> usize {
    balanced(seed ^ WARM, i, programs)
}

/// One mixed-batch client call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedBatch {
    /// The program whose artifact is deleted before the batch.
    pub churn: usize,
    /// Position of the cold job (the churned program) in `jobs`.
    pub cold_at: usize,
    /// `(tenant, program)` per job; every job but `cold_at` names a
    /// program other than `churn`, so it is a verified hit.
    pub jobs: Vec<(usize, usize)>,
}

/// mixed-batch batch `batch`: `size` jobs over `tenants` tenants and
/// `programs` programs (`programs >= 2`).
pub fn mixed_batch(
    seed: u64,
    batch: u64,
    programs: usize,
    tenants: usize,
    size: usize,
) -> MixedBatch {
    let churn = balanced(seed ^ CHURN, batch, programs);
    let mut r = Rng::new(seed ^ MIXED, batch);
    let cold_at = r.below(size);
    let jobs = (0..size)
        .map(|i| {
            let tenant = r.below(tenants);
            let program = if i == cold_at {
                churn
            } else {
                (churn + 1 + r.below(programs - 1)) % programs
            };
            (tenant, program)
        })
        .collect();
    MixedBatch {
        churn,
        cold_at,
        jobs,
    }
}

/// One codegen round: the order the programs run in, and whether each
/// program's handwritten driver runs before its generated one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenRound {
    /// Program indices in run order.
    pub order: Vec<usize>,
    /// `hand_first[i]` for the program at `order[i]`.
    pub hand_first: Vec<bool>,
}

/// codegen round `round` over `programs` programs.
pub fn codegen_round(seed: u64, round: u64, programs: usize) -> CodegenRound {
    let mut r = Rng::new(seed ^ CODEGEN, round);
    let mut order: Vec<usize> = (0..programs).collect();
    r.shuffle(&mut order);
    let hand_first = (0..programs).map(|_| r.below(2) == 1).collect();
    CodegenRound { order, hand_first }
}

/// Whether warm answer `i` is in the seeded 1-in-16 sample whose
/// derivation is compared and re-checked.
pub fn audited(seed: u64, i: u64) -> bool {
    Rng::new(seed ^ AUDIT, i).below(16) == 0
}

/// The seed of program `program`'s native input.
pub fn input_seed(seed: u64, program: usize) -> u64 {
    Rng::new(seed ^ INPUT, program as u64).next_u64()
}
