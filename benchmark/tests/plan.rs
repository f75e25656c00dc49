//! The order statistics and the seeded request sequences.

use rupicola_benchmark::plan::{
    audited, codegen_round, cold_round, input_seed, mixed_batch, warm_request,
};
use rupicola_benchmark::stats::{geomean, median, nearest_rank};

#[test]
fn nearest_rank_on_known_vectors() {
    let v = [15.0, 20.0, 35.0, 40.0, 50.0];
    assert_eq!(nearest_rank(&v, 5), 15.0);
    assert_eq!(nearest_rank(&v, 30), 20.0);
    assert_eq!(nearest_rank(&v, 40), 20.0);
    assert_eq!(nearest_rank(&v, 50), 35.0);
    assert_eq!(nearest_rank(&v, 100), 50.0);
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(nearest_rank(&ten, 50), 5.0);
    assert_eq!(nearest_rank(&ten, 90), 9.0);
    assert_eq!(nearest_rank(&ten, 99), 10.0);
    assert_eq!(nearest_rank(&[7.0], 1), 7.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
}

#[test]
#[should_panic(expected = "no samples")]
fn nearest_rank_rejects_no_samples() {
    nearest_rank(&[], 50);
}

/// Runs `trace(seed)` for two seeds: each is a pure function of its seed,
/// and the two seeds give different traces.
fn pure_and_seed_dependent<T: PartialEq + std::fmt::Debug>(trace: impl Fn(u64) -> T) {
    assert_eq!(trace(1), trace(1));
    assert_eq!(trace(0xDEAD_BEEF), trace(0xDEAD_BEEF));
    assert_ne!(trace(1), trace(2));
}

#[test]
fn cold_rounds_are_seeded_permutations() {
    pure_and_seed_dependent(|s| (0..8).map(|r| cold_round(s, r, 11)).collect::<Vec<_>>());
    let mut round = cold_round(5, 3, 11);
    round.sort_unstable();
    assert_eq!(round, (0..11).collect::<Vec<_>>());
}

#[test]
fn warm_requests_cover_the_suite() {
    pure_and_seed_dependent(|s| (0..64).map(|i| warm_request(s, i, 7)).collect::<Vec<_>>());
    let mut seen = [0usize; 7];
    for i in 0..7000 {
        seen[warm_request(9, i, 7)] += 1;
    }
    assert!(seen.iter().all(|&n| (800..1200).contains(&n)), "{seen:?}");
}

#[test]
fn mixed_batches_have_exactly_one_cold_job() {
    pure_and_seed_dependent(|s| {
        (0..8)
            .map(|b| mixed_batch(s, b, 7, 4, 8))
            .collect::<Vec<_>>()
    });
    for b in 0..200 {
        let batch = mixed_batch(3, b, 7, 4, 8);
        assert_eq!(batch.jobs.len(), 8);
        for (k, &(tenant, program)) in batch.jobs.iter().enumerate() {
            assert!(tenant < 4 && program < 7);
            assert_eq!(
                program == batch.churn,
                k == batch.cold_at,
                "batch {b}: {batch:?}"
            );
        }
    }
}

#[test]
fn codegen_rounds_and_samples_are_seeded() {
    pure_and_seed_dependent(|s| (0..8).map(|r| codegen_round(s, r, 7)).collect::<Vec<_>>());
    pure_and_seed_dependent(|s| (0..7).map(|p| input_seed(s, p)).collect::<Vec<_>>());
    pure_and_seed_dependent(|s| (0..256).map(|i| audited(s, i)).collect::<Vec<_>>());
    let sampled = (0..16_000).filter(|&i| audited(4, i)).count();
    assert!((800..1200).contains(&sampled), "{sampled} of 16000 audited");
}
