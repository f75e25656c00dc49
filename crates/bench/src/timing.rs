//! The one timing harness of the bench binaries.
//!
//! Every timed quantity goes through the same steps:
//!
//! 1. untimed warm-up calls of every arm;
//! 2. rounds that call every compared arm once, in an order that
//!    alternates (forward on even rounds, reversed on odd ones), so load
//!    drift and the state one arm leaves behind hit every arm alike;
//! 3. one quantile definition, nearest rank, the same as the repository
//!    benchmark's order statistics;
//! 4. one JSON shape, `{n, median, q1, q3}` ([`Summary::to_json`]),
//!    written beside the run's `cores`.
//!
//! An arm times only what it wraps in [`Clock::time`], so untimed setup
//! (resetting a buffer, expiring an artifact) can sit beside the timed
//! call.

use crate::json::Json;
use std::hint::black_box;
use std::time::Instant;

/// Runs `f` once and returns its result with its wall time in
/// milliseconds. For a quantity that is measured once per run; compared
/// quantities go through [`interleaved`].
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// The timer an arm runs under. It is off during warm-up; in a round it
/// sums the wall time of every [`Clock::time`] call into that round's
/// sample.
#[derive(Debug)]
pub struct Clock {
    on: bool,
    ms: f64,
}

impl Clock {
    /// Runs `f`, adding its wall time to the round's sample when timed.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let (r, ms) = time(f);
        self.ms += ms;
        r
    }

    /// Runs `f` once untimed, then once timed. The timed call starts from
    /// the allocator and cache state its own kind of call leaves behind,
    /// not from the previous arm's (a small compile timed right after a
    /// large one reads slow).
    pub fn primed<R>(&mut self, mut f: impl FnMut() -> R) -> R {
        black_box(f());
        self.time(f)
    }
}

/// One arm's timed round: its sample in milliseconds and what the arm
/// returned.
#[derive(Debug)]
pub struct Timed<T> {
    /// The wall time of the round's [`Clock::time`] calls.
    pub ms: f64,
    /// The arm's result.
    pub out: T,
}

/// Calls every arm `warmup` times untimed, then runs `rounds` rounds in
/// which each of the `arms` arms is called once, in index order on even
/// rounds and reversed on odd ones. `call(arm, clock)` runs one arm.
/// Returns each arm's timed rounds, in round order.
pub fn interleaved<T>(
    arms: usize,
    warmup: usize,
    rounds: usize,
    mut call: impl FnMut(usize, &mut Clock) -> T,
) -> Vec<Vec<Timed<T>>> {
    for _ in 0..warmup {
        for arm in 0..arms {
            black_box(call(arm, &mut Clock { on: false, ms: 0.0 }));
        }
    }
    let mut timed: Vec<Vec<Timed<T>>> = (0..arms).map(|_| Vec::with_capacity(rounds)).collect();
    for round in 0..rounds {
        for i in 0..arms {
            let arm = if round % 2 == 0 { i } else { arms - 1 - i };
            let mut clock = Clock { on: true, ms: 0.0 };
            let out = call(arm, &mut clock);
            timed[arm].push(Timed { ms: clock.ms, out });
        }
    }
    timed
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `percent`% of the samples at or below it (rank
/// `⌈percent·n/100⌉`, 1-based). `percent` is in `1..=100`.
fn nearest_rank(sorted: &[f64], percent: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&percent), "percentile {percent} out of range");
    sorted[(percent * sorted.len()).div_ceil(100) - 1]
}

fn sorted(samples: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = samples.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank `percent`-th percentile of `samples`.
///
/// # Panics
///
/// On no samples or a `percent` outside `1..=100`.
pub fn percentile(samples: impl IntoIterator<Item = f64>, percent: usize) -> f64 {
    nearest_rank(&sorted(samples), percent)
}

/// The samples of one timed quantity: their count and nearest-rank
/// median and quartiles. `q3 - q1` is the noise band a comparison must
/// clear.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The 50th percentile.
    pub median: f64,
    /// The 25th percentile.
    pub q1: f64,
    /// The 75th percentile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples`.
    ///
    /// # Panics
    ///
    /// On no samples.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            median: nearest_rank(&s, 50),
            q1: nearest_rank(&s, 25),
            q3: nearest_rank(&s, 75),
        }
    }

    /// `{n, median, q1, q3}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::U64(self.n as u64)),
            ("median", Json::F64(self.median)),
            ("q1", Json::F64(self.q1)),
            ("q3", Json::F64(self.q3)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn quantiles_are_nearest_rank() {
        let one = Summary::of([7.0]);
        assert_eq!(one, Summary { n: 1, median: 7.0, q1: 7.0, q3: 7.0 });
        // Even n: the median is the lower middle sample, not an average.
        let even = Summary::of([4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even, Summary { n: 4, median: 2.0, q1: 1.0, q3: 3.0 });
        let odd = Summary::of((1..=9).rev().map(f64::from));
        assert_eq!(odd, Summary { n: 9, median: 5.0, q1: 3.0, q3: 7.0 });
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(hundred.iter().copied(), 99), 99.0);
        assert_eq!(percentile(hundred.iter().copied(), 100), 100.0);
        assert_eq!(percentile([5.0, 1.0], 1), 1.0);
        let j = even.to_json();
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(4));
        assert!(j.render().contains("\"median\": 2.0000"));
    }

    #[test]
    fn arm_order_alternates_between_rounds() {
        let mut order = Vec::new();
        let timed = interleaved(3, 0, 4, |arm, _| order.push(arm));
        assert_eq!(order, [0, 1, 2, 2, 1, 0, 0, 1, 2, 2, 1, 0]);
        assert!(timed.iter().all(|arm| arm.len() == 4));
    }

    #[test]
    fn warm_up_calls_are_never_timed() {
        let mut calls = [0usize; 2];
        let timed = interleaved(2, 2, 3, |arm, clock| {
            calls[arm] += 1;
            let warm_up = calls[arm] <= 2;
            // Only a warm-up call is slow; a sample that includes one
            // reads at least 30 ms.
            clock.time(|| {
                if warm_up {
                    std::thread::sleep(Duration::from_millis(30));
                }
            });
            warm_up
        });
        assert_eq!(calls, [5, 5]);
        for arm in &timed {
            assert_eq!(arm.len(), 3);
            assert!(arm.iter().all(|t| !t.out && t.ms < 30.0), "{arm:?}");
        }
    }

    #[test]
    fn a_primed_call_runs_untimed_before_its_timed_twin() {
        // The scaling series' protocol: every timed compile of a size
        // directly follows an untimed compile of the same size. Whichever
        // of the two runs sleeps shows whether it was timed.
        for slow_run in [1, 2] {
            let timed = interleaved(2, 1, 3, |_, clock| {
                let mut runs = 0;
                clock.primed(|| {
                    runs += 1;
                    if runs == slow_run {
                        std::thread::sleep(Duration::from_millis(30));
                    }
                });
                runs
            });
            for t in timed.iter().flatten() {
                assert_eq!(t.out, 2);
                assert_eq!(t.ms >= 30.0, slow_run == 2, "{t:?}");
            }
        }
    }
}
