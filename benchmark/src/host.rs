//! Host-speed normalization.
//!
//! The benchmark runs on shared machines whose speed swings by up to 1.5x
//! within seconds and between minutes (a neighbour's load, not this
//! program's): raw times of ten runs of the same code spread by 10–40%.
//! Every end-to-end time is therefore reported at a fixed reference host
//! speed: each measured time is scaled by `REFERENCE_MS / k`, where `k` is
//! the mean time of the two runs of a fixed calibration kernel that
//! bracket it. The detail line keeps every raw value beside the scaled
//! one.
//!
//! The kernel is the benchmark's own code: it builds, walks and drops a
//! `BTreeMap` of 5000 string keys, about 2 ms. It runs on a thread of its
//! own while the client waits, so it gets a malloc arena of its own and
//! the heap state the system leaves behind does not move it; a slow host
//! moves the kernel and the system alike. It allocates on purpose: an
//! allocation-free kernel (a sort and a pointer chase over fixed buffers)
//! tracked the host's speed three to five times worse.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::report::{Call, Report};

/// The kernel's time on the reference host (the 2-core machine the bounds
/// in `BENCHMARK.json` were set on, when it is not contended). Only the
/// scale of the reported times depends on it.
pub const REFERENCE_MS: f64 = 2.0;

/// Least time between two kernel runs while the client works.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// The calibration kernel.
fn kernel() {
    let mut map = BTreeMap::new();
    for i in 0..5000u64 {
        map.insert(
            format!("k{}", i.wrapping_mul(2_654_435_761) % 100_003),
            vec![i; 4],
        );
    }
    let sum = map
        .iter()
        .fold(0u64, |acc, (k, v)| acc.wrapping_add(k.len() as u64 + v[0]));
    black_box(sum);
}

/// The kernel's thread and its runs over a run.
#[derive(Debug)]
pub struct HostClock {
    /// One message per kernel run; dropping it stops the thread.
    requests: Option<Sender<()>>,
    /// `(start, time)` of each kernel run.
    times: Receiver<(Instant, Duration)>,
    thread: Option<JoinHandle<()>>,
    /// `(midpoint, ms)` of every kernel run, in time order.
    samples: Vec<(Instant, f64)>,
}

impl HostClock {
    /// Starts the kernel's thread.
    ///
    /// # Errors
    ///
    /// When the thread cannot be spawned.
    pub fn new() -> Result<HostClock, String> {
        let (requests, run) = mpsc::channel::<()>();
        let (done, times) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("host-clock".into())
            .spawn(move || {
                for () in run {
                    let start = Instant::now();
                    kernel();
                    if done.send((start, start.elapsed())).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| format!("cannot start the host clock: {e}"))?;
        Ok(HostClock {
            requests: Some(requests),
            times,
            thread: Some(thread),
            samples: Vec::new(),
        })
    }

    /// Runs the kernel now and waits for it.
    ///
    /// # Panics
    ///
    /// If the kernel's thread has died (it cannot fail).
    pub fn sample(&mut self) {
        let requests = self.requests.as_ref().expect("host clock running");
        requests.send(()).expect("host clock thread alive");
        let (start, took) = self.times.recv().expect("host clock thread alive");
        self.samples
            .push((start + took / 2, took.as_secs_f64() * 1e3));
    }

    /// Runs the kernel if [`SAMPLE_EVERY`] has passed since the last run.
    pub fn tick(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|&(at, _)| at.elapsed() >= SAMPLE_EVERY)
        {
            self.sample();
        }
    }

    /// The factor that scales a time measured around `at` to the reference
    /// host: `REFERENCE_MS` over the mean of the kernel runs just before
    /// and just after `at` (or the nearest one at either end).
    pub fn factor(&self, at: Instant) -> f64 {
        let after = self.samples.partition_point(|&(t, _)| t < at);
        let around: Vec<f64> = self.samples
            [after.saturating_sub(1)..(after + 1).min(self.samples.len())]
            .iter()
            .map(|&(_, ms)| ms)
            .collect();
        if around.is_empty() {
            return 1.0;
        }
        REFERENCE_MS * around.len() as f64 / around.iter().sum::<f64>()
    }

    /// Closes a plain run: one last kernel run brackets the last call,
    /// then every `(class, midpoint, ms)` call is scaled by its factor into
    /// the report's latency metrics, `items_per_call` items each.
    pub fn finish(
        &mut self,
        report: &mut Report,
        calls: &[(usize, Instant, f64)],
        items_per_call: f64,
    ) {
        self.sample();
        let scaled: Vec<Call> = calls
            .iter()
            .map(|&(class, at, ms)| Call {
                class,
                ms,
                factor: self.factor(at),
            })
            .collect();
        report.set_latencies(&scaled, items_per_call);
        report.host = Some(self.summary());
    }

    /// Median kernel time and the number of kernel runs.
    pub fn summary(&self) -> (f64, usize) {
        let times: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        (
            if times.is_empty() {
                0.0
            } else {
                crate::stats::median(&times)
            },
            times.len(),
        )
    }
}

impl Drop for HostClock {
    fn drop(&mut self) {
        self.requests = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
