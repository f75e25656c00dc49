//! The traced run's recorder: total time and calls per layer span, and
//! summed counters, all recorded from the benchmark's side of each layer
//! call.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Span totals and counters over the traced client calls of one run.
#[derive(Debug, Default)]
pub struct Spans {
    times: BTreeMap<&'static str, (Duration, u64)>,
    counts: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Runs `f` inside span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed());
        out
    }

    /// Adds one call of `d` to span `name`.
    pub fn add(&mut self, name: &'static str, d: Duration) {
        let e = self.times.entry(name).or_default();
        e.0 += d;
        e.1 += 1;
    }

    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Total milliseconds in span `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.times
            .get(name)
            .map_or(0.0, |(d, _)| d.as_secs_f64() * 1e3)
    }

    /// Calls of span `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.times.get(name).map_or(0, |&(_, n)| n)
    }

    /// Counter `name`.
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}
