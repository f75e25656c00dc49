//! The metric registry and the two JSON lines a run prints.
//!
//! Every workload reports every metric of its mode: the end-to-end set in
//! a plain run, the per-layer set in a traced run. A layer a workload does
//! not exercise reads 0 — the "predicted no change" of that pairing.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{geomean, nearest_rank, sorted};
use crate::Workload;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("gen_over_hand", "ratio"),
    ("rv_dyn_instrs", "instrs"),
    ("rv_static_instrs", "instrs"),
];

/// Per-layer metrics with a fixed name. Times are means per client call;
/// `count/req` counters are means per client call too.
const LAYERS: [(&str, &str); 44] = [
    ("trace.request_ms", "ms"),
    ("trace.requests", "count"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("core.compile_ms", "ms"),
    ("core.check_ms", "ms"),
    ("core.decode_ms", "ms"),
    ("core.stmts_per_s", "1/s"),
    ("core.lemma_applications", "count/req"),
    ("core.side_conditions", "count/req"),
    ("core.solver_cache_hit_rate", "ratio"),
    ("core.solver_confirm_compares", "count/req"),
    ("opt.optimize_ms", "ms"),
    ("opt.pass_ms", "ms"),
    ("opt.validate_ms", "ms"),
    ("opt.revalidate_ms", "ms"),
    ("opt.passes_applied", "count/req"),
    ("opt.rollbacks", "count/req"),
    ("opt.sites_rewritten", "count/req"),
    ("analysis.lint_ms", "ms"),
    ("rv.lower_ms", "ms"),
    ("rv.stages_applied", "count/req"),
    ("rv.rollbacks", "count/req"),
    ("rv.sim_ms", "ms"),
    ("lang.json_parse_ms", "ms"),
    ("service.key_ms", "ms"),
    ("service.load_ms", "ms"),
    ("service.read_ms", "ms"),
    ("service.digest_ms", "ms"),
    ("service.verify_ms", "ms"),
    ("service.residual_ms", "ms"),
    ("service.put_ms", "ms"),
    ("service.artifact_bytes", "B"),
    ("service.hits", "count/req"),
    ("service.misses", "count/req"),
    ("service.evictions", "count/req"),
    ("service.stores", "count/req"),
    ("server.batch_ms", "ms"),
    ("server.build_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.warm_done_p50_ms", "ms"),
    ("server.warm_done_p99_ms", "ms"),
    ("server.cold_done_p50_ms", "ms"),
    ("server.utilization", "ratio"),
];

/// Every per-layer metric: the fixed ones, then the per-program families
/// of the codegen workload (`rv.static_instrs.*` is also filled by
/// cold-pipeline, which lowers the same certified bodies).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut defs: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    let native: Vec<&str> = rupicola_bench::fig2_rows().iter().map(|r| r.name).collect();
    let perf: Vec<&str> = rupicola_programs::perf_suite()
        .iter()
        .map(|e| e.info.name)
        .collect();
    for family in ["native.opt_ns_per_byte", "native.hand_ns_per_byte"] {
        defs.extend(native.iter().map(|p| (format!("{family}.{p}"), "ns/B")));
    }
    for family in ["rv.dyn_instrs", "rv.static_instrs"] {
        defs.extend(perf.iter().map(|p| (format!("{family}.{p}"), "instrs")));
    }
    defs
}

/// One row of the traced run's layer table.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Metric name of the layer.
    pub name: String,
    /// The enclosing layer, if this one is timed inside another.
    pub parent: Option<&'static str>,
    /// Mean milliseconds per client call.
    pub ms: f64,
    /// `ms` as a share of the mean client call.
    pub share: f64,
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Wall seconds of the measured window.
    pub secs: f64,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed, were rejected, missed their expected
    /// provenance, or answered wrongly.
    pub failed: u64,
    /// Answers that differed from the reference.
    pub wrong: u64,
    /// The first failure or wrong answer, for the error stream.
    pub first_problem: Option<String>,
    /// The traced run's layer table.
    pub(crate) layers: Vec<LayerRow>,
    /// Median calibration-kernel time and its number of runs (plain runs;
    /// see [`crate::host`]).
    pub(crate) host: Option<(f64, usize)>,
    defs: Vec<(String, &'static str)>,
    /// `(value, samples, raw)`: `raw` is the unscaled measurement of a
    /// host-speed-scaled value.
    values: BTreeMap<String, (f64, u64, Option<f64>)>,
}

/// One timed client call: its class (what sets its cost: the program
/// requested, or the program compiled cold in a batch), its measured
/// time, and the factor that scales it to the reference host speed.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// The call's class.
    pub class: usize,
    /// Measured milliseconds.
    pub ms: f64,
    /// Host-speed factor (see [`crate::host`]).
    pub factor: f64,
}

impl Report {
    /// An empty report for a run of `workload`.
    pub fn new(workload: Workload, seed: u64, trace: bool) -> Report {
        let defs = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        Report {
            workload,
            seed,
            trace,
            secs: 0.0,
            attempted: 0,
            failed: 0,
            wrong: 0,
            first_problem: None,
            layers: Vec::new(),
            host: None,
            defs,
            values: BTreeMap::new(),
        }
    }

    /// Records metric `name` measured over `samples` samples.
    ///
    /// # Panics
    ///
    /// If `name` is not a metric of this run's mode or `value` is not
    /// finite: both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        self.record(name, value, samples, None);
    }

    /// Records a host-speed-scaled metric beside its raw measurement.
    pub fn set_scaled(&mut self, name: &str, value: f64, raw: f64, samples: u64) {
        self.record(name, value, samples, Some(raw));
    }

    fn record(&mut self, name: &str, value: f64, samples: u64, raw: Option<f64>) {
        assert!(
            self.defs.iter().any(|(n, _)| n == name),
            "unregistered metric `{name}`"
        );
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.values.insert(name.to_string(), (value, samples, raw));
    }

    /// A recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _, _)| v)
    }

    /// Records one layer: its mean-per-call metric and its table row.
    pub fn layer(
        &mut self,
        name: &str,
        parent: Option<&'static str>,
        ms: f64,
        request_ms: f64,
        calls: u64,
    ) {
        self.set(name, ms, calls);
        let share = if request_ms > 0.0 {
            ms / request_ms
        } else {
            0.0
        };
        self.layers.push(LayerRow {
            name: name.to_string(),
            parent,
            ms,
            share,
        });
    }

    /// Counts a failed operation (not a wrong answer).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_problem.get_or_insert(why);
    }

    /// Counts a wrong answer; the run is then incorrect.
    pub fn wrong_answer(&mut self, why: String) {
        self.wrong += 1;
        self.fail(why);
    }

    /// Whether every answer matched the reference.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// Sets the request-level end-to-end metrics from the client calls,
    /// scaled to the reference host speed (raw values alongside).
    ///
    /// - Throughput is `items_per_call` per second of call time: the
    ///   client is a closed loop, and the benchmark's own checks between
    ///   calls are not the system's time.
    /// - p50 and p90 are geometric means over classes of each class's
    ///   p50 and p90. Pooled over a mix of programs whose
    ///   latencies differ a hundredfold, those percentiles fall in gaps
    ///   between programs and jump between them from run to run.
    /// - p99 is pooled over every call: the tail the slowest class sees.
    pub fn set_latencies(&mut self, calls: &[Call], items_per_call: f64) {
        let n = calls.len() as u64;
        if n == 0 {
            return;
        }
        let scaled = latency_metrics(
            calls.iter().map(|c| (c.class, c.ms * c.factor)),
            items_per_call,
        );
        let raw = latency_metrics(calls.iter().map(|c| (c.class, c.ms)), items_per_call);
        for ((name, value), (_, raw)) in scaled.into_iter().zip(raw) {
            self.set_scaled(name, value, raw, n);
        }
    }

    /// The full record: run identity, every metric with its unit and
    /// sample count, and the layer table of a traced run.
    pub fn detail_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":{},\"seed\":{},\"cores\":{},\"secs\":{},\"trace\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"metrics\":{{",
            json_str(self.workload.name()),
            self.seed,
            crate::sys::cores(),
            num(self.secs),
            self.trace,
            self.correct(),
            self.attempted,
            self.failed,
        );
        for (i, (name, unit)) in self.defs.iter().enumerate() {
            let (value, samples, raw) = self.values.get(name).copied().unwrap_or((0.0, 0, None));
            let _ = write!(
                out,
                "{}{}:{{\"value\":{},\"unit\":{},\"samples\":{samples}",
                if i > 0 { "," } else { "" },
                json_str(name),
                num(value),
                json_str(unit),
            );
            if let Some(raw) = raw {
                let _ = write!(out, ",\"raw\":{}", num(raw));
            }
            out.push('}');
        }
        out.push('}');
        if let Some((kernel_ms, runs)) = self.host {
            let _ = write!(
                out,
                ",\"host\":{{\"kernel_ms\":{},\"reference_ms\":{},\"runs\":{runs}}}",
                num(kernel_ms),
                num(crate::host::REFERENCE_MS),
            );
        }
        if self.trace {
            out.push_str(",\"layers\":[");
            for (i, row) in self.layers.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"layer\":{},\"parent\":{},\"ms_per_request\":{},\"share\":{}}}",
                    if i > 0 { "," } else { "" },
                    json_str(&row.name),
                    row.parent.map_or_else(|| "null".to_string(), json_str),
                    num(row.ms),
                    num(row.share),
                );
            }
            out.push(']');
        }
        out.push('}');
        out
    }

    /// The last line of a run: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (`{value, unit}` per metric of this mode).
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in self.defs.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            let _ = write!(
                out,
                "{}{}:{{\"value\":{},\"unit\":{}}}",
                if i > 0 { "," } else { "" },
                json_str(name),
                num(value),
                json_str(unit),
            );
        }
        out.push_str("}}");
        out
    }

    /// A human-readable summary for the error stream.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} seed {} ({} cores, {:.1} s{}): {} attempted, {} failed, {} wrong\n",
            self.workload.name(),
            self.seed,
            crate::sys::cores(),
            self.secs,
            if self.trace { ", traced" } else { "" },
            self.attempted,
            self.failed,
            self.wrong
        );
        if self.trace {
            for row in &self.layers {
                let indent = if row.parent.is_some() { "  " } else { "" };
                let _ = writeln!(
                    out,
                    "  {indent}{:<28} {:>10.4} ms/req {:>6.1}%",
                    row.name,
                    row.ms,
                    100.0 * row.share
                );
            }
        }
        for (name, unit) in &self.defs {
            if let Some(&(value, samples, _)) = self.values.get(name) {
                if !self.trace || value != 0.0 {
                    let _ = writeln!(out, "  {name:<36} {value:>14.4} {unit:<9} n={samples}");
                }
            }
        }
        out
    }
}

/// Throughput, median, p90 and p99 of `(class, ms)` calls.
fn latency_metrics(
    calls: impl Iterator<Item = (usize, f64)>,
    items_per_call: f64,
) -> [(&'static str, f64); 4] {
    let mut classes: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut pooled = Vec::new();
    for (class, ms) in calls {
        classes.entry(class).or_default().push(ms);
        pooled.push(ms);
    }
    let per_class = |percent| {
        let v: Vec<f64> = classes
            .values()
            .map(|v| nearest_rank(&sorted(v), percent))
            .collect();
        geomean(&v)
    };
    let total_s = pooled.iter().sum::<f64>() / 1e3;
    [
        (
            "throughput_rps",
            pooled.len() as f64 * items_per_call / total_s,
        ),
        ("latency_p50_ms", per_class(50)),
        ("latency_p90_ms", per_class(90)),
        ("latency_p99_ms", nearest_rank(&sorted(&pooled), 99)),
    ]
}

/// A JSON number with every digit of the measurement (`{}` on `f64` is
/// the shortest round-tripping decimal, never an exponent).
fn num(v: f64) -> String {
    format!("{v}")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
