#![doc = include_str!("../README.md")]

pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::fmt::Write as _;

use workloads::{measure_market, measure_modelcheck, Scale, Workload};

/// The end-to-end metrics an untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 3] =
    [("verified_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// What one invocation asks for.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed every input is drawn from.
    pub seed: u64,
    /// How long an untraced run keeps repeating the workload.
    pub seconds: f64,
    /// Full or smoke-test input sizes.
    pub scale: Scale,
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The result of one invocation.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Whether every correctness gate passed.
    pub correct: bool,
    /// Operations (profiles or deals) judged.
    pub attempted: u64,
    /// Operations whose verdict differed from the expected one.
    pub failed: u64,
    /// The metrics; empty when a gate failed.
    pub metrics: Vec<Metric>,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (index, metric) in self.metrics.iter().enumerate() {
            let value = if metric.value.is_finite() { metric.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if index == 0 { "" } else { ", " },
                metric.name,
                metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Runs the workload untraced for `opts.seconds` and reports its
/// end-to-end metrics, provided its correctness gate passed.
pub fn run_untraced(opts: &Options) -> Outcome {
    let measured = if opts.workload.is_market() {
        measure_market(opts.seed, opts.seconds, opts.scale)
    } else {
        measure_modelcheck(opts.workload, opts.seed, opts.seconds, opts.scale)
    };
    let correct = measured.problems.is_empty() && measured.failed == 0 && measured.attempted > 0;
    let mut notes = measured.notes;
    notes.extend(measured.problems.iter().map(|p| format!("FAILED {p}")));
    let metrics = if correct {
        let values =
            [stats::median(&measured.rates), stats::median(&measured.setups), stats::peak_rss_mb()];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name: name.into(), unit, value })
            .collect()
    } else {
        Vec::new()
    };
    Outcome { correct, attempted: measured.attempted, failed: measured.failed, metrics, notes }
}
