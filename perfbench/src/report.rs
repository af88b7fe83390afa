//! A run's outcome: correctness checks, request counts and named metrics,
//! printed as a human-readable report followed by the one-line JSON result.

use crate::stats::{percentile, sorted};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, such as `us`, `s` or `count`.
    pub unit: &'static str,
    /// How the value was obtained (sample count, repetitions).
    pub basis: String,
}

/// One correctness check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence, or the first violation.
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests attempted (reads, acks, solves).
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Correctness checks, in the order they ran.
    pub checks: Vec<Check>,
    /// Metrics, in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Free-form report lines (context, stage tables).
    pub notes: Vec<String>,
}

impl Outcome {
    /// True when every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Records a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, basis: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            basis: basis.into(),
        });
    }

    /// Records the `q`-percentile of a sample if the sample supports it
    /// (see [`crate::stats::percentile`]); otherwise records nothing and
    /// notes why. Returns whether it was recorded.
    pub fn percentile(&mut self, name: &str, sample: &[f64], q: f64, unit: &'static str) -> bool {
        let s = sorted(sample.to_vec());
        match percentile(&s, q) {
            Some(p) => {
                self.metric(
                    name,
                    p.value,
                    unit,
                    format!("n={} beyond={}", p.samples, p.beyond),
                );
                true
            }
            None => {
                self.note(format!(
                    "{name}: not reported, {} samples leave fewer than {} beyond p{}",
                    s.len(),
                    crate::stats::MIN_BEYOND,
                    q * 100.0
                ));
                false
            }
        }
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Value of a recorded metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable report (every line but the JSON result); metrics
    /// missing from `gated` are marked.
    pub fn report_lines(&self, gated: &[(&str, &str)]) -> Vec<String> {
        let mut lines = Vec::new();
        for c in &self.checks {
            let mark = if c.ok { "ok  " } else { "FAIL" };
            lines.push(format!("check {mark} {}: {}", c.name, c.detail));
        }
        lines.push(format!(
            "requests attempted={} failed={}",
            self.attempted, self.failed
        ));
        for m in &self.metrics {
            let mark = if is_gated(gated, &m.name) {
                ""
            } else {
                " [not gated]"
            };
            lines.push(format!(
                "metric {:<34} {:>16.6} {:<6} ({}){mark}",
                m.name, m.value, m.unit, m.basis
            ));
        }
        lines.extend(self.notes.iter().cloned());
        lines
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each gated metric as `{"value", "unit"}`.
    pub fn json_line(&self, gated: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| is_gated(gated, &m.name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn is_gated(gated: &[(&str, &str)], name: &str) -> bool {
    gated.iter().any(|(n, _)| *n == name)
}

/// A JSON number with every digit Rust's shortest round-trip form gives; a
/// non-finite value (a percentile that landed on a failed request) becomes
/// the largest finite `f64`, which misses any limit.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}
