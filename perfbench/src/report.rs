//! The result object, percentile and attribution helpers.

use serde::Value;

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the result (sample counts,
    /// fingerprints, failed checks).
    pub notes: Vec<String>,
    /// Host-speed probe before and after the run, milliseconds.
    pub host_probe_ms: (f64, f64),
}

impl Report {
    pub fn new() -> Report {
        Report { correct: true, ..Report::default() }
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Fail the correctness check with a reason unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// The value recorded for `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                (
                    name.clone(),
                    Value::Map(vec![
                        ("value".to_owned(), Value::F64(value)),
                        ("unit".to_owned(), Value::Str(unit.clone())),
                    ]),
                )
            })
            .collect();
        let root = Value::Map(vec![
            ("correct".to_owned(), Value::Bool(self.correct && self.failed == 0)),
            ("attempted".to_owned(), Value::U64(self.attempted)),
            ("failed".to_owned(), Value::U64(self.failed)),
            ("metrics".to_owned(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&root).expect("a value tree always serializes")
    }
}

/// Nearest-rank `q`-quantile of `sorted` (ascending); 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Record `p50` and the tail percentile `q` of `values` (in time order)
/// as `latency_p50_ms` / `latency_tail_ms`, with their sample counts, and
/// check that at least ten samples lie beyond the tail. With `windows`
/// above 1 the tail is the median, over that many consecutive windows of
/// equal count, of each window's `q`-quantile, so that one slow phase of
/// the host moves it less; each window must then hold ten samples beyond
/// its own tail.
pub fn latencies(report: &mut Report, values: &[f64], q: f64, windows: usize, what: &str) {
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let n = values.len();
    let per_window = n / windows.max(1);
    let mut tails: Vec<f64> = values
        .chunks(per_window.max(1))
        .take(windows.max(1))
        .map(|w| quantile(&sorted(w), q))
        .collect();
    tails.sort_by(f64::total_cmp);
    let beyond = per_window - rank(per_window.max(1), q).min(per_window);
    report.metric("latency_p50_ms", quantile(&sorted(values), 0.5), "ms");
    report.metric("latency_tail_ms", quantile(&tails, 0.5), "ms");
    report.note(format!(
        "latency: p50 of {what} over n={n}; p{} over {} window(s) of {per_window}, \
         {beyond} samples beyond the tail in each",
        q * 100.0,
        tails.len()
    ));
    if beyond < 10 {
        report.note(format!("WARNING: only {beyond} samples beyond p{}", q * 100.0));
    }
}

/// Wall-time attribution of a traced run: named parts of a capacity
/// (lanes × wall time, milliseconds). Whatever no part covers is
/// `unattributed_share`, so parts and remainder add up to the wall time.
pub struct Attribution {
    capacity_ms: f64,
    parts: Vec<(&'static str, f64)>,
}

impl Attribution {
    pub fn new(lanes: usize, wall_ms: f64) -> Attribution {
        Attribution { capacity_ms: lanes as f64 * wall_ms, parts: Vec::new() }
    }

    pub fn part(&mut self, name: &'static str, ms: f64) {
        self.parts.push((name, ms));
    }

    /// Record `unattributed_share`, and note the split.
    pub fn finish(self, report: &mut Report) {
        let covered: f64 = self.parts.iter().map(|(_, ms)| ms).sum();
        let unattributed = 1.0 - covered / self.capacity_ms;
        let split: Vec<String> = self
            .parts
            .iter()
            .map(|(name, ms)| format!("{name} {:.1}%", 100.0 * ms / self.capacity_ms))
            .collect();
        report.note(format!(
            "attribution of {:.0} ms capacity: {}, unattributed {:.1}%",
            self.capacity_ms,
            split.join(", "),
            100.0 * unattributed
        ));
        if unattributed < -0.01 {
            report.note("WARNING: layers cover more than the wall time (double counting)");
        }
        report.metric("unattributed_share", unattributed, "share");
    }
}
