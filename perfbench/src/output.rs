//! Result printing: one human-readable line per metric, then the
//! machine-readable result as the last line of standard output.

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit (`s`, `1/s`, `MiB`, `ratio`, ...).
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

impl Metric {
    /// A metric from `samples` samples.
    #[must_use]
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Print every metric with its unit and sample count, then the result
/// line `{"correct", "attempted", "failed", "metrics"}`.
pub fn finish(correct: bool, tally: crate::Tally, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "metric {:<34} {:>16} {:<6} (n={})",
            m.name,
            json_number(m.value),
            m.unit,
            m.samples
        );
    }
    let share = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "operations: {} attempted, {} failed, failed_share {}",
        tally.attempted,
        tally.failed,
        json_number(share)
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}
