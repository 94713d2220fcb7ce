//! The measured phase: one closed-loop client, sending its next job only
//! after the previous reply arrived.
//!
//! Each iteration submits the workload's job with `?wait=true`, so its
//! latency runs from the submission to the last report byte.

use std::time::{Duration, Instant};

use crate::check::Observed;
use crate::workload::Workload;

/// What the measured phase saw.
#[derive(Default)]
pub struct Measured {
    /// Job latencies (submit to last report byte), seconds.
    pub latencies: Vec<f64>,
    /// Jobs submitted.
    pub iterations: u64,
    /// Requests of the phase.
    pub tally: crate::Tally,
    /// Job reports kept for checking.
    pub observed: Observed,
}

/// Submit the workload's job to `addr` again and again for `seconds`,
/// finishing the job in flight when time runs out.
#[must_use]
pub fn measure(w: &Workload, addr: &str, seconds: f64) -> Measured {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let spec = w.job();
    let body = serde_json::to_string(&spec).expect("job specs serialize");
    let mut out = Measured::default();
    while Instant::now() < until {
        let started = Instant::now();
        let response = crate::http::request(addr, "POST", "/v1/jobs?wait=true", &body);
        let latency = started.elapsed().as_secs_f64();
        match response {
            Ok(r) => {
                let ok = r.ok() && crate::check::completed(&r.body);
                out.tally.record(ok);
                if ok {
                    out.latencies.push(latency);
                }
                out.observed.add(&spec, r.body);
            }
            Err(_) => out.tally.record(false),
        }
        out.iterations += 1;
    }
    out
}
