//! The set-up phase: from starting the daemon until it is ready for
//! measured traffic, that is boot plus one warm-up pass of the measured
//! job with a one-epoch horizon (it pays the population build and fills
//! the equilibrium cache).
//!
//! A run sets up several times and reports the median; every daemon but
//! the last is drained and waited for outside the timed interval.

use std::path::Path;
use std::time::Instant;

use crate::check::Observed;
use crate::daemon::Daemon;
use crate::workload::Workload;

/// What the set-up phase leaves behind.
pub struct Ready {
    /// The daemon the measured phase runs against.
    pub daemon: Daemon,
    /// Seconds each set-up took.
    pub times: Vec<f64>,
    /// Warm-up reports, for checking.
    pub observed: Observed,
    /// Warm-up requests.
    pub tally: crate::Tally,
}

/// Set up `times` times with `sprint serve <daemon_args>` and keep the
/// last daemon running.
///
/// # Errors
///
/// A daemon fails to start or stop, or a warm-up request fails in transport.
pub fn run(
    w: &Workload,
    sprint: &Path,
    daemon_args: &[String],
    times: usize,
) -> crate::Result<Ready> {
    let spec = w.warmup();
    let body = serde_json::to_string(&spec).expect("job specs serialize");
    let mut observed = Observed::default();
    let mut tally = crate::Tally::default();
    let mut elapsed = Vec::with_capacity(times);
    let mut last = None;
    for rep in 0..times.max(1) {
        let started = Instant::now();
        let daemon = Daemon::start(sprint, daemon_args)?;
        let response = crate::http::request(&daemon.addr, "POST", "/v1/jobs?wait=true", &body)?;
        elapsed.push(started.elapsed().as_secs_f64());
        tally.record(response.ok() && crate::check::completed(&response.body));
        observed.add(&spec, response.body);
        if rep + 1 < times {
            daemon.stop()?;
        } else {
            last = Some(daemon);
        }
    }
    Ok(Ready {
        daemon: last.expect("at least one set-up runs"),
        times: elapsed,
        observed,
        tally,
    })
}
