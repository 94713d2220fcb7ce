//! Command-line arguments shared by both binaries.

use std::path::PathBuf;

/// `--workload NAME --seed N --seconds S --trace 0|1 --sprint PATH --work DIR`.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (`rack-1m`, `sweep-grid`).
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// The `sprint` executable to run as the daemon.
    pub sprint: PathBuf,
    /// Scratch directory of the traced run (journal, spool, span file).
    pub work: PathBuf,
}

/// Parse the process arguments.
///
/// # Errors
///
/// Unknown flags, missing values and unparseable numbers.
pub fn parse() -> crate::Result<Args> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut sprint = None;
    let mut work = PathBuf::from(".bench_work");
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(crate::ctx("--seed"))?,
            "--seconds" => seconds = value.parse().map_err(crate::ctx("--seconds"))?,
            "--trace" => trace = value == "1" || value == "true",
            "--sprint" => sprint = Some(PathBuf::from(value)),
            "--work" => work = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        sprint: sprint.ok_or("--sprint is required")?,
        work,
    })
}
