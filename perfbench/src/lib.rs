//! The `sprint serve` benchmark: shared pieces of the end-to-end run
//! (`perfbench`) and the traced per-layer run (`perfbench-trace`).
//!
//! Both binaries start `sprint serve` as a child process, drive one of
//! two named workloads against it over HTTP, check every report they
//! rely on against the in-process CLI path, and print one JSON result
//! line. See `README.md` next to this crate for the workloads, the
//! metrics and how they relate.

pub mod args;
pub mod check;
pub mod daemon;
pub mod drive;
pub mod http;
pub mod output;
pub mod provenance;
pub mod setup;
pub mod stats;
pub mod workload;

/// Errors are reported as text and end the run with a non-zero exit.
pub type Result<T> = std::result::Result<T, String>;

/// Wrap an error with what was being done.
pub fn ctx<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Attempted and failed operations of one workload. An operation is an
/// HTTP request the benchmark sends or a report it checks; it fails on
/// a transport error, a non-2xx status, a job that ends as `failed`,
/// `cancelled` or `deadline_exceeded`, or a report that differs from its
/// reference.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}
