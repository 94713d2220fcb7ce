//! A run spec whose population cannot fit in memory ends in a typed
//! error, not an allocation abort.
//!
//! The probe asks for 10⁸ svm agents under E-T for 10 epochs, whose
//! arrival lanes alone take 1.6 GB. This binary re-executes itself
//! (`oversize_child_process_entry`, gated on an environment variable)
//! under `ulimit -v`, set below the first 800-MB lane, so the child
//! fails at its first per-agent reservation and allocates nothing large.
//! No test allocates what the probe asks for.

use std::process::Command;

use sprint_game::EquilibriumCache;
use sprint_serve::jobs::{self, ExecOptions, JobKind, JobSpec, RunSpec};
use sprint_sim::telemetry::Telemetry;
use sprint_sim::PolicyKind;

const CHILD_ENV: &str = "SPRINT_SERVE_OVERSIZE_CHILD";

/// The child's address-space limit, KiB: room for the binary, its
/// threads and the population's one-byte-per-agent assignments, but not
/// for one 800-MB arrival lane.
const LIMIT_KIB: u64 = 600_000;

const AGENTS: u32 = 100_000_000;

/// What the child prints before the error it got.
const TYPED: &str = "typed error:";

fn probe() -> JobSpec {
    JobSpec::new(JobKind::Run {
        spec: RunSpec {
            benchmark: "svm".to_string(),
            policy: PolicyKind::EquilibriumThreshold,
            agents: AGENTS,
            epochs: 10,
            seed: 1,
            jobs: Some(1),
        },
    })
}

/// Child-process entry point: a no-op under a normal `cargo test` run;
/// with [`CHILD_ENV`] set, it runs the probe the way `sprint simulate`
/// does and prints what came back.
#[test]
fn oversize_child_process_entry() {
    if std::env::var_os(CHILD_ENV).is_none() {
        return;
    }
    let outcome = jobs::execute(
        &probe(),
        &EquilibriumCache::default(),
        &ExecOptions::default(),
        &mut Telemetry::noop(),
    );
    match outcome {
        Err(e) => println!("{TYPED} {e}"),
        Ok(report) => println!("ran: {report:?}"),
    }
}

#[test]
fn a_population_too_large_for_memory_is_a_typed_error_not_an_abort() {
    let exe = std::env::current_exe().unwrap();
    let output = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -v {LIMIT_KIB} && \"$0\" oversize_child_process_entry --exact --nocapture"
        ))
        .arg(&exe)
        .env(CHILD_ENV, "1")
        .output()
        .expect("the child starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    // An allocation abort is SIGABRT, which the shell reports as 134.
    assert_ne!(output.status.code(), Some(134), "aborted:\n{stderr}");
    assert!(
        output.status.success(),
        "{:?}:\n{stdout}\n{stderr}",
        output.status
    );
    let line = stdout
        .lines()
        .find(|l| l.starts_with(TYPED))
        .unwrap_or_else(|| panic!("no typed error in:\n{stdout}\n{stderr}"));
    assert!(
        line.contains(&format!("`agents` = {AGENTS}")),
        "the error names the agent count: {line}"
    );
}
