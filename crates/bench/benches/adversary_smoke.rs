//! Adversary-defense acceptance gate (not a criterion bench).
//!
//! Runs the ISSUE-6 acceptance matrix through the unified
//! [`runner::adversary_defense`] entry point: 10 % greedy defectors
//! under sensor noise and lossy transport, three legs per trial
//! (honest baseline, adversaries unchecked, adversaries under
//! graduated enforcement) and enforces the tentpole contracts:
//!
//! - graduated enforcement restores ≥ 95 % of the honest population's
//!   E-T throughput (`recovery_ratio`);
//! - zero honest agents are ever *permanently* excluded
//!   (`false_positive_exclusions == 0`), across every leg — the
//!   honest-baseline leg runs with the detector armed, so any
//!   exclusion there is a false positive by construction;
//! - the defense must actually matter: the unchecked leg stays below
//!   the recovery the enforcement leg achieves.
//!
//! Results land in `BENCH_adversary.json` at the workspace root so CI
//! can archive the trend. Run with `--quick` for the 25-trial smoke
//! profile; the default profile is the full 500-trial matrix.

use std::time::Instant;

use sprint_sim::control::{ControlConfig, DetectorConfig};
use sprint_sim::faults::FaultPlan;
use sprint_sim::runner;
use sprint_sim::scenario::Scenario;
use sprint_sim::telemetry::Telemetry;
use sprint_sim::AdversaryMix;
use sprint_workloads::Benchmark;

/// Minimum tolerated enforcement recovery of honest E-T throughput.
const MIN_RECOVERY: f64 = 0.95;
/// Defector share of the rack population.
const ADVERSARY_FRACTION: f64 = 0.1;
/// Thread budget of the suite: 0 runs the trial pool on every core.
const JOBS: usize = 0;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let trials: u64 = if quick { 25 } else { 500 };
    let (agents, epochs) = (100, 1_000);

    let seeds: Vec<u64> = (1..=trials).collect();
    let scenario =
        Scenario::homogeneous(Benchmark::DecisionTree, agents, epochs).expect("valid scenario");
    let mix = AdversaryMix::greedy(ADVERSARY_FRACTION, 23);

    let started = Instant::now();
    let report = runner::adversary_defense(
        &scenario,
        FaultPlan::adversary_chaos(17),
        ControlConfig::default(),
        DetectorConfig::default(),
        mix,
        &seeds,
        JOBS,
        &mut Telemetry::noop(),
    )
    .expect("adversary defense suite succeeds");
    let elapsed_nanos = started.elapsed().as_nanos() as u64;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let latency = report
        .mean_detection_latency_epochs
        .map_or("null".to_string(), |l| format!("{l:.4}"));

    println!(
        "adversary smoke ({trials} trials: {agents} agents x {epochs} epochs, \
         {:.0}% greedy defectors)",
        ADVERSARY_FRACTION * 100.0
    );
    println!(
        "  honest     {:>10.4} tasks/agent/epoch",
        report.honest_throughput
    );
    println!(
        "  unchecked  {:>10.4} ({:.4}x)",
        report.unenforced_throughput, report.unenforced_ratio
    );
    println!(
        "  enforced   {:>10.4} ({:.4}x)",
        report.enforced_throughput, report.recovery_ratio
    );
    println!(
        "  sanctions  {} detections, {} exclusions, {} readmissions",
        report.detections, report.exclusions, report.readmissions
    );
    println!(
        "  errors     {} false-positive exclusions, {} false negatives, \
         mean detection latency {latency} epochs",
        report.false_positive_exclusions, report.false_negatives
    );
    println!("  elapsed    {elapsed_nanos} ns (jobs={JOBS}, {cores} cores)");

    let json = format!(
        "{{\n  \"agents\": {agents},\n  \"epochs\": {epochs},\n  \"trials\": {trials},\n  \
         \"adversary_fraction\": {ADVERSARY_FRACTION},\n  \
         \"honest_throughput\": {:.6},\n  \"unenforced_throughput\": {:.6},\n  \
         \"enforced_throughput\": {:.6},\n  \"recovery_ratio\": {:.6},\n  \
         \"unenforced_ratio\": {:.6},\n  \"min_recovery\": {MIN_RECOVERY},\n  \
         \"detections\": {},\n  \"exclusions\": {},\n  \"readmissions\": {},\n  \
         \"false_positive_exclusions\": {},\n  \"false_negatives\": {},\n  \
         \"mean_detection_latency_epochs\": {latency},\n  \"elapsed_nanos\": {elapsed_nanos},\n  \
         \"jobs\": {JOBS},\n  \"cores\": {cores}\n}}\n",
        report.honest_throughput,
        report.unenforced_throughput,
        report.enforced_throughput,
        report.recovery_ratio,
        report.unenforced_ratio,
        report.detections,
        report.exclusions,
        report.readmissions,
        report.false_positive_exclusions,
        report.false_negatives,
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_adversary.json");
    std::fs::write(&out, json).expect("write BENCH_adversary.json");
    println!("  snapshot {}", out.display());

    if report.false_positive_exclusions > 0 {
        eprintln!(
            "FAIL: {} honest agent exclusion(s) — permanent sanctions must never hit \
             cooperative agents",
            report.false_positive_exclusions
        );
        std::process::exit(1);
    }
    if report.recovery_ratio < MIN_RECOVERY {
        eprintln!(
            "FAIL: enforcement recovered only {:.4} of honest throughput \
             (floor {MIN_RECOVERY})",
            report.recovery_ratio
        );
        std::process::exit(1);
    }
    if report.unenforced_ratio >= report.recovery_ratio {
        eprintln!(
            "FAIL: unchecked defectors ({:.4}) kept pace with enforcement ({:.4}) — \
             the sanctions ladder is not doing the work",
            report.unenforced_ratio, report.recovery_ratio
        );
        std::process::exit(1);
    }
    println!(
        "PASS: recovery {:.4} >= {MIN_RECOVERY}, zero false-positive exclusions",
        report.recovery_ratio
    );
}
