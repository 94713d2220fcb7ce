//! Output checks: every report the benchmark relies on is compared byte
//! for byte with the same spec run in-process through `jobs::execute` and
//! `report_json`, the path the CLI takes. References run in the
//! benchmark's own process after the timed phases, so they set no metric.

use std::collections::BTreeMap;

use sprint_game::EquilibriumCache;
use sprint_serve::jobs::{self, ExecOptions, JobOutcome, JobReport, JobSpec};
use sprint_sim::telemetry::Telemetry;

/// FNV-1a over bytes: a stable digest to print and compare across runs.
#[must_use]
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The CLI-path report for `spec`, run on one thread: a rack-1m spec
/// that asks for two engine threads is clamped to one, so the check also
/// covers jobs-invariance.
///
/// # Errors
///
/// The job fails to execute or serialize.
pub fn reference(spec: &JobSpec, cache: &EquilibriumCache) -> crate::Result<String> {
    let opts = ExecOptions {
        jobs: 1,
        jobs_cap: 1,
        ..ExecOptions::default()
    };
    let report = jobs::execute(spec, cache, &opts, &mut Telemetry::disabled())
        .map_err(crate::ctx("reference execute"))?;
    jobs::report_json(&report).map_err(crate::ctx("reference report_json"))
}

/// Whether a job's report bytes describe a completed job (not cancelled,
/// past its deadline, or unparseable).
#[must_use]
pub fn completed(report: &str) -> bool {
    serde_json::from_str::<JobReport>(report).is_ok_and(|r| {
        !matches!(
            r.outcome,
            JobOutcome::Cancelled | JobOutcome::DeadlineExceeded { .. }
        )
    })
}

/// Reports observed from the daemon, grouped by the spec that produced them.
#[derive(Default)]
pub struct Observed {
    /// spec JSON -> (spec, report bytes seen for it).
    by_spec: BTreeMap<String, (JobSpec, Vec<String>)>,
}

impl Observed {
    /// Keep one observed report of `spec` for checking.
    pub fn add(&mut self, spec: &JobSpec, report: String) {
        let key = serde_json::to_string(spec).expect("job specs serialize");
        self.by_spec
            .entry(key)
            .or_insert_with(|| (spec.clone(), Vec::new()))
            .1
            .push(report);
    }

    /// Fold another set of observed reports into this one.
    pub fn merge(&mut self, other: Observed) {
        for (key, (spec, reports)) in other.by_spec {
            self.by_spec
                .entry(key)
                .or_insert_with(|| (spec, Vec::new()))
                .1
                .extend(reports);
        }
    }

    fn len(&self) -> usize {
        self.by_spec.values().map(|(_, r)| r.len()).sum()
    }

    /// Run each distinct spec's reference once and compare every kept
    /// report against it. Prints the count of mismatches and a digest over
    /// the reference bytes in spec order, and returns the tally of checks.
    ///
    /// # Errors
    ///
    /// A reference fails to execute.
    pub fn verify(&self, label: &str) -> crate::Result<crate::Tally> {
        let cache = EquilibriumCache::default();
        let mut tally = crate::Tally::default();
        let mut all = Vec::new();
        for (spec, reports) in self.by_spec.values() {
            let want = reference(spec, &cache)?;
            for got in reports {
                tally.record(*got == want);
            }
            all.extend_from_slice(want.as_bytes());
        }
        let sum = digest(&all);
        println!(
            "check {label}: {} reports of {} specs vs CLI-path references: {} mismatched; digest {sum:016x}",
            self.len(),
            self.by_spec.len(),
            tally.failed
        );
        Ok(tally)
    }
}
