//! The two workloads: what the daemon runs, with which flags, and the
//! job spec the client submits. Every input derives from the workload
//! seed, so the same seed always yields the same specs.

use sprint_serve::jobs::{JobKind, JobSpec, RunSpec};
use sprint_sim::policy::PolicyKind;
use sprint_sim::runner::standard_fault_suite;
use sprint_sim::sweep::{PopulationSpec, SweepSpec};
use sprint_workloads::Benchmark;

/// rack-1m: agents in the rack (the realistic N of the north star).
pub const RACK_AGENTS: u32 = 1_000_000;
/// rack-1m: simulated epochs per job.
pub const RACK_EPOCHS: usize = 100;
/// rack-1m: engine threads each job asks for (clamped by `--jobs-cap`).
pub const RACK_JOBS: u64 = 2;

/// sweep-grid: agents per trial (lanes fit in L2).
pub const SWEEP_AGENTS: u32 = 2_000;
/// sweep-grid: epochs per trial.
pub const SWEEP_EPOCHS: usize = 200;
/// sweep-grid: seeds per grid cell.
pub const SWEEP_SEEDS: u64 = 2;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One E-T run on a 10^6-agent svm rack, jobs: 2.
    Rack1m,
    /// One sweep over policies x fault plans x game variants x populations.
    SweepGrid,
}

/// A workload with its seed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The workload seed.
    pub seed: u64,
}

/// SplitMix64: a fixed, well-mixed map from seed material to seeds.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A derived seed in `1..=2^31`, so specs stay readable.
#[must_use]
pub fn derive(seed: u64, parts: &[u64]) -> u64 {
    let mut x = mix(seed);
    for &p in parts {
        x = mix(x ^ p);
    }
    (x & 0x7FFF_FFFF) + 1
}

/// A Run job.
#[must_use]
pub fn run_job(
    benchmark: Benchmark,
    policy: PolicyKind,
    agents: u32,
    epochs: usize,
    seed: u64,
    jobs: Option<u64>,
) -> JobSpec {
    JobSpec::new(JobKind::Run {
        spec: RunSpec {
            benchmark: benchmark.name().to_string(),
            policy,
            agents,
            epochs,
            seed,
            jobs,
        },
    })
}

impl Workload {
    /// Every workload name, in the order `BENCHMARK.json` lists them.
    pub const NAMES: [&'static str; 2] = ["rack-1m", "sweep-grid"];

    /// Look a workload up by name.
    ///
    /// # Errors
    ///
    /// Unknown names.
    pub fn new(name: &str, seed: u64) -> crate::Result<Workload> {
        let kind = match name {
            "rack-1m" => Kind::Rack1m,
            "sweep-grid" => Kind::SweepGrid,
            other => {
                return Err(format!(
                    "unknown workload `{other}`; expected one of {:?}",
                    Self::NAMES
                ))
            }
        };
        Ok(Workload { kind, seed })
    }

    /// The workload's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::Rack1m => Self::NAMES[0],
            Kind::SweepGrid => Self::NAMES[1],
        }
    }

    /// `sprint serve` flags besides `--addr`.
    #[must_use]
    pub fn daemon_args(&self) -> Vec<String> {
        let flags: &[&str] = match self.kind {
            Kind::Rack1m => &["--workers", "1", "--jobs-cap", "2"],
            Kind::SweepGrid => &["--workers", "1", "--jobs", "2"],
        };
        flags.iter().map(|f| (*f).to_string()).collect()
    }

    /// The sweep-grid spec at a given horizon.
    #[must_use]
    pub fn sweep_spec(&self, epochs: usize) -> SweepSpec {
        let mut spec = SweepSpec::example();
        spec.populations = vec![
            PopulationSpec::homogeneous(Benchmark::Svm, SWEEP_AGENTS),
            PopulationSpec {
                name: "svm+pagerank+kmeans".to_string(),
                benchmarks: [Benchmark::Svm, Benchmark::PageRank, Benchmark::Kmeans]
                    .iter()
                    .map(|b| b.name().to_string())
                    .collect(),
                agents: SWEEP_AGENTS,
            },
        ];
        spec.plans = standard_fault_suite(derive(self.seed, &[2]));
        spec.policies = PolicyKind::ALL.to_vec();
        let first = derive(self.seed, &[3]);
        spec.seeds = (0..SWEEP_SEEDS).map(|k| first + k).collect();
        spec.epochs = epochs;
        spec
    }

    /// The warm-up job of the set-up phase: the measured job with a
    /// one-epoch horizon. It pays the population build and fills the
    /// equilibrium cache.
    #[must_use]
    pub fn warmup(&self) -> JobSpec {
        self.job_at(1)
    }

    /// The measured job.
    #[must_use]
    pub fn job(&self) -> JobSpec {
        match self.kind {
            Kind::Rack1m => self.job_at(RACK_EPOCHS),
            Kind::SweepGrid => self.job_at(SWEEP_EPOCHS),
        }
    }

    fn job_at(&self, epochs: usize) -> JobSpec {
        match self.kind {
            Kind::Rack1m => run_job(
                Benchmark::Svm,
                PolicyKind::EquilibriumThreshold,
                RACK_AGENTS,
                epochs,
                derive(self.seed, &[1]),
                Some(RACK_JOBS),
            ),
            Kind::SweepGrid => JobSpec::new(JobKind::Sweep {
                spec: self.sweep_spec(epochs),
            }),
        }
    }

    /// One line of the workload's parameters, for provenance.
    #[must_use]
    pub fn parameters(&self) -> String {
        match self.kind {
            Kind::Rack1m => format!(
                "svm E-T run, agents={RACK_AGENTS} epochs={RACK_EPOCHS} spec.jobs={RACK_JOBS} seed={}; \
                 daemon --workers 1 --jobs-cap 2; 1 client; warm-up epochs=1; {SETUPS} set-ups",
                derive(self.seed, &[1]),
            ),
            Kind::SweepGrid => {
                let spec = self.sweep_spec(SWEEP_EPOCHS);
                format!(
                    "sweep games={} populations={} plans={} policies={} seeds={:?} -> {} trials, \
                     agents={SWEEP_AGENTS} epochs={SWEEP_EPOCHS}; daemon --workers 1 --jobs 2; \
                     1 client; warm-up epochs=1; {SETUPS} set-ups",
                    spec.games.len(),
                    spec.populations.len(),
                    spec.plans.len(),
                    spec.policies.len(),
                    spec.seeds,
                    spec.trial_count(),
                )
            }
        }
    }
}
