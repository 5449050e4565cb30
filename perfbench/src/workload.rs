//! The benchmark's workloads and the campaigns one run executes.

use realvideo_core::sim::{FaultScenario, SimRng};
use realvideo_core::study::{GatewayPolicy, StudyParams};

/// The study's own seed (June 4, 2001). Every run replays the workload's
/// campaign at this seed first: the paper's fidelity bands are stated at
/// it, and its output digest must be identical in every run.
pub const STUDY_SEED: u64 = 0x2001_0604;

/// What a workload's campaign produces, and therefore what its output
/// digest covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// Streaming aggregates plus all 26 figures (the `repro all` path).
    Figures,
    /// Retained records written as the CSV dump (the `dump` path CI
    /// diffs).
    Dump,
}

/// One benchmark workload: campaign parameters other than the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// `StudyParams::scale`.
    pub scale: f64,
    /// Executor worker threads (1 runs `SerialExecutor`).
    pub jobs: usize,
    /// Whether the default fault scenario is on.
    pub faults: bool,
    /// Server replicas per site.
    pub replicas: u8,
    /// Gateway routing policy (consulted only with replicas).
    pub gateway: GatewayPolicy,
    /// What the campaign produces.
    pub output: Output,
    /// Campaigns in one pass of a run: the study-seed campaign, the
    /// campaign at `--seed`, then campaigns at seeds derived from it.
    pub campaigns_per_pass: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    // The paper's fault-free campaign: serial executor, one replica,
    // aggregates and all figures.
    Workload {
        name: "classic",
        scale: 0.2,
        jobs: 1,
        faults: false,
        replicas: 1,
        gateway: GatewayPolicy::Sticky,
        output: Output::Figures,
        campaigns_per_pass: 6,
    },
    // Faults, a two-replica cluster behind a nearest-healthy gateway,
    // and retained records.
    Workload {
        name: "faulted_cluster",
        scale: 0.2,
        jobs: 1,
        faults: true,
        replicas: 2,
        gateway: GatewayPolicy::NearestHealthy,
        output: Output::Dump,
        campaigns_per_pass: 6,
    },
    // A replicated population on two executor threads.
    Workload {
        name: "scaled_parallel",
        scale: 1.1,
        jobs: 2,
        faults: false,
        replicas: 1,
        gateway: GatewayPolicy::Sticky,
        output: Output::Figures,
        campaigns_per_pass: 2,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Campaign parameters at `seed`.
    pub fn params(&self, seed: u64) -> StudyParams {
        StudyParams {
            seed,
            scale: self.scale,
            jobs: self.jobs,
            faults: if self.faults {
                FaultScenario::default_on()
            } else {
                FaultScenario::off()
            },
            replicas: self.replicas,
            gateway: self.gateway,
            ..StudyParams::default()
        }
    }

    /// The campaign seeds of one pass: the study seed, `seed` itself,
    /// then seeds derived from `seed`. A pass is the same list for the
    /// same `seed`, whatever the machine's speed.
    pub fn campaign_seeds(&self, seed: u64) -> Vec<u64> {
        let mut seeds = vec![STUDY_SEED, seed];
        for k in 2..self.campaigns_per_pass as u64 {
            seeds.push(SimRng::derive_seed(seed, "perfbench", k));
        }
        seeds.truncate(self.campaigns_per_pass);
        seeds
    }

    /// Participants the executor's users are replicated from: the plan
    /// holds `replicas()` clones of the base roster at scale above 1.
    pub fn population_replicas(&self) -> usize {
        if self.scale > 1.0 {
            self.scale.ceil() as usize
        } else {
            1
        }
    }
}
