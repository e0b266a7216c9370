//! Simulation run configuration.

use corral_model::{ClusterConfig, MachineId, RackId, SimTime};
use corral_simnet::background::BackgroundModel;
use serde::{Deserialize, Serialize};

/// How job input data is placed in the DFS before execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataPlacement {
    /// Stock HDFS random placement for every job (Yarn-CS, ShuffleWatcher
    /// and the LocalShuffle baseline).
    HdfsRandom,
    /// Planned jobs get one replica pinned inside their planned rack set
    /// `Rj` (Corral, §3.1); unplanned/ad hoc jobs fall back to HDFS random.
    PerPlan,
}

/// Which flow-level bandwidth allocation the fabric uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetPolicy {
    /// Max-min fair sharing (TCP stand-in).
    Tcp,
    /// Varys coflow scheduling (SEBF + MADD + backfill).
    Varys,
}

/// How job input data gets into the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IngestMode {
    /// Input is already in the DFS when the simulation starts (the common
    /// case in the paper's evaluation: recurring jobs whose data was
    /// uploaded long before they run).
    Preloaded,
    /// Input is uploaded through the fabric from an external feed (§2:
    /// front-end servers / a remote storage tier). Upload of a job's input
    /// begins `lead_time` before its arrival and consumes the destination
    /// racks' downlinks; the job cannot start until its upload completes.
    /// Upload volume includes replication (all replicas are ingested).
    Simulated {
        /// Head start the upload gets relative to the job's arrival.
        lead_time: SimTime,
    },
}

/// Straggler injection and speculative execution (Hadoop's defence against
/// outliers — §4.3 lists stragglers among the runtime factors the planner's
/// latency model deliberately ignores; this knob lets the simulator create
/// and mitigate them).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StragglerModel {
    /// Probability that a task attempt straggles.
    pub probability: f64,
    /// Compute-time multiplier for straggling attempts (e.g. 5.0).
    pub slowdown: f64,
    /// Launch speculative duplicate attempts for outliers.
    pub speculate: bool,
    /// An attempt is an outlier when it has run longer than this multiple
    /// of the stage's average completed-attempt duration.
    pub spec_threshold: f64,
}

impl Default for StragglerModel {
    fn default() -> Self {
        StragglerModel {
            probability: 0.05,
            slowdown: 5.0,
            speculate: true,
            spec_threshold: 1.5,
        }
    }
}

/// A scheduled infrastructure failure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FailureSpec {
    /// One machine fails at the given time (permanently).
    Machine {
        /// When the failure occurs.
        at: SimTime,
        /// The failing machine.
        machine: MachineId,
    },
    /// A whole rack fails at the given time (permanently).
    Rack {
        /// When the failure occurs.
        at: SimTime,
        /// The failing rack.
        rack: RackId,
    },
    /// One machine fails and comes back after a repair delay — the churn
    /// case production clusters live with. Its DFS replicas become
    /// available again on repair (data survives a reboot).
    MachineTransient {
        /// When the failure occurs.
        at: SimTime,
        /// The failing machine.
        machine: MachineId,
        /// Downtime before the machine rejoins.
        repair_after: SimTime,
    },
}

impl FailureSpec {
    /// The failure's time.
    pub fn at(&self) -> SimTime {
        match self {
            FailureSpec::Machine { at, .. }
            | FailureSpec::Rack { at, .. }
            | FailureSpec::MachineTransient { at, .. } => *at,
        }
    }
}

/// Generates Poisson machine churn: every machine independently fails with
/// the given mean time between failures and rejoins after `repair` (both
/// exponentially distributed), over `[0, horizon)`. Deterministic given
/// `seed`.
pub fn poisson_churn(
    cluster: &ClusterConfig,
    mtbf: SimTime,
    mean_repair: SimTime,
    horizon: SimTime,
    seed: u64,
) -> Vec<FailureSpec> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut out = Vec::new();
    for m in cluster.all_machines() {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (m.index() as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let mut t = 0.0;
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -mtbf.as_secs() * u.ln();
            if t >= horizon.as_secs() {
                break;
            }
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let repair = -mean_repair.as_secs() * u.ln();
            out.push(FailureSpec::MachineTransient {
                at: SimTime(t),
                machine: m,
                repair_after: SimTime(repair),
            });
            t += repair;
        }
    }
    out.sort_by(|a, b| a.at().total_cmp(b.at()));
    out
}

/// All knobs of one simulation run.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Cluster geometry and link speeds.
    pub cluster: ClusterConfig,
    /// Background (non-job) traffic occupying core bandwidth.
    pub background: BackgroundModel,
    /// Data placement mode.
    pub placement: DataPlacement,
    /// Flow-level network policy.
    pub net: NetPolicy,
    /// Master RNG seed; every stochastic choice derives from it.
    pub seed: u64,
    /// Hard wall on simulated time (safety against livelock; jobs still
    /// running at the horizon are reported as unfinished).
    pub horizon: SimTime,
    /// Corral failure fallback (§7): when more than this fraction of the
    /// machines in a job's planned racks are dead, its placement
    /// constraints are ignored.
    pub failure_fallback_threshold: f64,
    /// Delay scheduling (Zaharia et al.): how many scheduling opportunities
    /// a source-stage task skips while waiting for a machine-local slot
    /// (and the same again for a rack-local one).
    pub locality_wait_slots: u32,
    /// How job input data enters the cluster.
    pub ingest: IngestMode,
    /// Optional straggler injection / speculative execution.
    pub stragglers: Option<StragglerModel>,
    /// Sample cross-rack (core) utilization into buckets of this width for
    /// the report's time series (None = off).
    pub sample_core_utilization: Option<SimTime>,
    /// Scheduled failures.
    pub failures: Vec<FailureSpec>,
}

impl SimParams {
    /// Reasonable defaults on the paper's 210-machine testbed: no background
    /// traffic, TCP fabric, HDFS placement, 12-hour horizon.
    pub fn testbed() -> Self {
        SimParams {
            cluster: ClusterConfig::testbed_210(),
            background: BackgroundModel::None,
            placement: DataPlacement::HdfsRandom,
            net: NetPolicy::Tcp,
            seed: 0xC0441,
            horizon: SimTime::hours(12.0),
            failure_fallback_threshold: 0.5,
            locality_wait_slots: 3,
            ingest: IngestMode::Preloaded,
            stragglers: None,
            sample_core_utilization: None,
            failures: Vec::new(),
        }
    }

    /// Defaults on the paper's 2000-machine simulated topology (§6.6).
    pub fn large_sim() -> Self {
        SimParams {
            cluster: ClusterConfig::sim_2000(),
            ..Self::testbed()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let p = SimParams::testbed();
        p.cluster.validate().unwrap();
        assert!(p.horizon > SimTime::ZERO);
        assert!(p.failure_fallback_threshold > 0.0 && p.failure_fallback_threshold <= 1.0);
        let q = SimParams::large_sim();
        assert_eq!(q.cluster.total_machines(), 2000);
    }

    #[test]
    fn failure_time_accessor() {
        let f = FailureSpec::Rack {
            at: SimTime(9.0),
            rack: RackId(1),
        };
        assert_eq!(f.at(), SimTime(9.0));
    }
}
