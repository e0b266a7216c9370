//! Runtime task schedulers: the policies that map pending tasks to free
//! slots.
//!
//! The engine exposes a read-only [`crate::engine::ClusterState`]
//! and asks the active policy, one free slot at a time, which task to place
//! there ([`TaskScheduler::pick`]). Policies never mutate the cluster; the
//! engine applies the choice (so every policy is automatically
//! work-conserving *within the machines it is willing to use*).

pub mod capacity;
pub mod planned;

use crate::engine::ClusterState;
use corral_model::{MachineId, StageId};
use serde::{Deserialize, Serialize};

pub use capacity::CapacityScheduler;
pub use planned::PlannedScheduler;

/// A policy's choice for one free slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// Index of the job in `ClusterState::jobs`.
    pub job_idx: usize,
    /// Stage to draw a task from.
    pub stage: StageId,
    /// Position within the stage's `pending` vector of the chosen index.
    pub pending_pos: usize,
}

/// A runtime task-scheduling policy.
pub trait TaskScheduler: Send {
    /// Chooses a pending task for a free slot on `machine`, or `None` if
    /// the policy declines to use this slot right now.
    fn pick(&mut self, machine: MachineId, st: &ClusterState) -> Option<Pick>;

    /// Hook: a source-stage task of `job_idx` was launched with
    /// machine-local data (used by delay scheduling to reset wait
    /// counters). Default: ignore.
    fn on_local_launch(&mut self, _job_idx: usize) {}

    /// True when a `None` from [`TaskScheduler::pick`] depends only on the
    /// machine's rack and on job state, and `pick` changes no policy
    /// state. The engine then skips the rest of a rack for the current
    /// dispatch pass once one of its machines declines, since a launch
    /// can only shrink the pending lists. Default: `false` (every free
    /// slot is offered); [`CapacityScheduler`] keeps it, because its
    /// `pick` advances the delay-scheduling waits.
    fn declines_per_rack(&self) -> bool {
        false
    }
}

/// Which scheduler (and companion behaviors) a run uses. See the paper's
/// baseline definitions in §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// YARN capacity scheduler with delay scheduling ("Yarn-CS").
    Capacity,
    /// Corral's cluster scheduler driven by the offline plan. Combined with
    /// [`DataPlacement::PerPlan`](crate::config::DataPlacement::PerPlan)
    /// this is *Corral*; with
    /// [`DataPlacement::HdfsRandom`](crate::config::DataPlacement::HdfsRandom)
    /// it is the *LocalShuffle* baseline.
    Planned,
    /// ShuffleWatcher: per-job greedy rack subsets, no planning, no data
    /// placement. The engine picks the racks at submission and ranks jobs
    /// FIFO; the slot policy is [`PlannedScheduler`]'s.
    ShuffleWatcher,
}

impl SchedulerKind {
    /// Instantiates the policy object.
    pub fn build(self, locality_wait_slots: u32) -> Box<dyn TaskScheduler> {
        match self {
            SchedulerKind::Capacity => Box::new(CapacityScheduler::new(locality_wait_slots)),
            SchedulerKind::Planned | SchedulerKind::ShuffleWatcher => Box::new(PlannedScheduler),
        }
    }
}

/// Shared helper: scan (a bounded prefix of) a stage's pending list for a
/// task whose preferred machines include `m`. Returns the pending position.
pub(crate) fn find_machine_local(
    pending: &[u32],
    preferred: &[Vec<MachineId>],
    m: MachineId,
    scan_limit: usize,
) -> Option<usize> {
    // `pending` is sorted descending; scan from the back (smallest index
    // first) for determinism consistent with plain pops.
    let n = pending.len();
    let take = n.min(scan_limit);
    for off in 0..take {
        let pos = n - 1 - off;
        let idx = pending[pos] as usize;
        if preferred.get(idx).is_some_and(|p| p.contains(&m)) {
            return Some(pos);
        }
    }
    None
}

/// Shared helper: scan for a task with a replica anywhere in `rack`.
pub(crate) fn find_rack_local(
    pending: &[u32],
    preferred: &[Vec<MachineId>],
    rack_of: impl Fn(MachineId) -> corral_model::RackId,
    rack: corral_model::RackId,
    scan_limit: usize,
) -> Option<usize> {
    let n = pending.len();
    let take = n.min(scan_limit);
    for off in 0..take {
        let pos = n - 1 - off;
        let idx = pending[pos] as usize;
        if preferred
            .get(idx)
            .is_some_and(|p| p.iter().any(|&pm| rack_of(pm) == rack))
        {
            return Some(pos);
        }
    }
    None
}

/// How many pending entries locality scans inspect before giving up (keeps
/// per-pick cost bounded on very wide stages).
pub(crate) const LOCALITY_SCAN_LIMIT: usize = 128;
