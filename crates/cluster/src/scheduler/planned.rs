//! Plan-driven schedulers: Corral's cluster scheduler and the
//! ShuffleWatcher baseline.
//!
//! **Corral (§3.1):** "Whenever a slot becomes empty in any rack, Corral's
//! scheduler examines all jobs which have been assigned that rack and
//! assigns the slot to the job with the highest priority." Tasks of planned
//! jobs are confined to their planned racks `Rj` (until the §7 failure
//! fallback fires); ad hoc jobs (priority `u32::MAX`) use any leftover
//! slots in FIFO order. Source tasks still prefer machine-local replicas —
//! with Corral's data placement a replica lives inside `Rj`, so rack-level
//! locality is automatic.
//!
//! **ShuffleWatcher (§6.1):** same slot-filling mechanics, but rack sets
//! are chosen *per job at submission* (greedy, contention-oblivious — see
//! `Engine`'s assignment rule) and priorities are plain FIFO. It "fails to
//! account for contention between jobs and schedules them independently
//! from each other".

use super::{find_machine_local, Pick, TaskScheduler, LOCALITY_SCAN_LIMIT};
use crate::engine::ClusterState;
use corral_model::MachineId;

/// Corral's runtime scheduler (also used for the LocalShuffle baseline —
/// the difference is purely the data-placement mode).
#[derive(Debug)]
pub struct PlannedScheduler {
    label: &'static str,
}

impl PlannedScheduler {
    /// Creates the scheduler with a report label.
    pub fn new(label: &'static str) -> Self {
        PlannedScheduler { label }
    }
}

/// The shared slot rule. It returns `None` only when no job allowed on the
/// machine's rack has a dispatchable stage, so a decline holds for the
/// whole rack (both policies report [`TaskScheduler::declines_per_rack`]).
fn planned_pick(machine: MachineId, st: &ClusterState) -> Option<Pick> {
    let rack = st.params.cluster.rack_of(machine);
    for &ji in &st.prio_order {
        let job = &st.jobs[ji];
        if !job.is_active() || !job.allowed_on(rack) {
            continue;
        }
        for (si, stage) in job.stages.iter().enumerate() {
            if !stage.dispatchable() {
                continue;
            }
            let stage_id = corral_model::StageId::from_index(si);
            // Source-stage locality ladder: machine-local, then rack-local
            // (a multi-rack job's chunk replicas each live in *one* rack of
            // Rj, so steering tasks to their replica's rack is what keeps
            // input reads off the core), then any pending task. No delay
            // waits: the rack constraint bounds the damage of a miss.
            if stage.is_source && !stage.preferred.is_empty() {
                if let Some(pos) = find_machine_local(
                    &stage.pending,
                    &stage.preferred,
                    machine,
                    LOCALITY_SCAN_LIMIT,
                ) {
                    return Some(Pick {
                        job_idx: ji,
                        stage: stage_id,
                        pending_pos: pos,
                    });
                }
                let cfg = &st.params.cluster;
                if let Some(pos) = super::find_rack_local(
                    &stage.pending,
                    &stage.preferred,
                    |m| cfg.rack_of(m),
                    rack,
                    LOCALITY_SCAN_LIMIT,
                ) {
                    return Some(Pick {
                        job_idx: ji,
                        stage: stage_id,
                        pending_pos: pos,
                    });
                }
            }
            return Some(Pick {
                job_idx: ji,
                stage: stage_id,
                pending_pos: stage.pending.len() - 1,
            });
        }
    }
    None
}

impl TaskScheduler for PlannedScheduler {
    fn name(&self) -> &'static str {
        self.label
    }

    fn pick(&mut self, machine: MachineId, st: &ClusterState) -> Option<Pick> {
        planned_pick(machine, st)
    }

    fn declines_per_rack(&self) -> bool {
        true
    }
}

/// ShuffleWatcher's slot policy: identical mechanics; the engine assigns
/// rack sets greedily per job at submission and FIFO priorities.
#[derive(Debug, Default)]
pub struct ShuffleWatcherScheduler;

impl ShuffleWatcherScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        ShuffleWatcherScheduler
    }
}

impl TaskScheduler for ShuffleWatcherScheduler {
    fn name(&self) -> &'static str {
        "shufflewatcher"
    }

    fn pick(&mut self, machine: MachineId, st: &ClusterState) -> Option<Pick> {
        planned_pick(machine, st)
    }

    fn declines_per_rack(&self) -> bool {
        true
    }
}
