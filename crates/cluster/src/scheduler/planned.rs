//! The rack-constrained slot policy: Corral's cluster scheduler, and the
//! slot half of the LocalShuffle and ShuffleWatcher baselines.
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
//! The baselines differ only in where each job's guideline (rack set plus
//! priority) comes from, which the engine decides at submission:
//! LocalShuffle keeps the plan but not its data placement, and
//! **ShuffleWatcher (§6.1)** chooses rack sets *per job* (greedy,
//! contention-oblivious — see `Engine`'s assignment rule) with plain FIFO
//! priorities. It "fails to account for contention between jobs and
//! schedules them independently from each other".

use super::{find_machine_local, Pick, TaskScheduler, LOCALITY_SCAN_LIMIT};
use crate::engine::ClusterState;
use corral_model::MachineId;

/// The rack-constrained slot policy (see module docs): the highest-priority
/// job allowed on the machine's rack gets the slot.
#[derive(Debug)]
pub struct PlannedScheduler;

impl TaskScheduler for PlannedScheduler {
    /// Returns `None` only when no job allowed on the machine's rack has a
    /// dispatchable stage, so a decline holds for the whole rack
    /// ([`TaskScheduler::declines_per_rack`]).
    fn pick(&mut self, machine: MachineId, st: &ClusterState) -> Option<Pick> {
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

    fn declines_per_rack(&self) -> bool {
        true
    }
}
