//! The YARN capacity scheduler baseline ("Yarn-CS") with delay scheduling.
//!
//! Jobs are served FIFO (arrival order). Source-stage (map) tasks prefer
//! machines holding a replica of their input; a job skips a scheduling
//! opportunity rather than launch a non-local map, up to `wait_slots`
//! skips for machine locality and another `wait_slots` for rack locality
//! (Zaharia et al., *Delay Scheduling*, EuroSys 2010 — the technique the
//! capacity scheduler uses per the paper's §6.1). Non-source (reduce) tasks
//! are placed anywhere. No rack constraints, no plan, no data placement.

use super::{find_machine_local, find_rack_local, Pick, TaskScheduler, LOCALITY_SCAN_LIMIT};
use crate::engine::ClusterState;
use corral_model::MachineId;
use std::collections::HashMap;

/// See module docs.
#[derive(Debug)]
pub struct CapacityScheduler {
    wait_slots: u32,
    /// Skipped scheduling opportunities per job index (delay scheduling
    /// counter; reset on a local launch).
    waits: HashMap<usize, u32>,
}

impl CapacityScheduler {
    /// `wait_slots` = skips tolerated before relaxing to rack-local, and
    /// again before relaxing to any machine.
    pub fn new(wait_slots: u32) -> Self {
        CapacityScheduler {
            wait_slots,
            waits: HashMap::new(),
        }
    }
}

impl TaskScheduler for CapacityScheduler {
    fn pick(&mut self, machine: MachineId, st: &ClusterState) -> Option<Pick> {
        let rack = st.params.cluster.rack_of(machine);
        // Capacity priorities are FIFO ranks: this is arrival order.
        for &ji in &st.prio_order {
            let job = &st.jobs[ji];
            if !job.is_active() {
                continue;
            }
            for (si, stage) in job.stages.iter().enumerate() {
                if !stage.dispatchable() {
                    continue;
                }
                let stage_id = corral_model::StageId::from_index(si);
                if !stage.is_source || stage.preferred.is_empty() {
                    // Reducers (and input-less sources): no locality games.
                    return Some(Pick {
                        job_idx: ji,
                        stage: stage_id,
                        pending_pos: stage.pending.len() - 1,
                    });
                }
                // Delay scheduling ladder for map tasks.
                if let Some(pos) = find_machine_local(
                    &stage.pending,
                    &stage.preferred,
                    machine,
                    LOCALITY_SCAN_LIMIT,
                ) {
                    self.waits.insert(ji, 0);
                    return Some(Pick {
                        job_idx: ji,
                        stage: stage_id,
                        pending_pos: pos,
                    });
                }
                let w = self.waits.entry(ji).or_insert(0);
                *w += 1;
                if st.tracer.enabled() {
                    st.tracer.record(
                        st.now.as_secs(),
                        corral_trace::TraceEvent::SchedulerWait {
                            job: job.spec.id.0,
                            waits: *w,
                            machine: machine.0,
                        },
                    );
                }
                if *w > self.wait_slots {
                    let cfg = &st.params.cluster;
                    if let Some(pos) = find_rack_local(
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
                if *w > 2 * self.wait_slots {
                    return Some(Pick {
                        job_idx: ji,
                        stage: stage_id,
                        pending_pos: stage.pending.len() - 1,
                    });
                }
                // Still waiting for locality: skip this job's maps but keep
                // looking at later jobs (work conservation).
            }
        }
        None
    }

    fn on_local_launch(&mut self, job_idx: usize) {
        self.waits.insert(job_idx, 0);
    }
}
