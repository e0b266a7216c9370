//! Fluid flow state and identification tags.

use crate::topology::Path;
use corral_model::{Bytes, JobId, MachineId, StageId, TaskId};
use serde::{Deserialize, Serialize};

/// Identifies a coflow: the set of flows belonging to one semantic transfer
/// (e.g. the shuffle of one job stage). Used by coflow-aware allocators
/// (Varys SEBF).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CoflowId(pub u64);

/// What a flow carries — used for byte accounting and tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowKind {
    /// A map (or source-stage) task reading DFS input remotely.
    InputRead,
    /// Intermediate (shuffle / broadcast) data between stages.
    Shuffle,
    /// A sink-stage task writing a DFS output replica remotely.
    OutputWrite,
    /// Input-data ingestion (upload into the cluster).
    Ingest,
    /// Non-job background traffic modeled as explicit flows (rarely used;
    /// the usual background model is a capacity reservation).
    Background,
}

/// Ownership/tracing tag attached to every flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowTag {
    /// Owning job, if any.
    pub job: Option<JobId>,
    /// Owning stage within the job.
    pub stage: Option<StageId>,
    /// Owning (destination) task.
    pub task: Option<TaskId>,
    /// Payload class.
    pub kind: FlowKind,
}

impl FlowTag {
    /// A tag with no owner, for background or infrastructure transfers.
    pub fn infrastructure(kind: FlowKind) -> Self {
        FlowTag {
            job: None,
            stage: None,
            task: None,
            kind,
        }
    }

    /// A tag owned by a job task.
    pub fn task(job: JobId, stage: StageId, task: TaskId, kind: FlowKind) -> Self {
        FlowTag {
            job: Some(job),
            stage: Some(stage),
            task: Some(task),
            kind,
        }
    }
}

/// A request to start a flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Source machine.
    pub src: MachineId,
    /// Destination machine.
    pub dst: MachineId,
    /// Bytes to transfer.
    pub bytes: Bytes,
    /// Tracing tag.
    pub tag: FlowTag,
    /// Coflow membership (for coflow-aware allocators).
    pub coflow: Option<CoflowId>,
}

/// Internal per-flow state held by the fabric. Rates and remaining bytes
/// are *not* stored here: they live in the fabric's dense per-slot
/// incremental arrays, so the hot path never re-walks this scattered
/// table.
#[derive(Debug, Clone)]
pub(crate) struct FlowState {
    pub spec: FlowSpec,
    pub path: Path,
    /// True if the path crosses the rack/core links.
    pub cross_rack: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags() {
        let t = FlowTag::task(JobId(1), StageId(0), TaskId(9), FlowKind::Shuffle);
        assert_eq!(t.job, Some(JobId(1)));
        assert_eq!(t.kind, FlowKind::Shuffle);
        let i = FlowTag::infrastructure(FlowKind::Ingest);
        assert_eq!(i.job, None);
    }
}
