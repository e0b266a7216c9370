//! Fabric traffic accounting.
//!
//! Tracks, per job and in aggregate, how many bytes crossed the
//! oversubscribed core links versus stayed inside racks. "Cross-rack data
//! transferred" is the paper's Figure 7a metric; Corral's headline is a
//! 20–90% reduction of it.

use corral_model::{Bytes, JobId};
use serde::Serialize;
use std::collections::BTreeMap;

/// Job ids below this bound keep their cross-rack counter in a dense
/// vector indexed by id; larger ids (a trace may number its jobs
/// arbitrarily) fall back to a map, so memory never scales with the
/// largest id.
const DENSE_JOBS: usize = 1 << 16;

/// Aggregate and per-job byte counters maintained by the fabric.
#[derive(Debug, Default, Clone, Serialize)]
pub struct FabricStats {
    /// Total bytes that crossed rack/core links (each byte counted once,
    /// on the uplink).
    pub cross_rack_bytes: Bytes,
    /// Total bytes carried by machine NIC links into/out of the network
    /// (each byte counted once, on the source NIC; machine-local transfers
    /// excluded).
    pub network_bytes: Bytes,
    /// Bytes transferred machine-locally (no network involved).
    pub local_bytes: Bytes,
    /// Per-job cross-rack bytes, indexed by job id, for ids below
    /// `DENSE_JOBS`; read through [`FabricStats::cross_rack_of`].
    cross_rack_by_job: Vec<Bytes>,
    /// Per-job cross-rack bytes of the jobs with larger ids.
    cross_rack_sparse: BTreeMap<JobId, Bytes>,
    /// Bytes ingested from outside the cluster (upload feeds / remote
    /// storage); kept separate from job network traffic.
    pub ingest_bytes: Bytes,
    /// Number of flows completed.
    pub flows_completed: u64,
    /// Number of flows started.
    pub flows_started: u64,
    /// Number of rate recomputations (allocator invocations).
    pub recomputes: u64,
    /// Cumulative progressive-filling freeze rounds across all recomputes
    /// (Varys counts its backfill solves).
    pub maxmin_rounds: u64,
    /// Number of recomputes on which any scratch buffer (re)allocated.
    /// Flat after warm-up ⇒ the steady-state hot path is allocation-free.
    pub scratch_grows: u64,
    /// Recomputes served by the incremental path (only dirty bottleneck
    /// components re-solved). `recomputes` is the sum of this and
    /// `recomputes_full`.
    pub recomputes_incremental: u64,
    /// Recomputes served by a full solve: on the Varys path, the events
    /// where a capacity change or a cold cache forced a full pass. Always
    /// zero under fair sharing.
    pub recomputes_full: u64,
    /// Cumulative dirty-set size: candidate flows re-solved across all
    /// incremental recomputes (divide by `recomputes_incremental` for
    /// the mean dirty-set size).
    pub dirty_flows: u64,
    /// Entries pushed onto the completion calendar: one per local flow
    /// start, one per re-solved fair component with a finite deadline,
    /// and one per Varys flow whose deadline moved. Stale entries are
    /// skipped at pop time, so every push is later popped or vacuumed.
    pub calendar_pushes: u64,
}

impl FabricStats {
    /// Records `amount` of ingress (external upload) traffic.
    pub(crate) fn record_ingest(&mut self, amount: Bytes) {
        debug_assert!(amount.0 >= 0.0, "negative ingest amount {amount:?}");
        self.ingest_bytes += amount;
    }

    /// Records `amount` transferred by a flow.
    pub(crate) fn record_transfer(
        &mut self,
        job: Option<JobId>,
        amount: Bytes,
        cross_rack: bool,
        local: bool,
    ) {
        debug_assert!(amount.0 >= 0.0, "negative transfer amount {amount:?}");
        if local {
            self.local_bytes += amount;
            return;
        }
        self.network_bytes += amount;
        if !cross_rack {
            return;
        }
        self.cross_rack_bytes += amount;
        let Some(j) = job else {
            return;
        };
        let i = j.index();
        if i < DENSE_JOBS {
            if self.cross_rack_by_job.len() <= i {
                self.cross_rack_by_job.resize(i + 1, Bytes::ZERO);
            }
            self.cross_rack_by_job[i] += amount;
        } else {
            *self.cross_rack_sparse.entry(j).or_insert(Bytes::ZERO) += amount;
        }
    }

    /// Cross-rack bytes attributed to `job`.
    pub fn cross_rack_of(&self, job: JobId) -> Bytes {
        let i = job.index();
        if i < DENSE_JOBS {
            self.cross_rack_by_job.get(i).copied()
        } else {
            self.cross_rack_sparse.get(&job).copied()
        }
        .unwrap_or(Bytes::ZERO)
    }

    /// Debug-build sanity checks on the counters. Since every recorded
    /// amount is non-negative, all byte counters are monotone over the
    /// run; a flow can only complete after it started.
    pub(crate) fn debug_validate(&self) {
        debug_assert!(
            self.flows_completed <= self.flows_started,
            "{} flows completed but only {} started",
            self.flows_completed,
            self.flows_started
        );
        debug_assert!(
            self.cross_rack_bytes.0 >= 0.0
                && self.network_bytes.0 >= 0.0
                && self.local_bytes.0 >= 0.0
                && self.ingest_bytes.0 >= 0.0,
            "negative byte counter: {self:?}"
        );
        debug_assert!(
            self.cross_rack_bytes.0 <= self.network_bytes.0 + 1e-6,
            "cross-rack bytes {} exceed network bytes {}",
            self.cross_rack_bytes.0,
            self.network_bytes.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_splits_classes() {
        let mut s = FabricStats::default();
        s.record_transfer(Some(JobId(1)), Bytes(100.0), true, false);
        s.record_transfer(Some(JobId(1)), Bytes(50.0), false, false);
        s.record_transfer(None, Bytes(30.0), true, false);
        s.record_transfer(Some(JobId(1)), Bytes(7.0), false, true);

        assert_eq!(s.cross_rack_bytes, Bytes(130.0));
        assert_eq!(s.network_bytes, Bytes(180.0));
        assert_eq!(s.local_bytes, Bytes(7.0));
        assert_eq!(s.cross_rack_of(JobId(1)), Bytes(100.0));
        assert_eq!(s.cross_rack_of(JobId(2)), Bytes::ZERO);
    }

    #[test]
    fn sparse_job_ids_keep_their_own_counters() {
        let mut s = FabricStats::default();
        let far = JobId(u32::MAX);
        s.record_transfer(Some(far), Bytes(5.0), true, false);
        s.record_transfer(Some(JobId(3)), Bytes(2.0), true, false);
        s.record_transfer(Some(far), Bytes(1.0), true, false);
        assert_eq!(s.cross_rack_of(far), Bytes(6.0));
        assert_eq!(s.cross_rack_of(JobId(3)), Bytes(2.0));
        assert_eq!(s.cross_rack_of(JobId(DENSE_JOBS as u32)), Bytes::ZERO);
        assert!(s.cross_rack_by_job.len() <= 4, "dense counters stay small");
    }
}
