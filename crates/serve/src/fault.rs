//! Dead-capacity tracking and the virtual-rack mask.
//!
//! The planner is rack-symmetric: latency response tables depend only on
//! the rack *count*, prioritization picks k-smallest-`F_i` racks with
//! index tie-breaks, and pins are rack-id sets. That symmetry is what
//! makes failure masking exact: instead of teaching the planner about
//! holes, the scheduler plans on a **virtual cluster** of only the live
//! racks and remaps rack ids at the boundary — live pins map to virtual
//! indices on the way in (the map is monotone, so index tie-breaks are
//! preserved), planned virtual racks map back to live ids on the way
//! out. A rack counts as dead when more than the §7 fallback threshold
//! of its machines are down (a rack at half capacity still hosts data
//! and tasks; a rack past the threshold is treated as gone, matching
//! `cluster::engine::on_failure`).

use corral_model::{ClusterConfig, MachineId, RackId};
use corral_trace::fnv::Fnv64;

/// Per-machine liveness for the serving cluster, plus the per-rack
/// aggregates the §7 fallback rule reads.
#[derive(Debug, Clone)]
pub(crate) struct Topology {
    machines_per_rack: usize,
    /// `dead[m]` — machine `m` is currently down.
    dead: Vec<bool>,
    /// Down machines per rack (derived, kept in sync).
    dead_per_rack: Vec<u32>,
}

impl Topology {
    pub(crate) fn new(cluster: &ClusterConfig) -> Self {
        Topology {
            machines_per_rack: cluster.machines_per_rack,
            dead: vec![false; cluster.racks * cluster.machines_per_rack],
            dead_per_rack: vec![0; cluster.racks],
        }
    }

    /// Marks `m` dead. Returns `false` when the id is out of range or
    /// the machine was already dead (no state change).
    pub(crate) fn fail_machine(&mut self, m: MachineId) -> bool {
        match self.dead.get_mut(m.index()) {
            Some(d) if !*d => {
                *d = true;
                self.dead_per_rack[m.index() / self.machines_per_rack] += 1;
                true
            }
            _ => false,
        }
    }

    /// Marks `m` live again. Returns `false` on out-of-range or no-op.
    pub(crate) fn repair_machine(&mut self, m: MachineId) -> bool {
        match self.dead.get_mut(m.index()) {
            Some(d) if *d => {
                *d = false;
                self.dead_per_rack[m.index() / self.machines_per_rack] -= 1;
                true
            }
            _ => false,
        }
    }

    /// Marks every machine in `r` dead. Returns `false` when the rack id
    /// is out of range or every machine was already dead.
    pub(crate) fn fail_rack(&mut self, r: RackId) -> bool {
        if r.index() >= self.dead_per_rack.len() {
            return false;
        }
        let base = r.index() * self.machines_per_rack;
        let mut changed = false;
        for m in base..base + self.machines_per_rack {
            changed |= self.fail_machine(MachineId::from_index(m));
        }
        changed
    }

    /// Currently dead machines, ascending (the snapshot representation).
    pub(crate) fn dead_machines(&self) -> Vec<MachineId> {
        self.dead
            .iter()
            .enumerate()
            .filter(|(_, d)| **d)
            .map(|(i, _)| MachineId::from_index(i))
            .collect()
    }

    /// FNV-1a fingerprint of the dead-machine set; `0` when everything
    /// is live, so cache keys from before any failure (and after full
    /// repair) coincide.
    pub(crate) fn dead_fp(&self) -> u64 {
        let mut h = Fnv64::new();
        let mut any = false;
        for (i, d) in self.dead.iter().enumerate() {
            if *d {
                any = true;
                h.u64(i as u64);
            }
        }
        if any {
            h.finish()
        } else {
            0
        }
    }

    /// Fraction of machines down across `racks` (0.0 for an empty set).
    pub(crate) fn dead_fraction(&self, racks: &[RackId]) -> f64 {
        if racks.is_empty() {
            return 0.0;
        }
        let mut down = 0u32;
        let mut total = 0u32;
        for r in racks {
            if let Some(n) = self.dead_per_rack.get(r.index()) {
                down += n;
                total += self.machines_per_rack as u32;
            }
        }
        if total == 0 {
            0.0
        } else {
            down as f64 / total as f64
        }
    }

    /// Whether rack `r` is past the fallback threshold (treated as gone).
    pub(crate) fn rack_masked(&self, r: RackId, threshold: f64) -> bool {
        match self.dead_per_rack.get(r.index()) {
            Some(n) => *n as f64 / self.machines_per_rack as f64 > threshold,
            None => true,
        }
    }

    /// Builds the live↔virtual rack map at the given threshold.
    pub(crate) fn mask(&self, threshold: f64) -> RackMask {
        let live: Vec<RackId> = (0..self.dead_per_rack.len())
            .map(RackId::from_index)
            .filter(|r| !self.rack_masked(*r, threshold))
            .collect();
        RackMask::new(live, self.dead_per_rack.len())
    }
}

/// A monotone bijection between the live racks and the virtual cluster
/// `0..live.len()` the planner actually sees.
#[derive(Debug, Clone)]
pub(crate) struct RackMask {
    /// Virtual index → live rack id, ascending.
    live: Vec<RackId>,
    /// Live rack id → virtual index (`None` when masked).
    virt: Vec<Option<RackId>>,
    total_racks: usize,
}

impl RackMask {
    fn new(live: Vec<RackId>, total_racks: usize) -> Self {
        let mut virt = vec![None; total_racks];
        for (v, r) in live.iter().enumerate() {
            virt[r.index()] = Some(RackId::from_index(v));
        }
        RackMask {
            live,
            virt,
            total_racks,
        }
    }

    /// The identity mask over a fully live cluster.
    pub(crate) fn identity(total_racks: usize) -> Self {
        RackMask::new(
            (0..total_racks).map(RackId::from_index).collect(),
            total_racks,
        )
    }

    /// Live racks (the virtual cluster's size).
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    /// True when every rack is masked (no capacity to plan against).
    pub(crate) fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// True when nothing is masked (virtual == live).
    pub(crate) fn is_identity(&self) -> bool {
        self.live.len() == self.total_racks
    }

    /// True when a live rack id is masked out of the virtual cluster.
    pub(crate) fn is_masked(&self, r: RackId) -> bool {
        self.virt.get(r.index()).is_none_or(|v| v.is_none())
    }

    /// Maps live rack ids into the virtual cluster, dropping masked ones
    /// (used for active-job occupancy, which may straddle dead racks).
    pub(crate) fn to_virtual_lossy(&self, racks: &[RackId]) -> Vec<RackId> {
        racks
            .iter()
            .filter_map(|r| self.virt.get(r.index()).copied().flatten())
            .collect()
    }

    /// Maps virtual rack ids back to live ids. Panics on an index the
    /// virtual cluster does not have — the planner never emits one.
    pub(crate) fn to_live(&self, racks: &[RackId]) -> Vec<RackId> {
        racks.iter().map(|r| self.live[r.index()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterConfig {
        // 3 racks × 4 machines.
        ClusterConfig::tiny_test()
    }

    #[test]
    fn machine_lifecycle_and_rack_masking() {
        let mut t = Topology::new(&cluster());
        assert_eq!(t.dead_fp(), 0);
        assert!(t.fail_machine(MachineId(0)));
        assert!(!t.fail_machine(MachineId(0)), "double-fail is a no-op");
        assert!(t.fail_machine(MachineId(1)));
        // 2/4 dead: not past the 0.5 threshold (strict >).
        assert!(!t.rack_masked(RackId(0), 0.5));
        assert!(t.fail_machine(MachineId(2)));
        assert!(t.rack_masked(RackId(0), 0.5));
        assert_eq!(
            t.dead_machines(),
            vec![MachineId(0), MachineId(1), MachineId(2)]
        );
        let fp = t.dead_fp();
        assert_ne!(fp, 0);
        // Repair back to zero dead restores the empty fingerprint.
        assert!(t.repair_machine(MachineId(0)));
        assert!(!t.repair_machine(MachineId(0)), "double-repair is a no-op");
        assert!(t.repair_machine(MachineId(1)));
        assert!(t.repair_machine(MachineId(2)));
        assert_eq!(t.dead_fp(), 0);
        // Out-of-range ids are ignored, not panics.
        assert!(!t.fail_machine(MachineId(999)));
        assert!(!t.repair_machine(MachineId(999)));
        assert!(!t.fail_rack(RackId(99)));
    }

    #[test]
    fn rack_failure_and_fractions() {
        let mut t = Topology::new(&cluster());
        assert!(t.fail_rack(RackId(1)));
        assert!(!t.fail_rack(RackId(1)), "already fully dead");
        assert_eq!(t.dead_fraction(&[RackId(1)]), 1.0);
        assert_eq!(t.dead_fraction(&[RackId(0)]), 0.0);
        assert_eq!(t.dead_fraction(&[RackId(0), RackId(1)]), 0.5);
        assert_eq!(t.dead_fraction(&[]), 0.0);
        // A partially repaired rack un-masks.
        assert!(t.repair_machine(MachineId(4)));
        assert!(t.repair_machine(MachineId(5)));
        assert!(!t.rack_masked(RackId(1), 0.5));
    }

    #[test]
    fn mask_is_a_monotone_bijection() {
        let mut t = Topology::new(&cluster());
        t.fail_rack(RackId(1));
        let m = t.mask(0.5);
        assert_eq!(m.len(), 2);
        assert!(!m.is_identity());
        assert!(m.is_masked(RackId(1)));
        assert!(!m.is_masked(RackId(2)));
        // live {0, 2} → virtual {0, 1}, order preserved.
        assert_eq!(
            m.to_virtual_lossy(&[RackId(0), RackId(1), RackId(2)]),
            vec![RackId(0), RackId(1)]
        );
        assert_eq!(
            m.to_live(&[RackId(0), RackId(1)]),
            vec![RackId(0), RackId(2)]
        );

        let id = RackMask::identity(3);
        assert!(id.is_identity());
        assert_eq!(id.len(), 3);
        assert_eq!(
            id.to_virtual_lossy(&[RackId(2), RackId(0)]),
            vec![RackId(2), RackId(0)]
        );
    }
}
