//! The two bandwidth allocation policies of the paper's simulation study
//! (§6.6), as one closed enum the fabric dispatches on:
//!
//! * [`RatePolicy::FairShare`] — per-flow max-min fairness (the TCP
//!   stand-in), maintained by the fabric's component-incremental path;
//! * [`RatePolicy::Varys`] — Varys' coflow scheduling (SEBF + MADD +
//!   backfill, see [`crate::varys`]), maintained by the coflow-incremental
//!   path.
//!
//! Each policy also has one from-scratch solve
//! ([`RatePolicy::allocate_from_scratch`]): the oracle the fabric checks
//! every incremental recompute against in debug builds.

use crate::flow::CoflowId;
use crate::link::{Link, LinkId};
use crate::maxmin::{self, ComponentScratch, MaxMinScratch};
use crate::varys::{self, VarysScratch};

/// The active flow set in flat CSR form: flow `f` traverses
/// `flow_links[flow_off[f] .. flow_off[f+1]]`. Built by the fabric into
/// persistent buffers, so handing it to a solver performs no allocation.
/// The fabric lists flows in ascending [`FlowId`](corral_model::FlowId)
/// order.
#[derive(Debug, Clone, Copy)]
pub struct FlowTable<'a> {
    /// Prefix offsets into `flow_links`; length is `len() + 1`.
    pub flow_off: &'a [u32],
    /// Concatenated per-flow link paths.
    pub flow_links: &'a [LinkId],
    /// Scheduling bytes per flow: Varys ranks and sizes coflows by them
    /// (the fabric passes each flow's admission size); fair sharing
    /// ignores them.
    pub remaining: &'a [f64],
    /// Coflow membership, per flow.
    pub coflow: &'a [Option<CoflowId>],
}

impl<'a> FlowTable<'a> {
    /// Number of flows in the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.flow_off.len().saturating_sub(1)
    }

    /// True when the table holds no flows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The links flow `f` traverses.
    #[inline]
    pub fn path(&self, f: usize) -> &'a [LinkId] {
        &self.flow_links[self.flow_off[f] as usize..self.flow_off[f + 1] as usize]
    }
}

/// Reusable workspaces threaded through the rate solves. Owned by the
/// fabric and reused across recomputes, so steady-state rate allocation
/// performs no heap allocation.
#[derive(Debug, Default)]
pub struct AllocScratch {
    /// Effective link capacities, refreshed each call.
    pub caps: Vec<f64>,
    /// Progressive-filling workspace (CSR link→flow index).
    pub maxmin: MaxMinScratch,
    /// Canonical per-component split and subproblem buffers.
    pub(crate) comp: ComponentScratch,
    /// Varys grouping/ordering workspace.
    pub varys: VarysScratch,
}

impl AllocScratch {
    /// Fresh, empty workspaces.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total reserved capacity across all scratch buffers, in elements.
    /// Growth of this number indicates a (re)allocation; a flat reading
    /// across recomputes certifies the steady state is allocation-free.
    pub fn footprint(&self) -> usize {
        self.caps.capacity()
            + self.maxmin.footprint()
            + self.comp.footprint()
            + self.varys.footprint()
    }

    /// Refreshes `caps` from the link table without reallocating once
    /// capacity suffices.
    pub(crate) fn refresh_caps(&mut self, links: &[Link]) {
        self.caps.clear();
        self.caps
            .extend(links.iter().map(|l| l.effective_capacity().0));
    }
}

/// Event delta handed to [`varys::allocate_dirty`]: which flows
/// arrived or departed since the previous recompute, which links those
/// events touched, and whether effective capacities moved. Group keys are
/// the fabric's stable per-coflow keys (synthetic singleton keys for
/// coflow-less flows), so the allocator can dirty exactly the touched
/// groups. All slot lists ride ascending flow-id order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirtyCtx<'a> {
    /// Fabric flow slot of each CSR row, ascending (parallel to `rates`).
    pub slots: &'a [u32],
    /// Row index per fabric slot; `u32::MAX` when the slot has no row
    /// (departed, local, or never-networked flows).
    pub row_of: &'a [u32],
    /// Flows admitted since the last recompute, `(group_key, slot)` in
    /// admission (= ascending slot) order. Flows that already departed
    /// again are filtered out by the fabric.
    pub added: &'a [(u64, u32)],
    /// Flows departed (completed or cancelled) since the last recompute,
    /// `(group_key, slot)` in event order.
    pub departed: &'a [(u64, u32)],
    /// Links touched by arrivals/departures/background events since the
    /// last recompute (may contain duplicates).
    pub dirty_links: &'a [LinkId],
    /// Effective link capacities changed since the last recompute
    /// (background-traffic epoch); invalidates every cached residual.
    pub caps_changed: bool,
}

/// What [`varys::allocate_dirty`] actually did. The fabric uses
/// this to attribute the recompute to the right probe counter and stats
/// bucket; in every case `rates` is fully written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DirtyOutcome {
    /// The dirtied priority boundary covered the whole order (capacity
    /// change or cold cache): a full pass ran and rebuilt the caches.
    Full {
        /// Max-min freeze rounds executed across all component solves.
        rounds: u64,
    },
    /// Coflow-local incremental solve: only dirtied groups were
    /// re-ranked and only dirtied components re-solved.
    Incremental {
        /// Flows living in re-solved components (the dirty set).
        dirty_flows: u64,
        /// Max-min freeze rounds executed across the dirty components.
        rounds: u64,
    },
}

/// A bandwidth allocation policy: which of the paper's two network
/// schedulers runs, and with it which incremental path the fabric takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatePolicy {
    /// Max-min fair sharing: the fluid proxy for long-lived TCP with ideal
    /// congestion control. Memoryless — rates depend only on paths and
    /// effective capacities — so it decomposes over connected components.
    FairShare,
    /// Varys SEBF + MADD + work-conserving backfill over coflows, with
    /// scheduling bytes frozen at admission (clairvoyant SEBF).
    Varys,
}

impl RatePolicy {
    /// Human-readable policy name (used in experiment output).
    pub fn name(self) -> &'static str {
        match self {
            RatePolicy::FairShare => "tcp-fair",
            RatePolicy::Varys => "varys-sebf",
        }
    }

    /// Solves every flow of `table` from scratch, using no state cached
    /// across calls: canonical per-component max-min over the effective
    /// capacities for fair sharing, canonical SEBF + MADD + per-component
    /// backfill for Varys. `links` carries the effective capacities
    /// (background traffic already subtracted via
    /// [`Link::effective_capacity`]); `rates` has one slot per flow and is
    /// fully overwritten. The fabric's incremental paths must reproduce
    /// these rates bit for bit.
    pub fn allocate_from_scratch(
        self,
        links: &[Link],
        table: &FlowTable<'_>,
        rates: &mut [f64],
        scratch: &mut AllocScratch,
    ) {
        match self {
            RatePolicy::FairShare => {
                scratch.refresh_caps(links);
                maxmin::max_min_rates_by_component(
                    &scratch.caps,
                    table.flow_off,
                    table.flow_links,
                    rates,
                    &mut scratch.comp,
                    &mut scratch.maxmin,
                );
            }
            RatePolicy::Varys => varys::allocate_from_scratch(links, table, rates, scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkClass;
    use corral_model::Bandwidth;

    #[test]
    fn fair_share_respects_background() {
        let mut uplink = Link::new(LinkClass::RackUp, 0, Bandwidth(100.0));
        uplink.background = Bandwidth(60.0);
        let links = vec![uplink];
        let flow_links = [LinkId(0), LinkId(0)];
        let table = FlowTable {
            flow_off: &[0, 1, 2],
            flow_links: &flow_links,
            remaining: &[1000.0, 1000.0],
            coflow: &[None, None],
        };
        let mut rates = [0.0; 2];
        RatePolicy::FairShare.allocate_from_scratch(
            &links,
            &table,
            &mut rates,
            &mut AllocScratch::new(),
        );
        // 40 available, split two ways.
        assert!((rates[0] - 20.0).abs() < 1e-6);
        assert!((rates[1] - 20.0).abs() < 1e-6);
    }
}
