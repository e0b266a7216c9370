//! The network fabric: flow lifecycle, event-driven advancement, accounting.
//!
//! [`Fabric`] is co-simulated with the cluster engine: the engine starts
//! flows as tasks need data, asks the fabric for the time of the next flow
//! completion, and advances the fabric clock alongside its own event queue.
//! Between flow-set/capacity changes the fluid system evolves linearly, so
//! completions are computed in closed form and byte movement is settled
//! lazily.
//!
//! ## Two recompute paths, one oracle
//!
//! The fabric runs one rate-maintenance path per [`RatePolicy`], fixed at
//! construction:
//!
//! * **Fair sharing** (max-min, the TCP stand-in): rates depend only on
//!   flow paths and effective capacities, so the link↔flow bipartite graph
//!   decomposes into connected components that solve independently. A flow
//!   start/completion/cancel or a background change dirties only its
//!   endpoint links; the recompute dissolves just the components owning
//!   those links, re-runs waterfilling over the affected flows, and splices
//!   the rates back.
//! * **Varys** (SEBF + MADD + backfill): the policy couples flows across
//!   components through a priority order, but that order depends only on
//!   per-coflow *scheduling* bytes, which this fabric freezes at admission
//!   (clairvoyant SEBF, as in the Varys paper — the coflow's size is known
//!   up front and does not shrink as it transfers). The fabric rebuilds the
//!   CSR of alive flows each recompute and hands it, plus the event delta
//!   (added / departed coflow members, dirtied links, capacity epoch), to
//!   [`varys::allocate_dirty`](crate::varys); the allocator re-ranks only
//!   the touched coflows and re-solves only the dirtied backfill
//!   components, and the fabric splices back exactly the rates whose bits
//!   changed. Coflow identity uses stable keys: the coflow id when
//!   present, else a synthetic per-slot singleton key (bit 63 set), so
//!   group membership never shifts as rows come and go.
//!
//! Both paths share the lazy byte accounting (materialized at re-solve,
//! completion, cancellation, or [`Fabric::flush_accounting`]), the
//! per-flow completion deadlines, and the completion calendar
//! ([`CalendarQueue`]): a flow whose rate did not change keeps its queued
//! deadline untouched.
//!
//! Both paths solve the same canonical per-component subproblems (members
//! ascending by flow slot, links ascending by id, compact ids by rank), so
//! the per-flow rates are bit-identical pure functions of the alive flow
//! set. One shadow oracle enforces that ([`Fabric::recompute_full`]):
//! armed by default in debug builds, it rebuilds the CSR of the alive flows
//! after each recompute, re-solves it through
//! [`RatePolicy::allocate_from_scratch`], and panics on any rate-bit
//! divergence. The oracle owns its buffers and never writes simulation
//! state, so runs with it on and off produce byte-identical event streams
//! and statistics.

use crate::allocator::{AllocScratch, DirtyCtx, DirtyOutcome, FlowTable, RatePolicy};
use crate::engine::CalendarQueue;
use crate::flow::{CoflowId, FlowKind, FlowSpec, FlowState, FlowTag};
use crate::link::LinkId;
use crate::maxmin;
use crate::stats::FabricStats;
use crate::topology::Topology;
use crate::varys;
use corral_model::{Bandwidth, Bytes, ClusterConfig, FlowId, RackId, SimTime};
use corral_trace::{probe, FlowClass, NullTracer, SharedTracer, TraceEvent};

/// Maps the fabric's [`FlowKind`] onto the dependency-free trace
/// vocabulary's [`FlowClass`].
fn flow_class(kind: FlowKind) -> FlowClass {
    match kind {
        FlowKind::InputRead => FlowClass::InputRead,
        FlowKind::Shuffle => FlowClass::Shuffle,
        FlowKind::OutputWrite => FlowClass::OutputWrite,
        FlowKind::Ingest => FlowClass::Ingest,
        FlowKind::Background => FlowClass::Background,
    }
}

/// A finished flow, reported by [`Fabric::advance_to`].
#[derive(Debug, Clone, Copy)]
pub struct CompletedFlow {
    /// The flow's id.
    pub id: FlowId,
    /// Its tracing tag.
    pub tag: FlowTag,
    /// Total bytes it carried.
    pub bytes: Bytes,
    /// Completion time.
    pub finished: SimTime,
}

/// Stable coflow group key: the coflow id when present, else a synthetic
/// per-slot singleton key with bit 63 set. It never shifts as rows come
/// and go, which is what lets the Varys allocator cache per-coflow state
/// across recomputes.
#[inline]
fn stable_coflow_key(coflow: Option<CoflowId>, slot: usize) -> u64 {
    coflow.map(|c| c.0).unwrap_or((1u64 << 63) | slot as u64)
}

/// Sentinel for "no component" in the per-flow/per-link component maps.
const NO_COMP: u32 = u32::MAX;

/// Closed-form completion deadline of a flow with `rem` bytes left moving
/// at `rate` from time `now`.
#[inline]
fn deadline_for(now: f64, rem: f64, rate: f64) -> f64 {
    if Bytes(rem).is_negligible() {
        now
    } else if Bandwidth(rate).is_negligible() {
        f64::INFINITY
    } else {
        now + rem / rate
    }
}

/// Union-find `find` with path halving.
#[inline]
fn find(uf: &mut [u32], mut x: u32) -> u32 {
    while uf[x as usize] != x {
        let p = uf[x as usize];
        uf[x as usize] = uf[p as usize];
        x = uf[x as usize];
    }
    x
}

/// Union by **minimum root**, so every set's representative is its smallest
/// member index — the canonical ordering both decompositions share.
#[inline]
fn union(uf: &mut [u32], a: u32, b: u32) {
    let ra = find(uf, a);
    let rb = find(uf, b);
    if ra == rb {
        return;
    }
    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
    uf[hi as usize] = lo;
}

/// A CSR flow table of the alive network flows plus the solver's output
/// and workspaces. The Varys path rebuilds the live one every recompute;
/// the shadow oracle keeps a second one of its own. Cleared and refilled
/// each use, never shrunk, so the steady state performs no allocation.
#[derive(Debug, Default)]
struct RecomputeScratch {
    /// CSR prefix offsets (one per network flow, plus a trailing total).
    flow_off: Vec<u32>,
    /// Concatenated per-flow link paths.
    flow_links: Vec<LinkId>,
    /// Frozen-at-admission scheduling bytes per network flow.
    remaining: Vec<f64>,
    /// Stable coflow key per network flow.
    coflow: Vec<Option<CoflowId>>,
    /// Fabric flow slot of each row, ascending.
    slots: Vec<u32>,
    /// Allocator output, one rate per network flow.
    rates: Vec<f64>,
    /// Allocator-side workspaces (max-min CSR, components, Varys grouping).
    alloc: AllocScratch,
}

impl RecomputeScratch {
    /// Total reserved capacity across every buffer, in elements. A flat
    /// reading across recomputes certifies the steady state allocates
    /// nothing (tracked by [`FabricStats::scratch_grows`]).
    fn footprint(&self) -> usize {
        self.flow_off.capacity()
            + self.flow_links.capacity()
            + self.remaining.capacity()
            + self.coflow.capacity()
            + self.slots.capacity()
            + self.rates.capacity()
            + self.alloc.footprint()
    }

    /// Empties the table, keeping every allocation.
    fn clear(&mut self) {
        self.flow_off.clear();
        self.flow_links.clear();
        self.remaining.clear();
        self.coflow.clear();
        self.slots.clear();
        self.flow_off.push(0);
    }

    /// Appends network flow `f` (fabric slot `slot`) as the next row.
    fn push_row(&mut self, slot: usize, f: &FlowState) {
        self.flow_links.extend_from_slice(f.path.as_slice());
        self.flow_off.push(self.flow_links.len() as u32);
        self.remaining.push(f.spec.bytes.clamp_non_negative().0);
        self.coflow
            .push(Some(CoflowId(stable_coflow_key(f.spec.coflow, slot))));
        self.slots.push(slot as u32);
    }

    /// The table as the solvers see it, the row slots, the output buffer,
    /// and the workspaces, borrowed apart.
    fn split(&mut self) -> (FlowTable<'_>, &[u32], &mut [f64], &mut AllocScratch) {
        let table = FlowTable {
            flow_off: &self.flow_off,
            flow_links: &self.flow_links,
            remaining: &self.remaining,
            coflow: &self.coflow,
        };
        (table, &self.slots, &mut self.rates, &mut self.alloc)
    }
}

/// All state backing the two incremental recompute paths.
///
/// Per-flow arrays are indexed by flow slot (= `FlowId`) and grow
/// monotonically with the flow id space; per-link arrays are fixed at
/// construction. Components are integer ids into `comp_flows`/`comp_stamp`
/// with a LIFO free list.
#[derive(Debug, Default)]
struct IncState {
    // -- per-flow (parallel to `Fabric::flows`) --
    /// Current rate (bytes/s); `local_rate` for machine-local flows, 0
    /// until first solved.
    rate: Vec<f64>,
    /// Time at which `rem` was last materialized.
    epoch: Vec<f64>,
    /// Remaining bytes as of `epoch`.
    rem: Vec<f64>,
    /// Completion deadline under the current rate (`+inf` if pinned).
    deadline: Vec<f64>,
    /// Generation stamp; calendar entries carry the generation they were
    /// pushed with and are skipped as stale once it moves on.
    gen: Vec<u32>,
    /// Component membership (`NO_COMP` for local / dead / pending flows).
    comp_of: Vec<u32>,
    // -- per-link --
    /// Component currently owning each link (`NO_COMP` if idle).
    link_comp: Vec<u32>,
    /// Round-stamped: first candidate index seen on the link (union seed).
    link_first: Vec<u32>,
    /// Round-stamped: compact link id within the component being built.
    link_local: Vec<u32>,
    /// Validity stamps for `link_first` / `link_local`.
    link_stamp: Vec<u64>,
    // -- components --
    /// Member flow slots per component, ascending.
    comp_flows: Vec<Vec<u32>>,
    /// Round stamp deduping "affected component" collection.
    comp_stamp: Vec<u64>,
    /// Recyclable component ids (LIFO ⇒ deterministic id reuse).
    free_comps: Vec<u32>,
    // -- pending dirt --
    /// Links touched since the last recompute (endpoint links of started /
    /// completed / cancelled flows, background changes).
    pending_links: Vec<LinkId>,
    /// Newly started network flows not yet in any component.
    pending_new: Vec<u32>,
    /// Varys: network flows departed (completed or cancelled) since the
    /// last recompute, `(stable group key, slot)` in event order.
    pending_departed: Vec<(u64, u32)>,
    /// Varys: effective capacities changed since the last recompute
    /// (background-traffic epoch) — invalidates the allocator's caches.
    caps_dirty: bool,
    // -- Varys CSR mapping --
    /// Row index per fabric slot (`u32::MAX` when absent). Reset sparsely
    /// via the previous table's `slots`, so maintenance is O(rows), not
    /// O(all slots ever).
    row_of: Vec<u32>,
    /// `(stable group key, slot)` of flows admitted since the last Varys
    /// recompute, ascending slot order, dead-filtered.
    added: Vec<(u64, u32)>,
    /// Completion calendar: `(flow slot, generation)` at the deadline.
    queue: CalendarQueue<(u32, u32)>,
    // -- recompute scratch --
    /// Monotone round counter for the stamp arrays.
    round: u64,
    /// Candidate flows of the current recompute, ascending.
    cand: Vec<u32>,
    /// Union-find parents over candidate indices.
    uf: Vec<u32>,
    /// Root candidate index → new component id.
    root_comp: Vec<u32>,
    /// Components formed this round, ascending-min-member order.
    new_comps: Vec<u32>,
    /// One component's links, deduped and sorted ascending.
    comp_links: Vec<LinkId>,
    /// Effective capacities of `comp_links`, compact order.
    sub_caps: Vec<f64>,
    /// Compact CSR offsets for the component's members.
    sub_off: Vec<u32>,
    /// Compact CSR link ids.
    sub_links: Vec<LinkId>,
    /// Solver output per member.
    sub_rates: Vec<f64>,
    /// Dead (`None`) slots still lingering in `Fabric::active`; drives the
    /// amortized purge.
    dead: usize,
}

impl IncState {
    /// Fresh state sized for `nlinks` directed links.
    fn new(nlinks: usize) -> Self {
        IncState {
            link_comp: vec![NO_COMP; nlinks],
            link_first: vec![0; nlinks],
            link_local: vec![0; nlinks],
            link_stamp: vec![0; nlinks],
            ..IncState::default()
        }
    }

    /// Allocates a component id, recycling freed ids LIFO.
    fn alloc_comp(&mut self) -> u32 {
        if let Some(c) = self.free_comps.pop() {
            c
        } else {
            self.comp_flows.push(Vec::new());
            self.comp_stamp.push(0);
            (self.comp_flows.len() - 1) as u32
        }
    }

    /// Reserved capacity of the *steady-state-bounded* buffers, in
    /// elements. Deliberately O(1) to compute — an O(live flows) walk per
    /// recompute would defeat the incremental path's point. Excluded by
    /// design: the per-flow arrays including `row_of` (they grow with the
    /// flow id space, not with leaks), the calendar queue (its bucket
    /// count tracks pending entries), and `comp_flows` inner vectors.
    fn footprint(&self) -> usize {
        self.link_comp.capacity()
            + self.link_first.capacity()
            + self.link_local.capacity()
            + self.link_stamp.capacity()
            + self.comp_flows.capacity()
            + self.comp_stamp.capacity()
            + self.free_comps.capacity()
            + self.pending_links.capacity()
            + self.pending_new.capacity()
            + self.pending_departed.capacity()
            + self.added.capacity()
            + self.cand.capacity()
            + self.uf.capacity()
            + self.root_comp.capacity()
            + self.new_comps.capacity()
            + self.comp_links.capacity()
            + self.sub_caps.capacity()
            + self.sub_off.capacity()
            + self.sub_links.capacity()
            + self.sub_rates.capacity()
    }
}

/// Flow-level network simulator for one cluster fabric.
pub struct Fabric {
    topo: Topology,
    /// Rate-allocation policy; selects the recompute path.
    policy: RatePolicy,
    /// Flow table indexed by `FlowId`; completed/cancelled slots are `None`.
    flows: Vec<Option<FlowState>>,
    /// Active flow ids, ascending (ids are allocated monotonically).
    /// Completed and cancelled flows linger as `None` slots until the
    /// amortized purge (or the Varys recompute's CSR pass) drops them.
    active: Vec<FlowId>,
    now: SimTime,
    /// Set when the flow set or link capacities changed since the last rate
    /// computation.
    dirty: bool,
    stats: FabricStats,
    /// Rate granted to machine-local (empty-path) transfers.
    local_rate: Bandwidth,
    /// Optional utilization sampling: bucket width and per-bucket core
    /// bytes (cross-rack traffic, counted once per flow).
    sampling: Option<(f64, Vec<f64>)>,
    /// Structured event sink (flow lifecycle).
    tracer: SharedTracer,
    /// Cached `tracer.enabled()` so the hot path is one branch.
    trace_on: bool,
    /// Reused recompute buffers (Varys CSR table, rates, allocator
    /// workspaces).
    scratch: RecomputeScratch,
    /// Footprint after the previous recompute, to detect growth.
    scratch_footprint: usize,
    /// Last Varys workspace footprint pushed to the
    /// `fabric.varys_scratch_elems` gauge.
    last_varys_footprint: usize,
    /// Whether the shadow from-scratch oracle runs after every recompute
    /// (default: debug builds only).
    oracle: bool,
    /// The oracle's own CSR table and workspaces, kept apart from the live
    /// ones (and out of the footprint) so arming it cannot perturb stats.
    oracle_scratch: RecomputeScratch,
    /// Incremental-path state.
    inc: IncState,
}

impl Fabric {
    /// Builds a fabric for `cfg` with the given allocation policy.
    pub fn new(cfg: ClusterConfig, policy: RatePolicy) -> Self {
        let local_rate = cfg.nic_bandwidth * 2.0; // loopback: faster than NIC
        let topo = Topology::new(cfg);
        let nlinks = topo.links().len();
        Fabric {
            topo,
            policy,
            flows: Vec::new(),
            active: Vec::new(),
            now: SimTime::ZERO,
            dirty: false,
            stats: FabricStats::default(),
            local_rate,
            sampling: None,
            tracer: std::sync::Arc::new(NullTracer),
            trace_on: false,
            scratch: RecomputeScratch::default(),
            scratch_footprint: 0,
            last_varys_footprint: 0,
            oracle: cfg!(debug_assertions),
            oracle_scratch: RecomputeScratch::default(),
            inc: IncState::new(nlinks),
        }
    }

    /// Routes `FlowStarted` / `FlowFinished` events into `tracer`. The
    /// default [`NullTracer`] keeps the untraced path free.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.trace_on = tracer.enabled();
        self.tracer = tracer;
    }

    /// Arms or disarms the shadow from-scratch oracle. When armed, every
    /// recompute is followed by a from-scratch solve of the *entire* alive
    /// flow set ([`RatePolicy::allocate_from_scratch`]), panicking if any
    /// flow's rate bits diverge from the incrementally maintained table.
    /// The oracle reads but never writes simulation state and keeps its own
    /// scratch, so toggling it cannot change results or statistics — only
    /// wall-clock time. Defaults to on in debug builds (so every test
    /// doubles as a tripwire) and off in release builds.
    pub fn set_full_oracle(&mut self, on: bool) {
        self.oracle = on;
    }

    /// Enables per-bucket sampling of cross-rack (core) traffic; see
    /// [`Fabric::core_utilization_series`].
    pub fn enable_utilization_sampling(&mut self, bucket: SimTime) {
        assert!(bucket.0 > 0.0, "bucket must be positive");
        self.sampling = Some((bucket.0, Vec::new()));
    }

    /// The sampled core-utilization time series: `(bucket_start_s,
    /// fraction_of_aggregate_uplink_capacity)`. Empty unless
    /// [`Fabric::enable_utilization_sampling`] was called.
    ///
    /// Bytes are accounted lazily — call [`Fabric::flush_accounting`]
    /// first when flows are still in flight.
    pub fn core_utilization_series(&self) -> Vec<(f64, f64)> {
        let Some((bucket, ref bytes)) = self.sampling else {
            return Vec::new();
        };
        let cfg = self.topo.config();
        let cap = cfg.rack_core_bandwidth().0 * cfg.racks as f64 * bucket;
        bytes
            .iter()
            .enumerate()
            .map(|(i, &b)| (i as f64 * bucket, b / cap))
            .collect()
    }

    /// The topology the fabric runs on.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current fabric clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic accounting so far.
    ///
    /// Byte movement is materialized lazily; mid-run (with flows still in
    /// flight) call [`Fabric::flush_accounting`] first to
    /// settle the counters up to [`Fabric::now`]. Counts of events
    /// (starts, completions, recomputes) are always current.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Settles all lazy byte accounting up to the current clock: every
    /// in-flight flow's transferred bytes are pushed into the link
    /// counters, [`FabricStats`], and the utilization sampler. A no-op on
    /// quiesced fabrics; safe to call at any point.
    pub fn flush_accounting(&mut self) {
        let now = self.now.0;
        for i in 0..self.active.len() {
            let id = self.active[i];
            if self.flows[id.index()].is_some() {
                self.materialize_flow(id.index(), now);
            }
        }
    }

    /// Time-averaged utilization (carried bytes / capacity·elapsed) of each
    /// link class, as fractions in [0, 1]: `(machine links, rack core
    /// links)`. Returns zeros before any time has passed.
    ///
    /// Bytes are accounted lazily — call [`Fabric::flush_accounting`]
    /// first when flows are still in flight.
    pub fn class_utilization(&self) -> (f64, f64) {
        let elapsed = self.now.as_secs();
        if elapsed <= 0.0 {
            return (0.0, 0.0);
        }
        let mut edge_carried = 0.0;
        let mut edge_cap = 0.0;
        let mut core_carried = 0.0;
        let mut core_cap = 0.0;
        for l in self.topo.links() {
            if l.class.is_core() {
                core_carried += l.carried.0;
                core_cap += l.capacity.0;
            } else {
                edge_carried += l.carried.0;
                edge_cap += l.capacity.0;
            }
        }
        (
            edge_carried / (edge_cap * elapsed),
            core_carried / (core_cap * elapsed),
        )
    }

    /// Bytes carried so far by one directed link (utilization drill-down).
    pub fn link_carried(&self, link: LinkId) -> Bytes {
        self.topo.links()[link.index()].carried
    }

    /// The active allocation policy's name.
    pub fn allocator_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Number of in-flight flows.
    pub fn active_flow_count(&self) -> usize {
        // `active` may still hold finished or cancelled flows (they are
        // purged lazily); count only live slots.
        self.active
            .iter()
            .filter(|id| self.flows[id.index()].is_some())
            .count()
    }

    /// Remaining bytes of a flow, or `None` if it already finished.
    pub fn flow_remaining(&self, id: FlowId) -> Option<Bytes> {
        self.flows.get(id.index()).and_then(|f| f.as_ref())?;
        // Virtual read: project the materialized remainder forward at the
        // flow's current rate (rates stay valid through `now`; dirt only
        // accrues at the current instant).
        let s = id.index();
        let dt = (self.now.0 - self.inc.epoch[s]).max(0.0);
        let moved = (self.inc.rate[s] * dt).min(self.inc.rem[s]);
        Some(Bytes((self.inc.rem[s] - moved).max(0.0)))
    }

    /// Starts an *ingress* flow: data arriving from outside the cluster
    /// (front-end upload feeds, a remote storage tier — §2 of the paper).
    /// The flow consumes only the destination-side links (the rack
    /// downlink and the destination NIC); the external source is assumed
    /// unconstrained. Ingress traffic is accounted separately
    /// ([`FabricStats::ingest_bytes`]) and does not count as cross-rack job
    /// traffic.
    pub fn start_ingress_flow(
        &mut self,
        dst: corral_model::MachineId,
        bytes: Bytes,
        tag: FlowTag,
        coflow: Option<crate::flow::CoflowId>,
    ) -> FlowId {
        let mut path = crate::topology::Path::new();
        path.push(self.topo.rack_down(self.topo.config().rack_of(dst)));
        path.push(self.topo.machine_down(dst));
        let id = FlowId(self.flows.len() as u64);
        self.flows.push(Some(FlowState {
            spec: FlowSpec {
                src: dst, // nominal; the source is external
                dst,
                bytes,
                tag,
                coflow,
            },
            path,
            cross_rack: false,
        }));
        self.active.push(id);
        self.stats.flows_started += 1;
        self.mark_dirty(probe::ProbeCounter::RecomputeFlowStart);
        self.register_started(id);
        if self.trace_on {
            self.tracer.record(
                self.now.as_secs(),
                TraceEvent::FlowStarted {
                    flow: id.0,
                    src: dst.0, // nominal: the external source has no id
                    dst: dst.0,
                    bytes: bytes.clamp_non_negative().0,
                    class: flow_class(tag.kind),
                    job: tag.job.map(|j| j.0),
                },
            );
        }
        id
    }

    /// Starts a flow; returns its id. Zero-byte flows are legal and complete
    /// at the next `advance_to` call.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        debug_assert!(spec.bytes.0 >= 0.0, "negative flow size");
        let path = self.topo.path(spec.src, spec.dst);
        let cross_rack = self.topo.crosses_core(spec.src, spec.dst);
        let id = FlowId(self.flows.len() as u64);
        self.flows.push(Some(FlowState {
            spec,
            path,
            cross_rack,
        }));
        self.active.push(id);
        self.stats.flows_started += 1;
        self.mark_dirty(probe::ProbeCounter::RecomputeFlowStart);
        self.register_started(id);
        if self.trace_on {
            self.tracer.record(
                self.now.as_secs(),
                TraceEvent::FlowStarted {
                    flow: id.0,
                    src: spec.src.0,
                    dst: spec.dst.0,
                    bytes: spec.bytes.clamp_non_negative().0,
                    class: flow_class(spec.tag.kind),
                    job: spec.tag.job.map(|j| j.0),
                },
            );
        }
        id
    }

    /// Cancels an in-flight flow (no completion is reported). Cancelling a
    /// flow that already finished is a no-op.
    ///
    /// Removal from the active list is deferred: the slot is emptied here
    /// and the id is dropped by the amortized purge (or the Varys
    /// recompute's CSR pass), so a batch of cancellations (e.g. speculation
    /// kills) costs one O(n) sweep instead of one O(n) `remove` each.
    pub fn cancel_flow(&mut self, id: FlowId) {
        let s = id.index();
        if !matches!(self.flows.get(s), Some(Some(_))) {
            return;
        }
        // Settle the bytes it moved so far, then drop it and seed the dirty
        // set with the links it frees.
        self.materialize_flow(s, self.now.0);
        let f = self.flows[s].take().expect("liveness checked above");
        self.retire(s, f.path.as_slice(), f.spec.coflow);
        self.mark_dirty(probe::ProbeCounter::RecomputeFlowCancel);
        self.maybe_purge_active();
    }

    /// Sets the background reservation on one directed link.
    pub fn set_background(&mut self, link: LinkId, bw: Bandwidth) {
        self.topo.links_mut()[link.index()].background = bw;
        self.inc.pending_links.push(link);
        // Varys: a capacity epoch invalidates every cached Γ and residual
        // on the allocator side.
        self.inc.caps_dirty = true;
        self.mark_dirty(probe::ProbeCounter::RecomputeBackground);
    }

    /// Sets the background reservation on both core links of `rack`.
    pub fn set_rack_background(&mut self, rack: RackId, bw: Bandwidth) {
        let up = self.topo.rack_up(rack);
        let down = self.topo.rack_down(rack);
        self.set_background(up, bw);
        self.set_background(down, bw);
    }

    /// Time of the next flow completion, if any flow will ever complete
    /// under current rates.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        if self.dirty {
            self.recompute();
        }
        let now = self.now;
        self.peek_fresh().map(|t| SimTime(t).max(now))
    }

    /// Advances the fabric clock to `t`, transferring bytes and collecting
    /// every flow that completes at or before `t` (in completion order).
    ///
    /// Convenience wrapper over [`Fabric::advance_collect`] that allocates
    /// a fresh `Vec` per call; hot loops should hold their own buffer and
    /// call `advance_collect` directly.
    ///
    /// # Panics
    /// Panics if `t` is earlier than the current fabric time.
    pub fn advance_to(&mut self, t: SimTime) -> Vec<CompletedFlow> {
        let mut completed = Vec::new();
        self.advance_collect(t, &mut completed);
        completed
    }

    /// Allocation-free variant of [`Fabric::advance_to`]: completions are
    /// *appended* to `out` (which is not cleared), so a caller-owned buffer
    /// can be reused across events.
    ///
    /// Each round recomputes the dirty rates, pops the next fresh
    /// completion deadline up to `t`, settles the completed flow's
    /// accounting, and marks its freed links dirty for the next round.
    ///
    /// # Panics
    /// Panics if `t` is earlier than the current fabric time.
    pub fn advance_collect(&mut self, t: SimTime, out: &mut Vec<CompletedFlow>) {
        assert!(
            t.0 >= self.now.0 - 1e-9,
            "fabric cannot move backwards: {} < {}",
            t,
            self.now
        );
        let t = t.max(self.now);
        loop {
            if self.dirty {
                self.recompute();
            }
            match self.peek_fresh() {
                Some(tc) if tc <= t.0 => {
                    let (time, (slot, _gen)) = self.inc.queue.pop().expect("peeked entry");
                    let tc = SimTime(time).max(self.now);
                    self.now = tc;
                    self.complete(slot as usize, tc, out);
                    // Varys: drain the *exact*-equal-time batch before
                    // recomputing. Every such entry's remaining hits zero
                    // at `time` under the current rates, so completing them
                    // together is byte-identical to interleaving recomputes
                    // (which would re-queue each at the same instant) —
                    // and it saves one full MADD replay per same-time
                    // completion.
                    if self.policy == RatePolicy::Varys {
                        while self.peek_fresh() == Some(time) {
                            let (_, (s2, _g2)) = self.inc.queue.pop().expect("peeked entry");
                            self.complete(s2 as usize, tc, out);
                        }
                    }
                }
                _ => {
                    self.now = t;
                    return;
                }
            }
        }
    }

    /// Runs the fabric until every active flow with a positive rate has
    /// completed; returns all completions. Flows pinned at rate zero (fully
    /// backgrounded links) are left in place.
    pub fn drain(&mut self) -> Vec<CompletedFlow> {
        let mut out = Vec::new();
        self.drain_collect(&mut out);
        out
    }

    /// Allocation-free variant of [`Fabric::drain`]: completions are
    /// appended to `out`.
    pub fn drain_collect(&mut self, out: &mut Vec<CompletedFlow>) {
        while let Some(tc) = self.next_completion() {
            self.advance_collect(tc, out);
        }
    }

    /// Runs the shadow oracle now: a from-scratch solve of the entire
    /// alive flow set, asserting bit-equality with the incrementally
    /// maintained rate table (panicking on divergence). Recomputes first if
    /// the fabric is dirty; reads but never writes simulation state or
    /// statistics.
    pub fn recompute_full(&mut self) {
        if self.dirty {
            self.recompute();
        }
        self.oracle_check();
    }

    /// Dispatches to the recompute path of the fabric's policy.
    #[inline]
    fn recompute(&mut self) {
        match self.policy {
            RatePolicy::FairShare => self.recompute_fair(),
            RatePolicy::Varys => self.recompute_varys(),
        }
    }

    /// Emits one completion: empties the flow's slot, traces, accounts, and
    /// appends to `out`. The caller removes the id from `active`.
    fn emit_completion(&mut self, id: FlowId, now: SimTime, out: &mut Vec<CompletedFlow>) {
        let f = self.flows[id.index()].take().unwrap();
        self.stats.flows_completed += 1;
        if self.trace_on {
            self.tracer.record(
                now.as_secs(),
                TraceEvent::FlowFinished {
                    flow: id.0,
                    bytes: f.spec.bytes.clamp_non_negative().0,
                },
            );
        }
        out.push(CompletedFlow {
            id,
            tag: f.spec.tag,
            bytes: f.spec.bytes,
            finished: now,
        });
    }

    /// Marks the rate table stale, attributing the *first* cause since
    /// the last recompute to a probe counter (observability only; with
    /// probes disabled this is exactly `self.dirty = true`).
    #[inline]
    fn mark_dirty(&mut self, cause: probe::ProbeCounter) {
        if !self.dirty {
            probe::count(cause, 1);
        }
        self.dirty = true;
    }

    // -- incremental internals -----------------------------------------------

    /// Registers a just-started flow with the incremental state: local
    /// flows get their (constant) rate and deadline immediately; network
    /// flows join the pending set and dirty their endpoint links so the
    /// next recompute folds them in.
    fn register_started(&mut self, id: FlowId) {
        let s = id.index();
        let now = self.now.0;
        let f = self.flows[s].as_ref().unwrap();
        let rem = f.spec.bytes.clamp_non_negative().0;
        let local = f.path.is_empty();
        let path = f.path;
        let inc = &mut self.inc;
        debug_assert_eq!(inc.rate.len(), s, "flow slots must register in order");
        inc.epoch.push(now);
        inc.rem.push(rem);
        inc.gen.push(0);
        inc.comp_of.push(NO_COMP);
        if local {
            let rate = self.local_rate.0;
            let d = deadline_for(now, rem, rate);
            inc.rate.push(rate);
            inc.deadline.push(d);
            if d.is_finite() {
                inc.queue.push(d, (s as u32, 0));
            }
        } else {
            inc.rate.push(0.0);
            inc.deadline.push(f64::INFINITY);
            inc.pending_new.push(s as u32);
            for &l in path.as_slice() {
                inc.pending_links.push(l);
            }
        }
    }

    /// Settles one flow's lazy byte accounting up to `up_to`: moves
    /// `rate · (up_to − epoch)` bytes (clamped to the remainder) into the
    /// link counters, [`FabricStats`], and the utilization sampler, then
    /// advances the flow's epoch.
    fn materialize_flow(&mut self, slot: usize, up_to: f64) {
        let epoch = self.inc.epoch[slot];
        let dt = up_to - epoch;
        if dt <= 0.0 {
            return;
        }
        self.inc.epoch[slot] = up_to;
        let rate = self.inc.rate[slot];
        let rem = self.inc.rem[slot];
        let delta = (rate * dt).min(rem);
        if delta <= 0.0 {
            return;
        }
        let new_rem = (rem - delta).max(0.0);
        self.inc.rem[slot] = new_rem;
        let (path, cross, job, ingest, local) = {
            let f = self.flows[slot]
                .as_ref()
                .expect("materialized flows are alive");
            (
                f.path,
                f.cross_rack,
                f.spec.tag.job,
                f.spec.tag.kind == FlowKind::Ingest,
                f.path.is_empty(),
            )
        };
        let delta = Bytes(delta);
        for l in path.as_slice() {
            self.topo.links_mut()[l.index()].carried += delta;
        }
        if ingest {
            self.stats.record_ingest(delta);
        } else {
            self.stats.record_transfer(job, delta, cross, local);
        }
        if cross && !ingest {
            if let Some((bucket, ref mut series)) = self.sampling {
                // Spread the transferred bytes across every bucket the
                // interval [epoch, up_to) overlaps.
                let t0 = epoch;
                let t1 = up_to;
                let span = t1 - t0;
                let first = (t0 / bucket) as usize;
                let last = (t1 / bucket) as usize;
                if series.len() <= last {
                    series.resize(last + 1, 0.0);
                }
                for (b, cell) in series.iter_mut().enumerate().take(last + 1).skip(first) {
                    let lo = (b as f64 * bucket).max(t0);
                    let hi = ((b + 1) as f64 * bucket).min(t1);
                    if hi > lo {
                        *cell += delta.0 * (hi - lo) / span;
                    }
                }
            }
        }
    }

    /// Skims stale calendar entries (dead slot or superseded generation)
    /// off the top of the completion queue and returns the next *fresh*
    /// deadline, leaving its entry queued.
    fn peek_fresh(&mut self) -> Option<f64> {
        loop {
            let (t, slot, gen) = {
                let (t, &(slot, gen)) = self.inc.queue.peek()?;
                (t, slot as usize, gen)
            };
            if self.flows[slot].is_some() && self.inc.gen[slot] == gen {
                return Some(t);
            }
            self.inc.queue.pop();
        }
    }

    /// Amortized compaction of the active list: once dead slots dominate,
    /// one `retain` pass drops them all.
    fn maybe_purge_active(&mut self) {
        if self.inc.dead > 64 && self.inc.dead * 2 > self.active.len() {
            let flows = &self.flows;
            self.active.retain(|id| flows[id.index()].is_some());
            self.inc.dead = 0;
        }
    }

    /// Drops a finished or cancelled flow from the incremental state: bumps
    /// its generation (staling its calendar entry), counts it dead, seeds
    /// the dirty set with the links it frees, and logs a Varys departure.
    fn retire(&mut self, s: usize, path: &[LinkId], coflow: Option<CoflowId>) {
        let inc = &mut self.inc;
        if self.policy == RatePolicy::Varys && !path.is_empty() {
            inc.pending_departed
                .push((stable_coflow_key(coflow, s), s as u32));
        }
        inc.gen[s] = inc.gen[s].wrapping_add(1);
        inc.dead += 1;
        inc.pending_links.extend_from_slice(path);
    }

    /// Completes one calendar-popped flow at `tc`: settles its lazy byte
    /// accounting over `[epoch, deadline)` (the solved deadline is exact,
    /// so the flow completes here unconditionally — the sub-byte residual
    /// closed-form arithmetic may leave is dropped), records its departure,
    /// dirties its freed links, and emits the completion.
    fn complete(&mut self, s: usize, tc: SimTime, out: &mut Vec<CompletedFlow>) {
        self.materialize_flow(s, tc.0);
        let f = self.flows[s].as_ref().expect("calendar entries are fresh");
        let (path, coflow) = (f.path, f.spec.coflow);
        self.retire(s, path.as_slice(), coflow);
        self.emit_completion(FlowId(s as u64), tc, out);
        self.stats.debug_validate();
        self.mark_dirty(probe::ProbeCounter::RecomputeCompletion);
        self.maybe_purge_active();
    }

    /// Fair-sharing rate maintenance: dissolve only the components owning
    /// a dirtied link, re-solve the affected flows on canonical compacted
    /// subproblems, and splice rates + deadlines back. Every other flow's
    /// rate, deadline, and queued calendar entry stay untouched.
    fn recompute_fair(&mut self) {
        let _probe = probe::span(probe::SpanKind::FabricRecompute);
        self.dirty = false;
        self.stats.recomputes += 1;
        self.stats.recomputes_incremental += 1;

        let now = self.now.0;

        // Phase 1: dissolve every component touching a pending link; its
        // alive members plus the pending new flows form the candidate set.
        // Components are disjoint and new flows are component-less, so no
        // dedup is needed; the final sort restores ascending-slot order.
        {
            let flows = &self.flows;
            let inc = &mut self.inc;
            inc.round += 1;
            let round = inc.round;
            inc.cand.clear();
            for pi in 0..inc.pending_links.len() {
                let l = inc.pending_links[pi];
                let c = inc.link_comp[l.index()];
                if c == NO_COMP {
                    continue;
                }
                let c = c as usize;
                if inc.comp_stamp[c] == round {
                    continue;
                }
                inc.comp_stamp[c] = round;
                let mut members = std::mem::take(&mut inc.comp_flows[c]);
                for &s in &members {
                    if flows[s as usize].is_some() {
                        inc.cand.push(s);
                    }
                }
                members.clear();
                inc.comp_flows[c] = members;
                inc.free_comps.push(c as u32);
            }
            for pi in 0..inc.pending_new.len() {
                let s = inc.pending_new[pi];
                if flows[s as usize].is_some() {
                    inc.cand.push(s);
                }
            }
            inc.pending_new.clear();
            inc.cand.sort_unstable();
        }

        // Phase 2: settle every candidate's lazy accounting at `now`, so
        // the upcoming rate change applies from a clean epoch.
        for ci in 0..self.inc.cand.len() {
            let s = self.inc.cand[ci] as usize;
            self.materialize_flow(s, now);
        }

        // Phase 3: clear link ownership across the dissolved region. Dead
        // members' links always ride in `pending_links` (pushed at their
        // completion/cancellation), so candidate paths ∪ pending links
        // covers every link of every dissolved component.
        {
            let flows = &self.flows;
            let inc = &mut self.inc;
            for pi in 0..inc.pending_links.len() {
                let l = inc.pending_links[pi];
                inc.link_comp[l.index()] = NO_COMP;
            }
            inc.pending_links.clear();
            for ci in 0..inc.cand.len() {
                let s = inc.cand[ci] as usize;
                let f = flows[s].as_ref().unwrap();
                for &l in f.path.as_slice() {
                    inc.link_comp[l.index()] = NO_COMP;
                }
            }
        }

        // Phase 4 + 5: union-find the candidates through shared links
        // (union by min root ⇒ canonical representatives), then form the
        // new components in ascending-min-member order with members
        // ascending inside each.
        {
            let flows = &self.flows;
            let inc = &mut self.inc;
            inc.round += 1;
            let round = inc.round;
            let n = inc.cand.len();
            inc.uf.clear();
            inc.uf.extend(0..n as u32);
            for i in 0..n {
                let s = inc.cand[i] as usize;
                let f = flows[s].as_ref().unwrap();
                for &l in f.path.as_slice() {
                    let li = l.index();
                    if inc.link_stamp[li] != round {
                        inc.link_stamp[li] = round;
                        inc.link_first[li] = i as u32;
                    } else {
                        let j = inc.link_first[li];
                        union(&mut inc.uf, i as u32, j);
                    }
                }
            }
            inc.root_comp.clear();
            inc.root_comp.resize(n, NO_COMP);
            inc.new_comps.clear();
            for i in 0..n {
                let r = find(&mut inc.uf, i as u32) as usize;
                let mut c = inc.root_comp[r];
                if c == NO_COMP {
                    c = inc.alloc_comp();
                    inc.root_comp[r] = c;
                    inc.new_comps.push(c);
                }
                let s = inc.cand[i];
                inc.comp_flows[c as usize].push(s);
                inc.comp_of[s as usize] = c;
            }
        }

        // Phase 6: solve each new component on its canonical compacted
        // subproblem (links deduped + sorted ascending, compact ids by
        // rank, members ascending) and splice rates, deadlines, and fresh
        // calendar entries back.
        let mut rounds_total: u64 = 0;
        let dirtied = self.inc.cand.len() as u64;
        {
            let _mm = probe::span(probe::SpanKind::FabricMaxMin);
            let flows = &self.flows;
            let topo = &self.topo;
            let maxmin_ws = &mut self.scratch.alloc.maxmin;
            let inc = &mut self.inc;
            for nci in 0..inc.new_comps.len() {
                let c = inc.new_comps[nci] as usize;
                inc.round += 1;
                let round = inc.round;
                inc.comp_links.clear();
                for mi in 0..inc.comp_flows[c].len() {
                    let s = inc.comp_flows[c][mi] as usize;
                    let f = flows[s].as_ref().unwrap();
                    for &l in f.path.as_slice() {
                        let li = l.index();
                        if inc.link_stamp[li] != round {
                            inc.link_stamp[li] = round;
                            inc.comp_links.push(l);
                        }
                    }
                }
                inc.comp_links.sort_unstable_by_key(|l| l.index());
                inc.sub_caps.clear();
                for j in 0..inc.comp_links.len() {
                    let l = inc.comp_links[j];
                    inc.link_local[l.index()] = j as u32;
                    inc.link_comp[l.index()] = c as u32;
                    inc.sub_caps
                        .push(topo.links()[l.index()].effective_capacity().0);
                }
                inc.sub_off.clear();
                inc.sub_links.clear();
                inc.sub_off.push(0);
                let nmem = inc.comp_flows[c].len();
                for mi in 0..nmem {
                    let s = inc.comp_flows[c][mi] as usize;
                    let f = flows[s].as_ref().unwrap();
                    for &l in f.path.as_slice() {
                        inc.sub_links.push(LinkId(inc.link_local[l.index()]));
                    }
                    inc.sub_off.push(inc.sub_links.len() as u32);
                }
                inc.sub_rates.clear();
                inc.sub_rates.resize(nmem, 0.0);
                maxmin::max_min_rates_csr(
                    &inc.sub_caps,
                    &inc.sub_off,
                    &inc.sub_links,
                    &mut inc.sub_rates,
                    maxmin_ws,
                );
                rounds_total += maxmin_ws.last_rounds();
                for mi in 0..nmem {
                    let s = inc.comp_flows[c][mi] as usize;
                    let rate = inc.sub_rates[mi];
                    inc.rate[s] = rate;
                    // Epoch is `now` from phase 2's materialization.
                    let d = deadline_for(now, inc.rem[s], rate);
                    inc.deadline[s] = d;
                    inc.gen[s] = inc.gen[s].wrapping_add(1);
                    if d.is_finite() {
                        inc.queue.push(d, (s as u32, inc.gen[s]));
                    }
                }
            }
        }
        self.stats.maxmin_rounds += rounds_total;
        probe::count(probe::ProbeCounter::MaxMinRounds, rounds_total);
        self.stats.dirty_flows += dirtied;
        probe::count(probe::ProbeCounter::FabricDirtyFlowsSum, dirtied);
        probe::count(probe::ProbeCounter::FabricDirtyFlowsSamples, 1);
        let footprint = self.inc.footprint() + self.scratch.alloc.footprint();
        if footprint != self.scratch_footprint {
            self.scratch_footprint = footprint;
            self.stats.scratch_grows += 1;
        }
        // Calendar hygiene: once stale entries dominate the live flows,
        // vacuum them in one deterministic pass.
        let alive = self.active.len().saturating_sub(self.inc.dead);
        if self.inc.queue.len() > 4 * alive + 1024 {
            let IncState {
                queue, gen: gens, ..
            } = &mut self.inc;
            let flows = &self.flows;
            queue.retain(|&(s, g)| flows[s as usize].is_some() && gens[s as usize] == g);
        }
        if self.oracle {
            self.oracle_check();
        }
    }

    /// Varys rate maintenance: rebuild the CSR over the alive network
    /// flows (O(alive) — cheap next to the O(alive·links) *solve* a full
    /// pass costs), hand the allocator the event delta, and splice back
    /// exactly the rates whose bits changed. Unchanged flows keep their rate, deadline, queued calendar entry, and lazy
    /// byte accounting epoch.
    ///
    /// The CSR's `remaining` column carries the *frozen-at-admission*
    /// scheduling bytes (`spec.bytes`), not the live remainder: SEBF here
    /// is clairvoyant (the Varys paper's setting — coflow sizes are known
    /// up front), which is precisely what makes the priority order a pure
    /// function of the alive set rather than of elapsed time. True byte
    /// accounting stays lazy in `inc.rem`/`inc.epoch`; completions are
    /// exact because deadlines are computed from the true remainder.
    fn recompute_varys(&mut self) {
        let _probe = probe::span(probe::SpanKind::FabricRecompute);
        self.dirty = false;
        self.stats.recomputes += 1;
        let now = self.now.0;

        // CSR build over `active`, purging dead slots in the same retain
        // pass. The `row_of` map is reset sparsely through the previous
        // table's `slots` so maintenance never touches retired slots.
        {
            let flows = &self.flows;
            let scratch = &mut self.scratch;
            let inc = &mut self.inc;
            for &s in &scratch.slots {
                inc.row_of[s as usize] = u32::MAX;
            }
            inc.row_of.resize(flows.len(), u32::MAX);
            scratch.clear();
            self.active.retain(|&id| {
                let Some(f) = flows[id.index()].as_ref() else {
                    return false;
                };
                if !f.path.is_empty() {
                    let s = id.index();
                    inc.row_of[s] = scratch.slots.len() as u32;
                    scratch.push_row(s, f);
                }
                true
            });
            inc.dead = 0;
            // Keep the departure log sized to the row high-water mark so
            // the first completions after a growth spurt don't allocate.
            let add = scratch
                .slots
                .len()
                .saturating_sub(inc.pending_departed.len());
            inc.pending_departed.reserve(add);
            // Admissions since the last recompute, dead-filtered.
            // `pending_new` holds network flows in start (= ascending
            // slot) order, which is the order `added` promises.
            inc.added.clear();
            for pi in 0..inc.pending_new.len() {
                let s = inc.pending_new[pi] as usize;
                if let Some(f) = flows[s].as_ref() {
                    inc.added
                        .push((stable_coflow_key(f.spec.coflow, s), s as u32));
                }
            }
            inc.pending_new.clear();
        }

        // Solve: the allocator sees the full table plus the delta and
        // decides whether the event admits a coflow-local pass.
        let nrows = self.scratch.slots.len();
        let outcome = {
            let _mm = probe::span(probe::SpanKind::FabricMaxMin);
            self.scratch.rates.clear();
            self.scratch.rates.resize(nrows, 0.0);
            let (table, slots, rates, alloc) = self.scratch.split();
            let inc = &self.inc;
            let ctx = DirtyCtx {
                slots,
                row_of: &inc.row_of,
                added: &inc.added,
                departed: &inc.pending_departed,
                dirty_links: &inc.pending_links,
                caps_changed: inc.caps_dirty,
            };
            varys::allocate_dirty(self.topo.links(), &table, rates, alloc, &ctx)
        };
        self.inc.pending_departed.clear();
        self.inc.pending_links.clear();
        self.inc.caps_dirty = false;
        let (rounds, dirtied) = match outcome {
            DirtyOutcome::Full { rounds } => {
                self.stats.recomputes_full += 1;
                (rounds, nrows as u64)
            }
            DirtyOutcome::Incremental {
                dirty_flows,
                rounds,
            } => {
                self.stats.recomputes_incremental += 1;
                (rounds, dirty_flows)
            }
        };
        self.stats.maxmin_rounds += rounds;
        probe::count(probe::ProbeCounter::MaxMinRounds, rounds);
        self.stats.dirty_flows += dirtied;
        probe::count(probe::ProbeCounter::FabricDirtyFlowsSum, dirtied);
        probe::count(probe::ProbeCounter::FabricDirtyFlowsSamples, 1);

        // Splice: settle accounting and refresh deadline + calendar entry
        // for exactly the flows whose rate bits moved.
        for row in 0..nrows {
            let s = self.scratch.slots[row] as usize;
            let rate = self.scratch.rates[row];
            if rate.to_bits() == self.inc.rate[s].to_bits() {
                continue;
            }
            self.materialize_flow(s, now);
            let inc = &mut self.inc;
            inc.rate[s] = rate;
            let d = deadline_for(now, inc.rem[s], rate);
            inc.deadline[s] = d;
            inc.gen[s] = inc.gen[s].wrapping_add(1);
            if d.is_finite() {
                inc.queue.push(d, (s as u32, inc.gen[s]));
            }
        }
        // New flows whose solved rate equals the registration default
        // (0.0) never hit the splice above; zero-byte ones still complete
        // *now*, so force their deadline in.
        for ai in 0..self.inc.added.len() {
            let s = self.inc.added[ai].1 as usize;
            let inc = &mut self.inc;
            if inc.deadline[s].is_infinite() {
                let d = deadline_for(now, inc.rem[s], inc.rate[s]);
                if d.is_finite() {
                    inc.deadline[s] = d;
                    inc.gen[s] = inc.gen[s].wrapping_add(1);
                    inc.queue.push(d, (s as u32, inc.gen[s]));
                }
            }
        }

        // Footprint + gauges, mirroring the fair path's bookkeeping.
        let footprint = self.inc.footprint() + self.scratch.footprint();
        if footprint != self.scratch_footprint {
            self.scratch_footprint = footprint;
            self.stats.scratch_grows += 1;
        }
        let alloc = &self.scratch.alloc;
        let varys_fp = alloc.varys.footprint() + alloc.comp.footprint();
        if varys_fp > self.last_varys_footprint {
            probe::count(
                probe::ProbeCounter::VarysScratchElems,
                (varys_fp - self.last_varys_footprint) as u64,
            );
            self.last_varys_footprint = varys_fp;
        }
        // Calendar hygiene: once stale entries dominate the live flows,
        // vacuum them in one deterministic pass.
        let alive = self.active.len();
        if self.inc.queue.len() > 4 * alive + 1024 {
            let IncState {
                queue, gen: gens, ..
            } = &mut self.inc;
            let flows = &self.flows;
            queue.retain(|&(s, g)| flows[s as usize].is_some() && gens[s as usize] == g);
        }
        if self.oracle {
            self.oracle_check();
        }
    }

    /// The shadow oracle: rebuilds the CSR of the alive network flows in
    /// its own scratch (no `active` purge, no `dead` reset), re-solves it
    /// through [`RatePolicy::allocate_from_scratch`], and asserts per-flow
    /// rate bits match the incrementally maintained table. Reads but never
    /// writes simulation state, stats, or the live allocator cache, so
    /// arming it cannot change any observable result.
    fn oracle_check(&mut self) {
        debug_assert!(!self.dirty, "oracle ran on a dirty fabric");
        let orc = &mut self.oracle_scratch;
        orc.clear();
        for id in &self.active {
            if let Some(f) = self.flows[id.index()].as_ref() {
                if !f.path.is_empty() {
                    orc.push_row(id.index(), f);
                }
            }
        }
        orc.rates.clear();
        orc.rates.resize(orc.slots.len(), 0.0);
        let (table, slots, rates, alloc) = orc.split();
        self.policy
            .allocate_from_scratch(self.topo.links(), &table, rates, alloc);
        for (&s, &want) in slots.iter().zip(rates.iter()) {
            let got = self.inc.rate[s as usize];
            assert!(
                got.to_bits() == want.to_bits(),
                "{} incremental/from-scratch rate divergence on flow {s}: \
                 incremental {got} ({:#x}) vs from-scratch {want} ({:#x})",
                self.policy.name(),
                got.to_bits(),
                want.to_bits()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowKind, FlowTag};
    use corral_model::MachineId;

    fn fabric() -> Fabric {
        // tiny_test: 3 racks x 4 machines, 10G NICs, 4:1 oversub
        // => rack core links 10 Gbps (= 1.25 GB/s).
        Fabric::new(ClusterConfig::tiny_test(), RatePolicy::FairShare)
    }

    fn spec(src: u32, dst: u32, gb: f64) -> FlowSpec {
        FlowSpec {
            src: MachineId(src),
            dst: MachineId(dst),
            bytes: Bytes::gb(gb),
            tag: FlowTag::infrastructure(FlowKind::Shuffle),
            coflow: None,
        }
    }

    #[test]
    fn single_intra_rack_flow_runs_at_nic_speed() {
        let mut f = fabric();
        f.start_flow(spec(0, 1, 1.25)); // 1.25 GB over 1.25 GB/s = 1 s
        let done = f.advance_to(SimTime::secs(10.0));
        assert_eq!(done.len(), 1);
        assert!((done[0].finished.as_secs() - 1.0).abs() < 1e-6);
        assert_eq!(f.active_flow_count(), 0);
    }

    #[test]
    fn two_flows_share_a_nic() {
        let mut f = fabric();
        // Both flows leave machine 0: share its 1.25 GB/s uplink.
        f.start_flow(spec(0, 1, 1.25));
        f.start_flow(spec(0, 2, 1.25));
        let done = f.advance_to(SimTime::secs(10.0));
        assert_eq!(done.len(), 2);
        assert!((done[0].finished.as_secs() - 2.0).abs() < 1e-6);
        assert!((done[1].finished.as_secs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cross_rack_flows_bottleneck_on_rack_uplink() {
        let mut f = fabric();
        // 4 flows from 4 distinct machines in rack 0 to 4 machines in rack 1.
        // Each NIC could do 1.25 GB/s but the rack uplink is 1.25 GB/s total
        // => each flow gets 0.3125 GB/s.
        for i in 0..4 {
            f.start_flow(spec(i, 4 + i, 0.3125));
        }
        let done = f.advance_to(SimTime::secs(10.0));
        assert_eq!(done.len(), 4);
        for c in &done {
            assert!((c.finished.as_secs() - 1.0).abs() < 1e-6);
        }
        // All bytes crossed the core.
        assert!((f.stats().cross_rack_bytes.as_gb() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn completion_frees_bandwidth_for_remaining_flows() {
        let mut f = fabric();
        // Two flows share machine 0's NIC; the short one finishes, then the
        // long one speeds up. 1.25+2.5 GB total on a 1.25 GB/s link:
        // short: 1.25 GB at 0.625 => 2 s. long: 1.25 GB by t=2 (0.625 rate),
        // remaining 1.25 GB at full 1.25 GB/s => done at t=3.
        f.start_flow(spec(0, 1, 1.25));
        f.start_flow(spec(0, 2, 2.5));
        let done = f.advance_to(SimTime::secs(10.0));
        assert_eq!(done.len(), 2);
        assert!((done[0].finished.as_secs() - 2.0).abs() < 1e-6);
        assert!((done[1].finished.as_secs() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn background_reduces_core_capacity() {
        let mut f = fabric();
        // Reserve 50% of rack 0's uplink.
        f.set_rack_background(RackId(0), Bandwidth::gbps(5.0));
        f.start_flow(spec(0, 4, 0.625)); // cross-rack, 0.625 GB
        let done = f.advance_to(SimTime::secs(10.0));
        // 5 Gbps left = 0.625 GB/s => 1 s.
        assert!((done[0].finished.as_secs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn machine_local_flow_completes_fast_and_counts_local() {
        let mut f = fabric();
        f.start_flow(spec(3, 3, 2.5)); // local: 2x NIC = 2.5 GB/s => 1 s
        let done = f.advance_to(SimTime::secs(5.0));
        assert_eq!(done.len(), 1);
        assert!((done[0].finished.as_secs() - 1.0).abs() < 1e-6);
        assert_eq!(f.stats().network_bytes, Bytes::ZERO);
        assert!((f.stats().local_bytes.as_gb() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut f = fabric();
        f.start_flow(spec(0, 1, 0.0));
        let done = f.advance_to(SimTime::secs(0.0));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished, SimTime::ZERO);
    }

    #[test]
    fn cancel_removes_flow_and_frees_bandwidth() {
        let mut f = fabric();
        let a = f.start_flow(spec(0, 1, 1.25));
        f.start_flow(spec(0, 2, 1.25));
        // Let them run 1 s at 0.625 GB/s each.
        let done = f.advance_to(SimTime::secs(1.0));
        assert!(done.is_empty());
        f.cancel_flow(a);
        // Flow b has 0.625 GB left, now at full rate: 0.5 s more.
        let done = f.advance_to(SimTime::secs(10.0));
        assert_eq!(done.len(), 1);
        assert!((done[0].finished.as_secs() - 1.5).abs() < 1e-6);
        // Cancelling again (or a finished flow) is a no-op.
        f.cancel_flow(a);
    }

    #[test]
    fn drain_finishes_everything() {
        let mut f = fabric();
        for i in 0..3 {
            f.start_flow(spec(i, i + 4, 1.0));
        }
        let done = f.drain();
        assert_eq!(done.len(), 3);
        assert_eq!(f.active_flow_count(), 0);
        assert!(f.next_completion().is_none());
    }

    #[test]
    fn partial_advance_preserves_bytes() {
        let mut f = fabric();
        let id = f.start_flow(spec(0, 1, 1.25));
        f.advance_to(SimTime::secs(0.5));
        let rem = f.flow_remaining(id).unwrap();
        assert!((rem.as_gb() - 0.625).abs() < 1e-6);
    }

    #[test]
    fn class_utilization_tracks_core_usage() {
        let mut f = fabric();
        assert_eq!(f.class_utilization(), (0.0, 0.0));
        // One cross-rack flow at full rack-uplink speed for 1 s.
        f.start_flow(spec(0, 4, 1.25)); // rack uplink is 1.25 GB/s
        f.drain();
        let (edge, core) = f.class_utilization();
        assert!(core > 0.0 && core <= 1.0, "core={core}");
        assert!(
            edge > 0.0 && edge < core,
            "one of many NICs used: {edge} vs {core}"
        );
        // Drill-down: the uplink of rack 0 carried all 1.25 GB.
        let up = f.topology().rack_up(RackId(0));
        assert!((f.link_carried(up).as_gb() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn utilization_sampling_buckets_core_traffic() {
        let mut f = fabric();
        f.enable_utilization_sampling(SimTime::secs(0.5));
        // One cross-rack flow saturating the 1.25 GB/s uplink for 1 s,
        // then nothing.
        f.start_flow(spec(0, 4, 1.25));
        f.advance_to(SimTime::secs(2.0));
        let series = f.core_utilization_series();
        assert!(series.len() >= 2);
        // Total capacity = 3 racks x 1.25 GB/s; one uplink saturated
        // => 1/3 utilization during the first two buckets.
        assert!((series[0].1 - 1.0 / 3.0).abs() < 0.02, "{series:?}");
        assert!((series[1].1 - 1.0 / 3.0).abs() < 0.02);
        // Intra-rack traffic does not count.
        let mut g = fabric();
        g.enable_utilization_sampling(SimTime::secs(0.5));
        g.start_flow(spec(0, 1, 1.25));
        g.drain();
        assert!(g.core_utilization_series().iter().all(|&(_, u)| u == 0.0));
    }

    #[test]
    fn deterministic_repeat() {
        let run = || {
            let mut f = fabric();
            for i in 0..6 {
                f.start_flow(spec(i % 4, 4 + (i % 8), 0.7 + i as f64 * 0.13));
            }
            f.drain()
                .into_iter()
                .map(|c| (c.id, c.finished.0.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "bit-identical completion traces");
    }

    #[test]
    fn tracer_sees_flow_lifecycle() {
        use corral_trace::{MemTracer, TraceEvent};
        use std::sync::Arc;

        let mem = Arc::new(MemTracer::new(64));
        let mut f = fabric();
        f.set_tracer(mem.clone());
        f.start_flow(spec(0, 1, 0.5));
        f.start_ingress_flow(
            MachineId(2),
            Bytes::gb(0.25),
            FlowTag::infrastructure(FlowKind::Ingest),
            None,
        );
        f.drain();

        let evs = mem.events();
        let started: Vec<_> = evs
            .iter()
            .filter_map(|e| match &e.ev {
                TraceEvent::FlowStarted { class, .. } => Some(*class),
                _ => None,
            })
            .collect();
        let finished = evs
            .iter()
            .filter(|e| matches!(e.ev, TraceEvent::FlowFinished { .. }))
            .count();
        assert_eq!(
            started,
            vec![
                corral_trace::FlowClass::Shuffle,
                corral_trace::FlowClass::Ingest
            ]
        );
        assert_eq!(finished, 2);
    }

    #[test]
    fn stats_invariants_hold_with_cancellation() {
        let mut f = fabric();
        let a = f.start_flow(spec(0, 1, 0.5));
        f.start_flow(spec(0, 2, 0.5));
        f.advance_to(SimTime::secs(0.1));
        f.cancel_flow(a); // cancelled flows never complete
        f.drain(); // runs debug_validate internally on each harvest
        let s = f.stats();
        assert_eq!(s.flows_started, 2);
        assert_eq!(s.flows_completed, 1);
        assert!(s.flows_completed <= s.flows_started);
        assert!(s.cross_rack_bytes.0 <= s.network_bytes.0 + 1e-6);
        assert!(s.network_bytes.0 >= 0.0 && s.local_bytes.0 >= 0.0);
    }

    #[test]
    fn incremental_path_drives_fair_share() {
        let mut f = fabric();
        for i in 0..4 {
            f.start_flow(spec(i, 4 + i, 0.5));
        }
        f.drain();
        let s = f.stats();
        assert!(s.recomputes_incremental > 0, "{s:?}");
        assert_eq!(s.recomputes_full, 0, "{s:?}");
        assert_eq!(s.recomputes, s.recomputes_incremental, "{s:?}");
        assert!(s.dirty_flows > 0, "{s:?}");
    }

    #[test]
    fn varys_drives_the_coflow_incremental_path() {
        let mut f = Fabric::new(ClusterConfig::tiny_test(), RatePolicy::Varys);
        for i in 0..3 {
            f.start_flow(spec(i, 4 + i, 0.4));
        }
        f.recompute_full(); // armed mid-run oracle pass
        f.drain();
        let s = f.stats();
        // First recompute is a cold-cache full; completions then ride the
        // coflow-local path.
        assert!(s.recomputes_full >= 1, "{s:?}");
        assert!(s.recomputes_incremental > 0, "{s:?}");
        assert_eq!(
            s.recomputes,
            s.recomputes_full + s.recomputes_incremental,
            "{s:?}"
        );
        assert_eq!(s.flows_completed, 3, "{s:?}");
    }

    #[test]
    fn varys_background_change_forces_boundary_full() {
        let mut f = Fabric::new(ClusterConfig::tiny_test(), RatePolicy::Varys);
        for i in 0..4 {
            f.start_flow(spec(i, 4 + i, 0.6));
        }
        f.advance_to(SimTime::secs(0.1));
        let before = f.stats().recomputes_full;
        f.set_rack_background(RackId(0), Bandwidth::gbps(4.0));
        f.drain();
        assert!(f.stats().recomputes_full > before, "{:?}", f.stats());
    }

    #[test]
    fn varys_incremental_scratch_settles() {
        let mut f = Fabric::new(ClusterConfig::tiny_test(), RatePolicy::Varys);
        // All flows admitted up front: the first (cold-cache) recompute
        // sizes every buffer; the completion churn that follows must not
        // allocate again.
        for i in 0..24 {
            let mut sp = spec(i % 4, 4 + (i % 8), 0.2 + 0.01 * i as f64);
            sp.coflow = Some(crate::flow::CoflowId((i % 4) as u64));
            f.start_flow(sp);
        }
        f.drain();
        let s = f.stats();
        assert!(s.recomputes_incremental > 0, "{s:?}");
        assert_eq!(s.scratch_grows, 1, "steady state must not allocate: {s:?}");
        assert_eq!(s.flows_completed, 24, "{s:?}");
    }

    #[test]
    fn oracle_validates_under_churn() {
        let mut f = fabric();
        f.set_full_oracle(true); // force on even in release builds
        let mut ids = Vec::new();
        for i in 0..8 {
            ids.push(f.start_flow(spec(i % 4, 4 + (i % 8), 0.4 + 0.1 * i as f64)));
        }
        f.advance_to(SimTime::secs(0.3));
        f.cancel_flow(ids[2]);
        f.set_rack_background(RackId(1), Bandwidth::gbps(3.0));
        f.advance_to(SimTime::secs(0.9));
        f.start_flow(spec(1, 9, 0.3));
        f.recompute_full(); // explicit mid-run oracle pass
        f.drain();
        // Reaching here without the oracle's bit-equality assert firing is
        // the test; sanity-check the path taken.
        assert!(f.stats().recomputes_incremental > 0);
    }

    #[test]
    fn flush_accounting_settles_partial_transfers() {
        let mut f = fabric();
        f.start_flow(spec(0, 4, 1.25)); // cross-rack at the 1.25 GB/s uplink
        f.advance_to(SimTime::secs(0.4));
        f.flush_accounting();
        let s = f.stats();
        assert!((s.network_bytes.as_gb() - 0.5).abs() < 1e-6, "{s:?}");
        assert!((s.cross_rack_bytes.as_gb() - 0.5).abs() < 1e-6, "{s:?}");
        // Flushing again moves nothing further.
        f.flush_accounting();
        assert!((f.stats().network_bytes.as_gb() - 0.5).abs() < 1e-6);
    }
}
