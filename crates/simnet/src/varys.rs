//! Varys coflow scheduling: Smallest Effective Bottleneck First (SEBF) with
//! Minimum Allocation for Desired Duration (MADD) and work-conserving
//! backfill.
//!
//! Following Chowdhury, Zhong & Stoica, *Efficient Coflow Scheduling with
//! Varys* (SIGCOMM 2014), as used as the flow-level baseline in the Corral
//! paper (§6.6):
//!
//! 1. Every coflow `c` gets an *effective bottleneck* completion time
//!    `Γ_c = max_l bytes_c(l) / cap(l)` — the time to finish its remaining
//!    bytes if it had every link to itself.
//! 2. Coflows are served in ascending `Γ` order (SEBF).
//! 3. A scheduled coflow is given just enough bandwidth for *all* its flows
//!    to finish together at its bottleneck time computed against the
//!    *residual* capacities (MADD): `rate_f = remaining_f / τ_c` with
//!    `τ_c = max_l bytes_c(l) / residual(l)`.
//! 4. Whatever capacity remains is distributed max-min fairly across all
//!    flows (backfill), so the allocation is work-conserving.
//!
//! Flows that belong to no coflow are treated as singleton coflows, which
//! makes the policy total. (Real Varys only manages shuffle-like transfers;
//! in our simulations every job transfer carries a coflow id.)

use crate::allocator::{AllocScratch, DirtyCtx, DirtyOutcome, FlowTable};
use crate::flow::CoflowId;
use crate::link::Link;
use crate::maxmin;

/// Reusable buffers for the Varys solves. Coflows are grouped by a stable
/// sort of `(coflow, flow)` pairs: runs of equal keys are the groups,
/// visited in ascending-key order with members in ascending-flow order.
#[derive(Debug, Default)]
pub struct VarysScratch {
    /// `(group key, flow index)` pairs, stably sorted by key.
    keyed: Vec<(CoflowId, u32)>,
    /// Per-link remaining-byte accumulator (sparse, see `touched`).
    link_bytes: Vec<f64>,
    /// Links with a nonzero entry in `link_bytes`.
    touched: Vec<u32>,
    /// `(Γ, key, run start, run end)` per coflow, sorted for SEBF.
    order: Vec<(f64, CoflowId, u32, u32)>,
    /// Residual capacities consumed by MADD.
    residual: Vec<f64>,
    /// Backfill rates from the work-conserving max-min pass.
    extra: Vec<f64>,

    // --- coflow-incremental workspaces (allocate_dirty path) ---
    /// Directory/cache persisted across `allocate_dirty` calls.
    inc: VarysIncCache,
    /// Sorted, deduped group keys touched by the current event delta.
    dirty_keys: Vec<u64>,
    /// Per-row backfill carried over from the previous call (`NAN` when
    /// the row had no previous value; only clean components read it).
    carry: Vec<f64>,
    /// Per-link dirty mark for the current call.
    link_dirty: Vec<bool>,
    /// `(key, Γ, handle)` staging list for directory rebuilds.
    dir_tmp: Vec<(u64, f64, u32)>,
}

impl VarysScratch {
    /// Total reserved capacity across the buffers, in elements (part of
    /// [`AllocScratch::footprint`]; with the component scratch it feeds
    /// the `fabric.varys_scratch_elems` probe gauge).
    pub fn footprint(&self) -> usize {
        self.keyed.capacity()
            + self.link_bytes.capacity()
            + self.touched.capacity()
            + self.order.capacity()
            + self.residual.capacity()
            + self.extra.capacity()
            + self.dirty_keys.capacity()
            + self.carry.capacity()
            + self.link_dirty.capacity()
            + self.dir_tmp.capacity()
            + self.inc.footprint()
    }
}

/// Cache persisted across [`allocate_dirty`] calls: the SEBF
/// directory (group key → Γ + member list), the maintained `(Γ, key)`
/// order, and the previous call's backfill/residual for clean-component
/// splicing. Member lists hold fabric flow *slots* (stable across calls),
/// kept ascending: slots only ever grow, and removals preserve order.
#[derive(Debug, Default)]
struct VarysIncCache {
    /// True once a full build has populated the cache; cleared by
    /// [`allocate_from_scratch`] (the oracle never caches).
    valid: bool,
    /// Sorted group keys (parallel to `handles`; a key's current Γ
    /// lives in its `order` entry).
    keys: Vec<u64>,
    /// Member-slab handle per key.
    handles: Vec<u32>,
    /// Member slab: ascending flow slots per handle; `free` recycles
    /// retired handles so the slab never shrinks.
    members: Vec<Vec<u32>>,
    free: Vec<u32>,
    /// SEBF order `(Γ, key, handle)`, ascending by `(Γ, key)`.
    order: Vec<(f64, u64, u32)>,
    /// Rows of the previous call as ascending flow slots, with the
    /// backfill rate each received.
    prev_slots: Vec<u32>,
    prev_backfill: Vec<f64>,
    /// Per-link residual (post-MADD) of the previous call, compared by
    /// bits to detect components whose backfill input changed.
    prev_residual: Vec<f64>,
}

impl VarysIncCache {
    /// Reserved capacity in elements. Inner member-list capacities are
    /// excluded (like the fabric's per-component flow lists): they churn
    /// with coflow sizes and would obscure the flat-footprint signal.
    fn footprint(&self) -> usize {
        self.keys.capacity()
            + self.handles.capacity()
            + self.members.capacity()
            + self.free.capacity()
            + self.order.capacity()
            + self.prev_slots.capacity()
            + self.prev_backfill.capacity()
            + self.prev_residual.capacity()
    }

    /// Returns every handle to the free list, keeping allocations.
    fn recycle(&mut self) {
        self.keys.clear();
        self.handles.clear();
        self.order.clear();
        self.free.clear();
        for (h, m) in self.members.iter_mut().enumerate() {
            m.clear();
            self.free.push(h as u32);
        }
    }
}

/// Singleton-coflow key for a coflow-less flow: disjoint id space via the
/// high bit, keyed by flow index.
#[inline]
fn group_key(coflow: Option<CoflowId>, flow: usize) -> CoflowId {
    coflow.unwrap_or(CoflowId(1 << 63 | flow as u64))
}

/// Coflow-granular incremental entry point. Given the full current CSR
/// `table` plus the event delta in `ctx`, writes every rate in `rates` —
/// re-ranking only the touched coflows and re-solving only the dirtied
/// backfill components, unless a capacity change or a cold cache forces a
/// full pass.
pub(crate) fn allocate_dirty(
    links: &[Link],
    table: &FlowTable<'_>,
    rates: &mut [f64],
    scratch: &mut AllocScratch,
    ctx: &DirtyCtx<'_>,
) -> DirtyOutcome {
    if ctx.caps_changed || !scratch.varys.inc.valid {
        // A capacity epoch invalidates every cached Γ and residual;
        // rebuild the whole directory from a from-scratch pass.
        let rounds = solve_canonical(links, table, rates, scratch);
        rebuild_cache(scratch, ctx);
        DirtyOutcome::Full { rounds }
    } else {
        let (dirty_flows, rounds) = solve_incremental(links, table, rates, scratch, ctx);
        DirtyOutcome::Incremental {
            dirty_flows,
            rounds,
        }
    }
}

/// The from-scratch oracle entry: [`solve_canonical`] with the
/// incremental cache invalidated, so it neither trusts nor leaves behind
/// cached state.
pub(crate) fn allocate_from_scratch(
    links: &[Link],
    table: &FlowTable<'_>,
    rates: &mut [f64],
    scratch: &mut AllocScratch,
) {
    scratch.varys.inc.valid = false;
    solve_canonical(links, table, rates, scratch);
}

/// Accumulates `members`' remaining bytes onto the links they cross
/// (sparse, via `touched`), resolving fabric slots to table rows through
/// `row_of`. Mirrors [`solve_canonical`]'s fill operation-for-operation:
/// members ascend by slot ⇔ rows ascend, so the float accumulation order
/// is identical to a from-scratch grouped pass.
fn fill_members(
    members: &[u32],
    row_of: &[u32],
    table: &FlowTable<'_>,
    link_bytes: &mut [f64],
    touched: &mut Vec<u32>,
) {
    for &t in touched.iter() {
        link_bytes[t as usize] = 0.0;
    }
    touched.clear();
    for &slot in members {
        let row = row_of[slot as usize] as usize;
        for l in table.path(row) {
            let idx = l.index();
            if link_bytes[idx] == 0.0 {
                touched.push(idx as u32);
            }
            link_bytes[idx] += table.remaining[row];
        }
    }
}

/// From-scratch coflow solve: group flows into coflows, rank them by Γ
/// (SEBF), assign MADD rates against the residual in that order, then
/// backfill with the canonical per-component max-min
/// ([`maxmin::max_min_rates_by_component`]) over the post-MADD residual.
/// This is the definition both [`allocate_dirty`] and the fabric's shadow
/// oracle share. Leaves the sorted group runs in
/// `keyed`/`order`, the post-MADD residual in `residual`, and the raw
/// backfill in `extra` for cache rebuilds. Returns summed freeze rounds.
fn solve_canonical(
    links: &[Link],
    table: &FlowTable<'_>,
    rates: &mut [f64],
    scratch: &mut AllocScratch,
) -> u64 {
    let nl = links.len();
    let nf = table.len();
    scratch.refresh_caps(links);
    let AllocScratch {
        caps,
        maxmin: maxmin_ws,
        comp,
        varys: ws,
    } = scratch;

    // Group flows into coflows: stable sort of (key, flow) pairs.
    ws.keyed.clear();
    ws.keyed
        .extend((0..nf).map(|i| (group_key(table.coflow[i], i), i as u32)));
    ws.keyed.sort_by_key(|&(key, _)| key);

    ws.link_bytes.clear();
    ws.link_bytes.resize(nl, 0.0);
    ws.touched.clear();

    // Effective bottleneck Γ_c against full capacities.
    ws.order.clear();
    let mut start = 0usize;
    while start < nf {
        let cid = ws.keyed[start].0;
        let mut end = start + 1;
        while end < nf && ws.keyed[end].0 == cid {
            end += 1;
        }
        for &t in &ws.touched {
            ws.link_bytes[t as usize] = 0.0;
        }
        ws.touched.clear();
        for &(_, fi) in &ws.keyed[start..end] {
            let fi = fi as usize;
            for l in table.path(fi) {
                let idx = l.index();
                if ws.link_bytes[idx] == 0.0 {
                    ws.touched.push(idx as u32);
                }
                ws.link_bytes[idx] += table.remaining[fi];
            }
        }
        let gamma = ws
            .touched
            .iter()
            .map(|&t| {
                let t = t as usize;
                if caps[t] > 0.0 {
                    ws.link_bytes[t] / caps[t]
                } else {
                    f64::INFINITY
                }
            })
            .fold(0.0_f64, f64::max);
        ws.order.push((gamma, cid, start as u32, end as u32));
        start = end;
    }
    ws.order
        .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    // MADD in SEBF order against residual capacities.
    ws.residual.clear();
    ws.residual.extend_from_slice(caps);
    for r in rates.iter_mut() {
        *r = 0.0;
    }
    for oi in 0..ws.order.len() {
        let (_, _, start, end) = ws.order[oi];
        let members = &ws.keyed[start as usize..end as usize];
        for &t in &ws.touched {
            ws.link_bytes[t as usize] = 0.0;
        }
        ws.touched.clear();
        for &(_, fi) in members {
            let fi = fi as usize;
            for l in table.path(fi) {
                let idx = l.index();
                if ws.link_bytes[idx] == 0.0 {
                    ws.touched.push(idx as u32);
                }
                ws.link_bytes[idx] += table.remaining[fi];
            }
        }
        let tau = ws
            .touched
            .iter()
            .map(|&t| {
                let t = t as usize;
                if ws.residual[t] > 1e-9 {
                    ws.link_bytes[t] / ws.residual[t]
                } else {
                    f64::INFINITY
                }
            })
            .fold(0.0_f64, f64::max);
        if !tau.is_finite() || tau <= 0.0 {
            continue;
        }
        for &(_, fi) in members {
            let fi = fi as usize;
            let rate = table.remaining[fi] / tau;
            rates[fi] = rate;
            for l in table.path(fi) {
                let r = &mut ws.residual[l.index()];
                *r = (*r - rate).max(0.0);
            }
        }
    }

    // Canonical per-component backfill over the residual capacities.
    ws.extra.clear();
    ws.extra.resize(nf, 0.0);
    let rounds = maxmin::max_min_rates_by_component(
        &ws.residual,
        table.flow_off,
        table.flow_links,
        &mut ws.extra,
        comp,
        maxmin_ws,
    );
    for (r, &e) in rates.iter_mut().zip(&ws.extra) {
        if e.is_finite() {
            *r += e;
        }
    }
    rounds
}

/// Rebuilds the incremental cache from a just-completed
/// [`solve_canonical`] pass — group runs in `keyed`/`order`, backfill in
/// `extra`, residual in `residual` — plus the fabric's row→slot map.
fn rebuild_cache(scratch: &mut AllocScratch, ctx: &DirtyCtx<'_>) {
    let AllocScratch {
        comp, varys: ws, ..
    } = scratch;
    let VarysScratch {
        keyed,
        order,
        residual,
        extra,
        inc,
        dir_tmp,
        dirty_keys,
        carry,
        link_dirty,
        ..
    } = ws;
    inc.recycle();
    dir_tmp.clear();
    for &(gamma, key, start, end) in order.iter() {
        let h = inc.free.pop().unwrap_or_else(|| {
            inc.members.push(Vec::new());
            (inc.members.len() - 1) as u32
        });
        let m = &mut inc.members[h as usize];
        m.clear();
        m.extend(
            keyed[start as usize..end as usize]
                .iter()
                .map(|&(_, row)| ctx.slots[row as usize]),
        );
        inc.order.push((gamma, key.0, h));
        dir_tmp.push((key.0, gamma, h));
    }
    dir_tmp.sort_unstable_by_key(|&(k, _, _)| k);
    inc.keys.clear();
    inc.handles.clear();
    for &(k, _, h) in dir_tmp.iter() {
        inc.keys.push(k);
        inc.handles.push(h);
    }
    inc.prev_slots.clear();
    inc.prev_slots.extend_from_slice(ctx.slots);
    inc.prev_backfill.clear();
    inc.prev_backfill.extend_from_slice(extra);
    inc.prev_residual.clear();
    inc.prev_residual.extend_from_slice(residual);
    inc.valid = true;

    // Pre-size the incremental-only buffers so the first coflow-local
    // pass after this full rebuild allocates nothing: `scratch_grows`
    // settles at the cold-cache full instead of creeping up as each
    // lazily-touched workspace first grows.
    let n = ctx.slots.len();
    let nl = residual.len();
    dirty_keys.clear();
    dirty_keys.reserve(n);
    carry.clear();
    carry.reserve(n);
    comp.reserve(n);
    link_dirty.clear();
    link_dirty.reserve(nl);
    // Departures can return every handle to the free list.
    let free_hwm = inc.members.len().saturating_sub(inc.free.len());
    inc.free.reserve(free_hwm);
}

/// The coflow-local incremental solve. Requires a valid cache and
/// unchanged link capacities (the caller falls back to
/// [`solve_canonical`] otherwise). Returns `(dirty_flows, rounds)`.
///
/// Exactness argument, mirrored by the armed fabric oracle:
/// * Scheduling bytes are frozen per flow, so a clean group's cached Γ is
///   bit-equal to recomputing it (same members, same bytes, same caps).
/// * The maintained `(Γ, key)` order therefore equals the from-scratch
///   sort (keys are unique, so the order is a strict total order).
/// * MADD is replayed in full over that order — the residual chain
///   couples every coflow below a dirtied rank, and the replay is two
///   orders of magnitude cheaper than backfill — giving bit-identical
///   MADD rates and residuals by determinism of the float sequence.
/// * A component none of whose links is structurally dirty or
///   residual-bit-dirty has an unchanged canonical subproblem (any
///   membership change dirties its path links), so its previous backfill
///   is spliced; dirty components are re-solved canonically.
fn solve_incremental(
    links: &[Link],
    table: &FlowTable<'_>,
    rates: &mut [f64],
    scratch: &mut AllocScratch,
    ctx: &DirtyCtx<'_>,
) -> (u64, u64) {
    let nl = links.len();
    let n = table.len();
    scratch.refresh_caps(links);
    let AllocScratch {
        caps,
        maxmin: maxmin_ws,
        comp,
        varys: ws,
    } = scratch;
    let VarysScratch {
        link_bytes,
        touched,
        residual,
        extra,
        inc,
        dirty_keys,
        carry,
        link_dirty,
        ..
    } = ws;

    // 1. Apply the membership delta to the directory. Departures first
    //    (tolerant: a flow that started and departed between recomputes
    //    was filtered from `added` and never joined), then arrivals —
    //    new slots exceed every cached one, so pushes keep members
    //    ascending.
    dirty_keys.clear();
    dirty_keys.extend(ctx.added.iter().chain(ctx.departed).map(|&(k, _)| k));
    dirty_keys.sort_unstable();
    dirty_keys.dedup();
    for &(key, slot) in ctx.departed {
        if let Ok(i) = inc.keys.binary_search(&key) {
            let h = inc.handles[i] as usize;
            inc.members[h].retain(|&s| s != slot);
            if inc.members[h].is_empty() {
                inc.keys.remove(i);
                inc.handles.remove(i);
                inc.free.push(h as u32);
            }
        }
    }
    for &(key, slot) in ctx.added {
        match inc.keys.binary_search(&key) {
            Ok(i) => inc.members[inc.handles[i] as usize].push(slot),
            Err(i) => {
                let h = inc.free.pop().unwrap_or_else(|| {
                    inc.members.push(Vec::new());
                    (inc.members.len() - 1) as u32
                });
                inc.members[h as usize].clear();
                inc.members[h as usize].push(slot);
                inc.keys.insert(i, key);
                inc.handles.insert(i, h);
            }
        }
    }
    debug_assert_eq!(
        inc.handles
            .iter()
            .map(|&h| inc.members[h as usize].len())
            .sum::<usize>(),
        n,
        "coflow directory out of sync with the flow table"
    );

    // 2. Re-rank the dirtied keys: drop their stale order entries,
    //    recompute Γ against full capacities, re-sort the order.
    link_bytes.clear();
    link_bytes.resize(nl, 0.0);
    touched.clear();
    inc.order
        .retain(|&(_, k, _)| dirty_keys.binary_search(&k).is_err());
    for &key in dirty_keys.iter() {
        if let Ok(i) = inc.keys.binary_search(&key) {
            let h = inc.handles[i];
            fill_members(
                &inc.members[h as usize],
                ctx.row_of,
                table,
                link_bytes,
                touched,
            );
            let gamma = touched
                .iter()
                .map(|&t| {
                    let t = t as usize;
                    if caps[t] > 0.0 {
                        link_bytes[t] / caps[t]
                    } else {
                        f64::INFINITY
                    }
                })
                .fold(0.0_f64, f64::max);
            inc.order.push((gamma, key, h));
        }
    }
    inc.order
        .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    // 3. Full MADD replay over the maintained order (see the doc comment
    //    for why replay, not checkpointing).
    residual.clear();
    residual.extend_from_slice(caps);
    for r in rates.iter_mut() {
        *r = 0.0;
    }
    for &(_, _, h) in inc.order.iter() {
        let members = &inc.members[h as usize];
        fill_members(members, ctx.row_of, table, link_bytes, touched);
        let tau = touched
            .iter()
            .map(|&t| {
                let t = t as usize;
                if residual[t] > 1e-9 {
                    link_bytes[t] / residual[t]
                } else {
                    f64::INFINITY
                }
            })
            .fold(0.0_f64, f64::max);
        if !tau.is_finite() || tau <= 0.0 {
            continue;
        }
        for &slot in members {
            let row = ctx.row_of[slot as usize] as usize;
            let rate = table.remaining[row] / tau;
            rates[row] = rate;
            for l in table.path(row) {
                let r = &mut residual[l.index()];
                *r = (*r - rate).max(0.0);
            }
        }
    }

    // 4. Dirty links: structurally touched by events, plus any link whose
    //    post-MADD residual moved in bits.
    link_dirty.clear();
    link_dirty.resize(nl, false);
    for &l in ctx.dirty_links {
        link_dirty[l.index()] = true;
    }
    debug_assert_eq!(inc.prev_residual.len(), nl);
    for l in 0..nl {
        if residual[l].to_bits() != inc.prev_residual[l].to_bits() {
            link_dirty[l] = true;
        }
    }

    // 5. Carry the previous backfill over by slot (two-pointer merge on
    //    ascending slots) for the components that stay clean.
    carry.clear();
    carry.resize(n, f64::NAN);
    {
        let mut i = 0usize;
        for (row, &slot) in ctx.slots.iter().enumerate() {
            while i < inc.prev_slots.len() && inc.prev_slots[i] < slot {
                i += 1;
            }
            if i < inc.prev_slots.len() && inc.prev_slots[i] == slot {
                carry[row] = inc.prev_backfill[i];
            }
        }
    }

    // 6. Split the current graph into components; a component is dirty
    //    when any of its links is. Re-solve the dirty ones and splice the
    //    carried backfill into the clean ones.
    let path = |row: usize| table.path(row);
    comp.split(nl, n, path);
    extra.clear();
    extra.resize(n, 0.0);
    let mut dirty_flows = 0u64;
    let mut rounds = 0u64;
    for k in 0..comp.len() {
        let dirty = comp
            .rows(k)
            .iter()
            .any(|&row| path(row as usize).iter().any(|l| link_dirty[l.index()]));
        if dirty {
            let solved = comp.solve(k, path, |l| residual[l], maxmin_ws);
            for (&row, &e) in solved.rows.iter().zip(solved.rates) {
                extra[row as usize] = e;
            }
            dirty_flows += solved.rows.len() as u64;
            rounds += maxmin_ws.last_rounds();
        } else {
            for &row in comp.rows(k) {
                let row = row as usize;
                debug_assert!(
                    !carry[row].is_nan(),
                    "clean-component row without a cached backfill"
                );
                extra[row] = carry[row];
            }
        }
    }
    for (r, &e) in rates.iter_mut().zip(extra.iter()) {
        if e.is_finite() {
            *r += e;
        }
    }

    // 7. Refresh the splice cache for the next call.
    inc.prev_slots.clear();
    inc.prev_slots.extend_from_slice(ctx.slots);
    inc.prev_backfill.clear();
    inc.prev_backfill.extend_from_slice(extra);
    inc.prev_residual.clear();
    inc.prev_residual.extend_from_slice(residual);
    (dirty_flows, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkClass, LinkId};
    use corral_model::Bandwidth;

    fn link(cap: f64) -> Link {
        Link::new(LinkClass::RackUp, 0, Bandwidth(cap))
    }

    /// Solves `flows` — `(path, bytes, coflow)` — from scratch.
    fn solve(links: &[Link], flows: &[(&[u32], f64, Option<u64>)]) -> Vec<f64> {
        let mut flow_off = vec![0u32];
        let mut flow_links = Vec::new();
        for (path, _, _) in flows {
            flow_links.extend(path.iter().map(|&l| LinkId(l)));
            flow_off.push(flow_links.len() as u32);
        }
        let remaining: Vec<f64> = flows.iter().map(|f| f.1).collect();
        let coflow: Vec<Option<CoflowId>> = flows.iter().map(|f| f.2.map(CoflowId)).collect();
        let table = FlowTable {
            flow_off: &flow_off,
            flow_links: &flow_links,
            remaining: &remaining,
            coflow: &coflow,
        };
        let mut rates = vec![0.0; flows.len()];
        allocate_from_scratch(links, &table, &mut rates, &mut AllocScratch::new());
        rates
    }

    /// Two coflows on one link: the smaller finishes first at full rate
    /// (plus the larger receives only backfill crumbs — here none, since the
    /// link saturates).
    #[test]
    fn sebf_prioritizes_small_coflow() {
        let links = vec![link(100.0)];
        let rates = solve(&links, &[(&[0], 1000.0, Some(0)), (&[0], 10.0, Some(1))]);
        // Coflow 1 (10 bytes) has smaller Γ: gets the whole link; coflow 0
        // gets the rest (0 here) — strictly prioritized, unlike fair share.
        assert!(rates[1] > rates[0]);
        assert!((rates[0] + rates[1]) <= 100.0 + 1e-6);
        assert!((rates[1] - 100.0).abs() < 1e-6);
    }

    /// MADD: within one coflow, flows get rates proportional to their
    /// remaining bytes so they finish together.
    #[test]
    fn madd_finishes_flows_together() {
        // Flow 0: 300 bytes on link0; flow 1: 100 bytes on link1.
        // Bottleneck is link0: τ = 300/100 = 3s. Flow rates: 100, 33.3.
        // Backfill then tops flow 1 up to link1's full capacity.
        let links = vec![link(100.0), link(100.0)];
        let rates = solve(&links, &[(&[0], 300.0, Some(7)), (&[1], 100.0, Some(7))]);
        assert!((rates[0] - 100.0).abs() < 1e-6);
        // MADD would give 33.3; work conservation raises it to 100.
        assert!((rates[1] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn feasible_under_contention() {
        let links = vec![link(50.0), link(80.0)];
        let rates = solve(
            &links,
            &[
                (&[0, 1], 500.0, Some(1)),
                (&[0], 200.0, Some(2)),
                (&[1], 900.0, None),
            ],
        );
        let load0 = rates[0] + rates[1];
        let load1 = rates[0] + rates[2];
        assert!(load0 <= 50.0 + 1e-6, "link0 overloaded: {load0}");
        assert!(load1 <= 80.0 + 1e-6, "link1 overloaded: {load1}");
        // Work conservation: at least one link saturated.
        assert!(load0 >= 50.0 - 1e-6 || load1 >= 80.0 - 1e-6);
    }

    #[test]
    fn coflowless_flows_still_progress() {
        let links = vec![link(10.0)];
        let rates = solve(&links, &[(&[0], 100.0, None)]);
        assert!((rates[0] - 10.0).abs() < 1e-6);
    }
}
