//! Progressive-filling max-min fair rate allocation.
//!
//! This is the textbook water-filling algorithm: all flows' rates grow at a
//! common level λ; when a link saturates, the flows crossing it are frozen
//! at the current level and the rest keep growing. It terminates after at
//! most `L` rounds (each round saturates at least one link) and produces the
//! unique max-min fair allocation. The Corral paper's simulator uses exactly
//! this as its TCP stand-in (§6.6: "a max-min fair bandwidth allocation
//! mechanism to emulate TCP").

use crate::link::LinkId;

/// Relative tolerance used when deciding that a link has saturated.
const EPS: f64 = 1e-9;

/// Reusable workspace for [`max_min_rates_csr`]: flat CSR-style link→flow
/// index arrays plus the per-link/per-flow progressive-filling state.
///
/// All buffers are `clear()`-ed and refilled on every call, so after a few
/// warm-up calls at peak problem size the allocator performs **zero heap
/// allocations** per invocation — the capacities plateau and every call
/// runs entirely inside the retained buffers. [`MaxMinScratch::footprint`]
/// exposes the summed capacities so callers (the fabric) can count
/// steady-state growth events.
#[derive(Debug, Default)]
pub struct MaxMinScratch {
    /// CSR offsets: flows crossing link `l` are
    /// `link_flows[link_off[l]..link_off[l + 1]]`.
    link_off: Vec<u32>,
    /// CSR payload: flow indices, grouped by link, ascending within a link.
    link_flows: Vec<u32>,
    /// Per-link fill cursor used while building the CSR.
    cursor: Vec<u32>,
    /// Number of still-growing flows crossing each link.
    unfrozen_on: Vec<u32>,
    /// Rate already committed to frozen flows on each link.
    frozen_load: Vec<f64>,
    /// Per-flow frozen flag.
    frozen: Vec<bool>,
    /// Links that still carry unfrozen flows.
    active: Vec<u32>,
    /// Freeze rounds taken by the most recent call.
    rounds: u64,
}

impl MaxMinScratch {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Freeze rounds (saturation iterations) of the most recent call.
    pub fn last_rounds(&self) -> u64 {
        self.rounds
    }

    /// Summed capacity of all retained buffers, in elements. Constant
    /// across calls once the workspace has warmed up; a change means a
    /// reallocation happened.
    pub fn footprint(&self) -> usize {
        self.link_off.capacity()
            + self.link_flows.capacity()
            + self.cursor.capacity()
            + self.unfrozen_on.capacity()
            + self.frozen_load.capacity()
            + self.frozen.capacity()
            + self.active.capacity()
    }
}

/// Computes max-min fair rates over a flattened flow table: flow `f`'s
/// path is `flow_links[flow_off[f]..flow_off[f + 1]]`.
///
/// * `capacity[l]` — available capacity of link `l` (bytes/sec); must be
///   non-negative (zero-capacity links pin their flows to rate 0).
/// * A flow with an empty path is unconstrained and gets rate
///   `f64::INFINITY`; callers are expected to clamp (the fabric handles
///   machine-local flows separately).
///
/// `rates` has one entry per flow and is fully overwritten. Per-link
/// membership lives in one retained CSR built with two passes over the
/// flow table, so a warmed-up `ws` makes the call allocation-free. The
/// unit tests check the rates bit for bit against a textbook
/// `Vec<Vec<u32>>` implementation kept in the test module.
///
/// ```
/// use corral_simnet::maxmin::{max_min_rates_csr, MaxMinScratch};
/// use corral_simnet::LinkId;
///
/// // Two flows share link 0 (cap 10); one continues over link 1 (cap 3).
/// let caps = [10.0, 3.0];
/// let flow_off = [0, 2, 3];
/// let flow_links = [LinkId(0), LinkId(1), LinkId(0)];
/// let mut rates = [0.0; 2];
/// max_min_rates_csr(&caps, &flow_off, &flow_links, &mut rates, &mut MaxMinScratch::new());
/// assert!((rates[0] - 3.0).abs() < 1e-9);  // bottlenecked by link 1
/// assert!((rates[1] - 7.0).abs() < 1e-9);  // takes the rest of link 0
/// ```
pub fn max_min_rates_csr(
    capacity: &[f64],
    flow_off: &[u32],
    flow_links: &[LinkId],
    rates: &mut [f64],
    ws: &mut MaxMinScratch,
) {
    let nl = capacity.len();
    let nf = rates.len();
    debug_assert_eq!(flow_off.len(), nf + 1);
    let MaxMinScratch {
        link_off,
        link_flows,
        cursor,
        unfrozen_on,
        frozen_load,
        frozen,
        active,
        rounds,
    } = ws;
    *rounds = 0;

    // Pass 1: per-link degrees (and the empty-path short circuit).
    unfrozen_on.clear();
    unfrozen_on.resize(nl, 0);
    frozen_load.clear();
    frozen_load.resize(nl, 0.0);
    frozen.clear();
    frozen.resize(nf, false);
    let mut n_unfrozen = 0usize;
    for f in 0..nf {
        let path = &flow_links[flow_off[f] as usize..flow_off[f + 1] as usize];
        if path.is_empty() {
            rates[f] = f64::INFINITY;
            frozen[f] = true;
            continue;
        }
        n_unfrozen += 1;
        for l in path {
            debug_assert!(l.index() < nl, "path references unknown link");
            unfrozen_on[l.index()] += 1;
        }
    }

    // Pass 2: prefix-sum offsets, then scatter flow indices. Flows are
    // visited in ascending order, so each link's CSR slice lists its
    // member flows ascending — the same order the reference's per-link
    // membership `Vec`s accumulate.
    link_off.clear();
    link_off.reserve(nl + 1);
    link_off.push(0);
    let mut acc = 0u32;
    for &n in unfrozen_on.iter().take(nl) {
        acc += n;
        link_off.push(acc);
    }
    link_flows.clear();
    link_flows.resize(acc as usize, 0);
    cursor.clear();
    cursor.extend_from_slice(&link_off[..nl]);
    for f in 0..nf {
        if frozen[f] {
            continue; // empty path
        }
        for l in &flow_links[flow_off[f] as usize..flow_off[f + 1] as usize] {
            let c = &mut cursor[l.index()];
            link_flows[*c as usize] = f as u32;
            *c += 1;
        }
    }

    // Only links that actually carry unfrozen flows participate.
    active.clear();
    active.extend((0..nl as u32).filter(|&l| unfrozen_on[l as usize] > 0));

    let mut level = 0.0_f64;
    while n_unfrozen > 0 {
        *rounds += 1;
        // The next saturation point: the smallest level at which some link
        // with unfrozen flows runs out of headroom. Dropping fully-frozen
        // links and scanning for the minimum are fused into one pass; the
        // retained links — and hence the delta min-fold sequence — are the
        // same ascending set the two-pass version visited.
        let mut best = f64::INFINITY;
        active.retain(|&l| {
            let l = l as usize;
            if unfrozen_on[l] == 0 {
                return false;
            }
            let headroom = capacity[l] - frozen_load[l] - unfrozen_on[l] as f64 * level;
            let delta = (headroom / unfrozen_on[l] as f64).max(0.0);
            if delta < best {
                best = delta;
            }
            true
        });
        if !best.is_finite() {
            break;
        }
        level += best;

        // Freeze every unfrozen flow crossing a link that is now saturated.
        // The CSR slice is immutable during the sweep (freezing only mutates
        // the per-link counters), so no membership copy is needed — this is
        // where the reference clones `members[l]` every round.
        let tol = EPS * level.max(1.0);
        let mut froze_any = false;
        for &l in active.iter() {
            let l = l as usize;
            if unfrozen_on[l] == 0 {
                continue;
            }
            let headroom = capacity[l] - frozen_load[l] - unfrozen_on[l] as f64 * level;
            if headroom <= tol {
                for &f in &link_flows[link_off[l] as usize..link_off[l + 1] as usize] {
                    let f = f as usize;
                    if frozen[f] {
                        continue;
                    }
                    frozen[f] = true;
                    froze_any = true;
                    n_unfrozen -= 1;
                    rates[f] = level;
                    for ll in &flow_links[flow_off[f] as usize..flow_off[f + 1] as usize] {
                        let ll = ll.index();
                        unfrozen_on[ll] -= 1;
                        frozen_load[ll] += level;
                    }
                }
            }
        }
        if !froze_any {
            // Numerical stall guard: freeze everything at the current level.
            for f in 0..nf {
                if !frozen[f] {
                    frozen[f] = true;
                    rates[f] = level;
                    n_unfrozen -= 1;
                }
            }
        }
    }
}

/// Sentinel for "no component" in [`ComponentScratch`]'s per-row map.
const NO_COMP: u32 = u32::MAX;

/// The crate's one component split and canonical compaction, shared by
/// the fair fabric's recompute, the Varys backfill and both from-scratch
/// oracles.
///
/// [`split`](Self::split) partitions rows (flows, each given by its link
/// path) into the connected components of the link↔flow graph, in
/// ascending-min-row order with members ascending.
/// [`solve`](Self::solve) compacts one component into its canonical
/// subproblem — links deduped and sorted ascending, compact ids by rank,
/// members ascending — and water-fills it. The solve's float op sequence
/// is a function of that subproblem alone, so a flow's rate does not
/// depend on which other components exist or on the order they are
/// solved in.
///
/// Per-link state is validated by round stamps, so no call resets
/// anything of link size: a split or a solve costs O(rows and path
/// links), which keeps the fair fabric's recompute O(dirty).
#[derive(Debug, Default)]
pub(crate) struct ComponentScratch {
    /// Union-find parent per row (union by min root).
    uf: Vec<u32>,
    /// Component index per row (`NO_COMP` for empty paths).
    row_comp: Vec<u32>,
    /// Component `k`'s rows are `rows[comp_off[k]..comp_off[k + 1]]`.
    comp_off: Vec<u32>,
    /// Rows grouped by component, ascending within each.
    rows: Vec<u32>,
    /// Per-link validity stamp for `link_tag`.
    link_stamp: Vec<u64>,
    /// Round-stamped per-link value: the first row seen on the link while
    /// splitting, the link's compact rank while compacting.
    link_tag: Vec<u32>,
    /// Current stamp round.
    round: u64,
    /// The compacted component's links, ascending (compact id = rank).
    sub_link_ids: Vec<LinkId>,
    /// Capacities of `sub_link_ids`, compact order.
    sub_caps: Vec<f64>,
    /// Compact CSR offsets for the component's rows.
    sub_off: Vec<u32>,
    /// Compact CSR link ids.
    sub_links: Vec<LinkId>,
    /// Solver output per component row.
    sub_rates: Vec<f64>,
}

/// One solved component, borrowed from its [`ComponentScratch`].
pub(crate) struct Component<'s> {
    /// Member rows, ascending.
    pub rows: &'s [u32],
    /// The component's links, ascending.
    pub links: &'s [LinkId],
    /// Max-min rate of each member row, parallel to `rows`.
    pub rates: &'s [f64],
}

impl ComponentScratch {
    /// Summed capacity of all retained buffers, in elements.
    pub(crate) fn footprint(&self) -> usize {
        self.uf.capacity()
            + self.row_comp.capacity()
            + self.comp_off.capacity()
            + self.rows.capacity()
            + self.link_stamp.capacity()
            + self.link_tag.capacity()
            + self.sub_link_ids.capacity()
            + self.sub_caps.capacity()
            + self.sub_off.capacity()
            + self.sub_links.capacity()
            + self.sub_rates.capacity()
    }

    /// Pre-sizes the row-indexed buffers for splits of up to `rows` rows.
    pub(crate) fn reserve(&mut self, rows: usize) {
        for v in [&mut self.uf, &mut self.row_comp, &mut self.rows] {
            v.clear();
            v.reserve(rows);
        }
        self.comp_off.clear();
        self.comp_off.reserve(rows + 1);
    }

    /// Splits rows `0..n` — row `i` crossing the links `path(i)`, all
    /// below `nlinks` — into connected components. Rows sharing a link
    /// are unioned (by min root, so a component's representative is its
    /// smallest row); rows with empty paths join no component.
    pub(crate) fn split<'a>(
        &mut self,
        nlinks: usize,
        n: usize,
        path: impl Fn(usize) -> &'a [LinkId],
    ) {
        debug_assert!(n < NO_COMP as usize, "row index collides with the sentinel");
        if self.link_stamp.len() < nlinks {
            self.link_stamp.resize(nlinks, 0);
            self.link_tag.resize(nlinks, 0);
        }
        self.round += 1;
        let round = self.round;
        let (uf, row_comp) = (&mut self.uf, &mut self.row_comp);
        uf.clear();
        uf.extend(0..n as u32);
        row_comp.clear();
        row_comp.resize(n, 0);
        // Find with path halving.
        let root = |uf: &mut Vec<u32>, mut x: u32| {
            while uf[x as usize] != x {
                uf[x as usize] = uf[uf[x as usize] as usize];
                x = uf[x as usize];
            }
            x
        };
        for (i, rc) in row_comp.iter_mut().enumerate() {
            let p = path(i);
            if p.is_empty() {
                *rc = NO_COMP;
            }
            for l in p {
                let l = l.index();
                if self.link_stamp[l] != round {
                    self.link_stamp[l] = round;
                    self.link_tag[l] = i as u32;
                } else {
                    let (a, b) = (root(uf, i as u32), root(uf, self.link_tag[l]));
                    if a != b {
                        uf[a.max(b) as usize] = a.min(b);
                    }
                }
            }
        }
        // Number the components in ascending-min-row order (a row that
        // is its own root opens one) and count their rows into
        // `comp_off[k]`; a trailing slot turns the prefix sums into ends.
        let comp_off = &mut self.comp_off;
        comp_off.clear();
        for i in 0..n {
            if row_comp[i] == NO_COMP {
                continue;
            }
            let r = root(uf, i as u32) as usize;
            let k = if r == i {
                comp_off.push(0);
                comp_off.len() - 1
            } else {
                row_comp[r] as usize
            };
            row_comp[i] = k as u32;
            comp_off[k] += 1;
        }
        comp_off.push(0);
        for k in 1..comp_off.len() {
            comp_off[k] += comp_off[k - 1];
        }
        // Scatter rows backwards from each component's end: members land
        // ascending and `comp_off[k]` ends at the component's start.
        self.rows.clear();
        self.rows.resize(comp_off[comp_off.len() - 1] as usize, 0);
        for i in (0..n).rev() {
            let k = row_comp[i];
            if k != NO_COMP {
                comp_off[k as usize] -= 1;
                self.rows[comp_off[k as usize] as usize] = i as u32;
            }
        }
    }

    /// Number of components of the last [`split`](Self::split).
    pub(crate) fn len(&self) -> usize {
        self.comp_off.len().saturating_sub(1)
    }

    /// Rows of component `k`, ascending.
    pub(crate) fn rows(&self, k: usize) -> &[u32] {
        &self.rows[self.comp_off[k] as usize..self.comp_off[k + 1] as usize]
    }

    /// Solves component `k` of the last split on its canonical compacted
    /// subproblem. `path` must be the split's; `cap(l)` is link `l`'s
    /// capacity. The freeze rounds are `ws.last_rounds()`.
    pub(crate) fn solve<'a>(
        &mut self,
        k: usize,
        path: impl Fn(usize) -> &'a [LinkId],
        cap: impl Fn(usize) -> f64,
        ws: &mut MaxMinScratch,
    ) -> Component<'_> {
        self.round += 1;
        let round = self.round;
        let rows = &self.rows[self.comp_off[k] as usize..self.comp_off[k + 1] as usize];
        self.sub_link_ids.clear();
        for &row in rows {
            for &l in path(row as usize) {
                if self.link_stamp[l.index()] != round {
                    self.link_stamp[l.index()] = round;
                    self.sub_link_ids.push(l);
                }
            }
        }
        self.sub_link_ids.sort_unstable();
        self.sub_caps.clear();
        for (rank, &l) in self.sub_link_ids.iter().enumerate() {
            self.link_tag[l.index()] = rank as u32;
            self.sub_caps.push(cap(l.index()));
        }
        self.sub_off.clear();
        self.sub_off.push(0);
        self.sub_links.clear();
        for &row in rows {
            for &l in path(row as usize) {
                self.sub_links.push(LinkId(self.link_tag[l.index()]));
            }
            self.sub_off.push(self.sub_links.len() as u32);
        }
        self.sub_rates.clear();
        self.sub_rates.resize(rows.len(), 0.0);
        max_min_rates_csr(
            &self.sub_caps,
            &self.sub_off,
            &self.sub_links,
            &mut self.sub_rates,
            ws,
        );
        Component {
            rows,
            links: &self.sub_link_ids,
            rates: &self.sub_rates,
        }
    }
}

/// Max-min fair rates solved per connected component of the link↔flow
/// graph, each on its canonical compacted subproblem (see
/// [`ComponentScratch`]). A whole-graph water-fill is *not* bit-identical
/// to this (its global level accumulator orders float ops across
/// components), so this decomposition is the from-scratch definition the
/// fabric's incremental paths are checked against: fair sharing runs it
/// over the effective capacities, Varys' backfill over the post-MADD
/// residual. Flows with empty paths are left untouched in `rates`.
/// Returns the summed freeze rounds.
pub(crate) fn max_min_rates_by_component(
    capacity: &[f64],
    flow_off: &[u32],
    flow_links: &[LinkId],
    rates: &mut [f64],
    cs: &mut ComponentScratch,
    ws: &mut MaxMinScratch,
) -> u64 {
    let path = |f: usize| &flow_links[flow_off[f] as usize..flow_off[f + 1] as usize];
    cs.split(capacity.len(), rates.len(), path);
    let mut rounds = 0;
    for k in 0..cs.len() {
        let comp = cs.solve(k, path, |l| capacity[l], ws);
        for (&row, &rate) in comp.rows.iter().zip(comp.rates) {
            rates[row as usize] = rate;
        }
        rounds += ws.last_rounds();
    }
    rounds
}

/// Returns the load each link carries under `rates` — useful for feasibility
/// checks and utilization statistics.
pub fn link_loads(n_links: usize, paths: &[&[LinkId]], rates: &[f64]) -> Vec<f64> {
    let mut loads = vec![0.0; n_links];
    for (f, path) in paths.iter().enumerate() {
        if rates[f].is_finite() {
            for l in path.iter() {
                loads[l.index()] += rates[f];
            }
        }
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Computes max-min fair rates (reference implementation).
    ///
    /// * `capacity[l]` — available capacity of link `l` (bytes/sec); must be
    ///   non-negative (zero-capacity links pin their flows to rate 0).
    /// * `paths[f]` — the directed links flow `f` traverses. A flow with an
    ///   empty path is unconstrained and gets rate `f64::INFINITY`; callers are
    ///   expected to clamp (the fabric handles machine-local flows separately).
    ///
    /// Returns one rate per flow, in `paths` order.
    fn max_min_rates(capacity: &[f64], paths: &[&[LinkId]]) -> Vec<f64> {
        let mut rates = vec![0.0; paths.len()];
        max_min_rates_into(capacity, paths, &mut rates);
        rates
    }

    /// Allocation-reusing variant of [`max_min_rates`]; `rates` must have one
    /// entry per flow and is fully overwritten.
    ///
    /// The textbook reference: it allocates per-link membership `Vec`s on
    /// every call and clones them on every freeze round. Kept here as the
    /// oracle [`max_min_rates_csr`] must match bit for bit.
    fn max_min_rates_into(capacity: &[f64], paths: &[&[LinkId]], rates: &mut [f64]) {
        assert_eq!(rates.len(), paths.len());
        let nl = capacity.len();
        let nf = paths.len();

        // Per-link membership lists and unfrozen counts.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); nl];
        let mut unfrozen_on: Vec<u32> = vec![0; nl];
        let mut frozen_load: Vec<f64> = vec![0.0; nl];
        let mut frozen: Vec<bool> = vec![false; nf];
        let mut n_unfrozen = 0usize;

        for (f, path) in paths.iter().enumerate() {
            if path.is_empty() {
                rates[f] = f64::INFINITY;
                frozen[f] = true;
                continue;
            }
            n_unfrozen += 1;
            for l in path.iter() {
                debug_assert!(l.index() < nl, "path references unknown link");
                members[l.index()].push(f as u32);
                unfrozen_on[l.index()] += 1;
            }
        }

        // Only links that actually carry unfrozen flows participate; on large
        // topologies most links are idle and scanning them every round would
        // dominate the cost.
        let mut active: Vec<u32> = (0..nl as u32)
            .filter(|&l| unfrozen_on[l as usize] > 0)
            .collect();

        let mut level = 0.0_f64;
        while n_unfrozen > 0 {
            active.retain(|&l| unfrozen_on[l as usize] > 0);
            // The next saturation point: the smallest level at which some link
            // with unfrozen flows runs out of headroom.
            let mut best = f64::INFINITY;
            for &l in &active {
                let l = l as usize;
                let headroom = capacity[l] - frozen_load[l] - unfrozen_on[l] as f64 * level;
                let delta = (headroom / unfrozen_on[l] as f64).max(0.0);
                if delta < best {
                    best = delta;
                }
            }
            if !best.is_finite() {
                // No constraining link (cannot happen with non-empty paths, but
                // guard against inconsistent input).
                break;
            }
            level += best;

            // Freeze every unfrozen flow crossing a link that is now saturated.
            let tol = EPS * level.max(1.0);
            let mut froze_any = false;
            for &l in &active {
                let l = l as usize;
                if unfrozen_on[l] == 0 {
                    continue;
                }
                let headroom = capacity[l] - frozen_load[l] - unfrozen_on[l] as f64 * level;
                if headroom <= tol {
                    // This link is saturated: freeze its unfrozen flows.
                    // Iterate over a copy of the membership list because
                    // freezing mutates shared per-link counters.
                    let flows_here: Vec<u32> = members[l].clone();
                    for f in flows_here {
                        let f = f as usize;
                        if frozen[f] {
                            continue;
                        }
                        frozen[f] = true;
                        froze_any = true;
                        n_unfrozen -= 1;
                        rates[f] = level;
                        for ll in paths[f].iter() {
                            let ll = ll.index();
                            unfrozen_on[ll] -= 1;
                            frozen_load[ll] += level;
                        }
                    }
                }
            }
            if !froze_any {
                // Numerical stall guard: freeze everything at the current level.
                // This can only trigger under pathological capacities (e.g. all
                // remaining links have effectively infinite headroom).
                for f in 0..nf {
                    if !frozen[f] {
                        frozen[f] = true;
                        rates[f] = level;
                        n_unfrozen -= 1;
                    }
                }
            }
        }
    }

    fn ids(v: &[u32]) -> Vec<LinkId> {
        v.iter().map(|&i| LinkId(i)).collect()
    }

    #[test]
    fn single_link_shared_equally() {
        let caps = [100.0];
        let p0 = ids(&[0]);
        let p1 = ids(&[0]);
        let paths: Vec<&[LinkId]> = vec![&p0, &p1];
        let r = max_min_rates(&caps, &paths);
        assert!((r[0] - 50.0).abs() < 1e-6);
        assert!((r[1] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn classic_three_flow_example() {
        // Two links: A (cap 1) and B (cap 2).
        // f0 crosses A and B, f1 crosses A, f2 crosses B.
        // Max-min: f0 = f1 = 0.5 (A saturates first), f2 = 1.5.
        let caps = [1.0, 2.0];
        let p0 = ids(&[0, 1]);
        let p1 = ids(&[0]);
        let p2 = ids(&[1]);
        let paths: Vec<&[LinkId]> = vec![&p0, &p1, &p2];
        let r = max_min_rates(&caps, &paths);
        assert!((r[0] - 0.5).abs() < 1e-6, "r0={}", r[0]);
        assert!((r[1] - 0.5).abs() < 1e-6);
        assert!((r[2] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn empty_path_is_unconstrained() {
        let caps = [1.0];
        let p0: Vec<LinkId> = vec![];
        let p1 = ids(&[0]);
        let paths: Vec<&[LinkId]> = vec![&p0, &p1];
        let r = max_min_rates(&caps, &paths);
        assert!(r[0].is_infinite());
        assert!((r[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_capacity_link_pins_rate_to_zero() {
        let caps = [0.0, 10.0];
        let p0 = ids(&[0, 1]);
        let p1 = ids(&[1]);
        let paths: Vec<&[LinkId]> = vec![&p0, &p1];
        let r = max_min_rates(&caps, &paths);
        assert!(r[0].abs() < 1e-9);
        assert!((r[1] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn no_flows_is_fine() {
        let caps = [5.0];
        let paths: Vec<&[LinkId]> = vec![];
        assert!(max_min_rates(&caps, &paths).is_empty());
    }

    /// Runs the CSR implementation over `paths` flattened into a flow
    /// table, reusing `ws` across calls the way the fabric does.
    fn csr_rates(caps: &[f64], paths: &[&[LinkId]], ws: &mut MaxMinScratch) -> Vec<f64> {
        let mut flow_off: Vec<u32> = Vec::with_capacity(paths.len() + 1);
        let mut flow_links: Vec<LinkId> = Vec::new();
        flow_off.push(0);
        for p in paths {
            flow_links.extend_from_slice(p);
            flow_off.push(flow_links.len() as u32);
        }
        let mut rates = vec![0.0; paths.len()];
        max_min_rates_csr(caps, &flow_off, &flow_links, &mut rates, ws);
        rates
    }

    /// Bit-exact equality of two rate vectors (covers ±0.0 and infinities).
    fn assert_rates_identical(reference: &[f64], csr: &[f64], case: usize) {
        assert_eq!(reference.len(), csr.len());
        for (f, (a, b)) in reference.iter().zip(csr).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "case {case} flow {f}: reference {a} vs CSR {b}"
            );
        }
    }

    #[test]
    fn csr_matches_reference_on_degenerate_cases() {
        let mut ws = MaxMinScratch::new();
        // No flows at all.
        assert!(csr_rates(&[5.0], &[], &mut ws).is_empty());
        // Single flow, single link.
        let p = ids(&[0]);
        let paths: Vec<&[LinkId]> = vec![&p];
        assert_rates_identical(
            &max_min_rates(&[7.0], &paths),
            &csr_rates(&[7.0], &paths, &mut ws),
            1001,
        );
        // Empty path: unconstrained (infinite) rate on both sides.
        let empty: Vec<LinkId> = vec![];
        let paths: Vec<&[LinkId]> = vec![&empty, &p];
        assert_rates_identical(
            &max_min_rates(&[3.0], &paths),
            &csr_rates(&[3.0], &paths, &mut ws),
            1002,
        );
        // Zero-capacity link pins its flows to rate 0.
        let p0 = ids(&[0, 1]);
        let p1 = ids(&[1]);
        let paths: Vec<&[LinkId]> = vec![&p0, &p1];
        let caps = [0.0, 10.0];
        assert_rates_identical(
            &max_min_rates(&caps, &paths),
            &csr_rates(&caps, &paths, &mut ws),
            1003,
        );
        // All links zero-capacity.
        let caps = [0.0, 0.0];
        assert_rates_identical(
            &max_min_rates(&caps, &paths),
            &csr_rates(&caps, &paths, &mut ws),
            1004,
        );
    }

    /// Asserts the max-min characterization of `rates` over `paths`:
    /// (a) every flow with a path gets a finite, non-negative rate and no
    /// link is overloaded; (b) every such flow has a bottleneck link —
    /// saturated, and on which the flow's rate is maximal. Empty-path
    /// flows are skipped.
    fn assert_max_min(caps: &[f64], paths: &[&[LinkId]], rates: &[f64], what: &str) {
        let nl = caps.len();
        for (f, p) in paths.iter().enumerate() {
            if !p.is_empty() {
                assert!(
                    rates[f].is_finite() && rates[f] >= 0.0,
                    "{what}: flow {f} rate {}",
                    rates[f]
                );
            }
        }
        let loads = link_loads(nl, paths, rates);
        for l in 0..nl {
            assert!(loads[l] <= caps[l] + 1e-6, "{what}: link {l} overloaded");
        }
        for f in 0..paths.len() {
            if paths[f].is_empty() {
                continue;
            }
            let has_bottleneck = paths[f].iter().any(|l| {
                let l = l.index();
                let saturated = loads[l] >= caps[l] - 1e-6 * caps[l].max(1.0) - 1e-9;
                let max_on_link = paths
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.contains(&LinkId(l as u32)))
                    .map(|(g, _)| rates[g])
                    .fold(0.0f64, f64::max);
                saturated && rates[f] >= max_on_link - 1e-6 * max_on_link.max(1.0)
            });
            assert!(has_bottleneck, "{what}: flow {f} lacks a bottleneck link");
        }
    }

    #[test]
    fn feasibility_and_bottleneck_property_random() {
        // Pseudo-random instances (fixed seeds) checked against the max-min
        // characterization (see `assert_max_min`), and the optimized CSR
        // implementation reproduces the reference rates *bit for bit*,
        // reusing one workspace across all instances the way the fabric
        // does. The per-component solve the fabric and its oracle share is
        // checked against the same characterization on its own: a split
        // that separated flows sharing a link would overload that link.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ws = MaxMinScratch::new();
        let mut cs = ComponentScratch::default();
        for case in 0..200 {
            let nl = 3 + (next() % 8) as usize;
            let nf = 1 + (next() % 20) as usize;
            let caps: Vec<f64> = (0..nl)
                .map(|_| {
                    // ~5% of links have zero capacity, exercising the
                    // rate-0 pinning path.
                    if next() % 20 == 0 {
                        0.0
                    } else {
                        1.0 + (next() % 1000) as f64 / 10.0
                    }
                })
                .collect();
            let paths_own: Vec<Vec<LinkId>> = (0..nf)
                .map(|_| {
                    // ~10% of flows are machine-local (empty path).
                    let len = if next() % 10 == 0 {
                        0
                    } else {
                        1 + (next() % 3) as usize
                    };
                    let mut p: Vec<LinkId> = (0..len)
                        .map(|_| LinkId((next() % nl as u64) as u32))
                        .collect();
                    p.dedup();
                    p
                })
                .collect();
            let paths: Vec<&[LinkId]> = paths_own.iter().map(|p| p.as_slice()).collect();
            let rates = max_min_rates(&caps, &paths);
            assert_rates_identical(&rates, &csr_rates(&caps, &paths, &mut ws), case);
            for f in 0..nf {
                if paths[f].is_empty() {
                    // Unconstrained flow: infinite rate, no bottleneck.
                    assert!(rates[f].is_infinite());
                }
            }
            assert_max_min(&caps, &paths, &rates, &format!("case {case} reference"));

            let mut flow_off = vec![0u32];
            let flow_links: Vec<LinkId> = paths.concat();
            for p in &paths {
                flow_off.push(flow_off[flow_off.len() - 1] + p.len() as u32);
            }
            let mut by_comp = vec![f64::NAN; nf];
            max_min_rates_by_component(
                &caps,
                &flow_off,
                &flow_links,
                &mut by_comp,
                &mut cs,
                &mut ws,
            );
            assert_max_min(
                &caps,
                &paths,
                &by_comp,
                &format!("case {case} by component"),
            );
        }
    }

    #[test]
    fn by_component_solves_each_component_on_its_compacted_subproblem() {
        // Two components — {links 0, 2} and {links 1, 3} — interleaved in
        // flow order, plus an empty-path flow the solve must not touch.
        let caps = [10.0, 4.0, 3.0, 9.0];
        let flow_off = [0, 2, 3, 3, 5, 6];
        let flow_links = ids(&[0, 2, 1, 1, 3, 0]);
        let mut rates = [-1.0; 5];
        let mut cs = ComponentScratch::default();
        let mut ws = MaxMinScratch::new();
        let rounds =
            max_min_rates_by_component(&caps, &flow_off, &flow_links, &mut rates, &mut cs, &mut ws);
        assert!(rounds >= 2, "one solve per component");
        assert_eq!(rates[2], -1.0, "empty-path flow left untouched");
        // Each component alone, compacted by link rank, via the CSR kernel.
        let mut a = [0.0; 2];
        max_min_rates_csr(&[10.0, 3.0], &[0, 2, 3], &ids(&[0, 1, 0]), &mut a, &mut ws);
        let mut b = [0.0; 2];
        max_min_rates_csr(&[4.0, 9.0], &[0, 1, 3], &ids(&[0, 0, 1]), &mut b, &mut ws);
        assert_rates_identical(
            &[a[0], b[0], b[1], a[1]],
            &[rates[0], rates[1], rates[3], rates[4]],
            2001,
        );
    }
}
