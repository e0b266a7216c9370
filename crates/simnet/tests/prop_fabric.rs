//! Property tests for the fluid fabric: allocation invariants and
//! end-to-end conservation.

use corral_model::{Bytes, ClusterConfig, MachineId};
use corral_simnet::maxmin::link_loads;
use corral_simnet::{
    AllocScratch, CoflowId, Fabric, FlowKind, FlowSpec, FlowTable, FlowTag, LinkId, RatePolicy,
    Topology,
};
use proptest::prelude::*;

fn cfg() -> ClusterConfig {
    ClusterConfig::tiny_test()
}

/// Solves the network flows of `specs` (machine-local ones dropped) from
/// scratch under `policy`; returns their paths and rates.
fn solve(
    topo: &Topology,
    specs: &[(u32, u32, f64, Option<u64>)],
    policy: RatePolicy,
) -> (Vec<Vec<LinkId>>, Vec<f64>) {
    let net: Vec<_> = specs.iter().filter(|(s, d, _, _)| s != d).collect();
    let paths: Vec<Vec<LinkId>> = net
        .iter()
        .map(|(s, d, _, _)| topo.path(MachineId(*s), MachineId(*d)).as_slice().to_vec())
        .collect();
    let mut flow_off = vec![0u32];
    for p in &paths {
        flow_off.push(flow_off.last().unwrap() + p.len() as u32);
    }
    let flow_links: Vec<LinkId> = paths.concat();
    let remaining: Vec<f64> = net.iter().map(|f| f.2).collect();
    let coflow: Vec<Option<CoflowId>> = net.iter().map(|f| f.3.map(CoflowId)).collect();
    let table = FlowTable {
        flow_off: &flow_off,
        flow_links: &flow_links,
        remaining: &remaining,
        coflow: &coflow,
    };
    let mut rates = vec![0.0; net.len()];
    policy.allocate_from_scratch(topo.links(), &table, &mut rates, &mut AllocScratch::new());
    (paths, rates)
}

/// Strategy: a set of random flows on the tiny topology.
fn flows(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u32, u32, f64, Option<u64>)>> {
    proptest::collection::vec(
        (
            0u32..12,
            0u32..12,
            1e3f64..1e10,
            proptest::option::of(0u64..5),
        ),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Max-min rates are always feasible and Pareto-bottlenecked.
    #[test]
    fn maxmin_feasible_and_bottlenecked(specs in flows(1..24)) {
        let topo = Topology::new(cfg());
        let caps: Vec<f64> = topo.links().iter().map(|l| l.effective_capacity().0).collect();
        let (paths_own, rates) = solve(&topo, &specs, RatePolicy::FairShare);
        prop_assume!(!paths_own.is_empty());
        let paths: Vec<&[LinkId]> = paths_own.iter().map(|p| p.as_slice()).collect();
        let loads = link_loads(caps.len(), &paths, &rates);
        for (l, &load) in loads.iter().enumerate() {
            prop_assert!(load <= caps[l] * (1.0 + 1e-6) + 1e-6, "link {l} overloaded");
        }
        // Every flow is capped by a saturated link it crosses.
        for (f, p) in paths.iter().enumerate() {
            let bottleneck = p.iter().any(|l| loads[l.index()] >= caps[l.index()] - 1e-6 * caps[l.index()].max(1.0));
            prop_assert!(bottleneck, "flow {f} has headroom everywhere");
        }
    }

    /// Varys allocations are feasible too, and never starve every flow.
    #[test]
    fn varys_feasible(specs in flows(1..24)) {
        let topo = Topology::new(cfg());
        let (paths_own, rates) = solve(&topo, &specs, RatePolicy::Varys);
        prop_assume!(!paths_own.is_empty());
        let paths: Vec<&[LinkId]> = paths_own.iter().map(|p| p.as_slice()).collect();
        let caps: Vec<f64> = topo.links().iter().map(|l| l.effective_capacity().0).collect();
        let loads = link_loads(caps.len(), &paths, &rates);
        for (l, &load) in loads.iter().enumerate() {
            prop_assert!(load <= caps[l] * (1.0 + 1e-6) + 1e-6, "link {l} overloaded");
        }
        // Work conservation: at least one flow gets positive rate.
        prop_assert!(rates.iter().any(|&r| r > 0.0));
    }

    /// End-to-end conservation: draining random flows transfers exactly
    /// their byte volumes, and stats account for every byte.
    #[test]
    fn fabric_conserves_bytes(specs in flows(1..16)) {
        let mut fabric = Fabric::new(cfg(), RatePolicy::FairShare);
        let mut total = 0.0;
        let mut n = 0;
        for (s, d, bytes, cf) in &specs {
            fabric.start_flow(FlowSpec {
                src: MachineId(*s),
                dst: MachineId(*d),
                bytes: Bytes(*bytes),
                tag: FlowTag::infrastructure(FlowKind::Shuffle),
                coflow: cf.map(CoflowId),
            });
            total += bytes;
            n += 1;
        }
        let done = fabric.drain();
        prop_assert_eq!(done.len(), n);
        let accounted = fabric.stats().network_bytes.0 + fabric.stats().local_bytes.0;
        prop_assert!((accounted - total).abs() <= 1e-6 * total + n as f64,
            "accounted {accounted} vs injected {total}");
        // Completion times are non-decreasing.
        for w in done.windows(2) {
            prop_assert!(w[1].finished.0 >= w[0].finished.0 - 1e-9);
        }
    }

    /// Determinism under the Varys allocator as well.
    #[test]
    fn varys_drain_deterministic(specs in flows(1..12)) {
        let run = |specs: &[(u32, u32, f64, Option<u64>)]| {
            let mut fabric = Fabric::new(cfg(), RatePolicy::Varys);
            for (s, d, bytes, cf) in specs {
                fabric.start_flow(FlowSpec {
                    src: MachineId(*s),
                    dst: MachineId(*d),
                    bytes: Bytes(*bytes),
                    tag: FlowTag::infrastructure(FlowKind::Shuffle),
                    coflow: cf.map(CoflowId),
                });
            }
            fabric
                .drain()
                .into_iter()
                .map(|c| (c.id, c.finished.0.to_bits()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(&specs), run(&specs));
    }
}
