//! Criterion bench: the from-scratch rate solves of both network
//! policies — per-component max-min and Varys SEBF — at realistic flow
//! counts, plus end-to-end fabric drain throughput.

use corral_model::{Bytes, ClusterConfig, MachineId};
use corral_simnet::{AllocScratch, CoflowId, FlowTable, LinkId, RatePolicy, Topology};
use corral_simnet::{Fabric, FlowKind, FlowSpec, FlowTag};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A deterministic CSR flow table of up to `n` flows on the testbed
/// topology (machine-local pairs skipped).
struct FlowSet {
    flow_off: Vec<u32>,
    flow_links: Vec<LinkId>,
    remaining: Vec<f64>,
    coflow: Vec<Option<CoflowId>>,
}

impl FlowSet {
    fn new(topo: &Topology, n: usize) -> Self {
        let m = topo.config().total_machines();
        let mut set = FlowSet {
            flow_off: vec![0],
            flow_links: Vec::new(),
            remaining: Vec::new(),
            coflow: Vec::new(),
        };
        for i in 0..n {
            let src = MachineId(((i * 37) % m) as u32);
            let dst = MachineId(((i * 101 + 13) % m) as u32);
            if src == dst {
                continue;
            }
            set.flow_links
                .extend_from_slice(topo.path(src, dst).as_slice());
            set.flow_off.push(set.flow_links.len() as u32);
            set.remaining.push(Bytes::mb(64.0 + (i % 100) as f64).0);
            set.coflow.push(Some(CoflowId((i % 24) as u64)));
        }
        set
    }

    fn table(&self) -> FlowTable<'_> {
        FlowTable {
            flow_off: &self.flow_off,
            flow_links: &self.flow_links,
            remaining: &self.remaining,
            coflow: &self.coflow,
        }
    }
}

fn bench_allocators(c: &mut Criterion) {
    let topo = Topology::new(ClusterConfig::testbed_210());
    let mut group = c.benchmark_group("rate_allocation");
    for &n in &[500usize, 2000] {
        let set = FlowSet::new(&topo, n);
        let mut rates = vec![0.0; set.remaining.len()];
        let mut scratch = AllocScratch::new();
        for (name, policy) in [
            ("maxmin", RatePolicy::FairShare),
            ("varys_sebf", RatePolicy::Varys),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &set, |b, set| {
                let table = set.table();
                b.iter(|| {
                    policy.allocate_from_scratch(topo.links(), &table, &mut rates, &mut scratch)
                });
            });
        }
    }
    group.finish();
}

fn bench_fabric_drain(c: &mut Criterion) {
    c.bench_function("fabric_drain_1000_flows", |b| {
        b.iter(|| {
            let mut fabric = Fabric::new(ClusterConfig::testbed_210(), RatePolicy::FairShare);
            let m = fabric.topology().config().total_machines();
            for i in 0..1000u32 {
                fabric.start_flow(FlowSpec {
                    src: MachineId((i as usize * 29 % m) as u32),
                    dst: MachineId((i as usize * 53 + 7) as u32 % m as u32),
                    bytes: Bytes::mb(32.0),
                    tag: FlowTag::infrastructure(FlowKind::Shuffle),
                    coflow: None,
                });
            }
            let done = fabric.drain();
            assert_eq!(done.len(), 1000);
            done.len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_allocators, bench_fabric_drain
}
criterion_main!(benches);
