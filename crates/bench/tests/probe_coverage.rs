//! Probe-wiring coverage: with `corral-probe` on, small live runs of the
//! engine (every variant, under both network policies, on a sweep pool)
//! and of the serving loop must leave every hot-path span kind and the
//! cause counters below non-empty. An empty one means the
//! instrumentation — or the code path that feeds it — regressed. Span
//! presence is deterministic; wall-clock is never asserted.
//!
//! Kept as a single `#[test]` in its own binary: the probe's enabled
//! flag and merge accumulator are process-global, so sharing a binary
//! with concurrently-running tests would race on them.

use corral_bench::runner::{run_variant, RunConfig, Variant};
use corral_cluster::config::{NetPolicy, SimParams};
use corral_core::{Objective, PlannerConfig};
use corral_model::{ClusterConfig, SimTime};
use corral_serve::source::events_from_specs;
use corral_serve::{Scheduler, ServeConfig};
use corral_sweep::SweepPool;
use corral_trace::probe::{self, SpanKind};
use corral_workloads::{assign_uniform_arrivals, w1, Scale};

const REQUIRED_SPANS: [SpanKind; 8] = [
    SpanKind::FabricRecompute,
    SpanKind::FabricMaxMin,
    SpanKind::CandidateScore,
    SpanKind::Provision,
    SpanKind::PlanDecision,
    SpanKind::EngineEvent,
    SpanKind::SweepCell,
    SpanKind::ServeDecision,
];

/// The four labels perfbench reads by name (`perfbench/src/main.rs`):
/// renaming or dropping one would silently zero a perfbench metric.
/// Plus the Varys scratch footprint gauge, which only the Varys runs
/// feed.
const REQUIRED_COUNTERS: [&str; 5] = [
    "maxmin.rounds",
    "fabric.dirty_flows_sum",
    "fabric.dirty_flows_samples",
    "planner.heap_pops",
    "fabric.varys_scratch_elems",
];

#[test]
fn live_runs_exercise_every_required_span_and_counter() {
    let mut jobs = w1::generate(
        &w1::W1Params {
            jobs: 8,
            ..w1::W1Params::with_seed(17)
        },
        Scale {
            task_divisor: 10.0,
            data_divisor: 10.0,
        },
    );
    assign_uniform_arrivals(&mut jobs, SimTime::minutes(5.0), 0x1);
    let rc = |net| RunConfig {
        params: SimParams {
            cluster: ClusterConfig::tiny_test(),
            horizon: SimTime::hours(10.0),
            net,
            ..SimParams::testbed()
        },
        objective: Objective::Makespan,
        planner: PlannerConfig::default(),
    };

    probe::set_enabled(true);
    probe::reset();
    let nets = [NetPolicy::Tcp, NetPolicy::Varys];
    let nv = Variant::ALL.len();
    let reports = SweepPool::new(2)
        .progress(false)
        .run_all(nets.len() * nv, |i| {
            run_variant(Variant::ALL[i % nv], &jobs, &rc(nets[i / nv]))
        });
    assert!(reports.iter().all(|r| r.unfinished == 0));
    let mut out = Vec::new();
    Scheduler::new(ServeConfig {
        cluster: ClusterConfig::tiny_test(),
        tripwire: true,
        ..ServeConfig::default()
    })
    .run(events_from_specs(&jobs), &mut out);
    assert!(!out.is_empty());
    probe::flush_thread();
    let report = probe::report();
    probe::set_enabled(false);

    let missing: Vec<&str> = REQUIRED_SPANS
        .iter()
        .filter(|&&k| report.span_stat(k).is_none())
        .map(|k| k.label())
        .collect();
    assert!(
        missing.is_empty(),
        "spans left empty: {}",
        missing.join(", ")
    );
    let zero: Vec<&str> = REQUIRED_COUNTERS
        .iter()
        .copied()
        .filter(|&want| !report.counters.iter().any(|&(l, v)| l == want && v > 0))
        .collect();
    assert!(zero.is_empty(), "counters left zero: {}", zero.join(", "));
}
