//! Ablations of Corral's design choices (beyond the paper's figures, but
//! directly probing the decisions DESIGN.md calls out):
//!
//! * **α (data-imbalance penalty, §4.5)** — α = 0 vs the default
//!   (1/rack-core-bandwidth) vs 10×: effect on input balance (CoV) and on
//!   makespan.
//! * **Plan priorities (§3.1)** — Corral with the planner's priority order
//!   vs the same rack sets with flattened priorities (arrival order
//!   decides): how much of the win is *ordering* vs *placement*.
//! * **Delay scheduling (Yarn-CS)** — locality wait 0/3/10 scheduling
//!   opportunities: cross-rack input traffic vs completion time.
//! * **Ingest modeling (§2/§7)** — preloaded input vs simulated upload
//!   with increasing head start: how much upload latency the lead time
//!   hides.

use crate::experiments::{workload, workload_online};
use crate::runner::{run_variant, RunConfig, Variant};
use crate::table;
use corral_cluster::config::{poisson_churn, DataPlacement, IngestMode, StragglerModel};
use corral_cluster::engine::Engine;
use corral_cluster::scheduler::SchedulerKind;
use corral_core::{plan_jobs, Objective};
use corral_model::SimTime;

/// α ablation: balance vs performance.
fn alpha_ablation() {
    table::section("Ablation: imbalance penalty α (W1 batch)");
    table::row(&["alpha", "input CoV", "makespan"]);
    let jobs = workload("W1");
    let mut csv = Vec::new();
    for (label, alpha) in [
        ("0", Some(0.0)),
        ("default", None),
        ("10x", Some(10.0 / 3.75e9)),
    ] {
        let mut rc = RunConfig::testbed(Objective::Makespan);
        rc.planner.response.alpha = alpha;
        let r = run_variant(Variant::Corral, &jobs, &rc);
        table::row(&[
            label.to_string(),
            format!("{:.4}", r.input_balance_cov),
            table::secs(r.makespan.as_secs()),
        ]);
        csv.push(vec![
            alpha.unwrap_or(-1.0),
            r.input_balance_cov,
            r.makespan.as_secs(),
        ]);
    }
    table::write_csv("ablation_alpha", &["alpha", "cov", "makespan_s"], &csv);
}

/// Priority ablation: placement with vs without the planner's ordering.
fn priority_ablation() {
    table::section("Ablation: plan priorities vs flattened (W1 batch)");
    table::row(&["variant", "makespan"]);
    let jobs = workload("W1");
    let rc = RunConfig::testbed(Objective::Makespan);

    let with = run_variant(Variant::Corral, &jobs, &rc).makespan.as_secs();

    // Same rack sets, flattened priorities.
    let mut plan = plan_jobs(&rc.params.cluster, &jobs, rc.objective, &rc.planner);
    for (_, e) in plan.entries.iter_mut() {
        e.priority = 0;
    }
    let mut params = rc.params.clone();
    params.placement = DataPlacement::PerPlan;
    let without = Engine::new(params, jobs.clone(), &plan, SchedulerKind::Planned)
        .run()
        .makespan
        .as_secs();

    table::row(&["planned order".to_string(), table::secs(with)]);
    table::row(&["flattened".to_string(), table::secs(without)]);
    table::write_csv(
        "ablation_priorities",
        &["with_priorities_s", "flattened_s"],
        &[vec![with, without]],
    );
}

/// Delay-scheduling ablation for the Yarn-CS baseline.
fn delay_sched_ablation() {
    table::section("Ablation: Yarn-CS delay-scheduling wait (W1 batch)");
    table::row(&["wait", "cross-rack GB", "makespan"]);
    let jobs = workload("W1");
    let mut csv = Vec::new();
    for wait in [0u32, 3, 10] {
        let mut rc = RunConfig::testbed(Objective::Makespan);
        rc.params.locality_wait_slots = wait;
        let r = run_variant(Variant::YarnCs, &jobs, &rc);
        table::row(&[
            format!("{wait}"),
            format!("{:.0}", r.cross_rack_bytes.as_gb()),
            table::secs(r.makespan.as_secs()),
        ]);
        csv.push(vec![
            wait as f64,
            r.cross_rack_bytes.as_gb(),
            r.makespan.as_secs(),
        ]);
    }
    table::write_csv(
        "ablation_delay_sched",
        &["wait", "cross_rack_gb", "makespan_s"],
        &csv,
    );
}

/// Ingest ablation: upload modeling and lead time. Online arrivals — with
/// a batch (all arrivals at 0) every lead time clamps to zero and the
/// sweep would be degenerate.
fn ingest_ablation() {
    table::section("Ablation: input upload modeling (W1 online, Corral)");
    table::row(&["ingest", "makespan", "median jct"]);
    let jobs = workload_online("W1", 0xAB1);
    let mut csv = Vec::new();
    for (label, mode) in [
        ("preloaded", IngestMode::Preloaded),
        (
            "upload, no lead",
            IngestMode::Simulated {
                lead_time: SimTime::ZERO,
            },
        ),
        (
            "upload, 10min lead",
            IngestMode::Simulated {
                lead_time: SimTime::minutes(10.0),
            },
        ),
        (
            "upload, 60min lead",
            IngestMode::Simulated {
                lead_time: SimTime::minutes(60.0),
            },
        ),
    ] {
        let mut rc = RunConfig::testbed(Objective::AvgCompletionTime);
        rc.params.ingest = mode;
        let r = run_variant(Variant::Corral, &jobs, &rc);
        assert_eq!(r.unfinished, 0, "{label}: unfinished");
        table::row(&[
            label.to_string(),
            table::secs(r.makespan.as_secs()),
            table::secs(r.median_completion_time()),
        ]);
        let lead = match mode {
            IngestMode::Preloaded => -1.0,
            IngestMode::Simulated { lead_time } => lead_time.as_secs(),
        };
        csv.push(vec![lead, r.makespan.as_secs(), r.median_completion_time()]);
    }
    table::write_csv(
        "ablation_ingest",
        &["lead_s", "makespan_s", "median_jct_s"],
        &csv,
    );
}

/// Straggler / speculative-execution ablation (runtime factors the
/// planner's latency model deliberately ignores, §4.3).
fn straggler_ablation() {
    table::section("Ablation: stragglers & speculative execution (W1 batch, Corral)");
    table::row(&["variant", "makespan", "p90 jct"]);
    let jobs = workload("W1");
    let mut csv = Vec::new();
    for (label, model) in [
        ("no stragglers", None),
        (
            "stragglers",
            Some(StragglerModel {
                probability: 0.05,
                slowdown: 5.0,
                speculate: false,
                spec_threshold: 1.5,
            }),
        ),
        (
            "with speculation",
            Some(StragglerModel {
                probability: 0.05,
                slowdown: 5.0,
                speculate: true,
                spec_threshold: 1.5,
            }),
        ),
    ] {
        let mut rc = RunConfig::testbed(Objective::Makespan);
        rc.params.stragglers = model;
        let r = run_variant(Variant::Corral, &jobs, &rc);
        let t = r.completion_times();
        table::row(&[
            label.to_string(),
            table::secs(r.makespan.as_secs()),
            table::secs(corral_trace::percentile(&t, 90.0)),
        ]);
        csv.push(vec![
            model.map(|m| m.probability).unwrap_or(0.0),
            model
                .map(|m| if m.speculate { 1.0 } else { 0.0 })
                .unwrap_or(0.0),
            r.makespan.as_secs(),
        ]);
    }
    table::write_csv(
        "ablation_stragglers",
        &["prob", "speculate", "makespan_s"],
        &csv,
    );
}

/// Machine churn ablation (§7 resilience beyond single injected failures).
fn churn_ablation() {
    table::section("Ablation: machine churn (W1 batch)");
    table::row(&["MTBF", "yarn-cs", "corral"]);
    let jobs = workload("W1");
    let mut csv = Vec::new();
    for (label, mtbf_min) in [("none", 0.0), ("60min", 60.0), ("20min", 20.0)] {
        let mut rc = RunConfig::testbed(Objective::Makespan);
        if mtbf_min > 0.0 {
            rc.params.failures = poisson_churn(
                &rc.params.cluster,
                corral_model::SimTime::minutes(mtbf_min),
                corral_model::SimTime::minutes(2.0),
                corral_model::SimTime::hours(6.0),
                0xC1124,
            );
        }
        let y = run_variant(Variant::YarnCs, &jobs, &rc);
        let c = run_variant(Variant::Corral, &jobs, &rc);
        assert_eq!(y.unfinished + c.unfinished, 0, "churn must not strand jobs");
        table::row(&[
            label.to_string(),
            table::secs(y.makespan.as_secs()),
            table::secs(c.makespan.as_secs()),
        ]);
        csv.push(vec![mtbf_min, y.makespan.as_secs(), c.makespan.as_secs()]);
    }
    table::write_csv("ablation_churn", &["mtbf_min", "yarn_s", "corral_s"], &csv);
}

/// Runs all ablations.
pub fn main() {
    alpha_ablation();
    priority_ablation();
    delay_sched_ablation();
    ingest_ablation();
    straggler_ablation();
    churn_ablation();
}
