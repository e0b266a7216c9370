//! Golden decision counts of the resident scheduler (`corral-serve`)
//! under W1- and W2-shaped arrival streams at three cluster scales, a
//! recurring-template stream, and one 10,020-machine cell. The service
//! loop is deterministic, so each count (admissions, rejections,
//! dispatches and completions summed) is exact: drift means admission,
//! replanning or the dispatch timer cascade changed behavior. The small
//! and recurring cells run with the oracle tripwire armed, so every
//! incremental replan is also checked plan-equal to a fresh batch plan.

use corral_core::Objective;
use corral_model::{ClusterConfig, JobId, JobSpec, SimTime};
use corral_serve::source::events_from_specs;
use corral_serve::{Scheduler, ServeConfig, ServeEvent};
use corral_workloads::{assign_uniform_arrivals, w1, w2, Scale};

/// `(cell, workload, jobs, racks, seed, tripwire, golden decisions)`.
type Cell = (&'static str, &'static str, usize, usize, u64, bool, u64);

const CELLS: [Cell; 7] = [
    ("w1-small", "w1", 40, 7, 0x5E41, true, 120),
    ("w2-small", "w2", 40, 7, 0x5E42, true, 120),
    ("w1-medium", "w1", 120, 12, 0x5E43, false, 360),
    ("w2-medium", "w2", 120, 12, 0x5E44, false, 360),
    ("w1-large", "w1", 320, 24, 0x5E45, false, 960),
    ("w2-large", "w2", 320, 24, 0x5E46, false, 960),
    ("recur-medium", "recur", 200, 12, 0x5E47, true, 600),
];

/// The planner-bound scale cell: 334 racks, the serving-side companion
/// of fig14xl's fabric scale-out.
const XL: Cell = ("w1-xl", "w1", 320, 334, 0x5E48, false, 960);

/// The cell's arrival stream. W1/W2 arrive uniformly over an hour; the
/// recurring stream replays one W1 template every two hours, so each run
/// drains before the next arrives and every admission replans the same
/// now-relative problem.
fn stream(workload: &str, jobs: usize, seed: u64) -> Vec<ServeEvent> {
    let scale = Scale::bench_default();
    let mut specs: Vec<JobSpec> = match workload {
        "w1" => w1::generate(
            &w1::W1Params {
                jobs,
                ..w1::W1Params::with_seed(seed)
            },
            scale,
        ),
        "w2" => w2::generate(
            &w2::W2Params {
                jobs,
                seed,
                ..Default::default()
            },
            scale,
        ),
        "recur" => {
            let template = w1::generate(&w1::W1Params::with_seed(seed), scale).remove(0);
            let replays: Vec<JobSpec> = (0..jobs)
                .map(|i| JobSpec {
                    id: JobId(i as u32),
                    name: format!("recur-{i:03}"),
                    arrival: SimTime::minutes(120.0 * i as f64),
                    ..template.clone()
                })
                .collect();
            return events_from_specs(&replays);
        }
        other => unreachable!("unknown workload {other}"),
    };
    assign_uniform_arrivals(&mut specs, SimTime::minutes(60.0), seed ^ 0xA);
    events_from_specs(&specs)
}

fn check(cell: Cell) {
    let (name, workload, jobs, racks, seed, tripwire, golden) = cell;
    let mut sched = Scheduler::new(ServeConfig {
        cluster: ClusterConfig {
            racks,
            ..ClusterConfig::testbed_210()
        },
        objective: Objective::AvgCompletionTime,
        tripwire,
        ..ServeConfig::default()
    });
    let mut out = Vec::new();
    let stats = sched.run(stream(workload, jobs, seed), &mut out);
    assert_eq!(stats.decisions as usize, out.len());
    assert_eq!(stats.decisions, golden, "{name}: decision count drifted");
}

#[test]
fn serve_cells_hit_golden_decision_counts() {
    for cell in CELLS {
        check(cell);
    }
}

#[test]
fn serve_xl_cell_hits_golden_decision_count() {
    check(XL);
}
