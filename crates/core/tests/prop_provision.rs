//! The fast-path identity proof, executable form: the heap-driven,
//! scratch-scored provisioning loop must reproduce [`provision_reference`]
//! — the frozen pre-optimization implementation — **bit for bit**: same
//! rack counts, same objective-value bits, same schedule (job, racks,
//! start/finish/arrival bits), same candidate counts. Randomized over job
//! counts, latency profiles, arrivals, pins (valid, duplicated, and
//! out-of-range), both objectives and both exploration modes: 64
//! generated cases × 2 objectives × 2 modes = 256 compared plans per run.

#[path = "support/provision_reference.rs"]
mod provision_reference;

use corral_core::latency::{LatencyModel, ResponseOptions};
use corral_core::provision::{provision, ProvisionMode, ProvisionOutcome};
use corral_core::Objective;
use corral_model::{
    Bandwidth, Bytes, ClusterConfig, JobId, JobProfile, MapReduceProfile, RackId, SimTime,
};
use proptest::prelude::*;
use provision_reference::provision_reference;

/// One randomly generated planning problem.
#[derive(Debug, Clone)]
struct Case {
    racks: usize,
    models: Vec<LatencyModel>,
    jobs: Vec<(JobId, SimTime)>,
    pins: Vec<Option<Vec<RackId>>>,
}

fn cluster(racks: usize) -> ClusterConfig {
    ClusterConfig {
        racks,
        ..ClusterConfig::testbed_210()
    }
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (1usize..=9).prop_flat_map(|racks| {
        let job = (
            1e8f64..5e11, // input
            1e7f64..5e11, // shuffle
            1usize..600,  // maps
            0.0f64..1e4,  // arrival
        );
        // A pin is 1–4 rack ids drawn from 0..racks+2, so some pins hold
        // duplicates and ids past the edge of the cluster — exactly the
        // inputs the pin-validation boundary must normalize identically
        // on every path.
        let pin = proptest::option::of(proptest::collection::vec(0u32..(racks as u32 + 2), 1..=4));
        proptest::collection::vec((job, pin), 0..=12).prop_map(move |raw| {
            let cfg = cluster(racks);
            let mut c = Case {
                racks,
                models: Vec::new(),
                jobs: Vec::new(),
                pins: Vec::new(),
            };
            for (i, ((input, shuffle, maps, arrival), pin)) in raw.into_iter().enumerate() {
                let mr = MapReduceProfile {
                    input: Bytes(input),
                    shuffle: Bytes(shuffle),
                    output: Bytes(input / 10.0),
                    maps,
                    reduces: (maps / 2).max(1),
                    map_rate: Bandwidth::mbytes_per_sec(100.0),
                    reduce_rate: Bandwidth::mbytes_per_sec(100.0),
                };
                c.models.push(LatencyModel::build(
                    &JobProfile::MapReduce(mr),
                    &cfg,
                    &ResponseOptions::default(),
                ));
                c.jobs.push((JobId(i as u32), SimTime(arrival)));
                c.pins
                    .push(pin.map(|ids| ids.into_iter().map(RackId).collect()));
            }
            c
        })
    })
}

/// Bit-level equality of two provisioning outcomes.
fn assert_identical(label: &str, a: &ProvisionOutcome, b: &ProvisionOutcome) {
    assert_eq!(a.racks, b.racks, "{label}: rack counts diverge");
    assert_eq!(
        a.objective_value.to_bits(),
        b.objective_value.to_bits(),
        "{label}: objective bits diverge ({} vs {})",
        a.objective_value,
        b.objective_value
    );
    assert_eq!(a.schedule.len(), b.schedule.len(), "{label}: schedule size");
    for (x, y) in a.schedule.iter().zip(&b.schedule) {
        assert_eq!(x.job, y.job, "{label}: schedule order");
        assert_eq!(x.racks, y.racks, "{label}: rack set of {:?}", x.job);
        assert_eq!(
            x.start.0.to_bits(),
            y.start.0.to_bits(),
            "{label}: start bits of {:?}",
            x.job
        );
        assert_eq!(
            x.finish.0.to_bits(),
            y.finish.0.to_bits(),
            "{label}: finish bits of {:?}",
            x.job
        );
        assert_eq!(
            x.arrival.0.to_bits(),
            y.arrival.0.to_bits(),
            "{label}: arrival bits of {:?}",
            x.job
        );
    }
    assert_eq!(
        a.stats.candidates, b.stats.candidates,
        "{label}: candidate counts diverge"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_path_is_bit_identical_to_reference(case in case_strategy()) {
        for objective in [Objective::Makespan, Objective::AvgCompletionTime] {
            for mode in [ProvisionMode::Exhaustive, ProvisionMode::EarlyStop] {
                let label = format!("{objective:?}/{mode:?}");
                let reference = provision_reference(
                    &case.models, &case.jobs, &case.pins, case.racks, objective, mode,
                );
                let fast = provision(
                    &case.models, &case.jobs, &case.pins, case.racks, objective, mode,
                );
                assert_identical(&label, &reference, &fast);
            }
        }
    }
}
