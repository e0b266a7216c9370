//! The fast-path identity proof, executable form: the heap-driven,
//! scratch-scored provisioning loop must reproduce [`provision_reference`]
//! — the frozen pre-optimization implementation — **bit for bit**: same
//! rack counts, same objective-value bits, same schedule (job, racks,
//! start/finish/arrival bits), same candidate counts. Randomized over job
//! counts, latency profiles, arrivals, pins (valid, duplicated, and
//! out-of-range), both objectives and both exploration modes: 64
//! generated cases × 2 objectives × 2 modes = 256 compared plans per run.
//!
//! A second, serve-shaped generator aims at the invariant-prefix rule of
//! the online order: mostly pinned jobs, one to three unpinned ones, up
//! to 40 racks, and arrivals from a small set with negative values,
//! `-0.0`, `0.0` and exact ties between pinned and unpinned jobs.

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

/// A MapReduce latency model of the given volumes on `cfg`.
fn model(cfg: &ClusterConfig, input: f64, shuffle: f64, maps: usize) -> LatencyModel {
    let mr = MapReduceProfile {
        input: Bytes(input),
        shuffle: Bytes(shuffle),
        output: Bytes(input / 10.0),
        maps,
        reduces: (maps / 2).max(1),
        map_rate: Bandwidth::mbytes_per_sec(100.0),
        reduce_rate: Bandwidth::mbytes_per_sec(100.0),
    };
    LatencyModel::build(&JobProfile::MapReduce(mr), cfg, &ResponseOptions::default())
}

/// Latency-profile draws of one job: input, shuffle, maps.
fn volumes() -> impl Strategy<Value = (f64, f64, usize)> {
    (1e8f64..5e11, 1e7f64..5e11, 1usize..600)
}

/// A pin is 1–4 rack ids drawn from `0..racks+2`, so some pins hold
/// duplicates and ids past the edge of the cluster — exactly the inputs
/// the pin-validation boundary must normalize identically on every path.
fn pin(racks: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..(racks as u32 + 2), 1..=4)
}

/// One job's draws: volumes, arrival, raw pin.
type RawJob = ((f64, f64, usize), f64, Option<Vec<u32>>);

/// Assembles a case from per-job draws, in order: job `i` gets id `i`.
fn build_case(racks: usize, raw: Vec<RawJob>) -> Case {
    let cfg = cluster(racks);
    let mut c = Case {
        racks,
        models: Vec::new(),
        jobs: Vec::new(),
        pins: Vec::new(),
    };
    for (i, ((input, shuffle, maps), arrival, pin)) in raw.into_iter().enumerate() {
        c.models.push(model(&cfg, input, shuffle, maps));
        c.jobs.push((JobId(i as u32), SimTime(arrival)));
        c.pins
            .push(pin.map(|ids| ids.into_iter().map(RackId).collect()));
    }
    c
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (1usize..=9).prop_flat_map(|racks| {
        let job = (volumes(), 0.0f64..1e4, proptest::option::of(pin(racks)));
        proptest::collection::vec(job, 0..=12).prop_map(move |raw| build_case(racks, raw))
    })
}

/// The arrivals of the serve-shaped generator: a replan's relative
/// times, where queued and running jobs sit at or below zero and a
/// newcomer arrives at exactly `0.0`.
const SERVE_ARRIVALS: [f64; 6] = [-900.0, -60.0, -2.5, -0.0, 0.0, 30.0];

/// Serve-shaped cases: up to 24 pinned jobs and 1–3 unpinned ones
/// inserted among them, on up to 40 racks, every arrival drawn from
/// [`SERVE_ARRIVALS`] so that pinned and unpinned jobs often tie.
fn serve_case_strategy() -> impl Strategy<Value = Case> {
    (1usize..=40).prop_flat_map(|racks| {
        let arrival = || 0..SERVE_ARRIVALS.len();
        let pinned = proptest::collection::vec((volumes(), arrival(), pin(racks)), 0..=24);
        let unpinned = proptest::collection::vec((volumes(), arrival(), 0usize..25), 1..=3);
        (pinned, unpinned).prop_map(move |(pinned, unpinned)| {
            let mut raw: Vec<_> = pinned
                .into_iter()
                .map(|(v, a, p)| (v, SERVE_ARRIVALS[a], Some(p)))
                .collect();
            for (v, a, at) in unpinned {
                let at = at % (raw.len() + 1);
                raw.insert(at, (v, SERVE_ARRIVALS[a], None));
            }
            build_case(racks, raw)
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

/// Plans `case` with the reference and the fast path under both
/// objectives and both modes and holds them together bit for bit. The
/// reference replays every job per candidate; the fast path places no
/// more, and exactly as many under the batch order, which has no prefix.
fn check_case(case: &Case) {
    for objective in [Objective::Makespan, Objective::AvgCompletionTime] {
        for mode in [ProvisionMode::Exhaustive, ProvisionMode::EarlyStop] {
            let label = format!("{objective:?}/{mode:?}");
            let models: Vec<&LatencyModel> = case.models.iter().collect();
            let reference =
                provision_reference(&models, &case.jobs, &case.pins, case.racks, objective, mode);
            let fast = provision(&models, &case.jobs, &case.pins, case.racks, objective, mode);
            assert_identical(&label, &reference, &fast);
            assert!(
                fast.stats.placements <= reference.stats.placements,
                "{label}: more placements than a full replay"
            );
            if objective == Objective::Makespan {
                assert_eq!(
                    fast.stats.placements, reference.stats.placements,
                    "{label}: the batch order has no prefix"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_path_is_bit_identical_to_reference(case in case_strategy()) {
        check_case(&case);
    }

    #[test]
    fn serve_shaped_fast_path_is_bit_identical_to_reference(case in serve_case_strategy()) {
        check_case(&case);
    }
}
