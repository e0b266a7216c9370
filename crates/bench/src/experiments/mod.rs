//! One module per paper artifact. Every function prints its rows and
//! writes CSVs under `results/`; ids match DESIGN.md's experiment index.

pub mod ablations;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig14xl;
pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod latmodel;
pub mod lpgap;
pub mod netseries;
pub mod phases;
pub mod pred;
pub mod replan;
pub mod table1;

use corral_model::JobSpec;
use corral_model::SimTime;
use corral_workloads::{assign_uniform_arrivals, w1, w2, w3, Scale};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The workload scale used by the simulator experiments (see DESIGN.md §1
/// and EXPERIMENTS.md): task counts divided by 4, volumes intact.
pub fn bench_scale() -> Scale {
    Scale::bench_default()
}

/// W2's scale: its two 5.5 TB jobs have 2200 maps against the paper's 2880
/// slots (one wave); dividing tasks by 8 — the simulator's slot divisor —
/// preserves that wave parity (275 maps vs 360 slots on a 3-rack
/// allocation). See EXPERIMENTS.md.
pub fn w2_scale() -> Scale {
    Scale {
        task_divisor: 8.0,
        data_divisor: 1.0,
    }
}

/// Standard instances of W1/W2/W3 used by figs 6–9 (batch arrivals). Job
/// counts are chosen so the scaled cluster sees production-like contention
/// (see EXPERIMENTS.md): W1 100 jobs with 512 MB map shares, W2 the paper's
/// full 400 jobs (98% tiny), W3 150 jobs.
///
/// Construction is memoized process-wide: experiments that run many cells
/// over the same base workload (seed sweeps, scale sweeps, `repro all`)
/// generate it once and share the cached copy. Callers that mutate the
/// jobs (arrival assignment) get their own clone via [`workload`];
/// read-only sweeps should hold the [`workload_shared`] `Arc` instead.
pub fn workload(name: &str) -> Vec<JobSpec> {
    workload_shared(name).as_ref().clone()
}

/// [`workload`] without the defensive clone: the cached, immutable base
/// jobset behind an `Arc`, cheap to share across the cells of a sweep
/// grid (fig6, fig7 and fig14xl read it this way).
pub fn workload_shared(name: &str) -> Arc<Vec<JobSpec>> {
    static CACHE: OnceLock<Mutex<BTreeMap<String, Arc<Vec<JobSpec>>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = cache.lock().unwrap();
    map.entry(name.to_string())
        .or_insert_with(|| Arc::new(workload_uncached(name)))
        .clone()
}

fn workload_uncached(name: &str) -> Vec<JobSpec> {
    match name {
        "W1" => w1::generate(
            &w1::W1Params {
                jobs: 150,
                bytes_per_task: 512e6,
                ..w1::W1Params::with_seed(0xA001)
            },
            bench_scale(),
        ),
        "W2" => w2::generate(
            &w2::W2Params {
                jobs: 400,
                ..Default::default()
            },
            w2_scale(),
        ),
        "W3" => w3::generate(
            &w3::W3Params {
                jobs: 250,
                ..Default::default()
            },
            bench_scale(),
        ),
        other => panic!("unknown workload {other}"),
    }
}

/// The online variant: arrivals uniform in [0, 60 min] (§6.2.2).
pub fn workload_online(name: &str, seed: u64) -> Vec<JobSpec> {
    let mut jobs = workload(name);
    assign_uniform_arrivals(&mut jobs, SimTime::minutes(60.0), seed);
    jobs
}
