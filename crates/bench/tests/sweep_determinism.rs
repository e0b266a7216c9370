//! Integration contract of the sweep engine (ISSUE 2, satellite 3):
//! a `(jobset-family × arrival-seed) × variant` grid run with `--jobs 1`
//! and `--jobs 8` produces *byte-identical* CSV rows and run reports,
//! and a poisoned cell is isolated without killing the sweep.

use corral_bench::runner::{run_variant, RunConfig, Variant};
use corral_cluster::config::SimParams;
use corral_cluster::metrics::RunReport;
use corral_core::{Objective, PlannerConfig};
use corral_model::{ClusterConfig, JobSpec, SimTime};
use corral_sweep::SweepPool;
use corral_workloads::{assign_uniform_arrivals, w1, w2, Scale};

/// Four arrival seeds (the head of the standard bench seed bank).
const SEEDS: [u64; 4] = [0x1, 0xF18, 0xF19, 0xA5A5];

fn small_rc() -> RunConfig {
    let mut params = SimParams::testbed();
    params.cluster = ClusterConfig::tiny_test();
    params.horizon = SimTime::hours(10.0);
    RunConfig {
        params,
        objective: Objective::Makespan,
        planner: PlannerConfig::default(),
    }
}

fn small_scale() -> Scale {
    Scale {
        task_divisor: 10.0,
        data_divisor: 10.0,
    }
}

/// Two workload families × four arrival seeds, seed-major within family.
fn jobsets() -> Vec<Vec<JobSpec>> {
    let mut out = Vec::new();
    for seed in SEEDS {
        let mut jobs = w1::generate(
            &w1::W1Params {
                jobs: 8,
                ..w1::W1Params::with_seed(17)
            },
            small_scale(),
        );
        assign_uniform_arrivals(&mut jobs, SimTime::minutes(5.0), seed);
        out.push(jobs);
    }
    for seed in SEEDS {
        let mut jobs = w2::generate(
            &w2::W2Params {
                jobs: 6,
                large_jobs: 1,
                seed: 23,
            },
            small_scale(),
        );
        assign_uniform_arrivals(&mut jobs, SimTime::minutes(5.0), seed);
        out.push(jobs);
    }
    out
}

/// The full grid exactly as `run_variant_grid` lays it out
/// (jobset-major, variant-minor), on an explicit pool.
fn run_grid(pool: &SweepPool, jobsets: &[Vec<JobSpec>], rc: &RunConfig) -> Vec<RunReport> {
    let nv = Variant::ALL.len();
    pool.run_all(jobsets.len() * nv, |i| {
        run_variant(Variant::ALL[i % nv], &jobsets[i / nv], rc)
    })
}

/// Bit-exact fingerprint of everything an experiment could print from a
/// report (same style as `tests/determinism.rs`).
fn fingerprint(r: &RunReport) -> Vec<u64> {
    let mut bits = vec![
        r.makespan.0.to_bits(),
        r.cross_rack_bytes.0.to_bits(),
        r.network_bytes.0.to_bits(),
        r.unfinished as u64,
        r.avg_completion_time().to_bits(),
        r.median_completion_time().to_bits(),
    ];
    for m in r.jobs.values() {
        if let Some(t) = m.finished {
            bits.push(t.0.to_bits());
        }
        bits.push(m.task_seconds.to_bits());
    }
    bits
}

/// CSV rows the way the figure experiments assemble them: one row per
/// jobset, mean JCT per variant — rendered through the same `{v}`
/// formatting `table::write_csv` uses, so equality here is equality of
/// the bytes that would land in `results/*.csv`.
fn csv_rows(reports: &[RunReport], n_jobsets: usize) -> String {
    let nv = Variant::ALL.len();
    let mut out = String::from("jobset,yarn,corral,localshuffle,shufflewatcher\n");
    for js in 0..n_jobsets {
        let mut row = vec![js as f64];
        for v in 0..nv {
            row.push(reports[js * nv + v].avg_completion_time());
        }
        let line = row
            .iter()
            .map(|v| format!("{v}"))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[test]
fn jobs1_and_jobs8_are_byte_identical() {
    let rc = small_rc();
    let jobsets = jobsets();

    let serial = run_grid(&SweepPool::new(1).progress(false), &jobsets, &rc);
    let parallel = run_grid(&SweepPool::new(8).progress(false), &jobsets, &rc);
    assert_eq!(serial.len(), jobsets.len() * Variant::ALL.len());
    assert_eq!(serial.len(), parallel.len());

    // Reports: bit-identical numerics and identical rendered summaries,
    // cell by cell.
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a.scheduler, b.scheduler, "cell {i}: variant order changed");
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "cell {i} ({}) differs between --jobs 1 and --jobs 8",
            a.scheduler
        );
        assert_eq!(
            a.summary.to_string(),
            b.summary.to_string(),
            "cell {i} rendered summary differs"
        );
    }

    // CSV: the rows an experiment would write are the same bytes.
    assert_eq!(
        csv_rows(&serial, jobsets.len()),
        csv_rows(&parallel, jobsets.len())
    );
}

#[test]
fn poisoned_cell_is_isolated() {
    let rc = small_rc();
    let jobsets: Vec<Vec<JobSpec>> = jobsets().into_iter().take(1).collect();
    let nv = Variant::ALL.len();
    let poisoned = 2;

    let pool = SweepPool::new(4).progress(false);
    let results = pool.run(nv, |i| {
        if i == poisoned {
            panic!("poisoned cell {i}");
        }
        run_variant(Variant::ALL[i % nv], &jobsets[i / nv], &rc)
    });

    assert_eq!(results.len(), nv);
    for (i, r) in results.iter().enumerate() {
        if i == poisoned {
            let err = r.as_ref().unwrap_err();
            assert_eq!(err.index, poisoned);
            assert!(err.message.contains("poisoned cell 2"), "{}", err.message);
        } else {
            let report = r.as_ref().unwrap();
            assert_eq!(report.scheduler, Variant::ALL[i].label());
        }
    }
    assert_eq!(pool.cells_done(), (nv - 1) as u64);
    assert_eq!(pool.cells_failed(), 1);
}
