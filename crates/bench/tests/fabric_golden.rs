//! Golden determinism contract of the fabric:
//!
//! 1. The four scheduler variants on a fixed workload reproduce
//!    *embedded* bit-level fingerprints — catching any change to the
//!    simulator's floating-point behavior, not just gross regressions.
//! 2. Both network policies (`NetPolicy::Tcp`, `NetPolicy::Varys`)
//!    produce byte-identical reports on a sweep pool at `--jobs 1` vs
//!    `--jobs 8`, and the Tcp half keeps the golden bits there too.
//! 3. Six synthetic churn cells — fair sharing at three scales, Varys
//!    at the small and medium ones, and a small fair cell disturbed by
//!    cancellations and background changes — hit their golden recompute
//!    counts, calendar pushes and completion digests; the small cells run
//!    with the from-scratch shadow oracle armed on every recompute, and
//!    the small Varys cell exercises both its full and its incremental
//!    recompute paths.
//!
//! The workloads live in `corral_bench::golden`. Regenerate every value
//! with `cargo run --release -p corral-bench --example golden_dump`
//! after an *intentional* output change.

use corral_bench::golden::{churn, golden_jobsets, golden_rc, CHURN_CELLS};
use corral_bench::runner::{run_variant, Variant};
use corral_cluster::config::NetPolicy;
use corral_cluster::metrics::RunReport;
use corral_simnet::RatePolicy;
use corral_sweep::SweepPool;

/// `(variant, makespan_bits, avg_jct_bits, cross_rack_bits, network_bits)`
/// — regenerated by `examples/golden_dump.rs`.
const GOLDEN: [(&str, u64, u64, u64, u64); 4] = [
    (
        "yarn-cs",
        0x4078b480f1a68525,
        0x403e36a5ec5f47a6,
        0x424707de50cc963a,
        0x425363ca47ecb696,
    ),
    (
        "corral",
        0x4078b480f1a68525,
        0x404301ee52f8cdd2,
        0x42449852b87c3163,
        0x425345ddfb908291,
    ),
    (
        "localshuffle",
        0x4078b929cda6df31,
        0x4043a4d340e74b72,
        0x42461d9f02c9ce60,
        0x4253bfe6b6c80b56,
    ),
    (
        "shufflewatcher",
        0x4078b929cda6df31,
        0x403dc4357b4f90ea,
        0x42471f774028777f,
        0x42539be5f2dafd52,
    ),
];

fn fingerprint(r: &RunReport) -> (u64, u64, u64, u64) {
    (
        r.makespan.0.to_bits(),
        r.avg_completion_time().to_bits(),
        r.cross_rack_bytes.0.to_bits(),
        r.network_bytes.0.to_bits(),
    )
}

#[test]
fn fast_path_matches_embedded_golden_bits() {
    let rc = golden_rc(NetPolicy::Tcp);
    let jobs = golden_jobsets();
    for (v, &(label, mk, jct, xr, net)) in Variant::ALL.iter().zip(&GOLDEN) {
        let r = run_variant(*v, &jobs, &rc);
        assert_eq!(v.label(), label, "variant order changed");
        assert_eq!(
            fingerprint(&r),
            (mk, jct, xr, net),
            "{label}: output drifted from golden bits — regenerate via golden_dump \
             only if the change is intentional"
        );
    }
}

#[test]
fn pool_jobs1_vs_jobs8_identical_under_both_fabric_paths() {
    let jobs = golden_jobsets();
    let nv = Variant::ALL.len();
    // Grid: net-policy-major, variant-minor — both fabric paths in one
    // sweep, so the pool exercise covers the fair and Varys paths alike.
    let nets = [NetPolicy::Tcp, NetPolicy::Varys];
    let grid = |pool: &SweepPool| -> Vec<RunReport> {
        pool.run_all(nets.len() * nv, |i| {
            run_variant(Variant::ALL[i % nv], &jobs, &golden_rc(nets[i / nv]))
        })
    };
    let serial = grid(&SweepPool::new(1).progress(false));
    let parallel = grid(&SweepPool::new(8).progress(false));
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "cell {i} ({}) differs between --jobs 1 and --jobs 8",
            a.scheduler
        );
        assert_eq!(a.summary.to_string(), b.summary.to_string());
    }
    // The golden bits hold on the pooled Tcp runs as well.
    for (r, &(label, mk, jct, xr, net)) in serial[..nv].iter().zip(&GOLDEN) {
        assert_eq!(r.scheduler, label);
        assert_eq!(fingerprint(r), (mk, jct, xr, net), "{label} (pooled)");
    }
}

/// Golden values per churn cell, in `CHURN_CELLS` order: `(cell,
/// recompute count, calendar pushes, completion digest)`. The digest is
/// FNV-1a over the completion stream `(flow id, completion time bits)`,
/// so it pins the order and time of every completion, equal-time ties
/// included.
const CHURN_GOLDEN: [(&str, u64, u64, u64); 6] = [
    ("fair-small", 7996, 7850, 0x94be_4c27_7c44_cf3c),
    ("fair-medium", 11954, 11967, 0x487e_7871_4bd7_429d),
    ("fair-large", 23940, 23952, 0x00b1_b147_dd22_91ea),
    ("varys-small", 7913, 18264, 0x9b70_10a1_5f07_5b21),
    ("varys-medium", 11904, 332451, 0xec90_a403_af8a_65c0),
    ("fair-disturbed", 7993, 8872, 0xb4ec_606a_94f5_5c28),
];

#[test]
fn churn_cells_hit_golden_recomputes_with_oracle_armed() {
    for ((name, policy, shape, oracle, disturbed), (gname, recomputes, pushes, digest)) in
        CHURN_CELLS.into_iter().zip(CHURN_GOLDEN)
    {
        assert_eq!(name, gname, "churn cell order changed");
        let (st, got_digest) = churn(policy, shape, oracle, disturbed);
        assert_eq!(
            st.recomputes, recomputes,
            "{name}: churn cell recompute count drifted (oracle armed: {oracle})"
        );
        assert_eq!(
            got_digest, digest,
            "{name}: completion order or times drifted: digest {got_digest:#018x}"
        );
        assert_eq!(
            st.calendar_pushes, pushes,
            "{name}: completion-calendar push count drifted"
        );
        if policy == RatePolicy::FairShare {
            // One entry per re-solved component, not one per member: a
            // component is re-solved only when a flow event dirtied one of
            // its links (an undisturbed cell changes no capacity and
            // cancels nothing), so the pushes stay within the starts and
            // completions, far below the re-solved flows a per-flow
            // calendar pushes.
            assert!(
                disturbed || st.calendar_pushes <= st.flows_started + st.flows_completed,
                "{name}: more calendar pushes than flow events: {st:?}"
            );
            assert!(
                st.calendar_pushes * 8 < st.dirty_flows,
                "{name}: calendar pushes scale with the re-solved flows: {st:?}"
            );
        }
        if name == "varys-small" {
            // Both Varys recompute paths run: full passes (cold cache,
            // capacity boundary) and coflow-local incremental ones.
            assert!(
                st.recomputes_full > 0 && st.recomputes_incremental > 0,
                "{name}: a Varys recompute path went unexercised: {st:?}"
            );
        }
    }
}
