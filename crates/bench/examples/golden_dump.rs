//! Regenerates the golden values embedded in `tests/fabric_golden.rs`.
//! Run after an *intentional* output change:
//!
//! ```text
//! cargo run --release -p corral-bench --example golden_dump
//! ```
//!
//! and paste the printed constants into the test. Both read their
//! workloads from `corral_bench::golden`.

use corral_bench::golden::{churn, golden_jobsets, golden_rc, CHURN_CELLS};
use corral_bench::runner::{run_variant, Variant};
use corral_cluster::config::NetPolicy;

fn main() {
    let rc = golden_rc(NetPolicy::Tcp);
    let jobs = golden_jobsets();

    println!("// (variant, makespan_bits, avg_jct_bits, cross_rack_bits, network_bits)");
    for v in Variant::ALL {
        let r = run_variant(v, &jobs, &rc);
        println!(
            "    (\"{}\", 0x{:016x}, 0x{:016x}, 0x{:016x}, 0x{:016x}),",
            v.label(),
            r.makespan.0.to_bits(),
            r.avg_completion_time().to_bits(),
            r.cross_rack_bytes.0.to_bits(),
            r.network_bytes.0.to_bits(),
        );
        println!("// summary[{}]: {}", v.label(), r.summary);
    }

    println!("// (cell, recomputes, calendar pushes, completion digest)");
    for (name, policy, shape, oracle, disturbed) in CHURN_CELLS {
        let (st, digest) = churn(policy, shape, oracle, disturbed);
        println!(
            "    (\"{name}\", {}, {}, 0x{digest:016x}),",
            st.recomputes, st.calendar_pushes
        );
    }
}
