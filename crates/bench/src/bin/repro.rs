//! Experiment driver: `repro [<id>...|all] [-j/--jobs N] [--seeds N]`.
//!
//! `-j/--jobs` sets the sweep-pool worker count for the experiments
//! that run `(seed × variant)` grids (default: host parallelism);
//! `--seeds` sets the arrival-seed pool size for the online experiments
//! (default 8; `--seeds 3` reproduces the harness's historical pool).
//! Every id is checked before any experiment runs: an unknown one exits
//! 1 with the list of known ids.

use corral::cli::{sweep_flags, Flags, SWEEP_VALUE_FLAGS};
use corral_bench::config::DEFAULT_SEEDS;
use corral_bench::experiments as ex;
use std::process::ExitCode;
use std::time::Instant;

/// The paper artifacts, in the order `repro all` (or no id) runs them.
const ALL: [(&str, fn()); 20] = [
    ("fig1", ex::fig1::main),
    ("fig2", ex::fig2::main),
    ("table1", ex::table1::main),
    ("pred", ex::pred::main),
    ("fig5", ex::fig5::main),
    ("fig6", ex::fig6::main),
    ("fig7", ex::fig7::main),
    ("fig8", ex::fig8::main),
    ("fig9", ex::fig9::main),
    ("fig10", ex::fig10::main),
    ("fig11", ex::fig11::main),
    ("fig12", ex::fig12::main),
    ("fig13", ex::fig13::main),
    ("fig14", ex::fig14::main),
    ("lpgap", ex::lpgap::main),
    ("latmodel", ex::latmodel::main),
    ("phases", ex::phases::main),
    ("netseries", ex::netseries::main),
    ("replan", ex::replan::main),
    ("ablations", ex::ablations::main),
];

/// Ids outside `all`: `bal` (an alias of fig7, which prints the balance
/// rows too) and the fabric scale-out sweep with its 2k-machine slice.
const EXTRA: [(&str, fn()); 3] = [
    ("bal", ex::fig7::main),
    ("fig14xl", ex::fig14xl::main),
    ("scalebench", ex::fig14xl::smoke),
];

fn run(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &SWEEP_VALUE_FLAGS, &[])?;
    let (jobs, seeds) = sweep_flags(&f, DEFAULT_SEEDS)?;

    let mut ids = Vec::new();
    while let Some(id) = f.positional(ids.len()) {
        ids.push(id);
    }
    let lookup = |id: &str| ALL.iter().chain(&EXTRA).find(|(name, _)| *name == id);
    let unknown: Vec<&str> = ids
        .iter()
        .copied()
        .filter(|&id| id != "all" && lookup(id).is_none())
        .collect();
    if !unknown.is_empty() {
        let known: Vec<&str> = ALL.iter().chain(&EXTRA).map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown experiment(s): {}; known: all {}",
            unknown.join(" "),
            known.join(" ")
        ));
    }
    let runs: Vec<(&str, fn())> = if ids.is_empty() || ids.contains(&"all") {
        ALL.to_vec()
    } else {
        ids.iter().filter_map(|&id| lookup(id).copied()).collect()
    };

    corral_bench::config::set_jobs(jobs);
    corral_bench::config::set_seeds(seeds);
    for (id, main) in runs {
        let t = Instant::now();
        main();
        eprintln!("[{id}: {:.1}s]", t.elapsed().as_secs_f64());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
