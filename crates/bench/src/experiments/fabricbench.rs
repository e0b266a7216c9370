//! Fabric hot-path microbenchmark: times the event loop of the flow-level
//! simulator under synthetic arrival/completion churn — fair sharing
//! ([`RatePolicy::FairShare`]) at three cluster scales and Varys
//! ([`RatePolicy::Varys`]) at the small and medium ones. Writes
//! `BENCH_fabric.json` in the working directory (each cell carries a
//! `policy` field).
//!
//! Not part of `repro all` (it times the simulator, not a paper artifact);
//! CI runs `repro fabricbench` as a perf-smoke step. The *recompute
//! counts* of every cell are deterministic; they are embedded below as
//! golden values and any drift fails the run — a cheap end-to-end
//! tripwire for accidental changes to event ordering or rate arithmetic.
//! The small cells are also checked by `cargo test` with the shadow
//! oracle armed (`tests/fabric_golden.rs`). Wall-clock numbers are
//! recorded but never asserted (CI timing is noisy).
//!
//! Regenerate the golden table after an *intentional* event-order change
//! by running with `CORRAL_FABRICBENCH_BLESS=1` and pasting the printed
//! constants.

use crate::table;
use corral_model::{Bytes, ClusterConfig, MachineId};
use corral_simnet::{CoflowId, Fabric, FlowKind, FlowSpec, FlowTag, RatePolicy};
use corral_trace::CounterSet;
use std::time::Instant;

/// One synthetic churn scale.
struct ScaleSpec {
    name: &'static str,
    racks: usize,
    machines_per_rack: usize,
    /// Concurrent flows maintained throughout the run.
    concurrency: usize,
    /// Flow completions to process before stopping the clock.
    completions: u64,
    seed: u64,
}

/// Small / medium / large synthetic fabrics. The scale-out story lives in
/// fig14-xl (`BENCH_scale.json`).
const SCALES: [ScaleSpec; 3] = [
    ScaleSpec {
        name: "small",
        racks: 3,
        machines_per_rack: 4,
        concurrency: 48,
        completions: 4000,
        seed: 0xFAB_0001,
    },
    ScaleSpec {
        name: "medium",
        racks: 10,
        machines_per_rack: 16,
        concurrency: 512,
        completions: 6000,
        seed: 0xFAB_0002,
    },
    ScaleSpec {
        name: "large",
        racks: 20,
        machines_per_rack: 16,
        concurrency: 640,
        completions: 12000,
        seed: 0xFAB_0003,
    },
];

/// Golden recompute counts of the fair-sharing cells per synthetic scale.
/// Drift here means the fabric's event ordering or rate arithmetic
/// changed; bless deliberately (see module docs) or find the regression.
const GOLDEN_RECOMPUTES: [(&str, u64); 3] = [("small", 7996), ("medium", 11954), ("large", 23940)];

/// Golden recompute counts of the Varys cells (small and medium scale).
const GOLDEN_VARYS_RECOMPUTES: [(&str, u64); 2] = [("small", 7913), ("medium", 11904)];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Starts one flow: sources cycle round-robin over the machines and every
/// flow goes to the same position in the next rack, so per-link flow
/// counts stay near-uniform (the balanced all-to-all traffic of a large
/// shuffle) and every flow crosses the oversubscribed core — the regime
/// the paper's fluid simulations exercise hardest. Sizes are random
/// (8–263 MB), so completion *order* — and with it the churn the
/// allocator sees — stays irregular. Roughly half the flows are grouped
/// into one of 24 coflows.
fn spawn_flow(
    fab: &mut Fabric,
    total_machines: u64,
    machines_per_rack: u64,
    seq: &mut u64,
    rng: &mut u64,
) {
    let src = *seq % total_machines;
    *seq += 1;
    let dst = (src + machines_per_rack) % total_machines;
    let bytes = Bytes::mb(8.0 + (splitmix64(rng) % 256) as f64);
    let group = splitmix64(rng) % 48;
    let coflow = (group < 24).then_some(CoflowId(group));
    fab.start_flow(FlowSpec {
        src: MachineId::from_index(src as usize),
        dst: MachineId::from_index(dst as usize),
        bytes,
        tag: FlowTag::infrastructure(FlowKind::Shuffle),
        coflow,
    });
}

/// Result of one (scale, policy) churn cell.
struct CellResult {
    wall_s: f64,
    events: u64,
    recomputes: u64,
    maxmin_rounds: u64,
    scratch_grows: u64,
}

impl CellResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }

    /// Mean waterfilling rounds per recompute — the per-event cost the
    /// incremental fabric is supposed to hold flat as scale grows.
    fn rounds_per_recompute(&self) -> f64 {
        self.maxmin_rounds as f64 / self.recomputes.max(1) as f64
    }
}

/// Wall-clock repetitions per cell; the reported wall is the minimum.
const REPEATS: usize = 7;

/// Runs one churn pass: fill the fabric to `concurrency` flows, then
/// replace every completed flow with a fresh one until `completions`
/// events have been processed, timing the whole event loop. `oracle` arms
/// the fabric's from-scratch shadow check on every recompute.
fn run_once(sc: &ScaleSpec, policy: RatePolicy, oracle: bool) -> CellResult {
    let cfg = ClusterConfig {
        racks: sc.racks,
        machines_per_rack: sc.machines_per_rack,
        ..ClusterConfig::tiny_test()
    };
    let nm = cfg.total_machines() as u64;
    let mpr = cfg.machines_per_rack as u64;
    let mut fab = Fabric::new(cfg, policy);
    fab.set_full_oracle(oracle);
    let mut rng = sc.seed;
    let mut seq = 0u64;
    for _ in 0..sc.concurrency {
        spawn_flow(&mut fab, nm, mpr, &mut seq, &mut rng);
    }
    let mut done = Vec::new();
    let mut events = 0u64;
    let t0 = Instant::now();
    while events < sc.completions {
        let Some(tc) = fab.next_completion() else {
            break;
        };
        done.clear();
        fab.advance_collect(tc, &mut done);
        events += done.len() as u64;
        for _ in 0..done.len() {
            spawn_flow(&mut fab, nm, mpr, &mut seq, &mut rng);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let st = fab.stats();
    CellResult {
        wall_s,
        events,
        recomputes: st.recomputes,
        maxmin_rounds: st.maxmin_rounds,
        scratch_grows: st.scratch_grows,
    }
}

/// Runs one cell [`REPEATS`] times with a fresh fabric each pass. Every
/// pass is deterministic, so the event/recompute counters must agree
/// across repeats (asserted). Returns the fastest pass.
fn run_cell(sc: &ScaleSpec, policy: RatePolicy) -> CellResult {
    let mut best: Option<CellResult> = None;
    for _ in 0..REPEATS {
        let c = run_once(sc, policy, false);
        if let Some(b) = &best {
            assert_eq!(b.events, c.events, "{}: non-deterministic repeat", sc.name);
            assert_eq!(
                b.recomputes, c.recomputes,
                "{}: non-deterministic repeat",
                sc.name
            );
        }
        if best.as_ref().is_none_or(|b| c.wall_s < b.wall_s) {
            best = Some(c);
        }
    }
    best.expect("REPEATS > 0")
}

/// The golden recompute count of `policy` at scale `name`, if blessed.
fn golden(policy: RatePolicy, name: &str) -> Option<u64> {
    let table: &[(&str, u64)] = match policy {
        RatePolicy::FairShare => &GOLDEN_RECOMPUTES,
        RatePolicy::Varys => &GOLDEN_VARYS_RECOMPUTES,
    };
    table.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// One small-scale churn pass under `policy`, returning `(recomputes,
/// golden_recomputes)`. `oracle` arms the from-scratch shadow check on
/// every recompute; the tier-1 golden test runs it armed, and `repro
/// perfreport` runs it plain to populate the fabric probe spans and
/// counters with live data.
pub fn small_cell(policy: RatePolicy, oracle: bool) -> (u64, u64) {
    let c = run_once(&SCALES[0], policy, oracle);
    let golden = golden(policy, SCALES[0].name).expect("small cell is blessed");
    (c.recomputes, golden)
}

/// Runs every (scale, policy) cell, checks golden recompute counts, and
/// writes `BENCH_fabric.json`.
pub fn main() {
    table::section("fabricbench: fabric event loop under flow churn");
    let bless = std::env::var_os("CORRAL_FABRICBENCH_BLESS").is_some();
    let counters = CounterSet::new(&[
        "fabric.completions",
        "fabric.recomputes",
        "fabric.maxmin_rounds",
        "fabric.scratch_grows",
    ]);

    table::row(&[
        "scale", "policy", "events", "wall", "events/s", "recomp", "rounds", "grows",
    ]);
    let cells = SCALES
        .iter()
        .map(|sc| (sc, RatePolicy::FairShare))
        .chain(SCALES[..2].iter().map(|sc| (sc, RatePolicy::Varys)));
    let mut cell_json = Vec::new();
    let mut drift = Vec::new();
    for (sc, policy) in cells {
        let c = run_cell(sc, policy);
        let label = match policy {
            RatePolicy::FairShare => "fair",
            RatePolicy::Varys => "varys",
        };
        counters.add("fabric.completions", c.events);
        counters.add("fabric.recomputes", c.recomputes);
        counters.add("fabric.maxmin_rounds", c.maxmin_rounds);
        counters.add("fabric.scratch_grows", c.scratch_grows);
        table::row(&[
            sc.name.to_string(),
            label.to_string(),
            c.events.to_string(),
            table::secs(c.wall_s),
            format!("{:.0}", c.events_per_sec()),
            c.recomputes.to_string(),
            c.maxmin_rounds.to_string(),
            c.scratch_grows.to_string(),
        ]);
        let golden = golden(policy, sc.name).expect("every cell is blessed");
        if c.recomputes != golden {
            drift.push(format!(
                "{label}-{}: recomputes {} != golden {golden}",
                sc.name, c.recomputes
            ));
        }
        cell_json.push(format!(
            "    {{\"scale\": \"{}\", \"policy\": \"{label}\", \"events\": {}, \
             \"wall_s\": {:.3}, \"recomputes\": {}, \
             \"maxmin_rounds\": {}, \"rounds_per_recompute\": {:.3}, \
             \"scratch_grows\": {}}}",
            sc.name,
            c.events,
            c.wall_s,
            c.recomputes,
            c.maxmin_rounds,
            c.rounds_per_recompute(),
            c.scratch_grows,
        ));
    }

    for (name, v) in counters.snapshot() {
        println!("   {name} = {v}");
    }

    if !drift.is_empty() {
        if bless {
            println!(
                "   bless mode: update GOLDEN_RECOMPUTES / GOLDEN_VARYS_RECOMPUTES \
                 to the counts above"
            );
        } else {
            panic!(
                "fabricbench recompute-counter drift:\n  {}",
                drift.join("\n  ")
            );
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"fabric_fast_path\",\n  \"cells\": [\n{}\n  ]\n}}\n",
        cell_json.join(",\n")
    );
    std::fs::write("BENCH_fabric.json", &json).expect("write BENCH_fabric.json");
    println!("   wrote BENCH_fabric.json");
}
