//! fig14-xl — fabric scale-out: incremental vs full recomputation from
//! 2k to 50k machines.
//!
//! Fig. 14's scheduling sweep tops out near testbed scale; this bench
//! asks the question the incremental fabric was built for: does the
//! event loop hold its per-event cost as the *fabric* grows to 50k
//! machines? Each cell drives synthetic flow churn shaped like W1 or W2
//! — flow sizes are drawn from the memoized paper workloads
//! ([`crate::experiments::workload_shared`]), so W2 cells inherit its
//! heavy skew — with traffic confined to bands of racks. Banding matters:
//! it keeps the link↔flow graph split into many independent components
//! (as real per-job shuffles do), which is the structure the incremental
//! recompute exploits; an all-to-all ring would collapse into one
//! component and show nothing.
//!
//! Two cell families, one per network policy:
//!
//! * **fair** — the memoryless max-min path ([`RatePolicy::FairShare`]).
//! * **varys** — the Varys/SEBF path ([`RatePolicy::Varys`]), flows
//!   grouped into band-local coflows (frozen-at-admission SEBF bytes,
//!   dirty coflow re-rank, per-component backfill).
//!
//! For both, the "full" pass is the same run with the shadow oracle armed
//! ([`Fabric::set_full_oracle`]): every recompute additionally re-solves
//! the entire alive flow set from scratch
//! ([`RatePolicy::allocate_from_scratch`]) — the per-event cost of a
//! fabric without the incremental path — and asserts per-flow
//! `rate.to_bits()` equality with the incremental table while it's at it.
//! Oracle-on and oracle-off passes must agree on every deterministic
//! counter *and* on a digest of the completion stream (asserted).
//!
//! The reported speedup is the median paired wall ratio
//! (full / incremental). Writes `BENCH_scale.json` in the working
//! directory (each cell carries a `policy` field).
//!
//! Not part of `repro all` (it times the simulator, not a paper
//! artifact); CI runs the 2k-machine cells of both families as
//! `repro scalebench`. Cells outside the selected subset are logged as
//! skipped, never silently dropped. The recompute and waterfilling-round
//! counts per cell are golden below: drift means event ordering, the
//! dirty-set propagation, or the rate arithmetic changed. Regenerate
//! after an *intentional* change with `CORRAL_SCALEBENCH_BLESS=1` and
//! paste the printed constants.

use crate::table;
use corral_model::{Bytes, ClusterConfig, MachineId};
use corral_simnet::{CoflowId, Fabric, FlowKind, FlowSpec, FlowTag, RatePolicy};
use std::time::Instant;

/// Racks per traffic band: flows never leave their band, so each band is
/// (at most) one connected component of the link↔flow graph.
const BAND_RACKS: usize = 5;

/// Consecutive same-band spawns grouped into one coflow under the varys
/// policy (≈ one small shuffle wave per band).
const COFLOW_WIDTH: u64 = 4;

/// Network scheduling policy of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    /// Memoryless max-min fair sharing ([`RatePolicy::FairShare`]).
    Fair,
    /// Varys SEBF + MADD + backfill ([`RatePolicy::Varys`]), coflow-tagged
    /// flows.
    Varys,
}

impl Policy {
    fn label(self) -> &'static str {
        match self {
            Policy::Fair => "fair",
            Policy::Varys => "varys",
        }
    }

    fn rate_policy(self) -> RatePolicy {
        match self {
            Policy::Fair => RatePolicy::FairShare,
            Policy::Varys => RatePolicy::Varys,
        }
    }
}

/// One scale-out cell: a workload shape at a machine count.
struct CellSpec {
    name: &'static str,
    /// Workload whose per-task shuffle sizes shape the flow sizes.
    workload: &'static str,
    policy: Policy,
    racks: usize,
    machines_per_rack: usize,
    /// Concurrent flows maintained throughout the run.
    concurrency: usize,
    /// Flow completions to process before stopping the clock.
    completions: u64,
    seed: u64,
}

impl CellSpec {
    fn machines(&self) -> usize {
        self.racks * self.machines_per_rack
    }
}

/// {2k, 10k, 50k} machines × {W1, W2} × {fair, varys}. The 50k fair cells
/// are the acceptance cells: the incremental path must beat its full
/// re-solve by ≥ 5× there. (The varys baseline is the canonical
/// from-scratch solve, whose per-component backfill is already cheap, so
/// its ratio measures only what coflow-local caching saves on top.) The
/// first four (2k) cells double as the CI smoke subset, so the
/// coflow-incremental path is smoke-covered too.
static CELLS: [CellSpec; 12] = [
    CellSpec {
        name: "w1-2k",
        workload: "W1",
        policy: Policy::Fair,
        racks: 50,
        machines_per_rack: 40,
        concurrency: 1000,
        completions: 2000,
        seed: 0x5CA1_0001,
    },
    CellSpec {
        name: "w2-2k",
        workload: "W2",
        policy: Policy::Fair,
        racks: 50,
        machines_per_rack: 40,
        concurrency: 1000,
        completions: 2000,
        seed: 0x5CA1_0002,
    },
    CellSpec {
        name: "varys-w1-2k",
        workload: "W1",
        policy: Policy::Varys,
        racks: 50,
        machines_per_rack: 40,
        concurrency: 1000,
        completions: 2000,
        seed: 0x5CA1_1001,
    },
    CellSpec {
        name: "varys-w2-2k",
        workload: "W2",
        policy: Policy::Varys,
        racks: 50,
        machines_per_rack: 40,
        concurrency: 1000,
        completions: 2000,
        seed: 0x5CA1_1002,
    },
    CellSpec {
        name: "w1-10k",
        workload: "W1",
        policy: Policy::Fair,
        racks: 250,
        machines_per_rack: 40,
        concurrency: 2500,
        completions: 2500,
        seed: 0x5CA1_0003,
    },
    CellSpec {
        name: "w2-10k",
        workload: "W2",
        policy: Policy::Fair,
        racks: 250,
        machines_per_rack: 40,
        concurrency: 2500,
        completions: 2500,
        seed: 0x5CA1_0004,
    },
    CellSpec {
        name: "varys-w1-10k",
        workload: "W1",
        policy: Policy::Varys,
        racks: 250,
        machines_per_rack: 40,
        concurrency: 2500,
        completions: 2500,
        seed: 0x5CA1_1003,
    },
    CellSpec {
        name: "varys-w2-10k",
        workload: "W2",
        policy: Policy::Varys,
        racks: 250,
        machines_per_rack: 40,
        concurrency: 2500,
        completions: 2500,
        seed: 0x5CA1_1004,
    },
    CellSpec {
        name: "w1-50k",
        workload: "W1",
        policy: Policy::Fair,
        racks: 1250,
        machines_per_rack: 40,
        concurrency: 6000,
        completions: 3000,
        seed: 0x5CA1_0005,
    },
    CellSpec {
        name: "w2-50k",
        workload: "W2",
        policy: Policy::Fair,
        racks: 1250,
        machines_per_rack: 40,
        concurrency: 6000,
        completions: 3000,
        seed: 0x5CA1_0006,
    },
    CellSpec {
        name: "varys-w1-50k",
        workload: "W1",
        policy: Policy::Varys,
        racks: 1250,
        machines_per_rack: 40,
        concurrency: 6000,
        completions: 3000,
        seed: 0x5CA1_1005,
    },
    CellSpec {
        name: "varys-w2-50k",
        workload: "W2",
        policy: Policy::Varys,
        racks: 1250,
        machines_per_rack: 40,
        concurrency: 6000,
        completions: 3000,
        seed: 0x5CA1_1006,
    },
];

/// Golden `(recomputes, maxmin_rounds)` of the timed incremental pass
/// per cell. These are identical between the oracle-on and oracle-off
/// passes (that identity is itself asserted — the oracle must not perturb
/// the run). Drift against these constants
/// means the fabric's behavior changed. Bless deliberately (module docs)
/// or find the regression.
const GOLDEN: [(&str, u64, u64); 12] = [
    ("w1-2k", 3985, 45448),
    ("w2-2k", 3990, 45376),
    ("varys-w1-2k", 3928, 61170),
    ("varys-w2-2k", 3915, 66920),
    ("w1-10k", 4616, 21922),
    ("w2-10k", 4801, 22531),
    ("varys-w1-10k", 3864, 96117),
    ("varys-w2-10k", 3915, 94923),
    ("w1-50k", 3805, 13751),
    ("w2-50k", 4187, 13569),
    ("varys-w1-50k", 1380, 83595),
    ("varys-w2-50k", 1693, 85628),
];

/// Timed (full, incremental) pairs per cell in the full bench; the smoke
/// subset runs one pair.
const REPEATS: usize = 3;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Empirical per-task shuffle sizes of a paper workload, sorted for
/// determinism. Built once per workload via the process-wide memoized
/// jobsets — all same-workload cells share one construction.
fn size_table(workload: &str) -> Vec<f64> {
    let jobs = crate::experiments::workload_shared(workload);
    let mut sizes: Vec<f64> = jobs
        .iter()
        .map(|j| {
            let tasks = j.profile.total_tasks().max(1) as f64;
            (j.profile.total_shuffle().0 / tasks).max(1e6)
        })
        .collect();
    sizes.sort_by(f64::total_cmp);
    sizes
}

/// Starts one flow: round-robin over bands, random endpoints within the
/// band (source and destination racks forced distinct, so every flow
/// crosses the oversubscribed core), size drawn from the workload's
/// per-task shuffle table. Under the varys policy, [`COFLOW_WIDTH`]
/// consecutive same-band spawns share a coflow id (band in the high
/// half, wave in the low — band-local coflows keep the coflow↔component
/// structure the incremental path exploits).
fn spawn_flow(fab: &mut Fabric, c: &CellSpec, sizes: &[f64], seq: &mut u64, rng: &mut u64) {
    let bands = c.racks / BAND_RACKS;
    let band = (*seq as usize) % bands;
    let coflow = match c.policy {
        Policy::Fair => None,
        Policy::Varys => {
            let wave = (*seq / bands as u64) / COFLOW_WIDTH;
            Some(CoflowId(((band as u64) << 32) | wave))
        }
    };
    *seq += 1;
    let r = splitmix64(rng);
    let src_rack = band * BAND_RACKS + (r as usize >> 8) % BAND_RACKS;
    let src_m = (r as usize >> 24) % c.machines_per_rack;
    let r2 = splitmix64(rng);
    let mut dst_rack = band * BAND_RACKS + (r2 as usize >> 8) % BAND_RACKS;
    if dst_rack == src_rack {
        dst_rack = band * BAND_RACKS + (src_rack - band * BAND_RACKS + 1) % BAND_RACKS;
    }
    let dst_m = (r2 as usize >> 24) % c.machines_per_rack;
    let bytes = Bytes(sizes[splitmix64(rng) as usize % sizes.len()]);
    fab.start_flow(FlowSpec {
        src: MachineId::from_index(src_rack * c.machines_per_rack + src_m),
        dst: MachineId::from_index(dst_rack * c.machines_per_rack + dst_m),
        bytes,
        tag: FlowTag::infrastructure(FlowKind::Shuffle),
        coflow,
    });
}

/// Deterministic counters of one pass (wall excluded). `digest` folds
/// every completion's `(id, finished-time bits, byte bits)` through
/// FNV-1a in completion order — byte-identical completion streams and
/// nothing less.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct PassCounts {
    events: u64,
    recomputes: u64,
    recomputes_incremental: u64,
    recomputes_full: u64,
    maxmin_rounds: u64,
    dirty_flows: u64,
    digest: u64,
}

struct PassResult {
    wall_s: f64,
    counts: PassCounts,
    links: usize,
}

/// Which side of the timed pair a pass runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// The baseline: the from-scratch shadow oracle armed, so every
    /// recompute also pays a full re-solve.
    Full,
    /// The incremental pass, oracle off.
    Incremental,
}

fn fnv1a(h: u64, word: u64) -> u64 {
    let mut h = h;
    for b in word.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One churn pass: fill to `concurrency`, replace each completion until
/// `completions` events, timing the whole loop.
fn run_once(c: &CellSpec, sizes: &[f64], pass: Pass) -> PassResult {
    let cfg = ClusterConfig {
        racks: c.racks,
        machines_per_rack: c.machines_per_rack,
        ..ClusterConfig::tiny_test()
    };
    let mut fab = Fabric::new(cfg, c.policy.rate_policy());
    fab.set_full_oracle(pass == Pass::Full);
    let links = fab.topology().links().len();
    let mut rng = c.seed;
    let mut seq = 0u64;
    let mut done = Vec::new();
    let mut events = 0u64;
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let t0 = Instant::now();
    for _ in 0..c.concurrency {
        spawn_flow(&mut fab, c, sizes, &mut seq, &mut rng);
    }
    while events < c.completions {
        let Some(tc) = fab.next_completion() else {
            break;
        };
        done.clear();
        fab.advance_collect(tc, &mut done);
        events += done.len() as u64;
        for f in &done {
            digest = fnv1a(digest, f.id.0);
            digest = fnv1a(digest, f.finished.0.to_bits());
            digest = fnv1a(digest, f.bytes.0.to_bits());
        }
        for _ in 0..done.len() {
            spawn_flow(&mut fab, c, sizes, &mut seq, &mut rng);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let st = fab.stats();
    PassResult {
        wall_s,
        counts: PassCounts {
            events,
            recomputes: st.recomputes,
            recomputes_incremental: st.recomputes_incremental,
            recomputes_full: st.recomputes_full,
            maxmin_rounds: st.maxmin_rounds,
            dirty_flows: st.dirty_flows,
            digest,
        },
        links,
    }
}

/// One cell's collected result.
struct CellResult {
    name: &'static str,
    workload: &'static str,
    policy: Policy,
    machines: usize,
    links: usize,
    /// Counters of the timed incremental pass (golden-checked).
    counts: PassCounts,
    full_s: f64,
    incremental_s: f64,
    /// Median paired wall ratio full / incremental.
    speedup: f64,
}

/// Runs one cell `repeats` times as (full, incremental) pairs, asserting
/// every deterministic counter identical across repeats and the
/// oracle-armed pass identical to the plain one (counters *and*
/// completion digest).
fn run_cell(c: &CellSpec, sizes: &[f64], repeats: usize) -> CellResult {
    let mut best_full = f64::INFINITY;
    let mut best_inc = f64::INFINITY;
    let mut counts: Option<PassCounts> = None;
    let mut links = 0;
    let mut ratios = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let full = run_once(c, sizes, Pass::Full);
        let inc = run_once(c, sizes, Pass::Incremental);
        assert_eq!(
            full.counts, inc.counts,
            "{}: oracle-armed pass diverged from the plain pass — the oracle \
             must be observation-only",
            c.name
        );
        if let Some(prev) = &counts {
            assert_eq!(*prev, inc.counts, "{}: non-deterministic repeat", c.name);
        }
        counts = Some(inc.counts);
        links = inc.links;
        ratios.push(full.wall_s / inc.wall_s.max(1e-9));
        best_full = best_full.min(full.wall_s);
        best_inc = best_inc.min(inc.wall_s);
    }
    ratios.sort_by(f64::total_cmp);
    CellResult {
        name: c.name,
        workload: c.workload,
        policy: c.policy,
        machines: c.machines(),
        links,
        counts: counts.expect("repeats > 0"),
        full_s: best_full,
        incremental_s: best_inc,
        speedup: ratios[ratios.len() / 2],
    }
}

/// Shared driver: runs `cells` under the sweep pool, prints the table,
/// checks goldens, logs skipped cells, and writes `BENCH_scale.json`.
fn run(cells: &[CellSpec], repeats: usize, smoke: bool) {
    table::section(if smoke {
        "scalebench: fig14-xl smoke subset (2k machines, fair + varys)"
    } else {
        "fig14-xl: fabric scale-out, incremental vs full recompute"
    });
    let bless = std::env::var_os("CORRAL_SCALEBENCH_BLESS").is_some();
    for c in &CELLS {
        if !cells.iter().any(|s| s.name == c.name) {
            println!("   skipping cell {} (not in this subset)", c.name);
        }
    }
    // Same-workload cells share one memoized jobset; build the two size
    // tables up front so pooled cells only read.
    let w1_sizes = size_table("W1");
    let w2_sizes = size_table("W2");
    let sizes_of = |w: &str| -> &[f64] {
        if w == "W1" {
            &w1_sizes
        } else {
            &w2_sizes
        }
    };

    let results: Vec<CellResult> = crate::config::pool()
        .run_all(cells.len(), |i| {
            run_cell(&cells[i], sizes_of(cells[i].workload), repeats)
        })
        .into_iter()
        .collect();

    table::row(&[
        "cell", "machines", "links", "events", "recomp", "rounds", "dirty/rc", "full", "incr",
        "speedup",
    ]);
    let mut cell_json = Vec::new();
    let mut drift = Vec::new();
    for r in &results {
        let dirty_per = r.counts.dirty_flows as f64 / r.counts.recomputes.max(1) as f64;
        let rounds_per = r.counts.maxmin_rounds as f64 / r.counts.recomputes.max(1) as f64;
        table::row(&[
            r.name.to_string(),
            r.machines.to_string(),
            r.links.to_string(),
            r.counts.events.to_string(),
            r.counts.recomputes.to_string(),
            r.counts.maxmin_rounds.to_string(),
            format!("{dirty_per:.1}"),
            table::secs(r.full_s),
            table::secs(r.incremental_s),
            format!("{:.2}x", r.speedup),
        ]);
        match r.policy {
            Policy::Fair => assert_eq!(
                r.counts.recomputes, r.counts.recomputes_incremental,
                "{}: FairShare cells must run fully incremental",
                r.name
            ),
            Policy::Varys => {
                assert!(
                    r.counts.recomputes_incremental > 0,
                    "{}: varys cells must exercise the coflow-incremental path",
                    r.name
                );
                assert_eq!(
                    r.counts.recomputes,
                    r.counts.recomputes_incremental + r.counts.recomputes_full,
                    "{}: varys recomputes must split into incremental + full",
                    r.name
                );
            }
        }
        if let Some(&(_, g_rc, g_rounds)) = GOLDEN.iter().find(|(n, _, _)| *n == r.name) {
            if (r.counts.recomputes, r.counts.maxmin_rounds) != (g_rc, g_rounds) {
                drift.push(format!(
                    "{}: (recomputes, rounds) = ({}, {}) != golden ({g_rc}, {g_rounds})",
                    r.name, r.counts.recomputes, r.counts.maxmin_rounds
                ));
            }
        }
        if r.policy == Policy::Fair && r.name.ends_with("-50k") && r.speedup < 5.0 {
            println!(
                "   warning: {} speedup {:.2}x below the 5x acceptance target",
                r.name, r.speedup
            );
        }
        cell_json.push(format!(
            "    {{\"cell\": \"{}\", \"workload\": \"{}\", \"policy\": \"{}\", \
             \"machines\": {}, \"links\": {}, \
             \"events\": {}, \"recomputes\": {}, \"maxmin_rounds\": {}, \
             \"rounds_per_recompute\": {rounds_per:.3}, \"dirty_per_recompute\": {dirty_per:.3}, \
             \"full_s\": {:.4}, \"incremental_s\": {:.4}, \"speedup\": {:.3}}}",
            r.name,
            r.workload,
            r.policy.label(),
            r.machines,
            r.links,
            r.counts.events,
            r.counts.recomputes,
            r.counts.maxmin_rounds,
            r.full_s,
            r.incremental_s,
            r.speedup,
        ));
    }

    if bless {
        println!("   bless mode: paste into GOLDEN:");
        for r in &results {
            println!(
                "    (\"{}\", {}, {}),",
                r.name, r.counts.recomputes, r.counts.maxmin_rounds
            );
        }
    } else if !drift.is_empty() {
        panic!("fig14-xl counter drift:\n  {}", drift.join("\n  "));
    }

    let json = format!(
        "{{\n  \"bench\": \"fabric_scale\",\n  \"smoke\": {smoke},\n  \"cells\": [\n{}\n  ]\n}}\n",
        cell_json.join(",\n")
    );
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("   wrote BENCH_scale.json");
}

/// The full sweep: all twelve cells, [`REPEATS`] timed pairs each.
pub fn main() {
    run(&CELLS, REPEATS, false);
}

/// CI smoke subset (`repro scalebench`): the four 2k-machine cells —
/// both policies — one timed pair each; same goldens, a fraction of the
/// wall time.
pub fn smoke() {
    run(&CELLS[..4], 1, true);
}
