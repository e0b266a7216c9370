//! End-to-end and per-layer benchmark of the Corral simulator, planner
//! and scheduling service.
//!
//! ```text
//! corral-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! One process, one thread. Each run generates its workload from the
//! seed, then makes timed passes through the public API, each after a
//! batch of timed set-up builds, until `--seconds` is spent, checks every
//! pass's outputs against the golden table and against each other, and
//! prints one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (and the layer ledger) with
//! `--trace 1`. Any mismatch prints `"correct": false` and exits 1.
//! `--bless` prints the golden line of the instance instead of checking.

mod golden;
mod heap;
mod host;
mod ledger;
mod work;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use corral_trace::probe;

use host::HostClock;
use ledger::{layer_of, Ledger};
use work::{Outcome, SetupTimes, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// The seed selects one of this many instances of each workload (seed
/// modulo `INSTANCES`); `golden.txt` holds every instance's outputs, so
/// the correctness gate applies whatever the seed.
const INSTANCES: u64 = 16;

/// Minimum untraced passes of an untraced run.
const MIN_PASSES: usize = 3;

/// Capacity of the per-pass call buffer.
const MAX_CALLS: usize = 1 << 16;

/// The p95 op latency needs at least 10 samples beyond it.
const MIN_OP_SAMPLES: usize = 200;

const USAGE: &str =
    "usage: corral-perfbench --workload <fig6-w1-tcp|fig14-2k-varys|serve-w1-xl> --seed <n> --seconds <s> --trace <0|1> [--bless]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bless) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bless,
    })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A list of times for the text output; long lists as a summary.
fn fmt_list(v: &[f64]) -> String {
    if v.len() > 30 {
        let (lo, hi) = v
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(l, h), &x| (l.min(x), h.max(x)));
        return format!(
            "{} values, min {lo:.6}, median {:.6}, max {hi:.6}",
            v.len(),
            median(v)
        );
    }
    let items: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
    format!("[{}]", items.join(", "))
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One timed call of a pass: raw host seconds, host-clock segment, and
/// whether it was an operation.
type Call = (f64, usize, bool);

/// Everything one run measured. Times are raw host seconds, except the
/// `norm_` ones, which are normalised by the host clock (see `host`).
struct Run {
    w: Workload,
    instance: u64,
    started: Instant,
    golden: Option<golden::Values>,
    clock: HostClock,
    /// Set-up builds and the host-clock segment each fell in.
    setups: Vec<(SetupTimes, usize)>,
    walls: Vec<f64>,
    norm_walls: Vec<f64>,
    norm_op_ms: Vec<f64>,
    /// The timed calls of the current pass, reused across passes and
    /// allocated once, so that it never grows inside a heap-counted pass.
    calls: Vec<Call>,
    peak: Option<usize>,
    outcome: Option<Outcome>,
    /// Traced passes: walls, the pooled ledger, `on_event` time, and
    /// the probe's deterministic counts of the first traced pass.
    traced_walls: Vec<f64>,
    norm_traced_walls: Vec<f64>,
    ledger: Ledger,
    on_event_s: f64,
    traced_counts: Option<Vec<(&'static str, u64)>>,
    /// Probe data of the traced set-up builds (planner spans of
    /// `plan_jobs`) and how many there were.
    setup_ledger: Ledger,
    traced_setups: usize,
}

impl Run {
    fn new(w: Workload, instance: u64, golden: Option<golden::Values>) -> Run {
        Run {
            w,
            instance,
            started: Instant::now(),
            golden,
            clock: HostClock::new(),
            setups: Vec::new(),
            walls: Vec::new(),
            norm_walls: Vec::new(),
            norm_op_ms: Vec::new(),
            calls: Vec::with_capacity(MAX_CALLS),
            peak: None,
            outcome: None,
            traced_walls: Vec::new(),
            norm_traced_walls: Vec::new(),
            ledger: Ledger::default(),
            on_event_s: 0.0,
            traced_counts: None,
            setup_ledger: Ledger::default(),
            traced_setups: 0,
        }
    }

    fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// A discarded warm-up build. The serving workload's set-up does
    /// not run the planner, so its warm-up also makes one untimed pass:
    /// the planner's thread-local scratch then has its steady size
    /// before any pass is timed or heap-counted.
    fn warm_up(&mut self) {
        let (built, _) = work::setup(self.w, self.instance);
        if self.w == Workload::Serve {
            work::pass(self.w, built, &mut |_, _| {});
        }
    }

    /// A batch of timed set-up builds. A batch runs before every
    /// untraced pass, so that the builds, like the passes, sample the
    /// host over the whole run rather than during one burst.
    fn time_builds(&mut self) {
        for _ in 0..build_batch(self.w) {
            let (built, t) = work::setup(self.w, self.instance);
            drop(built);
            self.setups.push((t, self.clock.tick(t.total())));
        }
        self.clock.close();
    }

    /// Sums the current pass's calls normalised by the host clock, after
    /// closing its last segment; with `ops`, also keeps each operation's
    /// normalised latency.
    fn normalise_pass(&mut self, ops: bool) -> f64 {
        self.clock.close();
        let mut wall = 0.0;
        for &(dt, seg, op) in &self.calls {
            let dt = dt * self.clock.scale(seg);
            wall += dt;
            if ops && op {
                self.norm_op_ms.push(dt * 1e3);
            }
        }
        wall
    }

    /// Checks a pass's outputs: against the golden table on the first
    /// pass, against the first pass afterwards.
    fn check(&mut self, o: Outcome) -> Result<(), String> {
        match &self.outcome {
            None => {
                if let Some(g) = &self.golden {
                    let d = golden::diff(&golden::observed(&o), g);
                    if !d.is_empty() {
                        return Err(format!(
                            "outputs differ from golden.txt:\n  {}",
                            d.join("\n  ")
                        ));
                    }
                }
                self.outcome = Some(o);
            }
            Some(first) if *first != o => {
                return Err(format!(
                    "pass outputs differ between passes:\n  first {first:?}\n  now {o:?}"
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// One untraced pass on a fresh build: timed, heap-counted, checked.
    fn untraced_pass(&mut self) -> Result<(), String> {
        probe::set_enabled(false);
        self.calls.clear();
        let base = heap::reset_peak();
        let (built, t) = work::setup(self.w, self.instance);
        let seg = self.clock.tick(t.total());
        let (clock, calls) = (&mut self.clock, &mut self.calls);
        let (o, wall) = work::pass(self.w, built, &mut |dt, op| {
            calls.push((dt, clock.tick(dt), op));
        });
        let peak = heap::peak() - base;
        if self.calls.capacity() != MAX_CALLS {
            return Err(format!("a pass made more than {MAX_CALLS} calls"));
        }
        self.setups.push((t, seg));
        let norm = self.normalise_pass(true);
        self.norm_walls.push(norm);
        match self.peak {
            Some(p) if p != peak => {
                return Err(format!(
                    "peak heap differs between passes: {p} B vs {peak} B"
                ))
            }
            _ => self.peak = Some(peak),
        }
        self.walls.push(wall);
        self.check(o)
    }

    /// One traced pass: probes on, harvested after every call.
    fn traced_pass(&mut self) -> Result<(), String> {
        probe::set_enabled(true);
        probe::reset();
        let (built, _) = work::setup(self.w, self.instance);
        self.setup_ledger.harvest();
        self.traced_setups += 1;
        let mut led = Ledger::default();
        let mut on_event = 0.0;
        self.calls.clear();
        let (clock, calls) = (&mut self.clock, &mut self.calls);
        let (o, wall) = work::pass(self.w, built, &mut |dt, op| {
            if op {
                on_event += dt;
            }
            led.harvest();
            calls.push((dt, clock.tick(dt), op));
        });
        probe::set_enabled(false);
        let norm = self.normalise_pass(false);
        self.norm_traced_walls.push(norm);
        let counts = probe_counts(&led);
        match &self.traced_counts {
            Some(c) if *c != counts => {
                return Err(format!(
                    "probe counts differ between traced passes: {c:?} vs {counts:?}"
                ))
            }
            _ => self.traced_counts = Some(counts),
        }
        self.ledger.merge(led);
        self.on_event_s += on_event;
        self.traced_walls.push(wall);
        self.check(o)
    }
}

/// Deterministic counts the probe records during a pass.
fn probe_counts(led: &Ledger) -> Vec<(&'static str, u64)> {
    vec![
        ("engine.events", led.span_count("engine.event")),
        ("fabric.recomputes", led.span_count("fabric.recompute")),
        ("fabric.maxmin_rounds", led.counter("maxmin.rounds")),
        (
            "fabric.dirty_flows_sum",
            led.counter("fabric.dirty_flows_sum"),
        ),
        (
            "fabric.dirty_flows_samples",
            led.counter("fabric.dirty_flows_samples"),
        ),
        ("planner.scored", led.span_count("planner.score")),
        ("planner.heap_pops", led.counter("planner.heap_pops")),
    ]
}

/// Timed set-up builds per batch: about 0.5 s, 0.15 s and 4 ms of
/// host time, a few percent of the pass that follows.
fn build_batch(w: Workload) -> usize {
    match w {
        Workload::Fig6 => 2,
        Workload::Fig14 => 2,
        Workload::Serve => 40,
    }
}

/// Runs passes until the next one would overrun `--seconds`, but at
/// least three untraced ones (one with `--bless`), or one of each kind
/// in a traced run. In a traced run
/// the two kinds alternate, so the tracing overhead compares passes made
/// under the same host conditions.
fn measure(run: &mut Run, args: &Args) -> Result<(), String> {
    let (min_untraced, min_traced) = match (args.trace, args.bless) {
        (true, _) => (1, 1),
        (false, true) => (1, 0),
        (false, false) => (MIN_PASSES, 0),
    };
    let seconds = args.seconds;
    let traced = args.trace;
    let mut longest: f64 = 0.0;
    loop {
        let t0 = run.elapsed();
        if traced && run.traced_walls.len() < run.walls.len() {
            run.traced_pass()?;
        } else {
            run.time_builds();
            run.untraced_pass()?;
        }
        longest = longest.max(run.elapsed() - t0);
        let enough = run.walls.len() >= min_untraced && run.traced_walls.len() >= min_traced;
        if enough && run.elapsed() + longest > seconds {
            return Ok(());
        }
    }
}

/// A metric as printed in the result object.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end(run: &Run) -> Result<Vec<Metric>, String> {
    let o = run.outcome.as_ref().expect("a measured run has an outcome");
    let mut ops = run.norm_op_ms.clone();
    ops.sort_by(f64::total_cmp);
    if ops.len() < MIN_OP_SAMPLES {
        return Err(format!(
            "{} op samples, fewer than the {MIN_OP_SAMPLES} a p95 needs",
            ops.len()
        ));
    }
    let norm_setups: Vec<f64> = run
        .setups
        .iter()
        .map(|(t, seg)| t.total() * run.clock.scale(*seg))
        .collect();
    let setup = median(&norm_setups);
    let wall = median(&run.norm_walls);
    println!(
        "{}: {} passes, {} builds, {} op samples (n for op_p50_ms/op_p95_ms)",
        run.w.name(),
        run.walls.len(),
        run.setups.len(),
        ops.len()
    );
    let raw_setups: Vec<f64> = run.setups.iter().map(|(t, _)| t.total()).collect();
    println!("  raw wall s         {}", fmt_list(&run.walls));
    println!("  normalised wall s  {}", fmt_list(&run.norm_walls));
    println!("  raw setup s        {}", fmt_list(&raw_setups));
    println!("  normalised setup s {}", fmt_list(&norm_setups));
    println!(
        "  host reference kernel {:.3} ms (median), nominal {:.3} ms, pinned to CPU {:?}",
        run.clock.median_ref_s() * 1e3,
        host::NOMINAL_REF_S * 1e3,
        run.clock.cpu()
    );
    Ok(vec![
        metric("setup_s", setup, "s"),
        metric("wall_s", wall, "s"),
        metric("ops_per_s", o.ops as f64 / wall, "1/s"),
        metric("op_p50_ms", percentile(&ops, 50.0), "ms"),
        metric("op_p95_ms", percentile(&ops, 95.0), "ms"),
        metric(
            "peak_heap_mb",
            run.peak.expect("a measured run has a peak") as f64 / (1u64 << 20) as f64,
            "MiB",
        ),
        metric("sim_makespan_s", o.makespan_s, "sim_s"),
        metric("sim_avg_jct_s", o.avg_jct_s, "sim_s"),
        metric("done_ratio", 1.0 - o.fail_ratio, "1"),
    ])
}

/// Prints the layer ledger of the traced passes and checks that it
/// adds up: every self time and the remainder are non-negative (up to
/// timer noise) and their sum is the traced wall.
fn print_ledger(run: &Run) -> Result<(), String> {
    let n = run.traced_walls.len() as f64;
    let wall = run.traced_walls.iter().sum::<f64>() / n;
    let led = &run.ledger;
    let unattributed = led.unattributed(wall * n) / n;
    println!(
        "layer ledger, {} (mean of {n} traced passes, wall {wall:.4} s):",
        run.w.name()
    );
    println!(
        "  {:<8} {:<18} {:>10} {:>10} {:>7}",
        "layer", "span", "total_s", "self_s", "share"
    );
    let mut sum = unattributed;
    let mut worst: f64 = 0.0;
    for (label, self_s) in led.self_times() {
        let self_s = self_s / n;
        sum += self_s;
        worst = worst.min(self_s);
        println!(
            "  {:<8} {:<18} {:>10.4} {:>10.4} {:>6.1}%",
            layer_of(label),
            label,
            led.span_total(label) / n,
            self_s,
            100.0 * self_s / wall
        );
    }
    let what = match run.w {
        Workload::Serve => "benchmark loop outside on_event",
        _ => "engine event loop and dispatch outside any probe span",
    };
    println!(
        "  {:<8} {:<18} {:>10} {:>10.4} {:>6.1}%   ({what})",
        "-",
        "unattributed",
        "",
        unattributed,
        100.0 * unattributed / wall
    );
    println!(
        "  {:<8} {:<18} {:>10} {:>10.4} {:>6.1}%",
        "",
        "sum",
        "",
        sum,
        100.0 * sum / wall
    );
    for label in led.unsampled() {
        println!("  note: no ring sample of {label}; counted at top level");
    }
    let slack = 0.01 * wall;
    if worst < -slack || unattributed < -slack {
        return Err(format!(
            "ledger has negative time (min self {worst:.4} s, unattributed {unattributed:.4} s): span nesting was mis-sampled"
        ));
    }
    if (sum - wall).abs() > 1e-9 * wall.max(1.0) {
        return Err(format!("ledger sums to {sum} s, traced wall is {wall} s"));
    }
    Ok(())
}

fn per_layer(run: &Run) -> Result<Vec<Metric>, String> {
    print_ledger(run)?;
    let o = run.outcome.as_ref().expect("a measured run has an outcome");
    let n = run.traced_walls.len() as f64;
    let traced = median(&run.norm_traced_walls);
    let untraced = median(&run.norm_walls);
    println!(
        "  tracing overhead {:+.1}% (median normalised traced pass {traced:.4} s, untraced {untraced:.4} s)",
        100.0 * (traced / untraced - 1.0)
    );
    let wall = run.traced_walls.iter().sum::<f64>() / n;
    let led = &run.ledger;
    let layer_self = |layer: &str| -> f64 {
        led.self_times()
            .iter()
            .filter(|(l, _)| layer_of(l) == layer)
            .map(|(_, s)| s)
            .sum::<f64>()
            / n
    };
    let other_layers: f64 = led
        .self_times()
        .iter()
        .filter(|(l, _)| layer_of(l) != "cluster")
        .map(|(_, s)| s)
        .sum::<f64>()
        / n;
    let setups = run.setups.as_slice();
    let med =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(|(t, _)| f(t)).collect::<Vec<_>>());
    let counts = run.traced_counts.clone().unwrap_or_default();
    let count = |k: &str| counts.iter().find(|(c, _)| *c == k).map_or(0, |&(_, v)| v) as f64;
    let sim = run.w != Workload::Serve;
    let serve = !sim;
    let when = |on: bool, v: f64| if on { v } else { 0.0 };
    let ts = run.traced_setups.max(1) as f64;
    // Provisioning runs in `plan_jobs` during set-up on the simulation
    // workloads and inside `on_event` on the serving workload.
    let (provision, score) = if sim {
        (
            run.setup_ledger.span_total("planner.provision") / ts,
            run.setup_ledger.span_total("planner.score") / ts,
        )
    } else {
        (
            led.span_total("planner.provision") / n,
            led.span_total("planner.score") / n,
        )
    };
    let lookups = o.count("cache_hits") + o.count("cache_misses");
    let unattributed = led.unattributed(wall * n) / n;
    Ok(vec![
        metric("workloads.gen_s", med(|t| t.gen), "s"),
        metric("core.plan_s", med(|t| t.plan), "s"),
        metric("core.provision_s", provision, "s"),
        metric("core.score_s", score, "s"),
        metric(
            "core.candidates",
            if sim {
                o.count("candidates") as f64
            } else {
                count("planner.scored")
            },
            "count",
        ),
        metric("core.share_pct", 100.0 * layer_self("core") / wall, "%"),
        metric("cluster.engine_new_s", when(sim, med(|t| t.build)), "s"),
        metric("cluster.run_s", when(sim, wall), "s"),
        metric("cluster.event_s", led.span_total("engine.event") / n, "s"),
        metric("cluster.self_s", when(sim, wall - other_layers), "s"),
        metric("cluster.events", count("engine.events"), "count"),
        metric(
            "cluster.tasks_finished",
            o.count("tasks_finished") as f64,
            "count",
        ),
        metric(
            "simnet.recompute_s",
            led.span_total("fabric.recompute") / n,
            "s",
        ),
        metric("simnet.maxmin_s", led.span_total("fabric.maxmin") / n, "s"),
        metric("simnet.share_pct", 100.0 * layer_self("simnet") / wall, "%"),
        metric("simnet.recomputes", count("fabric.recomputes"), "count"),
        metric(
            "simnet.maxmin_rounds",
            count("fabric.maxmin_rounds"),
            "count",
        ),
        metric(
            "simnet.dirty_flows_per_recompute",
            count("fabric.dirty_flows_sum") / count("fabric.dirty_flows_samples").max(1.0),
            "count",
        ),
        metric(
            "simnet.flows_completed",
            o.count("flows_completed") as f64,
            "count",
        ),
        metric("sim_cross_rack_gb", o.cross_rack_gb, "GB"),
        metric("serve.on_event_s", when(serve, run.on_event_s / n), "s"),
        metric("serve.self_s", layer_self("serve"), "s"),
        metric(
            "serve.replans_incremental",
            o.count("replans_incremental") as f64,
            "count",
        ),
        metric(
            "serve.replans_full",
            o.count("replans_full") as f64,
            "count",
        ),
        metric(
            "serve.cache_hit_ratio",
            o.count("cache_hits") as f64 / lookups.max(1) as f64,
            "1",
        ),
        metric(
            "serve.decisions",
            when(serve, o.count("decisions") as f64),
            "count",
        ),
        metric("trace.overhead_pct", 100.0 * (traced / untraced - 1.0), "%"),
        metric("trace.unattributed_s", unattributed, "s"),
        metric("trace.unattributed_pct", 100.0 * unattributed / wall, "%"),
        metric("host.ref_ms", run.clock.median_ref_s() * 1e3, "ms"),
    ])
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `+ 0.0` turns -0.0 into 0.0.
        let _ = write!(
            m,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            x.name,
            x.value + 0.0,
            x.unit
        );
    }
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}")
}

/// Measures one run; the run comes back whether or not it succeeded,
/// so that a failure can still report how many passes it attempted.
fn run(args: &Args, golden: Option<golden::Values>) -> (Run, Result<Vec<Metric>, String>) {
    let instance = args.seed % INSTANCES;
    let mut run = Run::new(args.workload, instance, golden);
    run.warm_up();
    let metrics = measure(&mut run, args)
        .and_then(|()| {
            if args.trace {
                per_layer(&run)
            } else {
                end_to_end(&run)
            }
        })
        .and_then(|m| match m.iter().find(|x| !x.value.is_finite()) {
            Some(x) => Err(format!("metric {} is {}", x.name, x.value)),
            None => Ok(m),
        });
    (run, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = heap::self_check() {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    let instance = args.seed % INSTANCES;
    let golden = if args.bless {
        None
    } else {
        match golden::lookup(args.workload, instance) {
            Some(g) => Some(g),
            None => {
                eprintln!(
                    "error: golden.txt has no line for {} {instance}",
                    args.workload.name()
                );
                return ExitCode::from(1);
            }
        }
    };
    println!(
        "{} seed {} (instance {instance}), {} s, trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    match run(&args, golden) {
        (run, Ok(metrics)) => {
            let o = run.outcome.as_ref().expect("a measured run has an outcome");
            if args.bless {
                println!("{}", golden::line(run.w, instance, &golden::observed(o)));
            }
            let passes = (run.walls.len() + run.traced_walls.len()) as u64;
            let jobs = o.count("jobs").max(o.count("arrivals"));
            let failed = (o.fail_ratio * jobs as f64).round() as u64;
            println!(
                "{}",
                result_json(true, passes * jobs, passes * failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        (run, Err(e)) => {
            eprintln!("error: {e}");
            let passes = (run.walls.len() + run.traced_walls.len()).max(1) as u64;
            println!("{}", result_json(false, passes, passes, &[]));
            ExitCode::from(1)
        }
    }
}
