//! `corral-sim` — command-line front end for the Corral planner and
//! cluster simulator.
//!
//! ```text
//! corral-sim gen w1 --jobs 40 --seed 7 -o w1.csv     # generate a workload trace
//! corral-sim plan w1.csv --objective makespan         # print the offline plan
//! corral-sim simulate w1.csv --scheduler corral \
//!             --trace run.jsonl --perfetto run.json \
//!             --summary                                # run with tracing on
//! ```
//!
//! Argument parsing is deliberately hand-rolled (the workspace carries no
//! CLI dependency); see [`corral::cli::Flags`]. Unknown flags are
//! rejected, every known flag has a default, so the quick path is
//! `corral-sim gen w1 -o t.csv && corral-sim simulate t.csv`.

use corral::cli::{sweep_flags, Flags, SWEEP_VALUE_FLAGS};
use corral::cluster::config::{DataPlacement, SimParams};
use corral::cluster::engine::Engine;
use corral::cluster::scheduler::SchedulerKind;
use corral::core::{plan_jobs, plan_jobs_with_tracer, Objective, Plan, PlannerConfig};
use corral::model::{ClusterConfig, JobSpec, SimTime};
use corral::simnet::background::BackgroundModel;
use corral::trace::probe;
use corral::trace::{
    chrome_trace, chrome_trace_with_probe, FanoutTracer, JsonlTracer, MemTracer, SharedTracer,
    Tracer,
};
use corral::workloads::{assign_uniform_arrivals, swim, trace, w1, w2, w3, Scale};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    // Self-profiling can also be switched on without a flag
    // (CORRAL_PROBE=1) for commands that have no --probe of their own.
    probe::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(|s| s.as_str()) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("import-swim") => cmd_import_swim(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("--version") | Some("-V") => {
            println!("corral-sim {}", env!("CARGO_PKG_VERSION"));
            Ok(())
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `corral-sim help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "corral-sim — Corral planner & cluster simulator

USAGE:
  corral-sim gen <w1|w2|w3> [--jobs N] [--seed S] [--task-div D]
                 [--window-min M] -o <trace.csv>
  corral-sim import-swim <swim.tsv> [--task-div D] -o <trace.csv>
  corral-sim plan <trace.csv> [--objective makespan|avgjct]
                 [--out <plan.csv>]
  corral-sim simulate <trace.csv>
                 [--scheduler yarn-cs|corral|localshuffle|shufflewatcher]
                 [--objective makespan|avgjct] [--background FRAC]
                 [--seed S] [--seeds N] [-j/--jobs N]
                 [--plan <plan.csv>] [--timeline <gantt.csv>]
                 [--trace <events.jsonl>] [--perfetto <trace.json>]
                 [--probe <probe.prom>] [--summary]
  corral-sim serve <events.jsonl|trace.csv|->
                 [--objective makespan|avgjct] [--cluster testbed|sim2000|tiny]
                 [--max-queue N] [--tripwire] [--strict]
                 [--no-fallback] [--fail-threshold F] [--retries N]
                 [--backoff SECS] [--churn-mtbf SECS] [--churn-repair SECS]
                 [--churn-horizon SECS] [--churn-seed S]
                 [--decisions <out.jsonl>] [--quiet] [--summary]
                 [--snapshot <file> --snapshot-after N] [--restore <file>]
                 [--probe <probe.prom>]
  corral-sim --version

The cluster is the paper's 210-machine testbed (7 racks x 30 machines,
10 Gbps NICs, 5:1 oversubscription, 4 slots/machine).

Observability: --trace streams structured events as JSONL, --perfetto
writes a Chrome/Perfetto trace-viewer file (load at ui.perfetto.dev),
--summary prints utilization, locality and queueing-delay percentiles.
--probe FILE enables corral-probe self-profiling (host wall-clock spans
and counters for the simulator's own hot paths; also via CORRAL_PROBE=1)
and writes a Prometheus-style text exposition; with --perfetto the probe
spans also appear as a 'probe (host)' track. Probes never perturb the
simulation: same-seed runs are byte-identical with probes on or off.

Sweeps: --seeds N runs the simulation under N seeds (--seed plus N-1
derived from it) and prints per-seed rows plus mean/p50/p90/p99 and a
95% CI half-width; -j/--jobs sets the worker count (default: all host
cores). Per-seed results are byte-identical to running each seed
serially; per-run exports (--trace/--perfetto/--timeline/--summary)
require a single seed.

Serve: runs the planner as a resident scheduling service over a JSONL
event stream (one {{\"type\":\"arrival\",...}} or {{\"type\":\"completion\",...}}
object per line; a .csv trace is adapted to pure arrivals, '-' reads
stdin). Decisions stream to stdout (or --decisions FILE) as JSONL.
Every arrival/completion replans the queue incrementally (latency tables
are reused across replans); --tripwire re-runs the full batch planner as
an oracle on every replan and aborts on any divergence. --snapshot FILE
--snapshot-after N stops after N input events and writes resumable,
checksummed scheduler state; --restore FILE resumes, skipping the
already-consumed prefix of the input — the combined decision stream is
byte-identical to the uninterrupted run.

Failures: machine_failed / machine_repaired / rack_failed events flow
through the same stream. By default the scheduler masks dead capacity
out of the planning problem and re-anchors queued jobs whose racks died
(the paper's §7 fallback; tune with --fail-threshold, default 0.5);
--no-fallback plans failure-blind and degrades at dispatch time instead
(--retries deferrals with exponential --backoff, then the pins drop).
--churn-mtbf SECS injects a deterministic seeded Poisson churn schedule
(mean repair --churn-repair, up to --churn-horizon, seed --churn-seed)
into the input stream. Malformed input lines become structured
'malformed' rejects by default; --strict aborts on the first one."
    );
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(
        args,
        &[
            "-o",
            "--out",
            "--jobs",
            "--seed",
            "--task-div",
            "--window-min",
        ],
        &[],
    )?;
    let kind = f.positional(0).ok_or("gen: which workload? (w1|w2|w3)")?;
    let out = f
        .value("-o")
        .or(f.value("--out"))
        .ok_or("gen: -o <file> required")?;
    let seed: u64 = f.parse_or("--seed", 1)?;
    let task_div: f64 = f.parse_or("--task-div", 4.0)?;
    let window_min: f64 = f.parse_or("--window-min", 0.0)?;
    let scale = Scale {
        task_divisor: task_div,
        data_divisor: 1.0,
    };
    let mut jobs: Vec<JobSpec> = match kind {
        "w1" => {
            let jobs: usize = f.parse_or("--jobs", 60)?;
            w1::generate(
                &w1::W1Params {
                    jobs,
                    ..w1::W1Params::with_seed(seed)
                },
                scale,
            )
        }
        "w2" => {
            let jobs: usize = f.parse_or("--jobs", 100)?;
            w2::generate(
                &w2::W2Params {
                    jobs,
                    seed,
                    ..Default::default()
                },
                scale,
            )
        }
        "w3" => {
            let jobs: usize = f.parse_or("--jobs", 60)?;
            w3::generate(
                &w3::W3Params {
                    jobs,
                    seed,
                    ..Default::default()
                },
                scale,
            )
        }
        other => return Err(format!("unknown workload {other:?} (w1|w2|w3)")),
    };
    if window_min > 0.0 {
        assign_uniform_arrivals(&mut jobs, SimTime::minutes(window_min), seed ^ 0xA);
    }
    let csv = trace::to_csv(&jobs).map_err(|e| e.to_string())?;
    std::fs::write(out, csv).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} jobs to {out}", jobs.len());
    Ok(())
}

fn cmd_import_swim(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &["-o", "--out", "--task-div"], &[])?;
    let path = f
        .positional(0)
        .ok_or("import-swim: SWIM .tsv file required")?;
    let out = f
        .value("-o")
        .or(f.value("--out"))
        .ok_or("import-swim: -o <file> required")?;
    let task_div: f64 = f.parse_or("--task-div", 4.0)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let params = swim::SwimParams {
        scale: Scale {
            task_divisor: task_div,
            data_divisor: 1.0,
        },
        ..Default::default()
    };
    let jobs = swim::parse(&text, &params).map_err(|e| e.to_string())?;
    let csv = trace::to_csv(&jobs).map_err(|e| e.to_string())?;
    std::fs::write(out, csv).map_err(|e| format!("writing {out}: {e}"))?;
    println!("imported {} SWIM jobs into {out}", jobs.len());
    Ok(())
}

fn load_trace(path: &str) -> Result<Vec<JobSpec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    trace::from_csv(&text).map_err(|e| e.to_string())
}

fn objective_flag(f: &Flags) -> Result<Objective, String> {
    match f.value("--objective").unwrap_or("makespan") {
        "makespan" => Ok(Objective::Makespan),
        "avgjct" | "avg" => Ok(Objective::AvgCompletionTime),
        other => Err(format!("unknown objective {other:?} (makespan|avgjct)")),
    }
}

fn cmd_plan(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &["--objective", "--out"], &[])?;
    let path = f.positional(0).ok_or("plan: trace file required")?;
    let jobs = load_trace(path)?;
    let cfg = ClusterConfig::testbed_210();
    let objective = objective_flag(&f)?;
    let plan = plan_jobs(&cfg, &jobs, objective, &PlannerConfig::default());
    println!(
        "planned {} jobs; predicted objective = {:.1}s",
        plan.len(),
        plan.objective_value
    );
    println!(
        "provisioning scored {} candidate allocations",
        plan.provision_stats.candidates
    );
    if let Some(out) = f.value("--out") {
        std::fs::write(out, plan.to_csv()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote plan to {out}");
    }
    println!(
        "{:>6} {:>5} {:>14} {:>10} {:>10}  racks",
        "job", "prio", "latency", "start", "finish"
    );
    let mut entries: Vec<_> = plan.entries.values().collect();
    entries.sort_by_key(|e| e.priority);
    for e in entries {
        println!(
            "{:>6} {:>5} {:>13.1}s {:>9.1}s {:>9.1}s  {:?}",
            e.job.to_string(),
            e.priority,
            e.predicted_latency.as_secs(),
            e.planned_start.as_secs(),
            e.planned_finish.as_secs(),
            e.racks.iter().map(|r| r.0).collect::<Vec<_>>(),
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use corral::serve::{chaos, snapshot, source, wire, ChaosSpec, Scheduler, ServeConfig};

    const SERVE_VALUE_FLAGS: [&str; 15] = [
        "--objective",
        "--cluster",
        "--max-queue",
        "--decisions",
        "--snapshot",
        "--snapshot-after",
        "--restore",
        "--probe",
        "--fail-threshold",
        "--retries",
        "--backoff",
        "--churn-mtbf",
        "--churn-repair",
        "--churn-horizon",
        "--churn-seed",
    ];
    let f = Flags::parse(
        args,
        &SERVE_VALUE_FLAGS,
        &[
            "--summary",
            "--tripwire",
            "--quiet",
            "--no-fallback",
            "--strict",
        ],
    )?;
    if f.value("--probe").is_some() {
        probe::set_enabled(true);
    }
    let path = f
        .positional(0)
        .ok_or("serve: event stream required (events.jsonl | trace.csv | -)")?;
    let cluster = match f.value("--cluster").unwrap_or("testbed") {
        "testbed" => ClusterConfig::testbed_210(),
        "sim2000" => ClusterConfig::sim_2000(),
        "tiny" => ClusterConfig::tiny_test(),
        other => return Err(format!("unknown cluster {other:?} (testbed|sim2000|tiny)")),
    };
    let cfg = ServeConfig {
        cluster,
        objective: objective_flag(&f)?,
        max_queue: f.parse_or("--max-queue", 64)?,
        tripwire: f.has("--tripwire"),
        fallback: !f.has("--no-fallback"),
        failure_threshold: f.parse_or("--fail-threshold", 0.5)?,
        dispatch_retries: f.parse_or("--retries", 3)?,
        retry_backoff: SimTime(f.parse_or("--backoff", 30.0)?),
        ..ServeConfig::default()
    };

    // Default reading is lossy: malformed lines become structured
    // rejects instead of taking the service down. --strict restores
    // abort-on-first-error for validating curated streams.
    let strict = f.has("--strict");
    let events = if path == "-" {
        let stdin = std::io::stdin().lock();
        if strict {
            source::read_events(stdin)?
        } else {
            source::read_events_lossy(stdin)?
        }
    } else if path.ends_with(".csv") {
        source::events_from_specs(&load_trace(path)?)
    } else {
        let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
        let reader = std::io::BufReader::new(file);
        if strict {
            source::read_events(reader)?
        } else {
            source::read_events_lossy(reader)?
        }
    };
    // Deterministic chaos injection: same flags + seed ⇒ same merged
    // stream, so snapshots/restores and goldens stay byte-stable.
    let events = match f.value("--churn-mtbf") {
        Some(_) => {
            let spec = ChaosSpec {
                mtbf: SimTime(f.parse_or("--churn-mtbf", 600.0)?),
                mean_repair: SimTime(f.parse_or("--churn-repair", 120.0)?),
                horizon: SimTime(f.parse_or("--churn-horizon", 3600.0)?),
                seed: f.parse_or("--churn-seed", 0xC0441)?,
            };
            chaos::merge(events, spec.events(&cfg.cluster))
        }
        None => events,
    };

    let mut sched = match f.value("--restore") {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
            snapshot::read(&text, cfg)?
        }
        None => Scheduler::new(cfg),
    };
    // A restored scheduler has already consumed a prefix of the stream.
    let skip = sched.stats().events as usize;
    if skip > events.len() {
        return Err(format!(
            "snapshot has consumed {skip} events but the stream only has {}",
            events.len()
        ));
    }

    let snapshot_after: usize = f.parse_or("--snapshot-after", 0)?;
    let snapshot_path = f.value("--snapshot");
    if (snapshot_after > 0) != snapshot_path.is_some() {
        return Err("serve: --snapshot FILE and --snapshot-after N go together".into());
    }

    let mut out = Vec::new();
    let mut interrupted = false;
    for (i, ev) in events.into_iter().enumerate().skip(skip) {
        sched.on_event(ev, &mut out);
        if snapshot_after > 0 && i + 1 == skip + snapshot_after {
            interrupted = true;
            break;
        }
    }
    if interrupted {
        let text = snapshot::write(&sched)?;
        let p = snapshot_path.expect("checked above");
        std::fs::write(p, text).map_err(|e| format!("writing {p}: {e}"))?;
        eprintln!(
            "snapshot: {} events consumed, {} queued, {} active -> {p}",
            sched.stats().events,
            sched.queue_len(),
            sched.active_len(),
        );
    } else {
        sched.finish(&mut out);
    }

    let mut text = String::with_capacity(out.len() * 80);
    for (t, d) in &out {
        text.push_str(&wire::format_decision(*t, d));
        text.push('\n');
    }
    match f.value("--decisions") {
        Some(p) => std::fs::write(p, &text).map_err(|e| format!("writing {p}: {e}"))?,
        None => {
            if !f.has("--quiet") {
                print!("{text}");
            }
        }
    }

    if f.has("--summary") {
        let s = sched.stats();
        eprintln!(
            "serve: {} events -> {} decisions ({} admitted, {} rejected, {} dispatched, \
             {} completed; {} late arrivals, {} unknown completions)",
            s.events,
            s.decisions,
            s.admitted,
            s.rejected,
            s.dispatched,
            s.completed,
            s.late_arrivals,
            s.unknown_completions,
        );
        eprintln!(
            "plans: {} incremental replans, {} full",
            s.replans_incremental, s.replans_full,
        );
        eprintln!(
            "failures: {} machine down, {} repaired, {} racks down; \
             {} malformed lines, {} reanchors, {} dispatch retries, {} unpinned dispatches",
            s.machine_failures,
            s.machine_repairs,
            s.rack_failures,
            s.malformed,
            s.reanchored,
            s.dispatch_retries,
            s.fallback_dispatches,
        );
    }
    if let Some(p) = f.value("--probe") {
        let r = probe::report();
        std::fs::write(p, r.prometheus()).map_err(|e| format!("writing {p}: {e}"))?;
        eprintln!(
            "probe: {p} ({} span kinds, {} threads)",
            r.spans.len(),
            r.threads
        );
    }
    Ok(())
}

/// Capacity of the `--perfetto` in-memory ring: enough for every event of
/// a full testbed run; if a pathological run overflows it, the exporter
/// reports the drop count instead of silently truncating.
const PERFETTO_RING: usize = 4_000_000;

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    const SIMULATE_VALUE_FLAGS: [&str; 12] = [
        "--objective",
        "--background",
        "--seed",
        "--scheduler",
        "--plan",
        "--timeline",
        "--trace",
        "--perfetto",
        "--probe",
        // the shared sweep flags (cli::SWEEP_VALUE_FLAGS)
        "-j",
        "--jobs",
        "--seeds",
    ];
    debug_assert!(SWEEP_VALUE_FLAGS
        .iter()
        .all(|s| SIMULATE_VALUE_FLAGS.contains(s)));
    let f = Flags::parse(args, &SIMULATE_VALUE_FLAGS, &["--summary"])?;
    if f.value("--probe").is_some() {
        probe::set_enabled(true);
    }
    let path = f.positional(0).ok_or("simulate: trace file required")?;
    let jobs = load_trace(path)?;
    let objective = objective_flag(&f)?;
    let background: f64 = f.parse_or("--background", 0.5)?;
    let seed: u64 = f.parse_or("--seed", 0xC0441)?;
    let (pool_jobs, n_seeds) = sweep_flags(&f, 1)?;

    let cfg = ClusterConfig::testbed_210();
    let mut params = SimParams::testbed();
    params.cluster = cfg.clone();
    params.seed = seed;
    params.horizon = SimTime::hours(48.0);
    params.background = BackgroundModel::Constant {
        per_rack: cfg.rack_core_bandwidth() * background.clamp(0.0, 0.99),
    };

    let scheduler = f.value("--scheduler").unwrap_or("corral");
    let (kind, placement, needs_plan) = match scheduler {
        "yarn-cs" => (SchedulerKind::Capacity, DataPlacement::HdfsRandom, false),
        "corral" => (SchedulerKind::Planned, DataPlacement::PerPlan, true),
        "localshuffle" => (SchedulerKind::Planned, DataPlacement::HdfsRandom, true),
        "shufflewatcher" => (
            SchedulerKind::ShuffleWatcher,
            DataPlacement::HdfsRandom,
            false,
        ),
        other => return Err(format!("unknown scheduler {other:?}")),
    };
    params.placement = placement;

    if n_seeds > 1 {
        // Per-run exports are ambiguous across a seed pool.
        for flag in ["--trace", "--perfetto", "--timeline", "--probe"] {
            if f.value(flag).is_some() {
                return Err(format!("{flag} requires a single seed (drop --seeds)"));
            }
        }
        if f.has("--summary") {
            return Err("--summary requires a single seed (drop --seeds)".to_string());
        }
        let plan = if let Some(p) = f.value("--plan") {
            let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
            Plan::from_csv(&text)?
        } else if needs_plan {
            plan_jobs(&cfg, &jobs, objective, &PlannerConfig::default())
        } else {
            Plan::default()
        };
        return simulate_seed_sweep(params, jobs, plan, kind, seed, n_seeds, pool_jobs);
    }

    // Trace sinks: JSONL file, in-memory ring for the Perfetto export, or
    // both fanned out.
    let jsonl: Option<Arc<JsonlTracer<_>>> = match f.value("--trace") {
        Some(p) => Some(Arc::new(
            JsonlTracer::create(p).map_err(|e| format!("creating {p}: {e}"))?,
        )),
        None => None,
    };
    let mem: Option<Arc<MemTracer>> = f
        .value("--perfetto")
        .map(|_| Arc::new(MemTracer::new(PERFETTO_RING)));
    let tracer: Option<SharedTracer> = match (&jsonl, &mem) {
        (Some(j), Some(m)) => Some(Arc::new(FanoutTracer::new(vec![
            j.clone() as SharedTracer,
            m.clone() as SharedTracer,
        ]))),
        (Some(j), None) => Some(j.clone() as SharedTracer),
        (None, Some(m)) => Some(m.clone() as SharedTracer),
        (None, None) => None,
    };

    let t_plan = std::time::Instant::now();
    let (plan, planned_here) = if let Some(path) = f.value("--plan") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        (Plan::from_csv(&text)?, false)
    } else if needs_plan {
        let plan = match &tracer {
            Some(t) => plan_jobs_with_tracer(
                &cfg,
                &jobs,
                objective,
                &PlannerConfig::default(),
                t.as_ref(),
            ),
            None => plan_jobs(&cfg, &jobs, objective, &PlannerConfig::default()),
        };
        (plan, true)
    } else {
        (Plan::default(), false)
    };
    let plan_wall_s = t_plan.elapsed().as_secs_f64();

    let mut engine = Engine::new(params, jobs, &plan, kind);
    if let Some(t) = &tracer {
        engine.set_tracer(t.clone());
    }
    let mut report = engine.run();
    // Planning cost is host wall-clock, so it is stamped here (the CLI is
    // what watched planning happen) rather than inside the engine, whose
    // summary stays a pure function of the simulated run.
    if planned_here {
        report.summary.planning = Some(corral::trace::PlanningCost {
            wall_s: plan_wall_s,
            candidates: plan.provision_stats.candidates,
        });
    }
    // Ring-drop accounting is host-side too: stamped by the CLI so the
    // engine's summary stays a pure function of the simulated run, and
    // warned about loudly — a truncated trace must never be analyzed as
    // if it were complete.
    if let Some(m) = &mem {
        report.summary.trace_drops = Some(m.dropped());
        if m.dropped() > 0 {
            eprintln!(
                "warning: perfetto ring overflowed, {} oldest events dropped — \
                 the exported trace is truncated",
                m.dropped()
            );
        }
    }
    println!("scheduler        {}", report.scheduler);
    println!("network          {}", report.net);
    println!("makespan         {:.1}s", report.makespan.as_secs());
    println!("mean jct         {:.1}s", report.avg_completion_time());
    println!("median jct       {:.1}s", report.median_completion_time());
    println!("cross-rack       {}", report.cross_rack_bytes);
    println!("network bytes    {}", report.network_bytes);
    println!("core utilization {:.1}%", report.core_utilization * 100.0);
    println!("input CoV        {:.4}", report.input_balance_cov);
    if report.unfinished > 0 {
        println!("UNFINISHED JOBS  {}", report.unfinished);
    }
    if let Some(out) = f.value("--timeline") {
        std::fs::write(out, report.timeline_csv()).map_err(|e| format!("writing {out}: {e}"))?;
        println!(
            "timeline         {out} ({} attempts)",
            report.task_log.len()
        );
    }
    if let Some(j) = &jsonl {
        j.flush();
        println!(
            "trace            {} ({} events)",
            f.value("--trace").unwrap(),
            j.lines()
        );
    }
    if let Some(m) = &mem {
        let out = f.value("--perfetto").unwrap();
        let events = m.events();
        let rendered = {
            let _sp = probe::span(probe::SpanKind::Export);
            if probe::enabled() {
                // Include the self-profiling track (pid 4) alongside
                // the sim tracks.
                chrome_trace_with_probe(&events, &probe::report())
            } else {
                chrome_trace(&events)
            }
        };
        std::fs::write(out, rendered).map_err(|e| format!("writing {out}: {e}"))?;
        println!("perfetto         {out} ({} events)", events.len());
    }
    if f.has("--summary") {
        print!("{}", report.summary);
    }
    if let Some(out) = f.value("--probe") {
        let r = probe::report();
        std::fs::write(out, r.prometheus()).map_err(|e| format!("writing {out}: {e}"))?;
        println!(
            "probe            {out} ({} span kinds, {} threads)",
            r.spans.len(),
            r.threads
        );
    }
    Ok(())
}

/// `simulate --seeds N`: runs the same trace and plan under `N` seeds
/// (`--seed` itself plus `N−1` derived via splitmix64) on the sweep
/// pool, printing per-seed rows in seed order and cross-seed summaries.
///
/// Each cell owns its engine and RNGs, and rows are collected by cell
/// index, so the table is byte-identical whatever `--jobs` is.
fn simulate_seed_sweep(
    params: SimParams,
    jobs: Vec<JobSpec>,
    plan: Plan,
    kind: SchedulerKind,
    base_seed: u64,
    n_seeds: usize,
    pool_jobs: usize,
) -> Result<(), String> {
    let mut seeds = vec![base_seed];
    seeds.extend(corral::sweep::derive_seeds(base_seed, n_seeds - 1));

    let pool = corral::sweep::SweepPool::new(pool_jobs);
    let results = pool.run(n_seeds, |i| {
        let mut p = params.clone();
        p.seed = seeds[i];
        Engine::new(p, jobs.clone(), &plan, kind).run()
    });

    println!(
        "{:>18} {:>12} {:>12} {:>12} {:>16} {:>10}",
        "seed", "makespan", "mean jct", "median jct", "cross-rack", "unfinished"
    );
    let mut makespans = Vec::new();
    let mut mean_jcts = Vec::new();
    let mut failed = 0;
    for (i, r) in results.iter().enumerate() {
        match r {
            Ok(r) => {
                println!(
                    "{:>#18x} {:>11.1}s {:>11.1}s {:>11.1}s {:>16} {:>10}",
                    seeds[i],
                    r.makespan.as_secs(),
                    r.avg_completion_time(),
                    r.median_completion_time(),
                    r.cross_rack_bytes.to_string(),
                    r.unfinished
                );
                makespans.push(r.makespan.as_secs());
                mean_jcts.push(r.avg_completion_time());
            }
            Err(e) => {
                failed += 1;
                println!("{:>#18x} FAILED: {}", seeds[i], e.message);
            }
        }
    }
    println!("makespan   {}", corral::sweep::Summary::of(&makespans));
    println!("mean jct   {}", corral::sweep::Summary::of(&mean_jcts));
    if failed > 0 {
        return Err(format!("{failed}/{n_seeds} seed runs failed"));
    }
    Ok(())
}
