//! # corral-probe — self-profiling for the simulator's own hot paths.
//!
//! Everything else in this crate observes the *simulated* world; this
//! module observes the *simulator*: where host wall-clock goes
//! (`fabric::recompute`, max-min rounds, planner provisioning and
//! candidate scoring, sweep cells, export) and why (recompute trigger
//! kinds, heap pops, early stops, scratch growths, pool queue depth).
//!
//! Design rules:
//!
//! * **Strictly outside the sim-trace stream.** Probes never touch
//!   [`crate::Tracer`] sinks, never read or write simulation state, and
//!   never feed numbers back into any decision. Same-seed runs with
//!   probes on and off produce byte-identical sim traces (asserted by
//!   `tests/probe_neutrality.rs`).
//! * **Near-zero cost when off.** The enable flag is a single relaxed
//!   atomic load; a disabled [`span`] returns an inert guard without
//!   touching thread-local state.
//! * **Zero-alloc on the hot path when on.** Each thread owns a
//!   fixed-capacity span stack and a preallocated ring of closed span
//!   records; closing a span updates flat per-kind aggregates
//!   (count/total + a [`LogHistogram`]). Allocation happens once per
//!   thread, at first use.
//! * **Crash-proof span stack.** Guards carry a generation number;
//!   dropping guards out of order (or leaking them past a panic) can
//!   mis-attribute at worst — it counts `probe.unbalanced_spans` and can
//!   never corrupt the stack or attribute a span to the wrong kind.
//!
//! Per-thread state merges into a process-wide accumulator on an
//! explicit [`flush_thread`] (sweep workers flush before their closure
//! returns; the TLS destructor is only a backstop — thread teardown is
//! not ordered before `join`). [`report`]
//! snapshots the accumulator as a [`ProbeReport`], which renders as a
//! Prometheus-style text exposition ([`ProbeReport::prometheus`]) or as
//! extra slices on the Chrome/Perfetto timeline
//! ([`crate::perfetto::chrome_trace_with_probe`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::histogram::LogHistogram;

/// The instrumented hot-path sections, one label per RAII span site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// One `Fabric::recompute` (CSR rebuild + allocation + rate apply).
    FabricRecompute = 0,
    /// The max-min water-filling allocation inside a recompute.
    FabricMaxMin,
    /// Scoring one candidate allocation inside `provision`.
    CandidateScore,
    /// One full `provision` call (widening, scoring and the winning
    /// schedule).
    Provision,
    /// One full `plan_jobs` decision (the per-plan latency histogram).
    PlanDecision,
    /// One cluster-engine event dispatch (the per-event latency
    /// histogram — the seam `corral-serve` will report against).
    EngineEvent,
    /// One sweep cell executing on a pool worker (setup + run).
    SweepCell,
    /// Collecting/reducing sweep cell results back on the caller.
    SweepReduce,
    /// Serde/export work: CSV, JSONL flush, Perfetto rendering.
    Export,
    /// One `corral-serve` service decision: event intake, admission and
    /// the replan (the per-decision latency histogram of the scheduling
    /// service).
    ServeDecision,
    /// One cluster-engine dispatch pass: the dirty machines' free slots
    /// offered to the policy, and the launches it picks.
    EngineDispatch,
}

impl SpanKind {
    /// Every kind, in stable report order.
    pub const ALL: [SpanKind; 11] = [
        SpanKind::FabricRecompute,
        SpanKind::FabricMaxMin,
        SpanKind::CandidateScore,
        SpanKind::Provision,
        SpanKind::PlanDecision,
        SpanKind::EngineEvent,
        SpanKind::SweepCell,
        SpanKind::SweepReduce,
        SpanKind::Export,
        SpanKind::ServeDecision,
        SpanKind::EngineDispatch,
    ];

    /// Stable dotted label used in expositions and reports.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::FabricRecompute => "fabric.recompute",
            SpanKind::FabricMaxMin => "fabric.maxmin",
            SpanKind::CandidateScore => "planner.score",
            SpanKind::Provision => "planner.provision",
            SpanKind::PlanDecision => "planner.plan",
            SpanKind::EngineEvent => "engine.event",
            SpanKind::SweepCell => "sweep.cell",
            SpanKind::SweepReduce => "sweep.reduce",
            SpanKind::Export => "export.write",
            SpanKind::ServeDecision => "serve.decision",
            SpanKind::EngineDispatch => "engine.dispatch",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Hot-path cause counters: *why* the expensive sections ran. Only
/// host-side facts live here; deterministic per-run counts live in the
/// layers' stats structs. The exceptions are [`ProbeCounter::MaxMinRounds`],
/// the two `FabricDirtyFlows*` counters and [`ProbeCounter::HeapPops`],
/// which mirror `FabricStats` / `ProvisionStats` fields because
/// perfbench reads these labels by name, and [`ProbeCounter::EnginePicks`],
/// the engine's dispatch cost, whose only home is here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ProbeCounter {
    /// Fabric marked dirty by a flow start (incl. ingress flows).
    RecomputeFlowStart = 0,
    /// Fabric marked dirty by a flow cancellation.
    RecomputeFlowCancel,
    /// Fabric marked dirty by a background-traffic epoch change.
    RecomputeBackground,
    /// Fabric marked dirty by a flow draining to completion.
    RecomputeCompletion,
    /// Max-min water-filling rounds executed.
    MaxMinRounds,
    /// Widening steps popped off the provisioning heap.
    HeapPops,
    /// Provisioning loops cut short by the early-stop rule.
    EarlyStops,
    /// Planner per-thread scratch growths (reallocation events).
    PlannerScratchGrow,
    /// Sum of unclaimed-cell queue depths sampled at each pool claim.
    PoolQueueDepthSum,
    /// Number of pool queue-depth samples (divide into the sum).
    PoolQueueDepthSamples,
    /// Span guards dropped out of order or after truncation.
    UnbalancedSpans,
    /// Spans discarded because the per-thread stack was full.
    StackOverflows,
    /// Closed span records evicted from rings (per-thread + merged).
    RingDrops,
    /// Sum of dirty-set sizes (candidate flows re-solved) across
    /// incremental recomputes.
    FabricDirtyFlowsSum,
    /// Number of dirty-set samples (divide into the sum for the mean
    /// dirty-set size).
    FabricDirtyFlowsSamples,
    /// Current element footprint of the Varys allocator scratch
    /// (incremental cache included); reported as a running gauge — each
    /// growth adds the delta, so the sum reads as the latest footprint.
    VarysScratchElems,
    /// `TaskScheduler::pick` calls made by engine dispatch passes.
    EnginePicks,
}

impl ProbeCounter {
    /// Every counter, in stable report order.
    pub const ALL: [ProbeCounter; 17] = [
        ProbeCounter::RecomputeFlowStart,
        ProbeCounter::RecomputeFlowCancel,
        ProbeCounter::RecomputeBackground,
        ProbeCounter::RecomputeCompletion,
        ProbeCounter::MaxMinRounds,
        ProbeCounter::HeapPops,
        ProbeCounter::EarlyStops,
        ProbeCounter::PlannerScratchGrow,
        ProbeCounter::PoolQueueDepthSum,
        ProbeCounter::PoolQueueDepthSamples,
        ProbeCounter::UnbalancedSpans,
        ProbeCounter::StackOverflows,
        ProbeCounter::RingDrops,
        ProbeCounter::FabricDirtyFlowsSum,
        ProbeCounter::FabricDirtyFlowsSamples,
        ProbeCounter::VarysScratchElems,
        ProbeCounter::EnginePicks,
    ];

    /// Stable dotted label used in expositions and reports.
    pub fn label(self) -> &'static str {
        match self {
            ProbeCounter::RecomputeFlowStart => "recompute.flow_start",
            ProbeCounter::RecomputeFlowCancel => "recompute.flow_cancel",
            ProbeCounter::RecomputeBackground => "recompute.background",
            ProbeCounter::RecomputeCompletion => "recompute.completion",
            ProbeCounter::MaxMinRounds => "maxmin.rounds",
            ProbeCounter::HeapPops => "planner.heap_pops",
            ProbeCounter::EarlyStops => "planner.early_stops",
            ProbeCounter::PlannerScratchGrow => "planner.scratch_grows",
            ProbeCounter::PoolQueueDepthSum => "sweep.queue_depth_sum",
            ProbeCounter::PoolQueueDepthSamples => "sweep.queue_depth_samples",
            ProbeCounter::UnbalancedSpans => "probe.unbalanced_spans",
            ProbeCounter::StackOverflows => "probe.stack_overflows",
            ProbeCounter::RingDrops => "probe.ring_drops",
            ProbeCounter::FabricDirtyFlowsSum => "fabric.dirty_flows_sum",
            ProbeCounter::FabricDirtyFlowsSamples => "fabric.dirty_flows_samples",
            ProbeCounter::VarysScratchElems => "fabric.varys_scratch_elems",
            ProbeCounter::EnginePicks => "engine.picks",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const NKINDS: usize = SpanKind::ALL.len();
const NCOUNTERS: usize = ProbeCounter::ALL.len();

/// Maximum span nesting per thread; deeper spans are counted
/// (`probe.stack_overflows`) and discarded.
pub const MAX_DEPTH: usize = 64;

/// Closed-span records retained per thread before the ring wraps.
pub const THREAD_RING: usize = 4096;

/// Closed-span records retained process-wide in the merged accumulator.
pub const MERGED_RING: usize = 16384;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether probes are currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns probing on or off process-wide. Spans opened while enabled
/// still record on drop after a disable (harmless by design).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enables probes when the `CORRAL_PROBE` environment variable is set
/// to anything other than empty or `0`.
pub fn init_from_env() {
    if let Ok(v) = std::env::var("CORRAL_PROBE") {
        if !v.is_empty() && v != "0" {
            set_enabled(true);
        }
    }
}

/// Host-time epoch shared by all threads so ring records line up on one
/// timeline. Initialized before any span can start, so every span start
/// is at or after it.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// One closed span, as retained in the rings (host time, ns since the
/// process probe epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// What was measured.
    pub kind: SpanKind,
    /// Start, nanoseconds since the probe epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at open time (0 = top level).
    pub depth: u8,
}

#[derive(Clone, Copy)]
struct Frame {
    kind: SpanKind,
    start: Instant,
    gen: u64,
}

struct SpanAgg {
    count: u64,
    total_ns: u64,
    hist: LogHistogram,
}

impl SpanAgg {
    fn new() -> Self {
        SpanAgg {
            count: 0,
            total_ns: 0,
            hist: LogHistogram::new(),
        }
    }
}

struct ThreadProbe {
    stack: Vec<Frame>,
    next_gen: u64,
    spans: Vec<SpanAgg>,
    counters: [u64; NCOUNTERS],
    ring: Vec<SpanRecord>,
    ring_next: usize,
    used: bool,
}

impl ThreadProbe {
    fn new() -> Self {
        // Pin the epoch before any frame's start so offsets never
        // underflow.
        let _ = epoch();
        ThreadProbe {
            stack: Vec::with_capacity(MAX_DEPTH),
            next_gen: 1,
            spans: (0..NKINDS).map(|_| SpanAgg::new()).collect(),
            counters: [0; NCOUNTERS],
            ring: Vec::with_capacity(THREAD_RING),
            ring_next: 0,
            used: false,
        }
    }

    fn open(&mut self, kind: SpanKind, now: Instant) -> (u32, u64) {
        self.used = true;
        if self.stack.len() >= MAX_DEPTH {
            self.counters[ProbeCounter::StackOverflows.index()] += 1;
            return (u32::MAX, 0);
        }
        let gen = self.next_gen;
        self.next_gen += 1;
        let slot = self.stack.len() as u32;
        self.stack.push(Frame {
            kind,
            start: now,
            gen,
        });
        (slot, gen)
    }

    fn close(&mut self, slot: u32, gen: u64, now: Instant) {
        let slot = slot as usize;
        if self.stack.len() <= slot || self.stack[slot].gen != gen {
            // Our frame is gone: an enclosing guard already truncated
            // past it. Record the imbalance, never touch other frames.
            self.counters[ProbeCounter::UnbalancedSpans.index()] += 1;
            return;
        }
        let extra = self.stack.len() - slot - 1;
        if extra > 0 {
            // Inner guards were leaked (e.g. dropped out of order):
            // discard their frames rather than guess their durations.
            self.counters[ProbeCounter::UnbalancedSpans.index()] += extra as u64;
        }
        let frame = self.stack[slot];
        self.stack.truncate(slot);
        let dur_ns = now.saturating_duration_since(frame.start).as_nanos() as u64;
        let agg = &mut self.spans[frame.kind.index()];
        agg.count += 1;
        agg.total_ns += dur_ns;
        agg.hist.record(dur_ns as f64 / 1e9);
        let rec = SpanRecord {
            kind: frame.kind,
            start_ns: frame.start.saturating_duration_since(epoch()).as_nanos() as u64,
            dur_ns,
            depth: slot as u8,
        };
        if self.ring.len() < THREAD_RING {
            self.ring.push(rec);
        } else {
            self.ring[self.ring_next] = rec;
            self.counters[ProbeCounter::RingDrops.index()] += 1;
        }
        self.ring_next = (self.ring_next + 1) % THREAD_RING;
    }

    fn add(&mut self, c: ProbeCounter, by: u64) {
        self.used = true;
        self.counters[c.index()] += by;
    }

    /// Moves everything recorded so far into the global accumulator and
    /// resets this thread's aggregates. Open frames survive so spans in
    /// flight still record when their guards drop.
    fn drain_into_global(&mut self) {
        if !self.used {
            return;
        }
        let mut guard = global().lock().unwrap();
        let g = guard.get_or_insert_with(GlobalProbe::new);
        g.threads += 1;
        for (i, agg) in self.spans.iter_mut().enumerate() {
            g.spans[i].count += agg.count;
            g.spans[i].total_ns += agg.total_ns;
            g.spans[i].hist.merge(&agg.hist);
            *agg = SpanAgg::new();
        }
        for (i, c) in self.counters.iter_mut().enumerate() {
            g.counters[i] += *c;
            *c = 0;
        }
        for rec in self.ring.drain(..) {
            if g.ring.len() < MERGED_RING {
                g.ring.push(rec);
            } else {
                g.counters[ProbeCounter::RingDrops.index()] += 1;
            }
        }
        self.ring_next = 0;
        self.used = false;
    }
}

impl Drop for ThreadProbe {
    fn drop(&mut self) {
        self.drain_into_global();
    }
}

thread_local! {
    static TLS: RefCell<ThreadProbe> = RefCell::new(ThreadProbe::new());
}

struct GlobalProbe {
    spans: Vec<SpanAgg>,
    counters: [u64; NCOUNTERS],
    ring: Vec<SpanRecord>,
    threads: u64,
}

impl GlobalProbe {
    fn new() -> Self {
        GlobalProbe {
            spans: (0..NKINDS).map(|_| SpanAgg::new()).collect(),
            counters: [0; NCOUNTERS],
            ring: Vec::new(),
            threads: 0,
        }
    }
}

fn global() -> &'static Mutex<Option<GlobalProbe>> {
    static GLOBAL: Mutex<Option<GlobalProbe>> = Mutex::new(None);
    &GLOBAL
}

/// RAII guard for one timed section; records on drop.
#[must_use = "a probe span measures until it is dropped"]
pub struct Span {
    slot: u32,
    gen: u64,
}

/// Opens a scoped span of `kind` on the current thread. Inert (and
/// thread-local-free) when probing is disabled.
#[inline]
pub fn span(kind: SpanKind) -> Span {
    if !enabled() {
        return Span {
            slot: u32::MAX,
            gen: 0,
        };
    }
    let now = Instant::now();
    let (slot, gen) = TLS.with(|t| t.borrow_mut().open(kind, now));
    Span { slot, gen }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.slot == u32::MAX {
            return;
        }
        let now = Instant::now();
        // try_with: the guard may drop during thread teardown after the
        // TLS slot is gone; losing that one span is fine.
        let _ = TLS.try_with(|t| t.borrow_mut().close(self.slot, self.gen, now));
    }
}

/// Adds `by` to a cause counter on the current thread. No-op when
/// probing is disabled.
#[inline]
pub fn count(c: ProbeCounter, by: u64) {
    if !enabled() || by == 0 {
        return;
    }
    let _ = TLS.try_with(|t| t.borrow_mut().add(c, by));
}

/// Samples the sweep pool's unclaimed-cell queue depth (sum + sample
/// count, so reports can show the mean backlog).
#[inline]
pub fn queue_depth(depth: usize) {
    if !enabled() {
        return;
    }
    let _ = TLS.try_with(|t| {
        let mut t = t.borrow_mut();
        t.add(ProbeCounter::PoolQueueDepthSum, depth as u64);
        t.add(ProbeCounter::PoolQueueDepthSamples, 1);
    });
}

/// Merges the current thread's probe data into the global accumulator.
///
/// Worker threads must call this at the end of their closure, *before*
/// the spawning thread joins them: the TLS-destructor merge also runs at
/// thread exit as a backstop, but thread teardown is not synchronized
/// with `join`/`scope` completion, so data merged only by the destructor
/// may land after the coordinator has already read its [`report`]. The
/// coordinating thread itself is flushed by [`report`].
pub fn flush_thread() {
    let _ = TLS.try_with(|t| t.borrow_mut().drain_into_global());
}

/// Clears the current thread's and the global accumulator's probe data.
/// Call between measurement phases, after any worker pools have joined
/// (other live threads' unflushed data is not reachable from here).
pub fn reset() {
    let _ = TLS.try_with(|t| {
        let mut t = t.borrow_mut();
        for agg in t.spans.iter_mut() {
            *agg = SpanAgg::new();
        }
        t.counters = [0; NCOUNTERS];
        t.ring.clear();
        t.ring_next = 0;
        t.used = false;
    });
    *global().lock().unwrap() = None;
}

/// Aggregated wall-time statistics for one span kind.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Stable dotted label ([`SpanKind::label`]).
    pub label: &'static str,
    /// Spans closed.
    pub count: u64,
    /// Total wall-clock across all spans, seconds.
    pub total_s: f64,
    /// Median span duration, seconds.
    pub p50_s: f64,
    /// 90th percentile span duration, seconds.
    pub p90_s: f64,
    /// 99th percentile span duration, seconds.
    pub p99_s: f64,
    /// Largest observed span duration, seconds.
    pub max_s: f64,
}

/// A snapshot of everything the probe layer recorded.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProbeReport {
    /// Per-kind span statistics (only kinds with at least one span).
    pub spans: Vec<SpanStat>,
    /// Cause counters, in [`ProbeCounter::ALL`] order (zeros included).
    pub counters: Vec<(&'static str, u64)>,
    /// Most recent closed spans across all threads, by start time.
    pub recent: Vec<SpanRecord>,
    /// Span records lost to ring wrap (thread rings + merged ring).
    pub dropped: u64,
    /// Threads that contributed probe data.
    pub threads: u64,
}

/// Snapshots the merged probe data (flushing the current thread first).
/// Non-destructive; call [`reset`] to start a fresh measurement phase.
pub fn report() -> ProbeReport {
    flush_thread();
    let guard = global().lock().unwrap();
    let Some(g) = guard.as_ref() else {
        return ProbeReport::default();
    };
    let mut spans = Vec::new();
    for kind in SpanKind::ALL {
        let agg = &g.spans[kind.index()];
        if agg.count == 0 {
            continue;
        }
        spans.push(SpanStat {
            label: kind.label(),
            count: agg.count,
            total_s: agg.total_ns as f64 / 1e9,
            p50_s: agg.hist.p50().unwrap_or(0.0),
            p90_s: agg.hist.p90().unwrap_or(0.0),
            p99_s: agg.hist.p99().unwrap_or(0.0),
            max_s: agg.hist.max().unwrap_or(0.0),
        });
    }
    let counters: Vec<(&'static str, u64)> = ProbeCounter::ALL
        .iter()
        .map(|c| (c.label(), g.counters[c.index()]))
        .collect();
    let mut recent = g.ring.clone();
    recent.sort_by_key(|r| (r.start_ns, r.dur_ns));
    ProbeReport {
        spans,
        counters,
        recent,
        dropped: g.counters[ProbeCounter::RingDrops.index()],
        threads: g.threads,
    }
}

impl ProbeReport {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.iter().all(|&(_, v)| v == 0)
    }

    /// Value of one cause counter (0 when absent).
    pub fn counter(&self, c: ProbeCounter) -> u64 {
        self.counters
            .iter()
            .find(|&&(l, _)| l == c.label())
            .map_or(0, |&(_, v)| v)
    }

    /// Statistics for one span kind, when any spans of it closed.
    pub fn span_stat(&self, kind: SpanKind) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.label == kind.label())
    }

    /// Renders the snapshot as a Prometheus text exposition: span
    /// latency summaries (`corral_probe_span_seconds`) and cause
    /// counters (`corral_probe_events_total`).
    pub fn prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# corral-probe: simulator self-profile (host wall-clock)\n");
        out.push_str("# TYPE corral_probe_span_seconds summary\n");
        for s in &self.spans {
            for (q, v) in [("0.5", s.p50_s), ("0.9", s.p90_s), ("0.99", s.p99_s)] {
                out.push_str(&format!(
                    "corral_probe_span_seconds{{span=\"{}\",quantile=\"{}\"}} {:e}\n",
                    s.label, q, v
                ));
            }
            out.push_str(&format!(
                "corral_probe_span_seconds_sum{{span=\"{}\"}} {:e}\n",
                s.label, s.total_s
            ));
            out.push_str(&format!(
                "corral_probe_span_seconds_count{{span=\"{}\"}} {}\n",
                s.label, s.count
            ));
        }
        out.push_str("# TYPE corral_probe_events_total counter\n");
        for &(label, v) in &self.counters {
            out.push_str(&format!(
                "corral_probe_events_total{{event=\"{label}\"}} {v}\n"
            ));
        }
        out.push_str(&format!("corral_probe_threads {}\n", self.threads));
        out.push_str(&format!(
            "corral_probe_ring_dropped_total {}\n",
            self.dropped
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    // The enable flag and the global accumulator are process-wide;
    // serialize probe tests so they can't observe each other.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: StdMutex<()> = StdMutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fresh() -> std::sync::MutexGuard<'static, ()> {
        let g = lock();
        set_enabled(true);
        reset();
        g
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        {
            let _s = span(SpanKind::FabricRecompute);
            count(ProbeCounter::HeapPops, 5);
        }
        assert!(report().is_empty());
    }

    #[test]
    fn nested_spans_aggregate_per_kind() {
        let _g = fresh();
        {
            let _outer = span(SpanKind::Provision);
            for _ in 0..3 {
                let _inner = span(SpanKind::CandidateScore);
            }
            count(ProbeCounter::HeapPops, 7);
        }
        let r = report();
        set_enabled(false);
        let prov = r.span_stat(SpanKind::Provision).unwrap();
        let score = r.span_stat(SpanKind::CandidateScore).unwrap();
        assert_eq!(prov.count, 1);
        assert_eq!(score.count, 3);
        assert!(prov.total_s >= score.total_s);
        assert_eq!(r.counter(ProbeCounter::HeapPops), 7);
        assert_eq!(r.counter(ProbeCounter::UnbalancedSpans), 0);
        // Ring kept all four records, innermost first by nesting depth.
        assert_eq!(r.recent.len(), 4);
        assert_eq!(r.dropped, 0);
        // p50 <= p99 and both within [0, max].
        assert!(score.p50_s <= score.p99_s);
        assert!(score.p99_s <= score.max_s + 1e-12);
    }

    #[test]
    fn out_of_order_drops_cannot_corrupt_the_stack() {
        let _g = fresh();
        let a = span(SpanKind::FabricRecompute);
        let b = span(SpanKind::FabricMaxMin);
        // Dropping the outer guard first truncates the inner frame...
        drop(a);
        // ...so the inner guard finds its frame gone and backs off.
        drop(b);
        // The stack is empty again: a new span opens at depth 0 and
        // records normally.
        {
            let _c = span(SpanKind::EngineEvent);
        }
        let r = report();
        set_enabled(false);
        assert_eq!(r.span_stat(SpanKind::FabricRecompute).unwrap().count, 1);
        assert!(r.span_stat(SpanKind::FabricMaxMin).is_none());
        let c = r.span_stat(SpanKind::EngineEvent).unwrap();
        assert_eq!(c.count, 1);
        let depth0: Vec<_> = r
            .recent
            .iter()
            .filter(|rec| rec.kind == SpanKind::EngineEvent)
            .collect();
        assert_eq!(depth0[0].depth, 0, "stack did not rewind to depth 0");
        assert_eq!(r.counter(ProbeCounter::UnbalancedSpans), 2);
    }

    #[test]
    fn stack_overflow_is_counted_not_fatal() {
        let _g = fresh();
        let mut guards: Vec<Span> = (0..MAX_DEPTH + 5).map(|_| span(SpanKind::Export)).collect();
        // Unwind innermost-first, as scopes would.
        while let Some(g) = guards.pop() {
            drop(g);
        }
        let r = report();
        set_enabled(false);
        assert_eq!(r.counter(ProbeCounter::StackOverflows), 5);
        assert_eq!(r.counter(ProbeCounter::UnbalancedSpans), 0);
        assert_eq!(
            r.span_stat(SpanKind::Export).unwrap().count,
            MAX_DEPTH as u64
        );
    }

    #[test]
    fn worker_threads_merge_on_exit() {
        let _g = fresh();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    {
                        let _sp = span(SpanKind::SweepCell);
                        count(ProbeCounter::MaxMinRounds, 10);
                    }
                    // Explicit flush: TLS-destructor merging races the
                    // scope join (teardown is not ordered before it).
                    flush_thread();
                });
            }
        });
        let r = report();
        set_enabled(false);
        assert_eq!(r.span_stat(SpanKind::SweepCell).unwrap().count, 3);
        assert_eq!(r.counter(ProbeCounter::MaxMinRounds), 30);
        assert_eq!(r.threads, 3);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let _g = fresh();
        {
            let _s = span(SpanKind::PlanDecision);
        }
        count(ProbeCounter::RecomputeFlowStart, 2);
        let text = report().prometheus();
        set_enabled(false);
        assert!(text.contains("# TYPE corral_probe_span_seconds summary"));
        assert!(text.contains("corral_probe_span_seconds{span=\"planner.plan\",quantile=\"0.5\"}"));
        assert!(text.contains("corral_probe_span_seconds_count{span=\"planner.plan\"} 1"));
        assert!(text.contains("corral_probe_events_total{event=\"recompute.flow_start\"} 2"));
        for line in text.lines() {
            assert!(!line.is_empty());
        }
    }

    #[test]
    fn reset_clears_everything() {
        let _g = fresh();
        {
            let _s = span(SpanKind::Export);
        }
        assert!(!report().is_empty());
        reset();
        assert!(report().is_empty());
        set_enabled(false);
    }

    #[test]
    fn queue_depth_records_sum_and_samples() {
        let _g = fresh();
        queue_depth(3);
        queue_depth(1);
        let r = report();
        set_enabled(false);
        assert_eq!(r.counter(ProbeCounter::PoolQueueDepthSum), 4);
        assert_eq!(r.counter(ProbeCounter::PoolQueueDepthSamples), 2);
    }
}
