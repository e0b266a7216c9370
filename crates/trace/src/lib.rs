//! # corral-trace
//!
//! Structured observability for the Corral simulator stack: a zero-dep
//! event sink, run-metric primitives, and exporters.
//!
//! * [`event::TraceEvent`] — the vocabulary: task lifecycle, network
//!   flows, scheduler/planner decisions, background-traffic epochs;
//! * [`tracer::Tracer`] — the sink trait, with [`NullTracer`] (free),
//!   [`MemTracer`] (ring buffer) and [`JsonlTracer`] (streaming JSONL);
//! * [`metrics::TimeWeightedGauge`] and [`histogram::LogHistogram`]
//!   (p50/p90/p99) — the typed building blocks of the engine's run
//!   telemetry;
//! * [`probe`] — *corral-probe*, host-side self-profiling of the
//!   simulator's own hot paths (RAII spans, cause counters, latency
//!   histograms), strictly outside the deterministic sim-trace stream;
//! * exporters — JSONL (via [`JsonlTracer`]), Chrome/Perfetto
//!   [`perfetto::chrome_trace`] (with an optional probe track via
//!   [`perfetto::chrome_trace_with_probe`]), the Prometheus-style
//!   [`probe::ProbeReport::prometheus`] text, and the plain-text
//!   [`summary::RunSummary`];
//! * utilities every layer shares — [`json`], the workspace's one JSON
//!   reader and writer, and [`fnv`], its one FNV-1a hash.
//!
//! The crate deliberately depends on nothing (not even the model crate):
//! events carry raw ids and `f64` seconds, so every layer of the stack —
//! `simnet`, `cluster`, `core`, the CLI and `viz` — can use it without
//! dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fnv;
pub mod histogram;
pub mod json;
mod jsonv;
pub mod metrics;
pub mod perfetto;
pub mod probe;
pub mod summary;
pub mod tracer;

pub use event::{FlowClass, LocalityLevel, TraceEvent};
pub use histogram::LogHistogram;
pub use metrics::TimeWeightedGauge;
pub use perfetto::{chrome_trace, chrome_trace_with_probe};
pub use probe::{ProbeCounter, ProbeReport, SpanKind};
pub use summary::{percentile, LocalityCounts, Percentiles, PlanningCost, RunSummary};
pub use tracer::{
    FanoutTracer, JsonlTracer, MemTracer, NullTracer, SharedTracer, TimedEvent, Tracer,
};
