//! # corral-simnet
//!
//! A deterministic, event-driven, flow-level ("fluid") network simulator for
//! datacenter fabrics, built for the Corral reproduction (SIGCOMM 2015,
//! §6.6: *"we built a flow-based event simulator ... with pluggable policies
//! for the job and network schedulers"*).
//!
//! ## Model
//!
//! The fabric is a folded-CLOS topology derived from a
//! [`ClusterConfig`](corral_model::ClusterConfig): every machine has a
//! full-duplex NIC link to its top-of-rack switch (capacity `B` each
//! direction) and every rack has an aggregated full-duplex uplink to a
//! non-blocking core (capacity `k·B/V`, where `V` is the oversubscription
//! ratio). A flow between two machines traverses at most four links:
//! source NIC up → source rack up → destination rack down → destination
//! NIC down (two links if intra-rack, zero if machine-local).
//!
//! Flows are *fluid*: each carries a remaining byte count and is assigned an
//! instantaneous rate by a pluggable [`allocator`]:
//!
//! * [`RatePolicy::FairShare`] — progressive-filling max-min fairness, the
//!   standard fluid proxy for long-lived TCP (what the paper calls
//!   "a max-min fair bandwidth allocation mechanism to emulate TCP").
//! * [`RatePolicy::Varys`] — Varys' Smallest Effective Bottleneck First
//!   coflow ordering with MADD per-coflow rate assignment and work-conserving
//!   max-min backfill.
//!
//! Rates are recomputed whenever the flow set or link capacities change;
//! between changes the system evolves linearly, so the next flow completion
//! is computed in closed form — this is what makes the simulation
//! event-driven rather than time-stepped.
//!
//! ## Supported / not supported
//!
//! In the spirit of exhaustive feature documentation (see smoltcp):
//!
//! * Intra-rack full bisection bandwidth — **supported** (machine links only).
//! * Rack-to-core oversubscription — **supported**.
//! * Background (non-job) traffic occupying core bandwidth — **supported**
//!   via per-link capacity reservations ([`Fabric::set_background`]).
//! * Per-link and per-tag byte accounting (cross-rack bytes, Fig. 7a) —
//!   **supported**.
//! * Coflows (register/complete, SEBF ordering) — **supported**.
//! * Packet-level effects (RTT, loss, incast, queueing) — **not modeled**;
//!   the fluid approximation is the one the paper's own simulator uses.
//! * Multi-path / ECMP imbalance — **not modeled** (core is non-blocking).
//!
//! ## Determinism
//!
//! All iteration is over dense integer-indexed tables; no hash-map iteration
//! order leaks into results. Equal-time events are ordered by insertion
//! sequence number. Two runs with the same inputs produce bit-identical
//! traces (asserted by integration tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod background;
pub mod engine;
pub mod fabric;
pub mod flow;
pub mod link;
pub mod maxmin;
pub mod stats;
pub mod topology;
pub mod varys;

pub use allocator::{AllocScratch, FlowTable, RatePolicy};
pub use engine::{CalendarQueue, EventQueue};
pub use fabric::{CompletedFlow, Fabric};
pub use flow::{CoflowId, FlowKind, FlowSpec, FlowTag};
pub use link::{LinkClass, LinkId};
pub use maxmin::MaxMinScratch;
pub use stats::FabricStats;
pub use topology::Topology;
