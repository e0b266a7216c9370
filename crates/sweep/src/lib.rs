//! # corral-sweep
//!
//! A deterministic parallel sweep-execution engine for the Corral
//! simulator stack.
//!
//! Every *individual* simulation run is deliberately single-threaded —
//! bit-exact determinism is a core feature of the simulator (see
//! DESIGN.md §5). But the paper's evaluation, like any simulation study,
//! is a *sweep*: a grid of independent `(config, variant, seed)` cells,
//! each a self-contained run. Those cells are embarrassingly parallel,
//! and this crate executes them on a work-sharing thread pool while
//! guaranteeing that the *collected results* are byte-identical to
//! serial execution:
//!
//! * every cell owns all of its state (its seeded RNGs, its engine, its
//!   tracer sinks) — nothing mutable is shared between cells;
//! * results are collected **by cell index**, never by completion order,
//!   so scheduling jitter cannot reorder output;
//! * a panicking cell is isolated ([`CellFailure`] records its index and
//!   panic message) instead of tearing down the whole sweep;
//! * progress is reported live through the pool's atomic cell counters
//!   ([`SweepPool::cells_done`] and its siblings), rendered to stderr
//!   when it is a terminal.
//!
//! The three layers:
//!
//! * [`pool`] — [`SweepPool`]: the execution engine
//!   (`pool.run(n, |i| …)` → `Vec<Result<T, CellFailure>>` in index
//!   order);
//! * [`spec`] — [`SweepSpec`]: a builder for cartesian grids over
//!   variants / seeds / parameter axes, producing indexed [`Cell`]s;
//! * [`agg`] — [`Summary`]: cross-seed aggregation (mean, p50/p90/p99,
//!   95% CI half-width) for feeding result tables.
//!
//! ```
//! use corral_sweep::{SweepPool, SweepSpec, Summary};
//!
//! #[derive(Clone)]
//! struct Cfg { seed: u64, scale: f64 }
//!
//! let cells = SweepSpec::new(Cfg { seed: 0, scale: 1.0 })
//!     .axis("scale", vec![1.0, 2.0], |c: &mut Cfg, &s| c.scale = s)
//!     .axis("seed", vec![1u64, 2, 3], |c: &mut Cfg, &s| c.seed = s)
//!     .cells();
//! assert_eq!(cells.len(), 6);
//!
//! let pool = SweepPool::new(4);
//! let results = pool.run(cells.len(), |i| {
//!     let cfg = &cells[i].cfg;
//!     cfg.scale * (cfg.seed as f64) // stand-in for a simulation run
//! });
//! let values: Vec<f64> = results.into_iter().map(|r| r.unwrap()).collect();
//! assert_eq!(values, vec![1.0, 2.0, 3.0, 2.0, 4.0, 6.0]); // index order
//! let s = Summary::of(&values);
//! assert_eq!(s.n, 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod pool;
pub mod spec;

pub use agg::Summary;
pub use pool::{default_jobs, derive_seeds, CellFailure, CellResult, SweepPool};
pub use spec::{Cell, SweepSpec};
