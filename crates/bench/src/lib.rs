//! # corral-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Corral paper's evaluation (§2, §6). Each experiment lives in
//! [`experiments`] and is runnable via the `repro` binary:
//!
//! ```text
//! cargo run --release -p corral-bench --bin repro -- all
//! cargo run --release -p corral-bench --bin repro -- fig6 fig7
//! ```
//!
//! Experiments print human-readable rows (the same quantities the paper
//! reports) and write full data series as CSV files under `results/`.
//! EXPERIMENTS.md records paper-vs-measured values for each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod runner;
pub mod table;

pub use runner::{run_variant, run_variant_grid, RunConfig, Variant};
