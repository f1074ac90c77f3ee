//! # cots-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! CoTS paper's evaluation. One binary per experiment (see `src/bin/`),
//! each printing the same rows/series the paper reports and writing CSV and
//! JSON under `target/repro/`.
//!
//! ## Scaling
//!
//! The paper ran streams of 1M–100M elements on a dedicated quad-core; this
//! harness defaults to laptop/container-friendly sizes and scales with the
//! `REPRO_SCALE` environment variable (a multiplier on stream lengths) and
//! `REPRO_REPEATS` (median-of-`k` wall-clock repeats; work counters are
//! deterministic per run and reported from the median run).
//!
//! ## Reading the numbers
//!
//! Wall-clock on a shared single-vCPU container is noisy and cannot show
//! true parallel speedup; every experiment therefore also reports the
//! hardware-independent *work counters* (combining factor, summary
//! operations per element, lock contentions, merge volume) that carry the
//! paper's qualitative claims. See `DESIGN.md` §4 and `EXPERIMENTS.md`.
//!
//! The gate binaries for the served stack (`serve-bench`,
//! `cluster-bench`, `repl-bench`, `recovery-bench`) and `perf-gate` share
//! [`service`]: nodes over loopback, scratch directories, best-of-R
//! repeats and the `BENCH_*.json` writer.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod engines;
pub mod harness;
pub mod service;

pub use harness::Scale;
