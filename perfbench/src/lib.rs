//! # flexvc-perfbench — the repository's benchmark
//!
//! Runs one named workload per invocation for a time budget, checks every
//! simulated point's outputs, and prints the end-to-end metrics (untraced)
//! or the per-layer metrics (traced), each by name and unit, followed by
//! one JSON result line. See `NOTES.md` beside this crate.

pub mod bench;
pub mod cli;
pub mod fingerprint;
pub mod point;
mod probes;
pub mod report;
mod rss;
mod stats;
pub mod trace;
pub mod workloads;
