//! The repo's performance benchmark.
//!
//! Four fixed-work workloads drive the quantum database only through its
//! public surface (SQL text and prepared statements via `Session` /
//! `Connection`, an in-process `Server::spawn`, the engine's own counters
//! and histograms). An untraced run reports the end-to-end metrics; a
//! traced run replays the same seeded stream along a hand-driven request
//! path and reports the per-layer metrics. `benchmark/README.md` has the
//! tables, the reasons and the calibration.

pub mod compare;
pub mod drive;
pub mod exec;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;
