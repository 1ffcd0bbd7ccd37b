//! # qdb-workload
//!
//! Workload generators, the **intelligent social (IS)** baseline, and the
//! experiment runner for the evaluation section (§5) of *Quantum
//! Databases*.
//!
//! The paper's workload simulates a social travel application: pairs of
//! friends book seats on flights and want to sit together. Each booking is
//! an *entangled resource transaction* — a hard constraint ("a seat on
//! flight f") plus optional coordination atoms ("next to my friend"). The
//! experiments vary:
//!
//! * the **arrival order** of partners (Table 1: Alternate / Random /
//!   In Order / Reverse Order),
//! * the **`k` bound** on pending transactions per partition,
//! * the **read percentage** of a mixed workload.
//!
//! The IS baseline models the best a clever client can do over an
//! ordinary database: check whether the friend already has a booking, sit
//! next to them if possible, otherwise book a seat with a free neighbour.
//!
//! Test support, which no engine code calls: [`pattern`], the reference
//! conjunctive-query evaluator reads are held to; [`formula`], Theorem
//! 3.5's composed-body formulas, the solver's oracle; and [`rng`], the one
//! seeded generator.

pub mod calendar;
mod compose;
pub mod entangled;
pub mod flights;
pub mod formula;
pub mod is_baseline;
pub mod metrics;
pub mod mixed;
pub mod orders;
pub mod pattern;
mod predicate;
pub mod rng;
pub mod runner;
pub mod stream;

pub use entangled::{entangled_booking, make_pairs, Pair};
pub use flights::FlightsConfig;
pub use is_baseline::IsClient;
pub use metrics::{coordination_stats, CoordStats};
pub use mixed::{build_mixed_workload, Op};
pub use orders::{arrange, ArrivalOrder, Request};
pub use runner::{run_is, run_quantum, RunConfig, RunResult};
pub use stream::{build_client_streams, SimOp, StreamProfile};
