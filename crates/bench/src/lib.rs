//! # qdb-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§5) and the §6 phase transition as text series,
//! and nothing else. See `src/bin/reproduce.rs` for the command-line entry
//! point. The simulator's checked sweeps run from the `sim` binary
//! (`qdb-sim`), whose JSON writer this crate borrows; performance is
//! measured by the standalone `benchmark/` package.

pub mod experiments;
pub mod report;
pub mod stamp;

pub use experiments::{
    fig5_fig6_order_of_arrival, fig7_table2_scalability, fig8_fig9_mixed, paper_orders,
    phase_transition, table1_max_pending, Fig5Row, MixedRow, PhaseRow, ScalabilityRow,
};
pub use report::{downsample, format_series, format_table};
pub use stamp::{git_commit, iso8601_now};
