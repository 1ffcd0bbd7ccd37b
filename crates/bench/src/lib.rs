//! # qdb-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§5) as text series, and runs the correctness
//! experiments CI gates on (`sim`, `replication`, `connection_scale`). See
//! `src/bin/reproduce.rs` for the command-line entry point. Performance is
//! measured by the standalone `benchmark/` package, not here.

pub mod connscale;
pub mod experiments;
pub mod replbench;
pub mod report;
pub mod stamp;

pub use connscale::{connection_scale, ConnScaleConfig, ConnScaleOutcome, HotPhase};
pub use experiments::{
    fig5_fig6_order_of_arrival, fig7_table2_scalability, fig8_fig9_mixed, paper_orders,
    phase_transition, table1_max_pending, Fig5Row, MixedRow, PhaseRow, ScalabilityRow,
};
pub use replbench::{replication_scale, ReplPoint, ReplScaleConfig, ReplScaleOutcome};
pub use report::{downsample, format_series, format_table};
pub use stamp::{git_commit, iso8601_now};
