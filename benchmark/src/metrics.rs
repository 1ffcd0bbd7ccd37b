//! The declared metrics. `BENCHMARK.json` carries the same names, units,
//! directions and bounds; `tests/smoke.rs` keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// A per-layer (diagnostic) metric: no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, prefixed with its layer (= module).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload on the untraced run.
///
/// Bounds are what the sizing host can hold, not what one would wish for:
/// it changes CPU speed by ±10-20 % for minutes at a time (see the README's
/// calibration section), so every time-based metric carries the widest
/// bound the driver allows and only the count-based ones are tight.
///
/// Three of the issue's fourteen are not here. `fail_pct` is 0 on every
/// valid run and a bound is a share of the parent's median: the result's
/// `failed`/`attempted` carry it, `compare` fails on any rise, and the
/// traced run reports it as `run.fail_pct`. The three `*_p99_us` tails
/// spread 20-27 % between identical runs, past any bound the driver
/// accepts, so by the issue's calibration rule they are diagnostics:
/// `run.txn_p99_us`, `run.read_p99_us`, `run.write_p99_us`.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "stmt/s", Higher, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("txn_p50_us", "us", Lower, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("write_p50_us", "us", Lower, 0.25),
    e2e("coordination_pct", "%", Higher, 0.01),
    e2e("wal_bytes_per_op", "B", Lower, 0.02),
    e2e("recovery_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
];

/// Per-layer metrics, reported by every workload on the traced run.
/// A layer that does no work on a workload reports 0 (the contract wants
/// every name on every workload): all `client`/`wire`/`server` metrics on
/// the embedded workloads.
pub const PER_LAYER: &[PerLayer] = &[
    layer("client.encode_ns_per_op", "ns", Lower),
    layer("client.decode_ns_per_op", "ns", Lower),
    layer("client.rtt_p50_us", "us", Lower),
    layer("wire.request_decode_ns_per_op", "ns", Lower),
    layer("wire.reply_encode_ns_per_op", "ns", Lower),
    layer("wire.request_bytes_per_op", "B", Lower),
    layer("wire.reply_bytes_per_op", "B", Lower),
    layer("server.transport_cpu_ns_per_op", "ns", Lower),
    layer("server.sys_cpu_pct", "%", Lower),
    layer("server.frames_decoded", "count", Lower),
    layer("server.bytes_in", "B", Lower),
    layer("server.bytes_out", "B", Lower),
    layer("server.outbox_full_stalls", "count", Lower),
    layer("server.conns_refused", "count", Lower),
    layer("logic.parse_ns_per_op", "ns", Lower),
    layer("logic.bind_ns_per_op", "ns", Lower),
    layer("logic.parses_per_stmt", "count", Lower),
    layer("engine.execute_ns_per_op", "ns", Lower),
    layer("shard.exec_self_ns_per_op", "ns", Lower),
    layer("shard.plan_ns_per_txn", "ns", Lower),
    layer("shard.apply_ns_per_op", "ns", Lower),
    layer("shard.base_lock_wait_ns_per_op", "ns", Lower),
    layer("shard.partition_lock_wait_ns_per_op", "ns", Lower),
    layer("shard.max_pending", "count", Lower),
    layer("shard.partition_merges", "count", Lower),
    layer("shard.grounded_by_partner", "count", Higher),
    layer("shard.grounded_by_read", "count", Lower),
    layer("shard.grounded_by_k", "count", Lower),
    layer("shard.writes_rejected", "count", Lower),
    layer("shard.solve_concurrency_peak", "count", Higher),
    layer("solver.solve_ns_per_txn", "ns", Lower),
    layer("solver.nodes_per_txn", "count", Lower),
    layer("solver.candidates_per_node", "count", Lower),
    layer("solver.cache_extend_pct", "%", Higher),
    layer("solver.full_resolves", "count", Lower),
    layer("solver.index_lookup_pct", "%", Higher),
    layer("worlds.enum_ns_per_possible", "ns", Lower),
    layer("worlds.enumerated_per_possible", "count", Lower),
    layer("worlds.dedup_hit_pct", "%", Higher),
    layer("read.db_clones", "count", Lower),
    layer("storage.indexes_auto_created", "count", Lower),
    layer("wal.append_ns_per_record", "ns", Lower),
    layer("wal.flush_ns_per_drain", "ns", Lower),
    layer("wal.bytes_per_record", "B", Lower),
    layer("wal.records_per_drain", "count", Higher),
    layer("wal.drains", "count", Lower),
    layer("wal.time_share_pct", "%", Lower),
    layer("recovery.storage_replay_s", "s", Lower),
    layer("recovery.requantize_s", "s", Lower),
    layer("recovery.records_per_s", "1/s", Higher),
    layer("recovery.state_mismatches", "count", Lower),
    layer("obs.overhead_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.unattributed_pct", "%", Lower),
    layer("run.txn_p99_us", "us", Lower),
    layer("run.read_p99_us", "us", Lower),
    layer("run.write_p99_us", "us", Lower),
    layer("run.fail_pct", "%", Lower),
];

/// Unit of a declared metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}
