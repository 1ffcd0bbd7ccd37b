//! `benchmark compare <a.json> <b.json>`: one row per workload ×
//! end-to-end metric, judged against the metric's declared bound.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};

/// Verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is not worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// An input's own run-to-run spread exceeds the bound: the inputs
    /// cannot resolve a change of that size either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Median in `a`.
    pub a: f64,
    /// Median in `b`.
    pub b: f64,
    /// Relative change of `b` against `a` in the *worse* direction
    /// (positive = worse), as a share of `a`.
    pub worse_by: f64,
    /// Larger of the two inputs' (max − min) / median.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judge one metric: medians, each side's own spread, the bound.
pub fn judge(better: Better, bound: f64, a: (f64, f64), b: (f64, f64)) -> (f64, Verdict) {
    let ((a_median, a_spread), (b_median, b_spread)) = (a, b);
    let change = if a_median == 0.0 {
        0.0
    } else {
        (b_median - a_median) / a_median.abs()
    };
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let verdict = if a_spread.max(b_spread) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn median_and_spread(metric: &Json) -> Option<(f64, f64)> {
    let median = metric.get("median")?.as_f64()?;
    let (min, max) = (metric.get("min")?.as_f64()?, metric.get("max")?.as_f64()?);
    let spread = if median == 0.0 {
        0.0
    } else {
        (max - min) / median.abs()
    };
    Some((median, spread))
}

fn total(workload: &Json, key: &str) -> f64 {
    workload
        .get(key)
        .and_then(Json::as_arr)
        .map_or(0.0, |values| values.iter().filter_map(Json::as_f64).sum())
}

/// Compare two result files. Returns the rows and whether the comparison
/// passes: no `regressed` row, and no rise in failed statements.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<Row>, bool), String> {
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("result file has no \"workloads\" object")
    };
    let (a_workloads, b_workloads) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    let mut pass = true;
    for (name, a_workload) in &a_workloads {
        let Some((_, b_workload)) = b_workloads.iter().find(|(n, _)| n == name) else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        let fail_share = |w: &Json| {
            let attempted = total(w, "attempted");
            if attempted > 0.0 {
                total(w, "failed") / attempted
            } else {
                0.0
            }
        };
        if fail_share(b_workload) > fail_share(a_workload) {
            println!(
                "{name}: fail_pct rose from {} to {}",
                100.0 * fail_share(a_workload),
                100.0 * fail_share(b_workload)
            );
            pass = false;
        }
        for metric in END_TO_END {
            let side = |w: &Json| {
                w.get("end_to_end")?
                    .get(metric.name)
                    .and_then(median_and_spread)
            };
            let (Some(a_side), Some(b_side)) = (side(a_workload), side(b_workload)) else {
                return Err(format!("{name}: metric {} is missing", metric.name));
            };
            let (worse_by, verdict) = judge(metric.better, metric.bound, a_side, b_side);
            pass &= verdict != Verdict::Regressed;
            rows.push(Row {
                workload: name.clone(),
                metric: metric.name,
                a: a_side.0,
                b: b_side.0,
                worse_by,
                spread: a_side.1.max(b_side.1),
                verdict,
            });
        }
    }
    Ok((rows, pass))
}

/// Print the comparison table.
pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse_by", "spread", "bound"
    );
    for row in rows {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == row.metric)
            .map_or(0.0, |m| m.bound);
        println!(
            "{:<16} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            100.0 * row.worse_by,
            100.0 * row.spread,
            100.0 * bound,
            row.verdict.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, bound 5 %: +4 % is ok, +6 % regressed.
        assert_eq!(
            judge(Better::Lower, 0.05, (100.0, 0.01), (104.0, 0.01)).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(Better::Lower, 0.05, (100.0, 0.01), (106.0, 0.01)).1,
            Verdict::Regressed
        );
        // Higher is better: a drop is the worse direction.
        assert_eq!(
            judge(Better::Higher, 0.05, (100.0, 0.0), (94.0, 0.0)).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.05, (100.0, 0.0), (120.0, 0.0)).1,
            Verdict::Ok
        );
        // Either input noisier than the bound: nothing can be resolved.
        assert_eq!(
            judge(Better::Lower, 0.05, (100.0, 0.08), (130.0, 0.0)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.05, (100.0, 0.0), (100.0, 0.06)).1,
            Verdict::Unresolved
        );
    }
}
