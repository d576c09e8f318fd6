//! Per-layer metrics of the traced run: counts and busy times from the
//! program's metrics registry, self times and span percentiles from the
//! recorded span stream, and the names and units every traced run prints.

use std::collections::BTreeMap;

use hi_trace::{wellknown as wk, LanedEvent, MetricsRegistry};

use crate::stats::{self, Edge};

/// Every per-layer metric a traced run reports, in print order. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("milp.solves", "count"),
    ("milp.pivots", "count"),
    ("milp.bb_nodes", "count"),
    ("milp.bb_fathomed", "count"),
    ("milp.busy_s", "s"),
    ("milp.share", "ratio"),
    ("net.replications", "count"),
    ("des.events", "count"),
    ("net.transmissions", "count"),
    ("net.busy_s", "s"),
    ("des.ns_per_event", "ns"),
    ("net.replication_p50_ms", "ms"),
    ("robust.scenarios", "count"),
    ("robust.busy_s", "s"),
    ("core.evals", "count"),
    ("core.eval_busy_s", "s"),
    ("core.cache_hit_ratio", "ratio"),
    ("algo1.iterations", "count"),
    ("algo1.cuts_added", "count"),
    ("core.driver_s", "s"),
    ("exec.tasks", "count"),
    ("exec.steals", "count"),
    ("exec.parks", "count"),
    ("exec.parallelism", "ratio"),
    ("exec.barrier_idle_s", "s"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.queue_wait_mean_ms", "ms"),
    ("serve.fleet_hit_ratio", "ratio"),
    ("serve.fleet_hits", "count"),
    ("serve.fleet_misses", "count"),
    ("serve.cache.loaded", "count"),
    ("serve.cache.persisted", "count"),
    ("serve.cache.compactions", "count"),
    ("serve.drain_s", "s"),
    ("serve.pareto.inserts", "count"),
    ("serve.pareto.dominated", "count"),
    ("pareto.front_p50_ms", "ms"),
    ("self.milp_s", "s"),
    ("self.net_s", "s"),
    ("self.robust_s", "s"),
    ("self.exec_s", "s"),
    ("self.algo1_s", "s"),
    ("trace.overhead", "ratio"),
    ("loadgen.lag_max_ms", "ms"),
];

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

fn hist_sum_s(registry: &MetricsRegistry, name: &str) -> f64 {
    registry
        .snapshot()
        .histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, h)| h.sum() as f64 / 1e9)
}

/// The median of a log₂-bucket histogram, interpolated linearly inside
/// the bucket holding it; 0 when empty.
pub fn hist_p50(registry: &MetricsRegistry, name: &str) -> f64 {
    let snapshot = registry.snapshot();
    let Some((_, h)) = snapshot.histograms.iter().find(|(n, _)| n == name) else {
        return 0.0;
    };
    let half = h.count() as f64 / 2.0;
    let mut seen = 0.0;
    for (i, &c) in h.buckets().iter().enumerate() {
        if c > 0 && seen + c as f64 >= half {
            let (lo, hi) = hi_trace::Histogram::bucket_range(i);
            return lo as f64 + (hi - lo) as f64 * ((half - seen) / c as f64);
        }
        seen += c as f64;
    }
    0.0
}

/// Counts and busy times the engines record in `registry`; `wall_s` is
/// the traced work's wall-clock, the base of `milp.share`.
pub fn from_registry(registry: &MetricsRegistry, wall_s: f64) -> Layers {
    let c = |name: &str| registry.counter_value(name) as f64;
    let mut l = Layers::new();
    l.insert("milp.solves", c(wk::MILP_SOLVES));
    l.insert("milp.pivots", c(wk::MILP_PIVOTS));
    l.insert("milp.bb_nodes", c(wk::MILP_BB_NODES));
    l.insert("milp.bb_fathomed", c(wk::MILP_BB_FATHOMED));
    let milp_busy = hist_sum_s(registry, wk::MILP_SOLVE_NS);
    l.insert("milp.busy_s", milp_busy);
    l.insert("milp.share", ratio(milp_busy, wall_s));
    l.insert("net.replications", c(wk::NET_REPLICATIONS));
    l.insert("des.events", c(wk::DES_EVENTS_DISPATCHED));
    l.insert("net.transmissions", c(wk::NET_TRANSMISSIONS));
    let net_busy = hist_sum_s(registry, wk::NET_REPLICATION_NS);
    l.insert("net.busy_s", net_busy);
    l.insert(
        "des.ns_per_event",
        ratio(net_busy * 1e9, c(wk::DES_EVENTS_DISPATCHED)),
    );
    l.insert(
        "net.replication_p50_ms",
        hist_p50(registry, wk::NET_REPLICATION_NS) / 1e6,
    );
    l.insert("robust.scenarios", c(wk::ROBUST_SCENARIOS));
    l.insert(
        "robust.busy_s",
        hist_sum_s(registry, wk::ROBUST_SCENARIO_NS),
    );
    l.insert("core.evals", c(wk::CORE_EVALS));
    l.insert("algo1.iterations", c(wk::ALGO1_ITERATIONS));
    l.insert("algo1.cuts_added", c(wk::ALGO1_CUTS_ADDED));
    l.insert("exec.tasks", c(wk::EXEC_TASKS_RUN));
    l.insert("exec.steals", c(wk::EXEC_STEALS));
    l.insert("exec.parks", c(wk::EXEC_PARKS));
    l
}

/// What the span stream adds: self time per layer prefix, the exact
/// replication median, and the lane-0 wall of evaluation batches.
pub struct SpanLayers {
    /// `self.*` metrics.
    pub layers: Layers,
    /// Summed duration of the driving thread's `exec.batch` spans, s.
    pub batch_wall_s: f64,
}

/// Self times and span statistics of a drained event stream.
pub fn from_spans(events: &[LanedEvent]) -> SpanLayers {
    let edges: Vec<Edge<'_>> = events
        .iter()
        .filter_map(|e| {
            let begin = match e.event.kind {
                hi_trace::EventKind::SpanBegin => true,
                hi_trace::EventKind::SpanEnd => false,
                _ => return None,
            };
            Some(Edge {
                lane: e.lane,
                name: e.event.name,
                begin,
                ts_ns: e.event.ts_ns,
            })
        })
        .collect();
    let (totals, durations) = stats::span_totals(&edges);
    let by_prefix = stats::self_ns_by_prefix(&totals);
    let s = |prefix: &str| by_prefix.get(prefix).copied().unwrap_or(0) as f64 / 1e9;
    let mut layers = Layers::new();
    layers.insert("self.milp_s", s("milp."));
    layers.insert("self.net_s", s("net."));
    layers.insert("self.robust_s", s("robust."));
    layers.insert("self.exec_s", s("exec."));
    layers.insert("self.algo1_s", s("algo1."));
    if let Some(reps) = durations.get("net.replication") {
        let ms: Vec<f64> = reps.iter().map(|&ns| ns as f64 / 1e6).collect();
        layers.insert("net.replication_p50_ms", stats::median(&ms));
    }
    // Batches open only on the driving thread's lane 0 (workers never fan
    // out), so their total is that thread's wall inside batches.
    let batch_wall_ns = totals.get("exec.batch").map_or(0, |t| t.total_ns);
    SpanLayers {
        layers,
        batch_wall_s: batch_wall_ns as f64 / 1e9,
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Checks a JSONL span file line by line with the rules of `trace-check`
/// (every line a JSON object carrying `epoch`, `lane`, `name`, `ph` and
/// `ts_ns`); returns the event count.
pub fn check_jsonl(text: &str) -> Result<usize, String> {
    let mut n = 0;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let v = hi_trace::json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let hi_trace::json::Value::Obj(_) = v else {
            return Err(format!("line {}: not a JSON object", i + 1));
        };
        for field in ["epoch", "lane", "name", "ph", "ts_ns"] {
            if v.get(field).is_none() {
                return Err(format!("line {}: missing field `{field}`", i + 1));
            }
        }
        n += 1;
    }
    Ok(n)
}

/// Writes `events` as JSONL under `dir` and checks the file back.
/// Returns the path and event count.
pub fn write_trace(
    dir: &std::path::Path,
    file: &str,
    events: &[LanedEvent],
) -> Result<(std::path::PathBuf, usize), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    let mut buf = Vec::new();
    hi_trace::sink::write_jsonl(&mut buf, events).map_err(|e| e.to_string())?;
    std::fs::write(&path, &buf).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let n = check_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((path, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_median_interpolates_inside_its_bucket() {
        let registry = MetricsRegistry::new();
        assert_eq!(hist_p50(&registry, "h"), 0.0);
        for v in [5, 6, 7, 100] {
            registry.record("h", v);
        }
        // Two of four samples sit in [4, 7]: the median lands at its top.
        let p50 = hist_p50(&registry, "h");
        assert!((4.0..=7.0).contains(&p50), "{p50}");
    }

    #[test]
    fn jsonl_check_demands_the_trace_check_fields() {
        let good = "{\"epoch\":0,\"lane\":0,\"name\":\"a\",\"ph\":\"B\",\"ts_ns\":1}\n";
        assert_eq!(check_jsonl(good), Ok(1));
        assert!(check_jsonl("{\"epoch\":0}\n").is_err());
        assert!(check_jsonl("[1]\n").is_err());
    }
}
