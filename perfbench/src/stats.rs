//! The benchmark's own arithmetic: percentiles under the "at least ten
//! samples beyond" rule, the serial-FIFO service/queue-wait split, open-loop
//! latency timed from the due time, and per-prefix self time over a
//! multi-lane span stream.

use std::collections::BTreeMap;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median of `samples` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail percentile: the value, the percentile it sits at and the
/// sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the reported rank.
    pub value: f64,
    /// The percentile of that rank, `100 * rank / n` (nearest-rank).
    pub pct: f64,
    /// Number of samples.
    pub n: usize,
}

/// The tail of `samples`: p90 when at least [`TAIL_BEYOND`] samples lie
/// beyond it (100 or more samples), else the highest nearest-rank
/// percentile that still has that many beyond it — but never below the
/// median's rank, so small samples report their median rather than a
/// "tail" under it. With [`TAIL_BEYOND`] samples or fewer no percentile
/// qualifies and the maximum is reported at p100.
pub fn tail(samples: &[f64]) -> Tail {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            pct: 0.0,
            n,
        };
    }
    // Nearest-rank p90 sits at 1-based rank ceil(0.9 n).
    let p90_rank = (9 * n).div_ceil(10);
    let rank = if n > TAIL_BEYOND {
        p90_rank.min(n - TAIL_BEYOND).max(n.div_ceil(2))
    } else {
        n
    };
    Tail {
        value: v[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        n,
    }
}

/// One job of a serial FIFO server, as a client sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FifoJob {
    /// When the server acknowledged the submission.
    pub accepted: f64,
    /// When the job was observed done.
    pub done: f64,
}

/// Splits each job's time in a serial FIFO server into queue wait and
/// service. Job `i` starts when it is accepted or when job `i - 1` is
/// done, whichever is later; its service is the rest of its time.
/// Returns `(queue_wait, service)` per job, in input (FIFO) order.
pub fn fifo_split(jobs: &[FifoJob]) -> Vec<(f64, f64)> {
    let mut prev_done = f64::NEG_INFINITY;
    jobs.iter()
        .map(|job| {
            let start = job.accepted.max(prev_done);
            prev_done = job.done;
            (start - job.accepted, job.done - start)
        })
        .collect()
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when it was observed done.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// Scheduled send time.
    pub due: f64,
    /// Actual send time (late when the generator fell behind).
    pub sent: f64,
    /// Completion time.
    pub done: f64,
}

/// Latency of each request timed from its due time (so a generator
/// stall counts against the requests it delayed), and the generator's
/// largest lateness.
pub fn open_loop(samples: &[OpenLoopSample]) -> (Vec<f64>, f64) {
    let latencies = samples.iter().map(|s| s.done - s.due).collect();
    let lag_max = samples
        .iter()
        .map(|s| (s.sent - s.due).max(0.0))
        .fold(0.0, f64::max);
    (latencies, lag_max)
}

/// One span edge of a trace stream, in drained order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge<'a> {
    /// Trace lane (0 is the driving thread; `i + 1` is work item `i`).
    pub lane: u32,
    /// Span name.
    pub name: &'a str,
    /// `true` for a begin edge, `false` for an end edge.
    pub begin: bool,
    /// Timestamp, ns.
    pub ts_ns: u64,
}

/// Per-span-name totals of a trace: inclusive duration, self time and
/// span count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus the time direct children on the same lane
    /// covered, ns.
    pub self_ns: u64,
    /// Number of closed spans.
    pub count: u64,
}

/// Walks a span stream lane by lane — a span's children are the spans
/// nested inside it on the same lane, so work a batch fans out to other
/// lanes stays that batch's self time (the caller waited for it) and is
/// also counted on the worker lanes as their own spans. Events of one
/// lane must appear in time order, as `Collector::drain_events` yields
/// them. Returns totals by span name and every closed span's duration
/// by name.
pub fn span_totals(
    edges: &[Edge<'_>],
) -> (BTreeMap<String, SpanTotals>, BTreeMap<String, Vec<u64>>) {
    // Per lane: a stack of (name, begin ts, ns covered by children).
    let mut stacks: BTreeMap<u32, Vec<(&str, u64, u64)>> = BTreeMap::new();
    let mut totals: BTreeMap<String, SpanTotals> = BTreeMap::new();
    let mut durations: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for edge in edges {
        let stack = stacks.entry(edge.lane).or_default();
        if edge.begin {
            stack.push((edge.name, edge.ts_ns, 0));
            continue;
        }
        // Close the innermost open span of this name; anything above it
        // was left unclosed and is dropped.
        let Some(pos) = stack.iter().rposition(|(name, _, _)| *name == edge.name) else {
            continue;
        };
        stack.truncate(pos + 1);
        let (name, begin, children) = stack.pop().expect("position is in range");
        let dur = edge.ts_ns.saturating_sub(begin);
        if let Some(parent) = stack.last_mut() {
            parent.2 += dur;
        }
        let t = totals.entry(name.to_string()).or_default();
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
        t.count += 1;
        durations.entry(name.to_string()).or_default().push(dur);
    }
    (totals, durations)
}

/// Sums self time by span-name prefix (the text up to and including
/// the first `.`).
pub fn self_ns_by_prefix(totals: &BTreeMap<String, SpanTotals>) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (name, t) in totals {
        let prefix = name.find('.').map_or(name.as_str(), |i| &name[..=i]);
        *out.entry(prefix.to_string()).or_insert(0) += t.self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n, shuffled so sorting is exercised.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_p90_with_a_hundred_samples() {
        let t = tail(&ramp(100));
        assert_eq!(
            t,
            Tail {
                value: 90.0,
                pct: 90.0,
                n: 100
            }
        );
        // Exactly ten samples (91..=100) lie beyond it.
        assert_eq!(ramp(100).iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_stays_at_p90_above_a_hundred_samples() {
        let t = tail(&ramp(300));
        assert_eq!((t.value, t.pct, t.n), (270.0, 90.0, 300));
    }

    #[test]
    fn tail_drops_below_p90_to_keep_ten_beyond() {
        let t = tail(&ramp(50));
        assert_eq!((t.value, t.pct, t.n), (40.0, 80.0, 50));
        assert_eq!(ramp(50).iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_never_drops_below_the_median_rank() {
        // 11..=20 samples: ten beyond would put the rank under the median.
        let t = tail(&ramp(11));
        assert_eq!((t.value, t.n), (6.0, 11));
        let t = tail(&ramp(20));
        assert_eq!((t.value, t.pct), (10.0, 50.0));
        let t = tail(&ramp(21));
        assert_eq!((t.value, t.pct), (11.0, 100.0 * 11.0 / 21.0));
    }

    #[test]
    fn tail_of_ten_or_fewer_is_the_maximum() {
        let t = tail(&ramp(10));
        assert_eq!((t.value, t.pct, t.n), (10.0, 100.0, 10));
        assert_eq!(tail(&[]).n, 0);
    }

    #[test]
    fn fifo_split_separates_queue_wait_from_service() {
        let jobs = [
            // Idle server: no wait, service 2.
            FifoJob {
                accepted: 0.0,
                done: 2.0,
            },
            // Arrives while job 0 runs: waits 1, served 3.
            FifoJob {
                accepted: 1.0,
                done: 5.0,
            },
            // Arrives after job 1 is done: no wait, served 1.
            FifoJob {
                accepted: 7.0,
                done: 8.0,
            },
        ];
        assert_eq!(fifo_split(&jobs), vec![(0.0, 2.0), (1.0, 3.0), (0.0, 1.0)]);
    }

    #[test]
    fn open_loop_latency_counts_generator_lateness() {
        let samples = [
            OpenLoopSample {
                due: 0.0,
                sent: 0.0,
                done: 1.0,
            },
            // The generator stalled for 3 units: the request still counts
            // from when it was due.
            OpenLoopSample {
                due: 1.0,
                sent: 4.0,
                done: 5.0,
            },
            OpenLoopSample {
                due: 2.0,
                sent: 4.5,
                done: 6.0,
            },
        ];
        let (latencies, lag_max) = open_loop(&samples);
        assert_eq!(latencies, vec![1.0, 4.0, 4.0]);
        assert_eq!(lag_max, 3.0);
    }

    fn b(lane: u32, name: &'static str, ts_ns: u64) -> Edge<'static> {
        Edge {
            lane,
            name,
            begin: true,
            ts_ns,
        }
    }
    fn e(lane: u32, name: &'static str, ts_ns: u64) -> Edge<'static> {
        Edge {
            lane,
            name,
            begin: false,
            ts_ns,
        }
    }

    #[test]
    fn self_time_subtracts_same_lane_children_only() {
        // Lane 0: iteration [0,100] holding milp [10,30] and a batch
        // [40,90]; the batch's work runs on lanes 1 and 2 and nests a
        // scenario inside one replication.
        let edges = [
            b(0, "algo1.iteration", 0),
            b(0, "milp.solve", 10),
            e(0, "milp.solve", 30),
            b(0, "exec.batch", 40),
            b(1, "net.replication", 41),
            e(1, "net.replication", 81),
            b(2, "robust.scenario", 42),
            b(2, "net.replication", 45),
            e(2, "net.replication", 75),
            e(2, "robust.scenario", 85),
            e(0, "exec.batch", 90),
            e(0, "algo1.iteration", 100),
        ];
        let (totals, durations) = span_totals(&edges);
        let get = |n: &str| totals[n];
        assert_eq!(
            get("algo1.iteration"),
            SpanTotals {
                total_ns: 100,
                self_ns: 30,
                count: 1
            }
        );
        assert_eq!(get("milp.solve").self_ns, 20);
        // The batch waited 50 ns for work on other lanes: all its own.
        assert_eq!(get("exec.batch").self_ns, 50);
        assert_eq!(
            get("net.replication"),
            SpanTotals {
                total_ns: 70,
                self_ns: 70,
                count: 2
            }
        );
        assert_eq!(
            get("robust.scenario"),
            SpanTotals {
                total_ns: 43,
                self_ns: 13,
                count: 1
            }
        );
        assert_eq!(durations["net.replication"], vec![40, 30]);
        let by_prefix = self_ns_by_prefix(&totals);
        assert_eq!(by_prefix["algo1."], 30);
        assert_eq!(by_prefix["milp."], 20);
        assert_eq!(by_prefix["exec."], 50);
        assert_eq!(by_prefix["net."], 70);
        assert_eq!(by_prefix["robust."], 13);
    }

    #[test]
    fn lane_zero_spans_may_straddle_epochs() {
        // Drained order is (epoch, lane): a lane-0 span opened in one
        // epoch and closed in a later one still pairs up, because lanes
        // are walked independently of epochs.
        let edges = [
            b(0, "exec.batch", 0),
            b(1, "net.replication", 1), // epoch 1, lane 1
            e(1, "net.replication", 9),
            e(0, "exec.batch", 10), // epoch 2, lane 0
        ];
        let (totals, _) = span_totals(&edges);
        assert_eq!(totals["exec.batch"].self_ns, 10);
        assert_eq!(totals["net.replication"].self_ns, 8);
    }
}
