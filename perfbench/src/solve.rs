//! The two closed-loop solver workloads.
//!
//! * `paper_a1` — Algorithm 1 (`explore_par`) on `Problem::paper_default`
//!   at the CLI's default protocol (60 s × 3 runs, seed `0xDAC2017`),
//!   `nproc` threads, a fresh `SharedSimEvaluator` per solve (every
//!   `hi-opt explore` starts cold). Floors come from the body of the
//!   Fig. 3 range, 0.56 to 0.94 in steps of 0.01: every floor there
//!   takes 4 MILP iterations and 48 simulations, so a run's mix of work
//!   is the same for every seed. (Floors at the ends of the range cost
//!   5 to 15 times more and would make one run's figures depend on how
//!   many of them its seed drew.)
//! * `robust_ladder` — `robust_milp_search` against
//!   `scenarios/demo.suite` with a worst-case `RobustEvaluator` on the
//!   short protocol (5 s × 1 run). Floors 0.50 to 0.59 and Γ ∈ {2, 3}:
//!   9 ladder levels and 36 simulation sets per solve throughout.
//!
//! Each solve draws its input from the seed, in rounds that take every
//! input once in a seeded order, so each run's mix of inputs is as even
//! as its length allows (Γ = 3 solves make about 6% more pivots than
//! Γ = 2 ones, and the latency median would otherwise sit on whichever
//! side the seed favoured). A run solves until `--seconds` have passed
//! (at least [`MIN_SOLVES`] solves) and compares every answer with the
//! recorded reference.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hi_core::{
    explore_par, parse_fault_suite, robust_milp_search, DesignPoint, EvalError, Evaluation,
    ExecContext, ExplorationOutcome, ExploreOptions, FaultSuite, PointEvaluator, Problem,
    RobustEvaluator, RobustMode, RobustnessSpec, SimProtocol,
};
use hi_des::rng::Rng;
use hi_des::SimDuration;
use hi_trace::{wellknown as wk, Collector};

use crate::layers;
use crate::refs::{RefEntry, RefTable};
use crate::stats;
use crate::{shuffle, Args, Report, SETUP_BATCH};

/// Fewest solves a run makes, however long they take.
pub const MIN_SOLVES: usize = 11;

/// The Γ values `robust_ladder` draws from.
const GAMMAS: [u32; 2] = [2, 3];

/// Which engine a solver workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Algorithm 1 at paper scale.
    Paper,
    /// The Γ-robust MILP ladder.
    Robust,
}

impl Kind {
    fn protocol(self) -> SimProtocol {
        match self {
            Kind::Paper => SimProtocol::new(SimDuration::from_secs(60.0), 3, 0xDAC_2017),
            Kind::Robust => SimProtocol::new(SimDuration::from_secs(5.0), 1, 0xDAC_2017),
        }
    }
}

/// One solver input: a floor and (robust only) a Γ.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    key: String,
    floor: f64,
    gamma: u32,
}

/// Every input a workload can draw.
pub fn grid(kind: Kind) -> Vec<Input> {
    match kind {
        Kind::Paper => (56..=94)
            .map(|p| Input {
                key: format!("f0.{p:02}"),
                floor: f64::from(p) / 100.0,
                gamma: 0,
            })
            .collect(),
        Kind::Robust => (50..=59)
            .flat_map(|p| {
                GAMMAS.iter().map(move |&g| Input {
                    key: format!("f0.{p:02}-g{g}"),
                    floor: f64::from(p) / 100.0,
                    gamma: g,
                })
            })
            .collect(),
    }
}

/// A delegating evaluator that times every `try_eval` — the core
/// layer's evaluation busy time, measured from outside the engine.
#[derive(Clone)]
struct Timed<P> {
    inner: P,
    busy_ns: Arc<AtomicU64>,
}

impl<P: PointEvaluator> PointEvaluator for Timed<P> {
    fn try_eval(&self, point: &DesignPoint) -> Result<Evaluation, EvalError> {
        let t = Instant::now();
        let out = self.inner.try_eval(point);
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn unique_evaluations(&self) -> u64 {
        self.inner.unique_evaluations()
    }

    fn drop_cached(&self, point: &DesignPoint) -> bool {
        self.inner.drop_cached(point)
    }
}

/// Everything built before the first solve.
struct Setup {
    exec: ExecContext,
    base: Problem,
    protocol: SimProtocol,
    suite: Option<FaultSuite>,
    specs: Vec<RobustnessSpec>,
}

/// Builds the set-up [`SETUP_BATCH`] times, appending each build's
/// seconds to `times`, and returns the last build.
fn timed_setups(kind: Kind, threads: usize, times: &mut Vec<f64>) -> Result<Setup, String> {
    let mut built = None;
    for _ in 0..SETUP_BATCH {
        let t = Instant::now();
        let s = setup(kind, threads, Collector::disabled())?;
        times.push(t.elapsed().as_secs_f64());
        built = Some(s);
    }
    Ok(built.expect("SETUP_BATCH > 0"))
}

fn setup(kind: Kind, threads: usize, collector: Collector) -> Result<Setup, String> {
    let base = Problem::paper_default(0.9);
    let (suite, specs) = match kind {
        Kind::Paper => (None, Vec::new()),
        Kind::Robust => {
            let path =
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenarios/demo.suite");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let (suite, _) = parse_fault_suite(&text).map_err(|e| format!("demo.suite: {e:?}"))?;
            let specs = GAMMAS
                .iter()
                .map(|&g| RobustnessSpec::from_suite(&suite, g))
                .collect();
            (Some(suite), specs)
        }
    };
    Ok(Setup {
        exec: ExecContext::new(threads).with_collector(collector),
        base,
        protocol: kind.protocol(),
        suite,
        specs,
    })
}

/// What one solve produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    fp: u64,
    power_bits: u64,
    sims: u64,
}

/// Deterministic per-solve counters (traced solves only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    pivots: u64,
    bb_nodes: u64,
    events: u64,
    replications: u64,
}

impl Counts {
    const FIELDS: [&'static str; 4] = ["pivots", "bb_nodes", "events", "replications"];

    fn read(collector: &Collector) -> Self {
        let Some(r) = collector.registry() else {
            return Self::default();
        };
        Self {
            pivots: r.counter_value(wk::MILP_PIVOTS),
            bb_nodes: r.counter_value(wk::MILP_BB_NODES),
            events: r.counter_value(wk::DES_EVENTS_DISPATCHED),
            replications: r.counter_value(wk::NET_REPLICATIONS),
        }
    }

    fn since(self, before: Self) -> Self {
        Self {
            pivots: self.pivots - before.pivots,
            bb_nodes: self.bb_nodes - before.bb_nodes,
            events: self.events - before.events,
            replications: self.replications - before.replications,
        }
    }

    fn values(self) -> [u64; 4] {
        [self.pivots, self.bb_nodes, self.events, self.replications]
    }
}

/// One finished solve.
struct Solved {
    answer: Answer,
    secs: f64,
    hits: u64,
    misses: u64,
}

fn answer_of(outcome: &ExplorationOutcome) -> Answer {
    let (fp, power_bits) = outcome
        .best
        .as_ref()
        .map_or((0, 0), |(p, e)| (p.fingerprint(), e.power_mw.to_bits()));
    Answer {
        fp,
        power_bits,
        sims: outcome.simulations,
    }
}

fn solve(
    kind: Kind,
    s: &Setup,
    input: &Input,
    eval_busy: Option<&Arc<AtomicU64>>,
) -> Result<Solved, String> {
    let mut problem = s.base.clone();
    problem.pdr_min = input.floor;
    let t = Instant::now();
    let (outcome, hits, misses) = match kind {
        Kind::Paper => {
            let ev = s.protocol.shared_evaluator();
            let outcome = match eval_busy {
                Some(busy) => {
                    let timed = Timed {
                        inner: ev.clone(),
                        busy_ns: Arc::clone(busy),
                    };
                    explore_par(&problem, &timed, ExploreOptions::default(), &s.exec)
                }
                None => explore_par(&problem, &ev, ExploreOptions::default(), &s.exec),
            };
            (outcome, ev.cache_hits(), ev.cache_misses())
        }
        Kind::Robust => {
            let suite = s.suite.clone().expect("robust setup parsed the suite");
            let spec = &s.specs[GAMMAS
                .iter()
                .position(|&g| g == input.gamma)
                .expect("grid Γ")];
            let ev = RobustEvaluator::new(s.protocol, suite, RobustMode::WorstCase);
            let opts = ExploreOptions::default();
            let outcome = match eval_busy {
                Some(busy) => {
                    let timed = Timed {
                        inner: ev.clone(),
                        busy_ns: Arc::clone(busy),
                    };
                    robust_milp_search(&problem, spec, &timed, opts, &s.exec, None, &mut |_| ())
                }
                None => robust_milp_search(&problem, spec, &ev, opts, &s.exec, None, &mut |_| ()),
            };
            (
                outcome.map(|r| r.outcome),
                ev.cache_hits(),
                ev.cache_misses(),
            )
        }
    };
    let secs = t.elapsed().as_secs_f64();
    let outcome = outcome.map_err(|e| format!("{}: engine error: {e}", input.key))?;
    Ok(Solved {
        answer: answer_of(&outcome),
        secs,
        hits,
        misses,
    })
}

fn check_answer(input: &Input, got: Answer, reference: Option<&RefEntry>) -> Result<(), String> {
    let Some(r) = reference else {
        return Err(format!("{}: no reference answer", input.key));
    };
    let want = Answer {
        fp: r.u64("fp").unwrap_or(u64::MAX),
        power_bits: r.u64("power_bits").unwrap_or(u64::MAX),
        sims: r.u64("sims").unwrap_or(u64::MAX),
    };
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{}: answer {got:?} differs from reference {want:?}",
            input.key
        ))
    }
}

fn check_counts(input: &Input, got: Counts, reference: Option<&RefEntry>) -> Result<(), String> {
    let Some(r) = reference else {
        return Err(format!("{}: no reference counts", input.key));
    };
    for (field, value) in Counts::FIELDS.iter().zip(got.values()) {
        if r.u64(field) != Some(value) {
            return Err(format!(
                "{}: {field} = {value}, reference {:?} (deterministic count drifted)",
                input.key,
                r.fields.get(*field)
            ));
        }
    }
    Ok(())
}

/// Runs one solver workload and reports its metrics.
pub fn run(kind: Kind, args: &Args, refs: &RefTable, report: &mut Report) -> Result<(), String> {
    let inputs = grid(kind);
    // Set-up is timed in a batch now and another after every solve; the
    // median of them all is reported.
    let mut setup_times = Vec::new();
    let s = timed_setups(kind, args.threads, &mut setup_times)?;
    let mut rng = Rng::seed_from_u64(args.seed);
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };

    // Untraced pass: the end-to-end figures. `plan` keeps each input
    // with its answer (`None` when the solve failed).
    let mut plan: Vec<(Input, Option<Solved>)> = Vec::new();
    let start = Instant::now();
    let mut round: Vec<&Input> = Vec::new();
    while plan.len() < MIN_SOLVES || start.elapsed().as_secs_f64() < budget {
        if round.is_empty() {
            round = inputs.iter().collect();
            shuffle(&mut round, &mut rng);
        }
        let input = round.pop().expect("refilled above");
        report.attempted += 1;
        let done = solve(kind, &s, input, None).and_then(|done| {
            check_answer(input, done.answer, refs.entries.get(&input.key)).map(|()| done)
        });
        plan.push((input.clone(), done.map_err(|e| report.fail(e)).ok()));
        drop(timed_setups(kind, args.threads, &mut setup_times)?);
    }
    let keys: Vec<&str> = plan.iter().map(|(i, _)| i.key.as_str()).collect();
    report.stamp("inputs", keys.join(","));
    report.stamp("solves", plan.len().to_string());
    let solved: Vec<&Solved> = plan.iter().filter_map(|(_, d)| d.as_ref()).collect();
    let latencies: Vec<f64> = solved.iter().map(|d| d.secs * 1e3).collect();
    let sims: u64 = solved.iter().map(|d| d.answer.sims).sum();
    report.end_to_end(
        stats::median(&setup_times),
        &latencies,
        sims as f64 / solved.len().max(1) as f64,
    );
    if !args.trace {
        return Ok(());
    }

    // Traced pass: the same solves again, recorded.
    let untraced_wall: f64 = solved.iter().map(|d| d.secs).sum();
    let collector = Collector::enabled();
    hi_trace::wellknown::register_all(collector.registry().expect("enabled"));
    let traced = setup(kind, args.threads, collector.clone())?;
    let _main = collector.install(0, 0);
    let eval_busy = Arc::new(AtomicU64::new(0));
    let (mut wall, mut hits, mut misses) = (0.0, 0, 0);
    for (input, first) in &plan {
        let before = Counts::read(&collector);
        let done = {
            let _span = hi_trace::span("bench.solve");
            solve(kind, &traced, input, Some(&eval_busy))
        };
        let counts = Counts::read(&collector).since(before);
        match done {
            Ok(done) => {
                wall += done.secs;
                hits += done.hits;
                misses += done.misses;
                let untraced = first.as_ref().map(|f| f.answer);
                if untraced.is_some_and(|a| a != done.answer) {
                    report.defect(format!(
                        "{}: traced answer {:?} differs from untraced {untraced:?}",
                        input.key, done.answer
                    ));
                }
                if let Err(e) = check_counts(input, counts, refs.entries.get(&input.key)) {
                    report.defect(e);
                }
            }
            Err(e) => report.defect(format!("traced run: {e}")),
        }
    }
    traced.exec.flush_pool_stats();
    let events = collector.drain_events();
    let registry = collector.registry().expect("enabled");
    let mut l = layers::from_registry(registry, wall);
    let spans = layers::from_spans(&events);
    l.extend(spans.layers);
    let busy = eval_busy.load(Ordering::Relaxed) as f64 / 1e9;
    let threads = traced.exec.threads() as f64;
    l.insert("core.eval_busy_s", busy);
    l.insert(
        "core.cache_hit_ratio",
        layers::ratio(hits as f64, (hits + misses) as f64),
    );
    l.insert(
        "core.driver_s",
        wall - l["milp.busy_s"] - spans.batch_wall_s,
    );
    l.insert("exec.parallelism", layers::ratio(busy, spans.batch_wall_s));
    l.insert("exec.barrier_idle_s", threads * spans.batch_wall_s - busy);
    l.insert("trace.overhead", layers::ratio(wall, untraced_wall) - 1.0);
    report.trace_file(&args.workload, args.seed, &events);
    report.per_layer(l);
    Ok(())
}

/// Solves every input of the grid once and returns the reference table
/// (answers plus deterministic counters).
pub fn record(kind: Kind, threads: usize) -> Result<RefTable, String> {
    let collector = Collector::metrics_only();
    let s = setup(kind, threads, collector.clone())?;
    let _main = collector.install(0, 0);
    let mut table = RefTable::default();
    for input in grid(kind) {
        let before = Counts::read(&collector);
        let done = solve(kind, &s, &input, None)?;
        let counts = Counts::read(&collector).since(before);
        let mut entry = RefEntry::default();
        entry
            .fields
            .insert("fp".into(), format!("0x{:016x}", done.answer.fp));
        entry.fields.insert(
            "power_bits".into(),
            format!("0x{:016x}", done.answer.power_bits),
        );
        entry
            .fields
            .insert("sims".into(), done.answer.sims.to_string());
        for (field, value) in Counts::FIELDS.iter().zip(counts.values()) {
            entry.fields.insert((*field).into(), value.to_string());
        }
        eprintln!("recorded {} in {:.3} s", input.key, done.secs);
        table.entries.insert(input.key, entry);
    }
    Ok(table)
}
