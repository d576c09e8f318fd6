//! `hi-perfbench` — the hi-opt benchmark.
//!
//! ```text
//! hi-perfbench --workload <paper_a1|robust_ladder|fleet_serve> --seed <n>
//!              --seconds <s> --trace <0|1> [--threads <n>]
//! hi-perfbench --record <workload> [--threads <n>]
//! ```
//!
//! With `--trace 0` a run measures the workload untraced and prints the
//! end-to-end metrics; with `--trace 1` it runs the same inputs twice,
//! untraced then traced, and prints the per-layer metrics (the span file
//! goes to `.perfbench/`). Every answer is compared with the reference
//! recorded when the benchmark was defined (`perfbench/ref/`); the last
//! stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--record` re-solves every input a workload can draw and rewrites its
//! reference file.

mod fleet;
mod layers;
mod refs;
mod solve;
mod stats;

use std::process::ExitCode;

use layers::Layers;

/// Set-up repetitions per batch. A run times batches spread over the
/// whole run (between solves, or in the load generator's idle time) and
/// reports the median of every repetition as `setup_s`, so the figure
/// samples the host over the run rather than in one instant.
pub const SETUP_BATCH: usize = 16;

/// Every end-to-end metric, in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("sims_per_solve", "count"),
    ("peak_rss_mb", "MB"),
];

const WORKLOADS: &[&str] = &["paper_a1", "robust_ladder", "fleet_serve"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Worker threads (at most `nproc`).
    pub threads: usize,
    /// Rewrite the workload's reference file instead of measuring.
    pub record: bool,
}

/// The host's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Shuffles `items` in place (Fisher–Yates) from `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut hi_des::rng::Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_below(i as u64 + 1) as usize);
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        threads: nproc(),
        record: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--record" => {
                args.workload = value()?.clone();
                args.record = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--threads" => args.threads = value()?.parse().map_err(|_| "bad --threads")?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got `{}`)",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    // More workers than cores would measure contention, not the engines.
    if args.threads == 0 || args.threads > nproc() {
        return Err(format!(
            "--threads must be in 1..={} (this host's core count)",
            nproc()
        ));
    }
    Ok(args)
}

/// What a run found, and its metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (solves, fleet jobs, FRONT queries).
    pub attempted: u64,
    /// Operations that failed or answered differently from the reference.
    pub failed: u64,
    /// Benchmark defects: drifted exact counts, a traced answer that
    /// differs from the untraced one, an invalid span file.
    defects: Vec<String>,
    stamp: Vec<(String, String)>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        eprintln!("FAILED: {why}");
        self.failed += 1;
    }

    /// Records a benchmark defect (the run is then not `correct`).
    pub fn defect(&mut self, why: String) {
        eprintln!("DEFECT: {why}");
        self.defects.push(why);
    }

    /// Adds a line to the run's host/protocol stamp.
    pub fn stamp(&mut self, key: &str, value: String) {
        self.stamp.push((key.to_string(), value));
    }

    /// Sets the end-to-end metrics from the untraced pass.
    pub fn end_to_end(&mut self, setup_s: f64, latencies_ms: &[f64], sims_per_solve: f64) {
        let tail = stats::tail(latencies_ms);
        self.stamp(
            "latency_samples",
            format!("{} (tail at p{:.1})", tail.n, tail.pct),
        );
        let values = [
            setup_s,
            stats::median(latencies_ms),
            tail.value,
            sims_per_solve,
            peak_rss_mb(),
        ];
        self.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect();
    }

    /// Replaces the metrics with the per-layer set (traced runs).
    pub fn per_layer(&mut self, layers: Layers) {
        self.metrics = layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect();
    }

    /// Writes the traced pass's spans as JSONL and checks the file.
    pub fn trace_file(&mut self, workload: &str, seed: u64, events: &[hi_trace::LanedEvent]) {
        let file = format!("trace-{workload}-{seed}.jsonl");
        match layers::write_trace(std::path::Path::new(OUT_DIR), &file, events) {
            Ok((path, n)) => self.stamp("trace_file", format!("{} ({n} events)", path.display())),
            Err(e) => self.defect(format!("span file: {e}")),
        }
    }

    fn print(&self) {
        for (k, v) in &self.stamp {
            println!("stamp {k:<16} {v}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<26} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.defects.is_empty() && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Where runs leave span files and daemon state (inside the checkout).
pub const OUT_DIR: &str = ".perfbench";

/// The process's peak resident set, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    report.stamp("workload", args.workload.clone());
    report.stamp("seed", args.seed.to_string());
    report.stamp("nproc", nproc().to_string());
    report.stamp(
        "build",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .to_string(),
    );
    report.stamp("threads", args.threads.to_string());
    report.stamp("seconds", args.seconds.to_string());
    report.stamp("traced", args.trace.to_string());
    let refs = refs::load(&args.workload)?;
    match args.workload.as_str() {
        "paper_a1" => {
            report.stamp("protocol", "tsim 60 s x 3 runs, seed 0xDAC2017".into());
            solve::run(solve::Kind::Paper, args, &refs, &mut report)?;
        }
        "robust_ladder" => {
            report.stamp(
                "protocol",
                "tsim 5 s x 1 run, seed 0xDAC2017, demo.suite worst-case".into(),
            );
            solve::run(solve::Kind::Robust, args, &refs, &mut report)?;
        }
        _ => fleet::run(args, &refs, &mut report)?,
    }
    Ok(report)
}

fn record(args: &Args) -> Result<(), String> {
    let table = match args.workload.as_str() {
        "paper_a1" => solve::record(solve::Kind::Paper, args.threads)?,
        "robust_ladder" => solve::record(solve::Kind::Robust, args.threads)?,
        _ => fleet::record()?,
    };
    let path = refs::path(&args.workload);
    let header = format!(
        "Reference answers of the {} workload, one entry per input it can draw.\n\
         Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --record {}",
        args.workload, args.workload
    );
    std::fs::write(&path, table.render(&header))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {} ({} entries)", path.display(), table.entries.len());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hi-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return match record(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("hi-perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hi-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
