//! `fleet_serve` — the daemon under open-loop load.
//!
//! The daemon runs in-process (`Server::new` + `scheduler_loop` +
//! `serve_connection` over loopback TCP) on a state directory the
//! benchmark seeds beforehand, outside the measured run, by running an
//! earlier fleet (one job per physics variant) on a first server and
//! shutting it down. A generator then sends one-profile `SUBMIT`s on one
//! connection at a fixed rate ([`RATE`] jobs per second, below capacity
//! so the backlog does not grow) and `WAIT`s, plus a `FRONT` every
//! [`FRONT_EVERY`] jobs, on a second. Every job runs Algorithm 1 on a
//! protocol of short replications (2 s simulated, [`RUNS`] per
//! evaluation), and jobs come in four kinds, in seeded blocks of eight
//! holding one of each cheap kind, four light and two heavy jobs:
//!
//! * warm — a profile the earlier fleet ran: answered from the persisted
//!   segments with `simulations 0`;
//! * hit — a profile a cold job of this run already ran: answered from
//!   the in-memory fleet cache with `simulations 0`;
//! * light — a fresh physics stream (variant × profile seed) never run
//!   before, at 10 packets/s: simulations, segment appends and fsyncs;
//! * heavy — the same at 25 packets/s, which simulates about 1.7 times
//!   as long.
//!
//! Warm and hit jobs cost the daemon only MILP solves and a dozen
//! fsyncs (about 8 ms in all); light jobs add about 0.1 s of simulation
//! and heavy ones about 0.17 s. At [`RATE`] the daemon is busy under a
//! quarter of the time and even a heavy job on a slow host ends before
//! the next one is due, so queueing does not amplify the host's noise.
//! The cheap, light and heavy jobs are a quarter, a half and a quarter
//! of each block, so the latency median is the median of the light jobs,
//! the largest class, and the tail (p90 from 100 jobs on) falls well
//! inside the heavy ones — never on the edge between two classes, where
//! one job more or less on either side of it would move the figure by
//! tens of percent. With most of the time spent
//! simulating, the median and tail rest on the daemon's own work rather
//! than on the host's fsync latency, which on a shared disk varies
//! several-fold from minute to minute.
//!
//! Latency is timed from when each `SUBMIT` was due until `WAIT` reports
//! `done`. Every `RESULT` block is compared with the reference recorded
//! for its profile (`simulations` is the reference count for cold jobs
//! and 0 otherwise), and the daemon's fleet hit and miss counters must
//! equal the totals the references predict.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hi_des::rng::Rng;
use hi_serve::{serve_connection, JobState, ServeConfig, Server, UserProfile};
use hi_trace::{wellknown as wk, Collector};

use crate::layers;
use crate::refs::{RefEntry, RefTable};
use crate::stats::{self, FifoJob, OpenLoopSample};
use crate::{shuffle, Args, Report, OUT_DIR, SETUP_BATCH};

/// Offered load, jobs per second.
pub const RATE: f64 = 2.5;

/// Replications per evaluation of every fleet profile.
const RUNS: u32 = 10;

/// A `FRONT` query follows every this many jobs.
pub const FRONT_EVERY: usize = 10;

/// Profile seeds of the cold pool, per physics variant.
const COLD_SEEDS: u64 = 60;

/// Physics variants: (geometry scale, channel shift dB, packets/s,
/// packet bytes). The first [`LIGHT`] are light traffic, the rest heavy.
const VARIANTS: [(f64, f64, f64, usize); 6] = [
    (1.0, 0.0, 10.0, 100),
    (1.1, 0.0, 10.0, 100),
    (1.0, 2.0, 10.0, 100),
    (0.9, 1.0, 25.0, 64),
    (1.0, 0.0, 25.0, 64),
    (1.15, 2.0, 25.0, 64),
];

/// Number of light-traffic variants at the head of [`VARIANTS`].
const LIGHT: usize = 3;

const FLOORS: [f64; 3] = [0.75, 0.80, 0.85];

/// One poolable profile: a physics variant, a profile seed and a floor.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    key: String,
    variant: usize,
    seed: u64,
    floor: f64,
}

impl Entry {
    fn profile(&self, id: &str) -> UserProfile {
        let (geometry, channel, pps, len) = VARIANTS[self.variant];
        let mut p = UserProfile::named(id);
        p.geometry_scale = geometry;
        p.channel_offset_db = channel;
        p.packets_per_second = pps;
        p.packet_len_bytes = len;
        p.pdr_min = self.floor;
        p.t_sim_secs = 2.0;
        p.runs = RUNS;
        p.seed = self.seed;
        p
    }
}

/// The earlier fleet's profiles (warm after the restart).
fn warm_pool() -> Vec<Entry> {
    (0..VARIANTS.len())
        .map(|v| Entry {
            key: format!("w{v}"),
            variant: v,
            seed: 1,
            floor: FLOORS[v % FLOORS.len()],
        })
        .collect()
}

/// Fresh physics streams, one per (variant, profile seed).
fn cold_pool() -> Vec<Entry> {
    (0..VARIANTS.len())
        .flat_map(|v| {
            (100..100 + COLD_SEEDS).map(move |s| Entry {
                key: format!("c{v}-{s}"),
                variant: v,
                seed: s,
                floor: FLOORS[(v + s as usize) % FLOORS.len()],
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Warm,
    Hit,
    Light,
    Heavy,
}

impl JobKind {
    /// Whether the job simulates (a fresh physics stream).
    fn is_cold(self) -> bool {
        matches!(self, JobKind::Light | JobKind::Heavy)
    }
}

/// One planned job.
#[derive(Debug, Clone)]
struct Planned {
    kind: JobKind,
    entry: Entry,
}

/// The kinds of one block of jobs, before the seed orders them.
const BLOCK: [JobKind; 8] = [
    JobKind::Light,
    JobKind::Light,
    JobKind::Light,
    JobKind::Light,
    JobKind::Heavy,
    JobKind::Heavy,
    JobKind::Hit,
    JobKind::Warm,
];

/// The seeded job sequence: blocks of eight holding four light and two
/// heavy cold jobs, a hit and a warm job, the first job cold so every hit
/// has an earlier cold job to repeat. Each cold class takes its physics
/// variants in seeded rounds that use each variant once, so no seed
/// leans on one variant's cost. Within a variant, cold jobs take the
/// pool's profiles in pool order: every seed of one run length runs the
/// same cold profiles, in its own order and mix. Profiles of one variant
/// differ by up to ±20% in cost, so a seed that drew its own would move
/// the latency median by the cost of what it drew.
fn plan(seed: u64, jobs: usize) -> Result<Vec<Planned>, String> {
    let mut rng = Rng::seed_from_u64(seed);
    let warm = warm_pool();
    let mut cold: Vec<Vec<Entry>> = vec![Vec::new(); VARIANTS.len()];
    // Reversed, so that `pop` takes them in pool order.
    for e in cold_pool().into_iter().rev() {
        cold[e.variant].push(e);
    }
    let mut rounds: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let mut ran_cold: Vec<Entry> = Vec::new();
    let mut out = Vec::with_capacity(jobs);
    while out.len() < jobs {
        let mut block = BLOCK;
        shuffle(&mut block, &mut rng);
        if out.is_empty() {
            let first_cold = block
                .iter()
                .position(|k| k.is_cold())
                .expect("every block holds cold jobs");
            block.swap(0, first_cold);
        }
        for kind in block.into_iter().take(jobs - out.len()) {
            let entry = match kind {
                JobKind::Warm => warm[rng.gen_below(warm.len() as u64) as usize].clone(),
                JobKind::Hit => ran_cold[rng.gen_below(ran_cold.len() as u64) as usize].clone(),
                JobKind::Light | JobKind::Heavy => {
                    let heavy = kind == JobKind::Heavy;
                    let round = &mut rounds[usize::from(heavy)];
                    if round.is_empty() {
                        *round = if heavy {
                            (LIGHT..VARIANTS.len()).collect()
                        } else {
                            (0..LIGHT).collect()
                        };
                        shuffle(round, &mut rng);
                    }
                    let variant = round.pop().expect("refilled above");
                    let e = cold[variant].pop().ok_or(format!(
                        "{jobs} jobs need more cold profiles than the pool holds"
                    ))?;
                    ran_cold.push(e.clone());
                    e
                }
            };
            out.push(Planned { kind, entry });
        }
    }
    Ok(out)
}

/// Job threads: the cores left beside the load generator.
fn job_threads(threads: usize) -> usize {
    threads.saturating_sub(1).max(1)
}

fn config(dir: &Path, threads: usize) -> ServeConfig {
    let mut c = ServeConfig::new(dir);
    c.threads = threads;
    c
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Runs `entries` one at a time on `server` (already scheduling) and
/// returns each job's id.
fn run_serially(server: &Server, entries: &[Entry]) -> Result<Vec<u64>, String> {
    let mut ids = Vec::new();
    for e in entries {
        let id = server.submit(&e.profile(&e.key).to_text())?[0];
        let state = server.wait(id, &mut |_| true)?;
        if state != JobState::Done {
            return Err(format!("{}: job {id} ended {state}", e.key));
        }
        ids.push(id);
    }
    Ok(ids)
}

fn spawn_scheduler(server: &Arc<Server>) -> JoinHandle<()> {
    let server = Arc::clone(server);
    std::thread::spawn(move || server.scheduler_loop())
}

/// Seeds `dir` with the earlier fleet's records and segments.
fn seed_state(dir: &Path, threads: usize) -> Result<(), String> {
    let server = Arc::new(Server::new(config(dir, threads))?);
    let scheduler = spawn_scheduler(&server);
    let result = run_serially(&server, &warm_pool());
    server.request_shutdown();
    scheduler.join().map_err(|_| "scheduler panicked")?;
    result.map(drop)
}

/// A client connection speaking the wire protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> Result<Self, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Self { reader, writer })
    }

    fn send(&mut self, text: &str) -> Result<(), String> {
        self.writer
            .write_all(text.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Reads a counted `OK <tail> <n>` block; `Err` carries an `ERR`.
    fn block(&mut self) -> Result<Result<String, String>, String> {
        let head = self.line()?;
        if head.starts_with("ERR") {
            return Ok(Err(head));
        }
        let n: usize = head
            .rsplit(' ')
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or(format!("bad block head `{head}`"))?;
        let mut body = String::new();
        for _ in 0..n {
            body.push_str(&self.line()?);
            body.push('\n');
        }
        Ok(Ok(body))
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone, Copy)]
struct Seen {
    plan: usize,
    id: u64,
    sample: OpenLoopSample,
    accepted: f64,
    done_ok: bool,
}

/// A running daemon: server, scheduler and connection threads.
struct Daemon {
    server: Arc<Server>,
    listener: TcpListener,
    dir: PathBuf,
}

/// Opens a daemon on `dir`: `Server::new` plus the listener bind — the
/// fleet workload's set-up. Returns the daemon and the seconds it took.
fn open(dir: &Path, threads: usize) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let server = Arc::new(Server::new(config(dir, threads))?);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    let daemon = Daemon {
        server,
        listener,
        dir: dir.to_path_buf(),
    };
    Ok((daemon, secs))
}

/// A daemon on a fresh copy of the seeded state, for one pass to run on.
fn start(pristine: &Path, dir: PathBuf, threads: usize) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(pristine, &dir).map_err(|e| format!("cannot copy state: {e}"))?;
    open(&dir, threads).map(|(daemon, _)| daemon)
}

/// The outcome of one open-loop pass.
struct Pass {
    seen: Vec<Seen>,
    submit_ms: Vec<f64>,
    front_ms: Vec<f64>,
    drain_s: f64,
    stats: String,
    registry_counts: (u64, u64),
    events: Vec<hi_trace::LanedEvent>,
    layers: layers::Layers,
    wall_s: f64,
}

/// Set-up timing done in the generator's idle time: the seeded state
/// directory to open and the seconds each opening took.
struct SetupClock<'a> {
    pristine: &'a Path,
    threads: usize,
    times: &'a mut Vec<f64>,
}

/// Idle time the generator needs before the next `SUBMIT` is due to time
/// one set-up in it (a set-up takes about a millisecond).
const SETUP_SLACK_S: f64 = 0.05;

fn open_loop_pass(
    daemon: Daemon,
    jobs: &[Planned],
    refs: &RefTable,
    traced: bool,
    mut setup: Option<SetupClock>,
    report: &mut Report,
) -> Result<Pass, String> {
    let Daemon {
        server,
        listener,
        dir,
    } = daemon;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let scheduler = spawn_scheduler(&server);
    let acceptor = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let mut handles = Vec::new();
            for _ in 0..2 {
                let Ok((stream, _)) = listener.accept() else {
                    break;
                };
                // Without this, Nagle's algorithm holds each WAIT's
                // progress frames until the client's delayed ACK (about
                // 40 ms per job on loopback), which would swamp the
                // daemon's own work in every latency figure.
                let _ = stream.set_nodelay(true);
                let server = Arc::clone(&server);
                handles.push(std::thread::spawn(move || {
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    let mut reader = BufReader::new(read_half);
                    let mut writer = stream;
                    let _ = serve_connection(&server, &mut reader, &mut writer);
                }));
            }
            handles.into_iter().all(|h| h.join().is_ok())
        })
    };
    let mut submit_conn = Conn::connect(addr)?;
    let wait_conn = Conn::connect(addr)?;
    let collector = if traced {
        Collector::enabled()
    } else {
        Collector::disabled()
    };
    let (tx, rx) = mpsc::channel::<(usize, u64, OpenLoopSample, f64)>();
    let t0 = Instant::now();
    let waiter = {
        let collector = collector.clone();
        std::thread::spawn(move || {
            let _lane = collector.install(0, 1);
            let mut conn = wait_conn;
            let mut seen = Vec::new();
            let mut front_ms = Vec::new();
            let mut errors = Vec::new();
            for (plan, id, mut sample, accepted) in rx {
                let state = {
                    let _span = hi_trace::span("bench.wait");
                    wait_for(&mut conn, id)
                };
                sample.done = t0.elapsed().as_secs_f64();
                let done_ok = match state {
                    Ok(s) if s == "done" => true,
                    Ok(s) => {
                        errors.push(format!("job {id} ended {s}"));
                        false
                    }
                    Err(e) => {
                        errors.push(format!("WAIT {id}: {e}"));
                        false
                    }
                };
                seen.push(Seen {
                    plan,
                    id,
                    sample,
                    accepted,
                    done_ok,
                });
                if seen.len() % FRONT_EVERY == 0 {
                    let t = Instant::now();
                    let _span = hi_trace::span("bench.front");
                    let front = conn
                        .send(&format!("FRONT {id}\n"))
                        .and_then(|()| conn.block());
                    front_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    match front {
                        Ok(Ok(body)) if body.lines().any(|l| l.starts_with("point ")) => {}
                        Ok(Ok(body)) => errors.push(format!("FRONT {id}: no point rows: {body}")),
                        Ok(Err(e)) | Err(e) => errors.push(format!("FRONT {id}: {e}")),
                    }
                }
            }
            (conn, seen, front_ms, errors)
        })
    };

    // The open-loop generator: each SUBMIT goes out when it is due,
    // whether or not earlier jobs are done.
    let main_lane = collector.install(0, 0);
    let mut submit_ms = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let due = i as f64 / RATE;
        let now = t0.elapsed().as_secs_f64();
        if due > now {
            std::thread::sleep(Duration::from_secs_f64(due - now));
        }
        let sent = t0.elapsed().as_secs_f64();
        let text = job.entry.profile(&job_id(i, &job.entry)).to_text();
        let reply = {
            let _span = hi_trace::span("bench.submit");
            submit_conn
                .send(&format!("SUBMIT {}\n{text}", text.lines().count()))
                .and_then(|()| submit_conn.line())
        };
        let accepted = t0.elapsed().as_secs_f64();
        report.attempted += 1;
        match reply.as_deref().map(|r| r.strip_prefix("OK job ")) {
            Ok(Some(id)) => {
                let id: u64 = id.parse().map_err(|_| format!("bad job id `{id}`"))?;
                submit_ms.push((accepted - sent) * 1e3);
                let sample = OpenLoopSample {
                    due,
                    sent,
                    done: 0.0,
                };
                tx.send((i, id, sample, accepted))
                    .map_err(|e| e.to_string())?;
            }
            Ok(None) => report.fail(format!("SUBMIT {i}: {}", reply.unwrap_or_default())),
            Err(e) => report.fail(format!("SUBMIT {i}: {e}")),
        }
        if let Some(clock) = setup.as_mut() {
            let next_due = (i + 1) as f64 / RATE;
            if next_due - t0.elapsed().as_secs_f64() > SETUP_SLACK_S {
                clock.times.push(open(clock.pristine, clock.threads)?.1);
            }
        }
    }
    drop(tx);
    let (mut wait_conn, seen, front_ms, errors) = waiter.join().map_err(|_| "waiter panicked")?;
    drop(main_lane);
    let wall_s = t0.elapsed().as_secs_f64();
    report.attempted += front_ms.len() as u64;
    for e in errors {
        report.fail(e);
    }

    // Untimed: every RESULT against its reference, then STATS.
    for s in &seen {
        let job = &jobs[s.plan];
        if !s.done_ok {
            continue;
        }
        wait_conn.send(&format!("RESULT {}\n", s.id))?;
        match wait_conn.block()? {
            Ok(block) => {
                if let Err(e) = check_result(s.plan, job, &block, refs.entries.get(&job.entry.key))
                {
                    report.fail(e);
                }
            }
            Err(e) => report.fail(format!("RESULT {}: {e}", s.id)),
        }
    }
    wait_conn.send("STATS\n")?;
    let stats = wait_conn.block()?.map_err(|e| format!("STATS: {e}"))?;
    drop(wait_conn);

    // SHUTDOWN drains the scheduler and flushes every stream.
    let t = Instant::now();
    submit_conn.send("SHUTDOWN\n")?;
    let _ = submit_conn.line()?;
    scheduler.join().map_err(|_| "scheduler panicked")?;
    let drain_s = t.elapsed().as_secs_f64();
    drop(submit_conn);
    if !acceptor.join().unwrap_or(false) {
        return Err("a connection thread panicked".into());
    }
    let registry = server.registry();
    let registry_counts = (
        registry.counter_value(wk::SERVE_FLEET_HITS),
        registry.counter_value(wk::SERVE_FLEET_MISSES),
    );
    let l = layers::from_registry(registry, wall_s);
    let events = collector.drain_events();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Pass {
        seen,
        submit_ms,
        front_ms,
        drain_s,
        stats,
        registry_counts,
        events,
        layers: l,
        wall_s,
    })
}

fn job_id(i: usize, entry: &Entry) -> String {
    format!("j{i}.{}", entry.key)
}

/// Sends `WAIT id` and returns the terminal state word.
fn wait_for(conn: &mut Conn, id: u64) -> Result<String, String> {
    conn.send(&format!("WAIT {id}\n"))?;
    loop {
        let line = conn.line()?;
        if line.starts_with("EVENT ") {
            continue;
        }
        let prefix = format!("OK status {id} ");
        return line.strip_prefix(&prefix).map(str::to_string).ok_or(line);
    }
}

/// The result block a job must return: its reference block under the
/// job's own id, with `simulations` 0 unless the job is cold.
fn expected_block(i: usize, job: &Planned, reference: &RefEntry) -> String {
    reference
        .block
        .lines()
        .map(|line| {
            if line.starts_with("profile ") {
                format!("profile {}\n", job_id(i, &job.entry))
            } else if line.starts_with("simulations ") && !job.kind.is_cold() {
                "simulations 0\n".to_string()
            } else {
                format!("{line}\n")
            }
        })
        .collect()
}

fn check_result(
    i: usize,
    job: &Planned,
    got: &str,
    reference: Option<&RefEntry>,
) -> Result<(), String> {
    let reference = reference.ok_or(format!("{}: no reference", job.entry.key))?;
    let want = expected_block(i, job, reference);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "job {i} ({:?} {}): result differs from reference\n--- got\n{got}--- want\n{want}",
            job.kind, job.entry.key
        ))
    }
}

/// Fleet hits and misses the references predict for `jobs`.
fn expected_counts(jobs: &[Planned], refs: &RefTable) -> (u64, u64) {
    let (mut hits, mut misses) = (0, 0);
    for job in jobs {
        let Some(r) = refs.entries.get(&job.entry.key) else {
            continue;
        };
        let (h, m) = (r.u64("hits").unwrap_or(0), r.u64("sims").unwrap_or(0));
        if job.kind.is_cold() {
            hits += h;
            misses += m;
        } else {
            hits += h + m;
        }
    }
    (hits, misses)
}

fn stats_value(stats: &str, name: &str) -> f64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Runs the fleet workload and reports its metrics.
pub fn run(args: &Args, refs: &RefTable, report: &mut Report) -> Result<(), String> {
    // The generator and its two connections need a core beside the jobs.
    if crate::nproc() < 2 {
        return Err("fleet_serve needs at least 2 cores (job threads plus the generator)".into());
    }
    let threads = job_threads(args.threads);
    let root = Path::new(OUT_DIR).join(format!("fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let pristine = root.join("seeded");
    seed_state(&pristine, threads)?;
    let result = measure(args, refs, report, &root, &pristine, threads);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn measure(
    args: &Args,
    refs: &RefTable,
    report: &mut Report,
    root: &Path,
    pristine: &Path,
    threads: usize,
) -> Result<(), String> {
    let pass_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Whole blocks only, so every seed runs the same mix of kinds.
    let blocks = (pass_secs * RATE / BLOCK.len() as f64).floor() as usize;
    let jobs = (blocks * BLOCK.len()).max(stats::TAIL_BEYOND + 1);
    let jobs = plan(args.seed, jobs)?;
    let count = |k: JobKind| jobs.iter().filter(|j| j.kind == k).count();
    report.stamp(
        "load",
        format!(
            "open loop, {RATE} jobs/s, {} jobs ({} light, {} heavy, {} hit, {} warm), 2 connections",
            jobs.len(),
            count(JobKind::Light),
            count(JobKind::Heavy),
            count(JobKind::Hit),
            count(JobKind::Warm)
        ),
    );
    report.stamp(
        "protocol",
        format!("algorithm1, tsim 2 s x {RUNS} runs, floors 0.75/0.80/0.85"),
    );
    report.stamp("job_threads", threads.to_string());

    // Set-up reads the seeded state without changing it, so it is timed
    // on the pristine directory itself, in a batch now and then once in
    // each idle gap of the untraced pass; each pass runs on a copy.
    let mut setup_times = Vec::new();
    for _ in 0..SETUP_BATCH {
        setup_times.push(open(pristine, threads)?.1);
    }
    let daemon = start(pristine, root.join("untraced"), threads)?;
    let clock = SetupClock {
        pristine,
        threads,
        times: &mut setup_times,
    };
    let untraced = open_loop_pass(daemon, &jobs, refs, false, Some(clock), report)?;
    let want = expected_counts(&jobs, refs);
    check_counts(report, "untraced", untraced.registry_counts, want);
    let (latencies, lag_max) = latency_of(&untraced);
    let by_kind: Vec<String> = [
        ("light", JobKind::Light),
        ("heavy", JobKind::Heavy),
        ("hit", JobKind::Hit),
        ("warm", JobKind::Warm),
    ]
    .iter()
    .map(|&(name, kind)| {
        let of_kind: Vec<f64> = untraced
            .seen
            .iter()
            .zip(&latencies)
            .filter(|(s, _)| jobs[s.plan].kind == kind)
            .map(|(_, &l)| l)
            .collect();
        format!("{name} {:.3}", stats::median(&of_kind))
    })
    .collect();
    report.stamp("kind_p50_ms", by_kind.join(", "));
    let sims: u64 = jobs
        .iter()
        .filter(|j| j.kind.is_cold())
        .filter_map(|j| refs.entries.get(&j.entry.key)?.u64("sims"))
        .sum();
    report.end_to_end(
        stats::median(&setup_times),
        &latencies,
        sims as f64 / jobs.len() as f64,
    );
    if !args.trace {
        return Ok(());
    }

    let daemon = start(pristine, root.join("traced"), threads)?;
    let traced = open_loop_pass(daemon, &jobs, refs, true, None, report)?;
    check_counts(report, "traced", traced.registry_counts, want);
    // The daemon's collector is metrics-only: its layers come from its
    // registry, and the span file holds the client's own spans.
    let mut l = traced.layers.clone();
    let split = |p: &Pass| {
        let fifo: Vec<FifoJob> = p
            .seen
            .iter()
            .map(|s| FifoJob {
                accepted: s.accepted,
                done: s.sample.done,
            })
            .collect();
        stats::fifo_split(&fifo)
    };
    let (waits, services): (Vec<f64>, Vec<f64>) = split(&traced).into_iter().unzip();
    let busy = |p: &Pass| split(p).iter().map(|(_, s)| s).sum::<f64>();
    let ms = |v: &[f64]| v.iter().map(|x| x * 1e3).collect::<Vec<_>>();
    let (hits, misses) = traced.registry_counts;
    l.insert("serve.submit_p50_ms", stats::median(&traced.submit_ms));
    l.insert("serve.service_p50_ms", stats::median(&ms(&services)));
    // Under this load most jobs find the scheduler idle, so the median
    // wait is 0; the mean shows the queueing that does happen.
    l.insert("serve.queue_wait_mean_ms", mean(&ms(&waits)));
    l.insert("serve.fleet_hits", hits as f64);
    l.insert("serve.fleet_misses", misses as f64);
    let hit_ratio = layers::ratio(hits as f64, (hits + misses) as f64);
    l.insert("serve.fleet_hit_ratio", hit_ratio);
    // The fleet cache is the core evaluation cache of every job.
    l.insert("core.cache_hit_ratio", hit_ratio);
    l.insert(
        "serve.cache.loaded",
        stats_value(&traced.stats, wk::SERVE_CACHE_LOADED),
    );
    l.insert(
        "serve.cache.persisted",
        stats_value(&traced.stats, wk::SERVE_CACHE_PERSISTED),
    );
    l.insert(
        "serve.cache.compactions",
        stats_value(&traced.stats, wk::SERVE_CACHE_COMPACTIONS),
    );
    l.insert("serve.drain_s", traced.drain_s);
    l.insert(
        "serve.pareto.inserts",
        stats_value(&traced.stats, wk::SERVE_PARETO_INSERTS),
    );
    l.insert(
        "serve.pareto.dominated",
        stats_value(&traced.stats, wk::SERVE_PARETO_DOMINATED),
    );
    l.insert("pareto.front_p50_ms", stats::median(&traced.front_ms));
    l.insert("loadgen.lag_max_ms", latency_of(&traced).1);
    l.insert(
        "trace.overhead",
        layers::ratio(busy(&traced), busy(&untraced)) - 1.0,
    );
    report.stamp("traced_wall_s", format!("{:.3}", traced.wall_s));
    report.stamp("untraced_lag_max_ms", format!("{lag_max:.3}"));
    report.trace_file(&args.workload, args.seed, &traced.events);
    report.per_layer(l);
    Ok(())
}

fn mean(v: &[f64]) -> f64 {
    layers::ratio(v.iter().sum(), v.len() as f64)
}

fn latency_of(pass: &Pass) -> (Vec<f64>, f64) {
    let samples: Vec<OpenLoopSample> = pass.seen.iter().map(|s| s.sample).collect();
    let (latencies, lag) = stats::open_loop(&samples);
    (latencies.iter().map(|s| s * 1e3).collect(), lag * 1e3)
}

fn check_counts(report: &mut Report, pass: &str, got: (u64, u64), want: (u64, u64)) {
    if got != want {
        report.defect(format!(
            "{pass} pass: fleet hits/misses {got:?}, references predict {want:?} \
             (deterministic count drifted)"
        ));
    }
}

/// Runs every pool profile cold, one at a time on a fresh daemon, and
/// returns the reference table: result block, simulations and the
/// fleet-cache hits each job made.
pub fn record() -> Result<RefTable, String> {
    let dir = Path::new(OUT_DIR).join(format!("fleet-record-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Arc::new(Server::new(config(&dir, job_threads(crate::nproc())))?);
    let scheduler = spawn_scheduler(&server);
    let mut table = RefTable::default();
    let mut result = Ok(());
    for e in warm_pool().into_iter().chain(cold_pool()) {
        let registry = server.registry();
        let before = (
            registry.counter_value(wk::SERVE_FLEET_HITS),
            registry.counter_value(wk::SERVE_FLEET_MISSES),
        );
        let id = match run_serially(&server, std::slice::from_ref(&e)) {
            Ok(ids) => ids[0],
            Err(err) => {
                result = Err(err);
                break;
            }
        };
        let hits = registry.counter_value(wk::SERVE_FLEET_HITS) - before.0;
        let misses = registry.counter_value(wk::SERVE_FLEET_MISSES) - before.1;
        let block = server.result(id)?;
        let sims = block
            .lines()
            .find_map(|l| l.strip_prefix("simulations ")?.parse::<u64>().ok())
            .ok_or(format!("{}: result has no simulations line", e.key))?;
        if sims != misses {
            result = Err(format!("{}: {sims} simulations but {misses} misses", e.key));
            break;
        }
        let mut entry = RefEntry::default();
        entry.fields.insert("sims".into(), sims.to_string());
        entry.fields.insert("hits".into(), hits.to_string());
        entry.block = block;
        eprintln!("recorded {} ({sims} simulations)", e.key);
        table.entries.insert(e.key, entry);
    }
    server.request_shutdown();
    scheduler.join().map_err(|_| "scheduler panicked")?;
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_mixes_kinds_evenly_and_starts_cold() {
        let jobs = plan(7, 96).unwrap();
        assert_eq!(jobs.len(), 96);
        assert!(jobs[0].kind.is_cold());
        for (kind, n) in [
            (JobKind::Light, 48),
            (JobKind::Heavy, 24),
            (JobKind::Hit, 12),
            (JobKind::Warm, 12),
        ] {
            assert_eq!(jobs.iter().filter(|j| j.kind == kind).count(), n);
        }
        // Every hit repeats a cold job that came before it; cold jobs
        // never repeat.
        let mut cold = std::collections::BTreeSet::new();
        for j in &jobs {
            match j.kind {
                JobKind::Light | JobKind::Heavy => {
                    assert!(cold.insert(j.entry.key.clone()));
                    assert_eq!(j.kind == JobKind::Heavy, j.entry.variant >= LIGHT);
                }
                JobKind::Hit => assert!(cold.contains(&j.entry.key)),
                JobKind::Warm => assert!(j.entry.key.starts_with('w')),
            }
        }
        // Cold jobs use every physics variant of their class equally often.
        for v in 0..VARIANTS.len() {
            let n = jobs
                .iter()
                .filter(|j| j.kind.is_cold() && j.entry.variant == v)
                .count();
            let want = if v < LIGHT { 16 } else { 8 };
            assert_eq!(n, want, "variant {v}: {n} cold jobs");
        }
        assert_eq!(plan(7, 96).unwrap()[5].entry, jobs[5].entry, "seeded");
    }

    #[test]
    fn expected_block_renames_and_zeroes_non_cold_simulations() {
        let r = RefEntry {
            block: "profile c0-100\nengine algorithm1\nsimulations 48\n".into(),
            ..RefEntry::default()
        };
        let entry = cold_pool()[0].clone();
        let cold = Planned {
            kind: JobKind::Light,
            entry: entry.clone(),
        };
        let hit = Planned {
            kind: JobKind::Hit,
            entry,
        };
        assert_eq!(
            expected_block(3, &cold, &r),
            "profile j3.c0-100\nengine algorithm1\nsimulations 48\n"
        );
        assert_eq!(
            expected_block(4, &hit, &r),
            "profile j4.c0-100\nengine algorithm1\nsimulations 0\n"
        );
    }
}
