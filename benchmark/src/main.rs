//! The InterTubes benchmark: one command, four workloads, a correctness
//! check on every output, the end-to-end metrics from an untraced run and
//! the per-layer metrics from a traced one. See README.md in this
//! directory for the workloads, the metrics and how to run one.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload replay_mixed --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod metrics;
mod rebuild;
mod remote;
mod replay;
mod scenario;
mod stats;
mod trace;
mod traffic;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use intertubes::parallel::thread_count;
use intertubes::serve::QueryEngine;
use intertubes::StudyConfig;

use crate::metrics::Metric;
use crate::rebuild::{Built, ComposedCounts};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where traced runs write their span files, relative to the working
/// directory.
const SPAN_DIR: &str = ".bench_out";

const USAGE: &str = "usage: intertubes-benchmark --workload <study_rebuild|replay_mixed|remote_closed|scenario_ensemble> --seed <n> --seconds <n> --trace <0|1>";

/// One repetition of a workload: its operations per second, the latency
/// of each of its operations, and the share of the machine's CPU time the
/// hypervisor stole while it ran.
#[derive(Debug)]
pub struct PassRecord {
    pub rate: f64,
    pub latencies_us: Vec<f64>,
    pub steal: Option<f64>,
}

/// What one phase measured, and how many checked operations failed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub passes: Vec<PassRecord>,
    pass_ticks: Option<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Marks the start of a pass.
    pub fn begin_pass(&mut self) {
        self.pass_ticks = cpu_ticks();
    }

    /// Records one pass: its operations per second and the latency of each
    /// of its operations.
    pub fn record_pass(&mut self, rate: f64, latencies_us: &[f64]) {
        let steal = match (self.pass_ticks.take(), cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) => {
                Some(s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64)
            }
            _ => None,
        };
        self.passes.push(PassRecord {
            rate,
            latencies_us: latencies_us.to_vec(),
            steal,
        });
    }

    /// The median pass's operations per second.
    pub fn median_rate(&self) -> Option<f64> {
        stats::median(&self.passes.iter().map(|p| p.rate).collect::<Vec<_>>())
    }

    /// The median latency over every operation of every pass.
    pub fn median_latency_us(&self) -> Option<f64> {
        let all: Vec<f64> = self
            .passes
            .iter()
            .flat_map(|p| p.latencies_us.iter().copied())
            .collect();
        stats::median(&all)
    }

    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    StudyRebuild,
    ReplayMixed,
    RemoteClosed,
    ScenarioEnsemble,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::StudyRebuild,
        Workload::ReplayMixed,
        Workload::RemoteClosed,
        Workload::ScenarioEnsemble,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::StudyRebuild => "study_rebuild",
            Workload::ReplayMixed => "replay_mixed",
            Workload::RemoteClosed => "remote_closed",
            Workload::ScenarioEnsemble => "scenario_ensemble",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The thread count is set once, before any thread starts, and stays
    // for the whole process.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("INTERTUBES_THREADS", cores.to_string());
    std::env::set_var("RAYON_NUM_THREADS", cores.to_string());
    match run(&args, cores) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    }
}

/// The host record printed with every result.
fn host(args: &Args, cores: usize) -> serde_json::Value {
    serde_json::json!({
        "cores": cores,
        "threads": thread_count(),
        "rustc": env!("BENCH_RUSTC_VERSION"),
        "commit": commit(),
        "seed": args.seed,
        "seconds": args.seconds,
    })
}

/// The checked-out commit, when the working directory is a git checkout.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The machine's (steal, total) CPU ticks from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set size of this process in MiB (VmHWM).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Everything the set-up produced.
struct Ready {
    config: StudyConfig,
    engine: QueryEngine,
    digest: u64,
    bytes: usize,
    setup_s: Vec<f64>,
}

/// Seed to ready engine, `SETUPS` times: one full rebuild each, plus the
/// listening front-end on `remote_closed`.
fn setup(workload: Workload, seed: u64, checks: &mut Outcome) -> Result<Ready, String> {
    let config = rebuild::study_config(seed);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut last: Option<Vec<u8>> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let built = rebuild::rebuild(&config)?;
        let bytes = if workload == Workload::RemoteClosed {
            let server = remote::spawn_server(built.engine)?;
            setup_s.push(t.elapsed().as_secs_f64());
            server
                .stop()
                .map_err(|e| format!("front-end stop failed: {e}"))?;
            built.bytes
        } else {
            setup_s.push(t.elapsed().as_secs_f64());
            built.bytes
        };
        checks.attempted += 1;
        if last.as_ref().is_some_and(|prev| prev != &bytes) {
            checks.failed += 1;
            checks
                .notes
                .push("set-up rebuilds froze different snapshots".into());
        }
        last = Some(bytes);
    }
    let built = rebuild::load(last.ok_or("no set-up ran")?)?;
    checks.attempted += 1;
    if !rebuild::reencode_matches(&built) {
        checks.failed += 1;
        checks
            .notes
            .push("decode → re-encode changed the snapshot bytes".into());
    }
    Ok(Ready {
        config,
        digest: built.digest(),
        bytes: built.bytes.len(),
        engine: built.engine,
        setup_s,
    })
}

/// Rebuilds until `budget` has elapsed (at least one). Traced rebuilds are
/// composed call by call; every rebuild must freeze the set-up's bytes.
fn rebuild_phase(
    ready: &Ready,
    budget: Duration,
    tracer: Option<&Tracer>,
    counts: &mut Vec<ComposedCounts>,
) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let start = Instant::now();
    while outcome.attempted == 0 || start.elapsed() < budget {
        outcome.begin_pass();
        let t = Instant::now();
        let built: Built = match tracer {
            Some(tr) => {
                let (built, c) = rebuild::rebuild_composed(&ready.config, tr, None)?;
                counts.push(c);
                built
            }
            None => rebuild::rebuild(&ready.config)?,
        };
        let secs = t.elapsed().as_secs_f64();
        outcome.attempted += 1;
        if built.digest() != ready.digest || !rebuild::reencode_matches(&built) {
            outcome.failed += 1;
            outcome.notes.push(format!(
                "rebuild digest {:016x} != set-up digest {:016x}, or re-encode differs",
                built.digest(),
                ready.digest
            ));
        }
        outcome.record_pass(1.0 / secs, &[secs * 1e6]);
    }
    Ok(outcome)
}

/// Inputs and kept results of every phase of one run.
struct Run<'a> {
    args: &'a Args,
    ready: &'a Ready,
    clients: usize,
    traffic: Option<replay::Traffic>,
    golden_exposed: Vec<usize>,
    rebuild_counts: Vec<ComposedCounts>,
    replay_passes: Vec<replay::Pass>,
    remote_passes: Vec<remote::Pass>,
    rounds: Vec<scenario::Round>,
}

impl Run<'_> {
    fn traffic(&self) -> Result<&replay::Traffic, String> {
        self.traffic
            .as_ref()
            .ok_or_else(|| "traffic was not generated".into())
    }

    fn phase(
        &mut self,
        workload: Workload,
        budget: Duration,
        tracer: Option<&Tracer>,
    ) -> Result<Outcome, String> {
        match workload {
            Workload::StudyRebuild => {
                rebuild_phase(self.ready, budget, tracer, &mut self.rebuild_counts)
            }
            Workload::ReplayMixed => {
                let traffic = self.traffic.as_ref().ok_or("traffic was not generated")?;
                Ok(replay::run(
                    &self.ready.engine,
                    traffic,
                    budget,
                    tracer,
                    &mut self.replay_passes,
                ))
            }
            Workload::RemoteClosed => {
                let traffic = self.traffic.as_ref().ok_or("traffic was not generated")?;
                remote::run(
                    self.ready.engine.snapshot(),
                    traffic,
                    self.clients,
                    budget,
                    tracer,
                    &mut self.remote_passes,
                )
            }
            Workload::ScenarioEnsemble => Ok(scenario::run(
                &self.ready.engine,
                self.args.seed,
                &self.golden_exposed,
                budget,
                tracer,
                &mut self.rounds,
            )),
        }
    }
}

fn run(args: &Args, cores: usize) -> Result<bool, String> {
    let started = Instant::now();
    let mut checks = Outcome::default();
    let ready = setup(args.workload, args.seed, &mut checks)?;
    let uses = |w: Workload| args.trace || args.workload == w;

    // References, computed outside every timed region and before any
    // benchmark thread starts.
    let traffic = if uses(Workload::ReplayMixed) || uses(Workload::RemoteClosed) {
        let t = replay::traffic(&ready.engine, args.seed);
        checks.attempted += 1;
        if t.reference.iter().any(|r| replay::is_refusal(r)) {
            checks.failed += 1;
            checks
                .notes
                .push("the reference replay refused a query".into());
        }
        Some(t)
    } else {
        None
    };
    let golden_exposed = if uses(Workload::ScenarioEnsemble) {
        checks.attempted += 1;
        match scenario::golden_check(&ready.engine, Path::new(".")) {
            Ok(exposed) => exposed,
            Err(e) => {
                checks.failed += 1;
                checks.notes.push(format!("scenario golden check: {e}"));
                Vec::new()
            }
        }
    } else {
        Vec::new()
    };

    let mut run = Run {
        args,
        ready: &ready,
        clients: thread_count(),
        traffic,
        golden_exposed,
        rebuild_counts: Vec::new(),
        replay_passes: Vec::new(),
        remote_passes: Vec::new(),
        rounds: Vec::new(),
    };
    let budget = Duration::from_secs(args.seconds);
    let mut details = serde_json::Map::new();
    let mut metrics_out: BTreeMap<String, f64> = BTreeMap::new();

    let main = if args.trace {
        // Half the run untraced, half traced: the ratio of the two rates is
        // the trace's own overhead.
        let untraced = run.phase(args.workload, budget / 2, None)?;
        let tracer = Tracer::default();
        let traced = run.phase(args.workload, budget / 2, Some(&tracer))?;
        let rate = |o: &Outcome| o.median_rate().unwrap_or(f64::NAN);
        let overhead = rate(&untraced) / rate(&traced) - 1.0;
        let mut main = untraced;
        main.absorb(traced);
        // One traced pass of every other phase, so each layer is measured.
        for other in Workload::ALL.into_iter().filter(|&w| w != args.workload) {
            let o = run.phase(other, Duration::ZERO, Some(&tracer))?;
            main.absorb(o);
        }
        let layers = metrics::per_layer(&run, &tracer)?;
        metrics_out.extend(layers.values);
        metrics_out.insert("trace.overhead_frac".into(), overhead);
        main.notes.extend(layers.notes);

        if args.workload == Workload::StudyRebuild {
            let (rows, composed, study) = rebuild::obs_crosscheck(&ready.config)?;
            main.attempted += 1;
            if composed != study || composed != ready.digest {
                main.failed += 1;
                main.notes.push(format!(
                    "composed rebuild {composed:016x} != Study::snapshot {study:016x}"
                ));
            }
            eprintln!("obs stage vs outside call (agree within 5 % or 2 ms):");
            for r in &rows {
                let obs = r
                    .obs_ms
                    .map_or("missing".to_string(), |ms| format!("{ms:.3} ms"));
                let verdict = if r.agrees() { "agrees" } else { "DISAGREES" };
                eprintln!(
                    "  {:<42} {obs:>14}   {:<20} {:>10.3} ms   {verdict}",
                    r.stage, r.outside, r.outside_ms
                );
            }
            details.insert("obs_crosscheck".into(), metrics::crosscheck_json(&rows));
        }
        let path = Path::new(SPAN_DIR).join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        trace::write_spans(&path, &tracer.spans())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        details.insert(
            "span_file".into(),
            serde_json::json!(path.display().to_string()),
        );
        main
    } else {
        run.phase(args.workload, budget, None)?
    };

    if args.workload == Workload::ScenarioEnsemble {
        if let Some(first) = run.rounds.first() {
            let notes = scenario::serial_check(&ready.engine, args.seed, first);
            checks.attempted += 1;
            checks.failed += u64::from(!notes.is_empty());
            checks.notes.extend(notes);
        }
    }

    let per_pass = |f: &dyn Fn(&PassRecord) -> serde_json::Value| {
        serde_json::Value::Array(main.passes.iter().take(64).map(f).collect())
    };
    details.insert(
        "passes".into(),
        serde_json::json!({
            "count": main.passes.len(),
            "operations_per_pass": main.passes.first().map_or(0, |p| p.latencies_us.len()),
            "rate": per_pass(&|p| serde_json::json!(p.rate)),
            "steal": per_pass(&|p| serde_json::json!(p.steal)),
        }),
    );
    let rate = main.median_rate().ok_or("no pass was measured")?;
    let p50_us = main.median_latency_us().ok_or("no pass was measured")?;
    let mut result = main;
    result.absorb(checks);
    if args.trace {
        metrics_out.insert(
            "failed_frac".into(),
            result.failed as f64 / result.attempted.max(1) as f64,
        );
    } else {
        metrics_out.insert(
            "setup_s".into(),
            stats::median(&ready.setup_s).ok_or("no set-up timing")?,
        );
        metrics_out.insert("peak_rss_mb".into(), peak_rss_mb()?);
        metrics_out.insert("throughput_per_s".into(), rate);
        metrics_out.insert("latency_p50_us".into(), p50_us);
    }

    details.insert("workload".into(), serde_json::json!(args.workload.name()));
    details.insert("trace".into(), serde_json::json!(args.trace));
    details.insert("host".into(), host(args, cores));
    details.insert("setup_s".into(), serde_json::json!(ready.setup_s));
    details.insert("snapshot_bytes".into(), serde_json::json!(ready.bytes));
    details.insert("failures".into(), serde_json::json!(result.notes));
    details.insert(
        "wall_s".into(),
        serde_json::json!(started.elapsed().as_secs_f64()),
    );
    println!(
        "{}",
        serde_json::to_string(&serde_json::Value::Object(details)).unwrap_or_default()
    );
    for note in &result.notes {
        eprintln!("benchmark: FAILED {note}");
    }

    let correct = result.failed == 0 && result.notes.is_empty();
    let defs: &[Metric] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    println!(
        "{}",
        metrics::result_line(correct, result.attempted, result.failed, defs, &metrics_out)?
    );
    Ok(correct)
}
