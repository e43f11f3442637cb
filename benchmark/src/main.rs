//! `hopbench` — end-to-end `taxd`-pair hop benchmark with a per-layer
//! budget. See `README.md` for the metric tables and how to read them;
//! `run.sh` builds `taxd` and this binary and runs it.
//!
//! ```text
//! hopbench --taxd PATH --scratch DIR --out DIR --spec BENCHMARK.json
//!          [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|both]
//!          [--smoke] [--repeat K]
//! ```

mod drive;
mod json;
mod metrics;
mod pair;
mod replay;
#[cfg(test)]
mod selftest;
mod stats;
mod trace;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use drive::{bring_up, Home, Pacing, RunLog, Snapshot};
use json::{obj, Value};
use metrics::{total_delta, Measured, MetricDef, Window, END_TO_END, PER_LAYER, WATCHED};
use pair::{Pair, RunDir};
use stats::{median, sorted};
use workload::{Agent, Inputs, Workload, WORKLOADS};

/// Rounds the timed run splits its measured seconds over; each round
/// runs against a fresh pair and every end-to-end metric is the median
/// of its per-round values.
const ROUNDS: usize = 5;

/// Which runs a command makes for each workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceMode {
    /// The timed run: end-to-end metrics, tracing off.
    Off,
    /// The traced run: per-layer metrics.
    On,
    /// Both, for a full report.
    Both,
}

#[derive(Debug)]
struct Options {
    taxd: PathBuf,
    scratch: PathBuf,
    out: PathBuf,
    spec: PathBuf,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: TraceMode,
    smoke: bool,
    repeat: usize,
}

fn usage() -> String {
    "usage: hopbench --taxd PATH --scratch DIR --out DIR --spec BENCHMARK.json \
     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1|both] [--smoke] [--repeat K]"
        .to_owned()
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        taxd: PathBuf::new(),
        scratch: PathBuf::new(),
        out: PathBuf::new(),
        spec: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 0.0,
        trace: TraceMode::Off,
        smoke: false,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--taxd" => opts.taxd = value()?.into(),
            "--scratch" => opts.scratch = value()?.into(),
            "--out" => opts.out = value()?.into(),
            "--spec" => opts.spec = value()?.into(),
            "--workload" => {
                let name = value()?;
                opts.workload = Some(
                    workload::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed wants a whole number")?;
            }
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => TraceMode::Off,
                    "1" => TraceMode::On,
                    "both" => TraceMode::Both,
                    other => return Err(format!("--trace wants 0, 1 or both, got {other:?}")),
                };
            }
            "--smoke" => opts.smoke = true,
            "--repeat" => {
                opts.repeat = value()?.parse().map_err(|_| "--repeat wants a count")?;
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    for (flag, path) in [
        ("--taxd", &opts.taxd),
        ("--scratch", &opts.scratch),
        ("--out", &opts.out),
        ("--spec", &opts.spec),
    ] {
        if path.as_os_str().is_empty() {
            return Err(format!("{flag} is required\n{}", usage()));
        }
    }
    if opts.repeat == 0 {
        return Err("--repeat wants at least 1".to_owned());
    }
    Ok(opts)
}

/// One workload's outcome, in the shape of the contract's result line.
#[derive(Debug, Default)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Measured,
    warnings: Vec<String>,
}

impl Outcome {
    /// Folds one pair's tour bookkeeping and counter warnings in.
    fn account(&mut self, workload: &Workload, log: &RunLog) {
        let reports = workload.agent == Agent::Report;
        self.attempted += log.tours.len() as u64;
        self.failed += log.tours.iter().filter(|t| !t.ok(reports)).count() as u64;
        if log.strays > 0 {
            self.warnings
                .push(format!("{} frames at home matched no tour", log.strays));
        }
        for key in WATCHED {
            let moved = total_delta(&log.settled, &Snapshot::default(), key);
            if moved != 0 {
                self.warnings
                    .push(format!("{key} moved by {moved} during the run"));
            }
        }
    }
}

struct Bench {
    opts: Options,
    pacing: Pacing,
    min_replayed: usize,
}

impl Bench {
    /// One round: inputs generated, a fresh pair brought up (that much
    /// is `setup_s`), then warm-up, measured window, and drain. Returns
    /// the log, the inputs, and the pair, still to be reaped.
    fn round(
        &self,
        home: &Home,
        workload: &Workload,
        seed: u64,
        dir: &Path,
        pacing: Pacing,
        epoch: Instant,
    ) -> Result<(RunLog, Inputs, Pair), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut inputs = Inputs::generate(workload, seed)?;
        let live = bring_up(&self.opts.taxd, dir, home, workload, &mut inputs, epoch)?;
        let (log, pair) = live.run(home, workload, &mut inputs, pacing)?;
        Ok((log, inputs, pair))
    }

    /// The timed run: tracing off, end-to-end metrics. The measured
    /// seconds are split over [`ROUNDS`] rounds, each against a fresh
    /// pair, and every metric is the median of its per-round values: a
    /// daemon's cost per hop grows with its history and one slow spell
    /// of the machine skews a single long window, so several short
    /// windows and a median are what keep two runs of one commit alike.
    fn timed(&self, workload: &Workload, seed: u64, outcome: &mut Outcome) -> Result<(), String> {
        let dir = RunDir::create(&self.opts.scratch, workload.name)
            .map_err(|e| format!("{}: {e}", self.opts.scratch.display()))?;
        let home = Home::bind()?;
        let pacing = Pacing {
            window: self.pacing.window / ROUNDS as u32,
            ..self.pacing
        };
        let mut rounds: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut tours = 0;
        // The previous round's pair idle-exits while this round runs.
        let mut retiring: Option<(Pair, PathBuf)> = None;
        for round in 0..ROUNDS {
            let pair_dir = dir.0.join(format!("round{round}"));
            let (log, inputs, pair) =
                self.round(&home, workload, seed, &pair_dir, pacing, Instant::now())?;
            if let Some((pair, dir)) = retiring.replace((pair, pair_dir)) {
                pair.finish()?;
                let _ = std::fs::remove_dir_all(dir);
            }
            let window = Window::of(&log, workload);
            for (name, value) in metrics::end_to_end(&log, &window, &inputs) {
                rounds.entry(name).or_default().push(value);
            }
            tours += window.tour_ms.len();
            outcome.account(workload, &log);
        }
        if let Some((pair, _)) = retiring {
            pair.finish()?;
        }
        for (name, values) in rounds {
            // Tours behind the tour metrics; rounds behind the two that
            // are read once per round.
            let n = match name {
                "rss_peak_mb" | "setup_s" => values.len(),
                _ => tours,
            };
            outcome.metrics.insert(name, (median(&values), n));
        }
        Ok(())
    }

    /// The traced run: per-layer metrics from the pair's counters, then
    /// from replaying captured frames through each layer in-process.
    fn traced(&self, workload: &Workload, seed: u64, outcome: &mut Outcome) -> Result<(), String> {
        let dir = RunDir::create(&self.opts.scratch, &format!("{}-trace", workload.name))
            .map_err(|e| format!("{}: {e}", self.opts.scratch.display()))?;
        let mut rec = trace::Recorder::new();
        let home = Home::bind()?;
        let pacing = Pacing {
            trace: true,
            ..self.pacing
        };
        let pair_dir = dir.0.join("pair");
        let (log, _, pair) = self.round(&home, workload, seed, &pair_dir, pacing, rec.epoch())?;
        pair.finish()?;
        drop(home);
        outcome.account(workload, &log);
        let window = Window::of(&log, workload);
        metrics::pair_layers(&log, &window, &mut outcome.metrics);

        // The tours of the traced slices become spans, then the frames
        // home captured in those slices are replayed in-process.
        for tour in log.tours.iter().filter(|t| t.traced) {
            let Some(done) = tour.done_at else { continue };
            let injected = tour.injected_at * 1e6;
            let root = rec.add("harness.tour", injected, done * 1e6, None, &tour.id);
            let acked = injected + tour.inject_ack_us;
            rec.add("harness.inject", injected, acked, Some(root), &tour.id);
            for at in tour.reports.iter().flatten() {
                rec.add("harness.report", at * 1e6, at * 1e6, Some(root), &tour.id);
            }
        }
        replay::replay(&mut rec, &log.captured, workload, &dir.0, self.min_replayed)?;
        let coverage = metrics::replay_layers(&rec.durations(), &window, &mut outcome.metrics);
        if !(0.8..=1.2).contains(&coverage) {
            outcome.warnings.push(format!(
                "trace.coverage {coverage:.2} is outside 0.8-1.2: the stages do not add up to the in-process hop"
            ));
        }
        let spans = rec.spans.len();
        outcome.metrics.insert("trace.spans", (spans as f64, spans));

        let path = self.opts.out.join(format!("trace-{}.json", workload.name));
        rec.write(&path, workload.name, seed, &log)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("hopbench: wrote {}", path.display());
        Ok(())
    }

    /// Runs one workload in the requested modes and prints its metrics.
    fn workload(&self, workload: &Workload, seed: u64) -> Outcome {
        println!("workload {} seed={seed}: {}", workload.name, workload.why);
        let mut outcome = Outcome::default();
        let mut error = None;
        if self.opts.trace != TraceMode::On {
            error = self.timed(workload, seed, &mut outcome).err();
        }
        if self.opts.trace != TraceMode::Off && error.is_none() {
            error = self.traced(workload, seed, &mut outcome).err();
        }
        if let Some(e) = &error {
            eprintln!("hopbench: {} failed: {e}", workload.name);
        }
        for warning in &outcome.warnings {
            println!("warning: {} {warning}", workload.name);
        }
        let expected = self.expected_metrics();
        let complete = expected.iter().all(|(name, _)| {
            outcome
                .metrics
                .get(name)
                .is_some_and(|(value, _)| value.is_finite())
        });
        outcome.correct =
            error.is_none() && complete && outcome.failed == 0 && outcome.attempted > 0;
        for (name, unit) in expected {
            if let Some((value, n)) = outcome.metrics.get(name) {
                println!("{} {name} {value} {unit} n={n}", workload.name);
            }
        }
        outcome
    }

    fn expected_metrics(&self) -> Vec<MetricDef> {
        let mut out = Vec::new();
        if self.opts.trace != TraceMode::On {
            out.extend(END_TO_END);
        }
        if self.opts.trace != TraceMode::Off {
            out.extend(PER_LAYER);
        }
        out
    }

    fn result_value(&self, outcome: &Outcome) -> Value {
        let metrics = self
            .expected_metrics()
            .into_iter()
            .filter_map(|(name, unit)| {
                let (value, _) = outcome.metrics.get(name)?;
                Some((
                    name.to_owned(),
                    obj([
                        ("value", Value::Num(*value)),
                        ("unit", Value::Str(unit.to_owned())),
                    ]),
                ))
            })
            .collect();
        obj([
            ("correct", Value::Bool(outcome.correct)),
            ("attempted", Value::Num(outcome.attempted.max(1) as f64)),
            ("failed", Value::Num(outcome.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}

/// Where the numbers were taken: they mean nothing without it.
fn environment(scratch: &Path) -> Value {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned())
    };
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    obj([
        ("nproc", Value::Num(nproc as f64)),
        ("kernel", Value::Str(read("/proc/sys/kernel/osrelease"))),
        ("commit", Value::Str(commit)),
        ("journal_fs", Value::Str(pair::filesystem_of(scratch))),
        ("link", Value::Str("loopback".to_owned())),
    ])
}

/// The end-to-end bounds `BENCHMARK.json` declares, by metric name.
fn declared_bounds(spec: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    let metrics = doc.get("end_to_end").ok_or("spec has no end_to_end")?;
    Ok(metrics
        .items()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

fn run(opts: Options) -> Result<bool, String> {
    if !opts.taxd.is_file() {
        return Err(format!("no taxd binary at {}", opts.taxd.display()));
    }
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("{}: {e}", opts.scratch.display()))?;
    let seconds = match (opts.seconds > 0.0, opts.smoke) {
        (true, _) => opts.seconds,
        (false, true) => 2.0,
        (false, false) => 15.0,
    };
    let bench = Bench {
        pacing: Pacing {
            warmup: Duration::from_secs_f64(if opts.smoke { 0.5 } else { 1.0 }),
            window: Duration::from_secs_f64(seconds),
            trace: false,
        },
        min_replayed: if opts.smoke {
            400
        } else {
            replay::MIN_REPLAYED
        },
        opts,
    };
    let opts = &bench.opts;
    let chosen: Vec<&Workload> = match (opts.workload, opts.smoke) {
        (Some(w), _) => vec![w],
        (None, true) => WORKLOADS
            .iter()
            .filter(|w| matches!(w.name, "tour_fleet" | "tour_mine"))
            .collect(),
        (None, false) => WORKLOADS.iter().collect(),
    };
    let env = environment(&opts.scratch);
    println!("environment {}", env.render());

    // runs[k][workload] for the repeatability report.
    let mut runs: Vec<Vec<(&Workload, Outcome)>> = Vec::new();
    for k in 0..opts.repeat {
        // Each repeat takes another seed, as the acceptance runs do:
        // the spread then covers input variation as well as noise.
        let seed = opts.seed + k as u64;
        let results = chosen
            .iter()
            .map(|w| (*w, bench.workload(w, seed)))
            .collect();
        runs.push(results);
    }

    let last = runs.last().expect("repeat is at least 1");
    let all_correct = runs.iter().flatten().all(|(_, o)| o.correct);
    let latest = obj([
        ("seed", Value::Num(opts.seed as f64)),
        ("run_seconds", Value::Num(seconds)),
        ("environment", env),
        (
            "workloads",
            Value::Obj(
                last.iter()
                    .map(|(w, o)| (w.name.to_owned(), bench.result_value(o)))
                    .collect(),
            ),
        ),
    ]);
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let path = opts.out.join("latest.json");
    std::fs::write(&path, latest.render()).map_err(|e| format!("{}: {e}", path.display()))?;

    let mut steady = true;
    if opts.repeat > 1 {
        steady = repeat_report(&runs, &declared_bounds(&opts.spec)?);
    }
    // The contract's result line: the one workload asked for, last.
    if let (Some(_), [(_, outcome)]) = (opts.workload, last.as_slice()) {
        println!("{}", bench.result_value(outcome).render());
    }
    Ok(all_correct && steady)
}

/// Prints min/median/max and the relative spread of every metric over
/// the repeats; returns whether every end-to-end spread held its bound.
fn repeat_report(runs: &[Vec<(&Workload, Outcome)>], bounds: &BTreeMap<String, f64>) -> bool {
    let mut steady = true;
    let names: Vec<&'static str> = runs[0]
        .iter()
        .flat_map(|(_, o)| o.metrics.keys().copied())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    for (i, (workload, _)) in runs[0].iter().enumerate() {
        for name in &names {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| run[i].1.metrics.get(name).map(|(v, _)| *v))
                .collect();
            if values.len() < 2 {
                continue;
            }
            let v = sorted(values.clone());
            let mid = median(&values);
            let spread = stats::spread(&values);
            let verdict = match bounds.get(*name) {
                // setup_s is judged on its median only, not its spread.
                Some(bound) if *name != "setup_s" && spread > *bound => {
                    steady = false;
                    format!("EXCEEDS bound {bound}")
                }
                Some(bound) => format!("within bound {bound}"),
                None => "layer metric".to_owned(),
            };
            println!(
                "repeat {} {name} min={} median={mid} max={} spread={spread:.4} runs={} {verdict}",
                workload.name,
                v[0],
                v[v.len() - 1],
                values.len()
            );
        }
    }
    steady
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("hopbench: a run was incorrect or a spread exceeded its bound");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("hopbench: {message}");
            ExitCode::FAILURE
        }
    }
}
