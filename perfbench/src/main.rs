//! The Setchain benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload's deployment, built by
//! `Deployment::builder`, again and again at the same seed for `--seconds`
//! host seconds and prints the end-to-end metrics: medians over the runs for
//! host figures, the (identical) simulated figures of one run. With
//! `--trace 1` it alternates untraced builder runs with runs of the same
//! deployment assembled from public parts inside timing decorators, and
//! prints the per-layer split of the median traced run.
//!
//! Every run is checked: all elements commit, correct servers agree on every
//! epoch, every answered read verifies with `f + 1` epoch-proofs, quotas
//! shed nothing, and every run's fingerprint equals the first one's, traced
//! or not. The last line of standard output is one JSON object; the process
//! exits non-zero if a check fails.

mod alloc;
mod calibrate;
mod decor;
mod report;
mod span;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{median, quantile, Metric, Summary};
use setchain_workload::Deployment;
use span::Layer;
use workload::{Assembly, Drive, Spec};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Runs of each kind made at least, however short `--seconds` is.
const MIN_RUNS: usize = 2;
/// Set-ups timed per untraced run: the run's own and extra ones.
const SETUPS_PER_RUN: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The benchmark's verdict and figures.
struct Output {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Output {
    fn new(s: &Summary) -> Self {
        Output {
            failures: Vec::new(),
            attempted: s.added + s.reads.attempted,
            failed: s.added - s.committed.min(s.added) + s.reads.failed,
            metrics: Vec::new(),
        }
    }

    fn check(&mut self, what: &str, s: &Summary, reference: u64) {
        for f in &s.failures {
            self.failures.push(format!("{what}: {f}"));
        }
        if s.fingerprint != reference {
            self.failures.push(format!(
                "{what}: fingerprint {:016x} differs from {reference:016x}",
                s.fingerprint
            ));
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "{name} is not a finite number");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Decides whether another round of runs fits in `--seconds`: it does if
/// the longest round so far would still end in time.
struct Budget {
    start: Instant,
    last: Instant,
    longest: f64,
    seconds: f64,
}

impl Budget {
    fn new(seconds: f64) -> Self {
        let now = Instant::now();
        Budget {
            start: now,
            last: now,
            longest: 0.0,
            seconds,
        }
    }

    fn another(&mut self) -> bool {
        let now = Instant::now();
        self.longest = self
            .longest
            .max(now.duration_since(self.last).as_secs_f64());
        self.last = now;
        now.duration_since(self.start).as_secs_f64() + self.longest <= self.seconds
    }
}

/// One driven deployment, summarised.
struct Run {
    setup_s: f64,
    drive: Drive,
    summary: Summary,
}

fn run(spec: &Spec, seed: u64, work: &Path, how: Assembly, traced: bool) -> (Run, Vec<Metric>) {
    let dir = workload::fresh_dir(work, "stores");
    let (mut deployment, setup_s) = workload::assemble(spec, seed, &dir, how);
    span::set_enabled(traced);
    alloc::set_counting(traced);
    let drive = workload::drive(spec, &mut deployment);
    span::set_enabled(false);
    alloc::set_counting(false);
    workload::finish_reads(spec, &mut deployment);
    let summary = report::summarize(spec, &deployment, &drive);
    let mut layers = Vec::new();
    if traced {
        layers = layer_metrics(spec, &deployment, &summary, &drive, &dir);
        let registry = deployment.registry.clone();
        let mut epochs = calibrate::resident_epochs(&deployment);
        drop(deployment);
        if spec.durable {
            epochs = calibrate::stored_epochs(&dir.join("server-0"));
        }
        layers.extend(calibrate::calibrate(spec, &epochs, &registry, work));
    }
    (
        Run {
            setup_s,
            drive,
            summary,
        },
        layers,
    )
}

/// The host-time and allocation split of a traced run, then its counts.
fn layer_metrics(
    spec: &Spec,
    d: &Deployment,
    s: &Summary,
    drive: &Drive,
    dir: &Path,
) -> Vec<Metric> {
    let mut self_s = span::take_self_secs();
    let (counts, bytes) = alloc::take();
    let handled: f64 = self_s.iter().sum();
    self_s[Layer::Simnet as usize] = drive.wall_s - handled;
    let committed = s.committed.max(1) as f64;
    let mut out: Vec<Metric> = vec![("trace.wall_s".into(), drive.wall_s, "s")];
    for layer in Layer::ALL {
        out.push((layer.metric().into(), self_s[layer as usize], "s"));
    }
    out.push((
        "alloc.count_per_committed".into(),
        counts.iter().sum::<u64>() as f64 / committed,
        "count",
    ));
    out.push((
        "alloc.bytes_per_committed".into(),
        bytes.iter().sum::<u64>() as f64 / committed,
        "B",
    ));
    for layer in Layer::ALL {
        out.push((
            format!("alloc.{}.count", layer.short()),
            counts[layer as usize] as f64,
            "count",
        ));
    }
    out.extend(report::layer_counts(spec, d, s, drive, dir));
    out
}

fn untraced(spec: &Spec, args: &Args, work: &Path) -> Output {
    println!("host reference: {:.1} MiB/s", calibrate::host_ref_mib_s());
    // The reference: the same deployment assembled inside the decorators,
    // which here only forward. Every builder run must match it.
    let (reference, _) = run(spec, args.seed, work, Assembly::Decorated, false);
    let mut out = Output::new(&reference.summary);
    out.check(
        "decorated run",
        &reference.summary,
        reference.summary.fingerprint,
    );
    let fp = reference.summary.fingerprint;

    let mut runs = Vec::new();
    let mut setups = Vec::new();
    let mut clock = Budget::new(args.seconds);
    while clock.another() || runs.len() < MIN_RUNS {
        let (r, _) = run(spec, args.seed, work, Assembly::Builder, false);
        out.check("builder run", &r.summary, fp);
        setups.push(r.setup_s);
        runs.push(r);
        // More set-up samples, spread over the run like the runs are.
        for _ in 1..SETUPS_PER_RUN {
            let dir = workload::fresh_dir(work, "stores");
            setups.push(workload::assemble(spec, args.seed, &dir, Assembly::Builder).1);
        }
    }

    let s = &runs[0].summary;
    let committed = s.committed as f64;
    let (wall_s, cpu_s) = step_minima(&runs);
    let lat = &s.commit_latencies;
    let reads = &s.reads.latencies;
    println!(
        "{}: {} runs at seed {}; commit latency over {} elements, read latency over {} reads",
        spec.name,
        runs.len(),
        args.seed,
        lat.len(),
        reads.len()
    );
    out.metrics = vec![
        ("committed_per_wall_s".into(), committed / wall_s, "1/s"),
        ("cpu_us_per_committed".into(), cpu_s * 1e6 / committed, "us"),
        ("commit_latency_p50_s".into(), quantile(lat, 0.5), "s"),
        ("commit_latency_p999_s".into(), quantile(lat, 0.999), "s"),
        ("read_latency_p50_s".into(), quantile(reads, 0.5), "s"),
        ("read_latency_p99_s".into(), quantile(reads, 0.99), "s"),
        ("setup_s".into(), median(&setups), "s"),
        ("peak_rss_mib".into(), workload::peak_rss_mib(), "MiB"),
    ];
    out
}

/// Host and CPU seconds of the event loop, each the sum over simulated
/// time steps of that step's fastest run. The runs do identical work step
/// by step, so this filters out the time other tenants of a shared host
/// take from any one run. On a 2-vCPU VM it spread several times less
/// across runs than medians did (figures in `LAYERS.md`).
fn step_minima(runs: &[Run]) -> (f64, f64) {
    let steps = runs[0].drive.steps.len();
    assert!(
        runs.iter().all(|r| r.drive.steps.len() == steps),
        "deterministic runs take the same steps"
    );
    let fastest = |k: usize, pick: fn(&(f64, f64)) -> f64| {
        runs.iter()
            .map(|r| pick(&r.drive.steps[k]))
            .fold(f64::INFINITY, f64::min)
    };
    let wall = (0..steps).map(|k| fastest(k, |s| s.0)).sum();
    let cpu = (0..steps).map(|k| fastest(k, |s| s.1)).sum();
    (wall, cpu)
}

fn traced(spec: &Spec, args: &Args, work: &Path) -> Output {
    let host_ref = calibrate::host_ref_mib_s();
    let mut plain_walls = Vec::new();
    let mut traced_runs: Vec<(f64, Vec<Metric>)> = Vec::new();
    let mut out: Option<Output> = None;
    let mut fp = 0;
    let mut clock = Budget::new(args.seconds);
    while clock.another() || traced_runs.len() < MIN_RUNS {
        let (plain, _) = run(spec, args.seed, work, Assembly::Builder, false);
        let o = out.get_or_insert_with(|| {
            fp = plain.summary.fingerprint;
            Output::new(&plain.summary)
        });
        o.check("builder run", &plain.summary, fp);
        plain_walls.push(plain.drive.wall_s);
        drop(plain);
        let (timed, layers) = run(spec, args.seed, work, Assembly::DecoratedDetailed, true);
        o.check("traced run", &timed.summary, fp);
        traced_runs.push((timed.drive.wall_s, layers));
    }
    let mut out = out.expect("at least one run");
    traced_runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (traced_wall, mut metrics) = traced_runs.swap_remove(traced_runs.len() / 2);
    metrics.push(("host.ref_mib_s".into(), host_ref, "MiB/s"));
    metrics.push((
        "trace.overhead_share".into(),
        traced_wall / median(&plain_walls) - 1.0,
        "share",
    ));
    out.metrics = metrics;
    out
}

/// The run's work directory (stores, calibration store), removed when
/// dropped, also when a failed check unwinds.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only removed once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let work = WorkDir(PathBuf::from("perfbench").join(".work").join(format!(
        "{}-{}",
        spec.name,
        std::process::id()
    )));
    let out = if args.trace {
        traced(&spec, &args, &work.0)
    } else {
        untraced(&spec, &args, &work.0)
    };
    drop(work);
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{}", out.json());
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
