//! Closed-loop benchmark of the STEAC workspace: one client, one op in
//! flight, a fixed op per workload, every op's output checked.
//!
//! ```text
//! steac-perfbench --workload <verify_stream|play_worker|integrate_soc>
//!                 --seed <n> --seconds <s> --trace <0|1>
//!                 [--worker <steac-worker binary>] [--zoo-seed <n>]
//!                 [--trace-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of stdout is one JSON object. See `README.md`
//! next to this crate for what each workload's clock covers.

mod host;
mod integrate;
mod jpeg;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Per-layer metrics every workload's traced run prints, with units;
/// each workload adds its own [`Workload::LAYERS`].
const SHARED_LAYERS: [(&str, &str); 13] = [
    ("count.patterns", "count"),
    ("count.compares", "count"),
    ("count.passes", "count"),
    ("count.mismatches", "count"),
    ("count.tasks", "count"),
    ("count.sessions", "count"),
    ("count.faults", "count"),
    ("count.detected", "count"),
    ("host.nproc", "count"),
    ("trace.op_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("host.probe_ms", "ms"),
];

/// Every per-layer metric, in print order: the shared rows, then each
/// workload's own. A traced run prints all of them, and another
/// workload's layers read 0.
fn per_layer_rows() -> Vec<(&'static str, &'static str)> {
    [
        &SHARED_LAYERS,
        jpeg::VerifyStream::LAYERS,
        jpeg::PlayWorker::LAYERS,
        integrate::IntegrateSoc::LAYERS,
    ]
    .concat()
}

/// Set-ups per untraced run, spread evenly over its seconds so host
/// drift reaches them as it reaches the ops; `setup_s` is their median.
const SETUPS: usize = 12;

/// Untimed ops before the clock starts, so lazy set-up and caches settle.
const WARMUP_OPS: usize = 2;

/// What the workloads share from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Labels the run. The inputs do not depend on it: the JPEG set is
    /// seed-free and the zoo list follows `zoo_seed`.
    pub seed: u64,
    pub zoo_seed: u64,
    pub worker: Option<PathBuf>,
}

/// Per-op counts, identical on every op of a healthy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub patterns: u64,
    pub compares: u64,
    pub passes: u64,
    pub mismatches: u64,
    pub tasks: u64,
    pub sessions: u64,
    pub faults: u64,
    pub detected: u64,
}

/// The checked result of one op.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Units of work the op completed (patterns or tasks).
    pub work: f64,
    /// What every op of a run must reproduce exactly, set-up after
    /// set-up; empty when the op's own checks cover it.
    pub fingerprint: String,
    /// Simulated tester cycles the op's output stands for.
    pub test_cycles: u64,
    pub counts: Counts,
    /// The first check the op failed, if any.
    pub error: Option<String>,
}

impl Outcome {
    /// Records a failed check (the first one wins).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.error.is_none() {
            self.error = Some(what());
        }
    }
}

/// One benchmark workload: a set-up, a fixed op, and a traced op that
/// records a span around every layer call.
pub trait Workload: Sized {
    /// Threads (and worker processes) an op keeps busy at once.
    const BUSY_THREADS: usize;

    /// This workload's per-layer metrics and their units.
    const LAYERS: &'static [(&'static str, &'static str)];

    fn setup(cfg: &Config) -> Result<Self, String>;

    /// The op the untraced run times.
    fn op(&mut self) -> Outcome;

    /// The same op inside a [`trace::OP`] span with a child span per
    /// layer call, followed by any side calls that split it by layer.
    fn traced_op(&mut self, tracer: &mut Tracer) -> Outcome;

    /// The values of [`Self::LAYERS`], in order, from a traced run.
    fn layers(&self, tracer: &Tracer) -> Vec<f64>;
}

struct Args {
    workload: String,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
    cfg: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker = None;
    let mut zoo_seed = steac_suite::steac_zoo::ZooParams::smoke().seed;
    let mut trace_dir = PathBuf::from(".bench_build/perfbench-traces");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)? != 0),
            "--worker" => worker = Some(PathBuf::from(value)),
            "--zoo-seed" => zoo_seed = num(&value)?,
            "--trace-dir" => trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        #[allow(clippy::cast_precision_loss)]
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
        trace_dir,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            zoo_seed,
            worker,
        },
    })
}

/// The result line: the driver reads the last line of stdout.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median (mean of the middle pair for even counts); 0 when empty.
fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile; 0 when empty.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let pos = q * (v.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - pos.floor())
}

/// Resident set size of this process in MiB.
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tallies checked ops; failed ops count and are never dropped.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    last: Outcome,
    /// The first passing op's fingerprint.
    fingerprint: Option<String>,
}

impl Tally {
    fn add(&mut self, mut outcome: Outcome) {
        self.attempted += 1;
        match &self.fingerprint {
            Some(first) if *first != outcome.fingerprint => {
                let got = std::mem::take(&mut outcome.fingerprint);
                outcome.check(false, || {
                    format!("output differs from the first op's: {got} vs {first}")
                });
            }
            None if outcome.error.is_none() => {
                self.fingerprint = Some(outcome.fingerprint.clone());
            }
            _ => {}
        }
        if let Some(e) = &outcome.error {
            if self.failed == 0 {
                eprintln!("perfbench: op {} failed: {e}", self.attempted);
            }
            self.failed += 1;
        }
        self.last = outcome;
    }
}

fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if W::BUSY_THREADS > nproc {
        return Err(format!(
            "{} keeps {} threads busy but this host has {nproc}",
            args.workload,
            W::BUSY_THREADS
        ));
    }
    eprintln!(
        "perfbench: {} on nproc={nproc}, {} busy threads, {} s",
        args.workload,
        W::BUSY_THREADS,
        args.seconds
    );
    let mut tally = Tally::default();
    if args.trace {
        run_traced::<W>(args, nproc, &mut tally)
    } else {
        run_untraced::<W>(args, &mut tally)
    }
}

fn warm_up<W: Workload>(workload: &mut W, tally: &mut Tally) {
    for _ in 0..WARMUP_OPS {
        tally.add(workload.op());
        host::probe();
    }
}

/// What one measured stretch of ops gives.
#[derive(Default)]
struct Measured {
    /// Per-op latency in seconds, as the clock read it.
    raw: Vec<f64>,
    /// Per-op latency in seconds at the nominal host speed
    /// ([`host::at_nominal`]).
    latencies: Vec<f64>,
    /// Per op, the seconds of the host probe run right after it.
    probes: Vec<f64>,
    work: f64,
    /// Per op, the RSS right after it.
    rss: Vec<f64>,
    /// Set-up seconds at the nominal host speed, when the stretch re-set
    /// up.
    setups: Vec<f64>,
}

/// Builds a fresh workload in `slot`, dropping the old one first so the
/// heap holds one set-up at a time; returns the set-up's seconds at the
/// nominal host speed.
fn set_up<W: Workload>(slot: &mut Option<W>, cfg: &Config) -> Result<f64, String> {
    *slot = None;
    let t0 = Instant::now();
    let workload = W::setup(cfg)?;
    let seconds = t0.elapsed().as_secs_f64();
    *slot = Some(workload);
    Ok(host::at_nominal(seconds, host::probe()))
}

/// Times ops back to back until `seconds` have passed, each followed by
/// an untimed RSS sample and a timed host probe. With `resetup`,
/// it also sets the workload up afresh [`SETUPS`] − 1 times at evenly
/// spaced points; set-up time is kept out of the op figures.
fn measure<W: Workload>(
    slot: &mut Option<W>,
    seconds: f64,
    tally: &mut Tally,
    resetup: Option<&Config>,
) -> Result<Measured, String> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut m = Measured::default();
    while start.elapsed() < budget {
        if let Some(cfg) = resetup {
            #[allow(clippy::cast_precision_loss)]
            let due = budget.mul_f64((m.setups.len() + 1) as f64 / SETUPS as f64);
            if m.setups.len() + 1 < SETUPS && start.elapsed() >= due {
                m.setups.push(set_up(slot, cfg)?);
            }
        }
        let workload = slot.as_mut().expect("set up before measuring");
        let t0 = Instant::now();
        let outcome = std::hint::black_box(workload.op());
        let seconds = t0.elapsed().as_secs_f64();
        m.rss.push(rss_mib());
        let probe = host::probe();
        m.raw.push(seconds);
        m.latencies.push(host::at_nominal(seconds, probe));
        m.probes.push(probe);
        m.work += outcome.work;
        tally.add(outcome);
    }
    Ok(m)
}

fn run_untraced<W: Workload>(args: &Args, tally: &mut Tally) -> Result<Report, String> {
    let mut slot = None;
    let first = set_up::<W>(&mut slot, &args.cfg)?;
    warm_up(slot.as_mut().expect("set up"), tally);
    let mut m = measure(&mut slot, args.seconds, tally, Some(&args.cfg))?;
    m.setups.insert(0, first);
    let busy: f64 = m.latencies.iter().sum();
    #[allow(clippy::cast_precision_loss)]
    let test_mcycles = tally.last.test_cycles as f64 / 1e6;
    eprintln!(
        "perfbench: {} timed ops, p10/p50/p90 {:.1}/{:.1}/{:.1} ms at nominal speed \
         ({:.1}/{:.1}/{:.1} ms as read, probe p50 {:.2} ms), setups {:?} ms",
        m.latencies.len(),
        1e3 * quantile(&m.latencies, 0.1),
        1e3 * median(&m.latencies),
        1e3 * quantile(&m.latencies, 0.9),
        1e3 * quantile(&m.raw, 0.1),
        1e3 * median(&m.raw),
        1e3 * quantile(&m.raw, 0.9),
        1e3 * median(&m.probes),
        m.setups
            .iter()
            .map(|s| (1e4 * s).round() / 10.0)
            .collect::<Vec<_>>(),
    );
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            ("setup_s", median(&m.setups), "s"),
            ("work_per_s", m.work / busy, "work/s"),
            ("op_p50_ms", 1e3 * median(&m.latencies), "ms"),
            ("op_p90_ms", 1e3 * quantile(&m.latencies, 0.9), "ms"),
            ("rss_p50_mib", median(&m.rss), "MiB"),
            ("test_mcycles", test_mcycles, "Mcycles"),
        ],
    })
}

/// Half the run times untraced ops, half traced ones: the per-layer
/// numbers come from the traced half, and the tracing overhead is the
/// difference of the two halves' median op latency as the clock read it.
fn run_traced<W: Workload>(args: &Args, nproc: usize, tally: &mut Tally) -> Result<Report, String> {
    let mut slot = None;
    set_up::<W>(&mut slot, &args.cfg)?;
    warm_up(slot.as_mut().expect("set up"), tally);
    let untraced = measure(&mut slot, args.seconds / 2.0, tally, None)?;
    let mut workload = slot.expect("set up");
    let mut tracer = Tracer::new();
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let start = Instant::now();
    while start.elapsed() < budget {
        tracer.next_op();
        let outcome = workload.traced_op(&mut tracer);
        tally.add(outcome);
        // As in the untraced half, so both halves' ops start alike.
        host::probe();
    }
    let traced_p50 = 1e3 * median(&tracer.per_op_seconds(trace::OP));
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.jsonl", args.workload, args.cfg.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} untraced + {} traced ops, spans in {}",
        untraced.raw.len(),
        tracer.per_op_seconds(trace::OP).len(),
        path.display()
    );

    let own = workload.layers(&tracer);
    if own.len() != W::LAYERS.len() {
        return Err(format!(
            "{} gave {} layer values for {} layers",
            args.workload,
            own.len(),
            W::LAYERS.len()
        ));
    }
    let c = tally.last.counts;
    #[allow(clippy::cast_precision_loss)]
    let shared: [f64; SHARED_LAYERS.len()] = [
        c.patterns as f64,
        c.compares as f64,
        c.passes as f64,
        c.mismatches as f64,
        c.tasks as f64,
        c.sessions as f64,
        c.faults as f64,
        c.detected as f64,
        nproc as f64,
        traced_p50,
        traced_p50 - 1e3 * median(&untraced.raw),
        tracer.len() as f64,
        1e3 * median(&untraced.probes),
    ];
    let values: BTreeMap<&str, f64> = SHARED_LAYERS
        .iter()
        .zip(shared)
        .chain(W::LAYERS.iter().zip(own))
        .map(|(&(name, _), value)| (name, value))
        .collect();
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: per_layer_rows()
            .into_iter()
            .map(|(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "verify_stream" => run::<jpeg::VerifyStream>(&args),
        "play_worker" => run::<jpeg::PlayWorker>(&args),
        "integrate_soc" => run::<integrate::IntegrateSoc>(&args),
        other => Err(format!("unknown workload {other}")),
    });
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
