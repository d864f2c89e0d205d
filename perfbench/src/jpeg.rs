//! The two JPEG pattern-verification workloads.
//!
//! Both use the paper's JPEG functional-pattern generator, which is
//! seed-free: pattern `k` depends only on `k`, so `--seed` does not
//! change their inputs.

use crate::trace::{Tracer, OP};
use crate::{median, Config, Counts, Outcome, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};
use steac_suite::steac_dsc::{
    jpeg_core, jpeg_functional_patterns, jpeg_playback_stream, PlaybackReport,
};
use steac_suite::steac_pattern::{
    stream_cycle_patterns, CyclePattern, MismatchReport, PLAYBACK_LANE_GROUPS,
};
use steac_suite::steac_sim::{Exec, Fallback, ProcessPool, SimProgram, Simulator, Threads, LANES};

/// Patterns per `verify_stream` op.
pub const VERIFY_PATTERNS: usize = 2048;

/// Patterns per `play_worker` op.
pub const PLAY_PATTERNS: usize = 5120;

/// Compares per JPEG pattern: every one of the core's 104 outputs once.
const COMPARES_PER_PATTERN: u64 = 104;

/// Tester cycles per JPEG pattern (drive + pulse, then compare).
const CYCLES_PER_PATTERN: u64 = 2;

fn one_thread() -> Exec {
    Exec::threads(Threads::exact(1))
}

#[allow(clippy::cast_precision_loss)]
fn per_s(count: usize, seconds: f64) -> f64 {
    count as f64 / seconds
}

/// The counts a clean `count`-pattern playback must show.
fn clean_counts(count: usize) -> Counts {
    let patterns = count as u64;
    Counts {
        patterns,
        compares: COMPARES_PER_PATTERN * patterns,
        passes: count.div_ceil(LANES * PLAYBACK_LANE_GROUPS) as u64,
        ..Counts::default()
    }
}

/// Builds the JPEG core and compiles its simulation program — the rig
/// pattern generation and playback share.
fn jpeg_program() -> Result<Arc<SimProgram>, String> {
    let (module, _) = jpeg_core().map_err(|e| format!("jpeg_core: {e}"))?;
    let program = SimProgram::compile(&module).map_err(|e| format!("compile: {e}"))?;
    Ok(Arc::new(program))
}

/// Folds a played stream's per-pattern reports, comparing each with a
/// reference when one is given.
#[derive(Default)]
struct Fold {
    patterns: u64,
    compares: u64,
    mismatches: u64,
    first_diff: Option<usize>,
}

impl Fold {
    fn add(&mut self, report: &MismatchReport, reference: Option<&[MismatchReport]>) {
        let index = self.patterns as usize;
        if reference.is_some_and(|r| r.get(index) != Some(report)) && self.first_diff.is_none() {
            self.first_diff = Some(index);
        }
        self.patterns += 1;
        self.compares += report.compares;
        self.mismatches += report.mismatches.len() as u64;
    }

    /// Checks the fold against a clean `count`-pattern playback.
    fn check(&self, count: usize, out: &mut Outcome) {
        let want = clean_counts(count);
        out.check(self.patterns == want.patterns, || {
            format!("played {} of {count} patterns", self.patterns)
        });
        out.check(self.mismatches == 0, || {
            format!("{} mismatching compares", self.mismatches)
        });
        out.check(self.compares == want.compares, || {
            format!("{} compares, want {}", self.compares, want.compares)
        });
        out.check(self.first_diff.is_none(), || {
            format!("pattern {:?} differs from the reference", self.first_diff)
        });
    }
}

/// `verify_stream`: one `jpeg_playback_stream` call over
/// [`VERIFY_PATTERNS`] patterns on `threads:1` — one generator thread
/// feeding the player on the calling thread.
pub struct VerifyStream {
    exec: Exec,
}

impl VerifyStream {
    fn check_report(report: Result<PlaybackReport, impl std::fmt::Display>) -> Outcome {
        let mut out = Outcome::default();
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.error = Some(format!("jpeg_playback_stream: {e}"));
                return out;
            }
        };
        let want = clean_counts(VERIFY_PATTERNS);
        out.check(report.patterns as u64 == want.patterns, || {
            format!("played {} patterns", report.patterns)
        });
        out.check(report.mismatches == 0, || {
            format!("{} mismatching compares", report.mismatches)
        });
        out.check(report.compares == want.compares, || {
            format!("{} compares, want {}", report.compares, want.compares)
        });
        out.check(report.passes as u64 == want.passes, || {
            format!("{} passes, want {}", report.passes, want.passes)
        });
        out.check(report.process_fallbacks == 0, || {
            format!("{} process fallbacks", report.process_fallbacks)
        });
        out.check(report.cycles == CYCLES_PER_PATTERN * want.patterns, || {
            format!("{} tester cycles", report.cycles)
        });
        #[allow(clippy::cast_precision_loss)]
        {
            out.work = report.patterns as f64;
        }
        out.test_cycles = report.cycles;
        out.counts = Counts {
            patterns: report.patterns as u64,
            compares: report.compares,
            passes: report.passes as u64,
            mismatches: report.mismatches as u64,
            ..Counts::default()
        };
        out
    }
}

impl Workload for VerifyStream {
    const BUSY_THREADS: usize = 2;

    const LAYERS: &'static [(&'static str, &'static str)] = &[
        ("dsc.rig_ms", "ms"),
        ("dsc.generate_per_s", "patterns/s"),
        ("pattern.play_per_s", "patterns/s"),
        ("verify.overlap", "ratio"),
    ];

    /// The user's wait for a first verified result: one
    /// [`LANES`]-pattern block generated and played through the op's
    /// streaming path, which builds its own rig.
    fn setup(_cfg: &Config) -> Result<Self, String> {
        let exec = one_thread();
        let first = jpeg_playback_stream(&exec, LANES).map_err(|e| format!("first block: {e}"))?;
        if first.patterns != LANES || first.mismatches != 0 {
            return Err(format!("first block: {first:?}"));
        }
        Ok(VerifyStream { exec })
    }

    fn op(&mut self) -> Outcome {
        Self::check_report(jpeg_playback_stream(&self.exec, VERIFY_PATTERNS))
    }

    /// The streaming op, then its stages called one by one: the rig,
    /// materialized generation, and in-process play of what was
    /// generated.
    fn traced_op(&mut self, tracer: &mut Tracer) -> Outcome {
        let report = tracer.span(OP, None, |_, _| {
            jpeg_playback_stream(&self.exec, VERIFY_PATTERNS)
        });
        let mut out = Self::check_report(report);
        let program = match tracer.span("dsc.rig", None, |_, _| jpeg_program()) {
            Ok(program) => program,
            Err(e) => {
                out.check(false, || format!("rig: {e}"));
                return out;
            }
        };
        let generated = tracer.span("dsc.generate", None, |_, _| {
            jpeg_functional_patterns(&self.exec, VERIFY_PATTERNS)
        });
        let patterns = match generated {
            Ok((_, patterns)) => patterns,
            Err(e) => {
                out.check(false, || format!("jpeg_functional_patterns: {e}"));
                return out;
            }
        };
        let sim: Simulator = Simulator::from_program(program);
        let mut fold = Fold::default();
        let played = tracer.span("pattern.play", None, |_, _| {
            stream_cycle_patterns(&self.exec, &sim, patterns.into_iter(), |r| {
                fold.add(&r, None);
            })
        });
        out.check(played.is_ok(), || format!("play: {:?}", played.err()));
        fold.check(VERIFY_PATTERNS, &mut out);
        out
    }

    fn layers(&self, tracer: &Tracer) -> Vec<f64> {
        let generate = median(&tracer.per_op_seconds("dsc.generate"));
        let play = median(&tracer.per_op_seconds("pattern.play"));
        let stream = median(&tracer.per_op_seconds(OP));
        vec![
            1e3 * median(&tracer.per_op_seconds("dsc.rig")),
            per_s(VERIFY_PATTERNS, generate),
            per_s(VERIFY_PATTERNS, play),
            (generate + play) / stream,
        ]
    }
}

/// Clones patterns out of the materialized set, summing the time spent
/// inside `next` — the input side of the player.
struct TimedClone<'a> {
    patterns: std::slice::Iter<'a, CyclePattern>,
    busy: Duration,
}

impl Iterator for TimedClone<'_> {
    type Item = CyclePattern;

    fn next(&mut self) -> Option<CyclePattern> {
        let t0 = Instant::now();
        let next = self.patterns.next().cloned();
        self.busy += t0.elapsed();
        next
    }
}

/// `play_worker`: plays a materialized JPEG set through one
/// `steac-worker` process (`processes:1`, [`Fallback::Fail`]) and
/// compares every report with the in-process reference from set-up.
pub struct PlayWorker {
    worker: Exec,
    inproc: Exec,
    sim: Simulator,
    patterns: Vec<CyclePattern>,
    /// Tester cycles of the whole set, summed from its patterns.
    cycles: u64,
    reference: Vec<MismatchReport>,
    process_fallbacks: usize,
}

impl PlayWorker {
    fn play(
        &self,
        exec: &Exec,
        patterns: impl Iterator<Item = CyclePattern> + Send,
        mut first_report: impl FnMut(),
    ) -> (Outcome, usize) {
        let mut out = Outcome::default();
        let mut fold = Fold::default();
        let mut fallbacks = 0;
        let run = stream_cycle_patterns(exec, &self.sim, patterns, |r| {
            if fold.patterns == 0 {
                first_report();
            }
            fold.add(&r, Some(&self.reference));
        });
        match run {
            Ok(run) => {
                fallbacks = run.process_fallbacks;
                out.check(fallbacks == 0, || format!("{fallbacks} process fallbacks"));
            }
            Err(e) => out.check(false, || format!("stream_cycle_patterns: {e}")),
        }
        fold.check(PLAY_PATTERNS, &mut out);
        #[allow(clippy::cast_precision_loss)]
        {
            out.work = fold.patterns as f64;
        }
        out.test_cycles = self.cycles;
        // The streaming player does not report its passes, so
        // `passes` stays 0 here.
        out.counts = Counts {
            patterns: fold.patterns,
            compares: fold.compares,
            mismatches: fold.mismatches,
            ..Counts::default()
        };
        (out, fallbacks)
    }
}

impl Workload for PlayWorker {
    const BUSY_THREADS: usize = 2;

    const LAYERS: &'static [(&'static str, &'static str)] = &[
        ("pattern.play_inproc_s", "s"),
        ("exec.play_worker_s", "s"),
        ("exec.transport_tax_s", "s"),
        ("exec.first_report_ms", "ms"),
        ("pattern.input_next_s", "s"),
        ("exec.process_fallbacks", "count"),
    ];

    /// Generates the set, plays it in-process once for the reference
    /// reports, and resolves the worker binary.
    fn setup(cfg: &Config) -> Result<Self, String> {
        let binary = cfg
            .worker
            .clone()
            .ok_or("play_worker needs --worker <steac-worker binary>")?;
        if !binary.is_file() {
            return Err(format!("no steac-worker binary at {}", binary.display()));
        }
        let worker =
            Exec::processes(ProcessPool::with_binary(binary, 1)).with_fallback(Fallback::Fail);
        let serial = Exec::serial();
        let (module, patterns) = jpeg_functional_patterns(&serial, PLAY_PATTERNS)
            .map_err(|e| format!("jpeg_functional_patterns: {e}"))?;
        let sim: Simulator = Simulator::new(&module).map_err(|e| format!("simulator: {e}"))?;
        let mut reference = Vec::with_capacity(PLAY_PATTERNS);
        stream_cycle_patterns(&serial, &sim, patterns.iter().cloned(), |r| {
            reference.push(r)
        })
        .map_err(|e| format!("reference playback: {e}"))?;
        let mut fold = Fold::default();
        reference.iter().for_each(|r| fold.add(r, None));
        let mut out = Outcome::default();
        fold.check(PLAY_PATTERNS, &mut out);
        if let Some(e) = out.error {
            return Err(format!("reference playback: {e}"));
        }
        Ok(PlayWorker {
            worker,
            inproc: one_thread(),
            sim,
            cycles: patterns.iter().map(CyclePattern::cycle_count).sum(),
            patterns,
            reference,
            process_fallbacks: 0,
        })
    }

    fn op(&mut self) -> Outcome {
        self.play(&self.worker, self.patterns.iter().cloned(), || {})
            .0
    }

    /// The worker op with its input iterator and first report timed,
    /// then the same set played in-process on `threads:1`.
    fn traced_op(&mut self, tracer: &mut Tracer) -> Outcome {
        let (mut out, fallbacks) = tracer.span(OP, None, |tracer, op| {
            let start = Instant::now();
            let mut first = None;
            let mut feed = TimedClone {
                patterns: self.patterns.iter(),
                busy: Duration::ZERO,
            };
            let played = self.play(&self.worker, feed.by_ref(), || {
                first = Some(start.elapsed())
            });
            tracer.record("pattern.input_next", Some(op), start, feed.busy);
            if let Some(first) = first {
                tracer.record("exec.first_report", Some(op), start, first);
            }
            played
        });
        self.process_fallbacks += fallbacks;
        let (inproc, _) = tracer.span("pattern.play_inproc", None, |_, _| {
            self.play(&self.inproc, self.patterns.iter().cloned(), || {})
        });
        if let Some(e) = inproc.error {
            out.check(false, || format!("in-process play: {e}"));
        }
        out
    }

    fn layers(&self, tracer: &Tracer) -> Vec<f64> {
        let inproc = median(&tracer.per_op_seconds("pattern.play_inproc"));
        let worker = median(&tracer.per_op_seconds(OP));
        #[allow(clippy::cast_precision_loss)]
        let fallbacks = self.process_fallbacks as f64;
        vec![
            inproc,
            worker,
            worker - inproc,
            1e3 * median(&tracer.per_op_seconds("exec.first_report")),
            median(&tracer.per_op_seconds("pattern.input_next")),
            fallbacks,
        ]
    }
}
