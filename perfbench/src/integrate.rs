//! The `integrate_soc` workload: the paper's integration layers on the
//! DSC chip and on a fixed list of mid-size synthetic SOCs.

use crate::trace::{Tracer, OP};
use crate::{median, Config, Counts, Outcome, Workload};
use steac_suite::steac::flow::{run_flow, CoreSource, FlowInput};
use steac_suite::steac_dsc::{build_chip, core_stil, dsc_brains, dsc_chip_config, TABLE1};
use steac_suite::steac_sched::{
    schedule_nonsession, schedule_serial, schedule_sessions, ScheduleError, SessionSchedule,
    TestKind, EXHAUSTIVE_LIMIT,
};
use steac_suite::steac_sim::Exec;
use steac_suite::steac_stil::{parse_stil, to_stil_string, CoreTestInfo};
use steac_suite::steac_tam::{share_controls, ControlClass, ControlSignal};
use steac_suite::steac_wrapper::{balance_fixed, balance_soft};
use steac_suite::steac_zoo::{
    check_schedule, glue_netlist, grade_glue, run_soc, seeded_vectors, RunOptions, SocRun,
    SyntheticSoc, Violation, ZooParams,
};

/// Synthetic SOCs per op.
pub const ZOO_SOCS: usize = 6;

/// Core-count band of the list: mid-size SOCs, all above the exhaustive
/// search's task limit.
const ZOO_CORES: (usize, usize) = (8, 24);

/// Synthetic SOCs the list search may roll before giving up.
const ZOO_SEARCH: usize = 10_000;

/// Spans of the layer calls the traced op splits `run_soc` into, plus
/// the DSC flow; `zoo.unaccounted_pct` is the op time they leave out.
const LAYER_SPANS: &[&str] = &[
    "core.flow",
    "tam.share",
    "sched.sessions",
    "wrapper.balance",
    "sched.nonsession",
    "sched.serial",
    "zoo.check",
    "zoo.grade",
];

/// The DSC chip's session count (paper §3).
const DSC_SESSIONS: usize = 3;

/// Memories the DSC chip's BRAINS integration covers (paper Fig. 4).
const DSC_MEMORIES: usize = 22;

/// What one SOC's flow must reproduce on every op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Summary {
    test_cycles: u64,
    tasks: usize,
    sessions: usize,
    faults: usize,
    detected: usize,
}

/// The USB core's control inventory as the paper pins it out.
fn usb_controls() -> Vec<ControlSignal> {
    let mut v: Vec<ControlSignal> = (0..4)
        .map(|i| {
            ControlSignal::new(
                "USB",
                &format!("ck{i}"),
                ControlClass::Clock { freq_mhz: 48 },
            )
        })
        .collect();
    v.extend((0..3).map(|i| ControlSignal::new("USB", &format!("rst{i}"), ControlClass::Reset)));
    v.push(ControlSignal::new("USB", "se", ControlClass::ScanEnable));
    v.extend(
        (0..6).map(|i| ControlSignal::new("USB", &format!("test{i}"), ControlClass::TestEnable)),
    );
    v
}

/// The DSC chip's flow input: its three cores' STIL texts, chip budget
/// and memories.
fn dsc_flow_input() -> Result<FlowInput, String> {
    let (_, params) = build_chip().map_err(|e| format!("build_chip: {e}"))?;
    let stil: Vec<String> = params
        .iter()
        .zip(&TABLE1)
        .map(|(p, row)| to_stil_string(&core_stil(row, p)))
        .collect();
    Ok(FlowInput {
        cores: vec![
            CoreSource::new("USB", &stil[0])
                .with_powers(1.0, 1.0)
                .with_controls(usb_controls()),
            CoreSource::new("TV", &stil[1]).with_powers(0.3, 1.1),
            CoreSource::new("JPEG", &stil[2]).with_powers(1.0, 1.4),
        ],
        config: dsc_chip_config(),
        bist: Some(dsc_brains()),
        bist_powers: vec![1.3, 0.6],
    })
}

/// The first [`ZOO_SOCS`] SOCs of the `zoo_seed` corpus in the
/// [`ZOO_CORES`] band with more tasks than the exhaustive limit.
fn zoo_list(zoo_seed: u64) -> Result<Vec<SyntheticSoc>, String> {
    let params = ZooParams {
        seed: zoo_seed,
        socs: ZOO_SEARCH,
        min_cores: ZOO_CORES.0,
        max_cores: ZOO_CORES.1,
        ..ZooParams::smoke()
    };
    let socs: Vec<SyntheticSoc> = (0..ZOO_SEARCH)
        .map(|i| params.soc(i))
        .filter(|soc| soc.tasks.len() > EXHAUSTIVE_LIMIT)
        .take(ZOO_SOCS)
        .collect();
    if socs.len() < ZOO_SOCS {
        return Err(format!("zoo seed {zoo_seed} gave only {} SOCs", socs.len()));
    }
    Ok(socs)
}

/// Rebuilds every scheduled scan task's wrapper plan at its granted
/// width, as `run_soc`'s wrap check does: the test time must equal the
/// cycles the scheduler booked and no cell may be lost. Returns the
/// wrapper cells placed.
fn balance_wrappers(soc: &SyntheticSoc, schedule: &SessionSchedule) -> Result<usize, String> {
    let mut cells = 0;
    for st in schedule.sessions.iter().flat_map(|s| &s.tasks) {
        let task = &soc.tasks[st.task_index];
        let TestKind::Scan {
            patterns,
            internal_chains,
            inputs,
            outputs,
            soft,
        } = &task.kind
        else {
            continue;
        };
        let width = st.pins / 2;
        if width == 0 {
            return Err(format!("{}: scan task granted {} pins", task.name, st.pins));
        }
        let plan = if *soft {
            balance_soft(internal_chains.iter().sum(), *inputs, *outputs, width)
        } else {
            balance_fixed(internal_chains, *inputs, *outputs, width)
        };
        if plan.test_time(*patterns) != st.cycles {
            return Err(format!(
                "{}: wrapper plan disagrees with the schedule",
                task.name
            ));
        }
        if plan.total_internal_cells() != internal_chains.iter().sum::<usize>()
            || plan.total_boundary_cells() != inputs + outputs
        {
            return Err(format!("{}: wrapper chains lost cells", task.name));
        }
        cells += plan.total_internal_cells() + plan.total_boundary_cells();
    }
    Ok(cells)
}

pub struct IntegrateSoc {
    exec: Exec,
    opts: RunOptions,
    flow: FlowInput,
    socs: Vec<SyntheticSoc>,
}

impl IntegrateSoc {
    /// Runs the DSC flow and checks it against the paper's shape.
    fn dsc_flow(&self, out: &mut Outcome) -> Option<Summary> {
        let r = match run_flow(&self.flow) {
            Ok(r) => r,
            Err(e) => {
                out.check(false, || format!("run_flow: {e}"));
                return None;
            }
        };
        out.check(r.schedule.sessions.len() == DSC_SESSIONS, || {
            format!("DSC flow: {} sessions", r.schedule.sessions.len())
        });
        out.check(r.nonsession.is_ok(), || {
            "DSC flow: no non-session baseline".into()
        });
        let memories = r.bist.as_ref().map_or(0, |b| b.per_memory.len());
        out.check(memories == DSC_MEMORIES, || {
            format!("DSC flow: {memories} memories")
        });
        Some(Summary {
            test_cycles: r.schedule.total_cycles,
            tasks: r.tasks.len(),
            sessions: r.schedule.sessions.len(),
            faults: 0,
            detected: 0,
        })
    }

    /// Checks one SOC's `run_soc` result and summarizes it.
    fn check_run(
        soc: &SyntheticSoc,
        run: &Result<SocRun, ScheduleError>,
        out: &mut Outcome,
    ) -> Option<Summary> {
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                out.check(false, || format!("{}: {e}", soc.name));
                return None;
            }
        };
        check_violations(&soc.name, &run.violations, out);
        out.check(run.serial.is_ok(), || {
            format!("{}: no serial schedule", soc.name)
        });
        let grading = run.grading.as_ref();
        out.check(grading.is_some_and(|g| g.process_fallbacks == 0), || {
            format!("{}: grading {grading:?}", soc.name)
        });
        Some(Summary {
            test_cycles: run.schedule.total_cycles,
            tasks: soc.tasks.len(),
            sessions: run.schedule.sessions.len(),
            faults: grading.map_or(0, |g| g.total),
            detected: grading.map_or(0, |g| g.detected),
        })
    }

    /// Folds the op's per-SOC summaries into its outcome; they are its
    /// fingerprint, which every op of the run must reproduce.
    fn finish(&self, summaries: &[Summary], mut out: Outcome) -> Outcome {
        let total = |f: fn(&Summary) -> usize| summaries.iter().map(f).sum::<usize>() as u64;
        out.counts = Counts {
            tasks: total(|s| s.tasks),
            sessions: total(|s| s.sessions),
            faults: total(|s| s.faults),
            detected: total(|s| s.detected),
            ..Counts::default()
        };
        #[allow(clippy::cast_precision_loss)]
        {
            out.work = out.counts.tasks as f64;
        }
        out.test_cycles = summaries.iter().map(|s| s.test_cycles).sum();
        out.check(summaries.len() == 1 + self.socs.len(), || {
            format!(
                "{} of {} SOCs completed",
                summaries.len(),
                1 + self.socs.len()
            )
        });
        out.fingerprint = format!("{summaries:?}");
        out
    }
}

fn check_violations(name: &str, violations: &[Violation], out: &mut Outcome) {
    out.check(violations.is_empty(), || {
        format!(
            "{name}: {} invariant violations, first {:?}",
            violations.len(),
            violations[0]
        )
    });
}

impl Workload for IntegrateSoc {
    const BUSY_THREADS: usize = 1;

    const LAYERS: &'static [(&'static str, &'static str)] = &[
        ("core.flow_ms", "ms"),
        ("stil.parse_ms", "ms"),
        ("tam.share_ms", "ms"),
        ("sched.sessions_ms", "ms"),
        ("sched.nonsession_ms", "ms"),
        ("sched.serial_ms", "ms"),
        ("wrapper.balance_ms", "ms"),
        ("zoo.check_ms", "ms"),
        ("zoo.grade_ms", "ms"),
        ("zoo.unaccounted_pct", "%"),
    ];

    /// Builds the DSC chip's STIL texts and the zoo SOC list.
    fn setup(cfg: &Config) -> Result<Self, String> {
        Ok(IntegrateSoc {
            exec: Exec::serial(),
            opts: RunOptions::default(),
            flow: dsc_flow_input()?,
            socs: zoo_list(cfg.zoo_seed)?,
        })
    }

    fn op(&mut self) -> Outcome {
        let mut out = Outcome::default();
        let mut summaries = Vec::with_capacity(1 + self.socs.len());
        summaries.extend(self.dsc_flow(&mut out));
        for soc in &self.socs {
            let run = run_soc(soc, &self.exec, &self.opts);
            summaries.extend(Self::check_run(soc, &run, &mut out));
        }
        self.finish(&summaries, out)
    }

    /// The op itself, with the DSC flow as a child span; then, outside
    /// the op, each SOC's layers called one by one as `run_soc` calls
    /// them, each result compared with the op's, and the STIL parse of
    /// the DSC cores.
    fn traced_op(&mut self, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut summaries = Vec::with_capacity(1 + self.socs.len());
        let runs: Vec<_> = tracer.span(OP, None, |tracer, op| {
            let dsc = tracer.span("core.flow", Some(op), |_, _| self.dsc_flow(&mut out));
            summaries.extend(dsc);
            self.socs
                .iter()
                .map(|soc| run_soc(soc, &self.exec, &self.opts))
                .collect()
        });
        for (soc, run) in self.socs.iter().zip(&runs) {
            summaries.extend(Self::check_run(soc, run, &mut out));
            if let Ok(run) = run {
                self.layer_calls(tracer, soc, run, &mut out);
            }
        }
        tracer.span("stil.parse", None, |_, _| {
            for core in &self.flow.cores {
                let info = parse_stil(&core.stil_text)
                    .and_then(|file| CoreTestInfo::from_stil(&core.name, &file));
                out.check(info.is_ok(), || format!("{}: {:?}", core.name, info.err()));
            }
        });
        self.finish(&summaries, out)
    }

    fn layers(&self, tracer: &Tracer) -> Vec<f64> {
        let ms = |name: &str| 1e3 * median(&tracer.per_op_seconds(name));
        let layers = tracer.per_op(LAYER_SPANS);
        let unaccounted: Vec<f64> = tracer
            .per_op(&[OP])
            .iter()
            .map(|(op, total)| 100.0 * (1.0 - layers.get(op).unwrap_or(&0.0) / total))
            .collect();
        vec![
            ms("core.flow"),
            ms("stil.parse"),
            ms("tam.share"),
            ms("sched.sessions"),
            ms("sched.nonsession"),
            ms("sched.serial"),
            ms("wrapper.balance"),
            ms("zoo.check"),
            ms("zoo.grade"),
            median(&unaccounted),
        ]
    }
}

impl IntegrateSoc {
    /// Calls `run_soc`'s layers for one SOC one by one, in its order and
    /// with its arguments, one root span each. Every result must equal
    /// the matching field of the op's `run`, so a layer the op no longer
    /// calls that way fails the op instead of timing something else.
    fn layer_calls(
        &self,
        tracer: &mut Tracer,
        soc: &SyntheticSoc,
        run: &SocRun,
        out: &mut Outcome,
    ) {
        let mut same = |layer: &str, ok: bool| {
            out.check(ok, || format!("{}: {layer} differs from run_soc", soc.name));
        };
        let control = tracer.span("tam.share", None, |_, _| {
            let signals: Vec<ControlSignal> = soc
                .tasks
                .iter()
                .flat_map(|t| t.controls.iter().cloned())
                .collect();
            share_controls(&signals, &soc.config.session_share)
        });
        same("tam.share", control == run.control);
        let schedule = tracer.span("sched.sessions", None, |_, _| {
            schedule_sessions(&soc.tasks, &soc.config)
        });
        same(
            "sched.sessions",
            schedule.as_ref().ok() == Some(&run.schedule),
        );
        let cells = tracer.span("wrapper.balance", None, |_, _| {
            balance_wrappers(soc, &run.schedule)
        });
        same("wrapper.balance", cells == Ok(run.wrapped_cells));
        let nonsession = tracer.span("sched.nonsession", None, |_, _| {
            schedule_nonsession(&soc.tasks, &soc.config)
        });
        same("sched.nonsession", nonsession == run.nonsession);
        let serial = tracer.span("sched.serial", None, |_, _| {
            schedule_serial(&soc.tasks, &soc.config)
        });
        same("sched.serial", serial == run.serial);
        let violations = tracer.span("zoo.check", None, |_, _| {
            let mut v = check_schedule(soc, &run.schedule);
            let shared = control.shared_pins();
            v.extend(
                run.schedule
                    .sessions
                    .iter()
                    .filter(|s| s.control_pins > shared)
                    .map(|s| Violation::ControlMismatch {
                        session: usize::MAX,
                        recorded: s.control_pins,
                        derived: shared,
                    }),
            );
            v
        });
        same("zoo.check", violations == run.violations);
        let grading = tracer.span("zoo.grade", None, |_, _| {
            let module = glue_netlist(soc);
            let pins: Vec<_> = module
                .ports_with_dir(steac_suite::steac_netlist::PortDir::Input)
                .map(|port| port.net)
                .collect();
            let vectors = seeded_vectors(soc.seed, pins.len(), self.opts.vectors);
            grade_glue(&self.exec, &module, &pins, &vectors, self.opts.model)
        });
        same("zoo.grade", run.grading.as_ref() == Some(&grading));
    }
}
