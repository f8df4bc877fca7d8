//! One run of one workload: repeated set-up, the timed passes, the
//! calibration samples interleaved with them, and the checks after each.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use specmt_exec::panic_message;
use specmt_workloads::Scale;

use crate::check::Checker;
use crate::host;
use crate::probe::{Delay, Probe, Span};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 15 paper figures against a fresh, empty store.
    FiguresCold,
    /// The same figures against a store set-up already populated.
    FiguresWarm,
    /// Clean engine throughput over four configurations, store off.
    EngineSuite,
    /// The `--metrics json` and `--metrics chrome` paths.
    ObserveReport,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::FiguresCold,
        Workload::FiguresWarm,
        Workload::EngineSuite,
        Workload::ObserveReport,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresCold => "figures_cold",
            Workload::FiguresWarm => "figures_warm",
            Workload::EngineSuite => "engine_suite",
            Workload::ObserveReport => "observe_report",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scale the workload runs at unless a test overrides it.
    pub fn default_scale(self) -> Scale {
        match self {
            Workload::EngineSuite => Scale::Large,
            _ => Scale::Medium,
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Input seed (see each workload for how it is used).
    pub seed: u64,
    /// Length of the timed phase, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The scale the workload runs at.
    pub scale: Scale,
    /// Optional busy delay before calls into one layer.
    pub delay: Option<Delay>,
    /// Record digests as references instead of comparing.
    pub bless: bool,
    /// Private directory for this run's stores; removed when the run ends.
    pub work_dir: PathBuf,
    /// Where `figures_cold` keeps its store instead, left in place after
    /// the run (`figures_warm`'s set-up populates its store this way).
    pub store_dir: Option<PathBuf>,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Wall seconds of each untraced timed pass.
    pub wall: Vec<f64>,
    /// Wall seconds of each traced timed pass.
    pub traced_wall: Vec<f64>,
    /// CPU seconds ÷ (wall × jobs) of each untraced pass.
    pub cpu_util: Vec<f64>,
    /// Wall seconds of each set-up repetition.
    pub setup: Vec<f64>,
    /// Calibration kernel seconds, one sample before each pass.
    pub calib: Vec<f64>,
    /// Run ids of the set-up repetitions.
    pub setup_runs: Vec<u32>,
    /// Run ids of the traced passes.
    pub traced_runs: Vec<u32>,
    /// Simulated committed instructions each pass delivers.
    pub sim_insts_per_pass: u64,
    /// The Fig 3 harmonic-mean speed-up the workload computed.
    pub fig3_hmean: f64,
    /// Worker threads the workload's batches use.
    pub jobs: usize,
    /// Dynamic instructions of each benchmark's traces (all inputs), by
    /// benchmark.
    pub bench_insts: BTreeMap<String, u64>,
    /// Per-layer counts set directly by the workload.
    pub counts: BTreeMap<String, f64>,
    /// The spans of the traced runs.
    pub spans: Vec<Span>,
    /// The output checks.
    pub checker: Checker,
    /// `VmHWM` when the first untraced pass ends, in MB: the peak of
    /// set-up plus one pass, what a user running the workload once sees.
    /// Later passes would only add the allocator's retained memory.
    pub peak_rss_mb: f64,
    /// Why the seed does or does not matter for this workload.
    pub seed_note: String,
}

/// A run in progress.
pub struct Session {
    /// What to run.
    pub opts: Opts,
    /// Spans and delay.
    pub probe: Probe,
    /// What has been measured so far.
    pub out: Outcome,
}

impl Session {
    /// A session for `opts`, checking against `checker`'s references.
    pub fn new(opts: Opts, checker: Checker) -> Session {
        let probe = Probe::new(opts.delay.clone());
        Session {
            opts,
            probe,
            out: Outcome {
                wall: Vec::new(),
                traced_wall: Vec::new(),
                cpu_util: Vec::new(),
                setup: Vec::new(),
                calib: Vec::new(),
                setup_runs: Vec::new(),
                traced_runs: Vec::new(),
                sim_insts_per_pass: 0,
                fig3_hmean: 0.0,
                jobs: 1,
                bench_insts: BTreeMap::new(),
                counts: BTreeMap::new(),
                spans: Vec::new(),
                checker,
                peak_rss_mb: 0.0,
                seed_note: String::new(),
            },
        }
    }

    /// The scale as it appears in digest keys.
    pub fn scale_name(&self) -> String {
        format!("{:?}", self.opts.scale).to_lowercase()
    }

    /// Runs `setup` [`SETUP_REPS`] times, timing each, and keeps the last
    /// state. Earlier states are dropped before the next repetition, so
    /// peak memory is that of one.
    ///
    /// # Errors
    ///
    /// The first repetition's error; a panic is reported as an error.
    pub fn setup<S>(
        &mut self,
        mut setup: impl FnMut(&mut Session) -> Result<S, String>,
    ) -> Result<S, String> {
        let mut state = None;
        for _ in 0..SETUP_REPS {
            drop(state.take());
            let run = self.probe.begin_run(self.opts.trace);
            self.out.setup_runs.push(run);
            let start = Instant::now();
            let built = catch_unwind(AssertUnwindSafe(|| setup(self))).unwrap_or_else(|p| {
                Err(format!("set-up panicked: {}", panic_message(p.as_ref())))
            })?;
            self.out.setup.push(start.elapsed().as_secs_f64());
            state = Some(built);
        }
        state.ok_or_else(|| "no set-up repetition ran".to_owned())
    }

    /// Runs timed passes until `opts.seconds` have elapsed, and at least
    /// one of each kind has run (half the passes are traced in the traced
    /// run). Before each pass: a calibration sample and `prep`, which is
    /// untimed and, with `prep_is_setup`, recorded as a set-up sample.
    /// After each: `check`, untimed. A pass that panics is one failed
    /// operation and ends the loop.
    pub fn passes<S, O>(
        &mut self,
        state: &mut S,
        prep_is_setup: bool,
        mut prep: impl FnMut(&mut S) -> Result<(), String>,
        mut body: impl FnMut(&mut S, &mut Probe) -> O,
        mut check: impl FnMut(&mut S, O, &mut Outcome),
    ) {
        let start = Instant::now();
        let mut i = 0usize;
        loop {
            // Untraced and traced passes alternate in pairs (u t t u u t t
            // ...), so drift over the run weighs on both kinds alike.
            let traced = self.opts.trace && matches!(i % 4, 1 | 2);
            let enough = start.elapsed().as_secs_f64() >= self.opts.seconds
                && !self.out.wall.is_empty()
                && (!self.opts.trace || !self.out.traced_wall.is_empty());
            if enough {
                break;
            }
            self.out.calib.push(host::calibrate());
            let prep_start = Instant::now();
            if let Err(e) = prep(state) {
                self.out.checker.fail(e);
                break;
            }
            if prep_is_setup {
                self.out.setup.push(prep_start.elapsed().as_secs_f64());
            }
            let run = self.probe.begin_run(traced);
            let cpu0 = host::cpu_seconds();
            let t0 = Instant::now();
            let span = self.probe.open(|| "workload".to_owned());
            let probe = &mut self.probe;
            let result = catch_unwind(AssertUnwindSafe(|| body(state, probe)));
            self.probe.close(span, Vec::new());
            let wall = t0.elapsed().as_secs_f64();
            let cpu = host::cpu_seconds() - cpu0;
            match result {
                Ok(o) => {
                    if traced {
                        self.out.traced_wall.push(wall);
                        self.out.traced_runs.push(run);
                    } else {
                        if self.out.wall.is_empty() {
                            self.out.peak_rss_mb = host::peak_rss_mb();
                        }
                        self.out.wall.push(wall);
                        self.out.cpu_util.push(cpu / (wall * self.out.jobs as f64));
                    }
                    check(state, o, &mut self.out);
                }
                Err(p) => {
                    self.out
                        .checker
                        .fail(format!("pass panicked: {}", panic_message(p.as_ref())));
                    break;
                }
            }
            i += 1;
        }
    }

    /// Ends the run and takes the spans.
    pub fn finish(mut self) -> Outcome {
        self.out.spans = self.probe.spans().to_vec();
        self.out
    }
}
