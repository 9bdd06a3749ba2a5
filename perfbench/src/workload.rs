//! The three study workloads and one untraced repetition of each, driven
//! through `sct_harness::run_benchmark` exactly as the study CLI drives it.

use sct_core::corpus::{Corpus, CorpusError};
use sct_core::telemetry::Telemetry;
use sct_core::ExplorationStats;
use sct_harness::{run_benchmark, BenchmarkResult, HarnessConfig};
use sct_ir::Program;
use sctbench::{all_benchmarks, BenchmarkSpec};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The `HarnessConfig.seed` values the benchmark runs with. `--seed n`
/// selects `UNIT_SEEDS[n % len]`, so the same `--seed` always gives the same
/// inputs and every seed has a recorded reference. Entry 0 is the study
/// CLI's default seed; entry 1 is the held-out seed.
pub const UNIT_SEEDS: [u64; 8] = [
    0x5c7_bec4,
    0x0bad_5eed,
    1,
    2,
    3,
    0xdead_beef,
    0x1234_5678,
    0x00c0_ffee,
];

/// The unit seed `--seed n` selects.
pub fn unit_seed(n: u64) -> u64 {
    UNIT_SEEDS[(n % UNIT_SEEDS.len() as u64) as usize]
}

const WIDE: &str = "CS.twostage_100_bad";

const CAMPAIGN: [&str; 9] = [
    "CS.reorder_3_bad",
    "CS.reorder_4_bad",
    "CS.reorder_5_bad",
    "CS.reorder_10_bad",
    "CS.reorder_20_bad",
    "CS.wronglock_bad",
    "CS.wronglock_3_bad",
    "misc.safestack",
    "parsec.ferret",
];

/// A fixed set of benchmark × technique units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `CS.twostage_100_bad` alone (101 threads).
    Wide,
    /// The other 51 benchmarks, one after another.
    Narrow,
    /// Nine cache-friendly benchmarks in campaign mode: a cold pass that
    /// writes a fresh corpus, then a resume pass that reads it back.
    Campaign,
}

/// One pass over a workload's benchmarks. Only `campaign` has two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// The one pass of `wide` and `narrow`.
    Study,
    /// Campaign pass into an empty corpus directory.
    Cold,
    /// Campaign pass resuming from the corpus the cold pass wrote.
    Resume,
}

impl Pass {
    /// Name used in reference rows.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Study => "study",
            Pass::Cold => "cold",
            Pass::Resume => "resume",
        }
    }
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::Wide, Workload::Narrow, Workload::Campaign];

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Wide => "wide",
            Workload::Narrow => "narrow",
            Workload::Campaign => "campaign",
        }
    }

    /// Terminal-schedule limit of every technique unit. At the paper's
    /// 10,000 one `wide` repetition takes about a minute on a 2-core x86-64
    /// VM. `narrow` and `campaign` run at 500 (about 0.6 s a repetition);
    /// `wide` at 125 (about 0.6 s too), so a 30 s run holds some 50
    /// repetitions and every call's fastest one is rarely disturbed.
    pub fn schedule_limit(self) -> u64 {
        match self {
            Workload::Wide => 125,
            Workload::Narrow | Workload::Campaign => 500,
        }
    }

    /// The passes of one repetition, in order.
    pub fn passes(self) -> &'static [Pass] {
        match self {
            Workload::Wide | Workload::Narrow => &[Pass::Study],
            Workload::Campaign => &[Pass::Cold, Pass::Resume],
        }
    }

    fn selects(self, name: &str) -> bool {
        match self {
            Workload::Wide => name == WIDE,
            Workload::Narrow => name != WIDE,
            Workload::Campaign => CAMPAIGN.contains(&name),
        }
    }

    /// The harness configuration of one pass, on one worker. `corpus_dir` is
    /// used by the campaign passes only.
    pub fn config(self, seed: u64, pass: Pass, corpus_dir: &Path) -> HarnessConfig {
        let campaign = self == Workload::Campaign;
        HarnessConfig {
            schedule_limit: self.schedule_limit(),
            seed,
            workers: 1,
            cache: campaign,
            corpus_dir: campaign.then(|| corpus_dir.to_path_buf()),
            resume: pass == Pass::Resume,
            quiet: true,
            telemetry: Telemetry::off(),
            ..HarnessConfig::default()
        }
    }
}

/// What set-up builds: the workload's specs, their programs, and (for
/// `campaign`) the opened corpus directory.
pub struct Setup {
    /// The workload's benchmarks, in registry order.
    pub specs: Vec<BenchmarkSpec>,
    /// `specs[i].program()`, built as the study's set-up builds them
    /// (`run_benchmark` builds its own copy).
    pub programs: Vec<Program>,
    /// Directory the campaign corpus lives in (created by set-up).
    pub corpus_dir: PathBuf,
}

/// Build the workload's specs and programs and open its corpus directory.
pub fn setup(workload: Workload, work_dir: &Path) -> Result<Setup, CorpusError> {
    let specs: Vec<BenchmarkSpec> = all_benchmarks()
        .into_iter()
        .filter(|s| workload.selects(s.name))
        .collect();
    let programs = specs.iter().map(|s| s.program()).collect();
    let corpus_dir = work_dir.join("corpus");
    if workload == Workload::Campaign {
        Corpus::open(&corpus_dir)?;
    }
    Ok(Setup {
        specs,
        programs,
        corpus_dir,
    })
}

/// One benchmark × technique unit's result.
#[derive(Debug, Clone)]
pub struct UnitRow {
    /// The pass the unit ran in.
    pub pass: Pass,
    /// Benchmark name.
    pub benchmark: String,
    /// Races found by the benchmark's race phase.
    pub races: usize,
    /// Locations the race phase promoted to visible operations.
    pub racy_locations: usize,
    /// The unit's statistics.
    pub stats: ExplorationStats,
}

/// One timed `run_benchmark` call.
#[derive(Debug, Clone)]
pub struct BenchmarkCall {
    /// Wall time of the call.
    pub wall: Duration,
    /// Process CPU time (user + system) during the call.
    pub cpu: Duration,
    /// The call's result.
    pub result: BenchmarkResult,
}

/// One untraced repetition of a workload.
#[derive(Debug, Clone)]
pub struct Repetition {
    /// Wall time of the whole repetition.
    pub wall: Duration,
    /// Every `run_benchmark` call, in order.
    pub calls: Vec<BenchmarkCall>,
}

impl Repetition {
    /// Every unit's row, in run order.
    pub fn rows(&self, workload: Workload) -> Vec<UnitRow> {
        let passes = workload.passes();
        let per_pass = self.calls.len() / passes.len();
        self.calls
            .iter()
            .enumerate()
            .flat_map(|(i, call)| {
                let pass = passes[i / per_pass.max(1)];
                call.result.techniques.iter().map(move |t| UnitRow {
                    pass,
                    benchmark: call.result.name.clone(),
                    races: call.result.races,
                    racy_locations: call.result.racy_locations,
                    stats: t.clone(),
                })
            })
            .collect()
    }

    /// Terminal schedules summed over every unit.
    pub fn schedules(&self) -> u64 {
        self.calls
            .iter()
            .flat_map(|c| &c.result.techniques)
            .map(|t| t.schedules)
            .sum()
    }

    /// Program executions summed over every unit.
    pub fn executions(&self) -> u64 {
        self.calls
            .iter()
            .flat_map(|c| &c.result.techniques)
            .map(|t| t.executions)
            .sum()
    }
}

/// Run one repetition: every pass over every benchmark, through
/// `run_benchmark` with `workers` technique workers. A campaign repetition
/// starts from an empty corpus directory; clearing it is not timed.
pub fn run_repetition(
    workload: Workload,
    setup: &Setup,
    seed: u64,
    workers: usize,
    telemetry: &Telemetry,
) -> Result<Repetition, CorpusError> {
    if workload == Workload::Campaign {
        clear_dir(&setup.corpus_dir)?;
    }
    let started = Instant::now();
    let mut calls = Vec::new();
    for &pass in workload.passes() {
        let config = HarnessConfig {
            workers,
            telemetry: telemetry.clone(),
            ..workload.config(seed, pass, &setup.corpus_dir)
        };
        for spec in &setup.specs {
            let (cpu_started, call_started) = (crate::os::cpu_time(), Instant::now());
            let result = run_benchmark(spec, &config)?;
            calls.push(BenchmarkCall {
                wall: call_started.elapsed(),
                cpu: crate::os::cpu_time() - cpu_started,
                result,
            });
        }
    }
    Ok(Repetition {
        wall: started.elapsed(),
        calls,
    })
}

/// Remove `dir` and everything in it, if it exists.
pub fn clear_dir(dir: &Path) -> Result<(), CorpusError> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(CorpusError::Io(e)),
        _ => Ok(()),
    }
}
