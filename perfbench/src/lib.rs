//! The repository benchmark. `src/main.rs` is the command; this library
//! holds the workloads, the measured run, the traced run and the reference
//! check. See `README.md` beside this crate for the metric definitions.

pub mod alloc;
pub mod layers;
pub mod os;
pub mod reference;
pub mod spans;
pub mod workload;

use reference::Check;
use sct_core::corpus::CorpusError;
use sct_core::telemetry::{JsonlRecorder, Telemetry};
use sct_harness::{run_benchmark, table3_csv, HarnessConfig, StudyResults};
use spans::Tracer;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use workload::{run_repetition, unit_seed, Pass, Repetition, Setup, Workload};

/// Set-ups timed before each repetition; `setup_s` summarises all of them.
pub const SETUPS_PER_REPETITION: usize = 5;

/// Fewest timed repetitions in a run, however short `--seconds` is.
pub const MIN_REPETITIONS: usize = 3;

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result line of a run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Units checked and passed, with failures listed.
    pub check: Check,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.check.passed(),
            self.check.attempted.max(1),
            self.check.failed
        )
    }

    /// Every metric by name, value and unit, one a line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        out
    }
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A run's timed repetitions and the set-up times taken before each.
struct Repetitions {
    setup: Setup,
    setups: Vec<f64>,
    reps: Vec<Repetition>,
}

/// Set up [`SETUPS_PER_REPETITION`] times (timing each) and keep the last.
fn set_up(workload: Workload, work_dir: &Path, times: &mut Vec<f64>) -> Result<Setup, CorpusError> {
    let mut last = None;
    for _ in 0..SETUPS_PER_REPETITION {
        let started = Instant::now();
        last = Some(workload::setup(workload, work_dir)?);
        times.push(secs(started.elapsed()));
    }
    Ok(last.expect("SETUPS_PER_REPETITION > 0"))
}

/// One untimed warm-up repetition, then timed repetitions, each after its
/// set-ups, until `seconds` have passed and at least [`MIN_REPETITIONS`]
/// ran. Every repetition's units are checked against the reference.
fn repetitions(
    workload: Workload,
    seed: u64,
    seconds: f64,
    work_dir: &Path,
    check: &mut Check,
) -> Result<Repetitions, CorpusError> {
    let run = |setup: &Setup, check: &mut Check| -> Result<Repetition, CorpusError> {
        let rep = run_repetition(workload, setup, seed, 1, &Telemetry::off())?;
        check.add(reference::check(
            reference::recorded(workload),
            seed,
            &rep.rows(workload),
        ));
        Ok(rep)
    };
    let mut setup = set_up(workload, work_dir, &mut Vec::new())?;
    run(&setup, check)?;
    let started = Instant::now();
    let (mut setups, mut reps) = (Vec::new(), Vec::new());
    while reps.len() < MIN_REPETITIONS || secs(started.elapsed()) < seconds {
        setup = set_up(workload, work_dir, &mut setups)?;
        reps.push(run(&setup, check)?);
    }
    eprintln!(
        "repetition walls (s): {:.4?}",
        reps.iter().map(|r| secs(r.wall)).collect::<Vec<_>>()
    );
    Ok(Repetitions {
        setup,
        setups,
        reps,
    })
}

/// The workload's time estimated from its fastest observations: for every
/// `run_benchmark` call of a repetition, the smallest `time` that call took
/// over all repetitions, summed over calls. Neighbouring load on a shared
/// host slows seconds-long phases by 10–40%; each call's fastest run is its
/// least disturbed one.
pub fn fastest_calls(
    reps: &[Repetition],
    time: impl Fn(&workload::BenchmarkCall) -> Duration,
) -> f64 {
    let calls = reps.first().map_or(0, |r| r.calls.len());
    (0..calls)
        .map(|i| {
            reps.iter()
                .map(|r| secs(time(&r.calls[i])))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The measured run (`--trace 0`): the end-to-end metrics.
pub fn measure(
    workload: Workload,
    seed_arg: u64,
    seconds: f64,
    work_dir: &Path,
) -> Result<Report, CorpusError> {
    let seed = unit_seed(seed_arg);
    let mut report = Report::default();
    let Repetitions { setups, reps, .. } =
        repetitions(workload, seed, seconds, work_dir, &mut report.check)?;
    let setup_s = median(&setups);
    let wall_s = fastest_calls(&reps, |c| c.wall);
    let cpu_s = fastest_calls(&reps, |c| c.cpu);
    let check = &report.check;
    let pass_rate = 1.0 - check.failed as f64 / check.attempted.max(1) as f64;
    report.push("setup_s", setup_s, "s");
    report.push("wall_s", wall_s, "s");
    report.push("cpu_s", cpu_s, "s");
    report.push(
        "schedules_per_s",
        reps[0].schedules() as f64 / wall_s,
        "1/s",
    );
    report.push("peak_rss_mb", os::peak_rss_mb(), "MiB");
    report.push("unit_pass_rate", pass_rate, "ratio");
    Ok(report)
}

/// Busy share of the technique workers, and idle worker time per worker,
/// over one repetition's `run_benchmark` calls: a call keeps `workers`
/// threads for its wall time and is busy for its race phase plus every
/// unit's exploration time.
fn harness_figures(rep: &Repetition, workers: usize) -> (f64, f64) {
    let (mut busy, mut capacity) = (0u64, 0u64);
    for call in &rep.calls {
        let units = &call.result.techniques;
        busy += units.first().map_or(0, |t| t.race_nanos);
        busy += units.iter().map(|t| t.explore_nanos).sum::<u64>();
        capacity += call.wall.as_nanos() as u64 * workers as u64;
    }
    let idle = capacity.saturating_sub(busy) as f64 / workers as f64 / 1e9;
    (busy as f64 / capacity.max(1) as f64, idle)
}

/// The traced run (`--trace 1`): untraced repetitions as the baseline, one
/// traced pass, then the layer probes. Returns the per-layer metrics and the
/// recorded spans as JSON lines.
pub fn trace(
    workload: Workload,
    seed_arg: u64,
    seconds: f64,
    work_dir: &Path,
) -> Result<(Report, String), CorpusError> {
    let seed = unit_seed(seed_arg);
    let mut report = Report::default();
    let Repetitions { setup, reps, .. } =
        repetitions(workload, seed, seconds, work_dir, &mut report.check)?;
    let wall_s = fastest_calls(&reps, |c| c.wall);
    // Overheads compare single passes with the typical repetition.
    let baseline = median(&reps.iter().map(|r| secs(r.wall)).collect::<Vec<_>>());

    let tracer = Tracer::default();
    let traced = layers::traced_pass(workload, &setup, seed, &tracer)?;
    report.check.add(reference::check(
        reference::recorded(workload),
        seed,
        &traced.rows,
    ));
    let spans = tracer.snapshot();
    let self_s = spans::layer_self_seconds(&spans);
    let mean_span = |name: &str| {
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect();
        (d.iter().sum::<f64>(), d.len().max(1) as f64)
    };
    let root = &spans[0];
    let root_ns = (root.end - root.start) as f64;

    let runtime = layers::runtime_probe(&traced.inputs);
    let (scheduler, scheduler_share) = layers::scheduler_probe(&traced.inputs, seed);
    let mut corpus_probe = layers::CorpusProbe::open(&work_dir.join("probe-corpus"))?;
    let (cache, cache_check) = layers::cache_probe(&traced.inputs, &mut corpus_probe)?;
    report.check.add(cache_check);
    let (corpus, corpus_check) = corpus_probe.finish();
    report.check.add(corpus_check);
    let (steal_speedup, steal_check) = layers::steal_probe(&traced.inputs);
    report.check.add(steal_check);
    // The `--workers 2` technique fan-out, which the measured runs leave out.
    let fanout = run_repetition(workload, &setup, seed, 2, &Telemetry::off())?;
    report.check.add(reference::check(
        reference::recorded(workload),
        seed,
        &fanout.rows(workload),
    ));
    let (busy_fraction, tail_s) = harness_figures(&fanout, 2);
    let jsonl =
        JsonlRecorder::create(&work_dir.join("telemetry.jsonl")).map_err(CorpusError::Io)?;
    let telemetry = Telemetry::new(vec![Box::new(jsonl)]);
    let with_jsonl = run_repetition(workload, &setup, seed, 1, &telemetry)?;
    drop(telemetry);
    report.check.add(reference::check(
        reference::recorded(workload),
        seed,
        &with_jsonl.rows(workload),
    ));

    let (sum, n) = mean_span("sctbench.program");
    report.push("sctbench.program_us", sum / n / 1e3, "us");
    let (sum, n) = mean_span("analysis.analyze");
    report.push("analysis.analyze_us", sum / n / 1e3, "us");
    let (sum, n) = mean_span("race.phase");
    report.push("race.phase_ms", sum / n / 1e6, "ms");
    report.push(
        "race.ns_per_execution",
        sum / traced.race_executions.max(1) as f64,
        "ns",
    );
    report.push("runtime.step_ns", runtime.step_ns, "ns");
    report.push("runtime.enabled_ns", runtime.enabled_ns, "ns");
    report.push("runtime.point_ns", runtime.point_ns, "ns");
    report.push("runtime.reset_ns", runtime.reset_ns, "ns");
    report.push("runtime.run_overhead_ns", runtime.run_overhead_ns, "ns");
    report.push("runtime.steps_per_exec", runtime.steps_per_exec, "count");
    report.push("runtime.mean_enabled", runtime.mean_enabled, "count");
    report.push("runtime.allocs_per_step", runtime.allocs_per_step, "count");
    report.push(
        "runtime.alloc_bytes_per_step",
        runtime.alloc_bytes_per_step,
        "B",
    );
    report.push(
        "runtime.executions_per_s",
        reps[0].executions() as f64 / wall_s,
        "1/s",
    );
    for label in ["ipb", "idb", "dfs", "rand"] {
        let t = scheduler.get(label).copied().unwrap_or_default();
        report.push(
            format!("scheduler.{label}.choose_ns"),
            t.choose_nanos as f64 / t.choices.max(1) as f64,
            "ns",
        );
        report.push(
            format!("scheduler.{label}.backtrack_ns"),
            t.backtrack_nanos as f64 / t.executions.max(1) as f64,
            "ns",
        );
    }
    report.push("explore.scheduler_share", scheduler_share, "ratio");
    report.push("cache.hit_rate", cache.hit_rate, "ratio");
    report.push("cache.ns_per_hit", cache.ns_per_hit, "ns");
    report.push("cache.insert_overhead_ns", cache.insert_overhead_ns, "ns");
    report.push("cache.bytes", cache.bytes as f64, "B");
    report.push("corpus.bytes", corpus.bytes as f64, "B");
    report.push("corpus.encode_mb_per_s", corpus.encode_mb_per_s, "MB/s");
    report.push("corpus.decode_mb_per_s", corpus.decode_mb_per_s, "MB/s");
    report.push("corpus.save_ms", corpus.save_ms, "ms");
    report.push("corpus.load_ms", corpus.load_ms, "ms");
    report.push("harness.busy_fraction", busy_fraction, "ratio");
    report.push("harness.tail_s", tail_s, "s");
    report.push("steal.speedup_2w", steal_speedup, "x");
    report.push(
        "telemetry.jsonl_overhead_pct",
        (secs(with_jsonl.wall) / baseline - 1.0) * 100.0,
        "%",
    );
    for layer in [
        "sctbench",
        "analysis",
        "race",
        "explore",
        "scheduler",
        "corpus",
        "harness",
        "bench",
    ] {
        report.push(
            format!("{layer}.self_s"),
            self_s.get(layer).copied().unwrap_or(0.0),
            "s",
        );
    }
    report.push(
        "bench.trace_overhead_pct",
        (secs(traced.wall) / baseline - 1.0) * 100.0,
        "%",
    );
    report.push(
        "bench.unattributed_share",
        self_s.get("bench").copied().unwrap_or(0.0) * 1e9 / root_ns,
        "ratio",
    );
    Ok((report, spans::to_jsonl(&spans)))
}

/// Record the reference rows of `workload` for every unit seed.
pub fn record_references(workload: Workload, work_dir: &Path) -> Result<String, CorpusError> {
    let setup = workload::setup(workload, work_dir)?;
    let mut out = String::from(reference::HEADER);
    for seed in workload::UNIT_SEEDS {
        let rep = run_repetition(workload, &setup, seed, 1, &Telemetry::off())?;
        out.push_str(&reference::render(seed, &rep.rows(workload)));
    }
    Ok(out)
}

/// Columns 1–27 of `table3.csv` rows, header included.
fn table3_prefix(csv: &str) -> Vec<String> {
    csv.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| l.split(',').take(27).collect::<Vec<_>>().join(","))
        .collect()
}

/// Run `wide` once at `schedule_limit` with the default unit seed, render
/// its units as `table3.csv`, and list every line whose columns 1–27 differ
/// from `cli_csv` (a `table3.csv` written by `sct-experiments --filter
/// CS.twostage_100_bad --workers 2` at the same limit). Empty means the
/// benchmark and the study CLI ran the same pipeline (the statistics do not
/// depend on the worker count).
pub fn cross_check(
    cli_csv: &str,
    schedule_limit: u64,
    work_dir: &Path,
) -> Result<Vec<String>, CorpusError> {
    let workload = Workload::Wide;
    let setup = workload::setup(workload, work_dir)?;
    let config = HarnessConfig {
        schedule_limit,
        ..workload.config(unit_seed(0), Pass::Study, &setup.corpus_dir)
    };
    let benchmarks = setup
        .specs
        .iter()
        .map(|spec| run_benchmark(spec, &config))
        .collect::<Result<Vec<_>, _>>()?;
    let ours = table3_csv(&StudyResults {
        benchmarks,
        schedule_limit,
        por: config.por,
        cache: config.cache,
        workers: config.workers,
        steal_workers: config.steal_workers,
    });
    let (ours, theirs) = (table3_prefix(&ours), table3_prefix(cli_csv));
    let mut diffs = Vec::new();
    for i in 0..ours.len().max(theirs.len()) {
        let (a, b) = (ours.get(i), theirs.get(i));
        if a != b {
            diffs.push(format!("line {}: benchmark {a:?}, cli {b:?}", i + 1));
        }
    }
    Ok(diffs)
}
