//! The traced run: the workload decomposed into calls to each layer's public
//! entry points, each inside a span, plus probes that time single layers.
//! Nothing here runs when tracing is off.

use crate::alloc::Counting;
use crate::reference::Check;
use crate::spans::Tracer;
use crate::workload::{Setup, UnitRow, Workload};
use sct_core::corpus::{
    cache_from_bytes, cache_to_bytes, corpus_key, harvest_bugs, BugCorpus, Corpus, CorpusError,
};
use sct_core::explore::{self, explore_with, ExploreLimits, Technique};
use sct_core::{
    map_indexed, BoundKind, BoundedDfs, ExplorationStats, MapleLikeScheduler, RandomScheduler,
    Scheduler, SharedCache,
};
use sct_harness::pipeline::study_techniques;
use sct_ir::Program;
use sct_race::{race_detection_phase, RacePhaseConfig};
use sct_runtime::{
    ExecConfig, Execution, ExecutionOutcome, NoopObserver, SchedulingPoint, ThreadId,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Round-robin steps per program in each runtime probe drive.
const RUNTIME_STEPS: usize = 10_000;

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let started = Instant::now();
    let r = f();
    (r, nanos(started.elapsed()))
}

/// Time a scheduler spends deciding, summed by counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedulerTime {
    /// Nanoseconds in `choose`.
    pub choose_nanos: u64,
    /// `choose` calls.
    pub choices: u64,
    /// Nanoseconds in `begin_execution` + `end_execution` (backtracking).
    pub backtrack_nanos: u64,
    /// `end_execution` calls.
    pub executions: u64,
}

impl SchedulerTime {
    fn add(&mut self, other: SchedulerTime) {
        self.choose_nanos += other.choose_nanos;
        self.choices += other.choices;
        self.backtrack_nanos += other.backtrack_nanos;
        self.executions += other.executions;
    }

    fn total(&self) -> u64 {
        self.choose_nanos + self.backtrack_nanos
    }
}

/// A scheduler that times the scheduler it wraps and otherwise behaves
/// exactly like it.
struct Timed<S> {
    inner: S,
    time: SchedulerTime,
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn begin_execution(&mut self) -> bool {
        let (more, ns) = timed(|| self.inner.begin_execution());
        self.time.backtrack_nanos += ns;
        more
    }

    fn choose(&mut self, point: &SchedulingPoint) -> ThreadId {
        let (choice, ns) = timed(|| self.inner.choose(point));
        self.time.choose_nanos += ns;
        self.time.choices += 1;
        choice
    }

    fn end_execution(&mut self, outcome: &ExecutionOutcome) {
        let ((), ns) = timed(|| self.inner.end_execution(outcome));
        self.time.backtrack_nanos += ns;
        self.time.executions += 1;
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn is_exhaustive(&self) -> bool {
        self.inner.is_exhaustive()
    }

    fn can_exhaust(&self) -> bool {
        self.inner.can_exhaust()
    }

    fn sleep_counters(&self) -> (u64, u64) {
        self.inner.sleep_counters()
    }

    fn current_execution_redundant(&self) -> bool {
        self.inner.current_execution_redundant()
    }
}

fn explore_timed<S: Scheduler>(
    program: &Program,
    config: &ExecConfig,
    scheduler: S,
    limits: &ExploreLimits,
) -> (ExplorationStats, SchedulerTime) {
    let mut timed = Timed {
        inner: scheduler,
        time: SchedulerTime::default(),
    };
    let stats = explore_with(program, config, &mut timed, limits);
    (stats, timed.time)
}

/// One technique unit, driven as `explore::run_technique` drives it with a
/// single steal worker. Techniques it runs through `explore_with` go through
/// a timing wrapper; iterative bounding and campaign-mode DFS drive their
/// `BoundedDfs` internally, so their scheduler time stays inside the unit.
fn run_unit(
    program: &Program,
    config: &ExecConfig,
    technique: Technique,
    limits: &ExploreLimits,
) -> (ExplorationStats, SchedulerTime) {
    let (mut stats, time) = match technique {
        Technique::Dfs if limits.shared_cache.is_none() => explore_timed(
            program,
            config,
            BoundedDfs::unbounded().with_sleep_sets(limits.por),
            limits,
        ),
        Technique::Random { seed } => explore_timed(
            program,
            config,
            RandomScheduler::new(limits.schedule_limit, seed),
            limits,
        ),
        Technique::MapleLike {
            profiling_runs,
            seed,
        } => explore_timed(
            program,
            config,
            MapleLikeScheduler::new(profiling_runs, seed),
            limits,
        ),
        _ => (
            explore::run_technique(program, config, technique, limits),
            SchedulerTime::default(),
        ),
    };
    stats.technique = technique.label().to_string();
    (stats, time)
}

/// A benchmark's program and visibility as the traced pass built them.
pub struct LayerInput {
    /// Benchmark name.
    pub name: &'static str,
    /// The benchmark's program.
    pub program: Program,
    /// Visibility after the race phase.
    pub config: ExecConfig,
    /// The workload's schedule limit.
    pub limit: u64,
}

/// What the traced pass produced.
pub struct TracedPass {
    /// Every unit's row, for the reference check.
    pub rows: Vec<UnitRow>,
    /// Wall time of the pass.
    pub wall: Duration,
    /// Race-phase executions summed over benchmarks and passes.
    pub race_executions: u64,
    /// The first pass's programs and visibilities, for the probes.
    pub inputs: Vec<LayerInput>,
}

/// Run every pass of `workload` once, calling each layer directly inside a
/// span: `sctbench` (program), `analysis`, `race`, `corpus` (campaign load
/// and save), `harness` (the technique fan-out) and `explore` (each unit,
/// with scheduler time summed inside it). This is `run_benchmark`'s
/// sequence, checkpoint save included, with each step timed from outside.
pub fn traced_pass(
    workload: Workload,
    setup: &Setup,
    seed: u64,
    tracer: &Tracer,
) -> Result<TracedPass, CorpusError> {
    crate::workload::clear_dir(&setup.corpus_dir)?;
    let started = Instant::now();
    let mut rows = Vec::new();
    let mut inputs = Vec::new();
    let mut race_executions = 0u64;
    tracer.span("bench.workload", workload.name(), None, |root| {
        for &pass in workload.passes() {
            let config = workload.config(seed, pass, &setup.corpus_dir);
            let techniques = study_techniques(&config);
            for spec in &setup.specs {
                tracer.span("bench.benchmark", spec.name, Some(root), |b| {
                    let program =
                        tracer.span("sctbench.program", spec.name, Some(b), |_| spec.program());
                    tracer.span("analysis.analyze", spec.name, Some(b), |_| {
                        sct_analysis::analyze(&program)
                    });
                    let report = tracer.span("race.phase", spec.name, Some(b), |_| {
                        race_detection_phase(
                            &program,
                            &RacePhaseConfig {
                                runs: config.race_runs,
                                seed: config.seed,
                                ..RacePhaseConfig::default()
                            },
                        )
                    });
                    race_executions += report.executions as u64;
                    let racy = report.racy_locations();
                    let exec_config = ExecConfig::with_racy_locations(racy.iter().copied());
                    let key = corpus_key(spec.name, &exec_config);
                    let corpus = match &config.corpus_dir {
                        Some(dir) => {
                            Some(tracer.span("corpus.load", spec.name, Some(b), |_| {
                                let corpus = Corpus::open(dir)?;
                                let loaded = match config.resume {
                                    true => corpus.load_cache(spec.name, key)?,
                                    false => None,
                                };
                                let shared = Arc::new(SharedCache::of(loaded.unwrap_or_default()));
                                Ok::<_, CorpusError>((corpus, shared))
                            })?)
                        }
                        None => None,
                    };
                    let limits = ExploreLimits::with_schedule_limit(config.schedule_limit)
                        .with_por(config.por)
                        .with_cache(config.cache)
                        .with_shared_cache(corpus.as_ref().map(|(_, s)| Arc::clone(s)));
                    let units = tracer.span("harness.fanout", spec.name, Some(b), |fanout| {
                        map_indexed(techniques.len(), config.workers, |i| {
                            let t = techniques[i];
                            tracer.span_with_inner(
                                "explore.unit",
                                t.label(),
                                Some(fanout),
                                "scheduler",
                                |_| {
                                    let (stats, time) =
                                        run_unit(&program, &exec_config, t, &limits);
                                    (stats, time.total())
                                },
                            )
                        })
                    });
                    if let Some((corpus, shared)) = &corpus {
                        tracer.span("corpus.save", spec.name, Some(b), |_| {
                            shared.with_live(|cache| {
                                // The harness's teardown checkpoint, then its
                                // final save and bug harvest.
                                corpus.save_cache(spec.name, key, cache)?;
                                corpus.save_cache(spec.name, key, cache)?;
                                corpus.save_bugs(&BugCorpus {
                                    benchmark: spec.name.to_string(),
                                    config: exec_config.clone(),
                                    records: harvest_bugs(&program, &exec_config, cache),
                                })
                            })
                        })?;
                    }
                    for stats in units {
                        rows.push(UnitRow {
                            pass,
                            benchmark: spec.name.to_string(),
                            races: report.races.len(),
                            racy_locations: racy.len(),
                            stats,
                        });
                    }
                    if pass == workload.passes()[0] {
                        inputs.push(LayerInput {
                            name: spec.name,
                            program,
                            config: exec_config,
                            limit: config.schedule_limit,
                        });
                    }
                    Ok::<_, CorpusError>(())
                })?;
            }
        }
        Ok::<_, CorpusError>(())
    })?;
    Ok(TracedPass {
        rows,
        wall: started.elapsed(),
        race_executions,
        inputs,
    })
}

/// Per-call costs of the runtime in round-robin drives of a reused
/// `Execution` over every input program. Each program gets about
/// `RUNTIME_STEPS` steps per drive, so programs weigh equally per step.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RuntimeFigures {
    /// One iteration of `Execution::run`'s step loop minus `enabled_ns` and
    /// `point_ns`: `Execution::step`, the step-log push and one clock read.
    pub step_ns: f64,
    /// `Execution::enabled_threads`, per call.
    pub enabled_ns: f64,
    /// `Execution::scheduling_point`, per call.
    pub point_ns: f64,
    /// `Execution::reset`, per call.
    pub reset_ns: f64,
    /// `Execution::run` per execution minus its step loop iterations: the
    /// first thread's initial advance, the outcome clone and the fingerprint.
    pub run_overhead_ns: f64,
    /// Steps per `Execution::run`.
    pub steps_per_exec: f64,
    /// Mean enabled-set size per step.
    pub mean_enabled: f64,
    /// Allocations per step in `reset` + `run`.
    pub allocs_per_step: f64,
    /// Bytes allocated per step in `reset` + `run`.
    pub alloc_bytes_per_step: f64,
}

/// States sampled per program for timing `enabled_threads` and
/// `scheduling_point`.
const SAMPLED_STATES: usize = 32;

/// Calls timed per sampled state.
const CALLS_PER_STATE: u32 = 16;

/// Drive every input round robin: `Execution::run` with the gap between
/// consecutive scheduler callbacks timed (one step-loop iteration each);
/// `reset` + `run` untimed inside, with allocation counting; and, at up to
/// [`SAMPLED_STATES`] states along the same schedule (reached by re-running
/// with a step limit), `enabled_threads` and `scheduling_point` timed alone.
/// The runtime has no public way to start an execution other than `run`, so
/// `step` is not timed alone.
pub fn runtime_probe(inputs: &[LayerInput]) -> RuntimeFigures {
    let (mut gaps, mut gap_count, mut callbacks, mut enabled_sum) = (0u64, 0u64, 0u64, 0u64);
    let (mut reset, mut run, mut steps, mut execs) = (0u64, 0u64, 0u64, 0u64);
    let (mut allocs, mut bytes) = (0u64, 0u64);
    let (mut enabled, mut enabled_calls, mut point, mut point_calls) = (0u64, 0u64, 0u64, 0u64);
    for input in inputs {
        let mut exec = Execution::new_shared(&input.program, &input.config);
        exec.reset();
        let per_exec = exec
            .run(&mut |p| p.round_robin_choice(), &mut NoopObserver)
            .steps
            .len();
        let n = (RUNTIME_STEPS / per_exec.max(1)).max(1);
        for _ in 0..n {
            exec.reset();
            let mut last: Option<Instant> = None;
            exec.run(
                &mut |p| {
                    let now = Instant::now();
                    if let Some(last) = last {
                        gaps += nanos(now - last);
                        gap_count += 1;
                    }
                    last = Some(now);
                    callbacks += 1;
                    enabled_sum += p.enabled.len() as u64;
                    p.round_robin_choice()
                },
                &mut NoopObserver,
            );
        }
        let counting = Counting::start();
        for _ in 0..n {
            let ((), ns) = timed(|| exec.reset());
            reset += ns;
            let (outcome, ns) =
                timed(|| exec.run(&mut |p| p.round_robin_choice(), &mut NoopObserver));
            run += ns;
            steps += outcome.steps.len() as u64;
        }
        let (a, b) = counting.stop();
        allocs += a;
        bytes += b;
        execs += n as u64;
        for i in 0..SAMPLED_STATES.min(per_exec) {
            let config = ExecConfig {
                max_steps: i * per_exec / SAMPLED_STATES.min(per_exec),
                ..input.config.clone()
            };
            let mut state = Execution::new(&input.program, config);
            state.run(&mut |p| p.round_robin_choice(), &mut NoopObserver);
            for _ in 0..CALLS_PER_STATE {
                let (en, ns) = timed(|| state.enabled_threads());
                enabled += ns;
                enabled_calls += 1;
                if !en.is_empty() {
                    let (_, ns) = timed(|| state.scheduling_point(&en));
                    point += ns;
                    point_calls += 1;
                }
            }
        }
    }
    let per = |x: u64, n: u64| x as f64 / n.max(1) as f64;
    let (enabled_ns, point_ns) = (per(enabled, enabled_calls), per(point, point_calls));
    let loop_ns = per(gaps, gap_count);
    RuntimeFigures {
        step_ns: loop_ns - enabled_ns - point_ns,
        enabled_ns,
        point_ns,
        reset_ns: per(reset, execs),
        run_overhead_ns: per(run, execs) - loop_ns * per(steps, execs),
        steps_per_exec: per(steps, execs),
        mean_enabled: per(enabled_sum, callbacks),
        allocs_per_step: per(allocs, steps),
        alloc_bytes_per_step: per(bytes, steps),
    }
}

/// Scheduler decision and backtracking costs per technique, measured with
/// the timing wrapper under `explore_with` at half the workload's limit,
/// enough for stable per-decision costs at half the time. IPB and IDB
/// run their `BoundedDfs` levels 0, 1, 2, … until the limit is spent or a
/// level covers the whole space, as iterative bounding does.
pub fn scheduler_probe(
    inputs: &[LayerInput],
    seed: u64,
) -> (BTreeMap<&'static str, SchedulerTime>, f64) {
    let mut times: BTreeMap<&'static str, SchedulerTime> = BTreeMap::new();
    let (mut explore_nanos, mut scheduler_nanos) = (0u64, 0u64);
    let mut record = |label: &'static str, time: SchedulerTime, ns: u64| {
        explore_nanos += ns;
        scheduler_nanos += time.total();
        times.entry(label).or_default().add(time);
    };
    for input in inputs {
        let (p, c) = (&input.program, &input.config);
        let probe_limit = input.limit / 2;
        let limits = ExploreLimits::with_schedule_limit(probe_limit);
        let ((_, time), ns) = timed(|| explore_timed(p, c, BoundedDfs::unbounded(), &limits));
        record("dfs", time, ns);
        let rand = RandomScheduler::new(probe_limit, seed);
        let ((_, time), ns) = timed(|| explore_timed(p, c, rand, &limits));
        record("rand", time, ns);
        for (label, kind) in [("ipb", BoundKind::Preemption), ("idb", BoundKind::Delay)] {
            let mut left = probe_limit;
            for bound in 0..=limits.max_bound {
                let level = ExploreLimits::with_schedule_limit(left);
                let dfs = BoundedDfs::new(kind.policy(), bound);
                let ((stats, time), ns) = timed(|| explore_timed(p, c, dfs, &level));
                record(label, time, ns);
                left = left.saturating_sub(stats.schedules);
                if left == 0 || stats.complete {
                    break;
                }
            }
        }
    }
    (times, scheduler_nanos as f64 / explore_nanos.max(1) as f64)
}

/// Trie figures: IPB, IDB and DFS of each input, each run with no cache,
/// then twice over a fresh trie of its own (cold: misses execute and insert;
/// warm: the same visits again, every one served).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CacheFigures {
    /// Cold-pass schedules served from the trie, as a share of schedules.
    pub hit_rate: f64,
    /// Warm-pass time per served visit.
    pub ns_per_hit: f64,
    /// Cold-pass time per execution, after taking out its hits at the warm
    /// rate, minus the uncached time per execution.
    pub insert_overhead_ns: f64,
    /// Trie bytes after the cold pass, summed.
    pub bytes: u64,
}

/// Run the cache probe, handing each trie to `corpus` after its warm run;
/// returns the figures and the invariant check (cached statistics equal
/// uncached ones apart from the cache counters).
pub fn cache_probe(
    inputs: &[LayerInput],
    corpus: &mut CorpusProbe,
) -> Result<(CacheFigures, Check), CorpusError> {
    let sans_cache = |s: &ExplorationStats| ExplorationStats {
        executions: 0,
        cache_hits: 0,
        cache_bytes: 0,
        ..s.clone()
    };
    let mut check = Check::default();
    let (mut off_ns, mut off_execs) = (0u64, 0u64);
    let (mut cold_ns, mut cold_execs, mut cold_hits, mut cold_schedules) = (0, 0, 0, 0);
    let (mut warm_ns, mut warm_visits) = (0u64, 0u64);
    let mut bytes = 0u64;
    for input in inputs {
        let (p, c) = (&input.program, &input.config);
        let off_limits = ExploreLimits::with_schedule_limit(input.limit);
        for t in [
            Technique::IterativePreemptionBounding,
            Technique::IterativeDelayBounding,
            Technique::Dfs,
        ] {
            let trie = Arc::new(SharedCache::new(off_limits.cache_max_bytes));
            let on_limits = off_limits
                .clone()
                .with_shared_cache(Some(Arc::clone(&trie)));
            let (off, ns) = timed(|| explore::run_technique(p, c, t, &off_limits));
            off_ns += ns;
            off_execs += off.executions;
            let (cold, ns) = timed(|| explore::run_technique(p, c, t, &on_limits));
            cold_ns += ns;
            cold_execs += cold.executions;
            cold_hits += cold.cache_hits;
            cold_schedules += cold.schedules;
            bytes += trie.with_live(|c| c.bytes());
            // The trie's mirror starts from its (empty) load-time baseline,
            // so the warm run reports the cold run's counters while serving
            // every one of its visits from the live trie.
            let (warm, ns) = timed(|| explore::run_technique(p, c, t, &on_limits));
            warm_ns += ns;
            warm_visits += warm.executions + warm.cache_hits;
            for (phase, on) in [("cold", &cold), ("warm", &warm)] {
                check.attempted += 1;
                if sans_cache(on) != sans_cache(&off) {
                    check.failed += 1;
                    check.failures.push(format!(
                        "{} {}: {phase} cached stats differ from uncached",
                        input.name,
                        t.label()
                    ));
                }
            }
            let name = format!("{}.{}", input.name, t.label());
            corpus.add(&name, corpus_key(input.name, c), &trie)?;
        }
    }
    let ns_per_hit = warm_ns as f64 / warm_visits.max(1) as f64;
    let figures = CacheFigures {
        hit_rate: cold_hits as f64 / cold_schedules.max(1) as f64,
        ns_per_hit,
        insert_overhead_ns: (cold_ns as f64 - cold_hits as f64 * ns_per_hit)
            / cold_execs.max(1) as f64
            - off_ns as f64 / off_execs.max(1) as f64,
        bytes,
    };
    Ok((figures, check))
}

/// Corpus encode/decode throughput and save/load time over the cold tries.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CorpusFigures {
    /// Encoded bytes summed over tries.
    pub bytes: u64,
    /// `cache_to_bytes` throughput.
    pub encode_mb_per_s: f64,
    /// `cache_from_bytes` throughput.
    pub decode_mb_per_s: f64,
    /// `Corpus::save_cache` time summed over tries.
    pub save_ms: f64,
    /// `Corpus::load_cache` time summed over tries.
    pub load_ms: f64,
}

/// Encodes, decodes, saves and loads tries, timing each call; its check
/// requires every decoded and reloaded trie to re-encode to the same bytes.
pub struct CorpusProbe {
    corpus: Corpus,
    dir: PathBuf,
    bytes: u64,
    encode: u64,
    decode: u64,
    save: u64,
    load: u64,
    check: Check,
}

impl CorpusProbe {
    /// A probe writing into `dir`.
    pub fn open(dir: &Path) -> Result<CorpusProbe, CorpusError> {
        Ok(CorpusProbe {
            corpus: Corpus::open(dir)?,
            dir: dir.to_path_buf(),
            bytes: 0,
            encode: 0,
            decode: 0,
            save: 0,
            load: 0,
            check: Check::default(),
        })
    }

    /// Put one trie through every corpus call.
    pub fn add(&mut self, name: &str, key: u64, trie: &SharedCache) -> Result<(), CorpusError> {
        let (data, ns) = trie.with_live(|c| timed(|| cache_to_bytes(c, key)));
        self.encode += ns;
        self.bytes += data.len() as u64;
        let (decoded, ns) = timed(|| cache_from_bytes(&data, key, &self.dir));
        self.decode += ns;
        let (saved, ns) = trie.with_live(|c| timed(|| self.corpus.save_cache(name, key, c)));
        saved?;
        self.save += ns;
        let (loaded, ns) = timed(|| self.corpus.load_cache(name, key));
        self.load += ns;
        for copy in [Some(decoded?), loaded?] {
            self.check.attempted += 1;
            if copy.map(|c| cache_to_bytes(&c, key)).as_ref() != Some(&data) {
                self.check.failed += 1;
                self.check
                    .failures
                    .push(format!("{name}: corpus round trip changed the trie"));
            }
        }
        Ok(())
    }

    /// The figures and the round-trip check.
    pub fn finish(self) -> (CorpusFigures, Check) {
        let mb_per_s = |ns: u64| self.bytes as f64 / 1e6 / (ns.max(1) as f64 / 1e9);
        let figures = CorpusFigures {
            bytes: self.bytes,
            encode_mb_per_s: mb_per_s(self.encode),
            decode_mb_per_s: mb_per_s(self.decode),
            save_ms: self.save as f64 / 1e6,
            load_ms: self.load as f64 / 1e6,
        };
        (figures, self.check)
    }
}

/// Serial DFS time over stolen-frontier DFS time at two workers, each
/// driven as a study DFS unit (`run_technique` with one or two steal
/// workers); the check requires identical statistics.
pub fn steal_probe(inputs: &[LayerInput]) -> (f64, Check) {
    let mut check = Check::default();
    let (mut serial_ns, mut stolen_ns) = (0u64, 0u64);
    for input in inputs {
        let serial_limits = ExploreLimits::with_schedule_limit(input.limit);
        let stolen_limits = serial_limits.clone().with_steal_workers(2);
        let dfs =
            |limits| explore::run_technique(&input.program, &input.config, Technique::Dfs, limits);
        let (serial, ns) = timed(|| dfs(&serial_limits));
        serial_ns += ns;
        let (stolen, ns) = timed(|| dfs(&stolen_limits));
        stolen_ns += ns;
        check.attempted += 1;
        if serial != stolen {
            check.failed += 1;
            check.failures.push(format!(
                "{}: stolen DFS differs from serial DFS",
                input.name
            ));
        }
    }
    (serial_ns as f64 / stolen_ns.max(1) as f64, check)
}
