//! Structured exploration telemetry: a typed event stream with zero cost
//! when disabled.
//!
//! The exploration stack is observable through a single cloneable handle,
//! [`Telemetry`], threaded through [`ExploreLimits`] and the harness
//! pipeline. When no recorder is attached the handle is a `None` and every
//! emission site reduces to one branch — the closure that would build the
//! [`Event`] is never invoked, so the serial≡parallel bit-identical
//! invariant (and the hot-loop budget) survives untouched.
//!
//! Recorders implement [`Recorder`] and receive every event:
//!
//! * [`JsonlRecorder`] serializes events as line-delimited JSON
//!   (`--trace <path>` on both CLIs). The schema is validated by
//!   [`validate_trace_line`], which is self-contained (no external JSON
//!   tooling) and is what `sct-table validate-trace` and CI run.
//! * [`Heartbeat`] prints a rate-limited (≥1s) progress line to stderr
//!   (benchmark, technique, schedules/sec, executions/sec, cache hit rate,
//!   worker utilization), suppressible with `--quiet`.
//! * [`CountingRecorder`] and [`BufferRecorder`] capture events in memory
//!   for tests.
//!
//! Events are observations, never inputs: nothing in the exploration stack
//! reads telemetry state, so tracing on vs off cannot change a single
//! statistic or digest.
//!
//! [`ExploreLimits`]: crate::explore::ExploreLimits

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One telemetry event. Serialized to JSON with a `"type"` discriminator
/// equal to [`Event::kind`]; see the README "Observability" section for the
/// full schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A study (one run of the harness pipeline) began.
    StudyStart {
        /// Number of benchmarks selected by the filter.
        benchmarks: u64,
        /// Number of techniques per benchmark.
        techniques: u64,
        /// Terminal-schedule budget per technique.
        schedule_limit: u64,
        /// Outer benchmark/technique worker count.
        workers: u64,
        /// Within-technique steal worker count.
        steal_workers: u64,
    },
    /// The study finished.
    StudyFinish {
        /// Number of benchmarks explored.
        benchmarks: u64,
        /// Total wall-clock time.
        wall_nanos: u64,
    },
    /// One benchmark's pipeline (race phase + every technique) began.
    BenchmarkStart {
        /// Registry name, e.g. `CS.reorder_3`.
        benchmark: String,
    },
    /// The benchmark's pipeline finished.
    BenchmarkFinish {
        /// Registry name.
        benchmark: String,
        /// Wall-clock time for the whole benchmark.
        wall_nanos: u64,
    },
    /// Phase 1 finished: the dynamic race-detection runs (or the static
    /// analysis standing in for them under `--static-phase`).
    RacePhase {
        /// Registry name.
        benchmark: String,
        /// Number of race-detection executions (0 under `--static-phase`).
        runs: u64,
        /// Distinct races observed.
        races: u64,
        /// Static locations promoted to visible operations.
        racy_locations: u64,
        /// Whether the static analysis replaced the dynamic runs.
        static_phase: bool,
        /// Wall-clock time of the phase.
        wall_nanos: u64,
    },
    /// One technique is about to explore one benchmark.
    TechniqueStart {
        /// Registry name.
        benchmark: String,
        /// Technique label ("IPB", "IDB", "DFS", ...).
        technique: String,
    },
    /// The technique finished.
    TechniqueFinish {
        /// Registry name.
        benchmark: String,
        /// Technique label.
        technique: String,
        /// Terminal schedules explored.
        schedules: u64,
        /// Program executions performed.
        executions: u64,
        /// Schedules served from the cache without executing.
        cache_hits: u64,
        /// Whether a bug was found.
        found_bug: bool,
        /// Wall-clock exploration time.
        wall_nanos: u64,
    },
    /// Iterative bounding finished one bound level; counters are deltas
    /// relative to the previous level.
    BoundLevel {
        /// Program name.
        program: String,
        /// Technique label.
        technique: String,
        /// The bound that was just exhausted.
        bound: u64,
        /// Terminal schedules added at this level.
        schedules: u64,
        /// Executions added at this level.
        executions: u64,
        /// Cache hits added at this level.
        cache_hits: u64,
        /// Schedules whose cost equals this bound ("new schedules").
        new_at_bound: u64,
    },
    /// Throttled liveness beacon from a long-running driver (at most one per
    /// progress interval, default 1s). Counters are absolute so far.
    Progress {
        /// Program name.
        program: String,
        /// Technique label.
        technique: String,
        /// Terminal schedules so far.
        schedules: u64,
        /// Executions so far.
        executions: u64,
        /// Cache hits so far.
        cache_hits: u64,
    },
    /// A work-stealing victim donated its shallowest unexplored subtree.
    StealDonate {
        /// Program name.
        program: String,
        /// Donating worker index.
        worker: u64,
        /// Task id assigned to the donated subtree.
        task: u64,
        /// Decision depth of the donated prefix.
        depth: u64,
    },
    /// A work-stealing thief claimed a donated subtree.
    StealTheft {
        /// Program name.
        program: String,
        /// Claiming worker index.
        worker: u64,
        /// Task id of the claimed subtree.
        task: u64,
    },
    /// A steal worker went idle (waiting for work) or became busy again.
    WorkerIdle {
        /// Program name.
        program: String,
        /// Worker index.
        worker: u64,
        /// `true` on entering the idle wait, `false` on leaving it.
        idle: bool,
    },
    /// Per-technique schedule-cache summary (emitted when caching is on).
    CacheSummary {
        /// Program name.
        program: String,
        /// Technique label.
        technique: String,
        /// Schedules served from the cache.
        hits: u64,
        /// Estimated bytes held by the trie.
        bytes: u64,
        /// Whether the byte cap was reached.
        full: bool,
    },
    /// The schedule cache hit its byte cap and degraded to pass-through
    /// (emitted at most once per technique).
    CacheDegraded {
        /// Program name.
        program: String,
        /// Technique label.
        technique: String,
        /// Bytes held when the cap engaged.
        bytes: u64,
        /// The configured cap.
        max_bytes: u64,
    },
    /// A persisted corpus trie was loaded for this benchmark (`--resume`).
    CorpusLoaded {
        /// Registry name.
        benchmark: String,
        /// Bytes of the loaded trie.
        bytes: u64,
        /// Buggy schedules already recorded in it.
        buggy_schedules: u64,
    },
    /// The corpus trie and bug corpus were saved (`--corpus-dir`). A resume
    /// that added nothing saves nothing and emits no such event.
    CorpusSaved {
        /// Registry name.
        benchmark: String,
        /// Bytes of the saved trie.
        bytes: u64,
        /// Bug records in the saved bug corpus.
        bugs: u64,
    },
    /// A corpus bug prefix was replayed (`sct-table replay`).
    CorpusReplay {
        /// Registry name.
        benchmark: String,
        /// Display form of the expected bug.
        bug: String,
        /// Length of the replayed decision prefix.
        decisions: u64,
        /// Whether one execution reproduced the recorded bug.
        reproduced: bool,
    },
    /// A driver found its first bug.
    BugFound {
        /// Program name.
        program: String,
        /// Technique label.
        technique: String,
        /// Display form of the bug.
        bug: String,
        /// 1-based index of the first buggy schedule.
        schedule: u64,
    },
    /// A harvested bug was recorded into the corpus with its minimized
    /// decision prefix.
    BugRecorded {
        /// Registry name.
        benchmark: String,
        /// Display form of the bug.
        bug: String,
        /// Length of the minimized prefix.
        decisions: u64,
        /// The minimized decision prefix (thread ids).
        prefix: Vec<u64>,
    },
    /// A technique stopped at its wall-clock deadline with partial results
    /// (`--time-budget` / `--benchmark-deadline`).
    DeadlineExceeded {
        /// Registry name.
        benchmark: String,
        /// Technique label.
        technique: String,
        /// Schedules completed before the deadline fired.
        schedules: u64,
        /// The wall-clock budget that expired, in nanoseconds.
        budget_nanos: u64,
    },
    /// An engine panicked inside a benchmark×technique unit; the harness
    /// isolated the panic and the study continued.
    EnginePanic {
        /// Registry name.
        benchmark: String,
        /// Technique label.
        technique: String,
        /// Display form of the panic payload.
        panic: String,
    },
    /// A mid-run corpus checkpoint was written (crash-safe autosave).
    CheckpointSaved {
        /// Registry name.
        benchmark: String,
        /// Bytes of the checkpointed trie.
        bytes: u64,
        /// Schedules explored when the checkpoint was taken.
        schedules: u64,
    },
}

impl Event {
    /// The `"type"` discriminator used in the JSON serialization.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::StudyStart { .. } => "study_start",
            Event::StudyFinish { .. } => "study_finish",
            Event::BenchmarkStart { .. } => "benchmark_start",
            Event::BenchmarkFinish { .. } => "benchmark_finish",
            Event::RacePhase { .. } => "race_phase",
            Event::TechniqueStart { .. } => "technique_start",
            Event::TechniqueFinish { .. } => "technique_finish",
            Event::BoundLevel { .. } => "bound_level",
            Event::Progress { .. } => "progress",
            Event::StealDonate { .. } => "steal_donate",
            Event::StealTheft { .. } => "steal_theft",
            Event::WorkerIdle { .. } => "worker_idle",
            Event::CacheSummary { .. } => "cache_summary",
            Event::CacheDegraded { .. } => "cache_degraded",
            Event::CorpusLoaded { .. } => "corpus_loaded",
            Event::CorpusSaved { .. } => "corpus_saved",
            Event::CorpusReplay { .. } => "corpus_replay",
            Event::BugFound { .. } => "bug_found",
            Event::BugRecorded { .. } => "bug_recorded",
            Event::DeadlineExceeded { .. } => "deadline_exceeded",
            Event::EnginePanic { .. } => "engine_panic",
            Event::CheckpointSaved { .. } => "checkpoint_saved",
        }
    }

    /// Serialize as one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let w = JsonObject::new(self.kind());
        match self {
            Event::StudyStart {
                benchmarks,
                techniques,
                schedule_limit,
                workers,
                steal_workers,
            } => w
                .u64("benchmarks", *benchmarks)
                .u64("techniques", *techniques)
                .u64("schedule_limit", *schedule_limit)
                .u64("workers", *workers)
                .u64("steal_workers", *steal_workers)
                .finish(),
            Event::StudyFinish {
                benchmarks,
                wall_nanos,
            } => w
                .u64("benchmarks", *benchmarks)
                .u64("wall_nanos", *wall_nanos)
                .finish(),
            Event::BenchmarkStart { benchmark } => w.str("benchmark", benchmark).finish(),
            Event::BenchmarkFinish {
                benchmark,
                wall_nanos,
            } => w
                .str("benchmark", benchmark)
                .u64("wall_nanos", *wall_nanos)
                .finish(),
            Event::RacePhase {
                benchmark,
                runs,
                races,
                racy_locations,
                static_phase,
                wall_nanos,
            } => w
                .str("benchmark", benchmark)
                .u64("runs", *runs)
                .u64("races", *races)
                .u64("racy_locations", *racy_locations)
                .bool("static_phase", *static_phase)
                .u64("wall_nanos", *wall_nanos)
                .finish(),
            Event::TechniqueStart {
                benchmark,
                technique,
            } => w
                .str("benchmark", benchmark)
                .str("technique", technique)
                .finish(),
            Event::TechniqueFinish {
                benchmark,
                technique,
                schedules,
                executions,
                cache_hits,
                found_bug,
                wall_nanos,
            } => w
                .str("benchmark", benchmark)
                .str("technique", technique)
                .u64("schedules", *schedules)
                .u64("executions", *executions)
                .u64("cache_hits", *cache_hits)
                .bool("found_bug", *found_bug)
                .u64("wall_nanos", *wall_nanos)
                .finish(),
            Event::BoundLevel {
                program,
                technique,
                bound,
                schedules,
                executions,
                cache_hits,
                new_at_bound,
            } => w
                .str("program", program)
                .str("technique", technique)
                .u64("bound", *bound)
                .u64("schedules", *schedules)
                .u64("executions", *executions)
                .u64("cache_hits", *cache_hits)
                .u64("new_at_bound", *new_at_bound)
                .finish(),
            Event::Progress {
                program,
                technique,
                schedules,
                executions,
                cache_hits,
            } => w
                .str("program", program)
                .str("technique", technique)
                .u64("schedules", *schedules)
                .u64("executions", *executions)
                .u64("cache_hits", *cache_hits)
                .finish(),
            Event::StealDonate {
                program,
                worker,
                task,
                depth,
            } => w
                .str("program", program)
                .u64("worker", *worker)
                .u64("task", *task)
                .u64("depth", *depth)
                .finish(),
            Event::StealTheft {
                program,
                worker,
                task,
            } => w
                .str("program", program)
                .u64("worker", *worker)
                .u64("task", *task)
                .finish(),
            Event::WorkerIdle {
                program,
                worker,
                idle,
            } => w
                .str("program", program)
                .u64("worker", *worker)
                .bool("idle", *idle)
                .finish(),
            Event::CacheSummary {
                program,
                technique,
                hits,
                bytes,
                full,
            } => w
                .str("program", program)
                .str("technique", technique)
                .u64("hits", *hits)
                .u64("bytes", *bytes)
                .bool("full", *full)
                .finish(),
            Event::CacheDegraded {
                program,
                technique,
                bytes,
                max_bytes,
            } => w
                .str("program", program)
                .str("technique", technique)
                .u64("bytes", *bytes)
                .u64("max_bytes", *max_bytes)
                .finish(),
            Event::CorpusLoaded {
                benchmark,
                bytes,
                buggy_schedules,
            } => w
                .str("benchmark", benchmark)
                .u64("bytes", *bytes)
                .u64("buggy_schedules", *buggy_schedules)
                .finish(),
            Event::CorpusSaved {
                benchmark,
                bytes,
                bugs,
            } => w
                .str("benchmark", benchmark)
                .u64("bytes", *bytes)
                .u64("bugs", *bugs)
                .finish(),
            Event::CorpusReplay {
                benchmark,
                bug,
                decisions,
                reproduced,
            } => w
                .str("benchmark", benchmark)
                .str("bug", bug)
                .u64("decisions", *decisions)
                .bool("reproduced", *reproduced)
                .finish(),
            Event::BugFound {
                program,
                technique,
                bug,
                schedule,
            } => w
                .str("program", program)
                .str("technique", technique)
                .str("bug", bug)
                .u64("schedule", *schedule)
                .finish(),
            Event::BugRecorded {
                benchmark,
                bug,
                decisions,
                prefix,
            } => w
                .str("benchmark", benchmark)
                .str("bug", bug)
                .u64("decisions", *decisions)
                .u64_array("prefix", prefix)
                .finish(),
            Event::DeadlineExceeded {
                benchmark,
                technique,
                schedules,
                budget_nanos,
            } => w
                .str("benchmark", benchmark)
                .str("technique", technique)
                .u64("schedules", *schedules)
                .u64("budget_nanos", *budget_nanos)
                .finish(),
            Event::EnginePanic {
                benchmark,
                technique,
                panic,
            } => w
                .str("benchmark", benchmark)
                .str("technique", technique)
                .str("panic", panic)
                .finish(),
            Event::CheckpointSaved {
                benchmark,
                bytes,
                schedules,
            } => w
                .str("benchmark", benchmark)
                .u64("bytes", *bytes)
                .u64("schedules", *schedules)
                .finish(),
        }
    }

    /// One specimen of every variant, used to keep the serializer and the
    /// [`validate_trace_line`] schema in lockstep (see the unit tests and
    /// the integration suite).
    pub fn specimens() -> Vec<Event> {
        vec![
            Event::StudyStart {
                benchmarks: 3,
                techniques: 6,
                schedule_limit: 10_000,
                workers: 1,
                steal_workers: 2,
            },
            Event::StudyFinish {
                benchmarks: 3,
                wall_nanos: 42,
            },
            Event::BenchmarkStart {
                benchmark: "CS.reorder_3".into(),
            },
            Event::BenchmarkFinish {
                benchmark: "CS.reorder_3".into(),
                wall_nanos: 42,
            },
            Event::RacePhase {
                benchmark: "CS.reorder_3".into(),
                runs: 10,
                races: 2,
                racy_locations: 4,
                static_phase: false,
                wall_nanos: 42,
            },
            Event::TechniqueStart {
                benchmark: "CS.reorder_3".into(),
                technique: "IDB".into(),
            },
            Event::TechniqueFinish {
                benchmark: "CS.reorder_3".into(),
                technique: "IDB".into(),
                schedules: 100,
                executions: 90,
                cache_hits: 10,
                found_bug: true,
                wall_nanos: 42,
            },
            Event::BoundLevel {
                program: "reorder_3".into(),
                technique: "IDB".into(),
                bound: 1,
                schedules: 10,
                executions: 9,
                cache_hits: 1,
                new_at_bound: 7,
            },
            Event::Progress {
                program: "reorder_3".into(),
                technique: "DFS".into(),
                schedules: 50,
                executions: 50,
                cache_hits: 0,
            },
            Event::StealDonate {
                program: "reorder_3".into(),
                worker: 0,
                task: 3,
                depth: 2,
            },
            Event::StealTheft {
                program: "reorder_3".into(),
                worker: 1,
                task: 3,
            },
            Event::WorkerIdle {
                program: "reorder_3".into(),
                worker: 1,
                idle: true,
            },
            Event::CacheSummary {
                program: "reorder_3".into(),
                technique: "IDB".into(),
                hits: 10,
                bytes: 4096,
                full: false,
            },
            Event::CacheDegraded {
                program: "reorder_3".into(),
                technique: "IDB".into(),
                bytes: 4096,
                max_bytes: 4096,
            },
            Event::CorpusLoaded {
                benchmark: "CS.reorder_3".into(),
                bytes: 4096,
                buggy_schedules: 2,
            },
            Event::CorpusSaved {
                benchmark: "CS.reorder_3".into(),
                bytes: 4096,
                bugs: 1,
            },
            Event::CorpusReplay {
                benchmark: "CS.reorder_3".into(),
                bug: "assertion failure".into(),
                decisions: 5,
                reproduced: true,
            },
            Event::BugFound {
                program: "reorder_3".into(),
                technique: "IDB".into(),
                bug: "assertion failure: \"ok\"".into(),
                schedule: 12,
            },
            Event::BugRecorded {
                benchmark: "CS.reorder_3".into(),
                bug: "assertion failure".into(),
                decisions: 3,
                prefix: vec![0, 1, 0],
            },
            Event::DeadlineExceeded {
                benchmark: "CS.reorder_3".into(),
                technique: "IDB".into(),
                schedules: 57,
                budget_nanos: 1_000_000_000,
            },
            Event::EnginePanic {
                benchmark: "CS.reorder_3".into(),
                technique: "IDB".into(),
                panic: "injected fault (sct_core::fault)".into(),
            },
            Event::CheckpointSaved {
                benchmark: "CS.reorder_3".into(),
                bytes: 4096,
                schedules: 57,
            },
        ]
    }
}

/// A sink for telemetry events. Implementations must be cheap and
/// thread-safe: events are recorded from exploration worker threads.
pub trait Recorder: Send + Sync {
    /// Record one event. Must not panic.
    fn record(&self, event: &Event);
}

impl<R: Recorder> Recorder for Arc<R> {
    fn record(&self, event: &Event) {
        (**self).record(event);
    }
}

struct Inner {
    recorders: Vec<Box<dyn Recorder>>,
    /// Millis-since-`epoch` of the last `progress` emission (`u64::MAX`
    /// means never), used to throttle [`Event::Progress`].
    progress_gate: AtomicU64,
    progress_interval_millis: u64,
    epoch: Instant,
}

impl Inner {
    fn record(&self, event: &Event) {
        for r in &self.recorders {
            r.record(event);
        }
    }

    /// At-most-once-per-interval gate, shared across threads. Losing a race
    /// just drops one beacon — progress events are lossy by design.
    fn progress_due(&self) -> bool {
        let now = self.epoch.elapsed().as_millis() as u64;
        let last = self.progress_gate.load(Ordering::Relaxed);
        if last != u64::MAX && now.saturating_sub(last) < self.progress_interval_millis {
            return false;
        }
        self.progress_gate
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }
}

/// The cloneable telemetry handle threaded through the exploration stack.
///
/// [`Telemetry::off`] (the default) carries no recorder: [`Telemetry::emit`]
/// is then a single `None` check and the event-building closure is never
/// invoked, so disabled telemetry has no observable cost and no effect on
/// exploration results.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The disabled handle: records nothing, costs one branch per site.
    pub fn off() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A handle fanning out to `recorders` (disabled when empty), with the
    /// default 1s progress throttle.
    pub fn new(recorders: Vec<Box<dyn Recorder>>) -> Telemetry {
        Telemetry::with_progress_interval(recorders, Duration::from_secs(1))
    }

    /// Like [`Telemetry::new`] with an explicit [`Event::Progress`] throttle
    /// interval (tests use `Duration::ZERO` to see every beacon).
    pub fn with_progress_interval(
        recorders: Vec<Box<dyn Recorder>>,
        interval: Duration,
    ) -> Telemetry {
        if recorders.is_empty() {
            return Telemetry::off();
        }
        Telemetry {
            inner: Some(Arc::new(Inner {
                recorders,
                progress_gate: AtomicU64::new(u64::MAX),
                progress_interval_millis: interval.as_millis() as u64,
                epoch: Instant::now(),
            })),
        }
    }

    /// Whether any recorder is attached.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit an event. The closure runs only when telemetry is on.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            inner.record(&make());
        }
    }

    /// Emit a throttled [`Event::Progress`] beacon: at most one per
    /// progress interval across all threads. The closure runs only when
    /// telemetry is on *and* the interval has elapsed.
    #[inline]
    pub fn progress(&self, make: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            if inner.progress_due() {
                inner.record(&make());
            }
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "Telemetry(on, {} recorders)", inner.recorders.len()),
            None => f.write_str("Telemetry(off)"),
        }
    }
}

/// Serializes every event as one line of JSON to a file or writer; the
/// backend of `--trace <path>`. Lines are flushed per event so a killed run
/// still leaves a valid (truncated) trace.
pub struct JsonlRecorder {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlRecorder {
    /// Create (truncate) `path` and write events to it.
    pub fn create(path: &Path) -> io::Result<JsonlRecorder> {
        let file = File::create(path)?;
        Ok(JsonlRecorder::to_writer(Box::new(BufWriter::new(file))))
    }

    /// Write events to an arbitrary writer.
    pub fn to_writer(out: Box<dyn Write + Send>) -> JsonlRecorder {
        JsonlRecorder {
            out: Mutex::new(out),
        }
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: &Event) {
        let mut out = self.out.lock().expect("trace writer poisoned");
        // Trace I/O errors must not kill an exploration worker mid-fold;
        // a short trace is the best we can do on a full disk.
        let _ = writeln!(out, "{}", event.to_json());
        let _ = out.flush();
    }
}

/// Counts events by kind; a test recorder (share via `Arc` to read counts
/// after the run).
#[derive(Default)]
pub struct CountingRecorder {
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl CountingRecorder {
    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.lock().unwrap().values().sum()
    }

    /// Events recorded per kind.
    pub fn by_kind(&self) -> BTreeMap<&'static str, u64> {
        self.counts.lock().unwrap().clone()
    }
}

impl Recorder for CountingRecorder {
    fn record(&self, event: &Event) {
        *self.counts.lock().unwrap().entry(event.kind()).or_insert(0) += 1;
    }
}

/// Captures the serialized JSONL lines in memory; a test recorder (share
/// via `Arc` to read lines after the run).
#[derive(Default)]
pub struct BufferRecorder {
    lines: Mutex<Vec<String>>,
}

impl BufferRecorder {
    /// The serialized lines recorded so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap().clone()
    }
}

impl Recorder for BufferRecorder {
    fn record(&self, event: &Event) {
        self.lines.lock().unwrap().push(event.to_json());
    }
}

/// The rate-limited stderr progress heartbeat (`≥1s` between lines),
/// suppressed by `--quiet`. It aggregates counters across concurrent
/// benchmarks/techniques from the event stream and reports window rates:
///
/// ```text
/// [sct] CS.reorder_4/IDB · 1234 schedules (482.1/s) · 1890 exec (701.2/s) · cache 12.4% · workers 3/4 busy
/// ```
pub struct Heartbeat {
    interval: Duration,
    state: Mutex<HeartbeatState>,
}

struct HeartbeatState {
    started: Instant,
    last_print: Option<Instant>,
    /// Cumulative totals at the last print (schedules, executions).
    window_base: (u64, u64),
    /// Last-seen absolute counters per in-flight (context, technique) key,
    /// so absolute per-technique beacons fold into global monotone totals.
    in_flight: BTreeMap<(String, String), (u64, u64, u64)>,
    schedules: u64,
    executions: u64,
    cache_hits: u64,
    label: String,
    workers_seen: BTreeSet<u64>,
    workers_idle: BTreeSet<u64>,
}

impl Heartbeat {
    /// A heartbeat printing to stderr at most once per `interval`.
    pub fn new(interval: Duration) -> Heartbeat {
        Heartbeat {
            interval,
            state: Mutex::new(HeartbeatState {
                started: Instant::now(),
                last_print: None,
                window_base: (0, 0),
                in_flight: BTreeMap::new(),
                schedules: 0,
                executions: 0,
                cache_hits: 0,
                label: String::new(),
                workers_seen: BTreeSet::new(),
                workers_idle: BTreeSet::new(),
            }),
        }
    }
}

impl HeartbeatState {
    /// Fold an absolute per-(context, technique) counter triple into the
    /// global cumulative totals.
    fn observe(&mut self, key: (String, String), now: (u64, u64, u64), done: bool) {
        let last = self.in_flight.get(&key).copied().unwrap_or((0, 0, 0));
        self.schedules += now.0.saturating_sub(last.0);
        self.executions += now.1.saturating_sub(last.1);
        self.cache_hits += now.2.saturating_sub(last.2);
        if done {
            self.in_flight.remove(&key);
        } else {
            self.in_flight.insert(key, now);
        }
    }

    fn render(&self, elapsed: Duration, window: Duration) -> String {
        let secs = window.as_secs_f64().max(1e-9);
        let sched_rate = (self.schedules - self.window_base.0) as f64 / secs;
        let exec_rate = (self.executions - self.window_base.1) as f64 / secs;
        let served = self.cache_hits + self.executions;
        let hit_rate = if served == 0 {
            0.0
        } else {
            100.0 * self.cache_hits as f64 / served as f64
        };
        let workers = if self.workers_seen.is_empty() {
            String::from("1/1")
        } else {
            format!(
                "{}/{}",
                self.workers_seen.len() - self.workers_idle.len(),
                self.workers_seen.len()
            )
        };
        format!(
            "[sct {:>6.1}s] {} · {} schedules ({:.1}/s) · {} exec ({:.1}/s) · cache {:.1}% · workers {} busy",
            elapsed.as_secs_f64(),
            if self.label.is_empty() { "…" } else { &self.label },
            self.schedules,
            sched_rate,
            self.executions,
            exec_rate,
            hit_rate,
            workers,
        )
    }
}

impl Recorder for Heartbeat {
    fn record(&self, event: &Event) {
        let mut s = self.state.lock().expect("heartbeat state poisoned");
        match event {
            Event::TechniqueStart {
                benchmark,
                technique,
            } => {
                s.label = format!("{benchmark}/{technique}");
                s.in_flight
                    .insert((benchmark.clone(), technique.clone()), (0, 0, 0));
            }
            Event::TechniqueFinish {
                benchmark,
                technique,
                schedules,
                executions,
                cache_hits,
                ..
            } => {
                s.observe(
                    (benchmark.clone(), technique.clone()),
                    (*schedules, *executions, *cache_hits),
                    true,
                );
            }
            Event::Progress {
                program,
                technique,
                schedules,
                executions,
                cache_hits,
            } => {
                s.label = format!("{program}/{technique}");
                s.observe(
                    (program.clone(), technique.clone()),
                    (*schedules, *executions, *cache_hits),
                    false,
                );
            }
            Event::WorkerIdle { worker, idle, .. } => {
                s.workers_seen.insert(*worker);
                if *idle {
                    s.workers_idle.insert(*worker);
                } else {
                    s.workers_idle.remove(worker);
                }
            }
            _ => {}
        }
        let now = Instant::now();
        let due = match s.last_print {
            None => true,
            Some(last) => now.duration_since(last) >= self.interval,
        };
        if due {
            let window = match s.last_print {
                None => now.duration_since(s.started),
                Some(last) => now.duration_since(last),
            };
            eprintln!("{}", s.render(now.duration_since(s.started), window));
            s.last_print = Some(now);
            s.window_base = (s.schedules, s.executions);
        }
    }
}

// ---------------------------------------------------------------------------
// JSON writing
// ---------------------------------------------------------------------------

/// Escape `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Tiny builder for one-line JSON objects with ordered fields.
struct JsonObject {
    buf: String,
}

impl JsonObject {
    fn new(kind: &str) -> JsonObject {
        JsonObject {
            buf: format!("{{\"type\":{}", json_string(kind)),
        }
    }

    fn str(mut self, key: &str, value: &str) -> JsonObject {
        self.buf
            .push_str(&format!(",{}:{}", json_string(key), json_string(value)));
        self
    }

    fn u64(mut self, key: &str, value: u64) -> JsonObject {
        self.buf
            .push_str(&format!(",{}:{}", json_string(key), value));
        self
    }

    fn bool(mut self, key: &str, value: bool) -> JsonObject {
        self.buf
            .push_str(&format!(",{}:{}", json_string(key), value));
        self
    }

    fn u64_array(mut self, key: &str, values: &[u64]) -> JsonObject {
        self.buf.push_str(&format!(",{}:[", json_string(key)));
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&v.to_string());
        }
        self.buf.push(']');
        self
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

// ---------------------------------------------------------------------------
// Schema validation (self-contained: no external JSON tooling)
// ---------------------------------------------------------------------------

/// A parsed JSON value, produced by the self-contained parser behind
/// [`validate_trace_line`].
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates in traces we emit never occur; map
                            // unpaired ones to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this
                    // char boundary arithmetic is safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// Parse one JSON document, requiring it to span the whole input.
fn parse_json(line: &str) -> Result<Json, String> {
    let mut p = Parser::new(line);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after JSON value"));
    }
    Ok(v)
}

/// Expected type of a schema field.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FieldType {
    Str,
    U64,
    Bool,
    U64Array,
}

impl FieldType {
    fn matches(self, v: &Json) -> bool {
        match (self, v) {
            (FieldType::Str, Json::Str(_)) => true,
            (FieldType::Bool, Json::Bool(_)) => true,
            (FieldType::U64, Json::Num(n)) => n.fract() == 0.0 && *n >= 0.0,
            (FieldType::U64Array, Json::Arr(items)) => {
                items.iter().all(|i| FieldType::U64.matches(i))
            }
            _ => false,
        }
    }

    fn name(self) -> &'static str {
        match self {
            FieldType::Str => "string",
            FieldType::U64 => "unsigned integer",
            FieldType::Bool => "bool",
            FieldType::U64Array => "array of unsigned integers",
        }
    }
}

/// The required fields (beyond `"type"`) of every event kind.
fn event_schema(kind: &str) -> Option<&'static [(&'static str, FieldType)]> {
    use FieldType::{Bool, Str, U64Array, U64};
    Some(match kind {
        "study_start" => &[
            ("benchmarks", U64),
            ("techniques", U64),
            ("schedule_limit", U64),
            ("workers", U64),
            ("steal_workers", U64),
        ],
        "study_finish" => &[("benchmarks", U64), ("wall_nanos", U64)],
        "benchmark_start" => &[("benchmark", Str)],
        "benchmark_finish" => &[("benchmark", Str), ("wall_nanos", U64)],
        "race_phase" => &[
            ("benchmark", Str),
            ("runs", U64),
            ("races", U64),
            ("racy_locations", U64),
            ("static_phase", Bool),
            ("wall_nanos", U64),
        ],
        "technique_start" => &[("benchmark", Str), ("technique", Str)],
        "technique_finish" => &[
            ("benchmark", Str),
            ("technique", Str),
            ("schedules", U64),
            ("executions", U64),
            ("cache_hits", U64),
            ("found_bug", Bool),
            ("wall_nanos", U64),
        ],
        "bound_level" => &[
            ("program", Str),
            ("technique", Str),
            ("bound", U64),
            ("schedules", U64),
            ("executions", U64),
            ("cache_hits", U64),
            ("new_at_bound", U64),
        ],
        "progress" => &[
            ("program", Str),
            ("technique", Str),
            ("schedules", U64),
            ("executions", U64),
            ("cache_hits", U64),
        ],
        "steal_donate" => &[
            ("program", Str),
            ("worker", U64),
            ("task", U64),
            ("depth", U64),
        ],
        "steal_theft" => &[("program", Str), ("worker", U64), ("task", U64)],
        "worker_idle" => &[("program", Str), ("worker", U64), ("idle", Bool)],
        "cache_summary" => &[
            ("program", Str),
            ("technique", Str),
            ("hits", U64),
            ("bytes", U64),
            ("full", Bool),
        ],
        "cache_degraded" => &[
            ("program", Str),
            ("technique", Str),
            ("bytes", U64),
            ("max_bytes", U64),
        ],
        "corpus_loaded" => &[("benchmark", Str), ("bytes", U64), ("buggy_schedules", U64)],
        "corpus_saved" => &[("benchmark", Str), ("bytes", U64), ("bugs", U64)],
        "corpus_replay" => &[
            ("benchmark", Str),
            ("bug", Str),
            ("decisions", U64),
            ("reproduced", Bool),
        ],
        "bug_found" => &[
            ("program", Str),
            ("technique", Str),
            ("bug", Str),
            ("schedule", U64),
        ],
        "bug_recorded" => &[
            ("benchmark", Str),
            ("bug", Str),
            ("decisions", U64),
            ("prefix", U64Array),
        ],
        "deadline_exceeded" => &[
            ("benchmark", Str),
            ("technique", Str),
            ("schedules", U64),
            ("budget_nanos", U64),
        ],
        "engine_panic" => &[("benchmark", Str), ("technique", Str), ("panic", Str)],
        "checkpoint_saved" => &[("benchmark", Str), ("bytes", U64), ("schedules", U64)],
        _ => return None,
    })
}

/// Validate one line of a `--trace` JSONL file against the event schema:
/// well-formed JSON, a known `"type"`, every required field present with the
/// right type, and no unknown fields. Self-contained — the CI trace check
/// runs exactly this, no `jq` involved.
pub fn validate_trace_line(line: &str) -> Result<(), String> {
    let value = parse_json(line)?;
    let Json::Obj(fields) = value else {
        return Err("trace line is not a JSON object".into());
    };
    let mut seen = BTreeSet::new();
    for (key, _) in &fields {
        if !seen.insert(key.as_str()) {
            return Err(format!("duplicate field {key:?}"));
        }
    }
    let Some(Json::Str(kind)) = fields
        .iter()
        .find(|(k, _)| k == "type")
        .map(|(_, v)| v.clone())
    else {
        return Err("missing string field \"type\"".into());
    };
    let Some(schema) = event_schema(&kind) else {
        return Err(format!("unknown event type {kind:?}"));
    };
    for (name, ty) in schema {
        match fields.iter().find(|(k, _)| k == name) {
            None => return Err(format!("{kind}: missing field {name:?}")),
            Some((_, v)) if !ty.matches(v) => {
                return Err(format!("{kind}: field {name:?} is not a {}", ty.name()));
            }
            Some(_) => {}
        }
    }
    for (key, _) in &fields {
        if key != "type" && !schema.iter().any(|(name, _)| name == key) {
            return Err(format!("{kind}: unknown field {key:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_specimen_round_trips_through_the_validator() {
        for event in Event::specimens() {
            let line = event.to_json();
            validate_trace_line(&line).unwrap_or_else(|e| {
                panic!(
                    "specimen {:?} failed validation: {e}\nline: {line}",
                    event.kind()
                )
            });
        }
    }

    #[test]
    fn specimens_cover_every_schema_kind() {
        // If a new Event variant is added with a schema entry but no
        // specimen (or vice versa), this catches it.
        let kinds: BTreeSet<&'static str> = Event::specimens().iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds.len(),
            Event::specimens().len(),
            "duplicate specimen kinds"
        );
        for kind in &kinds {
            assert!(event_schema(kind).is_some(), "{kind} has no schema");
        }
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        let cases = [
            ("", "empty"),
            ("{", "truncated"),
            ("[1,2]", "not an object"),
            ("{\"benchmark\":\"x\"}", "no type"),
            ("{\"type\":\"no_such_event\"}", "unknown kind"),
            ("{\"type\":\"benchmark_start\"}", "missing field"),
            (
                "{\"type\":\"benchmark_start\",\"benchmark\":7}",
                "wrong type",
            ),
            (
                "{\"type\":\"benchmark_start\",\"benchmark\":\"x\",\"extra\":1}",
                "unknown field",
            ),
            (
                "{\"type\":\"study_finish\",\"benchmarks\":1,\"wall_nanos\":-3}",
                "negative u64",
            ),
            (
                "{\"type\":\"benchmark_start\",\"benchmark\":\"x\"} trailing",
                "trailing garbage",
            ),
            (
                "{\"type\":\"benchmark_start\",\"benchmark\":\"x\",\"benchmark\":\"y\"}",
                "duplicate field",
            ),
        ];
        for (line, why) in cases {
            assert!(
                validate_trace_line(line).is_err(),
                "expected rejection ({why}): {line}"
            );
        }
    }

    #[test]
    fn validator_accepts_whitespace_and_field_reordering() {
        let line = " { \"benchmark\" : \"x\" , \"type\" : \"benchmark_start\" } ";
        validate_trace_line(line).unwrap();
    }

    #[test]
    fn json_strings_escape_control_and_quote_characters() {
        let s = "a\"b\\c\nd\te\u{1}f";
        let escaped = json_string(s);
        assert_eq!(escaped, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
        // And the parser inverts the escape.
        let parsed = parse_json(&escaped).unwrap();
        assert_eq!(parsed, Json::Str(s.to_string()));
    }

    #[test]
    fn off_telemetry_never_builds_events() {
        let t = Telemetry::off();
        t.emit(|| panic!("event closure must not run when telemetry is off"));
        t.progress(|| panic!("progress closure must not run when telemetry is off"));
        assert!(!t.is_on());
        assert!(
            !Telemetry::new(Vec::new()).is_on(),
            "no recorders means off"
        );
    }

    #[test]
    fn counting_recorder_sees_every_emission() {
        let rec = Arc::new(CountingRecorder::default());
        let t = Telemetry::new(vec![Box::new(rec.clone())]);
        assert!(t.is_on());
        t.emit(|| Event::BenchmarkStart {
            benchmark: "b".into(),
        });
        t.emit(|| Event::BenchmarkFinish {
            benchmark: "b".into(),
            wall_nanos: 1,
        });
        assert_eq!(rec.total(), 2);
        assert_eq!(rec.by_kind().get("benchmark_start"), Some(&1));
    }

    #[test]
    fn progress_beacons_are_throttled() {
        let rec = Arc::new(CountingRecorder::default());
        let t = Telemetry::with_progress_interval(
            vec![Box::new(rec.clone())],
            Duration::from_secs(3600),
        );
        for _ in 0..100 {
            t.progress(|| Event::Progress {
                program: "p".into(),
                technique: "DFS".into(),
                schedules: 1,
                executions: 1,
                cache_hits: 0,
            });
        }
        assert_eq!(rec.total(), 1, "one beacon per interval");

        let rec2 = Arc::new(CountingRecorder::default());
        let t2 = Telemetry::with_progress_interval(vec![Box::new(rec2.clone())], Duration::ZERO);
        for _ in 0..5 {
            t2.progress(|| Event::Progress {
                program: "p".into(),
                technique: "DFS".into(),
                schedules: 1,
                executions: 1,
                cache_hits: 0,
            });
        }
        assert_eq!(rec2.total(), 5, "zero interval emits every beacon");
    }

    #[test]
    fn jsonl_recorder_writes_one_valid_line_per_event() {
        #[derive(Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let rec = JsonlRecorder::to_writer(Box::new(SharedBuf(bytes.clone())));
        for event in Event::specimens() {
            rec.record(&event);
        }
        let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), Event::specimens().len());
        for line in lines {
            validate_trace_line(line).unwrap();
        }
    }

    #[test]
    fn heartbeat_folds_absolute_beacons_into_monotone_totals() {
        let mut s = HeartbeatState {
            started: Instant::now(),
            last_print: None,
            window_base: (0, 0),
            in_flight: BTreeMap::new(),
            schedules: 0,
            executions: 0,
            cache_hits: 0,
            label: "b/IDB".into(),
            workers_seen: BTreeSet::new(),
            workers_idle: BTreeSet::new(),
        };
        let key = || ("b".to_string(), "IDB".to_string());
        s.observe(key(), (10, 8, 2), false);
        s.observe(key(), (25, 20, 5), false);
        assert_eq!((s.schedules, s.executions, s.cache_hits), (25, 20, 5));
        // A second concurrent technique adds, not overwrites.
        s.observe(("b".into(), "DFS".into()), (5, 5, 0), false);
        assert_eq!((s.schedules, s.executions, s.cache_hits), (30, 25, 5));
        // Finish removes the in-flight entry and folds the final absolutes.
        s.observe(key(), (30, 24, 6), true);
        assert_eq!((s.schedules, s.executions, s.cache_hits), (35, 29, 6));
        assert!(!s.in_flight.contains_key(&key()));

        s.workers_seen.extend([0, 1, 2, 3]);
        s.workers_idle.insert(2);
        let line = s.render(Duration::from_secs(10), Duration::from_secs(2));
        assert!(line.contains("b/IDB"), "{line}");
        assert!(line.contains("35 schedules"), "{line}");
        assert!(line.contains("3/4 busy"), "{line}");
    }
}
