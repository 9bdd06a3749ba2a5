//! Exploration drivers: run a scheduling strategy against a program under a
//! terminal-schedule limit and gather Table-3-style statistics.
//!
//! There are two drivers — a single-level search ([`explore_with`], and the
//! bounded DFS behind [`bounded_dfs`] and `Technique::Dfs`) and
//! [`iterative_bounding`] — and one per-schedule accounting loop under both.
//! Whatever produces the schedules (a scheduler driven inline, a bounded DFS
//! served from a schedule cache, or a level split across the work-stealing
//! engine of [`crate::steal`]), the loop sees the same `Search` interface, so
//! the budget, deadline, cache charge, first-bug event and progress beacon
//! are each decided in one place.

use crate::bounds::BoundKind;
use crate::cache::{
    self, CacheHandle, CacheReplay, ScheduleBuffers, ScheduleCache, ScheduleRun, SharedCache,
    TerminalDigest, VisitTrace,
};
use crate::dfs::BoundedDfs;
use crate::maple::MapleLikeScheduler;
use crate::pct::PctScheduler;
use crate::random::RandomScheduler;
use crate::scheduler::Scheduler;
use crate::stats::ExplorationStats;
use crate::telemetry::{Event, Telemetry};
use sct_ir::Program;
use sct_runtime::{ExecConfig, Execution, NoopObserver};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Limits and switches applied to an exploration.
#[derive(Debug, Clone)]
pub struct ExploreLimits {
    /// Maximum number of terminal schedules to explore (the study uses 10,000).
    pub schedule_limit: u64,
    /// Maximum bound tried by iterative bounding before giving up.
    pub max_bound: u32,
    /// Enable sleep-set partial-order reduction in the systematic searches
    /// (DFS, IPB, IDB). Randomised techniques ignore the flag.
    pub por: bool,
    /// Enable the schedule cache in iterative bounding (IPB, IDB): bound
    /// level *b + 1* serves every schedule already explored at a level ≤ *b*
    /// from a decision-prefix memo instead of re-executing it (see
    /// [`crate::cache`]). Statistics are unchanged except for the
    /// `executions` / `cache_hits` / `cache_bytes` counters. Other
    /// techniques ignore the flag (plain DFS is a single level, so there is
    /// no covered interior to skip).
    pub cache: bool,
    /// Memory cap for the schedule cache (estimated bytes); once reached the
    /// cache stops growing and misses execute for real.
    pub cache_max_bytes: u64,
    /// Worker threads for the work-stealing frontier *within* one systematic
    /// search or bound level (see [`crate::steal`]). `1` keeps exploration
    /// serial; any higher count produces bit-identical statistics. Randomised
    /// techniques ignore the flag: each runs serially, and study-level
    /// parallelism fans units out instead (see [`crate::parallel`]).
    pub steal_workers: usize,
    /// Campaign mode: a schedule cache shared across the techniques of one
    /// benchmark (and, when resuming, pre-loaded from a persistent corpus —
    /// see [`crate::corpus`]). When set, the systematic searches (DFS, IPB,
    /// IDB) walk and grow this cache instead of a private per-run one, and
    /// report cache counters through a per-driver [`cache::CacheReplay`]
    /// mirror seeded from the load-time baseline, so the statistics stay
    /// deterministic no matter how concurrently-running techniques interleave
    /// on the live trie. Takes precedence over `cache`.
    pub shared_cache: Option<Arc<SharedCache>>,
    /// Telemetry handle (see [`crate::telemetry`]). Off by default; when on,
    /// the drivers emit bound-level, progress, cache and bug-discovery
    /// events. Telemetry is observation-only — it never changes statistics,
    /// digests or search order.
    pub telemetry: Telemetry,
    /// Wall-clock budget for one technique run. `None` (the default) means
    /// unbounded. The deadline is checked cooperatively at schedule
    /// boundaries in every driver; when it expires the search stops with
    /// `deadline_exceeded` set and its partial statistics intact. Unlike the
    /// schedule limit this makes the *stopping point* timing-dependent, so a
    /// run is only reproducible when the budget never actually fires — which
    /// is why `deadline_exceeded`, like the wall-clock stamps, is excluded
    /// from statistics equality.
    pub time_budget: Option<Duration>,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            schedule_limit: 10_000,
            max_bound: 64,
            por: false,
            cache: false,
            cache_max_bytes: cache::DEFAULT_CACHE_BYTES,
            steal_workers: 1,
            shared_cache: None,
            telemetry: Telemetry::off(),
            time_budget: None,
        }
    }
}

impl ExploreLimits {
    /// Limits with the given schedule budget and the default maximum bound.
    pub fn with_schedule_limit(schedule_limit: u64) -> Self {
        ExploreLimits {
            schedule_limit,
            ..Default::default()
        }
    }

    /// The same limits with sleep-set partial-order reduction switched on
    /// (or off).
    pub fn with_por(self, por: bool) -> Self {
        ExploreLimits { por, ..self }
    }

    /// The same limits with the iterative-bounding schedule cache switched
    /// on (or off).
    pub fn with_cache(self, cache: bool) -> Self {
        ExploreLimits { cache, ..self }
    }

    /// The same limits with the within-bound work-stealing frontier set to
    /// `steal_workers` threads (`1` disables it).
    pub fn with_steal_workers(self, steal_workers: usize) -> Self {
        ExploreLimits {
            steal_workers: steal_workers.max(1),
            ..self
        }
    }

    /// The same limits with campaign mode switched on: the systematic
    /// searches share (and grow) the given cache — typically loaded from a
    /// persistent corpus — instead of building private ones.
    pub fn with_shared_cache(self, shared_cache: Option<Arc<SharedCache>>) -> Self {
        ExploreLimits {
            shared_cache,
            ..self
        }
    }

    /// The same limits with the given telemetry handle attached.
    pub fn with_telemetry(self, telemetry: Telemetry) -> Self {
        ExploreLimits { telemetry, ..self }
    }

    /// The same limits with the given wall-clock budget (`None` disables it).
    pub fn with_time_budget(self, time_budget: Option<Duration>) -> Self {
        ExploreLimits {
            time_budget,
            ..self
        }
    }
}

/// The techniques compared in the study (plus PCT as an ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Unbounded depth-first search ("DFS").
    Dfs,
    /// Iterative preemption bounding ("IPB").
    IterativePreemptionBounding,
    /// Iterative delay bounding ("IDB").
    IterativeDelayBounding,
    /// Naive random scheduler ("Rand"); runs `schedule_limit` executions.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// PCT with bug-depth parameter `depth`; runs `schedule_limit` executions.
    Pct {
        /// Bug-depth parameter `d`.
        depth: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Simplified Maple algorithm; terminates by its own heuristics.
    MapleLike {
        /// Number of profiling runs before the active phase.
        profiling_runs: u64,
        /// RNG seed.
        seed: u64,
    },
}

impl Technique {
    /// The study's label for this technique.
    pub fn label(&self) -> &'static str {
        match self {
            Technique::Dfs => "DFS",
            Technique::IterativePreemptionBounding => "IPB",
            Technique::IterativeDelayBounding => "IDB",
            Technique::Random { .. } => "Rand",
            Technique::Pct { .. } => "PCT",
            Technique::MapleLike { .. } => "MapleAlg",
        }
    }

    /// The five standard techniques of the study, in Table 3 column order.
    pub fn study_suite(seed: u64) -> Vec<Technique> {
        vec![
            Technique::IterativePreemptionBounding,
            Technique::IterativeDelayBounding,
            Technique::Dfs,
            Technique::Random { seed },
            Technique::MapleLike {
                profiling_runs: 10,
                seed,
            },
        ]
    }
}

/// Whether the (optional) deadline has passed. The single clock read per
/// schedule boundary only happens when a budget was actually set.
fn deadline_fired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// One completed schedule, as a [`Search`] hands it to the accounting.
pub(crate) struct Visit {
    /// The terminal outcome, or its digest when no outcome exists here (a
    /// cache hit, or a schedule a stealing worker completed).
    pub run: ScheduleRun,
    /// Whether the program was executed for this schedule (`false`: served
    /// from a cache). Drivers that report through a mirror ignore it.
    pub executed: bool,
    /// A sleep-blocked completion, which no driver counts as a schedule.
    pub redundant: bool,
}

/// A search that yields terminal schedules one at a time, in serial visit
/// order: a scheduler driven inline, or a level split across the
/// work-stealing engine ([`crate::steal`]). The drivers run every search
/// through the same accounting ([`Tally`]).
pub(crate) trait Search {
    /// Prepare the next schedule; `false` once the search is exhausted.
    fn begin(&mut self) -> bool;
    /// Complete the schedule [`Search::begin`] prepared, writing its visit
    /// footprint into `trace` when one is given. Inline bounded searches
    /// walk and grow `cache`; the others ignore it.
    fn complete(&mut self, cache: CacheHandle<'_>, trace: Option<&mut VisitTrace>) -> Visit;
    /// Partial-order-reduction counters `(slept, pruned_by_sleep)` so far.
    fn sleep_counters(&self) -> (u64, u64);
    /// Whether the search has been exhausted.
    fn is_exhaustive(&self) -> bool;
    /// Whether the search can be exhausted at all (see
    /// [`Scheduler::can_exhaust`]).
    fn can_exhaust(&self) -> bool;
    /// Whether the bound excluded an alternative anywhere so far.
    fn was_pruned(&self) -> bool;
}

/// Any scheduler, executing every schedule.
struct Driven<'e, 'p> {
    exec: &'e mut Execution<'p>,
    scheduler: &'e mut dyn Scheduler,
}

impl Search for Driven<'_, '_> {
    fn begin(&mut self) -> bool {
        self.scheduler.begin_execution()
    }

    fn complete(&mut self, _cache: CacheHandle<'_>, _trace: Option<&mut VisitTrace>) -> Visit {
        self.exec.reset();
        let scheduler = &mut *self.scheduler;
        let outcome = self
            .exec
            .run(&mut |p| scheduler.choose(p), &mut NoopObserver);
        scheduler.end_execution(&outcome);
        Visit {
            run: ScheduleRun::Executed(outcome),
            executed: true,
            redundant: scheduler.current_execution_redundant(),
        }
    }

    fn sleep_counters(&self) -> (u64, u64) {
        self.scheduler.sleep_counters()
    }

    fn is_exhaustive(&self) -> bool {
        self.scheduler.is_exhaustive()
    }

    fn can_exhaust(&self) -> bool {
        self.scheduler.can_exhaust()
    }

    fn was_pruned(&self) -> bool {
        false
    }
}

/// A bounded DFS whose schedules go through [`cache::run_begun_schedule`]:
/// served when the cache holds the whole decision path, executed otherwise.
struct Bounded<'e, 'p> {
    exec: &'e mut Execution<'p>,
    dfs: &'e mut BoundedDfs,
    /// Reused by every schedule of the driver, across bound levels.
    buffers: &'e mut ScheduleBuffers,
}

impl Search for Bounded<'_, '_> {
    fn begin(&mut self) -> bool {
        self.dfs.begin_execution()
    }

    fn complete(&mut self, cache: CacheHandle<'_>, trace: Option<&mut VisitTrace>) -> Visit {
        let run = cache::run_begun_schedule(self.exec, self.dfs, cache, self.buffers, trace);
        Visit {
            executed: matches!(run, ScheduleRun::Executed(_)),
            run,
            redundant: self.dfs.current_execution_redundant(),
        }
    }

    fn sleep_counters(&self) -> (u64, u64) {
        self.dfs.sleep_counters()
    }

    fn is_exhaustive(&self) -> bool {
        self.dfs.is_complete()
    }

    fn can_exhaust(&self) -> bool {
        true
    }

    fn was_pruned(&self) -> bool {
        self.dfs.was_pruned()
    }
}

/// Where a driver's cache counters come from.
enum Counters {
    /// No cache: every schedule is executed.
    Off,
    /// A trie the driver owns; its own hit and byte counters are reported.
    Local(ScheduleCache),
    /// A structure-only replay of the driver's own visit stream. Used when
    /// the live trie is shared — with concurrent techniques (campaign mode)
    /// or between stealing workers — so the counters stay a deterministic
    /// function of the serial visit order.
    Mirror(CacheReplay),
}

/// The per-schedule accounting every driver shares: budget, deadline, fault
/// boundary, the execution or mirror charge, the redundant-run skip, the
/// recording of counted schedules, the first-bug event and the progress
/// beacon — plus the exhausted-at-limit probe.
struct Tally<'a> {
    program: &'a Program,
    limits: &'a ExploreLimits,
    stats: ExplorationStats,
    started: Instant,
    deadline: Option<Instant>,
    counters: Counters,
    /// The shared trie searches walk and grow, when it is not `counters`'.
    live: Option<&'a RwLock<ScheduleCache>>,
    /// Receives the terminal digest of every counted schedule, in order.
    digests: Option<&'a mut Vec<TerminalDigest>>,
    /// The visit footprint a mirror replays, reused across schedules.
    trace: VisitTrace,
}

impl<'a> Tally<'a> {
    fn new(
        program: &'a Program,
        limits: &'a ExploreLimits,
        technique: String,
        counters: Counters,
        live: Option<&'a RwLock<ScheduleCache>>,
    ) -> Self {
        let started = Instant::now();
        Tally {
            program,
            limits,
            stats: ExplorationStats::new(technique),
            started,
            // A budget too large to represent as an instant can never fire,
            // so it degrades to unbounded.
            deadline: limits.time_budget.and_then(|b| started.checked_add(b)),
            counters,
            live,
            digests: None,
            trace: VisitTrace::default(),
        }
    }

    fn hits(&self) -> u64 {
        match &self.counters {
            Counters::Off => 0,
            Counters::Local(c) => c.hits(),
            Counters::Mirror(m) => m.hits(),
        }
    }

    fn bytes(&self) -> u64 {
        match &self.counters {
            Counters::Off => 0,
            Counters::Local(c) => c.bytes(),
            Counters::Mirror(m) => m.bytes(),
        }
    }

    fn is_full(&self) -> bool {
        match &self.counters {
            Counters::Off => false,
            Counters::Local(c) => c.is_full(),
            Counters::Mirror(m) => m.is_full(),
        }
    }

    /// Drive `search` until it is exhausted, the budget fills or the
    /// deadline fires, recording the non-redundant schedules `counts`
    /// accepts.
    fn drive(&mut self, search: &mut impl Search, counts: impl Fn(&ScheduleRun) -> bool) {
        while self.stats.schedules < self.limits.schedule_limit && search.begin() {
            if deadline_fired(self.deadline) {
                // Cooperative wall-clock stop: report the partial results and
                // say so. The begun schedule is discarded with the search,
                // just like the exhausted-at-limit probe's.
                self.stats.deadline_exceeded = true;
                break;
            }
            crate::fault::schedule_boundary(&self.program.name);
            let visit = self.complete(search);
            if visit.redundant {
                // A sleep-blocked completion: every state it visited is
                // covered by another explored schedule.
                continue;
            }
            if counts(&visit.run) {
                self.record(&visit.run);
            }
            self.limits.telemetry.progress(|| Event::Progress {
                program: self.program.name.clone(),
                technique: self.stats.technique.clone(),
                schedules: self.stats.schedules,
                executions: self.stats.executions,
                cache_hits: self.hits(),
            });
        }
    }

    /// Complete the begun schedule and charge its execution: what the mirror
    /// says when there is one (the live trie is shared, so what it did is
    /// not deterministic), whether the search executed it otherwise.
    fn complete(&mut self, search: &mut impl Search) -> Visit {
        let shared = self.live.map_or(CacheHandle::Off, CacheHandle::Shared);
        let (cache, trace) = match &mut self.counters {
            Counters::Local(c) => (CacheHandle::Local(c), None),
            Counters::Mirror(_) => (shared, Some(&mut self.trace)),
            Counters::Off => (shared, None),
        };
        let visit = search.complete(cache, trace);
        let executed = match &mut self.counters {
            Counters::Mirror(m) => !m.apply(&self.trace.schedule, &self.trace.enabled_counts),
            _ => visit.executed,
        };
        if executed {
            self.stats.executions += 1;
        }
        visit
    }

    fn record(&mut self, run: &ScheduleRun) {
        let prev = self.stats.schedules_to_first_bug;
        match run {
            ScheduleRun::Executed(outcome) => self.stats.record(outcome),
            ScheduleRun::Served(digest) => digest.record_into(&mut self.stats),
        }
        if let Some(out) = self.digests.as_deref_mut() {
            out.push(run.digest());
        }
        if prev.is_none() {
            if let Some(schedule) = self.stats.schedules_to_first_bug {
                self.limits.telemetry.emit(|| Event::BugFound {
                    program: self.program.name.clone(),
                    technique: self.stats.technique.clone(),
                    bug: self
                        .stats
                        .first_bug
                        .as_ref()
                        .map(|b| b.to_string())
                        .unwrap_or_default(),
                    schedule,
                });
            }
        }
    }

    /// Whether a single-level search that [`Tally::drive`] has finished is
    /// complete.
    ///
    /// When the budget filled on the very last schedule, the loop never made
    /// the `begin` call from which a systematic search learns it is empty.
    /// Probe: if nothing was left, the search is complete, not truncated. A
    /// probe that *does* find more work prepares a schedule that is never
    /// run, which is harmless — the search is dropped with the driver. Under
    /// sleep-set reduction the remaining work may consist solely of
    /// *redundant* completions, which would never have counted either; a
    /// search is only truncated when a countable schedule remains, so drain
    /// redundant runs before concluding — but never more than the schedule
    /// limit again, so the post-limit cost stays bounded (an unresolved
    /// drain conservatively reports truncation). A drained schedule the
    /// cache knows is served, not re-executed.
    fn probe(&mut self, search: &mut impl Search) -> bool {
        let limit = self.limits.schedule_limit;
        if search.is_exhaustive() || self.stats.schedules < limit || !search.can_exhaust() {
            return search.is_exhaustive();
        }
        let mut drain_budget = limit;
        loop {
            if !search.begin() {
                return search.is_exhaustive();
            }
            if !self.limits.por || drain_budget == 0 {
                return false;
            }
            drain_budget -= 1;
            if !self.complete(search).redundant {
                return false;
            }
        }
    }

    /// Drive a single-level search to its end and report it.
    fn explore(mut self, search: &mut impl Search) -> ExplorationStats {
        self.drive(search, |_| true);
        let complete = self.probe(search);
        self.stats.complete = complete;
        // Only flag the limit when the search was not exhaustive: a search
        // that covers its whole space at exactly the limit is complete, not
        // cut short, and reporting both would make the table rows ambiguous.
        self.stats.hit_schedule_limit =
            self.stats.schedules >= self.limits.schedule_limit && !complete;
        (self.stats.slept, self.stats.pruned_by_sleep) = search.sleep_counters();
        self.finish()
    }

    fn finish(mut self) -> ExplorationStats {
        self.stats.cache_hits = self.hits();
        self.stats.cache_bytes = self.bytes();
        self.stats.explore_nanos = self.started.elapsed().as_nanos() as u64;
        self.stats
    }
}

/// Run `scheduler` against `program` until it stops or the schedule limit is
/// reached.
pub fn explore_with(
    program: &Program,
    config: &ExecConfig,
    scheduler: &mut dyn Scheduler,
    limits: &ExploreLimits,
) -> ExplorationStats {
    let tally = Tally::new(program, limits, scheduler.name(), Counters::Off, None);
    // One execution for the whole exploration: `reset` rewinds it in place,
    // so the hot loop performs no per-schedule allocation or config clone.
    let mut exec = Execution::new_shared(program, config);
    tally.explore(&mut Driven {
        exec: &mut exec,
        scheduler,
    })
}

/// Depth-first search bounded by `bound`, optionally collecting the terminal
/// digest of every counted schedule in visit order. With
/// [`ExploreLimits::steal_workers`] above one and stealing sound for the
/// bound and POR combination, the search runs on the work-stealing engine;
/// the results are bit-identical either way. In campaign mode the search
/// walks and grows the shared corpus trie and reports cache counters through
/// a mirror seeded from its load-time baseline.
pub(crate) fn explore_dfs(
    program: &Program,
    config: &ExecConfig,
    kind: BoundKind,
    bound: u32,
    limits: &ExploreLimits,
    digests: Option<&mut Vec<TerminalDigest>>,
) -> ExplorationStats {
    let mut dfs = BoundedDfs::new(kind.policy(), bound).with_sleep_sets(limits.por);
    let corpus = limits.shared_cache.as_deref();
    let counters = corpus.map_or(Counters::Off, |c| Counters::Mirror(c.mirror()));
    let live = corpus.map(SharedCache::live);
    let mut tally = Tally::new(program, limits, dfs.name(), counters, live);
    tally.digests = digests;
    if limits.steal_workers > 1 && crate::steal::stealing_sound(kind, limits.por) {
        return crate::steal::run_level_stealing(program, config, kind, bound, limits, live, |s| {
            tally.explore(s)
        });
    }
    let mut exec = Execution::new_shared(program, config);
    tally.explore(&mut Bounded {
        exec: &mut exec,
        dfs: &mut dfs,
        buffers: &mut ScheduleBuffers::default(),
    })
}

/// Depth-first search bounded by `bound` under the given bound kind. The
/// statistics' `final_bound` is set to `bound`.
pub fn bounded_dfs(
    program: &Program,
    config: &ExecConfig,
    kind: BoundKind,
    bound: u32,
    limits: &ExploreLimits,
) -> ExplorationStats {
    let mut stats = explore_dfs(program, config, kind, bound, limits, None);
    stats.final_bound = Some(bound);
    if stats.found_bug() {
        stats.bound_of_first_bug = Some(bound);
    }
    stats
}

/// Run one bound level of iterative bounding, counting only the schedules
/// new at `bound`; returns whether the level finished and whether its bound
/// pruned anything.
fn run_level(
    tally: &mut Tally<'_>,
    search: &mut impl Search,
    kind: BoundKind,
    bound: u32,
) -> (bool, bool) {
    // Iteration `bound` only *counts* schedules whose cost is exactly
    // `bound`: schedules with a smaller cost were already explored in an
    // earlier iteration (the bounded DFS still has to traverse them to reach
    // the new ones, but they are neither re-counted nor re-checked, matching
    // §2's description of iterative bounding).
    tally.drive(search, |run| bound == 0 || run.cost(kind) == bound);
    let (slept, pruned_by_sleep) = search.sleep_counters();
    tally.stats.slept += slept;
    tally.stats.pruned_by_sleep += pruned_by_sleep;
    (search.is_exhaustive(), search.was_pruned())
}

/// Iterative schedule bounding (§2, "Iterative schedule bounding"): explore
/// all schedules with bound 0, then bound 1, and so on, until a bug is found
/// (the current bound is still completed), the schedule limit is reached, or
/// the whole schedule space has been covered. A run that climbs through
/// every bound up to `max_bound` without reaching any of those outcomes is
/// reported as `bound_exhausted` — explicitly distinct from both a truncated
/// and a completed search.
///
/// Each iteration restarts the bounded DFS from scratch, so schedules with a
/// cost below the current bound are re-visited; the `new_schedules_at_final_bound`
/// statistic counts only the schedules whose cost equals the final bound,
/// matching the "# new schedules" column of Table 3. With `limits.cache` the
/// re-visited interior is served from a decision-prefix memo instead of
/// being re-executed (see [`crate::cache`]); the statistics are identical
/// either way, except that `executions` shrinks by `cache_hits`. With
/// [`ExploreLimits::steal_workers`] above one, each level is split across
/// the work-stealing engine when that is sound, again with identical
/// statistics.
pub fn iterative_bounding(
    program: &Program,
    config: &ExecConfig,
    kind: BoundKind,
    limits: &ExploreLimits,
) -> ExplorationStats {
    let label = match kind {
        BoundKind::Preemption => "IPB",
        BoundKind::Delay => "IDB",
        BoundKind::None => "DFS",
    };
    let stealing = limits.steal_workers > 1 && crate::steal::stealing_sound(kind, limits.por);
    let corpus = limits.shared_cache.as_deref();
    // Stolen levels share one private trie between their workers, so — like
    // campaign mode — they report its counters through a mirror.
    let stolen_cache = (stealing && corpus.is_none() && limits.cache)
        .then(|| RwLock::new(ScheduleCache::new(limits.cache_max_bytes)));
    let (counters, live) = match (corpus, &stolen_cache) {
        (Some(c), _) => (Counters::Mirror(c.mirror()), Some(c.live())),
        (None, Some(lock)) => (
            Counters::Mirror(CacheReplay::new(limits.cache_max_bytes)),
            Some(lock),
        ),
        (None, None) if limits.cache => (
            Counters::Local(ScheduleCache::new(limits.cache_max_bytes)),
            None,
        ),
        (None, None) => (Counters::Off, None),
    };
    let mut tally = Tally::new(program, limits, label.to_string(), counters, live);
    let mut exec = Execution::new_shared(program, config);
    let mut buffers = ScheduleBuffers::default();
    let mut stopped = false;
    let mut degradation_reported = false;
    for bound in 0..=limits.max_bound {
        let level_base = (tally.stats.schedules, tally.stats.executions, tally.hits());
        let (finished_bound, pruned) = if stealing {
            crate::steal::run_level_stealing(program, config, kind, bound, limits, live, |s| {
                run_level(&mut tally, s, kind, bound)
            })
        } else {
            let mut dfs = BoundedDfs::new(kind.policy(), bound).with_sleep_sets(limits.por);
            let mut search = Bounded {
                exec: &mut exec,
                dfs: &mut dfs,
                buffers: &mut buffers,
            };
            run_level(&mut tally, &mut search, kind, bound)
        };
        // Only schedules new at this bound are recorded, so the level's
        // schedule count is its "# new schedules".
        let new_at_bound = tally.stats.schedules - level_base.0;
        tally.stats.final_bound = Some(bound);
        tally.stats.new_schedules_at_final_bound = new_at_bound;
        limits.telemetry.emit(|| Event::BoundLevel {
            program: program.name.clone(),
            technique: label.to_string(),
            bound: bound as u64,
            schedules: new_at_bound,
            executions: tally.stats.executions - level_base.1,
            cache_hits: tally.hits() - level_base.2,
            new_at_bound,
        });
        if !degradation_reported && limits.telemetry.is_on() && tally.is_full() {
            degradation_reported = true;
            limits.telemetry.emit(|| Event::CacheDegraded {
                program: program.name.clone(),
                technique: label.to_string(),
                bytes: tally.bytes(),
                max_bytes: limits.cache_max_bytes,
            });
        }
        let agg = &mut tally.stats;
        if agg.found_bug() && agg.bound_of_first_bug.is_none() {
            agg.bound_of_first_bug = Some(bound);
        }
        if agg.deadline_exceeded {
            // The wall clock, not the search, ended this level: report the
            // partial results without claiming completion, truncation or
            // bound exhaustion.
            stopped = true;
            break;
        }
        if agg.schedules >= limits.schedule_limit && !finished_bound {
            agg.hit_schedule_limit = true;
            stopped = true;
            break;
        }
        if agg.found_bug() {
            // The paper completes the bound at which the bug was found (to
            // enable the worst-case analysis of Figure 4) and then stops.
            stopped = true;
            break;
        }
        if finished_bound && !pruned {
            // Nothing was pruned: every terminal schedule has been explored.
            agg.complete = true;
            stopped = true;
            break;
        }
        if agg.schedules >= limits.schedule_limit {
            agg.hit_schedule_limit = true;
            stopped = true;
            break;
        }
    }
    // Falling out of the bound loop means every level up to `max_bound` ran
    // without a bug, without covering the space and without exhausting the
    // budget: the search gave up on bounds, not on schedules.
    tally.stats.bound_exhausted = !stopped;
    tally.finish()
}

/// Run one of the study's techniques with its standard configuration.
pub fn run_technique(
    program: &Program,
    config: &ExecConfig,
    technique: Technique,
    limits: &ExploreLimits,
) -> ExplorationStats {
    let started = Instant::now();
    let mut stats = match technique {
        Technique::Dfs => explore_dfs(program, config, BoundKind::None, u32::MAX, limits, None),
        Technique::IterativePreemptionBounding => {
            iterative_bounding(program, config, BoundKind::Preemption, limits)
        }
        Technique::IterativeDelayBounding => {
            iterative_bounding(program, config, BoundKind::Delay, limits)
        }
        Technique::Random { seed } => {
            let mut scheduler = RandomScheduler::new(limits.schedule_limit, seed);
            explore_with(program, config, &mut scheduler, limits)
        }
        Technique::Pct { depth, seed } => {
            let mut scheduler = PctScheduler::new(limits.schedule_limit, depth, seed);
            explore_with(program, config, &mut scheduler, limits)
        }
        Technique::MapleLike {
            profiling_runs,
            seed,
        } => {
            let mut scheduler = MapleLikeScheduler::new(profiling_runs, seed);
            explore_with(program, config, &mut scheduler, limits)
        }
    };
    // The outermost stamp wins: it covers dispatch plus the driver, so every
    // caller of `run_technique` sees the full wall-clock cost.
    stats.explore_nanos = started.elapsed().as_nanos() as u64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::figure1;
    use sct_ir::prelude::*;

    /// Example 2 of the paper: duplicate T1's statements in a second thread
    /// so that delay bounding needs two delays while preemption bounding
    /// still needs only one preemption.
    fn figure1_adversarial() -> Program {
        let mut p = ProgramBuilder::new("figure1-adversarial");
        let x = p.global("x", 0);
        let y = p.global("y", 0);
        let writer = p.thread("writer", |b| {
            b.store(x, 1);
            b.store(y, 1);
        });
        let t3 = p.thread("t3", |b| {
            let rx = b.local("rx");
            let ry = b.local("ry");
            b.load(x, rx);
            b.load(y, ry);
            b.assert_cond(eq(rx, ry), "x == y");
        });
        p.main(|b| {
            b.spawn(writer);
            b.spawn(writer);
            b.spawn(t3);
        });
        p.build().unwrap()
    }

    fn config() -> ExecConfig {
        ExecConfig::all_visible()
    }

    fn limits() -> ExploreLimits {
        ExploreLimits::with_schedule_limit(10_000)
    }

    #[test]
    fn iterative_delay_bounding_finds_figure1_at_bound_one() {
        let stats = iterative_bounding(&figure1(), &config(), BoundKind::Delay, &limits());
        assert!(stats.found_bug());
        assert_eq!(stats.bound_of_first_bug, Some(1));
        assert!(stats.new_schedules_at_final_bound > 0);
        assert!(stats.buggy_schedules >= 1);
    }

    #[test]
    fn iterative_preemption_bounding_finds_figure1_at_bound_one() {
        let stats = iterative_bounding(&figure1(), &config(), BoundKind::Preemption, &limits());
        assert!(stats.found_bug());
        assert_eq!(stats.bound_of_first_bug, Some(1));
    }

    #[test]
    fn dfs_also_finds_the_bug_eventually() {
        let stats = run_technique(&figure1(), &config(), Technique::Dfs, &limits());
        assert!(stats.found_bug());
        assert!(stats.complete, "figure1's schedule space is small");
    }

    #[test]
    fn random_finds_the_bug_within_the_budget() {
        let stats = run_technique(
            &figure1(),
            &config(),
            Technique::Random { seed: 1 },
            &ExploreLimits::with_schedule_limit(2_000),
        );
        assert!(stats.found_bug());
        assert!(stats.schedules <= 2_000);
    }

    #[test]
    fn adversarial_example_needs_two_delays_but_one_preemption() {
        // Example 2 (§2): the duplicated writer pushes the required delay
        // bound to 2 while the preemption bound stays at 1.
        let prog = figure1_adversarial();
        let pb = iterative_bounding(&prog, &config(), BoundKind::Preemption, &limits());
        let db = iterative_bounding(&prog, &config(), BoundKind::Delay, &limits());
        assert_eq!(pb.bound_of_first_bug, Some(1));
        assert_eq!(db.bound_of_first_bug, Some(2));
    }

    #[test]
    fn technique_labels_and_suite() {
        assert_eq!(Technique::Dfs.label(), "DFS");
        assert_eq!(Technique::IterativeDelayBounding.label(), "IDB");
        let suite = Technique::study_suite(3);
        assert_eq!(suite.len(), 5);
        assert_eq!(suite[0].label(), "IPB");
        assert_eq!(suite[4].label(), "MapleAlg");
    }

    #[test]
    fn schedule_limit_is_respected() {
        let stats = run_technique(
            &figure1(),
            &config(),
            Technique::Random { seed: 9 },
            &ExploreLimits::with_schedule_limit(17),
        );
        assert_eq!(stats.schedules, 17);
        assert!(stats.hit_schedule_limit);
    }

    #[test]
    fn iterative_bounding_reports_completion_on_tiny_programs() {
        // A single-threaded program has exactly one schedule; bound 0 covers
        // everything and the search reports completeness.
        let mut p = ProgramBuilder::new("single");
        let x = p.global("x", 0);
        p.main(|b| {
            b.store(x, 1);
        });
        let prog = p.build().unwrap();
        let stats = iterative_bounding(&prog, &config(), BoundKind::Delay, &limits());
        assert!(stats.complete);
        assert!(!stats.found_bug());
        assert_eq!(stats.schedules, 1);
    }

    /// The statistics with the execution/cache counters cleared, for
    /// comparing a cached against an uncached run (those counters are the
    /// only fields the cache is *supposed* to change).
    fn sans_cache_counters(mut stats: ExplorationStats) -> ExplorationStats {
        stats.executions = 0;
        stats.cache_hits = 0;
        stats.cache_bytes = 0;
        stats
    }

    #[test]
    fn cached_iterative_bounding_matches_uncached_with_fewer_executions() {
        for prog in [figure1(), figure1_adversarial()] {
            for kind in [BoundKind::Preemption, BoundKind::Delay] {
                let uncached = iterative_bounding(&prog, &config(), kind, &limits());
                let cached = iterative_bounding(&prog, &config(), kind, &limits().with_cache(true));
                assert_eq!(
                    sans_cache_counters(uncached.clone()),
                    sans_cache_counters(cached.clone()),
                    "{kind:?}: caching changed the exploration statistics"
                );
                assert!(uncached.cache_hits == 0 && uncached.cache_bytes == 0);
                assert!(cached.cache_hits > 0, "{kind:?}: interior never hit");
                assert!(cached.cache_bytes > 0);
                assert_eq!(
                    cached.executions + cached.cache_hits,
                    uncached.executions,
                    "{kind:?}: every skipped execution must be a cache hit"
                );
                assert!(
                    cached.executions < uncached.executions,
                    "{kind:?}: caching saved nothing"
                );
            }
        }
    }

    #[test]
    fn cached_iterative_bounding_composes_with_sleep_sets() {
        let prog = figure1();
        for kind in [BoundKind::Preemption, BoundKind::Delay] {
            let uncached = iterative_bounding(&prog, &config(), kind, &limits().with_por(true));
            let cached = iterative_bounding(
                &prog,
                &config(),
                kind,
                &limits().with_por(true).with_cache(true),
            );
            assert_eq!(
                sans_cache_counters(uncached.clone()),
                sans_cache_counters(cached),
                "{kind:?}: caching changed the POR exploration statistics"
            );
        }
    }

    #[test]
    fn cached_iterative_bounding_respects_budget_truncation() {
        let prog = figure1();
        for limit in [1u64, 2, 3, 5, 8] {
            let lim = ExploreLimits::with_schedule_limit(limit);
            let uncached = iterative_bounding(&prog, &config(), BoundKind::Delay, &lim);
            let cached =
                iterative_bounding(&prog, &config(), BoundKind::Delay, &lim.with_cache(true));
            assert_eq!(
                sans_cache_counters(uncached),
                sans_cache_counters(cached),
                "limit {limit}"
            );
        }
    }

    #[test]
    fn exhausting_the_space_at_exactly_the_limit_is_complete_not_truncated() {
        // First learn the exact size of figure1's unbounded DFS space, then
        // re-run with the limit set to precisely that size: the search is
        // complete, and must not also claim it was cut short.
        let full = run_technique(&figure1(), &config(), Technique::Dfs, &limits());
        assert!(full.complete && !full.hit_schedule_limit);
        let n = full.schedules;

        let exact = run_technique(
            &figure1(),
            &config(),
            Technique::Dfs,
            &ExploreLimits::with_schedule_limit(n),
        );
        assert_eq!(exact.schedules, n);
        assert!(exact.complete, "space exhausted at exactly the limit");
        assert!(
            !exact.hit_schedule_limit,
            "a complete search must not be reported as truncated"
        );

        let truncated = run_technique(
            &figure1(),
            &config(),
            Technique::Dfs,
            &ExploreLimits::with_schedule_limit(n - 1),
        );
        assert!(!truncated.complete);
        assert!(truncated.hit_schedule_limit);
    }

    #[test]
    fn por_search_exhausted_at_exactly_the_limit_is_complete() {
        // Sleep-set reduction can leave *redundant* (uncounted) completions
        // at the tail of the backtrack order. A budget that fills on the
        // last counted schedule must still report completeness: the probe
        // drains trailing redundant runs instead of mistaking them for
        // remaining countable work.
        for prog in [figure1(), figure1_adversarial()] {
            let por = limits().with_por(true);
            let full = run_technique(&prog, &config(), Technique::Dfs, &por);
            assert!(full.complete && !full.hit_schedule_limit);
            let n = full.schedules;

            let exact = run_technique(
                &prog,
                &config(),
                Technique::Dfs,
                &ExploreLimits::with_schedule_limit(n).with_por(true),
            );
            assert_eq!(exact.schedules, n);
            assert!(
                exact.complete,
                "POR space exhausted at exactly the limit must be complete"
            );
            assert!(!exact.hit_schedule_limit);
            // The drain runs any trailing redundant completions, so the
            // execution count matches the unconstrained run exactly.
            assert_eq!(exact.executions, full.executions);
        }
    }

    #[test]
    fn non_exhaustible_schedulers_are_never_probed_at_the_limit() {
        // Rand/PCT/MapleAlg can never prove their space covered, so probing
        // them at the limit would only burn (and then discard) executions.
        // Their executions must remain an exact function of the schedules
        // they ran, POR flag or not.
        for por in [false, true] {
            for technique in [
                Technique::Random { seed: 3 },
                Technique::Pct { depth: 2, seed: 3 },
                Technique::MapleLike {
                    profiling_runs: 2,
                    seed: 3,
                },
            ] {
                let stats = run_technique(
                    &figure1(),
                    &config(),
                    technique,
                    &ExploreLimits::with_schedule_limit(3).with_por(por),
                );
                assert_eq!(
                    stats.executions, stats.schedules,
                    "{technique:?} por={por}: probe executed discarded work"
                );
                assert!(!stats.complete);
            }
        }
    }

    #[test]
    fn running_out_of_bounds_is_reported_explicitly() {
        // figure1 needs bound 1 for its bug; capping max_bound at 0 makes
        // iterative bounding walk every level (just the one) and give up:
        // not complete, not truncated — bound-exhausted.
        let lim = ExploreLimits {
            max_bound: 0,
            ..limits()
        };
        let stats = iterative_bounding(&figure1(), &config(), BoundKind::Delay, &lim);
        assert!(!stats.found_bug());
        assert!(!stats.complete);
        assert!(!stats.hit_schedule_limit);
        assert!(stats.bound_exhausted, "gave up on bounds, and must say so");
        assert_eq!(stats.final_bound, Some(0));

        // With enough bounds the flag stays off in every stopping case.
        let found = iterative_bounding(&figure1(), &config(), BoundKind::Delay, &limits());
        assert!(found.found_bug() && !found.bound_exhausted);
    }

    #[test]
    fn pct_with_depth_two_finds_the_single_preemption_bug() {
        let stats = run_technique(
            &figure1(),
            &config(),
            Technique::Pct { depth: 2, seed: 5 },
            &ExploreLimits::with_schedule_limit(2_000),
        );
        assert!(stats.found_bug());
    }
}
