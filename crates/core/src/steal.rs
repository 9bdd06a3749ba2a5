//! Work-stealing exploration *within* one bound level.
//!
//! The paper's hard benchmarks put nearly all of their schedules into a
//! single bound level, which a serial driver walks on one core. This module
//! splits the frontier of one bounded DFS itself: a shared queue of
//! unexplored decision-prefix subtrees that workers claim, explore
//! depth-first with their own reusable [`Execution`], and re-split whenever
//! another worker goes hungry — while keeping every reported statistic
//! **bit-identical to the serial search at any worker count**.
//!
//! The engine is one of the repository's two parallel mechanisms (the other
//! is the harness's `--workers` fan-out over benchmark × technique units,
//! see [`crate::parallel`]). It does no accounting of its own: it hands the
//! level's schedules to the caller in serial visit order as a search, and
//! the exploration drivers in [`crate::explore`] run that through the same
//! per-schedule accounting as their inline searches.
//!
//! # The donation protocol
//!
//! Between two executions, a victim's [`BoundedDfs`] stack is exactly the
//! path of the schedule it just completed, and every unexplored alternative
//! hangs off some node of that path. [`BoundedDfs::donate_oldest_subtree`]
//! strips *all* remaining alternatives from the shallowest such node and
//! ships them — with the decision prefix, bound costs, and entry sleep set —
//! as a [`SubtreeSeed`]. A thief seeds a fresh scheduler with it
//! ([`BoundedDfs::seed_subtree`]) and explores exactly the subtrees the
//! serial search would have explored there, in the same order, because the
//! backtracking search is deterministic given the node's entry state. The
//! thief's own seeded node still holds the rest of the bundle, so it
//! re-splits under the same rule when workers go hungry again.
//!
//! # Why the hand-off is sound under POR and bounding
//!
//! The entry sleep set of sibling `i + 1` is the node's sleep set after
//! sibling `i`'s subtree has been explored. Under the wake-on-bound-conflict
//! rule a thread only goes to sleep if the bound excluded nothing inside its
//! subtree — a fact that is unknown until the subtree has been fully
//! explored, so under a *pruning* bound the siblings carry a serial
//! dependency and there is nothing deterministic to donate. When the policy
//! cannot prune ([`crate::bounds::BoundPolicy::can_prune`] is `false`, i.e.
//! plain DFS), the previously chosen thread *always* goes to sleep, so every
//! sibling's entry sleep set is known a priori and donation is exact; with
//! sleep sets off the entry state is just the prefix. Hence the gate used
//! throughout: steal only when POR is off or the policy cannot prune;
//! otherwise fall back to the serial driver (bit-identity trivially holds).
//! The schedule cache needs no such gate — workers share one
//! [`ScheduleCache`] purely as a memo of the deterministic program, and the
//! reported cache counters are reconstructed serially by the caller's
//! [`crate::cache::CacheReplay`] mirror.
//!
//! # Deterministic folding
//!
//! Each task appends to an ordered stream of entries: per-execution digests,
//! plus `Spawn` markers recording *where in its own stream* a donated bundle
//! belongs. A donation at stack index `d` belongs right after the last
//! schedule of the subtree the victim was inside at node `d` — i.e. the
//! marker is emitted as soon as the victim's backtracking depth retreats to
//! `d` or above. The fold (on the calling thread) walks the root task's
//! stream and recursively expands markers, which recovers the serial DFS
//! visit order of the entire level; per-item counter deltas (sleep-set
//! insertions split into their begin-execution phase, reduction prunes,
//! bound prunes) let the consumer replay the serial scheduler's
//! `begin`/complete split, so the serial driver's truncation, probe and
//! drain behaviour carries over to the counter, including mid-stream budget
//! cut-offs.

use crate::bounds::BoundKind;
use crate::cache::{
    self, CacheHandle, ScheduleBuffers, ScheduleCache, ScheduleRun, TerminalDigest, VisitTrace,
};
use crate::dfs::{BoundedDfs, SubtreeSeed};
use crate::explore::{self, ExploreLimits, Search, Visit};
use crate::scheduler::Scheduler;
use crate::stats::ExplorationStats;
use crate::telemetry::{Event, Telemetry};
use sct_ir::Program;
use sct_runtime::{ExecConfig, Execution};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError, RwLock};
use std::thread;

/// One completed execution, in its producing task's local order.
struct Item {
    digest: TerminalDigest,
    /// Sleep-blocked completion (uncounted by every driver).
    redundant: bool,
    /// Executed for real (`false`: served from the shared cache).
    executed: bool,
    /// Sleep-set insertions performed by the `begin_execution` that installed
    /// this execution; the fold adds the boundary insertions of any subtree
    /// hand-offs the serial order crosses to reach it. Kept separate from the
    /// run-phase counters because the serial probe-at-the-limit *prepares*
    /// one execution (performing these insertions) without running it.
    begin_slept: u64,
    /// Reduction prunes recorded while the execution ran.
    ran_pruned_by_sleep: u64,
    /// Bound exclusions recorded while the execution ran.
    ran_bound_prunes: u64,
    /// Visit footprint for the caller's cache replay (cached levels only).
    trace: Option<VisitTrace>,
}

/// One entry of a task's ordered stream.
enum Entry {
    /// A completed execution (`None` once the fold has consumed it).
    Item(Option<Item>),
    /// The stream of the given task continues the serial order here.
    Spawn(usize),
}

struct TaskState {
    entries: Vec<Entry>,
    done: bool,
    /// Parked until a worker claims the task; `None` for the root task.
    seed: Option<SubtreeSeed>,
    /// Boundary sleep insertions charged when the fold enters this stream.
    entry_slept: u64,
    /// Items emitted but not yet taken by the fold — the producer parks when
    /// this exceeds [`PRODUCER_WINDOW`] so a starved fold (or a truncating
    /// schedule limit) cannot let workers run arbitrarily far ahead.
    unconsumed: usize,
}

struct EngineState {
    tasks: Vec<TaskState>,
    pending: VecDeque<usize>,
    /// Tasks not yet finished (queued or claimed).
    unfinished: usize,
}

/// Shared state of one stealing engine run.
struct Engine {
    state: Mutex<EngineState>,
    /// Workers wait here for pending tasks.
    work_cv: Condvar,
    /// The fold waits here for new entries.
    item_cv: Condvar,
    /// Raised once no further results can matter: the caller has taken
    /// every schedule it needs (or unwound).
    stop: AtomicBool,
    /// Workers currently waiting for a task — the hunger signal that makes
    /// busy workers donate a subtree.
    idle: AtomicUsize,
    /// Mirror of `pending.len()` so the donation check stays lock-free.
    pending_len: AtomicUsize,
    /// Producers park here when their task's stream is a full
    /// [`PRODUCER_WINDOW`] ahead of the fold.
    space_cv: Condvar,
}

impl Engine {
    fn new() -> Self {
        Engine {
            state: Mutex::new(EngineState {
                tasks: vec![TaskState {
                    entries: Vec::new(),
                    done: false,
                    seed: None,
                    entry_slept: 0,
                    unconsumed: 0,
                }],
                pending: VecDeque::from([0]),
                unfinished: 1,
            }),
            work_cv: Condvar::new(),
            item_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            idle: AtomicUsize::new(0),
            pending_len: AtomicUsize::new(1),
            space_cv: Condvar::new(),
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Raise the stop flag and wake everyone so they can observe it. Runs
    /// while unwinding too, so a poisoned lock is recovered rather than
    /// panicked on: the guard only orders the wake-ups, nothing is written.
    fn shut_down(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let _guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.work_cv.notify_all();
        self.item_cv.notify_all();
        self.space_cv.notify_all();
    }

    /// Register a donated bundle as a new pending task and return its id.
    fn spawn_task(&self, seed: SubtreeSeed) -> usize {
        let entry_slept = seed.entry_slept;
        let mut st = self.state.lock().expect("engine state poisoned");
        let id = st.tasks.len();
        st.tasks.push(TaskState {
            entries: Vec::new(),
            done: false,
            seed: Some(seed),
            entry_slept,
            unconsumed: 0,
        });
        st.pending.push_back(id);
        st.unfinished += 1;
        self.pending_len.store(st.pending.len(), Ordering::Relaxed);
        self.work_cv.notify_one();
        id
    }

    /// Append entries to a task's stream (and optionally finish it).
    fn emit(&self, task: usize, entries: Vec<Entry>, finished: bool) {
        let items = entries
            .iter()
            .filter(|e| matches!(e, Entry::Item(_)))
            .count();
        let mut st = self.state.lock().expect("engine state poisoned");
        st.tasks[task].entries.extend(entries);
        st.tasks[task].unconsumed += items;
        if finished {
            st.tasks[task].done = true;
            st.unfinished -= 1;
            if st.unfinished == 0 {
                self.work_cv.notify_all();
            }
        }
        self.item_cv.notify_all();
    }

    /// Park until the fold has taken enough of `task`'s stream to leave its
    /// backlog under [`PRODUCER_WINDOW`], returning whether parking
    /// happened — the caller re-checks cancellation and worker hunger
    /// between parks. Deadlock-free by construction: the stream the fold is
    /// currently waiting on has been consumed up to its end, so its
    /// producer never parks.
    fn wait_for_space(&self, task: usize) -> bool {
        let st = self.state.lock().expect("engine state poisoned");
        if self.stopped() || st.tasks[task].unconsumed < PRODUCER_WINDOW {
            return false;
        }
        drop(self.space_cv.wait(st).expect("engine state poisoned"));
        true
    }
}

/// Per-run configuration shared by every worker.
struct WorkerCtx<'a> {
    engine: &'a Engine,
    program: &'a Program,
    config: &'a ExecConfig,
    kind: BoundKind,
    bound: u32,
    por: bool,
    /// The trie workers walk and grow; when present, they also ship visit
    /// traces for the caller's mirror.
    cache: Option<&'a RwLock<ScheduleCache>>,
    /// Telemetry handle for donation/theft/idle events. Events are
    /// observations only — workers never read telemetry state, so the folded
    /// results cannot depend on it.
    telemetry: &'a Telemetry,
}

/// How many entries a worker accumulates before handing them to the engine.
/// Bounds the fold's latency behind any one worker to a few dozen executions
/// while amortising the lock/wake cost across them.
const EMIT_BATCH: usize = 32;

/// How many emitted-but-unfolded items one task's stream may hold before its
/// producer parks. Without the cap, workers outrunning the fold — a starved
/// consumer thread, or a schedule limit about to truncate the search — would
/// explore (and then discard) arbitrarily much of the tree past the point
/// the serial order has reached.
const PRODUCER_WINDOW: usize = 4 * EMIT_BATCH;

/// Worker loop: claim tasks, explore them execution by execution, donate
/// sibling bundles when other workers starve, and stream entries back.
///
/// `who` is the worker's index within its pool, used only to label telemetry
/// events; it never influences claiming or exploration.
fn worker(ctx: &WorkerCtx<'_>, who: u64) {
    let engine = ctx.engine;
    let mut exec = Execution::new_shared(ctx.program, ctx.config);
    let mut buffers = ScheduleBuffers::default();
    'tasks: loop {
        let (task_id, seed) = {
            let mut st = engine.state.lock().expect("engine state poisoned");
            loop {
                if engine.stopped() || st.unfinished == 0 {
                    return;
                }
                if let Some(id) = st.pending.pop_front() {
                    engine
                        .pending_len
                        .store(st.pending.len(), Ordering::Relaxed);
                    let seed = st.tasks[id].seed.take();
                    break (id, seed);
                }
                engine.idle.fetch_add(1, Ordering::Relaxed);
                // Recorders never touch the engine, so emitting while holding
                // its lock cannot deadlock.
                ctx.telemetry.emit(|| Event::WorkerIdle {
                    program: ctx.program.name.clone(),
                    worker: who,
                    idle: true,
                });
                st = engine.work_cv.wait(st).expect("engine state poisoned");
                engine.idle.fetch_sub(1, Ordering::Relaxed);
                ctx.telemetry.emit(|| Event::WorkerIdle {
                    program: ctx.program.name.clone(),
                    worker: who,
                    idle: false,
                });
            }
        };
        if seed.is_some() {
            // A present seed means this task was donated by another worker and
            // is now being claimed — a completed theft.
            ctx.telemetry.emit(|| Event::StealTheft {
                program: ctx.program.name.clone(),
                worker: who,
                task: task_id as u64,
            });
        }
        let mut sched = BoundedDfs::new(ctx.kind.policy(), ctx.bound).with_sleep_sets(ctx.por);
        if let Some(seed) = seed {
            sched.seed_subtree(seed);
        }
        // Donations this task made, as (stack index, task id). Indices are
        // strictly increasing: donating empties every alternative list at or
        // below its index, so the next donation is always deeper.
        let mut donated: Vec<(usize, usize)> = Vec::new();
        let (mut slept, mut pruned_by_sleep) = (0u64, 0u64);
        let mut bound_prunes = 0u64;
        // Entries accumulated locally and emitted in batches: taking the
        // engine lock and waking the fold once per execution costs more than
        // many of the executions themselves. Ordering within the task's
        // stream is unchanged; only the hand-off granularity is.
        let mut batch: Vec<Entry> = Vec::new();
        loop {
            // Between executions: observe cancellation, feed hungry workers,
            // and park while this task's stream is too far ahead of the fold
            // (re-checking the first two between parks).
            loop {
                if engine.stopped() {
                    // Results can no longer matter; finish the task so the
                    // engine's bookkeeping drains cleanly.
                    engine.emit(task_id, std::mem::take(&mut batch), true);
                    return;
                }
                if engine.idle.load(Ordering::Relaxed) > 0
                    && engine.pending_len.load(Ordering::Relaxed) == 0
                {
                    if let Some((seed, depth)) = sched.donate_oldest_subtree() {
                        let id = engine.spawn_task(seed);
                        ctx.telemetry.emit(|| Event::StealDonate {
                            program: ctx.program.name.clone(),
                            worker: who,
                            task: id as u64,
                            depth: depth as u64,
                        });
                        donated.push((depth, id));
                    }
                }
                if !engine.wait_for_space(task_id) {
                    break;
                }
            }
            let more = sched.begin_execution();
            // Emit the hand-off markers the serial order has reached: the
            // search retreated past (or never returns to) the donated node.
            let cut = if more { sched.depth() } else { 0 };
            while donated.last().is_some_and(|&(depth, _)| cut <= depth) {
                let (_, id) = donated.pop().expect("marker stack emptied");
                batch.push(Entry::Spawn(id));
            }
            if !more {
                engine.emit(task_id, std::mem::take(&mut batch), true);
                continue 'tasks;
            }
            let (handle, want_trace) = match ctx.cache {
                Some(lock) => (CacheHandle::Shared(lock), true),
                None => (CacheHandle::Off, false),
            };
            let mut trace = want_trace.then(VisitTrace::default);
            let run = cache::run_begun_schedule(
                &mut exec,
                &mut sched,
                handle,
                &mut buffers,
                trace.as_mut(),
            );
            let (slept_now, pruned_by_sleep_now) = sched.sleep_counters();
            let bound_prunes_now = sched.bound_prune_count();
            batch.push(Entry::Item(Some(Item {
                executed: matches!(run, ScheduleRun::Executed(_)),
                digest: run.digest(),
                redundant: sched.current_execution_redundant(),
                begin_slept: slept_now - slept,
                ran_pruned_by_sleep: pruned_by_sleep_now - pruned_by_sleep,
                ran_bound_prunes: bound_prunes_now - bound_prunes,
                trace,
            })));
            (slept, pruned_by_sleep, bound_prunes) =
                (slept_now, pruned_by_sleep_now, bound_prunes_now);
            if batch.len() >= EMIT_BATCH {
                engine.emit(task_id, std::mem::take(&mut batch), false);
            }
        }
    }
}

/// Serial-order cursor over the nested task streams.
struct Fold<'a> {
    engine: &'a Engine,
    /// `(task id, next entry index)`, innermost stream last.
    cursors: Vec<(usize, usize)>,
    /// Boundary sleep insertions of expanded markers, awaiting the next item.
    carry_slept: u64,
    /// Items already drained from the streams, awaiting consumption. Taking
    /// the engine lock once per item would contend with the producers; the
    /// fold instead drains every consecutively available item per
    /// acquisition.
    ready: VecDeque<Item>,
}

impl<'a> Fold<'a> {
    fn new(engine: &'a Engine) -> Self {
        Fold {
            engine,
            cursors: vec![(0, 0)],
            carry_slept: 0,
            ready: VecDeque::new(),
        }
    }

    /// The next item in serial DFS order, blocking until it has been
    /// produced. `None` when the whole level is exhausted (or the engine was
    /// stopped, which only happens once the consumer is done).
    fn next(&mut self) -> Option<Item> {
        if self.engine.stopped() {
            return None;
        }
        if let Some(item) = self.ready.pop_front() {
            return Some(item);
        }
        let mut st = self.engine.state.lock().expect("engine state poisoned");
        // Wake parked producers once per drain, not once per taken item.
        let mut freed = false;
        loop {
            if self.engine.stopped() {
                return None;
            }
            let Some(&(task, idx)) = self.cursors.last() else {
                // Exhausted: drain the buffer before reporting the end.
                return self.ready.pop_front();
            };
            if idx < st.tasks[task].entries.len() {
                self.cursors.last_mut().expect("cursor stack emptied").1 += 1;
                match &mut st.tasks[task].entries[idx] {
                    Entry::Item(slot) => {
                        let mut item = slot.take().expect("stream entry folded twice");
                        item.begin_slept += std::mem::take(&mut self.carry_slept);
                        self.ready.push_back(item);
                        st.tasks[task].unconsumed -= 1;
                        freed = true;
                    }
                    Entry::Spawn(id) => {
                        let id = *id;
                        self.carry_slept += st.tasks[id].entry_slept;
                        self.cursors.push((id, 0));
                    }
                }
            } else if st.tasks[task].done {
                self.cursors.pop();
            } else if let Some(item) = self.ready.pop_front() {
                // Nothing more is available right now; serve what was
                // drained before sleeping on the producers.
                if freed {
                    self.engine.space_cv.notify_all();
                }
                return Some(item);
            } else {
                if std::mem::take(&mut freed) {
                    self.engine.space_cv.notify_all();
                }
                st = self.engine.item_cv.wait(st).expect("engine state poisoned");
            }
        }
    }
}

/// Whether the stealing gate allows parallel exploration for this
/// configuration (see the module docs for the argument).
pub(crate) fn stealing_sound(kind: BoundKind, por: bool) -> bool {
    !por || !kind.policy().can_prune()
}

/// Bounded DFS through the work-stealing engine, with the exact semantics of
/// the serial driver — including the completion probe and redundant-run
/// drain at the schedule limit. Runs the serial driver when
/// `steal_workers <= 1` or when the POR/bound combination makes donation
/// unsound (see the module docs).
pub fn explore_bounded_stealing(
    program: &Program,
    config: &ExecConfig,
    kind: BoundKind,
    bound: u32,
    limits: &ExploreLimits,
) -> ExplorationStats {
    explore::explore_dfs(program, config, kind, bound, limits, None)
}

/// [`explore_bounded_stealing`], also returning the terminal digests of the
/// counted schedules in serial DFS order. The differential tests compare
/// these (bug sets and terminal fingerprints) against a serial drive of the
/// same search, on top of the statistics equality.
pub fn explore_bounded_stealing_digests(
    program: &Program,
    config: &ExecConfig,
    kind: BoundKind,
    bound: u32,
    limits: &ExploreLimits,
) -> (ExplorationStats, Vec<TerminalDigest>) {
    let mut digests = Vec::new();
    let stats = explore::explore_dfs(program, config, kind, bound, limits, Some(&mut digests));
    (stats, digests)
}

/// One bound level on the work-stealing engine, seen as a [`Search`]: the
/// serial visit order of the level, one schedule per `begin`/`complete`
/// pair, with the sleep-set counters charged in the same two phases as the
/// serial scheduler charges them.
pub(crate) struct Stolen<'e> {
    fold: Fold<'e>,
    /// The schedule `begin` took off the stream, awaiting `complete`.
    begun: Option<Item>,
    exhausted: bool,
    slept: u64,
    pruned_by_sleep: u64,
    pruned: bool,
}

impl Search for Stolen<'_> {
    fn begin(&mut self) -> bool {
        match self.fold.next() {
            Some(item) => {
                self.slept += item.begin_slept;
                self.begun = Some(item);
                true
            }
            None => {
                self.exhausted = true;
                false
            }
        }
    }

    fn complete(&mut self, _cache: CacheHandle<'_>, trace: Option<&mut VisitTrace>) -> Visit {
        let item = self
            .begun
            .take()
            .expect("complete follows a successful begin");
        self.pruned_by_sleep += item.ran_pruned_by_sleep;
        self.pruned |= item.ran_bound_prunes > 0;
        if let Some(out) = trace {
            *out = item
                .trace
                .expect("workers ship traces when a trie is shared");
        }
        Visit {
            run: ScheduleRun::Served(item.digest),
            executed: item.executed,
            redundant: item.redundant,
        }
    }

    fn sleep_counters(&self) -> (u64, u64) {
        (self.slept, self.pruned_by_sleep)
    }

    fn is_exhaustive(&self) -> bool {
        self.exhausted
    }

    fn can_exhaust(&self) -> bool {
        true
    }

    fn was_pruned(&self) -> bool {
        self.pruned
    }
}

/// Shuts the engine down when dropped, so the workers exit even when the
/// consumer unwinds (a scoped thread is joined before the panic propagates).
struct ShutDown<'e>(&'e Engine);

impl Drop for ShutDown<'_> {
    fn drop(&mut self) {
        self.0.shut_down();
    }
}

/// Explore one bound level with the work-stealing engine and hand its
/// schedules to `consume` as a [`Stolen`] search, in serial visit order.
/// Workers walk and grow `cache` when given, and then ship visit traces for
/// the caller's mirror. The workers stop once `consume` returns: producers
/// run at most a few batches ahead of the schedules the caller takes, so a
/// caller that stops at its budget discards little work. Callers gate on
/// [`ExploreLimits::steal_workers`] and [`stealing_sound`].
pub(crate) fn run_level_stealing<R>(
    program: &Program,
    config: &ExecConfig,
    kind: BoundKind,
    bound: u32,
    limits: &ExploreLimits,
    cache: Option<&RwLock<ScheduleCache>>,
    consume: impl FnOnce(&mut Stolen<'_>) -> R,
) -> R {
    debug_assert!(stealing_sound(kind, limits.por));
    let engine = Engine::new();
    let ctx = WorkerCtx {
        engine: &engine,
        program,
        config,
        kind,
        bound,
        por: limits.por,
        cache,
        telemetry: &limits.telemetry,
    };
    thread::scope(|scope| {
        let ctx = &ctx;
        for who in 0..limits.steal_workers.max(1) {
            scope.spawn(move || worker(ctx, who as u64));
        }
        let _shut_down = ShutDown(&engine);
        consume(&mut Stolen {
            fold: Fold::new(&engine),
            begun: None,
            exhausted: false,
            slept: 0,
            pruned_by_sleep: 0,
            pruned: false,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::figure1;
    use sct_ir::prelude::*;

    fn config() -> ExecConfig {
        ExecConfig::all_visible()
    }

    fn limits(schedule_limit: u64) -> ExploreLimits {
        ExploreLimits::with_schedule_limit(schedule_limit)
    }

    fn serial_reference(
        kind: BoundKind,
        bound: u32,
        limits: &ExploreLimits,
    ) -> (ExplorationStats, Vec<TerminalDigest>) {
        let serial = ExploreLimits {
            steal_workers: 1,
            ..limits.clone()
        };
        explore_bounded_stealing_digests(&figure1(), &config(), kind, bound, &serial)
    }

    #[test]
    fn stolen_unbounded_dfs_matches_serial_at_every_worker_count() {
        for por in [false, true] {
            for schedule_limit in [3u64, 10_000] {
                let lim = limits(schedule_limit).with_por(por);
                let (serial, serial_digests) = serial_reference(BoundKind::None, u32::MAX, &lim);
                for workers in [2usize, 3, 8] {
                    let stolen = ExploreLimits {
                        steal_workers: workers,
                        ..lim.clone()
                    };
                    let (stats, digests) = explore_bounded_stealing_digests(
                        &figure1(),
                        &config(),
                        BoundKind::None,
                        u32::MAX,
                        &stolen,
                    );
                    assert_eq!(
                        serial, stats,
                        "stats diverged at {workers} workers, por={por}, limit={schedule_limit}"
                    );
                    assert_eq!(
                        serial_digests, digests,
                        "digest stream diverged at {workers} workers, por={por}, limit={schedule_limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn stolen_bounded_level_matches_serial_without_por() {
        for kind in [BoundKind::Preemption, BoundKind::Delay] {
            for bound in [0u32, 1, 2] {
                let lim = limits(10_000);
                let (serial, serial_digests) = serial_reference(kind, bound, &lim);
                let stolen = ExploreLimits {
                    steal_workers: 4,
                    ..lim.clone()
                };
                let (stats, digests) =
                    explore_bounded_stealing_digests(&figure1(), &config(), kind, bound, &stolen);
                assert_eq!(serial, stats, "{kind:?} bound {bound}");
                assert_eq!(serial_digests, digests, "{kind:?} bound {bound}");
            }
        }
    }

    #[test]
    fn por_with_a_pruning_bound_falls_back_to_the_serial_driver() {
        // The gate: donation under POR + finite bound is unsound, so the
        // stealing entry point must produce the serial result by running the
        // serial driver (bit-identity trivially holds).
        let lim = ExploreLimits {
            steal_workers: 8,
            ..limits(10_000).with_por(true)
        };
        let (serial, serial_digests) = serial_reference(BoundKind::Preemption, 1, &lim);
        let (stats, digests) =
            explore_bounded_stealing_digests(&figure1(), &config(), BoundKind::Preemption, 1, &lim);
        assert_eq!(serial, stats);
        assert_eq!(serial_digests, digests);
        assert!(stats.found_bug());
    }

    #[test]
    fn donated_seed_round_trips_through_a_fresh_scheduler() {
        // Drive a search a few executions in, donate, and check the thief's
        // schedule of the first donated alternative extends the prefix.
        let prog = figure1();
        let cfg = config();
        let mut exec = Execution::new_shared(&prog, &cfg);
        let mut victim = BoundedDfs::unbounded().with_sleep_sets(true);
        for _ in 0..3 {
            assert!(victim.begin_execution());
            exec.reset();
            let outcome = exec.run(&mut |p| victim.choose(p), &mut sct_runtime::NoopObserver);
            victim.end_execution(&outcome);
        }
        let (seed, depth) = victim
            .donate_oldest_subtree()
            .expect("three executions in, some node must still have alternatives");
        assert_eq!(seed.prefix.len(), depth);
        assert!(!seed.alternatives.is_empty());
        assert_eq!(seed.entry_slept, 1, "sleep sets are on");
        let first_alternative = *seed.alternatives.last().expect("non-empty");
        let mut thief = BoundedDfs::unbounded().with_sleep_sets(true);
        let prefix = seed.prefix.clone();
        thief.seed_subtree(seed);
        assert!(thief.begin_execution());
        exec.reset();
        let outcome = exec.run(&mut |p| thief.choose(p), &mut sct_runtime::NoopObserver);
        thief.end_execution(&outcome);
        let schedule = outcome.schedule();
        for (i, (t, _)) in prefix.iter().enumerate() {
            assert_eq!(schedule[i], *t, "prefix replay diverged at step {i}");
        }
        assert_eq!(schedule[prefix.len()], first_alternative.0);
        // A second donation from the victim must sit strictly deeper.
        if let Some((_, depth2)) = victim.donate_oldest_subtree() {
            assert!(depth2 > depth);
        }
    }

    #[test]
    fn a_panic_in_the_consumer_shuts_the_engine_down() {
        // The schedule boundary (and with it any injected engine panic) runs
        // on the consuming thread. Unwinding from there must stop the
        // workers, which otherwise park a window ahead of the consumer and
        // keep the scope waiting forever — so the space must be far larger
        // than that window. The program name is unique so the armed fault
        // trips no concurrent test.
        use crate::fault::{self, FaultKind};
        let name = "steal-consumer-panic";
        let mut p = ProgramBuilder::new(name);
        let x = p.global("x", 0);
        let t = p.thread("t", |b| {
            b.store(x, 1);
            b.store(x, 2);
            b.store(x, 3);
        });
        p.main(|b| {
            for _ in 0..4 {
                b.spawn(t);
            }
        });
        let prog = p.build().unwrap();
        let _fault = fault::arm(FaultKind::SchedulePanic, name, 3);
        let lim = limits(10_000).with_steal_workers(2);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            explore_bounded_stealing(&prog, &config(), BoundKind::None, u32::MAX, &lim)
        }));
        assert!(run.is_err(), "the injected panic must reach the caller");
    }
}
