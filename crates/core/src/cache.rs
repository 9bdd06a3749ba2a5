//! Schedule caching for iterative bounding.
//!
//! Iterative schedule bounding (§2 of the paper) restarts the bounded DFS
//! from scratch at every bound level, so the search at bound *b + 1*
//! re-executes every schedule whose cost is at most *b* just to reach the new
//! frontier — the dominant cost on benchmarks where IPB/IDB climb several
//! bound levels before finding a bug. Because the runtime is deterministic,
//! that re-execution computes nothing new: the scheduling point reached after
//! a given decision prefix is always the same, and so is the terminal state
//! at the end of a given decision sequence.
//!
//! [`ScheduleCache`] exploits this by memoizing the program as a trie keyed
//! by the decision sequence:
//!
//! * an **interior node** stores the [`SchedulingPoint`] data the scheduler
//!   consumes at that prefix (compressed to a single [`PendingOp`] when only
//!   one thread is enabled, the overwhelmingly common case) as a range of
//!   one shared op arena, and its explored decisions in one shared edge
//!   array;
//! * a **terminal node** stores a [`TerminalDigest`]: the bug
//!   classification, final-state fingerprint, preemption/delay costs and the
//!   summary statistics [`crate::stats::ExplorationStats`] needs to record
//!   the schedule.
//!
//! [`run_begun_schedule`] then drives one schedule of a [`BoundedDfs`]: it
//! feeds the scheduler cached points for as long as the decision path stays
//! inside the trie. Reaching a cached terminal serves the whole schedule
//! **without executing the program**; leaving the trie falls back to a real
//! execution (the scheduler's replay machinery re-runs the prefix against the
//! live program) whose new suffix is then inserted into the trie.
//!
//! The cache is a *pure memo*: it changes which schedules are physically
//! executed, never which schedules the search visits or what the scheduler
//! observes, so it composes with sleep-set partial-order reduction and with
//! budget truncation by construction, and the exploration statistics of a
//! cached run are identical to an uncached one (minus the new
//! `executions` / `cache_hits` / `cache_bytes` counters). The differential
//! suite in `tests/integration.rs` is the proof obligation.
//!
//! Memory is bounded: every insertion is charged against a byte estimate
//! ([`node_weight`], [`TERMINAL_BYTES`]) and once the configured cap is
//! reached the cache stops growing — misses simply execute for real, so a
//! full cache degrades to the uncached search, never to an incorrect one.

use crate::dfs::BoundedDfs;
use crate::scheduler::Scheduler;
use sct_runtime::{
    Bug, Execution, ExecutionOutcome, NoopObserver, PendingOp, SchedulingPoint, ThreadId,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

/// Default memory cap for a schedule cache (per technique per benchmark).
pub const DEFAULT_CACHE_BYTES: u64 = 128 * 1024 * 1024;

/// Estimated bytes of one interior trie node with `enabled` runnable threads.
/// A single-thread node stores only a [`PendingOp`]; a choice node stores the
/// full scheduling point (enabled list + pending summaries + edge list). The
/// estimate is part of the corpus format (loads recompute and check it), so
/// it stays fixed whatever the in-memory layout.
pub fn node_weight(enabled: usize) -> u64 {
    const FORCED_NODE_BYTES: u64 = 56;
    const CHOICE_NODE_BYTES: u64 = 112;
    const PER_THREAD_BYTES: u64 = 56;
    if enabled <= 1 {
        FORCED_NODE_BYTES
    } else {
        CHOICE_NODE_BYTES + enabled as u64 * PER_THREAD_BYTES
    }
}

/// Estimated bytes of one terminal digest.
pub const TERMINAL_BYTES: u64 = 96;

/// The terminal outcome of one schedule, as remembered by the cache: enough
/// to classify the schedule (bug, costs) and to feed
/// [`ExplorationStats::record_parts`] without re-executing the program.
///
/// [`ExplorationStats::record_parts`]: crate::stats::ExplorationStats::record_parts
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TerminalDigest {
    /// The bug that terminated the execution, if any.
    pub bug: Option<Bug>,
    /// Whether the execution was cut off by the step limit.
    pub diverged: bool,
    /// Total number of threads created.
    pub threads_created: usize,
    /// Maximum number of simultaneously enabled threads.
    pub max_enabled: usize,
    /// Number of scheduling points with more than one enabled thread.
    pub scheduling_points: usize,
    /// Hash of the final program state.
    pub fingerprint: u64,
    /// Preemption count of the schedule (its cost under preemption bounding).
    pub preemptions: u32,
    /// Delay count of the schedule (its cost under delay bounding).
    pub delays: u32,
}

impl TerminalDigest {
    /// Digest of a just-completed execution.
    pub fn of(outcome: &ExecutionOutcome) -> Self {
        TerminalDigest {
            bug: outcome.bug.clone(),
            diverged: outcome.diverged,
            threads_created: outcome.threads_created,
            max_enabled: outcome.max_enabled,
            scheduling_points: outcome.scheduling_points,
            fingerprint: outcome.fingerprint,
            preemptions: outcome.preemption_count(),
            delays: outcome.delay_count(),
        }
    }

    /// Whether the cached schedule exposed a bug (divergence does not count).
    pub fn is_buggy(&self) -> bool {
        self.bug.as_ref().map(Bug::counts_as_bug).unwrap_or(false)
    }

    /// Record this schedule into exploration statistics — the digest-side
    /// twin of [`ExplorationStats::record`], so served and executed
    /// schedules go through one accounting path.
    ///
    /// [`ExplorationStats::record`]: crate::stats::ExplorationStats::record
    pub fn record_into(&self, stats: &mut crate::stats::ExplorationStats) {
        stats.record_parts(
            self.is_buggy(),
            self.diverged,
            self.threads_created,
            self.max_enabled,
            self.scheduling_points,
            self.bug.as_ref(),
        );
    }
}

/// Index sentinel: no edge (and, in a [`CacheReplay`], a terminal target).
pub(crate) const NONE: u32 = u32::MAX;

/// Outgoing edge target of a trie node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Link {
    /// The decision leads to another scheduling point.
    Interior(u32),
    /// The decision ends the execution; index into the terminal table.
    Terminal(u32),
}

/// What a choice node keeps of its [`SchedulingPoint`] besides the enabled
/// threads and their pending summaries. Those two live in the op arena:
/// `pending` is index-parallel to `enabled`, so the enabled threads are the
/// threads of the node's op range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PointContext {
    pub(crate) last: Option<ThreadId>,
    pub(crate) last_enabled: bool,
    pub(crate) num_threads: usize,
    pub(crate) step_index: usize,
}

impl PointContext {
    fn of(point: &SchedulingPoint) -> Self {
        PointContext {
            last: point.last,
            last_enabled: point.last_enabled,
            num_threads: point.num_threads,
            step_index: point.step_index,
        }
    }
}

/// One memoized scheduling point: a range of the op arena, its context and
/// the head of its edge list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// Start of the node's pending summaries in [`ScheduleCache::ops`].
    ops: u32,
    /// Number of enabled threads (the length of the op range).
    enabled: u32,
    /// Index into [`ScheduleCache::contexts`] for a genuine choice. `NONE`
    /// marks a *forced* node: exactly one thread was enabled, so the
    /// scheduler has no choice and only the pending summary (needed by
    /// sleep-set inheritance) and the single outgoing edge are kept.
    context: u32,
    /// First outgoing edge in [`ScheduleCache::edges`] (`NONE`: none yet).
    first_edge: u32,
}

/// One explored decision out of a node. A node's edges form a list through
/// `next` in insertion order, which is the order the corpus format stores
/// them in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    pub(crate) thread: ThreadId,
    pub(crate) link: Link,
    next: u32,
}

/// Result of walking the trie for one schedule.
enum Walk {
    /// The whole decision path was cached; the terminal digest is returned.
    Hit(TerminalDigest),
    /// The path left the trie after `depth` decisions. `record` tells the
    /// caller whether the cache wants the missing suffix (false when the
    /// byte cap has been reached or caching is off).
    Miss { depth: usize, record: bool },
}

/// Per-step summary recorded during a real execution, for insertion: the
/// step's pending summaries are `ScheduleBuffers::ops[ops..ops + enabled]`.
#[derive(Debug, Clone, Copy)]
struct RecordedStep {
    ops: u32,
    enabled: u32,
    /// `None` when one thread was enabled (the step becomes a forced node).
    context: Option<PointContext>,
}

/// A prefix-keyed memo of the deterministic program: scheduling points keyed
/// by decision prefix, terminal digests keyed by full decision sequence. See
/// the module documentation for how the exploration drivers use it.
///
/// The trie lives in flat tables: nodes hold ranges into one shared
/// [`PendingOp`] arena, and every edge lives in one edge array. Insertions
/// only ever append to the tables and add links out of existing nodes, which
/// is what lets [`SharedCache::restore_baseline`] roll back by truncation.
#[derive(Debug)]
pub struct ScheduleCache {
    pub(crate) nodes: Vec<Node>,
    ops: Vec<PendingOp>,
    contexts: Vec<PointContext>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) terminals: Vec<TerminalDigest>,
    pub(crate) bytes: u64,
    pub(crate) max_bytes: u64,
    pub(crate) full: bool,
    /// Atomic so [`ScheduleCache::walk`] needs only a shared borrow: under a
    /// shared cache, stealing workers and campaign techniques walk
    /// concurrently behind a read lock and only insertions take the write
    /// lock.
    hits: AtomicU64,
    insertions: u64,
}

impl Default for ScheduleCache {
    fn default() -> Self {
        ScheduleCache::new(DEFAULT_CACHE_BYTES)
    }
}

impl ScheduleCache {
    /// An empty cache that stops growing once its byte estimate reaches
    /// `max_bytes` (it keeps serving what it already holds).
    pub fn new(max_bytes: u64) -> Self {
        ScheduleCache {
            nodes: Vec::new(),
            ops: Vec::new(),
            contexts: Vec::new(),
            edges: Vec::new(),
            terminals: Vec::new(),
            bytes: 0,
            max_bytes,
            full: false,
            hits: AtomicU64::new(0),
            insertions: 0,
        }
    }

    /// Number of schedules served entirely from the cache (no execution).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Estimated bytes held by the trie.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of schedules inserted.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Whether the byte cap has been reached (insertions have stopped).
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Number of buggy terminals in the trie: the length of
    /// [`ScheduleCache::buggy_schedules`], without building the paths.
    pub fn buggy_terminals(&self) -> usize {
        self.terminals.iter().filter(|d| d.is_buggy()).count()
    }

    /// The pending summaries of `node`, one per enabled thread in thread-id
    /// order.
    pub(crate) fn node_ops(&self, node: &Node) -> &[PendingOp] {
        &self.ops[node.ops as usize..][..node.enabled as usize]
    }

    /// The choice-point context of `node`; `None` for a forced node.
    pub(crate) fn node_context(&self, node: &Node) -> Option<&PointContext> {
        self.contexts.get(node.context as usize)
    }

    /// The edges out of `node`, in insertion order.
    pub(crate) fn node_edges(&self, node: &Node) -> impl Iterator<Item = &Edge> + Clone + '_ {
        let mut at = node.first_edge;
        std::iter::from_fn(move || {
            let edge = self.edges.get(at as usize)?;
            at = edge.next;
            Some(edge)
        })
    }

    /// The edge out of node `node` for decision `t`, and the node's last
    /// edge (where a new edge is appended; `NONE` when it has none).
    fn find_edge(&self, node: usize, t: ThreadId) -> (Option<Link>, u32) {
        let (mut at, mut tail) = (self.nodes[node].first_edge, NONE);
        while let Some(edge) = self.edges.get(at as usize) {
            if edge.thread == t {
                return (Some(edge.link), tail);
            }
            (tail, at) = (at, edge.next);
        }
        (None, tail)
    }

    /// Append a node over `ops` (forced when `context` is `None`). The
    /// caller charges its weight.
    pub(crate) fn push_node(&mut self, ops: &[PendingOp], context: Option<PointContext>) -> u32 {
        let context = match context {
            None => NONE,
            Some(c) => {
                self.contexts.push(c);
                self.contexts.len() as u32 - 1
            }
        };
        self.nodes.push(Node {
            ops: self.ops.len() as u32,
            enabled: ops.len() as u32,
            context,
            first_edge: NONE,
        });
        self.ops.extend_from_slice(ops);
        self.nodes.len() as u32 - 1
    }

    /// Append an edge out of `node` after `tail`, the node's current last
    /// edge (`NONE` when it has none).
    pub(crate) fn push_edge(
        &mut self,
        node: usize,
        tail: u32,
        thread: ThreadId,
        link: Link,
    ) -> u32 {
        let e = self.edges.len() as u32;
        self.edges.push(Edge {
            thread,
            link,
            next: NONE,
        });
        match self.edges.get_mut(tail as usize) {
            Some(prev) => prev.next = e,
            None => self.nodes[node].first_edge = e,
        }
        e
    }

    /// Every buggy schedule memoized in the trie: the full decision path and
    /// the bug its terminal recorded, in deterministic (path-lexicographic)
    /// order. This is the raw material of the persistent bug corpus — see
    /// [`crate::corpus`].
    pub fn buggy_schedules(&self) -> Vec<(Vec<ThreadId>, Bug)> {
        let mut found = Vec::new();
        let Some(root) = self.nodes.first() else {
            return found;
        };
        let mut path: Vec<ThreadId> = Vec::new();
        // Iterative DFS: the next edge to visit out of each node on the path.
        let mut stack: Vec<u32> = vec![root.first_edge];
        while let Some(at) = stack.last_mut() {
            let Some(edge) = self.edges.get(*at as usize) else {
                stack.pop();
                path.pop();
                continue;
            };
            *at = edge.next;
            match edge.link {
                Link::Interior(n) => {
                    path.push(edge.thread);
                    stack.push(self.nodes[n as usize].first_edge);
                }
                Link::Terminal(d) => {
                    let digest = &self.terminals[d as usize];
                    if digest.is_buggy() {
                        path.push(edge.thread);
                        found.push((
                            path.clone(),
                            digest.bug.clone().expect("buggy digest has a bug"),
                        ));
                        path.pop();
                    }
                }
            }
        }
        found.sort_by(|a, b| a.0.cmp(&b.0));
        found
    }

    /// Walk the trie, feeding the scheduler cached scheduling points, until
    /// the decision path either reaches a cached terminal (hit) or leaves the
    /// trie (miss). On a hit the optional trace receives the full decision
    /// path and per-step enabled counts. Takes only a shared borrow so
    /// concurrent workers can walk one cache in parallel; `point` is the
    /// caller's scratch point, refilled from the arena at every node.
    fn walk(
        &self,
        scheduler: &mut BoundedDfs,
        point: &mut SchedulingPoint,
        mut trace: Option<&mut VisitTrace>,
    ) -> Walk {
        if self.nodes.is_empty() {
            return Walk::Miss {
                depth: 0,
                record: !self.full,
            };
        }
        let mut cursor = 0usize;
        let mut depth = 0usize;
        loop {
            let node = &self.nodes[cursor];
            let ops = self.node_ops(node);
            point.enabled.clear();
            point.enabled.extend(ops.iter().map(|op| op.thread));
            point.pending.clear();
            point.pending.extend_from_slice(ops);
            match self.node_context(node) {
                Some(c) => {
                    point.last = c.last;
                    point.last_enabled = c.last_enabled;
                    point.num_threads = c.num_threads;
                    point.step_index = c.step_index;
                }
                None => {
                    // A forced node keeps no context. The synthesized fields
                    // make every scheduler-visible quantity match the real
                    // point: `round_robin_choice` returns the single enabled
                    // thread and both bound policies price it at zero,
                    // exactly as they do on the real forced point.
                    let only = ops[0].thread;
                    point.last = Some(only);
                    point.last_enabled = true;
                    point.num_threads = only.index() + 1;
                    point.step_index = depth;
                }
            }
            let chosen = scheduler.choose(point);
            debug_assert!(
                node.context != NONE || chosen == ops[0].thread,
                "forced node must pick its only thread"
            );
            if let Some(t) = trace.as_deref_mut() {
                t.schedule.push(chosen);
                t.enabled_counts.push(node.enabled);
            }
            match self.find_edge(cursor, chosen).0 {
                Some(Link::Interior(n)) => {
                    cursor = n as usize;
                    depth += 1;
                }
                Some(Link::Terminal(d)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Walk::Hit(self.terminals[d as usize].clone());
                }
                None => {
                    // The caller re-runs the schedule for real and rebuilds
                    // the trace from the outcome.
                    if let Some(t) = trace.as_deref_mut() {
                        t.schedule.clear();
                        t.enabled_counts.clear();
                    }
                    return Walk::Miss {
                        depth: depth + 1,
                        record: !self.full,
                    };
                }
            }
        }
    }

    /// Append the node recorded as `step`, charging its weight.
    fn push_recorded(&mut self, step: &RecordedStep, ops: &[PendingOp]) -> u32 {
        self.bytes += node_weight(step.enabled as usize);
        let range = &ops[step.ops as usize..][..step.enabled as usize];
        self.push_node(range, step.context)
    }

    /// Insert a completed execution: `schedule` is its full decision path,
    /// `recorded` the point summaries from `miss_depth` on, over the op
    /// buffer `ops` (the prefix below `miss_depth` is already in the trie —
    /// or, under a shared cache, may have been inserted by another worker in
    /// the meantime).
    ///
    /// The byte cap is checked after every charged node, not once per suffix:
    /// the moment the estimate reaches `max_bytes` the insert stops, so the
    /// cache overshoots by at most the node that crossed the line. A
    /// truncated path (interior nodes without their terminal) is valid trie
    /// content — walks miss at its end and fall back to a real execution.
    ///
    /// Every new node, op, edge and terminal is appended, and every new link
    /// out of an existing node points at an appended node or terminal — the
    /// invariant [`SharedCache::restore_baseline`] relies on.
    fn insert(
        &mut self,
        schedule: &[ThreadId],
        miss_depth: usize,
        recorded: &[RecordedStep],
        ops: &[PendingOp],
        digest: TerminalDigest,
    ) {
        if self.full || schedule.is_empty() {
            return;
        }
        debug_assert_eq!(miss_depth + recorded.len(), schedule.len());
        if self.nodes.is_empty() {
            debug_assert_eq!(miss_depth, 0);
            self.push_recorded(&recorded[0], ops);
            if self.bytes >= self.max_bytes {
                self.full = true;
                return;
            }
        }
        let mut cursor = 0usize;
        let mut terminal = Some(digest);
        for (i, &t) in schedule.iter().enumerate() {
            let is_last = i + 1 == schedule.len();
            let tail = match self.find_edge(cursor, t) {
                (Some(Link::Interior(n)), _) => {
                    debug_assert!(!is_last, "an interior edge cannot end a schedule");
                    cursor = n as usize;
                    continue;
                }
                (Some(Link::Terminal(_)), _) => {
                    // Another worker inserted the same schedule concurrently.
                    debug_assert!(is_last, "a terminal edge cannot continue a schedule");
                    return;
                }
                (None, tail) => tail,
            };
            debug_assert!(
                self.node_context(&self.nodes[cursor]).is_some()
                    || self.node_ops(&self.nodes[cursor])[0].thread == t,
                "a forced node's only edge is its thread's"
            );
            let link = if is_last {
                let d = self.terminals.len() as u32;
                self.terminals
                    .push(terminal.take().expect("terminal digest consumed twice"));
                self.bytes += TERMINAL_BYTES;
                Link::Terminal(d)
            } else {
                let depth = i + 1;
                debug_assert!(depth >= miss_depth, "missing summary for cached prefix");
                Link::Interior(self.push_recorded(&recorded[depth - miss_depth], ops))
            };
            self.push_edge(cursor, tail, t, link);
            if let Link::Interior(n) = link {
                cursor = n as usize;
            }
            if self.bytes >= self.max_bytes {
                self.full = true;
                if !is_last {
                    // Truncated: the rest of the suffix (and its terminal)
                    // is dropped.
                    return;
                }
            }
        }
        self.insertions += 1;
    }
}

/// How a driver reaches its schedule cache, if any.
pub enum CacheHandle<'a> {
    /// Caching disabled: every schedule executes for real.
    Off,
    /// A cache owned by the (serial) driver.
    Local(&'a mut ScheduleCache),
    /// A cache shared between stealing workers, or between the techniques of
    /// a campaign. Lookups and insertions are transparent memo operations, so
    /// sharing never changes any result — only how many executions are
    /// physically skipped. Walks take the read lock (they run concurrently;
    /// the hit counter is atomic), insertions the write lock.
    Shared(&'a RwLock<ScheduleCache>),
}

impl CacheHandle<'_> {
    // Lock poisoning is recovered, not propagated: the cache is a pure memo,
    // so the worst a panic-interrupted writer can leave behind is a trie that
    // memoizes less than it could — statistics come from per-driver mirrors,
    // never from the live trie. The harness additionally rolls a shared
    // cache back to its load-time contents after catching an engine panic
    // ([`SharedCache::restore_baseline`]), so one blown-up technique cannot
    // poison the rest of the study.
    fn read<R>(&self, f: impl FnOnce(&ScheduleCache) -> R) -> Option<R> {
        match self {
            CacheHandle::Off => None,
            CacheHandle::Local(cache) => Some(f(cache)),
            CacheHandle::Shared(lock) => {
                Some(f(&lock.read().unwrap_or_else(PoisonError::into_inner)))
            }
        }
    }

    fn write<R>(&mut self, f: impl FnOnce(&mut ScheduleCache) -> R) -> Option<R> {
        match self {
            CacheHandle::Off => None,
            CacheHandle::Local(cache) => Some(f(cache)),
            CacheHandle::Shared(lock) => {
                Some(f(&mut lock.write().unwrap_or_else(PoisonError::into_inner)))
            }
        }
    }
}

/// How one schedule was completed by [`run_begun_schedule`].
pub enum ScheduleRun {
    /// Served entirely from the cache; the program was **not** executed.
    Served(TerminalDigest),
    /// Executed for real (cache miss, cache full, or caching off).
    Executed(ExecutionOutcome),
}

impl ScheduleRun {
    /// The terminal digest of the completed schedule, computed from the
    /// outcome when it was executed — one accessor for all of the
    /// per-schedule summary fields, so callers cannot drift between the
    /// served and executed representations.
    pub fn digest(&self) -> TerminalDigest {
        match self {
            ScheduleRun::Served(digest) => digest.clone(),
            ScheduleRun::Executed(outcome) => TerminalDigest::of(outcome),
        }
    }

    /// Cost of the completed schedule under the given bound kind — from the
    /// recorded steps when it was executed, from the digest when it was
    /// served (the two always agree: the digest was computed from the same
    /// deterministic execution).
    pub fn cost(&self, kind: crate::bounds::BoundKind) -> u32 {
        use crate::bounds::BoundKind;
        match (self, kind) {
            (_, BoundKind::None) => 0,
            (ScheduleRun::Executed(o), BoundKind::Preemption) => o.preemption_count(),
            (ScheduleRun::Executed(o), BoundKind::Delay) => o.delay_count(),
            (ScheduleRun::Served(d), BoundKind::Preemption) => d.preemptions,
            (ScheduleRun::Served(d), BoundKind::Delay) => d.delays,
        }
    }
}

/// The visit-order footprint of one schedule: its full decision path and the
/// per-step enabled-thread counts. Drivers whose live trie is shared replay
/// these through a [`CacheReplay`] mirror, so their cache counters follow
/// the serial visit order deterministically.
#[derive(Debug, Default, Clone)]
pub struct VisitTrace {
    /// The decision at every step, in order.
    pub schedule: Vec<ThreadId>,
    /// Number of enabled threads at every step (determines the byte weight a
    /// fresh trie node for that step is charged).
    pub enabled_counts: Vec<u32>,
}

impl VisitTrace {
    fn fill_from(&mut self, outcome: &ExecutionOutcome) {
        self.schedule.clear();
        self.enabled_counts.clear();
        for step in &outcome.steps {
            self.schedule.push(step.thread);
            self.enabled_counts.push(step.enabled.len() as u32);
        }
    }
}

/// Buffers a driver reuses across the schedules it completes through
/// [`run_begun_schedule`]: the scratch point cache walks present to the
/// scheduler, and the point summaries and decision path a miss records for
/// insertion.
#[derive(Debug)]
pub struct ScheduleBuffers {
    point: SchedulingPoint,
    steps: Vec<RecordedStep>,
    ops: Vec<PendingOp>,
    schedule: Vec<ThreadId>,
}

impl Default for ScheduleBuffers {
    fn default() -> Self {
        ScheduleBuffers {
            point: SchedulingPoint {
                enabled: Vec::new(),
                last: None,
                last_enabled: false,
                num_threads: 0,
                step_index: 0,
                pending: Vec::new(),
            },
            steps: Vec::new(),
            ops: Vec::new(),
            schedule: Vec::new(),
        }
    }
}

/// Complete the schedule the scheduler has just begun (i.e.
/// [`BoundedDfs::begin_execution`] returned `true`): serve it from the cache
/// when the whole decision path is memoized, otherwise execute it for real —
/// replaying the cached prefix against the live program — and insert the new
/// suffix. `buffers` are the caller's, reused across schedules; `trace`,
/// when given, receives the visit footprint.
pub fn run_begun_schedule(
    exec: &mut Execution<'_>,
    scheduler: &mut BoundedDfs,
    mut cache: CacheHandle<'_>,
    buffers: &mut ScheduleBuffers,
    mut trace: Option<&mut VisitTrace>,
) -> ScheduleRun {
    if let Some(t) = trace.as_deref_mut() {
        t.schedule.clear();
        t.enabled_counts.clear();
    }
    let walk = cache
        .read(|c| c.walk(scheduler, &mut buffers.point, trace.as_deref_mut()))
        .unwrap_or(Walk::Miss {
            depth: 0,
            record: false,
        });
    let (miss_depth, record) = match walk {
        Walk::Hit(digest) => {
            scheduler.finish_cached_execution();
            return ScheduleRun::Served(digest);
        }
        Walk::Miss { depth, record } => (depth, record),
    };
    // The walk may have consumed part (or, with an empty cache, none) of the
    // replay prefix; rewind the scheduler's cursor and run the program for
    // real — the stack replay machinery re-issues the same decisions against
    // the live scheduling points.
    scheduler.rewind_replay();
    exec.reset();
    let (steps, ops) = (&mut buffers.steps, &mut buffers.ops);
    steps.clear();
    ops.clear();
    let mut step = 0usize;
    let outcome = exec.run(
        &mut |point| {
            if record && step >= miss_depth {
                steps.push(RecordedStep {
                    ops: ops.len() as u32,
                    enabled: point.pending.len() as u32,
                    context: point.has_choice().then(|| PointContext::of(point)),
                });
                ops.extend_from_slice(&point.pending);
            }
            step += 1;
            scheduler.choose(point)
        },
        &mut NoopObserver,
    );
    scheduler.end_execution(&outcome);
    if record {
        let schedule = &mut buffers.schedule;
        schedule.clear();
        schedule.extend(outcome.steps.iter().map(|s| s.thread));
        let digest = TerminalDigest::of(&outcome);
        cache.write(|c| c.insert(schedule, miss_depth, &buffers.steps, &buffers.ops, digest));
    }
    if let Some(t) = trace {
        t.fill_from(&outcome);
    }
    ScheduleRun::Executed(outcome)
}

/// One edge of a [`CacheReplay`] mirror.
#[derive(Debug, Clone, Copy)]
struct ReplayEdge {
    thread: ThreadId,
    /// Target node; `NONE` marks a terminal edge.
    target: u32,
    /// Next edge out of the same node, in insertion order (`NONE`: last).
    next: u32,
}

/// A structure-only mirror of [`ScheduleCache`]: it tracks which decision
/// paths the serial cache would hold — and the hit and byte counters it
/// would report — without storing any point data. A driver whose live trie
/// is shared (by stealing workers, or by the techniques of a campaign)
/// replays its own visit traces through this in serial visit order, so its
/// `cache_hits` / `cache_bytes` / `executions` statistics are bit-identical
/// to a serial driver's with a private cache, no matter how the live trie's
/// users actually interleaved.
///
/// The mirror is two flat arrays — the first edge of every node and one
/// edge array, laid out index for index like the trie's — so cloning it is
/// two memcpys and [`CacheReplay::apply`] allocates only when the mirror
/// grows.
#[derive(Debug, Clone)]
pub struct CacheReplay {
    /// First outgoing edge of every node, index into `edges` (`NONE`: none).
    first: Vec<u32>,
    edges: Vec<ReplayEdge>,
    bytes: u64,
    max_bytes: u64,
    full: bool,
    hits: u64,
}

impl CacheReplay {
    /// A replay mirror with the same byte cap as the real cache.
    pub fn new(max_bytes: u64) -> Self {
        CacheReplay {
            first: Vec::new(),
            edges: Vec::new(),
            bytes: 0,
            max_bytes,
            full: false,
            hits: 0,
        }
    }

    /// A structure-only snapshot of an existing cache: same decision paths,
    /// same byte estimate and fullness, hit counter reset to zero. A driver
    /// resuming from a loaded corpus replays its own visit stream through
    /// such a snapshot so its reported `executions` / `cache_hits` /
    /// `cache_bytes` depend only on the loaded baseline and the (serial)
    /// visit order — not on how concurrent techniques sharing the live cache
    /// happened to interleave.
    pub fn from_cache(cache: &ScheduleCache) -> Self {
        CacheReplay {
            first: cache.nodes.iter().map(|n| n.first_edge).collect(),
            edges: cache
                .edges
                .iter()
                .map(|e| ReplayEdge {
                    thread: e.thread,
                    target: match e.link {
                        Link::Interior(n) => n,
                        Link::Terminal(_) => NONE,
                    },
                    next: e.next,
                })
                .collect(),
            bytes: cache.bytes,
            max_bytes: cache.max_bytes,
            full: cache.full,
            hits: 0,
        }
    }

    /// Hits the serial cache would have reported so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Bytes the serial cache would have charged so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether the mirrored byte cap has been reached (insertions have
    /// stopped, exactly as [`ScheduleCache::is_full`] would report).
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// The target of node `node`'s edge for `t` (`Some(NONE)`: a terminal
    /// edge), and the node's last edge.
    fn find(&self, node: usize, t: ThreadId) -> (Option<u32>, u32) {
        let (mut at, mut tail) = (self.first[node], NONE);
        while let Some(edge) = self.edges.get(at as usize) {
            if edge.thread == t {
                return (Some(edge.target), tail);
            }
            (tail, at) = (at, edge.next);
        }
        (None, tail)
    }

    /// Replay one visited schedule. Returns `true` when the serial cache
    /// would have served it (a hit: no program execution), `false` when the
    /// serial driver would have executed it (the path is then inserted,
    /// unless the byte cap has been reached — mirroring
    /// `ScheduleCache::insert` exactly).
    pub fn apply(&mut self, schedule: &[ThreadId], enabled_counts: &[u32]) -> bool {
        debug_assert_eq!(schedule.len(), enabled_counts.len());
        // Walk as far as the trie goes.
        let mut cursor = 0usize;
        let mut matched = 0usize;
        let mut tail = NONE;
        if !self.first.is_empty() {
            for (i, &t) in schedule.iter().enumerate() {
                let is_last = i + 1 == schedule.len();
                match self.find(cursor, t) {
                    (Some(NONE), _) => {
                        debug_assert!(is_last);
                        self.hits += 1;
                        return true;
                    }
                    (Some(n), _) => {
                        debug_assert!(!is_last);
                        cursor = n as usize;
                        matched = i + 1;
                    }
                    (None, last) => {
                        tail = last;
                        break;
                    }
                }
            }
        }
        // Miss: the serial driver executes the schedule and inserts it.
        if self.full || schedule.is_empty() {
            return false;
        }
        if self.first.is_empty() {
            self.bytes += node_weight(enabled_counts[0] as usize);
            self.first.push(NONE);
            if self.bytes >= self.max_bytes {
                self.full = true;
                return false;
            }
        }
        for (i, &t) in schedule.iter().enumerate().skip(matched) {
            let is_last = i + 1 == schedule.len();
            let target = if is_last {
                self.bytes += TERMINAL_BYTES;
                NONE
            } else {
                self.bytes += node_weight(enabled_counts[i + 1] as usize);
                self.first.push(NONE);
                self.first.len() as u32 - 1
            };
            let e = self.edges.len() as u32;
            self.edges.push(ReplayEdge {
                thread: t,
                target,
                next: NONE,
            });
            match self.edges.get_mut(tail as usize) {
                Some(prev) => prev.next = e,
                None => self.first[cursor] = e,
            }
            (cursor, tail) = (target as usize, NONE);
            if self.bytes >= self.max_bytes {
                // Same per-node cap as [`ScheduleCache::insert`]: stop after
                // the node that crossed the line.
                self.full = true;
                break;
            }
        }
        false
    }
}

/// The lengths of a trie's tables and its durable counters at one moment.
/// Insertions only append, so these are all [`SharedCache::restore_baseline`]
/// needs to roll a trie back to that moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    nodes: usize,
    ops: usize,
    contexts: usize,
    edges: usize,
    terminals: usize,
    bytes: u64,
    full: bool,
    insertions: u64,
}

impl Extent {
    fn of(cache: &ScheduleCache) -> Self {
        Extent {
            nodes: cache.nodes.len(),
            ops: cache.ops.len(),
            contexts: cache.contexts.len(),
            edges: cache.edges.len(),
            terminals: cache.terminals.len(),
            bytes: cache.bytes,
            full: cache.full,
            insertions: cache.insertions,
        }
    }
}

/// A schedule cache shared across the techniques of one benchmark (and, when
/// resuming, loaded from a persistent corpus — see [`crate::corpus`]).
///
/// The `live` trie is the real memo every driver walks and inserts into; the
/// `baseline` is a frozen [`CacheReplay`] snapshot taken at construction.
/// Each corpus-mode driver copies the baseline via [`SharedCache::mirror`]
/// and replays its own visit stream through the copy, reporting the
/// mirror's hit/byte counters. Counters therefore depend only on the loaded
/// baseline and each technique's deterministic visit order, never on how the
/// techniques' live-cache operations interleaved.
///
/// No copy of the load-time trie is kept: its table lengths and counters
/// (the `loaded` extent) are enough to roll the live trie back, because
/// insertions only append (see [`SharedCache::restore_baseline`]).
#[derive(Debug)]
pub struct SharedCache {
    live: RwLock<ScheduleCache>,
    baseline: CacheReplay,
    loaded: Extent,
}

impl SharedCache {
    /// Wrap an existing (possibly freshly loaded) cache, freezing its
    /// current contents as the accounting baseline.
    pub fn of(cache: ScheduleCache) -> Self {
        SharedCache {
            baseline: CacheReplay::from_cache(&cache),
            loaded: Extent::of(&cache),
            live: RwLock::new(cache),
        }
    }

    /// An empty shared cache with the given byte cap.
    pub fn new(max_bytes: u64) -> Self {
        SharedCache::of(ScheduleCache::new(max_bytes))
    }

    /// The live trie, for walking/inserting behind the lock.
    pub fn live(&self) -> &RwLock<ScheduleCache> {
        &self.live
    }

    /// A fresh accounting mirror seeded with the load-time baseline.
    pub fn mirror(&self) -> CacheReplay {
        self.baseline.clone()
    }

    /// Run `f` on the live trie under the read lock (e.g. to serialize it).
    /// A poisoned lock is recovered, not propagated (see [`CacheHandle`]).
    pub fn with_live<R>(&self, f: impl FnOnce(&ScheduleCache) -> R) -> R {
        f(&self.live.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Whether the live trie still holds exactly its load-time contents —
    /// nothing was inserted since [`SharedCache::of`], or a
    /// [`SharedCache::restore_baseline`] undid it. An insertion that changes
    /// anything appends a node or a terminal, so comparing table lengths
    /// and counters is exact.
    pub fn is_unchanged(&self) -> bool {
        self.with_live(|c| Extent::of(c) == self.loaded)
    }

    /// Roll the live trie back to its load-time contents and clear any lock
    /// poisoning. The harness calls this after catching an engine panic: a
    /// writer that unwound mid-insert may have left the trie structurally
    /// inconsistent, and a corrupt memo — unlike a merely stale one — could
    /// serve wrong digests. Memoized work from after load time is lost (a
    /// pure perf cost); subsequent techniques see exactly the baseline, so
    /// their mirror-reported counters stay correct.
    ///
    /// Truncation is a complete rollback because an insertion (finished or
    /// torn) only ever appends nodes, ops, contexts, edges and terminals,
    /// and only ever links an existing node — through its first-edge slot or
    /// its last edge's `next` — to an appended edge. Cutting every table
    /// back to its load-time length and clearing the links that point past
    /// the cut therefore restores every load-time entry exactly; `bytes`,
    /// `full` and `insertions` are restored from the load-time extent.
    pub fn restore_baseline(&self) {
        let mut live = self.live.write().unwrap_or_else(PoisonError::into_inner);
        let to = self.loaded;
        live.nodes.truncate(to.nodes);
        live.ops.truncate(to.ops);
        live.contexts.truncate(to.contexts);
        live.edges.truncate(to.edges);
        live.terminals.truncate(to.terminals);
        let past = |e: u32| e != NONE && e as usize >= to.edges;
        for node in &mut live.nodes {
            if past(node.first_edge) {
                node.first_edge = NONE;
            }
        }
        for edge in &mut live.edges {
            if past(edge.next) {
                edge.next = NONE;
            }
        }
        live.bytes = to.bytes;
        live.full = to.full;
        live.insertions = to.insertions;
        drop(live);
        self.live.clear_poison();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{BoundKind, DelayBound};
    use crate::corpus::{cache_from_bytes, cache_to_bytes};
    use crate::dfs::BoundedDfs;
    use sct_ir::prelude::*;
    use sct_runtime::ExecConfig;

    /// Figure 1 of the paper.
    fn figure1() -> Program {
        let mut p = ProgramBuilder::new("figure1");
        let x = p.global("x", 0);
        let y = p.global("y", 0);
        let z = p.global("z", 0);
        let t1 = p.thread("t1", |b| {
            b.store(x, 1);
            b.store(y, 1);
        });
        let t2 = p.thread("t2", |b| {
            b.store(z, 1);
        });
        let t3 = p.thread("t3", |b| {
            let rx = b.local("rx");
            let ry = b.local("ry");
            b.load(x, rx);
            b.load(y, ry);
            b.assert_cond(eq(rx, ry), "x == y");
        });
        p.main(|b| {
            b.spawn(t1);
            b.spawn(t2);
            b.spawn(t3);
        });
        p.build().unwrap()
    }

    /// Drive one bound level through [`run_begun_schedule`], collecting the
    /// per-schedule (cost, buggy, fingerprint) triples of non-redundant
    /// schedules and the number of real executions.
    fn run_level(
        program: &Program,
        bound: u32,
        por: bool,
        cache: Option<&mut ScheduleCache>,
    ) -> (Vec<(u32, bool, u64)>, u64) {
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(program, &config);
        let mut scheduler = BoundedDfs::new(Box::new(DelayBound), bound).with_sleep_sets(por);
        let mut seen = Vec::new();
        let mut executed = 0u64;
        let mut handle = match cache {
            Some(c) => CacheHandle::Local(c),
            None => CacheHandle::Off,
        };
        let mut buffers = ScheduleBuffers::default();
        while scheduler.begin_execution() {
            let borrowed = match &mut handle {
                CacheHandle::Off => CacheHandle::Off,
                CacheHandle::Local(c) => CacheHandle::Local(c),
                CacheHandle::Shared(m) => CacheHandle::Shared(m),
            };
            let run = run_begun_schedule(&mut exec, &mut scheduler, borrowed, &mut buffers, None);
            if matches!(run, ScheduleRun::Executed(_)) {
                executed += 1;
            }
            if scheduler.current_execution_redundant() {
                continue;
            }
            let cost = run.cost(BoundKind::Delay);
            let digest = run.digest();
            seen.push((cost, digest.is_buggy(), digest.fingerprint));
        }
        assert!(scheduler.is_complete());
        (seen, executed)
    }

    #[test]
    fn second_level_serves_the_covered_interior_from_the_cache() {
        let prog = figure1();
        let mut cache = ScheduleCache::default();
        let (plain0, exec0) = run_level(&prog, 0, false, None);
        let (cached0, cexec0) = run_level(&prog, 0, false, Some(&mut cache));
        assert_eq!(plain0, cached0, "level 0 must be unchanged by the cache");
        assert_eq!(exec0, cexec0, "an empty cache cannot serve anything");
        assert_eq!(cache.hits(), 0);
        assert!(cache.insertions() > 0 && cache.bytes() > 0);

        let (plain1, exec1) = run_level(&prog, 1, false, None);
        let (cached1, cexec1) = run_level(&prog, 1, false, Some(&mut cache));
        assert_eq!(plain1, cached1, "cached level 1 diverged from uncached");
        assert_eq!(
            cache.hits(),
            exec0,
            "every level-0 schedule is interior at level 1 and must be served"
        );
        assert_eq!(cexec1 + cache.hits(), exec1);
        assert!(cexec1 < exec1, "the cache saved no executions");
    }

    #[test]
    fn cache_walks_agree_with_real_executions_under_sleep_sets() {
        let prog = figure1();
        let mut cache = ScheduleCache::default();
        for bound in 0..3 {
            let (plain, _) = run_level(&prog, bound, true, None);
            let (cached, _) = run_level(&prog, bound, true, Some(&mut cache));
            assert_eq!(plain, cached, "bound {bound} diverged under POR");
        }
        assert!(cache.hits() > 0);
    }

    #[test]
    fn a_full_cache_stops_growing_but_keeps_serving_and_stays_correct() {
        let prog = figure1();
        // A one-byte cap: the very first node crosses the line, the insert is
        // truncated there (no terminal ever lands) and the door closes.
        let mut cache = ScheduleCache::new(1);
        let (plain0, _) = run_level(&prog, 0, false, None);
        let (cached0, _) = run_level(&prog, 0, false, Some(&mut cache));
        assert_eq!(plain0, cached0);
        assert!(cache.is_full());
        assert_eq!(
            cache.insertions(),
            0,
            "a truncated insert must not count as an insertion"
        );
        let frozen = cache.bytes();
        assert!(
            frozen <= 1 + node_weight(1).max(node_weight(8)).max(TERMINAL_BYTES),
            "cap 1 overshot by more than one node: {frozen}"
        );

        let (plain1, _) = run_level(&prog, 1, false, None);
        let (cached1, _) = run_level(&prog, 1, false, Some(&mut cache));
        assert_eq!(plain1, cached1, "a full cache must still be transparent");
        assert_eq!(cache.bytes(), frozen, "a full cache must not grow");
        assert_eq!(cache.hits(), 0, "a terminal-less trie has nothing to serve");
    }

    /// Satellite: the byte cap is enforced per node during insert, so the
    /// estimate overshoots `max_bytes` by at most the single node that
    /// crossed the line — for every cap, while staying transparent and with
    /// the [`CacheReplay`] mirror bit-identical on bytes and hits.
    #[test]
    fn tiny_caps_overshoot_by_at_most_one_node_and_mirror_exactly() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let (plain, _) = run_level(&prog, 2, false, None);
        // Largest single charge possible: a choice node over every thread the
        // program can enable, or a terminal digest.
        let worst_node = node_weight(8).max(TERMINAL_BYTES);
        for cap in [1u64, 57, 96, 112, 200, 500, 1_000, 5_000, 20_000] {
            let mut cache = ScheduleCache::new(cap);
            let mut replay = CacheReplay::new(cap);
            let mut exec = Execution::new_shared(&prog, &config);
            let (mut buffers, mut trace) = (ScheduleBuffers::default(), VisitTrace::default());
            for bound in 0..3u32 {
                let mut scheduler = BoundedDfs::new(Box::new(DelayBound), bound);
                while scheduler.begin_execution() {
                    run_begun_schedule(
                        &mut exec,
                        &mut scheduler,
                        CacheHandle::Local(&mut cache),
                        &mut buffers,
                        Some(&mut trace),
                    );
                    replay.apply(&trace.schedule, &trace.enabled_counts);
                }
            }
            assert!(
                cache.bytes() <= cap + worst_node,
                "cap {cap} overshot: bytes {} > {cap} + {worst_node}",
                cache.bytes()
            );
            assert_eq!(
                replay.bytes(),
                cache.bytes(),
                "mirror bytes drifted at cap {cap}"
            );
            assert_eq!(
                replay.hits(),
                cache.hits(),
                "mirror hits drifted at cap {cap}"
            );
            // And the capped cache is still transparent.
            let mut capped = ScheduleCache::new(cap);
            let (cached, _) = run_level(&prog, 2, false, Some(&mut capped));
            assert_eq!(plain, cached, "cap {cap} changed observable results");
        }
    }

    #[test]
    fn a_mirror_snapshot_of_a_cache_replays_like_the_cache_it_copied() {
        let prog = figure1();
        let mut cache = ScheduleCache::default();
        let (_, _) = run_level(&prog, 0, false, Some(&mut cache));
        let shared = SharedCache::of(cache);
        let mut mirror = shared.mirror();
        assert_eq!(mirror.hits(), 0, "snapshot must reset the hit counter");
        assert_eq!(mirror.bytes(), shared.with_live(|c| c.bytes()));

        // Replaying the level-0 visit stream through the snapshot hits every
        // schedule the live cache can serve and misses the rest, exactly as
        // the live cache does.
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(&prog, &config);
        let mut scheduler = BoundedDfs::new(Box::new(DelayBound), 1);
        let (mut buffers, mut trace) = (ScheduleBuffers::default(), VisitTrace::default());
        let (mut live_hits, mut mirror_hits) = (0u64, 0u64);
        while scheduler.begin_execution() {
            let before = shared.with_live(|c| c.hits());
            run_begun_schedule(
                &mut exec,
                &mut scheduler,
                CacheHandle::Shared(shared.live()),
                &mut buffers,
                Some(&mut trace),
            );
            live_hits += shared.with_live(|c| c.hits()) - before;
            if mirror.apply(&trace.schedule, &trace.enabled_counts) {
                mirror_hits += 1;
            }
        }
        assert!(live_hits > 0, "level 1 must serve the level-0 interior");
        assert_eq!(mirror_hits, live_hits, "mirror and live cache disagree");
        assert_eq!(mirror.bytes(), shared.with_live(|c| c.bytes()));
    }

    /// A technique unit panicking while it holds the live write lock poisons
    /// the `RwLock`, possibly mid-insertion; the recovery path must bring the
    /// shared trie back to its load-time contents, clear the poison, and
    /// keep the mirror snapshot consistent with the restored live cache.
    #[test]
    fn restore_baseline_recovers_a_poisoned_live_lock_to_the_loaded_contents() {
        let prog = figure1();
        let mut cache = ScheduleCache::default();
        let (_, _) = run_level(&prog, 0, false, Some(&mut cache));
        let loaded_bytes = cache.bytes();
        assert!(loaded_bytes > 0, "the level-0 interior must be non-empty");
        let loaded = cache_to_bytes(&cache, KEY);
        let shared = SharedCache::of(cache);

        let unit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut live = shared.live().write().unwrap();
            let (_, _) = run_level(&prog, 1, false, Some(&mut live));
            // A torn insertion: a node appended and charged, never linked.
            let op = live.ops[0];
            live.push_node(&[op], None);
            live.bytes += node_weight(1);
            panic!("engine died mid-insertion");
        }));
        assert!(unit.is_err());
        assert!(shared.live().is_poisoned());

        shared.restore_baseline();
        assert!(!shared.live().is_poisoned(), "recovery must clear poison");
        assert!(shared.is_unchanged());
        assert_eq!(shared.with_live(|c| c.bytes()), loaded_bytes);
        assert_eq!(shared.with_live(|c| cache_to_bytes(c, KEY)), loaded);
        assert_eq!(
            shared.mirror().bytes(),
            loaded_bytes,
            "the mirror must still describe the restored live contents"
        );
    }

    const KEY: u64 = 0x5eed;

    /// Explore delay bounds `bounds` of `program` through the live trie of
    /// `shared`.
    fn grow_shared(program: &Program, shared: &SharedCache, bounds: std::ops::Range<u32>) {
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(program, &config);
        let mut buffers = ScheduleBuffers::default();
        for bound in bounds {
            let mut scheduler = BoundedDfs::new(Box::new(DelayBound), bound);
            while scheduler.begin_execution() {
                let live = CacheHandle::Shared(shared.live());
                run_begun_schedule(&mut exec, &mut scheduler, live, &mut buffers, None);
            }
        }
    }

    fn edge_count(cache: &ScheduleCache, node: usize) -> usize {
        cache.node_edges(&cache.nodes[node]).count()
    }

    /// Load `baseline` through the corpus format, grow it over `bounds`
    /// (`grew` checks that the growth is the case under test), and require
    /// the truncating `restore_baseline` to give back the load-time bytes.
    /// Then grow the restored trie over `regrow` — a different visit order,
    /// which appends different edges at the indices the first growth used —
    /// and require the result to match growing a fresh load the same way.
    fn assert_restores(
        program: &Program,
        baseline: &ScheduleCache,
        bounds: std::ops::Range<u32>,
        regrow: std::ops::Range<u32>,
        grew: impl Fn(&ScheduleCache) -> bool,
    ) {
        let saved = cache_to_bytes(baseline, KEY);
        let load = || {
            let path = std::path::Path::new("baseline");
            SharedCache::of(cache_from_bytes(&saved, KEY, path).expect("valid baseline"))
        };
        let shared = load();
        assert!(shared.is_unchanged());
        grow_shared(program, &shared, bounds);
        assert!(!shared.is_unchanged(), "the growth must change the trie");
        assert!(
            shared.with_live(&grew),
            "the growth misses the case under test"
        );
        shared.restore_baseline();
        assert!(shared.is_unchanged());
        assert_eq!(shared.with_live(|c| cache_to_bytes(c, KEY)), saved);
        shared.with_live(|c| {
            let inside = |e: u32| e == NONE || (e as usize) < c.edges.len();
            assert!(
                c.nodes.iter().all(|n| inside(n.first_edge))
                    && c.edges.iter().all(|e| inside(e.next)),
                "a link still points past the restored edge table"
            );
        });

        grow_shared(program, &shared, regrow.clone());
        let fresh = load();
        grow_shared(program, &fresh, regrow);
        assert_eq!(
            shared.with_live(|c| cache_to_bytes(c, KEY)),
            fresh.with_live(|c| cache_to_bytes(c, KEY)),
            "a restored trie must grow exactly like a fresh load"
        );
    }

    #[test]
    fn restore_baseline_truncates_an_empty_baseline_back_to_empty() {
        let prog = figure1();
        assert_restores(&prog, &ScheduleCache::default(), 0..2, 2..3, |live| {
            !live.nodes.is_empty()
        });
    }

    #[test]
    fn restore_baseline_unlinks_a_forced_node_extended_after_load() {
        let prog = figure1();
        // Find a byte cap whose truncated level-0 trie ends at a forced node
        // (a truncated insert stops right after the node that crossed the
        // cap, so that node has no edge yet), then lift the cap.
        let (mut baseline, forced) = (1..10_000u64)
            .find_map(|cap| {
                let mut cache = ScheduleCache::new(cap);
                let (_, _) = run_level(&prog, 0, false, Some(&mut cache));
                let last = cache.nodes.len().checked_sub(1)?;
                let node = &cache.nodes[last];
                let open = cache.node_context(node).is_none() && node.first_edge == NONE;
                open.then_some((cache, last))
            })
            .expect("some cap truncates the trie at a forced node");
        baseline.max_bytes = DEFAULT_CACHE_BYTES;
        baseline.full = false;
        assert_restores(&prog, &baseline, 0..1, 1..2, |live| {
            live.nodes[forced].first_edge != NONE
        });
    }

    #[test]
    fn restore_baseline_drops_edges_a_choice_node_gained_after_load() {
        let prog = figure1();
        let mut baseline = ScheduleCache::default();
        let (_, _) = run_level(&prog, 0, false, Some(&mut baseline));
        let choices: Vec<usize> = (0..baseline.nodes.len())
            .filter(|&n| baseline.node_context(&baseline.nodes[n]).is_some())
            .collect();
        assert!(!choices.is_empty());
        let before: Vec<usize> = choices.iter().map(|&n| edge_count(&baseline, n)).collect();
        assert_restores(&prog, &baseline, 1..2, 2..3, |live| {
            choices
                .iter()
                .zip(&before)
                .any(|(&n, &had)| edge_count(live, n) > had)
        });
    }

    #[test]
    fn restore_baseline_reopens_a_trie_that_went_full_after_load() {
        let prog = figure1();
        let mut baseline = ScheduleCache::default();
        let (_, _) = run_level(&prog, 0, false, Some(&mut baseline));
        baseline.max_bytes = baseline.bytes + 1;
        assert!(!baseline.is_full());
        assert_restores(&prog, &baseline, 1..2, 2..3, ScheduleCache::is_full);
    }

    #[test]
    fn replay_mirror_reproduces_hits_and_bytes_of_the_real_cache() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(&prog, &config);
        let mut cache = ScheduleCache::default();
        let mut replay = CacheReplay::new(DEFAULT_CACHE_BYTES);
        let (mut buffers, mut trace) = (ScheduleBuffers::default(), VisitTrace::default());
        for bound in 0..3u32 {
            let mut scheduler = BoundedDfs::new(Box::new(DelayBound), bound);
            while scheduler.begin_execution() {
                run_begun_schedule(
                    &mut exec,
                    &mut scheduler,
                    CacheHandle::Local(&mut cache),
                    &mut buffers,
                    Some(&mut trace),
                );
                replay.apply(&trace.schedule, &trace.enabled_counts);
            }
        }
        assert!(cache.hits() > 0);
        assert_eq!(replay.hits(), cache.hits(), "replay hit count drifted");
        assert_eq!(replay.bytes(), cache.bytes(), "replay byte count drifted");
    }
}
