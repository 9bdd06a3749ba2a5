//! Persistent schedule corpus ("campaign mode").
//!
//! The PR 3 [`ScheduleCache`] trie memoizes the deterministic program, but it
//! dies with the process: every study re-explores from scratch. This module
//! makes the trie a first-class on-disk artifact so repeated studies *resume*
//! instead of restart:
//!
//! * a **versioned, endian-stable binary format** for the trie
//!   ([`cache_to_bytes`] / [`cache_from_bytes`]): interior nodes (including
//!   the compressed single-enabled representation), terminal digests and the
//!   byte accounting round-trip exactly, and every load is validated —
//!   corrupted, truncated or wrong-version files fail with a [`CorpusError`],
//!   never a panic or a silent cold start;
//! * a **keyed** header: the file records a fingerprint of the program name
//!   and [`ExecConfig`] it was built against ([`corpus_key`]), because a trie
//!   is only a valid memo of the exact deterministic program it observed —
//!   resuming against a different configuration is an error, not a guess;
//! * a **replayable bug corpus**: every buggy terminal in the trie is
//!   distilled to a *minimized decision prefix* ([`minimize_prefix`], binary
//!   search against the deterministic program) and saved next to the trie;
//!   [`replay_prefix`] reproduces each bug in exactly one execution (follow
//!   the prefix, then fall back to the deterministic round-robin scheduler).
//!
//! [`Corpus`] manages the on-disk directory (one trie + one bug file per
//! benchmark, written atomically via a rename so a kill mid-save never leaves
//! a half-written artifact). Saves are also *durable*: the temporary file is
//! `sync_all`ed before the rename and the parent directory is fsynced after
//! it, so a power cut right after a reported save cannot roll the artifact
//! back — and transient I/O errors are retried a bounded number of times
//! before they surface. A crash between write and rename leaves a stale
//! `.tmp` file, which [`Corpus::open`] sweeps away (it was never published,
//! so it is garbage, never data). The drivers consume a loaded trie through
//! [`SharedCache`](crate::cache::SharedCache) — see `crate::explore` — which
//! keeps the resumed statistics deterministic at any worker count.

use crate::cache::{
    node_weight, Link, Node, PointContext, ScheduleCache, TerminalDigest, NONE, TERMINAL_BYTES,
};
use crate::fault::{self, FaultKind};
use sct_ir::{Loc, Program, TemplateId};
use sct_runtime::{
    Bug, ExecConfig, Execution, ExecutionOutcome, NoopObserver, PendingOp, SchedulingPoint,
    ThreadId, VisibilityMode,
};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// On-disk format version. Bump on any incompatible layout change; loads of
/// other versions fail with [`CorpusError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 1;

const CACHE_MAGIC: &[u8; 4] = b"SCTC";
const BUGS_MAGIC: &[u8; 4] = b"SCTB";

/// Why a corpus artifact could not be read or written.
#[derive(Debug)]
pub enum CorpusError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic { path: PathBuf },
    /// The file's format version is not supported by this build.
    UnsupportedVersion { path: PathBuf, found: u32 },
    /// The file was built against a different program/configuration.
    KeyMismatch {
        path: PathBuf,
        expected: u64,
        found: u64,
    },
    /// The file is structurally invalid (truncated, bad indices, accounting
    /// mismatch, ...).
    Corrupted { path: PathBuf, detail: String },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "corpus i/o error: {e}"),
            CorpusError::BadMagic { path } => {
                write!(f, "{}: not a schedule-corpus file (bad magic)", path.display())
            }
            CorpusError::UnsupportedVersion { path, found } => write!(
                f,
                "{}: unsupported corpus format version {found} (this build supports {FORMAT_VERSION})",
                path.display()
            ),
            CorpusError::KeyMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "{}: corpus was built for a different program/configuration \
                 (key {found:#018x}, expected {expected:#018x}); refusing to resume from it",
                path.display()
            ),
            CorpusError::Corrupted { path, detail } => {
                write!(f, "{}: corrupted corpus file: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> Self {
        CorpusError::Io(e)
    }
}

/// Fingerprint of the (program, execution configuration) pair a corpus
/// artifact is valid for. FNV-1a over the name, the visibility mode (racy
/// locations sorted, so the hash is set-order independent) and the execution
/// limits — everything that changes which scheduling points the deterministic
/// program produces.
pub fn corpus_key(program_name: &str, config: &ExecConfig) -> u64 {
    let mut h = Fnv::new();
    h.bytes(program_name.as_bytes());
    match &config.visibility {
        VisibilityMode::SyncOnly => h.u64(0),
        VisibilityMode::AllSharedAccesses => h.u64(1),
        VisibilityMode::RacyOnly(locs) => {
            h.u64(2);
            let mut sorted: Vec<Loc> = locs.iter().copied().collect();
            sorted.sort();
            h.u64(sorted.len() as u64);
            for loc in sorted {
                h.u64(loc.template.0 as u64);
                h.u64(loc.pc as u64);
            }
        }
    }
    h.u64(config.max_steps as u64);
    h.u64(config.max_invisible_ops_per_step as u64);
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Little-endian byte stream helpers.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

type Decode<T> = Result<T, String>;

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Decode<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Decode<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Decode<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Decode<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Decode<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Length prefix for a collection about to be decoded: bounded by the
    /// bytes actually remaining so a corrupted length fails fast instead of
    /// attempting a huge allocation.
    fn len(&mut self, min_item_bytes: usize) -> Decode<usize> {
        let n = self.u64()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_item_bytes.max(1)) > remaining {
            return Err(format!(
                "length {n} at byte {} exceeds remaining {remaining} bytes",
                self.pos
            ));
        }
        Ok(n)
    }
    fn str(&mut self) -> Decode<String> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid utf-8 string".to_string())
    }
    fn bool(&mut self) -> Decode<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("invalid bool byte {v}")),
        }
    }
    fn finish(&self) -> Decode<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after the last field",
                self.buf.len() - self.pos
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Field encoders shared by the trie and bug formats.
// ---------------------------------------------------------------------------

fn put_thread(w: &mut Writer, t: ThreadId) {
    w.u64(t.0 as u64);
}

fn get_thread(r: &mut Reader<'_>) -> Decode<ThreadId> {
    Ok(ThreadId(r.u64()? as usize))
}

fn put_loc(w: &mut Writer, loc: Loc) {
    w.u32(loc.template.0);
    w.u32(loc.pc);
}

fn get_loc(r: &mut Reader<'_>) -> Decode<Loc> {
    Ok(Loc {
        template: TemplateId(r.u32()?),
        pc: r.u32()?,
    })
}

fn put_op(w: &mut Writer, op: &PendingOp) {
    put_thread(w, op.thread);
    put_loc(w, op.loc);
    match op.addr {
        None => w.u8(0),
        Some(a) => {
            w.u8(1);
            w.u64(a as u64);
        }
    }
    w.u8(op.is_write as u8);
}

fn get_op(r: &mut Reader<'_>) -> Decode<PendingOp> {
    let thread = get_thread(r)?;
    let loc = get_loc(r)?;
    let addr = match r.u8()? {
        0 => None,
        1 => Some(r.u64()? as usize),
        v => return Err(format!("invalid option tag {v} for pending-op address")),
    };
    let is_write = r.bool()?;
    Ok(PendingOp {
        thread,
        loc,
        addr,
        is_write,
    })
}

/// A choice point in the format of a [`SchedulingPoint`]: its enabled
/// threads are the threads of its (index-parallel) pending summaries.
fn put_point(w: &mut Writer, context: &PointContext, ops: &[PendingOp]) {
    w.u64(ops.len() as u64);
    for op in ops {
        put_thread(w, op.thread);
    }
    match context.last {
        None => w.u8(0),
        Some(t) => {
            w.u8(1);
            put_thread(w, t);
        }
    }
    w.u8(context.last_enabled as u8);
    w.u64(context.num_threads as u64);
    w.u64(context.step_index as u64);
    w.u64(ops.len() as u64);
    for op in ops {
        put_op(w, op);
    }
}

fn get_point(r: &mut Reader<'_>) -> Decode<(PointContext, Vec<PendingOp>)> {
    let n = r.len(8)?;
    let mut enabled = Vec::with_capacity(n);
    for _ in 0..n {
        enabled.push(get_thread(r)?);
    }
    let last = match r.u8()? {
        0 => None,
        1 => Some(get_thread(r)?),
        v => return Err(format!("invalid option tag {v} for last thread")),
    };
    let last_enabled = r.bool()?;
    let num_threads = r.u64()? as usize;
    let step_index = r.u64()? as usize;
    let n = r.len(18)?;
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        pending.push(get_op(r)?);
    }
    if !pending
        .iter()
        .map(|op| op.thread)
        .eq(enabled.iter().copied())
    {
        return Err(format!(
            "pending summaries not index-parallel to the enabled threads at step {step_index}"
        ));
    }
    let context = PointContext {
        last,
        last_enabled,
        num_threads,
        step_index,
    };
    Ok((context, pending))
}

fn put_bug(w: &mut Writer, bug: &Bug) {
    match bug {
        Bug::AssertionFailure { thread, loc, msg } => {
            w.u8(0);
            put_thread(w, *thread);
            put_loc(w, *loc);
            w.str(msg);
        }
        Bug::ExplicitFailure { thread, loc, msg } => {
            w.u8(1);
            put_thread(w, *thread);
            put_loc(w, *loc);
            w.str(msg);
        }
        Bug::Deadlock { blocked } => {
            w.u8(2);
            w.u64(blocked.len() as u64);
            for &t in blocked {
                put_thread(w, t);
            }
        }
        Bug::UnlockNotHeld { thread, loc } => {
            w.u8(3);
            put_thread(w, *thread);
            put_loc(w, *loc);
        }
        Bug::UseAfterDestroy { thread, loc } => {
            w.u8(4);
            put_thread(w, *thread);
            put_loc(w, *loc);
        }
        Bug::DestroyBusy { thread, loc } => {
            w.u8(5);
            put_thread(w, *thread);
            put_loc(w, *loc);
        }
        Bug::OutOfBounds {
            thread,
            loc,
            index,
            len,
        } => {
            w.u8(6);
            put_thread(w, *thread);
            put_loc(w, *loc);
            w.i64(*index);
            w.u32(*len);
        }
        Bug::InvalidJoin {
            thread,
            loc,
            target,
        } => {
            w.u8(7);
            put_thread(w, *thread);
            put_loc(w, *loc);
            w.i64(*target);
        }
        Bug::WaitWithoutMutex { thread, loc } => {
            w.u8(8);
            put_thread(w, *thread);
            put_loc(w, *loc);
        }
        Bug::StepLimitExceeded { limit } => {
            w.u8(9);
            w.u64(*limit as u64);
        }
    }
}

fn get_bug(r: &mut Reader<'_>) -> Decode<Bug> {
    Ok(match r.u8()? {
        0 => Bug::AssertionFailure {
            thread: get_thread(r)?,
            loc: get_loc(r)?,
            msg: r.str()?,
        },
        1 => Bug::ExplicitFailure {
            thread: get_thread(r)?,
            loc: get_loc(r)?,
            msg: r.str()?,
        },
        2 => {
            let n = r.len(8)?;
            let mut blocked = Vec::with_capacity(n);
            for _ in 0..n {
                blocked.push(get_thread(r)?);
            }
            Bug::Deadlock { blocked }
        }
        3 => Bug::UnlockNotHeld {
            thread: get_thread(r)?,
            loc: get_loc(r)?,
        },
        4 => Bug::UseAfterDestroy {
            thread: get_thread(r)?,
            loc: get_loc(r)?,
        },
        5 => Bug::DestroyBusy {
            thread: get_thread(r)?,
            loc: get_loc(r)?,
        },
        6 => Bug::OutOfBounds {
            thread: get_thread(r)?,
            loc: get_loc(r)?,
            index: r.i64()?,
            len: r.u32()?,
        },
        7 => Bug::InvalidJoin {
            thread: get_thread(r)?,
            loc: get_loc(r)?,
            target: r.i64()?,
        },
        8 => Bug::WaitWithoutMutex {
            thread: get_thread(r)?,
            loc: get_loc(r)?,
        },
        9 => Bug::StepLimitExceeded {
            limit: r.u64()? as usize,
        },
        v => return Err(format!("invalid bug tag {v}")),
    })
}

fn put_digest(w: &mut Writer, d: &TerminalDigest) {
    match &d.bug {
        None => w.u8(0),
        Some(bug) => {
            w.u8(1);
            put_bug(w, bug);
        }
    }
    w.u8(d.diverged as u8);
    w.u64(d.threads_created as u64);
    w.u64(d.max_enabled as u64);
    w.u64(d.scheduling_points as u64);
    w.u64(d.fingerprint);
    w.u32(d.preemptions);
    w.u32(d.delays);
}

fn get_digest(r: &mut Reader<'_>) -> Decode<TerminalDigest> {
    let bug = match r.u8()? {
        0 => None,
        1 => Some(get_bug(r)?),
        v => return Err(format!("invalid option tag {v} for terminal bug")),
    };
    Ok(TerminalDigest {
        bug,
        diverged: r.bool()?,
        threads_created: r.u64()? as usize,
        max_enabled: r.u64()? as usize,
        scheduling_points: r.u64()? as usize,
        fingerprint: r.u64()?,
        preemptions: r.u32()?,
        delays: r.u32()?,
    })
}

fn put_link(w: &mut Writer, link: Link) {
    match link {
        Link::Interior(n) => {
            w.u8(0);
            w.u32(n);
        }
        Link::Terminal(d) => {
            w.u8(1);
            w.u32(d);
        }
    }
}

fn get_link(r: &mut Reader<'_>) -> Decode<Link> {
    Ok(match r.u8()? {
        0 => Link::Interior(r.u32()?),
        1 => Link::Terminal(r.u32()?),
        v => return Err(format!("invalid link tag {v}")),
    })
}

fn put_node(w: &mut Writer, cache: &ScheduleCache, node: &Node) {
    let ops = cache.node_ops(node);
    let mut edges = cache.node_edges(node);
    match cache.node_context(node) {
        None => {
            w.u8(0);
            put_op(w, &ops[0]);
            match edges.next() {
                None => w.u8(0),
                Some(edge) => {
                    w.u8(1);
                    put_link(w, edge.link);
                }
            }
        }
        Some(context) => {
            w.u8(1);
            put_point(w, context, ops);
            w.u64(edges.clone().count() as u64);
            for edge in edges {
                put_thread(w, edge.thread);
                put_link(w, edge.link);
            }
        }
    }
}

/// Decode one node and its edges, appending them to `cache`.
fn get_node(r: &mut Reader<'_>, cache: &mut ScheduleCache) -> Decode<()> {
    let n = cache.nodes.len();
    match r.u8()? {
        0 => {
            let op = get_op(r)?;
            let next = match r.u8()? {
                0 => None,
                1 => Some(get_link(r)?),
                v => return Err(format!("invalid option tag {v} for forced edge")),
            };
            cache.push_node(&[op], None);
            if let Some(link) = next {
                cache.push_edge(n, NONE, op.thread, link);
            }
        }
        1 => {
            let (context, ops) = get_point(r)?;
            cache.push_node(&ops, Some(context));
            let count = r.len(13)?;
            let mut tail = NONE;
            for _ in 0..count {
                let t = get_thread(r)?;
                tail = cache.push_edge(n, tail, t, get_link(r)?);
            }
        }
        v => return Err(format!("invalid node tag {v}")),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Trie file format.
// ---------------------------------------------------------------------------

/// Serialize a trie to the versioned binary format, stamped with `key`.
pub fn cache_to_bytes(cache: &ScheduleCache, key: u64) -> Vec<u8> {
    let mut w = Writer::default();
    w.buf.extend_from_slice(CACHE_MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(key);
    w.u64(cache.max_bytes);
    w.u64(cache.bytes);
    w.u8(cache.full as u8);
    w.u64(cache.nodes.len() as u64);
    for node in &cache.nodes {
        put_node(&mut w, cache, node);
    }
    w.u64(cache.terminals.len() as u64);
    for d in &cache.terminals {
        put_digest(&mut w, d);
    }
    w.buf
}

/// Load a trie from its binary form, verifying magic, version, key and
/// structural integrity (every edge in bounds, byte accounting consistent).
pub fn cache_from_bytes(data: &[u8], key: u64, path: &Path) -> Result<ScheduleCache, CorpusError> {
    let corrupted = |detail: String| CorpusError::Corrupted {
        path: path.to_path_buf(),
        detail,
    };
    let mut r = Reader::new(data);
    let magic = r.take(4).map_err(&corrupted)?;
    if magic != CACHE_MAGIC {
        return Err(CorpusError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let version = r.u32().map_err(&corrupted)?;
    if version != FORMAT_VERSION {
        return Err(CorpusError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
        });
    }
    let found_key = r.u64().map_err(&corrupted)?;
    if found_key != key {
        return Err(CorpusError::KeyMismatch {
            path: path.to_path_buf(),
            expected: key,
            found: found_key,
        });
    }
    // The session counters (`hits`, `insertions`) are deliberately not part
    // of the format: a loaded trie starts a fresh session over durable
    // content, which also keeps serialize→load→serialize byte-stable.
    let parse = |r: &mut Reader<'_>| -> Decode<ScheduleCache> {
        let mut cache = ScheduleCache::new(r.u64()?);
        cache.bytes = r.u64()?;
        cache.full = r.bool()?;
        let n = r.len(2)?;
        cache.nodes.reserve_exact(n);
        for _ in 0..n {
            get_node(r, &mut cache)?;
        }
        let n = r.len(2)?;
        cache.terminals.reserve_exact(n);
        for _ in 0..n {
            cache.terminals.push(get_digest(r)?);
        }
        r.finish()?;
        Ok(cache)
    };
    let cache = parse(&mut r).map_err(&corrupted)?;
    validate_cache(&cache).map_err(&corrupted)?;
    Ok(cache)
}

/// Structural integrity of a freshly decoded trie: every link lands inside
/// the node/terminal tables, and recomputing the byte estimate from the nodes
/// reproduces the stored accounting (so a bit flip in either is caught).
fn validate_cache(cache: &ScheduleCache) -> Decode<()> {
    let nodes = cache.nodes.len();
    let terminals = cache.terminals.len();
    let check = |link: &Link| -> Decode<()> {
        match *link {
            Link::Interior(n) if (n as usize) < nodes => Ok(()),
            Link::Terminal(d) if (d as usize) < terminals => Ok(()),
            Link::Interior(n) => Err(format!("interior link {n} out of bounds ({nodes} nodes)")),
            Link::Terminal(d) => Err(format!(
                "terminal link {d} out of bounds ({terminals} terminals)"
            )),
        }
    };
    for edge in &cache.edges {
        check(&edge.link)?;
    }
    let mut recomputed = 0u64;
    for node in &cache.nodes {
        recomputed += node_weight(cache.node_ops(node).len());
    }
    recomputed += terminals as u64 * TERMINAL_BYTES;
    if recomputed != cache.bytes {
        return Err(format!(
            "byte accounting mismatch: stored {} vs recomputed {recomputed}",
            cache.bytes
        ));
    }
    if cache.full != (cache.bytes >= cache.max_bytes) {
        return Err(format!(
            "fullness flag inconsistent: full={} with bytes {} / cap {}",
            cache.full, cache.bytes, cache.max_bytes
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Bug corpus.
// ---------------------------------------------------------------------------

/// One reproducible bug: the minimal decision prefix that triggers it when
/// the remainder of the execution follows the deterministic round-robin
/// scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugRecord {
    /// Minimized decision prefix (see [`minimize_prefix`]).
    pub prefix: Vec<ThreadId>,
    /// The bug [`replay_prefix`] reproduces from that prefix.
    pub bug: Bug,
}

/// The replayable bug corpus of one benchmark: its records plus the exact
/// execution configuration they were minimized against (replaying under a
/// different visibility mode would shift every scheduling point).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugCorpus {
    /// Benchmark name (matches `BenchmarkSpec::name` in the harness).
    pub benchmark: String,
    /// Execution configuration the prefixes were recorded under.
    pub config: ExecConfig,
    /// Deduplicated, deterministically ordered records.
    pub records: Vec<BugRecord>,
}

fn put_config(w: &mut Writer, config: &ExecConfig) {
    match &config.visibility {
        VisibilityMode::SyncOnly => w.u8(0),
        VisibilityMode::AllSharedAccesses => w.u8(1),
        VisibilityMode::RacyOnly(locs) => {
            w.u8(2);
            let mut sorted: Vec<Loc> = locs.iter().copied().collect();
            sorted.sort();
            w.u64(sorted.len() as u64);
            for loc in sorted {
                put_loc(w, loc);
            }
        }
    }
    w.u64(config.max_steps as u64);
    w.u64(config.max_invisible_ops_per_step as u64);
}

fn get_config(r: &mut Reader<'_>) -> Decode<ExecConfig> {
    let visibility = match r.u8()? {
        0 => VisibilityMode::SyncOnly,
        1 => VisibilityMode::AllSharedAccesses,
        2 => {
            let n = r.len(8)?;
            let mut locs = Vec::with_capacity(n);
            for _ in 0..n {
                locs.push(get_loc(r)?);
            }
            VisibilityMode::racy(locs)
        }
        v => return Err(format!("invalid visibility tag {v}")),
    };
    Ok(ExecConfig {
        visibility,
        max_steps: r.u64()? as usize,
        max_invisible_ops_per_step: r.u64()? as usize,
    })
}

/// Serialize a bug corpus to the versioned binary format.
pub fn bugs_to_bytes(corpus: &BugCorpus) -> Vec<u8> {
    let mut w = Writer::default();
    w.buf.extend_from_slice(BUGS_MAGIC);
    w.u32(FORMAT_VERSION);
    w.str(&corpus.benchmark);
    put_config(&mut w, &corpus.config);
    w.u64(corpus.records.len() as u64);
    for record in &corpus.records {
        w.u64(record.prefix.len() as u64);
        for &t in &record.prefix {
            put_thread(&mut w, t);
        }
        put_bug(&mut w, &record.bug);
    }
    w.buf
}

/// Load a bug corpus, verifying magic, version and structure.
pub fn bugs_from_bytes(data: &[u8], path: &Path) -> Result<BugCorpus, CorpusError> {
    let corrupted = |detail: String| CorpusError::Corrupted {
        path: path.to_path_buf(),
        detail,
    };
    let mut r = Reader::new(data);
    let magic = r.take(4).map_err(&corrupted)?;
    if magic != BUGS_MAGIC {
        return Err(CorpusError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let version = r.u32().map_err(&corrupted)?;
    if version != FORMAT_VERSION {
        return Err(CorpusError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
        });
    }
    let parse = |r: &mut Reader<'_>| -> Decode<BugCorpus> {
        let benchmark = r.str()?;
        let config = get_config(r)?;
        let n = r.len(9)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.len(8)?;
            let mut prefix = Vec::with_capacity(len);
            for _ in 0..len {
                prefix.push(get_thread(r)?);
            }
            records.push(BugRecord {
                prefix,
                bug: get_bug(r)?,
            });
        }
        r.finish()?;
        Ok(BugCorpus {
            benchmark,
            config,
            records,
        })
    };
    parse(&mut r).map_err(&corrupted)
}

/// Run the program once: follow `prefix` decision by decision (falling back
/// to the deterministic round-robin choice if a prefix thread is not enabled
/// — which never happens for prefixes recorded against the same program) and
/// continue round-robin after the prefix is exhausted. Exactly one execution.
pub fn replay_prefix(
    program: &Program,
    config: &ExecConfig,
    prefix: &[ThreadId],
) -> ExecutionOutcome {
    let mut exec = Execution::new_shared(program, config);
    run_prefix(&mut exec, prefix)
}

fn run_prefix(exec: &mut Execution<'_>, prefix: &[ThreadId]) -> ExecutionOutcome {
    exec.reset();
    let mut step = 0usize;
    exec.run(
        &mut |point: &SchedulingPoint| {
            let chosen = prefix
                .get(step)
                .copied()
                .filter(|&t| point.is_enabled(t))
                .unwrap_or_else(|| point.round_robin_choice());
            step += 1;
            chosen
        },
        &mut NoopObserver,
    )
}

/// Binary-search the shortest prefix of `schedule` whose [`replay_prefix`]
/// continuation still reproduces `bug` (a locally minimal cut: the predicate
/// is not guaranteed monotone, so this finds *a* minimal witness, not
/// necessarily the global one — the standard trade-off of binary-search
/// truncation). Returns the full schedule if even it does not reproduce the
/// bug (cannot happen for schedules recorded against the same program).
pub fn minimize_prefix(
    program: &Program,
    config: &ExecConfig,
    schedule: &[ThreadId],
    bug: &Bug,
) -> Vec<ThreadId> {
    let mut exec = Execution::new_shared(program, config);
    let reproduces = |exec: &mut Execution<'_>, len: usize| {
        run_prefix(exec, &schedule[..len]).bug.as_ref() == Some(bug)
    };
    if !reproduces(&mut exec, schedule.len()) {
        return schedule.to_vec();
    }
    let (mut lo, mut hi) = (0usize, schedule.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reproduces(&mut exec, mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    schedule[..hi].to_vec()
}

/// Distill a trie's buggy terminals into a deduplicated, minimized bug
/// corpus: one record per distinct [`Bug`] value, keyed on the
/// path-lexicographically first schedule that produced it (deterministic no
/// matter what order the trie was built in).
pub fn harvest_bugs(
    program: &Program,
    config: &ExecConfig,
    cache: &ScheduleCache,
) -> Vec<BugRecord> {
    let mut records: Vec<BugRecord> = Vec::new();
    for (schedule, bug) in cache.buggy_schedules() {
        if records.iter().any(|r| r.bug == bug) {
            continue;
        }
        let prefix = minimize_prefix(program, config, &schedule, &bug);
        records.push(BugRecord { prefix, bug });
    }
    records
}

// ---------------------------------------------------------------------------
// On-disk corpus directory.
// ---------------------------------------------------------------------------

/// A corpus directory: one trie file (`<slug>.trie.sctc`) and one bug file
/// (`<slug>.bugs.sctb`) per benchmark. All saves are atomic
/// (write-to-temporary + rename), so a study killed mid-save leaves the
/// previous artifact intact rather than a truncated one — and durable
/// (tmp-file `sync_all` before the rename, parent-directory fsync after it),
/// so a reported save survives a crash of the whole machine.
#[derive(Debug, Clone)]
pub struct Corpus {
    dir: PathBuf,
}

/// Attempts one corpus save makes before surfacing the I/O error.
const WRITE_ATTEMPTS: u32 = 3;

/// Pause before retry `n` (linear backoff: `n * RETRY_BACKOFF`).
const RETRY_BACKOFF: std::time::Duration = std::time::Duration::from_millis(10);

impl Corpus {
    /// Open (creating if needed) a corpus directory, sweeping away any stale
    /// `.tmp` files a crashed save left behind: they were never published by
    /// a rename, so they are garbage, never data, and deleting them keeps a
    /// torn one from ever being mistaken for an artifact.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Corpus, CorpusError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|x| x == "tmp") {
                // Best effort: a sweep that loses a race (or lacks
                // permission) costs nothing — saves truncate on create.
                let _ = fs::remove_file(&path);
            }
        }
        Ok(Corpus { dir })
    }

    /// The directory this corpus lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn slug(name: &str) -> String {
        name.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect()
    }

    /// Path of the trie artifact for `benchmark`.
    pub fn cache_path(&self, benchmark: &str) -> PathBuf {
        self.dir
            .join(format!("{}.trie.sctc", Self::slug(benchmark)))
    }

    /// Path of the bug-corpus artifact for `benchmark`.
    pub fn bugs_path(&self, benchmark: &str) -> PathBuf {
        self.dir
            .join(format!("{}.bugs.sctb", Self::slug(benchmark)))
    }

    /// Atomic, durable, retrying save: write to a temporary, `sync_all` it,
    /// rename over the target, fsync the parent directory. Transient I/O
    /// errors are retried up to [`WRITE_ATTEMPTS`] times with linear backoff
    /// (each attempt restarts from a truncating create, so a torn earlier
    /// attempt cannot leak into a later one); a persistent error surfaces.
    fn write_atomic(path: &Path, data: &[u8]) -> Result<(), CorpusError> {
        let mut last: Option<io::Error> = None;
        for attempt in 0..WRITE_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(RETRY_BACKOFF * attempt);
            }
            match Self::write_atomic_once(path, data) {
                Ok(()) => return Ok(()),
                Err(e) => last = Some(e),
            }
        }
        Err(CorpusError::Io(last.expect("at least one attempt ran")))
    }

    fn write_atomic_once(path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let scope = path.to_string_lossy();
        let tmp = path.with_extension("tmp");
        let mut file = fs::File::create(&tmp)?;
        fault::io_point(FaultKind::WriteFail, &scope)?;
        if let Some(torn) = fault::torn_write(&scope, data.len()) {
            // Simulated crash mid-write: flush a prefix to disk and fail,
            // leaving the torn `.tmp` behind exactly as a real crash would.
            file.write_all(&data[..torn])?;
            let _ = file.sync_all();
            return Err(io::Error::other(fault::INJECTED));
        }
        file.write_all(data)?;
        // The contents must be on disk *before* the rename publishes them:
        // without this, a crash after the rename can publish a hole.
        fault::io_point(FaultKind::SyncFail, &scope)?;
        file.sync_all()?;
        drop(file);
        fault::io_point(FaultKind::RenameFail, &scope)?;
        fs::rename(&tmp, path)?;
        // The rename is a directory-entry update; fsync the directory so the
        // publish itself survives a power cut (journalling filesystems may
        // otherwise delay it past the point the caller reports success).
        fs::File::open(path.parent().unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(())
    }

    /// Load the saved trie for `benchmark`, if one exists. `key` must match
    /// the stored fingerprint ([`corpus_key`]); a mismatch is an error, not a
    /// silent cold start.
    pub fn load_cache(
        &self,
        benchmark: &str,
        key: u64,
    ) -> Result<Option<ScheduleCache>, CorpusError> {
        let path = self.cache_path(benchmark);
        let data = match fs::read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CorpusError::Io(e)),
        };
        cache_from_bytes(&data, key, &path).map(Some)
    }

    /// Atomically save the trie for `benchmark`.
    pub fn save_cache(
        &self,
        benchmark: &str,
        key: u64,
        cache: &ScheduleCache,
    ) -> Result<(), CorpusError> {
        Self::write_atomic(&self.cache_path(benchmark), &cache_to_bytes(cache, key))
    }

    /// Load the saved bug corpus for `benchmark`, if one exists.
    pub fn load_bugs(&self, benchmark: &str) -> Result<Option<BugCorpus>, CorpusError> {
        let path = self.bugs_path(benchmark);
        let data = match fs::read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CorpusError::Io(e)),
        };
        bugs_from_bytes(&data, &path).map(Some)
    }

    /// Atomically save a bug corpus.
    pub fn save_bugs(&self, corpus: &BugCorpus) -> Result<(), CorpusError> {
        Self::write_atomic(&self.bugs_path(&corpus.benchmark), &bugs_to_bytes(corpus))
    }

    /// Every bug corpus stored in the directory, in file-name order (used by
    /// the `replay` subcommand).
    pub fn bug_corpora(&self) -> Result<Vec<BugCorpus>, CorpusError> {
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|entry| entry.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".bugs.sctb"))
            })
            .collect();
        paths.sort();
        paths
            .iter()
            .map(|path| bugs_from_bytes(&fs::read(path)?, path))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::DelayBound;
    use crate::cache::{run_begun_schedule, CacheHandle, ScheduleBuffers};
    use crate::dfs::BoundedDfs;
    use crate::scheduler::Scheduler;
    use sct_ir::prelude::*;

    /// Figure 1 of the paper: a bug that needs one specific interleaving.
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

    fn explored_cache(program: &Program, config: &ExecConfig, bounds: u32) -> ScheduleCache {
        let mut cache = ScheduleCache::default();
        let mut exec = Execution::new_shared(program, config);
        let mut buffers = ScheduleBuffers::default();
        for bound in 0..=bounds {
            let mut scheduler = BoundedDfs::new(Box::new(DelayBound), bound);
            while scheduler.begin_execution() {
                run_begun_schedule(
                    &mut exec,
                    &mut scheduler,
                    CacheHandle::Local(&mut cache),
                    &mut buffers,
                    None,
                );
            }
        }
        cache
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sct-corpus-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn trie_round_trips_through_the_binary_format() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let cache = explored_cache(&prog, &config, 2);
        assert!(cache.bytes() > 0 && !cache.terminals.is_empty());
        let key = corpus_key("figure1", &config);
        let data = cache_to_bytes(&cache, key);
        let loaded = cache_from_bytes(&data, key, Path::new("mem")).expect("round trip");
        assert_eq!(loaded.bytes(), cache.bytes());
        assert_eq!(loaded.is_full(), cache.is_full());
        assert_eq!(loaded.nodes.len(), cache.nodes.len());
        assert_eq!(loaded.terminals, cache.terminals);
        assert_eq!(loaded.hits(), 0, "hit counter must reset on load");
        // Re-encoding the loaded trie reproduces the bytes exactly.
        assert_eq!(cache_to_bytes(&loaded, key), data);
        // And the loaded trie serves the same buggy schedules.
        assert_eq!(loaded.buggy_schedules(), cache.buggy_schedules());
    }

    #[test]
    fn the_buggy_terminal_count_matches_the_buggy_schedules_of_a_loaded_trie() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let key = corpus_key("figure1", &config);
        let data = cache_to_bytes(&explored_cache(&prog, &config, 2), key);
        let loaded = cache_from_bytes(&data, key, Path::new("mem")).expect("round trip");
        assert!(loaded.buggy_terminals() > 0, "figure1's bug is in the trie");
        assert_eq!(loaded.buggy_terminals(), loaded.buggy_schedules().len());
    }

    #[test]
    fn corrupted_truncated_and_mismatched_files_fail_clearly() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let cache = explored_cache(&prog, &config, 1);
        let key = corpus_key("figure1", &config);
        let good = cache_to_bytes(&cache, key);
        let p = Path::new("mem");

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            cache_from_bytes(&bad, key, p),
            Err(CorpusError::BadMagic { .. })
        ));

        // Unsupported version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            cache_from_bytes(&bad, key, p),
            Err(CorpusError::UnsupportedVersion { found: 99, .. })
        ));

        // Key mismatch (different configuration).
        let other = corpus_key("figure1", &ExecConfig::sync_only());
        assert_ne!(key, other);
        let err = cache_from_bytes(&good, other, p).unwrap_err();
        assert!(matches!(err, CorpusError::KeyMismatch { .. }));
        assert!(err.to_string().contains("refusing to resume"));

        // Truncation at every prefix length parses as an error, never panics
        // or silently succeeds.
        for len in 0..good.len() {
            assert!(
                cache_from_bytes(&good[..len], key, p).is_err(),
                "truncated file of {len} bytes was accepted"
            );
        }

        // A flipped byte in the accounting is caught by validation.
        let mut bad = good.clone();
        bad[24] ^= 0x40; // inside the stored `bytes` field
        assert!(cache_from_bytes(&bad, key, p).is_err());
    }

    #[test]
    fn corpus_keys_separate_configs_and_programs() {
        let all = ExecConfig::all_visible();
        let sync = ExecConfig::sync_only();
        assert_ne!(corpus_key("a", &all), corpus_key("b", &all));
        assert_ne!(corpus_key("a", &all), corpus_key("a", &sync));
        // Racy-location sets hash order-independently.
        let l1 = Loc {
            template: TemplateId(0),
            pc: 1,
        };
        let l2 = Loc {
            template: TemplateId(2),
            pc: 7,
        };
        let c1 = ExecConfig::with_racy_locations([l1, l2]);
        let c2 = ExecConfig::with_racy_locations([l2, l1]);
        assert_eq!(corpus_key("a", &c1), corpus_key("a", &c2));
    }

    #[test]
    fn harvested_bugs_replay_in_exactly_one_execution() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let cache = explored_cache(&prog, &config, 3);
        let records = harvest_bugs(&prog, &config, &cache);
        assert!(
            !records.is_empty(),
            "figure1 exposes its assertion failure within delay bound 3"
        );
        // Deduplicated by bug value.
        for (i, a) in records.iter().enumerate() {
            for b in &records[i + 1..] {
                assert_ne!(a.bug, b.bug, "duplicate bug in the corpus");
            }
        }
        for record in &records {
            let outcome = replay_prefix(&prog, &config, &record.prefix);
            assert_eq!(
                outcome.bug.as_ref(),
                Some(&record.bug),
                "minimized prefix failed to reproduce its bug"
            );
            // And the prefix is minimal under one-step truncation.
            if !record.prefix.is_empty() {
                let shorter = &record.prefix[..record.prefix.len() - 1];
                assert_ne!(
                    replay_prefix(&prog, &config, shorter).bug.as_ref(),
                    Some(&record.bug),
                    "prefix is not minimal"
                );
            }
        }
    }

    #[test]
    fn transient_io_faults_are_absorbed_by_the_retry_loop() {
        // One injected failure at each I/O point of `write_atomic_once`: the
        // first attempt fails, the retry publishes, the caller never notices.
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let cache = explored_cache(&prog, &config, 2);
        let key = corpus_key("figure1", &config);
        for kind in [
            FaultKind::WriteFail,
            FaultKind::SyncFail,
            FaultKind::RenameFail,
        ] {
            let dir = tempdir(&format!("transient-{kind:?}"));
            let corpus = Corpus::open(&dir).expect("open corpus dir");
            let scope = corpus.cache_path("figure1").to_string_lossy().into_owned();
            let _fault = fault::arm(kind, &scope, 1);
            corpus
                .save_cache("figure1", key, &cache)
                .unwrap_or_else(|e| panic!("{kind:?}: one transient fault must be retried: {e}"));
            let loaded = corpus
                .load_cache("figure1", key)
                .expect("load after retried save")
                .expect("artifact was published");
            assert_eq!(loaded.bytes(), cache.bytes(), "{kind:?}");
            assert_eq!(loaded.terminals, cache.terminals, "{kind:?}");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_torn_write_is_never_published_and_the_retry_replaces_it() {
        // The torn-write fault flushes a prefix of the artifact and fails,
        // exactly like a crash mid-write. The retry starts from a truncating
        // create, so the published artifact must be whole — the torn bytes
        // can never leak through the rename.
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let cache = explored_cache(&prog, &config, 2);
        let key = corpus_key("figure1", &config);
        let dir = tempdir("torn-write");
        let corpus = Corpus::open(&dir).expect("open corpus dir");
        let path = corpus.cache_path("figure1");
        let scope = path.to_string_lossy().into_owned();
        let _fault = fault::arm(FaultKind::TornWrite, &scope, 1);
        corpus
            .save_cache("figure1", key, &cache)
            .expect("the torn first attempt must be retried");
        let published = fs::read(&path).expect("artifact exists");
        assert_eq!(
            published,
            cache_to_bytes(&cache, key),
            "published bytes are whole"
        );
        assert!(
            !path.with_extension("tmp").exists(),
            "the successful rename consumed the temporary"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_persistent_fault_surfaces_and_leaves_the_old_artifact_intact() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let small = explored_cache(&prog, &config, 0);
        let big = explored_cache(&prog, &config, 3);
        assert!(big.bytes() > small.bytes());
        let key = corpus_key("figure1", &config);
        let dir = tempdir("persistent-fault");
        let corpus = Corpus::open(&dir).expect("open corpus dir");
        let path = corpus.cache_path("figure1");
        corpus
            .save_cache("figure1", key, &small)
            .expect("clean first save");
        let good = fs::read(&path).expect("published artifact");

        // Fail the rename on every one of the bounded retries: the save must
        // surface the injected error rather than spin forever.
        let scope = path.to_string_lossy().into_owned();
        let err = {
            let _fault =
                fault::arm_times(FaultKind::RenameFail, &scope, 1, u64::from(WRITE_ATTEMPTS));
            corpus
                .save_cache("figure1", key, &big)
                .expect_err("a fault on every attempt must surface")
        };
        assert!(
            err.to_string().contains(fault::INJECTED),
            "error should carry the injected cause: {err}"
        );
        // The previously published artifact is untouched and still loads.
        assert_eq!(fs::read(&path).expect("old artifact"), good);
        let loaded = corpus
            .load_cache("figure1", key)
            .expect("load old artifact")
            .expect("old artifact still present");
        assert_eq!(loaded.bytes(), small.bytes());
        // The failed save left its fully written `.tmp` behind (the rename
        // never ran); reopening the corpus — what `--resume` does — sweeps it.
        assert!(path.with_extension("tmp").exists(), "stale tmp left behind");
        let corpus = Corpus::open(&dir).expect("reopen corpus dir");
        assert!(
            !path.with_extension("tmp").exists(),
            "stale tmp must be swept on open"
        );
        // And with the fault gone the save goes through.
        corpus
            .save_cache("figure1", key, &big)
            .expect("save succeeds once the fault clears");
        assert_eq!(
            corpus
                .load_cache("figure1", key)
                .expect("load")
                .expect("artifact")
                .bytes(),
            big.bytes()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bug_corpus_round_trips_and_the_directory_api_is_atomic() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let cache = explored_cache(&prog, &config, 3);
        let dir = tempdir("bugdir");
        let corpus = Corpus::open(&dir).expect("open corpus dir");

        let key = corpus_key("figure1", &config);
        corpus
            .save_cache("figure1", key, &cache)
            .expect("save trie");
        let loaded = corpus
            .load_cache("figure1", key)
            .expect("load trie")
            .expect("trie exists");
        assert_eq!(loaded.bytes(), cache.bytes());
        assert!(matches!(
            corpus.load_cache("figure1", key ^ 1),
            Err(CorpusError::KeyMismatch { .. })
        ));
        assert!(corpus
            .load_cache("never-saved", key)
            .expect("missing file is not an error")
            .is_none());

        let bugs = BugCorpus {
            benchmark: "figure1".to_string(),
            config: config.clone(),
            records: harvest_bugs(&prog, &config, &cache),
        };
        corpus.save_bugs(&bugs).expect("save bugs");
        let loaded = corpus
            .load_bugs("figure1")
            .expect("load bugs")
            .expect("bugs exist");
        assert_eq!(loaded, bugs);
        let all = corpus.bug_corpora().expect("scan dir");
        assert_eq!(all, vec![bugs]);
        // No temporary droppings left behind by the atomic writes.
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(stray.is_empty(), "temporary files left behind: {stray:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
