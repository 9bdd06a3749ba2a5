//! Recorded per-unit reference statistics and the check against them.
//!
//! `references/<workload>.tsv` holds one line per unit and seed:
//! `seed`, then the fields of [`row_text`] (every field that
//! `ExplorationStats` equality compares, plus the benchmark's race counts),
//! tab-separated. `--record-references` rewrites the files.

use crate::workload::{UnitRow, Workload};
use std::collections::BTreeMap;

/// The recorded references of `workload`, compiled into the binary.
pub fn recorded(workload: Workload) -> &'static str {
    match workload {
        Workload::Wide => include_str!("../references/wide.tsv"),
        Workload::Narrow => include_str!("../references/narrow.tsv"),
        Workload::Campaign => include_str!("../references/campaign.tsv"),
    }
}

/// Where `--record-references` writes `workload`'s references.
pub fn path(workload: Workload) -> String {
    format!(
        "{}/references/{}.tsv",
        env!("CARGO_MANIFEST_DIR"),
        workload.name()
    )
}

/// A unit's result as one line: pass, benchmark and technique (the key),
/// then the race counts and every compared statistic. Wall-clock fields and
/// the deadline/panic flags are left out, as `ExplorationStats` equality
/// leaves them out.
pub fn row_text(row: &UnitRow) -> String {
    let s = &row.stats;
    let fields: [String; 24] = [
        row.pass.name().to_string(),
        row.benchmark.clone(),
        s.technique.clone(),
        row.races.to_string(),
        row.racy_locations.to_string(),
        s.schedules.to_string(),
        format!("{:?}", s.schedules_to_first_bug),
        s.buggy_schedules.to_string(),
        s.new_schedules_at_final_bound.to_string(),
        format!("{:?}", s.final_bound),
        format!("{:?}", s.bound_of_first_bug),
        format!("{:?}", s.first_bug),
        s.max_enabled_threads.to_string(),
        s.max_scheduling_points.to_string(),
        s.total_threads.to_string(),
        s.diverged_schedules.to_string(),
        s.slept.to_string(),
        s.pruned_by_sleep.to_string(),
        s.executions.to_string(),
        s.cache_hits.to_string(),
        s.cache_bytes.to_string(),
        s.complete.to_string(),
        s.hit_schedule_limit.to_string(),
        s.bound_exhausted.to_string(),
    ];
    fields.join("\t")
}

fn key(text: &str) -> String {
    text.splitn(4, '\t').take(3).collect::<Vec<_>>().join("\t")
}

/// First line of a reference file.
pub const HEADER: &str = "# seed\tpass\tbenchmark\ttechnique\traces\tracy_locations\tschedules\tschedules_to_first_bug\tbuggy_schedules\tnew_schedules_at_final_bound\tfinal_bound\tbound_of_first_bug\tfirst_bug\tmax_enabled_threads\tmax_scheduling_points\ttotal_threads\tdiverged_schedules\tslept\tpruned_by_sleep\texecutions\tcache_hits\tcache_bytes\tcomplete\thit_schedule_limit\tbound_exhausted\n";

/// Render reference lines for `seed`.
pub fn render(seed: u64, rows: &[UnitRow]) -> String {
    rows.iter()
        .map(|r| format!("{seed}\t{}\n", row_text(r)))
        .collect()
}

/// Outcome of checking units against a reference.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Check {
    /// Units checked (a reference unit the run did not produce counts too).
    pub attempted: u64,
    /// Units that panicked, hit a deadline, differ from their reference row
    /// or are missing.
    pub failed: u64,
    /// The seed has no reference: results were not compared and must not be
    /// reported as passing.
    pub unchecked: bool,
    /// One line per failed unit.
    pub failures: Vec<String>,
}

impl Check {
    /// Fold another check into this one.
    pub fn add(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.unchecked |= other.unchecked;
        self.failures.extend(other.failures);
    }

    /// Whether every unit was checked and none failed.
    pub fn passed(&self) -> bool {
        !self.unchecked && self.failed == 0
    }
}

/// Check `rows` against the lines of `reference` recorded for `seed`.
pub fn check(reference: &str, seed: u64, rows: &[UnitRow]) -> Check {
    let prefix = format!("{seed}\t");
    let mut expected: BTreeMap<String, &str> = reference
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .map(|text| (key(text), text))
        .collect();
    let mut result = Check {
        unchecked: expected.is_empty(),
        ..Check::default()
    };
    for row in rows {
        let text = row_text(row);
        let want = expected.remove(&key(&text));
        result.attempted += 1;
        let problem = if row.stats.engine_panic {
            Some("engine panic".to_string())
        } else if row.stats.deadline_exceeded {
            Some("deadline exceeded".to_string())
        } else {
            match want {
                Some(want) if want == text => None,
                Some(want) => Some(format!(
                    "differs from reference\n  want {want}\n  got  {text}"
                )),
                None if result.unchecked => None,
                None => Some("no reference row".to_string()),
            }
        };
        if let Some(problem) = problem {
            result.failed += 1;
            result.failures.push(format!("{}: {problem}", key(&text)));
        }
    }
    if !result.unchecked {
        for (key, _) in expected {
            result.attempted += 1;
            result.failed += 1;
            result
                .failures
                .push(format!("{key}: unit missing from the run"));
        }
    }
    result
}
