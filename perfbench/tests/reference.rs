//! The reference check fails tampered and unrecorded results, and the
//! benchmark's `wide` units render the same `table3.csv` as the study
//! pipeline behind `sct-experiments`.

use sct_core::telemetry::Telemetry;
use sct_harness::{run_study, table3_csv, HarnessConfig};
use sct_perfbench::cross_check;
use sct_perfbench::reference::{check, recorded};
use sct_perfbench::workload::{run_repetition, setup, unit_seed, Workload};
use std::path::PathBuf;

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn a_tampered_reference_row_raises_the_failure_count() {
    let workload = Workload::Campaign;
    let seed = unit_seed(1);
    let dir = work_dir("tamper");
    let rep = run_repetition(
        workload,
        &setup(workload, &dir).unwrap(),
        seed,
        1,
        &Telemetry::off(),
    )
    .unwrap();
    let rows = rep.rows(workload);
    let clean = check(recorded(workload), seed, &rows);
    assert!(clean.passed(), "{:?}", clean.failures);
    assert_eq!(clean.attempted, rows.len() as u64);

    // Change one recorded schedule count of this seed.
    let prefix = format!("{seed}\t");
    let mut tampered_one = false;
    let tampered: String = recorded(workload)
        .lines()
        .map(|line| {
            let mut fields: Vec<String> = line.split('\t').map(str::to_string).collect();
            if !tampered_one && line.starts_with(&prefix) {
                tampered_one = true;
                fields[6] = (fields[6].parse::<u64>().unwrap() + 1).to_string();
            }
            fields.join("\t") + "\n"
        })
        .collect();
    assert!(tampered_one);
    let dirty = check(&tampered, seed, &rows);
    assert_eq!(dirty.failed, 1, "{:?}", dirty.failures);
    assert!(!dirty.passed());

    // A seed with no reference rows is unchecked, never passing.
    let unchecked = check(recorded(workload), 0xfeed_f00d, &rows);
    assert!(unchecked.unchecked);
    assert_eq!(unchecked.failed, 0);
    assert!(!unchecked.passed());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wide_units_match_the_study_pipeline_table3_columns() {
    // What `sct-experiments --schedules 100 --workers 2 --quiet` runs: the
    // benchmark runs one worker, and the statistics must not depend on it.
    let limit = 100;
    let config = HarnessConfig {
        schedule_limit: limit,
        workers: 2,
        quiet: true,
        ..HarnessConfig::default()
    };
    let study = run_study(&config, Some("CS.twostage_100_bad")).unwrap();
    assert_eq!(study.benchmarks.len(), 1);
    let diffs = cross_check(&table3_csv(&study), limit, &work_dir("cross-check")).unwrap();
    assert!(diffs.is_empty(), "{diffs:#?}");
}
