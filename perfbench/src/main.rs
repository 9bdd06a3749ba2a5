//! The repository benchmark command.
//!
//! ```text
//! sct-perfbench --workload wide|narrow|campaign --seed N --seconds S --trace 0|1
//! sct-perfbench --record-references
//! sct-perfbench --cross-check TABLE3_CSV
//! ```
//!
//! A measured run prints every metric by name with its unit, then one JSON
//! result line. Scratch files go to `.bench_work/` under the current
//! directory; the traced run leaves its spans there.

use sct_perfbench::workload::Workload;
use sct_perfbench::{cross_check, measure, record_references, reference, trace};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    cross_check: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: false,
        cross_check: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--record-references" => parsed.record = true,
            "--cross-check" => parsed.cross_check = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn run(args: &Args, work_dir: &Path) -> Result<bool, String> {
    if args.record {
        for w in Workload::ALL {
            let text = record_references(w, work_dir).map_err(|e| e.to_string())?;
            std::fs::write(reference::path(w), text).map_err(|e| e.to_string())?;
            eprintln!("recorded {}", reference::path(w));
        }
        return Ok(true);
    }
    if let Some(csv) = &args.cross_check {
        let csv = std::fs::read_to_string(csv).map_err(|e| format!("{}: {e}", csv.display()))?;
        let diffs = cross_check(&csv, Workload::Wide.schedule_limit(), work_dir)
            .map_err(|e| e.to_string())?;
        for d in &diffs {
            eprintln!("{d}");
        }
        println!(
            "cross-check: {} (table3.csv columns 1-27)",
            if diffs.is_empty() {
                "identical"
            } else {
                "DIFFERENT"
            }
        );
        return Ok(diffs.is_empty());
    }
    let workload = args.workload.ok_or("--workload is required")?;
    let report = if args.trace {
        let (report, spans) =
            trace(workload, args.seed, args.seconds, work_dir).map_err(|e| e.to_string())?;
        let path = work_dir.parent().unwrap_or(work_dir).join(format!(
            "spans-{}-seed{}.jsonl",
            workload.name(),
            args.seed
        ));
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
        report
    } else {
        measure(workload, args.seed, args.seconds, work_dir).map_err(|e| e.to_string())?
    };
    for f in &report.check.failures {
        eprintln!("FAILED {f}");
    }
    if report.check.unchecked {
        eprintln!("reference: unchecked (no reference rows for this seed)");
    }
    print!("{}", report.table());
    println!("{}", report.json());
    Ok(true)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    let outcome = run(&args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
