//! The traced run's deterministic counts repeat exactly between two runs.
//! Alone in its test binary: the allocation counter is process-wide.

use sct_perfbench::layers::{cache_probe, runtime_probe, traced_pass, CorpusProbe};
use sct_perfbench::spans::Tracer;
use sct_perfbench::workload::{setup, unit_seed, Workload};
use std::path::PathBuf;

#[test]
fn deterministic_counts_repeat_exactly() {
    let workload = Workload::Campaign;
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("counts");
    let setup = setup(workload, &dir).unwrap();
    let traced = traced_pass(workload, &setup, unit_seed(0), &Tracer::default()).unwrap();
    let counts = || {
        let runtime = runtime_probe(&traced.inputs);
        let mut corpus = CorpusProbe::open(&dir.join("probe")).unwrap();
        let (cache, check) = cache_probe(&traced.inputs, &mut corpus).unwrap();
        assert!(check.passed(), "{:?}", check.failures);
        let (corpus, check) = corpus.finish();
        assert!(check.passed(), "{:?}", check.failures);
        (
            runtime.allocs_per_step,
            runtime.alloc_bytes_per_step,
            runtime.steps_per_exec,
            cache.hit_rate,
            cache.bytes,
            corpus.bytes,
        )
    };
    let first = counts();
    assert!(first.0 > 0.0 && first.2 > 0.0 && first.4 > 0 && first.5 > 0);
    assert_eq!(first, counts());
    std::fs::remove_dir_all(&dir).ok();
}
