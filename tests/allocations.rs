//! The interpreter executes instructions in place: a step's heap allocations
//! do not grow with the number of invisible instructions it runs.
//!
//! A counting global allocator tallies allocations per thread, so the test
//! harness's other threads never disturb the count of the thread under test.

use sct::prelude::*;
use sct::runtime::Execution;
use sct_runtime::NoopObserver;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A program whose one scheduled step runs `k` invisible instructions:
/// assignments and passing assertions over nested binary and unary
/// expressions, parked behind a visible `yield`.
fn invisible_run(k: usize) -> Program {
    let mut p = ProgramBuilder::new("invisible-run");
    p.main(|b| {
        let r = b.local_init("r", 1);
        b.yield_();
        for i in 0..k {
            if i % 2 == 0 {
                b.assign(r, add(mul(neg(r), sub(r, 3)), max(r, not(r))));
            } else {
                b.assert_cond(ne(add(neg(r), mul(r, 2)), sub(r, add(r, 1))), "r holds");
            }
        }
    });
    p.build().unwrap()
}

/// Allocations made by one `run` of `program` on a warmed-up, reset
/// execution.
fn allocations_per_run(program: &Program) -> u64 {
    let config = ExecConfig::sync_only();
    let mut exec = Execution::new_shared(program, &config);
    let mut round_robin = |p: &SchedulingPoint| p.round_robin_choice();
    let warm_up = exec.run(&mut round_robin, &mut NoopObserver);
    assert!(warm_up.bug.is_none(), "{:?}", warm_up.bug);
    assert_eq!(warm_up.steps.len(), 1, "one scheduled step");
    exec.reset();
    let before = ALLOCATIONS.with(Cell::get);
    let outcome = exec.run(&mut round_robin, &mut NoopObserver);
    let after = ALLOCATIONS.with(Cell::get);
    assert!(outcome.bug.is_none(), "{:?}", outcome.bug);
    after - before
}

#[test]
fn a_step_allocates_the_same_for_ten_and_a_thousand_invisible_instructions() {
    let (short, long) = (invisible_run(10), invisible_run(1000));
    assert_eq!(
        allocations_per_run(&short),
        allocations_per_run(&long),
        "allocations grow with the instructions a step executes"
    );
}
