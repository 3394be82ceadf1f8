//! The continue loop allocates nothing per cycle while nothing fires:
//! with a conditional breakpoint on every statement of the rv32 core
//! and a watchpoint armed, a continue of many cycles allocates exactly
//! as much as one of few cycles. The same holds for the scan of a
//! `reverse_continue` that finds nothing, which evaluates the same
//! matching over a replayed window. A counting global allocator wraps
//! `System`; this binary holds a single test, so nothing else
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bench::{compile_core, executing_workload, loaded_sim, symbols_for, CompiledCore};
use hgdb::{CheckpointConfig, RunOutcome, Runtime};
use rtl_sim::Simulator;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by one `continue` of `cycles` cycles, which must
/// end without a stop.
fn continue_allocs(rt: &mut Runtime<Simulator>, cycles: u64) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    let outcome = rt.continue_run(Some(cycles)).unwrap();
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert!(
        matches!(outcome, RunOutcome::Finished { .. }),
        "nothing may fire: {outcome:?}"
    );
    allocs
}

/// The rv32 core running a long workload, armed so that nothing fires.
fn armed_runtime(core: &CompiledCore) -> Runtime<Simulator> {
    let sim = loaded_sim(core, &executing_workload());
    let mut rt = Runtime::attach(sim, symbols_for(core)).unwrap();
    // Auto-checkpoints allocate snapshots on their own cadence; they
    // are not part of the per-cycle path.
    rt.set_checkpoint_config(CheckpointConfig {
        interval: 0,
        ..CheckpointConfig::default()
    });
    // `pc` is word-aligned, so this condition never holds, but every
    // statement's enable and the condition are evaluated each cycle.
    for bp in rt.symbols().all_breakpoints().unwrap() {
        rt.insert_breakpoint(&bp.filename, bp.line, Some(bp.col), Some("pc == 2"))
            .unwrap();
    }
    // The workload runs for millions of cycles, so `halted` stays 0.
    rt.insert_watchpoint(Some("cpu"), "halted").unwrap();
    rt
}

/// Allocations made by a `reverse_continue` whose one window, from a
/// checkpoint `cycles` back, holds no stop.
fn reverse_allocs(core: &CompiledCore, cycles: u64) -> u64 {
    let mut rt = armed_runtime(core);
    rt.checkpoint_now().unwrap();
    continue_allocs(&mut rt, cycles);
    let before = ALLOCS.load(Ordering::SeqCst);
    let outcome = rt.reverse_continue().unwrap();
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        outcome,
        RunOutcome::Finished { time: 0 },
        "nothing may fire"
    );
    allocs
}

#[test]
fn armed_continue_allocates_nothing_per_cycle() {
    let core = compile_core(true);
    let mut rt = armed_runtime(&core);
    continue_allocs(&mut rt, 64);
    let short = continue_allocs(&mut rt, 100);
    let long = continue_allocs(&mut rt, 1_100);
    assert_eq!(
        long,
        short,
        "1000 more cycles allocated {} more times",
        long.saturating_sub(short)
    );
    let short = reverse_allocs(&core, 100);
    let long = reverse_allocs(&core, 1_100);
    assert_eq!(
        long,
        short,
        "a reverse scan of 1000 more cycles allocated {} more times",
        long.saturating_sub(short)
    );
}
