//! Capturing a checkpoint into a reused buffer and restoring one
//! allocate nothing: both are a copy of the simulator's word store. A
//! counting global allocator wraps `System`; this binary holds a single
//! test, so nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bench::{compile_core, executing_workload, loaded_sim_with};
use rtl_sim::{SimConfig, SimControl};

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

/// Allocations made by `f`.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn snapshot_into_and_restore_allocate_nothing() {
    let core = compile_core(true);
    for config in [SimConfig::default(), SimConfig::default().four_state()] {
        let mode = if config.four_state { "four" } else { "two" };
        let mut sim = loaded_sim_with(&core, &executing_workload(), config);
        sim.reset(2);
        sim.run(100);
        let mut snap = sim.snapshot();
        sim.run(100);
        let captured = allocs(|| sim.snapshot_into(&mut snap));
        assert_eq!(captured, 0, "{mode}-state snapshot_into allocated");
        assert_eq!(snap.time(), sim.time());
        let pc = sim.peek("cpu.pc_out").unwrap();
        sim.run(100);
        let restored = allocs(|| sim.restore(&snap).unwrap());
        assert_eq!(restored, 0, "{mode}-state restore allocated");
        assert_eq!(sim.time(), snap.time(), "{mode}-state restore rewound");
        assert_eq!(sim.peek("cpu.pc_out").unwrap(), pc);
    }
}
