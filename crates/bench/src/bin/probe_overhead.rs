//! Diagnostic: per-cycle cost of plain stepping vs runtime-driven
//! stepping (not part of the experiment suite), on a core that is
//! still executing at the end of every timed loop.
use bench::{compile_core, executing_workload, loaded_sim, symbols_for};
use rtl_sim::SimControl;
use std::time::Instant;

fn main() {
    let core = compile_core(false);
    let workload = executing_workload();
    const N: u64 = 20_000;

    for _ in 0..2 {
        let mut sim = loaded_sim(&core, &workload);
        let t = Instant::now();
        for _ in 0..N {
            sim.step_clock();
        }
        let plain = t.elapsed().as_secs_f64() / N as f64;

        let sim = loaded_sim(&core, &workload);
        let mut rt = hgdb::Runtime::attach(sim, symbols_for(&core)).unwrap();
        let t = Instant::now();
        for _ in 0..N {
            let _ = rt.continue_run(Some(1)).unwrap();
        }
        let hg = t.elapsed().as_secs_f64() / N as f64;

        let sim = loaded_sim(&core, &workload);
        let mut rt2 = hgdb::Runtime::attach(sim, symbols_for(&core)).unwrap();
        let t = Instant::now();
        let _ = rt2.continue_run(Some(N)).unwrap();
        let hg_bulk = t.elapsed().as_secs_f64() / N as f64;

        println!("plain {:.0} ns/cycle | hgdb-per1 {:.0} ns/cycle ({:+.1}%) | hgdb-bulk {:.0} ns/cycle ({:+.1}%)",
            plain*1e9, hg*1e9, (hg/plain-1.0)*100.0, hg_bulk*1e9, (hg_bulk/plain-1.0)*100.0);
    }
}
