//! Raw simulation throughput (cycles/second), the number every other
//! measurement in this repo sits on top of: breakpoint emulation via
//! clock-edge callbacks (§3) is only viable when the per-cycle
//! simulation cost is near-zero, so the combinational sweep itself must
//! be fast.
//!
//! Two designs bracket the value-representation regimes:
//!
//! * `rv32_core` — the RocketChip stand-in; nearly all signals are
//!   ≤64 bits (the inline `Bits` representation, zero-allocation path).
//!   It runs [`bench::executing_workload`], which is still executing
//!   at the end of every batch (a halted core would clock idle);
//! * `wide_datapath` — 192-bit pipeline registers (multi-word heap
//!   `Bits`), stressing word-level slice/concat/xor.
//!
//! Baselines live in `BENCH_sim_throughput.json` at the repo root; the
//! `sim_throughput` binary reproduces them (it prints the JSON).

use bench::{compile_core, executing_workload, loaded_sim, loaded_wide_sim, measure_throughput};
use bits::Bits;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rtl_sim::SimControl;

const CYCLES: u64 = 2000;

fn sim_throughput(c: &mut Criterion) {
    let core = compile_core(false);
    let workload = executing_workload();

    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("rv32_core", |b| {
        b.iter_batched(
            || loaded_sim(&core, &workload),
            |mut sim| {
                for _ in 0..CYCLES {
                    sim.step_clock();
                }
            },
            BatchSize::PerIteration,
        )
    });

    group.bench_function("wide_datapath", |b| {
        b.iter_batched(
            || loaded_wide_sim(8),
            |mut sim| {
                for _ in 0..CYCLES {
                    sim.step_clock();
                }
            },
            BatchSize::PerIteration,
        )
    });

    // Interactive poke+peek latency on a data input with a real
    // combinational fan-out cone (the wide design's `x` feeds every
    // stage's rotate/mix): with the incremental dirty set each poke
    // re-evaluates only that cone, so this stays flat as designs grow.
    group.bench_function("poke_peek_latency", |b| {
        b.iter_batched(
            || loaded_wide_sim(8),
            |mut sim| {
                let x = sim.signal_id("wide.x").expect("x input");
                let y = sim.signal_id("wide.y").expect("y output");
                for i in 0..CYCLES {
                    sim.poke_id(x, Bits::from_u64(i, 192)).unwrap();
                    let _ = sim.peek_id(y);
                }
            },
            BatchSize::PerIteration,
        )
    });

    group.finish();

    // Print absolute cycles/sec alongside criterion's relative timings
    // so CI logs double as a coarse throughput record.
    let mut sim = loaded_sim(&core, &workload);
    let cps = measure_throughput(&mut sim, 20_000);
    println!("rv32_core absolute throughput: {cps:.0} cycles/sec");
}

criterion_group!(benches, sim_throughput);
criterion_main!(benches);
