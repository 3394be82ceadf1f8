//! Shared harness for the paper's experiments.
//!
//! Figure 5 measures RocketChip benchmark simulation time under four
//! configurations; this module provides the four equivalents over the
//! `rv32` core:
//!
//! * **baseline** — optimized compile, plain simulation;
//! * **baseline + hgdb** — optimized compile, hgdb runtime attached
//!   (empty scheduler checked every clock edge — the paper's <5%
//!   claim);
//! * **debug** — debug-mode compile (`DontTouch` keeps every annotated
//!   signal, like `-O0`), plain simulation;
//! * **debug + hgdb** — debug compile with the runtime attached.

use bits::Bits;
use hgf::CircuitBuilder;
use hgf_ir::passes::DebugTable;
use hgf_ir::{Circuit, CircuitState};
use rtl_sim::{SimConfig, SimControl, Simulator};
use rv32::{build_core, build_dual_core, CoreConfig, Program};
use symtab::SymbolTable;

/// The four Figure 5 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigConfig {
    /// Optimized build, no debugger.
    Baseline,
    /// Optimized build with hgdb attached (no breakpoints).
    BaselineHgdb,
    /// Debug build (unoptimized), no debugger.
    Debug,
    /// Debug build with hgdb attached.
    DebugHgdb,
}

impl FigConfig {
    /// All four, in the paper's legend order.
    pub fn all() -> [FigConfig; 4] {
        [
            FigConfig::Baseline,
            FigConfig::BaselineHgdb,
            FigConfig::Debug,
            FigConfig::DebugHgdb,
        ]
    }

    /// Whether this configuration compiles in debug mode.
    pub fn debug_build(self) -> bool {
        matches!(self, FigConfig::Debug | FigConfig::DebugHgdb)
    }

    /// Whether the hgdb runtime is attached.
    pub fn hgdb_attached(self) -> bool {
        matches!(self, FigConfig::BaselineHgdb | FigConfig::DebugHgdb)
    }

    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            FigConfig::Baseline => "Baseline",
            FigConfig::BaselineHgdb => "Baseline + hgdb",
            FigConfig::Debug => "Debug",
            FigConfig::DebugHgdb => "Debug + hgdb",
        }
    }
}

/// A compiled core design ready for simulation.
pub struct CompiledCore {
    /// Lowered circuit.
    pub circuit: Circuit,
    /// Collected debug table.
    pub debug_table: DebugTable,
    /// Top module name.
    pub top: String,
}

/// Compiles the single-core design (optionally in debug mode).
pub fn compile_core(debug_mode: bool) -> CompiledCore {
    let cfg = CoreConfig {
        imem_words: 4096,
        dmem_words: 4096,
    };
    let mut cb = CircuitBuilder::new();
    build_core(&mut cb, "cpu", cfg);
    let circuit = cb.finish("cpu").expect("core elaborates");
    let mut state = CircuitState::new(circuit);
    let debug_table = hgf_ir::passes::compile(&mut state, debug_mode).expect("core compiles");
    CompiledCore {
        circuit: state.circuit,
        debug_table,
        top: "cpu".into(),
    }
}

/// Compiles the dual-core design for `mt-*` workloads.
pub fn compile_dual(debug_mode: bool) -> CompiledCore {
    let cfg = CoreConfig {
        imem_words: 4096,
        dmem_words: 4096,
    };
    let mut cb = CircuitBuilder::new();
    build_dual_core(&mut cb, "soc", cfg);
    let circuit = cb.finish("soc").expect("soc elaborates");
    let mut state = CircuitState::new(circuit);
    let debug_table = hgf_ir::passes::compile(&mut state, debug_mode).expect("soc compiles");
    CompiledCore {
        circuit: state.circuit,
        debug_table,
        top: "soc".into(),
    }
}

/// Builds the symbol table for a compiled core.
pub fn symbols_for(core: &CompiledCore) -> SymbolTable {
    symtab::from_debug_table(&core.circuit, &core.debug_table).expect("symbol table builds")
}

/// Compiles a generator-style DSP design: a 64-tap unrolled FIR whose
/// per-iteration temporaries include zero-coefficient products
/// (constant-folded away), duplicated subexpressions (CSE'd) and
/// debug-only probes (dead-code-eliminated). This is the regime the
/// paper's §4.1 "~30% larger symbol table in debug mode" measurement
/// lives in: optimization erases debug visibility unless `DontTouch`
/// protects it.
pub fn compile_dsp(debug_mode: bool) -> CompiledCore {
    const TAPS: usize = 64;
    const COEFFS: [u64; 8] = [0, 1, 0, 3, 0, 2, 0, 5];
    let mut cb = CircuitBuilder::new();
    cb.module("fir", |m| {
        let x = m.input("x", 16);
        let y = m.output("y", 16);
        // Tap delay line.
        let mut delayed = x.clone();
        let mut taps = Vec::new();
        for t in 0..TAPS {
            let r = m.reg(format!("z{t}"), 16, Some(0));
            m.assign(&r, delayed.clone());
            taps.push(r.sig());
            delayed = r.sig();
        }
        // Unrolled multiply-accumulate; every iteration shares one
        // generator source line, and many temporaries do not survive
        // optimization.
        let mut acc = m.lit(0, 16);
        for (t, tap) in taps.iter().enumerate() {
            let coeff = COEFFS[t % COEFFS.len()];
            let prod = m.node(format!("prod_{t}"), tap * &m.lit(coeff, 16));
            // Debug probes nothing consumes: DCE removes them in
            // release; DontTouch keeps them in debug mode.
            let _probe = m.node(format!("probe_{t}"), tap ^ &m.lit(coeff, 16));
            let _parity = m.node(format!("parity_{t}"), prod.reduce_xor());
            // A duplicated expression CSE merges in release.
            let dup = m.node(format!("dup_{t}"), tap * &m.lit(coeff, 16));
            let _ = dup;
            acc = m.node(format!("acc_{t}"), acc + prod);
        }
        m.assign(&y, acc);
    });
    let circuit = cb.finish("fir").expect("fir elaborates");
    let mut state = CircuitState::new(circuit);
    let debug_table = hgf_ir::passes::compile(&mut state, debug_mode).expect("fir compiles");
    CompiledCore {
        circuit: state.circuit,
        debug_table,
        top: "fir".into(),
    }
}

/// Compiles a wide-datapath synthetic design: a pipeline of 192-bit
/// registers mixed through xor/add/mux stages with narrow control.
/// This is the multi-word (`Bits` heap representation) stress case for
/// the `sim_throughput` benchmark, complementing the rv32 core whose
/// signals are almost all ≤64 bits wide.
pub fn compile_wide(stages: usize) -> CompiledCore {
    const W: u32 = 192;
    let mut cb = CircuitBuilder::new();
    cb.module("wide", |m| {
        let x = m.input("x", W);
        let sel = m.input("sel", 1);
        let y = m.output("y", W);
        let parity = m.output("parity", 1);
        let mut cur = x.clone();
        for s in 0..stages {
            let r = m.reg(format!("st{s}"), W, Some(0));
            let rot = cur.slice(W - 2, 0).cat(&cur.bit(W - 1));
            let mixed = m.node(
                format!("mix{s}"),
                (&rot ^ &r.sig()) + m.lit(0x9e37_79b9_7f4a_7c15, W),
            );
            let next = sel.select(&mixed, &rot);
            m.assign(&r, next.clone());
            cur = next;
        }
        m.assign(&y, cur.clone());
        m.assign(&parity, cur.reduce_xor());
    });
    let circuit = cb.finish("wide").expect("wide elaborates");
    let mut state = CircuitState::new(circuit);
    let debug_table = hgf_ir::passes::compile(&mut state, false).expect("wide compiles");
    CompiledCore {
        circuit: state.circuit,
        debug_table,
        top: "wide".into(),
    }
}

/// Builds a ready-to-run wide-datapath simulator: `sel` asserted and a
/// nonzero seed on `x`, so every stage mixes each cycle. Shared by the
/// `sim_throughput` bench and binary so both measure the same design
/// under the same drive.
pub fn loaded_wide_sim(stages: usize) -> Simulator {
    let wide = compile_wide(stages);
    let mut sim = Simulator::new(&wide.circuit).expect("wide sim builds");
    sim.poke("wide.sel", Bits::from_bool(true)).expect("sel");
    sim.poke("wide.x", Bits::from_u64(0xDEAD_BEEF, 192))
        .expect("x");
    sim
}

/// Steps the simulator `cycles` clock edges and returns the measured
/// cycles/second — the raw simulation throughput number recorded in
/// `BENCH_sim_throughput.json`.
pub fn measure_throughput(sim: &mut Simulator, cycles: u64) -> f64 {
    measure_throughput_warmed(sim, 0, cycles)
}

/// [`measure_throughput`] with `warmup` untimed cycles first, so the
/// timed window starts with caches hot.
pub fn measure_throughput_warmed(sim: &mut Simulator, warmup: u64, cycles: u64) -> f64 {
    for _ in 0..warmup {
        sim.step_clock();
    }
    let start = std::time::Instant::now();
    for _ in 0..cycles {
        sim.step_clock();
    }
    let secs = start.elapsed().as_secs_f64();
    cycles as f64 / secs.max(1e-9)
}

/// [`measure_throughput_warmed`] with a checkpoint captured every
/// `every` cycles inside the timed window, reusing one snapshot buffer
/// across captures ([`Simulator::snapshot_into`]) exactly like the
/// runtime's checkpoint ring in steady state, which recycles evicted
/// snapshots as capture buffers — the checkpoint-overhead numbers
/// recorded in `BENCH_sim_throughput.json`.
///
/// Returns `(cycles_per_sec, overhead_fraction)` where the fraction is
/// the wall-clock share of the window spent capturing snapshots.
/// Measuring the captures directly inside one window — instead of
/// diffing two separately-timed runs — keeps the number meaningful on
/// hosts whose absolute throughput swings run-to-run (frequency
/// scaling, noisy CI neighbors): both numerator and denominator see
/// the same machine conditions.
pub fn measure_throughput_checkpointed(
    sim: &mut Simulator,
    warmup: u64,
    cycles: u64,
    every: u64,
) -> (f64, f64) {
    assert!(every > 0, "checkpoint interval must be positive");
    for _ in 0..warmup {
        sim.step_clock();
    }
    // Prime the reused capture buffer outside the timed window.
    let mut snap = sim.snapshot();
    let mut in_snapshots = std::time::Duration::ZERO;
    let start = std::time::Instant::now();
    for i in 0..cycles {
        sim.step_clock();
        if (i + 1) % every == 0 {
            let t = std::time::Instant::now();
            sim.snapshot_into(&mut snap);
            in_snapshots += t.elapsed();
        }
    }
    let secs = start.elapsed().as_secs_f64();
    drop(snap);
    let overhead = in_snapshots.as_secs_f64() / secs.max(1e-9);
    (cycles as f64 / secs.max(1e-9), overhead)
}

/// A workload that is still executing after millions of cycles, for
/// timing loops: `multiply`'s kernel with its loop bound raised from
/// 10 to 1000 (≈5M cycles). The suite's `multiply` halts at cycle 534,
/// and a halted core clocks idle ~20x faster than it executes, so a
/// loop that outlived it would time idle clocking.
///
/// # Panics
///
/// Panics if `multiply`'s loop bound moved and the raise no longer
/// applies.
pub fn executing_workload() -> Program {
    let multiply = rv32::programs::multiply();
    let source = multiply.source.replace("li t3, 10\n", "li t3, 1000\n");
    assert_ne!(
        source, multiply.source,
        "multiply's loop bound moved; update executing_workload"
    );
    Program {
        name: "multiply-1000",
        source,
        // (1 + ... + 1000)^2 mod 2^32.
        expected: 1_392_146_832,
        dual_core: false,
    }
}

/// Creates a simulator with `program` loaded (and the second-half
/// program on core1 for dual-core designs).
pub fn loaded_sim(core: &CompiledCore, workload: &Program) -> Simulator {
    loaded_sim_with(core, workload, SimConfig::default())
}

/// [`loaded_sim`] with an explicit engine configuration.
pub fn loaded_sim_with(core: &CompiledCore, workload: &Program, config: SimConfig) -> Simulator {
    let mut sim = Simulator::with_config(&core.circuit, config).expect("sim builds");
    if workload.dual_core {
        let (src0, src1) = dual_sources(workload);
        let p0 = rv32::asm::assemble(&src0).expect("assembles");
        let p1 = rv32::asm::assemble(&src1).expect("assembles");
        for (i, w) in p0.iter().enumerate() {
            sim.poke_mem(
                &format!("{}.core0.imem", core.top),
                i,
                Bits::from_u64(*w as u64, 32),
            )
            .expect("imem");
        }
        for (i, w) in p1.iter().enumerate() {
            sim.poke_mem(
                &format!("{}.core1.imem", core.top),
                i,
                Bits::from_u64(*w as u64, 32),
            )
            .expect("imem");
        }
    } else {
        let program = rv32::asm::assemble(&workload.source).expect("assembles");
        for (i, w) in program.iter().enumerate() {
            sim.poke_mem(
                &format!("{}.imem", core.top),
                i,
                Bits::from_u64(*w as u64, 32),
            )
            .expect("imem");
        }
    }
    sim
}

/// The two per-core halves of a dual-core workload.
///
/// # Panics
///
/// Panics if the workload is not dual-core.
pub fn dual_sources(workload: &Program) -> (String, String) {
    use rv32::programs::{matmul_source, vvadd_source};
    match workload.name {
        "mt-matmul" => (matmul_source(0, 3, 6), matmul_source(3, 6, 6)),
        "mt-vvadd" => (vvadd_source(0, 32), vvadd_source(32, 64)),
        other => panic!("{other} is not a dual-core workload"),
    }
}

/// Runs a loaded simulator to halt without hgdb; returns cycles. The
/// halt probe is interned once — the loop itself is string-free.
pub fn run_plain(sim: &mut Simulator, top: &str, max_cycles: u64) -> u64 {
    let halted = sim
        .signal_id(&format!("{top}.halted"))
        .expect("halted port");
    let mut cycles = 0;
    while cycles < max_cycles {
        sim.step_clock();
        cycles += 1;
        if sim.peek_id(halted).is_truthy() {
            break;
        }
    }
    cycles
}

/// Attaches the hgdb runtime to a loaded simulator (the one-time cost:
/// scheduler precomputation and enable-condition parsing, §3.2).
pub fn attach_runtime(sim: Simulator, symbols: SymbolTable) -> hgdb::Runtime<Simulator> {
    hgdb::Runtime::attach(sim, symbols).expect("attach")
}

/// Runs an attached runtime to halt (no breakpoints inserted: the
/// Figure 2 fast path executes each edge). This is the steady-state
/// loop Figure 5 times.
pub fn run_attached(runtime: &mut hgdb::Runtime<Simulator>, top: &str, max_cycles: u64) -> u64 {
    let halted = runtime
        .sim()
        .signal_id(&format!("{top}.halted"))
        .expect("halted port");
    let mut cycles = 0;
    while cycles < max_cycles {
        // continue_run with no breakpoints advances one bounded hop;
        // bound 1 gives us the per-cycle halt check the plain loop has.
        match runtime.continue_run(Some(1)).expect("run") {
            hgdb::RunOutcome::Finished { .. } => {}
            hgdb::RunOutcome::Stopped(_) => unreachable!("no breakpoints inserted"),
        }
        cycles += 1;
        if runtime.sim().peek_id(halted).is_truthy() {
            break;
        }
    }
    cycles
}

/// Runs a loaded simulator to halt with the hgdb runtime attached;
/// attach cost included (convenience for correctness tests — the
/// timing harnesses separate attach from the steady-state run).
pub fn run_with_hgdb(
    sim: Simulator,
    symbols: SymbolTable,
    top: &str,
    max_cycles: u64,
) -> (u64, Simulator) {
    let mut runtime = attach_runtime(sim, symbols);
    let cycles = run_attached(&mut runtime, top, max_cycles);
    (cycles, runtime.detach())
}

/// One Figure 5 measurement: runs `workload` under `config`, returning
/// the cycle count (used by the table binary; the criterion bench
/// times the same closure).
pub fn run_workload(config: FigConfig, workload: &Program, max_cycles: u64) -> u64 {
    let core = if workload.dual_core {
        compile_dual(config.debug_build())
    } else {
        compile_core(config.debug_build())
    };
    let mut sim = loaded_sim(&core, workload);
    if config.hgdb_attached() {
        let symbols = symbols_for(&core);
        let (cycles, _) = run_with_hgdb(sim, symbols, &core.top, max_cycles);
        cycles
    } else {
        run_plain(&mut sim, &core.top, max_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_configs_complete_a_workload() {
        let workload = rv32::programs::multiply();
        let mut cycles = Vec::new();
        for config in FigConfig::all() {
            let c = run_workload(config, &workload, 1_000_000);
            assert!(c > 100, "{}: only {c} cycles", config.label());
            assert!(c < 1_000_000, "{}: did not halt", config.label());
            cycles.push(c);
        }
        // The functional result is identical regardless of config:
        // same cycle count everywhere (hgdb must not perturb timing).
        assert!(
            cycles.windows(2).all(|w| w[0] == w[1]),
            "cycle counts diverged: {cycles:?}"
        );
    }

    #[test]
    fn debug_mode_grows_the_symbol_table() {
        let release = compile_core(false);
        let debug = compile_core(true);
        let release_st = symbols_for(&release);
        let debug_st = symbols_for(&debug);
        assert!(
            debug_st.size_in_bytes() > release_st.size_in_bytes(),
            "debug {} <= release {}",
            debug_st.size_in_bytes(),
            release_st.size_in_bytes()
        );
    }

    /// `loaded_sim_with` passes the configuration through, and no
    /// engine code reads `SimConfig::workers`: the multiply workload
    /// halts on the same cycle with the same tohost under 1 and 4.
    #[test]
    fn parallel_workers_reproduce_sequential_tohost() {
        let core = compile_core(false);
        let workload = rv32::programs::multiply();
        let mut results = Vec::new();
        for workers in [1, 4] {
            let cfg = SimConfig {
                workers,
                ..SimConfig::default()
            };
            let mut sim = loaded_sim_with(&core, &workload, cfg);
            let cycles = run_plain(&mut sim, &core.top, 200_000);
            let tohost = sim.peek("cpu.tohost").expect("tohost").to_u64() as u32;
            results.push((cycles, tohost));
        }
        assert_eq!(results[0], results[1], "worker count changed the run");
        assert_eq!(results[0].1, workload.expected);
    }

    #[test]
    fn dual_core_workload_runs() {
        let workload = rv32::programs::mt_vvadd();
        let c = run_workload(FigConfig::Baseline, &workload, 1_000_000);
        assert!(c > 100 && c < 1_000_000);
    }
}
