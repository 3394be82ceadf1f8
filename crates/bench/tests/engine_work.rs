//! The simulator's work and end state, pinned to figures recorded
//! before its values moved into a flat word store. A change meant only
//! to make the simulator faster must leave every simulated statistic
//! identical: the number of definitions the sweep evaluates and every
//! signal and memory word at the end of a run. Both repeat exactly on
//! any host, so this check holds where a wall-clock gate cannot.
//!
//! Each run resets the design for two cycles, then runs
//! [`executing_workload`] on the rv32 debug and release builds for a
//! fixed number of cycles, or `mt-matmul` on the dual core to its
//! ECALL, in the two-state and the four-state engine.

use bench::{compile_core, compile_dual, executing_workload, loaded_sim_with, run_plain};
use rtl_sim::{SimConfig, Simulator};

/// Cycles each single-core run executes after reset.
const CYCLES: u64 = 3_000;

/// 64-bit FNV-1a over every signal, in declaration order, and every
/// word of `mems`, each as its value words then its unknown words.
fn digest(sim: &Simulator, mems: &[String]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |value: &bits::Bits4| {
        for &word in value.value().words().iter().chain(value.unknown().words()) {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    };
    for path in sim.signal_names() {
        eat(&sim.peek4(path).unwrap());
    }
    for mem in mems {
        let mut addr = 0;
        while let Some(word) = sim.peek_mem4(mem, addr) {
            eat(&word);
            addr += 1;
        }
    }
    hash
}

/// `(run, defs evaluated, digest)` for one run.
fn run(name: &'static str, dual: bool, debug: bool, four_state: bool) -> (&'static str, u64, u64) {
    let (core, workload) = if dual {
        (compile_dual(debug), rv32::programs::mt_matmul())
    } else {
        (compile_core(debug), executing_workload())
    };
    let config = if four_state {
        SimConfig::default().four_state()
    } else {
        SimConfig::default()
    };
    let mut sim = loaded_sim_with(&core, &workload, config);
    sim.reset(2);
    let prefixes: &[&str] = if dual {
        &["soc.core0", "soc.core1"]
    } else {
        &["cpu"]
    };
    if dual {
        let cycles = run_plain(&mut sim, &core.top, 1_000_000);
        assert!(
            cycles < 1_000_000,
            "{name}: mt-matmul did not reach its ECALL"
        );
    } else {
        sim.run(CYCLES);
    }
    let mems: Vec<String> = prefixes
        .iter()
        .flat_map(|p| ["rf", "dmem", "imem"].map(|m| format!("{p}.{m}")))
        .collect();
    (name, sim.defs_evaluated(), digest(&sim, &mems))
}

#[test]
fn defs_evaluated_and_end_state_match_the_recorded_runs() {
    let got = [
        run("rv32 debug, two-state", false, true, false),
        run("rv32 debug, four-state", false, true, true),
        run("rv32 release, two-state", false, false, false),
        run("rv32 release, four-state", false, false, true),
        run("dual mt-matmul, two-state", true, false, false),
        run("dual mt-matmul, four-state", true, false, true),
    ];
    // Recorded with the `Bits`-per-value engine this store replaced.
    let expected = [
        ("rv32 debug, two-state", 118_190, 0xd546_adf3_817d_4fa5),
        ("rv32 debug, four-state", 118_242, 0xd546_adf3_817d_4fa5),
        ("rv32 release, two-state", 109_187, 0xbd68_61de_f53b_923a),
        ("rv32 release, four-state", 109_233, 0xbd68_61de_f53b_923a),
        ("dual mt-matmul, two-state", 183_636, 0x0e47_97d5_1f29_7eb2),
        ("dual mt-matmul, four-state", 183_734, 0x0e47_97d5_1f29_7eb2),
    ];
    assert_eq!(got, expected);
}
