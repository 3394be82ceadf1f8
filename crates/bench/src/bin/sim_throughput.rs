//! Absolute simulation throughput in cycles/second, as JSON.
//!
//! Produces the numbers recorded in `BENCH_sim_throughput.json` at the
//! repo root. Run with `--smoke` for the CI gate: a short timed run
//! that fails (panics) if the simulator produces wrong results or
//! regresses to pathological slowness, without asserting exact timing.
//!
//! ```text
//! cargo run --release -p bench --bin sim_throughput                  # full JSON
//! cargo run --release -p bench --bin sim_throughput -- --smoke       # CI gate
//! ```
//!
//! Flags:
//!
//! * `--cycles N` / `--warmup N` — timed-window and untimed-lead-in
//!   lengths (defaults: 50 000 / 5 000; smoke: 5 000 / 500).
//! * `--checkpoint-every N` — additionally measure rv32 with a
//!   snapshot captured every N cycles (the runtime's auto-checkpoint
//!   cadence) and report the fraction of wall-clock spent inside the
//!   captures. Under `--smoke` that fraction is gated at <10%.
//! * `--gate <path>` — regression gate against a recorded baseline
//!   (`BENCH_sim_throughput.json`): measure the two-state `rv32_core`
//!   row over the window recorded with it (its `cycles` and `warmup`)
//!   and fail if it lands below 95% of the recorded `current` number,
//!   or if its timed window evaluates a different number of
//!   definitions per cycle than recorded. The count repeats exactly
//!   on any host, so it catches a change in the engine's work even
//!   where the host's speed hides it in the wall clock.
//!
//! The `rv32_core` rows time a program that is still executing: the
//! suite's `multiply` kernel with its loop bound raised, checked not to
//! halt inside the window. A halted core clocks idle ~20x faster than
//! it executes, so a row that outlived its program would measure
//! nothing the debugger's users run.

use bench::{
    compile_core, executing_workload, loaded_sim, loaded_wide_sim, measure_throughput_checkpointed,
    measure_throughput_warmed, run_plain,
};
use rtl_sim::Simulator;

struct Row {
    design: &'static str,
    cycles: u64,
    warmup: u64,
    cycles_per_sec: f64,
    /// Combinational definitions evaluated per cycle of the timed
    /// window.
    defs_per_cycle: f64,
    /// Snapshot cadence inside the timed window; 0 = no checkpointing.
    checkpoint_every: u64,
}

/// Runs `warmup` untimed cycles, then `time` over a window of
/// `cycles` cycles; returns what `time` measured and the definitions
/// evaluated per window cycle.
fn measure<T>(
    sim: &mut Simulator,
    warmup: u64,
    cycles: u64,
    time: impl FnOnce(&mut Simulator, u64) -> T,
) -> (T, f64) {
    sim.run(warmup);
    let defs = sim.defs_evaluated();
    let timed = time(sim, cycles);
    let defs_per_cycle = (sim.defs_evaluated() - defs) as f64 / cycles as f64;
    (timed, defs_per_cycle)
}

/// Loads [`executing_workload`] on the release-mode core.
fn executing_sim() -> (Simulator, String) {
    let core = compile_core(false);
    let sim = loaded_sim(&core, &executing_workload());
    (sim, format!("{}.halted", core.top))
}

/// Fails the measurement if the core halted inside the window: the
/// row would then time idle clocking, not execution.
fn assert_executing(sim: &Simulator, halted: &str) {
    let halted = sim.peek(halted).expect("halted port");
    assert!(
        !halted.is_truthy(),
        "the timed rv32 workload halted inside the window"
    );
}

fn measure_rv32(cycles: u64, warmup: u64) -> Row {
    let (mut sim, halted) = executing_sim();
    let (cps, defs_per_cycle) = measure(&mut sim, warmup, cycles, |sim, n| {
        measure_throughput_warmed(sim, 0, n)
    });
    assert_executing(&sim, &halted);
    Row {
        design: "rv32_core",
        cycles,
        warmup,
        cycles_per_sec: cps,
        defs_per_cycle,
        checkpoint_every: 0,
    }
}

/// Measures rv32 with a snapshot every `every` cycles; the second
/// return value is the fraction of the timed window spent inside the
/// captures (measured directly, so it stays meaningful on hosts whose
/// absolute throughput drifts between runs).
fn measure_rv32_checkpointed(cycles: u64, warmup: u64, every: u64) -> (Row, f64) {
    let (mut sim, halted) = executing_sim();
    let ((cps, overhead), defs_per_cycle) = measure(&mut sim, warmup, cycles, |sim, n| {
        measure_throughput_checkpointed(sim, 0, n, every)
    });
    assert_executing(&sim, &halted);
    let row = Row {
        design: "rv32_core",
        cycles,
        warmup,
        cycles_per_sec: cps,
        defs_per_cycle,
        checkpoint_every: every,
    };
    (row, overhead)
}

fn measure_wide(cycles: u64, warmup: u64) -> Row {
    let mut sim = loaded_wide_sim(8);
    let (cps, defs_per_cycle) = measure(&mut sim, warmup, cycles, |sim, n| {
        measure_throughput_warmed(sim, 0, n)
    });
    Row {
        design: "wide_datapath",
        cycles,
        warmup,
        cycles_per_sec: cps,
        defs_per_cycle,
        checkpoint_every: 0,
    }
}

/// Functional check: the multiply workload must still reach its
/// expected `tohost` under the compiled engine. Guards the CI smoke
/// run against a fast-but-wrong simulator.
fn check_correctness() {
    let core = compile_core(false);
    let workload = rv32::programs::multiply();
    let mut sim = loaded_sim(&core, &workload);
    let cycles = run_plain(&mut sim, &core.top, 200_000);
    assert!(cycles < 200_000, "multiply workload did not halt");
    let tohost = sim.peek("cpu.tohost").expect("tohost").to_u64() as u32;
    assert_eq!(
        tohost, workload.expected,
        "wrong tohost under throughput run"
    );
}

/// Gate mode: measure the two-state `rv32_core` row over the window
/// recorded beside it in `path` and compare against the recorded
/// baseline. Fails (panics) below 95% of baseline, or when a run's
/// timed window evaluates another number of definitions than the
/// recorded `defs_per_cycle`; the measurement takes the median of
/// three runs to damp runner noise. The count holds only for the
/// recorded window, so a `--cycles` or `--warmup` that differs from it
/// is refused.
fn run_gate(path: &str, cycles_arg: Option<u64>, warmup_arg: Option<u64>) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--gate: cannot read {path}: {e}"));
    let json =
        microjson::parse(&text).unwrap_or_else(|e| panic!("--gate: bad JSON in {path}: {e:?}"));
    let row = json["current"]["rows"]
        .as_array()
        .unwrap_or_else(|| panic!("--gate: {path} has no current.rows"))
        .iter()
        .find(|r| r["design"].as_str() == Some("rv32_core"))
        .unwrap_or_else(|| panic!("--gate: no rv32_core row in {path}"));
    let field = |name: &str| {
        row[name]
            .as_f64()
            .unwrap_or_else(|| panic!("--gate: the rv32_core row in {path} has no {name}"))
    };
    let (baseline, recorded_defs) = (field("cycles_per_sec"), field("defs_per_cycle"));
    let window = |name: &str, arg: Option<u64>| {
        let recorded = field(name) as u64;
        if let Some(asked) = arg {
            assert!(
                asked == recorded,
                "--gate: the defs_per_cycle in {path} was recorded with --{name} {recorded}, \
                 so the gate runs that window; drop --{name} {asked}"
            );
        }
        recorded
    };
    let (cycles, warmup) = (window("cycles", cycles_arg), window("warmup", warmup_arg));

    let rows: Vec<Row> = (0..3).map(|_| measure_rv32(cycles, warmup)).collect();
    // Compared as whole counts over the window, so a decimal
    // rendering of the per-cycle figure cannot blur the check.
    let expected_defs = (recorded_defs * cycles as f64).round();
    for r in &rows {
        let defs = (r.defs_per_cycle * cycles as f64).round();
        assert_eq!(
            defs, expected_defs,
            "rv32_core evaluated {defs} definitions in its {cycles}-cycle window, \
             the recorded {recorded_defs} per cycle make {expected_defs}"
        );
    }
    let mut runs: Vec<f64> = rows.iter().map(|r| r.cycles_per_sec).collect();
    runs.sort_by(|a, b| a.partial_cmp(b).expect("finite throughput"));
    let measured = runs[1];
    let floor = baseline * 0.95;
    println!(
        "{{\"gate\": \"sim_throughput\", \"design\": \"rv32_core\", \
         \"cycles\": {cycles}, \"warmup\": {warmup}, \"baseline\": {baseline:.0}, \
         \"runs\": [{:.0}, {:.0}, {:.0}], \"measured\": {measured:.0}, \"floor\": {floor:.0}, \
         \"defs_per_cycle\": {recorded_defs}}}",
        runs[0], runs[1], runs[2]
    );
    assert!(
        measured >= floor,
        "two-state rv32_core throughput regressed: {measured:.0} cycles/sec is below \
         95% of the recorded baseline {baseline:.0} (floor {floor:.0})"
    );
    eprintln!("gate ok: {measured:.0} >= {floor:.0} cycles/sec");
}

type Args = (bool, Option<u64>, Option<u64>, Option<u64>, Option<String>);

fn parse_args() -> Args {
    let mut smoke = false;
    let mut cycles = None;
    let mut warmup = None;
    let mut checkpoint_every = None;
    let mut gate = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut text = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        let mut value = |name: &str| {
            text(name)
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{name} requires an integer"))
        };
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--cycles" => cycles = Some(value("--cycles")),
            "--warmup" => warmup = Some(value("--warmup")),
            "--checkpoint-every" => {
                let every = value("--checkpoint-every");
                assert!(every > 0, "--checkpoint-every requires a positive interval");
                checkpoint_every = Some(every);
            }
            "--gate" => gate = Some(text("--gate")),
            other => panic!("unknown flag {other}"),
        }
    }
    (smoke, cycles, warmup, checkpoint_every, gate)
}

fn main() {
    let (smoke, cycles_arg, warmup_arg, checkpoint_every, gate) = parse_args();

    if let Some(path) = gate {
        run_gate(&path, cycles_arg, warmup_arg);
        return;
    }

    let cycles = cycles_arg.unwrap_or(if smoke { 5_000 } else { 50_000 });
    let warmup = warmup_arg.unwrap_or(cycles / 10);

    check_correctness();
    let mut rows = vec![measure_rv32(cycles, warmup), measure_wide(cycles, warmup)];
    // Checkpoint overhead as the fraction of the timed window spent
    // inside snapshot captures (0.05 = 5% of wall-clock on snapshots).
    // The window is stretched to cover at least 16 captures so the
    // fraction averages out single-capture jitter — with only a couple
    // of captures, one slow one (scheduler preemption, allocator slow
    // path) would swing the number past any sensible gate.
    let overhead = checkpoint_every.map(|every| {
        let ckpt_cycles = cycles.max(every.saturating_mul(16));
        let (row, frac) = measure_rv32_checkpointed(ckpt_cycles, warmup, every);
        rows.push(row);
        (every, frac)
    });

    println!("{{");
    println!("  \"bench\": \"sim_throughput\",");
    println!("  \"methodology\": \"{warmup} warmup cycles then {cycles} timed cycles per row\",");
    println!("  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!(
            "    {{\"design\": \"{}\", \"cycles\": {}, \"warmup\": {}, \"checkpoint_every\": {}, \"cycles_per_sec\": {:.0}, \"defs_per_cycle\": {}}}{}",
            r.design, r.cycles, r.warmup, r.checkpoint_every, r.cycles_per_sec, r.defs_per_cycle, comma
        );
    }
    println!("  ]{}", if overhead.is_some() { "," } else { "" });
    if let Some((every, frac)) = overhead {
        println!("  \"checkpoint_overhead\": {{\"interval\": {every}, \"fraction\": {frac:.4}}}");
    }
    println!("}}");

    if smoke {
        // Thresholds sit well below the compiled engine's measured
        // numbers (≈0.3M cycles/sec executing rv32, ≈400k wide; see
        // BENCH_sim_throughput.json), with slack for slow CI runners,
        // and far above what a tree-walking interpreter sustains: the
        // one the compiled engine replaced clocked a *halted* core at
        // 183k, some 34x under the compiled engine's idle rate, so a
        // regression to interpreter-class speed fails.
        let floor = [("rv32_core", 50_000.0), ("wide_datapath", 100_000.0)];
        for (design, min) in floor {
            let r = rows
                .iter()
                .find(|r| r.design == design && r.checkpoint_every == 0)
                .expect("row present");
            assert!(
                r.cycles_per_sec > min,
                "{}: throughput {:.0} cycles/sec below smoke floor {:.0}",
                r.design,
                r.cycles_per_sec,
                min
            );
        }

        // Checkpoint-overhead gate: auto-checkpointing at the
        // requested cadence must cost <10% rv32 throughput. Each
        // snapshot deep-copies all signal values and memories, so the
        // cadence is the knob: the runtime default (2048, one per
        // execution slice) measures a few percent here, and CI runs
        // this gate at that cadence. Regressions that make capture
        // non-amortized (per-cycle allocation, cloning static tables)
        // overshoot 10% by an order of magnitude.
        if let Some((every, frac)) = overhead {
            assert!(
                frac < 0.10,
                "checkpointing spends {:.1}% of wall-clock at interval {}, exceeding the 10% gate",
                frac * 100.0,
                every
            );
        }
        eprintln!("smoke ok");
    }
}
