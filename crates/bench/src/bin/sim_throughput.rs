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
//! cargo run --release -p bench --bin sim_throughput -- --threads 4   # one worker count
//! cargo run --release -p bench --bin sim_throughput -- --verify      # functional digest
//! ```
//!
//! Flags:
//!
//! * `--threads N` — measure under `SimConfig::with_workers(N)` (plus a
//!   sequential baseline row when `N > 1`). Without it, the full run
//!   sweeps workers 1, 2 and 4.
//! * `--cycles N` / `--warmup N` — timed-window and untimed-lead-in
//!   lengths (defaults: 50 000 / 5 000; smoke: 5 000 / 500).
//! * `--checkpoint-every N` — additionally measure rv32 with a
//!   snapshot captured every N cycles (the runtime's auto-checkpoint
//!   cadence) and report the fraction of wall-clock spent inside the
//!   captures. Under `--smoke` that fraction is gated at <10%.
//! * `--verify` — no timing: print a deterministic functional digest
//!   (rv32 halt cycle + `tohost`, wide-datapath state after a fixed
//!   run). CI diffs this output across worker counts to prove the
//!   parallel engine is bit-identical to the sequential one.
//! * `--gate <path>` — regression gate against a recorded baseline
//!   (`BENCH_sim_throughput.json`): measure the sequential two-state
//!   `rv32_core` row and fail if it lands below 95% of the recorded
//!   `current` number. Guards the four-state engine work: the
//!   two-state fast path must stay within 5% of its baseline.
//!
//! The `rv32_core` rows time a program that is still executing: the
//! suite's `multiply` kernel with its loop bound raised, checked not to
//! halt inside the window. A halted core clocks idle ~20x faster than
//! it executes, so a row that outlived its program would measure
//! nothing the debugger's users run.

use bench::{
    compile_core, executing_workload, loaded_sim_with, loaded_wide_sim_with,
    measure_throughput_checkpointed, measure_throughput_warmed, run_plain,
};
use rtl_sim::{SimConfig, SimControl, Simulator};

struct Row {
    design: &'static str,
    workers: usize,
    cycles: u64,
    warmup: u64,
    cycles_per_sec: f64,
    /// Snapshot cadence inside the timed window; 0 = no checkpointing.
    checkpoint_every: u64,
}

/// Engine configuration for `workers`, with the parallel schedules
/// forced on (no sequential small-sweep shortcut) so every worker
/// count exercises its own code path.
fn config_for(workers: usize, force_parallel: bool) -> SimConfig {
    let mut cfg = SimConfig::with_workers(workers);
    if force_parallel {
        cfg.min_parallel_work = 1;
    }
    cfg
}

/// Loads [`executing_workload`] on the release-mode core.
fn executing_sim(workers: usize) -> (Simulator, String) {
    let core = compile_core(false);
    let sim = loaded_sim_with(&core, &executing_workload(), config_for(workers, false));
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

fn measure_rv32(workers: usize, cycles: u64, warmup: u64) -> Row {
    let (mut sim, halted) = executing_sim(workers);
    let cps = measure_throughput_warmed(&mut sim, warmup, cycles);
    assert_executing(&sim, &halted);
    Row {
        design: "rv32_core",
        workers,
        cycles,
        warmup,
        cycles_per_sec: cps,
        checkpoint_every: 0,
    }
}

/// Measures rv32 with a snapshot every `every` cycles; the second
/// return value is the fraction of the timed window spent inside the
/// captures (measured directly, so it stays meaningful on hosts whose
/// absolute throughput drifts between runs).
fn measure_rv32_checkpointed(workers: usize, cycles: u64, warmup: u64, every: u64) -> (Row, f64) {
    let (mut sim, halted) = executing_sim(workers);
    let (cps, overhead) = measure_throughput_checkpointed(&mut sim, warmup, cycles, every);
    assert_executing(&sim, &halted);
    let row = Row {
        design: "rv32_core",
        workers,
        cycles,
        warmup,
        cycles_per_sec: cps,
        checkpoint_every: every,
    };
    (row, overhead)
}

fn measure_wide(workers: usize, cycles: u64, warmup: u64) -> Row {
    let mut sim = loaded_wide_sim_with(8, config_for(workers, false));
    let cps = measure_throughput_warmed(&mut sim, warmup, cycles);
    Row {
        design: "wide_datapath",
        workers,
        cycles,
        warmup,
        cycles_per_sec: cps,
        checkpoint_every: 0,
    }
}

/// Functional check: the multiply workload must still reach its
/// expected `tohost` under the compiled engine. Guards the CI smoke
/// run against a fast-but-wrong simulator.
fn check_correctness(workers: usize) {
    let core = compile_core(false);
    let workload = rv32::programs::multiply();
    let mut sim = loaded_sim_with(&core, &workload, config_for(workers, true));
    let cycles = run_plain(&mut sim, &core.top, 200_000);
    assert!(cycles < 200_000, "multiply workload did not halt");
    let tohost = sim.peek("cpu.tohost").expect("tohost").to_u64() as u32;
    assert_eq!(
        tohost, workload.expected,
        "wrong tohost under throughput run"
    );
}

fn hex(bits: &bits::Bits) -> String {
    bits.words()
        .iter()
        .rev()
        .map(|w| format!("{w:016x}"))
        .collect()
}

/// Prints a timing-free functional digest. The output contains no
/// worker count and no wall-clock numbers, so two runs under different
/// `--threads` values must produce byte-identical text — that `diff`
/// is the CI determinism gate.
fn print_verify(workers: usize) {
    let core = compile_core(false);
    let workload = rv32::programs::multiply();
    let mut sim = loaded_sim_with(&core, &workload, config_for(workers, true));
    let halt_cycles = run_plain(&mut sim, &core.top, 200_000);
    let tohost = sim.peek("cpu.tohost").expect("tohost").to_u64() as u32;
    println!(
        "rv32_core halt_cycles={halt_cycles} tohost={tohost:#010x} evals={}",
        sim.defs_evaluated()
    );

    let mut wide = loaded_wide_sim_with(8, config_for(workers, true));
    for _ in 0..2_000 {
        wide.step_clock();
    }
    let y = wide.peek("wide.y").expect("y");
    let parity = wide.peek("wide.parity").expect("parity").to_u64();
    println!(
        "wide_datapath cycles=2000 y={} parity={parity} evals={}",
        hex(&y),
        wide.defs_evaluated()
    );
}

/// Gate mode: measure the sequential two-state `rv32_core` row and
/// compare against the recorded baseline in `path`. Fails (panics)
/// below 95% of baseline; the measurement takes the median of three
/// runs to damp runner noise, like the recorded numbers did.
fn run_gate(path: &str, cycles: u64, warmup: u64) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--gate: cannot read {path}: {e}"));
    let json =
        microjson::parse(&text).unwrap_or_else(|e| panic!("--gate: bad JSON in {path}: {e:?}"));
    let baseline = json["current"]["rows"]
        .as_array()
        .unwrap_or_else(|| panic!("--gate: {path} has no current.rows"))
        .iter()
        .find(|r| r["design"].as_str() == Some("rv32_core") && r["workers"].as_i64() == Some(1))
        .and_then(|r| r["cycles_per_sec"].as_f64())
        .unwrap_or_else(|| panic!("--gate: no rv32_core workers=1 baseline in {path}"));

    let mut runs: Vec<f64> = (0..3)
        .map(|_| measure_rv32(1, cycles, warmup).cycles_per_sec)
        .collect();
    runs.sort_by(|a, b| a.partial_cmp(b).expect("finite throughput"));
    let measured = runs[1];
    let floor = baseline * 0.95;
    println!(
        "{{\"gate\": \"sim_throughput\", \"design\": \"rv32_core\", \"workers\": 1, \
         \"baseline\": {baseline:.0}, \"measured\": {measured:.0}, \"floor\": {floor:.0}}}"
    );
    assert!(
        measured >= floor,
        "two-state rv32_core throughput regressed: {measured:.0} cycles/sec is below \
         95% of the recorded baseline {baseline:.0} (floor {floor:.0})"
    );
    eprintln!("gate ok: {measured:.0} >= {floor:.0} cycles/sec");
}

type Args = (
    bool,
    bool,
    Option<usize>,
    Option<u64>,
    Option<u64>,
    Option<u64>,
    Option<String>,
);

fn parse_args() -> Args {
    let mut smoke = false;
    let mut verify = false;
    let mut threads = None;
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
            "--verify" => verify = true,
            "--threads" => threads = Some(value("--threads") as usize),
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
    (
        smoke,
        verify,
        threads,
        cycles,
        warmup,
        checkpoint_every,
        gate,
    )
}

fn main() {
    let (smoke, verify, threads, cycles_arg, warmup_arg, checkpoint_every, gate) = parse_args();

    if verify {
        print_verify(threads.unwrap_or(1));
        return;
    }
    if let Some(path) = gate {
        // Longer than the sweep default: the gate is a pass/fail
        // boundary, so it needs the noise floor well under 5%.
        run_gate(
            &path,
            cycles_arg.unwrap_or(200_000),
            warmup_arg.unwrap_or(20_000),
        );
        return;
    }

    let cycles = cycles_arg.unwrap_or(if smoke { 5_000 } else { 50_000 });
    let warmup = warmup_arg.unwrap_or(cycles / 10);

    // Worker counts to sweep: an explicit `--threads N` measures N
    // (plus the sequential baseline for the scaling comparison); the
    // full run sweeps 1/2/4 for the per-thread-count BENCH rows.
    let thread_counts: Vec<usize> = match threads {
        Some(n) if n > 1 => vec![1, n],
        Some(_) => vec![1],
        None if smoke => vec![1],
        None => vec![1, 2, 4],
    };

    check_correctness(*thread_counts.last().unwrap());
    let mut rows = Vec::new();
    for &w in &thread_counts {
        rows.push(measure_rv32(w, cycles, warmup));
        rows.push(measure_wide(w, cycles, warmup));
    }
    // Checkpoint overhead as the fraction of the timed window spent
    // inside snapshot captures (0.05 = 5% of wall-clock on snapshots).
    // The window is stretched to cover at least 16 captures so the
    // fraction averages out single-capture jitter — with only a couple
    // of captures, one slow one (scheduler preemption, allocator slow
    // path) would swing the number past any sensible gate.
    let overhead = checkpoint_every.map(|every| {
        let ckpt_cycles = cycles.max(every.saturating_mul(16));
        let (row, frac) = measure_rv32_checkpointed(1, ckpt_cycles, warmup, every);
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
            "    {{\"design\": \"{}\", \"workers\": {}, \"cycles\": {}, \"warmup\": {}, \"checkpoint_every\": {}, \"cycles_per_sec\": {:.0}}}{}",
            r.design, r.workers, r.cycles, r.warmup, r.checkpoint_every, r.cycles_per_sec, comma
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
                .find(|r| r.design == design && r.workers == 1)
                .expect("sequential row present");
            assert!(
                r.cycles_per_sec > min,
                "{}: throughput {:.0} cycles/sec below smoke floor {:.0}",
                r.design,
                r.cycles_per_sec,
                min
            );
        }

        // Scaling gate: on a multi-core host, the parallel wide-datapath
        // sweep must not be pathologically slower than sequential (0.5×
        // allows scheduler noise on loaded runners; real regressions —
        // e.g. a barrier per def instead of per level — land far below).
        let multi_core = std::thread::available_parallelism()
            .map(|n| n.get() > 1)
            .unwrap_or(false);
        if let Some(n) = threads.filter(|&n| n > 1) {
            let seq = rows
                .iter()
                .find(|r| r.design == "wide_datapath" && r.workers == 1)
                .expect("sequential wide row");
            let par = rows
                .iter()
                .find(|r| r.design == "wide_datapath" && r.workers == n)
                .expect("parallel wide row");
            if multi_core {
                assert!(
                    par.cycles_per_sec > 0.5 * seq.cycles_per_sec,
                    "pathological scaling: wide_datapath at {} workers runs {:.0} cycles/sec vs {:.0} sequential",
                    n,
                    par.cycles_per_sec,
                    seq.cycles_per_sec
                );
            } else {
                eprintln!("single-core host: skipping the parallel scaling gate");
            }
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
