//! The order of reverse execution, against the forward run. A seeded
//! script — `pc == X` breakpoints on always-active statements, several
//! sharing an `X` so their stops share a cycle, plus a watch — runs
//! forward on the single- and dual-core rv32 debug builds, live and
//! replayed from a VCD of the same run, and its stops are recorded.
//! Then, from each stop, `reverse_continue` must return the last
//! recorded stop at an earlier cycle (equal frames and watch hits), or
//! finish at the earliest cycle when there is none; hit counts must
//! not move; and a `continue` must then return the next recorded stop.
//! The live runs checkpoint on a small interval and at every stop, so
//! windows end on stop cycles.
//!
//! A second test counts the replay work of a trace `reverse_continue`:
//! it must follow the distance moved back, not the trace's length.

use std::collections::BTreeMap;

use bench::{
    compile_core, compile_dual, executing_workload, loaded_sim, symbols_for, CompiledCore,
};
use bits::Bits;
use hgdb::{BreakpointListing, CheckpointConfig, RunOutcome, Runtime, StopEvent};
use rtl_sim::{HierNode, SignalId, SimControl, SimError};
use rv32::Program;
use symtab::SymbolTable;
use vcd::ReplaySim;

/// Cycles each run covers.
const CYCLES: u64 = 240;
/// Stops each run records at most.
const MAX_STOPS: usize = 48;

/// A small seeded generator (xorshift64*).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }
}

/// One seeded script: breakpoints `(filename, line, col, condition)`
/// and a watch `(instance, expression)`.
struct Script {
    breakpoints: Vec<(String, u32, u32, String)>,
    watch: (String, String),
}

/// Draws a script: four always-active statements of the cores, each
/// stopping at one of two program counters the run visits repeatedly,
/// and a watch on the first of them.
fn script(core: &CompiledCore, symbols: &SymbolTable, program: &Program, seed: u64) -> Script {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut sim = loaded_sim(core, program);
    let mut instances: Vec<String> = symbols
        .all_breakpoints()
        .unwrap()
        .into_iter()
        .map(|bp| bp.instance_name)
        .filter(|inst| sim.get_value(&format!("{inst}.pc")).is_some())
        .collect();
    instances.sort();
    instances.dedup();
    let pc = format!("{}.pc", instances[0]);
    let mut visits: BTreeMap<u64, usize> = BTreeMap::new();
    for _ in 0..CYCLES {
        sim.step_clock();
        *visits
            .entry(sim.get_value(&pc).unwrap().to_u64())
            .or_default() += 1;
    }
    let pcs: Vec<u64> = visits
        .into_iter()
        .filter(|&(_, n)| n >= 4)
        .map(|(pc, _)| pc)
        .collect();
    assert!(
        pcs.len() >= 2,
        "the run repeats at least two program counters"
    );
    let first = pcs[rng.below(pcs.len())];
    let second = loop {
        let pc = pcs[rng.below(pcs.len())];
        if pc != first {
            break pc;
        }
    };
    let mut statements: Vec<(String, u32, u32)> = symbols
        .all_breakpoints()
        .unwrap()
        .into_iter()
        .filter(|bp| bp.enable.is_none() && instances.contains(&bp.instance_name))
        .map(|bp| (bp.filename, bp.line, bp.col))
        .collect();
    statements.sort();
    statements.dedup();
    let mut breakpoints = Vec::new();
    for pc in [first, second, first, second] {
        let (filename, line, col) = statements.remove(rng.below(statements.len()));
        breakpoints.push((filename, line, col, format!("pc == {pc}")));
    }
    Script {
        breakpoints,
        watch: (instances[0].clone(), format!("pc == {first}")),
    }
}

/// Attaches and applies the script; a live backend also checkpoints
/// on a small interval and at the start.
fn armed<S: SimControl>(sim: S, symbols: SymbolTable, script: &Script) -> Runtime<S> {
    let mut rt = Runtime::attach(sim, symbols).unwrap();
    rt.set_checkpoint_config(CheckpointConfig {
        interval: 32,
        ..CheckpointConfig::default()
    });
    rt.checkpoint_now().unwrap();
    for (filename, line, col, condition) in &script.breakpoints {
        rt.insert_breakpoint(filename, *line, Some(*col), Some(condition))
            .unwrap();
    }
    let (instance, expr) = &script.watch;
    rt.insert_watchpoint(Some(instance), expr).unwrap();
    rt
}

fn stop_of(outcome: RunOutcome, what: &str) -> StopEvent {
    match outcome {
        RunOutcome::Stopped(event) => event,
        other => panic!("{what}: expected a stop, got {other:?}"),
    }
}

/// Hit counts as the listings show them.
fn counts<S: SimControl>(rt: &Runtime<S>) -> (Vec<BreakpointListing>, Vec<u64>) {
    let watches = rt.watchpoints().iter().map(|w| w.hit_count).collect();
    (rt.breakpoints(), watches)
}

/// Records the forward stops of one run, then checks `reverse_continue`
/// from each of them on a second, identical run.
fn check_reverse_order<S: SimControl>(make: impl Fn() -> Runtime<S>, what: &str) {
    let mut forward = make();
    let start = forward.time();
    let mut stops: Vec<StopEvent> = Vec::new();
    while stops.len() < MAX_STOPS {
        match forward.continue_run(Some(CYCLES)).unwrap() {
            RunOutcome::Stopped(event) => stops.push(event),
            RunOutcome::Finished { .. } => break,
        }
    }
    assert!(stops.len() >= 8, "{what}: only {} stops", stops.len());
    let shared = stops.windows(2).filter(|p| p[0].time == p[1].time).count();
    assert!(shared > 0, "{what}: no two stops share a cycle");
    assert!(
        stops.iter().any(|s| !s.watch_hits.is_empty()),
        "{what}: no watch stop"
    );

    let mut rt = make();
    for (i, stop) in stops.iter().enumerate() {
        let at = format!("{what}: stop {i} at time {}", stop.time);
        assert_eq!(
            &stop_of(rt.continue_run(Some(CYCLES)).unwrap(), &at),
            stop,
            "{at}: forward"
        );
        rt.checkpoint_now().unwrap();
        let before = counts(&rt);
        let back = rt.reverse_continue().unwrap();
        assert_eq!(counts(&rt), before, "{at}: hit counts moved");
        let earlier = stops[..i].iter().rposition(|s| s.time < stop.time);
        match earlier {
            Some(j) => assert_eq!(back, RunOutcome::Stopped(stops[j].clone()), "{at}: lands"),
            None => assert_eq!(back, RunOutcome::Finished { time: start }, "{at}: lands"),
        }
        // Forward again: the stop after the landing, then on to `stop`.
        let next = earlier.map_or(0, |j| j + 1);
        for (k, want) in stops.iter().enumerate().take(i + 1).skip(next) {
            let got = stop_of(rt.continue_run(Some(CYCLES)).unwrap(), &at);
            assert_eq!(&got, want, "{at}: continue returns stop {k}");
        }
    }
}

/// The run of `program` recorded to VCD and replayed, positioned on the
/// first recorded cycle.
fn recorded(core: &CompiledCore, program: &Program, cycles: u64) -> ReplaySim {
    let mut sim = loaded_sim(core, program);
    let mut text = Vec::new();
    let mut recorder = vcd::Recorder::new(&sim, &mut text).unwrap();
    for _ in 0..cycles {
        sim.step_clock();
        recorder.sample(&sim).unwrap();
    }
    recorder.finish().unwrap();
    let mut replay = ReplaySim::new(vcd::parse(std::str::from_utf8(&text).unwrap()).unwrap());
    replay.step_clock();
    replay
}

fn check_design(core: &CompiledCore, program: &Program, seed: u64) {
    let symbols = symbols_for(core);
    let script = script(core, &symbols, program, seed);
    check_reverse_order(
        || armed(loaded_sim(core, program), symbols.clone(), &script),
        &format!("{} live, seed {seed}", program.name),
    );
    let replay = recorded(core, program, CYCLES + 1);
    check_reverse_order(
        || armed(replay.clone(), symbols.clone(), &script),
        &format!("{} replay, seed {seed}", program.name),
    );
}

#[test]
fn single_core_reverse_continue_returns_the_previous_stop() {
    let core = compile_core(true);
    for seed in [1, 2] {
        check_design(&core, &rv32::programs::multiply(), seed);
    }
}

#[test]
fn dual_core_reverse_continue_returns_the_previous_stop() {
    let core = compile_dual(true);
    for seed in [1, 2] {
        check_design(&core, &rv32::programs::mt_vvadd(), seed);
    }
}

/// A trace backend that counts the clock steps asked of it.
struct Counting {
    inner: ReplaySim,
    steps: u64,
}

impl SimControl for Counting {
    fn get_value(&self, path: &str) -> Option<Bits> {
        self.inner.get_value(path)
    }

    fn signal_id(&self, path: &str) -> Option<SignalId> {
        self.inner.signal_id(path)
    }

    fn get_value_by_id(&self, id: SignalId) -> Option<Bits> {
        self.inner.get_value_by_id(id)
    }

    fn hierarchy(&self) -> HierNode {
        self.inner.hierarchy()
    }

    fn clock_path(&self) -> String {
        self.inner.clock_path()
    }

    fn step_clock(&mut self) -> bool {
        self.steps += 1;
        self.inner.step_clock()
    }

    fn time(&self) -> u64 {
        self.inner.time()
    }

    fn set_time(&mut self, time: u64) -> Result<(), SimError> {
        self.inner.set_time(time)
    }

    fn set_value(&mut self, path: &str, value: Bits) -> Result<(), SimError> {
        self.inner.set_value(path, value)
    }

    fn supports_reverse(&self) -> bool {
        self.inner.supports_reverse()
    }

    fn signal_paths(&self) -> Vec<String> {
        self.inner.signal_paths()
    }
}

/// On two traces of one run, 8x apart in length, each `reverse_continue`
/// from the end steps the clock at most `4 d + 32` times, where `d` is
/// the number of cycles it moves back.
#[test]
fn trace_reverse_continue_work_follows_the_distance() {
    let core = compile_core(true);
    let program = executing_workload();
    let symbols = symbols_for(&core);
    let bp = symbols
        .all_breakpoints()
        .unwrap()
        .into_iter()
        .find(|bp| bp.enable.is_none())
        .unwrap();
    // A loop head of the kernel: every pass of the inner loop stops.
    let condition = "pc == 20";
    for cycles in [150, 1200] {
        let replay = Counting {
            inner: recorded(&core, &program, cycles),
            steps: 0,
        };
        let mut rt = Runtime::attach(replay, symbols.clone()).unwrap();
        rt.insert_breakpoint(&bp.filename, bp.line, Some(bp.col), Some(condition))
            .unwrap();
        let mut stops = Vec::new();
        while let RunOutcome::Stopped(event) = rt.continue_run(None).unwrap() {
            stops.push(event);
        }
        assert!(stops.len() >= 4, "{cycles} cycles: {} stops", stops.len());
        for want in stops.iter().rev().take(3) {
            let from = rt.sim().inner.cycle().unwrap();
            let steps = rt.sim().steps;
            let back = stop_of(rt.reverse_continue().unwrap(), "reverse_continue");
            assert_eq!(&back, want, "{cycles} cycles: lands on the previous stop");
            let d = (from - rt.sim().inner.cycle().unwrap()) as u64;
            let made = rt.sim().steps - steps;
            assert!(
                made <= 4 * d + 32,
                "{cycles} cycles: {made} steps to move back {d} cycles"
            );
        }
    }
}
