//! One round of a workload: set up from nothing, then run its phases.
//! A run repeats rounds until its time is up.

use std::time::Instant;

use crate::check::Checker;
use crate::design::{self, SetupClock};
use crate::ide::{self, IdeTally, LayerTally};
use crate::inputs::{Inputs, Workload};
use crate::live::{self, LiveProgram, LiveTally};
use crate::oracle::{Catalog, Kernel};
use crate::replay::{self, TraceTally};
use crate::stats::Ops;
use crate::trace::Mode;

/// Inputs with their expectations, prepared once per run.
pub struct Plan {
    pub inputs: Inputs,
    single: Catalog,
    dual: Option<Catalog>,
    live: Vec<LiveProgram>,
    ide: Kernel,
    trace: Kernel,
    /// Symbol-table bytes of the designs a round compiles.
    pub symtab_bytes: u64,
}

impl Plan {
    pub fn new(inputs: Inputs) -> Plan {
        let single_design = design::compile(false);
        let single = Catalog::new(&single_design.symbols);
        let mut symtab_bytes = single_design.symbols.size_in_bytes() as u64;
        let dual = inputs.live.iter().any(|p| p.dual_core).then(|| {
            let d = design::compile(true);
            symtab_bytes += d.symbols.size_in_bytes() as u64;
            Catalog::new(&d.symbols)
        });
        let live = inputs
            .live
            .iter()
            .zip(&inputs.live_picks)
            .map(|(p, picks)| {
                let cat = if p.dual_core {
                    dual.as_ref().expect("dual design compiled")
                } else {
                    &single
                };
                LiveProgram::new(p, cat, *picks, inputs.armed)
            })
            .collect();
        let ide = Kernel::new(&inputs.ide, &single);
        let trace = Kernel::new(&inputs.trace, &single);
        Plan {
            inputs,
            single,
            dual,
            live,
            ide,
            trace,
            symtab_bytes,
        }
    }

    /// Stops each session phase covers per round, for the run header.
    pub fn describe(&self) -> String {
        let cycles: u64 = self
            .live
            .iter()
            .map(|p| p.runs.iter().map(|r| r.halt).max().unwrap_or(0) + 1)
            .sum();
        format!(
            "live programs {} ({} cycles each bare and armed); ide kernel {} cycles, {} stops; trace kernel {} cycles, {} stops{}",
            self.live.len(),
            cycles,
            self.ide.run.halt + 1,
            self.ide.plan.stops.len(),
            self.trace.run.halt + 1,
            self.trace.plan.stops.len(),
            if self.inputs.trace_backward { ", walked back" } else { "" },
        )
    }
}

/// Everything rounds measured, accumulated over a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub rounds: u64,
    pub setup_s: Vec<f64>,
    /// Wall time of each round's workload (set-up and phases).
    pub round_s: Vec<f64>,
    pub sim_rate: Vec<f64>,
    pub armed_rate: Vec<f64>,
    pub record_rate: Vec<f64>,
    pub parse_rate: Vec<f64>,
    pub replay_rate: Vec<f64>,
    pub ide: IdeTally,
    pub trace: TraceTally,
    pub layers: LayerTally,
    pub defs: u64,
    pub defs_cycles: u64,
}

#[derive(Clone, Copy)]
enum Phase {
    Live,
    Ide,
    Trace,
}

/// One round. With `split` (traced rounds), the ide's script is also
/// replayed layer by layer; that replay is not part of the round's time.
pub fn round<M: Mode>(plan: &Plan, ck: &Checker, ops: &mut Ops, tally: &mut Tally, split: bool) {
    let started = Instant::now();
    let mut setup = SetupClock::start();
    let single = design::compile(false);
    let dual = plan.dual.as_ref().map(|_| design::compile(true));
    let mut live_t = LiveTally::default();
    let mut ide_t = IdeTally::default();
    let mut trace_t = TraceTally::default();

    // The first phase's first debuggable session ends the set-up time.
    // suite_run and ide_session start with their main phase. A trace
    // session becomes debuggable only once the whole run is recorded and
    // parsed, which record_cycles_per_s and parse_mb_per_s time, so
    // trace_replay starts with the live phase on the trace kernel: its
    // set-up is the same bring-up (elaborate to attach) as the others'.
    let order = match plan.inputs.workload {
        Workload::SuiteRun => [Phase::Live, Phase::Ide, Phase::Trace],
        Workload::IdeSession => [Phase::Ide, Phase::Live, Phase::Trace],
        Workload::TraceReplay => [Phase::Live, Phase::Trace, Phase::Ide],
    };
    let mut script = Vec::new();
    for phase in order {
        match phase {
            Phase::Live => {
                for p in &plan.live {
                    let (design, cat) = match (&dual, &plan.dual) {
                        (Some(design), Some(cat)) if p.program.dual_core => (design, cat),
                        _ => (&single, &plan.single),
                    };
                    live::run::<M>(p, design, cat, &mut setup, ck, ops, &mut live_t);
                }
            }
            Phase::Ide => {
                script = ide::run::<M>(
                    &plan.ide,
                    &single,
                    &plan.single,
                    &mut setup,
                    ck,
                    ops,
                    &mut ide_t,
                );
            }
            Phase::Trace => replay::run::<M>(
                &plan.trace,
                &single,
                &plan.single,
                plan.inputs.trace_backward,
                ck,
                ops,
                &mut trace_t,
            ),
        }
    }
    tally.round_s.push(started.elapsed().as_secs_f64());
    tally.rounds += 1;
    tally.setup_s.push(setup.seconds());
    tally
        .sim_rate
        .push(live_t.bare_cycles as f64 / live_t.bare_s);
    tally
        .armed_rate
        .push(live_t.armed_cycles as f64 / live_t.armed_s);
    tally
        .record_rate
        .push(trace_t.record_cycles as f64 / trace_t.record_s);
    tally
        .parse_rate
        .push(trace_t.vcd_bytes as f64 / 1e6 / trace_t.parse_s);
    tally
        .replay_rate
        .push(trace_t.replay_cycles as f64 / trace_t.replay_s);
    tally.defs += live_t.defs;
    tally.defs_cycles += live_t.defs_cycles;
    let t = &mut tally.ide;
    t.continue_ms.extend(ide_t.continue_ms);
    t.step_ms.extend(ide_t.step_ms);
    t.reverse_step_ms.extend(ide_t.reverse_step_ms);
    t.reverse_continue_ms.extend(ide_t.reverse_continue_ms);
    t.eval_ms.extend(ide_t.eval_ms);
    t.frames_ms.extend(ide_t.frames_ms);
    t.inspect_rate.extend(ide_t.inspect_rate);
    let t = &mut tally.trace;
    t.record_cycles += trace_t.record_cycles;
    t.vcd_bytes += trace_t.vcd_bytes;
    t.reverse_step_ms.extend(trace_t.reverse_step_ms);
    t.reverse_continue_ms.extend(trace_t.reverse_continue_ms);
    if split {
        ide::split_layers::<M>(&script, &plan.ide, &single, &mut tally.layers);
    }
}
