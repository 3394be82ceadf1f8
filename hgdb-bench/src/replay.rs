//! The trace phase: record a kernel's whole run to VCD, parse it, attach
//! the runtime to `vcd::ReplaySim` with the loop-head breakpoint, then
//! continue forward through every stop and (when asked) walk back with
//! `reverse_step` and `reverse_continue`.

use std::time::Instant;

use hgdb::protocol::Request;
use hgdb::Runtime;
use rtl_sim::{SimConfig, SimControl};
use vcd::{Recorder, ReplaySim};

use crate::check::{wrong, Check, Checker};
use crate::dbg::{self, request, stop_of, timed_call, timed_request, Stop};
use crate::design::Design;
use crate::oracle::{Catalog, Kernel};
use crate::stats::Ops;
use crate::trace::{self, Mode};

/// Replay time of simulation cycle `t`: the recorder stamps each
/// sampled cycle's rising edge at `10 t`.
const TICKS: u64 = 10;

/// The variables compared at each stop: the frame's two, then the
/// evaluated ones.
fn vars(k: &Kernel) -> Vec<&'static str> {
    let mut vars = vec!["pc", "insn_count_r"];
    vars.extend(k.evals.iter().copied());
    vars
}

/// What a round's trace phase measured.
#[derive(Debug, Default)]
pub struct TraceTally {
    pub record_cycles: u64,
    pub record_s: f64,
    pub vcd_bytes: u64,
    pub parse_s: f64,
    pub replay_cycles: u64,
    pub replay_s: f64,
    pub reverse_step_ms: Vec<f64>,
    pub reverse_continue_ms: Vec<f64>,
}

pub fn run<M: Mode>(
    k: &Kernel,
    design: &Design,
    cat: &Catalog,
    backward: bool,
    ck: &Checker,
    ops: &mut Ops,
    tally: &mut TraceTally,
) {
    let stops = &k.plan.stops;
    let vars = vars(k);

    // Record the whole run, to one cycle past ECALL, keeping the live
    // values at every stop for comparison with the replay.
    let mut sim = trace::span("sim.build", || {
        bench::loaded_sim_with(&design.core, &k.program, SimConfig::default())
    });
    let ids: Vec<_> = vars
        .iter()
        .map(|v| {
            sim.signal_id(&format!("cpu.{v}"))
                .expect("variable is a signal")
        })
        .collect();
    let cycles = k.run.halt + 1;
    let mut text = Vec::with_capacity(cycles as usize * 400);
    let mut live_values: Vec<Vec<u64>> = Vec::with_capacity(stops.len());
    let open = trace::open("vcd.record");
    let (mut step_ns, mut sample_ns) = (0u64, 0u64);
    let started = Instant::now();
    let mut recorder = Recorder::new(&sim, &mut text).expect("VCD header writes");
    let mut next = 0;
    for t in 1..=cycles {
        if M::TRACED {
            let a = Instant::now();
            sim.step_clock();
            let b = Instant::now();
            recorder.sample(&sim).expect("VCD sample writes");
            step_ns += (b - a).as_nanos() as u64;
            sample_ns += b.elapsed().as_nanos() as u64;
        } else {
            sim.step_clock();
            recorder.sample(&sim).expect("VCD sample writes");
        }
        if stops.get(next) == Some(&t) {
            live_values.push(ids.iter().map(|&id| sim.peek_id(id).to_u64()).collect());
            next += 1;
        }
    }
    recorder.finish().expect("VCD flushes");
    tally.record_s += started.elapsed().as_secs_f64();
    tally.record_cycles += cycles;
    tally.vcd_bytes += text.len() as u64;
    if let Some(parent) = &open {
        trace::aggregate(parent, "sim.step", cycles, step_ns);
        trace::aggregate(parent, "vcd.sample", cycles, sample_ns);
    }
    trace::close(open, text.len() as u64);
    ops.count("record", true);
    drop(sim);

    let text = String::from_utf8(text).expect("VCD is ASCII");
    let started = Instant::now();
    let parsed = trace::span("vcd.parse", || vcd::parse(&text));
    tally.parse_s += started.elapsed().as_secs_f64();
    ops.count("parse", parsed.is_ok());
    let Ok(parsed) = parsed else {
        ck.fail(Check::ReplayLive, "recorded VCD does not parse".into());
        return;
    };
    drop(text);

    let replay = M::replay(ReplaySim::new(parsed));
    let symbols = design.symbols.clone();
    let mut rt = trace::span("runtime.attach", || Runtime::attach(replay, symbols))
        .expect("runtime attaches to the trace");
    let cond = &cat.groups[k.plan.cond_group];
    request(
        &mut rt,
        ops,
        dbg::breakpoint(
            &cat.filename,
            cond.line,
            cond.col,
            Some(format!("pc == {}", k.loop_head)),
        ),
    );

    // Forward through every stop: values against the ISS and the live run.
    let mut replay_s = 0.0;
    for (i, &t) in stops.iter().enumerate() {
        let (resp, secs) = timed_request(
            &mut rt,
            ops,
            "runtime.replay_continue",
            dbg::cont(None),
            true,
        );
        replay_s += secs;
        ck.eq(
            Check::StopCycles,
            "replay stop",
            k.plan.stop_place(cat, t, TICKS),
            stop_of(&resp, ck, "replay continue").place(),
        );
        let frames = stop_of(&request(&mut rt, ops, Request::Frames), ck, "replay frames");
        let mut replayed: Vec<Option<u64>> =
            vars[..2].iter().map(|v| frames.var("cpu", v)).collect();
        for (j, var) in vars[..2].iter().enumerate() {
            let want = k.run.var(t, var) + u64::from(wrong(Check::StopValues));
            ck.eq(
                Check::StopValues,
                &format!("replay frame {var} @{t}"),
                Some(want),
                replayed[j],
            );
        }
        for var in &vars[2..] {
            let got = dbg::value_from_response(&request(&mut rt, ops, dbg::eval("cpu", var)));
            let want = k.run.var(t, var) + u64::from(wrong(Check::EvalValues));
            ck.eq(
                Check::EvalValues,
                &format!("replay eval {var} @{t}"),
                Ok(want),
                got.clone(),
            );
            replayed.push(got.ok());
        }
        let mut live: Vec<Option<u64>> = live_values[i].iter().copied().map(Some).collect();
        live[0] = live[0].map(|v| v + u64::from(wrong(Check::ReplayLive)));
        ck.eq(
            Check::ReplayLive,
            &format!("replayed vs live values @{t}"),
            live,
            replayed,
        );
    }
    let (resp, secs) = timed_request(
        &mut rt,
        ops,
        "runtime.replay_continue",
        dbg::cont(None),
        true,
    );
    replay_s += secs;
    let end = cycles * TICKS;
    ck.eq(
        Check::StopCycles,
        "replay runs to the trace's end",
        (end, true),
        {
            let s = stop_of(&resp, ck, "replay continue");
            (s.time, s.finished())
        },
    );
    tally.replay_s += replay_s;
    tally.replay_cycles += cycles;
    // Jumps natively to stop `j`'s cycle and continues onto it.
    let jump_to = |rt: &mut Runtime<M::Replay>, ops: &mut Ops, j: usize| {
        let restore = Request::Restore {
            cycle: Some(stops[j] * TICKS),
        };
        timed_request(rt, ops, "runtime.replay_restore", restore, true);
        let resp = request(rt, ops, dbg::cont(None));
        ck.eq(
            Check::StopCycles,
            "replay stop after restore",
            k.plan.stop_place(cat, stops[j], TICKS),
            stop_of(&resp, ck, "replay continue").place(),
        );
    };
    if !backward {
        jump_to(&mut rt, ops, stops.len() - 1);
        return;
    }

    // Back from the end: each reverse_continue must land on the previous
    // stop; where it does not, jump there, so every round runs the same
    // script.
    let back_to = |rt: &mut Runtime<M::Replay>, ops: &mut Ops, tally: &mut TraceTally, j: usize| {
        let (resp, secs) = timed_call(
            rt,
            "runtime.replay_reverse_continue",
            Request::ReverseContinue,
            true,
        );
        tally.reverse_continue_ms.push(secs * 1e3);
        let mut want = k.plan.stop_place(cat, stops[j], TICKS);
        want.0 += u64::from(wrong(Check::ReverseLands));
        let landed = Stop::from_response(&resp).is_ok_and(|s| s.place() == want);
        ops.count("reverse_continue", landed);
        if !landed {
            jump_to(rt, ops, j);
        }
    };
    let runs = std::slice::from_ref(&k.run);
    let cpu = ["cpu".to_owned()];
    back_to(&mut rt, ops, tally, stops.len() - 1);
    for i in (1..stops.len()).rev() {
        let t = stops[i];
        let prev = cat.step_target(runs, &cpu, t, k.plan.cond_group, false);
        let (resp, secs) = timed_request(
            &mut rt,
            ops,
            "runtime.replay_reverse_step",
            Request::ReverseStep,
            true,
        );
        tally.reverse_step_ms.push(secs * 1e3);
        let mut want = prev.place(cat, TICKS);
        want.0 += u64::from(wrong(Check::StepTarget));
        ck.eq(
            Check::StepTarget,
            "replay reverse_step",
            want,
            stop_of(&resp, ck, "replay reverse_step").place(),
        );
        let resp = request(&mut rt, ops, dbg::step());
        ck.eq(
            Check::StepTarget,
            "replay step back",
            k.plan.stop_place(cat, t, TICKS),
            stop_of(&resp, ck, "replay step").place(),
        );
        back_to(&mut rt, ops, tally, i - 1);
    }
}
