//! Live runs: each program from reset to its ECALL with hgdb attached,
//! once bare (nothing armed) and once armed (a condition, a watch and
//! the ECALL breakpoint), with every stop inspected and checked.

use hgdb::protocol::Request;
use hgdb::Runtime;
use rtl_sim::SimControl;
use rv32::Program;

use crate::check::{wrong, Check, Checker};
use crate::dbg::{self, call, request, stop_of, timed_request, Place, Stop};
use crate::design::{self, Design, SetupClock};
use crate::oracle::{place, ArmedPlan, Catalog, CoreRun, ExpStop, StopAt};
use crate::stats::Ops;
use crate::trace::{Mode, Probe};

/// A program with its ISS runs and its armed plan.
pub struct LiveProgram {
    pub program: Program,
    pub instances: Vec<String>,
    pub runs: Vec<CoreRun>,
    pub armed: ArmedPlan,
}

impl LiveProgram {
    pub fn new(
        program: &Program,
        cat: &Catalog,
        picks: [u64; 4],
        armed: crate::inputs::Armed,
    ) -> LiveProgram {
        let sources = if program.dual_core {
            let (a, b) = bench::dual_sources(program);
            vec![a, b]
        } else {
            vec![program.source.clone()]
        };
        let runs: Vec<CoreRun> = sources
            .iter()
            .map(|s| CoreRun::new(&rv32::asm::assemble(s).expect("program assembles")))
            .collect();
        let instances = if program.dual_core {
            vec!["soc.core0".to_owned(), "soc.core1".to_owned()]
        } else {
            vec!["cpu".to_owned()]
        };
        let armed = ArmedPlan::new(cat, &runs, picks, armed.cond_hits, armed.watch_hits);
        LiveProgram {
            program: program.clone(),
            instances,
            runs,
            armed,
        }
    }

    fn end(&self) -> u64 {
        self.runs
            .iter()
            .map(|r| r.halt)
            .max()
            .expect("one core at least")
    }

    fn top(&self) -> &str {
        if self.program.dual_core {
            "soc"
        } else {
            "cpu"
        }
    }
}

/// What a round's live runs measured.
#[derive(Debug, Default)]
pub struct LiveTally {
    pub bare_cycles: u64,
    pub bare_s: f64,
    pub armed_cycles: u64,
    pub armed_s: f64,
    /// Netlist definitions evaluated during bare runs, and their cycles.
    pub defs: u64,
    pub defs_cycles: u64,
}

fn exp_place(cat: &Catalog, p: &LiveProgram, s: &ExpStop) -> Place {
    let instances = s.cores.iter().map(|&c| p.instances[c].clone()).collect();
    place(cat, s.time, s.at, instances)
}

/// `frames` and `eval`s at a stop, checked against the ISS.
fn inspect<S: SimControl>(
    rt: &mut Runtime<S>,
    p: &LiveProgram,
    time: u64,
    cores: &[usize],
    ck: &Checker,
    ops: &mut Ops,
) {
    let frames = request(rt, ops, Request::Frames);
    let got = stop_of(&frames, ck, "frames");
    for &c in cores {
        let inst = &p.instances[c];
        for var in ["pc", "insn_count_r"] {
            let expected = p.runs[c].var(time, var) + u64::from(wrong(Check::StopValues));
            ck.eq(
                Check::StopValues,
                &format!("{} frame {inst}.{var} @{time}", p.program.name),
                Some(expected),
                got.var(inst, var),
            );
        }
    }
    let core = cores.first().copied().unwrap_or(0);
    for var in &p.armed.evals {
        let resp = request(rt, ops, dbg::eval(&p.instances[core], var));
        let expected = p.runs[core].var(time, var) + u64::from(wrong(Check::EvalValues));
        ck.eq(
            Check::EvalValues,
            &format!("{} eval {var} @{time}", p.program.name),
            Ok(expected),
            dbg::value_from_response(&resp),
        );
    }
}

/// One program, bare then armed.
pub fn run<M: Mode>(
    p: &LiveProgram,
    design: &Design,
    cat: &Catalog,
    setup: &mut SetupClock,
    ck: &Checker,
    ops: &mut Ops,
    tally: &mut LiveTally,
) {
    let end = p.end();
    let name = p.program.name;
    let halted_path = format!("{}.halted", p.top());

    // Bare: nothing armed, run to the ECALL cycle, then one more.
    let mut rt = design::bring_up::<M>(design, &p.program);
    setup.ready();
    let defs0 = rt.sim().live().map_or(0, |s| s.defs_evaluated());
    let mut bare_s = 0.0;
    let mut digest = 0;
    let mut halted_at = Vec::new();
    for (cycles, at) in [(end, end), (1, end + 1)] {
        let (resp, secs) = timed_request(
            &mut rt,
            ops,
            "runtime.bare_run",
            dbg::cont(Some(cycles)),
            false,
        );
        bare_s += secs;
        let got = stop_of(&resp, ck, "bare continue");
        ck.eq(
            Check::HaltCycle,
            &format!("{name} bare run ends"),
            (at, true),
            (got.time, got.finished()),
        );
        if rt
            .sim()
            .get_value(&halted_path)
            .is_some_and(|v| v.is_truthy())
        {
            halted_at.push(at);
        }
        if at == end {
            digest = design::digest(rt.sim());
        }
    }
    ops.count("bare_run", true);
    let expected_halt = end + 1 + u64::from(wrong(Check::HaltCycle));
    ck.eq(
        Check::HaltCycle,
        &format!("{name} halted first at"),
        Some(expected_halt),
        halted_at.first().copied(),
    );
    let tohost_paths: Vec<String> = if p.program.dual_core {
        vec!["soc.tohost0".into(), "soc.tohost1".into()]
    } else {
        vec!["cpu.tohost".into()]
    };
    for (run, path) in p.runs.iter().zip(&tohost_paths) {
        let expected = u64::from(run.tohost) + u64::from(wrong(Check::Tohost));
        ck.eq(
            Check::Tohost,
            &format!("{name} {path}"),
            Some(expected),
            rt.sim().get_value(path).map(|v| v.to_u64()),
        );
    }
    ck.eq(
        Check::Tohost,
        &format!("{name} ISS checksum"),
        p.program.expected,
        p.runs[0].tohost,
    );
    tally.defs += rt.sim().live().map_or(0, |s| s.defs_evaluated()) - defs0;
    tally.defs_cycles += end + 1;
    tally.bare_cycles += end + 1;
    tally.bare_s += bare_s;
    drop(rt);

    // Armed: condition, watch, ECALL breakpoint; stop by stop.
    let plan = &p.armed;
    let mut rt = design::bring_up::<M>(design, &p.program);
    let cond = &cat.groups[plan.cond_group];
    let ecall = &cat.groups[cat.ecall];
    request(&mut rt, ops, Request::Checkpoint);
    request(
        &mut rt,
        ops,
        dbg::breakpoint(
            &cat.filename,
            cond.line,
            cond.col,
            Some(format!("pc == {}", plan.cond_pc)),
        ),
    );
    request(
        &mut rt,
        ops,
        Request::InsertWatchpoint {
            instance: Some(p.instances[0].clone()),
            expr: format!("pc == {}", plan.watch_pc),
        },
    );
    request(
        &mut rt,
        ops,
        dbg::breakpoint(&cat.filename, ecall.line, ecall.col, None),
    );
    let mut armed_s = 0.0;
    for exp in &plan.stops {
        let (resp, secs) = timed_request(
            &mut rt,
            ops,
            "runtime.armed_continue",
            dbg::cont(Some(end + 1)),
            false,
        );
        armed_s += secs;
        let got = stop_of(&resp, ck, "armed continue");
        ck.eq(
            Check::StopCycles,
            &format!("{name} armed stop"),
            exp_place(cat, p, exp),
            got.place(),
        );
        let cores: Vec<usize> = match exp.at {
            StopAt::Watch => vec![0],
            StopAt::Group(_) => exp.cores.clone(),
        };
        if exp.at == StopAt::Watch {
            // A watch stop has no frame; its values are read by eval.
            let mut q = Vec::new();
            for var in &plan.evals {
                let resp = request(&mut rt, ops, dbg::eval(&p.instances[0], var));
                q.push((
                    p.runs[0].var(exp.time, var),
                    dbg::value_from_response(&resp),
                ));
            }
            for (i, (want, got)) in q.into_iter().enumerate() {
                let want = want + u64::from(wrong(Check::EvalValues));
                ck.eq(
                    Check::EvalValues,
                    &format!("{name} watch eval {} @{}", plan.evals[i], exp.time),
                    Ok(want),
                    got,
                );
            }
        } else {
            inspect(&mut rt, p, exp.time, &cores, ck, ops);
        }
    }
    ops.count("armed_run", true);
    tally.armed_cycles += end;
    tally.armed_s += armed_s;
    let expected_digest = digest + u64::from(wrong(Check::NonPerturb));
    ck.eq(
        Check::NonPerturb,
        &format!("{name} state at ECALL, bare vs armed"),
        expected_digest,
        design::digest(rt.sim()),
    );

    // Back and forth around the final stop, which the plan keeps alone
    // in its cycle: `reverse_continue` lands on the stop before it.
    let [.., prev, last] = plan.stops.as_slice() else {
        return;
    };
    // A reverse_continue that lands anywhere but the previous forward
    // stop has failed.
    let resp = call(&mut rt, Request::ReverseContinue);
    let mut want = exp_place(cat, p, prev);
    want.0 += u64::from(wrong(Check::ReverseLands));
    let landed_ok = Stop::from_response(&resp).is_ok_and(|s| s.place() == want);
    ops.count("reverse_continue", landed_ok);
    if landed_ok {
        let resp = request(&mut rt, ops, dbg::cont(Some(end + 1)));
        let mut want = exp_place(cat, p, last);
        want.0 += u64::from(wrong(Check::ContinueReturns));
        ck.eq(
            Check::ContinueReturns,
            &format!("{name} continue after reverse_continue"),
            want,
            stop_of(&resp, ck, "continue").place(),
        );
    } else {
        request(
            &mut rt,
            ops,
            Request::Restore {
                cycle: Some(last.time),
            },
        );
        let resp = request(&mut rt, ops, dbg::cont(Some(end + 1)));
        ck.eq(
            Check::StopCycles,
            &format!("{name} stop after restore"),
            exp_place(cat, p, last),
            stop_of(&resp, ck, "continue").place(),
        );
    }
    let StopAt::Group(gi) = last.at else { return };
    let fwd = cat.step_target(&p.runs, &p.instances, last.time, gi, true);
    let back = cat.step_target(&p.runs, &p.instances, fwd.time, fwd.group, false);
    for (req, pos) in [(dbg::step(), fwd), (Request::ReverseStep, back)] {
        let resp = request(&mut rt, ops, req);
        let mut want = pos.place(cat, 1);
        want.0 += u64::from(wrong(Check::StepTarget));
        ck.eq(
            Check::StepTarget,
            &format!("{name} step/reverse_step"),
            want,
            stop_of(&resp, ck, "step").place(),
        );
    }
}
