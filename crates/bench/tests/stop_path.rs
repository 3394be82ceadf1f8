//! A stop's frames and `eval` against the symbol table the runtime
//! indexed at attach. For every breakpoint of the single- and dual-core
//! rv32 debug builds, on the live simulator and on a replayed trace,
//! the frame's locals and generator tree, and `eval` of every generator
//! variable, must equal what the symbol-table queries (`scope_of`,
//! `instance_variables`, `resolve_instance_variable`) plus path reads
//! give. Those queries are the reference here.

use std::collections::BTreeSet;

use bench::{compile_core, compile_dual, loaded_sim, symbols_for, CompiledCore};
use bits::Bits4;
use hgdb::{build_var_tree, Frame, RunOutcome, Runtime, VarNode};
use rtl_sim::{SimControl, Simulator};
use rv32::Program;
use symtab::SymbolTable;
use vcd::ReplaySim;

/// A frame's locals and generator tree as the symbol-table queries
/// give them.
fn reference_frame<S: SimControl>(
    st: &SymbolTable,
    sim: &S,
    frame: &Frame,
) -> (Vec<(String, Option<Bits4>)>, Vec<VarNode>) {
    let read = |vars: Vec<(String, String)>| -> Vec<(String, Option<Bits4>)> {
        vars.into_iter()
            .map(|(name, rtl)| {
                let value = sim.get_value4(&rtl);
                (name, value)
            })
            .collect()
    };
    let locals = read(st.scope_of(frame.breakpoint_id).unwrap());
    let generator = match st.instance_by_name(&frame.instance).unwrap() {
        Some(iid) => build_var_tree(&read(st.instance_variables(iid).unwrap())),
        None => Vec::new(),
    };
    (locals, generator)
}

/// `eval` of a name as the symbol-table queries resolve it: the
/// instance's generator variable, then `{instance}.{name}`, then `name`.
fn reference_eval<S: SimControl>(
    st: &SymbolTable,
    sim: &S,
    instance: &str,
    name: &str,
) -> Option<Bits4> {
    st.instance_by_name(instance)
        .unwrap()
        .and_then(|iid| st.resolve_instance_variable(iid, name).unwrap())
        .and_then(|rtl| sim.get_value4(&rtl))
        .or_else(|| sim.get_value4(&format!("{instance}.{name}")))
        .or_else(|| sim.get_value4(name))
}

/// What the stops of one run covered.
#[derive(Default)]
struct Coverage {
    breakpoints: BTreeSet<i64>,
    instances: BTreeSet<String>,
    /// Locals compared with a value whose RTL name is not the source
    /// name (SSA renames such as `halted → cpu.halted_0`).
    renamed_locals: usize,
}

/// Checks one stop's frames, and `eval` of every generator variable of
/// each frame's instance, against the reference.
fn check_stop<S: SimControl>(rt: &Runtime<S>, hits: &[Frame], what: &str, cov: &mut Coverage) {
    let st = rt.symbols();
    for frame in hits {
        let at = format!(
            "{what}: breakpoint {} ({}) at time {}",
            frame.breakpoint_id,
            frame.instance,
            rt.time()
        );
        let (locals, generator) = reference_frame(st, rt.sim(), frame);
        assert_eq!(frame.locals, locals, "{at}: locals");
        assert_eq!(frame.generator, generator, "{at}: generator variables");
        for (name, rtl) in st.scope_of(frame.breakpoint_id).unwrap() {
            if !rtl.ends_with(&format!(".{name}")) && rt.sim().get_value4(&rtl).is_some() {
                cov.renamed_locals += 1;
            }
        }
        let iid = st.instance_by_name(&frame.instance).unwrap().unwrap();
        for (name, _) in st.instance_variables(iid).unwrap() {
            assert_eq!(
                rt.eval(Some(&frame.instance), &name).ok(),
                reference_eval(st, rt.sim(), &frame.instance, &name),
                "{at}: eval {name}"
            );
        }
        cov.breakpoints.insert(frame.breakpoint_id);
        cov.instances.insert(frame.instance.clone());
    }
}

/// Stops once on every breakpoint: breakpoints are inserted at every
/// source location not yet covered, and removed as their locations
/// are. Each continue stops at the next location whose enable holds.
fn cover_every_breakpoint<S: SimControl>(mut rt: Runtime<S>, what: &str) -> Coverage {
    let all = rt.symbols().all_breakpoints().unwrap();
    for bp in &all {
        rt.insert_breakpoint(&bp.filename, bp.line, Some(bp.col), None)
            .unwrap();
    }
    let mut cov = Coverage::default();
    while cov.breakpoints.len() < all.len() {
        let event = match rt.continue_run(Some(5_000)).unwrap() {
            RunOutcome::Stopped(event) => event,
            RunOutcome::Finished { time } => panic!(
                "{what}: run finished at {time} with breakpoints {:?} never hit",
                all.iter()
                    .map(|b| b.id)
                    .filter(|id| !cov.breakpoints.contains(id))
                    .collect::<Vec<_>>()
            ),
        };
        check_stop(&rt, &event.hits, what, &mut cov);
        let covered: Vec<i64> = rt
            .breakpoints()
            .iter()
            .filter(|listing| {
                all.iter()
                    .filter(|b| {
                        (b.filename.as_str(), b.line, b.col)
                            == (listing.filename.as_str(), listing.line, listing.col)
                    })
                    .all(|b| cov.breakpoints.contains(&b.id))
            })
            .map(|listing| listing.id)
            .collect();
        for id in covered {
            rt.remove_breakpoint(id).unwrap();
        }
    }
    cov
}

/// The same program recorded to VCD for `cycles` cycles and replayed,
/// positioned on the first recorded cycle (before it, a trace has no
/// values to compare).
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

fn check_design(core: &CompiledCore, program: &Program, instances: &[&str]) {
    let symbols = symbols_for(core);
    let live: Simulator = loaded_sim(core, program);
    let runs = [
        (
            "live",
            cover_every_breakpoint(Runtime::attach(live, symbols.clone()).unwrap(), "live"),
        ),
        (
            "replay",
            cover_every_breakpoint(
                Runtime::attach(recorded(core, program, 700), symbols).unwrap(),
                "replay",
            ),
        ),
    ];
    for (what, cov) in runs {
        let want: BTreeSet<String> = instances.iter().map(|s| s.to_string()).collect();
        assert_eq!(cov.instances, want, "{what}: instances with frames");
        assert!(
            cov.renamed_locals > 0,
            "{what}: no SSA-renamed local was compared"
        );
    }
}

#[test]
fn single_core_frames_and_evals_match_the_symbol_table() {
    check_design(&compile_core(true), &rv32::programs::multiply(), &["cpu"]);
}

#[test]
fn dual_core_frames_and_evals_match_the_symbol_table() {
    check_design(
        &compile_dual(true),
        &rv32::programs::mt_vvadd(),
        &["soc", "soc.core0", "soc.core1"],
    );
}
