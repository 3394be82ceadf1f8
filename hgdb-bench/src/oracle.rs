//! Expected outcomes, derived from `rv32::Iss` stepped in lockstep.
//!
//! The core is single-cycle, so at simulation time `t >= 1` it shows
//! the architectural state after `t - 1` retired instructions, with
//! instruction `t` on its combinational nodes; ECALL is instruction
//! `K` (its breakpoint fires at time `K`) and `halted` reads 1 from
//! time `K + 1`, where the state freezes.

use std::collections::BTreeMap;

use rv32::iss::Iss;
use symtab::SymbolTable;

use crate::check::{wrong, Check};
use crate::dbg::Place;

/// Instructions between two full register files kept by [`CoreRun`].
const KEY_EVERY: usize = 64;

/// The ISS's view of one core running one program, kept compact: the
/// benchmark's own memory counts in the peak resident set it reports.
#[derive(Debug, Clone)]
pub struct CoreRun {
    image: Vec<u32>,
    /// The pc after `i` retired instructions, `i = 0..=halt`.
    pcs: Vec<u32>,
    /// The register instruction `i + 1` writes, `(rd, value)`; `(0, 0)`
    /// (x0, which stays 0) where it writes none.
    writes: Vec<(u8, u32)>,
    /// The register file after `i` retired instructions, every
    /// `KEY_EVERY`-th `i`.
    keys: Vec<[u32; 32]>,
    /// `K`: the retired-instruction count at ECALL.
    pub halt: u64,
    pub tohost: u32,
}

impl CoreRun {
    pub fn new(image: &[u32]) -> CoreRun {
        let mut iss = Iss::new(image, 4096);
        let mut pcs = vec![iss.pc];
        let mut writes = Vec::new();
        let mut keys = vec![iss.regs];
        loop {
            let before = iss.regs;
            let running = iss.step();
            pcs.push(iss.pc);
            let rd = (1..32).find(|&r| iss.regs[r] != before[r]).unwrap_or(0);
            writes.push((rd as u8, iss.regs[rd]));
            if (pcs.len() - 1) % KEY_EVERY == 0 {
                keys.push(iss.regs);
            }
            if !running {
                break;
            }
        }
        assert!(iss.halted, "program does not halt on the ISS");
        CoreRun {
            image: image.to_vec(),
            halt: iss.insn_count,
            tohost: iss.tohost,
            pcs,
            writes,
            keys,
        }
    }

    /// The pc and register file visible at simulation time `t`.
    fn at(&self, t: u64) -> (u32, [u32; 32]) {
        let i = t.saturating_sub(1).min(self.halt) as usize;
        let k = i / KEY_EVERY;
        let mut regs = self.keys[k];
        for &(rd, value) in &self.writes[k * KEY_EVERY..i] {
            regs[rd as usize] = value;
        }
        (self.pcs[i], regs)
    }

    pub fn pc(&self, t: u64) -> u32 {
        self.pcs[t.saturating_sub(1).min(self.halt) as usize]
    }

    /// Whether the core still executes at time `t`.
    pub fn running(&self, t: u64) -> bool {
        t <= self.halt
    }

    /// The value generator variable `name` reads at time `t`.
    pub fn var(&self, t: u64, name: &str) -> u64 {
        let (pc, regs) = self.at(t);
        let insn = self.image.get((pc / 4) as usize).copied().unwrap_or(0);
        let reg = |r: u32| if r == 0 { 0 } else { regs[r as usize] };
        let rs1 = (insn >> 15) & 0x1f;
        let rs2 = (insn >> 20) & 0x1f;
        let v = match name {
            "pc" => pc,
            "pc4" => pc.wrapping_add(4),
            "insn" => insn,
            "insn_count_r" => t.saturating_sub(1).min(self.halt) as u32,
            "opcode" => insn & 0x7f,
            "rd" => (insn >> 7) & 0x1f,
            "funct3" => (insn >> 12) & 7,
            "rs1" => rs1,
            "rs2" => rs2,
            "rs1_val" => reg(rs1),
            "rs2_val" => reg(rs2),
            "a0_val" => regs[10],
            "imm_i" => ((insn as i32) >> 20) as u32,
            "halted_r" => u32::from(!self.running(t)),
            "tohost_r" => {
                if self.running(t) {
                    0
                } else {
                    self.tohost
                }
            }
            other => panic!("no ISS model for generator variable {other}"),
        };
        u64::from(v)
    }

    /// How many times each pc executes.
    pub fn pc_counts(&self) -> BTreeMap<u32, u64> {
        let mut counts = BTreeMap::new();
        for pc in &self.pcs[..self.halt as usize] {
            *counts.entry(*pc).or_insert(0) += 1;
        }
        counts
    }

    /// The times at which the core is at `pc`, before it halts.
    pub fn visits(&self, pc: u32) -> Vec<u64> {
        (1..=self.halt).filter(|&t| self.pc(t) == pc).collect()
    }
}

/// When a breakpoint statement of the core is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enable {
    Always,
    /// The ECALL halt block, the core's first `when`.
    Ecall,
    /// Guarded by `running` (the retire counter's `when`).
    Running,
}

/// One breakpoint group: a source statement (with one breakpoint per
/// core instance, or one for a statement of the dual core's top).
#[derive(Debug, Clone)]
pub struct Group {
    pub line: u32,
    pub col: u32,
    pub enable: Enable,
    /// The top-level instance, for a statement outside the cores.
    pub top: Option<String>,
}

/// The core's statements in the runtime's scheduling order, read from
/// the symbol table.
#[derive(Debug, Clone)]
pub struct Catalog {
    pub filename: String,
    pub groups: Vec<Group>,
    pub ecall: usize,
}

impl Catalog {
    pub fn new(symbols: &SymbolTable) -> Catalog {
        let bps = symbols.all_breakpoints().expect("symbol table readable");
        let filename = bps.first().expect("core has breakpoints").filename.clone();
        assert!(
            bps.iter().all(|b| b.filename == filename),
            "core statements span several files"
        );
        // Core instances are the leaves of the instance tree; the dual
        // design's top holds statements of its own.
        let names: Vec<String> = bps.iter().map(|b| b.instance_name.clone()).collect();
        let is_core = |inst: &str| !names.iter().any(|n| n.starts_with(&format!("{inst}.")));
        let mut keyed: BTreeMap<(u32, u32), (Option<String>, Option<String>)> = BTreeMap::new();
        for b in &bps {
            let top = (!is_core(&b.instance_name)).then(|| b.instance_name.clone());
            keyed.insert((b.line, b.col), (b.enable.clone(), top));
        }
        let ecall_enable = keyed.values().find_map(|(e, _)| e.clone());
        let groups: Vec<Group> = keyed
            .into_iter()
            .map(|((line, col), (enable, top))| Group {
                line,
                col,
                enable: match enable {
                    None => Enable::Always,
                    e if e == ecall_enable => Enable::Ecall,
                    Some(_) => Enable::Running,
                },
                top,
            })
            .collect();
        let ecall = groups
            .iter()
            .position(|g| g.enable == Enable::Ecall)
            .expect("core has an ECALL block");
        Catalog {
            filename,
            groups,
            ecall,
        }
    }

    /// Whether group `gi` is active at time `t` on a core.
    fn active_on(&self, gi: usize, run: &CoreRun, t: u64) -> bool {
        match self.groups[gi].enable {
            Enable::Always => true,
            Enable::Ecall => t == run.halt,
            Enable::Running => run.running(t),
        }
    }

    /// The instances on which group `gi` is active at `t`.
    pub fn active(&self, gi: usize, runs: &[CoreRun], instances: &[String], t: u64) -> Vec<String> {
        if let Some(top) = &self.groups[gi].top {
            return vec![top.clone()];
        }
        (0..runs.len())
            .filter(|&c| self.active_on(gi, &runs[c], t))
            .map(|c| instances[c].clone())
            .collect()
    }

    /// Always-active core statements with at least `after` active
    /// statements behind them in a running, non-ECALL cycle.
    pub fn condition_statements(&self, after: usize) -> Vec<usize> {
        (0..self.groups.len())
            .filter(|&gi| {
                self.groups[gi].enable == Enable::Always
                    && self.groups[gi].top.is_none()
                    && self.groups[gi + 1..]
                        .iter()
                        .filter(|g| g.enable != Enable::Ecall)
                        .count()
                        >= after
            })
            .collect()
    }

    /// Where `step` (or `reverse_step`) from group `gi` at time `t`
    /// lands: the next (previous) active statement, crossing into the
    /// next (previous) cycle when none is left in this one.
    pub fn step_target(
        &self,
        runs: &[CoreRun],
        instances: &[String],
        t: u64,
        gi: usize,
        forward: bool,
    ) -> Position {
        let n = self.groups.len();
        let mut time = t;
        let mut candidates: Vec<usize> = if forward {
            (gi + 1..n).collect()
        } else {
            (0..gi).rev().collect()
        };
        loop {
            for g in candidates {
                let active = self.active(g, runs, instances, time);
                if !active.is_empty() {
                    return Position {
                        time,
                        group: g,
                        instances: active,
                    };
                }
            }
            if forward {
                time += 1;
                candidates = (0..n).collect();
            } else {
                assert!(time > 0, "no earlier statement");
                time -= 1;
                candidates = (0..n).rev().collect();
            }
        }
    }
}

/// A position of the debugger: a statement at a time, on some
/// instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Position {
    pub time: u64,
    pub group: usize,
    pub instances: Vec<String>,
}

impl Position {
    /// Where the debugger reports this position; the backend counts
    /// `ticks` time units per cycle.
    pub fn place(&self, cat: &Catalog, ticks: u64) -> Place {
        place(
            cat,
            self.time * ticks,
            StopAt::Group(self.group),
            self.instances.clone(),
        )
    }
}

/// Where a stop at `time` is expected, as [`crate::dbg::Stop::place`]
/// reports it.
pub fn place(cat: &Catalog, time: u64, at: StopAt, instances: Vec<String>) -> Place {
    match at {
        StopAt::Watch => (time, "watchpoint".into(), 0, 0, Vec::new()),
        StopAt::Group(gi) => (
            time,
            "breakpoint".into(),
            cat.groups[gi].line,
            cat.groups[gi].col,
            instances,
        ),
    }
}

/// What an expected stop is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopAt {
    Watch,
    Group(usize),
}

/// One stop an armed `continue` must report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpStop {
    pub time: u64,
    pub at: StopAt,
    pub cores: Vec<usize>,
}

/// A live program's armed run: a condition `pc == cond_pc` on statement
/// `cond_group`, a watch on `pc == watch_pc` of core 0, and the ECALL
/// breakpoint.
#[derive(Debug, Clone)]
pub struct ArmedPlan {
    pub cond_group: usize,
    pub cond_pc: u32,
    pub watch_pc: u32,
    pub evals: Vec<&'static str>,
    pub stops: Vec<ExpStop>,
}

impl ArmedPlan {
    pub fn new(
        cat: &Catalog,
        runs: &[CoreRun],
        picks: [u64; 4],
        cond_hits: (u64, u64),
        watch_hits: (u64, u64),
    ) -> ArmedPlan {
        let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
        for run in runs {
            for (pc, n) in run.pc_counts() {
                *counts.entry(pc).or_insert(0) += n;
            }
        }
        // Not the ECALL itself (the run ends there, so a watch on it
        // would fire only once), nor the instruction before it (a watch
        // on it would fire in the ECALL cycle, and `reverse_continue`
        // from the final stop must land on a stop in an earlier cycle),
        // nor the pc a halted core parks on.
        let excluded: Vec<u32> = runs
            .iter()
            .flat_map(|r| [r.pc(r.halt - 1), r.pc(r.halt), r.pc(r.halt + 1)])
            .collect();
        // A pc executed `lo..=hi` times; failing that (a program whose
        // loops all run longer), the pcs executed least often above `hi`.
        let pick = |lo: u64, hi: u64, raw: u64, counts: &BTreeMap<u32, u64>| -> u32 {
            let eligible: Vec<(u32, u64)> = counts
                .iter()
                .filter(|(pc, n)| **pc != 0 && **n >= lo && !excluded.contains(pc))
                .map(|(pc, n)| (*pc, *n))
                .collect();
            let mut pool: Vec<u32> = eligible
                .iter()
                .filter(|(_, n)| *n <= hi)
                .map(|(pc, _)| *pc)
                .collect();
            if pool.is_empty() {
                let least = eligible
                    .iter()
                    .map(|(_, n)| *n)
                    .min()
                    .expect("program executes some pc");
                pool = eligible
                    .iter()
                    .filter(|(_, n)| *n == least)
                    .map(|(pc, _)| *pc)
                    .collect();
            }
            pool[(raw % pool.len() as u64) as usize]
        };
        let cond_pc = pick(cond_hits.0, cond_hits.1, picks[0], &counts);
        let watch_counts = runs[0].pc_counts();
        let watch_pc = pick(watch_hits.0, watch_hits.1, picks[1], &watch_counts);
        let statements = cat.condition_statements(0);
        let cond_group = statements[(picks[2] % statements.len() as u64) as usize];
        let evals = crate::inputs::Rng::new(picks[3]).choose(&crate::inputs::CHECKED_VARS, 3);
        let end = runs
            .iter()
            .map(|r| r.halt)
            .max()
            .expect("at least one core");
        let mut order = [cond_group, cat.ecall];
        order.sort_unstable();
        let mut stops = Vec::new();
        for t in 1..=end {
            let was = runs[0].pc(t - 1) == watch_pc;
            if (runs[0].pc(t) == watch_pc) != was {
                stops.push(ExpStop {
                    time: t,
                    at: StopAt::Watch,
                    cores: Vec::new(),
                });
            }
            for gi in order {
                let cores: Vec<usize> = if gi == cond_group {
                    (0..runs.len())
                        .filter(|&c| runs[c].pc(t) == cond_pc)
                        .collect()
                } else {
                    (0..runs.len()).filter(|&c| runs[c].halt == t).collect()
                };
                if !cores.is_empty() {
                    stops.push(ExpStop {
                        time: t,
                        at: StopAt::Group(gi),
                        cores,
                    });
                }
            }
        }
        if wrong(Check::StopCycles) {
            stops[0].time += 1;
        }
        ArmedPlan {
            cond_group,
            cond_pc,
            watch_pc,
            evals,
            stops,
        }
    }
}

/// A loop-head kernel with its ISS run and stop plan: the input of the
/// ide and trace phases.
pub struct Kernel {
    pub program: rv32::Program,
    pub run: CoreRun,
    pub plan: LoopPlan,
    pub loop_head: u32,
    pub evals: Vec<&'static str>,
    pub viewer_evals: Vec<&'static str>,
}

impl Kernel {
    pub fn new(k: &crate::inputs::LoopKernel, cat: &Catalog) -> Kernel {
        let run = CoreRun::new(&rv32::asm::assemble(&k.program.source).expect("kernel assembles"));
        let plan = LoopPlan::new(cat, &run, k.loop_head, k.stmt_pick);
        Kernel {
            program: k.program.clone(),
            run,
            plan,
            loop_head: k.loop_head,
            evals: k.evals.clone(),
            viewer_evals: k.viewer_evals.clone(),
        }
    }
}

/// A loop-head session: a condition `pc == loop_head` on an
/// always-active statement, stopping once per loop iteration.
#[derive(Debug, Clone)]
pub struct LoopPlan {
    pub cond_group: usize,
    pub stops: Vec<u64>,
}

impl LoopPlan {
    pub fn new(cat: &Catalog, run: &CoreRun, loop_head: u32, stmt_pick: u64) -> LoopPlan {
        let statements = cat.condition_statements(crate::inputs::IDE_STEPS);
        let cond_group = statements[(stmt_pick % statements.len() as u64) as usize];
        let mut stops = run.visits(loop_head);
        if wrong(Check::StopCycles) {
            stops[0] += 1;
        }
        LoopPlan { cond_group, stops }
    }

    /// Where the loop-head stop at cycle `t` is reported on a backend
    /// counting `ticks` time units per cycle.
    pub fn stop_place(&self, cat: &Catalog, t: u64, ticks: u64) -> Place {
        place(
            cat,
            t * ticks,
            StopAt::Group(self.cond_group),
            vec!["cpu".to_owned()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> CoreRun {
        CoreRun::new(&rv32::asm::assemble(src).unwrap())
    }

    #[test]
    fn timing_model() {
        let r = run("li a0, 5\naddi a0, a0, 2\necall\n");
        assert_eq!(r.halt, 3);
        assert_eq!(r.tohost, 7);
        assert_eq!(r.pc(1), 0);
        assert_eq!(r.pc(3), 8);
        assert_eq!(r.var(3, "a0_val"), 7);
        assert_eq!(r.var(2, "rs1_val"), 5);
        assert_eq!(r.var(4, "halted_r"), 1);
        assert_eq!(r.var(3, "halted_r"), 0);
        assert_eq!(r.var(9, "insn_count_r"), 3);
    }

    #[test]
    fn compact_states_match_the_iss_at_every_time() {
        let image = rv32::asm::assemble(&rv32::programs::multiply().source).unwrap();
        let r = CoreRun::new(&image);
        let mut iss = Iss::new(&image, 4096);
        for t in 1..=r.halt + 2 {
            assert_eq!(r.at(t), (iss.pc, iss.regs), "time {t}");
            iss.step();
        }
    }

    #[test]
    fn visits_count_loop_iterations() {
        let r = run("li t0, 0\nloop:\naddi t0, t0, 1\nli t1, 4\nblt t0, t1, loop\necall\n");
        assert_eq!(r.visits(4).len(), 4);
    }
}
