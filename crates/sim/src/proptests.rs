//! Cross-cutting property tests for the simulator, complementing the
//! bytecode-vs-treewalk proptest in [`crate::compile`]:
//!
//! 1. **Def order** over random DAGs: [`topo_order`] returns a
//!    permutation that respects every edge, and on a cyclic graph its
//!    residual in-degrees mark every def on the cycle and nothing
//!    upstream of it.
//! 2. **Engine equivalences** over random netlists: a simulator
//!    configured with several `workers` is bit-identical to the default
//!    one, the four-state engine collapses to the two-state one on
//!    fully-driven designs, a mid-run snapshot replays bit-identically
//!    in a fresh simulator, and the def order is topological when
//!    dependencies are read back from the bytecode.

use bits::Bits;
use hgf::{CircuitBuilder, Signal};
use proptest::prelude::*;

use crate::compile::{topo_order, Op, WordOp};
use crate::netlist::FlatNetlist;
use crate::{SimConfig, SimControl, Simulator};

/// Deterministic SplitMix64 (same scheme as the compile.rs proptest).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Random DAG over `n` defs with randomly permuted labels, so
/// declaration order is rarely a topological order. Returns `preds`.
fn arb_dag(rng: &mut Rng) -> Vec<Vec<usize>> {
    let n = 1 + rng.below(40) as usize;
    let edge_pct = 5 + rng.below(25);
    let mut label: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        label.swap(i, rng.below(i as u64 + 1) as usize);
    }
    // Edges point from lower to higher rank; rank r is def label[r].
    let mut preds = vec![Vec::new(); n];
    for d in 0..n {
        preds[label[d]] = (0..d)
            .filter(|_| rng.chance(edge_pct))
            .map(|p| label[p])
            .collect();
    }
    preds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The def order is a permutation that respects every edge; once a
    /// back edge closes a cycle there is no order, and the residual
    /// in-degrees are nonzero on the cycle and zero on every def whose
    /// predecessors are all ordered.
    #[test]
    fn partition_invariants_hold_on_random_dags(seed in any::<u64>()) {
        let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1);
        let mut preds = arb_dag(&mut rng);
        let n = preds.len();
        let order = topo_order(&preds).unwrap();

        prop_assert_eq!(order.len(), n);
        let mut pos = vec![usize::MAX; n];
        for (i, &d) in order.iter().enumerate() {
            prop_assert_eq!(pos[d], usize::MAX, "def {} appears twice", d);
            pos[d] = i;
        }
        for (d, ps) in preds.iter().enumerate() {
            for &pr in ps {
                prop_assert!(pos[pr] < pos[d], "order breaks edge {} -> {}", pr, d);
            }
        }

        // Close a cycle: some def `d` with a predecessor `p` now also
        // feeds `p`.
        let Some(d) = (0..n).find(|&d| !preds[d].is_empty()) else {
            return Ok(());
        };
        let p = preds[d][0];
        preds[p].push(d);
        let residual = topo_order(&preds).unwrap_err();
        prop_assert!(residual[p] > 0 && residual[d] > 0, "cycle {} <-> {} ordered", p, d);
        for (v, ps) in preds.iter().enumerate() {
            if ps.iter().all(|&pr| residual[pr] == 0) {
                prop_assert_eq!(residual[v], 0, "def {} has only ordered preds", v);
            }
        }
    }
}

/// Width shared by all generated signals (keeps every handle
/// combinable with every other and still exercises multi-bit values).
const GEN_WIDTH: u32 = 24;
const GEN_MASK: u64 = (1 << GEN_WIDTH) - 1;

/// Builds a random circuit: `groups` independent combinational
/// clusters over disjoint input sets, registers whose next-values may
/// read any cluster, and a memory with a combinational read and a
/// synchronous write port. Returns the input paths to drive.
fn build_random_circuit(rng: &mut Rng) -> (hgf_ir::CircuitState, Vec<String>) {
    let groups = 1 + rng.below(4) as usize;
    let nodes_per_group = 2 + rng.below(8) as usize;
    let nregs = rng.below(4) as usize;
    let with_mem = rng.chance(60);
    // Pre-draw every random decision so both builder closures see the
    // identical circuit (the closure runs once per simulator).
    let mut script: Vec<u64> = Vec::new();
    for _ in 0..4096 {
        script.push(rng.next());
    }

    let build = |script: &[u64]| {
        let mut k = 0usize;
        let mut draw = move || {
            let v = script[k % script.len()];
            k += 1;
            v
        };
        let mut cb = CircuitBuilder::new();
        let mut inputs = Vec::new();
        cb.module("rand", |m| {
            // Per-group pools of combinational handles.
            let mut pools: Vec<Vec<Signal>> = Vec::new();
            for g in 0..groups {
                let name = format!("in{g}");
                let sig = m.input(&name, GEN_WIDTH);
                inputs.push(format!("rand.{name}"));
                pools.push(vec![sig]);
            }
            // Stable pool: register outputs, readable by any group
            // (registers are not defs).
            let mut regs = Vec::new();
            for r in 0..nregs {
                let init = draw() & GEN_MASK;
                let reg = m.reg(format!("r{r}"), GEN_WIDTH, Some(init));
                for pool in &mut pools {
                    pool.push(reg.sig());
                }
                regs.push(reg);
            }
            let mut node_id = 0usize;
            let mut grown: Vec<Vec<Signal>> = vec![Vec::new(); groups];
            for _ in 0..nodes_per_group {
                for g in 0..groups {
                    let pool = &pools[g];
                    let a = &pool[(draw() % pool.len() as u64) as usize];
                    let b = &pool[(draw() % pool.len() as u64) as usize];
                    let expr = match draw() % 8 {
                        0 => a + b,
                        1 => a - b,
                        2 => a ^ b,
                        3 => a & b,
                        4 => a | b,
                        5 => a * b,
                        6 => !a.clone(),
                        _ => a.bit(0).select(b, &(a ^ b)),
                    };
                    let node = m.node(format!("n{node_id}"), expr);
                    node_id += 1;
                    pools[g].push(node.clone());
                    grown[g].push(node);
                }
            }
            // Register next-values read from any group's grown pool.
            for (r, reg) in regs.iter().enumerate() {
                let g = (draw() % groups as u64) as usize;
                let pool = if grown[g].is_empty() {
                    &pools[g]
                } else {
                    &grown[g]
                };
                let src = &pool[(draw() % pool.len() as u64) as usize];
                m.assign(reg, src + &m.lit((r as u64 + 1) & GEN_MASK, GEN_WIDTH));
            }
            if with_mem {
                let mem = m.mem("m0", GEN_WIDTH, 16);
                let g = (draw() % groups as u64) as usize;
                let addr_src = pools[g].last().unwrap().clone();
                let rd = m.mem_read(&mem, "m0_out", addr_src.slice(3, 0));
                let gd = (draw() % groups as u64) as usize;
                let data = pools[gd].last().unwrap().clone();
                let en = pools[gd][0].bit(0);
                m.mem_write(&mem, data.slice(7, 4), data, en);
                let out = m.output("mem_o", GEN_WIDTH);
                m.assign(&out, rd + m.lit(1, GEN_WIDTH));
            }
            // Expose each group's last node so nothing is dead.
            for (g, pool) in pools.iter().enumerate() {
                let out = m.output(format!("o{g}"), GEN_WIDTH);
                m.assign(&out, pool.last().unwrap().clone());
            }
        });
        let circuit = cb.finish("rand").unwrap();
        let mut state = hgf_ir::CircuitState::new(circuit);
        hgf_ir::passes::compile(&mut state, false).unwrap();
        (state, inputs)
    };

    build(&script)
}

/// A simulator over the random circuit, optionally in four-state mode.
fn sim_with_mode(state: &hgf_ir::CircuitState, four_state: bool) -> Simulator {
    let config = if four_state {
        SimConfig::default().four_state()
    } else {
        SimConfig::default()
    };
    Simulator::with_config(&state.circuit, config).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No engine code reads `SimConfig::workers`: a simulator
    /// configured for several workers runs the same sweep and must be
    /// bit-identical to the default one, with the same signals every
    /// cycle, the same memory contents and the same `defs_evaluated`
    /// counter.
    #[test]
    fn parallel_equals_sequential_on_random_netlists(seed in any::<u64>()) {
        let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
        let (state, inputs) = build_random_circuit(&mut rng);
        let mut seq = sim_with_mode(&state, false);
        let config = SimConfig {
            workers: 2 + rng.below(3) as usize,
            ..SimConfig::default()
        };
        let mut par = Simulator::with_config(&state.circuit, config).unwrap();
        let paths = seq.signal_paths();

        seq.reset(2);
        par.reset(2);
        for cycle in 0..12u64 {
            for path in &inputs {
                let v = Bits::from_u64(rng.next() & GEN_MASK, GEN_WIDTH);
                seq.poke(path, v.clone()).unwrap();
                par.poke(path, v).unwrap();
            }
            seq.step_clock();
            par.step_clock();
            for path in &paths {
                prop_assert_eq!(
                    seq.peek(path).unwrap(),
                    par.peek(path).unwrap(),
                    "cycle {} signal {} diverged (seed {})",
                    cycle,
                    path,
                    seed
                );
            }
        }
        prop_assert_eq!(seq.defs_evaluated(), par.defs_evaluated(),
            "eval counters diverged (seed {})", seed);
        for addr in 0..16 {
            prop_assert_eq!(
                seq.peek_mem("rand.m0", addr),
                par.peek_mem("rand.m0", addr),
                "memory word {} diverged (seed {})", addr, seed
            );
        }
    }

    /// On a fully-driven, fully-reset design, four-state evaluation is
    /// two-state evaluation: every random netlist here has all
    /// registers in the reset tree and all inputs poked every cycle,
    /// so after reset the unknown planes must be identically zero and
    /// every value bit-identical to the two-state engine.
    #[test]
    fn four_state_collapses_to_two_state_when_fully_driven(seed in any::<u64>()) {
        let mut rng = Rng(seed.wrapping_mul(0x6a09_e667_f3bc_c909) | 1);
        let (state, inputs) = build_random_circuit(&mut rng);
        let mut two = sim_with_mode(&state, false);
        let mut four = sim_with_mode(&state, true);
        let paths = two.signal_paths();
        for sim in [&mut two, &mut four] {
            sim.reset(2);
        }
        for cycle in 0..12u64 {
            let stim: Vec<Bits> = inputs
                .iter()
                .map(|_| Bits::from_u64(rng.next() & GEN_MASK, GEN_WIDTH))
                .collect();
            for sim in [&mut two, &mut four] {
                for (path, v) in inputs.iter().zip(&stim) {
                    sim.poke(path, v.clone()).unwrap();
                }
                sim.step_clock();
            }
            for path in &paths {
                let expected = two.peek(path).unwrap();
                let got = four.peek4(path).unwrap();
                prop_assert!(
                    got.unknown().is_zero(),
                    "cycle {} {} still unknown in four-state (seed {})",
                    cycle, path, seed
                );
                prop_assert_eq!(
                    got.value(), &expected,
                    "cycle {} {} diverged in four-state (seed {})",
                    cycle, path, seed
                );
            }
        }
    }

    /// A mid-run snapshot restored into a freshly built simulator and
    /// replayed under identical stimulus must be bit-identical to the
    /// uninterrupted run: every signal every cycle, final memory
    /// contents, and the eval counter.
    #[test]
    fn snapshot_roundtrip_equivalent_on_random_netlists(seed in any::<u64>()) {
        let mut rng = Rng(seed.wrapping_mul(0x9e6c_7f4a_b958_2d31) | 1);
        let (state, inputs) = build_random_circuit(&mut rng);
        let mut clean = sim_with_mode(&state, false);
        let paths = clean.signal_paths();
        // Pre-draw the stimulus so every replay pokes identical values.
        let cycles = 12usize;
        let stim: Vec<Vec<Bits>> = (0..cycles)
            .map(|_| {
                inputs
                    .iter()
                    .map(|_| Bits::from_u64(rng.next() & GEN_MASK, GEN_WIDTH))
                    .collect()
            })
            .collect();
        let drive = |sim: &mut Simulator, t: usize| {
            for (path, v) in inputs.iter().zip(&stim[t]) {
                sim.poke(path, v.clone()).unwrap();
            }
            sim.step_clock();
        };
        // Uninterrupted reference run, snapshotting at mid-point.
        clean.reset(2);
        let snap_at = cycles / 2;
        let mut snap = None;
        let mut tail_frames: Vec<Vec<Bits>> = Vec::new();
        for t in 0..cycles {
            if t == snap_at {
                snap = Some(clean.snapshot());
            }
            drive(&mut clean, t);
            if t >= snap_at {
                tail_frames.push(paths.iter().map(|p| clean.peek(p).unwrap()).collect());
            }
        }
        let snap = snap.unwrap();
        let clean_evals = clean.defs_evaluated();
        // Restore into a freshly built simulator and replay.
        let mut replay = sim_with_mode(&state, false);
        replay.restore(&snap).unwrap();
        prop_assert_eq!(replay.time(), snap.time());
        for (k, t) in (snap_at..cycles).enumerate() {
            drive(&mut replay, t);
            for (p, expect) in paths.iter().zip(&tail_frames[k]) {
                prop_assert_eq!(
                    &replay.peek(p).unwrap(), expect,
                    "cycle {} signal {} diverged after restore (seed {})",
                    t, p, seed
                );
            }
        }
        prop_assert_eq!(replay.defs_evaluated(), clean_evals,
            "eval counters diverged after restore (seed {})", seed);
        for addr in 0..16 {
            prop_assert_eq!(
                replay.peek_mem("rand.m0", addr),
                clean.peek_mem("rand.m0", addr),
                "memory word {} diverged after restore (seed {})",
                addr, seed
            );
        }
    }

    /// No bytecode edge points forward in the def list: every signal a
    /// def reads, recovered straight from the compiled bytecode
    /// (`Op::Sig` and `WordOp::Sig` scans) rather than the `CExpr::deps` walk the
    /// topological sort consumed, is an input, a register or the
    /// output of an earlier def, so one forward sweep reaches the
    /// zero-delay fixpoint.
    #[test]
    fn netlist_partition_has_no_cross_region_bytecode_edges(seed in any::<u64>()) {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let (state, _) = build_random_circuit(&mut rng);
        let nl = FlatNetlist::build(&state.circuit).unwrap();

        // sig -> defining def index, straight from the def list.
        let mut def_of = vec![usize::MAX; nl.names.len()];
        for (di, def) in nl.defs.iter().enumerate() {
            prop_assert_eq!(def_of[def.sig], usize::MAX, "double-driven signal");
            def_of[def.sig] = di;
        }
        for (di, def) in nl.defs.iter().enumerate() {
            // Both instruction forms name a signal by its first word.
            let slot = |off: u32| nl.layout.sig_off.partition_point(|&o| o <= off) - 1;
            let (start, end) = def.code.ops;
            let mut reads: Vec<usize> = (start..end)
                .filter_map(|pc| match nl.program.ops[pc as usize] {
                    Op::Sig { off, .. } => Some(slot(off)),
                    _ => None,
                })
                .collect();
            let (start, end) = def.code.word.unwrap_or((0, 0));
            reads.extend((start..end).filter_map(|pc| match nl.program.word_ops[pc as usize] {
                WordOp::Sig(off) => Some(slot(off)),
                _ => None,
            }));
            for s in reads {
                prop_assert!(
                    nl.is_input[s] || nl.is_reg[s] || def_of[s] < di,
                    "def {} reads {} before it is defined (seed {})",
                    di, nl.names[s], seed
                );
            }
        }
    }
}
