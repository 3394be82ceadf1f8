//! Design bring-up: elaborate, compile, symbol table, simulator,
//! attach — each a span of its own in the traced run.

use std::time::Instant;

use bench::CompiledCore;
use hgdb::Runtime;
use hgf::CircuitBuilder;
use hgf_ir::CircuitState;
use rtl_sim::{SimConfig, SimControl, Simulator};
use rv32::{build_core, build_dual_core, CoreConfig, Program};
use symtab::SymbolTable;

use crate::trace::{self, Mode, Probe};

/// A compiled core with its symbol table.
pub struct Design {
    pub core: CompiledCore,
    pub symbols: SymbolTable,
}

/// Compiles the single- or dual-core design in debug mode, exactly as
/// `bench::compile_core`/`bench::compile_dual` do, with elaboration and
/// the IR passes timed apart.
pub fn compile(dual: bool) -> Design {
    let cfg = CoreConfig {
        imem_words: 4096,
        dmem_words: 4096,
    };
    let top = if dual { "soc" } else { "cpu" };
    let circuit = trace::span("hgf.elaborate", || {
        let mut cb = CircuitBuilder::new();
        if dual {
            build_dual_core(&mut cb, top, cfg);
        } else {
            build_core(&mut cb, top, cfg);
        }
        cb.finish(top).expect("core elaborates")
    });
    let (circuit, debug_table) = trace::span("ir.compile", || {
        let mut state = CircuitState::new(circuit);
        let table = hgf_ir::passes::compile(&mut state, true).expect("core compiles");
        (state.circuit, table)
    });
    let core = CompiledCore {
        circuit,
        debug_table,
        top: top.into(),
    };
    let symbols = trace::span("symtab.build", || bench::symbols_for(&core));
    Design { core, symbols }
}

/// A fresh simulator with `program` loaded, attached to the runtime.
pub fn bring_up<M: Mode>(design: &Design, program: &Program) -> Runtime<M::Live> {
    let sim = trace::span("sim.build", || {
        bench::loaded_sim_with(&design.core, program, SimConfig::default())
    });
    let symbols = design.symbols.clone();
    trace::span("runtime.attach", || {
        Runtime::attach(M::live(sim), symbols).expect("runtime attaches")
    })
}

/// Measures set-up from the start of a round to the first debuggable
/// session of its first phase.
pub struct SetupClock {
    start: Instant,
    done: Option<f64>,
}

impl SetupClock {
    pub fn start() -> SetupClock {
        SetupClock {
            start: Instant::now(),
            done: None,
        }
    }

    /// Marks a session as debuggable (only the first call counts).
    pub fn ready(&mut self) {
        if self.done.is_none() {
            self.done = Some(self.start.elapsed().as_secs_f64());
        }
    }

    pub fn seconds(&self) -> f64 {
        self.done.expect("round marked its session ready")
    }
}

/// A digest of every signal and memory word of a live simulator: equal
/// digests mean identical state.
pub fn digest<S: SimControl + Probe>(sim: &S) -> u64 {
    let live: &Simulator = sim.live().expect("digest of a live simulator");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for name in live.signal_names() {
        mix(live.peek(name).map(|b| b.to_u64()).unwrap_or(u64::MAX));
    }
    let top = live.hierarchy().name;
    let cores: Vec<String> = if top == "soc" {
        vec!["soc.core0".into(), "soc.core1".into()]
    } else {
        vec![top]
    };
    for core in cores {
        for (mem, words) in [("rf", 32), ("dmem", 4096)] {
            let path = format!("{core}.{mem}");
            for addr in 0..words {
                mix(live
                    .peek_mem(&path, addr)
                    .map(|b| b.to_u64())
                    .unwrap_or(u64::MAX));
            }
        }
    }
    h
}
