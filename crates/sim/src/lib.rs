#![warn(missing_docs)]
//! `rtl-sim`: a zero-delay, levelized RTL simulator with the hgdb
//! unified simulator interface.
//!
//! Stands in for the commercial simulators (VCS, Xcelium, Verilator)
//! the paper attaches to through VPI. The two properties §3 of the
//! paper relies on hold by construction:
//!
//! 1. designs are synchronous — state changes only at the rising clock
//!    edge;
//! 2. zero-delay combinational models — after each levelized sweep,
//!    every signal is stable, so breakpoints need only be evaluated at
//!    clock edges.
//!
//! The seam between hgdb and any simulator is the [`SimControl`]
//! trait (the paper's "unified simulator interface", Figure 1); a VPI
//! binding to a real simulator would implement the same five
//! primitives. Clock-edge callbacks ([`Simulator::add_clock_callback`])
//! are the mechanism whose near-zero overhead Figure 5 demonstrates.
//!
//! # Fast paths
//!
//! Combinational logic executes as compiled bytecode over an
//! incremental dirty set (see the [`Simulator`] docs): one sweep walks
//! the definitions in topological order, state changes re-evaluate
//! only their fan-out cone, and values ≤ 64 bits never touch the heap.
//! Per-cycle instrumentation should intern paths once with
//! [`Simulator::signal_id`] (or [`SimControl::signal_id`] when written
//! against the trait) and read through [`Simulator::peek_id`] /
//! [`SimControl::get_value_by_id`] — a dense-index load instead of a
//! string hash per sample. [`ClockView::get_value_id`] is the same
//! fast path inside clock callbacks.
//!
//! # Examples
//!
//! ```
//! use hgf::CircuitBuilder;
//! use rtl_sim::{Simulator, SimControl};
//! use bits::Bits;
//!
//! let mut cb = CircuitBuilder::new();
//! cb.module("inc", |m| {
//!     let x = m.input("x", 8);
//!     let y = m.output("y", 8);
//!     m.assign(&y, x + m.lit(1, 8));
//! });
//! let circuit = cb.finish("inc")?;
//! let mut state = hgf_ir::CircuitState::new(circuit);
//! hgf_ir::passes::compile(&mut state, false).unwrap();
//! let mut sim = Simulator::new(&state.circuit).unwrap();
//! sim.poke("inc.x", Bits::from_u64(41, 8)).unwrap();
//! assert_eq!(sim.peek("inc.y").unwrap().to_u64(), 42);
//! # Ok::<(), hgf_ir::IrError>(())
//! ```

mod compile;
mod control;
mod netlist;
#[cfg(test)]
mod proptests;
mod simulator;

pub use control::{HierNode, SignalId, SimControl, SimError};
pub use netlist::FlatNetlist;
pub use simulator::{CallbackId, ClockCallback, ClockView, SimConfig, Simulator, Snapshot};
