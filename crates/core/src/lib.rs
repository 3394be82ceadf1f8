//! `hgdb`: the hardware generator debugger — the paper's primary
//! contribution.
//!
//! hgdb connects software source-level debugging to RTL simulation of
//! generated hardware. Designers set breakpoints in *generator* source
//! (Rust here, Scala/Chisel in the paper), inspect source-level
//! variables reconstructed from flattened RTL state, and step forward
//! *and backward* through simulated time — with near-zero simulation
//! overhead, because breakpoints are emulated in software at clock
//! edges instead of being compiled into the design (§3).
//!
//! Architecture (Figure 1):
//!
//! * [`Runtime`] attaches to any backend implementing the unified
//!   simulator interface ([`rtl_sim::SimControl`]): the live
//!   simulator or the `vcd` crate's replay engine.
//! * The symbol table ([`symtab::SymbolTable`]) supplies breakpoint
//!   locations, enable conditions and variable mappings extracted by
//!   the compiler (Algorithm 1 in `hgf-ir`).
//! * The [`scheduler`] walks the precomputed breakpoint order at each
//!   clock edge (Figure 2), forward or reversed.
//! * Debugger frontends talk JSON-RPC ([`protocol`]) over TCP or an
//!   in-process service session ([`server`], [`client`]).
//! * The [`service`] layer owns the runtime on a dedicated thread and
//!   serves any number of concurrent debugger sessions
//!   ([`DebugService`], [`TcpDebugServer`]), demultiplexed by
//!   per-session ids. Breakpoints and watchpoints are owned by the
//!   session that inserted them; stop events broadcast asynchronously
//!   to the sessions whose [`Subscription`] matches, through bounded
//!   per-session [`outbound`] queues that drop oldest events (never
//!   replies) and notify laggards.
//! * Every request takes one path: the service thread and the
//!   in-process [`service::dispatch`] run the same interpreter, and
//!   every `continue` runs the runtime's one sliced loop, which calls
//!   back between slices so the service can keep answering.
//!
//! The prose version of this layer diagram, with a data-flow
//! walkthrough, lives in `docs/ARCHITECTURE.md`; the wire protocol
//! reference is `docs/PROTOCOL.md`.
//!
//! # Examples
//!
//! ```
//! use hgf::CircuitBuilder;
//! use rtl_sim::Simulator;
//! use hgdb::{Runtime, RunOutcome};
//!
//! // Generate hardware; statement locations become breakpoint targets.
//! let mut cb = CircuitBuilder::new();
//! cb.module("counter", |m| {
//!     let out = m.output("out", 8);
//!     let count = m.reg("count", 8, Some(0));
//!     m.when(count.sig().lt(&m.lit(100, 8)), |m| {
//!         m.assign(&count, count.sig() + m.lit(1, 8));
//!     });
//!     m.assign(&out, count.sig());
//! });
//! let circuit = cb.finish("counter")?;
//! let mut state = hgf_ir::CircuitState::new(circuit);
//! let debug_table = hgf_ir::passes::compile(&mut state, true).unwrap();
//! let symbols = symtab::from_debug_table(&state.circuit, &debug_table).unwrap();
//! let sim = Simulator::new(&state.circuit).unwrap();
//!
//! let mut dbg = Runtime::attach(sim, symbols).unwrap();
//! // The conditional increment is the breakpoint with an enable.
//! let target = dbg.symbols().all_breakpoints().unwrap()
//!     .into_iter().find(|b| b.enable.is_some()).unwrap();
//! dbg.insert_breakpoint(&target.filename, target.line, None, Some("count == 3")).unwrap();
//! match dbg.continue_run(Some(1000)).unwrap() {
//!     RunOutcome::Stopped(event) => {
//!         assert_eq!(event.hits[0].local("count").unwrap().value().to_u64(), 3);
//!     }
//!     RunOutcome::Finished { .. } => panic!("breakpoint should hit"),
//! }
//! # Ok::<(), hgf_ir::IrError>(())
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod client;
pub mod expr;
pub mod fault;
pub mod frame;
pub mod outbound;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod service;

mod runtime;
mod symbols;

pub use checkpoint::{Checkpoint, CheckpointConfig, CheckpointRing};
pub use client::{ClientError, DebugClient};
pub use expr::DebugExpr;
pub use fault::{FaultPlan, WireFault};
pub use frame::{build_var_tree, Frame, VarNode};
pub use outbound::{outbound_queue, Outbound, OutboundQueue, OutboundReceiver, RecvTimeoutError};
pub use protocol::SessionId;
pub use runtime::{
    BreakpointListing, DebugError, RunOutcome, Runtime, StopEvent, StopKind, WatchHit,
    WatchpointListing, LOCAL_SESSION,
};
pub use scheduler::{Group, Scheduler};
pub use server::{RecvOutcome, TcpTransport, Transport};
pub use service::{
    serve, DebugService, ServiceHandle, ServicePanicked, ServiceTransport, Subscription,
    TcpDebugServer, TcpServerConfig,
};
