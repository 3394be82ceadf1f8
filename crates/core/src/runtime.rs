//! The hgdb debugger runtime.
//!
//! Owns a simulator backend (through the unified [`SimControl`]
//! interface — live simulation or trace replay), the symbol table, and
//! the breakpoint scheduler. Implements the execution model of §3:
//! breakpoints are emulated by evaluating enable + user conditions
//! against stable signal values at each rising clock edge, walking the
//! precomputed group order forward — or backward for reverse
//! debugging.
//!
//! # Session ownership
//!
//! All user-inserted debug state — breakpoints *and* watchpoints — is
//! owned by a [`SessionId`]. Many concurrent debugger sessions share
//! one runtime (via [`crate::DebugService`]) without clobbering each
//! other: each session inserts, lists, and removes only its own
//! entries, execution stops for the *union* of every session's state,
//! and each [`StopEvent`] names the sessions whose breakpoints or
//! watchpoints actually matched (`StopEvent::sessions`). Code that
//! embeds the runtime directly (tests, examples, single-user tools)
//! uses the ownerless convenience methods, which act as the reserved
//! [`LOCAL_SESSION`] owner.
//!
//! # Watchpoints
//!
//! A watchpoint stops execution when a watched expression's value
//! changes between evaluation points (rising clock edges during
//! [`Runtime::continue_run`]). The expression is parsed once at insert
//! time and its signal references are interned against the backend
//! (the same compiled-expression machinery breakpoint conditions use),
//! so the per-cycle check is cheap.
//!
//! # The `continue` loop
//!
//! Every `continue` — [`Runtime::continue_run`], `dispatch`, a service
//! session — runs one loop: the Figure 2 walk in bounded slices, with
//! per-request cycle and wall-clock budgets, a bounded finish, and a
//! hook between slices through which the service pumps its command
//! queue and honors `interrupt`.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use bits::{Bits, Bits4};
use rtl_sim::{HierNode, SimControl, SimError};
use symtab::{BreakpointInfo, SymbolTable};

use crate::checkpoint::{CheckpointConfig, CheckpointRing};
use crate::expr::{Bound, DebugExpr, ExprError};
use crate::fault::FaultPlan;
use crate::frame::Frame;
use crate::protocol::SessionId;
use crate::scheduler::Scheduler;
use crate::symbols::{scoped_candidates, SignalRef, SymbolIndex};

/// The owner id used by the direct (embedded) `Runtime` API when no
/// debug service is involved. Service-assigned session ids start at 1,
/// so the two namespaces never collide.
pub const LOCAL_SESSION: SessionId = 0;

/// Errors surfaced by the debugger runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum DebugError {
    /// Symbol-table query failed.
    Symbols(String),
    /// Expression parse/eval failure.
    Expr(ExprError),
    /// Simulator interface failure.
    Sim(SimError),
    /// No breakpoint exists at the requested source location.
    NoSource {
        /// Requested file.
        filename: String,
        /// Requested line.
        line: u32,
    },
    /// Unknown breakpoint id (or one owned by another session).
    NoSuchBreakpoint(i64),
    /// Unknown watchpoint id (or one owned by another session).
    NoSuchWatchpoint(i64),
    /// Reverse debugging requested but the backend is forward-only.
    ReverseUnsupported,
    /// Unknown instance name.
    NoSuchInstance(String),
    /// No retained checkpoint covers the requested cycle.
    NoCheckpoint(u64),
    /// The runtime is degraded: crash recovery failed, so simulation
    /// state may be inconsistent. Advancing requests are refused until
    /// an explicit restore succeeds.
    Degraded(String),
}

impl fmt::Display for DebugError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DebugError::Symbols(msg) => write!(f, "symbol table: {msg}"),
            DebugError::Expr(e) => write!(f, "expression: {e}"),
            DebugError::Sim(e) => write!(f, "simulator: {e}"),
            DebugError::NoSource { filename, line } => {
                write!(f, "no breakpoint at {filename}:{line}")
            }
            DebugError::NoSuchBreakpoint(id) => write!(f, "no breakpoint with id {id}"),
            DebugError::NoSuchWatchpoint(id) => write!(f, "no watchpoint with id {id}"),
            DebugError::ReverseUnsupported => {
                write!(f, "backend does not support reverse debugging")
            }
            DebugError::NoSuchInstance(name) => write!(f, "no instance named {name}"),
            DebugError::NoCheckpoint(cycle) => {
                write!(f, "no checkpoint at or before cycle {cycle}")
            }
            DebugError::Degraded(msg) => {
                write!(
                    f,
                    "runtime degraded ({msg}); restore a checkpoint to recover"
                )
            }
        }
    }
}

impl std::error::Error for DebugError {}

impl From<ExprError> for DebugError {
    fn from(e: ExprError) -> Self {
        DebugError::Expr(e)
    }
}

impl From<SimError> for DebugError {
    fn from(e: SimError) -> Self {
        DebugError::Sim(e)
    }
}

/// Why execution stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// A breakpoint group matched; frames attached.
    Stopped(StopEvent),
    /// The simulation ended (cycle budget, end of trace) without a
    /// hit.
    Finished {
        /// Final simulation time.
        time: u64,
    },
}

/// What kind of stop a [`StopEvent`] reports — the wire `reason`.
///
/// `Breakpoint` and `Watchpoint` are *debug* stops: user-inserted
/// state matched, frames or watch hits are attached, and the stop is
/// broadcast to subscribed sessions. `Interrupted` and
/// `BudgetExhausted` are *control* stops: the run was cut short by a
/// [`crate::protocol::Request::Interrupt`] or by the request's own
/// cycle/wall-clock budget. Control stops carry no frames, are private
/// to the requesting session (never broadcast), and are not valid
/// subscription kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopKind {
    /// A breakpoint group matched.
    Breakpoint,
    /// A watched expression changed value across a clock edge.
    Watchpoint,
    /// The run was stopped by an `interrupt` request.
    Interrupted,
    /// The run exhausted its per-request cycle or wall-clock budget.
    BudgetExhausted,
    /// Execution state was rewound to a checkpoint (explicit restore
    /// or automatic crash recovery). Broadcast so viewers resync any
    /// cached frames and values.
    Restored,
}

impl StopKind {
    /// The wire string (`reason` field).
    pub fn as_str(self) -> &'static str {
        match self {
            StopKind::Breakpoint => "breakpoint",
            StopKind::Watchpoint => "watchpoint",
            StopKind::Interrupted => "interrupted",
            StopKind::BudgetExhausted => "budget_exhausted",
            StopKind::Restored => "restored",
        }
    }

    /// Whether stops of this kind are broadcast to other sessions.
    /// Control stops (interrupt, budget) concern only the session
    /// whose run was cut short — nothing about the shared simulation
    /// state is newsworthy to viewers. Restores *are* broadcast: the
    /// shared simulation jumped to a different cycle, so every viewer's
    /// cached frames and values are stale.
    pub fn is_broadcast(self) -> bool {
        matches!(
            self,
            StopKind::Breakpoint | StopKind::Watchpoint | StopKind::Restored
        )
    }
}

/// Cycle bound of one `continue` slice. Large enough that the cost of
/// a slice boundary (a hook call, a clock read) vanishes against
/// per-cycle evaluation, small enough that a slice of a small design
/// completes in well under a millisecond.
const SLICE_CYCLES: u64 = 2048;

/// Wall-clock bound of one `continue` slice, for designs slow enough
/// that even [`SLICE_CYCLES`] cycles would keep the between-slice hook
/// waiting. This is the service's worst-case responsiveness while a
/// continue is in flight (the chaos suite's 50ms bound leaves ~10x
/// headroom).
const SLICE_WALL: Duration = Duration::from_millis(5);

/// One bounded slice of a `continue` — see [`Runtime::continue_slice`].
#[derive(Debug, Clone, PartialEq)]
enum SliceOutcome {
    /// A breakpoint or watchpoint hit inside the slice.
    Stopped(StopEvent),
    /// The backend ended (end of trace) inside the slice.
    Finished {
        /// Final simulation time.
        time: u64,
    },
    /// The slice's cycle or wall-clock bound elapsed without a hit;
    /// the run can be resumed with another slice (the in-cycle cursor
    /// persists across slices).
    Expired {
        /// Clock cycles actually consumed by this slice.
        cycles: u64,
    },
}

/// A stop: either a breakpoint group (one source location, one or
/// more concurrent instances — "threads", Figure 4 B) or a watchpoint
/// value change (no source location, `watch_hits` populated).
#[derive(Debug, Clone, PartialEq)]
pub struct StopEvent {
    /// Simulation time of the stop.
    pub time: u64,
    /// Source file of the group (empty for watchpoint stops).
    pub filename: String,
    /// Line of the group (0 for watchpoint stops).
    pub line: u32,
    /// Column of the group (0 for watchpoint stops).
    pub col: u32,
    /// One frame per matching instance (empty for watchpoint stops).
    pub hits: Vec<Frame>,
    /// The sessions whose breakpoints or watchpoints matched, sorted
    /// and deduplicated. Empty when the stop came from stepping (no
    /// user-inserted state involved) or is a control stop.
    pub sessions: Vec<SessionId>,
    /// The watchpoints that fired, when this is a watchpoint stop.
    pub watch_hits: Vec<WatchHit>,
    /// Why execution stopped (breakpoint, watchpoint, interrupt,
    /// budget exhaustion).
    pub reason: StopKind,
}

impl StopEvent {
    /// The event's kind as it appears on the wire (`reason` field) and
    /// in subscription filters. The single source of truth — the
    /// protocol encoder and [`crate::Subscription::matches`] both call
    /// this, so the wire `reason` and the filter can never disagree.
    pub fn kind(&self) -> &'static str {
        self.reason.as_str()
    }
}

/// One watchpoint firing: the watched expression's value changed
/// across a clock edge.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchHit {
    /// Watchpoint id.
    pub id: i64,
    /// Owning session.
    pub owner: SessionId,
    /// Watched expression text.
    pub expr: String,
    /// Value before the edge (four-state: an unreset register reads
    /// all-`x` here until the reset tree reaches it).
    pub old: Bits4,
    /// Value after the edge. Comparison is plane-wise, so an X→known
    /// resolution fires a watchpoint like any other value change.
    pub new: Bits4,
}

/// An enable or condition, bound for a breakpoint's instance: each
/// name it references reads the first of its candidate signals that
/// has a value — `{instance}.{name}`, then `name` as an absolute path
/// (see [`scoped_candidates`]).
type ScopedExpr = Bound<Vec<SignalRef>>;

/// Binds an enable or condition for the breakpoint of `instance`.
/// Called once, at attach or insert.
fn bind_scoped<S: SimControl>(sim: &S, instance: &str, expr: &DebugExpr) -> ScopedExpr {
    expr.bind(|name| scoped_candidates(sim, instance, name))
}

/// Evaluates an enable or condition. This is the per-cycle path: every
/// name reads through its bound signals, with no lookup by name.
/// Four-state so enable/condition evaluation sees unknown planes; on
/// two-state backends every value comes back fully known.
fn eval_scoped<S: SimControl>(sim: &S, expr: &ScopedExpr) -> Result<Bits4, ExprError> {
    expr.eval4(&|_, candidates| candidates.iter().find_map(|c| c.read(sim)))
}

/// A statically known breakpoint with its pre-parsed enable.
#[derive(Debug)]
struct StaticBp {
    info: BreakpointInfo,
    enable: Option<ScopedExpr>,
    /// Whether an enable-evaluation error was already recorded (a
    /// `Cell` because the group walk holds the table immutably on the
    /// hot path). Without it, an unresolvable enable in a partial
    /// trace would append one diagnostic per cycle.
    enable_error_reported: std::cell::Cell<bool>,
    /// The owning instance's slot in the symbol index (`None` when
    /// the instance table does not name it).
    instance: Option<usize>,
}

/// One session's insertion of a breakpoint (its condition and hit
/// count are private to that session).
#[derive(Debug, Default)]
struct Inserted {
    condition: Option<ScopedExpr>,
    condition_text: Option<String>,
    hit_count: u64,
    /// Whether a condition-evaluation error was already recorded (so
    /// a broken condition does not append one diagnostic per instance
    /// per simulated cycle).
    cond_error_reported: bool,
}

/// A session-owned watchpoint: a pre-parsed expression plus the value
/// it held at the last evaluation point.
#[derive(Debug)]
struct Watch {
    owner: SessionId,
    instance: Option<String>,
    expr_text: String,
    /// The watched expression, each name bound at insert to the signal
    /// chosen by [`Runtime::watch_ref_path`].
    expr: Bound<SignalRef>,
    /// Comparison baseline, four-state: `Bits4`'s plane-wise equality
    /// makes an X→known resolution (reset finally reaching a register)
    /// an ordinary value change, so the watch fires on it.
    last: Bits4,
    hit_count: u64,
    /// Whether an evaluation error was already recorded (so a broken
    /// watch does not append one diagnostic per simulated cycle).
    error_reported: bool,
}

/// A user-visible watchpoint listing entry.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchpointListing {
    /// Watchpoint id.
    pub id: i64,
    /// Instance context, if any.
    pub instance: Option<String>,
    /// Watched expression text.
    pub expr: String,
    /// Value at the last evaluation point (may carry `x`/`z` bits on a
    /// four-state backend).
    pub value: Bits4,
    /// Times the watched value changed.
    pub hit_count: u64,
}

/// A user-visible breakpoint listing entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakpointListing {
    /// Breakpoint id.
    pub id: i64,
    /// Source file.
    pub filename: String,
    /// Line.
    pub line: u32,
    /// Column.
    pub col: u32,
    /// Owning instance path.
    pub instance: String,
    /// User condition text, if any.
    pub condition: Option<String>,
    /// Hit count so far.
    pub hit_count: u64,
}

/// The debugger runtime over any simulator backend.
pub struct Runtime<S: SimControl> {
    sim: S,
    symbols: SymbolTable,
    /// The symbol table's variable mappings, resolved at attach: frames,
    /// `eval`, `set_variable` and watch insertion read these instead of
    /// querying `symbols`.
    index: SymbolIndex,
    scheduler: Scheduler,
    static_bps: BTreeMap<i64, StaticBp>,
    /// Per-breakpoint, per-owning-session insertions. Execution stops
    /// for the union; listings and removals are per session.
    inserted: BTreeMap<i64, BTreeMap<SessionId, Inserted>>,
    /// Session-owned watchpoints by id.
    watchpoints: BTreeMap<i64, Watch>,
    next_watch_id: i64,
    stopped: Option<StopEvent>,
    /// Non-fatal evaluation problems (unresolvable enables in a
    /// partial trace, etc.), for the user to inspect.
    diagnostics: Vec<String>,
    /// Compile-time lint report recorded at attach time, when the
    /// frontend ran the battery. Absent, `lint_report` falls back to a
    /// live symbol-coverage pass.
    lint_report: Option<hgdb_lint::Report>,
    /// Retained snapshots for crash recovery and reverse debugging.
    checkpoints: CheckpointRing,
    /// When `Some`, crash recovery failed and simulation state may be
    /// inconsistent: advancing operations refuse with
    /// [`DebugError::Degraded`] until an explicit restore succeeds.
    degraded: Option<String>,
    /// Panic-injection points armed on this runtime (chaos tests only;
    /// empty otherwise).
    faults: FaultPlan,
}

impl<S: SimControl> fmt::Debug for Runtime<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("breakpoints", &self.static_bps.len())
            .field("inserted", &self.inserted.len())
            .field("time", &self.sim.time())
            .finish()
    }
}

impl<S: SimControl> Runtime<S> {
    /// Attaches the debugger to a backend with a symbol table,
    /// precomputing the breakpoint ordering (§3.2) and the symbol
    /// index: every scope local and generator variable interned
    /// against the backend, and every enable bound to its signals.
    ///
    /// # Errors
    ///
    /// Fails if the symbol table cannot be queried or an enable
    /// condition stored in it does not parse (a compiler bug).
    pub fn attach(sim: S, symbols: SymbolTable) -> Result<Runtime<S>, DebugError> {
        let bps = symbols
            .all_breakpoints()
            .map_err(|e| DebugError::Symbols(e.to_string()))?;
        let scheduler = Scheduler::from_breakpoints(&bps);
        let index = SymbolIndex::build(&sim, &symbols).map_err(DebugError::Symbols)?;
        let mut static_bps = BTreeMap::new();
        for info in bps {
            let enable = info
                .enable
                .as_deref()
                .map(DebugExpr::parse)
                .transpose()?
                .map(|e| bind_scoped(&sim, &info.instance_name, &e));
            let instance = index.instance(&info.instance_name);
            static_bps.insert(
                info.id,
                StaticBp {
                    info,
                    enable,
                    enable_error_reported: std::cell::Cell::new(false),
                    instance,
                },
            );
        }
        Ok(Runtime {
            sim,
            symbols,
            index,
            scheduler,
            static_bps,
            inserted: BTreeMap::new(),
            watchpoints: BTreeMap::new(),
            next_watch_id: 1,
            stopped: None,
            diagnostics: Vec::new(),
            lint_report: None,
            checkpoints: CheckpointRing::new(CheckpointConfig::from_env()),
            degraded: None,
            faults: FaultPlan::default(),
        })
    }

    /// Records the compile-time lint report so `lint` requests can
    /// serve the full battery's findings (not just live coverage).
    pub fn set_lint_report(&mut self, report: hgdb_lint::Report) {
        self.lint_report = Some(report);
    }

    /// The design's static-analysis report: the recorded compile-time
    /// report when one was attached, otherwise a live L007
    /// symbol-coverage pass verifying every symbol-table variable
    /// still resolves against the backend.
    pub fn lint_report(&self) -> hgdb_lint::Report {
        if let Some(report) = &self.lint_report {
            return report.clone();
        }
        let paths = self.symbols.variable_paths().unwrap_or_default();
        hgdb_lint::symbol_coverage_live(paths.iter().map(String::as_str), &|p| {
            self.sim.get_value(p).is_some()
        })
    }

    /// The symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The backend (read access).
    pub fn sim(&self) -> &S {
        &self.sim
    }

    /// The backend (mutable, for testbench drive).
    pub fn sim_mut(&mut self) -> &mut S {
        &mut self.sim
    }

    /// Releases the backend.
    pub fn detach(self) -> S {
        self.sim
    }

    /// Current simulation time.
    pub fn time(&self) -> u64 {
        self.sim.time()
    }

    /// Design hierarchy (§3.3 primitive).
    pub fn hierarchy(&self) -> HierNode {
        self.sim.hierarchy()
    }

    /// The current stop, if execution is paused at a breakpoint.
    pub fn stopped(&self) -> Option<&StopEvent> {
        self.stopped.as_ref()
    }

    /// Accumulated non-fatal diagnostics.
    pub fn diagnostics(&self) -> &[String] {
        &self.diagnostics
    }

    /// Inserts breakpoints for a source location (all instances
    /// sharing the line, per §3.2) through the direct API, owned by
    /// [`LOCAL_SESSION`]. `col = None` matches the whole line. Returns
    /// the inserted ids.
    ///
    /// # Errors
    ///
    /// [`DebugError::NoSource`] when the location has no breakpoints;
    /// [`DebugError::Expr`] when the user condition does not parse.
    pub fn insert_breakpoint(
        &mut self,
        filename: &str,
        line: u32,
        col: Option<u32>,
        condition: Option<&str>,
    ) -> Result<Vec<i64>, DebugError> {
        self.insert_breakpoint_for(LOCAL_SESSION, filename, line, col, condition)
    }

    /// Inserts breakpoints for a source location, owned by `owner`.
    /// Re-inserting an id the same session already holds replaces its
    /// condition and resets its hit count; other sessions' insertions
    /// of the same breakpoint are untouched.
    ///
    /// # Errors
    ///
    /// [`DebugError::NoSource`] when the location has no breakpoints;
    /// [`DebugError::Expr`] when the user condition does not parse.
    pub fn insert_breakpoint_for(
        &mut self,
        owner: SessionId,
        filename: &str,
        line: u32,
        col: Option<u32>,
        condition: Option<&str>,
    ) -> Result<Vec<i64>, DebugError> {
        let matches = self
            .symbols
            .breakpoints_at(filename, Some(line), col)
            .map_err(|e| DebugError::Symbols(e.to_string()))?;
        if matches.is_empty() {
            return Err(DebugError::NoSource {
                filename: filename.to_owned(),
                line,
            });
        }
        let parsed = condition.map(DebugExpr::parse).transpose()?;
        let mut ids = Vec::new();
        for info in matches {
            let previous = self.inserted.entry(info.id).or_default().insert(
                owner,
                Inserted {
                    condition: parsed
                        .as_ref()
                        .map(|e| bind_scoped(&self.sim, &info.instance_name, e)),
                    condition_text: condition.map(str::to_owned),
                    hit_count: 0,
                    cond_error_reported: false,
                },
            );
            if previous.is_none() {
                self.scheduler.note_inserted(info.id);
            }
            ids.push(info.id);
        }
        Ok(ids)
    }

    /// Removes one of [`LOCAL_SESSION`]'s inserted breakpoints.
    ///
    /// # Errors
    ///
    /// [`DebugError::NoSuchBreakpoint`] if the id is not inserted.
    pub fn remove_breakpoint(&mut self, id: i64) -> Result<(), DebugError> {
        self.remove_breakpoint_for(LOCAL_SESSION, id)
    }

    /// Removes `owner`'s insertion of breakpoint `id`. Other sessions'
    /// insertions of the same breakpoint are untouched.
    ///
    /// # Errors
    ///
    /// [`DebugError::NoSuchBreakpoint`] if `owner` has no insertion of
    /// this id (including when another session does).
    pub fn remove_breakpoint_for(&mut self, owner: SessionId, id: i64) -> Result<(), DebugError> {
        let owners = self
            .inserted
            .get_mut(&id)
            .ok_or(DebugError::NoSuchBreakpoint(id))?;
        if owners.remove(&owner).is_none() {
            return Err(DebugError::NoSuchBreakpoint(id));
        }
        if owners.is_empty() {
            self.inserted.remove(&id);
        }
        self.scheduler.note_removed(id);
        Ok(())
    }

    /// Removes every session's inserted breakpoints.
    pub fn clear_breakpoints(&mut self) {
        for (id, owners) in std::mem::take(&mut self.inserted) {
            for _ in owners {
                self.scheduler.note_removed(id);
            }
        }
    }

    /// Removes all debug state owned by `owner` — breakpoints and
    /// watchpoints. Called by the service when a session closes so a
    /// vanished debugger cannot keep stopping everyone else's
    /// simulation.
    pub fn clear_session(&mut self, owner: SessionId) {
        let mut emptied = Vec::new();
        for (id, owners) in self.inserted.iter_mut() {
            if owners.remove(&owner).is_some() {
                self.scheduler.note_removed(*id);
                if owners.is_empty() {
                    emptied.push(*id);
                }
            }
        }
        for id in emptied {
            self.inserted.remove(&id);
        }
        self.watchpoints.retain(|_, w| w.owner != owner);
    }

    /// Restores runtime invariants after a request panicked mid-flight
    /// (the service thread's panic-isolation path). A panic can strand
    /// partial state in two places: the scheduler's per-group insertion
    /// counters may disagree with the breakpoint map (dropping stops or
    /// scanning empty groups forever), and `stopped` may describe a
    /// stop the panicking request was about to replace. The breakpoint
    /// and watchpoint maps themselves are keyed and either contain an
    /// entry or don't, so they need no repair. Records one diagnostic
    /// naming `context`.
    pub fn repair_after_panic(&mut self, context: &str) {
        self.scheduler
            .rebuild_insertions(self.inserted.iter().map(|(id, owners)| (*id, owners.len())));
        self.stopped = None;
        self.diagnostics
            .push(format!("runtime repaired after panic in {context}"));
    }

    /// The checkpoint store (inspection).
    pub fn checkpoints(&self) -> &CheckpointRing {
        &self.checkpoints
    }

    /// Replaces the checkpointing policy (auto-checkpoint interval and
    /// byte budget).
    pub fn set_checkpoint_config(&mut self, config: CheckpointConfig) {
        self.checkpoints.set_config(config);
    }

    /// Arms a panic-injection plan on this runtime, replacing any plan
    /// armed before. The chaos suite's harness: see [`crate::fault`].
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The armed panic-injection plan, for the fault points the
    /// service passes on this runtime's behalf.
    pub(crate) fn faults(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Why the runtime is degraded, when crash recovery has failed and
    /// simulation state may be inconsistent.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Refuses advancing operations while degraded: running forward
    /// from inconsistent state would silently produce wrong values.
    fn ensure_not_degraded(&self) -> Result<(), DebugError> {
        match &self.degraded {
            Some(msg) => Err(DebugError::Degraded(msg.clone())),
            None => Ok(()),
        }
    }

    /// Enters degraded mode, recording why.
    fn degrade(&mut self, msg: String) {
        self.diagnostics.push(format!("degraded: {msg}"));
        self.degraded = Some(msg);
    }

    /// Captures a snapshot into the ring, reusing the buffer of the
    /// last evicted checkpoint when one is available so steady-state
    /// auto-checkpointing under the byte cap does not reallocate.
    /// `None` when the backend has no snapshot support.
    fn take_checkpoint(&mut self) -> Option<u64> {
        let snap = match self.checkpoints.take_spare() {
            Some(mut buf) => {
                if !self.sim.save_snapshot_into(&mut buf) {
                    return None;
                }
                buf
            }
            None => self.sim.save_snapshot()?,
        };
        let cycle = self.sim.time();
        self.checkpoints.push(cycle, snap);
        Some(cycle)
    }

    /// Explicitly checkpoints the current state. On a natively
    /// reversible backend (trace replay) this is a no-op success — the
    /// whole timeline is already addressable.
    ///
    /// # Errors
    ///
    /// [`DebugError::Degraded`] while degraded (the state is not worth
    /// keeping); [`DebugError::Sim`] when the backend supports neither
    /// snapshots nor reverse.
    pub fn checkpoint_now(&mut self) -> Result<u64, DebugError> {
        self.ensure_not_degraded()?;
        self.faults.hit("snapshot");
        match self.take_checkpoint() {
            Some(cycle) => Ok(cycle),
            None if self.sim.supports_reverse() => Ok(self.sim.time()),
            None => Err(DebugError::Sim(SimError::TimeTravel(
                "backend does not support snapshots".into(),
            ))),
        }
    }

    /// Called by the service before every advancing request: seeds the
    /// ring with an initial checkpoint (so recovery always has a
    /// known-good state, capturing any testbench pokes made so far) and
    /// returns the pre-request cycle to recover to. Deliberately *not*
    /// routed through the `snapshot` fault point: a panic here would
    /// leave simulation state untouched, where plain repair is the
    /// right recovery.
    pub fn prepare_advance(&mut self) -> u64 {
        if self.checkpoints.is_empty() {
            self.take_checkpoint();
        }
        self.sim.time()
    }

    /// Auto-checkpoint on interval boundaries during forward
    /// execution.
    fn maybe_auto_checkpoint(&mut self) {
        let interval = self.checkpoints.interval();
        if interval != 0 && self.sim.time().is_multiple_of(interval) {
            self.faults.hit("snapshot");
            self.take_checkpoint();
        }
    }

    /// Rewinds the backend to `cycle` without touching scheduler or
    /// stop state: natively when the backend reverses, otherwise by
    /// restoring the nearest checkpoint at or before `cycle` and
    /// replaying forward (clock callbacks re-fire during replay, so
    /// callback-driven stimulus reproduces bit-identically). Watchpoint
    /// baselines are re-read at the landing cycle.
    fn rewind_raw(&mut self, cycle: u64) -> Result<(), DebugError> {
        if self.sim.supports_reverse() {
            self.sim.set_time(cycle)?;
        } else {
            let cp = self
                .checkpoints
                .nearest_at_or_before(cycle)
                .ok_or(DebugError::NoCheckpoint(cycle))?;
            self.faults.hit("restore");
            self.sim.load_snapshot(cp.snapshot())?;
            while self.sim.time() < cycle {
                if !self.sim.step_clock() {
                    break;
                }
            }
        }
        self.rebaseline_watches();
        Ok(())
    }

    /// Re-reads every watchpoint's comparison baseline from the
    /// current state, so a restore does not fire spurious "changes"
    /// against values from the abandoned timeline.
    fn rebaseline_watches(&mut self) {
        let mut watchpoints = std::mem::take(&mut self.watchpoints);
        for watch in watchpoints.values_mut() {
            if let Ok(value) = self.eval_watch(watch) {
                watch.last = value;
            }
        }
        self.watchpoints = watchpoints;
    }

    /// Restores execution to `cycle` (checkpoint restore + replay, or
    /// native rewind), clearing stop state and degraded mode. Returns
    /// the [`StopKind::Restored`] event to broadcast; the runtime is
    /// *not* left "stopped at" it (there is no frame context).
    ///
    /// Checkpoints after the landing cycle are dropped: an explicit
    /// restore hands control back to the user, who may drive a
    /// different future.
    ///
    /// # Errors
    ///
    /// [`DebugError::NoCheckpoint`] when no checkpoint covers `cycle`;
    /// backend restore failures.
    pub fn restore_to(&mut self, cycle: u64) -> Result<StopEvent, DebugError> {
        self.rewind_raw(cycle)?;
        self.scheduler.reset_cycle();
        self.stopped = None;
        self.checkpoints.truncate_after(self.sim.time());
        self.degraded = None;
        Ok(self.control_stop(StopKind::Restored))
    }

    /// [`Runtime::restore_to`] the given cycle, or the newest retained
    /// checkpoint (current time on natively reversible backends) when
    /// `None`.
    ///
    /// # Errors
    ///
    /// [`DebugError::NoCheckpoint`] when nothing is retained.
    pub fn restore_latest_or(&mut self, cycle: Option<u64>) -> Result<StopEvent, DebugError> {
        let target = match cycle {
            Some(c) => c,
            None => match self.checkpoints.latest() {
                Some(cp) => cp.cycle(),
                None if self.sim.supports_reverse() => self.sim.time(),
                None => return Err(DebugError::NoCheckpoint(self.sim.time())),
            },
        };
        self.restore_to(target)
    }

    /// Crash recovery for a panicked *advancing* request: repairs
    /// bookkeeping like [`Runtime::repair_after_panic`], then restores
    /// the pre-request cycle from the checkpoint ring so the
    /// half-executed run is rolled back to known-good state. Returns
    /// the restore stop to broadcast on success; on failure (no
    /// covering checkpoint, restore error, or a panic inside recovery
    /// itself) the runtime degrades — advancing requests are refused
    /// until an explicit restore succeeds.
    pub fn recover_after_panic(&mut self, context: &str, pre_cycle: u64) -> Option<StopEvent> {
        self.scheduler
            .rebuild_insertions(self.inserted.iter().map(|(id, owners)| (*id, owners.len())));
        self.stopped = None;
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.restore_to(pre_cycle)));
        match result {
            Ok(Ok(event)) => {
                self.diagnostics.push(format!(
                    "recovered after panic in {context}: restored cycle {}",
                    event.time
                ));
                Some(event)
            }
            Ok(Err(e)) => {
                self.degrade(format!("recovery after panic in {context} failed: {e}"));
                None
            }
            Err(_) => {
                // Recovery itself panicked (e.g. a fault injected at the
                // restore point): repair bookkeeping again and degrade.
                self.scheduler.rebuild_insertions(
                    self.inserted.iter().map(|(id, owners)| (*id, owners.len())),
                );
                self.stopped = None;
                self.degrade(format!("recovery after panic in {context} itself panicked"));
                None
            }
        }
    }

    /// Lists [`LOCAL_SESSION`]'s inserted breakpoints.
    pub fn breakpoints(&self) -> Vec<BreakpointListing> {
        self.breakpoints_for(LOCAL_SESSION)
    }

    /// Lists `owner`'s inserted breakpoints — and only those; other
    /// sessions' insertions are invisible here.
    pub fn breakpoints_for(&self, owner: SessionId) -> Vec<BreakpointListing> {
        self.inserted
            .iter()
            .filter_map(|(id, owners)| {
                let ins = owners.get(&owner)?;
                let st = self.static_bps.get(id)?;
                Some(BreakpointListing {
                    id: *id,
                    filename: st.info.filename.clone(),
                    line: st.info.line,
                    col: st.info.col,
                    instance: st.info.instance_name.clone(),
                    condition: ins.condition_text.clone(),
                    hit_count: ins.hit_count,
                })
            })
            .collect()
    }

    /// Inserts a watchpoint through the direct API, owned by
    /// [`LOCAL_SESSION`]. See [`Runtime::insert_watchpoint_for`].
    ///
    /// # Errors
    ///
    /// Parse or baseline-evaluation failures.
    pub fn insert_watchpoint(
        &mut self,
        instance: Option<&str>,
        expr_text: &str,
    ) -> Result<i64, DebugError> {
        self.insert_watchpoint_for(LOCAL_SESSION, instance, expr_text)
    }

    /// Inserts a watchpoint owned by `owner`: execution stops inside
    /// [`Runtime::continue_run`] when the expression's value differs
    /// across a rising clock edge. The expression is parsed once and
    /// its signal references are resolved to interned ids (or concrete
    /// RTL paths) now, so the per-cycle re-evaluation stays cheap. The
    /// current value is recorded as the comparison baseline.
    ///
    /// # Errors
    ///
    /// [`DebugError::Expr`] when the expression does not parse or
    /// cannot be evaluated against the current simulation state (a
    /// watch that can never fire is reported at insert, not silently
    /// ignored).
    pub fn insert_watchpoint_for(
        &mut self,
        owner: SessionId,
        instance: Option<&str>,
        expr_text: &str,
    ) -> Result<i64, DebugError> {
        let expr = DebugExpr::parse(expr_text)?
            .bind(|name| SignalRef::new(&self.sim, self.watch_ref_path(instance, name)));
        let mut watch = Watch {
            owner,
            instance: instance.map(str::to_owned),
            expr_text: expr_text.to_owned(),
            expr,
            last: Bits4::known(Bits::from_bool(false)),
            hit_count: 0,
            error_reported: false,
        };
        watch.last = self.eval_watch(&watch)?;
        let id = self.next_watch_id;
        self.next_watch_id += 1;
        self.watchpoints.insert(id, watch);
        Ok(id)
    }

    /// Removes one of [`LOCAL_SESSION`]'s watchpoints.
    ///
    /// # Errors
    ///
    /// [`DebugError::NoSuchWatchpoint`] if the id is not owned.
    pub fn remove_watchpoint(&mut self, id: i64) -> Result<(), DebugError> {
        self.remove_watchpoint_for(LOCAL_SESSION, id)
    }

    /// Removes `owner`'s watchpoint `id`.
    ///
    /// # Errors
    ///
    /// [`DebugError::NoSuchWatchpoint`] if the id does not exist or is
    /// owned by another session.
    pub fn remove_watchpoint_for(&mut self, owner: SessionId, id: i64) -> Result<(), DebugError> {
        match self.watchpoints.get(&id) {
            Some(w) if w.owner == owner => {
                self.watchpoints.remove(&id);
                Ok(())
            }
            _ => Err(DebugError::NoSuchWatchpoint(id)),
        }
    }

    /// Lists [`LOCAL_SESSION`]'s watchpoints.
    pub fn watchpoints(&self) -> Vec<WatchpointListing> {
        self.watchpoints_for(LOCAL_SESSION)
    }

    /// Lists `owner`'s watchpoints — and only those.
    pub fn watchpoints_for(&self, owner: SessionId) -> Vec<WatchpointListing> {
        self.watchpoints
            .iter()
            .filter(|(_, w)| w.owner == owner)
            .map(|(id, w)| WatchpointListing {
                id: *id,
                instance: w.instance.clone(),
                expr: w.expr_text.clone(),
                value: w.last.clone(),
                hit_count: w.hit_count,
            })
            .collect()
    }

    /// Resolves one watch-expression reference to the concrete RTL
    /// path used for interning: the symbol table's generator-variable
    /// mapping first, then the instance-relative path, then the bare
    /// name — preferring the first candidate that currently carries a
    /// value.
    fn watch_ref_path(&self, instance: Option<&str>, name: &str) -> String {
        if let Some(inst) = instance {
            if let Some(var) = self.index.generator_var_in(inst, name) {
                if var.read(&self.sim).is_some() {
                    return var.path().to_owned();
                }
            }
            let scoped = format!("{inst}.{name}");
            if self.sim.get_value(&scoped).is_some() {
                return scoped;
            }
        }
        name.to_owned()
    }

    /// Evaluates a watch expression through its bound references, with
    /// [`Runtime::resolve_name`] as the fallback. Four-state: on a
    /// four-state backend the result carries unknown planes, so the
    /// change comparison sees X→known transitions.
    fn eval_watch(&self, watch: &Watch) -> Result<Bits4, DebugError> {
        watch
            .expr
            .eval4(&|name, signal| {
                signal
                    .read(&self.sim)
                    .or_else(|| self.resolve_name(watch.instance.as_deref(), name))
            })
            .map_err(DebugError::from)
    }

    /// Re-evaluates every watchpoint against the post-edge state and
    /// returns the ones whose value changed, updating baselines and
    /// hit counts. Evaluation errors are recorded once per watchpoint
    /// in [`Runtime::diagnostics`], not raised.
    ///
    /// This sits on the continue hot loop (once per clock edge), so it
    /// must not allocate when nothing fires: the map is temporarily
    /// moved out of `self` (O(1), no allocation) to iterate it mutably
    /// while evaluating through `&self`.
    fn check_watchpoints(&mut self) -> Vec<WatchHit> {
        if self.watchpoints.is_empty() {
            return Vec::new();
        }
        let mut watchpoints = std::mem::take(&mut self.watchpoints);
        // The map is moved out of `self` for the duration of the walk;
        // a panic inside expression evaluation (a simulator bug, an
        // injected fault) would otherwise silently discard *every*
        // session's watchpoints. Catch, restore, re-raise.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut hits = Vec::new();
            for (id, watch) in watchpoints.iter_mut() {
                match self.eval_watch(watch) {
                    Ok(value) => {
                        if value != watch.last {
                            hits.push(WatchHit {
                                id: *id,
                                owner: watch.owner,
                                expr: watch.expr_text.clone(),
                                old: watch.last.clone(),
                                new: value.clone(),
                            });
                            watch.last = value;
                            watch.hit_count += 1;
                        }
                    }
                    Err(e) => {
                        if !watch.error_reported {
                            watch.error_reported = true;
                            self.diagnostics
                                .push(format!("watchpoint {id} ({}): {e}", watch.expr_text));
                        }
                    }
                }
            }
            hits
        }));
        self.watchpoints = watchpoints;
        match result {
            Ok(hits) => hits,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Resolves a name in an instance context: scoped locals are the
    /// caller's responsibility (they come from frames); this resolves
    /// generator variables, then instance-relative RTL paths, then
    /// absolute paths. Four-state (fully known on two-state backends).
    fn resolve_name(&self, instance: Option<&str>, name: &str) -> Option<Bits4> {
        if let Some(inst) = instance {
            if let Some(v) = self
                .index
                .generator_var_in(inst, name)
                .and_then(|var| var.read(&self.sim))
            {
                return Some(v);
            }
            if let Some(v) = self.sim.get_value4(&format!("{inst}.{name}")) {
                return Some(v);
            }
        }
        self.sim.get_value4(name)
    }

    /// Evaluates a debugger expression in an optional instance
    /// context (the `eval` / watch functionality). Four-state: on a
    /// four-state backend an unresolved register prints as `8'hxx`
    /// rather than a bogus number; two-state backends always yield
    /// fully-known values.
    ///
    /// # Errors
    ///
    /// Parse or resolution failures.
    pub fn eval(&self, instance: Option<&str>, text: &str) -> Result<Bits4, DebugError> {
        let expr = DebugExpr::parse(text)?;
        expr.eval4(&|name| self.resolve_name(instance, name))
            .map_err(DebugError::from)
    }

    /// Sets a source-level variable or RTL signal (§3.3 optional
    /// primitive 5; rejected by trace backends).
    ///
    /// # Errors
    ///
    /// Resolution or writability failures.
    pub fn set_variable(
        &mut self,
        instance: Option<&str>,
        name: &str,
        value: Bits,
    ) -> Result<(), DebugError> {
        // Resolve to a full RTL path first: the generator variable, else
        // the instance-relative path, else the name as given.
        let target = match instance {
            Some(inst) => {
                let slot = self
                    .index
                    .instance(inst)
                    .ok_or_else(|| DebugError::NoSuchInstance(inst.to_owned()))?;
                match self.index.generator_var(slot, name) {
                    Some(var) => var.path().to_owned(),
                    None => format!("{inst}.{name}"),
                }
            }
            None => name.to_owned(),
        };
        self.sim.set_value(&target, value).map_err(DebugError::from)
    }

    /// Evaluates one group; returns frames for every matching
    /// breakpoint plus the owning sessions whose insertions matched.
    /// `only_inserted` restricts to user breakpoints (continue
    /// semantics); stepping considers every statement and ignores user
    /// conditions (a step stops at the next *active* statement
    /// regardless of which sessions instrumented it).
    fn eval_group(
        &mut self,
        group_index: usize,
        only_inserted: bool,
    ) -> (Vec<Frame>, Vec<SessionId>) {
        let mut hits = Vec::new();
        let mut sessions: Vec<SessionId> = Vec::new();
        // By position, not over a copy of the id list: this runs for
        // every instrumented group of every cycle and must not
        // allocate.
        for position in 0..self.scheduler.groups()[group_index].bp_ids.len() {
            let bp_id = self.scheduler.groups()[group_index].bp_ids[position];
            let Some(st) = self.static_bps.get(&bp_id) else {
                continue;
            };
            let owners = self.inserted.get(&bp_id);
            if only_inserted && owners.is_none() {
                continue;
            }
            let sim = &self.sim;
            // Enable condition (§3.1): statement must be active this
            // cycle. Names were bound at attach time. Truthiness is
            // four-state: an enable that evaluates to x (unresolved
            // control pre-reset) is *not* active — stopping on a
            // statement that may not execute would be a false positive.
            let enable_result = st.enable.as_ref().map(|enable| eval_scoped(sim, enable));
            match enable_result {
                None => {}
                Some(Ok(v)) if v.is_truthy_known() => {}
                Some(Ok(_)) => continue,
                Some(Err(e)) => {
                    // Once per breakpoint, not once per cycle — an
                    // unresolvable enable in a partial trace errors on
                    // every evaluation of a long continue.
                    if !st.enable_error_reported.get() {
                        st.enable_error_reported.set(true);
                        self.diagnostics
                            .push(format!("breakpoint {bp_id}: enable: {e}"));
                    }
                    continue;
                }
            }
            // User conditions (§3.2 step 2), one per owning session.
            // The breakpoint stops when *any* session's condition
            // holds; the matching owners are reported on the stop
            // event and are the only ones whose hit counts move.
            // Names were bound at insert time.
            let mut matched_owners: Vec<SessionId> = Vec::new();
            if only_inserted {
                let mut erroring: Vec<(SessionId, String)> = Vec::new();
                for (owner, ins) in owners.expect("checked above") {
                    match &ins.condition {
                        None => matched_owners.push(*owner),
                        // is_truthy_known: a condition that evaluates
                        // to x (e.g. `count == 8'hff` over an unreset
                        // register) does not stop the run.
                        Some(cond) => match eval_scoped(sim, cond) {
                            Ok(v) if v.is_truthy_known() => matched_owners.push(*owner),
                            Ok(_) => {}
                            Err(e) => {
                                if !ins.cond_error_reported {
                                    erroring.push((
                                        *owner,
                                        format!("breakpoint {bp_id}: condition: {e}"),
                                    ));
                                }
                            }
                        },
                    }
                }
                // Record each broken condition once, not once per
                // simulated cycle (a continue can span millions).
                for (owner, message) in erroring {
                    if let Some(ins) = self
                        .inserted
                        .get_mut(&bp_id)
                        .and_then(|owners| owners.get_mut(&owner))
                    {
                        ins.cond_error_reported = true;
                        self.diagnostics.push(message);
                    }
                }
                if matched_owners.is_empty() {
                    continue;
                }
            }
            if let Some(frame) = self.build_frame(bp_id) {
                // A hit is a *stop the user asked for*: count it only
                // in continue mode (stepping visits every statement and
                // must not inflate user-visible hit counts), and only
                // when a frame was actually built (no counted hit
                // without a stop).
                if only_inserted {
                    if let Some(owners) = self.inserted.get_mut(&bp_id) {
                        for owner in &matched_owners {
                            if let Some(ins) = owners.get_mut(owner) {
                                ins.hit_count += 1;
                            }
                        }
                    }
                    sessions.extend(matched_owners);
                }
                hits.push(frame);
            }
        }
        sessions.sort_unstable();
        sessions.dedup();
        (hits, sessions)
    }

    /// Reconstructs the frame for a breakpoint (§3.2 step 3) from the
    /// symbol index: the scope locals and the instance's generator
    /// variables, read through their interned signals.
    fn build_frame(&self, bp_id: i64) -> Option<Frame> {
        let st = self.static_bps.get(&bp_id)?;
        Some(Frame {
            breakpoint_id: bp_id,
            instance: st.info.instance_name.clone(),
            filename: st.info.filename.clone(),
            line: st.info.line,
            col: st.info.col,
            locals: self.index.locals(&self.sim, bp_id),
            generator: self.index.generator(&self.sim, st.instance),
        })
    }

    fn stop(
        &mut self,
        group_index: usize,
        hits: Vec<Frame>,
        sessions: Vec<SessionId>,
    ) -> RunOutcome {
        self.scheduler.stop_at(group_index);
        let g = &self.scheduler.groups()[group_index];
        let event = StopEvent {
            time: self.sim.time(),
            filename: g.filename.clone(),
            line: g.line,
            col: g.col,
            hits,
            sessions,
            watch_hits: Vec::new(),
            reason: StopKind::Breakpoint,
        };
        self.stopped = Some(event.clone());
        RunOutcome::Stopped(event)
    }

    /// Builds and records the stop for a set of watchpoint firings.
    fn stop_watch(&mut self, watch_hits: Vec<WatchHit>) -> RunOutcome {
        let mut sessions: Vec<SessionId> = watch_hits.iter().map(|h| h.owner).collect();
        sessions.sort_unstable();
        sessions.dedup();
        let event = StopEvent {
            time: self.sim.time(),
            filename: String::new(),
            line: 0,
            col: 0,
            hits: Vec::new(),
            sessions,
            watch_hits,
            reason: StopKind::Watchpoint,
        };
        self.stopped = Some(event.clone());
        RunOutcome::Stopped(event)
    }

    /// Builds a *control* stop event (interrupt, budget exhaustion, or
    /// a restore resync): no frames, no sessions, current simulation
    /// time. Control stops do not update [`Runtime::stopped`] — the
    /// run was cut short between breakpoints, so there is no frame
    /// context to query.
    fn control_stop(&self, reason: StopKind) -> StopEvent {
        StopEvent {
            time: self.sim.time(),
            filename: String::new(),
            line: 0,
            col: 0,
            hits: Vec::new(),
            sessions: Vec::new(),
            watch_hits: Vec::new(),
            reason,
        }
    }

    /// Whether a group contains at least one inserted breakpoint
    /// (O(1) fast skip in continue mode, maintained by the scheduler's
    /// per-group insertion counts).
    fn group_has_inserted(&self, group_index: usize) -> bool {
        self.scheduler.group_has_insertions(group_index)
    }

    /// Resumes execution until any session's inserted breakpoint hits,
    /// any session's watchpoint value changes across a clock edge, or
    /// `max_cycles` clock cycles elapse (safety net; `None` runs until
    /// the backend ends — only sensible for replay).
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn continue_run(&mut self, max_cycles: Option<u64>) -> Result<RunOutcome, DebugError> {
        self.continue_sliced(max_cycles, None, None, |_| ControlFlow::Continue(()))
    }

    /// The one `continue` loop, behind [`Runtime::continue_run`],
    /// `dispatch` and the service thread alike. It runs the Figure 2
    /// loop in slices of at most [`SLICE_CYCLES`] cycles or
    /// [`SLICE_WALL`] of wall clock and calls `between_slices` after
    /// every slice that ended without a stop; a `Break` from the hook
    /// ends the run with a [`StopKind::Interrupted`] stop. The service
    /// drains its command queue there; other callers pass a hook that
    /// does nothing.
    ///
    /// A run that consumes `budget_cycles` clock cycles or outlives
    /// `budget_ms` milliseconds stops with
    /// [`StopKind::BudgetExhausted`]; a run whose `max_cycles` runs out
    /// finishes at the current time, not stopped at anything. A budget
    /// or interrupt stop is resumable: the scheduler's in-cycle cursor
    /// persists across slices, so a sliced run stops on exactly the
    /// cycle and breakpoint an unbroken one would.
    pub(crate) fn continue_sliced(
        &mut self,
        max_cycles: Option<u64>,
        budget_cycles: Option<u64>,
        budget_ms: Option<u64>,
        mut between_slices: impl FnMut(&mut Self) -> ControlFlow<()>,
    ) -> Result<RunOutcome, DebugError> {
        let budget_deadline = budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let mut remaining_max = max_cycles;
        let mut remaining_budget = budget_cycles;
        loop {
            if remaining_budget == Some(0) || budget_deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(RunOutcome::Stopped(
                    self.control_stop(StopKind::BudgetExhausted),
                ));
            }
            // No early-out on remaining_max == Some(0): `continue`
            // scans the current cycle's breakpoint groups even with a
            // zero bound, which a zero-cycle slice does before expiring.
            let cycles = SLICE_CYCLES
                .min(remaining_max.unwrap_or(u64::MAX))
                .min(remaining_budget.unwrap_or(u64::MAX));
            let wall = Instant::now() + SLICE_WALL;
            let deadline = budget_deadline.map_or(wall, |d| d.min(wall));
            match self.continue_slice(cycles, Some(deadline), u64::MAX)? {
                SliceOutcome::Stopped(event) => return Ok(RunOutcome::Stopped(event)),
                SliceOutcome::Finished { time } => return Ok(RunOutcome::Finished { time }),
                SliceOutcome::Expired { cycles } => {
                    remaining_max = remaining_max.map(|m| m.saturating_sub(cycles));
                    remaining_budget = remaining_budget.map(|b| b.saturating_sub(cycles));
                    if remaining_max == Some(0) {
                        self.stopped = None;
                        return Ok(RunOutcome::Finished {
                            time: self.sim.time(),
                        });
                    }
                }
            }
            if between_slices(self).is_break() {
                return Ok(RunOutcome::Stopped(
                    self.control_stop(StopKind::Interrupted),
                ));
            }
        }
    }

    /// Runs one bounded slice of a `continue`: the Figure 2 loop for at
    /// most `max_cycles` clock cycles, cut short at `deadline`. The
    /// first step that reaches backend time `before` ends the slice at
    /// once, before that cycle's watchpoints or breakpoints are
    /// evaluated; only [`Runtime::scan_forward_stops`] sets this bound,
    /// and it rewinds afterwards. On [`SliceOutcome::Expired`] the
    /// scheduler's in-cycle cursor persists, so chaining slices is
    /// cycle-for-cycle identical to one long continue.
    fn continue_slice(
        &mut self,
        max_cycles: u64,
        deadline: Option<Instant>,
        before: u64,
    ) -> Result<SliceOutcome, DebugError> {
        self.ensure_not_degraded()?;
        let mut cycles: u64 = 0;
        loop {
            // Figure 2 loop: fetch next group with inserted bps,
            // evaluate, stop on hit. "We can exit the loop immediately
            // if there is no breakpoint inserted."
            if !self.inserted.is_empty() {
                for gi in self.scheduler.remaining_forward() {
                    if !self.group_has_inserted(gi) {
                        continue;
                    }
                    let (hits, sessions) = self.eval_group(gi, true);
                    if !hits.is_empty() {
                        let RunOutcome::Stopped(event) = self.stop(gi, hits, sessions) else {
                            unreachable!("stop always yields Stopped");
                        };
                        return Ok(SliceOutcome::Stopped(event));
                    }
                    self.scheduler.stop_at(gi);
                }
            }
            if cycles >= max_cycles {
                return Ok(SliceOutcome::Expired { cycles });
            }
            // The deadline bounds a slice's wall-clock time even when
            // per-cycle evaluation is slow; checked every 64 cycles so
            // the common (fast) cycle pays no clock read.
            if cycles & 63 == 0 {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Ok(SliceOutcome::Expired { cycles });
                    }
                }
            }
            if !self.sim.step_clock() {
                self.stopped = None;
                return Ok(SliceOutcome::Finished {
                    time: self.sim.time(),
                });
            }
            cycles += 1;
            self.scheduler.reset_cycle();
            self.stopped = None;
            if self.sim.time() >= before {
                return Ok(SliceOutcome::Expired { cycles });
            }
            // Watchpoints compare values across the edge that just
            // happened — the "evaluation points" of §3 are rising
            // clock edges, where register state is stable.
            let watch_hits = self.check_watchpoints();
            if !watch_hits.is_empty() {
                let RunOutcome::Stopped(event) = self.stop_watch(watch_hits) else {
                    unreachable!("stop_watch always yields Stopped");
                };
                return Ok(SliceOutcome::Stopped(event));
            }
            self.maybe_auto_checkpoint();
        }
    }

    /// Steps to the next active source statement (any symbol-table
    /// breakpoint whose enable holds), crossing cycle boundaries as
    /// needed, up to `max_cycles`. Stepping ignores user breakpoint
    /// conditions — it visits every active statement, whoever
    /// instrumented it — and does not stop on watchpoint changes: a
    /// step that crosses a clock edge re-reads every watchpoint's
    /// baseline where it lands, so the next `continue` reports only
    /// changes made after the step.
    ///
    /// # Errors
    ///
    /// Propagates backend failures.
    pub fn step(&mut self, max_cycles: Option<u64>) -> Result<RunOutcome, DebugError> {
        self.ensure_not_degraded()?;
        let mut cycles: u64 = 0;
        let outcome = loop {
            if let Some(event) = self.step_through(self.scheduler.remaining_forward()) {
                break event;
            }
            if max_cycles.is_some_and(|max| cycles >= max) || !self.sim.step_clock() {
                self.stopped = None;
                break RunOutcome::Finished {
                    time: self.sim.time(),
                };
            }
            cycles += 1;
            self.scheduler.reset_cycle();
            self.stopped = None;
            self.maybe_auto_checkpoint();
        };
        if cycles > 0 {
            self.rebaseline_watches();
        }
        Ok(outcome)
    }

    /// Steps *backwards* to the previous active statement: first
    /// within the current cycle by reversing the selection order
    /// (intra-cycle reverse debugging, available on any backend), then
    /// across cycles — natively when the backend supports reversing
    /// time (§3.2), otherwise by restoring the nearest checkpoint and
    /// replaying forward to the previous cycle. Like [`Runtime::step`]
    /// it does not stop on watchpoint changes; each cycle it crosses
    /// re-reads the watchpoint baselines.
    ///
    /// # Errors
    ///
    /// [`DebugError::NoCheckpoint`] when a cycle boundary must be
    /// crossed on a forward-only backend and no retained checkpoint
    /// covers the target cycle; [`DebugError::Degraded`] while
    /// degraded.
    pub fn reverse_step(&mut self) -> Result<RunOutcome, DebugError> {
        self.ensure_not_degraded()?;
        loop {
            if let Some(event) = self.step_through(self.scheduler.remaining_backward()) {
                return Ok(event);
            }
            // Exhausted this cycle: reverse time.
            let t = self.sim.time();
            if t == 0 {
                self.stopped = None;
                return Ok(RunOutcome::Finished { time: 0 });
            }
            self.rewind_raw(t - 1)?;
            if self.sim.time() == t {
                self.stopped = None;
                return Ok(RunOutcome::Finished { time: t });
            }
            self.scheduler.reset_cycle();
            self.stopped = None;
        }
    }

    /// Evaluates `groups` in order the way a step does — every active
    /// statement, ignoring user conditions — and stops at the first
    /// that hits, moving the in-cycle cursor past each one that does
    /// not.
    fn step_through(&mut self, groups: impl Iterator<Item = usize>) -> Option<RunOutcome> {
        for gi in groups {
            let (hits, sessions) = self.eval_group(gi, false);
            if !hits.is_empty() {
                return Some(self.stop(gi, hits, sessions));
            }
            self.scheduler.stop_at(gi);
        }
        None
    }

    /// Resumes execution *backwards* to the most recent
    /// breakpoint/watchpoint hit at a strictly earlier cycle, on any
    /// backend.
    ///
    /// On forward-only backends this is restore + replay: working from
    /// the newest retained checkpoint backwards, each
    /// checkpoint-to-upper-bound window is replayed once to count the
    /// stops inside it and once more to land on the last of them —
    /// deterministic replay guarantees both passes see identical stop
    /// sequences. Breakpoint and watchpoint hit counts are preserved
    /// across the replays (reverse execution revisits history, it does
    /// not re-earn hits). With no stop anywhere in recorded history,
    /// execution is left at the earliest reachable cycle and
    /// [`RunOutcome::Finished`] is returned.
    ///
    /// # Errors
    ///
    /// [`DebugError::NoCheckpoint`] when nothing earlier than the
    /// current cycle is reachable; [`DebugError::Degraded`] while
    /// degraded.
    pub fn reverse_continue(&mut self) -> Result<RunOutcome, DebugError> {
        self.ensure_not_degraded()?;
        let target = self.sim.time();
        if target == 0 {
            self.stopped = None;
            return Ok(RunOutcome::Finished { time: 0 });
        }
        // Replaying history mutates per-session hit counters and
        // one-shot error flags; save them now and restore after, on
        // every exit path. (`watch.last` is deliberately *not* saved:
        // after landing it must baseline the landing cycle's values.)
        let saved_bp: Vec<(i64, SessionId, u64, bool)> = self
            .inserted
            .iter()
            .flat_map(|(id, owners)| {
                owners
                    .iter()
                    .map(|(o, ins)| (*id, *o, ins.hit_count, ins.cond_error_reported))
            })
            .collect();
        let saved_watch: Vec<(i64, u64, bool)> = self
            .watchpoints
            .iter()
            .map(|(id, w)| (*id, w.hit_count, w.error_reported))
            .collect();
        let result = self.reverse_continue_inner(target);
        for (id, owner, hits, err) in saved_bp {
            if let Some(ins) = self.inserted.get_mut(&id).and_then(|o| o.get_mut(&owner)) {
                ins.hit_count = hits;
                ins.cond_error_reported = err;
            }
        }
        for (id, hits, err) in saved_watch {
            if let Some(w) = self.watchpoints.get_mut(&id) {
                w.hit_count = hits;
                w.error_reported = err;
            }
        }
        result
    }

    /// The windowed two-pass scan behind [`Runtime::reverse_continue`].
    fn reverse_continue_inner(&mut self, target: u64) -> Result<RunOutcome, DebugError> {
        // Candidate replay origins, newest first: retained checkpoint
        // cycles strictly before the current cycle (cycle 0 itself on a
        // natively reversible backend, which can land anywhere).
        let mut origins: Vec<u64> = self
            .checkpoints
            .cycles()
            .into_iter()
            .filter(|c| *c < target)
            .rev()
            .collect();
        if origins.is_empty() {
            if self.sim.supports_reverse() {
                origins.push(0);
            } else {
                return Err(DebugError::NoCheckpoint(target.saturating_sub(1)));
            }
        }
        let earliest = *origins.last().expect("non-empty");
        let mut upper = target;
        for origin in origins {
            if origin >= upper {
                continue;
            }
            // Pass 1: count the stops in [origin, upper).
            self.rewind_raw(origin)?;
            self.scheduler.reset_cycle();
            self.stopped = None;
            let count = self.scan_forward_stops(upper, None)?;
            if count > 0 {
                // Pass 2: identical replay, landing on the last stop.
                self.rewind_raw(origin)?;
                self.scheduler.reset_cycle();
                self.stopped = None;
                self.scan_forward_stops(upper, Some(count))?;
                let event = self.stopped.clone().expect("pass 2 lands on a stop");
                return Ok(RunOutcome::Stopped(event));
            }
            upper = origin;
        }
        // No stop anywhere in recorded history: rest at the earliest
        // reachable cycle.
        self.rewind_raw(earliest)?;
        self.scheduler.reset_cycle();
        self.stopped = None;
        Ok(RunOutcome::Finished {
            time: self.sim.time(),
        })
    }

    /// Replays forward from the current cycle, stopping normally at
    /// breakpoints/watchpoints, until a step reaches backend time
    /// `upper` (a watch firing there, or a breakpoint at that cycle, is
    /// the stop being reversed away from). The window is bounded in
    /// backend time, not in cycles: a trace replay advances many time
    /// units per cycle. With `take_nth = None` every stop is resumed
    /// through and the total is returned; with `Some(n)` the scan
    /// halts *at* the nth stop (leaving [`Runtime::stopped`] describing
    /// it).
    fn scan_forward_stops(
        &mut self,
        upper: u64,
        take_nth: Option<usize>,
    ) -> Result<usize, DebugError> {
        let mut seen = 0usize;
        loop {
            match self.continue_slice(u64::MAX, None, upper)? {
                SliceOutcome::Stopped(event) => {
                    debug_assert!(event.time < upper, "scan stop escaped its window");
                    seen += 1;
                    if take_nth == Some(seen) {
                        return Ok(seen);
                    }
                }
                SliceOutcome::Finished { .. } | SliceOutcome::Expired { .. } => {
                    return Ok(seen);
                }
            }
        }
    }
}
