//! The concurrent debug service: one [`Runtime`], many sessions.
//!
//! The paper's Figure 1 shows a single debugger attached over RPC; a
//! production deployment (IDE + waveform viewer + scripted monitor all
//! attached to one simulation, as in Goeders & Wilton's decoupled HLS
//! debug server) needs many. This module owns the [`Runtime`] on a
//! dedicated *service thread* behind a command channel, so any number
//! of client connections can interleave requests against it:
//!
//! * [`DebugService::spawn`] moves the runtime onto the service
//!   thread. The thread serializes all requests — the runtime itself
//!   stays single-threaded and lock-free.
//! * [`ServiceHandle`] is the cheap, cloneable, type-erased handle
//!   client threads use: open/close sessions, submit requests.
//! * Each session registers an outbound channel. Replies (tagged with
//!   the echoed `seq` and the `session` id) and asynchronous
//!   stop-event broadcasts are demultiplexed through it in order.
//! * [`TcpDebugServer`] runs the accept loop: one reader thread (this
//!   connection's spawned thread) and one writer thread per client.
//! * [`Request::Batch`] executes many requests in one command, so
//!   scripted frontends pay one round-trip per script, not per poke.
//!
//! Requests take one path whoever runs them: the service thread and
//! the in-process [`dispatch`] drive the same interpreter, and every
//! `continue` runs the runtime's one sliced loop
//! ([`Runtime::continue_run`]'s). The service's between-slice hook
//! pumps its command queue; under `dispatch` the hook does nothing.
//!
//! # Session-scoped debug state
//!
//! Breakpoints and watchpoints are owned by the session that inserted
//! them: `list` shows only the caller's, `remove` removes only the
//! caller's, and closing a session (detach *or* disconnect) clears its
//! state so a vanished debugger cannot keep stopping everyone else's
//! simulation. Execution still stops for the union of every session's
//! insertions — a stop is a global fact about the one shared
//! simulation — and the stop event names the sessions whose
//! breakpoints or watchpoints actually matched.
//!
//! # Broadcasts, subscriptions, and backpressure
//!
//! When one session's `continue`/`step` stops the simulation, every
//! *other* session whose [`Subscription`] matches receives the stop
//! event as an `event` message — attached viewers stay in sync without
//! polling, and special-purpose frontends can
//! [`Request::Subscribe`] to just the files, instances, or event
//! kinds they render. Outbound traffic flows through a bounded
//! [`crate::outbound::OutboundQueue`] per session: a slow consumer has
//! its oldest undelivered events dropped (never replies) and is told
//! via an [`Outbound::Lagged`] message how many it missed.
//!
//! # Fault containment
//!
//! The service thread is shared infrastructure — one bad request must
//! not take down every attached session. Three mechanisms bound the
//! blast radius (see `docs/ARCHITECTURE.md` for the full model):
//!
//! * **Panic isolation.** Every request executes under `catch_unwind`.
//!   A panic yields a final error reply to the offending session, that
//!   session alone is torn down, the runtime runs a consistency repair
//!   ([`Runtime::repair_after_panic`]), and service resumes for
//!   everyone else. [`DebugService::shutdown`] returns `Err` instead
//!   of re-panicking if the thread itself ever dies.
//! * **Interruptible continues.** A `continue` runs as bounded slices
//!   (2048 cycles or 5ms); between slices the service drains its
//!   command queue, answering other sessions' requests and honoring
//!   [`Request::Interrupt`] (stop reason `"interrupted"`). Per-request
//!   cycle/wall-clock budgets (`"budget_exhausted"`) are enforced by
//!   the same loop. A breakpoint-free continue never starves the
//!   service.
//! * **Connection liveness.** The TCP front bounds inbound line length,
//!   reaps sessions idle past [`TcpServerConfig::idle_timeout`]
//!   (clearing their debug state), answers [`Request::Ping`], tracks
//!   every client thread, and on [`TcpDebugServer::shutdown`] sends a
//!   final `server_exiting` event, drains outbound queues with a
//!   deadline, and joins everything.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use microjson::Json;
use rtl_sim::{HierNode, SimControl};

use crate::outbound::{
    outbound_queue, OutboundQueue, OutboundReceiver, RecvTimeoutError, DEFAULT_OUTBOUND_CAPACITY,
};
use crate::protocol::{
    decode_line, encode_server_exiting, outcome_response, Request, Response, SessionId,
};
use crate::runtime::{DebugError, RunOutcome, Runtime, StopEvent, LOCAL_SESSION};
use crate::server::{LineReader, ReadLine, RecvOutcome};

pub use crate::outbound::Outbound;

/// Which stop broadcasts a session wants. Every filter is a list;
/// an empty list is a wildcard. A stop event is delivered when all
/// three filters match:
///
/// * `kinds`: the event's kind — `"breakpoint"`, `"watchpoint"`, or
///   `"restored"` (a checkpoint restore resynced the shared
///   simulation).
/// * `files`: the stop's source file. Watchpoint stops carry no file,
///   so a non-empty file filter only ever matches breakpoint stops.
/// * `instances`: any hit frame's instance path. Watchpoint stops
///   carry no frames, so the same caveat applies.
///
/// The default subscription (all lists empty) delivers everything —
/// the pre-subscription behavior.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Subscription {
    /// Source files of interest.
    pub files: Vec<String>,
    /// Instance paths of interest.
    pub instances: Vec<String>,
    /// Event kinds of interest.
    pub kinds: Vec<String>,
}

impl Subscription {
    /// Whether a stop event passes this session's filters.
    pub fn matches(&self, event: &StopEvent) -> bool {
        let kind = event.kind();
        (self.kinds.is_empty() || self.kinds.iter().any(|k| k == kind))
            && (self.files.is_empty()
                || (!event.filename.is_empty() && self.files.contains(&event.filename)))
            && (self.instances.is_empty()
                || event
                    .hits
                    .iter()
                    .any(|h| self.instances.contains(&h.instance)))
    }
}

/// Per-session state the service thread keeps: where to deliver
/// outbound messages and which broadcasts the session subscribed to.
#[derive(Debug)]
struct SessionState {
    out: OutboundQueue,
    sub: Subscription,
}

enum Command {
    Open {
        out: OutboundQueue,
        reply: Sender<SessionId>,
        /// Claim a specific id ([`serve`] opens its session as
        /// [`LOCAL_SESSION`]); `None` auto-assigns.
        id: Option<SessionId>,
    },
    Close {
        session: SessionId,
    },
    Execute {
        session: SessionId,
        seq: Option<u64>,
        request: Request,
    },
    /// An undecodable line: reply with an error *through the command
    /// queue*, so the error cannot overtake replies for requests the
    /// same connection already has in flight.
    Reject {
        session: SessionId,
        seq: Option<u64>,
        message: String,
    },
    Shutdown,
}

/// Cloneable, type-erased handle to a running [`DebugService`].
#[derive(Clone, Debug)]
pub struct ServiceHandle {
    cmd: Sender<Command>,
}

impl ServiceHandle {
    /// Registers a session; its replies and broadcasts arrive on the
    /// paired [`OutboundReceiver`] of `out` (create the pair with
    /// [`crate::outbound::outbound_queue`]). Returns `None` when the
    /// service has shut down.
    pub fn open_session(&self, out: OutboundQueue) -> Option<SessionId> {
        self.open_session_inner(out, None)
    }

    fn open_session_inner(&self, out: OutboundQueue, id: Option<SessionId>) -> Option<SessionId> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.cmd
            .send(Command::Open {
                out,
                reply: reply_tx,
                id,
            })
            .ok()?;
        reply_rx.recv().ok()
    }

    /// Unregisters a session (idempotent).
    pub fn close_session(&self, session: SessionId) {
        let _ = self.cmd.send(Command::Close { session });
    }

    /// Queues one request for execution; the reply arrives on the
    /// session's outbound channel. Returns `false` when the service
    /// has shut down.
    pub fn submit(&self, session: SessionId, seq: Option<u64>, request: Request) -> bool {
        self.cmd
            .send(Command::Execute {
                session,
                seq,
                request,
            })
            .is_ok()
    }

    /// Decodes one wire line and queues it: a request for execution, an
    /// undecodable line as an error reply. The reply goes through the
    /// command queue like any other, so it cannot overtake replies to
    /// requests the same connection already has in flight. Every
    /// server front reads its lines through here. Returns `false` when
    /// the service has shut down.
    pub(crate) fn submit_line(&self, session: SessionId, line: &str) -> bool {
        let (seq, request) = decode_line(line);
        match request {
            Ok(request) => self.submit(session, seq, request),
            Err(message) => self.reject(session, seq, message),
        }
    }

    /// Queues an error reply, ordered with [`ServiceHandle::submit`]
    /// through the same command queue. Returns `false` when the
    /// service has shut down.
    fn reject(&self, session: SessionId, seq: Option<u64>, message: String) -> bool {
        self.cmd
            .send(Command::Reject {
                session,
                seq,
                message,
            })
            .is_ok()
    }

    /// Opens a session and returns an in-process line transport over
    /// it — the zero-config path for a [`crate::DebugClient`] living
    /// in the simulator's own process. Returns `None` when the service
    /// has shut down.
    ///
    /// ```
    /// use hgdb::{DebugClient, DebugService, Runtime};
    /// use rtl_sim::Simulator;
    ///
    /// // Build a one-counter design and serve it.
    /// let mut cb = hgf::CircuitBuilder::new();
    /// cb.module("top", |m| {
    ///     let out = m.output("out", 8);
    ///     let count = m.reg("count", 8, Some(0));
    ///     m.assign(&count, count.sig() + m.lit(1, 8));
    ///     m.assign(&out, count.sig());
    /// });
    /// let circuit = cb.finish("top")?;
    /// let mut state = hgf_ir::CircuitState::new(circuit);
    /// let table = hgf_ir::passes::compile(&mut state, true).unwrap();
    /// let symbols = symtab::from_debug_table(&state.circuit, &table).unwrap();
    /// let sim = Simulator::new(&state.circuit).unwrap();
    /// let service = DebugService::spawn(Runtime::attach(sim, symbols).unwrap());
    ///
    /// // Any number of in-process clients can connect concurrently;
    /// // each gets its own session id and its own breakpoint view.
    /// let mut a = DebugClient::new(service.handle().connect().unwrap());
    /// let mut b = DebugClient::new(service.handle().connect().unwrap());
    /// assert_eq!(a.time().unwrap(), 0);
    /// assert_eq!(b.time().unwrap(), 0);
    /// assert_ne!(a.session_id(), b.session_id());
    /// a.detach().unwrap();
    /// b.detach().unwrap();
    /// let _runtime = service.shutdown();
    /// # Ok::<(), hgf_ir::IrError>(())
    /// ```
    pub fn connect(&self) -> Option<ServiceTransport> {
        self.connect_as(None)
    }

    /// [`ServiceHandle::connect`], claiming session `id` when it is
    /// free (auto-assigning when it is taken or `None`).
    fn connect_as(&self, id: Option<SessionId>) -> Option<ServiceTransport> {
        let (out_tx, out_rx) = outbound_queue(DEFAULT_OUTBOUND_CAPACITY);
        let session = self.open_session_inner(out_tx, id)?;
        Some(ServiceTransport {
            handle: self.clone(),
            session,
            out_rx,
            closed: false,
        })
    }
}

/// In-process client transport over one service session. Implements
/// [`crate::Transport`], so a [`crate::DebugClient`] can sit directly
/// on the service without sockets or a pump thread.
#[derive(Debug)]
pub struct ServiceTransport {
    handle: ServiceHandle,
    session: SessionId,
    out_rx: OutboundReceiver,
    closed: bool,
}

impl ServiceTransport {
    /// The server-assigned session id.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The wire line for `out`; a session's last reply closes the
    /// transport.
    fn deliver(&mut self, out: Outbound) -> String {
        let (line, last) = out.to_line(self.session);
        if last {
            self.closed = true;
        }
        line
    }
}

impl crate::server::Transport for ServiceTransport {
    fn recv(&mut self) -> Option<String> {
        if self.closed {
            return None;
        }
        let out = self.out_rx.recv()?;
        Some(self.deliver(out))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> RecvOutcome {
        if self.closed {
            return RecvOutcome::Closed;
        }
        match self.out_rx.recv_timeout(timeout) {
            Ok(out) => RecvOutcome::Line(self.deliver(out)),
            Err(RecvTimeoutError::Timeout) => RecvOutcome::TimedOut,
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Closed,
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        if self.closed {
            return Err("session closed".into());
        }
        if self.handle.submit_line(self.session, line) {
            Ok(())
        } else {
            Err("service shut down".into())
        }
    }
}

impl Drop for ServiceTransport {
    fn drop(&mut self) {
        self.handle.close_session(self.session);
    }
}

/// A runtime being served on its own thread. Dropping (or calling
/// [`DebugService::shutdown`]) stops the thread; `shutdown` also hands
/// the runtime back.
#[derive(Debug)]
pub struct DebugService<S: SimControl> {
    handle: ServiceHandle,
    thread: Option<JoinHandle<Runtime<S>>>,
}

/// Error from [`DebugService::shutdown`]: the service thread itself
/// died of a panic, so the runtime it owned is gone. Per-request
/// panics are contained and never produce this — seeing it means a
/// panic escaped the isolation machinery (e.g. inside the containment
/// code itself).
#[derive(Debug)]
pub struct ServicePanicked {
    /// The panic message, when the payload was a string.
    pub message: String,
}

impl std::fmt::Display for ServicePanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "service thread panicked: {}", self.message)
    }
}

impl std::error::Error for ServicePanicked {}

impl<S: SimControl + Send + 'static> DebugService<S> {
    /// Moves the runtime onto a new service thread and starts
    /// accepting commands.
    pub fn spawn(runtime: Runtime<S>) -> DebugService<S> {
        let (cmd_tx, cmd_rx) = mpsc::channel();
        let thread = std::thread::spawn(move || service_loop(runtime, &cmd_rx));
        DebugService {
            handle: ServiceHandle { cmd: cmd_tx },
            thread: Some(thread),
        }
    }
}

/// Spawns a [`DebugService`] for `runtime` and connects one in-process
/// session to it: the zero-config path for a debugger embedded in the
/// simulator's own process. Detach the session, then
/// [`DebugService::shutdown`] hands the runtime back.
///
/// The session runs as [`LOCAL_SESSION`] — in the embedded
/// single-debugger case the connected frontend *is* the local user, so
/// breakpoints and watchpoints inserted through the direct [`Runtime`]
/// API before serving are visible to (and removable by) the debugger
/// rather than becoming unlistable ghost stops. Like any session's,
/// that state is cleared when the session ends.
pub fn serve<S>(runtime: Runtime<S>) -> (DebugService<S>, ServiceTransport)
where
    S: SimControl + Send + 'static,
{
    let service = DebugService::spawn(runtime);
    let transport = service
        .handle
        .connect_as(Some(LOCAL_SESSION))
        .expect("freshly spawned service accepts sessions");
    (service, transport)
}

impl<S: SimControl> DebugService<S> {
    /// A cloneable handle for client connections.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// Stops the service thread and returns the runtime (sessions
    /// still open see their outbound channels disconnect).
    ///
    /// # Errors
    ///
    /// [`ServicePanicked`] when the service thread died of an escaped
    /// panic — the teardown path must not turn one crash into two, so
    /// the payload is reported instead of resumed.
    pub fn shutdown(mut self) -> Result<Runtime<S>, ServicePanicked> {
        let _ = self.handle.cmd.send(Command::Shutdown);
        let thread = self.thread.take().expect("service thread present");
        thread.join().map_err(|payload| ServicePanicked {
            message: panic_message(payload.as_ref()).to_owned(),
        })
    }
}

impl<S: SimControl> Drop for DebugService<S> {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = self.handle.cmd.send(Command::Shutdown);
            let _ = thread.join();
        }
    }
}

/// The session currently running a `continue` on the service thread,
/// and whether anyone has asked it to stop.
struct ActiveRun {
    session: SessionId,
    interrupted: bool,
}

/// Everything the service thread owns besides the runtime. Grouped so
/// the per-request `catch_unwind` closure and the between-slice
/// command pump can both borrow it as one unit.
struct ServiceState {
    sessions: BTreeMap<SessionId, SessionState>,
    next_session: SessionId,
    /// Commands deferred while a continue was in flight, replayed in
    /// arrival order once the run finishes.
    deferred: VecDeque<Command>,
    /// Sessions with at least one deferred command. Later commands
    /// from these sessions must also defer — executing them inline
    /// between slices would reorder one connection's pipeline.
    deferred_sessions: BTreeSet<SessionId>,
    active_run: Option<ActiveRun>,
    shutdown: bool,
}

impl ServiceState {
    fn new() -> ServiceState {
        ServiceState {
            sessions: BTreeMap::new(),
            next_session: 1,
            deferred: VecDeque::new(),
            deferred_sessions: BTreeSet::new(),
            active_run: None,
            shutdown: false,
        }
    }

    fn open(&mut self, out: OutboundQueue, id: Option<SessionId>) -> SessionId {
        let id = match id {
            Some(requested) if !self.sessions.contains_key(&requested) => requested,
            _ => {
                let auto = self.next_session;
                self.next_session += 1;
                auto
            }
        };
        self.sessions.insert(
            id,
            SessionState {
                out,
                sub: Subscription::default(),
            },
        );
        id
    }

    fn defer(&mut self, cmd: Command) {
        if let Some(session) = command_session(&cmd) {
            self.deferred_sessions.insert(session);
        }
        self.deferred.push_back(cmd);
    }

    fn pop_deferred(&mut self) -> Option<Command> {
        let cmd = self.deferred.pop_front()?;
        if let Some(session) = command_session(&cmd) {
            if !self
                .deferred
                .iter()
                .any(|c| command_session(c) == Some(session))
            {
                self.deferred_sessions.remove(&session);
            }
        }
        Some(cmd)
    }
}

/// The session a command belongs to, for deferral bookkeeping. `Open`
/// and `Shutdown` are session-less (and are never deferred).
fn command_session(cmd: &Command) -> Option<SessionId> {
    match cmd {
        Command::Execute { session, .. }
        | Command::Reject { session, .. }
        | Command::Close { session } => Some(*session),
        Command::Open { .. } | Command::Shutdown => None,
    }
}

/// Best-effort panic payload rendering (panics carry `&str` or
/// `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

fn service_loop<S: SimControl>(mut runtime: Runtime<S>, cmd_rx: &Receiver<Command>) -> Runtime<S> {
    let mut state = ServiceState::new();
    loop {
        if state.shutdown {
            break;
        }
        let cmd = match state.pop_deferred() {
            Some(cmd) => cmd,
            None => match cmd_rx.recv() {
                Ok(cmd) => cmd,
                Err(_) => break,
            },
        };
        process_command(&mut state, &mut runtime, cmd_rx, cmd);
    }
    runtime
}

fn process_command<S: SimControl>(
    state: &mut ServiceState,
    runtime: &mut Runtime<S>,
    cmd_rx: &Receiver<Command>,
    cmd: Command,
) {
    match cmd {
        Command::Open { out, reply, id } => {
            let id = state.open(out, id);
            let _ = reply.send(id);
        }
        Command::Close { session } => {
            if state.sessions.remove(&session).is_some() {
                runtime.clear_session(session);
            }
        }
        Command::Execute {
            session,
            seq,
            request,
        } => execute_command(state, runtime, cmd_rx, session, seq, request),
        Command::Reject {
            session,
            seq,
            message,
        } => {
            if let Some(s) = state.sessions.get(&session) {
                if s.out
                    .push_reply(Outbound::Reply {
                        seq,
                        response: Response::Error { message },
                        last: false,
                    })
                    .is_err()
                {
                    state.sessions.remove(&session);
                    runtime.clear_session(session);
                }
            }
        }
        Command::Shutdown => state.shutdown = true,
    }
}

/// Executes one request for `session` under panic isolation, then
/// delivers its reply and fans out any stop broadcasts it produced.
///
/// On a panic the blast radius is one session: the offender gets a
/// final error reply naming the panic, its debug state and queue are
/// torn down, the runtime runs a consistency repair, and stops that
/// really happened before the panic are still broadcast. Everyone
/// else's session is untouched.
fn execute_command<S: SimControl>(
    state: &mut ServiceState,
    runtime: &mut Runtime<S>,
    cmd_rx: &Receiver<Command>,
    session: SessionId,
    seq: Option<u64>,
    request: Request,
) {
    if !state.sessions.contains_key(&session) {
        // A dead or poisoned peer's deferred work; nobody is listening.
        return;
    }
    let label = request.kind_name();
    let advancing = request.is_advancing();
    let mut interpreter = Interpreter {
        session,
        service: Some((&mut *state, cmd_rx)),
        stops: Vec::new(),
        subscription: None,
    };
    // Captured *inside* the panic-isolation closure: `Some` means the
    // runtime seeded its checkpoint ring and the simulation may have
    // moved, so a panic must roll back to this cycle. A panic before
    // (or inside) `prepare_advance` leaves simulation state untouched
    // and takes the plain-repair path instead.
    let mut pre_cycle: Option<u64> = None;
    let result = catch_unwind(AssertUnwindSafe(|| {
        if advancing {
            pre_cycle = Some(runtime.prepare_advance());
        }
        interpreter.run(runtime, request)
    }));
    let Interpreter {
        mut stops,
        subscription,
        ..
    } = interpreter;
    let mut dead: Vec<SessionId> = Vec::new();
    let (response, done) = match result {
        Ok(ok) => ok,
        Err(payload) => {
            // The panic may have unwound out of this session's own
            // sliced continue; the run is over either way.
            if state
                .active_run
                .as_ref()
                .is_some_and(|run| run.session == session)
            {
                state.active_run = None;
            }
            match pre_cycle {
                // An advancing request died mid-flight: the simulation
                // may sit at an arbitrary half-executed cycle. Restore
                // the pre-request checkpoint; on success the restore
                // stop is broadcast so viewers resync, on failure the
                // runtime degrades and refuses forward execution.
                Some(pre) => {
                    if let Some(event) = runtime.recover_after_panic(label, pre) {
                        stops.push(event);
                    }
                }
                // Non-advancing requests cannot have moved the
                // simulation; bookkeeping repair suffices.
                None => runtime.repair_after_panic(label),
            }
            dead.push(session);
            (
                Response::Error {
                    message: format!(
                        "internal error: request {label:?} panicked: {}",
                        panic_message(payload.as_ref())
                    ),
                },
                true,
            )
        }
    };
    if let (Some(sub), Some(s)) = (subscription, state.sessions.get_mut(&session)) {
        s.sub = sub;
    }
    // A failed push means the session's transport is gone or its queue
    // poisoned itself (reply-flood ceiling): tear the session down so
    // its debug state and queue do not outlive a dead or broken peer.
    for event in stops {
        for (id, s) in &state.sessions {
            if *id != session
                && s.sub.matches(&event)
                && s.out
                    .push_event(Outbound::Stopped {
                        origin: session,
                        event: event.clone(),
                    })
                    .is_err()
            {
                dead.push(*id);
            }
        }
    }
    if let Some(s) = state.sessions.get(&session) {
        if s.out
            .push_reply(Outbound::Reply {
                seq,
                response,
                last: done,
            })
            .is_err()
        {
            dead.push(session);
        }
    }
    if done {
        dead.push(session);
    }
    for id in dead {
        if state.sessions.remove(&id).is_some() {
            runtime.clear_session(id);
        }
    }
}

/// Handles one command that arrived while a `continue` was in flight.
///
/// Inline-safe commands (another session's query, an open, an
/// interrupt) execute immediately — that is what makes the run
/// interruptible and other sessions responsive. Everything else is
/// deferred in arrival order: simulation-advancing requests (two
/// interleaved runs would corrupt both), anything from the running
/// session (its pipeline resumes after its continue), and anything
/// from a session that already has deferred work (per-connection
/// FIFO order is part of the protocol contract).
fn interleave<S: SimControl>(
    state: &mut ServiceState,
    runtime: &mut Runtime<S>,
    cmd_rx: &Receiver<Command>,
    cmd: Command,
) {
    let running = state.active_run.as_ref().map(|run| run.session);
    match cmd {
        Command::Open { .. } | Command::Shutdown => process_command(state, runtime, cmd_rx, cmd),
        Command::Execute {
            session,
            seq,
            request,
        } => {
            // The interrupt escape hatch jumps every queue by design —
            // deferring it behind the very run it is meant to stop
            // would make it useless.
            if matches!(request, Request::Interrupt) {
                execute_command(state, runtime, cmd_rx, session, seq, request);
            } else if Some(session) == running
                || state.deferred_sessions.contains(&session)
                || request.is_advancing()
            {
                state.defer(Command::Execute {
                    session,
                    seq,
                    request,
                });
            } else {
                execute_command(state, runtime, cmd_rx, session, seq, request);
            }
        }
        Command::Reject { session, .. } => {
            if Some(session) == running || state.deferred_sessions.contains(&session) {
                state.defer(cmd);
            } else {
                process_command(state, runtime, cmd_rx, cmd);
            }
        }
        Command::Close { session } => {
            if Some(session) == running {
                // The peer hung up mid-continue: stop the run, then
                // tear the session down once the run returns.
                if let Some(run) = &mut state.active_run {
                    run.interrupted = true;
                }
                state.defer(cmd);
            } else if state.deferred_sessions.contains(&session) {
                state.defer(cmd);
            } else {
                process_command(state, runtime, cmd_rx, cmd);
            }
        }
    }
}

/// A `continue` on the service thread: between slices it fires the
/// `slice` fault point, answers or defers every queued command, and
/// ends the run once it is interrupted, its session has closed, or the
/// service is shutting down.
fn pumped_continue<S: SimControl>(
    state: &mut ServiceState,
    cmd_rx: &Receiver<Command>,
    runtime: &mut Runtime<S>,
    session: SessionId,
    max_cycles: Option<u64>,
    budget_cycles: Option<u64>,
    budget_ms: Option<u64>,
) -> Result<RunOutcome, DebugError> {
    state.active_run = Some(ActiveRun {
        session,
        interrupted: false,
    });
    let outcome = runtime.continue_sliced(max_cycles, budget_cycles, budget_ms, |runtime| {
        runtime.faults().hit("slice");
        loop {
            match cmd_rx.try_recv() {
                Ok(cmd) => interleave(state, runtime, cmd_rx, cmd),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    state.shutdown = true;
                    break;
                }
            }
        }
        let running = !state.shutdown
            && state
                .active_run
                .as_ref()
                .is_some_and(|run| !run.interrupted && run.session == session);
        if running {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    });
    state.active_run = None;
    outcome
}

/// The one request interpreter, run by [`dispatch`] and by the service
/// thread alike. It executes a request on behalf of `session` (which
/// scopes breakpoint and watchpoint ownership; batches recurse) and
/// collects what only the service delivers: the stops of
/// simulation-advancing requests, for broadcast, and the subscription
/// a request carried.
struct Interpreter<'a> {
    session: SessionId,
    /// The service thread's state and command queue, which a
    /// `continue` pumps between slices and an `interrupt` stops.
    /// `None` under [`dispatch`]: nothing else is queued or running.
    service: Option<(&'a mut ServiceState, &'a Receiver<Command>)>,
    stops: Vec<StopEvent>,
    subscription: Option<Subscription>,
}

impl Interpreter<'_> {
    /// Returns the response and whether the session ends (a detach
    /// was executed).
    fn run<S: SimControl>(
        &mut self,
        runtime: &mut Runtime<S>,
        request: Request,
    ) -> (Response, bool) {
        runtime.faults().hit_request(request.kind_name());
        let advancing = request.is_advancing();
        let session = self.session;
        let response = match request {
            Request::Batch { requests } => {
                let mut responses = Vec::with_capacity(requests.len());
                let mut done = false;
                for req in requests {
                    if done {
                        responses.push(Response::Error {
                            message: "request after detach in batch".into(),
                        });
                        continue;
                    }
                    let (resp, d) = self.run(runtime, req);
                    done |= d;
                    responses.push(resp);
                }
                return (Response::Batch { responses }, done);
            }
            Request::Detach => return (Response::Ok, true),
            Request::Subscribe {
                files,
                instances,
                kinds,
            } => {
                self.subscription = Some(Subscription {
                    files,
                    instances,
                    kinds,
                });
                Response::Ok
            }
            // Interrupting is an explicitly shared-resource action: the
            // simulation belongs to every attached session, so any
            // session may stop a runaway continue. With nothing in
            // flight it is a harmless no-op.
            Request::Interrupt => {
                if let Some((state, _)) = &mut self.service {
                    if let Some(run) = &mut state.active_run {
                        run.interrupted = true;
                    }
                }
                Response::Ok
            }
            Request::Continue {
                max_cycles,
                budget_cycles,
                budget_ms,
            } => {
                let outcome = match &mut self.service {
                    Some((state, cmd_rx)) => pumped_continue(
                        state,
                        cmd_rx,
                        runtime,
                        session,
                        max_cycles,
                        budget_cycles,
                        budget_ms,
                    ),
                    None => runtime.continue_sliced(max_cycles, budget_cycles, budget_ms, |_| {
                        ControlFlow::Continue(())
                    }),
                };
                run_response(outcome)
            }
            Request::InsertBreakpoint {
                filename,
                line,
                col,
                condition,
            } => {
                match runtime.insert_breakpoint_for(
                    session,
                    &filename,
                    line,
                    col,
                    condition.as_deref(),
                ) {
                    Ok(ids) => Response::Inserted { ids },
                    Err(e) => error_response(e),
                }
            }
            Request::RemoveBreakpoint { id } => match runtime.remove_breakpoint_for(session, id) {
                Ok(()) => Response::Ok,
                Err(e) => error_response(e),
            },
            Request::ListBreakpoints => Response::Breakpoints {
                items: runtime.breakpoints_for(session),
            },
            Request::InsertWatchpoint { instance, expr } => {
                match runtime.insert_watchpoint_for(session, instance.as_deref(), &expr) {
                    Ok(id) => Response::WatchpointInserted { id },
                    Err(e) => error_response(e),
                }
            }
            Request::RemoveWatchpoint { id } => match runtime.remove_watchpoint_for(session, id) {
                Ok(()) => Response::Ok,
                Err(e) => error_response(e),
            },
            Request::ListWatchpoints => Response::Watchpoints {
                items: runtime.watchpoints_for(session),
            },
            Request::Ping => Response::Pong,
            Request::Lint => Response::LintReport {
                report: runtime.lint_report(),
            },
            Request::Step { max_cycles } => run_response(runtime.step(max_cycles)),
            Request::ReverseStep => run_response(runtime.reverse_step()),
            Request::ReverseContinue => run_response(runtime.reverse_continue()),
            Request::Checkpoint => match runtime.checkpoint_now() {
                Ok(cycle) => Response::Checkpointed {
                    cycle,
                    checkpoints: runtime.checkpoints().len(),
                    bytes: runtime.checkpoints().approx_bytes(),
                },
                Err(e) => error_response(e),
            },
            Request::Restore { cycle } => match runtime.restore_latest_or(cycle) {
                Ok(event) => Response::Stopped { event },
                Err(e) => error_response(e),
            },
            Request::Frames => match runtime.stopped() {
                Some(event) => Response::Stopped {
                    event: event.clone(),
                },
                None => Response::Error {
                    message: "not stopped at a breakpoint".into(),
                },
            },
            Request::Eval { instance, expr } => match runtime.eval(instance.as_deref(), &expr) {
                Ok(v) => Response::Value {
                    text: v.to_string(),
                    width: v.width(),
                },
                Err(e) => error_response(e),
            },
            Request::SetValue {
                instance,
                name,
                value,
            } => {
                let parsed = crate::expr::DebugExpr::parse(&value).and_then(|e| e.eval(&|_| None));
                match parsed {
                    Ok(v) => match runtime.set_variable(instance.as_deref(), &name, v) {
                        Ok(()) => Response::Ok,
                        Err(e) => error_response(e),
                    },
                    Err(e) => Response::Error {
                        message: format!("bad value literal: {e}"),
                    },
                }
            }
            Request::Hierarchy => Response::Hierarchy {
                tree: hier_json(&runtime.hierarchy()),
            },
            Request::Time => Response::Time {
                time: runtime.time(),
            },
        };
        if let (true, Response::Stopped { event }) = (advancing, &response) {
            if event.reason.is_broadcast() {
                self.stops.push(event.clone());
            }
        }
        (response, false)
    }
}

fn hier_json(node: &HierNode) -> Json {
    Json::object([
        ("name", Json::from(node.name.as_str())),
        (
            "signals",
            node.signals
                .iter()
                .map(|s| Json::from(s.as_str()))
                .collect(),
        ),
        ("children", Json::array(node.children.iter().map(hier_json))),
    ])
}

fn error_response(e: DebugError) -> Response {
    Response::Error {
        message: e.to_string(),
    }
}

fn run_response(outcome: Result<RunOutcome, DebugError>) -> Response {
    match outcome {
        Ok(outcome) => outcome_response(outcome),
        Err(e) => error_response(e),
    }
}

/// Executes one request against the runtime as [`LOCAL_SESSION`] —
/// including batches, which run their sub-requests in order and
/// collect the responses — through the same interpreter the service
/// thread runs. Returns the response and whether the session ends (a
/// detach was executed). Subscription requests are acknowledged but
/// have no effect outside a service session, `interrupt` has nothing
/// to stop, and no checkpoint is taken implicitly.
pub fn dispatch<S: SimControl>(runtime: &mut Runtime<S>, request: Request) -> (Response, bool) {
    Interpreter {
        session: LOCAL_SESSION,
        service: None,
        stops: Vec::new(),
        subscription: None,
    }
    .run(runtime, request)
}

/// Tunables for the TCP front's fault containment. The defaults suit
/// interactive debugging; chaos tests shrink them to make reaping and
/// draining observable in milliseconds.
#[derive(Debug, Clone)]
pub struct TcpServerConfig {
    /// Hard cap on one inbound request line. A line that grows past
    /// this without a newline gets an error reply and the connection
    /// is closed — the server never buffers an unbounded frame.
    pub max_line_len: usize,
    /// Reap a connection that has sent no complete line for this long
    /// (`None` disables reaping). A `ping` is a cheap keepalive.
    pub idle_timeout: Option<Duration>,
    /// How often a blocked reader wakes to check the idle clock and
    /// the server's stop flag. Bounds shutdown latency per client.
    pub poll_interval: Duration,
    /// On shutdown, how long each client's socket may take to accept
    /// the final `server_exiting` event before its writes are cut.
    pub drain_timeout: Duration,
}

impl Default for TcpServerConfig {
    fn default() -> TcpServerConfig {
        TcpServerConfig {
            max_line_len: 1 << 20,
            idle_timeout: Some(Duration::from_secs(300)),
            poll_interval: Duration::from_millis(100),
            drain_timeout: Duration::from_secs(1),
        }
    }
}

/// A live client connection tracked for graceful shutdown: the reader
/// thread to join, and a clone of its stream so a stuck connection can
/// be cut from outside.
struct ClientConn {
    thread: JoinHandle<()>,
    stream: Option<TcpStream>,
}

/// The TCP front: accept loop plus one reader and one writer thread
/// per client connection, all funneling into one [`ServiceHandle`].
///
/// Every spawned thread is tracked. [`TcpDebugServer::shutdown`] (and
/// `Drop`) stops the accept loop, notifies each connected client with
/// a final `server_exiting` event, drains with a deadline, severs
/// stragglers, and joins everything — no detached threads survive the
/// server.
#[derive(Debug)]
pub struct TcpDebugServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    clients: Arc<Mutex<Vec<ClientConn>>>,
    config: TcpServerConfig,
}

impl std::fmt::Debug for ClientConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientConn").finish_non_exhaustive()
    }
}

impl TcpDebugServer {
    /// Starts accepting connections on `listener` with default
    /// [`TcpServerConfig`], serving each client against the service
    /// behind `handle`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from querying the local address.
    pub fn start(handle: ServiceHandle, listener: TcpListener) -> std::io::Result<TcpDebugServer> {
        TcpDebugServer::start_with(handle, listener, TcpServerConfig::default())
    }

    /// [`TcpDebugServer::start`] with explicit fault-containment
    /// tunables.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from querying the local address.
    pub fn start_with(
        handle: ServiceHandle,
        listener: TcpListener,
        config: TcpServerConfig,
    ) -> std::io::Result<TcpDebugServer> {
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let clients: Arc<Mutex<Vec<ClientConn>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_stop = Arc::clone(&stop);
        let accept_clients = Arc::clone(&clients);
        let accept_config = config.clone();
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                let stream = match conn {
                    Ok(stream) => stream,
                    Err(_) => {
                        // Persistent accept failures (EMFILE once
                        // every fd is a client connection) would
                        // otherwise busy-spin this loop at 100% CPU;
                        // back off until fds free up.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        continue;
                    }
                };
                let client_handle = handle.clone();
                let client_config = accept_config.clone();
                let client_stop = Arc::clone(&accept_stop);
                // Keep our own handle on the socket so shutdown can
                // sever a stuck connection from outside; a failed
                // clone just means that escape hatch is unavailable.
                let tracked = stream.try_clone().ok();
                let thread = std::thread::spawn(move || {
                    client_session(&client_handle, stream, &client_config, &client_stop);
                });
                let mut registry = accept_clients.lock().unwrap();
                // Opportunistically reap finished sessions so a
                // long-lived server's registry tracks live connections
                // rather than its whole connection history.
                let mut i = 0;
                while i < registry.len() {
                    if registry[i].thread.is_finished() {
                        let done = registry.swap_remove(i);
                        let _ = done.thread.join();
                    } else {
                        i += 1;
                    }
                }
                registry.push(ClientConn {
                    thread,
                    stream: tracked,
                });
            }
        });
        Ok(TcpDebugServer {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            clients,
            config,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop accepting, send every connected client
    /// a final `server_exiting` event, drain within the configured
    /// deadline, sever connections that refuse to drain, and join all
    /// reader/writer threads. Returns only once no server thread is
    /// left running.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(thread) = self.accept_thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let _ = thread.join();
        let clients = std::mem::take(&mut *self.clients.lock().unwrap());
        // Bound the final server_exiting write per client: a peer that
        // stopped reading (dead TCP window) must not wedge shutdown.
        for conn in &clients {
            if let Some(stream) = &conn.stream {
                let _ = stream.set_write_timeout(Some(self.config.drain_timeout));
            }
        }
        // Each reader notices the stop flag within one poll interval,
        // the writer then gets drain_timeout to flush; anything beyond
        // deadline + margin is wedged and gets its socket cut.
        let deadline = Instant::now()
            + self.config.drain_timeout
            + self.config.poll_interval
            + Duration::from_millis(500);
        for conn in &clients {
            while !conn.thread.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if !conn.thread.is_finished() {
                if let Some(stream) = &conn.stream {
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        }
        for conn in clients {
            let _ = conn.thread.join();
        }
    }
}

impl Drop for TcpDebugServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One client connection: this thread reads request lines; a spawned
/// writer thread drains the session's outbound channel (replies and
/// broadcasts, strictly ordered) onto the socket.
///
/// The reader polls at `config.poll_interval` so it can notice server
/// shutdown and reap the connection after `config.idle_timeout`
/// without a complete line. Lines longer than `config.max_line_len`
/// are answered with an error and end the connection.
fn client_session(
    handle: &ServiceHandle,
    stream: TcpStream,
    config: &TcpServerConfig,
    stop: &Arc<AtomicBool>,
) {
    // One small JSON line per reply: Nagle's algorithm would hold each
    // one back until the peer ACKs, serializing the session at ~25
    // round-trips/sec on loopback.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (out_tx, out_rx) = outbound_queue(DEFAULT_OUTBOUND_CAPACITY);
    let Some(session) = handle.open_session(out_tx) else {
        return;
    };
    let writer_stop = Arc::clone(stop);
    let writer = std::thread::spawn(move || {
        let mut w = write_half;
        while let Some(out) = out_rx.recv() {
            let (mut line, last) = out.to_line(session);
            line.push('\n');
            let ok = w
                .write_all(line.as_bytes())
                .and_then(|()| w.flush())
                .is_ok();
            if !ok || last {
                let _ = w.shutdown(Shutdown::Both);
                return;
            }
        }
        // Queue closed without a final reply. If the server is
        // exiting, tell the peer before hanging up; a reaped or
        // poisoned session just gets EOF.
        if writer_stop.load(Ordering::Acquire) {
            let mut line = encode_server_exiting().to_string();
            line.push('\n');
            let _ = w.write_all(line.as_bytes()).and_then(|()| w.flush());
        }
        // Unblock the reader (and tell the peer) on session end.
        let _ = w.shutdown(Shutdown::Both);
    });

    let mut reader = stream;
    let _ = reader.set_read_timeout(Some(config.poll_interval));
    let mut lines = LineReader::new(config.max_line_len);
    let mut last_activity = Instant::now();
    loop {
        match lines.read_line(&mut reader) {
            ReadLine::Line(line) => {
                last_activity = Instant::now();
                if line.trim().is_empty() {
                    continue;
                }
                if !handle.submit_line(session, &line) {
                    break;
                }
            }
            ReadLine::TimedOut => {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                if config
                    .idle_timeout
                    .is_some_and(|idle| last_activity.elapsed() >= idle)
                {
                    // Liveness reap: the peer went quiet past the
                    // deadline; free its debug state rather than
                    // holding breakpoints for a ghost.
                    break;
                }
            }
            ReadLine::TooLong => {
                // The reply drains through the outbound queue before
                // the close tears it down, so the peer learns *why*.
                let _ = handle.reject(
                    session,
                    None,
                    format!("line exceeds {} byte cap", config.max_line_len),
                );
                break;
            }
            ReadLine::Eof | ReadLine::Err(_) => break,
        }
    }
    handle.close_session(session);
    let _ = writer.join();
}
