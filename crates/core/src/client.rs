//! Debugger-side client: typed wrappers over the JSON protocol.
//!
//! Both shipped debugger frontends — the scripted sessions in the
//! examples and the interactive gdb-style CLI — use this client. It is
//! transport-generic: an in-process [`crate::ServiceTransport`] or TCP.
//!
//! Every request carries a sequence number; the client matches each
//! reply by its echoed `seq`, and any asynchronous `event` messages
//! (stop broadcasts from other sessions attached to the same service)
//! that arrive in between are queued for [`DebugClient::take_event`] /
//! [`DebugClient::wait_event`].

use std::collections::VecDeque;

use microjson::Json;

use crate::protocol::{encode_request_line, Request, SessionId};
use crate::server::Transport;

/// A connected debugger client.
#[derive(Debug)]
pub struct DebugClient<T: Transport> {
    transport: T,
    next_seq: u64,
    events: VecDeque<Json>,
    session: Option<SessionId>,
}

/// Client-side error.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Transport failure / disconnect.
    Transport(String),
    /// Server reported an error.
    Server(String),
    /// Response did not match the request.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(m) => write!(f, "transport: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl<T: Transport> DebugClient<T> {
    /// Wraps a transport.
    pub fn new(transport: T) -> DebugClient<T> {
        DebugClient {
            transport,
            next_seq: 1,
            events: VecDeque::new(),
            session: None,
        }
    }

    /// The server-assigned session id, once any reply has arrived.
    pub fn session_id(&self) -> Option<SessionId> {
        self.session
    }

    /// Receives one line, parsed.
    fn recv_json(&mut self) -> Result<Json, ClientError> {
        let reply = self
            .transport
            .recv()
            .ok_or_else(|| ClientError::Transport("disconnected".into()))?;
        microjson::parse(&reply).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Sends one request, returning the raw JSON response. Event
    /// messages arriving before the reply are queued, not dropped.
    ///
    /// # Errors
    ///
    /// Transport failures or server-reported errors.
    pub fn request(&mut self, req: &Request) -> Result<Json, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let line = encode_request_line(req, Some(seq)).to_string();
        self.transport.send(&line).map_err(ClientError::Transport)?;
        loop {
            let json = self.recv_json()?;
            if json["type"].as_str() == Some("event") {
                self.events.push_back(json);
                continue;
            }
            if let Some(echoed) = json["seq"].as_i64() {
                if echoed as u64 != seq {
                    return Err(ClientError::Protocol(format!(
                        "reply seq {echoed} does not match request seq {seq}"
                    )));
                }
            }
            if let Some(session) = json["session"].as_i64() {
                self.session = Some(session as u64);
            }
            if json["type"].as_str() == Some("error") {
                return Err(ClientError::Server(
                    json["message"].as_str().unwrap_or("unknown").to_owned(),
                ));
            }
            return Ok(json);
        }
    }

    /// Sends many requests as one [`Request::Batch`] round-trip,
    /// returning the per-request responses in order. Individual
    /// request failures come back as `error`-typed entries rather than
    /// failing the whole batch.
    ///
    /// # Errors
    ///
    /// Transport failures, or a reply that is not a batch.
    pub fn batch(&mut self, requests: &[Request]) -> Result<Vec<Json>, ClientError> {
        let resp = self.request(&Request::Batch {
            requests: requests.to_vec(),
        })?;
        if resp["type"].as_str() != Some("batch") {
            return Err(ClientError::Protocol("expected batch response".into()));
        }
        Ok(resp["responses"].as_array().unwrap_or(&[]).to_vec())
    }

    /// Pops a queued asynchronous event, if one has arrived.
    pub fn take_event(&mut self) -> Option<Json> {
        self.events.pop_front()
    }

    /// Blocks until an asynchronous event arrives (e.g. another
    /// session stopped the simulation).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn wait_event(&mut self) -> Result<Json, ClientError> {
        if let Some(ev) = self.events.pop_front() {
            return Ok(ev);
        }
        loop {
            let json = self.recv_json()?;
            if json["type"].as_str() == Some("event") {
                return Ok(json);
            }
            // A non-event here is a stale reply; skip it.
        }
    }

    /// [`DebugClient::wait_event`] with a deadline: returns `Ok(None)`
    /// if no asynchronous event arrives within `timeout`, so an
    /// interactive frontend can wait without wedging on a quiet
    /// server.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn wait_event_timeout(
        &mut self,
        timeout: std::time::Duration,
    ) -> Result<Option<Json>, ClientError> {
        if let Some(ev) = self.events.pop_front() {
            return Ok(Some(ev));
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = match deadline.checked_duration_since(std::time::Instant::now()) {
                Some(r) if !r.is_zero() => r,
                _ => return Ok(None),
            };
            let line = match self.transport.recv_timeout(remaining) {
                crate::server::RecvOutcome::Line(line) => line,
                crate::server::RecvOutcome::TimedOut => return Ok(None),
                crate::server::RecvOutcome::Closed => {
                    return Err(ClientError::Transport("disconnected".into()))
                }
            };
            let json = microjson::parse(&line).map_err(|e| ClientError::Protocol(e.to_string()))?;
            if json["type"].as_str() == Some("event") {
                return Ok(Some(json));
            }
            // A non-event here is a stale reply; skip it.
        }
    }

    /// Inserts breakpoints at `filename:line`; returns ids.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn insert_breakpoint(
        &mut self,
        filename: &str,
        line: u32,
        condition: Option<&str>,
    ) -> Result<Vec<i64>, ClientError> {
        let resp = self.request(&Request::InsertBreakpoint {
            filename: filename.to_owned(),
            line,
            col: None,
            condition: condition.map(str::to_owned),
        })?;
        Ok(resp["ids"]
            .as_array()
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_i64)
            .collect())
    }

    /// Inserts a watchpoint — execution stops when the expression's
    /// value changes across a clock edge during a `continue` — and
    /// returns its id.
    ///
    /// ```
    /// use hgdb::{DebugClient, DebugService, Runtime};
    /// use rtl_sim::Simulator;
    ///
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
    /// let mut client = DebugClient::new(service.handle().connect().unwrap());
    /// let id = client.insert_watchpoint(Some("top"), "count").unwrap();
    /// // The counter increments every cycle, so the very next edge
    /// // changes the watched value and stops the run.
    /// let stop = client.continue_run(Some(100)).unwrap();
    /// assert_eq!(stop["event"]["reason"].as_str(), Some("watchpoint"));
    /// let hit = &stop["event"]["watch_hits"][0];
    /// assert_eq!(hit["old"]["decimal"].as_str(), Some("0"));
    /// assert_eq!(hit["new"]["decimal"].as_str(), Some("1"));
    /// client.remove_watchpoint(id).unwrap();
    /// client.detach().unwrap();
    /// let _runtime = service.shutdown();
    /// # Ok::<(), hgf_ir::IrError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn insert_watchpoint(
        &mut self,
        instance: Option<&str>,
        expr: &str,
    ) -> Result<i64, ClientError> {
        let resp = self.request(&Request::InsertWatchpoint {
            instance: instance.map(str::to_owned),
            expr: expr.to_owned(),
        })?;
        resp["id"]
            .as_i64()
            .ok_or_else(|| ClientError::Protocol("watchpoint response missing id".into()))
    }

    /// Removes one of this session's watchpoints.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn remove_watchpoint(&mut self, id: i64) -> Result<(), ClientError> {
        self.request(&Request::RemoveWatchpoint { id }).map(|_| ())
    }

    /// Lists this session's watchpoints as raw JSON entries.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn list_watchpoints(&mut self) -> Result<Vec<Json>, ClientError> {
        let resp = self.request(&Request::ListWatchpoints)?;
        Ok(resp["items"].as_array().unwrap_or(&[]).to_vec())
    }

    /// Replaces this session's event subscription. Empty slices are
    /// wildcards: `subscribe(&[], &[], &[])` restores the default
    /// everything-subscription.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn subscribe(
        &mut self,
        files: &[&str],
        instances: &[&str],
        kinds: &[&str],
    ) -> Result<(), ClientError> {
        let own = |items: &[&str]| items.iter().map(|s| (*s).to_owned()).collect();
        self.request(&Request::Subscribe {
            files: own(files),
            instances: own(instances),
            kinds: own(kinds),
        })
        .map(|_| ())
    }

    /// Continues execution; returns the stop/finish JSON.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn continue_run(&mut self, max_cycles: Option<u64>) -> Result<Json, ClientError> {
        self.continue_with(max_cycles, None, None)
    }

    /// [`DebugClient::continue_run`] with an optional per-request
    /// budget: the run stops with reason `budget_exhausted` once it
    /// consumes `budget_cycles` clock cycles or `budget_ms`
    /// milliseconds of wall time, and is resumable from exactly where
    /// the budget cut in.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn continue_with(
        &mut self,
        max_cycles: Option<u64>,
        budget_cycles: Option<u64>,
        budget_ms: Option<u64>,
    ) -> Result<Json, ClientError> {
        self.request(&Request::Continue {
            max_cycles,
            budget_cycles,
            budget_ms,
        })
    }

    /// Liveness probe; also resets the server's idle-reap clock for
    /// this connection.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Ping).map(|_| ())
    }

    /// Asks the service to stop whatever `continue` is currently in
    /// flight (from any session); the interrupted run replies to its
    /// own requester with stop reason `interrupted`. A no-op when
    /// nothing is running.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn interrupt(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Interrupt).map(|_| ())
    }

    /// Steps to the next active statement.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn step(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Step {
            max_cycles: Some(10_000),
        })
    }

    /// Steps backwards.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn reverse_step(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::ReverseStep)
    }

    /// Resumes execution backwards to the most recent
    /// breakpoint/watchpoint hit at an earlier cycle; returns the
    /// stop/finish JSON.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn reverse_continue(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::ReverseContinue)
    }

    /// Captures an explicit checkpoint of the current simulation
    /// state; returns the checkpointed cycle.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn checkpoint(&mut self) -> Result<u64, ClientError> {
        let resp = self.request(&Request::Checkpoint)?;
        resp["cycle"]
            .as_i64()
            .map(|c| c as u64)
            .ok_or_else(|| ClientError::Protocol("checkpoint response missing cycle".into()))
    }

    /// Restores execution to `cycle` (or the newest retained
    /// checkpoint when `None`); returns the `"restored"` stop JSON.
    /// Subscribed viewers receive the same stop as a broadcast.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn restore(&mut self, cycle: Option<u64>) -> Result<Json, ClientError> {
        self.request(&Request::Restore { cycle })
    }

    /// Evaluates an expression; returns its decimal text.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn eval(&mut self, instance: Option<&str>, expr: &str) -> Result<String, ClientError> {
        let resp = self.request(&Request::Eval {
            instance: instance.map(str::to_owned),
            expr: expr.to_owned(),
        })?;
        resp["text"]
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| ClientError::Protocol("value response missing text".into()))
    }

    /// Current simulation time.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn time(&mut self) -> Result<u64, ClientError> {
        let resp = self.request(&Request::Time)?;
        resp["time"]
            .as_i64()
            .map(|t| t as u64)
            .ok_or_else(|| ClientError::Protocol("time response missing time".into()))
    }

    /// The design's static-analysis report (`lint_report` JSON: a
    /// `clean` flag, a `count`, and a `diagnostics` array — see
    /// `docs/LINT.md` for the schema). Non-advancing: answered inline
    /// even while another session runs.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn lint(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Lint)
    }

    /// Ends the session.
    ///
    /// # Errors
    ///
    /// Server/transport failures.
    pub fn detach(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Detach).map(|_| ())
    }
}

/// Connects over TCP.
///
/// # Errors
///
/// Socket failures.
pub fn connect_tcp(addr: &str) -> std::io::Result<DebugClient<crate::server::TcpTransport>> {
    let stream = std::net::TcpStream::connect(addr)?;
    Ok(DebugClient::new(crate::server::TcpTransport::new(stream)?))
}
