//! The hgdb debugging protocol (§3.5).
//!
//! "hgdb relies on RPC-based debugging protocol similar to gdb remote
//! protocol, where the debugger connects to hgdb via WebSocket." Here
//! the wire format is newline-delimited JSON messages, carried over
//! TCP or an in-process session — the framing differs from WebSocket,
//! the message semantics do not. Both shipped debuggers (the gdb-like
//! CLI and a hypothetical IDE) speak this protocol.
//!
//! # Envelope: `seq`, `session`, and events
//!
//! The service layer serves many concurrent debugger sessions against
//! one runtime, so every message carries demultiplexing metadata:
//!
//! * A request may carry a client-chosen `"seq"` number; the matching
//!   reply echoes it, letting a client pair replies with requests.
//! * Every reply carries the server-assigned `"session"` id of the
//!   connection it answers.
//! * Asynchronous broadcasts use `"type": "event"` (never a reply):
//!   when any session stops the simulation at a breakpoint or
//!   watchpoint, every *other* session whose subscription matches
//!   receives
//!   `{"type":"event","event":"stopped","session":<origin>,"data":{...}}`
//!   so attached viewers stay in sync without polling. The `data`
//!   payload names the sessions whose breakpoints/watchpoints hit and
//!   carries a `reason` of `"breakpoint"` or `"watchpoint"`.
//! * [`Request::Subscribe`] narrows which broadcasts a session
//!   receives (by file, instance, or event kind); the default is
//!   everything. A session that drains its connection too slowly gets
//!   `{"type":"event","event":"lagged","missed":N}` after the service
//!   drops its oldest undelivered broadcasts (see
//!   [`crate::outbound`]).
//! * [`Request::Batch`] carries many requests in one line and returns
//!   one [`Response::Batch`] with the per-request responses in order —
//!   scripted frontends pay one round-trip for the whole script
//!   instead of one per poke.
//!
//! The complete wire reference with example JSON lines per message
//! lives in `docs/PROTOCOL.md`.

use bits::Bits4;
use microjson::Json;

use crate::frame::{Frame, VarNode};
use crate::runtime::{BreakpointListing, RunOutcome, StopEvent, WatchHit, WatchpointListing};

/// Server-assigned id identifying one debugger connection.
pub type SessionId = u64;

/// A debugger → runtime request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Insert breakpoints at a source location (Figure 4 D).
    InsertBreakpoint {
        /// Source file.
        filename: String,
        /// Line number.
        line: u32,
        /// Optional column.
        col: Option<u32>,
        /// Optional conditional expression.
        condition: Option<String>,
    },
    /// Remove one breakpoint by id (only the caller's own insertion).
    RemoveBreakpoint {
        /// Breakpoint id.
        id: i64,
    },
    /// List the calling session's inserted breakpoints.
    ListBreakpoints,
    /// Insert a watchpoint: stop when the expression's value changes
    /// between evaluation points (clock edges during `continue`).
    InsertWatchpoint {
        /// Optional instance path providing name context.
        instance: Option<String>,
        /// Watched expression text.
        expr: String,
    },
    /// Remove one watchpoint by id (only the caller's own).
    RemoveWatchpoint {
        /// Watchpoint id.
        id: i64,
    },
    /// List the calling session's watchpoints.
    ListWatchpoints,
    /// Replace this session's event subscription. Empty lists are
    /// wildcards; a stop broadcast is delivered only when every
    /// non-empty filter matches (see `docs/PROTOCOL.md`).
    Subscribe {
        /// Source files of interest (breakpoint stops only).
        files: Vec<String>,
        /// Instance paths of interest (breakpoint stops only).
        instances: Vec<String>,
        /// Event kinds of interest: `"breakpoint"`, `"watchpoint"`,
        /// `"restored"`.
        kinds: Vec<String>,
    },
    /// Resume until a breakpoint hits (Figure 4 C "continue").
    Continue {
        /// Safety cycle bound; `None` = run to the end.
        max_cycles: Option<u64>,
        /// Budget: stop with reason `"budget_exhausted"` after this
        /// many clock cycles. Unlike `max_cycles` (which *finishes*
        /// the run), a budget stop is resumable.
        budget_cycles: Option<u64>,
        /// Budget: stop with reason `"budget_exhausted"` after this
        /// much wall-clock time, in milliseconds.
        budget_ms: Option<u64>,
    },
    /// Step to the next active statement ("step over").
    Step {
        /// Safety cycle bound.
        max_cycles: Option<u64>,
    },
    /// Step backwards ("reverse-step", Figure 4 C).
    ReverseStep,
    /// Resume backwards to the most recent breakpoint/watchpoint hit
    /// at an earlier cycle (checkpoint restore + deterministic replay
    /// on forward-only backends).
    ReverseContinue,
    /// Capture an explicit checkpoint of the current simulation state;
    /// answered with [`Response::Checkpointed`].
    Checkpoint,
    /// Restore execution to an earlier cycle: the given one, or the
    /// newest retained checkpoint when `cycle` is null. Broadcasts a
    /// `"restored"` stop so subscribed viewers resync.
    Restore {
        /// Target cycle; `None` = newest retained checkpoint.
        cycle: Option<u64>,
    },
    /// Current stop's frames (Figure 4 A/B).
    Frames,
    /// Evaluate an expression in an optional instance context.
    Eval {
        /// Instance path providing name context.
        instance: Option<String>,
        /// Expression text.
        expr: String,
    },
    /// Force a variable/signal value.
    SetValue {
        /// Instance context.
        instance: Option<String>,
        /// Variable name or RTL path.
        name: String,
        /// Value literal (debugger expression syntax).
        value: String,
    },
    /// The design hierarchy.
    Hierarchy,
    /// Current simulation time.
    Time,
    /// Liveness probe; answered with [`Response::Pong`]. Also resets
    /// the connection's idle clock on servers that reap idle peers.
    Ping,
    /// Stop another session's in-flight `continue` (stop reason
    /// `"interrupted"`). Sent on the interrupting session's *own*
    /// connection; answered `Ok` immediately. With no run in flight it
    /// is a harmless no-op.
    Interrupt,
    /// The design's static-analysis report; answered with
    /// [`Response::LintReport`]. Non-advancing: answered inline even
    /// while another session's `continue` is in flight.
    Lint,
    /// End the session.
    Detach,
    /// Several requests in one round-trip; answered by
    /// [`Response::Batch`] with one response per request, in order.
    Batch {
        /// The requests, executed in order against the runtime.
        requests: Vec<Request>,
    },
}

impl Request {
    /// The wire `"type"` string of this request. Stable names used to
    /// tag fault-injection points (`fault::maybe_panic`) and
    /// diagnostics; for a [`Request::Batch`] this is `"batch"`, not
    /// the inner kinds.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Request::InsertBreakpoint { .. } => "insert_breakpoint",
            Request::RemoveBreakpoint { .. } => "remove_breakpoint",
            Request::ListBreakpoints => "list_breakpoints",
            Request::InsertWatchpoint { .. } => "insert_watchpoint",
            Request::RemoveWatchpoint { .. } => "remove_watchpoint",
            Request::ListWatchpoints => "list_watchpoints",
            Request::Subscribe { .. } => "subscribe",
            Request::Continue { .. } => "continue",
            Request::Step { .. } => "step",
            Request::ReverseStep => "reverse_step",
            Request::ReverseContinue => "reverse_continue",
            Request::Checkpoint => "checkpoint",
            Request::Restore { .. } => "restore",
            Request::Frames => "frames",
            Request::Eval { .. } => "eval",
            Request::SetValue { .. } => "set_value",
            Request::Hierarchy => "hierarchy",
            Request::Time => "time",
            Request::Ping => "ping",
            Request::Interrupt => "interrupt",
            Request::Lint => "lint",
            Request::Detach => "detach",
            Request::Batch { .. } => "batch",
        }
    }

    /// Whether this request moves or captures simulation state —
    /// recursively, so a batch carrying a `continue` counts. The one
    /// list of advancing kinds: the service defers advancing requests
    /// while another session's `continue` is in flight (two interleaved
    /// runs would corrupt both sessions' notion of "the" stop), seeds
    /// its crash-recovery checkpoint before running one, and broadcasts
    /// only their stops (a `frames` re-query also answers `stopped`,
    /// but nothing moved).
    pub fn is_advancing(&self) -> bool {
        match self {
            Request::Continue { .. }
            | Request::Step { .. }
            | Request::ReverseStep
            | Request::ReverseContinue
            // A checkpoint captures state, and a continue's mid-run
            // slice boundary leaves the scheduler cursor inside a cycle
            // that a snapshot would not capture, so it waits its turn
            // like any state-moving request.
            | Request::Checkpoint
            | Request::Restore { .. } => true,
            Request::Batch { requests } => requests.iter().any(Request::is_advancing),
            _ => false,
        }
    }
}

/// A runtime → debugger response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Liveness answer to [`Request::Ping`].
    Pong,
    /// Inserted breakpoint ids.
    Inserted {
        /// The ids created.
        ids: Vec<i64>,
    },
    /// Breakpoint listing.
    Breakpoints {
        /// Listing entries.
        items: Vec<BreakpointListing>,
    },
    /// Inserted watchpoint id.
    WatchpointInserted {
        /// The id created.
        id: i64,
    },
    /// Watchpoint listing.
    Watchpoints {
        /// Listing entries.
        items: Vec<WatchpointListing>,
    },
    /// Execution stopped at a breakpoint group.
    Stopped {
        /// The stop event with frames.
        event: StopEvent,
    },
    /// Execution finished without a hit.
    Finished {
        /// Final time.
        time: u64,
    },
    /// Expression value.
    Value {
        /// Decimal rendering.
        text: String,
        /// Width in bits.
        width: u32,
    },
    /// Hierarchy dump.
    Hierarchy {
        /// JSON tree (scopes/signals).
        tree: Json,
    },
    /// Current time.
    Time {
        /// Simulation time.
        time: u64,
    },
    /// A checkpoint was captured ([`Request::Checkpoint`]).
    Checkpointed {
        /// The cycle the checkpoint describes.
        cycle: u64,
        /// Checkpoints now retained.
        checkpoints: usize,
        /// Approximate bytes held by retained checkpoints.
        bytes: usize,
    },
    /// Static-analysis report for [`Request::Lint`].
    LintReport {
        /// The diagnostics (see `docs/LINT.md` for the wire schema).
        report: hgdb_lint::Report,
    },
    /// Failure.
    Error {
        /// Human-readable message.
        message: String,
    },
    /// Per-request responses for a [`Request::Batch`], in order.
    Batch {
        /// One response per batched request.
        responses: Vec<Response>,
    },
}

/// Encodes a request as a JSON line.
pub fn encode_request(req: &Request) -> Json {
    match req {
        Request::InsertBreakpoint {
            filename,
            line,
            col,
            condition,
        } => Json::object([
            ("type", Json::from("insert_breakpoint")),
            ("filename", Json::from(filename.as_str())),
            ("line", Json::from(*line)),
            ("col", col.map(Json::from).unwrap_or(Json::Null)),
            (
                "condition",
                condition.as_deref().map(Json::from).unwrap_or(Json::Null),
            ),
        ]),
        Request::RemoveBreakpoint { id } => Json::object([
            ("type", Json::from("remove_breakpoint")),
            ("id", Json::Int(*id)),
        ]),
        Request::ListBreakpoints => Json::object([("type", Json::from("list_breakpoints"))]),
        Request::InsertWatchpoint { instance, expr } => Json::object([
            ("type", Json::from("insert_watchpoint")),
            (
                "instance",
                instance.as_deref().map(Json::from).unwrap_or(Json::Null),
            ),
            ("expr", Json::from(expr.as_str())),
        ]),
        Request::RemoveWatchpoint { id } => Json::object([
            ("type", Json::from("remove_watchpoint")),
            ("id", Json::Int(*id)),
        ]),
        Request::ListWatchpoints => Json::object([("type", Json::from("list_watchpoints"))]),
        Request::Subscribe {
            files,
            instances,
            kinds,
        } => Json::object([
            ("type", Json::from("subscribe")),
            (
                "files",
                Json::array(files.iter().map(|f| Json::from(f.as_str()))),
            ),
            (
                "instances",
                Json::array(instances.iter().map(|i| Json::from(i.as_str()))),
            ),
            (
                "kinds",
                Json::array(kinds.iter().map(|k| Json::from(k.as_str()))),
            ),
        ]),
        Request::Continue {
            max_cycles,
            budget_cycles,
            budget_ms,
        } => Json::object([
            ("type", Json::from("continue")),
            (
                "max_cycles",
                max_cycles.map(Json::from).unwrap_or(Json::Null),
            ),
            (
                "budget_cycles",
                budget_cycles.map(Json::from).unwrap_or(Json::Null),
            ),
            ("budget_ms", budget_ms.map(Json::from).unwrap_or(Json::Null)),
        ]),
        Request::Step { max_cycles } => Json::object([
            ("type", Json::from("step")),
            (
                "max_cycles",
                max_cycles.map(Json::from).unwrap_or(Json::Null),
            ),
        ]),
        Request::ReverseStep => Json::object([("type", Json::from("reverse_step"))]),
        Request::ReverseContinue => Json::object([("type", Json::from("reverse_continue"))]),
        Request::Checkpoint => Json::object([("type", Json::from("checkpoint"))]),
        Request::Restore { cycle } => Json::object([
            ("type", Json::from("restore")),
            ("cycle", cycle.map(Json::from).unwrap_or(Json::Null)),
        ]),
        Request::Frames => Json::object([("type", Json::from("frames"))]),
        Request::Eval { instance, expr } => Json::object([
            ("type", Json::from("eval")),
            (
                "instance",
                instance.as_deref().map(Json::from).unwrap_or(Json::Null),
            ),
            ("expr", Json::from(expr.as_str())),
        ]),
        Request::SetValue {
            instance,
            name,
            value,
        } => Json::object([
            ("type", Json::from("set_value")),
            (
                "instance",
                instance.as_deref().map(Json::from).unwrap_or(Json::Null),
            ),
            ("name", Json::from(name.as_str())),
            ("value", Json::from(value.as_str())),
        ]),
        Request::Hierarchy => Json::object([("type", Json::from("hierarchy"))]),
        Request::Time => Json::object([("type", Json::from("time"))]),
        Request::Ping => Json::object([("type", Json::from("ping"))]),
        Request::Interrupt => Json::object([("type", Json::from("interrupt"))]),
        Request::Lint => Json::object([("type", Json::from("lint"))]),
        Request::Detach => Json::object([("type", Json::from("detach"))]),
        Request::Batch { requests } => Json::object([
            ("type", Json::from("batch")),
            ("requests", Json::array(requests.iter().map(encode_request))),
        ]),
    }
}

/// Encodes a request as one wire line, attaching the client-chosen
/// sequence number the reply will echo.
pub fn encode_request_line(req: &Request, seq: Option<u64>) -> Json {
    let mut obj = encode_request(req);
    if let Some(seq) = seq {
        obj.insert("seq", Json::from(seq));
    }
    obj
}

/// Splits a wire line into its sequence number (echoed even on decode
/// failure, so errors can be paired with their request) and the
/// decoded request.
pub fn decode_request_line(json: &Json) -> (Option<u64>, Result<Request, String>) {
    let seq = json["seq"].as_i64().map(|v| v as u64);
    (seq, decode_request(json))
}

/// Parses and decodes one raw wire line. The single entry point every
/// server-side reader uses, so malformed-JSON handling cannot drift
/// between the TCP and in-process paths.
pub fn decode_line(line: &str) -> (Option<u64>, Result<Request, String>) {
    match microjson::parse(line) {
        Ok(json) => decode_request_line(&json),
        Err(e) => (None, Err(format!("malformed json: {e}"))),
    }
}

/// Decodes a request from JSON.
///
/// # Errors
///
/// Returns a message describing the malformation.
pub fn decode_request(json: &Json) -> Result<Request, String> {
    let ty = json["type"].as_str().ok_or("missing type")?;
    let str_field = |k: &str| json[k].as_str().map(str::to_owned);
    let u32_field = |k: &str| json[k].as_i64().map(|v| v as u32);
    let u64_field = |k: &str| json[k].as_i64().map(|v| v as u64);
    Ok(match ty {
        "insert_breakpoint" => Request::InsertBreakpoint {
            filename: str_field("filename").ok_or("missing filename")?,
            line: u32_field("line").ok_or("missing line")?,
            col: u32_field("col"),
            condition: str_field("condition"),
        },
        "remove_breakpoint" => Request::RemoveBreakpoint {
            id: json["id"].as_i64().ok_or("missing id")?,
        },
        "list_breakpoints" => Request::ListBreakpoints,
        "insert_watchpoint" => Request::InsertWatchpoint {
            instance: str_field("instance"),
            expr: str_field("expr").ok_or("missing expr")?,
        },
        "remove_watchpoint" => Request::RemoveWatchpoint {
            id: json["id"].as_i64().ok_or("missing id")?,
        },
        "list_watchpoints" => Request::ListWatchpoints,
        "subscribe" => {
            // A missing (or null) filter is a wildcard; a present one
            // must be an array of strings — silently coercing a typo
            // to a wildcard would deliver *everything* to a session
            // that asked to narrow its traffic.
            let str_list = |k: &str| -> Result<Vec<String>, String> {
                match &json[k] {
                    Json::Null => Ok(Vec::new()),
                    Json::Array(items) => items
                        .iter()
                        .map(|v| {
                            v.as_str()
                                .map(str::to_owned)
                                .ok_or(format!("{k} entries must be strings"))
                        })
                        .collect(),
                    _ => Err(format!("{k} must be an array of strings")),
                }
            };
            let kinds = str_list("kinds")?;
            // Kinds form a closed set; a typo ("watchpoints") would
            // otherwise silently subscribe to nothing, forever.
            if let Some(bad) = kinds
                .iter()
                .find(|k| *k != "breakpoint" && *k != "watchpoint" && *k != "restored")
            {
                return Err(format!(
                    "unknown event kind {bad:?} (expected \"breakpoint\", \"watchpoint\", or \
                     \"restored\")"
                ));
            }
            Request::Subscribe {
                files: str_list("files")?,
                instances: str_list("instances")?,
                kinds,
            }
        }
        "continue" => Request::Continue {
            max_cycles: u64_field("max_cycles"),
            budget_cycles: u64_field("budget_cycles"),
            budget_ms: u64_field("budget_ms"),
        },
        "step" => Request::Step {
            max_cycles: u64_field("max_cycles"),
        },
        "reverse_step" => Request::ReverseStep,
        "reverse_continue" => Request::ReverseContinue,
        "checkpoint" => Request::Checkpoint,
        "restore" => Request::Restore {
            cycle: u64_field("cycle"),
        },
        "frames" => Request::Frames,
        "eval" => Request::Eval {
            instance: str_field("instance"),
            expr: str_field("expr").ok_or("missing expr")?,
        },
        "set_value" => Request::SetValue {
            instance: str_field("instance"),
            name: str_field("name").ok_or("missing name")?,
            value: str_field("value").ok_or("missing value")?,
        },
        "hierarchy" => Request::Hierarchy,
        "time" => Request::Time,
        "ping" => Request::Ping,
        "interrupt" => Request::Interrupt,
        "lint" => Request::Lint,
        "detach" => Request::Detach,
        "batch" => Request::Batch {
            requests: json["requests"]
                .as_array()
                .ok_or("batch missing requests")?
                .iter()
                .map(decode_request)
                .collect::<Result<Vec<_>, _>>()?,
        },
        other => return Err(format!("unknown request type {other:?}")),
    })
}

/// Encodes a (four-state) value. Fully-known values keep the original
/// two-state shape — hex `value`, decimal `decimal` — so existing
/// clients see no change; values carrying `x`/`z` bits encode both
/// fields as the sized literal (`8'bxxxx_1010` style digits) and add
/// `"unknown": true` so a client can tell without scanning the text.
fn bits_json(v: &Bits4) -> Json {
    match v.to_known() {
        Some(k) => Json::object([
            ("value", Json::from(format!("0x{k:x}"))),
            ("decimal", Json::from(k.to_string())),
            ("width", Json::from(k.width())),
        ]),
        None => Json::object([
            ("value", Json::from(v.to_literal())),
            ("decimal", Json::from(v.to_literal())),
            ("width", Json::from(v.width())),
            ("unknown", Json::from(true)),
        ]),
    }
}

fn var_node_json(node: &VarNode) -> Json {
    let mut obj = Json::object([("name", Json::from(node.name.as_str()))]);
    if let Some(v) = &node.value {
        obj.insert("value", bits_json(v));
    }
    if !node.children.is_empty() {
        obj.insert(
            "children",
            Json::array(node.children.iter().map(var_node_json)),
        );
    }
    obj
}

fn frame_json(frame: &Frame) -> Json {
    Json::object([
        ("breakpoint", Json::Int(frame.breakpoint_id)),
        ("instance", Json::from(frame.instance.as_str())),
        ("filename", Json::from(frame.filename.as_str())),
        ("line", Json::from(frame.line)),
        ("col", Json::from(frame.col)),
        (
            "locals",
            Json::object(frame.locals.iter().map(|(name, v)| {
                (
                    name.as_str(),
                    v.as_ref().map(bits_json).unwrap_or(Json::Null),
                )
            })),
        ),
        (
            "generator",
            Json::array(frame.generator.iter().map(var_node_json)),
        ),
    ])
}

fn watch_hit_json(hit: &WatchHit) -> Json {
    Json::object([
        ("id", Json::Int(hit.id)),
        ("owner", Json::from(hit.owner)),
        ("expr", Json::from(hit.expr.as_str())),
        ("old", bits_json(&hit.old)),
        ("new", bits_json(&hit.new)),
    ])
}

fn stop_event_json(event: &StopEvent) -> Json {
    let mut obj = Json::object([
        ("time", Json::from(event.time)),
        ("reason", Json::from(event.kind())),
        ("filename", Json::from(event.filename.as_str())),
        ("line", Json::from(event.line)),
        ("col", Json::from(event.col)),
        ("hits", Json::array(event.hits.iter().map(frame_json))),
        (
            "sessions",
            Json::array(event.sessions.iter().map(|s| Json::from(*s))),
        ),
    ]);
    if !event.watch_hits.is_empty() {
        obj.insert(
            "watch_hits",
            Json::array(event.watch_hits.iter().map(watch_hit_json)),
        );
    }
    obj
}

/// Encodes a response as JSON.
pub fn encode_response(resp: &Response) -> Json {
    match resp {
        Response::Ok => Json::object([("type", Json::from("ok"))]),
        Response::Pong => Json::object([("type", Json::from("pong"))]),
        Response::Inserted { ids } => Json::object([
            ("type", Json::from("inserted")),
            ("ids", ids.iter().map(|i| Json::Int(*i)).collect()),
        ]),
        Response::Breakpoints { items } => Json::object([
            ("type", Json::from("breakpoints")),
            (
                "items",
                Json::array(items.iter().map(|b| {
                    Json::object([
                        ("id", Json::Int(b.id)),
                        ("filename", Json::from(b.filename.as_str())),
                        ("line", Json::from(b.line)),
                        ("col", Json::from(b.col)),
                        ("instance", Json::from(b.instance.as_str())),
                        (
                            "condition",
                            b.condition.as_deref().map(Json::from).unwrap_or(Json::Null),
                        ),
                        ("hit_count", Json::from(b.hit_count)),
                    ])
                })),
            ),
        ]),
        Response::WatchpointInserted { id } => Json::object([
            ("type", Json::from("watchpoint_inserted")),
            ("id", Json::Int(*id)),
        ]),
        Response::Watchpoints { items } => Json::object([
            ("type", Json::from("watchpoints")),
            (
                "items",
                Json::array(items.iter().map(|w| {
                    Json::object([
                        ("id", Json::Int(w.id)),
                        (
                            "instance",
                            w.instance.as_deref().map(Json::from).unwrap_or(Json::Null),
                        ),
                        ("expr", Json::from(w.expr.as_str())),
                        ("value", bits_json(&w.value)),
                        ("hit_count", Json::from(w.hit_count)),
                    ])
                })),
            ),
        ]),
        Response::Stopped { event } => Json::object([
            ("type", Json::from("stopped")),
            ("event", stop_event_json(event)),
        ]),
        Response::Finished { time } => Json::object([
            ("type", Json::from("finished")),
            ("time", Json::from(*time)),
        ]),
        Response::Value { text, width } => Json::object([
            ("type", Json::from("value")),
            ("text", Json::from(text.as_str())),
            ("width", Json::from(*width)),
        ]),
        Response::Hierarchy { tree } => {
            Json::object([("type", Json::from("hierarchy")), ("tree", tree.clone())])
        }
        Response::Time { time } => {
            Json::object([("type", Json::from("time")), ("time", Json::from(*time))])
        }
        Response::Checkpointed {
            cycle,
            checkpoints,
            bytes,
        } => Json::object([
            ("type", Json::from("checkpointed")),
            ("cycle", Json::from(*cycle)),
            ("checkpoints", Json::from(*checkpoints)),
            ("bytes", Json::from(*bytes)),
        ]),
        Response::LintReport { report } => Json::object([
            ("type", Json::from("lint_report")),
            ("clean", Json::from(report.is_clean())),
            ("count", Json::from(report.diagnostics.len())),
            (
                "diagnostics",
                Json::array(report.diagnostics.iter().map(|d| d.to_json())),
            ),
        ]),
        Response::Error { message } => Json::object([
            ("type", Json::from("error")),
            ("message", Json::from(message.as_str())),
        ]),
        Response::Batch { responses } => Json::object([
            ("type", Json::from("batch")),
            (
                "responses",
                Json::array(responses.iter().map(encode_response)),
            ),
        ]),
    }
}

/// Encodes a reply as one wire line: the response plus the echoed
/// request `seq` (when the request carried one) and the answering
/// `session` id.
pub fn encode_response_line(resp: &Response, seq: Option<u64>, session: SessionId) -> Json {
    let mut obj = encode_response(resp);
    if let Some(seq) = seq {
        obj.insert("seq", Json::from(seq));
    }
    obj.insert("session", Json::from(session));
    obj
}

/// Encodes the asynchronous stop broadcast sent to every session
/// (other than the origin) whose subscription matches the event.
pub fn encode_stop_broadcast(origin: SessionId, event: &StopEvent) -> Json {
    Json::object([
        ("type", Json::from("event")),
        ("event", Json::from("stopped")),
        ("session", Json::from(origin)),
        ("data", stop_event_json(event)),
    ])
}

/// Encodes the lag notification a session receives after its bounded
/// outbound queue dropped `missed` undelivered event broadcasts.
pub fn encode_lagged_event(missed: u64) -> Json {
    Json::object([
        ("type", Json::from("event")),
        ("event", Json::from("lagged")),
        ("missed", Json::from(missed)),
    ])
}

/// Encodes the final event a gracefully shutting-down server writes
/// to each connected session before closing its socket, so clients
/// can distinguish an orderly exit from a crash or a cut cable.
pub fn encode_server_exiting() -> Json {
    Json::object([
        ("type", Json::from("event")),
        ("event", Json::from("server_exiting")),
    ])
}

/// Translates a run outcome to a response.
pub fn outcome_response(outcome: RunOutcome) -> Response {
    match outcome {
        RunOutcome::Stopped(event) => Response::Stopped { event },
        RunOutcome::Finished { time } => Response::Finished { time },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::StopKind;
    use bits::Bits;

    fn k(v: u64, w: u32) -> Bits4 {
        Bits4::known(Bits::from_u64(v, w))
    }

    #[test]
    fn request_round_trip() {
        let reqs = vec![
            Request::InsertBreakpoint {
                filename: "fpu.rs".into(),
                line: 42,
                col: Some(9),
                condition: Some("io.wflags == 1".into()),
            },
            Request::InsertBreakpoint {
                filename: "fpu.rs".into(),
                line: 43,
                col: None,
                condition: None,
            },
            Request::RemoveBreakpoint { id: 7 },
            Request::ListBreakpoints,
            Request::Continue {
                max_cycles: Some(1000),
                budget_cycles: None,
                budget_ms: None,
            },
            Request::Continue {
                max_cycles: None,
                budget_cycles: Some(1 << 20),
                budget_ms: Some(250),
            },
            Request::Continue {
                max_cycles: None,
                budget_cycles: None,
                budget_ms: None,
            },
            Request::Step { max_cycles: None },
            Request::ReverseStep,
            Request::ReverseContinue,
            Request::Checkpoint,
            Request::Restore { cycle: Some(128) },
            Request::Restore { cycle: None },
            Request::Frames,
            Request::Eval {
                instance: Some("top.fpu".into()),
                expr: "toint[31:0]".into(),
            },
            Request::SetValue {
                instance: None,
                name: "top.reset".into(),
                value: "1".into(),
            },
            Request::InsertWatchpoint {
                instance: Some("top.fpu".into()),
                expr: "state != 0".into(),
            },
            Request::InsertWatchpoint {
                instance: None,
                expr: "top.count".into(),
            },
            Request::RemoveWatchpoint { id: 3 },
            Request::ListWatchpoints,
            Request::Subscribe {
                files: vec!["fpu.rs".into()],
                instances: vec!["top.fpu".into(), "top.alu".into()],
                kinds: vec!["watchpoint".into()],
            },
            Request::Subscribe {
                files: Vec::new(),
                instances: Vec::new(),
                kinds: vec!["restored".into()],
            },
            Request::Subscribe {
                files: Vec::new(),
                instances: Vec::new(),
                kinds: Vec::new(),
            },
            Request::Hierarchy,
            Request::Time,
            Request::Ping,
            Request::Interrupt,
            Request::Lint,
            Request::Detach,
            Request::Batch {
                requests: vec![
                    Request::InsertBreakpoint {
                        filename: "fpu.rs".into(),
                        line: 42,
                        col: None,
                        condition: None,
                    },
                    Request::Continue {
                        max_cycles: Some(64),
                        budget_cycles: None,
                        budget_ms: None,
                    },
                    Request::Time,
                ],
            },
        ];
        for req in reqs {
            let text = encode_request(&req).to_string();
            let parsed = microjson::parse(&text).unwrap();
            assert_eq!(decode_request(&parsed).unwrap(), req, "{text}");
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        let bad = microjson::parse(r#"{"type":"insert_breakpoint"}"#).unwrap();
        assert!(decode_request(&bad).is_err());
        let unknown = microjson::parse(r#"{"type":"launch_missiles"}"#).unwrap();
        assert!(decode_request(&unknown).is_err());
        let untyped = microjson::parse(r#"{}"#).unwrap();
        assert!(decode_request(&untyped).is_err());
    }

    #[test]
    fn stop_event_encodes_frames() {
        use crate::frame::build_var_tree;
        let event = StopEvent {
            time: 12,
            filename: "acc.rs".into(),
            line: 4,
            col: 9,
            hits: vec![Frame {
                breakpoint_id: 3,
                instance: "top.u0".into(),
                filename: "acc.rs".into(),
                line: 4,
                col: 9,
                locals: vec![("sum".into(), Some(k(5, 8)))],
                generator: build_var_tree(&[("io.out".into(), Some(k(1, 4)))]),
            }],
            sessions: vec![2, 5],
            watch_hits: Vec::new(),
            reason: StopKind::Breakpoint,
        };
        let json = encode_response(&Response::Stopped { event });
        let text = json.to_string();
        let back = microjson::parse(&text).unwrap();
        assert_eq!(back["type"].as_str(), Some("stopped"));
        assert_eq!(back["event"]["reason"].as_str(), Some("breakpoint"));
        let sessions = back["event"]["sessions"].as_array().unwrap();
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].as_i64(), Some(2));
        let hit = &back["event"]["hits"][0];
        assert_eq!(hit["instance"].as_str(), Some("top.u0"));
        assert_eq!(hit["locals"]["sum"]["decimal"].as_str(), Some("5"));
        assert_eq!(hit["generator"][0]["name"].as_str(), Some("io"));
        assert_eq!(
            hit["generator"][0]["children"][0]["value"]["width"].as_i64(),
            Some(4)
        );
    }

    #[test]
    fn watchpoint_stop_encodes_watch_hits() {
        let event = StopEvent {
            time: 9,
            filename: String::new(),
            line: 0,
            col: 0,
            hits: Vec::new(),
            sessions: vec![4],
            watch_hits: vec![WatchHit {
                id: 2,
                owner: 4,
                expr: "top.count".into(),
                old: Bits4::all_x(8),
                new: k(4, 8),
            }],
            reason: StopKind::Watchpoint,
        };
        let json = encode_response(&Response::Stopped { event });
        let back = microjson::parse(&json.to_string()).unwrap();
        assert_eq!(back["event"]["reason"].as_str(), Some("watchpoint"));
        let wh = &back["event"]["watch_hits"][0];
        assert_eq!(wh["id"].as_i64(), Some(2));
        assert_eq!(wh["owner"].as_i64(), Some(4));
        // The X→known resolution encodes the old value as an x literal
        // (flagged unknown) and the new one in the two-state shape.
        assert_eq!(wh["old"]["value"].as_str(), Some("8'hxx"));
        assert_eq!(wh["old"]["unknown"].as_bool(), Some(true));
        assert_eq!(wh["new"]["decimal"].as_str(), Some("4"));
        assert_eq!(wh["new"]["unknown"].as_bool(), None);
    }

    #[test]
    fn watchpoint_listing_and_lagged_shapes() {
        let resp = Response::Watchpoints {
            items: vec![WatchpointListing {
                id: 1,
                instance: Some("top".into()),
                expr: "count * 2".into(),
                value: k(14, 8),
                hit_count: 3,
            }],
        };
        let json = encode_response(&resp);
        assert_eq!(json["type"].as_str(), Some("watchpoints"));
        assert_eq!(json["items"][0]["expr"].as_str(), Some("count * 2"));
        assert_eq!(json["items"][0]["value"]["decimal"].as_str(), Some("14"));

        let ins = encode_response(&Response::WatchpointInserted { id: 7 });
        assert_eq!(ins["type"].as_str(), Some("watchpoint_inserted"));
        assert_eq!(ins["id"].as_i64(), Some(7));

        let lag = encode_lagged_event(12);
        assert_eq!(lag["type"].as_str(), Some("event"));
        assert_eq!(lag["event"].as_str(), Some("lagged"));
        assert_eq!(lag["missed"].as_i64(), Some(12));
    }

    #[test]
    fn subscribe_decodes_missing_lists_as_wildcards() {
        let json = microjson::parse(r#"{"type":"subscribe"}"#).unwrap();
        assert_eq!(
            decode_request(&json).unwrap(),
            Request::Subscribe {
                files: Vec::new(),
                instances: Vec::new(),
                kinds: Vec::new(),
            }
        );
    }

    #[test]
    fn subscribe_rejects_wrong_typed_filters() {
        // A string where an array belongs must error, not silently
        // widen the filter to a wildcard.
        let bad = microjson::parse(r#"{"type":"subscribe","files":"fpu.rs"}"#).unwrap();
        assert!(decode_request(&bad).is_err());
        let bad = microjson::parse(r#"{"type":"subscribe","kinds":[42]}"#).unwrap();
        assert!(decode_request(&bad).is_err());
        // A typo'd kind would silently subscribe to nothing, forever.
        let bad = microjson::parse(r#"{"type":"subscribe","kinds":["watchpoints"]}"#).unwrap();
        assert!(decode_request(&bad).unwrap_err().contains("watchpoints"));
    }

    #[test]
    fn envelope_carries_seq_and_session() {
        let line = encode_request_line(&Request::Time, Some(17)).to_string();
        let parsed = microjson::parse(&line).unwrap();
        let (seq, req) = decode_request_line(&parsed);
        assert_eq!(seq, Some(17));
        assert_eq!(req.unwrap(), Request::Time);

        let reply = encode_response_line(&Response::Time { time: 9 }, Some(17), 3);
        assert_eq!(reply["seq"].as_i64(), Some(17));
        assert_eq!(reply["session"].as_i64(), Some(3));
        assert_eq!(reply["type"].as_str(), Some("time"));

        // seq survives even when the request itself is malformed.
        let bad = microjson::parse(r#"{"type":"frobnicate","seq":4}"#).unwrap();
        let (seq, req) = decode_request_line(&bad);
        assert_eq!(seq, Some(4));
        assert!(req.is_err());
    }

    #[test]
    fn batch_response_round_trips() {
        let resp = Response::Batch {
            responses: vec![
                Response::Inserted { ids: vec![1, 2] },
                Response::Time { time: 5 },
                Response::Error {
                    message: "nope".into(),
                },
            ],
        };
        let json = encode_response(&resp);
        assert_eq!(json["type"].as_str(), Some("batch"));
        let items = json["responses"].as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0]["type"].as_str(), Some("inserted"));
        assert_eq!(items[2]["message"].as_str(), Some("nope"));
    }

    #[test]
    fn stop_broadcast_shape() {
        let event = StopEvent {
            time: 3,
            filename: "acc.rs".into(),
            line: 4,
            col: 9,
            hits: Vec::new(),
            sessions: vec![7],
            watch_hits: Vec::new(),
            reason: StopKind::Breakpoint,
        };
        let json = encode_stop_broadcast(7, &event);
        assert_eq!(json["type"].as_str(), Some("event"));
        assert_eq!(json["event"].as_str(), Some("stopped"));
        assert_eq!(json["session"].as_i64(), Some(7));
        assert_eq!(json["data"]["time"].as_i64(), Some(3));
    }

    #[test]
    fn liveness_and_shutdown_shapes() {
        let pong = encode_response(&Response::Pong);
        assert_eq!(pong["type"].as_str(), Some("pong"));

        let exiting = encode_server_exiting();
        assert_eq!(exiting["type"].as_str(), Some("event"));
        assert_eq!(exiting["event"].as_str(), Some("server_exiting"));
    }

    #[test]
    fn control_stop_reasons_encode() {
        for (kind, wire) in [
            (StopKind::Interrupted, "interrupted"),
            (StopKind::BudgetExhausted, "budget_exhausted"),
            (StopKind::Restored, "restored"),
        ] {
            let event = StopEvent {
                time: 8,
                filename: String::new(),
                line: 0,
                col: 0,
                hits: Vec::new(),
                sessions: Vec::new(),
                watch_hits: Vec::new(),
                reason: kind,
            };
            let json = encode_response(&Response::Stopped { event });
            let back = microjson::parse(&json.to_string()).unwrap();
            assert_eq!(back["event"]["reason"].as_str(), Some(wire));
        }
    }

    #[test]
    fn checkpointed_response_shape() {
        let json = encode_response(&Response::Checkpointed {
            cycle: 640,
            checkpoints: 11,
            bytes: 4096,
        });
        assert_eq!(json["type"].as_str(), Some("checkpointed"));
        assert_eq!(json["cycle"].as_i64(), Some(640));
        assert_eq!(json["checkpoints"].as_i64(), Some(11));
        assert_eq!(json["bytes"].as_i64(), Some(4096));
    }

    #[test]
    fn error_response_shape() {
        let r = encode_response(&Response::Error {
            message: "no breakpoint at x.rs:9".into(),
        });
        assert_eq!(r["type"].as_str(), Some("error"));
        assert!(r["message"].as_str().unwrap().contains("x.rs:9"));
    }
}
