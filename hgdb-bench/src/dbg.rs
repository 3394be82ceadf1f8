//! Debugger requests and their answers in one normalized form, whether
//! they came back in-process (`hgdb::service::dispatch`) or as JSON over
//! a connection, and the helpers that run, count and time in-process
//! requests.

use std::time::Instant;

use bits::Bits4;
use hgdb::frame::VarNode;
use hgdb::protocol::{Request, Response};
use hgdb::Runtime;
use microjson::Json;
use rtl_sim::SimControl;

use crate::check::{Check, Checker};
use crate::stats::Ops;
use crate::trace::{self, Probe};

/// Where a stop is, without its values: time, reason, line, column and
/// the instances hit. Broadcasts, landings and step targets are
/// compared on this.
pub type Place = (u64, String, u32, u32, Vec<String>);

/// A stop (or a finished run) as the debugger reported it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stop {
    pub time: u64,
    /// `breakpoint`, `watchpoint`, … or `finished`.
    pub reason: String,
    pub line: u32,
    pub col: u32,
    /// `(instance, generator variables)` per hit frame.
    pub frames: Vec<(String, Vec<(String, u64)>)>,
}

impl Stop {
    /// Stands in for an answer that was not a stop (already reported).
    pub fn error() -> Stop {
        Stop {
            time: u64::MAX,
            reason: "error".into(),
            line: 0,
            col: 0,
            frames: Vec::new(),
        }
    }

    pub fn finished(&self) -> bool {
        self.reason == "finished"
    }

    pub fn place(&self) -> Place {
        (
            self.time,
            self.reason.clone(),
            self.line,
            self.col,
            self.frames.iter().map(|(i, _)| i.clone()).collect(),
        )
    }

    /// A generator variable's value in the frame of `instance`.
    pub fn var(&self, instance: &str, name: &str) -> Option<u64> {
        let (_, vars) = self.frames.iter().find(|(i, _)| i == instance)?;
        vars.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn from_response(resp: &Response) -> Result<Stop, String> {
        match resp {
            Response::Stopped { event } => Ok(Stop {
                time: event.time,
                reason: event.kind().to_owned(),
                line: event.line,
                col: event.col,
                frames: event
                    .hits
                    .iter()
                    .map(|f| (f.instance.clone(), leaves(&f.generator)))
                    .collect(),
            }),
            Response::Finished { time } => Ok(Stop {
                time: *time,
                reason: "finished".into(),
                line: 0,
                col: 0,
                frames: Vec::new(),
            }),
            Response::Error { message } => Err(message.clone()),
            other => Err(format!("not a stop: {other:?}")),
        }
    }

    /// From a `stopped`/`finished` reply, or a broadcast's `data`.
    pub fn from_json(json: &Json) -> Result<Stop, String> {
        match json["type"].as_str() {
            Some("finished") => {
                return Ok(Stop {
                    time: uint(&json["time"])?,
                    reason: "finished".into(),
                    line: 0,
                    col: 0,
                    frames: Vec::new(),
                })
            }
            Some("stopped") => return Stop::from_event_json(&json["event"]),
            Some("error") => return Err(json["message"].as_str().unwrap_or("?").to_owned()),
            _ => {}
        }
        Stop::from_event_json(json)
    }

    fn from_event_json(ev: &Json) -> Result<Stop, String> {
        let mut frames = Vec::new();
        for hit in ev["hits"].as_array().unwrap_or(&[]) {
            let mut vars = Vec::new();
            for var in hit["generator"].as_array().unwrap_or(&[]) {
                if let (Some(name), Some(text)) =
                    (var["name"].as_str(), var["value"]["decimal"].as_str())
                {
                    if let Ok(v) = text.parse() {
                        vars.push((name.to_owned(), v));
                    }
                }
            }
            frames.push((hit["instance"].as_str().unwrap_or("").to_owned(), vars));
        }
        Ok(Stop {
            time: uint(&ev["time"])?,
            reason: ev["reason"]
                .as_str()
                .ok_or("stop without reason")?
                .to_owned(),
            line: uint(&ev["line"])? as u32,
            col: uint(&ev["col"])? as u32,
            frames,
        })
    }
}

fn uint(v: &Json) -> Result<u64, String> {
    v.as_i64()
        .map(|n| n as u64)
        .ok_or_else(|| format!("not an integer: {v}"))
}

fn known(v: &Bits4) -> Option<u64> {
    v.to_known().map(|b| b.to_u64())
}

/// Flat generator variables (the core's are all top-level leaves).
fn leaves(nodes: &[VarNode]) -> Vec<(String, u64)> {
    nodes
        .iter()
        .filter_map(|n| Some((n.name.clone(), known(n.value.as_ref()?)?)))
        .collect()
}

/// The value of an `eval` answer.
pub fn value_from_response(resp: &Response) -> Result<u64, String> {
    match resp {
        Response::Value { text, .. } => text.parse().map_err(|_| format!("not a number: {text}")),
        Response::Error { message } => Err(message.clone()),
        other => Err(format!("not a value: {other:?}")),
    }
}

pub fn value_from_json(json: &Json) -> Result<u64, String> {
    let text = json["text"].as_str().ok_or("value without text")?;
    text.parse().map_err(|_| format!("not a number: {text}"))
}

/// Runs a request, counting it; an error answer is a failed operation.
pub fn request<S: SimControl>(rt: &mut Runtime<S>, ops: &mut Ops, req: Request) -> Response {
    let kind = req.kind_name();
    let resp = call(rt, req);
    ops.count(kind, !matches!(resp, Response::Error { .. }));
    resp
}

/// Runs a request under a span named `span`, with the backend's share
/// attached as child spans; returns the answer and its host time in
/// seconds. The operation is not counted.
pub fn timed_call<S: SimControl + Probe>(
    rt: &mut Runtime<S>,
    span: &'static str,
    req: Request,
    replay: bool,
) -> (Response, f64) {
    let open = trace::open(span);
    let c0 = rt.sim().counters();
    let t = Instant::now();
    let resp = call(rt, req);
    let secs = t.elapsed().as_secs_f64();
    trace::backend_children(&open, &rt.sim().counters().since(&c0), replay);
    trace::close(open, 0);
    (resp, secs)
}

/// [`timed_call`], counted as [`request`] counts.
pub fn timed_request<S: SimControl + Probe>(
    rt: &mut Runtime<S>,
    ops: &mut Ops,
    span: &'static str,
    req: Request,
    replay: bool,
) -> (Response, f64) {
    let kind = req.kind_name();
    let (resp, secs) = timed_call(rt, span, req, replay);
    ops.count(kind, !matches!(resp, Response::Error { .. }));
    (resp, secs)
}

pub fn stop_of(resp: &Response, ck: &Checker, what: &str) -> Stop {
    Stop::from_response(resp).unwrap_or_else(|e| {
        ck.fail(Check::StopCycles, format!("{what}: {e}"));
        Stop::error()
    })
}

/// Runs one request in-process, as the service thread would.
pub fn call<S: SimControl>(rt: &mut Runtime<S>, req: Request) -> Response {
    hgdb::service::dispatch(rt, req).0
}

pub fn cont(max_cycles: Option<u64>) -> Request {
    Request::Continue {
        max_cycles,
        budget_cycles: None,
        budget_ms: None,
    }
}

pub fn step() -> Request {
    Request::Step {
        max_cycles: Some(10_000),
    }
}

pub fn eval(instance: &str, expr: &str) -> Request {
    Request::Eval {
        instance: Some(instance.to_owned()),
        expr: expr.to_owned(),
    }
}

pub fn breakpoint(filename: &str, line: u32, col: u32, condition: Option<String>) -> Request {
    Request::InsertBreakpoint {
        filename: filename.to_owned(),
        line,
        col: Some(col),
        condition,
    }
}
