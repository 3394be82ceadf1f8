//! Integration tests for the RPC debug protocol over both transports
//! (Figure 1's debugger arrows, Figure 4's feature set A–D).

use std::net::TcpListener;

use hgdb::protocol::{encode_request_line, encode_response_line, Request, Response};
use hgdb::service::dispatch;
use hgdb::{
    serve, DebugClient, DebugService, RunOutcome, Runtime, SessionId, StopKind, TcpDebugServer,
    Transport, LOCAL_SESSION,
};
use hgf::CircuitBuilder;
use rtl_sim::Simulator;

fn build_counter() -> (Simulator, symtab::SymbolTable, u32) {
    let mut cb = CircuitBuilder::new();
    let bp_line = line!() + 5;
    cb.module("top", |m| {
        let out = m.output("out", 8);
        let count = m.reg("count", 8, Some(0));
        m.when(count.sig().lt(&m.lit(100, 8)), |m| {
            m.assign(&count, count.sig() + m.lit(1, 8));
        });
        m.assign(&out, count.sig());
    });
    let circuit = cb.finish("top").unwrap();
    let mut state = hgf_ir::CircuitState::new(circuit);
    let table = hgf_ir::passes::compile(&mut state, true).unwrap();
    let symbols = symtab::from_debug_table(&state.circuit, &table).unwrap();
    let sim = Simulator::new(&state.circuit).unwrap();
    (sim, symbols, bp_line)
}

/// Full conversation over the in-process `serve` session.
#[test]
fn channel_session_covers_figure4_features() {
    let (sim, symbols, bp_line) = build_counter();
    let (service, transport) = serve(Runtime::attach(sim, symbols).unwrap());
    let mut client = DebugClient::new(transport);

    // D: source + conditional breakpoints.
    let ids = client
        .insert_breakpoint(file!(), bp_line, Some("count == 7"))
        .unwrap();
    assert_eq!(ids.len(), 1);

    // C: continue.
    let stop = client.continue_run(Some(1000)).unwrap();
    assert_eq!(stop["type"].as_str(), Some("stopped"));
    // A: variable values in the frame.
    let hit = &stop["event"]["hits"][0];
    assert_eq!(hit["locals"]["count"]["decimal"].as_str(), Some("7"));
    // B: thread (instance) identity.
    assert_eq!(hit["instance"].as_str(), Some("top"));

    // Frames re-query returns the same stop.
    let frames = client.request(&Request::Frames).unwrap();
    assert_eq!(frames["event"]["time"], stop["event"]["time"]);

    // Eval + hierarchy + time round-trips.
    assert_eq!(client.eval(Some("top"), "count * 2").unwrap(), "14");
    let hier = client.request(&Request::Hierarchy).unwrap();
    assert_eq!(hier["tree"]["name"].as_str(), Some("top"));
    assert!(client.time().unwrap() >= 7);

    // Set-value primitive (§3.3 optional primitive 5).
    client
        .request(&Request::SetValue {
            instance: Some("top".into()),
            name: "count".into(),
            value: "42".into(),
        })
        .unwrap();
    assert_eq!(client.eval(Some("top"), "count").unwrap(), "42");

    // Breakpoint listing shows hit counts.
    let listing = client.request(&Request::ListBreakpoints).unwrap();
    assert_eq!(listing["items"][0]["hit_count"].as_i64(), Some(1));

    // Errors are reported, not fatal.
    let err = client.insert_breakpoint("nope.rs", 1, None).unwrap_err();
    assert!(err.to_string().contains("no breakpoint"));

    client.detach().unwrap();
    service.shutdown().unwrap();
}

/// The same protocol over a real TCP socket, served by the
/// multi-session service.
#[test]
fn tcp_session_round_trips() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (sim, symbols, bp_line) = build_counter();
    let service = DebugService::spawn(Runtime::attach(sim, symbols).unwrap());
    let server = TcpDebugServer::start(service.handle(), listener).unwrap();

    let mut client = hgdb::client::connect_tcp(&server.local_addr().to_string()).unwrap();
    let ids = client.insert_breakpoint(file!(), bp_line, None).unwrap();
    assert!(!ids.is_empty());
    let stop = client.continue_run(Some(100)).unwrap();
    assert_eq!(stop["type"].as_str(), Some("stopped"));
    assert_eq!(client.eval(None, "top.count").unwrap(), "0");
    client.detach().unwrap();
    server.shutdown();
    let _runtime = service.shutdown();
}

/// Two simultaneous TCP clients against one runtime: requests
/// interleave through the service, the non-stopping client receives
/// the asynchronous stop broadcast and can eval at the stop.
#[test]
fn two_tcp_clients_share_one_runtime() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (sim, symbols, bp_line) = build_counter();
    let service = DebugService::spawn(Runtime::attach(sim, symbols).unwrap());
    let server = TcpDebugServer::start(service.handle(), listener).unwrap();
    let addr = server.local_addr().to_string();

    let mut a = hgdb::client::connect_tcp(&addr).unwrap();
    let mut b = hgdb::client::connect_tcp(&addr).unwrap();
    // A round-trip on each registers both sessions before the stop,
    // and proves interleaved requests get distinct session ids.
    a.time().unwrap();
    b.time().unwrap();
    let (sa, sb) = (a.session_id().unwrap(), b.session_id().unwrap());
    assert_ne!(sa, sb, "each connection gets its own session");

    // A inserts and continues; B is idle.
    a.insert_breakpoint(file!(), bp_line, Some("count == 5"))
        .unwrap();
    let stop = a.continue_run(Some(1000)).unwrap();
    assert_eq!(stop["type"].as_str(), Some("stopped"));

    // B receives the broadcast stop event (origin = A's session) and
    // observes the same simulation state via eval. The event names the
    // sessions whose breakpoints matched — here, only A's.
    let ev = b.wait_event().unwrap();
    assert_eq!(ev["event"].as_str(), Some("stopped"));
    assert_eq!(ev["session"].as_i64(), Some(sa as i64));
    assert_eq!(ev["data"]["reason"].as_str(), Some("breakpoint"));
    assert_eq!(ev["data"]["sessions"][0].as_i64(), Some(sa as i64));
    assert_eq!(
        ev["data"]["hits"][0]["locals"]["count"]["decimal"].as_str(),
        Some("5")
    );
    assert_eq!(b.eval(Some("top"), "count").unwrap(), "5");

    // Both keep working after the stop. Breakpoints are owned by the
    // session that inserted them: A's listing shows its hit, B —
    // which inserted nothing — sees an empty list.
    let la = a.request(&Request::ListBreakpoints).unwrap();
    let lb = b.request(&Request::ListBreakpoints).unwrap();
    assert_eq!(la["items"][0]["hit_count"].as_i64(), Some(1));
    assert_eq!(lb["items"].as_array().unwrap().len(), 0);

    // B re-querying the current stop must NOT rebroadcast it: only
    // simulation-advancing requests produce stop events. B's frames
    // reply lands before A's next reply, so any phantom event would
    // already be queued on A's socket by the time A's listing returns.
    let frames = b.request(&Request::Frames).unwrap();
    assert_eq!(frames["type"].as_str(), Some("stopped"));
    a.request(&Request::ListBreakpoints).unwrap();
    assert!(
        a.take_event().is_none(),
        "frames re-query must not broadcast a phantom stop"
    );

    a.detach().unwrap();
    b.detach().unwrap();
    server.shutdown();
    let _runtime = service.shutdown();
}

/// A batch executes its requests in order against the runtime and
/// returns one response per request in one round-trip.
#[test]
fn batch_requests_one_round_trip() {
    let (sim, symbols, bp_line) = build_counter();
    let service = DebugService::spawn(Runtime::attach(sim, symbols).unwrap());
    let mut client = DebugClient::new(service.handle().connect().unwrap());
    let responses = client
        .batch(&[
            Request::InsertBreakpoint {
                filename: file!().into(),
                line: bp_line,
                col: None,
                condition: Some("count == 3".into()),
            },
            Request::Continue {
                max_cycles: Some(1000),
                budget_cycles: None,
                budget_ms: None,
            },
            Request::Eval {
                instance: Some("top".into()),
                expr: "count".into(),
            },
            Request::Eval {
                instance: None,
                expr: "no_such_signal".into(),
            },
            Request::Time,
        ])
        .unwrap();
    assert_eq!(responses.len(), 5);
    assert_eq!(responses[0]["type"].as_str(), Some("inserted"));
    assert_eq!(responses[1]["type"].as_str(), Some("stopped"));
    assert_eq!(responses[2]["text"].as_str(), Some("3"));
    assert_eq!(
        responses[3]["type"].as_str(),
        Some("error"),
        "one bad request does not fail the batch"
    );
    assert_eq!(responses[4]["type"].as_str(), Some("time"));
    client.detach().unwrap();
    let _runtime = service.shutdown();
}

/// Regression: an undecodable line pipelined behind a slow request
/// must be answered *after* that request's reply — malformed-line
/// errors go through the service's command queue, not around it.
#[test]
fn malformed_line_reply_keeps_pipeline_order() {
    use std::io::{BufRead, BufReader, Write};

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let (sim, symbols, _) = build_counter();
    let service = DebugService::spawn(Runtime::attach(sim, symbols).unwrap());
    let server = TcpDebugServer::start(service.handle(), listener).unwrap();

    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // A continue over 200k cycles keeps the service busy while the
    // malformed line right behind it is being read.
    stream
        .write_all(b"{\"type\":\"continue\",\"max_cycles\":200000,\"seq\":1}\nnot json\n")
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    let first = microjson::parse(&first).unwrap();
    assert_eq!(
        first["seq"].as_i64(),
        Some(1),
        "the slow request's reply must come first"
    );
    assert_eq!(first["type"].as_str(), Some("finished"));
    let mut second = String::new();
    reader.read_line(&mut second).unwrap();
    let second = microjson::parse(&second).unwrap();
    assert_eq!(second["type"].as_str(), Some("error"));

    stream.write_all(b"{\"type\":\"detach\"}\n").unwrap();
    let _ = reader.read_line(&mut String::new());
    server.shutdown();
    let _runtime = service.shutdown();
}

/// Regression: stepping past a line must not inflate the user-visible
/// hit count — only stops in continue mode count.
#[test]
fn step_does_not_inflate_hit_count() {
    let (sim, symbols, bp_line) = build_counter();
    let mut rt = Runtime::attach(sim, symbols).unwrap();
    rt.insert_breakpoint(file!(), bp_line, None, None).unwrap();
    // Step across several statements/cycles; at least one step stops
    // on the inserted line itself.
    let mut stepped_on_line = false;
    for _ in 0..5 {
        if let RunOutcome::Stopped(ev) = rt.step(Some(100)).unwrap() {
            stepped_on_line |= ev.line == bp_line;
        }
    }
    assert!(stepped_on_line, "stepping visited the inserted line");
    let listing = rt.breakpoints();
    assert_eq!(
        listing[0].hit_count, 0,
        "step must not count as a breakpoint hit"
    );
    // A continue stop counts exactly once.
    let out = rt.continue_run(Some(100)).unwrap();
    assert!(matches!(out, RunOutcome::Stopped(_)));
    assert_eq!(rt.breakpoints()[0].hit_count, 1);
}

/// Malformed input over the wire produces protocol errors, not server
/// death.
#[test]
fn malformed_requests_survive() {
    let (sim, symbols, _) = build_counter();
    let (service, mut client_t) = serve(Runtime::attach(sim, symbols).unwrap());

    client_t.send("this is not json").unwrap();
    let reply = client_t.recv().unwrap();
    assert!(reply.contains("error"));
    client_t.send(r#"{"type":"frobnicate"}"#).unwrap();
    let reply = client_t.recv().unwrap();
    assert!(reply.contains("unknown request"));
    // Still alive: a valid request works.
    client_t.send(r#"{"type":"time"}"#).unwrap();
    let reply = client_t.recv().unwrap();
    assert!(reply.contains("time"));
    client_t.send(r#"{"type":"detach"}"#).unwrap();
    let _ = client_t.recv();
    service.shutdown().unwrap();
}

/// Replay backend through the same runtime: reverse debugging over the
/// protocol.
#[test]
fn replay_reverse_over_protocol() {
    let (sim, symbols, bp_line) = build_counter();
    // Record 30 cycles.
    let mut sim = sim;
    let mut vcd_text = Vec::new();
    {
        let mut rec = vcd::Recorder::new(&sim, &mut vcd_text).unwrap();
        for _ in 0..30 {
            rtl_sim::SimControl::step_clock(&mut sim);
            rec.sample(&sim).unwrap();
        }
        rec.finish().unwrap();
    }
    let trace = vcd::parse(std::str::from_utf8(&vcd_text).unwrap()).unwrap();
    let replay = vcd::ReplaySim::new(trace);

    let (service, transport) = serve(Runtime::attach(replay, symbols).unwrap());
    let mut client = DebugClient::new(transport);
    client
        .insert_breakpoint(file!(), bp_line, Some("count == 9"))
        .unwrap();
    let stop = client.continue_run(None).unwrap();
    assert_eq!(stop["type"].as_str(), Some("stopped"));
    let t_forward = stop["event"]["time"].as_i64().unwrap();

    // Reverse-step moves strictly backwards in trace time.
    let back = client.reverse_step().unwrap();
    assert_eq!(back["type"].as_str(), Some("stopped"));
    let t_back = back["event"]["time"].as_i64().unwrap();
    assert!(t_back <= t_forward);
    let count_now = client.eval(None, "top.count").unwrap();
    assert!(count_now.parse::<u64>().unwrap() <= 9);

    // Reverse-continue from a later stop lands on the earlier one, not
    // back on the stop it started from: a trace advances ten time units
    // per cycle, and the replay window is bounded in trace time.
    client
        .insert_breakpoint(file!(), bp_line, Some("count == 9 || count == 20"))
        .unwrap();
    let t_later = loop {
        let stop = client.continue_run(None).unwrap();
        assert_eq!(stop["type"].as_str(), Some("stopped"));
        let hit = &stop["event"]["hits"][0];
        if hit["locals"]["count"]["decimal"].as_str() == Some("20") {
            break stop["event"]["time"].as_i64().unwrap();
        }
    };
    assert!(t_forward < t_later);
    let back = client.reverse_continue().unwrap();
    assert_eq!(back["type"].as_str(), Some("stopped"));
    assert_eq!(back["event"]["time"].as_i64(), Some(t_forward));
    assert_eq!(client.eval(None, "top.count").unwrap(), "9");

    client.detach().unwrap();
    service.shutdown().unwrap();
}

/// Live-simulator backend: reverse debugging without a recorded trace.
/// The checkpoint ring supplies the time travel the backend lacks
/// natively — `reverse_step` crosses a cycle boundary by restoring the
/// nearest checkpoint and replaying, and `reverse_continue` lands on
/// the previous watchpoint hit at an earlier cycle.
#[test]
fn live_sim_reverse_over_protocol() {
    let (sim, symbols, bp_line) = build_counter();
    let (service, transport) = serve(Runtime::attach(sim, symbols).unwrap());
    let mut client = DebugClient::new(transport);
    let ids = client
        .insert_breakpoint(file!(), bp_line, Some("count == 9"))
        .unwrap();
    let stop = client.continue_run(None).unwrap();
    assert_eq!(stop["type"].as_str(), Some("stopped"));
    let t_stop = stop["event"]["time"].as_i64().unwrap();
    assert_eq!(client.eval(None, "top.count").unwrap(), "9");

    // Step backwards until a cycle boundary is crossed. On the replay
    // backend this used native time travel; on the live simulator it
    // must succeed via checkpoint restore + replay, never
    // ReverseUnsupported.
    let mut t_back = t_stop;
    for _ in 0..16 {
        let back = client.reverse_step().unwrap();
        assert_eq!(back["type"].as_str(), Some("stopped"));
        t_back = back["event"]["time"].as_i64().unwrap();
        if t_back < t_stop {
            break;
        }
    }
    assert!(t_back < t_stop, "reverse_step crossed the cycle boundary");
    assert_eq!(client.time().unwrap() as i64, t_back);
    assert_eq!(client.eval(None, "top.count").unwrap(), "8");

    // Reverse-continue: two forward watchpoint stops, then back to the
    // first. The breakpoint is removed so the stop sequence during the
    // checkpoint replay is watch hits only.
    for id in ids {
        client.request(&Request::RemoveBreakpoint { id }).unwrap();
    }
    client.insert_watchpoint(None, "top.out").unwrap();
    let s1 = client.continue_run(None).unwrap();
    assert_eq!(s1["event"]["reason"].as_str(), Some("watchpoint"));
    let c1 = s1["event"]["time"].as_i64().unwrap();
    let s2 = client.continue_run(None).unwrap();
    let c2 = s2["event"]["time"].as_i64().unwrap();
    assert!(c2 > c1);

    let back = client.reverse_continue().unwrap();
    assert_eq!(back["type"].as_str(), Some("stopped"));
    assert_eq!(back["event"]["reason"].as_str(), Some("watchpoint"));
    assert_eq!(back["event"]["time"].as_i64().unwrap(), c1);
    assert_eq!(client.time().unwrap() as i64, c1);

    // An explicit checkpoint + restore round-trips to the same cycle.
    let cp = client.checkpoint().unwrap();
    assert_eq!(cp as i64, c1);
    let restored = client.restore(Some(cp)).unwrap();
    assert_eq!(restored["event"]["reason"].as_str(), Some("restored"));
    assert_eq!(client.time().unwrap(), cp);

    client.detach().unwrap();
    service.shutdown().unwrap();
}

/// The stop a `continue` or `reverse_continue` must have made.
fn stopped(outcome: RunOutcome) -> hgdb::StopEvent {
    match outcome {
        RunOutcome::Stopped(event) => event,
        other => panic!("expected a stop, got {other:?}"),
    }
}

/// The counter's forward watch stops on `top.out`, `count` of them.
fn watch_stops<S: rtl_sim::SimControl>(rt: &mut Runtime<S>, count: usize) -> Vec<hgdb::StopEvent> {
    (0..count)
        .map(|_| {
            let event = stopped(rt.continue_run(Some(100)).unwrap());
            assert_eq!(event.reason, StopKind::Watchpoint);
            event
        })
        .collect()
}

/// A watch change into a checkpoint's cycle: the window that starts at
/// the checkpoint re-reads the watch baselines there, so only the
/// older window can see the change, at its own upper bound.
#[test]
fn reverse_continue_finds_a_watch_change_into_a_checkpoint_cycle() {
    let (sim, symbols, _) = build_counter();
    let mut rt = Runtime::attach(sim, symbols).unwrap();
    rt.checkpoint_now().unwrap();
    rt.insert_watchpoint(None, "top.out").unwrap();
    let stops = watch_stops(&mut rt, 5);
    let boundary = stops.last().unwrap();
    assert_eq!(rt.checkpoint_now().unwrap(), boundary.time);
    let next = watch_stops(&mut rt, 1).remove(0);
    assert_eq!(next.time, boundary.time + 1);
    let hits = rt.watchpoints()[0].hit_count;

    let back = stopped(rt.reverse_continue().unwrap());
    assert_eq!(&back, boundary, "lands on the change into the checkpoint");
    assert_eq!(rt.watchpoints()[0].hit_count, hits, "hit count unchanged");
    assert_eq!(stopped(rt.continue_run(Some(100)).unwrap()), next);
}

/// The same case on a replayed trace: native windows start one cycle
/// back, then further, so every change into the previous cycle sits on
/// a window boundary.
#[test]
fn replay_reverse_continue_finds_a_watch_change_at_a_window_boundary() {
    let (mut sim, symbols, _) = build_counter();
    let mut vcd_text = Vec::new();
    let mut rec = vcd::Recorder::new(&sim, &mut vcd_text).unwrap();
    for _ in 0..30 {
        rtl_sim::SimControl::step_clock(&mut sim);
        rec.sample(&sim).unwrap();
    }
    rec.finish().unwrap();
    let trace = vcd::parse(std::str::from_utf8(&vcd_text).unwrap()).unwrap();
    let mut replay = vcd::ReplaySim::new(trace);
    rtl_sim::SimControl::step_clock(&mut replay);
    let mut rt = Runtime::attach(replay, symbols).unwrap();
    rt.insert_watchpoint(None, "top.out").unwrap();
    let stops = watch_stops(&mut rt, 8);
    let hits = rt.watchpoints()[0].hit_count;
    for pair in stops.windows(2).rev() {
        assert_eq!(stopped(rt.reverse_continue().unwrap()), pair[0]);
        assert_eq!(rt.watchpoints()[0].hit_count, hits, "hit count unchanged");
    }
    assert_eq!(stopped(rt.continue_run(Some(100)).unwrap()), stops[1]);
}

/// `response` as the service reports it to `session`: a stop names its
/// owning session by the service-assigned id, not `LOCAL_SESSION`.
fn owned_by(response: Response, session: SessionId) -> Response {
    match response {
        Response::Stopped { mut event } => {
            for owner in &mut event.sessions {
                if *owner == LOCAL_SESSION {
                    *owner = session;
                }
            }
            Response::Stopped { event }
        }
        Response::Batch { responses } => Response::Batch {
            responses: responses
                .into_iter()
                .map(|r| owned_by(r, session))
                .collect(),
        },
        other => other,
    }
}

/// One request path, two callers: the same script through `dispatch`
/// and through a service session, on identically built runtimes,
/// yields identical replies.
#[test]
fn dispatch_and_service_answer_alike() {
    let (sim, symbols, bp_line) = build_counter();
    let mut local = Runtime::attach(sim, symbols).unwrap();
    let (sim, symbols, _) = build_counter();
    let service = DebugService::spawn(Runtime::attach(sim, symbols).unwrap());
    let mut remote = service.handle().connect().unwrap();
    let session = remote.session();

    let cont = |max_cycles, budget_cycles| Request::Continue {
        max_cycles,
        budget_cycles,
        budget_ms: None,
    };
    let script = vec![
        Request::Checkpoint,
        Request::InsertBreakpoint {
            filename: file!().to_owned(),
            line: bp_line,
            col: None,
            condition: Some("count == 5 || count == 40".to_owned()),
        },
        cont(None, Some(3)),
        Request::Batch {
            requests: vec![Request::Time, cont(Some(1000), None), Request::Frames],
        },
        Request::Interrupt,
        cont(Some(1000), Some(10_000)),
        Request::Step {
            max_cycles: Some(10),
        },
        Request::ReverseStep,
        Request::ReverseContinue,
        Request::Restore { cycle: None },
        Request::Time,
    ];
    let mut replies = Vec::new();
    for (seq, request) in script.into_iter().enumerate() {
        let seq = Some(seq as u64);
        remote
            .send(&encode_request_line(&request, seq).to_string())
            .unwrap();
        let served = remote.recv().expect("service replies");
        // The service seeds its crash-recovery checkpoint before every
        // advancing request; `dispatch` leaves that to its caller.
        if request.is_advancing() {
            local.prepare_advance();
        }
        let (response, done) = dispatch(&mut local, request);
        assert!(!done);
        let expected = encode_response_line(&owned_by(response.clone(), session), seq, session);
        assert_eq!(served, expected.to_string());
        replies.push(response);
    }

    // The script exercised what it names rather than erroring alike.
    let reason = |r: &Response| match r {
        Response::Stopped { event } => Some(event.reason),
        _ => None,
    };
    assert_eq!(reason(&replies[2]), Some(StopKind::BudgetExhausted));
    let Response::Batch { responses } = &replies[3] else {
        panic!("batch answers a batch: {:?}", replies[3]);
    };
    assert_eq!(reason(&responses[1]), Some(StopKind::Breakpoint));
    assert_eq!(replies[4], Response::Ok);
    assert_eq!(reason(&replies[5]), Some(StopKind::Breakpoint));
    assert!(reason(&replies[6]).is_some() && reason(&replies[7]).is_some());
    assert_eq!(reason(&replies[8]), Some(StopKind::Breakpoint));
    assert_eq!(reason(&replies[9]), Some(StopKind::Restored));

    drop(remote);
    service.shutdown().unwrap();
}
