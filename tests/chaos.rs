//! Chaos suite: fault-injection tests for the debug service's
//! containment guarantees.
//!
//! Every test here stages a fault — an injected panic inside request
//! handling, a malformed wire frame, a stalled or vanished peer — and
//! asserts the same three invariants: the service keeps serving
//! sessions the fault did not touch, the faulty session is cleanly
//! torn down (state cleared, peer notified where possible), and
//! `DebugService::shutdown` still hands the runtime back without
//! panicking.
//!
//! A panic-injection plan is armed on the runtime a test serves, so
//! tests that arm plans run side by side without touching each other's.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use hgdb::client::connect_tcp;
use hgdb::protocol::Request;
use hgdb::{
    outbound_queue, DebugClient, DebugService, FaultPlan, Outbound, Runtime, TcpDebugServer,
    TcpServerConfig, WireFault,
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

fn spawn_service() -> (DebugService<Simulator>, u32) {
    spawn_service_armed(FaultPlan::new())
}

fn spawn_service_armed(plan: FaultPlan) -> (DebugService<Simulator>, u32) {
    let (sim, symbols, bp_line) = build_counter();
    let mut runtime = Runtime::attach(sim, symbols).unwrap();
    runtime.arm_faults(plan);
    (DebugService::spawn(runtime), bp_line)
}

/// Parses one outbound message from a raw session queue.
fn outbound_json(out: &Outbound) -> microjson::Json {
    let (line, _last) = out.to_line(0);
    microjson::parse(&line).unwrap()
}

#[test]
fn injected_execute_panic_poisons_only_offender() {
    let (service, bp_line) = spawn_service_armed(FaultPlan::new().panic_at("execute:eval", 1));
    let mut a = DebugClient::new(service.handle().connect().unwrap());
    let mut b = DebugClient::new(service.handle().connect().unwrap());

    // A's eval panics inside the service; A gets a final error reply
    // naming the panic rather than a hung connection.
    let err = a.eval(Some("top"), "count").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("panicked"), "error names the panic: {msg}");
    assert!(
        msg.contains("fault injected"),
        "panic payload surfaced: {msg}"
    );

    // A's session is poisoned: the transport is gone.
    assert!(a.time().is_err(), "poisoned session stays dead");

    // B is untouched and the runtime is still consistent — breakpoints
    // insert, continue stops, values read.
    let ids = b
        .insert_breakpoint(file!(), bp_line, Some("count == 3"))
        .unwrap();
    assert_eq!(ids.len(), 1);
    let stop = b.continue_run(Some(1000)).unwrap();
    assert_eq!(stop["type"].as_str(), Some("stopped"));
    assert_eq!(
        stop["event"]["hits"][0]["locals"]["count"]["decimal"].as_str(),
        Some("3")
    );
    drop((a, b));
    let runtime = service
        .shutdown()
        .expect("service thread survived the panic");
    drop(runtime);
}

#[test]
fn injected_slice_panic_contained_midrun() {
    let (service, _) = spawn_service_armed(FaultPlan::new().panic_at("slice", 1));
    let handle = service.handle();
    let mut b = DebugClient::new(handle.connect().unwrap());

    // A raw session launches a breakpoint-free continue; the injected
    // panic fires between the first two slices, mid-run.
    let (out_tx, out_rx) = outbound_queue(64);
    let a = handle.open_session(out_tx).unwrap();
    assert!(handle.submit(
        a,
        Some(1),
        Request::Continue {
            max_cycles: None,
            budget_cycles: None,
            budget_ms: None,
        },
    ));
    let reply = out_rx.recv().expect("poisoned session gets a final reply");
    let json = outbound_json(&reply);
    assert_eq!(json["type"].as_str(), Some("error"));
    assert!(json["message"].as_str().unwrap().contains("panicked"));
    assert!(
        out_rx.recv().is_none(),
        "queue closes after the poison reply"
    );

    // B still gets service.
    assert!(b.time().is_ok());
    drop(b);
    service
        .shutdown()
        .expect("service thread survived the panic");
}

/// A free-running design whose registers change every cycle without
/// saturating, so "bit-identical after recovery" comparisons stay
/// meaningful deep into a run.
fn build_freerun() -> (Simulator, symtab::SymbolTable) {
    let mut cb = CircuitBuilder::new();
    cb.module("top", |m| {
        let out = m.output("out", 8);
        let count = m.reg("count", 8, Some(0));
        let acc = m.reg("acc", 8, Some(1));
        m.assign(&count, count.sig() + m.lit(1, 8));
        m.assign(&acc, acc.sig() + count.sig());
        m.assign(&out, acc.sig() ^ count.sig());
    });
    let circuit = cb.finish("top").unwrap();
    let mut state = hgf_ir::CircuitState::new(circuit);
    let table = hgf_ir::passes::compile(&mut state, true).unwrap();
    let symbols = symtab::from_debug_table(&state.circuit, &table).unwrap();
    let sim = Simulator::new(&state.circuit).unwrap();
    (sim, symbols)
}

#[test]
fn injected_midslice_panic_recovers_bit_identical() {
    // Several 2048-cycle slices, so the injected panic fires mid-run
    // with the simulation far from the pre-request state.
    const CYCLES: u64 = 5000;

    // Reference: the same workload with nothing armed.
    let (sim, symbols) = build_freerun();
    let service = DebugService::spawn(Runtime::attach(sim, symbols).unwrap());
    let mut r = DebugClient::new(service.handle().connect().unwrap());
    let stop = r.continue_with(None, Some(CYCLES), None).unwrap();
    assert_eq!(stop["event"]["reason"].as_str(), Some("budget_exhausted"));
    let ref_time = r.time().unwrap();
    let ref_count = r.eval(None, "top.count").unwrap();
    let ref_acc = r.eval(None, "top.acc").unwrap();
    drop(r);
    service.shutdown().unwrap();

    // Chaos: identical workload, panic between the first two slices.
    let (sim, symbols) = build_freerun();
    let mut runtime = Runtime::attach(sim, symbols).unwrap();
    runtime.arm_faults(FaultPlan::new().panic_at("slice", 1));
    let service = DebugService::spawn(runtime);
    let mut a = DebugClient::new(service.handle().connect().unwrap());
    let mut b = DebugClient::new(service.handle().connect().unwrap());

    let err = a.continue_with(None, Some(CYCLES), None).unwrap_err();
    assert!(err.to_string().contains("panicked"), "{err}");

    // Crash recovery restored the pre-request checkpoint, so the
    // surviving session redoes the whole run from cycle 0 and must end
    // in exactly the reference state.
    assert_eq!(b.time().unwrap(), 0, "rolled back to the pre-request cycle");
    let stop = b.continue_with(None, Some(CYCLES), None).unwrap();
    assert_eq!(stop["event"]["reason"].as_str(), Some("budget_exhausted"));
    assert_eq!(b.time().unwrap(), ref_time);
    assert_eq!(b.eval(None, "top.count").unwrap(), ref_count);
    assert_eq!(b.eval(None, "top.acc").unwrap(), ref_acc);

    drop((a, b));
    service
        .shutdown()
        .expect("service thread survived the panic");
}

#[test]
fn failed_restore_degrades_until_explicit_restore() {
    // The slice panic triggers crash recovery; the restore fault then
    // kills the recovery itself, leaving the runtime degraded instead
    // of silently continuing from a half-executed cycle.
    let (service, _) =
        spawn_service_armed(FaultPlan::new().panic_at("slice", 1).panic_at("restore", 1));
    let mut a = DebugClient::new(service.handle().connect().unwrap());
    let mut b = DebugClient::new(service.handle().connect().unwrap());

    let err = a.continue_run(None).unwrap_err();
    assert!(err.to_string().contains("panicked"), "{err}");

    // Degraded mode: reads still work, forward execution refuses.
    assert!(b.time().is_ok(), "non-advancing requests still served");
    let err = b.continue_run(Some(10)).unwrap_err();
    assert!(err.to_string().contains("degraded"), "{err}");
    let err = b.step().unwrap_err();
    assert!(err.to_string().contains("degraded"), "{err}");
    let err = b.checkpoint().unwrap_err();
    assert!(err.to_string().contains("degraded"), "{err}");

    // An explicit restore succeeds (the injected restore fault already
    // fired), clears the degradation, and execution resumes.
    let restored = b.restore(None).unwrap();
    assert_eq!(restored["event"]["reason"].as_str(), Some("restored"));
    let stop = b.continue_with(None, Some(50), None).unwrap();
    assert_eq!(stop["event"]["reason"].as_str(), Some("budget_exhausted"));
    assert!(b.time().unwrap() > 0);

    drop((a, b));
    service.shutdown().expect("clean shutdown");
}

#[test]
fn restore_broadcasts_resync_stop_to_viewers() {
    let (service, _) = spawn_service();
    let mut a = DebugClient::new(service.handle().connect().unwrap());
    let mut b = DebugClient::new(service.handle().connect().unwrap());

    let stop = a.continue_with(None, Some(20), None).unwrap();
    assert_eq!(stop["event"]["reason"].as_str(), Some("budget_exhausted"));
    let cp = a.checkpoint().unwrap();
    assert_eq!(cp, a.time().unwrap());
    a.continue_with(None, Some(20), None).unwrap();
    assert!(a.time().unwrap() > cp);

    let restored = a.restore(Some(cp)).unwrap();
    assert_eq!(restored["event"]["reason"].as_str(), Some("restored"));
    assert_eq!(restored["event"]["time"].as_i64(), Some(cp as i64));

    // The other session observes the shared simulation move under it
    // via the broadcast resync stop (default subscription delivers all
    // kinds, including "restored").
    let deadline = Instant::now() + Duration::from_secs(5);
    let ev = loop {
        match b.wait_event_timeout(Duration::from_millis(100)).unwrap() {
            Some(ev) if ev["data"]["reason"].as_str() == Some("restored") => break ev,
            Some(_) => {}
            None => assert!(Instant::now() < deadline, "restored broadcast arrives"),
        }
    };
    assert_eq!(ev["data"]["time"].as_i64(), Some(cp as i64));
    assert_eq!(b.time().unwrap(), cp);

    drop((a, b));
    service.shutdown().expect("clean shutdown");
}

#[test]
fn interrupt_stops_breakpoint_free_continue() {
    let (service, _) = spawn_service();
    let handle = service.handle();
    // Connect B before the run starts so its open isn't part of the
    // measured latency.
    let mut b = DebugClient::new(handle.connect().unwrap());

    let (out_tx, out_rx) = outbound_queue(64);
    let a = handle.open_session(out_tx).unwrap();
    assert!(handle.submit(
        a,
        Some(7),
        Request::Continue {
            max_cycles: None,
            budget_cycles: None,
            budget_ms: None,
        },
    ));
    // Let the run actually start before measuring responsiveness.
    std::thread::sleep(Duration::from_millis(30));

    // Regression bound: another session's request is answered within
    // one slice while the continue is in flight (slice wall is 5ms;
    // 50ms is the acceptance bound with 10x headroom).
    let t0 = Instant::now();
    b.time().expect("second session served mid-continue");
    assert!(
        t0.elapsed() < Duration::from_millis(50),
        "mid-continue request took {:?}",
        t0.elapsed()
    );

    b.interrupt().expect("interrupt acknowledged");
    let reply = out_rx.recv().expect("interrupted run replies");
    let json = outbound_json(&reply);
    assert_eq!(json["type"].as_str(), Some("stopped"));
    assert_eq!(json["event"]["reason"].as_str(), Some("interrupted"));
    assert_eq!(json["seq"].as_i64(), Some(7));

    // The interrupted session is still alive and resumable.
    assert!(handle.submit(a, Some(8), Request::Time));
    let json = outbound_json(&out_rx.recv().unwrap());
    assert_eq!(json["type"].as_str(), Some("time"));

    handle.close_session(a);
    drop(b);
    service.shutdown().expect("clean shutdown");
}

#[test]
fn lint_request_answered_inline_mid_continue() {
    let (service, _) = spawn_service();
    let handle = service.handle();
    let mut b = DebugClient::new(handle.connect().unwrap());

    let (out_tx, out_rx) = outbound_queue(64);
    let a = handle.open_session(out_tx).unwrap();
    assert!(handle.submit(
        a,
        Some(7),
        Request::Continue {
            max_cycles: None,
            budget_cycles: None,
            budget_ms: None,
        },
    ));
    std::thread::sleep(Duration::from_millis(30));

    // Lint is non-advancing: it must be answered inline between
    // slices of the in-flight continue, not deferred behind it.
    let t0 = Instant::now();
    let report = b.lint().expect("lint served mid-continue");
    assert!(
        t0.elapsed() < Duration::from_millis(50),
        "mid-continue lint took {:?}",
        t0.elapsed()
    );
    assert_eq!(report["type"].as_str(), Some("lint_report"));
    // The counter compiles in debug mode, so every symbol resolves.
    assert_eq!(report["clean"].as_bool(), Some(true));

    // The continue is still running; interrupt it to wind down.
    b.interrupt().expect("interrupt acknowledged");
    let json = outbound_json(&out_rx.recv().expect("interrupted run replies"));
    assert_eq!(json["type"].as_str(), Some("stopped"));

    handle.close_session(a);
    drop(b);
    service.shutdown().unwrap();
}

#[test]
fn budget_cycles_stop_is_resumable() {
    let (service, _) = spawn_service();
    let mut client = DebugClient::new(service.handle().connect().unwrap());

    let stop = client.continue_with(None, Some(2000), None).unwrap();
    assert_eq!(stop["type"].as_str(), Some("stopped"));
    assert_eq!(stop["event"]["reason"].as_str(), Some("budget_exhausted"));
    let t1 = client.time().unwrap();
    assert!(t1 > 0, "budgeted run advanced the simulation");

    // Resumable: a second budgeted continue picks up where the budget
    // cut in and advances further.
    let stop = client.continue_with(None, Some(2000), None).unwrap();
    assert_eq!(stop["event"]["reason"].as_str(), Some("budget_exhausted"));
    let t2 = client.time().unwrap();
    assert!(t2 > t1, "second budgeted run advanced past the first");

    drop(client);
    service.shutdown().expect("clean shutdown");
}

#[test]
fn budget_ms_bounds_wall_clock() {
    let (service, _) = spawn_service();
    let mut client = DebugClient::new(service.handle().connect().unwrap());

    let t0 = Instant::now();
    let stop = client.continue_with(None, None, Some(50)).unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(stop["event"]["reason"].as_str(), Some("budget_exhausted"));
    // Generous ceiling: the run must stop near its 50ms budget, not
    // wander off unbounded.
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");

    drop(client);
    service.shutdown().expect("clean shutdown");
}

fn chaos_tcp_config() -> TcpServerConfig {
    TcpServerConfig {
        max_line_len: 4096,
        idle_timeout: None,
        poll_interval: Duration::from_millis(25),
        drain_timeout: Duration::from_millis(500),
    }
}

#[test]
fn wire_faults_leave_server_serviceable() {
    let (service, bp_line) = spawn_service();
    let config = chaos_tcp_config();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = TcpDebugServer::start_with(service.handle(), listener, config.clone()).unwrap();
    let addr = server.local_addr();

    for fault in WireFault::ALL {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(&fault.bytes(config.max_line_len)).unwrap();
        writer.flush().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        match fault {
            WireFault::OversizedLine => {
                // The cap produces an explanatory error reply, then the
                // connection is closed — the line is never buffered
                // whole.
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let json = microjson::parse(line.trim_end()).unwrap();
                assert_eq!(json["type"].as_str(), Some("error"));
                assert!(json["message"].as_str().unwrap().contains("byte cap"));
                line.clear();
                assert_eq!(reader.read_line(&mut line).unwrap(), 0, "EOF after cap");
            }
            WireFault::FramedGarbage => {
                // Garbage that is at least framed gets a malformed-JSON
                // error and the connection survives: a valid request
                // afterwards still works.
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let json = microjson::parse(line.trim_end()).unwrap();
                assert_eq!(json["type"].as_str(), Some("error"));
                writer
                    .write_all(b"{\"seq\":1,\"type\":\"ping\"}\n")
                    .unwrap();
                line.clear();
                reader.read_line(&mut line).unwrap();
                let json = microjson::parse(line.trim_end()).unwrap();
                assert_eq!(json["type"].as_str(), Some("pong"));
            }
            WireFault::TornFrame | WireFault::MidHandshakeDisconnect => {
                // The peer vanishes; the server just reaps the session.
                writer.shutdown(Shutdown::Write).unwrap();
                let mut rest = Vec::new();
                let _ = reader.read_to_end(&mut rest);
            }
        }
    }

    // After every fault shape, a well-behaved client gets full service.
    let mut client = connect_tcp(&addr.to_string()).unwrap();
    let ids = client.insert_breakpoint(file!(), bp_line, None).unwrap();
    assert_eq!(ids.len(), 1);
    assert!(client.time().is_ok());
    drop(client);

    server.shutdown();
    service.shutdown().expect("clean shutdown");
}

#[test]
fn stalled_reader_is_reaped_and_state_cleared() {
    let (service, bp_line) = spawn_service();
    let config = TcpServerConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        poll_interval: Duration::from_millis(50),
        ..chaos_tcp_config()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = TcpDebugServer::start_with(service.handle(), listener, config).unwrap();

    let mut client = connect_tcp(&server.local_addr().to_string()).unwrap();
    let ids = client.insert_breakpoint(file!(), bp_line, None).unwrap();
    assert_eq!(ids.len(), 1);
    let reaped_session = client.session_id().unwrap();

    // Go silent past the idle deadline: the server reaps the session
    // and hangs up (observed as a transport error within ~1s).
    let t0 = Instant::now();
    let dead = loop {
        match client.wait_event_timeout(Duration::from_millis(100)) {
            Ok(_) => {}
            Err(_) => break true,
        }
        if t0.elapsed() > Duration::from_secs(5) {
            break false;
        }
    };
    assert!(dead, "stalled connection reaped within the deadline");

    server.shutdown();
    let runtime = service.shutdown().expect("clean shutdown");
    assert!(
        runtime.breakpoints_for(reaped_session).is_empty(),
        "reaped session's breakpoints are cleared"
    );
}

#[test]
fn ping_defeats_idle_reaping() {
    let (service, _) = spawn_service();
    let config = TcpServerConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        poll_interval: Duration::from_millis(50),
        ..chaos_tcp_config()
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = TcpDebugServer::start_with(service.handle(), listener, config).unwrap();

    let mut client = connect_tcp(&server.local_addr().to_string()).unwrap();
    // Stay connected well past the idle deadline by pinging under it.
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(150));
        client.ping().expect("keepalive accepted");
    }
    assert!(client.time().is_ok(), "pinged connection survives");

    drop(client);
    server.shutdown();
    service.shutdown().expect("clean shutdown");
}

#[test]
fn graceful_shutdown_notifies_clients() {
    let (service, _) = spawn_service();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server =
        TcpDebugServer::start_with(service.handle(), listener, chaos_tcp_config()).unwrap();

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"{\"seq\":1,\"type\":\"ping\"}\n")
        .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(
        microjson::parse(line.trim_end()).unwrap()["type"].as_str(),
        Some("pong")
    );

    // Graceful shutdown: the connected (idle) client gets a final
    // server_exiting event, then EOF — not a silent hangup.
    server.shutdown();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let json = microjson::parse(line.trim_end()).unwrap();
    assert_eq!(json["type"].as_str(), Some("event"));
    assert_eq!(json["event"].as_str(), Some("server_exiting"));
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "EOF after notice");

    service.shutdown().expect("clean shutdown");
}
