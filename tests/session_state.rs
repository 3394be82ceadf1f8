//! Integration tests for session-scoped debug state: per-session
//! breakpoints and watchpoints, filtered event subscriptions, and
//! bounded outbound queues with `Lagged` notifications.

use hgdb::protocol::Request;
use hgdb::{
    outbound_queue, serve, ClientError, DebugClient, DebugService, Outbound, RunOutcome, Runtime,
};
use rtl_sim::{SimControl, Simulator};

/// A saturating counter (stops at 100), like the other suites use.
fn build_counter() -> (Simulator, symtab::SymbolTable, u32) {
    let mut cb = hgf::CircuitBuilder::new();
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
    let (sim, symbols, bp_line) = build_counter();
    let service = DebugService::spawn(Runtime::attach(sim, symbols).unwrap());
    (service, bp_line)
}

/// Two concurrent sessions hold disjoint breakpoint sets on the same
/// source line without interference: conditions, listings, hit counts,
/// and removals are all per session; stops fire for the union and name
/// the sessions whose breakpoints matched.
#[test]
fn sessions_hold_disjoint_breakpoint_sets() {
    let (service, bp_line) = spawn_service();
    let mut a = DebugClient::new(service.handle().connect().unwrap());
    let mut b = DebugClient::new(service.handle().connect().unwrap());
    a.time().unwrap();
    b.time().unwrap();
    let (sa, sb) = (a.session_id().unwrap(), b.session_id().unwrap());

    // Same line, different conditions — same symbol-table breakpoint
    // id, two owners.
    let ids_a = a
        .insert_breakpoint(file!(), bp_line, Some("count == 5"))
        .unwrap();
    let ids_b = b
        .insert_breakpoint(file!(), bp_line, Some("count == 9"))
        .unwrap();
    assert_eq!(ids_a, ids_b, "one breakpoint id, two session owners");

    // Each session lists only its own condition.
    let la = a.request(&Request::ListBreakpoints).unwrap();
    let lb = b.request(&Request::ListBreakpoints).unwrap();
    assert_eq!(la["items"][0]["condition"].as_str(), Some("count == 5"));
    assert_eq!(lb["items"][0]["condition"].as_str(), Some("count == 9"));

    // A's continue stops at count == 5 — only A's condition matched,
    // so the event names only A's session.
    let stop = a.continue_run(Some(1000)).unwrap();
    assert_eq!(
        stop["event"]["hits"][0]["locals"]["count"]["decimal"].as_str(),
        Some("5")
    );
    let sessions = stop["event"]["sessions"].as_array().unwrap();
    assert_eq!(sessions.len(), 1);
    assert_eq!(sessions[0].as_i64(), Some(sa as i64));

    // B's continue from there stops at count == 9, attributed to B.
    let stop = b.continue_run(Some(1000)).unwrap();
    assert_eq!(
        stop["event"]["hits"][0]["locals"]["count"]["decimal"].as_str(),
        Some("9")
    );
    assert_eq!(
        stop["event"]["sessions"][0].as_i64(),
        Some(sb as i64),
        "B's stop is attributed to B's breakpoint"
    );

    // Hit counts moved independently: one each.
    let la = a.request(&Request::ListBreakpoints).unwrap();
    let lb = b.request(&Request::ListBreakpoints).unwrap();
    assert_eq!(la["items"][0]["hit_count"].as_i64(), Some(1));
    assert_eq!(lb["items"][0]["hit_count"].as_i64(), Some(1));

    // B cannot remove an id it does not own: A instruments a second
    // line (the out assignment) that B never touched.
    let ids_a2 = a.insert_breakpoint(file!(), bp_line + 2, None).unwrap();
    let err = b
        .request(&Request::RemoveBreakpoint { id: ids_a2[0] })
        .unwrap_err();
    assert!(err.to_string().contains("no breakpoint"));

    // A removing its own insertion leaves B's intact (same id!).
    a.request(&Request::RemoveBreakpoint { id: ids_a[0] })
        .unwrap();
    let la = a.request(&Request::ListBreakpoints).unwrap();
    let lb = b.request(&Request::ListBreakpoints).unwrap();
    assert_eq!(la["items"].as_array().unwrap().len(), 1, "only bp_line+2");
    assert_eq!(lb["items"].as_array().unwrap().len(), 1, "B untouched");
    assert_eq!(lb["items"][0]["condition"].as_str(), Some("count == 9"));

    a.detach().unwrap();
    b.detach().unwrap();
    let _ = service.shutdown();
}

/// A detached session's breakpoints stop stopping the simulation:
/// session state dies with the session.
#[test]
fn detach_clears_session_state() {
    let (service, bp_line) = spawn_service();
    let mut a = DebugClient::new(service.handle().connect().unwrap());
    let mut b = DebugClient::new(service.handle().connect().unwrap());

    a.insert_breakpoint(file!(), bp_line, None).unwrap();
    a.detach().unwrap();

    // B runs freely: A's unconditioned breakpoint would otherwise stop
    // B on the very first active cycle.
    let out = b.continue_run(Some(50)).unwrap();
    assert_eq!(
        out["type"].as_str(),
        Some("finished"),
        "a vanished session must not keep stopping the simulation"
    );

    b.detach().unwrap();
    let _ = service.shutdown();
}

/// Watchpoints stop execution when the watched value changes, are
/// session-owned like breakpoints, and broadcast to other sessions.
#[test]
fn watchpoints_stop_on_change_and_are_session_scoped() {
    let (service, _) = spawn_service();
    let mut a = DebugClient::new(service.handle().connect().unwrap());
    let mut b = DebugClient::new(service.handle().connect().unwrap());
    a.time().unwrap();
    b.time().unwrap();
    let sa = a.session_id().unwrap();

    let id = a.insert_watchpoint(Some("top"), "count").unwrap();

    // The counter increments every cycle: the next edge changes the
    // watched value.
    let stop = a.continue_run(Some(100)).unwrap();
    assert_eq!(stop["type"].as_str(), Some("stopped"));
    assert_eq!(stop["event"]["reason"].as_str(), Some("watchpoint"));
    let hit = &stop["event"]["watch_hits"][0];
    assert_eq!(hit["id"].as_i64(), Some(id));
    assert_eq!(hit["owner"].as_i64(), Some(sa as i64));
    assert_eq!(hit["old"]["decimal"].as_str(), Some("0"));
    assert_eq!(hit["new"]["decimal"].as_str(), Some("1"));
    assert_eq!(stop["event"]["sessions"][0].as_i64(), Some(sa as i64));

    // B (default subscription) received the watchpoint stop broadcast.
    b.time().unwrap();
    let ev = b.take_event().expect("default subscription gets stops");
    assert_eq!(ev["event"].as_str(), Some("stopped"));
    assert_eq!(ev["data"]["reason"].as_str(), Some("watchpoint"));

    // Ownership: B sees no watchpoints and cannot remove A's.
    assert!(b.list_watchpoints().unwrap().is_empty());
    let err = b.remove_watchpoint(id).unwrap_err();
    assert!(err.to_string().contains("no watchpoint"));

    // A's listing shows the updated baseline and hit count.
    let items = a.list_watchpoints().unwrap();
    assert_eq!(items.len(), 1);
    assert_eq!(items[0]["value"]["decimal"].as_str(), Some("1"));
    assert_eq!(items[0]["hit_count"].as_i64(), Some(1));

    // After removal the run finishes unimpeded.
    a.remove_watchpoint(id).unwrap();
    let out = a.continue_run(Some(20)).unwrap();
    assert_eq!(out["type"].as_str(), Some("finished"));

    // A watch on an unresolvable name is rejected at insert.
    let err = a.insert_watchpoint(None, "no_such_signal").unwrap_err();
    assert!(err.to_string().contains("expression"));

    a.detach().unwrap();
    b.detach().unwrap();
    let _ = service.shutdown();
}

/// `count` as read through `rt`'s `eval`.
fn count_of<S: SimControl>(rt: &Runtime<S>) -> u64 {
    rt.eval(Some("top"), "count")
        .unwrap()
        .to_known()
        .expect("count is known")
        .to_u64()
}

/// The `(old, new)` values of the single watchpoint hit `outcome`
/// stopped on.
fn watch_change(outcome: RunOutcome) -> (u64, u64) {
    let RunOutcome::Stopped(event) = outcome else {
        panic!("expected a watchpoint stop, got {outcome:?}");
    };
    assert_eq!(event.kind(), "watchpoint");
    let hit = &event.watch_hits[0];
    let known = |b: &bits::Bits4| b.to_known().expect("known").to_u64();
    (known(&hit.old), known(&hit.new))
}

/// Steps and reverse steps do not stop on watchpoint changes, and they
/// move the watch baselines with them: the next `continue` reports only
/// the change across its own edge, not what changed during the steps.
#[test]
fn watch_baselines_follow_step_and_reverse_step() {
    // Live backend: step to cycle 3, where count is 2, then continue.
    let (sim, symbols, _) = build_counter();
    let mut rt = Runtime::attach(sim, symbols).unwrap();
    rt.insert_watchpoint(Some("top"), "count").unwrap();
    while rt.time() < 3 {
        rt.step(Some(10)).unwrap();
    }
    assert_eq!((rt.time(), count_of(&rt)), (3, 2));
    assert_eq!(watch_change(rt.continue_run(Some(10)).unwrap()), (2, 3));

    // Natively reversible backend: a recorded trace of the counter.
    let (mut sim, symbols, _) = build_counter();
    let mut vcd_text = Vec::new();
    {
        let mut rec = vcd::Recorder::new(&sim, &mut vcd_text).unwrap();
        for _ in 0..30 {
            sim.step_clock();
            rec.sample(&sim).unwrap();
        }
        rec.finish().unwrap();
    }
    let trace = vcd::parse(std::str::from_utf8(&vcd_text).unwrap()).unwrap();
    let mut rt = Runtime::attach(vcd::ReplaySim::new(trace), symbols).unwrap();
    // The trace holds no values before its first sample.
    while rt.eval(Some("top"), "count").is_err() {
        rt.step(Some(10)).unwrap();
    }
    rt.insert_watchpoint(Some("top"), "count").unwrap();
    while count_of(&rt) < 5 {
        rt.step(Some(10)).unwrap();
    }
    while count_of(&rt) > 4 {
        rt.reverse_step().unwrap();
    }
    assert_eq!(count_of(&rt), 4);
    assert_eq!(watch_change(rt.continue_run(Some(10)).unwrap()), (4, 5));
}

/// Subscription filters suppress unrelated broadcasts: a session
/// subscribed to watchpoint events only does not receive breakpoint
/// stops, and a session subscribed to a different file receives
/// nothing at all.
#[test]
fn subscriptions_filter_broadcasts() {
    let (service, bp_line) = spawn_service();
    let mut a = DebugClient::new(service.handle().connect().unwrap());
    let mut b = DebugClient::new(service.handle().connect().unwrap());
    let mut c = DebugClient::new(service.handle().connect().unwrap());

    b.subscribe(&[], &[], &["watchpoint"]).unwrap();
    c.subscribe(&["some_other_file.rs"], &[], &[]).unwrap();

    // A breakpoint stop: suppressed for both B (wrong kind) and C
    // (wrong file).
    a.insert_breakpoint(file!(), bp_line, Some("count == 3"))
        .unwrap();
    let stop = a.continue_run(Some(1000)).unwrap();
    assert_eq!(stop["event"]["reason"].as_str(), Some("breakpoint"));
    b.time().unwrap();
    c.time().unwrap();
    assert!(
        b.take_event().is_none(),
        "kind filter must suppress breakpoint stops"
    );
    assert!(
        c.take_event().is_none(),
        "file filter must suppress stops from other files"
    );

    // A watchpoint stop: B's kind filter now matches; C's file filter
    // still cannot (watchpoint stops carry no file).
    a.insert_watchpoint(Some("top"), "count").unwrap();
    let stop = a.continue_run(Some(100)).unwrap();
    assert_eq!(stop["event"]["reason"].as_str(), Some("watchpoint"));
    b.time().unwrap();
    c.time().unwrap();
    let ev = b.take_event().expect("matching kind is delivered");
    assert_eq!(ev["data"]["reason"].as_str(), Some("watchpoint"));
    assert!(b.take_event().is_none());
    assert!(c.take_event().is_none());

    // Subscribing back to everything restores delivery.
    b.subscribe(&[], &[], &[]).unwrap();
    let stop = a.continue_run(Some(100)).unwrap();
    assert_eq!(stop["event"]["reason"].as_str(), Some("watchpoint"));
    b.time().unwrap();
    assert!(b.take_event().is_some());

    a.detach().unwrap();
    b.detach().unwrap();
    c.detach().unwrap();
    let _ = service.shutdown();
}

/// `serve` opens its session as `LOCAL_SESSION`: breakpoints inserted
/// through the direct `Runtime` API before serving are visible to and
/// removable by the connected debugger, not unlistable ghost stops.
/// Ending the session clears what it holds.
#[test]
fn serve_session_sees_locally_inserted_state() {
    let (sim, symbols, bp_line) = build_counter();
    let mut rt = Runtime::attach(sim, symbols).unwrap();
    // The embedding tool pre-instruments the design.
    let ids = rt.insert_breakpoint(file!(), bp_line, None, None).unwrap();

    let (service, transport) = serve(rt);
    let mut client = DebugClient::new(transport);

    let listing = client.request(&Request::ListBreakpoints).unwrap();
    assert_eq!(
        listing["items"][0]["id"].as_i64(),
        Some(ids[0]),
        "pre-inserted breakpoints are the session's own"
    );
    client
        .request(&Request::RemoveBreakpoint { id: ids[0] })
        .unwrap();
    let out = client.continue_run(Some(20)).unwrap();
    assert_eq!(out["type"].as_str(), Some("finished"), "removal worked");
    client.insert_breakpoint(file!(), bp_line, None).unwrap();
    client.insert_watchpoint(None, "top.out").unwrap();
    client.detach().unwrap();
    let rt = service.shutdown().unwrap();
    assert!(rt.breakpoints().is_empty(), "detach cleared the breakpoint");
    assert!(rt.watchpoints().is_empty(), "detach cleared the watchpoint");
}

/// A peer that pipelines requests without ever reading its connection
/// cannot grow server memory through the never-dropped reply path: the
/// queue hits a hard ceiling, poisons itself, and the service tears
/// the session down.
#[test]
fn reply_flood_disconnects_the_broken_session() {
    const CAPACITY: usize = 1; // reply ceiling = 16
    let (service, _) = spawn_service();
    let handle = service.handle();

    let (out_tx, out_rx) = outbound_queue(CAPACITY);
    let flooder = handle.open_session(out_tx).expect("service alive");
    for seq in 0..40u64 {
        assert!(handle.submit(flooder, Some(seq), Request::Time));
    }
    // A second session round-trip guarantees the service processed
    // all 40 submissions.
    let mut other = DebugClient::new(handle.connect().unwrap());
    other.time().unwrap();

    // Exactly the pre-ceiling replies were queued; the session was
    // then torn down (queue dropped -> receiver sees end-of-stream
    // rather than a hang).
    let mut replies = 0;
    while let Some(out) = out_rx.recv() {
        assert!(matches!(out, Outbound::Reply { .. }));
        replies += 1;
    }
    assert_eq!(replies, 16, "backlog capped at the reply ceiling");

    other.detach().unwrap();
    let _ = service.shutdown();
}

/// A breakpoint condition that errors at evaluation time (an
/// unresolvable name) is reported once in the diagnostics, not once
/// per instance per simulated cycle — a million-cycle continue must
/// not grow memory.
#[test]
fn broken_condition_reports_one_diagnostic() {
    let (sim, symbols, bp_line) = build_counter();
    let mut rt = Runtime::attach(sim, symbols).unwrap();
    rt.insert_breakpoint(file!(), bp_line, None, Some("ghost_signal == 1"))
        .unwrap();
    match rt.continue_run(Some(500)).unwrap() {
        hgdb::RunOutcome::Finished { .. } => {}
        other => panic!("broken condition cannot match, got {other:?}"),
    }
    assert_eq!(
        rt.diagnostics().len(),
        1,
        "one diagnostic per broken condition, not per cycle"
    );
    assert!(rt.diagnostics()[0].contains("condition"));
}

/// Regression for the ROADMAP's unbounded-queue footgun: a stalled
/// consumer's outbound queue stays bounded under a broadcast flood,
/// and the first message it eventually reads is a `Lagged` event
/// carrying the exact number of drops.
#[test]
fn stalled_consumer_queue_stays_bounded_and_sees_lagged() {
    const CAPACITY: usize = 4;
    const STOPS: u64 = 20;

    let (service, bp_line) = spawn_service();
    let handle = service.handle();

    // The stalled viewer: a raw session whose receiver is never
    // drained while the flood happens.
    let (out_tx, out_rx) = outbound_queue(CAPACITY);
    let viewer = handle.open_session(out_tx).expect("service alive");

    // The driver stops the simulation STOPS times (unconditioned
    // breakpoint on the increment line hits every cycle).
    let mut driver = DebugClient::new(handle.connect().unwrap());
    driver.insert_breakpoint(file!(), bp_line, None).unwrap();
    for _ in 0..STOPS {
        let stop = driver.continue_run(Some(1000)).unwrap();
        assert_eq!(stop["type"].as_str(), Some("stopped"));
    }

    // All STOPS broadcasts were pushed (the driver's last reply
    // arrived after them, and the service thread is serial). Drain:
    // one Lagged with the exact miss count, then the newest CAPACITY
    // events — the backlog stayed bounded.
    let first = out_rx.try_recv().expect("something was queued");
    match first {
        Outbound::Lagged { missed } => {
            assert_eq!(missed, STOPS - CAPACITY as u64);
        }
        other => panic!("expected lagged first, got {other:?}"),
    }
    let mut delivered = 0usize;
    let mut last_time = 0u64;
    while let Some(out) = out_rx.try_recv() {
        match out {
            Outbound::Stopped { event, .. } => {
                assert!(event.time > last_time, "events arrive in order");
                last_time = event.time;
                delivered += 1;
            }
            other => panic!("expected stop events, got {other:?}"),
        }
    }
    assert_eq!(
        delivered, CAPACITY,
        "backlog is bounded at the queue capacity"
    );

    handle.close_session(viewer);
    driver.detach().unwrap();
    let _ = service.shutdown();
}

/// Lagging must never lose replies: a session whose queue overflows
/// with events still receives every reply to its own requests.
#[test]
fn lagged_session_keeps_its_replies() {
    const CAPACITY: usize = 2;

    let (service, bp_line) = spawn_service();
    let handle = service.handle();

    let (out_tx, out_rx) = outbound_queue(CAPACITY);
    let viewer = handle.open_session(out_tx).expect("service alive");
    // The viewer pipelines two requests but does not read yet.
    assert!(handle.submit(viewer, Some(1), Request::Time));
    assert!(handle.submit(viewer, Some(2), Request::Time));

    // Flood with stops from another session.
    let mut driver = DebugClient::new(handle.connect().unwrap());
    driver.insert_breakpoint(file!(), bp_line, None).unwrap();
    for _ in 0..10 {
        driver.continue_run(Some(1000)).unwrap();
    }

    // Both replies survived the flood, in order.
    let mut seqs = Vec::new();
    let mut events = 0usize;
    let mut lagged = 0u64;
    while let Some(out) = out_rx.try_recv() {
        match out {
            Outbound::Reply { seq, .. } => seqs.push(seq),
            Outbound::Stopped { .. } => events += 1,
            Outbound::Lagged { missed } => lagged += missed,
        }
    }
    assert_eq!(seqs, vec![Some(1), Some(2)], "replies are never dropped");
    assert_eq!(events + lagged as usize, 10, "every stop accounted for");
    assert!(events <= CAPACITY + 2, "event backlog stayed bounded");

    handle.close_session(viewer);
    driver.detach().unwrap();
    let _ = service.shutdown();
}

/// `wait_event_timeout` on a quiet in-process session gives up at its
/// deadline instead of blocking until the next event, and the session
/// stays usable. The wait runs on a helper thread so that a transport
/// ignoring the deadline fails this test rather than hanging it.
#[test]
fn quiet_in_process_session_times_out() {
    let (service, _) = spawn_service();
    let mut client = DebugClient::new(service.handle().connect().unwrap());
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let got = client
            .wait_event_timeout(std::time::Duration::from_millis(50))
            .map_err(|e| e.to_string());
        let _ = tx.send((got, client));
    });
    // On a hang the waiter cannot be joined; failing here leaves it
    // blocked until the service shuts down.
    let (got, mut client) = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("wait_event_timeout(50 ms) still blocked after 10 s");
    waiter.join().expect("waiter thread panicked");
    assert_eq!(got, Ok(None), "no event on a quiet session");
    assert_eq!(client.time().unwrap(), 0, "the session still answers");
    client.detach().unwrap();
    assert!(
        matches!(
            client.wait_event_timeout(std::time::Duration::from_millis(50)),
            Err(ClientError::Transport(_))
        ),
        "a detached session reports its transport closed, not a timeout"
    );
    let _ = service.shutdown();
}
