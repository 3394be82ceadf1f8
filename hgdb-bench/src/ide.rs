//! The scripted IDE session: two TCP connections to one debug service,
//! an `ide` that drives and a `viewer` subscribed to breakpoint stops,
//! in a closed loop. After a traced round the ide's script is replayed
//! in-process through `dispatch`, through `ServiceHandle::connect` and
//! over one TCP connection, so the runtime, service and server layers
//! can be told apart.

use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use hgdb::client::connect_tcp;
use hgdb::protocol::{decode_line, encode_request_line, encode_response_line, Request, Response};
use hgdb::{DebugClient, DebugService, TcpDebugServer, TcpServerConfig, Transport};
use microjson::Json;

use crate::check::{wrong, Check, Checker};
use crate::dbg::{self, call, Stop};
use crate::design::{self, Design, SetupClock};
use crate::inputs::{IDE_REVERSE_EVERY, IDE_STEPS};
use crate::oracle::{Catalog, Kernel};
use crate::stats::Ops;
use crate::trace::{self, Mode, Probe};

/// What a round's IDE session measured (latencies in ms).
#[derive(Debug, Default)]
pub struct IdeTally {
    pub continue_ms: Vec<f64>,
    pub step_ms: Vec<f64>,
    pub reverse_step_ms: Vec<f64>,
    pub reverse_continue_ms: Vec<f64>,
    pub eval_ms: Vec<f64>,
    pub frames_ms: Vec<f64>,
    /// Inspection requests both connections completed per second, one
    /// sample per stop.
    pub inspect_rate: Vec<f64>,
}

/// Layer splits from the traced replays of the ide's script.
#[derive(Debug, Default)]
pub struct LayerTally {
    pub service_overhead_ns: Vec<f64>,
    pub server_overhead_ns: Vec<f64>,
    pub ring_bytes: Vec<f64>,
}

/// One connection with the bookkeeping the session needs.
struct Conn<'k, T: Transport> {
    client: DebugClient<T>,
    /// `ide` or `viewer`, for check messages.
    who: &'static str,
    /// The variables this connection evaluates at each stop.
    evals: &'k [&'static str],
    script: Vec<Request>,
}

impl<T: Transport> Conn<'_, T> {
    /// Sends one request; returns the reply (or the error text) and its
    /// round trip in ms.
    fn ask(&mut self, req: Request, ops: &mut Ops) -> (Result<Json, String>, f64) {
        let kind = req.kind_name();
        let (reply, ms) = self.send(req);
        ops.count(kind, reply.is_ok());
        (reply, ms)
    }

    /// [`Conn::ask`] without counting the operation.
    fn send(&mut self, req: Request) -> (Result<Json, String>, f64) {
        self.script.push(req.clone());
        let t = Instant::now();
        let reply = self.client.request(&req).map_err(|e| e.to_string());
        (reply, t.elapsed().as_secs_f64() * 1e3)
    }

    fn stop(&mut self, req: Request, ops: &mut Ops, ck: &Checker) -> (Stop, f64) {
        let (reply, ms) = self.ask(req, ops);
        (to_stop(reply, ck), ms)
    }
}

fn to_stop(reply: Result<Json, String>, ck: &Checker) -> Stop {
    reply.and_then(|j| Stop::from_json(&j)).unwrap_or_else(|e| {
        ck.fail(Check::StopCycles, format!("ide request: {e}"));
        Stop::error()
    })
}

/// `frames` plus `eval`s of one connection at a stop.
fn inspect<T: Transport>(
    conn: &mut Conn<'_, T>,
    k: &Kernel,
    time: u64,
    ck: &Checker,
    ops: &mut Ops,
    tally: &mut IdeTally,
) -> u64 {
    let (frames, ms) = conn.stop(Request::Frames, ops, ck);
    tally.frames_ms.push(ms);
    for var in ["pc", "insn_count_r"] {
        let want = k.run.var(time, var) + u64::from(wrong(Check::StopValues));
        ck.eq(
            Check::StopValues,
            &format!("{} frame {var} @{time}", conn.who),
            Some(want),
            frames.var("cpu", var),
        );
    }
    for var in conn.evals {
        let (reply, ms) = conn.ask(dbg::eval("cpu", var), ops);
        tally.eval_ms.push(ms);
        let want = k.run.var(time, var) + u64::from(wrong(Check::EvalValues));
        ck.eq(
            Check::EvalValues,
            &format!("{} eval {var} @{time}", conn.who),
            Ok(want),
            reply.and_then(|j| dbg::value_from_json(&j)),
        );
    }
    1 + conn.evals.len() as u64
}

enum ToViewer {
    /// A stop the ide caused: the viewer must get exactly this broadcast.
    Expect(Stop),
    /// The same, and then inspect it and report back.
    Inspect(Stop),
    End,
}

struct ViewerDone {
    requests: u64,
    tally: IdeTally,
}

/// How long the viewer waits for a broadcast before calling it missing
/// (the ide's reply, sent after it, has already arrived).
const BROADCAST_WAIT: Duration = Duration::from_secs(10);

fn expect_broadcast<T: Transport>(viewer: &mut Conn<'_, T>, want: &Stop, ck: &Checker) {
    let got = match viewer.client.wait_event_timeout(BROADCAST_WAIT) {
        Ok(Some(ev)) => Stop::from_json(&ev["data"]),
        Ok(None) => Err("no broadcast".to_owned()),
        Err(e) => Err(e.to_string()),
    };
    let mut want = want.place();
    want.0 += u64::from(wrong(Check::Broadcast));
    ck.eq(
        Check::Broadcast,
        "viewer broadcast",
        Ok(want),
        got.map(|s| s.place()),
    );
}

fn viewer_loop<'k, T: Transport>(
    mut viewer: Conn<'k, T>,
    k: &Kernel,
    rx: mpsc::Receiver<ToViewer>,
    done: mpsc::Sender<ViewerDone>,
    ck: &Checker,
) -> (Conn<'k, T>, Ops) {
    let mut ops = Ops::default();
    while let Ok(msg) = rx.recv() {
        match msg {
            ToViewer::Expect(stop) => expect_broadcast(&mut viewer, &stop, ck),
            ToViewer::Inspect(stop) => {
                expect_broadcast(&mut viewer, &stop, ck);
                let mut tally = IdeTally::default();
                let requests = inspect(&mut viewer, k, stop.time, ck, &mut ops, &mut tally);
                if done.send(ViewerDone { requests, tally }).is_err() {
                    break;
                }
            }
            ToViewer::End => {
                // Replies queue behind earlier broadcasts, so anything
                // still undelivered shows up before the ping's reply.
                let _ = viewer.ask(Request::Ping, &mut ops);
                let mut extra = 0u64;
                while viewer.client.take_event().is_some() {
                    extra += 1;
                }
                ck.eq(
                    Check::Broadcast,
                    "broadcasts beyond one per stop",
                    u64::from(wrong(Check::Broadcast)),
                    extra,
                );
                break;
            }
        }
    }
    (viewer, ops)
}

/// One session over the kernel: every loop-head stop in order.
pub fn run<M: Mode>(
    k: &Kernel,
    design: &Design,
    cat: &Catalog,
    setup: &mut SetupClock,
    ck: &Checker,
    ops: &mut Ops,
    tally: &mut IdeTally,
) -> Vec<Request> {
    let rt = design::bring_up::<M>(design, &k.program);
    let service = trace::span("service.spawn", || DebugService::spawn(rt));
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener binds");
    let config = TcpServerConfig {
        poll_interval: Duration::from_millis(5),
        ..TcpServerConfig::default()
    };
    let server = trace::span("server.start", || {
        TcpDebugServer::start_with(service.handle(), listener, config)
    })
    .expect("server starts");
    let addr = server.local_addr().to_string();
    let connect =
        || trace::span("client.connect", || connect_tcp(&addr)).expect("loopback connect");
    let mut ide = Conn {
        client: connect(),
        who: "ide",
        evals: &k.evals,
        script: Vec::new(),
    };
    let mut viewer = Conn {
        client: connect(),
        who: "viewer",
        evals: &k.viewer_evals,
        script: Vec::new(),
    };
    setup.ready();

    let cond = &cat.groups[k.plan.cond_group];
    let _ = viewer.ask(
        Request::Subscribe {
            files: Vec::new(),
            instances: Vec::new(),
            kinds: vec!["breakpoint".into()],
        },
        ops,
    );
    let _ = ide.ask(
        dbg::breakpoint(
            &cat.filename,
            cond.line,
            cond.col,
            Some(format!("pc == {}", k.loop_head)),
        ),
        ops,
    );
    let stops = &k.plan.stops;
    let bound = k.run.halt + 1;
    let (to_viewer, viewer_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let (viewer, viewer_ops) = std::thread::scope(|s| {
        let viewer_thread = s.spawn(|| viewer_loop(viewer, k, viewer_rx, done_tx, ck));
        let send = |msg| to_viewer.send(msg).expect("viewer thread alive");
        // Every advancing reply that stops is broadcast to the viewer.
        let relay = |stop: &Stop| {
            if !stop.finished() && stop.reason != "error" {
                send(ToViewer::Expect(stop.clone()));
            }
        };
        let mut pos = 0u64;
        for (i, &t) in stops.iter().enumerate() {
            let (stop, ms) = ide.stop(dbg::cont(Some(bound - pos)), ops, ck);
            tally.continue_ms.push(ms);
            ck.eq(
                Check::StopCycles,
                "ide stop",
                k.plan.stop_place(cat, t, 1),
                stop.place(),
            );
            pos = t;
            let started = Instant::now();
            send(ToViewer::Inspect(stop.clone()));
            let mut requests = inspect(&mut ide, k, t, ck, ops, tally);
            let viewer_done = done_rx.recv().expect("viewer reports its inspection");
            requests += viewer_done.requests;
            tally
                .inspect_rate
                .push(requests as f64 / started.elapsed().as_secs_f64());
            tally.eval_ms.extend(viewer_done.tally.eval_ms);
            tally.frames_ms.extend(viewer_done.tally.frames_ms);

            // A few steps forward, one back.
            let mut at = (t, k.plan.cond_group);
            let runs = std::slice::from_ref(&k.run);
            let cpu = ["cpu".to_owned()];
            for _ in 0..IDE_STEPS {
                let (stop, ms) = ide.stop(dbg::step(), ops, ck);
                tally.step_ms.push(ms);
                let target = cat.step_target(runs, &cpu, at.0, at.1, true);
                let mut want = target.place(cat, 1);
                want.0 += u64::from(wrong(Check::StepTarget));
                ck.eq(Check::StepTarget, "ide step", want, stop.place());
                relay(&stop);
                at = (target.time, target.group);
            }
            let (stop, ms) = ide.stop(Request::ReverseStep, ops, ck);
            tally.reverse_step_ms.push(ms);
            let target = cat.step_target(runs, &cpu, at.0, at.1, false);
            ck.eq(
                Check::StepTarget,
                "ide reverse_step",
                target.place(cat, 1),
                stop.place(),
            );
            relay(&stop);

            if i > 0 && (i + 1) % IDE_REVERSE_EVERY == 0 {
                // A reverse_continue that lands anywhere but the
                // previous forward stop has failed.
                let (reply, ms) = ide.send(Request::ReverseContinue);
                let stop = to_stop(reply, ck);
                tally.reverse_continue_ms.push(ms);
                let mut want = k.plan.stop_place(cat, stops[i - 1], 1);
                want.0 += u64::from(wrong(Check::ReverseLands));
                let landed = stop.place() == want;
                ops.count("reverse_continue", landed);
                relay(&stop);
                if !landed {
                    let _ = ide.ask(Request::Restore { cycle: Some(t) }, ops);
                }
                let (stop, ms) = ide.stop(dbg::cont(Some(bound)), ops, ck);
                tally.continue_ms.push(ms);
                let mut want = k.plan.stop_place(cat, t, 1);
                want.0 += u64::from(landed && wrong(Check::ContinueReturns));
                ck.eq(
                    Check::ContinueReturns,
                    "continue after reverse_continue",
                    want,
                    stop.place(),
                );
                relay(&stop);
            }
        }
        // Run out the program: halted from ECALL + 1, with its checksum.
        let (stop, ms) = ide.stop(dbg::cont(Some(bound - pos)), ops, ck);
        tally.continue_ms.push(ms);
        ck.eq(
            Check::HaltCycle,
            "ide run ends",
            (bound, true),
            (stop.time, stop.finished()),
        );
        let (halted, _) = ide.ask(dbg::eval("cpu", "halted_r"), ops);
        ck.eq(
            Check::HaltCycle,
            "ide halted_r at ECALL + 1",
            Ok(1),
            halted.and_then(|j| dbg::value_from_json(&j)),
        );
        let (tohost, _) = ide.ask(dbg::eval("cpu", "tohost_r"), ops);
        ck.eq(
            Check::Tohost,
            "ide tohost_r",
            Ok(u64::from(k.run.tohost)),
            tohost.and_then(|j| dbg::value_from_json(&j)),
        );
        send(ToViewer::End);
        viewer_thread.join().expect("viewer thread finishes")
    });
    ops.merge(&viewer_ops);
    let script = std::mem::take(&mut ide.script);
    for mut conn in [ide, viewer] {
        let _ = conn.ask(Request::Detach, ops);
    }
    server.shutdown();
    if service.shutdown().is_err() {
        ck.fail(Check::StopCycles, "debug service thread panicked".into());
    }
    script
}

fn span_name(prefix: &str, req: &Request) -> &'static str {
    macro_rules! names {
        ($($k:literal),*) => {
            match (prefix, req.kind_name()) {
                $(("runtime", $k) => concat!("runtime.", $k),
                  ("service", $k) => concat!("service.", $k),
                  ("server", $k) => concat!("server.", $k),)*
                ("runtime", _) => "runtime.other",
                ("service", _) => "service.other",
                _ => "server.other",
            }
        };
    }
    names!(
        "continue",
        "step",
        "reverse_step",
        "reverse_continue",
        "eval",
        "frames"
    )
}

/// Replays the ide's script three ways (traced rounds only): through
/// `dispatch` with backend, protocol and symbol-table spans; through an
/// in-process service connection; and over one TCP connection. Paired
/// by request, the differences are the service's and the server's
/// own cost.
pub fn split_layers<M: Mode>(
    script: &[Request],
    k: &Kernel,
    design: &Design,
    layers: &mut LayerTally,
) {
    // 1. The runtime alone, as the service thread calls it.
    let mut rt = design::bring_up::<M>(design, &k.program);
    let mut dispatch_ns = Vec::with_capacity(script.len());
    for (i, req) in script.iter().enumerate() {
        let advancing = matches!(
            req,
            Request::Continue { .. }
                | Request::Step { .. }
                | Request::ReverseStep
                | Request::ReverseContinue
                | Request::Restore { .. }
        );
        if advancing {
            rt.prepare_advance();
        }
        let line = trace::span("protocol.encode", || {
            encode_request_line(req, Some(i as u64)).to_string()
        });
        let decoded = trace::span("protocol.decode", || {
            decode_line(&line).1.expect("own request decodes")
        });
        let before = rt.time();
        let c0 = rt.sim().counters();
        let open = trace::open(span_name("runtime", req));
        let t = Instant::now();
        let resp = call(&mut rt, decoded);
        dispatch_ns.push(t.elapsed().as_nanos() as f64);
        trace::backend_children(&open, &rt.sim().counters().since(&c0), false);
        trace::close(open, before.saturating_sub(rt.time()));
        // Replies that carry a stop with its frames are the large ones.
        let (encode, decode) = match (req, &resp) {
            (Request::Frames, _) => ("protocol.encode_frames", "protocol.decode_frames"),
            (_, Response::Stopped { .. }) => ("protocol.encode_stop", "protocol.decode_stop"),
            _ => ("protocol.encode", "protocol.decode"),
        };
        let open = trace::open(encode);
        let line = encode_response_line(&resp, Some(i as u64), 1).to_string();
        trace::close(open, line.len() as u64);
        trace::span(decode, || {
            microjson::parse(&line).expect("own reply parses")
        });
        if let (Request::Continue { .. }, Response::Stopped { event }) = (req, &resp) {
            symtab_queries(&rt, event, &k.evals);
        }
    }
    layers
        .ring_bytes
        .push(rt.checkpoints().approx_bytes() as f64);
    drop(rt);

    // 2. Through the service thread, in-process.
    let service = DebugService::spawn(design::bring_up::<M>(design, &k.program));
    let mut client = DebugClient::new(service.handle().connect().expect("service accepts"));
    let mut service_ns = Vec::with_capacity(script.len());
    for req in script {
        let open = trace::open(span_name("service", req));
        let t = Instant::now();
        let _ = client.request(req);
        service_ns.push(t.elapsed().as_nanos() as f64);
        trace::close(open, 0);
    }
    let _ = client.detach();
    drop(client);
    let _ = service.shutdown();

    // 3. Over one TCP connection.
    let service = DebugService::spawn(design::bring_up::<M>(design, &k.program));
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener binds");
    let config = TcpServerConfig {
        poll_interval: Duration::from_millis(5),
        ..TcpServerConfig::default()
    };
    let server =
        TcpDebugServer::start_with(service.handle(), listener, config).expect("server starts");
    let mut client = connect_tcp(&server.local_addr().to_string()).expect("loopback connect");
    let mut tcp_ns = Vec::with_capacity(script.len());
    for req in script {
        let open = trace::open(span_name("server", req));
        let t = Instant::now();
        let _ = client.request(req);
        tcp_ns.push(t.elapsed().as_nanos() as f64);
        trace::close(open, 0);
    }
    let _ = client.detach();
    drop(client);
    server.shutdown();
    let _ = service.shutdown();

    for i in 0..script.len() {
        layers
            .service_overhead_ns
            .push(service_ns[i] - dispatch_ns[i]);
        layers.server_overhead_ns.push(tcp_ns[i] - service_ns[i]);
    }
}

/// The symbol-table queries a stop's frame and the session's evals
/// need, each in a span: breakpoints at the location, the breakpoint's
/// scope, its scoped variables, and the instance variables evaluated.
fn symtab_queries<S: rtl_sim::SimControl>(
    rt: &hgdb::Runtime<S>,
    event: &hgdb::StopEvent,
    evals: &[&str],
) {
    let st = rt.symbols();
    let Some(frame) = event.hits.first() else {
        return;
    };
    let q = |f: &dyn Fn()| trace::span("symtab.query", f);
    q(&|| {
        let _ = st.breakpoints_at(&event.filename, Some(event.line), Some(event.col));
    });
    let scope = trace::span("symtab.query", || {
        st.scope_of(frame.breakpoint_id).unwrap_or_default()
    });
    for (name, _) in scope.iter().take(2) {
        q(&|| {
            let _ = st.resolve_scoped_variable(frame.breakpoint_id, name);
        });
    }
    let Ok(Some(iid)) = st.instance_by_name(&frame.instance) else {
        return;
    };
    for var in evals {
        q(&|| {
            let _ = st.resolve_instance_variable(iid, var);
        });
    }
}
