//! Debug-service request throughput in requests/second, as JSON.
//!
//! Measures the concurrent multi-session service end to end: N TCP
//! clients hammer one `DebugService` (one `Runtime` on its service
//! thread) with eval/time/list requests, plus a single-client batched
//! mode showing what `Request::Batch` saves in round-trips, plus a
//! subscriptions scenario (16 clients, 1 subscribed) measuring what
//! per-session event filtering saves in stop-broadcast fan-out.
//! Produces the numbers recorded in `BENCH_server_throughput.json` at
//! the repo root. Run with `--smoke` for the CI gate: short 1-client,
//! 16-client, and subscription runs that fail (panic) on wrong
//! replies or pathological slowness, without asserting exact timing.
//! `--interrupt` runs only the interrupt-latency scenario (how fast a
//! `Request::Interrupt` stops a breakpoint-free continue) and gates
//! its mean latency at 50ms.
//!
//! ```text
//! cargo run --release -p bench --bin server_throughput                # full JSON
//! cargo run --release -p bench --bin server_throughput -- --smoke     # CI gate
//! cargo run --release -p bench --bin server_throughput -- --interrupt # latency gate
//! ```

use std::net::TcpListener;
use std::time::{Duration, Instant};

use hgdb::protocol::Request;
use hgdb::{outbound_queue, DebugClient, DebugService, Runtime, TcpDebugServer};
use rtl_sim::Simulator;

fn build_runtime() -> Runtime<Simulator> {
    let mut cb = hgf::CircuitBuilder::new();
    cb.module("top", |m| {
        let out = m.output("out", 8);
        let count = m.reg("count", 8, Some(0));
        m.when(count.sig().lt(&m.lit(200, 8)), |m| {
            m.assign(&count, count.sig() + m.lit(1, 8));
        });
        m.assign(&out, count.sig());
    });
    let circuit = cb.finish("top").expect("valid circuit");
    let mut state = hgf_ir::CircuitState::new(circuit);
    let table = hgf_ir::passes::compile(&mut state, true).expect("compiles");
    let symbols = symtab::from_debug_table(&state.circuit, &table).expect("symbols");
    let sim = Simulator::new(&state.circuit).expect("builds");
    Runtime::attach(sim, symbols).expect("attaches")
}

/// A free-running (wrapping) counter whose increment line carries an
/// always-active breakpoint: an unconditioned insertion on it stops
/// the simulation on every cycle, which is exactly what the
/// stop-broadcast scenario needs. Returns the runtime and the
/// breakpoint line.
fn build_wrapping_runtime() -> (Runtime<Simulator>, u32) {
    let mut cb = hgf::CircuitBuilder::new();
    let bp_line = line!() + 4;
    cb.module("top", |m| {
        let out = m.output("out", 8);
        let count = m.reg("count", 8, Some(0));
        m.assign(&count, count.sig() + m.lit(1, 8));
        m.assign(&out, count.sig());
    });
    let circuit = cb.finish("top").expect("valid circuit");
    let mut state = hgf_ir::CircuitState::new(circuit);
    let table = hgf_ir::passes::compile(&mut state, true).expect("compiles");
    let symbols = symtab::from_debug_table(&state.circuit, &table).expect("symbols");
    let sim = Simulator::new(&state.circuit).expect("builds");
    (Runtime::attach(sim, symbols).expect("attaches"), bp_line)
}

struct Row {
    mode: String,
    clients: usize,
    requests: u64,
    requests_per_sec: f64,
    /// Mean request-to-effect latency, for scenarios where latency is
    /// the figure of merit (the interrupt scenario) rather than rate.
    latency_ms: Option<f64>,
}

/// N concurrent TCP clients, each issuing `per_client` request
/// round-trips (alternating eval and time). Every reply is checked.
fn measure_clients(clients: usize, per_client: u64) -> Row {
    let service = DebugService::spawn(build_runtime());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = TcpDebugServer::start(service.handle(), listener).expect("server");
    let addr = server.local_addr().to_string();

    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = hgdb::client::connect_tcp(&addr).expect("connect");
                for i in 0..per_client {
                    if i % 2 == 0 {
                        let v = client.eval(Some("top"), "count").expect("eval reply");
                        assert_eq!(v, "0", "no one advances the clock in this bench");
                    } else {
                        client.time().expect("time reply");
                    }
                }
                client.detach().expect("detach");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let elapsed = start.elapsed().as_secs_f64();

    server.shutdown();
    let _runtime = service.shutdown();
    let total = per_client * clients as u64;
    Row {
        mode: format!("tcp_{clients}_clients"),
        clients,
        requests: total,
        requests_per_sec: total as f64 / elapsed,
        latency_ms: None,
    }
}

/// One TCP client sending `batches` batch lines of `batch_size` time
/// requests each: per-request cost without the per-request round-trip.
fn measure_batched(batch_size: usize, batches: u64) -> Row {
    let service = DebugService::spawn(build_runtime());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = TcpDebugServer::start(service.handle(), listener).expect("server");
    let mut client = hgdb::client::connect_tcp(&server.local_addr().to_string()).expect("connect");

    let requests = vec![Request::Time; batch_size];
    let start = Instant::now();
    for _ in 0..batches {
        let responses = client.batch(&requests).expect("batch reply");
        assert_eq!(responses.len(), batch_size);
        assert!(responses.iter().all(|r| r["type"].as_str() == Some("time")));
    }
    let elapsed = start.elapsed().as_secs_f64();

    client.detach().expect("detach");
    server.shutdown();
    let _runtime = service.shutdown();
    let total = batches * batch_size as u64;
    Row {
        mode: format!("tcp_batched_x{batch_size}"),
        clients: 1,
        requests: total,
        requests_per_sec: total as f64 / elapsed,
        latency_ms: None,
    }
}

/// The subscriptions scenario: one driver stops the simulation `stops`
/// times while 15 idle viewer connections are attached (16 clients
/// total). With `filtered` set, 14 viewers subscribe to a kind that
/// never fires and exactly one subscribes to breakpoint stops — every
/// stop is delivered to 1 session instead of fanned out to 15. The
/// subscribed viewer actively drains and the delivered + lagged count
/// is checked against `stops`, so filtering is verified, not assumed.
fn measure_subscriptions(stops: u64, filtered: bool) -> Row {
    let (runtime, bp_line) = build_wrapping_runtime();
    let service = DebugService::spawn(runtime);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let server = TcpDebugServer::start(service.handle(), listener).expect("server");
    let addr = server.local_addr().to_string();

    // 14 passive viewers (default subscription, or a never-matching
    // kind filter when `filtered`).
    let passive: Vec<_> = (0..14)
        .map(|_| {
            let mut viewer = hgdb::client::connect_tcp(&addr).expect("connect");
            if filtered {
                viewer
                    .subscribe(&[], &[], &["watchpoint"])
                    .expect("subscribe");
            }
            viewer
        })
        .collect();

    // The one subscribed viewer drains its events on a thread and
    // reports how many stops it saw (delivered + lagged).
    let mut subscribed = hgdb::client::connect_tcp(&addr).expect("connect");
    if filtered {
        subscribed
            .subscribe(&[], &[], &["breakpoint"])
            .expect("subscribe");
    }
    let drainer = std::thread::spawn(move || {
        let mut seen: u64 = 0;
        while seen < stops {
            let ev = subscribed.wait_event().expect("event stream");
            match ev["event"].as_str() {
                Some("stopped") => seen += 1,
                Some("lagged") => seen += ev["missed"].as_i64().unwrap_or(0) as u64,
                other => panic!("unexpected event {other:?}"),
            }
        }
        seen
    });

    let mut driver = hgdb::client::connect_tcp(&addr).expect("connect");
    driver
        .insert_breakpoint(file!(), bp_line, None)
        .expect("insert");
    let start = Instant::now();
    for _ in 0..stops {
        let stop = driver.continue_run(Some(10)).expect("continue");
        assert_eq!(
            stop["type"].as_str(),
            Some("stopped"),
            "bp hits every cycle"
        );
    }
    let elapsed = start.elapsed().as_secs_f64();

    let seen = drainer.join().expect("drainer thread");
    assert_eq!(seen, stops, "subscribed viewer accounts for every stop");
    driver.detach().expect("detach");
    drop(passive);
    server.shutdown();
    let _runtime = service.shutdown();
    Row {
        mode: if filtered {
            "tcp_16_clients_1_subscribed_stops".into()
        } else {
            "tcp_16_clients_broadcast_all_stops".into()
        },
        clients: 16,
        requests: stops,
        requests_per_sec: stops as f64 / elapsed,
        latency_ms: None,
    }
}

/// The interrupt scenario: a raw in-process session launches a
/// breakpoint-free unbounded `continue`, a second session fires
/// `Request::Interrupt`, and the round measures the latency from the
/// interrupt request to the runner's `interrupted` stop reply. This is
/// the user-facing "Ctrl-C responsiveness" of the service while the
/// simulation is running flat out.
fn measure_interrupt(rounds: u64) -> Row {
    let service = DebugService::spawn(build_runtime());
    let handle = service.handle();
    let mut controller = DebugClient::new(handle.connect().expect("connect"));
    let (out_tx, out_rx) = outbound_queue(64);
    let runner = handle.open_session(out_tx).expect("open session");

    let mut total = Duration::ZERO;
    let start = Instant::now();
    for i in 0..rounds {
        assert!(handle.submit(
            runner,
            Some(i),
            Request::Continue {
                max_cycles: None,
                budget_cycles: None,
                budget_ms: None,
            },
        ));
        // Let the run get deep into a slice first; otherwise the
        // interrupt is drained at cycle 0 and the number measures
        // queue latency, not mid-run responsiveness.
        std::thread::sleep(Duration::from_millis(2));
        let t0 = Instant::now();
        controller.interrupt().expect("interrupt acknowledged");
        let reply = out_rx.recv().expect("stop reply");
        total += t0.elapsed();
        let (line, _) = reply.to_line(runner);
        let json = microjson::parse(&line).expect("reply json");
        assert_eq!(
            json["event"]["reason"].as_str(),
            Some("interrupted"),
            "runner stops with the interrupted reason"
        );
    }
    let elapsed = start.elapsed().as_secs_f64();

    handle.close_session(runner);
    drop(controller);
    let _runtime = service.shutdown();
    Row {
        mode: "interrupt_midrun".into(),
        clients: 2,
        requests: rounds,
        requests_per_sec: rounds as f64 / elapsed,
        latency_ms: Some(total.as_secs_f64() * 1000.0 / rounds as f64),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let interrupt_only = std::env::args().any(|a| a == "--interrupt");
    let per_client: u64 = if smoke { 500 } else { 5_000 };

    let rows: Vec<Row> = if interrupt_only {
        // The CI chaos job's latency gate; also part of the full run.
        vec![measure_interrupt(if smoke { 50 } else { 200 })]
    } else if smoke {
        // The CI gate: the two ends of the concurrency range, plus the
        // filtered-broadcast path (which also exercises backpressure).
        vec![
            measure_clients(1, per_client),
            measure_clients(16, per_client),
            measure_subscriptions(per_client, true),
        ]
    } else {
        vec![
            measure_clients(1, per_client),
            measure_clients(4, per_client),
            measure_clients(16, per_client),
            measure_batched(64, per_client / 10),
            measure_subscriptions(per_client, false),
            measure_subscriptions(per_client, true),
            measure_interrupt(200),
        ]
    };

    println!("{{");
    println!("  \"bench\": \"server_throughput\",");
    println!("  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let latency = r
            .latency_ms
            .map(|ms| format!(", \"interrupt_latency_ms\": {ms:.2}"))
            .unwrap_or_default();
        println!(
            "    {{\"mode\": \"{}\", \"clients\": {}, \"requests\": {}, \"requests_per_sec\": {:.0}{}}}{}",
            r.mode, r.clients, r.requests, r.requests_per_sec, latency, comma
        );
    }
    println!("  ]");
    println!("}}");

    if smoke || interrupt_only {
        // Loose floors: loopback TCP against the service thread runs
        // tens of thousands of requests/sec; anything under 1k/sec
        // means the service serialization or the per-client threads
        // regressed to pathological behavior (every reply was already
        // checked for correctness above). An interrupt must land well
        // within a handful of slices (the regression bound is one
        // 5ms slice; 50ms is the gate with scheduling headroom).
        for r in &rows {
            if let Some(ms) = r.latency_ms {
                assert!(
                    ms < 50.0,
                    "{}: interrupt latency {ms:.2}ms above 50ms gate",
                    r.mode
                );
            } else {
                assert!(
                    r.requests_per_sec > 1_000.0,
                    "{}: throughput {:.0} req/sec below smoke floor 1000",
                    r.mode,
                    r.requests_per_sec
                );
            }
        }
        eprintln!("smoke ok");
    }
}
