//! The gdb-inspired interactive debugger (§3.5) over the RPC protocol.
//!
//! The debugger frontend and the simulation communicate exclusively
//! through the JSON debug protocol (an in-process service session
//! here; pass `--tcp` to run the same session over a socket, proving
//! the transport independence Figure 1 shows).
//!
//! Run interactively:   `cargo run --example gdb_cli`
//! Scripted self-demo:  `cargo run --example gdb_cli -- --demo`
//! Same over a socket:  `cargo run --example gdb_cli -- --demo --tcp`
//!
//! Commands: b FILE:LINE [COND] | w EXPR | iw | dw ID | c | s | rs |
//! rc | ckpt | restore [CYCLE] | p EXPR | sub [KIND...] | ev [SECS] |
//! info | frames | q

use std::io::{BufRead, Write};

use hgdb::{serve, DebugClient, DebugService, Runtime, TcpDebugServer, Transport};
use microjson::Json;
use rtl_sim::Simulator;

fn build_target() -> (Simulator, symtab::SymbolTable, hgdb_lint::Report, u32) {
    // The quickstart accumulator plus a counter — enough surface to
    // explore.
    let mut cb = hgf::CircuitBuilder::new();
    let bp_line = line!() + 5; // the m.assign inside the when below
    cb.module("top", |m| {
        let out = m.output("out", 8);
        let count = m.reg("count", 8, Some(0));
        m.when(count.sig().lt(&m.lit(200, 8)), |m| {
            m.assign(&count, count.sig() + m.lit(1, 8));
        });
        m.assign(&out, count.sig());
    });
    let circuit = cb.finish("top").expect("valid");
    let mut state = hgf_ir::CircuitState::new(circuit);
    let table = hgf_ir::passes::compile(&mut state, true).expect("compiles");
    // Static analysis over the compiled design; debug builds keep
    // otherwise-dead logic alive, so L004 is informational here.
    let report = hgdb_lint::check(
        &state,
        &table,
        &hgdb_lint::LintConfig::new().allow(hgdb_lint::Code::L004),
    );
    let symbols = symtab::from_debug_table(&state.circuit, &table).expect("symbols");
    let sim = Simulator::new(&state.circuit).expect("builds");
    (sim, symbols, report, bp_line)
}

fn print_response(resp: &Json) {
    match resp["type"].as_str() {
        Some("stopped") => {
            let e = &resp["event"];
            if e["reason"].as_str() == Some("restored") {
                println!("restored to cycle {}", e["time"].as_i64().unwrap_or(0));
                return;
            }
            if e["reason"].as_str() == Some("watchpoint") {
                println!("stopped (cycle {})", e["time"].as_i64().unwrap_or(0));
                for hit in e["watch_hits"].as_array().unwrap_or(&[]) {
                    println!(
                        "  watchpoint #{} {}: {} -> {}",
                        hit["id"].as_i64().unwrap_or(0),
                        hit["expr"].as_str().unwrap_or("?"),
                        hit["old"]["decimal"].as_str().unwrap_or("?"),
                        hit["new"]["decimal"].as_str().unwrap_or("?")
                    );
                }
                return;
            }
            println!(
                "stopped at {}:{} (cycle {})",
                e["filename"].as_str().unwrap_or("?"),
                e["line"].as_i64().unwrap_or(0),
                e["time"].as_i64().unwrap_or(0)
            );
            for hit in e["hits"].as_array().unwrap_or(&[]) {
                println!("  thread {}", hit["instance"].as_str().unwrap_or("?"));
                if let Some(locals) = hit["locals"].as_object() {
                    for (name, v) in locals {
                        println!(
                            "    {name} = {}",
                            v["decimal"].as_str().unwrap_or("<unavailable>")
                        );
                    }
                }
            }
        }
        Some("finished") => println!("finished at cycle {}", resp["time"].as_i64().unwrap_or(0)),
        Some("checkpointed") => println!(
            "checkpoint at cycle {} ({} retained, {} bytes)",
            resp["cycle"].as_i64().unwrap_or(0),
            resp["checkpoints"].as_i64().unwrap_or(0),
            resp["bytes"].as_i64().unwrap_or(0)
        ),
        Some("inserted") => println!("breakpoints {:?}", resp["ids"].as_array().unwrap_or(&[])),
        Some("value") => println!("= {}", resp["text"].as_str().unwrap_or("?")),
        Some("time") => println!("cycle {}", resp["time"].as_i64().unwrap_or(0)),
        Some("breakpoints") => {
            for b in resp["items"].as_array().unwrap_or(&[]) {
                println!(
                    "  #{} {}:{} [{}] hits={}",
                    b["id"].as_i64().unwrap_or(0),
                    b["filename"].as_str().unwrap_or("?"),
                    b["line"].as_i64().unwrap_or(0),
                    b["instance"].as_str().unwrap_or("?"),
                    b["hit_count"].as_i64().unwrap_or(0)
                );
            }
        }
        Some("watchpoint_inserted") => {
            println!("watchpoint #{}", resp["id"].as_i64().unwrap_or(0));
        }
        Some("watchpoints") => {
            for w in resp["items"].as_array().unwrap_or(&[]) {
                println!(
                    "  #{} watch {} = {} hits={}",
                    w["id"].as_i64().unwrap_or(0),
                    w["expr"].as_str().unwrap_or("?"),
                    w["value"]["decimal"].as_str().unwrap_or("?"),
                    w["hit_count"].as_i64().unwrap_or(0)
                );
            }
        }
        Some("lint_report") => {
            if resp["clean"].as_bool() == Some(true) {
                println!("lint clean");
                return;
            }
            for d in resp["diagnostics"].as_array().unwrap_or(&[]) {
                println!(
                    "{}[{}]: {}",
                    d["severity"].as_str().unwrap_or("?"),
                    d["code"].as_str().unwrap_or("?"),
                    d["message"].as_str().unwrap_or("?")
                );
                if d["loc"].as_object().is_some() {
                    println!(
                        "  --> {}:{}:{}",
                        d["loc"]["file"].as_str().unwrap_or("?"),
                        d["loc"]["line"].as_i64().unwrap_or(0),
                        d["loc"]["col"].as_i64().unwrap_or(0)
                    );
                }
                for note in d["notes"].as_array().unwrap_or(&[]) {
                    println!("  note: {}", note.as_str().unwrap_or("?"));
                }
            }
            println!("{} diagnostic(s)", resp["count"].as_i64().unwrap_or(0));
        }
        _ => println!("{resp}"),
    }
}

fn run_command<T: Transport>(client: &mut DebugClient<T>, line: &str) -> bool {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().unwrap_or("");
    let rest: Vec<&str> = parts.collect();
    let result = match cmd {
        "b" | "break" => {
            let Some(loc) = rest.first() else {
                println!("usage: b FILE:LINE [CONDITION]");
                return true;
            };
            let Some((file, line)) = loc.rsplit_once(':') else {
                println!("usage: b FILE:LINE [CONDITION]");
                return true;
            };
            let Ok(line) = line.parse::<u32>() else {
                println!("bad line number");
                return true;
            };
            let cond = (!rest[1..].is_empty()).then(|| rest[1..].join(" "));
            client
                .insert_breakpoint(file, line, cond.as_deref())
                .map(|ids| {
                    println!("inserted {ids:?}");
                })
        }
        "w" | "watch" => {
            let expr = rest.join(" ");
            if expr.is_empty() {
                println!("usage: w EXPR");
                return true;
            }
            client
                .insert_watchpoint(None, &expr)
                .map(|id| println!("watchpoint #{id} on {expr}"))
        }
        "iw" | "info-watch" => client
            .request(&hgdb::protocol::Request::ListWatchpoints)
            .map(|r| print_response(&r)),
        "dw" | "delete-watch" => {
            let Some(Ok(id)) = rest.first().map(|s| s.parse::<i64>()) else {
                println!("usage: dw ID");
                return true;
            };
            client
                .remove_watchpoint(id)
                .map(|()| println!("watchpoint #{id} removed"))
        }
        "sub" | "subscribe" => client
            .subscribe(&[], &[], &rest)
            .map(|()| println!("subscription updated")),
        "ev" | "event" => {
            // Bounded wait, so a quiet server hands the prompt back
            // instead of wedging the CLI.
            let secs = rest
                .first()
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or(1);
            client
                .wait_event_timeout(std::time::Duration::from_secs(secs))
                .map(|ev| match ev {
                    Some(ev) => print_response(&ev),
                    None => println!("no event within {secs}s"),
                })
        }
        "c" | "continue" => client
            .continue_run(Some(1_000_000))
            .map(|r| print_response(&r)),
        "s" | "step" => client.step().map(|r| print_response(&r)),
        "rs" | "reverse-step" => client.reverse_step().map(|r| print_response(&r)),
        "rc" | "reverse-continue" => client.reverse_continue().map(|r| print_response(&r)),
        "ckpt" | "checkpoint" => client
            .request(&hgdb::protocol::Request::Checkpoint)
            .map(|r| print_response(&r)),
        "restore" => {
            let cycle = match rest.first() {
                Some(s) => match s.parse::<u64>() {
                    Ok(c) => Some(c),
                    Err(_) => {
                        println!("usage: restore [CYCLE]");
                        return true;
                    }
                },
                None => None,
            };
            client.restore(cycle).map(|r| print_response(&r))
        }
        "p" | "print" => {
            let expr = rest.join(" ");
            client.eval(None, &expr).map(|v| println!("= {v}"))
        }
        "info" | "frames" => client
            .request(&hgdb::protocol::Request::Frames)
            .map(|r| print_response(&r)),
        "t" | "time" => client.time().map(|t| println!("cycle {t}")),
        "lint" => client.lint().map(|r| print_response(&r)),
        "q" | "quit" => {
            let _ = client.detach();
            return false;
        }
        "" => return true,
        other => {
            println!(
                "unknown command {other:?} \
                 (b/w/iw/dw/c/s/rs/rc/ckpt/restore/p/sub/ev/info/t/lint/q)"
            );
            return true;
        }
    };
    if let Err(e) = result {
        println!("error: {e}");
    }
    true
}

/// One debugger session over any transport (Figure 1's transport
/// independence: same commands, same protocol, in-process or socket).
fn drive_session<T: Transport>(mut client: DebugClient<T>, demo: bool, bp_line: u32) {
    if demo {
        // Scripted session (CI runs it over both transports and
        // compares the transcripts): the counter increments under a
        // when, so the increment line carries a breakpoint.
        println!("(scripted demo session)");
        let commands = vec![
            format!("b {}:{bp_line} count == 5", file!()),
            "c".to_owned(),
            "p top.count".to_owned(),
            "frames".to_owned(),
            // Watchpoint: the output changes on the next edge, so the
            // next continue stops immediately with old -> new values.
            "w top.out".to_owned(),
            "c".to_owned(),
            "iw".to_owned(),
            "dw 1".to_owned(),
            // Reverse debugging on the live simulator: watch the
            // output again, advance two stops, checkpoint, then
            // reverse-continue back across the cycle boundary to the
            // previous watchpoint hit and restore forward again.
            "w top.out".to_owned(),
            "c".to_owned(),
            "c".to_owned(),
            "ckpt".to_owned(),
            "t".to_owned(),
            "rc".to_owned(),
            "t".to_owned(),
            "restore".to_owned(),
            "t".to_owned(),
            "dw 2".to_owned(),
            "c".to_owned(),
            "p top.count".to_owned(),
            "t".to_owned(),
            "lint".to_owned(),
            "q".to_owned(),
        ];
        for cmd in commands {
            println!("(hgdb) {cmd}");
            if !run_command(&mut client, &cmd) {
                break;
            }
        }
    } else {
        println!(
            "hgdb gdb-style CLI. Commands: b FILE:LINE [COND], w EXPR, iw, dw ID, c, s, rs, \
             rc, ckpt, restore [CYCLE], p EXPR, sub [KIND...], ev [SECS], info, t, lint, q"
        );
        println!("try: b {}:{bp_line} count == 5", file!());
        let stdin = std::io::stdin();
        loop {
            print!("(hgdb) ");
            std::io::stdout().flush().ok();
            let mut line = String::new();
            if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
                let _ = client.detach();
                break;
            }
            if !run_command(&mut client, line.trim()) {
                break;
            }
        }
    }
}

fn main() {
    let demo = std::env::args().any(|a| a == "--demo");
    let tcp = std::env::args().any(|a| a == "--tcp");
    let (sim, symbols, report, bp_line) = build_target();
    let mut runtime = Runtime::attach(sim, symbols).expect("attach");
    runtime.set_lint_report(report);

    if tcp {
        // The multi-session service path: runtime on its service
        // thread, a real TCP accept loop, client over a socket.
        let service = DebugService::spawn(runtime);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let server = TcpDebugServer::start(service.handle(), listener).expect("tcp server");
        println!("(serving on {})", server.local_addr());
        let client = hgdb::client::connect_tcp(&server.local_addr().to_string()).expect("connect");
        drive_session(client, demo, bp_line);
        server.shutdown();
        let _ = service.shutdown();
    } else {
        // The zero-config in-process path: `serve` spawns a private
        // service and connects this debugger as its only session.
        let (service, transport) = serve(runtime);
        drive_session(DebugClient::new(transport), demo, bp_line);
        service.shutdown().expect("service thread");
    }
}
