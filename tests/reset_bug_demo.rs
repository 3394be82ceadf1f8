//! The missing-reset bug class, end to end (four-state mode).
//!
//! A register left out of the reset tree powers up unknown and —
//! unlike its properly-reset neighbour — *stays* unknown through
//! reset. Two-state simulation hides this bug behind a silent zero;
//! the four-state engine makes it visible at every layer this test
//! crosses:
//!
//! 1. `hgdb-lint` flags the register statically (L006),
//! 2. the debugger, attached over the real TCP wire protocol, prints
//!    the register as `8'hxx` before *and after* reset,
//! 3. a watchpoint on the register fires on the X→known resolution
//!    when data finally clocks in, with the old value encoded as an
//!    `x` literal in the stop payload.

use std::net::TcpListener;

use hgdb::protocol::Request;
use hgdb::{DebugClient, DebugService, Runtime, TcpDebugServer};
use hgdb_lint::{check, Code, LintConfig};
use hgf::CircuitBuilder;
use rtl_sim::{SimConfig, Simulator};

/// Two 8-bit load registers behind an enable; `good` has a reset
/// value, `bad` was forgotten (the L006 bug).
fn build_design() -> (hgf_ir::CircuitState, hgf_ir::passes::DebugTable) {
    let mut cb = CircuitBuilder::new();
    cb.module("dut", |m| {
        let en = m.input("en", 1);
        let data = m.input("data", 8);
        let out = m.output("out", 8);
        let good_out = m.output("good_out", 8);
        let good = m.reg("good", 8, Some(0));
        let bad = m.reg("bad", 8, None); // missing from the reset tree
        m.when(en, |m| {
            m.assign(&good, data.clone());
            m.assign(&bad, data);
        });
        m.assign(&out, bad.sig());
        m.assign(&good_out, good.sig());
    });
    let circuit = cb.finish("dut").unwrap();
    let mut state = hgf_ir::CircuitState::new(circuit);
    let table = hgf_ir::passes::compile(&mut state, true).unwrap();
    (state, table)
}

#[test]
fn lint_flags_the_unreset_register() {
    let (state, table) = build_design();
    let report = check(&state, &table, &LintConfig::new());
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::L006)
        .expect("L006 fires on the register with no reset value");
    assert!(
        diag.message.contains("dut.bad"),
        "diagnostic names the offender: {}",
        diag.message
    );
    // The properly-reset register is not flagged.
    assert!(report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::L006)
        .all(|d| !d.message.contains("dut.good")));
}

#[test]
fn debugger_sees_x_resolve_over_the_wire() {
    let (state, table) = build_design();
    let symbols = symtab::from_debug_table(&state.circuit, &table).unwrap();
    let sim = Simulator::with_config(&state.circuit, SimConfig::default().four_state()).unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let service = DebugService::spawn(Runtime::attach(sim, symbols).unwrap());
    let server = TcpDebugServer::start(service.handle(), listener).unwrap();
    let mut client = hgdb::client::connect_tcp(&server.local_addr().to_string()).unwrap();

    fn poke<T>(client: &mut DebugClient<T>, name: &str, value: &str)
    where
        T: hgdb::Transport,
    {
        client
            .request(&Request::SetValue {
                instance: None,
                name: name.into(),
                value: value.into(),
            })
            .unwrap();
    }

    // At power-up everything is unknown; peeks print x digits instead
    // of a fabricated zero.
    assert_eq!(client.eval(None, "dut.good").unwrap(), "8'hxx");
    assert_eq!(client.eval(None, "dut.bad").unwrap(), "8'hxx");

    // Watch both registers, then apply reset. `good` resolves to its
    // init value — an ordinary value change in plane-wise terms, so
    // its watchpoint stops the run.
    client.insert_watchpoint(None, "dut.good").unwrap();
    let bad_watch = client.insert_watchpoint(None, "dut.bad").unwrap();
    poke(&mut client, "dut.reset", "1");
    let stop = client.continue_run(Some(10)).unwrap();
    assert_eq!(stop["event"]["reason"].as_str(), Some("watchpoint"));
    let hits = &stop["event"]["watch_hits"];
    assert_eq!(hits[0]["expr"].as_str(), Some("dut.good"));
    assert_eq!(hits[0]["old"]["value"].as_str(), Some("8'hxx"));
    assert_eq!(hits[0]["old"]["unknown"].as_bool(), Some(true));
    assert_eq!(hits[0]["new"]["decimal"].as_str(), Some("0"));

    // The bug, as the user would see it: reset has been applied, the
    // good register reads 0, and `bad` *still* prints x digits.
    assert_eq!(client.eval(None, "dut.good").unwrap(), "0");
    assert_eq!(client.eval(None, "dut.bad").unwrap(), "8'hxx");

    // Drop reset and clock a known value in. The X→known resolution
    // fires the second watchpoint, and the stop payload carries the
    // x literal as the old value.
    poke(&mut client, "dut.reset", "0");
    poke(&mut client, "dut.en", "1");
    poke(&mut client, "dut.data", "90");
    let stop = client.continue_run(Some(10)).unwrap();
    assert_eq!(stop["event"]["reason"].as_str(), Some("watchpoint"));
    let hit = stop["event"]["watch_hits"]
        .as_array()
        .unwrap()
        .iter()
        .find(|h| h["id"].as_i64() == Some(bad_watch))
        .expect("the bad register's watchpoint fires on X→known");
    assert_eq!(hit["old"]["value"].as_str(), Some("8'hxx"));
    assert_eq!(hit["old"]["unknown"].as_bool(), Some(true));
    assert_eq!(hit["new"]["decimal"].as_str(), Some("90"));
    assert_eq!(hit["new"]["unknown"].as_bool(), None);

    client.detach().unwrap();
    server.shutdown();
    let _ = service.shutdown();
}
