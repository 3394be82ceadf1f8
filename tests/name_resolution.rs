//! Each consumer of a source-level name resolves it in its own order,
//! and the runtime's shared symbol index must not merge them:
//!
//! * `eval` and `set_variable`: the instance's generator variable, then
//!   `{instance}.{name}`, then `name` as an absolute path;
//! * breakpoint enables and conditions: `{instance}.{name}`, then the
//!   absolute path (generator variables are not consulted);
//! * watches: the first of the `eval` candidates that carries a value
//!   when the watch is inserted, kept from then on.
//!
//! The symbol table maps generator variables to differently named RTL
//! signals, so every order gives a different answer. The backend is a
//! table of named values, run both with and without interning (id
//! reads and path reads).

use bits::Bits;
use hgdb::{DebugError, RunOutcome, Runtime};
use rtl_sim::{HierNode, SignalId, SimControl, SimError};
use symtab::SymbolTable;

/// Named values; a `None` value is a known signal with nothing to read
/// yet.
struct Board {
    signals: Vec<(String, Option<Bits>)>,
    interns: bool,
    time: u64,
}

impl Board {
    fn new(interns: bool, signals: &[(&str, Option<u64>)]) -> Board {
        Board {
            signals: signals
                .iter()
                .map(|(name, v)| (name.to_string(), v.map(|v| Bits::from_u64(v, 8))))
                .collect(),
            interns,
            time: 0,
        }
    }

    fn position(&self, path: &str) -> Option<usize> {
        self.signals.iter().position(|(name, _)| name == path)
    }
}

impl SimControl for Board {
    fn get_value(&self, path: &str) -> Option<Bits> {
        self.signals[self.position(path)?].1.clone()
    }

    fn signal_id(&self, path: &str) -> Option<SignalId> {
        self.position(path)
            .filter(|_| self.interns)
            .map(SignalId::from_index)
    }

    fn get_value_by_id(&self, id: SignalId) -> Option<Bits> {
        self.signals[id.index()].1.clone()
    }

    fn hierarchy(&self) -> HierNode {
        HierNode::new("top")
    }

    fn clock_path(&self) -> String {
        "top.clock".into()
    }

    fn step_clock(&mut self) -> bool {
        self.time += 1;
        true
    }

    fn time(&self) -> u64 {
        self.time
    }

    fn set_time(&mut self, _time: u64) -> Result<(), SimError> {
        Err(SimError::TimeTravel("forward only".into()))
    }

    fn set_value(&mut self, path: &str, value: Bits) -> Result<(), SimError> {
        let i = self
            .position(path)
            .ok_or_else(|| SimError::UnknownSignal(path.to_owned()))?;
        self.signals[i].1 = Some(value);
        Ok(())
    }
}

/// Instance `top.u0`: generator variables `cnt → top.u0.cnt_q`,
/// `en → top.u0.en_q` and `w → top.u0.w_q`; a breakpoint at
/// `gen.rs:3` enabled by `en` with the local `count → top.u0.cnt`, and
/// an unconditional one at `gen.rs:5`.
fn symbols() -> SymbolTable {
    let mut st = SymbolTable::new();
    st.add_instance(0, "top").unwrap();
    st.add_instance(1, "top.u0").unwrap();
    for (id, path) in [
        (0, "top.u0.cnt_q"),
        (1, "top.u0.en_q"),
        (2, "top.u0.w_q"),
        (3, "top.u0.cnt"),
    ] {
        st.add_variable(id, path).unwrap();
    }
    st.add_generator_variable(0, 1, "cnt", 0).unwrap();
    st.add_generator_variable(1, 1, "en", 1).unwrap();
    st.add_generator_variable(2, 1, "w", 2).unwrap();
    st.add_breakpoint(0, "gen.rs", 3, 1, Some("en"), 1).unwrap();
    st.add_scope_variable(0, 0, "count", 3).unwrap();
    st.add_breakpoint(1, "gen.rs", 5, 1, None, 1).unwrap();
    st
}

fn runtime(interns: bool) -> Runtime<Board> {
    let board = Board::new(
        interns,
        &[
            // `cnt`: generator variable 7, instance-relative 5, absolute 3.
            ("top.u0.cnt_q", Some(7)),
            ("top.u0.cnt", Some(5)),
            ("cnt", Some(3)),
            // `lvl`: no generator variable.
            ("top.u0.lvl", Some(11)),
            ("lvl", Some(13)),
            // `abs`: absolute only.
            ("abs", Some(17)),
            // `en`: only the instance-relative signal is true.
            ("top.u0.en_q", Some(0)),
            ("top.u0.en", Some(1)),
            ("en", Some(0)),
            // `w`: the generator variable's signal has no value yet.
            ("top.u0.w_q", None),
            ("top.u0.w", Some(19)),
        ],
    );
    Runtime::attach(board, symbols()).unwrap()
}

fn eval(rt: &Runtime<Board>, instance: Option<&str>, name: &str) -> u64 {
    rt.eval(instance, name)
        .unwrap_or_else(|e| panic!("eval {name}: {e}"))
        .to_known()
        .expect("two-state")
        .to_u64()
}

fn value(rt: &Runtime<Board>, path: &str) -> Option<u64> {
    rt.sim().get_value(path).map(|v| v.to_u64())
}

/// Whether a breakpoint at `gen.rs:5` with `condition` stops the next
/// cycle.
fn condition_holds(rt: &mut Runtime<Board>, condition: &str) -> bool {
    let ids = rt
        .insert_breakpoint("gen.rs", 5, None, Some(condition))
        .unwrap();
    let outcome = rt.continue_run(Some(1)).unwrap();
    for id in ids {
        rt.remove_breakpoint(id).unwrap();
    }
    matches!(outcome, RunOutcome::Stopped(_))
}

fn check_orders(interns: bool) {
    let mut rt = runtime(interns);
    let u0 = Some("top.u0");

    // eval: generator variable, then instance-relative, then absolute.
    assert_eq!(eval(&rt, u0, "cnt"), 7);
    assert_eq!(eval(&rt, u0, "lvl"), 11);
    assert_eq!(eval(&rt, u0, "abs"), 17);
    assert_eq!(
        eval(&rt, u0, "w"),
        19,
        "a generator variable without a value"
    );
    assert_eq!(eval(&rt, None, "cnt"), 3);

    // Enable: `en` is true only instance-relative, so stepping stops at
    // gen.rs:3 rather than skipping to gen.rs:5.
    let RunOutcome::Stopped(stop) = rt.step(Some(1)).unwrap() else {
        panic!("step found no active statement");
    };
    assert_eq!(stop.line, 3, "the enable read the instance-relative signal");
    let frame = &stop.hits[0];
    assert_eq!(frame.local("count").unwrap().value().to_u64(), 5);
    assert_eq!(frame.generator_var("cnt").unwrap().value().to_u64(), 7);
    assert!(frame.generator_var("w").is_none());

    // Conditions: instance-relative, then absolute; never the generator
    // variable.
    assert!(condition_holds(&mut rt, "cnt == 5"));
    assert!(!condition_holds(&mut rt, "cnt == 7"));
    assert!(!condition_holds(&mut rt, "cnt == 3"));
    assert!(condition_holds(&mut rt, "lvl == 11"));
    assert!(condition_holds(&mut rt, "abs == 17"));

    // Watches bind the first candidate with a value at insert: `cnt`
    // the generator variable, `w` the instance-relative signal, since
    // `top.u0.w_q` has none yet.
    let watch_cnt = rt.insert_watchpoint(u0, "cnt").unwrap();
    let watch_w = rt.insert_watchpoint(u0, "w").unwrap();
    let listed: Vec<(i64, u64)> = rt
        .watchpoints()
        .iter()
        .map(|w| (w.id, w.value.to_known().unwrap().to_u64()))
        .collect();
    assert_eq!(listed, vec![(watch_cnt, 7), (watch_w, 19)]);
    rt.sim_mut()
        .set_value("top.u0.w_q", Bits::from_u64(23, 8))
        .unwrap();
    rt.sim_mut()
        .set_value("top.u0.cnt", Bits::from_u64(6, 8))
        .unwrap();
    assert_eq!(
        eval(&rt, u0, "w"),
        23,
        "eval now finds the generator variable"
    );
    assert!(
        matches!(
            rt.continue_run(Some(2)).unwrap(),
            RunOutcome::Finished { .. }
        ),
        "neither watch reads the signals that changed"
    );
    rt.sim_mut()
        .set_value("top.u0.w", Bits::from_u64(20, 8))
        .unwrap();
    let RunOutcome::Stopped(stop) = rt.continue_run(Some(2)).unwrap() else {
        panic!("the watch on w did not fire");
    };
    assert_eq!(stop.watch_hits.len(), 1);
    assert_eq!(stop.watch_hits[0].id, watch_w);
    assert_eq!(stop.watch_hits[0].new.to_known().unwrap().to_u64(), 20);

    // set_variable: generator variable, then instance-relative, then
    // the name as given; an unknown instance is an error.
    rt.set_variable(u0, "cnt", Bits::from_u64(9, 8)).unwrap();
    assert_eq!(value(&rt, "top.u0.cnt_q"), Some(9));
    assert_eq!(value(&rt, "top.u0.cnt"), Some(6));
    rt.set_variable(u0, "lvl", Bits::from_u64(21, 8)).unwrap();
    assert_eq!(value(&rt, "top.u0.lvl"), Some(21));
    assert_eq!(value(&rt, "lvl"), Some(13));
    rt.set_variable(None, "abs", Bits::from_u64(25, 8)).unwrap();
    assert_eq!(value(&rt, "abs"), Some(25));
    assert!(matches!(
        rt.set_variable(Some("top.nope"), "cnt", Bits::from_u64(1, 8)),
        Err(DebugError::NoSuchInstance(_))
    ));
}

#[test]
fn resolution_orders_by_id() {
    check_orders(true);
}

#[test]
fn resolution_orders_by_path() {
    check_orders(false);
}
