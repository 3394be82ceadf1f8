//! The checker: every output compared with its ISS-derived expectation
//! or with a property the method must have, and a self-test that feeds
//! it one wrong expectation per check kind.

use std::fmt::Debug;
use std::sync::Mutex;

/// The kinds of check the benchmark makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// `halted` rises at ECALL + 1, not before.
    HaltCycle,
    /// `tohost` (per core) equals the ISS's a0 at ECALL.
    Tohost,
    /// Armed and loop-head runs stop exactly at the cycles the ISS
    /// predicts for each condition, watch and the ECALL breakpoint.
    StopCycles,
    /// Frame values at a stop (pc, retired count) equal the ISS's.
    StopValues,
    /// `eval` of generator variables equals the ISS's values.
    EvalValues,
    /// Bare and armed runs reach identical state at the same cycle.
    NonPerturb,
    /// `reverse_continue` lands on the previous forward stop. A miss
    /// counts the operation as failed rather than the run as wrong.
    ReverseLands,
    /// A `continue` after `reverse_continue` returns to the same stop.
    ContinueReturns,
    /// `step`/`reverse_step` land on the next/previous active statement.
    StepTarget,
    /// The viewer receives exactly one broadcast per stop, equal to it.
    Broadcast,
    /// Replayed values equal the live run's at every stop.
    ReplayLive,
}

impl Check {
    pub const ALL: [Check; 11] = [
        Check::HaltCycle,
        Check::Tohost,
        Check::StopCycles,
        Check::StopValues,
        Check::EvalValues,
        Check::NonPerturb,
        Check::ReverseLands,
        Check::ContinueReturns,
        Check::StepTarget,
        Check::Broadcast,
        Check::ReplayLive,
    ];
}

/// Collected check outcomes; shared by the threads of a session.
#[derive(Debug, Default)]
pub struct Checker {
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    passed: u64,
    failures: Vec<(Check, String)>,
}

impl Checker {
    /// Records whether `actual` equals `expected`; returns whether it did.
    pub fn eq<T: PartialEq + Debug>(
        &self,
        kind: Check,
        what: &str,
        expected: T,
        actual: T,
    ) -> bool {
        let ok = expected == actual;
        let mut state = self
            .state
            .lock()
            .expect("checker poisoned by a panicking thread");
        if ok {
            state.passed += 1;
        } else {
            state.failures.push((
                kind,
                format!("{what}: expected {expected:?}, got {actual:?}"),
            ));
        }
        ok
    }

    /// Records a failure that has no expectation to compare (a request
    /// that errored where it must succeed).
    pub fn fail(&self, kind: Check, what: String) {
        self.state
            .lock()
            .expect("checker poisoned by a panicking thread")
            .failures
            .push((kind, what));
    }

    pub fn passed(&self) -> u64 {
        self.state
            .lock()
            .expect("checker poisoned by a panicking thread")
            .passed
    }

    pub fn failures(&self) -> Vec<(Check, String)> {
        self.state
            .lock()
            .expect("checker poisoned by a panicking thread")
            .failures
            .clone()
    }
}

/// The check kind the self-test is currently sabotaging.
static SABOTAGE: Mutex<Option<Check>> = Mutex::new(None);

/// True exactly once while the self-test sabotages `kind`: the site
/// that forms the first expectation of that kind then makes it wrong.
pub fn wrong(kind: Check) -> bool {
    let mut s = SABOTAGE.lock().expect("sabotage flag poisoned");
    if *s == Some(kind) {
        *s = None;
        true
    } else {
        false
    }
}

pub fn sabotage(kind: Option<Check>) {
    *SABOTAGE.lock().expect("sabotage flag poisoned") = kind;
}

/// Whether the armed sabotage was consumed (its site was reached).
pub fn sabotage_consumed() -> bool {
    SABOTAGE.lock().expect("sabotage flag poisoned").is_none()
}
