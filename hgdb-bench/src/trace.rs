//! Instrumentation for the traced run.
//!
//! Spans are recorded only from the benchmark's own code: around each
//! call it makes into a layer's public function, and inside [`Timed`],
//! a `SimControl` wrapper that splits the backend's share out of every
//! runtime call. Per-cycle backend calls are far too frequent for one
//! span each, so the wrapper counts them and the benchmark attaches
//! them to the enclosing runtime span as aggregated child spans (one
//! per backend operation, carrying the call count and total time).
//! Spans stay in memory until the run ends.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use bits::{Bits, Bits4};
use rtl_sim::{HierNode, SignalId, SimControl, SimError, Simulator, Snapshot};
use vcd::ReplaySim;

/// One recorded span. Spans of one request share `req`; `count`
/// carries the call count of an aggregated child span, or a size the
/// span's operation produced (bytes, cycles moved back).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread: `(id, req)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off (the untraced rounds run with it
/// off and record nothing).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A span that has been opened but not yet recorded.
pub struct Open {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
}

/// Opens a span under the current thread's innermost open span; a span
/// with no parent starts a new request id. `None` when tracing is off.
pub fn open(name: &'static str) -> Option<Open> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, req) = STACK.with(|s| s.borrow().last().copied().unwrap_or((0, id)));
    STACK.with(|s| s.borrow_mut().push((id, req)));
    Some(Open {
        id,
        parent,
        req,
        name,
        start_ns: now_ns(),
    })
}

/// Closes a span opened with [`open`], annotating it with `count`.
pub fn close(open: Option<Open>, count: u64) {
    let Some(open) = open else { return };
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    push(Span {
        id: open.id,
        parent: open.parent,
        req: open.req,
        name: open.name,
        start_ns: open.start_ns,
        end_ns,
        count,
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = open(name);
    let out = f();
    close(open, 0);
    out
}

/// Records backend work done during the still-open span `parent` as
/// aggregated child spans, one per backend operation that ran.
pub fn backend_children(parent: &Option<Open>, c: &Counters, replay: bool) {
    let Some(parent) = parent else { return };
    let (step, read, set_time) = if replay {
        ("vcd.step", "vcd.read", "vcd.set_time")
    } else {
        ("sim.step", "sim.read", "sim.set_time")
    };
    for (name, count, ns) in [
        (step, c.steps, c.step_ns),
        (read, c.reads, c.read_ns_estimate()),
        ("sim.snapshot", c.snapshots, c.snapshot_ns),
        ("sim.restore", c.restores, c.restore_ns),
        (set_time, c.set_times, c.set_time_ns),
    ] {
        if count > 0 {
            aggregate(parent, name, count, ns);
        }
    }
}

/// Records `count` calls totalling `ns` as one child span of `parent`.
pub fn aggregate(parent: &Open, name: &'static str, count: u64, ns: u64) {
    let end_ns = now_ns();
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: parent.id,
        req: parent.req,
        name,
        start_ns: end_ns.saturating_sub(ns),
        end_ns,
        count,
    });
}

fn push(span: Span) {
    SPANS
        .lock()
        .expect("span store poisoned by a panicking thread")
        .push(span);
}

/// Takes every recorded span out of the store.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span store poisoned by a panicking thread"),
    )
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, s.count
        )?;
    }
    out.flush()
}

/// Spans indexed for self-time queries.
pub struct Analysis {
    spans: Vec<Span>,
    child_ns: HashMap<u64, u64>,
    names: HashMap<u64, &'static str>,
}

impl Analysis {
    pub fn new(spans: Vec<Span>) -> Analysis {
        let mut child_ns = HashMap::new();
        let names = spans.iter().map(|s| (s.id, s.name)).collect();
        for s in &spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_insert(0) += s.dur_ns();
            }
        }
        Analysis {
            spans,
            child_ns,
            names,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time (duration minus the time its child spans cover) of
    /// every span named `name`, in ns.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| {
                s.dur_ns()
                    .saturating_sub(self.child_ns.get(&s.id).copied().unwrap_or(0))
                    as f64
            })
            .collect()
    }

    /// Durations of every span named `name`, in ns.
    pub fn dur_ns(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns() as f64).collect()
    }

    /// The `count` annotations of every span named `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.count as f64).collect()
    }

    /// `(calls, ns)` summed over child spans named `child` whose parent
    /// is named one of `parents`.
    pub fn children(&self, parents: &[&str], child: &str) -> (u64, u64) {
        self.named(child)
            .filter(|s| {
                self.names
                    .get(&s.parent)
                    .is_some_and(|p| parents.contains(p))
            })
            .fold((0, 0), |(c, ns), s| (c + s.count, ns + s.dur_ns()))
    }

    /// Total self time of spans named `name`, in ns.
    pub fn total_self_ns(&self, name: &str) -> f64 {
        self.self_ns(name).iter().sum()
    }
}

/// Backend call counts and times accumulated by [`Timed`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counters {
    pub steps: u64,
    pub step_ns: u64,
    pub reads: u64,
    /// Reads are timed one in [`READ_SAMPLE`]; these are the timed ones.
    pub timed_reads: u64,
    pub timed_read_ns: u64,
    pub snapshots: u64,
    pub snapshot_ns: u64,
    pub restores: u64,
    pub restore_ns: u64,
    pub set_times: u64,
    pub set_time_ns: u64,
}

impl Counters {
    /// Field-wise `self - before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            steps: self.steps - before.steps,
            step_ns: self.step_ns - before.step_ns,
            reads: self.reads - before.reads,
            timed_reads: self.timed_reads - before.timed_reads,
            timed_read_ns: self.timed_read_ns - before.timed_read_ns,
            snapshots: self.snapshots - before.snapshots,
            snapshot_ns: self.snapshot_ns - before.snapshot_ns,
            restores: self.restores - before.restores,
            restore_ns: self.restore_ns - before.restore_ns,
            set_times: self.set_times - before.set_times,
            set_time_ns: self.set_time_ns - before.set_time_ns,
        }
    }

    /// Estimated time in reads: the read count times the mean of the
    /// sampled read times.
    pub fn read_ns_estimate(&self) -> u64 {
        self.reads * self.timed_read_ns / self.timed_reads.max(1)
    }
}

/// Reads are cheap enough that timing each one would distort them;
/// one in this many is timed.
const READ_SAMPLE: u64 = 64;

/// A `SimControl` backend that times every call it forwards.
#[derive(Debug)]
pub struct Timed<S> {
    inner: S,
    c: Cell<Counters>,
}

impl<S> Timed<S> {
    pub fn new(inner: S) -> Timed<S> {
        Timed {
            inner,
            c: Cell::new(Counters::default()),
        }
    }

    fn read<R>(&self, f: impl FnOnce() -> R) -> R {
        let mut c = self.c.get();
        c.reads += 1;
        if c.reads.is_multiple_of(READ_SAMPLE) {
            let t = Instant::now();
            let out = f();
            c.timed_reads += 1;
            c.timed_read_ns += t.elapsed().as_nanos() as u64;
            self.c.set(c);
            out
        } else {
            self.c.set(c);
            f()
        }
    }

    fn count_snapshot(&self, started: Instant) {
        let mut c = self.c.get();
        c.snapshots += 1;
        c.snapshot_ns += started.elapsed().as_nanos() as u64;
        self.c.set(c);
    }

    fn timed_mut<R>(
        &mut self,
        f: impl FnOnce(&mut S) -> R,
        add: impl FnOnce(&mut Counters, u64),
    ) -> R {
        let t = Instant::now();
        let out = f(&mut self.inner);
        let mut c = self.c.get();
        add(&mut c, t.elapsed().as_nanos() as u64);
        self.c.set(c);
        out
    }
}

impl<S: SimControl> SimControl for Timed<S> {
    fn get_value(&self, path: &str) -> Option<Bits> {
        self.read(|| self.inner.get_value(path))
    }

    fn signal_id(&self, path: &str) -> Option<SignalId> {
        self.inner.signal_id(path)
    }

    fn get_value_by_id(&self, id: SignalId) -> Option<Bits> {
        self.read(|| self.inner.get_value_by_id(id))
    }

    fn is_four_state(&self) -> bool {
        self.inner.is_four_state()
    }

    fn get_value4(&self, path: &str) -> Option<Bits4> {
        self.read(|| self.inner.get_value4(path))
    }

    fn get_value4_by_id(&self, id: SignalId) -> Option<Bits4> {
        self.read(|| self.inner.get_value4_by_id(id))
    }

    fn hierarchy(&self) -> HierNode {
        self.inner.hierarchy()
    }

    fn clock_path(&self) -> String {
        self.inner.clock_path()
    }

    fn step_clock(&mut self) -> bool {
        self.timed_mut(S::step_clock, |c, ns| {
            c.steps += 1;
            c.step_ns += ns;
        })
    }

    fn time(&self) -> u64 {
        self.inner.time()
    }

    fn set_time(&mut self, time: u64) -> Result<(), SimError> {
        self.timed_mut(
            |s| s.set_time(time),
            |c, ns| {
                c.set_times += 1;
                c.set_time_ns += ns;
            },
        )
    }

    fn set_value(&mut self, path: &str, value: Bits) -> Result<(), SimError> {
        self.inner.set_value(path, value)
    }

    fn supports_reverse(&self) -> bool {
        self.inner.supports_reverse()
    }

    // Only captures that happened count: a backend without snapshots
    // (the trace) declines every auto-checkpoint attempt.
    fn save_snapshot(&self) -> Option<Snapshot> {
        let t = Instant::now();
        let snap = self.inner.save_snapshot();
        if snap.is_some() {
            self.count_snapshot(t);
        }
        snap
    }

    fn save_snapshot_into(&self, out: &mut Snapshot) -> bool {
        let t = Instant::now();
        let saved = self.inner.save_snapshot_into(out);
        if saved {
            self.count_snapshot(t);
        }
        saved
    }

    fn load_snapshot(&mut self, snap: &Snapshot) -> Result<(), SimError> {
        self.timed_mut(
            |s| s.load_snapshot(snap),
            |c, ns| {
                c.restores += 1;
                c.restore_ns += ns;
            },
        )
    }

    fn signal_paths(&self) -> Vec<String> {
        self.inner.signal_paths()
    }
}

/// What the benchmark reads from a backend besides `SimControl`.
pub trait Probe {
    /// Backend counters (zero for an untimed backend).
    fn counters(&self) -> Counters {
        Counters::default()
    }

    /// The live simulator underneath, when there is one.
    fn live(&self) -> Option<&Simulator> {
        None
    }
}

impl Probe for Simulator {
    fn live(&self) -> Option<&Simulator> {
        Some(self)
    }
}

impl Probe for ReplaySim {}

impl<S: Probe> Probe for Timed<S> {
    fn counters(&self) -> Counters {
        self.c.get()
    }

    fn live(&self) -> Option<&Simulator> {
        self.inner.live()
    }
}

/// Which backends a round runs on: bare (untraced) or wrapped in
/// [`Timed`] (traced).
pub trait Mode: 'static {
    /// Whether the benchmark's own loops time their calls too.
    const TRACED: bool;
    type Live: SimControl + Probe + Send + 'static;
    type Replay: SimControl + Probe + Send + 'static;
    fn live(sim: Simulator) -> Self::Live;
    fn replay(sim: ReplaySim) -> Self::Replay;
}

/// Untraced rounds: the program's own backends.
pub struct Plain;

impl Mode for Plain {
    const TRACED: bool = false;
    type Live = Simulator;
    type Replay = ReplaySim;
    fn live(sim: Simulator) -> Simulator {
        sim
    }
    fn replay(sim: ReplaySim) -> ReplaySim {
        sim
    }
}

/// Traced rounds: backends wrapped in [`Timed`].
pub struct Traced;

impl Mode for Traced {
    const TRACED: bool = true;
    type Live = Timed<Simulator>;
    type Replay = Timed<ReplaySim>;
    fn live(sim: Simulator) -> Timed<Simulator> {
        Timed::new(sim)
    }
    fn replay(sim: ReplaySim) -> Timed<ReplaySim> {
        Timed::new(sim)
    }
}
