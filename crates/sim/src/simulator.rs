//! The live zero-delay cycle simulator.
//!
//! One [`Simulator::step_clock`] call advances to the next rising clock
//! edge: the previous cycle's register/memory updates are committed,
//! then the combinational sweep runs to the zero-delay fixpoint, then
//! clock-edge callbacks fire with every signal stable — the exact hook
//! point hgdb's breakpoint emulation relies on (§3, §3.1). The fixed,
//! small cost of an empty callback per cycle is what Figure 5 measures.
//!
//! # Evaluation engine
//!
//! Combinational logic runs as compiled bytecode (see
//! [`crate::compile`]) over a dense value array, driven by an
//! **incremental dirty set**: every state change (poke, register
//! commit, memory write) marks only the direct fan-out of the changed
//! slot, and the levelized sweep walks marked definitions in
//! topological order, propagating onward only when a definition's
//! output actually changed. A one-input poke on a large design
//! therefore costs O(changed cone), not O(design) — and a cycle where
//! nothing changes (a halted core) costs almost nothing.
//!
//! Hot callers should resolve paths once via [`Simulator::signal_id`]
//! and use [`Simulator::peek_id`] / [`Simulator::poke_id`]; the
//! string-keyed entry points remain for interactive use.

use std::cell::{Cell, RefCell};

use bits::{Bits, Bits4};
use hgf_ir::Circuit;

use crate::compile::{exec, exec4, Planes};
use crate::control::{HierNode, SignalId, SimControl, SimError};
use crate::netlist::{FlatNetlist, FlatReg, MemState};

/// Evaluation-engine configuration for [`Simulator`].
///
/// ```
/// use rtl_sim::SimConfig;
///
/// let cfg = SimConfig::default().four_state();
/// assert!(cfg.four_state);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Worker threads asked for. No engine code reads this field: the
    /// simulator has one sequential sweep, which runs on the calling
    /// thread whatever the value. `Default` sets 1; the field remains
    /// only because the `hgdb-bench` benchmark prints it among the
    /// defaults in force.
    pub workers: usize,
    /// Four-state (X/Z) evaluation. When `false` (the default) the
    /// simulator runs the exact two-state engine — no unknown planes
    /// are allocated and the hot path is untouched. When `true`, every
    /// signal carries a value/unknown plane pair: registers power up
    /// all-X until reset resolves them, inputs read X until first
    /// poked, and undriven nets stay X forever.
    pub four_state: bool,
}

impl SimConfig {
    /// Returns `self` with four-state (X/Z) evaluation enabled.
    pub fn four_state(mut self) -> SimConfig {
        self.four_state = true;
        self
    }
}

impl Default for SimConfig {
    /// The two-state engine.
    fn default() -> SimConfig {
        SimConfig {
            workers: 1,
            four_state: false,
        }
    }
}

/// Identifier for a registered clock callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallbackId(usize);

/// Callback invoked at each rising clock edge with all signals stable.
pub type ClockCallback = Box<dyn FnMut(&ClockView<'_>) + Send>;

/// Read-only view of the simulator handed to clock callbacks.
///
/// Callbacks observe the stable pre-edge state; mutation during a
/// callback would violate the zero-delay stability contract.
pub struct ClockView<'a> {
    sim: &'a Simulator,
}

impl ClockView<'_> {
    /// The value of a signal by full path.
    pub fn get_value(&self, path: &str) -> Option<Bits> {
        self.sim.peek_path(path)
    }

    /// The value of a signal by interned id — the fast path for
    /// per-cycle instrumentation (resolve the id once outside the
    /// callback with [`Simulator::signal_id`]).
    pub fn get_value_id(&self, id: SignalId) -> Bits {
        self.sim.peek_id(id)
    }

    /// Four-state value of a signal by interned id. In a two-state
    /// simulator every bit reads as known.
    pub fn get_value4_id(&self, id: SignalId) -> Bits4 {
        self.sim.peek4_id(id)
    }

    /// Whether this simulator runs the four-state (X/Z) engine.
    pub fn is_four_state(&self) -> bool {
        self.sim.is_four_state()
    }

    /// Resolves a path to an id (same interning as the simulator).
    pub fn signal_id(&self, path: &str) -> Option<SignalId> {
        self.sim.signal_id(path)
    }

    /// Current simulation time (cycles).
    pub fn time(&self) -> u64 {
        self.sim.time()
    }
}

/// Which combinational definitions need re-evaluation, tracked per
/// def in topological order. `min` bounds the sweep's starting point;
/// `count` makes the all-clean check O(1).
#[derive(Debug)]
struct DirtySet {
    flags: Vec<bool>,
    count: usize,
    min: usize,
}

impl DirtySet {
    fn mark(&mut self, def: u32) {
        let di = def as usize;
        if !self.flags[di] {
            self.flags[di] = true;
            self.count += 1;
            if di < self.min {
                self.min = di;
            }
        }
    }
}

/// A compiled, runnable design.
pub struct Simulator {
    netlist: FlatNetlist,
    values: RefCell<Vec<Bits>>,
    /// Unknown plane per signal, parallel to `values` and kept in
    /// X-normal form (`values[i] | unks[i] == values[i]`). Empty in
    /// two-state mode — the default engine never allocates or touches
    /// it.
    unks: RefCell<Vec<Bits>>,
    mems: RefCell<Vec<MemState>>,
    /// Unknown plane per memory word, parallel to `mems[i].words`.
    /// Empty in two-state mode.
    munks: RefCell<Vec<Vec<Bits>>>,
    dirty: RefCell<DirtySet>,
    /// Scratch operand stack for the bytecode evaluator, preallocated
    /// to the program's exact worst-case depth.
    stack: RefCell<Vec<Bits>>,
    /// Four-state twin of `stack`; empty in two-state mode.
    stack4: RefCell<Vec<Bits4>>,
    /// Total combinational definitions executed (instrumentation; the
    /// incremental-evaluation regression tests assert on this).
    evals: Cell<u64>,
    time: u64,
    /// Register/memory updates latched at the current clock edge from
    /// the then-stable values; committed when the next edge begins.
    /// Latching (rather than recomputing at commit time) keeps the
    /// edge deterministic even if the testbench pokes inputs while
    /// paused at the edge. The buffers are reused across cycles.
    pending_regs: Vec<(usize, Bits)>,
    pending_mems: Vec<(usize, usize, Bits)>,
    /// Four-state twins of the pending buffers; used instead of the
    /// two-state pair when `four_state` is set.
    pending_regs4: Vec<(usize, Bits4)>,
    pending_mems4: Vec<(usize, usize, Bits4)>,
    started: bool,
    callbacks: Vec<(CallbackId, ClockCallback)>,
    next_callback: usize,
    /// Whether this simulator runs the four-state engine.
    four_state: bool,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("signals", &self.netlist.names.len())
            .field("regs", &self.netlist.regs.len())
            .field("mems", &self.netlist.mems.len())
            .field("time", &self.time)
            .finish()
    }
}

impl Simulator {
    /// Compiles a Low-form circuit into a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on validation failures or combinational
    /// loops.
    pub fn new(circuit: &Circuit) -> Result<Simulator, SimError> {
        Simulator::with_config(circuit, SimConfig::default())
    }

    /// Compiles a Low-form circuit with an explicit engine
    /// configuration (two- or four-state).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on validation failures or combinational
    /// loops.
    pub fn with_config(circuit: &Circuit, config: SimConfig) -> Result<Simulator, SimError> {
        let netlist = FlatNetlist::build(circuit)?;
        let four = config.four_state;
        // Four-state power-up: every signal all-X (X-normal form keeps
        // the value plane at ones wherever the unknown plane is set).
        // Memories power up known-zero — a documented simplification
        // matching the two-state engine's word arrays.
        let values: Vec<Bits> = netlist
            .widths
            .iter()
            .map(|&w| if four { Bits::ones(w) } else { Bits::zero(w) })
            .collect();
        let unks: Vec<Bits> = if four {
            netlist.widths.iter().map(|&w| Bits::ones(w)).collect()
        } else {
            Vec::new()
        };
        let munks: Vec<Vec<Bits>> = if four {
            netlist
                .mems
                .iter()
                .map(|m| vec![Bits::zero(m.width); m.words.len()])
                .collect()
        } else {
            Vec::new()
        };
        let n_defs = netlist.defs.len();
        let sim = Simulator {
            mems: RefCell::new(netlist.mems.clone()),
            values: RefCell::new(values),
            unks: RefCell::new(unks),
            munks: RefCell::new(munks),
            stack: RefCell::new(Vec::with_capacity(netlist.program.max_stack)),
            stack4: RefCell::new(Vec::with_capacity(if four {
                netlist.program.max_stack
            } else {
                0
            })),
            netlist,
            dirty: RefCell::new(DirtySet {
                // Everything is dirty before the first sweep.
                flags: vec![true; n_defs],
                count: n_defs,
                min: 0,
            }),
            evals: Cell::new(0),
            time: 0,
            pending_regs: Vec::new(),
            pending_mems: Vec::new(),
            pending_regs4: Vec::new(),
            pending_mems4: Vec::new(),
            started: false,
            callbacks: Vec::new(),
            next_callback: 0,
            four_state: four,
        };
        // Registers start at their reset value when they have one — in
        // two-state mode only. The four-state engine powers registers
        // up all-X; the init value loads when reset is asserted (and
        // known true), which is exactly what the mode exists to check.
        if !four {
            let mut values = sim.values.borrow_mut();
            for reg in &sim.netlist.regs {
                if let Some(init) = &reg.init {
                    values[reg.sig] = init.clone();
                }
            }
        }
        Ok(sim)
    }

    /// Number of flattened signals.
    pub fn signal_count(&self) -> usize {
        self.netlist.names.len()
    }

    /// Interns a full signal path, returning the dense id used by the
    /// `*_id` fast paths. Ids are stable for the simulator's lifetime
    /// (and across simulators built from the same circuit).
    pub fn signal_id(&self, path: &str) -> Option<SignalId> {
        self.netlist
            .index
            .get(path)
            .map(|&i| SignalId::from_index(i))
    }

    /// Marks the direct combinational fan-out of a signal slot dirty.
    fn mark_sig(&self, sig: usize) {
        let fanout = &self.netlist.sig_fanout[sig];
        if fanout.is_empty() {
            return;
        }
        let mut dirty = self.dirty.borrow_mut();
        for &di in fanout {
            dirty.mark(di);
        }
    }

    /// Writes a pokeable slot: resize, change-detect, mark fan-out.
    /// Pokes always carry fully-known values; in four-state mode the
    /// slot's unknown plane is cleared (this is how an X input
    /// resolves).
    fn poke_sig(&mut self, sig: usize, value: Bits) {
        let width = self.netlist.widths[sig];
        let value = value.resize(width);
        {
            let mut values = self.values.borrow_mut();
            let unk_cleared = if self.is_four_state() {
                let mut unks = self.unks.borrow_mut();
                if unks[sig].is_zero() {
                    false
                } else {
                    unks[sig] = Bits::zero(width);
                    true
                }
            } else {
                false
            };
            if values[sig] == value && !unk_cleared {
                return;
            }
            values[sig] = value;
        }
        self.mark_sig(sig);
    }

    /// Whether this simulator runs the four-state (X/Z) engine.
    pub fn is_four_state(&self) -> bool {
        self.four_state
    }

    /// Sets a top-level input port by full path (e.g. `top.data0`).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] / [`SimError::NotWritable`] if the
    /// path is not a top-level input.
    pub fn poke(&mut self, path: &str, value: Bits) -> Result<(), SimError> {
        let &sig = self
            .netlist
            .index
            .get(path)
            .ok_or_else(|| SimError::UnknownSignal(path.to_owned()))?;
        if !self.netlist.is_input[sig] {
            return Err(SimError::NotWritable(path.to_owned()));
        }
        self.poke_sig(sig, value);
        Ok(())
    }

    /// Id-based [`Simulator::poke`] (no string lookup).
    ///
    /// # Errors
    ///
    /// [`SimError::NotWritable`] if the signal is not a top-level
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this design.
    pub fn poke_id(&mut self, id: SignalId, value: Bits) -> Result<(), SimError> {
        let sig = id.index();
        if !self.netlist.is_input[sig] {
            return Err(SimError::NotWritable(self.netlist.names[sig].clone()));
        }
        self.poke_sig(sig, value);
        Ok(())
    }

    /// Reads any signal by full path, evaluating combinational logic
    /// first if inputs changed.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] for unknown paths.
    pub fn peek(&self, path: &str) -> Result<Bits, SimError> {
        self.peek_path(path)
            .ok_or_else(|| SimError::UnknownSignal(path.to_owned()))
    }

    /// Id-based [`Simulator::peek`] (no string lookup, no `Result`).
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this design.
    pub fn peek_id(&self, id: SignalId) -> Bits {
        self.eval_if_dirty();
        self.values.borrow()[id.index()].clone()
    }

    fn peek_path(&self, path: &str) -> Option<Bits> {
        let &sig = self.netlist.index.get(path)?;
        self.eval_if_dirty();
        Some(self.values.borrow()[sig].clone())
    }

    /// Four-state [`Simulator::peek`]: the value with its unknown
    /// plane. On a two-state simulator every bit reads as known.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] for unknown paths.
    pub fn peek4(&self, path: &str) -> Result<Bits4, SimError> {
        self.peek_path4(path)
            .ok_or_else(|| SimError::UnknownSignal(path.to_owned()))
    }

    /// Id-based [`Simulator::peek4`].
    ///
    /// # Panics
    ///
    /// Panics if the id does not come from this design.
    pub fn peek4_id(&self, id: SignalId) -> Bits4 {
        self.eval_if_dirty();
        let sig = id.index();
        let val = self.values.borrow()[sig].clone();
        if self.is_four_state() {
            Bits4::from_planes(val, self.unks.borrow()[sig].clone())
        } else {
            Bits4::known(val)
        }
    }

    fn peek_path4(&self, path: &str) -> Option<Bits4> {
        let &sig = self.netlist.index.get(path)?;
        Some(self.peek4_id(SignalId::from_index(sig)))
    }

    /// Reads a memory word (debug/testbench convenience; memories are
    /// not part of the signal namespace).
    pub fn peek_mem(&self, mem_path: &str, addr: usize) -> Option<Bits> {
        let &idx = self.netlist.mem_index.get(mem_path)?;
        self.mems.borrow().get(idx)?.words.get(addr).cloned()
    }

    /// Four-state [`Simulator::peek_mem`]: the word with its unknown
    /// plane.
    pub fn peek_mem4(&self, mem_path: &str, addr: usize) -> Option<Bits4> {
        let &idx = self.netlist.mem_index.get(mem_path)?;
        let word = self.mems.borrow().get(idx)?.words.get(addr).cloned()?;
        if self.is_four_state() {
            let unk = self.munks.borrow()[idx][addr].clone();
            Some(Bits4::from_planes(word.or(&unk), unk))
        } else {
            Some(Bits4::known(word))
        }
    }

    /// Writes a memory word directly (program loading in testbenches).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownSignal`] for bad memory paths or addresses.
    pub fn poke_mem(&mut self, mem_path: &str, addr: usize, value: Bits) -> Result<(), SimError> {
        let &idx = self
            .netlist
            .mem_index
            .get(mem_path)
            .ok_or_else(|| SimError::UnknownSignal(mem_path.to_owned()))?;
        let changed = {
            let mut mems = self.mems.borrow_mut();
            let mem = &mut mems[idx];
            let width = mem.width;
            let slot = mem
                .words
                .get_mut(addr)
                .ok_or_else(|| SimError::UnknownSignal(format!("{mem_path}[{addr}]")))?;
            let value = value.resize(width);
            if *slot == value {
                false
            } else {
                *slot = value;
                true
            }
        };
        // Direct writes are fully known: clear the word's unknown
        // plane in four-state mode.
        let munk_cleared = if self.is_four_state() {
            let mut munks = self.munks.borrow_mut();
            let slot = &mut munks[idx][addr];
            if slot.is_zero() {
                false
            } else {
                *slot = Bits::zero(slot.width());
                true
            }
        } else {
            false
        };
        if changed || munk_cleared {
            self.mark_mem(idx);
        }
        Ok(())
    }

    /// Marks every reader of a memory dirty.
    fn mark_mem(&self, mem: usize) {
        let fanout = &self.netlist.mem_fanout[mem];
        if fanout.is_empty() {
            return;
        }
        let mut dirty = self.dirty.borrow_mut();
        for &di in fanout {
            dirty.mark(di);
        }
    }

    /// Registers a rising-clock-edge callback; fires with all signals
    /// stable (the hgdb hook of §3.3, "place callbacks on clock
    /// changes").
    pub fn add_clock_callback(&mut self, callback: ClockCallback) -> CallbackId {
        let id = CallbackId(self.next_callback);
        self.next_callback += 1;
        self.callbacks.push((id, callback));
        id
    }

    /// Removes a callback; returns whether it existed.
    pub fn remove_clock_callback(&mut self, id: CallbackId) -> bool {
        let before = self.callbacks.len();
        self.callbacks.retain(|(cid, _)| *cid != id);
        self.callbacks.len() != before
    }

    /// Runs `cycles` clock cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step_clock();
        }
    }

    /// Asserts reset for `cycles` cycles, then deasserts it. Pokes the
    /// reset slot by index — no path lookup.
    pub fn reset(&mut self, cycles: u64) {
        let reset = self.netlist.reset;
        self.poke_sig(reset, Bits::from_bool(true));
        self.run(cycles);
        self.poke_sig(reset, Bits::from_bool(false));
    }

    /// Total combinational definitions executed so far
    /// (instrumentation: the incremental-evaluation tests and
    /// benchmark harnesses read this to verify poke cost is
    /// O(fan-out cone), not O(design)).
    pub fn defs_evaluated(&self) -> u64 {
        self.evals.get()
    }

    /// Runs the incremental sweep to the zero-delay fixpoint, in the
    /// two- or four-state engine.
    fn eval_if_dirty(&self) {
        if self.dirty.borrow().count == 0 {
            return;
        }
        if self.is_four_state() {
            self.eval4_sequential();
        } else {
            self.eval_sequential();
        }
    }

    /// The sweep: marked definitions execute in topological order; a
    /// definition whose output is unchanged does not wake its fan-out.
    fn eval_sequential(&self) {
        let mut dirty = self.dirty.borrow_mut();
        let mut values = self.values.borrow_mut();
        let mems = self.mems.borrow();
        let mut stack = self.stack.borrow_mut();
        let nl = &self.netlist;
        let n = nl.defs.len();
        let mut evals = self.evals.get();
        let mut di = dirty.min;
        while di < n && dirty.count > 0 {
            if dirty.flags[di] {
                dirty.flags[di] = false;
                dirty.count -= 1;
                let def = &nl.defs[di];
                let new = exec(&nl.program, def.code, values.as_slice(), &mems, &mut stack);
                evals += 1;
                if values[def.sig] != new {
                    values[def.sig] = new;
                    // Fan-out defs are topologically later, so the
                    // forward sweep will reach them this pass.
                    for &f in &nl.sig_fanout[def.sig] {
                        dirty.mark(f);
                    }
                }
            }
            di += 1;
        }
        dirty.min = n;
        debug_assert_eq!(dirty.count, 0, "sweep left dirty defs behind");
        dirty.count = 0;
        self.evals.set(evals);
    }

    /// Four-state twin of [`Simulator::eval_sequential`]: identical
    /// schedule and change-pruning, with the unknown plane carried
    /// alongside every value. On a fully-driven design the unknown
    /// planes stay zero and the sweep visits exactly the defs the
    /// two-state engine would.
    fn eval4_sequential(&self) {
        let mut dirty = self.dirty.borrow_mut();
        let mut values = self.values.borrow_mut();
        let mut unks = self.unks.borrow_mut();
        let mems = self.mems.borrow();
        let munks = self.munks.borrow();
        let mut stack4 = self.stack4.borrow_mut();
        let nl = &self.netlist;
        let n = nl.defs.len();
        let mut evals = self.evals.get();
        let mut di = dirty.min;
        while di < n && dirty.count > 0 {
            if dirty.flags[di] {
                dirty.flags[di] = false;
                dirty.count -= 1;
                let def = &nl.defs[di];
                let src = Planes {
                    vals: values.as_slice(),
                    unks: unks.as_slice(),
                };
                let new = exec4(&nl.program, def.code, &src, &mems, &munks, &mut stack4);
                evals += 1;
                if values[def.sig] != *new.value() || unks[def.sig] != *new.unknown() {
                    values[def.sig] = new.value().clone();
                    unks[def.sig] = new.unknown().clone();
                    for &f in &nl.sig_fanout[def.sig] {
                        dirty.mark(f);
                    }
                }
            }
            di += 1;
        }
        dirty.min = n;
        debug_assert_eq!(dirty.count, 0, "sweep left dirty defs behind");
        dirty.count = 0;
        self.evals.set(evals);
    }

    /// Latches register updates and memory writes from the current
    /// stable values (non-blocking semantics). Committed at the start
    /// of the next clock edge.
    fn latch_edge(&mut self) {
        self.eval_if_dirty();
        if self.is_four_state() {
            self.latch_edge4();
            return;
        }
        let Simulator {
            netlist,
            values,
            mems,
            stack,
            pending_regs,
            pending_mems,
            ..
        } = self;
        let values = values.borrow();
        let mems = mems.borrow();
        let mut stack = stack.borrow_mut();
        let reset = values[netlist.reset].is_truthy();
        pending_regs.clear();
        pending_mems.clear();
        let vals: &[Bits] = values.as_slice();
        let mems_slice: &[MemState] = mems.as_slice();
        for reg in &netlist.regs {
            let next = eval_reg_next(netlist, reg, reset, vals, mems_slice, &mut stack);
            pending_regs.push((reg.sig, next));
        }
        if !reset {
            for w in &netlist.writes {
                if exec(&netlist.program, w.en, vals, mems_slice, &mut stack).is_truthy() {
                    let addr = exec(&netlist.program, w.addr, vals, mems_slice, &mut stack).to_u64()
                        as usize;
                    let data = exec(&netlist.program, w.data, vals, mems_slice, &mut stack);
                    pending_mems.push((w.mem, addr, data));
                }
            }
        }
    }

    /// Four-state twin of [`Simulator::latch_edge`]. Reset is
    /// three-valued here:
    ///
    /// * known true — registers with an init load it; write ports are
    ///   disabled (matching two-state).
    /// * known false — normal next-value evaluation; write ports run.
    /// * unknown — every register latches all-X and write ports are
    ///   skipped (memory holds), the conservative reading.
    ///
    /// A write port whose enable is unknown clobbers the addressed
    /// word with all-X (it *might* have written); an unknown address
    /// writes nothing — a documented simplification (a strict
    /// interpretation would X the entire memory).
    fn latch_edge4(&mut self) {
        let Simulator {
            netlist,
            values,
            unks,
            mems,
            munks,
            stack4,
            pending_regs4,
            pending_mems4,
            ..
        } = self;
        let values = values.borrow();
        let unks = unks.borrow();
        let mems = mems.borrow();
        let munks = munks.borrow();
        let mut stack4 = stack4.borrow_mut();
        let src = Planes {
            vals: values.as_slice(),
            unks: unks.as_slice(),
        };
        let mems_slice: &[MemState] = mems.as_slice();
        let munks_slice: &[Vec<Bits>] = munks.as_slice();
        let reset = Bits4::from_planes(values[netlist.reset].clone(), unks[netlist.reset].clone())
            .truthiness();
        pending_regs4.clear();
        pending_mems4.clear();
        for reg in &netlist.regs {
            let next = eval_reg_next4(
                netlist,
                reg,
                reset,
                &src,
                mems_slice,
                munks_slice,
                &mut stack4,
            );
            pending_regs4.push((reg.sig, next));
        }
        if reset == Some(false) {
            for w in &netlist.writes {
                let en = exec4(
                    &netlist.program,
                    w.en,
                    &src,
                    mems_slice,
                    munks_slice,
                    &mut stack4,
                );
                let en = en.truthiness();
                if en == Some(false) {
                    continue;
                }
                let addr4 = exec4(
                    &netlist.program,
                    w.addr,
                    &src,
                    mems_slice,
                    munks_slice,
                    &mut stack4,
                );
                let Some(addr) = addr4.to_known().map(|a| a.to_u64() as usize) else {
                    continue;
                };
                let data = if en == Some(true) {
                    exec4(
                        &netlist.program,
                        w.data,
                        &src,
                        mems_slice,
                        munks_slice,
                        &mut stack4,
                    )
                } else {
                    Bits4::all_x(netlist.mems[w.mem].width)
                };
                pending_mems4.push((w.mem, addr, data));
            }
        }
    }

    /// Commits the updates latched at the previous edge, marking the
    /// fan-out of slots that actually changed.
    fn commit_edge(&mut self) {
        if self.is_four_state() {
            self.commit_edge4();
            return;
        }
        if self.pending_regs.is_empty() && self.pending_mems.is_empty() {
            return;
        }
        let Simulator {
            netlist,
            values,
            mems,
            dirty,
            pending_regs,
            pending_mems,
            ..
        } = self;
        {
            let mut values = values.borrow_mut();
            let mut dirty = dirty.borrow_mut();
            for (sig, v) in pending_regs.drain(..) {
                if values[sig] != v {
                    values[sig] = v;
                    for &f in &netlist.sig_fanout[sig] {
                        dirty.mark(f);
                    }
                }
            }
        }
        let mut mems = mems.borrow_mut();
        let mut dirty = dirty.borrow_mut();
        for (mem, addr, data) in pending_mems.drain(..) {
            let width = mems[mem].width;
            if let Some(slot) = mems[mem].words.get_mut(addr) {
                let data = data.resize(width);
                if *slot != data {
                    *slot = data;
                    for &f in &netlist.mem_fanout[mem] {
                        dirty.mark(f);
                    }
                }
            }
        }
    }

    /// Four-state twin of [`Simulator::commit_edge`]: drains the
    /// [`Bits4`] pending buffers, change-detecting on both planes.
    fn commit_edge4(&mut self) {
        if self.pending_regs4.is_empty() && self.pending_mems4.is_empty() {
            return;
        }
        let Simulator {
            netlist,
            values,
            unks,
            mems,
            munks,
            dirty,
            pending_regs4,
            pending_mems4,
            ..
        } = self;
        {
            let mut values = values.borrow_mut();
            let mut unks = unks.borrow_mut();
            let mut dirty = dirty.borrow_mut();
            for (sig, v4) in pending_regs4.drain(..) {
                if values[sig] != *v4.value() || unks[sig] != *v4.unknown() {
                    values[sig] = v4.value().clone();
                    unks[sig] = v4.unknown().clone();
                    for &f in &netlist.sig_fanout[sig] {
                        dirty.mark(f);
                    }
                }
            }
        }
        let mut mems = mems.borrow_mut();
        let mut munks = munks.borrow_mut();
        let mut dirty = dirty.borrow_mut();
        for (mem, addr, data) in pending_mems4.drain(..) {
            let width = mems[mem].width;
            if let Some(slot) = mems[mem].words.get_mut(addr) {
                let data = data.resize(width);
                let uslot = &mut munks[mem][addr];
                if *slot != *data.value() || *uslot != *data.unknown() {
                    *slot = data.value().clone();
                    *uslot = data.unknown().clone();
                    for &f in &netlist.mem_fanout[mem] {
                        dirty.mark(f);
                    }
                }
            }
        }
    }

    /// Internal names accessor for trace writers.
    pub fn signal_names(&self) -> &[String] {
        &self.netlist.names
    }

    /// Width of a signal by full path.
    pub fn signal_width(&self, path: &str) -> Option<u32> {
        self.netlist
            .index
            .get(path)
            .map(|&i| self.netlist.widths[i])
    }

    /// Width of a signal by id.
    pub fn signal_width_id(&self, id: SignalId) -> u32 {
        self.netlist.widths[id.index()]
    }

    /// The full path of the implicit reset input.
    pub fn reset_path(&self) -> &str {
        &self.netlist.names[self.netlist.reset]
    }

    /// Captures a deterministic full-state [`Snapshot`].
    ///
    /// Every bit of mutable simulation state is copied: signal values,
    /// memory contents, the pending register/memory latch buffers
    /// (non-blocking updates latched at the last edge but not yet
    /// committed), the incremental dirty set, and the time / eval
    /// counters. Clock callbacks are *not* captured — they are runtime
    /// hooks, not simulation state.
    ///
    /// [`Simulator::restore`] of this snapshot followed by replaying
    /// the same stimulus is bit-identical to an uninterrupted run —
    /// including the [`Simulator::defs_evaluated`] counter — because
    /// the sweep is deterministic and the snapshot preserves the exact
    /// dirty frontier.
    pub fn snapshot(&self) -> Snapshot {
        let dirty = self.dirty.borrow();
        Snapshot {
            values: self.values.borrow().clone(),
            unks: self.unks.borrow().clone(),
            mems: self.mems.borrow().clone(),
            munks: self.munks.borrow().clone(),
            dirty_flags: dirty.flags.clone(),
            dirty_count: dirty.count,
            dirty_min: dirty.min,
            pending_regs: self.pending_regs.clone(),
            pending_mems: self.pending_mems.clone(),
            pending_regs4: self.pending_regs4.clone(),
            pending_mems4: self.pending_mems4.clone(),
            evals: self.evals.get(),
            time: self.time,
            started: self.started,
        }
    }

    /// Captures a snapshot into `out`, reusing its buffers.
    ///
    /// Equivalent to `*out = self.snapshot()` but without reallocating
    /// when shapes match: a checkpoint ring that recycles evicted
    /// snapshots as capture buffers keeps steady-state auto-
    /// checkpointing allocation-free, so the per-capture cost is a
    /// flat copy instead of an allocator round-trip (large snapshot
    /// buffers otherwise go through mmap/munmap and re-fault their
    /// pages on every capture).
    pub fn snapshot_into(&self, out: &mut Snapshot) {
        out.values.clone_from(&self.values.borrow());
        {
            let mems = self.mems.borrow();
            out.mems.truncate(mems.len());
            for (dst, src) in out.mems.iter_mut().zip(mems.iter()) {
                dst.width = src.width;
                dst.words.clone_from(&src.words);
            }
            let common = out.mems.len();
            for src in mems.iter().skip(common) {
                out.mems.push(src.clone());
            }
        }
        {
            let dirty = self.dirty.borrow();
            out.dirty_flags.clone_from(&dirty.flags);
            out.dirty_count = dirty.count;
            out.dirty_min = dirty.min;
        }
        out.unks.clone_from(&self.unks.borrow());
        out.munks.clone_from(&self.munks.borrow());
        out.pending_regs.clone_from(&self.pending_regs);
        out.pending_mems.clone_from(&self.pending_mems);
        out.pending_regs4.clone_from(&self.pending_regs4);
        out.pending_mems4.clone_from(&self.pending_mems4);
        out.evals = self.evals.get();
        out.time = self.time;
        out.started = self.started;
    }

    /// Restores a [`Snapshot`] previously captured from a simulator
    /// built from the same circuit, rewinding (or fast-forwarding)
    /// every piece of mutable state to the captured instant.
    ///
    /// # Errors
    ///
    /// [`SimError::Build`] when the snapshot's shape does not match
    /// this design (it was captured from a different circuit).
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SimError> {
        if snap.values.len() != self.netlist.names.len()
            || snap.mems.len() != self.netlist.mems.len()
            || snap.dirty_flags.len() != self.netlist.defs.len()
        {
            return Err(SimError::Build(
                "snapshot does not match this design".into(),
            ));
        }
        // Unknown planes are only populated in four-state snapshots;
        // the two kinds of simulator cannot exchange state.
        if snap.unks.len() != self.unks.borrow().len()
            || snap.munks.len() != self.munks.borrow().len()
        {
            return Err(SimError::Build(
                "snapshot four-state mode does not match this simulator".into(),
            ));
        }
        *self.values.borrow_mut() = snap.values.clone();
        *self.unks.borrow_mut() = snap.unks.clone();
        *self.mems.borrow_mut() = snap.mems.clone();
        *self.munks.borrow_mut() = snap.munks.clone();
        {
            let mut dirty = self.dirty.borrow_mut();
            dirty.flags.clone_from(&snap.dirty_flags);
            dirty.count = snap.dirty_count;
            dirty.min = snap.dirty_min;
        }
        self.pending_regs.clone_from(&snap.pending_regs);
        self.pending_mems.clone_from(&snap.pending_mems);
        self.pending_regs4.clone_from(&snap.pending_regs4);
        self.pending_mems4.clone_from(&snap.pending_mems4);
        self.evals.set(snap.evals);
        self.time = snap.time;
        self.started = snap.started;
        Ok(())
    }
}

/// A deterministic full-state snapshot of a [`Simulator`].
///
/// Opaque: captured with [`Simulator::snapshot`], reapplied with
/// [`Simulator::restore`], and only valid for simulators built from
/// the same circuit. The debugger's checkpoint ring stores these and
/// budgets them by [`Snapshot::approx_bytes`].
#[derive(Clone)]
pub struct Snapshot {
    values: Vec<Bits>,
    /// Per-signal unknown planes; empty for two-state snapshots.
    unks: Vec<Bits>,
    mems: Vec<MemState>,
    /// Per-memory-word unknown planes; empty for two-state snapshots.
    munks: Vec<Vec<Bits>>,
    dirty_flags: Vec<bool>,
    dirty_count: usize,
    dirty_min: usize,
    pending_regs: Vec<(usize, Bits)>,
    pending_mems: Vec<(usize, usize, Bits)>,
    pending_regs4: Vec<(usize, Bits4)>,
    pending_mems4: Vec<(usize, usize, Bits4)>,
    evals: u64,
    time: u64,
    started: bool,
}

impl Snapshot {
    /// Simulation time (cycle count) at which the snapshot was taken.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Approximate heap footprint in bytes — the sizing input for a
    /// bounded checkpoint ring. Wide (> 64-bit) values add their word
    /// storage on top of the inline representation.
    pub fn approx_bytes(&self) -> usize {
        fn bits_bytes(b: &Bits) -> usize {
            let heap = if b.width() > 64 {
                (b.width() as usize).div_ceil(8)
            } else {
                0
            };
            std::mem::size_of::<Bits>() + heap
        }
        let values: usize = self.values.iter().map(bits_bytes).sum::<usize>()
            + self.unks.iter().map(bits_bytes).sum::<usize>();
        let mems: usize = self
            .mems
            .iter()
            .map(|m| m.words.iter().map(bits_bytes).sum::<usize>())
            .sum::<usize>()
            + self
                .munks
                .iter()
                .map(|m| m.iter().map(bits_bytes).sum::<usize>())
                .sum::<usize>();
        let pending: usize = self
            .pending_regs
            .iter()
            .map(|(_, b)| bits_bytes(b) + std::mem::size_of::<usize>())
            .sum::<usize>()
            + self
                .pending_mems
                .iter()
                .map(|(_, _, b)| bits_bytes(b) + 2 * std::mem::size_of::<usize>())
                .sum::<usize>();
        values + mems + pending + self.dirty_flags.len() + std::mem::size_of::<Snapshot>()
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("time", &self.time)
            .field("signals", &self.values.len())
            .field("mems", &self.mems.len())
            .field("approx_bytes", &self.approx_bytes())
            .finish()
    }
}

/// Next value of one register at the edge: reset loads the init value
/// when there is one; otherwise the compiled next expression (or hold).
fn eval_reg_next(
    netlist: &FlatNetlist,
    reg: &FlatReg,
    reset: bool,
    values: &[Bits],
    mems: &[MemState],
    stack: &mut Vec<Bits>,
) -> Bits {
    if reset {
        if let Some(init) = &reg.init {
            return init.clone();
        }
    }
    match reg.next {
        Some(code) => exec(&netlist.program, code, values, mems, stack),
        None => values[reg.sig].clone(),
    }
}

/// Four-state next value of one register at the edge. Mirrors
/// [`eval_reg_next`] for a known reset (so fully-driven designs match
/// the two-state engine bit for bit); an unknown reset latches all-X —
/// the register's next state genuinely cannot be known.
fn eval_reg_next4(
    netlist: &FlatNetlist,
    reg: &FlatReg,
    reset: Option<bool>,
    values: &Planes<'_>,
    mems: &[MemState],
    munks: &[Vec<Bits>],
    stack: &mut Vec<Bits4>,
) -> Bits4 {
    match reset {
        None => return Bits4::all_x(netlist.widths[reg.sig]),
        Some(true) => {
            if let Some(init) = &reg.init {
                return Bits4::known(init.clone());
            }
            // No init: like the two-state engine, the register ignores
            // reset and follows its next expression (that is the bug
            // class lint L006 flags — and exactly what an X sweep
            // makes visible).
        }
        Some(false) => {}
    }
    match reg.next {
        Some(code) => exec4(&netlist.program, code, values, mems, munks, stack),
        None => values.get4(reg.sig),
    }
}

impl SimControl for Simulator {
    fn get_value(&self, path: &str) -> Option<Bits> {
        self.peek_path(path)
    }

    fn signal_id(&self, path: &str) -> Option<SignalId> {
        Simulator::signal_id(self, path)
    }

    fn get_value_by_id(&self, id: SignalId) -> Option<Bits> {
        Some(self.peek_id(id))
    }

    fn is_four_state(&self) -> bool {
        Simulator::is_four_state(self)
    }

    fn get_value4(&self, path: &str) -> Option<Bits4> {
        self.peek_path4(path)
    }

    fn get_value4_by_id(&self, id: SignalId) -> Option<Bits4> {
        Some(self.peek4_id(id))
    }

    fn hierarchy(&self) -> HierNode {
        self.netlist.hierarchy.clone()
    }

    fn clock_path(&self) -> String {
        format!("{}.clock", self.netlist.hierarchy.name)
    }

    fn step_clock(&mut self) -> bool {
        if self.started {
            self.commit_edge();
        }
        self.started = true;
        self.eval_if_dirty();
        self.latch_edge();
        self.time += 1;
        // Fire callbacks with stable signals (rising edge).
        if !self.callbacks.is_empty() {
            let mut callbacks = std::mem::take(&mut self.callbacks);
            for (_, cb) in &mut callbacks {
                cb(&ClockView { sim: self });
            }
            // Callbacks registered during iteration (rare) are appended.
            callbacks.append(&mut self.callbacks);
            self.callbacks = callbacks;
        }
        true
    }

    fn time(&self) -> u64 {
        self.time
    }

    fn set_time(&mut self, time: u64) -> Result<(), SimError> {
        use std::cmp::Ordering;
        match time.cmp(&self.time) {
            Ordering::Equal => Ok(()),
            Ordering::Greater => {
                while self.time < time {
                    self.step_clock();
                }
                Ok(())
            }
            Ordering::Less => Err(SimError::TimeTravel(
                "live simulation cannot rewind; use the replay backend".into(),
            )),
        }
    }

    fn set_value(&mut self, path: &str, value: Bits) -> Result<(), SimError> {
        let &sig = self
            .netlist
            .index
            .get(path)
            .ok_or_else(|| SimError::UnknownSignal(path.to_owned()))?;
        let is_input = self.netlist.is_input[sig];
        let is_reg = self.netlist.is_reg[sig];
        if !is_input && !is_reg {
            return Err(SimError::NotWritable(path.to_owned()));
        }
        let value = value.resize(self.netlist.widths[sig]);
        self.poke_sig(sig, value.clone());
        if is_reg {
            // Make the force survive the edge already latched at the
            // current stop point.
            for (psig, pv) in &mut self.pending_regs {
                if *psig == sig {
                    *pv = value.clone();
                }
            }
            for (psig, pv) in &mut self.pending_regs4 {
                if *psig == sig {
                    *pv = Bits4::known(value.clone());
                }
            }
        }
        Ok(())
    }

    fn supports_reverse(&self) -> bool {
        false
    }

    fn save_snapshot(&self) -> Option<Snapshot> {
        Some(self.snapshot())
    }

    fn save_snapshot_into(&self, out: &mut Snapshot) -> bool {
        self.snapshot_into(out);
        true
    }

    fn load_snapshot(&mut self, snap: &Snapshot) -> Result<(), SimError> {
        self.restore(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgf::CircuitBuilder;
    use hgf_ir::passes;

    /// Elaborate + lower a generator to a simulator.
    fn build(f: impl FnOnce(&mut CircuitBuilder), top: &str) -> Simulator {
        build_with(f, top, SimConfig::default())
    }

    /// Elaborate + lower with an explicit engine config.
    fn build_with(f: impl FnOnce(&mut CircuitBuilder), top: &str, config: SimConfig) -> Simulator {
        let mut cb = CircuitBuilder::new();
        f(&mut cb);
        let circuit = cb.finish(top).unwrap();
        let mut state = hgf_ir::CircuitState::new(circuit);
        passes::compile(&mut state, false).unwrap();
        Simulator::with_config(&state.circuit, config).unwrap()
    }

    fn counter_design(cb: &mut CircuitBuilder) {
        cb.module("counter", |m| {
            let en = m.input("en", 1);
            let out = m.output("out", 8);
            let count = m.reg("count", 8, Some(0));
            m.when(en, |m| {
                m.assign(&count, count.sig() + m.lit(1, 8));
            });
            m.assign(&out, count.sig());
        });
    }

    fn counter_sim() -> Simulator {
        build(counter_design, "counter")
    }

    #[test]
    fn counter_counts_when_enabled() {
        let mut sim = counter_sim();
        sim.poke("counter.en", Bits::from_bool(true)).unwrap();
        sim.step_clock();
        assert_eq!(sim.peek("counter.out").unwrap().to_u64(), 0);
        sim.step_clock();
        assert_eq!(sim.peek("counter.out").unwrap().to_u64(), 1);
        sim.run(10);
        assert_eq!(sim.peek("counter.out").unwrap().to_u64(), 11);
        // Disable: holds.
        sim.poke("counter.en", Bits::from_bool(false)).unwrap();
        sim.run(5);
        assert_eq!(sim.peek("counter.out").unwrap().to_u64(), 12);
    }

    #[test]
    fn reset_reloads_init() {
        let mut sim = counter_sim();
        sim.poke("counter.en", Bits::from_bool(true)).unwrap();
        sim.run(5);
        assert!(sim.peek("counter.out").unwrap().to_u64() > 0);
        sim.reset(2);
        sim.step_clock();
        // After reset deasserts, counting restarts from 0.
        let v = sim.peek("counter.out").unwrap().to_u64();
        assert!(v <= 1, "count was {v}");
    }

    #[test]
    fn combinational_peek_after_poke() {
        let mut sim = build(
            |cb| {
                cb.module("adder", |m| {
                    let a = m.input("a", 8);
                    let b = m.input("b", 8);
                    let out = m.output("out", 8);
                    m.assign(&out, a + b);
                });
            },
            "adder",
        );
        sim.poke("adder.a", Bits::from_u64(3, 8)).unwrap();
        sim.poke("adder.b", Bits::from_u64(4, 8)).unwrap();
        // No clock needed for pure comb.
        assert_eq!(sim.peek("adder.out").unwrap().to_u64(), 7);
    }

    #[test]
    fn id_based_poke_peek() {
        let mut sim = build(
            |cb| {
                cb.module("adder", |m| {
                    let a = m.input("a", 8);
                    let b = m.input("b", 8);
                    let out = m.output("out", 8);
                    m.assign(&out, a + b);
                });
            },
            "adder",
        );
        let a = sim.signal_id("adder.a").unwrap();
        let b = sim.signal_id("adder.b").unwrap();
        let out = sim.signal_id("adder.out").unwrap();
        assert!(sim.signal_id("adder.ghost").is_none());
        sim.poke_id(a, Bits::from_u64(20, 8)).unwrap();
        sim.poke_id(b, Bits::from_u64(22, 8)).unwrap();
        assert_eq!(sim.peek_id(out).to_u64(), 42);
        assert_eq!(sim.signal_width_id(out), 8);
        // Ids are not writable when the slot is not an input.
        assert!(matches!(
            sim.poke_id(out, Bits::from_u64(1, 8)),
            Err(SimError::NotWritable(_))
        ));
        // Trait surface agrees.
        assert_eq!(SimControl::get_value_by_id(&sim, out).unwrap().to_u64(), 42);
        assert_eq!(SimControl::signal_id(&sim, "adder.out"), Some(out));
    }

    #[test]
    fn poke_only_evaluates_fanout_cone() {
        // Two independent cones: poking one input must not re-execute
        // the other cone's definitions.
        let mut sim = build(
            |cb| {
                cb.module("split", |m| {
                    let a = m.input("a", 8);
                    let b = m.input("b", 8);
                    let x = m.output("x", 8);
                    let y = m.output("y", 8);
                    // Cone A: a few chained defs off `a`.
                    let a1 = m.node("a1", a.clone() + m.lit(1, 8));
                    let a2 = m.node("a2", a1 ^ m.lit(0x5A, 8));
                    m.assign(&x, a2);
                    // Cone B: chained defs off `b`.
                    let b1 = m.node("b1", b.clone() + m.lit(2, 8));
                    let b2 = m.node("b2", b1 & m.lit(0x0F, 8));
                    m.assign(&y, b2);
                });
            },
            "split",
        );
        // Settle the initial full sweep.
        let _ = sim.peek("split.x").unwrap();
        let baseline = sim.defs_evaluated();

        // Poke cone A's input: only cone A defs (a1, a2, x — three
        // defs) may run; cone B (b1, b2, y) must stay untouched.
        sim.poke("split.a", Bits::from_u64(7, 8)).unwrap();
        assert_eq!(sim.peek("split.x").unwrap().to_u64(), (7u64 + 1) ^ 0x5A);
        let after_a = sim.defs_evaluated();
        assert!(
            after_a - baseline <= 3,
            "poke of one input executed {} defs (cone is 3)",
            after_a - baseline
        );

        // Poking the same value again is change-pruned: zero evals.
        sim.poke("split.a", Bits::from_u64(7, 8)).unwrap();
        let _ = sim.peek("split.x").unwrap();
        assert_eq!(sim.defs_evaluated(), after_a, "unchanged poke re-evaluated");

        // Cone B still correct (and now costs only its own cone).
        sim.poke("split.b", Bits::from_u64(3, 8)).unwrap();
        assert_eq!(sim.peek("split.y").unwrap().to_u64(), (3 + 2) & 0x0F);
        assert!(sim.defs_evaluated() - after_a <= 3);
    }

    #[test]
    fn change_pruning_stops_propagation() {
        // reduce_or(a) is 1 for most values of a; changing a from one
        // nonzero value to another must not re-execute the defs
        // downstream of the reduction.
        let mut sim = build(
            |cb| {
                cb.module("prune", |m| {
                    let a = m.input("a", 8);
                    let out = m.output("out", 4);
                    let nz = m.node("nz", a.reduce_or());
                    let wide = m.node("wide", nz.zext(4));
                    m.assign(&out, wide);
                });
            },
            "prune",
        );
        sim.poke("prune.a", Bits::from_u64(1, 8)).unwrap();
        assert_eq!(sim.peek("prune.out").unwrap().to_u64(), 1);
        let settled = sim.defs_evaluated();
        sim.poke("prune.a", Bits::from_u64(2, 8)).unwrap();
        assert_eq!(sim.peek("prune.out").unwrap().to_u64(), 1);
        // Only `nz` re-executed; its output was unchanged, so `wide`
        // and `out` stayed quiet.
        assert_eq!(sim.defs_evaluated() - settled, 1);
    }

    #[test]
    fn halted_design_cycles_are_quiet() {
        // Once a counter is disabled, its register stops changing and
        // step_clock stops re-evaluating combinational defs.
        let mut sim = counter_sim();
        sim.poke("counter.en", Bits::from_bool(false)).unwrap();
        sim.run(2); // settle
        let settled = sim.defs_evaluated();
        sim.run(10);
        assert_eq!(
            sim.defs_evaluated(),
            settled,
            "quiescent design still evaluating defs"
        );
    }

    #[test]
    fn hierarchy_and_instance_values() {
        let mut sim = build(
            |cb| {
                let child = cb.module("adder", |m| {
                    let a = m.input("a", 8);
                    let b = m.input("b", 8);
                    let sum = m.output("sum", 8);
                    m.assign(&sum, a + b);
                });
                cb.module("top", |m| {
                    let x = m.input("x", 8);
                    let out = m.output("out", 8);
                    let u0 = m.instance("u0", &child);
                    m.assign(&u0.input("a"), x.clone());
                    m.assign(&u0.input("b"), x);
                    m.assign(&out, u0.port("sum"));
                });
            },
            "top",
        );
        sim.poke("top.x", Bits::from_u64(21, 8)).unwrap();
        assert_eq!(sim.peek("top.out").unwrap().to_u64(), 42);
        assert_eq!(sim.peek("top.u0.sum").unwrap().to_u64(), 42);
        let hier = sim.hierarchy();
        assert_eq!(hier.name, "top");
        assert!(hier.child("u0").is_some());
        assert!(hier.child("u0").unwrap().signals.contains(&"sum".into()));
    }

    #[test]
    fn memory_write_then_read() {
        let mut sim = build(
            |cb| {
                cb.module("ram", |m| {
                    let waddr = m.input("waddr", 4);
                    let wdata = m.input("wdata", 8);
                    let wen = m.input("wen", 1);
                    let raddr = m.input("raddr", 4);
                    let rdata = m.output("rdata", 8);
                    let mem = m.mem("mem", 8, 16);
                    let data = m.mem_read(&mem, "mem_out", raddr);
                    m.mem_write(&mem, waddr, wdata, wen);
                    m.assign(&rdata, data);
                });
            },
            "ram",
        );
        sim.poke("ram.waddr", Bits::from_u64(5, 4)).unwrap();
        sim.poke("ram.wdata", Bits::from_u64(0xAB, 8)).unwrap();
        sim.poke("ram.wen", Bits::from_bool(true)).unwrap();
        sim.step_clock(); // at edge 1: write scheduled
        sim.poke("ram.wen", Bits::from_bool(false)).unwrap();
        sim.step_clock(); // write committed
        sim.poke("ram.raddr", Bits::from_u64(5, 4)).unwrap();
        assert_eq!(sim.peek("ram.rdata").unwrap().to_u64(), 0xAB);
        assert_eq!(sim.peek_mem("ram.mem", 5).unwrap().to_u64(), 0xAB);
    }

    #[test]
    fn poke_mem_loads_programs() {
        let mut sim = build(
            |cb| {
                cb.module("rom", |m| {
                    let addr = m.input("addr", 4);
                    let data = m.output("data", 8);
                    let mem = m.mem("mem", 8, 16);
                    let out = m.mem_read(&mem, "mem_out", addr);
                    // A write port so DCE keeps nothing extra; tie off.
                    m.mem_write(&mem, m.lit(0, 4), m.lit(0, 8), m.lit(0, 1));
                    m.assign(&data, out);
                });
            },
            "rom",
        );
        sim.poke_mem("rom.mem", 3, Bits::from_u64(0x5A, 8)).unwrap();
        sim.poke("rom.addr", Bits::from_u64(3, 4)).unwrap();
        assert_eq!(sim.peek("rom.data").unwrap().to_u64(), 0x5A);
        // Unknown memory path errors.
        assert!(matches!(
            sim.poke_mem("rom.ghost", 0, Bits::from_u64(0, 8)),
            Err(SimError::UnknownSignal(_))
        ));
        assert!(sim.peek_mem("rom.ghost", 0).is_none());
    }

    #[test]
    fn callbacks_fire_with_stable_values() {
        use std::sync::{Arc, Mutex};
        let mut sim = counter_sim();
        sim.poke("counter.en", Bits::from_bool(true)).unwrap();
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let out_id = sim.signal_id("counter.out").unwrap();
        let id = sim.add_clock_callback(Box::new(move |view| {
            seen2
                .lock()
                .unwrap()
                .push(view.get_value_id(out_id).to_u64());
        }));
        sim.run(3);
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2]);
        assert!(sim.remove_clock_callback(id));
        assert!(!sim.remove_clock_callback(id));
        sim.run(1);
        assert_eq!(seen.lock().unwrap().len(), 3);
    }

    #[test]
    fn set_time_forward_only() {
        let mut sim = counter_sim();
        sim.poke("counter.en", Bits::from_bool(true)).unwrap();
        sim.set_time(5).unwrap();
        assert_eq!(sim.time(), 5);
        assert!(matches!(sim.set_time(2), Err(SimError::TimeTravel(_))));
        assert!(!sim.supports_reverse());
    }

    #[test]
    fn poke_rejects_non_inputs() {
        let mut sim = counter_sim();
        assert!(matches!(
            sim.poke("counter.out", Bits::from_u64(1, 8)),
            Err(SimError::NotWritable(_))
        ));
        assert!(matches!(
            sim.poke("counter.ghost", Bits::from_u64(1, 8)),
            Err(SimError::UnknownSignal(_))
        ));
    }

    #[test]
    fn set_value_can_force_registers() {
        let mut sim = counter_sim();
        sim.poke("counter.en", Bits::from_bool(false)).unwrap();
        sim.set_value("counter.count", Bits::from_u64(99, 8))
            .unwrap();
        assert_eq!(sim.peek("counter.out").unwrap().to_u64(), 99);
        // Comb nodes are not writable.
        let comb_err = sim.set_value("counter.out", Bits::from_u64(1, 8));
        assert!(matches!(comb_err, Err(SimError::NotWritable(_))));
    }

    #[test]
    fn combinational_loop_rejected() {
        // Loop through an instance boundary: child passes input to
        // output; parent feeds the output back into the input. Each
        // module validates locally, but flattening exposes the cycle.
        let mut cb = CircuitBuilder::new();
        let child = cb.module("pass", |m| {
            let i = m.input("i", 1);
            let o = m.output("o", 1);
            m.assign(&o, i);
        });
        cb.module("top", |m| {
            let out = m.output("out", 1);
            let u = m.instance("u", &child);
            m.assign(&u.input("i"), u.port("o"));
            m.assign(&out, u.port("o"));
        });
        let circuit = cb.finish("top").unwrap();
        let mut state = hgf_ir::CircuitState::new(circuit);
        passes::compile(&mut state, false).unwrap();
        assert!(matches!(
            Simulator::new(&state.circuit),
            Err(SimError::CombinationalLoop(_))
        ));
    }

    /// Circuit with several independent cones, a diamond, registers,
    /// and a memory.
    fn mixed_design(cb: &mut CircuitBuilder) {
        cb.module("mixed", |m| {
            let a = m.input("a", 16);
            let b = m.input("b", 16);
            let c = m.input("c", 16);
            let x = m.output("x", 16);
            let y = m.output("y", 16);
            let z = m.output("z", 16);
            let w = m.output("w", 16);
            // Cone A: a diamond.
            let a1 = m.node("a1", a.clone() + m.lit(1, 16));
            let a2 = m.node("a2", a ^ m.lit(0x5A5A, 16));
            let a3 = m.node("a3", a1 & a2);
            m.assign(&x, a3.clone());
            // Cone B: independent chain.
            let b1 = m.node("b1", b.clone() + b);
            let b2 = m.node("b2", b1 ^ m.lit(0x00FF, 16));
            m.assign(&y, b2.clone());
            // Registers fed by both cones.
            let r1 = m.reg("r1", 16, Some(0));
            let r2 = m.reg("r2", 16, Some(7));
            m.assign(&r1, a3 + r1.sig());
            m.assign(&r2, b2 ^ r2.sig());
            m.assign(&z, r1.sig() + r2.sig());
            // Memory written from cone C, read back combinationally.
            let mem = m.mem("scratch", 16, 16);
            let rd = m.mem_read(&mem, "scratch_out", c.slice(3, 0));
            m.mem_write(&mem, c.slice(3, 0), c.clone(), c.slice(15, 15));
            let c1 = m.node("c1", rd + m.lit(3, 16));
            m.assign(&w, c1);
        });
    }

    /// Drives a `mixed_design` simulator through a fixed stimulus and
    /// collects every signal value at each cycle plus the final eval
    /// counter.
    fn trace(sim: &mut Simulator) -> (Vec<Vec<Bits>>, u64) {
        let paths = sim.signal_paths();
        let mut frames = Vec::new();
        sim.reset(2);
        for t in 0..20u64 {
            mixed_stimulus(sim, t);
            sim.step_clock();
            frames.push(
                paths
                    .iter()
                    .map(|p| sim.peek(p).unwrap())
                    .collect::<Vec<_>>(),
            );
        }
        (frames, sim.defs_evaluated())
    }

    /// No engine code reads `SimConfig::workers`: a simulator asking
    /// for three workers runs the same sweep as the default one, bit
    /// for bit, with the same eval count and memory contents.
    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let mut seq = build(mixed_design, "mixed");
        let mut par = build_with(
            mixed_design,
            "mixed",
            SimConfig {
                workers: 3,
                ..SimConfig::default()
            },
        );
        let (seq_frames, seq_evals) = trace(&mut seq);
        let (par_frames, par_evals) = trace(&mut par);
        assert_eq!(seq_frames, par_frames, "signal divergence");
        assert_eq!(seq_evals, par_evals, "eval-count divergence");
        for addr in 0..16 {
            assert_eq!(
                seq.peek_mem("mixed.scratch", addr),
                par.peek_mem("mixed.scratch", addr)
            );
        }
    }

    /// Reset reloads register inits on the edge it deasserts, and the
    /// edge after that runs the next-value function again, whatever
    /// `workers` the configuration asks for.
    #[test]
    fn parallel_latch_respects_reset_semantics() {
        let config = SimConfig {
            workers: 2,
            four_state: false,
        };
        let mut sim = build_with(mixed_design, "mixed", config);
        sim.poke("mixed.a", Bits::from_u64(5, 16)).unwrap();
        sim.run(3);
        sim.reset(2);
        sim.step_clock();
        // r2's init is 7; the edge after reset deasserts shows it.
        assert_eq!(
            sim.peek("mixed.r2").unwrap().to_u64(),
            7,
            "r2 must restart from init after reset"
        );
        let b2 = sim.peek("mixed.b2").unwrap().to_u64();
        sim.step_clock();
        // One cycle later the normal next-value function runs again.
        assert_eq!(sim.peek("mixed.r2").unwrap().to_u64(), 7 ^ b2);
    }

    /// The default configuration is one worker on the two-state
    /// engine, and `four_state()` changes only the mode.
    #[test]
    fn sim_workers_env_shapes_default_config() {
        assert_eq!(
            SimConfig::default(),
            SimConfig {
                workers: 1,
                four_state: false,
            }
        );
        assert_eq!(
            SimConfig::default().four_state(),
            SimConfig {
                workers: 1,
                four_state: true,
            }
        );
    }

    #[test]
    fn signal_paths_sorted() {
        let sim = counter_sim();
        let paths = sim.signal_paths();
        assert!(paths.windows(2).all(|w| w[0] <= w[1]));
        assert!(paths.iter().any(|p| p == "counter.count"));
        assert!(paths.iter().any(|p| p == "counter.reset"));
    }

    /// A fixed stimulus for `mixed_design`, for cycle `t`.
    fn mixed_stimulus(sim: &mut Simulator, t: u64) {
        let stim = t.wrapping_mul(0x9E37_79B9).wrapping_add(t << 3);
        sim.poke("mixed.a", Bits::from_u64(stim & 0xFFFF, 16))
            .unwrap();
        sim.poke("mixed.b", Bits::from_u64((stim >> 8) & 0xFFFF, 16))
            .unwrap();
        sim.poke("mixed.c", Bits::from_u64((stim >> 4) & 0xFFFF, 16))
            .unwrap();
    }

    #[test]
    fn snapshot_restore_replay_is_bit_identical() {
        let mut sim = build(mixed_design, "mixed");
        let paths = sim.signal_paths();
        sim.reset(2);
        for t in 0..7u64 {
            mixed_stimulus(&mut sim, t);
            sim.step_clock();
        }
        let snap = sim.snapshot();
        assert_eq!(snap.time(), sim.time());
        assert!(snap.approx_bytes() > 0);
        // Finish the clean (uninterrupted) run, recording every frame.
        let run_tail = |sim: &mut Simulator| {
            let mut frames = Vec::new();
            for t in 7..20u64 {
                mixed_stimulus(sim, t);
                sim.step_clock();
                frames.push(
                    paths
                        .iter()
                        .map(|p| sim.peek(p).unwrap())
                        .collect::<Vec<_>>(),
                );
            }
            let mems: Vec<_> = (0..16)
                .map(|a| sim.peek_mem("mixed.scratch", a).unwrap())
                .collect();
            (frames, mems, sim.defs_evaluated())
        };
        let clean = run_tail(&mut sim);
        // Rewind to the snapshot and replay the identical stimulus.
        sim.restore(&snap).unwrap();
        assert_eq!(sim.time(), snap.time());
        let replay = run_tail(&mut sim);
        assert_eq!(clean.0, replay.0, "signal divergence after restore");
        assert_eq!(clean.1, replay.1, "memory divergence after restore");
        assert_eq!(clean.2, replay.2, "eval-count divergence after restore");
    }

    /// A snapshot captured from one simulator restores into a freshly
    /// built simulator of the same circuit, here one whose
    /// configuration asks for three workers, and both then run
    /// bit-identically.
    #[test]
    fn snapshot_restores_across_worker_counts() {
        let mut seq = build(mixed_design, "mixed");
        let mut par = build_with(
            mixed_design,
            "mixed",
            SimConfig {
                workers: 3,
                ..SimConfig::default()
            },
        );
        let paths = seq.signal_paths();
        seq.reset(2);
        for t in 0..5u64 {
            mixed_stimulus(&mut seq, t);
            seq.step_clock();
        }
        let snap = seq.snapshot();
        par.restore(&snap).unwrap();
        for t in 5..15u64 {
            mixed_stimulus(&mut seq, t);
            seq.step_clock();
            mixed_stimulus(&mut par, t);
            par.step_clock();
            for p in &paths {
                assert_eq!(seq.peek(p).unwrap(), par.peek(p).unwrap(), "cycle {t} {p}");
            }
        }
        assert_eq!(seq.defs_evaluated(), par.defs_evaluated());
    }

    #[test]
    fn snapshot_into_reuses_buffer_and_matches_fresh_capture() {
        let mut sim = build(mixed_design, "mixed");
        sim.reset(2);
        // Stale buffer captured early, then overwritten in place later:
        // restoring it must behave exactly like a fresh snapshot.
        mixed_stimulus(&mut sim, 0);
        sim.step_clock();
        let mut reused = sim.snapshot();
        for t in 1..9u64 {
            mixed_stimulus(&mut sim, t);
            sim.step_clock();
        }
        sim.snapshot_into(&mut reused);
        assert_eq!(reused.time(), sim.time());
        let fresh = sim.snapshot();
        assert_eq!(reused.approx_bytes(), fresh.approx_bytes());
        let paths = sim.signal_paths();
        let run_tail = |sim: &mut Simulator| {
            let mut frames = Vec::new();
            for t in 9..16u64 {
                mixed_stimulus(sim, t);
                sim.step_clock();
                frames.push(
                    paths
                        .iter()
                        .map(|p| sim.peek(p).unwrap())
                        .collect::<Vec<_>>(),
                );
            }
            (frames, sim.defs_evaluated())
        };
        sim.restore(&fresh).unwrap();
        let from_fresh = run_tail(&mut sim);
        sim.restore(&reused).unwrap();
        assert_eq!(sim.time(), fresh.time());
        let from_reused = run_tail(&mut sim);
        assert_eq!(from_fresh, from_reused, "in-place capture diverged");
        // Trait surface: in-place capture reports support.
        assert!(SimControl::save_snapshot_into(&sim, &mut reused));
    }

    #[test]
    fn signal_numbering_is_stable_across_builds() {
        // Two independent builds of the same design must intern every
        // signal at the same dense index — `SignalId` documents
        // cross-build stability, and snapshot portability between
        // identically-built simulators depends on it. (Regression: the
        // netlist builder used to declare signals in HashMap iteration
        // order, so two builds could permute the numbering.)
        let a = build(mixed_design, "mixed");
        let b = build(mixed_design, "mixed");
        for p in a.signal_paths() {
            assert_eq!(a.signal_id(&p), b.signal_id(&p), "{p} renumbered");
        }
    }

    #[test]
    fn four_state_registers_power_up_x_and_resolve_on_reset() {
        let mut sim = build_with(counter_design, "counter", SimConfig::default().four_state());
        assert!(sim.is_four_state());
        // Power-up: the register (and everything fed by it) is all-X,
        // even though it has an init value — init loads under reset.
        assert_eq!(sim.peek4("counter.count").unwrap(), Bits4::all_x(8));
        assert!(!sim.peek4("counter.out").unwrap().is_fully_known());
        // Clocking without reset keeps it X: the reset input itself is
        // still X, so the register's next state cannot be known.
        sim.poke("counter.en", Bits::from_bool(true)).unwrap();
        sim.step_clock();
        assert!(!sim.peek4("counter.count").unwrap().is_fully_known());
        // Reset resolves X to the init value; counting proceeds known.
        sim.reset(2);
        assert_eq!(
            sim.peek4("counter.count").unwrap(),
            Bits4::known(Bits::from_u64(0, 8))
        );
        sim.step_clock();
        sim.step_clock();
        assert_eq!(
            sim.peek4("counter.out")
                .unwrap()
                .to_known()
                .unwrap()
                .to_u64(),
            1
        );
    }

    #[test]
    fn four_state_inputs_read_x_until_poked() {
        let mut sim = build_with(
            |cb| {
                cb.module("adder", |m| {
                    let a = m.input("a", 8);
                    let b = m.input("b", 8);
                    let out = m.output("out", 8);
                    m.assign(&out, a + b);
                });
            },
            "adder",
            SimConfig::default().four_state(),
        );
        assert_eq!(sim.peek4("adder.a").unwrap(), Bits4::all_x(8));
        assert_eq!(sim.peek4("adder.out").unwrap(), Bits4::all_x(8));
        // One known operand is not enough for an arithmetic op.
        sim.poke("adder.a", Bits::from_u64(3, 8)).unwrap();
        assert!(!sim.peek4("adder.out").unwrap().is_fully_known());
        sim.poke("adder.b", Bits::from_u64(4, 8)).unwrap();
        assert_eq!(
            sim.peek4("adder.out").unwrap(),
            Bits4::known(Bits::from_u64(7, 8))
        );
        // The two-state peek view of a known four-state value agrees.
        assert_eq!(sim.peek("adder.out").unwrap().to_u64(), 7);
    }

    #[test]
    fn four_state_unreset_register_stays_x_until_forced() {
        // The reset-bug demo at simulator level: a register missing
        // from the reset tree (init None) never resolves on its own.
        let mut sim = build_with(
            |cb| {
                cb.module("buggy", |m| {
                    let out = m.output("out", 8);
                    let r = m.reg("r", 8, None);
                    m.assign(&r, r.sig() + m.lit(1, 8));
                    m.assign(&out, r.sig());
                });
            },
            "buggy",
            SimConfig::default().four_state(),
        );
        sim.reset(2);
        sim.run(3);
        assert_eq!(
            sim.peek4("buggy.r").unwrap(),
            Bits4::all_x(8),
            "X must survive reset when the register has no init"
        );
        // A debugger force resolves it; from there on it stays known.
        sim.set_value("buggy.r", Bits::from_u64(10, 8)).unwrap();
        sim.step_clock();
        assert_eq!(
            sim.peek4("buggy.r").unwrap().to_known().unwrap().to_u64(),
            10,
            "the force survives the already-latched edge"
        );
        sim.step_clock();
        assert_eq!(
            sim.peek4("buggy.r").unwrap().to_known().unwrap().to_u64(),
            11
        );
    }

    #[test]
    fn four_state_memory_write_semantics() {
        let ram = |cb: &mut CircuitBuilder| {
            cb.module("ram", |m| {
                let waddr = m.input("waddr", 4);
                let wdata = m.input("wdata", 8);
                let wen = m.input("wen", 1);
                let raddr = m.input("raddr", 4);
                let rdata = m.output("rdata", 8);
                let mem = m.mem("mem", 8, 16);
                let data = m.mem_read(&mem, "mem_out", raddr);
                m.mem_write(&mem, waddr, wdata, wen);
                m.assign(&rdata, data);
            });
        };
        let mut sim = build_with(ram, "ram", SimConfig::default().four_state());
        // Memories power up known-zero (documented simplification).
        assert_eq!(
            sim.peek_mem4("ram.mem", 5).unwrap(),
            Bits4::known(Bits::zero(8))
        );
        sim.reset(1);
        // Unknown enable + unknown address: no write at all.
        sim.run(2);
        for addr in 0..16 {
            assert!(sim.peek_mem4("ram.mem", addr).unwrap().is_fully_known());
        }
        // Unknown enable + known address: the word *might* have been
        // written, so it goes all-X.
        sim.poke("ram.waddr", Bits::from_u64(5, 4)).unwrap();
        sim.run(2);
        assert_eq!(sim.peek_mem4("ram.mem", 5).unwrap(), Bits4::all_x(8));
        sim.poke("ram.raddr", Bits::from_u64(5, 4)).unwrap();
        assert_eq!(sim.peek4("ram.rdata").unwrap(), Bits4::all_x(8));
        // Known enable and data: the write resolves the word again.
        sim.poke("ram.wen", Bits::from_bool(true)).unwrap();
        sim.poke("ram.wdata", Bits::from_u64(0xAB, 8)).unwrap();
        sim.run(2);
        assert_eq!(
            sim.peek_mem4("ram.mem", 5).unwrap(),
            Bits4::known(Bits::from_u64(0xAB, 8))
        );
        assert_eq!(
            sim.peek4("ram.rdata").unwrap().to_known().unwrap().to_u64(),
            0xAB
        );
    }

    /// Drive a and b, leave c all-X: the X cone (memory write port, w
    /// output) propagates the same way through two four-state
    /// simulators, one of them configured for three workers.
    #[test]
    fn four_state_parallel_matches_sequential_with_x_present() {
        let mut seq = build_with(mixed_design, "mixed", SimConfig::default().four_state());
        let mut par = build_with(
            mixed_design,
            "mixed",
            SimConfig {
                workers: 3,
                four_state: true,
            },
        );
        let paths = seq.signal_paths();
        seq.reset(2);
        par.reset(2);
        for t in 0..12u64 {
            let stim = t.wrapping_mul(0x9E37_79B9).wrapping_add(t << 3);
            for sim in [&mut seq, &mut par] {
                sim.poke("mixed.a", Bits::from_u64(stim & 0xFFFF, 16))
                    .unwrap();
                sim.poke("mixed.b", Bits::from_u64((stim >> 8) & 0xFFFF, 16))
                    .unwrap();
                sim.step_clock();
            }
            for p in &paths {
                assert_eq!(
                    seq.peek4(p).unwrap(),
                    par.peek4(p).unwrap(),
                    "cycle {t} signal {p} diverged"
                );
            }
        }
        assert_eq!(seq.defs_evaluated(), par.defs_evaluated());
        for addr in 0..16 {
            assert_eq!(
                seq.peek_mem4("mixed.scratch", addr),
                par.peek_mem4("mixed.scratch", addr)
            );
        }
        // c never resolved, so its X cone is still visible somewhere.
        assert!(!seq.peek4("mixed.w").unwrap().is_fully_known());
    }

    #[test]
    fn four_state_snapshot_roundtrip_and_mode_mismatch() {
        let mut sim = build_with(mixed_design, "mixed", SimConfig::default().four_state());
        sim.reset(2);
        sim.poke("mixed.a", Bits::from_u64(11, 16)).unwrap();
        sim.step_clock();
        let snap = sim.snapshot();
        let paths = sim.signal_paths();
        let tail = |sim: &mut Simulator| {
            let mut frames = Vec::new();
            for t in 0..6u64 {
                sim.poke("mixed.b", Bits::from_u64(t * 3 + 1, 16)).unwrap();
                sim.step_clock();
                frames.push(
                    paths
                        .iter()
                        .map(|p| sim.peek4(p).unwrap())
                        .collect::<Vec<_>>(),
                );
            }
            frames
        };
        let clean = tail(&mut sim);
        sim.restore(&snap).unwrap();
        let replay = tail(&mut sim);
        assert_eq!(clean, replay, "four-state replay diverged");
        // A two-state simulator refuses a four-state snapshot (and
        // vice versa): the unknown planes have nowhere to go.
        let mut two = build(mixed_design, "mixed");
        assert!(matches!(two.restore(&snap), Err(SimError::Build(_))));
        assert!(matches!(
            sim.restore(&two.snapshot()),
            Err(SimError::Build(_))
        ));
    }

    #[test]
    fn restore_rejects_foreign_snapshots() {
        let counter = counter_sim();
        let snap = counter.snapshot();
        let mut mixed = build(mixed_design, "mixed");
        assert!(matches!(mixed.restore(&snap), Err(SimError::Build(_))));
        // Trait surface: the live simulator supports snapshots.
        assert!(SimControl::save_snapshot(&counter).is_some());
    }
}
