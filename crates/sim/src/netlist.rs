//! Hierarchy flattening and netlist compilation.
//!
//! The Low-form circuit is flattened into a single namespace of
//! dotted full paths (`top.u0.sum_1`), expressions are compiled first
//! into an index-resolved tree ([`CExpr`]) and from there into flat
//! postorder bytecode (see [`crate::compile`]) so evaluation never
//! touches strings or heap-allocated tree nodes. Combinational
//! definitions are kept in the topological order Kahn's algorithm
//! gives them, so one linear sweep per cycle reaches the zero-delay
//! fixpoint — the property §3 of the paper relies on ("all logical
//! values will be stable at every clock edge") — and the per-signal
//! fan-out graph lets the simulator re-evaluate only the cone affected
//! by a change.

use std::collections::HashMap;

use bits::Bits;
use hgf_ir::expr::{BinaryOp, Expr, UnaryOp};
use hgf_ir::{Circuit, PortDir, SignalKind, Stmt};

use crate::compile::{dependents, topo_order, CodeRange, Program};
use crate::control::{HierNode, SimError};

/// Compiled expression with signal references resolved to indices.
/// The bytecode compiler consumes this tree; the tree-walking
/// [`CExpr::eval`] survives as the reference semantics the property
/// tests check the bytecode against.
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    Lit(Bits),
    Sig(usize),
    Unary(UnaryOp, Box<CExpr>),
    Binary(BinaryOp, Box<CExpr>, Box<CExpr>),
    Mux(Box<CExpr>, Box<CExpr>, Box<CExpr>),
    Slice(Box<CExpr>, u32, u32),
    Cat(Box<CExpr>, Box<CExpr>),
    /// Combinational memory read: `mems[mem].words[addr]`.
    MemRead(usize, Box<CExpr>),
}

impl CExpr {
    /// Reference tree-walking evaluator. Kept as the executable
    /// specification for the bytecode engine (property-tested in
    /// [`crate::compile`]); production evaluation always runs the
    /// compiled program.
    #[cfg(test)]
    pub(crate) fn eval(&self, values: &[Bits], mems: &[MemState]) -> Bits {
        use hgf_ir::expr::apply_binary;
        match self {
            CExpr::Lit(b) => b.clone(),
            CExpr::Sig(i) => values[*i].clone(),
            CExpr::Unary(op, e) => {
                let v = e.eval(values, mems);
                match op {
                    UnaryOp::Not => v.not(),
                    UnaryOp::Neg => v.neg(),
                    UnaryOp::ReduceAnd => v.reduce_and(),
                    UnaryOp::ReduceOr => v.reduce_or(),
                    UnaryOp::ReduceXor => v.reduce_xor(),
                }
            }
            CExpr::Binary(op, l, r) => {
                apply_binary(*op, &l.eval(values, mems), &r.eval(values, mems))
            }
            CExpr::Mux(s, t, e) => {
                if s.eval(values, mems).is_truthy() {
                    t.eval(values, mems)
                } else {
                    e.eval(values, mems)
                }
            }
            CExpr::Slice(e, hi, lo) => e.eval(values, mems).slice(*hi, *lo),
            CExpr::Cat(h, l) => h.eval(values, mems).concat(&l.eval(values, mems)),
            CExpr::MemRead(m, addr) => {
                let mem = &mems[*m];
                let a = addr.eval(values, mems).to_u64() as usize;
                if a < mem.words.len() {
                    mem.words[a].clone()
                } else {
                    Bits::zero(mem.width)
                }
            }
        }
    }

    fn deps(&self, out: &mut Vec<usize>) {
        match self {
            CExpr::Lit(_) => {}
            CExpr::Sig(i) => out.push(*i),
            CExpr::Unary(_, e) | CExpr::Slice(e, _, _) | CExpr::MemRead(_, e) => e.deps(out),
            CExpr::Binary(_, l, r) | CExpr::Cat(l, r) => {
                l.deps(out);
                r.deps(out);
            }
            CExpr::Mux(s, t, e) => {
                s.deps(out);
                t.deps(out);
                e.deps(out);
            }
        }
    }

    /// Memory indices this expression reads.
    fn mem_deps(&self, out: &mut Vec<usize>) {
        match self {
            CExpr::Lit(_) | CExpr::Sig(_) => {}
            CExpr::Unary(_, e) | CExpr::Slice(e, _, _) => e.mem_deps(out),
            CExpr::Binary(_, l, r) | CExpr::Cat(l, r) => {
                l.mem_deps(out);
                r.mem_deps(out);
            }
            CExpr::Mux(s, t, e) => {
                s.mem_deps(out);
                t.mem_deps(out);
                e.mem_deps(out);
            }
            CExpr::MemRead(m, e) => {
                out.push(*m);
                e.mem_deps(out);
            }
        }
    }
}

/// Simulated memory contents.
#[derive(Debug, Clone)]
pub(crate) struct MemState {
    pub(crate) width: u32,
    pub(crate) words: Vec<Bits>,
}

/// A register: signal index, optional compiled next-value expression
/// (absent means the register holds), optional synchronous reset
/// value.
#[derive(Debug, Clone)]
pub(crate) struct FlatReg {
    pub(crate) sig: usize,
    pub(crate) next: Option<CodeRange>,
    pub(crate) init: Option<Bits>,
}

/// A synchronous memory write port (compiled address/data/enable).
#[derive(Debug, Clone)]
pub(crate) struct FlatWrite {
    pub(crate) mem: usize,
    pub(crate) addr: CodeRange,
    pub(crate) data: CodeRange,
    pub(crate) en: CodeRange,
}

/// One combinational definition: target signal slot and its compiled
/// code. Stored in topological order.
#[derive(Debug, Clone)]
pub(crate) struct CompiledDef {
    pub(crate) sig: usize,
    pub(crate) code: CodeRange,
}

/// The flattened, compiled design.
///
/// Public so analysis tooling (the `hgdb-lint` crate's netlist-level
/// checks) can build and query the same def graph the simulator runs;
/// the compiled internals (bytecode, fan-out graph) stay crate-private.
#[derive(Debug, Clone)]
pub struct FlatNetlist {
    pub(crate) names: Vec<String>,
    pub(crate) index: HashMap<String, usize>,
    pub(crate) widths: Vec<u32>,
    /// Shared bytecode for all compiled expressions.
    pub(crate) program: Program,
    /// Combinational definitions in Kahn's topological order.
    pub(crate) defs: Vec<CompiledDef>,
    pub(crate) regs: Vec<FlatReg>,
    pub(crate) mems: Vec<MemState>,
    /// Memory path → index (mirrors `index` for the signal namespace).
    pub(crate) mem_index: HashMap<String, usize>,
    pub(crate) writes: Vec<FlatWrite>,
    /// Per-signal pokeability: top-level input ports plus `reset`.
    pub(crate) is_input: Vec<bool>,
    /// Per-signal register flag (targets of `set_value` forcing).
    pub(crate) is_reg: Vec<bool>,
    pub(crate) reset: usize,
    pub(crate) hierarchy: HierNode,
    /// For each signal slot, the (topo-order) def indices that read
    /// it: the direct fan-out used for incremental re-evaluation.
    pub(crate) sig_fanout: Vec<Vec<u32>>,
    /// For each memory, the def indices that read it.
    pub(crate) mem_fanout: Vec<Vec<u32>>,
}

impl FlatNetlist {
    /// Flattens and compiles a Low-form circuit.
    ///
    /// # Errors
    ///
    /// [`SimError::Build`] when the circuit fails validation or is not
    /// in Low form; [`SimError::CombinationalLoop`] carrying one
    /// minimal cycle (full signal paths, first repeated at the end)
    /// when the combinational def graph is cyclic.
    pub fn build(circuit: &Circuit) -> Result<FlatNetlist, SimError> {
        circuit
            .validate()
            .map_err(|e| SimError::Build(e.to_string()))?;
        circuit
            .check_low()
            .map_err(|e| SimError::Build(e.to_string()))?;

        let mut b = Builder {
            circuit,
            names: Vec::new(),
            index: HashMap::new(),
            widths: Vec::new(),
            raw_defs: Vec::new(),
            raw_regs: Vec::new(),
            mems: Vec::new(),
            mem_index: HashMap::new(),
            raw_writes: Vec::new(),
        };

        let top = circuit.top_module();
        let prefix = top.name.clone();
        // Implicit global reset.
        let reset = b.declare(&format!("{prefix}.reset"), 1);
        b.declare_module(top, &prefix);
        let mut hierarchy = HierNode::new(top.name.clone());
        b.collect_module(top, &prefix, &mut hierarchy)?;
        hierarchy.signals.push("reset".into());

        let mut is_input = vec![false; b.names.len()];
        for p in top.ports.iter().filter(|p| p.dir == PortDir::Input) {
            is_input[b.index[&format!("{prefix}.{}", p.name)]] = true;
        }
        is_input[reset] = true;

        // Topological sort of combinational defs (Kahn) over the def
        // graph: `preds[d]` lists the defs def `d` reads.
        let def_of: HashMap<usize, usize> = b
            .raw_defs
            .iter()
            .enumerate()
            .map(|(di, (sig, _))| (*sig, di))
            .collect();
        let n = b.raw_defs.len();
        let preds: Vec<Vec<usize>> = b
            .raw_defs
            .iter()
            .map(|(_, expr)| {
                let mut deps = Vec::new();
                expr.deps(&mut deps);
                deps.iter().filter_map(|d| def_of.get(d).copied()).collect()
            })
            .collect();
        let order = match topo_order(&preds) {
            Ok(order) => order,
            Err(residual) => {
                // Kahn left a residual subgraph; every node in it sits
                // on or downstream of a cycle. Report one *minimal*
                // cycle — not the whole residue, which would implicate
                // innocent downstream logic.
                let cycle: Vec<String> = minimal_cycle(&residual, &preds)
                    .into_iter()
                    .map(|i| b.names[b.raw_defs[i].0].clone())
                    .collect();
                return Err(SimError::CombinationalLoop(cycle));
            }
        };

        // Lower every expression to bytecode, defs in topological order,
        // and record each def's direct fan-in for the fan-out graph.
        let mut program = Program::default();
        let mut defs = Vec::with_capacity(n);
        let mut sig_fanout: Vec<Vec<u32>> = vec![Vec::new(); b.names.len()];
        let mut mem_fanout: Vec<Vec<u32>> = vec![Vec::new(); b.mems.len()];
        for &raw_di in &order {
            let (sig, expr) = &b.raw_defs[raw_di];
            let di = defs.len() as u32;
            let code = program.compile(expr);
            let mut deps = Vec::new();
            expr.deps(&mut deps);
            deps.sort_unstable();
            deps.dedup();
            for d in deps {
                sig_fanout[d].push(di);
            }
            let mut mdeps = Vec::new();
            expr.mem_deps(&mut mdeps);
            mdeps.sort_unstable();
            mdeps.dedup();
            for m in mdeps {
                mem_fanout[m].push(di);
            }
            defs.push(CompiledDef { sig: *sig, code });
        }

        let regs: Vec<FlatReg> = b
            .raw_regs
            .iter()
            .map(|r| FlatReg {
                sig: r.sig,
                next: r.next.as_ref().map(|e| program.compile(e)),
                init: r.init.clone(),
            })
            .collect();
        let writes: Vec<FlatWrite> = b
            .raw_writes
            .iter()
            .map(|w| FlatWrite {
                mem: w.mem,
                addr: program.compile(&w.addr),
                data: program.compile(&w.data),
                en: program.compile(&w.en),
            })
            .collect();

        let mut is_reg = vec![false; b.names.len()];
        for r in &regs {
            is_reg[r.sig] = true;
        }

        Ok(FlatNetlist {
            names: b.names,
            index: b.index,
            widths: b.widths,
            program,
            defs,
            regs,
            mems: b.mems,
            mem_index: b.mem_index,
            writes,
            is_input,
            is_reg,
            reset,
            hierarchy,
            sig_fanout,
            mem_fanout,
        })
    }
}

impl FlatNetlist {
    /// Resolves a dotted full signal path (`top.u0.sum_1`) to its
    /// dense slot index, if the signal exists.
    pub fn lookup(&self, full_path: &str) -> Option<usize> {
        self.index.get(full_path).copied()
    }

    /// All flattened signal paths, in declaration order.
    pub fn signal_names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// Width in bits of the signal at `slot`.
    pub fn signal_width(&self, slot: usize) -> u32 {
        self.widths[slot]
    }

    /// Whether the signal at `slot` is a register.
    pub fn is_register(&self, slot: usize) -> bool {
        self.is_reg[slot]
    }

    /// Number of combinational definitions in the compiled def graph.
    pub fn def_count(&self) -> usize {
        self.defs.len()
    }
}

/// Extracts one minimal combinational cycle from the residual def
/// graph Kahn's algorithm could not order. `indegree` is the residual
/// indegree [`topo_order`] returned (nonzero exactly for unordered
/// defs); `preds` is the full def graph.
///
/// Every residual def has at least one residual predecessor (edges
/// from ordered defs were consumed), so walking predecessors must
/// revisit a def — that def lies on a cycle. A BFS along residual
/// dependent edges then finds the *shortest* cycle through it. The
/// returned def-index path closes on itself (first element repeated
/// at the end); a self-loop yields `[d, d]`.
fn minimal_cycle(indegree: &[usize], preds: &[Vec<usize>]) -> Vec<usize> {
    let n = indegree.len();
    let dependents = dependents(preds);
    let residual: Vec<bool> = indegree.iter().map(|&d| d > 0).collect();
    let start = (0..n).find(|&i| residual[i]).expect("residual def exists");

    // Predecessor walk to land on a def that is on a cycle.
    let mut seen = vec![false; n];
    let mut cur = start;
    let anchor = loop {
        if seen[cur] {
            break cur;
        }
        seen[cur] = true;
        cur = *preds[cur]
            .iter()
            .find(|&&p| residual[p])
            .expect("residual def has a residual predecessor");
    };

    // BFS from the anchor along residual dependent edges; the first
    // path back to the anchor is a shortest cycle through it.
    let mut parent = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(anchor);
    while let Some(v) = queue.pop_front() {
        for &w in &dependents[v] {
            if !residual[w] {
                continue;
            }
            if w == anchor {
                // Reconstruct anchor → … → v from the BFS parents
                // (walked sink-to-source, so reversed), then close the
                // cycle on the anchor. A self-loop yields [d, d].
                let mut middle = Vec::new();
                let mut node = v;
                while node != anchor {
                    middle.push(node);
                    node = parent[node];
                }
                middle.reverse();
                let mut path = Vec::with_capacity(middle.len() + 2);
                path.push(anchor);
                path.extend(middle);
                path.push(anchor);
                return path;
            }
            if parent[w] == usize::MAX {
                parent[w] = v;
                queue.push_back(w);
            }
        }
    }
    unreachable!("anchor def is on a residual cycle");
}

/// Register in tree form, before bytecode lowering.
struct RawReg {
    sig: usize,
    next: Option<CExpr>,
    init: Option<Bits>,
}

/// Write port in tree form, before bytecode lowering.
struct RawWrite {
    mem: usize,
    addr: CExpr,
    data: CExpr,
    en: CExpr,
}

struct Builder<'a> {
    circuit: &'a Circuit,
    names: Vec<String>,
    index: HashMap<String, usize>,
    widths: Vec<u32>,
    raw_defs: Vec<(usize, CExpr)>,
    raw_regs: Vec<RawReg>,
    mems: Vec<MemState>,
    mem_index: HashMap<String, usize>,
    raw_writes: Vec<RawWrite>,
}

impl Builder<'_> {
    fn declare(&mut self, full: &str, width: u32) -> usize {
        if let Some(&i) = self.index.get(full) {
            return i;
        }
        let i = self.names.len();
        self.names.push(full.to_owned());
        self.index.insert(full.to_owned(), i);
        self.widths.push(width);
        i
    }

    /// Pass A: declare every signal of `module` (and children) under
    /// `prefix`.
    fn declare_module(&mut self, module: &hgf_ir::Module, prefix: &str) {
        let table = module.signal_table(self.circuit);
        // Declare in sorted order: `signal_table` is a HashMap, and
        // letting its iteration order pick slot numbers would give two
        // builds of the same circuit different signal ids — breaking
        // the documented cross-build stability of `SignalId` (and with
        // it snapshot portability between identically-built backends).
        let mut names: Vec<&String> = table.keys().collect();
        names.sort();
        for name in names {
            let (width, kind) = &table[name];
            // Instance ports are declared by the child walk.
            if *kind == SignalKind::InstancePort {
                continue;
            }
            self.declare(&format!("{prefix}.{name}"), *width);
        }
        for stmt in &module.stmts {
            match stmt {
                Stmt::Mem {
                    name, width, depth, ..
                } => {
                    let full = format!("{prefix}.{name}");
                    let idx = self.mems.len();
                    self.mems.push(MemState {
                        width: *width,
                        words: vec![Bits::zero(*width); *depth as usize],
                    });
                    self.mem_index.insert(full, idx);
                }
                Stmt::Instance {
                    name, module: m, ..
                } => {
                    let child = self.circuit.module(m).expect("validated");
                    self.declare_module(child, &format!("{prefix}.{name}"));
                }
                _ => {}
            }
        }
    }

    /// Pass B: compile definitions, registers, memory ports.
    fn collect_module(
        &mut self,
        module: &hgf_ir::Module,
        prefix: &str,
        hier: &mut HierNode,
    ) -> Result<(), SimError> {
        for p in &module.ports {
            hier.signals.push(p.name.clone());
        }
        let compile = |b: &Builder<'_>, e: &Expr| -> Result<CExpr, SimError> {
            compile_expr(e, prefix, &b.index, &b.mem_index)
        };
        // Register names for next-value routing.
        let regs: HashMap<&str, (Option<Bits>,)> = module
            .stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::Reg { name, init, .. } => Some((name.as_str(), (init.clone(),))),
                _ => None,
            })
            .collect();
        for stmt in &module.stmts {
            match stmt {
                Stmt::Wire { name, .. } | Stmt::Reg { name, .. } => {
                    hier.signals.push(name.clone());
                }
                Stmt::Node { name, expr, .. } => {
                    hier.signals.push(name.clone());
                    let sig = self.index[&format!("{prefix}.{name}")];
                    let ce = compile(self, expr)?;
                    self.raw_defs.push((sig, ce));
                }
                Stmt::Connect { target, expr, .. } => {
                    let ce = compile(self, expr)?;
                    if regs.contains_key(target.as_str()) {
                        // Deferred: attach as the register's next.
                        let sig = self.index[&format!("{prefix}.{target}")];
                        if let Some(r) = self.raw_regs.iter_mut().find(|r| r.sig == sig) {
                            r.next = Some(ce);
                        } else {
                            self.raw_regs.push(RawReg {
                                sig,
                                next: Some(ce),
                                init: regs[target.as_str()].0.clone(),
                            });
                        }
                    } else {
                        let sig = self.index[&format!("{prefix}.{target}")];
                        self.raw_defs.push((sig, ce));
                    }
                }
                Stmt::MemRead {
                    mem, name, addr, ..
                } => {
                    hier.signals.push(name.clone());
                    let sig = self.index[&format!("{prefix}.{name}")];
                    let midx = self.mem_index[&format!("{prefix}.{mem}")];
                    let addr = compile(self, addr)?;
                    self.raw_defs
                        .push((sig, CExpr::MemRead(midx, Box::new(addr))));
                }
                Stmt::MemWrite {
                    mem,
                    addr,
                    data,
                    en,
                    ..
                } => {
                    let midx = self.mem_index[&format!("{prefix}.{mem}")];
                    let w = RawWrite {
                        mem: midx,
                        addr: compile(self, addr)?,
                        data: compile(self, data)?,
                        en: compile(self, en)?,
                    };
                    self.raw_writes.push(w);
                }
                Stmt::Instance {
                    name, module: m, ..
                } => {
                    let child = self.circuit.module(m).expect("validated");
                    let mut child_hier = HierNode::new(name.clone());
                    self.collect_module(child, &format!("{prefix}.{name}"), &mut child_hier)?;
                    hier.children.push(child_hier);
                }
                Stmt::Mem { .. } | Stmt::When { .. } => {}
            }
        }
        // Registers with no connect (hold forever). Sorted: `regs` is
        // a HashMap and the resulting `raw_regs` order must not vary
        // between builds of the same circuit.
        let mut held: Vec<_> = regs.into_iter().collect();
        held.sort_by(|a, b| a.0.cmp(b.0));
        for (name, (init,)) in held {
            let sig = self.index[&format!("{prefix}.{name}")];
            if !self.raw_regs.iter().any(|r| r.sig == sig) {
                self.raw_regs.push(RawReg {
                    sig,
                    next: None,
                    init,
                });
            } else if let Some(r) = self.raw_regs.iter_mut().find(|r| r.sig == sig) {
                // Ensure init recorded even when the connect was seen
                // first.
                if r.init.is_none() {
                    r.init = init;
                }
            }
        }
        Ok(())
    }
}

fn compile_expr(
    e: &Expr,
    prefix: &str,
    index: &HashMap<String, usize>,
    _mem_index: &HashMap<String, usize>,
) -> Result<CExpr, SimError> {
    Ok(match e {
        Expr::Lit(b) => CExpr::Lit(b.clone()),
        Expr::Ref(name) => {
            let full = format!("{prefix}.{name}");
            let i = index.get(&full).ok_or(SimError::UnknownSignal(full))?;
            CExpr::Sig(*i)
        }
        Expr::Unary(op, e) => {
            CExpr::Unary(*op, Box::new(compile_expr(e, prefix, index, _mem_index)?))
        }
        Expr::Binary(op, l, r) => CExpr::Binary(
            *op,
            Box::new(compile_expr(l, prefix, index, _mem_index)?),
            Box::new(compile_expr(r, prefix, index, _mem_index)?),
        ),
        Expr::Mux(s, t, el) => CExpr::Mux(
            Box::new(compile_expr(s, prefix, index, _mem_index)?),
            Box::new(compile_expr(t, prefix, index, _mem_index)?),
            Box::new(compile_expr(el, prefix, index, _mem_index)?),
        ),
        Expr::Slice(e, hi, lo) => CExpr::Slice(
            Box::new(compile_expr(e, prefix, index, _mem_index)?),
            *hi,
            *lo,
        ),
        Expr::Cat(h, l) => CExpr::Cat(
            Box::new(compile_expr(h, prefix, index, _mem_index)?),
            Box::new(compile_expr(l, prefix, index, _mem_index)?),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgf_ir::{Module, Port, SourceLoc, StmtId};

    fn loc() -> SourceLoc {
        SourceLoc::new("t.rs", 1, 1)
    }

    fn connect(id: u32, target: &str, expr: Expr) -> Stmt {
        Stmt::Connect {
            id: StmtId(id),
            target: target.into(),
            expr,
            loc: loc(),
        }
    }

    fn wire(id: u32, name: &str) -> Stmt {
        Stmt::Wire {
            id: StmtId(id),
            name: name.into(),
            width: 8,
            loc: loc(),
        }
    }

    /// The loop diagnostic names exactly the cycle — not the logic
    /// merely downstream of it, which the old residual-indegree dump
    /// implicated.
    #[test]
    fn loop_diagnostic_is_one_minimal_cycle() {
        let mut m = Module::new("m", loc());
        m.ports = vec![
            Port {
                name: "a".into(),
                dir: hgf_ir::PortDir::Input,
                width: 8,
                loc: loc(),
            },
            Port {
                name: "out".into(),
                dir: hgf_ir::PortDir::Output,
                width: 8,
                loc: loc(),
            },
        ];
        // 3-cycle x -> y -> z -> x, with d1/d2/out strictly downstream.
        m.stmts = vec![
            wire(1, "x"),
            wire(2, "y"),
            wire(3, "z"),
            wire(4, "d1"),
            wire(5, "d2"),
            connect(6, "x", Expr::var("y")),
            connect(7, "y", Expr::var("z")),
            connect(8, "z", Expr::var("x")),
            connect(9, "d1", Expr::var("x")),
            connect(10, "d2", Expr::var("d1")),
            connect(11, "out", Expr::var("d2")),
        ];
        let circuit = Circuit::new("m", vec![m]);
        let err = FlatNetlist::build(&circuit).expect_err("cyclic");
        let SimError::CombinationalLoop(path) = err else {
            panic!("expected loop, got {err:?}");
        };
        // Closed on itself, length 4 (three hops + repeat), and only
        // the true cycle members appear.
        assert_eq!(path.len(), 4, "{path:?}");
        assert_eq!(path.first(), path.last());
        let mut members: Vec<&str> = path[..3].iter().map(String::as_str).collect();
        members.sort_unstable();
        assert_eq!(members, ["m.x", "m.y", "m.z"]);
    }

    /// A self-feeding def reports the two-element closed path.
    #[test]
    fn self_loop_reported_as_closed_pair() {
        let mut m = Module::new("m", loc());
        m.ports = vec![Port {
            name: "out".into(),
            dir: hgf_ir::PortDir::Output,
            width: 8,
            loc: loc(),
        }];
        m.stmts = vec![
            wire(1, "s"),
            connect(2, "s", Expr::var("s")),
            connect(3, "out", Expr::var("s")),
        ];
        let circuit = Circuit::new("m", vec![m]);
        let err = FlatNetlist::build(&circuit).expect_err("cyclic");
        let SimError::CombinationalLoop(path) = err else {
            panic!("expected loop, got {err:?}");
        };
        assert_eq!(path, vec!["m.s".to_string(), "m.s".to_string()]);
    }
}
