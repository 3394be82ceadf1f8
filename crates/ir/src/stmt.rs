//! IR statements, modules and circuits.
//!
//! The IR has two forms mirroring FIRRTL's High and Low forms (§4.1 of
//! the paper):
//!
//! * **High form**: output of the generator frontend. `when` blocks with
//!   nested bodies, multiple procedural connects to the same wire
//!   (blocking, read-after-write semantics, as in kratos/Mamba-style
//!   combinational blocks), registers with next-value connects
//!   (non-blocking: reads see the pre-edge value).
//! * **Low form**: after [`crate::passes::ExpandWhens`]. No `when`
//!   statements; every wire/output/instance-input has exactly one
//!   connect; intermediate procedural values are explicit SSA nodes.
//!
//! Both forms share the same data structures; [`Module::check_low`]
//! validates the Low-form restrictions.

use std::collections::HashMap;
use std::fmt;

use bits::Bits;

use crate::expr::{Expr, ExprError};
use crate::source::SourceLoc;

/// Unique statement identity, stable across passes.
///
/// Algorithm 1 annotates statements in the High form (pass 1) and must
/// find them again after optimization (pass 2); ids provide that link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Driven from outside the module.
    Input,
    /// Driven by the module.
    Output,
}

/// A module port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name. Bundle fields are flattened with `.` separators by
    /// the frontend (e.g. `io.out`).
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Width in bits.
    pub width: u32,
    /// Generator source position.
    pub loc: SourceLoc,
}

/// An IR statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Combinational wire declaration (procedural assignment target).
    Wire {
        /// Statement id.
        id: StmtId,
        /// Signal name.
        name: String,
        /// Width in bits.
        width: u32,
        /// Source position.
        loc: SourceLoc,
    },
    /// Register declaration. Clocked by the module's implicit clock;
    /// when `init` is given and the implicit `reset` port is high the
    /// register loads `init` at the clock edge.
    Reg {
        /// Statement id.
        id: StmtId,
        /// Signal name.
        name: String,
        /// Width in bits.
        width: u32,
        /// Synchronous reset value.
        init: Option<Bits>,
        /// Source position.
        loc: SourceLoc,
    },
    /// A named intermediate value (assigned exactly once).
    Node {
        /// Statement id.
        id: StmtId,
        /// Signal name.
        name: String,
        /// Defining expression.
        expr: Expr,
        /// Source position.
        loc: SourceLoc,
    },
    /// Procedural connect `target := expr`.
    Connect {
        /// Statement id.
        id: StmtId,
        /// Target signal: wire, register, output port or instance
        /// input (`inst.port`).
        target: String,
        /// Driven value.
        expr: Expr,
        /// Source position.
        loc: SourceLoc,
    },
    /// Conditional block (High form only).
    When {
        /// Statement id.
        id: StmtId,
        /// 1-bit condition.
        cond: Expr,
        /// Statements executed when the condition holds.
        then_body: Vec<Stmt>,
        /// Statements executed otherwise.
        else_body: Vec<Stmt>,
        /// Source position.
        loc: SourceLoc,
    },
    /// Child module instantiation.
    Instance {
        /// Statement id.
        id: StmtId,
        /// Instance name.
        name: String,
        /// Instantiated module name.
        module: String,
        /// Source position.
        loc: SourceLoc,
    },
    /// Memory declaration (word-addressed array).
    Mem {
        /// Statement id.
        id: StmtId,
        /// Memory name.
        name: String,
        /// Word width in bits.
        width: u32,
        /// Number of words.
        depth: u32,
        /// Source position.
        loc: SourceLoc,
    },
    /// Combinational read port: defines signal `name` as `mem[addr]`.
    MemRead {
        /// Statement id.
        id: StmtId,
        /// Memory name.
        mem: String,
        /// Defined data signal name.
        name: String,
        /// Address expression.
        addr: Expr,
        /// Source position.
        loc: SourceLoc,
    },
    /// Synchronous write port: at the clock edge, if `en`,
    /// `mem[addr] <= data`.
    MemWrite {
        /// Statement id.
        id: StmtId,
        /// Memory name.
        mem: String,
        /// Address expression.
        addr: Expr,
        /// Data expression.
        data: Expr,
        /// Write enable (1 bit).
        en: Expr,
        /// Source position.
        loc: SourceLoc,
    },
}

impl Stmt {
    /// The statement id.
    pub fn id(&self) -> StmtId {
        match self {
            Stmt::Wire { id, .. }
            | Stmt::Reg { id, .. }
            | Stmt::Node { id, .. }
            | Stmt::Connect { id, .. }
            | Stmt::When { id, .. }
            | Stmt::Instance { id, .. }
            | Stmt::Mem { id, .. }
            | Stmt::MemRead { id, .. }
            | Stmt::MemWrite { id, .. } => *id,
        }
    }

    /// The statement's source locator.
    pub fn loc(&self) -> &SourceLoc {
        match self {
            Stmt::Wire { loc, .. }
            | Stmt::Reg { loc, .. }
            | Stmt::Node { loc, .. }
            | Stmt::Connect { loc, .. }
            | Stmt::When { loc, .. }
            | Stmt::Instance { loc, .. }
            | Stmt::Mem { loc, .. }
            | Stmt::MemRead { loc, .. }
            | Stmt::MemWrite { loc, .. } => loc,
        }
    }

    /// The signal this statement declares, if any.
    pub fn declared_signal(&self) -> Option<&str> {
        match self {
            Stmt::Wire { name, .. }
            | Stmt::Reg { name, .. }
            | Stmt::Node { name, .. }
            | Stmt::MemRead { name, .. } => Some(name),
            _ => None,
        }
    }
}

/// Kinds of locally declared signals (excluding ports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalKind {
    /// Input port.
    Input,
    /// Output port.
    Output,
    /// Combinational wire.
    Wire,
    /// Register output.
    Reg,
    /// Single-assignment node.
    Node,
    /// Memory read-port data.
    MemRead,
    /// Instance port alias (`inst.port`).
    InstancePort,
}

/// A hardware module.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Module name, unique in the circuit.
    pub name: String,
    /// Ports.
    pub ports: Vec<Port>,
    /// Body.
    pub stmts: Vec<Stmt>,
    /// Generator-level symbol map: source-visible variable name →
    /// RTL signal name in this module ("generator variables", §3.4).
    pub gen_vars: Vec<(String, String)>,
    /// Where the generator defined this module.
    pub loc: SourceLoc,
}

/// Validation errors for modules and circuits.
#[derive(Debug, Clone, PartialEq)]
pub enum IrError {
    /// Two declarations share a name.
    DuplicateSignal {
        /// Module name.
        module: String,
        /// Conflicting signal name.
        name: String,
    },
    /// A connect targets something that is not connectable.
    BadConnectTarget {
        /// Module name.
        module: String,
        /// Offending target.
        target: String,
    },
    /// Expression problem (unknown signal / width mismatch).
    Expr {
        /// Module name.
        module: String,
        /// Underlying error.
        source: ExprError,
    },
    /// Width mismatch between connect target and expression.
    ConnectWidth {
        /// Module name.
        module: String,
        /// Target name.
        target: String,
        /// Target width.
        expected: u32,
        /// Expression width.
        got: u32,
    },
    /// Instance references an unknown module.
    UnknownModule {
        /// Referencing module.
        module: String,
        /// Missing module name.
        instantiated: String,
    },
    /// The module hierarchy contains a cycle.
    RecursiveInstantiation(String),
    /// A Low-form constraint is violated.
    NotLowForm {
        /// Module name.
        module: String,
        /// Explanation.
        detail: String,
    },
    /// The circuit has no module named as top.
    MissingTop(String),
    /// A procedural signal is read before any assignment.
    UninitializedRead {
        /// Module name.
        module: String,
        /// Offending signal.
        signal: String,
    },
    /// A conditional assignment has no prior default value.
    ConditionalWithoutDefault {
        /// Module name.
        module: String,
        /// Offending target.
        target: String,
    },
    /// A post-compile check hook (e.g. a deny-level lint gate)
    /// rejected the circuit. The payload is the check's rendered
    /// diagnostics.
    CheckFailed(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::DuplicateSignal { module, name } => {
                write!(f, "duplicate signal {name} in module {module}")
            }
            IrError::BadConnectTarget { module, target } => {
                write!(f, "cannot connect to {target} in module {module}")
            }
            IrError::Expr { module, source } => write!(f, "in module {module}: {source}"),
            IrError::ConnectWidth {
                module,
                target,
                expected,
                got,
            } => write!(
                f,
                "connect to {target} in {module}: width {got} does not match {expected}"
            ),
            IrError::UnknownModule {
                module,
                instantiated,
            } => write!(
                f,
                "module {module} instantiates unknown module {instantiated}"
            ),
            IrError::RecursiveInstantiation(m) => {
                write!(f, "recursive instantiation involving module {m}")
            }
            IrError::NotLowForm { module, detail } => {
                write!(f, "module {module} is not in Low form: {detail}")
            }
            IrError::MissingTop(t) => write!(f, "circuit top module {t} not found"),
            IrError::UninitializedRead { module, signal } => {
                write!(
                    f,
                    "signal {signal} read before assignment in module {module}"
                )
            }
            IrError::ConditionalWithoutDefault { module, target } => write!(
                f,
                "conditional assignment to {target} in module {module} has no default"
            ),
            IrError::CheckFailed(detail) => {
                write!(f, "post-compile check failed: {detail}")
            }
        }
    }
}

impl std::error::Error for IrError {}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>, loc: SourceLoc) -> Module {
        Module {
            name: name.into(),
            ports: Vec::new(),
            stmts: Vec::new(),
            gen_vars: Vec::new(),
            loc,
        }
    }

    /// All signals visible in this module, with widths and kinds.
    /// Instance ports appear as `inst.port`. Requires the circuit for
    /// child module port lookups.
    pub fn signal_table(&self, circuit: &Circuit) -> HashMap<String, (u32, SignalKind)> {
        let mut table = HashMap::new();
        for p in &self.ports {
            let kind = match p.dir {
                PortDir::Input => SignalKind::Input,
                PortDir::Output => SignalKind::Output,
            };
            table.insert(p.name.clone(), (p.width, kind));
        }
        for stmt in walk_stmts(&self.stmts) {
            match stmt {
                Stmt::Wire { name, width, .. } => {
                    table.insert(name.clone(), (*width, SignalKind::Wire));
                }
                Stmt::Reg { name, width, .. } => {
                    table.insert(name.clone(), (*width, SignalKind::Reg));
                }
                Stmt::Node { name, expr, .. } => {
                    // Node width derives from its expression; tolerate
                    // failures here (validation reports them properly).
                    let lookup = |n: &str| table.get(n).map(|(w, _)| *w);
                    if let Ok(w) = expr.width(&lookup) {
                        table.insert(name.clone(), (w, SignalKind::Node));
                    }
                }
                Stmt::MemRead { name, mem, .. } => {
                    if let Some(w) = self.mem_width(mem) {
                        table.insert(name.clone(), (w, SignalKind::MemRead));
                    }
                }
                Stmt::Instance { name, module, .. } => {
                    if let Some(child) = circuit.module(module) {
                        for p in &child.ports {
                            table.insert(
                                format!("{name}.{}", p.name),
                                (p.width, SignalKind::InstancePort),
                            );
                        }
                    }
                }
                _ => {}
            }
        }
        table
    }

    /// The width of a declared memory.
    pub fn mem_width(&self, mem: &str) -> Option<u32> {
        walk_stmts(&self.stmts).find_map(|s| match s {
            Stmt::Mem { name, width, .. } if name == mem => Some(*width),
            _ => None,
        })
    }

    /// The `(width, depth)` of a declared memory.
    pub fn mem_shape(&self, mem: &str) -> Option<(u32, u32)> {
        walk_stmts(&self.stmts).find_map(|s| match s {
            Stmt::Mem {
                name, width, depth, ..
            } if name == mem => Some((*width, *depth)),
            _ => None,
        })
    }

    /// Whether a signal may be the target of a connect, and in which
    /// role.
    fn connectable(&self, circuit: &Circuit, target: &str) -> bool {
        let table = self.signal_table(circuit);
        match table.get(target) {
            Some((_, SignalKind::Wire))
            | Some((_, SignalKind::Reg))
            | Some((_, SignalKind::Output)) => true,
            Some((_, SignalKind::InstancePort)) => {
                // Only instance *inputs* are connectable.
                let (inst, port) = target.split_once('.').expect("instance port has dot");
                self.instance_module(inst)
                    .and_then(|m| circuit.module(m))
                    .and_then(|m| m.ports.iter().find(|p| p.name == port))
                    .is_some_and(|p| p.dir == PortDir::Input)
            }
            _ => false,
        }
    }

    /// The module name instantiated under `inst`, if any.
    pub fn instance_module(&self, inst: &str) -> Option<&str> {
        walk_stmts(&self.stmts).find_map(|s| match s {
            Stmt::Instance { name, module, .. } if name == inst => Some(module.as_str()),
            _ => None,
        })
    }

    /// All instances `(instance_name, module_name)` in order.
    pub fn instances(&self) -> Vec<(&str, &str)> {
        walk_stmts(&self.stmts)
            .filter_map(|s| match s {
                Stmt::Instance { name, module, .. } => Some((name.as_str(), module.as_str())),
                _ => None,
            })
            .collect()
    }

    /// Validates the module in High form: unique names, known refs,
    /// width correctness, connect targets legal, when conditions 1 bit.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, circuit: &Circuit) -> Result<(), IrError> {
        // Unique declarations (ports + declared signals + mems + instances).
        let mut seen = std::collections::HashSet::new();
        for p in &self.ports {
            if !seen.insert(p.name.clone()) {
                return Err(IrError::DuplicateSignal {
                    module: self.name.clone(),
                    name: p.name.clone(),
                });
            }
        }
        for stmt in walk_stmts(&self.stmts) {
            let declared = match stmt {
                Stmt::Mem { name, .. } | Stmt::Instance { name, .. } => Some(name.as_str()),
                s => s.declared_signal(),
            };
            if let Some(name) = declared {
                if !seen.insert(name.to_owned()) {
                    return Err(IrError::DuplicateSignal {
                        module: self.name.clone(),
                        name: name.to_owned(),
                    });
                }
            }
            if let Stmt::Instance { module, .. } = stmt {
                if circuit.module(module).is_none() {
                    return Err(IrError::UnknownModule {
                        module: self.name.clone(),
                        instantiated: module.clone(),
                    });
                }
            }
        }

        let table = self.signal_table(circuit);
        let width_of = |n: &str| table.get(n).map(|(w, _)| *w);
        let check_expr = |e: &Expr| -> Result<u32, IrError> {
            e.width(&width_of).map_err(|source| IrError::Expr {
                module: self.name.clone(),
                source,
            })
        };
        for stmt in walk_stmts(&self.stmts) {
            match stmt {
                Stmt::Node { expr, .. } => {
                    check_expr(expr)?;
                }
                Stmt::Connect { target, expr, .. } => {
                    if !self.connectable(circuit, target) {
                        return Err(IrError::BadConnectTarget {
                            module: self.name.clone(),
                            target: target.clone(),
                        });
                    }
                    let got = check_expr(expr)?;
                    let expected = table.get(target).map(|(w, _)| *w).expect("connectable");
                    if got != expected {
                        return Err(IrError::ConnectWidth {
                            module: self.name.clone(),
                            target: target.clone(),
                            expected,
                            got,
                        });
                    }
                }
                Stmt::When { cond, .. } => {
                    let w = check_expr(cond)?;
                    if w != 1 {
                        return Err(IrError::Expr {
                            module: self.name.clone(),
                            source: ExprError::WidthMismatch {
                                expr: cond.to_string(),
                                detail: format!("when condition must be 1 bit, got {w}"),
                            },
                        });
                    }
                }
                Stmt::MemRead { addr, .. } => {
                    check_expr(addr)?;
                }
                Stmt::MemWrite { addr, data, en, .. } => {
                    check_expr(addr)?;
                    check_expr(data)?;
                    let w = check_expr(en)?;
                    if w != 1 {
                        return Err(IrError::Expr {
                            module: self.name.clone(),
                            source: ExprError::WidthMismatch {
                                expr: en.to_string(),
                                detail: format!("write enable must be 1 bit, got {w}"),
                            },
                        });
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Validates the additional Low-form restrictions: no `when`
    /// statements and exactly one connect per target.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::NotLowForm`] describing the violation.
    pub fn check_low(&self) -> Result<(), IrError> {
        let mut connected = std::collections::HashSet::new();
        for stmt in &self.stmts {
            match stmt {
                Stmt::When { .. } => {
                    return Err(IrError::NotLowForm {
                        module: self.name.clone(),
                        detail: "contains a when statement".into(),
                    })
                }
                Stmt::Connect { target, .. } if !connected.insert(target.clone()) => {
                    return Err(IrError::NotLowForm {
                        module: self.name.clone(),
                        detail: format!("multiple connects to {target}"),
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Depth-first iterator over statements including `when` bodies.
pub fn walk_stmts(stmts: &[Stmt]) -> impl Iterator<Item = &Stmt> {
    let mut out = Vec::new();
    fn rec<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a Stmt>) {
        for s in stmts {
            out.push(s);
            if let Stmt::When {
                then_body,
                else_body,
                ..
            } = s
            {
                rec(then_body, out);
                rec(else_body, out);
            }
        }
    }
    rec(stmts, &mut out);
    out.into_iter()
}

/// A complete design: a named top module plus all transitively
/// instantiated modules.
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    /// Name of the top module.
    pub top: String,
    /// All modules.
    pub modules: Vec<Module>,
}

impl Circuit {
    /// Creates a circuit.
    pub fn new(top: impl Into<String>, modules: Vec<Module>) -> Circuit {
        Circuit {
            top: top.into(),
            modules,
        }
    }

    /// The module named `name`.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }

    /// Mutable access to the module named `name`.
    pub fn module_mut(&mut self, name: &str) -> Option<&mut Module> {
        self.modules.iter_mut().find(|m| m.name == name)
    }

    /// The top module.
    ///
    /// # Panics
    ///
    /// Panics if the top module is missing (validate first).
    pub fn top_module(&self) -> &Module {
        self.module(&self.top).expect("top module exists")
    }

    /// Validates the whole circuit (all modules + hierarchy acyclicity).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), IrError> {
        if self.module(&self.top).is_none() {
            return Err(IrError::MissingTop(self.top.clone()));
        }
        for m in &self.modules {
            m.validate(self)?;
        }
        // Cycle check over the instantiation graph.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks: HashMap<String, Mark> = self
            .modules
            .iter()
            .map(|m| (m.name.clone(), Mark::White))
            .collect();
        fn dfs(
            circuit: &Circuit,
            name: &str,
            marks: &mut HashMap<String, Mark>,
        ) -> Result<(), IrError> {
            match marks.get(name) {
                Some(Mark::Black) => return Ok(()),
                Some(Mark::Grey) => return Err(IrError::RecursiveInstantiation(name.to_owned())),
                _ => {}
            }
            marks.insert(name.to_owned(), Mark::Grey);
            if let Some(m) = circuit.module(name) {
                for (_, child) in m.instances() {
                    let child = child.to_owned();
                    dfs(circuit, &child, marks)?;
                }
            }
            marks.insert(name.to_owned(), Mark::Black);
            Ok(())
        }
        dfs(self, &self.top.clone(), &mut marks)?;
        Ok(())
    }

    /// Validates Low-form restrictions for every module.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::NotLowForm`] for the first offending module.
    pub fn check_low(&self) -> Result<(), IrError> {
        for m in &self.modules {
            m.check_low()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinaryOp;

    fn loc() -> SourceLoc {
        SourceLoc::new("test.rs", 1, 1)
    }

    fn simple_module() -> Module {
        let mut m = Module::new("adder", loc());
        m.ports = vec![
            Port {
                name: "a".into(),
                dir: PortDir::Input,
                width: 8,
                loc: loc(),
            },
            Port {
                name: "b".into(),
                dir: PortDir::Input,
                width: 8,
                loc: loc(),
            },
            Port {
                name: "out".into(),
                dir: PortDir::Output,
                width: 8,
                loc: loc(),
            },
        ];
        m.stmts = vec![
            Stmt::Node {
                id: StmtId(1),
                name: "sum".into(),
                expr: Expr::binary(BinaryOp::Add, Expr::var("a"), Expr::var("b")),
                loc: loc(),
            },
            Stmt::Connect {
                id: StmtId(2),
                target: "out".into(),
                expr: Expr::var("sum"),
                loc: loc(),
            },
        ];
        m
    }

    #[test]
    fn validate_ok() {
        let c = Circuit::new("adder", vec![simple_module()]);
        c.validate().unwrap();
        c.check_low().unwrap();
    }

    #[test]
    fn signal_table_contents() {
        let c = Circuit::new("adder", vec![simple_module()]);
        let t = c.top_module().signal_table(&c);
        assert_eq!(t["a"], (8, SignalKind::Input));
        assert_eq!(t["out"], (8, SignalKind::Output));
        assert_eq!(t["sum"], (8, SignalKind::Node));
    }

    #[test]
    fn duplicate_signal_rejected() {
        let mut m = simple_module();
        m.stmts.push(Stmt::Wire {
            id: StmtId(3),
            name: "sum".into(),
            width: 8,
            loc: loc(),
        });
        let c = Circuit::new("adder", vec![m]);
        assert!(matches!(
            c.validate().unwrap_err(),
            IrError::DuplicateSignal { .. }
        ));
    }

    #[test]
    fn connect_to_input_rejected() {
        let mut m = simple_module();
        m.stmts.push(Stmt::Connect {
            id: StmtId(3),
            target: "a".into(),
            expr: Expr::lit(0, 8),
            loc: loc(),
        });
        let c = Circuit::new("adder", vec![m]);
        assert!(matches!(
            c.validate().unwrap_err(),
            IrError::BadConnectTarget { .. }
        ));
    }

    #[test]
    fn connect_width_checked() {
        let mut m = simple_module();
        m.stmts.push(Stmt::Connect {
            id: StmtId(3),
            target: "out".into(),
            expr: Expr::lit(0, 4),
            loc: loc(),
        });
        let c = Circuit::new("adder", vec![m]);
        assert!(matches!(
            c.validate().unwrap_err(),
            IrError::ConnectWidth { .. }
        ));
    }

    #[test]
    fn instance_ports_visible_and_checked() {
        let child = simple_module();
        let mut parent = Module::new("top", loc());
        parent.ports = vec![Port {
            name: "x".into(),
            dir: PortDir::Input,
            width: 8,
            loc: loc(),
        }];
        parent.stmts = vec![
            Stmt::Instance {
                id: StmtId(10),
                name: "u0".into(),
                module: "adder".into(),
                loc: loc(),
            },
            Stmt::Connect {
                id: StmtId(11),
                target: "u0.a".into(),
                expr: Expr::var("x"),
                loc: loc(),
            },
            Stmt::Connect {
                id: StmtId(12),
                target: "u0.b".into(),
                expr: Expr::var("u0.out"),
                loc: loc(),
            },
        ];
        let c = Circuit::new("top", vec![parent, child]);
        c.validate().unwrap();
        // Connecting to a child OUTPUT is rejected.
        let mut c2 = c.clone();
        c2.module_mut("top").unwrap().stmts.push(Stmt::Connect {
            id: StmtId(13),
            target: "u0.out".into(),
            expr: Expr::lit(0, 8),
            loc: loc(),
        });
        assert!(matches!(
            c2.validate().unwrap_err(),
            IrError::BadConnectTarget { .. }
        ));
    }

    #[test]
    fn recursive_instantiation_detected() {
        let mut a = Module::new("a", loc());
        a.stmts = vec![Stmt::Instance {
            id: StmtId(1),
            name: "inner".into(),
            module: "b".into(),
            loc: loc(),
        }];
        let mut b = Module::new("b", loc());
        b.stmts = vec![Stmt::Instance {
            id: StmtId(2),
            name: "inner".into(),
            module: "a".into(),
            loc: loc(),
        }];
        let c = Circuit::new("a", vec![a, b]);
        assert!(matches!(
            c.validate().unwrap_err(),
            IrError::RecursiveInstantiation(_)
        ));
    }

    #[test]
    fn low_form_checks() {
        let mut m = simple_module();
        m.stmts.push(Stmt::When {
            id: StmtId(5),
            cond: Expr::lit(1, 1),
            then_body: vec![],
            else_body: vec![],
            loc: loc(),
        });
        assert!(m.check_low().is_err());

        let mut m2 = simple_module();
        m2.stmts.push(Stmt::Connect {
            id: StmtId(6),
            target: "out".into(),
            expr: Expr::var("sum"),
            loc: loc(),
        });
        assert!(m2.check_low().is_err());
    }

    #[test]
    fn missing_top_detected() {
        let c = Circuit::new("nope", vec![simple_module()]);
        assert!(matches!(c.validate().unwrap_err(), IrError::MissingTop(_)));
    }

    #[test]
    fn walk_visits_nested() {
        let m = Module {
            name: "m".into(),
            ports: vec![],
            stmts: vec![Stmt::When {
                id: StmtId(1),
                cond: Expr::lit(1, 1),
                then_body: vec![Stmt::Wire {
                    id: StmtId(2),
                    name: "w".into(),
                    width: 1,
                    loc: loc(),
                }],
                else_body: vec![Stmt::Wire {
                    id: StmtId(3),
                    name: "v".into(),
                    width: 1,
                    loc: loc(),
                }],
                loc: loc(),
            }],
            gen_vars: vec![],
            loc: loc(),
        };
        assert_eq!(walk_stmts(&m.stmts).count(), 3);
    }

    #[test]
    fn mem_shape_lookup() {
        let mut m = Module::new("m", loc());
        m.stmts = vec![Stmt::Mem {
            id: StmtId(1),
            name: "rf".into(),
            width: 32,
            depth: 32,
            loc: loc(),
        }];
        assert_eq!(m.mem_shape("rf"), Some((32, 32)));
        assert_eq!(m.mem_shape("nope"), None);
    }
}
