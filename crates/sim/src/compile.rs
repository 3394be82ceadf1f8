//! Bytecode compilation and evaluation of combinational expressions.
//!
//! At `Simulator::new` time every [`CExpr`](crate::netlist::CExpr) tree
//! is lowered into flat postorder bytecode over dense slot indices. The
//! compiler infers each node's width from signal, literal and memory
//! widths and the `bits` rule of each op. Where every node of an
//! expression fits one 64-bit word it also emits [`WordOp`]s: the
//! masks and operand widths are fixed at compile time, and [`exec_word`]
//! runs them over the simulator's word store with plain `u64`
//! arithmetic. Every expression also has a general form ([`Op`]), which
//! loads `Bits` operands from the same store so that multi-word and
//! four-state semantics stay defined once, in `bits`. Evaluation is a
//! tight program-counter loop over a preallocated scratch stack — no
//! per-node boxing, no recursion. Mux keeps the tree-walker's lazy
//! semantics through explicit branch instructions, so only the
//! selected arm is evaluated. [`topo_order`] fixes the order the sweep
//! runs the compiled definitions in.

use bits::{Bits, Bits4};
use hgf_ir::expr::{apply_binary, apply_binary4, apply_unary4, BinaryOp, UnaryOp};

use crate::netlist::{CExpr, Layout};

/// Half-open `[start, end)` range of instructions in the shared
/// program; one compiled expression.
pub(crate) type CodeRange = (u32, u32);

/// One compiled expression: its general instructions, and its
/// single-word instructions when every node fits one word.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Code {
    /// Range in [`Program::ops`].
    pub(crate) ops: CodeRange,
    /// Range in [`Program::word_ops`], if the expression has one.
    pub(crate) word: Option<CodeRange>,
    /// The signal slot, when the expression is nothing but a read of
    /// it: its value is then a copy of that slot's words, at any width.
    /// Wider than a word, the general path would load the value into a
    /// heap `Bits` and store it back; the bench's `wide_datapath`
    /// design makes nine such reads a cycle (one definition and its
    /// eight registers' next values), and without the copy its
    /// `sim_throughput` row read about 11% slower on a shared 2-vCPU
    /// Xeon host.
    pub(crate) copy_of: Option<usize>,
}

/// One general stack-machine instruction over `Bits` operands.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Push literal pool entry.
    Lit(u32),
    /// Push the current value of the signal whose words start at `off`.
    Sig { off: u32, width: u32 },
    /// Replace the top of stack with the unary result.
    Unary(UnaryOp),
    /// Pop rhs, combine into the new top of stack.
    Binary(BinaryOp),
    /// Replace the top of stack with its `[lo, hi]` bit range.
    Slice(u32, u32),
    /// Pop the low part, concatenate under the new top (high part).
    Cat,
    /// Replace the top of stack (address) with the memory word.
    MemRead(u32),
    /// Pop the condition; jump to the absolute target when it is zero
    /// (the mux else-arm entry).
    BranchIfZero(u32),
    /// Unconditional jump (skips the mux else-arm).
    Jump(u32),
}

/// One single-word instruction. Operands and results are `u64` words
/// with the bits above their width zero; a `u64` payload is the result
/// mask, a `u32` one an operand width (or, for the signed compares, the
/// shift that sign-extends from it). Each op computes exactly what its
/// `bits` counterpart computes at that width.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WordOp {
    /// Push a literal.
    Lit(u64),
    /// Push the signal word at this offset.
    Sig(u32),
    Not(u64),
    Neg(u64),
    ReduceAnd(u64),
    ReduceOr,
    ReduceXor,
    Add(u64),
    Sub(u64),
    Mul(u64),
    /// Divide by zero gives all ones.
    Div(u64),
    /// Remainder by zero gives the dividend.
    Rem,
    And,
    Or,
    Xor,
    /// A shift by at least the width gives 0 (the sign fill for `Ashr`).
    Shl(u32),
    Shr(u32),
    Ashr(u32),
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Lts(u32),
    Les(u32),
    Gts(u32),
    Ges(u32),
    /// Bits `[lo, lo + width)`.
    Slice {
        lo: u32,
        width: u32,
    },
    /// Pop the low part of this width, concatenate under the high part.
    Cat(u32),
    /// Replace the address with the memory word at `base + address`;
    /// an address past `depth` reads 0.
    MemRead {
        base: u32,
        depth: u32,
    },
    /// Pop the condition; jump to the absolute target when it is zero.
    BranchIfZero(u32),
    Jump(u32),
}

/// The compiled program shared by every expression in a netlist.
#[derive(Debug, Clone, Default)]
pub(crate) struct Program {
    pub(crate) ops: Vec<Op>,
    pub(crate) lits: Vec<Bits>,
    pub(crate) word_ops: Vec<WordOp>,
    /// Exact worst-case operand stack depth over all compiled ranges.
    pub(crate) max_stack: usize,
}

/// The low `width` bits set (`width` in 1..=64).
#[inline]
fn mask(width: u32) -> u64 {
    u64::MAX >> (64 - width)
}

impl Program {
    /// Compiles one expression over signals and memories placed by
    /// `layout`.
    pub(crate) fn compile(&mut self, expr: &CExpr, layout: &Layout) -> Code {
        let start = self.ops.len() as u32;
        self.emit(expr, layout);
        let ops = (start, self.ops.len() as u32);
        let wstart = self.word_ops.len();
        let word = match self.emit_word(expr, layout) {
            Some(_) => Some((wstart as u32, self.word_ops.len() as u32)),
            None => {
                self.word_ops.truncate(wstart);
                None
            }
        };
        self.max_stack = self.max_stack.max(stack_depth(expr));
        let copy_of = match expr {
            CExpr::Sig(i) => Some(*i),
            _ => None,
        };
        Code { ops, word, copy_of }
    }

    fn lit(&mut self, b: &Bits) -> u32 {
        // The pool is small (per-design constants); linear dedup keeps
        // `Bits` out of a hash map here without measurable build cost.
        if let Some(i) = self.lits.iter().position(|l| l == b) {
            return i as u32;
        }
        self.lits.push(b.clone());
        (self.lits.len() - 1) as u32
    }

    fn emit(&mut self, e: &CExpr, layout: &Layout) {
        match e {
            CExpr::Lit(b) => {
                let i = self.lit(b);
                self.ops.push(Op::Lit(i));
            }
            CExpr::Sig(i) => self.ops.push(Op::Sig {
                off: layout.sig_off[*i],
                width: layout.widths[*i],
            }),
            CExpr::Unary(op, e) => {
                self.emit(e, layout);
                self.ops.push(Op::Unary(*op));
            }
            CExpr::Binary(op, l, r) => {
                self.emit(l, layout);
                self.emit(r, layout);
                self.ops.push(Op::Binary(*op));
            }
            CExpr::Mux(s, t, e) => {
                self.emit(s, layout);
                let br = self.ops.len();
                self.ops.push(Op::BranchIfZero(0));
                self.emit(t, layout);
                let jmp = self.ops.len();
                self.ops.push(Op::Jump(0));
                let else_start = self.ops.len() as u32;
                self.ops[br] = Op::BranchIfZero(else_start);
                self.emit(e, layout);
                let end = self.ops.len() as u32;
                self.ops[jmp] = Op::Jump(end);
            }
            CExpr::Slice(e, hi, lo) => {
                self.emit(e, layout);
                self.ops.push(Op::Slice(*hi, *lo));
            }
            CExpr::Cat(h, l) => {
                self.emit(h, layout);
                self.emit(l, layout);
                self.ops.push(Op::Cat);
            }
            CExpr::MemRead(m, addr) => {
                self.emit(addr, layout);
                self.ops.push(Op::MemRead(*m as u32));
            }
        }
    }

    /// Emits single-word ops for `e` and returns its width, or `None`
    /// when some node is wider than one word or its operand widths fall
    /// outside the `bits` rule of its op (the general path then keeps
    /// that rule's behaviour). Every `Some` width is at most 64.
    fn emit_word(&mut self, e: &CExpr, layout: &Layout) -> Option<u32> {
        let width = match e {
            CExpr::Lit(b) => {
                self.word_ops.push(WordOp::Lit(b.to_u64()));
                b.width()
            }
            CExpr::Sig(i) => {
                self.word_ops.push(WordOp::Sig(layout.sig_off[*i]));
                layout.widths[*i]
            }
            CExpr::Unary(op, e) => {
                let w = self.emit_word(e, layout)?;
                let (op, width) = match op {
                    UnaryOp::Not => (WordOp::Not(mask(w)), w),
                    UnaryOp::Neg => (WordOp::Neg(mask(w)), w),
                    UnaryOp::ReduceAnd => (WordOp::ReduceAnd(mask(w)), 1),
                    UnaryOp::ReduceOr => (WordOp::ReduceOr, 1),
                    UnaryOp::ReduceXor => (WordOp::ReduceXor, 1),
                };
                self.word_ops.push(op);
                width
            }
            CExpr::Binary(op, l, r) => {
                let wl = self.emit_word(l, layout)?;
                let wr = self.emit_word(r, layout)?;
                if wl != wr && !op.is_shift() {
                    return None;
                }
                let (m, sext) = (mask(wl), 64 - wl);
                self.word_ops.push(match op {
                    BinaryOp::Add => WordOp::Add(m),
                    BinaryOp::Sub => WordOp::Sub(m),
                    BinaryOp::Mul => WordOp::Mul(m),
                    BinaryOp::Div => WordOp::Div(m),
                    BinaryOp::Rem => WordOp::Rem,
                    BinaryOp::And => WordOp::And,
                    BinaryOp::Or => WordOp::Or,
                    BinaryOp::Xor => WordOp::Xor,
                    BinaryOp::Shl => WordOp::Shl(wl),
                    BinaryOp::Shr => WordOp::Shr(wl),
                    BinaryOp::Ashr => WordOp::Ashr(wl),
                    BinaryOp::Eq => WordOp::Eq,
                    BinaryOp::Ne => WordOp::Ne,
                    BinaryOp::Lt => WordOp::Lt,
                    BinaryOp::Le => WordOp::Le,
                    BinaryOp::Gt => WordOp::Gt,
                    BinaryOp::Ge => WordOp::Ge,
                    BinaryOp::Lts => WordOp::Lts(sext),
                    BinaryOp::Les => WordOp::Les(sext),
                    BinaryOp::Gts => WordOp::Gts(sext),
                    BinaryOp::Ges => WordOp::Ges(sext),
                });
                if op.is_comparison() {
                    1
                } else {
                    wl
                }
            }
            CExpr::Mux(s, t, e) => {
                self.emit_word(s, layout)?;
                let br = self.word_ops.len();
                self.word_ops.push(WordOp::BranchIfZero(0));
                let wt = self.emit_word(t, layout)?;
                let jmp = self.word_ops.len();
                self.word_ops.push(WordOp::Jump(0));
                let else_start = self.word_ops.len() as u32;
                self.word_ops[br] = WordOp::BranchIfZero(else_start);
                let we = self.emit_word(e, layout)?;
                let end = self.word_ops.len() as u32;
                self.word_ops[jmp] = WordOp::Jump(end);
                // A mux's width is its taken arm's; only equal arms
                // give it one width.
                if wt != we {
                    return None;
                }
                wt
            }
            CExpr::Slice(e, hi, lo) => {
                let w = self.emit_word(e, layout)?;
                if hi < lo || *hi >= w {
                    return None;
                }
                let width = hi - lo + 1;
                self.word_ops.push(WordOp::Slice { lo: *lo, width });
                width
            }
            CExpr::Cat(h, l) => {
                let wh = self.emit_word(h, layout)?;
                let wl = self.emit_word(l, layout)?;
                self.word_ops.push(WordOp::Cat(wl));
                wh + wl
            }
            CExpr::MemRead(m, addr) => {
                self.emit_word(addr, layout)?;
                let mem = layout.mems[*m];
                self.word_ops.push(WordOp::MemRead {
                    base: mem.base,
                    depth: mem.depth,
                });
                mem.width
            }
        };
        (width <= 64).then_some(width)
    }
}

/// Exact operand-stack requirement of an expression (branches are
/// alternatives, not cumulative).
fn stack_depth(e: &CExpr) -> usize {
    match e {
        CExpr::Lit(_) | CExpr::Sig(_) => 1,
        CExpr::Unary(_, e) | CExpr::Slice(e, _, _) | CExpr::MemRead(_, e) => stack_depth(e),
        CExpr::Binary(_, l, r) | CExpr::Cat(l, r) => stack_depth(l).max(1 + stack_depth(r)),
        CExpr::Mux(s, t, e) => stack_depth(s).max(stack_depth(t)).max(stack_depth(e)),
    }
}

/// The signal and memory words of one plane of the word store.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Words<'a> {
    pub(crate) sigs: &'a [u64],
    pub(crate) mems: &'a [u64],
}

/// Executes one single-word range against the word store, using
/// `stack` (at least [`Program::max_stack`] words) as scratch. The top
/// of the stack lives in `acc`; the words below it in `stack`.
pub(crate) fn exec_word(
    prog: &Program,
    range: CodeRange,
    src: Words<'_>,
    stack: &mut [u64],
) -> u64 {
    let ops = &prog.word_ops;
    let mut acc = 0u64;
    let mut sp = 0usize;
    let mut pc = range.0 as usize;
    let end = range.1 as usize;
    while pc < end {
        // Pops the operand under `acc`.
        macro_rules! pop {
            () => {{
                sp -= 1;
                stack[sp]
            }};
        }
        match ops[pc] {
            WordOp::Lit(v) => {
                stack[sp] = acc;
                sp += 1;
                acc = v;
            }
            WordOp::Sig(o) => {
                stack[sp] = acc;
                sp += 1;
                acc = src.sigs[o as usize];
            }
            WordOp::Not(m) => acc = !acc & m,
            WordOp::Neg(m) => acc = acc.wrapping_neg() & m,
            WordOp::ReduceAnd(m) => acc = u64::from(acc == m),
            WordOp::ReduceOr => acc = u64::from(acc != 0),
            WordOp::ReduceXor => acc = u64::from(acc.count_ones() & 1),
            WordOp::Add(m) => acc = pop!().wrapping_add(acc) & m,
            WordOp::Sub(m) => acc = pop!().wrapping_sub(acc) & m,
            WordOp::Mul(m) => acc = pop!().wrapping_mul(acc) & m,
            WordOp::Div(m) => {
                let l = pop!();
                acc = l.checked_div(acc).unwrap_or(m);
            }
            WordOp::Rem => {
                let l = pop!();
                acc = l.checked_rem(acc).unwrap_or(l);
            }
            WordOp::And => acc &= pop!(),
            WordOp::Or => acc |= pop!(),
            WordOp::Xor => acc ^= pop!(),
            WordOp::Shl(w) => {
                let l = pop!();
                acc = if acc >= u64::from(w) {
                    0
                } else {
                    (l << acc) & mask(w)
                };
            }
            WordOp::Shr(w) => {
                let l = pop!();
                acc = if acc >= u64::from(w) { 0 } else { l >> acc };
            }
            WordOp::Ashr(w) => {
                // Sign-extended from `w` bits, a shift by `w - 1` already
                // leaves only the sign fill, so longer shifts clamp to it.
                let s = 64 - w;
                let signed = ((pop!() << s) as i64) >> s;
                acc = ((signed >> acc.min(u64::from(w - 1))) as u64) & mask(w);
            }
            WordOp::Eq => acc = u64::from(pop!() == acc),
            WordOp::Ne => acc = u64::from(pop!() != acc),
            WordOp::Lt => acc = u64::from(pop!() < acc),
            WordOp::Le => acc = u64::from(pop!() <= acc),
            WordOp::Gt => acc = u64::from(pop!() > acc),
            WordOp::Ge => acc = u64::from(pop!() >= acc),
            WordOp::Lts(s) => acc = u64::from(((pop!() << s) as i64) < ((acc << s) as i64)),
            WordOp::Les(s) => acc = u64::from(((pop!() << s) as i64) <= ((acc << s) as i64)),
            WordOp::Gts(s) => acc = u64::from(((pop!() << s) as i64) > ((acc << s) as i64)),
            WordOp::Ges(s) => acc = u64::from(((pop!() << s) as i64) >= ((acc << s) as i64)),
            WordOp::Slice { lo, width } => acc = (acc >> lo) & mask(width),
            WordOp::Cat(low_width) => acc |= pop!() << low_width,
            WordOp::MemRead { base, depth } => {
                acc = if acc < u64::from(depth) {
                    src.mems[base as usize + acc as usize]
                } else {
                    0
                };
            }
            WordOp::BranchIfZero(target) => {
                let c = acc;
                acc = pop!();
                if c == 0 {
                    pc = target as usize;
                    continue;
                }
            }
            WordOp::Jump(target) => {
                pc = target as usize;
                continue;
            }
        }
        pc += 1;
    }
    acc
}

/// Executes one general range against the word store, loading `Bits`
/// operands, using (and leaving empty) the scratch stack.
pub(crate) fn exec(
    prog: &Program,
    layout: &Layout,
    range: CodeRange,
    src: Words<'_>,
    stack: &mut Vec<Bits>,
) -> Bits {
    debug_assert!(stack.is_empty());
    let ops = &prog.ops;
    let mut pc = range.0 as usize;
    let end = range.1 as usize;
    while pc < end {
        match &ops[pc] {
            Op::Lit(i) => stack.push(prog.lits[*i as usize].clone()),
            Op::Sig { off, width } => {
                let off = *off as usize;
                stack.push(Bits::from_words(&src.sigs[off..], *width));
            }
            Op::Unary(op) => {
                let v = stack.last_mut().expect("operand");
                *v = match op {
                    UnaryOp::Not => v.not(),
                    UnaryOp::Neg => v.neg(),
                    UnaryOp::ReduceAnd => v.reduce_and(),
                    UnaryOp::ReduceOr => v.reduce_or(),
                    UnaryOp::ReduceXor => v.reduce_xor(),
                };
            }
            Op::Binary(op) => {
                let r = stack.pop().expect("rhs");
                let l = stack.last_mut().expect("lhs");
                *l = apply_binary(*op, l, &r);
            }
            Op::Slice(hi, lo) => {
                let v = stack.last_mut().expect("operand");
                *v = v.slice(*hi, *lo);
            }
            Op::Cat => {
                let low = stack.pop().expect("low");
                let high = stack.last_mut().expect("high");
                *high = high.concat(&low);
            }
            Op::MemRead(m) => {
                let a = stack.last_mut().expect("address");
                let mem = &layout.mems[*m as usize];
                *a = match mem.entry(a.to_u64()) {
                    Some(entry) => Bits::from_words(&src.mems[entry], mem.width),
                    None => Bits::zero(mem.width),
                };
            }
            Op::BranchIfZero(target) => {
                let c = stack.pop().expect("condition");
                if !c.is_truthy() {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::Jump(target) => {
                pc = *target as usize;
                continue;
            }
        }
        pc += 1;
    }
    stack.pop().expect("result")
}

/// The four-state word store during bytecode execution: the value
/// plane and the unknown plane, with the same layout.
#[derive(Clone, Copy)]
pub(crate) struct Planes<'a> {
    pub(crate) layout: &'a Layout,
    pub(crate) val: Words<'a>,
    pub(crate) unk: Words<'a>,
}

impl Planes<'_> {
    /// The four-state value of signal slot `i`.
    #[inline]
    pub(crate) fn get4(&self, i: usize) -> Bits4 {
        Bits4::from_planes(
            self.layout.load(self.val.sigs, i),
            self.layout.load(self.unk.sigs, i),
        )
    }
}

/// Executes one general range in four-state mode and returns the
/// result.
///
/// The one structural difference from [`exec`] is the branch handling:
/// a mux whose condition is unknown cannot pick an arm, so both arm
/// ranges are evaluated (recursively — arms can nest) and merged with
/// [`Bits4::merge`], per IEEE-1800 §11.4.11. Known conditions keep the
/// lazy single-arm evaluation.
pub(crate) fn exec4(
    prog: &Program,
    range: CodeRange,
    planes: Planes<'_>,
    stack: &mut Vec<Bits4>,
) -> Bits4 {
    debug_assert!(stack.is_empty());
    exec4_range(prog, range.0 as usize, range.1 as usize, planes, stack);
    let result = stack.pop().expect("result");
    debug_assert!(stack.is_empty());
    result
}

/// Runs ops in `[start, end)`, leaving the range's one result value on
/// the stack.
fn exec4_range(
    prog: &Program,
    start: usize,
    end: usize,
    planes: Planes<'_>,
    stack: &mut Vec<Bits4>,
) {
    let ops = &prog.ops;
    let mut pc = start;
    while pc < end {
        match &ops[pc] {
            Op::Lit(i) => stack.push(Bits4::known(prog.lits[*i as usize].clone())),
            Op::Sig { off, width } => {
                let off = *off as usize;
                stack.push(Bits4::from_planes(
                    Bits::from_words(&planes.val.sigs[off..], *width),
                    Bits::from_words(&planes.unk.sigs[off..], *width),
                ));
            }
            Op::Unary(op) => {
                let v = stack.last_mut().expect("operand");
                *v = apply_unary4(*op, v);
            }
            Op::Binary(op) => {
                let r = stack.pop().expect("rhs");
                let l = stack.last_mut().expect("lhs");
                *l = apply_binary4(*op, l, &r);
            }
            Op::Slice(hi, lo) => {
                let v = stack.last_mut().expect("operand");
                *v = v.slice(*hi, *lo);
            }
            Op::Cat => {
                let low = stack.pop().expect("low");
                let high = stack.last_mut().expect("high");
                *high = high.concat(&low);
            }
            Op::MemRead(m) => {
                let a = stack.last_mut().expect("address");
                let mem = &planes.layout.mems[*m as usize];
                *a = match a.to_known() {
                    Some(addr) => match mem.entry(addr.to_u64()) {
                        Some(entry) => Bits4::from_planes(
                            Bits::from_words(&planes.val.mems[entry.clone()], mem.width),
                            Bits::from_words(&planes.unk.mems[entry], mem.width),
                        ),
                        None => Bits4::known(Bits::zero(mem.width)),
                    },
                    // An unknown address could alias any word.
                    None => Bits4::all_x(mem.width),
                };
            }
            Op::BranchIfZero(target) => {
                let c = stack.pop().expect("condition");
                match c.truthiness() {
                    Some(true) => {} // fall through into the then-arm
                    Some(false) => {
                        pc = *target as usize;
                        continue;
                    }
                    None => {
                        // The compiler always emits `Jump(arm_end)`
                        // immediately before the else-arm entry; it
                        // bounds both arm ranges.
                        let else_start = *target as usize;
                        let arm_end = match &ops[else_start - 1] {
                            Op::Jump(e) => *e as usize,
                            other => unreachable!("mux shape: expected Jump, got {other:?}"),
                        };
                        exec4_range(prog, pc + 1, else_start - 1, planes, stack);
                        let t = stack.pop().expect("then arm");
                        exec4_range(prog, else_start, arm_end, planes, stack);
                        let e = stack.pop().expect("else arm");
                        stack.push(Bits4::merge(&t, &e));
                        pc = arm_end;
                        continue;
                    }
                }
            }
            Op::Jump(target) => {
                pc = *target as usize;
                continue;
            }
        }
        pc += 1;
    }
}

/// Orders combinational defs for the sweep with Kahn's algorithm.
///
/// `preds[d]` lists the defs that def `d` reads, once per read.
/// Returns an order in which every def follows all of its
/// predecessors. When the def graph is cyclic it returns the residual
/// in-degrees instead: nonzero exactly for the defs Kahn could not
/// order, each of which sits on or downstream of a cycle.
pub(crate) fn topo_order(preds: &[Vec<usize>]) -> Result<Vec<usize>, Vec<usize>> {
    let n = preds.len();
    let mut indegree: Vec<usize> = preds.iter().map(Vec::len).collect();
    let dependents = dependents(preds);
    let mut ready: Vec<usize> = (0..n).filter(|&d| indegree[d] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(d) = ready.pop() {
        order.push(d);
        for &next in &dependents[d] {
            indegree[next] -= 1;
            if indegree[next] == 0 {
                ready.push(next);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        Err(indegree)
    }
}

/// Inverts a def graph: entry `p` of the result lists every def that
/// reads def `p`, once per read, in ascending def order.
pub(crate) fn dependents(preds: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut dependents = vec![Vec::new(); preds.len()];
    for (d, ps) in preds.iter().enumerate() {
        for &p in ps {
            dependents[p].push(d);
        }
    }
    dependents
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::RefMem;
    use proptest::prelude::*;

    /// Deterministic SplitMix64 for random expression generation.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn bits(&mut self, width: u32) -> Bits {
            let words: Vec<u64> = (0..width.div_ceil(64)).map(|_| self.next()).collect();
            Bits::from_words(&words, width)
        }
    }

    /// A word store holding `values` and the memories `mems`, laid out
    /// as the simulator lays out a netlist with those signals and
    /// memories.
    struct Store {
        layout: Layout,
        sigs: Vec<u64>,
        mems: Vec<u64>,
    }

    impl Store {
        fn new(values: &[Bits], mems: &[RefMem]) -> Store {
            let shapes: Vec<(u32, u32)> = mems
                .iter()
                .map(|m| (m.width, m.words.len() as u32))
                .collect();
            let layout = Layout::new(values.iter().map(Bits::width).collect(), &shapes);
            let mut sigs = vec![0; layout.sig_words()];
            for (i, v) in values.iter().enumerate() {
                sigs[layout.sig(i)].copy_from_slice(v.words());
            }
            let mut mem_words = vec![0; layout.mem_words];
            for (m, mem) in mems.iter().enumerate() {
                for (a, w) in mem.words.iter().enumerate() {
                    let entry = layout.mems[m].entry(a as u64).unwrap();
                    mem_words[entry].copy_from_slice(w.words());
                }
            }
            Store {
                layout,
                sigs,
                mems: mem_words,
            }
        }

        fn words(&self) -> Words<'_> {
            Words {
                sigs: &self.sigs,
                mems: &self.mems,
            }
        }

        /// The four-state view of this store with `unk`, a store of the
        /// same shape, as its unknown plane.
        fn planes<'a>(&'a self, unk: &'a Store) -> Planes<'a> {
            Planes {
                layout: &self.layout,
                val: self.words(),
                unk: unk.words(),
            }
        }
    }

    /// The widest node of `e`, by the `bits` rules.
    fn max_width(e: &CExpr, widths: &[u32], mems: &[RefMem]) -> (u32, u32) {
        let (own, below) = match e {
            CExpr::Lit(b) => (b.width(), 0),
            CExpr::Sig(i) => (widths[*i], 0),
            CExpr::Unary(op, e) => {
                let (w, m) = max_width(e, widths, mems);
                let own = match op {
                    UnaryOp::Not | UnaryOp::Neg => w,
                    _ => 1,
                };
                (own, m)
            }
            CExpr::Binary(op, l, r) => {
                let (wl, ml) = max_width(l, widths, mems);
                let (_, mr) = max_width(r, widths, mems);
                (if op.is_comparison() { 1 } else { wl }, ml.max(mr))
            }
            CExpr::Mux(s, t, e) => {
                let (_, ms) = max_width(s, widths, mems);
                let (wt, mt) = max_width(t, widths, mems);
                let (_, me) = max_width(e, widths, mems);
                (wt, ms.max(mt).max(me))
            }
            CExpr::Slice(e, hi, lo) => (hi - lo + 1, max_width(e, widths, mems).1),
            CExpr::Cat(h, l) => {
                let (wh, mh) = max_width(h, widths, mems);
                let (wl, ml) = max_width(l, widths, mems);
                (wh + wl, mh.max(ml))
            }
            CExpr::MemRead(m, addr) => (mems[*m].width, max_width(addr, widths, mems).1),
        };
        (own, own.max(below))
    }

    /// Random expression of the given result width over `nsigs`
    /// signals and `nmems` memories; depth-bounded.
    fn arb_expr(rng: &mut Rng, widths: &[u32], mems: &[RefMem], width: u32, depth: u32) -> CExpr {
        use BinaryOp::*;
        if depth == 0 {
            // Leaves: a literal, or a signal of the right width if one
            // exists.
            let candidates: Vec<usize> = widths
                .iter()
                .enumerate()
                .filter(|(_, w)| **w == width)
                .map(|(i, _)| i)
                .collect();
            if !candidates.is_empty() && rng.below(2) == 0 {
                return CExpr::Sig(candidates[rng.below(candidates.len() as u64) as usize]);
            }
            return CExpr::Lit(rng.bits(width));
        }
        let d = depth - 1;
        match rng.below(12) {
            0 => {
                let ops = [
                    UnaryOp::Not,
                    UnaryOp::Neg,
                    UnaryOp::ReduceAnd,
                    UnaryOp::ReduceOr,
                    UnaryOp::ReduceXor,
                ];
                let op = ops[rng.below(5) as usize];
                match op {
                    UnaryOp::Not | UnaryOp::Neg => {
                        CExpr::Unary(op, Box::new(arb_expr(rng, widths, mems, width, d)))
                    }
                    // Reductions force a 1-bit result; only usable there.
                    _ if width == 1 => {
                        let w = 1 + rng.below(100) as u32;
                        CExpr::Unary(op, Box::new(arb_expr(rng, widths, mems, w, d)))
                    }
                    _ => CExpr::Lit(rng.bits(width)),
                }
            }
            1..=4 => {
                let same_width = [Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Ashr];
                let op = same_width[rng.below(same_width.len() as u64) as usize];
                CExpr::Binary(
                    op,
                    Box::new(arb_expr(rng, widths, mems, width, d)),
                    Box::new(arb_expr(rng, widths, mems, width, d)),
                )
            }
            5 if width == 1 => {
                let cmps = [Eq, Ne, Lt, Le, Gt, Ge, Lts, Les, Gts, Ges];
                let op = cmps[rng.below(cmps.len() as u64) as usize];
                let w = 1 + rng.below(100) as u32;
                CExpr::Binary(
                    op,
                    Box::new(arb_expr(rng, widths, mems, w, d)),
                    Box::new(arb_expr(rng, widths, mems, w, d)),
                )
            }
            6 | 7 => {
                let sel_w = 1 + rng.below(8) as u32;
                CExpr::Mux(
                    Box::new(arb_expr(rng, widths, mems, sel_w, d)),
                    Box::new(arb_expr(rng, widths, mems, width, d)),
                    Box::new(arb_expr(rng, widths, mems, width, d)),
                )
            }
            8 => {
                // Slice of something wider.
                let extra = rng.below(70) as u32;
                let src_w = width + extra;
                let lo = rng.below((src_w - width + 1) as u64) as u32;
                CExpr::Slice(
                    Box::new(arb_expr(rng, widths, mems, src_w, d)),
                    lo + width - 1,
                    lo,
                )
            }
            9 if width >= 2 => {
                let hw = 1 + rng.below((width - 1) as u64) as u32;
                CExpr::Cat(
                    Box::new(arb_expr(rng, widths, mems, hw, d)),
                    Box::new(arb_expr(rng, widths, mems, width - hw, d)),
                )
            }
            10 if !mems.is_empty() => {
                let candidates: Vec<usize> = mems
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| m.width == width)
                    .map(|(i, _)| i)
                    .collect();
                if candidates.is_empty() {
                    CExpr::Lit(rng.bits(width))
                } else {
                    let m = candidates[rng.below(candidates.len() as u64) as usize];
                    CExpr::MemRead(m, Box::new(arb_expr(rng, widths, mems, 8, d)))
                }
            }
            _ => CExpr::Lit(rng.bits(width)),
        }
    }

    proptest! {
        /// The compiled bytecode must agree with the tree-walking
        /// reference evaluator on random expression trees — narrow
        /// (single-word) and multi-word widths alike. The general ops
        /// always run; the single-word ops run whenever they were
        /// emitted, and they are emitted exactly when no node of the
        /// expression is wider than one word.
        #[test]
        fn bytecode_matches_tree_walk(seed in any::<u64>()) {
            let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1);
            // Random signal environment: mix of narrow and wide slots.
            let nsigs = 2 + rng.below(6) as usize;
            let widths: Vec<u32> = (0..nsigs)
                .map(|_| {
                    if rng.below(3) == 0 {
                        65 + rng.below(120) as u32
                    } else {
                        1 + rng.below(64) as u32
                    }
                })
                .collect();
            let values: Vec<Bits> = widths.iter().map(|&w| rng.bits(w)).collect();
            let mem_width = 1 + rng.below(90) as u32;
            let mems = vec![RefMem {
                width: mem_width,
                words: (0..8).map(|_| rng.bits(mem_width)).collect(),
            }];
            let width = if rng.below(3) == 0 {
                65 + rng.below(80) as u32
            } else {
                1 + rng.below(64) as u32
            };
            let expr = arb_expr(&mut rng, &widths, &mems, width, 4);

            let expected = expr.eval(&values, &mems);
            let store = Store::new(&values, &mems);
            let mut prog = Program::default();
            let code = prog.compile(&expr, &store.layout);
            let mut stack = Vec::with_capacity(prog.max_stack);
            let got = exec(&prog, &store.layout, code.ops, store.words(), &mut stack);
            prop_assert!(stack.is_empty(), "stack not drained (seed {})", seed);
            prop_assert_eq!(&got, &expected, "seed {}", seed);
            // The stack bound is exact per expression; the scratch
            // vector must never have outgrown its preallocation.
            prop_assert!(stack.capacity() <= prog.max_stack.max(4));

            let narrow = max_width(&expr, &widths, &mems).1 <= 64;
            prop_assert_eq!(code.word.is_some(), narrow, "seed {}", seed);
            if let Some(range) = code.word {
                let mut words = vec![0; prog.max_stack];
                let got = exec_word(&prog, range, store.words(), &mut words);
                prop_assert_eq!(got, expected.to_u64(), "single-word, seed {}", seed);
            }
        }
    }

    proptest! {
        /// On fully-known inputs the four-state executor must agree
        /// bit-for-bit with the two-state one (and report no unknowns).
        #[test]
        fn four_state_matches_two_state_on_known_inputs(seed in any::<u64>()) {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) + 3);
            let nsigs = 2 + rng.below(6) as usize;
            let widths: Vec<u32> = (0..nsigs)
                .map(|_| {
                    if rng.below(3) == 0 {
                        65 + rng.below(120) as u32
                    } else {
                        1 + rng.below(64) as u32
                    }
                })
                .collect();
            let values: Vec<Bits> = widths.iter().map(|&w| rng.bits(w)).collect();
            let unks: Vec<Bits> = widths.iter().map(|&w| Bits::zero(w)).collect();
            let mem_width = 1 + rng.below(90) as u32;
            let mems = vec![RefMem {
                width: mem_width,
                words: (0..8).map(|_| rng.bits(mem_width)).collect(),
            }];
            let munks = vec![RefMem {
                width: mem_width,
                words: vec![Bits::zero(mem_width); 8],
            }];
            let width = 1 + rng.below(64) as u32;
            let expr = arb_expr(&mut rng, &widths, &mems, width, 4);

            let val = Store::new(&values, &mems);
            let unk = Store::new(&unks, &munks);
            let mut prog = Program::default();
            let code = prog.compile(&expr, &val.layout);
            let mut stack = Vec::new();
            let expected = exec(&prog, &val.layout, code.ops, val.words(), &mut stack);
            let mut stack4 = Vec::new();
            let got = exec4(&prog, code.ops, val.planes(&unk), &mut stack4);
            prop_assert!(got.is_fully_known(), "seed {}", seed);
            prop_assert_eq!(got.to_known().unwrap(), &expected, "seed {}", seed);
        }
    }

    /// Compiles `e` over one signal of `width` bits and the memories
    /// `mems`.
    fn compile_one(e: &CExpr, width: u32, mems: &[RefMem]) -> (Program, CodeRange) {
        let store = Store::new(&[Bits::zero(width)], mems);
        let mut prog = Program::default();
        let code = prog.compile(e, &store.layout);
        (prog, code.ops)
    }

    /// An unknown mux select evaluates both arms and merges them:
    /// agreeing bits stay known, disagreeing bits go x.
    #[test]
    fn x_select_merges_mux_arms() {
        let e = CExpr::Mux(
            Box::new(CExpr::Sig(0)),
            Box::new(CExpr::Lit(Bits::from_u64(0b111, 3))),
            Box::new(CExpr::Lit(Bits::from_u64(0b101, 3))),
        );
        let (prog, range) = compile_one(&e, 1, &[]);
        // sig 0 is x.
        let val = Store::new(&[Bits::ones(1)], &[]);
        let unk = Store::new(&[Bits::ones(1)], &[]);
        let mut stack = Vec::new();
        let got = exec4(&prog, range, val.planes(&unk), &mut stack);
        assert_eq!(got.bit_char(0), '1');
        assert_eq!(got.bit_char(1), 'x');
        assert_eq!(got.bit_char(2), '1');
        // A known select keeps lazy single-arm evaluation and a fully
        // known result.
        let val = Store::new(&[Bits::zero(1)], &[]);
        let unk = Store::new(&[Bits::zero(1)], &[]);
        let got = exec4(&prog, range, val.planes(&unk), &mut stack);
        assert_eq!(got.to_known().unwrap().to_u64(), 0b101);
    }

    /// Nested muxes under an unknown outer select recurse correctly.
    #[test]
    fn nested_x_mux_recursion() {
        // mux(x, mux(1, 5, 9), 5) == 5 known; then-arm contains its own
        // branch structure.
        let inner = CExpr::Mux(
            Box::new(CExpr::Lit(Bits::from_bool(true))),
            Box::new(CExpr::Lit(Bits::from_u64(5, 4))),
            Box::new(CExpr::Lit(Bits::from_u64(9, 4))),
        );
        let e = CExpr::Mux(
            Box::new(CExpr::Sig(0)),
            Box::new(inner),
            Box::new(CExpr::Lit(Bits::from_u64(5, 4))),
        );
        let (prog, range) = compile_one(&e, 1, &[]);
        let val = Store::new(&[Bits::ones(1)], &[]);
        let unk = Store::new(&[Bits::ones(1)], &[]);
        let mut stack = Vec::new();
        let got = exec4(&prog, range, val.planes(&unk), &mut stack);
        assert_eq!(got.to_known().unwrap().to_u64(), 5, "arms agree => known");
    }

    /// An unknown memory address reads as all-x; a known one reads the
    /// word's planes.
    #[test]
    fn mem_read_unknown_address_is_x() {
        let e = CExpr::MemRead(0, Box::new(CExpr::Sig(0)));
        let mems = [RefMem {
            width: 8,
            words: vec![Bits::from_u64(0xAB, 8), Bits::from_u64(0xCD, 8)],
        }];
        let munks = [RefMem {
            width: 8,
            words: vec![Bits::zero(8), Bits::ones(8)],
        }];
        let (prog, range) = compile_one(&e, 4, &mems);
        let mut stack = Vec::new();
        let read = |addr: Bits, addr_unk: Bits, stack: &mut Vec<Bits4>| {
            let val = Store::new(&[addr], &mems);
            let unk = Store::new(&[addr_unk], &munks);
            exec4(&prog, range, val.planes(&unk), stack)
        };
        // Unknown address.
        let got = read(Bits::zero(4), Bits::ones(4), &mut stack);
        assert_eq!(got, Bits4::all_x(8));
        // Known address 1 hits the x word.
        let got = read(Bits::from_u64(1, 4), Bits::zero(4), &mut stack);
        assert!(!got.is_fully_known());
        // Known out-of-range address reads zero, matching 2-state.
        let got = read(Bits::from_u64(9, 4), Bits::zero(4), &mut stack);
        assert_eq!(got.to_known().unwrap().to_u64(), 0);
    }

    /// Mux arms must stay lazy: the untaken arm is never executed.
    /// (Divide-by-zero is total in this IR, so laziness is purely a
    /// performance property — asserted here via an address that would
    /// be counted by a MemRead if executed.)
    #[test]
    fn mux_skips_untaken_arm() {
        let e = CExpr::Mux(
            Box::new(CExpr::Lit(Bits::from_bool(true))),
            Box::new(CExpr::Lit(Bits::from_u64(7, 8))),
            Box::new(CExpr::Binary(
                BinaryOp::Add,
                Box::new(CExpr::Lit(Bits::from_u64(1, 8))),
                Box::new(CExpr::Lit(Bits::from_u64(2, 8))),
            )),
        );
        let store = Store::new(&[], &[]);
        let mut prog = Program::default();
        let code = prog.compile(&e, &store.layout);
        let mut stack = Vec::new();
        let got = exec(&prog, &store.layout, code.ops, store.words(), &mut stack);
        assert_eq!(got.to_u64(), 7);
        let mut words = vec![0; prog.max_stack];
        let word = code.word.expect("every node fits a word");
        assert_eq!(exec_word(&prog, word, store.words(), &mut words), 7);
        // The else-arm is three ops (two pushes + add); count executed
        // ops by instrumenting pc coverage is overkill — instead verify
        // the branch targets skip it entirely.
        let br_target = prog
            .ops
            .iter()
            .find_map(|op| match op {
                Op::BranchIfZero(t) => Some(*t),
                _ => None,
            })
            .expect("branch emitted");
        let jump_target = prog
            .ops
            .iter()
            .find_map(|op| match op {
                Op::Jump(t) => Some(*t),
                _ => None,
            })
            .expect("jump emitted");
        assert!(jump_target as usize == prog.ops.len());
        assert!(br_target < jump_target);
    }

    /// Asserts that `order` lists every def of `preds` exactly once,
    /// each after all of its predecessors.
    fn assert_topological(preds: &[Vec<usize>], order: &[usize]) {
        assert_eq!(order.len(), preds.len(), "every def is ordered");
        let mut pos = vec![usize::MAX; preds.len()];
        for (i, &d) in order.iter().enumerate() {
            assert_eq!(pos[d], usize::MAX, "def {d} ordered twice");
            pos[d] = i;
        }
        for (d, ps) in preds.iter().enumerate() {
            for &pr in ps {
                assert!(pos[pr] < pos[d], "pred {pr} must precede {d}");
            }
        }
    }

    /// Two disjoint chains, 0 -> 1 -> 2 and 3 -> 4: each keeps its
    /// dependency order wherever the other chain's defs land.
    #[test]
    fn partition_splits_independent_chains() {
        let preds = vec![vec![], vec![0], vec![1], vec![], vec![3]];
        let order = topo_order(&preds).unwrap();
        assert_topological(&preds, &order);
    }

    /// Diamond: 0 feeds 1 and 2, and 3 reads both, one of them twice.
    /// The source comes first, the sink last, and a repeated read
    /// counts once per read on both sides of the in-degree bookkeeping.
    #[test]
    fn partition_diamond_is_one_region_with_levels() {
        let preds = vec![vec![], vec![0], vec![0], vec![1, 2, 1]];
        let order = topo_order(&preds).unwrap();
        assert_topological(&preds, &order);
        assert_eq!(order[0], 0);
        assert_eq!(order[3], 3);
        assert_eq!(
            dependents(&preds),
            vec![vec![1, 2], vec![3, 3], vec![3], vec![]]
        );
    }

    /// Defs that read no other def are all ready at once; each is
    /// ordered exactly once.
    #[test]
    fn partition_of_isolated_defs_is_all_singletons() {
        let preds = vec![vec![], vec![], vec![]];
        let mut order = topo_order(&preds).unwrap();
        assert_topological(&preds, &order);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2]);
    }

    /// Two chains joined at the tail are ordered topologically; closing
    /// a cycle through one chain leaves no order, and the residual
    /// in-degrees mark exactly the defs on that cycle.
    #[test]
    fn partition_final_order_is_topological() {
        let mut preds = vec![vec![], vec![], vec![0], vec![1], vec![2, 3]];
        let order = topo_order(&preds).unwrap();
        assert_topological(&preds, &order);
        // 0 now reads 4: the cycle is 0 -> 2 -> 4 -> 0, while 1 and 3
        // only feed it.
        preds[0].push(4);
        let residual = topo_order(&preds).unwrap_err();
        let unordered: Vec<usize> = (0..preds.len()).filter(|&d| residual[d] > 0).collect();
        assert_eq!(unordered, vec![0, 2, 4]);
    }
}
