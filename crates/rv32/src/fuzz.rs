//! Random-program differential fuzzing: CPU vs ISS in lockstep.
//!
//! The straight-line ALU proptest in `tests/differential.rs` cannot
//! exercise control flow, because a random branch target is almost
//! always out of range — and the two models legitimately disagree on
//! out-of-range behaviour (the hardware wraps memory indices, the ISS
//! clamps). This module closes the gap with a *constrained* program
//! generator: ops are drawn at a level where every branch, jump and
//! memory access is in-range **by construction**, then lowered to
//! real RV32 machine words that both models execute identically.
//!
//! The constraints, and why each exists:
//!
//! * control flow is forward-only (branch/jump targets are "skip the
//!   next `n` ops", resolved to byte offsets at lowering) — programs
//!   always terminate within one pass, and the appended `ecall` is
//!   always reached;
//! * indirect jumps exist only as an atomic `auipc x31, 0` +
//!   `jalr rd, x31, off` pair, so the register-relative target is a
//!   known in-range forward address;
//! * loads and stores mask their base register (`andi x31, base,
//!   0x7fc`) so the effective address stays inside data memory, where
//!   wrap-vs-clamp never matters.
//!
//! `x31` is the lowering scratch register. Random ops may still read
//! or write it — each lowered pair recomputes it immediately before
//! use, so this is safe and keeps the register universe full.
//!
//! Failures shrink with a delta-debugging loop ([`shrink`]): chunk
//! removal, then per-op simplification, re-lowering and re-running
//! the candidate at every step.

use bits::Bits;
use hgf::CircuitBuilder;
use rtl_sim::{SimConfig, SimControl, Simulator};

use crate::isa::{branch, Inst};
use crate::iss::Iss;
use crate::{build_core, CoreConfig};

/// Memory shape used by the fuzz harness: big enough for the longest
/// lowered program (`MAX_OPS * 2 + 1` words), small enough that the
/// full-memory compare after each run stays cheap.
pub const FUZZ_CFG: CoreConfig = CoreConfig {
    imem_words: 256,
    dmem_words: 1024,
};

/// Generator cap on ops per program. Keeps the lowered image well
/// inside the 12-bit `jalr` immediate (`2*96+1` words = 772 bytes)
/// and inside [`FUZZ_CFG`]'s instruction memory.
pub const MAX_OPS: usize = 96;

/// Base-register mask for loads/stores: word-aligned, and with the
/// maximum word offset still inside [`FUZZ_CFG`]'s data memory
/// (`0x7fc + 255*4 < 1024 * 4`).
const ADDR_MASK: i32 = 0x7FC;

/// One generator-level operation. Every variant lowers to one or two
/// machine instructions with in-range semantics (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzOp {
    /// Register-register ALU op (`alt` selects SUB/SRA where legal).
    Alu {
        /// Operation selector (RV32 funct3).
        funct3: u8,
        /// SUB/SRA variant bit.
        alt: bool,
        /// Destination register.
        rd: u8,
        /// First source register.
        rs1: u8,
        /// Second source register.
        rs2: u8,
    },
    /// Register-immediate ALU op; shifts take their shamt from
    /// `imm[4:0]` with the SRA bit in `imm[10]`.
    AluImm {
        /// Operation selector (RV32 funct3).
        funct3: u8,
        /// Destination register.
        rd: u8,
        /// Source register.
        rs1: u8,
        /// 12-bit signed immediate.
        imm: i32,
    },
    /// 32-bit multiply (the core's one M-extension op).
    Mul {
        /// Destination register.
        rd: u8,
        /// First source register.
        rs1: u8,
        /// Second source register.
        rs2: u8,
    },
    /// Load upper immediate.
    Lui {
        /// Destination register.
        rd: u8,
        /// Upper-immediate payload, already shifted (`v << 12`).
        imm: i32,
    },
    /// PC-relative upper immediate.
    Auipc {
        /// Destination register.
        rd: u8,
        /// Upper-immediate payload, already shifted (`v << 12`).
        imm: i32,
    },
    /// Masked load: `andi x31, base, 0x7fc; lw rd, woff*4(x31)`.
    Load {
        /// Destination register.
        rd: u8,
        /// Base register (masked through x31).
        base: u8,
        /// Word offset, `0..256`.
        woff: u8,
    },
    /// Masked store: `andi x31, base, 0x7fc; sw src, woff*4(x31)`.
    Store {
        /// Register whose value is stored.
        src: u8,
        /// Base register (masked through x31).
        base: u8,
        /// Word offset, `0..256`.
        woff: u8,
    },
    /// Conditional forward branch over the next `skip` ops.
    SkipIf {
        /// Comparison selector (one of [`branch`]'s funct3 codes).
        funct3: u8,
        /// First compared register.
        rs1: u8,
        /// Second compared register.
        rs2: u8,
        /// Ops to skip when taken (clamped to program end).
        skip: u8,
    },
    /// Unconditional forward jump (`jal link, …`) over `skip` ops.
    Jump {
        /// Link register (x0 discards the return address).
        link: u8,
        /// Ops to skip (clamped to program end).
        skip: u8,
    },
    /// Indirect forward jump: `auipc x31, 0; jalr link, x31, off`.
    JumpIndirect {
        /// Link register.
        link: u8,
        /// Ops to skip (clamped to program end).
        skip: u8,
    },
}

/// Machine instructions this op lowers to.
fn op_len(op: &FuzzOp) -> u32 {
    match op {
        FuzzOp::Load { .. } | FuzzOp::Store { .. } | FuzzOp::JumpIndirect { .. } => 2,
        _ => 1,
    }
}

/// Lowers an op sequence to machine words, appending the terminating
/// `ecall`. Skip counts resolve to byte offsets here; targets past
/// the last op clamp to the `ecall`.
pub fn lower(ops: &[FuzzOp]) -> Vec<u32> {
    let mut starts = Vec::with_capacity(ops.len() + 1);
    let mut at = 0u32;
    for op in ops {
        starts.push(at);
        at += op_len(op);
    }
    let total = at; // instruction index of the ecall
    starts.push(total);

    let target_of = |i: usize, skip: u8| {
        let j = (i + 1 + skip as usize).min(ops.len());
        starts[j]
    };

    let mut words = Vec::with_capacity(total as usize + 1);
    for (i, op) in ops.iter().enumerate() {
        let here = starts[i];
        match *op {
            FuzzOp::Alu {
                funct3,
                alt,
                rd,
                rs1,
                rs2,
            } => {
                let funct7 = if alt && (funct3 == 0 || funct3 == 0b101) {
                    0x20
                } else {
                    0
                };
                words.push(
                    Inst::Op {
                        funct3,
                        funct7,
                        rd,
                        rs1,
                        rs2,
                    }
                    .encode(),
                );
            }
            FuzzOp::AluImm {
                funct3,
                rd,
                rs1,
                imm,
            } => words.push(
                Inst::OpImm {
                    funct3,
                    rd,
                    rs1,
                    imm,
                }
                .encode(),
            ),
            FuzzOp::Mul { rd, rs1, rs2 } => words.push(
                Inst::Op {
                    funct3: 0,
                    funct7: 1,
                    rd,
                    rs1,
                    rs2,
                }
                .encode(),
            ),
            FuzzOp::Lui { rd, imm } => words.push(Inst::Lui { rd, imm }.encode()),
            FuzzOp::Auipc { rd, imm } => words.push(Inst::Auipc { rd, imm }.encode()),
            FuzzOp::Load { rd, base, woff } => {
                words.push(
                    Inst::OpImm {
                        funct3: 0b111,
                        rd: 31,
                        rs1: base,
                        imm: ADDR_MASK,
                    }
                    .encode(),
                );
                words.push(
                    Inst::Lw {
                        rd,
                        rs1: 31,
                        offset: woff as i32 * 4,
                    }
                    .encode(),
                );
            }
            FuzzOp::Store { src, base, woff } => {
                words.push(
                    Inst::OpImm {
                        funct3: 0b111,
                        rd: 31,
                        rs1: base,
                        imm: ADDR_MASK,
                    }
                    .encode(),
                );
                words.push(
                    Inst::Sw {
                        rs1: 31,
                        rs2: src,
                        offset: woff as i32 * 4,
                    }
                    .encode(),
                );
            }
            FuzzOp::SkipIf {
                funct3,
                rs1,
                rs2,
                skip,
            } => {
                let offset = (target_of(i, skip) - here) as i32 * 4;
                words.push(
                    Inst::Branch {
                        funct3,
                        rs1,
                        rs2,
                        offset,
                    }
                    .encode(),
                );
            }
            FuzzOp::Jump { link, skip } => {
                let offset = (target_of(i, skip) - here) as i32 * 4;
                words.push(Inst::Jal { rd: link, offset }.encode());
            }
            FuzzOp::JumpIndirect { link, skip } => {
                // x31 := pc of the auipc; the jalr immediate is then
                // the plain forward byte distance from that pc.
                let offset = (target_of(i, skip) - here) as i32 * 4;
                debug_assert!(offset <= 2047, "program too long for jalr immediate");
                words.push(Inst::Auipc { rd: 31, imm: 0 }.encode());
                words.push(
                    Inst::Jalr {
                        rd: link,
                        rs1: 31,
                        offset,
                    }
                    .encode(),
                );
            }
        }
    }
    words.push(Inst::Ecall.encode());
    words
}

/// Deterministic xorshift64* generator: the fuzzer's only entropy
/// source, so every program is reproducible from its `u64` seed.
#[derive(Debug, Clone)]
pub struct FuzzRng(u64);

impl FuzzRng {
    /// Seeded generator (seed 0 is remapped; xorshift has no zero
    /// state).
    pub fn new(seed: u64) -> FuzzRng {
        FuzzRng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn reg(&mut self) -> u8 {
        self.below(32) as u8
    }

    /// A 12-bit immediate biased toward boundary values.
    fn imm12(&mut self) -> i32 {
        match self.below(4) {
            0 => self.below(17) as i32 - 8,
            1 => *[0, 1, -1, 4, -4, 2047, -2048]
                .get(self.below(7) as usize)
                .unwrap_or(&0),
            _ => self.below(4096) as i32 - 2048,
        }
    }
}

/// Expands a seed into a full random program of at most `max_ops`
/// ops. The distribution favours ALU traffic with enough control
/// flow and memory traffic to keep all datapaths hot.
pub fn gen_program(seed: u64, max_ops: usize) -> Vec<FuzzOp> {
    let max_ops = max_ops.min(MAX_OPS);
    let mut rng = FuzzRng::new(seed);
    let len = 1 + rng.below(max_ops as u64) as usize;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let op = match rng.below(16) {
            0..=4 => FuzzOp::Alu {
                funct3: rng.below(8) as u8,
                alt: rng.below(2) == 1,
                rd: rng.reg(),
                rs1: rng.reg(),
                rs2: rng.reg(),
            },
            5..=8 => {
                let funct3 = rng.below(8) as u8;
                let imm = match funct3 {
                    0b001 => rng.below(32) as i32,
                    0b101 => rng.below(32) as i32 | if rng.below(2) == 1 { 1 << 10 } else { 0 },
                    _ => rng.imm12(),
                };
                FuzzOp::AluImm {
                    funct3,
                    rd: rng.reg(),
                    rs1: rng.reg(),
                    imm,
                }
            }
            9 => FuzzOp::Mul {
                rd: rng.reg(),
                rs1: rng.reg(),
                rs2: rng.reg(),
            },
            10 => FuzzOp::Lui {
                rd: rng.reg(),
                imm: (rng.below(1 << 20) as i32 - (1 << 19)) << 12,
            },
            11 => FuzzOp::Auipc {
                rd: rng.reg(),
                imm: (rng.below(1 << 20) as i32 - (1 << 19)) << 12,
            },
            12 => FuzzOp::Load {
                rd: rng.reg(),
                base: rng.reg(),
                woff: rng.reg(),
            },
            13 => FuzzOp::Store {
                src: rng.reg(),
                base: rng.reg(),
                woff: rng.reg(),
            },
            14 => FuzzOp::SkipIf {
                funct3: [
                    branch::BEQ,
                    branch::BNE,
                    branch::BLT,
                    branch::BGE,
                    branch::BLTU,
                    branch::BGEU,
                ][rng.below(6) as usize],
                rs1: rng.reg(),
                rs2: rng.reg(),
                skip: rng.below(8) as u8,
            },
            _ => {
                if rng.below(2) == 0 {
                    FuzzOp::Jump {
                        link: rng.reg(),
                        skip: rng.below(8) as u8,
                    }
                } else {
                    FuzzOp::JumpIndirect {
                        link: rng.reg(),
                        skip: rng.below(8) as u8,
                    }
                }
            }
        };
        ops.push(op);
    }
    ops
}

/// Which simulation engine the hardware side runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Classic two-state evaluation (the default engine).
    TwoState,
    /// Four-state evaluation, reset applied before the program runs
    /// so all architectural state is known.
    FourState,
}

/// One divergence between the hardware core and the ISS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Which piece of architectural state diverged.
    pub field: String,
    /// Hardware-side value (a literal, so four-state x digits
    /// survive into the report).
    pub hw: String,
    /// ISS-side value.
    pub iss: String,
}

/// Reusable differential harness: the core circuit is elaborated and
/// compiled once, each program then gets a fresh simulator.
#[derive(Debug)]
pub struct Harness {
    state: hgf_ir::CircuitState,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness::new()
    }
}

impl Harness {
    /// Elaborates and compiles the fuzz-sized core.
    pub fn new() -> Harness {
        let mut cb = CircuitBuilder::new();
        build_core(&mut cb, "cpu", FUZZ_CFG);
        let circuit = cb.finish("cpu").expect("core elaborates");
        let mut state = hgf_ir::CircuitState::new(circuit);
        hgf_ir::passes::compile(&mut state, false).expect("core compiles");
        Harness { state }
    }

    /// Runs `ops` on both models and compares all architectural
    /// state. Returns the retired instruction count on agreement.
    ///
    /// # Errors
    ///
    /// The first [`Mismatch`] found.
    pub fn run_lockstep(&self, ops: &[FuzzOp], mode: Mode) -> Result<u64, Mismatch> {
        self.run_lockstep_with(ops, mode, &mut |_, _| {})
    }

    /// [`Harness::run_lockstep`] with a hook called after every
    /// retired ISS instruction — the differential tests use it to
    /// inject reference-model bugs and prove the fuzzer catches them.
    ///
    /// # Errors
    ///
    /// The first [`Mismatch`] found.
    pub fn run_lockstep_with(
        &self,
        ops: &[FuzzOp],
        mode: Mode,
        hook: &mut dyn FnMut(&mut Iss, Inst),
    ) -> Result<u64, Mismatch> {
        let program = lower(ops);
        // Forward-only control flow: the pc strictly increases each
        // retired instruction, so `len + margin` bounds both models.
        let cap = program.len() as u64 + 8;

        let mut iss = Iss::new(&program, FUZZ_CFG.dmem_words as usize);
        for _ in 0..cap {
            let inst = iss
                .imem
                .get((iss.pc >> 2) as usize)
                .and_then(|w| Inst::decode(*w));
            let before = iss.insn_count;
            let running = iss.step();
            if iss.insn_count > before {
                if let Some(inst) = inst {
                    hook(&mut iss, inst);
                }
            }
            if !running {
                break;
            }
        }

        let config = match mode {
            Mode::TwoState => SimConfig::default(),
            Mode::FourState => SimConfig::default().four_state(),
        };
        let mut sim = Simulator::with_config(&self.state.circuit, config).expect("sim builds");
        for (i, w) in program.iter().enumerate() {
            sim.poke_mem("cpu.imem", i, Bits::from_u64(*w as u64, 32))
                .expect("program fits imem");
        }
        if mode == Mode::FourState {
            // Registers power up all-X; two reset cycles load every
            // init and leave the core in the two-state boot state.
            sim.reset(2);
        }
        let halted = sim.signal_id("cpu.halted").expect("halted exists");
        for _ in 0..cap {
            sim.step_clock();
            if sim.peek_id(halted).is_truthy() {
                break;
            }
        }

        // Compare through the four-state accessors in both modes: in
        // two-state they degrade to known values, and in four-state a
        // surviving x would show up in the report as an x literal
        // rather than a coerced number.
        let sig = |path: &str| sim.peek4(path).expect("core signal");
        check("halted", sig("cpu.halted"), iss.halted as u64)?;
        check("tohost", sig("cpu.tohost"), iss.tohost as u64)?;
        check("insn_count", sig("cpu.insn_count"), iss.insn_count)?;
        for r in 1..32usize {
            let hw = sim
                .peek_mem4("cpu.rf", r)
                .unwrap_or_else(|| bits::Bits4::known(Bits::from_u64(0, 32)));
            check(&format!("x{r}"), hw, iss.regs[r] as u64)?;
        }
        for addr in 0..FUZZ_CFG.dmem_words as usize {
            let hw = sim
                .peek_mem4("cpu.dmem", addr)
                .unwrap_or_else(|| bits::Bits4::known(Bits::from_u64(0, 32)));
            check(&format!("dmem[{addr}]"), hw, iss.dmem[addr] as u64)?;
        }
        Ok(iss.insn_count)
    }
}

fn check(field: &str, hw: bits::Bits4, iss: u64) -> Result<(), Mismatch> {
    match hw.to_known() {
        Some(k) if k.to_u64() == iss => Ok(()),
        _ => Err(Mismatch {
            field: field.to_owned(),
            hw: hw.to_literal(),
            iss: format!("{iss:#x}"),
        }),
    }
}

/// Per-op simplification candidates, simplest first. Each preserves
/// the op's position so control-flow targets stay stable.
fn simplify(op: FuzzOp) -> Vec<FuzzOp> {
    let nop = FuzzOp::AluImm {
        funct3: 0,
        rd: 0,
        rs1: 0,
        imm: 0,
    };
    let mut out = vec![nop];
    match op {
        FuzzOp::Alu {
            funct3, alt, rd, ..
        } => out.push(FuzzOp::Alu {
            funct3,
            alt,
            rd,
            rs1: 0,
            rs2: 0,
        }),
        FuzzOp::AluImm {
            funct3, rd, rs1, ..
        } => out.push(FuzzOp::AluImm {
            funct3,
            rd,
            rs1,
            imm: 0,
        }),
        FuzzOp::Mul { rd, .. } => out.push(FuzzOp::Mul { rd, rs1: 0, rs2: 0 }),
        FuzzOp::Lui { rd, .. } => out.push(FuzzOp::Lui { rd, imm: 0 }),
        FuzzOp::Auipc { rd, .. } => out.push(FuzzOp::Auipc { rd, imm: 0 }),
        FuzzOp::SkipIf {
            funct3, rs1, rs2, ..
        } => out.push(FuzzOp::SkipIf {
            funct3,
            rs1,
            rs2,
            skip: 0,
        }),
        FuzzOp::Jump { link, .. } => out.push(FuzzOp::Jump { link, skip: 0 }),
        FuzzOp::JumpIndirect { link, .. } => out.push(FuzzOp::JumpIndirect { link, skip: 0 }),
        _ => {}
    }
    out.retain(|c| *c != op);
    out
}

/// Delta-debugging shrink: repeatedly removes chunks (halving sizes
/// down to single ops), then simplifies surviving ops in place, for
/// as long as `still_fails` keeps reproducing on the candidate.
/// Returns the minimal failing sequence found.
pub fn shrink(ops: &[FuzzOp], still_fails: &mut dyn FnMut(&[FuzzOp]) -> bool) -> Vec<FuzzOp> {
    let mut cur = ops.to_vec();
    loop {
        let mut progressed = false;
        let mut chunk = (cur.len() / 2).max(1);
        loop {
            let mut i = 0;
            while i + chunk <= cur.len() {
                if cur.len() <= 1 {
                    break;
                }
                let mut cand = cur.clone();
                cand.drain(i..i + chunk);
                if !cand.is_empty() && still_fails(&cand) {
                    cur = cand;
                    progressed = true;
                    // Same index now names the next chunk: retry it.
                } else {
                    i += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        for i in 0..cur.len() {
            for cand_op in simplify(cur[i]) {
                let mut cand = cur.clone();
                cand[i] = cand_op;
                if still_fails(&cand) {
                    cur = cand;
                    progressed = true;
                    break;
                }
            }
        }
        if !progressed {
            return cur;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(gen_program(42, MAX_OPS), gen_program(42, MAX_OPS));
        assert_ne!(gen_program(1, MAX_OPS), gen_program(2, MAX_OPS));
    }

    #[test]
    fn lowered_programs_stay_in_range() {
        for seed in 0..64 {
            let ops = gen_program(seed, MAX_OPS);
            let program = lower(&ops);
            assert!(program.len() <= FUZZ_CFG.imem_words as usize);
            // Every word decodes (no stray encodings reach the ISS).
            for (i, w) in program.iter().enumerate() {
                assert!(Inst::decode(*w).is_some(), "seed {seed} word {i}: {w:#x}");
            }
            assert_eq!(*program.last().unwrap(), Inst::Ecall.encode());
        }
    }

    #[test]
    fn skip_targets_clamp_to_the_ecall() {
        // A max skip from the first op lands on the ecall, not past
        // the image.
        let ops = [FuzzOp::Jump { link: 1, skip: 255 }];
        let program = lower(&ops);
        match Inst::decode(program[0]) {
            Some(Inst::Jal { rd: 1, offset }) => assert_eq!(offset, 4),
            other => panic!("expected jal, got {other:?}"),
        }
    }

    #[test]
    fn shrink_reduces_to_the_culprit() {
        // Synthetic predicate: "fails" iff a MUL with rd == 5 is
        // present. Shrink must isolate exactly that op.
        let ops = gen_program(7, 48);
        let mut with_bug = ops.clone();
        with_bug.insert(
            ops.len() / 2,
            FuzzOp::Mul {
                rd: 5,
                rs1: 1,
                rs2: 2,
            },
        );
        let has_bug = |cand: &[FuzzOp]| {
            cand.iter()
                .any(|op| matches!(op, FuzzOp::Mul { rd: 5, .. }))
        };
        assert!(has_bug(&with_bug));
        let minimal = shrink(&with_bug, &mut |cand| has_bug(cand));
        assert_eq!(
            minimal,
            vec![FuzzOp::Mul {
                rd: 5,
                rs1: 0,
                rs2: 0,
            }],
            "chunk removal plus simplification isolates the culprit"
        );
    }
}
