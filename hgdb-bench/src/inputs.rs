//! The workloads' inputs, made from `--seed`.
//!
//! The seed picks values, not cost structure: which rows of a matrix
//! product run, array bases and lengths, sort data, which statement a
//! condition sits on and which variables are inspected. Sizes that set
//! the per-operation cost of the debugger (stop spacing, stops per
//! session, trace length) are fixed per workload, so one seed's
//! latencies are comparable with another's.

use rv32::programs::{matmul_source, vvadd_source};
use rv32::Program;

/// A small deterministic generator (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fb3_9c4d_2f17)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// `n` distinct items in a seed-chosen order.
    pub fn choose<T: Clone>(&mut self, items: &[T], n: usize) -> Vec<T> {
        let mut pool = items.to_vec();
        let mut out = Vec::with_capacity(n);
        while out.len() < n && !pool.is_empty() {
            let i = (self.next() % pool.len() as u64) as usize;
            out.push(pool.swap_remove(i));
        }
        out
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SuiteRun,
    IdeSession,
    TraceReplay,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "suite_run" => Some(Workload::SuiteRun),
            "ide_session" => Some(Workload::IdeSession),
            "trace_replay" => Some(Workload::TraceReplay),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteRun => "suite_run",
            Workload::IdeSession => "ide_session",
            Workload::TraceReplay => "trace_replay",
        }
    }
}

/// Generator variables whose value at every cycle the ISS predicts.
pub const CHECKED_VARS: [&str; 13] = [
    "pc",
    "insn_count_r",
    "rs1_val",
    "rs2_val",
    "a0_val",
    "opcode",
    "rd",
    "rs1",
    "rs2",
    "funct3",
    "imm_i",
    "pc4",
    "insn",
];

/// How many times a live run's condition may hold and its watched
/// expression may change.
#[derive(Debug, Clone, Copy)]
pub struct Armed {
    pub cond_hits: (u64, u64),
    pub watch_hits: (u64, u64),
}

/// A kernel debugged at a loop head: the IDE session's and the trace's
/// input.
#[derive(Debug, Clone)]
pub struct LoopKernel {
    pub program: Program,
    /// Byte address of the loop head the conditional breakpoint waits
    /// for.
    pub loop_head: u32,
    /// Variables each connection (or the trace debugger) evaluates at
    /// every stop.
    pub evals: Vec<&'static str>,
    pub viewer_evals: Vec<&'static str>,
    /// Seed-chosen raw pick for the statement that carries the
    /// condition (resolved against the symbol table later).
    pub stmt_pick: u64,
}

/// Everything one workload runs, made from one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    /// Programs run from reset to ECALL, bare and armed.
    pub live: Vec<Program>,
    pub armed: Armed,
    /// Per live program: raw picks for condition, watch and evals.
    pub live_picks: Vec<[u64; 4]>,
    /// The IDE session's kernel and how many stops it covers.
    pub ide: LoopKernel,
    /// The recorded trace's kernel; `backward` walks it back with
    /// `reverse_step`/`reverse_continue` after the forward pass.
    pub trace: LoopKernel,
    pub trace_backward: bool,
}

/// Steps the IDE takes after each stop before its `reverse_step`.
pub const IDE_STEPS: usize = 3;
/// The IDE issues a `reverse_continue` at every this-many-th stop.
pub const IDE_REVERSE_EVERY: usize = 5;
/// Variables each connection evaluates per stop.
pub const EVALS_PER_STOP: usize = 3;

/// A loop-head kernel: rows `[r0, r0 + rows)` of an `n`×`n` matrix
/// product, stopped at the head of the `j` loop (once per output
/// element, `16n + 12` cycles apart).
fn matmul_kernel(rng: &mut Rng, name: &'static str, n: u32, rows: u32) -> LoopKernel {
    let r0 = rng.range(0, u64::from(n - rows)) as u32;
    let source = matmul_source(r0, r0 + rows, n);
    let loop_head = label_address(&source, "mul_j");
    LoopKernel {
        program: program(name, source),
        loop_head,
        evals: rng.choose(&CHECKED_VARS, EVALS_PER_STOP),
        viewer_evals: rng.choose(&CHECKED_VARS, EVALS_PER_STOP),
        stmt_pick: rng.next(),
    }
}

/// A single-core program whose checksum the ISS supplies later.
fn program(name: &'static str, source: String) -> Program {
    let image = rv32::asm::assemble(&source).expect("generated kernel assembles");
    let mut iss = rv32::iss::Iss::new(&image, 4096);
    iss.run(5_000_000);
    Program {
        name,
        source,
        expected: iss.tohost,
        dual_core: false,
    }
}

/// Byte address of `label` in `source`: the words the lines before it
/// assemble to.
fn label_address(source: &str, label: &str) -> u32 {
    let head = format!("{label}:");
    let prefix: Vec<&str> = source.lines().take_while(|l| l.trim() != head).collect();
    assert!(
        prefix.len() < source.lines().count(),
        "label {label} not found"
    );
    let words = rv32::asm::assemble(&prefix.join("\n")).expect("kernel prefix assembles");
    (words.len() * 4) as u32
}

/// Insertion sort of `n` LCG values from `seed`; checksum
/// `sum(arr[i] * (i + 1))`.
fn sort_source(n: u32, seed: u32) -> String {
    format!(
        "\
        li s0, {seed}\n\
        li t0, 0\n\
        li t3, {n}\n\
        fill:\n\
        li t1, 1103515245\n\
        mul s0, s0, t1\n\
        li t1, 12345\n\
        add s0, s0, t1\n\
        srli t1, s0, 16\n\
        li t2, 0x7FFF\n\
        and t1, t1, t2\n\
        slli t2, t0, 2\n\
        sw t1, 0(t2)\n\
        addi t0, t0, 1\n\
        blt t0, t3, fill\n\
        li t0, 1\n\
        sort_i:\n\
        slli t1, t0, 2\n\
        lw s1, 0(t1)\n\
        addi t2, t0, -1\n\
        sort_j:\n\
        blt t2, zero, insert\n\
        slli t4, t2, 2\n\
        lw t5, 0(t4)\n\
        ble t5, s1, insert\n\
        sw t5, 4(t4)\n\
        addi t2, t2, -1\n\
        j sort_j\n\
        insert:\n\
        slli t4, t2, 2\n\
        sw s1, 4(t4)\n\
        addi t0, t0, 1\n\
        blt t0, t3, sort_i\n\
        li a0, 0\n\
        li t0, 0\n\
        sum:\n\
        slli t1, t0, 2\n\
        lw t2, 0(t1)\n\
        addi t4, t0, 1\n\
        mul t2, t2, t4\n\
        add a0, a0, t2\n\
        addi t0, t0, 1\n\
        blt t0, t3, sum\n\
        ecall\n"
    )
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        // Kernel shapes per workload: the main phase's kernel is large,
        // the side phases' small (see README, "Workloads").
        let (ide_n, ide_rows) = match workload {
            Workload::IdeSession => (12, 4),
            _ => (8, 1),
        };
        let (trace_n, trace_rows) = match workload {
            Workload::TraceReplay => (11, 3),
            _ => (6, 1),
        };
        let ide = matmul_kernel(&mut rng, "ide-kernel", ide_n, ide_rows);
        let trace = matmul_kernel(&mut rng, "trace-kernel", trace_n, trace_rows);
        let (live, armed) = match workload {
            Workload::SuiteRun => {
                let mut live = rv32::suite();
                let n = rng.range(5, 8) as u32;
                let r0 = rng.range(0, u64::from(n / 2)) as u32;
                live.push(program("matmul-seeded", matmul_source(r0, n, n)));
                let start = rng.range(0, 31) as u32;
                let len = rng.range(48, 96) as u32;
                live.push(program("vvadd-seeded", vvadd_source(start, start + len)));
                let sort_n = rng.range(24, 40) as u32;
                let sort_seed = rng.range(1, 1 << 30) as u32;
                live.push(program("sort-seeded", sort_source(sort_n, sort_seed)));
                let armed = Armed {
                    cond_hits: (2, 8),
                    watch_hits: (1, 3),
                };
                (live, armed)
            }
            Workload::IdeSession => (
                vec![ide.program.clone()],
                Armed {
                    cond_hits: (2, 8),
                    watch_hits: (1, 3),
                },
            ),
            // The trace workload keeps every count in a round fixed, so
            // the share of failed operations is the same for any seed.
            Workload::TraceReplay => (
                vec![trace.program.clone()],
                Armed {
                    cond_hits: (u64::from(trace_rows), u64::from(trace_rows)),
                    watch_hits: (1, 1),
                },
            ),
        };
        let live_picks = live
            .iter()
            .map(|_| [rng.next(), rng.next(), rng.next(), rng.next()])
            .collect();
        Inputs {
            workload,
            live,
            armed,
            live_picks,
            ide,
            trace,
            trace_backward: workload == Workload::TraceReplay,
        }
    }

    /// The self-test's inputs: the smallest round that reaches every
    /// check.
    pub fn self_test() -> Inputs {
        let mut rng = Rng::new(1);
        let ide = matmul_kernel(&mut rng, "ide-kernel", 4, 1);
        let trace = matmul_kernel(&mut rng, "trace-kernel", 4, 1);
        Inputs {
            workload: Workload::TraceReplay,
            live: vec![rv32::programs::multiply(), rv32::programs::mt_vvadd()],
            armed: Armed {
                cond_hits: (2, 12),
                watch_hits: (1, 3),
            },
            live_picks: vec![[1, 2, 3, 4], [5, 6, 7, 8]],
            ide,
            trace,
            trace_backward: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_head_is_the_j_loop() {
        let source = matmul_source(0, 1, 4);
        let head = label_address(&source, "mul_j");
        let image = rv32::asm::assemble(&source).unwrap();
        // The j loop starts by zeroing the accumulator: `li a1, 0`.
        let word = image[(head / 4) as usize];
        assert_eq!(word & 0x7f, 0x13, "addi");
        assert_eq!((word >> 7) & 0x1f, 11, "rd = a1");
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::new(Workload::SuiteRun, 7);
        let b = Inputs::new(Workload::SuiteRun, 7);
        assert_eq!(
            a.live.iter().map(|p| &p.source).collect::<Vec<_>>(),
            b.live.iter().map(|p| &p.source).collect::<Vec<_>>()
        );
        assert_eq!(a.ide.evals, b.ide.evals);
    }

    #[test]
    fn sort_kernel_sorts() {
        let p = program("sort", sort_source(10, 99));
        let mut x = 99u32;
        let mut vals: Vec<u32> = (0..10)
            .map(|_| {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                (x >> 16) & 0x7FFF
            })
            .collect();
        vals.sort_unstable();
        let want = vals
            .iter()
            .enumerate()
            .fold(0u32, |a, (i, v)| a.wrapping_add(v * (i as u32 + 1)));
        assert_eq!(p.expected, want);
    }
}
