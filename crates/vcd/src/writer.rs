//! VCD file writing from a live simulation.
//!
//! The recorder samples the simulator at each clock edge and emits
//! standard VCD: hierarchy scopes from the design tree, one `$var` per
//! signal, and time-stamped value changes. Timestamps are
//! `cycle * 10` for rising edges with the clock dropping at
//! `cycle * 10 + 5`, so the waveform views naturally and the replay
//! engine can recover cycle boundaries from clock rises.

use std::io::{self, Write};

use bits::Bits4;
use rtl_sim::{HierNode, SignalId, SimControl, Simulator};

/// Streams a simulation into VCD text.
///
/// # Examples
///
/// ```no_run
/// # fn demo(sim: &mut rtl_sim::Simulator) -> std::io::Result<()> {
/// use vcd::Recorder;
///
/// let mut out = Vec::new();
/// let mut rec = Recorder::new(sim, &mut out)?;
/// for _ in 0..100 {
///     rtl_sim::SimControl::step_clock(sim);
///     rec.sample(sim)?;
/// }
/// rec.finish()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Recorder<W: Write> {
    out: W,
    /// Interned signal handles in simulator order — resolved once at
    /// construction so per-cycle sampling never hashes a path string.
    sig_ids: Vec<SignalId>,
    ids: Vec<String>,
    widths: Vec<u32>,
    /// Last dumped value per signal, four-state so X/Z transitions
    /// (including X→known after reset) register as changes. Two-state
    /// simulators simply never produce unknown bits here.
    last: Vec<Option<Bits4>>,
    clock_id: String,
    finished: bool,
}

/// Derives the compact printable VCD identifier for index `i`.
fn id_code(mut i: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
        i -= 1;
    }
    s
}

impl<W: Write> Recorder<W> {
    /// Writes the VCD header for `sim`'s hierarchy and returns a
    /// recorder ready for sampling.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn new(sim: &Simulator, mut out: W) -> io::Result<Recorder<W>> {
        let paths: Vec<String> = sim.signal_names().to_vec();
        let ids: Vec<String> = (0..paths.len()).map(id_code).collect();
        let widths: Vec<u32> = paths
            .iter()
            .map(|p| sim.signal_width(p).unwrap_or(1))
            .collect();
        let clock_id = id_code(paths.len());

        writeln!(out, "$date\n  hgdb reproduction trace\n$end")?;
        writeln!(out, "$version\n  rtl-sim 0.1\n$end")?;
        writeln!(out, "$timescale 1ns $end")?;

        // Emit scopes depth-first from the hierarchy.
        let hier = sim.hierarchy();
        let index_of = |path: &str| paths.iter().position(|p| p == path);
        fn emit_scope<W: Write>(
            out: &mut W,
            node: &HierNode,
            prefix: &str,
            index_of: &dyn Fn(&str) -> Option<usize>,
            ids: &[String],
            widths: &[u32],
            clock: Option<&str>,
        ) -> io::Result<()> {
            writeln!(out, "$scope module {} $end", node.name)?;
            let scope = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix}.{}", node.name)
            };
            if let Some(cid) = clock {
                writeln!(out, "$var wire 1 {cid} clock $end")?;
            }
            for sig in &node.signals {
                if let Some(i) = index_of(&format!("{scope}.{sig}")) {
                    // Bundle fields keep their dotted names; VCD tools
                    // display them flat, which is fine for replay.
                    writeln!(
                        out,
                        "$var wire {} {} {} $end",
                        widths[i],
                        ids[i],
                        sig.replace('.', "_")
                    )?;
                }
            }
            for child in &node.children {
                emit_scope(out, child, &scope, index_of, ids, widths, None)?;
            }
            writeln!(out, "$upscope $end")
        }
        emit_scope(
            &mut out,
            &hier,
            "",
            &index_of,
            &ids,
            &widths,
            Some(&clock_id),
        )?;
        writeln!(out, "$enddefinitions $end")?;
        let last = vec![None; paths.len()];
        let sig_ids: Vec<SignalId> = paths
            .iter()
            .map(|p| sim.signal_id(p).expect("signal_names paths intern"))
            .collect();
        Ok(Recorder {
            out,
            sig_ids,
            ids,
            widths,
            last,
            clock_id,
            finished: false,
        })
    }

    /// Samples the simulator's current stable state; call once per
    /// clock cycle after `step_clock`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn sample(&mut self, sim: &Simulator) -> io::Result<()> {
        let cycle = SimControl::time(sim);
        let rise = cycle * 10;
        writeln!(self.out, "#{rise}")?;
        writeln!(self.out, "1{}", self.clock_id)?;
        for (i, &sid) in self.sig_ids.iter().enumerate() {
            let v = sim.peek4_id(sid);
            if self.last[i].as_ref() == Some(&v) {
                continue;
            }
            write_change(&mut self.out, &self.ids[i], &v, self.widths[i])?;
            self.last[i] = Some(v);
        }
        writeln!(self.out, "#{}", rise + 5)?;
        writeln!(self.out, "0{}", self.clock_id)?;
        Ok(())
    }

    /// Flushes the output.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(mut self) -> io::Result<()> {
        self.finished = true;
        self.out.flush()
    }
}

/// The VCD digit of a bit, indexed by `unknown << 1 | value`.
const DIGITS: [u8; 4] = *b"01zx";

/// Writes one value change. A vector's digits go straight from its
/// words into the writer: no `String` is built per change.
fn write_change<W: Write>(out: &mut W, id: &str, value: &Bits4, width: u32) -> io::Result<()> {
    if width == 1 {
        return writeln!(out, "{}{}", value.bit_char(0), id);
    }
    let (val, unk) = (value.value().words(), value.unknown().words());
    let digit = |i: u32| {
        let (w, b) = ((i / 64) as usize, i % 64);
        DIGITS[((((unk[w] >> b) & 1) << 1) | ((val[w] >> b) & 1)) as usize]
    };
    // Conventional VCD trims leading zeros — but only zeros, and
    // not the last one before an `x` or `z`: IEEE 1364 has a
    // reader left-extend a short vector with its first digit when
    // that is `x` or `z`, so `0000xxxx` must be written `b0xxxx`.
    let top = (0..val.len()).rev().find_map(|w| {
        let set = val[w] | unk[w];
        (set != 0).then(|| w as u32 * 64 + 63 - set.leading_zeros())
    });
    let first = match top {
        None => 0,
        Some(i) if i + 1 < value.width() && digit(i) != b'1' => i + 1,
        Some(i) => i,
    };
    let mut buf = [0u8; 128];
    buf[0] = b'b';
    let mut len = 1;
    for i in (0..=first).rev() {
        if len == buf.len() {
            out.write_all(&buf)?;
            len = 0;
        }
        buf[len] = digit(i);
        len += 1;
    }
    out.write_all(&buf[..len])?;
    out.write_all(b" ")?;
    out.write_all(id.as_bytes())?;
    out.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bits::Bits;
    use hgf::CircuitBuilder;
    use rtl_sim::SimConfig;

    fn counter_with(config: SimConfig) -> Simulator {
        let mut cb = CircuitBuilder::new();
        cb.module("counter", |m| {
            let en = m.input("en", 1);
            let out = m.output("out", 8);
            let count = m.reg("count", 8, Some(0));
            m.when(en, |m| m.assign(&count, count.sig() + m.lit(1, 8)));
            m.assign(&out, count.sig());
        });
        let circuit = cb.finish("counter").unwrap();
        let mut state = hgf_ir::CircuitState::new(circuit);
        hgf_ir::passes::compile(&mut state, false).unwrap();
        Simulator::with_config(&state.circuit, config).unwrap()
    }

    fn counter() -> Simulator {
        counter_with(SimConfig::default())
    }

    #[test]
    fn id_codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let id = id_code(i);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(id));
        }
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(93), "~");
        assert_eq!(id_code(94), "!!");
    }

    #[test]
    fn writes_header_and_changes() {
        let mut sim = counter();
        sim.poke("counter.en", Bits::from_bool(true)).unwrap();
        let mut out = Vec::new();
        let mut rec = Recorder::new(&sim, &mut out).unwrap();
        for _ in 0..3 {
            SimControl::step_clock(&mut sim);
            rec.sample(&sim).unwrap();
        }
        rec.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("$scope module counter $end"));
        assert!(text.contains("$var wire 8"));
        assert!(text.contains("$var wire 1"));
        assert!(text.contains("$enddefinitions $end"));
        assert!(text.contains("#10"));
        assert!(text.contains("b1 "), "count change missing:\n{text}");
        // Clock toggles each cycle.
        assert!(text.contains("#15"));
    }

    #[test]
    fn unchanged_signals_not_rewritten() {
        let mut sim = counter();
        sim.poke("counter.en", Bits::from_bool(false)).unwrap();
        let mut out = Vec::new();
        let mut rec = Recorder::new(&sim, &mut out).unwrap();
        for _ in 0..5 {
            SimControl::step_clock(&mut sim);
            rec.sample(&sim).unwrap();
        }
        rec.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        // All multi-bit signals (out, count, and the SSA temp) stay 0:
        // each is dumped exactly once, at the first sample.
        let zero_changes = text.lines().filter(|l| l.starts_with("b0 ")).count();
        assert_eq!(zero_changes, 3, "dump:\n{text}");
        // No repeated dumps in later samples: only the first #10 block
        // contains vector changes.
        let after_first = text.split("#15").nth(1).unwrap();
        assert!(!after_first.contains("b0 "), "dump:\n{text}");
    }

    #[test]
    fn four_state_dump_emits_x_then_resolves() {
        let mut sim = counter_with(SimConfig::default().four_state());
        let mut out = Vec::new();
        let mut rec = Recorder::new(&sim, &mut out).unwrap();
        // Cycle 1: nothing poked — registers and inputs dump as x.
        SimControl::step_clock(&mut sim);
        rec.sample(&sim).unwrap();
        // Reset + enable resolves everything; later samples must show
        // the X→known transition as an ordinary value change.
        sim.poke("counter.en", Bits::from_bool(true)).unwrap();
        sim.reset(2);
        rec.sample(&sim).unwrap();
        SimControl::step_clock(&mut sim);
        rec.sample(&sim).unwrap();
        rec.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        let first_block: String = text
            .split("#15")
            .next()
            .unwrap()
            .lines()
            .filter(|l| l.starts_with('b') || l.starts_with('x'))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            first_block.contains("bxxxxxxxx "),
            "8-bit count must dump all-x:\n{text}"
        );
        assert!(
            text.lines().any(|l| l.starts_with('x')),
            "1-bit x scalar change missing:\n{text}"
        );
        // After reset, the same signals dump known digits again.
        let tail = text.rsplit("#15").next().unwrap();
        let _ = tail;
        assert!(text.contains("b0 ") || text.contains("b1 "), "{text}");
    }

    /// An unreset 4-bit register zero-extended to 8 bits reads
    /// `0000xxxx`. Trimmed to `bxxxx`, a reader would extend the `x`
    /// over all eight bits; one zero must stay.
    #[test]
    fn four_state_dump_keeps_the_zero_before_x() {
        let mut cb = CircuitBuilder::new();
        cb.module("widen", |m| {
            let out = m.output("out", 8);
            let r = m.reg("r", 4, None);
            m.assign(&r, r.sig());
            m.assign(&out, r.sig().zext(8));
        });
        let circuit = cb.finish("widen").unwrap();
        let mut state = hgf_ir::CircuitState::new(circuit);
        hgf_ir::passes::compile(&mut state, false).unwrap();
        let mut sim =
            Simulator::with_config(&state.circuit, SimConfig::default().four_state()).unwrap();
        assert_eq!(sim.peek4("widen.out").unwrap().bin_digits(), "0000xxxx");
        let mut out = Vec::new();
        let mut rec = Recorder::new(&sim, &mut out).unwrap();
        SimControl::step_clock(&mut sim);
        rec.sample(&sim).unwrap();
        rec.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        let out_id = text
            .lines()
            .find_map(|l| l.strip_suffix(" out $end")?.strip_prefix("$var wire 8 "))
            .expect("out is declared");
        let change = text
            .lines()
            .find(|l| l.ends_with(&format!(" {out_id}")) && l.starts_with('b'))
            .expect("out is dumped");
        assert_eq!(change, format!("b0xxxx {out_id}"), "dump:\n{text}");
    }

    /// The formatting `write_change` had when it built each vector's
    /// digits as a `String`: the reference its bytes must match.
    fn reference_change(out: &mut Vec<u8>, id: &str, value: &Bits4, width: u32) {
        use std::io::Write as _;
        if width == 1 {
            writeln!(out, "{}{}", value.bit_char(0), id).unwrap();
        } else {
            let full = value.bin_digits();
            let trimmed = full.trim_start_matches('0');
            let digits = match trimmed.bytes().next() {
                None => "0",
                Some(b'x' | b'z') if trimmed.len() < full.len() => {
                    &full[full.len() - trimmed.len() - 1..]
                }
                Some(_) => trimmed,
            };
            writeln!(out, "b{digits} {id}").unwrap();
        }
    }

    /// Random two- and four-state values of widths 1 to 130, many with
    /// leading zeros and some with an `x` or `z` right below them, are
    /// written byte for byte as the `String`-building formatting wrote
    /// them.
    #[test]
    fn write_change_matches_the_string_formatting() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let (mut with_zero_before_unknown, mut four_state) = (0, 0);
        for case in 0..4000u32 {
            let width = 1 + (next() % 130) as u32;
            let n = width.div_ceil(64) as usize;
            let mut val: Vec<u64> = (0..n).map(|_| next()).collect();
            let mut unk: Vec<u64> = if case % 2 == 0 {
                vec![0; n]
            } else {
                (0..n).map(|_| next() & next()).collect()
            };
            // Clear the bits from `keep` up, then maybe put an x or z
            // right below them.
            let keep = (next() % u64::from(width + 1)) as u32;
            for i in keep..width {
                let (w, b) = ((i / 64) as usize, i % 64);
                val[w] &= !(1 << b);
                unk[w] &= !(1 << b);
            }
            if keep > 0 && next() % 2 == 0 {
                let (w, b) = (((keep - 1) / 64) as usize, (keep - 1) % 64);
                unk[w] |= 1 << b;
                if next() % 2 == 0 {
                    val[w] |= 1 << b;
                } else {
                    val[w] &= !(1 << b);
                }
            }
            let value =
                Bits4::from_planes(Bits::from_words(&val, width), Bits::from_words(&unk, width));
            if !value.is_fully_known() {
                four_state += 1;
                let digits = value.bin_digits();
                let trimmed = digits.trim_start_matches('0');
                if trimmed.len() < digits.len() && trimmed.starts_with(['x', 'z']) {
                    with_zero_before_unknown += 1;
                }
            }
            let mut got = Vec::new();
            write_change(&mut got, "!#", &value, width).unwrap();
            let mut expected = Vec::new();
            reference_change(&mut expected, "!#", &value, width);
            assert_eq!(
                String::from_utf8(got).unwrap(),
                String::from_utf8(expected).unwrap(),
                "case {case}: {value:?}"
            );
        }
        assert!(four_state > 1000, "{four_state} four-state cases");
        assert!(
            with_zero_before_unknown > 200,
            "{with_zero_before_unknown} cases keep a zero before x or z"
        );
    }
}
