//! Arbitrary-width bit vectors: two-state [`Bits`] and four-state
//! [`Bits4`].
//!
//! [`Bits`] is the value type used throughout the hgdb reproduction: IR
//! constants, simulator signal values, VCD samples, and the debugger's
//! expression evaluator all operate on it. The representation is two-state
//! (`0`/`1` only) because the paper's breakpoint emulation relies on
//! zero-delay simulation where every signal is fully resolved at each clock
//! edge (§3 of the paper). [`Bits4`] layers an unknown mask on top for the
//! simulator's optional four-state (`x`/`z`) mode; the two-state hot path
//! never touches it.
//!
//! # Representation
//!
//! Values of width ≤ 64 are stored inline as a single `u64` — no heap
//! allocation anywhere in their lifecycle. Wider values use a little-endian
//! `Vec<u64>`. The variant is fully determined by the width, so the derived
//! `Eq`/`Hash` semantics are unchanged from a plain word-vector
//! representation: equal width and equal bit pattern iff equal. This is the
//! property the simulator's compiled evaluation engine relies on to keep
//! the dominant narrow-signal case allocation-free.
//!
//! # Examples
//!
//! ```
//! use bits::Bits;
//!
//! let a = Bits::from_u64(5, 8);
//! let b = Bits::from_u64(7, 8);
//! let sum = a.add(&b);
//! assert_eq!(sum.to_u64(), 12);
//! assert_eq!(sum.width(), 8);
//! ```

mod fmt;
mod four;
mod ops;
mod parse;

pub use four::Bits4;
pub use parse::ParseBitsError;

/// Number of 64-bit words needed to store `width` bits.
#[inline]
pub(crate) fn words_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

/// Backing storage: inline single word for widths ≤ 64, heap vector
/// otherwise. The variant is an invariant of the width, never a
/// run-time choice, so derived comparisons stay canonical.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Inline(u64),
    Heap(Vec<u64>),
}

/// An arbitrary-width, two-state (binary) bit vector.
///
/// Invariants:
/// * `width >= 1`
/// * widths ≤ 64 store the value inline in one `u64`; wider values hold
///   exactly `ceil(width / 64)` little-endian words on the heap
/// * bits above `width` are always zero
///
/// Arithmetic is modular in the operand width (hardware semantics).
/// Operations that combine two vectors require equal widths; the IR's
/// width-inference pass is responsible for inserting explicit extensions,
/// mirroring FIRRTL's lowering discipline.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bits {
    width: u32,
    repr: Repr,
}

impl Bits {
    /// Builds an inline value, masking to `width`. Callers guarantee
    /// `width <= 64`.
    #[inline]
    pub(crate) fn from_inline(value: u64, width: u32) -> Self {
        debug_assert!((1..=64).contains(&width));
        Bits {
            width,
            repr: Repr::Inline(value & mask64(width)),
        }
    }

    /// The inline word, when this value has one (width ≤ 64).
    #[inline]
    pub(crate) fn inline_val(&self) -> Option<u64> {
        match &self.repr {
            Repr::Inline(v) => Some(*v),
            Repr::Heap(_) => None,
        }
    }

    /// Creates an all-zero vector of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn zero(width: u32) -> Self {
        assert!(width > 0, "Bits width must be at least 1");
        if width <= 64 {
            Bits {
                width,
                repr: Repr::Inline(0),
            }
        } else {
            Bits {
                width,
                repr: Repr::Heap(vec![0; words_for(width)]),
            }
        }
    }

    /// Creates an all-ones vector of the given width.
    pub fn ones(width: u32) -> Self {
        let mut b = Bits::zero(width);
        for w in b.words_mut() {
            *w = u64::MAX;
        }
        b.mask_top();
        b
    }

    /// Creates a vector from a `u64`, truncating to `width` bits.
    pub fn from_u64(value: u64, width: u32) -> Self {
        assert!(width > 0, "Bits width must be at least 1");
        if width <= 64 {
            return Bits::from_inline(value, width);
        }
        let mut b = Bits::zero(width);
        b.words_mut()[0] = value;
        b
    }

    /// Creates a vector from a `u128`, truncating to `width` bits.
    pub fn from_u128(value: u128, width: u32) -> Self {
        assert!(width > 0, "Bits width must be at least 1");
        if width <= 64 {
            return Bits::from_inline(value as u64, width);
        }
        let mut b = Bits::zero(width);
        {
            let ws = b.words_mut();
            ws[0] = value as u64;
            if ws.len() > 1 {
                ws[1] = (value >> 64) as u64;
            }
        }
        b.mask_top();
        b
    }

    /// Creates a 1-bit vector from a boolean.
    #[inline]
    pub fn from_bool(value: bool) -> Self {
        Bits::from_inline(value as u64, 1)
    }

    /// Creates a vector from an `i64`, sign-extended then truncated to
    /// `width` bits (two's complement).
    pub fn from_i64(value: i64, width: u32) -> Self {
        assert!(width > 0, "Bits width must be at least 1");
        if width <= 64 {
            return Bits::from_inline(value as u64, width);
        }
        let mut b = Bits::zero(width);
        {
            let fill = if value < 0 { u64::MAX } else { 0 };
            let ws = b.words_mut();
            ws[0] = value as u64;
            for w in ws.iter_mut().skip(1) {
                *w = fill;
            }
        }
        b.mask_top();
        b
    }

    /// Creates a vector from little-endian 64-bit words, truncating to
    /// `width`.
    #[inline]
    pub fn from_words(words: &[u64], width: u32) -> Self {
        assert!(width > 0, "Bits width must be at least 1");
        if width <= 64 {
            return Bits::from_inline(words.first().copied().unwrap_or(0), width);
        }
        // Copied rather than zero-filled first: a zeroed allocation
        // costs more than the copy itself at these sizes.
        let n = words_for(width);
        let v = match words.get(..n) {
            Some(exact) => exact.to_vec(),
            None => {
                let mut v = words.to_vec();
                v.resize(n, 0);
                v
            }
        };
        let mut b = Bits {
            width,
            repr: Repr::Heap(v),
        };
        b.mask_top();
        b
    }

    /// The width in bits. Always at least 1.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Backing words, little-endian. Bits above `width` are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline(v) => core::slice::from_ref(v),
            Repr::Heap(v) => v,
        }
    }

    /// Mutable backing words (invariant maintenance is the caller's
    /// job: call [`Bits::mask_top`] after writing the top word).
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Inline(v) => core::slice::from_mut(v),
            Repr::Heap(v) => v,
        }
    }

    /// The value as `u64`, ignoring any higher bits.
    #[inline]
    pub fn to_u64(&self) -> u64 {
        match &self.repr {
            Repr::Inline(v) => *v,
            Repr::Heap(v) => v[0],
        }
    }

    /// The value as `u128`, ignoring any higher bits.
    pub fn to_u128(&self) -> u128 {
        let ws = self.words();
        let lo = ws[0] as u128;
        let hi = if ws.len() > 1 {
            (ws[1] as u128) << 64
        } else {
            0
        };
        hi | lo
    }

    /// The value as `i64` interpreting the vector as two's complement in
    /// its own width (widths of 64 or more use the low 64 bits unchanged).
    pub fn to_i64(&self) -> i64 {
        if self.width >= 64 {
            return self.to_u64() as i64;
        }
        let raw = self.to_u64();
        let sign = 1u64 << (self.width - 1);
        if raw & sign != 0 {
            (raw | !(sign | (sign - 1))) as i64
        } else {
            raw as i64
        }
    }

    /// Whether any bit is set.
    #[inline]
    pub fn any(&self) -> bool {
        match &self.repr {
            Repr::Inline(v) => *v != 0,
            Repr::Heap(v) => v.iter().any(|&w| w != 0),
        }
    }

    /// Whether the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        !self.any()
    }

    /// Whether the value, viewed as a condition, is truthy (nonzero).
    /// This is the semantics used by breakpoint enable conditions.
    #[inline]
    pub fn is_truthy(&self) -> bool {
        self.any()
    }

    /// The bit at `index` (LSB = 0).
    ///
    /// # Panics
    ///
    /// Panics if `index >= width`.
    #[inline]
    pub fn bit(&self, index: u32) -> bool {
        assert!(
            index < self.width,
            "bit index {index} out of width {}",
            self.width
        );
        (self.words()[(index / 64) as usize] >> (index % 64)) & 1 == 1
    }

    /// Sets the bit at `index` in place (internal; callers uphold the
    /// width invariant by construction).
    #[inline]
    pub(crate) fn set_bit(&mut self, index: u32, value: bool) {
        debug_assert!(index < self.width);
        let word = (index / 64) as usize;
        let mask = 1u64 << (index % 64);
        let ws = self.words_mut();
        if value {
            ws[word] |= mask;
        } else {
            ws[word] &= !mask;
        }
    }

    /// Returns a copy with the bit at `index` set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= width`.
    pub fn with_bit(&self, index: u32, value: bool) -> Self {
        assert!(
            index < self.width,
            "bit index {index} out of width {}",
            self.width
        );
        let mut b = self.clone();
        b.set_bit(index, value);
        b
    }

    /// The most significant bit (the sign bit in signed interpretation).
    #[inline]
    pub fn msb(&self) -> bool {
        self.bit(self.width - 1)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// Zero-extends or truncates to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn resize(&self, width: u32) -> Self {
        assert!(width > 0, "Bits width must be at least 1");
        if width <= 64 {
            return Bits::from_inline(self.to_u64(), width);
        }
        let mut b = Bits::zero(width);
        for (dst, src) in b.words_mut().iter_mut().zip(self.words().iter()) {
            *dst = *src;
        }
        b.mask_top();
        b
    }

    /// Sign-extends (or truncates) to `width` using the current MSB.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn resize_signed(&self, width: u32) -> Self {
        assert!(width > 0, "Bits width must be at least 1");
        if width <= self.width {
            return self.resize(width);
        }
        let mut b = self.resize(width);
        if self.msb() {
            b.fill_high(self.width);
        }
        b
    }

    /// Sets bits `from..width` to one, a word at a time (sign-fill
    /// shared by [`Bits::resize_signed`] and arithmetic shifts).
    pub(crate) fn fill_high(&mut self, from: u32) {
        debug_assert!(from < self.width);
        let first = (from / 64) as usize;
        let bit = from % 64;
        let ws = self.words_mut();
        ws[first] |= !0u64 << bit;
        for w in ws.iter_mut().skip(first + 1) {
            *w = u64::MAX;
        }
        self.mask_top();
    }

    /// Extracts the inclusive bit range `[lo, hi]` as a new vector of
    /// width `hi - lo + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi >= width`.
    pub fn slice(&self, hi: u32, lo: u32) -> Self {
        assert!(hi >= lo, "slice hi ({hi}) must be >= lo ({lo})");
        assert!(
            hi < self.width,
            "slice hi ({hi}) out of width {}",
            self.width
        );
        let out_width = hi - lo + 1;
        let ws = self.words();
        let word = (lo / 64) as usize;
        let shift = lo % 64;
        if out_width <= 64 {
            let mut v = ws[word] >> shift;
            if shift != 0 && word + 1 < ws.len() {
                v |= ws[word + 1] << (64 - shift);
            }
            return Bits::from_inline(v, out_width);
        }
        let mut out = Bits::zero(out_width);
        {
            let ow = out.words_mut();
            for (i, o) in ow.iter_mut().enumerate() {
                let src = word + i;
                let mut v = if src < ws.len() { ws[src] >> shift } else { 0 };
                if shift != 0 && src + 1 < ws.len() {
                    v |= ws[src + 1] << (64 - shift);
                }
                *o = v;
            }
        }
        out.mask_top();
        out
    }

    /// Concatenates `self` (high part) with `low` (low part):
    /// `{self, low}` in Verilog notation.
    pub fn concat(&self, low: &Bits) -> Self {
        let width = self.width + low.width;
        if width <= 64 {
            return Bits::from_inline((self.to_u64() << low.width) | low.to_u64(), width);
        }
        let mut out = low.resize(width);
        let word_off = (low.width / 64) as usize;
        let bit = low.width % 64;
        let sw = self.words();
        let ow = out.words_mut();
        for (j, &w) in sw.iter().enumerate() {
            ow[word_off + j] |= w << bit;
            // The spill word exists whenever masked high bits remain;
            // when it doesn't, the shifted-out bits are zero by the
            // width invariant.
            if bit != 0 && word_off + j + 1 < ow.len() {
                ow[word_off + j + 1] |= w >> (64 - bit);
            }
        }
        out.mask_top();
        out
    }

    /// Clears bits above `width` to restore the invariant.
    pub(crate) fn mask_top(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            let ws = self.words_mut();
            let last = ws.len() - 1;
            ws[last] &= (1u64 << rem) - 1;
        }
    }
}

/// All-ones mask of the low `width` bits (callers guarantee
/// `1 <= width <= 64`).
#[inline]
pub(crate) fn mask64(width: u32) -> u64 {
    debug_assert!((1..=64).contains(&width));
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl Default for Bits {
    /// A 1-bit zero.
    fn default() -> Self {
        Bits::zero(1)
    }
}

impl From<bool> for Bits {
    fn from(v: bool) -> Self {
        Bits::from_bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_width() {
        let b = Bits::zero(65);
        assert_eq!(b.width(), 65);
        assert_eq!(b.words().len(), 2);
        assert!(b.is_zero());
    }

    #[test]
    #[should_panic(expected = "width must be at least 1")]
    fn zero_width_panics() {
        let _ = Bits::zero(0);
    }

    #[test]
    fn from_u64_truncates() {
        let b = Bits::from_u64(0xFF, 4);
        assert_eq!(b.to_u64(), 0xF);
    }

    #[test]
    fn from_u128_round_trip() {
        let v = 0x1234_5678_9ABC_DEF0_1122_3344_5566_7788u128;
        let b = Bits::from_u128(v, 128);
        assert_eq!(b.to_u128(), v);
    }

    #[test]
    fn from_i64_negative_sign_extends() {
        let b = Bits::from_i64(-1, 100);
        assert_eq!(b.count_ones(), 100);
        let c = Bits::from_i64(-2, 8);
        assert_eq!(c.to_u64(), 0xFE);
    }

    #[test]
    fn to_i64_signed_interpretation() {
        assert_eq!(Bits::from_u64(0xFF, 8).to_i64(), -1);
        assert_eq!(Bits::from_u64(0x7F, 8).to_i64(), 127);
        assert_eq!(Bits::from_u64(0x80, 8).to_i64(), -128);
    }

    #[test]
    fn ones_masks_top() {
        let b = Bits::ones(3);
        assert_eq!(b.to_u64(), 0b111);
        let c = Bits::ones(64);
        assert_eq!(c.to_u64(), u64::MAX);
    }

    #[test]
    fn bit_get_set() {
        let b = Bits::zero(70).with_bit(69, true);
        assert!(b.bit(69));
        assert!(!b.bit(68));
        assert!(b.msb());
        let c = b.with_bit(69, false);
        assert!(c.is_zero());
    }

    #[test]
    #[should_panic(expected = "out of width")]
    fn bit_out_of_range_panics() {
        Bits::zero(8).bit(8);
    }

    #[test]
    fn resize_zero_extend_and_truncate() {
        let b = Bits::from_u64(0xAB, 8);
        assert_eq!(b.resize(16).to_u64(), 0xAB);
        assert_eq!(b.resize(4).to_u64(), 0xB);
    }

    #[test]
    fn resize_signed() {
        let b = Bits::from_u64(0x8, 4); // -8 in 4 bits
        assert_eq!(b.resize_signed(8).to_u64(), 0xF8);
        let c = Bits::from_u64(0x7, 4);
        assert_eq!(c.resize_signed(8).to_u64(), 0x07);
    }

    #[test]
    fn resize_signed_across_word_boundary() {
        let b = Bits::from_u64(0x8000_0000_0000_0000, 64);
        let wide = b.resize_signed(130);
        assert_eq!(wide.width(), 130);
        assert_eq!(wide.count_ones(), 130 - 63);
        assert!(wide.bit(63) && wide.bit(64) && wide.bit(129));
        assert!(!wide.bit(62));
    }

    #[test]
    fn slice_basic() {
        let b = Bits::from_u64(0b1011_0110, 8);
        assert_eq!(b.slice(3, 0).to_u64(), 0b0110);
        assert_eq!(b.slice(7, 4).to_u64(), 0b1011);
        assert_eq!(b.slice(5, 5).to_u64(), 1);
        assert_eq!(b.slice(5, 5).width(), 1);
    }

    #[test]
    fn slice_across_word_boundary() {
        let b = Bits::from_u128(0xF << 62, 70);
        let s = b.slice(65, 62);
        assert_eq!(s.to_u64(), 0xF);
    }

    #[test]
    fn slice_wide_output() {
        let v = 0x1234_5678_9ABC_DEF0_1122_3344_5566_7788u128;
        let b = Bits::from_u128(v, 128);
        let s = b.slice(127, 8);
        assert_eq!(s.width(), 120);
        assert_eq!(s.to_u128(), v >> 8);
        let t = b.slice(100, 3);
        assert_eq!(t.to_u128(), (v >> 3) & ((1u128 << 98) - 1));
    }

    #[test]
    fn concat_basic() {
        let hi = Bits::from_u64(0b101, 3);
        let lo = Bits::from_u64(0b01, 2);
        let c = hi.concat(&lo);
        assert_eq!(c.width(), 5);
        assert_eq!(c.to_u64(), 0b10101);
    }

    #[test]
    fn concat_across_word_boundary() {
        let hi = Bits::from_u64(0xABCD, 16);
        let lo = Bits::from_u64(u64::MAX, 60);
        let c = hi.concat(&lo);
        assert_eq!(c.width(), 76);
        assert_eq!(c.to_u128(), (0xABCDu128 << 60) | ((1u128 << 60) - 1));
        // Heap-heap concat.
        let w = Bits::from_u128(0x1_0000_0000_0000_0001, 65);
        let c2 = w.concat(&w);
        assert_eq!(c2.width(), 130);
        assert_eq!(c2.slice(64, 0).to_u128(), 0x1_0000_0000_0000_0001);
        assert_eq!(c2.slice(129, 65).to_u128(), 0x1_0000_0000_0000_0001);
    }

    #[test]
    fn default_is_one_bit_zero() {
        let d = Bits::default();
        assert_eq!(d.width(), 1);
        assert!(d.is_zero());
    }

    #[test]
    fn count_ones_wide() {
        let b = Bits::ones(130);
        assert_eq!(b.count_ones(), 130);
    }

    #[test]
    fn truthiness() {
        assert!(Bits::from_u64(2, 4).is_truthy());
        assert!(!Bits::zero(4).is_truthy());
    }

    #[test]
    fn from_words_truncates() {
        let b = Bits::from_words(&[u64::MAX, u64::MAX, u64::MAX], 65);
        assert_eq!(b.count_ones(), 65);
        assert_eq!(b.words().len(), 2);
    }

    #[test]
    fn inline_heap_boundary_equality() {
        // Same numeric value at widths 64 (inline) and 65 (heap) are
        // different values (widths differ), but each representation is
        // internally canonical: equality and hashing agree with the
        // bit pattern.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = Bits::from_u64(42, 64);
        let b = Bits::from_u128(42, 64);
        assert_eq!(a, b);
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
        assert_ne!(a, Bits::from_u128(42, 65), "widths differ");
        // Crossing the boundary via resize lands back on the inline
        // representation and compares equal.
        assert_eq!(Bits::from_u128(42, 65).resize(64), a);
    }
}
