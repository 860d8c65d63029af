//! The quire: an exact fixed-point accumulator for posit dot products.
//!
//! A quire wide enough to hold any sum of posit products without rounding
//! enables *exact multiply-and-accumulate* (the EMAC of Deep Positron \[12\] in
//! the paper's related work). The `posit-quire` training backend runs every
//! GEMM and every gradient sum through these accumulators: the tensor
//! kernels sum fixed-point integer words and hand each exact sum to
//! [`NarrowQuire::from_sum`] (an `i128`) or, for posit(16,2) and the other
//! formats whose dots need up to 256 bits, to [`Sum256`] (four stack
//! limbs) for its single rounding. Formats or depths beyond 256 bits fall
//! back to the heap limb-array [`Quire`], which also stays the reference
//! oracle the fast paths are tested against and the hardware EMAC model.
//! None of the three allocates when it rounds. The f32 backend keeps the
//! paper's FP32 accumulation.

use crate::format::PositFormat;
use crate::round::Rounding;
use crate::value::{PositValue, Sign};

/// Exact two's-complement fixed-point accumulator for products of two
/// posits of a given format.
///
/// Bit `0` of word `0` has weight `2^qmin` with
/// `qmin = 2*min_scale - 128`; the width provides 32 carry-guard bits above
/// the largest product, so at least `2^31` accumulations are exact.
///
/// ```
/// use posit::{PositFormat, Quire, Rounding};
///
/// let fmt = PositFormat::new(16, 1)?;
/// let a = fmt.from_f64(3.0, Rounding::NearestEven);
/// let b = fmt.from_f64(4.0, Rounding::NearestEven);
/// let mut q = Quire::new(fmt);
/// q.add_product(a, b);          // +12
/// q.add_product(a, fmt.negate(b)); // -12
/// assert!(q.is_zero());
/// # Ok::<(), posit::InvalidFormatError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Quire {
    fmt: PositFormat,
    words: Vec<u64>,
    nar: bool,
    qmin: i32,
}

impl Quire {
    /// An empty (zero) quire for `fmt`.
    pub fn new(fmt: PositFormat) -> Quire {
        Quire::with_margin(fmt, 0)
    }

    /// An empty quire with `margin` extra bits of headroom on *both* ends
    /// of the product range: accepted `scale_sum`s extend to
    /// `[2·min_scale − margin, 2·max_scale + margin]`.
    ///
    /// Needed when operands carry an Eq. 2 scale shift folded into their
    /// decoded scales (see `posit-tensor`'s packed planes): a product of
    /// two shifted operands lands up to `|e_a| + |e_b|` positions outside
    /// the format's native product range.
    pub fn with_margin(fmt: PositFormat, margin: u32) -> Quire {
        let qmin = 2 * fmt.min_scale() - 128 - margin as i32;
        let top = 2 * fmt.max_scale() + 2 + margin as i32; // above the largest product msb
        let bits = (top - qmin) as u32 + 32; // + carry guard
        let words = bits.div_ceil(64) as usize + 1;
        Quire {
            fmt,
            words: vec![0; words],
            nar: false,
            qmin,
        }
    }

    /// The format this quire accumulates.
    pub fn format(&self) -> PositFormat {
        self.fmt
    }

    /// Total width in bits.
    pub fn width_bits(&self) -> usize {
        self.words.len() * 64
    }

    /// Reset to zero.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.nar = false;
    }

    /// True iff the accumulated value is exactly zero (and not NaR).
    pub fn is_zero(&self) -> bool {
        !self.nar && self.words.iter().all(|&w| w == 0)
    }

    /// True iff a NaR was absorbed.
    pub fn is_nar(&self) -> bool {
        self.nar
    }

    /// Accumulate the exact product `a * b` of two code words.
    pub fn add_product(&mut self, a: u64, b: u64) {
        let (da, db) = match (self.fmt.decode(a), self.fmt.decode(b)) {
            (PositValue::NaR, _) | (_, PositValue::NaR) => {
                self.nar = true;
                return;
            }
            (PositValue::Zero, _) | (_, PositValue::Zero) => return,
            (PositValue::Finite(da), PositValue::Finite(db)) => (da, db),
        };
        let prod = (da.significand() as u128) * (db.significand() as u128);
        self.add_product_parts(da.sign != db.sign, da.scale + db.scale, prod);
    }

    /// Accumulate an already-decoded product: `±sig_prod * 2^(scale_sum - 126)`
    /// where `sig_prod` is the 128-bit product of two 64-bit significands
    /// (implicit one at bit 63 each, see [`crate::Decoded::significand`])
    /// and `scale_sum` the sum of the two operand scales.
    ///
    /// This is the decode-free entry point used by kernels that unpack each
    /// operand once (e.g. a posit GEMM) instead of paying a decode per
    /// multiply-accumulate as [`Quire::add_product`] does.
    ///
    /// # Panics
    ///
    /// `scale_sum` must lie within this quire's accumulable range —
    /// `[2·min_scale − margin, 2·max_scale + margin]` of the format and
    /// margin it was built for, which always holds when both operands come
    /// from that format. An out-of-range sum panics with the offending
    /// scale and the accepted range (it would otherwise scribble outside
    /// the limb array).
    pub fn add_product_parts(&mut self, negative: bool, scale_sum: i32, sig_prod: u128) {
        // value = sig_prod * 2^(scale_sum - 126)
        let pos = (scale_sum - 126) - self.qmin;
        let (lo, hi) = self.scale_sum_range();
        if scale_sum < lo || scale_sum > hi {
            panic!(
                "Quire::add_product_parts: scale_sum {scale_sum} outside the accumulable \
                 range [{lo}, {hi}] of this {} quire (operands from a wider format, or a \
                 scale shift beyond the margin it was built with?)",
                self.fmt
            );
        }
        debug_assert!(pos >= 0);
        if negative {
            self.sub_at(pos as usize, sig_prod);
        } else {
            self.add_at(pos as usize, sig_prod);
        }
    }

    /// The `scale_sum` values [`Quire::add_product_parts`] accepts: the
    /// format's product range widened by the construction-time margin.
    fn scale_sum_range(&self) -> (i32, i32) {
        let lo = self.qmin + 126;
        // add_at/sub_at touch limbs `pos/64 .. pos/64 + 2`.
        let hi = self.qmin + 126 + ((self.words.len() as i32 - 3) * 64 + 63);
        (lo, hi)
    }

    /// Force the quire into the absorbing NaR state (a NaR operand was
    /// observed by a caller that bypasses [`Quire::add_product`]).
    pub fn set_nar(&mut self) {
        self.nar = true;
    }

    /// Accumulate a single posit value (as `x * 1`).
    pub fn add_posit(&mut self, x: u64) {
        self.add_product(x, self.fmt.one_bits());
    }

    /// Accumulate the negation of a posit value.
    pub fn sub_posit(&mut self, x: u64) {
        if (x & self.fmt.mask()) == self.fmt.nar_bits() {
            self.nar = true;
            return;
        }
        self.add_product(self.fmt.negate(x), self.fmt.one_bits());
    }

    /// Split `v << off` into three 64-bit limbs.
    fn limbs(v: u128, off: usize) -> (u64, u64, u64) {
        if off == 0 {
            (v as u64, (v >> 64) as u64, 0u64)
        } else {
            (
                (v << off) as u64,
                (v >> (64 - off)) as u64,
                (v >> (128 - off)) as u64,
            )
        }
    }

    fn add_at(&mut self, pos: usize, v: u128) {
        let word = pos / 64;
        let off = pos % 64;
        let (lo, mid, hi) = Self::limbs(v, off);
        let mut carry: bool;
        let (w, c) = self.words[word].overflowing_add(lo);
        self.words[word] = w;
        carry = c;
        let (w, c1) = self.words[word + 1].overflowing_add(mid);
        let (w, c2) = w.overflowing_add(carry as u64);
        self.words[word + 1] = w;
        carry = c1 || c2;
        let (w, c1) = self.words[word + 2].overflowing_add(hi);
        let (w, c2) = w.overflowing_add(carry as u64);
        self.words[word + 2] = w;
        carry = c1 || c2;
        let mut i = word + 3;
        while carry && i < self.words.len() {
            let (w, c) = self.words[i].overflowing_add(1);
            self.words[i] = w;
            carry = c;
            i += 1;
        }
    }

    fn sub_at(&mut self, pos: usize, v: u128) {
        let word = pos / 64;
        let off = pos % 64;
        let (lo, mid, hi) = Self::limbs(v, off);
        let mut borrow: bool;
        let (w, b) = self.words[word].overflowing_sub(lo);
        self.words[word] = w;
        borrow = b;
        let (w, b1) = self.words[word + 1].overflowing_sub(mid);
        let (w, b2) = w.overflowing_sub(borrow as u64);
        self.words[word + 1] = w;
        borrow = b1 || b2;
        let (w, b1) = self.words[word + 2].overflowing_sub(hi);
        let (w, b2) = w.overflowing_sub(borrow as u64);
        self.words[word + 2] = w;
        borrow = b1 || b2;
        let mut i = word + 3;
        while borrow && i < self.words.len() {
            let (w, b) = self.words[i].overflowing_sub(1);
            self.words[i] = w;
            borrow = b;
            i += 1;
        }
    }

    /// Round the accumulated value to a posit code word. The magnitude is
    /// read out of the limbs in place, so rounding allocates nothing.
    pub fn to_posit(&self, rounding: Rounding, rand_word: u64) -> u64 {
        if self.nar {
            return self.fmt.nar_bits();
        }
        round_limbs(self.fmt, &self.words, self.qmin, rounding, rand_word)
    }

    /// Approximate `f64` view of the accumulated value (top 64 bits).
    pub fn to_f64(&self) -> f64 {
        if self.nar {
            return f64::NAN;
        }
        let negative = self.words.last().unwrap() >> 63 == 1;
        let mut acc = 0.0f64;
        if negative {
            // Reuse to_posit's negation path via a widest temporary render:
            let mut carry = true;
            for (i, w) in self.words.iter().enumerate() {
                let (x, c) = (!w).overflowing_add(carry as u64);
                carry = c;
                acc += x as f64 * ((64 * i as i32 + self.qmin) as f64).exp2();
            }
            -acc
        } else {
            for (i, w) in self.words.iter().enumerate() {
                acc += *w as f64 * ((64 * i as i32 + self.qmin) as f64).exp2();
            }
            acc
        }
    }
}

/// A register-resident exact accumulator for narrow posit formats: the
/// drop-in fast path of [`Quire`] when the whole product range fits an
/// `i128`.
///
/// For the formats the paper actually trains with — posit(8,es) and
/// posit(16,1) — every product of two posits spans at most
/// `2·(max_scale − min_scale)` bit positions (a posit's least significant
/// fraction bit never weighs less than `2^min_scale`, because the regime
/// eats fraction bits toward the extreme scales), so a fixed-point
/// accumulator whose bit 0 weighs `2^(2·min_scale − margin)` holds every
/// product *exactly* in `4·max_scale + 2·margin + 2` bits. What's left of
/// the 127 magnitude bits of an `i128` is carry guard: `K ≤ 2^guard`
/// accumulations cannot overflow. [`NarrowQuire::try_new`] does that
/// accounting and refuses formats/margins/K that don't fit, so callers fall
/// back to the heap-allocated [`Quire`] — which this type matches
/// bit-for-bit (same exact sum, same single rounding on
/// [`NarrowQuire::to_posit`]).
///
/// ```
/// use posit::{quire::NarrowQuire, PositFormat, Quire, Rounding};
///
/// let fmt = PositFormat::of(8, 1);
/// let a = fmt.from_f64(3.0, Rounding::NearestEven);
/// let b = fmt.from_f64(-4.0, Rounding::NearestEven);
/// let mut wide = Quire::new(fmt);
/// wide.add_product(a, b);
/// let mut narrow = NarrowQuire::try_new(fmt, 0, 1).unwrap();
/// narrow.add_product(a, b);
/// assert_eq!(
///     narrow.to_posit(Rounding::NearestEven, 0),
///     wide.to_posit(Rounding::NearestEven, 0),
/// );
/// ```
#[derive(Debug, Clone, Copy)]
pub struct NarrowQuire {
    fmt: PositFormat,
    acc: i128,
    nar: bool,
    /// Weight of bit 0 of `acc`: `2^emin` with `emin = 2·min_scale − margin`.
    emin: i32,
}

impl NarrowQuire {
    /// Carry-guard bits left over once the product span of `fmt` (widened
    /// by `margin` on both ends) is carved out of an `i128`, or `None` when
    /// the span itself does not fit. `2^guard` products can be accumulated
    /// without overflow.
    pub fn guard_bits(fmt: PositFormat, margin: u32) -> Option<u32> {
        // Product MSB positions above emin span 4·max_scale + 2·margin;
        // a single product is < 2^(span + 2) in accumulator units (its
        // 128-bit significand product has 2 bits above the implicit-one
        // line). Sign takes the 128th bit.
        let used = 4 * fmt.max_scale() as i64 + 2 * margin as i64 + 2;
        let guard = 127 - used;
        (guard >= 0).then_some(guard as u32)
    }

    /// An empty accumulator for up to `k` products of `fmt` posits whose
    /// decoded scales carry at most `margin` bits of Eq. 2 shift in total,
    /// or `None` when `4·max_scale + 2·margin + 2 + ⌈log2 k⌉` exceeds the
    /// 127 magnitude bits of an `i128` — the caller's cue to use the wide
    /// [`Quire`] instead.
    pub fn try_new(fmt: PositFormat, margin: u32, k: usize) -> Option<NarrowQuire> {
        let guard = Self::guard_bits(fmt, margin)?; // ≤ 125: used ≥ 2
        if (k as u128) > (1u128 << guard) {
            return None;
        }
        Some(NarrowQuire {
            fmt,
            acc: 0,
            nar: false,
            emin: 2 * fmt.min_scale() - margin as i32,
        })
    }

    /// An accumulator holding the exact fixed-point value `sum · 2^emin`
    /// — the hand-off from an integer dot kernel, which sums fixed-point
    /// words itself and needs only the single rounding of
    /// [`NarrowQuire::to_posit`]. Any `emin` is accepted: rounding reads
    /// the scale of `sum`'s leading bit off it, so an Eq. 2 scale shift
    /// folds into `emin` instead of into the words.
    pub fn from_sum(fmt: PositFormat, emin: i32, sum: i128) -> NarrowQuire {
        NarrowQuire {
            fmt,
            acc: sum,
            nar: false,
            emin,
        }
    }

    /// The format this accumulator rounds to.
    pub fn format(&self) -> PositFormat {
        self.fmt
    }

    /// Reset to zero.
    pub fn clear(&mut self) {
        self.acc = 0;
        self.nar = false;
    }

    /// True iff a NaR was absorbed.
    pub fn is_nar(&self) -> bool {
        self.nar
    }

    /// True iff the accumulated value is exactly zero (and not NaR).
    pub fn is_zero(&self) -> bool {
        !self.nar && self.acc == 0
    }

    /// Force the absorbing NaR state (a NaR operand was observed by a
    /// caller that feeds decoded parts).
    pub fn set_nar(&mut self) {
        self.nar = true;
    }

    /// Accumulate an already-decoded product — same contract as
    /// [`Quire::add_product_parts`]: `±sig_prod · 2^(scale_sum − 126)` with
    /// `sig_prod` the 128-bit product of two bit-63-aligned significands.
    ///
    /// Both operands must come from this accumulator's format (with scale
    /// shifts inside the construction margin): that is what guarantees the
    /// product's low bits are zero below the accumulator's LSB (asserted in
    /// debug builds) and its high bits fit under the carry guard.
    ///
    /// # Panics
    ///
    /// Panics (release builds included, like the hardened wide quire) when
    /// `scale_sum` falls outside the accumulable range — silent shift
    /// wraparound would corrupt the sum otherwise.
    #[inline(always)]
    pub fn add_product_parts(&mut self, negative: bool, scale_sum: i32, sig_prod: u128) {
        // value = sig_prod · 2^(scale_sum − 126); accumulator bit 0 weighs
        // 2^emin. Eligible formats make this always a right shift, exact
        // because a posit's trailing significand zeros grow toward extreme
        // scales at least as fast as the shift does.
        let shr = 126 + self.emin - scale_sum;
        if !(1..=127).contains(&shr) {
            panic!(
                "NarrowQuire::add_product_parts: scale_sum {scale_sum} outside the \
                 accumulable range [{}, {}] of this {} accumulator (operands from a \
                 wider format, or a scale shift beyond the construction margin?)",
                self.emin - 1,
                self.emin + 125,
                self.fmt
            );
        }
        debug_assert!(
            sig_prod.trailing_zeros() >= shr as u32,
            "product bits below the accumulator LSB (operands from a wider format?)"
        );
        let v = (sig_prod >> shr) as i128;
        self.acc += if negative { -v } else { v };
    }

    /// Accumulate the exact product `a * b` of two code words (decoding
    /// twin of [`Quire::add_product`], mainly for tests and small dots).
    pub fn add_product(&mut self, a: u64, b: u64) {
        let (da, db) = match (self.fmt.decode(a), self.fmt.decode(b)) {
            (PositValue::NaR, _) | (_, PositValue::NaR) => {
                self.nar = true;
                return;
            }
            (PositValue::Zero, _) | (_, PositValue::Zero) => return,
            (PositValue::Finite(da), PositValue::Finite(db)) => (da, db),
        };
        let prod = (da.significand() as u128) * (db.significand() as u128);
        self.add_product_parts(da.sign != db.sign, da.scale + db.scale, prod);
    }

    /// Round the accumulated value to a posit code word — bit-identical to
    /// [`Quire::to_posit`] on the same accumulated products.
    pub fn to_posit(&self, rounding: Rounding, rand_word: u64) -> u64 {
        if self.nar {
            return self.fmt.nar_bits();
        }
        if self.acc == 0 {
            return 0;
        }
        let negative = self.acc < 0;
        let mag = self.acc.unsigned_abs();
        let hb = 127 - mag.leading_zeros(); // msb position
        let scale = self.emin + hb as i32;
        // The 64 bits below the msb become the fraction, anything further
        // down is sticky — the same normalization the wide quire performs
        // on its limb array.
        let tail = mag ^ (1u128 << hb);
        let aligned = if hb == 0 { 0 } else { tail << (128 - hb) };
        let frac = (aligned >> 64) as u64;
        let sticky = aligned as u64 != 0;
        let sign = if negative {
            Sign::Negative
        } else {
            Sign::Positive
        };
        self.fmt
            .encode_fields(sign, scale, frac, sticky, rounding, rand_word)
    }
}

/// An exact 256-bit two's-complement fixed-point sum: the stack twin of
/// [`NarrowQuire::from_sum`] for formats whose exact dots overflow an
/// `i128`. Every dot of an `n ≤ 16`, `es ≤ 2` format fits four limbs:
/// posit(16,2) products span `4·max_scale = 224` bits (Deep Positron's
/// EMAC sizing rule), which leaves carry guard for `2^29` of them. An
/// integer dot kernel adds its partial sums with [`Sum256::add_shifted`]
/// and hands the total to [`Sum256::to_posit`] for its single rounding;
/// neither allocates.
///
/// ```
/// use posit::{quire::Sum256, PositFormat, Quire, Rounding};
///
/// let fmt = PositFormat::of(16, 2);
/// let a = fmt.from_f64(3.0, Rounding::NearestEven);
/// let b = fmt.from_f64(-0.75, Rounding::NearestEven);
/// let mut wide = Quire::new(fmt);
/// wide.add_product(a, b);
/// // 3 · −0.75 = −9 · 2^−2: the integer −9 at a fixed point of 2^−2.
/// let mut sum = Sum256::default();
/// sum.add_shifted(-9, 0);
/// assert_eq!(
///     sum.to_posit(fmt, -2, Rounding::NearestEven, 0),
///     wide.to_posit(Rounding::NearestEven, 0),
/// );
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sum256([u64; 4]);

impl Sum256 {
    /// `self += v · 2^shift`, modulo `2^256`: `v` sign-extends to 256
    /// bits before the shift, and bits shifted past the top drop. The
    /// caller's budget keeps the true sum inside the 256-bit range, so the
    /// wrapped arithmetic is exact.
    #[inline]
    pub fn add_shifted(&mut self, v: i128, shift: u32) {
        let ext = (v >> 127) as u64;
        let src = [v as u64, (v >> 64) as u64, ext, ext];
        let (q, r) = ((shift / 64) as usize, shift % 64);
        let mut carry = false;
        for i in q.min(4)..4 {
            let lo = src[i - q] << r;
            let word = if r == 0 || i == q {
                lo
            } else {
                lo | src[i - q - 1] >> (64 - r)
            };
            let (w, c1) = self.0[i].overflowing_add(word);
            let (w, c2) = w.overflowing_add(carry as u64);
            self.0[i] = w;
            carry = c1 | c2;
        }
    }

    /// Round `self · 2^emin` to a code word of `fmt` — bit-identical to
    /// [`Quire::to_posit`] on the same value. A sum that fits an `i128`
    /// (the top two limbs only sign-extend the low two) takes the
    /// [`NarrowQuire`] rounding.
    pub fn to_posit(&self, fmt: PositFormat, emin: i32, rounding: Rounding, rand_word: u64) -> u64 {
        let [lo, mid, hi, top] = self.0;
        let ext = ((mid as i64) >> 63) as u64;
        if hi == ext && top == ext {
            let sum = (mid as i128) << 64 | lo as i128;
            return NarrowQuire::from_sum(fmt, emin, sum).to_posit(rounding, rand_word);
        }
        round_limbs(fmt, &self.0, emin, rounding, rand_word)
    }
}

/// Round the little-endian two's-complement limbs `words · 2^qmin` to a
/// code word of `fmt`. The magnitude of a negative sum is read in place:
/// limbs below the lowest non-zero one negate to 0, that limb to its
/// two's complement, and every limb above it to its complement.
fn round_limbs(
    fmt: PositFormat,
    words: &[u64],
    qmin: i32,
    rounding: Rounding,
    rand_word: u64,
) -> u64 {
    let Some(low) = words.iter().position(|&w| w != 0) else {
        return 0;
    };
    let negative = words[words.len() - 1] >> 63 == 1;
    let mag = |i: usize| -> u64 {
        use std::cmp::Ordering::*;
        match (negative, i.cmp(&low)) {
            (false, _) => words[i],
            (true, Less) => 0,
            (true, Equal) => words[i].wrapping_neg(),
            (true, Greater) => !words[i],
        }
    };
    let top = (low..words.len())
        .rev()
        .find(|&i| mag(i) != 0)
        .expect("a non-zero sum has a leading limb");
    let hb = (top * 64 + 63 - mag(top).leading_zeros() as usize) as i64; // msb position
                                                                         // The 64 bits below the msb, `[hb − 64, hb)`, become the fraction
                                                                         // (bits below 0 read as zeros); any set bit further down is sticky.
                                                                         // Negation keeps the trailing zeros, so the lowest set bit of the
                                                                         // magnitude is the lowest set bit of the limbs.
    let p = hb - 64;
    let (li, off) = (p.div_euclid(64), p.rem_euclid(64) as u32);
    let limb = |i: i64| if i < 0 { 0 } else { mag(i as usize) };
    let frac = if off == 0 {
        limb(li)
    } else {
        limb(li) >> off | limb(li + 1) << (64 - off)
    };
    let lsb = (low * 64) as i64 + words[low].trailing_zeros() as i64;
    let sign = if negative {
        Sign::Negative
    } else {
        Sign::Positive
    };
    fmt.encode_fields(sign, qmin + hb as i32, frac, lsb < p, rounding, rand_word)
}

/// Exact dot product of two posit vectors, rounded once at the end
/// (round-to-nearest-even).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn fused_dot(fmt: PositFormat, xs: &[u64], ys: &[u64]) -> u64 {
    assert_eq!(xs.len(), ys.len(), "dot product length mismatch");
    let mut q = Quire::new(fmt);
    for (&x, &y) in xs.iter().zip(ys) {
        q.add_product(x, y);
    }
    q.to_posit(Rounding::NearestEven, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(fmt: &PositFormat, x: f64) -> u64 {
        fmt.from_f64(x, Rounding::NearestEven)
    }

    #[test]
    fn narrow_from_sum_is_exactly_the_per_element_sum() {
        // Fixed-point words summed as integers and handed over through
        // `from_sum` must round exactly like per-element accumulation,
        // for every word-eligible training format and both sides of an
        // Eq. 2 shift folded into `emin`.
        for (n, es) in [(8u32, 0u32), (8, 1), (8, 2), (16, 1)] {
            let fmt = PositFormat::of(n, es);
            let mut state = 0x1234_5678_9ABC_DEF1u64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 17
            };
            for shift in [0i32, -3, 2] {
                for _ in 0..300 {
                    let margin = shift.unsigned_abs();
                    let mut q = NarrowQuire::try_new(fmt, margin, 16).unwrap();
                    let mut sum = 0i128;
                    for _ in 0..16 {
                        let (a, b) = (next() & fmt.mask(), next() & fmt.mask());
                        let (da, db) = match (fmt.decode(a), fmt.decode(b)) {
                            (PositValue::Finite(da), PositValue::Finite(db)) => (da, db),
                            _ => continue,
                        };
                        let (wa, wb) = (
                            crate::lut::fixed_word(fmt, fmt.decode(a)).unwrap(),
                            crate::lut::fixed_word(fmt, fmt.decode(b)).unwrap(),
                        );
                        sum += wa as i128 * wb as i128;
                        let prod = (da.significand() as u128) * (db.significand() as u128);
                        q.add_product_parts(da.sign != db.sign, da.scale + db.scale + shift, prod);
                    }
                    let fixed = NarrowQuire::from_sum(fmt, 2 * fmt.min_scale() + shift, sum);
                    for rounding in [Rounding::NearestEven, Rounding::ToZero] {
                        assert_eq!(
                            fixed.to_posit(rounding, 0),
                            q.to_posit(rounding, 0),
                            "({n},{es}) shift {shift} {rounding:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_product() {
        let fmt = PositFormat::of(16, 1);
        let mut q = Quire::new(fmt);
        q.add_product(p(&fmt, 3.0), p(&fmt, 4.0));
        assert_eq!(fmt.to_f64(q.to_posit(Rounding::NearestEven, 0)), 12.0);
        assert_eq!(q.to_f64(), 12.0);
    }

    #[test]
    fn cancellation_is_exact() {
        let fmt = PositFormat::of(16, 1);
        let mut q = Quire::new(fmt);
        // (big * big) + (-big * big) == 0 exactly, where FP32 would be fine
        // but chained posit adds would saturate.
        let big = p(&fmt, 1.0e8);
        q.add_product(big, big);
        q.add_product(fmt.negate(big), big);
        assert!(q.is_zero());
        assert_eq!(q.to_posit(Rounding::NearestEven, 0), 0);
    }

    #[test]
    fn exactness_vs_chained_adds() {
        let fmt = PositFormat::of(8, 1);
        // sum of 100 copies of 0.75 = 75; chained posit(8,1) adds lose
        // precision once the running sum dwarfs the addend.
        let x = p(&fmt, 0.75);
        let one = fmt.one_bits();
        let mut q = Quire::new(fmt);
        let mut chained = 0u64;
        for _ in 0..100 {
            q.add_product(x, one);
            chained = fmt.add(chained, x);
        }
        let exact = fmt.to_f64(q.to_posit(Rounding::NearestEven, 0));
        let loose = fmt.to_f64(chained);
        // Exact answer: nearest (8,1) posit to 75 is 72..80 region; check
        // quire is at least as close.
        assert!((exact - 75.0).abs() <= (loose - 75.0).abs());
        assert_eq!(q.to_f64(), 75.0);
    }

    #[test]
    fn minpos_squared_accumulates() {
        // minpos^2 is far below minpos: invisible to chained arithmetic but
        // exact in the quire; 4^12 of them sum back to minpos^2 * 4^12 = 1.0
        // for (8,1): minpos = 4^-6.
        let fmt = PositFormat::of(8, 1);
        let minpos = fmt.minpos_bits();
        let mut q = Quire::new(fmt);
        let count = 1u64 << 24; // 4^12

        // Too slow to loop 16M times with decode each; use scaled batches:
        // accumulate minpos*minpos 2^12 times, then the partial is still
        // exact; assert its rounded value equals minpos^2 * 2^12.
        for _ in 0..(1 << 12) {
            q.add_product(minpos, minpos);
        }
        let _ = count;
        let got = fmt.to_f64(q.to_posit(Rounding::NearestEven, 0));
        let want = fmt.minpos() * fmt.minpos() * (1 << 12) as f64;
        // want = 4^-12 * 2^12 = 2^-12: exactly representable in (8,1)?
        // scale -12 is within ±24, so yes.
        assert_eq!(got, want);
    }

    #[test]
    fn add_product_parts_matches_add_product() {
        // The decode-free path must accumulate bit-identically to the
        // decoding path over every finite (8,1) pair (sampled stride keeps
        // the 65k-pair sweep fast; exhaustive coverage lives in the tensor
        // crate's cross-backend suite).
        let fmt = PositFormat::of(8, 1);
        for a in (1..fmt.code_count()).step_by(3) {
            for b in (1..fmt.code_count()).step_by(7) {
                if a == fmt.nar_bits() || b == fmt.nar_bits() {
                    continue;
                }
                let (da, db) = match (fmt.decode(a), fmt.decode(b)) {
                    (PositValue::Finite(da), PositValue::Finite(db)) => (da, db),
                    _ => unreachable!("zero excluded by the ranges"),
                };
                let mut q1 = Quire::new(fmt);
                q1.add_product(a, b);
                let mut q2 = Quire::new(fmt);
                q2.add_product_parts(
                    da.sign != db.sign,
                    da.scale + db.scale,
                    (da.significand() as u128) * (db.significand() as u128),
                );
                assert_eq!(
                    q1.to_posit(Rounding::NearestEven, 0),
                    q2.to_posit(Rounding::NearestEven, 0),
                    "a={a:#x} b={b:#x}"
                );
            }
        }
    }

    #[test]
    fn set_nar_is_absorbing() {
        let fmt = PositFormat::of(8, 1);
        let mut q = Quire::new(fmt);
        q.add_product(fmt.one_bits(), fmt.one_bits());
        q.set_nar();
        assert!(q.is_nar());
        assert_eq!(q.to_posit(Rounding::NearestEven, 0), fmt.nar_bits());
        q.clear();
        assert!(!q.is_nar());
    }

    #[test]
    fn nar_absorbs() {
        let fmt = PositFormat::of(16, 2);
        let mut q = Quire::new(fmt);
        q.add_product(fmt.one_bits(), fmt.one_bits());
        q.add_product(fmt.nar_bits(), fmt.one_bits());
        assert!(q.is_nar());
        assert_eq!(q.to_posit(Rounding::NearestEven, 0), fmt.nar_bits());
    }

    #[test]
    fn fused_dot_matches_f64_when_exact() {
        let fmt = PositFormat::of(16, 1);
        let xs_f = [1.5, -2.25, 8.0, 0.03125, -0.5];
        let ys_f = [2.0, 4.0, -0.125, 32.0, 7.0];
        let xs: Vec<u64> = xs_f.iter().map(|&v| p(&fmt, v)).collect();
        let ys: Vec<u64> = ys_f.iter().map(|&v| p(&fmt, v)).collect();
        let want: f64 = xs_f.iter().zip(&ys_f).map(|(a, b)| a * b).sum();
        let got = fmt.to_f64(fused_dot(fmt, &xs, &ys));
        assert_eq!(got, want);
    }

    #[test]
    fn add_and_sub_posit() {
        let fmt = PositFormat::of(16, 1);
        let mut q = Quire::new(fmt);
        q.add_posit(p(&fmt, 5.5));
        q.sub_posit(p(&fmt, 2.25));
        assert_eq!(fmt.to_f64(q.to_posit(Rounding::NearestEven, 0)), 3.25);
        q.clear();
        assert!(q.is_zero());
    }

    #[test]
    fn negative_total() {
        let fmt = PositFormat::of(16, 2);
        let mut q = Quire::new(fmt);
        q.add_posit(p(&fmt, 1.0));
        q.sub_posit(p(&fmt, 3.5));
        assert_eq!(fmt.to_f64(q.to_posit(Rounding::NearestEven, 0)), -2.5);
        assert!(q.to_f64() == -2.5);
    }

    #[test]
    fn margin_extends_the_product_range() {
        // A product scale below 2·min_scale − 2 overflows the base quire's
        // slack in debug builds; a margined quire holds it exactly.
        let fmt = PositFormat::of(8, 2);
        let mut q = Quire::with_margin(fmt, 40);
        let shift = -30i32; // both operands shifted by 2^-15
        q.add_product_parts(false, 2 * fmt.min_scale() + shift, 1u128 << 126);
        // The sum is far below minpos: rounds to minpos under RNE (posits
        // never round a non-zero value to zero), to zero under RTZ.
        assert_eq!(q.to_posit(Rounding::ToZero, 0), 0);
        assert_eq!(q.to_posit(Rounding::NearestEven, 0), fmt.minpos_bits());
        // And above the top: 2·max_scale + margin stays exact and clamps.
        let mut q = Quire::with_margin(fmt, 40);
        q.add_product_parts(false, 2 * fmt.max_scale() + 30, 1u128 << 126);
        assert_eq!(q.to_posit(Rounding::NearestEven, 0), fmt.maxpos_bits());
        assert!(Quire::with_margin(fmt, 64).width_bits() > Quire::new(fmt).width_bits());
    }

    #[test]
    #[should_panic(expected = "outside the accumulable range")]
    fn out_of_range_scale_sum_panics_clearly() {
        // Feeding a (32,2)-scaled product into an (8,0) quire lands far
        // outside its limb array; the failure must name the scale and the
        // accepted range, not die on an opaque slice index.
        let fmt = PositFormat::of(8, 0);
        let mut q = Quire::new(fmt);
        q.add_product_parts(false, 200, 1u128 << 126);
    }

    #[test]
    #[should_panic(expected = "outside the accumulable range")]
    fn below_range_scale_sum_panics_clearly() {
        // The low side would otherwise cast a negative limb position to a
        // huge usize.
        let fmt = PositFormat::of(8, 0);
        let mut q = Quire::new(fmt);
        q.add_product_parts(true, -200, 1u128 << 126);
    }

    #[test]
    fn in_range_scale_sums_do_not_panic() {
        // The full legal product range of the format (and of a margined
        // quire) stays accepted after the hardening.
        for (n, es, margin) in [(8u32, 0u32, 0u32), (8, 2, 0), (16, 1, 0), (8, 1, 40)] {
            let fmt = PositFormat::of(n, es);
            let mut q = Quire::with_margin(fmt, margin);
            let m = margin as i32;
            for scale_sum in [2 * fmt.min_scale() - m, 0, 2 * fmt.max_scale() + m] {
                q.add_product_parts(false, scale_sum, 1u128 << 126);
            }
        }
    }

    #[test]
    fn narrow_quire_matches_wide_exhaustive_pairs() {
        // Single products over every finite (8,1) code pair: the i128 fast
        // path must round to the same code word as the limb-array quire in
        // both deterministic modes.
        let fmt = PositFormat::of(8, 1);
        for a in 0..fmt.code_count() {
            for b in 0..fmt.code_count() {
                let mut wide = Quire::new(fmt);
                wide.add_product(a, b);
                let mut narrow = NarrowQuire::try_new(fmt, 0, 1).unwrap();
                narrow.add_product(a, b);
                for rounding in [Rounding::NearestEven, Rounding::ToZero] {
                    assert_eq!(
                        narrow.to_posit(rounding, 0),
                        wide.to_posit(rounding, 0),
                        "{a:#x} * {b:#x} {rounding:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn narrow_quire_matches_wide_on_dots() {
        // Random (16,1) dot products with heavy cancellation.
        let fmt = PositFormat::of(16, 1);
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        for trial in 0..200 {
            let k = 1 + (trial % 37);
            let mut wide = Quire::new(fmt);
            let mut narrow = NarrowQuire::try_new(fmt, 0, k).unwrap();
            assert!(narrow.is_zero());
            for _ in 0..k {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = state & fmt.mask();
                let b = (state >> 17) & fmt.mask();
                if a == fmt.nar_bits() || b == fmt.nar_bits() {
                    continue;
                }
                wide.add_product(a, b);
                narrow.add_product(a, b);
            }
            assert_eq!(
                narrow.to_posit(Rounding::NearestEven, 0),
                wide.to_posit(Rounding::NearestEven, 0),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn narrow_quire_eligibility_accounting() {
        // The formats the paper trains with all fit; the kernel-side K
        // guard and the margin/width refusals behave as documented.
        for (n, es) in [(8u32, 0u32), (8, 1), (8, 2), (16, 1)] {
            let fmt = PositFormat::of(n, es);
            assert!(
                NarrowQuire::try_new(fmt, 0, 1024).is_some(),
                "({n},{es}) must take the fast path at K=1024"
            );
        }
        // (16,1): span 112 + 2 → 13 guard bits → K ≤ 8192.
        let p16 = PositFormat::of(16, 1);
        assert_eq!(NarrowQuire::guard_bits(p16, 0), Some(13));
        assert!(NarrowQuire::try_new(p16, 0, 8192).is_some());
        assert!(NarrowQuire::try_new(p16, 0, 8193).is_none(), "K guard");
        // (32,2) spans 4·120 bits: never narrow.
        assert!(NarrowQuire::guard_bits(PositFormat::of(32, 2), 0).is_none());
        // A margin eats guard bits symmetrically.
        assert_eq!(NarrowQuire::guard_bits(p16, 4), Some(5));
        assert!(NarrowQuire::guard_bits(p16, 7).is_none());
    }

    #[test]
    fn narrow_quire_margin_matches_wide() {
        // Scale-shifted products (the packed-plane Eq. 2 path) agree with a
        // margined wide quire, including below-minpos and above-maxpos sums.
        let fmt = PositFormat::of(8, 1);
        let margin = 20u32;
        for (scale_sum, neg) in [
            (2 * fmt.min_scale() - 18, false),
            (2 * fmt.max_scale() + 18, false),
            (-3, true),
            (7, false),
        ] {
            let mut wide = Quire::with_margin(fmt, margin);
            wide.add_product_parts(neg, scale_sum, 1u128 << 126);
            let mut narrow = NarrowQuire::try_new(fmt, margin, 1).unwrap();
            narrow.add_product_parts(neg, scale_sum, 1u128 << 126);
            for rounding in [Rounding::NearestEven, Rounding::ToZero] {
                assert_eq!(
                    narrow.to_posit(rounding, 0),
                    wide.to_posit(rounding, 0),
                    "scale_sum {scale_sum} {rounding:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the accumulable range")]
    fn narrow_quire_out_of_range_scale_sum_panics() {
        // Release builds must refuse out-of-contract products loudly, not
        // wrap the shift and corrupt the accumulator.
        let fmt = PositFormat::of(8, 0);
        let mut q = NarrowQuire::try_new(fmt, 0, 1).unwrap();
        q.add_product_parts(false, 200, 1u128 << 126);
    }

    #[test]
    fn narrow_quire_nar_and_clear() {
        let fmt = PositFormat::of(8, 1);
        let mut q = NarrowQuire::try_new(fmt, 0, 4).unwrap();
        assert_eq!(q.format(), fmt);
        q.add_product(fmt.one_bits(), fmt.one_bits());
        assert!(!q.is_zero());
        q.set_nar();
        assert!(q.is_nar());
        assert_eq!(q.to_posit(Rounding::NearestEven, 0), fmt.nar_bits());
        q.clear();
        assert!(q.is_zero() && !q.is_nar());
        assert_eq!(q.to_posit(Rounding::NearestEven, 0), 0);
        q.add_product(fmt.nar_bits(), fmt.one_bits());
        assert!(q.is_nar(), "decoded NaR absorbs");
    }

    #[test]
    fn sum256_add_shifted_sign_extends_and_wraps() {
        let mut s = Sum256::default();
        s.add_shifted(-1, 0);
        assert_eq!(s.0, [u64::MAX; 4], "−1 sign-extends through every limb");
        s.add_shifted(1, 0);
        assert_eq!(
            s,
            Sum256::default(),
            "the carry ripples out of the top limb"
        );
        // A value straddling limbs at an unaligned shift, then its negation.
        s.add_shifted(0x1234_5678_9ABC_DEF0_1122_3344_5566_7788, 100);
        assert_eq!(s.0[0], 0);
        assert_eq!(s.0[1], 0x5566_7788 << 36);
        s.add_shifted(-0x1234_5678_9ABC_DEF0_1122_3344_5566_7788, 100);
        assert_eq!(s, Sum256::default());
        // The top bit, twice, wraps to zero; shifts at or past 256 drop.
        s.add_shifted(1, 255);
        s.add_shifted(1, 255);
        s.add_shifted(i128::MAX, 256);
        assert_eq!(s, Sum256::default());
    }

    #[test]
    fn sum256_rounds_like_the_wide_quire() {
        // Random posit(16,2) dots, each product added as its 24-bit
        // significand product at its scale (fixed point 2^(2·min_scale −
        // 22)), against the limb quire: mixed magnitudes, cancellation to
        // small and negative totals, zero, and both deterministic modes.
        let fmt = PositFormat::of(16, 2);
        let emin = 2 * fmt.min_scale() - 22;
        let mut state = 0x2562_5600_DEAD_BEEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 20
        };
        // One product into both accumulators; zero and NaR are skipped.
        let add = |wide: &mut Quire, sum: &mut Sum256, a: u64, b: u64| {
            if let (PositValue::Finite(da), PositValue::Finite(db)) = (fmt.decode(a), fmt.decode(b))
            {
                wide.add_product(a, b);
                let p = ((da.significand() >> 52) * (db.significand() >> 52)) as i128;
                let shift = (da.scale + db.scale - 22 - emin) as u32;
                sum.add_shifted(if da.sign != db.sign { -p } else { p }, shift);
            }
        };
        for trial in 0..400 {
            let mut wide = Quire::new(fmt);
            let mut sum = Sum256::default();
            let codes: Vec<(u64, u64)> = (0..1 + trial % 23)
                .map(|_| (next() & fmt.mask(), next() & fmt.mask()))
                .collect();
            for &(a, b) in &codes {
                add(&mut wide, &mut sum, a, b);
            }
            if trial % 3 == 0 {
                // Cancel the first product exactly.
                add(&mut wide, &mut sum, fmt.negate(codes[0].0), codes[0].1);
            }
            assert_eq!(sum == Sum256::default(), wide.is_zero(), "trial {trial}");
            for rounding in [Rounding::NearestEven, Rounding::ToZero] {
                assert_eq!(
                    sum.to_posit(fmt, emin, rounding, 0),
                    wide.to_posit(rounding, 0),
                    "trial {trial} {rounding:?}"
                );
            }
        }
        // The extremes of the 256-bit range: ±maxpos² next to minpos².
        for sign in [1i128, -1] {
            let (max, min) = (fmt.maxpos_bits(), fmt.minpos_bits());
            let mut wide = Quire::new(fmt);
            wide.add_product(if sign < 0 { fmt.negate(max) } else { max }, max);
            wide.add_product(min, min);
            let mut sum = Sum256::default();
            sum.add_shifted(sign << 22, (4 * fmt.max_scale()) as u32);
            sum.add_shifted(1 << 22, 0);
            for rounding in [Rounding::NearestEven, Rounding::ToZero] {
                assert_eq!(
                    sum.to_posit(fmt, emin, rounding, 0),
                    wide.to_posit(rounding, 0),
                    "sign {sign} {rounding:?}"
                );
            }
        }
    }

    #[test]
    fn quire_widths_are_sane() {
        for (n, es) in [(8u32, 0u32), (8, 2), (16, 1), (32, 2)] {
            let fmt = PositFormat::of(n, es);
            let q = Quire::new(fmt);
            assert!(q.width_bits() >= (4 * (n as usize - 2) * (1 << es)) + 128);
        }
    }
}
