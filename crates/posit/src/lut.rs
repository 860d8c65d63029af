//! Per-format decode lookup tables for narrow (n ≤ 8) posit formats.
//!
//! An 8-bit posit has at most 256 code words, so the whole decode — regime
//! run detection, exponent reassembly, fraction alignment — collapses into
//! one table lookup. The tables are built lazily (once per `(n, es)`) by the
//! bit-exact [`PositFormat::decode`] itself, so a LUT hit is *identical* to
//! a bit-twiddled decode by construction; they exist purely to take the
//! per-element decode off hot paths (operand-plane unpacking in the tensor
//! kernels, neighbour decodes inside the rounding search, posit→f32 on
//! store).

use crate::format::PositFormat;
use crate::value::{Decoded, PositValue, Sign};
use std::sync::OnceLock;

/// Largest word size served by the tables (one 256-entry table per format).
pub const MAX_LUT_BITS: u32 = 8;

/// Largest word size served by the two-level tables ([`decode_lut2`]).
pub const MAX_LUT2_BITS: u32 = 16;

const N_SLOTS: usize = (MAX_LUT_BITS - 1) as usize; // n in 2..=8
const ES_SLOTS: usize = 5; // es in 0..=4

type DecodeSlot = OnceLock<Vec<PositValue>>;
type F32Slot = OnceLock<Vec<f32>>;

#[allow(clippy::declare_interior_mutable_const)]
const DECODE_INIT: DecodeSlot = OnceLock::new();
#[allow(clippy::declare_interior_mutable_const)]
const DECODE_ROW: [DecodeSlot; ES_SLOTS] = [DECODE_INIT; ES_SLOTS];
#[allow(clippy::declare_interior_mutable_const)]
const F32_INIT: F32Slot = OnceLock::new();
#[allow(clippy::declare_interior_mutable_const)]
const F32_ROW: [F32Slot; ES_SLOTS] = [F32_INIT; ES_SLOTS];

static DECODE: [[DecodeSlot; ES_SLOTS]; N_SLOTS] = [DECODE_ROW; N_SLOTS];
static TO_F32: [[F32Slot; ES_SLOTS]; N_SLOTS] = [F32_ROW; N_SLOTS];

fn slot_index(fmt: PositFormat) -> Option<(usize, usize)> {
    (fmt.n() <= MAX_LUT_BITS).then(|| ((fmt.n() - 2) as usize, fmt.es() as usize))
}

/// The 256-entry decode table of a narrow format, or `None` when `n > 8`.
///
/// `table[b] == fmt.decode(b)` for every byte `b` (decode masks to the low
/// `n` bits, so out-of-range indices alias their masked code word exactly
/// like a direct decode would).
pub fn decode_lut(fmt: PositFormat) -> Option<&'static [PositValue]> {
    let (ni, ei) = slot_index(fmt)?;
    Some(
        DECODE[ni][ei]
            .get_or_init(|| (0..256u64).map(|b| fmt.decode(b)).collect())
            .as_slice(),
    )
}

/// The 256-entry posit→f32 table of a narrow format (`table[b] ==
/// fmt.to_f32(b)`, NaR decoding to NaN), or `None` when `n > 8`.
pub fn to_f32_lut(fmt: PositFormat) -> Option<&'static [f32]> {
    let (ni, ei) = slot_index(fmt)?;
    Some(
        TO_F32[ni][ei]
            .get_or_init(|| (0..256u64).map(|b| fmt.to_f32(b)).collect())
            .as_slice(),
    )
}

// ----------------------------------------------------------------------
// Two-level tables for medium formats (8 < n ≤ 16)
// ----------------------------------------------------------------------

/// Per-top-byte entry of a [`Lut2`]: everything the decode needs once the
/// regime run is known to terminate inside the top byte's seven body bits.
///
/// The remaining exponent/fraction bits of the word are `rest = rest_hi |
/// low` (the top byte's post-regime bits pre-shifted into position, OR'd
/// with the low `n-8` bits of the magnitude). From `rest` the decode is
/// three shifts and an add — no run detection, no data-dependent branches.
/// 16 bytes exactly, so each entry is one aligned cache-line chunk and the
/// gather costs four loads (the three shift counts share a word).
#[derive(Debug, Clone, Copy, Default)]
struct Lut2Top {
    /// Post-regime bits of the top byte, pre-shifted above the low bits.
    rest_hi: u32,
    /// Mask selecting the fraction bits of `rest`.
    frac_mask: u32,
    /// `k · useed_log2` — the regime's scale contribution.
    scale_base: i32,
    /// Bit width of the fraction field in `rest`.
    frac_width: u8,
    /// `64 - frac_width`: one shift left-aligns the fraction at bit 64
    /// (`(x << 1) << (63 - w)` folded). Clamped to 63 when the row has no
    /// fraction bits — `frac_mask` is 0 there, so any legal shift yields 0.
    frac_shift: u8,
    /// `es - eb`: how far the (possibly truncated) exponent field is
    /// shifted up to its full-width position.
    e_shift: u8,
    _pad: u8,
}

/// Two-level decode table for a medium format (`8 < n ≤ 16`).
///
/// A flat table would need `2^n` entries; instead the magnitude is split at
/// the byte boundary. The top byte (sign bit + seven body bits) determines
/// the regime whenever the run terminates within those seven bits — 126 of
/// the 128 reachable top bytes — and a `Lut2Top` entry finishes the
/// decode from the low bits with three shifts. The two escape rows (body
/// bits all-0 / all-1, where the run spills into the low byte) fall through
/// to refinement tables of `2^(n-8)` fully-decoded values indexed by the
/// low bits alone, which pin the magnitude completely in those rows.
///
/// Every table is built by the bit-exact [`PositFormat::decode`], so a hit
/// is identical to a direct decode by construction.
#[derive(Debug)]
pub struct Lut2 {
    fmt: PositFormat,
    /// `fmt.mask()`, cached out of the per-element loop.
    mask: u64,
    /// `fmt.nar_bits()`, cached out of the per-element loop.
    nar: u64,
    /// `n - 8`: bits of the magnitude below the top byte.
    low_bits: u32,
    low_mask: u64,
    tops: [Lut2Top; 128],
    /// Full decodes of `mag = low` (top byte zero: regime run of zeros
    /// extends past the top byte).
    lo_ref: Vec<PositValue>,
    /// Full decodes of `mag = (0x7F << low_bits) | low` (top body bits all
    /// ones: regime run of ones extends past the top byte).
    hi_ref: Vec<PositValue>,
}

fn with_sign(v: PositValue, sign: Sign) -> PositValue {
    match v {
        PositValue::Finite(d) => PositValue::Finite(Decoded { sign, ..d }),
        other => other,
    }
}

impl Lut2 {
    fn build(fmt: PositFormat) -> Lut2 {
        let n = fmt.n();
        debug_assert!(n > MAX_LUT_BITS && n <= MAX_LUT2_BITS);
        let low_bits = n - 8;
        let low_mask = (1u64 << low_bits) - 1;
        let avail = n - 1;
        let es = fmt.es();

        let mut tops = [Lut2Top::default(); 128];
        for (hi, top) in tops.iter_mut().enumerate().take(127).skip(1) {
            // Seven body bits, left-aligned in a u8 for run detection.
            let body7 = (hi as u8) << 1;
            let first = hi >> 6 & 1;
            let run = if first == 1 {
                body7.leading_ones()
            } else {
                body7.leading_zeros()
            };
            debug_assert!((1..=6).contains(&run));
            let k = if first == 1 {
                run as i32 - 1
            } else {
                -(run as i32)
            };
            let rb = run + 1;
            let rest_width = avail - rb;
            let eb = rest_width.min(es);
            let frac_width = rest_width - eb;
            *top = Lut2Top {
                rest_hi: ((hi as u32) & ((1 << (7 - rb)) - 1)) << low_bits,
                frac_mask: (1u32 << frac_width) - 1,
                scale_base: k * fmt.useed_log2(),
                frac_width: frac_width as u8,
                frac_shift: (64 - frac_width).min(63) as u8,
                e_shift: (es - eb) as u8,
                _pad: 0,
            };
        }

        let lo_ref = (0..=low_mask).map(|low| fmt.decode(low)).collect();
        let hi_ref = (0..=low_mask)
            .map(|low| fmt.decode(0x7F << low_bits | low))
            .collect();
        Lut2 {
            fmt,
            mask: fmt.mask(),
            nar: fmt.nar_bits(),
            low_bits,
            low_mask,
            tops,
            lo_ref,
            hi_ref,
        }
    }

    /// The format this table decodes.
    pub fn format(&self) -> PositFormat {
        self.fmt
    }

    /// Borrow a register-resident decode view — the entry point for decode
    /// loops. See [`Lut2View`].
    #[inline]
    pub fn view(&self) -> Lut2View<'_> {
        Lut2View {
            mask: self.mask,
            nar: self.nar,
            low_bits: self.low_bits,
            low_mask: self.low_mask,
            tops: &self.tops,
            lo_ref: &self.lo_ref,
            hi_ref: &self.hi_ref,
        }
    }

    /// Decode an `n`-bit code word — bit-identical to
    /// [`PositFormat::decode`] on the same format.
    #[inline]
    pub fn decode(&self, bits: u64) -> PositValue {
        self.view().decode(bits)
    }
}

/// A [`Lut2`] borrowed for a decode loop, with the scalar fields copied
/// out of the table.
///
/// Calling `Lut2::decode` through a shared reference inside a loop makes
/// the compiler reload `mask`/`nar`/`low_bits`/`low_mask` from memory on
/// every iteration — it cannot prove the loop's output stores don't alias
/// the (heap-allocated, `'static`) table. This `Copy` view is an SSA value,
/// so those fields live in registers across the whole loop; only the real
/// table gathers touch memory.
#[derive(Clone, Copy)]
pub struct Lut2View<'a> {
    mask: u64,
    nar: u64,
    low_bits: u32,
    low_mask: u64,
    tops: &'a [Lut2Top; 128],
    lo_ref: &'a [PositValue],
    hi_ref: &'a [PositValue],
}

impl Lut2View<'_> {
    /// Decode an `n`-bit code word — bit-identical to
    /// [`PositFormat::decode`] on the same format.
    #[inline(always)]
    pub fn decode(&self, bits: u64) -> PositValue {
        let bits = bits & self.mask;
        // Branchless sign/magnitude: `flip` is all-ones inside the mask for
        // negative words, so `(bits ^ flip) + neg` is the two's-complement
        // negate — no 50%-mispredicted branch on random sign bits.
        let neg = bits > self.nar;
        let flip = (neg as u64).wrapping_neg() & self.mask;
        let mag = (bits ^ flip).wrapping_add(neg as u64) & self.mask;
        let sign = if neg { Sign::Negative } else { Sign::Positive };
        // NaR is the only word whose magnitude keeps the sign bit, so
        // hi ∈ [0, 0x80] and one range test routes every special case —
        // NaR (0x80), the two escape rows (0, 0x7F), and zero (`bits == 0`
        // lands on `lo_ref[0]`, which decodes to `Zero`, and `with_sign`
        // ignores the sign of non-finite values).
        let hi = (mag >> self.low_bits) as usize;
        let low = mag & self.low_mask;
        if hi.wrapping_sub(1) >= 0x7E {
            if hi == 0x80 {
                return PositValue::NaR;
            }
            let esc = if hi == 0 { &self.lo_ref } else { &self.hi_ref };
            return with_sign(esc[low as usize], sign);
        }
        let t = &self.tops[hi];
        let rest = t.rest_hi as u64 | low;
        let e_field = (rest >> t.frac_width) as i32;
        let scale = t.scale_base + (e_field << t.e_shift);
        let frac = (rest & t.frac_mask as u64) << t.frac_shift;
        PositValue::Finite(Decoded { sign, scale, frac })
    }
}

type Lut2Slot = OnceLock<Box<Lut2>>;

#[allow(clippy::declare_interior_mutable_const)]
const LUT2_INIT: Lut2Slot = OnceLock::new();
#[allow(clippy::declare_interior_mutable_const)]
const LUT2_ROW: [Lut2Slot; ES_SLOTS] = [LUT2_INIT; ES_SLOTS];

const N2_SLOTS: usize = (MAX_LUT2_BITS - MAX_LUT_BITS) as usize; // n in 9..=16

static LUT2: [[Lut2Slot; ES_SLOTS]; N2_SLOTS] = [LUT2_ROW; N2_SLOTS];

/// The two-level decode table of a medium format (`8 < n ≤ 16`), or `None`
/// outside that range (narrow formats use the flat [`decode_lut`]; wider
/// formats fall back to the bit-twiddled decode).
pub fn decode_lut2(fmt: PositFormat) -> Option<&'static Lut2> {
    if fmt.n() <= MAX_LUT_BITS || fmt.n() > MAX_LUT2_BITS {
        return None;
    }
    let (ni, ei) = ((fmt.n() - MAX_LUT_BITS - 1) as usize, fmt.es() as usize);
    Some(LUT2[ni][ei].get_or_init(|| Box::new(Lut2::build(fmt))))
}

// ----------------------------------------------------------------------
// Fixed-point words (the integer operands of the exact dot kernels)
// ----------------------------------------------------------------------

/// The fixed-point word of a decoded posit: `value / 2^min_scale` as a
/// signed integer, or `None` for NaR and for formats whose words do not
/// fit an `i64`.
///
/// The division is exact: no posit's least significant bit weighs less
/// than `2^min_scale` (the regime eats fraction bits toward the extreme
/// scales), so the word is an integer. Its magnitude is at most
/// `maxpos / minpos = 2^(2·max_scale)`, which fits an `i64` exactly when
/// `2·max_scale ≤ 62` — posit(8, es ≤ 2) and posit(16, es ≤ 1), but not
/// posit(16,2). The product of two words is then the product of the two
/// values in units of `2^(2·min_scale)`, which is what lets a dot kernel
/// sum plain integer products and round once.
pub fn fixed_word(fmt: PositFormat, v: PositValue) -> Option<i64> {
    if 2 * fmt.max_scale() > 62 {
        return None;
    }
    match v {
        PositValue::NaR => None,
        PositValue::Zero => Some(0),
        PositValue::Finite(d) => {
            // value = sig · 2^(scale − 63), so word = sig >> (63 − (scale −
            // min_scale)): a right shift of 1..=63 that drops only zeros.
            let w = (d.significand() >> (63 - (d.scale - fmt.min_scale()))) as i64;
            Some(if d.sign.is_negative() { -w } else { w })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_words_match_decode_for_every_training_format() {
        // Every byte of every 8-bit training format, NaR and zero
        // included: the word times 2^min_scale is the decoded value
        // (exact in f64 — at most 5 significant bits below 2^48).
        for es in 0..=2 {
            let fmt = PositFormat::of(8, es);
            for b in 0..256u64 {
                let w = fixed_word(fmt, fmt.decode(b));
                match fmt.decode(b) {
                    PositValue::NaR => assert_eq!(w, None, "(8,{es}) NaR"),
                    PositValue::Zero => assert_eq!(w, Some(0), "(8,{es}) zero"),
                    PositValue::Finite(_) => {
                        let w = w.expect("(8, es ≤ 2) words fit an i64");
                        assert!(w != 0 && w.unsigned_abs() <= 1 << (2 * fmt.max_scale()));
                        let v = w as f64 * (fmt.min_scale() as f64).exp2();
                        assert_eq!(v, fmt.to_f64(b), "(8,{es}) code {b:#x}");
                    }
                }
            }
        }
        // Words too wide for an i64: (8,3) and (16,2) have 2·max_scale = 96.
        assert!(fixed_word(PositFormat::of(8, 3), PositValue::Zero).is_none());
        assert!(fixed_word(PositFormat::of(16, 2), PositValue::Zero).is_none());
        let p16 = PositFormat::of(16, 1);
        assert_eq!(
            fixed_word(p16, p16.decode(p16.maxpos_bits())),
            Some(1 << 56)
        );
        assert_eq!(fixed_word(p16, p16.decode(1)), Some(1), "minpos is word 1");
    }

    #[test]
    fn decode_lut_matches_decode_for_every_narrow_format() {
        for n in 2..=8 {
            for es in 0..=4 {
                let fmt = PositFormat::of(n, es);
                let lut = decode_lut(fmt).expect("narrow format has a LUT");
                assert_eq!(lut.len(), 256);
                for b in 0..256u64 {
                    assert_eq!(lut[b as usize], fmt.decode(b), "({n},{es}) code {b:#x}");
                }
            }
        }
    }

    #[test]
    fn f32_lut_matches_to_f32() {
        for (n, es) in [(6u32, 0u32), (8, 0), (8, 1), (8, 2)] {
            let fmt = PositFormat::of(n, es);
            let lut = to_f32_lut(fmt).unwrap();
            for b in 0..256u64 {
                let want = fmt.to_f32(b);
                let got = lut[b as usize];
                assert!(
                    got == want || (got.is_nan() && want.is_nan()),
                    "({n},{es}) code {b:#x}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn wide_formats_have_no_lut() {
        assert!(decode_lut(PositFormat::of(16, 1)).is_none());
        assert!(to_f32_lut(PositFormat::of(32, 2)).is_none());
    }

    #[test]
    fn lut2_matches_decode_for_every_medium_format() {
        for n in 9..=16 {
            for es in 0..=4 {
                let fmt = PositFormat::of(n, es);
                let lut2 = decode_lut2(fmt).expect("medium format has a two-level LUT");
                assert_eq!(lut2.format(), fmt);
                for bits in 0..fmt.code_count() {
                    assert_eq!(
                        lut2.decode(bits),
                        fmt.decode(bits),
                        "({n},{es}) code {bits:#x}"
                    );
                }
                // Decode masks to the low n bits exactly like a direct decode.
                for bits in [fmt.code_count(), fmt.code_count() + 3, u32::MAX as u64] {
                    assert_eq!(lut2.decode(bits), fmt.decode(bits));
                }
            }
        }
    }

    #[test]
    fn lut2_is_only_for_medium_formats() {
        assert!(decode_lut2(PositFormat::of(8, 1)).is_none());
        assert!(decode_lut2(PositFormat::of(17, 2)).is_none());
        assert!(decode_lut2(PositFormat::of(32, 3)).is_none());
        assert!(decode_lut2(PositFormat::of(9, 0)).is_some());
        assert!(decode_lut2(PositFormat::of(16, 4)).is_some());
    }
}
