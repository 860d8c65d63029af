//! Posit-domain GEMM: decode-once operand planes with exact quire
//! accumulation.
//!
//! The paper's claim is that low-precision posit training holds up when dot
//! products accumulate *exactly* (the EMAC of Deep Positron): every product
//! `P(a)·P(b)` lands in a wide fixed-point accumulator and the sum is
//! rounded to a posit only once, on store. The naive way to get there is to
//! call [`posit::Quire::add_product`] per multiply-accumulate, which decodes
//! both code words every time — `O(M·N·K)` decodes. The kernels here instead
//! unpack each operand element once into an `(sign, scale, fraction)`
//! [`PositPlane`] and feed raw significand products to the accumulator —
//! `O(M·K + K·N)` decodes, zero per-MAC decode work.
//!
//! The per-MAC work is the integer multiply-accumulate of the paper's MAC
//! (Figs. 4–6) and of Deep Positron's EMAC:
//!
//! * **fixed-point words** — each operand element becomes the integer
//!   `w = value / 2^min_scale` once per call. For every format whose
//!   words fit an `i64` (posit(8, es ≤ 2) and posit(16,1)), a dot is a
//!   plain `i32×i32→i64` or `i64×i64→i128` multiply-accumulate loop in
//!   register tiles (`word_dots`), and each exact sum rounds once through
//!   [`NarrowQuire::from_sum`]. posit(16,2), the paper's 16-bit error
//!   format, spans 224 bits: its words are split into a 12-bit signed
//!   significand and a shift, the same loop adds each product into one of
//!   four `i128` lanes by its shift, and the lanes fold into a 256-bit
//!   [`Sum256`] that rounds once, all on the stack. The budgets are
//!   proved on `dot_bits`; anything outside them falls back to the
//!   limb-array [`Quire`] — bit-identically;
//! * **decode LUTs** — ≤8-bit formats decode operand planes through a
//!   256-entry [`Unpacked`] table and round back to f32 on store through
//!   [`posit::lut::to_f32_lut`], replacing per-element bit-twiddling.
//!
//! The kernel family mirrors the f32 entry points in [`crate::gemm`]
//! (`gemm`, `gemm_at_b`, `gemm_a_bt`) with identical shape conventions and
//! the same static row partitioner (now on the persistent worker pool), so
//! the `nn` layers can swap backends without reshaping anything. Exactness
//! makes all of this bit-transparent: integer vs wide, tiled vs scalar and
//! serial vs pooled all compute the same exact sum and round it once, which
//! the exhaustive cross-checks in `tests/posit_gemm_exhaustive.rs` pin
//! against exact rational arithmetic.

use crate::gemm::par_rows;
use posit::{NarrowQuire, PositFormat, PositValue, Quire, Rounding, Sum256};
use std::sync::OnceLock;

/// Cached handles for the kernel-path counters (`tensor.*` namespace in
/// the global [`posit_obs::Registry`]). Which path fired — a fixed-width
/// integer loop of 64, 128 or 256 bits (`narrow_calls`) vs the heap limb
/// quire (`wide_calls`), SWAR vs LUT vs bit-twiddle
/// decode — is invisible in the results (all paths are bit-identical by
/// construction), so these counters are the only way to see what actually
/// ran. Recording is per *call* (per output for NaR outputs),
/// never per MAC, and every site checks [`posit_obs::enabled`] first, so
/// the disabled cost on the hot path is a relaxed atomic load.
struct GemmObs {
    narrow_calls: posit_obs::Counter,
    wide_calls: posit_obs::Counter,
    decode_lut8: posit_obs::Counter,
    decode_lut2: posit_obs::Counter,
    decode_swar: posit_obs::Counter,
    decode_twiddle: posit_obs::Counter,
    quire_nar: posit_obs::Counter,
}

fn gemm_obs() -> &'static GemmObs {
    static OBS: OnceLock<GemmObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = posit_obs::Registry::global();
        GemmObs {
            narrow_calls: r.counter("tensor.gemm.narrow_calls"),
            wide_calls: r.counter("tensor.gemm.wide_calls"),
            decode_lut8: r.counter("tensor.plane.decode.lut8_elems"),
            decode_lut2: r.counter("tensor.plane.decode.lut2_elems"),
            decode_swar: r.counter("tensor.plane.decode.swar_elems"),
            decode_twiddle: r.counter("tensor.plane.decode.twiddle_elems"),
            quire_nar: r.counter("tensor.gemm.quire_nar_outputs"),
        }
    })
}

/// Which decode route produced a plane's elements.
#[derive(Clone, Copy)]
enum DecodeRoute {
    /// 256-entry byte LUT (`n ≤ 8` formats).
    Lut8,
    /// Two-level `decode_lut2` tables (`8 < n ≤ 16`).
    Lut2,
    /// SWAR 8-lane packed-byte gather.
    Swar,
    /// Bit-twiddled scalar reference decoder.
    Twiddle,
}

/// Count `n` elements decoded through `route` (no-op while disabled).
fn note_decode(route: DecodeRoute, n: usize) {
    if posit_obs::enabled() {
        let o = gemm_obs();
        let c = match route {
            DecodeRoute::Lut8 => &o.decode_lut8,
            DecodeRoute::Lut2 => &o.decode_lut2,
            DecodeRoute::Swar => &o.decode_swar,
            DecodeRoute::Twiddle => &o.decode_twiddle,
        };
        c.add(n as u64);
    }
}

/// Sentinel scale marking a NaR element in a plane (no finite posit scale
/// gets anywhere near `i32::MIN`).
const NAR_SCALE: i32 = i32::MIN;

/// One decoded posit operand: `value = ±2^(scale-63) * sig` with the
/// implicit leading one at bit 63 of `sig`.
///
/// Zero is `sig == 0`; NaR is `sig == 0` with `scale == i32::MIN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct Unpacked {
    /// 64-bit significand (bit 63 set for finite non-zero values).
    pub sig: u64,
    /// Effective binary exponent, or the NaR sentinel.
    pub scale: i32,
    /// True for negative values.
    pub neg: bool,
    /// Explicit (always-zero) tail padding, pinned after `neg` by the C
    /// layout: with every byte defined and the zero bytes contiguous, the
    /// compiler stores a plane element as two plain words instead of
    /// field-by-field writes plus an undef-padding copy. Three scalar
    /// fields, not `[u8; 3]` — the array form defeats scalar replacement
    /// and reintroduces a stack round-trip in the decode loops.
    _pad0: u8,
    _pad1: u8,
    _pad2: u8,
}

const ZERO_ELEM: Unpacked = Unpacked {
    sig: 0,
    scale: 0,
    neg: false,
    _pad0: 0,
    _pad1: 0,
    _pad2: 0,
};

/// The posit zero: the padding of a gathered conv unfold (see
/// [`crate::conv::im2col`]).
impl Default for Unpacked {
    fn default() -> Unpacked {
        ZERO_ELEM
    }
}

impl Unpacked {
    /// The multiplicative identity in element form — the `y` operand that
    /// turns a multiply-accumulate into a plain accumulate (`x · 1`), used
    /// by the gradient buffers to sum posit values exactly.
    pub const ONE: Unpacked = Unpacked {
        sig: 1 << 63,
        scale: 0,
        neg: false,
        _pad0: 0,
        _pad1: 0,
        _pad2: 0,
    };

    /// True iff this element is the NaR sentinel.
    pub fn is_nar(&self) -> bool {
        self.sig == 0 && self.scale == NAR_SCALE
    }
}

/// The decoded value in the kernels' element form, with an optional Eq. 2
/// scale shift folded in — the single definition both the direct decode
/// path and the LUT build go through.
#[inline(always)]
fn unpack(v: PositValue, scale_exp: i32) -> Unpacked {
    match v {
        PositValue::Zero => ZERO_ELEM,
        PositValue::NaR => Unpacked {
            sig: 0,
            scale: NAR_SCALE,
            neg: false,
            _pad0: 0,
            _pad1: 0,
            _pad2: 0,
        },
        PositValue::Finite(d) => Unpacked {
            sig: d.significand(),
            scale: d.scale + scale_exp,
            neg: d.sign.is_negative(),
            _pad0: 0,
            _pad1: 0,
            _pad2: 0,
        },
    }
}

fn decode_one(fmt: PositFormat, b: u64, scale_exp: i32) -> Unpacked {
    unpack(fmt.decode(b), scale_exp)
}

/// Fold a plane's Eq. 2 scale shift into one table-gathered element.
/// Finite non-zero values shift; zero keeps its canonical form and NaR
/// keeps its sentinel (compiles to a conditional move, no branch in the
/// lane loop).
#[inline]
fn shift_scale(mut u: Unpacked, scale_exp: i32) -> Unpacked {
    if u.sig != 0 {
        u.scale += scale_exp;
    }
    u
}

/// SWAR lane-group decode of `n ≤ 8` code words: split each u64 group into
/// eight 8-bit lanes, gather every lane through the 256-entry table and
/// fold the scale shift per lane. The table is indexed by the raw byte —
/// it is built by `decode`, which masks to `n` bits, so out-of-range lane
/// values alias their masked code word exactly like a direct decode.
#[inline]
fn decode_lanes8(lut: &[Unpacked; 256], word: u64, scale_exp: i32, out: &mut Vec<Unpacked>) {
    // One whole-group append, not eight pushes: `extend_from_slice` pays a
    // single capacity check per lane group, which keeps the gather loop at
    // load/shift/store throughput.
    let group: [Unpacked; 8] = std::array::from_fn(|lane| {
        shift_scale(lut[(word >> (8 * lane)) as u8 as usize], scale_exp)
    });
    out.extend_from_slice(&group);
}

/// The 256-entry [`Unpacked`] decode table of a narrow (`n ≤ 8`) format:
/// [`posit::lut::decode_lut`] re-shaped into the kernels' flat 16-byte
/// element form (worth its own cached copy — the hot loops load it once
/// per element). `None` for wider formats. A table hit is identical to a
/// direct decode by construction: both routes run [`unpack`] over the same
/// bit-exact decoder output.
fn unpacked_lut(fmt: PositFormat) -> Option<&'static [Unpacked]> {
    type Slot = OnceLock<Vec<Unpacked>>;
    #[allow(clippy::declare_interior_mutable_const)]
    const SLOT: Slot = OnceLock::new();
    #[allow(clippy::declare_interior_mutable_const)]
    const ROW: [Slot; 5] = [SLOT; 5];
    static LUTS: [[Slot; 5]; 7] = [ROW; 7]; // n in 2..=8 × es in 0..=4
    let decoded = posit::lut::decode_lut(fmt)?;
    let slot = &LUTS[(fmt.n() - 2) as usize][fmt.es() as usize];
    Some(
        slot.get_or_init(|| decoded.iter().map(|&v| unpack(v, 0)).collect())
            .as_slice(),
    )
}

/// A matrix tile decoded once into unpacked posit elements.
///
/// Built from f32 data (quantize + decode) or from raw code words (decode
/// only); consumed by the [`PositGemm`] kernels, which never decode again.
#[derive(Debug, Clone)]
pub struct PositPlane {
    fmt: PositFormat,
    /// Eq. 2 scale exponent folded into the element scales (widens the
    /// quire the kernels allocate; 0 for unshifted planes).
    scale_exp: i32,
    elems: Vec<Unpacked>,
}

impl PositPlane {
    /// Decode a slice of code words (low `n` bits of each `u64`).
    ///
    /// Narrow (`n ≤ 8`) formats gather through the same 256-entry
    /// byte-indexed table the SWAR lane groups of [`PositPlane::from_packed`]
    /// use; medium (`8 < n ≤ 16`) formats decode through the two-level
    /// [`posit::lut::decode_lut2`] tables. Both routes are pinned
    /// bit-identical to [`PositPlane::from_bits_scalar`].
    pub fn from_bits(fmt: PositFormat, bits: &[u64]) -> PositPlane {
        let elems = if let Some(lut) = unpacked_lut(fmt) {
            let lut: &[Unpacked; 256] = lut.try_into().expect("decode LUTs have 256 entries");
            note_decode(DecodeRoute::Lut8, bits.len());
            // Exact-size `map`/`collect`: no per-element capacity checks,
            // and the low-byte index aliases out-of-range words to their
            // masked code exactly like the lane gather in `from_packed`.
            bits.iter().map(|&b| lut[b as u8 as usize]).collect()
        } else if let Some(lut2) = posit::lut::decode_lut2(fmt) {
            // The view copies the table's scalar fields out of `&Lut2`, and
            // the `map`/`collect` fold (exact-size, no per-element capacity
            // checks) runs `decode` over it.
            let lut2 = lut2.view();
            note_decode(DecodeRoute::Lut2, bits.len());
            bits.iter().map(|&b| unpack(lut2.decode(b), 0)).collect()
        } else {
            note_decode(DecodeRoute::Twiddle, bits.len());
            bits.iter().map(|&b| decode_one(fmt, b, 0)).collect()
        };
        PositPlane {
            fmt,
            scale_exp: 0,
            elems,
        }
    }

    /// [`PositPlane::from_bits`] through the bit-twiddled reference decoder
    /// only — no table gathers, no lane groups. This is the scalar oracle
    /// the SWAR and two-level-LUT decode paths are tested against (and the
    /// `plane_decode/twiddle` bench rows).
    pub fn from_bits_scalar(fmt: PositFormat, bits: &[u64]) -> PositPlane {
        note_decode(DecodeRoute::Twiddle, bits.len());
        PositPlane {
            fmt,
            scale_exp: 0,
            elems: bits.iter().map(|&b| decode_one(fmt, b, 0)).collect(),
        }
    }

    /// Decode a packed storage plane, folding its Eq. 2 scale exponent into
    /// the element scales — the decode-once entry point for posit-resident
    /// tensors: `value = P(x/Sf)·Sf` arrives in the kernel *exactly*, with
    /// no f32 staging buffer and no re-rounding onto the unshifted grid.
    pub fn from_packed(
        fmt: PositFormat,
        bits: &crate::storage::PackedBits,
        scale_exp: i32,
    ) -> PositPlane {
        let elems = if let (Some(lut), Some(bytes)) = (unpacked_lut(fmt), bits.as_u8()) {
            // SWAR fast path: read the packed plane eight code words at a
            // time as little-endian u64 lane groups.
            let lut: &[Unpacked; 256] = lut.try_into().expect("decode LUTs have 256 entries");
            note_decode(DecodeRoute::Swar, bytes.len());
            let mut elems = Vec::with_capacity(bytes.len());
            let mut groups = bytes.chunks_exact(8);
            for group in groups.by_ref() {
                let word = u64::from_le_bytes(group.try_into().expect("chunk of 8"));
                decode_lanes8(lut, word, scale_exp, &mut elems);
            }
            for &b in groups.remainder() {
                elems.push(shift_scale(lut[b as usize], scale_exp));
            }
            elems
        } else if let (Some(lut2), Some(words)) = (posit::lut::decode_lut2(fmt), bits.as_u16()) {
            let lut2 = lut2.view();
            note_decode(DecodeRoute::Lut2, words.len());
            words
                .iter()
                .map(|&w| unpack(lut2.decode(w as u64), scale_exp))
                .collect()
        } else {
            note_decode(DecodeRoute::Twiddle, bits.len());
            bits.iter().map(|b| decode_one(fmt, b, scale_exp)).collect()
        };
        PositPlane {
            fmt,
            scale_exp,
            elems,
        }
    }

    /// [`PositPlane::from_packed`] through the bit-twiddled reference
    /// decoder only — the scalar oracle for the packed-lane paths.
    pub fn from_packed_scalar(
        fmt: PositFormat,
        bits: &crate::storage::PackedBits,
        scale_exp: i32,
    ) -> PositPlane {
        note_decode(DecodeRoute::Twiddle, bits.len());
        PositPlane {
            fmt,
            scale_exp,
            elems: bits.iter().map(|b| decode_one(fmt, b, scale_exp)).collect(),
        }
    }

    /// A plane over already-decoded elements (e.g. a gather of another
    /// plane's elements), carrying that plane's format and scale shift.
    pub(crate) fn from_elems(fmt: PositFormat, scale_exp: i32, elems: Vec<Unpacked>) -> PositPlane {
        PositPlane {
            fmt,
            scale_exp,
            elems,
        }
    }

    /// Quantize f32 data to the format under `rounding`, then decode once.
    ///
    /// This is the `P(·)` edge of the paper's Fig. 3 fused with the operand
    /// unpack: the plane holds exactly the values a quantize→store→reload
    /// round trip would produce, without materializing the f32 copy.
    pub fn from_f32(fmt: PositFormat, xs: &[f32], rounding: Rounding) -> PositPlane {
        let bits: Vec<u64> = xs.iter().map(|&x| fmt.from_f32(x, rounding)).collect();
        PositPlane::from_bits(fmt, &bits)
    }

    /// The format the plane was decoded from.
    pub fn format(&self) -> PositFormat {
        self.fmt
    }

    /// The Eq. 2 scale exponent folded into the element scales.
    pub fn scale_exp(&self) -> i32 {
        self.scale_exp
    }

    /// Extra quire headroom (bits) this plane's scale shift requires.
    pub fn quire_margin(&self) -> u32 {
        self.scale_exp.unsigned_abs()
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True iff the plane holds no elements.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// The unpacked elements (row-major, caller-defined shape).
    pub fn elems(&self) -> &[Unpacked] {
        &self.elems
    }

    /// Mutable elements, for an in-place gather into a reused plane.
    pub(crate) fn elems_mut(&mut self) -> &mut [Unpacked] {
        &mut self.elems
    }

    /// Render back to f32 (each element is an exactly representable posit).
    pub fn to_f32(&self) -> Vec<f32> {
        self.elems
            .iter()
            .map(|e| {
                if e.sig == 0 {
                    if e.scale == NAR_SCALE {
                        f32::NAN
                    } else {
                        0.0
                    }
                } else {
                    let m = e.sig as f64 * (e.scale as f64 - 63.0).exp2();
                    if e.neg {
                        -m as f32
                    } else {
                        m as f32
                    }
                }
            })
            .collect()
    }
}

/// Transpose an `[rows, cols]` element tile into `[cols, rows]` — the
/// panel-packing step of the wide fallback, which turns its strided
/// operand walk into two contiguous streams.
fn transpose_elems(src: &[Unpacked], rows: usize, cols: usize) -> Vec<Unpacked> {
    debug_assert_eq!(src.len(), rows * cols);
    let mut out = vec![ZERO_ELEM; src.len()];
    for r in 0..rows {
        let src_row = &src[r * cols..(r + 1) * cols];
        for (c, &e) in src_row.iter().enumerate() {
            out[c * rows + r] = e;
        }
    }
    out
}

/// `⌈log2 k⌉` (0 for `k ≤ 1`): the carry bits a `k`-term sum can add.
pub(crate) fn clog2(k: usize) -> u32 {
    k.max(1).next_power_of_two().trailing_zeros()
}

/// The significand width of `fmt`'s posits, hidden one included: the
/// `n − 3 − es` fraction bits a posit keeps next to the shortest regime,
/// plus one. Longer regimes only ever leave fewer.
fn sig_bits(fmt: PositFormat) -> u32 {
    (fmt.n() as i32 - 2 - fmt.es() as i32).max(1) as u32
}

/// True when a depth-`k` dot of `fmt`'s [`SigWord`]s cannot overflow its
/// `i128` lanes: `2·sig_bits + 63 + ⌈log2 k⌉ ≤ 127` (see [`dot_bits`]).
pub(crate) fn lanes_fit(fmt: PositFormat, k: usize) -> bool {
    2 * sig_bits(fmt) + 63 + clog2(k) <= 127
}

/// The width in bits of the exact integer sum a depth-`k` dot of `fmt`
/// words runs in: `Some(64)` for `i32` words summed in an `i64`,
/// `Some(128)` for `i64` words summed in an `i128`, `Some(256)` for
/// [`SigWord`]s summed in four `i128` lanes and folded into a [`Sum256`],
/// `None` when the dot needs the wide [`Quire`].
///
/// A word is `w = value / 2^min_scale` (see [`posit::lut::fixed_word`]):
/// an integer, with `|w| ≤ maxpos / minpos = 2^(2·max_scale)`. So
///
/// * `i32` words need `2·max_scale ≤ 30` (`|w| ≤ 2^30 < 2^31`), and
///   `i64` words need `2·max_scale ≤ 62`;
/// * a product of two words is at most `2^(4·max_scale)` in magnitude, so
///   every partial sum of a `k`-term dot is at most
///   `2^(4·max_scale + ⌈log2 k⌉)`. The `i64` sum is exact when
///   `4·max_scale + 2 + ⌈log2 k⌉ ≤ 63`, the `i128` sum when the same sum
///   is `≤ 127`, and the 256-bit sum when it is `≤ 255` — one bit to spare
///   below the sign bit, the same accounting as
///   [`NarrowQuire::guard_bits`];
/// * past 64 bits a word is split as `w = m · 2^s` ([`SigWord`]): the
///   signed significand `|m| < 2^sig_bits` and the shift
///   `s = max(0, t − (sig_bits − 1))` with `t = scale − min_scale ∈
///   [0, 2·max_scale]`. The split is exact: a posit at scale `scale` has
///   at most `sig_bits − 1` fraction bits, and every posit is a multiple of
///   `2^min_scale`. A product `m_a·m_b · 2^(s_a + s_b)` adds into `i128`
///   lane `(s_a + s_b) >> 6` shifted left by `(s_a + s_b) & 63`. Each
///   such term is below `2^(2·sig_bits + 63)` in magnitude, so a lane's
///   partial sum of at most `k` terms stays inside an `i128` when
///   `2·sig_bits + 63 + ⌈log2 k⌉ ≤ 127` ([`lanes_fit`]). The lane index
///   is at most 3, because `s_a + s_b ≤ 4·max_scale ≤ 253`. The fold
///   `Σ lane_i · 2^(64·i)` is then the exact dot `Σ w_a·w_b`, inside 256
///   bits by the bullet above. `m` fits an `i32` and `m_a·m_b` an `i64`:
///   `sig_bits ≤ 30` for every `n ≤ 32`.
///
/// The `i32` path covers posit(8,0) and posit(8,1); the `i64` path covers
/// posit(8,2), posit(16,1), and the 8-bit formats past their `i64`
/// budget. posit(16,2) (`2·max_scale = 112`, 12 significand bits) takes
/// the 256-bit path up to `k = 2^29`, and posit(16,1) takes it past its
/// `i128` budget. The plane scale shifts never enter the budget: they
/// move the fixed point, not the words.
pub(crate) fn dot_bits(fmt: PositFormat, k: usize) -> Option<u32> {
    let max_scale = fmt.max_scale() as u32;
    let need = 4 * max_scale + 2 + clog2(k);
    if 2 * max_scale <= 30 && need <= 63 {
        Some(64)
    } else if 2 * max_scale <= 62 && need <= 127 {
        Some(128)
    } else if need <= 255 && lanes_fit(fmt, k) {
        Some(256)
    } else {
        None
    }
}

/// An exact fixed-point sum in units of `2^emin` that rounds once: the
/// `i128` of the 64- and 128-bit tiers or the 256-bit [`Sum256`].
pub(crate) trait Exact: Copy + Default + Send + Sync {
    /// Round `self · 2^emin` (NaR when `nar`) to a code word of `fmt`.
    fn round(self, fmt: PositFormat, emin: i32, nar: bool, rounding: Rounding) -> u64;
}

impl Exact for i128 {
    #[inline]
    fn round(self, fmt: PositFormat, emin: i32, nar: bool, rounding: Rounding) -> u64 {
        let mut q = NarrowQuire::from_sum(fmt, emin, self);
        if nar {
            q.set_nar();
        }
        q.to_posit(rounding, 0)
    }
}

impl Exact for Sum256 {
    #[inline]
    fn round(self, fmt: PositFormat, emin: i32, nar: bool, rounding: Rounding) -> u64 {
        if nar {
            fmt.nar_bits()
        } else {
            self.to_posit(fmt, emin, rounding, 0)
        }
    }
}

/// Where a plane's elements sit on the integer grid: `base = min_scale +
/// e` for a plane shifted by `2^e` (the word is `value / 2^base`, the
/// shift factored out), and the format's significand width.
#[derive(Clone, Copy)]
pub(crate) struct Grid {
    base: i32,
    sig_bits: u32,
}

impl Grid {
    /// The grid of `plane`'s format and scale shift.
    pub(crate) fn of(plane: &PositPlane) -> Grid {
        Grid {
            base: plane.fmt.min_scale() + plane.scale_exp,
            sig_bits: sig_bits(plane.fmt),
        }
    }
}

/// An integer word type of the fixed-point kernels and its exact sums.
pub(crate) trait Word: Copy + Default + Send + Sync {
    /// A dot's register accumulator: wide enough for every in-budget dot
    /// (see [`dot_bits`]).
    type Sum: Copy + Default;
    /// The exact sum a dot folds into.
    type Exact: Exact;
    /// The word of one plane element on `grid`.
    fn from_elem(e: Unpacked, grid: Grid) -> Self;
    /// `s += a·b`, widened before the multiply.
    fn mac(s: &mut Self::Sum, a: Self, b: Self);
    /// `slot += s · 2^shift`.
    fn add_sum(slot: &mut Self::Exact, s: Self::Sum, shift: u32);
    /// `slot += w · 2^shift`.
    fn add_word(slot: &mut Self::Exact, w: Self, shift: u32);
    /// The dot `s` as an exact sum.
    #[inline(always)]
    fn exact(s: Self::Sum) -> Self::Exact {
        let mut e = Self::Exact::default();
        Self::add_sum(&mut e, s, 0);
        e
    }
}

impl Word for i32 {
    type Sum = i64;
    type Exact = i128;
    #[inline(always)]
    fn from_elem(e: Unpacked, grid: Grid) -> i32 {
        word_of(e, 63 + grid.base) as i32
    }
    #[inline(always)]
    fn mac(s: &mut i64, a: i32, b: i32) {
        *s += a as i64 * b as i64;
    }
    #[inline(always)]
    fn add_sum(slot: &mut i128, s: i64, shift: u32) {
        *slot += (s as i128) << shift;
    }
    #[inline(always)]
    fn add_word(slot: &mut i128, w: i32, shift: u32) {
        *slot += (w as i128) << shift;
    }
}

impl Word for i64 {
    type Sum = i128;
    type Exact = i128;
    #[inline(always)]
    fn from_elem(e: Unpacked, grid: Grid) -> i64 {
        word_of(e, 63 + grid.base)
    }
    #[inline(always)]
    fn mac(s: &mut i128, a: i64, b: i64) {
        *s += a as i128 * b as i128;
    }
    #[inline(always)]
    fn add_sum(slot: &mut i128, s: i128, shift: u32) {
        *slot += s << shift;
    }
    #[inline(always)]
    fn add_word(slot: &mut i128, w: i64, shift: u32) {
        *slot += (w as i128) << shift;
    }
}

/// The word `w = m · 2^s` of the 256-bit tier, split into its signed
/// significand and shift (see [`dot_bits`]).
#[derive(Clone, Copy, Default)]
pub(crate) struct SigWord {
    m: i32,
    s: u32,
}

impl Word for SigWord {
    type Sum = [i128; 4];
    type Exact = Sum256;
    #[inline(always)]
    fn from_elem(e: Unpacked, grid: Grid) -> SigWord {
        // `t = scale − min_scale`; zero and NaR carry no significand bits
        // and sit at t = 0, which gives m = 0 and s = 0.
        let t = if e.sig == 0 { 0 } else { e.scale - grid.base };
        let s = (t - (grid.sig_bits as i32 - 1)).max(0);
        let m = (e.sig >> (63 - t + s)) as i32;
        SigWord {
            m: if e.neg { -m } else { m },
            s: s as u32,
        }
    }
    #[inline(always)]
    fn mac(lanes: &mut [i128; 4], a: SigWord, b: SigWord) {
        let sh = a.s + b.s;
        // `& 3` changes nothing (`sh ≤ 253`); it lets the index skip its
        // bounds check.
        lanes[(sh >> 6) as usize & 3] += ((a.m as i64 * b.m as i64) as i128) << (sh & 63);
    }
    #[inline]
    fn add_sum(slot: &mut Sum256, lanes: [i128; 4], shift: u32) {
        for (i, &lane) in lanes.iter().enumerate() {
            slot.add_shifted(lane, 64 * i as u32 + shift);
        }
    }
    #[inline]
    fn add_word(slot: &mut Sum256, w: SigWord, shift: u32) {
        slot.add_shifted(w.m as i128, w.s + shift);
    }
}

/// One GEMM operand as stored: `rows` panel rows (output rows for `A`,
/// output columns for `B`) of `k` elements each, row-major `[rows, k]` or,
/// when `transposed`, `[k, rows]`.
#[derive(Clone, Copy)]
pub(crate) struct Side<'a> {
    pub(crate) plane: &'a PositPlane,
    pub(crate) rows: usize,
    pub(crate) transposed: bool,
}

impl Side<'_> {
    /// The panel rows as contiguous `[rows, k]` elements (the wide
    /// fallback's layout).
    fn elems(&self, k: usize) -> std::borrow::Cow<'_, [Unpacked]> {
        if self.transposed {
            transpose_elems(self.plane.elems(), k, self.rows).into()
        } else {
            self.plane.elems().into()
        }
    }
}

/// An operand converted to fixed-point words once per call: `[rows, k]`
/// row-major, plus one NaR flag per panel row. NaR absorbs a whole dot
/// whatever its partner, so a flag per row replaces a per-MAC check; its
/// word is 0.
pub(crate) struct WordPanel<W> {
    pub(crate) words: Vec<W>,
    pub(crate) nar: Vec<bool>,
}

/// The word of one plane element: `sig · 2^(scale − e − 63) / 2^min_scale`
/// is one right shift of the significand by `base − scale`, with `base =
/// 63 + min_scale + e` for a plane shifted by `2^e`. The shift lies in
/// `1..=63` for every finite element of a word-eligible format and drops
/// only zero bits; zero and NaR have no significand bits, so their word is
/// 0 whatever the shift.
#[inline(always)]
fn word_of(e: Unpacked, base: i32) -> i64 {
    let w = e.sig.wrapping_shr(base.wrapping_sub(e.scale) as u32) as i64;
    if e.neg {
        -w
    } else {
        w
    }
}

impl<W: Word> WordPanel<W> {
    /// Convert `side` (reduction depth `k`) into words. The plane's Eq. 2
    /// shift is factored out of the words: the caller moves the fixed
    /// point by it instead.
    pub(crate) fn build(side: Side<'_>, k: usize) -> WordPanel<W> {
        let grid = Grid::of(side.plane);
        let elems = side.plane.elems();
        let rows = side.rows;
        let mut words = vec![W::default(); rows * k];
        let mut nar = vec![false; rows];
        for r in 0..rows {
            let dst = &mut words[r * k..(r + 1) * k];
            if side.transposed {
                for (t, w) in dst.iter_mut().enumerate() {
                    let e = elems[t * rows + r];
                    nar[r] |= e.is_nar();
                    *w = W::from_elem(e, grid);
                }
            } else {
                for (w, &e) in dst.iter_mut().zip(&elems[r * k..(r + 1) * k]) {
                    nar[r] |= e.is_nar();
                    *w = W::from_elem(e, grid);
                }
            }
        }
        WordPanel { words, nar }
    }
}

/// Rows per register tile of the integer micro-kernel.
const MR: usize = 2;

/// The exact integer dots of `a`'s `rows` panel rows against all `n` panel
/// rows of `b` (both `[·, k]` words), in `MR×TN` register tiles with
/// scalar edge loops: `out(i, j, sum)` once per output. Each sum is the
/// same exact integer whatever the tiling.
pub(crate) fn word_dots<W: Word, const TN: usize>(
    a: &[W],
    b: &[W],
    rows: usize,
    k: usize,
    n: usize,
    mut out: impl FnMut(usize, usize, W::Sum),
) {
    let dot = |x: &[W], y: &[W]| {
        let mut s = W::Sum::default();
        for (&p, &q) in x.iter().zip(y) {
            W::mac(&mut s, p, q);
        }
        s
    };
    let row = |i: usize| &a[i * k..(i + 1) * k];
    let col = |j: usize| &b[j * k..(j + 1) * k];
    let mut i = 0;
    while i + MR <= rows {
        // Re-slicing to `..k` lets the `t` loop drop its bounds checks.
        let xs: [&[W]; MR] = std::array::from_fn(|r| &row(i + r)[..k]);
        let mut j = 0;
        while j + TN <= n {
            let ys: [&[W]; TN] = std::array::from_fn(|c| &col(j + c)[..k]);
            let mut acc = [[W::Sum::default(); TN]; MR];
            for t in 0..k {
                for (acc_row, x) in acc.iter_mut().zip(&xs) {
                    for (s, y) in acc_row.iter_mut().zip(&ys) {
                        W::mac(s, x[t], y[t]);
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                for (c, &s) in acc_row.iter().enumerate() {
                    out(i + r, j + c, s);
                }
            }
            j += TN;
        }
        while j < n {
            for (r, x) in xs.iter().enumerate() {
                out(i + r, j, dot(x, col(j)));
            }
            j += 1;
        }
        i += MR;
    }
    while i < rows {
        for j in 0..n {
            out(i, j, dot(row(i), col(j)));
        }
        i += 1;
    }
}

/// The posit GEMM kernel family: exact accumulation over [`PositPlane`]
/// operands, one rounding per output element.
///
/// `C += round(Σ_k a·b)`: like the f32 kernels, outputs accumulate into `C`
/// so the backward passes can sum gradient contributions across calls; the
/// posit-domain rounding happens once per GEMM, on store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PositGemm {
    fmt: PositFormat,
    rounding: Rounding,
    force_wide: bool,
}

impl PositGemm {
    /// A kernel for `fmt`, rounding once per output element with `rounding`.
    ///
    /// [`Rounding::Stochastic`] needs a per-element random word the kernel
    /// does not carry; it degrades to round-to-nearest-even.
    pub fn new(fmt: PositFormat, rounding: Rounding) -> PositGemm {
        let rounding = if rounding == Rounding::Stochastic {
            Rounding::NearestEven
        } else {
            rounding
        };
        PositGemm {
            fmt,
            rounding,
            force_wide: false,
        }
    }

    /// Force the heap-allocated wide [`Quire`] even when the format's
    /// words fit an integer loop (builder style). Results are
    /// bit-identical either way; this exists so tests and benches can pin
    /// the fallback path.
    pub fn wide_accumulator(mut self, force_wide: bool) -> PositGemm {
        self.force_wide = force_wide;
        self
    }

    /// The width in bits of the integer sum a GEMM with reduction depth
    /// `k` accumulates each output in — `Some(64)` (`i32` words, `i64`
    /// sums), `Some(128)` (`i64` words, `i128` sums) or `Some(256)`
    /// (significand words, four `i128` lanes folded into a [`Sum256`]) —
    /// or `None` when it takes the wide [`Quire`]. Plane scale shifts do
    /// not enter: they move the fixed point, not the words.
    pub fn dot_bits(&self, k: usize) -> Option<u32> {
        if self.force_wide {
            None
        } else {
            dot_bits(self.fmt, k)
        }
    }

    /// The kernel's format.
    pub fn format(&self) -> PositFormat {
        self.fmt
    }

    /// Unpack f32 data into an operand plane for this kernel's format.
    pub fn encode_plane(&self, xs: &[f32]) -> PositPlane {
        PositPlane::from_f32(self.fmt, xs, self.rounding)
    }

    /// Round one exact output — `sum · 2^emin`, or NaR — to f32, through
    /// the store LUT when the format has one.
    #[inline]
    fn store<S: Exact>(&self, emin: i32, sum: S, nar: bool, lut: Option<&[f32]>) -> f32 {
        if nar && posit_obs::enabled() {
            gemm_obs().quire_nar.incr();
        }
        code_to_f32(self.fmt, lut, sum.round(self.fmt, emin, nar, self.rounding))
    }

    /// The shared body of every entry point: `c[m, n] += round(dot(a_i,
    /// b_j))` over the panel rows of both sides.
    fn gemm_sides(&self, m: usize, k: usize, n: usize, a: Side<'_>, b: Side<'_>, c: &mut [f32]) {
        let bits = self.dot_bits(k);
        if posit_obs::enabled() {
            let o = gemm_obs();
            if bits.is_some() {
                o.narrow_calls.incr();
            } else {
                o.wide_calls.incr();
            }
        }
        match bits {
            Some(64) => self.gemm_words::<i32, 4>(m, k, n, a, b, c),
            Some(128) => self.gemm_words::<i64, 2>(m, k, n, a, b, c),
            Some(_) => self.gemm_words::<SigWord, 4>(m, k, n, a, b, c),
            None => {
                let margin = a.plane.quire_margin() + b.plane.quire_margin();
                let (a_rows, b_cols) = (a.elems(k), b.elems(k));
                let f32_lut = posit::lut::to_f32_lut(self.fmt);
                par_rows(m, n, m * k * n, c, |row0, c_chunk| {
                    let rows = c_chunk.len().checked_div(n).unwrap_or(0);
                    let a_block = &a_rows[row0 * k..(row0 + rows) * k];
                    self.block_wide(f32_lut, margin, rows, k, n, a_block, &b_cols, c_chunk);
                });
            }
        }
    }

    /// The integer path: both sides become word panels once per call, the
    /// row blocks run [`word_dots`] on the pool, and each exact sum rounds
    /// once with the fixed point at `2^(2·min_scale + e_a + e_b)`.
    fn gemm_words<W: Word, const TN: usize>(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: Side<'_>,
        b: Side<'_>,
        c: &mut [f32],
    ) {
        let ap = WordPanel::<W>::build(a, k);
        let bp = WordPanel::<W>::build(b, k);
        let emin = 2 * self.fmt.min_scale() + a.plane.scale_exp + b.plane.scale_exp;
        let f32_lut = posit::lut::to_f32_lut(self.fmt);
        par_rows(m, n, m * k * n, c, |row0, c_chunk| {
            let rows = c_chunk.len().checked_div(n).unwrap_or(0);
            let a_block = &ap.words[row0 * k..(row0 + rows) * k];
            word_dots::<W, TN>(a_block, &bp.words, rows, k, n, |i, j, sum| {
                let nar = ap.nar[row0 + i] || bp.nar[j];
                c_chunk[i * n + j] += self.store(emin, W::exact(sum), nar, f32_lut);
            });
        });
    }

    /// Wide fallback over one row block: per-output dots into the
    /// limb-array [`Quire`] (formats or reduction depths outside the
    /// integer budgets). Operands still stream contiguously.
    #[allow(clippy::too_many_arguments)]
    fn block_wide(
        &self,
        f32_lut: Option<&[f32]>,
        margin: u32,
        rows: usize,
        k: usize,
        n: usize,
        a: &[Unpacked],
        b_cols: &[Unpacked],
        c: &mut [f32],
    ) {
        let mut q = Quire::with_margin(self.fmt, margin);
        for i in 0..rows {
            let a_run = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_run = &b_cols[j * k..(j + 1) * k];
                q.clear();
                for (&x, &y) in a_run.iter().zip(b_run) {
                    if x.sig == 0 || y.sig == 0 {
                        if x.scale == NAR_SCALE || y.scale == NAR_SCALE {
                            q.set_nar();
                        }
                        continue;
                    }
                    q.add_product_parts(
                        x.neg != y.neg,
                        x.scale + y.scale,
                        (x.sig as u128) * (y.sig as u128),
                    );
                }
                if posit_obs::enabled() && q.is_nar() {
                    gemm_obs().quire_nar.incr();
                }
                c[i * n + j] += code_to_f32(self.fmt, f32_lut, q.to_posit(self.rounding, 0));
            }
        }
    }

    /// `c += round(a[m,k] * b[k,n])` — the posit twin of [`crate::gemm::gemm`].
    ///
    /// # Panics
    ///
    /// Panics if the plane lengths disagree with the dimensions.
    pub fn gemm(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &PositPlane,
        b: &PositPlane,
        c: &mut [f32],
    ) {
        assert_eq!(a.format(), self.fmt, "A plane format");
        assert_eq!(b.format(), self.fmt, "B plane format");
        assert_eq!(a.len(), m * k, "A length");
        assert_eq!(b.len(), k * n, "B length");
        assert_eq!(c.len(), m * n, "C length");
        self.gemm_sides(m, k, n, side(a, m, false), side(b, n, true), c);
    }

    /// `c += round(a^T[m,k] * b[k,n])` with `a` stored `[k, m]` — the posit
    /// twin of [`crate::gemm::gemm_at_b`].
    ///
    /// # Panics
    ///
    /// Panics if the plane lengths disagree with the dimensions.
    pub fn gemm_at_b(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a_t: &PositPlane,
        b: &PositPlane,
        c: &mut [f32],
    ) {
        assert_eq!(a_t.format(), self.fmt, "A^T plane format");
        assert_eq!(b.format(), self.fmt, "B plane format");
        assert_eq!(a_t.len(), k * m, "A^T length");
        assert_eq!(b.len(), k * n, "B length");
        assert_eq!(c.len(), m * n, "C length");
        self.gemm_sides(m, k, n, side(a_t, m, true), side(b, n, true), c);
    }

    /// `c += round(a[m,k] * b^T[k,n])` with `b` stored `[n, k]` — the posit
    /// twin of [`crate::gemm::gemm_a_bt`]. Both operands already sit in
    /// panel layout.
    ///
    /// # Panics
    ///
    /// Panics if the plane lengths disagree with the dimensions.
    pub fn gemm_a_bt(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &PositPlane,
        b_t: &PositPlane,
        c: &mut [f32],
    ) {
        assert_eq!(a.format(), self.fmt, "A plane format");
        assert_eq!(b_t.format(), self.fmt, "B^T plane format");
        assert_eq!(a.len(), m * k, "A length");
        assert_eq!(b_t.len(), n * k, "B^T length");
        assert_eq!(c.len(), m * n, "C length");
        self.gemm_sides(m, k, n, side(a, m, false), side(b_t, n, false), c);
    }
}

/// A rounded code word of `fmt` as f32: through the store table `lut` of
/// an `n ≤ 8` format, else through the decode tables
/// ([`PositFormat::decode_fast`]) — bit-identical to
/// [`PositFormat::to_f32`] either way.
#[inline]
pub(crate) fn code_to_f32(fmt: PositFormat, lut: Option<&[f32]>, code: u64) -> f32 {
    match lut {
        Some(l) => l[code as usize],
        None => fmt.decode_fast(code).to_f64() as f32,
    }
}

/// `plane` as a GEMM side of `rows` panel rows.
pub(crate) fn side(plane: &PositPlane, rows: usize, transposed: bool) -> Side<'_> {
    Side {
        plane,
        rows,
        transposed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(fmt: PositFormat, xs: &[f32]) -> PositPlane {
        PositPlane::from_f32(fmt, xs, Rounding::NearestEven)
    }

    #[test]
    fn plane_roundtrip_and_specials() {
        let fmt = PositFormat::of(16, 1);
        let xs = [1.5f32, -0.25, 0.0, 3.0, f32::NAN];
        let p = plane(fmt, &xs);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.format(), fmt);
        let back = p.to_f32();
        assert_eq!(&back[..4], &[1.5, -0.25, 0.0, 3.0]);
        assert!(back[4].is_nan());
    }

    #[test]
    fn lut_plane_decode_matches_direct_decode() {
        // Every ≤8-bit code word must decode to the same Unpacked through
        // the LUT path (from_bits) as through decode_one, including NaR and
        // a scale shift through from_packed.
        for (n, es) in [(8u32, 0u32), (8, 1), (8, 2), (6, 0), (5, 1)] {
            let fmt = PositFormat::of(n, es);
            let codes: Vec<u64> = (0..fmt.code_count()).collect();
            let p = PositPlane::from_bits(fmt, &codes);
            for (i, &b) in codes.iter().enumerate() {
                assert_eq!(p.elems()[i], decode_one(fmt, b, 0), "({n},{es}) {b:#x}");
            }
            let mut packed = crate::storage::PackedBits::for_format(fmt, codes.len());
            for &b in &codes {
                packed.push(b);
            }
            for shift in [-5i32, 0, 7] {
                let ps = PositPlane::from_packed(fmt, &packed, shift);
                for (i, &b) in codes.iter().enumerate() {
                    assert_eq!(
                        ps.elems()[i],
                        decode_one(fmt, b, shift),
                        "({n},{es}) {b:#x} shift {shift}"
                    );
                }
            }
        }
    }

    #[test]
    fn plane_words_match_decode_for_every_code() {
        // Every code word of every word-eligible training format, NaR and
        // zero included, through the LUT (from_bits) and SWAR (from_packed,
        // scale-shifted) decodes: the kernels' one-shift conversion must
        // give the word `posit::lut::fixed_word` defines, and flag NaR.
        for (n, es) in [(8u32, 0u32), (8, 1), (8, 2), (16, 1)] {
            let fmt = PositFormat::of(n, es);
            let codes: Vec<u64> = (0..fmt.code_count()).collect();
            let mut packed = crate::storage::PackedBits::for_format(fmt, codes.len());
            for &b in &codes {
                packed.push(b);
            }
            for (plane, e) in [
                (PositPlane::from_bits(fmt, &codes), 0),
                (PositPlane::from_packed(fmt, &packed, -9), -9),
                (PositPlane::from_packed(fmt, &packed, 6), 6),
            ] {
                let len = codes.len();
                let panel = WordPanel::<i64>::build(side(&plane, len, false), 1);
                for (i, &b) in codes.iter().enumerate() {
                    let want = posit::lut::fixed_word(fmt, fmt.decode(b));
                    assert_eq!(panel.nar[i], want.is_none(), "({n},{es}) {b:#x} e={e}");
                    assert_eq!(panel.words[i], want.unwrap_or(0), "({n},{es}) {b:#x} e={e}");
                }
            }
        }
    }

    #[test]
    fn sig_words_split_every_code_exactly() {
        // Every code word of the 256-bit tier's formats, NaR and zero
        // included, through the LUT and scale-shifted packed decodes: the
        // split `m · 2^s` must be the word `value / 2^min_scale` (as an
        // i128: 2·max_scale ≤ 112 bits), with |m| < 2^sig_bits.
        for (n, es) in [(16u32, 2u32), (16, 1), (10, 2)] {
            let fmt = PositFormat::of(n, es);
            let codes: Vec<u64> = (0..fmt.code_count()).collect();
            let mut packed = crate::storage::PackedBits::for_format(fmt, codes.len());
            for &b in &codes {
                packed.push(b);
            }
            for (plane, e) in [
                (PositPlane::from_bits(fmt, &codes), 0),
                (PositPlane::from_packed(fmt, &packed, -8), -8),
                (PositPlane::from_packed(fmt, &packed, 5), 5),
            ] {
                let panel = WordPanel::<SigWord>::build(side(&plane, codes.len(), false), 1);
                for (i, &b) in codes.iter().enumerate() {
                    let w = panel.words[i];
                    let at = format!("({n},{es}) {b:#x} e={e}");
                    assert!(w.m.unsigned_abs() < 1 << sig_bits(fmt), "{at}");
                    let want = match fmt.decode(b) {
                        PositValue::Finite(d) => {
                            let t = d.scale - fmt.min_scale();
                            let mag = if t >= 63 {
                                (d.significand() as i128) << (t - 63)
                            } else {
                                assert!(d.significand().trailing_zeros() as i32 >= 63 - t, "{at}");
                                (d.significand() >> (63 - t)) as i128
                            };
                            if d.sign.is_negative() {
                                -mag
                            } else {
                                mag
                            }
                        }
                        _ => 0,
                    };
                    assert_eq!(panel.nar[i], b == fmt.nar_bits(), "{at}");
                    assert_eq!((w.m as i128) << w.s, want, "{at}");
                }
            }
        }
    }

    #[test]
    fn matches_fused_dot() {
        // The kernel's 1×1 output must equal posit::quire::fused_dot on the
        // same code words — same exact accumulation, same single rounding.
        let fmt = PositFormat::of(16, 1);
        let xs = [1.5f32, -2.25, 8.0, 0.03125, -0.5];
        let ys = [2.0f32, 4.0, -0.125, 32.0, 7.0];
        let xb: Vec<u64> = xs
            .iter()
            .map(|&v| fmt.from_f32(v, Rounding::NearestEven))
            .collect();
        let yb: Vec<u64> = ys
            .iter()
            .map(|&v| fmt.from_f32(v, Rounding::NearestEven))
            .collect();
        let want = fmt.to_f32(posit::quire::fused_dot(fmt, &xb, &yb));
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let mut c = [0.0f32];
        g.gemm(1, xs.len(), 1, &plane(fmt, &xs), &plane(fmt, &ys), &mut c);
        assert_eq!(c[0], want);
    }

    #[test]
    fn transposed_kernels_agree_with_plain() {
        let fmt = PositFormat::of(16, 1);
        let (m, k, n) = (4, 5, 3);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 - 9.0) * 0.375).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 - 7.0) * 0.25).collect();
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let mut want = vec![0.0f32; m * n];
        g.gemm(m, k, n, &plane(fmt, &a), &plane(fmt, &b), &mut want);

        let mut a_t = vec![0.0f32; k * m];
        for i in 0..m {
            for kk in 0..k {
                a_t[kk * m + i] = a[i * k + kk];
            }
        }
        let mut c = vec![0.0f32; m * n];
        g.gemm_at_b(m, k, n, &plane(fmt, &a_t), &plane(fmt, &b), &mut c);
        assert_eq!(c, want, "gemm_at_b");

        let mut b_t = vec![0.0f32; n * k];
        for kk in 0..k {
            for j in 0..n {
                b_t[j * k + kk] = b[kk * n + j];
            }
        }
        let mut c = vec![0.0f32; m * n];
        g.gemm_a_bt(m, k, n, &plane(fmt, &a), &plane(fmt, &b_t), &mut c);
        assert_eq!(c, want, "gemm_a_bt");
    }

    #[test]
    fn accumulates_into_c() {
        let fmt = PositFormat::of(16, 1);
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let a = plane(fmt, &[1.0, 0.0, 0.0, 1.0]);
        let b = plane(fmt, &[2.0, 0.0, 0.0, 2.0]);
        let mut c = vec![10.0f32; 4];
        g.gemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![12.0, 10.0, 10.0, 12.0]);
    }

    #[test]
    fn quire_beats_f32_accumulation_on_cancellation() {
        // Σ = big² − big² + small where f32 accumulation of posit products
        // keeps the small term but chained posit(8,1) adds would drop it; the
        // exact accumulator keeps it exactly. Checks the kernel really is
        // single-rounding.
        let fmt = PositFormat::of(8, 1);
        let big = 1024.0f32; // exactly representable in (8,1)
        let small = 0.0625f32;
        let a = [big, big, small];
        let b = [big, -big, 1.0];
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let mut c = [0.0f32];
        g.gemm(1, 3, 1, &plane(fmt, &a), &plane(fmt, &b), &mut c);
        assert_eq!(c[0], small);
    }

    #[test]
    fn nar_poisons_only_its_output_element() {
        let fmt = PositFormat::of(16, 1);
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let a = plane(fmt, &[f32::NAN, 1.0, 2.0, 3.0]); // [2, 2]
        let b = plane(fmt, &[1.0, 0.0, 0.0, 1.0]);
        let mut c = vec![0.0f32; 4];
        g.gemm(2, 2, 2, &a, &b, &mut c);
        assert!(c[0].is_nan() && c[1].is_nan(), "row with NaR");
        assert_eq!(&c[2..], &[2.0, 3.0], "clean row unaffected");
    }

    #[test]
    fn nar_poisons_inside_register_tiles() {
        // A shape wide enough to engage the MR×NR tile with a NaR landing
        // in the middle of a tile, a zero next to it, and clean columns
        // around: only the poisoned outputs may be NaN.
        let fmt = PositFormat::of(8, 1);
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let (m, k, n) = (4, 3, 9);
        let mut av = vec![0.5f32; m * k];
        av[k + 1] = f32::NAN; // row 1 poisoned
        av[2 * k] = 0.0;
        let bv = vec![0.25f32; k * n];
        let mut c = vec![0.0f32; m * n];
        g.gemm(m, k, n, &plane(fmt, &av), &plane(fmt, &bv), &mut c);
        for i in 0..m {
            for j in 0..n {
                let v = c[i * n + j];
                if i == 1 {
                    assert!(v.is_nan(), "({i},{j}) must be NaR-poisoned");
                } else {
                    assert!(!v.is_nan(), "({i},{j}) must stay clean");
                }
            }
        }
    }

    #[test]
    fn degenerate_shapes() {
        let fmt = PositFormat::of(8, 1);
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let empty = plane(fmt, &[]);
        let mut c: Vec<f32> = vec![];
        g.gemm(0, 3, 4, &empty, &plane(fmt, &[0.0; 12]), &mut c);
        g.gemm_at_b(0, 3, 4, &empty, &plane(fmt, &[0.0; 12]), &mut c);
        g.gemm_a_bt(0, 3, 4, &empty, &plane(fmt, &[0.0; 12]), &mut c);
        assert!(c.is_empty());

        // k = 0: empty dot rounds to posit zero; C keeps its base.
        let mut c = vec![5.0f32; 6];
        g.gemm(2, 0, 3, &empty, &empty, &mut c);
        g.gemm_at_b(2, 0, 3, &empty, &empty, &mut c);
        g.gemm_a_bt(2, 0, 3, &empty, &empty, &mut c);
        assert_eq!(c, vec![5.0; 6]);

        // n = 1 column output.
        let a = plane(fmt, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = plane(fmt, &[1.0, -1.0, 2.0]);
        let mut c = vec![0.0f32; 2];
        g.gemm(2, 3, 1, &a, &b, &mut c);
        assert_eq!(c, vec![5.0, 11.0]);
    }

    #[test]
    fn wide_and_narrow_paths_agree_at_every_tile_edge() {
        // Sweep shapes across the MR/NR remainder space so main tiles, row
        // tails and column tails all execute, on a format with a LUT (8,1)
        // and one without (16,1); the forced-wide kernel is the reference.
        for (fmt, scale) in [
            (PositFormat::of(8, 1), 0.25f32),
            (PositFormat::of(16, 1), 0.125f32),
        ] {
            let fast = PositGemm::new(fmt, Rounding::NearestEven);
            let wide = fast.wide_accumulator(true);
            for (m, k, n) in [
                (1, 1, 1),
                (2, 3, 4),
                (3, 5, 5),
                (5, 7, 9),
                (4, 2, 8),
                (7, 4, 11),
            ] {
                let av: Vec<f32> = (0..m * k)
                    .map(|i| ((i * 13 % 17) as f32 - 8.0) * scale)
                    .collect();
                let bv: Vec<f32> = (0..k * n)
                    .map(|i| ((i * 11 % 19) as f32 - 9.0) * scale)
                    .collect();
                let (pa, pb) = (plane(fmt, &av), plane(fmt, &bv));
                assert!(fast.dot_bits(k).is_some(), "{fmt} k={k}");
                assert_eq!(wide.dot_bits(k), None);
                let mut c_fast = vec![0.0f32; m * n];
                let mut c_wide = vec![0.0f32; m * n];
                fast.gemm(m, k, n, &pa, &pb, &mut c_fast);
                wide.gemm(m, k, n, &pa, &pb, &mut c_wide);
                assert_eq!(c_fast, c_wide, "{fmt} ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn deep_reductions_fall_back_to_the_wide_quire() {
        // Past its i128 budget (K = 8192) a (16,1) dot moves to the 256-bit
        // tier; a (32,1) dot's significand lanes hold K ≤ 64, and deeper
        // ones take the wide quire. Every path agrees with the forced-wide
        // kernel.
        for (fmt, edge, last, next) in [
            (PositFormat::of(16, 1), 8192, Some(128), Some(256)),
            (PositFormat::of(32, 1), 64, Some(256), None),
        ] {
            let g = PositGemm::new(fmt, Rounding::NearestEven);
            assert_eq!(g.dot_bits(edge), last, "{fmt} at the edge");
            assert_eq!(g.dot_bits(edge + 1), next, "{fmt} past the edge");
            let k = edge + 8;
            let av: Vec<f32> = (0..k)
                .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
                .collect();
            let bv: Vec<f32> = (0..k).map(|i| ((i % 5) as f32) * 0.25).collect();
            let mut c_auto = vec![0.0f32; 1];
            let mut c_wide = vec![0.0f32; 1];
            g.gemm(1, k, 1, &plane(fmt, &av), &plane(fmt, &bv), &mut c_auto);
            g.wide_accumulator(true)
                .gemm(1, k, 1, &plane(fmt, &av), &plane(fmt, &bv), &mut c_wide);
            assert_eq!(c_auto, c_wide, "{fmt}");
        }
    }

    #[test]
    fn parallel_split_is_deterministic() {
        let fmt = PositFormat::of(8, 1);
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let (m, k, n) = (64, 32, 16);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 7 % 23) as f32 - 11.0) * 0.125)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 5 % 19) as f32 - 9.0) * 0.25)
            .collect();
        let (pa, pb) = (plane(fmt, &a), plane(fmt, &b));
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        g.gemm(m, k, n, &pa, &pb, &mut c1);
        g.gemm(m, k, n, &pa, &pb, &mut c2);
        assert_eq!(c1, c2);
        // And the pooled split must equal a fully serial run.
        let mut c3 = vec![0.0f32; m * n];
        crate::workers::serial_scope(|| g.gemm(m, k, n, &pa, &pb, &mut c3));
        assert_eq!(c1, c3, "pool vs serial");
    }
}
