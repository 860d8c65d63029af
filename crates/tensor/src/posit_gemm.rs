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
//! Three compounding optimisations keep the per-MAC cost near the integer
//! multiply it fundamentally is:
//!
//! * **narrow accumulator** — for formats whose whole product range fits an
//!   `i128` (every format the paper trains with: posit(8,es), posit(16,1)),
//!   dot products accumulate in a register-resident [`posit::NarrowQuire`]
//!   instead of the heap-allocated limb array, with a once-per-call
//!   eligibility check (`4·max_scale + 2·margin + 2 + ⌈log2 K⌉ ≤ 127`)
//!   that falls back to the wide [`Quire`] otherwise — bit-identically;
//! * **decode LUTs** — ≤8-bit formats decode operand planes through a
//!   256-entry [`Unpacked`] table and round back to f32 on store through
//!   [`posit::lut::to_f32_lut`], replacing per-element bit-twiddling;
//! * **register-blocked tiles** — the kernels pack both operands into
//!   contiguous row-major panels (`A` rows, `B` columns) and run an
//!   `MR×NR` micro-kernel whose accumulators stay in registers across the
//!   whole `K` loop, so operand elements stream linearly and each loaded
//!   element feeds `MR` or `NR` multiplies.
//!
//! The kernel family mirrors the f32 entry points in [`crate::gemm`]
//! (`gemm`, `gemm_at_b`, `gemm_a_bt`) with identical shape conventions and
//! the same static row partitioner (now on the persistent worker pool), so
//! the `nn` layers can swap backends without reshaping anything. Exactness
//! makes all of this bit-transparent: narrow vs wide, tiled vs scalar and
//! serial vs pooled all compute the same exact sum and round it once, which
//! the exhaustive cross-checks in `tests/posit_gemm_exhaustive.rs` pin
//! against exact rational arithmetic.

use crate::gemm::par_rows;
use posit::{NarrowQuire, PositFormat, PositValue, Quire, Rounding};
use std::sync::OnceLock;

/// Cached handles for the kernel-path counters (`tensor.*` namespace in
/// the global [`posit_obs::Registry`]). Which fast path fired — narrow vs
/// wide accumulator, SWAR vs LUT vs bit-twiddle decode, K-strip batching —
/// is invisible in the results (all paths are bit-identical by
/// construction), so these counters are the only way to see what actually
/// ran. Recording is per *call* (or one aggregated add per row block),
/// never per MAC, and every site checks [`posit_obs::enabled`] first, so
/// the disabled cost on the hot path is a relaxed atomic load.
struct GemmObs {
    narrow_calls: posit_obs::Counter,
    wide_calls: posit_obs::Counter,
    kstrip_calls: posit_obs::Counter,
    decode_lut8: posit_obs::Counter,
    decode_lut2: posit_obs::Counter,
    decode_swar: posit_obs::Counter,
    decode_twiddle: posit_obs::Counter,
    kstrips_flushed: posit_obs::Counter,
    bucket_touches: posit_obs::Counter,
    quire_nar: posit_obs::Counter,
}

fn gemm_obs() -> &'static GemmObs {
    static OBS: OnceLock<GemmObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = posit_obs::Registry::global();
        GemmObs {
            narrow_calls: r.counter("tensor.gemm.narrow_calls"),
            wide_calls: r.counter("tensor.gemm.wide_calls"),
            kstrip_calls: r.counter("tensor.gemm.kstrip_calls"),
            decode_lut8: r.counter("tensor.plane.decode.lut8_elems"),
            decode_lut2: r.counter("tensor.plane.decode.lut2_elems"),
            decode_swar: r.counter("tensor.plane.decode.swar_elems"),
            decode_twiddle: r.counter("tensor.plane.decode.twiddle_elems"),
            kstrips_flushed: r.counter("tensor.gemm.kstrips_flushed"),
            bucket_touches: r.counter("tensor.gemm.bucket_touches"),
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
/// panel-packing step that turns every kernel's strided operand walk into
/// two contiguous streams.
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

/// Rows per register tile of the micro-kernel.
const MR: usize = 2;
/// Columns per register tile of the micro-kernel.
const NR: usize = 4;

/// One multiply-accumulate into a narrow accumulator, with the plane
/// conventions for zero (skip) and NaR (absorb).
#[inline(always)]
fn mac_narrow(q: &mut NarrowQuire, x: Unpacked, y: Unpacked) {
    if x.sig == 0 || y.sig == 0 {
        if x.scale == NAR_SCALE || y.scale == NAR_SCALE {
            q.set_nar();
        }
        return;
    }
    q.add_product_parts(
        x.neg != y.neg,
        x.scale + y.scale,
        (x.sig as u128) * (y.sig as u128),
    );
}

/// Exact dot product of two contiguous element runs in a narrow
/// accumulator (the tail path of the micro-kernel; same math, no tiling).
#[inline]
fn dot_narrow(proto: NarrowQuire, a: &[Unpacked], b: &[Unpacked]) -> NarrowQuire {
    let mut q = proto;
    for (&x, &y) in a.iter().zip(b) {
        mac_narrow(&mut q, x, y);
    }
    q
}

/// K-strip length of the batched micro-kernel: products are bucketed by
/// `scale_sum` for this many `k` steps, then flushed into the accumulators
/// with one `i128` shift-add per touched bucket
/// ([`NarrowQuire::add_group`]). The bucket sums stay exact for any strip
/// the narrow accumulator's own K budget admits (an `i64` bucket holds at
/// least `2^32` worst-case `i32` fraction products, far above every
/// eligible budget), so the strip is sized to amortize the flush scan to
/// noise — most kernel-sized reductions run as a single strip and flush
/// once per output.
const KSTRIP: usize = 8192;

/// An operand panel narrowed for the K-strip batched micro-kernel: the
/// bit-63-aligned significands drop their guaranteed-zero low bits into
/// signed `i32` fraction words, scales become bucket indices, and the NaR
/// sentinels lift out into per-row flags (NaR absorbs the whole reduction
/// regardless of its partner, so a flag per panel row replaces the per-MAC
/// check).
struct BatchPanel {
    /// Per element: the signed fraction word `±(sig >> (64-width))` (0 for
    /// zero and NaR elements). Kept separate from the scale byte so the
    /// micro-kernel's lane reads are plain sign-extending loads.
    sig: Vec<i32>,
    /// Per element: the bucket-ready scale byte. The A panel carries the
    /// `-emin` bias, so `a.sc ⊞ b.sc` (wrapping byte add) equals the
    /// bucket index for every finite pair — the index is provably in
    /// `[0, 126)`, so the mod-256 wrap of B's negative scales cancels
    /// exactly. Zero/NaR elements store an always-in-range dummy scale —
    /// their product is 0.
    sc: Vec<u8>,
    /// Per panel row: true iff any element is NaR.
    nar: Vec<bool>,
    /// Per row × strip: min stored scale over finite non-zero elements
    /// (`> smax` sentinel when the strip row is all zero/NaR) — bounds the
    /// flush scan to the buckets a strip actually touched.
    smin: Vec<i32>,
    /// Per row × strip: max stored scale over finite non-zero elements.
    smax: Vec<i32>,
    /// Strip count (`⌈k / KSTRIP⌉`).
    strips: usize,
}

const SMIN_EMPTY: i32 = i32::MAX / 2;
const SMAX_EMPTY: i32 = i32::MIN / 2;

/// Bucket-array slots per accumulator in the batched kernel. Narrow
/// eligibility bounds the bucket count by `4·max_scale + 2·margin + 1 ≤
/// 126`, so a power-of-two 128 always fits and lets the hot loop index
/// with a mask instead of a bounds check.
const BUCKET_SLOTS: usize = 128;

/// Rows per register tile of the *batched* micro-kernel (wider than the
/// scalar tile: its per-`k` state is a handful of `i32`s, not `i128`
/// accumulators, so more rows amortize the B-panel loads further).
const MRB: usize = 4;
/// Columns per register tile of the batched micro-kernel.
const NRB: usize = 4;

/// One batched MAC: multiply the fraction words, index the bucket by the
/// wrapping byte sum of the scale bytes. The mask is a proven no-op for
/// in-range panels (`idx < BUCKET_SLOTS`, asserted in debug builds at
/// flush time); it exists to eliminate the bounds check in the hot loop.
#[inline(always)]
fn batch_mac(bucket: &mut [i64; BUCKET_SLOTS], xs: i32, xe: u8, ys: i32, ye: u8) {
    let idx = xe.wrapping_add(ye) as usize & (BUCKET_SLOTS - 1);
    bucket[idx] += xs.wrapping_mul(ys) as i64;
}

impl BatchPanel {
    /// Narrow a `[rows, k]` element panel. `bias` is subtracted from every
    /// stored scale (`emin` for the A panel, 0 for B); `zero_scale` is the
    /// raw scale recorded for zero/NaR elements — any value a finite
    /// element could legally carry keeps their (zero) products in range.
    fn build(
        src: &[Unpacked],
        rows: usize,
        k: usize,
        width: u32,
        bias: i32,
        zero_scale: i32,
    ) -> BatchPanel {
        debug_assert_eq!(src.len(), rows * k);
        let strips = k.div_ceil(KSTRIP).max(1);
        let mut sig = Vec::with_capacity(rows * k);
        let mut sc = Vec::with_capacity(rows * k);
        let mut nar = vec![false; rows];
        let mut smin = vec![SMIN_EMPTY; rows * strips];
        let mut smax = vec![SMAX_EMPTY; rows * strips];
        for r in 0..rows {
            for (t, e) in src[r * k..(r + 1) * k].iter().enumerate() {
                if e.sig == 0 {
                    nar[r] |= e.scale == NAR_SCALE;
                    sig.push(0);
                    sc.push((zero_scale - bias) as u8);
                } else {
                    let s = (e.sig >> (64 - width)) as i32;
                    let b = e.scale - bias;
                    sig.push(if e.neg { -s } else { s });
                    sc.push(b as u8);
                    let slot = r * strips + t / KSTRIP;
                    smin[slot] = smin[slot].min(b);
                    smax[slot] = smax[slot].max(b);
                }
            }
        }
        BatchPanel {
            sig,
            sc,
            nar,
            smin,
            smax,
            strips,
        }
    }
}

/// Runtime selection of the K-strip batched micro-kernel (see
/// [`PositGemm::kstrip`]). Every mode computes bit-identical results — the
/// batched path groups *exact* integer terms, so only the order of the
/// exact sum changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KStripMode {
    /// Use the batched kernel whenever the narrow accumulator is active
    /// and the reduction is deep enough to amortize panel narrowing.
    #[default]
    Auto,
    /// Use the batched kernel whenever the narrow accumulator is active
    /// (tests and benches pinning the path, regardless of depth).
    Force,
    /// Never batch — the per-element scalar micro-kernel, kept as the
    /// bit-exact oracle.
    Off,
}

/// Minimum reduction depth at which [`KStripMode::Auto`] batches: shallow
/// reductions (small convolutions — `conv1` has `k = 25`) flush buckets so
/// often that the per-MAC savings drown in flush scans, and the scalar
/// tile wins. `conv2` (`k = 150`) already gains ~1.6× from batching.
const KSTRIP_AUTO_MIN_K: usize = 48;

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
    kstrip: KStripMode,
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
            kstrip: KStripMode::Auto,
        }
    }

    /// Force the heap-allocated wide [`Quire`] even when the format is
    /// narrow-eligible (builder style). Results are bit-identical either
    /// way; this exists so tests and benches can pin the fallback path.
    pub fn wide_accumulator(mut self, force_wide: bool) -> PositGemm {
        self.force_wide = force_wide;
        self
    }

    /// Select how the K-strip batched micro-kernel is chosen (builder
    /// style). Results are bit-identical in every mode.
    pub fn kstrip(mut self, mode: KStripMode) -> PositGemm {
        self.kstrip = mode;
        self
    }

    /// True iff a GEMM with reduction depth `k` over planes carrying
    /// `margin` total scale-shift bits would take the narrow-accumulator
    /// fast path (see [`posit::NarrowQuire::try_new`] for the accounting).
    pub fn uses_narrow_path(&self, margin: u32, k: usize) -> bool {
        !self.force_wide && NarrowQuire::try_new(self.fmt, margin, k).is_some()
    }

    /// True iff a GEMM with reduction depth `k` over planes carrying
    /// `margin` total scale-shift bits would run the K-strip batched
    /// micro-kernel (requires the narrow path; [`KStripMode`] then decides).
    pub fn uses_kstrip_path(&self, margin: u32, k: usize) -> bool {
        self.uses_narrow_path(margin, k)
            && match self.kstrip {
                KStripMode::Auto => k >= KSTRIP_AUTO_MIN_K,
                KStripMode::Force => true,
                KStripMode::Off => false,
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

    /// Round an accumulated narrow dot to f32, through the store LUT when
    /// the format has one.
    #[inline]
    fn store_narrow(&self, q: &NarrowQuire, lut: Option<&[f32]>) -> f32 {
        if posit_obs::enabled() && q.is_nar() {
            gemm_obs().quire_nar.incr();
        }
        let code = q.to_posit(self.rounding, 0);
        match lut {
            Some(l) => l[code as usize],
            None => self.fmt.to_f32(code),
        }
    }

    /// The shared panel kernel: `c[rows, n] += round(dot(a_rows, b_cols))`
    /// over row-major `A` rows (`[m, k]`, already offset to this block) and
    /// row-major `B` columns (`[n, k]`).
    #[allow(clippy::too_many_arguments)]
    fn gemm_panels(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a_rows: &[Unpacked],
        b_cols: &[Unpacked],
        margin: u32,
        c: &mut [f32],
    ) {
        let kernel = *self;
        let narrow = if self.force_wide {
            None
        } else {
            NarrowQuire::try_new(self.fmt, margin, k)
        };
        let f32_lut = posit::lut::to_f32_lut(self.fmt);
        // Narrow both panels once per call when the K-strip batched kernel
        // is selected (the panels are shared read-only across row blocks).
        let batch = if narrow.is_some() && self.uses_kstrip_path(margin, k) {
            self.fmt
                .n()
                .checked_sub(2 + self.fmt.es())
                // The fraction words must multiply inside an i32 (2·width
                // ≤ 30); every format the paper trains with passes.
                .filter(|&w| (1..=15).contains(&w))
                .and_then(|width| {
                    let emin = 2 * self.fmt.min_scale() - margin as i32;
                    let buckets = (4 * self.fmt.max_scale() + 2 * margin as i32 + 1) as usize;
                    if buckets > BUCKET_SLOTS {
                        return None; // unreachable under narrow eligibility
                    }
                    let ap = BatchPanel::build(a_rows, m, k, width, emin, self.fmt.min_scale());
                    let bp = BatchPanel::build(b_cols, n, k, width, 0, 0);
                    Some((ap, bp, width, emin, buckets))
                })
        } else {
            None
        };
        if posit_obs::enabled() {
            let o = gemm_obs();
            if narrow.is_some() {
                o.narrow_calls.incr();
            } else {
                o.wide_calls.incr();
            }
            if batch.is_some() {
                o.kstrip_calls.incr();
            }
        }
        par_rows(m, n, m * k * n, c, |row0, c_chunk| {
            let rows = c_chunk.len().checked_div(n).unwrap_or(0);
            let a_block = &a_rows[row0 * k..(row0 + rows) * k];
            match (narrow, &batch) {
                (Some(proto), Some((ap, bp, width, emin, bc))) => kernel.block_batched(
                    proto, f32_lut, row0, rows, k, n, a_block, b_cols, ap, bp, *width, *emin, *bc,
                    c_chunk,
                ),
                (Some(proto), None) => {
                    kernel.block_narrow(proto, f32_lut, rows, k, n, a_block, b_cols, c_chunk)
                }
                (None, _) => {
                    kernel.block_wide(f32_lut, margin, rows, k, n, a_block, b_cols, c_chunk)
                }
            }
        });
    }

    /// K-strip batched fast path over one row block: the MR×NR register
    /// tile keeps `i64` *bucket* sums per `scale_sum` instead of an `i128`
    /// accumulator per MAC. Within a strip every product is a narrow `i32`
    /// multiply plus an indexed add; at the strip boundary each touched
    /// bucket flushes with **one** `i128` shift-add
    /// ([`NarrowQuire::add_group`]). Grouping exact integer terms never
    /// changes the sum, so the result is bit-identical to the scalar
    /// kernels; zero elements carry a zero fraction word (their adds are
    /// no-ops) and NaR lifts out into panel-row flags applied on store.
    #[allow(clippy::too_many_arguments)]
    fn block_batched(
        &self,
        proto: NarrowQuire,
        f32_lut: Option<&[f32]>,
        row0: usize,
        rows: usize,
        k: usize,
        n: usize,
        a: &[Unpacked],
        b_cols: &[Unpacked],
        ap: &BatchPanel,
        bp: &BatchPanel,
        width: u32,
        emin: i32,
        bc: usize,
        c: &mut [f32],
    ) {
        let strips = ap.strips;
        debug_assert_eq!(strips, bp.strips);
        debug_assert!(bc <= BUCKET_SLOTS);
        // Flush accounting stays in locals and posts one counter add per
        // row block; the `obs_on` tests sit in the flush scan, never in
        // the per-MAC strip loop.
        let obs_on = posit_obs::enabled();
        let mut strips_flushed = 0u64;
        let mut bucket_touches = 0u64;
        let mut buckets = [[0i64; BUCKET_SLOTS]; MRB * NRB];
        let mut i = 0;
        while i + MRB <= rows {
            let r0 = row0 + i;
            let a0s = &ap.sig[r0 * k..(r0 + 1) * k];
            let a1s = &ap.sig[(r0 + 1) * k..(r0 + 2) * k];
            let a2s = &ap.sig[(r0 + 2) * k..(r0 + 3) * k];
            let a3s = &ap.sig[(r0 + 3) * k..(r0 + 4) * k];
            let a0e = &ap.sc[r0 * k..(r0 + 1) * k];
            let a1e = &ap.sc[(r0 + 1) * k..(r0 + 2) * k];
            let a2e = &ap.sc[(r0 + 2) * k..(r0 + 3) * k];
            let a3e = &ap.sc[(r0 + 3) * k..(r0 + 4) * k];
            let a_nar = [ap.nar[r0], ap.nar[r0 + 1], ap.nar[r0 + 2], ap.nar[r0 + 3]];
            let mut j = 0;
            while j + NRB <= n {
                let b0s = &bp.sig[j * k..(j + 1) * k];
                let b1s = &bp.sig[(j + 1) * k..(j + 2) * k];
                let b2s = &bp.sig[(j + 2) * k..(j + 3) * k];
                let b3s = &bp.sig[(j + 3) * k..(j + 4) * k];
                let b0e = &bp.sc[j * k..(j + 1) * k];
                let b1e = &bp.sc[(j + 1) * k..(j + 2) * k];
                let b2e = &bp.sc[(j + 2) * k..(j + 3) * k];
                let b3e = &bp.sc[(j + 3) * k..(j + 4) * k];
                let mut acc = [[proto; NRB]; MRB];
                let mut t0 = 0;
                let mut strip = 0;
                while t0 < k {
                    let t1 = (t0 + KSTRIP).min(k);
                    let [bk00, bk01, bk02, bk03, bk10, bk11, bk12, bk13, bk20, bk21, bk22, bk23, bk30, bk31, bk32, bk33] =
                        &mut buckets;
                    for t in t0..t1 {
                        // Each lane read is one sign-extending (fraction)
                        // or zero-extending (scale byte) load; every lane
                        // then feeds NRB (or MRB) MACs.
                        let (x0s, x0e) = (a0s[t], a0e[t]);
                        let (x1s, x1e) = (a1s[t], a1e[t]);
                        let (x2s, x2e) = (a2s[t], a2e[t]);
                        let (x3s, x3e) = (a3s[t], a3e[t]);
                        let (y0s, y0e) = (b0s[t], b0e[t]);
                        let (y1s, y1e) = (b1s[t], b1e[t]);
                        let (y2s, y2e) = (b2s[t], b2e[t]);
                        let (y3s, y3e) = (b3s[t], b3e[t]);
                        batch_mac(bk00, x0s, x0e, y0s, y0e);
                        batch_mac(bk01, x0s, x0e, y1s, y1e);
                        batch_mac(bk02, x0s, x0e, y2s, y2e);
                        batch_mac(bk03, x0s, x0e, y3s, y3e);
                        batch_mac(bk10, x1s, x1e, y0s, y0e);
                        batch_mac(bk11, x1s, x1e, y1s, y1e);
                        batch_mac(bk12, x1s, x1e, y2s, y2e);
                        batch_mac(bk13, x1s, x1e, y3s, y3e);
                        batch_mac(bk20, x2s, x2e, y0s, y0e);
                        batch_mac(bk21, x2s, x2e, y1s, y1e);
                        batch_mac(bk22, x2s, x2e, y2s, y2e);
                        batch_mac(bk23, x2s, x2e, y3s, y3e);
                        batch_mac(bk30, x3s, x3e, y0s, y0e);
                        batch_mac(bk31, x3s, x3e, y1s, y1e);
                        batch_mac(bk32, x3s, x3e, y2s, y2e);
                        batch_mac(bk33, x3s, x3e, y3s, y3e);
                    }
                    for (r, acc_row) in acc.iter_mut().enumerate() {
                        let alo = ap.smin[(row0 + i + r) * strips + strip];
                        let ahi = ap.smax[(row0 + i + r) * strips + strip];
                        for (s, q) in acc_row.iter_mut().enumerate() {
                            let lo = alo + bp.smin[(j + s) * strips + strip];
                            let hi = ahi + bp.smax[(j + s) * strips + strip];
                            if lo > hi {
                                continue; // strip touched no bucket for this output
                            }
                            debug_assert!(lo >= 0 && (hi as usize) < bc);
                            if obs_on {
                                strips_flushed += 1;
                            }
                            let bk = &mut buckets[r * NRB + s];
                            for idx in lo as usize..=hi as usize {
                                let v = bk[idx & (BUCKET_SLOTS - 1)];
                                if v != 0 {
                                    if obs_on {
                                        bucket_touches += 1;
                                    }
                                    q.add_group(idx as i32 + emin, width, v);
                                    bk[idx & (BUCKET_SLOTS - 1)] = 0;
                                }
                            }
                        }
                    }
                    t0 = t1;
                    strip += 1;
                }
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    for (s, q) in acc_row.iter_mut().enumerate() {
                        if a_nar[r] || bp.nar[j + s] {
                            q.set_nar();
                        }
                        c[(i + r) * n + j + s] += self.store_narrow(q, f32_lut);
                    }
                }
                j += NRB;
            }
            while j < n {
                let b_run = &b_cols[j * k..(j + 1) * k];
                for r in 0..MRB {
                    let a_run = &a[(i + r) * k..(i + r + 1) * k];
                    c[(i + r) * n + j] +=
                        self.store_narrow(&dot_narrow(proto, a_run, b_run), f32_lut);
                }
                j += 1;
            }
            i += MRB;
        }
        while i < rows {
            let a_run = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_run = &b_cols[j * k..(j + 1) * k];
                c[i * n + j] += self.store_narrow(&dot_narrow(proto, a_run, b_run), f32_lut);
            }
            i += 1;
        }
        if obs_on {
            let o = gemm_obs();
            o.kstrips_flushed.add(strips_flushed);
            o.bucket_touches.add(bucket_touches);
        }
    }

    /// Narrow fast path over one row block: MR×NR register tiles with
    /// scalar edge loops. Every output element still accumulates its own
    /// exact sum in ascending-`k` order, so tiling is bit-transparent.
    #[allow(clippy::too_many_arguments)]
    fn block_narrow(
        &self,
        proto: NarrowQuire,
        f32_lut: Option<&[f32]>,
        rows: usize,
        k: usize,
        n: usize,
        a: &[Unpacked],
        b_cols: &[Unpacked],
        c: &mut [f32],
    ) {
        let mut i = 0;
        while i + MR <= rows {
            let a0 = &a[i * k..(i + 1) * k];
            let a1 = &a[(i + 1) * k..(i + 2) * k];
            let mut j = 0;
            while j + NR <= n {
                let b0 = &b_cols[j * k..(j + 1) * k];
                let b1 = &b_cols[(j + 1) * k..(j + 2) * k];
                let b2 = &b_cols[(j + 2) * k..(j + 3) * k];
                let b3 = &b_cols[(j + 3) * k..(j + 4) * k];
                let mut acc = [[proto; NR]; MR];
                for t in 0..k {
                    let av = [a0[t], a1[t]];
                    let bv = [b0[t], b1[t], b2[t], b3[t]];
                    for (r, &x) in av.iter().enumerate() {
                        for (s, &y) in bv.iter().enumerate() {
                            mac_narrow(&mut acc[r][s], x, y);
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    for (s, q) in acc_row.iter().enumerate() {
                        c[(i + r) * n + j + s] += self.store_narrow(q, f32_lut);
                    }
                }
                j += NR;
            }
            while j < n {
                let b_run = &b_cols[j * k..(j + 1) * k];
                c[i * n + j] += self.store_narrow(&dot_narrow(proto, a0, b_run), f32_lut);
                c[(i + 1) * n + j] += self.store_narrow(&dot_narrow(proto, a1, b_run), f32_lut);
                j += 1;
            }
            i += MR;
        }
        while i < rows {
            let a_run = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_run = &b_cols[j * k..(j + 1) * k];
                c[i * n + j] += self.store_narrow(&dot_narrow(proto, a_run, b_run), f32_lut);
            }
            i += 1;
        }
    }

    /// Wide fallback over one row block: per-output dots into the
    /// limb-array [`Quire`] (formats or reduction depths the narrow
    /// accumulator refuses). Operands still stream contiguously.
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
                let code = q.to_posit(self.rounding, 0);
                c[i * n + j] += match f32_lut {
                    Some(l) => l[code as usize],
                    None => self.fmt.to_f32(code),
                };
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
        let margin = a.quire_margin() + b.quire_margin();
        let b_cols = transpose_elems(b.elems(), k, n);
        self.gemm_panels(m, k, n, a.elems(), &b_cols, margin, c);
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
        let margin = a_t.quire_margin() + b.quire_margin();
        let a_rows = transpose_elems(a_t.elems(), k, m);
        let b_cols = transpose_elems(b.elems(), k, n);
        self.gemm_panels(m, k, n, &a_rows, &b_cols, margin, c);
    }

    /// `c += round(a[m,k] * b^T[k,n])` with `b` stored `[n, k]` — the posit
    /// twin of [`crate::gemm::gemm_a_bt`]. Both operands already sit in
    /// panel layout, so this entry point packs nothing.
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
        let margin = a.quire_margin() + b_t.quire_margin();
        self.gemm_panels(m, k, n, a.elems(), b_t.elems(), margin, c);
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
                assert!(fast.uses_narrow_path(0, k), "{fmt} k={k}");
                assert!(!wide.uses_narrow_path(0, k));
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
        // (16,1) has 13 guard bits: K beyond 8192 must refuse the narrow
        // path automatically and still agree with the forced-wide kernel.
        let fmt = PositFormat::of(16, 1);
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let k = 8200;
        assert!(!g.uses_narrow_path(0, k), "K guard must refuse");
        assert!(g.uses_narrow_path(0, 8192), "K at the guard limit is fine");
        let av: Vec<f32> = (0..k)
            .map(|i| if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let bv: Vec<f32> = (0..k).map(|i| ((i % 5) as f32) * 0.25).collect();
        let mut c_auto = vec![0.0f32; 1];
        let mut c_wide = vec![0.0f32; 1];
        g.gemm(1, k, 1, &plane(fmt, &av), &plane(fmt, &bv), &mut c_auto);
        g.wide_accumulator(true)
            .gemm(1, k, 1, &plane(fmt, &av), &plane(fmt, &bv), &mut c_wide);
        assert_eq!(c_auto, c_wide);
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
