//! Exhaustive posit(8,·) cross-backend agreement: the `posit-quire` GEMM —
//! fixed-point integer loops, decode LUTs, register-blocked tiles and
//! all — must be bit-identical to a double-rounding-free reference built
//! from exact rational arithmetic (`posit::exact`), for every code-word
//! pair of every 8-bit training format and for full-code-space dot
//! products, plus a sampled posit(16,1) sweep and forced-fallback checks
//! that pin the wide-quire path against the fast path on identical inputs.

use posit::exact::{decode_ref, Rational, RefRounder};
use posit::{PositFormat, Rounding};
use posit_tensor::{GradQuireBuf, PackedBits, PositGemm, PositPlane};

/// The 8-bit formats the paper trains with (es 0..=2).
const NARROW_FMTS: [PositFormat; 3] = [
    PositFormat::of(8, 0),
    PositFormat::of(8, 1),
    PositFormat::of(8, 2),
];

/// Every finite code word of a format (zero included, NaR excluded).
fn finite_codes(fmt: PositFormat) -> Vec<u64> {
    (0..fmt.code_count())
        .filter(|&c| c != fmt.nar_bits())
        .collect()
}

fn exact(fmt: PositFormat, code: u64) -> Rational {
    decode_ref(&fmt, code).expect("finite code")
}

/// Reference: round an exact rational once, per the kernel's rounding mode.
fn round_ref(r: &RefRounder, x: &Rational, rounding: Rounding) -> u64 {
    match rounding {
        Rounding::NearestEven => r.nearest(x),
        Rounding::ToZero => r.toward_zero(x),
        Rounding::Stochastic => unreachable!("kernel never runs stochastic"),
    }
}

/// All pairwise products in one GEMM: `C[254,254] = A[254,1] · B[1,254]`.
/// Each output element is a single-product dot, so the kernel result must
/// equal the exactly-computed product rounded once — for every 8-bit
/// training format, through the LUT decode and the narrow accumulator.
#[test]
fn exhaustive_pairwise_products_match_exact_rationals() {
    for fmt in NARROW_FMTS {
        let codes = finite_codes(fmt);
        let m = codes.len();
        let a = PositPlane::from_bits(fmt, &codes); // [m, 1]
        let b = PositPlane::from_bits(fmt, &codes); // [1, m]
        let rounder = RefRounder::new(fmt);
        for rounding in [Rounding::NearestEven, Rounding::ToZero] {
            let kernel = PositGemm::new(fmt, rounding);
            assert!(kernel.dot_bits(1).is_some(), "{fmt} must run narrow");
            let mut c = vec![0.0f32; m * m];
            kernel.gemm(m, 1, m, &a, &b, &mut c);
            for (i, &ca) in codes.iter().enumerate() {
                for (j, &cb) in codes.iter().enumerate() {
                    let prod = exact(fmt, ca).mul(&exact(fmt, cb));
                    let want = fmt.to_f32(round_ref(&rounder, &prod, rounding));
                    assert_eq!(
                        c[i * m + j],
                        want,
                        "{fmt} {rounding:?}: {ca:#04x} * {cb:#04x}"
                    );
                }
            }
        }
    }
}

/// The forced-wide kernel must agree with the fast path on the same
/// exhaustive pairwise sweep: narrow accumulator, LUT store and tiling are
/// bit-transparent by construction, and this pins it on every code pair.
#[test]
fn exhaustive_pairwise_products_forced_wide_agrees() {
    for fmt in NARROW_FMTS {
        let codes = finite_codes(fmt);
        let m = codes.len();
        let a = PositPlane::from_bits(fmt, &codes);
        let b = PositPlane::from_bits(fmt, &codes);
        for rounding in [Rounding::NearestEven, Rounding::ToZero] {
            let fast = PositGemm::new(fmt, rounding);
            let wide = fast.wide_accumulator(true);
            assert_eq!(wide.dot_bits(1), None);
            let mut c_fast = vec![0.0f32; m * m];
            let mut c_wide = vec![0.0f32; m * m];
            fast.gemm(m, 1, m, &a, &b, &mut c_fast);
            wide.gemm(m, 1, m, &a, &b, &mut c_wide);
            // Bitwise: NaN-free data, so f32 equality is bit equality.
            assert_eq!(c_fast, c_wide, "{fmt} {rounding:?}");
        }
    }
}

/// Full-code-space dot products: pair the exhaustive code list against
/// rotated copies of itself so every code meets many partners inside one
/// accumulation, and compare against exact rational summation rounded once
/// (the double-rounding-free reference) — per 8-bit format.
#[test]
fn exhaustive_dot_products_match_exact_accumulation() {
    for fmt in NARROW_FMTS {
        // The i128 rational reference cannot hold an (8,2) sum that mixes
        // maxpos² (2^48) with minpos² (2^-96) — numerator × denominator
        // overflows — so for es=2 the dot sweep windows the codes to
        // |scale| ≤ 12. The kernel itself is pinned on the *full* (8,2)
        // code space by the pairwise-product sweep above.
        let codes: Vec<u64> = if fmt.es() >= 2 {
            finite_codes(fmt)
                .into_iter()
                .filter(|&c| {
                    let v = fmt.to_f64(c).abs();
                    v == 0.0 || (2f64.powi(-12)..=2f64.powi(12)).contains(&v)
                })
                .collect()
        } else {
            finite_codes(fmt)
        };
        let k = codes.len();
        let rounder = RefRounder::new(fmt);
        for rotation in [1usize, 37, 101, 200] {
            let rotated: Vec<u64> = (0..k).map(|i| codes[(i + rotation) % k]).collect();
            let a = PositPlane::from_bits(fmt, &codes); // [1, k]
            let b = PositPlane::from_bits(fmt, &rotated); // [k, 1]
            let mut sum = Rational::ZERO;
            for (&ca, &cb) in codes.iter().zip(&rotated) {
                sum = sum.add(&exact(fmt, ca).mul(&exact(fmt, cb)));
            }
            for rounding in [Rounding::NearestEven, Rounding::ToZero] {
                let kernel = PositGemm::new(fmt, rounding);
                let mut c = vec![0.0f32; 1];
                kernel.gemm(1, k, 1, &a, &b, &mut c);
                let want = fmt.to_f32(round_ref(&rounder, &sum, rounding));
                assert_eq!(c[0], want, "{fmt} rotation {rotation}, {rounding:?}");
            }
        }
    }
}

/// Sampled posit(16,1) sweep against the exact rational reference: random
/// code-word dots at several reduction depths, checking the narrow
/// accumulator's 16-bit regime (no LUT, 13 guard bits) and the wide
/// fallback on the same data.
#[test]
fn sampled_p16_dots_match_exact_rationals() {
    let fmt = PositFormat::of(16, 1);
    let rounder = RefRounder::new(fmt);
    let mut state = 0xD1CE_5EED_0BAD_F00Du64;
    let mut rand_code = |exclude_nar: bool| loop {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let c = (state >> 24) & fmt.mask();
        if !(exclude_nar && c == fmt.nar_bits()) {
            return c;
        }
    };
    for (trial, &k) in [1usize, 2, 7, 64, 333].iter().enumerate().cycle().take(60) {
        let xs: Vec<u64> = (0..k).map(|_| rand_code(true)).collect();
        let ys: Vec<u64> = (0..k).map(|_| rand_code(true)).collect();
        let a = PositPlane::from_bits(fmt, &xs);
        let b = PositPlane::from_bits(fmt, &ys);
        let mut sum = Rational::ZERO;
        for (&ca, &cb) in xs.iter().zip(&ys) {
            sum = sum.add(&exact(fmt, ca).mul(&exact(fmt, cb)));
        }
        for rounding in [Rounding::NearestEven, Rounding::ToZero] {
            let fast = PositGemm::new(fmt, rounding);
            assert!(fast.dot_bits(k).is_some());
            let want = fmt.to_f32(round_ref(&rounder, &sum, rounding));
            let mut c = vec![0.0f32; 1];
            fast.gemm(1, k, 1, &a, &b, &mut c);
            assert_eq!(c[0], want, "narrow trial {trial} k={k} {rounding:?}");
            let mut c = vec![0.0f32; 1];
            fast.wide_accumulator(true).gemm(1, k, 1, &a, &b, &mut c);
            assert_eq!(c[0], want, "wide trial {trial} k={k} {rounding:?}");
        }
    }
}

/// Forced-fallback agreement at GEMM scale: a (16,1) shape big enough to
/// engage register tiles, edge loops and the parallel row split, with NaR
/// and zero elements mixed in, must produce identical outputs through the
/// narrow fast path and the forced wide quire.
#[test]
fn forced_fallback_agrees_on_gemm_scale_inputs() {
    let fmt = PositFormat::of(16, 1);
    let (m, k, n) = (37, 19, 23);
    let mut state = 0xABCD_EF01_2345_6789u64;
    let mut codes = |len: usize| -> Vec<u64> {
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if i % 11 == 0 {
                    0 // zeros exercise the skip branch
                } else {
                    (state >> 13) & fmt.mask()
                }
            })
            .collect()
    };
    let mut a_codes = codes(m * k);
    let mut b_codes = codes(k * n);
    // One NaR in each operand: poisons a single output row/column, leaving
    // plenty of finite outputs to compare.
    a_codes[3 * k + 1] = fmt.nar_bits();
    b_codes[2 * n + 5] = fmt.nar_bits();
    let a = PositPlane::from_bits(fmt, &a_codes);
    let b = PositPlane::from_bits(fmt, &b_codes);
    let fast = PositGemm::new(fmt, Rounding::NearestEven);
    let wide = fast.wide_accumulator(true);
    let mut c_fast = vec![0.0f32; m * n];
    let mut c_wide = vec![0.0f32; m * n];
    fast.gemm(m, k, n, &a, &b, &mut c_fast);
    wide.gemm(m, k, n, &a, &b, &mut c_wide);
    for (i, (x, y)) in c_fast.iter().zip(&c_wide).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "element {i}: {x} vs {y}"
        );
    }
    assert!(
        c_fast.iter().any(|v| v.is_nan()),
        "the sweep should exercise NaR outputs"
    );
    assert!(
        c_fast.iter().any(|v| *v != 0.0 && !v.is_nan()),
        "the sweep should exercise finite outputs"
    );
}

/// The transposed kernel entry points must agree with the plain one on the
/// same exhaustive data (shape conventions only differ in storage order),
/// for every 8-bit training format.
#[test]
fn transposed_kernels_bitwise_agree_on_exhaustive_data() {
    for fmt in NARROW_FMTS {
        let codes = finite_codes(fmt);
        // Arrange the 254 codes as a 127×2 times 2×127 product.
        let (m, k, n) = (127usize, 2usize, 127usize);
        let a_codes = &codes[..m * k];
        let b_codes = &codes[..k * n];
        let kernel = PositGemm::new(fmt, Rounding::NearestEven);
        let a = PositPlane::from_bits(fmt, a_codes);
        let b = PositPlane::from_bits(fmt, b_codes);
        let mut want = vec![0.0f32; m * n];
        kernel.gemm(m, k, n, &a, &b, &mut want);

        let mut at_codes = vec![0u64; k * m];
        for i in 0..m {
            for kk in 0..k {
                at_codes[kk * m + i] = a_codes[i * k + kk];
            }
        }
        let a_t = PositPlane::from_bits(fmt, &at_codes);
        let mut c = vec![0.0f32; m * n];
        kernel.gemm_at_b(m, k, n, &a_t, &b, &mut c);
        assert_eq!(c, want, "{fmt} gemm_at_b");

        let mut bt_codes = vec![0u64; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt_codes[j * k + kk] = b_codes[kk * n + j];
            }
        }
        let b_t = PositPlane::from_bits(fmt, &bt_codes);
        let mut c = vec![0.0f32; m * n];
        kernel.gemm_a_bt(m, k, n, &a, &b_t, &mut c);
        assert_eq!(c, want, "{fmt} gemm_a_bt");
    }
}

/// A deterministic 64-bit LCG stream for the sweeps below.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// The SWAR lane-group decode (`n ≤ 8`) and the two-level-LUT decode
/// (`8 < n ≤ 16`) must match the bit-twiddled scalar oracle element for
/// element: every code word of every 8-bit training format (with
/// out-of-range high bits mixed in to pin the masking alias), the full
/// posit(16,1) code space, and a sampled wide-format fallback.
#[test]
fn plane_decode_paths_match_scalar_oracle() {
    // n ≤ 8: full code space + garbage high bits + a non-multiple-of-8
    // length so the lane-group remainder loop runs.
    for fmt in NARROW_FMTS {
        let mut bits: Vec<u64> = (0..fmt.code_count()).collect();
        bits.extend((0..fmt.code_count()).map(|c| c | 0xABCD_EF00));
        bits.extend([0, 1, fmt.nar_bits()]); // remainder lanes
        let fast = PositPlane::from_bits(fmt, &bits);
        let oracle = PositPlane::from_bits_scalar(fmt, &bits);
        assert_eq!(fast.elems(), oracle.elems(), "{fmt} from_bits");
    }
    // 8 < n ≤ 16: the two-level LUT route over the full (16,1) space.
    let fmt = PositFormat::of(16, 1);
    let bits: Vec<u64> = (0..fmt.code_count()).collect();
    let fast = PositPlane::from_bits(fmt, &bits);
    let oracle = PositPlane::from_bits_scalar(fmt, &bits);
    assert_eq!(fast.elems(), oracle.elems(), "{fmt} from_bits");
    // n > 16: the direct decode route, sampled.
    let fmt = PositFormat::of(32, 3);
    let mut state = 0x5EED_CAFE_F00D_BEEFu64;
    let bits: Vec<u64> = (0..4096).map(|_| lcg(&mut state) & fmt.mask()).collect();
    let fast = PositPlane::from_bits(fmt, &bits);
    let oracle = PositPlane::from_bits_scalar(fmt, &bits);
    assert_eq!(fast.elems(), oracle.elems(), "{fmt} from_bits");
}

/// The packed-plane decode (u64 lane groups over byte storage, two-level
/// LUT over u16 storage, direct decode otherwise) must match its scalar
/// oracle for every storage width, with nonzero Eq. 2 scale shifts and
/// zero/NaR elements in the stream.
#[test]
fn packed_plane_decode_matches_scalar_oracle() {
    let mut state = 0x0123_4567_89AB_CDEFu64;
    for (n, es, len) in [
        (8u32, 1u32, 1003usize), // byte storage, lane-group remainder of 3
        (8, 2, 64),              // byte storage, exact lane groups
        (16, 1, 517),            // u16 storage, two-level LUT route
        (32, 3, 129),            // u32 storage, direct decode route
    ] {
        let fmt = PositFormat::of(n, es);
        let mut packed = PackedBits::for_format(fmt, len);
        for i in 0..len {
            let code = match i % 13 {
                0 => 0,              // zeros keep their canonical element
                7 => fmt.nar_bits(), // NaR keeps its sentinel under shifts
                _ => lcg(&mut state) & fmt.mask(),
            };
            packed.push(code);
        }
        for scale_exp in [-9i32, 0, 6] {
            let fast = PositPlane::from_packed(fmt, &packed, scale_exp);
            let oracle = PositPlane::from_packed_scalar(fmt, &packed, scale_exp);
            assert_eq!(fast.scale_exp(), oracle.scale_exp());
            assert_eq!(
                fast.elems(),
                oracle.elems(),
                "{fmt} from_packed scale_exp={scale_exp}"
            );
        }
    }
}

/// Every pairwise product of every 8-bit training format (k = 1) through
/// the integer kernel — `i32` words for es ≤ 1, `i64` words for es = 2 —
/// must match the forced-wide quire bit for bit.
#[test]
fn integer_pairwise_products_bitwise_agree() {
    for fmt in NARROW_FMTS {
        let codes = finite_codes(fmt);
        let m = codes.len();
        let a = PositPlane::from_bits(fmt, &codes);
        let b = PositPlane::from_bits(fmt, &codes);
        for rounding in [Rounding::NearestEven, Rounding::ToZero] {
            let fast = PositGemm::new(fmt, rounding);
            let wide = fast.wide_accumulator(true);
            let bits = if fmt.es() <= 1 { 64 } else { 128 };
            assert_eq!(fast.dot_bits(1), Some(bits), "{fmt}");
            assert_eq!(wide.dot_bits(1), None);
            let mut c_fast = vec![0.0f32; m * m];
            let mut c_wide = vec![0.0f32; m * m];
            fast.gemm(m, 1, m, &a, &b, &mut c_fast);
            wide.gemm(m, 1, m, &a, &b, &mut c_wide);
            assert_eq!(c_fast, c_wide, "{fmt} {rounding:?}");
        }
    }
}

/// Sampled posit(16,1) agreement at GEMM scale between the `i64`-word
/// kernel and the forced-wide quire: register-tile interiors, row/column
/// tails, zero and NaR lanes, and depths up to the `i128` budget edge
/// (8192 = 2^13: `4·28 + 2 + 13 = 127`).
#[test]
fn sampled_p16e1_i64_sweeps_agree() {
    let fmt = PositFormat::of(16, 1);
    let mut state = 0xFACE_0FF5_1234_5678u64;
    for (m, k, n) in [
        (5usize, 1usize, 6usize),
        (6, 2, 7),
        (4, 47, 4),
        (5, 48, 9),
        (7, 49, 3),
        (9, 333, 5),
        (3, 8191, 5),
        (2, 8192, 6),
    ] {
        let mut gen_codes = |len: usize, poison: bool| -> Vec<u64> {
            (0..len)
                .map(|i| {
                    if i % 11 == 0 {
                        0
                    } else if poison && i % 97 == 3 {
                        fmt.nar_bits()
                    } else {
                        (lcg(&mut state) >> 17) & fmt.mask()
                    }
                })
                .collect()
        };
        let a = PositPlane::from_bits(fmt, &gen_codes(m * k, true));
        let b = PositPlane::from_bits(fmt, &gen_codes(k * n, true));
        let fast = PositGemm::new(fmt, Rounding::NearestEven);
        let wide = fast.wide_accumulator(true);
        assert_eq!(fast.dot_bits(k), Some(128), "k={k} runs i64 words");
        let mut c_fast = vec![0.0f32; m * n];
        let mut c_wide = vec![0.0f32; m * n];
        fast.gemm(m, k, n, &a, &b, &mut c_fast);
        wide.gemm(m, k, n, &a, &b, &mut c_wide);
        for (i, (x, y)) in c_fast.iter().zip(&c_wide).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{m}x{k}x{n} element {i}: {x} vs {y}"
            );
        }
    }
}

/// Deep posit(8,1) reductions past the `i64`-sum budget (k > 8192) run
/// `i64` words with `i128` sums and must match the forced-wide quire bit
/// for bit.
#[test]
fn deep_p8e1_i128_sweeps_agree() {
    let fmt = PositFormat::of(8, 1);
    let mut state = 0xBEE5_0000_DEAD_10CCu64;
    for (m, k, n) in [(3usize, 8193usize, 4usize), (2, 16385, 3), (5, 12000, 2)] {
        // NaR-free streams (NaR poisoning is pinned by the (16,1) sweep
        // above): with NaR anywhere in a deep column every output is NaN
        // and the sums go untested.
        let mut gen_codes = |len: usize| -> Vec<u64> {
            (0..len)
                .map(|i| {
                    if i % 23 == 0 {
                        0
                    } else {
                        match (lcg(&mut state) >> 11) & fmt.mask() {
                            c if c == fmt.nar_bits() => 1,
                            c => c,
                        }
                    }
                })
                .collect()
        };
        let a = PositPlane::from_bits(fmt, &gen_codes(m * k));
        let b = PositPlane::from_bits(fmt, &gen_codes(k * n));
        let fast = PositGemm::new(fmt, Rounding::NearestEven);
        let wide = fast.wide_accumulator(true);
        assert_eq!(fast.dot_bits(k), Some(128), "k={k} is past the i64 budget");
        let mut c_fast = vec![0.0f32; m * n];
        let mut c_wide = vec![0.0f32; m * n];
        fast.gemm(m, k, n, &a, &b, &mut c_fast);
        wide.gemm(m, k, n, &a, &b, &mut c_wide);
        assert_eq!(c_fast, c_wide, "{m}x{k}x{n}");
    }
}

/// The budget edges: at the last depth a path admits, `k` same-sign
/// maxpos² products — the largest sum the budget must hold — equal the
/// wide quire, and one more product moves to the next path (posit(8,1):
/// `i64` sums up to 2^13 products, then `i128`; posit(16,1): `i128` sums
/// up to 2^13, then 256 bits). A minpos² term rides along so the rounding
/// sees a sticky bit far below the leading one.
#[test]
fn integer_budget_edges_match_the_wide_quire() {
    for (fmt, last, next) in [
        (PositFormat::of(8, 1), Some(64), Some(128)),
        (PositFormat::of(16, 1), Some(128), Some(256)),
    ] {
        let k = 8192usize;
        let kernel = PositGemm::new(fmt, Rounding::NearestEven);
        assert_eq!(kernel.dot_bits(k), last, "{fmt} k={k}");
        assert_eq!(kernel.dot_bits(k + 1), next, "{fmt} k={}", k + 1);
        for depth in [k, k + 1] {
            for sign in [false, true] {
                let top = if sign {
                    fmt.negate(fmt.maxpos_bits())
                } else {
                    fmt.maxpos_bits()
                };
                let mut a_codes = vec![top; depth];
                let mut b_codes = vec![fmt.maxpos_bits(); depth];
                a_codes[depth / 2] = fmt.minpos_bits();
                b_codes[depth / 2] = fmt.minpos_bits();
                let a = PositPlane::from_bits(fmt, &a_codes);
                let b = PositPlane::from_bits(fmt, &b_codes);
                for rounding in [Rounding::NearestEven, Rounding::ToZero] {
                    let fast = PositGemm::new(fmt, rounding);
                    let mut c_fast = [0.0f32];
                    let mut c_wide = [0.0f32];
                    fast.gemm(1, depth, 1, &a, &b, &mut c_fast);
                    fast.wide_accumulator(true)
                        .gemm(1, depth, 1, &a, &b, &mut c_wide);
                    assert_eq!(
                        c_fast, c_wide,
                        "{fmt} k={depth} negative={sign} {rounding:?}"
                    );
                }
            }
        }
    }
}

/// `codes` packed into a storage plane of `fmt`.
fn packed(fmt: PositFormat, codes: &[u64]) -> PackedBits {
    let mut p = PackedBits::for_format(fmt, codes.len());
    for &c in codes {
        p.push(c);
    }
    p
}

/// Random finite codes of `fmt` whose values stay within `2^±window`
/// (the i128 rational reference overflows on wider mixes).
fn windowed_codes(fmt: PositFormat, len: usize, window: i32, state: &mut u64) -> Vec<u64> {
    (0..len)
        .map(|i| {
            if i % 9 == 4 {
                return 0;
            }
            loop {
                let c = (lcg(state) >> 21) & fmt.mask();
                let v = fmt.to_f64(c).abs();
                let lim = (window as f64).exp2();
                if c != fmt.nar_bits() && v >= 1.0 / lim && v <= lim {
                    return c;
                }
            }
        })
        .collect()
}

/// The exact reference for `round(Σ_t a[t]·b[t] · 2^shift)`.
fn shifted_dot_ref(fmt: PositFormat, a: &[u64], b: &[u64], shift: i32, rounding: Rounding) -> f32 {
    let mut sum = Rational::ZERO;
    for (&ca, &cb) in a.iter().zip(b) {
        sum = sum.add(&exact(fmt, ca).mul(&exact(fmt, cb)));
    }
    let sum = sum.mul(&Rational::dyadic(1, shift));
    fmt.to_f32(round_ref(&RefRounder::new(fmt), &sum, rounding))
}

/// A posit(16,1) GEMM over scale-shifted packed planes (`from_packed` with
/// nonzero Eq. 2 exponents on both operands) against the exact rational
/// reference: the shifts fold into the fixed point, not the words.
#[test]
fn scale_shifted_p16_gemm_matches_exact_rationals() {
    let fmt = PositFormat::of(16, 1);
    let mut state = 0x5CA1_E5ED_0016_0001u64;
    let (m, k, n) = (5usize, 13usize, 7usize);
    for (ea, eb) in [(3i32, -2i32), (-5, -4), (6, 1)] {
        let a_codes = windowed_codes(fmt, m * k, 10, &mut state);
        let bt_codes = windowed_codes(fmt, n * k, 10, &mut state);
        let a = PositPlane::from_packed(fmt, &packed(fmt, &a_codes), ea);
        let b_t = PositPlane::from_packed(fmt, &packed(fmt, &bt_codes), eb);
        for rounding in [Rounding::NearestEven, Rounding::ToZero] {
            let kernel = PositGemm::new(fmt, rounding);
            assert_eq!(kernel.dot_bits(k), Some(128));
            let mut c = vec![0.0f32; m * n];
            kernel.gemm_a_bt(m, k, n, &a, &b_t, &mut c);
            for i in 0..m {
                for j in 0..n {
                    let want = shifted_dot_ref(
                        fmt,
                        &a_codes[i * k..(i + 1) * k],
                        &bt_codes[j * k..(j + 1) * k],
                        ea + eb,
                        rounding,
                    );
                    assert_eq!(
                        c[i * n + j].to_bits(),
                        want.to_bits(),
                        "shifts ({ea},{eb}) {rounding:?} ({i},{j})"
                    );
                }
            }
        }
    }
}

/// A sampled posit(8,2) ΔW accumulation over scale-shifted packed planes
/// against the exact rational reference: two calls with different shifts
/// land in one fixed-point buffer (each dot left-shifted onto the
/// buffer's fixed point) and round once.
#[test]
fn scale_shifted_p8e2_grad_accumulate_matches_exact_rationals() {
    let fmt = PositFormat::of(8, 2);
    let mut state = 0x0008_0002_D317_A5EDu64;
    let (m, k, n) = (3usize, 11usize, 4usize);
    let calls = [(2i32, -3i32), (-1, 1)];
    let margin = 5;
    for rounding in [Rounding::NearestEven, Rounding::ToZero] {
        assert_eq!(GradQuireBuf::sum_bits(fmt, margin, 2 * k), Some(128));
        let mut buf = GradQuireBuf::new(fmt, rounding, margin, 2 * k, m * n);
        let mut sums = vec![Rational::ZERO; m * n];
        for &(ea, eb) in &calls {
            let a_codes = windowed_codes(fmt, m * k, 8, &mut state);
            let bt_codes = windowed_codes(fmt, n * k, 8, &mut state);
            let a = PositPlane::from_packed(fmt, &packed(fmt, &a_codes), ea);
            let b_t = PositPlane::from_packed(fmt, &packed(fmt, &bt_codes), eb);
            buf.accumulate_a_bt(m, k, n, &a, &b_t);
            for i in 0..m {
                for j in 0..n {
                    let mut dot = Rational::ZERO;
                    for t in 0..k {
                        let (x, y) = (a_codes[i * k + t], bt_codes[j * k + t]);
                        dot = dot.add(&exact(fmt, x).mul(&exact(fmt, y)));
                    }
                    sums[i * n + j] = sums[i * n + j].add(&dot.mul(&Rational::dyadic(1, ea + eb)));
                }
            }
        }
        let mut got = vec![0.0f32; m * n];
        buf.round_into(&mut got);
        let rounder = RefRounder::new(fmt);
        for (idx, sum) in sums.iter().enumerate() {
            let want = fmt.to_f32(round_ref(&rounder, sum, rounding));
            assert_eq!(
                got[idx].to_bits(),
                want.to_bits(),
                "{rounding:?} element {idx}"
            );
        }
    }
}

/// The quire conv forward against the exact rational reference: a sampled
/// posit(8,1) convolution over off-grid f32 inputs (each rounded once onto
/// the grid, under the kernel's mode), with NaN and −0.0 elements, at
/// stride 2 with one ring of zero padding. Every output must be the exact
/// sum of its receptive field's products, rounded once — whatever path
/// gathers the encoded elements into col planes.
#[test]
fn sampled_p8_conv_matches_exact_rationals() {
    use posit_tensor::conv::conv2d_prepared;
    use posit_tensor::{Backend, Tensor};

    let fmt = PositFormat::of(8, 1);
    let rounder = RefRounder::new(fmt);
    let (n, c, h, w, o, kk, stride, pad) = (2, 2, 7, 6, 3, 3, 2, 1);
    let (oh, ow) = (
        (h + 2 * pad - kk) / stride + 1,
        (w + 2 * pad - kk) / stride + 1,
    );
    let mut state = 0x0C0F_FEE5_C0DE_5EEDu64;
    // Off-grid inputs: a full 24-bit mantissa over |x| in [2^-8, 2^8).
    let mut x: Vec<f32> = (0..n * c * h * w)
        .map(|_| {
            let r = lcg(&mut state);
            let mag =
                (1.0 + (r >> 40) as f32 / (1u64 << 24) as f32) * ((r % 16) as f32 - 8.0).exp2();
            if r & (1 << 20) != 0 {
                -mag
            } else {
                mag
            }
        })
        .collect();
    x[5] = f32::NAN;
    x[17] = -0.0;
    x[n * c * h * w - 3] = -0.0;
    // Weights on the grid: random finite code words.
    let w_codes: Vec<u64> = (0..o * c * kk * kk)
        .map(|_| loop {
            let code = lcg(&mut state) >> 56 & fmt.mask();
            if code != fmt.nar_bits() {
                break code;
            }
        })
        .collect();
    let wv: Vec<f32> = w_codes.iter().map(|&b| fmt.to_f32(b)).collect();
    let input = Tensor::from_vec(x.clone(), &[n, c, h, w]);
    for rounding in [Rounding::NearestEven, Rounding::ToZero] {
        let backend = Backend::PositQuire { fmt, rounding };
        let got = conv2d_prepared(
            &backend.prepare(&wv),
            &[o, c, kk, kk],
            &input,
            None,
            stride,
            pad,
        );
        assert_eq!(got.shape(), &[n, o, oh, ow]);
        // Each input rounded once onto the grid (NaN is NaR).
        let x_ref: Vec<Option<Rational>> = x
            .iter()
            .map(|&v| {
                (!v.is_nan()).then(|| {
                    let code = round_ref(&rounder, &Rational::from_f64_exact(v as f64), rounding);
                    exact(fmt, code)
                })
            })
            .collect();
        for i in 0..n {
            for oc in 0..o {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut sum = Some(Rational::ZERO);
                        for ic in 0..c {
                            for ki in 0..kk {
                                for kj in 0..kk {
                                    let iy = (oy * stride + ki) as isize - pad as isize;
                                    let ix = (ox * stride + kj) as isize - pad as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue; // padding: the posit zero
                                    }
                                    let xi = ((i * c + ic) * h + iy as usize) * w + ix as usize;
                                    let wi = ((oc * c + ic) * kk + ki) * kk + kj;
                                    let wr = exact(fmt, w_codes[wi]);
                                    sum = sum
                                        .zip(x_ref[xi].as_ref())
                                        .map(|(s, xr)| s.add(&wr.mul(xr)));
                                }
                            }
                        }
                        let g = got.data()[((i * o + oc) * oh + oy) * ow + ox];
                        let at = format!("{rounding:?} ({i},{oc},{oy},{ox})");
                        match sum {
                            None => assert!(g.is_nan(), "{at}: NaR field gave {g}"),
                            Some(s) => {
                                let want = fmt.to_f32(round_ref(&rounder, &s, rounding));
                                assert_eq!(g.to_bits(), want.to_bits(), "{at}");
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Sampled posit(16,2) — the paper's 16-bit error format, on the 256-bit
/// significand-lane path — against the exact rational reference, with the
/// plane shifts perfbench's MLP sees (`−8/0` and `−7/0`), zero and NaR
/// lanes, and both roundings: a GEMM over scale-shifted packed planes, and
/// a `GradQuireBuf` fed two `ΔW` calls with different shifts plus a bias
/// column sum, rounded once.
#[test]
fn sampled_p16e2_gemm_and_grad_match_exact_rationals() {
    let fmt = PositFormat::of(16, 2);
    let rounder = RefRounder::new(fmt);
    let mut state = 0x0016_0002_5A3D_1E55u64;
    let nar_at = |codes: &mut Vec<u64>, i: usize| codes[i] = fmt.nar_bits();
    let is_nar = |codes: &[u64]| codes.contains(&fmt.nar_bits());

    // GEMM: C[m,n] = A[m,k] · B_tᵀ, A shifted by 2^ea.
    let (m, k, n) = (5usize, 32usize, 7usize);
    for (ea, eb) in [(-8i32, 0i32), (-7, 0)] {
        let mut a_codes = windowed_codes(fmt, m * k, 14, &mut state);
        let bt_codes = windowed_codes(fmt, n * k, 14, &mut state);
        nar_at(&mut a_codes, 3 * k + 5); // poisons row 3
        let a = PositPlane::from_packed(fmt, &packed(fmt, &a_codes), ea);
        let b_t = PositPlane::from_packed(fmt, &packed(fmt, &bt_codes), eb);
        for rounding in [Rounding::NearestEven, Rounding::ToZero] {
            let kernel = PositGemm::new(fmt, rounding);
            assert_eq!(kernel.dot_bits(k), Some(256));
            let mut c = vec![0.0f32; m * n];
            kernel.gemm_a_bt(m, k, n, &a, &b_t, &mut c);
            for i in 0..m {
                for j in 0..n {
                    let (x, y) = (&a_codes[i * k..(i + 1) * k], &bt_codes[j * k..(j + 1) * k]);
                    let got = c[i * n + j];
                    let at = format!("shifts ({ea},{eb}) {rounding:?} ({i},{j})");
                    if is_nar(x) {
                        assert!(got.is_nan(), "{at}: NaR row gave {got}");
                    } else {
                        let want = shifted_dot_ref(fmt, x, y, ea + eb, rounding);
                        assert_eq!(got.to_bits(), want.to_bits(), "{at}");
                    }
                }
            }
        }
    }

    // ΔW: buf[m,n] += Σ_t dY[t,i] · X[t,j] over two calls, then a bias
    // column sum, all in one 256-bit buffer of margin 8.
    let (m, k, n, margin) = (4usize, 16usize, 6usize, 8u32);
    assert_eq!(GradQuireBuf::sum_bits(fmt, margin, 2 * k), Some(256));
    for rounding in [Rounding::NearestEven, Rounding::ToZero] {
        let mut buf = GradQuireBuf::new(fmt, rounding, margin, 2 * k, m * n);
        let mut sums = vec![Some(Rational::ZERO); m * n];
        for (call, (ea, eb)) in [(-8i32, 0i32), (-7, 0)].into_iter().enumerate() {
            let mut dy_codes = windowed_codes(fmt, k * m, 14, &mut state); // [k, m]
            let x_codes = windowed_codes(fmt, k * n, 14, &mut state); // [k, n]
            if call == 1 {
                nar_at(&mut dy_codes, 9 * m + 2); // poisons output row 2
            }
            let dy = PositPlane::from_packed(fmt, &packed(fmt, &dy_codes), ea);
            let x = PositPlane::from_packed(fmt, &packed(fmt, &x_codes), eb);
            buf.accumulate_at_b(m, k, n, &dy, &x);
            for i in 0..m {
                for j in 0..n {
                    let mut dot = Some(Rational::ZERO);
                    for t in 0..k {
                        let (p, q) = (dy_codes[t * m + i], x_codes[t * n + j]);
                        dot = dot
                            .filter(|_| p != fmt.nar_bits())
                            .map(|d| d.add(&exact(fmt, p).mul(&exact(fmt, q))));
                    }
                    let shifted = dot.map(|d| d.mul(&Rational::dyadic(1, ea + eb)));
                    sums[i * n + j] = sums[i * n + j].take().zip(shifted).map(|(s, d)| s.add(&d));
                }
            }
        }
        // A bias-style column sum over a plane shifted by 2^-8: every
        // value lands as `x · 1`.
        let b_codes = windowed_codes(fmt, 3 * m * n, 14, &mut state);
        let b = PositPlane::from_packed(fmt, &packed(fmt, &b_codes), -8);
        buf.accumulate_col_sums(3, m * n, &b);
        for (idx, sum) in sums.iter_mut().enumerate() {
            for r in 0..3 {
                let v = exact(fmt, b_codes[r * m * n + idx]).mul(&Rational::dyadic(1, -8));
                *sum = sum.take().map(|s| s.add(&v));
            }
        }
        let mut got = vec![0.0f32; m * n];
        buf.round_into(&mut got);
        for (idx, sum) in sums.iter().enumerate() {
            match sum {
                None => assert!(got[idx].is_nan(), "{rounding:?} element {idx} must be NaR"),
                Some(s) => {
                    let want = fmt.to_f32(round_ref(&rounder, s, rounding));
                    assert_eq!(
                        got[idx].to_bits(),
                        want.to_bits(),
                        "{rounding:?} element {idx}"
                    );
                }
            }
        }
        assert!(got.iter().any(|v| v.is_nan()) && got.iter().any(|v| *v != 0.0 && !v.is_nan()));
    }
}

/// The 256-bit tier's two budget edges, each at the last depth it admits
/// and one past it, where the dispatcher must hand the dot to the wide
/// quire. posit(16,2) admits `k = 2^29`, too deep to run, so the edges
/// are pinned on the formats that reach them at small depths:
///
/// * the 256-bit sum: posit(17,2) (`4·60 + 2 + 13 = 255` at `k = 8192`)
///   with same-sign maxpos² terms, `2^253` in accumulator units, plus a
///   minpos² term far below them, against the wide quire and the expected
///   ±maxpos;
/// * the `i128` lanes: posit(32,1) (`2·29 + 63 + 6 = 127` at `k = 64`)
///   with full 29-bit significands whose shifts sum to 63, so every
///   product lands at the top of one lane, against the wide quire and the
///   f32 the exact sum rounds to (the kernels store f32, which holds
///   neither rounding's 25-bit result exactly, so the two modes agree).
#[test]
fn sig_lane_budget_edges_match_the_wide_quire() {
    let p17e2 = PositFormat::of(17, 2);
    let k = 8192usize;
    assert_eq!(
        PositGemm::new(p17e2, Rounding::NearestEven).dot_bits(k),
        Some(256)
    );
    assert_eq!(
        PositGemm::new(p17e2, Rounding::NearestEven).dot_bits(k + 1),
        None
    );
    for depth in [k, k + 1] {
        for negative in [false, true] {
            let top = p17e2.maxpos_bits();
            let mut a_codes = vec![if negative { p17e2.negate(top) } else { top }; depth];
            let mut b_codes = vec![top; depth];
            a_codes[depth / 3] = p17e2.minpos_bits();
            b_codes[depth / 3] = p17e2.minpos_bits();
            let a = PositPlane::from_bits(p17e2, &a_codes);
            let b = PositPlane::from_bits(p17e2, &b_codes);
            for rounding in [Rounding::NearestEven, Rounding::ToZero] {
                let fast = PositGemm::new(p17e2, rounding);
                let (mut c_fast, mut c_wide) = ([0.0f32], [0.0f32]);
                fast.gemm(1, depth, 1, &a, &b, &mut c_fast);
                fast.wide_accumulator(true)
                    .gemm(1, depth, 1, &a, &b, &mut c_wide);
                let at = format!("{p17e2} k={depth} negative={negative} {rounding:?}");
                assert_eq!(c_fast, c_wide, "{at}");
                let maxpos = p17e2.maxpos() as f32;
                assert_eq!(c_fast[0], if negative { -maxpos } else { maxpos }, "{at}");
            }
        }
    }

    let p32e1 = PositFormat::of(32, 1);
    let k = 64usize;
    assert_eq!(
        PositGemm::new(p32e1, Rounding::NearestEven).dot_bits(k),
        Some(256)
    );
    assert_eq!(
        PositGemm::new(p32e1, Rounding::NearestEven).dot_bits(k + 1),
        None
    );
    let full = 2.0 - (-28f64).exp2(); // 1.111…1 with 28 fraction bits
    let x = p32e1.from_f64(full / 2.0, Rounding::NearestEven); // scale −1
    let y = p32e1.from_f64(full, Rounding::NearestEven); // scale 0
    assert_eq!(p32e1.to_f64(x), full / 2.0);
    for depth in [k, k + 1] {
        for negative in [false, true] {
            let a_codes = vec![if negative { p32e1.negate(x) } else { x }; depth];
            let a = PositPlane::from_bits(p32e1, &a_codes);
            let b = PositPlane::from_bits(p32e1, &vec![y; depth]);
            let want = (depth as f64 * full / 2.0 * full) as f32;
            for rounding in [Rounding::NearestEven, Rounding::ToZero] {
                let fast = PositGemm::new(p32e1, rounding);
                let (mut c_fast, mut c_wide) = ([0.0f32], [0.0f32]);
                fast.gemm(1, depth, 1, &a, &b, &mut c_fast);
                fast.wide_accumulator(true)
                    .gemm(1, depth, 1, &a, &b, &mut c_wide);
                let at = format!("{p32e1} k={depth} negative={negative} {rounding:?}");
                assert_eq!(c_fast, c_wide, "{at}");
                assert_eq!(c_fast[0], if negative { -want } else { want }, "{at}");
            }
        }
    }
}
