//! Property-based tests for the posit number system.

use posit::{quant, NarrowQuire, PositFormat, PositQuantizer, Quire, Rounding, P16E1};
use proptest::prelude::*;

/// Strategy over supported formats (biased toward the paper's formats).
fn formats() -> impl Strategy<Value = PositFormat> {
    (2u32..=32, 0u32..=4).prop_map(|(n, es)| PositFormat::of(n, es))
}

/// Strategy over "training-like" f64 magnitudes.
fn reals() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e6f64..1e6,
        -1.0f64..1.0,
        -1e-6f64..1e-6,
        Just(0.0),
        (-60i32..60).prop_map(|e| (e as f64).exp2()),
        (-60i32..60).prop_map(|e| -(e as f64).exp2()),
    ]
}

proptest! {
    #[test]
    fn roundtrip_is_identity_on_representables(fmt in formats(), x in reals()) {
        let bits = fmt.from_f64(x, Rounding::NearestEven);
        let v = fmt.to_f64(bits);
        if !v.is_nan() {
            // Once on the grid, conversion is stable under both modes.
            prop_assert_eq!(fmt.from_f64(v, Rounding::NearestEven), bits);
            prop_assert_eq!(fmt.from_f64(v, Rounding::ToZero), bits);
        }
    }

    #[test]
    fn rne_result_brackets_input(fmt in formats(), x in reals()) {
        prop_assume!(x != 0.0);
        let bits = fmt.from_f64(x, Rounding::NearestEven);
        let v = fmt.to_f64(bits);
        // The result is within one ULP bracket of x (clamping aside).
        if x.abs() <= fmt.maxpos() && x.abs() >= fmt.minpos() {
            let lo = fmt.to_f64(fmt.next_down(bits));
            let hi = fmt.to_f64(fmt.next_up(bits));
            prop_assert!(lo <= x || bits == fmt.negate(fmt.maxpos_bits()));
            prop_assert!(x <= hi || bits == fmt.maxpos_bits());
            // And v is one of the two bracketing posits of x.
            prop_assert!((v - x).abs() <= (lo - x).abs() + 1e-300);
            prop_assert!((v - x).abs() <= (hi - x).abs() + 1e-300);
        }
    }

    #[test]
    fn rtz_magnitude_never_grows(fmt in formats(), x in reals()) {
        let v = quant::quantize_f64(&fmt, x, Rounding::ToZero);
        prop_assert!(v.abs() <= x.abs());
        if v != 0.0 {
            prop_assert_eq!(v.signum(), x.signum());
        }
    }

    #[test]
    fn quantizer_idempotent(fmt in formats(), x in reals()) {
        for mode in [Rounding::NearestEven, Rounding::ToZero] {
            let once = quant::quantize_f64(&fmt, x, mode);
            prop_assert_eq!(quant::quantize_f64(&fmt, once, mode), once);
        }
    }

    #[test]
    fn negation_is_exact(fmt in formats(), x in reals()) {
        let p = fmt.from_f64(x, Rounding::NearestEven);
        let n = fmt.from_f64(-x, Rounding::NearestEven);
        if p != fmt.nar_bits() {
            prop_assert_eq!(fmt.negate(p), n);
        }
    }

    #[test]
    fn add_commutes(a in any::<u16>(), b in any::<u16>()) {
        let fmt = PositFormat::of(16, 1);
        prop_assert_eq!(fmt.add(a as u64, b as u64), fmt.add(b as u64, a as u64));
    }

    #[test]
    fn mul_commutes(a in any::<u16>(), b in any::<u16>()) {
        let fmt = PositFormat::of(16, 2);
        prop_assert_eq!(fmt.mul(a as u64, b as u64), fmt.mul(b as u64, a as u64));
    }

    #[test]
    fn add_negate_symmetry(a in any::<u16>(), b in any::<u16>()) {
        // -(a + b) == (-a) + (-b) exactly (negation is an isometry).
        let fmt = PositFormat::of(16, 1);
        let (a, b) = (a as u64, b as u64);
        prop_assume!(a != fmt.nar_bits() && b != fmt.nar_bits());
        let lhs = fmt.add(a, b);
        prop_assume!(lhs != fmt.nar_bits());
        let rhs = fmt.add(fmt.negate(a), fmt.negate(b));
        prop_assert_eq!(fmt.negate(lhs), rhs);
    }

    #[test]
    fn total_order_matches_f64(a in any::<u16>(), b in any::<u16>()) {
        let fmt = PositFormat::of(16, 1);
        let (a, b) = (a as u64, b as u64);
        prop_assume!(a != fmt.nar_bits() && b != fmt.nar_bits());
        let (va, vb) = (fmt.to_f64(a), fmt.to_f64(b));
        prop_assert_eq!(fmt.total_cmp(a, b), va.partial_cmp(&vb).unwrap());
    }

    #[test]
    fn mul_monotone_in_magnitude(a in any::<u16>(), b in any::<u16>()) {
        // |a| <= |b| implies |a*c| <= |b*c| for positive c: monotonicity of
        // correctly rounded multiplication.
        let fmt = PositFormat::of(16, 1);
        let (a, b) = (fmt.abs(a as u64), fmt.abs(b as u64));
        prop_assume!(a != fmt.nar_bits() && b != fmt.nar_bits());
        let c = fmt.from_f64(1.7, Rounding::NearestEven);
        let (lo, hi) = if fmt.total_cmp(a, b).is_le() { (a, b) } else { (b, a) };
        let (plo, phi) = (fmt.mul(lo, c), fmt.mul(hi, c));
        prop_assert!(fmt.total_cmp(plo, phi).is_le());
    }

    #[test]
    fn shifting_toward_one_never_hurts_precision(
        m in 1.0f64..2.0,
        e in -10i32..=10,
        neg in any::<bool>(),
    ) {
        let x = if neg { -m * (e as f64).exp2() } else { m * (e as f64).exp2() };
        // The core claim behind Eq. 2-3: posit precision peaks around
        // |value| = 1 (regime width 2, maximal fraction bits), so quantizing
        // P(x / Sf) * Sf with Sf = 2^floor(log2 |x|) cannot have *larger*
        // absolute error than quantizing directly — the same fraction bits
        // are truncated at an equal or later position.
        let fmt = PositFormat::of(8, 1);
        prop_assume!(x != 0.0);
        let scale = x.abs().log2().floor() as i32;
        prop_assume!(scale != 0 && scale.abs() <= fmt.max_scale() - 2);
        let sf = (scale as f64).exp2();
        let shifted = quant::quantize_f64(&fmt, x / sf, Rounding::ToZero) * sf;
        let direct = quant::quantize_f64(&fmt, x, Rounding::ToZero);
        prop_assert!(
            (shifted - x).abs() <= (direct - x).abs(),
            "shifted err {} > direct err {}",
            (shifted - x).abs(),
            (direct - x).abs()
        );
    }

    #[test]
    fn quantization_error_bounded_by_neighbour_gap(x in -1e4f64..1e4) {
        let fmt = PositFormat::of(8, 1);
        prop_assume!(x.abs() >= fmt.minpos() && x.abs() <= fmt.maxpos());
        let bits = fmt.from_f64(x, Rounding::NearestEven);
        let v = fmt.to_f64(bits);
        let gap = (fmt.to_f64(fmt.next_up(bits)) - fmt.to_f64(fmt.next_down(bits))).abs() / 2.0;
        prop_assert!((v - x).abs() <= gap, "err {} > gap {}", (v - x).abs(), gap);
    }

    #[test]
    fn quire_dot_matches_f64_for_exact_inputs(
        xs in prop::collection::vec(-64i32..64, 1..40),
        ys in prop::collection::vec(-64i32..64, 1..40),
    ) {
        // Inputs are small integers/8: all products and partial sums are
        // exactly representable in f64, so the quire must match f64 exactly.
        let fmt = PositFormat::of(16, 1);
        let n = xs.len().min(ys.len());
        let xf: Vec<f64> = xs[..n].iter().map(|&v| v as f64 / 8.0).collect();
        let yf: Vec<f64> = ys[..n].iter().map(|&v| v as f64 / 8.0).collect();
        let xp: Vec<u64> = xf.iter().map(|&v| fmt.from_f64(v, Rounding::NearestEven)).collect();
        let yp: Vec<u64> = yf.iter().map(|&v| fmt.from_f64(v, Rounding::NearestEven)).collect();
        let want: f64 = xf.iter().zip(&yf).map(|(a, b)| a * b).sum();
        let mut q = Quire::new(fmt);
        for (&a, &b) in xp.iter().zip(&yp) {
            q.add_product(a, b);
        }
        let got = fmt.to_f64(q.to_posit(Rounding::NearestEven, 0));
        // want may itself not be a (16,1) posit; round it for comparison.
        let want_q = quant::quantize_f64(&fmt, want, Rounding::NearestEven);
        prop_assert_eq!(got, want_q);
    }

    #[test]
    fn stochastic_rounding_lands_on_bracketing_codes(x in -1e3f64..1e3, seed in any::<u64>()) {
        let fmt = PositFormat::of(8, 2);
        prop_assume!(x != 0.0 && x.abs() >= fmt.minpos() && x.abs() <= fmt.maxpos());
        let lo = fmt.from_f64(x, Rounding::ToZero);
        let r = fmt.from_f64_stochastic(x, seed);
        // r must be lo or its away-from-zero neighbour.
        let away = if fmt.is_negative(lo) { fmt.next_down(lo) } else { fmt.next_up(lo) };
        prop_assert!(r == lo || r == away, "r={r:#x} lo={lo:#x} away={away:#x}");
    }

    #[test]
    fn quire_dot_is_order_independent(
        pairs in prop::collection::vec((any::<u16>(), any::<u16>()), 2..60),
        seed in any::<u64>(),
    ) {
        // Exact accumulation ⇒ the rounded result cannot depend on the
        // summation order (chained rounded adds would fail this).
        let fmt = PositFormat::of(16, 1);
        let clean: Vec<(u64, u64)> = pairs
            .iter()
            .map(|&(a, b)| (a as u64, b as u64))
            .map(|(a, b)| (
                if a == fmt.nar_bits() { fmt.one_bits() } else { a },
                if b == fmt.nar_bits() { fmt.one_bits() } else { b },
            ))
            .collect();
        let mut q1 = Quire::new(fmt);
        for &(a, b) in &clean {
            q1.add_product(a, b);
        }
        // A seeded shuffle of the same pairs.
        let mut shuffled = clean.clone();
        let mut s = seed | 1;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            shuffled.swap(i, (s as usize) % (i + 1));
        }
        let mut q2 = Quire::new(fmt);
        for &(a, b) in &shuffled {
            q2.add_product(a, b);
        }
        prop_assert_eq!(
            q1.to_posit(Rounding::NearestEven, 0),
            q2.to_posit(Rounding::NearestEven, 0)
        );
    }

    #[test]
    fn typed_ops_match_f64_semantics(a in -100.0f64..100.0, b in -100.0f64..100.0) {
        let pa = P16E1::from_f64(a);
        let pb = P16E1::from_f64(b);
        let (fa, fb) = (pa.to_f64(), pb.to_f64());
        // Posit result must be the correctly rounded f64 result (f64 ops on
        // <=30-bit operands within range are exact).
        prop_assert_eq!((pa + pb).to_f64(), quant::quantize_f64(&P16E1::FORMAT, fa + fb, Rounding::NearestEven));
        prop_assert_eq!((pa * pb).to_f64(), quant::quantize_f64(&P16E1::FORMAT, fa * fb, Rounding::NearestEven));
    }

    #[test]
    fn stochastic_quantizer_mean_is_unbiased(x in 0.1f64..100.0) {
        let fmt = PositFormat::of(8, 1);
        let mut q = PositQuantizer::with_seed(fmt, Rounding::Stochastic, 12345);
        let trials = 4000;
        let mut acc = 0.0f64;
        for _ in 0..trials {
            acc += q.quantize(x as f32) as f64;
        }
        let mean = acc / trials as f64;
        // The two bracketing codes bound the achievable bias.
        let lo = fmt.to_f64(fmt.from_f64(x, Rounding::ToZero));
        let hi = fmt.to_f64(fmt.next_up(fmt.from_f64(x, Rounding::ToZero)));
        let gap = hi - lo;
        prop_assert!((mean - x).abs() < gap * 0.15 + 1e-9,
            "mean {mean} vs {x} (gap {gap})");
    }
}

/// P16E1 code words biased toward the exact-accumulation edge cases: NaR,
/// saturated scales (maxpos/minpos squares push the product scale sum to
/// its extremes) and zero.
fn p16_words() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u16>().prop_map(u64::from),
        any::<u16>().prop_map(u64::from),
        any::<u16>().prop_map(u64::from),
        Just(0x8000u64), // NaR
        Just(0x7FFFu64), // maxpos
        Just(0x0001u64), // minpos
        Just(0u64),
    ]
}

proptest! {
    // The algebraic heart of split-invariant exact accumulation: a quire
    // is an integer fixed-point sum, so accumulating any PERMUTATION of
    // the products, partitioned into ANY set of shards, and merging the
    // shard quires must reproduce the serial fold's rounded posit
    // bit-for-bit — NaR absorption and saturated scale sums included.
    // Checked for the wide (limb-array) quire and the narrow i128
    // accumulator, which must also agree with each other.
    #[test]
    fn quire_all_reduce_is_partition_and_order_invariant(
        pairs in proptest::collection::vec((p16_words(), p16_words()), 1..48),
        perm_seed in any::<u64>(),
        cuts in proptest::collection::vec(0usize..48, 0..5),
    ) {
        let fmt = PositFormat::of(16, 1);
        let mut serial = Quire::new(fmt);
        let mut serial_narrow = NarrowQuire::try_new(fmt, 0, pairs.len()).unwrap();
        for &(a, b) in &pairs {
            serial.add_product(a, b);
            serial_narrow.add_product(a, b);
        }

        // Permute (Fisher–Yates over an xorshift stream) and cut into
        // contiguous shards of the permuted order.
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let mut state = perm_seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in (1..order.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (pairs.len() + 1)).collect();
        bounds.push(0);
        bounds.push(pairs.len());
        bounds.sort_unstable();

        let mut wide = Quire::new(fmt);
        let mut narrow = NarrowQuire::try_new(fmt, 0, pairs.len()).unwrap();
        for w in bounds.windows(2) {
            let mut shard_w = Quire::new(fmt);
            let mut shard_n = NarrowQuire::try_new(fmt, 0, pairs.len()).unwrap();
            for &i in &order[w[0]..w[1]] {
                let (a, b) = pairs[i];
                shard_w.add_product(a, b);
                shard_n.add_product(a, b);
            }
            wide.merge_from(&shard_w);
            narrow.merge_from(&shard_n);
        }

        prop_assert_eq!(wide.is_nar(), serial.is_nar());
        prop_assert_eq!(narrow.is_nar(), serial_narrow.is_nar());
        for rounding in [Rounding::NearestEven, Rounding::ToZero] {
            let want = serial.to_posit(rounding, 0);
            prop_assert_eq!(wide.to_posit(rounding, 0), want);
            prop_assert_eq!(serial_narrow.to_posit(rounding, 0), want);
            prop_assert_eq!(narrow.to_posit(rounding, 0), want);
        }
    }
}
