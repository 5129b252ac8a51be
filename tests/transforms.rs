//! Cross-crate transform properties (property-based).
//!
//! These tie `ntt-math` and `ntt-core` together: every algorithm variant
//! must agree with the naive O(N²) oracle and with each other on random
//! inputs, moduli, and shapes.

use ntt_warp::core::{ct, naive, radix, HierConfig, HierPlan, NttTable, OtTable};
use proptest::prelude::*;

/// Random (log_n, prime_bits) pairs small enough for quadratic oracles.
fn table_params() -> impl Strategy<Value = (u32, u32)> {
    (
        2u32..=9,
        prop_oneof![Just(40u32), Just(50), Just(59), Just(60)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ntt_intt_roundtrip((log_n, bits) in table_params(), seed in any::<u64>()) {
        let n = 1usize << log_n;
        let table = NttTable::new_with_bits(n, bits).unwrap();
        let p = table.modulus();
        let a: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(seed | 1).wrapping_add(seed >> 7) % p)
            .collect();
        let mut b = a.clone();
        ct::ntt(&mut b, &table);
        ct::intt(&mut b, &table);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn lazy_and_strict_agree((log_n, bits) in (2u32..=9, Just(59u32)), seed in any::<u64>()) {
        let n = 1usize << log_n;
        let table = NttTable::new_with_bits(n, bits).unwrap();
        let p = table.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 3) % p).collect();
        let mut strict = a.clone();
        ct::ntt(&mut strict, &table);
        let mut lazy = a;
        ct::ntt_lazy(&mut lazy, &table);
        ct::reduce_from_lazy(&mut lazy, p);
        prop_assert_eq!(strict, lazy);
    }

    #[test]
    fn high_radix_equals_ct(log_n in 3u32..=9, log_r in 1u32..=5, seed in any::<u64>()) {
        let n = 1usize << log_n;
        let r = 1usize << log_r.min(log_n);
        let table = NttTable::new_with_bits(n, 60).unwrap();
        let p = table.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 1) % p).collect();
        let mut blocked = a.clone();
        radix::high_radix_ntt(&mut blocked, &table, r);
        let mut reference = a;
        ct::ntt(&mut reference, &table);
        prop_assert_eq!(blocked, reference);
    }

    #[test]
    fn two_kernel_split_equals_ct(log_n in 2u32..=10, split in 1u32..=9, seed in any::<u64>()) {
        let n = 1usize << log_n;
        let n1 = 1usize << split.min(log_n - 1);
        let table = NttTable::new_with_bits(n, 59).unwrap();
        let p = table.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| (i.rotate_left(7) ^ seed) % p).collect();
        let mut two = a.clone();
        radix::two_kernel_ntt(&mut two, &table, n1);
        let mut reference = a;
        ct::ntt(&mut reference, &table);
        prop_assert_eq!(two, reference);
    }

    #[test]
    fn pointwise_product_is_negacyclic_convolution(
        log_n in 2u32..=6,
        seed in any::<u64>()
    ) {
        let n = 1usize << log_n;
        let table = NttTable::new_with_bits(n, 50).unwrap();
        let p = table.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 1) % p).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| i.wrapping_add(seed >> 3) % p).collect();
        let mut na = a.clone();
        let mut nb = b.clone();
        ct::ntt(&mut na, &table);
        ct::ntt(&mut nb, &table);
        let mut prod = ct::pointwise(&na, &nb, p);
        ct::intt(&mut prod, &table);
        prop_assert_eq!(prod, naive::negacyclic_convolution(&a, &b, p));
    }

    #[test]
    fn ot_matches_table_for_every_index(
        log_n in 3u32..=8,
        log_base in 1u32..=6,
        x in any::<u64>()
    ) {
        let n = 1usize << log_n;
        let table = NttTable::new_with_bits(n, 60).unwrap();
        let ot = OtTable::new(&table, 1 << log_base);
        let x = x % table.modulus();
        for i in 0..n {
            prop_assert_eq!(ot.apply(x, i), table.forward(i).mul(x));
        }
    }

    #[test]
    fn ntt_diagonalizes_monomial_multiplication(log_n in 2u32..=6, k in 0usize..16) {
        // Multiplying by X^k in the ring = pointwise by NTT(X^k).
        let n = 1usize << log_n;
        let k = k % n;
        let table = NttTable::new_with_bits(n, 59).unwrap();
        let p = table.modulus();
        let a: Vec<u64> = (1..=n as u64).collect();
        let mut xk = vec![0u64; n];
        xk[k] = 1;
        let expected = naive::negacyclic_convolution(&a, &xk, p);
        let (mut na, mut nxk) = (a, xk);
        ct::ntt(&mut na, &table);
        ct::ntt(&mut nxk, &table);
        let mut prod = ct::pointwise(&na, &nxk, p);
        ct::intt(&mut prod, &table);
        prop_assert_eq!(prod, expected);
    }
}

proptest! {
    // Bootstrapping-scale sizes: few cases, each one large.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The hierarchical 4-step plan ≡ the strict in-place CT oracle, and
    /// `inverse ∘ forward` = id, for every bootstrapping-scale size
    /// N ∈ {2^12..2^17} and random power-of-two column splits.
    #[test]
    fn hierarchical_four_step_equals_strict_oracle(
        log_n in 12u32..=17,
        split in 1u32..=16,
        seed in any::<u64>(),
    ) {
        let n = 1usize << log_n;
        let n1 = 1usize << split.min(log_n - 1);
        let table = NttTable::new_with_bits(n, 59).unwrap();
        let p = table.modulus();
        let a: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(seed | 1).wrapping_add(seed >> 9) % p)
            .collect();
        let plan = HierPlan::from_table(&table, &HierConfig::default().split(n1, n / n1));
        let mut hier = a.clone();
        plan.forward(&mut hier);
        let mut reference = a.clone();
        ct::ntt(&mut reference, &table);
        prop_assert_eq!(&hier, &reference);
        plan.inverse(&mut hier);
        prop_assert_eq!(hier, a);
    }
}

#[test]
fn all_modmul_variants_agree_on_fixed_grid() {
    // Barrett, Shoup, Montgomery and native agree on a deterministic grid
    // of operands for several NTT-prime moduli.
    for bits in [40u32, 50, 59, 60] {
        let p = ntt_warp::math::ntt_prime(bits, 1 << 8).unwrap();
        let barrett = ntt_warp::math::Barrett::new(p);
        let mont = ntt_warp::math::mont::Montgomery::new(p);
        for a in (0..p).step_by((p / 17) as usize + 1) {
            for b in (0..p).step_by((p / 13) as usize + 1) {
                let want = ntt_warp::math::mul_mod(a, b, p);
                assert_eq!(barrett.mul(a, b), want);
                let shoup = ntt_warp::math::ShoupMul::new(b, p);
                assert_eq!(shoup.mul(a), want);
                assert_eq!(
                    mont.from_mont(mont.mul(mont.to_mont(a), mont.to_mont(b))),
                    want
                );
            }
        }
    }
}
