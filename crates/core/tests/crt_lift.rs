//! The bulk centered CRT lift every decode path takes
//! (`RnsPoly::centered_coefficients`, and `coefficient_centered` through
//! it) against its BigUint oracle, `RnsBasis::reconstruct_centered` over
//! the level's primes: the same `Some`/`None` and the same value on
//! random residues, on random signed values of every width, near the
//! sign boundary `±⌊(Q-1)/2⌋` and near the `i128` boundary `±2^127`, at
//! every level of 3- and 8-prime rings.

use ntt_core::{RnsBasis, RnsPoly, RnsRing};
use ntt_math::BigUint;
use proptest::prelude::*;
use std::sync::OnceLock;

const N: usize = 16;

/// The rings under test, built once: the serving chain's 3 × 50-bit
/// primes, the key-switch chain's 8 × 50-bit primes, and 3 primes just
/// under the lazy-NTT bound of 2^62.
fn rings() -> &'static [RnsRing] {
    static RINGS: OnceLock<Vec<RnsRing>> = OnceLock::new();
    RINGS.get_or_init(|| {
        [(50, 3), (50, 8), (62, 3)]
            .into_iter()
            .map(|(bits, np)| {
                RnsRing::new(N, ntt_math::ntt_primes(bits, 2 * N as u64, np)).expect("valid ring")
            })
            .collect()
    })
}

/// Residues of `±mag` modulo each prime.
fn residues(mag: &BigUint, negative: bool, primes: &[u64]) -> Vec<u64> {
    primes
        .iter()
        .map(|&p| {
            let r = mag % p;
            if negative && r != 0 {
                p - r
            } else {
                r
            }
        })
        .collect()
}

/// `⌊(Q-1)/2⌋`, the largest value the centered lift reads as positive.
fn half_modulus(basis: &RnsBasis) -> BigUint {
    basis.modulus().sub(&BigUint::one()).div_rem_u64(2).0
}

/// Load one residue column per coefficient at `level`, lift in bulk and
/// one at a time, and compare both with the oracle.
fn assert_matches_oracle(ring: &RnsRing, level: usize, columns: &[Vec<u64>]) {
    assert!(columns.len() <= N);
    let primes = &ring.basis().primes()[..level];
    let oracle = RnsBasis::new(primes.to_vec()).expect("prefix of a valid basis");
    let mut poly = RnsPoly::zero_at_level(ring, level);
    for (idx, column) in columns.iter().enumerate() {
        for (i, &r) in column.iter().enumerate() {
            poly.row_mut(i)[idx] = r;
        }
    }
    let bulk: Vec<Option<i128>> = poly.centered_coefficients(ring).collect();
    assert_eq!(bulk.len(), N);
    for (idx, got) in bulk.iter().enumerate() {
        let zero = vec![0; level];
        let column = columns.get(idx).unwrap_or(&zero);
        let want = oracle.reconstruct_centered(column);
        assert_eq!(
            *got, want,
            "level {level} of {primes:?}, residues {column:?}"
        );
        assert_eq!(poly.coefficient_centered(ring, idx), want);
    }
}

#[test]
fn boundary_values_match_the_oracle_at_every_level() {
    let two_127 = BigUint::one().shl(127);
    for ring in rings() {
        for level in 1..=ring.np() {
            let primes = &ring.basis().primes()[..level];
            let basis = RnsBasis::new(primes.to_vec()).unwrap();
            let mags = [
                BigUint::zero(),
                BigUint::one(),
                half_modulus(&basis),
                two_127.sub(&BigUint::one()),
                two_127.clone(),
            ];
            let columns: Vec<Vec<u64>> = mags
                .iter()
                .flat_map(|m| [residues(m, false, primes), residues(m, true, primes)])
                .collect();
            assert_matches_oracle(ring, level, &columns);
        }
    }
}

/// splitmix64: the per-case word stream (the shim's strategies draw one
/// seed; the columns are derived from it).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bulk_lift_matches_the_oracle(ring_idx in 0usize..3, level_pick in any::<u64>(), seed in any::<u64>()) {
        let ring = &rings()[ring_idx];
        let level = 1 + (level_pick % ring.np() as u64) as usize;
        let primes = &ring.basis().primes()[..level];
        let basis = RnsBasis::new(primes.to_vec()).unwrap();
        let half = half_modulus(&basis);
        let two_127 = BigUint::one().shl(127);
        let mut s = seed;
        let columns: Vec<Vec<u64>> = (0..N)
            .map(|idx| {
                let negative = next(&mut s) & 1 == 1;
                let small = BigUint::from_u64(next(&mut s) % 8);
                match idx % 4 {
                    // Uniform residues: mostly out of range above 2 primes.
                    0 => primes.iter().map(|&p| next(&mut s) % p).collect(),
                    // A signed value of random width, 0 to 128 bits.
                    1 => {
                        let wide = u128::from(next(&mut s)) << 64 | u128::from(next(&mut s));
                        let v = wide >> (next(&mut s) % 129).min(127);
                        residues(&BigUint::from_u128(v), negative, primes)
                    }
                    // Within 8 of the sign boundary, on either side.
                    2 => {
                        let m = if next(&mut s) & 1 == 1 { half.add(&small) } else { half.sub(&small) };
                        residues(&m, negative, primes)
                    }
                    // Within 8 of 2^127, on either side.
                    _ => {
                        let m = if next(&mut s) & 1 == 1 { two_127.add(&small) } else { two_127.sub(&small) };
                        residues(&m, negative, primes)
                    }
                }
            })
            .collect();
        assert_matches_oracle(ring, level, &columns);
    }
}
