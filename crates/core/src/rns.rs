//! Residue number system (RNS) over an NTT-friendly prime basis.
//!
//! HE schemes avoid big-integer coefficient arithmetic by CRT-decomposing
//! `Z_Q` (with `Q = Π p_i`) into `np` word-sized rings `Z_{p_i}` (§III-B).
//! This module provides the basis bookkeeping, forward decomposition, and
//! CRT reconstruction `x = Σ_i (x_i · ŷ_i mod p_i) · M_i mod M` used to
//! read results back out.
//!
//! Two readers share one contract. [`RnsBasis::reconstruct_centered`] is
//! the BigUint reference. `CrtLift`, cached on every
//! [`RnsRing`](crate::RnsRing) and read through
//! [`RnsPoly::centered_coefficients`](crate::RnsPoly::centered_coefficients),
//! is the word-sized path every decode takes: Garner's mixed-radix
//! conversion with constants computed once per ring, then a sign test and
//! a checked `u128` evaluation. It returns the same `Some`/`None` on every
//! input.

use ntt_math::modops::sub_mod;
use ntt_math::{inv_mod, mul_mod, BigUint, ShoupMul};

/// An RNS basis: distinct primes and the precomputed CRT constants.
///
/// # Example
///
/// ```
/// use ntt_core::RnsBasis;
/// let basis = RnsBasis::new(ntt_math::ntt_primes(60, 1 << 15, 3))?;
/// let x = 123_456_789_u64;
/// let residues = basis.decompose_u64(x);
/// assert_eq!(basis.reconstruct(&residues).to_u64(), Some(x));
/// # Ok::<(), ntt_core::rns::RnsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RnsBasis {
    primes: Vec<u64>,
    /// `M = Π p_i` — the composite modulus `Q`.
    modulus: BigUint,
    /// `M_i = M / p_i`.
    m_i: Vec<BigUint>,
    /// `ŷ_i = (M_i)^{-1} mod p_i`.
    y_i: Vec<u64>,
}

impl RnsBasis {
    /// Build a basis from distinct primes.
    ///
    /// # Errors
    ///
    /// * [`RnsError::Empty`] for an empty prime list.
    /// * [`RnsError::NotPrime`] if any modulus fails the primality test.
    /// * [`RnsError::Duplicate`] if two primes coincide (CRT needs
    ///   pairwise-coprime moduli).
    pub fn new(primes: Vec<u64>) -> Result<Self, RnsError> {
        if primes.is_empty() {
            return Err(RnsError::Empty);
        }
        let mut seen = std::collections::HashSet::new();
        for &p in &primes {
            if !ntt_math::is_prime(p) {
                return Err(RnsError::NotPrime { p });
            }
            if !seen.insert(p) {
                return Err(RnsError::Duplicate { p });
            }
        }
        let modulus = BigUint::product(&primes);
        let mut m_i = Vec::with_capacity(primes.len());
        let mut y_i = Vec::with_capacity(primes.len());
        for &p in &primes {
            let (mi, rem) = modulus.div_rem_u64(p);
            debug_assert_eq!(rem, 0);
            let mi_mod_p = &mi % p;
            let y = inv_mod(mi_mod_p, p).expect("M_i coprime to p_i");
            m_i.push(mi);
            y_i.push(y);
        }
        Ok(Self {
            primes,
            modulus,
            m_i,
            y_i,
        })
    }

    /// The primes `p_1, …, p_np`.
    #[inline]
    pub fn primes(&self) -> &[u64] {
        &self.primes
    }

    /// Number of primes `np` (the paper's batch dimension).
    #[inline]
    pub fn len(&self) -> usize {
        self.primes.len()
    }

    /// `true` iff the basis is empty (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.primes.is_empty()
    }

    /// The composite modulus `Q = Π p_i`.
    #[inline]
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// `log2 Q`, the paper's headline parameter.
    pub fn log_q(&self) -> f64 {
        self.modulus.log2()
    }

    /// Decompose an unsigned word: `x mod p_i` for each `i`.
    pub fn decompose_u64(&self, x: u64) -> Vec<u64> {
        self.primes.iter().map(|&p| x % p).collect()
    }

    /// Decompose a signed value (centered representative).
    pub fn decompose_i64(&self, x: i64) -> Vec<u64> {
        self.primes
            .iter()
            .map(|&p| {
                if x >= 0 {
                    (x as u64) % p
                } else {
                    let m = ((-(x as i128)) as u64) % p;
                    if m == 0 {
                        0
                    } else {
                        p - m
                    }
                }
            })
            .collect()
    }

    /// Decompose a big integer already reduced mod `Q`.
    pub fn decompose(&self, x: &BigUint) -> Vec<u64> {
        self.primes.iter().map(|&p| x % p).collect()
    }

    /// CRT reconstruction into `[0, Q)`.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len() != self.len()`.
    pub fn reconstruct(&self, residues: &[u64]) -> BigUint {
        assert_eq!(residues.len(), self.len(), "residue count mismatch");
        let mut acc = BigUint::zero();
        for (i, &r) in residues.iter().enumerate() {
            let c = ntt_math::mul_mod(r % self.primes[i], self.y_i[i], self.primes[i]);
            acc = acc.add(&self.m_i[i].mul_u64(c));
        }
        acc.rem(&self.modulus)
    }

    /// CRT reconstruction followed by a centered lift to `i128`: the
    /// value in `(-Q/2, Q/2]` congruent to the residues.
    ///
    /// Returns `None` when that value lies outside `(-2^127, 2^127)`, so
    /// `-2^127` itself is `None` too.
    ///
    /// This is the test oracle for
    /// [`RnsPoly::centered_coefficients`](crate::RnsPoly::centered_coefficients),
    /// which every decode path uses instead. Each call allocates several
    /// BigUints and does a multi-word `rem` by `Q`: far too slow to run
    /// per coefficient.
    pub fn reconstruct_centered(&self, residues: &[u64]) -> Option<i128> {
        self.reconstruct(residues).to_i128_centered(&self.modulus)
    }
}

/// Word-sized constants for the centered CRT lift of every prefix
/// `p_0⋯p_{L-1}` of one prime chain, built once per ring.
///
/// A coefficient `x mod Q_L` is first put in mixed radix,
/// `x = v_0 + v_1·p_0 + v_2·p_0·p_1 + … + v_{L-1}·p_0⋯p_{L-2}` with
/// `0 ≤ v_j < p_j`, by Garner's rule in `O(L²)` Shoup products. Mixed-radix
/// digits compare like ordinary digits, so `x > ⌊(Q_L-1)/2⌋` (a negative
/// value) is a most-significant-first comparison against the digits of
/// the half modulus. Complementing digits, `p_j - 1 - v_j`, turns `x` into
/// `Q_L - 1 - x`. The magnitude is then evaluated by Horner's rule in
/// checked `u128`.
///
/// Garner's digits `v_0..v_{L-1}` depend only on `p_0..p_{L-1}`, so one
/// table serves every level; only the half-modulus digits are per level.
/// The tables hold `O(np²)` words and nothing is allocated per call.
#[derive(Debug, Clone)]
pub(crate) struct CrtLift {
    primes: Vec<u64>,
    /// `radix[j·np + i] = p_i mod p_j`: the multipliers of the Horner
    /// evaluation of `x mod p_j` (only `i < j` is read).
    radix: Vec<ShoupMul>,
    /// `(p_0⋯p_{j-1})^{-1} mod p_j` (1 for `j = 0`).
    garner: Vec<ShoupMul>,
    /// `half[(L-1)·np..][..L]`: the mixed-radix digits of `⌊(Q_L-1)/2⌋`.
    half: Vec<u64>,
}

impl CrtLift {
    /// Build the tables for a chain of distinct primes.
    ///
    /// # Panics
    ///
    /// Panics if a prime is not below `2^63` (the Shoup-product bound) or
    /// two primes are equal.
    pub(crate) fn new(primes: &[u64]) -> Self {
        let np = primes.len();
        let mut radix = Vec::with_capacity(np * np);
        let mut garner = Vec::with_capacity(np);
        let mut half = vec![0; np * np];
        for (j, &pj) in primes.iter().enumerate() {
            assert!(pj < 1 << 63, "CRT lift needs primes below 2^63");
            radix.extend(primes.iter().map(|&pi| ShoupMul::new(pi % pj, pj)));
            let prefix = primes[..j]
                .iter()
                .fold(1, |acc, &pi| mul_mod(acc, pi % pj, pj));
            let inv = inv_mod(prefix, pj).expect("distinct primes are coprime");
            garner.push(ShoupMul::new(inv, pj));

            // Q_L - 1 (L = j + 1) has digits p_i - 1; halve them most
            // significant first, carrying an odd remainder down as p_i
            // units of the next digit.
            let digits = &mut half[j * np..][..=j];
            let mut carry = 0u128;
            for (i, d) in digits.iter_mut().enumerate().rev() {
                let t = carry * u128::from(primes[i]) + u128::from(primes[i] - 1);
                *d = (t / 2) as u64;
                carry = t % 2;
            }
            debug_assert_eq!(carry, 0, "Q is odd, so Q - 1 halves exactly");
        }
        Self {
            primes: primes.to_vec(),
            radix,
            garner,
            half,
        }
    }

    /// The centered value of the residues in `digits` (one per prime of
    /// the level `digits.len()`), exactly as
    /// [`RnsBasis::reconstruct_centered`] over that prefix would return
    /// it. The residues are overwritten with the mixed-radix digits.
    ///
    /// # Panics
    ///
    /// Panics if `digits` is empty or longer than the chain.
    pub(crate) fn centered(&self, digits: &mut [u64]) -> Option<i128> {
        let (np, level) = (self.primes.len(), digits.len());
        assert!(level >= 1 && level <= np, "invalid level");
        for j in 0..level {
            // x mod p_j over the digits found so far, by Horner's rule.
            // Terms stay below p_i + p_j < 2^64 and Shoup products accept
            // any word, so no reduction is needed until the last step.
            let radix = &self.radix[j * np..][..j];
            let acc = (digits[..j].iter().zip(radix))
                .rev()
                .fold(0, |acc, (&d, r)| r.mul(acc) + d);
            let g = &self.garner[j];
            digits[j] = sub_mod(g.mul(digits[j]), g.mul(acc), self.primes[j]);
        }
        let half = &self.half[(level - 1) * np..][..level];
        let negative = digits.iter().rev().cmp(half.iter().rev()).is_gt();
        let primes = &self.primes[..level];
        if negative {
            // Q - x = (Q - 1 - x) + 1, and -(i128::MAX + 1) is refused
            // like the oracle refuses it.
            let m = mixed_radix_value(primes, |j| primes[j] - 1 - digits[j])?;
            Some(-i128::try_from(m).ok()?.checked_add(1)?)
        } else {
            i128::try_from(mixed_radix_value(primes, |j| digits[j])?).ok()
        }
    }
}

/// `Σ_j digit(j)·p_0⋯p_{j-1}` by Horner's rule, most significant digit
/// first; `None` if it exceeds `u128`.
#[inline]
fn mixed_radix_value(primes: &[u64], digit: impl Fn(usize) -> u64) -> Option<u128> {
    (0..primes.len()).rev().try_fold(0u128, |m, j| {
        m.checked_mul(u128::from(primes[j]))?
            .checked_add(u128::from(digit(j)))
    })
}

/// Errors from RNS basis construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RnsError {
    /// No primes supplied.
    Empty,
    /// A modulus is not prime.
    NotPrime {
        /// The offending modulus.
        p: u64,
    },
    /// A prime appears twice.
    Duplicate {
        /// The repeated prime.
        p: u64,
    },
}

impl std::fmt::Display for RnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RnsError::Empty => write!(f, "RNS basis needs at least one prime"),
            RnsError::NotPrime { p } => write!(f, "{p} is not prime"),
            RnsError::Duplicate { p } => write!(f, "prime {p} appears more than once"),
        }
    }
}

impl std::error::Error for RnsError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis(np: usize) -> RnsBasis {
        RnsBasis::new(ntt_math::ntt_primes(59, 1 << 12, np)).unwrap()
    }

    #[test]
    fn roundtrip_u64() {
        let b = basis(3);
        for x in [0u64, 1, 42, u64::MAX] {
            assert_eq!(b.reconstruct(&b.decompose_u64(x)).to_u64(), Some(x));
        }
    }

    #[test]
    fn roundtrip_signed() {
        let b = basis(4);
        for x in [0i64, 1, -1, 123456, -987654321, i64::MIN + 1] {
            assert_eq!(b.reconstruct_centered(&b.decompose_i64(x)), Some(x as i128));
        }
    }

    #[test]
    fn roundtrip_big() {
        let b = basis(5);
        // A value needing more than two words: Q - 12345.
        let big = b.modulus().sub(&BigUint::from_u64(12345));
        let rec = b.reconstruct(&b.decompose(&big));
        assert_eq!(rec, big);
        // And centered: Q - 12345 ≡ -12345.
        assert_eq!(rec.to_i128_centered(b.modulus()), Some(-12345i128));
    }

    #[test]
    fn additive_homomorphism() {
        let b = basis(3);
        let (x, y) = (998877665544u64, 112233445566u64);
        let rx = b.decompose_u64(x);
        let ry = b.decompose_u64(y);
        let sum: Vec<u64> = rx
            .iter()
            .zip(&ry)
            .zip(b.primes())
            .map(|((&a, &c), &p)| ntt_math::add_mod(a, c, p))
            .collect();
        assert_eq!(b.reconstruct(&sum).to_u64(), Some(x + y));
    }

    #[test]
    fn multiplicative_homomorphism() {
        let b = basis(3);
        let (x, y) = (0xDEAD_BEEFu64, 0xCAFE_BABEu64);
        let rx = b.decompose_u64(x);
        let ry = b.decompose_u64(y);
        let prod: Vec<u64> = rx
            .iter()
            .zip(&ry)
            .zip(b.primes())
            .map(|((&a, &c), &p)| ntt_math::mul_mod(a, c, p))
            .collect();
        assert_eq!(b.reconstruct(&prod).to_u128(), Some(x as u128 * y as u128));
    }

    #[test]
    fn log_q_scales_with_np() {
        let b1 = basis(2);
        let b2 = basis(4);
        assert!((b1.log_q() - 118.0).abs() < 1.5); // 2 x 59-bit
        assert!((b2.log_q() - 236.0).abs() < 2.0);
    }

    #[test]
    fn rejects_bad_bases() {
        assert_eq!(RnsBasis::new(vec![]).unwrap_err(), RnsError::Empty);
        assert_eq!(
            RnsBasis::new(vec![15]).unwrap_err(),
            RnsError::NotPrime { p: 15 }
        );
        let p = ntt_math::ntt_prime(59, 1 << 12).unwrap();
        assert_eq!(
            RnsBasis::new(vec![p, p]).unwrap_err(),
            RnsError::Duplicate { p }
        );
    }
}
