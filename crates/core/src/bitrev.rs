//! Bit-reversal permutation.
//!
//! The Cooley–Tukey algorithm produces output in bit-reversed order; HE
//! pipelines avoid ever materializing the permutation (element-wise products
//! commute with it), but the reference code and its cross-checks need it
//! explicitly.

/// Reverse the lowest `bits` bits of `i`.
///
/// # Example
///
/// ```
/// assert_eq!(ntt_core::bitrev::bit_reverse(0b001, 3), 0b100);
/// assert_eq!(ntt_core::bitrev::bit_reverse(0b110, 3), 0b011);
/// ```
#[inline]
pub fn bit_reverse(i: usize, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        i.reverse_bits() >> (usize::BITS - bits)
    }
}

/// Apply the bit-reversal permutation to `data` in place.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn bit_reverse_permute<T>(data: &mut [T]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "length must be a power of two");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if i < j {
            data.swap(i, j);
        }
    }
}

/// Return a new vector with elements in bit-reversed positions.
pub fn bit_reversed<T: Clone>(data: &[T]) -> Vec<T> {
    let mut out = data.to_vec();
    bit_reverse_permute(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_is_involution() {
        for bits in 1..16 {
            for i in 0..(1usize << bits).min(256) {
                assert_eq!(bit_reverse(bit_reverse(i, bits), bits), i);
            }
        }
    }

    #[test]
    fn reverse_zero_bits() {
        assert_eq!(bit_reverse(0, 0), 0);
    }

    #[test]
    fn permute_known_order() {
        let mut v: Vec<usize> = (0..8).collect();
        bit_reverse_permute(&mut v);
        assert_eq!(v, vec![0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    fn permute_twice_is_identity() {
        let orig: Vec<u32> = (0..64).map(|x| x * 3 + 1).collect();
        let mut v = orig.clone();
        bit_reverse_permute(&mut v);
        bit_reverse_permute(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let mut v = vec![1, 2, 3];
        bit_reverse_permute(&mut v);
    }
}
