//! SWP scheme parameters.

use serde::{Deserialize, Serialize};

use crate::error::SwpError;

/// Parameters shared by all four SWP schemes.
///
/// A word is `word_len` bytes; its ciphertext splits into a
/// `word_len − check_len` byte *stream part* (masked by the
/// per-location PRG value `S_ℓ`) and a `check_len` byte *check part*
/// (masked by `F_k(S_ℓ)`). The server-side match compares only the low
/// `check_bits` bits of the check part, so the false-positive rate of
/// a single comparison is exactly `2^-check_bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SwpParams {
    /// Total word length in bytes (the paper's globally fixed length:
    /// widest attribute value plus the attribute identifier).
    pub word_len: usize,
    /// Check block length in bytes (`m` in SWP, rounded to bytes).
    pub check_len: usize,
    /// Number of check bits actually compared (`≤ 8 · check_len`).
    pub check_bits: u32,
}

impl SwpParams {
    /// Creates and validates parameters.
    ///
    /// # Errors
    /// Requires `1 ≤ check_len < word_len` (the stream part must be
    /// non-empty) and `1 ≤ check_bits ≤ 8·check_len`.
    pub fn new(word_len: usize, check_len: usize, check_bits: u32) -> Result<Self, SwpError> {
        if check_len == 0 {
            return Err(SwpError::BadParams("check_len must be ≥ 1"));
        }
        if word_len <= check_len {
            return Err(SwpError::BadParams("word_len must exceed check_len"));
        }
        // Saturating multiply: `check_len` may come from hostile wire
        // input, and `8 * usize::MAX` must reject, not overflow.
        if check_bits == 0 || check_bits as usize > check_len.saturating_mul(8) {
            return Err(SwpError::BadParams("check_bits must be in 1..=8*check_len"));
        }
        Ok(SwpParams {
            word_len,
            check_len,
            check_bits,
        })
    }

    /// Default parameters for a given word length: a 4-byte check
    /// block compared in full (false-positive rate `2^-32`, i.e.
    /// negligible for any realistic table).
    ///
    /// # Errors
    /// Fails when `word_len ≤ 4`.
    pub fn for_word_len(word_len: usize) -> Result<Self, SwpError> {
        Self::new(word_len, 4, 32)
    }

    /// Length of the stream part `S_ℓ` in bytes.
    #[must_use]
    pub fn stream_len(&self) -> usize {
        self.word_len - self.check_len
    }

    /// The predicted single-comparison false-positive probability,
    /// `2^-check_bits`.
    #[must_use]
    pub fn expected_false_positive_rate(&self) -> f64 {
        (-(f64::from(self.check_bits)) * std::f64::consts::LN_2).exp()
    }
}

/// Compares the low `check_bits` bits of `a` and `b` (both
/// `check_len` bytes). Bits beyond `check_bits` are ignored — this is
/// what makes the false-positive rate exactly `2^-check_bits`.
#[must_use]
#[inline]
pub fn check_eq(params: &SwpParams, a: &[u8], b: &[u8]) -> bool {
    debug_assert_eq!(a.len(), params.check_len);
    debug_assert_eq!(b.len(), params.check_len);
    let full_bytes = (params.check_bits / 8) as usize;
    let rem_bits = params.check_bits % 8;
    if !dbph_crypto::ct::ct_eq(&a[..full_bytes], &b[..full_bytes]) {
        return false;
    }
    if rem_bits > 0 {
        let mask = (1u8 << rem_bits) - 1;
        if (a[full_bytes] ^ b[full_bytes]) & mask != 0 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(SwpParams::new(11, 4, 32).is_ok());
        assert!(SwpParams::new(11, 0, 1).is_err());
        assert!(SwpParams::new(4, 4, 8).is_err());
        assert!(SwpParams::new(11, 4, 0).is_err());
        assert!(SwpParams::new(11, 4, 33).is_err());
        assert!(SwpParams::new(11, 4, 32).is_ok());
        assert!(SwpParams::new(2, 1, 8).is_ok());
    }

    #[test]
    fn derived_quantities() {
        let p = SwpParams::new(11, 4, 20).unwrap();
        assert_eq!(p.stream_len(), 7);
        let fp = p.expected_false_positive_rate();
        assert!((fp - 2f64.powi(-20)).abs() < 1e-12);
    }

    #[test]
    fn for_word_len_defaults() {
        let p = SwpParams::for_word_len(11).unwrap();
        assert_eq!(p.check_len, 4);
        assert_eq!(p.check_bits, 32);
        assert!(SwpParams::for_word_len(4).is_err());
        assert!(SwpParams::for_word_len(5).is_ok());
    }

    #[test]
    fn check_eq_full_width() {
        let p = SwpParams::new(11, 4, 32).unwrap();
        assert!(check_eq(&p, &[1, 2, 3, 4], &[1, 2, 3, 4]));
        assert!(!check_eq(&p, &[1, 2, 3, 4], &[1, 2, 3, 5]));
        assert!(!check_eq(&p, &[1, 2, 3, 4], &[0, 2, 3, 4]));
    }

    #[test]
    fn check_eq_partial_bits_ignores_high_bits() {
        // 12 bits: full first byte + low 4 bits of second byte.
        let p = SwpParams::new(11, 4, 12).unwrap();
        assert!(check_eq(
            &p,
            &[0xAB, 0x0C, 0x00, 0x00],
            &[0xAB, 0xFC, 0xFF, 0xFF]
        ));
        assert!(!check_eq(&p, &[0xAB, 0x0C, 0, 0], &[0xAB, 0x0D, 0, 0]));
        assert!(!check_eq(&p, &[0xAA, 0x0C, 0, 0], &[0xAB, 0x0C, 0, 0]));
    }

    #[test]
    fn check_eq_single_bit() {
        let p = SwpParams::new(11, 4, 1).unwrap();
        assert!(check_eq(&p, &[0b1110, 9, 9, 9], &[0b0000, 5, 5, 5]));
        assert!(!check_eq(&p, &[0b1110, 9, 9, 9], &[0b0001, 9, 9, 9]));
    }

    #[test]
    fn fp_rate_extremes() {
        let p = SwpParams::new(11, 4, 1).unwrap();
        assert!((p.expected_false_positive_rate() - 0.5).abs() < 1e-12);
        let p = SwpParams::new(11, 1, 8).unwrap();
        assert!((p.expected_false_positive_rate() - 1.0 / 256.0).abs() < 1e-12);
    }
}
