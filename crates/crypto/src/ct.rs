//! Constant-time helpers.
//!
//! Comparisons on secret-derived data (MAC tags, searchable-encryption
//! check words) must not leak the position of the first mismatching
//! byte through timing. These helpers accumulate differences with
//! bitwise OR instead of short-circuiting.

/// Compares two byte slices in time dependent only on their lengths.
///
/// Returns `false` immediately when lengths differ (lengths are public
/// in every protocol in this workspace).
#[must_use]
#[inline]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff: u16 = 0;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= u16::from(x ^ y);
    }
    // Map `diff == 0` to true without a data-dependent branch on the
    // accumulated value: only diff == 0 underflows into the high byte.
    (diff.wrapping_sub(1) >> 8) & 1 == 1
}

/// Constant-time conditional select: returns `a` when `choice` is true,
/// `b` otherwise, without branching on `choice`.
#[must_use]
pub fn ct_select(choice: bool, a: u8, b: u8) -> u8 {
    let mask = (choice as u8).wrapping_neg(); // 0xFF or 0x00
    (a & mask) | (b & !mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_slices_compare_equal() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"a", b"a"));
        assert!(ct_eq(b"hello world", b"hello world"));
        assert!(ct_eq(&[0u8; 64], &[0u8; 64]));
    }

    #[test]
    fn all_single_byte_pairs() {
        // Exhaustive over one-byte slices: catches the classic
        // `wrapping_sub(1) >> 7` bug where diff == 0xFF compares equal.
        for x in 0..=255u8 {
            for y in 0..=255u8 {
                assert_eq!(ct_eq(&[x], &[y]), x == y, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn unequal_slices_compare_unequal() {
        assert!(!ct_eq(b"a", b"b"));
        assert!(!ct_eq(&[0x00], &[0xFF]));
        assert!(!ct_eq(&[0xFF, 0x00], &[0x00, 0xFF]));
        assert!(!ct_eq(b"aaaa", b"aaab"));
        assert!(!ct_eq(b"baaa", b"aaaa"));
        // Single-bit difference anywhere must be caught.
        let a = [0u8; 32];
        for i in 0..32 {
            for bit in 0..8 {
                let mut b = a;
                b[i] ^= 1 << bit;
                assert!(!ct_eq(&a, &b), "missed flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn length_mismatch_is_unequal() {
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(!ct_eq(b"abcd", b"abc"));
        assert!(!ct_eq(b"", b"x"));
    }

    #[test]
    fn select_picks_correct_branch() {
        assert_eq!(ct_select(true, 0xAA, 0x55), 0xAA);
        assert_eq!(ct_select(false, 0xAA, 0x55), 0x55);
        for a in [0u8, 1, 0x7F, 0x80, 0xFF] {
            for b in [0u8, 1, 0x7F, 0x80, 0xFF] {
                assert_eq!(ct_select(true, a, b), a);
                assert_eq!(ct_select(false, a, b), b);
            }
        }
    }
}
