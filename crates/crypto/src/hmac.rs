//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! HMAC is the workhorse PRF of this workspace: it keys the
//! Song–Wagner–Perrig check function `F`, derives per-word keys
//! `k_i = f_{k'}(L_i)`, drives the [`crate::feistel`] permutation used
//! for bucket tags, and authenticates sealed ciphertexts.

use crate::sha256::{compress_blocks, write_be, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Output length of HMAC-SHA-256 in bytes.
pub const MAC_LEN: usize = DIGEST_LEN;

/// Longest message whose inner hash is one block after the key block:
/// the message, 0x80 and the 8-byte length fill at most 64 bytes.
pub(crate) const SINGLE_BLOCK_MAX: usize = BLOCK_LEN - 9;

/// Pads `block[..len]` as the final block of a hash that absorbed one
/// key block (`ipad` or `opad`) before it: 0x80, zeros, and the bit
/// length of the key block plus the message.
pub(crate) fn pad_keyed_block(block: &mut [u8; BLOCK_LEN], len: usize) {
    debug_assert!(len <= SINGLE_BLOCK_MAX, "{len} bytes do not fit one block");
    block[len] = 0x80;
    block[len + 1..BLOCK_LEN - 8].fill(0);
    let bits = ((BLOCK_LEN + len) as u64) * 8;
    block[BLOCK_LEN - 8..].copy_from_slice(&bits.to_be_bytes());
}

/// Incremental HMAC-SHA-256.
///
/// Keys longer than the SHA-256 block size are hashed first, exactly as
/// RFC 2104 prescribes; shorter keys are zero-padded.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Outer-pad keyed hasher, kept pristine until `finalize`.
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a MAC instance keyed with `key` (any length).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = Sha256::digest(key);
            key_block[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC and returns the 32-byte tag.
    #[must_use]
    pub fn finalize(self) -> [u8; MAC_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// Completes the MAC into `out` without consuming the keyed state,
    /// so a caller holding a prepared key schedule can finish many
    /// messages from it. Stack-only: the internal state copies are
    /// fixed-size arrays, never heap allocations.
    pub fn finalize_into(&self, out: &mut [u8; MAC_LEN]) {
        let inner_digest = self.inner.clone().finalize();
        let mut outer = self.outer.clone();
        outer.update(&inner_digest);
        *out = outer.finalize();
    }

    /// The bare `(inner, outer)` compression states after the
    /// `ipad`/`opad` blocks — for the one-block paths
    /// ([`Self::single_block_tag`] and the scan lanes of
    /// [`crate::prf::HmacPrf::eval_lanes_into`]), which pad their own
    /// blocks. Only valid on a pristine keyed state (no message
    /// absorbed yet).
    pub(crate) fn key_states(&self) -> ([u32; 8], [u32; 8]) {
        (self.inner.block_state(), self.outer.block_state())
    }

    /// The tag of the message `block[..len]` from this pristine keyed
    /// state, when the message and its padding fit one block
    /// (`len <= SINGLE_BLOCK_MAX`): one compression from the prepared
    /// inner state and one from the prepared outer state, instead of
    /// two buffered hashers. Pads `block` in place.
    pub(crate) fn single_block_tag(
        &self,
        block: &mut [u8; BLOCK_LEN],
        len: usize,
    ) -> [u8; MAC_LEN] {
        let (mut inner, mut outer) = self.key_states();
        pad_keyed_block(block, len);
        compress_blocks(&mut inner, std::slice::from_ref(block));
        let mut outer_block = [0u8; BLOCK_LEN];
        write_be(&mut outer_block, &inner);
        pad_keyed_block(&mut outer_block, DIGEST_LEN);
        compress_blocks(&mut outer, std::slice::from_ref(&outer_block));
        let mut tag = [0u8; MAC_LEN];
        write_be(&mut tag, &outer);
        tag
    }

    /// One-shot MAC computation.
    #[must_use]
    pub fn mac(key: &[u8], message: &[u8]) -> [u8; MAC_LEN] {
        let mut h = HmacSha256::new(key);
        h.update(message);
        h.finalize()
    }

    /// Verifies `tag` against `message` in constant time.
    #[must_use]
    pub fn verify(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
        crate::ct::ct_eq(&Self::mac(key, message), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test cases 1-4, 6, 7 (case 5 truncates, covered separately).
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&HmacSha256::mac(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_eq!(
            hex(&HmacSha256::mac(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&HmacSha256::mac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1..=25u8).collect();
        let data = [0xcdu8; 50];
        assert_eq!(
            hex(&HmacSha256::mac(&key, &data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&HmacSha256::mac(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_long_data() {
        let key = [0xaau8; 131];
        let data = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        assert_eq!(
            hex(&HmacSha256::mac(&key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn key_exactly_block_size() {
        // Exercises the key.len() == BLOCK_LEN path (no hashing, no padding).
        let key = [0x42u8; 64];
        let t1 = HmacSha256::mac(&key, b"msg");
        let t2 = HmacSha256::mac(&key, b"msg");
        assert_eq!(t1, t2);
        let mut key2 = key;
        key2[63] ^= 1;
        assert_ne!(t1, HmacSha256::mac(&key2, b"msg"));
    }

    #[test]
    fn finalize_into_matches_finalize_and_preserves_state() {
        let key = b"reusable schedule";
        let mut h = HmacSha256::new(key);
        h.update(b"message");
        let mut tag = [0u8; MAC_LEN];
        h.finalize_into(&mut tag);
        assert_eq!(tag, HmacSha256::mac(key, b"message"));
        // The state is untouched: absorbing more still works.
        h.update(b" and more");
        let mut tag2 = [0u8; MAC_LEN];
        h.finalize_into(&mut tag2);
        assert_eq!(tag2, HmacSha256::mac(key, b"message and more"));
        assert_eq!(h.finalize(), tag2);
    }

    #[test]
    fn single_block_tag_matches_buffered_mac_at_every_length() {
        for key in [&b"k"[..], &[0x42; 64], &[0xaa; 131]] {
            let mac = HmacSha256::new(key);
            for len in 0..=SINGLE_BLOCK_MAX {
                let msg: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(13) ^ 0x5c).collect();
                let mut block = [0xEE; BLOCK_LEN];
                block[..len].copy_from_slice(&msg);
                assert_eq!(
                    mac.single_block_tag(&mut block, len),
                    HmacSha256::mac(key, &msg),
                    "len {len}"
                );
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = b"incremental key";
        let msg = b"part one / part two / part three";
        let mut h = HmacSha256::new(key);
        h.update(b"part one / ");
        h.update(b"part two / ");
        h.update(b"part three");
        assert_eq!(h.finalize(), HmacSha256::mac(key, msg));
    }

    #[test]
    fn verify_accepts_good_rejects_bad() {
        let tag = HmacSha256::mac(b"k", b"m");
        assert!(HmacSha256::verify(b"k", b"m", &tag));
        let mut bad = tag;
        bad[0] ^= 0x80;
        assert!(!HmacSha256::verify(b"k", b"m", &bad));
        assert!(!HmacSha256::verify(b"k", b"m2", &tag));
        assert!(!HmacSha256::verify(b"k2", b"m", &tag));
        assert!(!HmacSha256::verify(b"k", b"m", &tag[..31])); // truncated
    }

    #[test]
    fn distinct_keys_distinct_tags() {
        let tags: Vec<_> = (0..32u8)
            .map(|i| HmacSha256::mac(&[i], b"fixed message"))
            .collect();
        for i in 0..tags.len() {
            for j in i + 1..tags.len() {
                assert_ne!(tags[i], tags[j]);
            }
        }
    }
}
