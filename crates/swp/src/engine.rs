//! Shared mechanics of all four SWP schemes.
//!
//! Every scheme encrypts a (possibly pre-encrypted) word `X` at
//! location `ℓ` as
//!
//! ```text
//! C = ⟨ X_left ⊕ S_ℓ , X_right ⊕ F_k(S_ℓ) ⟩
//! ```
//!
//! where `X_left` is the first `stream_len` bytes, `X_right` the last
//! `check_len` bytes, `S_ℓ` the per-location PRG value, and `k` the
//! scheme-specific check key. The schemes differ only in how `X` and
//! `k` are derived — that is exactly what this module leaves out.

use dbph_crypto::prf::{HmacPrf, Prf};
use dbph_crypto::prg::{ChaChaPrg, Prg};
use dbph_crypto::SecretKey;

use crate::params::SwpParams;
use crate::traits::{CipherWord, Location};

/// The location-keyed stream and check mechanics shared by schemes I–IV.
#[derive(Clone)]
pub(crate) struct Engine {
    params: SwpParams,
    prg: ChaChaPrg,
}

impl Engine {
    /// Builds an engine whose PRG seed is derived from `master` under
    /// a fixed label, so all schemes over the same master key agree on
    /// the `S_ℓ` stream.
    pub(crate) fn new(params: SwpParams, master: &SecretKey) -> Self {
        Engine {
            params,
            prg: ChaChaPrg::new(*master.derive(b"dbph/swp/prg/v1").as_bytes()),
        }
    }

    pub(crate) fn params(&self) -> &SwpParams {
        &self.params
    }

    /// The per-location PRG value `S_ℓ` (`stream_len` bytes).
    pub(crate) fn stream_value(&self, location: Location) -> Vec<u8> {
        let mut out = vec![0u8; self.params.stream_len()];
        self.stream_value_into(location, &mut out);
        out
    }

    /// Fills `out` (exactly `stream_len` bytes) with `S_ℓ` — the
    /// buffer-reuse variant [`Self::encrypt`] builds on.
    pub(crate) fn stream_value_into(&self, location: Location, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.params.stream_len());
        let offset = u64::from(location.word_index) * self.params.stream_len() as u64;
        self.prg.stream_at_into(location.doc_id, offset, out);
    }

    /// Fills `out` with the stream values of document `doc_id`'s first
    /// `out.len() / stream_len` words back to back: word `i`'s `S_ℓ`
    /// is `out[i * stream_len..][..stream_len]`, the bytes
    /// [`Self::stream_value_into`] gives it, from one keystream call
    /// (one ChaCha block covers a three-word `Emp` row).
    pub(crate) fn row_stream_into(&self, doc_id: u64, out: &mut [u8]) {
        debug_assert!(out.len().is_multiple_of(self.params.stream_len()));
        self.prg.stream_at_into(doc_id, 0, out);
    }

    /// Fills `out` (exactly `check_len` bytes) with the check block
    /// `F_k(S)`.
    pub(crate) fn check_block_into(key: &[u8], s: &[u8], out: &mut [u8]) {
        HmacPrf::new(key).eval_into(s, out);
    }

    /// Encrypts pre-processed word bytes `x` at `location` under check
    /// key `check_key`.
    ///
    /// The only allocation is the returned ciphertext itself: `S_ℓ` and
    /// `F_k(S_ℓ)` are generated straight into the output buffer (via
    /// the `_into` variants) and `x` is XORed over them in place.
    pub(crate) fn encrypt(&self, location: Location, x: &[u8], check_key: &[u8]) -> CipherWord {
        debug_assert_eq!(x.len(), self.params.word_len);
        let split = self.params.stream_len();
        let mut out = vec![0u8; self.params.word_len];
        let (left, right) = out.split_at_mut(split);
        self.stream_value_into(location, left);
        Self::check_block_into(check_key, left, right);
        for (o, b) in left.iter_mut().zip(&x[..split]) {
            *o ^= b;
        }
        for (o, b) in right.iter_mut().zip(&x[split..]) {
            *o ^= b;
        }
        CipherWord(out)
    }

    /// Recovers the pre-processed word `x` from a cipher word, for the
    /// schemes that can decrypt: `L = C_left ⊕ S_ℓ`, then
    /// `k = check_key(L)`, then `R = C_right ⊕ F_k(S_ℓ)`. `S_ℓ` is
    /// generated once for both halves.
    pub(crate) fn decrypt<K: AsRef<[u8]>>(
        &self,
        location: Location,
        cipher: &CipherWord,
        check_key: impl FnOnce(&[u8]) -> K,
    ) -> Vec<u8> {
        let split = self.params.stream_len();
        let s = self.stream_value(location);
        let mut x = vec![0u8; self.params.word_len];
        let (left, right) = x.split_at_mut(split);
        for ((l, s), c) in left.iter_mut().zip(&s).zip(&cipher.0[..split]) {
            *l = s ^ c;
        }
        Self::check_block_into(check_key(left).as_ref(), &s, right);
        for (r, c) in right.iter_mut().zip(&cipher.0[split..]) {
            *r ^= c;
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(
            SwpParams::new(11, 4, 32).unwrap(),
            &SecretKey::from_bytes([1u8; 32]),
        )
    }

    #[test]
    fn stream_values_are_location_unique() {
        let e = engine();
        let a = e.stream_value(Location::new(0, 0));
        let b = e.stream_value(Location::new(0, 1));
        let c = e.stream_value(Location::new(1, 0));
        assert_eq!(a.len(), 7);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Deterministic.
        assert_eq!(a, e.stream_value(Location::new(0, 0)));
    }

    #[test]
    fn encrypt_then_recover() {
        let e = engine();
        let loc = Location::new(42, 3);
        let x = b"hello world";
        let key = [9u8; 32];
        let c = e.encrypt(loc, x, &key);
        assert_eq!(c.0.len(), 11);
        assert_ne!(&c.0[..], &x[..]);
        let x_back = e.decrypt(loc, &c, |left| {
            assert_eq!(left, b"hello w");
            key
        });
        assert_eq!(x_back, x.to_vec());
    }

    #[test]
    fn same_word_different_locations_differ() {
        // No equality leakage at rest: the q = 0 security hinges on this.
        let e = engine();
        let x = b"hello world";
        let key = [9u8; 32];
        let c1 = e.encrypt(Location::new(0, 0), x, &key);
        let c2 = e.encrypt(Location::new(0, 1), x, &key);
        let c3 = e.encrypt(Location::new(7, 0), x, &key);
        assert_ne!(c1, c2);
        assert_ne!(c1, c3);
    }

    #[test]
    fn row_stream_is_the_words_stream_values_back_to_back() {
        let e = engine();
        let mut row = vec![0u8; 5 * 7];
        e.row_stream_into(u64::MAX, &mut row);
        for (i, s) in row.chunks_exact(7).enumerate() {
            assert_eq!(s, e.stream_value(Location::new(u64::MAX, i as u32)));
        }
    }

    #[test]
    fn master_key_separates_streams() {
        let p = SwpParams::new(11, 4, 32).unwrap();
        let e1 = Engine::new(p, &SecretKey::from_bytes([1u8; 32]));
        let e2 = Engine::new(p, &SecretKey::from_bytes([2u8; 32]));
        assert_ne!(
            e1.stream_value(Location::new(0, 0)),
            e2.stream_value(Location::new(0, 0))
        );
    }
}
