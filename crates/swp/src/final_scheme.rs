//! SWP Scheme IV — the final scheme.
//!
//! The construction the paper's §3 database PH builds on. Split the
//! pre-encrypted word `X = E''(W)` into `L` (first `stream_len` bytes)
//! and `R` (last `check_len` bytes) and derive the check key from the
//! left half only: `k = f_{k'}(L)`. Then
//!
//! ```text
//! C = ⟨ L ⊕ S_ℓ , R ⊕ F_k(S_ℓ) ⟩
//! ```
//!
//! *Decryption works without knowing the word*: recompute `S_ℓ`,
//! recover `L = C_left ⊕ S_ℓ`, derive `k = f_{k'}(L)`, recover
//! `R = C_right ⊕ F_k(S_ℓ)`, and invert `E''`. Searching reveals only
//! `(X, k)`: the server learns which locations hold the queried word
//! (the unavoidable access-pattern leak) but neither the word nor
//! anything about non-matching words.

use dbph_crypto::cipher::{DeterministicCipher, WideBlockPrp};
use dbph_crypto::prf::{HmacPrf, Prf};
use dbph_crypto::SecretKey;

use crate::engine::Engine;
use crate::error::SwpError;
use crate::params::SwpParams;
use crate::traits::{CipherWord, Location, SearchableScheme, TrapdoorData};
use crate::word::Word;

/// Scheme IV: pre-encryption plus left-half-derived check keys. This
/// is the scheme the database PH instantiates.
#[derive(Clone)]
pub struct FinalScheme {
    engine: Engine,
    pre: WideBlockPrp,
    key_prf: HmacPrf,
}

/// Trapdoor of the final scheme: `X = E''(W)` and `k = f_{k'}(L)`.
#[derive(Clone)]
pub struct FinalTrapdoor {
    x: Vec<u8>,
    left_key: Vec<u8>,
}

impl TrapdoorData for FinalTrapdoor {
    fn target(&self) -> &[u8] {
        &self.x
    }
    fn check_key(&self) -> &[u8] {
        &self.left_key
    }
}

impl FinalScheme {
    /// Instantiates the scheme from a master key.
    #[must_use]
    pub fn new(params: SwpParams, master: &SecretKey) -> Self {
        FinalScheme {
            engine: Engine::new(params, master),
            pre: WideBlockPrp::new(master, b"dbph/swp/pre/v1"),
            key_prf: HmacPrf::new(master.derive(b"dbph/swp/final/kprime/v1").as_bytes()),
        }
    }

    /// Key for the left half `L`, `k = f_{k'}(L)`.
    fn left_key(&self, left: &[u8]) -> Vec<u8> {
        self.key_prf.eval(left, 32)
    }

    fn check_word(&self, word: &Word) -> Result<(), SwpError> {
        if word.len() != self.engine.params().word_len {
            return Err(SwpError::WrongWordLength {
                expected: self.engine.params().word_len,
                actual: word.len(),
            });
        }
        Ok(())
    }
}

impl SearchableScheme for FinalScheme {
    type Trapdoor = FinalTrapdoor;

    fn params(&self) -> &SwpParams {
        self.engine.params()
    }

    fn encrypt_word(&self, location: Location, word: &Word) -> Result<CipherWord, SwpError> {
        self.check_word(word)?;
        let x = self.pre.encrypt_det(word.as_bytes());
        let key = self.left_key(&x[..self.params().stream_len()]);
        Ok(self.engine.encrypt(location, &x, &key))
    }

    fn decrypt_word(&self, location: Location, cipher: &CipherWord) -> Result<Word, SwpError> {
        if cipher.0.len() != self.params().word_len {
            return Err(SwpError::WrongWordLength {
                expected: self.params().word_len,
                actual: cipher.0.len(),
            });
        }
        // L = C_left ⊕ S_ℓ; k = f_k'(L); R = C_right ⊕ F_k(S_ℓ).
        let x = self
            .engine
            .decrypt(location, cipher, |left| self.left_key(left));
        let w = self.pre.decrypt_det(&x)?;
        Ok(Word::from_bytes_unchecked(w))
    }

    fn trapdoor(&self, word: &Word) -> Result<FinalTrapdoor, SwpError> {
        self.check_word(word)?;
        let x = self.pre.encrypt_det(word.as_bytes());
        let left_key = self.left_key(&x[..self.params().stream_len()]);
        Ok(FinalTrapdoor { x, left_key })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::matches;

    fn scheme() -> FinalScheme {
        FinalScheme::new(
            SwpParams::new(11, 4, 32).unwrap(),
            &SecretKey::from_bytes([6u8; 32]),
        )
    }

    fn word(s: &[u8]) -> Word {
        Word::from_bytes_unchecked(s.to_vec())
    }

    #[test]
    fn roundtrip() {
        let s = scheme();
        for (i, w) in [b"MontgomeryN".as_slice(), b"HR########D", b"7500######S"]
            .iter()
            .enumerate()
        {
            let loc = Location::new(7, i as u32);
            let c = s.encrypt_word(loc, &word(w)).unwrap();
            assert_eq!(s.decrypt_word(loc, &c).unwrap().as_bytes(), *w);
        }
    }

    #[test]
    fn search_finds_occurrences_only() {
        let s = scheme();
        let target = word(b"MontgomeryN");
        let td = s.trapdoor(&target).unwrap();
        let c_match = s.encrypt_word(Location::new(0, 0), &target).unwrap();
        assert!(matches(s.params(), &td, &c_match));
        for i in 0..128u32 {
            let w = word(format!("other-{i:04}!").as_bytes());
            let c = s.encrypt_word(Location::new(1, i), &w).unwrap();
            assert!(!matches(s.params(), &td, &c), "false positive at {i}");
        }
    }

    #[test]
    fn trapdoor_hides_plaintext_and_is_deterministic() {
        let s = scheme();
        let w = word(b"MontgomeryN");
        let t1 = s.trapdoor(&w).unwrap();
        let t2 = s.trapdoor(&w).unwrap();
        assert_ne!(t1.target(), w.as_bytes());
        assert_eq!(t1.target(), t2.target());
    }

    #[test]
    fn no_equality_leakage_at_rest() {
        // Two occurrences of the same word at different locations have
        // unrelated ciphertexts — the q = 0 confidentiality claim.
        let s = scheme();
        let w = word(b"MontgomeryN");
        let c1 = s.encrypt_word(Location::new(0, 0), &w).unwrap();
        let c2 = s.encrypt_word(Location::new(0, 1), &w).unwrap();
        let c3 = s.encrypt_word(Location::new(9, 0), &w).unwrap();
        assert_ne!(c1, c2);
        assert_ne!(c1, c3);
        assert_ne!(c2, c3);
    }

    #[test]
    fn decrypt_at_wrong_location_garbles() {
        let s = scheme();
        let w = word(b"MontgomeryN");
        let c = s.encrypt_word(Location::new(3, 0), &w).unwrap();
        assert_ne!(s.decrypt_word(Location::new(3, 1), &c).unwrap(), w);
    }

    #[test]
    fn different_masters_cannot_cross_decrypt() {
        let p = SwpParams::new(11, 4, 32).unwrap();
        let s1 = FinalScheme::new(p, &SecretKey::from_bytes([1u8; 32]));
        let s2 = FinalScheme::new(p, &SecretKey::from_bytes([2u8; 32]));
        let w = word(b"MontgomeryN");
        let c = s1.encrypt_word(Location::new(0, 0), &w).unwrap();
        assert_ne!(s2.decrypt_word(Location::new(0, 0), &c).unwrap(), w);
    }

    #[test]
    fn wrong_lengths_rejected() {
        let s = scheme();
        assert!(s.encrypt_word(Location::new(0, 0), &word(b"xx")).is_err());
        assert!(s.trapdoor(&word(b"xx")).is_err());
        assert!(s
            .decrypt_word(Location::new(0, 0), &CipherWord(vec![1; 2]))
            .is_err());
    }

    #[test]
    fn cross_scheme_trapdoor_consistency_with_hidden() {
        // Hidden and Final share the pre-encryption label, so their
        // trapdoor targets coincide — deliberate, so ablation benches
        // compare like with like.
        let master = SecretKey::from_bytes([8u8; 32]);
        let p = SwpParams::new(11, 4, 32).unwrap();
        let hidden = crate::hidden::HiddenScheme::new(p, &master);
        let final_s = FinalScheme::new(p, &master);
        let w = word(b"MontgomeryN");
        use crate::traits::TrapdoorData as _;
        assert_eq!(
            hidden.trapdoor(&w).unwrap().target(),
            final_s.trapdoor(&w).unwrap().target()
        );
    }
}
