//! SWP Scheme I — the basic scheme.
//!
//! Words are encrypted directly (`X = W`) under a single global check
//! key. Searching for `W` hands the server the **plaintext word and
//! the global key** — the server learns what was searched and can
//! afterwards test *any* guessed word against the whole collection.
//! The later schemes exist to walk back exactly these leaks; this one
//! is kept as the ablation baseline (bench F4) and as the simplest
//! correct instance of the ciphertext shape.

use dbph_crypto::SecretKey;

use crate::engine::Engine;
use crate::error::SwpError;
use crate::params::SwpParams;
use crate::traits::{CipherWord, Location, SearchableScheme, TrapdoorData};
use crate::word::Word;

/// Scheme I: direct word encryption, one global check key.
#[derive(Clone)]
pub struct BasicScheme {
    engine: Engine,
    check_key: [u8; 32],
}

/// Trapdoor of Scheme I: the plaintext word plus the global check key.
#[derive(Clone)]
pub struct BasicTrapdoor {
    word: Vec<u8>,
    key: [u8; 32],
}

impl TrapdoorData for BasicTrapdoor {
    fn target(&self) -> &[u8] {
        &self.word
    }
    fn check_key(&self) -> &[u8] {
        &self.key
    }
}

impl BasicScheme {
    /// Instantiates the scheme from a master key.
    #[must_use]
    pub fn new(params: SwpParams, master: &SecretKey) -> Self {
        BasicScheme {
            engine: Engine::new(params, master),
            check_key: *master.derive(b"dbph/swp/basic/check/v1").as_bytes(),
        }
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

impl SearchableScheme for BasicScheme {
    type Trapdoor = BasicTrapdoor;

    fn params(&self) -> &SwpParams {
        self.engine.params()
    }

    fn encrypt_word(&self, location: Location, word: &Word) -> Result<CipherWord, SwpError> {
        self.check_word(word)?;
        Ok(self
            .engine
            .encrypt(location, word.as_bytes(), &self.check_key))
    }

    fn decrypt_word(&self, location: Location, cipher: &CipherWord) -> Result<Word, SwpError> {
        if cipher.0.len() != self.params().word_len {
            return Err(SwpError::WrongWordLength {
                expected: self.params().word_len,
                actual: cipher.0.len(),
            });
        }
        // The global key decrypts both halves directly.
        let bytes = self.engine.decrypt(location, cipher, |_| self.check_key);
        Ok(Word::from_bytes_unchecked(bytes))
    }

    fn trapdoor(&self, word: &Word) -> Result<BasicTrapdoor, SwpError> {
        self.check_word(word)?;
        Ok(BasicTrapdoor {
            word: word.as_bytes().to_vec(),
            key: self.check_key,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::matches;

    fn scheme() -> BasicScheme {
        BasicScheme::new(
            SwpParams::new(11, 4, 32).unwrap(),
            &SecretKey::from_bytes([3u8; 32]),
        )
    }

    fn word(s: &[u8]) -> Word {
        Word::from_bytes_unchecked(s.to_vec())
    }

    #[test]
    fn roundtrip() {
        let s = scheme();
        let w = word(b"MontgomeryN");
        let loc = Location::new(5, 2);
        let c = s.encrypt_word(loc, &w).unwrap();
        assert_eq!(s.decrypt_word(loc, &c).unwrap(), w);
    }

    #[test]
    fn search_finds_occurrences() {
        let s = scheme();
        let w = word(b"MontgomeryN");
        let other = word(b"HR########D");
        let c1 = s.encrypt_word(Location::new(0, 0), &w).unwrap();
        let c2 = s.encrypt_word(Location::new(0, 1), &other).unwrap();
        let td = s.trapdoor(&w).unwrap();
        assert!(matches(s.params(), &td, &c1));
        assert!(!matches(s.params(), &td, &c2));
    }

    #[test]
    fn trapdoor_reveals_plaintext() {
        // Scheme I's documented weakness, asserted so it stays documented.
        let s = scheme();
        let w = word(b"MontgomeryN");
        let td = s.trapdoor(&w).unwrap();
        assert_eq!(td.target(), w.as_bytes());
    }

    #[test]
    fn wrong_lengths_rejected() {
        let s = scheme();
        let short = word(b"short");
        assert!(s.encrypt_word(Location::new(0, 0), &short).is_err());
        assert!(s.trapdoor(&short).is_err());
        assert!(s
            .decrypt_word(Location::new(0, 0), &CipherWord(vec![0; 3]))
            .is_err());
    }

    #[test]
    fn decrypt_requires_correct_location() {
        let s = scheme();
        let w = word(b"MontgomeryN");
        let c = s.encrypt_word(Location::new(1, 1), &w).unwrap();
        assert_ne!(s.decrypt_word(Location::new(1, 2), &c).unwrap(), w);
    }
}
