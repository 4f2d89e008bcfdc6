//! The searchable-encryption abstraction.
//!
//! The paper's §3 construction is generic: "One such scheme has been
//! proposed by Song et al. […] but others can be used instead." The
//! [`SearchableScheme`] trait is that abstraction point — the database
//! PH in `dbph-core` is written against it, and all four SWP variants
//! implement it.

use serde::{Deserialize, Serialize};

use crate::error::SwpError;
use crate::params::SwpParams;
use crate::word::Word;

/// A word location within an encrypted collection: document (here:
/// tuple) id plus word position inside the document. Locations
/// determine the PRG stream value `S_ℓ`, so they must be unique across
/// the collection and stable between encryption and decryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Location {
    /// Document identifier (unique per collection).
    pub doc_id: u64,
    /// Word index within the document.
    pub word_index: u32,
}

impl Location {
    /// Creates a location.
    #[must_use]
    pub fn new(doc_id: u64, word_index: u32) -> Self {
        Location { doc_id, word_index }
    }
}

/// An encrypted word: `word_len` opaque bytes stored by the server.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CipherWord(pub Vec<u8>);

impl CipherWord {
    /// The ciphertext bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// What a trapdoor must expose for the *keyless* server-side match:
/// the search target (`W` itself for schemes I–II, `E''(W)` for
/// schemes III–IV) and the check key handed to the server.
///
/// Everything in a trapdoor is, by definition, revealed to the server.
/// The type carries no other key material — that is the point.
pub trait TrapdoorData: Clone + Send + Sync {
    /// The byte string the server XORs against each cipher word.
    fn target(&self) -> &[u8];
    /// The PRF key the server uses to verify the check block.
    fn check_key(&self) -> &[u8];
}

/// A searchable symmetric encryption scheme over fixed-length words.
///
/// Client-side operations take `&self` (they hold the key); the
/// server-side match lives in [`crate::search::matches`] and takes
/// only [`SwpParams`] and a trapdoor. Schemes are `'static` so a
/// client can hand a copy to its decryption workers.
pub trait SearchableScheme: Clone + Send + Sync + 'static {
    /// The scheme's trapdoor type.
    type Trapdoor: TrapdoorData;

    /// The scheme's parameters.
    fn params(&self) -> &SwpParams;

    /// Encrypts `word` for storage at `location`.
    ///
    /// # Errors
    /// Fails on word-length mismatches.
    fn encrypt_word(&self, location: Location, word: &Word) -> Result<CipherWord, SwpError>;

    /// Encrypts whole documents: word `i` of `(doc_id, words)` at
    /// `Location::new(doc_id, i)`, appending each cipher word's
    /// `word_len` bytes to `out` in document and word order. The
    /// bytes, and the error (the first failing word's), are exactly
    /// those of [`Self::encrypt_word`] word by word, which is what this
    /// default does; a scheme with a batched path (the final scheme's
    /// encryption lanes) overrides it with byte-identical output. On
    /// error, `out` holds some prefix of the output.
    ///
    /// # Errors
    /// Fails on word-length mismatches.
    fn encrypt_documents(
        &self,
        docs: &[(u64, Vec<Word>)],
        out: &mut Vec<u8>,
    ) -> Result<(), SwpError> {
        for (doc_id, words) in docs {
            for (i, word) in words.iter().enumerate() {
                let cipher = self.encrypt_word(Location::new(*doc_id, i as u32), word)?;
                out.extend_from_slice(cipher.as_bytes());
            }
        }
        Ok(())
    }

    /// Decrypts the cipher word stored at `location`.
    ///
    /// # Errors
    /// Schemes II and III return [`SwpError::Unsupported`]: their
    /// per-word keys cannot be recovered from the ciphertext alone
    /// (the deficiency the SWP final scheme exists to fix). Scheme I
    /// and the final scheme decrypt.
    fn decrypt_word(&self, location: Location, cipher: &CipherWord) -> Result<Word, SwpError>;

    /// Produces the trapdoor that lets the server search for `word`.
    ///
    /// # Errors
    /// Fails on word-length mismatches.
    fn trapdoor(&self, word: &Word) -> Result<Self::Trapdoor, SwpError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_identity() {
        let a = Location::new(3, 1);
        let b = Location {
            doc_id: 3,
            word_index: 1,
        };
        assert_eq!(a, b);
        assert_ne!(a, Location::new(3, 2));
        assert_ne!(a, Location::new(4, 1));
    }

    #[test]
    fn cipher_word_bytes() {
        let c = CipherWord(vec![1, 2, 3]);
        assert_eq!(c.as_bytes(), &[1, 2, 3]);
    }
}
