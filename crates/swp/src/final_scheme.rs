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
//!
//! **Encryption lanes.** One word costs about fourteen SHA-256
//! compressions (four Feistel rounds of `E''`, `k = f_k'(L)`, and
//! `F_k(S_ℓ)` under a fresh key) plus its share of a ChaCha block, all
//! on Alex's side. [`FinalScheme::encrypt_documents`] runs them sixteen
//! words per dispatch: the Feistel rounds and `f_k'` through the
//! fixed-key lane HMAC ([`HmacPrf::eval_lanes_into`]), the check
//! blocks through the per-lane-key HMAC
//! ([`prf::eval_keyed_lanes_into`]), and each document's `S_ℓ` values
//! from one keystream call. The 1–15 words left at the end, and
//! parameters past the one-block lane limits (`word_len ≤ 64`,
//! `stream_len ≤ 51`, `check_len ≤ 32`), go through the scalar
//! [`SearchableScheme::encrypt_word`], as in the scan kernel. The
//! output is byte-identical to word-by-word encryption (unit sweep
//! below, and the pinned-ciphertext test in `dbph-core`), so lanes
//! change how fast Alex encrypts, never what Eve stores.

use dbph_crypto::cipher::{DeterministicCipher, WideBlockPrp};
use dbph_crypto::hmac::MAC_LEN;
use dbph_crypto::prf::{self, HmacPrf, LaneBlocks, Prf, LANES};
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
    /// Whether `params` take the encryption lanes: each Feistel half's
    /// round output is one HMAC tag, `L` and `S_ℓ` fit one block with
    /// their counter and padding, and the check block is one tag. Both
    /// shipped schemas do (`Emp` words are 19 bytes, `Hospital` 27).
    fn lanes_fit(params: &SwpParams) -> bool {
        params.word_len <= WideBlockPrp::LANE_LEN_MAX
            && params.stream_len() <= prf::LANE_MSG_MAX
            && params.check_len <= MAC_LEN
    }

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

    /// The encryption lanes (see the module docs); byte-identical to
    /// [`Self::encrypt_word`] word by word, error included.
    fn encrypt_documents(
        &self,
        docs: &[(u64, Vec<Word>)],
        out: &mut Vec<u8>,
    ) -> Result<(), SwpError> {
        let split = self.params().stream_len();
        // Fewer words than one dispatch (a one-row insert) would all be
        // remainder: skip the staging outright.
        let total: usize = docs.iter().map(|(_, words)| words.len()).sum();
        let mut lanes =
            (Self::lanes_fit(self.params()) && total >= LANES).then(|| EncryptLanes::new(split));
        out.reserve(total * self.params().word_len);
        let mut stream = Vec::new();
        for (doc_id, words) in docs {
            let location = |i: usize| Location::new(*doc_id, i as u32);
            let Some(lanes) = &mut lanes else {
                for (i, word) in words.iter().enumerate() {
                    out.extend_from_slice(self.encrypt_word(location(i), word)?.as_bytes());
                }
                continue;
            };
            stream.resize(words.len() * split, 0);
            self.engine.row_stream_into(*doc_id, &mut stream);
            for (i, (word, s)) in words.iter().zip(stream.chunks_exact(split)).enumerate() {
                self.check_word(word)?;
                lanes.push(location(i), word, s);
                if lanes.pending == LANES {
                    lanes.dispatch(self, out);
                }
            }
        }
        if let Some(lanes) = lanes {
            for l in 0..lanes.pending {
                let word = lanes.words[l].expect("staged lane");
                out.extend_from_slice(self.encrypt_word(lanes.locations[l], word)?.as_bytes());
            }
        }
        Ok(())
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

/// Words staged for one dispatch of the encryption lanes, about 4 KiB.
struct EncryptLanes<'a> {
    pending: usize,
    locations: [Location; LANES],
    words: [Option<&'a Word>; LANES],
    /// Each staged word's `S_ℓ` (first `stream_len` bytes).
    s: [[u8; prf::LANE_MSG_MAX]; LANES],
    /// `W`, then `X = E''(W)` in place.
    x: [[u8; WideBlockPrp::LANE_LEN_MAX]; LANES],
    /// `L`, then `S_ℓ`, in their HMAC blocks.
    msgs: LaneBlocks,
    /// `k = f_k'(L)` per lane.
    keys: [[u8; MAC_LEN]; LANES],
    /// `F_k(S_ℓ)` per lane (first `check_len` bytes).
    checks: [[u8; MAC_LEN]; LANES],
}

impl<'a> EncryptLanes<'a> {
    fn new(stream_len: usize) -> Self {
        EncryptLanes {
            pending: 0,
            locations: [Location::new(0, 0); LANES],
            words: [None; LANES],
            s: [[0; prf::LANE_MSG_MAX]; LANES],
            x: [[0; WideBlockPrp::LANE_LEN_MAX]; LANES],
            msgs: LaneBlocks::new(stream_len),
            keys: [[0; MAC_LEN]; LANES],
            checks: [[0; MAC_LEN]; LANES],
        }
    }

    fn push(&mut self, location: Location, word: &'a Word, s: &[u8]) {
        let lane = self.pending;
        self.locations[lane] = location;
        self.words[lane] = Some(word);
        self.s[lane][..s.len()].copy_from_slice(s);
        self.pending += 1;
    }

    /// Encrypts all sixteen staged words and appends their bytes to
    /// `out` in lane order, which is push order.
    fn dispatch(&mut self, scheme: &FinalScheme, out: &mut Vec<u8>) {
        let params = scheme.params();
        let (len, split, check) = (params.word_len, params.stream_len(), params.check_len);
        for (x, word) in self.x.iter_mut().zip(&self.words) {
            x[..len].copy_from_slice(word.expect("staged lane").as_bytes());
        }
        scheme.pre.permute_lanes(&mut self.x, len);
        for (lane, x) in self.x.iter().enumerate() {
            self.msgs.set_prefixed(lane, &[], &x[..split]);
        }
        scheme
            .key_prf
            .eval_lanes_into(&self.msgs, MAC_LEN, &mut self.keys);
        for (lane, s) in self.s.iter().enumerate() {
            self.msgs.set_prefixed(lane, &[], &s[..split]);
        }
        prf::eval_keyed_lanes_into(&self.keys, &self.msgs, check, &mut self.checks);
        for ((x, s), f) in self.x.iter().zip(&self.s).zip(&self.checks) {
            out.extend(x[..split].iter().zip(s).map(|(x, s)| x ^ s));
            out.extend(x[split..len].iter().zip(f).map(|(x, f)| x ^ f));
        }
        self.pending = 0;
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

    /// Word by word through the scalar `encrypt_word`: the reference
    /// the lanes must equal.
    fn word_by_word(s: &FinalScheme, docs: &[(u64, Vec<Word>)]) -> Result<Vec<u8>, SwpError> {
        let mut out = Vec::new();
        for (id, words) in docs {
            for (i, word) in words.iter().enumerate() {
                out.extend(s.encrypt_word(Location::new(*id, i as u32), word)?.0);
            }
        }
        Ok(out)
    }

    fn batch(s: &FinalScheme, docs: &[(u64, Vec<Word>)]) -> Result<Vec<u8>, SwpError> {
        let mut out = Vec::new();
        s.encrypt_documents(docs, &mut out).map(|()| out)
    }

    /// Documents holding `total` random `word_len`-byte words in all:
    /// zero to four words each, at random doc ids (`u64::MAX` among
    /// them).
    fn random_docs(
        rng: &mut dbph_crypto::DeterministicRng,
        total: usize,
        word_len: usize,
    ) -> Vec<(u64, Vec<Word>)> {
        use dbph_crypto::EntropySource as _;
        let mut docs = Vec::new();
        let mut left = total;
        while left > 0 || docs.is_empty() {
            let n = (rng.below(5) as usize).min(left);
            let id = match rng.below(4) {
                0 => u64::MAX - rng.below(2),
                _ => rng.next_u64(),
            };
            let words = (0..n)
                .map(|_| {
                    let mut w = vec![0u8; word_len];
                    rng.fill(&mut w);
                    Word::from_bytes_unchecked(w)
                })
                .collect();
            docs.push((id, words));
            left -= n;
        }
        docs
    }

    #[test]
    fn encrypt_documents_equals_encrypt_word_at_both_edges_of_the_lanes() {
        let mut rng = dbph_crypto::DeterministicRng::from_seed(23);
        let master = SecretKey::from_bytes([5u8; 32]);
        // (word_len, check_len, check_bits, lanes): the shipped shapes,
        // then each lane limit from just inside and just outside.
        for (word_len, check_len, check_bits, lanes) in [
            (19, 4, 32, true),
            (27, 4, 13, true),
            (2, 1, 8, true),
            (55, 4, 32, true),   // S_ℓ at 51 bytes, the block limit
            (56, 4, 32, false),  // S_ℓ at 52
            (64, 13, 104, true), // Feistel halves at one tag each
            (65, 14, 112, false),
            (40, 32, 256, true), // check block at one tag
            (40, 33, 264, false),
        ] {
            let params = SwpParams::new(word_len, check_len, check_bits).unwrap();
            assert_eq!(FinalScheme::lanes_fit(&params), lanes, "{params:?}");
            let s = FinalScheme::new(params, &master);
            for total in 0..=3 * LANES + 5 {
                let docs = random_docs(&mut rng, total, word_len);
                assert_eq!(
                    batch(&s, &docs).unwrap(),
                    word_by_word(&s, &docs).unwrap(),
                    "{params:?}, {total} words"
                );
            }
        }
    }

    #[test]
    fn encrypt_documents_fails_on_the_first_wrong_length_word() {
        let mut rng = dbph_crypto::DeterministicRng::from_seed(29);
        let s = scheme();
        for total in [1, 15, 16, 17, 40] {
            let mut docs = random_docs(&mut rng, total, 11);
            let slots: Vec<(usize, usize)> = docs
                .iter()
                .enumerate()
                .flat_map(|(d, (_, words))| (0..words.len()).map(move |i| (d, i)))
                .collect();
            // Two bad words of different lengths: the earlier one's
            // error is the one returned.
            let (d, i) = slots[slots.len() / 2];
            docs[d].1[i] = word(b"short");
            let (d, i) = slots[slots.len() - 1];
            if (d, i) != slots[slots.len() / 2] {
                docs[d].1[i] = word(b"far too long a word");
            }
            let want = word_by_word(&s, &docs).unwrap_err();
            assert_eq!(batch(&s, &docs).unwrap_err(), want);
            assert_eq!(
                want,
                SwpError::WrongWordLength {
                    expected: 11,
                    actual: 5
                }
            );
        }
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
