//! The server-side match — deliberately keyless.
//!
//! This function is everything Eve can do, and everything she needs to
//! do: given a trapdoor `(X, k)` and a stored cipher word `C`, compute
//! `P = C ⊕ X` and accept iff the check block verifies,
//! `F_k(P_left) ≡ P_right (mod 2^check_bits)`.
//!
//! A true occurrence always verifies; a non-occurrence verifies with
//! probability `2^-check_bits` (the false positives the client
//! filters). Note what Eve learns from a match: *that this location
//! holds the queried word* — the access-pattern leak at the core of the
//! paper's Theorem 2.1.

use dbph_crypto::prf::{HmacPrf, Prf};

use crate::params::{check_eq, SwpParams};
use crate::traits::{CipherWord, TrapdoorData};

/// Largest `word_len` the fixed stack buffers of the scalar check
/// accommodate. Words longer than this (possible only with
/// wire-supplied pathological parameters — every codec-derived schema
/// is far below it) take a heap-spill path with identical decisions.
pub(crate) const MAX_INLINE_WORD: usize = 256;

/// The one implementation of the SWP check: `P = C ⊕ X`, accept iff
/// `F_k(P_left) ≡ P_right (mod 2^check_bits)`. Every entry point
/// ([`matches`], [`PreparedTrapdoor::matches`], and the remainder path
/// and scalar words of [`crate::kernel::ScanKernel`]) funnels here so
/// the paths cannot diverge; the kernel's lanes share the final
/// [`check_eq`] decision and a PRF proven bit-identical to
/// [`Prf::eval_into`].
///
/// Allocation-free for `word_len ≤ MAX_INLINE_WORD`: the XORed halves
/// and the expected check block live in fixed stack buffers, tiered by
/// word length so common schemas (words of a few dozen bytes) pay only
/// a small buffer initialization per check.
pub(crate) fn check_match_bytes(
    params: &SwpParams,
    target: &[u8],
    prf: &HmacPrf,
    cipher: &[u8],
) -> bool {
    if cipher.len() != params.word_len || target.len() != params.word_len {
        return false;
    }
    if params.word_len <= 64 {
        check_on_stack::<64>(params, target, prf, cipher)
    } else if params.word_len <= MAX_INLINE_WORD {
        check_on_stack::<MAX_INLINE_WORD>(params, target, prf, cipher)
    } else {
        let split = params.stream_len();
        let check = params.check_len;
        let mut s = vec![0u8; split];
        let mut t = vec![0u8; check];
        let mut expected = vec![0u8; check];
        xor_halves(&mut s, &mut t, cipher, target, split);
        prf.eval_into(&s, &mut expected);
        check_eq(params, &expected, &t)
    }
}

/// The stack-buffer body of [`check_match_bytes`], monomorphized per
/// buffer tier. Caller guarantees `word_len ≤ N` and exact lengths.
fn check_on_stack<const N: usize>(
    params: &SwpParams,
    target: &[u8],
    prf: &HmacPrf,
    cipher: &[u8],
) -> bool {
    let split = params.stream_len();
    let check = params.check_len;
    let mut s = [0u8; N];
    let mut t = [0u8; N];
    let mut expected = [0u8; N];
    xor_halves(&mut s[..split], &mut t[..check], cipher, target, split);
    prf.eval_into(&s[..split], &mut expected[..check]);
    check_eq(params, &expected[..check], &t[..check])
}

/// `P = C ⊕ X`, split at `split` into the stream part `s` and the
/// check part `t`.
#[inline]
pub(crate) fn xor_halves(s: &mut [u8], t: &mut [u8], cipher: &[u8], target: &[u8], split: usize) {
    xor_into(s, &cipher[..split], &target[..split]);
    xor_into(t, &cipher[split..], &target[split..]);
}

/// `out = a ⊕ b` over the first `out.len()` bytes.
#[inline]
pub(crate) fn xor_into(out: &mut [u8], a: &[u8], b: &[u8]) {
    for ((out, x), y) in out.iter_mut().zip(a).zip(b) {
        *out = x ^ y;
    }
}

fn check_match(params: &SwpParams, target: &[u8], prf: &HmacPrf, cipher: &CipherWord) -> bool {
    check_match_bytes(params, target, prf, &cipher.0)
}

/// Returns whether `cipher` matches `trapdoor`. Keyless: callable by
/// the server (or any adversary holding the trapdoor).
#[must_use]
pub fn matches<T: TrapdoorData>(params: &SwpParams, trapdoor: &T, cipher: &CipherWord) -> bool {
    check_match(
        params,
        trapdoor.target(),
        &HmacPrf::new(trapdoor.check_key()),
        cipher,
    )
}

/// A trapdoor preprocessed for scanning many cipher words.
///
/// [`matches`](fn@matches) rebuilds the HMAC key schedule (two
/// SHA-256 compression calls over the padded key) for every
/// `(trapdoor, word)` pair; a table scan evaluates the same trapdoor
/// against every stored word, so a prepared trapdoor runs the key
/// schedule once and reuses the keyed PRF per word. Exactly the same
/// accept/reject decisions as [`matches`](fn@matches) (they share one
/// implementation) — this is the batch entry point the sharded scan
/// engine uses.
#[derive(Clone)]
pub struct PreparedTrapdoor {
    target: Vec<u8>,
    /// PRF keyed with the trapdoor's check key (key schedule done).
    prf: HmacPrf,
}

impl PreparedTrapdoor {
    /// Runs the key schedule for `trapdoor` once.
    #[must_use]
    pub fn new<T: TrapdoorData>(trapdoor: &T) -> Self {
        PreparedTrapdoor {
            target: trapdoor.target().to_vec(),
            prf: HmacPrf::new(trapdoor.check_key()),
        }
    }

    /// The search target, as received.
    #[must_use]
    pub fn target(&self) -> &[u8] {
        &self.target
    }

    /// Same decision as [`matches`](fn@matches), skipping the per-word
    /// key schedule. Keyless, like everything the server runs.
    #[must_use]
    pub fn matches(&self, params: &SwpParams, cipher: &CipherWord) -> bool {
        check_match(params, &self.target, &self.prf, cipher)
    }

    /// Byte-slice variant of [`Self::matches`] for callers that store
    /// cipher words in a columnar arena rather than as [`CipherWord`]
    /// values. Same decision function.
    #[must_use]
    pub fn matches_bytes(&self, params: &SwpParams, cipher: &[u8]) -> bool {
        check_match_bytes(params, &self.target, &self.prf, cipher)
    }

    /// The keyed check PRF (key schedule hoisted) — shared with the
    /// 16-lane [`crate::kernel::ScanKernel`].
    pub(crate) fn prf(&self) -> &HmacPrf {
        &self.prf
    }
}

/// Conjunctive document match: every prepared trapdoor must match at
/// least one of the document's cipher words. This is the whole of `ψ`
/// for one document under a conjunction of terms.
#[must_use]
pub fn matches_document(
    params: &SwpParams,
    terms: &[PreparedTrapdoor],
    words: &[CipherWord],
) -> bool {
    terms
        .iter()
        .all(|t| words.iter().any(|w| t.matches(params, w)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct RawTrapdoor {
        target: Vec<u8>,
        key: Vec<u8>,
    }

    impl TrapdoorData for RawTrapdoor {
        fn target(&self) -> &[u8] {
            &self.target
        }
        fn check_key(&self) -> &[u8] {
            &self.key
        }
    }

    #[test]
    fn match_accepts_consistent_pair() {
        // Hand-build C = <s ⊕ x_left, F_k(s) ⊕ x_right> and verify.
        let params = SwpParams::new(8, 3, 24).unwrap();
        let x = b"abcdefgh".to_vec();
        let key = vec![7u8; 32];
        let s = vec![0x11u8; 5];
        let f = HmacPrf::new(&key).eval(&s, 3);
        let mut c = Vec::new();
        c.extend(x[..5].iter().zip(&s).map(|(a, b)| a ^ b));
        c.extend(x[5..].iter().zip(&f).map(|(a, b)| a ^ b));
        let cipher = CipherWord(c);
        let td = RawTrapdoor { target: x, key };
        assert!(matches(&params, &td, &cipher));
    }

    #[test]
    fn match_rejects_wrong_target() {
        let params = SwpParams::new(8, 3, 24).unwrap();
        let key = vec![7u8; 32];
        let s = vec![0x11u8; 5];
        let f = HmacPrf::new(&key).eval(&s, 3);
        let x = b"abcdefgh".to_vec();
        let mut c = Vec::new();
        c.extend(x[..5].iter().zip(&s).map(|(a, b)| a ^ b));
        c.extend(x[5..].iter().zip(&f).map(|(a, b)| a ^ b));
        let cipher = CipherWord(c);
        let td = RawTrapdoor {
            target: b"abcdefgX".to_vec(),
            key,
        };
        assert!(!matches(&params, &td, &cipher));
    }

    #[test]
    fn match_rejects_wrong_lengths() {
        let params = SwpParams::new(8, 3, 24).unwrap();
        let td = RawTrapdoor {
            target: vec![0; 8],
            key: vec![0; 32],
        };
        assert!(!matches(&params, &td, &CipherWord(vec![0; 7])));
        let td_short = RawTrapdoor {
            target: vec![0; 7],
            key: vec![0; 32],
        };
        assert!(!matches(&params, &td_short, &CipherWord(vec![0; 8])));
    }

    /// Deterministic pseudo-random bytes for equivalence sweeps.
    fn splatter(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn prepared_matches_agrees_with_matches() {
        // The prepared fast path must make the *same* decision as the
        // reference on matching pairs, random pairs, and length
        // mismatches — across several parameter shapes, including a
        // check block longer than one HMAC output (counter mode).
        for (word_len, check_len, check_bits) in
            [(8, 3, 24), (13, 4, 32), (16, 4, 7), (40, 36, 288)]
        {
            let params = SwpParams::new(word_len, check_len, check_bits).unwrap();
            for seed in 0..50u64 {
                let key = splatter(seed, 32);
                let x = splatter(seed ^ 0xA5, word_len);
                let s = splatter(seed ^ 0x5A, params.stream_len());
                let f = HmacPrf::new(&key).eval(&s, check_len);
                let mut c = Vec::new();
                c.extend(x[..params.stream_len()].iter().zip(&s).map(|(a, b)| a ^ b));
                c.extend(x[params.stream_len()..].iter().zip(&f).map(|(a, b)| a ^ b));
                let consistent = CipherWord(c);
                let random = CipherWord(splatter(seed ^ 0xFF, word_len));
                let short = CipherWord(splatter(seed, word_len - 1));

                let td = RawTrapdoor { target: x, key };
                let prepared = PreparedTrapdoor::new(&td);
                for cipher in [&consistent, &random, &short] {
                    assert_eq!(
                        prepared.matches(&params, cipher),
                        matches(&params, &td, cipher),
                        "divergence at params {params:?} seed {seed}"
                    );
                }
                assert!(prepared.matches(&params, &consistent));
            }
        }
    }

    #[test]
    fn outsized_words_take_the_spill_path_with_same_decisions() {
        // word_len beyond MAX_INLINE_WORD forces the heap-spill branch
        // of the scalar check (wire-legal pathological params); the
        // decisions must be the usual ones.
        let word_len = MAX_INLINE_WORD + 17;
        let params = SwpParams::new(word_len, 5, 40).unwrap();
        let key = splatter(3, 32);
        let x = splatter(4, word_len);
        let s = splatter(5, params.stream_len());
        let f = HmacPrf::new(&key).eval(&s, params.check_len);
        let mut c = Vec::new();
        c.extend(x[..params.stream_len()].iter().zip(&s).map(|(a, b)| a ^ b));
        c.extend(x[params.stream_len()..].iter().zip(&f).map(|(a, b)| a ^ b));
        let td = RawTrapdoor { target: x, key };
        let prepared = PreparedTrapdoor::new(&td);
        assert!(prepared.matches(&params, &CipherWord(c.clone())));
        assert!(matches(&params, &td, &CipherWord(c)));
        assert!(!prepared.matches_bytes(&params, &splatter(9, word_len)));
    }

    #[test]
    fn matches_bytes_equals_matches() {
        let params = SwpParams::new(8, 3, 24).unwrap();
        let td = RawTrapdoor {
            target: splatter(11, 8),
            key: splatter(12, 32),
        };
        let prepared = PreparedTrapdoor::new(&td);
        for seed in 0..20u64 {
            let w = splatter(seed, 8);
            assert_eq!(
                prepared.matches_bytes(&params, &w),
                matches(&params, &td, &CipherWord(w.clone()))
            );
        }
    }

    #[test]
    fn matches_document_is_conjunctive() {
        let params = SwpParams::new(8, 3, 24).unwrap();
        let make = |seed: u64| {
            let key = splatter(seed, 32);
            let x = splatter(seed ^ 1, 8);
            let s = splatter(seed ^ 2, 5);
            let f = HmacPrf::new(&key).eval(&s, 3);
            let mut c = Vec::new();
            c.extend(x[..5].iter().zip(&s).map(|(a, b)| a ^ b));
            c.extend(x[5..].iter().zip(&f).map(|(a, b)| a ^ b));
            (
                PreparedTrapdoor::new(&RawTrapdoor { target: x, key }),
                CipherWord(c),
            )
        };
        let (td_a, word_a) = make(10);
        let (td_b, word_b) = make(20);
        let doc = vec![word_a.clone(), word_b];
        assert!(matches_document(
            &params,
            &[td_a.clone(), td_b.clone()],
            &doc
        ));
        assert!(
            matches_document(&params, &[], &doc),
            "empty conjunction matches everything"
        );
        assert!(
            !matches_document(&params, &[td_a, td_b], &[word_a]),
            "dropping b's word must break the conjunction"
        );
    }
}
