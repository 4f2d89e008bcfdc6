//! SHA-256 sixteen lanes at a time on AVX-512F.
//!
//! One `__m512i` holds one SHA-256 working variable (or one schedule
//! word) of sixteen independent hash computations, so every vector
//! instruction advances sixteen compressions by one step. Rotations
//! are single `vprord`s; each of Σ0, Σ1, σ0 and σ1 is one
//! three-input XOR (`vpternlogd` 0x96) over its rotations and shift,
//! and Ch and Maj are one `vpternlogd` each (0xCA, 0xE8). The server
//! scan kernel is the consumer: a check is one HMAC over a one-block
//! message, under one key for the whole scan, which is exactly the
//! shape [`Avx512::hmac16`] takes. Its inputs arrive lane-major (word
//! `t` of every lane in one row), so each schedule word is one vector
//! load; the inner digest stays in registers as the outer block's
//! words 0–7, and words 8–15 of that block are constants. The
//! client's encryption lanes are the other consumer: their check
//! blocks are HMACs under sixteen different keys, which
//! `crate::prf::eval_keyed_lanes_into` computes as four calls to the
//! bare lane-major compression, [`Avx512::compress16`].
//!
//! Every lane computes the FIPS 180-4 compression exactly, bit for
//! bit what the portable backend computes (the backend-equivalence
//! tests in [`crate::sha256`] and the PRF lane tests pin that), so the
//! backend is invisible to every caller and to every stored byte.
//! `vprord`, `vpsrld`, `vpternlogd` and `vpaddd` run in time that does
//! not depend on the data.
//!
//! This module and `sha256_ni` are the crate's only users of
//! `unsafe`: the calls into the `#[target_feature]` functions (made
//! only through an [`Avx512`] token, which exists only after detection
//! succeeded) and the unaligned 64-byte vector loads and stores from
//! fixed-size arrays.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_ror_epi32, _mm512_set1_epi32,
    _mm512_setzero_si512, _mm512_srli_epi32, _mm512_storeu_si512, _mm512_ternarylogic_epi32,
};

use crate::sha256::{BLOCK_LEN, DIGEST_LEN, K};

/// Hash computations per vector.
pub(crate) const LANES: usize = 16;

/// Proof that this CPU has AVX-512F. Only [`Avx512::detect`]
/// constructs one.
#[derive(Clone, Copy)]
pub(crate) struct Avx512(());

impl Avx512 {
    /// `Some` when the CPU has AVX-512F. Under a build whose target
    /// features already include it (`target-cpu=native` on such a
    /// CPU) this folds to a constant; otherwise it is std's cached
    /// feature lookup.
    #[inline]
    pub(crate) fn detect() -> Option<Self> {
        std::is_x86_feature_detected!("avx512f").then_some(Avx512(()))
    }

    /// HMAC-SHA-256 under one key of sixteen one-block messages.
    /// `inner` and `outer` are the key's compression states after the
    /// `ipad` and `opad` blocks; `words[t][l]` is word `t` of lane
    /// `l`'s message with its padding, the final block of the inner
    /// hash. Writes word `r` of lane `l`'s tag to `tags[r][l]`.
    #[inline]
    pub(crate) fn hmac16(
        self,
        inner: &[u32; 8],
        outer: &[u32; 8],
        words: &[[u32; LANES]; 16],
        tags: &mut [[u32; LANES]; 8],
    ) {
        // SAFETY: `self` exists only if `detect` found AVX-512F, the
        // one feature `hmac16_avx512` enables.
        unsafe { hmac16_avx512(inner, outer, words, tags) }
    }

    /// One block into each of sixteen independent states, all
    /// lane-major: `states[r][l]` is word `r` of lane `l`'s state and
    /// `words[t][l]` word `t` of its block. The per-lane-key HMAC of
    /// the client's encryption lanes is built on it.
    #[inline]
    pub(crate) fn compress16(
        self,
        states: &mut [[u32; LANES]; 8],
        words: &[[u32; LANES]; BLOCK_LEN / 4],
    ) {
        // SAFETY: as in `hmac16` — the token proves detection.
        unsafe { compress16_avx512(states, words) }
    }
}

/// `x` rotated right by `N` bits in every lane.
#[inline]
#[target_feature(enable = "avx512f")]
fn ror<const N: i32>(x: __m512i) -> __m512i {
    _mm512_ror_epi32::<N>(x)
}

/// `a ⊕ b ⊕ c` in one instruction.
#[inline]
#[target_feature(enable = "avx512f")]
fn xor3(a: __m512i, b: __m512i, c: __m512i) -> __m512i {
    _mm512_ternarylogic_epi32::<0x96>(a, b, c)
}

/// One vector per row of sixteen lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn load<const N: usize>(rows: &[[u32; LANES]; N]) -> [__m512i; N] {
    let mut out = [_mm512_setzero_si512(); N];
    for (v, row) in out.iter_mut().zip(rows) {
        // SAFETY: `row` is 64 readable bytes, exactly one unaligned
        // 512-bit load.
        *v = unsafe { _mm512_loadu_si512(row.as_ptr().cast()) };
    }
    out
}

/// Each vector into its row of sixteen lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn store<const N: usize>(vectors: [__m512i; N], rows: &mut [[u32; LANES]; N]) {
    for (row, v) in rows.iter_mut().zip(vectors) {
        // SAFETY: `row` is 64 writable bytes, exactly one unaligned
        // 512-bit store.
        unsafe { _mm512_storeu_si512(row.as_mut_ptr().cast(), v) };
    }
}

/// `x` in every lane.
#[inline]
#[target_feature(enable = "avx512f")]
fn splat(x: u32) -> __m512i {
    _mm512_set1_epi32(x as i32)
}

/// FIPS 180-4 §6.2.2 in every lane: `state` after one block whose
/// message words are `w` (lane-major). The schedule rolls through
/// `w` in place, sixteen words at a time.
#[inline]
#[target_feature(enable = "avx512f")]
fn compress(state: &[__m512i; 8], mut w: [__m512i; 16]) -> [__m512i; 8] {
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    // Round 16·chunk + j. From the second chunk on, word j is first
    // replaced by the next schedule word, σ1(w[t−2]) + w[t−7] +
    // σ0(w[t−15]) + w[t−16]. The caller permutes the variable roles
    // instead of shifting registers.
    macro_rules! round {
        ($chunk:ident, $a:ident, $b:ident, $c:ident, $d:ident,
         $e:ident, $f:ident, $g:ident, $h:ident, $j:literal) => {
            if $chunk > 0 {
                let w15 = w[($j + 1) & 15];
                let w2 = w[($j + 14) & 15];
                let s0 = xor3(ror::<7>(w15), ror::<18>(w15), _mm512_srli_epi32::<3>(w15));
                let s1 = xor3(ror::<17>(w2), ror::<19>(w2), _mm512_srli_epi32::<10>(w2));
                w[$j] = _mm512_add_epi32(
                    _mm512_add_epi32(w[$j], s0),
                    _mm512_add_epi32(w[($j + 9) & 15], s1),
                );
            }
            let big_s1 = xor3(ror::<6>($e), ror::<11>($e), ror::<25>($e));
            let ch = _mm512_ternarylogic_epi32::<0xCA>($e, $f, $g);
            let wk = _mm512_add_epi32(w[$j], splat(K[16 * $chunk + $j]));
            let t1 = _mm512_add_epi32(_mm512_add_epi32($h, big_s1), _mm512_add_epi32(ch, wk));
            let big_s0 = xor3(ror::<2>($a), ror::<13>($a), ror::<22>($a));
            let maj = _mm512_ternarylogic_epi32::<0xE8>($a, $b, $c);
            $d = _mm512_add_epi32($d, t1);
            $h = _mm512_add_epi32(t1, _mm512_add_epi32(big_s0, maj));
        };
    }
    for chunk in 0..4 {
        round!(chunk, a, b, c, d, e, f, g, h, 0);
        round!(chunk, h, a, b, c, d, e, f, g, 1);
        round!(chunk, g, h, a, b, c, d, e, f, 2);
        round!(chunk, f, g, h, a, b, c, d, e, 3);
        round!(chunk, e, f, g, h, a, b, c, d, 4);
        round!(chunk, d, e, f, g, h, a, b, c, 5);
        round!(chunk, c, d, e, f, g, h, a, b, 6);
        round!(chunk, b, c, d, e, f, g, h, a, 7);
        round!(chunk, a, b, c, d, e, f, g, h, 8);
        round!(chunk, h, a, b, c, d, e, f, g, 9);
        round!(chunk, g, h, a, b, c, d, e, f, 10);
        round!(chunk, f, g, h, a, b, c, d, e, 11);
        round!(chunk, e, f, g, h, a, b, c, d, 12);
        round!(chunk, d, e, f, g, h, a, b, c, 13);
        round!(chunk, c, d, e, f, g, h, a, b, 14);
        round!(chunk, b, c, d, e, f, g, h, a, 15);
    }

    let mut out = *state;
    for (o, v) in out.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *o = _mm512_add_epi32(*o, v);
    }
    out
}

/// Backend of [`Avx512::hmac16`]. Like every `#[target_feature]`
/// function here, it may run only on a CPU with AVX-512F, which is
/// why only an [`Avx512`] token calls it.
#[target_feature(enable = "avx512f")]
fn hmac16_avx512(
    inner: &[u32; 8],
    outer: &[u32; 8],
    words: &[[u32; LANES]; 16],
    tags: &mut [[u32; LANES]; 8],
) {
    let mut state = [_mm512_setzero_si512(); 8];
    for (v, word) in state.iter_mut().zip(inner) {
        *v = splat(*word);
    }
    let digest = compress(&state, load(words));

    // Outer block: the inner digest, 0x80, zeros, and the bit length
    // of the opad block plus the digest.
    let mut block = [_mm512_setzero_si512(); 16];
    block[..8].copy_from_slice(&digest);
    block[8] = splat(0x8000_0000);
    block[15] = splat(((BLOCK_LEN + DIGEST_LEN) * 8) as u32);
    for (v, word) in state.iter_mut().zip(outer) {
        *v = splat(*word);
    }
    store(compress(&state, block), tags);
}

/// Backend of [`Avx512::compress16`].
#[target_feature(enable = "avx512f")]
fn compress16_avx512(states: &mut [[u32; LANES]; 8], words: &[[u32; LANES]; BLOCK_LEN / 4]) {
    store(compress(&load(states), load(words)), states);
}
