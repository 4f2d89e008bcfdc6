//! SHA-256 compression on the x86-64 SHA extensions (SHA-NI).
//!
//! `sha256rnds2` runs two rounds per instruction and
//! `sha256msg1`/`sha256msg2` expand the message schedule, so one
//! 64-byte block costs a few dozen instructions instead of the
//! portable path's ~2,000. This module is the compression backend of
//! both hashing entry points — [`crate::sha256::compress_blocks`]
//! (scalar hashing, HMAC, checksums) and
//! [`crate::sha256x4::compress4_states`] (the server scan kernel's
//! 16-lane HMAC, run as four 4-lane groups on CPUs without AVX-512F)
//! — whenever the CPU has the extensions; each entry point picks it
//! with one [`ShaNi::detect`] call and otherwise runs the portable
//! code.
//!
//! Both functions here compute the FIPS 180-4 compression exactly:
//! every digest is bit-identical to the portable backend's (the
//! backend-equivalence tests in [`crate::sha256`] pin that), so the
//! backend is invisible to every caller and to every stored byte. The
//! instructions' timing does not depend on the data they hash.
//!
//! The 4-lane variant interleaves four independent block chains: one
//! `sha256rnds2` has a multi-cycle latency and each round pair depends
//! on the previous one, so four chains in flight keep the SHA unit
//! busy where one chain leaves it waiting.
//!
//! This module and `sha256_avx512` are the crate's only users of
//! `unsafe`: the calls into the `#[target_feature]` functions (made
//! only through a [`ShaNi`] token, which exists only after detection
//! succeeded) and the unaligned 16-byte vector loads and stores from
//! fixed-size arrays.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
    _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

use crate::sha256::{BLOCK_LEN, K};

/// Proof that this CPU has every extension the backend needs: SHA,
/// SSSE3 (`pshufb`, `palignr`) and SSE4.1 (`pblendw`); SSE2 is part of
/// the x86-64 baseline. Only [`ShaNi::detect`] constructs one.
#[derive(Clone, Copy)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// `Some` when the CPU has SHA-NI. Under a build whose target
    /// features already include them (`target-cpu=native` on such a
    /// CPU) this folds to a constant; otherwise it is std's cached
    /// feature lookup.
    #[inline]
    pub(crate) fn detect() -> Option<Self> {
        let found = std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1");
        found.then_some(ShaNi(()))
    }

    /// FIPS 180-4 compression of each block of `blocks`, in order,
    /// into `state`.
    #[inline]
    pub(crate) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        // SAFETY: `self` exists only if `detect` found every feature
        // `compress_blocks_ni` enables, so this CPU can execute it.
        unsafe { compress_blocks_ni(state, blocks) }
    }

    /// One block into each of four independent states, interleaved.
    #[inline]
    pub(crate) fn compress4(self, states: &mut [[u32; 8]; 4], blocks: &[[u8; BLOCK_LEN]; 4]) {
        // SAFETY: as in `compress_blocks` — the token proves detection.
        unsafe { compress4_ni(states, blocks) }
    }
}

/// One hash chain's state in the register layout `sha256rnds2`
/// expects: `abef = [f, e, b, a]` and `cdgh = [h, g, d, c]` (lowest
/// lane first).
#[derive(Clone, Copy)]
struct Lane {
    abef: __m128i,
    cdgh: __m128i,
}

impl Lane {
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn load(state: &[u32; 8]) -> Lane {
        let ptr = state.as_ptr().cast::<__m128i>();
        // SAFETY: `state` is 32 readable bytes; the loads read bytes
        // 0..16 and 16..32 and are unaligned loads.
        let (dcba, hgfe) = unsafe { (_mm_loadu_si128(ptr), _mm_loadu_si128(ptr.add(1))) };
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        Lane {
            abef: _mm_alignr_epi8(cdab, efgh, 8),
            cdgh: _mm_blend_epi16(efgh, cdab, 0xF0),
        }
    }

    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn store(self, state: &mut [u32; 8]) {
        let feba = _mm_shuffle_epi32(self.abef, 0x1B);
        let dchg = _mm_shuffle_epi32(self.cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        let ptr = state.as_mut_ptr().cast::<__m128i>();
        // SAFETY: `state` is 32 writable bytes; the stores write bytes
        // 0..16 and 16..32 and are unaligned stores.
        unsafe {
            _mm_storeu_si128(ptr, dcba);
            _mm_storeu_si128(ptr.add(1), hgef);
        }
    }
}

/// The 64 rounds over one block per lane, the `N` lanes interleaved
/// step by step.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn rounds<const N: usize>(lanes: &mut [Lane; N], blocks: [&[u8; BLOCK_LEN]; N]) {
    // Byte-swaps each 32-bit word: the block is big-endian.
    let bswap = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);
    let saved = *lanes;

    // `w[j % 4][l]` holds schedule words 4j..4j+4 of lane `l`.
    let mut w = [[_mm_setzero_si128(); N]; 4];
    for (j, wj) in w.iter_mut().enumerate() {
        for (wjl, block) in wj.iter_mut().zip(&blocks) {
            // SAFETY: `block` is 64 readable bytes and `j < 4`, so the
            // unaligned load reads bytes 16j..16j+16 inside it.
            let raw = unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>().add(j)) };
            *wjl = _mm_shuffle_epi8(raw, bswap);
        }
    }

    // Four rounds of every lane: schedule words 4i..4i+4 (computed
    // from the previous sixteen for i ≥ 4, into the slot of the
    // oldest four), then two `sha256rnds2` per lane.
    macro_rules! step {
        ($i:literal) => {
            let k = _mm_set_epi32(
                K[4 * $i + 3] as i32,
                K[4 * $i + 2] as i32,
                K[4 * $i + 1] as i32,
                K[4 * $i] as i32,
            );
            for (l, lane) in lanes.iter_mut().enumerate() {
                if $i >= 4 {
                    let [w0, w1, w2, w3] = [0, 1, 2, 3].map(|j| w[($i + j) % 4][l]);
                    let sum =
                        _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
                    w[$i % 4][l] = _mm_sha256msg2_epu32(sum, w3);
                }
                let wk = _mm_add_epi32(w[$i % 4][l], k);
                lane.cdgh = _mm_sha256rnds2_epu32(lane.cdgh, lane.abef, wk);
                lane.abef =
                    _mm_sha256rnds2_epu32(lane.abef, lane.cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }
        };
    }
    step!(0);
    step!(1);
    step!(2);
    step!(3);
    step!(4);
    step!(5);
    step!(6);
    step!(7);
    step!(8);
    step!(9);
    step!(10);
    step!(11);
    step!(12);
    step!(13);
    step!(14);
    step!(15);

    for (lane, old) in lanes.iter_mut().zip(&saved) {
        lane.abef = _mm_add_epi32(lane.abef, old.abef);
        lane.cdgh = _mm_add_epi32(lane.cdgh, old.cdgh);
    }
}

/// Single-stream backend of [`ShaNi::compress_blocks`]. Like every
/// `#[target_feature]` function here, it may run only on a CPU with
/// those features, which is why only a [`ShaNi`] token calls it.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_ni(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    let mut lane = [Lane::load(state)];
    for block in blocks {
        rounds(&mut lane, [block]);
    }
    lane[0].store(state);
}

/// Four-lane backend of [`ShaNi::compress4`].
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress4_ni(states: &mut [[u32; 8]; 4], blocks: &[[u8; BLOCK_LEN]; 4]) {
    let mut lanes = [
        Lane::load(&states[0]),
        Lane::load(&states[1]),
        Lane::load(&states[2]),
        Lane::load(&states[3]),
    ];
    rounds(&mut lanes, [&blocks[0], &blocks[1], &blocks[2], &blocks[3]]);
    for (lane, state) in lanes.iter().zip(states.iter_mut()) {
        lane.store(state);
    }
}
