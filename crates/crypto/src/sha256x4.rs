//! Four-lane SHA-256: four independent one-block compressions,
//! interleaved.
//!
//! A single SHA-256 compression is a long dependency chain: each round
//! needs the previous one, so a core spends most of its issue width
//! waiting. Four *independent* compressions, interleaved, fill those
//! idle slots — the classic multi-buffer technique (as in OpenSSL's SHA
//! multi-block and Intel's isa-l). `compress4_states` runs the four
//! blocks on the CPU's SHA extensions when it has them (four
//! `sha256rnds2` chains interleaved, `sha256_ni`) and otherwise on the
//! portable `compress4_portable`, where every round operates on
//! `[u32; 4]` lane arrays that the compiler schedules and vectorizes.
//!
//! The consumer is the 16-lane HMAC of the server scan kernel
//! ([`crate::prf::HmacPrf::eval_lanes_into`]) on CPUs without
//! AVX-512F: it runs its sixteen lanes as four calls here. This is a
//! pure scheduling transform: each lane computes bit-for-bit the
//! compression the scalar backend computes (the module tests and the
//! backend tests in [`crate::sha256`] pin that), so callers funnel
//! into identical accept/reject decisions whichever path ran.

use crate::sha256::{BLOCK_LEN, K};

/// Number of interleaved hash lanes.
pub const LANES: usize = 4;

/// One block into each of four independent states, on the CPU's SHA
/// extensions when it has them (`sha256_ni`, four block chains
/// interleaved) and on the portable [`compress4_portable`] otherwise;
/// both are bit-identical.
pub(crate) fn compress4_states(states: &mut [[u32; 8]; LANES], blocks: &[[u8; BLOCK_LEN]; LANES]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = crate::sha256_ni::ShaNi::detect() {
        ni.compress4(states, blocks);
        return;
    }
    compress4_portable(states, blocks);
}

/// The portable interleaved compression, written in the multi-buffer
/// idiom: every value is a [`V4`] (`[u32; LANES]` elementwise ops) and
/// the 64 rounds are unrolled in the classic 8-round register-rotation
/// pattern, so the whole body is straight-line SSA over vectors — LLVM
/// keeps the working variables in SIMD registers and the four
/// dependency chains issue in parallel. (The x86-64 SSE2 baseline has
/// no vector rotate; a target with one — AVX-512, NEON — gets the full
/// effect.)
pub(crate) fn compress4_portable(
    states: &mut [[u32; 8]; LANES],
    blocks: &[[u8; BLOCK_LEN]; LANES],
) {
    // Message schedules, lane-minor: w[t] is one `[u32; LANES]`.
    let mut w = [V4([0u32; LANES]); 64];
    for (t, wt) in w.iter_mut().take(16).enumerate() {
        for (l, block) in blocks.iter().enumerate() {
            let i = t * 4;
            wt.0[l] = u32::from_be_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
        }
    }
    for t in 16..64 {
        let s0 = w[t - 15].sigma(7, 18, 3);
        let s1 = w[t - 2].sigma(17, 19, 10);
        w[t] = w[t - 16].add(s0).add(w[t - 7]).add(s1);
    }

    // Transpose the state: one vector per working variable.
    let load = |r: usize| V4(std::array::from_fn(|l| states[l][r]));
    let mut a = load(0);
    let mut b = load(1);
    let mut c = load(2);
    let mut d = load(3);
    let mut e = load(4);
    let mut f = load(5);
    let mut g = load(6);
    let mut h = load(7);

    // One round; the caller permutes the variable roles instead of
    // shifting registers (exactly like optimized scalar SHA-256).
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident,
         $e:ident, $f:ident, $g:ident, $h:ident, $t:expr) => {
            let t1 = $h
                .add($e.big_sigma(6, 11, 25))
                .add($e.ch($f, $g))
                .add(V4::splat(K[$t]))
                .add(w[$t]);
            let t2 = $a.big_sigma(2, 13, 22).add($a.maj($b, $c));
            $d = $d.add(t1);
            $h = t1.add(t2);
        };
    }
    let mut t = 0usize;
    while t < 64 {
        round!(a, b, c, d, e, f, g, h, t);
        round!(h, a, b, c, d, e, f, g, t + 1);
        round!(g, h, a, b, c, d, e, f, t + 2);
        round!(f, g, h, a, b, c, d, e, t + 3);
        round!(e, f, g, h, a, b, c, d, t + 4);
        round!(d, e, f, g, h, a, b, c, t + 5);
        round!(c, d, e, f, g, h, a, b, t + 6);
        round!(b, c, d, e, f, g, h, a, t + 7);
        t += 8;
    }

    for (r, v) in [a, b, c, d, e, f, g, h].into_iter().enumerate() {
        for (l, state) in states.iter_mut().enumerate() {
            state[r] = state[r].wrapping_add(v.0[l]);
        }
    }
}

/// `[u32; LANES]` with elementwise SHA-256 operations — the vector the
/// interleaved compression is written in. Plain portable Rust; the
/// fixed-width elementwise loops map straight onto SIMD registers.
#[derive(Copy, Clone)]
struct V4([u32; LANES]);

impl V4 {
    #[inline(always)]
    fn splat(k: u32) -> Self {
        V4([k; LANES])
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        V4(std::array::from_fn(|l| self.0[l].wrapping_add(o.0[l])))
    }

    #[inline(always)]
    fn rotr(self, n: u32) -> Self {
        V4(std::array::from_fn(|l| self.0[l].rotate_right(n)))
    }

    #[inline(always)]
    fn shr(self, n: u32) -> Self {
        V4(std::array::from_fn(|l| self.0[l] >> n))
    }

    #[inline(always)]
    fn xor(self, o: Self) -> Self {
        V4(std::array::from_fn(|l| self.0[l] ^ o.0[l]))
    }

    /// `σ`: two rotations and a shift (message schedule).
    #[inline(always)]
    fn sigma(self, r1: u32, r2: u32, s: u32) -> Self {
        self.rotr(r1).xor(self.rotr(r2)).xor(self.shr(s))
    }

    /// `Σ`: three rotations (round function).
    #[inline(always)]
    fn big_sigma(self, r1: u32, r2: u32, r3: u32) -> Self {
        self.rotr(r1).xor(self.rotr(r2)).xor(self.rotr(r3))
    }

    /// `Ch(e, f, g) = (e ∧ f) ⊕ (¬e ∧ g)`.
    #[inline(always)]
    fn ch(self, f: Self, g: Self) -> Self {
        V4(std::array::from_fn(|l| {
            (self.0[l] & f.0[l]) ^ (!self.0[l] & g.0[l])
        }))
    }

    /// `Maj(a, b, c) = (a ∧ b) ⊕ (a ∧ c) ⊕ (b ∧ c)`.
    #[inline(always)]
    fn maj(self, b: Self, c: Self) -> Self {
        V4(std::array::from_fn(|l| {
            (self.0[l] & b.0[l]) ^ (self.0[l] & c.0[l]) ^ (b.0[l] & c.0[l])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{Sha256, DIGEST_LEN, H0};

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

    /// `tail` padded as the end of a message that began with
    /// `prefix_len` already-hashed bytes: 0x80, zeros, bit length.
    fn padded(prefix_len: usize, tail: &[u8]) -> Vec<[u8; BLOCK_LEN]> {
        let mut bytes = tail.to_vec();
        bytes.push(0x80);
        while bytes.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            bytes.push(0);
        }
        let bits = ((prefix_len + tail.len()) as u64) * 8;
        bytes.extend_from_slice(&bits.to_be_bytes());
        bytes.as_chunks::<BLOCK_LEN>().0.to_vec()
    }

    /// Digests of four equal-length tails, every block through the
    /// 4-lane compression, each lane starting from `start`.
    fn lanes_digest(
        start: [u32; 8],
        prefix_len: usize,
        tails: [&[u8]; LANES],
    ) -> [[u8; DIGEST_LEN]; LANES] {
        let blocks = tails.map(|tail| padded(prefix_len, tail));
        let mut states = [start; LANES];
        for b in 0..blocks[0].len() {
            compress4_states(&mut states, &blocks.each_ref().map(|lane| lane[b]));
        }
        states.map(|state| {
            let mut out = [0u8; DIGEST_LEN];
            crate::sha256::write_be(&mut out, &state);
            out
        })
    }

    #[test]
    fn lanes_match_scalar_across_padding_boundaries() {
        // Every padding path: short, 55/56/57, one block, crossing
        // blocks, several blocks.
        for len in [
            0usize, 1, 13, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 300,
        ] {
            let msgs: Vec<Vec<u8>> = (0..LANES as u64)
                .map(|l| splatter(l * 7 + 1, len))
                .collect();
            let out = lanes_digest(H0, 0, std::array::from_fn(|l| &msgs[l][..]));
            for (l, msg) in msgs.iter().enumerate() {
                assert_eq!(
                    out[l],
                    Sha256::digest(msg),
                    "lane {l} diverged at len {len}"
                );
            }
        }
    }

    #[test]
    fn from_state_continues_a_shared_prefix() {
        // The HMAC shape: one 64-byte prefix absorbed once, then four
        // different continuations.
        let prefix = splatter(5, BLOCK_LEN);
        let mut shared = H0;
        crate::sha256::compress_portable(&mut shared, &prefix.as_chunks::<BLOCK_LEN>().0[0]);

        let tails: Vec<Vec<u8>> = (0..LANES as u64).map(|l| splatter(l + 40, 77)).collect();
        let out = lanes_digest(shared, BLOCK_LEN, std::array::from_fn(|l| &tails[l][..]));
        for (l, tail) in tails.iter().enumerate() {
            let mut scalar = Sha256::new();
            scalar.update(&prefix);
            scalar.update(tail);
            assert_eq!(out[l], scalar.finalize(), "lane {l} diverged after prefix");
        }
    }

    #[test]
    fn known_vector_in_every_lane() {
        let out = lanes_digest(H0, 0, [b"abc"; LANES]);
        let hex: String = out[0].iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert!(out.iter().all(|lane| lane == &out[0]));
    }
}
