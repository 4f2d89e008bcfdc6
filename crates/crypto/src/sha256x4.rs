//! Four-lane SHA-256: four independent hash computations in lockstep.
//!
//! The consumer is the server-side trapdoor scan: one HMAC check-PRF
//! evaluation per `(trapdoor, cipher word)` pair, millions per query,
//! all under the *same* key and all over equal-length messages. That
//! shape is exactly what this type supports — four lanes advancing in
//! lockstep (equal-length updates), seeded either fresh or from one
//! shared block-aligned prefix state (the HMAC key schedule, run once).
//!
//! A single SHA-256 compression is a long dependency chain: each round
//! needs the previous one, so a core spends most of its issue width
//! waiting. Four *independent* compressions, interleaved, fill those
//! idle slots — the classic multi-buffer technique (as in OpenSSL's SHA
//! multi-block and Intel's isa-l). `compress4_states` runs the four
//! blocks on the CPU's SHA extensions when it has them (four
//! `sha256rnds2` chains interleaved, `sha256_ni`) and
//! otherwise on the portable `compress4_portable`, where every round
//! operates on `[u32; 4]` lane arrays that the compiler schedules and
//! vectorizes.
//!
//! This is a pure scheduling transform: each lane computes bit-for-bit
//! the digest [`Sha256`] computes (the module tests and the backend
//! tests in [`crate::sha256`] pin that), so callers funnel into
//! identical accept/reject decisions whichever path ran.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN, H0, K};

/// Number of interleaved hash lanes.
pub const LANES: usize = 4;

/// Four SHA-256 computations advancing in lockstep.
///
/// All lanes must absorb the same number of bytes per [`update`]
/// (enforced), so one shared buffer fill level and total length cover
/// all four. Finalization pads every lane identically and runs the
/// last compression 4-wide.
///
/// [`update`]: Sha256x4::update
#[derive(Clone)]
pub struct Sha256x4 {
    /// Per-lane hash state.
    states: [[u32; 8]; LANES],
    /// Per-lane partial-block buffers (same fill level in every lane).
    buf: [[u8; BLOCK_LEN]; LANES],
    /// Valid bytes in each lane's buffer.
    buf_len: usize,
    /// Bytes absorbed per lane (equal by construction).
    total_len: u64,
}

impl Default for Sha256x4 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256x4 {
    /// Four fresh hashers.
    #[must_use]
    pub fn new() -> Self {
        Sha256x4 {
            states: [H0; LANES],
            buf: [[0u8; BLOCK_LEN]; LANES],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Four hashers that have all absorbed the same block-aligned
    /// prefix, given that prefix's `(state, length)` — the shape HMAC
    /// needs: the key schedule (one `ipad`/`opad` block) runs once and
    /// every lane continues from it.
    ///
    /// # Panics
    /// Debug-asserts that `prefix_len` is a whole number of blocks;
    /// a partial block cannot be replicated into lockstep lanes.
    #[must_use]
    pub fn from_state(state: [u32; 8], prefix_len: u64) -> Self {
        debug_assert_eq!(
            prefix_len % BLOCK_LEN as u64,
            0,
            "lane prefix must be block-aligned"
        );
        Sha256x4 {
            states: [state; LANES],
            buf: [[0u8; BLOCK_LEN]; LANES],
            buf_len: 0,
            total_len: prefix_len,
        }
    }

    /// Four hashers continuing a scalar hasher's block-aligned state
    /// (see [`Sha256`]); the seed for the HMAC inner/outer lanes.
    #[must_use]
    pub fn from_sha256(h: &Sha256) -> Self {
        let (state, len) = h.lane_seed();
        Self::from_state(state, len)
    }

    /// Absorbs `msgs[l]` into lane `l`. All four messages must have the
    /// same length — the lanes advance in lockstep.
    ///
    /// # Panics
    /// Panics if the message lengths differ.
    pub fn update(&mut self, msgs: [&[u8]; LANES]) {
        let len = msgs[0].len();
        assert!(
            msgs.iter().all(|m| m.len() == len),
            "lanes must advance in lockstep (equal-length updates)"
        );
        self.total_len = self.total_len.wrapping_add(len as u64);
        let mut pos = 0usize;

        // Top up the shared partial block.
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(len);
            for (buf, msg) in self.buf.iter_mut().zip(&msgs) {
                buf[self.buf_len..self.buf_len + take].copy_from_slice(&msg[..take]);
            }
            self.buf_len += take;
            pos = take;
            if self.buf_len == BLOCK_LEN {
                let blocks = self.buf;
                self.compress4(&blocks);
                self.buf_len = 0;
            }
        }

        // Whole blocks, four at a time across the lanes.
        while len - pos >= BLOCK_LEN {
            let mut blocks = [[0u8; BLOCK_LEN]; LANES];
            for (block, msg) in blocks.iter_mut().zip(&msgs) {
                block.copy_from_slice(&msg[pos..pos + BLOCK_LEN]);
            }
            self.compress4(&blocks);
            pos += BLOCK_LEN;
        }

        // Stash the remainder.
        if pos < len {
            for (buf, msg) in self.buf.iter_mut().zip(&msgs) {
                buf[..len - pos].copy_from_slice(&msg[pos..]);
            }
            self.buf_len = len - pos;
        }
    }

    /// Finishes all four computations, writing lane `l`'s digest to
    /// `out[l]`. Padding is identical across lanes (equal lengths), so
    /// the final compressions run 4-wide too.
    pub fn finalize_into(mut self, out: &mut [[u8; DIGEST_LEN]; LANES]) {
        let bit_len = self.total_len.wrapping_mul(8);
        let n = self.buf_len;
        for buf in &mut self.buf {
            buf[n] = 0x80;
        }
        if n + 1 > 56 {
            // No room for the length: pad this block out and compress.
            for buf in &mut self.buf {
                buf[n + 1..].fill(0);
            }
            let blocks = self.buf;
            self.compress4(&blocks);
            for buf in &mut self.buf {
                buf[..56].fill(0);
            }
        } else {
            for buf in &mut self.buf {
                buf[n + 1..56].fill(0);
            }
        }
        for buf in &mut self.buf {
            buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        }
        let blocks = self.buf;
        self.compress4(&blocks);
        write_digests(&self.states, out);
    }

    /// FIPS 180-4 §6.2.2 over four independent blocks, interleaved.
    fn compress4(&mut self, blocks: &[[u8; BLOCK_LEN]; LANES]) {
        compress4_states(&mut self.states, blocks);
    }
}

/// Serializes four lane states into four big-endian digests.
pub(crate) fn write_digests(states: &[[u32; 8]; LANES], out: &mut [[u8; DIGEST_LEN]; LANES]) {
    for (digest, state) in out.iter_mut().zip(states) {
        for (chunk, word) in digest.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
    }
}

/// The interleaved compression over bare states — shared by the
/// incremental [`Sha256x4`] and the crate-internal single-block HMAC
/// fast path ([`crate::prf::HmacPrf::eval4_into`]), which pads its
/// blocks itself and skips the buffering machinery entirely.
///
/// Runs on the CPU's SHA extensions when it has them
/// (`sha256_ni`, four block chains interleaved) and on the
/// portable `compress4_portable` otherwise; both are bit-identical.
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

    fn lanes_digest(msgs: [&[u8]; LANES]) -> [[u8; DIGEST_LEN]; LANES] {
        let mut h = Sha256x4::new();
        h.update(msgs);
        let mut out = [[0u8; DIGEST_LEN]; LANES];
        h.finalize_into(&mut out);
        out
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
            let out = lanes_digest([&msgs[0], &msgs[1], &msgs[2], &msgs[3]]);
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
    fn incremental_updates_match_oneshot() {
        let msgs: Vec<Vec<u8>> = (0..LANES as u64).map(|l| splatter(l + 99, 200)).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 199, 200] {
            let mut h = Sha256x4::new();
            h.update([
                &msgs[0][..split],
                &msgs[1][..split],
                &msgs[2][..split],
                &msgs[3][..split],
            ]);
            h.update([
                &msgs[0][split..],
                &msgs[1][split..],
                &msgs[2][split..],
                &msgs[3][split..],
            ]);
            let mut out = [[0u8; DIGEST_LEN]; LANES];
            h.finalize_into(&mut out);
            for (l, msg) in msgs.iter().enumerate() {
                assert_eq!(out[l], Sha256::digest(msg), "lane {l} split {split}");
            }
        }
    }

    #[test]
    fn from_state_continues_a_shared_prefix() {
        // The HMAC shape: one 64-byte prefix absorbed once, then four
        // different continuations.
        let prefix = splatter(5, BLOCK_LEN);
        let mut scalar_prefix = Sha256::new();
        scalar_prefix.update(&prefix);

        let tails: Vec<Vec<u8>> = (0..LANES as u64).map(|l| splatter(l + 40, 77)).collect();
        let mut lanes = Sha256x4::from_sha256(&scalar_prefix);
        lanes.update([&tails[0], &tails[1], &tails[2], &tails[3]]);
        let mut out = [[0u8; DIGEST_LEN]; LANES];
        lanes.finalize_into(&mut out);

        for (l, tail) in tails.iter().enumerate() {
            let mut scalar = scalar_prefix.clone();
            scalar.update(tail);
            assert_eq!(out[l], scalar.finalize(), "lane {l} diverged after prefix");
        }
    }

    #[test]
    #[should_panic(expected = "lockstep")]
    fn unequal_lane_lengths_rejected() {
        let mut h = Sha256x4::new();
        h.update([b"aa", b"aa", b"aa", b"a"]);
    }

    #[test]
    fn known_vector_in_every_lane() {
        let out = lanes_digest([b"abc", b"abc", b"abc", b"abc"]);
        let expected = Sha256::digest(b"abc");
        for lane in &out {
            assert_eq!(lane, &expected);
        }
        let hex: String = out[0].iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }
}
