//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! This is the collision-resistant hash underlying [`crate::hmac`] and,
//! through it, every PRF in the workspace. The hasher is a
//! straightforward translation of FIPS 180-4 §6.2 with an incremental
//! (`update`/`finalize`) interface so callers can hash streams without
//! buffering them.
//!
//! Every block goes through `compress_blocks`, which runs on the
//! CPU's SHA extensions when it has them (`sha256_ni`, picked
//! by one runtime feature check) and on the portable
//! `compress_portable` otherwise. The lane backends — `sha256x4` and,
//! on AVX-512F, `sha256_avx512` — serve the server scan kernel. All
//! backends are bit-identical; this module owns the round constants
//! and initial state they share.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (relevant for HMAC key padding).
pub const BLOCK_LEN: usize = 64;

/// SHA-256 round constants: first 32 bits of the fractional parts of
/// the cube roots of the first 64 primes (FIPS 180-4 §4.2.2).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use dbph_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partial block buffer.
    buf: [u8; BLOCK_LEN],
    /// Number of valid bytes in `buf`.
    buf_len: usize,
    /// Total message length processed so far, in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;

        // Top up a partial block first.
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == BLOCK_LEN {
                compress_blocks(&mut self.state, std::slice::from_ref(&self.buf));
                self.buf_len = 0;
            }
        }

        // Whole blocks straight from the input, in one backend call.
        let (blocks, tail) = rest.as_chunks::<BLOCK_LEN>();
        compress_blocks(&mut self.state, blocks);
        rest = tail;

        // Stash the remainder.
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the computation and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding in place: the buffered tail, 0x80, zeros, and the
        // 64-bit big-endian bit length — one block, or two when the
        // length no longer fits after the tail.
        let n = self.buf_len;
        let mut tail = [[0u8; BLOCK_LEN]; 2];
        tail[0][..n].copy_from_slice(&self.buf[..n]);
        tail[0][n] = 0x80;
        let blocks = if n < BLOCK_LEN - 8 { 1 } else { 2 };
        let bit_len = self.total_len.wrapping_mul(8);
        tail[blocks - 1][BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &tail[..blocks]);

        let mut out = [0u8; DIGEST_LEN];
        write_be(&mut out, &self.state);
        out
    }

    /// One-shot convenience: `Sha256::digest(m) == {new; update(m); finalize}`.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// The compression state, for callers that pad and compress the
    /// rest of the message themselves (the one-block HMAC paths). Only
    /// valid at a block boundary, where no bytes are buffered.
    pub(crate) fn block_state(&self) -> [u32; 8] {
        debug_assert_eq!(
            self.buf_len, 0,
            "the bare state requires a block-aligned hasher"
        );
        self.state
    }
}

/// Writes the big-endian bytes of `words` over `out`, as far as `out`
/// reaches: a digest, or the leading bytes of one.
pub(crate) fn write_be(out: &mut [u8], words: &[u32]) {
    for (chunk, word) in out.chunks_mut(4).zip(words) {
        chunk.copy_from_slice(&word.to_be_bytes()[..chunk.len()]);
    }
}

/// Compresses `blocks`, in order, into `state` on the fastest backend
/// this CPU has. Every SHA-256 block in the crate except the scan
/// kernel's lane blocks goes through here.
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(ni) = crate::sha256_ni::ShaNi::detect() {
        ni.compress_blocks(state, blocks);
        return;
    }
    for block in blocks {
        compress_portable(state, block);
    }
}

/// FIPS 180-4 §6.2.2 compression function over one 512-bit block —
/// the portable backend, and the reference the hardware one is tested
/// against.
pub(crate) fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-4 / NIST CAVP standard vectors.
    #[test]
    fn empty_message() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn four_block_message() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(&Sha256::digest(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let msg: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&msg), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_equals_oneshot() {
        let msg = b"The quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for b in msg.iter() {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), Sha256::digest(msg));
        assert_eq!(
            hex(&Sha256::digest(msg)),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
        );
    }

    #[test]
    fn padding_boundary_lengths() {
        // Messages of length 55, 56, 57, 63, 64, 65 hit every padding path.
        // Cross-check: hashing twice must agree, and all results differ.
        let mut seen = std::collections::HashSet::new();
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let msg = vec![0xA5u8; len];
            let d1 = Sha256::digest(&msg);
            let d2 = Sha256::digest(&msg);
            assert_eq!(d1, d2);
            assert!(seen.insert(d1), "collision at length {len}");
        }
    }

    #[test]
    fn clone_preserves_state() {
        let mut h = Sha256::new();
        h.update(b"partial ");
        let mut h2 = h.clone();
        h.update(b"message");
        h2.update(b"message");
        assert_eq!(h.finalize(), h2.finalize());
    }
}

/// Backend equivalence: the hardware compressions (when this CPU has
/// them) and the portable 4-lane kernel against the portable scalar
/// reference, on random states and blocks, on the standard vectors,
/// and through `finalize` at every padding length.
#[cfg(test)]
mod backend_tests {
    use super::*;
    use crate::rng::{DeterministicRng, EntropySource};
    use crate::sha256x4::{compress4_portable, LANES};

    type Compress = fn(&mut [u32; 8], &[[u8; BLOCK_LEN]]);
    type Compress4 = fn(&mut [[u32; 8]; LANES], &[[u8; BLOCK_LEN]; LANES]);

    /// Sixteen lanes, one block each.
    const WIDE: usize = 16;
    type Compress16 = fn(&mut [[u32; 8]; WIDE], &[[u8; BLOCK_LEN]; WIDE]);

    /// Sixteen lanes as four calls to a 4-lane compression.
    fn by_quads(
        compress4: Compress4,
        states: &mut [[u32; 8]; WIDE],
        blocks: &[[u8; BLOCK_LEN]; WIDE],
    ) {
        let (states, _) = states.as_chunks_mut::<LANES>();
        let (blocks, _) = blocks.as_chunks::<LANES>();
        for (states, blocks) in states.iter_mut().zip(blocks) {
            compress4(states, blocks);
        }
    }

    /// Every way this CPU can compress sixteen lanes: the portable and
    /// SHA-NI 4-lane kernels four times, and AVX-512F in one call. When
    /// AVX-512F is missing, says so past the output capture.
    fn wide_backends(test: &str) -> Vec<(&'static str, Compress16)> {
        let mut out: Vec<(&'static str, Compress16)> = vec![("portable x4", |states, blocks| {
            by_quads(compress4_portable, states, blocks)
        })];
        #[cfg(target_arch = "x86_64")]
        {
            if crate::sha256_ni::ShaNi::detect().is_some() {
                out.push(("sha-ni x4", |states, blocks| {
                    by_quads(
                        |s, b| {
                            let ni = crate::sha256_ni::ShaNi::detect().expect("detected above");
                            ni.compress4(s, b);
                        },
                        states,
                        blocks,
                    );
                }));
            }
            if crate::sha256_avx512::Avx512::detect().is_some() {
                out.push(("avx-512", |states, blocks| {
                    let avx = crate::sha256_avx512::Avx512::detect().expect("detected above");
                    // The backend is lane-major: transpose in and out.
                    let mut rows: [[u32; WIDE]; 8] =
                        std::array::from_fn(|r| std::array::from_fn(|l| states[l][r]));
                    let words = std::array::from_fn(|t| {
                        std::array::from_fn(|l| {
                            u32::from_be_bytes(blocks[l][4 * t..4 * t + 4].try_into().unwrap())
                        })
                    });
                    avx.compress16(&mut rows, &words);
                    *states = std::array::from_fn(|l| std::array::from_fn(|r| rows[r][l]));
                }));
            }
        }
        if !out.iter().any(|(name, _)| *name == "avx-512") {
            use std::io::Write as _;
            let _ = writeln!(
                std::io::stderr(),
                "{test}: AVX-512F not available on this CPU; 16-lane backend checks SKIPPED"
            );
        }
        out
    }

    /// SHA-256 of each of sixteen messages of any lengths, every block
    /// through `compress16`. A lane whose message has run out rides
    /// along on a zero block and keeps its state.
    fn digests16(compress16: Compress16, msgs: &[&[u8]; WIDE]) -> [[u8; DIGEST_LEN]; WIDE] {
        let padded: Vec<Vec<[u8; BLOCK_LEN]>> = msgs.iter().map(|m| pad(m)).collect();
        let mut states = [H0; WIDE];
        for b in 0..padded.iter().map(Vec::len).max().unwrap_or(0) {
            let blocks =
                std::array::from_fn(|l| padded[l].get(b).copied().unwrap_or([0; BLOCK_LEN]));
            let mut next = states;
            compress16(&mut next, &blocks);
            for (l, state) in states.iter_mut().enumerate() {
                if b < padded[l].len() {
                    *state = next[l];
                }
            }
        }
        states.map(|state| {
            let mut out = [0u8; DIGEST_LEN];
            write_be(&mut out, &state);
            out
        })
    }

    /// `msg` with its FIPS 180-4 padding, as blocks.
    fn pad(msg: &[u8]) -> Vec<[u8; BLOCK_LEN]> {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&((msg.len() as u64) * 8).to_be_bytes());
        let (blocks, rest) = padded.as_chunks::<BLOCK_LEN>();
        assert!(rest.is_empty());
        blocks.to_vec()
    }

    /// One backend's single-stream and 4-lane compressions.
    struct Backend {
        name: &'static str,
        compress: Compress,
        compress4: Compress4,
    }

    fn portable(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
        for block in blocks {
            compress_portable(state, block);
        }
    }

    /// Every backend this CPU can run, portable first. When SHA-NI is
    /// missing, says so on the terminal — past the test harness's
    /// output capture — so the skipped half is visible.
    fn backends(test: &str) -> Vec<Backend> {
        let mut out = vec![Backend {
            name: "portable",
            compress: portable,
            compress4: compress4_portable,
        }];
        #[cfg(target_arch = "x86_64")]
        if crate::sha256_ni::ShaNi::detect().is_some() {
            fn ni() -> crate::sha256_ni::ShaNi {
                crate::sha256_ni::ShaNi::detect().expect("detected above")
            }
            out.push(Backend {
                name: "sha-ni",
                compress: |state, blocks| ni().compress_blocks(state, blocks),
                compress4: |states, blocks| ni().compress4(states, blocks),
            });
        }
        if out.len() == 1 {
            use std::io::Write as _;
            let _ = writeln!(
                std::io::stderr(),
                "{test}: SHA-NI not available on this CPU; hardware backend checks SKIPPED"
            );
        }
        out
    }

    /// SHA-256 of `msg` with every block compressed by `compress` —
    /// the FIPS 180-4 padding written out independently of `finalize`.
    fn digest_with(compress: Compress, msg: &[u8]) -> [u8; DIGEST_LEN] {
        let mut state = H0;
        compress(&mut state, &pad(msg));
        let mut out = [0u8; DIGEST_LEN];
        write_be(&mut out, &state);
        out
    }

    /// HMAC-SHA-256 (RFC 2104) over [`digest_with`].
    fn hmac_with(compress: Compress, key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
        let mut block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block[..DIGEST_LEN].copy_from_slice(&digest_with(compress, key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| block.iter().map(|k| k ^ byte).collect::<Vec<u8>>();
        let mut inner = pad(0x36);
        inner.extend_from_slice(msg);
        let mut outer = pad(0x5c);
        outer.extend_from_slice(&digest_with(compress, &inner));
        digest_with(compress, &outer)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn random_state(rng: &mut DeterministicRng) -> [u32; 8] {
        let bytes: [u8; 32] = rng.array();
        std::array::from_fn(|i| u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap()))
    }

    #[test]
    fn sha256_backends_agree_on_random_states_and_blocks() {
        let backends = backends("sha256_backends_agree_on_random_states_and_blocks");
        let mut rng = DeterministicRng::from_seed(0x5ba2_5600);
        for _ in 0..10_000 / LANES {
            let states: [[u32; 8]; LANES] = std::array::from_fn(|_| random_state(&mut rng));
            let blocks: [[u8; BLOCK_LEN]; LANES] = std::array::from_fn(|_| rng.array());
            let mut expected = states;
            for (state, block) in expected.iter_mut().zip(&blocks) {
                compress_portable(state, block);
            }
            let mut chain_expected = states[0];
            portable(&mut chain_expected, &blocks);

            for backend in &backends {
                let name = backend.name;
                let mut lanes = states;
                (backend.compress4)(&mut lanes, &blocks);
                assert_eq!(lanes, expected, "{name}: 4-lane diverged");
                let mut single = states;
                for (state, block) in single.iter_mut().zip(&blocks) {
                    (backend.compress)(state, std::slice::from_ref(block));
                }
                assert_eq!(single, expected, "{name}: single-lane diverged");
                // Four chained blocks in one call.
                let mut chain = states[0];
                (backend.compress)(&mut chain, &blocks);
                assert_eq!(chain, chain_expected, "{name}: block chain diverged");
            }
        }
    }

    #[test]
    fn sha256_sixteen_lane_backends_agree_on_random_states_and_blocks() {
        let backends =
            wide_backends("sha256_sixteen_lane_backends_agree_on_random_states_and_blocks");
        let mut rng = DeterministicRng::from_seed(0x5ba2_5616);
        for _ in 0..10_000 {
            let states: [[u32; 8]; WIDE] = std::array::from_fn(|_| random_state(&mut rng));
            let blocks: [[u8; BLOCK_LEN]; WIDE] = std::array::from_fn(|_| rng.array());
            let mut expected = states;
            for (state, block) in expected.iter_mut().zip(&blocks) {
                compress_portable(state, block);
            }
            for (name, compress16) in &backends {
                let mut lanes = states;
                compress16(&mut lanes, &blocks);
                assert_eq!(lanes, expected, "{name}: 16-lane diverged");
            }
        }
    }

    #[test]
    fn sha256_fips_vectors_in_different_lanes_on_every_sixteen_lane_backend() {
        // A different message in every lane, so a lane mix-up or a
        // transposition error cannot cancel out: the five FIPS 180-4
        // vectors and eleven more, of every block count from 1 to
        // 15,626.
        let quad = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        let million = vec![b'a'; 1_000_000];
        let fips: [(&[u8], &str); 5] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                quad,
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &million,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        let extra: Vec<Vec<u8>> = (0..WIDE - fips.len())
            .map(|i| (0..i * 23 + 1).map(|j| (j * 7 + i) as u8).collect())
            .collect();
        let msgs: [&[u8]; WIDE] = std::array::from_fn(|l| match fips.get(l) {
            Some((msg, _)) => *msg,
            None => &extra[l - fips.len()][..],
        });
        for (name, compress16) in
            wide_backends("sha256_fips_vectors_in_different_lanes_on_every_sixteen_lane_backend")
        {
            let got = digests16(compress16, &msgs);
            for (l, (_, want)) in fips.iter().enumerate() {
                assert_eq!(hex(&got[l]), *want, "{name}: FIPS 180-4 vector in lane {l}");
            }
            for (l, msg) in msgs.iter().enumerate().skip(fips.len()) {
                assert_eq!(got[l], Sha256::digest(msg), "{name}: lane {l}");
            }
        }
    }

    #[test]
    fn sha256_fips_and_rfc4231_vectors_on_every_backend() {
        let quad = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        let fips: [(&[u8], &str); 5] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                quad,
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &[b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        let key4: Vec<u8> = (1..=25u8).collect();
        let rfc4231: [(&[u8], &[u8], &str); 7] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &key4,
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            // Case 5 is specified truncated to 128 bits.
            (
                &[0x0c; 20],
                b"Test With Truncation",
                "a3b6167473100ee06e0c796c2955552b",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for Backend { name, compress, .. } in
            backends("sha256_fips_and_rfc4231_vectors_on_every_backend")
        {
            for (msg, want) in fips {
                assert_eq!(hex(&digest_with(compress, msg)), want, "{name}: FIPS 180-4");
            }
            for (key, msg, want) in rfc4231 {
                let tag = hex(&hmac_with(compress, key, msg));
                assert_eq!(&tag[..want.len()], want, "{name}: RFC 4231");
            }
        }
        // And through the dispatched production entry points.
        for (msg, want) in fips {
            assert_eq!(hex(&Sha256::digest(msg)), want);
        }
        for (key, msg, want) in rfc4231 {
            let tag = hex(&crate::hmac::HmacSha256::mac(key, msg));
            assert_eq!(&tag[..want.len()], want);
        }
    }

    #[test]
    fn sha256_finalize_every_length_matches_portable_and_lanes() {
        let mut rng = DeterministicRng::from_seed(200);
        let test = "sha256_finalize_every_length_matches_portable_and_lanes";
        let backends = backends(test);
        let wide = wide_backends(test);
        for len in 0..=200usize {
            let msgs: [Vec<u8>; WIDE] = std::array::from_fn(|_| {
                let mut m = vec![0u8; len];
                rng.fill(&mut m);
                m
            });
            let refs: [&[u8]; WIDE] = std::array::from_fn(|l| &msgs[l][..]);
            let lanes: Vec<_> = wide
                .iter()
                .map(|(name, compress16)| (name, digests16(*compress16, &refs)))
                .collect();
            for (l, msg) in msgs.iter().enumerate() {
                let got = Sha256::digest(msg);
                for Backend { name, compress, .. } in &backends {
                    assert_eq!(got, digest_with(*compress, msg), "{name} at len {len}");
                }
                for (name, digests) in &lanes {
                    assert_eq!(got, digests[l], "{name} lane {l} at len {len}");
                }
            }
        }
    }
}
