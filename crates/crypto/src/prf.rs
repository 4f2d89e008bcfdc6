//! Pseudorandom function abstraction.
//!
//! The Song–Wagner–Perrig scheme is parameterized by a keyed PRF
//! `F : K × {0,1}* → {0,1}^m`; the paper's proof assumes only PRF
//! security. Abstracting it as a trait lets the searchable-encryption
//! crate stay generic and lets tests substitute counterfeit PRFs
//! (e.g. a constant function) to check that the security experiments
//! actually notice broken primitives.

use crate::hmac::{HmacSha256, MAC_LEN};
use crate::sha256::BLOCK_LEN;
use crate::sha256x4::{compress4_states, write_digests, LANES};

/// A keyed pseudorandom function producing arbitrary-length output.
pub trait Prf: Clone + Send + Sync {
    /// Evaluates the PRF on `input`, writing exactly `out.len()` bytes.
    fn eval_into(&self, input: &[u8], out: &mut [u8]);

    /// Evaluates the PRF and returns `len` bytes.
    fn eval(&self, input: &[u8], len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.eval_into(input, &mut out);
        out
    }
}

/// HMAC-SHA-256 in counter mode as a variable-output-length PRF.
///
/// For output lengths ≤ 32 bytes a single HMAC call suffices; longer
/// outputs concatenate `HMAC(k, input ‖ ctr)` blocks. The HMAC key
/// schedule (two compression calls over the padded key) runs once in
/// [`HmacPrf::new`] and the keyed state is cloned per block — callers
/// that evaluate the same key against many inputs (the server-side
/// trapdoor scan above all) get the hoisted schedule for free.
#[derive(Clone)]
pub struct HmacPrf {
    /// Keyed HMAC state with no message absorbed yet.
    mac: HmacSha256,
}

impl HmacPrf {
    /// Creates a PRF instance keyed with `key`.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        HmacPrf {
            mac: HmacSha256::new(key),
        }
    }

    /// Evaluates the PRF on four equal-length inputs at once, writing
    /// `outs[l].len()` bytes for lane `l` (all four lengths equal).
    ///
    /// Bit-identical to four [`Prf::eval_into`] calls, but the eight
    /// underlying SHA-256 compressions per block (four inner, four
    /// outer) run through one interleaved 4-lane pipeline
    /// ([`crate::sha256x4::Sha256x4`]) and the key schedule is shared —
    /// this is the dispatch unit of the server-side scan kernel.
    /// Allocation-free.
    ///
    /// # Panics
    /// Panics if the input lengths or the output lengths differ across
    /// lanes (the lanes advance in lockstep).
    pub fn eval4_into(&self, msgs: [&[u8]; LANES], outs: &mut [&mut [u8]; LANES]) {
        let msg_len = msgs[0].len();
        let out_len = outs[0].len();
        assert!(
            msgs.iter().all(|m| m.len() == msg_len) && outs.iter().all(|o| o.len() == out_len),
            "eval4_into lanes must advance in lockstep (equal lengths)"
        );
        // Room for message + counter + 0x80 + the 64-bit length?
        let single_block = msg_len + 4 + 1 + 8 <= BLOCK_LEN;
        let mut offset = 0usize;
        let mut counter: u32 = 0;
        while offset < out_len {
            let ctr = counter.to_be_bytes();
            let mut tags = [[0u8; MAC_LEN]; LANES];
            if single_block {
                self.block4(msgs, msg_len, &ctr, &mut tags);
            } else {
                let (mut inner, mut outer) = self.mac.keyed_lanes();
                inner.update(msgs);
                inner.update([&ctr; LANES]);
                let mut digests = [[0u8; MAC_LEN]; LANES];
                inner.finalize_into(&mut digests);
                outer.update([&digests[0], &digests[1], &digests[2], &digests[3]]);
                outer.finalize_into(&mut tags);
            }
            let take = (out_len - offset).min(MAC_LEN);
            for (out, tag) in outs.iter_mut().zip(&tags) {
                out[offset..offset + take].copy_from_slice(&tag[..take]);
            }
            offset += take;
            counter += 1;
        }
    }

    /// One HMAC counter block for four short messages: both hashes are
    /// exactly one compression each (the common scan shape — the check
    /// PRF input is `stream_len + 4` bytes, far under a block), so the
    /// blocks are padded in place and fed straight to the raw
    /// interleaved compression, skipping all buffering.
    fn block4(
        &self,
        msgs: [&[u8]; LANES],
        msg_len: usize,
        ctr: &[u8; 4],
        tags: &mut [[u8; MAC_LEN]; LANES],
    ) {
        let (inner_state, outer_state) = self.mac.lane_states();
        // Inner: ipad block ‖ msg ‖ ctr, padded.
        let n = msg_len + 4;
        let mut blocks = [[0u8; BLOCK_LEN]; LANES];
        for (block, msg) in blocks.iter_mut().zip(&msgs) {
            block[..msg_len].copy_from_slice(msg);
            block[msg_len..n].copy_from_slice(ctr);
            block[n] = 0x80;
            let bits = ((BLOCK_LEN + n) as u64) * 8;
            block[56..].copy_from_slice(&bits.to_be_bytes());
        }
        let mut states = [inner_state; LANES];
        compress4_states(&mut states, &blocks);
        let mut digests = [[0u8; MAC_LEN]; LANES];
        write_digests(&states, &mut digests);
        // Outer: opad block ‖ digest, padded (always single-block).
        let mut blocks = [[0u8; BLOCK_LEN]; LANES];
        for (block, digest) in blocks.iter_mut().zip(&digests) {
            block[..MAC_LEN].copy_from_slice(digest);
            block[MAC_LEN] = 0x80;
            let bits = ((BLOCK_LEN + MAC_LEN) as u64) * 8;
            block[56..].copy_from_slice(&bits.to_be_bytes());
        }
        let mut states = [outer_state; LANES];
        compress4_states(&mut states, &blocks);
        write_digests(&states, tags);
    }

    /// XORs the first `target.len()` bytes of `F(prefix ‖ input)` —
    /// exactly what [`Prf::eval_into`] writes for the concatenated
    /// input — over `target`, without building the concatenation or
    /// the output. Allocation-free.
    pub(crate) fn xor_into(&self, prefix: &[u8], input: &[u8], target: &mut [u8]) {
        for (counter, chunk) in (0u32..).zip(target.chunks_mut(MAC_LEN)) {
            let mut h = self.mac.clone();
            h.update(prefix);
            h.update(input);
            h.update(&counter.to_be_bytes());
            for (t, m) in chunk.iter_mut().zip(h.finalize()) {
                *t ^= m;
            }
        }
    }
}

impl Prf for HmacPrf {
    fn eval_into(&self, input: &[u8], out: &mut [u8]) {
        out.fill(0);
        self.xor_into(&[], input, out);
    }
}

/// A deliberately broken PRF that returns all zero bytes.
///
/// Exists so the security-game tests can demonstrate that the harness
/// detects bad primitives: an SWP instance built on [`ZeroPrf`] leaks
/// and the distinguisher's measured advantage rises accordingly.
#[derive(Clone)]
pub struct ZeroPrf;

impl Prf for ZeroPrf {
    fn eval_into(&self, _input: &[u8], out: &mut [u8]) {
        out.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let prf = HmacPrf::new(b"key");
        assert_eq!(prf.eval(b"input", 32), prf.eval(b"input", 32));
    }

    #[test]
    fn inputs_separate() {
        let prf = HmacPrf::new(b"key");
        assert_ne!(prf.eval(b"a", 16), prf.eval(b"b", 16));
    }

    #[test]
    fn keys_separate() {
        assert_ne!(
            HmacPrf::new(b"k1").eval(b"x", 16),
            HmacPrf::new(b"k2").eval(b"x", 16)
        );
    }

    #[test]
    fn long_output_prefix_consistent() {
        let prf = HmacPrf::new(b"key");
        let short = prf.eval(b"x", 16);
        let long = prf.eval(b"x", 100);
        assert_eq!(short[..], long[..16]);
        assert_eq!(long.len(), 100);
    }

    #[test]
    fn eval_into_matches_eval() {
        let prf = HmacPrf::new(b"key");
        let mut buf = [0u8; 48];
        prf.eval_into(b"msg", &mut buf);
        assert_eq!(buf.to_vec(), prf.eval(b"msg", 48));
    }

    #[test]
    fn eval4_into_matches_four_scalar_evals() {
        // Single-block and counter-mode output lengths, several message
        // lengths including empty and block-crossing.
        let prf = HmacPrf::new(b"lane key");
        for msg_len in [0usize, 1, 5, 9, 31, 59, 60, 64, 100] {
            for out_len in [1usize, 3, 4, 32, 33, 64, 100] {
                let msgs: Vec<Vec<u8>> = (0..4u8).map(|l| vec![l ^ 0x5A; msg_len]).collect();
                let mut bufs = vec![vec![0u8; out_len]; 4];
                {
                    let [b0, b1, b2, b3] = &mut bufs[..] else {
                        unreachable!()
                    };
                    let mut outs = [&mut b0[..], &mut b1[..], &mut b2[..], &mut b3[..]];
                    prf.eval4_into([&msgs[0], &msgs[1], &msgs[2], &msgs[3]], &mut outs);
                }
                for (l, (msg, buf)) in msgs.iter().zip(&bufs).enumerate() {
                    assert_eq!(
                        buf,
                        &prf.eval(msg, out_len),
                        "lane {l} diverged at msg_len {msg_len}, out_len {out_len}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lockstep")]
    fn eval4_into_rejects_unequal_lanes() {
        let prf = HmacPrf::new(b"k");
        let mut bufs = [[0u8; 4]; 4];
        let [b0, b1, b2, b3] = &mut bufs;
        let mut outs = [&mut b0[..], &mut b1[..], &mut b2[..], &mut b3[..]];
        prf.eval4_into([b"aa", b"aa", b"aa", b"a"], &mut outs);
    }

    #[test]
    fn zero_length_output() {
        let prf = HmacPrf::new(b"key");
        assert!(prf.eval(b"x", 0).is_empty());
    }

    #[test]
    fn zero_prf_is_constant() {
        let prf = ZeroPrf;
        assert_eq!(prf.eval(b"a", 8), vec![0u8; 8]);
        assert_eq!(prf.eval(b"b", 8), vec![0u8; 8]);
    }

    #[test]
    fn output_looks_balanced() {
        // Sanity: over many outputs, roughly half the bits are set.
        let prf = HmacPrf::new(b"balance");
        let mut ones = 0u32;
        let mut total = 0u32;
        for i in 0..64u32 {
            for byte in prf.eval(&i.to_be_bytes(), 32) {
                ones += byte.count_ones();
                total += 8;
            }
        }
        let ratio = f64::from(ones) / f64::from(total);
        assert!((0.45..0.55).contains(&ratio), "bit balance {ratio}");
    }
}
