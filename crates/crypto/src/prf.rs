//! Pseudorandom function abstraction.
//!
//! The Song–Wagner–Perrig scheme is parameterized by a keyed PRF
//! `F : K × {0,1}* → {0,1}^m`; the paper's proof assumes only PRF
//! security. Abstracting it as a trait lets the searchable-encryption
//! crate stay generic and lets tests substitute counterfeit PRFs
//! (e.g. a constant function) to check that the security experiments
//! actually notice broken primitives.

use crate::hmac::{pad_keyed_block, HmacSha256, MAC_LEN, SINGLE_BLOCK_MAX};
use crate::sha256::{write_be, BLOCK_LEN};
use crate::sha256x4::{self, compress4_states};

/// Inputs per [`HmacPrf::eval_lanes_into`] dispatch.
pub const LANES: usize = 16;

/// Longest input [`LaneBlocks`] stages: the input, the 4-byte counter,
/// 0x80 and the 8-byte length fill at most one block.
pub const LANE_MSG_MAX: usize = SINGLE_BLOCK_MAX - 4;

/// Sixteen equal-length PRF inputs, each staged in its own padded HMAC
/// inner block (`input ‖ counter 0 ‖ 0x80 ‖ zeros ‖ bit length`) and
/// stored lane-major as big-endian words — `words[t][l]` is word `t`
/// of lane `l`'s block, the layout the 16-lane backend computes in.
/// The padding words are written once, at construction; callers then
/// overwrite only the input ([`Self::set_xor`]) between dispatches of
/// [`HmacPrf::eval_lanes_into`].
#[derive(Clone)]
pub struct LaneBlocks {
    words: [[u32; LANES]; BLOCK_LEN / 4],
    msg_len: usize,
}

impl LaneBlocks {
    /// Sixteen all-zero inputs of `msg_len` bytes.
    ///
    /// # Panics
    /// Panics if `msg_len > LANE_MSG_MAX`.
    #[must_use]
    pub fn new(msg_len: usize) -> Self {
        assert!(
            msg_len <= LANE_MSG_MAX,
            "lane inputs hold at most {LANE_MSG_MAX} bytes, not {msg_len}"
        );
        let mut block = [0u8; BLOCK_LEN];
        pad_keyed_block(&mut block, msg_len + 4);
        let (chunks, _) = block.as_chunks::<4>();
        LaneBlocks {
            words: std::array::from_fn(|t| [u32::from_be_bytes(chunks[t]); LANES]),
            msg_len,
        }
    }

    /// Makes lane `lane`'s input the first `msg_len` bytes of `a ⊕ b`.
    ///
    /// # Panics
    /// Panics if `a` or `b` is shorter than that.
    #[inline]
    pub fn set_xor(&mut self, lane: usize, a: &[u8], b: &[u8]) {
        let n = self.msg_len;
        let (a, b) = (&a[..n], &b[..n]);
        let word = |i: usize| {
            u32::from_be_bytes(a[i..i + 4].try_into().expect("four bytes"))
                ^ u32::from_be_bytes(b[i..i + 4].try_into().expect("four bytes"))
        };
        let full = n / 4;
        for t in 0..full {
            self.words[t][lane] = word(4 * t);
        }
        // The last partial word: its input bytes, then counter bytes (0).
        let rest = n % 4;
        if rest > 0 {
            self.words[full][lane] = if n >= 4 {
                word(n - 4) << (8 * (4 - rest))
            } else {
                (0..rest).fold(0, |w, i| w | u32::from(a[i] ^ b[i]) << (24 - 8 * i))
            };
        }
    }

    /// Lane `lane`'s padded inner block as bytes; the input is its
    /// first `msg_len` bytes.
    #[must_use]
    pub fn block(&self, lane: usize) -> [u8; BLOCK_LEN] {
        let mut block = [0u8; BLOCK_LEN];
        for (chunk, row) in block.chunks_exact_mut(4).zip(&self.words) {
            chunk.copy_from_slice(&row[lane].to_be_bytes());
        }
        block
    }
}

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
/// [`HmacPrf::new`] and every output block starts from the keyed state
/// — callers that evaluate the same key against many inputs (the
/// server-side trapdoor scan above all) get the hoisted schedule for
/// free.
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

    /// Evaluates the PRF on the sixteen inputs of `msgs` at once,
    /// writing the first `out_len` bytes of lane `l`'s output to
    /// `outs[l][..out_len]`: bit-identical to sixteen
    /// [`Prf::eval_into`] calls. This is the dispatch unit of the
    /// server-side scan kernel. Allocation-free.
    ///
    /// With AVX-512F, the sixteen HMACs run as one fused computation
    /// (`sha256_avx512`: one vector per working variable, the inner
    /// digest kept in registers as the outer block). Otherwise they run
    /// as four 4-lane groups through `sha256x4` (SHA-NI or portable).
    ///
    /// # Panics
    /// Panics if `out_len > MAC_LEN`: the lanes compute one counter
    /// block.
    pub fn eval_lanes_into(
        &self,
        msgs: &LaneBlocks,
        out_len: usize,
        outs: &mut [[u8; MAC_LEN]; LANES],
    ) {
        assert!(
            out_len <= MAC_LEN,
            "lane outputs are one counter block ({MAC_LEN} bytes), not {out_len}"
        );
        #[cfg(target_arch = "x86_64")]
        if let Some(avx) = crate::sha256_avx512::Avx512::detect() {
            let (inner, outer) = self.mac.key_states();
            let mut tags = [[0u32; LANES]; 8];
            avx.hmac16(&inner, &outer, &msgs.words, &mut tags);
            for (l, out) in outs.iter_mut().enumerate() {
                for (chunk, row) in out[..out_len].chunks_mut(4).zip(&tags) {
                    chunk.copy_from_slice(&row[l].to_be_bytes()[..chunk.len()]);
                }
            }
            return;
        }
        self.eval_quads_into(msgs, out_len, outs);
    }

    /// [`Self::eval_lanes_into`] without AVX-512F: four groups of four
    /// lanes, each an interleaved inner and an interleaved outer
    /// compression.
    fn eval_quads_into(
        &self,
        msgs: &LaneBlocks,
        out_len: usize,
        outs: &mut [[u8; MAC_LEN]; LANES],
    ) {
        let (inner, outer) = self.mac.key_states();
        let (outs, _) = outs.as_chunks_mut::<{ sha256x4::LANES }>();
        for (quad, outs) in outs.iter_mut().enumerate() {
            let blocks = std::array::from_fn(|l| msgs.block(sha256x4::LANES * quad + l));
            let mut states = [inner; sha256x4::LANES];
            compress4_states(&mut states, &blocks);
            let mut outer_blocks = [[0u8; BLOCK_LEN]; sha256x4::LANES];
            for (block, state) in outer_blocks.iter_mut().zip(&states) {
                write_be(block, state);
                pad_keyed_block(block, MAC_LEN);
            }
            let mut states = [outer; sha256x4::LANES];
            compress4_states(&mut states, &outer_blocks);
            for (out, state) in outs.iter_mut().zip(&states) {
                write_be(&mut out[..out_len], state);
            }
        }
    }

    /// XORs the first `target.len()` bytes of `F(prefix ‖ input)` —
    /// exactly what [`Prf::eval_into`] writes for the concatenated
    /// input — over `target`, without building the concatenation or
    /// the output. Allocation-free.
    ///
    /// When `prefix ‖ input ‖ counter` fits one block with its padding
    /// (the check block, `k = f_k'(L)` and every Feistel round of the
    /// shipped schemas), each counter block is two bare compressions
    /// from the prepared key states; longer inputs run the buffered
    /// hashers.
    pub(crate) fn xor_into(&self, prefix: &[u8], input: &[u8], target: &mut [u8]) {
        let split = prefix.len();
        let len = split + input.len() + 4;
        for (counter, chunk) in (0u32..).zip(target.chunks_mut(MAC_LEN)) {
            let tag = if len <= SINGLE_BLOCK_MAX {
                let mut block = [0u8; BLOCK_LEN];
                block[..split].copy_from_slice(prefix);
                block[split..len - 4].copy_from_slice(input);
                block[len - 4..len].copy_from_slice(&counter.to_be_bytes());
                self.mac.single_block_tag(&mut block, len)
            } else {
                let mut h = self.mac.clone();
                h.update(prefix);
                h.update(input);
                h.update(&counter.to_be_bytes());
                h.finalize()
            };
            for (t, m) in chunk.iter_mut().zip(tag) {
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

    /// `F` written out from the one-shot HMAC: counter blocks of
    /// `HMAC(k, input ‖ ctr)`, independent of `xor_into`.
    fn reference_eval(key: &[u8], input: &[u8], len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for counter in 0u32.. {
            if out.len() >= len {
                break;
            }
            let mut msg = input.to_vec();
            msg.extend_from_slice(&counter.to_be_bytes());
            out.extend_from_slice(&HmacSha256::mac(key, &msg));
        }
        out.truncate(len);
        out
    }

    #[test]
    fn eval_matches_one_shot_hmac_on_both_sides_of_one_block() {
        // Inputs up to 51 bytes take the one-block path, longer ones the
        // buffered hashers; outputs cross counter blocks.
        let key = b"single block key";
        let prf = HmacPrf::new(key);
        for input_len in 0..=70usize {
            let input: Vec<u8> = (0..input_len as u8).map(|i| i.wrapping_mul(29)).collect();
            for out_len in [0usize, 1, 4, 31, 32, 33, 64, 65] {
                assert_eq!(
                    prf.eval(&input, out_len),
                    reference_eval(key, &input, out_len),
                    "input {input_len} bytes, output {out_len}"
                );
            }
        }
    }

    /// Sixteen lane inputs of `msg_len` bytes, a different one per lane,
    /// each staged as `input ⊕ mask`, and the inputs themselves.
    fn lane_inputs(msg_len: usize, seed: u8) -> (LaneBlocks, Vec<Vec<u8>>) {
        let mut msgs = LaneBlocks::new(msg_len);
        let mask: Vec<u8> = (0..msg_len as u8)
            .map(|i| i.wrapping_mul(89) ^ seed)
            .collect();
        let inputs: Vec<Vec<u8>> = (0..LANES as u8)
            .map(|l| {
                (0..msg_len as u8)
                    .map(|i| seed ^ l.wrapping_mul(31) ^ i.wrapping_mul(7))
                    .collect()
            })
            .collect();
        for (l, input) in inputs.iter().enumerate() {
            let masked: Vec<u8> = input.iter().zip(&mask).map(|(x, m)| x ^ m).collect();
            msgs.set_xor(l, &masked, &mask);
        }
        (msgs, inputs)
    }

    #[test]
    fn eval_lanes_into_matches_scalar_evals() {
        // Every input length the lanes take and every output length
        // they produce, on the dispatched path and the four-group path.
        let avx512 = {
            #[cfg(target_arch = "x86_64")]
            let found = crate::sha256_avx512::Avx512::detect().is_some();
            #[cfg(not(target_arch = "x86_64"))]
            let found = false;
            found
        };
        if !avx512 {
            use std::io::Write as _;
            let _ = writeln!(
                std::io::stderr(),
                "eval_lanes_into_matches_scalar_evals: AVX-512F not available on this CPU; \
                 fused 16-lane HMAC checks SKIPPED"
            );
        }
        let prf = HmacPrf::new(b"lane key");
        for msg_len in 0..=LANE_MSG_MAX {
            let (msgs, inputs) = lane_inputs(msg_len, msg_len as u8);
            for (l, input) in inputs.iter().enumerate() {
                assert_eq!(&msgs.block(l)[..msg_len], &input[..], "staged lane {l}");
            }
            for out_len in 1..=MAC_LEN {
                let mut dispatched = [[0u8; MAC_LEN]; LANES];
                prf.eval_lanes_into(&msgs, out_len, &mut dispatched);
                let mut quads = [[0u8; MAC_LEN]; LANES];
                prf.eval_quads_into(&msgs, out_len, &mut quads);
                for l in 0..LANES {
                    let want = prf.eval(&inputs[l], out_len);
                    assert_eq!(
                        dispatched[l][..out_len],
                        want[..],
                        "lane {l} diverged at msg_len {msg_len}, out_len {out_len}"
                    );
                    assert_eq!(quads[l][..out_len], want[..], "four-group lane {l}");
                    // Bytes past `out_len` are left alone.
                    assert!(dispatched[l][out_len..].iter().all(|&b| b == 0));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn lane_blocks_reject_inputs_past_one_block() {
        let _ = LaneBlocks::new(LANE_MSG_MAX + 1);
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
