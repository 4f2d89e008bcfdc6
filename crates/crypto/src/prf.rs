//! Pseudorandom function abstraction.
//!
//! The Song–Wagner–Perrig scheme is parameterized by a keyed PRF
//! `F : K × {0,1}* → {0,1}^m`; the paper's proof assumes only PRF
//! security. Abstracting it as a trait lets the searchable-encryption
//! crate stay generic and lets tests substitute counterfeit PRFs
//! (e.g. a constant function) to check that the security experiments
//! actually notice broken primitives.

use crate::hmac::{pad_keyed_block, HmacSha256, MAC_LEN, SINGLE_BLOCK_MAX};
use crate::sha256::{BLOCK_LEN, H0};
use crate::sha256x4::{self, compress4_states};

/// Inputs per [`HmacPrf::eval_lanes_into`] dispatch.
pub const LANES: usize = 16;

/// Longest input [`LaneBlocks`] stages: the input, the 4-byte counter,
/// 0x80 and the 8-byte length fill at most one block.
pub const LANE_MSG_MAX: usize = SINGLE_BLOCK_MAX - 4;

/// Lane-major words: `rows[t][l]` is word `t` of lane `l`.
type Rows<const N: usize> = [[u32; LANES]; N];

/// Sixteen equal-length PRF inputs, each staged in its own padded HMAC
/// inner block (`input ‖ counter 0 ‖ 0x80 ‖ zeros ‖ bit length`) and
/// stored lane-major as big-endian words — `words[t][l]` is word `t`
/// of lane `l`'s block, the layout the 16-lane backend computes in.
/// The padding words are written once, at construction; callers then
/// overwrite only the input ([`Self::set_xor`], [`Self::set_prefixed`])
/// between dispatches of [`HmacPrf::eval_lanes_into`] or
/// [`eval_keyed_lanes_into`].
#[derive(Clone)]
pub struct LaneBlocks {
    words: Rows<{ BLOCK_LEN / 4 }>,
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

    /// Makes lane `lane`'s input `prefix ‖ input`: a Feistel round's
    /// `width ‖ half`, or (with an empty prefix) a word's `L` or `S_ℓ`.
    ///
    /// # Panics
    /// Panics unless the two add up to `msg_len` bytes.
    #[inline]
    pub fn set_prefixed(&mut self, lane: usize, prefix: &[u8], input: &[u8]) {
        let n = self.msg_len;
        assert_eq!(prefix.len() + input.len(), n, "lane inputs are {n} bytes");
        let mut bytes = [0u8; BLOCK_LEN];
        bytes[..prefix.len()].copy_from_slice(prefix);
        bytes[prefix.len()..n].copy_from_slice(input);
        // The words the input reaches into; their bytes past `n` are
        // the zero counter's, the padding after it is never touched.
        let (chunks, _) = bytes.as_chunks::<4>();
        for (row, chunk) in self.words.iter_mut().zip(chunks).take(n.div_ceil(4)) {
            row[lane] = u32::from_be_bytes(*chunk);
        }
    }

    /// Lane `lane`'s padded inner block as bytes; the input is its
    /// first `msg_len` bytes.
    #[must_use]
    pub fn block(&self, lane: usize) -> [u8; BLOCK_LEN] {
        lane_block(&self.words, lane)
    }
}

/// Lane `lane`'s block of lane-major `words`, as bytes.
fn lane_block(words: &Rows<{ BLOCK_LEN / 4 }>, lane: usize) -> [u8; BLOCK_LEN] {
    let mut block = [0u8; BLOCK_LEN];
    for (chunk, row) in block.chunks_exact_mut(4).zip(words) {
        chunk.copy_from_slice(&row[lane].to_be_bytes());
    }
    block
}

/// `F` under sixteen keys at once: the first `out_len` bytes of lane
/// `l`'s output, `HmacPrf::new(&keys[l])` on lane `l`'s input, go to
/// `outs[l][..out_len]` — bit-identical to sixteen [`Prf::eval_into`]
/// calls. This is the shape of the client's check blocks `F_k(S_ℓ)`,
/// where every word has its own `k = f_k'(L)`. Allocation-free.
///
/// [`HmacPrf::eval_lanes_into`] hoists its one key's schedule; here
/// every lane pays its own, so a dispatch is four sixteen-lane
/// compressions (`ipad`, `opad`, message, outer block): four
/// AVX-512F `compress16` calls where the CPU has it, sixteen 4-lane
/// groups through `sha256x4` (SHA-NI or portable) otherwise.
///
/// # Panics
/// Panics if `out_len > MAC_LEN`: the lanes compute one counter
/// block.
pub fn eval_keyed_lanes_into(
    keys: &[[u8; MAC_LEN]; LANES],
    msgs: &LaneBlocks,
    out_len: usize,
    outs: &mut [[u8; MAC_LEN]; LANES],
) {
    keyed_lanes_into(compress_lanes, keys, msgs, out_len, outs);
}

/// [`eval_keyed_lanes_into`] over a given sixteen-lane compression.
fn keyed_lanes_into(
    compress: impl Fn(&mut Rows<8>, &Rows<{ BLOCK_LEN / 4 }>),
    keys: &[[u8; MAC_LEN]; LANES],
    msgs: &LaneBlocks,
    out_len: usize,
    outs: &mut [[u8; MAC_LEN]; LANES],
) {
    assert!(
        out_len <= MAC_LEN,
        "lane outputs are one counter block ({MAC_LEN} bytes), not {out_len}"
    );
    // A key of at most one block is zero-padded to one (RFC 2104), so
    // the pad blocks are the key's eight words, then the bare pad.
    let key: Rows<8> = std::array::from_fn(|t| {
        std::array::from_fn(|l| u32::from_be_bytes(keys[l].as_chunks::<4>().0[t]))
    });
    let pad_block = |pad: u32| -> Rows<{ BLOCK_LEN / 4 }> {
        std::array::from_fn(|t| key.get(t).map_or([pad; LANES], |row| row.map(|w| w ^ pad)))
    };
    let mut inner = H0.map(|w| [w; LANES]);
    compress(&mut inner, &pad_block(0x3636_3636));
    let mut outer = H0.map(|w| [w; LANES]);
    compress(&mut outer, &pad_block(0x5c5c_5c5c));
    compress(&mut inner, &msgs.words);
    compress(&mut outer, &outer_blocks(&inner));
    write_lanes(&outer, out_len, outs);
}

/// The outer HMAC blocks of sixteen inner digests: the digest, 0x80,
/// zeros, and the bit length of the opad block plus the digest.
fn outer_blocks(digests: &Rows<8>) -> Rows<{ BLOCK_LEN / 4 }> {
    std::array::from_fn(|t| match t {
        0..8 => digests[t],
        8 => [0x8000_0000; LANES],
        15 => [((BLOCK_LEN + MAC_LEN) * 8) as u32; LANES],
        _ => [0; LANES],
    })
}

/// The first `out_len` bytes of each lane's big-endian words `rows`
/// into `outs[lane][..out_len]`: whole words, then any partial one.
fn write_lanes(rows: &[[u32; LANES]], out_len: usize, outs: &mut [[u8; MAC_LEN]; LANES]) {
    for (l, out) in outs.iter_mut().enumerate() {
        let (words, rest) = out[..out_len].as_chunks_mut::<4>();
        for (word, row) in words.iter_mut().zip(rows) {
            *word = row[l].to_be_bytes();
        }
        if !rest.is_empty() {
            rest.copy_from_slice(&rows[words.len()][l].to_be_bytes()[..rest.len()]);
        }
    }
}

/// One block into each of sixteen lane-major states on the fastest
/// backend: one AVX-512F `compress16`, or four 4-lane groups.
fn compress_lanes(states: &mut Rows<8>, words: &Rows<{ BLOCK_LEN / 4 }>) {
    #[cfg(target_arch = "x86_64")]
    if let Some(avx) = crate::sha256_avx512::Avx512::detect() {
        avx.compress16(states, words);
        return;
    }
    by_quads(compress4_states, states, words);
}

/// Sixteen lane-major compressions as four calls to a 4-lane backend.
fn by_quads(
    compress4: impl Fn(&mut [[u32; 8]; sha256x4::LANES], &[[u8; BLOCK_LEN]; sha256x4::LANES]),
    states: &mut Rows<8>,
    words: &Rows<{ BLOCK_LEN / 4 }>,
) {
    for quad in 0..LANES / sha256x4::LANES {
        let lane = |i: usize| sha256x4::LANES * quad + i;
        let mut group = std::array::from_fn(|i| std::array::from_fn(|r| states[r][lane(i)]));
        compress4(
            &mut group,
            &std::array::from_fn(|i| lane_block(words, lane(i))),
        );
        for (i, state) in group.iter().enumerate() {
            for (row, word) in states.iter_mut().zip(state) {
                row[lane(i)] = *word;
            }
        }
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
            write_lanes(&tags, out_len, outs);
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
        let mut digests = inner.map(|w| [w; LANES]);
        by_quads(compress4_states, &mut digests, &msgs.words);
        let mut tags = outer.map(|w| [w; LANES]);
        by_quads(compress4_states, &mut tags, &outer_blocks(&digests));
        write_lanes(&tags, out_len, outs);
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

    /// A sixteen-lane compression over lane-major rows.
    type Compress16 = fn(&mut Rows<8>, &Rows<16>);

    /// Every sixteen-lane compression this CPU has, lane-major: the
    /// portable and SHA-NI 4-lane kernels four times, AVX-512F in one
    /// call. Says so past the output capture when a feature is absent.
    fn lane_backends(test: &str) -> Vec<(&'static str, Compress16)> {
        let mut out: Vec<(&'static str, Compress16)> = vec![("portable x4", |states, words| {
            by_quads(sha256x4::compress4_portable, states, words);
        })];
        let mut missing = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if crate::sha256_ni::ShaNi::detect().is_some() {
                out.push(("sha-ni x4", |states, words| {
                    let ni = crate::sha256_ni::ShaNi::detect().expect("detected above");
                    by_quads(|s, b| ni.compress4(s, b), states, words);
                }));
            } else {
                missing.push("SHA-NI");
            }
            if crate::sha256_avx512::Avx512::detect().is_some() {
                out.push(("avx-512", |states, words| {
                    let avx = crate::sha256_avx512::Avx512::detect().expect("detected above");
                    avx.compress16(states, words);
                }));
            } else {
                missing.push("AVX-512F");
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        missing.extend(["SHA-NI", "AVX-512F"]);
        for feature in missing {
            use std::io::Write as _;
            let _ = writeln!(
                std::io::stderr(),
                "{test}: {feature} not available on this CPU; its keyed-lane checks SKIPPED"
            );
        }
        out
    }

    #[test]
    fn eval_keyed_lanes_into_matches_scalar_evals_on_every_backend() {
        // A different key per lane, every input length the lanes take
        // and every output length they produce.
        let keys: [[u8; MAC_LEN]; LANES] = std::array::from_fn(|l| {
            std::array::from_fn(|i| (l as u8).wrapping_mul(37) ^ (i as u8).wrapping_mul(11))
        });
        let backends = lane_backends("eval_keyed_lanes_into_matches_scalar_evals_on_every_backend");
        for msg_len in 0..=LANE_MSG_MAX {
            let (msgs, inputs) = lane_inputs(msg_len, 0xA5 ^ msg_len as u8);
            for out_len in [1, 3, 4, 13, 31, MAC_LEN] {
                let want: Vec<Vec<u8>> = (0..LANES)
                    .map(|l| HmacPrf::new(&keys[l]).eval(&inputs[l], out_len))
                    .collect();
                let mut dispatched = [[0u8; MAC_LEN]; LANES];
                eval_keyed_lanes_into(&keys, &msgs, out_len, &mut dispatched);
                for (name, compress) in &backends {
                    let mut outs = [[0u8; MAC_LEN]; LANES];
                    keyed_lanes_into(compress, &keys, &msgs, out_len, &mut outs);
                    for l in 0..LANES {
                        assert_eq!(
                            outs[l][..out_len],
                            want[l][..],
                            "{name}: lane {l} at msg_len {msg_len}, out_len {out_len}"
                        );
                        assert!(outs[l][out_len..].iter().all(|&b| b == 0));
                    }
                }
                for l in 0..LANES {
                    assert_eq!(dispatched[l][..out_len], want[l][..], "dispatched lane {l}");
                }
            }
        }
    }

    #[test]
    fn set_prefixed_stages_the_concatenation() {
        let prf = HmacPrf::new(b"feistel round");
        for msg_len in 0..=LANE_MSG_MAX {
            let mut msgs = LaneBlocks::new(msg_len);
            // Stale inputs first, so a word left unwritten would show.
            let (stale, _) = lane_inputs(msg_len, 0x3C);
            msgs.words = stale.words;
            let inputs: Vec<Vec<u8>> = (0..LANES)
                .map(|l| (0..msg_len).map(|i| (l * 7 + i * 13) as u8).collect())
                .collect();
            for (l, input) in inputs.iter().enumerate() {
                let split = (l * 5) % (msg_len + 1);
                msgs.set_prefixed(l, &input[..split], &input[split..]);
            }
            let mut outs = [[0u8; MAC_LEN]; LANES];
            prf.eval_lanes_into(&msgs, MAC_LEN, &mut outs);
            for (l, input) in inputs.iter().enumerate() {
                assert_eq!(&msgs.block(l)[..msg_len], &input[..]);
                assert_eq!(outs[l].to_vec(), prf.eval(input, MAC_LEN), "lane {l}");
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
