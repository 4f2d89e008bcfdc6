//! The allocation-free multi-lane scan kernel.
//!
//! Every query in the paper's scheme is a full server-side scan: one
//! SWP check per `(trapdoor, cipher word)` pair the caller pushes, so
//! scan throughput *is* system throughput. The kernel knows nothing of
//! documents or attributes: which words a scan pushes is the caller's
//! choice (the database PH pushes one word per row, the word at the
//! term's attribute position). The scalar path ([`crate::search::matches`]
//! and [`PreparedTrapdoor::matches`]) decides one word at a time; this
//! kernel stages up to [`LANES`] (16) words, XORs the stream part of
//! `C ⊕ X` straight into the padded HMAC blocks of a fixed
//! [`LaneBlocks`] (lane-major big-endian words), and evaluates the
//! sixteen check PRFs in one dispatch ([`HmacPrf::eval_lanes_into`]:
//! one fused AVX-512F HMAC where the CPU has it, four interleaved
//! 4-lane groups otherwise) — per check: zero heap allocations, zero
//! key-schedule work, no buffered hashers.
//!
//! The lane path covers checks whose PRF input fits one SHA-256 block
//! with its counter and padding (`stream_len ≤ LANE_MSG_MAX`, 51
//! bytes) and whose check block is one HMAC output (`check_len ≤ 32`);
//! every shipped schema does (`Emp` words are 19 bytes, `Hospital`
//! words 27). Wider parameters, and a trapdoor of the wrong length,
//! are decided word by word by the scalar zero-alloc check as they
//! are pushed.
//!
//! **Equivalence is load-bearing.** The kernel funnels into the *same*
//! accept/reject decision as the scalar check: the lane PRF is proven
//! bit-identical to [`Prf::eval_into`] (crypto-crate tests), the final
//! comparison is the shared [`check_eq`], remainder lanes (1–15
//! trailing words at a flush) run the scalar PRF, and length
//! mismatches reject exactly as the scalar check does. Proptests
//! (`tests/scan_kernel.rs`) and the unit sweeps below enforce decision
//! equality over random parameters, words, and lane remainders. Lane
//! batching therefore changes *when* PRF work happens, never what any
//! observer of decisions, responses, or transcripts sees.

use dbph_crypto::hmac::MAC_LEN;
use dbph_crypto::prf::{self, HmacPrf, LaneBlocks, Prf};

use crate::params::{check_eq, SwpParams};
use crate::search::{check_match_bytes, xor_into, PreparedTrapdoor};

/// Words decided per PRF dispatch.
pub const LANES: usize = prf::LANES;

/// A batch scan engine for one prepared trapdoor.
///
/// Feed cipher words with [`push`] (each tagged with a caller-chosen
/// `u32`, e.g. a row index) and finish with [`flush`]; decisions
/// are emitted to the sink **in push order**, possibly deferred until a
/// full dispatch or the flush. [`matches_many`] is the convenience
/// entry point over a contiguous fixed-width slot buffer — the shape
/// the columnar `WordArena` storage provides.
///
/// [`push`]: ScanKernel::push
/// [`flush`]: ScanKernel::flush
/// [`matches_many`]: ScanKernel::matches_many
pub struct ScanKernel<'a> {
    params: SwpParams,
    target: &'a [u8],
    prf: &'a HmacPrf,
    /// Lane staging; `None` when every word is decided by the scalar
    /// check as it is pushed (see [`ScanKernel::supports`]; a trapdoor
    /// of the wrong length, which matches nothing, goes that way too).
    lanes: Option<Lanes>,
}

/// Staged words awaiting a dispatch: about 2 KiB, sized to the
/// one-block limits so a kernel is cheap to build per probe.
struct Lanes {
    pending: usize,
    tags: [u32; LANES],
    /// Whether the staged word had the right length; wrong-length lanes
    /// ride the dispatch with a stale input and decide `false`
    /// regardless.
    live: [bool; LANES],
    /// XORed stream parts `C_left ⊕ X_left`, in their HMAC blocks
    /// (1 KiB).
    s: LaneBlocks,
    /// XORed check parts `C_right ⊕ X_right` (first `check_len` bytes).
    t: [[u8; MAC_LEN]; LANES],
    /// PRF output scratch.
    expected: [[u8; MAC_LEN]; LANES],
}

impl<'a> ScanKernel<'a> {
    /// Whether `params` take the lane path: the check PRF's input fits
    /// one SHA-256 block and its output one HMAC tag. Other parameters
    /// still scan through the kernel, one scalar check per word, with
    /// identical decisions.
    #[must_use]
    pub fn supports(params: &SwpParams) -> bool {
        params.stream_len() <= prf::LANE_MSG_MAX && params.check_len <= MAC_LEN
    }

    /// A kernel scanning for `term`. Keyless, like everything the
    /// server runs.
    #[must_use]
    pub fn new(params: SwpParams, term: &'a PreparedTrapdoor) -> Self {
        let target = term.target();
        let lanes = (Self::supports(&params) && target.len() == params.word_len).then(|| Lanes {
            pending: 0,
            tags: [0; LANES],
            live: [false; LANES],
            s: LaneBlocks::new(params.stream_len()),
            t: [[0; MAC_LEN]; LANES],
            expected: [[0; MAC_LEN]; LANES],
        });
        ScanKernel {
            params,
            target,
            prf: term.prf(),
            lanes,
        }
    }

    /// Stages `cipher` (tagged `tag`) for a decision. The sink receives
    /// `(tag, decision)` pairs in push order; a push that fills the
    /// last lane dispatches the lane PRF and drains every lane. Use
    /// one sink for a whole push/flush sequence — decisions for earlier
    /// pushes may be emitted during later ones.
    pub fn push(&mut self, tag: u32, cipher: &[u8], sink: &mut impl FnMut(u32, bool)) {
        let Some(lanes) = &mut self.lanes else {
            // Nothing is ever staged, so immediate emission is in order.
            sink(
                tag,
                check_match_bytes(&self.params, self.target, self.prf, cipher),
            );
            return;
        };
        let lane = lanes.pending;
        lanes.tags[lane] = tag;
        // Wrong stored length: the decision is `false`, exactly as in
        // the scalar check.
        lanes.live[lane] = cipher.len() == self.params.word_len;
        if lanes.live[lane] {
            let split = self.params.stream_len();
            lanes.s.set_xor(lane, cipher, self.target);
            xor_into(
                &mut lanes.t[lane][..self.params.check_len],
                &cipher[split..],
                &self.target[split..],
            );
        }
        lanes.pending += 1;
        if lanes.pending == LANES {
            lanes.dispatch(&self.params, self.prf, sink);
        }
    }

    /// Decides any staged remainder (1–15 lanes) through the scalar
    /// PRF and emits it in order. Call once after the last
    /// [`Self::push`].
    pub fn flush(&mut self, sink: &mut impl FnMut(u32, bool)) {
        if let Some(lanes) = &mut self.lanes {
            lanes.flush(&self.params, self.prf, sink);
        }
    }

    /// Batch entry point: decides every fixed-width slot of `slots`
    /// (`slots.len()` must be a multiple of `word_len`), invoking
    /// `sink(slot_index, decision)` in slot order. Exactly equivalent
    /// to the scalar [`PreparedTrapdoor::matches_bytes`] per slot.
    pub fn matches_many(&mut self, slots: &[u8], sink: &mut impl FnMut(u32, bool)) {
        let width = self.params.word_len;
        debug_assert_eq!(slots.len() % width, 0, "ragged slot buffer");
        for (i, slot) in slots.chunks_exact(width).enumerate() {
            self.push(i as u32, slot, sink);
        }
        self.flush(sink);
    }
}

impl Lanes {
    /// One full dispatch: the lane PRF, then the same [`check_eq`]
    /// decision as the scalar path, emitted in lane order.
    fn dispatch(&mut self, params: &SwpParams, prf: &HmacPrf, sink: &mut impl FnMut(u32, bool)) {
        let check = params.check_len;
        prf.eval_lanes_into(&self.s, check, &mut self.expected);
        for lane in 0..LANES {
            let ok = self.live[lane]
                && check_eq(
                    params,
                    &self.expected[lane][..check],
                    &self.t[lane][..check],
                );
            sink(self.tags[lane], ok);
        }
        self.pending = 0;
    }

    /// The staged remainder, one scalar PRF evaluation per lane.
    fn flush(&mut self, params: &SwpParams, prf: &HmacPrf, sink: &mut impl FnMut(u32, bool)) {
        let check = params.check_len;
        for lane in 0..self.pending {
            let ok = self.live[lane] && {
                let expected = &mut self.expected[lane][..check];
                prf.eval_into(&self.s.block(lane)[..params.stream_len()], expected);
                check_eq(params, expected, &self.t[lane][..check])
            };
            sink(self.tags[lane], ok);
        }
        self.pending = 0;
    }
}

/// Reference check used by the equivalence tests: the scalar decision
/// for one word, via the exact entry point the kernel's remainder path
/// uses.
#[cfg(test)]
fn scalar_decision(params: &SwpParams, term: &PreparedTrapdoor, cipher: &[u8]) -> bool {
    crate::search::check_match_bytes(params, term.target(), term.prf(), cipher)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::TrapdoorData;

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

    /// A cipher word consistent with `(target, key)` at the given
    /// params — guaranteed to match.
    fn consistent_word(params: &SwpParams, target: &[u8], key: &[u8], seed: u64) -> Vec<u8> {
        let s = splatter(seed, params.stream_len());
        let f = HmacPrf::new(key).eval(&s, params.check_len);
        let mut c = Vec::new();
        c.extend(
            target[..params.stream_len()]
                .iter()
                .zip(&s)
                .map(|(a, b)| a ^ b),
        );
        c.extend(
            target[params.stream_len()..]
                .iter()
                .zip(&f)
                .map(|(a, b)| a ^ b),
        );
        c
    }

    #[test]
    fn kernel_agrees_with_scalar_over_params_and_remainders() {
        // Parameter shapes: tiny words, partial check bits, a check
        // block longer than one HMAC output (counter mode), and word
        // counts hitting every lane remainder (0–3 trailing words).
        for (word_len, check_len, check_bits) in [
            (8, 3, 24),
            (13, 4, 32),
            (16, 4, 7),
            (40, 36, 288),
            (2, 1, 5),
        ] {
            let params = SwpParams::new(word_len, check_len, check_bits).unwrap();
            let key = splatter(1, 32);
            let target = splatter(2, word_len);
            let td = RawTrapdoor {
                target: target.clone(),
                key: key.clone(),
            };
            let prepared = PreparedTrapdoor::new(&td);
            for count in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 23] {
                // A mix of matching, random, and wrong-length words.
                let words: Vec<Vec<u8>> = (0..count as u64)
                    .map(|i| match i % 4 {
                        0 => consistent_word(&params, &target, &key, i),
                        1 => splatter(i ^ 0xFF, word_len),
                        2 => splatter(i, word_len + 1),
                        _ => splatter(i, word_len.saturating_sub(1)),
                    })
                    .collect();

                let mut kernel = ScanKernel::new(params, &prepared);
                let mut got: Vec<(u32, bool)> = Vec::new();
                {
                    let mut sink = |tag: u32, ok: bool| got.push((tag, ok));
                    for (i, w) in words.iter().enumerate() {
                        kernel.push(i as u32, w, &mut sink);
                    }
                    kernel.flush(&mut sink);
                }
                let want: Vec<(u32, bool)> = words
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (i as u32, scalar_decision(&params, &prepared, w)))
                    .collect();
                assert_eq!(
                    got, want,
                    "kernel diverged at params {params:?}, {count} words"
                );
                // Every consistent word was accepted.
                for (i, w) in words.iter().enumerate() {
                    if i % 4 == 0 {
                        assert!(got[i].1, "consistent word {i} rejected ({w:?})");
                    }
                }
            }
        }
    }

    #[test]
    fn matches_many_equals_pushes() {
        let params = SwpParams::new(13, 4, 32).unwrap();
        let key = splatter(9, 32);
        let target = splatter(10, 13);
        let prepared = PreparedTrapdoor::new(&RawTrapdoor {
            target: target.clone(),
            key: key.clone(),
        });
        // 11 slots: two dispatches plus a 3-lane remainder.
        let mut slots = Vec::new();
        for i in 0..11u64 {
            if i % 3 == 0 {
                slots.extend(consistent_word(&params, &target, &key, i));
            } else {
                slots.extend(splatter(i, 13));
            }
        }
        let mut kernel = ScanKernel::new(params, &prepared);
        let mut got = Vec::new();
        kernel.matches_many(&slots, &mut |tag, ok| got.push((tag, ok)));
        let want: Vec<(u32, bool)> = slots
            .chunks_exact(13)
            .enumerate()
            .map(|(i, w)| (i as u32, scalar_decision(&params, &prepared, w)))
            .collect();
        assert_eq!(got, want);
        assert!(got.iter().filter(|(_, ok)| *ok).count() >= 4);
    }

    #[test]
    fn dead_trapdoor_rejects_everything_immediately() {
        let params = SwpParams::new(13, 4, 32).unwrap();
        let prepared = PreparedTrapdoor::new(&RawTrapdoor {
            target: vec![1, 2, 3], // wrong length
            key: vec![0; 32],
        });
        let mut kernel = ScanKernel::new(params, &prepared);
        let mut got = Vec::new();
        {
            let mut sink = |tag: u32, ok: bool| got.push((tag, ok));
            for i in 0..6u32 {
                kernel.push(i, &splatter(u64::from(i), 13), &mut sink);
            }
            kernel.flush(&mut sink);
        }
        assert_eq!(
            got,
            (0..6u32).map(|i| (i, false)).collect::<Vec<_>>(),
            "dead trapdoor must reject every word, in order"
        );
    }

    #[test]
    fn kernel_is_reusable_after_flush() {
        let params = SwpParams::new(8, 3, 24).unwrap();
        let key = splatter(3, 32);
        let target = splatter(4, 8);
        let prepared = PreparedTrapdoor::new(&RawTrapdoor {
            target: target.clone(),
            key: key.clone(),
        });
        let word = consistent_word(&params, &target, &key, 77);
        let mut kernel = ScanKernel::new(params, &prepared);
        for round in 0..3 {
            let mut got = Vec::new();
            {
                let mut sink = |tag: u32, ok: bool| got.push((tag, ok));
                kernel.push(0, &word, &mut sink);
                kernel.push(1, &splatter(round, 8), &mut sink);
                kernel.flush(&mut sink);
            }
            assert_eq!(got.len(), 2);
            assert!(got[0].1, "round {round} lost the match");
        }
    }

    #[test]
    fn supports_gates_on_word_len() {
        // The lane path ends where the stream part (word_len −
        // check_len) plus counter and padding outgrows one block, or
        // the check part outgrows one HMAC tag.
        let max = prf::LANE_MSG_MAX;
        assert!(ScanKernel::supports(
            &SwpParams::new(max + 4, 4, 32).unwrap()
        ));
        assert!(!ScanKernel::supports(
            &SwpParams::new(max + 5, 4, 32).unwrap()
        ));
        assert!(ScanKernel::supports(&SwpParams::new(40, 32, 256).unwrap()));
        assert!(!ScanKernel::supports(&SwpParams::new(40, 33, 264).unwrap()));
        // Both shipped schemas take it.
        assert!(ScanKernel::supports(&SwpParams::new(19, 4, 32).unwrap()));
        assert!(ScanKernel::supports(&SwpParams::new(27, 4, 32).unwrap()));
    }

    #[test]
    fn dispatch_boundaries_with_a_wrong_length_word_at_every_position() {
        // Word counts around one and two full dispatches; for each, a
        // run with one wrong-length word at every position, over
        // parameters at both edges of the lane path.
        for (word_len, check_len, check_bits) in [
            (19, 4, 32),
            (27, 4, 13),
            (55, 4, 32),
            (56, 4, 32),
            (40, 33, 264),
        ] {
            let params = SwpParams::new(word_len, check_len, check_bits).unwrap();
            let key = splatter(21, 32);
            let target = splatter(22, word_len);
            let prepared = PreparedTrapdoor::new(&RawTrapdoor {
                target: target.clone(),
                key: key.clone(),
            });
            for count in [15usize, 16, 17, 31, 33] {
                for bad in 0..count {
                    let words: Vec<Vec<u8>> = (0..count as u64)
                        .map(|i| {
                            if i as usize == bad {
                                splatter(i, word_len + 1)
                            } else if i % 3 == 0 {
                                consistent_word(&params, &target, &key, i)
                            } else {
                                splatter(i ^ 0x55, word_len)
                            }
                        })
                        .collect();
                    let mut kernel = ScanKernel::new(params, &prepared);
                    let mut got = Vec::new();
                    {
                        let mut sink = |tag: u32, ok: bool| got.push((tag, ok));
                        for (i, w) in words.iter().enumerate() {
                            kernel.push(i as u32, w, &mut sink);
                        }
                        kernel.flush(&mut sink);
                    }
                    let want: Vec<(u32, bool)> = words
                        .iter()
                        .enumerate()
                        .map(|(i, w)| (i as u32, scalar_decision(&params, &prepared, w)))
                        .collect();
                    assert_eq!(got, want, "{params:?}, {count} words, bad lane {bad}");
                    assert!(!got[bad].1);
                    for (i, (_, ok)) in got.iter().enumerate() {
                        if i % 3 == 0 && i != bad {
                            assert!(ok, "consistent word {i} rejected");
                        }
                    }
                }
            }
        }
    }
}
