//! PR 4 equivalence obligations for the allocation-free scan hot path.
//!
//! Two components may never change a single decision:
//!
//! 1. **`ScanKernel` ≡ scalar `matches`.** The 16-lane kernel stages
//!    words into its lane PRF dispatch; for every random parameter
//!    shape (`word_len` / `check_len` / `check_bits`), every
//!    lane-remainder size (0–15 trailing words at the flush), and every
//!    word — consistent, random, or length-mismatched — its decision
//!    must equal the scalar reference, in push order.
//! 2. **`WordArena` ≡ `Vec<Doc>`.** The columnar shard storage must
//!    reassemble documents byte-identically to the boxed layout under
//!    arbitrary append/delete/repartition churn, including words whose
//!    length deviates from the table's word length (wire-legal; they
//!    never match but must round-trip verbatim).
//!
//! Together with `tests/sharding.rs` (responses and transcripts across
//! shard counts × pool sizes) these pin the tentpole claim: the kernel
//! and the arena change *when* scan work happens, never what Eve sees.

use dbph::core::storage::Doc;
use dbph::core::WordArena;
use dbph::swp::kernel::LANES;
use dbph::swp::{matches, CipherWord, PreparedTrapdoor, ScanKernel, SwpParams};

use proptest::prelude::*;

/// `TrapdoorData` fixture: raw (target, key) bytes, arbitrary lengths.
#[derive(Debug, Clone)]
struct RawTrapdoor {
    target: Vec<u8>,
    key: Vec<u8>,
}

impl dbph::swp::TrapdoorData for RawTrapdoor {
    fn target(&self) -> &[u8] {
        &self.target
    }
    fn check_key(&self) -> &[u8] {
        &self.key
    }
}

/// Parameters from three independent draws: `word_len` in 2..=40,
/// `check_len` folded into 1..word_len, `check_bits` folded into
/// 1..=8*check_len (the shim has no flat-map, so dependent fields are
/// derived inside the map).
fn arb_params() -> impl Strategy<Value = SwpParams> {
    (2usize..=40, any::<u16>(), any::<u16>()).prop_map(|(word_len, c, b)| {
        let check_len = 1 + (c as usize) % (word_len - 1);
        let check_bits = 1 + u32::from(b) % (8 * check_len as u32);
        SwpParams::new(word_len, check_len, check_bits).unwrap()
    })
}

/// A cipher word guaranteed to match `(target, key)` under `params`.
fn consistent_word(params: &SwpParams, target: &[u8], key: &[u8], salt: &[u8]) -> Vec<u8> {
    use dbph::crypto::{HmacPrf, Prf};
    let split = params.stream_len();
    let s: Vec<u8> = (0..split)
        .map(|i| salt[i % salt.len().max(1)] ^ (i as u8).wrapping_mul(37))
        .collect();
    let f = HmacPrf::new(key).eval(&s, params.check_len);
    let mut c = Vec::with_capacity(params.word_len);
    c.extend(target[..split].iter().zip(&s).map(|(a, b)| a ^ b));
    c.extend(target[split..].iter().zip(&f).map(|(a, b)| a ^ b));
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel decisions equal scalar decisions, in order, for random
    /// parameters, random/consistent/ragged words, and every lane
    /// remainder (word counts span 0..=2*LANES+3).
    #[test]
    fn kernel_matches_scalar_reference(
        params in arb_params(),
        key in proptest::collection::vec(any::<u8>(), 0..40),
        salt in proptest::collection::vec(any::<u8>(), 1..8),
        shapes in proptest::collection::vec((0u8..4, any::<u8>()), 0..(2 * LANES + 4)),
        target_ok in any::<bool>(),
    ) {
        let target: Vec<u8> = if target_ok {
            (0..params.word_len).map(|i| salt[i % salt.len()] ^ i as u8).collect()
        } else {
            vec![0xAB; params.word_len + 1] // dead trapdoor: wrong length
        };
        let td = RawTrapdoor { target: target.clone(), key: key.clone() };
        let prepared = PreparedTrapdoor::new(&td);

        // Build the word list: consistent / random / short / long.
        let words: Vec<Vec<u8>> = shapes.iter().enumerate().map(|(i, &(kind, fill))| {
            match kind {
                0 if target_ok => consistent_word(&params, &target, &key, &[salt[i % salt.len()], fill]),
                1 => (0..params.word_len).map(|j| fill ^ j as u8).collect(),
                2 => vec![fill; params.word_len.saturating_sub(1)],
                _ => vec![fill; params.word_len + 1 + (i % 3)],
            }
        }).collect();

        // Kernel decisions, via the streaming API.
        let mut kernel = ScanKernel::new(params, &prepared);
        let mut got: Vec<(u32, bool)> = Vec::new();
        {
            let mut sink = |tag: u32, ok: bool| got.push((tag, ok));
            for (i, w) in words.iter().enumerate() {
                kernel.push(i as u32, w, &mut sink);
            }
            kernel.flush(&mut sink);
        }

        // Scalar reference: both the free function and the prepared
        // path (themselves pinned equal in the swp crate's tests).
        let want: Vec<(u32, bool)> = words.iter().enumerate().map(|(i, w)| {
            let cw = CipherWord(w.clone());
            let free = matches(&params, &td, &cw);
            let prep = prepared.matches(&params, &cw);
            prop_assert_eq!(free, prep, "scalar paths diverged");
            Ok((i as u32, free))
        }).collect::<Result<_, TestCaseError>>()?;

        prop_assert_eq!(&got, &want, "kernel diverged from scalar at {:?}", params);
        if target_ok {
            // Consistent words must actually match (the sweep is not vacuous).
            for (i, &(kind, _)) in shapes.iter().enumerate() {
                if kind == 0 {
                    prop_assert!(got[i].1, "consistent word {} rejected", i);
                }
            }
        } else {
            prop_assert!(got.iter().all(|&(_, ok)| !ok), "dead trapdoor matched");
        }
    }

    /// `matches_many` over a packed slot buffer equals per-slot scalar
    /// decisions (the arena fast path's exact shape).
    #[test]
    fn matches_many_equals_scalar_per_slot(
        params in arb_params(),
        key in proptest::collection::vec(any::<u8>(), 1..34),
        seeds in proptest::collection::vec(any::<u8>(), 0..23),
    ) {
        let target: Vec<u8> = (0..params.word_len).map(|i| (i as u8) ^ 0x3C).collect();
        let prepared = PreparedTrapdoor::new(&RawTrapdoor { target: target.clone(), key: key.clone() });
        let mut slots = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            if i % 3 == 0 {
                slots.extend(consistent_word(&params, &target, &key, &[seed]));
            } else {
                slots.extend((0..params.word_len).map(|j| seed ^ (j as u8).wrapping_mul(11)));
            }
        }
        let mut kernel = ScanKernel::new(params, &prepared);
        let mut got = Vec::new();
        kernel.matches_many(&slots, &mut |tag, ok| got.push((tag, ok)));
        let want: Vec<(u32, bool)> = slots
            .chunks_exact(params.word_len)
            .enumerate()
            .map(|(i, w)| (i as u32, prepared.matches_bytes(&params, w)))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Columnar arena ≡ boxed docs under arbitrary append/delete
    /// churn: byte-identical reassembly, sizes, and word views — with
    /// irregular word lengths mixed in.
    #[test]
    fn arena_roundtrips_boxed_docs_under_churn(
        word_len in 1usize..20,
        ops in proptest::collection::vec(
            (any::<bool>(), 0u8..6, any::<u8>(), any::<u8>()), 1..60),
    ) {
        let mut arena = WordArena::new(word_len);
        let mut reference: Vec<Doc> = Vec::new();
        let mut next_id = 0u64;
        for (is_append, words, fill, pick) in ops {
            if is_append || reference.is_empty() {
                let doc: Vec<CipherWord> = (0..words).map(|w| {
                    // Length drifts around word_len: exact, short, long, empty.
                    let len = match (fill ^ w) % 4 {
                        0 | 1 => word_len,
                        2 => word_len.saturating_sub(usize::from(w) + 1),
                        _ => word_len + usize::from(w),
                    };
                    CipherWord(vec![fill.wrapping_add(w); len])
                }).collect();
                arena.push(next_id, &doc);
                reference.push((next_id, doc));
                next_id += 1;
            } else {
                // Delete a pseudo-random subset by id.
                let victim = reference[usize::from(pick) % reference.len()].0;
                arena.retain(|id| id != victim);
                reference.retain(|(id, _)| *id != victim);
            }
            prop_assert_eq!(arena.len(), reference.len());
            prop_assert_eq!(&arena.to_docs(), &reference);
            prop_assert_eq!(
                arena.ciphertext_bytes(),
                reference.iter().map(|(_, ws)| ws.iter().map(|w| w.0.len()).sum::<usize>()).sum::<usize>()
            );
        }
        // Canonical representation: equal to an arena built in one shot.
        prop_assert_eq!(arena, WordArena::from_docs(word_len, reference));
    }
}

/// Deterministic edge pin (outside proptest so it always runs the
/// same): an arena rebuilt through interleaved churn and a sharded
/// table repartition agree with the boxed reference down to each word
/// view.
#[test]
fn arena_word_views_are_exact() {
    let word_len = 6usize;
    let docs: Vec<Doc> = (0..40u64)
        .map(|i| {
            let words = (0..(i % 4))
                .map(|w| {
                    let len = if (i + w) % 5 == 0 {
                        word_len + 2
                    } else {
                        word_len
                    };
                    CipherWord(vec![(i * 7 + w) as u8; len])
                })
                .collect();
            (i, words)
        })
        .collect();
    let arena = WordArena::from_docs(word_len, docs.clone());
    for (i, (id, words)) in docs.iter().enumerate() {
        assert_eq!(arena.doc_id(i), *id);
        let range = arena.word_range(i);
        assert_eq!(range.len(), words.len());
        for (w, word) in range.zip(words) {
            assert_eq!(arena.word(w), &word.0[..], "word view diverged");
            match arena.regular_slot(w) {
                Some(slot) => assert_eq!(slot, &word.0[..]),
                None => assert_ne!(word.0.len(), word_len),
            }
        }
    }
}
