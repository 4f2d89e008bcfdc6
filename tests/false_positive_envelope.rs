//! Regression pins for the §3 false-positive remark on the *sharded*
//! execution path.
//!
//! The experiment binary (`exp_e4_false_positives`) prints the full
//! sweep; this suite pins its envelope so a refactor of the scan
//! engine — sharding, pooling, the trapdoor memo, the transport —
//! cannot silently bend the FP behavior:
//!
//! * the word-level FP rate stays within a band of the `2^-check_bits`
//!   prediction;
//! * the server's candidate set for a query is a superset of the true
//!   matches whose excess stays within a band of the predicted
//!   `(non-matches) × 2^-check_bits`;
//! * the candidate set is **identical** across pool
//!   sizes at every check width — the FP budget is a property of the
//!   scheme parameters, never of the execution plan.
//!
//! Everything is keyed and seeded deterministically, so the measured
//! numbers are reproducible; the bands are still generous enough to
//! survive an intentional reseed.

use dbph::core::protocol::{ClientMessage, ServerResponse, WireTrapdoor};
use dbph::core::wire::{WireDecode, WireEncode};
use dbph::core::{DatabasePh, FinalSwpPh, Server, ServerConfig, WordCodec};
use dbph::crypto::{DeterministicRng, EntropySource, SecretKey};
use dbph::relation::Query;
use dbph::swp::{matches, FinalScheme, Location, SearchableScheme, SwpParams, Word};
use dbph::workload::EmployeeGen;

/// Word-level FP rate: `n` random non-matching words against one
/// trapdoor (the experiment binary's measurement, shrunk for CI).
fn word_level_fp(check_bits: u32, n: usize) -> f64 {
    let params = SwpParams::new(13, 4, check_bits).unwrap();
    let mut rng = DeterministicRng::from_seed(4).child(&format!("fp-env-{check_bits}"));
    let scheme = FinalScheme::new(params, &SecretKey::generate(&mut rng));
    let target = Word::from_bytes_unchecked(b"target-word-!"[..13].to_vec());
    let trapdoor = scheme.trapdoor(&target).unwrap();

    let mut false_positives = 0usize;
    for i in 0..n {
        let mut bytes = vec![0u8; 13];
        rng.fill(&mut bytes);
        if bytes == target.as_bytes() {
            continue;
        }
        let w = Word::from_bytes_unchecked(bytes);
        let c = scheme.encrypt_word(Location::new(i as u64, 0), &w).unwrap();
        if matches(&params, &trapdoor, &c) {
            false_positives += 1;
        }
    }
    false_positives as f64 / n as f64
}

#[test]
fn word_level_fp_rate_tracks_prediction() {
    // Wide enough samples that the band is meaningful: at bits=4 the
    // expectation is 20000/16 = 1250 hits; a 40% band is ~14 sigma.
    for bits in [1u32, 2, 4] {
        let predicted = 2f64.powi(-(bits as i32));
        let measured = word_level_fp(bits, 20_000);
        let ratio = measured / predicted;
        assert!(
            (0.6..=1.6).contains(&ratio),
            "check_bits={bits}: measured {measured:.5} vs predicted {predicted:.5} (ratio {ratio:.3}) left the envelope"
        );
    }
}

/// Runs one query against a server with the given pool size and returns
/// the candidate count.
fn candidates(table: &dbph::core::EncryptedTable, terms: &[WireTrapdoor], workers: usize) -> usize {
    let server = Server::open(
        &ServerConfig {
            workers: Some(workers),
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let _ = server.handle(
        &ClientMessage::CreateTable {
            name: "Emp".into(),
            table: table.clone().into(),
        }
        .to_wire(),
    );
    let resp = server.handle(
        &ClientMessage::Query {
            name: "Emp".into(),
            terms: terms.to_vec(),
        }
        .to_wire(),
    );
    match ServerResponse::from_wire(&resp).unwrap() {
        ServerResponse::Table(t) => t.len(),
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn sharded_candidate_sets_stay_in_the_fp_envelope_and_are_plan_invariant() {
    let relation = EmployeeGen {
        rows: 400,
        ..EmployeeGen::default()
    }
    .generate(4);
    let schema = EmployeeGen::schema();
    let codec_len = WordCodec::new(schema.clone()).word_len();
    let query = Query::select("dept", "dept-00");
    let truth = dbph::relation::exec::select(&relation, &query)
        .unwrap()
        .len();
    assert!(truth > 0, "workload must contain true matches");

    for bits in [2u32, 4, 8] {
        let params = SwpParams::new(codec_len, 4, bits).unwrap();
        let ph =
            FinalSwpPh::with_params(schema.clone(), &SecretKey::from_bytes([91u8; 32]), params)
                .unwrap();
        let table = ph.encrypt_table(&relation).unwrap();
        let qct = ph.encrypt_query(&query).unwrap();
        let terms: Vec<WireTrapdoor> = qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect();

        // Per-tuple FP probability: a tuple is a candidate when its
        // addressed word trips the check (the single-word rate; an
        // all-words scan would reach words-per-tuple times it). The
        // pinned band covers both ends with slack for the
        // small-sample widths.
        let non_matches = (relation.len() - truth) as f64;
        let per_word = 2f64.powi(-(bits as i32));
        let words_per_tuple = schema.arity() as f64;
        let max_expected = non_matches * per_word * words_per_tuple;

        let reference = candidates(&table, &terms, 1);
        let excess = reference - truth;
        assert!(
            reference >= truth,
            "check_bits={bits}: candidates must be a superset of true matches"
        );
        assert!(
            (excess as f64) <= 3.0 * max_expected + 10.0,
            "check_bits={bits}: {excess} false positives blow past the predicted ≤{max_expected:.1} envelope"
        );
        if bits <= 2 {
            // At 2 bits the expectation is large (≥90 tuples); a scan
            // that stopped producing false positives here would mean
            // the check semantics changed.
            assert!(
                (excess as f64) >= non_matches * per_word / 3.0,
                "check_bits={bits}: only {excess} false positives — far below prediction"
            );
        }

        // The execution plan must not move the needle at all.
        for workers in [1usize, 2, 4] {
            assert_eq!(
                candidates(&table, &terms, workers),
                reference,
                "candidate count changed at {workers} worker(s) for check_bits={bits}"
            );
        }
    }
}
