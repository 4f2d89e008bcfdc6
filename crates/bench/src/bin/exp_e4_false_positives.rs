//! E4 — the §3 false-positive remark, measured.
//!
//! "Note that some searchable encryption schemes […] sometimes return
//! false positives. Alex needs to run a filter on the output. As the
//! error rate is relatively small for all practical purposes, this
//! does not affect the efficiency of our construction."
//!
//! We sweep the SWP check width and measure (a) the raw word-level
//! false-positive rate against the `2^-check_bits` prediction, and
//! (b) the end-to-end superset factor of server results before the
//! client filter, confirming correctness is unaffected.
//!
//! Usage: `exp_e4_false_positives [words] [seed]` (defaults 200000, 4).

use dbph_bench::Table;
use dbph_core::protocol::{ClientMessage, ServerResponse, WireTrapdoor};
use dbph_core::wire::{WireDecode, WireEncode};
use dbph_core::{
    ph::check_homomorphism_law, DatabasePh, FinalSwpPh, Server, ServerConfig, WordCodec,
};
use dbph_crypto::{DeterministicRng, EntropySource, SecretKey};
use dbph_relation::{Query, Relation};
use dbph_swp::{matches, FinalScheme, Location, SearchableScheme, SwpParams, Word};
use dbph_workload::EmployeeGen;

fn args() -> (usize, u64) {
    let mut a = std::env::args().skip(1);
    let words = a.next().and_then(|s| s.parse().ok()).unwrap_or(200_000);
    let seed = a.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    (words, seed)
}

/// Measures the raw false-positive rate: `n` random non-matching words
/// tested against one trapdoor.
fn word_level_fp(check_bits: u32, n: usize, seed: u64) -> f64 {
    let params = SwpParams::new(13, 4, check_bits).expect("valid params");
    let mut rng = DeterministicRng::from_seed(seed).child(&format!("fp-{check_bits}"));
    let scheme = FinalScheme::new(params, &SecretKey::generate(&mut rng));

    let target = Word::from_bytes_unchecked(b"target-word-!"[..13].to_vec());
    let trapdoor = scheme.trapdoor(&target).expect("trapdoor");

    let mut false_positives = 0usize;
    for i in 0..n {
        // Random 13-byte word; skip the (astronomically unlikely)
        // collision with the target so every match counted is false.
        let mut bytes = vec![0u8; 13];
        rng.fill(&mut bytes);
        if bytes == target.as_bytes() {
            continue;
        }
        let w = Word::from_bytes_unchecked(bytes);
        let c = scheme
            .encrypt_word(Location::new(i as u64, 0), &w)
            .expect("encrypt");
        if matches(&params, &trapdoor, &c) {
            false_positives += 1;
        }
    }
    false_positives as f64 / n as f64
}

fn main() {
    let (words, seed) = args();
    println!("# E4 — false-positive rate vs check width (paper §3 remark)");
    println!("# word_len = 13 bytes, check block = 4 bytes, {words} random words per row");
    println!();

    let mut table = Table::new(&["check_bits", "predicted 2^-m", "measured FP rate", "ratio"]);
    for bits in [1u32, 2, 4, 6, 8, 10, 12, 16] {
        let predicted = 2f64.powi(-(bits as i32));
        let measured = word_level_fp(bits, words, seed);
        let ratio = if predicted > 0.0 {
            measured / predicted
        } else {
            f64::NAN
        };
        table.row(&[
            bits.to_string(),
            format!("{predicted:.6}"),
            format!("{measured:.6}"),
            format!("{ratio:.3}"),
        ]);
    }
    table.print();
    println!();
    println!("# Expected: measured ≈ predicted (ratio ≈ 1.0) for every width.");
    println!();

    // End-to-end: server superset factor + correctness after filtering.
    println!("# E4b — end-to-end superset factor on Emp(1000 rows), query dept = 'dept-00'");
    let relation: Relation = EmployeeGen {
        rows: 1000,
        ..EmployeeGen::default()
    }
    .generate(seed);
    let schema = EmployeeGen::schema();
    let codec_len = WordCodec::new(schema.clone()).word_len();

    let mut e2e = Table::new(&[
        "check_bits",
        "true matches",
        "server result",
        "superset factor",
        "law holds",
    ]);
    for bits in [2u32, 4, 8, 16, 32] {
        let params = SwpParams::new(codec_len, 4, bits).expect("valid params");
        let mut rng = DeterministicRng::from_seed(seed).child(&format!("e2e-{bits}"));
        let ph = FinalSwpPh::with_params(schema.clone(), &SecretKey::generate(&mut rng), params)
            .expect("params fit codec");
        let query = Query::select("dept", "dept-00");
        let truth = dbph_relation::exec::select(&relation, &query).expect("select");
        let ct = ph.encrypt_table(&relation).expect("encrypt");
        let qct = ph.encrypt_query(&query).expect("encrypt query");
        let server = FinalSwpPh::apply(&ct, &qct);
        let law = check_homomorphism_law(&ph, &relation, &query).is_ok();
        e2e.row(&[
            bits.to_string(),
            truth.len().to_string(),
            server.len().to_string(),
            format!("{:.3}", server.len() as f64 / truth.len().max(1) as f64),
            law.to_string(),
        ]);
    }
    e2e.print();
    println!();
    println!("# Expected: superset factor → 1.0 as check_bits grows; the");
    println!("# homomorphism law (client-filtered correctness) holds at every width.");
    println!();

    // Pooled execution path: the FP trade-off must be a pure function
    // of check_bits — fanning the scan's shards over the worker pool
    // may change nothing about the candidate set the server returns.
    println!("# E4c — check_bits × pool size on the full server path (Emp 1000 rows)");
    let mut sharded = Table::new(&[
        "check_bits",
        "workers",
        "true matches",
        "server candidates",
        "superset factor",
        "invariant",
    ]);
    let query = Query::select("dept", "dept-00");
    let truth = dbph_relation::exec::select(&relation, &query).expect("select");
    for bits in [2u32, 4, 8, 16] {
        let params = SwpParams::new(codec_len, 4, bits).expect("valid params");
        let mut rng = DeterministicRng::from_seed(seed).child(&format!("shard-{bits}"));
        let ph = FinalSwpPh::with_params(schema.clone(), &SecretKey::generate(&mut rng), params)
            .expect("params fit codec");
        let ct = ph.encrypt_table(&relation).expect("encrypt");
        let qct = ph.encrypt_query(&query).expect("encrypt query");
        let terms: Vec<WireTrapdoor> = qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect();
        let mut baseline: Option<usize> = None;
        for workers in [1usize, 2, 4] {
            let server = Server::open(
                &ServerConfig {
                    workers: Some(workers),
                    ..ServerConfig::default()
                },
                None,
            )
            .expect("an in-memory open cannot fail");
            let _ = server.handle(
                &ClientMessage::CreateTable {
                    name: "Emp".into(),
                    table: ct.clone().into(),
                }
                .to_wire(),
            );
            let resp = server.handle(
                &ClientMessage::Query {
                    name: "Emp".into(),
                    terms: terms.clone(),
                }
                .to_wire(),
            );
            let candidates = match ServerResponse::from_wire(&resp).expect("decode") {
                ServerResponse::Table(t) => t.len(),
                other => panic!("unexpected response {other:?}"),
            };
            let invariant = *baseline.get_or_insert(candidates) == candidates;
            sharded.row(&[
                bits.to_string(),
                workers.to_string(),
                truth.len().to_string(),
                candidates.to_string(),
                format!("{:.3}", candidates as f64 / truth.len().max(1) as f64),
                invariant.to_string(),
            ]);
        }
    }
    sharded.print();
    println!();
    println!("# Expected: candidate counts depend on check_bits only — identical down");
    println!("# each workers column (invariant = true); pick check_bits for the FP");
    println!("# budget, workers for throughput, independently.");
}
