//! Attribute-addressed scans: `ψ` checks one word per row — the word at
//! the term's attribute position — and that drops nothing but false
//! positives.
//!
//! * **Only false positives are dropped.** At `check_bits` 2–4, where
//!   false positives are common, the addressed server's candidates are
//!   compared with a test-local all-words oracle (keyless `matches`
//!   over every word of every row). Every row the oracle returns and
//!   the server drops is absent from the plaintext `select`, and
//!   `Client::select` still equals the plaintext `select` exactly.
//! * **Adversarial terms and documents match nothing, never panic.** An
//!   `attr` at or beyond a document's word count, a document with a
//!   deviant word count, and an irregular (wrong-length) word at the
//!   addressed position all reject the row. Each case gets the same
//!   response from the scan plan and the index plan, on every pool
//!   size.
//! * **Same bytes, different attributes, different terms.** A
//!   `QueryBatch` carrying one trapdoor's bytes addressed to two
//!   positions keeps their match sets and postings apart.

use dbph::core::protocol::{ClientMessage, ServerResponse, WireTrapdoor};
use dbph::core::server::ServerEvent;
use dbph::core::swp_ph::execute_query;
use dbph::core::wire::{WireDecode as _, WireEncode as _};
use dbph::core::{Client, DatabasePh, EncryptedTable, FinalSwpPh, Server, ServerConfig, WordCodec};
use dbph::crypto::{HmacPrf, Prf, SecretKey};
use dbph::relation::{ExactSelect, Query, Relation};
use dbph::swp::{matches, CipherWord, SwpParams};
use dbph::workload::EmployeeGen;

use proptest::prelude::*;

/// `ψ` over every word of every row: the candidates the scan returned
/// before terms were addressed.
fn all_words_oracle(table: &EncryptedTable, terms: &[WireTrapdoor]) -> Vec<u64> {
    table
        .docs
        .iter()
        .filter(|(_, words)| {
            terms
                .iter()
                .all(|t| words.iter().any(|w| matches(&table.params, t, w)))
        })
        .map(|(id, _)| *id)
        .collect()
}

fn call(server: &Server, msg: &ClientMessage) -> ServerResponse {
    ServerResponse::from_wire(&server.handle(&msg.to_wire())).unwrap()
}

fn upload(server: &Server, name: &str, table: &EncryptedTable) {
    let resp = call(
        server,
        &ClientMessage::CreateTable {
            name: name.into(),
            table: table.clone().into(),
        },
    );
    assert_eq!(resp, ServerResponse::Ok);
}

fn candidate_ids(server: &Server, terms: &[WireTrapdoor]) -> Vec<u64> {
    match call(
        server,
        &ClientMessage::Query {
            name: "Emp".into(),
            terms: terms.to_vec(),
        },
    ) {
        ServerResponse::Table(t) => t.doc_ids(),
        other => panic!("unexpected {other:?}"),
    }
}

fn query_for(relation: &Relation, pick: u64, attrs: &[usize]) -> Query {
    let row = &relation.tuples()[(pick as usize) % relation.len()];
    let names = ["name", "dept", "salary"];
    let terms: Vec<ExactSelect> = attrs
        .iter()
        .map(|&a| ExactSelect::new(names[a], row.get(a).unwrap().clone()))
        .collect();
    Query::conjunction(terms).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn addressing_drops_only_false_positives(
        seed in 0u64..1_000,
        bits in 2u32..=4,
        pick in any::<u64>(),
        shape in 0usize..5,
        workers in 1usize..4,
    ) {
        let relation = EmployeeGen { rows: 96, departments: 4, ..EmployeeGen::default() }
            .generate(seed);
        let schema = EmployeeGen::schema();
        let params = SwpParams::new(WordCodec::new(schema.clone()).word_len(), 4, bits).unwrap();
        let key = SecretKey::from_bytes([(seed % 251) as u8; 32]);
        let ph = FinalSwpPh::with_params(schema.clone(), &key, params).unwrap();
        let attrs: &[usize] = [&[0][..], &[1], &[2], &[1, 2], &[2, 0]][shape];
        let query = query_for(&relation, pick, attrs);

        let table = ph.encrypt_table(&relation).unwrap();
        let qct = ph.encrypt_query(&query).unwrap();
        let terms: Vec<WireTrapdoor> = qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect();
        let scan = Server::open(&ServerConfig { workers: Some(workers), ..ServerConfig::default() }, None).unwrap();
        upload(&scan, "Emp", &table);
        let served = candidate_ids(&scan, &terms);
        let indexed = Server::open(&ServerConfig { workers: Some(workers), index: true, ..ServerConfig::default() }, None).unwrap();
        upload(&indexed, "Emp", &table);
        prop_assert_eq!(&candidate_ids(&indexed, &terms), &served);
        prop_assert_eq!(&execute_query(&table, &terms).doc_ids(), &served);

        // Plaintext `select`, by row: doc ids are row indices.
        let bound = query.bind(&schema).unwrap();
        let truth: Vec<u64> = relation
            .tuples()
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                query.terms().iter().zip(&bound).all(|(term, &a)| t.get(a) == Some(&term.value))
            })
            .map(|(i, _)| i as u64)
            .collect();
        let oracle = all_words_oracle(&table, &terms);
        for id in &truth {
            prop_assert!(served.contains(id), "true match {} dropped", id);
        }
        for id in &served {
            prop_assert!(oracle.contains(id), "served {} outside the all-words oracle", id);
        }
        for id in oracle.iter().filter(|id| !served.contains(id)) {
            prop_assert!(!truth.contains(id), "dropped row {} was a true match", id);
        }

        let mut client = Client::new(ph.clone(), Server::open(&ServerConfig { workers: Some(workers), ..ServerConfig::default() }, None).unwrap());
        client.outsource(&relation).unwrap();
        let answer = client.select(&query).unwrap();
        let expected = dbph::relation::exec::select(&relation, &query).unwrap();
        prop_assert!(answer.same_multiset(&expected), "client answer diverged from plaintext");
    }
}

/// The all-words oracle really does find extra rows at 2 check bits —
/// so the proptest above compares against something.
#[test]
fn all_words_oracle_returns_more_than_the_addressed_scan_at_low_check_bits() {
    let relation = EmployeeGen {
        rows: 200,
        departments: 4,
        ..EmployeeGen::default()
    }
    .generate(3);
    let schema = EmployeeGen::schema();
    let params = SwpParams::new(WordCodec::new(schema.clone()).word_len(), 4, 2).unwrap();
    let ph = FinalSwpPh::with_params(schema, &SecretKey::from_bytes([5u8; 32]), params).unwrap();
    let table = ph.encrypt_table(&relation).unwrap();
    let qct = ph.encrypt_query(&Query::select("dept", "dept-01")).unwrap();
    let terms: Vec<WireTrapdoor> = qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect();
    let served = execute_query(&table, &terms).doc_ids();
    let oracle = all_words_oracle(&table, &terms);
    assert!(
        oracle.len() > served.len() + 20,
        "oracle {} vs served {}",
        oracle.len(),
        served.len()
    );
}

// --- adversarial terms and documents -----------------------------------

const WORD_LEN: usize = 13;

fn params() -> SwpParams {
    SwpParams::new(WORD_LEN, 4, 32).unwrap()
}

fn term(attr: u8) -> WireTrapdoor {
    WireTrapdoor {
        attr,
        target: (0..WORD_LEN as u8).map(|i| 0x3C ^ i).collect(),
        check_key: vec![0xA5; 32],
    }
}

/// A cipher word that passes the keyless check for [`term`]'s bytes.
fn hit(salt: u8) -> CipherWord {
    let t = term(0);
    let params = params();
    let split = params.stream_len();
    let s: Vec<u8> = (0..split as u8)
        .map(|i| salt ^ i.wrapping_mul(29))
        .collect();
    let f = HmacPrf::new(&t.check_key).eval(&s, params.check_len);
    let mut c = Vec::with_capacity(WORD_LEN);
    c.extend(t.target[..split].iter().zip(&s).map(|(a, b)| a ^ b));
    c.extend(t.target[split..].iter().zip(&f).map(|(a, b)| a ^ b));
    CipherWord(c)
}

fn miss(salt: u8) -> CipherWord {
    CipherWord(vec![salt; WORD_LEN])
}

/// Rows with deviant shapes: every word count from 0 to 5, matching
/// words at several positions, and irregular words where a match would
/// otherwise be.
fn deviant_table() -> EncryptedTable {
    let irregular = |n: usize| CipherWord(vec![0x77; n]);
    let docs: Vec<(u64, Vec<CipherWord>)> = vec![
        (0, vec![hit(0), miss(1), miss(2)]),
        (1, vec![miss(3), hit(1), miss(4)]),
        (2, vec![miss(5), miss(6), hit(2)]),
        (3, vec![]),
        (4, vec![hit(3)]),
        (5, vec![miss(7), hit(4)]),
        (6, vec![irregular(5), hit(5), miss(8)]),
        (7, vec![miss(9), irregular(WORD_LEN + 1), hit(6)]),
        (8, vec![hit(7), hit(8), hit(9), hit(10), hit(11)]),
        (9, vec![miss(10), miss(11), miss(12), miss(13), hit(12)]),
        (10, vec![irregular(0), irregular(1), irregular(2)]),
    ];
    EncryptedTable {
        params: params(),
        next_doc_id: docs.len() as u64,
        docs,
    }
}

/// Sends `msgs` to a fresh server of the given plan and returns the
/// responses plus the transcript without index-probe events.
fn run_plan(
    table: &EncryptedTable,
    msgs: &[ClientMessage],
    workers: usize,
    indexed: bool,
) -> (Vec<ServerResponse>, Vec<ServerEvent>) {
    let server = Server::open(
        &ServerConfig {
            workers: Some(workers),
            index: indexed,
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    upload(&server, "Emp", table);
    let responses = msgs.iter().map(|m| call(&server, m)).collect();
    let events = server
        .observer()
        .events()
        .into_iter()
        .filter(|e| !matches!(e, ServerEvent::IndexProbe { .. }))
        .collect();
    (responses, events)
}

fn assert_plans_agree(table: &EncryptedTable, msgs: &[ClientMessage]) -> Vec<ServerResponse> {
    let reference = run_plan(table, msgs, 1, false);
    assert!(!reference.1.is_empty(), "the reference recorded no events");
    for workers in [1usize, 2, 4] {
        for indexed in [false, true] {
            let got = run_plan(table, msgs, workers, indexed);
            assert_eq!(got, reference, "{workers} worker(s), indexed {indexed}");
            // Twice through the index: the second pass is served from
            // cached postings.
            if indexed {
                let twice: Vec<ClientMessage> = msgs.iter().chain(msgs).cloned().collect();
                let (responses, _) = run_plan(table, &twice, workers, true);
                assert_eq!(&responses[..msgs.len()], &responses[msgs.len()..]);
            }
        }
    }
    reference.0
}

fn ids(resp: &ServerResponse) -> Vec<u64> {
    match resp {
        ServerResponse::Table(t) => t.doc_ids(),
        other => panic!("unexpected {other:?}"),
    }
}

fn query(terms: Vec<WireTrapdoor>) -> ClientMessage {
    ClientMessage::Query {
        name: "Emp".into(),
        terms,
    }
}

#[test]
fn each_attr_matches_only_its_own_regular_word() {
    let table = deviant_table();
    let msgs: Vec<ClientMessage> = (0..6).map(|a| query(vec![term(a)])).collect();
    let responses = assert_plans_agree(&table, &msgs);
    let got: Vec<Vec<u64>> = responses.iter().map(ids).collect();
    assert_eq!(
        got,
        vec![
            vec![0, 4, 8], // doc 10's word 0 is irregular
            vec![1, 5, 6, 8],
            vec![2, 7, 8],
            vec![8],
            vec![8, 9],
            vec![], // no document has six words
        ]
    );
    for (a, want) in got.iter().enumerate() {
        assert_eq!(&execute_query(&table, &[term(a as u8)]).doc_ids(), want);
    }
}

#[test]
fn attr_at_or_beyond_the_arity_matches_nothing() {
    let table = deviant_table();
    let msgs: Vec<ClientMessage> = [5u8, 6, 100, 254, 255]
        .into_iter()
        .map(|a| query(vec![term(a)]))
        .chain([
            query(vec![term(0), term(255)]),
            ClientMessage::QueryBatch {
                name: "Emp".into(),
                queries: vec![vec![term(255)], vec![term(200), term(200)]],
            },
        ])
        .collect();
    for resp in assert_plans_agree(&table, &msgs) {
        match resp {
            ServerResponse::Table(t) => assert!(t.docs.is_empty()),
            ServerResponse::Tables(ts) => assert!(ts.iter().all(|t| t.docs.is_empty())),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn irregular_word_at_the_addressed_position_rejects_the_row() {
    // Doc 6 has an irregular word 0 and a match at word 1; doc 7 has an
    // oversized word 1 and a match at word 2; doc 10 is all irregular.
    let table = deviant_table();
    let msgs = vec![
        query(vec![term(0)]),
        query(vec![term(1), term(2)]),
        query(vec![term(2), term(1)]),
    ];
    let responses = assert_plans_agree(&table, &msgs);
    assert!(!ids(&responses[0]).contains(&6));
    assert!(!ids(&responses[0]).contains(&10));
    // Conjunctions in either order: only doc 8 matches at both.
    assert_eq!(ids(&responses[1]), vec![8]);
    assert_eq!(ids(&responses[2]), vec![8]);
}

#[test]
fn batch_mixing_attrs_for_the_same_trapdoor_bytes_keeps_terms_apart() {
    let table = deviant_table();
    // Same target and key bytes, three positions; repeated across the
    // batch so the memo shares match sets between queries.
    let batch = ClientMessage::QueryBatch {
        name: "Emp".into(),
        queries: vec![
            vec![term(0)],
            vec![term(1)],
            vec![term(0), term(1)],
            vec![term(1), term(0)],
            vec![term(2)],
            vec![term(0)],
        ],
    };
    let msgs = vec![batch.clone(), query(vec![term(1)]), query(vec![term(0)])];
    let responses = assert_plans_agree(&table, &msgs);
    let ServerResponse::Tables(results) = &responses[0] else {
        panic!("unexpected {:?}", responses[0]);
    };
    let got: Vec<Vec<u64>> = results.iter().map(EncryptedTable::doc_ids).collect();
    assert_eq!(
        got,
        vec![
            vec![0, 4, 8],
            vec![1, 5, 6, 8],
            vec![8],
            vec![8],
            vec![2, 7, 8],
            vec![0, 4, 8],
        ]
    );
    assert_eq!(ids(&responses[1]), vec![1, 5, 6, 8]);
    assert_eq!(ids(&responses[2]), vec![0, 4, 8]);

    // The index keeps one posting per (attr, label): three keys, one
    // label.
    let server = Server::open(
        &ServerConfig {
            index: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    upload(&server, "Emp", &table);
    let _ = call(&server, &batch);
    let at_rest = server.index_at_rest("Emp");
    let keys: Vec<u8> = at_rest.iter().map(|((attr, _), _)| *attr).collect();
    assert_eq!(keys, vec![0, 1, 2]);
    let labels: std::collections::BTreeSet<_> =
        at_rest.iter().map(|((_, label), _)| *label).collect();
    assert_eq!(labels.len(), 1, "one label under three attrs");
    let postings: Vec<&Vec<u64>> = at_rest.iter().map(|(_, ids)| ids).collect();
    assert_eq!(
        postings,
        vec![&vec![0, 4, 8], &vec![1, 5, 6, 8], &vec![2, 7, 8]]
    );
}

#[test]
fn query_events_record_the_attribute() {
    let server = Server::open(
        &ServerConfig {
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    upload(&server, "Emp", &deviant_table());
    let _ = call(&server, &query(vec![term(2)]));
    let _ = call(&server, &query(vec![term(200)]));
    let attrs: Vec<u8> = server
        .observer()
        .queries()
        .iter()
        .map(|(terms, _)| terms[0].attr)
        .collect();
    assert_eq!(attrs, vec![2, 200]);
}
