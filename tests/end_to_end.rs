//! End-to-end outsourcing flows through the byte-level protocol,
//! including failure injection: corrupted wire bytes, corrupted
//! ciphertexts, stale appends, and cross-client isolation.

use dbph::core::protocol::{ClientMessage, ServerResponse, WireTrapdoor};
use dbph::core::wire::{WireDecode, WireEncode};
use dbph::core::{Client, DatabasePh, FinalSwpPh, Server, ServerConfig};
use dbph::crypto::SecretKey;
use dbph::relation::schema::emp_schema;
use dbph::relation::{tuple, Query, Relation};
use dbph::workload::EmployeeGen;

/// An in-memory server that records its transcript.
fn recording() -> Server {
    Server::open(
        &ServerConfig {
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap()
}

fn setup(seed: u8) -> (Client, Server) {
    let server = recording();
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([seed; 32])).unwrap();
    (Client::new(ph, server.clone()), server)
}

#[test]
fn large_table_full_lifecycle() {
    let (mut client, _server) = setup(1);
    let relation = EmployeeGen {
        rows: 1000,
        ..EmployeeGen::default()
    }
    .generate(11);
    client.outsource(&relation).unwrap();

    // Query a hot department.
    let result = client.select(&Query::select("dept", "dept-00")).unwrap();
    let expected =
        dbph::relation::exec::select(&relation, &Query::select("dept", "dept-00")).unwrap();
    assert!(result.same_multiset(&expected));

    // Insert a batch and re-query.
    for i in 0..50 {
        client
            .insert(&tuple![format!("new-{i:04}"), "dept-00", 5555i64])
            .unwrap();
    }
    let result = client.select(&Query::select("salary", 5555i64)).unwrap();
    assert_eq!(result.len(), 50);

    // Full download equals plaintext + inserts.
    let all = client.fetch_all().unwrap();
    assert_eq!(all.len(), 1050);

    client.drop_table().unwrap();
    assert!(client.fetch_all().is_err());
}

#[test]
fn multiple_tables_coexist_on_one_server() {
    let server = recording();
    let emp_ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([3u8; 32])).unwrap();
    let hosp_ph = FinalSwpPh::new(
        dbph::relation::schema::hospital_schema(),
        &SecretKey::from_bytes([4u8; 32]),
    )
    .unwrap();

    let mut emp_client = Client::new(emp_ph, server.clone());
    let mut hosp_client = Client::new(hosp_ph, server.clone());

    emp_client
        .outsource(
            &EmployeeGen {
                rows: 50,
                ..EmployeeGen::default()
            }
            .generate(12),
        )
        .unwrap();
    hosp_client
        .outsource(
            &dbph::workload::HospitalConfig {
                patients: 50,
                ..Default::default()
            }
            .generate(13),
        )
        .unwrap();

    assert_eq!(emp_client.fetch_all().unwrap().len(), 50);
    assert_eq!(hosp_client.fetch_all().unwrap().len(), 50);
    assert_eq!(server.observer().events().len(), 4); // 2 uploads + 2 fetches
}

#[test]
fn server_rejects_garbage_bytes_gracefully() {
    let server = Server::open(&ServerConfig::default(), None).unwrap();
    for garbage in [&[][..], &[0xFF][..], &[1, 2, 3][..], &[0u8; 1000][..]] {
        let resp = ServerResponse::from_wire(&server.handle(garbage)).unwrap();
        assert!(matches!(resp, ServerResponse::Error(_)), "{garbage:?}");
    }
}

#[test]
fn truncated_messages_are_rejected_not_panicking() {
    let (mut client, server) = setup(5);
    let relation = EmployeeGen {
        rows: 5,
        ..EmployeeGen::default()
    }
    .generate(14);
    client.outsource(&relation).unwrap();

    // Take a valid query message and truncate it at every prefix length.
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([5u8; 32])).unwrap();
    let qct = ph.encrypt_query(&Query::select("dept", "dept-00")).unwrap();
    let msg = ClientMessage::Query {
        name: "Emp".into(),
        terms: qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect(),
    }
    .to_wire();
    for cut in 0..msg.len() {
        let resp = ServerResponse::from_wire(&server.handle(&msg[..cut])).unwrap();
        assert!(matches!(resp, ServerResponse::Error(_)), "cut at {cut}");
    }
}

#[test]
fn corrupted_stored_word_is_filtered_or_detected() {
    // A malicious server flips bits in one stored cipher word. The
    // client either fails to decode the tuple (detected) or decodes a
    // garbled value that the false-positive filter screens out of
    // query results. Either way the result never contains a wrong
    // tuple silently matching the query.
    let ph = FinalSwpPh::new(emp_schema(), &SecretKey::from_bytes([6u8; 32])).unwrap();
    let relation = Relation::from_tuples(
        emp_schema(),
        vec![
            tuple!["Montgomery", "HR", 7500i64],
            tuple!["Smith", "IT", 4900i64],
        ],
    )
    .unwrap();
    let q = Query::select("dept", "HR");

    let mut ct = ph.encrypt_table(&relation).unwrap();
    // Corrupt the dept word of the matching tuple.
    ct.docs[0].1[1].0[3] ^= 0xFF;

    let qct = ph.encrypt_query(&q).unwrap();
    let server_result = FinalSwpPh::apply(&ct, &qct);
    match ph.decrypt_result(&server_result, &q) {
        Ok(result) => {
            // The corrupted tuple can no longer match dept = 'HR'.
            for t in result.tuples() {
                assert_eq!(t.get(1), Some(&dbph::relation::Value::str("HR")));
            }
        }
        Err(e) => {
            // Decode failure is an acceptable (detected) outcome.
            let msg = e.to_string();
            assert!(!msg.is_empty());
        }
    }
}

#[test]
fn stale_append_rejected_fresh_append_accepted() {
    let (mut client, server) = setup(7);
    client
        .outsource(
            &EmployeeGen {
                rows: 3,
                ..EmployeeGen::default()
            }
            .generate(15),
        )
        .unwrap();

    // Direct protocol-level stale append (doc id 0 already taken).
    let resp = ServerResponse::from_wire(
        &server.handle(
            &ClientMessage::Append {
                name: "Emp".into(),
                doc_id: 0,
                words: vec![],
            }
            .to_wire(),
        ),
    )
    .unwrap();
    assert!(matches!(resp, ServerResponse::Error(_)));

    // The client's own append path stays consistent.
    client.insert(&tuple!["fresh", "dept-00", 1i64]).unwrap();
    assert_eq!(client.fetch_all().unwrap().len(), 4);
}

#[test]
fn concurrent_clients_share_one_server_safely() {
    // The server's interior locking must hold up under parallel
    // clients on disjoint tables.
    let server = recording();
    std::thread::scope(|scope| {
        for worker in 0..4u8 {
            let server = server.clone();
            scope.spawn(move || {
                let schema = dbph::relation::Schema::new(
                    format!("T{worker}"),
                    vec![
                        dbph::relation::Attribute::new(
                            "k",
                            dbph::relation::AttrType::Str { max_len: 8 },
                        ),
                        dbph::relation::Attribute::new("v", dbph::relation::AttrType::Int),
                    ],
                )
                .unwrap();
                let ph =
                    FinalSwpPh::new(schema.clone(), &SecretKey::from_bytes([worker; 32])).unwrap();
                let mut client = Client::new(ph, server);
                client
                    .outsource(&dbph::relation::Relation::empty(schema))
                    .unwrap();
                for i in 0..30i64 {
                    client.insert(&tuple![format!("k{i:03}"), i]).unwrap();
                }
                let r = client.select(&Query::select("v", 7i64)).unwrap();
                assert_eq!(r.len(), 1);
                assert_eq!(client.fetch_all().unwrap().len(), 30);
            });
        }
    });
    // Four uploads + appends + queries + fetches all recorded.
    assert!(server.observer().events().len() >= 4 * 33);
}

#[test]
fn observer_transcript_contains_no_plaintext_for_any_workload() {
    let (mut client, server) = setup(8);
    let relation = EmployeeGen {
        rows: 100,
        ..EmployeeGen::default()
    }
    .generate(16);
    client.outsource(&relation).unwrap();
    for q in [
        Query::select("dept", "dept-01"),
        Query::select("salary", 1000i64),
        Query::select("name", "emp-0000050"),
    ] {
        client.select(&q).unwrap();
    }
    let events = server.observer().events();
    assert!(!events.is_empty(), "the session recorded no events");
    let transcript = format!("{events:?}");
    for needle in ["dept-01", "emp-0000050", "1000"] {
        assert!(!transcript.contains(needle), "leaked {needle}");
    }
}
