//! Transport equivalence: the TCP path must be observationally
//! identical to the in-process path.
//!
//! The paper's adversary sits on the server and sees (a) the bytes
//! Alex sends, (b) the bytes Eve returns, and (c) everything the
//! server computes in between (the `Observer` transcript). Moving
//! those bytes through a real socket therefore must change *nothing*
//! she can record — the obligation these tests enforce:
//!
//! 1. **Byte-identical responses.** For the full workload matrix of
//!    `tests/sharding.rs` (creates, queries, batches with duplicate
//!    terms, appends, batched appends, deletes, fetches, malformed
//!    messages, unknown tables), every response received over loopback
//!    TCP equals, byte for byte, the response the same message gets
//!    from `Server::handle` in-process — across table sizes on either
//!    side of every shard edge *and* worker-pool sizes.
//! 2. **Byte-identical transcripts.** The `Observer` event list after
//!    a TCP session equals the in-process one exactly. The transport
//!    sits above `handle`, so it cannot add, drop, reorder, or tag
//!    events.
//! 3. **Concurrency discipline.** Eight client threads multiplexed
//!    over a two-connection pool, each firing runs of three
//!    type-alternating calls, see only their own session's responses,
//!    in order, and the server
//!    shuts down cleanly afterwards (accept loop and every connection
//!    thread joined — a leak hangs the test, which CI runs under a
//!    timeout).
//! 4. **Randomized equivalence.** A proptest mixes appends, queries,
//!    batched queries, batched appends, and deletes into arbitrary
//!    sessions and replays each against both transports.

use dbph::core::protocol::{ClientMessage, ServerResponse, WireTrapdoor};
use dbph::core::storage::SHARD_DOCS;
use dbph::core::swp_ph::execute_query;
use dbph::core::{
    DatabasePh, EncryptedTable, FinalSwpPh, NetServer, PooledClient, Server, ServerConfig,
    Transport,
};
use dbph::crypto::SecretKey;
use dbph::relation::{Query, Relation, Tuple, Value};
use dbph::swp::{CipherWord, SwpParams};
use dbph::workload::EmployeeGen;

use proptest::prelude::*;

fn ph() -> FinalSwpPh {
    FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([77u8; 32])).unwrap()
}

fn encrypt(scheme: &FinalSwpPh, q: &Query) -> Vec<WireTrapdoor> {
    let qct = scheme.encrypt_query(q).unwrap();
    qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect()
}

/// The full workload of `tests/sharding.rs`, serialized once so the
/// in-process and TCP sessions consume *identical* request bytes:
/// create, single queries, a batch with duplicate terms and an empty
/// conjunction, an empty batch, appends (single + batch), deletes
/// (with duplicates and a missing id), fetch-all — plus a malformed
/// message and an unknown-table query to pin the error paths.
fn workload_messages(relation: &Relation) -> Vec<Vec<u8>> {
    use dbph::core::wire::WireEncode as _;
    let scheme = ph();
    let table = scheme.encrypt_table(relation).unwrap();
    let base_id = relation.len() as u64;

    let extra_rows = |names: &[&str]| -> Vec<(u64, Vec<CipherWord>)> {
        let rel = Relation::from_tuples(
            EmployeeGen::schema(),
            names
                .iter()
                .map(|n| {
                    Tuple::new(vec![
                        Value::str(*n),
                        Value::str("dept-00"),
                        Value::int(7777),
                    ])
                })
                .collect(),
        )
        .unwrap();
        let mut ct = scheme.encrypt_table(&rel).unwrap();
        for (i, doc) in ct.docs.iter_mut().enumerate() {
            doc.0 = base_id + i as u64;
        }
        ct.docs
    };

    let mut msgs: Vec<Vec<u8>> = Vec::new();
    msgs.push(
        ClientMessage::CreateTable {
            name: "Emp".into(),
            table: table.into(),
        }
        .to_wire(),
    );
    for q in [
        Query::select("dept", "dept-00"),
        Query::select("dept", "dept-03"),
        Query::select("salary", 5500i64),
        Query::select("name", "emp-0000042"),
        Query::select("name", "no-such-emp"),
    ] {
        msgs.push(
            ClientMessage::Query {
                name: "Emp".into(),
                terms: encrypt(&scheme, &q),
            }
            .to_wire(),
        );
    }
    // Batch with duplicates, an empty conjunction, and a miss.
    msgs.push(
        ClientMessage::QueryBatch {
            name: "Emp".into(),
            queries: vec![
                encrypt(&scheme, &Query::select("dept", "dept-00")),
                encrypt(&scheme, &Query::select("name", "no-such-emp")),
                encrypt(&scheme, &Query::select("dept", "dept-00")),
                vec![],
                encrypt(&scheme, &Query::select("salary", 5500i64)),
            ],
        }
        .to_wire(),
    );
    // Empty batch.
    msgs.push(
        ClientMessage::QueryBatch {
            name: "Emp".into(),
            queries: vec![],
        }
        .to_wire(),
    );
    // Mutations: one single append, one batch of three, then deletes
    // with duplicates and a missing id.
    let mut docs = extra_rows(&["emp-x", "emp-y", "emp-z", "emp-w"]);
    let (first_id, first_words) = docs.remove(0);
    msgs.push(
        ClientMessage::Append {
            name: "Emp".into(),
            doc_id: first_id,
            words: first_words,
        }
        .to_wire(),
    );
    msgs.push(
        ClientMessage::AppendBatch {
            name: "Emp".into(),
            docs,
        }
        .to_wire(),
    );
    msgs.push(
        ClientMessage::DeleteDocs {
            name: "Emp".into(),
            doc_ids: vec![1, 3, 3, 999_999],
        }
        .to_wire(),
    );
    // Error paths: malformed bytes and an unknown table.
    msgs.push(vec![0xFF, 0x00]);
    msgs.push(
        ClientMessage::Query {
            name: "NoSuchTable".into(),
            terms: vec![],
        }
        .to_wire(),
    );
    msgs.push(ClientMessage::FetchAll { name: "Emp".into() }.to_wire());
    msgs
}

/// Replays `messages` through any transport, returning every raw
/// response.
fn replay<T: Transport>(transport: &T, messages: &[Vec<u8>]) -> Vec<Vec<u8>> {
    messages
        .iter()
        .map(|m| transport.call(m).expect("transport call"))
        .collect()
}

/// The seed scan's response to each single query of
/// `workload_messages` (messages 1 to 5, all sent before the first
/// mutation), as `(message index, response bytes)`.
fn seed_answers(messages: &[Vec<u8>]) -> Vec<(usize, Vec<u8>)> {
    use dbph::core::wire::{WireDecode as _, WireEncode as _};
    let table: EncryptedTable = match ClientMessage::from_wire(&messages[0]).unwrap() {
        ClientMessage::CreateTable { table, .. } => table.into(),
        other => panic!("message 0 is the upload, not {other:?}"),
    };
    (1..=5)
        .map(|i| match ClientMessage::from_wire(&messages[i]).unwrap() {
            ClientMessage::Query { terms, .. } => {
                let answer = ServerResponse::Table(execute_query(&table, &terms));
                (i, answer.to_wire())
            }
            other => panic!("message {i} is a query, not {other:?}"),
        })
        .collect()
}

#[test]
fn tcp_responses_and_transcripts_equal_in_process_across_matrix() {
    let open = |workers| {
        Server::open(
            &ServerConfig {
                workers: Some(workers),
                transcript: true,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap()
    };
    for rows in [
        0,
        1,
        SHARD_DOCS - 1,
        SHARD_DOCS,
        SHARD_DOCS + 1,
        3 * SHARD_DOCS + 5,
    ] {
        let relation = EmployeeGen {
            rows,
            ..EmployeeGen::default()
        }
        .generate(9);
        let messages = workload_messages(&relation);
        // The 1-worker in-process server runs every task inline: the
        // sequential reference, itself held to the seed scan.
        let reference = open(1);
        let reference_responses = replay(&reference, &messages);
        let reference_events = reference.observer().events();
        assert!(
            !reference_events.is_empty(),
            "the reference recorded no events"
        );
        for (i, seed) in seed_answers(&messages) {
            assert_eq!(
                reference_responses[i], seed,
                "message {i} diverged from execute_query at {rows} rows"
            );
        }

        for workers in [1usize, 4] {
            let local = open(workers);
            let local_responses = replay(&local, &messages);
            assert_eq!(
                local_responses, reference_responses,
                "in-process responses diverged at {rows} rows × {workers} worker(s)"
            );
            assert_eq!(local.observer().events(), reference_events);

            let remote = open(workers);
            let handle = NetServer::spawn(remote.clone(), "127.0.0.1:0").unwrap();
            let pool = PooledClient::connect(handle.addr(), 2).unwrap();
            let tcp_responses = replay(&pool, &messages);

            assert_eq!(
                tcp_responses, reference_responses,
                "TCP responses diverged from in-process at {rows} rows × {workers} worker(s)"
            );
            assert_eq!(
                remote.observer().events(),
                reference_events,
                "TCP transcript diverged from in-process at {rows} rows × {workers} worker(s)"
            );
            handle.shutdown();
        }
    }
}

#[test]
fn crypto_client_sessions_agree_across_transports() {
    // End-to-end through the key-holding client: decrypted results
    // over TCP equal decrypted results in-process.
    let relation = EmployeeGen {
        rows: 120,
        ..EmployeeGen::default()
    }
    .generate(2);
    let queries = [
        Query::select("dept", "dept-00"),
        Query::select("salary", 5500i64),
        Query::select("name", "no-such-emp"),
    ];

    let local_server = Server::open(
        &ServerConfig {
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let mut local = dbph::core::Client::new(ph(), local_server);
    local.outsource(&relation).unwrap();
    let local_results = local.select_many(&queries).unwrap();

    let remote_server = Server::open(
        &ServerConfig {
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let handle = NetServer::spawn(remote_server, "127.0.0.1:0").unwrap();
    let pool = PooledClient::connect(handle.addr(), 2).unwrap();
    let mut remote = dbph::core::Client::new(ph(), pool);
    remote.outsource(&relation).unwrap();
    let remote_results = remote.select_many(&queries).unwrap();

    assert_eq!(local_results.len(), remote_results.len());
    for (a, b) in local_results.iter().zip(&remote_results) {
        assert!(a.same_multiset(b), "decrypted results diverged over TCP");
    }
    // Mutations flow too: insert over TCP, then read it back.
    remote
        .insert(&Tuple::new(vec![
            Value::str("emp-net"),
            Value::str("dept-00"),
            Value::int(1234i64),
        ]))
        .unwrap();
    let found = remote.select(&Query::select("name", "emp-net")).unwrap();
    assert_eq!(found.len(), 1);
    handle.shutdown();
}

// --- concurrency stress ----------------------------------------------------

fn tiny_table(n: usize) -> dbph::core::EncryptedTable {
    dbph::core::EncryptedTable {
        params: SwpParams::new(13, 4, 32).unwrap(),
        docs: (0..n as u64)
            .map(|i| (i, vec![CipherWord(vec![i as u8; 13])]))
            .collect(),
        next_doc_id: n as u64,
    }
}

#[test]
fn stress_eight_sessions_over_two_connections() {
    use dbph::core::wire::{WireDecode as _, WireEncode as _};

    const SESSIONS: usize = 8;
    const ROUNDS: usize = 20;

    let server = Server::open(
        &ServerConfig {
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let handle = NetServer::spawn(server.clone(), "127.0.0.1:0").unwrap();
    let pool = PooledClient::connect(handle.addr(), 2).unwrap();

    let threads: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let pool = pool.clone();
            std::thread::spawn(move || {
                // Session i owns table "t{i}" with i+1 documents, so
                // any cross-session frame bleed is immediately visible
                // as a wrong document count or wrong response variant.
                let docs = i + 1;
                let create = ClientMessage::CreateTable {
                    name: format!("t{i}"),
                    table: tiny_table(docs).into(),
                }
                .to_wire();
                let resp = pool.call(&create).unwrap();
                assert_eq!(
                    ServerResponse::from_wire(&resp).unwrap(),
                    ServerResponse::Ok
                );

                let fetch = ClientMessage::FetchAll {
                    name: format!("t{i}"),
                }
                .to_wire();
                let query = ClientMessage::Query {
                    name: format!("t{i}"),
                    terms: vec![], // empty conjunction: all docs
                }
                .to_wire();
                let noop_delete = ClientMessage::DeleteDocs {
                    name: format!("t{i}"),
                    doc_ids: vec![],
                }
                .to_wire();

                for _ in 0..ROUNDS {
                    // Three type-alternating calls: the response
                    // *variants* pin per-session ordering (Table, Ok,
                    // Table) and the doc ids pin session identity.
                    let responses: Vec<Vec<u8>> = [&fetch, &noop_delete, &query]
                        .into_iter()
                        .map(|request| pool.call(request).unwrap())
                        .collect();
                    assert_eq!(responses.len(), 3);
                    match ServerResponse::from_wire(&responses[0]).unwrap() {
                        ServerResponse::Table(t) => {
                            assert_eq!(
                                t.doc_ids(),
                                (0..docs as u64).collect::<Vec<_>>(),
                                "session {i} read another session's table"
                            );
                        }
                        other => panic!("slot 0 of session {i}: unexpected {other:?}"),
                    }
                    assert_eq!(
                        ServerResponse::from_wire(&responses[1]).unwrap(),
                        ServerResponse::Ok,
                        "slot 1 of session {i} out of order"
                    );
                    match ServerResponse::from_wire(&responses[2]).unwrap() {
                        ServerResponse::Table(t) => assert_eq!(t.len(), docs),
                        other => panic!("slot 2 of session {i}: unexpected {other:?}"),
                    }
                }
            })
        })
        .collect();

    for t in threads {
        t.join().expect("stress session panicked");
    }

    // The pool really was the bottleneck: eight sessions, two sockets,
    // and no call ever failed — so no reconnect ever dialed a third.
    assert_eq!(pool.open_connections(), 2);
    assert_eq!(server.telemetry().net_conns_accepted.get(), 2);

    // Every session's uploads arrived: one Upload event per table.
    let uploads = server
        .observer()
        .events()
        .iter()
        .filter(|e| matches!(e, dbph::core::server::ServerEvent::Upload { .. }))
        .count();
    assert_eq!(uploads, SESSIONS);

    // Clean shutdown: accept loop and both connection threads join.
    // A deadlocked accept loop or leaked worker hangs here, and CI
    // runs this suite under a hard timeout to surface exactly that.
    handle.shutdown();
}

// --- randomized session equivalence ----------------------------------------

/// An abstract operation; the proptest lowers a `Vec<SessionOp>` into
/// concrete protocol bytes (with valid, monotonically fresh doc ids
/// for the append family) and replays them on both transports.
#[derive(Clone, Debug)]
enum SessionOp {
    Query(u8),
    QueryBatch(Vec<u8>),
    Append,
    AppendBatch(u8),
    Delete(Vec<u8>),
    FetchAll,
}

fn arb_op() -> impl Strategy<Value = SessionOp> {
    prop_oneof![
        (0u8..4).prop_map(SessionOp::Query),
        proptest::collection::vec(0u8..4, 0..5).prop_map(SessionOp::QueryBatch),
        Just(SessionOp::Append),
        (1u8..4).prop_map(SessionOp::AppendBatch),
        proptest::collection::vec(0u8..12, 0..4).prop_map(SessionOp::Delete),
        Just(SessionOp::FetchAll),
    ]
}

fn lower_ops(relation: &Relation, ops: &[SessionOp]) -> Vec<Vec<u8>> {
    use dbph::core::wire::WireEncode as _;
    let scheme = ph();
    let table = scheme.encrypt_table(relation).unwrap();
    let mut next_id = table.next_doc_id;
    let probes = [
        Query::select("dept", "dept-00"),
        Query::select("dept", "dept-02"),
        Query::select("salary", 5500i64),
        Query::select("name", "no-such-emp"),
    ];
    let fresh_docs = |next_id: &mut u64, n: usize| -> Vec<(u64, Vec<CipherWord>)> {
        let rel = Relation::from_tuples(
            EmployeeGen::schema(),
            (0..n)
                .map(|k| {
                    Tuple::new(vec![
                        Value::str(format!("fresh-{k}")),
                        Value::str("dept-00"),
                        Value::int(1000),
                    ])
                })
                .collect(),
        )
        .unwrap();
        let ct = scheme.encrypt_table(&rel).unwrap();
        ct.docs
            .into_iter()
            .map(|(_, words)| {
                let id = *next_id;
                *next_id += 1;
                (id, words)
            })
            .collect()
    };

    let mut msgs = vec![ClientMessage::CreateTable {
        name: "Emp".into(),
        table: table.into(),
    }
    .to_wire()];
    for op in ops {
        let msg = match op {
            SessionOp::Query(p) => ClientMessage::Query {
                name: "Emp".into(),
                terms: encrypt(&scheme, &probes[*p as usize]),
            },
            SessionOp::QueryBatch(picks) => ClientMessage::QueryBatch {
                name: "Emp".into(),
                queries: picks
                    .iter()
                    .map(|p| encrypt(&scheme, &probes[*p as usize]))
                    .collect(),
            },
            SessionOp::Append => {
                let mut docs = fresh_docs(&mut next_id, 1);
                let (doc_id, words) = docs.pop().unwrap();
                ClientMessage::Append {
                    name: "Emp".into(),
                    doc_id,
                    words,
                }
            }
            SessionOp::AppendBatch(n) => ClientMessage::AppendBatch {
                name: "Emp".into(),
                docs: fresh_docs(&mut next_id, *n as usize),
            },
            SessionOp::Delete(ids) => ClientMessage::DeleteDocs {
                name: "Emp".into(),
                doc_ids: ids.iter().map(|&i| u64::from(i)).collect(),
            },
            SessionOp::FetchAll => ClientMessage::FetchAll { name: "Emp".into() },
        };
        msgs.push(msg.to_wire());
    }
    msgs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn random_sessions_are_transport_invariant(
        rows in 1usize..60,
        ops in proptest::collection::vec(arb_op(), 0..10),
        pool_size in 1usize..3,
    ) {
        let relation = EmployeeGen { rows, ..EmployeeGen::default() }.generate(rows as u64);
        let messages = lower_ops(&relation, &ops);

        let local = Server::open(&ServerConfig { transcript: true, ..ServerConfig::default() }, None).unwrap();
        let local_responses = replay(&local, &messages);

        let remote = Server::open(&ServerConfig { transcript: true, ..ServerConfig::default() }, None).unwrap();
        let handle = NetServer::spawn(remote.clone(), "127.0.0.1:0").unwrap();
        let pool = PooledClient::connect(handle.addr(), pool_size).unwrap();
        let tcp_responses = replay(&pool, &messages);

        prop_assert_eq!(tcp_responses, local_responses,
            "TCP responses diverged for ops {:?}", &ops);
        let events = local.observer().events();
        prop_assert!(!events.is_empty(), "the local session recorded no events");
        prop_assert_eq!(remote.observer().events(), events,
            "TCP transcript diverged for ops {:?}", &ops);
        handle.shutdown();
    }
}
