//! Layout and pool-size invariance: the sharded, worker-pooled scan
//! engine must be observationally identical to the seed's
//! single-threaded scan.
//!
//! Tables are cut into shards of at most `SHARD_DOCS` documents, so
//! the matrices sweep table sizes on either side of every shard edge
//! (`SIZES`) against pool sizes. Four obligations, matching
//! `dbph::core::storage`'s contract:
//!
//! 1. **Byte-identical results.** For any workload and query, a
//!    pooled server's serialized query response equals the 1-worker
//!    server's, which in turn equals the reference `execute_query`
//!    free function (the seed scan), at every table size.
//! 2. **Equivalent transcripts.** The `Observer` event list for a
//!    whole session is equal across pool sizes.
//! 3. **Batching leaks per-query, not per-batch.** A `QueryBatch`
//!    produces the same `Query` events (terms + matched ids) as the
//!    same queries sent one at a time; only the `batch` tag differs.
//! 4. **Pool-size invariance.** A `QueryBatch` fanned over a
//!    multi-worker pool produces byte-identical responses and an
//!    equal transcript to the 1-worker pool (which runs the identical
//!    task list inline, in order — the sequential engine), for fixed
//!    and randomized workloads, including empty batches and batches
//!    with duplicate terms (which share one prepared trapdoor through
//!    the per-batch memo).

use dbph::core::protocol::{ClientMessage, ServerResponse, WireTrapdoor};
use dbph::core::server::ServerEvent;
use dbph::core::storage::SHARD_DOCS;
use dbph::core::swp_ph::execute_query;
use dbph::core::wire::{WireDecode, WireEncode};
use dbph::core::{Client, DatabasePh, FinalSwpPh, Server, ServerConfig};
use dbph::crypto::SecretKey;
use dbph::relation::{Query, Relation, Tuple, Value};
use dbph::workload::EmployeeGen;

use proptest::prelude::*;

/// Table sizes on either side of every shard edge: empty, one row,
/// one shard short of full, full, one past, and three shards and a
/// bit.
const SIZES: [usize; 6] = [
    0,
    1,
    SHARD_DOCS - 1,
    SHARD_DOCS,
    SHARD_DOCS + 1,
    3 * SHARD_DOCS + 5,
];

/// An `Emp` relation of `rows` rows.
fn employees(rows: usize, seed: u64) -> Relation {
    EmployeeGen {
        rows,
        ..EmployeeGen::default()
    }
    .generate(seed)
}

/// An in-memory server scanning on a dedicated `workers`-worker pool.
fn open(workers: usize) -> Server {
    Server::open(
        &ServerConfig {
            workers: Some(workers),
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap()
}

fn master() -> SecretKey {
    SecretKey::from_bytes([77u8; 32])
}

fn ph() -> FinalSwpPh {
    FinalSwpPh::new(EmployeeGen::schema(), &master()).unwrap()
}

fn sample_queries() -> Vec<Query> {
    vec![
        Query::select("dept", "dept-00"),
        Query::select("dept", "dept-03"),
        Query::select("salary", 5500i64),
        Query::select("name", "emp-0000042"),
        Query::select("name", "no-such-emp"),
    ]
}

/// Drives one full session against a server and returns every raw
/// response the server produced.
fn drive_session(server: &Server, relation: &Relation, queries: &[Query]) -> Vec<Vec<u8>> {
    let scheme = ph();
    let table = scheme.encrypt_table(relation).unwrap();
    let mut responses = Vec::new();
    let mut send = |msg: ClientMessage| {
        let bytes = server.handle(&msg.to_wire());
        responses.push(bytes);
    };
    send(ClientMessage::CreateTable {
        name: "Emp".into(),
        table: table.into(),
    });
    for query in queries {
        let qct = scheme.encrypt_query(query).unwrap();
        send(ClientMessage::Query {
            name: "Emp".into(),
            terms: qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect(),
        });
    }
    // Exercise the mutation paths too: append, delete, fetch.
    let extra = scheme
        .encrypt_table(
            &Relation::from_tuples(
                EmployeeGen::schema(),
                vec![Tuple::new(vec![
                    Value::str("emp-x"),
                    Value::str("dept-00"),
                    Value::int(7777),
                ])],
            )
            .unwrap(),
        )
        .unwrap();
    let (_, words) = extra.docs[0].clone();
    send(ClientMessage::Append {
        name: "Emp".into(),
        doc_id: relation.len() as u64,
        words,
    });
    send(ClientMessage::DeleteDocs {
        name: "Emp".into(),
        doc_ids: vec![1, 3, 3, 999_999],
    });
    send(ClientMessage::FetchAll { name: "Emp".into() });
    responses
}

#[test]
fn results_and_transcripts_identical_across_shard_counts() {
    // Every size puts a different number of shards (and a different
    // partial last shard) under the same session; the 1-worker
    // server runs every task inline and is the reference.
    let queries = sample_queries();
    for rows in SIZES {
        let relation = employees(rows, 9);
        let baseline_server = open(1);
        let baseline_responses = drive_session(&baseline_server, &relation, &queries);
        let baseline_events = baseline_server.observer().events();
        assert!(
            !baseline_events.is_empty(),
            "the baseline recorded no events"
        );
        for workers in [2, 4] {
            let server = open(workers);
            let responses = drive_session(&server, &relation, &queries);
            assert_eq!(
                responses, baseline_responses,
                "raw wire responses diverged at {rows} rows × {workers} worker(s)"
            );
            assert_eq!(
                server.observer().events(),
                baseline_events,
                "observer transcript diverged at {rows} rows × {workers} worker(s)"
            );
        }
    }
}

#[test]
fn sharded_scan_equals_reference_execute_query() {
    let scheme = ph();
    for (rows, query) in SIZES
        .into_iter()
        .flat_map(|rows| sample_queries().into_iter().map(move |query| (rows, query)))
    {
        let table = scheme.encrypt_table(&employees(rows, 4)).unwrap();
        let qct = scheme.encrypt_query(&query).unwrap();
        let terms: Vec<WireTrapdoor> = qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect();
        let reference = execute_query(&table, &terms);
        for workers in [1, 2] {
            let server = open(workers);
            let create = ClientMessage::CreateTable {
                name: "Emp".into(),
                table: table.clone().into(),
            };
            let _ = server.handle(&create.to_wire());
            let resp = server.handle(
                &ClientMessage::Query {
                    name: "Emp".into(),
                    terms: terms.clone(),
                }
                .to_wire(),
            );
            match ServerResponse::from_wire(&resp).unwrap() {
                ServerResponse::Table(result) => assert_eq!(
                    result, reference,
                    "{rows} rows × {workers} worker(s) diverged from execute_query for {query}"
                ),
                other => panic!("unexpected response {other:?}"),
            }
        }
    }
}

#[test]
fn batched_queries_leak_exactly_like_single_queries() {
    let relation = EmployeeGen {
        rows: 120,
        ..EmployeeGen::default()
    }
    .generate(2);
    let queries = sample_queries();

    // One at a time…
    let singles = Server::open(
        &ServerConfig {
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let mut client = Client::new(ph(), singles.clone());
    client.outsource(&relation).unwrap();
    let single_results: Vec<Relation> = queries.iter().map(|q| client.select(q).unwrap()).collect();

    // …versus one batch on a sharded server.
    let batched = Server::open(
        &ServerConfig {
            transcript: true,
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let mut batch_client = Client::new(ph(), batched.clone());
    batch_client.outsource(&relation).unwrap();
    let batch_results = batch_client.select_many(&queries).unwrap();

    for (s, b) in single_results.iter().zip(&batch_results) {
        assert!(
            s.same_multiset(b),
            "batched result differs from single-query result"
        );
    }

    // Per-query leakage (terms + matched ids) is identical; only the
    // batch tag differs.
    let single_queries = singles.observer().queries();
    assert_eq!(single_queries.len(), queries.len());
    assert_eq!(single_queries, batched.observer().queries());
    let tags: Vec<Option<(u64, usize)>> = batched
        .observer()
        .events()
        .iter()
        .filter_map(|e| match e {
            ServerEvent::Query { batch, .. } => Some(*batch),
            _ => None,
        })
        .collect();
    assert_eq!(
        tags,
        (0..queries.len()).map(|i| Some((0, i))).collect::<Vec<_>>(),
        "batch membership tags must record the message boundary"
    );
}

// --- pool-size invariance --------------------------------------------------

const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Sends one `QueryBatch` session (create + batches) and returns the
/// raw responses. Batches deliberately include an empty batch, an
/// empty conjunction, and duplicate terms across queries.
fn drive_batch_session(server: &Server, relation: &Relation) -> Vec<Vec<u8>> {
    let scheme = ph();
    let table = scheme.encrypt_table(relation).unwrap();
    let encrypt = |q: &Query| -> Vec<WireTrapdoor> {
        let qct = scheme.encrypt_query(q).unwrap();
        qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect()
    };
    let mut responses = Vec::new();
    let mut send = |msg: ClientMessage| responses.push(server.handle(&msg.to_wire()));
    send(ClientMessage::CreateTable {
        name: "Emp".into(),
        table: table.into(),
    });
    // Batch 1: duplicate terms across (and within) queries, plus an
    // always-empty result and an empty conjunction.
    send(ClientMessage::QueryBatch {
        name: "Emp".into(),
        queries: vec![
            encrypt(&Query::select("dept", "dept-00")),
            encrypt(&Query::select("name", "no-such-emp")),
            encrypt(&Query::select("dept", "dept-00")), // duplicate
            vec![],                                     // empty conjunction
            encrypt(&Query::select("salary", 5500i64)),
            encrypt(&Query::select("dept", "dept-00")), // duplicate again
        ],
    });
    // Batch 2: empty batch.
    send(ClientMessage::QueryBatch {
        name: "Emp".into(),
        queries: vec![],
    });
    // Batch 3: single-query batch.
    send(ClientMessage::QueryBatch {
        name: "Emp".into(),
        queries: vec![encrypt(&Query::select("dept", "dept-03"))],
    });
    responses
}

#[test]
fn pooled_batches_match_sequential_engine_bytes_and_transcript() {
    // Sizes past the engine's inline threshold make multi-worker pools
    // genuinely run K×S tasks concurrently.
    for rows in SIZES {
        let relation = employees(rows, 13);
        // The 1-worker pool runs the identical task list inline, in
        // submission order: that *is* the sequential execution path.
        let sequential = open(1);
        let sequential_responses = drive_batch_session(&sequential, &relation);
        let sequential_events = sequential.observer().events();
        assert!(
            !sequential_events.is_empty(),
            "the sequential run recorded no events"
        );

        for workers in POOL_SIZES {
            let pooled = open(workers);
            let responses = drive_batch_session(&pooled, &relation);
            assert_eq!(
                responses, sequential_responses,
                "wire responses diverged at {rows} rows × {workers} worker(s)"
            );
            assert_eq!(
                pooled.observer().events(),
                sequential_events,
                "transcript diverged at {rows} rows × {workers} worker(s)"
            );
        }
    }
}

#[test]
fn batch_results_match_reference_execute_query_per_query() {
    // Every query of a pooled batch must return exactly what the seed
    // scan returns for that query alone — duplicates included.
    use dbph::relation::query::ExactSelect;
    let relation = EmployeeGen {
        rows: 250,
        ..EmployeeGen::default()
    }
    .generate(5);
    let scheme = ph();
    let table = scheme.encrypt_table(&relation).unwrap();
    let queries = [
        Query::select("dept", "dept-01"),
        Query::select("dept", "dept-01"),
        // Conjunction whose first term is shared with the queries
        // above and whose second term is unique to it: exercises the
        // memoized-set path and the short-circuit filter path inside
        // one query.
        Query::conjunction(vec![
            ExactSelect::new("dept", "dept-01"),
            ExactSelect::new("salary", 5500i64),
        ])
        .unwrap(),
        // Conjunction of two unique terms: pure short-circuit path.
        Query::conjunction(vec![
            ExactSelect::new("dept", "dept-02"),
            ExactSelect::new("salary", 4000i64),
        ])
        .unwrap(),
        Query::select("salary", 9900i64),
        Query::select("name", "emp-0000007"),
    ];
    let encrypted: Vec<Vec<WireTrapdoor>> = queries
        .iter()
        .map(|q| {
            let qct = scheme.encrypt_query(q).unwrap();
            qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect()
        })
        .collect();

    for workers in POOL_SIZES {
        let server = Server::open(
            &ServerConfig {
                workers: Some(workers),
                transcript: true,
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
            &ClientMessage::QueryBatch {
                name: "Emp".into(),
                queries: encrypted.clone(),
            }
            .to_wire(),
        );
        match ServerResponse::from_wire(&resp).unwrap() {
            ServerResponse::Tables(results) => {
                assert_eq!(results.len(), queries.len());
                for (terms, result) in encrypted.iter().zip(&results) {
                    assert_eq!(
                        result,
                        &execute_query(&table, terms),
                        "pooled batch diverged from seed scan at {workers} worker(s)"
                    );
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
}

// --- randomized invariance -------------------------------------------------

fn arb_relation() -> impl Strategy<Value = Relation> {
    arb_relation_of(0..40)
}

fn arb_relation_of(rows: std::ops::Range<usize>) -> impl Strategy<Value = Relation> {
    proptest::collection::vec(("[a-z]{0,12}", 0i64..50, any::<bool>()), rows).prop_map(|rows| {
        let schema = dbph::relation::Schema::new(
            "Rnd",
            vec![
                dbph::relation::Attribute::new("s", dbph::relation::AttrType::Str { max_len: 12 }),
                dbph::relation::Attribute::new("i", dbph::relation::AttrType::Int),
                dbph::relation::Attribute::new("b", dbph::relation::AttrType::Bool),
            ],
        )
        .unwrap();
        Relation::from_tuples(
            schema,
            rows.into_iter()
                .map(|(s, i, b)| Tuple::new(vec![Value::Str(s), Value::Int(i), Value::Bool(b)]))
                .collect(),
        )
        .unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn random_query_batches_are_pool_invariant(
        relation in arb_relation(),
        // Indices into a tiny probe pool: duplicates are frequent by
        // construction, exercising the per-batch trapdoor memo.
        picks in proptest::collection::vec(0usize..4, 0..7),
        key in any::<[u8; 32]>(),
    ) {
        let scheme =
            FinalSwpPh::new(relation.schema().clone(), &SecretKey::from_bytes(key)).unwrap();
        let table = scheme.encrypt_table(&relation).unwrap();
        let probes = [
            Query::select("s", "zz"),
            Query::select("i", 7i64),
            Query::select("b", true),
            Query::select("b", false),
        ];
        let encrypted: Vec<Vec<WireTrapdoor>> = picks
            .iter()
            .map(|&p| {
                let qct = scheme.encrypt_query(&probes[p]).unwrap();
                qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect()
            })
            .collect();

        let mut reference: Option<(Vec<Vec<u8>>, Vec<ServerEvent>)> = None;
        for workers in [1usize, 3, 8] {
            let server = Server::open(&ServerConfig { workers: Some(workers), transcript: true, ..ServerConfig::default() }, None).unwrap();
            let responses = vec![
                server.handle(
                    &ClientMessage::CreateTable { name: "Rnd".into(), table: table.clone().into() }
                        .to_wire(),
                ),
                server.handle(
                    &ClientMessage::QueryBatch { name: "Rnd".into(), queries: encrypted.clone() }
                        .to_wire(),
                ),
            ];
            // Per-query results must equal the seed scan.
            match ServerResponse::from_wire(responses.last().unwrap()).unwrap() {
                ServerResponse::Tables(results) => {
                    prop_assert_eq!(results.len(), encrypted.len());
                    for (terms, result) in encrypted.iter().zip(&results) {
                        prop_assert_eq!(
                            result,
                            &execute_query(&table, terms),
                            "pooled batch diverged from seed scan at {} worker(s)",
                            workers
                        );
                    }
                }
                other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
            }
            let events = server.observer().events();
            prop_assert!(!events.is_empty(), "the session recorded no events");
            match &reference {
                None => reference = Some((responses, events)),
                Some((ref_responses, ref_events)) => {
                    prop_assert_eq!(&responses, ref_responses,
                        "wire responses diverged at {} worker(s)", workers);
                    prop_assert_eq!(&events, ref_events,
                        "transcript diverged at {} worker(s)", workers);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_relations_and_queries_are_shard_invariant(
        // Sizes around the first shard edge: one shard or two.
        relation in arb_relation_of(SHARD_DOCS - 8..SHARD_DOCS + 8),
        probe_s in "[a-z]{0,12}",
        probe_i in 0i64..50,
        key in any::<[u8; 32]>(),
    ) {
        let scheme =
            FinalSwpPh::new(relation.schema().clone(), &SecretKey::from_bytes(key)).unwrap();
        let table = scheme.encrypt_table(&relation).unwrap();
        for query in [
            Query::select("s", probe_s.clone()),
            Query::select("i", probe_i),
            Query::select("b", true),
        ] {
            let qct = scheme.encrypt_query(&query).unwrap();
            let terms: Vec<WireTrapdoor> =
                qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect();
            let reference = execute_query(&table, &terms);
            for workers in [1usize, 2, 3] {
                let server = open(workers);
                let _ = server.handle(
                    &ClientMessage::CreateTable { name: "Rnd".into(), table: table.clone().into() }
                        .to_wire(),
                );
                let resp = server.handle(
                    &ClientMessage::Query { name: "Rnd".into(), terms: terms.clone() }.to_wire(),
                );
                match ServerResponse::from_wire(&resp).unwrap() {
                    ServerResponse::Table(result) => {
                        prop_assert_eq!(&result, &reference,
                            "{} rows × {} worker(s) diverged for {}", relation.len(), workers, &query);
                    }
                    other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
                }
            }
        }
    }
}
