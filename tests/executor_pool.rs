//! Wire-order regression tests for the persistent worker pool.
//!
//! The pool completes `(query, shard)` tasks in whatever order its
//! workers get to them, and a table of any size is some number of
//! fixed-capacity shards; the engine must still hand results back in
//! submission order, and a `QueryBatch` response must list result
//! tables in wire (query) order. These tests force out-of-order and
//! randomized completion on purpose and check nothing reorders.

use std::time::Duration;

use dbph::core::executor::Executor;
use dbph::core::protocol::{ClientMessage, ServerResponse, WireTrapdoor};
use dbph::core::storage::SHARD_DOCS;
use dbph::core::swp_ph::execute_query;
use dbph::core::wire::WireEncode;
use dbph::core::{DatabasePh, FinalSwpPh, Server, ServerConfig};
use dbph::crypto::SecretKey;
use dbph::relation::Query;
use dbph::workload::EmployeeGen;

/// Deterministic pseudo-random delay per task index (xorshift).
fn jitter_ms(index: u64, round: u64) -> u64 {
    let mut state = (index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round;
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    state % 12
}

#[test]
fn randomized_completion_preserves_submission_order() {
    let pool = Executor::new(4);
    for round in 0..4u64 {
        let results = pool.scatter(
            (0..24u64)
                .map(|i| {
                    move || {
                        std::thread::sleep(Duration::from_millis(jitter_ms(i, round)));
                        i
                    }
                })
                .collect(),
        );
        assert_eq!(
            results,
            (0..24).collect::<Vec<u64>>(),
            "randomized completion reordered results in round {round}"
        );
    }
}

#[test]
fn reverse_completion_preserves_submission_order() {
    // The adversarial schedule: the first-submitted task finishes
    // last, every later task earlier.
    let pool = Executor::new(8);
    let results = pool.scatter(
        (0..16u64)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis((16 - i) * 2));
                    i * 7
                }
            })
            .collect(),
    );
    assert_eq!(results, (0..16).map(|i| i * 7).collect::<Vec<u64>>());
}

#[test]
fn batch_responses_stay_in_wire_order_under_pooled_execution() {
    // Table sizes on either side of every shard edge; past the
    // engine's inline threshold a multi-worker server genuinely
    // schedules K×S tasks on the pool. Queries have wildly different
    // costs/selectivities (match-everything vs. match-nothing), so
    // completion order differs from wire order; the raw response bytes
    // must not.
    let scheme = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([9u8; 32])).unwrap();
    let queries = [
        Query::select("dept", "dept-00"),
        Query::select("name", "no-such-emp"),
        Query::select("dept", "dept-00"), // duplicate: exercises the memo
        Query::select("salary", 5500i64),
        Query::select("dept", "dept-05"),
        Query::select("name", "emp-0000001"),
    ];
    let encrypted: Vec<Vec<WireTrapdoor>> = queries
        .iter()
        .map(|q| {
            let qct = scheme.encrypt_query(q).unwrap();
            qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect()
        })
        .collect();
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
        .generate(11);
        let table = scheme.encrypt_table(&relation).unwrap();
        let drive = |server: &Server| -> Vec<Vec<u8>> {
            vec![
                server.handle(
                    &ClientMessage::CreateTable {
                        name: "Emp".into(),
                        table: table.clone().into(),
                    }
                    .to_wire(),
                ),
                server.handle(
                    &ClientMessage::QueryBatch {
                        name: "Emp".into(),
                        queries: encrypted.clone(),
                    }
                    .to_wire(),
                ),
            ]
        };

        // 1-worker pool = sequential reference engine, itself held to
        // the seed scan query by query.
        let reference = open(1);
        let reference_responses = drive(&reference);
        let seed: Vec<_> = encrypted
            .iter()
            .map(|terms| execute_query(&table, terms))
            .collect();
        assert_eq!(
            reference_responses[1],
            ServerResponse::Tables(seed).to_wire(),
            "sequential engine diverged from execute_query at {rows} rows"
        );
        for workers in [2, 4, 8] {
            let pooled = open(workers);
            assert_eq!(pooled.pool_workers(), workers);
            let responses = drive(&pooled);
            assert_eq!(
                responses, reference_responses,
                "wire responses diverged at {rows} rows × {workers} pool workers"
            );
            let events = reference.observer().events();
            assert!(!events.is_empty(), "the reference recorded no events");
            assert_eq!(
                pooled.observer().events(),
                events,
                "observer transcript diverged at {rows} rows × {workers} pool workers"
            );
        }
    }
}
