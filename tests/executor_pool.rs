//! Wire-order regression tests for the persistent worker pool.
//!
//! The pool completes `(query, shard)` tasks in whatever order its
//! workers get to them; the engine must still hand results back in
//! submission order, and a `QueryBatch` response must list result
//! tables in wire (query) order. These tests force out-of-order and
//! randomized completion on purpose and check nothing reorders.

use std::time::Duration;

use dbph::core::executor::Executor;
use dbph::core::protocol::{ClientMessage, WireTrapdoor};
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
    // 600 rows clears the engine's inline threshold, so a multi-worker
    // server genuinely schedules K×S tasks on the pool. Queries have
    // wildly different costs/selectivities (match-everything vs.
    // match-nothing), so completion order differs from wire order; the
    // raw response bytes must not.
    let relation = EmployeeGen {
        rows: 600,
        ..EmployeeGen::default()
    }
    .generate(11);
    let scheme = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([9u8; 32])).unwrap();
    let table = scheme.encrypt_table(&relation).unwrap();
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

    // 1-worker pool = sequential reference engine.
    let reference = Server::open(
        &ServerConfig {
            shards: 4,
            workers: Some(1),
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let reference_responses = drive(&reference);
    for workers in [2, 4, 8] {
        let pooled = Server::open(
            &ServerConfig {
                shards: 4,
                workers: Some(workers),
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(pooled.pool_workers(), workers);
        let responses = drive(&pooled);
        assert_eq!(
            responses, reference_responses,
            "wire responses diverged with {workers} pool workers"
        );
        assert_eq!(
            pooled.observer().events(),
            reference.observer().events(),
            "observer transcript diverged with {workers} pool workers"
        );
    }
}
