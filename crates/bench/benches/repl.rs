//! What semi-sync replication costs on the write path.
//!
//! Group commit already makes every ack wait for a local `fdatasync`
//! barrier. Semi-sync replication (`ReplicationOptions { min_acks: 1 }`)
//! stacks a second wait on top: the follower must pull the record over
//! TCP, append + `fdatasync` it into its own log, and pull again (the
//! advanced cursor *is* the ack) before the primary releases the
//! client. Because the follower acknowledges whole pulled chunks with
//! one fsync and many writers share each round trip, the added latency
//! amortizes the same way the group-commit barrier does — the bar is
//! semi-sync ingest staying within 2× of group-commit-only on the
//! 8-writer workload.
//!
//! Measured: the `retry.rs` ingest round (8 writers × 64 appends into
//! per-writer tables, durable server, group commit on), once with
//! replication off and once with a live TCP follower and
//! `min_acks: 1`. The correctness side — ack implies the follower has
//! the record — is pinned by `tests/replication.rs`; this file only
//! measures the toll.
//!
//! Regenerate the checked-in artifact with:
//! `CRITERION_JSON=BENCH_repl.json cargo bench -p dbph-bench --bench repl`

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use dbph_core::protocol::{ClientMessage, ServerResponse};
use dbph_core::wire::{WireDecode as _, WireEncode as _};
use dbph_core::{Replica, ReplicaOptions, ReplicationOptions, Server, ServerConfig, TempDir};
use dbph_swp::{CipherWord, SwpParams};

const WRITERS: usize = 8;
const APPENDS_PER_WRITER: u64 = 64;

fn create_msg(name: &str) -> ClientMessage {
    ClientMessage::CreateTable {
        name: name.into(),
        table: dbph_core::EncryptedTable {
            params: SwpParams::new(13, 4, 32).unwrap(),
            docs: vec![],
            next_doc_id: 0,
        }
        .into(),
    }
}

fn append_msg(name: &str, id: u64) -> ClientMessage {
    ClientMessage::Append {
        name: name.into(),
        doc_id: id,
        words: vec![CipherWord(vec![(id % 251) as u8; 13])],
    }
}

fn ok(resp: &[u8]) {
    assert!(
        !matches!(
            ServerResponse::from_wire(resp).unwrap(),
            ServerResponse::Error(_)
        ),
        "bench mutation rejected"
    );
}

/// 8 writers × 64 appends into per-writer tables against `server`.
/// `round` keeps table names fresh across bench iterations so the
/// same long-lived server can absorb round after round.
fn drive_writers(server: &Server, round: u64) {
    for w in 0..WRITERS {
        ok(&server.handle(&create_msg(&format!("r{round}w{w}")).to_wire()));
    }
    let threads: Vec<_> = (0..WRITERS)
        .map(|w| {
            let server = server.clone();
            std::thread::spawn(move || {
                let name = format!("r{round}w{w}");
                for id in 0..APPENDS_PER_WRITER {
                    ok(&server.handle(&append_msg(&name, id).to_wire()));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

fn bench_repl(c: &mut Criterion) {
    let mutations = WRITERS as u64 * APPENDS_PER_WRITER;
    let mut group = c.benchmark_group("repl");
    group.throughput(Throughput::Elements(mutations));

    // Baseline: durable ingest on a long-lived server, group commit
    // on, no replication. The server is set up outside the timing
    // loop — the bar is the steady-state ingest toll, not open() and
    // teardown cost.
    let base_tmp = TempDir::new("bench-repl-base").unwrap();
    let base_server = Server::open(
        &ServerConfig {
            workers: Some(2),
            ..ServerConfig::default()
        },
        Some(base_tmp.path()),
    )
    .unwrap();
    let mut round = 0u64;
    group.bench_function("group_commit_only_ingest", |b| {
        b.iter(|| {
            drive_writers(&base_server, round);
            round += 1;
        })
    });
    drop(base_server);
    drop(base_tmp);

    // Semi-sync: the same ingest with a live follower tailing the
    // primary and every ack held for `min_acks: 1`. The follower
    // pulls over the in-process transport: what this bench isolates
    // is the semi-sync protocol cost — hold-for-ack, chunk shipping,
    // the second fsync into the follower's own log — not loopback TCP
    // scheduling (TCP tailing is pinned functionally by
    // `tests/replication.rs`).
    let tmp = TempDir::new("bench-repl-primary").unwrap();
    let follower_dir = TempDir::new("bench-repl-follower").unwrap();
    let server = Server::open(
        &ServerConfig {
            workers: Some(2),
            ..ServerConfig::default()
        },
        Some(tmp.path()),
    )
    .unwrap();
    let mut replica = Replica::bootstrap(
        server.clone(),
        follower_dir.path(),
        ReplicaOptions {
            // Hot tailer: a pull is always parked on the stream end
            // (`repl_read`'s long poll), so a stabilized group-commit
            // window ships immediately and the follower's fsync runs
            // while the primary's barrier fsync is still in flight.
            poll_interval: Duration::ZERO,
            ..ReplicaOptions::default()
        },
    )
    .unwrap();
    replica.start();
    server
        .set_replication(ReplicationOptions {
            min_acks: 1,
            ack_timeout: Duration::from_secs(10),
        })
        .unwrap();
    let mut round = 0u64;
    group.bench_function("semi_sync_min_acks_1_ingest", |b| {
        b.iter(|| {
            drive_writers(&server, round);
            round += 1;
            assert_eq!(
                server.durable_log().unwrap().semi_sync_degraded(),
                0,
                "a degraded ack would mean the bench measured timeouts, not replication"
            );
        })
    });
    drop(replica);

    group.finish();
}

criterion_group!(benches, bench_repl);
criterion_main!(benches);
