//! Telemetry is transcript-invisible: the operator stats plane must
//! not change a single byte the adversary model cares about.
//!
//! The registry measures Eve's machine — her fsync latencies, queue
//! depths, socket counters — never Alex's data, and collection happens
//! strictly *beside* the request path. These tests hold the
//! implementation to that:
//!
//! 1. **On/off byte-identity.** For a mutation-and-query workload
//!    over TCP across {in-memory, durable group-commit} stores ×
//!    shard counts, a
//!    session against a telemetry-enabled server produces responses,
//!    `Observer` transcripts, and durable segment/manifest bytes
//!    identical to a telemetry-disabled server's.
//! 2. **Stats is invisible too.** A `Stats` request answers with a
//!    versioned snapshot and records no `ServerEvent`s.
//! 3. **Counters move for the right reasons.** Faults and code paths
//!    that must be operator-visible (envelope replays, stale
//!    envelopes, follower resyncs, client retries/failovers, fsync
//!    barriers) each move their counter strictly positive.

use std::time::Duration;

use dbph::core::protocol::{ClientMessage, ServerResponse, WireTrapdoor};
use dbph::core::wire::{WireDecode as _, WireEncode as _};
use dbph::core::{
    DatabasePh, FinalSwpPh, NetServer, PoolOptions, PooledClient, Replica, ReplicaOptions,
    RetryPolicy, Server, TempDir, Transport,
};
use dbph::crypto::SecretKey;
use dbph::relation::{Query, Relation, Tuple, Value};
use dbph::swp::CipherWord;
use dbph::workload::EmployeeGen;

fn ph() -> FinalSwpPh {
    FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([77u8; 32])).unwrap()
}

fn encrypt(scheme: &FinalSwpPh, q: &Query) -> Vec<WireTrapdoor> {
    let qct = scheme.encrypt_query(q).unwrap();
    qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect()
}

/// A compact mutation-and-query workload serialized once, so every
/// session under comparison consumes identical request bytes: create,
/// repeated queries (the second probe hits the index cache), a batch,
/// appends, a delete, a fetch, and a malformed message for the error
/// path. No `Stats` message — snapshots of two different servers
/// legitimately differ, which is exactly what the byte-identity matrix
/// must not be polluted by.
fn workload_messages() -> Vec<Vec<u8>> {
    let scheme = ph();
    let relation = EmployeeGen {
        rows: 60,
        ..EmployeeGen::default()
    }
    .generate(5);
    let table = scheme.encrypt_table(&relation).unwrap();
    let base_id = relation.len() as u64;

    let extra_row = |name: &str, id: u64| -> (u64, Vec<CipherWord>) {
        let rel = Relation::from_tuples(
            EmployeeGen::schema(),
            vec![Tuple::new(vec![
                Value::str(name),
                Value::str("dept-00"),
                Value::int(7777),
            ])],
        )
        .unwrap();
        let ct = scheme.encrypt_table(&rel).unwrap();
        (id, ct.docs.into_iter().next().unwrap().1)
    };

    let mut msgs: Vec<Vec<u8>> = Vec::new();
    msgs.push(
        ClientMessage::CreateTable {
            name: "Emp".into(),
            table,
        }
        .to_wire(),
    );
    for q in [
        Query::select("dept", "dept-00"),
        Query::select("dept", "dept-00"), // repeat: cached-posting probe
        Query::select("salary", 5500i64),
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
    msgs.push(
        ClientMessage::QueryBatch {
            name: "Emp".into(),
            queries: vec![encrypt(&scheme, &Query::select("dept", "dept-01")), vec![]],
        }
        .to_wire(),
    );
    let (id_a, words_a) = extra_row("emp-x", base_id);
    msgs.push(
        ClientMessage::Append {
            name: "Emp".into(),
            doc_id: id_a,
            words: words_a,
        }
        .to_wire(),
    );
    let (id_b, words_b) = extra_row("emp-y", base_id + 1);
    msgs.push(
        ClientMessage::AppendBatch {
            name: "Emp".into(),
            docs: vec![(id_b, words_b)],
        }
        .to_wire(),
    );
    msgs.push(
        ClientMessage::DeleteDocs {
            name: "Emp".into(),
            doc_ids: vec![1, 3, 999_999],
        }
        .to_wire(),
    );
    msgs.push(vec![0xFF, 0x00]);
    msgs.push(ClientMessage::FetchAll { name: "Emp".into() }.to_wire());
    msgs
}

/// The durable directory's on-disk image — every file's name and exact
/// bytes, except the advisory `LOCK` (its content is process-specific
/// and carries no durable state).
fn dir_image(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name() != "LOCK")
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

/// Everything the adversary model can see from one session: response
/// bytes, the `Observer` transcript, and the durable directory image.
type AdversaryView = (
    Vec<Vec<u8>>,
    Vec<dbph::core::server::ServerEvent>,
    Vec<(String, Vec<u8>)>,
);

/// One full TCP session for a matrix cell: build the server (durable
/// or in-memory), flip telemetry, serve it over TCP, replay the
/// workload through a retrying pool with a pinned envelope identity
/// (so tagged request bytes are deterministic), and collect everything
/// the adversary model can see.
fn run_session(
    durable: bool,
    shards: usize,
    telemetry_on: bool,
    messages: &[Vec<u8>],
) -> AdversaryView {
    let tmp = durable.then(|| {
        TempDir::new(&format!(
            "tele-{shards}-{}",
            if telemetry_on { "on" } else { "off" }
        ))
        .unwrap()
    });
    let server = match &tmp {
        Some(tmp) => Server::open_durable(tmp.path(), shards).unwrap(),
        None => Server::with_shards(shards),
    };
    server.telemetry().set_enabled(telemetry_on);

    let handle = NetServer::spawn(server.clone(), "127.0.0.1:0").unwrap();
    let pool = PooledClient::connect_with(
        handle.addr(),
        PoolOptions {
            capacity: 2,
            retry: RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            client_id: Some(7),
            ..PoolOptions::default()
        },
    )
    .unwrap();

    let responses: Vec<Vec<u8>> = messages
        .iter()
        .map(|m| pool.call(m).expect("session call"))
        .collect();
    let events = server.observer().events();
    handle.shutdown();
    drop(pool);
    drop(server); // release the durable log before reading the dir
    let image = tmp
        .as_ref()
        .map(|t| dir_image(t.path()))
        .unwrap_or_default();
    (responses, events, image)
}

#[test]
fn telemetry_on_off_is_byte_identical_across_the_matrix() {
    let messages = workload_messages();
    for durable in [false, true] {
        for shards in [1usize, 3] {
            let (on_resp, on_events, on_image) = run_session(durable, shards, true, &messages);
            let (off_resp, off_events, off_image) = run_session(durable, shards, false, &messages);
            let cell = format!("durable={durable} shards={shards}");
            assert_eq!(on_resp, off_resp, "responses diverged at {cell}");
            assert_eq!(on_events, off_events, "transcripts diverged at {cell}");
            assert_eq!(on_image, off_image, "durable bytes diverged at {cell}");
        }
    }
}

#[test]
fn stats_request_returns_a_snapshot_and_records_no_events() {
    let server = Server::with_shards(2);
    // Put something in the transcript first so "no new events" is a
    // real claim, not an empty-vs-empty accident.
    let _ = server.handle(&ClientMessage::FetchAll { name: "t".into() }.to_wire());
    let before = server.observer().events();

    let response = server.handle(&ClientMessage::Stats.to_wire());
    let snapshot = match ServerResponse::from_wire(&response).unwrap() {
        ServerResponse::StatsSnapshot(s) => s,
        other => panic!("expected StatsSnapshot, got {other:?}"),
    };
    assert_eq!(snapshot.version, dbph::core::telemetry::STATS_VERSION);
    assert!(
        snapshot.scalar("dedup_fresh").is_some(),
        "snapshot must carry the registry"
    );
    assert!(
        snapshot.scalar("exec_workers").unwrap_or(0) > 0,
        "snapshot must sample the executor plane"
    );
    assert_eq!(
        server.observer().events(),
        before,
        "Stats must record no ServerEvents"
    );
    // The probe itself is timed — on the operator's own histogram.
    assert!(server.telemetry().request_latency(13).count() > 0);
}

#[test]
fn dedup_counters_classify_fresh_replayed_and_stale_envelopes() {
    let server = Server::with_shards(1);
    let scheme = ph();
    let table = scheme
        .encrypt_table(
            &EmployeeGen {
                rows: 2,
                ..EmployeeGen::default()
            }
            .generate(1),
        )
        .unwrap();
    let create = ClientMessage::CreateTable {
        name: "Emp".into(),
        table,
    };
    let enveloped = create.clone().tagged(9, 1).to_wire();
    let first = server.handle(&enveloped);
    let replayed = server.handle(&enveloped);
    assert_eq!(first, replayed, "replay must return the cached response");

    // Seqs start at 1; 0 is below every window watermark, i.e. stale.
    let stale = server.handle(&create.tagged(9, 0).to_wire());
    assert!(matches!(
        ServerResponse::from_wire(&stale).unwrap(),
        ServerResponse::Error(_)
    ));

    let t = server.telemetry();
    assert_eq!(t.dedup_fresh.get(), 1);
    assert_eq!(t.dedup_replays.get(), 1);
    assert_eq!(t.dedup_stale.get(), 1);
}

#[test]
fn query_plan_and_index_counters_move() {
    let server = Server::with_shards(2);
    let scheme = ph();
    let relation = EmployeeGen {
        rows: 40,
        ..EmployeeGen::default()
    }
    .generate(2);
    let table = scheme.encrypt_table(&relation).unwrap();
    assert!(!matches!(
        ServerResponse::from_wire(
            &server.handle(
                &ClientMessage::CreateTable {
                    name: "Emp".into(),
                    table
                }
                .to_wire()
            )
        )
        .unwrap(),
        ServerResponse::Error(_)
    ));
    let terms = encrypt(&scheme, &Query::select("dept", "dept-00"));
    let query = ClientMessage::Query {
        name: "Emp".into(),
        terms: terms.clone(),
    }
    .to_wire();
    let batch = ClientMessage::QueryBatch {
        name: "Emp".into(),
        queries: vec![terms.clone(); 3],
    }
    .to_wire();
    let t = server.telemetry();

    // Index off: every query scans, batched or not — one count each.
    let a = server.handle(&query);
    let batched_scan = server.handle(&batch);
    assert_eq!(t.plan_scan_queries.get(), 4, "1 single + 3 batched scans");
    assert_eq!(t.plan_probe_queries.get(), 0);

    // Index on: every query probes, batched or not.
    server.enable_index();
    let b = server.handle(&query);
    let c = server.handle(&query); // second probe rides the cached posting
    let batched_probe = server.handle(&batch);
    assert_eq!(a, b);
    assert_eq!(b, c);
    assert_eq!(batched_scan, batched_probe);
    assert_eq!(t.plan_scan_queries.get(), 4, "no scans once indexed");
    assert_eq!(t.plan_probe_queries.get(), 5, "2 single + 3 batched probes");

    let per_query = terms.len() as u64;
    assert_eq!(t.index_probe_misses.get(), per_query, "first probe misses");
    assert_eq!(t.index_probe_hits.get(), 4 * per_query, "the rest hit");
    assert!(t.index_posting_len.count() > 0);
    assert!(t.request_latency(2).count() >= 2, "query latency histogram");
}

#[test]
fn scan_checks_count_one_check_per_row() {
    const ROWS: usize = 50;
    let server = Server::with_shards(3);
    let scheme = ph();
    let relation = EmployeeGen {
        rows: ROWS,
        ..EmployeeGen::default()
    }
    .generate(4);
    let table = scheme.encrypt_table(&relation).unwrap();
    let _ = server.handle(
        &ClientMessage::CreateTable {
            name: "Emp".into(),
            table,
        }
        .to_wire(),
    );
    let checks = || server.stats_snapshot().scalar("scan_checks").unwrap();
    let query = |q: &Query| {
        server.handle(
            &ClientMessage::Query {
                name: "Emp".into(),
                terms: encrypt(&scheme, q),
            }
            .to_wire(),
        )
    };
    assert_eq!(checks(), 0);

    // An unindexed one-term query checks one word per row: N, not 3N.
    query(&Query::select("salary", 5500i64));
    assert_eq!(checks(), ROWS as u64);
    query(&Query::select("name", "no-such-emp"));
    assert_eq!(checks(), 2 * ROWS as u64);

    // A batch shares a repeated term's match set: one scan for it.
    let terms = encrypt(&scheme, &Query::select("dept", "dept-01"));
    let _ = server.handle(
        &ClientMessage::QueryBatch {
            name: "Emp".into(),
            queries: vec![terms.clone(), terms],
        }
        .to_wire(),
    );
    assert_eq!(checks(), 3 * ROWS as u64);

    // Indexed: the cold probe scans the table once, the warm probe
    // checks nothing.
    server.enable_index();
    query(&Query::select("salary", 5500i64));
    assert_eq!(checks(), 4 * ROWS as u64);
    query(&Query::select("salary", 5500i64));
    assert_eq!(checks(), 4 * ROWS as u64);
}

#[test]
fn durable_ingest_moves_fsync_and_commit_metrics() {
    let tmp = TempDir::new("tele-durable").unwrap();
    let server = Server::open_durable(tmp.path(), 2).unwrap();
    let scheme = ph();
    let table = scheme
        .encrypt_table(
            &EmployeeGen {
                rows: 4,
                ..EmployeeGen::default()
            }
            .generate(3),
        )
        .unwrap();
    let _ = server.handle(
        &ClientMessage::CreateTable {
            name: "Emp".into(),
            table,
        }
        .to_wire(),
    );
    let _ = server.handle(
        &ClientMessage::DeleteDocs {
            name: "Emp".into(),
            doc_ids: vec![0],
        }
        .to_wire(),
    );

    let t = server.telemetry();
    assert!(t.fsync_nanos.count() > 0, "fsyncs must be timed");
    assert!(
        t.commit_window_records.count() > 0,
        "each barrier must record its window occupancy"
    );
    let snapshot = server.stats_snapshot();
    assert!(snapshot.scalar("log_syncs").unwrap_or(0) > 0);
    assert_eq!(snapshot.scalar("log_poisoned"), Some(0));
}

#[test]
fn follower_resync_and_chunk_counters_move() {
    let primary_dir = TempDir::new("tele-repl-primary").unwrap();
    let follower_dir = TempDir::new("tele-repl-follower").unwrap();
    let primary = Server::open_durable(primary_dir.path(), 2).unwrap();
    let scheme = ph();
    let table = scheme
        .encrypt_table(
            &EmployeeGen {
                rows: 2,
                ..EmployeeGen::default()
            }
            .generate(4),
        )
        .unwrap();
    let create = ClientMessage::CreateTable {
        name: "Emp".into(),
        table,
    }
    .to_wire();
    assert!(!matches!(
        ServerResponse::from_wire(&primary.handle(&create)).unwrap(),
        ServerResponse::Error(_)
    ));

    let replica = Replica::bootstrap(
        primary.clone(),
        follower_dir.path(),
        ReplicaOptions {
            follower_id: 21,
            shards: 2,
            poll_interval: Duration::from_millis(1),
            ..ReplicaOptions::default()
        },
    )
    .unwrap();
    replica.sync().unwrap();

    // New records first, then a compaction that moves the stream base
    // past the follower's cursor: the next sync must re-bootstrap.
    let delete = ClientMessage::DeleteDocs {
        name: "Emp".into(),
        doc_ids: vec![0],
    }
    .to_wire();
    let _ = primary.handle(&delete);
    replica.sync().unwrap();
    primary.compact().unwrap();
    let _ = primary.handle(&delete);
    replica.sync().unwrap();

    assert!(replica.resyncs() > 0, "compaction must force a resync");
    let follower_t = replica.server().telemetry().clone();
    assert!(
        follower_t.repl_resyncs.get() > 0,
        "resyncs must be operator-visible on the follower registry"
    );
    assert!(
        primary.telemetry().repl_chunks_shipped.get() > 0,
        "the primary must count shipped chunks"
    );
    // Status carries the counter too — the failover plane's view.
    match ServerResponse::from_wire(&replica.server().handle(&ClientMessage::Ping.to_wire()))
        .unwrap()
    {
        ServerResponse::Status { resyncs, .. } => assert!(resyncs > 0),
        other => panic!("expected Status, got {other:?}"),
    }
}

#[test]
fn client_retry_and_failover_counters_move() {
    let server = Server::with_shards(1);
    let handle = NetServer::spawn(server, "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let pool = PooledClient::connect_with(
        addr,
        PoolOptions {
            capacity: 1,
            retry: RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            ..PoolOptions::default()
        },
    )
    .unwrap();
    handle.shutdown();

    // Nothing listens any more: every attempt is connection-refused
    // (which skips backoff), so the budget burns fast and each retry
    // is counted.
    let err = pool
        .call(&ClientMessage::Ping.to_wire())
        .expect_err("server is gone");
    let _ = err;
    assert!(
        pool.telemetry().client_retries.get() >= 2,
        "both follow-up attempts must be counted"
    );

    pool.redirect(addr).unwrap();
    assert_eq!(pool.telemetry().client_failovers.get(), 1);
}

#[test]
fn thread_front_end_serves_repl_pull() {
    let pull = ClientMessage::ReplPull {
        follower: 5,
        after_offset: 0,
        wait: true,
    }
    .to_wire();
    // A long-poll parks only its own session thread, so the front-end
    // serves replication pulls like any other request.
    let tmp = TempDir::new("tele-repl-pull").unwrap();
    let server = Server::open_durable(tmp.path(), 1).unwrap();
    let handle = NetServer::spawn(server.clone(), "127.0.0.1:0").unwrap();
    let pool = PooledClient::connect(handle.addr(), 1).unwrap();
    if let ServerResponse::Error(e) = ServerResponse::from_wire(&pool.call(&pull).unwrap()).unwrap()
    {
        panic!("thread front-end must serve ReplPull, got: {e}");
    }
    handle.shutdown();
}

#[test]
fn stats_snapshot_travels_the_wire_with_net_counters_sampled() {
    let server = Server::with_shards(2);
    let handle = NetServer::spawn(server.clone(), "127.0.0.1:0").unwrap();
    let pool = PooledClient::connect(handle.addr(), 1).unwrap();
    let _ = pool
        .call(&ClientMessage::FetchAll { name: "t".into() }.to_wire())
        .unwrap();
    let snapshot =
        match ServerResponse::from_wire(&pool.call(&ClientMessage::Stats.to_wire()).unwrap())
            .unwrap()
        {
            ServerResponse::StatsSnapshot(s) => s,
            other => panic!("expected StatsSnapshot, got {other:?}"),
        };
    assert!(snapshot.scalar("net_conns_accepted").unwrap_or(0) >= 1);
    assert!(
        snapshot.scalar("net_frames_in").unwrap_or(0) >= 2,
        "the fetch and the stats request both crossed the wire"
    );
    assert!(snapshot.scalar("net_bytes_out").unwrap_or(0) > 0);
    // The text exposition renders every metric in the snapshot.
    let text = snapshot.to_string();
    for (name, _) in &snapshot.metrics {
        assert!(text.contains(name.as_str()), "exposition missing {name}");
    }
    handle.shutdown();
}

#[test]
fn disabling_telemetry_freezes_collection() {
    let server = Server::with_shards(1);
    let _ = server.handle(&ClientMessage::Ping.to_wire());
    let t = server.telemetry();
    let pings_before = t.request_latency(11).count();
    assert!(pings_before > 0);
    t.set_enabled(false);
    let _ = server.handle(&ClientMessage::Ping.to_wire());
    assert_eq!(
        t.request_latency(11).count(),
        pings_before,
        "a disabled registry must not collect"
    );
    t.set_enabled(true);
    let _ = server.handle(&ClientMessage::Ping.to_wire());
    assert_eq!(t.request_latency(11).count(), pings_before + 1);
}
