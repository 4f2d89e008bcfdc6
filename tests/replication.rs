//! Primary/follower replication: bootstrap-by-recovery, tailing,
//! semi-sync acks, and chaos-verified failover.
//!
//! The replication stream is the primary's segment log, shipped
//! verbatim; the follower feeds it through the exact crash-recovery
//! path. These tests pin the consequences:
//!
//! 1. **Bootstrap equivalence.** A follower bootstrapped from a live
//!    primary answers byte-identically to the primary — including the
//!    exactly-once dedup window (acked envelopes replay on the
//!    follower's server, never re-apply).
//! 2. **Tailing.** Mutations applied after bootstrap flow to the
//!    follower and keep it byte-identical; a primary compaction moves
//!    the stream base and forces a clean re-bootstrap.
//! 3. **Semi-sync.** With `min_acks = 1` a mutation's acknowledgement
//!    implies the live follower already has it durably; with no
//!    follower the wait degrades to async after the timeout and is
//!    counted, never wedged.
//! 4. **Chaos failover.** Kill the primary while a client sends its
//!    mutations one call at a time, with a `ChaosProxy` (from the
//!    dev-only `dbph-testkit`) on the replication link; promote the
//!    follower, redirect the retrying `PooledClient`, re-send every
//!    envelope — every acked mutation lands exactly once on the new
//!    primary, and the final store equals a reference that applied
//!    each op once.

use dbph::core::protocol::{ClientMessage, ServerResponse};
use dbph::core::wire::{WireDecode as _, WireEncode as _};
use dbph::core::{
    NetServer, PhError, PoolOptions, PooledClient, Replica, ReplicaOptions, ReplicationOptions,
    RetryPolicy, Server, ServerConfig, TempDir, Transport,
};
use dbph::swp::{CipherWord, SwpParams};
use dbph_testkit::{ChaosPlan, ChaosProxy};

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn params() -> SwpParams {
    SwpParams::new(13, 4, 32).unwrap()
}

fn word(seed: u64) -> CipherWord {
    CipherWord(vec![(seed % 251) as u8; 13])
}

fn empty_table() -> dbph::core::EncryptedTable {
    dbph::core::EncryptedTable {
        params: params(),
        docs: vec![],
        next_doc_id: 0,
    }
}

fn create_msg(name: &str) -> ClientMessage {
    ClientMessage::CreateTable {
        name: name.into(),
        table: empty_table().into(),
    }
}

fn append_msg(name: &str, id: u64) -> ClientMessage {
    ClientMessage::Append {
        name: name.into(),
        doc_id: id,
        words: vec![word(id)],
    }
}

fn delete_msg(name: &str, ids: &[u64]) -> ClientMessage {
    ClientMessage::DeleteDocs {
        name: name.into(),
        doc_ids: ids.to_vec(),
    }
}

fn fetch_msg(name: &str) -> Vec<u8> {
    ClientMessage::FetchAll { name: name.into() }.to_wire()
}

fn decode(resp: &[u8]) -> ServerResponse {
    ServerResponse::from_wire(resp).expect("well-formed response")
}

fn is_ok(resp: &[u8]) -> bool {
    !matches!(decode(resp), ServerResponse::Error(_))
}

/// A small follower configuration tuned for tests: tight poll loop,
/// distinct id per call site.
fn replica_options(follower_id: u64) -> ReplicaOptions {
    ReplicaOptions {
        follower_id,
        poll_interval: Duration::from_millis(1),
        ..ReplicaOptions::default()
    }
}

/// The mutation workload: a create, a dozen appends, a delete.
fn workload(name: &str) -> Vec<ClientMessage> {
    let mut ops = vec![create_msg(name)];
    for id in 0..12u64 {
        ops.push(append_msg(name, id));
    }
    ops.push(delete_msg(name, &[1, 5, 5, 400]));
    ops
}

// --- 1. bootstrap equivalence ----------------------------------------------

#[test]
fn bootstrap_rebuilds_store_and_dedup_byte_identically() {
    let primary_dir = TempDir::new("repl-boot-primary").unwrap();
    let follower_dir = TempDir::new("repl-boot-follower").unwrap();
    let primary = Server::open(&ServerConfig::default(), Some(primary_dir.path())).unwrap();

    // Tagged workload with a compaction in the middle, so the shipped
    // stream crosses a snapshot + dedup-image + tail-records boundary.
    let mut acked = Vec::new();
    for (i, op) in workload("T").into_iter().enumerate() {
        let enveloped = op.tagged(42, i as u64 + 1).to_wire();
        let resp = primary.handle(&enveloped);
        assert!(is_ok(&resp));
        acked.push((enveloped, resp));
        if i == 6 {
            primary.compact().unwrap();
        }
    }

    // The follower bootstraps over the in-process transport (the same
    // pull protocol the TCP tests exercise end-to-end).
    let replica =
        Replica::bootstrap(primary.clone(), follower_dir.path(), replica_options(1)).unwrap();
    let follower = replica.server();

    assert_eq!(
        follower.handle(&fetch_msg("T")),
        primary.handle(&fetch_msg("T")),
        "bootstrapped store diverged"
    );
    assert_eq!(follower.table_names(), primary.table_names());

    // Exactly-once shipped along: every acked envelope replays its
    // cached response on the follower instead of re-applying.
    for (enveloped, resp) in &acked {
        assert_eq!(
            &follower.handle(enveloped),
            resp,
            "follower re-applied (or refused) a replayed envelope"
        );
    }
    assert_eq!(
        follower.handle(&fetch_msg("T")),
        primary.handle(&fetch_msg("T")),
        "replays mutated the follower"
    );
}

#[test]
fn bootstrap_from_an_idle_primary_never_parks_a_pull() {
    // Bootstrap pulls until an empty answer; on an idle primary that
    // last pull must come back at once, not after a long-poll wait.
    let primary_dir = TempDir::new("repl-boot-idle-primary").unwrap();
    let follower_dir = TempDir::new("repl-boot-idle-follower").unwrap();
    let primary = Server::open(&ServerConfig::default(), Some(primary_dir.path())).unwrap();
    for op in workload("T") {
        assert!(is_ok(&primary.handle(&op.to_wire())));
    }
    let replica =
        Replica::bootstrap(primary.clone(), follower_dir.path(), replica_options(9)).unwrap();
    let parks = primary.stats_snapshot().scalar("repl_longpoll_parks");
    assert_eq!(parks, Some(0), "a bootstrap pull parked");
    let log = primary.durable_log().unwrap();
    assert_eq!(
        log.replication_lag(),
        0,
        "bootstrap stopped short of the stream end"
    );
    assert!(replica.offset() > 0);
    assert_eq!(
        replica.server().handle(&fetch_msg("T")),
        primary.handle(&fetch_msg("T"))
    );
}

/// Bootstrap replays the shipped log through the live apply path, so
/// index clears and purges logged after a compaction reach the
/// follower: with `Emp` dropped and re-created and `Old` losing rows
/// after the cut, the follower holds the primary's at-rest image and
/// answers every query byte-identically.
#[test]
fn bootstrap_after_recreate_and_post_compaction_deletes_matches_the_primary() {
    use dbph::core::protocol::WireTrapdoor;
    use dbph::core::{DatabasePh, FinalSwpPh};
    use dbph::crypto::SecretKey;
    use dbph::relation::Query;
    use dbph::workload::EmployeeGen;

    let scheme =
        FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([77u8; 32])).unwrap();
    let table = |rows: usize, seed: u64| {
        scheme
            .encrypt_table(
                &EmployeeGen {
                    rows,
                    ..EmployeeGen::default()
                }
                .generate(seed),
            )
            .unwrap()
    };
    let create = |name: &str, table: dbph::core::EncryptedTable| {
        ClientMessage::CreateTable {
            name: name.into(),
            table: table.into(),
        }
        .to_wire()
    };
    let queries = |name: &str| -> Vec<Vec<u8>> {
        [
            Query::select("dept", "dept-00"),
            Query::select("dept", "dept-03"),
            Query::select("salary", 5500i64),
        ]
        .iter()
        .map(|q| {
            let terms = scheme.encrypt_query(q).unwrap().terms;
            ClientMessage::Query {
                name: name.into(),
                terms: terms.iter().map(WireTrapdoor::from_trapdoor).collect(),
            }
            .to_wire()
        })
        .collect()
    };

    let primary_dir = TempDir::new("repl-boot-index-primary").unwrap();
    let follower_dir = TempDir::new("repl-boot-index-follower").unwrap();
    let primary = Server::open(
        &ServerConfig {
            index: true,
            ..ServerConfig::default()
        },
        Some(primary_dir.path()),
    )
    .unwrap();
    for name in ["Emp", "Old"] {
        assert!(is_ok(&primary.handle(&create(name, table(120, 9)))));
        for q in queries(name) {
            assert!(is_ok(&primary.handle(&q)));
        }
    }
    primary.compact().unwrap();
    assert!(is_ok(&primary.handle(
        &ClientMessage::DropTable { name: "Emp".into() }.to_wire()
    )));
    assert!(is_ok(&primary.handle(&create("Emp", table(90, 10)))));
    let victims: Vec<u64> = (0..120).step_by(3).collect();
    assert!(is_ok(
        &primary.handle(&delete_msg("Old", &victims).to_wire())
    ));

    let replica =
        Replica::bootstrap(primary.clone(), follower_dir.path(), replica_options(7)).unwrap();
    let follower = replica.server();
    assert!(follower.index_enabled());
    for name in ["Emp", "Old"] {
        assert_eq!(
            follower.index_at_rest(name),
            primary.index_at_rest(name),
            "follower's at-rest image of {name} diverged"
        );
    }
    for name in ["Emp", "Old"] {
        for (i, q) in queries(name).iter().enumerate() {
            assert_eq!(
                follower.handle(q),
                primary.handle(q),
                "follower diverged from the primary on {name} query {i}"
            );
        }
    }
}

/// A follower opened with `index: true` plans probes from its first
/// generation on, and every later generation — a resync after the
/// primary compacts, and the promoted server — opens the same way. The
/// primary's index is on but never probed, so its log carries no index
/// image: only the follower's own config can turn the plan on.
#[test]
fn a_follower_opened_with_the_index_keeps_it_across_resync_and_promotion() {
    use dbph::core::protocol::WireTrapdoor;
    use dbph::core::server::ServerEvent;
    use dbph::core::{DatabasePh, FinalSwpPh};
    use dbph::crypto::SecretKey;
    use dbph::relation::Query;
    use dbph::workload::EmployeeGen;

    let scheme =
        FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([78u8; 32])).unwrap();
    let table = scheme
        .encrypt_table(
            &EmployeeGen {
                rows: 60,
                ..EmployeeGen::default()
            }
            .generate(11),
        )
        .unwrap();
    let queries: Vec<Vec<u8>> = [
        Query::select("dept", "dept-01"),
        Query::select("salary", 5500i64),
    ]
    .iter()
    .map(|q| {
        let terms = scheme.encrypt_query(q).unwrap().terms;
        ClientMessage::Query {
            name: "Emp".into(),
            terms: terms.iter().map(WireTrapdoor::from_trapdoor).collect(),
        }
        .to_wire()
    })
    .collect();

    let primary_dir = TempDir::new("repl-index-config-primary").unwrap();
    let follower_dir = TempDir::new("repl-index-config-follower").unwrap();
    let primary = Server::open(
        &ServerConfig {
            index: true,
            ..ServerConfig::default()
        },
        Some(primary_dir.path()),
    )
    .unwrap();
    assert!(is_ok(
        &primary.handle(
            &ClientMessage::CreateTable {
                name: "Emp".into(),
                table: table.into(),
            }
            .to_wire()
        )
    ));

    // Each generation answers with the index plan: the flag is on and
    // its queries record probes. Answers are collected here and held to
    // the primary's at the end, so the primary's multimap stays empty
    // (and out of its compaction image) until then.
    let answers = |server: &Server, generation: &str| -> Vec<Vec<u8>> {
        assert!(server.index_enabled(), "{generation}: index plan lost");
        server.observer().clear();
        let answers: Vec<Vec<u8>> = queries.iter().map(|q| server.handle(q)).collect();
        assert!(
            server
                .observer()
                .events()
                .iter()
                .any(|e| matches!(e, ServerEvent::IndexProbe { .. })),
            "{generation}: queries recorded no index probes"
        );
        answers
    };

    let replica = Replica::bootstrap(
        primary.clone(),
        follower_dir.path(),
        ReplicaOptions {
            server: ServerConfig {
                index: true,
                transcript: true,
                ..ServerConfig::default()
            },
            ..replica_options(8)
        },
    )
    .unwrap();
    let bootstrapped = answers(&replica.server(), "bootstrap");

    primary.compact().unwrap();
    assert!(primary.index_at_rest("Emp").is_empty());
    replica.sync().unwrap();
    assert_eq!(replica.resyncs(), 1, "compaction must trigger one resync");
    let resynced = answers(&replica.server(), "resync");

    let promoted = answers(&replica.promote(), "promotion");

    let expected: Vec<Vec<u8>> = queries.iter().map(|q| primary.handle(q)).collect();
    assert_eq!(bootstrapped, expected, "bootstrapped follower diverged");
    assert_eq!(resynced, expected, "resynced follower diverged");
    assert_eq!(promoted, expected, "promoted follower diverged");
}

#[test]
fn in_memory_primary_refuses_replication() {
    let primary = Server::open(&ServerConfig::default(), None).unwrap();
    let follower_dir = TempDir::new("repl-refused").unwrap();
    let err = match Replica::bootstrap(primary.clone(), follower_dir.path(), replica_options(1)) {
        Ok(_) => panic!("an in-memory server has no log to ship"),
        Err(e) => e,
    };
    assert!(matches!(err, PhError::Protocol(_)), "got {err:?}");
    assert!(matches!(
        primary.set_replication(ReplicationOptions::default()),
        Err(PhError::Durability(_))
    ));
}

// --- 2. tailing ------------------------------------------------------------

#[test]
fn tailing_keeps_the_follower_byte_identical() {
    let primary_dir = TempDir::new("repl-tail-primary").unwrap();
    let follower_dir = TempDir::new("repl-tail-follower").unwrap();
    let primary = Server::open(&ServerConfig::default(), Some(primary_dir.path())).unwrap();
    assert!(is_ok(&primary.handle(&create_msg("T").to_wire())));

    let replica =
        Replica::bootstrap(primary.clone(), follower_dir.path(), replica_options(2)).unwrap();

    // Appends after bootstrap — a mix of tagged and untagged records.
    for id in 0..8u64 {
        let msg = append_msg("T", id);
        let bytes = if id % 2 == 0 {
            msg.tagged(7, id + 1).to_wire()
        } else {
            msg.to_wire()
        };
        assert!(is_ok(&primary.handle(&bytes)));
    }
    assert!(is_ok(&primary.handle(&delete_msg("T", &[2, 3]).to_wire())));

    replica.sync().unwrap();
    assert_eq!(
        replica.server().handle(&fetch_msg("T")),
        primary.handle(&fetch_msg("T")),
        "tailed store diverged"
    );
    assert_eq!(replica.resyncs(), 0, "plain tailing must not re-bootstrap");

    // The follower's own disk round-trips: recovery over its log (the
    // promote path's foundation) equals the primary's recovery.
    let promoted = replica.promote();
    let primary_fetch = primary.handle(&fetch_msg("T"));
    drop(primary);
    let reference = Server::open(&ServerConfig::default(), Some(primary_dir.path())).unwrap();
    assert_eq!(promoted.handle(&fetch_msg("T")), primary_fetch);
    assert_eq!(
        promoted.handle(&fetch_msg("T")),
        reference.handle(&fetch_msg("T")),
        "follower recovery diverged from primary recovery"
    );
}

#[test]
fn primary_compaction_forces_a_clean_resync() {
    let primary_dir = TempDir::new("repl-compact-primary").unwrap();
    let follower_dir = TempDir::new("repl-compact-follower").unwrap();
    let primary = Server::open(&ServerConfig::default(), Some(primary_dir.path())).unwrap();
    assert!(is_ok(&primary.handle(&create_msg("T").to_wire())));

    let replica =
        Replica::bootstrap(primary.clone(), follower_dir.path(), replica_options(3)).unwrap();
    replica.sync().unwrap();

    // Compaction rewrites history: the virtual stream base moves past
    // every handed-out offset and the follower must start over.
    for id in 0..6u64 {
        assert!(is_ok(&primary.handle(&append_msg("T", id).to_wire())));
    }
    primary.compact().unwrap();
    for id in 6..10u64 {
        assert!(is_ok(&primary.handle(&append_msg("T", id).to_wire())));
    }

    replica.sync().unwrap();
    assert_eq!(replica.resyncs(), 1, "compaction must trigger one resync");
    assert_eq!(
        replica.server().handle(&fetch_msg("T")),
        primary.handle(&fetch_msg("T")),
        "post-compaction follower diverged"
    );
}

/// The link to a primary that can be closed and reopened under its
/// followers, the way a restarted process is reached again at the same
/// address: pulls while it is down fail as transport errors.
struct Restartable(std::sync::Mutex<Option<Server>>);

impl Restartable {
    fn open(dir: &std::path::Path) -> Arc<Self> {
        Arc::new(Restartable(std::sync::Mutex::new(Some(
            Server::open(&ServerConfig::default(), Some(dir)).unwrap(),
        ))))
    }

    fn primary(&self) -> Server {
        self.0.lock().unwrap().clone().expect("primary is up")
    }

    /// Drops the link's handle; the primary closes (and releases its
    /// data directory) once the caller has dropped its own handles.
    fn close(&self) {
        drop(self.0.lock().unwrap().take());
    }

    fn reopen(&self, dir: &std::path::Path) -> Server {
        let primary = Server::open(&ServerConfig::default(), Some(dir)).unwrap();
        *self.0.lock().unwrap() = Some(primary.clone());
        primary
    }
}

impl Transport for Restartable {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>, PhError> {
        let primary = self.0.lock().unwrap().clone();
        primary
            .map(|p| p.handle(request))
            .ok_or_else(|| PhError::Transport("primary is down".into()))
    }
}

/// Whether a `ReplPull` at `cursor` answered with a stream restart: a
/// chunk that does not begin at the requested offset.
fn pull_restarts(primary: &Server, follower: u64, cursor: u64) -> bool {
    let pull = ClientMessage::ReplPull {
        follower,
        after_offset: cursor,
        wait: false,
    };
    match decode(&primary.handle(&pull.to_wire())) {
        ServerResponse::ReplRecords {
            records,
            next_offset,
        } => next_offset - records.len() as u64 != cursor,
        other => panic!("pull answered {other:?}"),
    }
}

#[test]
fn stream_offsets_survive_a_primary_restart_and_stale_ones_restart() {
    let primary_dir = TempDir::new("repl-restart-primary").unwrap();
    let stale_dir = TempDir::new("repl-restart-stale").unwrap();
    let current_dir = TempDir::new("repl-restart-current").unwrap();
    let link = Restartable::open(primary_dir.path());
    let primary = link.primary();
    assert!(is_ok(&primary.handle(&create_msg("T").to_wire())));

    // Follower 51 stops pulling before the compaction; follower 52
    // bootstraps after it. Neither tails in the background.
    let stale =
        Replica::bootstrap(Arc::clone(&link), stale_dir.path(), replica_options(51)).unwrap();
    let stale_cursor = stale.offset();
    for id in 0..6u64 {
        assert!(is_ok(&primary.handle(&append_msg("T", id).to_wire())));
    }
    primary.compact().unwrap();
    let current =
        Replica::bootstrap(Arc::clone(&link), current_dir.path(), replica_options(52)).unwrap();

    // Restart the primary, then log past the stale follower's cursor,
    // so that cursor lies inside the reopened log's byte range.
    drop(primary);
    link.close();
    let primary = link.reopen(primary_dir.path());
    let log = Arc::clone(primary.durable_log().unwrap());
    let mut id = 6u64;
    while log.active_segment_bytes() <= stale_cursor {
        assert!(is_ok(&primary.handle(&append_msg("T", id).to_wire())));
        id += 1;
    }

    // A cursor handed out before the compaction names superseded
    // bytes, restart or not: the pull restarts the stream.
    assert!(
        pull_restarts(&primary, 51, stale_cursor),
        "a pre-compaction cursor was served as in range after a restart"
    );
    stale.sync().unwrap();
    assert_eq!(stale.resyncs(), 1, "the stale follower must re-bootstrap");

    // A cursor handed out after the compaction names the same bytes
    // in the reopened log: tailing just continues.
    current.sync().unwrap();
    assert_eq!(
        current.resyncs(),
        0,
        "a primary restart must not invalidate current offsets"
    );
    for replica in [&stale, &current] {
        assert_eq!(
            replica.server().handle(&fetch_msg("T")),
            primary.handle(&fetch_msg("T")),
            "follower diverged from the restarted primary"
        );
    }
    assert_eq!(
        log.replication_lag(),
        0,
        "both followers hold the whole stream"
    );
}

#[test]
fn a_follower_ahead_of_a_restarted_primary_re_bootstraps() {
    let primary_dir = TempDir::new("repl-ahead-primary").unwrap();
    let follower_dir = TempDir::new("repl-ahead-follower").unwrap();
    let link = Restartable::open(primary_dir.path());
    let primary = link.primary();
    let mut envelopes: Vec<Vec<u8>> = workload("T")
        .into_iter()
        .enumerate()
        .map(|(i, op)| op.tagged(77, i as u64 + 1).to_wire())
        .collect();
    for enveloped in &envelopes {
        assert!(is_ok(&primary.handle(enveloped)));
    }
    let replica =
        Replica::bootstrap(Arc::clone(&link), follower_dir.path(), replica_options(61)).unwrap();

    // One more tagged append reaches the follower...
    let log = Arc::clone(primary.durable_log().unwrap());
    let cut = log.active_segment_bytes();
    let last = append_msg("T", 100)
        .tagged(77, envelopes.len() as u64 + 1)
        .to_wire();
    assert!(is_ok(&primary.handle(&last)));
    replica.sync().unwrap();
    assert_eq!(replica.resyncs(), 0);

    // ...and the primary loses it: its active segment is cut back by
    // that whole record before it reopens, so the follower's cursor
    // lies beyond the reopened stream's end.
    let segment = log.active_segment_path();
    drop((log, primary));
    link.close();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .and_then(|f| f.set_len(cut))
        .unwrap();
    let primary = link.reopen(primary_dir.path());

    replica.sync().unwrap();
    assert_eq!(replica.resyncs(), 1, "a follower ahead must re-bootstrap");
    let follower = replica.server();

    // Store: byte-identical.
    assert_eq!(
        follower.handle(&fetch_msg("T")),
        primary.handle(&fetch_msg("T"))
    );
    // Dedup window: every envelope the primary holds replays the same
    // cached answer on both, and the lost one is fresh on both.
    envelopes.push(last);
    for enveloped in &envelopes {
        assert_eq!(follower.handle(enveloped), primary.handle(enveloped));
    }
    // Answers: queries, and the store after the re-applied append.
    let queries = [
        ClientMessage::Query {
            name: "T".into(),
            terms: vec![],
        },
        ClientMessage::Query {
            name: "T".into(),
            terms: vec![dbph::core::protocol::WireTrapdoor {
                attr: 0,
                target: vec![3; 13],
                check_key: vec![4; 32],
            }],
        },
    ];
    for q in &queries {
        assert_eq!(follower.handle(&q.to_wire()), primary.handle(&q.to_wire()));
    }
    assert_eq!(
        follower.handle(&fetch_msg("T")),
        primary.handle(&fetch_msg("T"))
    );
}

// --- 3. semi-sync ----------------------------------------------------------

#[test]
fn semi_sync_ack_implies_the_follower_has_the_mutation() {
    let primary_dir = TempDir::new("repl-sync-primary").unwrap();
    let follower_dir = TempDir::new("repl-sync-follower").unwrap();
    let primary = Server::open(&ServerConfig::default(), Some(primary_dir.path())).unwrap();
    assert!(is_ok(&primary.handle(&create_msg("T").to_wire())));

    // Real TCP follower: pulls ride the same framed transport clients
    // use.
    let handle = NetServer::spawn(primary.clone(), "127.0.0.1:0").unwrap();
    let feed = PooledClient::connect(handle.addr(), 1).unwrap();
    let mut replica = Replica::bootstrap(feed, follower_dir.path(), replica_options(4)).unwrap();
    replica.start();

    primary
        .set_replication(ReplicationOptions {
            min_acks: 1,
            ack_timeout: Duration::from_secs(10),
        })
        .unwrap();

    let follower = replica.server();
    for id in 0..10u64 {
        assert!(is_ok(&primary.handle(&append_msg("T", id).to_wire())));
        // The ack just returned, so the follower must *already* serve
        // the mutation — no sync, no sleep, no retry loop.
        assert_eq!(
            follower.handle(&fetch_msg("T")),
            primary.handle(&fetch_msg("T")),
            "semi-sync acked before the follower had append {id}"
        );
    }
    let log = primary.durable_log().unwrap();
    assert_eq!(
        log.semi_sync_degraded(),
        0,
        "acks degraded under a live follower"
    );
    assert_eq!(log.replication_lag(), 0, "acked yet lagging");

    drop(replica);
    handle.shutdown();
}

#[test]
fn semi_sync_degrades_to_async_when_no_follower_answers() {
    let primary_dir = TempDir::new("repl-degrade").unwrap();
    let primary = Server::open(&ServerConfig::default(), Some(primary_dir.path())).unwrap();
    assert!(is_ok(&primary.handle(&create_msg("T").to_wire())));

    primary
        .set_replication(ReplicationOptions {
            min_acks: 1,
            ack_timeout: Duration::from_millis(50),
        })
        .unwrap();

    let started = std::time::Instant::now();
    assert!(
        is_ok(&primary.handle(&append_msg("T", 0).to_wire())),
        "a follower-less primary must still ack (degraded), not error"
    );
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(45),
        "the ack returned before the semi-sync window: {elapsed:?}"
    );
    assert_eq!(primary.durable_log().unwrap().semi_sync_degraded(), 1);

    // Back to async: the write path waits for no ack again. A write
    // path that still waited would degrade a second time, after the
    // restored 10 s `ack_timeout`; the count catches it whatever the
    // disk's latency, and the wall bound sits far below that timeout.
    primary
        .set_replication(ReplicationOptions::default())
        .unwrap();
    let started = std::time::Instant::now();
    assert!(is_ok(&primary.handle(&append_msg("T", 1).to_wire())));
    let elapsed = started.elapsed();
    assert_eq!(
        primary.durable_log().unwrap().semi_sync_degraded(),
        1,
        "an async append waited for a follower ack"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "an async append took {elapsed:?}"
    );
}

// --- 4. chaos failover -----------------------------------------------------

/// Bootstraps through weather: the chaos proxy can eat the probe dial
/// or any bootstrap pull, so both connect and bootstrap retry.
fn bootstrap_through_chaos(
    proxy_addr: std::net::SocketAddr,
    dir: &std::path::Path,
    follower_id: u64,
) -> Replica {
    for attempt in 0..50 {
        let feed = match PooledClient::connect_with(
            proxy_addr,
            PoolOptions {
                capacity: 1,
                retry: RetryPolicy {
                    max_attempts: 8,
                    base_backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(4),
                    deadline: None,
                    jitter_seed: follower_id,
                },
                io_timeout: Some(Duration::from_secs(5)),
                checkout_timeout: Some(Duration::from_secs(5)),
                client_id: None,
            },
        ) {
            Ok(feed) => feed,
            Err(_) if attempt < 49 => continue,
            Err(e) => panic!("connect through chaos never succeeded: {e}"),
        };
        match Replica::bootstrap(feed, dir, replica_options(follower_id)) {
            Ok(replica) => return replica,
            Err(PhError::Transport(_)) if attempt < 49 => continue,
            Err(e) => panic!("bootstrap through chaos failed hard: {e}"),
        }
    }
    unreachable!()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn kill_mid_batch_promote_redirect_stays_exactly_once(seed in any::<u64>()) {
        let primary_dir = TempDir::new("repl-chaos-primary").unwrap();
        let follower_dir = TempDir::new("repl-chaos-follower").unwrap();

        // Every envelope is pre-tagged with a fixed (client_id, seq),
        // so a re-send after failover is byte-identical — the envelope
        // continuity a real client gets from its pool surviving the
        // redirect.
        let ops: Vec<Vec<u8>> = workload("T")
            .into_iter()
            .enumerate()
            .map(|(i, op)| op.tagged(77, i as u64 + 1).to_wire())
            .collect();
        let split = ops.len() / 2;

        let primary = Server::open(&ServerConfig::default(), Some(primary_dir.path())).unwrap();
        let handle = NetServer::spawn(primary.clone(), "127.0.0.1:0").unwrap();
        // The replication link runs through seeded chaos: resets, torn
        // frames, swallowed responses, delays.
        let proxy = ChaosProxy::spawn(handle.addr(), seed, ChaosPlan::default()).unwrap();

        let mut replica =
            bootstrap_through_chaos(proxy.addr(), follower_dir.path(), 9);
        replica.start();
        primary
            .set_replication(ReplicationOptions {
                min_acks: 1,
                ack_timeout: Duration::from_secs(3),
            })
            .unwrap();

        let client = PooledClient::connect_with(
            handle.addr(),
            PoolOptions {
                capacity: 2,
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_backoff: Duration::from_millis(1),
                    max_backoff: Duration::from_millis(4),
                    deadline: None,
                    jitter_seed: seed,
                },
                io_timeout: Some(Duration::from_secs(5)),
                checkout_timeout: Some(Duration::from_secs(5)),
                client_id: Some(77),
            },
        )
        .unwrap();

        // Phase 1: the first half acks cleanly (the client path has no
        // proxy; the chaos lives on the replication link).
        for bytes in &ops[..split] {
            let resp = client.call(bytes).expect("direct call failed");
            prop_assert!(is_ok(&resp), "seed {}: acked an error", seed);
        }

        // Phase 2: send the rest one call at a time and kill the
        // primary part-way through; the sender stops at its first
        // error.
        let tail: Vec<Vec<u8>> = ops[split..].to_vec();
        let tail_client = client.clone();
        let sender = std::thread::spawn(move || {
            let mut responses = Vec::new();
            for bytes in &tail {
                match tail_client.call(bytes) {
                    Ok(resp) => responses.push(resp),
                    Err(_) => break,
                }
            }
            responses
        });
        std::thread::sleep(Duration::from_millis(seed % 7 + 1));
        handle.sever_connections();
        handle.shutdown();
        // A short list means the kill landed mid-tail: the failed call
        // may or may not have applied, and exactly-once for it is
        // exactly what the re-send below must prove. Every response
        // that did arrive was a real ack.
        for resp in &sender.join().expect("sender panicked") {
            prop_assert!(is_ok(resp), "seed {}: tail ack was an error", seed);
        }
        drop(primary); // release the dir lock: the primary process is gone

        // Phase 3: promote the follower and repoint the client.
        let promoted = replica.promote();
        let new_handle = NetServer::spawn(promoted.clone(), "127.0.0.1:0").unwrap();
        client.redirect(new_handle.addr()).unwrap();

        // Phase 4: a client whose acks may have died with the primary
        // re-sends *everything*, byte-identical. Replayed or fresh,
        // every op must ack Ok — and apply exactly once in total.
        for bytes in &ops {
            let resp = client.call(bytes).expect("re-send after redirect failed");
            prop_assert!(is_ok(&resp), "seed {}: post-failover re-send refused", seed);
        }

        let reference = Server::open(&ServerConfig::default(), None).unwrap();
        for op in workload("T") {
            prop_assert!(is_ok(&reference.handle(&op.to_wire())));
        }
        prop_assert_eq!(
            promoted.handle(&fetch_msg("T")),
            reference.handle(&fetch_msg("T")),
            "seed {}: the promoted store is not apply-each-once", seed
        );

        proxy.shutdown();
        new_handle.shutdown();
    }
}
