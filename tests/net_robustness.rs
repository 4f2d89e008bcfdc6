//! Robustness at the socket seam: timeouts, bounded waits, and
//! fail-closed degradation over the network.
//!
//! 1. **Idle-session reaping.** The front-end evicts sessions that go
//!    silent past [`NetOptions::idle_timeout`], or that stop reading
//!    their responses for that long, counts them in the registry's
//!    `net_conns_reaped`, and keeps serving fresh
//!    connections afterwards. An *active* session is never reaped.
//! 2. **Bounded checkout.** With every pooled connection checked out
//!    and [`PoolOptions::checkout_timeout`] set, a second caller gets
//!    a distinct pool-exhausted [`PhError::Transport`] instead of
//!    waiting forever.
//! 3. **Socket timeouts.** A hung server (accepts, never replies)
//!    turns into a timely transport error when
//!    [`PoolOptions::io_timeout`] is set — the client's thread comes
//!    back, the caller decides what next.
//! 4. **Poisoned-log degradation over TCP.** After an injected
//!    `fdatasync` failure, mutations arriving over the network fail
//!    closed with the distinct durability error while queries and
//!    chunked fetches keep answering.
//! 5. **Stale duplicates are non-retriable.** A tagged request whose
//!    id aged below the dedup watermark is rejected with the distinct
//!    [`dbph::core::protocol::STALE_DUPLICATE_PREFIX`] error, which a
//!    retry-enabled [`PooledClient`] surfaces immediately — re-sending
//!    can only get the same answer, so no backoff is ever spent on it.
//! 6. **Liveness probe.** `Stats` answers the health questions
//!    (poisoned-log flag, table count, replication lag, semi-sync
//!    lapses, resyncs) from one snapshot over TCP — the probe failover
//!    logic uses to decide a primary is really gone versus merely
//!    degraded.
//! 7. **Connect-refused is classified.** A dial that fails with
//!    `ECONNREFUSED` carries a distinct marker
//!    ([`dbph::core::PhError::is_connect_refused`]) and the retry loop
//!    spends *zero* backoff on it — the peer's TCP stack answered
//!    instantly, so waiting cannot help, and failover to a promoted
//!    follower should happen now, not after the budget.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbph::core::codec;
use dbph::core::protocol::{ClientMessage, ServerResponse};
use dbph::core::wire::{WireDecode as _, WireEncode as _};
use dbph::core::{
    NetOptions, NetServer, PoolOptions, PooledClient, RetryPolicy, Server, ServerConfig, TempDir,
    Transport,
};
use dbph::swp::{CipherWord, SwpParams};

fn empty_table() -> dbph::core::EncryptedTable {
    dbph::core::EncryptedTable {
        params: SwpParams::new(13, 4, 32).unwrap(),
        docs: vec![],
        next_doc_id: 0,
    }
}

fn create_msg(name: &str) -> Vec<u8> {
    ClientMessage::CreateTable {
        name: name.into(),
        table: empty_table().into(),
    }
    .to_wire()
}

fn append_msg(name: &str, id: u64) -> Vec<u8> {
    ClientMessage::Append {
        name: name.into(),
        doc_id: id,
        words: vec![CipherWord(vec![(id % 251) as u8; 13])],
    }
    .to_wire()
}

fn fetch_msg(name: &str) -> Vec<u8> {
    ClientMessage::FetchAll { name: name.into() }.to_wire()
}

fn chunk_msg(name: &str) -> Vec<u8> {
    ClientMessage::FetchChunk {
        name: name.into(),
        token: 0,
        max_bytes: 1 << 16,
    }
    .to_wire()
}

fn decode(resp: &[u8]) -> ServerResponse {
    ServerResponse::from_wire(resp).expect("well-formed response")
}

fn is_ok(resp: &[u8]) -> bool {
    !matches!(decode(resp), ServerResponse::Error(_))
}

/// Polls `probe` until it returns true or ~5s pass.
fn eventually(mut probe: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if probe() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

// --- 1. idle-session reaping ----------------------------------------------

#[test]
fn idle_sessions_are_reaped() {
    let server = Server::open(&ServerConfig::default(), None).unwrap();
    let handle = NetServer::spawn_opts(
        server.clone(),
        "127.0.0.1:0",
        NetOptions {
            idle_timeout: Some(Duration::from_millis(120)),
        },
    )
    .unwrap();

    // A session that speaks once and then goes silent.
    let idler = PooledClient::connect(handle.addr(), 1).unwrap();
    assert!(is_ok(&idler.call(&create_msg("idle")).unwrap()));

    assert!(
        eventually(|| server.telemetry().net_conns_reaped.get() >= 1),
        "silent session was never reaped"
    );

    // The listener is still healthy: a fresh connection works.
    let fresh = PooledClient::connect(handle.addr(), 1).unwrap();
    assert!(is_ok(&fresh.call(&fetch_msg("idle")).unwrap()));
    handle.shutdown();
}

#[test]
fn a_peer_that_stops_reading_is_reaped() {
    // A peer that pipelines requests and never reads a response: once
    // the responses fill both socket buffers, the session thread is
    // blocked writing. "No traffic in either direction" covers it, so
    // the idle budget must end the session there too.
    let server = Server::open(&ServerConfig::default(), None).unwrap();
    let handle = NetServer::spawn_opts(
        server.clone(),
        "127.0.0.1:0",
        NetOptions {
            idle_timeout: Some(Duration::from_millis(200)),
        },
    )
    .unwrap();
    // 32 rows of 4 KiB: each FetchAll answer is ~128 KiB, so a few
    // hundred of them are far more than loopback buffers hold.
    let table = dbph::core::EncryptedTable {
        params: SwpParams::new(13, 4, 32).unwrap(),
        docs: (0..32u64)
            .map(|i| (i, vec![CipherWord(vec![i as u8; 4096])]))
            .collect(),
        next_doc_id: 32,
    };
    let create = ClientMessage::CreateTable {
        name: "wide".into(),
        table: table.into(),
    }
    .to_wire();
    assert!(is_ok(&server.handle(&create)));

    let mut stalled = TcpStream::connect(handle.addr()).unwrap();
    let fetch = fetch_msg("wide");
    for _ in 0..300 {
        codec::write_frame(&mut stalled, &fetch).unwrap();
    }
    assert!(
        eventually(|| server.telemetry().net_conns_reaped.get() >= 1),
        "a session blocked writing to a peer that never reads was never reaped"
    );
    assert!(
        eventually(|| server.telemetry().net_conns_live.get() == 0),
        "the reaped session is still counted live"
    );
    assert_eq!(server.telemetry().net_conns_reaped.get(), 1);

    // The listener is still healthy: a fresh connection works.
    let fresh = PooledClient::connect(handle.addr(), 1).unwrap();
    assert!(is_ok(&fresh.call(&ClientMessage::Stats.to_wire()).unwrap()));
    drop(stalled);
    handle.shutdown();
}

#[test]
fn active_sessions_survive_the_idle_reaper() {
    let server = Server::open(&ServerConfig::default(), None).unwrap();
    let handle = NetServer::spawn_opts(
        server.clone(),
        "127.0.0.1:0",
        NetOptions {
            idle_timeout: Some(Duration::from_millis(150)),
        },
    )
    .unwrap();
    let client = PooledClient::connect(handle.addr(), 1).unwrap();
    assert!(is_ok(&client.call(&create_msg("busy")).unwrap()));

    // Keep the session warm across several idle budgets.
    let until = Instant::now() + Duration::from_millis(600);
    while Instant::now() < until {
        assert!(
            is_ok(&client.call(&fetch_msg("busy")).unwrap()),
            "active session was cut mid-conversation"
        );
        std::thread::sleep(Duration::from_millis(40));
    }
    assert_eq!(
        server.telemetry().net_conns_reaped.get(),
        0,
        "reaper counted an active session"
    );
    handle.shutdown();
}

// --- 2 & 3. bounded checkout and socket timeouts ---------------------------

/// A server that accepts connections and never responds — the hang
/// case timeouts exist for. Keeps the accepted sockets alive so the
/// peer blocks on read instead of seeing EOF.
fn hung_listener() -> (std::net::SocketAddr, Arc<std::sync::atomic::AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    std::thread::spawn(move || {
        listener.set_nonblocking(true).unwrap();
        let mut held = Vec::new();
        while !stop_flag.load(std::sync::atomic::Ordering::SeqCst) {
            match listener.accept() {
                Ok((conn, _)) => held.push(conn),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    });
    (addr, stop)
}

#[test]
fn io_timeout_turns_a_hung_server_into_a_timely_error() {
    let (addr, stop) = hung_listener();
    let client = PooledClient::connect_with(
        addr,
        PoolOptions {
            capacity: 1,
            io_timeout: Some(Duration::from_millis(200)),
            ..PoolOptions::default()
        },
    )
    .unwrap();

    let started = Instant::now();
    let err = client.call(&fetch_msg("T")).unwrap_err();
    let waited = started.elapsed();
    assert!(
        matches!(err, dbph::core::PhError::Transport(_)),
        "hung server must surface as a transport error, got {err:?}"
    );
    assert!(
        waited < Duration::from_secs(3),
        "io_timeout did not bound the hang: waited {waited:?}"
    );
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
}

#[test]
fn exhausted_pool_fails_checkout_after_the_bounded_wait() {
    let (addr, stop) = hung_listener();
    let client = PooledClient::connect_with(
        addr,
        PoolOptions {
            capacity: 1,
            // The holder thread's call parks on the hung server for
            // well past the waiter's checkout budget.
            io_timeout: Some(Duration::from_secs(2)),
            checkout_timeout: Some(Duration::from_millis(150)),
            ..PoolOptions::default()
        },
    )
    .unwrap();

    let holder = {
        let client = client.clone();
        std::thread::spawn(move || client.call(&fetch_msg("T")))
    };
    // Let the holder win the only connection.
    std::thread::sleep(Duration::from_millis(100));

    let started = Instant::now();
    let err = client.call(&fetch_msg("T")).unwrap_err();
    assert!(
        matches!(&err, dbph::core::PhError::Transport(m) if m.contains("pool exhausted")),
        "expected the pool-exhausted error, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "checkout wait was not bounded"
    );

    assert!(
        holder.join().unwrap().is_err(),
        "the hung call cannot succeed"
    );
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
}

#[test]
fn retry_policy_gives_up_after_its_attempt_budget() {
    // No server at all: every attempt fails fast with connection
    // refused; the call must come back after exactly the budget.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = PooledClient::connect_with(
        addr,
        PoolOptions {
            capacity: 1,
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(10),
                deadline: None,
                jitter_seed: 7,
            },
            ..PoolOptions::default()
        },
    )
    .unwrap();
    drop(listener); // now every dial is refused

    let err = client.call(&append_msg("T", 0)).unwrap_err();
    assert!(matches!(err, dbph::core::PhError::Transport(_)));
}

// --- 4. poisoned-log degradation over TCP ----------------------------------

#[test]
fn poisoned_log_fails_mutations_closed_over_tcp_but_keeps_answering_queries() {
    let tmp = TempDir::new("net-poison").unwrap();
    let server = Server::open(
        &ServerConfig {
            workers: Some(1),
            ..ServerConfig::default()
        },
        Some(tmp.path()),
    )
    .unwrap();
    let handle = NetServer::spawn(server.clone(), "127.0.0.1:0").unwrap();
    let client = PooledClient::connect(handle.addr(), 2).unwrap();

    assert!(is_ok(&client.call(&create_msg("T")).unwrap()));
    assert!(is_ok(&client.call(&append_msg("T", 0)).unwrap()));

    // Break the next barrier; the mutation that trips it poisons
    // the log.
    let log = Arc::clone(server.durable_log().unwrap());
    log.inject_sync_failures(1);
    match decode(&client.call(&append_msg("T", 1)).unwrap()) {
        ServerResponse::Error(m) => assert!(
            m.contains("durability error"),
            "wrong error class for the tripping mutation: {m}"
        ),
        other => panic!("mutation acked against a failed sync: {other:?}"),
    }
    assert!(log.is_poisoned());

    // Fail closed from here on: every mutation refused, with the
    // distinct durability error...
    match decode(&client.call(&append_msg("T", 2)).unwrap()) {
        ServerResponse::Error(m) => assert!(
            m.contains("durability error"),
            "wrong error class after poisoning: {m}"
        ),
        other => panic!("mutation accepted on a poisoned log: {other:?}"),
    }
    // ...while reads — plain and chunked — still answer over the
    // same connections. The tripping append was applied in memory
    // before its barrier failed (it was refused, never acked — the
    // ack is what durability gates), so the live store holds two
    // docs; the post-poison append was refused before apply.
    match decode(&client.call(&fetch_msg("T")).unwrap()) {
        ServerResponse::Table(t) => assert_eq!(t.len(), 2),
        other => panic!("fetch failed on a poisoned log: {other:?}"),
    }
    assert!(
        matches!(
            decode(&client.call(&chunk_msg("T")).unwrap()),
            ServerResponse::TableChunk { .. }
        ),
        "chunked fetch failed on a poisoned log"
    );
    handle.shutdown();
}

// --- 5. stale duplicates are non-retriable ---------------------------------

#[test]
fn stale_duplicate_surfaces_immediately_through_the_retry_policy() {
    use dbph::core::protocol::STALE_DUPLICATE_PREFIX;
    use dbph::core::PhError;

    let server = Server::open(&ServerConfig::default(), None).unwrap();
    let handle = NetServer::spawn(server, "127.0.0.1:0").unwrap();
    // A retry policy with a backoff so wide that any accidental retry
    // of the stale rejection would blow the timing assertion below.
    let client = PooledClient::connect_with(
        handle.addr(),
        PoolOptions {
            capacity: 2,
            retry: RetryPolicy {
                max_attempts: 4,
                base_backoff: Duration::from_secs(2),
                max_backoff: Duration::from_secs(2),
                deadline: None,
                jitter_seed: 3,
            },
            ..PoolOptions::default()
        },
    )
    .unwrap();

    let tagged = |seq: u64, msg: ClientMessage| {
        ClientMessage::Tagged {
            client_id: 9,
            seq,
            inner: Box::new(msg),
        }
        .to_wire()
    };

    assert!(is_ok(&client.call(&create_msg("T")).unwrap()));
    // Age seq 1 out of the bounded window: 150 tagged appends push the
    // per-client watermark past it and evict its cached response.
    for seq in 1..=150u64 {
        assert!(is_ok(
            &client
                .call(&tagged(
                    seq,
                    ClientMessage::Append {
                        name: "T".into(),
                        doc_id: seq - 1,
                        words: vec![CipherWord(vec![(seq % 251) as u8; 13])],
                    },
                ))
                .unwrap()
        ));
    }

    // A retry of seq 1 now lands below the watermark. The server must
    // answer with the *distinct* stale error — not re-apply, not the
    // generic duplicate replay — and the pooled client must hand it
    // straight back instead of burning its 2 s backoffs on a rejection
    // that can never change.
    let started = Instant::now();
    let resp = client
        .call(&tagged(
            1,
            ClientMessage::Append {
                name: "T".into(),
                doc_id: 0,
                words: vec![CipherWord(vec![1u8; 13])],
            },
        ))
        .unwrap();
    let elapsed = started.elapsed();
    match decode(&resp) {
        ServerResponse::Error(m) => {
            assert!(
                m.starts_with(STALE_DUPLICATE_PREFIX),
                "stale rejection must carry the distinct prefix: {m}"
            );
            assert!(
                PhError::Protocol(m).is_stale_duplicate(),
                "the typed error must classify as a stale duplicate"
            );
        }
        other => panic!("stale retry must be rejected, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(1),
        "stale rejection must surface without retries, took {elapsed:?}"
    );

    // The rejection changed nothing server-side: exactly the 150
    // applied docs are stored.
    match decode(&client.call(&fetch_msg("T")).unwrap()) {
        ServerResponse::Table(t) => assert_eq!(t.len(), 150),
        other => panic!("fetch failed: {other:?}"),
    }
    handle.shutdown();
}

// --- 6. liveness probe ------------------------------------------------------

/// The health answers a `Stats` snapshot carries, in one tuple:
/// `(log_poisoned, tables, repl_lag_bytes, repl_semi_sync_degraded,
/// repl_resyncs)`.
fn health(resp: &[u8]) -> (bool, u64, u64, u64, u64) {
    let stats = match decode(resp) {
        ServerResponse::StatsSnapshot(s) => s,
        other => panic!("stats probe answered {other:?}"),
    };
    let read = |name| {
        stats
            .scalar(name)
            .unwrap_or_else(|| panic!("snapshot lacks {name}"))
    };
    (
        read("log_poisoned") != 0,
        read("tables"),
        read("repl_lag_bytes"),
        read("repl_semi_sync_degraded"),
        read("repl_resyncs"),
    )
}

#[test]
fn stats_answers_a_health_probe() {
    let probe = ClientMessage::Stats.to_wire();
    let tmp = TempDir::new("net-stats-probe").unwrap();
    let server = Server::open(
        &ServerConfig {
            workers: Some(1),
            ..ServerConfig::default()
        },
        Some(tmp.path()),
    )
    .unwrap();
    let handle = NetServer::spawn(server.clone(), "127.0.0.1:0").unwrap();
    let client = PooledClient::connect(handle.addr(), 1).unwrap();

    // Healthy and empty.
    let (poisoned, tables, repl_lag, semi_sync_degraded, resyncs) =
        health(&client.call(&probe).unwrap());
    assert!(!poisoned, "fresh log reported poisoned");
    assert_eq!(tables, 0);
    assert_eq!(repl_lag, 0);
    assert_eq!(semi_sync_degraded, 0);
    assert_eq!(resyncs, 0);

    // The table count tracks the store.
    assert!(is_ok(&client.call(&create_msg("A")).unwrap()));
    assert!(is_ok(&client.call(&create_msg("B")).unwrap()));
    let (_, tables, ..) = health(&client.call(&probe).unwrap());
    assert_eq!(tables, 2);

    // The probe sees through a poisoned log — and keeps answering
    // on it, which is the whole point: failover logic needs the
    // answer exactly when mutations are failing.
    let log = Arc::clone(server.durable_log().unwrap());
    log.inject_sync_failures(1);
    let _ = client.call(&append_msg("A", 0)).unwrap(); // trips the barrier
    assert!(log.is_poisoned());
    let (poisoned, ..) = health(&client.call(&probe).unwrap());
    assert!(poisoned, "probe missed the poisoned log");
    handle.shutdown();
}

#[test]
fn stats_health_probe_works_on_an_in_memory_server() {
    let server = Server::open(&ServerConfig::default(), None).unwrap();
    assert!(is_ok(&server.handle(&create_msg("T"))));
    let (poisoned, tables, repl_lag, semi_sync_degraded, resyncs) =
        health(&server.handle(&ClientMessage::Stats.to_wire()));
    assert!(!poisoned, "no log, nothing to poison");
    assert_eq!(tables, 1);
    assert_eq!(repl_lag, 0);
    assert_eq!(semi_sync_degraded, 0);
    assert_eq!(resyncs, 0);
}

// --- 7. connect-refused fails over immediately ------------------------------

#[test]
fn connect_refused_is_classified_and_spends_no_backoff() {
    // Bind-then-drop guarantees a port that answers RST, not a
    // blackhole: the refusal is instant, and so must the error be.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = PooledClient::connect_with(
        addr,
        PoolOptions {
            capacity: 1,
            retry: RetryPolicy {
                // With 2 s backoffs, a single backoff wait would blow
                // the timing assertion — zero-backoff-on-refused is
                // what keeps failover prompt.
                max_attempts: 4,
                base_backoff: Duration::from_secs(2),
                max_backoff: Duration::from_secs(2),
                deadline: None,
                jitter_seed: 11,
            },
            ..PoolOptions::default()
        },
    )
    .unwrap();
    drop(listener);

    let started = Instant::now();
    let err = client.call(&append_msg("T", 0)).unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        err.is_connect_refused(),
        "a dead peer must classify as connect-refused, got {err:?}"
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "refused dials must skip the backoff entirely, took {elapsed:?}"
    );

    // The classification is specific: other transport errors (here, a
    // hung server tripping the io timeout) do not carry it.
    let (hung_addr, stop) = hung_listener();
    let hung_client = PooledClient::connect_with(
        hung_addr,
        PoolOptions {
            capacity: 1,
            io_timeout: Some(Duration::from_millis(100)),
            ..PoolOptions::default()
        },
    )
    .unwrap();
    let err = hung_client.call(&fetch_msg("T")).unwrap_err();
    assert!(
        !err.is_connect_refused(),
        "a timeout is not a refusal: {err:?}"
    );
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
}
