//! Session scale: many concurrent sessions, none stalled by another,
//! and not a single byte changed.
//!
//! The front-end runs one OS thread per session. That is Eve spending
//! her own resources — so this suite pins:
//!
//! 1. **Scale.** Hundreds of concurrent loopback connections, each
//!    pipelining a mixed batch of mutations, queries, and reads, all
//!    answered correctly and in per-session order, with a clean
//!    shutdown and an exact accepted-connection count.
//! 2. **No head-of-line blocking.** A session sending cheap requests
//!    is answered promptly while another session runs back-to-back
//!    scans that take tens of milliseconds each.
//! 3. **Byte equality.** A fixed sequential session produces
//!    byte-identical responses *and* an identical [`Observer`]
//!    transcript across {in-memory, durable} × shard counts × pool
//!    sizes, versus the in-process baseline. The socket and the group
//!    committer change scheduling and timing only — never what Eve
//!    records.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dbph::core::codec;
use dbph::core::protocol::{ClientMessage, WireTrapdoor};
use dbph::core::wire::WireEncode as _;
use dbph::core::{NetServer, PooledClient, Server, ServerConfig, TempDir, Transport};
use dbph::swp::{CipherWord, SwpParams};

fn params() -> SwpParams {
    SwpParams::new(13, 4, 32).unwrap()
}

fn word(seed: u64) -> CipherWord {
    CipherWord(vec![(seed % 251) as u8; 13])
}

fn doc(id: u64) -> (u64, Vec<CipherWord>) {
    (id, vec![word(id)])
}

fn table(n: usize) -> dbph::core::EncryptedTable {
    dbph::core::EncryptedTable {
        params: params(),
        docs: (0..n as u64).map(doc).collect(),
        next_doc_id: n as u64,
    }
}

/// The pipelined batch each stress session sends: create a private
/// table, mutate it, read it back (own and shared), query it, and
/// drop it — mutations, queries, batches, and error-free reads mixed
/// on one connection.
fn session_requests(i: usize) -> Vec<Vec<u8>> {
    let name = format!("s{i}");
    vec![
        ClientMessage::CreateTable {
            name: name.clone(),
            table: table(2).into(),
        }
        .to_wire(),
        ClientMessage::Append {
            name: name.clone(),
            doc_id: 2,
            words: vec![word(2)],
        }
        .to_wire(),
        ClientMessage::QueryBatch {
            name: name.clone(),
            queries: vec![vec![], vec![]],
        }
        .to_wire(),
        ClientMessage::FetchAll { name: name.clone() }.to_wire(),
        ClientMessage::FetchAll {
            name: "shared".into(),
        }
        .to_wire(),
        ClientMessage::DropTable { name }.to_wire(),
    ]
}

#[test]
fn hundreds_of_concurrent_sessions_pipeline_in_order() {
    // Each session costs a server thread and a client thread here, so
    // the count stays well inside a small machine's thread budget.
    const SESSIONS: usize = 256;

    let server = Server::open(
        &ServerConfig {
            workers: Some(2),
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let shared = ClientMessage::CreateTable {
        name: "shared".into(),
        table: table(5).into(),
    }
    .to_wire();
    let _ = server.handle(&shared);

    // Expected bytes per session, computed once against an in-process
    // reference with the same shard count (responses are pinned
    // byte-identical across transports by earlier suites; session
    // tables are disjoint, so sessions are independent).
    let reference = Server::open(&ServerConfig::default(), None).unwrap();
    let _ = reference.handle(&shared);
    let expected: Arc<Vec<Vec<u8>>> = Arc::new(
        session_requests(0)
            .iter()
            .map(|m| reference.handle(m))
            .collect(),
    );

    let handle = NetServer::spawn(server.clone(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();

    // Every thread connects first and only then starts its pipelined
    // batch — all SESSIONS connections are provably open at once.
    let barrier = Arc::new(Barrier::new(SESSIONS));
    let threads: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                barrier.wait();
                let requests = session_requests(i);
                for req in &requests {
                    codec::write_frame(&mut stream, req).unwrap();
                }
                for (k, want) in expected.iter().enumerate() {
                    let got = codec::read_frame(&mut stream)
                        .unwrap()
                        .unwrap_or_else(|| panic!("session {i}: EOF before response {k}"));
                    // Session 0's expected bytes mention "s0"; patch
                    // per-session names out by construction instead:
                    // requests are identical up to the table name, and
                    // the name never appears in these responses.
                    assert_eq!(got, *want, "session {i}: response {k} diverged");
                }
                // Server must not have extra responses buffered.
                drop(stream);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    assert_eq!(
        server.telemetry().net_conns_accepted.get(),
        SESSIONS as u64,
        "every session must be accepted exactly once"
    );
    // Every private table was dropped; only the shared one remains.
    assert_eq!(server.table_names(), vec!["shared".to_string()]);
    handle.shutdown();
}

/// The median of `samples` (sorts them in place).
fn median(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One round trip on a raw framed connection.
fn round_trip(stream: &mut TcpStream, request: &[u8]) -> Duration {
    let started = Instant::now();
    codec::write_frame(stream, request).unwrap();
    codec::read_frame(stream)
        .unwrap()
        .expect("server closed the connection mid-exchange");
    started.elapsed()
}

#[test]
fn a_slow_scan_session_does_not_delay_another_session() {
    // A one-worker pool runs each scan inline on its session thread,
    // so the scanning session occupies one core and the probing
    // session's `Stats` requests must not queue behind it.
    let server = Server::open(
        &ServerConfig {
            workers: Some(1),
            ..ServerConfig::default()
        },
        None,
    )
    .unwrap();
    let _ = server.handle(
        &ClientMessage::CreateTable {
            name: "wide".into(),
            table: table(20_000).into(),
        }
        .to_wire(),
    );

    // Grow a batch of distinct terms (each one a full-table scan)
    // until one batch takes at least 20 ms in-process.
    let trapdoor = |k: u32| WireTrapdoor {
        attr: 0,
        target: vec![(k % 251) as u8; 13],
        check_key: k.to_le_bytes().repeat(8),
    };
    let batch_of = |terms: u32| {
        ClientMessage::QueryBatch {
            name: "wide".into(),
            queries: (0..terms).map(|k| vec![trapdoor(k)]).collect(),
        }
        .to_wire()
    };
    let mut terms = 4u32;
    let scan = loop {
        let scan = batch_of(terms);
        let mut times: Vec<Duration> = (0..3)
            .map(|_| {
                let started = Instant::now();
                let _ = server.handle(&scan);
                started.elapsed()
            })
            .collect();
        if median(&mut times) >= Duration::from_millis(20) {
            break scan;
        }
        assert!(terms < 1 << 16, "a scan batch never reached 20 ms");
        terms *= 2;
    };

    let handle = NetServer::spawn(server.clone(), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let probing_done = Arc::new(AtomicBool::new(false));
    let scans_done = Arc::new(AtomicUsize::new(0));
    let scanner = {
        let probing_done = Arc::clone(&probing_done);
        let scans_done = Arc::clone(&scans_done);
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut times = Vec::new();
            while !probing_done.load(Ordering::SeqCst) {
                times.push(round_trip(&mut stream, &scan));
                scans_done.fetch_add(1, Ordering::SeqCst);
            }
            times
        })
    };
    // Start probing once the scanning session is under way.
    while scans_done.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut prober = TcpStream::connect(addr).unwrap();
    let probe = ClientMessage::Stats.to_wire();
    let mut probe_times: Vec<Duration> =
        (0..200).map(|_| round_trip(&mut prober, &probe)).collect();
    probing_done.store(true, Ordering::SeqCst);
    let mut scan_times = scanner.join().unwrap();

    let probe_median = median(&mut probe_times);
    let scan_median = median(&mut scan_times);
    assert!(
        probe_median * 4 < scan_median,
        "stats probes waited behind another session's scans: median probe \
         {probe_median:?}, median {terms}-term scan {scan_median:?}"
    );
    handle.shutdown();
}

/// One fixed sequential session, replayed through every deployment
/// combination; every response byte and every observer event must
/// match the in-process baseline.
fn matrix_session() -> Vec<Vec<u8>> {
    vec![
        ClientMessage::CreateTable {
            name: "m".into(),
            table: table(6).into(),
        }
        .to_wire(),
        ClientMessage::AppendBatch {
            name: "m".into(),
            docs: vec![doc(6), doc(7)],
        }
        .to_wire(),
        ClientMessage::Query {
            name: "m".into(),
            terms: vec![],
        }
        .to_wire(),
        ClientMessage::FetchChunk {
            name: "m".into(),
            token: 0,
            max_bytes: 64,
        }
        .to_wire(),
        ClientMessage::DeleteDocs {
            name: "m".into(),
            doc_ids: vec![1, 4],
        }
        .to_wire(),
        ClientMessage::FetchAll { name: "m".into() }.to_wire(),
        ClientMessage::Query {
            name: "missing".into(),
            terms: vec![],
        }
        .to_wire(),
        ClientMessage::DropTable { name: "m".into() }.to_wire(),
    ]
}

#[test]
fn responses_and_transcripts_identical_across_stores() {
    let messages = matrix_session();
    for workers in [1usize, 2] {
        let baseline = Server::open(
            &ServerConfig {
                workers: Some(workers),
                transcript: true,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        let baseline_responses: Vec<_> = messages.iter().map(|m| baseline.handle(m)).collect();
        let baseline_events = baseline.observer().events();
        assert!(
            !baseline_events.is_empty(),
            "the baseline recorded no events"
        );

        for durable in [false, true] {
            let _tmp; // keeps the data dir alive through the run
            let server = if durable {
                let tmp = TempDir::new("matrix").unwrap();
                let server = Server::open(
                    &ServerConfig {
                        workers: Some(workers),
                        transcript: true,
                        ..ServerConfig::default()
                    },
                    Some(tmp.path()),
                )
                .unwrap();
                _tmp = tmp;
                server
            } else {
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
            let handle = NetServer::spawn(server.clone(), "127.0.0.1:0").unwrap();
            let pool = PooledClient::connect(handle.addr(), 2).unwrap();
            let responses: Vec<_> = messages
                .iter()
                .map(|m| pool.call(m).expect("transport call"))
                .collect();
            let label = format!("durable={durable} × {workers} worker(s)");
            assert_eq!(
                responses, baseline_responses,
                "responses diverged at {label}"
            );
            assert_eq!(
                server.observer().events(),
                baseline_events,
                "transcript diverged at {label}"
            );
            handle.shutdown();
        }
    }
}
