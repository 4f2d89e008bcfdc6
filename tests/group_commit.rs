//! Group-commit durability: shared fsyncs, never a weaker promise.
//!
//! Every durable mutation is acked only once an `fdatasync` barrier
//! covers its record; concurrent writers share that barrier. This
//! suite holds the committer to both halves:
//!
//! 1. **Fsync sharing.** Concurrent writers ride shared `fdatasync`s —
//!    the sync counter grows far slower than the mutation count — and
//!    every acked mutation is still there after an unclean kill.
//! 2. **Fail closed.** A failing `fdatasync` fails every waiter in the
//!    window — no ack escapes a broken barrier — and poisons the log
//!    so later mutations are refused while reads keep answering.
//!
//! (Crash-cut recovery is the proptest in `tests/durability.rs`; the
//! absolute segment bytes are pinned there too.)

use std::sync::Arc;

use dbph::core::protocol::{ClientMessage, ServerResponse};
use dbph::core::wire::{WireDecode as _, WireEncode as _};
use dbph::core::{Server, ServerConfig, TempDir};
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

fn empty_table() -> dbph::core::EncryptedTable {
    dbph::core::EncryptedTable {
        params: params(),
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
    let (doc_id, words) = doc(id);
    ClientMessage::Append {
        name: name.into(),
        doc_id,
        words,
    }
    .to_wire()
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

#[test]
fn concurrent_writers_share_fsyncs_and_all_recover() {
    const WRITERS: usize = 8;
    const APPENDS: u64 = 25;

    let tmp = TempDir::new("group-share").unwrap();
    let server = Server::open(
        &ServerConfig {
            workers: Some(2),
            ..ServerConfig::default()
        },
        Some(tmp.path()),
    )
    .unwrap();

    // Tables are created serially so the concurrent phase is pure
    // appends — each thread owns one table, so per-table order is
    // deterministic no matter how the windows interleave.
    for w in 0..WRITERS {
        assert!(is_ok(&server.handle(&create_msg(&format!("w{w}")))));
    }
    let log = Arc::clone(server.durable_log().unwrap());
    let syncs_after_setup = log.sync_count();

    let threads: Vec<_> = (0..WRITERS)
        .map(|w| {
            let server = server.clone();
            std::thread::spawn(move || {
                let name = format!("w{w}");
                for id in 0..APPENDS {
                    assert!(
                        is_ok(&server.handle(&append_msg(&name, id))),
                        "append {id} on {name} must ack"
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    // The whole point: 200 acked mutations must not have cost 200
    // barriers. Any real batching at all lands far under half.
    let append_syncs = log.sync_count() - syncs_after_setup;
    let total = WRITERS as u64 * APPENDS;
    assert!(append_syncs >= 1, "durable acks need at least one sync");
    assert!(
        append_syncs < total / 2,
        "group commit shared no barriers: {append_syncs} syncs for {total} mutations"
    );

    // Unclean kill: every ack above implies the record was inside a
    // completed barrier, so recovery must replay all of them.
    drop(log);
    drop(server);
    let recovered = Server::open(
        &ServerConfig {
            workers: Some(2),
            ..ServerConfig::default()
        },
        Some(tmp.path()),
    )
    .unwrap();
    let reference = Server::open(&ServerConfig::default(), None).unwrap();
    for w in 0..WRITERS {
        let name = format!("w{w}");
        let _ = reference.handle(&create_msg(&name));
        for id in 0..APPENDS {
            let _ = reference.handle(&append_msg(&name, id));
        }
    }
    for w in 0..WRITERS {
        let name = format!("w{w}");
        assert_eq!(
            recovered.handle(&fetch_msg(&name)),
            reference.handle(&fetch_msg(&name)),
            "recovered {name} lost acked mutations"
        );
    }
}

#[test]
fn failing_fdatasync_fails_every_waiter_in_the_window_closed() {
    const WAITERS: usize = 4;

    let tmp = TempDir::new("group-poison").unwrap();
    let server = Server::open(
        &ServerConfig {
            workers: Some(1),
            ..ServerConfig::default()
        },
        Some(tmp.path()),
    )
    .unwrap();
    for w in 0..WAITERS {
        assert!(is_ok(&server.handle(&create_msg(&format!("p{w}")))));
    }
    let log = Arc::clone(server.durable_log().unwrap());

    // The next barrier will fail. Every mutation that lands in that
    // window — whichever thread ends up leading it — must be refused;
    // none may ack against a sync that never happened.
    log.inject_sync_failures(1);
    let threads: Vec<_> = (0..WAITERS)
        .map(|w| {
            let server = server.clone();
            std::thread::spawn(move || server.handle(&append_msg(&format!("p{w}"), 0)))
        })
        .collect();
    for t in threads {
        let resp = t.join().unwrap();
        assert!(
            matches!(decode(&resp), ServerResponse::Error(_)),
            "a waiter was acked out of a failed flush window"
        );
    }
    assert!(log.is_poisoned(), "a failed barrier must poison the log");

    // Fail closed: later mutations are refused outright...
    assert!(
        !is_ok(&server.handle(&append_msg("p0", 1))),
        "mutations must be refused after poisoning"
    );
    // ...while reads — which never touch the log — still answer.
    assert!(
        is_ok(&server.handle(&fetch_msg("p0"))),
        "reads must survive a poisoned log"
    );
}
