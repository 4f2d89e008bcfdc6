//! Exactly-once mutations under seeded fault schedules.
//!
//! The request envelope ([`ClientMessage::Tagged`]) plus the server's
//! per-client dedup window promise that a retried mutation applies
//! *once*, no matter which acknowledgement the weather ate. This suite
//! holds that promise against deterministic chaos:
//!
//! 1. **Fault-free control.** A tagged session is byte-identical to an
//!    untagged one — same responses for the inner messages, same
//!    observer transcript. The envelope is transport metadata, not
//!    protocol drift.
//! 2. **In-process chaos.** A seeded [`FaultTransport`] loses
//!    requests, loses responses *after* the server applied them (the
//!    schedule that breaks naive retry), and delays exchanges, while
//!    the client retries each mutation envelope verbatim — one-row
//!    appends and four-row `AppendBatch` messages alike. Every mutation
//!    must end acknowledged `Ok`, and the final store must equal a
//!    reference store that applied each mutation exactly once.
//! 3. **Crash-restart.** The same discipline across a durable server
//!    kill: acked-then-retried envelopes replay from the recovered
//!    dedup window (rebuilt from the raw log records) instead of
//!    re-applying, and un-acked envelopes complete on the recovered
//!    server — still exactly once.
//! 4. **TCP chaos.** A real [`PooledClient`] with a [`RetryPolicy`]
//!    dials through a [`ChaosProxy`] injecting resets, torn frames,
//!    swallowed responses, and delays on the kernel socket path; the
//!    durable store recovered afterwards equals the reference.
//!
//! Both harnesses come from the dev-only `dbph-testkit` crate
//! (`dbph_testkit::{FaultTransport, ChaosProxy}`): code the deployment
//! never runs, which only this package's tests and examples may name.

use dbph::core::protocol::{ClientMessage, ServerResponse};
use dbph::core::wire::{WireDecode as _, WireEncode as _};
use dbph::core::{
    NetServer, PoolOptions, PooledClient, RetryPolicy, Server, ServerConfig, TempDir, Transport,
};
use dbph::swp::{CipherWord, SwpParams};
use dbph_testkit::{ChaosPlan, ChaosProxy, FaultPlan, FaultTransport};

use proptest::prelude::*;
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

/// The mutation workload both the chaos run and the reference apply:
/// a create, a dozen appends, and a delete that removes a few.
fn workload(name: &str) -> Vec<ClientMessage> {
    let mut ops = vec![create_msg(name)];
    for id in 0..12u64 {
        ops.push(append_msg(name, id));
    }
    ops.push(delete_msg(name, &[1, 5, 5, 400]));
    ops
}

/// Retries `bytes` through `faulty` until acknowledged. The attempt
/// cap only bounds the weather: after it, injection is disarmed and
/// the final exchange goes through clean — the dedup window must make
/// that *harmless*, not a double apply.
fn retry_until_acked<T: Transport>(faulty: &FaultTransport<T>, bytes: &[u8]) -> Vec<u8> {
    for _ in 0..12 {
        if let Ok(resp) = faulty.call(bytes) {
            return resp;
        }
    }
    faulty.disarm();
    let resp = faulty.call(bytes).expect("clean exchange succeeds");
    faulty.arm();
    resp
}

// --- 1. fault-free control -------------------------------------------------

#[test]
fn fault_free_tagged_session_is_byte_identical_to_untagged() {
    let config = ServerConfig {
        transcript: true,
        ..ServerConfig::default()
    };
    let untagged = Server::open(&config, None).unwrap();
    let tagged = Server::open(&config, None).unwrap();

    let mut seq = 0u64;
    for msg in workload("T") {
        let plain = msg.to_wire();
        seq += 1;
        let enveloped = msg.tagged(99, seq).to_wire();
        assert_eq!(
            untagged.handle(&plain),
            tagged.handle(&enveloped),
            "tagged response diverged at seq {seq}"
        );
    }
    // Queries ride untagged on both.
    assert_eq!(
        untagged.handle(&fetch_msg("T")),
        tagged.handle(&fetch_msg("T"))
    );
    let events = untagged.observer().events();
    assert!(
        !events.is_empty(),
        "the untagged session recorded no events"
    );
    assert_eq!(
        events,
        tagged.observer().events(),
        "the envelope leaked into the transcript"
    );
}

#[test]
fn duplicate_envelope_replays_without_reapplying() {
    let server = Server::open(&ServerConfig::default(), None).unwrap();
    assert!(is_ok(
        &server.handle(&create_msg("T").tagged(7, 1).to_wire())
    ));

    let append = append_msg("T", 0).tagged(7, 2).to_wire();
    let first = server.handle(&append);
    assert!(is_ok(&first));
    // Re-sending the identical envelope replays the identical bytes;
    // without dedup this append would now be rejected as stale.
    assert_eq!(server.handle(&append), first);

    let table = match decode(&server.handle(&fetch_msg("T"))) {
        ServerResponse::Table(t) => t,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(table.len(), 1, "duplicate envelope was re-applied");
}

// --- 2. in-process chaos ---------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn every_acked_mutation_applies_exactly_once_under_faults(seed in any::<u64>()) {
        let server = Server::open(&ServerConfig::default(), None).unwrap();
        let faulty = FaultTransport::new(server.clone(), seed, FaultPlan::default());
        let reference = Server::open(&ServerConfig::default(), None).unwrap();

        for (i, op) in workload("T").into_iter().enumerate() {
            let plain = op.to_wire();
            let enveloped = op.tagged(11, i as u64 + 1).to_wire();
            let acked = retry_until_acked(&faulty, &enveloped);
            prop_assert!(
                is_ok(&acked),
                "seed {seed}: mutation {i} acked an error: {:?}",
                decode(&acked)
            );
            prop_assert!(is_ok(&reference.handle(&plain)));
        }

        // The store the chaos run produced equals one clean pass.
        prop_assert_eq!(
            server.handle(&fetch_msg("T")),
            reference.handle(&fetch_msg("T")),
            "seed {}: store diverged from apply-each-once", seed
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn tagged_append_batches_apply_exactly_once_under_faults(seed in any::<u64>()) {
        let server = Server::open(&ServerConfig::default(), None).unwrap();
        let faulty = FaultTransport::new(server.clone(), seed, FaultPlan::default());
        let reference = Server::open(&ServerConfig::default(), None).unwrap();

        prop_assert!(is_ok(&retry_until_acked(&faulty, &create_msg("T").tagged(3, 1).to_wire())));
        prop_assert!(is_ok(&reference.handle(&create_msg("T").to_wire())));

        // Three batches of four appends, each one tagged `AppendBatch`
        // message: a batch is applied whole or not at all, and a retry
        // of one whose response was lost must replay, not re-apply.
        for batch in 0..3u64 {
            let docs = (0..4u64)
                .map(|k| {
                    let id = batch * 4 + k;
                    (id, vec![word(id)])
                })
                .collect();
            let envelope = ClientMessage::AppendBatch {
                name: "T".into(),
                docs,
            }
            .tagged(3, 2 + batch)
            .to_wire();
            let acked = retry_until_acked(&faulty, &envelope);
            prop_assert!(
                is_ok(&acked),
                "seed {seed}: batch {batch} acked an error: {:?}",
                decode(&acked)
            );
            for k in 0..4u64 {
                prop_assert!(is_ok(&reference.handle(&append_msg("T", batch * 4 + k).to_wire())));
            }
        }

        prop_assert_eq!(
            server.handle(&fetch_msg("T")),
            reference.handle(&fetch_msg("T")),
            "seed {}: batched store diverged from apply-each-once", seed
        );
    }
}

// --- 3. crash-restart ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn retries_straddling_a_server_restart_stay_exactly_once(seed in any::<u64>()) {
        let tmp = TempDir::new("chaos-restart").unwrap();
        let reference = Server::open(&ServerConfig::default(), None).unwrap();
        let ops = workload("T");
        let split = ops.len() / 2;

        // Phase 1: chaos up to the split, then kill the server.
        let mut acked_before: Vec<Vec<u8>> = Vec::new();
        {
            let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
            let faulty = FaultTransport::new(server, seed, FaultPlan::default());
            for (i, op) in ops[..split].iter().enumerate() {
                let enveloped = op.clone().tagged(11, i as u64 + 1).to_wire();
                prop_assert!(is_ok(&retry_until_acked(&faulty, &enveloped)));
                acked_before.push(enveloped);
            }
            // Dropping every handle is the in-process `kill -9`: the
            // durable log is whatever already hit the segment files.
        }

        // Phase 2: recover, then retry *already-acked* envelopes as a
        // client whose acks were lost in the crash would, and finish
        // the workload under fresh chaos.
        let recovered = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        for enveloped in &acked_before {
            prop_assert!(
                is_ok(&recovered.handle(enveloped)),
                "seed {seed}: replay after restart was refused"
            );
        }
        let faulty = FaultTransport::new(recovered.clone(), seed ^ 0xdead_beef, FaultPlan::default());
        for (i, op) in ops[split..].iter().enumerate() {
            let enveloped = op.clone().tagged(11, (split + i) as u64 + 1).to_wire();
            prop_assert!(is_ok(&retry_until_acked(&faulty, &enveloped)));
        }

        for op in &ops {
            prop_assert!(is_ok(&reference.handle(&op.to_wire())));
        }
        prop_assert_eq!(
            recovered.handle(&fetch_msg("T")),
            reference.handle(&fetch_msg("T")),
            "seed {}: store after crash-straddling retries diverged", seed
        );
    }
}

// --- 4. TCP chaos ----------------------------------------------------------

#[test]
fn pooled_client_retries_through_chaos_proxy_exactly_once() {
    for seed in [1u64, 0xfeed_f00d, 0x5eed_0007] {
        let tmp = TempDir::new("chaos-tcp").unwrap();
        let reference = Server::open(&ServerConfig::default(), None).unwrap();
        {
            let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
            let handle = NetServer::spawn(server, "127.0.0.1:0").unwrap();
            let proxy = ChaosProxy::spawn(handle.addr(), seed, ChaosPlan::default()).unwrap();
            let client = PooledClient::connect_with(
                proxy.addr(),
                PoolOptions {
                    capacity: 2,
                    retry: RetryPolicy {
                        max_attempts: 24,
                        base_backoff: Duration::from_millis(1),
                        max_backoff: Duration::from_millis(8),
                        deadline: None,
                        jitter_seed: seed,
                    },
                    io_timeout: Some(Duration::from_secs(5)),
                    checkout_timeout: Some(Duration::from_secs(5)),
                    client_id: Some(21),
                },
            )
            .unwrap();

            for op in workload("T") {
                let resp = client.call(&op.to_wire()).expect("retries exhausted");
                assert!(
                    is_ok(&resp),
                    "seed {seed}: acked an error over chaos TCP: {:?}",
                    decode(&resp)
                );
            }
            // Queries keep answering through the same weather.
            let fetched = client
                .call(&fetch_msg("T"))
                .expect("query retries exhausted");
            assert!(matches!(decode(&fetched), ServerResponse::Table(_)));

            assert!(
                proxy.faults_injected() > 0,
                "seed {seed}: the schedule never fired — the run proved nothing"
            );
            proxy.shutdown();
            handle.shutdown();
        }

        for op in workload("T") {
            assert!(is_ok(&reference.handle(&op.to_wire())));
        }
        let recovered = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        assert_eq!(
            recovered.handle(&fetch_msg("T")),
            reference.handle(&fetch_msg("T")),
            "seed {seed}: durable store behind the chaos proxy diverged"
        );
    }
}
