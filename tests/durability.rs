//! Durability must be observationally invisible — and crash-proof.
//!
//! The paper's provider durably holds Alex's data; this suite holds the
//! segment-log backend to the two obligations that makes testable:
//!
//! 1. **Byte-identical behavior.** A durable server driven by any
//!    session produces the same response bytes *and* the same
//!    [`Observer`] transcript as an in-memory server driven by the
//!    same session — across pool sizes, and both
//!    transports. The disk image is made of exactly the mutation
//!    messages and ciphertext Eve already observes, so persistence
//!    must change nothing she can record.
//! 2. **Exact crash recovery.** After an unclean kill — including a
//!    kill that tears the last record mid-write, modeled by truncating
//!    the active segment at an *arbitrary byte offset* — reopening the
//!    data directory recovers precisely the fully-fsync'd prefix of
//!    the session: `FetchAll`/query responses are byte-identical to a
//!    reference store that replayed only that prefix. Torn tails are
//!    truncated; never a panic, never a partial apply.

use dbph::core::protocol::{ClientMessage, ServerResponse, WireTrapdoor};
use dbph::core::wire::{WireDecode as _, WireEncode as _};
use dbph::core::{
    DurableOptions, NetServer, PooledClient, Server, ServerConfig, TempDir, Transport,
};
use dbph::swp::{CipherWord, SwpParams};

use proptest::prelude::*;

fn params() -> SwpParams {
    SwpParams::new(13, 4, 32).unwrap()
}

fn word(seed: u64) -> CipherWord {
    CipherWord(vec![(seed % 251) as u8; 13])
}

/// A document with one regular word, plus an irregular-length word for
/// every third id — recovery must round-trip wire-legal deviants too.
fn doc(id: u64) -> (u64, Vec<CipherWord>) {
    let mut words = vec![word(id)];
    if id.is_multiple_of(3) {
        words.push(CipherWord(vec![(id % 251) as u8; 5]));
    }
    (id, words)
}

fn table(n: usize) -> dbph::core::EncryptedTable {
    dbph::core::EncryptedTable {
        params: params(),
        docs: (0..n as u64).map(doc).collect(),
        next_doc_id: n as u64,
    }
}

fn dead_trapdoor() -> WireTrapdoor {
    WireTrapdoor {
        attr: 0,
        target: vec![7; 13],
        check_key: vec![0; 32],
    }
}

/// A session exercising every message class the server knows —
/// mutations, queries, batches, chunked fetches (including the clamp
/// path), error paths — so the equality assertions cover the full
/// protocol surface, `FetchChunk` events included.
fn session_messages() -> Vec<Vec<u8>> {
    vec![
        ClientMessage::CreateTable {
            name: "t1".into(),
            table: table(8).into(),
        }
        .to_wire(),
        ClientMessage::CreateTable {
            name: "t2".into(),
            table: table(0).into(),
        }
        .to_wire(),
        ClientMessage::Append {
            name: "t1".into(),
            doc_id: 8,
            words: vec![word(8)],
        }
        .to_wire(),
        ClientMessage::AppendBatch {
            name: "t1".into(),
            docs: vec![doc(9), doc(10), doc(11)],
        }
        .to_wire(),
        ClientMessage::Query {
            name: "t1".into(),
            terms: vec![dead_trapdoor()],
        }
        .to_wire(),
        ClientMessage::QueryBatch {
            name: "t1".into(),
            queries: vec![vec![], vec![dead_trapdoor()]],
        }
        .to_wire(),
        ClientMessage::FetchChunk {
            name: "t1".into(),
            token: 0,
            max_bytes: 64,
        }
        .to_wire(),
        ClientMessage::FetchChunk {
            name: "t1".into(),
            token: 3,
            max_bytes: 1,
        }
        .to_wire(),
        ClientMessage::FetchChunk {
            name: "t1".into(),
            token: 0,
            max_bytes: u64::MAX,
        }
        .to_wire(),
        ClientMessage::DeleteDocs {
            name: "t1".into(),
            doc_ids: vec![2, 2, 5, 999],
        }
        .to_wire(),
        ClientMessage::FetchAll { name: "t1".into() }.to_wire(),
        ClientMessage::DropTable { name: "t2".into() }.to_wire(),
        // Error paths: malformed bytes, unknown tables.
        vec![0xFF, 0x00],
        ClientMessage::Query {
            name: "nope".into(),
            terms: vec![],
        }
        .to_wire(),
        ClientMessage::FetchChunk {
            name: "nope".into(),
            token: 0,
            max_bytes: 64,
        }
        .to_wire(),
    ]
}

/// Read-only probes replayed against a recovered server and its
/// uninterrupted reference — every byte must agree.
fn probe_messages() -> Vec<Vec<u8>> {
    vec![
        ClientMessage::FetchAll { name: "t1".into() }.to_wire(),
        ClientMessage::FetchAll { name: "t2".into() }.to_wire(),
        ClientMessage::Query {
            name: "t1".into(),
            terms: vec![dead_trapdoor()],
        }
        .to_wire(),
        ClientMessage::Query {
            name: "t1".into(),
            terms: vec![],
        }
        .to_wire(),
        ClientMessage::FetchChunk {
            name: "t1".into(),
            token: 0,
            max_bytes: 48,
        }
        .to_wire(),
    ]
}

fn replay<T: Transport>(transport: &T, messages: &[Vec<u8>]) -> Vec<Vec<u8>> {
    messages
        .iter()
        .map(|m| transport.call(m).expect("transport call"))
        .collect()
}

#[test]
fn durable_equals_in_memory_across_shards_and_workers() {
    let messages = session_messages();
    let probes = probe_messages();
    for workers in [1usize, 4] {
        let mem = Server::open(
            &ServerConfig {
                workers: Some(workers),
                transcript: true,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        let mem_responses = replay(&mem, &messages);

        let tmp = TempDir::new("equiv").unwrap();
        let durable = Server::open(
            &ServerConfig {
                workers: Some(workers),
                transcript: true,
                ..ServerConfig::default()
            },
            Some(tmp.path()),
        )
        .unwrap();
        let durable_responses = replay(&durable, &messages);

        assert_eq!(
            durable_responses, mem_responses,
            "durable responses diverged at {workers} worker(s)"
        );
        let mem_events = mem.observer().events();
        assert!(!mem_events.is_empty(), "the session recorded no events");
        assert_eq!(
            durable.observer().events(),
            mem_events,
            "durable transcript diverged at {workers} worker(s)"
        );

        // Unclean kill: every record was fsync'd per message, so
        // dropping the server with no goodbye loses nothing.
        drop(durable);
        let recovered = Server::open(
            &ServerConfig {
                workers: Some(workers),
                transcript: true,
                ..ServerConfig::default()
            },
            Some(tmp.path()),
        )
        .unwrap();
        let mem_events_before = mem.observer().events().len();
        assert_eq!(
            replay(&recovered, &probes),
            replay(&mem, &probes),
            "post-restart probes diverged at {workers} worker(s)"
        );
        // The recovered server's (fresh) transcript must equal the
        // probe segment of the uninterrupted server's transcript.
        let probe_events = recovered.observer().events();
        assert!(!probe_events.is_empty(), "the probes recorded no events");
        assert_eq!(
            probe_events,
            mem.observer().events()[mem_events_before..],
            "post-restart transcript diverged"
        );
    }
}

#[test]
fn durable_equals_in_memory_over_tcp_and_survives_restart() {
    let messages = session_messages();
    let probes = probe_messages();

    // Reference: the uninterrupted in-memory server, in-process.
    let config = ServerConfig {
        transcript: true,
        ..ServerConfig::default()
    };
    let mem = Server::open(&config, None).unwrap();
    let mem_responses = replay(&mem, &messages);

    // A durable server behind a real socket.
    let tmp = TempDir::new("tcp-equiv").unwrap();
    let durable = Server::open(&config, Some(tmp.path())).unwrap();
    let handle = NetServer::spawn(durable.clone(), "127.0.0.1:0").unwrap();
    let pool = PooledClient::connect(handle.addr(), 2).unwrap();
    let tcp_responses = replay(&pool, &messages);
    assert_eq!(tcp_responses, mem_responses, "TCP × durable diverged");
    let mem_events = mem.observer().events();
    assert!(!mem_events.is_empty(), "the session recorded no events");
    assert_eq!(durable.observer().events(), mem_events);

    // Kill the whole deployment — front-end and store — and restart
    // both from the data directory.
    handle.shutdown();
    drop(durable);
    let recovered = Server::open(&config, Some(tmp.path())).unwrap();
    let handle = NetServer::spawn(recovered.clone(), "127.0.0.1:0").unwrap();
    let pool = PooledClient::connect(handle.addr(), 2).unwrap();
    let mem_events_before = mem.observer().events().len();
    assert_eq!(
        replay(&pool, &probes),
        replay(&mem, &probes),
        "post-restart TCP probes diverged"
    );
    let probe_events = recovered.observer().events();
    assert!(!probe_events.is_empty(), "the probes recorded no events");
    assert_eq!(probe_events, mem.observer().events()[mem_events_before..]);
    handle.shutdown();
}

#[test]
fn crypto_client_session_survives_restart() {
    use dbph::core::{Client, FinalSwpPh};
    use dbph::crypto::SecretKey;
    use dbph::relation::schema::emp_schema;
    use dbph::relation::{tuple, Query, Relation};

    let scheme = || FinalSwpPh::new(emp_schema(), &SecretKey::from_bytes([11u8; 32])).unwrap();
    let emp = Relation::from_tuples(
        emp_schema(),
        vec![
            tuple!["Montgomery", "HR", 7500i64],
            tuple!["Smith", "IT", 4900i64],
            tuple!["Jones", "IT", 1200i64],
        ],
    )
    .unwrap();

    let tmp = TempDir::new("crypto").unwrap();
    {
        let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
        let mut client = Client::new(scheme(), server);
        client.outsource(&emp).unwrap();
        client.insert(&tuple!["Kim", "HR", 9000i64]).unwrap();
        // kill -9: just drop everything.
    }
    let server = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
    let client = Client::new(scheme(), server);
    let all = client.fetch_all().unwrap();
    assert_eq!(all.len(), 4, "the insert must have survived the kill");
    let it = client.select(&Query::select("dept", "IT")).unwrap();
    assert_eq!(it.len(), 2);
    // And the chunked path reads the same recovered ciphertext.
    assert!(client.fetch_all_chunked(64).unwrap().same_multiset(&all));
}

// --- randomized crash recovery ---------------------------------------------

/// An abstract mutation; lowering produces only *valid* mutations (the
/// server applies every one), so log records correspond 1:1 to
/// messages and the fsync'd prefix is exactly a message prefix.
#[derive(Clone, Debug)]
enum MutOp {
    Create(u8),
    Append(u8),
    AppendBatch(u8, u8),
    Delete(u8, Vec<u8>),
    Drop(u8),
}

fn arb_mut_op() -> impl Strategy<Value = MutOp> {
    prop_oneof![
        (0u8..6).prop_map(MutOp::Create),
        (0u8..2).prop_map(MutOp::Append),
        ((0u8..2), (1u8..5)).prop_map(|(t, n)| MutOp::AppendBatch(t, n)),
        ((0u8..2), proptest::collection::vec(0u8..20, 0..4))
            .prop_map(|(t, ids)| MutOp::Delete(t, ids)),
        (0u8..2).prop_map(MutOp::Drop),
    ]
}

/// Lowers abstract ops to concrete wire messages over two table names,
/// skipping ops that would be rejected (create-on-existing, mutate-on-
/// missing) so every emitted message writes exactly one log record.
fn lower_mutations(ops: &[MutOp]) -> Vec<Vec<u8>> {
    let names = ["a", "b"];
    // Per table: Some(next_doc_id) when it exists.
    let mut state: [Option<u64>; 2] = [None, None];
    let mut msgs = Vec::new();
    for op in ops {
        match op {
            MutOp::Create(x) => {
                let t = (*x % 2) as usize;
                if state[t].is_none() {
                    let n = (*x % 5) as usize;
                    state[t] = Some(n as u64);
                    msgs.push(
                        ClientMessage::CreateTable {
                            name: names[t].into(),
                            table: table(n).into(),
                        }
                        .to_wire(),
                    );
                }
            }
            MutOp::Append(t) => {
                let t = (*t % 2) as usize;
                if let Some(next) = state[t].as_mut() {
                    let (doc_id, words) = doc(*next);
                    *next += 1;
                    msgs.push(
                        ClientMessage::Append {
                            name: names[t].into(),
                            doc_id,
                            words,
                        }
                        .to_wire(),
                    );
                }
            }
            MutOp::AppendBatch(t, n) => {
                let t = (*t % 2) as usize;
                if let Some(next) = state[t].as_mut() {
                    let docs: Vec<_> = (0..*n as u64).map(|k| doc(*next + k)).collect();
                    *next += u64::from(*n);
                    msgs.push(
                        ClientMessage::AppendBatch {
                            name: names[t].into(),
                            docs,
                        }
                        .to_wire(),
                    );
                }
            }
            MutOp::Delete(t, ids) => {
                let t = (*t % 2) as usize;
                if state[t].is_some() {
                    msgs.push(
                        ClientMessage::DeleteDocs {
                            name: names[t].into(),
                            doc_ids: ids.iter().map(|&i| u64::from(i)).collect(),
                        }
                        .to_wire(),
                    );
                }
            }
            MutOp::Drop(t) => {
                let t = (*t % 2) as usize;
                if state[t].take().is_some() {
                    msgs.push(
                        ClientMessage::DropTable {
                            name: names[t].into(),
                        }
                        .to_wire(),
                    );
                }
            }
        }
    }
    msgs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn crash_at_any_byte_offset_recovers_the_fsyncd_prefix(
        ops in proptest::collection::vec(arb_mut_op(), 1..25),
        cut_frac in 0u64..=1000,
    ) {
        let messages = lower_mutations(&ops);
        prop_assume!(!messages.is_empty());
        // A serial caller leads every group-commit window itself, so
        // each handled message is fully appended *and* synced by
        // return and the per-message boundaries below stay exact.
        let options = DurableOptions::default();

        // Drive a durable session, recording the active segment's
        // length after each (fsync'd) message — the record boundaries.
        let tmp = TempDir::new("crash").unwrap();
        let server =
            Server::open(&ServerConfig { durable: options.clone(), ..ServerConfig::default() }, Some(tmp.path())).unwrap();
        let mut boundaries = Vec::with_capacity(messages.len());
        let active = {
            for m in &messages {
                let resp = server.handle(m);
                prop_assert!(
                    !matches!(ServerResponse::from_wire(&resp).unwrap(), ServerResponse::Error(_)),
                    "lowering produced an invalid mutation"
                );
                boundaries.push(
                    std::fs::metadata(server.durable_log().unwrap().active_segment_path())
                        .unwrap()
                        .len(),
                );
            }
            server.durable_log().unwrap().active_segment_path()
        };
        drop(server);

        // The kill: truncate the log at an arbitrary byte offset —
        // record boundaries, headers, payloads, checksums alike.
        let total = *boundaries.last().unwrap();
        let cut = total * cut_frac / 1000;
        let file = std::fs::File::options().write(true).open(&active).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        // Reference: replay only the fully-persisted message prefix.
        let survivors = boundaries.iter().filter(|&&b| b <= cut).count();
        let reference = Server::open(&ServerConfig::default(), None).unwrap();
        for m in &messages[..survivors] {
            let _ = reference.handle(m);
        }

        // Recovery must neither panic nor partially apply the torn
        // record: every probe answers byte-identically.
        let recovered = Server::open(&ServerConfig { durable: options, ..ServerConfig::default() }, Some(tmp.path())).unwrap();
        for probe in probe_messages_for(&["a", "b"]) {
            prop_assert_eq!(
                recovered.handle(&probe),
                reference.handle(&probe),
                "diverged after cut {} of {} ({} of {} records survive), ops {:?}",
                cut, total, survivors, messages.len(), &ops
            );
        }
    }
}

/// The on-disk image of a data directory, minus the advisory `LOCK`
/// (which carries no data and is re-created on open).
fn dir_image(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    let mut image = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == "LOCK" {
            continue;
        }
        image.insert(name, std::fs::read(entry.path()).unwrap());
    }
    image
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Kill the server *during compaction* — either mid-way through
    /// writing the new snapshot/active segments (manifest still names
    /// the old ones) or after the manifest swap but before the old
    /// segments are pruned — and recover. The manifest is the sole
    /// source of truth: recovery must restore exactly the acked
    /// prefix (which compaction never changes), sweep the orphaned
    /// segment files, and leave a fully serviceable directory. The
    /// inverted index is enabled, so the compacted image also carries
    /// the index record kind.
    #[test]
    fn crash_during_compaction_recovers_the_acked_prefix(
        ops in proptest::collection::vec(arb_mut_op(), 4..25),
        cut_frac in 0u64..=1000,
        after_manifest_swap in any::<bool>(),
    ) {
        let messages = lower_mutations(&ops);
        prop_assume!(!messages.is_empty());
        let options = DurableOptions::default();

        // Drive the acked workload, then capture the directory on both
        // sides of a real compaction; the two images bracket every
        // state a mid-compaction kill can leave behind.
        let tmp = TempDir::new("compact-crash").unwrap();
        let server =
            Server::open(&ServerConfig { durable: options.clone(), index: true, ..ServerConfig::default() }, Some(tmp.path())).unwrap();
        for m in &messages {
            let resp = server.handle(m);
            prop_assert!(
                !matches!(ServerResponse::from_wire(&resp).unwrap(), ServerResponse::Error(_)),
                "lowering produced an invalid mutation"
            );
        }
        let pre = dir_image(tmp.path());
        server.compact().unwrap();
        let post = dir_image(tmp.path());
        drop(server);

        // Synthesize the kill state in a scratch directory.
        let scratch = TempDir::new("compact-crash-kill").unwrap();
        let mut debris = Vec::new();
        if after_manifest_swap {
            // Killed between the manifest rename and the prune: the new
            // world is fully installed, the old segments linger.
            for (name, bytes) in &post {
                std::fs::write(scratch.path().join(name), bytes).unwrap();
            }
            for (name, bytes) in &pre {
                if !post.contains_key(name) {
                    std::fs::write(scratch.path().join(name), bytes).unwrap();
                    debris.push(name.clone());
                }
            }
        } else {
            // Killed while writing the new segments: the manifest still
            // names the old world; the new snapshot/active segments are
            // partial files, and the manifest replacement may have made
            // it only as far as its tmp file.
            for (name, bytes) in &pre {
                std::fs::write(scratch.path().join(name), bytes).unwrap();
            }
            for (name, bytes) in &post {
                if !pre.contains_key(name) {
                    let cut = bytes.len() as u64 * cut_frac / 1000;
                    std::fs::write(scratch.path().join(name), &bytes[..cut as usize]).unwrap();
                    debris.push(name.clone());
                }
            }
            let manifest_cut = post["MANIFEST"].len() as u64 * cut_frac / 1000;
            std::fs::write(
                scratch.path().join("MANIFEST.tmp"),
                &post["MANIFEST"][..manifest_cut as usize],
            )
            .unwrap();
        }

        // Compaction is an identity on the logical store: the acked
        // prefix is every message.
        let reference = Server::open(&ServerConfig { index: true, ..ServerConfig::default() }, None).unwrap();
        for m in &messages {
            let _ = reference.handle(m);
        }

        let recovered =
            Server::open(&ServerConfig { durable: options.clone(), ..ServerConfig::default() }, Some(scratch.path())).unwrap();
        for probe in probe_messages_for(&["a", "b"]) {
            prop_assert_eq!(
                recovered.handle(&probe),
                reference.handle(&probe),
                "diverged (after_manifest_swap {}, cut {}), ops {:?}",
                after_manifest_swap, cut_frac, &ops
            );
        }
        // The orphaned segment files are gone — recovery swept them.
        for name in &debris {
            if name.starts_with("seg-") {
                prop_assert!(
                    !scratch.path().join(name).exists(),
                    "compaction debris {} survived recovery", name
                );
            }
        }

        // The recovered directory is fully serviceable: it takes new
        // mutations and they survive another restart.
        let resp = recovered.handle(
            &ClientMessage::CreateTable {
                name: "c".into(),
                table: table(2).into(),
            }
            .to_wire(),
        );
        prop_assert!(
            !matches!(ServerResponse::from_wire(&resp).unwrap(), ServerResponse::Error(_))
        );
        let expect = recovered.handle(&ClientMessage::FetchAll { name: "c".into() }.to_wire());
        drop(recovered);
        let reopened = Server::open(&ServerConfig { durable: options, ..ServerConfig::default() }, Some(scratch.path())).unwrap();
        prop_assert_eq!(
            reopened.handle(&ClientMessage::FetchAll { name: "c".into() }.to_wire()),
            expect,
            "post-recovery mutation lost on restart"
        );
    }
}

/// FetchAll + empty-conjunction query + a chunk page, per table name.
fn probe_messages_for(names: &[&str]) -> Vec<Vec<u8>> {
    let mut probes = Vec::new();
    for name in names {
        probes.push(
            ClientMessage::FetchAll {
                name: (*name).into(),
            }
            .to_wire(),
        );
        probes.push(
            ClientMessage::Query {
                name: (*name).into(),
                terms: vec![],
            }
            .to_wire(),
        );
        probes.push(
            ClientMessage::FetchChunk {
                name: (*name).into(),
                token: 0,
                max_bytes: 128,
            }
            .to_wire(),
        );
    }
    probes
}

#[test]
fn compacted_store_survives_restart_identically() {
    // Mutate, compact (snapshot segment), mutate more (tail log),
    // kill, recover: snapshot + tail must reproduce the exact store.
    let tmp = TempDir::new("compact-restart").unwrap();
    let reference = Server::open(&ServerConfig::default(), None).unwrap();
    let durable = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();

    let phase1 = [
        ClientMessage::CreateTable {
            name: "t1".into(),
            table: table(20).into(),
        }
        .to_wire(),
        ClientMessage::DeleteDocs {
            name: "t1".into(),
            doc_ids: (0..7).collect(),
        }
        .to_wire(),
    ];
    for m in &phase1 {
        let _ = reference.handle(m);
        let _ = durable.handle(m);
    }
    durable.compact().unwrap();
    let phase2 = [
        ClientMessage::AppendBatch {
            name: "t1".into(),
            docs: vec![doc(20), doc(21)],
        }
        .to_wire(),
        ClientMessage::CreateTable {
            name: "t2".into(),
            table: table(3).into(),
        }
        .to_wire(),
    ];
    for m in &phase2 {
        let _ = reference.handle(m);
        let _ = durable.handle(m);
    }
    drop(durable);

    let recovered = Server::open(&ServerConfig::default(), Some(tmp.path())).unwrap();
    for probe in probe_messages_for(&["t1", "t2"]) {
        assert_eq!(recovered.handle(&probe), reference.handle(&probe));
    }
}

/// A cipher word that matches the trapdoor `(target, key)` under
/// [`params`]: `target ⊕ (S ‖ F_key(S))` for a fixed stream part `S`.
fn matching_word(target: &[u8], key: &[u8], salt: u8) -> CipherWord {
    use dbph::crypto::{HmacPrf, Prf};
    let params = params();
    let split = params.stream_len();
    let s: Vec<u8> = (0..split as u8)
        .map(|i| salt ^ i.wrapping_mul(37))
        .collect();
    let f = HmacPrf::new(key).eval(&s, params.check_len);
    let mut c = Vec::with_capacity(params.word_len);
    c.extend(target[..split].iter().zip(&s).map(|(a, b)| a ^ b));
    c.extend(target[split..].iter().zip(&f).map(|(a, b)| a ^ b));
    CipherWord(c)
}

/// The on-disk format, pinned in absolute terms: a fixed, RNG-free
/// session — plain and enveloped appends, a delete, index probes with
/// the index enabled, a compaction, then more appends — must leave
/// exactly these bytes in every segment file and in `MANIFEST`. The
/// other suites diff two runs of one build against each other; this
/// one fails when a change to the record codec, the snapshot writer
/// or the compaction order moves a single byte.
#[test]
fn segment_and_manifest_bytes_are_pinned() {
    use dbph::crypto::sha256::Sha256;

    // Addressed to word 1: `hit_doc` appends the matching word at
    // position 1 or 2 (after `doc`'s one or two words), so only the
    // position-1 copies match, and documents whose word 1 is an
    // irregular 5-byte word, or which have no word 1, are rejected.
    let hit = WireTrapdoor {
        attr: 1,
        target: (0..13).map(|i| 0xA0 ^ i).collect(),
        check_key: vec![0x5C; 32],
    };
    let hit_doc = |id: u64| -> (u64, Vec<CipherWord>) {
        let mut words = doc(id).1;
        words.push(matching_word(&hit.target, &hit.check_key, id as u8));
        (id, words)
    };
    let append = |id: u64| ClientMessage::Append {
        name: "emp".into(),
        doc_id: id,
        words: hit_doc(id).1,
    };
    let tagged = |seq: u64, inner: ClientMessage| ClientMessage::Tagged {
        client_id: 77,
        seq,
        inner: Box::new(inner),
    };
    let query = |terms: Vec<WireTrapdoor>| ClientMessage::Query {
        name: "emp".into(),
        terms,
    };

    let tmp = TempDir::new("format-pin").unwrap();
    let server = Server::open(
        &ServerConfig {
            workers: Some(1),
            index: true,
            ..ServerConfig::default()
        },
        Some(tmp.path()),
    )
    .unwrap();
    let mut emp = table(6);
    for (id, words) in &mut emp.docs {
        if id.is_multiple_of(2) {
            words.push(matching_word(&hit.target, &hit.check_key, *id as u8));
        }
    }
    let phase1 = vec![
        ClientMessage::CreateTable {
            name: "emp".into(),
            table: emp.into(),
        },
        ClientMessage::CreateTable {
            name: "aux".into(),
            table: table(2).into(),
        },
        append(6),
        tagged(1, append(7)),
        tagged(
            2,
            ClientMessage::AppendBatch {
                name: "emp".into(),
                docs: vec![doc(8), hit_doc(9)],
            },
        ),
        ClientMessage::DeleteDocs {
            name: "emp".into(),
            doc_ids: vec![2, 7],
        },
        query(vec![hit.clone()]),
        query(vec![dead_trapdoor()]),
        ClientMessage::AppendBatch {
            name: "emp".into(),
            docs: vec![hit_doc(10)],
        },
        query(vec![hit.clone(), dead_trapdoor()]),
    ];
    for m in phase1 {
        let resp = ServerResponse::from_wire(&server.handle(&m.to_wire())).unwrap();
        assert!(!matches!(resp, ServerResponse::Error(_)), "{resp:?}");
    }
    // The probes cache real postings, not just empty ones.
    let hits = ServerResponse::from_wire(&server.handle(&query(vec![hit.clone()]).to_wire()));
    match hits {
        Ok(ServerResponse::Table(t)) => assert_eq!(t.doc_ids(), vec![4, 10]),
        other => panic!("{other:?}"),
    }
    server.compact().unwrap();
    let phase2 = vec![
        append(11),
        tagged(3, append(12)),
        ClientMessage::DeleteDocs {
            name: "aux".into(),
            doc_ids: vec![0],
        },
        query(vec![hit.clone()]),
    ];
    for m in phase2 {
        let resp = ServerResponse::from_wire(&server.handle(&m.to_wire())).unwrap();
        assert!(!matches!(resp, ServerResponse::Error(_)), "{resp:?}");
    }
    drop(server);

    let digests: Vec<(String, String)> = dir_image(tmp.path())
        .into_iter()
        .map(|(name, bytes)| {
            let hex = Sha256::digest(&bytes)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            (name, hex)
        })
        .collect();
    // A mismatch here is an on-disk format change: existing data
    // directories would no longer recover byte for byte.
    let expected: &[(&str, &str)] = &[
        (
            "MANIFEST",
            "b2be241dc9013eb9ca9b4d0ee643c8415dff1f6974768c71eb10732176a546a7",
        ),
        (
            // The compaction snapshot: its `TAG_INDEX` image keys each
            // posting on `(attr, label)`.
            "seg-00000001.log",
            "b5dbde5787a8ffd900e3b7fe551a73ff123bf13d438be19f78b1d84f898791cf",
        ),
        (
            "seg-00000002.log",
            "edb2612e5c8bafb84abdc70cc38d7f772a01aac71fa429720db0a00df7e1b7f3",
        ),
    ];
    let expected: Vec<(String, String)> = expected
        .iter()
        .map(|&(name, hex)| (name.to_string(), hex.to_string()))
        .collect();
    assert_eq!(digests, expected, "on-disk format changed");
}

/// A tagged mutation that itself trips compaction stays exactly-once
/// across a restart: the compaction cut holds its effect, so the dedup
/// image written with it holds its id, and a retry after the restart
/// replays the original `Ok` instead of re-applying.
#[test]
fn a_tagged_mutation_that_triggers_compaction_replays_after_restart() {
    let tmp = TempDir::new("dedup-compact-trigger").unwrap();
    let options = DurableOptions {
        compact_threshold: 1,
        ..DurableOptions::default()
    };
    let open = || {
        Server::open(
            &ServerConfig {
                workers: Some(1),
                durable: options.clone(),
                ..ServerConfig::default()
            },
            Some(tmp.path()),
        )
        .unwrap()
    };
    let fetch = ClientMessage::FetchAll { name: "t".into() }.to_wire();
    let retry = ClientMessage::Append {
        name: "t".into(),
        doc_id: 10,
        words: vec![word(10)],
    }
    .tagged(7, 1)
    .to_wire();

    let server = open();
    let created = server.handle(
        &ClientMessage::CreateTable {
            name: "t".into(),
            table: table(10).into(),
        }
        .to_wire(),
    );
    assert_eq!(
        ServerResponse::from_wire(&created).unwrap(),
        ServerResponse::Ok
    );
    let before = server.durable_log().unwrap().segments();
    let first = server.handle(&retry);
    assert_eq!(
        ServerResponse::from_wire(&first).unwrap(),
        ServerResponse::Ok
    );
    assert_ne!(
        server.durable_log().unwrap().segments(),
        before,
        "the tagged append must have triggered a compaction"
    );
    let stored = server.handle(&fetch);
    drop(server);

    let reopened = open();
    assert_eq!(
        reopened.handle(&retry),
        first,
        "a retry after restart must replay the original response"
    );
    assert_eq!(reopened.handle(&fetch), stored, "the retry re-applied");
}
