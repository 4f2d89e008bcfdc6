//! Chunked table streaming: load-bearing, not cosmetic.
//!
//! The transport frames every response, and frames have a hard cap
//! ([`codec::MAX_FRAME`], with capped variants for tests): a table
//! whose `FetchAll` response outgrows the cap **cannot be framed at
//! all** — the single-frame ceiling that has gated `Snapshot`/rekey
//! since the transport landed (PR 3). This suite proves the chunked
//! protocol closes it:
//!
//! * a table too large for one capped frame streams completely through
//!   `FetchChunk`, every chunk response framing comfortably under the
//!   same cap, and reassembles byte-identically to the monolithic
//!   fetch;
//! * the stream is transport-invariant (TCP responses equal in-process
//!   responses, byte for byte, token for token);
//! * randomized tables and budgets always reassemble exactly, with
//!   strictly advancing tokens and bounded per-chunk payloads.

use dbph::core::codec;
use dbph::core::protocol::{ClientMessage, ServerResponse};
use dbph::core::wire::{WireDecode as _, WireEncode as _};
use dbph::core::{EncryptedTable, NetServer, PooledClient, Server, ServerConfig, Transport};
use dbph::swp::{CipherWord, SwpParams};

use proptest::prelude::*;

/// A table whose ciphertext dwarfs the test frame cap: 50 documents
/// of one 2000-byte word each (~100 KiB encoded).
fn big_table() -> EncryptedTable {
    EncryptedTable {
        params: SwpParams::new(2000, 4, 32).unwrap(),
        docs: (0..50u64)
            .map(|i| (i, vec![CipherWord(vec![i as u8; 2000])]))
            .collect(),
        next_doc_id: 50,
    }
}

fn fetch_chunk_msg(name: &str, token: u64, max_bytes: u64) -> Vec<u8> {
    ClientMessage::FetchChunk {
        name: name.into(),
        token,
        max_bytes,
    }
    .to_wire()
}

/// Drives a full chunk stream through `transport`, returning every raw
/// response frame plus the reassembled documents.
fn stream_chunks<T: Transport>(
    transport: &T,
    name: &str,
    max_bytes: u64,
) -> (Vec<Vec<u8>>, EncryptedTable) {
    let mut raw = Vec::new();
    let mut assembled: Option<EncryptedTable> = None;
    let mut token = 0u64;
    loop {
        let bytes = transport
            .call(&fetch_chunk_msg(name, token, max_bytes))
            .unwrap();
        let (chunk, next) = match ServerResponse::from_wire(&bytes).unwrap() {
            ServerResponse::TableChunk { table, next } => (table, next),
            other => panic!("unexpected {other:?}"),
        };
        raw.push(bytes);
        assembled = Some(match assembled {
            None => chunk,
            Some(mut t) => {
                t.docs.extend(chunk.docs);
                t.next_doc_id = chunk.next_doc_id;
                t
            }
        });
        match next {
            Some(n) => {
                assert!(n > token, "token must strictly advance");
                token = n;
            }
            None => return (raw, assembled.expect("at least one chunk")),
        }
    }
}

#[test]
fn chunk_stream_fits_capped_frames_where_fetch_all_cannot() {
    const CAP: usize = 16 << 10; // a deliberately small test-side cap
    const CHUNK: u64 = 4 << 10;

    let server = Server::open(&ServerConfig::default(), None).unwrap();
    let create = ClientMessage::CreateTable {
        name: "big".into(),
        table: big_table().into(),
    }
    .to_wire();
    assert_eq!(
        ServerResponse::from_wire(&server.handle(&create)).unwrap(),
        ServerResponse::Ok
    );

    // The monolithic download: one response, too large to frame. This
    // is the single-frame ceiling — under the capped codec the bytes
    // never reach the wire at all.
    let fetch_all = ClientMessage::FetchAll { name: "big".into() }.to_wire();
    let monolithic = server.handle(&fetch_all);
    let mut sink = Vec::new();
    assert!(
        codec::write_frame_capped(&mut sink, &monolithic, CAP).is_err(),
        "the test table must exceed one capped frame for this proof to bite"
    );
    assert!(sink.is_empty());

    // The chunk stream: every response frames under the same cap…
    let (frames, assembled) = stream_chunks(&server, "big", CHUNK);
    assert!(frames.len() > 1, "must actually take several chunks");
    for (i, frame) in frames.iter().enumerate() {
        let mut sink = Vec::new();
        codec::write_frame_capped(&mut sink, frame, CAP)
            .unwrap_or_else(|e| panic!("chunk {i} of {} exceeded the cap: {e}", frames.len()));
    }
    // …and reassembles the exact table the monolithic fetch carries.
    let whole = match ServerResponse::from_wire(&monolithic).unwrap() {
        ServerResponse::Table(t) => t,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(assembled, whole);
}

#[test]
fn chunk_stream_is_transport_invariant() {
    let create = ClientMessage::CreateTable {
        name: "big".into(),
        table: big_table().into(),
    }
    .to_wire();

    let config = ServerConfig {
        transcript: true,
        ..ServerConfig::default()
    };
    let local = Server::open(&config, None).unwrap();
    let _ = local.handle(&create);

    let remote = Server::open(&config, None).unwrap();
    let handle = NetServer::spawn(remote.clone(), "127.0.0.1:0").unwrap();
    let pool = PooledClient::connect(handle.addr(), 1).unwrap();
    let _ = pool.call(&create).unwrap();

    // Lock-step: each page's raw response bytes must match, so tokens
    // and boundaries agree frame by frame — and so do the transcripts.
    let (local_frames, local_table) = stream_chunks(&local, "big", 4096);
    let (tcp_frames, tcp_table) = stream_chunks(&pool, "big", 4096);
    assert_eq!(tcp_frames, local_frames, "TCP chunk stream diverged");
    assert_eq!(tcp_table, local_table);
    let events = local.observer().events();
    assert!(!events.is_empty(), "the local session recorded no events");
    assert_eq!(remote.observer().events(), events);
    handle.shutdown();
}

#[test]
fn doc_id_tokens_are_cut_consistent_under_churn() {
    // The continuation token anchors to document ids, not positions:
    // deletes interleaved between chunks shift every later document's
    // position, but the stream still delivers each surviving document
    // exactly once — no duplicates (a positional token would re-send
    // shifted docs), no skips.
    let server = Server::open(&ServerConfig::default(), None).unwrap();
    let create = ClientMessage::CreateTable {
        name: "churn".into(),
        table: big_table().into(),
    }
    .to_wire();
    assert_eq!(
        ServerResponse::from_wire(&server.handle(&create)).unwrap(),
        ServerResponse::Ok
    );

    let mut delivered: Vec<u64> = Vec::new();
    let mut token = 0u64;
    let mut page = 0u64;
    loop {
        let bytes = server
            .handle(&fetch_chunk_msg("churn", token, 4 << 10))
            .clone();
        let (chunk, next) = match ServerResponse::from_wire(&bytes).unwrap() {
            ServerResponse::TableChunk { table, next } => (table, next),
            other => panic!("unexpected {other:?}"),
        };
        delivered.extend(chunk.docs.iter().map(|(id, _)| *id));
        // Churn between pages: delete one already-delivered document
        // (shifts all later positions left) and one far-future one.
        let victims = vec![page, 40 + page];
        let del = ClientMessage::DeleteDocs {
            name: "churn".into(),
            doc_ids: victims,
        }
        .to_wire();
        assert_eq!(
            ServerResponse::from_wire(&server.handle(&del)).unwrap(),
            ServerResponse::Ok
        );
        page += 1;
        match next {
            Some(n) => {
                assert!(n > token, "token must strictly advance");
                token = n;
            }
            None => break,
        }
    }
    // Exactly-once delivery: every id at most once…
    let mut dedup = delivered.clone();
    dedup.dedup();
    assert_eq!(delivered, dedup, "churn must never re-send a document");
    assert!(delivered.windows(2).all(|w| w[0] < w[1]));
    // …and the only ids missing are ones deleted before their page
    // could deliver them (they live in 40..50, past the early pages).
    for id in 0..50u64 {
        if !delivered.contains(&id) {
            assert!(
                (40..50).contains(&id),
                "doc {id} skipped though it was never deleted pre-delivery"
            );
        }
    }
    assert!(
        delivered.len() < 50 && delivered.len() >= 40,
        "some far-future victims must actually have been cut"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn random_tables_and_budgets_reassemble_exactly(
        doc_words in proptest::collection::vec(
            // (word count, make one word irregular?) per document
            ((0usize..4), any::<bool>()),
            0..25
        ),
        max_bytes in 1u64..4000,
    ) {
        let params = SwpParams::new(13, 4, 32).unwrap();
        let docs: Vec<(u64, Vec<CipherWord>)> = doc_words
            .iter()
            .enumerate()
            .map(|(i, (words, irregular))| {
                let mut ws: Vec<CipherWord> =
                    (0..*words).map(|w| CipherWord(vec![(i ^ w) as u8; 13])).collect();
                if *irregular {
                    ws.push(CipherWord(vec![0xAA; 3]));
                }
                (i as u64, ws)
            })
            .collect();
        let n = docs.len() as u64;
        let table = EncryptedTable { params, docs, next_doc_id: n };

        let server = Server::open(&ServerConfig::default(), None).unwrap();
        let create = ClientMessage::CreateTable { name: "t".into(), table: table.clone().into() }.to_wire();
        prop_assert_eq!(
            ServerResponse::from_wire(&server.handle(&create)).unwrap(),
            ServerResponse::Ok
        );

        let (frames, assembled) = stream_chunks(&server, "t", max_bytes);
        // Exact reassembly, including irregular words and next_doc_id.
        prop_assert_eq!(&assembled, &table);
        // Termination bound: never more than one chunk per document
        // (plus one for the empty table).
        prop_assert!(frames.len() as u64 <= n.max(1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn chunk_cost_model_matches_the_encoder_exactly(
        // Word lengths per document — deliberately irregular: empty
        // words, short words, and words far off the params width.
        word_lens in proptest::collection::vec(
            proptest::collection::vec(0usize..600, 0..5),
            1..20
        ),
        max_bytes in 1u64..3000,
    ) {
        let params = SwpParams::new(13, 4, 32).unwrap();
        let docs: Vec<(u64, Vec<CipherWord>)> = word_lens
            .iter()
            .enumerate()
            .map(|(i, lens)| {
                (
                    i as u64,
                    lens.iter().map(|&l| CipherWord(vec![i as u8; l])).collect(),
                )
            })
            .collect();
        let n = docs.len() as u64;

        // The budgeting cost model must equal the real encoder's
        // per-document footprint for every word shape: predicted cost
        // == (single-doc table encoding) − (empty table encoding).
        let empty_len = EncryptedTable {
            params,
            docs: vec![],
            next_doc_id: n,
        }
        .to_wire()
        .len() as u64;
        for (id, words) in &docs {
            let predicted =
                dbph::core::wire::encoded_doc_len(words.iter().map(|w| w.0.len()));
            let actual = EncryptedTable {
                params,
                docs: vec![(*id, words.clone())],
                next_doc_id: n,
            }
            .to_wire()
            .len() as u64
                - empty_len;
            prop_assert_eq!(predicted, actual, "cost model diverged for doc {}", id);
        }

        // And the server's chunking must honor that model: each chunk
        // stays within the budget unless a single oversized document
        // forces progress.
        let table = EncryptedTable { params, docs, next_doc_id: n };
        let server = Server::open(&ServerConfig::default(), None).unwrap();
        let create =
            ClientMessage::CreateTable { name: "c".into(), table: table.clone().into() }.to_wire();
        prop_assert_eq!(
            ServerResponse::from_wire(&server.handle(&create)).unwrap(),
            ServerResponse::Ok
        );
        let (frames, assembled) = stream_chunks(&server, "c", max_bytes);
        prop_assert_eq!(&assembled, &table);
        for frame in &frames {
            let chunk = match ServerResponse::from_wire(frame).unwrap() {
                ServerResponse::TableChunk { table, .. } => table,
                other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
            };
            let cost: u64 = chunk
                .docs
                .iter()
                .map(|(_, words)| {
                    dbph::core::wire::encoded_doc_len(words.iter().map(|w| w.0.len()))
                })
                .sum();
            prop_assert!(
                cost <= max_bytes || chunk.docs.len() == 1,
                "chunk broke its byte budget: {} > {} over {} docs",
                cost,
                max_bytes,
                chunk.docs.len()
            );
        }
    }
}
