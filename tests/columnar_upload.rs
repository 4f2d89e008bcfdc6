//! Uploads travel columnar: `CreateTable` carries a `ColumnarTable`
//! (one `WordArena` in the shape Eve's shards use) from Alex's
//! encryption lanes through the frame into Eve's store, and crash
//! recovery and follower bootstrap replay the same decode.
//!
//! Random tables — 0–12 documents, regular words mixed with empty,
//! short and long irregular ones, ids with gaps up to `u64::MAX − 1`,
//! `next_doc_id` at the last id + 1 and beyond — pin four properties:
//!
//! * (a) the `CreateTable` frame built from the image equals, byte for
//!   byte, the frame the boxed `EncryptedTable` encoder writes;
//! * (b) create → `FetchAll` returns the original table, records the
//!   same `Upload` event, and still returns it after a durable
//!   restart, after a compaction into small snapshot chunks, and on a
//!   freshly bootstrapped follower;
//! * (c) the frame cut at every byte offset is refused without a
//!   panic, and nothing is logged or stored;
//! * (d) uploads whose ids break the order are refused with the
//!   store's error text, and nothing is logged or stored.

use dbph::core::protocol::{ClientMessage, ServerResponse};
use dbph::core::server::ServerEvent;
use dbph::core::swp_ph::PARALLEL_ENCRYPT_ROWS;
use dbph::core::wire::{WireDecode as _, WireEncode as _};
use dbph::core::{
    ColumnarTable, DatabasePh, DurableOptions, EncryptedTable, FinalSwpPh, IncrementalPh, Replica,
    ReplicaOptions, Server, ServerConfig, TempDir,
};
use dbph::crypto::SecretKey;
use dbph::swp::{CipherWord, SwpParams};
use dbph::workload::EmployeeGen;

use proptest::prelude::*;

const WORD_LEN: usize = 13;

/// The first byte of a `CreateTable` frame.
const CREATE_TAG: u8 = 1;

/// A word of shape `kind` (regular, empty, short or long) whose bytes
/// depend on its position.
fn word(kind: u8, len: u8, doc: usize, w: usize) -> CipherWord {
    let len = match kind % 4 {
        0 => WORD_LEN,
        1 => 0,
        2 => 1 + usize::from(len) % (WORD_LEN - 1),
        _ => WORD_LEN + 1 + usize::from(len) % 40,
    };
    CipherWord((0..len).map(|b| (doc * 31 + w * 7 + b) as u8).collect())
}

/// A table with ids rising by `1 + gap`, shifted so the last id is
/// `u64::MAX − 1` when `top`, and `next_doc_id` `slack` past the last
/// id (as far as `u64` allows).
fn table(docs: &[(u64, Vec<(u8, u8)>)], top: bool, slack: u64) -> EncryptedTable {
    let mut ids = Vec::with_capacity(docs.len());
    let mut next = 0u64;
    for (gap, _) in docs {
        // Mostly small gaps, now and then a wide one.
        let gap = if gap % 5 == 0 {
            gap % (1 << 40)
        } else {
            gap % 4
        };
        ids.push(next + gap);
        next += gap + 1;
    }
    if let (true, Some(&last)) = (top, ids.last()) {
        let shift = u64::MAX - 1 - last;
        ids.iter_mut().for_each(|id| *id += shift);
    }
    let next_doc_id = ids
        .last()
        .map_or(slack, |&last| (last + 1).saturating_add(slack));
    EncryptedTable {
        params: SwpParams::new(WORD_LEN, 4, 32).unwrap(),
        docs: docs
            .iter()
            .zip(ids)
            .enumerate()
            .map(|(d, ((_, shapes), id))| {
                let words = shapes.iter().enumerate();
                (id, words.map(|(w, &(k, l))| word(k, l, d, w)).collect())
            })
            .collect(),
        next_doc_id,
    }
}

/// Breaks the id order of `table` in the way `variant` names, if the
/// table has the documents for it; variants 0–2 leave it valid.
fn perturb(table: &mut EncryptedTable, variant: u8) {
    let n = table.docs.len();
    match variant {
        3 if n >= 2 => {
            let (a, b) = (table.docs[0].0, table.docs[1].0);
            table.docs[0].0 = b;
            table.docs[1].0 = a;
        }
        4 if n >= 1 => table.next_doc_id = table.docs[n - 1].0,
        5 if n >= 1 => {
            table.docs[n - 1].0 = u64::MAX;
            table.next_doc_id = u64::MAX;
        }
        _ => {}
    }
}

/// The store's rule, restated: ids rise strictly, each has a
/// successor, and `next_doc_id` is at least the last successor. The
/// refusal text is the one the store has always sent.
fn expected_refusal(table: &EncryptedTable) -> Option<String> {
    let mut least = 0u64;
    for &(id, _) in &table.docs {
        if id < least || id == u64::MAX {
            return Some(format!("protocol error: stale doc id {id}"));
        }
        least = id + 1;
    }
    (least > table.next_doc_id).then(|| {
        format!(
            "protocol error: next doc id {} does not exceed the last doc id",
            table.next_doc_id
        )
    })
}

fn create_frame(name: &str, table: &EncryptedTable) -> Vec<u8> {
    ClientMessage::CreateTable {
        name: name.into(),
        table: ColumnarTable::from(table.clone()),
    }
    .to_wire()
}

fn respond(server: &Server, frame: &[u8]) -> ServerResponse {
    ServerResponse::from_wire(&server.handle(frame)).unwrap()
}

fn fetch(server: &Server, name: &str) -> ServerResponse {
    respond(
        server,
        &ClientMessage::FetchAll { name: name.into() }.to_wire(),
    )
}

fn logged_bytes(server: &Server) -> u64 {
    server.durable_log().unwrap().active_segment_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn columnar_uploads_match_the_boxed_table_everywhere(
        docs in proptest::collection::vec(
            (
                any::<u64>(),
                proptest::collection::vec((0u8..4, any::<u8>()), 0..5),
            ),
            0..12,
        ),
        top in any::<bool>(),
        slack in 0u64..3,
        variant in 0u8..6,
    ) {
        let mut upload = table(&docs, top, slack);
        perturb(&mut upload, variant);
        let frame = create_frame("t", &upload);

        // (a) The image's frame is the boxed encoder's, and decodes
        // back to the image.
        let mut boxed = vec![CREATE_TAG];
        "t".to_string().encode(&mut boxed);
        upload.encode(&mut boxed);
        prop_assert_eq!(&frame, &boxed);
        prop_assert_eq!(
            ClientMessage::from_wire(&frame).unwrap(),
            ClientMessage::CreateTable { name: "t".into(), table: upload.clone().into() }
        );

        let dir = TempDir::new("columnar-upload").unwrap();
        let recording = ServerConfig { transcript: true, ..ServerConfig::default() };
        let server = Server::open(&recording, Some(dir.path())).unwrap();

        // (c) Every cut of the frame is refused, and none is logged.
        for cut in 0..frame.len() {
            let refused = respond(&server, &frame[..cut]);
            prop_assert!(matches!(refused, ServerResponse::Error(_)), "cut at {}", cut);
        }
        prop_assert_eq!(logged_bytes(&server), 0);
        prop_assert!(server.table_names().is_empty());

        // (d) An upload out of id order is refused with the store's
        // text, and nothing is logged.
        if let Some(text) = expected_refusal(&upload) {
            prop_assert_eq!(respond(&server, &frame), ServerResponse::Error(text));
            prop_assert_eq!(logged_bytes(&server), 0);
            prop_assert!(server.table_names().is_empty());
            return Ok(());
        }

        // (b) Stored whole, with the same `Upload` event.
        prop_assert_eq!(respond(&server, &frame), ServerResponse::Ok);
        let original = ServerResponse::Table(upload.clone());
        prop_assert_eq!(&fetch(&server, "t"), &original);
        let upload_event = ServerEvent::Upload {
            name: "t".into(),
            tuples: upload.len(),
            bytes: upload.ciphertext_bytes(),
        };
        let events = server.observer().events();
        prop_assert_eq!(events.first(), Some(&upload_event));
        let logged = logged_bytes(&server);
        prop_assert_eq!(
            respond(&server, &frame),
            ServerResponse::Error("protocol error: table exists: t".into())
        );
        prop_assert_eq!(logged_bytes(&server), logged);

        let follower_dir = TempDir::new("columnar-upload-follower").unwrap();
        let options = ReplicaOptions {
            server: ServerConfig::default(),
            ..ReplicaOptions::default()
        };
        let replica = Replica::bootstrap(server.clone(), follower_dir.path(), options).unwrap();
        prop_assert_eq!(&fetch(&replica.server(), "t"), &original);
        drop(replica);

        drop(server);
        let reopened = Server::open(&ServerConfig::default(), Some(dir.path())).unwrap();
        prop_assert_eq!(&fetch(&reopened, "t"), &original);
        reopened.compact().unwrap();
        drop(reopened);
        let chunked = DurableOptions { snapshot_chunk_bytes: 64, ..DurableOptions::default() };
        let compacted = Server::open(&ServerConfig { durable: chunked, ..ServerConfig::default() }, Some(dir.path())).unwrap();
        prop_assert_eq!(&fetch(&compacted, "t"), &original);
    }
}

/// Alex's lanes write the image the one-row-at-a-time path's boxed
/// table converts to, on both sides of the fan-out threshold, and its
/// frame is that table's.
#[test]
fn encryption_lanes_write_the_serial_paths_image() {
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([5u8; 32])).unwrap();
    for rows in [0, 1, 17, PARALLEL_ENCRYPT_ROWS + 5, 600] {
        let relation = EmployeeGen {
            rows,
            ..EmployeeGen::default()
        }
        .generate(rows as u64);
        let mut serial = EncryptedTable {
            params: *ph.params(),
            docs: Vec::new(),
            next_doc_id: 0,
        };
        for tuple in relation.tuples() {
            ph.append_tuple(&mut serial, tuple).unwrap();
        }
        let image = ph.encrypt_columnar(&relation).unwrap();
        assert_eq!(image.to_wire(), serial.to_wire(), "{rows} rows");
        assert_eq!(image, ColumnarTable::from(serial.clone()), "{rows} rows");
        assert_eq!(ph.encrypt_table(&relation).unwrap(), serial, "{rows} rows");
    }
}
