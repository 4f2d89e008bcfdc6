//! Property-based tests (proptest) over the core invariants.

use proptest::prelude::*;

use dbph::baselines::VarlenPh;
use dbph::core::wire::{WireDecode, WireEncode};
use dbph::core::{DatabasePh, FinalSwpPh, WordCodec};
use dbph::crypto::cipher::{
    DeterministicCipher, RandomizedCipher, SealedCipher, StreamCipher, WideBlockPrp,
};
use dbph::crypto::{DeterministicRng, SecretKey};
use dbph::relation::{AttrType, Attribute, Query, Relation, Schema, Tuple, Value};
use dbph::swp::{matches, FinalScheme, Location, SearchableScheme, SwpParams, Word};

fn key_from(bytes: [u8; 32]) -> SecretKey {
    SecretKey::from_bytes(bytes)
}

// --- crypto layer ----------------------------------------------------------

proptest! {
    #[test]
    fn stream_cipher_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..512),
                                key in any::<[u8; 32]>(), seed in any::<u64>()) {
        let cipher = StreamCipher::new(&key_from(key), b"prop");
        let mut rng = DeterministicRng::from_seed(seed);
        let ct = cipher.encrypt(&mut rng, &data);
        prop_assert_eq!(cipher.decrypt(&ct).unwrap(), data);
    }

    #[test]
    fn sealed_cipher_roundtrips_and_rejects_flips(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        key in any::<[u8; 32]>(), seed in any::<u64>(), flip in any::<(usize, u8)>()) {
        let cipher = SealedCipher::new(&key_from(key), b"prop");
        let mut rng = DeterministicRng::from_seed(seed);
        let ct = cipher.encrypt(&mut rng, &data);
        prop_assert_eq!(cipher.decrypt(&ct).unwrap(), data.clone());

        let (pos, bit) = flip;
        let mut bad = ct.clone();
        let i = pos % bad.len();
        let mask = 1u8 << (bit % 8);
        bad[i] ^= mask;
        prop_assert!(cipher.decrypt(&bad).is_err(), "flip at {} mask {:02x}", i, mask);
    }

    #[test]
    fn wide_prp_is_a_permutation(data in proptest::collection::vec(any::<u8>(), 2..128),
                                 key in any::<[u8; 32]>()) {
        let prp = WideBlockPrp::new(&key_from(key), b"prop");
        let ct = prp.encrypt_det(&data);
        prop_assert_eq!(ct.len(), data.len());
        prop_assert_eq!(prp.decrypt_det(&ct).unwrap(), data);
    }

    #[test]
    fn kdf_labels_never_collide(label_a in "[a-z]{1,16}", label_b in "[a-z]{1,16}",
                                master in any::<[u8; 32]>()) {
        prop_assume!(label_a != label_b);
        let k = key_from(master);
        let ka = k.derive(label_a.as_bytes());
        let kb = k.derive(label_b.as_bytes());
        prop_assert_ne!(ka.as_bytes(), kb.as_bytes());
    }
}

// --- SWP layer -------------------------------------------------------------

proptest! {
    #[test]
    fn swp_never_has_false_negatives(word_bytes in proptest::collection::vec(any::<u8>(), 13),
                                     doc in any::<u64>(), idx in any::<u32>(),
                                     key in any::<[u8; 32]>()) {
        let params = SwpParams::new(13, 4, 32).unwrap();
        let scheme = FinalScheme::new(params, &key_from(key));
        let w = Word::from_bytes_unchecked(word_bytes);
        let c = scheme.encrypt_word(Location::new(doc, idx), &w).unwrap();
        let td = scheme.trapdoor(&w).unwrap();
        prop_assert!(matches(&params, &td, &c), "a stored word must always match its trapdoor");
    }

    #[test]
    fn swp_decrypts_what_it_encrypts(word_bytes in proptest::collection::vec(any::<u8>(), 13),
                                     doc in any::<u64>(), idx in any::<u32>(),
                                     key in any::<[u8; 32]>()) {
        let params = SwpParams::new(13, 4, 32).unwrap();
        let scheme = FinalScheme::new(params, &key_from(key));
        let w = Word::from_bytes_unchecked(word_bytes);
        let loc = Location::new(doc, idx);
        let c = scheme.encrypt_word(loc, &w).unwrap();
        prop_assert_eq!(scheme.decrypt_word(loc, &c).unwrap(), w);
    }
}

// --- relation + encoding layer ---------------------------------------------

/// Strategy: a value fitting `STRING(24)`.
fn arb_str_value() -> impl Strategy<Value = Value> {
    "[a-zA-Z0-9#_ ]{0,24}".prop_map(Value::Str)
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_str_value(),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn test_schema() -> Schema {
    Schema::new(
        "Prop",
        vec![
            Attribute::new("s", AttrType::Str { max_len: 24 }),
            Attribute::new("i", AttrType::Int),
            Attribute::new("b", AttrType::Bool),
        ],
    )
    .unwrap()
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (arb_str_value(), any::<i64>(), any::<bool>())
        .prop_map(|(s, i, b)| Tuple::new(vec![s, Value::Int(i), Value::Bool(b)]))
}

proptest! {
    #[test]
    fn value_encoding_roundtrips(v in arb_value()) {
        let ty = v.natural_type();
        let enc = v.encode();
        prop_assert_eq!(Value::decode(&ty, &enc).unwrap(), v);
    }

    #[test]
    fn word_codec_roundtrips_tuples(t in arb_tuple()) {
        let codec = WordCodec::new(test_schema());
        let words = codec.encode_tuple(&t).unwrap();
        prop_assert_eq!(codec.decode_tuple(&words).unwrap(), t);
    }

    #[test]
    fn word_codec_is_injective(a in arb_tuple(), b in arb_tuple()) {
        prop_assume!(a != b);
        let codec = WordCodec::new(test_schema());
        prop_assert_ne!(codec.encode_tuple(&a).unwrap(), codec.encode_tuple(&b).unwrap());
    }
}

// --- homomorphism law over random relations --------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn homomorphism_law_over_random_relations(
        tuples in proptest::collection::vec(arb_tuple(), 0..25),
        probe in arb_tuple(),
        key in any::<[u8; 32]>(),
    ) {
        let relation = Relation::from_tuples(test_schema(), tuples).unwrap();
        // Query for a value that may or may not be present.
        let queries = [
            Query::select("s", probe.get(0).unwrap().clone()),
            Query::select("i", probe.get(1).unwrap().clone()),
            Query::select("b", probe.get(2).unwrap().clone()),
        ];
        let swp = FinalSwpPh::new(test_schema(), &key_from(key)).unwrap();
        let varlen = VarlenPh::new(test_schema(), &key_from(key)).unwrap();
        for q in &queries {
            dbph::core::ph::check_homomorphism_law(&swp, &relation, q).unwrap();
            dbph::core::ph::check_homomorphism_law(&varlen, &relation, q).unwrap();
        }
    }
}

// --- wire format -----------------------------------------------------------

proptest! {
    #[test]
    fn wire_roundtrips_strings(s in ".*") {
        let bytes = s.to_wire();
        prop_assert_eq!(String::from_wire(&bytes).unwrap(), s);
    }

    #[test]
    fn wire_roundtrips_nested_vectors(
        v in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..32)), 0..16)) {
        let bytes = v.to_wire();
        prop_assert_eq!(Vec::<(u64, Vec<u8>)>::from_wire(&bytes).unwrap(), v);
    }

    #[test]
    fn wire_never_panics_on_random_input(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Decoding arbitrary bytes must return Err, never panic.
        let _ = dbph::core::swp_ph::EncryptedTable::from_wire(&bytes);
        let _ = dbph::core::protocol::ClientMessage::from_wire(&bytes);
        let _ = dbph::core::protocol::ServerResponse::from_wire(&bytes);
        let _ = String::from_wire(&bytes);
        let _ = Vec::<u64>::from_wire(&bytes);
    }

    #[test]
    fn encrypted_tables_survive_the_wire(
        tuples in proptest::collection::vec(arb_tuple(), 0..10),
        key in any::<[u8; 32]>(),
    ) {
        let relation = Relation::from_tuples(test_schema(), tuples).unwrap();
        let ph = FinalSwpPh::new(test_schema(), &key_from(key)).unwrap();
        let ct = ph.encrypt_table(&relation).unwrap();
        let restored = dbph::core::swp_ph::EncryptedTable::from_wire(&ct.to_wire()).unwrap();
        prop_assert_eq!(&restored, &ct);
        // And the restored ciphertext still decrypts.
        prop_assert!(ph.decrypt_table(&restored).unwrap().same_multiset(&relation));
    }
}

// --- batched protocol messages ---------------------------------------------

fn arb_trapdoor() -> impl Strategy<Value = dbph::core::protocol::WireTrapdoor> {
    (
        any::<u8>(),
        proptest::collection::vec(any::<u8>(), 0..24),
        proptest::collection::vec(any::<u8>(), 0..40),
    )
        .prop_map(
            |(attr, target, check_key)| dbph::core::protocol::WireTrapdoor {
                attr,
                target,
                check_key,
            },
        )
}

fn arb_cipher_words() -> impl Strategy<Value = Vec<dbph::swp::CipherWord>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(dbph::swp::CipherWord),
        0..6,
    )
}

proptest! {
    #[test]
    fn query_batch_messages_roundtrip(
        name in "[a-zA-Z0-9_]{1,16}",
        queries in proptest::collection::vec(
            proptest::collection::vec(arb_trapdoor(), 0..5), 0..8),
    ) {
        let msg = dbph::core::protocol::ClientMessage::QueryBatch { name, queries };
        let bytes = msg.to_wire();
        prop_assert_eq!(
            dbph::core::protocol::ClientMessage::from_wire(&bytes).unwrap(), msg);
    }

    #[test]
    fn append_batch_messages_roundtrip(
        name in "[a-zA-Z0-9_]{1,16}",
        docs in proptest::collection::vec((any::<u64>(), arb_cipher_words()), 0..8),
    ) {
        let msg = dbph::core::protocol::ClientMessage::AppendBatch { name, docs };
        let bytes = msg.to_wire();
        prop_assert_eq!(
            dbph::core::protocol::ClientMessage::from_wire(&bytes).unwrap(), msg);
    }

    #[test]
    fn tables_responses_roundtrip(
        tuples in proptest::collection::vec(arb_tuple(), 0..6),
        splits in any::<u8>(),
        key in any::<[u8; 32]>(),
    ) {
        // A Tables response carrying several (possibly empty) results.
        let relation = Relation::from_tuples(test_schema(), tuples).unwrap();
        let ph = FinalSwpPh::new(test_schema(), &key_from(key)).unwrap();
        let ct = ph.encrypt_table(&relation).unwrap();
        let n = usize::from(splits % 4);
        let response =
            dbph::core::protocol::ServerResponse::Tables(vec![ct; n]);
        let bytes = response.to_wire();
        prop_assert_eq!(
            dbph::core::protocol::ServerResponse::from_wire(&bytes).unwrap(), response);
    }

    #[test]
    fn batch_decoding_never_panics_on_random_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        tag in 7u8..9,
    ) {
        // Frame random payloads under the batch tags specifically.
        let mut framed = vec![tag];
        framed.extend_from_slice(&bytes);
        let _ = dbph::core::protocol::ClientMessage::from_wire(&framed);
    }

    #[test]
    fn query_decoding_never_panics_and_rejects_every_truncation(
        name in "[a-zA-Z0-9_]{1,16}",
        terms in proptest::collection::vec(arb_trapdoor(), 0..4),
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        use dbph::core::protocol::ClientMessage;
        // Random payloads under the query tag (2).
        let mut framed = vec![2u8];
        framed.extend_from_slice(&bytes);
        let _ = ClientMessage::from_wire(&framed);
        // Every strict prefix of a valid query fails to decode,
        // including cuts that end inside a term's attr byte.
        let msg = ClientMessage::Query { name, terms };
        let wire = msg.to_wire();
        for cut in 0..wire.len() {
            prop_assert!(ClientMessage::from_wire(&wire[..cut]).is_err(), "cut {}", cut);
        }
        prop_assert_eq!(ClientMessage::from_wire(&wire).unwrap(), msg);
    }
}

// --- frame codec -----------------------------------------------------------

/// A reader that delivers at most `chunk` bytes per call — the
/// adversarial-chunking stand-in for a TCP stack free to fragment
/// frames however it likes.
struct TrickleReader<R> {
    inner: R,
    chunk: usize,
}

impl<R: std::io::Read> std::io::Read for TrickleReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk.max(1));
        self.inner.read(&mut buf[..n])
    }
}

/// A writer that accepts at most `chunk` bytes per call.
struct TrickleWriter {
    inner: Vec<u8>,
    chunk: usize,
}

impl std::io::Write for TrickleWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk.max(1));
        self.inner.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    #[test]
    fn frames_roundtrip_under_adversarial_chunking(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 0..6),
        write_chunk in 1usize..4,
        read_chunk in 1usize..4,
    ) {
        use dbph::core::codec;
        // Write every frame through a writer that takes 1–3 bytes at a
        // time, read them back through a reader that gives 1–3 bytes
        // at a time: the codec's short-transfer loops must reassemble
        // the exact payload sequence, then report a clean EOF.
        let mut sink = TrickleWriter { inner: Vec::new(), chunk: write_chunk };
        for p in &payloads {
            codec::write_frame(&mut sink, p).unwrap();
        }
        let mut source = TrickleReader {
            inner: std::io::Cursor::new(sink.inner),
            chunk: read_chunk,
        };
        for p in &payloads {
            let frame = codec::read_frame(&mut source).unwrap();
            prop_assert_eq!(frame.as_deref(), Some(p.as_slice()));
        }
        prop_assert!(codec::read_frame(&mut source).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frames_rejected_in_both_directions(
        cap in 0usize..64,
        excess in 1usize..16,
    ) {
        use dbph::core::codec;
        use dbph::core::PhError;
        let payload = vec![7u8; cap + excess];
        // The writer refuses before anything hits the wire…
        let mut sink = Vec::new();
        prop_assert!(matches!(
            codec::write_frame_capped(&mut sink, &payload, cap),
            Err(PhError::Transport(_))
        ));
        prop_assert!(sink.is_empty());
        // …and a reader facing the announcement a compliant writer
        // would never make refuses before allocating the payload.
        let mut bytes = ((cap + excess) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        let mut r = std::io::Cursor::new(bytes);
        prop_assert!(matches!(
            codec::read_frame_capped(&mut r, cap),
            Err(PhError::Transport(_))
        ));
    }

    #[test]
    fn truncated_frames_error_and_never_panic(
        payload in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        use dbph::core::codec;
        use dbph::core::PhError;
        let mut bytes = Vec::new();
        codec::write_frame(&mut bytes, &payload).unwrap();
        // Every proper prefix of a frame is either a clean EOF (cut at
        // zero — the peer never started) or a transport error (cut
        // mid-frame) — never a success, never a panic, even through a
        // 1-byte trickle.
        for cut in 0..bytes.len() {
            let mut r = TrickleReader {
                inner: std::io::Cursor::new(bytes[..cut].to_vec()),
                chunk: 1,
            };
            match codec::read_frame(&mut r) {
                Ok(None) => prop_assert_eq!(cut, 0, "mid-frame cut read as clean EOF"),
                Ok(Some(_)) => prop_assert!(false, "truncated frame decoded at cut {}", cut),
                Err(PhError::Transport(_)) => prop_assert!(cut > 0),
                Err(other) => prop_assert!(false, "unexpected error {:?}", other),
            }
        }
    }

    #[test]
    fn frame_reader_never_panics_on_random_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use dbph::core::codec;
        // Arbitrary garbage: any outcome but a panic is acceptable,
        // and a success must faithfully carry the announced payload.
        let mut r = std::io::Cursor::new(bytes.clone());
        if let Ok(Some(frame)) = codec::read_frame(&mut r) {
            prop_assert_eq!(frame.len() + 4, bytes.len().min(frame.len() + 4));
            prop_assert_eq!(&frame[..], &bytes[4..4 + frame.len()]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn chunk_streams_frame_under_caps_the_monolithic_fetch_exceeds(
        max_bytes in 256u64..4096,
    ) {
        // Why chunking is load-bearing, not cosmetic: a table whose
        // FetchAll response outgrows a frame cap cannot cross the
        // capped codec *at all* — while the same table's FetchChunk
        // stream frames every response under that cap, for any chunk
        // budget, and carries the identical documents.
        use dbph::core::codec;
        use dbph::core::protocol::{ClientMessage, ServerResponse};
        use dbph::core::{Server, ServerConfig};

        const CAP: usize = 16 << 10;
        let table = dbph::core::EncryptedTable {
            params: dbph::swp::SwpParams::new(1500, 4, 32).unwrap(),
            docs: (0..40u64)
                .map(|i| (i, vec![dbph::swp::CipherWord(vec![i as u8; 1500])]))
                .collect(),
            next_doc_id: 40,
        };
        let server = Server::open(&ServerConfig::default(), None).unwrap();
        let _ = server.handle(
            &ClientMessage::CreateTable { name: "t".into(), table: table.clone().into() }.to_wire(),
        );

        // Monolithic: refused by the capped frame writer outright.
        let monolithic =
            server.handle(&ClientMessage::FetchAll { name: "t".into() }.to_wire());
        let mut sink = Vec::new();
        prop_assert!(codec::write_frame_capped(&mut sink, &monolithic, CAP).is_err());

        // Chunked: every page frames under the cap, stream reassembles
        // the exact documents.
        let mut token = 0u64;
        let mut docs = Vec::new();
        loop {
            let bytes = server.handle(
                &ClientMessage::FetchChunk { name: "t".into(), token, max_bytes }.to_wire(),
            );
            let mut sink = Vec::new();
            prop_assert!(
                codec::write_frame_capped(&mut sink, &bytes, CAP).is_ok(),
                "chunk at token {} burst the cap under budget {}", token, max_bytes
            );
            match ServerResponse::from_wire(&bytes).unwrap() {
                ServerResponse::TableChunk { table, next } => {
                    docs.extend(table.docs);
                    match next {
                        Some(n) => { prop_assert!(n > token); token = n; }
                        None => break,
                    }
                }
                other => { prop_assert!(false, "unexpected {:?}", other); }
            }
        }
        prop_assert_eq!(docs, table.docs);
    }
}

// --- SQL -------------------------------------------------------------------

proptest! {
    #[test]
    fn sql_parser_never_panics(input in ".{0,200}") {
        let _ = dbph::relation::sql::parse_statement(&input);
    }

    #[test]
    fn sql_string_literals_roundtrip(s in "[a-zA-Z0-9' ]{0,20}") {
        // Render a value as SQL and parse it back through a SELECT.
        let v = Value::Str(s.clone());
        let sql = format!("SELECT * FROM t WHERE a = {v}");
        let stmt = dbph::relation::sql::parse_statement(&sql).unwrap();
        match stmt {
            dbph::relation::sql::Statement::Select(sel) => {
                let dnf = sel.filter.unwrap();
                prop_assert_eq!(&dnf.disjuncts()[0].terms()[0].value, &v);
            }
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }
}
