//! The Alex ↔ Eve message protocol.
//!
//! Everything Alex sends is one of these messages, serialized through
//! [`crate::wire`]. The protocol deliberately carries only material
//! the scheme already declares server-visible: ciphertext tables,
//! query terms (each an attribute position plus the trapdoor's raw
//! `(target, check key)` bytes), and table names.
//!
//! [`WireTrapdoor`] is the protocol-level query term: it implements
//! [`dbph_swp::TrapdoorData`], so the *server can run the keyless
//! match directly on received bytes* — Eve needs no knowledge of which
//! SWP variant produced them — and its `attr` names the one word of
//! each document the match runs against. The attribute is the leak
//! this addressing adds: see [`crate::swp_ph`].

use dbph_swp::{CipherWord, TrapdoorData};

use crate::error::PhError;
use crate::swp_ph::{AddressedTrapdoor, EncryptedTable};
use crate::wire::{Reader, WireDecode, WireEncode};

/// A query term in transit: the attribute position it targets and
/// exactly the two byte strings the scheme reveals to the server.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WireTrapdoor {
    /// The attribute index — the word position `ψ` checks. An index at
    /// or beyond a document's word count matches nothing there.
    pub attr: u8,
    /// The search target (`W` or `E''(W)` depending on the scheme).
    pub target: Vec<u8>,
    /// The check key handed to the server.
    pub check_key: Vec<u8>,
}

impl WireTrapdoor {
    /// Converts an addressed scheme trapdoor (an element of
    /// [`crate::swp_ph::EncryptedQuery::terms`]) into its wire form.
    #[must_use]
    pub fn from_trapdoor<T: TrapdoorData>(t: &AddressedTrapdoor<T>) -> Self {
        WireTrapdoor {
            attr: t.attr,
            target: t.trapdoor.target().to_vec(),
            check_key: t.trapdoor.check_key().to_vec(),
        }
    }
}

impl TrapdoorData for WireTrapdoor {
    fn target(&self) -> &[u8] {
        &self.target
    }
    fn check_key(&self) -> &[u8] {
        &self.check_key
    }
}

impl WireEncode for WireTrapdoor {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.attr.encode(buf);
        self.target.encode(buf);
        self.check_key.encode(buf);
    }
}

impl WireDecode for WireTrapdoor {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        Ok(WireTrapdoor {
            attr: u8::decode(r)?,
            target: Vec::decode(r)?,
            check_key: Vec::decode(r)?,
        })
    }
}

/// Message tags (first byte of every client message). `pub(crate)` so
/// the client pool can envelope an already-encoded mutation by its
/// first byte without decoding it.
pub(crate) mod tag {
    pub const CREATE: u8 = 1;
    pub const QUERY: u8 = 2;
    pub const FETCH_ALL: u8 = 3;
    pub const APPEND: u8 = 4;
    pub const DROP: u8 = 5;
    pub const DELETE: u8 = 6;
    pub const QUERY_BATCH: u8 = 7;
    pub const APPEND_BATCH: u8 = 8;
    pub const FETCH_CHUNK: u8 = 9;
    pub const TAGGED: u8 = 10;
    pub const PING: u8 = 11;
    pub const REPL_PULL: u8 = 12;
    pub const STATS: u8 = 13;

    /// Whether `t` is the first byte of a mutation message — the set
    /// the durable log records and the idempotent envelope protects.
    pub fn is_mutation_tag(t: u8) -> bool {
        matches!(t, CREATE | APPEND | DROP | DELETE | APPEND_BATCH)
    }
}

/// Default chunk budget for streamed table transfers (4 MiB): far
/// below the transport's frame cap, so a [`ClientMessage::FetchChunk`]
/// stream keeps peak frame memory bounded no matter how large the
/// table has grown — the whole point of chunking over
/// [`ClientMessage::FetchAll`].
pub const DEFAULT_CHUNK_BYTES: u64 = 4 << 20;

/// Server-side ceiling on a requested chunk budget (48 MiB): a chunk
/// response must stay inside the codec's 64 MiB frame cap with
/// headroom for the envelope, whatever the client asks for.
pub const MAX_CHUNK_BYTES: u64 = 48 << 20;

/// Machine-readable prefix of the server's *stale duplicate* error: a
/// [`ClientMessage::Tagged`] mutation whose `(client_id, seq)` aged
/// past the dedup window, so its cached response is gone and the
/// server will neither replay nor re-apply it (the mutation may
/// already have been applied once). The condition is **non-retriable
/// by construction** — re-sending the same envelope can only get the
/// same answer — so clients must surface it immediately instead of
/// burning retry budget; [`crate::error::PhError::is_stale_duplicate`]
/// recognizes it after the client maps the error response.
pub const STALE_DUPLICATE_PREFIX: &str = "stale duplicate (non-retriable)";

/// A message from Alex to Eve.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMessage {
    /// Outsource a freshly encrypted table under `name`.
    CreateTable {
        /// Table name (public metadata).
        name: String,
        /// The table ciphertext.
        table: EncryptedTable,
    },
    /// Run `ψ` with the given conjunction of addressed trapdoors.
    Query {
        /// Target table.
        name: String,
        /// Per-term addressed trapdoors (AND semantics).
        terms: Vec<WireTrapdoor>,
    },
    /// Download the full table ciphertext (e.g. for re-keying).
    FetchAll {
        /// Target table.
        name: String,
    },
    /// Append one encrypted tuple (incremental insert).
    Append {
        /// Target table.
        name: String,
        /// Document id chosen by the client (must be fresh).
        doc_id: u64,
        /// The tuple's cipher words.
        words: Vec<CipherWord>,
    },
    /// Remove the table.
    DropTable {
        /// Target table.
        name: String,
    },
    /// Remove specific documents by id — the second phase of a
    /// confirmed delete. The first phase is an ordinary [`Self::Query`]
    /// whose candidates the client decrypts and re-checks, so false
    /// positives are never deleted.
    DeleteDocs {
        /// Target table.
        name: String,
        /// Document ids confirmed for deletion by the client.
        doc_ids: Vec<u64>,
    },
    /// Run several trapdoor conjunctions in one round-trip. The server
    /// answers with [`ServerResponse::Tables`], one result per query
    /// in order, and records one `Query` event per entry — batching
    /// amortizes transport, it does not coarsen the transcript.
    QueryBatch {
        /// Target table.
        name: String,
        /// One trapdoor conjunction per query (AND semantics within
        /// each entry, as in [`Self::Query`]).
        queries: Vec<Vec<WireTrapdoor>>,
    },
    /// Append several encrypted tuples in one round-trip, atomically:
    /// ids must be fresh and strictly increasing or the whole batch is
    /// rejected with no effect.
    AppendBatch {
        /// Target table.
        name: String,
        /// The new documents: `(id, cipher words)` in append order.
        docs: Vec<(u64, Vec<CipherWord>)>,
    },
    /// Download one bounded chunk of a table. The server answers with
    /// [`ServerResponse::TableChunk`]: documents from position `token`
    /// onward until the encoded chunk would exceed `max_bytes` (always
    /// at least one), plus the continuation token for the next
    /// request. Streaming a table as chunks bounds peak frame size on
    /// both ends — a [`Self::FetchAll`] of a table beyond the codec's
    /// frame cap cannot even be framed, while its chunk stream can.
    ///
    /// Leakage: Eve answers each chunk from the ciphertext she already
    /// holds; the request reveals only `(name, token, max_bytes)` —
    /// client-chosen pagination of a download whose full content she
    /// serves either way.
    FetchChunk {
        /// Target table.
        name: String,
        /// Global document position to resume from (0 starts the
        /// stream; echo the previous response's `next` to continue).
        token: u64,
        /// Budget for the chunk's encoded documents, in bytes (the
        /// server clamps to [`MAX_CHUNK_BYTES`]).
        max_bytes: u64,
    },
    /// An idempotent request envelope: the inner message, stamped with
    /// a client-chosen request id `(client_id, seq)`. The server keeps
    /// a per-client dedup window and, for a repeated id, replays the
    /// original encoded response instead of re-applying — so a tagged
    /// mutation can be retried across timeouts, connection resets, and
    /// even server restarts without ever double-applying. Queries gain
    /// nothing from the envelope (they are read-only); clients tag
    /// only mutations and the server dispatches a tagged non-mutation
    /// statelessly. Envelopes do not nest.
    ///
    /// Leakage: the id is client-chosen metadata with no key material.
    /// Eve sees it exactly on the retries she herself induced (she
    /// already correlates them trivially by content — retried bytes are
    /// identical); the [`crate::server::Observer`] transcript records
    /// the inner message once per *apply*, unchanged.
    Tagged {
        /// Stable identity of the issuing client (scopes `seq`).
        client_id: u64,
        /// Per-client sequence number, starting at 1; each new request
        /// claims a fresh value and every retry of it reuses the same.
        seq: u64,
        /// The wrapped message (never itself `Tagged`).
        inner: Box<ClientMessage>,
    },
    /// Liveness and health probe. Any server answers with
    /// [`ServerResponse::Status`]; failover logic uses it to decide
    /// whether a peer is alive and serving before redirecting clients.
    ///
    /// Leakage: none beyond liveness — the reply carries only
    /// operational counters Eve computes from state she already holds.
    Ping,
    /// A follower's replication pull: "send me the durable record
    /// stream after `after_offset`". The primary answers with
    /// [`ServerResponse::ReplRecords`] (the next run of verbatim log
    /// records) or, when `after_offset` predates the primary's
    /// compaction horizon, [`ServerResponse::ReplSnapshot`] (restart
    /// from the compacted snapshot). A pull at offset `v` doubles as
    /// the follower's durability acknowledgement for every byte below
    /// `v` — pull-based semi-sync needs no separate ack message.
    ///
    /// Leakage: the shipped stream is exactly the records Eve already
    /// received and applied — raw client messages and snapshots of the
    /// ciphertext state they produce — forwarded to a second Eve. Two
    /// copies of the same adversary view reveal nothing the scheme's
    /// single-server argument does not already concede.
    ReplPull {
        /// Stable identity of the pulling follower (scopes its
        /// acknowledged-offset watermark on the primary).
        follower: u64,
        /// Virtual stream offset after which records are requested;
        /// everything below it is durably held by this follower.
        after_offset: u64,
        /// Whether a pull that finds the follower caught up may park
        /// for the next record (the tailer's long poll) rather than
        /// answer empty at once (bootstrap, which only needs to learn
        /// that it reached the stream end). One byte on the wire.
        wait: bool,
    },
    /// Operator pull of the server's full metrics registry. The server
    /// answers with [`ServerResponse::StatsSnapshot`] and — like
    /// [`Self::Ping`] — records **no** `ServerEvent`s: probing the
    /// stats plane never perturbs the adversary transcript.
    ///
    /// Leakage: none about Alex — every metric is a measurement of
    /// Eve's own machine (her fsync latency, her queue depths, her
    /// socket counters), derived from work she already performs and
    /// observes; see [`crate::telemetry`].
    Stats,
}

impl WireEncode for ClientMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ClientMessage::CreateTable { name, table } => {
                buf.push(tag::CREATE);
                name.encode(buf);
                table.encode(buf);
            }
            ClientMessage::Query { name, terms } => {
                buf.push(tag::QUERY);
                name.encode(buf);
                terms.encode(buf);
            }
            ClientMessage::FetchAll { name } => {
                buf.push(tag::FETCH_ALL);
                name.encode(buf);
            }
            ClientMessage::Append {
                name,
                doc_id,
                words,
            } => {
                buf.push(tag::APPEND);
                name.encode(buf);
                doc_id.encode(buf);
                words.encode(buf);
            }
            ClientMessage::DropTable { name } => {
                buf.push(tag::DROP);
                name.encode(buf);
            }
            ClientMessage::DeleteDocs { name, doc_ids } => {
                buf.push(tag::DELETE);
                name.encode(buf);
                doc_ids.encode(buf);
            }
            ClientMessage::QueryBatch { name, queries } => {
                buf.push(tag::QUERY_BATCH);
                name.encode(buf);
                queries.encode(buf);
            }
            ClientMessage::AppendBatch { name, docs } => {
                buf.push(tag::APPEND_BATCH);
                name.encode(buf);
                docs.encode(buf);
            }
            ClientMessage::FetchChunk {
                name,
                token,
                max_bytes,
            } => {
                buf.push(tag::FETCH_CHUNK);
                name.encode(buf);
                token.encode(buf);
                max_bytes.encode(buf);
            }
            ClientMessage::Tagged {
                client_id,
                seq,
                inner,
            } => {
                buf.push(tag::TAGGED);
                client_id.encode(buf);
                seq.encode(buf);
                inner.encode(buf);
            }
            ClientMessage::Ping => buf.push(tag::PING),
            ClientMessage::ReplPull {
                follower,
                after_offset,
                wait,
            } => {
                buf.push(tag::REPL_PULL);
                follower.encode(buf);
                after_offset.encode(buf);
                wait.encode(buf);
            }
            ClientMessage::Stats => buf.push(tag::STATS),
        }
    }
}

impl WireDecode for ClientMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        match u8::decode(r)? {
            tag::TAGGED => {
                let client_id = u64::decode(r)?;
                let seq = u64::decode(r)?;
                // The inner tag is decoded here, not recursively, so a
                // nested-envelope byte bomb cannot recurse the stack:
                // one level is the wire format, anything deeper is
                // rejected before descending.
                let inner = match u8::decode(r)? {
                    tag::TAGGED => {
                        return Err(PhError::Wire("nested request envelope".into()));
                    }
                    t => Self::decode_untagged(t, r)?,
                };
                Ok(ClientMessage::Tagged {
                    client_id,
                    seq,
                    inner: Box::new(inner),
                })
            }
            t => Self::decode_untagged(t, r),
        }
    }
}

impl ClientMessage {
    /// Decodes the message body for an already-consumed non-envelope
    /// tag byte `t`.
    fn decode_untagged(t: u8, r: &mut Reader<'_>) -> Result<Self, PhError> {
        match t {
            tag::CREATE => Ok(ClientMessage::CreateTable {
                name: String::decode(r)?,
                table: EncryptedTable::decode(r)?,
            }),
            tag::QUERY => Ok(ClientMessage::Query {
                name: String::decode(r)?,
                terms: Vec::decode(r)?,
            }),
            tag::FETCH_ALL => Ok(ClientMessage::FetchAll {
                name: String::decode(r)?,
            }),
            tag::APPEND => Ok(ClientMessage::Append {
                name: String::decode(r)?,
                doc_id: u64::decode(r)?,
                words: Vec::decode(r)?,
            }),
            tag::DROP => Ok(ClientMessage::DropTable {
                name: String::decode(r)?,
            }),
            tag::DELETE => Ok(ClientMessage::DeleteDocs {
                name: String::decode(r)?,
                doc_ids: Vec::decode(r)?,
            }),
            tag::QUERY_BATCH => Ok(ClientMessage::QueryBatch {
                name: String::decode(r)?,
                queries: Vec::decode(r)?,
            }),
            tag::APPEND_BATCH => Ok(ClientMessage::AppendBatch {
                name: String::decode(r)?,
                docs: Vec::decode(r)?,
            }),
            tag::FETCH_CHUNK => Ok(ClientMessage::FetchChunk {
                name: String::decode(r)?,
                token: u64::decode(r)?,
                max_bytes: u64::decode(r)?,
            }),
            tag::PING => Ok(ClientMessage::Ping),
            tag::REPL_PULL => Ok(ClientMessage::ReplPull {
                follower: u64::decode(r)?,
                after_offset: u64::decode(r)?,
                wait: bool::decode(r)?,
            }),
            tag::STATS => Ok(ClientMessage::Stats),
            t => Err(PhError::Wire(format!("unknown client message tag {t}"))),
        }
    }

    /// Wraps `self` in the idempotent request envelope.
    #[must_use]
    pub fn tagged(self, client_id: u64, seq: u64) -> ClientMessage {
        ClientMessage::Tagged {
            client_id,
            seq,
            inner: Box::new(self),
        }
    }
}

/// Eve's response.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerResponse {
    /// The operation succeeded with no payload.
    Ok,
    /// A table ciphertext (query result or full fetch).
    Table(EncryptedTable),
    /// The operation failed; human-readable reason.
    Error(String),
    /// One table ciphertext per query of a
    /// [`ClientMessage::QueryBatch`], in query order.
    Tables(Vec<EncryptedTable>),
    /// One bounded chunk of a [`ClientMessage::FetchChunk`] stream:
    /// the documents of this chunk (carried as a flat table whose
    /// `params`/`next_doc_id` are the real table's, so concatenating
    /// all chunks' documents reproduces the [`Self::Table`] a
    /// `FetchAll` would return, byte for byte) and the continuation
    /// token — `None` once the table is exhausted.
    TableChunk {
        /// This chunk's documents (plus the table's public metadata).
        table: EncryptedTable,
        /// Token for the next [`ClientMessage::FetchChunk`], if any.
        next: Option<u64>,
    },
    /// Answer to [`ClientMessage::Ping`]: the server's health in three
    /// operational counters, enough for failover logic to pick a live,
    /// healthy peer to redirect clients to.
    Status {
        /// Whether the durable log is poisoned (a group-commit fsync
        /// failed; mutations are refused fail-closed). Always `false`
        /// on an in-memory server.
        poisoned: bool,
        /// Number of tables currently stored.
        tables: u64,
        /// Replication lag in stream bytes: the gap between the end of
        /// this primary's record stream and the slowest registered
        /// follower's acknowledged offset (0 with no followers).
        repl_lag: u64,
        /// Times semi-sync durability degraded to async: a mutation's
        /// ack released because followers missed the ack timeout
        /// (0 on an in-memory server or without semi-sync configured).
        semi_sync_degraded: u64,
        /// Times this node, acting as a follower, discarded its state
        /// and re-bootstrapped because its tail fell behind the
        /// primary's compaction horizon.
        resyncs: u64,
    },
    /// Answer to [`ClientMessage::ReplPull`] when the follower's
    /// offset is inside the primary's current stream: the next run of
    /// verbatim, checksummed log record frames starting exactly at
    /// `after_offset`. Empty `records` means the follower is caught up.
    ReplRecords {
        /// Whole record frames, byte-for-byte as they sit in the
        /// primary's segment files.
        records: Vec<u8>,
        /// Virtual offset to pull from next (`after_offset` plus the
        /// bytes shipped here).
        next_offset: u64,
    },
    /// Answer to [`ClientMessage::ReplPull`] when the follower's
    /// offset predates the primary's compaction horizon (or lies
    /// beyond its stream end, i.e. the follower outlived a primary
    /// restart): the follower must discard its state and re-bootstrap.
    /// `records` restarts the stream from the primary's first retained
    /// byte — the compacted snapshot segment — and replaying it through
    /// the recovery path rebuilds store, dedup window, and index.
    ReplSnapshot {
        /// Virtual offset of the primary's first retained stream byte;
        /// `records` begins exactly here.
        base: u64,
        /// Whole record frames from the start of the retained stream.
        records: Vec<u8>,
        /// Virtual offset to pull from next (`base` plus the bytes
        /// shipped here).
        next_offset: u64,
    },
    /// Answer to [`ClientMessage::Stats`]: a versioned point-in-time
    /// dump of the server's full metrics registry.
    StatsSnapshot(crate::telemetry::StatsSnapshot),
}

impl WireEncode for ServerResponse {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ServerResponse::Ok => buf.push(0),
            ServerResponse::Table(t) => {
                buf.push(1);
                t.encode(buf);
            }
            ServerResponse::Error(e) => {
                buf.push(2);
                e.encode(buf);
            }
            ServerResponse::Tables(ts) => {
                buf.push(3);
                ts.encode(buf);
            }
            ServerResponse::TableChunk { table, next } => {
                buf.push(4);
                table.encode(buf);
                next.encode(buf);
            }
            ServerResponse::Status {
                poisoned,
                tables,
                repl_lag,
                semi_sync_degraded,
                resyncs,
            } => {
                buf.push(5);
                poisoned.encode(buf);
                tables.encode(buf);
                repl_lag.encode(buf);
                semi_sync_degraded.encode(buf);
                resyncs.encode(buf);
            }
            ServerResponse::ReplRecords {
                records,
                next_offset,
            } => {
                buf.push(6);
                records.encode(buf);
                next_offset.encode(buf);
            }
            ServerResponse::ReplSnapshot {
                base,
                records,
                next_offset,
            } => {
                buf.push(7);
                base.encode(buf);
                records.encode(buf);
                next_offset.encode(buf);
            }
            ServerResponse::StatsSnapshot(s) => {
                buf.push(8);
                s.encode(buf);
            }
        }
    }
}

impl WireDecode for ServerResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        match u8::decode(r)? {
            0 => Ok(ServerResponse::Ok),
            1 => Ok(ServerResponse::Table(EncryptedTable::decode(r)?)),
            2 => Ok(ServerResponse::Error(String::decode(r)?)),
            3 => Ok(ServerResponse::Tables(Vec::decode(r)?)),
            4 => Ok(ServerResponse::TableChunk {
                table: EncryptedTable::decode(r)?,
                next: Option::decode(r)?,
            }),
            5 => Ok(ServerResponse::Status {
                poisoned: bool::decode(r)?,
                tables: u64::decode(r)?,
                repl_lag: u64::decode(r)?,
                semi_sync_degraded: u64::decode(r)?,
                resyncs: u64::decode(r)?,
            }),
            6 => Ok(ServerResponse::ReplRecords {
                records: Vec::decode(r)?,
                next_offset: u64::decode(r)?,
            }),
            7 => Ok(ServerResponse::ReplSnapshot {
                base: u64::decode(r)?,
                records: Vec::decode(r)?,
                next_offset: u64::decode(r)?,
            }),
            8 => Ok(ServerResponse::StatsSnapshot(
                crate::telemetry::StatsSnapshot::decode(r)?,
            )),
            t => Err(PhError::Wire(format!("unknown response tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbph_swp::SwpParams;

    fn sample_table() -> EncryptedTable {
        EncryptedTable {
            params: SwpParams::new(13, 4, 32).unwrap(),
            docs: vec![(0, vec![CipherWord(vec![9; 13])])],
            next_doc_id: 1,
        }
    }

    #[test]
    fn all_client_messages_roundtrip() {
        let msgs = vec![
            ClientMessage::CreateTable {
                name: "Emp".into(),
                table: sample_table(),
            },
            ClientMessage::Query {
                name: "Emp".into(),
                terms: vec![WireTrapdoor {
                    attr: 1,
                    target: vec![1; 13],
                    check_key: vec![2; 32],
                }],
            },
            ClientMessage::FetchAll { name: "Emp".into() },
            ClientMessage::Append {
                name: "Emp".into(),
                doc_id: 7,
                words: vec![CipherWord(vec![3; 13])],
            },
            ClientMessage::DropTable { name: "Emp".into() },
            ClientMessage::DeleteDocs {
                name: "Emp".into(),
                doc_ids: vec![0, 7, 9],
            },
            ClientMessage::QueryBatch {
                name: "Emp".into(),
                queries: vec![
                    vec![WireTrapdoor {
                        attr: 2,
                        target: vec![1; 13],
                        check_key: vec![2; 32],
                    }],
                    vec![],
                    vec![
                        WireTrapdoor {
                            attr: 0,
                            target: vec![3; 13],
                            check_key: vec![4; 32],
                        },
                        WireTrapdoor {
                            attr: 1,
                            target: vec![5; 13],
                            check_key: vec![6; 32],
                        },
                    ],
                ],
            },
            ClientMessage::AppendBatch {
                name: "Emp".into(),
                docs: vec![
                    (7, vec![CipherWord(vec![3; 13])]),
                    (8, vec![CipherWord(vec![4; 13]), CipherWord(vec![5; 13])]),
                ],
            },
            ClientMessage::FetchChunk {
                name: "Emp".into(),
                token: 4096,
                max_bytes: DEFAULT_CHUNK_BYTES,
            },
            ClientMessage::Ping,
            ClientMessage::ReplPull {
                follower: 0xF01,
                after_offset: 123_456,
                wait: true,
            },
            ClientMessage::ReplPull {
                follower: 0xF01,
                after_offset: 0,
                wait: false,
            },
            ClientMessage::Stats,
        ];
        for m in msgs {
            let bytes = m.to_wire();
            assert_eq!(ClientMessage::from_wire(&bytes).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn all_responses_roundtrip() {
        for r in [
            ServerResponse::Ok,
            ServerResponse::Table(sample_table()),
            ServerResponse::Error("nope".into()),
            ServerResponse::Tables(vec![]),
            ServerResponse::Tables(vec![sample_table(), sample_table()]),
            ServerResponse::TableChunk {
                table: sample_table(),
                next: Some(17),
            },
            ServerResponse::TableChunk {
                table: sample_table(),
                next: None,
            },
            ServerResponse::Status {
                poisoned: true,
                tables: 3,
                repl_lag: 42,
                semi_sync_degraded: 2,
                resyncs: 1,
            },
            ServerResponse::ReplRecords {
                records: vec![1, 2, 3],
                next_offset: 99,
            },
            ServerResponse::ReplSnapshot {
                base: 17,
                records: vec![4, 5],
                next_offset: 19,
            },
            ServerResponse::StatsSnapshot(crate::telemetry::StatsSnapshot {
                version: crate::telemetry::STATS_VERSION,
                metrics: vec![
                    (
                        "dedup_fresh".into(),
                        crate::telemetry::MetricValue::Counter(7),
                    ),
                    (
                        "fsync_nanos".into(),
                        crate::telemetry::MetricValue::Histogram(
                            crate::telemetry::HistogramSnapshot {
                                count: 2,
                                sum: 300,
                                max: 200,
                                buckets: vec![(7, 1), (8, 1)],
                            },
                        ),
                    ),
                ],
            }),
        ] {
            let bytes = r.to_wire();
            assert_eq!(ServerResponse::from_wire(&bytes).unwrap(), r);
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(ClientMessage::from_wire(&[99]).is_err());
        assert!(ServerResponse::from_wire(&[9]).is_err());
    }

    #[test]
    fn tagged_envelope_roundtrips() {
        let inner = ClientMessage::Append {
            name: "Emp".into(),
            doc_id: 7,
            words: vec![CipherWord(vec![3; 13])],
        };
        let tagged = inner.clone().tagged(0xA11CE, 42);
        let bytes = tagged.to_wire();
        assert_eq!(bytes[0], 10, "envelope tag byte");
        let back = ClientMessage::from_wire(&bytes).unwrap();
        assert_eq!(back, tagged);
        match back {
            ClientMessage::Tagged {
                client_id,
                seq,
                inner: boxed,
            } => {
                assert_eq!((client_id, seq), (0xA11CE, 42));
                assert_eq!(*boxed, inner);
            }
            other => panic!("expected envelope, got {other:?}"),
        }
    }

    #[test]
    fn nested_envelope_rejected_without_recursing() {
        let once = ClientMessage::DropTable { name: "T".into() }.tagged(1, 1);
        // Hand-build a doubly-tagged frame: tag, id, seq, then the
        // already-tagged bytes as the "inner" message.
        let mut bytes = vec![10u8];
        7u64.encode(&mut bytes);
        9u64.encode(&mut bytes);
        bytes.extend_from_slice(&once.to_wire());
        let err = ClientMessage::from_wire(&bytes).unwrap_err();
        assert!(err.to_string().contains("nested request envelope"), "{err}");
    }

    #[test]
    fn tagged_envelope_with_bad_inner_tag_rejected() {
        let mut bytes = vec![10u8];
        1u64.encode(&mut bytes);
        1u64.encode(&mut bytes);
        bytes.push(99);
        assert!(ClientMessage::from_wire(&bytes).is_err());
    }

    #[test]
    fn mutation_tag_set_matches_server_classification() {
        let mutations = [
            tag::CREATE,
            tag::APPEND,
            tag::DROP,
            tag::DELETE,
            tag::APPEND_BATCH,
        ];
        let reads = [
            tag::QUERY,
            tag::FETCH_ALL,
            tag::QUERY_BATCH,
            tag::FETCH_CHUNK,
            tag::TAGGED,
            tag::PING,
            tag::REPL_PULL,
            tag::STATS,
        ];
        for t in mutations {
            assert!(tag::is_mutation_tag(t), "{t}");
        }
        for t in reads {
            assert!(!tag::is_mutation_tag(t), "{t}");
        }
    }

    #[test]
    fn wire_trapdoor_preserves_trapdoor_semantics() {
        use dbph_crypto::SecretKey;
        use dbph_swp::{matches, FinalScheme, Location, SearchableScheme, Word};

        let params = SwpParams::new(13, 4, 32).unwrap();
        let scheme = FinalScheme::new(params, &SecretKey::from_bytes([5u8; 32]));
        let w = Word::from_bytes_unchecked(vec![7u8; 13]);
        let c = scheme.encrypt_word(Location::new(0, 0), &w).unwrap();
        let td = scheme.trapdoor(&w).unwrap();

        // Convert to wire form, serialize, deserialize, and match.
        let addressed = AddressedTrapdoor {
            attr: 1,
            trapdoor: td,
        };
        let wire = WireTrapdoor::from_trapdoor(&addressed);
        let restored = WireTrapdoor::from_wire(&wire.to_wire()).unwrap();
        assert_eq!(restored.attr, 1);
        assert!(matches(&params, &restored, &c));
        // Addressed: only word `attr` of a document is checked.
        use crate::swp_ph::matches_at;
        let other = CipherWord(vec![0; 13]);
        let at = |words: &[CipherWord]| matches_at(&params, restored.attr, &restored, words);
        assert!(at(&[other.clone(), c.clone()]));
        assert!(!at(&[c.clone(), other]));
        assert!(!at(std::slice::from_ref(&c)));
    }

    #[test]
    fn wire_trapdoor_encodes_attr_before_target() {
        let td = WireTrapdoor {
            attr: 0xAB,
            target: vec![1, 2],
            check_key: vec![3],
        };
        let bytes = td.to_wire();
        assert_eq!(bytes[0], 0xAB, "attr is the first byte of a term");
        assert_eq!(
            &bytes[1..],
            &{
                let mut rest = Vec::new();
                td.target.encode(&mut rest);
                td.check_key.encode(&mut rest);
                rest
            }[..]
        );
        // A term truncated inside its attr byte is a decode error.
        assert!(WireTrapdoor::from_wire(&[]).is_err());
    }
}
