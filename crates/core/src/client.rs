//! Alex — the client holding the only key.
//!
//! The client owns a [`FinalSwpPh`] instance (schema + master key),
//! talks to the server purely through serialized protocol messages,
//! and post-processes results: decrypting candidate tuples and
//! filtering the searchable scheme's false positives, exactly as §3
//! prescribes.
//!
//! The client is generic over a [`Transport`] — the thing that
//! answers its serialized messages. The default is the in-process
//! [`Server`] (a function call, the configuration every unit test
//! uses); [`crate::net::PooledClient`] plugs in a framed TCP
//! connection pool instead, with **zero** change to the bytes sent or
//! received — `tests/net_transport.rs` proves the two transports
//! byte-equivalent, responses and server transcripts alike.

use dbph_relation::{exec, Dnf, Projection, Query, Relation, Tuple};

use crate::error::PhError;
use crate::net::Transport;
use crate::ph::DatabasePh;
use crate::protocol::{ClientMessage, ServerResponse, WireTrapdoor, DEFAULT_CHUNK_BYTES};
use crate::server::Server;
use crate::swp_ph::FinalSwpPh;
use crate::wire::{WireDecode, WireEncode};

/// A client session for one outsourced table.
pub struct Client<T: Transport = Server> {
    ph: FinalSwpPh,
    transport: T,
    table_name: String,
    next_doc_id: u64,
}

impl<T: Transport> Client<T> {
    /// Creates a client for `ph`'s schema against `transport` — an
    /// in-process [`Server`] or any networked stand-in. The table is
    /// named after the schema.
    #[must_use]
    pub fn new(ph: FinalSwpPh, transport: T) -> Self {
        let table_name = ph.schema().name().to_string();
        Client {
            ph,
            transport,
            table_name,
            next_doc_id: 0,
        }
    }

    /// The table name used on the server.
    #[must_use]
    pub fn table_name(&self) -> &str {
        &self.table_name
    }

    /// The transport this client speaks through.
    #[must_use]
    pub fn transport(&self) -> &T {
        &self.transport
    }

    fn send(&self, msg: &ClientMessage) -> Result<ServerResponse, PhError> {
        let bytes = self.transport.call(&msg.to_wire())?;
        ServerResponse::from_wire(&bytes)
    }

    fn expect_ok(&self, msg: &ClientMessage) -> Result<(), PhError> {
        match self.send(msg)? {
            ServerResponse::Ok => Ok(()),
            ServerResponse::Error(e) => Err(PhError::Protocol(e)),
            _ => Err(PhError::Protocol("unexpected table response".into())),
        }
    }

    fn expect_table(&self, msg: &ClientMessage) -> Result<crate::swp_ph::EncryptedTable, PhError> {
        match self.send(msg)? {
            ServerResponse::Table(t) => Ok(t),
            ServerResponse::Error(e) => Err(PhError::Protocol(e)),
            _ => Err(PhError::Protocol("expected table response".into())),
        }
    }

    fn expect_chunk(
        &self,
        msg: &ClientMessage,
    ) -> Result<(crate::swp_ph::EncryptedTable, Option<u64>), PhError> {
        match self.send(msg)? {
            ServerResponse::TableChunk { table, next } => Ok((table, next)),
            ServerResponse::Error(e) => Err(PhError::Protocol(e)),
            _ => Err(PhError::Protocol("expected table chunk response".into())),
        }
    }

    fn expect_tables(
        &self,
        msg: &ClientMessage,
        expected: usize,
    ) -> Result<Vec<crate::swp_ph::EncryptedTable>, PhError> {
        match self.send(msg)? {
            ServerResponse::Tables(ts) if ts.len() == expected => Ok(ts),
            ServerResponse::Tables(ts) => Err(PhError::Protocol(format!(
                "batch response arity mismatch: sent {expected} queries, got {} results",
                ts.len()
            ))),
            ServerResponse::Error(e) => Err(PhError::Protocol(e)),
            _ => Err(PhError::Protocol("expected batch table response".into())),
        }
    }

    /// Encrypts `relation` and uploads it.
    ///
    /// # Errors
    /// Fails on schema mismatch or server rejection.
    pub fn outsource(&mut self, relation: &Relation) -> Result<(), PhError> {
        let table = self.ph.encrypt_columnar(relation)?;
        let next = table.next_doc_id;
        self.expect_ok(&ClientMessage::CreateTable {
            name: self.table_name.clone(),
            table,
        })?;
        // Only now: a rejected upload (the table exists) must not
        // rewind the ids of the table the server still holds.
        self.next_doc_id = next;
        Ok(())
    }

    /// Runs an exact-select (or conjunctive) query remotely and
    /// returns the decrypted, false-positive-filtered result.
    ///
    /// # Errors
    /// Fails on binding errors, protocol failures, or corrupt results.
    pub fn select(&self, query: &Query) -> Result<Relation, PhError> {
        let qct = self.ph.encrypt_query(query)?;
        let terms = qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect();
        let result = self.expect_table(&ClientMessage::Query {
            name: self.table_name.clone(),
            terms,
        })?;
        self.ph.decrypt_result(&result, query)
    }

    /// Runs several exact-select (or conjunctive) queries in **one**
    /// round-trip, returning one decrypted, false-positive-filtered
    /// relation per query, in order. The server sees exactly the same
    /// trapdoors and records exactly the same per-query transcript
    /// events as `queries.len()` calls to [`Self::select`] — batching
    /// amortizes transport, not leakage.
    ///
    /// # Errors
    /// Fails on binding errors, protocol failures, or corrupt results.
    pub fn select_many(&self, queries: &[Query]) -> Result<Vec<Relation>, PhError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let mut encrypted = Vec::with_capacity(queries.len());
        for query in queries {
            let qct = self.ph.encrypt_query(query)?;
            encrypted.push(qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect());
        }
        let results = self.expect_tables(
            &ClientMessage::QueryBatch {
                name: self.table_name.clone(),
                queries: encrypted,
            },
            queries.len(),
        )?;
        queries
            .iter()
            .zip(results.iter())
            .map(|(query, table)| self.ph.decrypt_result(table, query))
            .collect()
    }

    /// Runs a disjunctive (DNF) query: one encrypted exact-select per
    /// disjunct — all disjuncts shipped in a single `QueryBatch`
    /// round-trip and fanned over the server's worker pool. The
    /// candidate sets are unioned by document id client-side, so each
    /// candidate is decrypted once, and a candidate is kept only when
    /// the whole DNF holds on its plaintext. That is the set
    /// per-disjunct filtering would keep: `ψ` has no false negatives,
    /// so a tuple matching disjunct `j` is among `j`'s candidates.
    /// Each disjunct leaks its own access
    /// pattern to the server — no more, no less than running it
    /// standalone; batching changes framing (one message, one batch
    /// tag), never per-disjunct leakage.
    ///
    /// # Errors
    /// Fails on binding, protocol, or decryption errors.
    pub fn select_dnf(&self, dnf: &Dnf) -> Result<Relation, PhError> {
        let bound = dnf.bind(self.ph.schema())?;
        let mut encrypted = Vec::with_capacity(dnf.disjuncts().len());
        for query in dnf.disjuncts() {
            let qct = self.ph.encrypt_query(query)?;
            encrypted.push(qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect());
        }
        let candidate_tables = self.expect_tables(
            &ClientMessage::QueryBatch {
                name: self.table_name.clone(),
                queries: encrypted,
            },
            dnf.disjuncts().len(),
        )?;
        let candidates = union_by_doc_id(*self.ph.params(), candidate_tables);
        let mut out = Relation::empty(self.ph.schema().clone());
        for (_, tuple) in self.ph.decrypt_docs(&candidates)? {
            if dnf.matches(&tuple, &bound) {
                out.insert(tuple)?;
            }
        }
        Ok(out)
    }

    /// Runs a `SELECT` with projection: remote selection, local
    /// decryption and projection.
    ///
    /// # Errors
    /// Fails on binding/protocol errors.
    pub fn select_projected(
        &self,
        query: &Query,
        projection: &Projection,
    ) -> Result<Vec<Tuple>, PhError> {
        let relation = self.select(query)?;
        exec::project(&relation, projection).map_err(PhError::from)
    }

    /// Encrypts and appends one tuple (incremental insert).
    ///
    /// # Errors
    /// Fails on validation or server rejection.
    pub fn insert(&mut self, tuple: &Tuple) -> Result<(), PhError> {
        let (doc_id, words) = self
            .ph
            .encrypt_rows(self.next_doc_id, std::slice::from_ref(tuple))?
            .to_docs()
            .pop()
            .expect("one row in, one document out");
        self.expect_ok(&ClientMessage::Append {
            name: self.table_name.clone(),
            doc_id,
            words,
        })?;
        self.next_doc_id = doc_id + 1;
        Ok(())
    }

    /// Encrypts and appends a batch of tuples in **one** round-trip.
    /// The server applies the batch atomically (all ids fresh or
    /// nothing stored) and records one `Append` event per tuple, just
    /// as `tuples.len()` calls to [`Self::insert`] would.
    ///
    /// # Errors
    /// Fails on validation or server rejection; on rejection no tuple
    /// of the batch was stored.
    pub fn insert_many(&mut self, tuples: &[Tuple]) -> Result<(), PhError> {
        if tuples.is_empty() {
            return Ok(());
        }
        let docs = self.ph.encrypt_rows(self.next_doc_id, tuples)?.to_docs();
        self.expect_ok(&ClientMessage::AppendBatch {
            name: self.table_name.clone(),
            docs,
        })?;
        self.next_doc_id += tuples.len() as u64;
        Ok(())
    }

    /// Deletes the tuples matching `query`, returning how many were
    /// removed. Two phases: the server returns the *candidate* set for
    /// the encrypted query (which may contain false positives); the
    /// client decrypts, re-checks the plaintext predicate, and sends
    /// back only the confirmed document ids. A false positive is
    /// therefore never deleted.
    ///
    /// # Errors
    /// Fails on binding, protocol, or decryption errors.
    pub fn delete(&self, query: &Query) -> Result<usize, PhError> {
        let qct = self.ph.encrypt_query(query)?;
        let terms = qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect();
        let candidates = self.expect_table(&ClientMessage::Query {
            name: self.table_name.clone(),
            terms,
        })?;

        // Confirm: decrypt each candidate and re-check exactly.
        let indices = query.bind(self.ph.schema())?;
        let confirmed: Vec<u64> = self
            .ph
            .decrypt_docs(&candidates)?
            .into_iter()
            .filter(|(_, tuple)| query.matches(tuple, &indices))
            .map(|(id, _)| id)
            .collect();
        let removed = confirmed.len();
        if removed > 0 {
            self.expect_ok(&ClientMessage::DeleteDocs {
                name: self.table_name.clone(),
                doc_ids: confirmed,
            })?;
        }
        Ok(removed)
    }

    /// Tuples per `AppendBatch` on the rekey re-upload path: large
    /// enough to amortize round-trips, small enough that no single
    /// upload frame grows with the table.
    const REKEY_BATCH_ROWS: usize = 512;

    /// Rotates the master key. Both directions of the transfer are
    /// chunked so no frame ever scales with the table: the old
    /// ciphertext streams down as [`ClientMessage::FetchChunk`] pages,
    /// and the re-encrypted table streams back up as an empty
    /// `CreateTable` followed by bounded `AppendBatch` messages. The
    /// server copy is replaced from the client's perspective
    /// (drop + create + appends).
    ///
    /// # Errors
    /// Fails on protocol or decryption errors; on failure the old
    /// table may already be dropped — callers wanting stronger
    /// atomicity should snapshot first: [`Self::fetch_table_chunked`],
    /// then `dbph_core::snapshot::export`.
    pub fn rekey(&mut self, new_ph: FinalSwpPh) -> Result<(), PhError> {
        if new_ph.schema() != self.ph.schema() {
            return Err(PhError::SchemaMismatch {
                expected: self.ph.schema().to_string(),
                actual: new_ph.schema().to_string(),
            });
        }
        let table = self.fetch_table_chunked(DEFAULT_CHUNK_BYTES)?;
        let plaintext = self.ph.decrypt_table(&table)?;
        self.drop_table()?;
        self.ph = new_ph;
        self.outsource(&Relation::empty(plaintext.schema().clone()))?;
        for rows in plaintext.tuples().chunks(Self::REKEY_BATCH_ROWS) {
            self.insert_many(rows)?;
        }
        Ok(())
    }

    /// Downloads the whole table ciphertext as a bounded-chunk stream
    /// ([`ClientMessage::FetchChunk`] with a positional continuation
    /// token) and reassembles it — byte-identical to what a monolithic
    /// [`ClientMessage::FetchAll`] would return, but no single frame
    /// exceeds `chunk_bytes` plus one document, so tables beyond the
    /// transport's frame cap stream through where `FetchAll` could not
    /// even be framed.
    ///
    /// # Errors
    /// Fails on protocol errors, or if the server's continuation
    /// tokens ever stall or regress (a violation of the chunk
    /// contract).
    pub fn fetch_table_chunked(
        &self,
        chunk_bytes: u64,
    ) -> Result<crate::swp_ph::EncryptedTable, PhError> {
        let mut token = 0u64;
        let mut assembled: Option<crate::swp_ph::EncryptedTable> = None;
        loop {
            let (chunk, next) = self.expect_chunk(&ClientMessage::FetchChunk {
                name: self.table_name.clone(),
                token,
                max_bytes: chunk_bytes,
            })?;
            assembled = Some(match assembled {
                None => chunk,
                Some(mut table) => {
                    if table.params != chunk.params {
                        return Err(PhError::Protocol(
                            "table parameters changed mid-stream".into(),
                        ));
                    }
                    table.docs.extend(chunk.docs);
                    table.next_doc_id = chunk.next_doc_id;
                    table
                }
            });
            match next {
                Some(n) if n > token => token = n,
                Some(n) => {
                    return Err(PhError::Protocol(format!(
                        "chunk stream stalled: token {n} after {token}"
                    )))
                }
                None => return Ok(assembled.expect("at least one chunk")),
            }
        }
    }

    /// Downloads the table as a chunked stream and decrypts it — the
    /// bounded-frame sibling of [`Self::fetch_all`].
    ///
    /// # Errors
    /// As [`Self::fetch_table_chunked`], plus decryption errors.
    pub fn fetch_all_chunked(&self, chunk_bytes: u64) -> Result<Relation, PhError> {
        let table = self.fetch_table_chunked(chunk_bytes)?;
        self.ph.decrypt_table(&table)
    }

    /// Downloads and decrypts the whole table.
    ///
    /// # Errors
    /// Fails on protocol or decryption errors.
    pub fn fetch_all(&self) -> Result<Relation, PhError> {
        let table = self.expect_table(&ClientMessage::FetchAll {
            name: self.table_name.clone(),
        })?;
        self.ph.decrypt_table(&table)
    }

    /// Drops the outsourced table.
    ///
    /// # Errors
    /// Fails on server rejection.
    pub fn drop_table(&self) -> Result<(), PhError> {
        self.expect_ok(&ClientMessage::DropTable {
            name: self.table_name.clone(),
        })
    }
}

/// Unions the candidate tables of a batch by document id, in
/// ascending id order, so a document that several queries return is
/// decrypted once.
fn union_by_doc_id(
    params: dbph_swp::SwpParams,
    tables: Vec<crate::swp_ph::EncryptedTable>,
) -> crate::swp_ph::EncryptedTable {
    let mut docs = std::collections::BTreeMap::new();
    let mut next_doc_id = 0;
    for table in tables {
        next_doc_id = next_doc_id.max(table.next_doc_id);
        for (doc_id, words) in table.docs {
            docs.entry(doc_id).or_insert(words);
        }
    }
    crate::swp_ph::EncryptedTable {
        params,
        docs: docs.into_iter().collect(),
        next_doc_id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use dbph_crypto::SecretKey;
    use dbph_relation::schema::emp_schema;
    use dbph_relation::{tuple, Value};

    fn setup() -> (Client, Server) {
        let server = Server::open(
            &ServerConfig {
                transcript: true,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        let ph = FinalSwpPh::new(emp_schema(), &SecretKey::from_bytes([11u8; 32])).unwrap();
        (Client::new(ph, server.clone()), server)
    }

    fn emp() -> Relation {
        Relation::from_tuples(
            emp_schema(),
            vec![
                tuple!["Montgomery", "HR", 7500i64],
                tuple!["Smith", "IT", 4900i64],
                tuple!["Jones", "IT", 1200i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn outsource_select_roundtrip() {
        let (mut client, _server) = setup();
        client.outsource(&emp()).unwrap();
        let result = client.select(&Query::select("dept", "IT")).unwrap();
        assert_eq!(result.len(), 2);
        let all = client.fetch_all().unwrap();
        assert!(all.same_multiset(&emp()));
    }

    #[test]
    fn insert_then_select() {
        let (mut client, _server) = setup();
        client.outsource(&emp()).unwrap();
        client.insert(&tuple!["Kim", "HR", 9000i64]).unwrap();
        client.insert(&tuple!["Lee", "IT", 9000i64]).unwrap();
        let result = client.select(&Query::select("salary", 9000i64)).unwrap();
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn select_many_matches_individual_selects() {
        for workers in [1, 4] {
            let server = Server::open(
                &ServerConfig {
                    workers: Some(workers),
                    transcript: true,
                    ..ServerConfig::default()
                },
                None,
            )
            .unwrap();
            let ph = FinalSwpPh::new(emp_schema(), &SecretKey::from_bytes([11u8; 32])).unwrap();
            let mut client = Client::new(ph, server.clone());
            client.outsource(&emp()).unwrap();
            let queries = [
                Query::select("dept", "IT"),
                Query::select("name", "Montgomery"),
                Query::select("salary", 9999i64),
            ];
            let batched = client.select_many(&queries).unwrap();
            assert_eq!(batched.len(), 3);
            for (query, batch_result) in queries.iter().zip(&batched) {
                let single = client.select(query).unwrap();
                assert!(
                    batch_result.same_multiset(&single),
                    "batched result diverged for {query} at {workers} worker(s)"
                );
            }
            // One transcript event per batched query, plus the three
            // singles re-run above.
            assert_eq!(server.observer().queries().len(), 6);
        }
    }

    #[test]
    fn select_many_empty_is_empty() {
        let (mut client, _server) = setup();
        client.outsource(&emp()).unwrap();
        assert!(client.select_many(&[]).unwrap().is_empty());
    }

    #[test]
    fn insert_many_matches_repeated_insert() {
        let (mut client, server) = setup();
        client.outsource(&emp()).unwrap();
        client
            .insert_many(&[
                tuple!["Kim", "HR", 9000i64],
                tuple!["Lee", "IT", 9000i64],
                tuple!["Park", "IT", 1200i64],
            ])
            .unwrap();
        let result = client.select(&Query::select("salary", 9000i64)).unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(client.fetch_all().unwrap().len(), 6);
        // Exactly one Append event per inserted tuple.
        let appends = server
            .observer()
            .events()
            .iter()
            .filter(|e| matches!(e, crate::server::ServerEvent::Append { .. }))
            .count();
        assert_eq!(appends, 3);
        // Follow-up single inserts continue from the batch's ids.
        client.insert(&tuple!["Choi", "HR", 1i64]).unwrap();
        assert_eq!(client.fetch_all().unwrap().len(), 7);
    }

    #[test]
    fn projection() {
        let (mut client, _server) = setup();
        client.outsource(&emp()).unwrap();
        let rows = client
            .select_projected(
                &Query::select("dept", "IT"),
                &Projection::Columns(vec!["name".into()]),
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.arity() == 1));
    }

    #[test]
    fn server_sees_only_ciphertext() {
        // The transcript must not contain the plaintext anywhere.
        let (mut client, server) = setup();
        client.outsource(&emp()).unwrap();
        client.select(&Query::select("name", "Montgomery")).unwrap();

        let events = server.observer().events();
        let rendered = format!("{events:?}");
        assert!(
            !rendered.contains("Montgomery"),
            "plaintext leaked to server"
        );
        assert!(!rendered.contains("7500"));
    }

    #[test]
    fn server_observes_access_pattern() {
        // …but Eve *does* learn which documents matched — the paper's
        // unavoidable leak.
        let (mut client, server) = setup();
        client.outsource(&emp()).unwrap();
        client.select(&Query::select("dept", "IT")).unwrap();
        let queries = server.observer().queries();
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].1.len(), 2, "two IT tuples matched");
    }

    #[test]
    fn a_rejected_outsource_keeps_the_doc_id_counter() {
        // Re-outsourcing over a live table is refused ("table
        // exists"); the client must keep numbering after the rows the
        // server still holds, not restart at the rejected upload's.
        let (mut client, _server) = setup();
        client.outsource(&emp()).unwrap();
        client.insert(&tuple!["Kim", "HR", 3100i64]).unwrap();
        assert!(client.outsource(&emp()).is_err());
        client.insert(&tuple!["Lee", "HR", 3200i64]).unwrap();
        let hr = client.select(&Query::select("dept", "HR")).unwrap();
        let names: Vec<_> = hr
            .tuples()
            .iter()
            .map(|t| t.get(0).unwrap().clone())
            .collect();
        assert_eq!(hr.len(), 3, "{names:?}");
        assert!(names.contains(&Value::str("Lee")));
    }

    #[test]
    fn drop_table_removes_state() {
        let (mut client, _server) = setup();
        client.outsource(&emp()).unwrap();
        client.drop_table().unwrap();
        assert!(client.fetch_all().is_err());
    }

    #[test]
    fn select_errors_on_unknown_attribute() {
        let (mut client, _server) = setup();
        client.outsource(&emp()).unwrap();
        assert!(client.select(&Query::select("missing", 1i64)).is_err());
    }

    #[test]
    fn empty_result_is_empty_relation() {
        let (mut client, _server) = setup();
        client.outsource(&emp()).unwrap();
        let r = client.select(&Query::select("name", "Nobody")).unwrap();
        assert!(r.is_empty());
        assert_eq!(r.schema(), &emp_schema());
    }

    #[test]
    fn two_clients_different_keys_cannot_read_each_other() {
        let server = Server::open(&ServerConfig::default(), None).unwrap();
        let ph1 = FinalSwpPh::new(emp_schema(), &SecretKey::from_bytes([1u8; 32])).unwrap();
        let mut c1 = Client::new(ph1, server.clone());
        c1.outsource(&emp()).unwrap();

        // Client 2 shares the server but has a different key; fetching
        // c1's table must not yield the plaintext.
        let ph2 = FinalSwpPh::new(emp_schema(), &SecretKey::from_bytes([2u8; 32])).unwrap();
        let c2 = Client::new(ph2, server);
        if let Ok(r) = c2.fetch_all() {
            assert!(!r.same_multiset(&emp()))
        }
    }

    #[test]
    fn select_dnf_unions_without_duplicates() {
        let (mut client, _server) = setup();
        client.outsource(&emp()).unwrap();
        // salary = 4900 OR dept = 'IT': Smith matches both disjuncts.
        let dnf = Dnf::new(vec![
            Query::select("salary", 4900i64),
            Query::select("dept", "IT"),
        ])
        .unwrap();
        let result = client.select_dnf(&dnf).unwrap();
        let expected = dbph_relation::dnf::select_dnf(&emp(), &dnf).unwrap();
        assert!(result.same_multiset(&expected));
        assert_eq!(result.len(), 2); // Smith + Jones
    }

    #[test]
    fn union_by_doc_id_keeps_each_document_once() {
        let params = dbph_swp::SwpParams::new(13, 4, 32).unwrap();
        let table = |ids: &[u64], next_doc_id: u64| crate::swp_ph::EncryptedTable {
            params,
            docs: ids
                .iter()
                .map(|&id| (id, vec![dbph_swp::CipherWord(vec![id as u8; 13])]))
                .collect(),
            next_doc_id,
        };
        let union = union_by_doc_id(
            params,
            vec![
                table(&[1, 4, 7], 9),
                table(&[], 9),
                table(&[0, 4, 8], 9),
                table(&[7, 1, 2], 9),
            ],
        );
        assert_eq!(union.doc_ids(), vec![0, 1, 2, 4, 7, 8]);
        for (id, words) in &union.docs {
            assert_eq!(words, &vec![dbph_swp::CipherWord(vec![*id as u8; 13])]);
        }
        assert_eq!(union.next_doc_id, 9);
        assert_eq!(union.params, params);
    }

    #[test]
    fn select_dnf_single_disjunct_matches_plain_select() {
        let (mut client, _server) = setup();
        client.outsource(&emp()).unwrap();
        let q = Query::select("dept", "IT");
        let via_dnf = client.select_dnf(&Dnf::single(q.clone())).unwrap();
        let direct = client.select(&q).unwrap();
        assert!(via_dnf.same_multiset(&direct));
    }

    #[test]
    fn delete_removes_exact_matches_only() {
        let (mut client, _server) = setup();
        client.outsource(&emp()).unwrap();
        let removed = client.delete(&Query::select("dept", "IT")).unwrap();
        assert_eq!(removed, 2);
        let rest = client.fetch_all().unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest.tuples()[0].get(0), Some(&Value::str("Montgomery")));
        // Deleting again removes nothing.
        assert_eq!(client.delete(&Query::select("dept", "IT")).unwrap(), 0);
    }

    #[test]
    fn delete_never_removes_false_positives() {
        use dbph_swp::SwpParams;
        // 2-bit checks: the server's candidate set is a large superset;
        // the confirmed delete must still remove only true matches.
        let server = Server::open(&ServerConfig::default(), None).unwrap();
        let codec_len = crate::encoding::WordCodec::new(emp_schema()).word_len();
        let params = SwpParams::new(codec_len, 4, 2).unwrap();
        let ph = FinalSwpPh::with_params(emp_schema(), &SecretKey::from_bytes([44u8; 32]), params)
            .unwrap();
        let mut client = Client::new(ph, server);
        let mut big = Relation::empty(emp_schema());
        for i in 0..200i64 {
            big.insert(tuple![format!("e{i:03}"), "IT", i]).unwrap();
        }
        big.insert(tuple!["victim", "HR", 9999i64]).unwrap();
        client.outsource(&big).unwrap();

        let removed = client.delete(&Query::select("dept", "HR")).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(client.fetch_all().unwrap().len(), 200);
    }

    #[test]
    fn select_dnf_filters_false_positives() {
        use dbph_crypto::{DeterministicRng, EntropySource};
        use dbph_relation::dnf::select_dnf;
        use dbph_relation::ExactSelect;
        use dbph_swp::SwpParams;
        // 3-bit checks: each disjunct's candidate set is a large
        // superset of its matches, and the disjuncts overlap, so one
        // tuple can arrive as a true match of one disjunct and a false
        // positive of another.
        let server = Server::open(&ServerConfig::default(), None).unwrap();
        let codec_len = crate::encoding::WordCodec::new(emp_schema()).word_len();
        let params = SwpParams::new(codec_len, 4, 3).unwrap();
        let ph = FinalSwpPh::with_params(emp_schema(), &SecretKey::from_bytes([45u8; 32]), params)
            .unwrap();
        let mut client = Client::new(ph, server);
        let mut rng = DeterministicRng::from_seed(35);
        let depts = ["HR", "IT", "Ops", "Eng"];
        let mut plain = Relation::empty(emp_schema());
        for i in 0..300i64 {
            let dept = depts[rng.below(4) as usize];
            let salary = rng.below(6) as i64;
            plain
                .insert(tuple![format!("e{i:03}"), dept, salary])
                .unwrap();
        }
        client.outsource(&plain).unwrap();

        let dnf = Dnf::new(vec![
            Query::select("dept", "IT"),
            Query::select("salary", 3i64),
            Query::conjunction(vec![
                ExactSelect::new("dept", "IT"),
                ExactSelect::new("salary", 3i64),
            ])
            .unwrap(),
        ])
        .unwrap();
        let got = client.select_dnf(&dnf).unwrap();
        let want = select_dnf(&plain, &dnf).unwrap();
        assert!(got.same_multiset(&want));

        let mut false_positives = 0;
        for query in dnf.disjuncts() {
            let qct = client.ph.encrypt_query(query).unwrap();
            let candidates = client
                .expect_table(&ClientMessage::Query {
                    name: client.table_name().to_string(),
                    terms: qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect(),
                })
                .unwrap();
            let exact = exec::select(&plain, query).unwrap().len();
            assert!(candidates.len() >= exact, "ψ has no false negatives");
            false_positives += candidates.len() - exact;
        }
        assert!(
            false_positives >= 50,
            "only {false_positives} false positives at 3 check bits"
        );
    }

    #[test]
    fn chunked_fetch_equals_monolithic_fetch() {
        let server = Server::open(
            &ServerConfig {
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        let ph = FinalSwpPh::new(emp_schema(), &SecretKey::from_bytes([11u8; 32])).unwrap();
        let mut client = Client::new(ph, server);
        client.outsource(&emp()).unwrap();
        // The monolithic path and the chunked path (tiny budget: one
        // doc per chunk) must reassemble the identical ciphertext.
        let whole = client
            .expect_table(&ClientMessage::FetchAll {
                name: client.table_name().to_string(),
            })
            .unwrap();
        for chunk_bytes in [1u64, 200, 1 << 20] {
            let streamed = client.fetch_table_chunked(chunk_bytes).unwrap();
            assert_eq!(streamed, whole, "chunked fetch diverged at {chunk_bytes} B");
        }
        assert!(client.fetch_all_chunked(64).unwrap().same_multiset(&emp()));
    }

    #[test]
    fn export_snapshot_streams_and_imports_back() {
        let (mut client, _server) = setup();
        client.outsource(&emp()).unwrap();
        let streamed = client.fetch_table_chunked(128).unwrap();
        let blob = crate::snapshot::export(client.table_name(), &streamed);
        let (name, table) = crate::snapshot::import(&blob).unwrap();
        assert_eq!(name, client.table_name());
        // The snapshot holds the exact ciphertext a FetchAll returns.
        let whole = client
            .expect_table(&ClientMessage::FetchAll { name })
            .unwrap();
        assert_eq!(table, whole);
    }

    #[test]
    fn chunked_fetch_unknown_table_errors() {
        let (client, _server) = setup();
        assert!(client.fetch_table_chunked(1024).is_err());
    }

    #[test]
    fn rekey_preserves_data_and_invalidates_old_key() {
        let (mut client, server) = setup();
        client.outsource(&emp()).unwrap();
        let new_ph = FinalSwpPh::new(emp_schema(), &SecretKey::from_bytes([222u8; 32])).unwrap();
        client.rekey(new_ph).unwrap();

        // Data survives under the new key.
        assert!(client.fetch_all().unwrap().same_multiset(&emp()));
        let r = client.select(&Query::select("dept", "IT")).unwrap();
        assert_eq!(r.len(), 2);

        // A reader with the old key can no longer decrypt.
        let old_ph = FinalSwpPh::new(emp_schema(), &SecretKey::from_bytes([11u8; 32])).unwrap();
        let old_reader = Client::new(old_ph, server);
        if let Ok(rel) = old_reader.fetch_all() {
            assert!(!rel.same_multiset(&emp()))
        }
    }

    #[test]
    fn rekey_rejects_schema_change() {
        let (mut client, _server) = setup();
        client.outsource(&emp()).unwrap();
        let other = FinalSwpPh::new(
            dbph_relation::schema::hospital_schema(),
            &SecretKey::from_bytes([5u8; 32]),
        )
        .unwrap();
        assert!(matches!(
            client.rekey(other),
            Err(PhError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn montgomery_worked_example() {
        // §3 end-to-end: σ_name:"Montgomery" over the outsourced Emp.
        let (mut client, _server) = setup();
        client.outsource(&emp()).unwrap();
        let r = client.select(&Query::select("name", "Montgomery")).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].get(2), Some(&Value::int(7500)));
    }
}
