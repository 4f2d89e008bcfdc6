//! The §3 construction: a database PH from searchable encryption.
//!
//! * Each tuple becomes a *document*: one fixed-length word per
//!   attribute (`value | padding | attribute-id`, see
//!   [`crate::encoding`]).
//! * Documents are encrypted word-by-word under a
//!   [`SearchableScheme`]; the collection is the table ciphertext.
//! * An exact select `σ_{a=v}` becomes the trapdoor for the word that
//!   `⟨a:v⟩` would encode to — the paper's
//!   `σ_name:"Montgomery" ↦ φ_"MontgomeryN"` — addressed to `a`'s word
//!   position ([`AddressedTrapdoor`]).
//! * The server's `ψ` checks the trapdoor against word `a` of every
//!   document and returns the sub-collection of matching documents
//!   (including the occasional false positive, which the client
//!   filters after decryption). [`execute_query`] is its one reference
//!   form.
//!
//! Addressing costs the scheme nothing it did not already concede.
//! The encoding suffixes every word with its attribute id, so a
//! trapdoor for `⟨a:v⟩` can truly match only at position `a`; a match
//! anywhere else is a false positive the client would discard. What
//! addressing does reveal is the attribute of *every* query, where
//! the all-words scan revealed it only for queries that matched
//! (Eve could see which word matched). `crates/games`'
//! attribute attack measures that difference.
//!
//! `SwpPh` is generic over the searchable scheme, mirroring the
//! paper's "others can be used instead"; [`FinalSwpPh`] fixes the SWP
//! final scheme, the only variant that can also decrypt.
//!
//! Alex's two bulk costs are row-independent, and both use every
//! core of the client machine. Encryption (outsourcing, appends,
//! `insert_many`, rekey) goes through one helper,
//! [`SwpPh::encrypt_rows`]: rows are encoded and encrypted sixteen
//! words per dispatch
//! ([`SearchableScheme::encrypt_documents`], the final scheme's
//! encryption lanes), and at [`PARALLEL_ENCRYPT_ROWS`] rows or more
//! they are also split over a client pool private to this module.
//! Results of at least [`PARALLEL_DECRYPT_ROWS`] rows decrypt on the
//! same pool. Both fan out through one chunking helper, in bounded
//! waves of [`FAN_OUT_WAVE_ROWS`] rows, so a job copies at most its
//! share of one wave, never half a table. Rows, errors and wire bytes
//! are those of the one-row-at-a-time path: ciphertexts are pinned
//! bit-identical (`ciphertext_and_trapdoor_bytes_are_pinned`), so how
//! fast Alex encrypts is nothing Eve can see in the stored bytes.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use dbph_crypto::SecretKey;
use dbph_relation::{Query, Relation, Schema, Tuple};
use dbph_swp::kernel::LANES;
use dbph_swp::{
    matches, CipherWord, FinalScheme, Location, SearchableScheme, SwpParams, TrapdoorData,
};

use crate::arena::WordArena;
use crate::encoding::WordCodec;
use crate::error::PhError;
use crate::executor::Executor;
use crate::ph::{DatabasePh, IncrementalPh};
use crate::protocol::WireTrapdoor;

/// Results with at least this many rows decrypt in parallel. Below it,
/// waking a worker costs more than the rows it would take. Measured on
/// a 2-vCPU SHA-NI host with the one-block HMAC path, where one `Emp`
/// row decrypts in 5.7–6.1 µs (7.2–7.3 µs with buffered HMAC on the
/// same host): serial time over fan-out time was 0.59–0.67 at 4 rows,
/// 0.81–0.96 at 8, 0.93–1.05 at 12, 1.04–1.27 at 16, 1.16–1.31 at 24
/// and 1.29–1.53 at 78.
pub const PARALLEL_DECRYPT_ROWS: usize = 16;

/// Encryptions of at least this many rows also split over the client
/// pool; below it they run on the caller's thread, in lanes only.
/// Measured on a 2-vCPU AVX-512 host with the lanes, where one `Emp`
/// row encrypts in about 1.6–1.9 µs: serial time over fan-out time
/// (medians of nine) was 0.67 at 16 rows, 0.94 at 32, 1.00 at 48,
/// 1.21 at 64, 1.31 at 96 and 1.57 at 256. So a 16-row
/// `insert_many` stays on the caller's thread. A batch below one
/// [`FAN_OUT_WAVE_ROWS`] wave is one wave at any wave size, so the
/// wave size leaves this trade alone. Re-measured with 1,024-row waves
/// on the same kind of host (medians of seven): 1.13 at 64, 1.31 at
/// 128, 1.34 at 256, 1.46 at 512 and 1.46 at 1,024; an earlier set
/// under heavier load read 0.80 at 64 and 0.88 at 128.
pub const PARALLEL_ENCRYPT_ROWS: usize = 64;

/// Rows per fan-out wave: a wave's rows are split over the pool, one
/// contiguous chunk per core, and each job copies only its chunk.
/// Every wave pays two cross-thread wake-ups (scatter and join).
/// Measured on a 2-vCPU AVX-512 host: `encrypt_columnar` of 20,000
/// `Emp` rows, medians of five interleaved rounds of nine, took
/// 48.6 ms serial and 38.0 / 35.6 / 33.8 / 34.1 / 32.9 ms at 256 /
/// 512 / 1,024 / 2,048 / 4,096 rows per wave. Past 1,024 the gain is
/// inside the noise while each job's copy keeps growing.
pub const FAN_OUT_WAVE_ROWS: usize = 1024;

/// Alex's pool for row encryption and result decryption, built on
/// first use with one
/// worker per core. It is not [`Executor::global`]: when a client and
/// a server share a process, the client's work must stay out of the
/// server's `exec_*` counters.
fn client_pool() -> &'static Executor {
    static POOL: OnceLock<Executor> = OnceLock::new();
    POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Executor::new(cores)
    })
}

/// An encrypted table: per-tuple documents of cipher words. This is
/// exactly what Eve stores — no plaintext, no key material, but a
/// visible tuple count and visible document identities.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncryptedTable {
    /// SWP parameters (public; the server needs them to run `ψ`).
    pub params: SwpParams,
    /// One entry per tuple: `(document id, cipher words in attribute
    /// order)`. Document ids are assigned at encryption time and are
    /// stable under `ψ` (a result is a sub-multiset of the input).
    pub docs: Vec<(u64, Vec<CipherWord>)>,
    /// Next fresh document id (monotone; supports appends).
    pub next_doc_id: u64,
}

impl EncryptedTable {
    /// Number of encrypted tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the table ciphertext holds no tuples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The document ids present (what a result set reveals to Eve).
    #[must_use]
    pub fn doc_ids(&self) -> Vec<u64> {
        self.docs.iter().map(|(id, _)| *id).collect()
    }

    /// Total ciphertext size in bytes (words only, excluding ids) —
    /// used by the encoding benches.
    #[must_use]
    pub fn ciphertext_bytes(&self) -> usize {
        self.docs
            .iter()
            .map(|(_, words)| words.iter().map(|w| w.0.len()).sum::<usize>())
            .sum()
    }
}

/// An encrypted table in the shape Eve stores it: the documents of an
/// [`EncryptedTable`] held in one [`WordArena`] (a contiguous slot
/// buffer, per-document offsets and ids, and a verbatim side list for
/// irregular words) instead of one boxed [`CipherWord`] per word.
/// Uploads travel in this shape: Alex's encryption lanes write it
/// ([`SwpPh::encrypt_columnar`]), [`crate::protocol::ClientMessage::CreateTable`]
/// carries it, and Eve cuts her shards from it. Its wire bytes are
/// exactly those of the equal [`EncryptedTable`], and `From` converts
/// either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarTable {
    /// SWP parameters; `docs` has their `word_len` as slot width.
    pub params: SwpParams,
    /// The documents, in table order.
    pub docs: WordArena,
    /// Next fresh document id.
    pub next_doc_id: u64,
}

impl From<EncryptedTable> for ColumnarTable {
    fn from(table: EncryptedTable) -> Self {
        ColumnarTable {
            params: table.params,
            docs: WordArena::from_docs(table.params.word_len, table.docs),
            next_doc_id: table.next_doc_id,
        }
    }
}

impl From<ColumnarTable> for EncryptedTable {
    fn from(table: ColumnarTable) -> Self {
        EncryptedTable {
            params: table.params,
            docs: table.docs.to_docs(),
            next_doc_id: table.next_doc_id,
        }
    }
}

/// One conjunction term: a trapdoor and the attribute position it
/// targets. `ψ` checks the trapdoor against word `attr` of each
/// document and nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressedTrapdoor<T> {
    /// The attribute index, which is also the word position.
    pub attr: u8,
    /// The scheme trapdoor for the encoded `⟨attr:value⟩` word.
    pub trapdoor: T,
}

impl<T: TrapdoorData> TrapdoorData for AddressedTrapdoor<T> {
    fn target(&self) -> &[u8] {
        self.trapdoor.target()
    }
    fn check_key(&self) -> &[u8] {
        self.trapdoor.check_key()
    }
}

/// `ψ` in single-threaded reference form: keep the documents where
/// every term passes the keyless check against the cipher word at its
/// attribute's position. A document too short for a term's `attr`
/// fails that term; a wrong-length word there is rejected by the check
/// itself. A free function over ciphertext: no key, no scheme type,
/// just the public parameters and the received terms.
///
/// This is the one reference `ψ`. [`SwpPh`]'s [`DatabasePh::apply`]
/// runs it, and Eve's engine
/// ([`crate::storage::ShardedTable::scan_batch_on`] and the index
/// probes) must return exactly its output for every query of a batch;
/// the conformance suites and the `shard_scan` bench hold it to that.
#[must_use]
pub fn execute_query(table: &EncryptedTable, terms: &[WireTrapdoor]) -> EncryptedTable {
    let docs = table
        .docs
        .iter()
        .filter(|(_, words)| {
            terms.iter().all(|t| {
                words
                    .get(usize::from(t.attr))
                    .is_some_and(|cw| matches(&table.params, t, cw))
            })
        })
        .cloned()
        .collect();
    EncryptedTable {
        params: table.params,
        docs,
        next_doc_id: table.next_doc_id,
    }
}

/// An encrypted query: one addressed trapdoor per conjunction term.
/// The server intersects per-term document matches.
#[derive(Clone)]
pub struct EncryptedQuery<T> {
    /// Per-term addressed trapdoors, in query-term order.
    pub terms: Vec<AddressedTrapdoor<T>>,
}

/// The §3 database PH over a searchable scheme `S`.
#[derive(Clone)]
pub struct SwpPh<S: SearchableScheme> {
    scheme: S,
    codec: WordCodec,
    name: &'static str,
}

/// The paper's reference instantiation: `SwpPh` over the SWP final
/// scheme (trapdoors hide the word, tables decrypt).
pub type FinalSwpPh = SwpPh<FinalScheme>;

impl FinalSwpPh {
    /// Builds the reference construction for `schema` under `master`,
    /// with the codec's default parameters (negligible false-positive
    /// rate).
    ///
    /// # Errors
    /// Fails only for schemas too narrow for the default check block.
    pub fn new(schema: Schema, master: &SecretKey) -> Result<Self, PhError> {
        let codec = WordCodec::new(schema);
        let params = codec.swp_params()?;
        Ok(SwpPh {
            scheme: FinalScheme::new(params, master),
            codec,
            name: "swp-final",
        })
    }

    /// Builds the construction with explicit SWP parameters (used by
    /// the false-positive experiments, which dial `check_bits` down to
    /// measurable rates).
    ///
    /// # Errors
    /// Fails when `params.word_len` does not match the codec's word
    /// length.
    pub fn with_params(
        schema: Schema,
        master: &SecretKey,
        params: SwpParams,
    ) -> Result<Self, PhError> {
        let codec = WordCodec::new(schema);
        if params.word_len != codec.word_len() {
            return Err(PhError::Swp(dbph_swp::SwpError::BadParams(
                "params.word_len must equal the codec word length",
            )));
        }
        Ok(SwpPh {
            scheme: FinalScheme::new(params, master),
            codec,
            name: "swp-final",
        })
    }
}

impl<S: SearchableScheme> SwpPh<S> {
    /// Wraps an arbitrary searchable scheme (used by the ablation
    /// benches over SWP schemes I–III).
    ///
    /// # Errors
    /// Fails when the scheme's word length does not match the schema's
    /// codec.
    pub fn over_scheme(schema: Schema, scheme: S, name: &'static str) -> Result<Self, PhError> {
        let codec = WordCodec::new(schema);
        if scheme.params().word_len != codec.word_len() {
            return Err(PhError::Swp(dbph_swp::SwpError::BadParams(
                "scheme word length must equal the codec word length",
            )));
        }
        Ok(SwpPh {
            scheme,
            codec,
            name,
        })
    }

    /// The underlying codec (exposed for the experiment binaries).
    #[must_use]
    pub fn codec(&self) -> &WordCodec {
        &self.codec
    }

    /// The underlying scheme's parameters.
    #[must_use]
    pub fn params(&self) -> &SwpParams {
        self.scheme.params()
    }

    /// Decrypts each document of `table` alongside its document id —
    /// the client-side primitive behind confirmed (two-phase) deletes,
    /// where Alex must map decrypted tuples back to server-side ids,
    /// and the body of [`DatabasePh::decrypt_table`]. Each tuple is
    /// validated against the schema.
    ///
    /// At [`PARALLEL_DECRYPT_ROWS`] rows or more, contiguous chunks
    /// (one per core) run on the client pool, the calling thread
    /// working one of them. The rows come back in their original
    /// order, and the error, if any, is the first failing row's, as
    /// when decrypting one row at a time.
    ///
    /// # Errors
    /// Fails on corrupt ciphertexts or non-decryptable schemes.
    pub fn decrypt_docs(&self, table: &EncryptedTable) -> Result<Vec<(u64, Tuple)>, PhError> {
        self.fan_out(&table.docs, PARALLEL_DECRYPT_ROWS, |ph, _, docs| {
            ph.decrypt_serial(docs)
        })
    }

    /// Runs `work(ph, offset, chunk)` over `items`, where `offset` is
    /// the chunk's position in `items`, and concatenates the results.
    /// Below `threshold` items, or on a one-core machine, that is one
    /// call on the calling thread. Otherwise the items go in waves of
    /// [`FAN_OUT_WAVE_ROWS`], each split into one contiguous chunk per
    /// core on the client pool (the calling thread works one); a job
    /// copies only its own chunk. `work` stops at its chunk's first
    /// error, chunks are joined in order and a wave starts only after
    /// the last one succeeded, so the error returned is the first
    /// failing item's, as when running serially.
    fn fan_out<T, R, F>(&self, items: &[T], threshold: usize, work: F) -> Result<Vec<R>, PhError>
    where
        T: Clone + Send + 'static,
        R: Send + 'static,
        F: Fn(&Self, usize, &[T]) -> Result<Vec<R>, PhError> + Clone + Send + 'static,
    {
        // Short-circuits, so the pool is built only once a batch is
        // large enough to use it.
        if items.len() < threshold || client_pool().workers() <= 1 {
            return work(self, 0, items);
        }
        let pool = client_pool();
        let ph = Arc::new(self.clone());
        let mut out = Vec::with_capacity(items.len());
        for (w, wave) in items.chunks(FAN_OUT_WAVE_ROWS).enumerate() {
            let size = wave.len().div_ceil(pool.workers());
            let jobs = wave
                .chunks(size)
                .enumerate()
                .map(|(c, chunk)| {
                    let (ph, work) = (Arc::clone(&ph), work.clone());
                    let offset = w * FAN_OUT_WAVE_ROWS + c * size;
                    let chunk = chunk.to_vec();
                    move || work(&ph, offset, &chunk)
                })
                .collect();
            for chunk in pool.scatter(jobs) {
                out.extend(chunk?);
            }
        }
        Ok(out)
    }

    /// Encrypts `relation` as a fresh table image, documents `0..n` —
    /// the upload [`crate::Client::outsource`] sends as it stands.
    ///
    /// # Errors
    /// Fails on schema mismatch or encoding errors.
    pub fn encrypt_columnar(&self, relation: &Relation) -> Result<ColumnarTable, PhError> {
        self.check_schema(relation)?;
        Ok(ColumnarTable {
            params: *self.scheme.params(),
            docs: self.encrypt_rows(0, relation.tuples())?,
            next_doc_id: relation.len() as u64,
        })
    }

    /// Encrypts `tuples` as documents `first_doc_id`,
    /// `first_doc_id + 1`, …: each is validated against the schema,
    /// encoded, and encrypted through
    /// [`SearchableScheme::encrypt_documents`]. This is the one
    /// row-encryption path: `encrypt_columnar` (so `encrypt_table`),
    /// `append_tuple`, `Client::insert` and `Client::insert_many` (so
    /// `rekey`) all take it. At [`PARALLEL_ENCRYPT_ROWS`] rows or more
    /// the rows are split over the client pool. The error, if any, is
    /// the first failing row's.
    ///
    /// The lanes' flat output, gathered on the calling thread (so its
    /// pages live in that thread's malloc arena, not a worker's),
    /// becomes the arena's slot buffer as it stands: no cipher word is
    /// allocated on its own. Callers that need boxed documents convert
    /// with [`WordArena::to_docs`].
    ///
    /// # Errors
    /// Fails on schema or encoding errors.
    pub fn encrypt_rows(&self, first_doc_id: u64, tuples: &[Tuple]) -> Result<WordArena, PhError> {
        let flat = self.fan_out(tuples, PARALLEL_ENCRYPT_ROWS, move |ph, offset, rows| {
            ph.encrypt_serial(first_doc_id + offset as u64, rows)
        })?;
        let doc_ids = (first_doc_id..).take(tuples.len()).collect();
        Ok(WordArena::from_rows(
            self.scheme.params().word_len,
            self.codec.schema().arity(),
            doc_ids,
            flat,
        ))
    }

    /// [`Self::encrypt_rows`] on the calling thread, as flat cipher
    /// bytes (every row is `arity` words). Rows go to the scheme
    /// sixteen at a time: whole lane dispatches for any arity, and
    /// only that many encoded rows alive at once.
    fn encrypt_serial(&self, first_doc_id: u64, tuples: &[Tuple]) -> Result<Vec<u8>, PhError> {
        let mut out = Vec::new();
        for (group, rows) in tuples.chunks(LANES).enumerate() {
            let first = first_doc_id + (group * LANES) as u64;
            let docs = rows
                .iter()
                .enumerate()
                .map(|(i, tuple)| {
                    tuple.validate(self.codec.schema())?;
                    Ok((first + i as u64, self.codec.encode_tuple(tuple)?))
                })
                .collect::<Result<Vec<_>, PhError>>()?;
            self.scheme.encrypt_documents(&docs, &mut out)?;
        }
        Ok(out)
    }

    fn decrypt_serial(
        &self,
        docs: &[(u64, Vec<CipherWord>)],
    ) -> Result<Vec<(u64, Tuple)>, PhError> {
        docs.iter()
            .map(|(doc_id, cipher_words)| {
                let words = cipher_words
                    .iter()
                    .enumerate()
                    .map(|(i, cw)| {
                        self.scheme
                            .decrypt_word(Location::new(*doc_id, i as u32), cw)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let tuple = self.codec.decode_tuple(&words)?;
                tuple.validate(self.codec.schema())?;
                Ok((*doc_id, tuple))
            })
            .collect()
    }

    fn check_schema(&self, relation: &Relation) -> Result<(), PhError> {
        if relation.schema() != self.codec.schema() {
            return Err(PhError::SchemaMismatch {
                expected: self.codec.schema().to_string(),
                actual: relation.schema().to_string(),
            });
        }
        Ok(())
    }
}

impl<S: SearchableScheme> DatabasePh for SwpPh<S> {
    type TableCt = EncryptedTable;
    type QueryCt = EncryptedQuery<S::Trapdoor>;

    fn scheme_name(&self) -> &'static str {
        self.name
    }

    fn schema(&self) -> &Schema {
        self.codec.schema()
    }

    fn encrypt_table(&self, relation: &Relation) -> Result<EncryptedTable, PhError> {
        self.encrypt_columnar(relation).map(EncryptedTable::from)
    }

    fn decrypt_table(&self, ciphertext: &EncryptedTable) -> Result<Relation, PhError> {
        let tuples = self
            .decrypt_docs(ciphertext)?
            .into_iter()
            .map(|(_, tuple)| tuple)
            .collect();
        Ok(Relation::from_tuples(self.codec.schema().clone(), tuples)?)
    }

    fn encrypt_query(&self, query: &Query) -> Result<Self::QueryCt, PhError> {
        let words = self.codec.encode_query_terms(query)?;
        let terms = words
            .iter()
            .map(|(attr, w)| {
                Ok(AddressedTrapdoor {
                    attr: *attr,
                    trapdoor: self.scheme.trapdoor(w)?,
                })
            })
            .collect::<Result<Vec<_>, PhError>>()?;
        Ok(EncryptedQuery { terms })
    }

    fn apply(table: &EncryptedTable, query: &Self::QueryCt) -> EncryptedTable {
        let terms: Vec<WireTrapdoor> = query
            .terms
            .iter()
            .map(WireTrapdoor::from_trapdoor)
            .collect();
        execute_query(table, &terms)
    }

    fn ciphertext_len(table: &EncryptedTable) -> usize {
        table.len()
    }

    fn doc_ids(table: &EncryptedTable) -> Vec<u64> {
        table.doc_ids()
    }
}

impl<S: SearchableScheme> IncrementalPh for SwpPh<S> {
    fn append_tuple(
        &self,
        table: &mut EncryptedTable,
        tuple: &dbph_relation::Tuple,
    ) -> Result<(), PhError> {
        let doc = self.encrypt_rows(table.next_doc_id, std::slice::from_ref(tuple))?;
        table.docs.extend(doc.to_docs());
        table.next_doc_id += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ph::check_homomorphism_law;
    use dbph_relation::schema::emp_schema;
    use dbph_relation::{tuple, ExactSelect, Value};

    fn master() -> SecretKey {
        SecretKey::from_bytes([42u8; 32])
    }

    fn emp() -> Relation {
        Relation::from_tuples(
            emp_schema(),
            vec![
                tuple!["Montgomery", "HR", 7500i64],
                tuple!["Smith", "IT", 4900i64],
                tuple!["Jones", "IT", 1200i64],
                tuple!["Ng", "IT", 4900i64],
            ],
        )
        .unwrap()
    }

    fn ph() -> FinalSwpPh {
        FinalSwpPh::new(emp_schema(), &master()).unwrap()
    }

    #[test]
    fn table_roundtrip() {
        let ph = ph();
        let r = emp();
        let ct = ph.encrypt_table(&r).unwrap();
        assert_eq!(ct.len(), 4);
        let back = ph.decrypt_table(&ct).unwrap();
        assert!(r.same_multiset(&back));
    }

    #[test]
    fn homomorphism_law_for_paper_query() {
        // §3's worked example: σ_name:"Montgomery".
        check_homomorphism_law(&ph(), &emp(), &Query::select("name", "Montgomery")).unwrap();
    }

    #[test]
    fn homomorphism_law_across_queries() {
        let ph = ph();
        let r = emp();
        for q in [
            Query::select("dept", "IT"),
            Query::select("dept", "HR"),
            Query::select("salary", 4900i64),
            Query::select("salary", 1i64), // empty result
            Query::select("name", "Nobody"),
            Query::conjunction(vec![
                ExactSelect::new("dept", "IT"),
                ExactSelect::new("salary", 4900i64),
            ])
            .unwrap(),
        ] {
            check_homomorphism_law(&ph, &r, &q).unwrap();
        }
    }

    #[test]
    fn apply_is_keyless_and_returns_subset() {
        let ph = ph();
        let ct = ph.encrypt_table(&emp()).unwrap();
        let q = ph.encrypt_query(&Query::select("dept", "IT")).unwrap();
        // Note: apply is an associated function — no `ph` receiver.
        let sub = FinalSwpPh::apply(&ct, &q);
        assert_eq!(sub.len(), 3);
        let ids = sub.doc_ids();
        for id in &ids {
            assert!(ct.doc_ids().contains(id));
        }
    }

    #[test]
    fn execute_query_is_conjunctive() {
        let ph = ph();
        let mut ct = ph.encrypt_table(&emp()).unwrap();
        let term = |attr: &str, value: Value| {
            let q = ph.encrypt_query(&Query::select(attr, value)).unwrap();
            WireTrapdoor::from_trapdoor(&q.terms[0])
        };
        let it = term("dept", Value::from("IT"));
        let paid = term("salary", Value::from(4900i64));
        assert_eq!(
            execute_query(&ct, &[it.clone(), paid.clone()]).doc_ids(),
            vec![1, 3]
        );
        assert_eq!(
            execute_query(&ct, &[]).doc_ids(),
            ct.doc_ids(),
            "the empty conjunction matches everything"
        );
        // Cutting Ng's document short of the salary word breaks the
        // conjunction for Ng alone.
        ct.docs[3].1.truncate(2);
        assert_eq!(execute_query(&ct, &[it, paid]).doc_ids(), vec![1]);
    }

    #[test]
    fn result_decryption_filters_and_matches_plaintext() {
        let ph = ph();
        let r = emp();
        let q = Query::select("salary", 4900i64);
        let ct = ph.encrypt_table(&r).unwrap();
        let qct = ph.encrypt_query(&q).unwrap();
        let result = FinalSwpPh::apply(&ct, &qct);
        let decrypted = ph.decrypt_result(&result, &q).unwrap();
        let expected = dbph_relation::exec::select(&r, &q).unwrap();
        assert!(decrypted.same_multiset(&expected));
    }

    #[test]
    fn schema_mismatch_rejected() {
        let ph = ph();
        let other = Relation::empty(dbph_relation::schema::hospital_schema());
        assert!(matches!(
            ph.encrypt_table(&other),
            Err(PhError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn ciphertext_leaks_only_cardinality() {
        // Same-cardinality tables with different contents yield
        // ciphertexts of identical shape.
        let ph = ph();
        let r1 = Relation::from_tuples(
            emp_schema(),
            vec![tuple!["A", "HR", 1i64], tuple!["B", "HR", 1i64]],
        )
        .unwrap();
        let r2 = Relation::from_tuples(
            emp_schema(),
            vec![tuple!["C", "IT", 9i64], tuple!["C", "IT", 9i64]],
        )
        .unwrap();
        let c1 = ph.encrypt_table(&r1).unwrap();
        let c2 = ph.encrypt_table(&r2).unwrap();
        assert_eq!(c1.len(), c2.len());
        assert_eq!(c1.ciphertext_bytes(), c2.ciphertext_bytes());
        // And equal plaintext tuples within one table don't produce
        // equal ciphertext documents (q=0 equality hiding).
        assert_ne!(c2.docs[0].1, c2.docs[1].1);
    }

    #[test]
    fn incremental_append_preserves_law() {
        use crate::ph::IncrementalPh as _;
        let ph = ph();
        let mut ct = ph.encrypt_table(&emp()).unwrap();
        ph.append_tuple(&mut ct, &tuple!["Kim", "HR", 7500i64])
            .unwrap();
        assert_eq!(ct.len(), 5);

        let q = Query::select("salary", 7500i64);
        let qct = ph.encrypt_query(&q).unwrap();
        let result = FinalSwpPh::apply(&ct, &qct);
        let rel = ph.decrypt_result(&result, &q).unwrap();
        assert_eq!(rel.len(), 2);
        let names: Vec<_> = rel
            .tuples()
            .iter()
            .map(|t| t.get(0).unwrap().clone())
            .collect();
        assert!(names.contains(&Value::str("Kim")));
        assert!(names.contains(&Value::str("Montgomery")));
    }

    #[test]
    fn works_over_other_swp_schemes_for_search() {
        // Scheme II/III cannot decrypt, but ψ still works; the games
        // use exactly this.
        let codec_len = WordCodec::new(emp_schema()).word_len();
        let params = SwpParams::for_word_len(codec_len).unwrap();
        let scheme = dbph_swp::HiddenScheme::new(params, &master());
        let ph = SwpPh::over_scheme(emp_schema(), scheme, "swp-hidden").unwrap();
        let ct = ph.encrypt_table(&emp()).unwrap();
        let q = ph.encrypt_query(&Query::select("dept", "IT")).unwrap();
        let sub = SwpPh::<dbph_swp::HiddenScheme>::apply(&ct, &q);
        assert_eq!(sub.len(), 3);
        assert!(matches!(ph.decrypt_table(&ct), Err(PhError::Swp(_))));
    }

    #[test]
    fn empty_relation_roundtrip() {
        let ph = ph();
        let r = Relation::empty(emp_schema());
        let ct = ph.encrypt_table(&r).unwrap();
        assert!(ct.is_empty());
        let q = ph.encrypt_query(&Query::select("dept", "IT")).unwrap();
        let sub = FinalSwpPh::apply(&ct, &q);
        assert!(sub.is_empty());
        assert!(ph.decrypt_table(&ct).unwrap().is_empty());
    }

    #[test]
    fn wrong_key_cannot_decrypt() {
        let ph1 = FinalSwpPh::new(emp_schema(), &SecretKey::from_bytes([1u8; 32])).unwrap();
        let ph2 = FinalSwpPh::new(emp_schema(), &SecretKey::from_bytes([2u8; 32])).unwrap();
        let ct = ph1.encrypt_table(&emp()).unwrap();
        // Decryption under the wrong key either errors (decode fails)
        // or yields garbage that is not the original relation.
        if let Ok(r) = ph2.decrypt_table(&ct) {
            assert!(!r.same_multiset(&emp()))
        }
    }
    /// Pins Alex's ciphertext bytes: the `encrypt_table` output, one
    /// appended tuple, three trapdoors and their index labels under a
    /// fixed master key over a fixed 50-row `Emp` relation. Any change
    /// to a primitive (SHA-256 backend, HMAC, Feistel `E''`, ChaCha
    /// stream) that alters a single byte fails here.
    #[test]
    fn ciphertext_and_trapdoor_bytes_are_pinned() {
        use dbph_crypto::sha256::Sha256;
        use dbph_swp::{index_label, TrapdoorData};
        use dbph_workload::EmployeeGen;

        fn hex(d: [u8; 32]) -> String {
            d.iter().map(|b| format!("{b:02x}")).collect()
        }
        fn absorb_docs(h: &mut Sha256, docs: &[(u64, Vec<CipherWord>)]) {
            for (id, words) in docs {
                h.update(&id.to_le_bytes());
                for w in words {
                    h.update(w.as_bytes());
                }
            }
        }

        let ph = FinalSwpPh::new(EmployeeGen::schema(), &master()).unwrap();
        let relation = EmployeeGen {
            rows: 50,
            ..EmployeeGen::default()
        }
        .generate(7);
        let mut ct = ph.encrypt_table(&relation).unwrap();
        let mut h = Sha256::new();
        absorb_docs(&mut h, &ct.docs);
        let table = hex(h.finalize());

        let tuple = relation.tuples()[3].clone();
        ph.append_tuple(&mut ct, &tuple).unwrap();
        let mut h = Sha256::new();
        absorb_docs(&mut h, &ct.docs[50..]);
        let appended = hex(h.finalize());

        let mut trapdoors = Sha256::new();
        let mut labels = Sha256::new();
        for q in [
            Query::select("name", "emp-0000007"),
            Query::select("dept", "dept-03"),
            Query::select("salary", 5000i64),
        ] {
            for td in ph.encrypt_query(&q).unwrap().terms {
                trapdoors.update(td.target());
                trapdoors.update(td.check_key());
                labels.update(&index_label(&td));
            }
        }
        let trapdoors = hex(trapdoors.finalize());
        let labels = hex(labels.finalize());

        assert_eq!(
            table,
            "f91ef1f0c70a5fc17af911bb3b5f5e29b1e488a7adf96246c48e9170e4fafea8"
        );
        assert_eq!(
            appended,
            "d8dfaee6d0256c5e15a949743bfbe542ebdd1dcc299532b20ec4a846fe0be48f"
        );
        assert_eq!(
            trapdoors,
            "18c657c4dcabdbaf6873c06c386687a23f19fec117bd9808c70b88616ecf8f6d"
        );
        assert_eq!(
            labels,
            "73d2820e2012701519d7e3966e5ee6fda5beb1b9bbcb78126572f19628f22a77"
        );
    }
}
