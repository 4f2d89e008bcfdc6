//! Sharded ciphertext storage and the batch-parallel scan engine.
//!
//! The paper's `ψ` is a keyless trapdoor scan over *all* tuple
//! ciphertexts — there is no index to consult, by design, so the only
//! scaling lever that keeps the leakage profile intact is running the
//! same scan on more cores. This module extracts table storage out of
//! [`crate::server::Server`] into a [`TableStore`] whose tables are
//! partitioned into contiguous shards of documents ([`ShardedTable`]).
//!
//! PR 1 scanned one query at a time, each fanned over shards with
//! scoped threads re-spawned per query. This revision feeds a
//! persistent worker pool ([`crate::executor::Executor`]) instead: a
//! [`ShardedTable::scan_batch_on`] call turns K queries over S shards
//! into K×S `(query, shard)` tasks drained concurrently, so cross-query
//! parallelism stacks on top of cross-shard parallelism. A per-batch
//! `TrapdoorMemo` prepares each *distinct* trapdoor once
//! ([`dbph_swp::PreparedTrapdoor`] hoists the per-word HMAC key
//! schedule) and memoizes each term's per-shard match set, so duplicate
//! terms across the batch — hot values repeat in real workloads — are
//! matched against the table once, not once per query.
//!
//! Within each `(term, shard)` task the inner loop is the PR 4
//! allocation-free hot path: shards store their ciphertext columnarly
//! ([`crate::arena::WordArena`] — one contiguous fixed-width slot
//! buffer plus per-document offsets) and the 16-lane
//! [`dbph_swp::ScanKernel`] streams those slots through its lane PRF,
//! deciding sixteen words per dispatch with zero per-check
//! allocation. The kernel shares the scalar check's decision
//! function, so candidate sets — and with them responses and
//! transcripts — are byte-identical to the scalar scan.
//!
//! [`TableStore::query_batch`] is the store's one query entry: it
//! snapshots the table once and answers the whole list either by that
//! scan fan-out or, with the opt-in index ([`crate::index`]) enabled,
//! by per-term multimap probes plus a delta scan — byte-identical
//! tables either way. A single query is a list of one. Probes run one
//! term at a time, in query order, but each delta scan fans out too:
//! one task per shard holding part of the suffix it checks. Both plans
//! hand their tasks to one pool-or-inline rule (`fan_out`): the pool
//! when it has more than one worker and the call checks at least
//! `PARALLEL_THRESHOLD` documents, the caller's thread otherwise.
//!
//! Terms are attribute-addressed ([`WireTrapdoor::attr`]): a term is
//! checked against one word per document, the word at its attribute's
//! position, so a scan runs one SWP check per row per term. A document
//! with no word at that position, or a wrong-length word there, is
//! rejected without a check. The store counts the checks it runs
//! ([`TableStore::scan_checks`]).
//!
//! Three properties are load-bearing and tested:
//!
//! * **Shard-count invariance.** Shards are *contiguous* chunks of the
//!   document vector and results are concatenated in shard order, so a
//!   scan returns byte-identical results for any shard count —
//!   including the 1-shard layout, which is exactly the seed's
//!   single-threaded loop. One routine cuts every layout (`cut`: an
//!   upload, a recovered snapshot, a rebalance). Appends land in the
//!   last shard (with an order-preserving contiguous repartition once
//!   it outgrows its fair share); deletes retain per shard and
//!   repartition once a shard is hollowed out below half its fair
//!   share. Document order is therefore preserved verbatim, never
//!   re-sorted, and ids rise strictly along it: uploads and appends
//!   alike are refused otherwise, because chunked fetch and the
//!   index's delta scan and reassembly anchor on ids.
//! * **Pool-size invariance.** Results are assembled into slots indexed
//!   by `(query, shard)` — for a delta scan, by shard — so completion
//!   order cannot reorder them; a 1-worker pool runs the identical
//!   task list inline and is the sequential reference the tests
//!   compare against.
//! * **Unchanged leakage.** Sharding, pooling, and the trapdoor memo
//!   are server-internal. Eve already sees every ciphertext, every
//!   trapdoor, and every matched document id; how she spreads her own
//!   work over her own cores — or notices that two queries carry the
//!   same trapdoor bytes, which are equal on the wire anyway — reveals
//!   nothing new to her and nothing new *about* her inputs. The
//!   [`crate::server::Observer`] transcript for any operation is
//!   identical for every shard and pool count.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};

use dbph_swp::{CipherWord, PreparedTrapdoor, ScanKernel, SwpParams};

use crate::arena::WordArena;
use crate::error::PhError;
use crate::executor::Executor;
use crate::index::{IndexState, Posting, PostingKey, ProbeStats};
use crate::protocol::{ServerResponse, WireTrapdoor};
use crate::swp_ph::{ColumnarTable, EncryptedTable};
use crate::telemetry::Counter;
use crate::wire::WireEncode;

/// One document: `(document id, cipher words in attribute order)` —
/// the wire shape. At rest, shards hold documents columnarly
/// ([`WordArena`]) and reassemble this shape on demand.
pub type Doc = (u64, Vec<CipherWord>);

/// One query's answer from [`TableStore::query_batch`]: the result
/// table, and — under the index plan only — one [`ProbeStats`] per
/// probed term (`None` under the scan plan).
pub type Answer = (EncryptedTable, Option<Vec<ProbeStats>>);

/// A shard: a contiguous chunk of the document vector, stored
/// columnarly ([`WordArena`]: one fixed-width slot buffer + per-doc
/// offsets) so the scan kernel streams cache-line-friendly memory.
/// `Arc`-backed so scan tasks on the persistent pool can borrow it
/// `'static`-ly and snapshots are O(shard count); mutation goes
/// through [`Arc::make_mut`] (copy-on-write, so an in-flight scan
/// keeps its consistent view).
type Shard = Arc<WordArena>;

/// The one shard cut: deals the documents of `sources`, concatenated
/// in order, into `shard_count` contiguous chunks of near-equal size
/// (the first `total % shard_count` chunks hold one extra document),
/// each packed into a [`WordArena`] with slot width `word_len` by
/// whole runs ([`WordArena::append_range`]). Concatenated in order,
/// the chunks reproduce the sequence exactly — the invariant every
/// scan and reassembly relies on.
fn cut(word_len: usize, sources: &[&WordArena], shard_count: usize) -> Vec<Shard> {
    let total: usize = sources.iter().map(|src| src.len()).sum();
    let (base, extra) = (total / shard_count, total % shard_count);
    let mut runs = sources.iter().map(|&src| (src, 0));
    let mut current = runs.next();
    (0..shard_count)
        .map(|i| {
            let mut arena = WordArena::new(word_len);
            let mut need = base + usize::from(i < extra);
            while need > 0 {
                let (src, at) = current.as_mut().expect("sources hold `total` documents");
                let take = need.min(src.len() - *at);
                arena.append_range(src, *at..*at + take);
                (*at, need) = (*at + take, need - take);
                if *at == src.len() {
                    current = runs.next();
                }
            }
            Arc::new(arena)
        })
        .collect()
}

/// Checks that `ids` rise strictly from `first` on, and returns the
/// least id that may follow them (`first` when there are none). Ids
/// ascending in table order is what the id-anchored reads (chunked
/// fetch, the index's delta scan and reassembly) rely on.
fn fresh_ids(first: u64, ids: impl IntoIterator<Item = u64>) -> Result<u64, PhError> {
    ids.into_iter()
        .try_fold(first, |least, id| match id.checked_add(1) {
            Some(next) if id >= least => Ok(next),
            _ => Err(PhError::Protocol(format!("stale doc id {id}"))),
        })
}

/// Intersects two ascending lists (two-pointer merge).
fn intersect_sorted<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The stored word at position `attr` of document `i`, when the
/// document has that many words and the word has the table's width —
/// the one slot an addressed term is checked against. Anything else
/// can never match (the SWP check rejects a length mismatch), so it
/// is rejected without a check.
fn addressed_slot(arena: &WordArena, i: usize, attr: u8) -> Option<&[u8]> {
    let words = arena.word_range(i);
    let w = words.start + usize::from(attr);
    if w < words.end {
        arena.regular_slot(w)
    } else {
        None
    }
}

/// Indices (ascending) of the documents among `doc_indices` whose word
/// `attr` matches `term` — the per-term half of `ψ` — plus the number
/// of SWP checks run: one per document with an addressed slot. The
/// 16-lane [`ScanKernel`] decides the slots (parameters too wide for
/// its lanes it decides one scalar check at a time, with identical
/// decisions). Passing only the survivors of earlier terms is the
/// conjunctive short-circuit: a later term never checks a document an
/// earlier term rejected.
fn match_indices(
    params: &SwpParams,
    arena: &WordArena,
    attr: u8,
    term: &PreparedTrapdoor,
    doc_indices: impl Iterator<Item = u32>,
) -> (Vec<u32>, u64) {
    let slots = doc_indices.filter_map(|i| addressed_slot(arena, i as usize, attr).map(|s| (i, s)));
    let mut hits = Vec::new();
    let mut checks = 0u64;
    let mut kernel = ScanKernel::new(*params, term);
    let mut sink = |tag: u32, ok: bool| {
        if ok {
            hits.push(tag);
        }
    };
    for (i, slot) in slots {
        checks += 1;
        kernel.push(i, slot, &mut sink);
    }
    kernel.flush(&mut sink);
    (hits, checks)
}

/// Below this many documents checked by one call, pool handoff
/// overhead outweighs the scan itself and the call runs inline.
const PARALLEL_THRESHOLD: usize = 512;

/// The one pool-or-inline rule, shared by the scan plan and the
/// index's delta scan: `task` runs once per item — on `pool` when it
/// has more than one worker and the call checks at least
/// `PARALLEL_THRESHOLD` documents (`docs`), otherwise inline on the
/// caller's thread, in order, with no handoff and no shared copy of
/// `task`. Results come back in item order either way
/// ([`Executor::scatter`] returns them in submission order), so the
/// choice changes timing and nothing else.
fn fan_out<T, R>(
    pool: &Executor,
    docs: usize,
    items: impl Iterator<Item = T>,
    task: impl Fn(T) -> R + Send + Sync + 'static,
) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
{
    if pool.workers() > 1 && docs >= PARALLEL_THRESHOLD {
        let task = Arc::new(task);
        let jobs: Vec<_> = items
            .map(|item| {
                let task = Arc::clone(&task);
                move || task(item)
            })
            .collect();
        pool.scatter(jobs)
    } else {
        items.map(task).collect()
    }
}

/// Per-batch trapdoor memo: every *distinct* trapdoor in a
/// `QueryBatch` is prepared exactly once, and its per-shard match set
/// is computed exactly once no matter how many of the batch's queries
/// carry it.
///
/// Identity is the term's wire form (`attr`, `target`, `check key`) —
/// precisely what Eve can already compare for equality on the wire, so
/// memoizing over it changes scheduling, not leakage. The same
/// trapdoor bytes addressed to two positions are two terms: they check
/// different words. Match sets live
/// in a `(term, shard)` grid of [`OnceLock`]s: the first pool task
/// that needs a cell computes it, concurrent tasks needing the same
/// cell block on that one computation instead of repeating it.
///
/// Full match sets are only materialized for terms *shared* by more
/// than one query of the batch, where computing the set once and
/// intersecting K times is the win. A term unique to one query is
/// evaluated with the conjunctive short-circuit instead
/// ([`match_indices`] over the survivors of earlier terms), so
/// a selective leading term still spares the later terms' HMAC work —
/// the batch engine never does more evaluations than the seed scan.
struct TrapdoorMemo {
    /// Distinct terms as `(attr, prepared trapdoor)`, in
    /// first-appearance order.
    prepared: Vec<(u8, PreparedTrapdoor)>,
    /// Per query, indices into `prepared` (deduplicated within the
    /// query — conjunction is idempotent).
    query_terms: Vec<Vec<usize>>,
    /// Whether a term occurs in more than one query of the batch.
    shared: Vec<bool>,
    /// `term × shard` match-set cells, indexed `term * shards + shard`
    /// (only populated for shared terms).
    cells: Vec<OnceLock<Arc<Vec<u32>>>>,
}

impl TrapdoorMemo {
    fn new(queries: &[&[WireTrapdoor]], shard_count: usize) -> Self {
        let mut by_term: HashMap<&WireTrapdoor, usize> = HashMap::new();
        let mut prepared = Vec::new();
        let mut query_terms = Vec::with_capacity(queries.len());
        let mut uses: Vec<usize> = Vec::new();
        for terms in queries {
            let mut ids: Vec<usize> = Vec::with_capacity(terms.len());
            for term in *terms {
                let id = *by_term.entry(term).or_insert_with(|| {
                    prepared.push((term.attr, PreparedTrapdoor::new(term)));
                    uses.push(0);
                    prepared.len() - 1
                });
                if !ids.contains(&id) {
                    ids.push(id);
                    uses[id] += 1;
                }
            }
            query_terms.push(ids);
        }
        let cells = (0..prepared.len() * shard_count)
            .map(|_| OnceLock::new())
            .collect();
        TrapdoorMemo {
            prepared,
            query_terms,
            shared: uses.into_iter().map(|n| n > 1).collect(),
            cells,
        }
    }
}

/// An [`EncryptedTable`] partitioned into contiguous document shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedTable {
    params: SwpParams,
    /// Contiguous chunks of the original document vector; concatenated
    /// in order they reproduce it exactly.
    shards: Vec<Shard>,
    next_doc_id: u64,
}

impl ShardedTable {
    /// Partitions a columnar table image into `shard_count` contiguous
    /// shards of near-equal size (the first `len % shard_count` shards
    /// hold one extra document), copying arena-to-arena
    /// ([`WordArena::append_range`]). Every table is built here: an
    /// upload, a recovered snapshot, a bootstrapped follower's copy.
    ///
    /// # Panics
    /// Panics if `shard_count == 0` or the arena's slot width differs
    /// from `table.params.word_len`.
    #[must_use]
    pub fn from_arena(table: &ColumnarTable, shard_count: usize) -> Self {
        assert!(shard_count > 0, "shard_count must be ≥ 1");
        let (params, arena) = (table.params, &table.docs);
        assert_eq!(arena.word_len(), params.word_len, "mixed slot widths");
        let shards = cut(params.word_len, &[arena], shard_count);
        ShardedTable {
            params,
            shards,
            next_doc_id: table.next_doc_id,
        }
    }

    /// The shard arenas, in document order — read access for the
    /// durable log's compaction writer, which serializes live
    /// ciphertext straight from the columnar slots.
    #[must_use]
    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The table's SWP parameters.
    #[must_use]
    pub fn params(&self) -> &SwpParams {
        &self.params
    }

    /// Reassembles the flat [`EncryptedTable`] (documents in original
    /// order, byte-identical to what was stored).
    #[must_use]
    pub fn to_table(&self) -> EncryptedTable {
        EncryptedTable {
            params: self.params,
            docs: self
                .shards
                .iter()
                .flat_map(|shard| shard.to_docs())
                .collect(),
            next_doc_id: self.next_doc_id,
        }
    }

    /// Number of shards (fixed at construction).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Documents per shard, in shard order.
    #[must_use]
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|shard| shard.len()).collect()
    }

    /// Total number of documents.
    #[must_use]
    pub fn doc_count(&self) -> usize {
        self.shards.iter().map(|shard| shard.len()).sum()
    }

    /// Next fresh document id.
    #[must_use]
    pub fn next_doc_id(&self) -> u64 {
        self.next_doc_id
    }

    /// Re-cuts the document sequence into the same number of
    /// contiguous, near-equal shards — the shared tail of both
    /// rebalancing rules. Order-preserving by construction, and copied
    /// arena-to-arena ([`WordArena::append_range`]): no boxed documents
    /// are ever materialized on this mutation hot path.
    fn repartition(&mut self) {
        let old = std::mem::take(&mut self.shards);
        let sources: Vec<&WordArena> = old.iter().map(|shard| &**shard).collect();
        self.shards = cut(self.params.word_len, &sources, old.len());
    }

    /// Below this many documents in play, repartitioning cannot pay
    /// for itself (and tiny tables would thrash).
    const REBALANCE_MIN_DOCS: usize = 64;

    /// Appends one document to the last shard (preserving global
    /// document order). The caller has already validated freshness.
    ///
    /// When the last shard grows past twice its fair share the table
    /// is repartitioned — still contiguous, still order-preserving —
    /// so insert-heavy workloads keep all shards scan-worthy instead
    /// of collapsing onto one hot shard. The O(n) repartition is paid
    /// at geometrically spaced appends, so the amortized cost per
    /// append stays O(shard count).
    fn push(&mut self, doc_id: u64, words: Vec<CipherWord>) {
        Arc::make_mut(self.shards.last_mut().expect("≥ 1 shard by construction"))
            .push(doc_id, &words);
        self.next_doc_id = doc_id + 1;
        let shard_count = self.shards.len();
        if shard_count > 1 {
            let last = self.shards[shard_count - 1].len();
            let fair = self.doc_count() / shard_count;
            if last >= Self::REBALANCE_MIN_DOCS && last > 2 * fair {
                self.repartition();
            }
        }
    }

    /// Removes the given ids wherever they live; returns the removed
    /// ids in document order.
    ///
    /// Mirror of the append-side rule: once delete churn hollows any
    /// shard below *half* its fair share (appends rebalance at *twice*
    /// fair share), the table is repartitioned so every shard stays
    /// scan-worthy. Without this, deleting a contiguous id range —
    /// retiring a cohort, dropping one tenant's rows — would empty one
    /// shard and leave its worker idle on every subsequent scan.
    fn delete(&mut self, victims: &BTreeSet<u64>) -> Vec<u64> {
        let mut removed = Vec::new();
        for shard in &mut self.shards {
            if (0..shard.len()).any(|i| victims.contains(&shard.doc_id(i))) {
                Arc::make_mut(shard).retain(|id| {
                    if victims.contains(&id) {
                        removed.push(id);
                        false
                    } else {
                        true
                    }
                });
            }
        }
        let shard_count = self.shards.len();
        let total = self.doc_count();
        if !removed.is_empty() && shard_count > 1 && total >= Self::REBALANCE_MIN_DOCS {
            let fair = total / shard_count;
            let starved = self.shards.iter().any(|shard| 2 * shard.len() < fair);
            if starved {
                self.repartition();
            }
        }
        removed
    }

    /// `ψ` over a whole query batch: K queries over S shards become
    /// K×S `(query, shard)` tasks drained by `pool`'s workers, with a
    /// per-batch `TrapdoorMemo` sharing trapdoor preparation *and*
    /// per-shard match sets between queries that carry the same term.
    ///
    /// Results come back in **query order**, each query's documents in
    /// document order — tasks write into `(query, shard)`-indexed
    /// slots, so out-of-order completion cannot reorder anything. For
    /// tables under `PARALLEL_THRESHOLD` documents (or a
    /// 1-worker pool) the identical task list runs inline on the
    /// caller's thread: same slots, same bytes, no handoff cost.
    ///
    /// Each task adds the SWP checks it ran to `checks` once, when the
    /// batch joins.
    #[must_use]
    pub fn scan_batch_on(
        &self,
        pool: &Executor,
        queries: &[&[WireTrapdoor]],
        checks: &Counter,
    ) -> Vec<EncryptedTable> {
        let shard_count = self.shards.len();
        let memo = TrapdoorMemo::new(queries, shard_count);
        let (params, shards) = (self.params, self.shards.clone());

        // One task per (query, shard), submitted query-major so slot
        // `q * shard_count + s` is task (q, s).
        let tasks = (0..queries.len()).flat_map(|q| (0..shard_count).map(move |s| (q, s)));
        let slots = fan_out(pool, self.doc_count(), tasks, move |(q, s)| {
            let shard = &shards[s];
            let whole = || 0..shard.len() as u32;
            let mut checks = 0u64;
            // Survivors of the terms processed so far; `None` is the
            // empty conjunction (the whole shard).
            let mut survivors: Option<Vec<u32>> = None;
            for &t in &memo.query_terms[q] {
                let (attr, term) = &memo.prepared[t];
                survivors = Some(if memo.shared[t] {
                    // Shared term: one full match set, reused by every
                    // query carrying it.
                    let set = memo.cells[t * shard_count + s].get_or_init(|| {
                        let (hits, n) = match_indices(&params, shard, *attr, term, whole());
                        checks += n;
                        Arc::new(hits)
                    });
                    match survivors {
                        None => (**set).clone(),
                        Some(acc) => intersect_sorted(&acc, set),
                    }
                } else {
                    // Unique term: evaluate only against the survivors
                    // — the conjunctive short-circuit of the seed scan.
                    let (hits, n) = match survivors {
                        None => match_indices(&params, shard, *attr, term, whole()),
                        Some(acc) => match_indices(&params, shard, *attr, term, acc.into_iter()),
                    };
                    checks += n;
                    hits
                });
                if survivors.as_ref().is_some_and(Vec::is_empty) {
                    break;
                }
            }
            let docs: Vec<Doc> = match survivors {
                // Empty conjunction matches the whole shard.
                None => shard.to_docs(),
                Some(hits) => hits.iter().map(|&i| shard.doc(i as usize)).collect(),
            };
            (docs, checks)
        });

        // Reassemble: per query, shards concatenate in shard order.
        let mut slots = slots.into_iter().map(|(docs, n)| {
            checks.add(n);
            docs
        });
        (0..queries.len())
            .map(|_| {
                let docs: Vec<Doc> = slots.by_ref().take(shard_count).flatten().collect();
                EncryptedTable {
                    params: self.params,
                    docs,
                    next_doc_id: self.next_doc_id,
                }
            })
            .collect()
    }

    /// One bounded chunk of the table, starting at the first document
    /// whose id is `>= token` (0 = first document): documents are
    /// taken in order until the *encoded* chunk would exceed
    /// `max_bytes` — but always at least one, so a single oversized
    /// document cannot stall the stream. Returns the chunk as a flat
    /// table (carrying the real `params` and `next_doc_id`, so
    /// concatenating every chunk's documents reproduces
    /// [`Self::to_table`] exactly) plus the continuation token — the
    /// id of the first undelivered document — or `None` once the
    /// table is exhausted.
    ///
    /// The token is a *document-id lower bound*, which is what makes
    /// it both pure protocol state (the server keeps no cursor; Eve
    /// sees nothing beyond the requests themselves) and cut-consistent
    /// under churn: documents hold strictly increasing ids in table
    /// order (appends always mint fresh ids past `next_doc_id`), so a
    /// delete or append interleaved between chunks never shifts the
    /// anchor the way a positional token would — already-delivered
    /// documents are never re-sent and surviving ones are never
    /// skipped. Tokens still strictly advance, and for the dense-id
    /// tables the streaming callers (snapshot, rekey) fetch, the
    /// values coincide with the old positional tokens — the wire
    /// format is unchanged.
    #[must_use]
    pub fn fetch_chunk(&self, token: u64, max_bytes: u64) -> (EncryptedTable, Option<u64>) {
        // Wire cost of doc `i` of `shard` — the codec's own cost
        // model ([`crate::wire::encoded_doc_len`]), so chunk budgets
        // cannot drift from what the serializer actually emits.
        let encoded_bytes = |shard: &WordArena, i: usize| -> u64 {
            crate::wire::encoded_doc_len(shard.word_range(i).map(|w| shard.word(w).len()))
        };
        let mut docs = Vec::new();
        let mut bytes = 0u64;
        let mut next = None;
        let mut anchored = false;
        'shards: for shard in &self.shards {
            let len = shard.len();
            // Ids ascend in table order, so whole shards strictly
            // before the anchor skip in O(1) — a stream of C chunks
            // over T documents walks O(T + C·S), not O(T·C).
            if !anchored && (len == 0 || shard.doc_id(len - 1) < token) {
                continue;
            }
            for i in 0..len {
                if !anchored {
                    if shard.doc_id(i) < token {
                        continue;
                    }
                    anchored = true;
                }
                let cost = encoded_bytes(shard, i);
                if !docs.is_empty() && bytes + cost > max_bytes {
                    next = Some(shard.doc_id(i));
                    break 'shards;
                }
                docs.push(shard.doc(i));
                bytes += cost;
            }
        }
        (
            EncryptedTable {
                params: self.params,
                docs,
                next_doc_id: self.next_doc_id,
            },
            next,
        )
    }

    /// Total ciphertext bytes across all shards (words only, like
    /// [`EncryptedTable::ciphertext_bytes`]).
    #[must_use]
    pub fn ciphertext_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.ciphertext_bytes())
            .sum()
    }

    /// Document ids (ascending) matched by `term` among documents with
    /// `id >= from` — the index's delta scan — plus the number of SWP
    /// checks run. Ids are strictly increasing in table order, so
    /// those documents form a contiguous suffix: each shard
    /// binary-searches where its part starts (a shard entirely below
    /// `from` has none), and the match itself is the same addressed
    /// decision the full scan makes — identical decisions, identical
    /// false positives.
    ///
    /// Each shard's part of the suffix is one task, run under the scan
    /// plan's pool-or-inline rule with the suffix length as the
    /// document count, and the parts concatenate in shard order. An
    /// empty suffix returns at once, without preparing the trapdoor.
    #[must_use]
    pub(crate) fn match_doc_ids_from(
        &self,
        pool: &Executor,
        term: &WireTrapdoor,
        from: u64,
    ) -> (Vec<u64>, u64) {
        // First index with `doc_id >= from` (ids ascend in-shard), or
        // `None` when the whole shard precedes `from`.
        let suffix_start = |shard: &Shard| {
            let start = shard.doc_ids().partition_point(|&id| id < from);
            (start < shard.len()).then_some(start)
        };
        let docs: usize = self
            .shards
            .iter()
            .filter_map(|shard| Some(shard.len() - suffix_start(shard)?))
            .sum();
        if docs == 0 {
            return (Vec::new(), 0);
        }
        let (params, attr, prepared) = (self.params, term.attr, PreparedTrapdoor::new(term));
        let suffixes = self
            .shards
            .iter()
            .filter_map(|shard| Some((Arc::clone(shard), suffix_start(shard)?)));
        let parts = fan_out(pool, docs, suffixes, move |(shard, start)| {
            let range = start as u32..shard.len() as u32;
            let (hits, n) = match_indices(&params, &shard, attr, &prepared, range);
            let ids: Vec<u64> = hits.into_iter().map(|i| shard.doc_id(i as usize)).collect();
            (ids, n)
        });
        let (ids, checks): (Vec<Vec<u64>>, Vec<u64>) = parts.into_iter().unzip();
        (ids.concat(), checks.iter().sum())
    }

    /// Reassembles the documents with the given ids (ascending), in
    /// table order, silently skipping ids no longer present — the
    /// index plan's response assembly. Crypto-free: a merge walk over
    /// the shards with an in-shard binary search per id, O(k log n)
    /// for k requested ids, which is what makes the indexed plan
    /// sublinear end-to-end.
    #[must_use]
    pub(crate) fn docs_by_ids(&self, ids: &[u64]) -> Vec<Doc> {
        let mut docs = Vec::with_capacity(ids.len());
        let mut shard_iter = self.shards.iter();
        let mut shard = shard_iter.next();
        for &id in ids {
            // Ids ascend across shards too, so the walk never backs up.
            while let Some(s) = shard {
                let len = s.len();
                if len > 0 && s.doc_id(len - 1) >= id {
                    break;
                }
                shard = shard_iter.next();
            }
            let Some(s) = shard else { break };
            if let Ok(i) = s.doc_ids().binary_search(&id) {
                docs.push(s.doc(i));
            }
        }
        docs
    }
}

/// Cap on cached responses retained per client in the dedup window.
/// Beyond it the lowest-seq completed entry is evicted and the
/// client's watermark rises over it, so dedup state is bounded by
/// `O(clients × DEDUP_WINDOW)` no matter how long a session runs.
pub const DEDUP_WINDOW: usize = 128;

/// How one [`DedupWindow::begin`] call resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DedupDecision {
    /// First sighting of this id: the caller must apply the inner
    /// message and then [`DedupWindow::complete`] the entry.
    Fresh,
    /// A completed duplicate: the original encoded response, to be
    /// returned verbatim without re-applying.
    Replay(Vec<u8>),
    /// A duplicate older than the client's watermark whose cached
    /// response was evicted. Never re-applied — the caller reports a
    /// distinct error instead (the mutation may already have been
    /// applied once).
    Stale,
}

/// One client's slice of the dedup window.
#[derive(Debug, Default)]
struct ClientWindow {
    /// Highest evicted seq: any seq at or below it with no surviving
    /// entry is [`DedupDecision::Stale`]. Client seqs start at 1, so 0
    /// means nothing has been evicted yet.
    watermark: u64,
    entries: BTreeMap<u64, DedupEntry>,
}

#[derive(Debug)]
enum DedupEntry {
    /// A thread is applying this id right now; concurrent duplicates
    /// wait for its outcome instead of double-applying. `logged` turns
    /// true once a durable server has applied the mutation and written
    /// its log record ([`DedupWindow::mark_logged`]): a compaction cut
    /// from then on holds the mutation's effect, so its image must
    /// hold the id too.
    InFlight { logged: bool },
    /// The apply finished; `response` is the original encoded
    /// [`crate::protocol::ServerResponse`], `applied` whether it was a
    /// success (only applied entries are persisted across compaction —
    /// an error entry replays within the process lifetime but a
    /// post-restart retry simply re-dispatches and fails again).
    Done { response: Vec<u8>, applied: bool },
}

impl ClientWindow {
    /// Evicts lowest-seq completed entries until the window fits
    /// [`DEDUP_WINDOW`], raising the watermark over each victim.
    /// In-flight entries are never evicted — their applier completes
    /// them.
    fn evict_to_cap(&mut self) {
        while self.entries.len() > DEDUP_WINDOW {
            let victim = self
                .entries
                .iter()
                .find(|(_, e)| matches!(e, DedupEntry::Done { .. }))
                .map(|(seq, _)| *seq);
            match victim {
                Some(seq) => {
                    self.entries.remove(&seq);
                    self.watermark = self.watermark.max(seq);
                }
                None => break,
            }
        }
    }
}

/// The server's exactly-once bookkeeping for
/// [`crate::protocol::ClientMessage::Tagged`] mutations: per client, a
/// bounded LRU of `seq → original encoded response` plus a high-water
/// mark covering everything evicted. A repeated id replays the cached
/// response (or, past the watermark, fails with a distinct stale
/// error); it never re-applies.
///
/// Concurrency: the window is keyed *before* the apply (an in-flight
/// marker) and completed after, so two racing retries of the same id
/// serialize — the loser waits on a condvar and replays the winner's
/// response.
#[derive(Debug, Default)]
pub struct DedupWindow {
    clients: Mutex<HashMap<u64, ClientWindow>>,
    completed: Condvar,
}

impl DedupWindow {
    /// An empty window.
    #[must_use]
    pub fn new() -> Self {
        DedupWindow::default()
    }

    /// Resolves a request id before dispatch. On [`DedupDecision::Fresh`]
    /// the id is marked in-flight and the caller *must* eventually call
    /// [`DedupWindow::complete`] for it.
    pub fn begin(&self, client_id: u64, seq: u64) -> DedupDecision {
        let mut clients = self.clients.lock();
        loop {
            let win = clients.entry(client_id).or_default();
            match win.entries.get(&seq) {
                Some(DedupEntry::Done { response, .. }) => {
                    return DedupDecision::Replay(response.clone());
                }
                Some(DedupEntry::InFlight { .. }) => {
                    // Re-check on notify or every 50 ms (spurious
                    // wakeups are fine — the predicate is re-derived).
                    self.completed
                        .wait_for(&mut clients, Duration::from_millis(50));
                }
                None if seq <= win.watermark => return DedupDecision::Stale,
                None => {
                    win.entries
                        .insert(seq, DedupEntry::InFlight { logged: false });
                    return DedupDecision::Fresh;
                }
            }
        }
    }

    /// Records the outcome of a [`DedupDecision::Fresh`] apply: caches
    /// the encoded response for future duplicates, evicts past the
    /// window cap, and wakes any duplicate waiting in
    /// [`DedupWindow::begin`].
    pub fn complete(&self, client_id: u64, seq: u64, response: Vec<u8>, applied: bool) {
        {
            let mut clients = self.clients.lock();
            let win = clients.entry(client_id).or_default();
            win.entries
                .insert(seq, DedupEntry::Done { response, applied });
            win.evict_to_cap();
        }
        self.completed.notify_all();
    }

    /// Notes that the in-flight mutation `(client_id, seq)` has been
    /// applied and logged. Called under the durable log's writer lock,
    /// so a compaction (which runs under the same lock) sees either
    /// neither the mutation nor the mark, or both.
    pub(crate) fn mark_logged(&self, client_id: u64, seq: u64) {
        let mut clients = self.clients.lock();
        if let Some(entry @ DedupEntry::InFlight { .. }) = clients
            .get_mut(&client_id)
            .and_then(|win| win.entries.get_mut(&seq))
        {
            *entry = DedupEntry::InFlight { logged: true };
        }
    }

    /// Installs one client's persisted window image (a compaction
    /// record): the watermark and the applied seqs that were cached
    /// when the snapshot was cut. Every applied mutation acked the
    /// same success payload, so each seq caches an encoded
    /// [`ServerResponse::Ok`].
    pub(crate) fn install_snapshot(&self, client_id: u64, watermark: u64, seqs: &[u64]) {
        let ok = ServerResponse::Ok.to_wire();
        let mut clients = self.clients.lock();
        let win = clients.entry(client_id).or_default();
        win.watermark = win.watermark.max(watermark);
        for &seq in seqs {
            win.entries.insert(
                seq,
                DedupEntry::Done {
                    response: ok.clone(),
                    applied: true,
                },
            );
        }
        win.evict_to_cap();
    }

    /// The persistence image: per client (sorted for determinism),
    /// `(client_id, watermark, applied seqs ascending)`. Applied seqs
    /// are the completed successes plus the in-flight ones already
    /// logged — the mutation that triggered the compaction, and any
    /// other session's waiting on the commit barrier; their records
    /// are about to be deleted with the old segments. Error-response
    /// and not-yet-applied entries are left out: nothing was applied
    /// for them, so a post-restart retry may safely re-dispatch.
    pub(crate) fn snapshot(&self) -> Vec<(u64, u64, Vec<u64>)> {
        let clients = self.clients.lock();
        let mut all: Vec<(u64, u64, Vec<u64>)> = clients
            .iter()
            .map(|(&client_id, win)| {
                let seqs: Vec<u64> = win
                    .entries
                    .iter()
                    .filter_map(|(&seq, e)| match e {
                        DedupEntry::Done { applied: true, .. }
                        | DedupEntry::InFlight { logged: true } => Some(seq),
                        _ => None,
                    })
                    .collect();
                (client_id, win.watermark, seqs)
            })
            .collect();
        all.sort_by_key(|(client_id, _, _)| *client_id);
        all
    }

    /// Number of cached entries for `client_id` (tests).
    #[must_use]
    pub fn cached(&self, client_id: u64) -> usize {
        self.clients
            .lock()
            .get(&client_id)
            .map_or(0, |w| w.entries.len())
    }

    /// Current watermark for `client_id` (tests).
    #[must_use]
    pub fn watermark(&self, client_id: u64) -> u64 {
        self.clients
            .lock()
            .get(&client_id)
            .map_or(0, |w| w.watermark)
    }
}

/// Thread-safe named-table storage with a fixed shard count per table
/// and a persistent worker pool executing every scan.
///
/// This is the state the server owns; every method is the storage half
/// of one protocol operation. Methods return [`PhError::Protocol`] for
/// conditions the server reports to the client as errors.
///
/// Queries run on a *snapshot*: the table's shard list is `Arc`-cloned
/// under the read lock (O(shard count)) and the lock released before
/// any scanning happens, so a long scan never blocks appends or
/// deletes — copy-on-write mutation gives the scan a consistent view.
pub struct TableStore {
    shard_count: usize,
    pool: Arc<Executor>,
    tables: RwLock<HashMap<String, ShardedTable>>,
    dedup: DedupWindow,
    /// The opt-in encrypted inverted index ([`crate::index`]). Off by
    /// default; while off, no code path touches it and the server is
    /// bit-for-bit the scan-only server.
    index: IndexState,
    /// SWP checks run by scans and index delta scans — always on, like
    /// the executor's pool statistics.
    scan_checks: Counter,
}

impl TableStore {
    /// A store partitioning each table into `shard_count` shards and
    /// scanning on `pool`: [`Executor::global`] for the process-wide
    /// pool, or a dedicated one (tests pin pool sizes to prove
    /// pool-size invariance).
    ///
    /// # Panics
    /// Panics if `shard_count == 0`.
    #[must_use]
    pub fn new(shard_count: usize, pool: Arc<Executor>) -> Self {
        assert!(shard_count > 0, "shard_count must be ≥ 1");
        TableStore {
            shard_count,
            pool,
            tables: RwLock::new(HashMap::new()),
            dedup: DedupWindow::new(),
            index: IndexState::new(),
            scan_checks: Counter::default(),
        }
    }

    /// SWP checks run so far by every scan and index delta scan on
    /// this store: one per addressed slot checked. A one-term scan of
    /// an `N`-row table adds `N`.
    #[must_use]
    pub fn scan_checks(&self) -> u64 {
        self.scan_checks.get()
    }

    /// The store's encrypted-index state. Like the dedup window it
    /// lives on the store so the durable log — which only sees
    /// `&TableStore` during compaction — can persist and restore it.
    #[must_use]
    pub fn index(&self) -> &IndexState {
        &self.index
    }

    /// Opts this store into the encrypted inverted index (idempotent).
    pub fn enable_index(&self) {
        self.index.enable();
    }

    /// The store's idempotent-request dedup window. It lives on the
    /// store (not the server front half) so the durable log — which
    /// only sees `&TableStore` during compaction — can persist and
    /// restore it alongside the table snapshot it belongs with.
    #[must_use]
    pub fn dedup(&self) -> &DedupWindow {
        &self.dedup
    }

    /// The configured shard count.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The worker pool scans run on.
    #[must_use]
    pub fn pool(&self) -> &Arc<Executor> {
        &self.pool
    }

    /// Cheap consistent snapshot of a table (Arc-backed shard list).
    fn snapshot(&self, name: &str) -> Result<ShardedTable, PhError> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| PhError::Protocol(format!("unknown table: {name}")))
    }

    /// Stores a freshly uploaded table under `name`. Its ids must rise
    /// strictly and stay below its `next_doc_id` — the rule appends
    /// keep too, and the order every id-anchored read relies on
    /// (chunked fetch, the index's delta scan and reassembly). An empty
    /// table with `next_doc_id` 0 is valid.
    ///
    /// The shards are cut before the store lock is taken, so a large
    /// upload never stalls queries on other tables; the lock covers
    /// only the name check and the insert.
    ///
    /// # Errors
    /// Fails if the name is taken or the ids break that order.
    ///
    /// # Panics
    /// Panics if the image's slot width differs from its
    /// `params.word_len` (a decoded image never does).
    pub fn create(&self, name: &str, table: ColumnarTable) -> Result<(), PhError> {
        let ids = (0..table.docs.len()).map(|i| table.docs.doc_id(i));
        if fresh_ids(0, ids)? > table.next_doc_id {
            let next = table.next_doc_id;
            return Err(PhError::Protocol(format!(
                "next doc id {next} does not exceed the last doc id"
            )));
        }
        let sharded = ShardedTable::from_arena(&table, self.shard_count);
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(PhError::Protocol(format!("table exists: {name}")));
        }
        tables.insert(name.to_string(), sharded);
        // A name can be reused after a drop; any memoized postings for
        // the old incarnation are invalid for the new one.
        self.index.clear_table(name);
        Ok(())
    }

    /// `ψ` for a list of queries against one table snapshot, the plan
    /// picked once for the whole list: through the encrypted multimap
    /// when the index is enabled, otherwise as one scan fan-out — K
    /// queries × S shards tasks drained concurrently, duplicate terms
    /// shared through the per-batch trapdoor memo. The index plan runs
    /// the queries in order, and the multimap itself shares repeated
    /// terms (the first query installs a posting, repeats probe it).
    ///
    /// Returns one [`Answer`] per query, in query order. Because the
    /// SWP match decision is deterministic per (trapdoor, word bytes) —
    /// false positives included — both plans return byte-identical
    /// tables; only the work done to produce them differs.
    ///
    /// # Errors
    /// Fails for unknown tables, whatever the list holds.
    pub fn query_batch(
        &self,
        name: &str,
        queries: &[Vec<WireTrapdoor>],
    ) -> Result<Vec<Answer>, PhError> {
        let table = self.snapshot(name)?;
        if self.index.is_enabled() {
            let answer = |terms: &Vec<WireTrapdoor>| self.query_indexed(name, &table, terms);
            return Ok(queries.iter().map(answer).collect());
        }
        let views: Vec<&[WireTrapdoor]> = queries.iter().map(Vec::as_slice).collect();
        Ok(table
            .scan_batch_on(&self.pool, &views, &self.scan_checks)
            .into_iter()
            .map(|result| (result, None))
            .collect())
    }

    /// The index plan for one query over the snapshot `table`: per
    /// term, an index probe (cached posting + delta scan over the
    /// documents appended since the posting's bound), then an
    /// ascending-id intersection and a crypto-free reassembly, with
    /// one [`ProbeStats`] per probed term for the observer.
    fn query_indexed(&self, name: &str, table: &ShardedTable, terms: &[WireTrapdoor]) -> Answer {
        if terms.is_empty() {
            // Empty conjunction matches the whole table (scan parity).
            return (table.to_table(), Some(Vec::new()));
        }
        let mut stats = Vec::new();
        let mut survivors: Option<Vec<u64>> = None;
        for term in terms {
            let key = (term.attr, dbph_swp::index_label(term));
            let cached = self.index.with_table(name, |index| index.lookup(&key));
            let (mut ids, delta_from, cached_len) = match cached {
                Some(posting) => {
                    let len = posting.doc_ids.len();
                    (posting.doc_ids, posting.bound, Some(len))
                }
                None => (Vec::new(), 0, None),
            };
            // Cached ids all precede `delta_from`; the delta ids all
            // follow it — concatenation stays ascending. A cached id
            // deleted by a racing purge after this snapshot was cut is
            // dropped at reassembly (`docs_by_ids` skips absent ids),
            // so ghosts can linger in the memo but never in a response.
            let (delta, checked) = table.match_doc_ids_from(&self.pool, term, delta_from);
            self.scan_checks.add(checked);
            ids.extend(delta);
            let refreshed = Posting {
                doc_ids: ids.clone(),
                bound: table.next_doc_id(),
            };
            stats.push(ProbeStats {
                key,
                cached: cached_len,
                delta_from,
                posting: refreshed.doc_ids.len(),
                checked,
            });
            self.index
                .with_table(name, |index| index.install(key, refreshed));
            survivors = Some(match survivors {
                None => ids,
                Some(acc) => intersect_sorted(&acc, &ids),
            });
            if survivors.as_ref().is_some_and(Vec::is_empty) {
                break;
            }
        }
        let ids = survivors.unwrap_or_default();
        let docs = table.docs_by_ids(&ids);
        let result = EncryptedTable {
            params: *table.params(),
            docs,
            next_doc_id: table.next_doc_id(),
        };
        (result, Some(stats))
    }

    /// The at-rest encrypted-multimap image for one table, sorted by
    /// key: `((attr, label), posting ids)` pairs. This is the
    /// adversary's view of her own memory — the games crate reads it to
    /// measure what the index leaks (a scan-only store returns an
    /// empty image).
    #[must_use]
    pub fn index_at_rest(&self, name: &str) -> Vec<(PostingKey, Vec<u64>)> {
        self.index
            .with_table(name, |index| index.at_rest())
            .into_iter()
            .map(|(key, posting)| (key, posting.doc_ids))
            .collect()
    }

    /// Reassembles the full table ciphertext.
    ///
    /// # Errors
    /// Fails for unknown tables.
    pub fn fetch_all(&self, name: &str) -> Result<EncryptedTable, PhError> {
        Ok(self.snapshot(name)?.to_table())
    }

    /// One bounded chunk of a table (see [`ShardedTable::fetch_chunk`])
    /// — runs on an `Arc`-snapshot like queries, so streaming a large
    /// table never holds the store lock.
    ///
    /// # Errors
    /// Fails for unknown tables.
    pub fn fetch_chunk(
        &self,
        name: &str,
        token: u64,
        max_bytes: u64,
    ) -> Result<(EncryptedTable, Option<u64>), PhError> {
        Ok(self.snapshot(name)?.fetch_chunk(token, max_bytes))
    }

    /// Consistent snapshot of every table, sorted by name — the
    /// durable log's compaction input (sorting makes the snapshot
    /// segment a deterministic function of the store contents).
    #[must_use]
    pub(crate) fn snapshot_all(&self) -> Vec<(String, ShardedTable)> {
        let tables = self.tables.read();
        let mut all: Vec<(String, ShardedTable)> = tables
            .iter()
            .map(|(name, table)| (name.clone(), table.clone()))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Installs a table loaded from a compaction snapshot under `name`,
    /// replacing any previous entry.
    pub(crate) fn install(&self, name: String, table: ShardedTable) {
        // The table arrives wholesale; stale memoized postings (if any)
        // are invalid for it. A persisted index image, when present,
        // follows the tables it describes in the log.
        self.index.clear_table(&name);
        self.tables.write().insert(name, table);
    }

    /// Appends a batch of documents atomically: every id must be fresh
    /// (≥ the table's next id) and strictly increasing within the
    /// batch, or nothing is stored.
    ///
    /// # Errors
    /// Fails for unknown tables and stale/unordered ids.
    pub fn append_batch(&self, name: &str, docs: Vec<Doc>) -> Result<(), PhError> {
        let mut tables = self.tables.write();
        let table = tables
            .get_mut(name)
            .ok_or_else(|| PhError::Protocol(format!("unknown table: {name}")))?;
        fresh_ids(table.next_doc_id, docs.iter().map(|&(id, _)| id))?;
        for (doc_id, words) in docs {
            table.push(doc_id, words);
        }
        Ok(())
    }

    /// Deletes documents by id; returns the ids actually removed, in
    /// document order (each at most once, regardless of duplicates in
    /// `doc_ids`).
    ///
    /// # Errors
    /// Fails for unknown tables.
    pub fn delete_docs(&self, name: &str, doc_ids: &[u64]) -> Result<Vec<u64>, PhError> {
        let mut tables = self.tables.write();
        let table = tables
            .get_mut(name)
            .ok_or_else(|| PhError::Protocol(format!("unknown table: {name}")))?;
        let victims: BTreeSet<u64> = doc_ids.iter().copied().collect();
        let removed = table.delete(&victims);
        // Eager purge (no tombstones): deleted ids leave every posting
        // immediately. See [`crate::index`] for the leakage argument.
        self.index.purge(name, &removed);
        Ok(removed)
    }

    /// Drops the table.
    ///
    /// # Errors
    /// Fails for unknown tables.
    pub fn drop_table(&self, name: &str) -> Result<(), PhError> {
        if self.tables.write().remove(name).is_none() {
            return Err(PhError::Protocol(format!("unknown table: {name}")));
        }
        self.index.clear_table(name);
        Ok(())
    }

    /// Names of the stored tables, sorted (public metadata — the
    /// protocol addresses tables by name, so Eve has the list).
    #[must_use]
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Tuple count and ciphertext size of a stored table, if present
    /// (used by tests and diagnostics; Eve knows both anyway).
    #[must_use]
    pub fn stats(&self, name: &str) -> Option<(usize, usize)> {
        let tables = self.tables.read();
        let table = tables.get(name)?;
        Some((table.doc_count(), table.ciphertext_bytes()))
    }

    /// Shard sizes of a stored table, if present (diagnostics; the
    /// partition is Eve's own choice, so this is her data already).
    #[must_use]
    pub fn shard_sizes(&self, name: &str) -> Option<Vec<usize>> {
        self.tables.read().get(name).map(ShardedTable::shard_sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> EncryptedTable {
        EncryptedTable {
            params: SwpParams::new(13, 4, 32).unwrap(),
            docs: (0..n as u64)
                .map(|i| (i, vec![CipherWord(vec![i as u8; 13])]))
                .collect(),
            next_doc_id: n as u64,
        }
    }

    #[test]
    fn partition_is_contiguous_and_balanced() {
        let st = ShardedTable::from_arena(&table(10).into(), 4);
        assert_eq!(st.shard_sizes(), vec![3, 3, 2, 2]);
        assert_eq!(st.to_table(), table(10));
        // Degenerate cases: more shards than docs, and empty tables.
        let st = ShardedTable::from_arena(&table(2).into(), 5);
        assert_eq!(st.shard_sizes(), vec![1, 1, 0, 0, 0]);
        assert_eq!(st.to_table(), table(2));
        let st = ShardedTable::from_arena(&table(0).into(), 3);
        assert_eq!(st.doc_count(), 0);
        assert_eq!(st.to_table(), table(0));
    }

    #[test]
    fn from_arena_cuts_contiguous_near_equal_shards() {
        // Every layout comes from this one cut: shard `i` holds the
        // next `n / shards` documents, plus one while `i < n % shards`.
        for n in [0usize, 1, 2, 10, 100] {
            let flat = table(n);
            for shards in [1usize, 3, 7] {
                let st = ShardedTable::from_arena(&flat.clone().into(), shards);
                let mut rest = flat.docs.as_slice();
                for (i, shard) in st.shards().iter().enumerate() {
                    let (head, tail) = rest.split_at(n / shards + usize::from(i < n % shards));
                    assert_eq!(
                        shard.to_docs(),
                        head,
                        "{n} docs × {shards} shards, shard {i}"
                    );
                    rest = tail;
                }
                assert!(rest.is_empty());
            }
        }
    }

    #[test]
    fn fetch_chunk_streams_the_exact_table() {
        let st = ShardedTable::from_arena(&table(25).into(), 4);
        let whole = st.to_table();
        for max_bytes in [1u64, 64, 200, 1 << 20] {
            let mut docs = Vec::new();
            let mut token = 0u64;
            let mut chunks = 0usize;
            loop {
                let (chunk, next) = st.fetch_chunk(token, max_bytes);
                assert_eq!(chunk.params, whole.params);
                assert_eq!(chunk.next_doc_id, whole.next_doc_id);
                assert!(
                    !chunk.docs.is_empty() || next.is_none(),
                    "an unfinished stream must always make progress"
                );
                docs.extend(chunk.docs);
                chunks += 1;
                match next {
                    Some(n) => {
                        // Dense ids 0..25: the id-anchored token
                        // coincides with the old positional value, so
                        // the wire stream is unchanged for the tables
                        // snapshot/rekey fetch.
                        assert_eq!(n, docs.len() as u64, "dense ids: token == next id");
                        token = n;
                    }
                    None => break,
                }
            }
            assert_eq!(docs, whole.docs, "chunked stream diverged at {max_bytes} B");
            if max_bytes == 1 {
                // Tiny budget: one doc per chunk, still completes.
                assert_eq!(chunks, 25);
            }
        }
        // Past-the-end and empty-table tokens terminate cleanly.
        let (tail, next) = st.fetch_chunk(9999, 1024);
        assert!(tail.docs.is_empty() && next.is_none());
        let empty = ShardedTable::from_arena(&table(0).into(), 2);
        let (chunk, next) = empty.fetch_chunk(0, 1024);
        assert!(chunk.docs.is_empty() && next.is_none());
        assert_eq!(chunk.next_doc_id, 0);
    }

    #[test]
    fn chunk_token_anchors_to_doc_ids_not_positions() {
        // Sparse ids (gaps from deletes): the token is a doc-id lower
        // bound, so chunks resume at the right document even though
        // positions and ids no longer coincide.
        let mut st = ShardedTable::from_arena(&table(10).into(), 3);
        st.delete(&BTreeSet::from([0, 1, 2, 5])); // survivors: 3, 4, 6, 7, 8, 9
        let (chunk, next) = st.fetch_chunk(0, 1); // one doc per chunk
        assert_eq!(chunk.docs[0].0, 3);
        assert_eq!(next, Some(4), "token must be the next undelivered id");
        let (chunk, next) = st.fetch_chunk(5, 1);
        assert_eq!(chunk.docs[0].0, 6, "anchor is a lower bound over ids");
        assert_eq!(next, Some(7));
        // Deleting already-delivered docs between chunks shifts
        // positions but not the anchor: nothing re-sent, none skipped.
        let mut delivered: Vec<u64> = chunk.docs.iter().map(|d| d.0).collect();
        let mut token = next.unwrap();
        st.delete(&BTreeSet::from([3, 4, 6]));
        loop {
            let (chunk, next) = st.fetch_chunk(token, 1);
            delivered.extend(chunk.docs.iter().map(|d| d.0));
            match next {
                Some(n) => {
                    assert!(n > token, "token must strictly advance");
                    token = n;
                }
                None => break,
            }
        }
        assert_eq!(delivered, vec![6, 7, 8, 9]);
    }

    #[test]
    fn store_fetch_chunk_matches_fetch_all() {
        let store = TableStore::new(3, Executor::global());
        store.create("t", table(40).into()).unwrap();
        let whole = store.fetch_all("t").unwrap();
        let mut docs = Vec::new();
        let mut token = 0u64;
        loop {
            let (chunk, next) = store.fetch_chunk("t", token, 128).unwrap();
            docs.extend(chunk.docs);
            match next {
                Some(n) => token = n,
                None => break,
            }
        }
        assert_eq!(docs, whole.docs);
        assert!(store.fetch_chunk("nope", 0, 128).is_err());
    }

    #[test]
    fn append_lands_in_last_shard_and_preserves_order() {
        let mut st = ShardedTable::from_arena(&table(4).into(), 2);
        st.push(4, vec![CipherWord(vec![9; 13])]);
        assert_eq!(st.shard_sizes(), vec![2, 3]);
        let flat = st.to_table();
        assert_eq!(flat.doc_ids(), vec![0, 1, 2, 3, 4]);
        assert_eq!(flat.next_doc_id, 5);
    }

    #[test]
    fn heavy_appends_rebalance_across_shards() {
        // Start empty (the encrypted_sql example's flow) and append
        // many docs: without rebalancing they would all pile into the
        // last shard and the parallel scan would degenerate.
        let mut st = ShardedTable::from_arena(&table(0).into(), 4);
        for i in 0..1000u64 {
            st.push(i, vec![CipherWord(vec![i as u8; 13])]);
        }
        let sizes = st.shard_sizes();
        assert!(
            sizes.iter().all(|&s| s > 0),
            "appends must spread over shards, got {sizes:?}"
        );
        let max = *sizes.iter().max().unwrap();
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 1000);
        assert!(
            max <= 2 * (total / sizes.len()) + 64,
            "no shard may dominate after rebalancing, got {sizes:?}"
        );
        // Order is still exactly insertion order.
        assert_eq!(st.to_table().doc_ids(), (0..1000).collect::<Vec<u64>>());
        assert_eq!(st.next_doc_id(), 1000);
    }

    #[test]
    fn delete_returns_each_id_once_in_doc_order() {
        let mut st = ShardedTable::from_arena(&table(6).into(), 3);
        let removed = st.delete(&[4, 1, 1, 99].iter().copied().collect());
        assert_eq!(removed, vec![1, 4]);
        assert_eq!(st.to_table().doc_ids(), vec![0, 2, 3, 5]);
    }

    #[test]
    fn delete_churn_rebalances_hollowed_shards() {
        // Delete (almost) the whole first shard of a 4×100 layout: the
        // hollowed shard must trigger a repartition so no worker goes
        // idle on subsequent scans.
        let mut st = ShardedTable::from_arena(&table(400).into(), 4);
        assert_eq!(st.shard_sizes(), vec![100, 100, 100, 100]);
        let victims: BTreeSet<u64> = (0..95u64).collect();
        let removed = st.delete(&victims);
        assert_eq!(removed.len(), 95);
        let sizes = st.shard_sizes();
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 305);
        let fair = total / sizes.len();
        assert!(
            sizes.iter().all(|&s| 2 * s >= fair),
            "delete churn left a starved shard: {sizes:?}"
        );
        // Order preserved verbatim.
        assert_eq!(st.to_table().doc_ids(), (95..400).collect::<Vec<u64>>());
    }

    #[test]
    fn delete_below_rebalance_floor_leaves_partition_alone() {
        // Tiny tables must not thrash: no repartition under the floor.
        let mut st = ShardedTable::from_arena(&table(12).into(), 3);
        st.delete(&(0..4u64).collect());
        assert_eq!(st.shard_sizes(), vec![0, 4, 4]);
        assert_eq!(st.to_table().doc_ids(), (4..12).collect::<Vec<u64>>());
    }

    #[test]
    fn interleaved_append_delete_churn_keeps_shards_scan_worthy() {
        // Shard-count invariance under churn: a 1-shard table driven
        // through the same interleaved append/delete history is the
        // flat reference; the sharded layouts must agree with it and
        // stay balanced.
        let word = |i: u64| vec![CipherWord(vec![(i % 251) as u8; 13])];
        let mut flat = ShardedTable::from_arena(&table(0).into(), 1);
        let mut sharded: Vec<ShardedTable> = [2, 4, 7]
            .iter()
            .map(|&s| ShardedTable::from_arena(&table(0).into(), s))
            .collect();
        let mut next = 0u64;
        for round in 0..30u64 {
            // Append a run…
            for _ in 0..40 {
                flat.push(next, word(next));
                for st in &mut sharded {
                    st.push(next, word(next));
                }
                next += 1;
            }
            // …then carve out a contiguous cohort (delete-heavy churn).
            let lo = round * 25;
            let victims: BTreeSet<u64> = (lo..lo + 20).collect();
            let removed = flat.delete(&victims);
            for st in &mut sharded {
                assert_eq!(st.delete(&victims), removed, "delete diverged");
            }
        }
        let reference = flat.to_table();
        for st in &sharded {
            assert_eq!(
                st.to_table(),
                reference,
                "churned table diverged at {} shards",
                st.shard_count()
            );
            let sizes = st.shard_sizes();
            let total: usize = sizes.iter().sum();
            let fair = total / sizes.len();
            assert!(
                sizes.iter().all(|&s| 2 * s >= fair),
                "{} shards starved after churn: {sizes:?}",
                st.shard_count()
            );
        }
    }

    #[test]
    fn dedup_image_holds_logged_in_flight_ids_but_not_unapplied_ones() {
        let window = DedupWindow::new();
        assert_eq!(window.begin(1, 1), DedupDecision::Fresh);
        assert_eq!(window.begin(1, 2), DedupDecision::Fresh);
        // Seq 1 applied and logged, still awaiting its barrier; seq 2
        // not applied yet. A compaction cut now holds only seq 1.
        window.mark_logged(1, 1);
        assert_eq!(window.snapshot(), vec![(1, 0, vec![1])]);
        // A logged entry still makes a duplicate wait, never re-apply.
        window.complete(1, 1, b"ok".to_vec(), true);
        window.complete(1, 2, b"err".to_vec(), false);
        assert_eq!(window.begin(1, 1), DedupDecision::Replay(b"ok".to_vec()));
        assert_eq!(window.snapshot(), vec![(1, 0, vec![1])]);
    }

    #[test]
    fn store_rejects_duplicates_stale_ids_and_unknown_names() {
        let store = TableStore::new(2, Executor::global());
        store.create("t", table(3).into()).unwrap();
        assert!(store.create("t", table(3).into()).is_err());
        assert!(store.fetch_all("nope").is_err());
        assert!(store.drop_table("nope").is_err());
        // Stale id anywhere in a batch rejects the whole batch.
        let bad = vec![
            (3, vec![CipherWord(vec![1; 13])]),
            (3, vec![CipherWord(vec![2; 13])]),
        ];
        assert!(store.append_batch("t", bad).is_err());
        assert_eq!(store.stats("t"), Some((3, 3 * 13)));
    }

    #[test]
    fn batch_append_is_atomic() {
        let store = TableStore::new(2, Executor::global());
        store.create("t", table(2).into()).unwrap();
        let bad = vec![
            (2, vec![CipherWord(vec![1; 13])]),
            (1, vec![CipherWord(vec![2; 13])]), // stale
        ];
        assert!(store.append_batch("t", bad).is_err());
        // The valid prefix must not have been applied.
        assert_eq!(store.fetch_all("t").unwrap().doc_ids(), vec![0, 1]);
        let good = vec![
            (2, vec![CipherWord(vec![1; 13])]),
            (7, vec![CipherWord(vec![2; 13])]),
        ];
        store.append_batch("t", good).unwrap();
        let flat = store.fetch_all("t").unwrap();
        assert_eq!(flat.doc_ids(), vec![0, 1, 2, 7]);
        assert_eq!(flat.next_doc_id, 8);
    }

    /// A one-byte (so never-matching) term addressed to `attr` — a
    /// cheap deterministic fixture for engine tests.
    fn byte_term(attr: u8, b: u8) -> WireTrapdoor {
        WireTrapdoor {
            attr,
            target: vec![b],
            check_key: Vec::new(),
        }
    }

    #[test]
    fn memo_dedupes_terms_across_and_within_queries() {
        let queries: Vec<Vec<WireTrapdoor>> = vec![
            vec![byte_term(0, 1), byte_term(0, 2)],
            vec![byte_term(0, 2), byte_term(0, 2)], // dup within query
            vec![byte_term(0, 1)],                  // dup across queries
            vec![],                                 // empty conjunction
            vec![byte_term(1, 1)],                  // same bytes, other attr
        ];
        let views: Vec<&[WireTrapdoor]> = queries.iter().map(Vec::as_slice).collect();
        let memo = TrapdoorMemo::new(&views, 3);
        assert_eq!(memo.prepared.len(), 3, "three distinct terms");
        assert_eq!(memo.query_terms[0], vec![0, 1]);
        assert_eq!(memo.query_terms[1], vec![1], "within-query dup folded");
        assert_eq!(memo.query_terms[2], vec![0], "cross-query dup shared");
        assert!(memo.query_terms[3].is_empty());
        assert_eq!(
            memo.query_terms[4],
            vec![2],
            "the attr is part of a term's identity"
        );
        assert_eq!(memo.prepared[2].0, 1);
        assert!(!memo.shared[2]);
        assert_eq!(memo.cells.len(), 3 * 3);
    }

    #[test]
    fn addressed_slot_skips_short_docs_and_irregular_words() {
        let mut arena = WordArena::new(4);
        arena.push(0, &[CipherWord(vec![1; 4]), CipherWord(vec![2; 4])]);
        arena.push(1, &[CipherWord(vec![3; 4]), CipherWord(vec![4; 3])]);
        arena.push(2, &[]);
        assert_eq!(addressed_slot(&arena, 0, 1), Some(&[2u8; 4][..]));
        assert_eq!(addressed_slot(&arena, 0, 2), None, "past the arity");
        assert_eq!(addressed_slot(&arena, 1, 0), Some(&[3u8; 4][..]));
        assert_eq!(addressed_slot(&arena, 1, 1), None, "irregular word");
        assert_eq!(addressed_slot(&arena, 2, 0), None, "empty document");
        assert_eq!(addressed_slot(&arena, 0, u8::MAX), None);
    }

    #[test]
    fn intersect_sorted_is_exact() {
        assert_eq!(intersect_sorted(&[1, 3, 5, 9], &[2, 3, 9]), vec![3, 9]);
        assert_eq!(intersect_sorted(&[], &[1, 2]), Vec::<u32>::new());
        assert_eq!(intersect_sorted(&[4], &[4]), vec![4]);
    }

    #[test]
    fn scan_batch_matches_sequential_reference() {
        // Real SWP trapdoors aren't needed to exercise the batch
        // plumbing: length-mismatched trapdoors never match and the
        // empty conjunction matches everything, which is enough to
        // check assembly order, arity, and memo reuse.
        let st = ShardedTable::from_arena(&table(100).into(), 4);
        let pool = Executor::new(3);
        let queries = [vec![], vec![byte_term(0, 7)], vec![]];
        let views: Vec<&[_]> = queries.iter().map(Vec::as_slice).collect();
        let checks = Counter::default();
        let batched = st.scan_batch_on(&pool, &views, &checks);
        assert_eq!(batched.len(), 3);
        let flat = st.to_table();
        for (q, result) in views.iter().zip(&batched) {
            let reference = crate::server::execute_query(&flat, q);
            assert_eq!(result, &reference, "batch diverged");
        }
        assert_eq!(batched[0].doc_ids(), (0..100).collect::<Vec<u64>>());
        assert!(batched[1].docs.is_empty());
        // One addressed slot per row, for the one non-empty query.
        assert_eq!(checks.get(), 100);
    }

    #[test]
    fn empty_batch_yields_no_tables() {
        let st = ShardedTable::from_arena(&table(10).into(), 2);
        let pool = Executor::new(2);
        let out = st.scan_batch_on(&pool, &[], &Counter::default());
        assert!(out.is_empty());
    }

    #[test]
    fn store_query_batch_preserves_query_order() {
        let store = TableStore::new(3, Arc::new(Executor::new(4)));
        store.create("t", table(50).into()).unwrap();
        let queries: Vec<Vec<WireTrapdoor>> =
            vec![vec![], vec![byte_term(0, 1)], vec![], vec![byte_term(0, 2)]];
        let scanned = store.query_batch("t", &queries).unwrap();
        assert_eq!(scanned.len(), 4);
        assert_eq!(scanned[0].0.doc_ids().len(), 50);
        assert!(scanned[1].0.docs.is_empty());
        assert_eq!(scanned[2].0.doc_ids().len(), 50);
        assert!(scanned[3].0.docs.is_empty());
        assert!(scanned.iter().all(|(_, probes)| probes.is_none()));
        assert!(store.query_batch("nope", &queries).is_err());
        assert!(store.query_batch("nope", &[]).is_err());
        // The index plan answers the same list with the same tables,
        // plus one probe per term.
        store.enable_index();
        let indexed = store.query_batch("t", &queries).unwrap();
        for ((scan, _), (index, probes)) in scanned.iter().zip(&indexed) {
            assert_eq!(scan, index);
            assert!(probes.is_some());
        }
        let probed: Vec<usize> = indexed
            .iter()
            .map(|(_, p)| p.as_ref().unwrap().len())
            .collect();
        assert_eq!(probed, vec![0, 1, 0, 1]);
        assert!(store.query_batch("nope", &[]).is_err());
    }

    #[test]
    fn delta_scans_reach_the_pool_only_past_the_threshold() {
        let pool = Arc::new(Executor::new(2));
        let store = TableStore::new(3, Arc::clone(&pool));
        store.create("t", table(600).into()).unwrap();
        store.enable_index();
        let terms = vec![vec![byte_term(0, 1)]];
        let tasks = || pool.stats().tasks.get();
        let probe = || {
            let (_, probes) = store.query_batch("t", &terms).unwrap().pop().unwrap();
            probes.unwrap()[0].checked
        };
        let append = |ids: std::ops::Range<u64>| {
            let docs = ids.map(|i| (i, vec![CipherWord(vec![i as u8; 13])]));
            store.append_batch("t", docs.collect()).unwrap();
        };

        // Cold: 600 documents, one pool task per shard suffix.
        assert_eq!(probe(), 600);
        assert_eq!(tasks(), 3);
        assert_eq!(store.scan_checks(), 600);

        // A 10-document delta runs inline: the pool sees nothing.
        append(600..610);
        assert_eq!(probe(), 10);
        assert_eq!(tasks(), 3);
        assert_eq!(store.scan_checks(), 610);

        // A 600-document delta fans out again, one task per shard
        // holding an id at or past 610 (the append rebalanced them).
        append(610..1210);
        let mut end = 0;
        let suffixes = store
            .shard_sizes("t")
            .unwrap()
            .into_iter()
            .filter(|&len| {
                end += len;
                end > 610
            })
            .count();
        assert!(suffixes > 1, "the delta spans more than one shard");
        assert_eq!(probe(), 600);
        assert_eq!(tasks(), 3 + suffixes as u64);
        assert_eq!(store.scan_checks(), 1210);

        // Nothing appended: nothing checked, nothing dispatched.
        assert_eq!(probe(), 0);
        assert_eq!(tasks(), 3 + suffixes as u64);
        assert_eq!(store.scan_checks(), 1210);
    }

    #[test]
    fn racing_creates_of_one_name_store_exactly_the_winner() {
        // Shards are cut before the store lock, so two uploads of one
        // name race to the name check: one is stored, whole, and the
        // other is refused.
        for _ in 0..20 {
            let store = Arc::new(TableStore::new(2, Executor::global()));
            let start = Arc::new(std::sync::Barrier::new(2));
            let uploads = [table(300), table(7)];
            let racers: Vec<_> = uploads
                .iter()
                .map(|upload| {
                    let (store, start, upload) =
                        (Arc::clone(&store), Arc::clone(&start), upload.clone());
                    std::thread::spawn(move || {
                        start.wait();
                        store.create("t", upload.into())
                    })
                })
                .collect();
            let results: Vec<_> = racers.into_iter().map(|r| r.join().unwrap()).collect();
            let winner = results
                .iter()
                .position(Result::is_ok)
                .expect("one create wins");
            let loser = &results[1 - winner];
            assert_eq!(
                loser.as_ref().unwrap_err().to_string(),
                "protocol error: table exists: t"
            );
            assert_eq!(store.fetch_all("t").unwrap(), uploads[winner]);
        }
    }

    #[test]
    fn upload_ids_must_rise_strictly_below_next_doc_id() {
        let store = TableStore::new(2, Executor::global());
        let word = |b: u8| vec![CipherWord(vec![b; 13])];
        let upload = |docs: Vec<Doc>, next_doc_id: u64| {
            ColumnarTable::from(EncryptedTable {
                params: SwpParams::new(13, 4, 32).unwrap(),
                docs,
                next_doc_id,
            })
        };
        let mut reversed = table(5);
        reversed.docs.reverse();
        let refused = [
            ("reversed", reversed.into()),
            (
                "duplicate id",
                upload(vec![(0, word(1)), (3, word(2)), (3, word(3))], 4),
            ),
            (
                "next id equals the last id",
                upload(vec![(0, word(1)), (4, word(2))], 4),
            ),
            ("next id below the last id", upload(vec![(7, word(1))], 2)),
            (
                "last id has no successor",
                upload(vec![(u64::MAX, word(1))], u64::MAX),
            ),
        ];
        for (what, bad) in refused {
            assert!(store.create("t", bad).is_err(), "{what} upload accepted");
            assert_eq!(store.stats("t"), None, "{what}: nothing stored");
        }
        // The `rekey` shape: an empty table with next id 0.
        store.create("empty", upload(vec![], 0)).unwrap();
        assert_eq!(store.stats("empty"), Some((0, 0)));
        // Gaps are fine; only the order matters.
        store
            .create("gaps", upload(vec![(2, word(1)), (9, word(2))], 10))
            .unwrap();
        assert_eq!(store.fetch_all("gaps").unwrap().doc_ids(), vec![2, 9]);
    }
}
