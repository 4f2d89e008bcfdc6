//! Sharded ciphertext storage and the batch-parallel scan engine.
//!
//! The paper's `ψ` is a keyless trapdoor scan over *all* tuple
//! ciphertexts — there is no index to consult, by design, so the only
//! scaling lever that keeps the leakage profile intact is running the
//! same scan on more cores. This module extracts table storage out of
//! [`crate::server::Server`] into a [`TableStore`] whose tables are
//! runs of fixed-capacity shards ([`ShardedTable`]): each shard holds
//! at most [`SHARD_DOCS`] contiguous documents, so a table of `n`
//! documents is about `n / SHARD_DOCS` pieces of scan work, whatever
//! mix of uploads, appends and deletes built it (morsel-driven
//! storage, Leis et al., SIGMOD 2014).
//!
//! Parallelism comes from the persistent worker pool
//! ([`crate::executor::Executor`]) alone: a
//! [`ShardedTable::scan_batch_on`] call turns K queries over S shards
//! into K×S `(query, shard)` tasks that the calling thread and the
//! woken workers drain until none is left, so a worker that wakes late
//! simply takes fewer. A per-batch `TrapdoorMemo` prepares each
//! *distinct* trapdoor once ([`dbph_swp::PreparedTrapdoor`] hoists the
//! per-word HMAC key schedule) and memoizes each term's per-shard match
//! set, so duplicate terms across the batch — hot values repeat in real
//! workloads — are matched against the table once, not once per query.
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
//! Each stored table keeps its shards and its postings together (a
//! [`TableIndex`] behind an `Arc`), in the store's one name-keyed
//! map. The snapshot a query runs on carries both, so a probe installs
//! into the table it scanned even if that table is dropped and
//! re-created under its name meanwhile: the posting dies with the
//! dropped table, and the new one starts with none.
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
//! * **Layout invariance.** Shards are *contiguous* runs of the
//!   document sequence and results are concatenated in shard order, so
//!   a scan returns byte-identical results for any layout — including
//!   a one-shard table, which is exactly the seed's single-threaded
//!   loop. An upload is cut into full shards plus one partial last
//!   shard; appends fill the last shard, then start a new one; deletes
//!   retain within each shard, and a shard then merges into its
//!   predecessor when the two together fit in one shard, so every two
//!   neighbours hold more than [`SHARD_DOCS`] documents and a table of
//!   `n` documents has at most `2·⌈n / SHARD_DOCS⌉ + 1` shards.
//!   Document order is therefore preserved verbatim, never re-sorted,
//!   and ids rise strictly along it: uploads and appends alike are
//!   refused otherwise, because chunked fetch and the index's delta
//!   scan and reassembly anchor on ids.
//! * **Pool-size invariance.** Results are assembled into slots indexed
//!   by `(query, shard)` — for a delta scan, by shard — so completion
//!   order cannot reorder them; a 1-worker pool runs the identical
//!   task list inline and is the sequential reference the tests
//!   compare against.
//! * **Unchanged leakage.** Shards, pooling, and the trapdoor memo
//!   are server-internal. Eve already sees every ciphertext, every
//!   trapdoor, and every matched document id; how she spreads her own
//!   work over her own cores — or notices that two queries carry the
//!   same trapdoor bytes, which are equal on the wire anyway — reveals
//!   nothing new to her and nothing new *about* her inputs. The
//!   [`crate::server::Observer`] transcript for any operation is
//!   identical for every layout and pool size.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};

use dbph_swp::{CipherWord, PreparedTrapdoor, ScanKernel, SwpParams};

use crate::arena::WordArena;
use crate::error::PhError;
use crate::executor::Executor;
use crate::index::{Posting, PostingKey, ProbeStats, TableIndex};
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

/// Most documents one shard holds. Small enough that a few-thousand-row
/// table is several pieces of scan work for the pool to share, large
/// enough that a piece amortizes a task handoff; chosen by measuring
/// the two-worker scan of a 5,000-row table.
pub const SHARD_DOCS: usize = 512;

/// A shard: a contiguous run of at most [`SHARD_DOCS`] documents,
/// stored columnarly ([`WordArena`]: one fixed-width slot buffer +
/// per-doc offsets) so the scan kernel streams cache-line-friendly
/// memory. `Arc`-backed so scan tasks on the persistent pool can
/// borrow it `'static`-ly and snapshots share it; an append
/// changes the last shard in place through [`make_mut`] (copy-on-write,
/// so an in-flight scan keeps its consistent view).
type Shard = Arc<WordArena>;

/// The id of a shard's last document (shards are never empty).
fn last_id(shard: &WordArena) -> u64 {
    shard.doc_id(shard.len() - 1)
}

/// [`Arc::make_mut`] for a shard, adding to `cow` the bytes it copies
/// when a live snapshot shares the shard. The copy is one shard: at
/// most [`SHARD_DOCS`] documents.
fn make_mut<'a>(shard: &'a mut Shard, cow: &Counter) -> &'a mut WordArena {
    if Arc::get_mut(shard).is_none() {
        cow.add(shard.heap_bytes() as u64);
        *shard = Arc::new(WordArena::clone(shard));
    }
    Arc::get_mut(shard).expect("unique after the copy")
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

/// An [`EncryptedTable`] stored as a run of contiguous shards of at
/// most [`SHARD_DOCS`] documents each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedTable {
    params: SwpParams,
    /// Contiguous runs of the document sequence; concatenated in order
    /// they reproduce it exactly. None is empty, none holds more than
    /// [`SHARD_DOCS`] documents, and every two neighbours hold more
    /// than [`SHARD_DOCS`] together. The list is shared too, so a
    /// snapshot costs one reference count, whatever the table's size.
    shards: Arc<Vec<Shard>>,
    next_doc_id: u64,
}

impl ShardedTable {
    /// Cuts a columnar table image into full shards of [`SHARD_DOCS`]
    /// documents plus one partial last shard, copying arena-to-arena
    /// by whole runs ([`WordArena::append_range`]). Every table is
    /// built here: an upload, a recovered snapshot, a bootstrapped
    /// follower's copy.
    ///
    /// # Panics
    /// Panics if the arena's slot width differs from
    /// `table.params.word_len`.
    #[must_use]
    pub fn from_arena(table: &ColumnarTable) -> Self {
        let (params, arena) = (table.params, &table.docs);
        assert_eq!(arena.word_len(), params.word_len, "mixed slot widths");
        let shards = (0..arena.len())
            .step_by(SHARD_DOCS)
            .map(|at| {
                let mut shard = WordArena::new(params.word_len);
                shard.append_range(arena, at..arena.len().min(at + SHARD_DOCS));
                Arc::new(shard)
            })
            .collect();
        ShardedTable {
            params,
            shards: Arc::new(shards),
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

    /// Appends one document after the last (preserving document
    /// order): into the last shard while it has room, else into a new
    /// one. The caller has already validated freshness. A live
    /// snapshot sharing the last shard costs one shard copy, counted
    /// in `cow`.
    fn push(&mut self, doc_id: u64, words: &[CipherWord], cow: &Counter) {
        let shards = Arc::make_mut(&mut self.shards);
        match shards.last_mut() {
            Some(last) if last.len() < SHARD_DOCS => make_mut(last, cow).push(doc_id, words),
            _ => {
                let mut shard = WordArena::new(self.params.word_len);
                shard.push(doc_id, words);
                shards.push(Arc::new(shard));
            }
        }
        self.next_doc_id = doc_id + 1;
    }

    /// Removes the given ids wherever they live; returns the removed
    /// ids in document order.
    ///
    /// Each shard holding a victim is rebuilt without it; then, in
    /// order, a shard merges into its predecessor when the two
    /// together fit in one shard, and an emptied shard disappears. So
    /// delete churn never leaves a run of hollow shards behind: every
    /// two neighbours still hold more than [`SHARD_DOCS`] documents.
    /// Only a merge changes a surviving shard in place, and a live
    /// snapshot sharing it costs that shard's copy, counted in `cow`.
    fn delete(&mut self, victims: &BTreeSet<u64>, cow: &Counter) -> Vec<u64> {
        let mut removed = Vec::new();
        let mut kept: Vec<Shard> = Vec::with_capacity(self.shards.len());
        for mut shard in Arc::unwrap_or_clone(std::mem::take(&mut self.shards)) {
            let mut held = victims.range(shard.doc_id(0)..=last_id(&shard));
            if held.any(|id| shard.doc_ids().binary_search(id).is_ok()) {
                shard = Arc::new(shard.retained(|id| {
                    let keep = !victims.contains(&id);
                    if !keep {
                        removed.push(id);
                    }
                    keep
                }));
            }
            match kept.last_mut() {
                _ if shard.is_empty() => {}
                Some(prev) if prev.len() + shard.len() <= SHARD_DOCS => {
                    make_mut(prev, cow).append_range(&shard, 0..shard.len());
                }
                _ => kept.push(shard),
            }
        }
        self.shards = Arc::new(kept);
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
        // The anchor is found by binary search, so a stream of C
        // chunks over T documents walks O(T + C·log T), not O(T·C).
        let positions = self
            .suffix(token)
            .flat_map(|(shard, start)| (start..shard.len()).map(move |i| (shard, i)));
        for (shard, i) in positions {
            let cost = encoded_bytes(shard, i);
            if !docs.is_empty() && bytes + cost > max_bytes {
                next = Some(shard.doc_id(i));
                break;
            }
            docs.push(shard.doc(i));
            bytes += cost;
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

    /// The documents with `id >= from`, as `(shard, first index)` for
    /// each shard holding some, in table order. Ids rise strictly along
    /// the table and no shard is empty, so the first shard and the
    /// first index in it are binary searches, and every later shard
    /// holds such documents only.
    fn suffix(&self, from: u64) -> impl Iterator<Item = (&Shard, usize)> {
        let first = self.shards.partition_point(|shard| last_id(shard) < from);
        let start = self
            .shards
            .get(first)
            .map_or(0, |shard| shard.doc_ids().partition_point(|&id| id < from));
        self.shards[first..]
            .iter()
            .zip(std::iter::once(start).chain(std::iter::repeat(0)))
    }

    /// Document ids (ascending) matched by `term` among documents with
    /// `id >= from` — the index's delta scan — plus the number of SWP
    /// checks run. Ids are strictly increasing in table order, so
    /// those documents form a contiguous suffix, found by binary
    /// search, and the match itself is the same addressed decision the
    /// full scan makes — identical decisions, identical false
    /// positives.
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
        let suffixes: Vec<(Shard, usize)> = self
            .suffix(from)
            .map(|(shard, start)| (Arc::clone(shard), start))
            .collect();
        if suffixes.is_empty() {
            return (Vec::new(), 0);
        }
        let docs = suffixes
            .iter()
            .map(|(shard, start)| shard.len() - start)
            .sum();
        let (params, attr, prepared) = (self.params, term.attr, PreparedTrapdoor::new(term));
        let parts = fan_out(pool, docs, suffixes.into_iter(), move |(shard, start)| {
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
    /// index plan's response assembly. Crypto-free: a binary search
    /// for each id's shard, then for the id in it, O(k log n) for k
    /// requested ids, which is what makes the indexed plan sublinear
    /// end-to-end.
    #[must_use]
    pub(crate) fn docs_by_ids(&self, ids: &[u64]) -> Vec<Doc> {
        let mut docs = Vec::with_capacity(ids.len());
        let mut rest: &[Shard] = &self.shards;
        for &id in ids {
            // Ids ascend across shards too, so the search never backs up.
            rest = &rest[rest.partition_point(|shard| last_id(shard) < id)..];
            let Some(shard) = rest.first() else { break };
            if let Ok(i) = shard.doc_ids().binary_search(&id) {
                docs.push(shard.doc(i));
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

    /// `(clients, entries)`: how many clients hold a window, and how
    /// many entries all their windows cache — each client's at most
    /// [`DEDUP_WINDOW`] plus its in-flight ones.
    #[must_use]
    pub fn sizes(&self) -> (usize, usize) {
        let clients = self.clients.lock();
        let entries = clients.values().map(|win| win.entries.len()).sum();
        (clients.len(), entries)
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

/// One stored table: its shards and the postings the index memoized
/// over them. A clone is a query's snapshot (two reference counts), so
/// a probe installs into the postings of the very table it scanned.
#[derive(Clone)]
struct StoredTable {
    table: ShardedTable,
    index: Arc<TableIndex>,
}

impl StoredTable {
    /// A table with no postings yet: every created or installed table
    /// starts here.
    fn new(table: ShardedTable) -> Self {
        StoredTable {
            table,
            index: Arc::default(),
        }
    }
}

/// Thread-safe named-table storage: each table a run of
/// fixed-capacity shards, every scan executed on one persistent worker
/// pool.
///
/// This is the state the server owns; every method is the storage half
/// of one protocol operation. Methods return [`PhError::Protocol`] for
/// conditions the server reports to the client as errors.
///
/// Queries run on a *snapshot*: the table's shard list and postings
/// are `Arc`-cloned under the read lock (O(1)) and the lock released before
/// any scanning happens, so a long scan never blocks appends or
/// deletes — copy-on-write mutation gives the scan a consistent view.
pub struct TableStore {
    pool: Arc<Executor>,
    tables: RwLock<HashMap<String, StoredTable>>,
    dedup: DedupWindow,
    /// Whether the opt-in encrypted inverted index ([`crate::index`])
    /// is on. Off by default; while off, no query reads or writes a
    /// posting and the server is bit-for-bit the scan-only server.
    index_on: AtomicBool,
    /// SWP checks run by scans and index delta scans — always on, like
    /// the executor's pool statistics.
    scan_checks: Counter,
    /// Bytes copied because a mutation changed a shard a live snapshot
    /// shared — always on, like `scan_checks`.
    cow_bytes: Counter,
}

impl TableStore {
    /// An empty store scanning on `pool`: [`Executor::global`] for
    /// the process-wide pool, or a dedicated one (tests pin pool sizes
    /// to prove pool-size invariance).
    #[must_use]
    pub fn new(pool: Arc<Executor>) -> Self {
        TableStore {
            pool,
            tables: RwLock::new(HashMap::new()),
            dedup: DedupWindow::new(),
            index_on: AtomicBool::new(false),
            scan_checks: Counter::default(),
            cow_bytes: Counter::default(),
        }
    }

    /// SWP checks run so far by every scan and index delta scan on
    /// this store: one per addressed slot checked. A one-term scan of
    /// an `N`-row table adds `N`.
    #[must_use]
    pub fn scan_checks(&self) -> u64 {
        self.scan_checks.get()
    }

    /// Bytes copied so far because an append or a delete changed a
    /// shard that a live snapshot (a query or fetch in flight, a
    /// compaction cut) still shared. An append under a snapshot copies
    /// at most the one shard it fills.
    #[must_use]
    pub fn cow_bytes(&self) -> u64 {
        self.cow_bytes.get()
    }

    /// Opts this store into the encrypted inverted index (idempotent).
    /// There is deliberately no `off` switch: disabling mid-flight
    /// would have to answer what happens to persisted postings, and no
    /// caller needs it.
    pub fn enable_index(&self) {
        self.index_on.store(true, Ordering::SeqCst);
    }

    /// Whether the encrypted inverted index is on.
    #[must_use]
    pub fn index_enabled(&self) -> bool {
        self.index_on.load(Ordering::SeqCst)
    }

    /// `(postings, ids)`: how many posting keys all tables cache, and
    /// how many document ids those postings hold.
    #[must_use]
    pub fn index_sizes(&self) -> (usize, usize) {
        let tables = self.tables.read();
        let sizes = tables.values().map(|stored| stored.index.sizes());
        sizes.fold((0, 0), |(keys, ids), (k, i)| (keys + k, ids + i))
    }

    /// The store's idempotent-request dedup window. It lives on the
    /// store (not the server front half) so the durable log — which
    /// only sees `&TableStore` during compaction — can persist and
    /// restore it alongside the table snapshot it belongs with.
    #[must_use]
    pub fn dedup(&self) -> &DedupWindow {
        &self.dedup
    }

    /// The worker pool scans run on.
    #[must_use]
    pub fn pool(&self) -> &Arc<Executor> {
        &self.pool
    }

    /// Cheap consistent snapshot of a table: its Arc-backed shard list
    /// and its postings handle.
    fn snapshot(&self, name: &str) -> Result<StoredTable, PhError> {
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
        let sharded = ShardedTable::from_arena(&table);
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(PhError::Protocol(format!("table exists: {name}")));
        }
        tables.insert(name.to_string(), StoredTable::new(sharded));
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
        let stored = self.snapshot(name)?;
        if self.index_enabled() {
            let answer = |terms: &Vec<WireTrapdoor>| self.query_indexed(&stored, terms);
            return Ok(queries.iter().map(answer).collect());
        }
        let views: Vec<&[WireTrapdoor]> = queries.iter().map(Vec::as_slice).collect();
        Ok(stored
            .table
            .scan_batch_on(&self.pool, &views, &self.scan_checks)
            .into_iter()
            .map(|result| (result, None))
            .collect())
    }

    /// The index plan for one query over the snapshot `stored`: per
    /// term, an index probe (cached posting + delta scan over the
    /// documents appended since the posting's bound) that reads from
    /// and installs into the snapshot's own postings, then an
    /// ascending-id intersection and a crypto-free reassembly, with
    /// one [`ProbeStats`] per probed term for the observer.
    fn query_indexed(&self, stored: &StoredTable, terms: &[WireTrapdoor]) -> Answer {
        let table = &stored.table;
        if terms.is_empty() {
            // Empty conjunction matches the whole table (scan parity).
            return (table.to_table(), Some(Vec::new()));
        }
        let mut stats = Vec::new();
        let mut survivors: Option<Vec<u64>> = None;
        for term in terms {
            let key = (term.attr, dbph_swp::index_label(term));
            let cached = stored.index.lookup(&key);
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
            // A racing drop takes these postings with the dropped
            // table, so what this probe installs is never served
            // against a table re-created under the same name.
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
            stored.index.install(key, refreshed);
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
    /// measure what the index leaks (a scan-only store, and an unknown
    /// name, return an empty image).
    #[must_use]
    pub fn index_at_rest(&self, name: &str) -> Vec<(PostingKey, Vec<u64>)> {
        let image = self.tables.read().get(name).map(|t| t.index.at_rest());
        image
            .unwrap_or_default()
            .into_iter()
            .map(|(key, posting)| (key, posting.doc_ids))
            .collect()
    }

    /// Reassembles the full table ciphertext.
    ///
    /// # Errors
    /// Fails for unknown tables.
    pub fn fetch_all(&self, name: &str) -> Result<EncryptedTable, PhError> {
        Ok(self.snapshot(name)?.table.to_table())
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
        Ok(self.snapshot(name)?.table.fetch_chunk(token, max_bytes))
    }

    /// Consistent snapshot of every table, sorted by name — the
    /// durable log's compaction input (sorting makes the snapshot
    /// segment a deterministic function of the store contents).
    #[must_use]
    pub(crate) fn snapshot_all(&self) -> Vec<(String, ShardedTable)> {
        let tables = self.tables.read();
        let mut all: Vec<(String, ShardedTable)> = tables
            .iter()
            .map(|(name, stored)| (name.clone(), stored.table.clone()))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// The whole at-rest index image, sorted by table name then key,
    /// skipping tables with no postings — the compaction snapshot
    /// input and the adversary's view.
    #[must_use]
    pub(crate) fn index_image(&self) -> Vec<(String, Vec<(PostingKey, Posting)>)> {
        let tables = self.tables.read();
        let mut image: Vec<(String, Vec<(PostingKey, Posting)>)> = tables
            .iter()
            .map(|(name, stored)| (name.clone(), stored.index.at_rest()))
            .filter(|(_, postings)| !postings.is_empty())
            .collect();
        image.sort_by(|a, b| a.0.cmp(&b.0));
        image
    }

    /// Installs a persisted index image (recovery) into the tables it
    /// names and turns the index on: a `TAG_INDEX` record exists only
    /// because the index was on when the snapshot was cut. Postings
    /// for a table that is not stored are dropped, since a posting is
    /// only a memo; a segment written while postings sat in a map of
    /// their own can name a table a racing probe outlived.
    pub(crate) fn install_index_image(&self, image: Vec<(String, Vec<(PostingKey, Posting)>)>) {
        let tables = self.tables.read();
        for (name, postings) in image {
            if let Some(stored) = tables.get(&name) {
                for (key, posting) in postings {
                    stored.index.install(key, posting);
                }
            }
        }
        drop(tables);
        self.enable_index();
    }

    /// Installs a table loaded from a compaction snapshot under `name`,
    /// replacing any previous entry, with no postings: a persisted
    /// index image, when present, follows the tables it describes in
    /// the log.
    pub(crate) fn install(&self, name: String, table: ShardedTable) {
        self.tables.write().insert(name, StoredTable::new(table));
    }

    /// Appends a batch of documents atomically: every id must be fresh
    /// (≥ the table's next id) and strictly increasing within the
    /// batch, or nothing is stored.
    ///
    /// # Errors
    /// Fails for unknown tables and stale/unordered ids.
    pub fn append_batch(&self, name: &str, docs: Vec<Doc>) -> Result<(), PhError> {
        let mut tables = self.tables.write();
        let table = &mut tables
            .get_mut(name)
            .ok_or_else(|| PhError::Protocol(format!("unknown table: {name}")))?
            .table;
        fresh_ids(table.next_doc_id, docs.iter().map(|&(id, _)| id))?;
        for (doc_id, words) in docs {
            table.push(doc_id, &words, &self.cow_bytes);
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
        let stored = tables
            .get_mut(name)
            .ok_or_else(|| PhError::Protocol(format!("unknown table: {name}")))?;
        let victims: BTreeSet<u64> = doc_ids.iter().copied().collect();
        let removed = stored.table.delete(&victims, &self.cow_bytes);
        // Eager purge (no tombstones): deleted ids leave every posting
        // immediately. See [`crate::index`] for the leakage argument.
        stored.index.purge(&removed);
        Ok(removed)
    }

    /// Drops the table, and its postings with it.
    ///
    /// # Errors
    /// Fails for unknown tables.
    pub fn drop_table(&self, name: &str) -> Result<(), PhError> {
        match self.tables.write().remove(name) {
            Some(_) => Ok(()),
            None => Err(PhError::Protocol(format!("unknown table: {name}"))),
        }
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
        let table = &tables.get(name)?.table;
        Some((table.doc_count(), table.ciphertext_bytes()))
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

    /// The document count of each shard, in order.
    fn sizes(st: &ShardedTable) -> Vec<usize> {
        st.shards().iter().map(|shard| shard.len()).collect()
    }

    /// The layout invariant every mutation keeps: no shard is empty or
    /// over capacity, every two neighbours hold more than one shard's
    /// worth, so a table of `n` documents has at most `2⌈n/C⌉ + 1`
    /// shards.
    fn assert_layout(st: &ShardedTable, what: &str) {
        let sizes = sizes(st);
        assert!(
            sizes.iter().all(|&s| (1..=SHARD_DOCS).contains(&s)),
            "{what}: a shard is empty or over capacity: {sizes:?}"
        );
        assert!(
            sizes.windows(2).all(|w| w[0] + w[1] > SHARD_DOCS),
            "{what}: two neighbours fit in one shard: {sizes:?}"
        );
        let n = st.doc_count();
        assert!(
            sizes.len() <= 2 * n.div_ceil(SHARD_DOCS) + 1,
            "{what}: {} shards for {n} documents",
            sizes.len()
        );
    }

    /// One document, fixture-shaped, for appends.
    fn word(i: u64) -> Vec<CipherWord> {
        vec![CipherWord(vec![(i % 251) as u8; 13])]
    }

    /// Table sizes on either side of every shard edge.
    const EDGES: [usize; 6] = [
        0,
        1,
        SHARD_DOCS - 1,
        SHARD_DOCS,
        SHARD_DOCS + 1,
        3 * SHARD_DOCS + 5,
    ];

    #[test]
    fn partition_is_contiguous_and_balanced() {
        // Full shards, then one partial last shard; an empty table has
        // no shards at all.
        for n in EDGES {
            let st = ShardedTable::from_arena(&table(n).into());
            let mut expect = vec![SHARD_DOCS; n / SHARD_DOCS];
            if n % SHARD_DOCS > 0 {
                expect.push(n % SHARD_DOCS);
            }
            assert_eq!(sizes(&st), expect, "{n} docs");
            assert_eq!(st.to_table(), table(n));
            assert_layout(&st, "upload");
        }
    }

    #[test]
    fn from_arena_cuts_full_shards_and_one_partial_last() {
        // Shard `i` holds documents `i·C ..` of the upload, in order.
        for n in EDGES {
            let flat = table(n);
            let st = ShardedTable::from_arena(&flat.clone().into());
            let mut rest = flat.docs.as_slice();
            for (i, shard) in st.shards().iter().enumerate() {
                let (head, tail) = rest.split_at(rest.len().min(SHARD_DOCS));
                assert_eq!(shard.to_docs(), head, "{n} docs, shard {i}");
                rest = tail;
            }
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn fetch_chunk_streams_the_exact_table() {
        let n = 2 * SHARD_DOCS + 25;
        let st = ShardedTable::from_arena(&table(n).into());
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
                    Some(next) => {
                        // Dense ids: the id-anchored token coincides
                        // with the old positional value, so the wire
                        // stream is unchanged for the tables
                        // snapshot/rekey fetch.
                        assert_eq!(next, docs.len() as u64, "dense ids: token == next id");
                        token = next;
                    }
                    None => break,
                }
            }
            assert_eq!(docs, whole.docs, "chunked stream diverged at {max_bytes} B");
            if max_bytes == 1 {
                // Tiny budget: one doc per chunk, still completes.
                assert_eq!(chunks, n);
            }
        }
        // Past-the-end and empty-table tokens terminate cleanly.
        let (tail, next) = st.fetch_chunk(u64::MAX, 1024);
        assert!(tail.docs.is_empty() && next.is_none());
        let empty = ShardedTable::from_arena(&table(0).into());
        let (chunk, next) = empty.fetch_chunk(0, 1024);
        assert!(chunk.docs.is_empty() && next.is_none());
        assert_eq!(chunk.next_doc_id, 0);
    }

    #[test]
    fn chunk_token_anchors_to_doc_ids_not_positions() {
        // Sparse ids (gaps from deletes): the token is a doc-id lower
        // bound, so chunks resume at the right document even though
        // positions and ids no longer coincide.
        let cow = Counter::default();
        let mut st = ShardedTable::from_arena(&table(10).into());
        st.delete(&BTreeSet::from([0, 1, 2, 5]), &cow); // survivors: 3, 4, 6, 7, 8, 9
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
        st.delete(&BTreeSet::from([3, 4, 6]), &cow);
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
        let store = TableStore::new(Executor::global());
        store.create("t", table(SHARD_DOCS + 40).into()).unwrap();
        let whole = store.fetch_all("t").unwrap();
        let mut docs = Vec::new();
        let mut token = 0u64;
        loop {
            let (chunk, next) = store.fetch_chunk("t", token, 4096).unwrap();
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
        let cow = Counter::default();
        let mut st = ShardedTable::from_arena(&table(4).into());
        st.push(4, &word(4), &cow);
        assert_eq!(sizes(&st), vec![5]);
        let flat = st.to_table();
        assert_eq!(flat.doc_ids(), vec![0, 1, 2, 3, 4]);
        assert_eq!(flat.next_doc_id, 5);
        // A full last shard is never grown: the append starts a new one.
        let n = SHARD_DOCS as u64;
        let mut st = ShardedTable::from_arena(&table(SHARD_DOCS).into());
        st.push(n, &word(n), &cow);
        assert_eq!(sizes(&st), vec![SHARD_DOCS, 1]);
        assert_eq!(st.to_table().doc_ids(), (0..=n).collect::<Vec<u64>>());
        assert_eq!(cow.get(), 0, "no snapshot, no copy");
    }

    #[test]
    fn heavy_appends_rebalance_across_shards() {
        // Start empty (the encrypted_sql example's flow) and append
        // many docs: they fill one shard after another, so the scan
        // has as many pieces of work as the table has full shards.
        let cow = Counter::default();
        let mut st = ShardedTable::from_arena(&table(0).into());
        let n = 3 * SHARD_DOCS as u64 + 5;
        for i in 0..n {
            st.push(i, &word(i), &cow);
        }
        assert_eq!(sizes(&st), vec![SHARD_DOCS, SHARD_DOCS, SHARD_DOCS, 5]);
        assert_layout(&st, "appends");
        // Order is still exactly insertion order.
        assert_eq!(st.to_table().doc_ids(), (0..n).collect::<Vec<u64>>());
        assert_eq!(st.next_doc_id(), n);
    }

    #[test]
    fn delete_returns_each_id_once_in_doc_order() {
        let mut st = ShardedTable::from_arena(&table(6).into());
        let removed = st.delete(
            &[4, 1, 1, 99].iter().copied().collect(),
            &Counter::default(),
        );
        assert_eq!(removed, vec![1, 4]);
        assert_eq!(st.to_table().doc_ids(), vec![0, 2, 3, 5]);
    }

    #[test]
    fn delete_churn_rebalances_hollowed_shards() {
        // Hollow out the second and third shards of a 4-shard table:
        // the third then fits into the second and merges with it, and
        // a shard deleted whole disappears.
        let c = SHARD_DOCS as u64;
        let mut st = ShardedTable::from_arena(&table(5 * SHARD_DOCS).into());
        let victims: BTreeSet<u64> = (c..2 * c - 5)
            .chain(2 * c + 10..3 * c)
            .chain(4 * c..5 * c)
            .collect();
        let removed = st.delete(&victims, &Counter::default());
        assert_eq!(removed, victims.iter().copied().collect::<Vec<u64>>());
        assert_eq!(sizes(&st), vec![SHARD_DOCS, 15, SHARD_DOCS]);
        assert_layout(&st, "hollowed");
        // Order preserved verbatim.
        let kept: Vec<u64> = (0..4 * c).filter(|id| !victims.contains(id)).collect();
        assert_eq!(st.to_table().doc_ids(), kept);
    }

    #[test]
    fn delete_that_fits_no_neighbour_leaves_the_layout_alone() {
        // Two shards that together still exceed one shard's capacity
        // stay apart, and a shard without victims is not even rebuilt.
        let mut st = ShardedTable::from_arena(&table(2 * SHARD_DOCS).into());
        let untouched = Arc::clone(&st.shards()[1]);
        st.delete(&(0..4u64).collect(), &Counter::default());
        assert_eq!(sizes(&st), vec![SHARD_DOCS - 4, SHARD_DOCS]);
        assert!(Arc::ptr_eq(&st.shards()[1], &untouched));
        assert_eq!(
            st.to_table().doc_ids(),
            (4..2 * SHARD_DOCS as u64).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn interleaved_append_delete_churn_keeps_shards_scan_worthy() {
        // A plain document list driven through the same interleaved
        // append/delete history is the reference; the sharded table
        // must agree with it and keep its layout invariant throughout.
        let cow = Counter::default();
        let mut st = ShardedTable::from_arena(&table(0).into());
        let mut model: Vec<Doc> = Vec::new();
        let mut next = 0u64;
        let step = SHARD_DOCS as u64 / 4;
        for round in 0..24u64 {
            // Append a run…
            for _ in 0..step {
                st.push(next, &word(next), &cow);
                model.push((next, word(next)));
                next += 1;
            }
            // …then carve out a contiguous cohort and every third id
            // of an older range (delete-heavy churn).
            let lo = round * step / 2;
            let victims: BTreeSet<u64> =
                (lo..lo + step / 2).chain((lo / 2..lo).step_by(3)).collect();
            let expect: Vec<u64> = model
                .iter()
                .map(|&(id, _)| id)
                .filter(|id| victims.contains(id))
                .collect();
            model.retain(|(id, _)| !victims.contains(id));
            assert_eq!(st.delete(&victims, &cow), expect, "delete diverged");
            assert_layout(&st, &format!("round {round}"));
        }
        assert_eq!(st.to_table().docs, model, "churned table diverged");
        assert_eq!(cow.get(), 0, "no snapshot, no copy");
    }

    #[test]
    fn appends_after_an_upload_fill_fixed_capacity_shards() {
        // A 1,000-row upload grown by 20,000 one-row appends: every
        // shard stays within capacity, so a scan on a two-worker pool
        // runs one task per `SHARD_DOCS` documents instead of holding
        // nearly the whole table in one task.
        let pool = Arc::new(Executor::new(2));
        let store = TableStore::new(Arc::clone(&pool));
        store.create("t", table(1_000).into()).unwrap();
        for i in 1_000..21_000u64 {
            store.append_batch("t", vec![(i, word(i))]).unwrap();
        }
        let st = store.snapshot("t").unwrap().table;
        assert_layout(&st, "grown by appends");
        assert!(sizes(&st).iter().all(|&s| s <= SHARD_DOCS));
        let before = pool.stats().tasks.get();
        let answers = store.query_batch("t", &[vec![byte_term(0, 1)]]).unwrap();
        assert!(answers[0].0.docs.is_empty());
        assert_eq!(
            pool.stats().tasks.get() - before,
            21_000u64.div_ceil(SHARD_DOCS as u64),
            "one scan task per shard"
        );
        assert_eq!(store.scan_checks(), 21_000);
    }

    #[test]
    fn delete_churn_merges_keep_the_shard_bound_order_and_answers() {
        // The same append/delete history on a two-worker and a
        // one-worker store: merges keep the shard-count bound and the
        // document order, and both pools answer every scan alike.
        let stores = [2, 1].map(|w| TableStore::new(Arc::new(Executor::new(w))));
        let n = 4 * SHARD_DOCS as u64;
        let queries = vec![vec![], vec![byte_term(0, 1)], vec![byte_term(1, 3)]];
        for store in &stores {
            store.create("t", table(n as usize).into()).unwrap();
        }
        let mut live: Vec<u64> = (0..n).collect();
        let mut next = n;
        for round in 0..12u64 {
            // Delete two ids in three, then every other survivor of a
            // second window, then append a short run.
            let lo = round * SHARD_DOCS as u64 / 3;
            let victims: Vec<u64> = (lo..lo + SHARD_DOCS as u64)
                .filter(|id| id % 3 != 0)
                .chain((lo + n / 2..lo + n / 2 + 64).step_by(2))
                .collect();
            live.retain(|id| !victims.contains(id));
            let appended: Vec<Doc> = (next..next + 40).map(|i| (i, word(i))).collect();
            live.extend(next..next + 40);
            next += 40;
            let answers: Vec<_> = stores
                .iter()
                .map(|store| {
                    store.delete_docs("t", &victims).unwrap();
                    store.append_batch("t", appended.clone()).unwrap();
                    let st = store.snapshot("t").unwrap().table;
                    assert_layout(&st, &format!("round {round}"));
                    assert_eq!(st.to_table().doc_ids(), live, "order changed");
                    store.query_batch("t", &queries).unwrap()
                })
                .collect();
            assert_eq!(answers[0], answers[1], "pools diverged at round {round}");
        }
        // The churn did merge: fewer shards than an append-only table
        // of the same history would hold.
        let st = stores[0].snapshot("t").unwrap().table;
        assert!(st.shards().len() < (next as usize).div_ceil(SHARD_DOCS));
    }

    #[test]
    fn an_append_under_a_live_snapshot_copies_at_most_one_shard() {
        let store = TableStore::new(Executor::global());
        store.create("t", table(3 * SHARD_DOCS + 5).into()).unwrap();
        let n = 3 * SHARD_DOCS as u64 + 5;

        // No snapshot alive: the append writes in place.
        store.append_batch("t", vec![(n, word(n))]).unwrap();
        assert_eq!(store.cow_bytes(), 0);

        // A query's snapshot shares every shard: the append copies the
        // one shard it fills, no more, and the snapshot keeps its view.
        let snapshot = store.snapshot("t").unwrap().table;
        let last = snapshot.shards().last().unwrap().heap_bytes() as u64;
        store
            .append_batch("t", vec![(n + 1, word(n + 1)), (n + 2, word(n + 2))])
            .unwrap();
        let after_append = store.cow_bytes();
        assert_eq!(after_append, last, "one copy of the last shard");
        let largest = snapshot
            .shards()
            .iter()
            .map(|s| s.heap_bytes())
            .max()
            .unwrap();
        assert!(after_append <= largest as u64);

        // A delete rebuilds the shards it touches anyway, so under the
        // same snapshot it copies nothing while no merge is due.
        store.delete_docs("t", &[7, SHARD_DOCS as u64 + 3]).unwrap();
        assert_eq!(store.cow_bytes(), after_append);

        assert_eq!(
            snapshot.doc_count(),
            3 * SHARD_DOCS + 6,
            "the snapshot kept its view"
        );
        assert_eq!(store.stats("t").unwrap().0, 3 * SHARD_DOCS + 6);
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
        let store = TableStore::new(Executor::global());
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
        let store = TableStore::new(Executor::global());
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
        let st = ShardedTable::from_arena(&table(2 * SHARD_DOCS + 100).into());
        let pool = Executor::new(3);
        let queries = [vec![], vec![byte_term(0, 7)], vec![]];
        let views: Vec<&[_]> = queries.iter().map(Vec::as_slice).collect();
        let checks = Counter::default();
        let batched = st.scan_batch_on(&pool, &views, &checks);
        assert_eq!(batched.len(), 3);
        let flat = st.to_table();
        for (q, result) in views.iter().zip(&batched) {
            let reference = crate::swp_ph::execute_query(&flat, q);
            assert_eq!(result, &reference, "batch diverged");
        }
        let n = 2 * SHARD_DOCS as u64 + 100;
        assert_eq!(batched[0].doc_ids(), (0..n).collect::<Vec<u64>>());
        assert!(batched[1].docs.is_empty());
        // One addressed slot per row, for the one non-empty query.
        assert_eq!(checks.get(), n);
    }

    #[test]
    fn empty_batch_yields_no_tables() {
        let st = ShardedTable::from_arena(&table(10).into());
        let pool = Executor::new(2);
        let out = st.scan_batch_on(&pool, &[], &Counter::default());
        assert!(out.is_empty());
    }

    #[test]
    fn store_query_batch_preserves_query_order() {
        let store = TableStore::new(Arc::new(Executor::new(4)));
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
        let store = TableStore::new(Arc::clone(&pool));
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

        // Cold: 600 documents, one pool task per shard.
        let c = SHARD_DOCS as u64;
        let cold = 600u64.div_ceil(c);
        assert_eq!(probe(), 600);
        assert_eq!(tasks(), cold);
        assert_eq!(store.scan_checks(), 600);

        // A 10-document delta runs inline: the pool sees nothing.
        append(600..610);
        assert_eq!(probe(), 10);
        assert_eq!(tasks(), cold);
        assert_eq!(store.scan_checks(), 610);

        // A 600-document delta fans out again, one task per shard
        // holding an id at or past 610: ids are dense, so shard `i`
        // holds ids `i·C .. (i + 1)·C`.
        append(610..1210);
        let suffixes = 1210u64.div_ceil(c) - 610 / c;
        assert_eq!(
            store.snapshot("t").unwrap().table.shards().len() as u64,
            1210u64.div_ceil(c)
        );
        assert_eq!(probe(), 600);
        assert_eq!(tasks(), cold + suffixes);
        assert_eq!(store.scan_checks(), 1210);

        // Nothing appended: nothing checked, nothing dispatched.
        assert_eq!(probe(), 0);
        assert_eq!(tasks(), cold + suffixes);
        assert_eq!(store.scan_checks(), 1210);
    }

    #[test]
    fn racing_creates_of_one_name_store_exactly_the_winner() {
        // Shards are cut before the store lock, so two uploads of one
        // name race to the name check: one is stored, whole, and the
        // other is refused.
        for _ in 0..20 {
            let store = Arc::new(TableStore::new(Executor::global()));
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
        let store = TableStore::new(Executor::global());
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

    #[test]
    fn a_probe_racing_a_drop_and_recreate_leaves_the_new_table_exact() {
        use crate::ph::DatabasePh;
        use crate::swp_ph::{execute_query, FinalSwpPh};
        use dbph_relation::schema::emp_schema;
        use dbph_relation::{tuple, Query, Relation};

        let master = dbph_crypto::SecretKey::from_bytes([7; 32]);
        let ph = FinalSwpPh::new(emp_schema(), &master).unwrap();
        let upload = |depts: [&str; 4]| {
            let rows = depts.iter().map(|&d| tuple!["Ann", d, 1000i64]).collect();
            let relation = Relation::from_tuples(emp_schema(), rows).unwrap();
            ph.encrypt_columnar(&relation).unwrap()
        };
        let query = ph.encrypt_query(&Query::select("dept", "HR")).unwrap();
        let terms: Vec<WireTrapdoor> = query
            .terms
            .iter()
            .map(WireTrapdoor::from_trapdoor)
            .collect();
        let store = TableStore::new(Executor::global());
        store.enable_index();
        store.create("t", upload(["HR", "IT", "IT", "HR"])).unwrap();

        // The interleaving by hand: a probe cuts its snapshot, a drop
        // and re-create run, then the probe finishes and installs.
        let stale = store.snapshot("t").unwrap();
        store.drop_table("t").unwrap();
        store.create("t", upload(["IT", "HR", "HR", "IT"])).unwrap();
        let (old, _) = store.query_indexed(&stale, &terms);
        assert_eq!(
            old.doc_ids(),
            vec![0, 3],
            "the probe answers its own snapshot"
        );

        // The new table answers from its own (empty) postings, exactly
        // as the scan does.
        let (answer, probes) = store
            .query_batch("t", std::slice::from_ref(&terms))
            .unwrap()
            .pop()
            .unwrap();
        let scanned = execute_query(&store.fetch_all("t").unwrap(), &terms);
        assert_eq!(answer, scanned);
        assert_eq!(answer.doc_ids(), vec![1, 2]);
        assert_eq!(
            probes.unwrap()[0].cached,
            None,
            "a re-created table starts cold"
        );
    }

    fn posting(doc_ids: Vec<u64>, bound: u64) -> Posting {
        Posting { doc_ids, bound }
    }

    #[test]
    fn index_image_is_sorted_and_skips_tables_without_postings() {
        let store = TableStore::new(Executor::global());
        assert!(!store.index_enabled());
        store.enable_index();
        assert!(store.index_enabled());
        for name in ["zeta", "alpha", "empty"] {
            store.create(name, table(4).into()).unwrap();
        }
        let index = |name: &str| store.snapshot(name).unwrap().index;
        index("zeta").install((0, [3; 32]), posting(vec![2], 3));
        index("zeta").install((0, [1; 32]), posting(vec![], 3));
        index("alpha").install((0, [9; 32]), posting(vec![0, 1], 2));
        let image = store.index_image();
        let names: Vec<&str> = image.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(image[1].1[0].0, (0, [1; 32]), "keys sorted within a table");
        assert_eq!(store.index_sizes(), (3, 3));
        // A drop takes the table's postings with it.
        store.drop_table("zeta").unwrap();
        assert_eq!(store.index_image().len(), 1);
        assert_eq!(store.index_sizes(), (1, 2));
    }

    #[test]
    fn index_image_roundtrips_through_install() {
        let store = TableStore::new(Executor::global());
        store.enable_index();
        store.create("t", table(9).into()).unwrap();
        let index = store.snapshot("t").unwrap().index;
        index.install((0, [7; 32]), posting(vec![4, 8], 9));
        let image = store.index_image();
        let restored = TableStore::new(Executor::global());
        restored.create("t", table(9).into()).unwrap();
        restored.install_index_image(image.clone());
        assert!(
            restored.index_enabled(),
            "a persisted image implies enabled"
        );
        assert_eq!(restored.index_image(), image);
    }

    #[test]
    fn index_at_rest_of_an_unknown_name_is_empty() {
        let store = TableStore::new(Executor::global());
        store.enable_index();
        assert!(store.index_at_rest("nope").is_empty());
        store.create("t", table(3).into()).unwrap();
        assert!(store.index_at_rest("t").is_empty());
        assert!(store.index_image().is_empty());
    }
}
