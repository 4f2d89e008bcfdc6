//! Server-side encrypted inverted index — a memoizing encrypted
//! multimap (EMM) beside the scan engine.
//!
//! The paper's `ψ` is a linear trapdoor scan: every query pays
//! O(total words) of PRF work. That is the construction's security
//! *choice*, not an accident — but it cannot serve millions of users.
//! This module adds the classic sublinear answer, an encrypted
//! multimap from trapdoor-derived labels to posting lists, as an
//! **opt-in** alternative plan with the scan kept as the reference
//! oracle:
//!
//! * **Key.** [`dbph_swp::index_label`] hashes the trapdoor's own
//!   bytes (`target`, `check_key`) — material the server already
//!   holds — into a fixed 32-byte label, and the multimap key is
//!   [`PostingKey`] `(attr, label)`: the term's attribute position
//!   plus that label. Equal terms map to equal keys, which is exactly
//!   the query-equality leakage the wire already exhibits; the same
//!   trapdoor bytes addressed to two positions match different words
//!   and so get two postings.
//! * **Posting.** [`Posting`] stores the ascending matched document
//!   ids plus a `bound`: the table's `next_doc_id` when the posting
//!   was last refreshed. Because document ids are strictly increasing
//!   in table order (the append path rejects stale ids), every
//!   document appended after the refresh has `id >= bound` and forms a
//!   contiguous *suffix* of the table — so a probe serves the cached
//!   ids and delta-scans only that suffix. Appends therefore need no
//!   index maintenance at all; the index is a memo, lazily caught up
//!   at the next probe of each term. The delta scan (the whole table
//!   on a term's first probe) runs one task per shard holding part of
//!   the suffix, on the scan pool once it checks at least as many
//!   documents as a pooled scan would, inline below that; an empty
//!   suffix costs neither a task nor a trapdoor preparation.
//!   [`ProbeStats::checked`] counts its SWP checks.
//! * **Deletes: eager purge, no tombstones.** [`TableIndex::purge`]
//!   removes deleted ids from every posting of the table immediately.
//!   The documented leakage consequence: Eve (who *is* the server)
//!   can diff the at-rest multimap across a delete and learn which
//!   previously-queried labels matched the deleted documents — a
//!   deletion pattern the tombstone alternative would briefly hide at
//!   the cost of serving ghosts. Since Eve already observes every
//!   `DeleteDocs` id *and* every query's matched-id access pattern,
//!   the purge reveals a join of two patterns she has, not a new one.
//! * **Layout changes are free.** Postings are keyed by document
//!   *id*, not position, and neither a new shard nor a merge of two
//!   shards renames an id — so shard churn requires no index work.
//!
//! Correctness (pinned by `tests/index_equivalence.rs`): the SWP match
//! decision is **deterministic** per (attr, trapdoor bytes, stored word
//! bytes) — false positives included — so a cached posting equals the
//! scan's match set over the prefix it covers, the delta scan equals
//! it over the suffix, and their concatenation (still ascending)
//! intersected across terms reproduces the scan's candidate set
//! exactly. Responses are assembled from the live table in id order,
//! so they are byte-identical to the scan plan's.
//!
//! What the at-rest index reveals beyond the scan engine's state: the
//! multimap `(attr, label) → posting` itself, i.e. for every *queried* term
//! the number (and identity) of matching documents, persisted across
//! requests. `crates/games`' posting-length frequency attack measures
//! the recovery rate this enables; the scan-only server exhibits no
//! such at-rest structure.

use std::collections::HashMap;

use parking_lot::Mutex;

use dbph_swp::IndexLabel;

/// A multimap key: the term's attribute position and its trapdoor
/// label ([`dbph_swp::index_label`]).
pub type PostingKey = (u8, IndexLabel);

/// One posting list: the matched document ids (ascending) for a label,
/// valid for every document with id below `bound`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// Matched document ids, strictly ascending.
    pub doc_ids: Vec<u64>,
    /// Exclusive id horizon: the table's `next_doc_id` at the last
    /// refresh. Documents with `id >= bound` are not covered and must
    /// be delta-scanned.
    pub bound: u64,
}

/// The per-table encrypted multimap: `(attr, label)` → posting list.
#[derive(Debug, Default)]
pub struct TableIndex {
    postings: HashMap<PostingKey, Posting>,
}

impl TableIndex {
    /// Looks up the cached posting for `key`, if any.
    #[must_use]
    pub fn lookup(&self, key: &PostingKey) -> Option<Posting> {
        self.postings.get(key).cloned()
    }

    /// Installs (or replaces) the posting for `key`.
    pub fn install(&mut self, key: PostingKey, posting: Posting) {
        self.postings.insert(key, posting);
    }

    /// Eagerly removes `deleted` ids from every posting — the
    /// no-tombstone delete rule (see the module docs for the leakage
    /// consequence).
    pub fn purge(&mut self, deleted: &[u64]) {
        if deleted.is_empty() {
            return;
        }
        for posting in self.postings.values_mut() {
            posting.doc_ids.retain(|id| !deleted.contains(id));
        }
    }

    /// Number of cached keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// Whether no postings are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// The at-rest image, sorted by key for determinism: what Eve
    /// reads out of her own memory, and what compaction persists.
    #[must_use]
    pub fn at_rest(&self) -> Vec<(PostingKey, Posting)> {
        let mut all: Vec<(PostingKey, Posting)> = self
            .postings
            .iter()
            .map(|(key, posting)| (*key, posting.clone()))
            .collect();
        all.sort_by_key(|entry| entry.0);
        all
    }
}

/// The store-wide index state: per-table multimaps behind one lock,
/// plus the opt-in switch. Default **off** — with the index disabled
/// every code path, response byte, observer transcript, and durable
/// segment is identical to the scan-only server.
#[derive(Debug, Default)]
pub struct IndexState {
    enabled: std::sync::atomic::AtomicBool,
    tables: Mutex<HashMap<String, TableIndex>>,
}

impl IndexState {
    /// A disabled, empty index.
    #[must_use]
    pub fn new() -> Self {
        IndexState::default()
    }

    /// Turns the index on (idempotent). There is deliberately no `off`
    /// switch: disabling mid-flight would have to answer what happens
    /// to persisted postings, and no caller needs it.
    pub fn enable(&self) {
        self.enabled
            .store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Whether the index is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Runs `f` over the (possibly absent) multimap for `name`.
    pub(crate) fn with_table<R>(&self, name: &str, f: impl FnOnce(&mut TableIndex) -> R) -> R {
        let mut tables = self.tables.lock();
        f(tables.entry(name.to_string()).or_default())
    }

    /// Drops all postings for `name` — table drop / re-create / replay
    /// install all invalidate the memo wholesale.
    pub(crate) fn clear_table(&self, name: &str) {
        self.tables.lock().remove(name);
    }

    /// Eagerly purges `deleted` ids from `name`'s postings.
    pub(crate) fn purge(&self, name: &str, deleted: &[u64]) {
        if deleted.is_empty() {
            return;
        }
        let mut tables = self.tables.lock();
        if let Some(index) = tables.get_mut(name) {
            index.purge(deleted);
        }
    }

    /// `(postings, ids)`: how many posting keys all tables cache, and
    /// how many document ids those postings hold.
    #[must_use]
    pub fn sizes(&self) -> (usize, usize) {
        let tables = self.tables.lock();
        let postings = tables.values().map(TableIndex::len).sum();
        let ids = tables
            .values()
            .flat_map(|index| index.postings.values())
            .map(|posting| posting.doc_ids.len())
            .sum();
        (postings, ids)
    }

    /// The whole at-rest image, sorted by table name then key — the
    /// compaction snapshot input and the adversary's view.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, Vec<(PostingKey, Posting)>)> {
        let tables = self.tables.lock();
        let mut all: Vec<(String, Vec<(PostingKey, Posting)>)> = tables
            .iter()
            .filter(|(_, index)| !index.is_empty())
            .map(|(name, index)| (name.clone(), index.at_rest()))
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Installs a persisted image (recovery path) and enables the
    /// index — a `TAG_INDEX` record only ever exists because the index
    /// was on when the snapshot was cut.
    pub(crate) fn install_snapshot(&self, image: Vec<(String, Vec<(PostingKey, Posting)>)>) {
        let mut tables = self.tables.lock();
        for (name, postings) in image {
            let index = tables.entry(name).or_default();
            for (key, posting) in postings {
                index.install(key, posting);
            }
        }
        drop(tables);
        self.enable();
    }
}

/// What one multimap probe did — surfaced to the observer so the
/// transcript states exactly what the index revealed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeStats {
    /// The multimap key: the term's attribute position and its label
    /// (trapdoor-derived; Eve can compute it from the wire term
    /// herself).
    pub key: PostingKey,
    /// Cached posting length served, if the label was present.
    pub cached: Option<usize>,
    /// First document id covered by the fresh delta scan (the old
    /// `bound`, or 0 on a cold miss).
    pub delta_from: u64,
    /// Posting length after the refresh — the length the at-rest
    /// multimap now reveals for this label.
    pub posting: usize,
    /// SWP checks the delta scan ran: one per document at or past
    /// `delta_from` with an addressed slot. Operator telemetry only —
    /// the `IndexProbe` event does not carry it.
    pub checked: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> PostingKey {
        (0, [b; 32])
    }

    #[test]
    fn install_lookup_purge() {
        let mut index = TableIndex::default();
        assert!(index.lookup(&key(1)).is_none());
        index.install(
            key(1),
            Posting {
                doc_ids: vec![1, 5, 9],
                bound: 10,
            },
        );
        index.install(
            key(2),
            Posting {
                doc_ids: vec![5],
                bound: 10,
            },
        );
        assert_eq!(index.lookup(&key(1)).unwrap().doc_ids, vec![1, 5, 9]);
        index.purge(&[5, 9]);
        assert_eq!(index.lookup(&key(1)).unwrap().doc_ids, vec![1]);
        assert!(index.lookup(&key(2)).unwrap().doc_ids.is_empty());
        // Bounds survive a purge: coverage is unchanged, membership is.
        assert_eq!(index.lookup(&key(2)).unwrap().bound, 10);
    }

    #[test]
    fn same_label_at_two_attrs_is_two_postings() {
        let mut index = TableIndex::default();
        let label = [4u8; 32];
        let posting = |ids: Vec<u64>| Posting {
            doc_ids: ids,
            bound: 5,
        };
        index.install((0, label), posting(vec![1]));
        index.install((2, label), posting(vec![3, 4]));
        assert_eq!(index.len(), 2);
        assert_eq!(index.lookup(&(0, label)).unwrap().doc_ids, vec![1]);
        assert_eq!(index.lookup(&(2, label)).unwrap().doc_ids, vec![3, 4]);
        assert!(index.lookup(&(1, label)).is_none());
        let keys: Vec<PostingKey> = index.at_rest().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![(0, label), (2, label)], "sorted by attr first");
    }

    #[test]
    fn state_snapshot_is_sorted_and_skips_empty_tables() {
        let state = IndexState::new();
        assert!(!state.is_enabled());
        state.enable();
        assert!(state.is_enabled());
        state.with_table("zeta", |index| {
            index.install(
                key(3),
                Posting {
                    doc_ids: vec![2],
                    bound: 3,
                },
            );
            index.install(
                key(1),
                Posting {
                    doc_ids: vec![],
                    bound: 3,
                },
            );
        });
        state.with_table("alpha", |index| {
            index.install(
                key(9),
                Posting {
                    doc_ids: vec![0, 1],
                    bound: 2,
                },
            );
        });
        state.with_table("empty", |_| ());
        let snap = state.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "alpha");
        assert_eq!(snap[1].0, "zeta");
        assert_eq!(snap[1].1[0].0, key(1), "keys sorted within a table");
        state.clear_table("zeta");
        assert_eq!(state.snapshot().len(), 1);
    }

    #[test]
    fn snapshot_roundtrips_through_install() {
        let state = IndexState::new();
        state.enable();
        state.with_table("t", |index| {
            index.install(
                key(7),
                Posting {
                    doc_ids: vec![4, 8],
                    bound: 9,
                },
            );
        });
        let image = state.snapshot();
        let restored = IndexState::new();
        restored.install_snapshot(image.clone());
        assert!(restored.is_enabled(), "a persisted image implies enabled");
        assert_eq!(restored.snapshot(), image);
    }
}
