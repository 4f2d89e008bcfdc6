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
//! * **Postings live with their table.** Each table in
//!   [`crate::storage::TableStore`] owns its [`TableIndex`], and a
//!   query's table snapshot carries that handle, so a probe reads from
//!   and installs into the table it scanned. A drop takes the table's
//!   postings with it and a created or recovered table starts with
//!   none: a probe that races a drop and re-create installs into the
//!   dropped table, never into the new one of the same name.
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

/// One table's encrypted multimap: `(attr, label)` → posting list,
/// behind the table's own lock. Each stored table owns one, shared
/// with the query snapshots cut from it, so postings are created,
/// served and dropped with the table they describe.
#[derive(Debug, Default)]
pub struct TableIndex {
    postings: Mutex<HashMap<PostingKey, Posting>>,
}

impl TableIndex {
    /// Looks up the cached posting for `key`, if any.
    #[must_use]
    pub fn lookup(&self, key: &PostingKey) -> Option<Posting> {
        self.postings.lock().get(key).cloned()
    }

    /// Installs (or replaces) the posting for `key`.
    pub fn install(&self, key: PostingKey, posting: Posting) {
        self.postings.lock().insert(key, posting);
    }

    /// Eagerly removes `deleted` ids (strictly ascending, as
    /// [`crate::storage::TableStore::delete_docs`] returns them) from
    /// every posting — the no-tombstone delete rule (see the module
    /// docs for the leakage consequence). One binary search per posted
    /// id, so P posted ids cost P·log k for k deleted ones.
    pub fn purge(&self, deleted: &[u64]) {
        debug_assert!(deleted.windows(2).all(|w| w[0] < w[1]), "unsorted purge");
        if deleted.is_empty() {
            return;
        }
        for posting in self.postings.lock().values_mut() {
            posting
                .doc_ids
                .retain(|id| deleted.binary_search(id).is_err());
        }
    }

    /// `(postings, ids)`: how many posting keys are cached, and how
    /// many document ids those postings hold.
    #[must_use]
    pub fn sizes(&self) -> (usize, usize) {
        let postings = self.postings.lock();
        let ids = postings.values().map(|posting| posting.doc_ids.len());
        (postings.len(), ids.sum())
    }

    /// The at-rest image, sorted by key for determinism: what Eve
    /// reads out of her own memory, and what compaction persists.
    #[must_use]
    pub fn at_rest(&self) -> Vec<(PostingKey, Posting)> {
        let mut all: Vec<(PostingKey, Posting)> = self
            .postings
            .lock()
            .iter()
            .map(|(key, posting)| (*key, posting.clone()))
            .collect();
        all.sort_by_key(|entry| entry.0);
        all
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
        let index = TableIndex::default();
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
        assert_eq!(index.sizes(), (2, 4));
        index.purge(&[5, 9]);
        assert_eq!(index.lookup(&key(1)).unwrap().doc_ids, vec![1]);
        assert!(index.lookup(&key(2)).unwrap().doc_ids.is_empty());
        // Bounds survive a purge: coverage is unchanged, membership is.
        assert_eq!(index.lookup(&key(2)).unwrap().bound, 10);
        assert_eq!(index.sizes(), (2, 1));
    }

    #[test]
    fn purge_matches_the_linear_reference() {
        // A fixed-seed xorshift: ascending lists of every shape, the
        // deleted list drawn from the posted ids, around them, or both.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut ascending = |len: u64, span: u64, offset: u64| {
            let mut ids: Vec<u64> = (0..len).map(|_| offset + next(span.max(1))).collect();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        for round in 0..400u64 {
            let posted = ascending(round % 60, 200, 0);
            let deleted = match round % 4 {
                0 => Vec::new(),
                1 => posted.clone(),
                2 => ascending(round % 30, 200, 1_000),
                _ => ascending(round % 90, 220, 0),
            };
            let index = TableIndex::default();
            let posting = |doc_ids| Posting {
                doc_ids,
                bound: 1_300,
            };
            index.install(key(1), posting(posted.clone()));
            index.purge(&deleted);
            let mut reference = posted;
            reference.retain(|id| !deleted.contains(id));
            let purged = index.lookup(&key(1)).unwrap().doc_ids;
            assert_eq!(purged, reference, "round {round}: deleted {deleted:?}");
        }
    }

    #[test]
    fn same_label_at_two_attrs_is_two_postings() {
        let index = TableIndex::default();
        let label = [4u8; 32];
        let posting = |ids: Vec<u64>| Posting {
            doc_ids: ids,
            bound: 5,
        };
        index.install((0, label), posting(vec![1]));
        index.install((2, label), posting(vec![3, 4]));
        assert_eq!(index.sizes().0, 2);
        assert_eq!(index.lookup(&(0, label)).unwrap().doc_ids, vec![1]);
        assert_eq!(index.lookup(&(2, label)).unwrap().doc_ids, vec![3, 4]);
        assert!(index.lookup(&(1, label)).is_none());
        let keys: Vec<PostingKey> = index.at_rest().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![(0, label), (2, label)], "sorted by attr first");
    }
}
