//! Columnar per-shard cipher-word storage.
//!
//! The boxed layout — one `Vec<u8>` per cipher word inside a
//! `Vec<CipherWord>` per document — scatters a shard's ciphertext over
//! the heap: every SWP check starts with a pointer chase and the scan
//! kernel's 16-lane pipeline ([`dbph_swp::ScanKernel`]) would stall on
//! cache misses instead of filling issue slots. A [`WordArena`] stores
//! a whole shard's words in **one contiguous fixed-width slot buffer**
//! (stride = the table's `word_len`) with per-document offsets, so a
//! full-shard scan is a linear walk and a survivors-only conjunctive
//! pass stays index-addressable.
//!
//! Fidelity is non-negotiable: the wire can deliver documents whose
//! words do *not* have the table's word length (they can never match —
//! the SWP check rejects length mismatches — but `FetchAll` must
//! return them byte-identically). Such *irregular* words are stored
//! verbatim in a side list and addressed through the same per-word
//! reference array as the regular slots, so reassembled documents are
//! exactly the bytes that arrived, in order, whatever their shape.
//! The representation is canonical — a function of `(word_len, docs)`
//! alone, independent of the append/delete history — so derived
//! equality is document equality.

use dbph_swp::CipherWord;

use crate::storage::Doc;

/// Tag bit distinguishing irregular-word references from slot ranks.
const IRREGULAR_BIT: u32 = 1 << 31;

/// A shard's documents in columnar form: ids, per-doc word boundaries,
/// and one contiguous fixed-width buffer of cipher-word slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordArena {
    /// Slot stride in bytes (the table's `word_len`).
    word_len: usize,
    /// Document ids, in document order.
    doc_ids: Vec<u64>,
    /// Per-document word boundaries: document `i`'s words are
    /// `refs[offsets[i]..offsets[i + 1]]`. Length `doc_ids.len() + 1`.
    offsets: Vec<u32>,
    /// Per logical word: a rank into `slots` (stride `word_len`), or
    /// `IRREGULAR_BIT | rank` into `irregular`.
    refs: Vec<u32>,
    /// Regular word bytes, fixed stride, in logical word order.
    slots: Vec<u8>,
    /// Words whose length differs from `word_len`, stored verbatim.
    irregular: Vec<Vec<u8>>,
}

impl WordArena {
    /// An empty arena with the given slot width.
    #[must_use]
    pub fn new(word_len: usize) -> Self {
        WordArena {
            word_len,
            doc_ids: Vec::new(),
            offsets: vec![0],
            refs: Vec::new(),
            slots: Vec::new(),
            irregular: Vec::new(),
        }
    }

    /// Builds an arena from documents in order.
    #[must_use]
    pub fn from_docs<I: IntoIterator<Item = Doc>>(word_len: usize, docs: I) -> Self {
        let mut arena = WordArena::new(word_len);
        for (id, words) in docs {
            arena.push(id, &words);
        }
        arena
    }

    /// The slot stride in bytes.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Number of documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.doc_ids.len()
    }

    /// Whether the arena holds no documents.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.doc_ids.is_empty()
    }

    /// Total number of stored words.
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.refs.len()
    }

    /// Whether any stored word deviates from the slot width. When
    /// false, every reference is a plain slot rank (in fact the
    /// identity, by construction) and scans touch only `slots`.
    #[must_use]
    pub fn has_irregular(&self) -> bool {
        !self.irregular.is_empty()
    }

    /// Id of document `i`.
    #[must_use]
    pub fn doc_id(&self, i: usize) -> u64 {
        self.doc_ids[i]
    }

    /// The logical word indices belonging to document `i` (for use
    /// with [`Self::word`] / [`Self::regular_slot`]).
    #[must_use]
    pub fn word_range(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Exact bytes of logical word `w`, whatever its length.
    #[must_use]
    pub fn word(&self, w: usize) -> &[u8] {
        let r = self.refs[w];
        if r & IRREGULAR_BIT == 0 {
            let start = r as usize * self.word_len;
            &self.slots[start..start + self.word_len]
        } else {
            &self.irregular[(r & !IRREGULAR_BIT) as usize]
        }
    }

    /// The fixed-width slot of logical word `w`, or `None` if the word
    /// is irregular (wrong length ⇒ it can never match a scan anyway).
    #[must_use]
    pub fn regular_slot(&self, w: usize) -> Option<&[u8]> {
        let r = self.refs[w];
        (r & IRREGULAR_BIT == 0).then(|| {
            let start = r as usize * self.word_len;
            &self.slots[start..start + self.word_len]
        })
    }

    /// Reassembles document `i` exactly as it was stored.
    #[must_use]
    pub fn doc(&self, i: usize) -> Doc {
        let words = self
            .word_range(i)
            .map(|w| CipherWord(self.word(w).to_vec()))
            .collect();
        (self.doc_ids[i], words)
    }

    /// Reassembles every document, in order, byte-identical to what
    /// was pushed.
    #[must_use]
    pub fn to_docs(&self) -> Vec<Doc> {
        (0..self.len()).map(|i| self.doc(i)).collect()
    }

    /// Stores one word's bytes and its reference — the single point
    /// where the regular/irregular classification happens (shared by
    /// [`Self::push`], [`Self::retain`], and [`Self::append_range`]).
    ///
    /// `pub(crate)` for the durable log's recovery decoder, which
    /// streams word slices straight out of a record buffer and must
    /// pair every run of `push_word` calls with one [`Self::seal_doc`].
    ///
    /// # Panics
    /// Panics if the shard reaches 2³¹ regular or irregular words —
    /// the `u32` reference encoding's ceiling. At ≥ 2 bytes per word
    /// that is a ≥ 4 GiB shard; split the table first.
    pub(crate) fn push_word(&mut self, bytes: &[u8]) {
        let rank = if bytes.len() == self.word_len {
            let rank = self.slots.len() / self.word_len.max(1);
            assert!(rank < IRREGULAR_BIT as usize, "shard exceeds 2^31 words");
            self.slots.extend_from_slice(bytes);
            rank as u32
        } else {
            let rank = self.irregular.len();
            assert!(rank < IRREGULAR_BIT as usize, "shard exceeds 2^31 words");
            self.irregular.push(bytes.to_vec());
            IRREGULAR_BIT | rank as u32
        };
        self.refs.push(rank);
    }

    /// Seals the currently buffered words as document `doc_id`.
    pub(crate) fn seal_doc(&mut self, doc_id: u64) {
        self.doc_ids.push(doc_id);
        self.offsets.push(self.refs.len() as u32);
    }

    /// Appends one document (preserving order).
    pub fn push(&mut self, doc_id: u64, words: &[CipherWord]) {
        for word in words {
            self.push_word(&word.0);
        }
        self.seal_doc(doc_id);
    }

    /// Appends one document from raw word byte slices — the
    /// wire-decode and log-recovery path: callers hand over borrowed
    /// slices straight out of a received buffer, so a table streams
    /// into columnar storage without ever materializing a boxed
    /// [`CipherWord`] per word.
    pub fn push_raw<'a>(&mut self, doc_id: u64, words: impl IntoIterator<Item = &'a [u8]>) {
        for word in words {
            self.push_word(word);
        }
        self.seal_doc(doc_id);
    }

    /// Appends documents `range` of `src` verbatim — the repartition
    /// repack path: word bytes are copied arena-to-arena without ever
    /// materializing boxed documents.
    ///
    /// # Panics
    /// Panics if the slot widths differ (repartition never mixes
    /// tables).
    pub fn append_range(&mut self, src: &WordArena, range: std::ops::Range<usize>) {
        assert_eq!(self.word_len, src.word_len, "mixed slot widths");
        for i in range {
            for w in src.word_range(i) {
                self.push_word(src.word(w));
            }
            self.seal_doc(src.doc_ids[i]);
        }
    }

    /// Keeps only the documents whose id satisfies `keep`, preserving
    /// order; the arena is rebuilt into canonical form.
    pub fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) {
        let mut rebuilt = WordArena::new(self.word_len);
        rebuilt.doc_ids.reserve(self.len());
        rebuilt.refs.reserve(self.refs.len());
        rebuilt.slots.reserve(self.slots.len());
        for i in 0..self.len() {
            let id = self.doc_ids[i];
            if !keep(id) {
                continue;
            }
            for w in self.word_range(i) {
                rebuilt.push_word(self.word(w));
            }
            rebuilt.seal_doc(id);
        }
        *self = rebuilt;
    }

    /// Total ciphertext bytes (words only, like
    /// [`crate::swp_ph::EncryptedTable::ciphertext_bytes`]).
    #[must_use]
    pub fn ciphertext_bytes(&self) -> usize {
        self.slots.len() + self.irregular.iter().map(Vec::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(id: u64, lens: &[usize]) -> Doc {
        (
            id,
            lens.iter()
                .enumerate()
                .map(|(i, &l)| CipherWord(vec![(id as u8) ^ (i as u8); l]))
                .collect(),
        )
    }

    #[test]
    fn roundtrips_regular_docs() {
        let docs: Vec<Doc> = (0..5).map(|i| doc(i, &[7, 7, 7])).collect();
        let arena = WordArena::from_docs(7, docs.clone());
        assert_eq!(arena.len(), 5);
        assert_eq!(arena.word_count(), 15);
        assert!(!arena.has_irregular());
        assert_eq!(arena.to_docs(), docs);
        assert_eq!(arena.ciphertext_bytes(), 15 * 7);
        for w in 0..15 {
            assert_eq!(arena.regular_slot(w).unwrap(), arena.word(w));
        }
    }

    #[test]
    fn preserves_irregular_words_verbatim() {
        // Lengths 0, short, exact, long — all must round-trip.
        let docs = vec![doc(1, &[5, 0, 3]), doc(2, &[9, 5]), doc(3, &[])];
        let arena = WordArena::from_docs(5, docs.clone());
        assert!(arena.has_irregular());
        assert_eq!(arena.to_docs(), docs);
        assert_eq!(arena.ciphertext_bytes(), 5 + 3 + 9 + 5);
        // Regular slots resolve only for exact-width words.
        assert!(arena.regular_slot(0).is_some());
        assert!(arena.regular_slot(1).is_none());
        assert!(arena.regular_slot(2).is_none());
        assert!(arena.regular_slot(3).is_none());
        assert!(arena.regular_slot(4).is_some());
    }

    #[test]
    fn retain_preserves_order_and_bytes() {
        let docs: Vec<Doc> = (0..10)
            .map(|i| doc(i, &[4, if i % 3 == 0 { 2 } else { 4 }]))
            .collect();
        let mut arena = WordArena::from_docs(4, docs.clone());
        arena.retain(|id| id % 2 == 0);
        let expect: Vec<Doc> = docs.iter().filter(|(id, _)| id % 2 == 0).cloned().collect();
        assert_eq!(arena.to_docs(), expect);
        // Canonical form: equal to an arena built directly.
        assert_eq!(arena, WordArena::from_docs(4, expect));
    }

    #[test]
    fn push_after_retain_keeps_canonical_equality() {
        let mut a = WordArena::from_docs(3, vec![doc(0, &[3]), doc(1, &[3, 1]), doc(2, &[3])]);
        a.retain(|id| id != 1);
        a.push(5, &[CipherWord(vec![9; 3]), CipherWord(vec![8; 2])]);
        let b = WordArena::from_docs(
            3,
            vec![
                doc(0, &[3]),
                doc(2, &[3]),
                (5, vec![CipherWord(vec![9; 3]), CipherWord(vec![8; 2])]),
            ],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn push_raw_equals_boxed_push() {
        // The zero-boxing ingest path must build the identical
        // canonical arena, irregular lengths included.
        let docs = vec![doc(0, &[4, 4]), doc(1, &[4, 2, 6]), doc(2, &[])];
        let boxed = WordArena::from_docs(4, docs.clone());
        let mut raw = WordArena::new(4);
        for (id, words) in &docs {
            raw.push_raw(*id, words.iter().map(|w| w.0.as_slice()));
        }
        assert_eq!(raw, boxed);
        assert_eq!(raw.to_docs(), docs);
    }

    #[test]
    fn append_range_repacks_verbatim() {
        // The repartition path: arbitrary sub-ranges (with irregular
        // words) copied arena-to-arena must equal a direct build.
        let docs: Vec<Doc> = (0..9)
            .map(|i| doc(i, &[4, if i % 2 == 0 { 4 } else { 6 }]))
            .collect();
        let src = WordArena::from_docs(4, docs.clone());
        let mut dst = WordArena::new(4);
        dst.append_range(&src, 0..3);
        dst.append_range(&src, 3..3); // empty range is a no-op
        dst.append_range(&src, 3..9);
        assert_eq!(dst, src);
        let mut partial = WordArena::new(4);
        partial.append_range(&src, 2..5);
        assert_eq!(partial.to_docs(), docs[2..5].to_vec());
    }

    #[test]
    fn word_ranges_address_documents() {
        let arena = WordArena::from_docs(2, vec![doc(7, &[2, 2]), doc(8, &[]), doc(9, &[2])]);
        assert_eq!(arena.word_range(0), 0..2);
        assert_eq!(arena.word_range(1), 2..2);
        assert_eq!(arena.word_range(2), 2..3);
        assert_eq!(arena.doc_id(1), 8);
        assert_eq!(arena.doc(1).1.len(), 0);
    }
}
