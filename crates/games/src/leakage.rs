//! Leakage profiling of a server transcript.
//!
//! The paper's position is that "a secure scheme must not leak a
//! single bit", and its attacks show how mundane observables compose
//! into inferences. This module quantifies those observables for an
//! actual deployment transcript (the [`dbph_core::Observer`] events):
//! result-set sizes, query repetition (deterministic query encryption
//! makes identical queries visibly identical), per-document access
//! frequencies, and result co-occurrence — the raw material of the
//! §2 attacks.

use std::collections::{BTreeMap, BTreeSet};

use dbph_core::server::ServerEvent;

/// Aggregated observables Eve can compute from her own transcript.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageProfile {
    /// Tuple counts of uploaded tables (public by tuple-wise encryption).
    pub upload_cardinalities: Vec<usize>,
    /// Result-set size per observed query, in order.
    pub result_sizes: Vec<usize>,
    /// Number of queries that were *exact repeats* of an earlier query
    /// (identical trapdoor bytes — deterministic query encryption).
    pub repeated_queries: usize,
    /// How often each document id appeared in any result.
    pub doc_access_counts: BTreeMap<u64, usize>,
    /// Number of unordered document pairs that co-occurred in at least
    /// one result set (the intersection structure the hospital attack
    /// exploits).
    pub cooccurring_pairs: usize,
    /// Document ids the client asked to delete (confirmed deletes leak
    /// exactly which stored tuples matched a plaintext predicate).
    pub deleted_docs: Vec<u64>,
    /// Posting-list length per encrypted-index probe, in order. Only
    /// non-empty when the server runs with the inverted index enabled:
    /// each probe names a label and how many documents its posting
    /// holds — the index's own access-pattern leakage, over and above
    /// the scan's.
    pub index_posting_sizes: Vec<usize>,
}

impl LeakageProfile {
    /// The most frequently accessed document and its count, if any
    /// query returned results.
    #[must_use]
    pub fn hottest_doc(&self) -> Option<(u64, usize)> {
        self.doc_access_counts
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(&d, &c)| (d, c))
    }

    /// Renders a human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "uploads: {:?} tuples; {} queries (sizes {:?}, {} repeated); ",
            self.upload_cardinalities,
            self.result_sizes.len(),
            self.result_sizes,
            self.repeated_queries
        ));
        s.push_str(&format!(
            "{} docs touched, {} co-occurring pairs, {} deleted",
            self.doc_access_counts.len(),
            self.cooccurring_pairs,
            self.deleted_docs.len()
        ));
        s
    }
}

/// Computes the profile from a transcript.
#[must_use]
pub fn profile(events: &[ServerEvent]) -> LeakageProfile {
    let mut upload_cardinalities = Vec::new();
    let mut result_sizes = Vec::new();
    let mut seen_queries: BTreeSet<Vec<u8>> = BTreeSet::new();
    let mut repeated_queries = 0usize;
    let mut doc_access_counts: BTreeMap<u64, usize> = BTreeMap::new();
    let mut cooccurring: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut deleted_docs = Vec::new();
    let mut index_posting_sizes = Vec::new();

    for event in events {
        match event {
            ServerEvent::Upload { tuples, .. } => upload_cardinalities.push(*tuples),
            ServerEvent::Query {
                terms,
                matched_doc_ids,
                ..
            } => {
                result_sizes.push(matched_doc_ids.len());
                // Fingerprint the query by its trapdoor bytes.
                let mut fingerprint = Vec::new();
                for t in terms {
                    fingerprint.extend_from_slice(&t.target);
                    fingerprint.extend_from_slice(&t.check_key);
                }
                if !seen_queries.insert(fingerprint) {
                    repeated_queries += 1;
                }
                for &d in matched_doc_ids {
                    *doc_access_counts.entry(d).or_insert(0) += 1;
                }
                for (i, &a) in matched_doc_ids.iter().enumerate() {
                    for &b in &matched_doc_ids[i + 1..] {
                        cooccurring.insert((a.min(b), a.max(b)));
                    }
                }
            }
            ServerEvent::DeleteDocs { doc_ids, .. } => {
                deleted_docs.extend_from_slice(doc_ids);
            }
            ServerEvent::IndexProbe { posting, .. } => {
                index_posting_sizes.push(*posting);
            }
            ServerEvent::Append { .. }
            | ServerEvent::FetchAll { .. }
            | ServerEvent::FetchChunk { .. }
            | ServerEvent::Drop { .. } => {}
        }
    }

    LeakageProfile {
        upload_cardinalities,
        result_sizes,
        repeated_queries,
        doc_access_counts,
        cooccurring_pairs: cooccurring.len(),
        deleted_docs,
        index_posting_sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbph_core::{Client, FinalSwpPh, Server, ServerConfig};
    use dbph_crypto::SecretKey;
    use dbph_relation::schema::emp_schema;
    use dbph_relation::{tuple, Query, Relation};

    fn session() -> (Client, Server) {
        let server = Server::open(
            &ServerConfig {
                transcript: true,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        let ph = FinalSwpPh::new(emp_schema(), &SecretKey::from_bytes([71u8; 32])).unwrap();
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
    fn profile_captures_sizes_and_repeats() {
        let (mut client, server) = session();
        client.outsource(&emp()).unwrap();
        client.select(&Query::select("dept", "IT")).unwrap();
        client.select(&Query::select("dept", "IT")).unwrap(); // repeat!
        client.select(&Query::select("name", "Montgomery")).unwrap();

        let p = profile(&server.observer().events());
        assert_eq!(p.upload_cardinalities, vec![3]);
        assert_eq!(p.result_sizes, vec![2, 2, 1]);
        assert_eq!(
            p.repeated_queries, 1,
            "deterministic query encryption must make the repeat visible"
        );
        // Docs 1 and 2 (IT) accessed twice; doc 0 once.
        assert_eq!(p.doc_access_counts.get(&0), Some(&1));
        assert_eq!(p.doc_access_counts.get(&1), Some(&2));
        assert_eq!(p.hottest_doc().map(|(_, c)| c), Some(2));
        // The two IT docs co-occurred.
        assert_eq!(p.cooccurring_pairs, 1);
    }

    #[test]
    fn profile_captures_deletes() {
        let (mut client, server) = session();
        client.outsource(&emp()).unwrap();
        client.delete(&Query::select("dept", "IT")).unwrap();
        let p = profile(&server.observer().events());
        assert_eq!(p.deleted_docs.len(), 2);
        assert!(p.summary().contains("2 deleted"));
    }

    #[test]
    fn empty_transcript_profiles_cleanly() {
        let p = profile(&[]);
        assert!(p.upload_cardinalities.is_empty());
        assert!(p.result_sizes.is_empty());
        assert_eq!(p.repeated_queries, 0);
        assert_eq!(p.hottest_doc(), None);
    }
}
