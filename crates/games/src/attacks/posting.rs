//! Posting-list length analysis against the encrypted inverted index.
//!
//! The scan-only deployment keeps *nothing* query-derived at rest:
//! between sessions the server stores cipher words that never repeat,
//! and [`super::frequency`] shows frequency analysis collapsing to a
//! blind guess against them. The opt-in inverted index
//! ([`dbph_core::index`]) changes that deliberately: once Eve's server
//! has answered a query workload, its multimap holds one posting list
//! per queried label, and the *length* of each posting is exactly the
//! result-set size of the query that built it. Those lengths persist —
//! compaction writes them into the snapshot segment — so an adversary
//! who only ever reads the disk image (no live transcript at all)
//! inherits the access-pattern leakage of every query run before the
//! theft.
//!
//! This module measures that gap with the same rank-matching machinery
//! as [`super::frequency`]: rank the at-rest posting lists by length,
//! match them against a publicly known value distribution, and count
//! recovered tuples. Against the index the rate is near-total; against
//! the scan-only server the at-rest image is empty and the rate is
//! exactly zero.

use dbph_core::Server;
use dbph_relation::{Relation, Value};

/// The posting-length attack: a purely at-rest adversary who steals
/// the server's index image after some query workload has run.
pub struct PostingLengthAttack;

impl PostingLengthAttack {
    /// Runs the attack against `server`'s current at-rest index image
    /// for `table`. Eve knows the true value distribution of the
    /// attribute (`known_distribution`, rank 0 = most common value)
    /// and assigns each posting list, by length rank, the
    /// correspondingly ranked value; the return value is the fraction
    /// of tuples whose attribute she recovers correctly.
    ///
    /// `relation` is the ground truth used only for *scoring* — the
    /// adversary itself reads nothing but posting lengths and the
    /// public distribution. Document ids index `relation`'s tuples in
    /// upload order (ids beyond the relation — deleted or
    /// false-positive ghosts — simply score as misses).
    #[must_use]
    pub fn recovery_rate(
        server: &Server,
        table: &str,
        relation: &Relation,
        attr_index: usize,
        known_distribution: &[Value],
    ) -> f64 {
        let at_rest = server.index_at_rest(table);
        let mut ranked: Vec<Vec<u64>> = at_rest.into_iter().map(|(_, ids)| ids).collect();
        ranked.sort_by_key(|ids| std::cmp::Reverse(ids.len()));

        let mut correct = 0usize;
        for (rank, posting) in ranked.iter().enumerate() {
            let Some(guessed_value) = known_distribution.get(rank) else {
                continue;
            };
            for doc in posting {
                let Some(tuple) = relation.tuples().get(*doc as usize) else {
                    continue;
                };
                let truth = tuple.get(attr_index).expect("attr index bound");
                if truth == guessed_value {
                    correct += 1;
                }
            }
        }
        correct as f64 / relation.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leakage::profile;
    use dbph_core::{Client, FinalSwpPh, Server, ServerConfig};
    use dbph_crypto::SecretKey;
    use dbph_relation::schema::emp_schema;
    use dbph_relation::{tuple, Query};

    /// 60% HR, 30% IT, 10% OPS — the same skewed dept distribution the
    /// frequency attack uses.
    fn skewed_relation() -> Relation {
        let mut tuples = Vec::new();
        for i in 0..100i64 {
            let dept = if i < 60 {
                "HR"
            } else if i < 90 {
                "IT"
            } else {
                "OPS"
            };
            tuples.push(tuple![format!("e{i:03}"), dept, 100i64]);
        }
        Relation::from_tuples(emp_schema(), tuples).unwrap()
    }

    fn known_distribution() -> Vec<Value> {
        vec![Value::str("HR"), Value::str("IT"), Value::str("OPS")]
    }

    /// Drives the same workload against `server` and returns the
    /// attack's recovery rate plus the number of index probes the
    /// observer recorded.
    fn run_workload(server: &Server) -> (f64, usize) {
        let ph = FinalSwpPh::new(emp_schema(), &SecretKey::from_bytes([83u8; 32])).unwrap();
        let mut client = Client::new(ph, server.clone());
        let relation = skewed_relation();
        client.outsource(&relation).unwrap();
        for dept in ["HR", "IT", "OPS"] {
            client.select(&Query::select("dept", dept)).unwrap();
        }
        let table = client.table_name().to_string();
        let rate =
            PostingLengthAttack::recovery_rate(server, &table, &relation, 1, &known_distribution());
        let probes = profile(&server.observer().events())
            .index_posting_sizes
            .len();
        (rate, probes)
    }

    #[test]
    fn index_at_rest_state_yields_frequency_recovery() {
        let server = Server::open(
            &ServerConfig {
                index: true,
                transcript: true,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        let (rate, probes) = run_workload(&server);
        assert!(
            rate > 0.9,
            "posting lengths must rank like the plaintext distribution, got {rate}"
        );
        assert_eq!(probes, 3, "each select must probe the multimap once");
    }

    #[test]
    fn scan_only_server_keeps_nothing_to_attack() {
        let server = Server::open(
            &ServerConfig {
                transcript: true,
                ..ServerConfig::default()
            },
            None,
        )
        .unwrap();
        let (rate, probes) = run_workload(&server);
        assert_eq!(rate, 0.0, "no at-rest multimap, no recovery");
        assert_eq!(probes, 0, "scan plan records no index probes");
    }
}
