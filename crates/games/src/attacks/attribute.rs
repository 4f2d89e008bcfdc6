//! Which attribute did each query target? Recovery from the transcript.
//!
//! The served construction addresses every query term to its
//! attribute's word position ([`WireTrapdoor::attr`]), so `ψ` checks one
//! word per row instead of all of them. That puts the attribute on the
//! wire for *every* query. Before addressing, Eve learned a query's
//! attribute only when the query matched something: she could re-run
//! the keyless check over the words of a matched row and see which
//! position matched. A query with an empty result told her nothing
//! about its attribute.
//!
//! Stated as a pair of transcripts, in the style of equivalence-based
//! security: the sessions `σ_name="x"` and `σ_dept="y"` over the same
//! table, both with empty results, produced transcripts with the same
//! shape (one term of the same byte lengths, no matched ids), so Eve
//! could not tell them apart. Addressed, the two transcripts differ in
//! the term's `attr` byte, and Eve tells them apart with advantage 1.
//!
//! This module measures the difference on one transcript, two ways:
//!
//! * [`AttributeAttack::guess_addressed`] reads the attribute off the
//!   term; on an addressed transcript it is always right;
//! * [`AttributeAttack::guess_stripped`] ignores `attr` and recovers the
//!   attribute the old way — keyless `matches` over each word of a
//!   matched row — falling back to the most likely attribute under a
//!   public prior when no row matched.
//!
//! [`run_mix`] drives a seeded query mix, including empty-result
//! queries, through a server and scores both guessers against the
//! truth.

use dbph_core::protocol::{ClientMessage, WireTrapdoor};
use dbph_core::wire::WireEncode as _;
use dbph_core::{DatabasePh, EncryptedTable, FinalSwpPh, Server, ServerConfig};
use dbph_crypto::{DeterministicRng, EntropySource as _, SecretKey};
use dbph_relation::{Query, Value};
use dbph_swp::matches;
use dbph_workload::EmployeeGen;

/// The attribute-recovery adversary. Both guessers see only what Eve
/// holds: the query terms, the matched ids, and her stored table.
pub struct AttributeAttack;

impl AttributeAttack {
    /// The guess on an addressed transcript: the first term's `attr`
    /// (`None` for the empty conjunction).
    #[must_use]
    pub fn guess_addressed(terms: &[WireTrapdoor]) -> Option<u8> {
        terms.first().map(|term| term.attr)
    }

    /// The guess with `attr` stripped: the first word position at which
    /// the first term passes the keyless check in some matched row of
    /// `table`, else `prior` (Eve's most likely attribute). A match at
    /// a wrong position — a false positive — misleads this guess just
    /// as it misled Eve before addressing.
    #[must_use]
    pub fn guess_stripped(
        table: &EncryptedTable,
        terms: &[WireTrapdoor],
        matched_doc_ids: &[u64],
        prior: u8,
    ) -> u8 {
        let Some(term) = terms.first() else {
            return prior;
        };
        matched_doc_ids
            .iter()
            .filter_map(|id| {
                let at = table.docs.binary_search_by_key(id, |(doc, _)| *doc).ok()?;
                let words = &table.docs[at].1;
                words
                    .iter()
                    .position(|word| matches(&table.params, term, word))
            })
            .next()
            .and_then(|position| u8::try_from(position).ok())
            .unwrap_or(prior)
    }
}

/// Attribute weights of the query mix (`name`, `dept`, `salary`), out
/// of their sum: the public prior. `name` is the most likely.
pub const MIX_WEIGHTS: [u64; 3] = [5, 3, 2];

/// Percentage of mix queries asking for a value absent from the table
/// (empty results).
pub const EMPTY_PERCENT: u64 = 30;

/// Scores of both guessers over one query mix.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeReport {
    /// Queries in the mix.
    pub queries: usize,
    /// Queries whose result was empty.
    pub empty: usize,
    /// Success rate of [`AttributeAttack::guess_addressed`].
    pub addressed: f64,
    /// Success rate of [`AttributeAttack::guess_stripped`].
    pub stripped: f64,
}

/// Outsources a seeded `rows`-row `Emp` table, runs `queries`
/// single-term selects (attributes drawn by [`MIX_WEIGHTS`],
/// [`EMPTY_PERCENT`] of them for absent values) and scores both
/// guessers on the resulting transcript.
///
/// # Panics
/// Panics if the server rejects the session (it never should).
#[must_use]
pub fn run_mix(rows: usize, queries: usize, seed: u64) -> AttributeReport {
    let relation = EmployeeGen {
        rows,
        ..EmployeeGen::default()
    }
    .generate(seed);
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([61u8; 32]))
        .expect("Emp fits the default parameters");
    let table = ph.encrypt_table(&relation).expect("generated rows encrypt");
    let config = ServerConfig {
        transcript: true,
        ..ServerConfig::default()
    };
    let server = Server::open(&config, None).expect("a transcript config opens");
    let send = |msg: ClientMessage| {
        let _ = server.handle(&msg.to_wire());
    };
    send(ClientMessage::CreateTable {
        name: "Emp".into(),
        table: table.clone().into(),
    });

    let mut rng = DeterministicRng::from_seed(seed).child("attribute-mix");
    let total: u64 = MIX_WEIGHTS.iter().sum();
    let mut truth = Vec::with_capacity(queries);
    for i in 0..queries {
        let mut pick = rng.below(total);
        let attr = MIX_WEIGHTS
            .iter()
            .position(|&w| {
                let hit = pick < w;
                pick = pick.saturating_sub(w);
                hit
            })
            .expect("pick below the weight sum");
        let absent = rng.below(100) < EMPTY_PERCENT;
        let value = if absent {
            match attr {
                0 => Value::str(format!("absent-{i}")),
                1 => Value::str("dept-99"),
                _ => Value::int(-1 - i as i64),
            }
        } else {
            let row = rng.below(relation.len() as u64) as usize;
            relation.tuples()[row].get(attr).expect("bound").clone()
        };
        let name = EmployeeGen::schema().attributes()[attr].name.clone();
        let qct = ph
            .encrypt_query(&Query::select(name, value))
            .expect("query binds");
        send(ClientMessage::Query {
            name: "Emp".into(),
            terms: qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect(),
        });
        truth.push(attr as u8);
    }

    let transcript = server.observer().queries();
    assert_eq!(transcript.len(), queries, "every query reached the server");
    let prior = 0u8; // argmax of MIX_WEIGHTS
    let mut addressed = 0usize;
    let mut stripped = 0usize;
    let mut empty = 0usize;
    for ((terms, matched), &attr) in transcript.iter().zip(&truth) {
        empty += usize::from(matched.is_empty());
        addressed += usize::from(AttributeAttack::guess_addressed(terms) == Some(attr));
        stripped +=
            usize::from(AttributeAttack::guess_stripped(&table, terms, matched, prior) == attr);
    }
    AttributeReport {
        queries,
        empty,
        addressed: addressed as f64 / queries as f64,
        stripped: stripped as f64 / queries as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressed_transcript_reveals_every_attribute() {
        let report = run_mix(200, 400, 3);
        println!(
            "attribute attack: {} queries ({} empty): addressed {:.4}, stripped {:.4}",
            report.queries, report.empty, report.addressed, report.stripped
        );
        assert_eq!(report.addressed, 1.0);
        // Stripped, Eve is right on every query that matched and on
        // the empty ones that targeted the prior attribute: strictly
        // between the non-empty share and 1.
        let non_empty = 1.0 - report.empty as f64 / report.queries as f64;
        assert!(report.empty > 0, "the mix must include empty results");
        assert!(report.stripped >= non_empty, "{report:?}");
        assert!(report.stripped < 1.0, "{report:?}");
    }

    #[test]
    fn empty_result_pair_is_now_distinguishable() {
        // σ_name="x" and σ_dept="y", both empty: the same transcript
        // shape without `attr`, different transcripts with it.
        let relation = EmployeeGen {
            rows: 20,
            ..EmployeeGen::default()
        }
        .generate(1);
        let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([9u8; 32])).unwrap();
        let table = ph.encrypt_table(&relation).unwrap();
        let transcript = |query: Query| {
            let config = ServerConfig {
                transcript: true,
                ..ServerConfig::default()
            };
            let server = Server::open(&config, None).unwrap();
            let _ = server.handle(
                &ClientMessage::CreateTable {
                    name: "Emp".into(),
                    table: table.clone().into(),
                }
                .to_wire(),
            );
            let qct = ph.encrypt_query(&query).unwrap();
            let terms: Vec<WireTrapdoor> =
                qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect();
            let _ = server.handle(
                &ClientMessage::Query {
                    name: "Emp".into(),
                    terms,
                }
                .to_wire(),
            );
            server.observer().queries().pop().unwrap()
        };
        let a = transcript(Query::select("name", "nobody"));
        let b = transcript(Query::select("dept", "none"));
        let shape = |(terms, ids): &(Vec<WireTrapdoor>, Vec<u64>)| {
            let lens: Vec<(usize, usize)> = terms
                .iter()
                .map(|t| (t.target.len(), t.check_key.len()))
                .collect();
            (lens, ids.clone())
        };
        assert!(a.1.is_empty() && b.1.is_empty());
        assert_eq!(shape(&a), shape(&b), "stripped: same shape");
        assert_eq!(AttributeAttack::guess_stripped(&table, &a.0, &a.1, 0), 0);
        assert_eq!(AttributeAttack::guess_stripped(&table, &b.0, &b.1, 0), 0);
        assert_eq!(AttributeAttack::guess_addressed(&a.0), Some(0));
        assert_eq!(AttributeAttack::guess_addressed(&b.0), Some(1));
    }

    #[test]
    fn stripped_guess_reads_the_matching_position() {
        let relation = EmployeeGen {
            rows: 10,
            ..EmployeeGen::default()
        }
        .generate(2);
        let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([4u8; 32])).unwrap();
        let table = ph.encrypt_table(&relation).unwrap();
        let salary = relation.tuples()[3].get(2).unwrap().clone();
        let qct = ph.encrypt_query(&Query::select("salary", salary)).unwrap();
        let terms: Vec<WireTrapdoor> = qct.terms.iter().map(WireTrapdoor::from_trapdoor).collect();
        assert_eq!(
            AttributeAttack::guess_stripped(&table, &terms, &[3], 0),
            2,
            "the salary word is word 2"
        );
        assert_eq!(AttributeAttack::guess_stripped(&table, &[], &[3], 1), 1);
    }
}
