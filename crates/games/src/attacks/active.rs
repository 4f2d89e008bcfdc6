//! The §2 active-adversary attacks and the constructive Theorem 2.1
//! demonstration (experiment E3).
//!
//! Two artifacts:
//!
//! * [`CardinalityAdversary`] — the generic Definition 2.1 adversary
//!   behind Theorem 2.1. It works against **any** [`DatabasePh`]
//!   because the server-side operator `ψ` is keyless and result
//!   cardinality is observable: choose `T₁`, `T₂` that differ in how
//!   many tuples one exact select matches, obtain that query's
//!   encryption from the oracle, apply it, count. With `q ≥ 1` the
//!   advantage is ≈ 1 for every scheme (modulo the scheme's own false
//!   positives); with `q = 0` it collapses to guessing — the paper's
//!   relaxed security notion in action.
//! * [`locate_john`] — the narrative version: "Suppose there was a
//!   patient John and Eve wants to find out in which hospital he was
//!   treated and what happened to him." Intersect the result of
//!   `σ_name=John` with each `σ_hospital=X` and with
//!   `σ_outcome=fatal`.

use std::collections::BTreeSet;

use dbph_core::{DatabasePh, PhError};
use dbph_crypto::DeterministicRng;
use dbph_relation::schema::hospital_schema;
use dbph_relation::{tuple, Query, Relation, Value};

use crate::dbgame::{DbAdversary, Transcript};

/// The generic Theorem 2.1 adversary.
///
/// `T₁` plants the distinguished patient in hospital 1, `T₂` in
/// hospital 2; all filler tuples live in hospital 3. The single oracle
/// query `σ_hospital=1` returns one tuple on `T₁` and none on `T₂`.
pub struct CardinalityAdversary {
    filler_rows: usize,
}

impl CardinalityAdversary {
    /// Creates the adversary with `filler_rows` identical-distribution
    /// filler tuples per table.
    #[must_use]
    pub fn new(filler_rows: usize) -> Self {
        CardinalityAdversary { filler_rows }
    }

    fn table_with_john_in(&self, hospital: i64) -> Relation {
        let mut tuples = vec![tuple![1i64, "John", hospital, false]];
        for i in 0..self.filler_rows {
            tuples.push(tuple![i as i64 + 2, format!("P{:06}", i + 2), 3i64, false]);
        }
        Relation::from_tuples(hospital_schema(), tuples).expect("valid by construction")
    }
}

impl Default for CardinalityAdversary {
    fn default() -> Self {
        CardinalityAdversary::new(9)
    }
}

impl<P: DatabasePh> DbAdversary<P> for CardinalityAdversary {
    fn choose_tables(&self, _rng: &mut DeterministicRng) -> (Relation, Relation) {
        (self.table_with_john_in(1), self.table_with_john_in(2))
    }

    fn oracle_queries(&self, _rng: &mut DeterministicRng) -> Vec<Query> {
        vec![Query::select("hospital", 1i64)]
    }

    fn guess(&self, transcript: &Transcript<P>, _rng: &mut DeterministicRng) -> usize {
        match transcript.interactions.first() {
            // Non-empty result ⇒ John is in hospital 1 ⇒ T₁ (index 0).
            Some(i) => usize::from(P::ciphertext_len(&i.result) == 0),
            // q = 0: no signal; a constant guess has zero advantage.
            None => 0,
        }
    }
}

/// What [`locate_john`] infers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JohnFindings {
    /// The hospital whose result set contains John's tuple, if unique.
    pub hospital: Option<i64>,
    /// Whether John's tuple appears in the `outcome = fatal` result.
    pub fatal: bool,
}

/// Runs the §2 "John" attack against `ph` over `relation`:
/// oracle-encrypt `σ_name=John`, `σ_hospital=X` for each hospital, and
/// `σ_outcome=fatal`; apply everything to the table ciphertext
/// (keyless!) and intersect tuple identities.
///
/// # Errors
/// Propagates PH failures (encryption, query binding).
pub fn locate_john<P: DatabasePh>(
    ph: &P,
    relation: &Relation,
    hospitals: i64,
) -> Result<JohnFindings, PhError> {
    let table_ct = ph.encrypt_table(relation)?;

    let ids_for = |query: &Query, table_ct: &P::TableCt| -> Result<BTreeSet<u64>, PhError> {
        let qct = ph.encrypt_query(query)?;
        let result = P::apply(table_ct, &qct);
        Ok(P::doc_ids(&result).into_iter().collect())
    };

    let john_ids = ids_for(&Query::select("name", "John"), &table_ct)?;

    let mut hospital = None;
    let mut unique = true;
    for h in 1..=hospitals {
        let ids = ids_for(&Query::select("hospital", Value::int(h)), &table_ct)?;
        if !john_ids.is_disjoint(&ids) {
            if hospital.is_some() {
                unique = false;
            }
            hospital = Some(h);
        }
    }
    if !unique {
        hospital = None;
    }

    let fatal_ids = ids_for(&Query::select("outcome", true), &table_ct)?;
    let fatal = !john_ids.is_disjoint(&fatal_ids);

    Ok(JohnFindings { hospital, fatal })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgame::{run_db_game, AdversaryMode};
    use dbph_baselines::{DamianiPh, DeterministicPh, PlaintextPh, VarlenPh};
    use dbph_core::FinalSwpPh;
    use dbph_crypto::SecretKey;
    use dbph_workload::HospitalConfig;

    #[test]
    fn theorem_2_1_breaks_the_papers_own_construction_with_q_1() {
        // The heart of the paper: even the provably-q=0-secure scheme
        // falls to one oracle query.
        let factory = |rng: &mut DeterministicRng| {
            FinalSwpPh::new(hospital_schema(), &SecretKey::generate(rng)).unwrap()
        };
        let est = run_db_game(
            &factory,
            &CardinalityAdversary::default(),
            AdversaryMode::Active,
            1,
            200,
            31,
        );
        assert!(est.advantage() > 0.95, "{est}");
    }

    #[test]
    fn same_adversary_is_blind_at_q_0() {
        let factory = |rng: &mut DeterministicRng| {
            FinalSwpPh::new(hospital_schema(), &SecretKey::generate(rng)).unwrap()
        };
        let est = run_db_game(
            &factory,
            &CardinalityAdversary::default(),
            AdversaryMode::Active,
            0,
            300,
            32,
        );
        assert!(est.advantage().abs() < 0.15, "{est}");
    }

    #[test]
    fn theorem_2_1_applies_to_every_scheme() {
        // Deterministic, Damiani, varlen, plaintext: all fall at q = 1.
        let est = run_db_game(
            &|rng: &mut DeterministicRng| {
                DeterministicPh::new(hospital_schema(), &SecretKey::generate(rng))
            },
            &CardinalityAdversary::default(),
            AdversaryMode::Active,
            1,
            100,
            33,
        );
        assert!(est.advantage() > 0.9, "det: {est}");

        let est = run_db_game(
            &|rng: &mut DeterministicRng| {
                DamianiPh::new(hospital_schema(), &SecretKey::generate(rng)).unwrap()
            },
            &CardinalityAdversary::default(),
            AdversaryMode::Active,
            1,
            100,
            34,
        );
        assert!(est.advantage() > 0.9, "damiani: {est}");

        let est = run_db_game(
            &|rng: &mut DeterministicRng| {
                VarlenPh::new(hospital_schema(), &SecretKey::generate(rng)).unwrap()
            },
            &CardinalityAdversary::default(),
            AdversaryMode::Active,
            1,
            100,
            35,
        );
        assert!(est.advantage() > 0.9, "varlen: {est}");

        let est = run_db_game(
            &|_rng: &mut DeterministicRng| PlaintextPh::new(hospital_schema()),
            &CardinalityAdversary::default(),
            AdversaryMode::Active,
            1,
            100,
            36,
        );
        assert!(est.advantage() > 0.9, "plaintext: {est}");
    }

    #[test]
    fn locate_john_finds_hospital_and_outcome() {
        let cfg = HospitalConfig {
            patients: 200,
            ..HospitalConfig::default()
        };
        for (hospital, fatal) in [(1i64, false), (2, true), (3, false)] {
            let (relation, _) = cfg.generate_with_john(77, hospital, fatal);
            let ph =
                FinalSwpPh::new(hospital_schema(), &SecretKey::from_bytes([13u8; 32])).unwrap();
            let findings = locate_john(&ph, &relation, 3).unwrap();
            assert_eq!(findings.hospital, Some(hospital));
            assert_eq!(findings.fatal, fatal);
        }
    }

    #[test]
    fn locate_john_works_against_varlen_too() {
        let cfg = HospitalConfig {
            patients: 100,
            ..HospitalConfig::default()
        };
        let (relation, _) = cfg.generate_with_john(78, 2, true);
        let ph = VarlenPh::new(hospital_schema(), &SecretKey::from_bytes([14u8; 32])).unwrap();
        let findings = locate_john(&ph, &relation, 3).unwrap();
        assert_eq!(findings.hospital, Some(2));
        assert!(findings.fatal);
    }
}
