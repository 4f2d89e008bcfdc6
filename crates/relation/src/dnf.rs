//! Disjunctive-normal-form queries: `OR` of conjunctions.
//!
//! The paper's construction preserves exact selects; conjunctions come
//! for free (intersect per-term matches) and disjunctions almost for
//! free (union per-disjunct results, then de-duplicate). This module
//! adds the DNF layer over [`Query`] so the SQL subset can support
//! `WHERE a = v AND b = w OR c = x` — the flavour of expressiveness
//! the Hacıgümüş "full SQL" line of work advertises, here with the
//! same security story as a single exact select (each disjunct leaks
//! its own access pattern).

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::RelationError;
use crate::query::Query;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// A query in disjunctive normal form: a non-empty `OR` of
/// conjunctions of exact selects.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dnf {
    disjuncts: Vec<Query>,
}

impl Dnf {
    /// Builds a DNF from its disjuncts.
    ///
    /// # Errors
    /// Returns [`RelationError::BadAttributeCount`] when empty.
    pub fn new(disjuncts: Vec<Query>) -> Result<Self, RelationError> {
        if disjuncts.is_empty() {
            return Err(RelationError::BadAttributeCount(0));
        }
        Ok(Dnf { disjuncts })
    }

    /// A single-disjunct DNF (an ordinary conjunction).
    #[must_use]
    pub fn single(query: Query) -> Self {
        Dnf {
            disjuncts: vec![query],
        }
    }

    /// The disjuncts (never empty).
    #[must_use]
    pub fn disjuncts(&self) -> &[Query] {
        &self.disjuncts
    }

    /// Whether this is a plain conjunction.
    #[must_use]
    pub fn is_single(&self) -> bool {
        self.disjuncts.len() == 1
    }

    /// Binds every disjunct against `schema`.
    ///
    /// # Errors
    /// Returns the first binding failure.
    pub fn bind(&self, schema: &Schema) -> Result<Vec<Vec<usize>>, RelationError> {
        self.disjuncts.iter().map(|q| q.bind(schema)).collect()
    }

    /// Evaluates the DNF on one tuple given pre-bound indices (as
    /// returned by [`Dnf::bind`]).
    #[must_use]
    pub fn matches(&self, tuple: &Tuple, bound: &[Vec<usize>]) -> bool {
        self.disjuncts
            .iter()
            .zip(bound)
            .any(|(q, idx)| q.matches(tuple, idx))
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, q) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " OR ")?;
            }
            write!(f, "{q}")?;
        }
        Ok(())
    }
}

impl From<Query> for Dnf {
    fn from(q: Query) -> Self {
        Dnf::single(q)
    }
}

/// Evaluates `σ_dnf(relation)` over plaintext. Each tuple appears at
/// most once even when several disjuncts match it.
///
/// # Errors
/// Returns binding errors.
pub fn select_dnf(relation: &Relation, dnf: &Dnf) -> Result<Relation, RelationError> {
    let bound = dnf.bind(relation.schema())?;
    let mut out = Relation::empty(relation.schema().clone());
    for tuple in relation.tuples() {
        if dnf.matches(tuple, &bound) {
            out.insert(tuple.clone())
                .expect("same-schema tuple validates");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ExactSelect;
    use crate::schema::emp_schema;
    use crate::tuple;

    fn emp() -> Relation {
        Relation::from_tuples(
            emp_schema(),
            vec![
                tuple!["Montgomery", "HR", 7500i64],
                tuple!["Smith", "IT", 4900i64],
                tuple!["Jones", "IT", 1200i64],
                tuple!["Ng", "OPS", 4900i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn empty_dnf_rejected() {
        assert!(Dnf::new(vec![]).is_err());
    }

    #[test]
    fn single_disjunct_equals_plain_select() {
        let q = Query::select("dept", "IT");
        let via_dnf = select_dnf(&emp(), &Dnf::single(q.clone())).unwrap();
        let direct = crate::exec::select(&emp(), &q).unwrap();
        assert!(via_dnf.same_multiset(&direct));
    }

    #[test]
    fn union_without_duplicates() {
        // salary = 4900 OR dept = 'IT': Smith matches both disjuncts
        // but must appear once.
        let dnf = Dnf::new(vec![
            Query::select("salary", 4900i64),
            Query::select("dept", "IT"),
        ])
        .unwrap();
        let r = select_dnf(&emp(), &dnf).unwrap();
        assert_eq!(r.len(), 3); // Smith, Jones, Ng
    }

    #[test]
    fn conjunction_inside_disjunction() {
        let dnf = Dnf::new(vec![
            Query::conjunction(vec![
                ExactSelect::new("dept", "IT"),
                ExactSelect::new("salary", 4900i64),
            ])
            .unwrap(),
            Query::select("name", "Montgomery"),
        ])
        .unwrap();
        let r = select_dnf(&emp(), &dnf).unwrap();
        assert_eq!(r.len(), 2); // Smith + Montgomery
    }

    #[test]
    fn binding_errors_surface() {
        let dnf = Dnf::new(vec![
            Query::select("dept", "IT"),
            Query::select("missing", 1i64),
        ])
        .unwrap();
        assert!(select_dnf(&emp(), &dnf).is_err());
    }

    #[test]
    fn display() {
        let dnf = Dnf::new(vec![
            Query::select("dept", "IT"),
            Query::select("salary", 4900i64),
        ])
        .unwrap();
        assert_eq!(dnf.to_string(), "σ[dept = 'IT'] OR σ[salary = 4900]");
    }
}
