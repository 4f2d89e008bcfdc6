//! Queries: exact selects, conjunctions, and projections.
//!
//! The paper's construction preserves **exact selects**
//! `σ_{attribute = value}` (Definition 1.1 quantifies over relational
//! operations `σ_i`; §3 instantiates them with exact matches). We model
//! a single exact select, conjunctions of them (an extension the SWP
//! construction supports by intersecting per-term results), and an
//! optional projection applied client-side after decryption.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::RelationError;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// One exact-match predicate `attribute = value`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExactSelect {
    /// Attribute name.
    pub attribute: String,
    /// Value the attribute must equal.
    pub value: Value,
}

impl ExactSelect {
    /// Creates the predicate `attribute = value`.
    #[must_use]
    pub fn new(attribute: impl Into<String>, value: impl Into<Value>) -> Self {
        ExactSelect {
            attribute: attribute.into(),
            value: value.into(),
        }
    }

    /// Binds the predicate to `schema`: checks the attribute exists
    /// and the value fits its type, returning the attribute position.
    ///
    /// # Errors
    /// Returns [`RelationError::UnknownAttribute`] or a type error.
    pub fn bind(&self, schema: &Schema) -> Result<usize, RelationError> {
        let index = schema.index_of(&self.attribute)?;
        let attr = &schema.attributes()[index];
        self.value.check_type(&attr.ty, &attr.name)?;
        Ok(index)
    }

    /// Evaluates the predicate against a tuple (position pre-bound).
    #[must_use]
    pub fn matches_at(&self, tuple: &Tuple, index: usize) -> bool {
        tuple.get(index) == Some(&self.value)
    }
}

impl fmt::Display for ExactSelect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.attribute, self.value)
    }
}

/// A selection query: a conjunction of one or more exact selects.
///
/// `terms` is non-empty by construction; a single-term conjunction is
/// the paper's plain `σ_{a=v}`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Query {
    terms: Vec<ExactSelect>,
}

impl Query {
    /// A single exact select `σ_{attribute = value}`.
    #[must_use]
    pub fn select(attribute: impl Into<String>, value: impl Into<Value>) -> Self {
        Query {
            terms: vec![ExactSelect::new(attribute, value)],
        }
    }

    /// A conjunction of exact selects.
    ///
    /// # Errors
    /// Returns [`RelationError::BadAttributeCount`] if `terms` is empty.
    pub fn conjunction(terms: Vec<ExactSelect>) -> Result<Self, RelationError> {
        if terms.is_empty() {
            return Err(RelationError::BadAttributeCount(0));
        }
        Ok(Query { terms })
    }

    /// The conjunction's terms (never empty).
    #[must_use]
    pub fn terms(&self) -> &[ExactSelect] {
        &self.terms
    }

    /// Whether this is a single-term (paper-style) exact select.
    #[must_use]
    pub fn is_simple(&self) -> bool {
        self.terms.len() == 1
    }

    /// Binds every term against `schema`, returning attribute positions.
    ///
    /// # Errors
    /// Returns the first binding failure.
    pub fn bind(&self, schema: &Schema) -> Result<Vec<usize>, RelationError> {
        self.terms.iter().map(|t| t.bind(schema)).collect()
    }

    /// `σ` on one tuple: whether every term holds, given the positions
    /// [`Query::bind`] returned. Every plaintext check of a conjunction
    /// (selects, deletes, DNF disjuncts, the client's false-positive
    /// filter) runs through here.
    #[must_use]
    pub fn matches(&self, tuple: &Tuple, bound: &[usize]) -> bool {
        self.terms
            .iter()
            .zip(bound)
            .all(|(term, &i)| term.matches_at(tuple, i))
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ[")?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

/// A projection: either all attributes (`SELECT *`) or a named subset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Projection {
    /// Keep all attributes.
    All,
    /// Keep the named attributes, in the given order.
    Columns(Vec<String>),
}

impl Projection {
    /// Resolves the projection to attribute positions in `schema`.
    ///
    /// # Errors
    /// Returns [`RelationError::UnknownAttribute`] for unknown columns.
    pub fn resolve(&self, schema: &Schema) -> Result<Vec<usize>, RelationError> {
        match self {
            Projection::All => Ok((0..schema.arity()).collect()),
            Projection::Columns(names) => names.iter().map(|n| schema.index_of(n)).collect(),
        }
    }
}

impl fmt::Display for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Projection::All => write!(f, "*"),
            Projection::Columns(names) => write!(f, "{}", names.join(", ")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::emp_schema;
    use crate::tuple;

    #[test]
    fn bind_resolves_position_and_type() {
        let q = ExactSelect::new("dept", "HR");
        assert_eq!(q.bind(&emp_schema()).unwrap(), 1);
    }

    #[test]
    fn bind_rejects_unknown_attribute() {
        let q = ExactSelect::new("nope", 1i64);
        assert_eq!(
            q.bind(&emp_schema()).unwrap_err(),
            RelationError::UnknownAttribute("nope".into())
        );
    }

    #[test]
    fn bind_rejects_type_mismatch() {
        let q = ExactSelect::new("salary", "high");
        assert!(matches!(
            q.bind(&emp_schema()),
            Err(RelationError::TypeMismatch { .. })
        ));
        // Over-wide string against STRING(5).
        let q = ExactSelect::new("dept", "Engineering");
        assert!(matches!(
            q.bind(&emp_schema()),
            Err(RelationError::StringTooLong { .. })
        ));
    }

    #[test]
    fn matches_at() {
        let t = tuple!["Montgomery", "HR", 7500i64];
        assert!(ExactSelect::new("dept", "HR").matches_at(&t, 1));
        assert!(!ExactSelect::new("dept", "IT").matches_at(&t, 1));
        assert!(!ExactSelect::new("dept", "HR").matches_at(&t, 5));
    }

    #[test]
    fn conjunction_requires_terms() {
        assert!(Query::conjunction(vec![]).is_err());
        let q = Query::conjunction(vec![
            ExactSelect::new("dept", "HR"),
            ExactSelect::new("salary", 7500i64),
        ])
        .unwrap();
        assert!(!q.is_simple());
        assert_eq!(q.bind(&emp_schema()).unwrap(), vec![1, 2]);
    }

    #[test]
    fn select_is_simple() {
        let q = Query::select("name", "Montgomery");
        assert!(q.is_simple());
        assert_eq!(q.terms().len(), 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Query::select("name", "Montgomery").to_string(),
            "σ[name = 'Montgomery']"
        );
        let q = Query::conjunction(vec![
            ExactSelect::new("dept", "HR"),
            ExactSelect::new("salary", 7500i64),
        ])
        .unwrap();
        assert_eq!(q.to_string(), "σ[dept = 'HR' AND salary = 7500]");
    }

    #[test]
    fn projection_resolution() {
        let s = emp_schema();
        assert_eq!(Projection::All.resolve(&s).unwrap(), vec![0, 1, 2]);
        assert_eq!(
            Projection::Columns(vec!["salary".into(), "name".into()])
                .resolve(&s)
                .unwrap(),
            vec![2, 0]
        );
        assert!(Projection::Columns(vec!["x".into()]).resolve(&s).is_err());
    }
}
