//! Plaintext query execution — the reference semantics.
//!
//! Definition 1.1 requires `E_k(σ_i(R)) = ψ_i(E_k(R))`; this module is
//! the left-hand side. Every PH implementation is tested against it:
//! decrypting the server-side result must equal running the plaintext
//! query here.

use crate::error::RelationError;
use crate::query::{Projection, Query};
use crate::relation::Relation;
use crate::tuple::Tuple;

/// Evaluates `σ_query(relation)` over plaintext.
///
/// # Errors
/// Returns binding errors (unknown attribute, type mismatch).
pub fn select(relation: &Relation, query: &Query) -> Result<Relation, RelationError> {
    let indices = query.bind(relation.schema())?;
    let mut out = Relation::empty(relation.schema().clone());
    for tuple in relation.tuples() {
        if query.matches(tuple, &indices) {
            out.insert(tuple.clone())
                .expect("tuple from same schema always validates");
        }
    }
    Ok(out)
}

/// Applies a projection to the tuples of `relation`, returning raw
/// tuples (projection generally changes the schema, so the result is
/// not a [`Relation`]).
///
/// # Errors
/// Returns [`RelationError::UnknownAttribute`] for unknown columns.
pub fn project(relation: &Relation, projection: &Projection) -> Result<Vec<Tuple>, RelationError> {
    let indices = projection.resolve(relation.schema())?;
    Ok(relation
        .tuples()
        .iter()
        .map(|t| t.project(&indices))
        .collect())
}

/// Deletes `σ_query(relation)` in place, returning how many tuples
/// were removed.
///
/// # Errors
/// Returns binding errors (unknown attribute, type mismatch).
pub fn delete(relation: &mut Relation, query: &Query) -> Result<usize, RelationError> {
    let indices = query.bind(relation.schema())?;
    Ok(relation.remove_where(|tuple| query.matches(tuple, &indices)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ExactSelect;
    use crate::schema::emp_schema;
    use crate::tuple;
    use crate::value::Value;

    fn emp() -> Relation {
        Relation::from_tuples(
            emp_schema(),
            vec![
                tuple!["Montgomery", "HR", 7500i64],
                tuple!["Smith", "IT", 4900i64],
                tuple!["Jones", "IT", 1200i64],
                tuple!["Ng", "IT", 4900i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn select_by_string() {
        let r = select(&emp(), &Query::select("dept", "IT")).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r
            .tuples()
            .iter()
            .all(|t| t.get(1) == Some(&Value::str("IT"))));
    }

    #[test]
    fn select_by_int() {
        let r = select(&emp(), &Query::select("salary", 4900i64)).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn select_no_match() {
        let r = select(&emp(), &Query::select("name", "Nobody")).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn select_conjunction_intersects() {
        let q = Query::conjunction(vec![
            ExactSelect::new("dept", "IT"),
            ExactSelect::new("salary", 4900i64),
        ])
        .unwrap();
        let r = select(&emp(), &q).unwrap();
        assert_eq!(r.len(), 2);
        let names: Vec<_> = r
            .tuples()
            .iter()
            .map(|t| t.get(0).unwrap().clone())
            .collect();
        assert!(names.contains(&Value::str("Smith")));
        assert!(names.contains(&Value::str("Ng")));
    }

    #[test]
    fn select_binding_errors_propagate() {
        assert!(select(&emp(), &Query::select("missing", 1i64)).is_err());
        assert!(select(&emp(), &Query::select("salary", "str")).is_err());
    }

    #[test]
    fn select_on_empty_relation() {
        let r = Relation::empty(emp_schema());
        let out = select(&r, &Query::select("dept", "IT")).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn project_columns() {
        let cols = project(&emp(), &Projection::Columns(vec!["name".into()])).unwrap();
        assert_eq!(cols.len(), 4);
        assert_eq!(cols[0].values(), &[Value::str("Montgomery")]);
    }

    #[test]
    fn project_all_is_identity_on_values() {
        let rows = project(&emp(), &Projection::All).unwrap();
        assert_eq!(rows[1], tuple!["Smith", "IT", 4900i64]);
    }

    #[test]
    fn delete_removes_and_counts() {
        let mut r = emp();
        assert_eq!(
            delete(&mut r, &Query::select("salary", 4900i64)).unwrap(),
            2
        );
        assert_eq!(r.len(), 2);
        assert_eq!(
            delete(&mut r, &Query::select("salary", 4900i64)).unwrap(),
            0
        );
        // Binding errors propagate without mutating.
        assert!(delete(&mut r, &Query::select("missing", 1i64)).is_err());
        assert_eq!(r.len(), 2);
    }
}
