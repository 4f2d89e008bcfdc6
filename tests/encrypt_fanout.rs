//! Lane-batched and fanned-out row encryption give the serial path's
//! ciphertexts.
//!
//! Every row Alex encrypts goes through `FinalSwpPh::encrypt_rows`:
//! sixteen words per lane dispatch, and at `PARALLEL_ENCRYPT_ROWS` rows
//! or more, waves of `FAN_OUT_WAVE_ROWS` rows split over the client
//! pool. The reference here is one row at a time (`append_tuple` onto
//! a growing table), whose three words are below one dispatch and so
//! take the scalar `encrypt_word`. Random tables of 0–600 rows cross
//! the threshold; one table of `2 * FAN_OUT_WAVE_ROWS + 40` rows
//! crosses the first two wave boundaries.
//!
//! * `encrypt_table` and `encrypt_rows` (at any first document id)
//!   equal the reference byte for byte, in order.
//! * With invalid tuples planted at two rows, the error is the
//!   reference's, which is the earlier row's.
//! * `Client::insert_many` of a fanned-out batch lands rows a select
//!   finds.

use dbph::core::swp_ph::{FAN_OUT_WAVE_ROWS, PARALLEL_ENCRYPT_ROWS};
use dbph::core::{
    Client, DatabasePh, EncryptedTable, FinalSwpPh, IncrementalPh, PhError, Server, ServerConfig,
};
use dbph::crypto::SecretKey;
use dbph::relation::{exec, Query, Relation, Tuple, Value};
use dbph::workload::EmployeeGen;

use proptest::prelude::*;

/// Encrypts `tuples` one row at a time as documents `first..`,
/// stopping at the first failure.
fn one_row_at_a_time(
    ph: &FinalSwpPh,
    first: u64,
    tuples: &[Tuple],
) -> Result<EncryptedTable, PhError> {
    let mut table = EncryptedTable {
        params: *ph.params(),
        docs: Vec::new(),
        next_doc_id: first,
    };
    for tuple in tuples {
        ph.append_tuple(&mut table, tuple)?;
    }
    Ok(table)
}

// The sweep below crosses the threshold, and a 16-row `insert_many`
// stays on the caller's thread.
const _: () = {
    assert!(16 < PARALLEL_ENCRYPT_ROWS && PARALLEL_ENCRYPT_ROWS < 600);
};

/// Plants a type error at row `a` and an arity error at row `b`.
fn with_bad_rows(tuples: &[Tuple], a: usize, b: usize) -> Vec<Tuple> {
    let mut bad = tuples.to_vec();
    bad[a] = Tuple::new(vec![Value::int(1), Value::str("HR"), Value::int(2)]);
    if b != a {
        bad[b] = Tuple::new(vec![Value::str("short")]);
    }
    bad
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fanned_out_encryption_equals_the_serial_path(
        seed in 0u64..1_000,
        rows in 0usize..=600,
        first_id in 0u64..=u64::MAX - 1_000,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let relation = EmployeeGen { rows, ..EmployeeGen::default() }.generate(seed);
        let ph = FinalSwpPh::new(
            EmployeeGen::schema(),
            &SecretKey::from_bytes([(seed % 251) as u8; 32]),
        )
        .unwrap();
        let tuples = relation.tuples();

        let serial = one_row_at_a_time(&ph, 0, tuples).unwrap();
        let table = ph.encrypt_table(&relation).unwrap();
        prop_assert_eq!(&table.docs, &serial.docs);
        prop_assert_eq!(table.next_doc_id, rows as u64);

        let shifted = one_row_at_a_time(&ph, first_id, tuples).unwrap();
        prop_assert_eq!(&ph.encrypt_rows(first_id, tuples).unwrap().to_docs(), &shifted.docs);

        if rows > 0 {
            // A type error and an arity error; the earlier row's must
            // be the one reported.
            let bad = with_bad_rows(tuples, (a % rows as u64) as usize, (b % rows as u64) as usize);
            let expected = one_row_at_a_time(&ph, first_id, &bad).unwrap_err();
            prop_assert_eq!(&ph.encrypt_rows(first_id, &bad).unwrap_err(), &expected);
        }
    }
}

#[test]
fn encryption_across_wave_boundaries_equals_the_serial_path() {
    let rows = 2 * FAN_OUT_WAVE_ROWS + 40;
    let relation = EmployeeGen {
        rows,
        ..EmployeeGen::default()
    }
    .generate(5);
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([9u8; 32])).unwrap();
    let tuples = relation.tuples();
    let first_id = 1u64 << 40;

    let serial = one_row_at_a_time(&ph, first_id, tuples).unwrap();
    assert_eq!(
        ph.encrypt_rows(first_id, tuples).unwrap().to_docs(),
        serial.docs
    );

    // Two rows in one wave's two chunks, then rows in the third and
    // second waves: the earlier row's error is the one reported.
    let half = FAN_OUT_WAVE_ROWS / 2;
    for (a, b) in [
        (FAN_OUT_WAVE_ROWS + 3, FAN_OUT_WAVE_ROWS + half + 3),
        (rows - 1, FAN_OUT_WAVE_ROWS + 1),
    ] {
        let bad = with_bad_rows(tuples, a, b);
        let expected = one_row_at_a_time(&ph, first_id, &bad).unwrap_err();
        assert_eq!(
            ph.encrypt_rows(first_id, &bad).unwrap_err(),
            expected,
            "rows {a}, {b}"
        );
    }
}

#[test]
fn a_fanned_out_insert_many_is_found_by_select() {
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &SecretKey::from_bytes([3u8; 32])).unwrap();
    let relation = EmployeeGen {
        rows: 2 * PARALLEL_ENCRYPT_ROWS + 40,
        departments: 4,
        ..EmployeeGen::default()
    }
    .generate(11);
    let (head, tail) = relation.tuples().split_at(40);
    let mut client = Client::new(ph, Server::open(&ServerConfig::default(), None).unwrap());
    client
        .outsource(&Relation::from_tuples(EmployeeGen::schema(), head.to_vec()).unwrap())
        .unwrap();
    client.insert_many(tail).unwrap();
    for dept in 0..4 {
        let query = Query::select("dept", format!("dept-{dept:02}"));
        assert!(client
            .select(&query)
            .unwrap()
            .same_multiset(&exec::select(&relation, &query).unwrap()));
    }
}
