//! Parallel result decryption gives the serial path's answer.
//!
//! Results of at least `PARALLEL_DECRYPT_ROWS` rows decrypt in chunks
//! on the client pool. The reference here is the one-row-at-a-time
//! path: each document decrypted as a one-row table, which is always
//! below the threshold. Tables of 0–200 rows cross it.
//!
//! * `decrypt_docs` and `decrypt_result` equal the reference row for
//!   row, in order.
//! * With wrong-length words planted at two random rows, the error is
//!   the reference's, which is the earlier row's.
//! * `Client::select` over a sharded server equals the plaintext
//!   `select`.

use dbph::core::swp_ph::PARALLEL_DECRYPT_ROWS;
use dbph::core::{Client, DatabasePh, EncryptedTable, FinalSwpPh, PhError, Server, ServerConfig};
use dbph::crypto::SecretKey;
use dbph::relation::{exec, Query, Relation, Tuple};
use dbph::workload::EmployeeGen;

use proptest::prelude::*;

/// Decrypts `table` one row at a time, stopping at the first failure.
fn one_row_at_a_time(
    ph: &FinalSwpPh,
    table: &EncryptedTable,
) -> Result<Vec<(u64, Tuple)>, PhError> {
    let mut rows = Vec::with_capacity(table.len());
    for doc in &table.docs {
        let one = EncryptedTable {
            params: table.params,
            docs: vec![doc.clone()],
            next_doc_id: table.next_doc_id,
        };
        rows.extend(ph.decrypt_docs(&one)?);
    }
    Ok(rows)
}

#[test]
fn the_sweep_crosses_the_threshold() {
    assert!((2..200).contains(&PARALLEL_DECRYPT_ROWS));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fanned_out_decryption_equals_the_serial_path(
        seed in 0u64..1_000,
        rows in 0usize..=200,
        dept in 0u64..8,
        first in any::<u64>(),
        second in any::<u64>(),
    ) {
        let relation = EmployeeGen { rows, departments: 8, ..EmployeeGen::default() }
            .generate(seed);
        let schema = EmployeeGen::schema();
        let ph = FinalSwpPh::new(schema.clone(), &SecretKey::from_bytes([(seed % 251) as u8; 32]))
            .unwrap();
        let table = ph.encrypt_table(&relation).unwrap();
        let query = Query::select("dept", format!("dept-{dept:02}"));

        let serial = one_row_at_a_time(&ph, &table).unwrap();
        prop_assert_eq!(&ph.decrypt_docs(&table).unwrap(), &serial);
        let candidates =
            Relation::from_tuples(schema, serial.into_iter().map(|(_, t)| t).collect()).unwrap();
        prop_assert_eq!(&ph.decrypt_table(&table).unwrap(), &candidates);
        prop_assert_eq!(
            ph.decrypt_result(&table, &query).unwrap(),
            exec::select(&candidates, &query).unwrap()
        );

        if rows > 0 {
            // Two wrong-length words of different lengths; the earlier
            // row's must be the one reported.
            let mut bad = table.clone();
            let a = (first % rows as u64) as usize;
            let b = (second % rows as u64) as usize;
            bad.docs[a].1[(first >> 32) as usize % 3].0.push(0);
            if b != a {
                bad.docs[b].1[(second >> 32) as usize % 3].0.pop();
            }
            let expected = one_row_at_a_time(&ph, &bad).unwrap_err();
            prop_assert_eq!(&ph.decrypt_docs(&bad).unwrap_err(), &expected);
            prop_assert_eq!(&ph.decrypt_table(&bad).unwrap_err(), &expected);
            prop_assert_eq!(&ph.decrypt_result(&bad, &query).unwrap_err(), &expected);
        }

        let mut client = Client::new(ph.clone(), Server::open(&ServerConfig::default(), None).unwrap());
        client.outsource(&relation).unwrap();
        prop_assert_eq!(
            client.select(&query).unwrap(),
            exec::select(&relation, &query).unwrap()
        );
    }
}
