//! Quickstart: outsource a table, query it, stay encrypted.
//!
//! Replays the paper's §3 running example end to end: the `Emp`
//! relation is encrypted under Alex's key, shipped to Eve's server as
//! bytes, queried with an encrypted exact select, and the result is
//! decrypted and false-positive-filtered client-side.
//!
//! Run with: `cargo run --example quickstart`

use dbph::core::{Client, FinalSwpPh, Server, ServerConfig};
use dbph::crypto::{OsEntropy, SecretKey};
use dbph::relation::schema::emp_schema;
use dbph::relation::{tuple, Projection, Query, Relation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Alex generates a fresh master key. Nothing derived from it ever
    // leaves his machine.
    let mut entropy = OsEntropy;
    let master = SecretKey::generate(&mut entropy);

    // The paper's running example: Emp(name, dept, salary).
    let emp = Relation::from_tuples(
        emp_schema(),
        vec![
            tuple!["Montgomery", "HR", 7500i64],
            tuple!["Smith", "IT", 4900i64],
            tuple!["Jones", "IT", 1200i64],
            tuple!["Ng", "IT", 4900i64],
        ],
    )?;
    println!("Plaintext relation:\n{emp}\n");

    // Eve's server: stores ciphertext, executes keyless trapdoor scans,
    // records everything it sees.
    // Record Eve's transcript: this demo prints what she saw.
    let config = ServerConfig {
        transcript: true,
        ..ServerConfig::default()
    };
    let server = Server::open(&config, None)?;
    let ph = FinalSwpPh::new(emp_schema(), &master)?;
    let mut alex = Client::new(ph, server.clone());

    alex.outsource(&emp)?;
    println!("Outsourced {} tuples to Eve.\n", emp.len());

    // σ_name:"Montgomery" — the paper's worked query.
    let query = Query::select("name", "Montgomery");
    let result = alex.select(&query)?;
    println!("{query} returned:\n{result}\n");

    // Conjunctions and projections work too.
    let q2 = Query::conjunction(vec![
        dbph::relation::ExactSelect::new("dept", "IT"),
        dbph::relation::ExactSelect::new("salary", 4900i64),
    ])?;
    let rows = alex.select_projected(&q2, &Projection::Columns(vec!["name".into()]))?;
    println!("{q2} projected to name:");
    for row in rows {
        println!("  {row}");
    }

    // Inserts go through without re-encrypting the table.
    alex.insert(&tuple!["Kim", "HR", 7500i64])?;
    let all = alex.fetch_all()?;
    println!("\nAfter insert, table holds {} tuples.", all.len());

    // What did Eve learn? Ciphertext sizes and access patterns — no values.
    println!(
        "\nEve's transcript ({} events):",
        server.observer().events().len()
    );
    for (terms, matched) in server.observer().queries() {
        println!(
            "  observed {} trapdoor(s); matching doc ids: {matched:?}",
            terms.len()
        );
    }
    Ok(())
}
