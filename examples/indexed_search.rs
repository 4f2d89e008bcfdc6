//! Sublinear search with the opt-in encrypted inverted index — and
//! the leakage it costs.
//!
//! The reference server answers every query by scanning the whole
//! table (one keyed match check per stored word). This example flips
//! on the encrypted multimap, shows a warmed point query answering
//! orders of magnitude faster with byte-identical results, and then
//! audits the price: the server's at-rest image now carries one
//! posting list per queried label, whose *lengths* rank exactly like
//! the plaintext value distribution.
//!
//! Run with: `cargo run --release --example indexed_search`

use std::time::Instant;

use dbph::core::{Client, FinalSwpPh, Server, ServerConfig};
use dbph::crypto::SecretKey;
use dbph::relation::Query;
use dbph::workload::EmployeeGen;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rows = 20_000;
    let relation = EmployeeGen {
        rows,
        ..EmployeeGen::default()
    }
    .generate(5);
    let key = SecretKey::from_bytes([42u8; 32]);

    // Two servers, same session: the reference scan and the indexed
    // plan. The index is server-side and opt-in; the client code is
    // identical.
    let scan_server = Server::open(&ServerConfig::default(), None)?;
    let mut scan_client = Client::new(FinalSwpPh::new(EmployeeGen::schema(), &key)?, scan_server);

    let indexed_server = Server::open(
        &ServerConfig {
            index: true,
            ..ServerConfig::default()
        },
        None,
    )?;
    let mut indexed_client = Client::new(
        FinalSwpPh::new(EmployeeGen::schema(), &key)?,
        indexed_server.clone(),
    );

    println!("Outsourcing {rows} tuples to both servers…");
    scan_client.outsource(&relation)?;
    indexed_client.outsource(&relation)?;

    // Warm the posting: the first probe of a term scans once and
    // memoizes; every later query is a multimap lookup plus a delta
    // scan over whatever was appended since.
    let query = Query::select("name", "emp-0000042");
    let _ = indexed_client.select(&query)?;

    let started = Instant::now();
    let scanned = scan_client.select(&query)?;
    let scan_time = started.elapsed();

    let started = Instant::now();
    let indexed = indexed_client.select(&query)?;
    let index_time = started.elapsed();

    assert!(scanned.same_multiset(&indexed), "plans must agree");
    println!("Point query, full scan:    {scan_time:?}");
    println!("Point query, warm posting: {index_time:?}");
    println!(
        "Speedup: {:.0}x (byte-identical results — the SWP match is \
         deterministic, false positives included)",
        scan_time.as_secs_f64() / index_time.as_secs_f64().max(1e-9)
    );

    // The price: the multimap is part of Eve's at-rest state. Probe
    // the departments and look at what the disk now reveals.
    for dept in 0..8 {
        let _ = indexed_client.select(&Query::select("dept", format!("dept-{dept:02}")))?;
    }
    let mut postings = indexed_server.index_at_rest(indexed_client.table_name());
    postings.sort_by_key(|(_, ids)| std::cmp::Reverse(ids.len()));
    println!("\nEve's at-rest index image ({} keys):", postings.len());
    for ((attr, label), ids) in postings.iter().take(5) {
        println!(
            "  attr {attr} label {:02x}{:02x}{:02x}… → {} docs",
            label[0],
            label[1],
            label[2],
            ids.len()
        );
    }
    println!(
        "Posting lengths are result-set sizes made durable: ranked \
         against a known value distribution they recover attribute \
         frequencies (see crates/games attacks::posting). The scan-only \
         server keeps no such state — sublinear time is bought with \
         at-rest access-pattern leakage."
    );
    Ok(())
}
