//! Operational lifecycle: snapshots, confirmed deletes, key rotation,
//! and leakage profiling.
//!
//! Everything a deployment needs around the core construction: export
//! an integrity-checked ciphertext snapshot before risky operations,
//! delete tuples without ever trusting the server's false positives,
//! rotate the master key, and audit what the server has been able to
//! observe so far.
//!
//! Run with: `cargo run --example operations`

use dbph::core::{snapshot, Client, DatabasePh, FinalSwpPh, Server, ServerConfig};
use dbph::crypto::SecretKey;
use dbph::games::leakage;
use dbph::relation::{tuple, Query};
use dbph::workload::EmployeeGen;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Record Eve's transcript: the leakage profile below reads it.
    let config = ServerConfig {
        transcript: true,
        ..ServerConfig::default()
    };
    let server = Server::open(&config, None)?;
    let old_key = SecretKey::from_bytes([10u8; 32]);
    let ph = FinalSwpPh::new(EmployeeGen::schema(), &old_key)?;
    let mut client = Client::new(ph, server.clone());

    let relation = EmployeeGen {
        rows: 500,
        ..EmployeeGen::default()
    }
    .generate(77);
    client.outsource(&relation)?;
    println!("Outsourced {} tuples.", relation.len());

    // 1. Snapshot before doing anything risky. The snapshot is pure
    //    ciphertext — safe to store anywhere.
    let ph_for_snapshot = FinalSwpPh::new(EmployeeGen::schema(), &old_key)?;
    let ct = ph_for_snapshot.encrypt_table(&client.fetch_all()?)?;
    let blob = snapshot::export("Emp", &ct);
    println!("Snapshot: {} bytes, integrity-checked.", blob.len());
    let (restored_name, restored) = snapshot::import(&blob)?;
    assert_eq!(restored_name, "Emp");
    assert_eq!(restored.len(), 500);

    // 2. Confirmed delete: the server only ever removes ids the client
    //    verified in plaintext, so false positives are never deleted.
    client.insert(&tuple!["temp-worker", "dept-00", 1i64])?;
    let removed = client.delete(&Query::select("name", "temp-worker"))?;
    println!("Deleted {removed} tuple(s) via two-phase confirm.");

    // 3. Key rotation: re-encrypt everything under a fresh key.
    let new_key = SecretKey::from_bytes([20u8; 32]);
    client.rekey(FinalSwpPh::new(EmployeeGen::schema(), &new_key)?)?;
    println!("Rotated master key; table still answers queries:");
    let r = client.select(&Query::select("dept", "dept-01"))?;
    println!("  dept-01 has {} employees.", r.len());

    // 4. Leakage audit: what could Eve (or whoever buys her disks)
    //    reconstruct from this session?
    let profile = leakage::profile(&server.observer().events());
    println!("\nLeakage audit of Eve's transcript:");
    println!("  {}", profile.summary());
    if let Some((doc, count)) = profile.hottest_doc() {
        println!("  hottest document: id {doc} returned {count} time(s)");
    }
    println!("\nNote the deleted doc ids and result sizes — access patterns");
    println!("accumulate even when every byte stored is ciphertext.");
    Ok(())
}
