//! E6 — the §3 worked example, replayed end to end.
//!
//! Reproduces the paper's `Emp` walkthrough literally: the word
//! rendering (`⟨name:"Montgomery", dept:"HR", sal:7500⟩ ↦
//! {"MontgomeryN", "HR########D", "7500######S"}`), the query mapping
//! (`σ_name:"Montgomery" ↦ φ_"MontgomeryN"`), and the full outsourced
//! flow through the byte-level client/server protocol, showing what
//! Eve's transcript does and does not contain.
//!
//! Usage: `exp_e6_emp` (no parameters — the example is fixed).

use dbph_core::encoding::paper_style;
use dbph_core::{Client, FinalSwpPh, Server, ServerConfig};
use dbph_crypto::SecretKey;
use dbph_relation::schema::emp_schema;
use dbph_relation::{tuple, Query, Relation};

fn main() {
    println!("# E6 — the §3 worked example");
    println!();

    // 1. The paper's literal word rendering.
    println!("## Word encoding (paper rendering, width 10 + attribute letter)");
    for (value, letter) in [("Montgomery", 'N'), ("HR", 'D'), ("7500", 'S')] {
        println!("  {value:>10} -> {:?}", paper_style(value, 10, letter));
    }
    println!();
    println!("  (The production codec adds a 2-byte length prefix for");
    println!("   injectivity; see dbph-core::encoding for why.)");
    println!();

    // 2. The outsourced flow.
    let relation = Relation::from_tuples(
        emp_schema(),
        vec![
            tuple!["Montgomery", "HR", 7500i64],
            tuple!["Smith", "IT", 4900i64],
            tuple!["Jones", "IT", 1200i64],
        ],
    )
    .expect("static table");

    let config = ServerConfig {
        transcript: true,
        ..ServerConfig::default()
    };
    let server = Server::open(&config, None).expect("a transcript config opens");
    let ph =
        FinalSwpPh::new(emp_schema(), &SecretKey::from_bytes([6u8; 32])).expect("static schema");
    let mut client = Client::new(ph, server.clone());

    client.outsource(&relation).expect("outsource");
    println!(
        "## Outsourced {} tuples as {} encrypted documents",
        relation.len(),
        relation.len()
    );

    let query = Query::select("name", "Montgomery");
    let result = client.select(&query).expect("select");
    println!();
    println!("## σ_name:\"Montgomery\" over the encrypted table:");
    for t in result.tuples() {
        println!("  {t}");
    }

    // 3. Eve's view.
    println!();
    println!("## What Eve recorded:");
    for event in server.observer().events() {
        match event {
            dbph_core::server::ServerEvent::Upload {
                name,
                tuples,
                bytes,
            } => {
                println!("  upload:   table {name:?}, {tuples} tuple ciphertexts, {bytes} bytes");
            }
            dbph_core::server::ServerEvent::Query {
                terms,
                matched_doc_ids,
                ..
            } => {
                println!(
                    "  query:    {} trapdoor(s), matched doc ids {matched_doc_ids:?}",
                    terms.len()
                );
                for t in &terms {
                    println!(
                        "            trapdoor target (E''(word), hex): {}",
                        t.target
                            .iter()
                            .map(|b| format!("{b:02x}"))
                            .collect::<String>()
                    );
                }
            }
            other => println!("  {other:?}"),
        }
    }
    println!();
    println!("# Note what is absent: no plaintext values, no key material. What is");
    println!("# present: the access pattern — which document matched. That residue");
    println!("# is exactly what Theorem 2.1 turns into an attack once q > 0.");
}
