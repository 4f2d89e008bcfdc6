//! # dbph — Provable Security for Outsourcing Database Operations
//!
//! A full Rust reproduction of Evdokimov, Fischmann & Günther,
//! *Provable Security for Outsourcing Database Operations* (ICDE 2006):
//! database privacy homomorphisms, the searchable-encryption-based
//! construction of §3, the security games of Definitions 1.2 and 2.1,
//! the impossibility result of Theorem 2.1, and the attacks on prior
//! bucketization/hash-index schemes — plus every substrate they need
//! (crypto primitives, SWP searchable encryption, a small relational
//! engine, an outsourcing client/server protocol).
//!
//! This facade crate re-exports the workspace members under stable
//! paths; see each module's documentation for details, and the
//! `examples/` directory for end-to-end walkthroughs.
//!
//! # Example
//!
//! The paper's §3 flow in a few lines — encrypt a table, outsource it,
//! query it without revealing the query or the data:
//!
//! ```
//! use dbph::core::{Client, FinalSwpPh, Server, ServerConfig};
//! use dbph::crypto::SecretKey;
//! use dbph::relation::schema::emp_schema;
//! use dbph::relation::{tuple, Query, Relation};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let master = SecretKey::from_bytes([7u8; 32]); // use OsEntropy in production
//! let ph = FinalSwpPh::new(emp_schema(), &master)?;
//! // Eve's setup (shards, pool, disk, index) never changes what Alex sees.
//! let eve = Server::open(&ServerConfig::default(), None)?;
//! let mut alex = Client::new(ph, eve);
//!
//! let emp = Relation::from_tuples(
//!     emp_schema(),
//!     vec![
//!         tuple!["Montgomery", "HR", 7500i64],
//!         tuple!["Smith", "IT", 4900i64],
//!     ],
//! )?;
//! alex.outsource(&emp)?;
//!
//! let result = alex.select(&Query::select("name", "Montgomery"))?;
//! assert_eq!(result.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

/// From-scratch cryptographic primitives (SHA-256, HMAC, ChaCha20,
/// AES-128, PRFs, PRGs, small-domain PRPs).
pub use dbph_crypto as crypto;

/// Song–Wagner–Perrig searchable symmetric encryption (Schemes I–IV).
pub use dbph_swp as swp;

/// Relational substrate: schemas, typed values, relations,
/// exact-select queries and a small SQL subset.
pub use dbph_relation as relation;

/// The paper's contribution: the `DatabasePh` trait, the SWP-based
/// construction, and the Alex/Eve outsourcing protocol.
pub use dbph_core as core;

/// Baseline schemes the paper attacks: Hacıgümüş bucketization,
/// Damiani hash indexes, deterministic and plaintext PHs.
pub use dbph_baselines as baselines;

/// Security games (Definitions 1.2 and 2.1), advantage estimation and
/// the paper's attacks (including the generic Theorem 2.1 adversary).
pub use dbph_games as games;

/// Reproducible workload generators (employees, hospital patients,
/// Zipf/uniform value distributions, query mixes).
pub use dbph_workload as workload;
