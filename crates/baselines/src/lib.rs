//! Schemes Eve never serves — the prior work the paper attacks, and
//! its own variable-width scheme: five [`dbph_core::DatabasePh`]s for
//! the games, experiments and benches (the deployment runs only §3's):
//!
//! * [`bucketization::BucketizationPh`] — Hacıgümüş, Iyer, Li &
//!   Mehrotra (SIGMOD 2002): tuples encrypted with a secure cipher,
//!   then *weakly encrypted attributes attached*: each value maps to a
//!   containing interval whose identifier is encrypted with a secret
//!   permutation. The paper's §1 two-table salary example breaks its
//!   indistinguishability; experiment E1 measures that advantage.
//! * [`damiani::DamianiPh`] — Damiani, De Capitani di Vimercati,
//!   Jajodia, Paraboschi & Samarati (CCS 2003): a deterministic keyed
//!   hash of each attribute value as the server-side index. "Similar
//!   attacks work" (§1) — E1 measures this too.
//! * [`det::DeterministicPh`] — the strawman that encrypts every cell
//!   deterministically (AES-ECB): exact selects with zero false
//!   positives, maximal equality leakage.
//! * [`plaintext::PlaintextPh`] — the identity PH: no confidentiality,
//!   the performance floor for every bench.
//! * [`varlen::VarlenPh`] — §3 with the "attributes of variable
//!   length" the paper defers: a word width and an SWP instance per
//!   attribute, on the one word format (`dbph_core::encoding`).
//!
//! All five satisfy Definition 1.1's homomorphism law (their *results*
//! are correct — correctness was never the problem); what differs is
//! what Eve's transcript reveals, which is exactly what `dbph-games`
//! quantifies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucketization;
pub mod damiani;
pub mod det;
pub mod payload;
pub mod plaintext;
pub mod varlen;

pub use bucketization::{BucketConfig, BucketizationPh};
pub use damiani::DamianiPh;
pub use det::DeterministicPh;
pub use plaintext::PlaintextPh;
pub use varlen::VarlenPh;
