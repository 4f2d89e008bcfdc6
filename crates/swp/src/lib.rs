//! Song–Wagner–Perrig searchable symmetric encryption.
//!
//! The database privacy homomorphism of Evdokimov et al. (ICDE 2006,
//! §3) is a *general construction over any searchable encryption
//! scheme*; its reference instantiation is Song, Wagner & Perrig,
//! "Practical Techniques for Searches on Encrypted Data" (IEEE S&P
//! 2000). This crate implements the SWP development in full, as four
//! schemes of increasing strength (the numbering follows the SWP
//! paper's narrative):
//!
//! | Scheme | Module | Trapdoor reveals | Decryptable? |
//! |--------|--------|------------------|--------------|
//! | I — basic | [`basic`] | the plaintext word **and** the global check key | yes |
//! | II — controlled | [`controlled`] | the plaintext word + its word key | no (fixed by IV) |
//! | III — hidden | [`hidden`] | only `E''(W)` + its key | no (fixed by IV) |
//! | IV — final | [`final_scheme`] | only `E''(W)` + the `L`-derived key | yes |
//!
//! All four share the same ciphertext shape: word `W` at location `ℓ`
//! becomes `C = X ⊕ ⟨S_ℓ, F_k(S_ℓ)⟩` where `X` is the (possibly
//! pre-encrypted) word, `S_ℓ` is a per-location PRG value, and `F` is a
//! PRF whose key depends on the scheme. Searching compares the low
//! `check_bits` bits of the check block, so a non-matching word passes
//! spuriously with probability `2^-check_bits` — the false-positive
//! rate the paper's §3 tells the client to filter.
//!
//! The server-side match ([`search::matches`]) is a **free function
//! that takes no key material** beyond the trapdoor: that keylessness
//! is what makes the operation outsourceable, and — as the paper's
//! Theorem 2.1 shows — what makes `q > 0` security impossible.
//!
//! The crate stops at one word. Documents, tables and the conjunctive
//! `ψ` over them belong to `dbph-core` (`swp_ph::execute_query`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basic;
pub mod controlled;
mod engine;
pub mod error;
pub mod final_scheme;
pub mod hidden;
pub mod kernel;
pub mod label;
pub mod params;
pub mod search;
pub mod traits;
pub mod word;

pub use basic::BasicScheme;
pub use controlled::ControlledScheme;
pub use error::SwpError;
pub use final_scheme::FinalScheme;
pub use hidden::HiddenScheme;
pub use kernel::ScanKernel;
pub use label::{index_label, IndexLabel, INDEX_LABEL_LEN};
pub use params::SwpParams;
pub use search::{matches, PreparedTrapdoor};
pub use traits::{CipherWord, Location, SearchableScheme, TrapdoorData};
pub use word::Word;
