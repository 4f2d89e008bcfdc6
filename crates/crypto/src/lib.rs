//! Cryptographic primitives for the `dbph` workspace.
//!
//! The paper's construction (Evdokimov, Fischmann, Günther, ICDE 2006,
//! §3) is generic over a *searchable encryption scheme*; the concrete
//! instantiation follows Song–Wagner–Perrig, which in turn is built
//! from four standard ingredients:
//!
//! * a **pseudorandom generator** `G` (here: the ChaCha20 keystream,
//!   [`prg::ChaChaPrg`]),
//! * a **pseudorandom function** `F` (here: HMAC-SHA-256,
//!   [`prf::HmacPrf`]),
//! * a **deterministic cipher** `E''` used to pre-encrypt words
//!   (here: a length-preserving 4-round Feistel network with
//!   HMAC-SHA-256 round functions, [`cipher::WideBlockPrp`]),
//! * a **CPA-secure cipher** for tuple payloads (here: ChaCha20 with a
//!   random nonce, [`cipher::StreamCipher`]).
//!
//! No third-party cryptography crates are used anywhere in the
//! workspace; every primitive in this crate is implemented from the
//! specification and validated against the official test vectors
//! (FIPS 180-4, RFC 4231, RFC 8439, FIPS 197) in its module tests.
//!
//! # SHA-256 backends and `unsafe`
//!
//! Every SHA-256 compression of scalar hashing and HMAC runs on the
//! CPU's SHA extensions when it has them, chosen by one runtime
//! feature check, and on portable Rust otherwise. The scan kernel's
//! 16-lane HMAC ([`prf::HmacPrf::eval_lanes_into`]) runs as one fused
//! AVX-512F computation when a second runtime check finds AVX-512F,
//! and as four 4-lane groups on SHA-NI or portable Rust otherwise.
//! The digests are bit-identical on every backend. The crate is
//! `deny(unsafe_code)`; the two modules allowed `unsafe` are the
//! x86-64 backends (`sha256_ni` and `sha256_avx512`), for their
//! `#[target_feature]` calls and vector loads and stores, each with a
//! `SAFETY` comment.
//!
//! # Security disclaimer
//!
//! These implementations are written for clarity and reproducibility of
//! a research artifact. They are *not* hardened against side channels
//! beyond using constant-time equality ([`ct::ct_eq`]) where the
//! protocol requires it.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod chacha20;
pub mod cipher;
pub mod ct;
pub mod error;
pub mod feistel;
pub mod hmac;
pub mod kdf;
pub mod keys;
pub mod prf;
pub mod prg;
pub mod rng;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
mod sha256_avx512;
#[cfg(target_arch = "x86_64")]
mod sha256_ni;
pub mod sha256x4;

pub use cipher::{DeterministicCipher, RandomizedCipher, SealedCipher, StreamCipher};
pub use error::CryptoError;
pub use keys::SecretKey;
pub use prf::{HmacPrf, Prf};
pub use prg::{ChaChaPrg, Prg};
pub use rng::{DeterministicRng, EntropySource, OsEntropy};
